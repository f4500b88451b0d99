//! Pluggable storage backends for durable engine state.
//!
//! Everything the engine keeps in RAM — EDB relations, saturated
//! databases, interned strings, prebuilt hash indexes — can be frozen
//! into named *artifacts* and reopened later through one trait,
//! [`StorageBackend`]. The interface shape follows cozo's engine switch
//! (`open_db(engine, path)`): one [`open`] entry point, several engines,
//! zero behavioral drift between them. Two backends ship:
//!
//! - [`MemBackend`] — the default. Artifacts live in a process-local
//!   map; nothing survives the process. This is the existing in-memory
//!   behaviour, made explicit.
//! - [`FileBackend`] — one file per artifact under a directory, written
//!   atomically (`<name>.vart.tmp` → fsync → rename → directory fsync),
//!   so a crash mid-write leaves either the old artifact or none, never
//!   a torn one.
//!
//! ## Artifact framing (corruption is an error, never a panic)
//!
//! Every artifact is framed like the action journal and the `VADASAS2`
//! snapshots:
//!
//! ```text
//! [magic "VADASAW1"] [format version: u32 LE] [fingerprint: u64 LE]
//! [payload length: u32 LE] [CRC-32 (IEEE) of payload: u32 LE] [payload]
//! ```
//!
//! [`decode_artifact`] is **total**: truncation, bit flips, alien magic,
//! future versions and fingerprint mismatches all decode to a structured
//! [`StorageError`], never a panic. Persisted artifacts are strictly
//! *caches* — every consumer has a documented cold path that rebuilds
//! the same state from primary inputs, so any load failure degrades to
//! a cold start with identical results (the fallback-soundness argument
//! of DESIGN.md §15).
//!
//! File I/O goes through the [`ArtifactIo`] trait so the fault harness
//! (`vadasa-core`'s `faults::StorageFault`) can inject torn writes, full
//! disks, corrupt pages and reopen denials without touching a real
//! disk's error paths.

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic identifying a Vada-SA storage artifact, framing version 1.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"VADASAW1";

/// Extension of artifact files inside a [`FileBackend`] directory.
pub const ARTIFACT_EXT: &str = "vart";

/// Which storage engine backs an artifact store. The interface shape is
/// cozo's `open_db(engine, path)`: callers pick an engine by name and
/// get the same [`StorageBackend`] contract regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageEngine {
    /// Process-local, non-durable (the historical behaviour).
    #[default]
    Mem,
    /// File-per-artifact under a directory, atomically replaced.
    File,
}

impl StorageEngine {
    /// Canonical lower-case name (`"mem"` / `"file"`), used by manifests
    /// and the NDJSON protocol.
    pub fn as_str(&self) -> &'static str {
        match self {
            StorageEngine::Mem => "mem",
            StorageEngine::File => "file",
        }
    }

    /// Parse a canonical engine name. Unknown names return `None` so
    /// callers can refuse alien manifests with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(StorageEngine::Mem),
            "file" => Some(StorageEngine::File),
            _ => None,
        }
    }
}

impl fmt::Display for StorageEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a storage operation failed. Every variant is a *structured*
/// outcome: the storage layer never panics on hostile bytes, and every
/// error maps to a documented cold fallback at the call site.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed (write, sync, rename, read).
    Io {
        /// What the backend was doing.
        context: String,
        /// The OS error.
        source: io::Error,
    },
    /// The artifact does not start with [`ARTIFACT_MAGIC`] — an alien or
    /// empty file.
    BadMagic {
        /// Artifact name.
        artifact: String,
    },
    /// The artifact was written by a newer format than this build reads.
    FutureVersion {
        /// Artifact name.
        artifact: String,
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// Framing or payload decoding failed (truncation, checksum
    /// mismatch, bad tag, …).
    Corrupt {
        /// Artifact name.
        artifact: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The artifact belongs to different inputs than the caller's
    /// (program / table / config fingerprint mismatch).
    Fingerprint {
        /// Artifact name.
        artifact: String,
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint found in the header.
        found: u64,
    },
    /// The artifact does not exist in the backend.
    Missing {
        /// Artifact name.
        artifact: String,
    },
    /// The state cannot be persisted (e.g. a session that has not
    /// reached a fixpoint is not a sound warm seed).
    NotPersistable {
        /// Why.
        reason: String,
    },
    /// Backend-level misuse or mismatch (invalid artifact name, engine /
    /// on-disk mismatch, unstratifiable restored program, …).
    Backend {
        /// Why.
        reason: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "storage i/o: {context}: {source}"),
            StorageError::BadMagic { artifact } => {
                write!(f, "artifact '{artifact}': not a Vada-SA storage artifact")
            }
            StorageError::FutureVersion {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "artifact '{artifact}': format version {found} is newer than supported {supported}"
            ),
            StorageError::Corrupt { artifact, reason } => {
                write!(f, "artifact '{artifact}' is corrupt: {reason}")
            }
            StorageError::Fingerprint {
                artifact,
                expected,
                found,
            } => write!(
                f,
                "artifact '{artifact}' belongs to different inputs (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            StorageError::Missing { artifact } => write!(f, "artifact '{artifact}' not found"),
            StorageError::NotPersistable { reason } => write!(f, "state not persistable: {reason}"),
            StorageError::Backend { reason } => write!(f, "storage backend: {reason}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StorageError {
    /// Convenience constructor for [`StorageError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StorageError::Io {
            context: context.into(),
            source,
        }
    }
}

/// The byte-level file operations a [`FileBackend`] performs, abstracted
/// so fault plans can fail them deterministically. `write` must create
/// (truncating) the file, write all bytes and fsync; a *torn* write is
/// modelled by persisting a prefix and then erroring — exactly what a
/// crashing kernel produces.
pub trait ArtifactIo: Send + Sync {
    /// Write `bytes` to `path` durably (create + write_all + fsync).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production [`ArtifactIo`]: plain `std::fs` with an fsync.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealArtifactIo;

impl ArtifactIo for RealArtifactIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

/// A named-artifact store: the one contract every engine implements.
///
/// `put` is atomic per artifact — concurrent readers (and crashes) see
/// either the previous artifact or the new one, never a mix. Artifact
/// names are flat identifiers (`[A-Za-z0-9._-]`, no path separators);
/// backends refuse anything else with [`StorageError::Backend`].
pub trait StorageBackend: Send {
    /// Which engine this backend is.
    fn engine(&self) -> StorageEngine;
    /// Directory backing the store, when there is one.
    fn location(&self) -> Option<&Path>;
    /// Atomically store `bytes` under `name`, replacing any previous
    /// artifact of that name.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Fetch the artifact `name`, `None` if absent.
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;
    /// Remove the artifact `name`; `true` if it existed.
    fn delete(&mut self, name: &str) -> Result<bool, StorageError>;
    /// All artifact names, sorted.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

/// Open a backend the cozo way: pick an engine, point it at a path.
/// [`StorageEngine::Mem`] ignores `path`; [`StorageEngine::File`]
/// requires one (the directory is created if missing).
pub fn open(
    engine: StorageEngine,
    path: Option<&Path>,
) -> Result<Box<dyn StorageBackend>, StorageError> {
    match engine {
        StorageEngine::Mem => Ok(Box::new(MemBackend::new())),
        StorageEngine::File => {
            let dir = path.ok_or_else(|| StorageError::Backend {
                reason: "the file engine requires a directory path".into(),
            })?;
            Ok(Box::new(FileBackend::create(dir)?))
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !name.starts_with('.')
}

fn check_name(name: &str) -> Result<(), StorageError> {
    if valid_name(name) {
        Ok(())
    } else {
        Err(StorageError::Backend {
            reason: format!("invalid artifact name '{name}'"),
        })
    }
}

/// The in-memory engine: a sorted map of artifacts. Non-durable by
/// design — it exists so callers can program against [`StorageBackend`]
/// unconditionally and switch engines without code changes.
#[derive(Debug, Default)]
pub struct MemBackend {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemBackend {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemBackend {
    fn engine(&self) -> StorageEngine {
        StorageEngine::Mem
    }

    fn location(&self) -> Option<&Path> {
        None
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        check_name(name)?;
        self.blobs.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        check_name(name)?;
        Ok(self.blobs.get(name).cloned())
    }

    fn delete(&mut self, name: &str) -> Result<bool, StorageError> {
        check_name(name)?;
        Ok(self.blobs.remove(name).is_some())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.blobs.keys().cloned().collect())
    }
}

/// The file engine: `<dir>/<name>.vart`, atomically replaced via
/// `<name>.vart.tmp` + rename + directory fsync.
pub struct FileBackend {
    dir: PathBuf,
    io: Arc<dyn ArtifactIo>,
}

impl fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl FileBackend {
    /// Open (creating if missing) the artifact directory with real I/O.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Self::with_io(dir, Arc::new(RealArtifactIo))
    }

    /// Open with an injected [`ArtifactIo`] (the fault harness).
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn ArtifactIo>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("create dir {}", dir.display()), e))?;
        Ok(FileBackend { dir, io })
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{ARTIFACT_EXT}"))
    }

    fn fsync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }
}

impl StorageBackend for FileBackend {
    fn engine(&self) -> StorageEngine {
        StorageEngine::File
    }

    fn location(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        check_name(name)?;
        let tmp = self.dir.join(format!("{name}.{ARTIFACT_EXT}.tmp"));
        let path = self.path_of(name);
        if let Err(e) = self.io.write(&tmp, bytes) {
            // best effort: don't leave a torn temp file behind
            std::fs::remove_file(&tmp).ok();
            return Err(StorageError::io(format!("write {}", tmp.display()), e));
        }
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            StorageError::io(format!("rename into {}", path.display()), e)
        })?;
        // Make the rename durable: file-content fsyncs alone do not
        // guarantee the dirent survives a crash.
        self.fsync_dir()
            .map_err(|e| StorageError::io(format!("fsync dir {}", self.dir.display()), e))?;
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        check_name(name)?;
        let path = self.path_of(name);
        match self.io.read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError::io(format!("read {}", path.display()), e)),
        }
    }

    fn delete(&mut self, name: &str) -> Result<bool, StorageError> {
        check_name(name)?;
        match std::fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StorageError::io(format!("delete artifact '{name}'"), e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| StorageError::io(format!("list {}", self.dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("read dir entry", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name.strip_suffix(&format!(".{ARTIFACT_EXT}")) {
                if valid_name(stem) {
                    out.push(stem.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

// --- CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) ---

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`, as used by the artifact frame headers and
/// by `vadasa-core`'s journal and snapshot frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a over `bytes` — the fingerprint hash tying artifacts to the
/// inputs they were derived from.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Frame `payload` as one artifact: magic, version, fingerprint, length,
/// CRC, payload.
pub fn encode_artifact(version: u32, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(ARTIFACT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate and unframe one artifact. Total: every malformation —
/// truncation, alien magic, future version, checksum mismatch, trailing
/// garbage, fingerprint mismatch — returns a structured
/// [`StorageError`], never a panic.
///
/// `expected_fingerprint = None` skips the fingerprint check (callers
/// that want to *inspect* an artifact, e.g. status tooling). The header
/// fingerprint is returned alongside the version and payload either way.
pub fn decode_artifact(
    artifact: &str,
    supported_version: u32,
    expected_fingerprint: Option<u64>,
    bytes: &[u8],
) -> Result<(u32, u64, Vec<u8>), StorageError> {
    let corrupt = |reason: &str| StorageError::Corrupt {
        artifact: artifact.to_string(),
        reason: reason.to_string(),
    };
    if bytes.len() < ARTIFACT_MAGIC.len() || &bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
        return Err(StorageError::BadMagic {
            artifact: artifact.to_string(),
        });
    }
    let rest = &bytes[ARTIFACT_MAGIC.len()..];
    if rest.len() < 20 {
        return Err(corrupt("header truncated"));
    }
    let version = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    if version > supported_version {
        return Err(StorageError::FutureVersion {
            artifact: artifact.to_string(),
            found: version,
            supported: supported_version,
        });
    }
    let fingerprint = u64::from_le_bytes([
        rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
    ]);
    let len = u32::from_le_bytes([rest[12], rest[13], rest[14], rest[15]]) as usize;
    let crc = u32::from_le_bytes([rest[16], rest[17], rest[18], rest[19]]);
    let payload = &rest[20..];
    if payload.len() < len {
        return Err(corrupt("payload truncated"));
    }
    if payload.len() > len {
        return Err(corrupt("trailing bytes after payload"));
    }
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    if let Some(expected) = expected_fingerprint {
        if expected != fingerprint {
            return Err(StorageError::Fingerprint {
                artifact: artifact.to_string(),
                expected,
                found: fingerprint,
            });
        }
    }
    Ok((version, fingerprint, payload.to_vec()))
}

/// Bounds-checked binary wire codec shared by every artifact payload:
/// little-endian integers, length-prefixed strings, tagged [`Value`]s
/// (the journal's value encoding). Reading is total — out-of-range
/// lengths and unknown tags come back as `Err(String)` for the caller
/// to wrap into [`StorageError::Corrupt`].
pub mod wire {
    use super::Value;
    use std::sync::Arc;

    /// Append a `u32` (little-endian).
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// Append one tagged [`Value`].
    pub fn put_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(1);
                put_u64(out, *i as u64);
            }
            Value::Float(f) => {
                out.push(2);
                put_u64(out, f.to_bits());
            }
            Value::Str(s) => {
                out.push(3);
                put_str(out, s);
            }
            Value::Null(n) => {
                out.push(4);
                put_u64(out, *n);
            }
            Value::Set(items) => {
                out.push(5);
                put_u32(out, items.len() as u32);
                for item in items.iter() {
                    put_value(out, item);
                }
            }
            Value::Tuple(items) => {
                out.push(6);
                put_u32(out, items.len() as u32);
                for item in items.iter() {
                    put_value(out, item);
                }
            }
        }
    }

    /// A bounds-checked cursor over a payload.
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Start reading at the front of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        /// Take `n` raw bytes.
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self.pos.checked_add(n).ok_or("length overflow")?;
            if end > self.bytes.len() {
                return Err(format!("truncated: wanted {n} bytes at {}", self.pos));
            }
            let s = &self.bytes[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        /// One byte.
        pub fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?[0])
        }

        /// Little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, String> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, String> {
            let b = self.take(8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        /// Length-prefixed UTF-8 string.
        pub fn string(&mut self) -> Result<String, String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
        }

        /// One tagged [`Value`]. Strings are routed through the interner
        /// (`Value::str`), so decoding an artifact repopulates the
        /// process-global intern table as a side effect.
        pub fn value(&mut self) -> Result<Value, String> {
            match self.u8()? {
                0 => Ok(Value::Bool(self.u8()? != 0)),
                1 => Ok(Value::Int(self.u64()? as i64)),
                2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
                3 => Ok(Value::str(self.string()?)),
                4 => Ok(Value::Null(self.u64()?)),
                5 => {
                    let n = self.u32()? as usize;
                    if n > self.remaining() {
                        return Err("set length exceeds payload".into());
                    }
                    let mut items = Vec::with_capacity(n);
                    for _ in 0..n {
                        items.push(self.value()?);
                    }
                    Ok(Value::set(items))
                }
                6 => {
                    let n = self.u32()? as usize;
                    if n > self.remaining() {
                        return Err("tuple length exceeds payload".into());
                    }
                    let mut items = Vec::with_capacity(n);
                    for _ in 0..n {
                        items.push(self.value()?);
                    }
                    Ok(Value::Tuple(Arc::new(items)))
                }
                t => Err(format!("unknown value tag {t:#04x}")),
            }
        }

        /// Bytes left to read.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Has everything been consumed?
        pub fn done(&self) -> bool {
            self.pos == self.bytes.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vadasa-backend-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn engine_names_roundtrip() {
        for e in [StorageEngine::Mem, StorageEngine::File] {
            assert_eq!(StorageEngine::parse(e.as_str()), Some(e));
        }
        assert_eq!(StorageEngine::parse("rocksdb"), None);
        assert_eq!(StorageEngine::parse(""), None);
    }

    #[test]
    fn mem_and_file_backends_obey_the_same_contract() {
        let dir = tmp_dir("contract");
        let mut backends: Vec<Box<dyn StorageBackend>> = vec![
            Box::new(MemBackend::new()),
            Box::new(FileBackend::create(&dir).unwrap()),
        ];
        for b in backends.iter_mut() {
            assert_eq!(b.get("absent").unwrap(), None);
            b.put("alpha", b"one").unwrap();
            b.put("beta.2", b"two").unwrap();
            b.put("alpha", b"replaced").unwrap();
            assert_eq!(b.get("alpha").unwrap().as_deref(), Some(&b"replaced"[..]));
            assert_eq!(b.list().unwrap(), vec!["alpha", "beta.2"]);
            assert!(b.delete("beta.2").unwrap());
            assert!(!b.delete("beta.2").unwrap());
            assert_eq!(b.list().unwrap(), vec!["alpha"]);
            // invalid names are refused, not panicked on
            for bad in ["", "a/b", "../up", ".hidden", "nul\0"] {
                assert!(matches!(
                    b.put(bad, b"x"),
                    Err(StorageError::Backend { .. })
                ));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_follows_the_cozo_shape() {
        let dir = tmp_dir("open");
        let mem = open(StorageEngine::Mem, None).unwrap();
        assert_eq!(mem.engine(), StorageEngine::Mem);
        assert!(mem.location().is_none());
        let file = open(StorageEngine::File, Some(&dir)).unwrap();
        assert_eq!(file.engine(), StorageEngine::File);
        assert_eq!(file.location(), Some(dir.as_path()));
        assert!(matches!(
            open(StorageEngine::File, None),
            Err(StorageError::Backend { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut b = FileBackend::create(&dir).unwrap();
            b.put("state", b"persisted bytes").unwrap();
        }
        let b = FileBackend::create(&dir).unwrap();
        assert_eq!(
            b.get("state").unwrap().as_deref(),
            Some(&b"persisted bytes"[..])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_roundtrip_and_fingerprint_check() {
        let framed = encode_artifact(3, 0xDEAD_F00D, b"payload!");
        let (v, fp, payload) = decode_artifact("t", 3, Some(0xDEAD_F00D), &framed).unwrap();
        assert_eq!((v, fp), (3, 0xDEAD_F00D));
        assert_eq!(payload, b"payload!");
        // wrong fingerprint is structured
        assert!(matches!(
            decode_artifact("t", 3, Some(1), &framed),
            Err(StorageError::Fingerprint { expected: 1, .. })
        ));
        // future version is structured
        assert!(matches!(
            decode_artifact("t", 2, None, &framed),
            Err(StorageError::FutureVersion {
                found: 3,
                supported: 2,
                ..
            })
        ));
    }

    #[test]
    fn hostile_artifact_bytes_never_panic() {
        let framed = encode_artifact(1, 7, b"some payload bytes");
        // every prefix truncation fails cleanly
        for k in 0..framed.len() {
            assert!(
                decode_artifact("t", 1, Some(7), &framed[..k]).is_err(),
                "prefix {k}"
            );
        }
        // every single-byte flip is caught
        for k in 0..framed.len() {
            let mut bad = framed.clone();
            bad[k] ^= 0xFF;
            assert!(decode_artifact("t", 1, Some(7), &bad).is_err(), "flip {k}");
        }
        // byte soup
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..256usize {
            let soup: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let _ = decode_artifact("t", 1, None, &soup);
        }
    }

    #[test]
    fn wire_values_roundtrip() {
        let values = vec![
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("héllo ⊥ artifact"),
            Value::Null(9),
            Value::set([Value::Int(1), Value::str("x")]),
            Value::pair(Value::Int(1), Value::Null(2)),
        ];
        let mut buf = Vec::new();
        for v in &values {
            wire::put_value(&mut buf, v);
        }
        let mut r = wire::Reader::new(&buf);
        for v in &values {
            let back = r.value().unwrap();
            assert_eq!(back.cmp(v), std::cmp::Ordering::Equal);
        }
        assert!(r.done());
    }

    #[test]
    fn crc_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
