//! The one fault-injectable I/O layer every durable file goes through,
//! and the file-backed artifact store.
//!
//! File bytes move through the [`DurableIo`] trait: the action journal,
//! the cycle's snapshots, the job server's files and the artifacts
//! alike. Each call names its [`FileKind`], so `vadasa-core`'s
//! `faults::faulty_io` can tear writes, fill disks, fail fsyncs and
//! corrupt or deny reads of one kind of file without touching a real
//! disk's error paths.
//!
//! [`FileBackend`] keeps named *artifacts* as `<dir>/<name>.vart`, each
//! replaced whole with [`write_atomic`], so a crash mid-write leaves
//! either the old artifact or none, never a torn one. Every artifact is
//! one [`frame`](crate::frame) header (magic [`ARTIFACT_MAGIC`], format
//! version, fingerprint) followed by one CRC frame. Its one artifact is
//! the cycle's warm statistics (`cycle.warmstats`), strictly a *cache*:
//! the cycle rebuilds the same state from primary inputs, so any load
//! failure degrades to a cold start with identical results (DESIGN.md
//! §10).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// FNV-1a of `bytes` (the shared [`crate::frame::fnv1a`]).
pub use crate::frame::fnv1a;

/// File magic identifying a Vada-SA storage artifact, framing version 1.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"VADASAW1";

/// Extension of artifact files inside a [`FileBackend`] directory.
pub const ARTIFACT_EXT: &str = "vart";

/// Where the cycle keeps its warm statistics: named by job manifests,
/// the NDJSON protocol and the cycle's storage options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageEngine {
    /// In the process only: no artifact is written (the default).
    #[default]
    Mem,
    /// Also on disk, as a [`FileBackend`] artifact beside the journal.
    File,
}

impl StorageEngine {
    /// Both engines, in declaration order.
    pub const ALL: [StorageEngine; 2] = [StorageEngine::Mem, StorageEngine::File];

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
        Self::ALL.into_iter().find(|e| e.as_str() == s)
    }
}

impl fmt::Display for StorageEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why reading or writing an artifact or snapshot failed. Every variant
/// is a *structured* outcome: decoding never panics on hostile bytes,
/// and every error maps to a documented cold fallback at the call site.
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
    /// The backend refused the request (an invalid artifact name).
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

/// Which durable file an I/O call touches. Real I/O uses it only to
/// pick the open mode; a fault injector uses it to aim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// The write-ahead journal: appended to, created if missing.
    Journal,
    /// A cycle snapshot, written whole under a temp name and renamed.
    Snapshot,
    /// A storage artifact or any other file written whole under a temp
    /// name and renamed (the job server's manifests, markers and
    /// releases).
    Artifact,
}

/// An append-only byte sink with explicit durability points. `append`
/// writes the whole buffer or errors; a torn write is a prefix followed
/// by an error, which is what a crashing kernel produces.
pub trait Sink: Send {
    /// Append `buf` at the end of the file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make everything appended so far durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

impl Sink for File {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

/// The file operations behind every durable file: open a sink, read a
/// whole file. Renames, truncation and directory fsyncs stay real calls.
pub trait DurableIo: fmt::Debug + Send + Sync {
    /// Open a sink on `path`: a [`FileKind::Journal`] is appended to and
    /// created if missing; any other kind is created or truncated.
    fn open(&self, path: &Path, kind: FileKind) -> io::Result<Box<dyn Sink>>;
    /// Read the whole file at `path`.
    fn read(&self, path: &Path, kind: FileKind) -> io::Result<Vec<u8>>;
}

/// The production [`DurableIo`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileIo;

impl DurableIo for FileIo {
    fn open(&self, path: &Path, kind: FileKind) -> io::Result<Box<dyn Sink>> {
        let mut options = OpenOptions::new();
        match kind {
            FileKind::Journal => options.create(true).append(true),
            FileKind::Snapshot | FileKind::Artifact => {
                options.create(true).write(true).truncate(true)
            }
        };
        Ok(Box::new(options.open(path)?))
    }

    fn read(&self, path: &Path, _kind: FileKind) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

/// Fsync a *directory*, making entries created or renamed in it durable.
/// File-content fsyncs alone do not guarantee the dirent survives a crash
/// on filesystems with deferred directory durability (ext4
/// `data=ordered`, xfs).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Replace `dir/name` atomically with `bytes`: write `<name>.tmp`
/// through `io`, fsync it, rename it over `name`, fsync `dir`. A crash
/// leaves the previous file or the new one under `name`, never a torn
/// one, and a failed write or rename removes the temp file.
pub fn write_atomic(
    io: &dyn DurableIo,
    kind: FileKind,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let written = io
        .open(&tmp, kind)
        .and_then(|mut sink| {
            sink.append(bytes)?;
            sink.sync()
        })
        .and_then(|()| std::fs::rename(&tmp, dir.join(name)));
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    fsync_dir(dir)
}

/// A named-artifact store.
///
/// `put` is atomic per artifact — concurrent readers (and crashes) see
/// either the previous artifact or the new one, never a mix. Artifact
/// names are flat identifiers (`[A-Za-z0-9._-]`, no path separators);
/// anything else is refused with [`StorageError::Backend`].
pub trait StorageBackend: Send {
    /// Atomically store `bytes` under `name`, replacing any previous
    /// artifact of that name.
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Fetch the artifact `name`, `None` if absent.
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;
}

fn check_name(name: &str) -> Result<(), StorageError> {
    let valid = !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !name.starts_with('.');
    if valid {
        Ok(())
    } else {
        Err(StorageError::Backend {
            reason: format!("invalid artifact name '{name}'"),
        })
    }
}

/// The file engine: `<dir>/<name>.vart`, replaced with [`write_atomic`].
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    io: Arc<dyn DurableIo>,
}

impl FileBackend {
    /// Open (creating if missing) the artifact directory with real I/O.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Self::with_io(dir, Arc::new(FileIo))
    }

    /// Open with an injected [`DurableIo`] (the fault harness).
    pub fn with_io(dir: impl Into<PathBuf>, io: Arc<dyn DurableIo>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("create dir {}", dir.display()), e))?;
        Ok(FileBackend { dir, io })
    }

    fn file_of(name: &str) -> String {
        format!("{name}.{ARTIFACT_EXT}")
    }
}

impl StorageBackend for FileBackend {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        check_name(name)?;
        write_atomic(
            self.io.as_ref(),
            FileKind::Artifact,
            &self.dir,
            &Self::file_of(name),
            bytes,
        )
        .map_err(|e| StorageError::io(format!("write artifact '{name}'"), e))
    }

    fn get(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        check_name(name)?;
        let path = self.dir.join(Self::file_of(name));
        match self.io.read(&path, FileKind::Artifact) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError::io(format!("read {}", path.display()), e)),
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
    fn file_backend_replaces_artifacts_and_refuses_bad_names() {
        let dir = tmp_dir("contract");
        let mut b = FileBackend::create(&dir).unwrap();
        assert_eq!(b.get("absent").unwrap(), None);
        b.put("alpha", b"one").unwrap();
        b.put("alpha", b"replaced").unwrap();
        assert_eq!(b.get("alpha").unwrap().as_deref(), Some(&b"replaced"[..]));
        // invalid names are refused, not panicked on
        for bad in ["", "a/b", "../up", ".hidden", "nul\0"] {
            assert!(matches!(
                b.put(bad, b"x"),
                Err(StorageError::Backend { .. })
            ));
        }
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
    fn file_io_appends_to_journals_and_truncates_other_kinds() {
        let dir = tmp_dir("fileio");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        for (kind, expect) in [
            (FileKind::Journal, &b"hello world"[..]),
            (FileKind::Snapshot, &b"world"[..]),
        ] {
            let mut sink = FileIo.open(&path, FileKind::Journal).unwrap();
            sink.append(b"hello ").unwrap();
            sink.sync().unwrap();
            drop(sink);
            let mut sink = FileIo.open(&path, kind).unwrap();
            sink.append(b"world").unwrap();
            sink.sync().unwrap();
            drop(sink);
            assert_eq!(FileIo.read(&path, kind).unwrap(), expect);
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_dir_accepts_directories_and_rejects_missing_paths() {
        let dir = tmp_dir("fsyncdir");
        std::fs::create_dir_all(&dir).unwrap();
        fsync_dir(&dir).unwrap();
        assert!(fsync_dir(&dir.join("no-such-subdir")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fails every sync, after the bytes were appended.
    #[derive(Debug)]
    struct FailingSync;

    impl DurableIo for FailingSync {
        fn open(&self, path: &Path, kind: FileKind) -> io::Result<Box<dyn Sink>> {
            struct S(Box<dyn Sink>);
            impl Sink for S {
                fn append(&mut self, buf: &[u8]) -> io::Result<()> {
                    self.0.append(buf)
                }
                fn sync(&mut self) -> io::Result<()> {
                    Err(io::Error::other("sync refused"))
                }
            }
            Ok(Box::new(S(FileIo.open(path, kind)?)))
        }

        fn read(&self, path: &Path, kind: FileKind) -> io::Result<Vec<u8>> {
            FileIo.read(path, kind)
        }
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_cleans_up_on_failure() {
        let dir = tmp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        write_atomic(&FileIo, FileKind::Artifact, &dir, "f", b"first").unwrap();
        write_atomic(&FileIo, FileKind::Artifact, &dir, "f", b"second").unwrap();
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"second");
        assert!(write_atomic(&FailingSync, FileKind::Artifact, &dir, "f", b"third").is_err());
        assert_eq!(std::fs::read(dir.join("f")).unwrap(), b"second");
        assert!(
            !dir.join("f.tmp").exists(),
            "a failed write left its temp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
