//! Out-of-core columnar storage: paged code matrices, spillable
//! [`MicrodataView`]s, and the cycle's persisted warm-statistics artifact.
//!
//! The code matrix dominates a view's footprint — at 40 quasi-identifier
//! columns it is 160 bytes/row, versus 8 bytes/row of null masks — so
//! out-of-core operation pages exactly that matrix from disk
//! ([`CodeStore::File`], positioned reads via `read_at`, a small LRU page
//! cache) while dictionaries, null masks and weights stay resident. An
//! [`OutOfCoreView`] then answers the cycle's group-statistics query with
//! a bounded-memory streaming pass whenever matching is exact code
//! equality (standard semantics, or maybe-match with no projected null);
//! the maybe-match-with-nulls case *materializes* the view first — a
//! documented fallback, since its pairwise null phases need random access
//! to the whole matrix.
//!
//! Durable view snapshots ride the [`StorageBackend`] artifact contract
//! ([`spill_view`] / [`load_view`]): CRC-framed, versioned,
//! fingerprint-checked, with every malformation decoding to a structured
//! [`StorageError`]. The same contract carries the cycle's equivalence
//! class statistics across restarts ([`encode_warm_stats`] /
//! [`decode_warm_stats`]) so `AnonymizationCycle::resume` can seed its
//! warm state from disk instead of regrouping cold — bit-identically,
//! because the persisted stats are the maintained stats, which the
//! columnar proptests already pin bitwise-equal to a cold regroup.

use crate::columnar::ColumnDict;
use crate::maybe_match::{GroupStats, NullSemantics};
use crate::risk::MicrodataView;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vadalog::backend::{StorageBackend, StorageError, ARTIFACT_MAGIC};
use vadalog::frame::{self, wire, DecodeError};

/// Target codes per page (~256 KiB). The actual page holds the nearest
/// whole number of rows so a row never straddles a page boundary.
const PAGE_CODES: usize = 1 << 16;

/// Pages kept resident by a [`CodeStore::File`]'s LRU cache.
const CACHE_PAGES: usize = 8;

/// Artifact format version for spilled views.
pub const VIEW_ARTIFACT_VERSION: u32 = 1;

/// Artifact name the cycle's persisted warm statistics are stored under
/// (inside the journal directory's artifact store).
pub const WARM_STATS_ARTIFACT: &str = "cycle.warmstats";

/// Artifact format version for persisted warm statistics.
pub const WARM_STATS_VERSION: u32 = 1;

/// A row-major `u32` code matrix, resident or file-backed.
pub enum CodeStore {
    /// All codes in RAM (the historical representation).
    Mem {
        /// Flat row-major codes, `len = rows × width`.
        codes: Vec<u32>,
        /// Row width.
        width: usize,
    },
    /// Codes on disk, paged in on demand.
    File(FileCodes),
}

/// The file-backed half of [`CodeStore`]: raw little-endian `u32`s, read
/// with positioned I/O through a small LRU page cache. Shared references
/// can read concurrently — the cache is behind a mutex, the file handle
/// is only used via `read_at`.
pub struct FileCodes {
    file: File,
    path: PathBuf,
    rows: usize,
    width: usize,
    /// Rows per page (page size in codes = `page_rows * width`).
    page_rows: usize,
    cache: Mutex<Vec<(usize, Vec<u32>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CodeStore {
    /// Wrap an in-memory matrix.
    pub fn mem(codes: Vec<u32>, width: usize) -> Self {
        CodeStore::Mem { codes, width }
    }

    /// Spill `codes` to `path` and return a file-backed store over it.
    /// The write streams page-sized chunks (bounded buffer) and fsyncs
    /// before handing the store back.
    pub fn spill(codes: &[u32], width: usize, path: &Path) -> io::Result<Self> {
        Self::spill_with_page_rows(codes, width, path, page_rows_for(width))
    }

    /// [`CodeStore::spill`] with an explicit page geometry — tests use a
    /// tiny page to force paging on small data.
    pub fn spill_with_page_rows(
        codes: &[u32],
        width: usize,
        path: &Path,
        page_rows: usize,
    ) -> io::Result<Self> {
        let width = width.max(1);
        let page_rows = page_rows.max(1);
        let mut f = File::create(path)?;
        let mut buf: Vec<u8> = Vec::with_capacity(page_rows * width * 4);
        for chunk in codes.chunks(page_rows * width) {
            buf.clear();
            for &c in chunk {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            f.write_all(&buf)?;
        }
        f.sync_all()?;
        drop(f);
        Self::open(path, codes.len() / width, width, page_rows)
    }

    /// Open an existing spilled code file. The file length must be
    /// exactly `rows × width × 4` bytes; anything else is a structured
    /// error (a torn spill).
    pub fn open(path: &Path, rows: usize, width: usize, page_rows: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let expect = (rows * width * 4) as u64;
        let actual = file.metadata()?.len();
        if actual != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "code file {} holds {actual} bytes, expected {expect}",
                    path.display()
                ),
            ));
        }
        Ok(CodeStore::File(FileCodes {
            file,
            path: path.to_path_buf(),
            rows,
            width,
            page_rows: page_rows.max(1),
            cache: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            CodeStore::Mem { codes, width } => codes.len() / width.max(&1),
            CodeStore::File(f) => f.rows,
        }
    }

    /// Row width in codes.
    pub fn width(&self) -> usize {
        match self {
            CodeStore::Mem { width, .. } => *width,
            CodeStore::File(f) => f.width,
        }
    }

    /// Copy row `row`'s codes into `buf` (must be `width` long).
    pub fn read_row_into(&self, row: usize, buf: &mut [u32]) -> io::Result<()> {
        match self {
            CodeStore::Mem { codes, width } => {
                buf.copy_from_slice(&codes[row * width..(row + 1) * width]);
                Ok(())
            }
            CodeStore::File(f) => f.read_row_into(row, buf),
        }
    }

    /// Stream every row in order through `visit(row_index, codes)`,
    /// touching one page-sized buffer at a time. This is the
    /// bounded-memory scan the streaming group-statistics pass rides.
    pub fn for_each_row(&self, mut visit: impl FnMut(usize, &[u32])) -> io::Result<()> {
        match self {
            CodeStore::Mem { codes, width } => {
                let width = (*width).max(1);
                for (i, row) in codes.chunks_exact(width).enumerate() {
                    visit(i, row);
                }
                Ok(())
            }
            CodeStore::File(f) => {
                let page_codes = f.page_rows * f.width;
                let mut buf = vec![0u32; page_codes];
                let mut row = 0usize;
                let mut page = 0usize;
                while row < f.rows {
                    let rows_here = f.page_rows.min(f.rows - row);
                    let slice = &mut buf[..rows_here * f.width];
                    f.read_codes_at(page * page_codes, slice)?;
                    for r in slice.chunks_exact(f.width) {
                        visit(row, r);
                        row += 1;
                    }
                    page += 1;
                }
                Ok(())
            }
        }
    }

    /// Materialize the full matrix in RAM.
    pub fn to_vec(&self) -> io::Result<Vec<u32>> {
        match self {
            CodeStore::Mem { codes, .. } => Ok(codes.clone()),
            CodeStore::File(f) => {
                let mut out = vec![0u32; f.rows * f.width];
                f.read_codes_at(0, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Resident heap bytes (the file store counts only its cache).
    pub fn resident_bytes(&self) -> usize {
        match self {
            CodeStore::Mem { codes, .. } => codes.len() * 4,
            CodeStore::File(f) => {
                let cache = lock_unpoisoned(&f.cache);
                cache.iter().map(|(_, p)| p.len() * 4).sum()
            }
        }
    }

    /// `(cache hits, cache misses)` of the paged store; zeros for `Mem`.
    pub fn cache_stats(&self) -> (u64, u64) {
        match self {
            CodeStore::Mem { .. } => (0, 0),
            CodeStore::File(f) => (
                f.hits.load(Ordering::Relaxed),
                f.misses.load(Ordering::Relaxed),
            ),
        }
    }

    /// Path of the backing file, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        match self {
            CodeStore::Mem { .. } => None,
            CodeStore::File(f) => Some(&f.path),
        }
    }
}

/// Rows per page for a given width, targeting [`PAGE_CODES`].
fn page_rows_for(width: usize) -> usize {
    (PAGE_CODES / width.max(1)).max(1)
}

/// Lock a mutex, recovering from poisoning (cache entries are plain data,
/// valid regardless of where a panicking thread stopped).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl FileCodes {
    /// Raw positioned read of `buf.len()` codes starting at code offset
    /// `code_off` (no cache).
    fn read_codes_at(&self, code_off: usize, buf: &mut [u32]) -> io::Result<()> {
        let mut bytes = vec![0u8; buf.len() * 4];
        self.file.read_exact_at(&mut bytes, (code_off * 4) as u64)?;
        for (dst, src) in buf.iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = u32::from_le_bytes([src[0], src[1], src[2], src[3]]);
        }
        Ok(())
    }

    /// Cached single-row read.
    fn read_row_into(&self, row: usize, buf: &mut [u32]) -> io::Result<()> {
        if row >= self.rows || buf.len() != self.width {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("row {row} / width {} out of range", buf.len()),
            ));
        }
        let page = row / self.page_rows;
        let offset_in_page = (row % self.page_rows) * self.width;
        let mut cache = lock_unpoisoned(&self.cache);
        if let Some(pos) = cache.iter().position(|(p, _)| *p == page) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let entry = cache.remove(pos);
            buf.copy_from_slice(&entry.1[offset_in_page..offset_in_page + self.width]);
            cache.insert(0, entry);
            return Ok(());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let rows_here = self.page_rows.min(self.rows - page * self.page_rows);
        let mut data = vec![0u32; rows_here * self.width];
        self.read_codes_at(page * self.page_rows * self.width, &mut data)?;
        buf.copy_from_slice(&data[offset_in_page..offset_in_page + self.width]);
        cache.insert(0, (page, data));
        cache.truncate(CACHE_PAGES);
        Ok(())
    }
}

/// A [`MicrodataView`] whose code matrix lives in a [`CodeStore`]:
/// dictionaries, null masks and weights stay resident (O(rows) small
/// constants), the matrix pages in on demand, so a table larger than RAM
/// is grouped with bounded resident memory.
pub struct OutOfCoreView {
    /// Names of the projected quasi-identifier attributes.
    pub qi_names: Vec<String>,
    dicts: Vec<ColumnDict>,
    store: CodeStore,
    null_masks: Vec<u64>,
    /// Sampling weights, when present.
    pub weights: Option<Vec<f64>>,
    /// Null-matching semantics.
    pub semantics: NullSemantics,
}

impl OutOfCoreView {
    /// Spill `view`'s code matrix to `<dir>/<name>.codes` and return the
    /// paged equivalent.
    pub fn spill(view: &MicrodataView, dir: &Path, name: &str) -> io::Result<Self> {
        Self::spill_with_page_rows(view, dir, name, page_rows_for(view.qi_names.len()))
    }

    /// [`OutOfCoreView::spill`] with explicit page geometry (tests).
    pub fn spill_with_page_rows(
        view: &MicrodataView,
        dir: &Path,
        name: &str,
        page_rows: usize,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let width = view.qi_names.len();
        let path = dir.join(format!("{name}.codes"));
        let store = CodeStore::spill_with_page_rows(view.codes(), width, &path, page_rows)?;
        Ok(OutOfCoreView {
            qi_names: view.qi_names.clone(),
            dicts: view.dicts().to_vec(),
            store,
            null_masks: view.null_masks().to_vec(),
            weights: view.weights.clone(),
            semantics: view.semantics,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.null_masks.len()
    }

    /// The backing store.
    pub fn store(&self) -> &CodeStore {
        &self.store
    }

    /// Read one row's codes.
    pub fn row_codes_into(&self, row: usize, buf: &mut [u32]) -> io::Result<()> {
        self.store.read_row_into(row, buf)
    }

    /// Bring the whole view back into RAM (`risk_threads` as requested).
    /// This is the documented fallback for queries that need random
    /// access to the full matrix (maybe-match grouping with nulls,
    /// per-cell patching).
    pub fn materialize(&self, risk_threads: usize) -> io::Result<MicrodataView> {
        MicrodataView::from_parts(
            self.qi_names.clone(),
            self.dicts.clone(),
            self.store.to_vec()?,
            self.null_masks.clone(),
            self.weights.clone(),
            self.semantics,
            risk_threads,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Equivalence-class statistics over the paged matrix.
    ///
    /// When matching is exact code equality — standard semantics, or
    /// maybe-match with no projected null — this is a single streaming
    /// pass: one page resident at a time, an aggregation map keyed by
    /// the (distinct) row codes, accumulation in row order, so the
    /// result is **bitwise identical** to
    /// [`MicrodataView::group_stats`] (same order, and under the
    /// exact-summability gate order is immaterial anyway). Maybe-match
    /// with nulls present materializes the view and delegates — the
    /// documented cold fallback.
    pub fn group_stats(&self) -> io::Result<GroupStats> {
        let n = self.rows();
        if n == 0 {
            return Ok(GroupStats {
                count: Vec::new(),
                weight_sum: Vec::new(),
            });
        }
        let has_nulls = self.null_masks.iter().any(|&m| m != 0);
        if self.semantics == NullSemantics::MaybeMatch && has_nulls {
            return Ok(self.materialize(1)?.group_stats());
        }
        let w = |i: usize| self.weights.as_ref().map(|w| w[i]).unwrap_or(1.0);
        // Aggregate pass: group id per row, count/weight per group.
        let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut row_group: Vec<u32> = Vec::with_capacity(n);
        let mut count: Vec<usize> = Vec::new();
        let mut weight_sum: Vec<f64> = Vec::new();
        self.store.for_each_row(|i, codes| {
            let next = ids.len() as u32;
            let gid = *ids.entry(codes.to_vec()).or_insert(next);
            if gid == next {
                count.push(0);
                weight_sum.push(0.0);
            }
            count[gid as usize] += 1;
            weight_sum[gid as usize] += w(i);
            row_group.push(gid);
        })?;
        // Fill pass: every row reports its group's totals.
        Ok(GroupStats {
            count: row_group.iter().map(|&g| count[g as usize]).collect(),
            weight_sum: row_group.iter().map(|&g| weight_sum[g as usize]).collect(),
        })
    }
}

// --- durable view artifacts -------------------------------------------

/// Freeze `view` into `store` under `name`, CRC-framed and stamped with
/// `fingerprint`. Returns the framed size in bytes.
pub fn spill_view(
    view: &MicrodataView,
    store: &mut dyn StorageBackend,
    name: &str,
    fingerprint: u64,
) -> Result<usize, StorageError> {
    let width = view.qi_names.len();
    let mut payload = Vec::new();
    wire::put_u32(&mut payload, width as u32);
    for q in &view.qi_names {
        wire::put_str(&mut payload, q);
    }
    for dict in view.dicts() {
        wire::put_u32(&mut payload, dict.len() as u32);
        for v in dict.values() {
            wire::put_value(&mut payload, v);
        }
    }
    let masks = view.null_masks();
    wire::put_u32(&mut payload, masks.len() as u32);
    for &m in masks {
        wire::put_u64(&mut payload, m);
    }
    for &c in view.codes() {
        wire::put_u32(&mut payload, c);
    }
    match &view.weights {
        Some(ws) => {
            payload.push(1);
            for &wv in ws {
                wire::put_u64(&mut payload, wv.to_bits());
            }
        }
        None => payload.push(0),
    }
    payload.push(match view.semantics {
        NullSemantics::Standard => 0,
        NullSemantics::MaybeMatch => 1,
    });
    let framed = frame::encode(ARTIFACT_MAGIC, VIEW_ARTIFACT_VERSION, fingerprint, &payload);
    store.put(name, &framed)?;
    Ok(framed.len())
}

/// Restore a view spilled by [`spill_view`]. Total: every malformation
/// returns a structured [`StorageError`]. `expected_fingerprint = None`
/// skips the provenance check.
pub fn load_view(
    store: &dyn StorageBackend,
    name: &str,
    expected_fingerprint: Option<u64>,
    risk_threads: usize,
) -> Result<MicrodataView, StorageError> {
    let bytes = store.get(name)?.ok_or_else(|| StorageError::Missing {
        artifact: name.to_string(),
    })?;
    frame::decode(
        name,
        ARTIFACT_MAGIC,
        VIEW_ARTIFACT_VERSION,
        expected_fingerprint,
        &bytes,
        |r, _| decode_view(r, risk_threads),
    )
}

fn decode_view(
    r: &mut wire::Reader<'_>,
    risk_threads: usize,
) -> Result<MicrodataView, DecodeError> {
    let width = r.count()?;
    if width > 64 {
        return Err(DecodeError::Invalid("width exceeds the 64-column limit"));
    }
    let mut qi_names = Vec::with_capacity(width);
    for _ in 0..width {
        qi_names.push(r.string()?);
    }
    let mut dicts = Vec::with_capacity(width);
    for _ in 0..width {
        let nvals = r.count()?;
        let mut dict = ColumnDict::new();
        for _ in 0..nvals {
            dict.intern(&r.value()?);
        }
        if dict.len() != nvals {
            return Err(DecodeError::Invalid("duplicate value in column dictionary"));
        }
        dicts.push(dict);
    }
    let rows = r.u32()? as usize;
    if rows.saturating_mul(width.max(1)) > r.remaining() {
        return Err(DecodeError::Truncated);
    }
    let mut null_masks = Vec::with_capacity(rows);
    for _ in 0..rows {
        null_masks.push(r.u64()?);
    }
    let mut codes = Vec::with_capacity(rows * width);
    for i in 0..rows * width {
        let c = r.u32()?;
        if c as usize >= dicts[i % width].len() {
            return Err(DecodeError::Invalid("code outside its column dictionary"));
        }
        codes.push(c);
    }
    let weights = match r.u8()? {
        0 => None,
        1 => {
            let mut ws = Vec::with_capacity(rows);
            for _ in 0..rows {
                ws.push(f64::from_bits(r.u64()?));
            }
            Some(ws)
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    let semantics = match r.u8()? {
        0 => NullSemantics::Standard,
        1 => NullSemantics::MaybeMatch,
        t => return Err(DecodeError::BadTag(t)),
    };
    MicrodataView::from_parts(
        qi_names,
        dicts,
        codes,
        null_masks,
        weights,
        semantics,
        risk_threads,
    )
    .map_err(|_| DecodeError::Invalid("view parts do not fit together"))
}

// --- the cycle's warm-statistics artifact ------------------------------

/// A decoded [`WARM_STATS_ARTIFACT`]: the equivalence-class statistics
/// the cycle maintained, stamped with the run it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStats {
    /// Cycle iterations completed when the stats were persisted. Resume
    /// only seeds from an artifact whose iteration count matches the
    /// journal's recovered count *exactly* — anything else is stale and
    /// falls back to a cold regroup.
    pub iterations: u64,
    /// The journal run fingerprint the stats belong to.
    pub fingerprint: u64,
    /// The maintained per-row statistics.
    pub stats: GroupStats,
}

/// Frame the cycle's maintained statistics for persistence.
pub fn encode_warm_stats(iterations: u64, fingerprint: u64, stats: &GroupStats) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + stats.count.len() * 16);
    wire::put_u64(&mut payload, iterations);
    wire::put_u32(&mut payload, stats.count.len() as u32);
    for &c in &stats.count {
        wire::put_u64(&mut payload, c as u64);
    }
    for &s in &stats.weight_sum {
        wire::put_u64(&mut payload, s.to_bits());
    }
    frame::encode(ARTIFACT_MAGIC, WARM_STATS_VERSION, fingerprint, &payload)
}

/// Decode a persisted warm-statistics artifact. Total; structured errors
/// for every malformation, fingerprint mismatch included.
pub fn decode_warm_stats(
    bytes: &[u8],
    expected_fingerprint: Option<u64>,
) -> Result<WarmStats, StorageError> {
    frame::decode(
        WARM_STATS_ARTIFACT,
        ARTIFACT_MAGIC,
        WARM_STATS_VERSION,
        expected_fingerprint,
        bytes,
        |r, header| {
            let iterations = r.u64()?;
            let n = r.u32()? as usize;
            if n.saturating_mul(16) > r.remaining() {
                return Err(DecodeError::Truncated);
            }
            let mut count = Vec::with_capacity(n);
            for _ in 0..n {
                count.push(r.u64()? as usize);
            }
            let mut weight_sum = Vec::with_capacity(n);
            for _ in 0..n {
                weight_sum.push(f64::from_bits(r.u64()?));
            }
            Ok(WarmStats {
                iterations,
                fingerprint: header.fingerprint,
                stats: GroupStats { count, weight_sum },
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::backend::MemBackend;
    use vadalog::Value;

    fn sample_view(rows: usize, width: usize, with_nulls: bool) -> MicrodataView {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let qi: Vec<String> = (0..width).map(|c| format!("q{c}")).collect();
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        let r = rng();
                        if with_nulls && r % 11 == 0 {
                            Value::Null(r % 5)
                        } else {
                            Value::Int((r % 7) as i64)
                        }
                    })
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..rows).map(|i| (1 + i % 4) as f64).collect();
        MicrodataView::from_rows(
            qi,
            data,
            Some(weights),
            if with_nulls {
                NullSemantics::MaybeMatch
            } else {
                NullSemantics::Standard
            },
        )
        .unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vadasa-colstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_codes_equal_mem_codes_row_by_row() {
        let dir = tmp("rows");
        let view = sample_view(500, 5, false);
        // page_rows=7 forces many pages and cache evictions
        let oo = OutOfCoreView::spill_with_page_rows(&view, &dir, "t", 7).unwrap();
        let mut buf = vec![0u32; 5];
        for i in 0..500 {
            oo.row_codes_into(i, &mut buf).unwrap();
            assert_eq!(&buf[..], view.row_codes(i), "row {i}");
        }
        let (hits, misses) = oo.store().cache_stats();
        assert!(misses > CACHE_PAGES as u64, "paging must have engaged");
        assert!(hits > 0, "sequential reads must hit the cache");
        assert!(
            oo.store().resident_bytes() < 500 * 5 * 4,
            "resident memory must stay below the full matrix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_group_stats_bitwise_equals_in_memory() {
        let dir = tmp("stats");
        for threads in [1, 4] {
            let mut view = sample_view(1200, 6, false);
            view.risk_threads = threads;
            let oo = OutOfCoreView::spill_with_page_rows(&view, &dir, "s", 11).unwrap();
            let cold = view.group_stats();
            let streamed = oo.group_stats().unwrap();
            assert_eq!(streamed.count, cold.count, "threads={threads}");
            let a: Vec<u64> = streamed.weight_sum.iter().map(|f| f.to_bits()).collect();
            let b: Vec<u64> = cold.weight_sum.iter().map(|f| f.to_bits()).collect();
            assert_eq!(a, b, "threads={threads}: weight bits must match");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_match_with_nulls_falls_back_to_materialize() {
        let dir = tmp("mm");
        let view = sample_view(300, 4, true);
        let oo = OutOfCoreView::spill_with_page_rows(&view, &dir, "m", 13).unwrap();
        let cold = view.group_stats();
        let streamed = oo.group_stats().unwrap();
        assert_eq!(streamed.count, cold.count);
        let a: Vec<u64> = streamed.weight_sum.iter().map(|f| f.to_bits()).collect();
        let b: Vec<u64> = cold.weight_sum.iter().map(|f| f.to_bits()).collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_code_file_is_a_structured_error() {
        let dir = tmp("torn");
        let view = sample_view(100, 3, false);
        let oo = OutOfCoreView::spill_with_page_rows(&view, &dir, "t", 16).unwrap();
        let path = oo.store().path().unwrap().to_path_buf();
        drop(oo);
        // tear the file mid-row
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2 - 1]).unwrap();
        let err = match CodeStore::open(&path, 100, 3, 16) {
            Ok(_) => panic!("torn code file must not open"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn view_artifact_roundtrips_and_validates() {
        let mut store = MemBackend::new();
        let view = sample_view(200, 4, true);
        spill_view(&view, &mut store, "view.test", 77).unwrap();
        let back = load_view(&store, "view.test", Some(77), view.risk_threads).unwrap();
        assert_eq!(back.qi_names, view.qi_names);
        assert_eq!(back.codes(), view.codes());
        assert_eq!(back.null_masks(), view.null_masks());
        assert_eq!(back.semantics, view.semantics);
        let a: Vec<u64> = back
            .weights
            .as_ref()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let b: Vec<u64> = view
            .weights
            .as_ref()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(a, b);
        // restored dictionaries decode codes to the same values
        let cold = view.group_stats();
        let warm = back.group_stats();
        assert_eq!(cold.count, warm.count);
        // provenance check
        assert!(matches!(
            load_view(&store, "view.test", Some(78), 1),
            Err(StorageError::Fingerprint { .. })
        ));
        assert!(matches!(
            load_view(&store, "absent", None, 1),
            Err(StorageError::Missing { .. })
        ));
    }

    #[test]
    fn view_artifact_roundtrip_rebuilds_an_equal_index() {
        let bits =
            |g: &GroupStats| -> Vec<u64> { g.weight_sum.iter().map(|f| f.to_bits()).collect() };
        let fresh = sample_view(300, 4, true);
        let mut patched = fresh.clone();
        for (k, row) in [3usize, 17, 17, 250].into_iter().enumerate() {
            patched.patch_cell(row, k % 4, &Value::Null(900 + k as u64), None);
        }
        patched.patch_recode(1, &Value::Int(2), &Value::Int(5), None);
        for view in [&fresh, &patched] {
            let mut store = MemBackend::new();
            spill_view(view, &mut store, "view.idx", 3).unwrap();
            let back = load_view(&store, "view.idx", Some(3), 1).unwrap();
            back.patterns()
                .assert_consistent(back.codes(), back.null_masks());
            assert_eq!(
                back.patterns().canonical_ids(),
                view.patterns().canonical_ids(),
                "the restored index partitions the rows the same way"
            );
            for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
                let a = view.group_stats_with(view.weights.as_deref(), sem);
                let b = back.group_stats_with(back.weights.as_deref(), sem);
                assert_eq!(a.count, b.count);
                assert_eq!(bits(&a), bits(&b));
            }
        }
        // a view that was never patched restores its very ids
        let mut store = MemBackend::new();
        spill_view(&fresh, &mut store, "view.idx", 3).unwrap();
        let back = load_view(&store, "view.idx", Some(3), 1).unwrap();
        let ids =
            |v: &MicrodataView| -> Vec<u32> { (0..v.len()).map(|r| v.pattern_of(r)).collect() };
        assert_eq!(ids(&back), ids(&fresh));
    }

    #[test]
    fn warm_stats_roundtrip_and_fingerprint_check() {
        let stats = GroupStats {
            count: vec![3, 3, 1, 3],
            weight_sum: vec![6.0, 6.0, 2.5, 6.0],
        };
        let framed = encode_warm_stats(17, 0xABCD, &stats);
        let back = decode_warm_stats(&framed, Some(0xABCD)).unwrap();
        assert_eq!(back.iterations, 17);
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.stats.count, stats.count);
        let a: Vec<u64> = back.stats.weight_sum.iter().map(|f| f.to_bits()).collect();
        let b: Vec<u64> = stats.weight_sum.iter().map(|f| f.to_bits()).collect();
        assert_eq!(a, b);
        assert!(matches!(
            decode_warm_stats(&framed, Some(0xABCE)),
            Err(StorageError::Fingerprint { .. })
        ));
    }
}
