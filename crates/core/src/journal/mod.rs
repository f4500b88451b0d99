//! Crash-safe persistence for the anonymization cycle: a write-ahead
//! action journal plus atomic snapshots (DESIGN.md §10).
//!
//! The cycle appends one checksummed record per committed
//! [`AnonymizationAction`](crate::anonymize::AnonymizationAction) and one
//! `Commit` marker per finished iteration; every `snapshot_every`
//! iterations the working state — the cells that differ from the input,
//! the counters and the exhausted set — is frozen into an atomically
//! renamed snapshot file (see [`crate::checkpoint`]). After a crash,
//! [`recover`] scans the journal, truncates at the first torn or corrupt
//! record, replays the surviving committed actions onto the newest valid
//! snapshot (or the original table) and hands the cycle a state from
//! which continuing is **bit-identical** to a run that was never
//! interrupted: the cycle is a deterministic function of its inputs, and
//! iteration boundaries are exactly the points where no intra-iteration
//! state is live.

pub mod record;

use crate::checkpoint::Checkpoint;
use crate::cycle::CycleConfig;
use crate::dictionary::MetadataDictionary;
use crate::explain::{AuditLog, Decision};
use crate::model::MicrodataDb;
use record::{JournalRecord, MAGIC};
use std::collections::HashSet;
use std::fmt;
use std::io as stdio;
use std::path::PathBuf;
use std::sync::Arc;
use vadalog::backend::{fsync_dir, DurableIo, FileIo, FileKind, Sink};
use vadalog::frame::Fnv1a;

/// Name of the write-ahead journal file inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// When the journal writer calls `fsync`. Each write of the writer is a
/// durable point and costs at most one fsync: the header, an `Action`,
/// a `Progress` sample with the `Commit` it precedes, a `Snapshot`
/// record, `Degraded`, and the final `Progress` with `Finished`. The last
/// three are synced under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// After every write — each `Action` as it is written, each iteration
    /// boundary as one write. Maximal durability, maximal overhead.
    #[default]
    EveryRecord,
    /// After a write that leaves `n` or more records unsynced (and on
    /// every snapshot): no call returns with `n` records unsynced. A crash
    /// can lose the write in flight and the fewer than `n` records before
    /// it; recovery re-derives them.
    EveryN(u32),
    /// Only when a snapshot is written. Cheapest; a crash rolls back to
    /// the last snapshot-or-sync point and recovery re-derives the rest.
    OnSnapshot,
}

impl SyncPolicy {
    /// The name of the policy's kind, as a job manifest's `sync` member
    /// holds it: `every-record`, `every-n` or `on-snapshot`. A manifest
    /// carries `EveryN`'s count beside it, as `sync_n`.
    pub fn kind(self) -> &'static str {
        match self {
            SyncPolicy::EveryRecord => "every-record",
            SyncPolicy::EveryN(_) => "every-n",
            SyncPolicy::OnSnapshot => "on-snapshot",
        }
    }

    /// The policy a manifest's [`kind`](Self::kind) and count stand for;
    /// an absent count is 8. Any other kind is `None`.
    pub fn from_kind(kind: &str, count: Option<u32>) -> Option<Self> {
        let every_n = SyncPolicy::EveryN(count.unwrap_or(8));
        [SyncPolicy::EveryRecord, every_n, SyncPolicy::OnSnapshot]
            .into_iter()
            .find(|p| p.kind() == kind)
    }

    /// The name `vadasa_cycle --sync` takes: the kind, with `EveryN`'s
    /// count inside it (`every-8`).
    pub fn name(self) -> String {
        match self {
            SyncPolicy::EveryN(n) => format!("every-{n}"),
            other => other.kind().to_string(),
        }
    }

    /// The policy a [`name`](Self::name) stands for. Any other string is
    /// `None`, so callers refuse it with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        match s.strip_prefix("every-").and_then(|n| n.parse().ok()) {
            Some(n) => Some(SyncPolicy::EveryN(n)),
            None => Self::from_kind(s, None).filter(|p| !matches!(p, SyncPolicy::EveryN(_))),
        }
    }
}

/// What to do when journal I/O fails mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoErrorPolicy {
    /// Abort the cycle with [`JournalError::Io`] — durability is part of
    /// the contract.
    #[default]
    Fail,
    /// Log the failure into `cycle.journal.io_errors`, stop journaling,
    /// and let the in-memory run complete (the journal is left truncated
    /// but well-formed, so a later resume still works from its horizon).
    Disable,
}

/// Journal configuration, carried on
/// [`CycleConfig::journal`](crate::cycle::CycleConfig::journal).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `journal.wal`, `snapshot-*.vsnap` files and,
    /// under the file storage engine, the run's warm artifacts. Created
    /// if missing.
    pub dir: PathBuf,
    /// Durability policy.
    pub sync: SyncPolicy,
    /// Snapshot the working state every `n` completed iterations
    /// (`None` disables snapshots; recovery then replays from the
    /// original table).
    pub snapshot_every: Option<u32>,
    /// Reaction to journal I/O failure.
    pub on_io_error: IoErrorPolicy,
    /// The I/O every read and write in `dir` goes through — journal,
    /// snapshots and warm artifacts. The fault harness swaps in
    /// [`crate::faults::faulty_io`].
    pub io: Arc<dyn DurableIo>,
}

impl JournalConfig {
    /// Journal into `dir` with default policies: fsync every record,
    /// snapshot every 16 iterations, fail on I/O errors, real files.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            sync: SyncPolicy::EveryRecord,
            snapshot_every: Some(16),
            on_io_error: IoErrorPolicy::Fail,
            io: Arc::new(FileIo),
        }
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }
}

/// Journal failures.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation failed (and [`IoErrorPolicy::Fail`] applies).
    Io {
        /// What the journal was doing.
        context: String,
        /// The underlying error.
        source: stdio::Error,
    },
    /// The journal file is structurally beyond use (bad magic, torn
    /// header). Torn *tails* are not errors — they are truncated.
    Corrupt {
        /// Byte offset of the offending region.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The journal belongs to a different run: wrong fingerprint, wrong
    /// table, wrong plug-ins.
    Mismatch(String),
    /// `run` refuses to overwrite an existing journal — use `resume`, or
    /// point at a fresh directory.
    AlreadyExists(PathBuf),
    /// `resume` found no journal file to resume from.
    Missing(PathBuf),
    /// `resume` was called without [`CycleConfig::journal`] configured.
    NotConfigured,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { context, source } => {
                write!(f, "journal i/o failed while {context}: {source}")
            }
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            JournalError::Mismatch(why) => {
                write!(f, "journal does not match this run: {why}")
            }
            JournalError::AlreadyExists(p) => write!(
                f,
                "journal {} already exists — resume it or choose a fresh directory",
                p.display()
            ),
            JournalError::Missing(p) => {
                write!(f, "no journal to resume at {}", p.display())
            }
            JournalError::NotConfigured => {
                write!(f, "resume requires CycleConfig::journal to be set")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Counters describing the journal's work during one run, surfaced as
/// `cycle.journal.*` telemetry and in
/// [`render_profile`](crate::report::render_profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalProfile {
    /// Records appended (including `Begin`/`Commit`/markers).
    pub records_written: u64,
    /// Bytes appended to the journal file.
    pub bytes_written: u64,
    /// `fsync` calls issued on the journal file: one per durable point
    /// (the header, each `Action`, each `Progress` + `Commit`, each
    /// `Snapshot` record, `Degraded`, and `Progress` + `Finished` under
    /// [`SyncPolicy::EveryRecord`]). A snapshot file's own fsync, made by
    /// its atomic write, is not counted here.
    pub fsyncs: u64,
    /// `fsync` calls issued on the journal *directory* (after creating
    /// `journal.wal` and after renaming a snapshot into place), so the
    /// dirents themselves survive a crash.
    pub dir_fsyncs: u64,
    /// Snapshot files atomically written.
    pub snapshots_written: u64,
    /// Total bytes of snapshot files written.
    pub snapshot_bytes: u64,
    /// Committed actions replayed during recovery.
    pub replayed_actions: u64,
    /// Bytes truncated off the journal tail during recovery.
    pub truncated_bytes: u64,
    /// Uncommitted (partial-iteration) actions discarded during recovery.
    pub discarded_actions: u64,
    /// I/O failures absorbed under [`IoErrorPolicy::Disable`].
    pub io_errors: u64,
}

/// The append side: owns the byte sink, enforces the sync policy, and
/// degrades per the I/O-error policy.
pub struct JournalWriter {
    cfg: JournalConfig,
    /// `None` once journaling was disabled by an absorbed I/O error.
    io: Option<Box<dyn Sink>>,
    unsynced: u32,
    /// Fingerprint of the run, stamped into snapshots.
    fingerprint: u64,
    /// Counters for telemetry.
    pub profile: JournalProfile,
}

impl JournalWriter {
    /// Start a fresh journal. Refuses to overwrite an existing one.
    pub fn create(
        cfg: &JournalConfig,
        begin: &JournalRecord,
        fingerprint: u64,
    ) -> Result<Self, JournalError> {
        let path = cfg.journal_path();
        if path.exists() {
            return Err(JournalError::AlreadyExists(path));
        }
        Self::start(cfg, begin, fingerprint)
    }

    /// Continue an existing journal whose tail [`recover`] already
    /// truncated. When the header itself was torn (`append_offset == 0`)
    /// the file is rewritten from scratch.
    pub fn resume(
        cfg: &JournalConfig,
        begin: &JournalRecord,
        fingerprint: u64,
        append_offset: u64,
        recovered: JournalProfile,
    ) -> Result<Self, JournalError> {
        if append_offset == 0 {
            if let Err(e) = std::fs::remove_file(cfg.journal_path()) {
                if e.kind() != stdio::ErrorKind::NotFound {
                    return Err(JournalError::Io {
                        context: "clearing torn journal header".to_string(),
                        source: e,
                    });
                }
            }
            let mut w = Self::start(cfg, begin, fingerprint)?;
            w.profile.replayed_actions = recovered.replayed_actions;
            w.profile.truncated_bytes = recovered.truncated_bytes;
            w.profile.discarded_actions = recovered.discarded_actions;
            return Ok(w);
        }
        let path = cfg.journal_path();
        let io = cfg
            .io
            .open(&path, FileKind::Journal)
            .map_err(|e| JournalError::Io {
                context: "reopening journal for append".to_string(),
                source: e,
            })?;
        Ok(JournalWriter {
            cfg: cfg.clone(),
            io: Some(io),
            unsynced: 0,
            fingerprint,
            profile: recovered,
        })
    }

    fn start(
        cfg: &JournalConfig,
        begin: &JournalRecord,
        fingerprint: u64,
    ) -> Result<Self, JournalError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| JournalError::Io {
            context: "creating journal directory".to_string(),
            source: e,
        })?;
        let path = cfg.journal_path();
        let mut writer = JournalWriter {
            cfg: cfg.clone(),
            io: None,
            unsynced: 0,
            fingerprint,
            profile: JournalProfile::default(),
        };
        let mut io = match cfg.io.open(&path, FileKind::Journal) {
            Ok(io) => io,
            Err(e) => return writer.absorb(e, "opening journal"),
        };
        // header + Begin are written and synced unconditionally: without
        // a durable header the journal identifies nothing.
        let frame = begin.encode();
        let attempt = io
            .append(MAGIC)
            .and_then(|_| io.append(&frame))
            .and_then(|_| io.sync());
        if let Err(e) = attempt {
            return writer.absorb(e, "writing journal header");
        }
        writer.profile.records_written = 1;
        writer.profile.bytes_written = (MAGIC.len() + frame.len()) as u64;
        writer.profile.fsyncs = 1;
        // The file contents are durable; now make the *dirent* durable
        // too, or a crash can leave a fully-synced journal that simply
        // does not exist under its name.
        if let Err(e) = fsync_dir(&cfg.dir) {
            return writer.absorb(e, "fsyncing journal directory");
        }
        writer.profile.dir_fsyncs = 1;
        writer.io = Some(io);
        Ok(writer)
    }

    /// Apply the configured I/O-error policy to a failed operation; on
    /// `Disable` the writer survives with journaling off.
    fn absorb(&mut self, e: stdio::Error, context: &str) -> Result<Self, JournalError> {
        match self.cfg.on_io_error {
            IoErrorPolicy::Fail => Err(JournalError::Io {
                context: context.to_string(),
                source: e,
            }),
            IoErrorPolicy::Disable => {
                self.profile.io_errors += 1;
                self.io = None;
                Ok(JournalWriter {
                    cfg: self.cfg.clone(),
                    io: None,
                    unsynced: 0,
                    fingerprint: self.fingerprint,
                    profile: self.profile,
                })
            }
        }
    }

    fn on_error(&mut self, e: stdio::Error, context: &str) -> Result<(), JournalError> {
        match self.cfg.on_io_error {
            IoErrorPolicy::Fail => Err(JournalError::Io {
                context: context.to_string(),
                source: e,
            }),
            IoErrorPolicy::Disable => {
                self.profile.io_errors += 1;
                self.io = None;
                Ok(())
            }
        }
    }

    /// Is journaling still live (not disabled by an absorbed error)?
    pub fn active(&self) -> bool {
        self.io.is_some()
    }

    fn sync_now(&mut self) -> Result<(), JournalError> {
        let Some(io) = self.io.as_mut() else {
            return Ok(());
        };
        match io.sync() {
            Ok(()) => {
                self.profile.fsyncs += 1;
                self.unsynced = 0;
                Ok(())
            }
            Err(e) => self.on_error(e, "fsyncing journal"),
        }
    }

    /// Append one record, honouring the sync policy.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        self.write(std::slice::from_ref(rec), false)
    }

    /// Append `recs` as one write with one sync decision under the sync
    /// policy — a `Progress` sample with the `Commit` it precedes. The
    /// bytes are the same as one [`append`](Self::append) per record.
    pub fn append_all(&mut self, recs: &[JournalRecord]) -> Result<(), JournalError> {
        self.write(recs, false)
    }

    /// Append `recs` as one write and make them durable regardless of
    /// policy, with one fsync — used for the terminal `Degraded` and
    /// `Progress` + `Finished` records.
    pub fn append_durable(&mut self, recs: &[JournalRecord]) -> Result<(), JournalError> {
        self.write(recs, true)
    }

    /// The one append path: a single `append` call on the sink, then at
    /// most one fsync — when `durable` asks for it or the policy is due.
    /// A durable point therefore costs one fsync, never a second one on a
    /// file the first already made clean.
    fn write(&mut self, recs: &[JournalRecord], durable: bool) -> Result<(), JournalError> {
        let Some(io) = self.io.as_mut().filter(|_| !recs.is_empty()) else {
            return Ok(());
        };
        let frames: Vec<u8> = match recs {
            [rec] => rec.encode(),
            _ => recs.iter().flat_map(JournalRecord::encode).collect(),
        };
        if let Err(e) = io.append(&frames) {
            return self.on_error(e, "appending journal record");
        }
        self.profile.records_written += recs.len() as u64;
        self.profile.bytes_written += frames.len() as u64;
        self.unsynced = self.unsynced.saturating_add(recs.len() as u32);
        let due = durable
            || match self.cfg.sync {
                SyncPolicy::EveryRecord => true,
                SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
                SyncPolicy::OnSnapshot => false,
            };
        if due {
            self.sync_now()
        } else {
            Ok(())
        }
    }

    /// Write an atomic snapshot, record it in the journal, and sync.
    pub fn snapshot(&mut self, cp: &Checkpoint) -> Result<(), JournalError> {
        if self.io.is_none() {
            return Ok(());
        }
        match cp.write(self.cfg.io.as_ref(), &self.cfg.dir) {
            Ok((file, bytes)) => {
                self.profile.snapshots_written += 1;
                self.profile.snapshot_bytes += bytes;
                self.profile.dir_fsyncs += 1; // the atomic write fsynced the dir

                self.append_durable(&[JournalRecord::Snapshot {
                    iterations: cp.iterations,
                    file,
                }])
            }
            Err(e) => self.on_error(e, "writing snapshot"),
        }
    }

    /// Fingerprint this writer stamps into snapshots.
    pub fn run_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

// --- fingerprinting -------------------------------------------------------

/// Fingerprint of everything the cycle's trajectory depends on: table
/// content, dictionary roles, result-affecting configuration, and plug-in
/// names. Governor knobs (`max_iterations`, `deadline`), `fallback`,
/// `audit` and `storage` are deliberately **excluded**: they bound or
/// observe the trajectory without changing it, so a journal written by a
/// capped or audited run resumes cleanly under different settings of
/// those knobs. The step settings **are** included, `granularity` and
/// `batch` as given: batching changes which cells each iteration touches,
/// so a journal is only replayable under the strategy that wrote it.
/// `batch: Some(OneTuple)` takes the same step as one-tuple granularity
/// but hashes differently, which keeps journals written under either
/// spelling resumable.
pub fn fingerprint(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    config: &CycleConfig,
    risk_name: &str,
    anonymizer_name: &str,
) -> u64 {
    let mut h = Fnv1a::new();
    h.str("vadasa-journal-v1");
    h.str(&db.name);
    h.u64(db.attributes().len() as u64);
    for a in db.attributes() {
        h.str(a);
    }
    h.u64(db.len() as u64);
    let mut cell = Vec::with_capacity(32);
    for row in db.iter_rows() {
        for v in row {
            cell.clear();
            vadalog::frame::wire::put_value(&mut cell, v);
            h.bytes(&cell);
        }
    }
    if let Ok(qis) = dict.quasi_identifiers(&db.name) {
        h.u64(qis.len() as u64);
        for q in &qis {
            h.str(q);
        }
    }
    if let Ok(w) = dict.weight_attr(&db.name) {
        h.str(&w);
    }
    h.u64(config.threshold.to_bits());
    h.u64(config.tuple_order as u64);
    h.u64(config.granularity as u64);
    h.u64(config.semantics as u64);
    match config.batch {
        None => h.u64(0),
        Some(crate::cycle::BatchStrategy::OneTuple) => h.u64(1),
        Some(crate::cycle::BatchStrategy::PerClass) => h.u64(2),
        Some(crate::cycle::BatchStrategy::TopN(n)) => {
            h.u64(3);
            h.u64(n as u64);
        }
    }
    h.str(risk_name);
    h.str(anonymizer_name);
    h.finish()
}

// --- recovery -------------------------------------------------------------

/// The state [`recover`] hands back to the cycle: everything needed to
/// continue from the last committed iteration boundary.
pub struct Recovery {
    /// The working table, replayed up to the recovery horizon.
    pub db: MicrodataDb,
    /// Audit trail rebuilt from every committed action record.
    pub audit: AuditLog,
    /// Rows the anonymizer had exhausted.
    pub exhausted: HashSet<usize>,
    /// Completed iterations at the horizon.
    pub iterations: usize,
    /// Labelled nulls injected so far.
    pub nulls_injected: usize,
    /// Global recodings applied so far.
    pub recodings: usize,
    /// Tuples at risk before the first iteration (0 when the crash
    /// predated the first commit; the cycle then recomputes it).
    pub initial_risky: usize,
    /// Recovery-side counters, folded into the resumed run's profile.
    pub profile: JournalProfile,
    /// Byte offset the writer should append from; `0` means the header
    /// itself was torn and the file must be rewritten.
    pub append_offset: u64,
}

/// Scan, validate, truncate and replay a journal directory.
///
/// Never panics on hostile input: an alien or mismatched file is a
/// structured [`JournalError`]; a torn tail (the normal crash outcome)
/// is truncated and recovery proceeds from the last committed boundary.
pub fn recover(
    cfg: &JournalConfig,
    original: &MicrodataDb,
    threshold: f64,
    expected_fingerprint: u64,
) -> Result<Recovery, JournalError> {
    let path = cfg.journal_path();
    let bytes = match cfg.io.read(&path, FileKind::Journal) {
        Ok(b) => b,
        Err(e) if e.kind() == stdio::ErrorKind::NotFound => {
            return Err(JournalError::Missing(path));
        }
        Err(e) => {
            return Err(JournalError::Io {
                context: "reading journal".to_string(),
                source: e,
            })
        }
    };
    let mut profile = JournalProfile::default();

    // Header. A file shorter than the magic that is a *prefix* of the
    // magic is a crash during creation: restart from scratch. Anything
    // else under this name is not ours to touch.
    if bytes.len() < MAGIC.len() {
        if bytes.as_slice() == &MAGIC[..bytes.len()] {
            profile.truncated_bytes = bytes.len() as u64;
            return Ok(fresh_recovery(original, profile));
        }
        return Err(JournalError::Mismatch(
            "file is not a vadasa journal".to_string(),
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::Mismatch(
            "file is not a vadasa journal (bad magic)".to_string(),
        ));
    }

    // Scan frames until the first tear (everything after it is dropped).
    // Offsets are kept so the journal can be truncated exactly at the
    // last committed boundary.
    let records: Vec<(JournalRecord, usize)> = record::records(&bytes).collect();

    // The first record must be a Begin that matches this run.
    let Some((
        JournalRecord::Begin {
            version,
            fingerprint: fp,
            rows,
            ..
        },
        _,
    )) = records.first()
    else {
        // no complete Begin: the crash predated the header sync
        profile.truncated_bytes = bytes.len() as u64;
        return Ok(fresh_recovery(original, profile));
    };
    if *version != record::FORMAT_VERSION {
        return Err(JournalError::Mismatch(format!(
            "journal format version {version}, this build reads {}",
            record::FORMAT_VERSION
        )));
    }
    if *fp != expected_fingerprint {
        return Err(JournalError::Mismatch(
            "fingerprint differs: table, dictionary, configuration or plug-ins changed".to_string(),
        ));
    }
    if *rows != original.len() as u64 {
        return Err(JournalError::Mismatch(format!(
            "journal covers {rows} rows, table has {}",
            original.len()
        )));
    }

    // Recovery horizon: the last Commit decides which actions are
    // replayable; Begin/Commit/Snapshot records advance the keep-offset,
    // while Action records after the last commit (a partial iteration)
    // and Degraded/Finished markers (the resumed run re-decides its own
    // ending) are truncated away and re-derived.
    let mut committed: u64 = 0;
    let mut counters = (0u64, 0u64, 0u64, 0u64); // nulls, recodings, initial_risky, exhausted
    let mut keep_offset = records[0].1;
    let mut snapshots: Vec<(u64, String)> = Vec::new();
    for (rec, end) in &records[1..] {
        match rec {
            JournalRecord::Commit {
                iterations,
                nulls_injected,
                recodings,
                initial_risky,
                exhausted,
            } => {
                committed = *iterations;
                counters = (*nulls_injected, *recodings, *initial_risky, *exhausted);
                keep_offset = *end;
            }
            JournalRecord::Snapshot { iterations, file } => {
                if *iterations <= committed {
                    snapshots.push((*iterations, file.clone()));
                    keep_offset = *end;
                }
            }
            // Progress samples ride just ahead of their Commit; keeping
            // the offset at the Commit boundary keeps them in the kept
            // region without making them a boundary of their own.
            JournalRecord::Action { .. }
            | JournalRecord::Progress { .. }
            | JournalRecord::Degraded { .. }
            | JournalRecord::Finished { .. }
            | JournalRecord::Begin { .. } => {}
        }
    }
    profile.truncated_bytes = (bytes.len() - keep_offset) as u64;

    // Newest valid snapshot wins; older ones and finally the original
    // table are the fallbacks. A snapshot is read only under the name
    // its writer gives it, so a hostile journal cannot point recovery at
    // a file outside the journal directory.
    snapshots.sort_by_key(|s| std::cmp::Reverse(s.0));
    let restored = snapshots
        .iter()
        .filter(|(iters, file)| *file == Checkpoint::file_name(*iters))
        .find_map(|(iters, file)| {
            // an unreadable, corrupt or foreign snapshot, or one whose
            // cells do not fit the table: try an older one
            let path = cfg.dir.join(file);
            let cp = Checkpoint::read_with(cfg.io.as_ref(), &path, Some(expected_fingerprint))
                .ok()
                .filter(|cp| cp.iterations == *iters)?;
            let db = cp.apply(original).ok()?;
            Some((cp, db))
        });
    let (base_iter, base_exhausted, mut db) = match restored {
        Some((cp, db)) => (cp.iterations, cp.exhausted.into_iter().collect(), db),
        None => (0, HashSet::new(), original.clone()),
    };

    // Replay committed actions. Actions at or past the snapshot's
    // iteration mutate the table; *all* committed actions rebuild the
    // audit trail and the exhausted set.
    let mut audit = AuditLog::default();
    let mut exhausted = base_exhausted;
    for (rec, _) in &records[1..] {
        let JournalRecord::Action {
            iteration,
            row,
            risk_bits,
            measure,
            action,
        } = rec
        else {
            continue;
        };
        if *iteration >= committed {
            profile.discarded_actions += 1;
            continue;
        }
        if *iteration >= base_iter {
            apply_action(&mut db, action)?;
            profile.replayed_actions += 1;
            if let crate::anonymize::AnonymizationAction::Exhausted { row } = action {
                exhausted.insert(*row);
            }
        }
        audit.record(Decision {
            iteration: *iteration as usize,
            row: *row as usize,
            measure: measure.clone(),
            risk: f64::from_bits(*risk_bits),
            threshold,
            action: action.clone(),
        });
    }

    // Drop the uncommitted tail on disk so the writer appends at a
    // well-formed boundary.
    if keep_offset < bytes.len() {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| JournalError::Io {
                context: "opening journal for truncation".to_string(),
                source: e,
            })?;
        file.set_len(keep_offset as u64)
            .map_err(|e| JournalError::Io {
                context: "truncating journal tail".to_string(),
                source: e,
            })?;
        file.sync_all().map_err(|e| JournalError::Io {
            context: "syncing truncated journal".to_string(),
            source: e,
        })?;
    }

    Ok(Recovery {
        db,
        audit,
        exhausted,
        iterations: committed as usize,
        nulls_injected: counters.0 as usize,
        recodings: counters.1 as usize,
        initial_risky: counters.2 as usize,
        profile,
        append_offset: keep_offset as u64,
    })
}

/// The state a run that has nothing to recover starts from: the original
/// table and zeroed counters.
pub(crate) fn fresh_recovery(original: &MicrodataDb, profile: JournalProfile) -> Recovery {
    Recovery {
        db: original.clone(),
        audit: AuditLog::default(),
        exhausted: HashSet::new(),
        iterations: 0,
        nulls_injected: 0,
        recodings: 0,
        initial_risky: 0,
        profile,
        append_offset: 0,
    }
}

/// Re-apply one journaled action to the working table. Deterministic:
/// `Suppress` mints the next labelled null (the counter was restored by
/// the snapshot or advances identically from the original table), and
/// `Recode` rewrites every cell equal to `from` — exactly what the live
/// anonymizer did.
fn apply_action(
    db: &mut MicrodataDb,
    action: &crate::anonymize::AnonymizationAction,
) -> Result<(), JournalError> {
    use crate::anonymize::AnonymizationAction as A;
    match action {
        A::Suppress { row, attr, .. } => {
            let null = db.fresh_null();
            db.set_value(*row, attr, null).map_err(|e| {
                JournalError::Mismatch(format!("replaying suppression of row {row}: {e}"))
            })
        }
        A::Recode { attr, from, to, .. } => {
            for r in 0..db.len() {
                let matches = db
                    .value(r, attr)
                    .map(|v| v == from)
                    .map_err(|e| JournalError::Mismatch(format!("replaying recode: {e}")))?;
                if matches {
                    db.set_value(r, attr, to.clone()).map_err(|e| {
                        JournalError::Mismatch(format!("replaying recode of row {r}: {e}"))
                    })?;
                }
            }
            Ok(())
        }
        A::Exhausted { .. } => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vadasa-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_db() -> MicrodataDb {
        let mut db = MicrodataDb::new("t", ["Id", "Area"]).unwrap();
        db.push_row(vec![Value::Int(1), Value::str("North")])
            .unwrap();
        db.push_row(vec![Value::Int(2), Value::str("South")])
            .unwrap();
        db
    }

    fn begin_for(db: &MicrodataDb, fp: u64) -> JournalRecord {
        JournalRecord::Begin {
            version: record::FORMAT_VERSION,
            fingerprint: fp,
            measure: "m".into(),
            anonymizer: "a".into(),
            rows: db.len() as u64,
        }
    }

    #[test]
    fn create_refuses_existing_journal() {
        let dir = tmp_dir("exists");
        let cfg = JournalConfig::new(&dir);
        let db = tiny_db();
        let b = begin_for(&db, 7);
        let _w = JournalWriter::create(&cfg, &b, 7).unwrap();
        match JournalWriter::create(&cfg, &b, 7) {
            Err(JournalError::AlreadyExists(_)) => {}
            Err(other) => panic!("expected AlreadyExists, got {other:?}"),
            Ok(_) => panic!("expected AlreadyExists, got a writer"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_alien_journals_are_structured_errors() {
        let dir = tmp_dir("alien");
        let cfg = JournalConfig::new(&dir);
        let db = tiny_db();
        assert!(matches!(
            recover(&cfg, &db, 0.5, 7),
            Err(JournalError::Missing(_))
        ));
        std::fs::write(cfg.journal_path(), b"totally not a journal").unwrap();
        assert!(matches!(
            recover(&cfg, &db, 0.5, 7),
            Err(JournalError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_recovers_fresh() {
        let dir = tmp_dir("torn-header");
        let cfg = JournalConfig::new(&dir);
        let db = tiny_db();
        std::fs::write(cfg.journal_path(), &MAGIC[..5]).unwrap();
        let rec = recover(&cfg, &db, 0.5, 7).unwrap();
        assert_eq!(rec.iterations, 0);
        assert_eq!(rec.append_offset, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = tmp_dir("fp");
        let cfg = JournalConfig::new(&dir);
        let db = tiny_db();
        let _w = JournalWriter::create(&cfg, &begin_for(&db, 1), 1).unwrap();
        assert!(matches!(
            recover(&cfg, &db, 0.5, 2),
            Err(JournalError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_suppression_replays_and_pending_is_discarded() {
        let dir = tmp_dir("replay");
        let cfg = JournalConfig::new(&dir);
        let db = tiny_db();
        let mut w = JournalWriter::create(&cfg, &begin_for(&db, 9), 9).unwrap();
        let suppress = |row: u64| JournalRecord::Action {
            iteration: if row == 0 { 0 } else { 1 },
            row,
            risk_bits: 1.0f64.to_bits(),
            measure: "m".into(),
            action: crate::anonymize::AnonymizationAction::Suppress {
                row: row as usize,
                attr: "Area".into(),
                previous: Value::str("x"),
            },
        };
        w.append(&suppress(0)).unwrap();
        w.append(&JournalRecord::Commit {
            iterations: 1,
            nulls_injected: 1,
            recodings: 0,
            initial_risky: 2,
            exhausted: 0,
        })
        .unwrap();
        // a pending action of iteration 1, never committed
        w.append(&suppress(1)).unwrap();
        drop(w);

        let before = std::fs::metadata(cfg.journal_path()).unwrap().len();
        let rec = recover(&cfg, &db, 0.5, 9).unwrap();
        assert_eq!(rec.iterations, 1);
        assert_eq!(rec.nulls_injected, 1);
        assert_eq!(rec.initial_risky, 2);
        assert_eq!(rec.profile.replayed_actions, 1);
        assert_eq!(rec.profile.discarded_actions, 1);
        assert!(rec.profile.truncated_bytes > 0);
        // row 0 suppressed with the first fresh null; row 1 untouched
        assert!(rec.db.value(0, "Area").unwrap().is_null());
        assert_eq!(rec.db.value(1, "Area").unwrap(), &Value::str("South"));
        assert_eq!(rec.audit.decisions.len(), 1);
        let after = std::fs::metadata(cfg.journal_path()).unwrap().len();
        assert!(after < before, "uncommitted tail must be truncated");
        assert_eq!(after, rec.append_offset);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_n_sync_policy_counts_fsyncs() {
        let dir = tmp_dir("every-n");
        let mut cfg = JournalConfig::new(&dir);
        cfg.sync = SyncPolicy::EveryN(3);
        let db = tiny_db();
        let mut w = JournalWriter::create(&cfg, &begin_for(&db, 3), 3).unwrap();
        let base = w.profile.fsyncs;
        for i in 0..7u64 {
            w.append(&JournalRecord::Commit {
                iterations: i + 1,
                nulls_injected: 0,
                recodings: 0,
                initial_risky: 0,
                exhausted: 0,
            })
            .unwrap();
        }
        // 7 records at every-3 → 2 syncs
        assert_eq!(w.profile.fsyncs - base, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
