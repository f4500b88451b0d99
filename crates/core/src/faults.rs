//! Deterministic fault injection for the anonymization cycle.
//!
//! Robustness claims are cheap; this module makes them testable. It wraps
//! real plug-ins ([`FaultyRisk`], [`FaultyAnonymizer`]) so that a seeded
//! [`FaultPlan`] can make them panic at a chosen call ordinal, flip a
//! [`CancelToken`] mid-run, or pair with budget/deadline configuration —
//! always at the *same* point for the same seed, so a failing scenario
//! reproduces exactly. [`faulty_io`] does the same for the durable files
//! (journal, snapshots, warm artifacts): one [`IoFault`] aimed at the
//! [`FileKind`]s it names.
//!
//! The harness lives in the library (not the test tree) so integration
//! tests, benches and downstream consumers can all drive the same
//! scenarios. Its deliberate panics carry `gate-allow` markers: they are
//! the faults under test, not accidental partiality.

use crate::anonymize::{AnonymizationAction, AnonymizeError, Anonymizer};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::risk::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vadalog::backend::{DurableIo, FileIo, FileKind, Sink};
use vadalog::CancelToken;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Configure the cycle with this iteration cap so it trips before
    /// convergence (a budget fault, not a plug-in fault).
    IterationCap(usize),
    /// Configure the cycle with a zero wall-clock deadline: the very
    /// first deadline check trips.
    ImmediateDeadline,
    /// The risk measure panics on its `n`-th `evaluate` call (1-based).
    PanicInRisk {
        /// Which evaluate call panics, counting from 1.
        at_eval: usize,
    },
    /// The anonymizer panics on its `n`-th step (1-based).
    PanicInAnonymizer {
        /// Which step call panics, counting from 1.
        at_step: usize,
    },
    /// A [`CancelToken`] is flipped after `n` risk evaluations, as if an
    /// operator pressed Ctrl-C mid-cycle.
    CancelAfterEvals(usize),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::IterationCap(n) => write!(f, "iteration cap at {n}"),
            Fault::ImmediateDeadline => write!(f, "immediate deadline"),
            Fault::PanicInRisk { at_eval } => write!(f, "risk measure panics at eval #{at_eval}"),
            Fault::PanicInAnonymizer { at_step } => {
                write!(f, "anonymizer panics at step #{at_step}")
            }
            Fault::CancelAfterEvals(n) => write!(f, "cancelled after {n} evals"),
        }
    }
}

/// A named, reproducible fault scenario.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Human-readable scenario name (used in test output).
    pub name: String,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// The deterministic scenario matrix for `seed`: every fault kind,
    /// with call ordinals drawn from the seeded generator so different
    /// seeds probe different interleavings while any single seed
    /// reproduces exactly.
    pub fn scenarios(seed: u64) -> Vec<FaultPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        let eval_at = 1 + rng.gen_range(0..3usize);
        let step_at = 1 + rng.gen_range(0..5usize);
        let cancel_after = 1 + rng.gen_range(0..2usize);
        vec![
            FaultPlan {
                name: "budget:iteration-cap-0".into(),
                fault: Fault::IterationCap(0),
            },
            FaultPlan {
                name: "budget:iteration-cap-1".into(),
                fault: Fault::IterationCap(1),
            },
            FaultPlan {
                name: "budget:immediate-deadline".into(),
                fault: Fault::ImmediateDeadline,
            },
            FaultPlan {
                name: format!("panic:risk-eval-{eval_at}"),
                fault: Fault::PanicInRisk { at_eval: eval_at },
            },
            FaultPlan {
                name: "panic:risk-eval-1".into(),
                fault: Fault::PanicInRisk { at_eval: 1 },
            },
            FaultPlan {
                name: format!("panic:anonymizer-step-{step_at}"),
                fault: Fault::PanicInAnonymizer { at_step: step_at },
            },
            FaultPlan {
                name: format!("cancel:after-{cancel_after}-evals"),
                fault: Fault::CancelAfterEvals(cancel_after),
            },
        ]
    }
}

/// A risk measure that misbehaves on cue: panics on a chosen call ordinal
/// and/or flips a [`CancelToken`] after a number of evaluations, otherwise
/// delegating to the wrapped measure.
pub struct FaultyRisk<'a> {
    inner: &'a dyn RiskMeasure,
    panic_at: Option<usize>,
    cancel_after: Option<(usize, CancelToken)>,
    evals: AtomicUsize,
}

impl<'a> FaultyRisk<'a> {
    /// Wrap `inner` with no faults armed (a transparent pass-through).
    pub fn new(inner: &'a dyn RiskMeasure) -> Self {
        FaultyRisk {
            inner,
            panic_at: None,
            cancel_after: None,
            evals: AtomicUsize::new(0),
        }
    }

    /// Panic on the `n`-th `evaluate` call (1-based).
    pub fn panic_at(mut self, n: usize) -> Self {
        self.panic_at = Some(n);
        self
    }

    /// Flip `token` after `n` `evaluate` calls (1-based).
    pub fn cancel_after(mut self, n: usize, token: CancelToken) -> Self {
        self.cancel_after = Some((n, token));
        self
    }

    /// How many `evaluate` calls the wrapper has seen.
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }
}

impl RiskMeasure for FaultyRisk<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let call = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_at == Some(call) {
            panic!("injected risk fault at eval #{call}"); // gate-allow: the fault under test
        }
        if let Some((after, token)) = &self.cancel_after {
            if call >= *after {
                token.cancel();
            }
        }
        self.inner.evaluate(view)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        self.inner.evaluate_tuple(view, row)
    }
}

/// An anonymizer that panics on a chosen step ordinal, otherwise
/// delegating to the wrapped anonymizer. Steps are counted in
/// `anonymize_step_with`, which a standalone `anonymize_step` reaches too.
pub struct FaultyAnonymizer<'a> {
    inner: &'a dyn Anonymizer,
    panic_at: Option<usize>,
    steps: AtomicUsize,
}

impl<'a> FaultyAnonymizer<'a> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: &'a dyn Anonymizer) -> Self {
        FaultyAnonymizer {
            inner,
            panic_at: None,
            steps: AtomicUsize::new(0),
        }
    }

    /// Panic on the `n`-th step (1-based).
    pub fn panic_at(mut self, n: usize) -> Self {
        self.panic_at = Some(n);
        self
    }

    /// How many steps the wrapper has seen.
    pub fn steps(&self) -> usize {
        self.steps.load(Ordering::Relaxed)
    }
}

impl Anonymizer for FaultyAnonymizer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn anonymize_step_with(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let call = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_at == Some(call) {
            panic!("injected anonymizer fault at step #{call}"); // gate-allow: the fault under test
        }
        self.inner.anonymize_step_with(db, dict, view, row)
    }
}

/// One injectable I/O fault, applied by [`faulty_io`] to the file kinds
/// it names. Write-side ordinals are 1-based and count only the appends
/// (or syncs, or bytes) on those kinds, across every file the injector
/// opens — including across the retry attempts of a job that reuses it.
/// Read-side faults hit every read of those kinds.
///
/// The matrix contract (`tests/durable_matrix.rs`): every one of these,
/// injected anywhere, ends in a structured error or a documented
/// fallback with the reference outcome — never a panic, never silent
/// divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The `n`-th append persists only the first `k` bytes of its buffer
    /// and then errors — a torn write, the canonical crash shape.
    TornWrite {
        /// Which append tears, counting from 1.
        at_append: usize,
        /// How many bytes of that buffer still land on disk.
        keep_bytes: usize,
    },
    /// The `n`-th append fails outright, persisting nothing.
    WriteError {
        /// Which append fails, counting from 1.
        at_append: usize,
    },
    /// The `n`-th fsync fails (data may or may not be durable — the
    /// recovery contract must hold either way).
    SyncError {
        /// Which sync fails, counting from 1.
        at_sync: usize,
    },
    /// Every append from the `n`-th on fails with `ENOSPC`, as a full
    /// disk does.
    FullDisk {
        /// First failing append, counting from 1.
        from_append: usize,
    },
    /// Every byte up to the `k`-th is persisted normally; at the `k`-th
    /// the process "crashes": the write stops there and every later
    /// append and sync fails. Sweeping `k` over a reference file's length
    /// gives a kill point at every byte.
    CrashAfterBytes {
        /// Total bytes persisted before the crash.
        bytes: usize,
    },
    /// The first `failing` appends fail transiently (persisting nothing);
    /// every later one succeeds — a fault that heals by the time a
    /// supervisor retries the job.
    TransientAppends {
        /// How many leading appends fail, counting from 1.
        failing: usize,
    },
    /// Reads succeed but return a corrupt page: the byte at
    /// `flip_byte % len` comes back bit-flipped.
    CorruptOnRead {
        /// Which byte of the file is flipped (wrapped into range).
        flip_byte: usize,
    },
    /// Every read is denied (`EACCES`) — the reopen-denied shape a
    /// permissions change or a stale NFS handle produces.
    ReopenDenied,
    /// Reads return an alien file: the first eight bytes are replaced.
    AlienMagic,
    /// Reads return the header's format version as `u32::MAX`, as a file
    /// written by a much newer build would carry.
    FutureVersion,
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFault::TornWrite {
                at_append,
                keep_bytes,
            } => write!(f, "torn write at append #{at_append} (keeps {keep_bytes}B)"),
            IoFault::WriteError { at_append } => write!(f, "write error at append #{at_append}"),
            IoFault::SyncError { at_sync } => write!(f, "fsync failure at sync #{at_sync}"),
            IoFault::FullDisk { from_append } => write!(f, "disk full from append #{from_append}"),
            IoFault::CrashAfterBytes { bytes } => write!(f, "crash after {bytes} bytes"),
            IoFault::TransientAppends { failing } => {
                write!(f, "first {failing} append(s) fail transiently")
            }
            IoFault::CorruptOnRead { flip_byte } => {
                write!(f, "corrupt page: byte {flip_byte} flipped on read")
            }
            IoFault::ReopenDenied => write!(f, "reopen denied"),
            IoFault::AlienMagic => write!(f, "alien magic on read"),
            IoFault::FutureVersion => write!(f, "future format version on read"),
        }
    }
}

/// The kinds a journal fault hits: the journal and its snapshots, so
/// warm artifacts beside them stay healthy.
pub const JOURNAL_KINDS: &[FileKind] = &[FileKind::Journal, FileKind::Snapshot];

/// One fault's aim and counters, shared by every sink the injector opens.
#[derive(Debug)]
struct FaultState {
    fault: IoFault,
    kinds: Vec<FileKind>,
    appends: AtomicUsize,
    syncs: AtomicUsize,
    bytes: AtomicUsize,
}

/// A [`DurableIo`] injecting one [`IoFault`] into the file kinds it
/// names and doing real file I/O everywhere else.
#[derive(Debug)]
struct FaultyIo(Arc<FaultState>);

/// Build a [`DurableIo`] injecting `fault` into every file of `kinds`,
/// for [`JournalConfig::io`](crate::journal::JournalConfig::io) or
/// [`FileBackend::with_io`](vadalog::backend::FileBackend::with_io).
pub fn faulty_io(fault: IoFault, kinds: &[FileKind]) -> Arc<dyn DurableIo> {
    Arc::new(FaultyIo(Arc::new(FaultState {
        fault,
        kinds: kinds.to_vec(),
        appends: AtomicUsize::new(0),
        syncs: AtomicUsize::new(0),
        bytes: AtomicUsize::new(0),
    })))
}

impl DurableIo for FaultyIo {
    fn open(&self, path: &Path, kind: FileKind) -> io::Result<Box<dyn Sink>> {
        let inner = FileIo.open(path, kind)?;
        if !self.0.kinds.contains(&kind) {
            return Ok(inner);
        }
        Ok(Box::new(FaultySink {
            inner,
            state: Arc::clone(&self.0),
        }))
    }

    fn read(&self, path: &Path, kind: FileKind) -> io::Result<Vec<u8>> {
        if !self.0.kinds.contains(&kind) {
            return FileIo.read(path, kind);
        }
        if self.0.fault == IoFault::ReopenDenied {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "injected reopen denial",
            ));
        }
        let mut bytes = FileIo.read(path, kind)?;
        match self.0.fault {
            IoFault::CorruptOnRead { flip_byte } if !bytes.is_empty() => {
                let i = flip_byte % bytes.len();
                bytes[i] ^= 0x40;
            }
            IoFault::AlienMagic => {
                for (b, alien) in bytes.iter_mut().zip(b"NOTAVADA") {
                    *b = *alien;
                }
            }
            IoFault::FutureVersion if bytes.len() >= 12 => {
                bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            _ => {}
        }
        Ok(bytes)
    }
}

/// A real sink with the planned write-side fault in front of it.
struct FaultySink {
    inner: Box<dyn Sink>,
    state: Arc<FaultState>,
}

impl FaultySink {
    /// Persist a prefix of `buf` (really, synced) and report the tear.
    fn tear(&mut self, buf: &[u8], keep: usize, why: &str) -> io::Result<()> {
        self.inner.append(&buf[..keep.min(buf.len())])?;
        let _ = self.inner.sync();
        Err(io::Error::other(why.to_string()))
    }
}

impl Sink for FaultySink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let call = self.state.appends.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.fault {
            IoFault::TornWrite {
                at_append,
                keep_bytes,
            } if call == at_append => self.tear(buf, keep_bytes, "injected torn write"),
            IoFault::WriteError { at_append } if call == at_append => {
                Err(io::Error::other("injected write error"))
            }
            IoFault::TransientAppends { failing } if call <= failing => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient append failure",
            )),
            IoFault::FullDisk { from_append } if call >= from_append => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk full",
            )),
            IoFault::CrashAfterBytes { bytes } => {
                let written = self.state.bytes.load(Ordering::Relaxed);
                if written >= bytes {
                    return Err(io::Error::other("injected crash"));
                }
                let keep = (bytes - written).min(buf.len());
                self.state.bytes.fetch_add(keep, Ordering::Relaxed);
                if keep < buf.len() {
                    self.tear(buf, keep, "injected crash")
                } else {
                    self.inner.append(buf)
                }
            }
            _ => self.inner.append(buf),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let call = self.state.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.fault {
            IoFault::SyncError { at_sync } if call == at_sync => {
                Err(io::Error::other("injected fsync failure"))
            }
            IoFault::CrashAfterBytes { bytes }
                if self.state.bytes.load(Ordering::Relaxed) >= bytes =>
            {
                Err(io::Error::other("injected crash"))
            }
            _ => self.inner.sync(),
        }
    }
}

/// Server-level fault injection: what a *job* submitted to the
/// `vadasa-server` supervisor should do wrong, and when. Unlike the
/// plug-in wrappers above (which a caller wires manually), a
/// `ServerFault` rides on the job specification and the server's worker
/// arms the corresponding machinery itself — so the retry/backoff,
/// panic-isolation and delayed-admission paths are all deterministically
/// testable from the outside.
///
/// Faults are an in-memory testing surface only: they are **not**
/// persisted into the job manifest, so a recovered job restarts clean
/// (exactly what a real transient fault looks like across a restart).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFault {
    /// Panic in the worker thread itself — outside the cycle's plug-in
    /// guard — when it begins the given attempt (1-based). Exercises the
    /// supervisor's `catch_unwind` isolation: the job must end `Failed`
    /// with a structured error while the worker pool keeps serving.
    pub panic_on_attempt: Option<u32>,
    /// Arm a [`FaultyRisk`] wrapper that panics on the `n`-th risk
    /// evaluation (1-based) — the in-cycle plug-in-panic path, handled
    /// by the cycle's own isolation per its fallback policy.
    pub risk_panic_at_eval: Option<usize>,
    /// Arm an [`IoFault::TransientAppends`] injector on the journal and
    /// its snapshots: the first `n` appends fail, later ones succeed. With the default
    /// fail-fast I/O policy the first attempt dies with a transient
    /// journal error and the retry converges — the retry/backoff path.
    pub transient_appends: Option<usize>,
    /// Sleep this long in the worker before the job actually starts —
    /// holds a worker slot deterministically so admission-control and
    /// cancellation windows can be pinned in tests.
    pub delay_start: Option<std::time::Duration>,
}

impl ServerFault {
    /// No faults armed (what `Default` also gives you).
    pub fn none() -> Self {
        ServerFault::default()
    }

    /// Panic in the worker at the start of `attempt` (1-based).
    pub fn panic_on_attempt(mut self, attempt: u32) -> Self {
        self.panic_on_attempt = Some(attempt);
        self
    }

    /// Panic inside the risk measure at evaluation `n` (1-based).
    pub fn risk_panic_at_eval(mut self, n: usize) -> Self {
        self.risk_panic_at_eval = Some(n);
        self
    }

    /// Fail the first `n` journal appends, then heal.
    pub fn transient_appends(mut self, n: usize) -> Self {
        self.transient_appends = Some(n);
        self
    }

    /// Delay the job's start by `d`.
    pub fn delay_start(mut self, d: std::time::Duration) -> Self {
        self.delay_start = Some(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let a = FaultPlan::scenarios(42);
        let b = FaultPlan::scenarios(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.fault, y.fault);
        }
    }

    #[test]
    fn different_seeds_vary_ordinals() {
        // Not guaranteed for any two seeds, but these two differ — and
        // more importantly every kind of fault is present in both.
        let kinds = |plans: &[FaultPlan]| {
            plans
                .iter()
                .map(|p| std::mem::discriminant(&p.fault))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            kinds(&FaultPlan::scenarios(1)),
            kinds(&FaultPlan::scenarios(2))
        );
    }

    #[test]
    fn transient_appends_heal_across_reopened_sinks() {
        let dir = std::env::temp_dir().join(format!("vadasa-transient-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let io = faulty_io(IoFault::TransientAppends { failing: 2 }, JOURNAL_KINDS);
        // An artifact is not aimed at: its append neither fails nor counts.
        let mut art = io.open(&dir.join("x.vart"), FileKind::Artifact).unwrap();
        art.append(b"a").unwrap();
        // First sink: both appends fail (ordinals 1 and 2)...
        let mut a = io.open(&dir.join("a.wal"), FileKind::Journal).unwrap();
        assert!(a.append(b"x").is_err());
        assert!(a.append(b"y").is_err());
        // ...and a *new* sink from the same injector — a retry attempt —
        // continues the shared count, so its appends succeed.
        let mut b = io.open(&dir.join("b.wal"), FileKind::Journal).unwrap();
        b.append(b"z").unwrap();
        b.sync().unwrap();
        assert_eq!(std::fs::read(dir.join("b.wal")).unwrap(), b"z");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_faults_hit_only_their_kinds() {
        let dir = std::env::temp_dir().join(format!("vadasa-readfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        std::fs::write(&path, b"VADASAW1\x01\0\0\0rest").unwrap();
        let read = |fault, kind| faulty_io(fault, &[FileKind::Artifact]).read(&path, kind);
        assert_eq!(
            read(IoFault::ReopenDenied, FileKind::Artifact)
                .unwrap_err()
                .kind(),
            io::ErrorKind::PermissionDenied
        );
        assert!(read(IoFault::ReopenDenied, FileKind::Snapshot).is_ok());
        let alien = read(IoFault::AlienMagic, FileKind::Artifact).unwrap();
        assert_eq!(&alien[..8], b"NOTAVADA");
        let future = read(IoFault::FutureVersion, FileKind::Artifact).unwrap();
        assert_eq!(&future[8..12], &u32::MAX.to_le_bytes());
        let flipped = read(IoFault::CorruptOnRead { flip_byte: 1 }, FileKind::Artifact).unwrap();
        assert_eq!(flipped[1], b'A' ^ 0x40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_fault_builders_compose() {
        let f = ServerFault::none()
            .panic_on_attempt(1)
            .transient_appends(3)
            .delay_start(std::time::Duration::from_millis(5));
        assert_eq!(f.panic_on_attempt, Some(1));
        assert_eq!(f.transient_appends, Some(3));
    }
}
