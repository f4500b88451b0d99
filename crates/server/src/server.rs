//! The supervisor: a bounded worker pool running many journaled
//! anonymization cycles, with admission control, retry/backoff, panic
//! isolation, graceful shutdown and whole-fleet crash recovery.
//!
//! ## Supervision tree
//!
//! ```text
//! JobServer
//! ├── shared state (Mutex) ── job table + run queue + lifecycle flags
//! ├── worker 0 ─┐
//! ├── worker 1  ├── claim job → run cycle (catch_unwind) → transition
//! └── worker N ─┘
//! ```
//!
//! Every job owns a directory under the jobs root holding its manifest
//! (`job.json`), its write-ahead journal (`journal.wal` + snapshots),
//! and — once it reaches a state recovery must respect — a durable
//! marker (`state.json`) and the released table (`released.csv`).
//! Workers never share journal state: panic isolation is per worker
//! ([`std::panic::catch_unwind`]), and a panicking job is marked
//! `Failed` with the rendered payload while the supervisor keeps
//! scheduling.
//!
//! ## At-most-once effects
//!
//! A job's observable effect is the released table. It is produced only
//! by the `Done` transition, which writes `released.csv` atomically and
//! then the `done` marker atomically — so a crash between the two
//! leaves a journal that recovery simply resumes (replaying the
//! *already-committed* actions deterministically), and re-running a
//! recovered job can only converge to the byte-identical table it would
//! have released the first time. Retried attempts reuse the same
//! journal the same way: a failed attempt's torn tail is truncated at
//! the last commit horizon, and committed work is never redone.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use vadalog::backend::{write_atomic, DurableIo, FileIo, FileKind};
use vadalog::{Budget, CancelToken, StorageEngine};
use vadasa_core::cycle::{AnonymizationCycle, CycleError, CycleOutcome, CycleTermination};
use vadasa_core::faults::{faulty_io, FaultyRisk, IoFault, JOURNAL_KINDS};
use vadasa_core::io::write_csv;
use vadasa_core::journal::{JournalConfig, JOURNAL_FILE};
use vadasa_core::obs::metrics::MetricsRegistry;
use vadasa_core::prelude::{LocalSuppression, RiskMeasure};

use crate::backoff::{classify, jitter_seed, FaultClass, RetryPolicy};
use crate::spec::{JobSpec, Marker, MarkerSummary, SpecError, MANIFEST_FILE, RELEASED_FILE};
use crate::state::JobState;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root directory; each job lives in `<jobs_root>/<job-id>/`.
    pub jobs_root: PathBuf,
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Admission cap on jobs in flight (queued + running + retrying).
    pub queue_capacity: usize,
    /// Governor budget: `max_facts` bounds the *total rows* across all
    /// in-flight jobs (backpressure), `deadline` is the default per-job
    /// deadline for specs that don't set one.
    pub budget: Budget,
    /// Retry policy for transient faults.
    pub retry: RetryPolicy,
}

impl ServerConfig {
    /// Defaults: 2 workers, 32-job queue, unlimited budget.
    pub fn new(jobs_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            jobs_root: jobs_root.into(),
            workers: 2,
            queue_capacity: 32,
            budget: Budget::unlimited(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a submission was rejected. Admission checks run in exactly this
/// order; tests pin it.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A job with this id already exists (any state).
    DuplicateId(String),
    /// The in-flight job cap is reached; retry after jobs finish.
    Saturated {
        /// The configured cap.
        capacity: usize,
    },
    /// Admitting the job would exceed the row budget.
    BudgetExceeded {
        /// Rows currently in flight.
        in_flight_rows: usize,
        /// Rows this job would add.
        job_rows: usize,
        /// The configured cap ([`Budget::max_facts`]).
        max_rows: usize,
    },
    /// The job id or spec is invalid.
    Invalid(String),
    /// Creating the job directory or manifest failed.
    Io(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::DuplicateId(id) => write!(f, "job {id:?} already exists"),
            SubmitError::Saturated { capacity } => {
                write!(f, "queue saturated ({capacity} jobs in flight)")
            }
            SubmitError::BudgetExceeded {
                in_flight_rows,
                job_rows,
                max_rows,
            } => write!(
                f,
                "row budget exceeded: {in_flight_rows} in flight + {job_rows} new > {max_rows}"
            ),
            SubmitError::Invalid(m) => write!(f, "invalid submission: {m}"),
            SubmitError::Io(m) => write!(f, "job admission i/o: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Graceful shutdown modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, finish every queued and retrying job, join.
    Drain,
    /// Stop accepting, checkpoint-and-stop: running jobs are cancelled
    /// at the next iteration boundary and marked `Interrupted`
    /// (journals resumable); queued jobs are marked `Interrupted`
    /// without running. Fleet recovery resumes them all on restart.
    Stop,
}

/// A point-in-time view of one job, safe to hand across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id (= directory name under the jobs root).
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Full attempts so far (1 = first run).
    pub attempts: u32,
    /// Rows in the job's table.
    pub rows: usize,
    /// Structured error for failed jobs.
    pub error: Option<String>,
    /// Outcome summary for done jobs.
    pub summary: Option<MarkerSummary>,
    /// Live `cycle.iteration` gauge while running.
    pub iteration: Option<f64>,
    /// Live `cycle.rows_at_risk` gauge while running.
    pub rows_at_risk: Option<f64>,
    /// Live ETA confidence (`cycle.eta_confidence`) while running.
    pub eta_confidence: Option<f64>,
    /// Storage engine the job's spec declares for persisted warm
    /// artifacts (`mem` when the spec is unreadable).
    pub storage: StorageEngine,
}

/// What actually went wrong in one attempt (pre-classification).
#[derive(Debug)]
enum JobFailure {
    Spec(SpecError),
    Cycle(CycleError),
    Persist(std::io::Error),
    Panic(String),
}

impl JobFailure {
    fn class(&self) -> FaultClass {
        match self {
            // A released-table write can heal on retry: resume replays
            // the finished journal deterministically and re-persists.
            JobFailure::Persist(_) => FaultClass::Transient,
            JobFailure::Cycle(e) => classify(e),
            JobFailure::Spec(_) | JobFailure::Panic(_) => FaultClass::Permanent,
        }
    }

    fn render(&self) -> String {
        match self {
            JobFailure::Spec(e) => format!("spec: {e}"),
            JobFailure::Cycle(e) => format!("cycle: {e}"),
            JobFailure::Persist(e) => format!("persisting result: {e}"),
            JobFailure::Panic(m) => format!("worker panicked: {m}"),
        }
    }
}

struct JobEntry {
    spec: Option<Arc<JobSpec>>,
    rows: usize,
    state: JobState,
    attempts: u32,
    cancel: CancelToken,
    cancel_requested: bool,
    metrics: Arc<MetricsRegistry>,
    io: Option<Arc<dyn DurableIo>>,
    not_before: Option<Instant>,
    error: Option<String>,
    summary: Option<MarkerSummary>,
}

impl JobEntry {
    /// A job no attempt has run yet.
    fn new(spec: Option<Arc<JobSpec>>, rows: usize, state: JobState) -> Self {
        JobEntry {
            spec,
            rows,
            state,
            attempts: 0,
            cancel: CancelToken::new(),
            cancel_requested: false,
            metrics: Arc::new(MetricsRegistry::new()),
            io: None,
            not_before: None,
            error: None,
            summary: None,
        }
    }

    fn report(&self, id: &str) -> JobReport {
        let live = self.state == JobState::Running;
        JobReport {
            id: id.to_string(),
            state: self.state,
            attempts: self.attempts,
            rows: self.rows,
            error: self.error.clone(),
            summary: self.summary,
            iteration: live
                .then(|| self.metrics.gauge("cycle.iteration"))
                .flatten(),
            rows_at_risk: live
                .then(|| self.metrics.gauge("cycle.rows_at_risk"))
                .flatten(),
            eta_confidence: live
                .then(|| self.metrics.gauge("cycle.eta_confidence"))
                .flatten(),
            storage: self
                .spec
                .as_ref()
                .map(|s| s.storage)
                .unwrap_or(StorageEngine::Mem),
        }
    }
}

struct State {
    jobs: BTreeMap<String, JobEntry>,
    queue: VecDeque<String>,
    accepting: bool,
    stopping: bool,
    active: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here; signalled on enqueue and shutdown.
    work: Condvar,
    /// Waiters (`wait`, `wait_idle`) park here; signalled on any
    /// job transition.
    done: Condvar,
    cfg: ServerConfig,
    metrics: Arc<MetricsRegistry>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A worker that panicked while holding the lock has already been
        // contained by catch_unwind; the state itself is a plain table.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn refresh_gauges(&self, st: &State) {
        self.metrics
            .set_gauge("server.queued", st.queue.len() as f64);
        self.metrics.set_gauge("server.running", st.active as f64);
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.cfg.jobs_root.join(id)
    }
}

/// The supervised multi-job anonymization service.
///
/// See the [module docs](self) for the supervision model. Dropping the
/// server performs a [`ShutdownMode::Stop`] shutdown.
pub struct JobServer {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl JobServer {
    /// Start a server over `config.jobs_root`: create the root if
    /// missing, **recover the whole fleet** (every job directory with a
    /// manifest is re-registered; interrupted jobs are re-queued and
    /// resume from their journals), then spawn the worker pool.
    pub fn start(config: ServerConfig) -> std::io::Result<JobServer> {
        std::fs::create_dir_all(&config.jobs_root)?;
        let metrics = Arc::new(MetricsRegistry::new());
        let mut state = State {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            accepting: true,
            stopping: false,
            active: 0,
        };
        recover_fleet(&config.jobs_root, &mut state, &metrics)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            cfg: config,
            metrics,
        });
        shared.refresh_gauges(&shared.lock());
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vadasa-worker-{i}"))
                    .spawn(move || worker_loop(sh))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(JobServer {
            shared,
            workers: handles,
        })
    }

    /// The server-level metrics registry (`server.*` counters/gauges).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The jobs root this server supervises.
    pub fn jobs_root(&self) -> &Path {
        &self.shared.cfg.jobs_root
    }

    /// Submit a job. Admission checks run in a pinned order — a
    /// well-formed id, protection parameters that protect something
    /// ([`JobSpec::check`]), shutting-down, duplicate id, queue
    /// saturation, row budget — and
    /// the job is only visible to workers after its manifest is durably
    /// on disk (so a crash can never leave an accepted-but-unrecoverable
    /// job).
    pub fn submit(&self, id: &str, spec: JobSpec) -> Result<String, SubmitError> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            || id.starts_with('.')
        {
            return Err(SubmitError::Invalid(format!(
                "job id {id:?} must be non-empty [A-Za-z0-9._-] and not start with '.'"
            )));
        }
        spec.check().map_err(|e| SubmitError::Invalid(e.message))?;
        let rows = spec.row_count();
        let io = spec
            .fault
            .transient_appends
            .map(|n| faulty_io(IoFault::TransientAppends { failing: n }, JOURNAL_KINDS));
        {
            let mut st = self.shared.lock();
            if !st.accepting {
                self.shared.metrics.inc_counter("server.rejected", 1);
                return Err(SubmitError::ShuttingDown);
            }
            if st.jobs.contains_key(id) || self.shared.job_dir(id).join(MANIFEST_FILE).exists() {
                self.shared.metrics.inc_counter("server.rejected", 1);
                return Err(SubmitError::DuplicateId(id.to_string()));
            }
            let in_flight = st.jobs.values().filter(|j| j.state.in_flight()).count();
            if in_flight >= self.shared.cfg.queue_capacity {
                self.shared.metrics.inc_counter("server.rejected", 1);
                return Err(SubmitError::Saturated {
                    capacity: self.shared.cfg.queue_capacity,
                });
            }
            if let Some(max_rows) = self.shared.cfg.budget.max_facts {
                let in_flight_rows: usize = st
                    .jobs
                    .values()
                    .filter(|j| j.state.in_flight())
                    .map(|j| j.rows)
                    .sum();
                if in_flight_rows + rows > max_rows {
                    self.shared.metrics.inc_counter("server.rejected", 1);
                    return Err(SubmitError::BudgetExceeded {
                        in_flight_rows,
                        job_rows: rows,
                        max_rows,
                    });
                }
            }
            // Reserve the id (state Queued, but *not* yet in the run
            // queue) so concurrent submits can't double-admit while we
            // do I/O below.
            let entry = JobEntry {
                io,
                ..JobEntry::new(Some(Arc::new(spec.clone())), rows, JobState::Queued)
            };
            st.jobs.insert(id.to_string(), entry);
        }
        // Durable admission: directory + manifest before the job becomes
        // runnable.
        let dir = self.shared.job_dir(id);
        let manifest = spec.to_manifest_json();
        let persisted = std::fs::create_dir_all(&dir).and_then(|()| {
            write_atomic(
                &FileIo,
                FileKind::Artifact,
                &dir,
                MANIFEST_FILE,
                manifest.as_bytes(),
            )
        });
        let mut st = self.shared.lock();
        if let Err(e) = persisted {
            st.jobs.remove(id);
            self.shared.metrics.inc_counter("server.rejected", 1);
            return Err(SubmitError::Io(e.to_string()));
        }
        st.queue.push_back(id.to_string());
        self.shared.metrics.inc_counter("server.submitted", 1);
        self.shared.refresh_gauges(&st);
        drop(st);
        self.shared.work.notify_one();
        Ok(id.to_string())
    }

    /// Report one job, or `None` for an unknown id.
    pub fn status(&self, id: &str) -> Option<JobReport> {
        let st = self.shared.lock();
        st.jobs.get(id).map(|e| e.report(id))
    }

    /// Report every job, sorted by id.
    pub fn list(&self) -> Vec<JobReport> {
        let st = self.shared.lock();
        st.jobs.iter().map(|(id, e)| e.report(id)).collect()
    }

    /// Cancel a job. Queued/retrying jobs cancel immediately; a running
    /// job is cancelled cooperatively at its next iteration boundary.
    /// Returns `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: &str) -> bool {
        let mut st = self.shared.lock();
        let dir = self.shared.job_dir(id);
        let Some(entry) = st.jobs.get_mut(id) else {
            return false;
        };
        match entry.state {
            JobState::Queued | JobState::Retrying => {
                entry.cancel_requested = true;
                entry.state = JobState::Cancelled;
                entry.not_before = None;
                if let Err(e) = Marker::new(JobState::Cancelled, entry.attempts).write(&dir) {
                    entry.error = Some(format!("writing cancel marker: {e}"));
                }
                st.queue.retain(|q| q != id);
                self.shared
                    .metrics
                    .inc_counter(&format!("server.{}", JobState::Cancelled.name()), 1);
                self.shared.refresh_gauges(&st);
                drop(st);
                self.shared.done.notify_all();
                true
            }
            JobState::Running => {
                entry.cancel_requested = true;
                entry.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Block until the job reaches a terminal state (or `timeout`
    /// expires) and return its report; `None` for unknown ids.
    pub fn wait(&self, id: &str, timeout: Duration) -> Option<JobReport> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            let report = st.jobs.get(id)?.report(id);
            if report.state.is_terminal() {
                return Some(report);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(report);
            }
            let (g, _) = self
                .shared
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = g;
        }
    }

    /// Block until no job is queued, gated or running (or `timeout`
    /// expires). Returns `true` when idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if st.queue.is_empty() && st.active == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self
                .shared
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = g;
        }
    }

    /// Read a done job's released table (the canonical CSV written at
    /// the `Done` transition).
    pub fn result_csv(&self, id: &str) -> Option<String> {
        let done = {
            let st = self.shared.lock();
            st.jobs.get(id).map(|e| e.state) == Some(JobState::Done)
        };
        if !done {
            return None;
        }
        std::fs::read_to_string(self.shared.job_dir(id).join(RELEASED_FILE)).ok()
    }

    /// Shut the server down and join every worker. See [`ShutdownMode`].
    pub fn shutdown(mut self, mode: ShutdownMode) {
        self.shutdown_impl(mode);
    }

    fn shutdown_impl(&mut self, mode: ShutdownMode) {
        {
            let mut st = self.shared.lock();
            st.accepting = false;
            if mode == ShutdownMode::Stop {
                st.stopping = true;
                let queued: Vec<String> = st.queue.drain(..).collect();
                for id in queued {
                    let dir = self.shared.job_dir(&id);
                    if let Some(entry) = st.jobs.get_mut(&id) {
                        entry.state = JobState::Interrupted;
                        entry.not_before = None;
                        let marker = Marker::new(JobState::Interrupted, entry.attempts);
                        if let Err(e) = marker.write(&dir) {
                            entry.error = Some(format!("writing interrupt marker: {e}"));
                        }
                    }
                }
                for entry in st.jobs.values_mut() {
                    if entry.state == JobState::Running {
                        entry.cancel.cancel();
                    }
                }
            }
            self.shared.refresh_gauges(&st);
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl(ShutdownMode::Stop);
        }
    }
}

// --- fleet recovery --------------------------------------------------------

/// Sorted names of persisted storage artifacts (`*.vart`) in a job dir.
fn persisted_artifacts(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            let mut v: Vec<String> = entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().to_string())
                .filter(|n| n.ends_with(".vart"))
                .collect();
            v.sort();
            v
        })
        .unwrap_or_default()
}

/// A manifest that declares the in-memory backend must not preside over
/// persisted storage artifacts: that means the manifest was rewritten or
/// the directory belongs to a different configuration, and silently
/// resuming would ignore (or later clobber) warm state the operator
/// believed durable. Returns the structured refusal, if any.
fn backend_mismatch(spec: &JobSpec, dir: &Path) -> Option<String> {
    if spec.storage != StorageEngine::Mem {
        // File-backed manifests tolerate absent or stale artifacts: the
        // artifact is a cache, refused structurally at load time.
        return None;
    }
    let arts = persisted_artifacts(dir);
    if arts.is_empty() {
        None
    } else {
        Some(format!(
            "storage backend mismatch: manifest declares {:?} but the job \
             directory holds persisted artifacts [{}]",
            spec.storage.as_str(),
            arts.join(", ")
        ))
    }
}

/// Scan the jobs root and re-register every job directory. Terminal
/// markers are honoured verbatim; everything else (interrupted marker,
/// or no marker at all — i.e. the previous process died mid-flight) is
/// re-queued and will resume from its journal.
fn recover_fleet(
    root: &Path,
    state: &mut State,
    metrics: &Arc<MetricsRegistry>,
) -> std::io::Result<()> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join(MANIFEST_FILE).is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| e.to_string())
            .and_then(|text| JobSpec::from_manifest_json(&text).map_err(|e| e.to_string()));
        let mut entry = match &manifest {
            Ok(spec) => JobEntry::new(
                Some(Arc::new(spec.clone())),
                spec.row_count(),
                JobState::Failed,
            ),
            Err(e) => JobEntry {
                error: Some(format!("unreadable manifest: {e}")),
                ..JobEntry::new(None, 0, JobState::Failed)
            },
        };
        let mismatch = manifest
            .as_ref()
            .ok()
            .and_then(|spec| backend_mismatch(spec, &dir));
        let mut enqueue = false;
        match Marker::read(&dir) {
            Some(m) if m.state != JobState::Interrupted => {
                // done / failed / cancelled, an unreadable marker read as
                // failed included — honour verbatim.
                entry.state = m.state;
                entry.attempts = m.attempts as u32;
                entry.error = m.error.or(entry.error);
                entry.summary = m.summary;
            }
            _ => {
                // Interrupted marker or none at all.
                if entry.spec.is_some() && mismatch.is_none() {
                    entry.state = JobState::Queued;
                    enqueue = true;
                } else {
                    // Manifest unreadable, or its declared storage
                    // backend contradicts the on-disk artifacts:
                    // structured terminal failure, never a resume.
                    if let Some(m) = mismatch {
                        entry.error = Some(m);
                    }
                    let marker = Marker {
                        error: entry.error.clone(),
                        ..Marker::new(JobState::Failed, 0)
                    };
                    let _ = marker.write(&dir);
                }
            }
        }
        if enqueue {
            state.queue.push_back(id.clone());
            metrics.inc_counter("server.recovered", 1);
        }
        state.jobs.insert(id, entry);
    }
    Ok(())
}

// --- the worker loop -------------------------------------------------------

enum Next {
    Run(String),
    Exit,
}

fn claim<'a>(shared: &'a Shared, mut st: MutexGuard<'a, State>) -> (Next, MutexGuard<'a, State>) {
    loop {
        if st.stopping && st.queue.is_empty() {
            return (Next::Exit, st);
        }
        let now = Instant::now();
        let runnable = st.queue.iter().position(|id| {
            st.jobs
                .get(id)
                .is_none_or(|j| j.not_before.is_none_or(|t| t <= now))
        });
        if let Some(pos) = runnable {
            if let Some(id) = st.queue.remove(pos) {
                st.active += 1;
                shared.refresh_gauges(&st);
                return (Next::Run(id), st);
            }
            continue;
        }
        if st.queue.is_empty() && !st.accepting && st.active == 0 {
            // Drain complete: nothing queued, nothing running that could
            // re-queue itself.
            return (Next::Exit, st);
        }
        // Park until new work, a shutdown signal, or the earliest
        // backoff gate opens.
        let earliest = st
            .queue
            .iter()
            .filter_map(|id| st.jobs.get(id).and_then(|j| j.not_before))
            .min();
        st = match earliest {
            Some(t) => {
                let wait = t
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                shared
                    .work
                    .wait_timeout(st, wait)
                    .unwrap_or_else(|p| p.into_inner())
                    .0
            }
            None => shared.work.wait(st).unwrap_or_else(|p| p.into_inner()),
        };
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let next = {
            let st = shared.lock();
            let (next, st) = claim(&shared, st);
            drop(st);
            next
        };
        match next {
            Next::Exit => {
                // Wake siblings so they re-check the exit condition.
                shared.work.notify_all();
                shared.done.notify_all();
                return;
            }
            Next::Run(id) => run_one(&shared, &id),
        }
    }
}

/// Execute one attempt of one job end-to-end and apply the resulting
/// state transition.
fn run_one(shared: &Shared, id: &str) {
    let dir = shared.job_dir(id);
    let claimed = {
        let mut st = shared.lock();
        let claimed = match st.jobs.get_mut(id) {
            Some(entry) => {
                entry.state = JobState::Running;
                entry.attempts += 1;
                entry.not_before = None;
                Some((
                    entry.spec.clone(),
                    entry.cancel.clone(),
                    Arc::clone(&entry.metrics),
                    entry.io.clone(),
                    entry.attempts,
                ))
            }
            None => None,
        };
        shared.refresh_gauges(&st);
        claimed
    };
    let Some((spec, cancel, metrics, io, attempts)) = claimed else {
        let mut st = shared.lock();
        st.active = st.active.saturating_sub(1);
        shared.refresh_gauges(&st);
        drop(st);
        shared.done.notify_all();
        return;
    };
    let result: Result<CycleOutcome, JobFailure> = match spec {
        None => Err(JobFailure::Spec(SpecError {
            message: "job has no readable manifest".into(),
        })),
        Some(spec) => {
            if let Some(d) = spec.fault.delay_start {
                thread::sleep(d);
            }
            let default_deadline = shared.cfg.budget.deadline;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if spec.fault.panic_on_attempt == Some(attempts) {
                    // Contained by the surrounding catch_unwind.
                    panic!("injected worker panic (attempt {attempts})"); // gate-allow: injected fault
                }
                execute(&spec, &dir, &cancel, &metrics, &io, default_deadline)
            }));
            match caught {
                Ok(r) => r,
                Err(payload) => {
                    shared.metrics.inc_counter("server.panics", 1);
                    Err(JobFailure::Panic(render_panic(payload.as_ref())))
                }
            }
        }
    };
    transition(shared, id, &dir, result);
}

fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One attempt: rebuild the table/dictionary from the manifest, attach
/// the journal, run or resume the cycle.
fn execute(
    spec: &JobSpec,
    dir: &Path,
    cancel: &CancelToken,
    metrics: &Arc<MetricsRegistry>,
    io: &Option<Arc<dyn DurableIo>>,
    default_deadline: Option<Duration>,
) -> Result<CycleOutcome, JobFailure> {
    let db = spec.table().map_err(JobFailure::Spec)?;
    let dict = spec.dictionary().map_err(JobFailure::Spec)?;
    let measure = spec.measure.build();
    let anonymizer = LocalSuppression::default();
    let mut config = spec.cycle_config();
    if config.deadline.is_none() {
        config.deadline = default_deadline;
    }
    let mut jcfg = JournalConfig::new(dir);
    jcfg.sync = spec.sync;
    jcfg.snapshot_every = spec.snapshot_every;
    if let Some(io) = io {
        jcfg.io = Arc::clone(io);
    }
    config.journal = Some(jcfg);
    let resume = dir.join(JOURNAL_FILE).is_file();
    let run = |risk: &dyn RiskMeasure| {
        let cycle = AnonymizationCycle::new(risk, &anonymizer, config.clone())
            .with_cancel(cancel.clone())
            .with_metrics(Arc::clone(metrics));
        if resume {
            cycle.resume(&db, &dict)
        } else {
            cycle.run(&db, &dict)
        }
    };
    let outcome = match spec.fault.risk_panic_at_eval {
        Some(n) => {
            let faulty = FaultyRisk::new(measure.as_ref()).panic_at(n);
            run(&faulty)
        }
        None => run(measure.as_ref()),
    };
    outcome.map_err(JobFailure::Cycle)
}

/// Apply the post-attempt transition: Done / Failed / Cancelled /
/// Interrupted / Retrying, with durable markers for every state fleet
/// recovery must respect.
fn transition(shared: &Shared, id: &str, dir: &Path, result: Result<CycleOutcome, JobFailure>) {
    // Decide first (flags under lock), persist outside the lock, then
    // finalize.
    let (cancel_requested, stopping, attempts) = {
        let st = shared.lock();
        match st.jobs.get(id) {
            Some(e) => (e.cancel_requested, st.stopping, e.attempts),
            None => (false, st.stopping, 1),
        }
    };
    let result = match result {
        Ok(outcome) if !cancel_requested && !stopping => {
            let summary = MarkerSummary {
                converged: matches!(outcome.termination, CycleTermination::Converged),
                iterations: outcome.iterations as u64,
                nulls_injected: outcome.nulls_injected as u64,
                recodings: outcome.recodings as u64,
                final_risky: outcome.final_risky as u64,
                information_loss: outcome.information_loss,
            };
            let marker = Marker {
                summary: Some(summary),
                ..Marker::new(JobState::Done, attempts)
            };
            // released.csv first, marker second: a crash in between
            // resumes the journal and re-releases identically.
            let released = write_csv(&outcome.db);
            match write_atomic(
                &FileIo,
                FileKind::Artifact,
                dir,
                RELEASED_FILE,
                released.as_bytes(),
            )
            .and_then(|()| marker.write(dir))
            {
                Ok(()) => Ok((JobState::Done, None, Some(summary))),
                Err(e) => Err(JobFailure::Persist(e)),
            }
        }
        Ok(_) => {
            // Cancelled, or a checkpoint-and-stop shutdown caught this job
            // mid-flight: the journal stays resumable.
            let (state, what) = if cancel_requested {
                (JobState::Cancelled, "cancel")
            } else {
                (JobState::Interrupted, "interrupt")
            };
            let error = Marker::new(state, attempts).write(dir).err();
            Ok((
                state,
                error.map(|e| format!("writing {what} marker: {e}")),
                None,
            ))
        }
        Err(f) => Err(f),
    };
    match result {
        Ok((state, error, summary)) => {
            let mut st = shared.lock();
            if let Some(entry) = st.jobs.get_mut(id) {
                entry.state = state;
                entry.error = error.or(entry.error.take());
                entry.summary = summary.or(entry.summary);
            }
            st.active = st.active.saturating_sub(1);
            // done, cancelled or interrupted
            shared
                .metrics
                .inc_counter(&format!("server.{}", state.name()), 1);
            shared.refresh_gauges(&st);
            drop(st);
            shared.done.notify_all();
            shared.work.notify_all();
        }
        Err(failure) => {
            let transient = failure.class() == FaultClass::Transient;
            let retry_allowed =
                transient && !cancel_requested && !stopping && shared.cfg.retry.allows(attempts);
            if retry_allowed {
                let delay = shared.cfg.retry.delay(attempts, jitter_seed(id));
                let mut st = shared.lock();
                if let Some(entry) = st.jobs.get_mut(id) {
                    entry.state = JobState::Retrying;
                    entry.not_before = Some(Instant::now() + delay);
                    entry.error = Some(failure.render());
                }
                st.queue.push_back(id.to_string());
                st.active = st.active.saturating_sub(1);
                shared.metrics.inc_counter("server.retried", 1);
                shared.refresh_gauges(&st);
                drop(st);
                shared.done.notify_all();
                shared.work.notify_all();
            } else {
                let target = if cancel_requested {
                    JobState::Cancelled
                } else {
                    JobState::Failed
                };
                let marker = Marker {
                    error: Some(failure.render()),
                    ..Marker::new(target, attempts)
                };
                let marker_err = marker.write(dir).err();
                let mut st = shared.lock();
                if let Some(entry) = st.jobs.get_mut(id) {
                    entry.state = target;
                    entry.error = Some(match marker_err {
                        Some(e) => format!("{} (and writing marker failed: {e})", failure.render()),
                        None => failure.render(),
                    });
                }
                st.active = st.active.saturating_sub(1);
                shared
                    .metrics
                    .inc_counter(&format!("server.{}", target.name()), 1);
                shared.refresh_gauges(&st);
                drop(st);
                shared.done.notify_all();
                shared.work.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MeasureSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vadasa_core::faults::ServerFault;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn fresh_root(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("vadasa-server-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        JobSpec::from_csv(
            "survey",
            "id,area,weight\n1,North,9\n2,North,2\n3,South,5\n4,South,1\n",
            MeasureSpec::KAnonymity(2),
        )
        .expect("tiny spec")
    }

    #[test]
    fn runs_one_job_to_done_and_releases_csv() {
        let root = fresh_root("one");
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        server.submit("j1", tiny_spec()).expect("submit");
        let report = server.wait("j1", Duration::from_secs(30)).expect("known");
        assert_eq!(report.state, JobState::Done, "error: {:?}", report.error);
        let summary = report.summary.expect("summary");
        assert!(summary.converged);
        let csv = server.result_csv("j1").expect("released csv");
        assert!(csv.starts_with("id,area,weight"));
        assert!(root.join("j1").join("state.json").is_file());
        assert_eq!(server.metrics().counter("server.done"), 1);
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn admission_rejections_follow_the_pinned_order() {
        let root = fresh_root("admission");
        let mut cfg = ServerConfig::new(&root);
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        cfg.budget.max_facts = Some(8);
        // Freeze the worker so in-flight state is predictable.
        let server = JobServer::start(cfg).expect("start");
        let mut slow = tiny_spec();
        slow.fault = ServerFault::none().delay_start(Duration::from_millis(300));
        server.submit("a", slow.clone()).expect("a admitted");
        server.submit("b", tiny_spec()).expect("b admitted");
        // duplicate beats saturation: "a" again while full.
        assert!(matches!(
            server.submit("a", tiny_spec()),
            Err(SubmitError::DuplicateId(_))
        ));
        assert!(matches!(
            server.submit("c", tiny_spec()),
            Err(SubmitError::Saturated { capacity: 2 })
        ));
        // Drain, then budget: 4 rows in flight would exceed nothing, but
        // capacity 2 is freed first.
        assert!(server.wait_idle(Duration::from_secs(30)));
        let mut big = tiny_spec();
        big.csv
            .push_str("5,West,3\n6,West,4\n7,East,2\n8,East,1\n9,East,6\n");
        assert!(matches!(
            server.submit("d", big),
            Err(SubmitError::BudgetExceeded {
                job_rows: 9,
                max_rows: 8,
                ..
            })
        ));
        assert!(matches!(
            server.submit("bad/id", tiny_spec()),
            Err(SubmitError::Invalid(_))
        ));
        assert_eq!(server.metrics().counter("server.rejected"), 3);
        server.shutdown(ShutdownMode::Drain);
        // After shutdown a new server on the root still refuses dup ids
        // because the manifest is on disk.
        let server2 = JobServer::start(ServerConfig::new(&root)).expect("restart");
        assert!(matches!(
            server2.submit("a", tiny_spec()),
            Err(SubmitError::DuplicateId(_))
        ));
        server2.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn worker_panic_is_isolated_and_marked_failed() {
        let root = fresh_root("panic");
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let mut spec = tiny_spec();
        spec.fault = ServerFault::none().panic_on_attempt(1);
        server.submit("boom", spec).expect("submit");
        server.submit("ok", tiny_spec()).expect("submit ok");
        let boom = server.wait("boom", Duration::from_secs(30)).expect("boom");
        assert_eq!(boom.state, JobState::Failed);
        assert!(boom.error.as_deref().is_some_and(|e| e.contains("panic")));
        // The supervisor survived and finished the healthy job.
        let ok = server.wait("ok", Duration::from_secs(30)).expect("ok");
        assert_eq!(ok.state, JobState::Done);
        assert_eq!(server.metrics().counter("server.panics"), 1);
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn transient_journal_fault_retries_and_converges() {
        let root = fresh_root("retry");
        let mut cfg = ServerConfig::new(&root);
        cfg.retry.base = Duration::from_millis(5);
        cfg.retry.jitter = 0.0;
        let server = JobServer::start(cfg).expect("start");
        let mut spec = tiny_spec();
        // The first two appends fail — one per attempt, because the
        // fault state is shared across attempts' reopened sinks — so the
        // job needs exactly two retries before the journal heals.
        spec.fault = ServerFault::none().transient_appends(2);
        server.submit("flaky", spec).expect("submit");
        let report = server
            .wait("flaky", Duration::from_secs(30))
            .expect("flaky");
        assert_eq!(report.state, JobState::Done, "error: {:?}", report.error);
        assert_eq!(report.attempts, 3, "exactly two retries");
        assert_eq!(server.metrics().counter("server.retried"), 2);
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn permanent_faults_fail_fast_without_retry() {
        let root = fresh_root("permanent");
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        // Corrupt journal header under a valid manifest → Mismatch/Corrupt
        // on resume, which must not retry.
        let dir = root.join("rotten");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = tiny_spec();
        std::fs::write(dir.join(MANIFEST_FILE), spec.to_manifest_json()).expect("manifest");
        std::fs::write(dir.join("journal.wal"), b"NOTAJOURNAL_____").expect("bad journal");
        drop(server);
        let server = JobServer::start(ServerConfig::new(&root)).expect("restart");
        let report = server
            .wait("rotten", Duration::from_secs(30))
            .expect("known");
        assert_eq!(report.state, JobState::Failed);
        assert_eq!(report.attempts, 1, "permanent fault must not retry");
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn parameters_that_protect_nothing_are_refused_at_admission_and_recovery() {
        let root = fresh_root("unsafe");
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let (mut nan, mut k0, mut msu0) = (tiny_spec(), tiny_spec(), tiny_spec());
        nan.threshold = f64::NAN;
        k0.measure = MeasureSpec::KAnonymity(0);
        msu0.measure = MeasureSpec::Suda(0);
        for (spec, reason) in [
            (nan, "threshold must be a finite number in [0, 1], got NaN"),
            (k0, "k must be a whole number ≥ 1, got 0"),
            (msu0, "msu must be a whole number ≥ 1, got 0"),
        ] {
            let refusal = server.submit("unsafe", spec);
            assert_eq!(refusal, Err(SubmitError::Invalid(reason.into())));
        }
        assert!(!root.join("unsafe").exists(), "nothing written");
        server.shutdown(ShutdownMode::Drain);
        // Manifests written before the refusal existed fail on recovery,
        // carrying the message, and release nothing.
        let manifest = tiny_spec().to_manifest_json();
        for (id, from, to) in [
            ("inf", "\"threshold\":0.5", "\"threshold\":1e999"),
            ("k2.5", "\"k\":2", "\"k\":2.5"),
        ] {
            let dir = root.join(id);
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(MANIFEST_FILE), manifest.replace(from, to)).expect("manifest");
        }
        let server = JobServer::start(ServerConfig::new(&root)).expect("restart");
        for (id, reason) in [
            ("inf", "got inf"),
            ("k2.5", "k must be a whole number ≥ 1, got 2.5"),
        ] {
            let report = server.wait(id, Duration::from_secs(30)).expect("known");
            assert_eq!(
                (report.state, report.attempts),
                (JobState::Failed, 0),
                "{id}"
            );
            let err = report.error.unwrap_or_default();
            assert!(
                err.starts_with("unreadable manifest") && err.contains(reason),
                "{err}"
            );
            assert!(
                !root.join(id).join(RELEASED_FILE).exists(),
                "{id}: released"
            );
        }
        assert_eq!(server.metrics().counter("server.recovered"), 0);
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn recovery_refuses_backend_mismatched_manifests() {
        let root = fresh_root("mismatch");
        // A job dir whose manifest pins the in-memory backend but which
        // holds persisted storage artifacts: recovery must refuse it
        // with a structured error, never enqueue it.
        let dir = root.join("twisted");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = tiny_spec();
        assert_eq!(spec.storage, StorageEngine::Mem);
        std::fs::write(dir.join(MANIFEST_FILE), spec.to_manifest_json()).expect("manifest");
        std::fs::write(dir.join("cycle.warmstats.vart"), b"whatever").expect("artifact");
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let report = server
            .wait("twisted", Duration::from_secs(30))
            .expect("known");
        assert_eq!(report.state, JobState::Failed);
        assert_eq!(report.attempts, 0, "never attempted");
        let err = report.error.expect("structured error");
        assert!(
            err.contains("storage backend mismatch") && err.contains("cycle.warmstats.vart"),
            "error: {err}"
        );
        assert_eq!(server.metrics().counter("server.recovered"), 0);
        server.shutdown(ShutdownMode::Drain);
        // The refusal is durable: a second restart honours the marker.
        let server = JobServer::start(ServerConfig::new(&root)).expect("restart");
        let report = server
            .wait("twisted", Duration::from_secs(30))
            .expect("known");
        assert_eq!(report.state, JobState::Failed);
        // A file-backed manifest over the same artifacts is legitimate:
        // the artifact is a cache, vetted structurally at load time.
        let dir2 = root.join("filed");
        std::fs::create_dir_all(&dir2).expect("mkdir");
        let mut spec2 = tiny_spec();
        spec2.storage = StorageEngine::File;
        std::fs::write(dir2.join(MANIFEST_FILE), spec2.to_manifest_json()).expect("manifest");
        std::fs::write(dir2.join("cycle.warmstats.vart"), b"whatever").expect("artifact");
        server.shutdown(ShutdownMode::Drain);
        let server = JobServer::start(ServerConfig::new(&root)).expect("restart 2");
        let report = server
            .wait("filed", Duration::from_secs(30))
            .expect("known");
        assert_eq!(report.state, JobState::Done, "error: {:?}", report.error);
        assert_eq!(report.storage, StorageEngine::File);
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stop_shutdown_interrupts_and_restart_resumes() {
        let root = fresh_root("stop");
        let mut cfg = ServerConfig::new(&root);
        cfg.workers = 1;
        let server = JobServer::start(cfg).expect("start");
        let mut slow = tiny_spec();
        slow.fault = ServerFault::none().delay_start(Duration::from_millis(200));
        server.submit("running", slow).expect("submit running");
        server.submit("queued", tiny_spec()).expect("submit queued");
        // Give the worker time to claim "running".
        thread::sleep(Duration::from_millis(50));
        server.shutdown(ShutdownMode::Stop);
        let server = JobServer::start(ServerConfig::new(&root)).expect("restart");
        assert!(server.metrics().counter("server.recovered") >= 1);
        for id in ["running", "queued"] {
            let report = server.wait(id, Duration::from_secs(30)).expect("known");
            assert_eq!(report.state, JobState::Done, "{id}: {:?}", report.error);
        }
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cancel_queued_and_running_jobs() {
        let root = fresh_root("cancel");
        let mut cfg = ServerConfig::new(&root);
        cfg.workers = 1;
        let server = JobServer::start(cfg).expect("start");
        let mut slow = tiny_spec();
        slow.fault = ServerFault::none().delay_start(Duration::from_millis(150));
        server.submit("r", slow).expect("submit r");
        server.submit("q", tiny_spec()).expect("submit q");
        thread::sleep(Duration::from_millis(50));
        assert!(server.cancel("q"), "queued job cancels immediately");
        assert!(server.cancel("r"), "running job cancels cooperatively");
        assert!(!server.cancel("nope"), "unknown id");
        let q = server.wait("q", Duration::from_secs(10)).expect("q");
        assert_eq!(q.state, JobState::Cancelled);
        let r = server.wait("r", Duration::from_secs(30)).expect("r");
        assert_eq!(r.state, JobState::Cancelled);
        assert!(!server.cancel("q"), "terminal jobs don't re-cancel");
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }
}
