//! The anonymization cycle (paper §4.1, Algorithms 2 and 9).
//!
//! Risk evaluation and anonymization alternate until every tuple's
//! disclosure risk is at or below the threshold `T`:
//!
//! ```text
//! Tuple(M, I, VSet), #risk(I, R), R > T → #anonymize(I)
//! Tuple(M, I, VSet), #risk(I, R), R ≤ T → TupleA(M, I, VSet)
//! ```
//!
//! Both `risk` and `anonymize` are *polymorphic* plug-ins: any
//! [`RiskMeasure`] and any [`Anonymizer`] can be combined. Each iteration
//! applies one minimal anonymization step per violating tuple and
//! re-evaluates, so the cycle is preemptive (risk is scored before
//! sharing), active (it rewrites the data only when the threshold is
//! violated) and statistics-preserving (it stops as soon as the threshold
//! holds). Every decision lands in the [`AuditLog`] for full
//! explainability.

use crate::anonymize::{AnonymizationAction, AnonymizeError, Anonymizer};
use crate::checkpoint::Checkpoint;
use crate::colstore::{self, WARM_STATS_ARTIFACT};
use crate::degrade::{self, DegradeTrigger, FallbackPolicy, FallbackRecord};
use crate::dictionary::MetadataDictionary;
use crate::explain::{AuditLog, Decision};
use crate::journal::record::JournalRecord;
use crate::journal::{self, JournalConfig, JournalError, JournalProfile, JournalWriter};
use crate::maybe_match::{weights_exactly_summable, GroupStats, NullSemantics};
use crate::metrics::information_loss;
use crate::model::MicrodataDb;
use crate::progress::{self, ProgressEstimate};
use crate::risk::{MicrodataView, RiskError, RiskMeasure, RiskReport, TupleRiskDetail};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::backend::{ArtifactIo, FileBackend, StorageBackend, StorageEngine};
use vadalog::CancelToken;
use vadasa_obs::metrics::MetricsRegistry;
use vadasa_obs::{fields, next_span_id, Collector, Obs};

/// Which violating tuples to anonymize first (paper §4.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TupleOrder {
    /// "Less significant first": ascending sampling weight, so the cycle
    /// spends information loss on tuples that matter least statistically.
    #[default]
    LessSignificantFirst,
    /// "Most risky first": descending risk score.
    MostRiskyFirst,
    /// Row order (no heuristic) — the ablation baseline.
    Fifo,
}

/// How much work one cycle iteration performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StepGranularity {
    /// One anonymization step for *every* violating tuple, then re-evaluate.
    /// Converges in few iterations; the default for large tables.
    #[default]
    AllRiskyPerIteration,
    /// One step for the single highest-priority tuple, then re-evaluate.
    /// Maximally greedy (closest to the paper's per-binding activation):
    /// each step sees the effect of the previous one, at the price of one
    /// risk evaluation per step.
    OneTuplePerIteration,
}

/// How many equivalence classes one batched iteration anonymizes (the
/// million-row heuristic). With batching on, the cycle hands the
/// anonymizer *all* rows of the selected classes in one iteration and
/// recomputes group statistics once afterwards — one `O(n)` regroup per
/// iteration instead of one `O(n)` statistics repair per row.
///
/// Suppressing one member of an exact equivalence class never changes its
/// siblings' match sets (the suppressed row still maybe-matches its old
/// class), so whole-class batching skips no within-class defusal; only
/// cross-class defusal inside one batch is conceded, which can at worst
/// over-suppress — never end less safe than the one-tuple path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// One row per iteration — the naive baseline the scale benchmark
    /// compares against (equivalent to
    /// [`StepGranularity::OneTuplePerIteration`] with per-row rechecks).
    OneTuple,
    /// All rows of the single highest-priority equivalence class.
    PerClass,
    /// All rows of the `n` highest-priority equivalence classes
    /// (`TopN(1)` ≡ [`BatchStrategy::PerClass`]).
    TopN(usize),
}

/// Storage backend selection for the cycle's persisted warm artifacts.
///
/// With the default in-memory engine the cycle behaves exactly as before:
/// nothing but the journal (when configured) touches disk. Selecting
/// [`StorageEngine::File`] additionally persists the warm-start
/// equivalence-group statistics beside the journal at every snapshot
/// boundary, so [`AnonymizationCycle::resume`] can re-seed its warm state
/// from disk instead of regrouping cold. The artifact is strictly a
/// *cache*: any load failure — missing, torn, corrupt, alien magic,
/// future version, stale iteration count — is discarded and the first
/// evaluation regroups from the recovered table, converging to the
/// bit-identical result.
#[derive(Clone, Default)]
pub struct StorageOptions {
    /// Which storage engine backs persisted warm artifacts.
    pub engine: StorageEngine,
    /// Artifact byte-I/O override for fault injection (see
    /// [`crate::faults::faulty_artifact_io`]); `None` uses real files.
    /// Ignored under the in-memory engine.
    pub artifact_io: Option<Arc<dyn ArtifactIo>>,
}

impl fmt::Debug for StorageOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageOptions")
            .field("engine", &self.engine)
            .field(
                "artifact_io",
                &self.artifact_io.as_ref().map(|_| "<injected>"),
            )
            .finish()
    }
}

/// Cycle configuration.
#[derive(Debug, Clone)]
pub struct CycleConfig {
    /// Risk threshold `T ∈ [0, 1]` (Algorithm 2).
    pub threshold: f64,
    /// Tuple prioritization heuristic.
    pub tuple_order: TupleOrder,
    /// Iteration granularity.
    pub granularity: StepGranularity,
    /// Null semantics used for risk-group formation.
    pub semantics: NullSemantics,
    /// Hard cap on cycle iterations.
    pub max_iterations: usize,
    /// Record the audit trail (cheap; on by default).
    pub audit: bool,
    /// Optional wall-clock deadline for the whole run, checked between
    /// iterations. On expiry the cycle reacts per [`CycleConfig::fallback`].
    pub deadline: Option<Duration>,
    /// What to do when the cycle cannot converge normally (iteration cap,
    /// deadline, cancellation, plug-in panic). The default degrades
    /// gracefully via [`degrade::suppress_all_risky`].
    pub fallback: FallbackPolicy,
    /// Warm-start incremental re-evaluation (on by default). The
    /// [`MicrodataView`] is built once and patched across iterations, and
    /// risk evaluation is served from incrementally maintained
    /// equivalence-group statistics whenever the measure supports
    /// [`RiskMeasure::report_from_groups`] and the weights are exactly
    /// summable. `false` restores the cold per-iteration rebuild — the
    /// equivalence baseline and the benchmark reference point.
    pub warm_start: bool,
    /// Crash-safe persistence: when set, every committed action is
    /// journaled and the working state is periodically snapshotted, so an
    /// interrupted run can continue via [`AnonymizationCycle::resume`] —
    /// bit-identically to a run that was never interrupted. `None` (the
    /// default) keeps the cycle purely in-memory.
    pub journal: Option<JournalConfig>,
    /// Batched heuristic (§4.4 at scale): `None` (the default) keeps the
    /// legacy per-tuple behaviour byte-for-byte; `Some` selects how many
    /// equivalence classes each iteration anonymizes at once.
    pub batch: Option<BatchStrategy>,
    /// Worker threads for partitioned risk evaluation (group-stats
    /// regrouping and per-row scoring). `1` keeps everything sequential;
    /// more threads shard the row space and merge deterministically, so
    /// any thread count yields bitwise-identical reports.
    pub risk_threads: usize,
    /// Storage backend for persisted warm artifacts (see
    /// [`StorageOptions`]). The default in-memory engine keeps legacy
    /// behaviour byte-for-byte; the file engine persists warm group
    /// statistics beside the journal so resumed runs re-warm from disk.
    /// Deliberately excluded from the journal fingerprint: the backend
    /// choice affects where caches live, never what the cycle computes.
    pub storage: StorageOptions,
}

impl Default for CycleConfig {
    fn default() -> Self {
        CycleConfig {
            threshold: 0.5,
            tuple_order: TupleOrder::default(),
            granularity: StepGranularity::default(),
            semantics: NullSemantics::MaybeMatch,
            max_iterations: 10_000,
            audit: true,
            deadline: None,
            fallback: FallbackPolicy::default(),
            warm_start: true,
            journal: None,
            batch: None,
            risk_threads: 1,
            storage: StorageOptions::default(),
        }
    }
}

/// One observed iteration of the cycle: the risk landscape the iteration
/// saw, what the heuristic decided, and what the anonymizer did about it.
#[derive(Debug, Clone, Default)]
pub struct IterationRecord {
    /// Iteration ordinal (0-based). The final, converged evaluation is
    /// also recorded (with `targets == 0`), so a converging run produces
    /// `CycleOutcome::iterations + 1` records.
    pub iteration: usize,
    /// Tuples above the threshold (excluding already-exhausted tuples).
    pub risky: usize,
    /// Tuples the anonymizer has given up on so far.
    pub exhausted: usize,
    /// Minimum per-tuple risk over the whole table.
    pub min_risk: f64,
    /// Mean per-tuple risk over the whole table.
    pub mean_risk: f64,
    /// Maximum per-tuple risk over the whole table.
    pub max_risk: f64,
    /// The heuristic decision taken, e.g.
    /// `less-significant-first/all-risky → row 5`.
    pub heuristic: String,
    /// Rows handed to the anonymizer this iteration (after granularity
    /// truncation; some may be skipped by the incremental recheck).
    pub targets: usize,
    /// Suppression steps applied this iteration.
    pub suppressions: usize,
    /// Global recodings applied this iteration.
    pub recodings: usize,
    /// Wall-clock nanoseconds inside risk evaluation this iteration.
    pub risk_eval_ns: u64,
    /// Wall-clock nanoseconds of the whole iteration.
    pub dur_ns: u64,
}

/// Warm-start telemetry: how much work the incremental path saved (and
/// how often it had to give up). All counters stay zero when
/// [`CycleConfig::warm_start`] is off, so cold runs emit exactly what they
/// did before. When an engine session drives the risk program, its
/// [`vadalog::SessionStats`] can be folded in via
/// [`WarmCycleProfile::absorb_engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmCycleProfile {
    /// Risk evaluations served from incrementally patched group statistics.
    pub warm_evals: u64,
    /// Risk evaluations that regrouped the table from scratch (the first
    /// evaluation of a run always does).
    pub cold_evals: u64,
    /// View rows patched in place instead of rebuilding the view.
    pub patched_facts: u64,
    /// Engine strata skipped by warm re-derivation (engine-backed runs).
    pub strata_skipped: u64,
    /// Times the warm path fell back to a cold evaluation (unsupported
    /// measure, inexact weights, or an engine-side fallback).
    pub fallback_to_cold: u64,
    /// Estimated bytes of retained state (view + group statistics, or
    /// engine hash indexes) reused instead of rebuilt, summed over warm
    /// evaluations.
    pub reused_index_bytes: u64,
    /// Warm seeds restored from a persisted on-disk artifact instead of a
    /// cold regroup (file-backed resumed runs only). Not persisted in
    /// checkpoints: it describes this process's runs, not the journal's.
    pub disk_restores: u64,
    /// Warm-artifact persist attempts that failed. Non-fatal — the run
    /// continues unchanged; only a later resume loses its disk warm seed.
    pub persist_errors: u64,
}

impl WarmCycleProfile {
    /// Fold an engine session's warm-start statistics into this profile,
    /// bridging `engine.warm.*` into the `cycle.warm.*` counters.
    pub fn absorb_engine(&mut self, stats: &vadalog::SessionStats) {
        self.patched_facts += stats.patched_facts;
        self.strata_skipped += stats.strata_skipped;
        self.reused_index_bytes += stats.reused_index_bytes;
        self.fallback_to_cold += stats.cold_fallbacks;
        self.warm_evals += stats.warm_patches;
    }
}

/// Telemetry profile of one cycle run: per-iteration records plus totals.
#[derive(Debug, Clone, Default)]
pub struct CycleProfile {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Total wall-clock nanoseconds inside risk evaluation.
    pub risk_eval_ns: u64,
    /// Total wall-clock nanoseconds of the run.
    pub total_ns: u64,
    /// The degradation event, when the run fell back to
    /// [`degrade::suppress_all_risky`] — a first-class part of the
    /// profile, replayed to collectors as a `cycle.fallback` event.
    pub fallback: Option<FallbackRecord>,
    /// Warm-start counters (all zero on cold runs).
    pub warm: WarmCycleProfile,
    /// Write-ahead-journal counters (all zero on unjournaled runs).
    pub journal: JournalProfile,
    /// Final convergence estimate fitted from the per-iteration
    /// rows-at-risk series (`None` when no iteration ever ran).
    pub progress: Option<ProgressEstimate>,
}

impl CycleProfile {
    /// Seconds spent in risk evaluation (the dotted lines of Figures
    /// 7e/7f) — a derived view over [`CycleProfile::risk_eval_ns`].
    pub fn risk_eval_seconds(&self) -> f64 {
        self.risk_eval_ns as f64 / 1e9
    }

    /// Replay the profile into a collector as an explicitly placed trace
    /// tree: one `cycle.run` root covering the whole run, one
    /// `cycle.iteration` child per record at its cumulative offset, and
    /// one `cycle.iter.risk_eval` grandchild carrying each iteration's
    /// risk-evaluation share. Child intervals are clamped into their
    /// parent's, so exporters always see properly nested spans.
    pub fn emit(&self, obs: &Obs<'_>) {
        if !obs.enabled() {
            return;
        }
        let run_id = next_span_id();
        let mut cursor = 0u64;
        for r in &self.iterations {
            let start = cursor.min(self.total_ns);
            let dur = r.dur_ns.min(self.total_ns - start);
            let iter_id = next_span_id();
            obs.span_in(
                "cycle.iteration",
                iter_id,
                run_id,
                start,
                dur,
                fields![
                    "iteration" => r.iteration,
                    "risky" => r.risky,
                    "exhausted" => r.exhausted,
                    "min_risk" => r.min_risk,
                    "mean_risk" => r.mean_risk,
                    "max_risk" => r.max_risk,
                    "heuristic" => r.heuristic.as_str(),
                    "targets" => r.targets,
                    "suppressions" => r.suppressions,
                    "recodings" => r.recodings,
                    "risk_eval_ns" => r.risk_eval_ns
                ],
            );
            obs.span_in(
                "cycle.iter.risk_eval",
                next_span_id(),
                iter_id,
                start,
                r.risk_eval_ns.min(dur),
                fields!["iteration" => r.iteration],
            );
            cursor = cursor.saturating_add(r.dur_ns);
        }
        obs.span_in(
            "cycle.risk_eval",
            next_span_id(),
            run_id,
            0,
            self.risk_eval_ns.min(self.total_ns),
            fields!["iterations" => self.iterations.len()],
        );
        obs.span_in(
            "cycle.run",
            run_id,
            0,
            0,
            self.total_ns,
            fields!["iterations" => self.iterations.len()],
        );
        if let Some(p) = &self.progress {
            obs.counter(
                "cycle.progress.rows_at_risk",
                p.rows_at_risk,
                fields!["trend" => p.trend, "confidence" => p.confidence],
            );
            if let Some(eta) = p.eta_iterations {
                obs.counter(
                    "cycle.progress.eta_iterations",
                    eta,
                    fields!["confidence" => p.confidence],
                );
            }
        }
        if let Some(fb) = &self.fallback {
            obs.counter(
                "cycle.fallback",
                1,
                fields![
                    "trigger" => fb.trigger.to_string(),
                    "passes" => fb.passes,
                    "rows_suppressed" => fb.rows_suppressed,
                    "cells_suppressed" => fb.cells_suppressed,
                    "residual_risky" => fb.residual_risky
                ],
            );
        }
        if self.warm != WarmCycleProfile::default() {
            let w = &self.warm;
            obs.counter(
                "cycle.warm.evals",
                w.warm_evals,
                fields!["cold_evals" => w.cold_evals],
            );
            obs.counter("cycle.warm.patched_facts", w.patched_facts, fields![]);
            obs.counter("cycle.warm.strata_skipped", w.strata_skipped, fields![]);
            obs.counter("cycle.warm.fallback_cold", w.fallback_to_cold, fields![]);
            obs.counter(
                "cycle.warm.reused_index_bytes",
                w.reused_index_bytes,
                fields![],
            );
            obs.counter("cycle.warm.disk_restores", w.disk_restores, fields![]);
            obs.counter("cycle.warm.persist_errors", w.persist_errors, fields![]);
        }
        if self.journal != JournalProfile::default() {
            let j = &self.journal;
            obs.counter(
                "cycle.journal.records",
                j.records_written,
                fields!["bytes" => j.bytes_written],
            );
            obs.counter(
                "cycle.journal.fsyncs",
                j.fsyncs,
                fields!["dir" => j.dir_fsyncs],
            );
            obs.counter(
                "cycle.journal.snapshots",
                j.snapshots_written,
                fields!["bytes" => j.snapshot_bytes],
            );
            obs.counter(
                "cycle.journal.replayed_actions",
                j.replayed_actions,
                fields!["discarded" => j.discarded_actions],
            );
            obs.counter(
                "cycle.journal.truncated_bytes",
                j.truncated_bytes,
                fields![],
            );
            obs.counter("cycle.journal.io_errors", j.io_errors, fields![]);
        }
    }
}

/// What a non-converging run had produced when the iteration cap hit:
/// carried on [`CycleError::DidNotConverge`] so the cap is debuggable.
#[derive(Debug)]
pub struct PartialCycle {
    /// Per-iteration telemetry up to (and including) the capped iteration.
    pub profile: CycleProfile,
    /// The audit trail of the decisions taken so far.
    pub audit: AuditLog,
}

/// Cycle failure.
#[derive(Debug)]
pub enum CycleError {
    /// Risk evaluation failed.
    Risk(RiskError),
    /// Anonymization failed.
    Anonymize(AnonymizeError),
    /// The iteration cap was hit before convergence.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Tuples still violating the threshold.
        still_risky: usize,
        /// Telemetry and audit trail accumulated before the cap.
        partial: Box<PartialCycle>,
    },
    /// A plug-in (risk measure or anonymizer) panicked and
    /// [`FallbackPolicy::Error`] was configured. Under the default
    /// [`FallbackPolicy::SuppressRisky`] the panic triggers graceful
    /// degradation instead.
    Plugin {
        /// Name of the panicking plug-in.
        plugin: String,
        /// The rendered panic payload.
        message: String,
    },
    /// The write-ahead journal failed: creation refused, recovery found a
    /// mismatched or unusable journal, or an I/O error occurred under
    /// [`crate::journal::IoErrorPolicy::Fail`].
    Journal(JournalError),
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::Risk(e) => write!(f, "{e}"),
            CycleError::Anonymize(e) => write!(f, "{e}"),
            CycleError::DidNotConverge {
                iterations,
                still_risky,
                ..
            } => write!(
                f,
                "anonymization cycle did not converge after {iterations} iterations ({still_risky} tuples still risky)"
            ),
            CycleError::Plugin { plugin, message } => {
                write!(f, "plug-in {plugin} panicked: {message}")
            }
            CycleError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CycleError {}

impl From<RiskError> for CycleError {
    fn from(e: RiskError) -> Self {
        CycleError::Risk(e)
    }
}
impl From<AnonymizeError> for CycleError {
    fn from(e: AnonymizeError) -> Self {
        CycleError::Anonymize(e)
    }
}
impl From<JournalError> for CycleError {
    fn from(e: JournalError) -> Self {
        CycleError::Journal(e)
    }
}

/// How a cycle run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CycleTermination {
    /// The cycle converged normally: risk ≤ `T` everywhere (modulo
    /// exhausted tuples).
    Converged,
    /// The cycle could not converge and fell back to
    /// [`degrade::suppress_all_risky`]; the released table is maximally
    /// suppressed where it matters, and the audit log records why.
    Degraded {
        /// What forced the fallback.
        trigger: DegradeTrigger,
    },
}

impl CycleTermination {
    /// Did the cycle converge without degradation?
    pub fn is_converged(&self) -> bool {
        matches!(self, CycleTermination::Converged)
    }
}

/// Outcome of a completed cycle.
#[derive(Debug)]
pub struct CycleOutcome {
    /// The anonymized microdata DB (`TupleA` of Algorithm 2).
    pub db: MicrodataDb,
    /// Iterations performed.
    pub iterations: usize,
    /// Labelled nulls injected by suppression steps.
    pub nulls_injected: usize,
    /// Global recodings applied.
    pub recodings: usize,
    /// Tuples violating the threshold before the first step.
    pub initial_risky: usize,
    /// Tuples that remain over the threshold (only possible when the
    /// anonymizer exhausted its options on them).
    pub final_risky: usize,
    /// Information loss per the paper's Figure 7b definition.
    pub information_loss: f64,
    /// Final risk report over the anonymized table.
    pub final_report: RiskReport,
    /// The decision-by-decision audit trail.
    pub audit: AuditLog,
    /// Per-iteration telemetry: risk landscape, heuristic decisions,
    /// actions, risk-evaluation time.
    pub profile: CycleProfile,
    /// Whether the run converged or degraded (and why).
    pub termination: CycleTermination,
}

impl CycleOutcome {
    /// Wall-clock seconds spent inside risk evaluation (the dotted lines
    /// of Figures 7e/7f) — derived from the profile.
    pub fn risk_eval_seconds(&self) -> f64 {
        self.profile.risk_eval_seconds()
    }
}

/// Estimated bytes of retained warm-start state: the live columnar view
/// (code arrays, null bitmaps, dictionaries) plus the maintained group
/// statistics — the allocation a cold iteration would have rebuilt from
/// scratch.
fn retained_bytes(view: &MicrodataView, stats: &GroupStats) -> u64 {
    let stats_bytes =
        stats.count.len() * (std::mem::size_of::<usize>() + std::mem::size_of::<f64>());
    (view.retained_bytes() + stats_bytes) as u64
}

/// Group the heuristic-ordered risky rows into exact equivalence classes
/// (keyed by their coded QI row — equal codes ⇔ equal cells) and keep the
/// first `classes` classes, class-major: all rows of the first class, then
/// all rows of the second, … Rows of unselected classes are left for later
/// iterations. Returns the selected rows and the class count.
fn select_batch(risky: &[usize], view: &MicrodataView, classes: usize) -> (Vec<usize>, usize) {
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    for &row in risky {
        let key = view.row_codes(row).to_vec();
        match index.get(&key) {
            Some(&i) => members[i].push(row),
            None => {
                if members.len() >= classes {
                    continue;
                }
                index.insert(key, members.len());
                members.push(vec![row]);
            }
        }
    }
    let count = members.len();
    (members.into_iter().flatten().collect(), count)
}

/// How the main loop of [`AnonymizationCycle::run`] ended.
enum LoopEnd {
    /// Risk ≤ `T` everywhere (modulo exhausted tuples).
    Converged(RiskReport),
    /// A degradation trigger fired; `still_risky` is known for the
    /// iteration-cap case.
    Trigger(DegradeTrigger, Option<usize>),
}

/// The anonymization cycle: a risk measure, an anonymizer, a threshold.
pub struct AnonymizationCycle<'a> {
    risk: &'a dyn RiskMeasure,
    anonymizer: &'a dyn Anonymizer,
    /// Configuration knobs.
    pub config: CycleConfig,
    collector: Option<Arc<dyn Collector>>,
    cancel: Option<CancelToken>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'a> AnonymizationCycle<'a> {
    /// Build a cycle from plug-ins and configuration.
    pub fn new(
        risk: &'a dyn RiskMeasure,
        anonymizer: &'a dyn Anonymizer,
        config: CycleConfig,
    ) -> Self {
        AnonymizationCycle {
            risk,
            anonymizer,
            config,
            collector: None,
            cancel: None,
            metrics: None,
        }
    }

    /// Attach a telemetry collector; it receives the per-iteration
    /// [`CycleProfile`] replayed as events after the run (including a run
    /// that hits the iteration cap).
    pub fn with_collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Attach a cooperative cancellation token, polled between iterations.
    /// Cancellation triggers the configured [`FallbackPolicy`], so under
    /// the default the caller still receives a safe (maximally suppressed)
    /// dataset.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a live metrics registry. Unlike the collector (which sees
    /// the profile replayed *after* the run), the registry is updated at
    /// every iteration boundary — `cycle.iteration`,
    /// `cycle.rows_at_risk`, `cycle.eta_iterations` and friends — so
    /// another thread can poll a mid-flight run.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Run the cycle on a copy of `db`; the input table is untouched.
    ///
    /// With [`CycleConfig::journal`] set, a **fresh** journal is started
    /// (an existing one is refused with
    /// [`JournalError::AlreadyExists`] — use
    /// [`resume`](Self::resume) for that).
    pub fn run(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
    ) -> Result<CycleOutcome, CycleError> {
        self.run_with(db, dict, None)
    }

    /// Resume an interrupted journaled run: recover the journal in
    /// [`CycleConfig::journal`] (truncating any torn tail), replay the
    /// committed actions onto the newest valid snapshot or the original
    /// table, and continue the cycle to its end. The outcome — final
    /// table, risk report, audit trail — is bit-identical to a run that
    /// was never interrupted.
    pub fn resume(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
    ) -> Result<CycleOutcome, CycleError> {
        let Some(jcfg) = &self.config.journal else {
            return Err(CycleError::Journal(JournalError::NotConfigured));
        };
        let fp = journal::fingerprint(
            db,
            dict,
            &self.config,
            self.risk.name(),
            self.anonymizer.name(),
        );
        let recovery = journal::recover(jcfg, db, self.config.threshold, fp)?;
        self.run_with(db, dict, Some(recovery))
    }

    fn run_with(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        recovery: Option<journal::Recovery>,
    ) -> Result<CycleOutcome, CycleError> {
        let mut profile = CycleProfile::default();
        let resumed = recovery.is_some();
        let (
            mut work,
            mut audit,
            mut exhausted,
            mut iterations,
            mut nulls_injected,
            mut recodings,
            mut initial_risky,
            recovered_profile,
            append_offset,
        ) = match recovery {
            Some(r) => (
                r.db,
                if self.config.audit {
                    r.audit
                } else {
                    AuditLog::default()
                },
                r.exhausted,
                r.iterations,
                r.nulls_injected,
                r.recodings,
                r.initial_risky,
                r.profile,
                r.append_offset,
            ),
            None => (
                db.clone(),
                AuditLog::default(),
                HashSet::new(),
                0,
                0,
                0,
                0,
                JournalProfile::default(),
                0,
            ),
        };
        let run_start = Instant::now();
        let t = self.config.threshold;
        let obs = Obs::new(self.collector.as_deref());

        // The write-ahead journal: one Action record per committed step,
        // one Commit per finished iteration, periodic atomic snapshots.
        let run_fp = self.config.journal.as_ref().map(|_| {
            journal::fingerprint(
                db,
                dict,
                &self.config,
                self.risk.name(),
                self.anonymizer.name(),
            )
        });
        let mut wal: Option<JournalWriter> = match (&self.config.journal, run_fp) {
            (Some(jcfg), Some(fp)) => {
                let begin = JournalRecord::Begin {
                    version: crate::journal::record::FORMAT_VERSION,
                    fingerprint: fp,
                    measure: self.risk.name().to_string(),
                    anonymizer: self.anonymizer.name().to_string(),
                    rows: db.len() as u64,
                };
                Some(if resumed {
                    JournalWriter::resume(jcfg, &begin, fp, append_offset, recovered_profile)?
                } else {
                    JournalWriter::create(jcfg, &begin, fp)?
                })
            }
            _ => None,
        };

        // The artifact store holding persisted warm state, colocated with
        // the journal. Only the file engine persists; a store that fails
        // to open is counted and skipped — the run proceeds cold-capable
        // exactly as under the in-memory engine.
        let mut artifact_store: Option<FileBackend> = None;
        if self.config.storage.engine == StorageEngine::File {
            if let Some(jcfg) = &self.config.journal {
                let opened = match &self.config.storage.artifact_io {
                    Some(io) => FileBackend::with_io(&jcfg.dir, Arc::clone(io)),
                    None => FileBackend::create(&jcfg.dir),
                };
                match opened {
                    Ok(b) => artifact_store = Some(b),
                    Err(_) => profile.warm.persist_errors += 1,
                }
            }
        }

        // A disk-persisted warm seed: group statistics restored from the
        // artifact store when their run fingerprint and iteration count
        // match the recovered journal *exactly*. Anything else — missing,
        // torn, corrupt, alien magic, future version, stale — is
        // discarded here and the first evaluation regroups cold from the
        // recovered table, converging to the bit-identical result.
        let mut recovered_warm: Option<GroupStats> = None;
        if resumed && self.config.warm_start {
            if let (Some(store), Some(fp)) = (&artifact_store, run_fp) {
                if let Ok(Some(bytes)) = store.get(WARM_STATS_ARTIFACT) {
                    if let Ok(ws) = colstore::decode_warm_stats(&bytes, Some(fp)) {
                        if ws.iterations == iterations as u64 {
                            recovered_warm = Some(ws.stats);
                        }
                    }
                }
            }
        }

        let qi_count = dict
            .quasi_identifiers(&work.name)
            .map(|v| v.len())
            .unwrap_or(0);

        // Warm-start state, retained across iterations: the live view
        // (patched in place by `patch_view`) and the incrementally
        // maintained equivalence-group statistics. `groups_supported`
        // latches to `false` the first time the warm fast path proves
        // inapplicable (unsupported measure, inexact weights) so the
        // fallback cost is paid once, not per iteration.
        let mut live_view: Option<MicrodataView> = None;
        let mut warm_stats: Option<GroupStats> = None;
        let mut groups_supported = self.config.warm_start;

        // Rows-above-threshold per evaluation, in order: the convergence
        // trajectory [`crate::progress::estimate`] fits. A resumed run
        // restarts the in-process series; the journal's `Progress`
        // records carry the full history for external monitors.
        let mut rows_series: Vec<u64> = Vec::new();

        let end: LoopEnd = 'cycle: loop {
            // Cooperative degradation checks, once per iteration.
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    break LoopEnd::Trigger(DegradeTrigger::Cancelled, None);
                }
            }
            if let Some(d) = self.config.deadline {
                if run_start.elapsed() >= d {
                    break LoopEnd::Trigger(DegradeTrigger::Deadline, None);
                }
            }

            let iter_start = Instant::now();
            let view = match &mut live_view {
                Some(v) if self.config.warm_start => v,
                slot => {
                    warm_stats = None;
                    slot.insert(MicrodataView::from_db_with(
                        &work,
                        dict,
                        self.config.semantics,
                        None,
                    )?)
                }
            };
            view.risk_threads = self.config.risk_threads.max(1);
            let t0 = Instant::now();
            // Warm path: serve the report from the maintained group
            // statistics when the measure supports it; otherwise (or on
            // the first iteration, which must group from scratch) run the
            // cold evaluation. `evaluated` unifies both paths for the
            // panic/err handling below.
            let mut evaluated: Option<
                Result<Result<RiskReport, RiskError>, Box<dyn std::any::Any + Send>>,
            > = None;
            if groups_supported {
                let had_stats = warm_stats.is_some();
                if !had_stats {
                    if weights_exactly_summable(view.weights.as_deref()) {
                        // A disk-restored seed stands in for the regroup
                        // only when it describes exactly this many rows;
                        // the incremental-maintenance invariant makes the
                        // two bitwise interchangeable.
                        let disk = recovered_warm
                            .take()
                            .filter(|s| s.count.len() == view.len());
                        warm_stats = Some(match disk {
                            Some(stats) => {
                                profile.warm.disk_restores += 1;
                                stats
                            }
                            None => view.group_stats(),
                        });
                    } else {
                        // fractional weights: incremental ± updates would
                        // not be bit-identical to a cold regroup
                        groups_supported = false;
                        profile.warm.fallback_to_cold += 1;
                    }
                }
                if let Some(stats) = &warm_stats {
                    match catch_unwind(AssertUnwindSafe(|| {
                        self.risk.report_from_groups(view, stats)
                    })) {
                        Ok(Some(r)) => {
                            if had_stats {
                                profile.warm.warm_evals += 1;
                                profile.warm.reused_index_bytes += retained_bytes(view, stats);
                            } else {
                                // first evaluation grouped from scratch
                                profile.warm.cold_evals += 1;
                            }
                            evaluated = Some(Ok(r));
                        }
                        Ok(None) => {
                            // measure opted out of the warm path for good
                            groups_supported = false;
                            warm_stats = None;
                            profile.warm.fallback_to_cold += 1;
                        }
                        Err(payload) => evaluated = Some(Err(payload)),
                    }
                }
            }
            let evaluated = match evaluated {
                Some(e) => e,
                None => {
                    if self.config.warm_start {
                        profile.warm.cold_evals += 1;
                    }
                    catch_unwind(AssertUnwindSafe(|| self.risk.evaluate(view)))
                }
            };
            let mut risk_eval_ns = t0.elapsed().as_nanos() as u64;
            let report = match evaluated {
                Ok(Ok(r)) => r,
                Ok(Err(e)) => return Err(CycleError::Risk(e)),
                Err(payload) => {
                    break LoopEnd::Trigger(
                        DegradeTrigger::PluginPanic {
                            plugin: self.risk.name().to_string(),
                            message: degrade::panic_text(payload.as_ref()),
                        },
                        None,
                    )
                }
            };

            let mut risky: Vec<usize> = report
                .risky_tuples(t)
                .into_iter()
                .filter(|r| !exhausted.contains(r))
                .collect();
            if iterations == 0 {
                initial_risky = risky.len() + exhausted.len();
            }

            let mut record = IterationRecord {
                iteration: iterations,
                risky: risky.len(),
                exhausted: exhausted.len(),
                min_risk: report.risks.iter().copied().fold(f64::INFINITY, f64::min),
                mean_risk: report.mean_risk(),
                max_risk: report.max_risk(),
                ..IterationRecord::default()
            };
            if !record.min_risk.is_finite() {
                record.min_risk = 0.0;
            }

            // Convergence trajectory: fit the series up to and including
            // this evaluation, publish it live, and carry the latest
            // estimate on the profile so every exit path reports it.
            rows_series.push(risky.len() as u64);
            profile.progress = progress::estimate(&rows_series);
            if let Some(m) = &self.metrics {
                m.set_gauge("cycle.iteration", iterations as f64);
                m.set_gauge("cycle.rows_at_risk", risky.len() as f64);
                m.set_gauge("cycle.exhausted", exhausted.len() as f64);
                m.set_gauge("cycle.mean_risk", record.mean_risk);
                m.set_gauge("cycle.max_risk", record.max_risk);
                m.inc_counter("cycle.risk_evals", 1);
                m.observe_rate("cycle.iterations_per_sec", iterations as f64);
                if let Some(e) = &profile.progress {
                    m.set_gauge("cycle.trend", e.trend);
                    m.set_gauge("cycle.eta_confidence", e.confidence);
                    m.set_gauge(
                        "cycle.eta_iterations",
                        e.eta_iterations.map(|n| n as f64).unwrap_or(-1.0),
                    );
                }
            }

            if risky.is_empty() {
                record.heuristic = "converged".to_string();
                record.dur_ns = iter_start.elapsed().as_nanos() as u64;
                record.risk_eval_ns = risk_eval_ns;
                profile.risk_eval_ns += risk_eval_ns;
                profile.iterations.push(record);
                break LoopEnd::Converged(report);
            }
            if iterations >= self.config.max_iterations {
                record.heuristic = "iteration cap hit".to_string();
                record.dur_ns = iter_start.elapsed().as_nanos() as u64;
                record.risk_eval_ns = risk_eval_ns;
                profile.risk_eval_ns += risk_eval_ns;
                let still_risky = risky.len();
                profile.iterations.push(record);
                break LoopEnd::Trigger(DegradeTrigger::IterationCap, Some(still_risky));
            }

            self.order_tuples(&mut risky, &report, view);
            let order_name = match self.config.tuple_order {
                TupleOrder::LessSignificantFirst => "less-significant-first",
                TupleOrder::MostRiskyFirst => "most-risky-first",
                TupleOrder::Fifo => "fifo",
            };
            // `batched` ⇔ this iteration may take several actions whose
            // combined statistics repair would cost more than one regroup:
            // per-row rechecks and incremental patches are skipped and the
            // group statistics are recomputed once, next iteration.
            let mut batched = false;
            match self.config.batch {
                None => {
                    // legacy path, byte-stable transcripts
                    if self.config.granularity == StepGranularity::OneTuplePerIteration {
                        risky.truncate(1);
                    }
                    record.heuristic = format!(
                        "{}/{} → row {}",
                        order_name,
                        match self.config.granularity {
                            StepGranularity::AllRiskyPerIteration => "all-risky",
                            StepGranularity::OneTuplePerIteration => "one-tuple",
                        },
                        risky[0]
                    );
                }
                Some(BatchStrategy::OneTuple) => {
                    risky.truncate(1);
                    record.heuristic =
                        format!("{}/batch(one-tuple) → row {}", order_name, risky[0]);
                }
                Some(BatchStrategy::PerClass) | Some(BatchStrategy::TopN(_)) => {
                    let classes = match self.config.batch {
                        Some(BatchStrategy::TopN(n)) => n.max(1),
                        _ => 1,
                    };
                    let (selected, class_count) = select_batch(&risky, view, classes);
                    risky = selected;
                    batched = true;
                    record.heuristic = format!(
                        "{}/batch({} class(es)) → {} row(s), head row {}",
                        order_name,
                        class_count,
                        risky.len(),
                        risky[0]
                    );
                }
            }
            record.targets = risky.len();

            let mut data_changed = false;
            for row in risky {
                // Monotonic-aggregation semantics (§4.3): suppressions made
                // earlier in this iteration already count. If this tuple's
                // risk has been defused by a neighbour's labelled null, skip
                // it rather than remove more information. Batched
                // iterations skip the recheck: their targets were validated
                // by this iteration's report, within-class siblings cannot
                // defuse each other, and cross-class defusal inside one
                // batch at worst over-suppresses — never under-protects.
                if !batched {
                    let t1 = Instant::now();
                    let current = match warm_stats.as_ref() {
                        // O(1) recheck from the maintained statistics when
                        // the measure supports it (bit-identical to
                        // `evaluate_tuple` by contract)
                        Some(stats) => self
                            .risk
                            .tuple_risk_from_stats(view, stats, row)
                            .or_else(|| self.risk.evaluate_tuple(view, row)),
                        None => self.risk.evaluate_tuple(view, row),
                    };
                    risk_eval_ns += t1.elapsed().as_nanos() as u64;
                    if let Some(r) = current {
                        if r <= t {
                            continue;
                        }
                    }
                }
                // the step ranks from the live view, which `patch_view`
                // keeps in sync with `work` after every action
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    self.anonymizer
                        .anonymize_step_with(&mut work, dict, view, row)
                }));
                let action = match stepped {
                    Ok(Ok(a)) => a,
                    Ok(Err(e)) => return Err(CycleError::Anonymize(e)),
                    Err(payload) => {
                        record.risk_eval_ns = risk_eval_ns;
                        record.dur_ns = iter_start.elapsed().as_nanos() as u64;
                        profile.risk_eval_ns += risk_eval_ns;
                        profile.iterations.push(record);
                        break 'cycle LoopEnd::Trigger(
                            DegradeTrigger::PluginPanic {
                                plugin: self.anonymizer.name().to_string(),
                                message: degrade::panic_text(payload.as_ref()),
                            },
                            None,
                        );
                    }
                };
                match &action {
                    AnonymizationAction::Suppress { .. } => {
                        nulls_injected += 1;
                        record.suppressions += 1;
                    }
                    AnonymizationAction::Recode { .. } => {
                        recodings += 1;
                        record.recodings += 1;
                    }
                    AnonymizationAction::Exhausted { .. } => {
                        exhausted.insert(row);
                    }
                }
                let patched = self.patch_view(
                    view,
                    &work,
                    &action,
                    // batched iterations defer the statistics to one
                    // regroup at the next latch instead of per-row repairs
                    if batched { None } else { warm_stats.as_mut() },
                );
                if patched > 0 {
                    data_changed = true;
                }
                if self.config.warm_start {
                    profile.warm.patched_facts += patched;
                }
                if let Some(w) = wal.as_mut() {
                    w.append(&JournalRecord::Action {
                        iteration: iterations as u64,
                        row: row as u64,
                        risk_bits: report.risks[row].to_bits(),
                        measure: report.measure.clone(),
                        action: action.clone(),
                    })?;
                }
                if self.config.audit {
                    audit.record(Decision {
                        iteration: iterations,
                        row,
                        measure: report.measure.clone(),
                        risk: report.risks[row],
                        threshold: t,
                        action,
                    });
                }
            }
            if batched && data_changed {
                // One parallel regroup at the next iteration's latch costs
                // O(n) total; repairing the statistics per batched row
                // would have cost O(batch · n).
                warm_stats = None;
            }
            record.risk_eval_ns = risk_eval_ns;
            record.dur_ns = iter_start.elapsed().as_nanos() as u64;
            profile.risk_eval_ns += risk_eval_ns;
            profile.iterations.push(record);
            iterations += 1;
            // Iteration boundary: commit, then snapshot when due. A crash
            // after the commit loses at most the (re-derivable) work of
            // the next iteration.
            if let Some(w) = wal.as_mut() {
                w.append(&JournalRecord::Progress {
                    iteration: (iterations - 1) as u64,
                    rows_at_risk: rows_series.last().copied().unwrap_or(0),
                })?;
                w.append(&JournalRecord::Commit {
                    iterations: iterations as u64,
                    nulls_injected: nulls_injected as u64,
                    recodings: recodings as u64,
                    initial_risky: initial_risky as u64,
                    exhausted: exhausted.len() as u64,
                })?;
                let due = self
                    .config
                    .journal
                    .as_ref()
                    .and_then(|j| j.snapshot_every)
                    .is_some_and(|n| n > 0 && iterations % n as usize == 0);
                if due {
                    let cp = Checkpoint {
                        iterations: iterations as u64,
                        fingerprint: w.run_fingerprint(),
                        next_null: work.nulls_minted(),
                        db: work.clone(),
                        exhausted: exhausted.iter().copied().collect(),
                        nulls_injected: nulls_injected as u64,
                        recodings: recodings as u64,
                        initial_risky: initial_risky as u64,
                        warm: profile.warm,
                    };
                    w.snapshot(&cp)?;
                    // Persist the maintained group statistics beside the
                    // snapshot so a later resume can re-warm from disk.
                    // Failure is non-fatal: the artifact is a cache, and
                    // resume falls back to the cold regroup.
                    if let (Some(store), Some(fp), Some(stats)) =
                        (artifact_store.as_mut(), run_fp, warm_stats.as_ref())
                    {
                        if groups_supported {
                            let bytes = colstore::encode_warm_stats(iterations as u64, fp, stats);
                            if store.put(WARM_STATS_ARTIFACT, &bytes).is_err() {
                                profile.warm.persist_errors += 1;
                            }
                        }
                    }
                }
            }
        };

        let report = match end {
            LoopEnd::Converged(report) => report,
            LoopEnd::Trigger(trigger, still_risky) => {
                // Mark the degradation in the journal *before* the
                // fallback mutates the table: fallback suppressions are
                // deliberately not journaled, so a later resume truncates
                // this marker and re-runs the loop toward convergence
                // (e.g. under a raised iteration cap) instead of
                // replaying a cap-shaped ending.
                if let Some(w) = wal.as_mut() {
                    w.append_durable(&JournalRecord::Degraded {
                        trigger: trigger.to_string(),
                    })?;
                }
                if self.config.fallback == FallbackPolicy::Error {
                    if let Some(w) = wal.as_ref() {
                        profile.journal = w.profile;
                    }
                    profile.total_ns = run_start.elapsed().as_nanos() as u64;
                    profile.emit(&obs);
                    return Err(match trigger {
                        DegradeTrigger::PluginPanic { plugin, message } => {
                            CycleError::Plugin { plugin, message }
                        }
                        _ => CycleError::DidNotConverge {
                            iterations,
                            still_risky: still_risky.unwrap_or(0),
                            partial: Box::new(PartialCycle { profile, audit }),
                        },
                    });
                }
                // Graceful degradation: guarantee the risk bound by
                // suppressing every quasi-identifier of every still-risky
                // tuple, recorded in the audit log and profile.
                let summary = degrade::suppress_all_risky(
                    &mut work,
                    dict,
                    self.risk,
                    t,
                    self.config.semantics,
                    if self.config.audit {
                        Some((&mut audit, iterations))
                    } else {
                        None
                    },
                );
                nulls_injected += summary.cells_suppressed;
                if iterations == 0 && initial_risky == 0 {
                    // the trigger fired before the first evaluation; the
                    // fallback's view is the best initial-risk estimate
                    initial_risky = summary.rows_suppressed + summary.residual_risky;
                }
                profile.fallback = Some(FallbackRecord {
                    trigger: trigger.clone(),
                    passes: summary.passes,
                    rows_suppressed: summary.rows_suppressed,
                    cells_suppressed: summary.cells_suppressed,
                    residual_risky: summary.residual_risky,
                });
                if let Some(w) = wal.as_mut() {
                    // final trajectory sample, so a monitor reading the
                    // journal sees the state the run ended on
                    w.append(&JournalRecord::Progress {
                        iteration: iterations as u64,
                        rows_at_risk: rows_series.last().copied().unwrap_or(0),
                    })?;
                    w.append_durable(&JournalRecord::Finished { converged: false })?;
                    profile.journal = w.profile;
                }
                profile.total_ns = run_start.elapsed().as_nanos() as u64;
                profile.emit(&obs);
                // Fail closed when the measure could not re-verify: treat
                // every tuple as risky rather than silently fail open.
                let final_risky = match &summary.final_report {
                    Some(r) => r.risky_tuples(t).len(),
                    None => work.len(),
                };
                let final_report = summary.final_report.unwrap_or_else(|| RiskReport {
                    measure: format!("{} (risk-unavailable)", self.risk.name()),
                    risks: vec![1.0; work.len()],
                    details: vec![TupleRiskDetail::default(); work.len()],
                });
                return Ok(CycleOutcome {
                    db: work,
                    iterations,
                    nulls_injected,
                    recodings,
                    initial_risky,
                    final_risky,
                    information_loss: information_loss(nulls_injected, initial_risky, qi_count),
                    final_report,
                    audit,
                    profile,
                    termination: CycleTermination::Degraded { trigger },
                });
            }
        };

        if let Some(w) = wal.as_mut() {
            // final trajectory sample, so a monitor reading the journal
            // sees the converged (or exhausted-only) end state
            w.append(&JournalRecord::Progress {
                iteration: iterations as u64,
                rows_at_risk: rows_series.last().copied().unwrap_or(0),
            })?;
            w.append_durable(&JournalRecord::Finished { converged: true })?;
            profile.journal = w.profile;
        }
        profile.total_ns = run_start.elapsed().as_nanos() as u64;
        profile.emit(&obs);
        let final_risky = report
            .risky_tuples(t)
            .into_iter()
            .filter(|r| exhausted.contains(r))
            .count();
        Ok(CycleOutcome {
            db: work,
            iterations,
            nulls_injected,
            recodings,
            initial_risky,
            final_risky,
            information_loss: information_loss(nulls_injected, initial_risky, qi_count),
            final_report: report,
            audit,
            profile,
            termination: CycleTermination::Converged,
        })
    }

    /// Reflect an anonymization action into the live columnar view so that
    /// `evaluate_tuple` rechecks (and, warm-started, the *next iteration's*
    /// risk evaluation) see the current state — this is the patch that
    /// replaces rebuilding the whole [`MicrodataView`]. When `stats` is
    /// supplied the maintained group statistics are repaired row by row
    /// (each change must be applied against the state the statistics
    /// currently describe). Returns the number of view rows patched.
    fn patch_view(
        &self,
        view: &mut MicrodataView,
        work: &MicrodataDb,
        action: &AnonymizationAction,
        stats: Option<&mut GroupStats>,
    ) -> u64 {
        match action {
            AnonymizationAction::Suppress { row, attr, .. } => {
                if let Some(col) = view.qi_names.iter().position(|q| q == attr) {
                    if let Ok(v) = work.value(*row, attr) {
                        view.patch_cell(*row, col, v, stats);
                        return 1;
                    }
                }
                0
            }
            AnonymizationAction::Recode { attr, from, to, .. } => {
                match view.qi_names.iter().position(|q| q == attr) {
                    Some(col) => view.patch_recode(col, from, to, stats).len() as u64,
                    None => 0,
                }
            }
            AnonymizationAction::Exhausted { .. } => 0,
        }
    }

    fn order_tuples(&self, risky: &mut [usize], report: &RiskReport, view: &MicrodataView) {
        match self.config.tuple_order {
            TupleOrder::Fifo => {}
            TupleOrder::MostRiskyFirst => {
                risky.sort_by(|&a, &b| report.risks[b].total_cmp(&report.risks[a]));
            }
            TupleOrder::LessSignificantFirst => {
                if let Some(w) = &view.weights {
                    risky.sort_by(|&a, &b| w[a].total_cmp(&w[b]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize::{AttributeOrder, LocalSuppression};
    use crate::dictionary::Category;
    use crate::risk::{KAnonymity, ReIdentification};
    use vadalog::Value;

    fn fig5_db() -> (MicrodataDb, MetadataDictionary) {
        let mut db =
            MicrodataDb::new("fig5", ["Id", "Area", "Sector", "Employees", "ResRev", "W"]).unwrap();
        let rows = [
            ("099876", "Roma", "Textiles", "1000+", "0-30", 10),
            ("765389", "Roma", "Commerce", "1000+", "0-30", 20),
            ("231654", "Roma", "Commerce", "1000+", "0-30", 20),
            ("097302", "Roma", "Financial", "1000+", "0-30", 30),
            ("120967", "Roma", "Financial", "1000+", "0-30", 30),
            ("232498", "Milano", "Construction", "0-200", "60-90", 5),
            ("340901", "Torino", "Construction", "0-200", "60-90", 5),
        ];
        for (id, a, s, e, r, w) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(a),
                Value::str(s),
                Value::str(e),
                Value::str(r),
                Value::Int(w),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "Employees", "ResRev", "W"] {
            dict.register_attr("fig5", a, "");
        }
        dict.set_category("fig5", "Id", Category::Identifier)
            .unwrap();
        for a in ["Area", "Sector", "Employees", "ResRev"] {
            dict.set_category("fig5", a, Category::QuasiIdentifier)
                .unwrap();
        }
        dict.set_category("fig5", "W", Category::Weight).unwrap();
        (db, dict)
    }

    #[test]
    fn cycle_reaches_2_anonymity_on_figure5() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::new(AttributeOrder::MostSelectiveFirst);
        let cycle = AnonymizationCycle::new(&risk, &anon, CycleConfig::default());
        let out = cycle.run(&db, &dict).unwrap();
        assert_eq!(out.final_risky, 0);
        assert!(out.nulls_injected >= 1);
        assert_eq!(out.final_report.risky_tuples(0.5).len(), 0);
        // the input table is untouched
        assert_eq!(db.null_cells(&[]), 0);
        assert!(out.db.null_cells(&[]) >= 1);
        // explainability: every suppression is audited
        assert_eq!(out.audit.suppressions(), out.nulls_injected);
    }

    #[test]
    fn greedy_suppression_on_figure5_tuple1_needs_one_null() {
        // With OneTuplePerIteration and most-selective-first, tuple 1's
        // Sector is suppressed first, which simultaneously fixes tuple 1
        // (frequency 5) — the paper's §4.4 worked example.
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::new(AttributeOrder::MostSelectiveFirst);
        let mut config = CycleConfig {
            granularity: StepGranularity::OneTuplePerIteration,
            tuple_order: TupleOrder::Fifo,
            ..CycleConfig::default()
        };
        config.audit = true;
        let cycle = AnonymizationCycle::new(&risk, &anon, config);
        let out = cycle.run(&db, &dict).unwrap();
        // tuples 0 (Textiles), 5 (Milano) and 6 (Torino) are risky at k=2;
        // tuple 0 needs exactly one null, 5 and 6 need work too.
        let t0_decisions = out.audit.for_tuple(0);
        assert_eq!(t0_decisions.len(), 1);
        assert!(out.final_risky == 0);
    }

    #[test]
    fn zero_threshold_converges_or_exhausts() {
        // T = 0 forces anonymization of everything until groups are huge or
        // tuples exhaust; the cycle must terminate either way.
        let (db, dict) = fig5_db();
        let risk = ReIdentification;
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                threshold: 0.0,
                ..CycleConfig::default()
            },
        );
        let out = cycle.run(&db, &dict).unwrap();
        assert!(out.iterations <= 10_000);
    }

    #[test]
    fn already_safe_table_is_untouched() {
        let (db, dict) = fig5_db();
        // k = 1: every tuple trivially safe
        let risk = KAnonymity::new(1);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(&risk, &anon, CycleConfig::default());
        let out = cycle.run(&db, &dict).unwrap();
        assert_eq!(out.nulls_injected, 0);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.initial_risky, 0);
        assert_eq!(out.information_loss, 0.0);
    }

    #[test]
    fn higher_k_injects_more_nulls() {
        let (db, dict) = fig5_db();
        let anon = LocalSuppression::default();
        let mut previous = 0usize;
        for k in [2usize, 3, 4] {
            let risk = KAnonymity::new(k);
            let cycle = AnonymizationCycle::new(&risk, &anon, CycleConfig::default());
            let out = cycle.run(&db, &dict).unwrap();
            assert!(
                out.nulls_injected >= previous,
                "k={k}: {} < {previous}",
                out.nulls_injected
            );
            previous = out.nulls_injected;
        }
    }

    #[test]
    fn information_loss_is_bounded() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(3);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(&risk, &anon, CycleConfig::default());
        let out = cycle.run(&db, &dict).unwrap();
        assert!(out.information_loss >= 0.0 && out.information_loss <= 1.0);
    }

    #[test]
    fn iteration_cap_degrades_to_safe_fallback() {
        // With the cap at zero the loop cannot do a single refinement pass,
        // so the default SuppressRisky policy must kick in: the released
        // table still honours the risk bound, the degradation is recorded
        // first-class, and the audit log explains every suppression.
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                max_iterations: 0,
                ..CycleConfig::default()
            },
        );
        let out = cycle.run(&db, &dict).unwrap();
        assert_eq!(
            out.termination,
            CycleTermination::Degraded {
                trigger: DegradeTrigger::IterationCap
            }
        );
        let fallback = out.profile.fallback.as_ref().expect("fallback recorded");
        assert_eq!(fallback.trigger, DegradeTrigger::IterationCap);
        assert!(fallback.cells_suppressed > 0);
        assert_eq!(fallback.residual_risky, 0);
        assert_eq!(out.final_risky, 0, "risk bound holds after degradation");
        assert!(out.final_report.risky_tuples(0.5).is_empty());
        assert_eq!(out.audit.suppressions(), fallback.cells_suppressed);
    }

    #[test]
    fn iteration_cap_with_error_policy_reports_non_convergence() {
        // The historical strict behaviour stays available behind
        // FallbackPolicy::Error.
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                max_iterations: 0,
                fallback: FallbackPolicy::Error,
                ..CycleConfig::default()
            },
        );
        match cycle.run(&db, &dict) {
            Err(CycleError::DidNotConverge { still_risky, .. }) => assert!(still_risky > 0),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn most_risky_first_with_one_tuple_granularity() {
        let (db, dict) = fig5_db();
        let risk = ReIdentification;
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                granularity: StepGranularity::OneTuplePerIteration,
                tuple_order: TupleOrder::MostRiskyFirst,
                threshold: 0.05,
                ..CycleConfig::default()
            },
        );
        let out = cycle.run(&db, &dict).unwrap();
        // the first decision must target the highest-risk binding
        let first = &out.audit.decisions[0];
        let view = MicrodataView::from_db(&db, &dict).unwrap();
        let initial = ReIdentification.evaluate(&view).unwrap();
        let max_risk = initial.risks.iter().copied().fold(0.0f64, f64::max);
        assert!((initial.risks[first.row] - max_risk).abs() < 1e-12);
        assert_eq!(out.final_report.risky_tuples(0.05).len(), out.final_risky);
    }

    #[test]
    fn incremental_recheck_skips_defused_tuples() {
        // two rows that defuse each other: suppressing one lifts both, so
        // the second must be skipped within the same iteration
        let mut db = MicrodataDb::new("pair", ["id", "a", "b", "w"]).unwrap();
        db.push_row(vec![
            Value::Int(1),
            Value::str("x"),
            Value::str("p"),
            Value::Int(5),
        ])
        .unwrap();
        db.push_row(vec![
            Value::Int(2),
            Value::str("x"),
            Value::str("q"),
            Value::Int(5),
        ])
        .unwrap();
        let mut dict = MetadataDictionary::new();
        for a in ["id", "a", "b", "w"] {
            dict.register_attr("pair", a, "");
        }
        dict.set_category("pair", "id", Category::Identifier)
            .unwrap();
        dict.set_category("pair", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("pair", "b", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("pair", "w", Category::Weight).unwrap();

        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(&risk, &anon, CycleConfig::default());
        let out = cycle.run(&db, &dict).unwrap();
        assert_eq!(
            out.nulls_injected, 1,
            "one suppression lifts both rows; the recheck must spare the second"
        );
        assert_eq!(out.final_risky, 0);
    }

    /// Run the same cycle warm and cold and require identical outcomes:
    /// same anonymized table, same (bitwise) final report, same iteration
    /// count, audit trail length and termination.
    fn assert_warm_equals_cold(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        risk: &dyn RiskMeasure,
        config: CycleConfig,
    ) -> (CycleOutcome, CycleOutcome) {
        let anon = LocalSuppression::default();
        let warm_cfg = CycleConfig {
            warm_start: true,
            ..config.clone()
        };
        let cold_cfg = CycleConfig {
            warm_start: false,
            ..config
        };
        let warm = AnonymizationCycle::new(risk, &anon, warm_cfg)
            .run(db, dict)
            .unwrap();
        let cold = AnonymizationCycle::new(risk, &anon, cold_cfg)
            .run(db, dict)
            .unwrap();
        assert_eq!(warm.iterations, cold.iterations, "iteration counts");
        assert_eq!(warm.nulls_injected, cold.nulls_injected, "nulls injected");
        assert_eq!(warm.recodings, cold.recodings, "recodings");
        assert_eq!(warm.final_risky, cold.final_risky, "final risky");
        assert_eq!(warm.termination, cold.termination, "termination");
        assert_eq!(
            warm.audit.decisions.len(),
            cold.audit.decisions.len(),
            "audit length"
        );
        assert_eq!(warm.final_report.risks, cold.final_report.risks, "risks");
        assert_eq!(
            warm.final_report.details, cold.final_report.details,
            "details"
        );
        for i in 0..db.len() {
            assert_eq!(
                warm.db.row(i).unwrap(),
                cold.db.row(i).unwrap(),
                "row {i} of the anonymized table"
            );
        }
        (warm, cold)
    }

    #[test]
    fn warm_start_matches_cold_on_figure5_kanon() {
        let (db, dict) = fig5_db();
        let (warm, cold) = assert_warm_equals_cold(
            &db,
            &dict,
            &KAnonymity::new(2),
            CycleConfig {
                granularity: StepGranularity::OneTuplePerIteration,
                ..CycleConfig::default()
            },
        );
        // the warm run must actually have exercised the fast path
        assert!(warm.profile.warm.warm_evals >= 1, "{:?}", warm.profile.warm);
        assert!(warm.profile.warm.patched_facts >= 1);
        assert!(warm.profile.warm.reused_index_bytes > 0);
        assert_eq!(warm.profile.warm.fallback_to_cold, 0);
        // and the cold run must not have touched the warm counters
        assert_eq!(cold.profile.warm, WarmCycleProfile::default());
    }

    #[test]
    fn warm_start_matches_cold_on_figure5_reident() {
        let (db, dict) = fig5_db();
        assert_warm_equals_cold(
            &db,
            &dict,
            &ReIdentification,
            CycleConfig {
                threshold: 0.05,
                tuple_order: TupleOrder::MostRiskyFirst,
                ..CycleConfig::default()
            },
        );
    }

    #[test]
    fn simulated_library_falls_back_to_cold() {
        use crate::risk::{IndividualRisk, IrEstimator};
        let (db, dict) = fig5_db();
        let risk = IndividualRisk::new(IrEstimator::SimulatedLibrary { samples: 64 });
        let (warm, _cold) = assert_warm_equals_cold(
            &db,
            &dict,
            &risk,
            CycleConfig {
                threshold: 0.05,
                ..CycleConfig::default()
            },
        );
        // the measure opts out of report_from_groups: the warm path must
        // fall back (documented rule) and keep producing cold-identical
        // results via full evaluations
        assert_eq!(warm.profile.warm.warm_evals, 0);
        assert!(warm.profile.warm.fallback_to_cold >= 1);
    }

    #[test]
    fn fractional_weights_disable_the_warm_fast_path() {
        // 2.5 is not exactly summable in arbitrary order: the gate must
        // refuse incremental stats and fall back to full evaluations
        let mut db = MicrodataDb::new("frac", ["id", "a", "w"]).unwrap();
        for (id, a) in [(1, "x"), (2, "x"), (3, "y")] {
            db.push_row(vec![Value::Int(id), Value::str(a), Value::Float(2.5)])
                .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "a", "w"] {
            dict.register_attr("frac", a, "");
        }
        dict.set_category("frac", "id", Category::Identifier)
            .unwrap();
        dict.set_category("frac", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("frac", "w", Category::Weight).unwrap();
        let (warm, _cold) =
            assert_warm_equals_cold(&db, &dict, &KAnonymity::new(2), CycleConfig::default());
        assert_eq!(warm.profile.warm.warm_evals, 0);
        assert!(warm.profile.warm.fallback_to_cold >= 1);
    }

    #[test]
    fn batched_per_class_converges_on_figure5() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::new(AttributeOrder::MostSelectiveFirst);
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                batch: Some(BatchStrategy::PerClass),
                ..CycleConfig::default()
            },
        );
        let out = cycle.run(&db, &dict).unwrap();
        assert_eq!(out.final_risky, 0);
        assert!(out.final_report.risky_tuples(0.5).is_empty());
        assert!(out
            .profile
            .iterations
            .iter()
            .any(|r| r.heuristic.contains("batch(")));
    }

    #[test]
    fn batched_is_never_less_safe_than_one_tuple() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::new(AttributeOrder::MostSelectiveFirst);
        let one = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                batch: Some(BatchStrategy::OneTuple),
                ..CycleConfig::default()
            },
        )
        .run(&db, &dict)
        .unwrap();
        let batched = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                batch: Some(BatchStrategy::TopN(4)),
                ..CycleConfig::default()
            },
        )
        .run(&db, &dict)
        .unwrap();
        assert_eq!(one.final_risky, 0);
        assert_eq!(batched.final_risky, 0);
        assert!(batched.final_report.risky_tuples(0.5).is_empty());
        // batching may over-suppress across classes, never under-protect
        assert!(batched.nulls_injected >= one.nulls_injected);
        assert!(batched.iterations <= one.iterations);
    }

    #[test]
    fn risk_threads_do_not_change_the_outcome() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::new(AttributeOrder::MostSelectiveFirst);
        let run_with_threads = |threads: usize| {
            AnonymizationCycle::new(
                &risk,
                &anon,
                CycleConfig {
                    batch: Some(BatchStrategy::TopN(2)),
                    risk_threads: threads,
                    ..CycleConfig::default()
                },
            )
            .run(&db, &dict)
            .unwrap()
        };
        let a = run_with_threads(1);
        let b = run_with_threads(4);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.nulls_injected, b.nulls_injected);
        assert_eq!(a.final_report.risks, b.final_report.risks);
        assert_eq!(a.audit.decisions.len(), b.audit.decisions.len());
        for i in 0..db.len() {
            assert_eq!(a.db.row(i).unwrap(), b.db.row(i).unwrap(), "row {i}");
        }
    }

    #[test]
    fn less_significant_first_hits_low_weight_tuples() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                granularity: StepGranularity::OneTuplePerIteration,
                tuple_order: TupleOrder::LessSignificantFirst,
                ..CycleConfig::default()
            },
        );
        let out = cycle.run(&db, &dict).unwrap();
        // first decision must target one of the weight-5 tuples (5 or 6)
        let first = &out.audit.decisions[0];
        assert!(first.row == 5 || first.row == 6, "row {}", first.row);
    }
}
