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
use vadalog::backend::{FileBackend, StorageBackend, StorageEngine};
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

impl TupleOrder {
    /// Every order, in declaration order.
    pub const ALL: [TupleOrder; 3] = [
        TupleOrder::LessSignificantFirst,
        TupleOrder::MostRiskyFirst,
        TupleOrder::Fifo,
    ];

    /// The name job manifests and the iteration label use:
    /// `less-significant-first`, `most-risky-first` or `fifo`.
    pub fn name(self) -> &'static str {
        match self {
            TupleOrder::LessSignificantFirst => "less-significant-first",
            TupleOrder::MostRiskyFirst => "most-risky-first",
            TupleOrder::Fifo => "fifo",
        }
    }

    /// The order a [`name`](Self::name) stands for. Any other string is
    /// `None`, so callers refuse it with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|o| o.name() == s)
    }
}

/// How much work one cycle iteration performs when
/// [`CycleConfig::batch`] is `None`.
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

impl StepGranularity {
    /// Every granularity, in declaration order.
    pub const ALL: [StepGranularity; 2] = [
        StepGranularity::AllRiskyPerIteration,
        StepGranularity::OneTuplePerIteration,
    ];

    /// The name job manifests and the iteration label use: `all-risky` or
    /// `one-tuple`.
    pub fn name(self) -> &'static str {
        match self {
            StepGranularity::AllRiskyPerIteration => "all-risky",
            StepGranularity::OneTuplePerIteration => "one-tuple",
        }
    }

    /// The granularity a [`name`](Self::name) stands for. Any other string
    /// is `None`, so callers refuse it with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|g| g.name() == s)
    }
}

/// How many equivalence classes one batched iteration anonymizes (the
/// million-row heuristic). With a class batch the cycle hands the
/// anonymizer *all* rows of the selected classes in one iteration and
/// regroups once at the next evaluation — one `O(n)` regroup per
/// iteration instead of one `O(n)` statistics repair per row.
///
/// Suppressing one member of an exact equivalence class never changes its
/// siblings' match sets (the suppressed row still maybe-matches its old
/// class), so whole-class batching skips no within-class defusal; only
/// cross-class defusal inside one batch is conceded, which can at worst
/// over-suppress — never end less safe than the one-tuple path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// One row per iteration — the baseline the scale benchmark compares
    /// against. The same step as
    /// [`StepGranularity::OneTuplePerIteration`]; it stays a variant
    /// because the journal fingerprint hashes it, so journals and job
    /// manifests written with `one-tuple` keep resuming.
    OneTuple,
    /// All rows of the single highest-priority equivalence class.
    PerClass,
    /// All rows of the `n` highest-priority equivalence classes
    /// (`TopN(1)` ≡ [`BatchStrategy::PerClass`]).
    TopN(usize),
}

impl BatchStrategy {
    /// The name CLI options and job manifests use: `one-tuple`,
    /// `per-class` or `top-N`.
    pub fn name(self) -> String {
        match self {
            BatchStrategy::OneTuple => "one-tuple".into(),
            BatchStrategy::PerClass => "per-class".into(),
            BatchStrategy::TopN(n) => format!("top-{n}"),
        }
    }

    /// The strategy a [`name`](Self::name) stands for. Any other string,
    /// and `top-0`, which names no class, is `None`, so callers refuse it
    /// with a structured error.
    pub fn parse(s: &str) -> Option<Self> {
        match s.strip_prefix("top-") {
            Some(n) => n.parse().ok().filter(|&n| n > 0).map(BatchStrategy::TopN),
            None => [BatchStrategy::OneTuple, BatchStrategy::PerClass]
                .into_iter()
                .find(|b| b.name() == s),
        }
    }
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
#[derive(Debug, Clone, Default)]
pub struct StorageOptions {
    /// Which storage engine backs persisted warm artifacts. The file
    /// engine keeps them in the journal's directory, behind the
    /// journal's [`io`](crate::journal::JournalConfig::io).
    pub engine: StorageEngine,
    /// Keeps struct literals ending in `..StorageOptions::default()`, so
    /// a new field does not break them.
    #[doc(hidden)]
    pub _non_exhaustive: (),
}

/// Cycle configuration.
#[derive(Debug, Clone)]
pub struct CycleConfig {
    /// Risk threshold `T ∈ [0, 1]` (Algorithm 2).
    pub threshold: f64,
    /// Tuple prioritization heuristic.
    pub tuple_order: TupleOrder,
    /// Iteration granularity, used when [`CycleConfig::batch`] is `None`.
    pub granularity: StepGranularity,
    /// Null semantics used for risk-group formation.
    pub semantics: NullSemantics,
    /// Hard cap on cycle iterations.
    pub max_iterations: usize,
    /// Optional wall-clock deadline for the whole run, checked between
    /// iterations. On expiry the cycle reacts per [`CycleConfig::fallback`].
    pub deadline: Option<Duration>,
    /// What to do when the cycle cannot converge normally (iteration cap,
    /// deadline, cancellation, plug-in panic). The default degrades
    /// gracefully via [`degrade::suppress_all_risky`].
    pub fallback: FallbackPolicy,
    /// Crash-safe persistence: when set, every committed action is
    /// journaled and the working state is periodically snapshotted, so an
    /// interrupted run can continue via [`AnonymizationCycle::resume`] —
    /// bit-identically to a run that was never interrupted. `None` (the
    /// default) keeps the cycle purely in-memory.
    pub journal: Option<JournalConfig>,
    /// Batched heuristic (§4.4 at scale): `None` (the default) steps as
    /// [`CycleConfig::granularity`] says; `Some` overrides it and selects
    /// how many equivalence classes each iteration anonymizes at once.
    pub batch: Option<BatchStrategy>,
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
            deadline: None,
            fallback: FallbackPolicy::default(),
            journal: None,
            batch: None,
            storage: StorageOptions::default(),
        }
    }
}

/// Refuse a risk threshold `T` that protects nothing. A tuple is risky
/// when its score exceeds `T`, and scores lie in `[0, 1]`: a larger `T`
/// marks no tuple, nor does `NaN`, which no score exceeds, so the cycle
/// would release its input unchanged. The error names the member.
pub fn check_threshold(threshold: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&threshold) {
        Ok(())
    } else {
        Err(format!(
            "threshold must be a finite number in [0, 1], got {threshold}"
        ))
    }
}

/// Refuse a measure parameter that protects nothing: k-anonymity's `k`
/// and SUDA's `msu` must be whole numbers ≥ 1 (`KAnonymity::new(0)` runs
/// as k = 1, and a fraction names no class size). Returns the parameter;
/// the error names `member`.
pub fn check_size(member: &str, n: f64) -> Result<usize, String> {
    if n >= 1.0 && n.fract() == 0.0 {
        Ok(n as usize)
    } else {
        Err(format!("{member} must be a whole number ≥ 1, got {n}"))
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
    /// Wall-clock nanoseconds of the iteration boundary that follows the
    /// iteration: its `Progress` and `Commit` records, and a due snapshot
    /// with its warm artifact. Zero on unjournaled runs and on the record
    /// the run ended on.
    pub commit_ns: u64,
}

/// Warm-start telemetry: how much work the incremental path saved (and
/// how often it had to give up). The cycle builds its [`MicrodataView`]
/// once and patches it after every action; an evaluation is served from
/// the maintained group statistics whenever the measure supports
/// [`RiskMeasure::report_from_groups`] and the weights are exactly
/// summable, and regroups or evaluates in full otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmCycleProfile {
    /// Risk evaluations served from incrementally patched group statistics.
    pub warm_evals: u64,
    /// Risk evaluations that regrouped the table from scratch (the first
    /// evaluation of a run always does).
    pub cold_evals: u64,
    /// View rows patched in place instead of rebuilding the view.
    pub patched_facts: u64,
    /// Times the warm path fell back to full evaluations (inexact
    /// weights, or a measure whose `report_from_groups` returns `None`).
    pub fallback_to_cold: u64,
    /// Estimated bytes of retained state (view + group statistics)
    /// reused instead of rebuilt, summed over warm evaluations.
    pub reused_index_bytes: u64,
    /// Warm seeds restored from a persisted on-disk artifact instead of a
    /// cold regroup (file-backed resumed runs only). Not persisted in
    /// checkpoints: it describes this process's runs, not the journal's.
    pub disk_restores: u64,
    /// Warm-artifact persist attempts that failed. Non-fatal — the run
    /// continues unchanged; only a later resume loses its disk warm seed.
    pub persist_errors: u64,
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
    /// Wall-clock nanoseconds of the degradation fallback (zero when the
    /// run did not degrade).
    pub fallback_ns: u64,
    /// The degradation event, when the run fell back to
    /// [`degrade::suppress_all_risky`] — a first-class part of the
    /// profile, replayed to collectors as a `cycle.fallback` event.
    pub fallback: Option<FallbackRecord>,
    /// Warm-start counters.
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
    /// `cycle.iteration` child per record, one `cycle.iter.risk_eval`
    /// grandchild carrying each iteration's risk-evaluation share, a
    /// `cycle.commit` child after each iteration whose boundary took time,
    /// and a `cycle.fallback` child after the last one when the run
    /// degraded. Iterations and boundaries are laid end to end from the
    /// run's start, so each sits at its offset among them. Child
    /// intervals are clamped into their parent's, so exporters always see
    /// properly nested spans; zero-time boundaries and fallbacks emit
    /// nothing.
    pub fn emit(&self, obs: &Obs<'_>) {
        if !obs.enabled() {
            return;
        }
        let run_id = next_span_id();
        let mut cursor = 0u64;
        // A child of the run at `start` for `dur`, clamped into the run.
        let place = |start: u64, dur: u64| {
            let start = start.min(self.total_ns);
            (start, dur.min(self.total_ns - start))
        };
        for r in &self.iterations {
            let (start, dur) = place(cursor, r.dur_ns);
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
            if r.commit_ns > 0 {
                let (start, dur) = place(cursor, r.commit_ns);
                obs.span_in(
                    "cycle.commit",
                    next_span_id(),
                    run_id,
                    start,
                    dur,
                    fields!["iteration" => r.iteration],
                );
                cursor = cursor.saturating_add(r.commit_ns);
            }
        }
        if self.fallback_ns > 0 {
            let (start, dur) = place(cursor, self.fallback_ns);
            obs.span_in(
                "cycle.fallback",
                next_span_id(),
                run_id,
                start,
                dur,
                fields![],
            );
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
    /// The configuration protects nothing, e.g. a threshold outside
    /// [0, 1]; refused before any journal file is touched. The message is
    /// [`check_threshold`]'s.
    Invalid(String),
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
            CycleError::Invalid(why) => write!(f, "{why}"),
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
/// statistics — the allocation a regroup would have rebuilt from scratch.
fn retained_bytes(view: &MicrodataView, stats: &GroupStats) -> u64 {
    let stats_bytes =
        stats.count.len() * (std::mem::size_of::<usize>() + std::mem::size_of::<f64>());
    (view.retained_bytes() + stats_bytes) as u64
}

/// Group the heuristic-ordered risky rows into exact equivalence classes
/// (keyed by the view's pattern id — equal ids ⇔ equal cells) and keep the
/// first `classes` classes, class-major: all rows of the first class, then
/// all rows of the second, … Rows of unselected classes are left for later
/// iterations. Returns the selected rows and the class count.
fn select_batch(risky: &[usize], view: &MicrodataView, classes: usize) -> (Vec<usize>, usize) {
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<u32, usize> = HashMap::new();
    for &row in risky {
        let key = view.pattern_of(row);
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

/// The degradation trigger a panicking plug-in raises.
fn plugin_panic(plugin: &str, payload: Box<dyn std::any::Any + Send>) -> DegradeTrigger {
    DegradeTrigger::PluginPanic {
        plugin: plugin.to_string(),
        message: degrade::panic_text(payload.as_ref()),
    }
}

/// The degradation trigger an anonymizer step on `row` raises when it
/// changed nothing: a suppression of a cell that already held a labelled
/// null, or a recode of a value to itself.
fn no_progress(plugin: &str, row: usize, action: &AnonymizationAction) -> Option<DegradeTrigger> {
    let message = match action {
        AnonymizationAction::Suppress { attr, previous, .. } if previous.is_null() => {
            format!("row {row}: suppressed {attr}, which already held {previous}")
        }
        AnonymizationAction::Recode { attr, from, to, .. } if from == to => {
            format!("row {row}: recoded {attr} from {from} to {to}")
        }
        _ => return None,
    };
    Some(DegradeTrigger::NoProgress {
        plugin: plugin.to_string(),
        message,
    })
}

/// How one iteration picks its targets, resolved once per run from
/// [`CycleConfig::batch`] and, when that is `None`,
/// [`CycleConfig::granularity`].
#[derive(Clone, Copy)]
enum Step {
    /// One step for every risky tuple.
    AllRisky,
    /// One step for the highest-priority risky tuple.
    OneTuple,
    /// Every risky row of the `n` highest-priority equivalence classes.
    Classes(usize),
}

impl Step {
    fn of(config: &CycleConfig) -> Step {
        match (config.batch, config.granularity) {
            (None, StepGranularity::AllRiskyPerIteration) => Step::AllRisky,
            (None, StepGranularity::OneTuplePerIteration) | (Some(BatchStrategy::OneTuple), _) => {
                Step::OneTuple
            }
            (Some(BatchStrategy::PerClass), _) => Step::Classes(1),
            (Some(BatchStrategy::TopN(n)), _) => Step::Classes(n.max(1)),
        }
    }
}

/// How the main loop of [`AnonymizationCycle::run`] ended.
enum LoopEnd {
    /// Risk ≤ `T` everywhere (modulo exhausted tuples).
    Converged(RiskReport),
    /// A degradation trigger fired; `still_risky` is known when it fired
    /// inside an iteration (the cap, or a faulty anonymizer step), and the
    /// report is the evaluation the cap fired on.
    Trigger(DegradeTrigger, Option<usize>, Option<RiskReport>),
}

/// One run's state across iterations: the working table and its
/// counters, the warm group statistics, the convergence series and the
/// durable files.
struct LoopState {
    work: MicrodataDb,
    audit: AuditLog,
    exhausted: HashSet<usize>,
    iterations: usize,
    nulls_injected: usize,
    recodings: usize,
    initial_risky: usize,
    profile: CycleProfile,
    /// Equivalence-group statistics maintained with the live view. `None`
    /// until an evaluation regroups: the first one, the one after a class
    /// batch changed the table, and every one once `groups_supported` is
    /// off.
    stats: Option<GroupStats>,
    /// Latches to `false` the first time the warm path proves
    /// inapplicable (inexact weights, a measure opting out), so the
    /// fallback cost is paid once, not per iteration.
    groups_supported: bool,
    /// Group statistics restored from the warm-stats artifact of a
    /// resumed run, standing in for the first regroup.
    disk_seed: Option<GroupStats>,
    /// Rows above the threshold per evaluation, in order: the convergence
    /// trajectory [`crate::progress::estimate`] fits. A resumed run
    /// restarts the in-process series; the journal's `Progress` records
    /// carry the full history for external monitors.
    rows_series: Vec<u64>,
    wal: Option<JournalWriter>,
    /// The artifact store holding persisted warm state (file engine only).
    store: Option<FileBackend>,
}

/// One iteration in flight: when it started, the evaluation it acts on
/// and its telemetry row.
struct Iteration {
    start: Instant,
    report: RiskReport,
    record: IterationRecord,
}

impl LoopState {
    /// Close an iteration: time it, add its risk-evaluation time to the
    /// run's and keep its record. Returns the report it acted on.
    fn close(&mut self, it: Iteration) -> RiskReport {
        let Iteration {
            start,
            report,
            mut record,
        } = it;
        record.dur_ns = start.elapsed().as_nanos() as u64;
        self.profile.risk_eval_ns += record.risk_eval_ns;
        self.profile.iterations.push(record);
        report
    }

    /// Stamp the run's totals on the profile and replay it to the
    /// collector.
    fn seal(&mut self, run_start: Instant, obs: &Obs<'_>) {
        if let Some(w) = &self.wal {
            self.profile.journal = w.profile;
        }
        self.profile.total_ns = run_start.elapsed().as_nanos() as u64;
        self.profile.emit(obs);
    }
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
    ///
    /// A threshold outside [0, 1] is refused with [`CycleError::Invalid`]
    /// before anything runs.
    pub fn run(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
    ) -> Result<CycleOutcome, CycleError> {
        check_threshold(self.config.threshold).map_err(CycleError::Invalid)?;
        self.run_with(db, dict, None)
    }

    /// The journal fingerprint of a run of this cycle on `db`
    /// ([`journal::fingerprint`]): one pass over every cell.
    fn fingerprint(&self, db: &MicrodataDb, dict: &MetadataDictionary) -> u64 {
        journal::fingerprint(
            db,
            dict,
            &self.config,
            self.risk.name(),
            self.anonymizer.name(),
        )
    }

    /// Resume an interrupted journaled run: recover the journal in
    /// [`CycleConfig::journal`] (truncating any torn tail), replay the
    /// committed actions onto the newest valid snapshot or the original
    /// table, and continue the cycle to its end. The outcome — final
    /// table, risk report, audit trail — is bit-identical to a run that
    /// was never interrupted. A threshold outside [0, 1] is refused, as
    /// by [`run`](Self::run), before the journal is read.
    pub fn resume(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
    ) -> Result<CycleOutcome, CycleError> {
        check_threshold(self.config.threshold).map_err(CycleError::Invalid)?;
        let Some(jcfg) = &self.config.journal else {
            return Err(CycleError::Journal(JournalError::NotConfigured));
        };
        let fp = self.fingerprint(db, dict);
        let recovery = journal::recover(jcfg, db, self.config.threshold, fp)?;
        self.run_with(db, dict, Some((recovery, fp)))
    }

    /// The loop of Algorithm 2: evaluate, select, apply, commit, until
    /// no tuple is over the threshold or a degradation trigger fires.
    /// A resumed run passes its recovery with the fingerprint it was
    /// recovered under, so the table is hashed once.
    fn run_with(
        &self,
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        recovery: Option<(journal::Recovery, u64)>,
    ) -> Result<CycleOutcome, CycleError> {
        let run_start = Instant::now();
        let t = self.config.threshold;
        let obs = Obs::new(self.collector.as_deref());
        let step = Step::of(&self.config);
        let (r, recovered_fp) = match recovery {
            Some((r, fp)) => (r, Some(fp)),
            None => (journal::fresh_recovery(db, JournalProfile::default()), None),
        };
        let resumed = recovered_fp.is_some();
        let mut st = LoopState {
            work: r.db,
            audit: r.audit,
            exhausted: r.exhausted,
            iterations: r.iterations,
            nulls_injected: r.nulls_injected,
            recodings: r.recodings,
            initial_risky: r.initial_risky,
            profile: CycleProfile::default(),
            stats: None,
            groups_supported: true,
            disk_seed: None,
            rows_series: Vec::new(),
            wal: None,
            store: None,
        };

        // The write-ahead journal: one Action record per committed step,
        // one Commit per finished iteration, periodic atomic snapshots.
        if let Some(jcfg) = &self.config.journal {
            let fp = recovered_fp.unwrap_or_else(|| self.fingerprint(db, dict));
            let begin = JournalRecord::Begin {
                version: crate::journal::record::FORMAT_VERSION,
                fingerprint: fp,
                measure: self.risk.name().to_string(),
                anonymizer: self.anonymizer.name().to_string(),
                rows: db.len() as u64,
            };
            st.wal = Some(if resumed {
                JournalWriter::resume(jcfg, &begin, fp, r.append_offset, r.profile)?
            } else {
                JournalWriter::create(jcfg, &begin, fp)?
            });
            // Only the file engine persists warm state, colocated with
            // the journal. A store that fails to open is counted and
            // skipped: the run proceeds exactly as under the in-memory
            // engine.
            if self.config.storage.engine == StorageEngine::File {
                match FileBackend::with_io(&jcfg.dir, Arc::clone(&jcfg.io)) {
                    Ok(b) => st.store = Some(b),
                    Err(_) => st.profile.warm.persist_errors += 1,
                }
            }
            // A disk-persisted warm seed counts only when its run
            // fingerprint and iteration count match the recovered journal
            // *exactly*. Anything else — missing, torn, corrupt, alien
            // magic, future version, stale — is discarded here and the
            // first evaluation regroups from the recovered table,
            // converging to the bit-identical result.
            if resumed {
                st.disk_seed = st
                    .store
                    .as_ref()
                    .and_then(|s| s.get(WARM_STATS_ARTIFACT).ok().flatten())
                    .and_then(|bytes| colstore::decode_warm_stats(&bytes, Some(fp)).ok())
                    .filter(|ws| ws.iterations == st.iterations as u64)
                    .map(|ws| ws.stats);
            }
        }

        let qi_count = dict
            .quasi_identifiers(&st.work.name)
            .map(|v| v.len())
            .unwrap_or(0);
        // The live view: built at the first evaluation, then patched in
        // place after every action instead of rebuilt.
        let mut live: Option<MicrodataView> = None;

        let end = loop {
            if let Some(trigger) = self.interrupted(run_start) {
                break LoopEnd::Trigger(trigger, None, None);
            }
            let start = Instant::now();
            let view = match &mut live {
                Some(v) => v,
                slot => slot.insert(MicrodataView::from_db_with(
                    &st.work,
                    dict,
                    self.config.semantics,
                    None,
                )?),
            };
            let t0 = Instant::now();
            let report = match self.evaluate(&mut st, view)? {
                Ok(report) => report,
                Err(trigger) => break LoopEnd::Trigger(trigger, None, None),
            };
            let risk_eval_ns = t0.elapsed().as_nanos() as u64;
            let risky: Vec<usize> = report
                .risky_tuples(t)
                .into_iter()
                .filter(|r| !st.exhausted.contains(r))
                .collect();
            let mut it = Iteration {
                start,
                record: self.observe(&mut st, &report, risky.len(), risk_eval_ns),
                report,
            };
            if risky.is_empty() {
                it.record.heuristic = "converged".to_string();
                break LoopEnd::Converged(st.close(it));
            }
            if st.iterations >= self.config.max_iterations {
                it.record.heuristic = "iteration cap hit".to_string();
                let report = st.close(it);
                break LoopEnd::Trigger(
                    DegradeTrigger::IterationCap,
                    Some(risky.len()),
                    Some(report),
                );
            }
            let still_risky = risky.len();
            let targets = self.select(step, risky, &it.report, view, &mut it.record);
            let batched = matches!(step, Step::Classes(_));
            let faulted = self.apply(&mut st, view, dict, &mut it, targets, batched)?;
            st.close(it);
            if let Some(trigger) = faulted {
                // The faulty step may have written the table without
                // patching the view: the fallback builds its own.
                live = None;
                break LoopEnd::Trigger(trigger, Some(still_risky), None);
            }
            st.iterations += 1;
            if st.wal.is_some() {
                let t1 = Instant::now();
                self.commit(&mut st, db)?;
                if let Some(record) = st.profile.iterations.last_mut() {
                    record.commit_ns = t1.elapsed().as_nanos() as u64;
                }
            }
        };

        let (report, final_risky, termination) = match end {
            LoopEnd::Converged(report) => {
                let final_risky = report
                    .risky_tuples(t)
                    .into_iter()
                    .filter(|r| st.exhausted.contains(r))
                    .count();
                (report, final_risky, CycleTermination::Converged)
            }
            LoopEnd::Trigger(trigger, still_risky, report) => {
                // Mark the degradation in the journal *before* the
                // fallback mutates the table: fallback suppressions are
                // deliberately not journaled, so a later resume truncates
                // this marker and re-runs the loop toward convergence
                // (e.g. under a raised iteration cap) instead of
                // replaying a cap-shaped ending.
                if let Some(w) = st.wal.as_mut() {
                    w.append_durable(&[JournalRecord::Degraded {
                        trigger: trigger.to_string(),
                    }])?;
                }
                if self.config.fallback == FallbackPolicy::Error {
                    st.seal(run_start, &obs);
                    return Err(match trigger {
                        DegradeTrigger::PluginPanic { plugin, message } => {
                            CycleError::Plugin { plugin, message }
                        }
                        _ => CycleError::DidNotConverge {
                            iterations: st.iterations,
                            still_risky: still_risky.unwrap_or(0),
                            partial: Box::new(PartialCycle {
                                profile: st.profile,
                                audit: st.audit,
                            }),
                        },
                    });
                }
                let t1 = Instant::now();
                let (report, final_risky) =
                    self.degrade(&mut st, live.as_mut(), report, dict, &trigger);
                st.profile.fallback_ns = t1.elapsed().as_nanos() as u64;
                (report, final_risky, CycleTermination::Degraded { trigger })
            }
        };
        if let Some(w) = st.wal.as_mut() {
            // final trajectory sample, so a monitor reading the journal
            // sees the state the run ended on, written and synced with
            // the Finished marker
            w.append_durable(&[
                JournalRecord::Progress {
                    iteration: st.iterations as u64,
                    rows_at_risk: st.rows_series.last().copied().unwrap_or(0),
                },
                JournalRecord::Finished {
                    converged: termination.is_converged(),
                },
            ])?;
        }
        st.seal(run_start, &obs);
        Ok(CycleOutcome {
            information_loss: information_loss(st.nulls_injected, st.initial_risky, qi_count),
            db: st.work,
            iterations: st.iterations,
            nulls_injected: st.nulls_injected,
            recodings: st.recodings,
            initial_risky: st.initial_risky,
            final_risky,
            final_report: report,
            audit: st.audit,
            profile: st.profile,
            termination,
        })
    }

    /// The cooperative degradation checks, made before every evaluation.
    fn interrupted(&self, run_start: Instant) -> Option<DegradeTrigger> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(DegradeTrigger::Cancelled);
        }
        if self
            .config
            .deadline
            .is_some_and(|d| run_start.elapsed() >= d)
        {
            return Some(DegradeTrigger::Deadline);
        }
        None
    }

    /// `#risk`: score every tuple. The report is served from the
    /// maintained group statistics when the measure supports
    /// [`RiskMeasure::report_from_groups`] and the weights are exactly
    /// summable, and from a full evaluation otherwise. A panicking
    /// measure comes back as the trigger it raises.
    fn evaluate(
        &self,
        st: &mut LoopState,
        view: &MicrodataView,
    ) -> Result<Result<RiskReport, DegradeTrigger>, CycleError> {
        let warm = &mut st.profile.warm;
        let had_stats = st.stats.is_some();
        if st.groups_supported && !had_stats {
            if weights_exactly_summable(view.weights.as_deref()) {
                // A disk-restored seed stands in for the regroup only
                // when it describes exactly this many rows; the
                // incremental-maintenance invariant makes the two
                // bitwise interchangeable.
                let disk = st.disk_seed.take().filter(|s| s.count.len() == view.len());
                st.stats = Some(match disk {
                    Some(stats) => {
                        warm.disk_restores += 1;
                        stats
                    }
                    None => view.group_stats(),
                });
            } else {
                // fractional weights: incremental ± updates would not be
                // bit-identical to a regroup
                st.groups_supported = false;
                warm.fallback_to_cold += 1;
            }
        }
        if let Some(stats) = &st.stats {
            match catch_unwind(AssertUnwindSafe(|| {
                self.risk.report_from_groups(view, stats)
            })) {
                Ok(Some(report)) => {
                    if had_stats {
                        warm.warm_evals += 1;
                        warm.reused_index_bytes += retained_bytes(view, stats);
                    } else {
                        // this evaluation grouped from scratch
                        warm.cold_evals += 1;
                    }
                    return Ok(Ok(report?));
                }
                Ok(None) => {
                    // the measure opted out of the warm path for good
                    st.groups_supported = false;
                    st.stats = None;
                    warm.fallback_to_cold += 1;
                }
                Err(payload) => return Ok(Err(plugin_panic(self.risk.name(), payload))),
            }
        }
        warm.cold_evals += 1;
        match catch_unwind(AssertUnwindSafe(|| self.risk.evaluate(view))) {
            Ok(report) => Ok(Ok(report?)),
            Err(payload) => Ok(Err(plugin_panic(self.risk.name(), payload))),
        }
    }

    /// The iteration's telemetry row, and the convergence trajectory:
    /// the rows-at-risk series is fitted up to and including this
    /// evaluation, published live, and carried on the profile so every
    /// exit path reports it.
    fn observe(
        &self,
        st: &mut LoopState,
        report: &RiskReport,
        risky: usize,
        risk_eval_ns: u64,
    ) -> IterationRecord {
        if st.iterations == 0 {
            st.initial_risky = risky + st.exhausted.len();
        }
        let mut record = IterationRecord {
            iteration: st.iterations,
            risky,
            exhausted: st.exhausted.len(),
            min_risk: report.risks.iter().copied().fold(f64::INFINITY, f64::min),
            mean_risk: report.mean_risk(),
            max_risk: report.max_risk(),
            risk_eval_ns,
            ..IterationRecord::default()
        };
        if !record.min_risk.is_finite() {
            record.min_risk = 0.0;
        }
        st.rows_series.push(risky as u64);
        st.profile.progress = progress::estimate(&st.rows_series);
        if let Some(m) = &self.metrics {
            m.set_gauge("cycle.iteration", st.iterations as f64);
            m.set_gauge("cycle.rows_at_risk", risky as f64);
            m.set_gauge("cycle.exhausted", st.exhausted.len() as f64);
            m.set_gauge("cycle.mean_risk", record.mean_risk);
            m.set_gauge("cycle.max_risk", record.max_risk);
            m.inc_counter("cycle.risk_evals", 1);
            m.observe_rate("cycle.iterations_per_sec", st.iterations as f64);
            if let Some(e) = &st.profile.progress {
                m.set_gauge("cycle.trend", e.trend);
                m.set_gauge("cycle.eta_confidence", e.confidence);
                m.set_gauge(
                    "cycle.eta_iterations",
                    e.eta_iterations.map(|n| n as f64).unwrap_or(-1.0),
                );
            }
        }
        record
    }

    /// The §4.4 heuristic: order the risky tuples and keep the ones this
    /// iteration anonymizes, labelling the decision on the record.
    fn select(
        &self,
        step: Step,
        mut risky: Vec<usize>,
        report: &RiskReport,
        view: &MicrodataView,
        record: &mut IterationRecord,
    ) -> Vec<usize> {
        match self.config.tuple_order {
            TupleOrder::LessSignificantFirst => {
                if let Some(w) = &view.weights {
                    risky.sort_by(|&a, &b| w[a].total_cmp(&w[b]));
                }
            }
            TupleOrder::MostRiskyFirst => {
                risky.sort_by(|&a, &b| report.risks[b].total_cmp(&report.risks[a]));
            }
            TupleOrder::Fifo => {}
        }
        let order = self.config.tuple_order.name();
        let one_tuple = StepGranularity::OneTuplePerIteration.name();
        record.heuristic = match step {
            Step::AllRisky => {
                let all_risky = StepGranularity::AllRiskyPerIteration.name();
                format!("{order}/{all_risky} → row {}", risky[0])
            }
            Step::OneTuple => {
                risky.truncate(1);
                format!("{order}/{one_tuple} → row {}", risky[0])
            }
            Step::Classes(n) => {
                let (selected, classes) = select_batch(&risky, view, n);
                risky = selected;
                format!(
                    "{order}/batch({classes} class(es)) → {} row(s), head row {}",
                    risky.len(),
                    risky[0]
                )
            }
        };
        record.targets = risky.len();
        risky
    }

    /// `#anonymize`: one step per target, each patched into the live view,
    /// journaled and audited. Monotonic-aggregation semantics (§4.3): a
    /// target that earlier steps of this iteration already defused is
    /// skipped rather than stripped of more information.
    ///
    /// A class batch skips that recheck: its targets were validated by
    /// this iteration's report, siblings in one class cannot defuse each
    /// other, and defusal across classes inside one batch at worst
    /// over-suppresses, never under-protects. It also leaves the group
    /// statistics to one regroup at the next evaluation, O(n) in total,
    /// instead of one repair per row, O(batch · n). Returns the trigger
    /// when the anonymizer panicked or took a step that changed nothing;
    /// such a step is neither counted nor journaled.
    fn apply(
        &self,
        st: &mut LoopState,
        view: &mut MicrodataView,
        dict: &MetadataDictionary,
        it: &mut Iteration,
        targets: Vec<usize>,
        batched: bool,
    ) -> Result<Option<DegradeTrigger>, CycleError> {
        let t = self.config.threshold;
        let mut data_changed = false;
        for row in targets {
            if !batched {
                let t1 = Instant::now();
                let current = match st.stats.as_ref() {
                    // O(1) recheck from the maintained statistics when
                    // the measure supports it (bit-identical to
                    // `evaluate_tuple` by contract)
                    Some(stats) => self
                        .risk
                        .tuple_risk_from_stats(view, stats, row)
                        .or_else(|| self.risk.evaluate_tuple(view, row)),
                    None => self.risk.evaluate_tuple(view, row),
                };
                it.record.risk_eval_ns += t1.elapsed().as_nanos() as u64;
                if current.is_some_and(|r| r <= t) {
                    continue;
                }
            }
            // the step ranks from the live view, which `patch_view` keeps
            // in sync with the table after every action
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                self.anonymizer
                    .anonymize_step_with(&mut st.work, dict, view, row)
            }));
            let action = match stepped {
                Ok(action) => action?,
                Err(payload) => return Ok(Some(plugin_panic(self.anonymizer.name(), payload))),
            };
            if let Some(trigger) = no_progress(self.anonymizer.name(), row, &action) {
                return Ok(Some(trigger));
            }
            match &action {
                AnonymizationAction::Suppress { .. } => {
                    st.nulls_injected += 1;
                    it.record.suppressions += 1;
                }
                AnonymizationAction::Recode { .. } => {
                    st.recodings += 1;
                    it.record.recodings += 1;
                }
                AnonymizationAction::Exhausted { .. } => {
                    st.exhausted.insert(row);
                }
            }
            let stats = if batched { None } else { st.stats.as_mut() };
            let patched = self.patch_view(view, &st.work, &action, stats);
            data_changed |= patched > 0;
            st.profile.warm.patched_facts += patched;
            if let Some(w) = st.wal.as_mut() {
                w.append(&JournalRecord::Action {
                    iteration: st.iterations as u64,
                    row: row as u64,
                    risk_bits: it.report.risks[row].to_bits(),
                    measure: it.report.measure.clone(),
                    action: action.clone(),
                })?;
            }
            st.audit.record(Decision {
                iteration: st.iterations,
                row,
                measure: it.report.measure.clone(),
                risk: it.report.risks[row],
                threshold: t,
                action,
            });
        }
        if batched && data_changed {
            st.stats = None;
        }
        Ok(None)
    }

    /// Iteration boundary: Progress and Commit records in one write, then
    /// a snapshot when one is due, with the maintained group statistics
    /// persisted beside it. A crash after the commit loses at most the
    /// (re-derivable) work of the next iteration.
    fn commit(&self, st: &mut LoopState, db: &MicrodataDb) -> Result<(), CycleError> {
        let Some(w) = st.wal.as_mut() else {
            return Ok(());
        };
        // The Progress sample rides in the Commit's write: recovery keeps
        // it only ahead of a Commit anyway.
        w.append_all(&[
            JournalRecord::Progress {
                iteration: (st.iterations - 1) as u64,
                rows_at_risk: st.rows_series.last().copied().unwrap_or(0),
            },
            JournalRecord::Commit {
                iterations: st.iterations as u64,
                nulls_injected: st.nulls_injected as u64,
                recodings: st.recodings as u64,
                initial_risky: st.initial_risky as u64,
                exhausted: st.exhausted.len() as u64,
            },
        ])?;
        let due = self
            .config
            .journal
            .as_ref()
            .and_then(|j| j.snapshot_every)
            .is_some_and(|n| n > 0 && st.iterations.is_multiple_of(n as usize));
        if !due {
            return Ok(());
        }
        w.snapshot(&Checkpoint {
            iterations: st.iterations as u64,
            fingerprint: w.run_fingerprint(),
            cells: Checkpoint::changes(db, &st.work),
            next_null: st.work.nulls_minted(),
            exhausted: st.exhausted.iter().copied().collect(),
            nulls_injected: st.nulls_injected as u64,
            recodings: st.recodings as u64,
            initial_risky: st.initial_risky as u64,
            warm: st.profile.warm,
        })?;
        // Failure to persist is non-fatal: the artifact is a cache, and a
        // resume without it regroups.
        if let (Some(store), Some(stats)) = (st.store.as_mut(), st.stats.as_ref()) {
            let bytes =
                colstore::encode_warm_stats(st.iterations as u64, w.run_fingerprint(), stats);
            if store.put(WARM_STATS_ARTIFACT, &bytes).is_err() {
                st.profile.warm.persist_errors += 1;
            }
        }
        Ok(())
    }

    /// Graceful degradation: guarantee the risk bound by suppressing every
    /// quasi-identifier of every still-risky tuple, recorded in the audit
    /// log and profile. The fallback works on the cycle's live view when
    /// it is in step with the table, starting from `report` (the
    /// evaluation the cap fired on) when there is one; otherwise it builds
    /// a view of its own. Returns the final report and the tuples it
    /// leaves over the threshold.
    fn degrade(
        &self,
        st: &mut LoopState,
        live: Option<&mut MicrodataView>,
        report: Option<RiskReport>,
        dict: &MetadataDictionary,
        trigger: &DegradeTrigger,
    ) -> (RiskReport, usize) {
        let t = self.config.threshold;
        let audit = Some((&mut st.audit, st.iterations));
        let summary = match live {
            Some(view) => {
                degrade::suppress_risky_on(&mut st.work, view, self.risk, t, report, audit)
            }
            None => degrade::suppress_all_risky(
                &mut st.work,
                dict,
                self.risk,
                t,
                self.config.semantics,
                audit,
            ),
        };
        st.nulls_injected += summary.cells_suppressed;
        if st.iterations == 0 && st.initial_risky == 0 {
            // the trigger fired before the first evaluation; the
            // fallback's view is the best initial-risk estimate
            st.initial_risky = summary.rows_suppressed + summary.residual_risky;
        }
        st.profile.fallback = Some(FallbackRecord {
            trigger: trigger.clone(),
            passes: summary.passes,
            rows_suppressed: summary.rows_suppressed,
            cells_suppressed: summary.cells_suppressed,
            residual_risky: summary.residual_risky,
        });
        // Fail closed when the measure could not re-verify: treat every
        // tuple as risky rather than silently fail open.
        match summary.final_report {
            Some(report) => {
                let final_risky = report.risky_tuples(t).len();
                (report, final_risky)
            }
            None => {
                let n = st.work.len();
                let report = RiskReport {
                    measure: format!("{} (risk-unavailable)", self.risk.name()),
                    risks: vec![1.0; n],
                    details: vec![TupleRiskDetail::default(); n],
                };
                (report, n)
            }
        }
    }

    /// Reflect an anonymization action into the live columnar view so that
    /// rechecks and the next evaluation see the current state — this is
    /// the patch that replaces rebuilding the whole [`MicrodataView`]. When
    /// `stats` is supplied the maintained group statistics follow: a
    /// suppression repairs them for its one cell (against the state they
    /// currently describe), a recode replaces them with one regroup — it
    /// rewrites a whole value class, and a per-cell repair would cost
    /// O(class · rows). Both are bit-identical to a regroup under the
    /// exact-summability gate the warm path holds. Returns the number of
    /// view rows patched.
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
                let Some(col) = view.qi_names.iter().position(|q| q == attr) else {
                    return 0;
                };
                let patched = view.patch_recode(col, from, to).len() as u64;
                if let Some(stats) = stats.filter(|_| patched > 0) {
                    *stats = view.group_stats();
                }
                patched
            }
            AnonymizationAction::Exhausted { .. } => 0,
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
        let config = CycleConfig {
            granularity: StepGranularity::OneTuplePerIteration,
            tuple_order: TupleOrder::Fifo,
            ..CycleConfig::default()
        };
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

    /// Suppresses a row's first quasi-identifier whatever it holds: from
    /// its second step on one row, it writes a null over a null.
    struct FirstAttribute;

    impl Anonymizer for FirstAttribute {
        fn name(&self) -> &str {
            "first-attribute"
        }

        fn anonymize_step_with(
            &self,
            db: &mut MicrodataDb,
            dict: &MetadataDictionary,
            _view: &MicrodataView,
            row: usize,
        ) -> Result<AnonymizationAction, AnonymizeError> {
            let attr = dict.quasi_identifiers(&db.name)?.remove(0);
            let previous = db.value(row, &attr)?.clone();
            let null = db.fresh_null();
            db.set_value(row, &attr, null)?;
            Ok(AnonymizationAction::Suppress {
                row,
                attr,
                previous,
            })
        }
    }

    #[test]
    fn a_step_that_changes_nothing_degrades_at_once() {
        // Row 0 stays unique by its Sector once its Area is suppressed, so
        // the next iteration steps on it again and nulls a null; without
        // the check the loop repeats that step up to the iteration cap.
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let cycle = AnonymizationCycle::new(&risk, &FirstAttribute, CycleConfig::default());
        let out = cycle.run(&db, &dict).unwrap();
        assert!(out.iterations <= 2, "{} iterations", out.iterations);
        let CycleTermination::Degraded {
            trigger: DegradeTrigger::NoProgress { plugin, message },
        } = &out.termination
        else {
            panic!(
                "expected a no-progress degradation, got {:?}",
                out.termination
            );
        };
        assert_eq!(plugin, "first-attribute");
        assert!(message.starts_with("row 0: suppressed Area"), "{message}");
        // the step was not counted: one null per suppressed cell
        assert_eq!(out.nulls_injected, out.db.null_cells(&[]));
        assert_eq!(out.final_risky, 0, "the fallback keeps the risk bound");
        // without a fallback the run stops with the rows it left risky
        let strict = CycleConfig {
            fallback: FallbackPolicy::Error,
            ..CycleConfig::default()
        };
        match AnonymizationCycle::new(&risk, &FirstAttribute, strict).run(&db, &dict) {
            Err(CycleError::DidNotConverge { still_risky, .. }) => assert!(still_risky > 0),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn thresholds_outside_the_unit_interval_are_refused_before_the_journal() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let dir = std::env::temp_dir().join(format!("vadasa-cycle-nan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cycle = |threshold: f64| {
            let config = CycleConfig {
                threshold,
                journal: Some(JournalConfig::new(&dir)),
                ..CycleConfig::default()
            };
            AnonymizationCycle::new(&risk, &anon, config)
        };
        let refused = |r: Result<CycleOutcome, CycleError>, t: f64| match r {
            Err(CycleError::Invalid(why)) => assert_eq!(Err(why), check_threshold(t)),
            other => panic!("threshold {t}: expected a refusal, got {other:?}"),
        };
        for t in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 + f64::EPSILON,
            -0.0001,
        ] {
            refused(cycle(t).run(&db, &dict), t);
            assert!(
                !dir.exists(),
                "threshold {t}: run created the journal directory"
            );
        }
        // A resume is refused before recovery reads or truncates the
        // journal.
        cycle(0.5).run(&db, &dict).unwrap();
        let journal = std::fs::read(dir.join(crate::journal::JOURNAL_FILE)).unwrap();
        let torn = &journal[..journal.len() - 3];
        std::fs::write(dir.join(crate::journal::JOURNAL_FILE), torn).unwrap();
        for t in [f64::NAN, 2.0] {
            refused(cycle(t).resume(&db, &dict), t);
            let after = std::fs::read(dir.join(crate::journal::JOURNAL_FILE)).unwrap();
            assert_eq!(after, torn, "threshold {t}: resume touched the journal");
        }
        assert!(cycle(0.5).resume(&db, &dict).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn figure5_kanon_is_served_warm() {
        let (db, dict) = fig5_db();
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let config = CycleConfig {
            granularity: StepGranularity::OneTuplePerIteration,
            ..CycleConfig::default()
        };
        let out = AnonymizationCycle::new(&risk, &anon, config)
            .run(&db, &dict)
            .unwrap();
        assert_eq!(out.final_risky, 0);
        // the run must actually have exercised the fast path
        let warm = &out.profile.warm;
        assert!(warm.warm_evals >= 1, "{warm:?}");
        assert!(warm.patched_facts >= 1);
        assert!(warm.reused_index_bytes > 0);
        assert_eq!(warm.fallback_to_cold, 0);
    }

    #[test]
    fn simulated_library_falls_back_to_cold() {
        use crate::risk::{IndividualRisk, IrEstimator};
        let (db, dict) = fig5_db();
        let risk = IndividualRisk::new(IrEstimator::SimulatedLibrary { samples: 64 });
        let anon = LocalSuppression::default();
        let config = CycleConfig {
            threshold: 0.05,
            ..CycleConfig::default()
        };
        let out = AnonymizationCycle::new(&risk, &anon, config)
            .run(&db, &dict)
            .unwrap();
        // the measure opts out of report_from_groups: the warm path must
        // fall back (documented rule) to full evaluations
        assert_eq!(out.profile.warm.warm_evals, 0);
        assert!(out.profile.warm.fallback_to_cold >= 1);
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
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let out = AnonymizationCycle::new(&risk, &anon, CycleConfig::default())
            .run(&db, &dict)
            .unwrap();
        assert_eq!(out.profile.warm.warm_evals, 0);
        assert!(out.profile.warm.fallback_to_cold >= 1);
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
