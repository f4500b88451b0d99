//! Stratified semi-naive evaluation with chase-style existentials,
//! monotonic aggregation and EGD enforcement.
//!
//! Evaluation proceeds stratum by stratum (see [`mod@crate::stratify`]). Within
//! a stratum:
//!
//! 1. Rules *without* aggregates run to a semi-naive fixpoint. Existential
//!    head variables are satisfied by minting fresh labelled nulls; firings
//!    are memoized on (rule, frontier binding) — a Skolem-style restricted
//!    chase — so warded programs terminate.
//! 2. Rules *with* aggregates run once per stratum pass: stratification
//!    guarantees their inputs are complete. Monotonic contributor semantics
//!    collapse multiple contributions of the same contributor to the
//!    extremal one (paper §4.3). A pass skips an aggregate rule whose body
//!    relations are unchanged since it last ran.
//! 3. EGDs are then enforced: bindings whose head terms differ either unify
//!    a labelled null with the other term (the database is rewritten) or —
//!    when both sides are distinct constants — produce a *violation* which
//!    is collected for human inspection rather than failing hard.
//!
//! Steps repeat until the stratum is stable, then evaluation moves up.
//!
//! Rules run compiled to slots (see `compile.rs`): joins bind into a
//! reusable frame that points into the rows it matched, and a firing's
//! variable bindings are only copied out for tracing. The sets a run's
//! rules build are looked up in one table for the run and built only
//! when new (`SetTable`); a head fact is checked against its relation
//! before its row is allocated.

use crate::ast::{AggFunc, Atom, Fact, Head, Literal, Program, Rule};
use crate::builtins::{CExpr, EvalError};
use crate::compile::{bound_pairs, CHead, CLit, CTerm, CompiledRule, Frame, HeadArg, HeadAtom};
use crate::governor::{Budget, BudgetKind, CancelToken, Governor, StopReason, Termination};
use crate::plan::{self, ArgOp, JoinPlan, StepOp};
use crate::profile::{EngineProfile, RoundProfile, StratumProfile};
use crate::storage::{Database, Relation, Row};
use crate::stratify::{check_safety, stratify, StratifyError};
use crate::value::{NullId, SetTable, SetVal, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use vadasa_obs::{Collector, Obs};

/// Rows inserted in the previous semi-naive round, keyed by predicate.
/// The rows are shared handles aliasing the stored rows, so building the
/// delta costs one `Arc` bump per fact rather than a deep copy.
type DeltaRows = HashMap<String, Vec<Row>>;

/// Chase memo, per stratum: rule index → frontier values → the values of
/// the rule's existential variables (in name order), minted as fresh
/// nulls or adopted from an existing witness fact.
type SkolemMemo = HashMap<usize, HashMap<Vec<Value>, Vec<Value>>>;

/// A program rule together with its compiled form.
#[derive(Clone, Copy)]
struct RuleRef<'p> {
    idx: usize,
    rule: &'p Rule,
    compiled: &'p CompiledRule,
}

/// The rules at `idxs`, paired with their compiled forms.
fn rule_refs<'p>(
    program: &'p Program,
    compiled: &'p [CompiledRule],
    idxs: &[usize],
) -> Vec<RuleRef<'p>> {
    idxs.iter()
        .map(|&idx| RuleRef {
            idx,
            rule: &program.rules[idx],
            compiled: &compiled[idx],
        })
        .collect()
}

/// One rule's firings in a round: each firing's frontier values (the
/// head variables its body bound, in name order), back to back.
#[derive(Debug, Default)]
struct Firings {
    values: Vec<Value>,
    count: usize,
    /// One binding per firing, materialized only when tracing.
    bindings: Vec<TraceBinding>,
    counters: JoinCounters,
    /// Nanoseconds the rule's join passes took.
    join_ns: u64,
}

/// Append `row` to `pred`'s rows in a delta map.
fn push_row(delta: &mut DeltaRows, pred: &str, row: Row) {
    match delta.get_mut(pred) {
        Some(rows) => rows.push(row),
        None => {
            delta.insert(pred.to_string(), vec![row]);
        }
    }
}

/// Join-execution counters accumulated while evaluating one rule.
#[derive(Debug, Default, Clone, Copy)]
struct JoinCounters {
    /// Rows examined as candidate matches across the join.
    candidates: u64,
    /// Hash-index probes issued.
    probes: u64,
    /// Full-relation linear scans (no usable index for the step).
    scans: u64,
}

/// Join evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMode {
    /// Planned, hash-indexed joins: positive body literals are reordered
    /// by boundness/selectivity ([`crate::plan`]) and matched by probing
    /// per-predicate hash indexes ([`crate::storage::Relation::probe`]).
    #[default]
    Indexed,
    /// Reference nested-loop evaluation: literals in source order, linear
    /// scans only, no planner and no indexes. Slow but independently
    /// simple — the oracle the indexed path is equivalence-tested against,
    /// and the "before" arm of the engine benchmark.
    Reference,
}

/// Engine configuration.
pub struct EngineConfig {
    /// Hard cap on fixpoint iterations per stratum (guards non-terminating
    /// chases outside the warded fragment).
    pub max_iterations: usize,
    /// Hard cap on total derived facts.
    pub max_facts: usize,
    /// Record provenance for every derived fact (costly; off by default).
    pub trace: bool,
    /// Optional telemetry sink. The engine accumulates its
    /// [`EngineProfile`] regardless (that is a handful of counters); a
    /// collector additionally receives the profile replayed as events
    /// after the run — see [`EngineProfile::emit`].
    pub collector: Option<Arc<dyn Collector>>,
    /// Optional live metrics registry. Where the collector sees the
    /// profile replayed *after* the run, the registry is updated at
    /// every fixpoint round — current stratum, round ordinal, delta
    /// size, facts/s — so another thread can poll a run in flight.
    pub metrics: Option<Arc<vadasa_obs::metrics::MetricsRegistry>>,
    /// Soft resource budget. Unlike the hard caps above (which abort with
    /// an error), a tripped budget ends the run *gracefully*: the engine
    /// returns the sound partial result derived so far, tagged with
    /// [`Termination::BudgetExceeded`]. Default: unlimited.
    pub budget: Budget,
    /// Optional cooperative cancellation token, polled between semi-naive
    /// rounds. When it fires the engine returns its partial result tagged
    /// [`Termination::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Join evaluation strategy ([`JoinMode::Indexed`] by default).
    pub join_mode: JoinMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_iterations: 100_000,
            max_facts: 50_000_000,
            trace: false,
            collector: None,
            metrics: None,
            budget: Budget::default(),
            cancel: None,
            join_mode: JoinMode::default(),
        }
    }
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("max_iterations", &self.max_iterations)
            .field("max_facts", &self.max_facts)
            .field("trace", &self.trace)
            .field("collector", &self.collector.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("budget", &self.budget)
            .field("cancel", &self.cancel.is_some())
            .field("join_mode", &self.join_mode)
            .finish()
    }
}

/// Reasoning failure.
#[derive(Debug)]
pub enum EngineError {
    /// The program could not be stratified.
    Stratify(StratifyError),
    /// A rule is unsafe (unbound variable where a bound one is required).
    Unsafe {
        /// Index of the offending rule.
        rule: usize,
        /// Explanation.
        message: String,
    },
    /// A type error surfaced while evaluating an expression.
    Eval {
        /// Rule that was being evaluated.
        rule: usize,
        /// The underlying expression error.
        error: EvalError,
    },
    /// A *hard* resource cap was exceeded (`EngineConfig::max_iterations`
    /// or `EngineConfig::max_facts`). Soft [`Budget`] limits never produce
    /// this error — they end the run gracefully with a partial result.
    ResourceLimit {
        /// Which cap tripped.
        which: BudgetKind,
        /// Stratum being evaluated when it tripped.
        stratum: usize,
        /// Index of the rule being applied when it tripped, when
        /// attributable (facts cap only; the iteration cap trips between
        /// rules).
        rule: Option<usize>,
        /// Total facts derived when the cap tripped.
        facts_so_far: usize,
        /// Total fixpoint iterations when the cap tripped.
        iterations_so_far: usize,
        /// The configured cap value.
        limit: usize,
    },
    /// A rule's evaluation panicked (e.g. a faulty builtin). The panic is
    /// caught at the rule boundary so one bad rule cannot take the process
    /// down.
    Internal {
        /// Label (or `rule#i` form) of the rule whose evaluation panicked.
        rule: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// Aggregates may only be followed by conditions/assignments.
    MalformedAggregateRule {
        /// Index of the offending rule.
        rule: usize,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stratify(e) => write!(f, "{e}"),
            EngineError::Unsafe { rule, message } => {
                write!(f, "rule {rule} is unsafe: {message}")
            }
            EngineError::Eval { rule, error } => {
                write!(f, "evaluation error in rule {rule}: {error}")
            }
            EngineError::ResourceLimit {
                which,
                stratum,
                rule,
                facts_so_far,
                iterations_so_far,
                limit,
            } => {
                write!(
                    f,
                    "hard resource limit exceeded: {which} (limit {limit}) in stratum {stratum}"
                )?;
                if let Some(r) = rule {
                    write!(f, " while applying rule {r}")?;
                }
                write!(
                    f,
                    "; {facts_so_far} facts derived, {iterations_so_far} iterations"
                )
            }
            EngineError::Internal { rule, message } => {
                write!(f, "rule {rule} panicked during evaluation: {message}")
            }
            EngineError::MalformedAggregateRule { rule, message } => {
                write!(f, "rule {rule} misuses aggregation: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StratifyError> for EngineError {
    fn from(e: StratifyError) -> Self {
        EngineError::Stratify(e)
    }
}

/// An EGD binding that equated two distinct constants: collected for
/// human-in-the-loop inspection (paper §4.1, Algorithm 1's "violations of
/// EGD 4 … allow for manual inspection of doubtful cases"), never fatal.
#[derive(Debug, Clone, PartialEq)]
pub struct EgdViolation {
    /// Label of the EGD rule, if any.
    pub rule_label: Option<String>,
    /// Left-hand value.
    pub left: Value,
    /// Right-hand value.
    pub right: Value,
}

/// Provenance record for one derived fact.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The derived fact.
    pub fact: Fact,
    /// Label of the deriving rule (or its index as a string).
    pub rule: String,
    /// The body binding that fired the rule.
    pub binding: Vec<(String, Value)>,
}

/// A traced firing's binding, variables in order of first occurrence.
type TraceBinding = Vec<(String, Value)>;

/// The callback a join hands each complete binding, with the run's set
/// table for what it evaluates.
type Emit<'e> = dyn FnMut(&Frame, &mut SetTable) -> Result<(), EngineError> + 'e;

/// Statistics of a reasoning run.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Facts derived (insertions that were new).
    pub facts_derived: usize,
    /// Labelled nulls minted by existential rules.
    pub nulls_created: u64,
    /// Number of EGD-driven null unifications performed.
    pub unifications: usize,
}

/// Result of running a program.
#[derive(Debug)]
pub struct ReasoningResult {
    /// The saturated database (input ∪ derived).
    pub db: Database,
    /// EGD violations (distinct constants equated).
    pub violations: Vec<EgdViolation>,
    /// Run statistics.
    pub stats: EvalStats,
    /// Per-stratum / per-round / per-rule execution profile (always
    /// accumulated; the breakdown behind `stats`).
    pub profile: EngineProfile,
    /// Provenance (only populated when `trace` is enabled).
    pub trace: Vec<TraceEntry>,
    /// How the run ended: fixpoint (complete), or an early, graceful stop
    /// (budget / cancellation) leaving a sound partial result.
    pub termination: Termination,
}

/// How a goal-directed run ([`Engine::run_with_goals`]) handled its
/// goals: rewritten, degenerate, or fallen back to the full program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MagicReport {
    /// The magic-sets rewrite was applied: only goal-relevant facts were
    /// derived and the `magic#…` scaffolding was stripped afterwards.
    pub applied: bool,
    /// No goal carried a bound argument on a derived predicate, so the
    /// original program ran byte for byte.
    pub degenerate: bool,
    /// The rewrite refused (or the rewritten program failed to
    /// stratify): the soundness argument, with the full program run in
    /// its place.
    pub fallback: Option<String>,
    /// What the rewrite did, when applied.
    pub stats: crate::magic::MagicStats,
}

/// Result of [`Engine::run_with_goals`]: the reasoning result plus how
/// the magic machinery behaved.
#[derive(Debug)]
pub struct GoalRun {
    /// The reasoning result. When the rewrite applied, the goal
    /// predicates hold a *superset* of the goal slice of the full
    /// fixpoint (magic sets widen transitively); filter by the goal
    /// constants (see [`crate::query::goal_slice`]) before comparing
    /// against a full run.
    pub result: ReasoningResult,
    /// What the goal-directed machinery did.
    pub magic: MagicReport,
}

/// How one stratum (or one semi-naive fixpoint within it) ended: ran to
/// completion, or was stopped early by the governor.
enum StratumEnd {
    /// The stratum reached stability.
    Complete,
    /// The governor stopped it; the database holds a sound partial result.
    Stopped(Termination),
}

/// Run `f`, converting a panic into [`EngineError::Internal`] attributed
/// to the given rule. This is the isolation boundary that keeps one faulty
/// builtin or rule evaluation from taking the whole process down.
fn isolate_rule<T>(
    program: &Program,
    rule_idx: usize,
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(EngineError::Internal {
            rule: rule_label(program, rule_idx),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Human-readable rule name: the `@label` when present, `rule#i` otherwise.
fn rule_label(program: &Program, idx: usize) -> String {
    match program.rules.get(idx) {
        Some(rule) => rule_label_of(rule, idx),
        None => format!("rule#{idx}"),
    }
}

/// [`rule_label`] of a rule at hand.
fn rule_label_of(rule: &Rule, idx: usize) -> String {
    rule.label.clone().unwrap_or_else(|| format!("rule#{idx}"))
}

/// Render a panic payload (typically a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Attribute a governor stop to a [`Termination`].
fn stop_termination(stop: StopReason, stratum: usize, rule: Option<String>) -> Termination {
    match stop {
        StopReason::Cancelled => Termination::Cancelled,
        StopReason::Budget(which) => Termination::BudgetExceeded {
            which,
            stratum,
            rule,
        },
    }
}

/// The reasoning engine.
#[derive(Debug, Default)]
pub struct Engine {
    /// Configuration knobs.
    pub config: EngineConfig,
}

impl Engine {
    /// Engine with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// Run `program` over `input`, returning the saturated database.
    pub fn run(&self, program: &Program, mut db: Database) -> Result<ReasoningResult, EngineError> {
        for (i, rule) in program.rules.iter().enumerate() {
            check_safety(rule).map_err(|m| EngineError::Unsafe {
                rule: i,
                message: m,
            })?;
            validate_aggregate_shape(rule, i)?;
        }
        let strat = stratify(program)?;
        let compiled: Vec<CompiledRule> = program.rules.iter().map(CompiledRule::new).collect();

        for fact in &program.facts {
            db.insert_fact(fact.clone());
        }

        let mut stats = EvalStats::default();
        let mut violations = Vec::new();
        let mut trace = Vec::new();
        let mut profile = EngineProfile::for_program(program);
        let mut sets = SetTable::default();
        let intern_before = crate::intern::stats();
        let nulls_before = db.nulls_minted();
        let run_start = Instant::now();
        let governor = Governor::new(self.config.budget, self.config.cancel.clone());
        let mut termination = Termination::Fixpoint;

        for (stratum_idx, stratum) in strat.strata.iter().enumerate() {
            let rules = rule_refs(program, &compiled, stratum);

            profile.strata.push(StratumProfile {
                stratum: stratum_idx,
                ..StratumProfile::default()
            });
            if let Some(m) = &self.config.metrics {
                m.set_gauge("engine.stratum", stratum_idx as f64);
            }
            let stratum_start = Instant::now();
            let facts_before = stats.facts_derived;

            let end = self.run_stratum(
                &rules,
                &mut db,
                &mut stats,
                &mut trace,
                &mut violations,
                program,
                &mut profile,
                stratum_idx,
                &governor,
                &mut sets,
            )?;

            let s = &mut profile.strata[stratum_idx];
            s.dur_ns = stratum_start.elapsed().as_nanos() as u64;
            s.facts_derived = (stats.facts_derived - facts_before) as u64;

            if let StratumEnd::Stopped(t) = end {
                termination = t;
                break;
            }
        }

        stats.nulls_created = db.nulls_minted() - nulls_before;
        profile.total_ns = run_start.elapsed().as_nanos() as u64;
        profile.facts_derived = stats.facts_derived as u64;
        profile.iterations = stats.iterations as u64;
        profile.nulls_created = stats.nulls_created;
        profile.unifications = stats.unifications as u64;
        profile.violations = violations.len() as u64;
        profile.sets_built = sets.built;
        profile.sets_shared = sets.shared;
        // The interner is process-global; the delta over this run is what
        // this run's parsing/derivation saved.
        profile.intern_hits = crate::intern::stats()
            .hits
            .saturating_sub(intern_before.hits);
        if let Some(collector) = &self.config.collector {
            profile.emit(&Obs::new(Some(collector.as_ref())));
        }
        Ok(ReasoningResult {
            db,
            violations,
            stats,
            profile,
            trace,
            termination,
        })
    }

    /// Goal-directed run: rewrite `program` with magic sets for `goals`
    /// (see [`crate::magic`]) and evaluate the restricted program, so
    /// only goal-relevant facts are ever derived.
    ///
    /// The contract mirrors the rewrite's: when the rewrite applies, the
    /// goal predicates hold a superset of the goal slice of the full
    /// fixpoint and every fact in them is a fact of the full fixpoint.
    /// When the goals are degenerate (no bound argument on a derived
    /// predicate) the original program runs byte for byte. When the
    /// rewrite refuses — or the rewritten program unexpectedly fails
    /// stratification — the engine falls back to the full program,
    /// counts a `magic_fallbacks` in the profile and records the reason
    /// in [`MagicReport::fallback`]; it never silently under-derives.
    /// The `magic#…` scaffolding relations are stripped from the result
    /// before it is returned.
    pub fn run_with_goals(
        &self,
        program: &Program,
        db: Database,
        goals: &[Atom],
        options: crate::magic::MagicOptions,
    ) -> Result<GoalRun, EngineError> {
        use crate::magic::{is_magic_pred, rewrite, MagicRewrite};

        let (rewritten, stats) = match rewrite(program, goals, options) {
            Ok(MagicRewrite::Degenerate) => {
                let result = self.run(program, db)?;
                return Ok(GoalRun {
                    result,
                    magic: MagicReport {
                        degenerate: true,
                        ..MagicReport::default()
                    },
                });
            }
            Ok(MagicRewrite::Rewritten { program, stats }) => (program, stats),
            Err(refusal) => {
                let mut result = self.run(program, db)?;
                result.profile.magic_fallbacks += 1;
                return Ok(GoalRun {
                    result,
                    magic: MagicReport {
                        fallback: Some(refusal.reason),
                        ..MagicReport::default()
                    },
                });
            }
        };
        // The rewrite preserves stratifiability on its supported
        // fragment; a failure here means a blind spot in the analysis,
        // so fall back to the (known-stratified) full program rather
        // than erroring out of a sound query.
        if let Err(e) = stratify(&rewritten) {
            let mut result = self.run(program, db)?;
            result.profile.magic_fallbacks += 1;
            return Ok(GoalRun {
                result,
                magic: MagicReport {
                    fallback: Some(format!("rewritten program does not stratify: {e}")),
                    ..MagicReport::default()
                },
            });
        }
        let mut result = self.run(&rewritten, db)?;
        let scaffolding: Vec<String> = result
            .db
            .relation_names()
            .filter(|p| is_magic_pred(p))
            .map(|p| p.to_string())
            .collect();
        for pred in scaffolding {
            result.db.remove_relation(&pred);
        }
        result.profile.magic_goal_seeds = stats.goal_seeds;
        result.profile.magic_guarded_rules = stats.guarded_rules;
        result.profile.magic_seed_rules = stats.seed_rules;
        result.profile.magic_pruned_rules = stats.pruned_rules;
        Ok(GoalRun {
            result,
            magic: MagicReport {
                applied: true,
                stats,
                ..MagicReport::default()
            },
        })
    }

    /// Evaluate one stratum to stability (or an early governed stop):
    /// plain rules to a semi-naive fixpoint, then aggregate rules, then
    /// EGDs, repeating until a pass changes nothing.
    ///
    /// An aggregate rule is skipped on a pass when no relation its body
    /// reads has changed since it last ran: its derivations are a function
    /// of those relations' rows and their order, and all of them are
    /// already stored. Relation generations make "changed" exact —
    /// every insert and EGD rewrite bumps one.
    #[allow(clippy::too_many_arguments)]
    fn run_stratum(
        &self,
        rules: &[RuleRef],
        db: &mut Database,
        stats: &mut EvalStats,
        trace: &mut Vec<TraceEntry>,
        violations: &mut Vec<EgdViolation>,
        program: &Program,
        profile: &mut EngineProfile,
        stratum_idx: usize,
        governor: &Governor,
        sets: &mut SetTable,
    ) -> Result<StratumEnd, EngineError> {
        let kind = |f: fn(&CHead) -> bool| -> Vec<RuleRef> {
            rules
                .iter()
                .filter(|r| f(&r.compiled.head))
                .copied()
                .collect()
        };
        let plain = kind(|h| matches!(h, CHead::Plain { .. }));
        let agg = kind(|h| matches!(h, CHead::Aggregate { .. }));
        let egds = kind(|h| matches!(h, CHead::Equality(..)));

        // Chase memoization table, per stratum: (rule idx, frontier
        // binding) → invented nulls for the rule's existential vars.
        let mut skolem = SkolemMemo::new();
        // Per aggregate rule: the generations of its body relations when
        // it last ran.
        let mut agg_inputs: Vec<Option<Vec<Option<u64>>>> = vec![None; agg.len()];

        loop {
            profile.strata[stratum_idx].passes += 1;

            // 1. plain rules to fixpoint (semi-naive)
            let end = self.fixpoint_plain(
                &plain,
                db,
                &mut skolem,
                stats,
                trace,
                program,
                profile,
                stratum_idx,
                governor,
                sets,
            )?;
            if let StratumEnd::Stopped(t) = end {
                return Ok(StratumEnd::Stopped(t));
            }

            // 2. aggregate rules, one pass, skipping those whose inputs
            // are unchanged
            let mut changed = false;
            let agg_start = Instant::now();
            for (&r, seen) in agg.iter().zip(&mut agg_inputs) {
                let inputs: Vec<Option<u64>> = r
                    .rule
                    .body_preds()
                    .iter()
                    .map(|(pred, _)| db.generation(pred))
                    .collect();
                if seen.as_ref() == Some(&inputs) {
                    profile.strata[stratum_idx].aggregate_skips += 1;
                    continue;
                }
                *seen = Some(inputs);
                changed |= isolate_rule(program, r.idx, || {
                    self.apply_aggregate_rule(r, db, stats, trace, profile, sets)
                })?;
            }
            profile.strata[stratum_idx].aggregate_ns += agg_start.elapsed().as_nanos() as u64;

            // 3. EGDs. Substitutions must also rewrite the skolem memo
            // table, otherwise plain rules would re-mint the replaced
            // null on the next pass and the stratum would never settle.
            for &r in &egds {
                let subs = isolate_rule(program, r.idx, || {
                    self.apply_egd(r, db, stats, violations, profile, sets)
                })?;
                if !subs.is_empty() {
                    changed = true;
                    for (from, to) in &subs {
                        for v in skolem.values_mut().flat_map(|m| m.values_mut()).flatten() {
                            if matches!(v, Value::Null(n) if n == from) {
                                *v = to.clone();
                            }
                        }
                    }
                }
            }

            if !changed {
                return Ok(StratumEnd::Complete);
            }
            stats.iterations += 1;
            if stats.iterations > self.config.max_iterations {
                return Err(EngineError::ResourceLimit {
                    which: BudgetKind::Iterations,
                    stratum: stratum_idx,
                    rule: None,
                    facts_so_far: stats.facts_derived,
                    iterations_so_far: stats.iterations,
                    limit: self.config.max_iterations,
                });
            }
            // Between passes the governor gets a look too: aggregate/EGD
            // passes can loop without ever re-entering the round loop.
            if governor.active() {
                if let Some(stop) = governor.stop_reason(stats.facts_derived) {
                    return Ok(StratumEnd::Stopped(stop_termination(
                        stop,
                        stratum_idx,
                        None,
                    )));
                }
            }
        }
    }

    /// Semi-naive fixpoint over plain (non-aggregate, non-EGD) rules.
    /// Returns early — with a sound partial delta already inserted — when
    /// the governor reports a budget trip or cancellation. The first round
    /// evaluates every rule in full; later rounds join against the rows
    /// the previous round inserted.
    #[allow(clippy::too_many_arguments)]
    fn fixpoint_plain(
        &self,
        rules: &[RuleRef],
        db: &mut Database,
        skolem: &mut SkolemMemo,
        stats: &mut EvalStats,
        trace: &mut Vec<TraceEntry>,
        program: &Program,
        profile: &mut EngineProfile,
        stratum_idx: usize,
        governor: &Governor,
        sets: &mut SetTable,
    ) -> Result<StratumEnd, EngineError> {
        // Delta tracking: predicate → set of rows added in the previous round.
        let mut delta: Option<DeltaRows> = None;

        loop {
            // Governed stop check, once per round. With no budget and no
            // cancel token this is a single boolean test.
            if governor.active() {
                if let Some(stop) = governor.stop_reason(stats.facts_derived) {
                    return Ok(StratumEnd::Stopped(stop_termination(
                        stop,
                        stratum_idx,
                        None,
                    )));
                }
            }

            let round_start = Instant::now();

            // Phase 1 — plan. One plan per (rule, delta-focus) pass, and
            // every hash index those plans will probe is built while we
            // still hold `&mut db`. From here until the merge the database
            // is frozen: every rule joins against the same state.
            let plans: Vec<Vec<JoinPlan>> = rules
                .iter()
                .map(|r| self.round_plans(r.compiled, db, delta.as_ref()))
                .collect();
            if self.config.join_mode == JoinMode::Indexed {
                for plan in plans.iter().flatten() {
                    if plan.dead {
                        // Semi-join prune: the plan reads an empty
                        // relation and cannot bind; skip its index
                        // builds here and its joins in phase 2.
                        profile.planner_prunes += 1;
                        continue;
                    }
                    if plan.reordered {
                        profile.planner_reorders += 1;
                    }
                    for (pred, bound) in plan.index_needs() {
                        if db.relation(pred).is_some() {
                            db.relation_mut(pred).ensure_index(bound);
                        }
                    }
                }
            }
            let planned = Instant::now();

            // Phase 2 — evaluate every rule's joins against the frozen
            // database.
            let results: Vec<Result<Firings, EngineError>> = rules
                .iter()
                .zip(&plans)
                .map(|(&r, plans)| self.eval_one_rule(program, r, plans, db, delta.as_ref(), sets))
                .collect();
            let joined = Instant::now();

            // Phase 3 — merge, strictly in rule order: mint every firing's
            // nulls (sequential and deterministic), then insert the head
            // facts. Errors surface in rule order.
            let mut minted: Vec<(RuleRef, Firings, Vec<Value>)> = Vec::with_capacity(rules.len());
            for (&r, result) in rules.iter().zip(results) {
                let firings = result?;
                let rp = &mut profile.rules[r.idx];
                rp.join_candidates += firings.counters.candidates;
                rp.join_ns += firings.join_ns;
                rp.firings += firings.count as u64;
                profile.index_probes += firings.counters.probes;
                profile.index_scans += firings.counters.scans;
                let nulls = isolate_rule(program, r.idx, || {
                    Ok(self.existentials(r, &firings, db, skolem))
                })?;
                minted.push((r, firings, nulls));
            }

            // Each head row is assembled as references to its values and
            // probed against its relation: a fact already there costs a
            // hash and a compare, and only a new one is allocated.
            let mut next_delta: DeltaRows = HashMap::new();
            let mut inserted = 0u64;
            let mut stopped: Option<Termination> = None;
            let mut head: Vec<&Value> = Vec::new();
            'merge: for (r, firings, nulls) in &minted {
                let CHead::Plain {
                    atoms,
                    frontier,
                    existentials,
                } = &r.compiled.head
                else {
                    continue;
                };
                for i in 0..firings.count {
                    let values = firings.frontier(i, frontier.len());
                    let nulls = &nulls[i * existentials..(i + 1) * existentials];
                    for atom in atoms {
                        head.clear();
                        head.extend(atom.args.iter().map(|a| match a {
                            HeadArg::Const(v) => v,
                            HeadArg::Frontier(j) => &values[*j],
                            HeadArg::Null(j) => &nulls[*j],
                        }));
                        let Some(row) = db.insert_refs(&atom.pred, &head) else {
                            continue;
                        };
                        inserted += 1;
                        stats.facts_derived += 1;
                        profile.rules[r.idx].facts_derived += 1;
                        if stats.facts_derived > self.config.max_facts {
                            return Err(EngineError::ResourceLimit {
                                which: BudgetKind::Facts,
                                stratum: stratum_idx,
                                rule: Some(r.idx),
                                facts_so_far: stats.facts_derived,
                                iterations_so_far: stats.iterations,
                                limit: self.config.max_facts,
                            });
                        }
                        if self.config.trace {
                            trace.push(TraceEntry {
                                fact: Fact::new(&*atom.pred, row.to_vec()),
                                rule: rule_label(program, r.idx),
                                binding: firings.bindings[i].clone(),
                            });
                        }
                        push_row(&mut next_delta, &atom.pred, row);
                        // Soft facts budget: stop inserting mid-round so the
                        // partial result stays close to the cap. The facts
                        // already inserted are sound derivations and are kept.
                        if governor.active() {
                            if let Some(cap) = governor.budget().max_facts {
                                if stats.facts_derived >= cap {
                                    stopped = Some(Termination::BudgetExceeded {
                                        which: BudgetKind::Facts,
                                        stratum: stratum_idx,
                                        rule: Some(rule_label(program, r.idx)),
                                    });
                                    break 'merge;
                                }
                            }
                        }
                    }
                }
            }
            let merged = Instant::now();

            let s = &mut profile.strata[stratum_idx];
            s.rounds.push(RoundProfile {
                round: s.rounds.len(),
                delta: inserted,
                dur_ns: round_start.elapsed().as_nanos() as u64,
                plan_ns: (planned - round_start).as_nanos() as u64,
                join_ns: (joined - planned).as_nanos() as u64,
                merge_ns: (merged - joined).as_nanos() as u64,
            });
            if let Some(m) = &self.config.metrics {
                m.set_gauge("engine.stratum", stratum_idx as f64);
                m.set_gauge("engine.round", (s.rounds.len() - 1) as f64);
                m.set_gauge("engine.delta_rows", inserted as f64);
                m.observe_rate("engine.facts_per_sec", stats.facts_derived as f64);
            }
            if let Some(t) = stopped {
                return Ok(StratumEnd::Stopped(t));
            }

            stats.iterations += 1;
            if stats.iterations > self.config.max_iterations {
                return Err(EngineError::ResourceLimit {
                    which: BudgetKind::Iterations,
                    stratum: stratum_idx,
                    rule: None,
                    facts_so_far: stats.facts_derived,
                    iterations_so_far: stats.iterations,
                    limit: self.config.max_iterations,
                });
            }
            if inserted == 0 {
                return Ok(StratumEnd::Complete);
            }
            delta = Some(next_delta);
        }
    }

    /// Plans for one rule for the current round: a single full-evaluation
    /// plan on the first round, otherwise one delta-focused plan per
    /// positive body literal whose predicate actually received new rows
    /// (an empty delta can produce no bindings, so those passes are
    /// skipped outright).
    fn round_plans(
        &self,
        rule: &CompiledRule,
        db: &Database,
        delta: Option<&DeltaRows>,
    ) -> Vec<JoinPlan> {
        let len = rule.body.len();
        let plan_for = |focus: Option<usize>| match self.config.join_mode {
            JoinMode::Reference => plan::identity_plan(rule, len, focus),
            JoinMode::Indexed => plan::plan(rule, len, db, focus),
        };
        match delta {
            None => vec![plan_for(None)],
            Some(d) => rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, lit)| match lit {
                    CLit::Pos(atom) => d.get(&*atom.pred).is_some_and(|rows| !rows.is_empty()),
                    _ => false,
                })
                .map(|(i, _)| plan_for(Some(i)))
                .collect(),
        }
    }

    /// All join passes of one plain rule for the round, isolated against
    /// panics at the rule boundary (a faulty builtin cannot take down the
    /// round). Every pass binds into the same frame; a firing appends its
    /// frontier values to the rule's buffer, plus a full binding only when
    /// tracing.
    fn eval_one_rule(
        &self,
        program: &Program,
        r: RuleRef,
        plans: &[JoinPlan],
        db: &Database,
        delta: Option<&DeltaRows>,
        sets: &mut SetTable,
    ) -> Result<Firings, EngineError> {
        isolate_rule(program, r.idx, || {
            let start = Instant::now();
            let mut firings = Firings::default();
            let CHead::Plain { frontier, .. } = &r.compiled.head else {
                return Ok(firings);
            };
            let names = &r.compiled.names;
            let mut frame = r.compiled.frame();
            for plan in plans {
                if plan.dead {
                    // Pruned in planning: an empty input relation makes
                    // this pass vacuous.
                    continue;
                }
                let mut emit = |frame: &Frame, _: &mut SetTable| {
                    for &s in frontier {
                        let v = frame
                            .get(s)
                            .ok_or_else(|| unbound_head_var(r.idx, &names[s]))?;
                        firings.values.push(v.clone());
                    }
                    firings.count += 1;
                    if self.config.trace {
                        firings
                            .bindings
                            .push(bound_pairs(names, frame.values()).collect());
                    }
                    Ok(())
                };
                Join::new(plan, db, delta, r.idx, &mut firings.counters, sets)
                    .step(0, &mut frame, &mut emit)?;
            }
            firings.join_ns = start.elapsed().as_nanos() as u64;
            Ok(firings)
        })
    }

    /// One plain rule's existential values, firing by firing, back to
    /// back. They are memoized on (rule, frontier values) — the restricted
    /// chase's Skolem table — and a single-atom head first looks for an
    /// existing witness fact to adopt; otherwise fresh nulls are minted.
    fn existentials(
        &self,
        r: RuleRef,
        firings: &Firings,
        db: &mut Database,
        skolem: &mut SkolemMemo,
    ) -> Vec<Value> {
        let CHead::Plain {
            atoms,
            frontier,
            existentials,
        } = &r.compiled.head
        else {
            return Vec::new();
        };
        if *existentials == 0 {
            return Vec::new();
        }
        let memo = skolem.entry(r.idx).or_default();
        let mut out = Vec::with_capacity(firings.count * existentials);
        for i in 0..firings.count {
            let values = firings.frontier(i, frontier.len());
            if let Some(nulls) = memo.get(values) {
                out.extend_from_slice(nulls);
                continue;
            }
            // Restricted-chase satisfaction check: if the database already
            // contains a witness for this frontier (for single-atom
            // heads), adopt its values instead of minting fresh nulls —
            // this makes re-running a saturated database a no-op. Fresh
            // nulls are minted in existential-variable name order.
            let witness = match atoms.as_slice() {
                [atom] => find_existential_witness(atom, values, *existentials, db),
                _ => None,
            };
            let nulls =
                witness.unwrap_or_else(|| (0..*existentials).map(|_| db.fresh_null()).collect());
            out.extend_from_slice(&nulls);
            memo.insert(values.to_vec(), nulls);
        }
        out
    }

    /// Join the first `len` body literals of a rule in full (no delta
    /// focus) against the current database: plan, build the indexes the
    /// plan probes, join. Used by the aggregate and EGD paths, which
    /// re-evaluate in full.
    fn join_full(
        &self,
        r: RuleRef,
        len: usize,
        db: &mut Database,
        profile: &mut EngineProfile,
        sets: &mut SetTable,
        emit: &mut Emit,
    ) -> Result<(), EngineError> {
        let plan = match self.config.join_mode {
            JoinMode::Reference => plan::identity_plan(r.compiled, len, None),
            JoinMode::Indexed => plan::plan(r.compiled, len, db, None),
        };
        if plan.dead {
            // Semi-join prune: some positive literal reads an empty
            // relation, so there are no bindings to enumerate.
            profile.planner_prunes += 1;
            return Ok(());
        }
        if plan.reordered {
            profile.planner_reorders += 1;
        }
        for (pred, bound) in plan.index_needs() {
            if db.relation(pred).is_some() {
                db.relation_mut(pred).ensure_index(bound);
            }
        }
        let mut counters = JoinCounters::default();
        let start = Instant::now();
        Join::new(&plan, db, None, r.idx, &mut counters, sets).step(
            0,
            &mut r.compiled.frame(),
            emit,
        )?;
        let rp = &mut profile.rules[r.idx];
        rp.join_ns += start.elapsed().as_nanos() as u64;
        rp.join_candidates += counters.candidates;
        profile.index_probes += counters.probes;
        profile.index_scans += counters.scans;
        Ok(())
    }

    /// Evaluate one aggregate rule. Returns true if new facts were derived.
    ///
    /// The join of the body before the first aggregate folds straight into
    /// groups keyed by the group slots; groups, and contributions within a
    /// group, keep first-seen order, so the rule emits deterministically.
    /// A group's first binding is its representative for non-group
    /// variables the rest of the body may read.
    fn apply_aggregate_rule(
        &self,
        r: RuleRef,
        db: &mut Database,
        stats: &mut EvalStats,
        trace: &mut Vec<TraceEntry>,
        profile: &mut EngineProfile,
        sets: &mut SetTable,
    ) -> Result<bool, EngineError> {
        let CHead::Aggregate {
            prefix,
            group,
            atoms,
        } = &r.compiled.head
        else {
            return Ok(false);
        };
        let suffix = &r.compiled.body[*prefix..];
        let aggs: Vec<(AggFunc, &CExpr, &[CExpr])> = suffix
            .iter()
            .filter_map(|l| match l {
                CLit::Agg {
                    func,
                    arg,
                    contributors,
                    ..
                } => Some((*func, arg, contributors.as_slice())),
                _ => None,
            })
            .collect();

        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut key: Vec<Value> = Vec::new();
        let mut contributor: Vec<Value> = Vec::new();
        // A fold error surfaces only once the join is through: a join
        // error raised later in the enumeration takes precedence.
        let mut fold_error: Option<EvalError> = None;
        let mut firings = 0u64;
        self.join_full(r, *prefix, db, profile, sets, &mut |frame, sets| {
            firings += 1;
            if fold_error.is_some() {
                return Ok(());
            }
            key.clear();
            key.extend(
                group
                    .iter()
                    .map(|&s| frame.get(s).cloned().unwrap_or(Value::Bool(false))),
            );
            let g = match index.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push(Group {
                        key: key.clone(),
                        rep: frame.to_owned_values(),
                        per_agg: (0..aggs.len()).map(|_| Contributions::default()).collect(),
                    });
                    groups.len() - 1
                }
            };
            'aggs: for (ai, (func, arg, contributors)) in aggs.iter().enumerate() {
                contributor.clear();
                for c in contributors.iter() {
                    match c.eval(frame.values(), sets) {
                        Ok(v) => contributor.push(v.into_owned()),
                        Err(EvalError::Undefined(_)) => continue 'aggs,
                        Err(e) => {
                            fold_error = Some(e);
                            return Ok(());
                        }
                    }
                }
                match arg.eval(frame.values(), sets) {
                    Ok(v) => groups[g].per_agg[ai].add(*func, &contributor, v),
                    Err(EvalError::Undefined(_)) => {}
                    Err(e) => {
                        fold_error = Some(e);
                        return Ok(());
                    }
                }
            }
            Ok(())
        })?;
        if let Some(error) = fold_error {
            return Err(EngineError::Eval { rule: r.idx, error });
        }
        profile.rules[r.idx].firings += firings;

        // Finalize groups: compute aggregate values, run the suffix
        // conditions/assignments, emit head facts.
        let eval_error = |error| EngineError::Eval { rule: r.idx, error };
        let mut to_insert: Vec<(&str, Vec<Value>, Option<TraceBinding>)> = Vec::new();
        'group: for g in groups {
            let mut frame = g.rep;
            for (&s, v) in group.iter().zip(g.key) {
                frame[s] = Some(v);
            }
            let mut per_agg = g.per_agg.into_iter();
            for (offset, lit) in suffix.iter().enumerate() {
                match lit {
                    CLit::Agg { slot, func, .. } => {
                        let Some(contributions) = per_agg.next() else {
                            continue 'group;
                        };
                        frame[*slot] = Some(finalize_aggregate(*func, contributions.values.iter()));
                    }
                    CLit::Cond(expr) => match expr.eval(frame.as_slice(), sets) {
                        Ok(v) if v.is_true() => {}
                        Ok(_) | Err(EvalError::Undefined(_)) => continue 'group,
                        Err(e) => return Err(eval_error(e)),
                    },
                    CLit::Let { slot, expr } => match expr.eval(frame.as_slice(), sets) {
                        Ok(v) => match &frame[*slot] {
                            Some(existing) if *existing != *v => continue 'group,
                            Some(_) => {}
                            None => frame[*slot] = Some(v.into_owned()),
                        },
                        Err(EvalError::Undefined(_)) => continue 'group,
                        Err(e) => return Err(eval_error(e)),
                    },
                    CLit::Pos(_) | CLit::Neg(_) => {
                        return Err(EngineError::MalformedAggregateRule {
                            rule: r.idx,
                            message: format!(
                                "literal {:?} after an aggregate; only conditions and assignments are allowed",
                                r.rule.body[prefix + offset]
                            ),
                        })
                    }
                }
            }
            for atom in atoms {
                let args = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        CTerm::Const(v) => Ok(v.clone()),
                        CTerm::Slot(s) => frame[*s].clone().ok_or_else(|| {
                            EngineError::MalformedAggregateRule {
                                rule: r.idx,
                                message: format!(
                                    "head variable {} of an aggregate rule must be a group key or an aggregate result",
                                    r.compiled.names[*s]
                                ),
                            }
                        }),
                    })
                    .collect::<Result<Vec<Value>, EngineError>>()?;
                let binding = self
                    .config
                    .trace
                    .then(|| bound_pairs(&r.compiled.names, frame.as_slice()).collect());
                to_insert.push((&atom.pred, args, binding));
            }
        }
        let mut changed = false;
        for (pred, args, binding) in to_insert {
            if let Some(row) = db.insert_shared(pred, args) {
                changed = true;
                stats.facts_derived += 1;
                profile.rules[r.idx].facts_derived += 1;
                if let Some(binding) = binding {
                    trace.push(TraceEntry {
                        fact: Fact::new(pred, row.to_vec()),
                        rule: rule_label_of(r.rule, r.idx),
                        binding,
                    });
                }
            }
        }
        Ok(changed)
    }

    /// Apply one EGD rule. Null/value bindings are unified by rewriting the
    /// database; constant clashes are collected as violations. Returns the
    /// substitutions performed, in order.
    fn apply_egd(
        &self,
        r: RuleRef,
        db: &mut Database,
        stats: &mut EvalStats,
        violations: &mut Vec<EgdViolation>,
        profile: &mut EngineProfile,
        sets: &mut SetTable,
    ) -> Result<Vec<(NullId, Value)>, EngineError> {
        let CHead::Equality(lt, rt) = &r.compiled.head else {
            return Ok(Vec::new());
        };
        let mut subs: Vec<(NullId, Value)> = Vec::new();
        // Re-evaluate until no more unifications: each rewrite can expose
        // new bindings.
        loop {
            let mut sides: Vec<(Option<Value>, Option<Value>)> = Vec::new();
            self.join_full(
                r,
                r.compiled.body.len(),
                db,
                profile,
                sets,
                &mut |frame, _| {
                    sides.push((lt.value(frame.values()), rt.value(frame.values())));
                    Ok(())
                },
            )?;
            profile.rules[r.idx].firings += sides.len() as u64;
            let mut did_unify = false;
            for sides in sides {
                // EGD safety guarantees both sides are bound; an unbound
                // side (impossible for checked rules) contributes nothing.
                let (Some(l), Some(rv)) = sides else {
                    continue;
                };
                if l == rv {
                    continue;
                }
                let unify = match (&l, &rv) {
                    (Value::Null(n), other) | (other, Value::Null(n)) => Some((*n, other.clone())),
                    _ => None,
                };
                match unify {
                    Some((n, other)) => {
                        db.substitute_null(n, &other);
                        subs.push((n, other));
                        stats.unifications += 1;
                        profile.rules[r.idx].unifications += 1;
                        did_unify = true;
                        break; // bindings are stale after a rewrite
                    }
                    None => {
                        let viol = EgdViolation {
                            rule_label: r.rule.label.clone(),
                            left: l,
                            right: rv,
                        };
                        if !violations.contains(&viol) {
                            violations.push(viol);
                        }
                    }
                }
            }
            if !did_unify {
                break;
            }
        }
        Ok(subs)
    }
}

/// The error for a head variable neither bound by the body nor
/// existential.
fn unbound_head_var(rule: usize, var: &str) -> EngineError {
    EngineError::Unsafe {
        rule,
        message: format!("head variable {var} is neither bound by the body nor existential"),
    }
}

impl Firings {
    /// The frontier values of firing `i`, for a frontier of `width` slots.
    fn frontier(&self, i: usize, width: usize) -> &[Value] {
        &self.values[i * width..(i + 1) * width]
    }
}

/// One aggregation group: its key, its representative (first) binding's
/// frame and one contribution table per aggregate literal.
struct Group {
    key: Vec<Value>,
    rep: Vec<Option<Value>>,
    per_agg: Vec<Contributions>,
}

/// Contributions to one aggregate within a group, one per contributor, in
/// first-seen order. Monotonic semantics collapse repeated contributions
/// of a contributor to the extremal one (`munion` merges them).
///
/// `index` maps a contributor to its position in `values`, keyed by its
/// value when the aggregate names one (`mcount(<I>)`, `msum(W, <I>)`), so
/// a new contributor costs no allocation, and by the tuple of its values
/// when it names several.
#[derive(Default)]
struct Contributions {
    index: HashMap<Value, usize>,
    values: Vec<Value>,
}

impl Contributions {
    fn add(&mut self, func: AggFunc, contributor: &[Value], contribution: Cow<'_, Value>) {
        let key = match contributor {
            [c] => c.clone(),
            _ => Value::Tuple(contributor.into()),
        };
        let next = self.values.len();
        let i = *self.index.entry(key).or_insert(next);
        if i == next {
            self.values.push(contribution.into_owned());
            return;
        }
        let old = &mut self.values[i];
        match func {
            // monotone-increasing aggregates keep the max
            AggFunc::MSum | AggFunc::MCount | AggFunc::MProd | AggFunc::MMax => {
                if *contribution > *old {
                    *old = contribution.into_owned();
                }
            }
            AggFunc::MMin => {
                if *contribution < *old {
                    *old = contribution.into_owned();
                }
            }
            AggFunc::MUnion => *old = merge_union(old, &contribution),
        }
    }
}

/// One execution of a join plan against a frozen database, binding into
/// the caller's frame. Each positive step probes the prebuilt hash index
/// when the plan carries a bound mask and the key is bound (falling back
/// to a linear scan if the index is missing or stale), scans the delta
/// rows when it is the focused literal, and scans the relation otherwise.
/// Negation/condition/assignment steps run once their slots are bound —
/// the planner schedules them so. A matched row's values are bound into
/// the frame by reference: the database stays frozen while `'a` lasts.
struct Join<'a, 'j> {
    plan: &'a JoinPlan,
    /// Per step: the relation a positive or negated atom reads.
    rels: Vec<Option<&'a Relation>>,
    /// The focused literal's delta rows.
    delta: &'a [Row],
    rule_idx: usize,
    counters: &'j mut JoinCounters,
    sets: &'j mut SetTable,
    /// Probe-key and negation-row buffer, reused across lookups.
    key: Vec<Value>,
}

impl<'a, 'j> Join<'a, 'j> {
    fn new(
        plan: &'a JoinPlan,
        db: &'a Database,
        delta: Option<&'a DeltaRows>,
        rule_idx: usize,
        counters: &'j mut JoinCounters,
        sets: &'j mut SetTable,
    ) -> Self {
        let mut focused: &[Row] = &[];
        let rels = plan
            .steps
            .iter()
            .map(|s| match &s.op {
                StepOp::Match { pred, .. } if plan.focus == Some(s.lit) => {
                    if let Some(rows) = delta.and_then(|d| d.get(&**pred)) {
                        focused = rows;
                    }
                    None
                }
                StepOp::Match { pred, .. } | StepOp::Absent { pred, .. } => db.relation(pred),
                _ => None,
            })
            .collect();
        Join {
            plan,
            rels,
            delta: focused,
            rule_idx,
            counters,
            sets,
            key: Vec::new(),
        }
    }

    /// Run the plan from step `k` on, calling `emit` with the frame of
    /// every complete binding.
    fn step(
        &mut self,
        k: usize,
        frame: &mut Frame<'a>,
        emit: &mut Emit,
    ) -> Result<(), EngineError> {
        let steps = &self.plan.steps;
        let Some(step) = steps.get(k) else {
            return emit(frame, self.sets);
        };
        match &step.op {
            StepOp::Match {
                arity,
                key,
                scan,
                probe,
                ..
            } => {
                if self.plan.focus == Some(step.lit) {
                    let delta = self.delta;
                    for row in delta {
                        self.candidate(row, *arity, scan, k, frame, emit)?;
                    }
                    return Ok(());
                }
                let Some(rel) = self.rels[k] else {
                    return Ok(());
                };
                // Assemble the probe key from the plan's static mask. A
                // key slot unbound at run time (a variable repeated within
                // the atom) downgrades to a scan instead of mis-probing.
                let mut probe_key = std::mem::take(&mut self.key);
                probe_key.clear();
                for t in key {
                    match t.value(frame.values()) {
                        Some(v) => probe_key.push(v),
                        None => break,
                    }
                }
                let hits = if !key.is_empty() && probe_key.len() == key.len() {
                    self.counters.probes += 1;
                    rel.probe(&step.bound, &probe_key)
                } else {
                    None
                };
                self.key = probe_key;
                match hits {
                    Some(hits) => {
                        for &ri in hits {
                            self.candidate(rel.row(ri as usize), *arity, probe, k, frame, emit)?;
                        }
                    }
                    None => {
                        self.counters.scans += 1;
                        for row in rel.iter() {
                            self.candidate(row, *arity, scan, k, frame, emit)?;
                        }
                    }
                }
                Ok(())
            }
            StepOp::Absent { args, .. } => {
                // The planner runs a negation once its slots are bound;
                // should one be unbound regardless, the negation is
                // undecidable for this binding and the branch derives
                // nothing.
                let mut row = std::mem::take(&mut self.key);
                row.clear();
                for t in args {
                    match t.value(frame.values()) {
                        Some(v) => row.push(v),
                        None => break,
                    }
                }
                let absent =
                    row.len() == args.len() && !self.rels[k].is_some_and(|r| r.contains(&row));
                self.key = row;
                if absent {
                    self.step(k + 1, frame, emit)?;
                }
                Ok(())
            }
            StepOp::Test(expr) => match expr.eval(frame.values(), self.sets) {
                Ok(v) if v.is_true() => self.step(k + 1, frame, emit),
                Ok(_) | Err(EvalError::Undefined(_)) => Ok(()),
                Err(error) => Err(EngineError::Eval {
                    rule: self.rule_idx,
                    error,
                }),
            },
            StepOp::Assign { slot, expr, filter } => match expr.eval(frame.values(), self.sets) {
                // An assignment to a bound slot acts as an equality filter.
                Ok(v) if *filter => match frame.get(*slot) == Some(&*v) {
                    true => self.step(k + 1, frame, emit),
                    false => Ok(()),
                },
                Ok(v) => {
                    let mark = frame.mark();
                    frame.bind(*slot, v.into_owned());
                    self.step(k + 1, frame, emit)?;
                    frame.undo(mark);
                    Ok(())
                }
                Err(EvalError::Undefined(_)) => Ok(()),
                Err(error) => Err(EngineError::Eval {
                    rule: self.rule_idx,
                    error,
                }),
            },
            // Aggregate rules join only the body before their first
            // aggregate; one reaching a join is malformed.
            StepOp::Aggregate => Err(EngineError::MalformedAggregateRule {
                rule: self.rule_idx,
                message: "aggregate literal in plain-rule evaluation".into(),
            }),
        }
    }

    /// Try one candidate row for step `k`: apply its argument ops, run the
    /// rest of the plan on a match, then unwind the slots it bound.
    fn candidate(
        &mut self,
        row: &'a [Value],
        arity: usize,
        ops: &[(usize, ArgOp)],
        k: usize,
        frame: &mut Frame<'a>,
        emit: &mut Emit,
    ) -> Result<(), EngineError> {
        if row.len() != arity {
            return Ok(());
        }
        self.counters.candidates += 1;
        let mark = frame.mark();
        let mut matched = true;
        for (i, op) in ops {
            let v = &row[*i];
            matched = match op {
                ArgOp::Is(c) => c == v,
                ArgOp::Eq(s) => frame.get(*s) == Some(v),
                ArgOp::Bind(s) => {
                    frame.bind_ref(*s, v);
                    true
                }
            };
            if !matched {
                break;
            }
        }
        if matched {
            self.step(k + 1, frame, emit)?;
        }
        frame.undo(mark);
        Ok(())
    }
}

/// Restricted-chase satisfaction check: look for an existing fact of the
/// head atom matching the firing's frontier on its universal positions;
/// if found, read the existential variables' values off it (requiring
/// consistency when an existential repeats). Returns them in name order.
fn find_existential_witness(
    atom: &HeadAtom,
    frontier: &[Value],
    existentials: usize,
    db: &mut Database,
) -> Option<Vec<Value>> {
    db.relation(&atom.pred)?;
    let pattern: Vec<Option<Value>> = atom
        .args
        .iter()
        .map(|a| match a {
            HeadArg::Const(v) => Some(v.clone()),
            HeadArg::Frontier(i) => Some(frontier[*i].clone()),
            HeadArg::Null(_) => None,
        })
        .collect();
    let rel = db.relation_mut(&atom.pred);
    'rows: for idx in rel.select_indices(&pattern) {
        let row = rel.row(idx);
        if row.len() != atom.args.len() {
            continue;
        }
        let mut witness: Vec<Option<Value>> = vec![None; existentials];
        for (a, v) in atom.args.iter().zip(row.iter()) {
            if let HeadArg::Null(j) = a {
                match &witness[*j] {
                    Some(existing) if existing != v => continue 'rows,
                    Some(_) => {}
                    None => witness[*j] = Some(v.clone()),
                }
            }
        }
        return witness.into_iter().collect();
    }
    None
}

/// Merge two values for `munion` contributor updates. Of two equal
/// items the one already in a set stays.
fn merge_union(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Set(x), Value::Set(y)) => Value::Set(SetVal::union(x, y)),
        (Value::Set(s), other) | (other, Value::Set(s)) => {
            Value::Set(SetVal::with(s, other.clone()))
        }
        (x, y) => Value::set([x.clone(), y.clone()]),
    }
}

/// Fold deduplicated contributions into the aggregate result.
fn finalize_aggregate<'a>(func: AggFunc, contributions: impl Iterator<Item = &'a Value>) -> Value {
    match func {
        AggFunc::MCount => Value::Int(contributions.count() as i64),
        AggFunc::MSum => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            for c in contributions {
                match c {
                    Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                    Value::Float(f) => {
                        any_float = true;
                        float_sum += f;
                    }
                    _ => {}
                }
            }
            if any_float {
                Value::Float(float_sum + int_sum as f64)
            } else {
                Value::Int(int_sum)
            }
        }
        AggFunc::MProd => {
            let mut prod = 1.0f64;
            for c in contributions {
                if let Some(x) = c.as_f64() {
                    prod *= x;
                }
            }
            Value::Float(prod)
        }
        AggFunc::MMin => contributions.min().cloned().unwrap_or(Value::Bool(false)),
        AggFunc::MMax => contributions.max().cloned().unwrap_or(Value::Bool(false)),
        AggFunc::MUnion => {
            // of equal items the first contributed stays
            let mut out: Vec<Value> = Vec::new();
            for c in contributions {
                match c {
                    Value::Set(s) => out.extend_from_slice(s.items()),
                    other => out.push(other.clone()),
                }
            }
            Value::Set(Arc::new(SetVal::from_inserted(out)))
        }
    }
}

/// Aggregates must be followed only by conditions and assignments.
fn validate_aggregate_shape(rule: &Rule, idx: usize) -> Result<(), EngineError> {
    let Some(first) = rule
        .body
        .iter()
        .position(|l| matches!(l, Literal::Agg { .. }))
    else {
        return Ok(());
    };
    for lit in &rule.body[first..] {
        match lit {
            Literal::Agg { .. } | Literal::Cond(_) | Literal::Let { .. } => {}
            other => {
                return Err(EngineError::MalformedAggregateRule {
                    rule: idx,
                    message: format!(
                        "found {other:?} after an aggregate; join atoms must precede aggregation"
                    ),
                })
            }
        }
    }
    if matches!(rule.head, Head::Equality(_, _)) {
        return Err(EngineError::MalformedAggregateRule {
            rule: idx,
            message: "aggregates are not allowed in EGDs".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::collections::HashSet;

    fn run(src: &str) -> ReasoningResult {
        let p = parse_program(src).unwrap();
        Engine::new().run(&p, Database::new()).unwrap()
    }

    #[test]
    fn transitive_closure() {
        let r = run("edge(1, 2). edge(2, 3). edge(3, 4).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).");
        assert_eq!(r.db.rows("path").len(), 6);
    }

    #[test]
    fn goal_run_restricts_derivation_and_strips_scaffolding() {
        let p = parse_program(
            "edge(1, 2). edge(2, 3). edge(10, 11). edge(11, 12).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).",
        )
        .unwrap();
        let goal = crate::parser::parse_rule("g() :- path(1, Y).").unwrap();
        let Literal::Pos(goal_atom) = goal.body[0].clone() else {
            unreachable!()
        };
        let out = Engine::new()
            .run_with_goals(
                &p,
                Database::new(),
                &[goal_atom],
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        assert!(out.magic.applied);
        assert_eq!(out.magic.fallback, None);
        // Only the component reachable from node 1 is derived.
        let mut paths = out.result.db.rows("path");
        paths.sort();
        assert_eq!(
            paths,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(3)],
            ]
        );
        // magic# relations are stripped before the result is returned
        assert!(out
            .result
            .db
            .relation_names()
            .all(|p| !crate::magic::is_magic_pred(p)));
        assert!(out.result.profile.magic_goal_seeds > 0);
    }

    #[test]
    fn goal_run_falls_back_on_refusal_and_matches_full_run() {
        // `r` feeds the goal predicate while reading it with no bound
        // argument, so the rewrite refuses; the fallback must equal the
        // plain run.
        let src = "e(1, 2). e(2, 3).\n\
             p(X, Y) :- e(X, Y).\n\
             p(X, Z) :- p(X, Y), r(Y, Z).\n\
             r(Y, Z) :- p(U, V), e(Y, Z).";
        let p = parse_program(src).unwrap();
        let goal = crate::parser::parse_rule("g() :- p(1, Y).").unwrap();
        let Literal::Pos(goal_atom) = goal.body[0].clone() else {
            unreachable!()
        };
        let out = Engine::new()
            .run_with_goals(
                &p,
                Database::new(),
                &[goal_atom],
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        assert!(!out.magic.applied);
        assert!(out.magic.fallback.is_some());
        assert_eq!(out.result.profile.magic_fallbacks, 1);
        let full = run(src);
        assert_eq!(out.result.db.rows("p"), full.db.rows("p"));
        assert_eq!(out.result.db.rows("r"), full.db.rows("r"));
    }

    #[test]
    fn unbound_goal_runs_the_original_program() {
        let src = "e(1, 2).\n\
             t(X, Y) :- e(X, Y).";
        let p = parse_program(src).unwrap();
        let goal = crate::parser::parse_rule("g() :- t(X, Y).").unwrap();
        let Literal::Pos(goal_atom) = goal.body[0].clone() else {
            unreachable!()
        };
        let out = Engine::new()
            .run_with_goals(
                &p,
                Database::new(),
                &[goal_atom],
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        assert!(out.magic.degenerate);
        assert!(!out.magic.applied);
        let full = run(src);
        assert_eq!(out.result.db.rows("t"), full.db.rows("t"));
        assert_eq!(out.result.profile.magic_fallbacks, 0);
    }

    #[test]
    fn empty_input_relation_prunes_plans() {
        // `q` never receives rows, so every round's plan for the second
        // rule is dead and must be counted as a planner prune.
        let r = run("e(1, 2). e(2, 3).\n\
             t(X, Y) :- e(X, Y).\n\
             dead(X) :- e(X, Y), q(Y).");
        assert!(r.db.rows("q").is_empty());
        assert!(r.db.rows("dead").is_empty());
        assert_eq!(r.db.rows("t").len(), 2);
        assert!(r.profile.planner_prunes > 0);
    }

    #[test]
    fn stratified_negation() {
        let r = run("node(1). node(2). node(3). edge(1, 2). src(1).\n\
             reach(X) :- src(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             unreach(X) :- node(X), not reach(X).");
        let rows = r.db.rows("unreach");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(3));
    }

    #[test]
    fn existential_creates_null_once_per_frontier() {
        let r = run("emp(1). emp(2).\n\
             dept(D, E) :- emp(E).");
        let rows = r.db.rows("dept");
        assert_eq!(rows.len(), 2);
        // two frontier values -> two distinct nulls
        let nulls: HashSet<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(nulls.len(), 2);
        assert!(nulls.iter().all(|n| n.is_null()));
        assert_eq!(r.stats.nulls_created, 2);
    }

    #[test]
    fn divergent_chase_is_caught_by_iteration_guard() {
        // Every new p-value is a fresh frontier, so the skolemized chase
        // still diverges; the iteration guard must stop it with an error.
        let p = parse_program(
            "p(1).\n\
             q(X, Y) :- p(X).\n\
             p(Y) :- q(X, Y).",
        )
        .unwrap();
        let engine = Engine::with_config(EngineConfig {
            max_iterations: 50,
            ..Default::default()
        });
        match engine.run(&p, Database::new()) {
            Err(EngineError::ResourceLimit {
                which: BudgetKind::Iterations,
                limit: 50,
                ..
            }) => {}
            Ok(r2) => panic!("expected divergence, got {} p-facts", r2.db.rows("p").len()),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn facts_budget_returns_partial_result() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("edge({}, {}).\n", i, i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
        let p = parse_program(&src).unwrap();
        let engine = Engine::with_config(EngineConfig {
            budget: Budget::unlimited().with_max_facts(100),
            ..Default::default()
        });
        let r = engine.run(&p, Database::new()).unwrap();
        match &r.termination {
            Termination::BudgetExceeded {
                which: BudgetKind::Facts,
                ..
            } => {}
            other => panic!("expected facts budget trip, got {other:?}"),
        }
        // partial but sound: we kept some derived paths, near the cap
        let n = r.db.rows("path").len();
        assert!(n >= 1, "no partial facts kept");
        assert!(n <= 101, "overshoot: {n} paths");
        // all derived paths really are paths of the chain
        for row in r.db.rows("path") {
            let (x, y) = (row[0].clone(), row[1].clone());
            if let (Value::Int(a), Value::Int(b)) = (x, y) {
                assert!(a < b, "unsound path({a}, {b})");
            }
        }

        // A chase that never ends: each q-fact mints a fresh null that
        // feeds p again. The soft cap stops the merge at the cap itself.
        let chase = parse_program(
            "p(1).\n\
             q(X, Y) :- p(X).\n\
             p(Y) :- q(X, Y).",
        )
        .unwrap();
        let engine = Engine::with_config(EngineConfig {
            budget: Budget::unlimited().with_max_facts(40),
            ..Default::default()
        });
        let r = engine.run(&chase, Database::new()).unwrap();
        match &r.termination {
            Termination::BudgetExceeded {
                which: BudgetKind::Facts,
                rule: Some(_),
                ..
            } => {}
            other => panic!("expected a facts budget trip in a rule, got {other:?}"),
        }
        assert_eq!(r.stats.facts_derived, 40, "the merge stops at the cap");
        for row in r.db.rows("p") {
            assert!(
                row[0] == Value::Int(1) || row[0].is_null(),
                "unsound p({})",
                row[0]
            );
        }
        // Without a budget, the hard backstop ends the chase with an error.
        let engine = Engine::with_config(EngineConfig {
            max_facts: 40,
            ..Default::default()
        });
        match engine.run(&chase, Database::new()) {
            Err(EngineError::ResourceLimit {
                which: BudgetKind::Facts,
                limit: 40,
                ..
            }) => {}
            Ok(r) => panic!("expected the fact cap, got {}", r.termination),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn cancellation_returns_partial_result() {
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: the engine must stop immediately
        let p = parse_program(
            "edge(1, 2). edge(2, 3).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let engine = Engine::with_config(EngineConfig {
            cancel: Some(token),
            ..Default::default()
        });
        let r = engine.run(&p, Database::new()).unwrap();
        assert_eq!(r.termination, Termination::Cancelled);
        assert!(r.db.rows("path").is_empty());
        // input facts are preserved even on immediate cancellation
        assert_eq!(r.db.rows("edge").len(), 2);
    }

    #[test]
    fn unbudgeted_run_reports_fixpoint() {
        let r = run("edge(1, 2). path(X, Y) :- edge(X, Y).");
        assert!(r.termination.is_fixpoint());
    }

    #[test]
    fn deadline_budget_trips_on_expired_deadline() {
        let p = parse_program(
            "edge(1, 2).\n\
             path(X, Y) :- edge(X, Y).",
        )
        .unwrap();
        let engine = Engine::with_config(EngineConfig {
            budget: Budget::unlimited().with_deadline(std::time::Duration::from_nanos(0)),
            ..Default::default()
        });
        let r = engine.run(&p, Database::new()).unwrap();
        match &r.termination {
            Termination::BudgetExceeded {
                which: BudgetKind::Deadline,
                ..
            } => {}
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn msum_groups_and_sums() {
        let r = run("t(\"g1\", 1, 10). t(\"g1\", 2, 20). t(\"g2\", 3, 5).\n\
             out(G, R) :- t(G, I, W), R = msum(W, <I>).");
        let rows = r.db.rows("out");
        assert_eq!(rows.len(), 2);
        let find = |g: &str| {
            rows.iter()
                .find(|r| r[0] == Value::str(g))
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(find("g1"), Value::Int(30));
        assert_eq!(find("g2"), Value::Int(5));
    }

    #[test]
    fn monotonic_contributor_dedup_keeps_extremal() {
        // same contributor 1 appears with weights 10 and 30: msum keeps 30
        let r = run("t(\"g\", 1, 10). t(\"g\", 1, 30). t(\"g\", 2, 5).\n\
             out(G, R) :- t(G, I, W), R = msum(W, <I>).");
        let rows = r.db.rows("out");
        assert_eq!(rows[0][1], Value::Int(35));
    }

    #[test]
    fn mcount_counts_distinct_contributors() {
        let r = run("t(\"g\", 1). t(\"g\", 1). t(\"g\", 2).\n\
             out(G, R) :- t(G, I), R = mcount(<I>).");
        assert_eq!(r.db.rows("out")[0][1], Value::Int(2));
    }

    #[test]
    fn aggregate_with_post_condition() {
        let r = run("t(\"a\", 1). t(\"a\", 2). t(\"b\", 3).\n\
             big(G) :- t(G, I), R = mcount(<I>), R >= 2.");
        let rows = r.db.rows("big");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("a"));
    }

    #[test]
    fn mprod_multiplies() {
        let r = run("t(\"g\", 1, 0.5). t(\"g\", 2, 0.5).\n\
             out(G, R) :- t(G, I, W), R = mprod(W, <I>).");
        assert_eq!(r.db.rows("out")[0][1], Value::Float(0.25));
    }

    #[test]
    fn munion_collects() {
        let r = run("t(\"g\", \"x\"). t(\"g\", \"y\").\n\
             out(G, S) :- t(G, V), S = munion(V, <V>).");
        let s = r.db.rows("out")[0][1].clone();
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn egd_unifies_nulls() {
        // two rules invent nulls for the same person; EGD unifies them
        let r = run("person(\"ann\").\n\
             id1(P, X) :- person(P).\n\
             id2(P, Y) :- person(P).\n\
             X = Y :- id1(P, X), id2(P, Y).");
        let a = r.db.rows("id1")[0][1].clone();
        let b2 = r.db.rows("id2")[0][1].clone();
        assert_eq!(a, b2);
        assert!(r.stats.unifications >= 1);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn egd_constant_clash_is_violation() {
        let r = run("cat(\"m\", \"a\", \"qi\"). cat(\"m\", \"a\", \"id\").\n\
             C1 = C2 :- cat(M, A, C1), cat(M, A, C2), C1 != C2.");
        assert!(!r.violations.is_empty());
    }

    #[test]
    fn egd_unification_propagates_to_other_relations() {
        let r = run("p(\"k\").\n\
             inv(P, N) :- p(P).\n\
             fixed(\"k\", 42).\n\
             N = V :- inv(P, N), fixed(P, V).");
        let rows = r.db.rows("inv");
        assert_eq!(rows[0][1], Value::Int(42));
    }

    #[test]
    fn multi_head_rule_derives_both() {
        let r = run("t(1).\n\
             a(X), b(X) :- t(X).");
        assert_eq!(r.db.rows("a").len(), 1);
        assert_eq!(r.db.rows("b").len(), 1);
    }

    #[test]
    fn multi_head_shares_existential_null() {
        let r = run("t(1).\n\
             comb(Z, X), marker(Z) :- t(X).");
        let z1 = r.db.rows("comb")[0][0].clone();
        let z2 = r.db.rows("marker")[0][0].clone();
        assert_eq!(z1, z2);
        assert!(z1.is_null());
    }

    #[test]
    fn let_and_condition() {
        let r = run("t(1, 10). t(2, 100).\n\
             out(I, S) :- t(I, W), S = 1.0 / W, S > 0.05.");
        let rows = r.db.rows("out");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn undefined_expression_filters_not_errors() {
        // dividing by zero just drops the binding
        let r = run("t(0). t(2).\n\
             out(I, S) :- t(I), S = 1.0 / I.");
        assert_eq!(r.db.rows("out").len(), 1);
    }

    #[test]
    fn trace_records_provenance() {
        let p = parse_program(
            "@label(\"base\")\n\
             b(X) :- a(X).\n\
             a(1).",
        )
        .unwrap();
        let engine = Engine::with_config(EngineConfig {
            trace: true,
            ..Default::default()
        });
        let r = engine.run(&p, Database::new()).unwrap();
        assert_eq!(r.trace.len(), 1);
        assert_eq!(r.trace[0].rule, "base");
        assert_eq!(r.trace[0].fact.pred, "b");
    }

    #[test]
    fn semi_naive_matches_large_chain() {
        // chain of 200 nodes: path count = n*(n-1)/2 pairs along the chain
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("edge({}, {}).\n", i, i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
        let r = run(&src);
        assert_eq!(r.db.rows("path").len(), 200 * 201 / 2);
    }

    #[test]
    fn ownership_control_closure() {
        // the paper's company-control example (§4.4):
        // own(X,Y,W), W > 0.5 -> rel(X,Y)
        // rel(X,Z), own(Z,Y,W), msum(W,<Z>) > 0.5 -> rel(X,Y)
        // Note: we express the aggregate-in-condition as a two-step program.
        let r = run("own(\"a\", \"b\", 0.6).\n\
             own(\"b\", \"c\", 0.3).\n\
             own(\"a\", \"c\", 0.3).\n\
             rel(X, Y) :- own(X, Y, W), W > 0.5.\n\
             relw(X, Y, Z, W) :- rel(X, Z), own(Z, Y, W).\n\
             relw(X, Y, X, W) :- own(X, Y, W).\n\
             ctrl(X, Y) :- relw(X, Y, Z, W), S = msum(W, <Z>), S > 0.5.");
        // a controls b directly; a controls c via 0.3 (own) + 0.3 (through b)
        let rows = r.db.rows("ctrl");
        let pairs: HashSet<(String, String)> = rows
            .iter()
            .map(|r| {
                (
                    r[0].as_str().unwrap().to_string(),
                    r[1].as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert!(pairs.contains(&("a".into(), "b".into())));
        assert!(pairs.contains(&("a".into(), "c".into())));
    }
}
