//! Resumable engine sessions: warm-start incremental re-evaluation.
//!
//! A [`EngineSession`] keeps everything a cold [`Engine::run`] would throw
//! away between runs of the *same program*: the saturated database (and
//! with it every prebuilt hash index), the stratification, the rule
//! dependency graph, and — because the interner is process-global — all
//! interned strings. Subsequent input changes arrive as a [`FactPatch`]
//! (`patch(removals, additions)`); additions seed the semi-naive delta
//! directly, so only the strata actually reachable from the patched
//! predicates are re-derived.
//!
//! ## The fallback rule (correctness first)
//!
//! Semi-naive delta seeding is only sound for *monotone* re-derivation.
//! The session therefore falls back to a full cold re-evaluation (over the
//! tracked extensional database) whenever the patch cannot be bounded by
//! dependency analysis:
//!
//! 1. **Retractions** (`removals` non-empty): facts derived from a removed
//!    fact cannot be un-derived by forward chaining.
//! 2. **Negation**: some predicate reachable from the patch (its *affected
//!    closure* over the rule dependency graph) occurs under `not` in a
//!    rule — new facts can invalidate previously derived ones.
//! 3. **Aggregation**: an aggregate rule reads an affected predicate — its
//!    groups must be recomputed from complete inputs.
//! 4. **EGDs**: an equality-generating dependency reads an affected
//!    predicate — a new binding could rewrite existing facts.
//! 5. The previous run did not reach [`Termination::Fixpoint`] (a partial
//!    database is not a sound seed).
//!
//! Every fallback is counted and carries a human-readable reason in the
//! returned [`PatchOutcome`]; `DESIGN.md` §9 documents the rule.

use crate::ast::{Head, Literal, Program};
use crate::eval::{DeltaRows, Engine, EngineError, EvalStats, ReasoningResult, TraceEntry};
use crate::governor::Termination;
use crate::profile::EngineProfile;
use crate::storage::Database;
use crate::stratify::{stratify, Stratification};
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use vadasa_obs::{fields, Obs};

/// A batch of input-fact changes applied to a session.
#[derive(Debug, Clone, Default)]
pub struct FactPatch {
    /// Facts to retract from the extensional database.
    pub removals: Vec<(String, Vec<Value>)>,
    /// Facts to assert.
    pub additions: Vec<(String, Vec<Value>)>,
}

impl FactPatch {
    /// A patch that only adds facts.
    pub fn additions(additions: Vec<(String, Vec<Value>)>) -> Self {
        FactPatch {
            removals: Vec::new(),
            additions,
        }
    }

    /// Is the patch empty?
    pub fn is_empty(&self) -> bool {
        self.removals.is_empty() && self.additions.is_empty()
    }
}

/// What one [`EngineSession::patch`] call did.
#[derive(Debug, Clone)]
pub struct PatchOutcome {
    /// `true` when the patch was applied incrementally (delta-seeded);
    /// `false` when the session fell back to a full cold re-evaluation.
    pub warm: bool,
    /// Why the session fell back, when it did.
    pub fallback_reason: Option<String>,
    /// Additions that were actually new (duplicates are dropped).
    pub facts_added: usize,
    /// Removals that actually hit a stored fact.
    pub facts_removed: usize,
    /// Facts derived while re-evaluating the patch.
    pub facts_derived: usize,
    /// Strata skipped because the patch could not reach them (warm only).
    pub strata_skipped: usize,
    /// How the re-evaluation ended.
    pub termination: Termination,
}

/// Cumulative warm-start statistics of a session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Patches applied (warm or cold).
    pub patches: u64,
    /// Patches applied incrementally.
    pub warm_patches: u64,
    /// Patches that fell back to a full cold re-evaluation.
    pub cold_fallbacks: u64,
    /// Input facts patched in/out across all patches.
    pub patched_facts: u64,
    /// Strata skipped by dependency analysis across warm patches.
    pub strata_skipped: u64,
    /// Approximate bytes of prebuilt hash-index state reused (not rebuilt)
    /// by warm patches, summed over patches.
    pub reused_index_bytes: u64,
    /// Goal-directed side queries answered ([`EngineSession::evaluate_goals`]).
    pub goal_evals: u64,
    /// Goal queries where the magic rewrite refused and the full program
    /// ran instead.
    pub goal_fallbacks: u64,
}

/// A resumable reasoning session over one program. See the module docs.
#[derive(Debug)]
pub struct EngineSession {
    engine: Engine,
    program: Program,
    strat: Stratification,
    /// The tracked extensional database: the caller's input facts plus all
    /// patches so far (program facts are *not* stored here; `Engine::run`
    /// inserts them itself). This is what a cold fallback re-runs over.
    edb: Database,
    /// The saturated database of the last (re-)evaluation.
    db: Database,
    violations: Vec<crate::eval::EgdViolation>,
    stats: EvalStats,
    profile: EngineProfile,
    trace: Vec<TraceEntry>,
    termination: Termination,
    session_stats: SessionStats,
}

impl Engine {
    /// Start a resumable session: run `program` over `input` once (cold),
    /// keeping the engine, stratification, saturated database and indexes
    /// alive for incremental [`EngineSession::patch`] calls. Consumes the
    /// engine — the session owns it for its lifetime.
    pub fn session(self, program: Program, input: Database) -> Result<EngineSession, EngineError> {
        let strat = stratify(&program)?;
        let result = self.run(&program, input.clone())?;
        Ok(EngineSession {
            engine: self,
            program,
            strat,
            edb: input,
            db: result.db,
            violations: result.violations,
            stats: result.stats,
            profile: result.profile,
            trace: result.trace,
            termination: result.termination,
            session_stats: SessionStats::default(),
        })
    }
}

impl EngineSession {
    /// The saturated database of the latest evaluation.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// How the latest evaluation ended.
    pub fn termination(&self) -> &Termination {
        &self.termination
    }

    /// Cumulative statistics of the latest evaluation (cold totals; warm
    /// patches add their incremental counts).
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// EGD violations of the latest evaluation.
    pub fn violations(&self) -> &[crate::eval::EgdViolation] {
        &self.violations
    }

    /// Profile of the latest evaluation pass (cold run or warm patch).
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Provenance entries (only populated when tracing is enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Cumulative warm-start statistics.
    pub fn session_stats(&self) -> &SessionStats {
        &self.session_stats
    }

    /// Consume the session, yielding the latest result in the same shape a
    /// cold [`Engine::run`] returns.
    pub fn into_result(self) -> ReasoningResult {
        ReasoningResult {
            db: self.db,
            violations: self.violations,
            stats: self.stats,
            profile: self.profile,
            trace: self.trace,
            termination: self.termination,
        }
    }

    /// Answer a goal-directed side query against the session's *current
    /// inputs*: run the program goal-restricted via the magic-sets
    /// rewrite ([`crate::magic`]) over the tracked extensional database.
    ///
    /// This is a side computation — the session's warm saturated
    /// database, indexes and statistics are untouched, so `patch` calls
    /// can be interleaved freely with goal queries. The result follows
    /// the [`Engine::run_with_goals`] contract: goal predicates hold a
    /// superset of the goal slice; filter with
    /// [`crate::query::goal_slice`] for exact answers.
    pub fn evaluate_goals(
        &mut self,
        goals: &[crate::ast::Atom],
        options: crate::magic::MagicOptions,
    ) -> Result<crate::eval::GoalRun, EngineError> {
        let run = self
            .engine
            .run_with_goals(&self.program, self.edb.clone(), goals, options)?;
        self.session_stats.goal_evals += 1;
        if run.magic.fallback.is_some() {
            self.session_stats.goal_fallbacks += 1;
        }
        if let Some(collector) = &self.engine.config.collector {
            let obs = Obs::new(Some(collector.as_ref()));
            obs.counter(
                "engine.goal.evals",
                1,
                fields!["applied" => run.magic.applied],
            );
            obs.counter("engine.goal.seeds", run.magic.stats.goal_seeds, vec![]);
            obs.counter(
                "engine.goal.fallbacks",
                u64::from(run.magic.fallback.is_some()),
                vec![],
            );
        }
        Ok(run)
    }

    /// Apply a fact patch and re-derive its consequences, incrementally
    /// when the dependency analysis allows it (see the module docs for the
    /// fallback rule).
    pub fn patch(&mut self, patch: FactPatch) -> Result<PatchOutcome, EngineError> {
        // Keep the tracked EDB in sync first: whichever path runs below,
        // it must see the post-patch inputs.
        let mut facts_removed = 0usize;
        for (pred, row) in &patch.removals {
            if self.edb.remove(pred, row) {
                facts_removed += 1;
            }
        }
        let mut new_additions: Vec<(String, Vec<Value>)> = Vec::new();
        for (pred, row) in &patch.additions {
            if self.edb.insert(pred, row.clone()) {
                new_additions.push((pred.clone(), row.clone()));
            }
        }
        self.session_stats.patches += 1;
        self.session_stats.patched_facts += (facts_removed + new_additions.len()) as u64;

        if let Some(reason) = self.fallback_reason(&patch, facts_removed) {
            return self.patch_cold(reason, new_additions.len(), facts_removed);
        }

        // Warm path: seed the semi-naive delta with the additions that were
        // actually new to the saturated database.
        let mut seed: DeltaRows = HashMap::new();
        let mut facts_added = 0usize;
        for (pred, row) in new_additions {
            if let Some(stored) = self.db.insert_shared(&pred, row) {
                seed.entry(pred).or_default().push(stored);
                facts_added += 1;
            }
        }
        self.session_stats.warm_patches += 1;
        self.session_stats.reused_index_bytes += self.db.index_footprint_bytes() as u64;

        if seed.is_empty() {
            // Everything the patch asserted was already derivable: nothing
            // to do, and nothing can have changed.
            let outcome = PatchOutcome {
                warm: true,
                fallback_reason: None,
                facts_added: 0,
                facts_removed,
                facts_derived: 0,
                strata_skipped: self.strat.strata.len(),
                termination: self.termination.clone(),
            };
            self.session_stats.strata_skipped += outcome.strata_skipped as u64;
            self.emit_patch(&outcome);
            return Ok(outcome);
        }

        let warm = self
            .engine
            .run_warm(&self.program, &self.strat, &mut self.db, seed)?;
        self.stats.facts_derived += warm.stats.facts_derived;
        self.stats.iterations += warm.stats.iterations;
        self.stats.nulls_created += warm.stats.nulls_created;
        self.stats.unifications += warm.stats.unifications;
        self.trace.extend(warm.trace);
        self.termination = warm.termination.clone();
        self.session_stats.strata_skipped += warm.strata_skipped as u64;
        let outcome = PatchOutcome {
            warm: true,
            fallback_reason: None,
            facts_added,
            facts_removed,
            facts_derived: warm.stats.facts_derived,
            strata_skipped: warm.strata_skipped,
            termination: warm.termination,
        };
        self.profile = warm.profile;
        self.emit_patch(&outcome);
        Ok(outcome)
    }

    /// Full cold re-evaluation over the tracked EDB — the documented
    /// fallback when a patch cannot be bounded by dependency analysis.
    fn patch_cold(
        &mut self,
        reason: String,
        facts_added: usize,
        facts_removed: usize,
    ) -> Result<PatchOutcome, EngineError> {
        self.session_stats.cold_fallbacks += 1;
        let result = self.engine.run(&self.program, self.edb.clone())?;
        self.db = result.db;
        self.violations = result.violations;
        self.stats = result.stats;
        self.profile = result.profile;
        self.trace = result.trace;
        self.termination = result.termination.clone();
        let outcome = PatchOutcome {
            warm: false,
            fallback_reason: Some(reason),
            facts_added,
            facts_removed,
            facts_derived: self.stats.facts_derived,
            strata_skipped: 0,
            termination: result.termination,
        };
        self.emit_patch(&outcome);
        Ok(outcome)
    }

    /// The documented fallback rule: returns `Some(reason)` when the patch
    /// must be handled by a full re-evaluation.
    fn fallback_reason(&self, patch: &FactPatch, facts_removed: usize) -> Option<String> {
        if facts_removed > 0 {
            return Some(format!(
                "{facts_removed} retraction(s): derived consequences cannot be un-derived by forward chaining"
            ));
        }
        if self.termination != Termination::Fixpoint {
            return Some(format!(
                "previous run ended early ({:?}): a partial database is not a sound seed",
                self.termination
            ));
        }
        let affected = self.affected_closure(patch.additions.iter().map(|(p, _)| p.as_str()));
        for rule in &self.program.rules {
            let is_egd = matches!(rule.head, Head::Equality(_, _));
            let has_agg = rule.has_aggregate();
            for lit in &rule.body {
                match lit {
                    Literal::Neg(a) if affected.contains(a.pred.as_str()) => {
                        return Some(format!(
                            "patched predicate reaches '{}' under negation",
                            a.pred
                        ));
                    }
                    Literal::Pos(a) if affected.contains(a.pred.as_str()) => {
                        if has_agg {
                            return Some(format!(
                                "patched predicate reaches aggregate input '{}'",
                                a.pred
                            ));
                        }
                        if is_egd {
                            return Some(format!(
                                "patched predicate reaches EGD body predicate '{}'",
                                a.pred
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Transitive closure of the patched predicates over the rule
    /// dependency graph (body predicate → head predicates).
    fn affected_closure<'a>(&self, seeds: impl Iterator<Item = &'a str>) -> HashSet<String> {
        let mut affected: HashSet<String> = seeds.map(str::to_string).collect();
        let mut queue: VecDeque<String> = affected.iter().cloned().collect();
        while let Some(pred) = queue.pop_front() {
            for rule in &self.program.rules {
                let reads = rule
                    .body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos(a) | Literal::Neg(a) if a.pred == pred));
                if !reads {
                    continue;
                }
                for head in rule.head_preds() {
                    if affected.insert(head.to_string()) {
                        queue.push_back(head.to_string());
                    }
                }
            }
        }
        affected
    }

    /// Replay a patch outcome into the session's collector, if any.
    fn emit_patch(&self, outcome: &PatchOutcome) {
        let Some(collector) = &self.engine.config.collector else {
            return;
        };
        let obs = Obs::new(Some(collector.as_ref()));
        obs.counter(
            "engine.warm.patched_facts",
            (outcome.facts_added + outcome.facts_removed) as u64,
            fields!["warm" => outcome.warm],
        );
        obs.counter(
            "engine.warm.strata_skipped",
            outcome.strata_skipped as u64,
            vec![],
        );
        obs.counter(
            "engine.warm.reused_index_bytes",
            if outcome.warm {
                self.db.index_footprint_bytes() as u64
            } else {
                0
            },
            vec![],
        );
        obs.counter(
            "engine.warm.fallback_cold",
            u64::from(!outcome.warm),
            vec![],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn ints(pred: &str, rows: &[(i64, i64)]) -> Vec<(String, Vec<Value>)> {
        rows.iter()
            .map(|&(a, b)| (pred.to_string(), vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    const TC: &str = "path(X, Y) :- edge(X, Y).\n\
                      path(X, Z) :- edge(X, Y), path(Y, Z).";

    fn tc_session() -> EngineSession {
        let program = parse_program(TC).unwrap();
        let mut input = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            input.insert("edge", vec![Value::Int(a), Value::Int(b)]);
        }
        Engine::new().session(program, input).unwrap()
    }

    #[test]
    fn warm_patch_extends_closure() {
        let mut s = tc_session();
        assert_eq!(s.db().rows("path").len(), 3);
        let outcome = s
            .patch(FactPatch::additions(ints("edge", &[(3, 4)])))
            .unwrap();
        assert!(outcome.warm, "positive program must stay warm");
        assert_eq!(outcome.facts_added, 1);
        // 1→4, 2→4, 3→4 are new
        assert_eq!(s.db().rows("path").len(), 6);
        assert_eq!(outcome.facts_derived, 3);
        assert_eq!(s.termination(), &Termination::Fixpoint);
    }

    #[test]
    fn warm_patch_matches_cold_rerun_across_threads() {
        let mut s = tc_session();
        s.patch(FactPatch::additions(ints("edge", &[(3, 4), (4, 1)])))
            .unwrap();
        let program = parse_program(TC).unwrap();
        let mut input = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 1)] {
            input.insert("edge", vec![Value::Int(a), Value::Int(b)]);
        }
        let cold = Engine::new().run(&program, input).unwrap();
        let mut warm_rows = s.db().rows("path");
        let mut cold_rows = cold.db.rows("path");
        warm_rows.sort();
        cold_rows.sort();
        assert_eq!(warm_rows, cold_rows);
    }

    #[test]
    fn duplicate_addition_is_a_noop() {
        let mut s = tc_session();
        let facts_before = s.stats().facts_derived;
        let outcome = s
            .patch(FactPatch::additions(ints("edge", &[(1, 2)])))
            .unwrap();
        assert!(outcome.warm);
        assert_eq!(outcome.facts_added, 0);
        assert_eq!(outcome.facts_derived, 0);
        assert_eq!(s.stats().facts_derived, facts_before);
    }

    #[test]
    fn removal_triggers_cold_fallback() {
        let mut s = tc_session();
        let outcome = s
            .patch(FactPatch {
                removals: ints("edge", &[(2, 3)]),
                additions: vec![],
            })
            .unwrap();
        assert!(!outcome.warm);
        assert!(outcome
            .fallback_reason
            .as_deref()
            .unwrap()
            .contains("retraction"));
        // 2→3 and 1→3 are gone
        assert_eq!(s.db().rows("path").len(), 1);
        assert_eq!(s.session_stats().cold_fallbacks, 1);
    }

    #[test]
    fn negated_predicate_patch_triggers_cold_fallback() {
        let program = parse_program(
            "tc(X, Y) :- edge(X, Y).\n\
             tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
             gap(X, Y) :- cand(X, Y), not tc(X, Y).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("edge", vec![Value::Int(1), Value::Int(2)]);
        input.insert("cand", vec![Value::Int(1), Value::Int(3)]);
        let mut s = Engine::new().session(program, input).unwrap();
        assert_eq!(s.db().rows("gap").len(), 1);
        // Adding an edge grows `tc`, which sits under `not` — warm seeding
        // could leave a stale `gap` fact, so the session must go cold.
        let outcome = s
            .patch(FactPatch::additions(ints("edge", &[(2, 3)])))
            .unwrap();
        assert!(!outcome.warm, "negation-affected patch must fall back");
        assert!(outcome
            .fallback_reason
            .as_deref()
            .unwrap()
            .contains("negation"));
        // 1→3 is now derivable, so gap(1, 3) must be retracted.
        assert_eq!(s.db().rows("gap").len(), 0);
    }

    #[test]
    fn negation_on_unaffected_predicate_stays_warm() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n\
             odd(X, Y) :- other(X, Y), not blocked(X, Y).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("edge", vec![Value::Int(1), Value::Int(2)]);
        input.insert("other", vec![Value::Int(9), Value::Int(9)]);
        let mut s = Engine::new().session(program, input).unwrap();
        // `edge` does not reach `blocked`, so the patch is warm-safe even
        // though the program contains negation elsewhere.
        let outcome = s
            .patch(FactPatch::additions(ints("edge", &[(2, 3)])))
            .unwrap();
        assert!(outcome.warm);
        assert_eq!(s.db().rows("path").len(), 3);
    }

    #[test]
    fn aggregate_input_patch_triggers_cold_fallback() {
        let program = parse_program(
            "t(X, Y) :- e(X, Y).\n\
             cnt(X, C) :- t(X, Y), C = mcount(<Y>).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("e", vec![Value::Int(1), Value::Int(10)]);
        let mut s = Engine::new().session(program, input).unwrap();
        assert_eq!(s.db().rows("cnt"), vec![vec![Value::Int(1), Value::Int(1)]]);
        let outcome = s
            .patch(FactPatch::additions(ints("e", &[(1, 11)])))
            .unwrap();
        assert!(!outcome.warm);
        assert!(outcome
            .fallback_reason
            .as_deref()
            .unwrap()
            .contains("aggregate"));
        // The count must be *updated*, which monotone seeding cannot do.
        let rows = s.db().rows("cnt");
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn unreachable_strata_are_skipped() {
        // Two independent components: patching `e` must not re-touch the
        // strata that only serve `f`-derived predicates.
        let program = parse_program(
            "a(X, Y) :- e(X, Y).\n\
             b(X, Y) :- f(X, Y).\n\
             c(X, Y) :- b(X, Y), not miss(X, Y).",
        )
        .unwrap();
        let mut input = Database::new();
        input.insert("e", vec![Value::Int(1), Value::Int(2)]);
        input.insert("f", vec![Value::Int(5), Value::Int(6)]);
        let mut s = Engine::new().session(program, input).unwrap();
        let outcome = s.patch(FactPatch::additions(ints("e", &[(3, 4)]))).unwrap();
        assert!(outcome.warm);
        assert!(
            outcome.strata_skipped >= 1,
            "expected the f-only stratum to be skipped, got {outcome:?}"
        );
        assert_eq!(s.db().rows("a").len(), 2);
        assert_eq!(
            s.session_stats().strata_skipped,
            outcome.strata_skipped as u64
        );
    }

    #[test]
    fn session_reuses_indexes_across_patches() {
        let mut s = tc_session();
        s.patch(FactPatch::additions(ints("edge", &[(3, 4)])))
            .unwrap();
        let stats = s.session_stats();
        assert_eq!(stats.warm_patches, 1);
        assert!(
            stats.reused_index_bytes > 0,
            "warm patch should report reused index bytes, got {stats:?}"
        );
    }

    #[test]
    fn goal_query_leaves_warm_state_untouched_and_tracks_patches() {
        let mut s = tc_session();
        let before = s.db().rows("path");
        let goal = crate::query::parse_goal("path(1, ?)").unwrap();
        let run = s
            .evaluate_goals(
                std::slice::from_ref(&goal),
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        assert!(run.magic.applied);
        let mut sliced = crate::query::goal_slice(&run.result.db, &goal);
        sliced.sort();
        assert_eq!(
            sliced,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(3)],
            ]
        );
        // the warm database is untouched by the side query
        assert_eq!(s.db().rows("path"), before);
        assert_eq!(s.session_stats().goal_evals, 1);
        assert_eq!(s.session_stats().goal_fallbacks, 0);

        // a later patch is visible to subsequent goal queries
        s.patch(FactPatch::additions(ints("edge", &[(3, 4)])))
            .unwrap();
        let run = s
            .evaluate_goals(
                std::slice::from_ref(&goal),
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        assert_eq!(crate::query::goal_slice(&run.result.db, &goal).len(), 3);
        assert_eq!(s.session_stats().goal_evals, 2);
    }

    #[test]
    fn goal_query_slice_matches_full_run_slice() {
        let mut s = tc_session();
        let goal = crate::query::parse_goal("path(2, ?)").unwrap();
        let run = s
            .evaluate_goals(
                std::slice::from_ref(&goal),
                crate::magic::MagicOptions::default(),
            )
            .unwrap();
        let mut magic_slice = crate::query::goal_slice(&run.result.db, &goal);
        magic_slice.sort();
        let mut full_slice = crate::query::goal_slice(s.db(), &goal);
        full_slice.sort();
        assert_eq!(magic_slice, full_slice);
    }

    #[test]
    fn empty_patch_is_warm_and_cheap() {
        let mut s = tc_session();
        let outcome = s.patch(FactPatch::default()).unwrap();
        assert!(outcome.warm);
        assert_eq!(outcome.facts_added + outcome.facts_removed, 0);
        assert_eq!(outcome.facts_derived, 0);
    }
}
