//! Engine execution profile: what [`EvalStats`](crate::eval::EvalStats)
//! totals look like *from the inside*.
//!
//! Every reasoning run accumulates an [`EngineProfile`]: per-stratum
//! spans, per-fixpoint-round delta sizes and phase times (plan, join,
//! merge), per-stratum aggregate time and skipped aggregate passes, and
//! per-rule firing / derived-fact / join-candidate counts and join time.
//! Accumulation is always on — a handful of integer adds, four monotonic
//! clock reads per round and two per rule per round, which is noise next
//! to the joins themselves — and the profile rides on
//! [`ReasoningResult`](crate::eval::ReasoningResult). When a
//! [`Collector`](vadasa_obs::Collector) is attached to the engine config
//! the profile is additionally replayed as telemetry events after the
//! run, so the hot path never formats or allocates for telemetry.

use std::fmt::Write as _;
use vadasa_obs::{fields, next_span_id, Obs};

use crate::ast::{Head, Program};

/// Per-rule execution counters.
#[derive(Debug, Clone, Default)]
pub struct RuleProfile {
    /// Rule index in the program.
    pub rule: usize,
    /// Rule label, or `rule#<idx>` when unlabelled.
    pub name: String,
    /// Head predicates (or `=` for EGDs) — for human-readable tables.
    pub head: String,
    /// Body bindings produced (each one instantiates the head once).
    pub firings: u64,
    /// New facts this rule inserted.
    pub facts_derived: u64,
    /// Candidate rows examined while joining the body (the engine's raw
    /// join effort; the ratio to `firings` shows join selectivity).
    pub join_candidates: u64,
    /// Nanoseconds in the rule's join passes, summed over rounds. An
    /// aggregate or EGD rule times its full join, aggregate folding
    /// included.
    pub join_ns: u64,
    /// Null unifications performed (EGD rules only).
    pub unifications: u64,
}

/// One semi-naive fixpoint round inside a stratum.
///
/// The three phase times are disjoint parts of the round, so
/// `plan_ns + join_ns + merge_ns <= dur_ns`.
#[derive(Debug, Clone, Default)]
pub struct RoundProfile {
    /// Round ordinal within the stratum (across outer passes).
    pub round: usize,
    /// New facts inserted this round (the delta handed to the next round).
    pub delta: u64,
    /// Wall-clock nanoseconds spent in the round.
    pub dur_ns: u64,
    /// Nanoseconds planning the round's joins and building the indexes
    /// the plans probe.
    pub plan_ns: u64,
    /// Nanoseconds in the joins.
    pub join_ns: u64,
    /// Nanoseconds instantiating heads (null minting included) and
    /// inserting the derived facts.
    pub merge_ns: u64,
}

/// One stratum of the evaluation.
#[derive(Debug, Clone, Default)]
pub struct StratumProfile {
    /// Stratum index (bottom-up order).
    pub stratum: usize,
    /// Outer passes (plain fixpoint + aggregates + EGDs) until stable.
    pub passes: u64,
    /// Fixpoint rounds, in order.
    pub rounds: Vec<RoundProfile>,
    /// New facts derived in this stratum.
    pub facts_derived: u64,
    /// Wall-clock nanoseconds spent in the stratum.
    pub dur_ns: u64,
    /// Nanoseconds spent evaluating aggregate rules, across passes.
    pub aggregate_ns: u64,
    /// Aggregate-rule evaluations skipped because no relation the rule
    /// reads changed since it last ran.
    pub aggregate_skips: u64,
}

/// Execution profile of one reasoning run.
///
/// The scalar totals mirror [`EvalStats`](crate::eval::EvalStats); the
/// vectors break them down by stratum, round and rule.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Per-stratum breakdown, bottom-up.
    pub strata: Vec<StratumProfile>,
    /// Per-rule counters, indexed by rule position in the program.
    pub rules: Vec<RuleProfile>,
    /// Total wall-clock nanoseconds of the run.
    pub total_ns: u64,
    /// Total facts derived (= `EvalStats::facts_derived`).
    pub facts_derived: u64,
    /// Total fixpoint iterations (= `EvalStats::iterations`).
    pub iterations: u64,
    /// Labelled nulls minted (= `EvalStats::nulls_created`).
    pub nulls_created: u64,
    /// EGD unifications (= `EvalStats::unifications`).
    pub unifications: u64,
    /// EGD violations collected.
    pub violations: u64,
    /// Hash-index probes issued by the planned join executor.
    pub index_probes: u64,
    /// Full-relation linear scans the executor fell back to (no bound
    /// positions, or a missing/stale index). High scans relative to
    /// probes means the planner found little to probe on.
    pub index_scans: u64,
    /// String-interner hits during this run (heap allocations avoided;
    /// see [`mod@crate::intern`]).
    pub intern_hits: u64,
    /// Sets the run's rules built: distinct sets they computed, each
    /// built once (`{x}`, `s union {x}`, `VSet[S]`).
    pub sets_built: u64,
    /// Sets the run's rules computed again and were handed the one
    /// already built instead of building a copy.
    pub sets_shared: u64,
    /// Join plans where the planner deviated from source literal order.
    pub planner_reorders: u64,
    /// Join passes skipped whole because the planner proved a positive
    /// body literal's relation empty (semi-join short-circuit).
    pub planner_prunes: u64,
    /// Goal constants turned into magic seed facts by the rewrite.
    pub magic_goal_seeds: u64,
    /// Rule copies guarded with a magic atom by the rewrite.
    pub magic_guarded_rules: u64,
    /// Sideways-information-passing seed rules generated by the rewrite.
    pub magic_seed_rules: u64,
    /// Rules dropped as unreachable from every goal.
    pub magic_pruned_rules: u64,
    /// Goal-directed runs that fell back to the full program because the
    /// magic-sets rewrite refused.
    pub magic_fallbacks: u64,
}

impl EngineProfile {
    /// An empty profile shaped for `program` (one slot per rule).
    pub fn for_program(program: &Program) -> Self {
        let rules = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| RuleProfile {
                rule: i,
                name: r.label.clone().unwrap_or_else(|| format!("rule#{i}")),
                head: match &r.head {
                    Head::Atoms(atoms) => atoms
                        .iter()
                        .map(|a| a.pred.as_str())
                        .collect::<Vec<_>>()
                        .join(","),
                    Head::Equality(_, _) => "=".to_string(),
                },
                ..RuleProfile::default()
            })
            .collect();
        EngineProfile {
            rules,
            ..EngineProfile::default()
        }
    }

    /// Total fixpoint rounds across strata.
    pub fn total_rounds(&self) -> usize {
        self.strata.iter().map(|s| s.rounds.len()).sum()
    }

    /// Render the per-stratum and per-rule tables as plain text
    /// (the `--profile` output of the `vadalog` CLI).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine profile — {} in {}, {} fact(s), {} round(s), {} null(s), {} unification(s)",
            plural(self.strata.len(), "stratum", "strata"),
            fmt_ns(self.total_ns),
            self.facts_derived,
            self.total_rounds(),
            self.nulls_created,
            self.unifications,
        );
        let _ = writeln!(
            out,
            "join core — {} index probe(s), {} scan(s), {} intern hit(s), {} plan reorder(s), {} plan prune(s), {} set(s) built, {} shared",
            self.index_probes,
            self.index_scans,
            self.intern_hits,
            self.planner_reorders,
            self.planner_prunes,
            self.sets_built,
            self.sets_shared,
        );
        let magic_active = self.magic_goal_seeds
            + self.magic_guarded_rules
            + self.magic_seed_rules
            + self.magic_pruned_rules
            + self.magic_fallbacks
            > 0;
        if magic_active {
            let _ = writeln!(
                out,
                "magic sets — {} goal seed(s), {} guarded rule(s), {} seed rule(s), {} pruned rule(s), {} fallback(s)",
                self.magic_goal_seeds,
                self.magic_guarded_rules,
                self.magic_seed_rules,
                self.magic_pruned_rules,
                self.magic_fallbacks,
            );
        }
        let _ = writeln!(
            out,
            "{:>7}  {:>6}  {:>6}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>5}  largest rounds (delta@round)",
            "stratum", "passes", "rounds", "facts", "time", "plan", "join", "merge", "aggregate", "skips"
        );
        for s in &self.strata {
            let mut top: Vec<&RoundProfile> = s.rounds.iter().filter(|r| r.delta > 0).collect();
            top.sort_by_key(|r| std::cmp::Reverse(r.delta));
            let top: Vec<String> = top
                .iter()
                .take(3)
                .map(|r| format!("{}@{}", r.delta, r.round))
                .collect();
            let phase = |f: fn(&RoundProfile) -> u64| fmt_ns(s.rounds.iter().map(f).sum());
            let _ = writeln!(
                out,
                "{:>7}  {:>6}  {:>6}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>5}  {}",
                s.stratum,
                s.passes,
                s.rounds.len(),
                s.facts_derived,
                fmt_ns(s.dur_ns),
                phase(|r| r.plan_ns),
                phase(|r| r.join_ns),
                phase(|r| r.merge_ns),
                fmt_ns(s.aggregate_ns),
                s.aggregate_skips,
                top.join(" ")
            );
        }
        let name_w = self
            .rules
            .iter()
            .map(|r| r.name.len() + r.head.len() + 3)
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>9}  {:>9}  {:>11}  {:>10}  {:>6}",
            "rule", "firings", "facts", "join-cands", "join", "unif."
        );
        for r in &self.rules {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>9}  {:>9}  {:>11}  {:>10}  {:>6}",
                format!("{} → {}", r.name, r.head),
                r.firings,
                r.facts_derived,
                r.join_candidates,
                fmt_ns(r.join_ns),
                r.unifications
            );
        }
        out
    }

    /// Replay the profile into a collector as an explicitly placed trace
    /// tree: one `engine.run` root, one `engine.stratum` child per
    /// stratum at its cumulative offset, one `engine.round` grandchild
    /// per fixpoint round; one counter per rule metric and per scalar
    /// total. Child intervals are clamped into their parent's so
    /// exporters always see properly nested spans.
    pub fn emit(&self, obs: &Obs<'_>) {
        if !obs.enabled() {
            return;
        }
        let run_id = next_span_id();
        let mut run_cursor = 0u64;
        for s in &self.strata {
            let s_start = run_cursor.min(self.total_ns);
            let s_dur = s.dur_ns.min(self.total_ns - s_start);
            let stratum_id = next_span_id();
            let mut round_cursor = s_start;
            for r in &s.rounds {
                let r_start = round_cursor.min(s_start + s_dur);
                let r_dur = r.dur_ns.min(s_start + s_dur - r_start);
                obs.span_in(
                    "engine.round",
                    next_span_id(),
                    stratum_id,
                    r_start,
                    r_dur,
                    fields![
                        "stratum" => s.stratum,
                        "round" => r.round,
                        "delta" => r.delta,
                        "plan_ns" => r.plan_ns,
                        "join_ns" => r.join_ns,
                        "merge_ns" => r.merge_ns
                    ],
                );
                round_cursor = round_cursor.saturating_add(r.dur_ns);
            }
            obs.span_in(
                "engine.stratum",
                stratum_id,
                run_id,
                s_start,
                s_dur,
                fields![
                    "stratum" => s.stratum,
                    "passes" => s.passes,
                    "rounds" => s.rounds.len(),
                    "facts" => s.facts_derived,
                    "aggregate_ns" => s.aggregate_ns,
                    "aggregate_skips" => s.aggregate_skips
                ],
            );
            run_cursor = run_cursor.saturating_add(s.dur_ns);
        }
        for r in &self.rules {
            obs.counter(
                "engine.rule.firings",
                r.firings,
                fields!["rule" => r.rule, "name" => r.name.as_str()],
            );
            obs.counter(
                "engine.rule.facts",
                r.facts_derived,
                fields!["rule" => r.rule, "name" => r.name.as_str()],
            );
            obs.counter(
                "engine.rule.join_candidates",
                r.join_candidates,
                fields!["rule" => r.rule, "name" => r.name.as_str()],
            );
            obs.counter(
                "engine.rule.join_ns",
                r.join_ns,
                fields!["rule" => r.rule, "name" => r.name.as_str()],
            );
            if r.unifications > 0 {
                obs.counter(
                    "engine.rule.unifications",
                    r.unifications,
                    fields!["rule" => r.rule, "name" => r.name.as_str()],
                );
            }
        }
        obs.counter("engine.facts_derived", self.facts_derived, vec![]);
        obs.counter("engine.iterations", self.iterations, vec![]);
        obs.counter("engine.nulls_created", self.nulls_created, vec![]);
        obs.counter("engine.unifications", self.unifications, vec![]);
        obs.counter("engine.egd_violations", self.violations, vec![]);
        obs.counter("engine.join.index_probes", self.index_probes, vec![]);
        obs.counter("engine.join.index_scans", self.index_scans, vec![]);
        obs.counter("engine.join.intern_hits", self.intern_hits, vec![]);
        obs.counter(
            "engine.join.planner_reorders",
            self.planner_reorders,
            vec![],
        );
        obs.counter("engine.join.planner_prunes", self.planner_prunes, vec![]);
        obs.counter("engine.sets.built", self.sets_built, vec![]);
        obs.counter("engine.sets.shared", self.sets_shared, vec![]);
        if self.magic_goal_seeds
            + self.magic_guarded_rules
            + self.magic_seed_rules
            + self.magic_pruned_rules
            + self.magic_fallbacks
            > 0
        {
            obs.counter("engine.magic.goal_seeds", self.magic_goal_seeds, vec![]);
            obs.counter(
                "engine.magic.guarded_rules",
                self.magic_guarded_rules,
                vec![],
            );
            obs.counter("engine.magic.seed_rules", self.magic_seed_rules, vec![]);
            obs.counter("engine.magic.pruned_rules", self.magic_pruned_rules, vec![]);
            obs.counter("engine.magic.fallbacks", self.magic_fallbacks, vec![]);
        }
        obs.span_in(
            "engine.run",
            run_id,
            0,
            0,
            self.total_ns,
            fields!["strata" => self.strata.len(), "rules" => self.rules.len()],
        );
    }
}

fn plural(n: usize, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} {many}")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn profile_shapes_to_program() {
        let p = parse_program(
            "@label(\"base\")\n\
             b(X) :- a(X).\n\
             c(X) :- b(X).",
        )
        .unwrap();
        let profile = EngineProfile::for_program(&p);
        assert_eq!(profile.rules.len(), 2);
        assert_eq!(profile.rules[0].name, "base");
        assert_eq!(profile.rules[0].head, "b");
        assert_eq!(profile.rules[1].name, "rule#1");
    }

    #[test]
    fn render_mentions_every_rule() {
        let p = parse_program("b(X) :- a(X).").unwrap();
        let mut profile = EngineProfile::for_program(&p);
        profile.strata.push(StratumProfile {
            stratum: 0,
            passes: 1,
            rounds: vec![RoundProfile {
                round: 0,
                delta: 3,
                dur_ns: 1500,
                ..RoundProfile::default()
            }],
            facts_derived: 3,
            dur_ns: 2000,
            ..StratumProfile::default()
        });
        profile.facts_derived = 3;
        profile.strata[0].rounds[0].join_ns = 700;
        profile.strata[0].aggregate_skips = 4;
        profile.rules[0].join_ns = 1234;
        let text = profile.render_table();
        assert!(text.contains("rule#0 → b"));
        assert!(text.contains("1.234 µs"), "rule join time missing: {text}");
        assert!(text.contains("700 ns"), "join phase missing: {text}");
        assert!(
            text.contains("     4  3@0"),
            "aggregate skips missing: {text}"
        );
        assert!(text.contains("3@0"), "largest round missing: {text}");
        assert!(text.contains("2.000 µs"), "stratum time missing: {text}");
    }

    #[test]
    fn magic_counters_render_and_emit_only_when_active() {
        let p = parse_program("b(X) :- a(X).").unwrap();
        let mut profile = EngineProfile::for_program(&p);
        assert!(!profile.render_table().contains("magic sets"));
        profile.magic_goal_seeds = 2;
        profile.magic_guarded_rules = 3;
        profile.planner_prunes = 5;
        let text = profile.render_table();
        assert!(text.contains("magic sets — 2 goal seed(s), 3 guarded rule(s)"));
        assert!(text.contains("5 plan prune(s)"), "{text}");
        let rec = vadasa_obs::Recorder::new();
        profile.emit(&Obs::new(Some(&rec)));
        assert_eq!(rec.counter_total("engine.magic.goal_seeds"), 2);
        assert_eq!(rec.counter_total("engine.join.planner_prunes"), 5);
    }

    #[test]
    fn emit_replays_into_recorder() {
        let p = parse_program("b(X) :- a(X).").unwrap();
        let mut profile = EngineProfile::for_program(&p);
        profile.rules[0].firings = 4;
        profile.rules[0].facts_derived = 2;
        profile.rules[0].join_ns = 9;
        profile.facts_derived = 2;
        profile.total_ns = 10;
        profile.sets_built = 3;
        profile.sets_shared = 7;
        assert!(profile.render_table().contains("3 set(s) built, 7 shared"));
        let rec = vadasa_obs::Recorder::new();
        profile.emit(&Obs::new(Some(&rec)));
        assert_eq!(rec.counter_total("engine.sets.built"), 3);
        assert_eq!(rec.counter_total("engine.sets.shared"), 7);
        assert_eq!(rec.counter_total("engine.rule.firings"), 4);
        assert_eq!(rec.counter_total("engine.rule.join_ns"), 9);
        assert_eq!(rec.counter_total("engine.facts_derived"), 2);
        assert_eq!(rec.events_named("engine.run").len(), 1);
    }
}
