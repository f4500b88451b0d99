//! Equivalence suite for the planned / indexed / parallel join core.
//!
//! The optimized executor ([`JoinMode::Indexed`], possibly with
//! `threads > 1`) is a pure evaluation-strategy change: it must derive
//! *exactly* the same fact set, with the same [`Termination`], as the
//! reference nested-loop evaluator ([`JoinMode::Reference`]) on every
//! program. This suite generates random stratified programs — chain
//! joins over random EDBs, comparisons, `Let` bindings, recursion,
//! stratified negation and monotonic aggregation — and checks the three
//! configurations pairwise on each.
//!
//! Random cases deliberately avoid existentials: labelled-null *identity*
//! is mint-order dependent, so cross-strategy comparison of raw rows
//! would be flaky. Chase and EGD behaviour is instead covered by fixed
//! deterministic cases at the bottom, compared by shape (counts, nulls,
//! unifications) rather than by null IDs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use vadalog::{
    parse_program, Database, Engine, EngineConfig, JoinMode, ReasoningResult, Termination, Value,
};

/// Run `src` under the given join mode / thread count.
fn run(src: &str, join_mode: JoinMode, threads: usize) -> ReasoningResult {
    Engine::with_config(EngineConfig {
        join_mode,
        threads,
        ..EngineConfig::default()
    })
    .run(
        &parse_program(src).expect("generated program parses"),
        Database::new(),
    )
    .expect("generated program evaluates")
}

/// Canonical view of a result: every relation's rows as an ordered set.
fn fact_sets(r: &ReasoningResult) -> BTreeMap<String, BTreeSet<Vec<Value>>> {
    let mut out = BTreeMap::new();
    let names: Vec<String> = r.db.relation_names().map(str::to_string).collect();
    for name in names {
        out.insert(name.clone(), r.db.rows(&name).into_iter().collect());
    }
    out
}

/// Every relation's rows in insertion order.
fn fact_lists(r: &ReasoningResult) -> BTreeMap<String, Vec<Vec<Value>>> {
    r.db.relation_names()
        .map(|name| (name.to_string(), r.db.rows(name)))
        .collect()
}

/// Assert two runs are observably identical (facts + termination + stats).
fn assert_equivalent(label: &str, reference: &ReasoningResult, candidate: &ReasoningResult) {
    assert_eq!(
        fact_sets(reference),
        fact_sets(candidate),
        "{label}: derived fact sets differ"
    );
    assert_eq!(
        reference.termination, candidate.termination,
        "{label}: termination differs"
    );
    assert_eq!(
        reference.stats.facts_derived, candidate.stats.facts_derived,
        "{label}: facts_derived differs"
    );
}

/// Generate a random stratified program (facts + rules) as source text.
///
/// Shape: three binary EDB relations `e0..e2`; stratum-1 IDB predicates
/// `a0..a2` defined by random chain joins with optional comparison and
/// `Let` literals; a recursive closure `tc` over `a0` (forces multi-round
/// semi-naive deltas, exercising the delta-focused plans); a negation
/// rule over `tc` in a higher stratum; and, half the time, a monotonic
/// aggregate over `tc`.
fn random_program(rng: &mut StdRng) -> String {
    let mut src = String::new();
    let domain: i64 = rng.gen_range(3..8);

    for p in 0..3 {
        let n = rng.gen_range(2..12);
        for _ in 0..n {
            let a = rng.gen_range(0..domain);
            let b = rng.gen_range(0..domain);
            src.push_str(&format!("e{p}({a}, {b}).\n"));
        }
    }

    let vars = ["X", "Y", "Z", "W"];
    for p in 0..3 {
        for _ in 0..rng.gen_range(1..=2) {
            let len = rng.gen_range(2..=3);
            let mut body: Vec<String> = Vec::new();
            for s in 0..len {
                let e = rng.gen_range(0..3);
                body.push(format!("e{e}({}, {})", vars[s], vars[s + 1]));
            }
            if rng.gen_bool(0.4) {
                let op = if rng.gen_bool(0.5) { "<" } else { "!=" };
                body.push(format!("X {op} {}", rng.gen_range(0..domain)));
            }
            let head = if rng.gen_bool(0.3) {
                body.push(format!("S = X + {}", rng.gen_range(0..5)));
                format!("a{p}(S, {})", vars[len])
            } else {
                format!("a{p}(X, {})", vars[len])
            };
            src.push_str(&format!("{head} :- {}.\n", body.join(", ")));
        }
    }

    src.push_str("tc(X, Y) :- a0(X, Y).\n");
    src.push_str("tc(X, Z) :- a0(X, Y), tc(Y, Z).\n");
    src.push_str("only(X, Y) :- e0(X, Y), not tc(X, Y).\n");
    if rng.gen_bool(0.5) {
        src.push_str("cnt(X, C) :- tc(X, Y), C = mcount(<Y>).\n");
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed (1 and 4 threads) ≡ reference nested-loop on random
    /// stratified programs, and indexed at 1 and 4 threads store every
    /// relation's rows in the same order.
    #[test]
    fn indexed_and_parallel_match_reference(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let src = random_program(&mut rng);
        let reference = run(&src, JoinMode::Reference, 1);
        prop_assert_eq!(&reference.termination, &Termination::Fixpoint);
        let indexed = run(&src, JoinMode::Indexed, 1);
        let parallel = run(&src, JoinMode::Indexed, 4);
        assert_equivalent("indexed/1", &reference, &indexed);
        assert_equivalent("indexed/4", &reference, &parallel);
        // Threads change who joins, never what is merged: the same rows
        // enter every relation in the same order.
        prop_assert_eq!(fact_lists(&indexed), fact_lists(&parallel));
    }

    /// The reference evaluator is also deterministic under threading: a
    /// parallel reference run (scans, no indexes) matches the sequential
    /// one — parallelism and indexing are independent switches.
    #[test]
    fn parallel_reference_matches_sequential(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let src = random_program(&mut rng);
        let sequential = run(&src, JoinMode::Reference, 1);
        let threaded = run(&src, JoinMode::Reference, 4);
        assert_equivalent("reference/4", &sequential, &threaded);
    }
}

/// Existential chase: same *shape* (fact counts, nulls minted) across
/// strategies; null IDs themselves are not compared.
#[test]
fn chase_shape_matches_across_strategies() {
    let src = "emp(\"ann\"). emp(\"bob\"). emp(\"cyd\").\n\
               dept(E, D) :- emp(E).\n\
               head(D, H) :- dept(E, D).";
    let reference = run(src, JoinMode::Reference, 1);
    for (label, r) in [
        ("indexed/1", run(src, JoinMode::Indexed, 1)),
        ("indexed/4", run(src, JoinMode::Indexed, 4)),
    ] {
        assert_eq!(
            reference.db.rows("dept").len(),
            r.db.rows("dept").len(),
            "{label}: dept count"
        );
        assert_eq!(
            reference.db.rows("head").len(),
            r.db.rows("head").len(),
            "{label}: head count"
        );
        assert_eq!(
            reference.stats.nulls_created, r.stats.nulls_created,
            "{label}: nulls minted"
        );
        assert_eq!(reference.termination, r.termination, "{label}: termination");
    }
}

/// EGD unification: the same substitutions happen regardless of strategy.
#[test]
fn egd_shape_matches_across_strategies() {
    let src = "emp(\"ann\"). emp(\"bob\").\n\
               dept(E, D) :- emp(E).\n\
               D1 = D2 :- dept(E1, D1), dept(E2, D2).";
    let reference = run(src, JoinMode::Reference, 1);
    for (label, r) in [
        ("indexed/1", run(src, JoinMode::Indexed, 1)),
        ("indexed/4", run(src, JoinMode::Indexed, 4)),
    ] {
        assert_eq!(
            reference.stats.unifications, r.stats.unifications,
            "{label}: unifications"
        );
        // after unification both employees share one department null
        let depts: BTreeSet<Value> =
            r.db.rows("dept")
                .into_iter()
                .map(|row| row[1].clone())
                .collect();
        assert_eq!(depts.len(), 1, "{label}: departments not unified");
    }
}

/// Budgeted runs: a derived-fact cap must produce the same `Termination`
/// variant in every strategy (the partial prefixes may legitimately
/// differ, the stop classification may not).
#[test]
fn budget_termination_kind_matches() {
    let src = "e(1, 2). e(2, 3). e(3, 4). e(4, 1).\n\
               p(X, Y) :- e(X, Y).\n\
               p(X, Z) :- e(X, Y), p(Y, Z).";
    let budget = vadalog::Budget::unlimited().with_max_facts(5);
    let mut runs = Vec::new();
    for (label, join_mode, threads) in [
        ("reference/1", JoinMode::Reference, 1),
        ("indexed/1", JoinMode::Indexed, 1),
        ("indexed/4", JoinMode::Indexed, 4),
    ] {
        let r = Engine::with_config(EngineConfig {
            join_mode,
            threads,
            budget,
            ..EngineConfig::default()
        })
        .run(&parse_program(src).expect("parses"), Database::new())
        .expect("evaluates");
        assert!(
            matches!(
                r.termination,
                Termination::BudgetExceeded {
                    which: vadalog::BudgetKind::Facts,
                    ..
                }
            ),
            "{label}: expected fact-cap termination, got {:?}",
            r.termination
        );
        runs.push((label, r));
    }
    // The partial prefixes may differ (binding order depends on the join
    // strategy), but every prefix must be *sound*: a subset of the true
    // fixpoint.
    let fixpoint: BTreeSet<Vec<Value>> = run(src, JoinMode::Reference, 1)
        .db
        .rows("p")
        .into_iter()
        .collect();
    for (label, r) in &runs {
        for row in r.db.rows("p") {
            assert!(fixpoint.contains(&row), "{label}: unsound fact p{row:?}");
        }
    }
}
