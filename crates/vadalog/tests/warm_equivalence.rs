//! Warm-start ≡ cold-start equivalence (the PR-4 tentpole pin).
//!
//! An [`EngineSession`] that absorbs a fact patch must leave the database
//! in *exactly* the state a cold full run over the post-patch inputs
//! produces: identical fact sets and identical [`Termination`]. This
//! holds both when the patch is applied warm
//! (delta-seeded re-derivation of only the affected strata) and when the
//! session's dependency analysis forces the documented cold fallback
//! (retractions, negation, aggregation, EGDs): the fallback is a
//! correctness valve, not a different semantics.
//!
//! Random cases avoid existentials for the same reason as
//! `join_equivalence.rs`: labelled-null identity is mint-order dependent.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use vadalog::{
    parse_program, Database, Engine, EngineSession, FactPatch, Program, Termination, Value,
};

fn db_of(facts: &[(String, Vec<Value>)]) -> Database {
    let mut db = Database::new();
    for (p, row) in facts {
        db.insert(p, row.clone());
    }
    db
}

/// Canonical view of a database: every relation's rows as an ordered set.
fn fact_sets(db: &Database) -> BTreeMap<String, BTreeSet<Vec<Value>>> {
    let mut out = BTreeMap::new();
    let names: Vec<String> = db.relation_names().map(str::to_string).collect();
    for name in names {
        let rows: BTreeSet<Vec<Value>> = db.rows(&name).into_iter().collect();
        if !rows.is_empty() {
            out.insert(name, rows);
        }
    }
    out
}

/// Random rule set over binary EDBs `e0..e2`: chain joins into `a0..a2`,
/// recursion (`tc`), and optionally stratified negation and a monotonic
/// aggregate (both of which force the patch path to fall back cold).
fn random_rules(rng: &mut StdRng, with_negation: bool, with_aggregate: bool) -> String {
    let mut src = String::new();
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
                body.push(format!("X {op} {}", rng.gen_range(0..6)));
            }
            src.push_str(&format!("a{p}(X, {}) :- {}.\n", vars[len], body.join(", ")));
        }
    }
    src.push_str("tc(X, Y) :- a0(X, Y).\n");
    src.push_str("tc(X, Z) :- a0(X, Y), tc(Y, Z).\n");
    if with_negation {
        src.push_str("only(X, Y) :- e0(X, Y), not tc(X, Y).\n");
    }
    if with_aggregate {
        src.push_str("cnt(X, C) :- tc(X, Y), C = mcount(<Y>).\n");
    }
    src
}

/// Random EDB facts for `e0..e2`, split into a base load and a patch.
#[allow(clippy::type_complexity)]
fn random_facts(rng: &mut StdRng) -> (Vec<(String, Vec<Value>)>, Vec<(String, Vec<Value>)>) {
    let domain: i64 = rng.gen_range(3..8);
    let mut base = Vec::new();
    let mut added = Vec::new();
    for p in 0..3 {
        for i in 0..rng.gen_range(2..12) {
            let fact = (
                format!("e{p}"),
                vec![
                    Value::Int(rng.gen_range(0..domain)),
                    Value::Int(rng.gen_range(0..domain)),
                ],
            );
            // the first fact of each relation stays in the base so the
            // cold start and the retraction picker always have material
            if i > 0 && rng.gen_bool(0.25) {
                added.push(fact);
            } else {
                base.push(fact);
            }
        }
    }
    (base, added)
}

/// Session(base) + patch(added, removed) must equal a cold run over the
/// final fact set. Returns the session for further inspection.
fn assert_patch_equals_cold(
    label: &str,
    program: &Program,
    base: &[(String, Vec<Value>)],
    added: &[(String, Vec<Value>)],
    removed: &[(String, Vec<Value>)],
) -> (EngineSession, bool) {
    let mut session = Engine::new()
        .session(program.clone(), db_of(base))
        .expect("session cold start evaluates");
    let outcome = session
        .patch(FactPatch {
            removals: removed.to_vec(),
            additions: added.to_vec(),
        })
        .expect("patch evaluates");

    let mut final_facts: Vec<(String, Vec<Value>)> = base
        .iter()
        .filter(|f| !removed.contains(f))
        .cloned()
        .collect();
    final_facts.extend(added.iter().cloned());
    let cold = Engine::new()
        .run(program, db_of(&final_facts))
        .expect("cold run evaluates");

    assert_eq!(
        fact_sets(session.db()),
        fact_sets(&cold.db),
        "{label}: patched session diverged from cold run"
    );
    assert_eq!(
        session.termination(),
        &cold.termination,
        "{label}: termination differs"
    );
    (session, outcome.warm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Positive-only programs: the patch must be absorbed *warm* and the
    /// result must match a cold run.
    #[test]
    fn warm_patch_matches_cold_on_positive_programs(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let src = random_rules(&mut rng, false, false);
        let program = parse_program(&src).expect("generated program parses");
        let (base, added) = random_facts(&mut rng);
        let (session, warm) =
            assert_patch_equals_cold("positive", &program, &base, &added, &[]);
        prop_assert!(warm, "positive-program patch must stay warm");
        prop_assert_eq!(session.termination(), &Termination::Fixpoint);
    }

    /// Programs with negation and/or aggregation: the session may fall
    /// back cold (documented rule) but the observable result must still
    /// match a cold run.
    #[test]
    fn guarded_patch_matches_cold_on_stratified_programs(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let with_negation = rng.gen_bool(0.7);
        let with_aggregate = rng.gen_bool(0.5);
        let src = random_rules(&mut rng, with_negation, with_aggregate);
        let program = parse_program(&src).expect("generated program parses");
        let (base, added) = random_facts(&mut rng);
        assert_patch_equals_cold("stratified", &program, &base, &added, &[]);
    }

    /// Retractions always trigger the cold fallback; the re-run must
    /// equal a cold run over the reduced fact set.
    #[test]
    fn retraction_matches_cold(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let with_negation = rng.gen_bool(0.5);
        let src = random_rules(&mut rng, with_negation, false);
        let program = parse_program(&src).expect("generated program parses");
        let (base, added) = random_facts(&mut rng);
        let victim = base[rng.gen_range(0..base.len())].clone();
        let removed = vec![victim];
        let (_, warm) =
            assert_patch_equals_cold("retraction", &program, &base, &added, &removed);
        prop_assert!(!warm, "retractions must force the cold fallback");
    }
}

/// A second patch on the same session reuses the already-saturated state:
/// chained patches must match a cold run over the accumulated facts.
#[test]
fn chained_patches_match_cold() {
    let src = "a(X, Y) :- e0(X, Y).\n\
               tc(X, Y) :- a(X, Y).\n\
               tc(X, Z) :- a(X, Y), tc(Y, Z).";
    let program = parse_program(src).unwrap();
    let base = vec![("e0".to_string(), vec![Value::Int(1), Value::Int(2)])];
    let mut session = Engine::new()
        .session(program.clone(), db_of(&base))
        .unwrap();
    let mut all = base.clone();
    for step in 2..6i64 {
        let fact = (
            "e0".to_string(),
            vec![Value::Int(step), Value::Int(step + 1)],
        );
        all.push(fact.clone());
        let outcome = session.patch(FactPatch::additions(vec![fact])).unwrap();
        assert!(outcome.warm, "chain-extension patch must stay warm");
    }
    let cold = Engine::new().run(&program, db_of(&all)).unwrap();
    assert_eq!(fact_sets(session.db()), fact_sets(&cold.db));
    assert_eq!(session.termination(), &cold.termination);
    assert_eq!(session.session_stats().warm_patches, 4);
    assert_eq!(session.session_stats().cold_fallbacks, 0);
}
