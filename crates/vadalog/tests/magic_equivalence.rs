//! Equivalence suite for goal-directed (magic-sets) evaluation.
//!
//! The magic rewrite ([`vadalog::magic`]) is an evaluation-strategy
//! change with a sliced contract: for every goal, the **goal slice** of
//! the goal-directed run (the goal predicate's rows filtered by the goal
//! constants, [`goal_slice`]) must equal the goal slice of the full
//! fixpoint — whether the rewrite applied, degenerated, or refused and
//! fell back. The unfiltered goal-pred relation of a magic run may be a
//! *superset* of the slice (magic sets widen transitively, e.g. over a
//! closure), which is why the comparison filters both sides.
//!
//! This suite generates random stratified programs — chain joins,
//! comparisons, `Let` bindings, recursion, stratified negation and
//! monotonic aggregation, the same family as `join_equivalence` — plus
//! random goals (bound, half-bound and unbound, on every stratum
//! including the negation and aggregate ones), and checks the contract
//! with the extensional facts given either as program text or as the
//! input [`Database`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use vadalog::{
    goal_slice, parse_goal, parse_program, Atom, Database, Engine, MagicOptions, Program,
    Termination, Value,
};

/// Parse `src`; with `facts_as_input`, its facts move out of the program
/// into the input database the runs start from.
fn load(src: &str, facts_as_input: bool) -> (Program, Database) {
    let mut program = parse_program(src).expect("generated program parses");
    let mut input = Database::new();
    if facts_as_input {
        for fact in std::mem::take(&mut program.facts) {
            input.insert_fact(fact);
        }
    }
    (program, input)
}

/// Full (non-goal) run under the indexed join core.
fn run_full(program: &Program, input: Database) -> vadalog::ReasoningResult {
    Engine::new()
        .run(program, input)
        .expect("generated program evaluates")
}

/// Goal-directed run.
fn run_goal(
    program: &Program,
    input: Database,
    goals: &[Atom],
    options: MagicOptions,
) -> vadalog::GoalRun {
    Engine::new()
        .run_with_goals(program, input, goals, options)
        .expect("goal-directed run evaluates")
}

fn slice_set(db: &Database, goal: &Atom) -> BTreeSet<Vec<Value>> {
    goal_slice(db, goal).into_iter().collect()
}

/// Same generator family as `join_equivalence::random_program`: three
/// binary EDBs, chain-join IDBs, a recursive closure, a negation stratum
/// and (half the time) an aggregate stratum.
fn random_program(rng: &mut StdRng) -> (String, i64, bool) {
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
    let has_cnt = rng.gen_bool(0.5);
    if has_cnt {
        src.push_str("cnt(X, C) :- tc(X, Y), C = mcount(<Y>).\n");
    }
    (src, domain, has_cnt)
}

/// A random goal over the generated program's predicates: bound,
/// half-bound or unbound, deliberately including the negation stratum
/// (`only`) and the aggregate stratum (`cnt`) so refusal/demotion paths
/// get continuous coverage.
fn random_goal(rng: &mut StdRng, domain: i64, has_cnt: bool) -> Atom {
    let preds = if has_cnt {
        vec!["tc", "only", "a0", "a1", "a2", "cnt"]
    } else {
        vec!["tc", "only", "a0", "a1", "a2"]
    };
    let pred = preds[rng.gen_range(0..preds.len())];
    let c = rng.gen_range(0..domain + 2); // sometimes out of the domain
    let spec = match rng.gen_range(0..4) {
        0 => format!("{pred}({c}, ?)"),
        1 => format!("{pred}(?, {c})"),
        2 => format!("{pred}({c}, {})", rng.gen_range(0..domain)),
        _ => format!("{pred}(?, ?)"), // degenerate: must run the original
    };
    parse_goal(&spec).expect("generated goal parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Goal slice of the goal-directed run ≡ goal slice of the full
    /// fixpoint, whatever path (rewrite / degenerate / fallback) the
    /// goals trigger. Half the cases pass their facts as the input
    /// database rather than as program text.
    #[test]
    fn goal_slices_match_full_fixpoint(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (src, domain, has_cnt) = random_program(&mut rng);
        let goal = random_goal(&mut rng, domain, has_cnt);
        let (program, input) = load(&src, rng.gen_bool(0.5));
        let full = run_full(&program, input.clone());
        prop_assert_eq!(&full.termination, &Termination::Fixpoint);
        let want = slice_set(&full.db, &goal);
        let out = run_goal(&program, input, std::slice::from_ref(&goal), MagicOptions::default());
        prop_assert_eq!(
            &out.result.termination,
            &Termination::Fixpoint,
            "termination (magic: {:?})", out.magic
        );
        let got = slice_set(&out.result.db, &goal);
        prop_assert_eq!(
            &want, &got,
            "goal {} slice differs (magic: {:?})", goal.pred, out.magic
        );
        // soundness beyond the slice: every goal-pred fact the magic
        // run derived is a fact of the full fixpoint
        let fixpoint: BTreeSet<Vec<Value>> = full.db.rows(&goal.pred).into_iter().collect();
        for row in out.result.db.rows(&goal.pred) {
            prop_assert!(
                fixpoint.contains(&row),
                "unsound {}{:?}", goal.pred, row
            );
        }
    }
}

/// Closed-groups contract on a risk-shaped program (ALG2/ALG5 family):
/// goals covering a complete quasi-identifier group may keep the
/// aggregate inputs restricted and still reproduce the full run's risks
/// for those rows exactly.
#[test]
fn closed_group_risk_goals_match_full_run() {
    // rows 0-2 share one QI signature, rows 3-4 another
    let mut src = String::new();
    for (i, (area, weight)) in [
        ("\"roma\"", 10),
        ("\"roma\"", 20),
        ("\"roma\"", 30),
        ("\"milano\"", 40),
        ("\"milano\"", 50),
    ]
    .iter()
    .enumerate()
    {
        src.push_str(&format!("val(\"m\", {i}, \"area\", {area}).\n"));
        src.push_str(&format!("val(\"m\", {i}, \"w\", {weight}).\n"));
    }
    src.push_str("cat(\"m\", \"area\", \"quasi-identifier\").\n");
    src.push_str("cat(\"m\", \"w\", \"weight\").\n");
    src.push_str(
        "tuple(M, I, VSet) :- val(M, I, A, V), cat(M, A, \"quasi-identifier\"),\n\
         VSet = munion(pair(A, V), <A>).\n\
         wgt(I, W) :- val(M, I, A, W), cat(M, A, \"weight\").\n\
         tuplea(VSet, F, S) :- tuple(M, I, VSet), wgt(I, W),\n\
         F = mcount(<I>), S = msum(W, <I>).\n\
         riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, F, S), R = F / S.\n",
    );

    let (program, input) = load(&src, false);
    let full = run_full(&program, input.clone());
    // goal set = the complete "roma" group: closed under group equality
    let goals: Vec<Atom> = (0..3)
        .map(|i| parse_goal(&format!("riskOutput({i}, ?)")).expect("goal parses"))
        .collect();
    let out = run_goal(
        &program,
        input,
        &goals,
        MagicOptions {
            closed_groups: true,
        },
    );
    assert!(
        out.magic.applied,
        "closed-groups risk goals must rewrite, got {:?}",
        out.magic
    );
    for goal in &goals {
        assert_eq!(
            slice_set(&out.result.db, goal),
            slice_set(&full.db, goal),
            "risk slice differs for {goal:?}"
        );
    }
    // the restriction is real: the milano rows were never reified
    assert!(
        out.result.db.rows("tuple").len() < full.db.rows("tuple").len(),
        "expected fewer reified tuples under the goal restriction"
    );
}

/// Unbound goals degenerate: the engine must run the *original* program,
/// producing the identical fact set — not a rewritten variant of it.
#[test]
fn unbound_goal_is_byte_for_byte_the_full_run() {
    let src = "e0(1, 2). e0(2, 3).\n\
               tc(X, Y) :- e0(X, Y).\n\
               tc(X, Z) :- e0(X, Y), tc(Y, Z).";
    let goal = parse_goal("tc(?, ?)").expect("parses");
    let (program, input) = load(src, false);
    let full = run_full(&program, input.clone());
    let out = run_goal(&program, input, &[goal], MagicOptions::default());
    assert!(out.magic.degenerate);
    let names: Vec<String> = full.db.relation_names().map(str::to_string).collect();
    for name in names {
        assert_eq!(full.db.rows(&name), out.result.db.rows(&name), "{name}");
    }
    assert_eq!(
        full.stats.facts_derived, out.result.stats.facts_derived,
        "derivation effort must be identical"
    );
}
