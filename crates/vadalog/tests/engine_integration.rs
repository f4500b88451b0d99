//! Engine integration tests: classic Datalog workloads, mutual and
//! non-linear recursion, negation stacks, every aggregate, and
//! chase/EGD interplay — exercised through the public parse-and-run API.

use vadalog::{parse_program, Database, Engine, EngineConfig, EngineError, Value};

fn run(src: &str) -> vadalog::ReasoningResult {
    Engine::new()
        .run(&parse_program(src).expect("parses"), Database::new())
        .expect("evaluates")
}

#[test]
fn same_generation() {
    // the classic: cousins at the same depth of a family tree
    let r = run("par(\"a1\", \"root\"). par(\"a2\", \"root\").\n\
         par(\"b1\", \"a1\"). par(\"b2\", \"a2\").\n\
         sg(X, X) :- par(X, P).\n\
         sg(X, X) :- par(C, X).\n\
         sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).");
    let sg = r.db.rows("sg");
    let has = |x: &str, y: &str| {
        sg.iter()
            .any(|row| row[0] == Value::str(x) && row[1] == Value::str(y))
    };
    assert!(has("a1", "a2"), "siblings are same-generation");
    assert!(has("b1", "b2"), "cousins are same-generation");
    assert!(!has("a1", "b1"), "different generations");
}

#[test]
fn non_linear_recursion() {
    // path via doubling: path(X,Y) :- path(X,Z), path(Z,Y)
    let mut src = String::new();
    for i in 0..32 {
        src.push_str(&format!("edge({}, {}).\n", i, i + 1));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n");
    let r = run(&src);
    assert_eq!(r.db.rows("path").len(), 32 * 33 / 2);
}

#[test]
fn mutual_recursion() {
    let r = run("num(0). succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).\n\
         num(Y) :- num(X), succ(X, Y).\n\
         even(0).\n\
         odd(Y) :- even(X), succ(X, Y).\n\
         even(Y) :- odd(X), succ(X, Y).");
    let evens: Vec<Vec<Value>> = r.db.rows("even");
    let odds: Vec<Vec<Value>> = r.db.rows("odd");
    assert_eq!(evens.len(), 3); // 0, 2, 4
    assert_eq!(odds.len(), 2); // 1, 3
}

#[test]
fn layered_negation() {
    // three strata: reachable, blocked, and allowed = node ∖ blocked
    let r = run("node(1). node(2). node(3). node(4).\n\
         edge(1, 2). edge(2, 3).\n\
         reach(1).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         unreach(X) :- node(X), not reach(X).\n\
         both(X) :- node(X), not unreach(X).");
    assert_eq!(r.db.rows("unreach").len(), 1); // node 4
    assert_eq!(r.db.rows("both").len(), 3); // 1, 2, 3
}

#[test]
fn all_aggregates_in_one_program() {
    let r = run("t(\"g\", 1, 10). t(\"g\", 2, 30). t(\"g\", 3, 20).\n\
         s(G, X) :- t(G, I, W), X = msum(W, <I>).\n\
         c(G, X) :- t(G, I, W), X = mcount(<I>).\n\
         mn(G, X) :- t(G, I, W), X = mmin(W, <I>).\n\
         mx(G, X) :- t(G, I, W), X = mmax(W, <I>).\n\
         u(G, X) :- t(G, I, W), X = munion(W, <W>).");
    assert_eq!(r.db.rows("s")[0][1], Value::Int(60));
    assert_eq!(r.db.rows("c")[0][1], Value::Int(3));
    assert_eq!(r.db.rows("mn")[0][1], Value::Int(10));
    assert_eq!(r.db.rows("mx")[0][1], Value::Int(30));
    assert_eq!(r.db.rows("u")[0][1].as_set().unwrap().len(), 3);
}

#[test]
fn mprod_risk_combination() {
    // the Algorithm 9 flavour: cluster risk 1 - ∏(1 - ρ)
    let r = run(
        "risk(\"c1\", \"e1\", 0.5). risk(\"c1\", \"e2\", 0.5). risk(\"c2\", \"e3\", 0.1).\n\
         safe(C, P) :- risk(C, E, R), S = 1.0 - R, P = mprod(S, <E>).\n\
         cluster(C, R) :- safe(C, P), R = 1.0 - P.",
    );
    let rows = r.db.rows("cluster");
    let of = |c: &str| {
        rows.iter()
            .find(|row| row[0] == Value::str(c))
            .and_then(|row| row[1].as_f64())
            .unwrap()
    };
    assert!((of("c1") - 0.75).abs() < 1e-9);
    assert!((of("c2") - 0.1).abs() < 1e-9);
}

#[test]
fn chase_feeds_recursion() {
    // nulls created by existentials participate in later joins
    let r = run("emp(\"ann\"). emp(\"bob\").\n\
         dept(E, D) :- emp(E).\n\
         hasdept(D) :- dept(E, D).\n\
         colleagues(E1, E2) :- dept(E1, D), dept(E2, D), E1 != E2.");
    assert_eq!(r.db.rows("hasdept").len(), 2);
    // each employee got a distinct department null → no colleagues
    assert_eq!(r.db.rows("colleagues").len(), 0);
}

#[test]
fn egd_merges_departments_enabling_joins() {
    // same as above, but an EGD declares the company has one department
    let r = run("emp(\"ann\"). emp(\"bob\").\n\
         dept(E, D) :- emp(E).\n\
         D1 = D2 :- dept(E1, D1), dept(E2, D2).\n\
         colleagues(E1, E2) :- dept(E1, D), dept(E2, D), E1 != E2.");
    assert_eq!(
        r.db.rows("colleagues").len(),
        2,
        "after unification ann and bob share the department"
    );
    assert!(r.stats.unifications >= 1);
}

#[test]
fn set_and_pair_machinery() {
    let r = run("item(\"a\", 1). item(\"b\", 2). item(\"c\", 3).\n\
         bag(S) :- item(K, V), S = munion(pair(K, V), <K>).\n\
         picked(V) :- bag(S), V = S[\"b\"].\n\
         ks(K2) :- bag(S), K2 = size(keys(S)).");
    assert_eq!(r.db.rows("picked")[0][0], Value::Int(2));
    assert_eq!(r.db.rows("ks")[0][0], Value::Int(3));
}

#[test]
fn arithmetic_and_case_pipeline() {
    let r = run("reading(1, 5). reading(2, 50). reading(3, 500).\n\
         scaled(I, S) :- reading(I, V), S = V * 2 + 1.\n\
         flagged(I, F) :- scaled(I, S), F = case S > 100 then \"high\" else \"low\".");
    let rows = r.db.rows("flagged");
    let of = |i: i64| {
        rows.iter()
            .find(|row| row[0] == Value::Int(i))
            .map(|row| row[1].clone())
            .unwrap()
    };
    assert_eq!(of(1), Value::str("low"));
    assert_eq!(of(3), Value::str("high"));
}

#[test]
fn facts_survive_and_merge_across_inputs() {
    // facts from the Database input and from the program text co-exist
    let program = parse_program(
        "base(\"from-text\").\n\
         all(X) :- base(X).",
    )
    .unwrap();
    let mut db = Database::new();
    db.insert("base", vec![Value::str("from-db")]);
    let r = Engine::new().run(&program, db).unwrap();
    assert_eq!(r.db.rows("all").len(), 2);
}

#[test]
fn resource_guard_stops_fact_explosions() {
    let program = parse_program(
        "n(0). n(1). n(2). n(3). n(4). n(5). n(6). n(7). n(8). n(9).\n\
         t(A, B, C, D, E) :- n(A), n(B), n(C), n(D), n(E).",
    )
    .unwrap();
    let engine = Engine::with_config(EngineConfig {
        max_facts: 1_000,
        ..Default::default()
    });
    match engine.run(&program, Database::new()) {
        Err(EngineError::ResourceLimit {
            facts_so_far,
            limit: 1_000,
            ..
        }) => {
            assert!(facts_so_far > 1_000);
        }
        other => panic!("expected resource limit, got {other:?}"),
    }
}

#[test]
fn unsafe_rules_are_rejected_up_front() {
    let program = parse_program("h(X, Y) :- p(X), Y > 3.").unwrap();
    match Engine::new().run(&program, Database::new()) {
        Err(EngineError::Unsafe { .. }) => {}
        other => panic!("expected safety rejection, got {other:?}"),
    }
}

#[test]
fn float_int_mixing_in_aggregates() {
    let r = run("t(\"g\", 1, 1). t(\"g\", 2, 0.5).\n\
         s(G, X) :- t(G, I, W), X = msum(W, <I>).");
    assert_eq!(r.db.rows("s")[0][1], Value::Float(1.5));
}

#[test]
fn deterministic_across_runs() {
    let src = "edge(1, 2). edge(2, 3). edge(1, 3).\n\
               w(X, Y, C) :- edge(X, Y), C = mcount(<Y>).\n\
               p(X, Y) :- edge(X, Y).\n\
               p(X, Y) :- edge(X, Z), p(Z, Y).";
    let mut outputs = Vec::new();
    for _ in 0..3 {
        let r = run(src);
        let mut rows = r.db.rows("p");
        rows.sort();
        outputs.push(rows);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

/// Two runs of the same program store every relation's rows in the same
/// order, mint the same null labels and trace the same derivations. An
/// aggregate that emitted its groups in hash-map order would reorder its
/// facts from run to run, and the existential rule it feeds would mint
/// its nulls in that order.
#[test]
fn aggregate_feeding_an_existential_is_deterministic_across_runs() {
    let mut src = String::new();
    for g in 0..40 {
        for i in 0..=(g % 3) {
            src.push_str(&format!("t(\"g{g}\", {i}, {}).\n", (g * 7 + i) % 5));
        }
    }
    src.push_str(
        "cnt(G, C) :- t(G, I, W), C = mcount(<I>).\n\
         tot(G, S) :- t(G, I, W), S = msum(W, <I>).\n\
         tag(G, N) :- cnt(G, C), C > 1.\n\
         marked(N, S) :- tag(G, N), tot(G, S).\n",
    );
    let program = parse_program(&src).expect("parses");
    let run = || {
        Engine::with_config(EngineConfig {
            trace: true,
            ..EngineConfig::default()
        })
        .run(&program, Database::new())
        .expect("evaluates")
    };
    let (first, second) = (run(), run());
    for pred in ["cnt", "tot", "tag", "marked"] {
        assert!(!first.db.rows(pred).is_empty(), "{pred} derived nothing");
        assert_eq!(
            first.db.rows(pred),
            second.db.rows(pred),
            "{pred}: rows stored in a different order (or with other nulls)"
        );
    }
    let trace = |r: &vadalog::ReasoningResult| -> Vec<String> {
        r.trace
            .iter()
            .map(|t| format!("{} <- {} {:?}", t.fact, t.rule, t.binding))
            .collect()
    };
    assert_eq!(trace(&first), trace(&second), "traces differ");
}
