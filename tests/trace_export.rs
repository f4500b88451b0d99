//! Trace exporter tests: golden files for the Chrome `trace_event` and
//! collapsed-stack renderings of a fixed Fig. 5-style cycle profile, a
//! Recorder ↔ JSON-lines equivalence check, and a property test that the
//! emitted span trees always nest (child intervals inside their parent's)
//! no matter how hostile the recorded durations are.
//!
//! The golden files live in `tests/golden/`. To regenerate after an
//! intentional exporter change, run with `UPDATE_GOLDEN=1` and review the
//! diff like any other code change.

use proptest::prelude::*;
use std::sync::Arc;
use vadasa_core::cycle::{CycleProfile, IterationRecord};
use vadasa_core::obs::trace::{TraceBuilder, TraceTree};
use vadasa_core::obs::{json, Fanout, JsonLinesWriter, Obs, Recorder};
use vadasa_core::progress;

/// A deterministic profile shaped like the paper's Figure 5 run: three
/// iterations (the last one the converged evaluation), fixed durations.
fn fig5_profile() -> CycleProfile {
    CycleProfile {
        iterations: vec![
            IterationRecord {
                iteration: 0,
                risky: 3,
                exhausted: 0,
                min_risk: 0.0,
                mean_risk: 0.5,
                max_risk: 1.0,
                heuristic: "less-significant-first/all-risky → row 5".into(),
                targets: 3,
                suppressions: 2,
                recodings: 0,
                risk_eval_ns: 150_000,
                dur_ns: 400_000,
                commit_ns: 0,
            },
            IterationRecord {
                iteration: 1,
                risky: 1,
                exhausted: 0,
                min_risk: 0.0,
                mean_risk: 0.25,
                max_risk: 1.0,
                heuristic: "less-significant-first/all-risky → row 2".into(),
                targets: 1,
                suppressions: 1,
                recodings: 0,
                risk_eval_ns: 120_000,
                dur_ns: 350_000,
                commit_ns: 0,
            },
            IterationRecord {
                iteration: 2,
                risky: 0,
                exhausted: 0,
                min_risk: 0.0,
                mean_risk: 0.0,
                max_risk: 0.0,
                heuristic: "converged".into(),
                targets: 0,
                suppressions: 0,
                recodings: 0,
                risk_eval_ns: 100_000,
                dur_ns: 250_000,
                commit_ns: 0,
            },
        ],
        risk_eval_ns: 370_000,
        total_ns: 1_000_000,
        fallback_ns: 0,
        fallback: None,
        warm: Default::default(),
        journal: Default::default(),
        progress: progress::estimate(&[3, 1, 0]),
    }
}

fn emit_to_tree(profile: &CycleProfile) -> TraceTree {
    let rec = Recorder::new();
    profile.emit(&Obs::new(Some(&rec)));
    TraceBuilder::from_recorder(&rec)
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read golden {path}: {e}; run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let tree = emit_to_tree(&fig5_profile());
    let mut actual = tree.chrome_trace_json();
    actual.push('\n');
    check_golden("fig5_trace.json", &actual);
}

#[test]
fn collapsed_stacks_match_golden() {
    let tree = emit_to_tree(&fig5_profile());
    check_golden("fig5_collapsed.txt", &tree.collapsed_stacks());
}

#[test]
fn chrome_trace_is_valid_json_with_nested_complete_events() {
    let tree = emit_to_tree(&fig5_profile());
    let parsed = json::parse(&tree.chrome_trace_json()).expect("chrome trace parses");
    let json::Json::Arr(events) = parsed.get("traceEvents").expect("traceEvents").clone() else {
        panic!("traceEvents is not an array");
    };
    // one cycle.run root, 3 iterations, 3 risk-eval grandchildren, one
    // aggregate risk-eval child
    assert_eq!(events.len(), tree.nodes.len());
    assert_eq!(events.len(), 8);
    for e in &events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
    }
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
}

/// The JSON-lines sink and the in-process recorder reconstruct the same
/// tree: exporter output is byte-for-byte identical through either path.
#[test]
fn json_lines_round_trip_reproduces_the_recorder_tree() {
    let profile = fig5_profile();
    let rec = Arc::new(Recorder::new());
    let sink = Arc::new(JsonLinesWriter::new(Vec::<u8>::new()));
    let fanout = Fanout::new(vec![
        rec.clone() as Arc<dyn vadasa_core::obs::Collector>,
        sink.clone(),
    ]);
    profile.emit(&Obs::new(Some(&fanout)));

    let from_recorder = TraceBuilder::from_recorder(&rec);
    drop(fanout);
    let Ok(sink) = Arc::try_unwrap(sink) else {
        panic!("sole owner after fanout drop");
    };
    let bytes = sink.into_inner();
    let text = String::from_utf8(bytes).expect("utf-8 telemetry");
    let from_lines = TraceBuilder::from_json_lines(&text);

    assert_eq!(
        from_recorder.chrome_trace_json(),
        from_lines.chrome_trace_json()
    );
    assert_eq!(
        from_recorder.collapsed_stacks(),
        from_lines.collapsed_stacks()
    );
}

/// Nesting invariants every emitted tree must satisfy, however the
/// recorded durations relate to the recorded total.
fn assert_nested(tree: &TraceTree) {
    for node in &tree.nodes {
        if let Some(p) = node.parent {
            let parent = &tree.nodes[p];
            assert!(
                node.start_ns >= parent.start_ns,
                "child {} starts before parent {}",
                node.name,
                parent.name
            );
            assert!(
                node.end_ns() <= parent.end_ns(),
                "child {} ({}..{}) ends past parent {} ({}..{})",
                node.name,
                node.start_ns,
                node.end_ns(),
                parent.name,
                parent.start_ns,
                parent.end_ns()
            );
        }
    }
}

proptest! {
    /// Hostile per-iteration durations — longer than the run, zero-width,
    /// risk-eval larger than its iteration — still produce a properly
    /// nested tree with one `cycle.run` root, one child per iteration,
    /// and one risk-eval grandchild each.
    #[test]
    fn cycle_emit_always_produces_nested_spans(
        durs in proptest::collection::vec((0u64..2_000_000, 0u64..2_000_000), 0..16),
        total in 0u64..3_000_000,
    ) {
        let profile = CycleProfile {
            iterations: durs
                .iter()
                .enumerate()
                .map(|(i, &(dur_ns, risk_eval_ns))| IterationRecord {
                    iteration: i,
                    risky: 1,
                    exhausted: 0,
                    min_risk: 0.0,
                    mean_risk: 0.5,
                    max_risk: 1.0,
                    heuristic: "h".into(),
                    targets: 1,
                    suppressions: 1,
                    recodings: 0,
                    risk_eval_ns,
                    dur_ns,
                    commit_ns: 0,
                })
                .collect(),
            risk_eval_ns: durs.iter().map(|&(_, r)| r).sum(),
            total_ns: total,
            fallback_ns: 0,
            fallback: None,
            warm: Default::default(),
            journal: Default::default(),
            progress: None,
        };
        let tree = emit_to_tree(&profile);
        prop_assert_eq!(tree.roots.len(), 1, "exactly one root");
        prop_assert_eq!(tree.nodes[tree.roots[0]].name.as_str(), "cycle.run");
        prop_assert_eq!(tree.nodes.len(), 2 + 2 * durs.len());
        assert_nested(&tree);
        // exporters never panic on these trees either
        let _ = tree.chrome_trace_json();
        let _ = tree.collapsed_stacks();
    }
}

/// Each iteration boundary that took time is a `cycle.commit` span right
/// after its iteration, the fallback a `cycle.fallback` span after the
/// last one, and later iterations move over by the time between them.
#[test]
fn commit_and_fallback_spans_sit_between_iterations() {
    let mut profile = fig5_profile();
    profile.iterations[0].commit_ns = 30_000;
    profile.iterations[1].commit_ns = 20_000;
    profile.fallback_ns = 80_000;
    profile.total_ns = 1_200_000;
    let tree = emit_to_tree(&profile);
    assert_nested(&tree);
    let spans = |name: &str| {
        tree.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| {
                let parent = n.parent.map(|p| tree.nodes[p].name.as_str());
                assert_eq!(parent, Some("cycle.run"), "{name} is a child of the run");
                (n.start_ns, n.dur_ns)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        spans("cycle.iteration"),
        [(0, 400_000), (430_000, 350_000), (800_000, 250_000)]
    );
    assert_eq!(
        spans("cycle.commit"),
        [(400_000, 30_000), (780_000, 20_000)]
    );
    assert_eq!(spans("cycle.fallback"), [(1_050_000, 80_000)]);
}

proptest! {
    /// Hostile boundary and fallback times nest like iterations do: one
    /// span per nonzero time, none for a zero one.
    #[test]
    fn commit_and_fallback_spans_always_nest(
        durs in proptest::collection::vec((0u64..2_000_000, 0u64..2_000_000), 0..16),
        fallback_ns in 0u64..2_000_000,
        total in 0u64..3_000_000,
    ) {
        let profile = CycleProfile {
            iterations: durs
                .iter()
                .enumerate()
                .map(|(i, &(dur_ns, commit_ns))| IterationRecord {
                    iteration: i,
                    risk_eval_ns: dur_ns / 2,
                    dur_ns,
                    commit_ns,
                    ..IterationRecord::default()
                })
                .collect(),
            total_ns: total,
            fallback_ns,
            ..CycleProfile::default()
        };
        let tree = emit_to_tree(&profile);
        prop_assert_eq!(tree.roots.len(), 1, "exactly one root");
        let commits = durs.iter().filter(|&&(_, c)| c > 0).count();
        let fallbacks = usize::from(fallback_ns > 0);
        prop_assert_eq!(tree.nodes.len(), 2 + 2 * durs.len() + commits + fallbacks);
        assert_nested(&tree);
    }
}

/// The engine's emitted tree obeys the same nesting contract on a real
/// recursive-rule evaluation.
#[test]
fn engine_emit_produces_a_nested_trace_on_a_real_run() {
    let program = vadalog::parse_program(
        "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).",
    )
    .expect("parse");
    let rec = Arc::new(Recorder::new());
    let engine = vadalog::Engine::with_config(vadalog::EngineConfig {
        collector: Some(rec.clone()),
        ..Default::default()
    });
    engine
        .run(&program, vadalog::Database::new())
        .expect("fixpoint");

    let tree = TraceBuilder::from_recorder(&rec);
    let roots: Vec<&str> = tree
        .roots
        .iter()
        .map(|&r| tree.nodes[r].name.as_str())
        .collect();
    assert_eq!(roots, ["engine.run"], "one engine.run root, got {roots:?}");
    assert!(
        tree.nodes.iter().any(|n| n.name == "engine.stratum"),
        "strata spans present"
    );
    assert!(
        tree.nodes.iter().any(|n| n.name == "engine.round"),
        "round spans present"
    );
    assert_nested(&tree);
}
