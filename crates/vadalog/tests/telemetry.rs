//! Telemetry integration tests: exact hand-checked values for the
//! engine's evaluation counters ([`EngineProfile`] / `EvalStats`), and a
//! full JSON-lines round-trip through the [`vadasa_obs`] collector layer.

use std::io::Write;
use std::sync::{Arc, Mutex};
use vadalog::obs::{json, Collector, JsonLinesWriter, Recorder};
use vadalog::{parse_program, Database, Engine, EngineConfig, JoinMode};

/// Run under [`JoinMode::Reference`]: the hand-traced candidate counts in
/// these tests assume classic nested-loop scans in source literal order.
/// (The default indexed executor examines *fewer* rows — see
/// `indexed_join_examines_no_more_candidates` below.)
fn run(src: &str) -> vadalog::ReasoningResult {
    Engine::with_config(EngineConfig {
        join_mode: JoinMode::Reference,
        ..EngineConfig::default()
    })
    .run(&parse_program(src).expect("parses"), Database::new())
    .expect("evaluates")
}

fn run_with_collector(src: &str, collector: Arc<dyn Collector>) -> vadalog::ReasoningResult {
    let config = EngineConfig {
        collector: Some(collector),
        ..EngineConfig::default()
    };
    Engine::with_config(config)
        .run(&parse_program(src).expect("parses"), Database::new())
        .expect("evaluates")
}

/// Linear transitive closure over a 3-edge chain, hand-traced round by
/// round under semi-naive evaluation:
///
/// ```text
/// round 0 (full): r0 scans 3 edges → 3 firings, path {12,23,34};
///                 r1 scans 3 edges, path empty → 3 candidates, 0 firings.
/// round 1 (Δ=3 path rows): r1 focus on path: 3 edges + 3×3 delta rows
///                 = 12 candidates, fires edge(1,2)∙path(2,3) and
///                 edge(2,3)∙path(3,4) → path {13,24}.
/// round 2 (Δ=2): r1: 3 + 3×2 = 9 candidates, fires edge(1,2)∙path(2,4)
///                 → path {14}.
/// round 3 (Δ=1): r1: 3 + 3×1 = 6 candidates, nothing joins → Δ=0, stop.
/// ```
#[test]
fn transitive_closure_counters_are_exact() {
    let r = run("edge(1, 2). edge(2, 3). edge(3, 4).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).");
    assert_eq!(r.db.rows("path").len(), 6);

    // EvalStats: 6 derived facts over 4 semi-naive rounds, no chase/EGDs.
    assert_eq!(r.stats.facts_derived, 6);
    assert_eq!(r.stats.iterations, 4);
    assert_eq!(r.stats.nulls_created, 0);
    assert_eq!(r.stats.unifications, 0);

    // EngineProfile mirrors the stats...
    assert_eq!(r.profile.facts_derived, 6);
    assert_eq!(r.profile.iterations, 4);
    assert_eq!(r.profile.nulls_created, 0);
    assert_eq!(r.profile.violations, 0);

    // ...and adds the per-stratum / per-round / per-rule breakdown.
    assert_eq!(r.profile.strata.len(), 1, "both rules share one stratum");
    let stratum = &r.profile.strata[0];
    assert_eq!(stratum.passes, 1);
    assert_eq!(stratum.facts_derived, 6);
    let deltas: Vec<u64> = stratum.rounds.iter().map(|round| round.delta).collect();
    assert_eq!(deltas, vec![3, 2, 1, 0]);

    let base = &r.profile.rules[0]; // path(X,Y) :- edge(X,Y)
    assert_eq!(base.firings, 3);
    assert_eq!(base.facts_derived, 3);
    assert_eq!(base.join_candidates, 3, "edge scanned once, then Δ-empty");

    let step = &r.profile.rules[1]; // path(X,Z) :- edge(X,Y), path(Y,Z)
    assert_eq!(step.firings, 3);
    assert_eq!(step.facts_derived, 3);
    assert_eq!(step.join_candidates, 3 + 12 + 9 + 6);
}

/// The default (indexed, planned) executor must reach the same result
/// while examining no more join candidates than the reference
/// nested-loop path — and its new profile counters must be live.
#[test]
fn indexed_join_examines_no_more_candidates() {
    let src = "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).";
    let reference = run(src);
    let indexed = Engine::new()
        .run(&parse_program(src).expect("parses"), Database::new())
        .expect("evaluates");
    assert_eq!(
        indexed.db.rows("path").len(),
        reference.db.rows("path").len()
    );
    let cands = |r: &vadalog::ReasoningResult| -> u64 {
        r.profile.rules.iter().map(|rp| rp.join_candidates).sum()
    };
    assert!(
        cands(&indexed) <= cands(&reference),
        "indexed examined {} candidates, reference {}",
        cands(&indexed),
        cands(&reference)
    );
    assert!(indexed.profile.index_probes > 0, "no index probes recorded");
    assert!(
        indexed.profile.planner_reorders > 0,
        "recursive TC rule should be reordered (delta first)"
    );
    assert_eq!(reference.profile.index_probes, 0);
    assert_eq!(reference.profile.planner_reorders, 0);
}

/// The restricted chase mints one labelled null per employee (skolem
/// memoization: re-deriving the same frontier re-uses the null), and the
/// one-department EGD unifies the two nulls with a single substitution.
#[test]
fn chase_and_egd_counters_are_exact() {
    let chase = run("emp(\"ann\"). emp(\"bob\").\n\
         dept(E, D) :- emp(E).");
    assert_eq!(chase.stats.nulls_created, 2);
    assert_eq!(chase.profile.nulls_created, 2);
    assert_eq!(chase.stats.unifications, 0);

    let egd = run("emp(\"ann\"). emp(\"bob\").\n\
         dept(E, D) :- emp(E).\n\
         D1 = D2 :- dept(E1, D1), dept(E2, D2).");
    assert_eq!(egd.stats.nulls_created, 2);
    assert_eq!(egd.stats.unifications, 1, "one null absorbed the other");
    assert_eq!(egd.profile.unifications, 1);
    assert_eq!(egd.profile.violations, 0);
    // the unification is attributed to the EGD rule (index 1)
    assert_eq!(egd.profile.rules[1].unifications, 1);
    assert_eq!(r_unifications_total(&egd.profile), egd.profile.unifications);
}

fn r_unifications_total(profile: &vadalog::EngineProfile) -> u64 {
    profile.rules.iter().map(|r| r.unifications).sum()
}

/// An attached [`Recorder`] sees exactly the aggregate counters the
/// profile reports — the replayed event stream and the in-band profile
/// cannot drift apart.
#[test]
fn recorder_totals_match_profile() {
    let recorder = Arc::new(Recorder::new());
    let r = run_with_collector(
        "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).",
        recorder.clone(),
    );
    assert_eq!(recorder.counter_total("engine.facts_derived"), 6);
    assert_eq!(recorder.counter_total("engine.iterations"), 4);
    assert_eq!(
        recorder.counter_total("engine.rule.join_candidates"),
        r.profile.rules.iter().map(|rp| rp.join_candidates).sum()
    );
    // one engine.round span per semi-naive round
    assert_eq!(
        recorder.events_named("engine.round").len(),
        r.profile.total_rounds()
    );
    assert_eq!(recorder.events_named("engine.run").len(), 1);
}

/// A `Write` sink the test can keep a handle on while the engine owns the
/// collector.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every line the JSON-lines writer emits parses back with the in-tree
/// JSON parser, carries the mandatory envelope fields, and sequence
/// numbers are gapless.
#[test]
fn json_lines_round_trip() {
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonLinesWriter::new(buf.clone()));
    run_with_collector(
        "edge(1, 2). edge(2, 3).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).",
        sink,
    );

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "collector saw no events");

    let mut saw_round_span = false;
    for (i, line) in lines.iter().enumerate() {
        let value = json::parse(line).unwrap_or_else(|e| panic!("line {i} invalid: {e:?}"));
        let kind = value.get("type").and_then(|v| v.as_str()).expect("type");
        assert!(matches!(kind, "span" | "counter" | "observe"), "{kind}");
        assert!(value.get("name").and_then(|v| v.as_str()).is_some());
        assert_eq!(
            value.get("seq").and_then(|v| v.as_f64()),
            Some(i as f64),
            "seq numbers must be gapless"
        );
        assert!(value.get("t_ns").and_then(|v| v.as_f64()).is_some());
        if value.get("name").and_then(|v| v.as_str()) == Some("engine.round") {
            saw_round_span = true;
            let fields = value.get("fields").expect("fields");
            assert!(fields.get("delta").and_then(|v| v.as_f64()).is_some());
            assert!(fields.get("stratum").and_then(|v| v.as_f64()).is_some());
        }
    }
    assert!(saw_round_span, "expected at least one engine.round span");
}

/// The round phases are disjoint parts of the round, a round that
/// derived facts spent time joining, and an aggregate rule whose inputs
/// did not change since its last evaluation is skipped — all reported in
/// the profile and on the replayed spans.
#[test]
fn round_phases_and_aggregate_skips_are_profiled() {
    let recorder = Arc::new(Recorder::new());
    let r = run_with_collector(
        "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).\n\
         reach(X, C) :- path(X, Y), C = mcount(<Y>).",
        recorder.clone(),
    );
    assert_eq!(r.db.rows("reach").len(), 4);
    let rounds: Vec<&vadalog::RoundProfile> =
        r.profile.strata.iter().flat_map(|s| &s.rounds).collect();
    assert!(!rounds.is_empty());
    for round in &rounds {
        assert!(
            round.plan_ns + round.join_ns + round.merge_ns <= round.dur_ns,
            "phases exceed their round: {round:?}"
        );
        if round.delta > 0 {
            assert!(round.join_ns > 0, "a deriving round spent no time joining");
        }
    }
    let skips: u64 = r.profile.strata.iter().map(|s| s.aggregate_skips).sum();
    assert!(skips >= 1, "the settled aggregate should be skipped once");
    assert!(r.profile.strata.iter().any(|s| s.aggregate_ns > 0));

    let field = |e: &vadalog::obs::Event, name: &str| {
        e.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("{} lacks field {name}", e.name))
    };
    for e in recorder.events_named("engine.round") {
        for name in ["plan_ns", "join_ns", "merge_ns"] {
            field(&e, name);
        }
    }
    let span_skips: u64 = recorder
        .events_named("engine.stratum")
        .iter()
        .map(|e| match field(e, "aggregate_skips") {
            vadalog::obs::FieldValue::UInt(n) => n,
            other => panic!("aggregate_skips is {other:?}"),
        })
        .sum();
    assert_eq!(span_skips, skips);
    assert!(r.profile.render_table().contains("aggregate"));
}
