//! Declarative–native equivalence on the paper's real fixture: every risk
//! program of Section 4.2 must produce, on the Figure 1 microdata, exactly
//! the risks the native implementations compute. This is the crate-level
//! guarantee that the scalable native kernels implement the *same
//! semantics* as the Vadalog rule listings. The engine's k-anonymity
//! plug-in (`VadalogKAnonymity`) runs in the one cycle loop and must take
//! the native measure's decisions, journal and resume like it.

use vadalog::Value;
use vadasa_core::journal::record::{self, JournalRecord};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::prelude::*;
use vadasa_core::programs::{
    alg4_kanonymity, alg6_suda, microdata_to_facts, run_control_program, run_risk_program,
    VadalogKAnonymity, ALG2_TUPLE_REIFICATION, ALG3_REIDENTIFICATION, ALG5_INDIVIDUAL_RISK,
};
use vadasa_core::risk::RiskMeasure;
use vadasa_datagen::fixtures::{inflation_growth_fig1, local_suppression_fig5a};
use vadasa_datagen::generator::{generate, DatasetSpec, Regime};

fn native_view() -> (MicrodataDb, MetadataDictionary, MicrodataView) {
    let (db, dict) = inflation_growth_fig1();
    let view = MicrodataView::from_db_with(&db, &dict, NullSemantics::Standard, None).unwrap();
    (db, dict, view)
}

#[test]
fn reidentification_agrees_on_figure1() {
    let (db, dict, view) = native_view();
    let declarative = run_risk_program(ALG3_REIDENTIFICATION, &db, &dict).unwrap();
    let native = ReIdentification.evaluate(&view).unwrap();
    for (i, (d, n)) in declarative.iter().zip(native.risks.iter()).enumerate() {
        assert!((d - n).abs() < 1e-9, "tuple {}: {d} vs {n}", i + 1);
    }
    // and both match the paper's numbers
    assert!((declarative[14] - 1.0 / 30.0).abs() < 1e-9);
    assert!((declarative[6] - 1.0 / 300.0).abs() < 1e-9);
}

#[test]
fn kanonymity_agrees_on_figure1() {
    let (db, dict, view) = native_view();
    for k in [2usize, 3, 5] {
        let declarative = run_risk_program(&alg4_kanonymity(k), &db, &dict).unwrap();
        let native = KAnonymity::new(k).evaluate(&view).unwrap();
        assert_eq!(declarative, native.risks, "k = {k}");
    }
}

#[test]
fn individual_risk_agrees_on_figure1() {
    let (db, dict, view) = native_view();
    let declarative = run_risk_program(ALG5_INDIVIDUAL_RISK, &db, &dict).unwrap();
    let native = IndividualRisk::new(IrEstimator::Simple)
        .evaluate(&view)
        .unwrap();
    for (i, (d, n)) in declarative.iter().zip(native.risks.iter()).enumerate() {
        assert!((d - n).abs() < 1e-9, "tuple {}: {d} vs {n}", i + 1);
    }
}

#[test]
fn suda_agrees_on_figure1_restricted_qis() {
    // restrict to 4 QIs (the §4.2 worked example) to keep the declarative
    // combination enumeration small
    let (db, dict) = inflation_growth_fig1();
    let mut restricted_dict = MetadataDictionary::new();
    for (attr, meta) in dict.attrs("I&G").unwrap() {
        restricted_dict.register_attr("I&G", attr, meta.description.clone());
        let cat = match attr.as_str() {
            "Id" => Category::Identifier,
            "Area" | "Sector" | "Employees" | "ResidentialRev" => Category::QuasiIdentifier,
            "Weight" => Category::Weight,
            _ => Category::NonIdentifying,
        };
        restricted_dict.set_category("I&G", attr, cat).unwrap();
    }
    let declarative = run_risk_program(&alg6_suda(3), &db, &restricted_dict).unwrap();
    let view =
        MicrodataView::from_db_with(&db, &restricted_dict, NullSemantics::Standard, None).unwrap();
    let native = Suda::new(3).evaluate(&view).unwrap();
    for (i, (d, n)) in declarative.iter().zip(native.risks.iter()).enumerate() {
        assert!((d - n).abs() < 1e-9, "tuple {}: {d} vs {n}", i + 1);
    }
    // tuple 20 has an MSU of size 1 (Sector = Financial) → dangerous
    assert_eq!(declarative[19], 1.0);
}

#[test]
fn control_closure_agrees_on_random_graphs() {
    use vadasa_core::business::OwnershipGraph;
    // a deterministic pseudo-random graph over 12 entities
    let mut edges: Vec<(Value, Value, f64)> = Vec::new();
    let mut state = 0x1234_5678u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..20 {
        let a = next() % 12;
        let b = next() % 12;
        if a == b {
            continue;
        }
        let w = 0.1 + (next() % 80) as f64 / 100.0;
        edges.push((
            Value::str(format!("c{a}")),
            Value::str(format!("c{b}")),
            w.min(0.95),
        ));
    }
    let declarative: std::collections::HashSet<(Value, Value)> =
        run_control_program(&edges).unwrap().into_iter().collect();
    let mut g = OwnershipGraph::new();
    for (x, y, w) in &edges {
        g.add_edge(x.clone(), y.clone(), *w);
    }
    let native = g.control_closure();
    assert_eq!(declarative, native);
}

#[test]
fn declarative_categorization_matches_native_on_figure4() {
    use vadasa_core::categorize::{Categorizer, ExperienceBase};
    use vadasa_core::programs::run_categorization_program;

    let (_, reference) = inflation_growth_fig1();
    let mut experience = ExperienceBase::financial_defaults();
    experience.add("residential revenue", Category::QuasiIdentifier);

    // declarative run
    let mut fresh = MetadataDictionary::new();
    for (attr, meta) in reference.attrs("I&G").unwrap() {
        fresh.register_attr("I&G", attr, meta.description.clone());
    }
    let (declarative, _violations) =
        run_categorization_program(&fresh, "I&G", &experience, 0.8).unwrap();

    // native run with the matching similarity threshold
    let mut dict = MetadataDictionary::new();
    for (attr, meta) in reference.attrs("I&G").unwrap() {
        dict.register_attr("I&G", attr, meta.description.clone());
    }
    let mut categorizer = Categorizer::new(experience);
    categorizer.threshold = 0.8;
    categorizer.categorize(&mut dict, "I&G").unwrap();

    for (attr, cat) in &declarative {
        let native = dict.category("I&G", attr).unwrap();
        assert_eq!(native, Some(*cat), "attribute {attr}");
    }
}

/// What two runs of the one cycle loop must agree on: each decision's
/// row, risk bits and action, the iteration and null counts, and the
/// released table.
fn transcript(out: &CycleOutcome) -> impl PartialEq + std::fmt::Debug {
    let decisions: Vec<_> = out
        .audit
        .decisions
        .iter()
        .map(|d| (d.row, d.risk.to_bits(), d.action.clone()))
        .collect();
    let table: Vec<_> = out.db.iter_rows().map(<[Value]>::to_vec).collect();
    (decisions, out.iterations, out.nulls_injected, table)
}

/// Did the run suppress some row twice: flag it again while it already
/// held a null?
fn suppressed_twice(out: &CycleOutcome) -> bool {
    let mut seen = std::collections::HashSet::new();
    let is_suppression = |d: &&Decision| matches!(d.action, AnonymizationAction::Suppress { .. });
    let mut suppressed = out.audit.decisions.iter().filter(is_suppression);
    suppressed.any(|d| !seen.insert(d.row))
}

fn u_table(rows: usize) -> (MicrodataDb, MetadataDictionary) {
    generate(&DatasetSpec::new(rows, 4, Regime::U), 20210323)
}

#[test]
fn declarative_suda_builds_each_set_once_per_run() {
    // the 400-row table of the benchmark's reason-suda workload
    let (db, dict) = u_table(400);
    let program =
        vadalog::parse_program(&format!("{ALG2_TUPLE_REIFICATION}{}", alg6_suda(2))).unwrap();
    let facts = microdata_to_facts(&db, &dict).unwrap();
    let result = vadalog::Engine::new().run(&program, facts).unwrap();
    // rows, and set allocations in the second column
    let allocations = |pred: &str| {
        let rel = result.db.relation(pred).unwrap();
        let sets: std::collections::HashSet<*const vadalog::SetVal> = rel
            .iter()
            .map(|row| match &row[1] {
                Value::Set(s) => std::sync::Arc::as_ptr(s),
                other => panic!("{pred}: {other} is not a set"),
            })
            .collect();
        (rel.len(), sets.len())
    };
    // 15 attribute combinations and 482 projections, each built once
    // (every row held a set of its own when every firing built one)
    assert_eq!(allocations("comb"), (6_000, 15));
    assert_eq!(allocations("tuplec"), (6_000, 482));
    let p = &result.profile;
    assert!(p.sets_shared > p.sets_built, "{p:?}");
}

/// One-tuple steps, capped well above the 26 iterations these tables
/// need, so a stalled loop fails fast instead of running 10,000.
fn one_tuple(order: TupleOrder) -> CycleConfig {
    CycleConfig {
        granularity: StepGranularity::OneTuplePerIteration,
        tuple_order: order,
        max_iterations: 60,
        ..CycleConfig::default()
    }
}

#[test]
fn vadalog_plugins_match_native_under_one_tuple_steps() {
    // One-tuple steps leave no recheck to differ on: with the same
    // suppression, the engine measure must take the native measure's
    // every decision, label for label.
    let (engine_risk, native_risk) = (VadalogKAnonymity::new(2), KAnonymity::new(2));
    let anonymizer = LocalSuppression::default();
    for (name, (db, dict)) in [
        ("fig5a", local_suppression_fig5a()),
        ("U100", u_table(100)),
        ("U400", u_table(400)),
    ] {
        for order in [TupleOrder::LessSignificantFirst, TupleOrder::Fifo] {
            let tag = format!("{name} {order:?}");
            let run = |risk: &dyn RiskMeasure| {
                AnonymizationCycle::new(risk, &anonymizer, one_tuple(order))
                    .run(&db, &dict)
                    .expect(&tag)
            };
            let (engine, native) = (run(&engine_risk), run(&native_risk));
            assert!(engine.termination.is_converged(), "{tag}");
            assert_eq!(transcript(&engine), transcript(&native), "{tag}");
            assert!(name == "fig5a" || suppressed_twice(&engine), "{tag}");
        }
    }
}

#[test]
fn declarative_cycle_converges_when_flagged_rows_already_hold_nulls() {
    // All-risky steps on the engine measure. It has no per-tuple
    // recheck, so a step may suppress a row an earlier step of the same
    // iteration already defused; the release must still be safe by the
    // native measure. On U400 the second iteration flags a row that
    // already holds a null, and the suppression must give it a new one
    // instead of stalling.
    let (risk, anonymizer) = (VadalogKAnonymity::new(2), LocalSuppression::default());
    let mut config = one_tuple(TupleOrder::default());
    config.granularity = StepGranularity::AllRiskyPerIteration;
    let cycle = AnonymizationCycle::new(&risk, &anonymizer, config);
    let mut twice = false;
    for (name, (db, dict)) in [
        ("fig5a", local_suppression_fig5a()),
        ("U100", u_table(100)),
        ("U300", u_table(300)),
        ("U400", u_table(400)),
    ] {
        let out = cycle.run(&db, &dict).expect("plug-in run");
        assert!(out.termination.is_converged(), "{name}");
        let view = MicrodataView::from_db(&out.db, &dict).unwrap();
        let native = KAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(native.risky_tuples(0.5), Vec::<usize>::new(), "{name}");
        assert_eq!(out.db.null_cells(&[]), out.nulls_injected, "{name}");
        twice |= suppressed_twice(&out);
    }
    assert!(twice, "no flagged row already held a null");
    // every row twice: the table is 2-anonymous already
    let (db, dict) = local_suppression_fig5a();
    let mut doubled = MicrodataDb::new(db.name.clone(), db.attributes().to_vec()).unwrap();
    for row in db.iter_rows().flat_map(|r| [r, r]) {
        doubled.push_row(row.to_vec()).unwrap();
    }
    let out = cycle.run(&doubled, &dict).expect("plug-in run");
    assert_eq!((out.iterations, out.nulls_injected), (0, 0));
}

#[test]
fn journaled_plugin_run_resumes_to_the_uninterrupted_release() {
    let (db, dict) = u_table(100);
    let (risk, anonymizer) = (VadalogKAnonymity::new(2), LocalSuppression::default());
    let tmp = std::env::temp_dir().join(format!("vadasa-plugin-{}", std::process::id()));
    let (full_dir, cut_dir) = (tmp.join("full"), tmp.join("cut"));
    let _ = std::fs::remove_dir_all(&tmp);
    let cycle = |dir: &std::path::Path| {
        let journal = Some(JournalConfig::new(dir));
        let config = CycleConfig {
            journal,
            ..one_tuple(TupleOrder::LessSignificantFirst)
        };
        AnonymizationCycle::new(&risk, &anonymizer, config)
    };
    let full = cycle(&full_dir).run(&db, &dict).expect("journaled run");
    // cut the journal right after its tenth Commit record
    let bytes = std::fs::read(full_dir.join("journal.wal")).expect("journal");
    let cut = record::records(&bytes)
        .filter(|(r, _)| matches!(r, JournalRecord::Commit { .. }))
        .nth(9)
        .map(|(_, end)| end)
        .expect("ten commits");
    std::fs::create_dir_all(&cut_dir).expect("dir");
    std::fs::write(cut_dir.join("journal.wal"), &bytes[..cut]).expect("write");
    let resumed = cycle(&cut_dir).resume(&db, &dict).expect("resume");
    assert_eq!(resumed.profile.journal.replayed_actions, 10);
    assert_eq!(transcript(&resumed), transcript(&full));
    let _ = std::fs::remove_dir_all(&tmp);
}
