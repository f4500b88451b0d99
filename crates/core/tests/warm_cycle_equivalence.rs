//! Warm-start ≡ cold-start for the anonymization cycle (PR-4 pin).
//!
//! [`CycleConfig::warm_start`] swaps the per-iteration `MicrodataView`
//! rebuild + full regroup for an incrementally patched view and
//! incrementally repaired group statistics. That is an *evaluation
//! strategy*, not a semantics: on every input the warm cycle must produce
//! the same anonymized table, the same (bitwise) final risk report, the
//! same iteration count, audit trail and termination as a cold run.
//!
//! Random tables use categorical string columns and integer-valued
//! weights — the regime the exact-summability gate admits to the fast
//! path, so these cases genuinely exercise the incremental statistics:
//! a suppression repairs them for its one cell, a global recode replaces
//! them with one regroup.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use vadalog::Value;
use vadasa_core::cycle::{
    AnonymizationCycle, CycleConfig, CycleOutcome, StepGranularity, TupleOrder,
};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::model::MicrodataDb;
use vadasa_core::prelude::{
    Anonymizer, DomainHierarchy, GlobalRecoding, HybridAnonymizer, KAnonymity, LocalSuppression,
    ReIdentification,
};
use vadasa_core::risk::RiskMeasure;

/// A random categorical microdata table: 2–4 QI columns over small value
/// domains (so equivalence classes collide), integer weights 1..40.
fn random_table(rng: &mut StdRng) -> (MicrodataDb, MetadataDictionary) {
    let cols = rng.gen_range(2..=4usize);
    let rows = rng.gen_range(4..=14usize);
    let mut names: Vec<String> = vec!["id".into()];
    for c in 0..cols {
        names.push(format!("q{c}"));
    }
    names.push("w".into());
    let mut db = MicrodataDb::new("rand", names.clone()).unwrap();
    for r in 0..rows {
        let mut row = vec![Value::Int(r as i64)];
        for _ in 0..cols {
            let v = rng.gen_range(0..4u8);
            row.push(Value::str(["alpha", "beta", "gamma", "delta"][v as usize]));
        }
        row.push(Value::Int(rng.gen_range(1..40i64)));
        db.push_row(row).unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for n in &names {
        dict.register_attr("rand", n, "");
    }
    dict.set_category("rand", "id", Category::Identifier)
        .unwrap();
    for c in 0..cols {
        dict.set_category("rand", &format!("q{c}"), Category::QuasiIdentifier)
            .unwrap();
    }
    dict.set_category("rand", "w", Category::Weight).unwrap();
    (db, dict)
}

/// Rolls the random tables' values up two levels: `alpha` and `beta` to
/// `ab`, `gamma` and `delta` to `gd`, both pairs to `*`.
fn random_hierarchy() -> DomainHierarchy {
    let mut h = DomainHierarchy::new();
    for (leaf, pair) in [
        ("alpha", "ab"),
        ("beta", "ab"),
        ("gamma", "gd"),
        ("delta", "gd"),
    ] {
        h.link(Value::str(leaf), "Leaf", Value::str(pair), "Pair");
    }
    for pair in ["ab", "gd"] {
        h.link(Value::str(pair), "Pair", Value::str("*"), "Root");
    }
    h
}

/// Run the cycle warm and cold and require identical observable outcomes.
fn assert_warm_equals_cold(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    anon: &dyn Anonymizer,
    config: CycleConfig,
) -> (CycleOutcome, CycleOutcome) {
    let warm = AnonymizationCycle::new(
        risk,
        anon,
        CycleConfig {
            warm_start: true,
            ..config.clone()
        },
    )
    .run(db, dict)
    .expect("warm cycle runs");
    let cold = AnonymizationCycle::new(
        risk,
        anon,
        CycleConfig {
            warm_start: false,
            ..config
        },
    )
    .run(db, dict)
    .expect("cold cycle runs");

    assert_eq!(warm.iterations, cold.iterations, "iterations");
    assert_eq!(warm.nulls_injected, cold.nulls_injected, "nulls injected");
    assert_eq!(warm.recodings, cold.recodings, "recodings");
    assert_eq!(warm.initial_risky, cold.initial_risky, "initial risky");
    assert_eq!(warm.final_risky, cold.final_risky, "final risky");
    assert_eq!(warm.termination, cold.termination, "termination");
    assert_eq!(
        warm.information_loss, cold.information_loss,
        "information loss"
    );
    assert_eq!(warm.final_report.risks, cold.final_report.risks, "risks");
    assert_eq!(
        warm.final_report.details, cold.final_report.details,
        "report details"
    );
    assert_eq!(
        warm.audit.decisions.len(),
        cold.audit.decisions.len(),
        "audit length"
    );
    for (w, c) in warm.audit.decisions.iter().zip(cold.audit.decisions.iter()) {
        assert_eq!(w.iteration, c.iteration, "audited iteration");
        assert_eq!(w.row, c.row, "audited row");
        assert_eq!(w.risk, c.risk, "audited risk");
    }
    for i in 0..db.len() {
        assert_eq!(
            warm.db.row(i).unwrap(),
            cold.db.row(i).unwrap(),
            "row {i} of the anonymized table"
        );
    }
    (warm, cold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k-anonymity over random categorical tables, both granularities.
    #[test]
    fn warm_kanon_matches_cold(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        let granularity = if seed % 2 == 0 {
            StepGranularity::AllRiskyPerIteration
        } else {
            StepGranularity::OneTuplePerIteration
        };
        assert_warm_equals_cold(
            &db,
            &dict,
            &KAnonymity::new(2),
            &LocalSuppression::default(),
            CycleConfig { granularity, ..CycleConfig::default() },
        );
    }

    /// Re-identification risk (weight-sum reciprocal) over random tables:
    /// exercises the exact integer weight sums through many patches.
    #[test]
    fn warm_reident_matches_cold(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        assert_warm_equals_cold(
            &db,
            &dict,
            &ReIdentification,
            &LocalSuppression::default(),
            CycleConfig {
                threshold: 0.2,
                tuple_order: TupleOrder::MostRiskyFirst,
                granularity: StepGranularity::OneTuplePerIteration,
                ..CycleConfig::default()
            },
        );
    }
}

/// Recoding-first anonymization (suppression only where no roll-up is
/// left) over random tables whose values roll up, both granularities. A
/// warm recode replaces the maintained statistics with one regroup, and
/// the run must still equal a cold one.
#[test]
fn warm_hybrid_recoding_matches_cold() {
    let anon = HybridAnonymizer::new(GlobalRecoding::new(random_hierarchy()));
    let mut warm_recodes = 0;
    for seed in 0..24u64 {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        for granularity in [
            StepGranularity::AllRiskyPerIteration,
            StepGranularity::OneTuplePerIteration,
        ] {
            let (warm, _cold) = assert_warm_equals_cold(
                &db,
                &dict,
                &KAnonymity::new(2),
                &anon,
                CycleConfig {
                    granularity,
                    ..CycleConfig::default()
                },
            );
            if warm.recodings > 0 && warm.profile.warm.warm_evals > 0 {
                warm_recodes += 1;
            }
        }
    }
    assert!(
        warm_recodes > 0,
        "no seed recoded on the warm path, so the recode regroup went untested"
    );
}

/// Multi-iteration Fig-5-style workload: one-tuple granularity forces one
/// risk evaluation per suppression, so a converging run serves most
/// evaluations from the patched statistics.
#[test]
fn fig5_workload_is_warm_served() {
    let mut db =
        MicrodataDb::new("fig5", ["Id", "Area", "Sector", "Employees", "ResRev", "W"]).unwrap();
    let rows = [
        ("099876", "Roma", "Textiles", "1000+", "0-30", 10),
        ("765389", "Roma", "Commerce", "1000+", "0-30", 20),
        ("231654", "Roma", "Commerce", "1000+", "0-30", 20),
        ("097302", "Roma", "Financial", "1000+", "0-30", 30),
        ("120967", "Roma", "Financial", "1000+", "0-30", 30),
        ("232498", "Milano", "Construction", "0-200", "60-90", 5),
        ("340901", "Torino", "Construction", "0-200", "60-90", 5),
    ];
    for (id, a, s, e, r, w) in rows {
        db.push_row(vec![
            Value::str(id),
            Value::str(a),
            Value::str(s),
            Value::str(e),
            Value::str(r),
            Value::Int(w),
        ])
        .unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for a in ["Id", "Area", "Sector", "Employees", "ResRev", "W"] {
        dict.register_attr("fig5", a, "");
    }
    dict.set_category("fig5", "Id", Category::Identifier)
        .unwrap();
    for a in ["Area", "Sector", "Employees", "ResRev"] {
        dict.set_category("fig5", a, Category::QuasiIdentifier)
            .unwrap();
    }
    dict.set_category("fig5", "W", Category::Weight).unwrap();

    let (warm, _cold) = assert_warm_equals_cold(
        &db,
        &dict,
        &KAnonymity::new(2),
        &LocalSuppression::default(),
        CycleConfig {
            granularity: StepGranularity::OneTuplePerIteration,
            ..CycleConfig::default()
        },
    );
    assert!(warm.iterations >= 2, "workload must actually iterate");
    let w = &warm.profile.warm;
    assert!(w.warm_evals >= warm.iterations as u64 - 1, "{w:?}");
    assert_eq!(w.cold_evals, 1, "only the first evaluation groups cold");
    assert_eq!(w.fallback_to_cold, 0);
    assert!(w.patched_facts >= 1);
}
