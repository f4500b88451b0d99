//! Declarative–native equivalence on the paper's real fixture: every risk
//! program of Section 4.2 must produce, on the Figure 1 microdata, exactly
//! the risks the native implementations compute. This is the crate-level
//! guarantee that the scalable native kernels implement the *same
//! semantics* as the Vadalog rule listings.

use vadalog::Value;
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::prelude::*;
use vadasa_core::programs::{
    alg4_kanonymity, alg6_suda, run_control_program, run_declarative_cycle, run_risk_program,
    ALG3_REIDENTIFICATION, ALG5_INDIVIDUAL_RISK,
};
use vadasa_core::risk::RiskMeasure;
use vadasa_datagen::fixtures::inflation_growth_fig1;
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

#[test]
fn declarative_cycle_converges_when_flagged_rows_already_hold_nulls() {
    // On these generated tables the second round flags rows that already
    // carry a null. Their unsuppressed `tuple` version holds a null too,
    // so reading back "the version with a null" dropped the new
    // suppression and the loop spun to the iteration cap.
    for rows in [100, 300, 400] {
        let (db, dict) = generate(&DatasetSpec::new(rows, 4, Regime::U), 20210323);
        let out = run_declarative_cycle(&db, &dict, 2, 50).unwrap();
        let risky = (0..rows)
            .filter(|&i| {
                out.final_risks[i] > 0.5 && out.anonymized_rows[i].iter().any(|(_, v)| !v.is_null())
            })
            .count();
        assert_eq!((out.iterations, risky), (2, 0), "{rows} rows");
    }
}
