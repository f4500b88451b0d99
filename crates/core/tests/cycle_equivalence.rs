//! The anonymization cycle against a naive Algorithm 2.
//!
//! [`reference`] re-derives the paper's loop (§4.1) the slow, obvious way:
//! a fresh [`MicrodataView`] and a full [`RiskMeasure::evaluate`] for every
//! evaluation, a fresh view for every recheck, the anonymizer's standalone
//! [`Anonymizer::anonymize_step`], and equivalence classes keyed by cell
//! values. It shares none of the cycle's fast paths (the patched view, the
//! maintained group statistics, the pattern-id class keys), so wherever it
//! converges the cycle must produce its table, counters, audit trail and
//! final report bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use vadalog::Value;
use vadasa_core::anonymize::AnonymizationAction;
use vadasa_core::cycle::StepGranularity::{AllRiskyPerIteration, OneTuplePerIteration};
use vadasa_core::cycle::{
    AnonymizationCycle, BatchStrategy, CycleConfig, CycleOutcome, CycleTermination, TupleOrder,
};
use vadasa_core::degrade::DegradeTrigger;
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::journal::record::{self, MAGIC};
use vadasa_core::journal::{JournalConfig, JOURNAL_FILE};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::model::MicrodataDb;
use vadasa_core::prelude::{
    Anonymizer, DomainHierarchy, GlobalRecoding, HybridAnonymizer, IndividualRisk, IrEstimator,
    KAnonymity, LocalSuppression, ReIdentification,
};
use vadasa_core::risk::{MicrodataView, RiskMeasure, RiskReport};
use vadasa_datagen::fixtures::local_suppression_fig5a;

/// What the reference derives: the table, the counters (iterations,
/// nulls, recodings, initial and final risky), the final report and the
/// audit trail as (iteration, row, risk bits, action).
struct Derived {
    db: MicrodataDb,
    counters: [usize; 5],
    report: RiskReport,
    audit: Vec<(usize, usize, u64, AnonymizationAction)>,
}

/// Algorithm 2, naively: `None` when the iteration cap is hit first.
fn reference(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    anon: &dyn Anonymizer,
    config: &CycleConfig,
) -> Option<Derived> {
    let t = config.threshold;
    let view_of =
        |db: &MicrodataDb| MicrodataView::from_db_with(db, dict, config.semantics, None).unwrap();
    let mut work = db.clone();
    let mut exhausted: HashSet<usize> = HashSet::new();
    let (mut iterations, mut nulls, mut recodings, mut initial_risky) = (0, 0, 0, 0);
    let mut audit = Vec::new();
    loop {
        let view = view_of(&work);
        let report = risk.evaluate(&view).unwrap();
        let mut risky: Vec<usize> = (report.risky_tuples(t).into_iter())
            .filter(|r| !exhausted.contains(r))
            .collect();
        if iterations == 0 {
            initial_risky = risky.len();
        }
        if risky.is_empty() {
            let final_risky = report.risky_tuples(t).len();
            let counters = [iterations, nulls, recodings, initial_risky, final_risky];
            return Some(Derived {
                db: work,
                counters,
                report,
                audit,
            });
        }
        if iterations >= config.max_iterations {
            return None;
        }
        match (config.tuple_order, &view.weights) {
            (TupleOrder::MostRiskyFirst, _) => {
                risky.sort_by(|&a, &b| report.risks[b].total_cmp(&report.risks[a]))
            }
            (TupleOrder::LessSignificantFirst, Some(w)) => {
                risky.sort_by(|&a, &b| w[a].total_cmp(&w[b]))
            }
            _ => {}
        }
        // the targets, and whether each is rechecked before its step
        let (targets, recheck) = match (config.batch, config.granularity) {
            (None, AllRiskyPerIteration) => (risky, true),
            (None, OneTuplePerIteration) | (Some(BatchStrategy::OneTuple), _) => {
                (vec![risky[0]], true)
            }
            (Some(BatchStrategy::PerClass), _) => (classes(&view, &risky, 1), false),
            (Some(BatchStrategy::TopN(n)), _) => (classes(&view, &risky, n.max(1)), false),
        };
        for row in targets {
            // a target that earlier steps of this iteration defused is spared
            if recheck && (risk.evaluate_tuple(&view_of(&work), row)).is_some_and(|r| r <= t) {
                continue;
            }
            let action = anon.anonymize_step(&mut work, dict, row).unwrap();
            match action {
                AnonymizationAction::Suppress { .. } => nulls += 1,
                AnonymizationAction::Recode { .. } => recodings += 1,
                AnonymizationAction::Exhausted { .. } => {
                    exhausted.insert(row);
                }
            }
            audit.push((iterations, row, report.risks[row].to_bits(), action));
        }
        iterations += 1;
    }
}

/// All rows of the first `n` distinct quasi-identifier value tuples met in
/// `risky`'s order, class by class.
fn classes(view: &MicrodataView, risky: &[usize], n: usize) -> Vec<usize> {
    let mut classes: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for &row in risky {
        let key = view.row_values(row);
        match classes.iter().position(|(k, _)| *k == key) {
            Some(i) => classes[i].1.push(row),
            None if classes.len() < n => classes.push((key, vec![row])),
            None => {}
        }
    }
    classes.into_iter().flat_map(|(_, rows)| rows).collect()
}

/// Require the cycle's outcome to be the reference's, bit for bit.
fn assert_derived(o: &CycleOutcome, d: &Derived, tag: &str) {
    assert_eq!(o.termination, CycleTermination::Converged, "{tag}");
    let counters = [
        o.iterations,
        o.nulls_injected,
        o.recodings,
        o.initial_risky,
        o.final_risky,
    ];
    assert_eq!(counters, d.counters, "{tag}: counters");
    let bits = |r: &RiskReport| r.risks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&o.final_report), bits(&d.report), "{tag}: risks");
    let details = |r: &RiskReport| {
        (r.details.iter().enumerate())
            .map(|(i, x)| (x.frequency, x.weight_sum.to_bits(), r.note(i).to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(details(&o.final_report), details(&d.report), "{tag}");
    let audit: Vec<_> = (o.audit.decisions.iter())
        .map(|x| (x.iteration, x.row, x.risk.to_bits(), x.action.clone()))
        .collect();
    assert_eq!(audit, d.audit, "{tag}: audit trail");
    for i in 0..d.db.len() {
        assert_eq!(o.db.row(i).unwrap(), d.db.row(i).unwrap(), "{tag}: row {i}");
    }
}

/// A random categorical table: 2–4 QI columns over four values (so
/// classes collide), 4–16 rows, and weights 1..40, plus 0.1 when
/// `fractional`: sums of those depend on their order, which keeps the
/// cycle off the warm path.
fn random_table(rng: &mut StdRng, fractional: bool) -> (MicrodataDb, MetadataDictionary) {
    let cols = rng.gen_range(2..=4usize);
    let mut names: Vec<String> = vec!["id".into()];
    names.extend((0..cols).map(|c| format!("q{c}")));
    names.push("w".into());
    let mut db = MicrodataDb::new("rand", names.clone()).unwrap();
    for r in 0..rng.gen_range(4..=16i64) {
        let mut row = vec![Value::Int(r)];
        for _ in 0..cols {
            let v = ["alpha", "beta", "gamma", "delta"][rng.gen_range(0..4usize)];
            row.push(Value::str(v));
        }
        let w = rng.gen_range(1..40i64);
        row.push(match fractional {
            true => Value::Float(w as f64 + 0.1),
            false => Value::Int(w),
        });
        db.push_row(row).unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for n in &names {
        dict.register_attr("rand", n, "");
        let category = match n.as_str() {
            "id" => Category::Identifier,
            "w" => Category::Weight,
            _ => Category::QuasiIdentifier,
        };
        dict.set_category("rand", n, category).unwrap();
    }
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

/// 1,200 random cases crossing every step setting, tuple order, measure
/// family (group-served, weight-sum, and one that opts out of the warm
/// path), anonymizer (suppression, recoding-first), null semantics and
/// weight kind: each combination on three or four tables.
#[test]
fn cycle_matches_the_naive_reference_on_random_tables() {
    let steps = [
        (AllRiskyPerIteration, None),
        (OneTuplePerIteration, None),
        (AllRiskyPerIteration, Some(BatchStrategy::OneTuple)),
        (AllRiskyPerIteration, Some(BatchStrategy::PerClass)),
        (AllRiskyPerIteration, Some(BatchStrategy::TopN(2))),
    ];
    let orders = [
        TupleOrder::LessSignificantFirst,
        TupleOrder::MostRiskyFirst,
        TupleOrder::Fifo,
    ];
    let kanon = KAnonymity::new(2);
    let library = IndividualRisk::new(IrEstimator::SimulatedLibrary { samples: 16 });
    let measures: [(&dyn RiskMeasure, f64); 3] =
        [(&kanon, 0.5), (&ReIdentification, 0.05), (&library, 0.1)];
    let suppress = LocalSuppression::default();
    let recode = HybridAnonymizer::new(GlobalRecoding::new(random_hierarchy()));
    let anonymizers: [&dyn Anonymizer; 2] = [&suppress, &recode];
    let semantics = [NullSemantics::MaybeMatch, NullSemantics::Standard];

    let (mut converged, mut capped, mut warm_recodes, mut full_evals) = (0, 0, 0, 0);
    for case in 0..1_200usize {
        // mixed-radix digits of the case number pick one value per axis
        let mut digits = case;
        let mut pick = |n: usize| {
            let i = digits % n;
            digits /= n;
            i
        };
        let (granularity, batch) = steps[pick(5)];
        let tuple_order = orders[pick(3)];
        let (risk, threshold) = measures[pick(3)];
        let anon = anonymizers[pick(2)];
        let semantics = semantics[pick(2)];
        let fractional = pick(2) == 1;
        let (db, dict) = random_table(&mut StdRng::seed_from_u64(case as u64), fractional);
        let config = CycleConfig {
            threshold,
            tuple_order,
            granularity,
            batch,
            semantics,
            max_iterations: 100,
            ..CycleConfig::default()
        };
        let tag = format!(
            "case {case}: {granularity:?} {batch:?} {tuple_order:?} {} {} {semantics:?} \
             fractional={fractional}",
            risk.name(),
            anon.name()
        );
        let out = AnonymizationCycle::new(risk, anon, config.clone())
            .run(&db, &dict)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        match reference(&db, &dict, risk, anon, &config) {
            Some(derived) => {
                assert_derived(&out, &derived, &tag);
                converged += 1;
            }
            None => {
                let cap = CycleTermination::Degraded {
                    trigger: DegradeTrigger::IterationCap,
                };
                assert_eq!(out.termination, cap, "{tag}");
                capped += 1;
            }
        }
        let warm = &out.profile.warm;
        warm_recodes += usize::from(out.recodings > 0 && warm.warm_evals > 0);
        full_evals += usize::from(warm.fallback_to_cold > 0 && warm.warm_evals == 0);
    }
    assert!(converged >= 1_000, "{converged} converged, {capped} capped");
    assert!(warm_recodes > 0, "no run recoded on the warm path");
    assert!(full_evals > 0, "no run fell back to full evaluations");
}

fn batched_config(batch: BatchStrategy) -> CycleConfig {
    CycleConfig {
        threshold: 0.5,
        tuple_order: TupleOrder::Fifo,
        batch: Some(batch),
        ..CycleConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every batch strategy converges wherever one-tuple steps do, and
    /// never ends less safe. Trajectories legitimately diverge
    /// (class-major order can defuse more rows per null, or fewer), so
    /// the property is safety, not the suppression count.
    #[test]
    fn batches_never_end_less_safe_than_one_tuple_steps(seed in 0u64..1_000_000) {
        let (db, dict) = random_table(&mut StdRng::seed_from_u64(seed), false);
        let risk = KAnonymity::new(2);
        let anon = LocalSuppression::default();
        let run = |batch| {
            AnonymizationCycle::new(&risk, &anon, batched_config(batch))
                .run(&db, &dict)
                .unwrap()
        };
        let one = run(BatchStrategy::OneTuple);
        for batch in [BatchStrategy::PerClass, BatchStrategy::TopN(3)] {
            let b = run(batch);
            if one.final_risky == 0 {
                prop_assert_eq!(b.final_risky, 0,
                    "{:?} ended less safe than one-tuple", batch);
                prop_assert!(b.final_report.risks.iter().all(|r| *r <= 0.5),
                    "{:?} left a risk above the threshold", batch);
            }
            prop_assert!(b.iterations <= one.iterations,
                "{:?} took more iterations ({} > {})", batch, b.iterations, one.iterations);
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vadasa-cycle-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Kill a journaled Figure-5 run whose one batched iteration suppresses
/// all three risky classes at every frame boundary and midpoint, and
/// resume: every prefix must land on the reference outcome.
#[test]
fn batched_journal_resumes_identically_from_every_kill_point() {
    let (db, dict) = local_suppression_fig5a();
    let risk = KAnonymity::new(2);
    let anon = LocalSuppression::default();
    let config = batched_config(BatchStrategy::TopN(4));
    let derived = reference(&db, &dict, &risk, &anon, &config).unwrap();
    let journaled = |dir: &Path| {
        let journal = Some(JournalConfig::new(dir));
        AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                journal,
                ..config.clone()
            },
        )
    };

    let full_dir = fresh_dir("full");
    let full = journaled(&full_dir).run(&db, &dict).unwrap();
    // several actions must land in one iteration, or this test pins nothing
    let (actions, iterations) = (full.nulls_injected, full.iterations);
    assert!(
        actions > iterations,
        "{actions} action(s) in {iterations} iteration(s)"
    );
    assert_derived(&full, &derived, "uninterrupted");

    let bytes = fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
    let mut kills = vec![0, MAGIC.len() / 2, MAGIC.len()];
    let mut prev = MAGIC.len();
    for b in record::frame_boundaries(&bytes) {
        kills.extend([prev + (b - prev) / 2, b]);
        prev = b;
    }
    kills.sort_unstable();
    kills.dedup();
    for cut in kills {
        let dir = fresh_dir(&format!("cut-{cut}"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
        let resumed = (journaled(&dir).resume(&db, &dict))
            .unwrap_or_else(|e| panic!("resume from cut {cut} failed: {e}"));
        assert_derived(&resumed, &derived, &format!("kill at byte {cut}"));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&full_dir);
}

/// One-tuple steps on Figure 5 make one evaluation per suppression; only
/// the first groups the table, every later one is served warm.
#[test]
fn fig5_only_the_first_evaluation_groups_cold() {
    let (db, dict) = local_suppression_fig5a();
    let risk = KAnonymity::new(2);
    let anon = LocalSuppression::default();
    let config = CycleConfig {
        granularity: OneTuplePerIteration,
        ..CycleConfig::default()
    };
    let out = AnonymizationCycle::new(&risk, &anon, config.clone())
        .run(&db, &dict)
        .unwrap();
    let derived = reference(&db, &dict, &risk, &anon, &config).unwrap();
    assert_derived(&out, &derived, "fig5");
    assert!(out.iterations >= 2, "workload must actually iterate");
    let w = &out.profile.warm;
    assert!(w.warm_evals >= out.iterations as u64 - 1, "{w:?}");
    assert_eq!(w.cold_evals, 1, "only the first evaluation groups cold");
    assert_eq!(w.fallback_to_cold, 0);
    assert!(w.patched_facts >= 1);
}
