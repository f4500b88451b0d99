//! Property-based tests for the invariants listed in DESIGN.md §6:
//! maybe-match dominance, suppression monotonicity, MSU soundness and
//! minimality, cycle convergence, cluster-risk bounds, and aggregate
//! order-independence in the engine.

use proptest::prelude::*;
use vadalog::Value;
use vadasa_core::business::combined_cluster_risk;
use vadasa_core::maybe_match::{group_stats, rows_match, NullSemantics};
use vadasa_core::metrics::information_loss;
use vadasa_core::prelude::*;
use vadasa_core::programs::VadalogKAnonymity;
use vadasa_core::risk::{minimal_sample_uniques, RiskMeasure};

/// Strategy: a small categorical table, optionally with labelled nulls.
fn qi_table(
    max_rows: usize,
    cols: usize,
    with_nulls: bool,
) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let cell = if with_nulls {
        prop_oneof![
            3 => (0u8..4).prop_map(|v| Value::str(format!("v{v}"))),
            1 => (0u64..8).prop_map(Value::Null),
        ]
        .boxed()
    } else {
        (0u8..4).prop_map(|v| Value::str(format!("v{v}"))).boxed()
    };
    proptest::collection::vec(proptest::collection::vec(cell, cols), 1..=max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 3: maybe-match group sizes dominate standard ones.
    #[test]
    fn maybe_match_counts_dominate_standard(rows in qi_table(24, 3, true)) {
        let mm = group_stats(&rows, None, NullSemantics::MaybeMatch);
        let st = group_stats(&rows, None, NullSemantics::Standard);
        for (m, s) in mm.count.iter().zip(st.count.iter()) {
            prop_assert!(m >= s);
        }
    }

    /// group_stats and the engine's k-anonymity program agree with the
    /// O(n²) definition of =⊥ matching.
    #[test]
    fn group_stats_matches_naive_quadratic(rows in qi_table(18, 3, true)) {
        let names: Vec<String> = (0..3).map(|i| format!("q{i}")).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            let fast = group_stats(&rows, None, sem);
            let view = MicrodataView::from_rows(names.clone(), rows.clone(), None, sem).unwrap();
            let engine = VadalogKAnonymity::new(2).evaluate(&view).unwrap();
            for (i, target) in rows.iter().enumerate() {
                let naive = rows.iter().filter(|r| rows_match(target, r, sem)).count();
                prop_assert_eq!(fast.count[i], naive, "row {} under {:?}", i, sem);
                prop_assert_eq!(engine.details[i].frequency, naive, "engine, row {}", i);
                prop_assert_eq!(engine.risks[i], if naive < 2 { 1.0 } else { 0.0 });
            }
        }
    }

    /// Invariant 2: a suppression never increases any tuple's k-anonymity
    /// or re-identification risk under maybe-match.
    #[test]
    fn suppression_is_risk_monotone(
        rows in qi_table(16, 3, false),
        target in 0usize..16,
        col in 0usize..3,
    ) {
        let target = target % rows.len();
        let qi_names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let view_before = MicrodataView::from_rows(
            qi_names.clone(),
            rows.clone(),
            None,
            NullSemantics::MaybeMatch,
        )
        .unwrap();
        let mut after_rows = rows.clone();
        after_rows[target][col] = Value::Null(99);
        let view_after =
            MicrodataView::from_rows(qi_names, after_rows, None, NullSemantics::MaybeMatch).unwrap();

        let before = KAnonymity::new(2).evaluate(&view_before).unwrap();
        let after = KAnonymity::new(2).evaluate(&view_after).unwrap();
        for (b, a) in before.risks.iter().zip(after.risks.iter()) {
            prop_assert!(a <= b, "k-anonymity risk increased");
        }
        let before = ReIdentification.evaluate(&view_before).unwrap();
        let after = ReIdentification.evaluate(&view_after).unwrap();
        for (b, a) in before.risks.iter().zip(after.risks.iter()) {
            prop_assert!(*a <= *b + 1e-12, "re-identification risk increased");
        }
    }

    /// Invariant 4: every reported MSU is sample-unique and minimal.
    #[test]
    fn msus_are_sound_and_minimal(rows in qi_table(14, 4, false)) {
        use vadasa_core::maybe_match::group_stats_on;
        let view = MicrodataView::from_rows(
            (0..4).map(|i| format!("q{i}")).collect(),
            rows.clone(),
            None,
            NullSemantics::Standard,
        )
        .unwrap();
        let msus = minimal_sample_uniques(&view, None);
        for (row, set) in msus.iter().enumerate() {
            for &mask in &set.masks {
                let positions: Vec<usize> = (0..4).filter(|c| mask & (1 << c) != 0).collect();
                let stats = group_stats_on(&rows, &positions, None, NullSemantics::Standard);
                prop_assert_eq!(stats.count[row], 1, "MSU not unique");
                let mut sub = (mask.wrapping_sub(1)) & mask;
                while sub != 0 {
                    let sub_pos: Vec<usize> = (0..4).filter(|c| sub & (1 << c) != 0).collect();
                    let s = group_stats_on(&rows, &sub_pos, None, NullSemantics::Standard);
                    prop_assert!(s.count[row] > 1, "MSU not minimal");
                    sub = (sub.wrapping_sub(1)) & mask;
                }
            }
        }
    }

    /// Invariant 4 (completeness side): a row unique on the full QI set
    /// has at least one MSU.
    #[test]
    fn unique_rows_have_an_msu(rows in qi_table(14, 3, false)) {
        let view = MicrodataView::from_rows(
            (0..3).map(|i| format!("q{i}")).collect(),
            rows.clone(),
            None,
            NullSemantics::Standard,
        )
        .unwrap();
        let stats = group_stats(&rows, None, NullSemantics::Standard);
        let msus = minimal_sample_uniques(&view, None);
        for (i, &c) in stats.count.iter().enumerate() {
            if c == 1 {
                prop_assert!(!msus[i].masks.is_empty(), "unique row {i} has no MSU");
            } else {
                prop_assert!(msus[i].masks.is_empty(), "non-unique row {i} has an MSU");
            }
        }
    }

    /// Invariant 8: cluster risk bounds.
    #[test]
    fn cluster_risk_is_bounded(risks in proptest::collection::vec(0.0f64..=1.0, 1..8)) {
        let combined = combined_cluster_risk(&risks);
        let max = risks.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(combined <= 1.0 + 1e-12);
        prop_assert!(combined >= max - 1e-12);
    }

    /// Invariant 9: information loss stays in the unit interval.
    #[test]
    fn information_loss_bounded(nulls in 0usize..1000, risky in 0usize..300, qi in 0usize..10) {
        let loss = information_loss(nulls, risky, qi);
        prop_assert!((0.0..=1.0).contains(&loss));
    }

    /// Invariant 1: the anonymization cycle terminates with every tuple at
    /// or below the threshold (or exhausted).
    #[test]
    fn cycle_converges_on_random_tables(rows in qi_table(20, 3, false), k in 2usize..4) {
        let mut db = MicrodataDb::new("prop", ["id", "a", "b", "c", "w"]).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let mut cells = vec![Value::Int(i as i64)];
            cells.extend(r.iter().cloned());
            cells.push(Value::Int(5));
            db.push_row(cells).unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "a", "b", "c", "w"] {
            dict.register_attr("prop", a, "");
        }
        dict.set_category("prop", "id", Category::Identifier).unwrap();
        for a in ["a", "b", "c"] {
            dict.set_category("prop", a, Category::QuasiIdentifier).unwrap();
        }
        dict.set_category("prop", "w", Category::Weight).unwrap();

        let risk = KAnonymity::new(k);
        let anonymizer = LocalSuppression::default();
        let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
        let outcome = cycle.run(&db, &dict).unwrap();
        // Post-condition: every tuple either satisfies the threshold or was
        // exhausted. With maybe-match and 3 QI columns a fully suppressed
        // row matches everything, so exhaustion is only possible when the
        // table itself is smaller than k.
        if rows.len() >= k {
            prop_assert_eq!(outcome.final_risky, 0);
        }
        prop_assert!(outcome.nulls_injected <= rows.len() * 3);
    }

    /// Invariant 7 (engine): monotonic aggregates are insertion-order
    /// independent.
    #[test]
    fn engine_aggregates_are_order_independent(mut pairs in proptest::collection::vec((0i64..5, 0i64..50, 1i64..20), 1..30)) {
        use vadalog::{parse_program, Database, Engine};
        let program = parse_program("out(G, S) :- t(G, I, W), S = msum(W, <I>).").unwrap();
        let run = |data: &[(i64, i64, i64)]| {
            let mut db = Database::new();
            for (g, i, w) in data {
                db.insert("t", vec![Value::Int(*g), Value::Int(*i), Value::Int(*w)]);
            }
            let mut rows = Engine::new().run(&program, db).unwrap().db.rows("out");
            rows.sort();
            rows
        };
        let forward = run(&pairs);
        pairs.reverse();
        let backward = run(&pairs);
        prop_assert_eq!(forward, backward);
    }

    /// Microaggregation preserves column totals and reaches k for every
    /// group, on arbitrary numeric columns.
    #[test]
    fn microaggregation_invariants(values in proptest::collection::vec(-1000i64..1000, 1..60), k in 1usize..6) {
        use vadasa_core::anonymize::microaggregate;
        let mut db = MicrodataDb::new("m", ["x"]).unwrap();
        for v in &values {
            db.push_row(vec![Value::Int(*v)]).unwrap();
        }
        let before: f64 = values.iter().map(|&v| v as f64).sum();
        let out = microaggregate(&mut db, "x", k).unwrap();
        let col = db.numeric_column("x").unwrap();
        let after: f64 = col.iter().sum();
        prop_assert!((before - after).abs() < 1e-6, "total moved: {before} -> {after}");
        prop_assert!(out.sse >= 0.0);
        // group sizes ≥ min(k, n)
        let k_eff = k.min(values.len());
        let rows: Vec<Vec<Value>> = col.into_iter().map(|v| vec![Value::Float(v)]).collect();
        let stats = group_stats(&rows, None, NullSemantics::Standard);
        prop_assert!(stats.count.iter().all(|&c| c >= k_eff));
    }

    /// Presence risk is a probability and never below the uniform share.
    #[test]
    fn presence_risk_bounds(weights in proptest::collection::vec(1.0f64..100.0, 1..20)) {
        let rows: Vec<Vec<Value>> = weights.iter().map(|_| vec![Value::str("same")]).collect();
        let view = MicrodataView::from_rows(
            vec!["q".into()],
            rows,
            Some(weights.clone()),
            NullSemantics::MaybeMatch,
        )
        .unwrap();
        let report = PresenceRisk.evaluate(&view).unwrap();
        let total: f64 = weights.iter().sum();
        for (r, w) in report.risks.iter().zip(weights.iter()) {
            prop_assert!((0.0..=1.0).contains(r));
            prop_assert!((r - w / total).abs() < 1e-9);
        }
        // risks over one class sum to 1 (a full probability split)
        let sum: f64 = report.risks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// The printer round-trip holds for the generated k-anonymity program
    /// at any k.
    #[test]
    fn generated_programs_roundtrip(k in 2usize..50) {
        use vadalog::{parse_program, print_program};
        use vadasa_core::programs::{alg4_kanonymity, ALG2_TUPLE_REIFICATION};
        let src = format!("{}{}", ALG2_TUPLE_REIFICATION, alg4_kanonymity(k));
        let p1 = parse_program(&src).unwrap();
        let p2 = parse_program(&print_program(&p1)).unwrap();
        prop_assert_eq!(p1, p2);
    }

    /// Weight estimation from an oracle is exact for null-free samples.
    #[test]
    fn oracle_weights_count_matches(rows in qi_table(12, 2, false)) {
        use vadasa_core::weights::from_oracle;
        // oracle = 3 copies of the sample
        let mut oracle = rows.clone();
        oracle.extend(rows.clone());
        oracle.extend(rows.clone());
        let w = from_oracle(&rows, &oracle);
        let stats = group_stats(&rows, None, NullSemantics::Standard);
        for (wi, &c) in w.iter().zip(stats.count.iter()) {
            prop_assert_eq!(*wi, 3.0 * c as f64);
        }
    }
}
