//! Ablation study for the cycle's degrees of freedom (paper §4.4): which
//! violating tuple to anonymize first, which quasi-identifier to act on,
//! and how much work to do per iteration. Run on R25A4U with k-anonymity
//! (k = 2, T = 0.5) and local suppression.
//!
//! The paper argues for "less significant first" tuple routing and a
//! risk-informed "most risky first" attribute choice; this harness
//! quantifies what each heuristic buys over its baselines.

use vadasa_bench::{render_table, run_cycle_with, time_it};
use vadasa_core::anonymize::{AttributeOrder, LocalSuppression};
use vadasa_core::cycle::{CycleConfig, StepGranularity, TupleOrder};
use vadasa_core::prelude::KAnonymity;
use vadasa_datagen::catalog::by_name;

fn main() {
    let (db, dict) = by_name("R25A4U").expect("catalogue dataset");
    let risk = KAnonymity::new(2);

    let attr_orders = [
        ("most-risky-first", AttributeOrder::MostRiskyFirst),
        ("most-selective-first", AttributeOrder::MostSelectiveFirst),
        ("schema-order", AttributeOrder::SchemaOrder),
    ];

    println!("Ablation — tuple routing × attribute choice (R25A4U, k-anonymity k=2, T=0.5)\n");
    let mut rows = Vec::new();
    for torder in TupleOrder::ALL {
        for (aname, aorder) in attr_orders {
            let anonymizer = LocalSuppression::new(aorder);
            let config = CycleConfig {
                tuple_order: torder,
                ..CycleConfig::default()
            };
            let (out, secs) = time_it(|| run_cycle_with(&db, &dict, &risk, &anonymizer, config));
            rows.push(vec![
                torder.name().to_string(),
                aname.to_string(),
                out.nulls_injected.to_string(),
                format!("{:.1}%", out.information_loss * 100.0),
                out.iterations.to_string(),
                format!("{secs:.2}"),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "tuple order",
                "attribute order",
                "nulls",
                "info loss",
                "iters",
                "secs"
            ],
            &rows
        )
    );

    println!("\nAblation — iteration granularity (same setup, most-risky-first attributes)\n");
    let mut rows = Vec::new();
    for granularity in StepGranularity::ALL {
        let anonymizer = LocalSuppression::default();
        let config = CycleConfig {
            granularity,
            ..CycleConfig::default()
        };
        let (out, secs) = time_it(|| run_cycle_with(&db, &dict, &risk, &anonymizer, config));
        rows.push(vec![
            granularity.name().to_string(),
            out.nulls_injected.to_string(),
            format!("{:.1}%", out.information_loss * 100.0),
            out.iterations.to_string(),
            format!("{secs:.2}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["granularity", "nulls", "info loss", "iters", "secs"],
            &rows
        )
    );
    println!("(one-tuple is maximally greedy — closest to the paper's");
    println!("per-binding activation — at the price of one risk evaluation per step)");
}
