//! Regenerates **Figure 7c**: null proliferation under the maybe-match
//! semantics versus the standard (Skolem-chase) labelled-null semantics.
//! Under the standard semantics a null never enlarges anyone's equivalence
//! class, so suppression cannot terminate before exhausting the tuple —
//! symbols proliferate and the approach becomes unusable.

use vadasa_bench::{paper_cycle_config, render_table, run_paper_cycle};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::prelude::KAnonymity;
use vadasa_datagen::catalog::by_name;

fn main() {
    let datasets = ["R25A4W", "R25A4U", "R25A4V"];
    let ks = [2usize, 3, 4, 5];
    println!(
        "Figure 7c — nulls injected: maybe-match vs standard labelled-null semantics (T = 0.5)\n"
    );
    let mut rows = Vec::new();
    for name in datasets {
        let (db, dict) = by_name(name).expect("catalogue dataset");
        for sem in NullSemantics::ALL {
            let mut cells = vec![name.to_string(), sem.name().to_string()];
            for k in ks {
                let risk = KAnonymity::new(k);
                let mut config = paper_cycle_config();
                config.semantics = sem;
                let out = run_paper_cycle(&db, &dict, &risk, config);
                cells.push(out.nulls_injected.to_string());
            }
            rows.push(cells);
        }
    }
    println!(
        "{}",
        render_table(&["dataset", "semantics", "k=2", "k=3", "k=4", "k=5"], &rows)
    );
    println!("expected shape (paper): the standard semantics injects far more nulls");
    println!("(every risky tuple is suppressed to exhaustion — 4 nulls each),");
    println!("while maybe-match needs close to the minimum.");
}
