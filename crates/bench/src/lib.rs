//! Shared harness utilities for the figure-regeneration binaries and the
//! Criterion benches: plain-text table rendering, standard cycle
//! configurations matching Section 5, and synthetic ownership-graph
//! generation for the business-knowledge experiment (Figure 7d).

#![warn(missing_docs)]

pub mod reference;
pub mod status;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog::Value;
use vadasa_core::business::OwnershipGraph;
use vadasa_core::cycle::{AnonymizationCycle, CycleConfig, CycleOutcome, TupleOrder};
use vadasa_core::dictionary::MetadataDictionary;
use vadasa_core::model::MicrodataDb;
use vadasa_core::prelude::{Anonymizer, LocalSuppression, RiskMeasure};

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    " {:<width$} ",
                    c,
                    width = widths.get(i).copied().unwrap_or(0)
                )
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// The Section 5.1 standard configuration: threshold `T = 0.5`, local
/// suppression, "less significant first" tuple routing.
pub fn paper_cycle_config() -> CycleConfig {
    CycleConfig {
        threshold: 0.5,
        tuple_order: TupleOrder::LessSignificantFirst,
        ..CycleConfig::default()
    }
}

/// Run one anonymization cycle with the paper's standard setup and a
/// caller-chosen risk measure.
pub fn run_paper_cycle(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    config: CycleConfig,
) -> CycleOutcome {
    let anonymizer = LocalSuppression::default();
    run_cycle_with(db, dict, risk, &anonymizer, config)
}

/// Run one anonymization cycle with explicit plug-ins.
pub fn run_cycle_with(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    anonymizer: &dyn Anonymizer,
    config: CycleConfig,
) -> CycleOutcome {
    AnonymizationCycle::new(risk, anonymizer, config)
        .run(db, dict)
        .expect("cycle converges on harness datasets")
}

/// Synthesize `count` ownership edges among the identifiers of `db`
/// (Figure 7d: "increasing number of inferred control relationships").
/// Edges carry majority fractions so each one induces a control link; the
/// endpoints are drawn uniformly so chains and small groups emerge.
pub fn synthetic_ownership(
    db: &MicrodataDb,
    id_attr: &str,
    count: usize,
    seed: u64,
) -> OwnershipGraph {
    synthetic_ownership_focused(db, id_attr, count, seed, &[], 0.0)
}

/// Like [`synthetic_ownership`], but a fraction `focus_prob` of edge
/// endpoints is drawn from `focus_rows`. The paper's relationships are
/// *inferred from the data* among real survey companies, and holding
/// structures concentrate on the statistically unusual firms — exactly the
/// risky tuples — which is what makes the propagation of Figure 7d bite
/// ("relationships disclose many cases that deserve anonymization").
pub fn synthetic_ownership_focused(
    db: &MicrodataDb,
    id_attr: &str,
    count: usize,
    seed: u64,
    focus_rows: &[usize],
    focus_prob: f64,
) -> OwnershipGraph {
    let ids: Vec<&Value> = db.column(id_attr).expect("id column exists");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B05_E55E);
    let mut graph = OwnershipGraph::new();
    if ids.len() < 2 {
        return graph;
    }
    let pick = |rng: &mut StdRng| -> usize {
        if !focus_rows.is_empty() && rng.gen_bool(focus_prob) {
            focus_rows[rng.gen_range(0..focus_rows.len())]
        } else {
            rng.gen_range(0..ids.len())
        }
    };
    for _ in 0..count {
        let a = pick(&mut rng);
        let mut b = pick(&mut rng);
        while b == a {
            b = rng.gen_range(0..ids.len());
        }
        let w = rng.gen_range(0.51..0.95);
        graph.add_edge(ids[a].clone(), ids[b].clone(), w);
    }
    graph
}

/// Measure the wall-clock seconds of a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The value of `option`: the next command-line argument, parsed. A
/// missing or malformed value is a usage error: the reason goes to stderr
/// and `usage` exits.
pub fn operand<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    option: &str,
    usage: fn() -> !,
) -> T
where
    T::Err: std::fmt::Display,
{
    let Some(text) = args.next() else {
        eprintln!("{option} needs a value");
        usage()
    };
    match text.parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{option}: cannot parse '{text}': {e}");
            usage()
        }
    }
}

/// Read a committed `BENCH_*.json` baseline and return the positive
/// number `field` of the line matching `bench` and `mode`.
///
/// Every failure mode gets its own human-readable message (missing file,
/// unreadable file, no JSON line matching, matching line without a usable
/// value) so the CI perf gates can fail with a clear diagnosis instead
/// of a panic — re-run the bench binary without `--baseline` to
/// regenerate the file.
pub fn read_baseline_field(
    path: &str,
    bench: &str,
    mode: &str,
    field: &str,
) -> Result<f64, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(format!(
                "baseline file '{path}' not found — regenerate it by running the bench without --baseline"
            ));
        }
        Err(e) => return Err(format!("cannot read baseline '{path}': {e}")),
    };
    let mut parsed_any = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = vadasa_core::obs::json::parse(line) else {
            continue;
        };
        parsed_any = true;
        if v.get("bench").and_then(|b| b.as_str()) == Some(bench)
            && v.get("mode").and_then(|m| m.as_str()) == Some(mode)
        {
            return match v.get(field).and_then(|m| m.as_f64()) {
                Some(m) if m > 0.0 => Ok(m),
                Some(m) => Err(format!(
                    "baseline '{path}' has a non-positive {field} ({m}) for bench '{bench}' mode '{mode}'"
                )),
                None => Err(format!(
                    "baseline '{path}' entry for bench '{bench}' mode '{mode}' lacks a numeric {field} — regenerate it"
                )),
            };
        }
    }
    if parsed_any {
        Err(format!(
            "baseline '{path}' has no entry for bench '{bench}' mode '{mode}' — regenerate it"
        ))
    } else {
        Err(format!(
            "baseline '{path}' is malformed (no JSON lines parsed) — regenerate it"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadasa_core::prelude::KAnonymity;
    use vadasa_datagen::fixtures::local_suppression_fig5a;

    #[test]
    fn table_rendering_aligns_columns() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn paper_cycle_runs_on_fig5() {
        let (db, dict) = local_suppression_fig5a();
        let risk = KAnonymity::new(2);
        let out = run_paper_cycle(&db, &dict, &risk, paper_cycle_config());
        assert_eq!(out.final_risky, 0);
        assert!(out.nulls_injected >= 1);
    }

    #[test]
    fn synthetic_ownership_has_requested_edges() {
        let (db, _) = local_suppression_fig5a();
        let g = synthetic_ownership(&db, "Id", 5, 1);
        assert_eq!(g.edge_count(), 5);
        // all edges are majority stakes → at least one control link
        assert!(!g.control_closure().is_empty());
    }

    #[test]
    fn time_it_returns_value_and_elapsed() {
        let (v, secs) = time_it(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn baseline_reader_distinguishes_failure_modes() {
        // missing file
        let err = read_baseline_field("/nonexistent/BENCH.json", "x", "y", "median_s").unwrap_err();
        assert!(err.contains("not found"), "{err}");

        let dir = std::env::temp_dir().join("vadasa-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();

        // malformed file (no JSON lines at all)
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "this is not json\nneither is this\n").unwrap();
        let err = read_baseline_field(bad.to_str().unwrap(), "x", "y", "median_s").unwrap_err();
        assert!(err.contains("malformed"), "{err}");

        // valid file without the requested entry
        let sparse = dir.join("sparse.json");
        std::fs::write(
            &sparse,
            "{\"bench\":\"other\",\"mode\":\"cold\",\"median_s\":1.0}\n",
        )
        .unwrap();
        let err = read_baseline_field(sparse.to_str().unwrap(), "cycle.e2e", "warm", "median_s")
            .unwrap_err();
        assert!(err.contains("no entry"), "{err}");

        // matching entry without a usable median
        let nan = dir.join("nan.json");
        std::fs::write(
            &nan,
            "{\"bench\":\"cycle.e2e\",\"mode\":\"warm\",\"median_s\":0.0}\n",
        )
        .unwrap();
        let err = read_baseline_field(nan.to_str().unwrap(), "cycle.e2e", "warm", "median_s")
            .unwrap_err();
        assert!(err.contains("non-positive"), "{err}");

        // the happy path
        let good = dir.join("good.json");
        std::fs::write(
            &good,
            "{\"bench\":\"cycle.e2e\",\"mode\":\"warm\",\"median_s\":0.125}\n",
        )
        .unwrap();
        let m =
            read_baseline_field(good.to_str().unwrap(), "cycle.e2e", "warm", "median_s").unwrap();
        assert!((m - 0.125).abs() < 1e-12);
    }
}
