//! Dataset-level confidentiality reporting (desiderata iii and vi).
//!
//! Vada-SA is *preemptive*: before a microdata DB is shared, analysts see
//! a confidentiality score for the whole dataset, not just per-tuple
//! flags. This module aggregates any [`RiskReport`] into the global
//! indicators used in SDC practice and renders them — together with the
//! most exposed tuples and their explanations — as a plain-text summary
//! suitable for an RDC review meeting.

use crate::cycle::CycleProfile;
use crate::maybe_match::NullSemantics;
use crate::risk::{MicrodataView, RiskReport};
use std::fmt::Write;

/// Global disclosure indicators for one (dataset, measure) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRisk {
    /// Measure that produced the underlying per-tuple risks.
    pub measure: String,
    /// Number of tuples.
    pub tuples: usize,
    /// Expected number of re-identifications `Σ ρ_t` (the standard global
    /// risk indicator of Benedetti–Franconi practice).
    pub expected_reidentifications: f64,
    /// Share of tuples above the threshold.
    pub risky_share: f64,
    /// Maximum per-tuple risk.
    pub max_risk: f64,
    /// Mean per-tuple risk.
    pub mean_risk: f64,
    /// Sample uniques on the full quasi-identifier combination.
    pub sample_uniques: usize,
    /// Histogram of equivalence-class sizes: `(upper bound, tuples)`
    /// buckets 1, 2, 3–5, 6–10, >10.
    pub class_histogram: [(usize, usize); 5],
}

/// Compute the dataset-level indicators from a view and a risk report.
pub fn dataset_risk(view: &MicrodataView, report: &RiskReport, threshold: f64) -> DatasetRisk {
    let stats = view.group_stats_with(None, NullSemantics::Standard);
    let sample_uniques = stats.count.iter().filter(|&&c| c == 1).count();
    let mut histogram = [(1usize, 0usize), (2, 0), (5, 0), (10, 0), (usize::MAX, 0)];
    for &c in &stats.count {
        let bucket = match c {
            1 => 0,
            2 => 1,
            3..=5 => 2,
            6..=10 => 3,
            _ => 4,
        };
        histogram[bucket].1 += 1;
    }
    DatasetRisk {
        measure: report.measure.clone(),
        tuples: view.len(),
        expected_reidentifications: report.risks.iter().sum(),
        risky_share: if view.is_empty() {
            0.0
        } else {
            report.risky_tuples(threshold).len() as f64 / view.len() as f64
        },
        max_risk: report.max_risk(),
        mean_risk: report.mean_risk(),
        sample_uniques,
        class_histogram: histogram,
    }
}

/// Render a full pre-exchange summary: global indicators plus the `top_n`
/// most exposed tuples with the per-tuple diagnostics of the measure.
pub fn render_summary(
    view: &MicrodataView,
    report: &RiskReport,
    threshold: f64,
    top_n: usize,
) -> String {
    let global = dataset_risk(view, report, threshold);
    let mut out = String::new();
    let _ = writeln!(out, "confidentiality summary — measure: {}", global.measure);
    let _ = writeln!(
        out,
        "  tuples: {}   quasi-identifiers: {}   threshold T: {threshold}",
        global.tuples,
        view.width()
    );
    let _ = writeln!(
        out,
        "  expected re-identifications Σρ: {:.2}   mean risk: {:.4}   max risk: {:.4}",
        global.expected_reidentifications, global.mean_risk, global.max_risk
    );
    let _ = writeln!(
        out,
        "  risky share: {:.2}%   sample uniques: {}",
        global.risky_share * 100.0,
        global.sample_uniques
    );
    let labels = ["1", "2", "3-5", "6-10", ">10"];
    let _ = write!(out, "  class sizes: ");
    for (label, (_, n)) in labels.iter().zip(global.class_histogram.iter()) {
        let _ = write!(out, "[{label}]={n} ");
    }
    out.push('\n');

    // top-n riskiest tuples with explanations
    let mut order: Vec<usize> = (0..report.risks.len()).collect();
    order.sort_by(|&a, &b| report.risks[b].total_cmp(&report.risks[a]));
    let shown = order
        .into_iter()
        .take(top_n)
        .filter(|&i| report.risks[i] > 0.0)
        .collect::<Vec<_>>();
    if !shown.is_empty() {
        let _ = writeln!(out, "  most exposed tuples:");
        for i in shown {
            let d = &report.details[i];
            let _ = writeln!(
                out,
                "    tuple {:>5}: risk {:.4}  (class size {}, weight sum {:.1}{}{})",
                i,
                report.risks[i],
                d.frequency,
                d.weight_sum,
                if d.note.is_empty() { "" } else { " — " },
                d.note
            );
        }
    }
    out
}

/// Render the anonymization cycle's per-iteration telemetry as a
/// plain-text convergence table: one line per iteration with the risk
/// landscape, the heuristic decision, the actions taken and the share of
/// time spent evaluating risk.
pub fn render_profile(profile: &CycleProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycle profile — {} iteration(s) in {:.3} ms, {:.3} ms ({:.1}%) in risk evaluation",
        profile.iterations.len(),
        profile.total_ns as f64 / 1e6,
        profile.risk_eval_ns as f64 / 1e6,
        if profile.total_ns == 0 {
            0.0
        } else {
            100.0 * profile.risk_eval_ns as f64 / profile.total_ns as f64
        }
    );
    let _ = writeln!(
        out,
        "{:>5}  {:>6}  {:>5}  {:>8}  {:>8}  {:>6}  {:>6}  {:>9}  {:>9}  decision",
        "iter", "risky", "exh.", "mean", "max", "suppr", "recode", "risk ms", "commit ms"
    );
    for r in &profile.iterations {
        let _ = writeln!(
            out,
            "{:>5}  {:>6}  {:>5}  {:>8.4}  {:>8.4}  {:>6}  {:>6}  {:>9.3}  {:>9.3}  {}",
            r.iteration,
            r.risky,
            r.exhausted,
            r.mean_risk,
            r.max_risk,
            r.suppressions,
            r.recodings,
            r.risk_eval_ns as f64 / 1e6,
            r.commit_ns as f64 / 1e6,
            r.heuristic
        );
    }
    if let Some(f) = &profile.fallback {
        let _ = writeln!(
            out,
            "fallback — {}: {} pass(es) suppressed {} cell(s) in {} row(s), \
             {} still risky, {:.3} ms",
            f.trigger,
            f.passes,
            f.cells_suppressed,
            f.rows_suppressed,
            f.residual_risky,
            profile.fallback_ns as f64 / 1e6
        );
    }
    let w = &profile.warm;
    if *w != Default::default() {
        let _ = writeln!(
            out,
            "warm-start — {} warm / {} cold evaluation(s), {} fact(s) patched, \
             {} fallback(s) to cold, {} reused byte(s), \
             {} disk restore(s), {} persist error(s)",
            w.warm_evals,
            w.cold_evals,
            w.patched_facts,
            w.fallback_to_cold,
            w.reused_index_bytes,
            w.disk_restores,
            w.persist_errors
        );
    }
    let j = &profile.journal;
    if *j != Default::default() {
        let _ = writeln!(
            out,
            "journal — {} record(s) / {} byte(s) written, {} fsync(s) (+{} dir), {} snapshot(s); \
             recovery replayed {} action(s), truncated {} byte(s), discarded {} action(s), \
             {} i/o error(s) absorbed",
            j.records_written,
            j.bytes_written,
            j.fsyncs,
            j.dir_fsyncs,
            j.snapshots_written,
            j.replayed_actions,
            j.truncated_bytes,
            j.discarded_actions,
            j.io_errors
        );
    }
    if let Some(p) = &profile.progress {
        let eta = match p.eta_iterations {
            Some(0) => "converged".to_string(),
            Some(n) => format!("~{n} iteration(s) to convergence"),
            None => "no downward trend".to_string(),
        };
        let _ = writeln!(
            out,
            "progress — {} row(s) at risk, trend {:+.2} row(s)/iteration, {eta} \
             (confidence {:.0}%)",
            p.rows_at_risk,
            p.trend,
            p.confidence * 100.0
        );
    }
    out
}

/// Render a reasoning run's [`EngineProfile`](vadalog::EngineProfile) the
/// way [`render_profile`] renders the cycle's: the engine's own table plus
/// a one-line summary of the join core (index probes vs. fallback scans,
/// interner hits, planner reorders and prunes). Benchmarks and CLI
/// reports use this to show *why* an engine run got faster, not only that
/// it did.
pub fn render_engine_profile(profile: &vadalog::EngineProfile) -> String {
    let mut out = profile.render_table();
    let probed = profile.index_probes + profile.index_scans;
    let _ = writeln!(
        out,
        "join accesses — {:.1}% indexed ({} probe(s) / {} scan(s))",
        if probed == 0 {
            0.0
        } else {
            100.0 * profile.index_probes as f64 / probed as f64
        },
        profile.index_probes,
        profile.index_scans,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::IterationRecord;
    use crate::risk::test_support::view_of;
    use crate::risk::{KAnonymity, ReIdentification, RiskMeasure};

    fn sample_view() -> MicrodataView {
        view_of(
            vec![
                vec!["a"],
                vec!["a"],
                vec!["a"],
                vec!["b"],
                vec!["b"],
                vec!["solo"],
            ],
            Some(vec![30.0, 30.0, 30.0, 60.0, 60.0, 4.0]),
        )
    }

    #[test]
    fn indicators_are_computed() {
        let view = sample_view();
        let report = ReIdentification.evaluate(&view).unwrap();
        let g = dataset_risk(&view, &report, 0.1);
        assert_eq!(g.tuples, 6);
        assert_eq!(g.sample_uniques, 1);
        // Σρ = 3×(1/90) + 2×(1/120) + 1/4
        let expected = 3.0 / 90.0 + 2.0 / 120.0 + 0.25;
        assert!((g.expected_reidentifications - expected).abs() < 1e-9);
        assert!((g.max_risk - 0.25).abs() < 1e-12);
        assert!((g.risky_share - 1.0 / 6.0).abs() < 1e-12);
        // histogram: class sizes 3,3,3,2,2,1 → [1]=1, [2]=2, [3-5]=3
        assert_eq!(g.class_histogram[0].1, 1);
        assert_eq!(g.class_histogram[1].1, 2);
        assert_eq!(g.class_histogram[2].1, 3);
    }

    #[test]
    fn summary_text_names_the_worst_tuple() {
        let view = sample_view();
        let report = ReIdentification.evaluate(&view).unwrap();
        let text = render_summary(&view, &report, 0.1, 3);
        assert!(text.contains("expected re-identifications"));
        assert!(text.contains("tuple     5: risk 0.2500"));
        assert!(text.contains("[1]=1"));
    }

    #[test]
    fn kanonymity_summary_counts_risky_share() {
        let view = sample_view();
        let report = KAnonymity::new(2).evaluate(&view).unwrap();
        let g = dataset_risk(&view, &report, 0.5);
        assert!((g.risky_share - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(g.expected_reidentifications, 1.0);
    }

    #[test]
    fn profile_table_lists_every_iteration() {
        let profile = CycleProfile {
            iterations: vec![
                IterationRecord {
                    iteration: 0,
                    risky: 3,
                    mean_risk: 0.4,
                    max_risk: 1.0,
                    heuristic: "fifo/all-risky → row 2".into(),
                    targets: 3,
                    suppressions: 3,
                    risk_eval_ns: 2_000_000,
                    dur_ns: 3_000_000,
                    ..IterationRecord::default()
                },
                IterationRecord {
                    iteration: 1,
                    heuristic: "converged".into(),
                    risk_eval_ns: 1_000_000,
                    dur_ns: 1_200_000,
                    ..IterationRecord::default()
                },
            ],
            risk_eval_ns: 3_000_000,
            total_ns: 4_200_000,
            fallback_ns: 0,
            fallback: None,
            warm: Default::default(),
            journal: Default::default(),
            progress: None,
        };
        let text = render_profile(&profile);
        assert!(text.contains("2 iteration(s)"));
        assert!(text.contains("fifo/all-risky → row 2"));
        assert!(text.contains("converged"));
        assert!(text.contains("(71.4%) in risk evaluation"));
        // all-zero warm counters stay silent (cold runs render as before)
        assert!(!text.contains("warm-start"));
        // same for an unjournaled run
        assert!(!text.contains("journal —"));
    }

    #[test]
    fn profile_table_renders_commit_and_fallback_time() {
        let profile = CycleProfile {
            iterations: vec![IterationRecord {
                heuristic: "iteration cap hit".into(),
                commit_ns: 1_250_000,
                ..IterationRecord::default()
            }],
            fallback_ns: 2_500_000,
            fallback: Some(crate::degrade::FallbackRecord {
                trigger: crate::degrade::DegradeTrigger::IterationCap,
                passes: 2,
                rows_suppressed: 3,
                cells_suppressed: 5,
                residual_risky: 0,
            }),
            ..CycleProfile::default()
        };
        let text = render_profile(&profile);
        assert!(text.contains("commit ms"), "{text}");
        assert!(text.contains("    1.250  iteration cap hit"), "{text}");
        assert!(
            text.contains(
                "fallback — iteration cap: 2 pass(es) suppressed 5 cell(s) in 3 row(s), \
                 0 still risky, 2.500 ms"
            ),
            "{text}"
        );
        // a run that did not degrade prints no fallback line
        assert!(!render_profile(&CycleProfile::default()).contains("fallback —"));
    }

    #[test]
    fn profile_table_renders_journal_counters() {
        let profile = CycleProfile {
            journal: crate::journal::JournalProfile {
                records_written: 11,
                bytes_written: 640,
                fsyncs: 11,
                dir_fsyncs: 3,
                snapshots_written: 2,
                snapshot_bytes: 512,
                replayed_actions: 3,
                truncated_bytes: 17,
                discarded_actions: 1,
                io_errors: 0,
            },
            ..CycleProfile::default()
        };
        let text = render_profile(&profile);
        assert!(text.contains("11 record(s) / 640 byte(s) written"));
        assert!(text.contains("2 snapshot(s)"));
        assert!(text.contains("replayed 3 action(s)"));
        assert!(text.contains("truncated 17 byte(s)"));
    }

    #[test]
    fn profile_table_renders_warm_counters() {
        let profile = CycleProfile {
            warm: crate::cycle::WarmCycleProfile {
                warm_evals: 9,
                cold_evals: 1,
                patched_facts: 12,
                fallback_to_cold: 0,
                reused_index_bytes: 4096,
                ..Default::default()
            },
            ..CycleProfile::default()
        };
        let text = render_profile(&profile);
        assert!(text.contains("9 warm / 1 cold evaluation(s)"));
        assert!(text.contains("12 fact(s) patched"));
        assert!(text.contains("4096 reused byte(s)"));
    }

    #[test]
    fn empty_view_is_handled() {
        let view = view_of(vec![], None);
        let report = RiskReport {
            measure: "test".into(),
            risks: vec![],
            details: vec![],
        };
        let g = dataset_risk(&view, &report, 0.5);
        assert_eq!(g.tuples, 0);
        assert_eq!(g.risky_share, 0.0);
        let text = render_summary(&view, &report, 0.5, 5);
        assert!(text.contains("tuples: 0"));
    }
}
