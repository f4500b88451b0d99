//! The safe-fallback invariant: after `degrade::suppress_all_risky` the
//! re-evaluated risk of **every** tuple is at or below the threshold —
//! under maybe-match semantics unconditionally, and under standard
//! semantics whenever the fallback claims `residual_risky == 0`. Checked
//! on the synthetic household survey across measures, thresholds and
//! seeds, with an *independent* re-evaluation rather than trusting the
//! summary's own report. The cycle runs the same fallback on its live
//! view: for every trigger its degraded outcome must equal
//! `suppress_all_risky` on a freshly built view.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use vadalog::CancelToken;
use vadasa_core::anonymize::AnonymizeError;
use vadasa_core::degrade::suppress_all_risky;
use vadasa_core::faults::FaultyRisk;
use vadasa_core::maybe_match::GroupStats;
use vadasa_core::prelude::*;
use vadasa_core::risk::RiskError;
use vadasa_datagen::{generate_households, HouseholdSurvey};

fn assert_invariant(
    risk: &dyn RiskMeasure,
    threshold: f64,
    semantics: NullSemantics,
    households: usize,
    seed: u64,
) {
    let survey = generate_households(households, seed);
    let mut db = survey.db.clone();
    let dict = &survey.dict;

    let summary = suppress_all_risky(&mut db, dict, risk, threshold, semantics, None);

    // independent re-evaluation over the released table
    let view = MicrodataView::from_db_with(&db, dict, semantics, None).expect("view");
    let report = risk.evaluate(&view).expect("re-evaluation");
    let over: Vec<usize> = report.risky_tuples(threshold);

    let ctx = format!(
        "measure={} T={threshold} semantics={semantics:?} households={households} seed={seed}",
        risk.name()
    );
    assert_eq!(
        over.len(),
        summary.residual_risky,
        "{ctx}: summary disagrees with independent re-evaluation"
    );
    if semantics == NullSemantics::MaybeMatch {
        // maybe-match: a fully suppressed tuple joins the maximal group,
        // so the fallback must always reach the bound
        assert!(
            over.is_empty(),
            "{ctx}: {} tuples above threshold after fallback",
            over.len()
        );
    }
    // the summary's own verification must agree with ours
    let own = summary.final_report.expect("fallback verified");
    assert_eq!(own.risky_tuples(threshold).len(), summary.residual_risky);
}

#[test]
fn fallback_invariant_holds_on_households_maybe_match() {
    for seed in [3u64, 17, 99] {
        for threshold in [0.2, 0.5] {
            let k = KAnonymity::new(3);
            assert_invariant(&k, threshold, NullSemantics::MaybeMatch, 30, seed);
            let reid = ReIdentification;
            assert_invariant(&reid, threshold, NullSemantics::MaybeMatch, 30, seed);
        }
    }
}

#[test]
fn fallback_invariant_reports_honestly_under_standard_semantics() {
    // Standard semantics cannot always reach the bound (fresh nulls keep
    // suppressed singletons unique); what it must do is terminate and
    // report a residual that an independent evaluation confirms.
    for seed in [3u64, 17] {
        let k = KAnonymity::new(3);
        assert_invariant(&k, 0.5, NullSemantics::Standard, 30, seed);
    }
}

#[test]
fn fallback_only_touches_quasi_identifiers() {
    let survey = generate_households(25, 11);
    let mut db = survey.db.clone();
    let k = KAnonymity::new(4);
    suppress_all_risky(
        &mut db,
        &survey.dict,
        &k,
        0.3,
        NullSemantics::MaybeMatch,
        None,
    );
    for row in 0..db.len() {
        // identifiers and weights survive suppression untouched
        assert_eq!(
            db.value(row, "PersonId").unwrap(),
            survey.db.value(row, "PersonId").unwrap()
        );
        assert_eq!(
            db.value(row, "Weight").unwrap(),
            survey.db.value(row, "Weight").unwrap()
        );
    }
}

#[test]
fn cycle_end_to_end_degrades_to_safe_release() {
    // The same invariant through the cycle's public API: a capped run
    // must still release a table that independently verifies safe.
    let survey = generate_households(30, 5);
    let risk = KAnonymity::new(3);
    let anon = LocalSuppression::default();
    let cycle = AnonymizationCycle::new(
        &risk,
        &anon,
        CycleConfig {
            threshold: 0.5,
            max_iterations: 1,
            ..CycleConfig::default()
        },
    );
    let out = cycle.run(&survey.db, &survey.dict).unwrap();
    if !out.termination.is_converged() {
        let view =
            MicrodataView::from_db_with(&out.db, &survey.dict, NullSemantics::MaybeMatch, None)
                .unwrap();
        let report = risk.evaluate(&view).unwrap();
        assert!(report.risky_tuples(0.5).is_empty());
    }
    assert_eq!(out.final_risky, 0);
}

// --- the cycle's fallback on its live view ----------------------------------

/// How a degraded run is forced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    Cap,
    ZeroDeadline,
    Cancelled,
    MeasurePanic,
    AnonymizerPanic,
    NoProgress,
}

const TRIGGERS: [Trigger; 6] = [
    Trigger::Cap,
    Trigger::ZeroDeadline,
    Trigger::Cancelled,
    Trigger::MeasurePanic,
    Trigger::AnonymizerPanic,
    Trigger::NoProgress,
];

/// Delegates to `inner` and keeps the table as each step left it, so a
/// test can rebuild the table the fallback started from. With
/// `panic_after`, that step panics once its write is made: the table is
/// then ahead of the cycle's view.
struct Recording<'a> {
    inner: &'a dyn Anonymizer,
    last: Mutex<Option<MicrodataDb>>,
    steps: AtomicUsize,
    panic_after: Option<usize>,
}

impl Anonymizer for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn anonymize_step_with(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let action = self.inner.anonymize_step_with(db, dict, view, row);
        *self.last.lock().expect("lock") = Some(db.clone());
        let step = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.panic_after == Some(step) {
            panic!("injected anonymizer fault after the write of step #{step}");
        }
        action
    }
}

/// Local suppression whose second step nulls the cell its first step
/// nulled, over the null: a step that changes nothing.
struct Stuck {
    cell: Mutex<Option<(usize, String)>>,
}

impl Anonymizer for Stuck {
    fn name(&self) -> &str {
        "stuck"
    }

    fn anonymize_step_with(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        let mut cell = self.cell.lock().expect("lock");
        let Some((row, attr)) = cell.clone() else {
            let action = LocalSuppression::default().anonymize_step_with(db, dict, view, row)?;
            if let AnonymizationAction::Suppress { row, attr, .. } = &action {
                *cell = Some((*row, attr.clone()));
            }
            return Ok(action);
        };
        let previous = db.value(row, &attr)?.clone();
        let null = db.fresh_null();
        db.set_value(row, &attr, null)?;
        Ok(AnonymizationAction::Suppress {
            row,
            attr,
            previous,
        })
    }
}

/// Run the cycle on `survey` until `trigger` degrades it. Returns the
/// outcome and the table the fallback started from.
fn degraded_run(
    trigger: Trigger,
    measure: &dyn RiskMeasure,
    threshold: f64,
    semantics: NullSemantics,
    survey: &HouseholdSurvey,
) -> (CycleOutcome, MicrodataDb) {
    let config = CycleConfig {
        threshold,
        semantics,
        granularity: StepGranularity::OneTuplePerIteration,
        ..CycleConfig::default()
    };
    let local = LocalSuppression::default();
    let stuck = Stuck {
        cell: Mutex::new(None),
    };
    let token = CancelToken::new();
    let cancelling = FaultyRisk::new(measure).cancel_after(2, token.clone());
    let panicking_measure = FaultyRisk::new(measure).panic_at(2);
    let (risk, anon, config): (&dyn RiskMeasure, &dyn Anonymizer, CycleConfig) = match trigger {
        Trigger::Cap => (
            measure,
            &local,
            CycleConfig {
                max_iterations: 2,
                ..config
            },
        ),
        Trigger::ZeroDeadline => (
            measure,
            &local,
            CycleConfig {
                deadline: Some(Duration::ZERO),
                ..config
            },
        ),
        Trigger::Cancelled => (&cancelling, &local, config),
        Trigger::MeasurePanic => (&panicking_measure, &local, config),
        Trigger::AnonymizerPanic => (measure, &local, config),
        Trigger::NoProgress => (measure, &stuck, config),
    };
    let recording = Recording {
        inner: anon,
        last: Mutex::new(None),
        steps: AtomicUsize::new(0),
        panic_after: (trigger == Trigger::AnonymizerPanic).then_some(3),
    };
    let out = AnonymizationCycle::new(risk, &recording, config)
        .with_cancel(token)
        .run(&survey.db, &survey.dict)
        .expect("a degraded run is an outcome");
    let start = recording.last.into_inner().expect("lock");
    (out, start.unwrap_or_else(|| survey.db.clone()))
}

/// The trigger a degraded outcome must carry.
fn carries(trigger: Trigger, got: &DegradeTrigger) -> bool {
    match trigger {
        Trigger::Cap => *got == DegradeTrigger::IterationCap,
        Trigger::ZeroDeadline => *got == DegradeTrigger::Deadline,
        Trigger::Cancelled => *got == DegradeTrigger::Cancelled,
        Trigger::MeasurePanic | Trigger::AnonymizerPanic => {
            matches!(got, DegradeTrigger::PluginPanic { .. })
        }
        Trigger::NoProgress => matches!(got, DegradeTrigger::NoProgress { .. }),
    }
}

#[test]
fn the_cycles_fallback_equals_the_fallback_on_a_fresh_view() {
    // Every trigger, under k-anonymity, re-identification and SUDA and
    // both semantics: the degraded outcome is what `suppress_all_risky`
    // makes of the table the fallback started from, on a view built
    // fresh from it.
    let survey = generate_households(30, 5);
    let k = KAnonymity::new(3);
    let reid = ReIdentification;
    let suda = Suda::new(3);
    let measures: [(&dyn RiskMeasure, f64); 3] = [(&k, 0.5), (&reid, 0.01), (&suda, 0.5)];
    for (measure, threshold) in measures {
        for semantics in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for trigger in TRIGGERS {
                let ctx = format!("{} {semantics:?} {trigger:?}", measure.name());
                let (out, mut start) =
                    degraded_run(trigger, measure, threshold, semantics, &survey);
                let CycleTermination::Degraded { trigger: got } = &out.termination else {
                    panic!("{ctx}: the run converged");
                };
                assert!(carries(trigger, got), "{ctx}: degraded by {got}");
                let fallback = out.profile.fallback.as_ref().expect("fallback recorded");

                // The reference: the audit up to the fallback, then the
                // fallback on a fresh view of the table it started from.
                let steps = out.audit.decisions.len() - fallback.cells_suppressed;
                let mut audit = AuditLog {
                    decisions: out.audit.decisions[..steps].to_vec(),
                };
                let summary = suppress_all_risky(
                    &mut start,
                    &survey.dict,
                    measure,
                    threshold,
                    semantics,
                    Some((&mut audit, out.iterations)),
                );
                assert_eq!(out.db.len(), start.len(), "{ctx}");
                for r in 0..start.len() {
                    assert_eq!(
                        out.db.row(r).unwrap(),
                        start.row(r).unwrap(),
                        "{ctx}: row {r}"
                    );
                }
                assert_eq!(out.db.nulls_minted(), start.nulls_minted(), "{ctx}");
                assert_eq!(out.audit.decisions, audit.decisions, "{ctx}: audit");
                let expected = FallbackRecord {
                    trigger: got.clone(),
                    passes: summary.passes,
                    rows_suppressed: summary.rows_suppressed,
                    cells_suppressed: summary.cells_suppressed,
                    residual_risky: summary.residual_risky,
                };
                assert_eq!(*fallback, expected, "{ctx}: fallback record");
                let report = summary.final_report.expect("the fallback verified");
                assert_eq!(out.final_report.measure, report.measure, "{ctx}");
                let bits = |r: &RiskReport| r.risks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out.final_report), bits(&report), "{ctx}: risks");
                assert_eq!(out.final_report.details, report.details, "{ctx}: details");
            }
        }
    }
}

/// k-anonymity that counts its full evaluations and notes the address of
/// every view it is shown.
struct Counting {
    inner: KAnonymity,
    evaluations: AtomicUsize,
    views: Mutex<Vec<(&'static str, usize)>>,
}

impl Counting {
    fn saw(&self, call: &'static str, view: &MicrodataView) {
        let address = view as *const MicrodataView as usize;
        self.views.lock().expect("lock").push((call, address));
    }
}

impl RiskMeasure for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.saw("evaluate", view);
        self.inner.evaluate(view)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        self.inner.evaluate_tuple(view, row)
    }

    fn tuple_risk_from_stats(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
        row: usize,
    ) -> Option<f64> {
        self.inner.tuple_risk_from_stats(view, stats, row)
    }

    fn report_from_groups(
        &self,
        view: &MicrodataView,
        stats: &GroupStats,
    ) -> Option<Result<RiskReport, RiskError>> {
        self.saw("report_from_groups", view);
        self.inner.report_from_groups(view, stats)
    }
}

#[test]
fn a_capped_runs_fallback_evaluates_once_on_the_cycles_view() {
    let survey = generate_households(30, 5);
    let measure = Counting {
        inner: KAnonymity::new(3),
        evaluations: AtomicUsize::new(0),
        views: Mutex::new(Vec::new()),
    };
    let anon = LocalSuppression::default();
    let config = CycleConfig {
        granularity: StepGranularity::OneTuplePerIteration,
        max_iterations: 2,
        ..CycleConfig::default()
    };
    let out = AnonymizationCycle::new(&measure, &anon, config)
        .run(&survey.db, &survey.dict)
        .expect("degraded run");
    assert_eq!(
        out.termination,
        CycleTermination::Degraded {
            trigger: DegradeTrigger::IterationCap
        }
    );
    let fallback = out.profile.fallback.as_ref().expect("fallback recorded");
    assert!(fallback.cells_suppressed > 0);
    assert_eq!(
        fallback.passes, 2,
        "the cap's report stands in for the first pass"
    );
    // The cycle scores from its group statistics; the fallback's one
    // re-verification is the run's only full evaluation, on the same
    // view the cycle scored.
    assert_eq!(measure.evaluations.load(Ordering::Relaxed), 1);
    let views = measure.views.into_inner().expect("lock");
    let (last, fallback_view) = views.last().copied().expect("calls");
    assert_eq!(last, "evaluate");
    assert!(views.len() > 1);
    assert!(
        views.iter().all(|&(_, v)| v == fallback_view),
        "the fallback evaluated another view than the cycle's: {views:?}"
    );
    assert!(out.final_report.risky_tuples(0.5).is_empty());
}
