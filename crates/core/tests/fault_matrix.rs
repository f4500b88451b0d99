//! The fault matrix: every deterministic fault scenario must end in a
//! *graceful* degradation — an `Ok(CycleOutcome)` whose released table
//! honours the risk bound (or honestly reports it unverifiable), with the
//! degradation recorded in the profile, the audit log, and the telemetry
//! stream. No scenario may abort the process or fail open.

use std::sync::Arc;
use std::time::Duration;
use vadalog::CancelToken;
use vadasa_core::cycle::{AnonymizationCycle, CycleConfig, CycleTermination};
use vadasa_core::faults::{Fault, FaultPlan, FaultyAnonymizer, FaultyRisk};
use vadasa_core::journal::JournalConfig;
use vadasa_core::obs::{Event, EventKind, Recorder};
use vadasa_core::prelude::*;
use vadasa_datagen::generate_households;

const THRESHOLD: f64 = 0.5;

/// Run one scenario on the household fixture and return the outcome with
/// the telemetry recorder that watched it.
fn run_scenario(plan: &FaultPlan) -> (CycleOutcome, Arc<Recorder>, usize) {
    let survey = generate_households(40, 0xFA17);
    let inner_risk = KAnonymity::new(2);
    let inner_anon = LocalSuppression::default();
    let recorder = Arc::new(Recorder::default());

    let mut config = CycleConfig {
        threshold: THRESHOLD,
        ..CycleConfig::default()
    };
    let mut risk = FaultyRisk::new(&inner_risk);
    let mut anon = FaultyAnonymizer::new(&inner_anon);
    let mut cancel: Option<CancelToken> = None;

    match &plan.fault {
        Fault::IterationCap(n) => config.max_iterations = *n,
        Fault::ImmediateDeadline => config.deadline = Some(Duration::ZERO),
        Fault::PanicInRisk { at_eval } => risk = risk.panic_at(*at_eval),
        Fault::PanicInAnonymizer { at_step } => anon = anon.panic_at(*at_step),
        Fault::CancelAfterEvals(n) => {
            let token = CancelToken::new();
            risk = risk.cancel_after(*n, token.clone());
            cancel = Some(token);
        }
    }

    let mut cycle = AnonymizationCycle::new(&risk, &anon, config).with_collector(recorder.clone());
    if let Some(token) = cancel {
        cycle = cycle.with_cancel(token);
    }
    let outcome = cycle
        .run(&survey.db, &survey.dict)
        .unwrap_or_else(|e| panic!("scenario {} must degrade, not error: {e}", plan.name));
    let rows = survey.db.len();
    (outcome, recorder, rows)
}

#[test]
fn every_scenario_degrades_gracefully() {
    for seed in [1u64, 7, 42] {
        for plan in FaultPlan::scenarios(seed) {
            let (outcome, recorder, rows) = run_scenario(&plan);
            let ctx = format!("scenario {} (seed {seed})", plan.name);

            // 1. the degradation is first-class, not an error
            let CycleTermination::Degraded { trigger } = &outcome.termination else {
                panic!("{ctx}: expected degraded termination, got convergence");
            };
            let fallback = outcome
                .profile
                .fallback
                .as_ref()
                .unwrap_or_else(|| panic!("{ctx}: fallback not recorded in profile"));
            assert_eq!(&fallback.trigger, trigger, "{ctx}: trigger mismatch");

            // 2. the risk bound holds — or is honestly reported unverified
            //    (fail-closed: every tuple counted risky, QIs suppressed)
            if outcome.final_report.measure.contains("risk-unavailable") {
                assert_eq!(
                    outcome.final_risky, rows,
                    "{ctx}: fail-closed must count all"
                );
                assert!(
                    outcome.db.null_cells(&[]) > 0,
                    "{ctx}: fail-closed must have suppressed"
                );
            } else {
                assert_eq!(outcome.final_risky, 0, "{ctx}: risk bound violated");
                assert!(
                    outcome.final_report.risky_tuples(THRESHOLD).is_empty(),
                    "{ctx}: report disagrees with final_risky"
                );
            }

            // 3. the fallback's work is audited (audit defaults to on)
            assert_eq!(
                outcome.audit.suppressions(),
                outcome.nulls_injected,
                "{ctx}: audit log out of sync with suppressions"
            );

            // 4. telemetry saw the degradation as a first-class event,
            //    and the trace places the time the fallback took
            let events = recorder.events_named("cycle.fallback");
            let counted = |span: bool| {
                let of_kind = |e: &&Event| matches!(e.kind, EventKind::Span { .. }) == span;
                events.iter().filter(of_kind).count()
            };
            assert_eq!(
                counted(false),
                1,
                "{ctx}: expected one cycle.fallback event"
            );
            assert_eq!(
                counted(true),
                usize::from(outcome.profile.fallback_ns > 0),
                "{ctx}: expected one cycle.fallback span"
            );
        }
    }
}

#[test]
fn unfaulted_wrappers_are_transparent() {
    // The same wrappers with no fault armed must not change the outcome:
    // the harness itself is not an intervention.
    let survey = generate_households(40, 0xFA17);
    let inner_risk = KAnonymity::new(2);
    let inner_anon = LocalSuppression::default();
    let config = CycleConfig {
        threshold: THRESHOLD,
        ..CycleConfig::default()
    };

    let plain = AnonymizationCycle::new(&inner_risk, &inner_anon, config.clone())
        .run(&survey.db, &survey.dict)
        .expect("plain run");

    let risk = FaultyRisk::new(&inner_risk);
    let anon = FaultyAnonymizer::new(&inner_anon);
    let wrapped = AnonymizationCycle::new(&risk, &anon, config)
        .run(&survey.db, &survey.dict)
        .expect("wrapped run");

    assert!(wrapped.termination.is_converged());
    assert_eq!(plain.iterations, wrapped.iterations);
    assert_eq!(plain.nulls_injected, wrapped.nulls_injected);
    assert_eq!(plain.final_risky, wrapped.final_risky);
    assert!(risk.evals() > 0);
    assert!(anon.steps() > 0);
}

#[test]
fn governor_terminations_leave_resumable_journals() {
    // The governor (iteration cap, deadline, cancellation) and the
    // journal compose: a run the governor cuts short leaves a journal
    // that — resumed under an *unbounded* configuration — lands on the
    // exact outcome of a run that was never bounded. The fallback
    // suppressions a degraded run applies are deliberately not journaled
    // and its `Degraded` marker is truncated on recovery, so resume
    // continues toward convergence instead of replaying the bail-out.
    let survey = generate_households(40, 0xFA17);
    let inner_risk = KAnonymity::new(2);
    let inner_anon = LocalSuppression::default();
    let unbounded = CycleConfig {
        threshold: THRESHOLD,
        ..CycleConfig::default()
    };
    let plain = AnonymizationCycle::new(&inner_risk, &inner_anon, unbounded.clone())
        .run(&survey.db, &survey.dict)
        .expect("plain unbounded run");
    assert!(plain.termination.is_converged());

    let cases = [
        ("iteration-cap", Fault::IterationCap(1)),
        ("immediate-deadline", Fault::ImmediateDeadline),
        ("cancel-after-1-eval", Fault::CancelAfterEvals(1)),
    ];
    for (name, fault) in cases {
        let dir = std::env::temp_dir().join(format!(
            "vadasa-governor-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut config = CycleConfig {
            journal: Some(JournalConfig::new(&dir)),
            ..unbounded.clone()
        };
        let mut risk = FaultyRisk::new(&inner_risk);
        let mut cancel: Option<CancelToken> = None;
        match fault {
            Fault::IterationCap(n) => config.max_iterations = n,
            Fault::ImmediateDeadline => config.deadline = Some(Duration::ZERO),
            Fault::CancelAfterEvals(n) => {
                let token = CancelToken::new();
                risk = risk.cancel_after(n, token.clone());
                cancel = Some(token);
            }
            _ => unreachable!("not a governor fault"),
        }
        let mut cycle = AnonymizationCycle::new(&risk, &inner_anon, config);
        if let Some(token) = cancel {
            cycle = cycle.with_cancel(token);
        }
        let bounded = cycle
            .run(&survey.db, &survey.dict)
            .unwrap_or_else(|e| panic!("{name}: bounded run must degrade, not error: {e}"));
        assert!(
            matches!(bounded.termination, CycleTermination::Degraded { .. }),
            "{name}: governor did not fire"
        );

        let resumed = AnonymizationCycle::new(
            &inner_risk,
            &inner_anon,
            CycleConfig {
                journal: Some(JournalConfig::new(&dir)),
                ..unbounded.clone()
            },
        )
        .resume(&survey.db, &survey.dict)
        .unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));

        assert!(resumed.termination.is_converged(), "{name}: not converged");
        assert_eq!(resumed.iterations, plain.iterations, "{name}: iterations");
        assert_eq!(
            resumed.nulls_injected, plain.nulls_injected,
            "{name}: nulls"
        );
        assert_eq!(resumed.recodings, plain.recodings, "{name}: recodings");
        assert_eq!(
            resumed.initial_risky, plain.initial_risky,
            "{name}: initial risky"
        );
        assert_eq!(
            resumed.final_risky, plain.final_risky,
            "{name}: final risky"
        );
        assert_eq!(
            resumed.information_loss.to_bits(),
            plain.information_loss.to_bits(),
            "{name}: information loss"
        );
        assert_eq!(
            resumed.final_report.risks, plain.final_report.risks,
            "{name}: final risks"
        );
        assert_eq!(
            resumed.audit.decisions.len(),
            plain.audit.decisions.len(),
            "{name}: audit length"
        );
        for i in 0..survey.db.len() {
            assert_eq!(
                resumed.db.row(i).unwrap(),
                plain.db.row(i).unwrap(),
                "{name}: row {i} of the released table"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cancellation_preserves_partial_work() {
    // Cancelling after the first evaluation must keep the suppressions
    // performed so far — degradation adds protection on top, it never
    // rolls protection back.
    let survey = generate_households(40, 0xFA17);
    let inner_risk = KAnonymity::new(2);
    let inner_anon = LocalSuppression::default();
    let token = CancelToken::new();
    let risk = FaultyRisk::new(&inner_risk).cancel_after(2, token.clone());
    let anon = FaultyAnonymizer::new(&inner_anon);
    let config = CycleConfig {
        threshold: THRESHOLD,
        ..CycleConfig::default()
    };
    let outcome = AnonymizationCycle::new(&risk, &anon, config)
        .with_cancel(token)
        .run(&survey.db, &survey.dict)
        .expect("cancelled run degrades");
    assert_eq!(
        outcome.termination,
        CycleTermination::Degraded {
            trigger: DegradeTrigger::Cancelled
        }
    );
    assert!(outcome.nulls_injected > 0, "partial work preserved");
    assert_eq!(outcome.final_risky, 0);
}
