//! Graceful degradation: the safety-first fallback of the anonymization
//! cycle.
//!
//! The cycle's contract is *"always hand back a dataset whose per-tuple
//! disclosure risk is at or below `T`"*. When the normal iterate-and-refine
//! loop cannot finish — iteration cap, wall-clock deadline, cooperative
//! cancellation, or a panicking plug-in — Vada-SA must degrade **into more
//! suppression, never less**: trading utility for a guaranteed risk bound
//! beats aborting with the data unprotected.
//!
//! [`suppress_all_risky`] implements that fallback: it local-suppresses
//! *every* quasi-identifier of *every* still-risky tuple with fresh
//! labelled nulls, re-evaluates, and repeats until no tuple exceeds the
//! threshold or nothing suppressible remains. Under the maybe-match null
//! semantics a fully-suppressed tuple matches everything, so its
//! equivalence group is maximal and its risk minimal — the fallback
//! converges. Under [`NullSemantics::Standard`] fresh nulls only equal
//! their own label, so a fully-suppressed singleton can stay "risky" by
//! the letter of the measure; the fallback then reports the residual
//! honestly instead of looping. The loop runs on one view of the table,
//! patched after each suppression: [`suppress_all_risky`] builds it, and
//! the cycle passes its own live view (and, at the iteration cap, the
//! evaluation the cap fired on) instead.
//!
//! The function is deliberately *total*: it returns a [`DegradeSummary`]
//! in every case and converts internal failures (a risk measure that
//! panics even during the fallback, a view that cannot be built) into
//! **fail-closed** behaviour — suppress everything in sight and report
//! `final_report: None` so the caller knows the risk bound could not be
//! re-verified.

use crate::anonymize::AnonymizationAction;
use crate::dictionary::MetadataDictionary;
use crate::explain::{AuditLog, Decision};
use crate::maybe_match::NullSemantics;
use crate::model::MicrodataDb;
use crate::risk::{MicrodataView, RiskMeasure, RiskReport};
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the cycle does when it cannot converge normally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Degrade gracefully: run [`suppress_all_risky`] and return a
    /// [`CycleOutcome`](crate::cycle::CycleOutcome) with the fallback
    /// recorded. The SDC-safe default.
    #[default]
    SuppressRisky,
    /// Preserve the historical behaviour: fail with
    /// [`CycleError::DidNotConverge`](crate::cycle::CycleError) (or the
    /// underlying error) and no released dataset.
    Error,
}

/// Why the cycle degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// The cycle's iteration cap was reached before convergence.
    IterationCap,
    /// The wall-clock deadline expired.
    Deadline,
    /// A [`CancelToken`](vadalog::CancelToken) fired.
    Cancelled,
    /// A plug-in (risk measure or anonymizer) panicked mid-cycle.
    PluginPanic {
        /// Which plug-in panicked (measure / anonymizer name).
        plugin: String,
        /// The rendered panic payload.
        message: String,
    },
    /// An anonymizer step changed nothing: it suppressed a cell that
    /// already held a labelled null, or recoded a value to itself. The
    /// tuple would stay as risky as before, so the loop would repeat the
    /// step until the iteration cap.
    NoProgress {
        /// The anonymizer's name.
        plugin: String,
        /// The row and the step, rendered.
        message: String,
    },
}

impl fmt::Display for DegradeTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeTrigger::IterationCap => write!(f, "iteration cap"),
            DegradeTrigger::Deadline => write!(f, "deadline expired"),
            DegradeTrigger::Cancelled => write!(f, "cancelled"),
            DegradeTrigger::PluginPanic { plugin, message } => {
                write!(f, "plug-in {plugin} panicked: {message}")
            }
            DegradeTrigger::NoProgress { plugin, message } => {
                write!(f, "plug-in {plugin} made no progress: {message}")
            }
        }
    }
}

/// First-class record of a degradation event, carried on
/// [`CycleProfile`](crate::cycle::CycleProfile) and replayed to telemetry
/// collectors as a `cycle.fallback` counter event.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackRecord {
    /// What forced the fallback.
    pub trigger: DegradeTrigger,
    /// Suppress-and-reverify passes the fallback performed.
    pub passes: usize,
    /// Distinct rows whose quasi-identifiers were suppressed.
    pub rows_suppressed: usize,
    /// Quasi-identifier cells replaced with fresh labelled nulls.
    pub cells_suppressed: usize,
    /// Tuples still above the threshold after the fallback (non-zero only
    /// when nothing suppressible remained, e.g. under
    /// [`NullSemantics::Standard`]).
    pub residual_risky: usize,
}

/// What [`suppress_all_risky`] did and verified.
#[derive(Debug, Default)]
pub struct DegradeSummary {
    /// Suppress-and-reverify passes performed.
    pub passes: usize,
    /// Distinct rows whose quasi-identifiers were suppressed.
    pub rows_suppressed: usize,
    /// Quasi-identifier cells replaced with fresh labelled nulls.
    pub cells_suppressed: usize,
    /// Tuples still above the threshold at the end (see
    /// [`FallbackRecord::residual_risky`]).
    pub residual_risky: usize,
    /// The re-verification risk report over the suppressed table. `None`
    /// when the measure could not be (re-)evaluated — the fail-closed
    /// path: the caller must treat every tuple as risky.
    pub final_report: Option<RiskReport>,
}

/// One fallback run's bookkeeping: the columns it suppresses, the audit
/// log it records into, and the summary it builds.
struct Fallback<'a> {
    qis: Vec<String>,
    measure: String,
    threshold: f64,
    audit: Option<(&'a mut AuditLog, usize)>,
    touched: HashSet<usize>,
    summary: DegradeSummary,
}

impl<'a> Fallback<'a> {
    fn new(
        qis: Vec<String>,
        risk: &dyn RiskMeasure,
        threshold: f64,
        audit: Option<(&'a mut AuditLog, usize)>,
    ) -> Self {
        Fallback {
            qis,
            measure: risk.name().to_string(),
            threshold,
            audit,
            touched: HashSet::new(),
            summary: DegradeSummary::default(),
        }
    }

    /// Suppress every non-null quasi-identifier cell of `row` in `db` and
    /// in the view kept in step with it, if any, recording each
    /// suppression as an audited decision when a log is provided. Returns
    /// the number of cells suppressed.
    fn suppress_row(
        &mut self,
        db: &mut MicrodataDb,
        mut view: Option<&mut MicrodataView>,
        row: usize,
        risk_score: f64,
    ) -> usize {
        let mut cells = 0usize;
        for (col, attr) in self.qis.iter().enumerate() {
            let previous = match db.value(row, attr) {
                Ok(v) if !v.is_null() => v.clone(),
                _ => continue,
            };
            let null = db.fresh_null();
            if db.set_value(row, attr, null.clone()).is_err() {
                continue;
            }
            if let Some(view) = view.as_deref_mut() {
                view.patch_cell(row, col, &null, None);
            }
            cells += 1;
            if let Some((log, iteration)) = self.audit.as_mut() {
                log.record(Decision {
                    iteration: *iteration,
                    row,
                    measure: self.measure.clone(),
                    risk: risk_score,
                    threshold: self.threshold,
                    action: AnonymizationAction::Suppress {
                        row,
                        attr: attr.clone(),
                        previous,
                    },
                });
            }
        }
        if cells > 0 {
            self.touched.insert(row);
            self.summary.cells_suppressed += cells;
        }
        cells
    }

    /// End with `report` as the verification and `residual` tuples still
    /// over the threshold.
    fn end(mut self, report: Option<RiskReport>, residual: usize) -> DegradeSummary {
        self.summary.rows_suppressed = self.touched.len();
        self.summary.residual_risky = residual;
        self.summary.final_report = report;
        self.summary
    }

    /// The fail-closed ending: the risk bound cannot be verified, so
    /// suppress every quasi-identifier cell of every row and report the
    /// whole table as unverified.
    fn fail_closed(
        mut self,
        db: &mut MicrodataDb,
        mut view: Option<&mut MicrodataView>,
    ) -> DegradeSummary {
        for row in 0..db.len() {
            self.suppress_row(db, view.as_deref_mut(), row, 1.0);
        }
        let rows = db.len();
        self.end(None, rows)
    }
}

/// The safety-first fallback: local-suppress every quasi-identifier of
/// every still-risky tuple until the threshold holds or nothing
/// suppressible remains.
///
/// Total by design — it never returns an error and never panics:
///
/// - a view that cannot be built, or a risk measure that fails or panics
///   during re-verification, triggers the **fail-closed** path (suppress
///   all quasi-identifier cells of all rows, return `final_report: None`);
/// - a row or cell that cannot be touched is skipped, not fatal;
/// - passes are bounded by the table size, so the loop always ends.
///
/// When `audit` is provided every suppression is recorded as a
/// [`Decision`] under the given iteration ordinal, keeping the fallback
/// as explainable as the normal cycle.
///
/// This builds the view of `db` and runs the fallback loop on it; the
/// cycle runs the same loop on its live view.
pub fn suppress_all_risky(
    db: &mut MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    threshold: f64,
    semantics: NullSemantics,
    audit: Option<(&mut AuditLog, usize)>,
) -> DegradeSummary {
    match MicrodataView::from_db_with(db, dict, semantics, None) {
        Ok(mut view) => suppress_risky_on(db, &mut view, risk, threshold, None, audit),
        Err(_) => {
            // Without a view no risk can be verified: fail closed, in one
            // pass when there is anything to suppress.
            let qis = dict.quasi_identifiers(&db.name).unwrap_or_default();
            let mut fallback = Fallback::new(qis, risk, threshold, audit);
            fallback.summary.passes = usize::from(!fallback.qis.is_empty());
            fallback.fail_closed(db, None)
        }
    }
}

/// The fallback loop of [`suppress_all_risky`] on `view`, which must be
/// in step with `db`: each suppression is patched into the view, and
/// each pass re-evaluates on it. `first`, when given, is a current
/// evaluation of `view` and stands in for the first pass's.
pub(crate) fn suppress_risky_on(
    db: &mut MicrodataDb,
    view: &mut MicrodataView,
    risk: &dyn RiskMeasure,
    threshold: f64,
    mut first: Option<RiskReport>,
    audit: Option<(&mut AuditLog, usize)>,
) -> DegradeSummary {
    let mut fallback = Fallback::new(view.qi_names.clone(), risk, threshold, audit);
    // Each pass fully suppresses the risky rows it sees, so `rows + 1`
    // passes suffice even if suppression exposes new risky rows (possible
    // under Standard semantics, where a null shrinks its old group).
    let max_passes = db.len() + 1;

    loop {
        fallback.summary.passes += 1;
        let Some(report) = first.take().or_else(|| evaluate_guarded(view, risk)) else {
            return fallback.fail_closed(db, Some(view));
        };

        let risky = report.risky_tuples(threshold);
        if risky.is_empty() {
            return fallback.end(Some(report), 0);
        }

        let mut suppressed_this_pass = 0usize;
        for &row in &risky {
            let score = report.risks.get(row).copied().unwrap_or(1.0);
            suppressed_this_pass += fallback.suppress_row(db, Some(view), row, score);
        }

        if suppressed_this_pass == 0 || fallback.summary.passes >= max_passes {
            // Nothing suppressible remains (every risky tuple is already
            // fully suppressed) — report the residual honestly.
            let residual = risky.len();
            return fallback.end(Some(report), residual);
        }
    }
}

/// Render a panic payload for humans: panics raised with a string literal
/// or a formatted message are shown verbatim, anything else generically.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluate `risk` over `view`, absorbing both errors and panics into
/// `None` (the fail-closed signal).
fn evaluate_guarded(view: &MicrodataView, risk: &dyn RiskMeasure) -> Option<RiskReport> {
    match catch_unwind(AssertUnwindSafe(|| risk.evaluate(view))) {
        Ok(Ok(report)) => Some(report),
        Ok(Err(_)) | Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;
    use crate::risk::{KAnonymity, RiskError};
    use vadalog::Value;

    fn risky_db() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("t", ["id", "a", "b", "w"]).unwrap();
        let rows = [
            (1, "x", "p", 5),
            (2, "x", "q", 5),
            (3, "y", "q", 5),
            (4, "y", "q", 5),
        ];
        for (id, a, b, w) in rows {
            db.push_row(vec![
                Value::Int(id),
                Value::str(a),
                Value::str(b),
                Value::Int(w),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["id", "a", "b", "w"] {
            dict.register_attr("t", a, "");
        }
        dict.set_category("t", "id", Category::Identifier).unwrap();
        dict.set_category("t", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("t", "b", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("t", "w", Category::Weight).unwrap();
        (db, dict)
    }

    #[test]
    fn fallback_reaches_threshold_under_maybe_match() {
        let (mut db, dict) = risky_db();
        let risk = KAnonymity::new(2);
        let summary =
            suppress_all_risky(&mut db, &dict, &risk, 0.5, NullSemantics::MaybeMatch, None);
        assert_eq!(summary.residual_risky, 0);
        assert!(summary.cells_suppressed >= 1);
        let report = summary.final_report.expect("verified");
        assert!(report.risky_tuples(0.5).is_empty());
    }

    #[test]
    fn fallback_is_audited() {
        let (mut db, dict) = risky_db();
        let risk = KAnonymity::new(2);
        let mut audit = AuditLog::default();
        let summary = suppress_all_risky(
            &mut db,
            &dict,
            &risk,
            0.5,
            NullSemantics::MaybeMatch,
            Some((&mut audit, 7)),
        );
        assert_eq!(audit.suppressions(), summary.cells_suppressed);
        assert!(audit.decisions.iter().all(|d| d.iteration == 7));
    }

    #[test]
    fn panicking_measure_fails_closed() {
        struct AlwaysPanics;
        impl RiskMeasure for AlwaysPanics {
            fn name(&self) -> &str {
                "always-panics"
            }
            fn evaluate(&self, _view: &MicrodataView) -> Result<RiskReport, RiskError> {
                panic!("injected"); // gate-allow: deliberate fault for the fail-closed test
            }
        }
        let (mut db, dict) = risky_db();
        let summary = suppress_all_risky(
            &mut db,
            &dict,
            &AlwaysPanics,
            0.5,
            NullSemantics::MaybeMatch,
            None,
        );
        // fail-closed: everything suppressed, nothing verified
        assert!(summary.final_report.is_none());
        assert_eq!(summary.residual_risky, db.len());
        for row in 0..db.len() {
            for attr in ["a", "b"] {
                assert!(db.value(row, attr).unwrap().is_null());
            }
        }
        // weights and identifiers untouched
        assert!(!db.value(0, "w").unwrap().is_null());
    }

    #[test]
    fn standard_semantics_reports_residual_honestly() {
        let (mut db, dict) = risky_db();
        let risk = KAnonymity::new(2);
        let summary = suppress_all_risky(&mut db, &dict, &risk, 0.5, NullSemantics::Standard, None);
        // under Standard semantics fresh nulls are unique labels, so the
        // suppressed singletons stay singletons: residual must be honest,
        // and the loop must have terminated regardless.
        assert!(summary.final_report.is_some());
        assert!(summary.passes <= db.len() + 1);
    }

    #[test]
    fn already_safe_table_is_left_alone() {
        let (mut db, dict) = risky_db();
        let risk = KAnonymity::new(1); // everything trivially safe
        let summary =
            suppress_all_risky(&mut db, &dict, &risk, 0.5, NullSemantics::MaybeMatch, None);
        assert_eq!(summary.cells_suppressed, 0);
        assert_eq!(summary.residual_risky, 0);
        assert_eq!(db.null_cells(&[]), 0);
    }
}
