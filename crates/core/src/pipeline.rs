//! A builder-style facade over the full Vada-SA pipeline.
//!
//! The individual pieces — dictionary, categorizer, risk measures,
//! anonymizers, cycle — compose freely, but the common RDC path is always
//! the same: *ingest, categorize, screen, anonymize, summarize*. The
//! [`Vadasa`] builder wires that path with sensible defaults so the
//! adopting analyst writes five lines, while every knob stays reachable.
//!
//! ```
//! use vadasa_core::pipeline::Vadasa;
//! use vadasa_core::prelude::*;
//! use vadalog::Value;
//!
//! let mut db = MicrodataDb::new("s", ["id", "area", "weight"]).unwrap();
//! db.push_row(vec![Value::Int(1), Value::str("North"), Value::Int(9)]).unwrap();
//! db.push_row(vec![Value::Int(2), Value::str("North"), Value::Int(9)]).unwrap();
//! db.push_row(vec![Value::Int(3), Value::str("Lilliput"), Value::Int(2)]).unwrap();
//!
//! let release = Vadasa::new()
//!     .k_anonymity(2)
//!     .threshold(0.5)
//!     .run(&db)
//!     .unwrap();
//! assert_eq!(release.outcome.final_risky, 0);
//! println!("{}", release.summary);
//! ```

use crate::categorize::{Categorizer, ExperienceBase};
use crate::cycle::{AnonymizationCycle, CycleConfig, CycleError, CycleOutcome};
use crate::degrade::FallbackPolicy;
use crate::dictionary::MetadataDictionary;
use crate::journal::JournalConfig;
use crate::model::MicrodataDb;
use crate::prelude::{
    Anonymizer, IndividualRisk, IrEstimator, KAnonymity, LocalSuppression, MicrodataView,
    ReIdentification, RiskMeasure, Suda,
};
use crate::report::render_summary;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use vadasa_obs::metrics::MetricsRegistry;
use vadasa_obs::Collector;

/// Which off-the-shelf risk measure the facade should use.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MeasureChoice {
    KAnonymity(usize),
    ReIdentification,
    IndividualRisk(IrEstimator),
    Suda(usize),
}

/// Facade errors.
#[derive(Debug)]
pub enum PipelineError {
    /// Attribute categorization left gaps the cycle cannot work with.
    Uncategorized(Vec<String>),
    /// The cycle failed.
    Cycle(CycleError),
    /// Dictionary access failed.
    Dictionary(crate::dictionary::DictionaryError),
    /// Risk evaluation failed.
    Risk(crate::risk::RiskError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Uncategorized(attrs) => write!(
                f,
                "attributes could not be categorized automatically: {attrs:?}; extend the experience base or categorize them manually"
            ),
            PipelineError::Cycle(e) => write!(f, "{e}"),
            PipelineError::Dictionary(e) => write!(f, "{e}"),
            PipelineError::Risk(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The facade's result: the anonymized table plus everything an RDC
/// archive wants next to it.
#[derive(Debug)]
pub struct Release {
    /// Cycle outcome (anonymized DB, audit trail, metrics).
    pub outcome: CycleOutcome,
    /// The dictionary used (inferred + overrides).
    pub dict: MetadataDictionary,
    /// Rendered confidentiality summary of the *released* table.
    pub summary: String,
}

/// Builder for the standard Vada-SA path.
pub struct Vadasa {
    measure: MeasureChoice,
    config: CycleConfig,
    experience: ExperienceBase,
    similarity_threshold: f64,
    dictionary: Option<MetadataDictionary>,
    summary_top_n: usize,
    collector: Option<Arc<dyn Collector>>,
    metrics: Option<Arc<MetricsRegistry>>,
    resume: bool,
}

impl Default for Vadasa {
    fn default() -> Self {
        Vadasa {
            measure: MeasureChoice::KAnonymity(2),
            config: CycleConfig::default(),
            experience: ExperienceBase::financial_defaults(),
            similarity_threshold: 0.6,
            dictionary: None,
            summary_top_n: 5,
            collector: None,
            metrics: None,
            resume: false,
        }
    }
}

impl Vadasa {
    /// A pipeline with the defaults: 2-anonymity, `T = 0.5`, local
    /// suppression, financial experience base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Screen with k-anonymity.
    pub fn k_anonymity(mut self, k: usize) -> Self {
        self.measure = MeasureChoice::KAnonymity(k);
        self
    }

    /// Screen with re-identification risk.
    pub fn re_identification(mut self) -> Self {
        self.measure = MeasureChoice::ReIdentification;
        self
    }

    /// Screen with Benedetti–Franconi individual risk.
    pub fn individual_risk(mut self, estimator: IrEstimator) -> Self {
        self.measure = MeasureChoice::IndividualRisk(estimator);
        self
    }

    /// Screen with SUDA (MSU threshold).
    pub fn suda(mut self, msu_threshold: usize) -> Self {
        self.measure = MeasureChoice::Suda(msu_threshold);
        self
    }

    /// Risk threshold `T`.
    pub fn threshold(mut self, t: f64) -> Self {
        self.config.threshold = t;
        self
    }

    /// Full cycle configuration (heuristics, semantics, granularity).
    pub fn cycle_config(mut self, config: CycleConfig) -> Self {
        self.config = config;
        self
    }

    /// Extend the categorization experience base.
    pub fn experience(mut self, experience: ExperienceBase) -> Self {
        self.experience = experience;
        self
    }

    /// Minimum similarity for Algorithm 1 to borrow a category.
    pub fn similarity_threshold(mut self, threshold: f64) -> Self {
        self.similarity_threshold = threshold;
        self
    }

    /// Skip automatic categorization and use this dictionary as-is.
    pub fn with_dictionary(mut self, dict: MetadataDictionary) -> Self {
        self.dictionary = Some(dict);
        self
    }

    /// How many exposed tuples the summary lists.
    pub fn summary_top_n(mut self, n: usize) -> Self {
        self.summary_top_n = n;
        self
    }

    /// Wall-clock deadline for the anonymization cycle. When it expires
    /// the cycle degrades per the [`fallback`](Self::fallback) policy
    /// instead of running on.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// What to do when the cycle cannot converge normally (cap, deadline,
    /// cancellation, plug-in panic). The default,
    /// [`FallbackPolicy::SuppressRisky`], degrades gracefully and still
    /// honours the risk bound.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.config.fallback = policy;
        self
    }

    /// Journal the anonymization cycle into `config.dir`, making an
    /// interrupted run recoverable with [`resume`](Self::resume). See
    /// [`CycleConfig::journal`].
    pub fn journal(mut self, config: JournalConfig) -> Self {
        self.config.journal = Some(config);
        self
    }

    /// Resume the journal configured via [`journal`](Self::journal)
    /// instead of starting fresh: committed work is replayed and the
    /// cycle continues, bit-identical to a run that was never
    /// interrupted. Without a journal configuration, `run` fails with
    /// [`JournalError::NotConfigured`](crate::journal::JournalError).
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Attach a telemetry collector: the anonymization cycle's
    /// per-iteration profile is replayed into it (see
    /// [`CycleProfile::emit`](crate::cycle::CycleProfile::emit)), and the
    /// same records ride on `Release::outcome.profile`.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Attach a live metrics registry: the cycle publishes its current
    /// iteration, rows-at-risk, risk statistics and convergence estimate
    /// into it after every risk evaluation, so another thread (or a
    /// monitoring endpoint) can snapshot mid-run state.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Run the pipeline: categorize (unless a dictionary was supplied),
    /// anonymize to the threshold, and summarize the released table.
    pub fn run(self, db: &MicrodataDb) -> Result<Release, PipelineError> {
        // --- categorize ---
        let dict = match self.dictionary {
            Some(d) => d,
            None => {
                let mut dict = MetadataDictionary::new();
                for attr in db.attributes() {
                    dict.register_attr(&db.name, attr, "");
                }
                let mut categorizer = Categorizer::new(self.experience.clone());
                categorizer.threshold = self.similarity_threshold;
                categorizer
                    .categorize(&mut dict, &db.name)
                    .map_err(PipelineError::Dictionary)?;
                let missing: Vec<String> = dict
                    .attrs(&db.name)
                    .map_err(PipelineError::Dictionary)?
                    .iter()
                    .filter(|(_, m)| m.category.is_none())
                    .map(|(a, _)| a.clone())
                    .collect();
                if !missing.is_empty() {
                    return Err(PipelineError::Uncategorized(missing));
                }
                dict
            }
        };

        // --- anonymize ---
        let measure: Box<dyn RiskMeasure> = match self.measure {
            MeasureChoice::KAnonymity(k) => Box::new(KAnonymity::new(k)),
            MeasureChoice::ReIdentification => Box::new(ReIdentification),
            MeasureChoice::IndividualRisk(est) => Box::new(IndividualRisk::new(est)),
            MeasureChoice::Suda(t) => Box::new(Suda::new(t)),
        };
        let anonymizer: Box<dyn Anonymizer> = Box::new(LocalSuppression::default());
        let mut cycle =
            AnonymizationCycle::new(measure.as_ref(), anonymizer.as_ref(), self.config.clone());
        if let Some(collector) = self.collector {
            cycle = cycle.with_collector(collector);
        }
        if let Some(metrics) = self.metrics {
            cycle = cycle.with_metrics(metrics);
        }
        let outcome = if self.resume {
            cycle.resume(db, &dict)
        } else {
            cycle.run(db, &dict)
        }
        .map_err(PipelineError::Cycle)?;

        // --- summarize the released table ---
        // The summary re-evaluates the measure on the released table; a
        // plug-in that panicked during the cycle would panic again here,
        // so fall back to the cycle's own (fail-closed) final report.
        let view = MicrodataView::from_db_with(&outcome.db, &dict, self.config.semantics, None)
            .map_err(PipelineError::Risk)?;
        let report = match catch_unwind(AssertUnwindSafe(|| measure.evaluate(&view))) {
            Ok(r) => r.map_err(PipelineError::Risk)?,
            Err(_) => outcome.final_report.clone(),
        };
        let summary = render_summary(&view, &report, self.config.threshold, self.summary_top_n);

        Ok(Release {
            outcome,
            dict,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;
    use vadalog::Value;

    fn survey() -> MicrodataDb {
        let mut db = MicrodataDb::new("survey", ["id", "area", "sector", "weight"]).unwrap();
        let rows = [
            (1, "North", "Commerce", 90),
            (2, "North", "Commerce", 90),
            (3, "North", "Energy", 3),
            (4, "South", "Commerce", 80),
            (5, "South", "Commerce", 80),
        ];
        for (id, a, s, w) in rows {
            db.push_row(vec![
                Value::Int(id),
                Value::str(a),
                Value::str(s),
                Value::Int(w),
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn defaults_run_end_to_end() {
        let release = Vadasa::new().run(&survey()).unwrap();
        assert_eq!(release.outcome.final_risky, 0);
        assert!(release.outcome.nulls_injected >= 1);
        assert!(release.summary.contains("confidentiality summary"));
        // the inferred dictionary recovered the roles
        assert_eq!(
            release.dict.category("survey", "id").unwrap(),
            Some(Category::Identifier)
        );
        assert_eq!(release.dict.weight_attr("survey").unwrap(), "weight");
    }

    #[test]
    fn measures_are_selectable() {
        for build in [
            Vadasa::new().re_identification().threshold(0.2),
            Vadasa::new().suda(3),
            Vadasa::new().individual_risk(IrEstimator::PosteriorMean),
            Vadasa::new().k_anonymity(3),
        ] {
            let release = build.run(&survey()).unwrap();
            assert_eq!(release.outcome.final_risky, 0);
        }
    }

    #[test]
    fn journaled_pipeline_runs_and_resumes() {
        let dir = std::env::temp_dir().join(format!("vadasa-pipeline-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = survey();

        let journaled = Vadasa::new()
            .journal(JournalConfig::new(&dir))
            .run(&db)
            .unwrap();
        assert!(journaled.outcome.profile.journal.records_written > 0);
        assert!(dir.join(crate::journal::JOURNAL_FILE).exists());

        // The completed journal resumes to the same release.
        let resumed = Vadasa::new()
            .journal(JournalConfig::new(&dir))
            .resume()
            .run(&db)
            .unwrap();
        assert_eq!(
            resumed.outcome.nulls_injected,
            journaled.outcome.nulls_injected
        );
        assert_eq!(resumed.outcome.iterations, journaled.outcome.iterations);
        assert_eq!(resumed.summary, journaled.summary);

        // Resuming without a journal configuration is a structured error.
        match Vadasa::new().resume().run(&db) {
            Err(PipelineError::Cycle(CycleError::Journal(
                crate::journal::JournalError::NotConfigured,
            ))) => {}
            other => panic!("expected NotConfigured, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_threshold_that_protects_nothing_is_refused() {
        // NaN marks no tuple risky, and neither does a threshold above 1:
        // both would release the input unchanged.
        let dir = std::env::temp_dir().join(format!("vadasa-pipeline-nan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.1] {
            let refused = Vadasa::new()
                .threshold(t)
                .journal(JournalConfig::new(&dir))
                .run(&survey());
            match refused {
                Err(PipelineError::Cycle(CycleError::Invalid(why))) => {
                    assert_eq!(Err(why), crate::cycle::check_threshold(t))
                }
                other => panic!("threshold {t}: expected a refusal, got {other:?}"),
            }
            assert!(
                !dir.exists(),
                "threshold {t}: a journal directory was created"
            );
        }
        assert!(Vadasa::new().threshold(1.0).run(&survey()).is_ok());
    }

    #[test]
    fn unknown_attributes_are_reported() {
        let mut db = MicrodataDb::new("weird", ["zzxyqf"]).unwrap();
        db.push_row(vec![Value::str("?")]).unwrap();
        match Vadasa::new().run(&db) {
            Err(PipelineError::Uncategorized(attrs)) => {
                assert_eq!(attrs, vec!["zzxyqf".to_string()])
            }
            other => panic!("expected Uncategorized, got {other:?}"),
        }
    }

    #[test]
    fn explicit_dictionary_skips_categorization() {
        let db = survey();
        let mut dict = MetadataDictionary::new();
        for a in ["id", "area", "sector", "weight"] {
            dict.register_attr("survey", a, "");
        }
        dict.set_category("survey", "id", Category::Identifier)
            .unwrap();
        dict.set_category("survey", "area", Category::QuasiIdentifier)
            .unwrap();
        // deliberately exclude sector from the QIs
        dict.set_category("survey", "sector", Category::NonIdentifying)
            .unwrap();
        dict.set_category("survey", "weight", Category::Weight)
            .unwrap();
        let release = Vadasa::new().with_dictionary(dict).run(&db).unwrap();
        // on area alone everything is ≥ 2-anonymous: nothing to do
        assert_eq!(release.outcome.nulls_injected, 0);
    }
}
