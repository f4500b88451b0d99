//! A builder-style facade over the full Vada-SA pipeline.
//!
//! The individual pieces — dictionary, categorizer, risk measures,
//! anonymizers, cycle — compose freely, but the common RDC path is always
//! the same: *ingest, categorize, screen, anonymize, summarize*. The
//! [`Vadasa`] builder wires that path with sensible defaults so the
//! adopting analyst writes five lines: k-anonymity and local suppression
//! under a [`CycleConfig`]. Other measures, anonymizers and hand-made
//! dictionaries run through [`AnonymizationCycle`] directly.
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
//! let release = Vadasa::new().k_anonymity(2).run(&db).unwrap();
//! assert_eq!(release.outcome.final_risky, 0);
//! println!("{}", release.summary);
//! ```

use crate::categorize::{Categorizer, ExperienceBase};
use crate::cycle::{check_size, AnonymizationCycle, CycleConfig, CycleError, CycleOutcome};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::prelude::{KAnonymity, LocalSuppression, MicrodataView, RiskMeasure};
use crate::report::render_summary;
use std::fmt;
use std::sync::Arc;
use vadasa_obs::metrics::MetricsRegistry;
use vadasa_obs::Collector;

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
                "attributes could not be categorized automatically: {attrs:?}; categorize them in a MetadataDictionary and run AnonymizationCycle with it"
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
    /// The dictionary used (inferred).
    pub dict: MetadataDictionary,
    /// Rendered confidentiality summary of the *released* table.
    pub summary: String,
}

/// Builder for the standard Vada-SA path.
pub struct Vadasa {
    k: usize,
    config: CycleConfig,
    collector: Option<Arc<dyn Collector>>,
    metrics: Option<Arc<MetricsRegistry>>,
    resume: bool,
}

impl Default for Vadasa {
    fn default() -> Self {
        Vadasa {
            k: 2,
            config: CycleConfig::default(),
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
        self.k = k;
        self
    }

    /// Full cycle configuration: threshold, heuristics, semantics,
    /// granularity, deadline, fallback and journal.
    pub fn cycle_config(mut self, config: CycleConfig) -> Self {
        self.config = config;
        self
    }

    /// Resume the journal configured in
    /// [`CycleConfig::journal`](crate::cycle::CycleConfig::journal)
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

    /// Run the pipeline: categorize with the financial experience base
    /// (similarity 0.6), anonymize to the threshold, and summarize the
    /// released table (its 5 most exposed tuples).
    ///
    /// A `k` below 1 protects nothing (`k = 0` would run as 1), so it is
    /// refused with [`CycleError::Invalid`] before anything runs, as a
    /// threshold outside [0, 1] is.
    pub fn run(self, db: &MicrodataDb) -> Result<Release, PipelineError> {
        check_size("k", self.k as f64)
            .map_err(|why| PipelineError::Cycle(CycleError::Invalid(why)))?;
        // --- categorize ---
        let mut dict = MetadataDictionary::new();
        for attr in db.attributes() {
            dict.register_attr(&db.name, attr, "");
        }
        let mut categorizer = Categorizer::new(ExperienceBase::financial_defaults());
        categorizer.threshold = 0.6;
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

        // --- anonymize ---
        let measure = KAnonymity::new(self.k);
        let anonymizer = LocalSuppression::default();
        let mut cycle = AnonymizationCycle::new(&measure, &anonymizer, self.config.clone());
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
        let view = MicrodataView::from_db_with(&outcome.db, &dict, self.config.semantics, None)
            .map_err(PipelineError::Risk)?;
        let report = measure.evaluate(&view).map_err(PipelineError::Risk)?;
        let summary = render_summary(&view, &report, self.config.threshold, 5);

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
    use crate::journal::JournalConfig;
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

    /// A journal configuration in an otherwise default cycle.
    fn journal_at(dir: &std::path::Path, threshold: f64) -> CycleConfig {
        CycleConfig {
            threshold,
            journal: Some(JournalConfig::new(dir)),
            ..CycleConfig::default()
        }
    }

    #[test]
    fn journaled_pipeline_runs_and_resumes() {
        let dir = std::env::temp_dir().join(format!("vadasa-pipeline-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = survey();

        let journaled = Vadasa::new()
            .cycle_config(journal_at(&dir, 0.5))
            .run(&db)
            .unwrap();
        assert!(journaled.outcome.profile.journal.records_written > 0);
        assert!(dir.join(crate::journal::JOURNAL_FILE).exists());

        // The completed journal resumes to the same release.
        let resumed = Vadasa::new()
            .cycle_config(journal_at(&dir, 0.5))
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
                .cycle_config(journal_at(&dir, t))
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
        let one = CycleConfig {
            threshold: 1.0,
            ..CycleConfig::default()
        };
        assert!(Vadasa::new().cycle_config(one).run(&survey()).is_ok());
    }

    #[test]
    fn a_size_that_protects_nothing_is_refused() {
        // k = 0 would run as k = 1 and release the input unchanged.
        let dir = std::env::temp_dir().join(format!("vadasa-pipeline-k0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let refused = Vadasa::new()
            .k_anonymity(0)
            .cycle_config(journal_at(&dir, 0.5))
            .run(&survey());
        let want = check_size("k", 0.0);
        assert!(
            matches!(&refused, Err(PipelineError::Cycle(CycleError::Invalid(why))) if want == Err(why.clone())),
            "k = 0: expected {want:?}, got {refused:?}"
        );
        assert!(!dir.exists(), "k = 0: a journal directory was created");
        assert!(Vadasa::new().k_anonymity(1).run(&survey()).is_ok());
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
}
