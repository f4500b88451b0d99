//! # vadasa-core — reasoning-based statistical disclosure control
//!
//! A from-scratch Rust reproduction of **Vada-SA** (*Financial Data
//! Exchange with Statistical Confidentiality: A Reasoning-based Approach*,
//! Bellomarini, Blasi, Laurendi, Sallinger — EDBT 2021): the statistical
//! disclosure control (SDC) framework operated at the Bank of Italy's
//! Research Data Center.
//!
//! The crate provides the paper's full pipeline:
//!
//! 1. **Metadata dictionary** ([`dictionary`]) — microdata DBs and their
//!    attributes, categorized as identifier / quasi-identifier /
//!    non-identifying / weight; the key to schema independence.
//! 2. **Attribute categorization** ([`categorize`]) — Algorithm 1: borrow
//!    categories from an experience base via pluggable similarities, with
//!    recursive feedback and EGD-style conflict detection.
//! 3. **Risk measures** ([`risk`]) — Algorithms 3–6: re-identification
//!    risk, k-anonymity, Benedetti–Franconi individual risk, and SUDA
//!    (minimal sample uniques).
//! 4. **Anonymization** ([`anonymize`]) — Algorithms 7–8: local
//!    suppression with labelled nulls and global recoding over domain
//!    hierarchies, compared under the **maybe-match** null semantics
//!    ([`maybe_match`]).
//! 5. **The anonymization cycle** ([`cycle`]) — Algorithm 2: iterate risk
//!    evaluation and minimal anonymization steps until the threshold `T`
//!    holds, guided by runtime heuristics (§4.4) and fully audited
//!    ([`explain`]).
//! 6. **Business knowledge** ([`business`]) — Algorithm 9: company-control
//!    closure over ownership graphs and cluster-level risk propagation
//!    `1 − ∏(1 − ρ)`.
//! 7. **Declarative encodings** ([`programs`]) — the paper's rule listings
//!    as runnable programs for the [`vadalog`] engine, equivalence-tested
//!    against the native implementations.
//!
//! ## Quick start
//!
//! ```
//! use vadasa_core::prelude::*;
//! use vadalog::Value;
//!
//! // a tiny microdata DB
//! let mut db = MicrodataDb::new("survey", ["id", "area", "sector", "w"]).unwrap();
//! db.push_row(vec![Value::Int(1), Value::str("North"), Value::str("Textiles"), Value::Int(60)]).unwrap();
//! db.push_row(vec![Value::Int(2), Value::str("North"), Value::str("Commerce"), Value::Int(90)]).unwrap();
//! db.push_row(vec![Value::Int(3), Value::str("North"), Value::str("Commerce"), Value::Int(90)]).unwrap();
//!
//! // categorize attributes
//! let mut dict = MetadataDictionary::new();
//! for a in ["id", "area", "sector", "w"] { dict.register_attr("survey", a, ""); }
//! dict.set_category("survey", "id", Category::Identifier).unwrap();
//! dict.set_category("survey", "area", Category::QuasiIdentifier).unwrap();
//! dict.set_category("survey", "sector", Category::QuasiIdentifier).unwrap();
//! dict.set_category("survey", "w", Category::Weight).unwrap();
//!
//! // anonymize to 2-anonymity with local suppression
//! let risk = KAnonymity::new(2);
//! let anonymizer = LocalSuppression::default();
//! let cycle = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default());
//! let outcome = cycle.run(&db, &dict).unwrap();
//! assert_eq!(outcome.final_risky, 0);
//! ```

#![warn(missing_docs)]

pub mod anonymize;
pub mod business;
pub mod categorize;
pub mod checkpoint;
pub mod colstore;
pub mod columnar;
pub mod cycle;
pub mod degrade;
pub mod dictionary;
pub mod explain;
pub mod faults;
pub mod io;
pub mod journal;
pub mod maybe_match;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod programs;
pub mod progress;
pub mod report;
pub mod risk;
pub mod weights;

/// The telemetry substrate (re-exported): collectors, spans, counters.
pub use vadasa_obs as obs;

/// Convenient glob import of the most-used types.
pub mod prelude {
    pub use crate::anonymize::{
        AnonymizationAction, Anonymizer, AttributeOrder, DomainHierarchy, GlobalRecoding,
        HybridAnonymizer, LocalSuppression,
    };
    pub use crate::business::{ClusterMap, ClusterRisk, OwnershipGraph};
    pub use crate::categorize::{Categorizer, ExperienceBase};
    pub use crate::cycle::{
        AnonymizationCycle, BatchStrategy, CycleConfig, CycleOutcome, CycleProfile,
        CycleTermination, IterationRecord, StepGranularity, StorageOptions, TupleOrder,
        WarmCycleProfile,
    };
    pub use crate::degrade::{
        suppress_all_risky, DegradeSummary, DegradeTrigger, FallbackPolicy, FallbackRecord,
    };
    pub use crate::dictionary::{Category, MetadataDictionary};
    pub use crate::explain::{AuditLog, Decision};
    pub use crate::journal::{
        IoErrorPolicy, JournalConfig, JournalError, JournalProfile, SyncPolicy,
    };
    pub use crate::maybe_match::NullSemantics;
    pub use crate::model::MicrodataDb;
    pub use crate::progress::ProgressEstimate;
    pub use crate::risk::{
        IndividualRisk, IrEstimator, KAnonymity, MicrodataView, PresenceRisk, ReIdentification,
        RiskMeasure, RiskReport, Suda,
    };
}
