//! What a job *is*: the [`JobSpec`] a client submits, its durable
//! manifest form (`job.json`), and the terminal-state marker
//! (`state.json`) the supervisor drops into a job directory when the job
//! reaches a state recovery must not resume past.
//!
//! The manifest is the unit of whole-fleet recovery: everything needed
//! to re-run the job bit-identically lives in it — the table as
//! canonical CSV (the importer/exporter round-trip is bit-exact,
//! including labelled nulls), the dictionary as attribute→category
//! pairs, the measure choice and every result-affecting cycle knob. The
//! journal fingerprint is a function of exactly these inputs, so a
//! recovered job resumes its own journal and nobody else's.
//!
//! [`ServerFault`]s deliberately do **not** serialize: a restarted
//! server re-runs recovered jobs clean, which is what a healed
//! transient fault looks like.

use std::path::Path;
use std::time::Duration;
use vadalog::backend::{write_atomic, FileIo, FileKind};
use vadalog::StorageEngine;
use vadasa_core::categorize::{Categorizer, ExperienceBase};
use vadasa_core::cycle::{BatchStrategy, CycleConfig, StepGranularity, StorageOptions, TupleOrder};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::faults::ServerFault;
use vadasa_core::io::{read_csv, write_csv};
use vadasa_core::journal::{SyncPolicy, JOURNAL_FILE};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::model::MicrodataDb;
use vadasa_core::obs::json::{self, Json};
use vadasa_core::prelude::{KAnonymity, ReIdentification, RiskMeasure, Suda};

/// File name of the job manifest inside a job directory.
pub const MANIFEST_FILE: &str = "job.json";
/// File name of the terminal-state marker inside a job directory.
pub const MARKER_FILE: &str = "state.json";
/// File name of the released table written next to a `done` marker.
pub const RELEASED_FILE: &str = "released.csv";

/// Spec/manifest errors — all structured, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong, human-readable.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(message: impl Into<String>) -> SpecError {
    SpecError {
        message: message.into(),
    }
}

/// Which risk measure the job screens with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureSpec {
    /// k-anonymity with the given `k`.
    KAnonymity(usize),
    /// Re-identification risk.
    ReIdentification,
    /// SUDA with the given MSU threshold.
    Suda(usize),
}

impl MeasureSpec {
    /// Instantiate the measure.
    pub fn build(&self) -> Box<dyn RiskMeasure> {
        match self {
            MeasureSpec::KAnonymity(k) => Box::new(KAnonymity::new(*k)),
            MeasureSpec::ReIdentification => Box::new(ReIdentification),
            MeasureSpec::Suda(t) => Box::new(Suda::new(*t)),
        }
    }

    fn to_json(self) -> Vec<(String, Json)> {
        match self {
            MeasureSpec::KAnonymity(k) => vec![
                ("measure".into(), Json::Str("k-anonymity".into())),
                ("k".into(), Json::Num(k as f64)),
            ],
            MeasureSpec::ReIdentification => {
                vec![("measure".into(), Json::Str("re-identification".into()))]
            }
            MeasureSpec::Suda(t) => vec![
                ("measure".into(), Json::Str("suda".into())),
                ("msu".into(), Json::Num(t as f64)),
            ],
        }
    }

    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let name = v
            .get("measure")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"measure\""))?;
        match name {
            "k-anonymity" => {
                let k = v.get("k").and_then(Json::as_f64).unwrap_or(2.0);
                Ok(MeasureSpec::KAnonymity(k as usize))
            }
            "re-identification" => Ok(MeasureSpec::ReIdentification),
            "suda" => {
                let t = v.get("msu").and_then(Json::as_f64).unwrap_or(2.0);
                Ok(MeasureSpec::Suda(t as usize))
            }
            other => Err(err(format!("unknown measure {other:?}"))),
        }
    }
}

/// A complete, self-contained job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Table name (`MicrodataDb::name`).
    pub name: String,
    /// The table as canonical CSV (see [`vadasa_core::io::write_csv`]).
    pub csv: String,
    /// `(attribute, category-name)` pairs, in attribute order.
    pub categories: Vec<(String, String)>,
    /// Risk measure to screen with.
    pub measure: MeasureSpec,
    /// Risk threshold `T`.
    pub threshold: f64,
    /// Tuple prioritization heuristic.
    pub tuple_order: TupleOrder,
    /// Iteration granularity.
    pub granularity: StepGranularity,
    /// Batched iteration heuristic (`None` = classic per-granularity
    /// stepping). Part of the journal fingerprint: recovery resumes a
    /// job under the exact strategy that wrote its journal.
    pub batch: Option<BatchStrategy>,
    /// Null semantics for risk-group formation.
    pub semantics: NullSemantics,
    /// Iteration cap for the cycle.
    pub max_iterations: usize,
    /// Per-job wall-clock deadline, enforced between cycle iterations.
    pub deadline: Option<Duration>,
    /// Journal durability policy.
    pub sync: SyncPolicy,
    /// Snapshot cadence (completed iterations per snapshot).
    pub snapshot_every: Option<u32>,
    /// Storage engine for persisted warm artifacts (`mem` keeps legacy
    /// in-memory behaviour; `file` persists warm group statistics beside
    /// the journal). Not part of the journal fingerprint — the backend
    /// decides where caches live, never what the cycle computes — but
    /// recovery refuses a manifest whose declared backend contradicts
    /// the artifacts actually on disk.
    pub storage: StorageEngine,
    /// Injected faults — testing only, never persisted.
    pub fault: ServerFault,
}

impl JobSpec {
    /// A spec over an explicit table + dictionary. Fails when the
    /// dictionary has no categories for the table (the cycle could not
    /// run) rather than at execution time.
    pub fn new(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        measure: MeasureSpec,
    ) -> Result<Self, SpecError> {
        let attrs = dict
            .attrs(&db.name)
            .map_err(|e| err(format!("dictionary has no table {:?}: {e}", db.name)))?;
        let mut categories = Vec::with_capacity(attrs.len());
        for (attr, meta) in attrs {
            let cat = meta
                .category
                .ok_or_else(|| err(format!("attribute {attr:?} is uncategorized")))?;
            categories.push((attr.clone(), cat.name().to_string()));
        }
        Ok(JobSpec {
            name: db.name.clone(),
            csv: write_csv(db),
            categories,
            measure,
            threshold: 0.5,
            tuple_order: TupleOrder::default(),
            granularity: StepGranularity::default(),
            batch: None,
            semantics: NullSemantics::default(),
            max_iterations: 10_000,
            deadline: None,
            sync: SyncPolicy::EveryRecord,
            snapshot_every: Some(16),
            storage: StorageEngine::Mem,
            fault: ServerFault::default(),
        })
    }

    /// A spec from raw CSV, categorizing attributes automatically with
    /// the financial experience base (the same path the [`Vadasa`]
    /// facade takes). Categorization gaps are a structured error — a
    /// config fault that must fail at admission, not at execution.
    ///
    /// [`Vadasa`]: vadasa_core::pipeline::Vadasa
    pub fn from_csv(name: &str, csv: &str, measure: MeasureSpec) -> Result<Self, SpecError> {
        let db = read_csv(name, csv).map_err(|e| err(format!("parsing csv: {e}")))?;
        let mut dict = MetadataDictionary::new();
        for attr in db.attributes() {
            dict.register_attr(&db.name, attr, "");
        }
        let mut categorizer = Categorizer::new(ExperienceBase::financial_defaults());
        categorizer
            .categorize(&mut dict, &db.name)
            .map_err(|e| err(format!("categorizing: {e}")))?;
        let attrs = dict
            .attrs(&db.name)
            .map_err(|e| err(format!("dictionary: {e}")))?;
        let missing: Vec<&String> = attrs
            .iter()
            .filter(|(_, m)| m.category.is_none())
            .map(|(a, _)| a)
            .collect();
        if !missing.is_empty() {
            return Err(err(format!(
                "attributes could not be categorized automatically: {missing:?}"
            )));
        }
        let mut spec = JobSpec::new(&db, &dict, measure)?;
        spec.csv = csv.to_string();
        Ok(spec)
    }

    /// Rebuild the table. (The CSV round-trip is bit-exact, so the
    /// journal fingerprint of the rebuilt table matches the original.)
    pub fn table(&self) -> Result<MicrodataDb, SpecError> {
        read_csv(&self.name, &self.csv).map_err(|e| err(format!("parsing manifest csv: {e}")))
    }

    /// Rebuild the dictionary from the category pairs.
    pub fn dictionary(&self) -> Result<MetadataDictionary, SpecError> {
        let mut dict = MetadataDictionary::new();
        for (attr, cat_name) in &self.categories {
            dict.register_attr(&self.name, attr, "");
            let cat = Category::from_name(cat_name)
                .ok_or_else(|| err(format!("unknown category {cat_name:?} for {attr:?}")))?;
            dict.set_category(&self.name, attr, cat)
                .map_err(|e| err(format!("setting category: {e}")))?;
        }
        Ok(dict)
    }

    /// The cycle configuration this spec pins (journal attached by the
    /// server per job directory).
    pub fn cycle_config(&self) -> CycleConfig {
        CycleConfig {
            threshold: self.threshold,
            tuple_order: self.tuple_order,
            granularity: self.granularity,
            batch: self.batch,
            semantics: self.semantics,
            max_iterations: self.max_iterations,
            deadline: self.deadline,
            storage: StorageOptions {
                engine: self.storage,
                ..StorageOptions::default()
            },
            ..CycleConfig::default()
        }
    }

    /// Rows in the table without a full parse (CSV data lines).
    pub fn row_count(&self) -> usize {
        self.csv.lines().count().saturating_sub(1)
    }

    /// Serialize to the manifest JSON object (faults excluded).
    pub fn to_manifest_json(&self) -> String {
        let mut members: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("csv".into(), Json::Str(self.csv.clone())),
            (
                "categories".into(),
                Json::Obj(
                    self.categories
                        .iter()
                        .map(|(a, c)| (a.clone(), Json::Str(c.clone())))
                        .collect(),
                ),
            ),
        ];
        members.extend(self.measure.to_json());
        members.push(("threshold".into(), Json::Num(self.threshold)));
        members.push((
            "tuple_order".into(),
            Json::Str(
                match self.tuple_order {
                    TupleOrder::LessSignificantFirst => "less-significant-first",
                    TupleOrder::MostRiskyFirst => "most-risky-first",
                    TupleOrder::Fifo => "fifo",
                }
                .into(),
            ),
        ));
        members.push((
            "granularity".into(),
            Json::Str(self.granularity.name().into()),
        ));
        members.push((
            "batch".into(),
            self.batch.map_or(Json::Null, |b| Json::Str(b.name())),
        ));
        members.push((
            "semantics".into(),
            Json::Str(
                match self.semantics {
                    NullSemantics::MaybeMatch => "maybe-match",
                    NullSemantics::Standard => "standard",
                }
                .into(),
            ),
        ));
        members.push((
            "max_iterations".into(),
            Json::Num(self.max_iterations as f64),
        ));
        members.push((
            "deadline_ms".into(),
            match self.deadline {
                Some(d) => Json::Num(d.as_millis() as f64),
                None => Json::Null,
            },
        ));
        let (sync_kind, sync_n) = match self.sync {
            SyncPolicy::EveryRecord => ("every-record", None),
            SyncPolicy::EveryN(n) => ("every-n", Some(n)),
            SyncPolicy::OnSnapshot => ("on-snapshot", None),
        };
        members.push(("sync".into(), Json::Str(sync_kind.into())));
        if let Some(n) = sync_n {
            members.push(("sync_n".into(), Json::Num(n as f64)));
        }
        members.push((
            "snapshot_every".into(),
            match self.snapshot_every {
                Some(n) => Json::Num(n as f64),
                None => Json::Null,
            },
        ));
        members.push(("storage".into(), Json::Str(self.storage.as_str().into())));
        Json::Obj(members).to_string()
    }

    /// Parse a manifest back into a spec.
    pub fn from_manifest_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(|e| err(format!("manifest json: {e}")))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"name\""))?
            .to_string();
        let csv = v
            .get("csv")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"csv\""))?
            .to_string();
        let categories = match v.get("categories") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(a, c)| {
                    c.as_str()
                        .map(|s| (a.clone(), s.to_string()))
                        .ok_or_else(|| err(format!("category of {a:?} is not a string")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(err("missing \"categories\" object")),
        };
        let measure = MeasureSpec::from_json(&v)?;
        let threshold = v.get("threshold").and_then(Json::as_f64).unwrap_or(0.5);
        // An absent field keeps its default, so older manifests load; a
        // name no version wrote is an alien manifest and is refused.
        let name_of = |field: &str| v.get(field).and_then(Json::as_str);
        let refuse = |what: &str, s: &str| err(format!("unknown {what} {s:?}"));
        let tuple_order = match name_of("tuple_order") {
            None | Some("less-significant-first") => TupleOrder::LessSignificantFirst,
            Some("most-risky-first") => TupleOrder::MostRiskyFirst,
            Some("fifo") => TupleOrder::Fifo,
            Some(s) => return Err(refuse("tuple order", s)),
        };
        let granularity = match name_of("granularity") {
            None => StepGranularity::default(),
            Some(s) => StepGranularity::parse(s).ok_or_else(|| refuse("granularity", s))?,
        };
        let batch = match name_of("batch") {
            None => None,
            Some(s) => Some(BatchStrategy::parse(s).ok_or_else(|| refuse("batch strategy", s))?),
        };
        let semantics = match name_of("semantics") {
            None | Some("maybe-match") => NullSemantics::MaybeMatch,
            Some("standard") => NullSemantics::Standard,
            Some(s) => return Err(refuse("null semantics", s)),
        };
        let max_iterations = v
            .get("max_iterations")
            .and_then(Json::as_f64)
            .unwrap_or(10_000.0) as usize;
        let deadline = v
            .get("deadline_ms")
            .and_then(Json::as_f64)
            .map(|ms| Duration::from_millis(ms as u64));
        let sync = match name_of("sync") {
            None | Some("every-record") => SyncPolicy::EveryRecord,
            Some("on-snapshot") => SyncPolicy::OnSnapshot,
            Some("every-n") => {
                let n = v.get("sync_n").and_then(Json::as_f64).unwrap_or(8.0);
                SyncPolicy::EveryN(n as u32)
            }
            Some(s) => return Err(refuse("sync policy", s)),
        };
        let snapshot_every = v
            .get("snapshot_every")
            .and_then(Json::as_f64)
            .map(|n| n as u32);
        // Older manifests predate the storage field: absent means the
        // historical in-memory engine.
        let storage = match name_of("storage") {
            None => StorageEngine::Mem,
            Some(s) => StorageEngine::parse(s).ok_or_else(|| refuse("storage engine", s))?,
        };
        Ok(JobSpec {
            name,
            csv,
            categories,
            measure,
            threshold,
            tuple_order,
            granularity,
            batch,
            semantics,
            max_iterations,
            deadline,
            sync,
            snapshot_every,
            storage,
            fault: ServerFault::default(),
        })
    }
}

/// Summary persisted in a `done` marker — the numbers a client polls
/// for after the fact, without re-reading the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkerSummary {
    /// Did the cycle converge (vs degrade)?
    pub converged: bool,
    /// Iterations performed.
    pub iterations: u64,
    /// Labelled nulls injected.
    pub nulls_injected: u64,
    /// Global recodings applied.
    pub recodings: u64,
    /// Tuples still above the threshold.
    pub final_risky: u64,
    /// Information loss of the released table.
    pub information_loss: f64,
}

/// The durable terminal-state marker: written atomically once a job
/// reaches a state fleet recovery must respect. `done`, `failed` and
/// `cancelled` are terminal; `interrupted` (checkpoint-and-stop
/// shutdown) marks a job recovery should resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Marker {
    /// `done` / `failed` / `cancelled` / `interrupted`.
    pub state: String,
    /// Attempts consumed when the marker was written.
    pub attempts: u64,
    /// Structured error for `failed` markers.
    pub error: Option<String>,
    /// Outcome summary for `done` markers.
    pub summary: Option<MarkerSummary>,
}

impl Marker {
    /// Serialize to the `state.json` object.
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Json)> = vec![
            ("state".into(), Json::Str(self.state.clone())),
            ("attempts".into(), Json::Num(self.attempts as f64)),
            (
                "error".into(),
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ];
        members.push((
            "summary".into(),
            match &self.summary {
                Some(s) => Json::Obj(vec![
                    ("converged".into(), Json::Bool(s.converged)),
                    ("iterations".into(), Json::Num(s.iterations as f64)),
                    ("nulls_injected".into(), Json::Num(s.nulls_injected as f64)),
                    ("recodings".into(), Json::Num(s.recodings as f64)),
                    ("final_risky".into(), Json::Num(s.final_risky as f64)),
                    ("information_loss".into(), Json::Num(s.information_loss)),
                ]),
                None => Json::Null,
            },
        ));
        Json::Obj(members).to_string()
    }

    /// Parse a `state.json` object.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(|e| err(format!("marker json: {e}")))?;
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .ok_or_else(|| err("marker missing \"state\""))?
            .to_string();
        let attempts = v.get("attempts").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let error = v.get("error").and_then(Json::as_str).map(|s| s.to_string());
        let summary = v.get("summary").and_then(|s| match s {
            Json::Obj(_) => Some(MarkerSummary {
                converged: matches!(s.get("converged"), Some(Json::Bool(true))),
                iterations: s.get("iterations").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                nulls_injected: s
                    .get("nulls_injected")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64,
                recodings: s.get("recodings").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                final_risky: s.get("final_risky").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                information_loss: s
                    .get("information_loss")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            }),
            _ => None,
        });
        Ok(Marker {
            state,
            attempts,
            error,
            summary,
        })
    }

    /// Write this marker durably into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        write_atomic(
            &FileIo,
            FileKind::Artifact,
            dir,
            MARKER_FILE,
            self.to_json().as_bytes(),
        )
    }

    /// Read the marker from `dir`, `Ok(None)` when absent.
    pub fn read(dir: &Path) -> Result<Option<Marker>, SpecError> {
        match std::fs::read_to_string(dir.join(MARKER_FILE)) {
            Ok(text) => Marker::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(err(format!("reading marker: {e}"))),
        }
    }
}

/// Does a journal file exist in this job directory?
pub fn has_journal(dir: &Path) -> bool {
    dir.join(JOURNAL_FILE).is_file()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::Value;

    fn spec() -> JobSpec {
        let mut db = MicrodataDb::new("survey", ["Id", "Area", "Weight"]).unwrap();
        db.push_row(vec![Value::Int(1), Value::str("North"), Value::Int(9)])
            .unwrap();
        db.push_row(vec![Value::Int(2), Value::str("South"), Value::Int(2)])
            .unwrap();
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Weight"] {
            dict.register_attr("survey", a, "");
        }
        dict.set_category("survey", "Id", Category::Identifier)
            .unwrap();
        dict.set_category("survey", "Area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("survey", "Weight", Category::Weight)
            .unwrap();
        JobSpec::new(&db, &dict, MeasureSpec::KAnonymity(2)).unwrap()
    }

    #[test]
    fn manifest_round_trips() {
        let mut s = spec();
        s.threshold = 0.25;
        s.tuple_order = TupleOrder::MostRiskyFirst;
        s.granularity = StepGranularity::OneTuplePerIteration;
        s.batch = Some(BatchStrategy::TopN(64));
        s.semantics = NullSemantics::Standard;
        s.max_iterations = 77;
        s.deadline = Some(Duration::from_millis(1500));
        s.sync = SyncPolicy::EveryN(8);
        s.snapshot_every = None;
        s.storage = StorageEngine::File;
        s.fault = ServerFault::none().transient_appends(1);
        let text = s.to_manifest_json();
        let back = JobSpec::from_manifest_json(&text).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.csv, s.csv);
        assert_eq!(back.categories, s.categories);
        assert_eq!(back.measure, s.measure);
        assert_eq!(back.threshold, s.threshold);
        assert_eq!(back.tuple_order, s.tuple_order);
        assert_eq!(back.granularity, s.granularity);
        assert_eq!(back.batch, s.batch);
        assert_eq!(back.semantics, s.semantics);
        assert_eq!(back.max_iterations, s.max_iterations);
        assert_eq!(back.deadline, s.deadline);
        assert_eq!(back.sync, s.sync);
        assert_eq!(back.snapshot_every, s.snapshot_every);
        assert_eq!(back.storage, StorageEngine::File);
        // faults never persist
        assert!(!back.fault.is_armed());
    }

    #[test]
    fn every_step_name_round_trips_and_aliens_are_refused() {
        use BatchStrategy::{OneTuple, PerClass, TopN};
        use StepGranularity::{AllRiskyPerIteration, OneTuplePerIteration};
        let orders = [
            TupleOrder::LessSignificantFirst,
            TupleOrder::MostRiskyFirst,
            TupleOrder::Fifo,
        ];
        let batches = [None, Some(OneTuple), Some(PerClass), Some(TopN(3))];
        let sems = [NullSemantics::MaybeMatch, NullSemantics::Standard];
        let syncs = [
            SyncPolicy::EveryRecord,
            SyncPolicy::EveryN(5),
            SyncPolicy::OnSnapshot,
        ];
        let knobs = |s: &JobSpec| (s.tuple_order, s.granularity, s.batch, s.semantics, s.sync);
        for i in 0..4 {
            let mut s = spec();
            s.granularity = [AllRiskyPerIteration, OneTuplePerIteration][i % 2];
            (s.tuple_order, s.batch) = (orders[i % 3], batches[i]);
            (s.semantics, s.sync) = (sems[i % 2], syncs[i % 3]);
            let back = JobSpec::from_manifest_json(&s.to_manifest_json()).unwrap();
            assert_eq!(knobs(&back), knobs(&s));
        }
        // an absent field keeps its default; an alien name is refused
        let with = |field: &str, value: Option<&str>| {
            let Ok(Json::Obj(mut members)) = json::parse(&spec().to_manifest_json()) else {
                panic!("manifest is an object");
            };
            members.retain(|(k, _)| k != field);
            members.extend(value.map(|v| (field.to_string(), Json::Str(v.into()))));
            JobSpec::from_manifest_json(&Json::Obj(members).to_string())
        };
        for (field, alien) in [
            ("tuple_order", "lsf"),
            ("granularity", "all"),
            ("batch", "top-0"),
            ("batch", "top-"),
            ("batch", "top--1"),
            ("batch", "per_class"),
            ("semantics", "maybe"),
            ("sync", "always"),
        ] {
            assert_eq!(
                knobs(&with(field, None).unwrap()),
                knobs(&spec()),
                "{field}"
            );
            let e = with(field, Some(alien)).unwrap_err();
            assert!(
                e.message.contains("unknown") && e.message.contains(alien),
                "{e}"
            );
        }
    }

    #[test]
    fn storage_engine_defaults_and_refusals() {
        // a pre-storage manifest defaults to the in-memory engine
        let text = spec()
            .to_manifest_json()
            .replace(",\"storage\":\"mem\"", "");
        assert!(!text.contains("storage"));
        let back = JobSpec::from_manifest_json(&text).unwrap();
        assert_eq!(back.storage, StorageEngine::Mem);
        // an alien engine name is a structured refusal, not a guess
        let alien = spec()
            .to_manifest_json()
            .replace("\"storage\":\"mem\"", "\"storage\":\"cloudz\"");
        let e = JobSpec::from_manifest_json(&alien).unwrap_err();
        assert!(e.message.contains("unknown storage engine"), "{e}");
        // the cycle config carries the engine through
        let mut s = spec();
        s.storage = StorageEngine::File;
        assert_eq!(s.cycle_config().storage.engine, StorageEngine::File);
    }

    #[test]
    fn spec_rebuilds_table_and_dictionary() {
        let s = spec();
        let db = s.table().unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(s.row_count(), 2);
        let dict = s.dictionary().unwrap();
        assert_eq!(
            dict.quasi_identifiers("survey").unwrap(),
            vec!["Area".to_string()]
        );
        assert_eq!(dict.weight_attr("survey").unwrap(), "Weight");
    }

    #[test]
    fn from_csv_categorizes_automatically() {
        let s = JobSpec::from_csv(
            "survey",
            "id,area,weight\n1,North,9\n2,South,2\n",
            MeasureSpec::ReIdentification,
        )
        .unwrap();
        assert!(s
            .categories
            .iter()
            .any(|(a, c)| a == "id" && c == "identifier"));
        // un-categorizable attributes fail at admission time
        assert!(JobSpec::from_csv("weird", "zzxyqf\n?\n", MeasureSpec::ReIdentification).is_err());
    }

    #[test]
    fn marker_round_trips_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("vadasa-marker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Marker::read(&dir).unwrap(), None);
        let m = Marker {
            state: "done".into(),
            attempts: 2,
            error: None,
            summary: Some(MarkerSummary {
                converged: true,
                iterations: 5,
                nulls_injected: 3,
                recodings: 0,
                final_risky: 0,
                information_loss: 0.25,
            }),
        };
        m.write(&dir).unwrap();
        assert_eq!(Marker::read(&dir).unwrap(), Some(m));
        let failed = Marker {
            state: "failed".into(),
            attempts: 4,
            error: Some("journal i/o failed".into()),
            summary: None,
        };
        failed.write(&dir).unwrap();
        assert_eq!(Marker::read(&dir).unwrap().unwrap().state, "failed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
