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
//! One reader takes the measure ([`MeasureSpec::from_json`]) and every
//! knob ([`JobSpec::read_knobs`]) out of a manifest and out of a submit
//! line alike, and each knob's names come from its type's own
//! `name`/`parse` pair, so the names the server writes and the names it
//! accepts cannot drift apart.
//!
//! [`ServerFault`]s deliberately do **not** serialize: a restarted
//! server re-runs recovered jobs clean, which is what a healed
//! transient fault looks like.

use std::path::Path;
use std::time::Duration;
use vadalog::backend::{write_atomic, FileIo, FileKind};
use vadalog::StorageEngine;
use vadasa_core::categorize::{Categorizer, ExperienceBase};
use vadasa_core::cycle::{
    check_size, check_threshold, BatchStrategy, CycleConfig, StepGranularity, StorageOptions,
    TupleOrder,
};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::faults::ServerFault;
use vadasa_core::io::{read_csv, write_csv};
use vadasa_core::journal::SyncPolicy;
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::model::MicrodataDb;
use vadasa_core::obs::json::{self, Json};
use vadasa_core::prelude::{KAnonymity, ReIdentification, RiskMeasure, Suda};

use crate::state::JobState;

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

/// The refusal of a name no version wrote.
fn unknown(what: &str, name: &str) -> SpecError {
    err(format!("unknown {what} {name:?}"))
}

/// Member `key`'s value as a string, or a refusal naming the member.
fn string<'a>(key: &str, value: &'a Json) -> Result<&'a str, SpecError> {
    value
        .as_str()
        .ok_or_else(|| err(format!("{key} must be a string, got {value}")))
}

/// Member `key`'s value as a number, or a refusal naming the member.
fn number(key: &str, value: &Json) -> Result<f64, SpecError> {
    value
        .as_f64()
        .ok_or_else(|| err(format!("{key} must be a number, got {value}")))
}

/// Member `key`'s value as a whole number in `[0, max]`, or a refusal
/// naming the member: a negative, fractional or too large value would
/// otherwise be truncated by the cast into its field.
fn whole(key: &str, value: &Json, max: u64) -> Result<u64, SpecError> {
    let n = number(key, value)?;
    // `max as f64` rounds u64::MAX up to 2^64, the number a manifest
    // writes for it; the cast below saturates it back
    if n >= 0.0 && n <= max as f64 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(err(format!(
            "{key} must be a whole number in [0, {max}], got {n}"
        )))
    }
}

/// Member `key`'s value as a name its type's `parse` knows; any other
/// name is refused as an unknown `what`.
fn named<T>(
    key: &str,
    value: &Json,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, SpecError> {
    let name = string(key, value)?;
    parse(name).ok_or_else(|| unknown(what, name))
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
    /// Every measure, each parameter at its default of 2.
    const ALL: [MeasureSpec; 3] = [
        MeasureSpec::KAnonymity(2),
        MeasureSpec::ReIdentification,
        MeasureSpec::Suda(2),
    ];

    /// Instantiate the measure.
    pub fn build(&self) -> Box<dyn RiskMeasure> {
        match self {
            MeasureSpec::KAnonymity(k) => Box::new(KAnonymity::new(*k)),
            MeasureSpec::ReIdentification => Box::new(ReIdentification),
            MeasureSpec::Suda(t) => Box::new(Suda::new(*t)),
        }
    }

    /// The name a manifest's `measure` member holds: the measure's own
    /// [`RiskMeasure::name`], which the journal's `Begin` record carries
    /// too.
    pub fn name(&self) -> String {
        self.build().name().to_string()
    }

    /// The member beside `measure` that holds the parameter, and its
    /// value: `k` for k-anonymity, `msu` for SUDA.
    fn parameter(&self) -> Option<(&'static str, usize)> {
        match *self {
            MeasureSpec::KAnonymity(k) => Some(("k", k)),
            MeasureSpec::ReIdentification => None,
            MeasureSpec::Suda(t) => Some(("msu", t)),
        }
    }

    fn to_json(self) -> Vec<(String, Json)> {
        let mut members = vec![("measure".to_string(), Json::Str(self.name()))];
        if let Some((member, n)) = self.parameter() {
            members.push((member.into(), Json::Num(n as f64)));
        }
        members
    }

    /// Read `measure` and its parameter member out of a manifest or a
    /// submit line. An absent `measure` is `absent`, and refused when
    /// that is `None`; an absent parameter is 2. A parameter that is not
    /// a whole number ≥ 1 is refused, naming the member.
    pub fn from_json(v: &Json, absent: Option<MeasureSpec>) -> Result<Self, SpecError> {
        let measure = match v.get("measure") {
            None => absent.ok_or_else(|| err("missing \"measure\""))?,
            Some(value) => named("measure", value, "measure", |name| {
                Self::ALL.into_iter().find(|m| m.name() == name)
            })?,
        };
        let Some((member, value)) = measure
            .parameter()
            .and_then(|(member, _)| Some((member, v.get(member)?)))
        else {
            return Ok(measure);
        };
        let n = check_size(member, number(member, value)?).map_err(err)?;
        Ok(match measure {
            MeasureSpec::KAnonymity(_) => MeasureSpec::KAnonymity(n),
            MeasureSpec::Suda(_) => MeasureSpec::Suda(n),
            other => other,
        })
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
        Ok(JobSpec::with_defaults(
            db.name.clone(),
            write_csv(db),
            categories,
            measure,
        ))
    }

    /// A spec over a table, its categories and a measure, with every
    /// knob at its default.
    fn with_defaults(
        name: String,
        csv: String,
        categories: Vec<(String, String)>,
        measure: MeasureSpec,
    ) -> Self {
        JobSpec {
            name,
            csv,
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
        }
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

    /// Refuse a spec whose protection parameters protect nothing: a
    /// threshold that is not a finite number in `[0, 1]`, or a `k` or
    /// `msu` below 1. The error names the member.
    pub fn check(&self) -> Result<(), SpecError> {
        check_threshold(self.threshold).map_err(err)?;
        match self.measure.parameter() {
            Some((member, n)) => check_size(member, n as f64).map(drop).map_err(err),
            None => Ok(()),
        }
    }

    /// Serialize to the manifest JSON object (faults excluded).
    pub fn to_manifest_json(&self) -> String {
        let text = |s: &str| Some(Json::Str(s.into()));
        let num = |n: Option<f64>| Some(n.map_or(Json::Null, Json::Num));
        let categories = self
            .categories
            .iter()
            .map(|(a, c)| (a.clone(), Json::Str(c.clone())));
        let mut members = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("csv".into(), Json::Str(self.csv.clone())),
            ("categories".into(), Json::Obj(categories.collect())),
        ];
        members.extend(self.measure.to_json());
        let sync_n = match self.sync {
            SyncPolicy::EveryN(n) => num(Some(f64::from(n))),
            _ => None,
        };
        let knobs = [
            ("threshold", num(Some(self.threshold))),
            ("tuple_order", text(self.tuple_order.name())),
            ("granularity", text(self.granularity.name())),
            (
                "batch",
                Some(self.batch.map_or(Json::Null, |b| Json::Str(b.name()))),
            ),
            ("semantics", text(self.semantics.name())),
            ("max_iterations", num(Some(self.max_iterations as f64))),
            (
                "deadline_ms",
                num(self.deadline.map(|d| d.as_millis() as f64)),
            ),
            ("sync", text(self.sync.kind())),
            ("sync_n", sync_n),
            ("snapshot_every", num(self.snapshot_every.map(f64::from))),
            ("storage", text(self.storage.as_str())),
        ];
        members.extend(
            knobs
                .into_iter()
                .filter_map(|(key, v)| Some((key.into(), v?))),
        );
        Json::Obj(members).to_string()
    }

    /// Parse a manifest back into a spec. It must name its table, its
    /// categories and its measure; every knob goes through
    /// [`read_knobs`](Self::read_knobs), and a spec whose protection
    /// parameters protect nothing is refused ([`check`](Self::check)).
    pub fn from_manifest_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(|e| err(format!("manifest json: {e}")))?;
        let required = |key: &str| match v.get(key) {
            Some(value) => string(key, value).map(str::to_string),
            None => Err(err(format!("missing {key:?}"))),
        };
        let (name, csv) = (required("name")?, required("csv")?);
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
        let measure = MeasureSpec::from_json(&v, None)?;
        let mut spec = JobSpec::with_defaults(name, csv, categories, measure);
        spec.read_knobs(&v)?;
        spec.check()?;
        Ok(spec)
    }

    /// Set every knob the members of `v` — a manifest or a submit line —
    /// name: `threshold`, `tuple_order`, `granularity`, `batch`,
    /// `semantics`, `max_iterations`, `deadline_ms`, `sync` with
    /// `sync_n`, `snapshot_every` and `storage`. An absent member keeps
    /// the spec's value, and `null` clears `batch`, `deadline_ms` and
    /// `snapshot_every`. A member of the wrong type, a name no version
    /// wrote, or a count that is not a whole number its field holds is
    /// refused; members it does not know are ignored.
    pub fn read_knobs(&mut self, obj: &Json) -> Result<(), SpecError> {
        let Json::Obj(members) = obj else {
            return Err(err(format!("expected a JSON object, got {obj}")));
        };
        let (mut sync, mut sync_n) = (None, None);
        for (key, v) in members {
            match (key.as_str(), v) {
                ("threshold", _) => self.threshold = number(key, v)?,
                ("tuple_order", _) => {
                    self.tuple_order = named(key, v, "tuple order", TupleOrder::parse)?
                }
                ("granularity", _) => {
                    self.granularity = named(key, v, "granularity", StepGranularity::parse)?
                }
                ("batch", Json::Null) => self.batch = None,
                ("batch", _) => {
                    self.batch = Some(named(key, v, "batch strategy", BatchStrategy::parse)?)
                }
                ("semantics", _) => {
                    self.semantics = named(key, v, "null semantics", NullSemantics::parse)?
                }
                ("max_iterations", _) => {
                    self.max_iterations = whole(key, v, usize::MAX as u64)? as usize
                }
                ("deadline_ms", Json::Null) => self.deadline = None,
                ("deadline_ms", _) => {
                    self.deadline = Some(Duration::from_millis(whole(key, v, u64::MAX)?))
                }
                ("sync", _) => sync = Some(string(key, v)?),
                ("sync_n", _) => sync_n = Some(whole(key, v, u32::MAX.into())? as u32),
                ("snapshot_every", Json::Null) => self.snapshot_every = None,
                ("snapshot_every", _) => {
                    self.snapshot_every = Some(whole(key, v, u32::MAX.into())? as u32)
                }
                ("storage", _) => {
                    self.storage = named(key, v, "storage engine", StorageEngine::parse)?
                }
                _ => {}
            }
        }
        if let Some(kind) = sync {
            self.sync =
                SyncPolicy::from_kind(kind, sync_n).ok_or_else(|| unknown("sync policy", kind))?;
        }
        Ok(())
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
    /// One of the [terminal](JobState::is_terminal) states: done, failed,
    /// cancelled or interrupted.
    pub state: JobState,
    /// Attempts consumed when the marker was written.
    pub attempts: u64,
    /// Structured error for `failed` markers.
    pub error: Option<String>,
    /// Outcome summary for `done` markers.
    pub summary: Option<MarkerSummary>,
}

impl MarkerSummary {
    /// The summary as the JSON object markers and job reports carry.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("converged".into(), Json::Bool(self.converged)),
            ("iterations".into(), Json::Num(self.iterations as f64)),
            (
                "nulls_injected".into(),
                Json::Num(self.nulls_injected as f64),
            ),
            ("recodings".into(), Json::Num(self.recodings as f64)),
            ("final_risky".into(), Json::Num(self.final_risky as f64)),
            ("information_loss".into(), Json::Num(self.information_loss)),
        ])
    }
}

impl Marker {
    /// A marker of `state` after `attempts` attempts, without an error or
    /// a summary.
    pub fn new(state: JobState, attempts: u32) -> Marker {
        Marker {
            state,
            attempts: u64::from(attempts),
            error: None,
            summary: None,
        }
    }

    /// Serialize to the `state.json` object.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("state".into(), Json::Str(self.state.name().into())),
            ("attempts".into(), Json::Num(self.attempts as f64)),
            (
                "error".into(),
                self.error.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "summary".into(),
                self.summary.map_or(Json::Null, |s| s.to_json()),
            ),
        ])
        .to_string()
    }

    /// Parse a `state.json` object. A state no marker records (one that
    /// is not terminal, or a name no version wrote) is refused.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(|e| err(format!("marker json: {e}")))?;
        let name = v
            .get("state")
            .and_then(Json::as_str)
            .ok_or_else(|| err("marker missing \"state\""))?;
        let state = JobState::parse(name)
            .filter(JobState::is_terminal)
            .ok_or_else(|| unknown("marker state", name))?;
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

    /// Read the marker from `dir`, `None` when there is none. Fleet
    /// recovery and `vadasa_status` both read a job directory through
    /// here, so they agree on every job: a marker that cannot be read or
    /// parsed stands for a failed job whose error says why, which
    /// recovery must not resume and a monitor must not show as running.
    pub fn read(dir: &Path) -> Option<Marker> {
        let failed = |e: SpecError| Marker {
            state: JobState::Failed,
            attempts: 0,
            error: Some(format!("unreadable marker: {e}")),
            summary: None,
        };
        match std::fs::read_to_string(dir.join(MARKER_FILE)) {
            Ok(text) => Some(Marker::from_json(&text).unwrap_or_else(failed)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => Some(failed(err(format!("reading marker: {e}")))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn spec() -> JobSpec {
        let csv = "Id,Area,Weight\n1,North,9\n2,South,2\n";
        JobSpec::from_csv("survey", csv, MeasureSpec::KAnonymity(2)).unwrap()
    }

    /// [`spec`] with one change.
    fn with(set: impl Fn(&mut JobSpec)) -> JobSpec {
        let mut s = spec();
        set(&mut s);
        s
    }

    /// One spec per value of every knob type, every other knob at its
    /// default.
    pub(crate) fn one_spec_per_knob_value() -> Vec<JobSpec> {
        use BatchStrategy::{OneTuple, PerClass, TopN};
        use MeasureSpec::{KAnonymity, ReIdentification, Suda};
        use SyncPolicy::{EveryN, EveryRecord, OnSnapshot};
        let (batches, syncs) = (
            [OneTuple, PerClass, TopN(1), TopN(64)],
            [EveryRecord, EveryN(1), EveryN(8), OnSnapshot],
        );
        let mut specs = Vec::new();
        specs.extend(TupleOrder::ALL.map(|v| with(|s| s.tuple_order = v)));
        specs.extend(StepGranularity::ALL.map(|v| with(|s| s.granularity = v)));
        specs.extend(NullSemantics::ALL.map(|v| with(|s| s.semantics = v)));
        specs.extend(StorageEngine::ALL.map(|v| with(|s| s.storage = v)));
        specs.extend(batches.map(|v| with(|s| s.batch = Some(v))));
        specs.extend(syncs.map(|v| with(|s| s.sync = v)));
        specs.extend([KAnonymity(3), ReIdentification, Suda(3)].map(|v| with(|s| s.measure = v)));
        specs.push(with(|s| s.snapshot_every = None));
        specs
    }

    /// A spec's manifest members with `key` removed, then set to `value`
    /// when there is one.
    pub(crate) fn manifest_with(
        s: &JobSpec,
        key: &str,
        value: Option<Json>,
    ) -> Vec<(String, Json)> {
        let Ok(Json::Obj(mut members)) = json::parse(&s.to_manifest_json()) else {
            panic!("manifest is an object");
        };
        members.retain(|(k, _)| k != key);
        members.extend(value.map(|v| (key.to_string(), v)));
        members
    }

    /// A manifest is written with `name` and read with `parse`, so its
    /// rewrite is byte-identical only when `parse(name(v)) == v`.
    #[test]
    fn every_knob_value_round_trips_through_its_name() {
        for s in one_spec_per_knob_value() {
            let text = s.to_manifest_json();
            assert_eq!(
                JobSpec::from_manifest_json(&text)
                    .unwrap()
                    .to_manifest_json(),
                text
            );
            assert_eq!(TupleOrder::parse(s.tuple_order.name()), Some(s.tuple_order));
            assert_eq!(
                StepGranularity::parse(s.granularity.name()),
                Some(s.granularity)
            );
            assert_eq!(NullSemantics::parse(s.semantics.name()), Some(s.semantics));
            assert_eq!(StorageEngine::parse(s.storage.as_str()), Some(s.storage));
            // the command line spells both kinds of names itself
            assert_eq!(SyncPolicy::parse(&s.sync.name()), Some(s.sync));
            assert!(s
                .batch
                .is_none_or(|b| BatchStrategy::parse(&b.name()) == Some(b)));
        }
        for state in JobState::ALL.into_iter().filter(JobState::is_terminal) {
            assert_eq!(JobState::parse(state.name()), Some(state));
            let m = Marker::new(state, 1);
            assert_eq!(Marker::from_json(&m.to_json()), Ok(m));
        }
    }

    /// `job.json` as the server wrote it before knob names had one table.
    #[test]
    fn golden_manifest_loads_and_is_rewritten_byte_for_byte() {
        let golden = include_str!("../../../tests/golden/server/job.json");
        let mut s = JobSpec::from_manifest_json(golden).unwrap();
        // faults never persist
        s.fault = ServerFault::none().transient_appends(1);
        assert_eq!(s.to_manifest_json(), golden);
        // every knob member holds a value other than its default
        let defaults =
            JobSpec::with_defaults(s.name, s.csv, s.categories, MeasureSpec::KAnonymity(2));
        let defaults = json::parse(&defaults.to_manifest_json()).unwrap();
        let Ok(Json::Obj(members)) = json::parse(golden) else {
            panic!("golden manifest is an object");
        };
        for (key, value) in &members[3..] {
            assert_ne!(defaults.get(key), Some(value), "{key}");
        }
        assert_eq!(members.len(), 16, "table, measure, msu and 11 knob members");
    }

    #[test]
    fn absent_knobs_keep_their_defaults_and_malformed_ones_are_refused() {
        let read = |members| JobSpec::from_manifest_json(&Json::Obj(members).to_string());
        for key in [
            "threshold",
            "tuple_order",
            "granularity",
            "batch",
            "semantics",
            "sync",
            "storage",
        ] {
            let back = read(manifest_with(&spec(), key, None)).unwrap();
            assert_eq!(back.to_manifest_json(), spec().to_manifest_json(), "{key}");
        }
        // an absent `snapshot_every` snapshots every 16 iterations; null never
        let text = |s: &str| Some(Json::Str(s.into()));
        let every_3 = with(|s| s.snapshot_every = Some(3));
        let absent = read(manifest_with(&every_3, "snapshot_every", None)).unwrap();
        let null = read(manifest_with(&every_3, "snapshot_every", Some(Json::Null))).unwrap();
        assert_eq!(
            (absent.snapshot_every, null.snapshot_every),
            (Some(16), None)
        );
        for (key, value, reason) in [
            ("batch", text("top-"), "unknown batch strategy \"top-\""),
            ("batch", text("top--1"), "unknown batch strategy"),
            ("batch", text("per_class"), "unknown batch strategy"),
            ("measure", None, "missing \"measure\""),
            (
                "semantics",
                Some(Json::Num(1.0)),
                "semantics must be a string, got 1",
            ),
            (
                "threshold",
                text("0.1"),
                "threshold must be a number, got \"0.1\"",
            ),
            // the server wrote a threshold of 1e999 as null
            (
                "threshold",
                Some(Json::Null),
                "threshold must be a number, got null",
            ),
            // counts that a cast would have truncated to 0
            (
                "max_iterations",
                Some(Json::Num(-5.0)),
                "max_iterations must be a whole number in [0, 18446744073709551615], got -5",
            ),
            (
                "max_iterations",
                Some(Json::Num(0.5)),
                "max_iterations must be a whole number in [0, 18446744073709551615], got 0.5",
            ),
            (
                "deadline_ms",
                Some(Json::Num(-1.0)),
                "deadline_ms must be a whole number in [0, 18446744073709551615], got -1",
            ),
            (
                "sync_n",
                Some(Json::Num(4294967296.0)),
                "sync_n must be a whole number in [0, 4294967295], got 4294967296",
            ),
            (
                "snapshot_every",
                Some(Json::Num(-3.0)),
                "snapshot_every must be a whole number in [0, 4294967295], got -3",
            ),
        ] {
            let e = read(manifest_with(&spec(), key, value)).unwrap_err();
            assert!(e.message.contains(reason), "{key}: {e}");
        }
        // the largest count each field holds reads back
        let most = with(|s| {
            s.max_iterations = usize::MAX;
            s.deadline = Some(Duration::from_millis(u64::MAX));
            s.sync = SyncPolicy::EveryN(u32::MAX);
            s.snapshot_every = Some(u32::MAX);
        });
        let back = JobSpec::from_manifest_json(&most.to_manifest_json()).unwrap();
        assert_eq!(
            (
                back.max_iterations,
                back.deadline,
                back.sync,
                back.snapshot_every
            ),
            (
                most.max_iterations,
                most.deadline,
                most.sync,
                most.snapshot_every
            )
        );
    }

    #[test]
    fn spec_rebuilds_table_dictionary_and_cycle_config() {
        let s = with(|s| s.storage = StorageEngine::File);
        assert_eq!((s.table().unwrap().len(), s.row_count()), (2, 2));
        assert!(s
            .categories
            .iter()
            .any(|(a, c)| a == "Id" && c == "identifier"));
        let dict = s.dictionary().unwrap();
        assert_eq!(dict.quasi_identifiers("survey").unwrap(), ["Area"]);
        assert_eq!(dict.weight_attr("survey").unwrap(), "Weight");
        assert_eq!(s.cycle_config().storage.engine, StorageEngine::File);
        // un-categorizable attributes fail at admission time
        assert!(JobSpec::from_csv("weird", "zzxyqf\n?\n", MeasureSpec::ReIdentification).is_err());
    }

    #[test]
    fn marker_round_trips_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("vadasa-marker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Marker::read(&dir), None);
        let summary = MarkerSummary {
            converged: true,
            iterations: 5,
            nulls_injected: 3,
            recodings: 0,
            final_risky: 0,
            information_loss: 0.25,
        };
        let done = Marker {
            summary: Some(summary),
            ..Marker::new(JobState::Done, 2)
        };
        done.write(&dir).unwrap();
        assert_eq!(Marker::read(&dir), Some(done));
        // a corrupt marker, or one naming a state no marker records,
        // reads as a failed job that says why
        for (text, reason) in [
            ("{\"state\":", "marker json"),
            ("{\"state\":\"paused\"}", "unknown marker state \"paused\""),
            (
                "{\"state\":\"running\"}",
                "unknown marker state \"running\"",
            ),
            ("{\"attempts\":1}", "marker missing \"state\""),
        ] {
            std::fs::write(dir.join(MARKER_FILE), text).unwrap();
            let m = Marker::read(&dir).unwrap();
            assert_eq!(m.state, JobState::Failed, "{text}");
            let error = m.error.unwrap_or_default();
            assert!(
                error.starts_with("unreadable marker: ") && error.contains(reason),
                "{error}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
