//! Read-only inspection of a journaled run's directory — the library
//! behind the `vadasa_status` binary.
//!
//! [`read_status`] decodes the write-ahead journal without replaying or
//! truncating anything: it scans frames with the same total decoder
//! recovery uses ([`vadasa_core::journal::record::records`]) and
//! folds them into a [`JobStatus`] — run identity from `Begin`, committed
//! totals from the last `Commit`, the newest snapshot horizon, the
//! rows-at-risk trajectory from `Progress` samples (fitted into a
//! [`ProgressEstimate`]), and the `Degraded`/`Finished` markers. Because
//! it never opens the file for writing, it is safe to run *while the job
//! is still running* — a torn tail (a frame the writer is mid-append on)
//! is reported as `torn_bytes`, exactly as recovery would see it.

use std::path::{Path, PathBuf};
use vadasa_core::colstore::{self, WARM_STATS_ARTIFACT};
use vadasa_core::journal::record::{records, JournalRecord, MAGIC};
use vadasa_core::journal::JOURNAL_FILE;
use vadasa_core::obs::json::Json;
use vadasa_core::progress::{self, ProgressEstimate};
use vadasa_server::spec::Marker;
use vadasa_server::JobState;

/// Why a journal directory could not be inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusError {
    /// The journal file could not be read.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// Rendered I/O error.
        message: String,
    },
    /// The file exists but does not start with the journal magic.
    NotAJournal {
        /// Path of the alien file.
        path: PathBuf,
    },
}

impl std::fmt::Display for StatusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatusError::Io { path, message } => {
                write!(f, "cannot read {}: {message}", path.display())
            }
            StatusError::NotAJournal { path } => {
                write!(f, "{} is not a Vada-SA journal", path.display())
            }
        }
    }
}

impl std::error::Error for StatusError {}

/// The newest durable snapshot the journal references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStatus {
    /// Snapshot file name, relative to the journal directory.
    pub file: String,
    /// Completed iterations the snapshot covers.
    pub iterations: u64,
    /// Whether the file is actually present on disk right now.
    pub present: bool,
}

/// Freshness of the persisted warm-state artifact
/// (`cycle.warmstats.vart`) relative to the journal — exactly the test a
/// resuming cycle applies before seeding warm state from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmFreshness {
    /// No artifact on disk — normal for the in-memory backend, or a
    /// file-backed run that has not snapshotted yet.
    Absent,
    /// The artifact decodes, its fingerprint matches the journal's, and
    /// it covers exactly the committed iterations: a resume would seed
    /// warm state straight from disk.
    Fresh {
        /// Iterations the artifact covers (= journal commit horizon).
        iterations: u64,
    },
    /// The artifact decodes but its iteration stamp disagrees with the
    /// journal's last commit; a resume would ignore it and regroup cold.
    Stale {
        /// Iterations the artifact covers.
        iterations: u64,
        /// Iterations the journal has committed.
        committed: u64,
    },
    /// The artifact was refused by the total decoder (corrupt, alien
    /// magic, future version, fingerprint mismatch, short read …); a
    /// resume would fall back cold.
    Unreadable {
        /// Rendered structured refusal.
        message: String,
    },
}

impl WarmFreshness {
    /// One-word rendering for table cells: `none`, `fresh`, `stale` or
    /// `refused`.
    pub fn word(&self) -> &'static str {
        match self {
            WarmFreshness::Absent => "none",
            WarmFreshness::Fresh { .. } => "fresh",
            WarmFreshness::Stale { .. } => "stale",
            WarmFreshness::Unreadable { .. } => "refused",
        }
    }
}

/// Everything a monitor can learn about a journaled run without touching
/// it. All fields come from decoded journal records; `Option`s are `None`
/// when the corresponding record has not been written (yet).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Path of the journal file that was read.
    pub journal_path: PathBuf,
    /// Total bytes in the journal file.
    pub journal_bytes: u64,
    /// Well-formed records decoded.
    pub records: u64,
    /// Bytes after the last well-formed frame (a torn tail: either the
    /// writer is mid-append or the run crashed inside a write).
    pub torn_bytes: u64,
    /// Record-format version from `Begin`.
    pub format_version: Option<u32>,
    /// Run fingerprint from `Begin`.
    pub fingerprint: Option<u64>,
    /// Risk-measure name from `Begin`.
    pub measure: Option<String>,
    /// Anonymizer name from `Begin`.
    pub anonymizer: Option<String>,
    /// Input rows from `Begin`.
    pub rows: Option<u64>,
    /// Completed iterations after the last `Commit`.
    pub committed_iterations: u64,
    /// Running totals from the last `Commit`.
    pub nulls_injected: u64,
    /// Running recoding total from the last `Commit`.
    pub recodings: u64,
    /// Initially-risky tuple count from the last `Commit`.
    pub initial_risky: u64,
    /// Exhausted tuple count from the last `Commit`.
    pub exhausted: u64,
    /// `Action` records decoded in total.
    pub actions_total: u64,
    /// `Action` records decoded after the newest `Snapshot` record
    /// (the replay distance a recovery would have to cover).
    pub actions_since_snapshot: u64,
    /// Actions per iteration ordinal — the *realized* batch size series.
    /// A one-tuple run shows `1` everywhere; a batched run shows how many
    /// rows each iteration actually anonymized.
    pub batch_sizes: Vec<u64>,
    /// The newest snapshot the journal references, if any.
    pub snapshot: Option<SnapshotStatus>,
    /// Freshness of the persisted warm-state artifact vs the journal.
    pub warm: WarmFreshness,
    /// Rows-at-risk trajectory from the `Progress` samples, in order.
    pub rows_at_risk: Vec<u64>,
    /// Least-squares convergence estimate over the trajectory.
    pub estimate: Option<ProgressEstimate>,
    /// Trigger string of the last `Degraded` marker, if any.
    pub degraded: Option<String>,
    /// `converged` flag of the last `Finished` marker, if any.
    pub finished: Option<bool>,
}

impl JobStatus {
    /// One-word run state: `finished`, `degraded` or `running`.
    pub fn state(&self) -> &'static str {
        if self.finished.is_some() {
            "finished"
        } else if self.degraded.is_some() {
            "degraded"
        } else {
            "running"
        }
    }

    /// Render the status as aligned human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "journal   {} — {} byte(s), {} record(s){}",
            self.journal_path.display(),
            self.journal_bytes,
            self.records,
            match self.format_version {
                Some(v) => format!(", format v{v}"),
                None => String::new(),
            }
        );
        if let (Some(m), Some(a)) = (&self.measure, &self.anonymizer) {
            let _ = writeln!(
                out,
                "run       {m} + {a} over {} row(s) (fingerprint {:016x})",
                self.rows.unwrap_or(0),
                self.fingerprint.unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            "committed {} iteration(s) — {} null(s), {} recoding(s), {} initially risky, {} exhausted",
            self.committed_iterations,
            self.nulls_injected,
            self.recodings,
            self.initial_risky,
            self.exhausted
        );
        if !self.batch_sizes.is_empty() {
            let last = *self.batch_sizes.last().unwrap_or(&0);
            let max = self.batch_sizes.iter().copied().max().unwrap_or(0);
            let mean = self.actions_total as f64 / self.batch_sizes.len() as f64;
            let _ = writeln!(
                out,
                "batch     {mean:.1} action(s)/iteration (last {last}, max {max}) over {} acting iteration(s)",
                self.batch_sizes.len()
            );
        }
        match &self.snapshot {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "snapshot  {} @ {} iteration(s) ({}), {} action(s) to replay past it",
                    s.file,
                    s.iterations,
                    if s.present { "present" } else { "MISSING" },
                    self.actions_since_snapshot
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "snapshot  none — {} action(s) to replay from the start",
                    self.actions_total
                );
            }
        }
        match &self.warm {
            WarmFreshness::Absent => {}
            WarmFreshness::Fresh { iterations } => {
                let _ = writeln!(
                    out,
                    "warm      {WARM_STATS_ARTIFACT}.vart fresh @ {iterations} iteration(s) — a resume seeds warm state from disk"
                );
            }
            WarmFreshness::Stale {
                iterations,
                committed,
            } => {
                let _ = writeln!(
                    out,
                    "warm      {WARM_STATS_ARTIFACT}.vart STALE — artifact @ {iterations} iteration(s) vs journal @ {committed}; a resume regroups cold"
                );
            }
            WarmFreshness::Unreadable { message } => {
                let _ = writeln!(
                    out,
                    "warm      {WARM_STATS_ARTIFACT}.vart REFUSED ({message}); a resume regroups cold"
                );
            }
        }
        if let Some(e) = &self.estimate {
            let eta = match e.eta_iterations {
                Some(0) => "converged".to_string(),
                Some(n) => format!("~{n} iteration(s) left"),
                None => "no downward trend".to_string(),
            };
            let band = match e.eta_band() {
                Some((lo, hi)) => format!(", band {lo}..={hi}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "progress  {} row(s) at risk, trend {:+.2}/iteration, {eta} (confidence {:.0}%{band})",
                e.rows_at_risk,
                e.trend,
                e.confidence * 100.0
            );
        }
        let state = match (self.finished, &self.degraded) {
            (Some(true), _) => "finished (converged)".to_string(),
            (Some(false), _) => "finished (stopped above threshold)".to_string(),
            (None, Some(trigger)) => format!("degraded: {trigger}"),
            (None, None) => "running".to_string(),
        };
        let _ = writeln!(out, "state     {state}");
        if self.torn_bytes > 0 {
            let _ = writeln!(
                out,
                "tail      {} torn byte(s) after the last valid frame",
                self.torn_bytes
            );
        }
        out
    }

    /// Render the status as a single JSON object.
    pub fn to_json(&self) -> Json {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        let opt_num = |n: Option<u64>| match n {
            Some(n) => Json::Num(n as f64),
            None => Json::Null,
        };
        let progress = match &self.estimate {
            Some(e) => Json::Obj(vec![
                ("rows_at_risk".into(), Json::Num(e.rows_at_risk as f64)),
                ("trend".into(), Json::Num(e.trend)),
                ("eta_iterations".into(), opt_num(e.eta_iterations)),
                ("confidence".into(), Json::Num(e.confidence)),
                (
                    "eta_band".into(),
                    match e.eta_band() {
                        Some((lo, hi)) => {
                            Json::Arr(vec![Json::Num(lo as f64), Json::Num(hi as f64)])
                        }
                        None => Json::Null,
                    },
                ),
            ]),
            None => Json::Null,
        };
        let snapshot = match &self.snapshot {
            Some(s) => Json::Obj(vec![
                ("file".into(), Json::Str(s.file.clone())),
                ("iterations".into(), Json::Num(s.iterations as f64)),
                ("present".into(), Json::Bool(s.present)),
            ]),
            None => Json::Null,
        };
        let warm = {
            let mut members: Vec<(String, Json)> =
                vec![("state".into(), Json::Str(self.warm.word().into()))];
            match &self.warm {
                WarmFreshness::Absent => {}
                WarmFreshness::Fresh { iterations } => {
                    members.push(("iterations".into(), Json::Num(*iterations as f64)));
                }
                WarmFreshness::Stale {
                    iterations,
                    committed,
                } => {
                    members.push(("iterations".into(), Json::Num(*iterations as f64)));
                    members.push(("committed".into(), Json::Num(*committed as f64)));
                }
                WarmFreshness::Unreadable { message } => {
                    members.push(("error".into(), Json::Str(message.clone())));
                }
            }
            Json::Obj(members)
        };
        Json::Obj(vec![
            ("warm_artifact".into(), warm),
            (
                "journal".into(),
                Json::Obj(vec![
                    (
                        "path".into(),
                        Json::Str(self.journal_path.display().to_string()),
                    ),
                    ("bytes".into(), Json::Num(self.journal_bytes as f64)),
                    ("records".into(), Json::Num(self.records as f64)),
                    ("torn_bytes".into(), Json::Num(self.torn_bytes as f64)),
                    (
                        "format_version".into(),
                        opt_num(self.format_version.map(u64::from)),
                    ),
                ]),
            ),
            (
                "run".into(),
                Json::Obj(vec![
                    ("measure".into(), opt_str(&self.measure)),
                    ("anonymizer".into(), opt_str(&self.anonymizer)),
                    ("rows".into(), opt_num(self.rows)),
                    (
                        "fingerprint".into(),
                        match self.fingerprint {
                            Some(fp) => Json::Str(format!("{fp:016x}")),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "committed".into(),
                Json::Obj(vec![
                    (
                        "iterations".into(),
                        Json::Num(self.committed_iterations as f64),
                    ),
                    (
                        "nulls_injected".into(),
                        Json::Num(self.nulls_injected as f64),
                    ),
                    ("recodings".into(), Json::Num(self.recodings as f64)),
                    ("initial_risky".into(), Json::Num(self.initial_risky as f64)),
                    ("exhausted".into(), Json::Num(self.exhausted as f64)),
                ]),
            ),
            (
                "actions".into(),
                Json::Obj(vec![
                    ("total".into(), Json::Num(self.actions_total as f64)),
                    (
                        "since_snapshot".into(),
                        Json::Num(self.actions_since_snapshot as f64),
                    ),
                    (
                        "per_iteration".into(),
                        Json::Arr(
                            self.batch_sizes
                                .iter()
                                .map(|&n| Json::Num(n as f64))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("snapshot".into(), snapshot),
            (
                "rows_at_risk_series".into(),
                Json::Arr(
                    self.rows_at_risk
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("progress".into(), progress),
            ("state".into(), Json::Str(self.state().to_string())),
            (
                "converged".into(),
                match self.finished {
                    Some(b) => Json::Bool(b),
                    None => Json::Null,
                },
            ),
            ("degraded_trigger".into(), opt_str(&self.degraded)),
        ])
    }
}

/// Inspect the journal in `dir` read-only and fold it into a
/// [`JobStatus`]. Never writes, truncates or locks anything, and never
/// panics on hostile bytes — the frame decoder is total, and the first
/// undecodable frame simply ends the scan (its bytes are reported as the
/// torn tail).
pub fn read_status(dir: &Path) -> Result<JobStatus, StatusError> {
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).map_err(|e| StatusError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC.as_slice() {
        // an empty or short file is a crash during creation — still not a
        // scannable journal
        return Err(StatusError::NotAJournal { path });
    }

    let mut status = JobStatus {
        journal_path: path,
        journal_bytes: bytes.len() as u64,
        records: 0,
        torn_bytes: 0,
        format_version: None,
        fingerprint: None,
        measure: None,
        anonymizer: None,
        rows: None,
        committed_iterations: 0,
        nulls_injected: 0,
        recodings: 0,
        initial_risky: 0,
        exhausted: 0,
        actions_total: 0,
        actions_since_snapshot: 0,
        batch_sizes: Vec::new(),
        snapshot: None,
        warm: WarmFreshness::Absent,
        rows_at_risk: Vec::new(),
        estimate: None,
        degraded: None,
        finished: None,
    };

    let mut offset = MAGIC.len();
    for (rec, next) in records(&bytes) {
        status.records += 1;
        match rec {
            JournalRecord::Begin {
                version,
                fingerprint,
                measure,
                anonymizer,
                rows,
            } => {
                status.format_version = Some(version);
                status.fingerprint = Some(fingerprint);
                status.measure = Some(measure);
                status.anonymizer = Some(anonymizer);
                status.rows = Some(rows);
            }
            JournalRecord::Action { iteration, .. } => {
                status.actions_total += 1;
                status.actions_since_snapshot += 1;
                let slot = iteration as usize;
                if status.batch_sizes.len() <= slot {
                    status.batch_sizes.resize(slot + 1, 0);
                }
                status.batch_sizes[slot] += 1;
            }
            JournalRecord::Commit {
                iterations,
                nulls_injected,
                recodings,
                initial_risky,
                exhausted,
            } => {
                status.committed_iterations = iterations;
                status.nulls_injected = nulls_injected;
                status.recodings = recodings;
                status.initial_risky = initial_risky;
                status.exhausted = exhausted;
            }
            JournalRecord::Snapshot { iterations, file } => {
                status.actions_since_snapshot = 0;
                let present = dir.join(&file).is_file();
                status.snapshot = Some(SnapshotStatus {
                    file,
                    iterations,
                    present,
                });
            }
            JournalRecord::Degraded { trigger } => status.degraded = Some(trigger),
            JournalRecord::Finished { converged } => status.finished = Some(converged),
            JournalRecord::Progress { rows_at_risk, .. } => {
                status.rows_at_risk.push(rows_at_risk);
            }
        }
        offset = next;
    }
    status.torn_bytes = (bytes.len() - offset) as u64;
    status.estimate = progress::estimate(&status.rows_at_risk);
    status.warm = warm_freshness(dir, status.fingerprint, status.committed_iterations);
    Ok(status)
}

/// Inspect the persisted warm-state artifact next to the journal,
/// applying the same vetting a resuming cycle does: framing, CRC,
/// version, fingerprint, and an exact iteration match against the last
/// journal commit. Read-only and total — hostile bytes become
/// [`WarmFreshness::Unreadable`], never a panic.
fn warm_freshness(dir: &Path, fingerprint: Option<u64>, committed: u64) -> WarmFreshness {
    let path = dir.join(format!("{WARM_STATS_ARTIFACT}.vart"));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return WarmFreshness::Absent,
        Err(e) => {
            return WarmFreshness::Unreadable {
                message: e.to_string(),
            }
        }
    };
    match colstore::decode_warm_stats(&bytes, fingerprint) {
        Ok(ws) if ws.iterations == committed => WarmFreshness::Fresh {
            iterations: ws.iterations,
        },
        Ok(ws) => WarmFreshness::Stale {
            iterations: ws.iterations,
            committed,
        },
        Err(e) => WarmFreshness::Unreadable {
            message: e.to_string(),
        },
    }
}

// --- jobs-root listing (vadasa_server fleets) ------------------------------

/// One job directory under a [`vadasa_server`] jobs root, as seen from
/// the outside: the durable marker (if the job reached a terminal
/// state), plus the same read-only journal inspection [`read_status`]
/// gives a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDirStatus {
    /// Job id (= directory name).
    pub id: String,
    /// `state.json` marker state (`done`/`failed`/`cancelled`/
    /// `interrupted`), when present. A marker that cannot be read, or
    /// that names no marker state, reads as `failed`, as fleet recovery
    /// reads it ([`Marker::read`]).
    pub marker: Option<JobState>,
    /// Storage backend the job's manifest declares (`mem`/`file`);
    /// `None` when the manifest is missing or unreadable.
    pub storage: Option<String>,
    /// Structured error carried by a `failed` marker.
    pub error: Option<String>,
    /// Journal inspection; `None` when the job has not journaled yet.
    pub status: Option<JobStatus>,
    /// Why the journal could not be inspected (rendered), if it failed.
    pub status_error: Option<String>,
}

impl JobDirStatus {
    /// Best-effort one-word state: the durable marker wins, then the
    /// journal's own state, then `queued` (manifest but no journal yet).
    pub fn state(&self) -> &str {
        match (self.marker, &self.status) {
            (Some(m), _) => m.name(),
            (None, Some(s)) => s.state(),
            (None, None) => JobState::Queued.name(),
        }
    }

    /// Has the job stopped moving: does it carry a marker, or has its
    /// journal finished or degraded?
    pub fn settled(&self) -> bool {
        self.marker.is_some()
            || self
                .status
                .as_ref()
                .is_some_and(|s| s.finished.is_some() || s.degraded.is_some())
    }
}

/// Scan a `vadasa_server` jobs root: every subdirectory with a
/// `job.json` manifest becomes one [`JobDirStatus`], sorted by id.
/// Read-only and safe against a live server.
pub fn read_jobs_root(root: &Path) -> Result<Vec<JobDirStatus>, StatusError> {
    let entries = std::fs::read_dir(root).map_err(|e| StatusError::Io {
        path: root.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join(vadasa_server::spec::MANIFEST_FILE).is_file())
        .collect();
    dirs.sort();
    let mut jobs = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let (marker, mut error) = match Marker::read(&dir) {
            Some(m) => (Some(m.state), m.error),
            None => (None, None),
        };
        let storage = std::fs::read_to_string(dir.join(vadasa_server::spec::MANIFEST_FILE))
            .ok()
            .and_then(|text| vadasa_server::JobSpec::from_manifest_json(&text).ok())
            .map(|spec| spec.storage.as_str().to_string());
        let (status, status_error) = match read_status(&dir) {
            Ok(s) => (Some(s), None),
            // No journal yet is a normal queued job, not an error.
            Err(StatusError::Io { .. }) => (None, None),
            Err(e) => (None, Some(e.to_string())),
        };
        if error.is_none() {
            error = status_error.clone();
        }
        jobs.push(JobDirStatus {
            id,
            marker,
            storage,
            error,
            status,
            status_error,
        });
    }
    Ok(jobs)
}

/// Render a jobs-root listing as an aligned table.
pub fn render_jobs_table(jobs: &[JobDirStatus]) -> String {
    use std::fmt::Write as _;
    let mut rows: Vec<[String; 8]> = vec![[
        "JOB".into(),
        "STATE".into(),
        "STORAGE".into(),
        "WARM".into(),
        "ITER".into(),
        "AT-RISK".into(),
        "ETA".into(),
        "TORN".into(),
    ]];
    for j in jobs {
        let (warm, iter, at_risk, eta, torn) = match &j.status {
            Some(s) => (
                s.warm.word().to_string(),
                s.committed_iterations.to_string(),
                s.rows_at_risk
                    .last()
                    .map_or_else(|| "—".to_string(), |n| n.to_string()),
                match s.estimate.as_ref().and_then(|e| e.eta_band()) {
                    Some((lo, hi)) => format!("{lo}..={hi}"),
                    None => "—".to_string(),
                },
                s.torn_bytes.to_string(),
            ),
            None => ("—".into(), "—".into(), "—".into(), "—".into(), "—".into()),
        };
        rows.push([
            j.id.clone(),
            j.state().to_string(),
            j.storage.clone().unwrap_or_else(|| "—".into()),
            warm,
            iter,
            at_risk,
            eta,
            torn,
        ]);
    }
    let mut widths = [0usize; 8];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in &rows {
        for (i, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = w.saturating_sub(cell.chars().count());
            out.push_str(cell);
            for _ in 0..pad {
                out.push(' ');
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    for j in jobs {
        if let Some(e) = &j.error {
            let _ = writeln!(out, "{}: {e}", j.id);
        }
    }
    out
}

/// Render a jobs-root listing as one JSON object.
pub fn jobs_to_json(jobs: &[JobDirStatus]) -> Json {
    let arr = jobs
        .iter()
        .map(|j| {
            let mut members: Vec<(String, Json)> = vec![
                ("id".into(), Json::Str(j.id.clone())),
                ("state".into(), Json::Str(j.state().to_string())),
                (
                    "storage".into(),
                    match &j.storage {
                        Some(s) => Json::Str(s.clone()),
                        None => Json::Null,
                    },
                ),
            ];
            if let Some(e) = &j.error {
                members.push(("error".into(), Json::Str(e.clone())));
            }
            members.push((
                "journal".into(),
                match &j.status {
                    Some(s) => s.to_json(),
                    None => Json::Null,
                },
            ));
            Json::Obj(members)
        })
        .collect();
    Json::Obj(vec![("jobs".into(), Json::Arr(arr))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vadalog::Value;
    use vadasa_core::anonymize::AnonymizationAction;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn fresh_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("vadasa-status-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_journal(dir: &Path, records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&r.encode());
        }
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        bytes
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Begin {
                version: vadasa_core::journal::record::FORMAT_VERSION,
                fingerprint: 0xABCD,
                measure: "k-anonymity".into(),
                anonymizer: "local-suppression".into(),
                rows: 7,
            },
            JournalRecord::Progress {
                iteration: 0,
                rows_at_risk: 10,
            },
            JournalRecord::Action {
                iteration: 0,
                row: 1,
                risk_bits: 1.0f64.to_bits(),
                measure: "k-anonymity".into(),
                action: AnonymizationAction::Suppress {
                    row: 1,
                    attr: "Area".into(),
                    previous: Value::str("Roma"),
                },
            },
            JournalRecord::Commit {
                iterations: 1,
                nulls_injected: 1,
                recodings: 0,
                initial_risky: 10,
                exhausted: 0,
            },
            JournalRecord::Snapshot {
                iterations: 1,
                file: "snapshot-1.vsnap".into(),
            },
            JournalRecord::Progress {
                iteration: 1,
                rows_at_risk: 8,
            },
            JournalRecord::Action {
                iteration: 1,
                row: 2,
                risk_bits: 1.0f64.to_bits(),
                measure: "k-anonymity".into(),
                action: AnonymizationAction::Suppress {
                    row: 2,
                    attr: "Area".into(),
                    previous: Value::str("Roma"),
                },
            },
            JournalRecord::Commit {
                iterations: 2,
                nulls_injected: 2,
                recodings: 0,
                initial_risky: 10,
                exhausted: 0,
            },
            JournalRecord::Progress {
                iteration: 2,
                rows_at_risk: 6,
            },
            JournalRecord::Progress {
                iteration: 3,
                rows_at_risk: 4,
            },
        ]
    }

    #[test]
    fn folds_a_synthetic_journal() {
        let dir = fresh_dir("fold");
        write_journal(&dir, &sample_records());
        let s = read_status(&dir).unwrap();
        assert_eq!(s.records, 10);
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(s.measure.as_deref(), Some("k-anonymity"));
        assert_eq!(s.rows, Some(7));
        assert_eq!(s.committed_iterations, 2);
        assert_eq!(s.nulls_injected, 2);
        assert_eq!(s.actions_total, 2);
        assert_eq!(s.actions_since_snapshot, 1);
        assert_eq!(s.batch_sizes, vec![1, 1], "one action in each iteration");
        assert!(s
            .render_text()
            .contains("batch     1.0 action(s)/iteration"));
        let snap = s.snapshot.as_ref().unwrap();
        assert_eq!(snap.file, "snapshot-1.vsnap");
        assert_eq!(snap.iterations, 1);
        assert!(!snap.present, "no snapshot file was written");
        assert_eq!(s.rows_at_risk, vec![10, 8, 6, 4]);
        let e = s.estimate.unwrap();
        assert_eq!(e.trend, -2.0);
        assert_eq!(e.eta_iterations, Some(2));
        assert_eq!(s.state(), "running");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let dir = fresh_dir("torn");
        let bytes = write_journal(&dir, &sample_records());
        // chop the last 3 bytes: the final Progress frame tears
        std::fs::write(dir.join(JOURNAL_FILE), &bytes[..bytes.len() - 3]).unwrap();
        let s = read_status(&dir).unwrap();
        assert_eq!(s.records, 9);
        assert!(s.torn_bytes > 0);
        assert_eq!(s.rows_at_risk, vec![10, 8, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_and_degraded_markers_set_the_state() {
        let dir = fresh_dir("state");
        let mut recs = sample_records();
        recs.push(JournalRecord::Degraded {
            trigger: "deadline expired".into(),
        });
        write_journal(&dir, &recs);
        let s = read_status(&dir).unwrap();
        assert_eq!(s.state(), "degraded");
        assert_eq!(s.degraded.as_deref(), Some("deadline expired"));

        recs.push(JournalRecord::Finished { converged: true });
        write_journal(&dir, &recs);
        let s = read_status(&dir).unwrap();
        assert_eq!(s.state(), "finished");
        assert_eq!(s.finished, Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_alien_files_are_structured_errors() {
        let dir = fresh_dir("missing");
        assert!(matches!(read_status(&dir), Err(StatusError::Io { .. })));
        std::fs::write(dir.join(JOURNAL_FILE), b"PNG").unwrap();
        assert!(matches!(
            read_status(&dir),
            Err(StatusError::NotAJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_soup_never_panics() {
        let dir = fresh_dir("soup");
        let mut x = 0x1234_5678u64;
        for len in 0..128usize {
            let mut soup = MAGIC.to_vec();
            soup.extend((0..len).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            }));
            std::fs::write(dir.join(JOURNAL_FILE), &soup).unwrap();
            let s = read_status(&dir).unwrap();
            assert_eq!(s.journal_bytes as usize, soup.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_artifact_freshness_tracks_the_journal() {
        use vadasa_core::maybe_match::GroupStats;
        let dir = fresh_dir("warm");
        write_journal(&dir, &sample_records());
        let stats = GroupStats {
            count: vec![2, 2],
            weight_sum: vec![3.0, 3.0],
        };
        let art = dir.join(format!("{WARM_STATS_ARTIFACT}.vart"));

        // No artifact: the in-memory backend's normal shape.
        assert_eq!(read_status(&dir).unwrap().warm, WarmFreshness::Absent);

        // Fresh: fingerprint and iteration stamp both match the journal
        // (sample_records commits through iteration 2, fingerprint 0xABCD).
        std::fs::write(&art, colstore::encode_warm_stats(2, 0xABCD, &stats)).unwrap();
        let s = read_status(&dir).unwrap();
        assert_eq!(s.warm, WarmFreshness::Fresh { iterations: 2 });
        assert!(s
            .render_text()
            .contains("warm      cycle.warmstats.vart fresh @ 2"));

        // Stale: valid artifact, but lagging the journal commit horizon.
        std::fs::write(&art, colstore::encode_warm_stats(1, 0xABCD, &stats)).unwrap();
        let s = read_status(&dir).unwrap();
        assert_eq!(
            s.warm,
            WarmFreshness::Stale {
                iterations: 1,
                committed: 2
            }
        );
        assert!(s.render_text().contains("STALE"));

        // Refused: another run's fingerprint is a structured refusal …
        std::fs::write(&art, colstore::encode_warm_stats(2, 0xBEEF, &stats)).unwrap();
        let s = read_status(&dir).unwrap();
        assert!(
            matches!(s.warm, WarmFreshness::Unreadable { .. }),
            "{:?}",
            s.warm
        );
        // … and so is outright garbage (never a panic).
        std::fs::write(&art, b"NOTAVADA garbage").unwrap();
        let s = read_status(&dir).unwrap();
        assert!(matches!(s.warm, WarmFreshness::Unreadable { .. }));
        let json = s.to_json().to_string();
        assert!(json.contains("\"warm_artifact\""), "{json}");
        assert!(json.contains("\"state\":\"refused\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_rendering_round_trips_through_the_parser() {
        let dir = fresh_dir("json");
        write_journal(&dir, &sample_records());
        let s = read_status(&dir).unwrap();
        let text = s.to_json().to_string();
        let parsed = vadasa_core::obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("committed")
                .and_then(|c| c.get("iterations"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("progress")
                .and_then(|p| p.get("eta_iterations"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            parsed.get("state").and_then(|v| v.as_str()),
            Some("running")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fleet recovery and `vadasa_status` read every job directory
    /// alike, an unreadable marker or one naming an unknown state
    /// included: both read it as `failed`.
    #[test]
    fn recovery_and_status_read_every_job_directory_alike() {
        use vadasa_server::spec::{MANIFEST_FILE, MARKER_FILE};
        use vadasa_server::{JobServer, JobSpec, MeasureSpec, ServerConfig, ShutdownMode};
        let root = fresh_dir("alike");
        let csv = "id,area,weight\n1,North,9\n2,North,2\n3,South,5\n4,South,1\n";
        let spec = JobSpec::from_csv("survey", csv, MeasureSpec::KAnonymity(2)).unwrap();
        let marker = |state| Some(Marker::new(state, 1).to_json());
        let boom = Marker {
            error: Some("cycle: boom".into()),
            ..Marker::new(JobState::Failed, 2)
        };
        // (job, its marker, the state both read before recovery)
        let jobs = [
            ("done", marker(JobState::Done), "done"),
            ("failed", Some(boom.to_json()), "failed"),
            ("cancelled", marker(JobState::Cancelled), "cancelled"),
            ("interrupted", marker(JobState::Interrupted), "interrupted"),
            ("unmarked", None, "queued"),
            ("corrupt", Some("{\"state\":".into()), "failed"),
            ("unknown", Some("{\"state\":\"paused\"}".into()), "failed"),
        ];
        for (id, marker, _) in &jobs {
            let dir = root.join(id);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(MANIFEST_FILE), spec.to_manifest_json()).unwrap();
            if let Some(text) = marker {
                std::fs::write(dir.join(MARKER_FILE), text).unwrap();
            }
        }
        // A stray non-job directory is ignored.
        std::fs::create_dir_all(root.join("not-a-job")).unwrap();
        let states = |jobs: &[JobDirStatus]| -> Vec<(String, String)> {
            jobs.iter()
                .map(|j| (j.id.clone(), j.state().to_string()))
                .collect()
        };
        let mut before: Vec<_> = jobs
            .iter()
            .map(|(id, _, state)| (id.to_string(), state.to_string()))
            .collect();
        before.sort();
        let listing = read_jobs_root(&root).unwrap();
        assert_eq!(states(&listing), before);
        let json = jobs_to_json(&listing).to_string();
        assert!(json.contains("\"state\":\"queued\""), "{json}");

        // Recovery honours every marker and resumes the interrupted and
        // the unmarked job, which then release and are marked done.
        let server = JobServer::start(ServerConfig::new(&root)).unwrap();
        assert!(server.wait_idle(std::time::Duration::from_secs(60)));
        let recovered: Vec<_> = server
            .list()
            .iter()
            .map(|r| (r.id.clone(), r.state.name().to_string()))
            .collect();
        server.shutdown(ShutdownMode::Drain);
        let listing = read_jobs_root(&root).unwrap();
        assert_eq!(states(&listing), recovered);
        for (job, (id, state)) in listing.iter().zip(recovered) {
            let want = match id.as_str() {
                "interrupted" | "unmarked" => "done",
                "corrupt" | "unknown" => "failed",
                other => other,
            };
            assert_eq!(state, want, "{id}");
            assert_eq!(job.storage.as_deref(), Some("mem"), "{id}");
            let error = job.error.as_deref().unwrap_or_default();
            let unreadable = error.starts_with("unreadable marker");
            assert_eq!(
                unreadable,
                ["corrupt", "unknown"].contains(&&*id),
                "{error}"
            );
        }
        let unmarked = listing.iter().find(|j| j.id == "unmarked").unwrap();
        assert!(unmarked
            .status
            .as_ref()
            .is_some_and(|s| s.finished == Some(true)));
        let table = render_jobs_table(&listing);
        assert!(table.starts_with("JOB"), "{table}");
        assert!(table.contains("failed: cycle: boom"), "{table}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
