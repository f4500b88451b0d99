//! The durable matrix: every file the journaled cycle keeps on disk — the
//! write-ahead journal, its snapshots and the warm-stats artifact beside
//! them — under kill points, injected I/O faults and hostile bytes. A
//! resume must be bit-identical to a run that was never interrupted, or
//! fail with a structured error: never a panic, never a silent divergence.
//!
//! 1. **Golden bytes** — the Fig. 5 run's journal, warm artifact and
//!    snapshots match the committed `tests/golden/durable/` files byte for
//!    byte, and snapshots of the older layouts are refused.
//! 2. **Kill-point sweeps** — truncate a finished run's journal at every
//!    frame boundary and midpoint and resume (with snapshots, with warm
//!    artifacts restored from disk); crash the writer
//!    itself after every byte of each file kind.
//! 3. **Fault rows** — one [`IoFault`] aimed at the file kinds it names:
//!    write-side faults under both I/O-error policies, which never leave a
//!    temp file behind; read-side faults, which are structured errors on
//!    the journal and fall back to the reference on snapshots and
//!    artifacts.
//! 4. **Hostile files** — alien bytes, wrong versions, fingerprint
//!    mismatches, snapshot records naming files outside the journal
//!    directory, a record nesting values a million levels deep, corrupt
//!    or missing snapshots and artifacts, snapshots whose cells do not fit
//!    the table, and two mutation properties: one through resume, one
//!    through the decoder of the journal, the snapshot and the warm-stats
//!    artifact.
//! 5. **The fsync schedule** — a counting I/O layer under a degraded run
//!    and its resume, under every sync policy: one fsync per durable
//!    point, none on a clean file.
//!
//! CI runs the suite at 1 and 4 test threads.

use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vadalog::backend::{DurableIo, FileIo, FileKind, Sink, StorageEngine, StorageError};
use vadalog::frame::{put_frame, wire};
use vadalog::Value;
use vadasa_core::checkpoint::Checkpoint;
use vadasa_core::colstore::{decode_warm_stats, encode_warm_stats};
use vadasa_core::cycle::{
    AnonymizationCycle, CycleConfig, CycleError, CycleOutcome, StepGranularity, StorageOptions,
    WarmCycleProfile,
};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::faults::{faulty_io, IoFault, JOURNAL_KINDS};
use vadasa_core::journal::record::{self, JournalRecord, MAGIC};
use vadasa_core::journal::{IoErrorPolicy, JournalConfig, JournalError, SyncPolicy, JOURNAL_FILE};
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::model::MicrodataDb;
use vadasa_core::prelude::{KAnonymity, LocalSuppression};
use vadasa_core::risk::MicrodataView;
use vadasa_datagen::generate_households;

/// The on-disk file name of the persisted warm-statistics artifact.
const WARM_FILE: &str = "cycle.warmstats.vart";

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique, initially-absent temp directory (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vadasa-durable-{}-{n}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/durable/{name}"))
}

/// Every observable output of a run, rendered canonically: if two
/// transcripts are equal, the runs were indistinguishable — same table,
/// same (bitwise) risks, same audit trail, same termination.
fn transcript(o: &CycleOutcome) -> String {
    let mut t = String::new();
    let _ = writeln!(
        t,
        "iterations={} nulls={} recodings={} initial_risky={} final_risky={}",
        o.iterations, o.nulls_injected, o.recodings, o.initial_risky, o.final_risky
    );
    let _ = writeln!(
        t,
        "termination={:?} loss_bits={:016x}",
        o.termination,
        o.information_loss.to_bits()
    );
    for (i, r) in o.final_report.risks.iter().enumerate() {
        let _ = writeln!(t, "risk[{i}]={:016x}", r.to_bits());
    }
    for (i, d) in o.final_report.details.iter().enumerate() {
        let _ = writeln!(
            t,
            "detail: frequency={} weight={:016x} note={}",
            d.frequency,
            d.weight_sum.to_bits(),
            o.final_report.note(i)
        );
    }
    for d in &o.audit.decisions {
        let _ = writeln!(
            t,
            "audit iter={} row={} measure={} risk={:016x} action={:?}",
            d.iteration,
            d.row,
            d.measure,
            d.risk.to_bits(),
            d.action
        );
    }
    for r in 0..o.db.len() {
        let _ = writeln!(t, "row[{r}]={:?}", o.db.row(r).expect("row in range"));
    }
    t
}

fn file_engine() -> StorageOptions {
    StorageOptions {
        engine: StorageEngine::File,
        ..StorageOptions::default()
    }
}

/// A workload: table, dictionary and risk measure (the anonymizer is
/// always local suppression).
struct Case {
    db: MicrodataDb,
    dict: MetadataDictionary,
    risk: KAnonymity,
}

impl Case {
    /// The Fig. 5 table from the paper: 7 rows, small enough for per-byte
    /// sweeps, with several one-tuple iterations.
    fn fig5() -> Case {
        let mut db =
            MicrodataDb::new("fig5", ["Id", "Area", "Sector", "Employees", "ResRev", "W"]).unwrap();
        let rows = [
            ("099876", "Roma", "Textiles", "1000+", "0-30", 10),
            ("765389", "Roma", "Commerce", "1000+", "0-30", 20),
            ("231654", "Roma", "Commerce", "1000+", "0-30", 20),
            ("097302", "Roma", "Financial", "1000+", "0-30", 30),
            ("120967", "Roma", "Financial", "1000+", "0-30", 30),
            ("232498", "Milano", "Construction", "0-200", "60-90", 5),
            ("340901", "Torino", "Construction", "0-200", "60-90", 5),
        ];
        for (id, a, s, e, r, w) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(a),
                Value::str(s),
                Value::str(e),
                Value::str(r),
                Value::Int(w),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "Employees", "ResRev", "W"] {
            dict.register_attr("fig5", a, "");
        }
        dict.set_category("fig5", "Id", Category::Identifier)
            .unwrap();
        for a in ["Area", "Sector", "Employees", "ResRev"] {
            dict.set_category("fig5", a, Category::QuasiIdentifier)
                .unwrap();
        }
        dict.set_category("fig5", "W", Category::Weight).unwrap();
        Case {
            db,
            dict,
            risk: KAnonymity::new(2),
        }
    }

    /// 24 synthetic households under 3-anonymity: a bigger journal.
    fn households(seed: u64) -> Case {
        let survey = generate_households(24, seed);
        Case {
            db: survey.db,
            dict: survey.dict,
            risk: KAnonymity::new(3),
        }
    }

    fn cycle(&self, config: &CycleConfig, journal: Option<JournalConfig>) -> CycleConfig {
        CycleConfig {
            journal,
            ..config.clone()
        }
    }

    /// Transcript of the uninterrupted in-memory run: no journal, no
    /// artifacts.
    fn reference(&self, config: &CycleConfig) -> String {
        let config = CycleConfig {
            storage: StorageOptions::default(),
            ..self.cycle(config, None)
        };
        let anon = LocalSuppression::default();
        let out = AnonymizationCycle::new(&self.risk, &anon, config)
            .run(&self.db, &self.dict)
            .expect("reference run");
        transcript(&out)
    }

    fn run(&self, config: &CycleConfig, jcfg: JournalConfig) -> Result<CycleOutcome, CycleError> {
        let anon = LocalSuppression::default();
        AnonymizationCycle::new(&self.risk, &anon, self.cycle(config, Some(jcfg)))
            .run(&self.db, &self.dict)
    }

    fn resume(
        &self,
        config: &CycleConfig,
        jcfg: JournalConfig,
    ) -> Result<CycleOutcome, CycleError> {
        let anon = LocalSuppression::default();
        AnonymizationCycle::new(&self.risk, &anon, self.cycle(config, Some(jcfg)))
            .resume(&self.db, &self.dict)
    }
}

fn fig5_config() -> CycleConfig {
    CycleConfig {
        granularity: StepGranularity::OneTuplePerIteration,
        ..CycleConfig::default()
    }
}

fn households_config() -> CycleConfig {
    CycleConfig {
        granularity: StepGranularity::AllRiskyPerIteration,
        ..CycleConfig::default()
    }
}

fn snapshot_every(n: Option<u32>, dir: &Path) -> JournalConfig {
    JournalConfig {
        snapshot_every: n,
        ..JournalConfig::new(dir)
    }
}

/// Every kill point of a journal byte buffer: offsets inside the magic
/// header, every frame boundary, and the midpoint of every frame.
fn kill_points(bytes: &[u8]) -> Vec<usize> {
    let mut kills = vec![0, MAGIC.len() / 2, MAGIC.len()];
    let mut prev = MAGIC.len();
    for b in record::frame_boundaries(bytes) {
        kills.push(prev + (b - prev) / 2); // mid-record
        kills.push(b); // record boundary
        prev = b;
    }
    kills.sort_unstable();
    kills.dedup();
    kills
}

/// Copy `from`'s files whose names end in one of `suffixes` into `to`.
fn copy_files(from: &Path, to: &Path, suffixes: &[&str]) {
    for e in fs::read_dir(from).expect("read dir").flatten() {
        let name = e.file_name();
        if suffixes.iter().any(|s| name.to_string_lossy().ends_with(s)) {
            fs::copy(e.path(), to.join(&name)).expect("copy file");
        }
    }
}

/// A journal directory holding `journal` (and nothing else yet).
fn dir_with_journal(tag: &str, journal: &[u8]) -> PathBuf {
    let dir = fresh_dir(tag);
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join(JOURNAL_FILE), journal).expect("write journal");
    dir
}

/// Files an interrupted atomic write left behind in `dir`.
fn temp_files(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

// --- 1. golden bytes ---------------------------------------------------------

#[test]
fn fig5_journal_and_warm_artifact_match_the_goldens() {
    // The run the goldens were recorded from: Fig. 5, one tuple per
    // iteration, file engine, a snapshot every iteration. Pins the
    // journal layout the benchmark walks, the wire value encoding, the
    // run fingerprint (which hashes cells through it) and the snapshot
    // layout: each snapshot holds only the cells the run has changed.
    let dir = fresh_dir("golden");
    let config = CycleConfig {
        storage: file_engine(),
        ..fig5_config()
    };
    Case::fig5()
        .run(&config, snapshot_every(Some(1), &dir))
        .expect("journaled run");
    for name in [
        JOURNAL_FILE,
        WARM_FILE,
        "snapshot-1.vsnap",
        "snapshot-2.vsnap",
    ] {
        let want = fs::read(golden(name)).expect("golden file");
        let got = fs::read(dir.join(name)).expect("durable file");
        assert!(
            got == want,
            "{name} differs from tests/golden/durable/{name}: the durable byte format changed"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version2_snapshots_are_refused_and_resume_replays_the_journal() {
    // Snapshots of older layouts beside the golden journal that
    // references them: a VADASAS2 one, written before snapshots moved
    // onto the shared header, and a VADASAS3 one, which held the whole
    // table.
    let case = Case::fig5();
    let config = CycleConfig {
        storage: file_engine(),
        ..fig5_config()
    };
    let reference = case.reference(&config);
    for old in ["snapshot-1.v2.vsnap", "snapshot-1.v3.vsnap"] {
        let dir = dir_with_journal(
            "old-snapshot",
            &fs::read(golden(JOURNAL_FILE)).expect("golden"),
        );
        fs::copy(golden(old), dir.join("snapshot-1.vsnap")).expect("copy");
        assert!(
            matches!(
                Checkpoint::read(&dir.join("snapshot-1.vsnap")),
                Err(StorageError::BadMagic { .. })
            ),
            "{old} was not refused"
        );
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume past a refused snapshot");
        assert_eq!(transcript(&resumed), reference, "{old}");
        assert!(
            resumed.profile.journal.replayed_actions > 0,
            "{old}: the refused snapshot must fall back to replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

// --- 2. kill-point sweeps ----------------------------------------------------

#[test]
fn fig5_killed_at_every_boundary_and_midpoint_resumes_identically() {
    let case = Case::fig5();
    let config = fig5_config();
    let reference = case.reference(&config);

    // The uninterrupted journaled run is itself equivalent — journaling
    // is an observer, not an intervention.
    let ref_dir = fresh_dir("fig5-ref");
    let journaled = case
        .run(&config, snapshot_every(Some(2), &ref_dir))
        .expect("journaled run");
    assert_eq!(
        transcript(&journaled),
        reference,
        "journaling changed the run"
    );
    assert!(journaled.profile.journal.records_written > 2);
    assert!(journaled.profile.journal.snapshots_written >= 1);
    assert!(journaled.profile.journal.fsyncs > 0);

    let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal on disk");
    let kills = kill_points(&bytes);
    assert!(kills.len() >= 7, "workload too small to matter: {kills:?}");
    let bounds = record::frame_boundaries(&bytes);

    for &k in &kills {
        let dir = dir_with_journal(&format!("fig5-kill-{k}"), &bytes[..k]);
        copy_files(&ref_dir, &dir, &[".vsnap"]);
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .unwrap_or_else(|e| panic!("kill at byte {k}: resume failed: {e}"));
        assert_eq!(
            transcript(&resumed),
            reference,
            "kill at byte {k} of {} diverged",
            bytes.len()
        );
        // A mid-record kill always leaves a torn tail to truncate; a kill
        // at a clean boundary may legitimately have no recovery work
        // (e.g. exactly after `Begin`).
        if k > MAGIC.len() && !bounds.contains(&k) {
            assert!(
                resumed.profile.journal.truncated_bytes > 0,
                "kill at byte {k}: torn tail was not truncated"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    // A resumed journal is itself resumable: crash-after-resume is just
    // another kill point.
    let dir = dir_with_journal("fig5-rekill", &bytes[..kills[kills.len() / 2]]);
    for _ in 0..2 {
        let again = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume");
        assert_eq!(transcript(&again), reference);
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn households_kill_sweep_with_snapshots() {
    let case = Case::households(0xC4A5);
    let config = households_config();
    let reference = case.reference(&config);

    let ref_dir = fresh_dir("hh-ref");
    let journaled = case
        .run(&config, snapshot_every(Some(1), &ref_dir))
        .expect("journaled run");
    assert_eq!(transcript(&journaled), reference);
    assert!(journaled.profile.journal.snapshots_written >= 1);

    let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal on disk");
    for &k in &kill_points(&bytes) {
        let dir = dir_with_journal(&format!("hh-kill-{k}"), &bytes[..k]);
        copy_files(&ref_dir, &dir, &[".vsnap"]);
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .unwrap_or_else(|e| panic!("kill at byte {k}: resume failed: {e}"));
        assert_eq!(transcript(&resumed), reference, "kill at byte {k} diverged");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn file_engine_kill_sweep_restores_warm_stats_from_disk() {
    let case = Case::households(0x5707);
    let config = CycleConfig {
        storage: file_engine(),
        ..households_config()
    };
    let reference = case.reference(&config);

    let ref_dir = fresh_dir("warm-ref");
    let journaled = case
        .run(&config, snapshot_every(Some(1), &ref_dir))
        .expect("journaled run");
    assert_eq!(
        transcript(&journaled),
        reference,
        "file-backed journaling changed the run"
    );
    assert_eq!(journaled.profile.warm.persist_errors, 0);
    let artifact = fs::read(ref_dir.join(WARM_FILE)).expect("the file engine persists warm stats");

    // Truncate at every frame boundary, copy snapshots and the artifact
    // beside it, resume. At least the post-final-snapshot kill points
    // must actually seed from disk.
    let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal on disk");
    let bounds = record::frame_boundaries(&bytes);
    assert!(bounds.len() >= 4, "workload too small: {bounds:?}");
    let mut restores = 0u64;
    for &k in &bounds {
        let dir = dir_with_journal(&format!("warm-kill-{k}"), &bytes[..k]);
        copy_files(&ref_dir, &dir, &[".vsnap", ".vart"]);
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume");
        assert_eq!(transcript(&resumed), reference, "kill at byte {k} diverged");
        restores += resumed.profile.warm.disk_restores;
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(
        restores >= 1,
        "no kill point ever re-warmed from the persisted artifact"
    );

    // The in-memory engine ignores the artifact entirely — and agrees.
    let dir = dir_with_journal("warm-mem-resume", &bytes);
    fs::write(dir.join(WARM_FILE), &artifact).expect("write artifact");
    let mem_config = CycleConfig {
        storage: StorageOptions::default(),
        ..config.clone()
    };
    let resumed = case
        .resume(&mem_config, JournalConfig::new(&dir))
        .expect("resume");
    assert_eq!(transcript(&resumed), reference);
    assert_eq!(resumed.profile.warm.disk_restores, 0);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn in_memory_engine_writes_no_artifacts() {
    let case = Case::fig5();
    let dir = fresh_dir("mem-engine");
    let outcome = case
        .run(&fig5_config(), snapshot_every(Some(1), &dir))
        .expect("journaled run");
    assert_eq!(outcome.profile.warm.disk_restores, 0);
    assert_eq!(outcome.profile.warm.persist_errors, 0);
    let artifacts: Vec<String> = fs::read_dir(&dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".vart"))
        .collect();
    assert!(
        artifacts.is_empty(),
        "mem engine wrote artifacts: {artifacts:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_after_every_byte_of_each_kind_then_clean_resume() {
    // The writer itself produces the torn file: a CrashAfterBytes fault
    // persists exactly k bytes of the aimed kind (tearing mid-write where
    // k falls inside one) and then fails every later append and sync.
    let case = Case::fig5();
    let config = CycleConfig {
        storage: file_engine(),
        ..fig5_config()
    };
    let reference = case.reference(&config);
    for kind in [FileKind::Journal, FileKind::Snapshot, FileKind::Artifact] {
        // Journal budgets come from a snapshot-free journal, so they map
        // 1:1 onto its offsets; the other kinds sweep every byte of the
        // first file of their kind.
        let every = (kind != FileKind::Journal).then_some(1);
        let ref_dir = fresh_dir("crash-ref");
        case.run(&config, snapshot_every(every, &ref_dir))
            .expect("journaled run");
        let budgets: Vec<usize> = match kind {
            FileKind::Journal => {
                let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal");
                kill_points(&bytes)
                    .into_iter()
                    .filter(|&k| k < bytes.len())
                    .collect()
            }
            FileKind::Snapshot => (0..=fs::metadata(ref_dir.join("snapshot-1.vsnap"))
                .expect("snapshot")
                .len() as usize)
                .collect(),
            FileKind::Artifact => (0..=fs::metadata(ref_dir.join(WARM_FILE))
                .expect("artifact")
                .len() as usize)
                .collect(),
        };
        let _ = fs::remove_dir_all(&ref_dir);

        for k in budgets {
            let dir = fresh_dir(&format!("crash-{kind:?}-{k}"));
            let faulty = JournalConfig {
                io: faulty_io(IoFault::CrashAfterBytes { bytes: k }, &[kind]),
                ..snapshot_every(every, &dir)
            };
            let run = case.run(&config, faulty);
            match (kind, run) {
                // an artifact is a cache: losing it never fails the run
                (FileKind::Artifact, Ok(out)) => {
                    assert_eq!(
                        transcript(&out),
                        reference,
                        "{kind:?} crash after {k} bytes"
                    );
                    assert!(out.profile.warm.persist_errors >= 1);
                }
                (FileKind::Journal | FileKind::Snapshot, Err(CycleError::Journal(_))) => {}
                (_, other) => panic!("{kind:?} crash after {k} bytes: unexpected {other:?}"),
            }
            if kind == FileKind::Journal {
                let on_disk = fs::read(dir.join(JOURNAL_FILE)).expect("torn journal exists");
                assert!(
                    on_disk.len() <= k,
                    "crash after {k} bytes left {}",
                    on_disk.len()
                );
            }
            assert_eq!(
                temp_files(&dir),
                Vec::<String>::new(),
                "{kind:?} crash after {k}"
            );
            let resumed = case
                .resume(&config, JournalConfig::new(&dir))
                .unwrap_or_else(|e| panic!("{kind:?} crash after {k} bytes: resume failed: {e}"));
            assert_eq!(
                transcript(&resumed),
                reference,
                "{kind:?} crash after {k} bytes diverged"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

// --- 3. fault rows -----------------------------------------------------------

const ARTIFACT_KINDS: &[FileKind] = &[FileKind::Artifact];

/// Does `fault` hit writes (appends and syncs) rather than reads?
fn is_write_side(fault: IoFault) -> bool {
    !matches!(
        fault,
        IoFault::CorruptOnRead { .. }
            | IoFault::ReopenDenied
            | IoFault::AlienMagic
            | IoFault::FutureVersion
    )
}

/// The fault rows: each fault with the file kinds it is aimed at.
fn fault_rows() -> Vec<(IoFault, &'static [FileKind])> {
    use IoFault::*;
    let only_snapshots: &'static [FileKind] = &[FileKind::Snapshot];
    let only_journal: &'static [FileKind] = &[FileKind::Journal];
    let mut rows = Vec::new();
    // Journal and snapshot writes share one ordinal count. With a snapshot
    // every iteration, Fig. 5 appends the header at 1–2 (synced at 1);
    // then each of its two iterations appends an Action (3, 7; synced at
    // 2, 6), its Progress + Commit as one write (4, 8; synced at 3, 7),
    // the snapshot file (5, 9; synced at 4, 8) and its Snapshot record
    // (6, 10; synced at 5, 9).
    for fault in [
        WriteError { at_append: 7 }, // the second Action
        TornWrite {
            at_append: 4, // the first Progress + Commit
            keep_bytes: 5,
        },
        SyncError { at_sync: 2 },    // the first Action's sync
        FullDisk { from_append: 3 }, // from the first Action on
        TornWrite {
            at_append: 5, // the first snapshot file
            keep_bytes: 5,
        },
        TornWrite {
            at_append: 9, // the second snapshot file
            keep_bytes: 5,
        },
        SyncError { at_sync: 4 }, // the first snapshot file's sync
        SyncError { at_sync: 8 }, // the second snapshot file's sync
    ] {
        rows.push((fault, JOURNAL_KINDS));
    }
    for fault in [
        TornWrite {
            at_append: 1,
            keep_bytes: 9,
        },
        WriteError { at_append: 2 },
        SyncError { at_sync: 1 },
        FullDisk { from_append: 1 },
    ] {
        rows.push((fault, only_snapshots));
    }
    for fault in [
        TornWrite {
            at_append: 1,
            keep_bytes: 7,
        },
        TornWrite {
            at_append: 2,
            keep_bytes: 0,
        },
        FullDisk { from_append: 1 },
        FullDisk { from_append: 2 },
        CrashAfterBytes { bytes: 0 },
        CrashAfterBytes { bytes: 13 },
    ] {
        rows.push((fault, ARTIFACT_KINDS));
    }
    // Read-side faults on every kind.
    for kinds in [only_journal, only_snapshots, ARTIFACT_KINDS] {
        for fault in [
            CorruptOnRead { flip_byte: 3 },
            CorruptOnRead { flip_byte: 40 },
            ReopenDenied,
            AlienMagic,
            FutureVersion,
        ] {
            rows.push((fault, kinds));
        }
    }
    rows
}

#[test]
fn io_faults_end_in_a_structured_error_or_the_reference() {
    let case = Case::fig5();
    let config = CycleConfig {
        storage: file_engine(),
        ..fig5_config()
    };
    let reference = case.reference(&config);
    let healthy = |dir: &Path| JournalConfig::new(dir);

    for (fault, kinds) in fault_rows() {
        let aims_at_cycle_state = kinds != ARTIFACT_KINDS;
        let policies = if is_write_side(fault) && aims_at_cycle_state {
            &[IoErrorPolicy::Fail, IoErrorPolicy::Disable][..]
        } else {
            &[IoErrorPolicy::Fail][..]
        };
        for &policy in policies {
            let row = format!("{fault} on {kinds:?} under {policy:?}");
            let dir = fresh_dir("fault");
            let faulty = |dir: &Path| JournalConfig {
                on_io_error: policy,
                io: faulty_io(fault, kinds),
                ..snapshot_every(Some(1), dir)
            };
            match (case.run(&config, faulty(&dir)), is_write_side(fault)) {
                (Err(CycleError::Journal(JournalError::Io { .. })), true)
                    if aims_at_cycle_state && policy == IoErrorPolicy::Fail => {}
                (Ok(out), true) if aims_at_cycle_state && policy == IoErrorPolicy::Disable => {
                    assert_eq!(transcript(&out), reference, "{row}: outcome changed");
                    assert!(out.profile.journal.io_errors >= 1, "{row}: not counted");
                }
                (Ok(out), true) => {
                    // an artifact write is a cache write, never load-bearing
                    assert_eq!(transcript(&out), reference, "{row}: run diverged");
                    assert!(out.profile.warm.persist_errors >= 1, "{row}: not counted");
                }
                (Ok(out), false) => {
                    // a fresh run reads nothing
                    assert_eq!(transcript(&out), reference, "{row}: run diverged");
                    assert_eq!(out.profile.warm.persist_errors, 0, "{row}");
                }
                (other, _) => panic!("{row}: unexpected run result {other:?}"),
            }
            assert_eq!(
                temp_files(&dir),
                Vec::<String>::new(),
                "{row}: temp file left"
            );

            // Write faults on cycle state resume with healthy I/O; every
            // other row resumes through the same fault (fresh ordinals).
            let jcfg = if is_write_side(fault) && aims_at_cycle_state {
                healthy(&dir)
            } else {
                faulty(&dir)
            };
            // A journal that cannot be read is refused (always, when the
            // read is denied) or recovers; every other row recovers.
            let journal_read = !is_write_side(fault) && kinds == [FileKind::Journal];
            match case.resume(&config, jcfg) {
                Err(CycleError::Journal(e)) if journal_read => assert!(
                    fault != IoFault::ReopenDenied || matches!(e, JournalError::Io { .. }),
                    "{row}: {e}"
                ),
                Ok(out) if !(journal_read && fault == IoFault::ReopenDenied) => {
                    assert_eq!(transcript(&out), reference, "{row}: resume diverged");
                    if !is_write_side(fault) && kinds == ARTIFACT_KINDS {
                        assert_eq!(
                            out.profile.warm.disk_restores, 0,
                            "{row}: seeded warm state"
                        );
                    }
                    if !is_write_side(fault) && kinds == [FileKind::Snapshot] {
                        assert!(
                            out.profile.journal.replayed_actions > 0,
                            "{row}: the snapshot was not refused"
                        );
                    }
                }
                other => panic!("{row}: unexpected resume result {other:?}"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

// --- 4. hostile files --------------------------------------------------------

#[test]
fn hostile_journals_are_structured_errors_never_panics() {
    let case = Case::fig5();
    let config = fig5_config();
    let reference = case.reference(&config);
    let journal_err = |r: Result<CycleOutcome, CycleError>, what: &str| match r {
        Err(CycleError::Journal(e)) => e,
        Err(other) => panic!("{what}: wrong error kind: {other}"),
        Ok(_) => panic!("{what}: should not have resumed"),
    };

    // Missing directory / missing file.
    let e = journal_err(
        case.resume(&config, JournalConfig::new(fresh_dir("hostile-missing"))),
        "missing journal",
    );
    assert!(matches!(e, JournalError::Missing(_)), "{e}");

    // Resume without journal configured at all.
    let anon = LocalSuppression::default();
    let e = journal_err(
        AnonymizationCycle::new(&case.risk, &anon, config.clone()).resume(&case.db, &case.dict),
        "unconfigured resume",
    );
    assert!(matches!(e, JournalError::NotConfigured), "{e}");

    // An empty file is a crash during creation: resume restarts cleanly.
    let dir = dir_with_journal("hostile-empty", b"");
    let resumed = case
        .resume(&config, JournalConfig::new(&dir))
        .expect("empty journal restarts");
    assert_eq!(transcript(&resumed), reference);
    let _ = fs::remove_dir_all(&dir);

    // Alien bytes under the journal's name are not ours to touch.
    let dir = dir_with_journal("hostile-alien", b"\x89PNG\r\n\x1a\nnot a journal");
    let e = journal_err(case.resume(&config, JournalConfig::new(&dir)), "alien file");
    assert!(matches!(e, JournalError::Mismatch(_)), "{e}");
    let _ = fs::remove_dir_all(&dir);

    // A future format version is refused, not misread.
    let begin = JournalRecord::Begin {
        version: record::FORMAT_VERSION + 1,
        fingerprint: 0,
        measure: "k-anonymity".into(),
        anonymizer: "local-suppression".into(),
        rows: case.db.len() as u64,
    };
    let mut alien = MAGIC.to_vec();
    alien.extend_from_slice(&begin.encode());
    let dir = dir_with_journal("hostile-version", &alien);
    let e = journal_err(
        case.resume(&config, JournalConfig::new(&dir)),
        "future version",
    );
    assert!(matches!(e, JournalError::Mismatch(_)), "{e}");
    let _ = fs::remove_dir_all(&dir);

    // An Action record whose `previous` cell nests a million one-element
    // sets (5 MB, CRC-valid): the decoder refuses it at a fixed depth
    // instead of recursing until the stack overflows.
    let seed = fresh_dir("hostile-nested-seed");
    case.run(&config, JournalConfig::new(&seed))
        .expect("seed journal");
    let mut nested = fs::read(seed.join(JOURNAL_FILE)).expect("journal");
    let _ = fs::remove_dir_all(&seed);
    let mut payload = vec![1]; // Action
    for field in [0, 0, 0.5f64.to_bits()] {
        wire::put_u64(&mut payload, field);
    }
    wire::put_str(&mut payload, "k-anonymity");
    payload.push(0); // Suppress
    wire::put_u64(&mut payload, 0);
    wire::put_str(&mut payload, "Sector");
    for _ in 0..1_000_000 {
        payload.push(5);
        wire::put_u32(&mut payload, 1);
    }
    wire::put_value(&mut payload, &Value::Int(0));
    put_frame(&mut nested, &payload);
    let dir = dir_with_journal("hostile-nested", &nested);
    match case.resume(&config, JournalConfig::new(&dir)) {
        Ok(resumed) => assert_eq!(transcript(&resumed), reference),
        Err(CycleError::Journal(_)) => {}
        Err(other) => panic!("nested sets: wrong error kind: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);

    // Snapshot records that name a valid snapshot outside the journal
    // directory, by absolute path or through `..`: recovery never reads
    // it there, and resume replays every committed action.
    let outside = fresh_dir("hostile-outside");
    case.run(&config, snapshot_every(Some(1), &outside))
        .expect("seed journal with snapshots");
    assert!(Checkpoint::read(&outside.join("snapshot-1.vsnap")).is_ok());
    let journal = fs::read(outside.join(JOURNAL_FILE)).expect("journal");
    let every_action = committed_actions(&journal);
    assert!(every_action > 0);
    let sibling = outside
        .file_name()
        .expect("name")
        .to_string_lossy()
        .into_owned();
    let absolute = rename_snapshots(&journal, |f| outside.join(f).display().to_string());
    let relative = rename_snapshots(&journal, |f| format!("../{sibling}/{f}"));
    for planted in [absolute, relative] {
        let dir = dir_with_journal("hostile-planted", &planted);
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume past a planted snapshot");
        assert_eq!(transcript(&resumed), reference);
        assert_eq!(
            resumed.profile.journal.replayed_actions, every_action,
            "a snapshot outside the journal directory was read"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&outside);

    // A real journal resumed under a different configuration or table.
    let dir = fresh_dir("hostile-fingerprint");
    case.run(&config, JournalConfig::new(&dir))
        .expect("seed journal");
    let other_threshold = CycleConfig {
        threshold: 0.25,
        ..config.clone()
    };
    let e = journal_err(
        case.resume(&other_threshold, JournalConfig::new(&dir)),
        "changed threshold",
    );
    assert!(matches!(e, JournalError::Mismatch(_)), "{e}");
    let mut grown = Case::fig5();
    grown
        .db
        .push_row(vec![
            Value::str("999999"),
            Value::str("Bari"),
            Value::str("Textiles"),
            Value::str("0-200"),
            Value::str("0-30"),
            Value::Int(1),
        ])
        .expect("push");
    let e = journal_err(
        grown.resume(&config, JournalConfig::new(&dir)),
        "changed table",
    );
    assert!(matches!(e, JournalError::Mismatch(_)), "{e}");

    // And `run` refuses to silently overwrite it.
    let e = journal_err(
        case.run(&config, JournalConfig::new(&dir)),
        "re-run over a journal",
    );
    assert!(matches!(e, JournalError::AlreadyExists(_)), "{e}");
    let _ = fs::remove_dir_all(&dir);
}

/// `journal` with each `Snapshot` record's file name passed through
/// `rename`.
fn rename_snapshots(journal: &[u8], rename: impl Fn(&str) -> String) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    for (rec, _) in record::records(journal) {
        let rec = match rec {
            JournalRecord::Snapshot { iterations, file } => JournalRecord::Snapshot {
                iterations,
                file: rename(&file),
            },
            other => other,
        };
        out.extend_from_slice(&rec.encode());
    }
    out
}

/// Actions of `journal`'s committed iterations: what a resume with no
/// usable snapshot replays.
fn committed_actions(journal: &[u8]) -> u64 {
    let records: Vec<JournalRecord> = record::records(journal).map(|(r, _)| r).collect();
    let committed = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Commit { iterations, .. } => Some(*iterations),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Action { iteration, .. } if *iteration < committed))
        .count() as u64
}

#[test]
fn hostile_snapshot_cells_are_corrupt_and_recovery_falls_back() {
    // The newest snapshot passes the frame and the fingerprint, but its
    // cells lie outside the table or out of ascending order: it is
    // `Corrupt`, and recovery falls back to the older snapshot.
    let case = Case::fig5();
    let config = fig5_config();
    let reference = case.reference(&config);
    let ref_dir = fresh_dir("cells-ref");
    case.run(&config, snapshot_every(Some(1), &ref_dir))
        .expect("journaled run");
    let journal = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal");
    let newest = (1..)
        .map(Checkpoint::file_name)
        .take_while(|f| ref_dir.join(f).exists())
        .last()
        .expect("the run wrote snapshots");
    let valid = Checkpoint::read(&ref_dir.join(&newest)).expect("valid snapshot");

    let (rows, width) = (case.db.len() as u32, case.db.attributes().len() as u32);
    let null = Value::Null(0);
    for cells in [
        vec![(rows, 0, null.clone())],                    // row past the end
        vec![(0, width, null.clone())],                   // column past the end
        vec![(1, 1, null.clone()), (0, 1, null.clone())], // rows descending
        vec![(0, 2, null.clone()), (0, 1, null.clone())], // columns descending
        vec![(0, 1, null.clone()), (0, 1, null.clone())], // one cell twice
    ] {
        let bytes = Checkpoint {
            cells: cells.clone(),
            ..valid.clone()
        }
        .encode();
        let refused = Checkpoint::decode("s", &bytes, Some(valid.fingerprint))
            .and_then(|cp| cp.apply(&case.db));
        assert!(
            matches!(refused, Err(StorageError::Corrupt { .. })),
            "{cells:?} was accepted"
        );
        let dir = dir_with_journal("hostile-cells", &journal);
        copy_files(&ref_dir, &dir, &[".vsnap"]);
        fs::write(dir.join(&newest), &bytes).expect("plant");
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume past a corrupt snapshot");
        assert_eq!(transcript(&resumed), reference, "{cells:?}");
        assert!(
            resumed.profile.journal.replayed_actions > 0,
            "{cells:?}: recovery did not fall back"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn corrupt_or_missing_snapshots_fall_back_without_changing_the_outcome() {
    let case = Case::households(0xC4A5);
    let config = households_config();
    let reference = case.reference(&config);

    let ref_dir = fresh_dir("snap-ref");
    case.run(&config, snapshot_every(Some(1), &ref_dir))
        .expect("journaled run");
    let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal");
    let snapshots: Vec<PathBuf> = fs::read_dir(&ref_dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "vsnap"))
        .collect();
    assert!(!snapshots.is_empty(), "workload produced no snapshots");
    // Kill right at the end: the journal references every snapshot.
    let kill = *record::frame_boundaries(&bytes).last().expect("frames");

    // (a) every snapshot byte-corrupted → replay from the original table
    let dir = dir_with_journal("snap-corrupt", &bytes[..kill]);
    for s in &snapshots {
        let mut content = fs::read(s).expect("snapshot");
        let mid = content.len() / 2;
        content[mid] ^= 0x40;
        fs::write(dir.join(s.file_name().expect("name")), &content).expect("write");
    }
    let resumed = case
        .resume(&config, JournalConfig::new(&dir))
        .expect("resume past corrupt snapshots");
    assert_eq!(transcript(&resumed), reference, "corrupt-snapshot fallback");
    let _ = fs::remove_dir_all(&dir);

    // (b) snapshots deleted outright → same fallback
    let dir = dir_with_journal("snap-missing", &bytes[..kill]);
    let resumed = case
        .resume(&config, JournalConfig::new(&dir))
        .expect("resume without snapshots");
    assert_eq!(transcript(&resumed), reference, "missing-snapshot fallback");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn hostile_warm_artifacts_fall_back_cold_to_the_same_result() {
    // Mutate the persisted artifact directly — truncations, bit flips,
    // insertions, emptiness, alien magic, a future version — and resume.
    // Every mutant must be refused by the framed decoder and the session
    // must converge cold to the reference transcript.
    let case = Case::households(0x5707);
    let config = CycleConfig {
        storage: file_engine(),
        ..households_config()
    };
    let reference = case.reference(&config);

    let ref_dir = fresh_dir("hostile-ref");
    case.run(&config, snapshot_every(Some(1), &ref_dir))
        .expect("journaled run");
    let journal = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal");
    let artifact = fs::read(ref_dir.join(WARM_FILE)).expect("artifact");

    let mut mutants: Vec<Vec<u8>> = vec![
        Vec::new(),                              // empty file
        b"NOTAVADAxxxxyyyyzzzz".to_vec(),        // alien magic, alien body
        artifact[..artifact.len() / 2].to_vec(), // half the file
    ];
    let mut future = artifact.clone();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    mutants.push(future);
    let mut rng = XorShift(0x5707_2026);
    for _ in 0..24 {
        mutants.push(rng.mutate(&artifact));
    }

    for (mi, mutant) in mutants.iter().enumerate() {
        let dir = dir_with_journal(&format!("hostile-{mi}"), &journal);
        copy_files(&ref_dir, &dir, &[".vsnap"]);
        fs::write(dir.join(WARM_FILE), mutant).expect("write mutant");
        let resumed = case
            .resume(&config, JournalConfig::new(&dir))
            .expect("resume");
        assert_eq!(transcript(&resumed), reference, "mutant {mi} diverged");
        // One mutation always breaks the CRC/length/magic framing, so a
        // hostile artifact can never be mistaken for a warm seed.
        assert_eq!(
            resumed.profile.warm.disk_restores, 0,
            "mutant {mi} was accepted as a warm seed"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

/// Cheap deterministic randomness for mutations.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// One random mutation of `bytes`: truncate anywhere, flip any byte,
    /// insert a byte anywhere, or replace everything with byte soup.
    fn mutate(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut m = bytes.to_vec();
        match self.next() % 4 {
            0 => m.truncate((self.next() as usize) % (m.len() + 1)),
            1 if !m.is_empty() => {
                let i = (self.next() as usize) % m.len();
                m[i] ^= (self.next() % 255 + 1) as u8;
            }
            2 => {
                let i = (self.next() as usize) % (m.len() + 1);
                m.insert(i, self.next() as u8);
            }
            _ => {
                let len = (self.next() as usize) % (bytes.len() + 16);
                m = (0..len).map(|_| self.next() as u8).collect();
            }
        }
        m
    }
}

/// A small view with nulls and weights, whose group statistics are the
/// warm-stats artifact under mutation.
fn sample_view() -> MicrodataView {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let rows: Vec<Vec<Value>> = (0..24)
        .map(|_| {
            (0..3)
                .map(|_| match rng.next() % 9 {
                    0 => Value::Null(rng.next() % 4),
                    r => Value::Int(r as i64 % 5),
                })
                .collect()
        })
        .collect();
    let weights = (0..24).map(|i| (1 + i % 3) as f64).collect();
    MicrodataView::from_rows(
        vec!["a".into(), "b".into(), "c".into()],
        rows,
        Some(weights),
        NullSemantics::MaybeMatch,
    )
    .expect("view")
}

/// A mid-run checkpoint of the Fig. 5 table: one labelled null, one
/// exhausted row.
fn sample_checkpoint(fingerprint: u64) -> Checkpoint {
    let input = Case::fig5().db;
    let mut db = input.clone();
    let null = db.fresh_null();
    db.set_value(0, "Sector", null).expect("cell");
    Checkpoint {
        iterations: 1,
        fingerprint,
        cells: Checkpoint::changes(&input, &db),
        next_null: db.nulls_minted(),
        exhausted: [3usize].into_iter().collect(),
        nulls_injected: 1,
        recodings: 0,
        initial_risky: 2,
        warm: WarmCycleProfile::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single mutations of a valid journal — truncate anywhere,
    /// flip any byte, insert a byte anywhere — either resume to the
    /// reference transcript or fail with a structured journal error.
    #[test]
    fn mutated_journals_resume_identically_or_error_structurally(seed in 0u64..1_000_000) {
        let case = Case::fig5();
        let config = fig5_config();
        let reference = case.reference(&config);

        let ref_dir = fresh_dir(&format!("mut-ref-{seed}"));
        case.run(&config, snapshot_every(None, &ref_dir)).expect("journaled run");
        let bytes = fs::read(ref_dir.join(JOURNAL_FILE)).expect("journal");
        let _ = fs::remove_dir_all(&ref_dir);

        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let dir = dir_with_journal(&format!("mut-{seed}"), &rng.mutate(&bytes));
        match case.resume(&config, JournalConfig::new(&dir)) {
            Ok(resumed) => prop_assert_eq!(transcript(&resumed), reference.clone()),
            Err(CycleError::Journal(_)) => {} // structured refusal is fine
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One valid encoding of each durable kind — a journal stream, a
    /// snapshot and a warm-stats artifact — under one random truncation,
    /// bit flip, byte insertion or byte soup: each kind's decoder returns
    /// the original value or a structured error, never a panic and never
    /// a different value.
    #[test]
    fn mutated_files_of_every_kind_decode_to_the_original_or_refuse(seed in 0u64..1_000_000) {
        let mut rng = XorShift(seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1);
        let fp = 0x5EED_F00D;

        // Journal stream: the walker yields a prefix of the records.
        let golden = fs::read(golden(JOURNAL_FILE)).expect("golden journal");
        let records: Vec<JournalRecord> = record::records(&golden).map(|(r, _)| r).collect();
        prop_assert!(records.len() > 4);
        let mutant = rng.mutate(&golden);
        let walked: Vec<JournalRecord> = record::records(&mutant).map(|(r, _)| r).collect();
        prop_assert!(walked.len() <= records.len());
        prop_assert_eq!(&walked[..], &records[..walked.len()]);
        let _ = record::frame_boundaries(&mutant);

        // Snapshot: re-encoding a decoded mutant gives the original bytes.
        let snapshot = sample_checkpoint(fp).encode();
        if let Ok(cp) = Checkpoint::decode("s", &rng.mutate(&snapshot), Some(fp)) {
            prop_assert!(cp.encode() == snapshot, "a snapshot mutant decoded to another value");
        }

        // Warm-stats artifact.
        let stats = sample_view().group_stats();
        let encoded = encode_warm_stats(17, fp, &stats);
        if let Ok(ws) = decode_warm_stats(&rng.mutate(&encoded), Some(fp)) {
            prop_assert!(
                encode_warm_stats(ws.iterations, ws.fingerprint, &ws.stats) == encoded,
                "a warm-stats mutant decoded to another value"
            );
        }
    }
}

// --- 5. the fsync schedule ---------------------------------------------------

/// One call on a durable file, as [`CountingIo`] logs it.
#[derive(Debug)]
enum IoCall {
    /// An append: the names of the journal records it carries (`magic`
    /// for the header bytes), or its length on a snapshot or artifact.
    Append(Vec<&'static str>),
    Sync,
}

/// The calls of a run: the sink each was made on, its file kind, the call.
type IoLog = Arc<Mutex<Vec<(usize, FileKind, IoCall)>>>;

/// A [`DurableIo`] that does real file I/O and logs every append and
/// sync, numbering the sinks it opens.
#[derive(Debug, Default)]
struct CountingIo {
    log: IoLog,
    sinks: AtomicUsize,
}

impl CountingIo {
    fn take(&self) -> Vec<(usize, FileKind, IoCall)> {
        std::mem::take(&mut *self.log.lock().expect("log"))
    }
}

struct CountingSink {
    inner: Box<dyn Sink>,
    id: usize,
    kind: FileKind,
    log: IoLog,
}

impl Sink for CountingSink {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let call = IoCall::Append(match self.kind {
            FileKind::Journal => record_names(buf),
            FileKind::Snapshot | FileKind::Artifact => vec!["bytes"],
        });
        self.log
            .lock()
            .expect("log")
            .push((self.id, self.kind, call));
        self.inner.append(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let entry = (self.id, self.kind, IoCall::Sync);
        self.log.lock().expect("log").push(entry);
        self.inner.sync()
    }
}

impl DurableIo for CountingIo {
    fn open(&self, path: &Path, kind: FileKind) -> std::io::Result<Box<dyn Sink>> {
        Ok(Box::new(CountingSink {
            inner: FileIo.open(path, kind)?,
            id: self.sinks.fetch_add(1, Ordering::Relaxed),
            kind,
            log: Arc::clone(&self.log),
        }))
    }

    fn read(&self, path: &Path, kind: FileKind) -> std::io::Result<Vec<u8>> {
        FileIo.read(path, kind)
    }
}

/// The names of the journal records in one append buffer.
fn record_names(buf: &[u8]) -> Vec<&'static str> {
    if buf == MAGIC {
        return vec!["magic"];
    }
    let mut names = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let (rec, next) = record::decode_frame(buf, at).expect("appends carry whole frames");
        names.push(match rec {
            JournalRecord::Begin { .. } => "Begin",
            JournalRecord::Action { .. } => "Action",
            JournalRecord::Commit { .. } => "Commit",
            JournalRecord::Snapshot { .. } => "Snapshot",
            JournalRecord::Degraded { .. } => "Degraded",
            JournalRecord::Finished { .. } => "Finished",
            JournalRecord::Progress { .. } => "Progress",
        });
        at = next;
    }
    names
}

/// Check a run's calls against `policy` and return the journal's writes
/// (the records of each append, in order) and its fsync count:
/// - no sink is synced without an append since its last sync;
/// - under `EveryN(n)` no call returns with `n` or more journal records
///   unsynced (a call has returned when the next append starts), and
///   under `EveryRecord` each journal append is synced before the next;
/// - a snapshot record and the terminal records are synced under every
///   policy, and so is the run's last journal append.
fn check_schedule(
    log: &[(usize, FileKind, IoCall)],
    policy: SyncPolicy,
) -> (Vec<Vec<&'static str>>, u64) {
    let mut dirty: HashMap<usize, bool> = HashMap::new();
    let mut writes = Vec::new();
    let mut syncs = 0u64;
    let mut unsynced = 0usize;
    let mut must_sync = false;
    let limit = match policy {
        SyncPolicy::EveryRecord => 1,
        SyncPolicy::EveryN(n) => n.max(1) as usize,
        SyncPolicy::OnSnapshot => usize::MAX,
    };
    for (sink, kind, call) in log {
        match call {
            IoCall::Append(records) => {
                dirty.insert(*sink, true);
                if *kind != FileKind::Journal {
                    continue;
                }
                assert!(
                    !must_sync,
                    "{records:?} appended before the last durable point was synced"
                );
                assert!(
                    unsynced < limit,
                    "a call returned with {unsynced} records unsynced under {policy:?}"
                );
                if records[..] != ["magic"] {
                    unsynced += records.len();
                    must_sync = records
                        .iter()
                        .any(|r| matches!(*r, "Begin" | "Snapshot" | "Degraded" | "Finished"));
                    writes.push(records.clone());
                }
            }
            IoCall::Sync => {
                assert!(
                    dirty.insert(*sink, false) == Some(true),
                    "sink {sink} ({kind:?}) synced while clean"
                );
                if *kind == FileKind::Journal {
                    syncs += 1;
                    unsynced = 0;
                    must_sync = false;
                }
            }
        }
    }
    assert!(
        !must_sync && unsynced == 0,
        "the run ended with journal records unsynced"
    );
    (writes, syncs)
}

#[test]
fn each_durable_point_costs_one_fsync() {
    // Fig. 5, one tuple per iteration, a snapshot every iteration, capped
    // at one of the two iterations it needs so that it degrades; then its
    // journal cut after the header and resumed to the same cap.
    let case = Case::fig5();
    let config = CycleConfig {
        max_iterations: 1,
        ..fig5_config()
    };
    for policy in [
        SyncPolicy::EveryRecord,
        SyncPolicy::EveryN(1),
        SyncPolicy::EveryN(2),
        SyncPolicy::EveryN(3),
        SyncPolicy::EveryN(5),
        SyncPolicy::OnSnapshot,
    ] {
        let dir = fresh_dir("fsyncs");
        let io = Arc::new(CountingIo::default());
        let jcfg = JournalConfig {
            sync: policy,
            io: io.clone(),
            ..snapshot_every(Some(1), &dir)
        };
        let run = case.run(&config, jcfg.clone()).expect("journaled run");
        assert!(
            !run.termination.is_converged(),
            "{policy:?}: the cap must fire"
        );
        let (writes, syncs) = check_schedule(&io.take(), policy);
        assert_eq!(
            run.profile.journal.fsyncs, syncs,
            "{policy:?}: profile vs calls"
        );

        // Every write is one durable point's records.
        let shapes: [&[&str]; 6] = [
            &["Begin"],
            &["Action"],
            &["Progress", "Commit"],
            &["Snapshot"],
            &["Degraded"],
            &["Progress", "Finished"],
        ];
        let count = |shape: &[&str]| writes.iter().filter(|w| w[..] == *shape).count() as u64;
        assert_eq!(
            shapes.iter().map(|s| count(s)).sum::<u64>(),
            writes.len() as u64,
            "{policy:?}: a write of another shape in {writes:?}"
        );
        let steps = run.audit.decisions.len()
            - run
                .profile
                .fallback
                .as_ref()
                .expect("degraded")
                .cells_suppressed;
        assert_eq!(
            count(shapes[1]),
            steps as u64,
            "{policy:?}: one write per Action"
        );
        assert_eq!(count(shapes[2]), run.iterations as u64);
        assert_eq!(count(shapes[3]), run.profile.journal.snapshots_written);
        assert_eq!((count(shapes[4]), count(shapes[5])), (1, 1));
        if policy == SyncPolicy::EveryRecord {
            // header, each Action, each Progress + Commit, each Snapshot
            // record, Degraded, Progress + Finished: one fsync each
            assert_eq!(syncs, writes.len() as u64);
            assert_eq!(
                syncs,
                1 + steps as u64
                    + run.iterations as u64
                    + run.profile.journal.snapshots_written
                    + 2
            );
        }

        // Resume from the header: the same schedule, without a header.
        let journal = fs::read(dir.join(JOURNAL_FILE)).expect("journal");
        let header = record::frame_boundaries(&journal)[0];
        fs::write(dir.join(JOURNAL_FILE), &journal[..header]).expect("cut journal");
        let resumed = case.resume(&config, jcfg).expect("resume");
        assert_eq!(
            transcript(&resumed),
            transcript(&run),
            "{policy:?}: resume diverged"
        );
        let (writes, syncs) = check_schedule(&io.take(), policy);
        assert_eq!(
            resumed.profile.journal.fsyncs, syncs,
            "{policy:?}: resumed profile vs calls"
        );
        assert!(
            writes.iter().all(|w| w[..] != ["Begin"]),
            "{policy:?}: {writes:?}"
        );
        assert!(
            writes.contains(&vec!["Action"]),
            "{policy:?}: the resume re-ran no step"
        );
        if policy == SyncPolicy::EveryRecord {
            assert_eq!(syncs, writes.len() as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
