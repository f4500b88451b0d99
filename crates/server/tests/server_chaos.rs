//! Chaos suite for the supervised job server (ISSUE PR 7, satellite 3).
//!
//! The invariant under test: **whatever happens to the server — worker
//! panics, transient journal I/O faults, cooperative stops, or a
//! SIGKILL of the whole process at an arbitrary record boundary — every
//! job either converges to the byte-identical table an uninterrupted
//! run would have released, or carries a structured terminal error.**
//!
//! Three attack surfaces:
//! 1. a mixed batch with injected faults on a live in-process server,
//! 2. a deterministic truncation sweep over every journal frame
//!    boundary (the union of all possible crash points),
//! 3. a real `SIGKILL` of the `vadasa_server` binary mid-flight,
//!    followed by a restart that recovers the fleet.
//!
//! Two hostile-input cases ride along: unknown or value-less command-line
//! options, and job specs that still carry the deleted risk-evaluation
//! thread count.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use vadasa_core::cycle::{AnonymizationCycle, StepGranularity};
use vadasa_core::faults::ServerFault;
use vadasa_core::io::write_csv;
use vadasa_core::journal::record::frame_boundaries;
use vadasa_core::journal::JOURNAL_FILE;
use vadasa_core::obs::json::{self, Json};
use vadasa_core::prelude::LocalSuppression;
use vadasa_datagen::households::generate_households;
use vadasa_server::spec::{MANIFEST_FILE, RELEASED_FILE};
use vadasa_server::{
    JobServer, JobSpec, JobState, MeasureSpec, RetryPolicy, ServerConfig, ShutdownMode,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_root(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vadasa-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn household_spec(households: usize, seed: u64, measure: MeasureSpec) -> JobSpec {
    let survey = generate_households(households, seed);
    JobSpec::new(&survey.db, &survey.dict, measure).expect("household spec")
}

/// The uninterrupted reference: run the same spec without a journal and
/// render the released table.
fn reference_csv(spec: &JobSpec) -> String {
    let db = spec.table().expect("table");
    let dict = spec.dictionary().expect("dict");
    let measure = spec.measure.build();
    let anonymizer = LocalSuppression::default();
    let cycle = AnonymizationCycle::new(measure.as_ref(), &anonymizer, spec.cycle_config());
    let outcome = cycle.run(&db, &dict).expect("reference run");
    write_csv(&outcome.db)
}

fn released_bytes(root: &Path, id: &str) -> String {
    std::fs::read_to_string(root.join(id).join(RELEASED_FILE)).expect("released.csv")
}

/// The members of a submit line for `spec`: `cmd` and `id`, then the
/// members of its manifest.
fn submit_members(id: &str, spec: &JobSpec) -> Vec<(String, Json)> {
    let manifest = spec.to_manifest_json();
    let Ok(Json::Obj(members)) = json::parse(&manifest) else {
        panic!("manifest is not an object: {manifest}");
    };
    let mut line = vec![
        ("cmd".to_string(), Json::Str("submit".into())),
        ("id".to_string(), Json::Str(id.into())),
    ];
    line.extend(members);
    line
}

#[test]
fn mixed_batch_with_faults_converges_or_fails_structured() {
    let root = fresh_root("mixed");
    let mut cfg = ServerConfig::new(&root);
    cfg.workers = 3;
    cfg.retry = RetryPolicy {
        base: Duration::from_millis(5),
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    let server = JobServer::start(cfg).expect("start");

    let healthy = [
        (
            "plain-k",
            household_spec(12, 11, MeasureSpec::KAnonymity(2)),
        ),
        (
            "plain-reid",
            household_spec(10, 22, MeasureSpec::ReIdentification),
        ),
        ("plain-suda", household_spec(8, 33, MeasureSpec::Suda(2))),
    ];
    let mut flaky = household_spec(10, 44, MeasureSpec::KAnonymity(3));
    flaky.fault = ServerFault::none().transient_appends(1);
    let mut boom = household_spec(6, 55, MeasureSpec::KAnonymity(2));
    boom.fault = ServerFault::none().panic_on_attempt(1);

    for (id, spec) in &healthy {
        server.submit(id, spec.clone()).expect("submit healthy");
    }
    server.submit("flaky", flaky.clone()).expect("submit flaky");
    server.submit("boom", boom).expect("submit boom");

    // The panicking job fails with a structured error; the supervisor
    // survives it.
    let report = server.wait("boom", Duration::from_secs(60)).expect("boom");
    assert_eq!(report.state, JobState::Failed);
    assert!(
        report.error.as_deref().is_some_and(|e| e.contains("panic")),
        "structured panic error, got {:?}",
        report.error
    );

    // Everything else converges bit-identically to its uninterrupted
    // reference — including the job that needed a retry.
    for (id, spec) in healthy.iter().chain([("flaky", flaky)].iter()) {
        let report = server.wait(id, Duration::from_secs(60)).expect("report");
        assert_eq!(
            report.state,
            JobState::Done,
            "{id}: error {:?}",
            report.error
        );
        assert_eq!(
            released_bytes(&root, id),
            reference_csv(spec),
            "{id}: released table differs from the uninterrupted reference"
        );
    }
    assert!(server.metrics().counter("server.retried") >= 1);
    assert_eq!(server.metrics().counter("server.failed"), 1);
    server.shutdown(ShutdownMode::Drain);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn truncation_sweep_every_frame_boundary_recovers_bit_identically() {
    // Produce a finished journaled run, then restart a server on a copy
    // truncated at *every* frame boundary — the union of all crash
    // points — and demand byte-identical convergence each time.
    let root = fresh_root("sweep-ref");
    let mut spec = household_spec(8, 66, MeasureSpec::KAnonymity(3));
    spec.granularity = StepGranularity::OneTuplePerIteration;
    spec.snapshot_every = Some(3);
    let server = JobServer::start(ServerConfig::new(&root)).expect("start");
    server.submit("sweep", spec.clone()).expect("submit");
    let report = server
        .wait("sweep", Duration::from_secs(60))
        .expect("sweep");
    assert_eq!(report.state, JobState::Done, "error: {:?}", report.error);
    let reference = released_bytes(&root, "sweep");
    assert_eq!(reference, reference_csv(&spec), "reference sanity");
    let journal = std::fs::read(root.join("sweep").join(JOURNAL_FILE)).expect("journal bytes");
    let manifest = spec.to_manifest_json();
    server.shutdown(ShutdownMode::Drain);

    let boundaries = frame_boundaries(&journal);
    assert!(
        boundaries.len() >= 6,
        "sweep needs a multi-record journal, got {} boundaries",
        boundaries.len()
    );
    // Also sweep a torn mid-frame point after each boundary, and the
    // full journal (restart after completion, before the marker).
    let mut cut_points: Vec<usize> = boundaries.clone();
    cut_points.extend(
        boundaries
            .iter()
            .map(|b| b + 7)
            .filter(|c| *c < journal.len()),
    );
    cut_points.push(journal.len());
    cut_points.sort_unstable();
    cut_points.dedup();
    for cut in cut_points {
        let crash_root = fresh_root("sweep-cut");
        let dir = crash_root.join("sweep");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(MANIFEST_FILE), &manifest).expect("manifest");
        std::fs::write(dir.join(JOURNAL_FILE), &journal[..cut]).expect("truncated journal");
        let server = JobServer::start(ServerConfig::new(&crash_root)).expect("restart");
        assert_eq!(server.metrics().counter("server.recovered"), 1);
        let report = server
            .wait("sweep", Duration::from_secs(60))
            .expect("sweep");
        assert_eq!(
            report.state,
            JobState::Done,
            "cut at {cut}: error {:?}",
            report.error
        );
        assert_eq!(
            released_bytes(&crash_root, "sweep"),
            reference,
            "cut at {cut}: resumed run is not bit-identical"
        );
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&crash_root).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sigkill_of_the_whole_server_process_recovers_every_job() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let root = fresh_root("kill");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vadasa_server"))
        .args([
            "--jobs-root",
            root.to_str().expect("utf8 root"),
            "--workers",
            "1",
            "--stdin",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vadasa_server");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    // Slow one-tuple jobs on one worker: at kill time at least the later
    // jobs are queued or mid-journal.
    let specs: Vec<(String, JobSpec)> = (0..3)
        .map(|i| {
            let mut spec = household_spec(14, 100 + i, MeasureSpec::KAnonymity(4));
            spec.granularity = StepGranularity::OneTuplePerIteration;
            spec.snapshot_every = Some(4);
            (format!("kill-{i}"), spec)
        })
        .collect();
    for (id, spec) in &specs {
        let line = Json::Obj(submit_members(id, spec)).to_string();
        writeln!(stdin, "{line}").expect("write submit");
        stdin.flush().expect("flush");
        let mut response = String::new();
        stdout.read_line(&mut response).expect("read response");
        assert!(
            response.contains("\"ok\":true"),
            "submit {id} rejected: {response}"
        );
    }
    // Manifests are durable once submit acked. Let the worker get into
    // the first journal, then kill the whole process without ceremony.
    std::thread::sleep(Duration::from_millis(120));
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Restart in-process over the same root: the fleet recovers and
    // every job converges to the table an uninterrupted run releases.
    let server = JobServer::start(ServerConfig::new(&root)).expect("restart");
    for (id, spec) in &specs {
        let report = server.wait(id, Duration::from_secs(120)).expect("report");
        assert_eq!(
            report.state,
            JobState::Done,
            "{id}: error {:?}",
            report.error
        );
        // Reference recomputed from the *on-disk manifest*, exactly what
        // a fresh operator would see.
        let manifest = std::fs::read_to_string(root.join(id).join(MANIFEST_FILE))
            .expect("manifest survives the kill");
        assert_eq!(
            manifest,
            spec.to_manifest_json(),
            "{id}: manifest round-trip"
        );
        let from_disk = JobSpec::from_manifest_json(&manifest).expect("parse manifest");
        assert_eq!(
            released_bytes(&root, id),
            reference_csv(&from_disk),
            "{id}: post-kill result differs from the uninterrupted reference"
        );
    }
    server.shutdown(ShutdownMode::Drain);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unknown_options_exit_2_without_starting_the_server() {
    use std::process::Command;

    let root = fresh_root("options");
    for (extra, reason) in [
        (&["--worker", "2"][..], "unrecognised argument"),
        (&["--risk-threads", "4"][..], "unrecognised argument"),
        (&["--workers"][..], "--workers needs a value"),
        (&["--workers", "0"][..], "cannot parse '0'"),
        (&["--socket"][..], "--socket needs a value"),
    ] {
        // `extra` comes last, so a value-less option has nothing to take
        let output = Command::new(env!("CARGO_BIN_EXE_vadasa_server"))
            .arg("--jobs-root")
            .arg(&root)
            .arg("--stdin")
            .args(extra)
            .output()
            .expect("spawn vadasa_server");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(reason), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("usage: vadasa_server"),
            "{extra:?}: {stderr}"
        );
        // starting the server creates the jobs root; a refusal must not
        assert!(!root.exists(), "{extra:?}: the server started");
    }
}

/// Manifests and submit lines written when a run could shard its risk
/// evaluation carry a `"risk_threads"` member. Both are accepted, the
/// member is ignored, and the job releases the table a spec without it
/// releases.
#[test]
fn specs_carrying_risk_threads_release_the_same_table() {
    use vadasa_server::protocol::handle_line;

    let with_risk_threads = |mut members: Vec<(String, Json)>| {
        members.push(("risk_threads".into(), Json::Num(4.0)));
        Json::Obj(members).to_string()
    };
    let spec = household_spec(8, 66, MeasureSpec::KAnonymity(3));
    let manifest = spec.to_manifest_json();
    assert!(!manifest.contains("risk_threads"), "{manifest}");
    let Ok(Json::Obj(members)) = json::parse(&manifest) else {
        panic!("manifest is not an object: {manifest}");
    };
    let legacy = with_risk_threads(members);
    let parsed = JobSpec::from_manifest_json(&legacy).expect("legacy manifest parses");
    assert_eq!(parsed.to_manifest_json(), manifest);

    let root = fresh_root("legacy");
    for (id, text) in [("current", &manifest), ("legacy", &legacy)] {
        std::fs::create_dir_all(root.join(id)).expect("mkdir");
        std::fs::write(root.join(id).join(MANIFEST_FILE), text).expect("manifest");
    }
    let server = JobServer::start(ServerConfig::new(&root)).expect("start");
    assert_eq!(server.metrics().counter("server.recovered"), 2);
    let submit = with_risk_threads(submit_members("submitted", &spec));
    let (response, _) = handle_line(&server, &submit);
    assert!(response.contains("\"ok\":true"), "{response}");
    let written = std::fs::read_to_string(root.join("submitted").join(MANIFEST_FILE));
    assert_eq!(written.expect("submitted manifest"), manifest);

    let reference = reference_csv(&spec);
    for id in ["current", "legacy", "submitted"] {
        let report = server.wait(id, Duration::from_secs(60)).expect(id);
        assert_eq!(report.state, JobState::Done, "{id}: {:?}", report.error);
        assert_eq!(released_bytes(&root, id), reference, "{id}");
    }
    server.shutdown(ShutdownMode::Drain);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stop_shutdown_journals_survive_a_second_stop_and_still_converge() {
    // Repeatedly checkpoint-and-stop a slow job; each restart resumes
    // the same journal. The final table must still match the
    // uninterrupted reference.
    let root = fresh_root("stopstop");
    let mut spec = household_spec(10, 77, MeasureSpec::KAnonymity(3));
    spec.granularity = StepGranularity::OneTuplePerIteration;
    spec.snapshot_every = Some(2);
    let reference = reference_csv(&spec);

    let mut cfg = ServerConfig::new(&root);
    cfg.workers = 1;
    let server = JobServer::start(cfg).expect("start");
    let mut slow = spec.clone();
    slow.fault = ServerFault::none().delay_start(Duration::from_millis(80));
    server.submit("phoenix", slow).expect("submit");
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown(ShutdownMode::Stop);

    for _ in 0..2 {
        let mut cfg = ServerConfig::new(&root);
        cfg.workers = 1;
        let server = JobServer::start(cfg).expect("restart");
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown(ShutdownMode::Stop);
    }

    let server = JobServer::start(ServerConfig::new(&root)).expect("final restart");
    let report = server
        .wait("phoenix", Duration::from_secs(60))
        .expect("phoenix");
    assert_eq!(report.state, JobState::Done, "error: {:?}", report.error);
    assert_eq!(released_bytes(&root, "phoenix"), reference);
    server.shutdown(ShutdownMode::Drain);
    std::fs::remove_dir_all(&root).ok();
}
