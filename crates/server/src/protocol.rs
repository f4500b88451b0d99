//! The newline-delimited JSON control protocol.
//!
//! One request per line, one response per line — served by the
//! `vadasa_server` binary over a unix socket or stdin/stdout. Every
//! response carries `"ok"`; failures add `"error"` and never kill the
//! server (a malformed line is a client bug, not a supervisor fault).
//!
//! ```text
//! → {"cmd":"submit","id":"j1","name":"survey","csv":"id,area,w\n1,North,9\n","measure":"k-anonymity","k":2}
//! ← {"ok":true,"id":"j1"}
//! → {"cmd":"wait","id":"j1","timeout_ms":60000}
//! ← {"ok":true,"job":{"id":"j1","state":"done",...}}
//! → {"cmd":"shutdown","mode":"drain"}
//! ← {"ok":true,"shutdown":"drain"}
//! ```
//!
//! A `submit` line is `id` plus a job manifest's members, read by the
//! manifest's own reader ([`JobSpec::read_knobs`]): the table (`csv`;
//! `name`, default `microdata`; `categories`, else categorized
//! automatically), `measure` (k-anonymity when absent) with `k` or
//! `msu`, and the knobs `threshold`, `tuple_order`, `granularity`,
//! `batch`, `semantics`, `max_iterations`, `deadline_ms`, `sync` with
//! `sync_n`, `snapshot_every` and `storage`. An absent member keeps its
//! default and an unknown one is ignored; an unknown name, a wrong type
//! or a parameter that protects nothing is refused with the manifest
//! reader's message. So a manifest's members, sent with `cmd` and `id`,
//! write that manifest back byte for byte.

use std::time::Duration;

use vadasa_core::obs::json::{self, Json};

use crate::server::{JobReport, JobServer, ShutdownMode};
use crate::spec::{JobSpec, MeasureSpec};

/// What the transport loop should do after answering a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving.
    Continue,
    /// Shut the server down with this mode, then stop serving.
    Shutdown(ShutdownMode),
}

fn ok(mut extra: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    members.append(&mut extra);
    Json::Obj(members).to_string()
}

fn fail(message: impl Into<String>) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
    ])
    .to_string()
}

/// Render a job report as a JSON object.
pub fn report_json(r: &JobReport) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("id".into(), Json::Str(r.id.clone())),
        ("state".into(), Json::Str(r.state.name().into())),
        ("attempts".into(), Json::Num(f64::from(r.attempts))),
        ("rows".into(), Json::Num(r.rows as f64)),
        ("storage".into(), Json::Str(r.storage.as_str().into())),
    ];
    if let Some(e) = &r.error {
        members.push(("error".into(), Json::Str(e.clone())));
    }
    if let Some(s) = &r.summary {
        members.push(("summary".into(), s.to_json()));
    }
    if let Some(i) = r.iteration {
        members.push(("iteration".into(), Json::Num(i)));
    }
    if let Some(n) = r.rows_at_risk {
        members.push(("rows_at_risk".into(), Json::Num(n)));
    }
    if let Some(c) = r.eta_confidence {
        members.push(("eta_confidence".into(), Json::Num(c)));
    }
    Json::Obj(members)
}

/// A submit line: `id`, then a manifest's members (module docs). The
/// table and dictionary are built here, since a submit may leave `name`
/// and `categories` out; the measure and every knob go through the
/// manifest's reader.
fn parse_submit(v: &Json) -> Result<(String, JobSpec), String> {
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit requires \"id\"")?
        .to_string();
    let name = v.get("name").and_then(Json::as_str).unwrap_or("microdata");
    let csv = v
        .get("csv")
        .and_then(Json::as_str)
        .ok_or("submit requires \"csv\"")?;
    // A manifest always names its measure; a submit line without one
    // asks for k-anonymity.
    let measure =
        MeasureSpec::from_json(v, Some(MeasureSpec::KAnonymity(2))).map_err(|e| e.to_string())?;
    let mut spec = match v.get("categories") {
        Some(Json::Obj(members)) => {
            // Explicit dictionary: build it attribute by attribute.
            let db = vadasa_core::io::read_csv(name, csv).map_err(|e| format!("csv: {e}"))?;
            let mut dict = vadasa_core::dictionary::MetadataDictionary::new();
            for attr in db.attributes() {
                dict.register_attr(&db.name, attr, "");
            }
            for (attr, cat) in members {
                let cat_name = cat.as_str().ok_or("category values must be strings")?;
                let cat = vadasa_core::dictionary::Category::from_name(cat_name)
                    .ok_or_else(|| format!("unknown category {cat_name:?}"))?;
                dict.set_category(&db.name, attr, cat)
                    .map_err(|e| format!("category: {e}"))?;
            }
            JobSpec::new(&db, &dict, measure).map_err(|e| e.to_string())?
        }
        _ => JobSpec::from_csv(name, csv, measure).map_err(|e| e.to_string())?,
    };
    spec.read_knobs(v).map_err(|e| e.to_string())?;
    Ok((id, spec))
}

/// Handle one request line against the server. Always returns a
/// one-line JSON response; never panics, never kills the supervisor.
pub fn handle_line(server: &JobServer, line: &str) -> (String, Disposition) {
    match respond(server, line) {
        Ok((members, disposition)) => (ok(members), disposition),
        Err(e) => (fail(e), Disposition::Continue),
    }
}

/// The members of a successful response to `line`, or why it failed.
fn respond(server: &JobServer, line: &str) -> Result<(Vec<(String, Json)>, Disposition), String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty request".into());
    }
    let v = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing \"cmd\"")?;
    let id = || {
        v.get("id")
            .and_then(Json::as_str)
            .ok_or(format!("{cmd} requires \"id\""))
    };
    let unknown_job = |id: &str| format!("unknown job {id:?}");
    let member = |key: &str, value| vec![(key.to_string(), value)];
    let members = match cmd {
        "ping" => member("pong", Json::Bool(true)),
        "submit" => {
            let (id, spec) = parse_submit(&v)?;
            let id = server.submit(&id, spec).map_err(|e| e.to_string())?;
            member("id", Json::Str(id))
        }
        "status" => {
            let id = id()?;
            let report = server.status(id).ok_or_else(|| unknown_job(id))?;
            member("job", report_json(&report))
        }
        "list" => member(
            "jobs",
            Json::Arr(server.list().iter().map(report_json).collect()),
        ),
        "cancel" => member("cancelled", Json::Bool(server.cancel(id()?))),
        "wait" => {
            let id = id()?;
            let timeout = v
                .get("timeout_ms")
                .and_then(Json::as_f64)
                .map_or(Duration::from_secs(60), |ms| {
                    Duration::from_millis(ms as u64)
                });
            let report = server.wait(id, timeout).ok_or_else(|| unknown_job(id))?;
            member("job", report_json(&report))
        }
        "result" => {
            let id = id()?;
            let csv = server
                .result_csv(id)
                .ok_or_else(|| format!("job {id:?} has no released result"))?;
            member("csv", Json::Str(csv))
        }
        "metrics" => {
            let snapshot = json::parse(&server.metrics().snapshot_json())
                .map_err(|e| format!("metrics: {e}"))?;
            member("metrics", snapshot)
        }
        "shutdown" => {
            let (mode, label) = match v.get("mode").and_then(Json::as_str) {
                Some("stop") => (ShutdownMode::Stop, "stop"),
                _ => (ShutdownMode::Drain, "drain"),
            };
            let members = member("shutdown", Json::Str(label.into()));
            return Ok((members, Disposition::Shutdown(mode)));
        }
        other => return Err(format!("unknown cmd {other:?}")),
    };
    Ok((members, Disposition::Continue))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{JobServer, ServerConfig};
    use crate::spec::tests::{manifest_with, one_spec_per_knob_value, spec};
    use crate::spec::MANIFEST_FILE;
    use crate::JobState;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn fresh_root() -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("vadasa-protocol-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn field<'a>(resp: &'a Json, key: &str) -> &'a Json {
        resp.get(key).expect(key)
    }

    #[test]
    fn full_session_over_the_protocol() {
        let root = fresh_root();
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let (resp, d) = handle_line(&server, r#"{"cmd":"ping"}"#);
        assert_eq!(d, Disposition::Continue);
        assert!(resp.contains("\"pong\""));
        let submit = r#"{"cmd":"submit","id":"p1","name":"survey","csv":"id,area,weight\n1,North,9\n2,North,2\n3,South,5\n4,South,1\n","measure":"k-anonymity","k":2}"#;
        let (resp, _) = handle_line(&server, submit);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let (resp, _) = handle_line(&server, r#"{"cmd":"wait","id":"p1","timeout_ms":60000}"#);
        let v = json::parse(&resp).expect("json");
        assert_eq!(
            field(field(&v, "job"), "state").as_str(),
            Some("done"),
            "{resp}"
        );
        let (resp, _) = handle_line(&server, r#"{"cmd":"result","id":"p1"}"#);
        let v = json::parse(&resp).expect("json");
        assert!(field(&v, "csv")
            .as_str()
            .is_some_and(|c| c.starts_with("id,area,weight")));
        let (resp, _) = handle_line(&server, r#"{"cmd":"list"}"#);
        assert!(resp.contains("\"p1\""));
        let (resp, _) = handle_line(&server, r#"{"cmd":"metrics"}"#);
        assert!(resp.contains("server.done"), "{resp}");
        // malformed lines never kill the loop
        let (resp, d) = handle_line(&server, "not json at all");
        assert!(resp.contains("\"ok\":false"));
        assert_eq!(d, Disposition::Continue);
        let (resp, d) = handle_line(&server, r#"{"cmd":"shutdown","mode":"drain"}"#);
        assert!(resp.contains("\"shutdown\":\"drain\""));
        assert_eq!(d, Disposition::Shutdown(ShutdownMode::Drain));
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn submit_with_explicit_categories_and_bad_input() {
        let root = fresh_root();
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let submit = r#"{"cmd":"submit","id":"c1","name":"t","csv":"a,b,w\n1,x,2\n2,y,3\n","measure":"re-identification","categories":{"a":"identifier","b":"quasi-identifier","w":"weight"}}"#;
        let (resp, _) = handle_line(&server, submit);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let (resp, _) = handle_line(
            &server,
            r#"{"cmd":"submit","id":"c2","csv":"a\n1\n","categories":{"a":"nonsense"}}"#,
        );
        assert!(resp.contains("unknown category"), "{resp}");
        // a parameter that protects nothing is refused, naming the member
        let range = "threshold must be a finite number in [0, 1], got";
        for (field, reason) in [
            (
                r#""threshold":1e999"#,
                format!("invalid submission: {range} inf"),
            ),
            (r#""threshold":5"#, format!("{range} 5")),
            (r#""threshold":-0.5"#, format!("{range} -0.5")),
            (r#""threshold":"0.1""#, "threshold must be a number".into()),
            (r#""k":0"#, "k must be a whole number ≥ 1, got 0".into()),
            (r#""k":2.5"#, "k must be a whole number ≥ 1, got 2.5".into()),
            (
                r#""measure":"suda","msu":0"#,
                "msu must be a whole number ≥ 1".into(),
            ),
            // counts that a cast would have truncated to 0
            (
                r#""max_iterations":-5"#,
                "max_iterations must be a whole number in [0, 18446744073709551615], got -5".into(),
            ),
            (
                r#""max_iterations":0.5"#,
                "max_iterations must be a whole number in [0, 18446744073709551615], got 0.5"
                    .into(),
            ),
            (
                r#""deadline_ms":-1"#,
                "deadline_ms must be a whole number in [0, 18446744073709551615], got -1".into(),
            ),
        ] {
            let line =
                format!(r#"{{"cmd":"submit","id":"c3","csv":"Id,Area\n1,North\n",{field}}}"#);
            let (resp, _) = handle_line(&server, &line);
            assert!(resp.contains("\"ok\":false"), "{field}: {resp}");
            assert!(resp.contains(&reason), "{field}: {resp}");
            assert!(!root.join("c3").exists(), "{field}: job written");
        }
        let (resp, _) = handle_line(&server, r#"{"cmd":"status","id":"ghost"}"#);
        assert!(resp.contains("unknown job"), "{resp}");
        server.wait("c1", Duration::from_secs(60));
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A submit line: `cmd` and `id`, then `members`.
    fn submit_line(id: &str, members: Vec<(String, Json)>) -> String {
        let mut line = vec![
            ("cmd".to_string(), Json::Str("submit".into())),
            ("id".to_string(), Json::Str(id.into())),
        ];
        line.extend(members);
        Json::Obj(line).to_string()
    }

    #[test]
    fn a_manifests_members_sent_as_a_submit_write_it_back() {
        let root = fresh_root();
        let server = JobServer::start(ServerConfig::new(&root)).expect("start");
        let golden = include_str!("../../../tests/golden/server/job.json").to_string();
        let manifests = one_spec_per_knob_value()
            .into_iter()
            .map(|s| s.to_manifest_json())
            .chain([golden]);
        for (i, manifest) in manifests.enumerate() {
            let Ok(Json::Obj(members)) = json::parse(&manifest) else {
                panic!("manifest is an object: {manifest}");
            };
            let id = format!("k{i}");
            let (resp, _) = handle_line(&server, &submit_line(&id, members));
            assert!(resp.contains("\"ok\":true"), "{manifest}: {resp}");
            let written = std::fs::read_to_string(root.join(&id).join(MANIFEST_FILE)).unwrap();
            assert_eq!(written, manifest);
        }
        // an alien name gets the manifest reader's own refusal
        for (key, alien, what) in [
            ("tuple_order", "lsf", "tuple order"),
            ("granularity", "all", "granularity"),
            ("batch", "top-0", "batch strategy"),
            ("semantics", "bogus", "null semantics"),
            ("sync", "every-8", "sync policy"),
            ("storage", "cloudz", "storage engine"),
            ("storage", "", "storage engine"),
            ("measure", "l-diversity", "measure"),
        ] {
            let members = manifest_with(&spec(), key, Some(Json::Str(alien.into())));
            let e = JobSpec::from_manifest_json(&Json::Obj(members.clone()).to_string());
            let e = e.unwrap_err().to_string();
            assert_eq!(e, format!("job spec: unknown {what} {alien:?}"));
            let (resp, _) = handle_line(&server, &submit_line("alien", members));
            let v = json::parse(&resp).expect("json");
            assert_eq!(v.get("error").and_then(Json::as_str), Some(&*e));
        }
        assert!(server.wait_idle(Duration::from_secs(60)));
        for report in server.list() {
            assert_eq!(report.state, JobState::Done, "{report:?}");
        }
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }
}
