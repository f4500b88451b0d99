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

use std::time::Duration;

use vadasa_core::cycle::{BatchStrategy, StepGranularity};
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
        members.push((
            "summary".into(),
            Json::Obj(vec![
                ("converged".into(), Json::Bool(s.converged)),
                ("iterations".into(), Json::Num(s.iterations as f64)),
                ("nulls_injected".into(), Json::Num(s.nulls_injected as f64)),
                ("recodings".into(), Json::Num(s.recodings as f64)),
                ("final_risky".into(), Json::Num(s.final_risky as f64)),
                ("information_loss".into(), Json::Num(s.information_loss)),
            ]),
        ));
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

fn parse_measure(v: &Json) -> Result<MeasureSpec, String> {
    match v.get("measure").and_then(Json::as_str) {
        None | Some("k-anonymity") => {
            let k = v.get("k").and_then(Json::as_f64).unwrap_or(2.0);
            Ok(MeasureSpec::KAnonymity(k as usize))
        }
        Some("re-identification") => Ok(MeasureSpec::ReIdentification),
        Some("suda") => {
            let t = v.get("msu").and_then(Json::as_f64).unwrap_or(2.0);
            Ok(MeasureSpec::Suda(t as usize))
        }
        Some(other) => Err(format!("unknown measure {other:?}")),
    }
}

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
    let measure = parse_measure(v)?;
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
    if let Some(t) = v.get("threshold").and_then(Json::as_f64) {
        spec.threshold = t;
    }
    if let Some(m) = v.get("max_iterations").and_then(Json::as_f64) {
        spec.max_iterations = m as usize;
    }
    if let Some(ms) = v.get("deadline_ms").and_then(Json::as_f64) {
        spec.deadline = Some(Duration::from_millis(ms as u64));
    }
    if let Some(g) = v.get("granularity").and_then(Json::as_str) {
        spec.granularity =
            StepGranularity::parse(g).ok_or_else(|| format!("unknown granularity {g:?}"))?;
    }
    if let Some(b) = v.get("batch").and_then(Json::as_str) {
        spec.batch =
            Some(BatchStrategy::parse(b).ok_or_else(|| format!("unknown batch strategy {b:?}"))?);
    }
    if let Some(n) = v.get("snapshot_every").and_then(Json::as_f64) {
        spec.snapshot_every = Some(n as u32);
    }
    if let Some(s) = v.get("storage").and_then(Json::as_str) {
        spec.storage = vadalog::StorageEngine::parse(s)
            .ok_or_else(|| format!("unknown storage engine {s:?}"))?;
    }
    Ok((id, spec))
}

/// Handle one request line against the server. Always returns a
/// one-line JSON response; never panics, never kills the supervisor.
pub fn handle_line(server: &JobServer, line: &str) -> (String, Disposition) {
    let line = line.trim();
    if line.is_empty() {
        return (fail("empty request"), Disposition::Continue);
    }
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (fail(format!("bad json: {e}")), Disposition::Continue),
    };
    let Some(cmd) = v.get("cmd").and_then(Json::as_str) else {
        return (fail("missing \"cmd\""), Disposition::Continue);
    };
    match cmd {
        "ping" => (
            ok(vec![("pong".into(), Json::Bool(true))]),
            Disposition::Continue,
        ),
        "submit" => match parse_submit(&v) {
            Ok((id, spec)) => match server.submit(&id, spec) {
                Ok(id) => (
                    ok(vec![("id".into(), Json::Str(id))]),
                    Disposition::Continue,
                ),
                Err(e) => (fail(e.to_string()), Disposition::Continue),
            },
            Err(e) => (fail(e), Disposition::Continue),
        },
        "status" => match v.get("id").and_then(Json::as_str) {
            Some(id) => match server.status(id) {
                Some(r) => (
                    ok(vec![("job".into(), report_json(&r))]),
                    Disposition::Continue,
                ),
                None => (fail(format!("unknown job {id:?}")), Disposition::Continue),
            },
            None => (fail("status requires \"id\""), Disposition::Continue),
        },
        "list" => {
            let jobs: Vec<Json> = server.list().iter().map(report_json).collect();
            (
                ok(vec![("jobs".into(), Json::Arr(jobs))]),
                Disposition::Continue,
            )
        }
        "cancel" => match v.get("id").and_then(Json::as_str) {
            Some(id) => (
                ok(vec![("cancelled".into(), Json::Bool(server.cancel(id)))]),
                Disposition::Continue,
            ),
            None => (fail("cancel requires \"id\""), Disposition::Continue),
        },
        "wait" => match v.get("id").and_then(Json::as_str) {
            Some(id) => {
                let timeout = v
                    .get("timeout_ms")
                    .and_then(Json::as_f64)
                    .map_or(Duration::from_secs(60), |ms| {
                        Duration::from_millis(ms as u64)
                    });
                match server.wait(id, timeout) {
                    Some(r) => (
                        ok(vec![("job".into(), report_json(&r))]),
                        Disposition::Continue,
                    ),
                    None => (fail(format!("unknown job {id:?}")), Disposition::Continue),
                }
            }
            None => (fail("wait requires \"id\""), Disposition::Continue),
        },
        "result" => match v.get("id").and_then(Json::as_str) {
            Some(id) => match server.result_csv(id) {
                Some(csv) => (
                    ok(vec![("csv".into(), Json::Str(csv))]),
                    Disposition::Continue,
                ),
                None => (
                    fail(format!("job {id:?} has no released result")),
                    Disposition::Continue,
                ),
            },
            None => (fail("result requires \"id\""), Disposition::Continue),
        },
        "metrics" => match json::parse(&server.metrics().snapshot_json()) {
            Ok(snapshot) => (
                ok(vec![("metrics".into(), snapshot)]),
                Disposition::Continue,
            ),
            Err(e) => (fail(format!("metrics: {e}")), Disposition::Continue),
        },
        "shutdown" => {
            let mode = match v.get("mode").and_then(Json::as_str) {
                Some("stop") => ShutdownMode::Stop,
                _ => ShutdownMode::Drain,
            };
            let label = match mode {
                ShutdownMode::Drain => "drain",
                ShutdownMode::Stop => "stop",
            };
            (
                ok(vec![("shutdown".into(), Json::Str(label.into()))]),
                Disposition::Shutdown(mode),
            )
        }
        other => (
            fail(format!("unknown cmd {other:?}")),
            Disposition::Continue,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{JobServer, ServerConfig};
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
        // step names are the cycle's own; an alien one is refused
        for (field, reason) in [
            (r#""batch":"top-0""#, "unknown batch strategy"),
            (r#""granularity":"all""#, "unknown granularity"),
        ] {
            let line =
                format!(r#"{{"cmd":"submit","id":"c3","csv":"Id,Area\n1,North\n",{field}}}"#);
            let (resp, _) = handle_line(&server, &line);
            assert!(resp.contains(reason), "{resp}");
        }
        let (resp, _) = handle_line(&server, r#"{"cmd":"status","id":"ghost"}"#);
        assert!(resp.contains("unknown job"), "{resp}");
        server.wait("c1", Duration::from_secs(60));
        server.shutdown(ShutdownMode::Drain);
        std::fs::remove_dir_all(&root).ok();
    }
}
