//! `vadasa_cycle` and the bench binaries refuse arguments they do not
//! know.
//!
//! An ignored option is a silent default: `--treshold 0.01` would release
//! the table at the default threshold of 0.5, and so would a `--threshold`
//! whose value is missing; a misspelt or stale `fig5_cycle` switch in CI
//! would print the transcript and pass. Any argument that is not an
//! option, an option's value or a switch, and any option without a
//! well-formed value, prints the usage line and exits 2 before the input
//! is read or an output file is written. So does a threshold that is not
//! a finite number in `[0, 1]`, or a `k` of 0: either protects nothing.

use std::process::Command;

/// The seven-row survey the CI smoke job runs; the experience base
/// categorizes its headers on its own.
const SMOKE_CSV: &str = "Id,Area,Sector,Employees,Revenue,Weight\n\
    099876,Roma,Textiles,1000+,0-30,10\n\
    765389,Roma,Commerce,1000+,0-30,20\n\
    231654,Roma,Commerce,1000+,0-30,20\n\
    097302,Roma,Financial,1000+,0-30,30\n\
    120967,Roma,Financial,1000+,0-30,30\n\
    232498,Milano,Construction,0-200,60-90,5\n\
    340901,Torino,Construction,0-200,60-90,5\n";

#[test]
fn unknown_options_exit_2_and_write_no_release() {
    let unknown = Some("unrecognised argument");
    for (tag, extra, refusal) in [
        ("threshold", &["--threshold", "0.01"][..], None),
        ("typo", &["--treshold", "0.01"][..], unknown),
        ("risk-threads", &["--risk-threads", "4"][..], unknown),
        ("stray", &["0.01"][..], unknown),
        (
            "missing",
            &["--threshold"][..],
            Some("--threshold needs a value"),
        ),
        (
            "malformed",
            &["--threshold", "low"][..],
            Some("cannot parse 'low'"),
        ),
        ("top-0", &["--batch", "top-0"][..], Some("--batch must be")),
        (
            "batch",
            &["--batch", "per_class"][..],
            Some("--batch must be"),
        ),
        ("sync", &["--sync", "every-n"][..], Some("--sync must be")),
        // parameters that protect nothing: each released the input as is
        (
            "nan",
            &["--threshold", "nan"][..],
            Some("--threshold must be a finite number in [0, 1], got NaN"),
        ),
        ("inf", &["--threshold", "inf"][..], Some("got inf")),
        ("above-one", &["--threshold", "5"][..], Some("got 5")),
        (
            "k-0",
            &["--k", "0"][..],
            Some("--k must be a whole number ≥ 1, got 0"),
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("vadasa-opts-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        std::fs::write(dir.join("smoke.csv"), SMOKE_CSV).expect("write input");
        let out = dir.join("released.csv");
        // `extra` comes last, so a value-less option has nothing to take
        let output = Command::new(env!("CARGO_BIN_EXE_vadasa_cycle"))
            .arg("--input")
            .arg(dir.join("smoke.csv"))
            .arg("--out")
            .arg(&out)
            .args(["--k", "3"])
            .args(extra)
            .output()
            .expect("spawn vadasa_cycle");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let code = if refusal.is_some() { 2 } else { 0 };
        assert_eq!(output.status.code(), Some(code), "{tag}: {stderr}");
        assert_eq!(out.exists(), refusal.is_none(), "{tag}: release written?");
        if let Some(reason) = refusal {
            assert!(stderr.contains(reason), "{tag}: {stderr}");
            assert!(stderr.contains("usage: vadasa_cycle"), "{tag}: {stderr}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn exe(name: &str) -> &'static str {
    match name {
        "fig5_cycle" => env!("CARGO_BIN_EXE_fig5_cycle"),
        "bench_cycle_profile" => env!("CARGO_BIN_EXE_bench_cycle_profile"),
        "bench_cycle_scale" => env!("CARGO_BIN_EXE_bench_cycle_scale"),
        _ => env!("CARGO_BIN_EXE_bench_engine"),
    }
}

/// The bench binaries refuse the same way, before they generate data or
/// write their output file, so none of these cases starts a bench run.
#[test]
fn bench_binaries_exit_2_before_writing_anything() {
    let unknown = "unrecognised argument";
    let cases: [(&str, &[&str], &str); 12] = [
        ("fig5_cycle", &["--colld"], unknown),
        ("fig5_cycle", &["--warm"], unknown),
        ("fig5_cycle", &["--cold"], unknown),
        ("fig5_cycle", &["--telemetry-out"], "needs a value"),
        ("bench_cycle_profile", &["--quick", "--cold"], unknown),
        ("bench_cycle_profile", &["--baseline"], "needs a value"),
        ("bench_cycle_scale", &["--batched-onyl"], unknown),
        (
            "bench_cycle_scale",
            &["--rows", "100k"],
            "cannot parse '100k'",
        ),
        ("bench_cycle_scale", &["--runs"], "needs a value"),
        (
            "bench_cycle_scale",
            &["--min-speedup", "2", "--batched-only"],
            "one-tuple",
        ),
        ("bench_engine", &["--quick", "--threads", "4"], unknown),
        ("bench_engine", &["--baseline"], "needs a value"),
    ];
    for (i, (name, extra, reason)) in cases.into_iter().enumerate() {
        let out = std::env::temp_dir().join(format!("vadasa-opts-{}-{i}", std::process::id()));
        let _ = std::fs::remove_file(&out);
        // fig5_cycle writes only its telemetry file, the others their --out
        let out_option = match name {
            "fig5_cycle" => "--telemetry-out",
            _ => "--out",
        };
        let output = (Command::new(exe(name))
            .arg(out_option)
            .arg(&out)
            .args(extra))
        .output()
        .expect("spawn");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tag = format!("{name} {extra:?}: {stderr}");
        assert_eq!(output.status.code(), Some(2), "{tag}");
        assert!(stderr.contains(reason), "{tag}");
        assert!(stderr.contains(&format!("usage: {name}")), "{tag}");
        assert!(output.stdout.is_empty() && !out.exists(), "{tag}");
    }
}

/// The control: `fig5_cycle` parses, writes its telemetry and prints the
/// same transcript on a repeat.
#[test]
fn fig5_cycle_repeats_its_transcript() {
    let run = |rep: &str| {
        let tel = std::env::temp_dir().join(format!("vadasa-opts-{}-{rep}", std::process::id()));
        let output = Command::new(exe("fig5_cycle"))
            .arg("--telemetry-out")
            .arg(&tel)
            .output()
            .expect("spawn");
        assert_eq!(output.status.code(), Some(0), "{rep}");
        let telemetry = std::fs::read_to_string(&tel).expect("telemetry written");
        assert!(telemetry.contains("cycle.warm.evals"), "{rep}");
        let _ = std::fs::remove_file(&tel);
        output.stdout
    };
    let first = run("a");
    assert!(!first.is_empty());
    assert_eq!(first, run("b"), "two runs diverged");
}

/// A telemetry path that cannot be created is a plain error and exit 1
/// before anything is printed, as in `vadasa_cycle`.
#[test]
fn fig5_cycle_unwritable_telemetry_exits_1_before_any_output() {
    let missing = std::env::temp_dir()
        .join(format!("vadasa-opts-{}-absent", std::process::id()))
        .join("x.jsonl");
    let output = Command::new(exe("fig5_cycle"))
        .arg("--telemetry-out")
        .arg(&missing)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(output.stdout.is_empty(), "printed before failing");
}
