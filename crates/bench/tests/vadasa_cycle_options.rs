//! `vadasa_cycle` refuses arguments it does not know.
//!
//! An ignored option is a silent default: `--treshold 0.01` would release
//! the table at the default threshold of 0.5, and so would a `--threshold`
//! whose value is missing. Any argument that is not an option, an
//! option's value or a switch, and any option without a well-formed
//! value, prints the usage line and exits 2 before the input is read or a
//! release is written.

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
