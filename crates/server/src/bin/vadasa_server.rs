//! `vadasa_server` — the supervised multi-job anonymization service.
//!
//! ```text
//! vadasa_server --jobs-root DIR [--workers N] [--queue N] [--max-rows N]
//!               [--retries N] [--socket PATH | --stdin]
//!
//!   --jobs-root DIR   root directory; one subdirectory per job (required)
//!   --workers N       worker threads (default 2)
//!   --queue N         in-flight job cap for admission control (default 32)
//!   --max-rows N      row budget across all in-flight jobs (default unlimited)
//!   --retries N       max retries per job for transient faults (default 3)
//!   --socket PATH     serve the NDJSON protocol on a unix socket
//!   --stdin           serve the NDJSON protocol on stdin/stdout (default)
//! ```
//!
//! Any other argument (a misspelt option, say), or an option without a
//! well-formed value, prints the usage line and exits 2 without starting
//! the server.
//!
//! On start the server **always recovers the whole fleet**: every job
//! directory under the root is re-registered, and jobs that were
//! mid-flight when the previous process died resume from their
//! write-ahead journals — bit-identically to a run that was never
//! interrupted.
//!
//! Transport is newline-delimited JSON (see [`vadasa_server::protocol`]);
//! there is deliberately no HTTP. EOF on stdin is a drain shutdown. On a
//! socket, each connection is served in turn; a `shutdown` command ends
//! the process after the requested drain/stop completes.

use std::fmt::Display;
use std::io::{BufRead, BufReader, Write};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use vadasa_server::protocol::{handle_line, Disposition};
use vadasa_server::{JobServer, ServerConfig, ShutdownMode};

fn usage() -> ! {
    eprintln!(
        "usage: vadasa_server --jobs-root DIR [--workers N] [--queue N] [--max-rows N] \
         [--retries N] [--socket PATH | --stdin]"
    );
    std::process::exit(2);
}

/// The operand of `option`, parsed; a missing or malformed operand is a
/// usage error.
fn operand<T: FromStr>(args: &mut impl Iterator<Item = String>, option: &str) -> T
where
    T::Err: Display,
{
    let Some(text) = args.next() else {
        eprintln!("{option} needs a value");
        usage()
    };
    match text.parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{option}: cannot parse '{text}': {e}");
            usage()
        }
    }
}

/// Serve one line-oriented reader/writer pair until EOF or shutdown.
/// Returns the shutdown mode if a `shutdown` command arrived.
fn serve<R: BufRead, W: Write>(
    server: &JobServer,
    reader: R,
    mut writer: W,
) -> Option<ShutdownMode> {
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // client went away
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, disposition) = handle_line(server, &line);
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if let Disposition::Shutdown(mode) = disposition {
            return Some(mode);
        }
    }
    None
}

fn main() -> ExitCode {
    let mut config = ServerConfig::new("");
    let mut socket: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs-root" => config.jobs_root = operand(&mut args, &arg),
            "--workers" => config.workers = operand::<NonZeroUsize>(&mut args, &arg).get(),
            "--queue" => config.queue_capacity = operand::<NonZeroUsize>(&mut args, &arg).get(),
            "--max-rows" => config.budget.max_facts = Some(operand(&mut args, &arg)),
            "--retries" => config.retry.max_retries = operand(&mut args, &arg),
            "--socket" => socket = Some(operand(&mut args, &arg)),
            "--stdin" => {}
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }
    if config.jobs_root.as_os_str().is_empty() {
        eprintln!("missing required --jobs-root DIR");
        usage()
    }
    let jobs_root = config.jobs_root.display().to_string();

    let server = match JobServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server over {jobs_root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "vadasa_server: supervising {} (recovered {} job(s))",
        jobs_root,
        server.metrics().counter("server.recovered")
    );

    let mode = match socket {
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot bind {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("vadasa_server: listening on {path}");
            let mut mode = None;
            // Connections are served one at a time: the protocol is
            // cheap request/response; the heavy lifting happens on the
            // worker pool.
            while mode.is_none() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let reader = BufReader::new(match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => continue,
                        });
                        mode = serve(&server, reader, stream);
                    }
                    Err(e) => {
                        eprintln!("accept: {e}");
                        break;
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
            mode.unwrap_or(ShutdownMode::Drain)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve(&server, stdin.lock(), stdout.lock()).unwrap_or(ShutdownMode::Drain)
        }
    };
    server.shutdown(mode);
    ExitCode::SUCCESS
}
