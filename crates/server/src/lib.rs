//! # vadasa-server — supervised multi-job anonymization service
//!
//! A job-queue front end for the [`vadasa_core`] anonymization cycle:
//! many journaled cycles run concurrently on a bounded worker pool,
//! each job individually resumable, the whole fleet recoverable after a
//! crash of the entire process.
//!
//! - [`spec`] — what a job *is*: the submitted [`JobSpec`], its durable
//!   manifest (`job.json`) and terminal-state marker (`state.json`).
//!   One reader takes a manifest and a submit line alike.
//! - [`state`] — the job lifecycle ([`JobState`]) and its names.
//! - [`backoff`] — fault classification (transient journal I/O vs
//!   fail-fast everything else) and capped exponential backoff with
//!   deterministic per-job jitter.
//! - [`server`] — the supervisor: [`JobServer`], admission control,
//!   panic isolation, retry, graceful shutdown, fleet recovery.
//! - [`protocol`] — the newline-delimited JSON control protocol served
//!   by the `vadasa_server` binary over a unix socket or stdin.
//!
//! ## Quick start
//!
//! ```
//! use vadasa_server::{JobServer, JobSpec, JobState, MeasureSpec, ServerConfig, ShutdownMode};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let root = std::env::temp_dir().join(format!("vadasa-doc-{}", std::process::id()));
//! let server = JobServer::start(ServerConfig::new(&root))?;
//! let spec = JobSpec::from_csv(
//!     "survey",
//!     "id,area,weight\n1,North,9\n2,North,2\n3,South,5\n4,South,1\n",
//!     MeasureSpec::KAnonymity(2),
//! )?;
//! server.submit("demo", spec)?;
//! let report = server.wait("demo", Duration::from_secs(60)).ok_or("timed out")?;
//! assert_eq!(report.state, JobState::Done);
//! let released = server.result_csv("demo").ok_or("no released table")?;
//! assert!(released.starts_with("id,area,weight"));
//! server.shutdown(ShutdownMode::Drain);
//! # std::fs::remove_dir_all(&root).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod state;

pub use backoff::{classify, FaultClass, RetryPolicy};
pub use server::{JobReport, JobServer, ServerConfig, ShutdownMode, SubmitError};
pub use spec::{JobSpec, Marker, MarkerSummary, MeasureSpec, SpecError};
pub use state::JobState;
