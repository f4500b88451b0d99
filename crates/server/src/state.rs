//! A job's lifecycle state, with the one table of the names the wire
//! format, the terminal-state marker (`state.json`) and `vadasa_status`
//! write and read.

/// Job lifecycle states.
///
/// ```text
/// Queued ──► Running ──► Done
///    ▲          │  ├───► Failed
///    │          │  ├───► Cancelled
///    │          │  └───► Interrupted   (checkpoint-and-stop shutdown)
///    └─Retrying ◄┘       (transient fault, capped backoff)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the cycle.
    Running,
    /// Hit a transient fault; re-queued behind a backoff gate.
    Retrying,
    /// Converged (or degraded safely); `released.csv` is on disk.
    Done,
    /// Terminal failure; see the structured error.
    Failed,
    /// Cancelled by the client.
    Cancelled,
    /// Stopped by a checkpoint-and-stop shutdown; the journal is
    /// resumable and fleet recovery re-queues the job on restart.
    Interrupted,
}

impl JobState {
    /// Every state, in declaration order.
    pub const ALL: [JobState; 7] = [
        JobState::Queued,
        JobState::Running,
        JobState::Retrying,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
        JobState::Interrupted,
    ];

    /// Stable lowercase name (marker / wire format).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Retrying => "retrying",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// The state a [`name`](Self::name) stands for, `None` for any other
    /// string.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|state| state.name() == s)
    }

    /// No worker will touch this job again (in this process). These are
    /// also the states a marker records.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::Interrupted
        )
    }

    pub(crate) fn in_flight(&self) -> bool {
        !self.is_terminal()
    }
}
