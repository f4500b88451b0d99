//! Execution governor: cooperative resource budgets and cancellation.
//!
//! A production reasoning task serving an RDC must *degrade*, not die: when
//! wall-clock, memory or iteration budgets run out, the engine should hand
//! back the work it has done — tagged as partial — instead of discarding it
//! behind an error. This module provides the three pieces the engine
//! checks in its semi-naive loop:
//!
//! - [`Budget`] — declarative soft limits (wall-clock deadline and
//!   derived-fact cap). Both default to *unlimited*; the no-budget path
//!   costs one boolean test per fixpoint round (see [`Governor::active`]).
//! - [`CancelToken`] — a cloneable cooperative cancellation flag (an
//!   `AtomicBool`), checked between fixpoint rounds and handed to callers
//!   that need to stop a long run from another thread.
//! - [`Termination`] — how a run ended: a genuine fixpoint, a tripped
//!   budget, or a cancellation. [`ReasoningResult`] carries it so callers
//!   can react (the anonymization cycle degrades into extra suppression;
//!   the CLI prints what it has plus a warning).
//!
//! [`ReasoningResult`]: crate::eval::ReasoningResult

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline ([`Budget::deadline`]).
    Deadline,
    /// The derived-fact cap ([`Budget::max_facts`] or the hard
    /// `EngineConfig::max_facts` backstop).
    Facts,
    /// The hard fixpoint-iteration backstop (`EngineConfig::max_iterations`).
    Iterations,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BudgetKind::Deadline => "wall-clock deadline",
            BudgetKind::Facts => "derived-fact cap",
            BudgetKind::Iterations => "fixpoint-iteration cap",
        };
        f.write_str(name)
    }
}

/// Declarative resource budget for one reasoning run. Every limit is
/// optional; [`Budget::default`] is unlimited. Unlike the hard caps on
/// `EngineConfig` (which abort with an error and discard the run), a
/// tripped budget ends the run *gracefully*: the engine returns the facts
/// derived so far with [`Termination::BudgetExceeded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole run, measured from `Engine::run`
    /// entry. Checked between semi-naive rounds (cooperatively — a single
    /// enormous round can overshoot).
    pub deadline: Option<Duration>,
    /// Soft cap on total derived facts.
    pub max_facts: Option<usize>,
}

impl Budget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Does this budget constrain anything?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_facts.is_none()
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the derived-fact cap.
    pub fn with_max_facts(mut self, max_facts: usize) -> Self {
        self.max_facts = Some(max_facts);
        self
    }
}

/// A cooperative cancellation flag. Cloning is cheap (an `Arc`); all
/// clones observe the same flag. The engine and the anonymization cycle
/// poll it between rounds / iterations, so cancellation takes effect at
/// the next check point, never mid-insertion.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How a reasoning run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// The run reached a genuine fixpoint: the result is complete.
    Fixpoint,
    /// A [`Budget`] limit tripped: the result is a sound but possibly
    /// incomplete prefix of the fixpoint.
    BudgetExceeded {
        /// The limit that tripped.
        which: BudgetKind,
        /// Stratum being evaluated when it tripped.
        stratum: usize,
        /// Label (or `rule#i` index form) of the rule being applied when
        /// the limit tripped, when attributable.
        rule: Option<String>,
    },
    /// A [`CancelToken`] fired: the result is a sound partial prefix.
    Cancelled,
}

impl Termination {
    /// Did the run complete (reach a fixpoint)?
    pub fn is_fixpoint(&self) -> bool {
        matches!(self, Termination::Fixpoint)
    }
}

impl fmt::Display for Termination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Termination::Fixpoint => write!(f, "fixpoint"),
            Termination::BudgetExceeded {
                which,
                stratum,
                rule,
            } => {
                write!(f, "budget exceeded: {which} (stratum {stratum}")?;
                if let Some(r) = rule {
                    write!(f, ", rule {r}")?;
                }
                write!(f, ")")
            }
            Termination::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Why the governor asked the engine to stop (pre-attribution form of
/// [`Termination`]; the engine fills in stratum / rule context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A budget limit tripped.
    Budget(BudgetKind),
    /// The cancel token fired.
    Cancelled,
}

/// Runtime governor for one engine run: a [`Budget`], an optional
/// [`CancelToken`] and the run's start instant. All checks are counter
/// arithmetic against counters the engine maintains anyway; when nothing
/// is constrained ([`Governor::active`] is false) the engine skips the
/// checks entirely, keeping the default path free.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    cancel: Option<CancelToken>,
    start: Instant,
    active: bool,
}

impl Governor {
    /// Governor for a run starting now.
    pub fn new(budget: Budget, cancel: Option<CancelToken>) -> Self {
        let active = !budget.is_unlimited() || cancel.is_some();
        Governor {
            budget,
            cancel,
            start: Instant::now(),
            active,
        }
    }

    /// Is any limit or cancellation source configured? When false, the
    /// engine bypasses [`Governor::stop_reason`] altogether.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The budget under governance.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Should the run stop? `facts` is the run's total of derived facts.
    /// Returns `None` while every limit holds. Cancellation wins over
    /// budgets so an explicit stop is reported as such.
    pub fn stop_reason(&self, facts: usize) -> Option<StopReason> {
        if !self.active {
            return None;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(cap) = self.budget.max_facts {
            if facts > cap {
                return Some(StopReason::Budget(BudgetKind::Facts));
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return Some(StopReason::Budget(BudgetKind::Deadline));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_inactive() {
        assert!(Budget::default().is_unlimited());
        let g = Governor::new(Budget::unlimited(), None);
        assert!(!g.active());
        assert_eq!(g.stop_reason(usize::MAX), None);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
        let g = Governor::new(Budget::unlimited(), Some(t2));
        assert_eq!(g.stop_reason(0), Some(StopReason::Cancelled));
    }

    #[test]
    fn budgets_trip_individually() {
        let g = Governor::new(Budget::unlimited().with_max_facts(10), None);
        assert_eq!(g.stop_reason(10), None);
        assert_eq!(
            g.stop_reason(11),
            Some(StopReason::Budget(BudgetKind::Facts))
        );
        let g = Governor::new(
            Budget::unlimited().with_deadline(Duration::from_nanos(0)),
            None,
        );
        assert_eq!(
            g.stop_reason(0),
            Some(StopReason::Budget(BudgetKind::Deadline))
        );
    }

    #[test]
    fn cancellation_outranks_budgets() {
        let t = CancelToken::new();
        t.cancel();
        let g = Governor::new(Budget::unlimited().with_max_facts(0), Some(t));
        assert_eq!(g.stop_reason(100), Some(StopReason::Cancelled));
    }

    #[test]
    fn termination_renders_human_readable() {
        let t = Termination::BudgetExceeded {
            which: BudgetKind::Facts,
            stratum: 2,
            rule: Some("tc".into()),
        };
        let s = t.to_string();
        assert!(s.contains("derived-fact cap"));
        assert!(s.contains("stratum 2"));
        assert!(s.contains("tc"));
        assert!(!t.is_fixpoint());
        assert!(Termination::Fixpoint.is_fixpoint());
    }
}
