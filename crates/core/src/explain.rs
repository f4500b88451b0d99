//! Explainability: a structured audit trail of the anonymization cycle.
//!
//! The paper's desideratum (vi) demands that "the confidentiality score of
//! a candidate dataset as well as the reasons for specific anonymization
//! choices \[be\] completely understandable to domain experts". In the
//! declarative encoding each decision is justified by the binding of
//! Algorithm 2's Rule 2; the native cycle records the same information as
//! [`Decision`] values: which tuple violated the threshold, under which
//! measure and score, and what was changed as a consequence.

use crate::anonymize::AnonymizationAction;
use std::fmt;

/// One audited anonymization decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Cycle iteration (0-based) in which the decision was taken.
    pub iteration: usize,
    /// The tuple that violated the threshold.
    pub row: usize,
    /// The measure that produced the violating score.
    pub measure: String,
    /// The tuple's risk when the decision was taken.
    pub risk: f64,
    /// The threshold it violated.
    pub threshold: f64,
    /// The action applied.
    pub action: AnonymizationAction,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[iter {}] tuple {} had {} risk {:.4} > T={:.2}: ",
            self.iteration, self.row, self.measure, self.risk, self.threshold
        )?;
        match &self.action {
            AnonymizationAction::Suppress { attr, previous, .. } => {
                write!(f, "suppressed {attr} (was {previous})")
            }
            AnonymizationAction::Recode {
                attr,
                from,
                to,
                rows_affected,
            } => write!(
                f,
                "recoded {attr}: {from} → {to} ({rows_affected} cells, global)"
            ),
            AnonymizationAction::Exhausted { .. } => {
                write!(f, "no further anonymization possible")
            }
        }
    }
}

/// The full audit trail of one anonymization run.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    /// Decisions in the order they were taken.
    pub decisions: Vec<Decision>,
}

impl AuditLog {
    /// Record a decision.
    pub fn record(&mut self, d: Decision) {
        self.decisions.push(d);
    }

    /// Decisions affecting one tuple.
    pub fn for_tuple(&self, row: usize) -> Vec<&Decision> {
        self.decisions.iter().filter(|d| d.row == row).collect()
    }

    /// Number of suppression actions.
    pub fn suppressions(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.action, AnonymizationAction::Suppress { .. }))
            .count()
    }

    /// Number of recoding actions.
    pub fn recodings(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.action, AnonymizationAction::Recode { .. }))
            .count()
    }

    /// Render the full trail, one line per decision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::Value;

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::default();
        log.record(Decision {
            iteration: 0,
            row: 3,
            measure: "k-anonymity".into(),
            risk: 1.0,
            threshold: 0.5,
            action: AnonymizationAction::Suppress {
                row: 3,
                attr: "Sector".into(),
                previous: Value::str("Textiles"),
            },
        });
        log.record(Decision {
            iteration: 1,
            row: 3,
            measure: "k-anonymity".into(),
            risk: 1.0,
            threshold: 0.5,
            action: AnonymizationAction::Exhausted { row: 3 },
        });
        log.record(Decision {
            iteration: 0,
            row: 5,
            measure: "k-anonymity".into(),
            risk: 1.0,
            threshold: 0.5,
            action: AnonymizationAction::Recode {
                attr: "Area".into(),
                from: Value::str("Milano"),
                to: Value::str("North"),
                rows_affected: 2,
            },
        });
        log
    }

    #[test]
    fn counters_and_filters() {
        let log = sample_log();
        assert_eq!(log.suppressions(), 1);
        assert_eq!(log.recodings(), 1);
        assert_eq!(log.for_tuple(3).len(), 2);
    }

    #[test]
    fn rendering_is_human_readable() {
        let log = sample_log();
        let text = log.render();
        assert!(text.contains("suppressed Sector"));
        assert!(text.contains("Milano"));
        assert!(text.contains("risk 1.0000 > T=0.50"));
        assert_eq!(text.lines().count(), 3);
    }
}
