//! Routing strategies: controlling the order in which rule bindings are
//! applied (paper §4.4, "runtime heuristics").
//!
//! The Vadalog system exposes *routing strategies* deciding which rule
//! bindings to privilege when many are available. In the anonymization
//! setting this realizes the "less significant first" heuristic (anonymize
//! statistically weak tuples before strong ones) and "most risky first"
//! (suppress the quasi-identifier contributing most risk first).
//!
//! Binding order is observable whenever derivation is budgeted, traced, or
//! when downstream consumers read facts in insertion order — which is how
//! the anonymization cycle in `vadasa-core` consumes them.

use crate::ast::Rule;
use crate::builtins::Binding;
use crate::value::Value;

/// Orders the bindings of a rule before its head facts are derived.
///
/// `Send + Sync` so an [`EngineConfig`](crate::eval::EngineConfig) holding
/// a router can move to the thread that runs it; routers are expected to
/// be plain data (all in-tree strategies are).
pub trait Router: Send + Sync {
    /// Strategy name for diagnostics.
    fn name(&self) -> &str;
    /// Reorder `bindings` in place; earlier bindings fire first.
    fn order_bindings(&self, rule: &Rule, bindings: &mut Vec<Binding>);
}

/// First-in-first-out: keep the natural join order.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Router for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }
    fn order_bindings(&self, _rule: &Rule, _bindings: &mut Vec<Binding>) {}
}

/// Order bindings by a scoring variable, ascending ("least X first").
///
/// Bindings that do not bind the variable, or bind it to a non-numeric
/// value, keep their relative order after the scored ones.
#[derive(Debug, Clone)]
pub struct AscendingBy {
    /// Variable whose value drives the priority.
    pub var: String,
}

impl Router for AscendingBy {
    fn name(&self) -> &str {
        "ascending-by"
    }
    fn order_bindings(&self, _rule: &Rule, bindings: &mut Vec<Binding>) {
        bindings.sort_by(|a, b| {
            let ka = a.get(&self.var).and_then(Value::as_f64);
            let kb = b.get(&self.var).and_then(Value::as_f64);
            match (ka, kb) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
        });
    }
}

/// Order bindings by a scoring variable, descending ("most X first").
#[derive(Debug, Clone)]
pub struct DescendingBy {
    /// Variable whose value drives the priority.
    pub var: String,
}

impl Router for DescendingBy {
    fn name(&self) -> &str {
        "descending-by"
    }
    fn order_bindings(&self, rule: &Rule, bindings: &mut Vec<Binding>) {
        AscendingBy {
            var: self.var.clone(),
        }
        .order_bindings(rule, bindings);
        bindings.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn binding(var: &str, v: Value) -> Binding {
        let mut b = Binding::new();
        b.insert(var.to_string(), v);
        b
    }

    #[test]
    fn ascending_orders_numerically() {
        let rule = parse_rule("h(X) :- t(X).").unwrap();
        let mut bs = vec![
            binding("W", Value::Int(30)),
            binding("W", Value::Int(10)),
            binding("W", Value::Float(20.0)),
        ];
        AscendingBy { var: "W".into() }.order_bindings(&rule, &mut bs);
        let ws: Vec<f64> = bs.iter().map(|b| b["W"].as_f64().unwrap()).collect();
        assert_eq!(ws, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn descending_reverses() {
        let rule = parse_rule("h(X) :- t(X).").unwrap();
        let mut bs = vec![binding("W", Value::Int(1)), binding("W", Value::Int(5))];
        DescendingBy { var: "W".into() }.order_bindings(&rule, &mut bs);
        assert_eq!(bs[0]["W"], Value::Int(5));
    }

    #[test]
    fn unscored_bindings_go_last() {
        let rule = parse_rule("h(X) :- t(X).").unwrap();
        let mut bs = vec![
            binding("Q", Value::Int(1)), // no W
            binding("W", Value::Int(2)),
        ];
        AscendingBy { var: "W".into() }.order_bindings(&rule, &mut bs);
        assert!(bs[0].contains_key("W"));
    }

    #[test]
    fn fifo_is_identity() {
        let rule = parse_rule("h(X) :- t(X).").unwrap();
        let mut bs = vec![binding("W", Value::Int(9)), binding("W", Value::Int(1))];
        Fifo.order_bindings(&rule, &mut bs);
        assert_eq!(bs[0]["W"], Value::Int(9));
    }
}
