//! Rules compiled to slot frames.
//!
//! The evaluator compiles every rule once per run. Each variable gets a
//! dense *slot*: body variables in order of first occurrence, then the
//! head's existential variables in name order. Atoms, conditions,
//! assignments, heads, existentials, aggregate group keys and
//! contributors all refer to slots, and builtin calls are resolved to a
//! [`Builtin`](crate::builtins) once. A join then binds into one reusable
//! [`Frame`] per rule pass — a vector of optional values plus an undo
//! trail — instead of a string-keyed hash map cloned per firing. A slot
//! the join binds from a row points into the row, which the frozen
//! database keeps alive for the whole join: binding costs no copy.
//!
//! A firing's (variable name, value) pairs are only copied out of a
//! frame when something outside the engine needs them: provenance
//! tracing.

use crate::ast::{AggFunc, Head, Literal, Rule, Term};
use crate::builtins::CExpr;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a variable's cell in a rule's [`Frame`].
pub(crate) type Slot = usize;

/// Slot cells an expression reads: a join's [`Frame`], or a frame of
/// owned values (an aggregate group's, or one built from a
/// [`Binding`](crate::builtins::Binding)).
pub(crate) trait SlotValues {
    /// The value of `slot`, if bound.
    fn slot(&self, slot: Slot) -> Option<&Value>;
}

impl SlotValues for [Option<Value>] {
    fn slot(&self, slot: Slot) -> Option<&Value> {
        self.get(slot)?.as_ref()
    }
}

impl SlotValues for [Option<Cow<'_, Value>>] {
    fn slot(&self, slot: Slot) -> Option<&Value> {
        self.get(slot)?.as_deref()
    }
}

/// A compiled term: a constant or a frame slot.
#[derive(Debug, Clone)]
pub(crate) enum CTerm {
    Const(Value),
    Slot(Slot),
}

impl CTerm {
    /// The term's value under `frame` (`None` for an unbound slot).
    pub(crate) fn value(&self, frame: &(impl SlotValues + ?Sized)) -> Option<Value> {
        match self {
            CTerm::Const(v) => Some(v.clone()),
            CTerm::Slot(s) => frame.slot(*s).cloned(),
        }
    }
}

/// A compiled atom.
#[derive(Debug, Clone)]
pub(crate) struct CAtom {
    pub pred: Arc<str>,
    pub args: Vec<CTerm>,
}

/// A compiled body literal.
#[derive(Debug)]
pub(crate) enum CLit {
    Pos(CAtom),
    Neg(CAtom),
    Cond(Arc<CExpr>),
    Let {
        slot: Slot,
        expr: Arc<CExpr>,
    },
    Agg {
        slot: Slot,
        func: AggFunc,
        arg: CExpr,
        contributors: Vec<CExpr>,
    },
}

/// One argument of a plain rule's head atom.
#[derive(Debug)]
pub(crate) enum HeadArg {
    Const(Value),
    /// Position in the firing's frontier values.
    Frontier(usize),
    /// Position in the rule's existential nulls (name order).
    Null(usize),
}

/// A head atom of a plain rule, instantiated from a firing's frontier
/// values and the rule's existential nulls.
#[derive(Debug)]
pub(crate) struct HeadAtom {
    pub pred: Arc<str>,
    pub args: Vec<HeadArg>,
}

/// What a rule derives, by kind.
#[derive(Debug)]
pub(crate) enum CHead {
    /// A rule without aggregates: each firing records its frontier — the
    /// head variables bound by the body, in name order, which is also the
    /// Skolem memo key — and the head is built from it.
    Plain {
        atoms: Vec<HeadAtom>,
        frontier: Vec<Slot>,
        /// Number of existential variables (nulls minted per frontier).
        existentials: usize,
    },
    /// A rule with aggregates: the body before the first aggregate is
    /// joined and folded into groups keyed by `group`; the rest runs once
    /// per group, then `atoms` are built from the group's frame.
    Aggregate {
        prefix: usize,
        /// Head variables that are neither existential nor bound after
        /// the prefix, in name order.
        group: Vec<Slot>,
        atoms: Vec<CAtom>,
    },
    /// An EGD `left = right`.
    Equality(CTerm, CTerm),
}

/// A rule compiled to slots.
#[derive(Debug)]
pub(crate) struct CompiledRule {
    /// Variable names by slot.
    pub names: Vec<String>,
    pub body: Vec<CLit>,
    /// Per body literal: the slots it needs bound before it can run
    /// (empty for positive atoms).
    pub needs: Vec<Vec<Slot>>,
    pub head: CHead,
}

/// Slot assignment in order of first occurrence.
#[derive(Default)]
struct Slots(Vec<String>);

impl Slots {
    fn of(&mut self, name: &str) -> Slot {
        match self.0.iter().position(|n| n == name) {
            Some(s) => s,
            None => {
                self.0.push(name.to_string());
                self.0.len() - 1
            }
        }
    }

    fn term(&mut self, t: &Term) -> CTerm {
        match t {
            Term::Const(v) => CTerm::Const(v.clone()),
            Term::Var(v) => CTerm::Slot(self.of(v)),
        }
    }

    fn atom(&mut self, a: &crate::ast::Atom) -> CAtom {
        CAtom {
            pred: Arc::from(a.pred.as_str()),
            args: a.args.iter().map(|t| self.term(t)).collect(),
        }
    }

    fn expr(&mut self, e: &crate::ast::Expr) -> CExpr {
        CExpr::compile(e, &mut |name| self.of(name))
    }
}

impl CompiledRule {
    /// Compile `rule`.
    pub(crate) fn new(rule: &Rule) -> CompiledRule {
        let mut slots = Slots::default();
        let body: Vec<CLit> = rule
            .body
            .iter()
            .map(|lit| match lit {
                Literal::Pos(a) => CLit::Pos(slots.atom(a)),
                Literal::Neg(a) => CLit::Neg(slots.atom(a)),
                Literal::Cond(e) => CLit::Cond(Arc::new(slots.expr(e))),
                Literal::Let { var, expr } => {
                    let slot = slots.of(var);
                    CLit::Let {
                        slot,
                        expr: Arc::new(slots.expr(expr)),
                    }
                }
                Literal::Agg {
                    var,
                    func,
                    arg,
                    contributors,
                } => {
                    let slot = slots.of(var);
                    let arg = slots.expr(arg);
                    CLit::Agg {
                        slot,
                        func: *func,
                        arg,
                        contributors: contributors.iter().map(|c| slots.expr(c)).collect(),
                    }
                }
            })
            .collect();
        let needs = rule
            .body
            .iter()
            .map(|lit| lit.required_vars().iter().map(|v| slots.of(v)).collect())
            .collect();
        let head = match &rule.head {
            Head::Equality(l, r) => CHead::Equality(slots.term(l), slots.term(r)),
            Head::Atoms(atoms) => {
                let ex = rule.existential_vars();
                for v in &ex {
                    slots.of(v);
                }
                match rule
                    .body
                    .iter()
                    .position(|l| matches!(l, Literal::Agg { .. }))
                {
                    None => {
                        let ex: Vec<&str> = ex.iter().map(String::as_str).collect();
                        let frontier: Vec<&str> = atoms
                            .iter()
                            .flat_map(|a| a.vars())
                            .filter(|v| !ex.contains(v))
                            .collect::<BTreeSet<&str>>()
                            .into_iter()
                            .collect();
                        let arg = |t: &Term| match t {
                            Term::Const(v) => HeadArg::Const(v.clone()),
                            Term::Var(v) => match ex.iter().position(|x| x == v) {
                                Some(j) => HeadArg::Null(j),
                                None => HeadArg::Frontier(
                                    frontier
                                        .iter()
                                        .position(|x| x == v)
                                        .expect("the frontier holds every universal head variable"),
                                ),
                            },
                        };
                        CHead::Plain {
                            atoms: atoms
                                .iter()
                                .map(|a| HeadAtom {
                                    pred: Arc::from(a.pred.as_str()),
                                    args: a.args.iter().map(arg).collect(),
                                })
                                .collect(),
                            frontier: frontier.iter().map(|v| slots.of(v)).collect(),
                            existentials: ex.len(),
                        }
                    }
                    Some(prefix) => {
                        let suffix_vars: BTreeSet<&str> = rule.body[prefix..]
                            .iter()
                            .filter_map(|l| match l {
                                Literal::Agg { var, .. } | Literal::Let { var, .. } => {
                                    Some(var.as_str())
                                }
                                _ => None,
                            })
                            .collect();
                        let group: BTreeSet<&str> = atoms
                            .iter()
                            .flat_map(|a| a.vars())
                            .filter(|v| !ex.contains(*v) && !suffix_vars.contains(v))
                            .collect();
                        CHead::Aggregate {
                            prefix,
                            group: group.iter().map(|v| slots.of(v)).collect(),
                            atoms: atoms.iter().map(|a| slots.atom(a)).collect(),
                        }
                    }
                }
            }
        };
        CompiledRule {
            names: slots.0,
            body,
            needs,
            head,
        }
    }

    /// A fresh frame with every slot of this rule unbound.
    pub(crate) fn frame<'a>(&self) -> Frame<'a> {
        Frame {
            slots: vec![None; self.names.len()],
            trail: Vec::new(),
        }
    }
}

/// The variable cells one rule pass binds into, with an undo trail: a
/// join step records the slots it binds and unwinds to its mark before
/// trying the next candidate row. A slot bound from a row borrows the
/// value from the row (`'a` is the join's hold on the rows); one bound
/// by an assignment owns its value.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    slots: Vec<Option<Cow<'a, Value>>>,
    trail: Vec<Slot>,
}

impl<'a> Frame<'a> {
    /// The slot values (`None` while unbound).
    pub(crate) fn values(&self) -> &[Option<Cow<'a, Value>>] {
        &self.slots
    }

    /// The value of a slot, if bound.
    pub(crate) fn get(&self, slot: Slot) -> Option<&Value> {
        self.slots[slot].as_deref()
    }

    /// Bind an unbound slot to a value of its own, recording it on the
    /// trail.
    pub(crate) fn bind(&mut self, slot: Slot, value: Value) {
        self.slots[slot] = Some(Cow::Owned(value));
        self.trail.push(slot);
    }

    /// Bind an unbound slot to a value in a row, recording it on the
    /// trail.
    pub(crate) fn bind_ref(&mut self, slot: Slot, value: &'a Value) {
        self.slots[slot] = Some(Cow::Borrowed(value));
        self.trail.push(slot);
    }

    /// The slot values, owned.
    pub(crate) fn to_owned_values(&self) -> Vec<Option<Value>> {
        self.slots.iter().map(|v| v.as_deref().cloned()).collect()
    }

    /// The current trail position, to [`undo`](Self::undo) back to.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unbind every slot bound since `mark`.
    pub(crate) fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.slots[slot] = None;
        }
    }
}

/// The bound slots of `values` as (name, value) pairs, in slot order —
/// that is, in order of the variables' first occurrence in the rule.
pub(crate) fn bound_pairs<'a, F: SlotValues + ?Sized>(
    names: &'a [String],
    values: &'a F,
) -> impl Iterator<Item = (String, Value)> + 'a {
    names
        .iter()
        .enumerate()
        .filter_map(|(s, n)| values.slot(s).map(|v| (n.clone(), v.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    #[test]
    fn slots_follow_first_occurrence_then_existentials_by_name() {
        let rule = parse_rule("h(Z, B, X, A) :- p(X, Y), S = Y + 1, q(S, X).").unwrap();
        let c = CompiledRule::new(&rule);
        assert_eq!(c.names, vec!["X", "Y", "S", "A", "B", "Z"]);
        let CHead::Plain {
            atoms,
            frontier,
            existentials,
        } = &c.head
        else {
            panic!("plain rule compiles to a plain head");
        };
        assert_eq!(*existentials, 3);
        assert_eq!(frontier, &vec![0]);
        // Z is the third existential by name, A the first, B the second
        assert!(matches!(atoms[0].args[0], HeadArg::Null(2)));
        assert!(matches!(atoms[0].args[1], HeadArg::Null(1)));
        assert!(matches!(atoms[0].args[2], HeadArg::Frontier(0)));
        assert!(matches!(atoms[0].args[3], HeadArg::Null(0)));
    }

    #[test]
    fn aggregate_group_excludes_suffix_and_existential_variables() {
        let rule = parse_rule("out(G, R, T) :- t(G, I, W), R = msum(W, <I>), T = R * 2.").unwrap();
        let c = CompiledRule::new(&rule);
        let CHead::Aggregate { prefix, group, .. } = &c.head else {
            panic!("aggregate rule compiles to an aggregate head");
        };
        assert_eq!(*prefix, 1);
        assert_eq!(
            group
                .iter()
                .map(|&s| c.names[s].as_str())
                .collect::<Vec<_>>(),
            ["G"]
        );
    }

    #[test]
    fn frame_undo_unbinds_back_to_the_mark() {
        let rule = parse_rule("h(X, Y) :- p(X, Y).").unwrap();
        let mut frame = CompiledRule::new(&rule).frame();
        frame.bind(0, Value::Int(1));
        let mark = frame.mark();
        frame.bind(1, Value::Int(2));
        assert_eq!(
            bound_pairs(&["X".into(), "Y".into()], frame.values()).count(),
            2
        );
        frame.undo(mark);
        assert_eq!(frame.get(0), Some(&Value::Int(1)));
        assert_eq!(frame.get(1), None);
    }
}
