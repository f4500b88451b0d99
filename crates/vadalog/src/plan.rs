//! Join planning: per-rule body-literal ordering by boundness and
//! estimated selectivity.
//!
//! The evaluator joins a rule's positive body literals left to right.
//! Source order is rarely the cheapest order: joining the *most bound*
//! atom first (most argument positions already fixed by constants or
//! earlier literals) shrinks the intermediate binding set, and among
//! equally bound atoms the smaller relation is the better driver. The
//! planner performs that greedy reordering once per rule per semi-naive
//! round (relation sizes change between rounds), subject to semantics:
//!
//! - negations, conditions and assignments are scheduled as soon as every
//!   variable they need is bound — never before, since an unbound negation
//!   or condition would silently change the rule's meaning;
//! - in a delta-focused pass the focused literal is placed first: the
//!   delta is the smallest input by construction and anchoring it bounds
//!   the rest of the join;
//! - aggregates never reach the planner (aggregate rules split their body
//!   before joining, see the evaluator).
//!
//! Because the execution order is fixed by the plan, the set of bound
//! argument positions of every positive literal is *statically known*.
//! The plan records those masks so the engine can prebuild the matching
//! hash indexes ([`crate::storage::Relation::ensure_index`]) before the
//! join, after which all index access in the round is read-only.
//!
//! Plans are made over rules compiled to slots (`compile.rs`), and the
//! same static knowledge compiles each step for its place: every argument
//! of a positive atom is a constant test, a test against a slot bound by
//! an earlier step, or the binding of a free slot, and an assignment
//! either binds its slot or filters on it. A row that comes from an index
//! probe only binds: the probe already matched the bound positions.

use crate::builtins::CExpr;
use crate::compile::{CLit, CTerm, CompiledRule, Slot};
use crate::storage::Database;
use crate::value::Value;
use std::sync::Arc;

/// One scheduled body literal.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index of the literal in the rule body.
    pub lit: usize,
    /// For positive atoms: argument positions bound at probe time
    /// (constants, repeated variables resolved earlier, or variables bound
    /// by previous steps). Empty for non-positive literals and for the
    /// delta-focused literal (which scans the delta instead of probing).
    pub bound: Vec<usize>,
    /// The literal compiled for this position in the plan.
    pub(crate) op: StepOp,
}

/// How a join step tests or binds one argument of a candidate row.
#[derive(Debug, Clone)]
pub(crate) enum ArgOp {
    /// The argument must equal a constant.
    Is(Value),
    /// The argument must equal a slot bound earlier.
    Eq(Slot),
    /// The argument binds a free slot.
    Bind(Slot),
}

/// A body literal compiled for its place in a plan. The plan fixes which
/// slots are bound before each step, so every argument of a positive atom
/// is statically either tested or bound, and an assignment statically
/// either binds or filters.
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    /// Positive atom: match rows of `pred`.
    Match {
        pred: Arc<str>,
        arity: usize,
        /// Probe key terms, one per `bound` position.
        key: Vec<CTerm>,
        /// Argument ops for a scanned row, in argument order.
        scan: Vec<(usize, ArgOp)>,
        /// Argument ops for a probed row: the probe already matched the
        /// `bound` positions, so only the free ones are left to bind.
        probe: Vec<(usize, ArgOp)>,
    },
    /// Negated atom: the row built from `args` must be absent.
    Absent { pred: Arc<str>, args: Vec<CTerm> },
    /// Condition: must evaluate to true.
    Test(Arc<CExpr>),
    /// Assignment into `slot`; an equality filter when `slot` is bound.
    Assign {
        slot: Slot,
        expr: Arc<CExpr>,
        filter: bool,
    },
    /// An aggregate literal, which a join cannot evaluate.
    Aggregate,
}

/// An execution order for one rule body.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Steps in execution order; covers every body literal exactly once.
    pub steps: Vec<PlanStep>,
    /// Body index of the delta-focused literal, if this is a delta pass.
    pub focus: Option<usize>,
    /// Did the planner deviate from source order?
    pub reordered: bool,
    /// Semi-join short-circuit: some positive, non-focused body literal
    /// reads an empty relation, so the join cannot produce a single
    /// binding. The executor skips dead plans whole (no index builds, no
    /// scans) and counts them as `planner_prunes`. This is what makes
    /// magic-guarded rules cheap before their magic set first fills, and
    /// spares the business-control recursion from re-scanning strata
    /// whose inputs are empty.
    pub dead: bool,
}

impl JoinPlan {
    /// (predicate, bound positions) pairs whose indexes the executor needs.
    pub fn index_needs(&self) -> impl Iterator<Item = (&str, &[usize])> {
        self.steps.iter().filter_map(move |s| match &s.op {
            StepOp::Match { pred, .. } if Some(s.lit) != self.focus && !s.bound.is_empty() => {
                Some((&**pred, s.bound.as_slice()))
            }
            _ => None,
        })
    }
}

/// The do-nothing plan over the first `len` literals of a compiled body:
/// source order, no probe masks. This is the execution order of the
/// reference nested-loop evaluator
/// ([`JoinMode::Reference`](crate::eval::JoinMode)), kept as the
/// correctness oracle the planned/indexed path is tested against.
pub(crate) fn identity_plan(rule: &CompiledRule, len: usize, focus: Option<usize>) -> JoinPlan {
    finish(
        rule,
        (0..len).map(|lit| (lit, Vec::new())).collect(),
        focus,
        false,
    )
}

/// Estimated driving cost of scanning `pred` (relation cardinality).
fn relation_size(db: &Database, pred: &str) -> usize {
    db.relation(pred).map(|r| r.len()).unwrap_or(0)
}

/// Statically bound argument positions of a positive atom given the
/// already-bound slots. A repeated variable's *first* occurrence binds it,
/// so only subsequent occurrences (and pre-bound variables and constants)
/// count as bound for index purposes.
fn bound_positions(args: &[CTerm], bound: &[bool]) -> Vec<usize> {
    let mut seen_here: Vec<Slot> = Vec::new();
    let mut out = Vec::new();
    for (i, t) in args.iter().enumerate() {
        match t {
            CTerm::Const(_) => out.push(i),
            CTerm::Slot(s) => {
                if bound[*s] || seen_here.contains(s) {
                    out.push(i);
                } else {
                    seen_here.push(*s);
                }
            }
        }
    }
    out
}

/// Plan the first `len` literals of a compiled rule body. `focus` is the
/// body index of the delta-focused positive literal for semi-naive passes
/// (`None` on the full pass).
pub(crate) fn plan(
    rule: &CompiledRule,
    len: usize,
    db: &Database,
    focus: Option<usize>,
) -> JoinPlan {
    let body = &rule.body[..len];
    // A positive, non-focused literal over an empty relation makes the
    // whole join vacuous; mark the plan dead so the executor can skip it
    // without building indexes or scanning anything.
    let dead = body.iter().enumerate().any(|(i, lit)| match lit {
        CLit::Pos(a) if Some(i) != focus => relation_size(db, &a.pred) == 0,
        _ => false,
    });
    let mut placed = vec![false; len];
    let mut bound = vec![false; rule.names.len()];
    let mut steps: Vec<(usize, Vec<usize>)> = Vec::with_capacity(len);

    // Schedule every non-positive literal whose requirements are met, in
    // source order; repeat so `Let` chains resolve.
    let place_ready =
        |placed: &mut [bool], bound: &mut [bool], steps: &mut Vec<(usize, Vec<usize>)>| loop {
            let mut progressed = false;
            for (i, lit) in body.iter().enumerate() {
                if placed[i] || matches!(lit, CLit::Pos(_)) {
                    continue;
                }
                if rule.needs[i].iter().all(|&s| bound[s]) {
                    placed[i] = true;
                    if let CLit::Let { slot, .. } = lit {
                        bound[*slot] = true;
                    }
                    steps.push((i, Vec::new()));
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        };
    let bind_atom = |bound: &mut [bool], args: &[CTerm]| {
        for t in args {
            if let CTerm::Slot(s) = t {
                bound[*s] = true;
            }
        }
    };

    // The delta-focused literal anchors the join.
    if let Some(f) = focus {
        placed[f] = true;
        if let CLit::Pos(a) = &body[f] {
            bind_atom(&mut bound, &a.args);
        }
        steps.push((f, Vec::new()));
        place_ready(&mut placed, &mut bound, &mut steps);
    }

    loop {
        place_ready(&mut placed, &mut bound, &mut steps);
        // pick the best unplaced positive literal
        let mut best: Option<(usize, bool, usize, usize)> = None; // (lit, fully_bound, bound_count, size)
        for (i, lit) in body.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let CLit::Pos(a) = lit else { continue };
            let nbound = bound_positions(&a.args, &bound).len();
            let size = relation_size(db, &a.pred);
            // A literal with every position bound is a pure existence
            // check (a semi-join filter): it binds nothing new and either
            // keeps or kills the current binding, so running it before
            // any widening join subsumes work the join would multiply.
            let full = !a.args.is_empty() && nbound == a.args.len();
            let better = match &best {
                None => true,
                Some((_, bf, bb, bs)) => {
                    // fully-bound filters first; then more bound
                    // positions; then smaller relation; then source order
                    // (implicit via iteration order)
                    (full, nbound, usize::MAX - size) > (*bf, *bb, usize::MAX - *bs)
                }
            };
            if better {
                best = Some((i, full, nbound, size));
            }
        }
        let Some((i, _, _, _)) = best else { break };
        let CLit::Pos(a) = &body[i] else { break };
        let positions = bound_positions(&a.args, &bound);
        bind_atom(&mut bound, &a.args);
        placed[i] = true;
        steps.push((i, positions));
    }
    place_ready(&mut placed, &mut bound, &mut steps);

    // Blocked leftovers (possible only for rules that would fail the
    // safety check): append in source order so execution degrades to the
    // source semantics instead of dropping literals.
    for (i, p) in placed.iter().enumerate() {
        if !p {
            steps.push((i, Vec::new()));
        }
    }

    finish(rule, steps, focus, dead)
}

/// Compile each scheduled literal for its place in the order: walking the
/// steps in execution order fixes which slots are bound before each one.
fn finish(
    rule: &CompiledRule,
    order: Vec<(usize, Vec<usize>)>,
    focus: Option<usize>,
    dead: bool,
) -> JoinPlan {
    let reordered = order.iter().enumerate().any(|(pos, (lit, _))| *lit != pos);
    let mut bound = vec![false; rule.names.len()];
    let steps = order
        .into_iter()
        .map(|(lit, positions)| {
            let op = match &rule.body[lit] {
                CLit::Pos(a) => {
                    let mut scan = Vec::with_capacity(a.args.len());
                    for (i, t) in a.args.iter().enumerate() {
                        scan.push((
                            i,
                            match t {
                                CTerm::Const(v) => ArgOp::Is(v.clone()),
                                CTerm::Slot(s) if bound[*s] => ArgOp::Eq(*s),
                                CTerm::Slot(s) => {
                                    bound[*s] = true;
                                    ArgOp::Bind(*s)
                                }
                            },
                        ));
                    }
                    StepOp::Match {
                        pred: a.pred.clone(),
                        arity: a.args.len(),
                        key: positions.iter().map(|&i| a.args[i].clone()).collect(),
                        probe: scan
                            .iter()
                            .filter(|(i, _)| !positions.contains(i))
                            .cloned()
                            .collect(),
                        scan,
                    }
                }
                CLit::Neg(a) => StepOp::Absent {
                    pred: a.pred.clone(),
                    args: a.args.clone(),
                },
                CLit::Cond(e) => StepOp::Test(e.clone()),
                CLit::Let { slot, expr } => {
                    let filter = bound[*slot];
                    bound[*slot] = true;
                    StepOp::Assign {
                        slot: *slot,
                        expr: expr.clone(),
                        filter,
                    }
                }
                CLit::Agg { .. } => StepOp::Aggregate,
            };
            PlanStep {
                lit,
                bound: positions,
                op,
            }
        })
        .collect();
    JoinPlan {
        steps,
        focus,
        reordered,
        dead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Rule;
    use crate::parser::parse_rule;
    use crate::value::Value;

    fn plan_body(rule: &Rule, db: &Database, focus: Option<usize>) -> JoinPlan {
        let rule = CompiledRule::new(rule);
        plan(&rule, rule.body.len(), db, focus)
    }

    fn db_with(sizes: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for (pred, n) in sizes {
            for i in 0..*n {
                db.insert(*pred, vec![Value::Int(i as i64), Value::Int(i as i64 + 1)]);
            }
        }
        db
    }

    #[test]
    fn smaller_relation_drives_the_join() {
        let rule = parse_rule("h(X, Y) :- big(X, Z), small(Z, Y).").unwrap();
        let db = db_with(&[("big", 100), ("small", 2)]);
        let plan = plan_body(&rule, &db, None);
        assert_eq!(plan.steps[0].lit, 1, "small relation should go first");
        assert!(plan.reordered);
        // after small(Z, Y) binds Z, big probes on position 1
        assert_eq!(plan.steps[1].bound, vec![1]);
    }

    #[test]
    fn constants_count_as_bound() {
        let rule = parse_rule("h(X) :- a(X, Y), b(1, X).").unwrap();
        let db = db_with(&[("a", 10), ("b", 10)]);
        let plan = plan_body(&rule, &db, None);
        // b(1, X) has one bound position (the constant) vs zero for a
        assert_eq!(plan.steps[0].lit, 1);
        assert_eq!(plan.steps[0].bound, vec![0]);
    }

    #[test]
    fn negation_waits_for_its_variables() {
        let rule = parse_rule("h(X) :- not q(Y), p(X, Y).").unwrap();
        let db = db_with(&[("p", 5), ("q", 5)]);
        let plan = plan_body(&rule, &db, None);
        let neg_pos = plan.steps.iter().position(|s| s.lit == 0).unwrap();
        let pos_pos = plan.steps.iter().position(|s| s.lit == 1).unwrap();
        assert!(neg_pos > pos_pos, "negation must follow its binder");
    }

    #[test]
    fn focus_literal_is_first() {
        let rule = parse_rule("p(X, Y) :- e(X, Z), p(Z, Y).").unwrap();
        let db = db_with(&[("e", 50), ("p", 50)]);
        let plan = plan_body(&rule, &db, Some(1));
        assert_eq!(plan.steps[0].lit, 1);
        assert_eq!(plan.focus, Some(1));
        // e then probes on Z (position 1)
        assert_eq!(plan.steps[1].lit, 0);
        assert_eq!(plan.steps[1].bound, vec![1]);
    }

    #[test]
    fn let_chain_schedules_in_dependency_order() {
        let rule = parse_rule("h(B) :- t(X), A = X + 1, B = A * 2, B > 0.").unwrap();
        let db = db_with(&[("t", 3)]);
        let plan = plan_body(&rule, &db, None);
        let order: Vec<usize> = plan.steps.iter().map(|s| s.lit).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(!plan.reordered);
    }

    #[test]
    fn empty_relation_marks_plan_dead() {
        let rule = parse_rule("h(X, Y) :- big(X, Z), nothing(Z, Y).").unwrap();
        let db = db_with(&[("big", 100)]); // `nothing` has no relation
        let plan = plan_body(&rule, &db, None);
        assert!(plan.dead);
        // the focused literal's emptiness is handled by delta bookkeeping,
        // not by the dead flag
        let plan = plan_body(&rule, &db, Some(1));
        assert!(!plan.dead);
    }

    #[test]
    fn fully_bound_literal_runs_as_early_filter() {
        // After big(X, Z) is placed, seen(X) is fully bound — a pure
        // existence check — while wide(X, Z, Y) has *more* bound positions
        // (two) but still widens the binding set with Y. The hoist must
        // schedule the semi-join filter first regardless of bound counts.
        let rule = parse_rule("h(X, Y) :- big(X, Z), seen(X), wide(X, Z, Y).").unwrap();
        let db = db_with(&[("big", 2), ("seen", 50), ("wide", 5)]);
        let plan = plan_body(&rule, &db, None);
        let order: Vec<usize> = plan.steps.iter().map(|s| s.lit).collect();
        assert_eq!(order, vec![0, 1, 2], "existence check precedes the join");
        assert_eq!(plan.steps[1].bound, vec![0]);
    }

    #[test]
    fn index_needs_reports_probe_masks() {
        let rule = parse_rule("h(X, Y) :- big(X, Z), small(Z, Y).").unwrap();
        let db = db_with(&[("big", 100), ("small", 2)]);
        let plan = plan_body(&rule, &db, None);
        let needs: Vec<(String, Vec<usize>)> = plan
            .index_needs()
            .map(|(p, b)| (p.to_string(), b.to_vec()))
            .collect();
        assert_eq!(needs, vec![("big".to_string(), vec![1])]);
    }
}
