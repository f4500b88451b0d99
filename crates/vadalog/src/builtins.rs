//! Expression evaluation: expressions compiled against a rule's slot
//! frame (`CExpr`), with [`eval_expr`] evaluating against a name-keyed
//! [`Binding`] through the same evaluator.
//!
//! Evaluation distinguishes hard errors (type clashes, unknown functions)
//! from *undefined* results (e.g. indexing a `VSet` with an absent key):
//! the evaluator treats an undefined expression in a rule body as a failed
//! match — the candidate binding is silently discarded, mirroring SQL-style
//! three-valued filtering — while hard errors abort the reasoning task.
//!
//! The evaluator borrows: a constant or a slot evaluates to a reference
//! into the compiled expression or the frame, and only values an operator
//! or builtin computes are owned ([`Cow`]). Operators and builtins take
//! their operands by reference, and a call with one or two arguments
//! evaluates them into a stack array. The sets it builds go through the
//! run's `SetTable`, so each distinct one is built once.

use crate::ast::{BinOp, Expr, UnOp};
use crate::compile::SlotValues;
use crate::value::{SetTable, SetVal, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A variable binding: names to ground values.
pub type Binding = HashMap<String, Value>;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The expression is undefined for this binding (e.g. missing key);
    /// the enclosing rule body simply does not match.
    Undefined(String),
    /// A genuine error: wrong types, unknown function, unbound variable.
    Type(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Undefined(m) => write!(f, "undefined: {m}"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

fn num2(a: &Value, b: &Value, op: &str) -> Result<(f64, f64), EvalError> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EvalError::Type(format!(
            "'{op}' expects numbers, got {a} and {b}"
        ))),
    }
}

fn both_int(a: &Value, b: &Value) -> Option<(i64, i64)> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some((*x, *y)),
        _ => None,
    }
}

/// The error for a builtin argument of the wrong kind.
fn kind_error(builtin: Builtin, expected: &str, got: &Value) -> EvalError {
    EvalError::Type(format!(
        "{}() expects {expected}, got {got}",
        builtin.name()
    ))
}

/// The error `union` raises unless both operands are sets.
fn union_error() -> EvalError {
    EvalError::Type("'union' expects two sets".into())
}

/// Evaluate `expr` under `binding`: a thin adapter that compiles the
/// expression against a frame holding the binding's values.
pub fn eval_expr(expr: &Expr, binding: &Binding) -> Result<Value, EvalError> {
    let mut frame: Vec<Option<Value>> = Vec::new();
    let compiled = CExpr::compile(expr, &mut |name| {
        frame.push(binding.get(name).cloned());
        frame.len() - 1
    });
    compiled
        .eval(frame.as_slice(), &mut SetTable::default())
        .map(Cow::into_owned)
}

/// An expression compiled against a rule's slot frame: variables are
/// frame slots and builtin names are resolved to a [`Builtin`] once, at
/// compile time, instead of by string match on every call.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Const(Value),
    /// A frame slot; the name is kept for the unbound-variable error.
    Var(usize, Arc<str>),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Case(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    Index(Box<CExpr>, Box<CExpr>),
    Call(Builtin, Vec<CExpr>),
    /// A call to a name no builtin answers to: its arguments still
    /// evaluate first, then the call fails with a type error.
    Unknown(Arc<str>, Vec<CExpr>),
    /// `x in keys(s)`: scans the pairs of `s` for one keyed by `x`
    /// instead of building the key set.
    InKeys(Box<CExpr>, Box<CExpr>),
    /// `s union {x}`: inserts `x` into a copy of `s`, or returns `s`
    /// itself when it already holds `x`.
    UnionWith(Box<CExpr>, Box<CExpr>),
}

impl CExpr {
    /// Compile `expr`, resolving each variable occurrence to a slot with
    /// `slot_of` (called in left-to-right order of occurrence).
    pub(crate) fn compile(expr: &Expr, slot_of: &mut dyn FnMut(&str) -> usize) -> CExpr {
        let mut sub = |e: &Expr| Box::new(CExpr::compile(e, slot_of));
        match expr {
            Expr::Const(v) => CExpr::Const(v.clone()),
            Expr::Var(name) => CExpr::Var(slot_of(name), Arc::from(name.as_str())),
            Expr::Unary(op, inner) => CExpr::Unary(*op, sub(inner)),
            Expr::Binary(op, lhs, rhs) => match (op, &**rhs) {
                (BinOp::In, Expr::Call(name, args)) if name == "keys" && args.len() == 1 => {
                    let lhs = sub(lhs);
                    CExpr::InKeys(lhs, sub(&args[0]))
                }
                (BinOp::Union, Expr::Call(name, args)) if name == "set" && args.len() == 1 => {
                    let lhs = sub(lhs);
                    CExpr::UnionWith(lhs, sub(&args[0]))
                }
                _ => {
                    let lhs = sub(lhs);
                    CExpr::Binary(*op, lhs, sub(rhs))
                }
            },
            Expr::Case {
                cond,
                then,
                otherwise,
            } => {
                let (cond, then) = (sub(cond), sub(then));
                CExpr::Case(cond, then, sub(otherwise))
            }
            Expr::Index(base, key) => {
                let base = sub(base);
                CExpr::Index(base, sub(key))
            }
            Expr::Call(name, args) => {
                let args = args.iter().map(|a| CExpr::compile(a, slot_of)).collect();
                match Builtin::resolve(name) {
                    Some(b) => CExpr::Call(b, args),
                    None => CExpr::Unknown(Arc::from(name.as_str()), args),
                }
            }
        }
    }

    /// Evaluate against a frame, whose slots read `None` while unbound.
    /// Constants and slot values come back borrowed; sets are built
    /// through `sets`.
    pub(crate) fn eval<'a, F: SlotValues + ?Sized>(
        &'a self,
        frame: &'a F,
        sets: &mut SetTable,
    ) -> Result<Cow<'a, Value>, EvalError> {
        let owned = match self {
            CExpr::Const(v) => return Ok(Cow::Borrowed(v)),
            CExpr::Var(slot, name) => {
                return match frame.slot(*slot) {
                    Some(v) => Ok(Cow::Borrowed(v)),
                    None => Err(EvalError::Type(format!("unbound variable {name}"))),
                }
            }
            CExpr::Unary(op, inner) => unary(*op, &*inner.eval(frame, sets)?)?,
            CExpr::Binary(op, lhs, rhs) => {
                // short-circuit booleans
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lb = match &*lhs.eval(frame, sets)? {
                        Value::Bool(b) => *b,
                        other => return Err(EvalError::Type(format!("'and'/'or' on {other}"))),
                    };
                    return match (op, lb) {
                        (BinOp::And, false) => Ok(Cow::Owned(Value::Bool(false))),
                        (BinOp::Or, true) => Ok(Cow::Owned(Value::Bool(true))),
                        _ => rhs.eval(frame, sets),
                    };
                }
                let a = lhs.eval(frame, sets)?;
                binary(*op, &a, &*rhs.eval(frame, sets)?)?
            }
            CExpr::Case(cond, then, otherwise) => {
                return match &*cond.eval(frame, sets)? {
                    Value::Bool(true) => then.eval(frame, sets),
                    Value::Bool(false) => otherwise.eval(frame, sets),
                    other => Err(EvalError::Type(format!("case condition is {other}"))),
                }
            }
            CExpr::Index(base, key) => {
                let b = base.eval(frame, sets)?;
                let key = key.eval(frame, sets)?;
                index_value(&b, &key, sets)?
            }
            CExpr::Call(builtin, args) => match args.as_slice() {
                [a] => {
                    let a = a.eval(frame, sets)?;
                    call_builtin(*builtin, &[&*a], sets)?
                }
                [a, b] => {
                    let a = a.eval(frame, sets)?;
                    let b = b.eval(frame, sets)?;
                    call_builtin(*builtin, &[&*a, &*b], sets)?
                }
                args => {
                    let vals = args
                        .iter()
                        .map(|a| a.eval(frame, sets))
                        .collect::<Result<Vec<_>, _>>()?;
                    let refs: Vec<&Value> = vals.iter().map(|v| &**v).collect();
                    call_builtin(*builtin, &refs, sets)?
                }
            },
            CExpr::Unknown(name, args) => {
                for a in args {
                    a.eval(frame, sets)?;
                }
                return Err(unknown_builtin(name));
            }
            CExpr::InKeys(x, s) => {
                let x = x.eval(frame, sets)?;
                match &*s.eval(frame, sets)? {
                    Value::Set(pairs) => Value::Bool(
                        pairs
                            .iter()
                            .any(|p| p.as_tuple().and_then(<[Value]>::first) == Some(&*x)),
                    ),
                    other => return Err(kind_error(Builtin::Keys, "a set of pairs", other)),
                }
            }
            CExpr::UnionWith(s, x) => {
                let s = s.eval(frame, sets)?;
                let x = x.eval(frame, sets)?;
                match &*s {
                    Value::Set(set) => Value::Set(sets.with(set, &x)),
                    _ => return Err(union_error()),
                }
            }
        };
        Ok(Cow::Owned(owned))
    }

    /// A clone-based evaluator, the oracle the borrowing one is tested
    /// against: every operand is cloned, every call's arguments are
    /// collected into a vector, and the fused nodes run as the expressions
    /// they replace (`keys` then `in`; a set literal then `union`). It
    /// calls the same operator and builtin functions, so it checks
    /// evaluation order, borrowing and the fused nodes, not the operators
    /// themselves. Every set it builds is built anew.
    #[cfg(test)]
    pub(crate) fn eval_oracle(&self, frame: &[Option<Value>]) -> Result<Value, EvalError> {
        let call = |builtin, vals: &[Value]| {
            let refs: Vec<&Value> = vals.iter().collect();
            call_builtin(builtin, &refs, &mut SetTable::default())
        };
        let eval_args = |args: &[CExpr]| -> Result<Vec<Value>, EvalError> {
            args.iter().map(|a| a.eval_oracle(frame)).collect()
        };
        match self {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Var(slot, name) => frame
                .get(*slot)
                .and_then(Option::as_ref)
                .cloned()
                .ok_or_else(|| EvalError::Type(format!("unbound variable {name}"))),
            CExpr::Unary(op, inner) => unary(*op, &inner.eval_oracle(frame)?),
            CExpr::Binary(op, lhs, rhs) => {
                // short-circuit booleans
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lb = match lhs.eval_oracle(frame)? {
                        Value::Bool(b) => b,
                        other => return Err(EvalError::Type(format!("'and'/'or' on {other}"))),
                    };
                    if *op == BinOp::And && !lb {
                        return Ok(Value::Bool(false));
                    }
                    if *op == BinOp::Or && lb {
                        return Ok(Value::Bool(true));
                    }
                    return rhs.eval_oracle(frame);
                }
                let a = lhs.eval_oracle(frame)?;
                let b = rhs.eval_oracle(frame)?;
                binary(*op, &a, &b)
            }
            CExpr::Case(cond, then, otherwise) => match cond.eval_oracle(frame)? {
                Value::Bool(true) => then.eval_oracle(frame),
                Value::Bool(false) => otherwise.eval_oracle(frame),
                other => Err(EvalError::Type(format!("case condition is {other}"))),
            },
            CExpr::Index(base, key) => {
                let b = base.eval_oracle(frame)?;
                let k = key.eval_oracle(frame)?;
                index_value(&b, &k, &mut SetTable::default())
            }
            CExpr::Call(builtin, args) => call(*builtin, &eval_args(args)?),
            CExpr::Unknown(name, args) => {
                eval_args(args)?;
                Err(unknown_builtin(name))
            }
            CExpr::InKeys(x, s) => {
                let a = x.eval_oracle(frame)?;
                let keys = call(Builtin::Keys, &[s.eval_oracle(frame)?])?;
                binary(BinOp::In, &a, &keys)
            }
            CExpr::UnionWith(s, x) => {
                let a = s.eval_oracle(frame)?;
                let b = call(Builtin::Set, &[x.eval_oracle(frame)?])?;
                binary(BinOp::Union, &a, &b)
            }
        }
    }
}

fn unknown_builtin(name: &str) -> EvalError {
    EvalError::Type(format!("unknown builtin '{name}'"))
}

/// A unary operator applied to an evaluated operand.
fn unary(op: UnOp, v: &Value) -> Result<Value, EvalError> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnOp::Neg, other) => Err(EvalError::Type(format!("cannot negate {other}"))),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Not, other) => Err(EvalError::Type(format!("cannot apply 'not' to {other}"))),
    }
}

/// A non-short-circuiting binary operator applied to evaluated operands.
fn binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    match op {
        BinOp::Add => {
            if let Some((x, y)) = both_int(a, b) {
                Ok(Value::Int(x.wrapping_add(y)))
            } else {
                let (x, y) = num2(a, b, "+")?;
                Ok(Value::Float(x + y))
            }
        }
        BinOp::Sub => {
            if let Some((x, y)) = both_int(a, b) {
                Ok(Value::Int(x.wrapping_sub(y)))
            } else {
                let (x, y) = num2(a, b, "-")?;
                Ok(Value::Float(x - y))
            }
        }
        BinOp::Mul => {
            if let Some((x, y)) = both_int(a, b) {
                Ok(Value::Int(x.wrapping_mul(y)))
            } else {
                let (x, y) = num2(a, b, "*")?;
                Ok(Value::Float(x * y))
            }
        }
        BinOp::Div => {
            let (x, y) = num2(a, b, "/")?;
            if y == 0.0 {
                Err(EvalError::Undefined("division by zero".into()))
            } else {
                Ok(Value::Float(x / y))
            }
        }
        BinOp::Mod => {
            if let Some((x, y)) = both_int(a, b) {
                if y == 0 {
                    Err(EvalError::Undefined("modulo by zero".into()))
                } else {
                    Ok(Value::Int(x.rem_euclid(y)))
                }
            } else {
                Err(EvalError::Type("'%' expects integers".into()))
            }
        }
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::Lt => Ok(Value::Bool(a < b)),
        BinOp::Le => Ok(Value::Bool(a <= b)),
        BinOp::Gt => Ok(Value::Bool(a > b)),
        BinOp::Ge => Ok(Value::Bool(a >= b)),
        BinOp::In => match b {
            Value::Set(s) => Ok(Value::Bool(s.contains(a))),
            Value::Tuple(t) => Ok(Value::Bool(t.contains(a))),
            other => Err(EvalError::Type(format!(
                "'in' expects a set or a tuple, got {other}"
            ))),
        },
        BinOp::Subset => match (a, b) {
            (Value::Set(x), Value::Set(y)) => Ok(Value::Bool(x.is_subset(y) && x.len() < y.len())),
            _ => Err(EvalError::Type("'subset' expects two sets".into())),
        },
        BinOp::Union => match (a, b) {
            (Value::Set(x), Value::Set(y)) => Ok(Value::Set(SetVal::union(x, y))),
            _ => Err(union_error()),
        },
        BinOp::And | BinOp::Or => unreachable!("short-circuited by the caller"),
    }
}

/// `VSet[K]` semantics. With a set-of-pairs base:
/// - scalar key: the value paired with the key (`Undefined` if absent);
/// - set key: the *sub-collection* of pairs whose keys are in the key set
///   (the paper's `VSet[AnonSet]` filter).
///
/// With a tuple base and integer key: positional access (0-based).
fn index_value(base: &Value, key: &Value, sets: &mut SetTable) -> Result<Value, EvalError> {
    match base {
        Value::Set(pairs) => match key {
            Value::Set(keys) => Ok(Value::Set(sets.project(pairs, keys))),
            scalar => {
                for p in pairs.iter() {
                    if let Some(t) = p.as_tuple() {
                        if t.len() >= 2 && &t[0] == scalar {
                            return Ok(t[1].clone());
                        }
                    }
                }
                Err(EvalError::Undefined(format!(
                    "key {scalar} not present in collection"
                )))
            }
        },
        Value::Tuple(items) => match key {
            Value::Int(i) if *i >= 0 && (*i as usize) < items.len() => {
                Ok(items[*i as usize].clone())
            }
            _ => Err(EvalError::Undefined(format!(
                "tuple index {key} out of range"
            ))),
        },
        other => Err(EvalError::Type(format!("cannot index into {other}"))),
    }
}

/// Declares the builtin functions: the enum and its name table.
macro_rules! builtins {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A builtin function, resolved from its name once at compile time.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Builtin {
            $($variant),*
        }

        impl Builtin {
            /// The builtin a call name refers to, if any.
            pub(crate) fn resolve(name: &str) -> Option<Builtin> {
                match name {
                    $($name => Some(Builtin::$variant),)*
                    _ => None,
                }
            }

            /// The name programs call the builtin by.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Builtin::$variant => $name),*
                }
            }
        }
    };
}

builtins! {
    Size => "size", Pair => "pair", Tuple => "tuple", Set => "set", First => "first",
    Second => "second", Nth => "nth", SetMinus => "setminus", Contains => "contains",
    Keys => "keys", Values => "values", IsNull => "is_null", Min => "min", Max => "max",
    Abs => "abs", Pow => "pow", Sqrt => "sqrt", Ln => "ln", Exp => "exp", Upper => "upper",
    Lower => "lower", StartsWith => "starts_with", EndsWith => "ends_with",
    ContainsStr => "contains_str", Substr => "substr", Concat => "concat", UnionOf => "union_of",
}

/// Dispatch a builtin function call. A wrong argument count is an arity
/// error; an argument of the wrong kind is a type error naming the kind.
/// A set literal is built through `sets`.
fn call_builtin(
    builtin: Builtin,
    args: &[&Value],
    sets: &mut SetTable,
) -> Result<Value, EvalError> {
    let name = builtin.name();
    let arity_err = |n: usize| {
        Err(EvalError::Type(format!(
            "builtin '{name}' expects {n} argument(s), got {}",
            args.len()
        )))
    };
    use Builtin::*;
    match builtin {
        Size => match args {
            [Value::Set(s)] => Ok(Value::Int(s.len() as i64)),
            [Value::Tuple(t)] => Ok(Value::Int(t.len() as i64)),
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [_] => Err(EvalError::Type("size() expects a collection".into())),
            _ => arity_err(1),
        },
        Pair => match args {
            [a, b] => Ok(Value::pair(Value::clone(a), Value::clone(b))),
            _ => arity_err(2),
        },
        Tuple => Ok(Value::Tuple(args.iter().copied().cloned().collect())),
        Set => Ok(Value::Set(match args {
            [x] => sets.singleton(x),
            _ => sets.collect(args.iter().copied().cloned().collect()),
        })),
        First => match args {
            [Value::Tuple(t)] if !t.is_empty() => Ok(t[0].clone()),
            [_] => Err(EvalError::Type("first() expects a non-empty tuple".into())),
            _ => arity_err(1),
        },
        Second => match args {
            [Value::Tuple(t)] if t.len() >= 2 => Ok(t[1].clone()),
            [_] => Err(EvalError::Type("second() expects a pair".into())),
            _ => arity_err(1),
        },
        Nth => match args {
            [Value::Tuple(t), Value::Int(i)] if *i >= 0 && (*i as usize) < t.len() => {
                Ok(t[*i as usize].clone())
            }
            [_, _] => Err(EvalError::Undefined("nth() out of range".into())),
            _ => arity_err(2),
        },
        SetMinus => match args {
            [Value::Set(a), Value::Set(b)] => {
                Ok(Value::Set(Arc::new(a.filter(|v| !b.contains(v)))))
            }
            [Value::Set(a), x] => Ok(Value::Set(Arc::new(a.filter(|v| v != *x)))),
            [other, _] => Err(kind_error(builtin, "a set", other)),
            _ => arity_err(2),
        },
        Contains => match args {
            [Value::Set(s), x] => Ok(Value::Bool(s.contains(x))),
            [Value::Tuple(t), x] => Ok(Value::Bool(t.contains(*x))),
            [other, _] => Err(kind_error(builtin, "a set or a tuple", other)),
            _ => arity_err(2),
        },
        Keys => match args {
            // set of first components of a set of pairs
            [Value::Set(s)] => {
                Ok(Value::set(s.iter().filter_map(|p| {
                    p.as_tuple().and_then(|t| t.first().cloned())
                })))
            }
            [other] => Err(kind_error(builtin, "a set of pairs", other)),
            _ => arity_err(1),
        },
        Values => match args {
            [Value::Set(s)] => {
                Ok(Value::set(s.iter().filter_map(|p| {
                    p.as_tuple().and_then(|t| t.get(1).cloned())
                })))
            }
            [other] => Err(kind_error(builtin, "a set of pairs", other)),
            _ => arity_err(1),
        },
        IsNull => match args {
            [v] => Ok(Value::Bool(v.is_null())),
            _ => arity_err(1),
        },
        Min => match args {
            [a, b] => Ok(Value::clone(if a <= b { a } else { b })),
            _ => arity_err(2),
        },
        Max => match args {
            [a, b] => Ok(Value::clone(if a >= b { a } else { b })),
            _ => arity_err(2),
        },
        Abs => match args {
            [Value::Int(i)] => Ok(Value::Int(i.wrapping_abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [_] => Err(EvalError::Type("abs() expects a number".into())),
            _ => arity_err(1),
        },
        Pow => match args {
            [a, b] => {
                let (x, y) = num2(a, b, "pow")?;
                Ok(Value::Float(x.powf(y)))
            }
            _ => arity_err(2),
        },
        Sqrt => match args {
            [a] => {
                let x = a
                    .as_f64()
                    .ok_or_else(|| EvalError::Type("sqrt() expects a number".into()))?;
                if x < 0.0 {
                    Err(EvalError::Undefined("sqrt of negative".into()))
                } else {
                    Ok(Value::Float(x.sqrt()))
                }
            }
            _ => arity_err(1),
        },
        Ln => match args {
            [a] => {
                let x = a
                    .as_f64()
                    .ok_or_else(|| EvalError::Type("ln() expects a number".into()))?;
                if x <= 0.0 {
                    Err(EvalError::Undefined("ln of non-positive".into()))
                } else {
                    Ok(Value::Float(x.ln()))
                }
            }
            _ => arity_err(1),
        },
        Exp => match args {
            [a] => {
                let x = a
                    .as_f64()
                    .ok_or_else(|| EvalError::Type("exp() expects a number".into()))?;
                Ok(Value::Float(x.exp()))
            }
            _ => arity_err(1),
        },
        Upper => match args {
            [Value::Str(s)] => Ok(Value::str(s.to_uppercase())),
            [_] => Err(EvalError::Type("upper() expects a string".into())),
            _ => arity_err(1),
        },
        Lower => match args {
            [Value::Str(s)] => Ok(Value::str(s.to_lowercase())),
            [_] => Err(EvalError::Type("lower() expects a string".into())),
            _ => arity_err(1),
        },
        StartsWith => match args {
            [Value::Str(s), Value::Str(p)] => Ok(Value::Bool(s.starts_with(p.as_ref()))),
            [_, _] => Err(EvalError::Type("starts_with() expects strings".into())),
            _ => arity_err(2),
        },
        EndsWith => match args {
            [Value::Str(s), Value::Str(p)] => Ok(Value::Bool(s.ends_with(p.as_ref()))),
            [_, _] => Err(EvalError::Type("ends_with() expects strings".into())),
            _ => arity_err(2),
        },
        ContainsStr => match args {
            [Value::Str(s), Value::Str(p)] => Ok(Value::Bool(s.contains(p.as_ref()))),
            [_, _] => Err(EvalError::Type("contains_str() expects strings".into())),
            _ => arity_err(2),
        },
        Substr => match args {
            [Value::Str(s), Value::Int(start), Value::Int(len)] => {
                let chars: Vec<char> = s.chars().collect();
                let start = (*start).max(0) as usize;
                if start > chars.len() {
                    return Err(EvalError::Undefined("substr start out of range".into()));
                }
                let len = (*len).max(0) as usize;
                let end = (start + len).min(chars.len());
                Ok(Value::str(chars[start..end].iter().collect::<String>()))
            }
            [_, _, _] => Err(EvalError::Type(
                "substr() expects (string, int, int)".into(),
            )),
            _ => arity_err(3),
        },
        Concat => {
            let mut s = String::new();
            for a in args {
                match a {
                    Value::Str(x) => s.push_str(x),
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::str(s))
        }
        UnionOf => {
            // n-ary set union; of equal items the first stays
            let mut out: Vec<Value> = Vec::new();
            for a in args {
                match a {
                    Value::Set(s) => out.extend_from_slice(s.items()),
                    other => {
                        return Err(EvalError::Type(format!(
                            "union_of() expects sets, got {other}"
                        )))
                    }
                }
            }
            Ok(Value::Set(Arc::new(SetVal::from_inserted(out))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn b(pairs: &[(&str, Value)]) -> Binding {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn arithmetic_preserves_int_when_possible() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::val(2i64)),
            Box::new(Expr::val(3i64)),
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::Int(5));
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::val(2i64)),
            Box::new(Expr::val(0.5f64)),
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::Float(2.5));
        // integer negation wraps like the other operators, in every build
        let e = Expr::Unary(UnOp::Neg, Box::new(Expr::val(i64::MIN)));
        assert_eq!(eval_expr(&e, &Binding::new()), Ok(Value::Int(i64::MIN)));
    }

    #[test]
    fn division_by_zero_is_undefined_not_error() {
        let e = Expr::Binary(
            BinOp::Div,
            Box::new(Expr::val(1i64)),
            Box::new(Expr::val(0i64)),
        );
        assert!(matches!(
            eval_expr(&e, &Binding::new()),
            Err(EvalError::Undefined(_))
        ));
    }

    #[test]
    fn vset_index_scalar_key() {
        let vset = Value::set([
            Value::pair(Value::str("area"), Value::str("North")),
            Value::pair(Value::str("sector"), Value::str("Textiles")),
        ]);
        let e = Expr::Index(
            Box::new(Expr::var("V")),
            Box::new(Expr::Const(Value::str("sector"))),
        );
        let out = eval_expr(&e, &b(&[("V", vset)])).unwrap();
        assert_eq!(out, Value::str("Textiles"));
    }

    #[test]
    fn vset_index_missing_key_is_undefined() {
        let vset = Value::set([Value::pair(Value::str("a"), Value::Int(1))]);
        let e = Expr::Index(
            Box::new(Expr::var("V")),
            Box::new(Expr::Const(Value::str("zz"))),
        );
        assert!(matches!(
            eval_expr(&e, &b(&[("V", vset)])),
            Err(EvalError::Undefined(_))
        ));
    }

    #[test]
    fn vset_index_set_key_filters_pairs() {
        let vset = Value::set([
            Value::pair(Value::str("a"), Value::Int(1)),
            Value::pair(Value::str("b"), Value::Int(2)),
            Value::pair(Value::str("c"), Value::Int(3)),
        ]);
        let keys = Value::set([Value::str("a"), Value::str("c")]);
        let e = Expr::Index(Box::new(Expr::var("V")), Box::new(Expr::var("K")));
        let out = eval_expr(&e, &b(&[("V", vset), ("K", keys)])).unwrap();
        assert_eq!(out.as_set().unwrap().len(), 2);
    }

    #[test]
    fn subset_is_strict() {
        let a = Value::set([Value::Int(1)]);
        let bb = Value::set([Value::Int(1), Value::Int(2)]);
        let strict = Expr::Binary(
            BinOp::Subset,
            Box::new(Expr::Const(a.clone())),
            Box::new(Expr::Const(bb.clone())),
        );
        assert_eq!(
            eval_expr(&strict, &Binding::new()).unwrap(),
            Value::Bool(true)
        );
        let same = Expr::Binary(
            BinOp::Subset,
            Box::new(Expr::Const(bb.clone())),
            Box::new(Expr::Const(bb)),
        );
        assert_eq!(
            eval_expr(&same, &Binding::new()).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            cond: Box::new(Expr::Binary(
                BinOp::Lt,
                Box::new(Expr::var("N")),
                Box::new(Expr::val(3i64)),
            )),
            then: Box::new(Expr::val(1i64)),
            otherwise: Box::new(Expr::val(0i64)),
        };
        assert_eq!(
            eval_expr(&e, &b(&[("N", Value::Int(2))])).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_expr(&e, &b(&[("N", Value::Int(5))])).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn builtin_size_and_keys() {
        let vset = Value::set([
            Value::pair(Value::str("a"), Value::Int(1)),
            Value::pair(Value::str("b"), Value::Int(2)),
        ]);
        let size = Expr::Call("size".into(), vec![Expr::var("V")]);
        assert_eq!(
            eval_expr(&size, &b(&[("V", vset.clone())])).unwrap(),
            Value::Int(2)
        );
        let keys = Expr::Call("keys".into(), vec![Expr::var("V")]);
        let out = eval_expr(&keys, &b(&[("V", vset)])).unwrap();
        assert!(out.as_set().unwrap().contains(&Value::str("a")));
    }

    #[test]
    fn is_null_detects_labelled_nulls() {
        let e = Expr::Call("is_null".into(), vec![Expr::var("X")]);
        assert_eq!(
            eval_expr(&e, &b(&[("X", Value::Null(9))])).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(&e, &b(&[("X", Value::Int(9))])).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn string_builtins() {
        let e = Expr::Call("upper".into(), vec![Expr::Const(Value::str("north"))]);
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::str("NORTH"));
        let e = Expr::Call(
            "starts_with".into(),
            vec![
                Expr::Const(Value::str("Textiles·r17")),
                Expr::Const(Value::str("Textiles")),
            ],
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::Bool(true));
        let e = Expr::Call(
            "substr".into(),
            vec![
                Expr::Const(Value::str("0-30")),
                Expr::val(0i64),
                Expr::val(1i64),
            ],
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::str("0"));
        // out-of-range start is undefined, not a hard error
        let e = Expr::Call(
            "substr".into(),
            vec![
                Expr::Const(Value::str("ab")),
                Expr::val(9i64),
                Expr::val(1i64),
            ],
        );
        assert!(matches!(
            eval_expr(&e, &Binding::new()),
            Err(EvalError::Undefined(_))
        ));
        let e = Expr::Call(
            "contains_str".into(),
            vec![
                Expr::Const(Value::str("Public Service")),
                Expr::Const(Value::str("Serv")),
            ],
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unknown_builtin_is_type_error() {
        let e = Expr::Call("frobnicate".into(), vec![]);
        assert!(matches!(
            eval_expr(&e, &Binding::new()),
            Err(EvalError::Type(_))
        ));
    }

    #[test]
    fn unbound_variable_is_type_error() {
        assert!(matches!(
            eval_expr(&Expr::var("Q"), &Binding::new()),
            Err(EvalError::Type(_))
        ));
    }

    #[test]
    fn short_circuit_and() {
        // `false and (1/0 > 0)` must not evaluate the RHS
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::val(false)),
            Box::new(Expr::Binary(
                BinOp::Gt,
                Box::new(Expr::Binary(
                    BinOp::Div,
                    Box::new(Expr::val(1i64)),
                    Box::new(Expr::val(0i64)),
                )),
                Box::new(Expr::val(0i64)),
            )),
        );
        assert_eq!(eval_expr(&e, &Binding::new()).unwrap(), Value::Bool(false));
    }

    fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    fn type_error(e: &Expr) -> String {
        match eval_expr(e, &Binding::new()) {
            Err(EvalError::Type(m)) => m,
            other => panic!("{e:?} should be a type error, got {other:?}"),
        }
    }

    #[test]
    fn set_builtins_name_the_expected_kind() {
        let five = || Expr::val(5i64);
        for (e, want) in [
            (
                call("keys", vec![five()]),
                "keys() expects a set of pairs, got 5",
            ),
            (
                call("values", vec![five()]),
                "values() expects a set of pairs, got 5",
            ),
            (
                call("contains", vec![five(), five()]),
                "contains() expects a set or a tuple, got 5",
            ),
            (
                call("setminus", vec![five(), five()]),
                "setminus() expects a set, got 5",
            ),
            (
                Expr::Binary(BinOp::In, Box::new(five()), Box::new(five())),
                "'in' expects a set or a tuple, got 5",
            ),
        ] {
            assert_eq!(type_error(&e), want);
        }
    }

    #[test]
    fn set_builtins_keep_the_arity_error_for_a_wrong_count() {
        let set = || Expr::Const(Value::set([Value::Int(1)]));
        for (e, want) in [
            (
                call("keys", vec![]),
                "builtin 'keys' expects 1 argument(s), got 0",
            ),
            (
                call("values", vec![set(), set()]),
                "builtin 'values' expects 1 argument(s), got 2",
            ),
            (
                call("contains", vec![set()]),
                "builtin 'contains' expects 2 argument(s), got 1",
            ),
            (
                call("setminus", vec![set(), set(), set()]),
                "builtin 'setminus' expects 2 argument(s), got 3",
            ),
        ] {
            assert_eq!(type_error(&e), want);
        }
    }

    #[test]
    fn fused_in_keys_raises_the_error_of_keys_alone() {
        let in_keys = Expr::Binary(
            BinOp::In,
            Box::new(Expr::val(1i64)),
            Box::new(call("keys", vec![Expr::val(5i64)])),
        );
        let mut slot_of = |_: &str| 0;
        assert!(matches!(
            CExpr::compile(&in_keys, &mut slot_of),
            CExpr::InKeys(..)
        ));
        assert_eq!(
            eval_expr(&in_keys, &Binding::new()),
            eval_expr(&call("keys", vec![Expr::val(5i64)]), &Binding::new())
        );
    }

    #[test]
    fn fused_nodes_match_their_unfused_meaning() {
        let vset = Value::set([
            Value::pair(Value::str("a"), Value::Int(1)),
            Value::pair(Value::str("b"), Value::Int(2)),
        ]);
        let binding = b(&[("V", vset), ("S", Value::set([Value::str("a")]))]);
        let in_keys = |key: &str| {
            Expr::Binary(
                BinOp::In,
                Box::new(Expr::Const(Value::str(key))),
                Box::new(call("keys", vec![Expr::var("V")])),
            )
        };
        assert_eq!(eval_expr(&in_keys("b"), &binding), Ok(Value::Bool(true)));
        assert_eq!(eval_expr(&in_keys("z"), &binding), Ok(Value::Bool(false)));
        let union = |lhs: Expr| {
            Expr::Binary(
                BinOp::Union,
                Box::new(lhs),
                Box::new(call("set", vec![Expr::Const(Value::str("b"))])),
            )
        };
        let mut slot_of = |_: &str| 0;
        assert!(matches!(
            CExpr::compile(&union(Expr::var("S")), &mut slot_of),
            CExpr::UnionWith(..)
        ));
        let both = Value::set([Value::str("a"), Value::str("b")]);
        assert_eq!(
            eval_expr(&union(Expr::var("S")), &binding),
            Ok(both.clone())
        );
        // a computed left side
        let owned = call(
            "setminus",
            vec![Expr::var("S"), Expr::Const(Value::str("z"))],
        );
        assert_eq!(eval_expr(&union(owned), &binding), Ok(both));
        assert_eq!(
            eval_expr(&union(Expr::val(3i64)), &binding),
            Err(EvalError::Type("'union' expects two sets".into()))
        );
    }

    /// Variable names the random expressions use; `U` is never bound.
    const NAMES: [&str; 5] = ["A", "S", "V", "X", "U"];

    fn slot_of(name: &str) -> usize {
        NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or(NAMES.len() - 1)
    }

    fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
        items[rng.gen_range(0..items.len())].clone()
    }

    fn scalar(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..5u32) {
            0 => Value::Int(rng.gen_range(-2..4i64)),
            1 => Value::Float(pick(rng, &[0.0, 1.0, -1.5, 2.5])),
            2 => Value::str(pick(rng, &["a", "b", "c"])),
            3 => Value::Null(rng.gen_range(1..3u64)),
            _ => Value::Bool(rng.gen_bool(0.5)),
        }
    }

    /// Ints, floats, strings, labelled nulls, booleans, tuples and sets
    /// of pairs keyed by `a`/`b`/`c` (and now and then a plain set).
    fn value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..8u32) {
            0..=3 => scalar(rng),
            4 => Value::Tuple((0..rng.gen_range(0..3)).map(|_| scalar(rng)).collect()),
            5 => Value::set((0..rng.gen_range(0..3)).map(|_| scalar(rng))),
            _ => Value::set((0..rng.gen_range(0..4)).map(|_| {
                let key = Value::str(pick(rng, &["a", "b", "c"]));
                Value::pair(key, scalar(rng))
            })),
        }
    }

    struct ArbFrame;

    impl Strategy for ArbFrame {
        type Value = Vec<Option<Value>>;
        fn generate(&self, rng: &mut StdRng) -> Vec<Option<Value>> {
            NAMES
                .iter()
                .map(|n| (*n != "U" && rng.gen_bool(0.9)).then(|| value(rng)))
                .collect()
        }
    }

    struct ArbExpr(u32);

    const OPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::In,
        BinOp::Subset,
        BinOp::Union,
    ];

    /// Builtin names, each called with zero to four arguments whatever
    /// its arity (four takes the evaluator's vector path), plus a name no
    /// builtin answers to.
    const CALLS: [&str; 14] = [
        "keys",
        "values",
        "contains",
        "setminus",
        "size",
        "set",
        "tuple",
        "pair",
        "first",
        "min",
        "abs",
        "union_of",
        "substr",
        "frobnicate",
    ];

    fn expr(rng: &mut StdRng, depth: u32) -> Expr {
        let var = |rng: &mut StdRng| Expr::var(pick(rng, &NAMES));
        let leaf = |rng: &mut StdRng| match rng.gen_bool(0.5) {
            true => var(rng),
            false => Expr::Const(value(rng)),
        };
        if depth == 0 {
            return leaf(rng);
        }
        let sub = |rng: &mut StdRng| Box::new(expr(rng, depth - 1));
        match rng.gen_range(0..12u32) {
            0 => leaf(rng),
            1 => Expr::Unary(pick(rng, &[UnOp::Neg, UnOp::Not]), sub(rng)),
            2 | 3 => {
                let op = pick(rng, &OPS);
                let lhs = sub(rng);
                Expr::Binary(op, lhs, sub(rng))
            }
            // `and`/`or` whose right side errors unless short-circuited
            4 => {
                let op = pick(rng, &[BinOp::And, BinOp::Or]);
                let lhs = sub(rng);
                let rhs = match rng.gen_bool(0.5) {
                    true => Box::new(call("frobnicate", vec![])),
                    false => Box::new(Expr::var("U")),
                };
                Expr::Binary(op, lhs, rhs)
            }
            5 => {
                let (cond, then) = (sub(rng), sub(rng));
                Expr::Case {
                    cond,
                    then,
                    otherwise: sub(rng),
                }
            }
            6 => Expr::Index(Box::new(var(rng)), sub(rng)),
            7 => {
                let name = pick(rng, &CALLS);
                let args = (0..rng.gen_range(0..5))
                    .map(|_| expr(rng, depth - 1))
                    .collect();
                call(name, args)
            }
            8 => {
                let args = (0..rng.gen_range(0..3))
                    .map(|_| expr(rng, depth - 1))
                    .collect();
                call("set", args)
            }
            9 => {
                let x = sub(rng);
                let keys = call("keys", vec![expr(rng, depth - 1)]);
                Expr::Binary(BinOp::In, x, Box::new(keys))
            }
            10 => {
                let s = sub(rng);
                let one = call("set", vec![expr(rng, depth - 1)]);
                Expr::Binary(BinOp::Union, s, Box::new(one))
            }
            _ => Expr::Index(Box::new(Expr::var("V")), Box::new(Expr::var("S"))),
        }
    }

    impl Strategy for ArbExpr {
        type Value = Expr;
        fn generate(&self, rng: &mut StdRng) -> Expr {
            expr(rng, self.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn borrowing_evaluator_matches_the_clone_oracle(e in ArbExpr(4), frame in ArbFrame) {
            let compiled = CExpr::compile(&e, &mut slot_of);
            let want = compiled.eval_oracle(&frame);
            // twice through one set table: the second evaluation is
            // handed the sets the first one built
            let mut sets = SetTable::default();
            for _ in 0..2 {
                let got = compiled.eval(frame.as_slice(), &mut sets).map(Cow::into_owned);
                // Debug output tells `Int(1)` from `Float(1.0)`, which
                // `==` does not.
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?} over {:?}", e, frame);
            }
        }
    }
}
