//! Expression evaluation: expressions compiled against a rule's slot
//! frame (`CExpr`), with [`eval_expr`] evaluating against a name-keyed
//! [`Binding`] through the same evaluator.
//!
//! Evaluation distinguishes hard errors (type clashes, unknown functions)
//! from *undefined* results (e.g. indexing a `VSet` with an absent key):
//! the evaluator treats an undefined expression in a rule body as a failed
//! match — the candidate binding is silently discarded, mirroring SQL-style
//! three-valued filtering — while hard errors abort the reasoning task.

use crate::ast::{BinOp, Expr, UnOp};
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
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

/// Evaluate `expr` under `binding`: a thin adapter that compiles the
/// expression against a frame holding the binding's values.
pub fn eval_expr(expr: &Expr, binding: &Binding) -> Result<Value, EvalError> {
    let mut frame: Vec<Option<Value>> = Vec::new();
    let compiled = CExpr::compile(expr, &mut |name| {
        frame.push(binding.get(name).cloned());
        frame.len() - 1
    });
    compiled.eval(&frame)
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
            Expr::Binary(op, lhs, rhs) => {
                let lhs = sub(lhs);
                CExpr::Binary(*op, lhs, sub(rhs))
            }
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

    /// Evaluate against a frame: `frame[slot]` is the slot's value, `None`
    /// while unbound.
    pub(crate) fn eval(&self, frame: &[Option<Value>]) -> Result<Value, EvalError> {
        match self {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Var(slot, name) => frame
                .get(*slot)
                .and_then(Option::as_ref)
                .cloned()
                .ok_or_else(|| EvalError::Type(format!("unbound variable {name}"))),
            CExpr::Unary(op, inner) => {
                let v = inner.eval(frame)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(EvalError::Type(format!("cannot negate {other}"))),
                    },
                    UnOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(EvalError::Type(format!("cannot apply 'not' to {other}"))),
                    },
                }
            }
            CExpr::Binary(op, lhs, rhs) => {
                // short-circuit booleans
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lb = match lhs.eval(frame)? {
                        Value::Bool(b) => b,
                        other => return Err(EvalError::Type(format!("'and'/'or' on {other}"))),
                    };
                    if *op == BinOp::And && !lb {
                        return Ok(Value::Bool(false));
                    }
                    if *op == BinOp::Or && lb {
                        return Ok(Value::Bool(true));
                    }
                    return rhs.eval(frame);
                }
                let a = lhs.eval(frame)?;
                let b = rhs.eval(frame)?;
                binary(*op, a, b)
            }
            CExpr::Case(cond, then, otherwise) => match cond.eval(frame)? {
                Value::Bool(true) => then.eval(frame),
                Value::Bool(false) => otherwise.eval(frame),
                other => Err(EvalError::Type(format!("case condition is {other}"))),
            },
            CExpr::Index(base, key) => {
                let b = base.eval(frame)?;
                let k = key.eval(frame)?;
                index_value(&b, &k)
            }
            CExpr::Call(builtin, args) => {
                let vals = eval_args(args, frame)?;
                call_builtin(*builtin, &vals)
            }
            CExpr::Unknown(name, args) => {
                eval_args(args, frame)?;
                Err(EvalError::Type(format!("unknown builtin '{name}'")))
            }
        }
    }
}

fn eval_args(args: &[CExpr], frame: &[Option<Value>]) -> Result<Vec<Value>, EvalError> {
    args.iter().map(|a| a.eval(frame)).collect()
}

/// A non-short-circuiting binary operator applied to evaluated operands.
fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    match op {
        BinOp::Add => {
            if let Some((x, y)) = both_int(&a, &b) {
                Ok(Value::Int(x.wrapping_add(y)))
            } else {
                let (x, y) = num2(&a, &b, "+")?;
                Ok(Value::Float(x + y))
            }
        }
        BinOp::Sub => {
            if let Some((x, y)) = both_int(&a, &b) {
                Ok(Value::Int(x.wrapping_sub(y)))
            } else {
                let (x, y) = num2(&a, &b, "-")?;
                Ok(Value::Float(x - y))
            }
        }
        BinOp::Mul => {
            if let Some((x, y)) = both_int(&a, &b) {
                Ok(Value::Int(x.wrapping_mul(y)))
            } else {
                let (x, y) = num2(&a, &b, "*")?;
                Ok(Value::Float(x * y))
            }
        }
        BinOp::Div => {
            let (x, y) = num2(&a, &b, "/")?;
            if y == 0.0 {
                Err(EvalError::Undefined("division by zero".into()))
            } else {
                Ok(Value::Float(x / y))
            }
        }
        BinOp::Mod => {
            if let Some((x, y)) = both_int(&a, &b) {
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
        BinOp::In => match &b {
            Value::Set(s) => Ok(Value::Bool(s.contains(&a))),
            Value::Tuple(t) => Ok(Value::Bool(t.contains(&a))),
            other => Err(EvalError::Type(format!("'in' expects a set, got {other}"))),
        },
        BinOp::Subset => match (&a, &b) {
            (Value::Set(x), Value::Set(y)) => Ok(Value::Bool(x.is_subset(y) && x.len() < y.len())),
            _ => Err(EvalError::Type("'subset' expects two sets".into())),
        },
        BinOp::Union => match (&a, &b) {
            (Value::Set(x), Value::Set(y)) => {
                let mut s: BTreeSet<Value> = (**x).clone();
                s.extend(y.iter().cloned());
                Ok(Value::Set(Arc::new(s)))
            }
            _ => Err(EvalError::Type("'union' expects two sets".into())),
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
fn index_value(base: &Value, key: &Value) -> Result<Value, EvalError> {
    match base {
        Value::Set(pairs) => match key {
            Value::Set(keys) => {
                let filtered: BTreeSet<Value> = pairs
                    .iter()
                    .filter(|p| match p.as_tuple() {
                        Some(t) if !t.is_empty() => keys.contains(&t[0]),
                        _ => false,
                    })
                    .cloned()
                    .collect();
                Ok(Value::Set(Arc::new(filtered)))
            }
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

/// Dispatch a builtin function call.
fn call_builtin(builtin: Builtin, args: &[Value]) -> Result<Value, EvalError> {
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
            [a, b] => Ok(Value::pair(a.clone(), b.clone())),
            _ => arity_err(2),
        },
        Tuple => Ok(Value::Tuple(Arc::new(args.to_vec()))),
        Set => Ok(Value::set(args.iter().cloned())),
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
            [Value::Set(a), Value::Set(b)] => Ok(Value::set(a.difference(b).cloned())),
            [Value::Set(a), x] => Ok(Value::set(a.iter().filter(|v| *v != x).cloned())),
            _ => arity_err(2),
        },
        Contains => match args {
            [Value::Set(s), x] => Ok(Value::Bool(s.contains(x))),
            [Value::Tuple(t), x] => Ok(Value::Bool(t.contains(x))),
            _ => arity_err(2),
        },
        Keys => match args {
            // set of first components of a set of pairs
            [Value::Set(s)] => {
                Ok(Value::set(s.iter().filter_map(|p| {
                    p.as_tuple().and_then(|t| t.first().cloned())
                })))
            }
            _ => arity_err(1),
        },
        Values => match args {
            [Value::Set(s)] => {
                Ok(Value::set(s.iter().filter_map(|p| {
                    p.as_tuple().and_then(|t| t.get(1).cloned())
                })))
            }
            _ => arity_err(1),
        },
        IsNull => match args {
            [v] => Ok(Value::Bool(v.is_null())),
            _ => arity_err(1),
        },
        Min => match args {
            [a, b] => Ok(if a <= b { a.clone() } else { b.clone() }),
            _ => arity_err(2),
        },
        Max => match args {
            [a, b] => Ok(if a >= b { a.clone() } else { b.clone() }),
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
            // n-ary set union
            let mut out: BTreeSet<Value> = BTreeSet::new();
            for a in args {
                match a {
                    Value::Set(s) => out.extend(s.iter().cloned()),
                    other => {
                        return Err(EvalError::Type(format!(
                            "union_of() expects sets, got {other}"
                        )))
                    }
                }
            }
            Ok(Value::Set(Arc::new(out)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
