//! # vadalog — a Warded Datalog± style reasoning engine
//!
//! This crate is a from-scratch reproduction of the reasoning substrate that
//! the Vada-SA paper (*Financial Data Exchange with Statistical
//! Confidentiality*, EDBT 2021) builds on: the Vadalog system, a member of
//! the Datalog± family. It provides everything the paper's nine algorithm
//! listings require:
//!
//! - **Datalog with recursion**, evaluated bottom-up with semi-naive
//!   fixpoints per stratum;
//! - **existential quantification** in rule heads, satisfied by minting
//!   *labelled nulls* through a memoized (Skolem-style restricted) chase;
//! - **stratified negation** and an expression language with comparisons,
//!   arithmetic, `case … then … else`, sets, pairs and indexing;
//! - **monotonic aggregation** (`msum`, `mcount`, `mprod`, `mmin`, `mmax`,
//!   `munion`) with explicit *contributors*: repeated contributions by the
//!   same contributor collapse to the extremal one, which is what lets an
//!   anonymized tuple *replace* its original in risk aggregates (paper §4.3);
//! - **equality-generating dependencies** (EGDs) that unify labelled nulls
//!   or report violations for human inspection (paper Algorithm 1, Rule 4);
//! - **wardedness analysis** ([`warded::analyze`]) as a tractability
//!   diagnostic.
//!
//! ## Quick example
//!
//! ```
//! use vadalog::{parse_program, Engine, Database, Value};
//!
//! let program = parse_program(
//!     "edge(1, 2). edge(2, 3).\n\
//!      path(X, Y) :- edge(X, Y).\n\
//!      path(X, Y) :- edge(X, Z), path(Z, Y).",
//! ).unwrap();
//! let result = Engine::new().run(&program, Database::new()).unwrap();
//! assert_eq!(result.db.rows("path").len(), 3);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod backend;
pub mod builtins;
mod compile;
pub mod eval;
pub mod frame;
pub mod governor;
pub mod intern;
pub mod magic;
pub mod module;
pub mod parser;
pub mod plan;
pub mod printer;
pub mod profile;
pub mod query;
pub mod storage;
pub mod stratify;
pub mod value;
pub mod warded;

/// The telemetry substrate (re-exported): collectors, spans, counters.
pub use vadasa_obs as obs;

pub use ast::{AggFunc, Atom, Expr, Fact, Head, Literal, Program, Rule, Term};
pub use backend::{
    DurableIo, FileBackend, FileIo, FileKind, StorageBackend, StorageEngine, StorageError,
};
pub use builtins::{eval_expr, Binding, EvalError};
pub use eval::{
    EgdViolation, Engine, EngineConfig, EngineError, EvalStats, GoalRun, JoinMode, MagicReport,
    ReasoningResult, TraceEntry,
};
pub use governor::{Budget, BudgetKind, CancelToken, Termination};
pub use intern::{intern, InternStats};
pub use magic::{
    is_magic_pred, rewrite as magic_rewrite, MagicOptions, MagicRefusal, MagicRewrite, MagicStats,
};
pub use module::{Module, ModuleError, ModuleRegistry};
pub use parser::{parse_program, parse_rule, ParseError};
pub use plan::{JoinPlan, PlanStep};
pub use printer::{print_expr, print_program, print_rule};
pub use profile::{EngineProfile, RoundProfile, RuleProfile, StratumProfile};
pub use query::{answers, goal_slice, parse_goal, AnswerMode};
pub use storage::{Database, Relation};
pub use stratify::{idb_predicates, stratify, Stratification, StratifyError};
pub use value::{NullId, SetVal, Value};
pub use warded::{analyze as warded_analyze, WardedReport};
