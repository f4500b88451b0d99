//! Pluggable program modules (paper §4: "the intensional component is at
//! high level of abstraction, composed of pluggable Vadalog modules, some
//! of which are provided off-the-shelf while others can be autonomously
//! developed by business experts").
//!
//! A [`Module`] wraps a program with an interface: the predicates it
//! *provides* (derives) and those it *requires* from the extensional data
//! or from other modules. The [`ModuleRegistry`] composes a selection of
//! modules into one program, checking that
//!
//! 1. every requirement is satisfied by another module or declared as
//!    extensional input,
//! 2. no two modules claim to provide the same predicate (the polymorphic
//!    `#risk` slot is filled by exactly one plug-in at a time), and
//! 3. the composed program still stratifies.
//!
//! Interfaces are inferred from the module's own rules
//! ([`Module::from_source`]): a module provides what it derives, and
//! requires every body predicate that it does not derive itself.

use crate::ast::{Head, Program};
use crate::parser::{parse_program, ParseError};
use crate::stratify::stratify;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A named program fragment with an explicit interface.
#[derive(Debug, Clone)]
pub struct Module {
    /// Unique module name.
    pub name: String,
    /// Predicates this module derives for others.
    pub provides: BTreeSet<String>,
    /// Predicates this module expects to exist (extensional or provided by
    /// other modules).
    pub requires: BTreeSet<String>,
    /// The rules (and possibly facts) of the module.
    pub program: Program,
}

/// Module-system errors.
#[derive(Debug)]
pub enum ModuleError {
    /// The module source failed to parse.
    Parse(ParseError),
    /// Two modules provide the same predicate.
    Conflict {
        /// The predicate provided twice.
        predicate: String,
        /// First provider.
        first: String,
        /// Second provider.
        second: String,
    },
    /// A requirement is not satisfied by the selection.
    Unsatisfied {
        /// Module with the dangling requirement.
        module: String,
        /// The missing predicate.
        predicate: String,
    },
    /// The composed program does not stratify.
    Stratification(crate::stratify::StratifyError),
    /// A module name was not found in the registry.
    Unknown(String),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Parse(e) => write!(f, "{e}"),
            ModuleError::Conflict {
                predicate,
                first,
                second,
            } => write!(
                f,
                "modules '{first}' and '{second}' both provide predicate '{predicate}'"
            ),
            ModuleError::Unsatisfied { module, predicate } => write!(
                f,
                "module '{module}' requires '{predicate}', which no selected module provides and which is not declared extensional"
            ),
            ModuleError::Stratification(e) => write!(f, "composed program: {e}"),
            ModuleError::Unknown(name) => write!(f, "unknown module '{name}'"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl From<ParseError> for ModuleError {
    fn from(e: ParseError) -> Self {
        ModuleError::Parse(e)
    }
}

impl Module {
    /// Build a module from source text, inferring the interface: provides =
    /// head predicates, requires = body predicates not derived internally.
    pub fn from_source(name: impl Into<String>, source: &str) -> Result<Self, ModuleError> {
        let program = parse_program(source)?;
        let name = name.into();
        let mut provides: BTreeSet<String> = BTreeSet::new();
        for rule in &program.rules {
            if let Head::Atoms(atoms) = &rule.head {
                for a in atoms {
                    provides.insert(a.pred.clone());
                }
            }
        }
        for fact in &program.facts {
            provides.insert(fact.pred.clone());
        }
        let mut requires: BTreeSet<String> = BTreeSet::new();
        for rule in &program.rules {
            for (p, _) in rule.body_preds() {
                if !provides.contains(p) {
                    requires.insert(p.to_string());
                }
            }
        }
        Ok(Module {
            name,
            provides,
            requires,
            program,
        })
    }
}

/// A registry of modules that can be composed into programs.
#[derive(Debug, Default)]
pub struct ModuleRegistry {
    modules: HashMap<String, Module>,
    /// Predicates the host supplies as extensional data.
    extensional: BTreeSet<String>,
}

impl ModuleRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a predicate as extensional (host-provided) input.
    pub fn declare_extensional(&mut self, pred: impl Into<String>) -> &mut Self {
        self.extensional.insert(pred.into());
        self
    }

    /// Register a module (replacing any module of the same name — how a
    /// business expert overrides an off-the-shelf plug-in).
    pub fn register(&mut self, module: Module) -> &mut Self {
        self.modules.insert(module.name.clone(), module);
        self
    }

    /// Registered module names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.modules.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Compose the named modules into one program, validating the wiring.
    pub fn compose(&self, selection: &[&str]) -> Result<Program, ModuleError> {
        // resolve
        let mut picked: Vec<&Module> = Vec::with_capacity(selection.len());
        for name in selection {
            picked.push(
                self.modules
                    .get(*name)
                    .ok_or_else(|| ModuleError::Unknown(name.to_string()))?,
            );
        }
        // provider conflicts
        let mut provider: HashMap<&str, &str> = HashMap::new();
        for m in &picked {
            for p in &m.provides {
                if let Some(first) = provider.insert(p.as_str(), m.name.as_str()) {
                    if first != m.name {
                        return Err(ModuleError::Conflict {
                            predicate: p.clone(),
                            first: first.to_string(),
                            second: m.name.clone(),
                        });
                    }
                }
            }
        }
        // requirement satisfaction
        for m in &picked {
            for r in &m.requires {
                let satisfied = self.extensional.contains(r) || provider.contains_key(r.as_str());
                if !satisfied {
                    return Err(ModuleError::Unsatisfied {
                        module: m.name.clone(),
                        predicate: r.clone(),
                    });
                }
            }
        }
        // merge and check stratifiability
        let mut program = Program::new();
        for m in &picked {
            program.extend(m.program.clone());
        }
        stratify(&program).map_err(ModuleError::Stratification)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Engine, Value};

    fn reify() -> Module {
        Module::from_source(
            "reify",
            r#"tuple(M, I, VSet) :- val(M, I, A, V), cat(M, A, "quasi-identifier"),
                                   VSet = munion(pair(A, V), <A>)."#,
        )
        .unwrap()
    }

    fn kanon() -> Module {
        Module::from_source(
            "risk-kanon",
            r#"tuplea(VSet, C) :- tuple(M, I, VSet), C = mcount(<I>).
               riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, C),
                                   R = case C < 2 then 1.0 else 0.0."#,
        )
        .unwrap()
    }

    #[test]
    fn interface_is_inferred() {
        let m = reify();
        assert!(m.provides.contains("tuple"));
        assert!(m.requires.contains("val"));
        assert!(m.requires.contains("cat"));
        assert!(!m.requires.contains("tuple"));
    }

    #[test]
    fn composition_checks_requirements() {
        let mut reg = ModuleRegistry::new();
        reg.register(kanon());
        // tuple is not provided and not extensional
        match reg.compose(&["risk-kanon"]) {
            Err(ModuleError::Unsatisfied { predicate, .. }) => assert_eq!(predicate, "tuple"),
            other => panic!("expected Unsatisfied, got {other:?}"),
        }
        reg.register(reify());
        reg.declare_extensional("val").declare_extensional("cat");
        assert!(reg.compose(&["reify", "risk-kanon"]).is_ok());
    }

    #[test]
    fn provider_conflicts_are_rejected() {
        let mut reg = ModuleRegistry::new();
        reg.register(Module::from_source("a", "p(X) :- q(X).").unwrap());
        reg.register(Module::from_source("b", "p(X) :- r(X).").unwrap());
        reg.declare_extensional("q").declare_extensional("r");
        match reg.compose(&["a", "b"]) {
            Err(ModuleError::Conflict { predicate, .. }) => assert_eq!(predicate, "p"),
            other => panic!("expected Conflict, got {other:?}"),
        }
    }

    #[test]
    fn re_registration_swaps_the_plug_in() {
        // a business expert replaces the off-the-shelf risk module
        let mut reg = ModuleRegistry::new();
        reg.register(reify());
        reg.declare_extensional("val").declare_extensional("cat");
        reg.register(kanon());
        let strict = Module::from_source(
            "risk-kanon",
            r#"tuplea(VSet, C) :- tuple(M, I, VSet), C = mcount(<I>).
               riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, C),
                                   R = case C < 5 then 1.0 else 0.0."#,
        )
        .unwrap();
        reg.register(strict);
        let program = reg.compose(&["reify", "risk-kanon"]).unwrap();
        let printed = crate::print_program(&program);
        assert!(printed.contains("C < 5"), "replacement module should win");
    }

    #[test]
    fn composed_program_runs() {
        let mut reg = ModuleRegistry::new();
        reg.register(reify());
        reg.register(kanon());
        reg.declare_extensional("val").declare_extensional("cat");
        let program = reg.compose(&["reify", "risk-kanon"]).unwrap();

        let mut db = Database::new();
        let m = Value::str("m");
        db.insert(
            "cat",
            vec![m.clone(), Value::str("q"), Value::str("quasi-identifier")],
        );
        for (i, v) in [(0, "solo"), (1, "dup"), (2, "dup")] {
            db.insert(
                "val",
                vec![m.clone(), Value::Int(i), Value::str("q"), Value::str(v)],
            );
        }
        let result = Engine::new().run(&program, db).unwrap();
        let risks = result.db.rows("riskOutput");
        let of = |i: i64| {
            risks
                .iter()
                .find(|r| r[0] == Value::Int(i))
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(of(0), Value::Float(1.0));
        assert_eq!(of(1), Value::Float(0.0));
    }

    #[test]
    fn unstratifiable_composition_is_rejected() {
        let mut reg = ModuleRegistry::new();
        reg.register(Module::from_source("a", "p(X) :- q(X), not r(X).").unwrap());
        reg.register(Module::from_source("b", "r(X) :- p(X).").unwrap());
        reg.declare_extensional("q");
        assert!(matches!(
            reg.compose(&["a", "b"]),
            Err(ModuleError::Stratification(_))
        ));
    }
}
