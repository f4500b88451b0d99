//! Insertion-order goldens: every relation's rows in the order the engine
//! stored them, labelled-null labels included.
//!
//! Set equality (what the equivalence suites check) does not pin the
//! order facts enter a relation, yet that order is observable: downstream
//! rules enumerate in it, existential rules mint nulls in it and the
//! anonymization cycle reads facts in it. These goldens pin it for every
//! sample program under `crates/vadalog/programs/` and for Algorithm 7
//! over fixed `tuple` facts. Each case is checked sequentially, on four
//! threads and with provenance tracing on (all three must store the same
//! rows in the same order), and once more with a `DescendingBy` router,
//! which reorders bindings and so has a golden of its own.
//!
//! The goldens live in `tests/golden/insertion_order/`. To regenerate after
//! an intentional change: `UPDATE_GOLDEN=1 cargo test --test insertion_order`.

use std::fmt::Write as _;
use vadalog::{parse_program, Database, DescendingBy, Engine, EngineConfig, Router, Value};
use vadasa_core::programs::ALG7_LOCAL_SUPPRESSION;

/// Fixed Algorithm 7 input: six reified tuples, three of them flagged
/// for suppression with the attribute(s) the host picked for each.
fn alg7_input() -> Database {
    let mut db = Database::new();
    let rows = [
        (1, "North", "Textiles"),
        (2, "North", "Commerce"),
        (3, "South", "Commerce"),
        (4, "South", "Textiles"),
        (5, "East", "Textiles"),
        (6, "East", "Mining"),
    ];
    for (id, area, sector) in rows {
        let vset = Value::set([
            Value::pair(Value::str("area"), Value::str(area)),
            Value::pair(Value::str("sector"), Value::str(sector)),
        ]);
        db.insert("tuple", vec![Value::str("m"), Value::Int(id), vset]);
    }
    for id in [2, 5, 6] {
        db.insert("anonymize", vec![Value::Int(id)]);
    }
    for (id, attr) in [(2, "sector"), (5, "area"), (6, "area"), (6, "sector")] {
        db.insert("suppressattr", vec![Value::Int(id), Value::str(attr)]);
    }
    db
}

/// One golden case: a program source and the variable its router scores.
struct Case {
    name: &'static str,
    source: String,
    input: fn() -> Database,
    router_var: &'static str,
}

fn sample(name: &'static str, router_var: &'static str) -> Case {
    let path = format!(
        "{}/crates/vadalog/programs/{name}.vada",
        env!("CARGO_MANIFEST_DIR")
    );
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Case {
        name,
        source,
        input: Database::new,
        router_var,
    }
}

fn cases() -> Vec<Case> {
    let dir = format!("{}/crates/vadalog/programs", env!("CARGO_MANIFEST_DIR"));
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("sample program directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".vada"))
        .collect();
    on_disk.sort();
    let cases = vec![
        sample("company_control", "W"),
        sample("kanonymity", "I"),
        sample("skolem_identity", "P"),
        sample("transitive_closure", "Y"),
        Case {
            name: "alg7_local_suppression",
            source: ALG7_LOCAL_SUPPRESSION.to_string(),
            input: alg7_input,
            router_var: "I",
        },
    ];
    let covered: Vec<String> = cases
        .iter()
        .filter(|c| !c.name.starts_with("alg7"))
        .map(|c| format!("{}.vada", c.name))
        .collect();
    assert_eq!(covered, on_disk, "every sample program needs a golden case");
    cases
}

/// Every relation, sorted by name, its rows in insertion order.
fn render(db: &Database) -> String {
    let mut names: Vec<&str> = db.relation_names().collect();
    names.sort_unstable();
    let mut out = String::new();
    for name in names {
        for row in db.rows(name) {
            let args: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "{name}({})", args.join(", "));
        }
    }
    out
}

fn run(case: &Case, threads: usize, trace: bool, router: Option<Box<dyn Router>>) -> String {
    let program = parse_program(&case.source).expect("golden program parses");
    let result = Engine::with_config(EngineConfig {
        threads,
        trace,
        router,
        ..EngineConfig::default()
    })
    .run(&program, (case.input)())
    .expect("golden program evaluates");
    assert!(
        result.termination.is_fixpoint(),
        "{}: no fixpoint",
        case.name
    );
    render(&result.db)
}

fn check_golden(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/insertion_order/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().expect("golden dir"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read golden {path}: {e}; run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "{name}: insertion order drifted from its golden file"
    );
}

#[test]
fn insertion_order_matches_goldens_sequential_parallel_and_traced() {
    for case in cases() {
        let sequential = run(&case, 1, false, None);
        check_golden(case.name, &sequential);
        assert_eq!(
            run(&case, 4, false, None),
            sequential,
            "{}: four threads stored rows in another order",
            case.name
        );
        assert_eq!(
            run(&case, 1, true, None),
            sequential,
            "{}: tracing changed the stored row order",
            case.name
        );
    }
}

#[test]
fn insertion_order_matches_goldens_under_a_router() {
    for case in cases() {
        let router = || -> Option<Box<dyn Router>> {
            Some(Box::new(DescendingBy {
                var: case.router_var.to_string(),
            }))
        };
        let routed = run(&case, 1, false, router());
        check_golden(&format!("{}.descending", case.name), &routed);
        assert_eq!(
            run(&case, 4, true, router()),
            routed,
            "{}: routed order differs on four threads with tracing",
            case.name
        );
    }
}
