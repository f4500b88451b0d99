//! Insertion-order goldens: every relation's rows in the order the engine
//! stored them, labelled-null labels included.
//!
//! Set equality (what the equivalence suites check) does not pin the
//! order facts enter a relation, yet that order is observable: downstream
//! rules enumerate in it, existential rules mint nulls in it and the
//! anonymization cycle reads facts in it. These goldens pin it for every
//! sample program under `crates/vadalog/programs/`, for Algorithm 7
//! over fixed `tuple` facts and for Algorithms 2 + 6 (SUDA, a recursive
//! program over set values) over a fixed table. Each case is checked
//! plain and with provenance tracing on (both must store the same rows in
//! the same order).
//!
//! The goldens live in `tests/golden/insertion_order/`. To regenerate after
//! an intentional change: `UPDATE_GOLDEN=1 cargo test --test insertion_order`.

use std::fmt::Write as _;
use vadalog::{parse_program, Database, Engine, EngineConfig, Value};
use vadasa_core::programs::{alg6_suda, ALG2_TUPLE_REIFICATION, ALG7_LOCAL_SUPPRESSION};

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

/// Fixed Algorithm 2 + 6 input: eight rows over three quasi-identifiers
/// (one of them numeric) and a weight. Rows 0–5 form three pairs that
/// share their full pattern; row 6 is the only `East` row (a
/// one-attribute MSU) and row 7 is unique only on two-attribute
/// combinations.
fn alg6_input() -> Database {
    let mut db = Database::new();
    let m = Value::str("survey");
    for attr in ["Area", "Sector", "Employees"] {
        db.insert(
            "cat",
            vec![m.clone(), Value::str(attr), Value::str("quasi-identifier")],
        );
    }
    db.insert(
        "cat",
        vec![m.clone(), Value::str("Weight"), Value::str("weight")],
    );
    let rows = [
        ("North", "Textiles", 10),
        ("North", "Textiles", 10),
        ("North", "Commerce", 50),
        ("South", "Commerce", 50),
        ("North", "Commerce", 50),
        ("South", "Commerce", 50),
        ("East", "Textiles", 10),
        ("South", "Textiles", 50),
    ];
    for (i, (area, sector, employees)) in rows.into_iter().enumerate() {
        let cells = [
            ("Area", Value::str(area)),
            ("Sector", Value::str(sector)),
            ("Employees", Value::Int(employees)),
            ("Weight", Value::Float(1.5 + i as f64)),
        ];
        for (attr, v) in cells {
            db.insert(
                "val",
                vec![m.clone(), Value::Int(i as i64), Value::str(attr), v],
            );
        }
    }
    db
}

/// One golden case: a program source and its input.
struct Case {
    name: &'static str,
    source: String,
    input: fn() -> Database,
}

fn sample(name: &'static str) -> Case {
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
        sample("company_control"),
        sample("kanonymity"),
        sample("skolem_identity"),
        sample("transitive_closure"),
        Case {
            name: "alg7_local_suppression",
            source: ALG7_LOCAL_SUPPRESSION.to_string(),
            input: alg7_input,
        },
        Case {
            name: "alg6_suda",
            source: format!("{ALG2_TUPLE_REIFICATION}{}", alg6_suda(2)),
            input: alg6_input,
        },
    ];
    let covered: Vec<String> = cases
        .iter()
        .filter(|c| !c.name.starts_with("alg"))
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

fn run(case: &Case, trace: bool) -> String {
    let program = parse_program(&case.source).expect("golden program parses");
    let result = Engine::with_config(EngineConfig {
        trace,
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
        let plain = run(&case, false);
        check_golden(case.name, &plain);
        assert_eq!(
            run(&case, true),
            plain,
            "{}: tracing changed the stored row order",
            case.name
        );
    }
}
