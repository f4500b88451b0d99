//! Batched-cycle pins (PR-8): the batched heuristic is an *efficiency*
//! move, never a semantics change on safety.
//!
//! Three guarantees:
//!
//! 1. **Convergence under `T`** — on tables where the one-tuple cycle
//!    converges, every batch strategy converges too, and never ends less
//!    safe (it may over-suppress: cross-class defusal inside a batch is
//!    deliberately not rechecked).
//! 2. **Warm-start compatibility** — warm batched ≡ cold batched: the
//!    batched path drops its statistics after a mutating iteration and
//!    regroups once, which must land on the same trajectory as a cold
//!    rebuild.
//! 3. **Journal resume mid-batch** — a batched iteration commits several
//!    actions; killing the journal at every frame boundary and midpoint
//!    inside those multi-action iterations must still resume to a
//!    bit-identical outcome.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use vadalog::Value;
use vadasa_core::cycle::{
    AnonymizationCycle, BatchStrategy, CycleConfig, CycleOutcome, TupleOrder,
};
use vadasa_core::dictionary::{Category, MetadataDictionary};
use vadasa_core::journal::record::{self, MAGIC};
use vadasa_core::journal::{JournalConfig, JOURNAL_FILE};
use vadasa_core::model::MicrodataDb;
use vadasa_core::prelude::{KAnonymity, LocalSuppression};
use vadasa_core::risk::RiskMeasure;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vadasa-batch-{}-{n}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Canonical rendering of every observable output of a run; equal strings
/// mean indistinguishable runs (same table, bitwise risks, audit trail).
fn transcript(o: &CycleOutcome) -> String {
    let mut t = String::new();
    let _ = writeln!(
        t,
        "iterations={} nulls={} recodings={} initial_risky={} final_risky={} termination={:?}",
        o.iterations, o.nulls_injected, o.recodings, o.initial_risky, o.final_risky, o.termination
    );
    for (i, r) in o.final_report.risks.iter().enumerate() {
        let _ = writeln!(t, "risk[{i}]={:016x}", r.to_bits());
    }
    for d in &o.audit.decisions {
        let _ = writeln!(
            t,
            "audit iter={} row={} risk={:016x} action={:?}",
            d.iteration,
            d.row,
            d.risk.to_bits(),
            d.action
        );
    }
    for r in 0..o.db.len() {
        let _ = writeln!(t, "row[{r}]={:?}", o.db.row(r).expect("row in range"));
    }
    t
}

/// A random categorical table with integer weights (the exact-summability
/// regime, where the warm path keeps its group statistics).
fn random_table(rng: &mut StdRng) -> (MicrodataDb, MetadataDictionary) {
    let cols = rng.gen_range(2..=4usize);
    let rows = rng.gen_range(4..=16usize);
    let mut names: Vec<String> = vec!["id".into()];
    for c in 0..cols {
        names.push(format!("q{c}"));
    }
    names.push("w".into());
    let mut db = MicrodataDb::new("rand", names.clone()).unwrap();
    for r in 0..rows {
        let mut row = vec![Value::Int(r as i64)];
        for _ in 0..cols {
            let v = rng.gen_range(0..4u8);
            row.push(Value::str(["alpha", "beta", "gamma", "delta"][v as usize]));
        }
        row.push(Value::Int(rng.gen_range(1..40i64)));
        db.push_row(row).unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for n in &names {
        dict.register_attr("rand", n, "");
    }
    dict.set_category("rand", "id", Category::Identifier)
        .unwrap();
    for c in 0..cols {
        dict.set_category("rand", &format!("q{c}"), Category::QuasiIdentifier)
            .unwrap();
    }
    dict.set_category("rand", "w", Category::Weight).unwrap();
    (db, dict)
}

fn run(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    risk: &dyn RiskMeasure,
    config: CycleConfig,
) -> CycleOutcome {
    let anon = LocalSuppression::default();
    AnonymizationCycle::new(risk, &anon, config)
        .run(db, dict)
        .expect("cycle runs")
}

fn batched_config(batch: BatchStrategy) -> CycleConfig {
    CycleConfig {
        threshold: 0.5,
        tuple_order: TupleOrder::Fifo,
        batch: Some(batch),
        ..CycleConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pin 1: every batch strategy converges wherever one-tuple does, and
    /// never ends less safe (more suppressions allowed, fewer forbidden).
    #[test]
    fn batched_converges_and_is_never_less_safe(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        let risk = KAnonymity::new(2);
        let one = run(&db, &dict, &risk, batched_config(BatchStrategy::OneTuple));
        for batch in [BatchStrategy::PerClass, BatchStrategy::TopN(3)] {
            let b = run(&db, &dict, &risk, batched_config(batch));
            // Safety, not suppression count: trajectories legitimately
            // diverge (class-major order can defuse more rows per null,
            // or fewer), so the pin is that batched converges wherever
            // one-tuple does and every final risk sits under T.
            if one.final_risky == 0 {
                prop_assert_eq!(b.final_risky, 0,
                    "{:?} ended less safe than one-tuple", batch);
                prop_assert!(b.final_report.risks.iter().all(|r| *r <= 0.5),
                    "{:?} left a risk above the threshold", batch);
            }
            prop_assert!(b.iterations <= one.iterations,
                "{:?} took more iterations ({} > {})", batch, b.iterations, one.iterations);
        }
    }

    /// Pin 2: warm batched ≡ cold batched, byte for byte.
    #[test]
    fn warm_batched_equals_cold_batched(seed in 0u64..1_000_000) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let (db, dict) = random_table(&mut rng);
        let risk = KAnonymity::new(2);
        let warm = run(&db, &dict, &risk, CycleConfig {
            warm_start: true,
            ..batched_config(BatchStrategy::PerClass)
        });
        let cold = run(&db, &dict, &risk, CycleConfig {
            warm_start: false,
            ..batched_config(BatchStrategy::PerClass)
        });
        prop_assert_eq!(transcript(&warm), transcript(&cold));
    }
}

/// A table whose first batched iteration takes several actions: three
/// sample-unique rows share a class-mate structure so `PerClass`/`TopN`
/// group multiple suppressions into one iteration.
fn multi_action_table() -> (MicrodataDb, MetadataDictionary) {
    let mut db = MicrodataDb::new("mb", ["Id", "A", "B", "W"]).unwrap();
    let rows = [
        // a heavy class (safe under k = 2)
        ("h1", "north", "steel", 20),
        ("h2", "north", "steel", 20),
        ("h3", "north", "steel", 20),
        // three singletons in one equivalence class-to-be: unique on (A, B)
        ("s1", "south", "wool", 2),
        ("s2", "south", "silk", 2),
        ("s3", "south", "linen", 2),
        // and one more singleton elsewhere
        ("s4", "east", "glass", 2),
    ];
    for (id, a, b, w) in rows {
        db.push_row(vec![
            Value::str(id),
            Value::str(a),
            Value::str(b),
            Value::Int(w),
        ])
        .unwrap();
    }
    let mut dict = MetadataDictionary::new();
    for a in ["Id", "A", "B", "W"] {
        dict.register_attr("mb", a, "");
    }
    dict.set_category("mb", "Id", Category::Identifier).unwrap();
    for a in ["A", "B"] {
        dict.set_category("mb", a, Category::QuasiIdentifier)
            .unwrap();
    }
    dict.set_category("mb", "W", Category::Weight).unwrap();
    (db, dict)
}

/// Pin 3: kill the journaled batched run at every frame boundary and
/// midpoint — including inside multi-action batch iterations — and
/// resume; every prefix must land on the uninterrupted transcript.
#[test]
fn batched_journal_resumes_identically_from_every_kill_point() {
    let (db, dict) = multi_action_table();
    let risk = KAnonymity::new(2);
    let anon = LocalSuppression::default();
    let config = batched_config(BatchStrategy::TopN(4));

    let reference = transcript(
        &AnonymizationCycle::new(&risk, &anon, config.clone())
            .run(&db, &dict)
            .expect("reference run"),
    );
    // several actions must land in one iteration, or this test pins nothing
    let full_dir = fresh_dir("full");
    let journaled = AnonymizationCycle::new(
        &risk,
        &anon,
        CycleConfig {
            journal: Some(JournalConfig::new(&full_dir)),
            ..config.clone()
        },
    )
    .run(&db, &dict)
    .expect("journaled run");
    assert!(
        journaled.nulls_injected > journaled.iterations,
        "workload must batch multiple actions per iteration \
         ({} action(s) over {} iteration(s))",
        journaled.nulls_injected,
        journaled.iterations
    );
    assert_eq!(transcript(&journaled), reference, "journal is an observer");

    let bytes = fs::read(full_dir.join(JOURNAL_FILE)).expect("read journal");
    let bounds = record::frame_boundaries(&bytes);
    let mut kills = vec![0, MAGIC.len() / 2, MAGIC.len()];
    let mut prev = MAGIC.len();
    for &b in &bounds {
        kills.push(prev + (b - prev) / 2);
        kills.push(b);
        prev = b;
    }
    kills.sort_unstable();
    kills.dedup();

    for cut in kills {
        let dir = fresh_dir("cut");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(JOURNAL_FILE), &bytes[..cut]).expect("write prefix");
        let resumed = AnonymizationCycle::new(
            &risk,
            &anon,
            CycleConfig {
                journal: Some(JournalConfig::new(&dir)),
                ..config.clone()
            },
        )
        .resume(&db, &dict)
        .unwrap_or_else(|e| panic!("resume from cut {cut} failed: {e}"));
        assert_eq!(
            transcript(&resumed),
            reference,
            "divergent outcome after kill at byte {cut}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&full_dir);
}
