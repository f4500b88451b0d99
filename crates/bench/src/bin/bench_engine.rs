//! Engine join-core benchmark: before/after medians for the planned,
//! hash-indexed executor ([`JoinMode::Indexed`], the default) against the
//! reference nested-loop evaluator ([`JoinMode::Reference`]), plus the
//! goal-directed (magic-sets) series against the full fixpoint.
//!
//! Usage: `bench_engine [--quick] [--out PATH] [--baseline PATH]`
//!
//! Workloads:
//!
//! - **tc64** — non-linear transitive closure
//!   (`path(X, Z) :- path(X, Y), path(Y, Z)`) over a 64-node cycle:
//!   the full 64×64 closure, dominated by the recursive self-join.
//! - **tc_goal** — the same non-linear closure over a graph of 8
//!   disjoint 32-node cycles, queried with the goal `path(0, ?)`. The
//!   full fixpoint derives all 8 components; the magic rewrite derives
//!   only the goal's component, so this workload measures the pruning a
//!   bound query binding buys ("magic" mode vs full "indexed" mode).
//! - **risk** — the paper's declarative household/individual risk program
//!   (Algorithm 2 tuple reification + Algorithm 5 individual risk) over a
//!   `vadasa-datagen` microdata fixture. The "magic" mode answers a
//!   single-respondent goal (the respondent's whole quasi-identifier
//!   group, `closed_groups` attested) instead of scoring all rows — the
//!   interactive "what is *this* respondent's risk?" query shape.
//! - **suda** — Algorithm 2 tuple reification + Algorithm 6 SUDA (MSU
//!   threshold 2) over 1,000 regime-U rows at the base seed: recursion
//!   over attribute subsets, negation and aggregation, the engine's
//!   per-binding costs (frames, head instantiation, inserts) at volume.
//!
//! Each workload runs its modes `runs` times, timing the reference kernel
//! ([`vadasa_bench::reference`]) before every run; the output file gets
//! one JSON object per line (medians in seconds plus speedup ratios, each
//! with the kernel's median beside it as `ref_ms`), ready for `jq` and for
//! the CI perf-smoke gates. With `--baseline PATH` the indexed tc64, the
//! magic tc_goal and the indexed suda medians are compared against the
//! committed baseline at one host speed (each divided by its `ref_ms`),
//! and the process exits non-zero on a >25% regression in any of them.
//! An unknown option or a missing value prints the usage line and exits
//! 2 before anything is run or written.

use std::io::Write;
use vadalog::{
    parse_program, Atom, Database, Engine, EngineConfig, GoalRun, JoinMode, MagicOptions, Program,
    Term,
};
use vadasa_bench::operand;
use vadasa_bench::reference::{self, Series};
use vadasa_core::programs::{
    alg6_suda, microdata_to_facts, ALG2_TUPLE_REIFICATION, ALG5_INDIVIDUAL_RISK,
};
use vadasa_core::report::render_engine_profile;
use vadasa_datagen::generator::{generate, DatasetSpec, Regime};

fn non_linear_tc(nodes: usize) -> String {
    let mut src = String::new();
    for i in 0..nodes {
        src.push_str(&format!("edge({}, {}).\n", i, (i + 1) % nodes));
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).\n");
    src
}

/// `components` disjoint `cycle_len`-node cycles: node `c*cycle_len + i`
/// points at its cyclic successor within component `c`. A goal bound to
/// one node makes every other component irrelevant.
fn disjoint_cycles_tc(components: usize, cycle_len: usize) -> String {
    let mut src = String::new();
    for c in 0..components {
        let base = c * cycle_len;
        for i in 0..cycle_len {
            src.push_str(&format!(
                "edge({}, {}).\n",
                base + i,
                base + (i + 1) % cycle_len
            ));
        }
    }
    src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).\n");
    src
}

fn engine(mode: JoinMode) -> Engine {
    Engine::with_config(EngineConfig {
        join_mode: mode,
        ..EngineConfig::default()
    })
}

/// `runs` evaluations of `program`, each timed beside the kernel.
fn series(
    program: &Program,
    facts: &Database,
    mode: JoinMode,
    runs: usize,
    check: impl Fn(&vadalog::ReasoningResult),
) -> Series {
    let mut s = Series::default();
    for _ in 0..runs {
        let r = s.time(|| {
            engine(mode)
                .run(program, facts.clone())
                .expect("benchmark program evaluates")
        });
        check(&r);
    }
    s
}

/// `runs` goal-directed evaluations, each timed beside the kernel.
/// Asserts the magic rewrite actually applied — a silent fallback would
/// benchmark the full fixpoint and report a meaningless "speedup".
fn series_goal(
    program: &Program,
    facts: &Database,
    goals: &[Atom],
    options: MagicOptions,
    runs: usize,
    check: impl Fn(&GoalRun),
) -> Series {
    let mut s = Series::default();
    for _ in 0..runs {
        let r = s.time(|| {
            engine(JoinMode::Indexed)
                .run_with_goals(program, facts.clone(), goals, options)
                .expect("goal-directed benchmark evaluates")
        });
        assert!(
            r.magic.applied,
            "magic rewrite fell back in benchmark: {:?}",
            r.magic
        );
        check(&r);
    }
    s
}

struct WorkloadResult {
    name: &'static str,
    size: usize,
    reference: Series,
    indexed: Series,
    /// The goal-directed series, when the workload has one.
    magic: Option<Series>,
}

/// `num / den`, infinite when `den` is zero.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// Speedups compare two series at one host speed (each median divided by
/// its kernel median).
impl WorkloadResult {
    fn speedup(&self) -> f64 {
        ratio(self.reference.per_ref(), self.indexed.per_ref())
    }

    /// Full indexed fixpoint vs goal-directed run of the same program.
    fn magic_speedup(&self) -> Option<f64> {
        Some(ratio(
            self.indexed.per_ref(),
            self.magic.as_ref()?.per_ref(),
        ))
    }
}

fn emit(out: &mut impl Write, w: &WorkloadResult, runs: usize) {
    let mut modes = vec![("reference", &w.reference), ("indexed", &w.indexed)];
    if let Some(magic) = &w.magic {
        modes.push(("magic", magic));
    }
    for (mode, s) in &modes {
        writeln!(
            out,
            "{{\"bench\":\"engine.{}\",\"size\":{},\"mode\":\"{}\",\"median_s\":{:.6},\"ref_ms\":{:.3},\"runs\":{}}}",
            w.name,
            w.size,
            mode,
            s.median_s(),
            s.ref_ms(),
            runs
        )
        .expect("write bench line");
    }
    writeln!(
        out,
        "{{\"bench\":\"engine.{}\",\"size\":{},\"speedup\":{:.3},\"ref_ms\":{:.3}}}",
        w.name,
        w.size,
        w.speedup(),
        Series::ref_ms_of(&[&w.reference, &w.indexed])
    )
    .expect("write bench line");
    if let (Some(speedup), Some(magic)) = (w.magic_speedup(), &w.magic) {
        writeln!(
            out,
            "{{\"bench\":\"engine.{}\",\"size\":{},\"magic_speedup\":{:.3},\"ref_ms\":{:.3}}}",
            w.name,
            w.size,
            speedup,
            Series::ref_ms_of(&[&w.indexed, magic])
        )
        .expect("write bench line");
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_engine [--quick] [--out PATH] [--baseline PATH]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_engine.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = operand(&mut args, &arg, usage),
            "--baseline" => baseline = Some(operand(&mut args, &arg, usage)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unrecognised argument '{other}'");
                usage()
            }
        }
    }

    let runs = if quick { 3 } else { 5 };
    let tc_nodes = 64; // the headline workload is identical in both modes

    // 8 components keep the full fixpoint comparable to tc64 while the
    // 32-node component gives the magic run enough work (one component's
    // closure) for a noise-stable median the CI gate can hold at 25%
    let (tc_goal_components, tc_goal_cycle) = (8, 32);
    let risk_rows = if quick { 500 } else { 2_000 };
    // identical in both modes: the suda gate compares against the baseline
    let suda_rows = 1_000;

    // --- workload 1: 64-node non-linear transitive closure ---
    let tc_program = parse_program(&non_linear_tc(tc_nodes)).expect("tc program parses");
    let tc_facts = Database::new();
    let expect_paths = tc_nodes * tc_nodes;
    let tc_check = |r: &vadalog::ReasoningResult| {
        assert_eq!(r.db.rows("path").len(), expect_paths, "tc closure size");
    };
    let tc = WorkloadResult {
        name: "tc",
        size: tc_nodes,
        reference: series(&tc_program, &tc_facts, JoinMode::Reference, runs, tc_check),
        indexed: series(&tc_program, &tc_facts, JoinMode::Indexed, runs, tc_check),
        magic: None,
    };

    // --- workload 2: goal-directed closure over disjoint components ---
    let tc_goal_nodes = tc_goal_components * tc_goal_cycle;
    let tc_goal_program = parse_program(&disjoint_cycles_tc(tc_goal_components, tc_goal_cycle))
        .expect("tc_goal program parses");
    let tc_goal_full_paths = tc_goal_components * tc_goal_cycle * tc_goal_cycle;
    let tc_goal_full_check = |r: &vadalog::ReasoningResult| {
        assert_eq!(r.db.rows("path").len(), tc_goal_full_paths, "full closure");
    };
    let tc_goal_atom = Atom::new(
        "path",
        vec![
            Term::Const(vadalog::Value::Int(0)),
            Term::Var("Y".to_string()),
        ],
    );
    let tc_goal_slice = tc_goal_cycle; // path(0, y) for every y in component 0
    let tc_goal = WorkloadResult {
        name: "tc_goal",
        size: tc_goal_nodes,
        reference: series(
            &tc_goal_program,
            &tc_facts,
            JoinMode::Reference,
            runs,
            tc_goal_full_check,
        ),
        indexed: series(
            &tc_goal_program,
            &tc_facts,
            JoinMode::Indexed,
            runs,
            tc_goal_full_check,
        ),
        magic: Some(series_goal(
            &tc_goal_program,
            &tc_facts,
            std::slice::from_ref(&tc_goal_atom),
            MagicOptions::default(),
            runs,
            |r: &GoalRun| {
                assert_eq!(
                    vadalog::goal_slice(&r.result.db, &tc_goal_atom).len(),
                    tc_goal_slice,
                    "goal slice size"
                );
            },
        )),
    };

    // --- workload 3: declarative household risk (Alg. 2 + Alg. 5) ---
    let spec = DatasetSpec::new(risk_rows, 4, Regime::U);
    let (db, dict) = generate(&spec, 20210323);
    let risk_program = parse_program(&format!("{ALG2_TUPLE_REIFICATION}{ALG5_INDIVIDUAL_RISK}"))
        .expect("risk program parses");
    let risk_facts = microdata_to_facts(&db, &dict).expect("microdata converts");
    let risk_check = |r: &vadalog::ReasoningResult| {
        assert_eq!(r.db.rows("riskOutput").len(), risk_rows, "one risk per row");
    };

    // the magic series answers one respondent's risk: the goal set is
    // that respondent's whole quasi-identifier group (closed under group
    // equality, so `closed_groups` is sound) — derived from a reference
    // full run, which also pins the expected risk values
    let risk_full = engine(JoinMode::Indexed)
        .run(&risk_program, risk_facts.clone())
        .expect("risk reference run evaluates");
    let tuples = risk_full.db.rows("tuple");
    let target = tuples.first().expect("at least one reified tuple").clone();
    let group_sig = target[2].clone();
    let group_goals: Vec<Atom> = tuples
        .iter()
        .filter(|row| row[2] == group_sig)
        .map(|row| {
            Atom::new(
                "riskOutput",
                vec![Term::Const(row[1].clone()), Term::Var("R".to_string())],
            )
        })
        .collect();
    let expected_group: Vec<Vec<vadalog::Value>> = group_goals
        .iter()
        .flat_map(|g| vadalog::goal_slice(&risk_full.db, g))
        .collect();

    let risk = WorkloadResult {
        name: "risk",
        size: risk_rows,
        reference: series(
            &risk_program,
            &risk_facts,
            JoinMode::Reference,
            runs,
            risk_check,
        ),
        indexed: series(
            &risk_program,
            &risk_facts,
            JoinMode::Indexed,
            runs,
            risk_check,
        ),
        magic: Some(series_goal(
            &risk_program,
            &risk_facts,
            &group_goals,
            MagicOptions {
                closed_groups: true,
            },
            runs,
            |r: &GoalRun| {
                let got: Vec<Vec<vadalog::Value>> = group_goals
                    .iter()
                    .flat_map(|g| vadalog::goal_slice(&r.result.db, g))
                    .collect();
                assert_eq!(got, expected_group, "goal risks match the full run");
            },
        )),
    };

    // --- workload 4: declarative SUDA (Alg. 2 + Alg. 6) ---
    let (db, dict) = generate(&DatasetSpec::new(suda_rows, 4, Regime::U), 20210323);
    let suda_program = parse_program(&format!("{ALG2_TUPLE_REIFICATION}{}", alg6_suda(2)))
        .expect("suda program parses");
    let suda_facts = microdata_to_facts(&db, &dict).expect("microdata converts");
    let suda_check = |r: &vadalog::ReasoningResult| {
        assert_eq!(r.db.rows("riskOutput").len(), suda_rows, "one risk per row");
    };
    let suda = WorkloadResult {
        name: "suda",
        size: suda_rows,
        reference: series(
            &suda_program,
            &suda_facts,
            JoinMode::Reference,
            runs,
            suda_check,
        ),
        indexed: series(
            &suda_program,
            &suda_facts,
            JoinMode::Indexed,
            runs,
            suda_check,
        ),
        magic: None,
    };

    // --- report ---
    let mut file = match std::fs::File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create output file '{out_path}': {e}");
            std::process::exit(1);
        }
    };
    emit(&mut file, &tc, runs);
    emit(&mut file, &tc_goal, runs);
    emit(&mut file, &risk, runs);
    emit(&mut file, &suda, runs);

    println!("engine bench — {runs} run(s) per mode, medians in seconds\n");
    for w in [&tc, &tc_goal, &risk, &suda] {
        let magic = match (&w.magic, w.magic_speedup()) {
            (Some(s), Some(x)) => format!("   magic {:.3}s ({x:.2}x vs indexed)", s.median_s()),
            _ => String::new(),
        };
        println!(
            "  engine.{:<7} (size {:>5}): reference {:.3}s   indexed {:.3}s   speedup {:.2}x{}   (kernel {:.2} ms)",
            w.name,
            w.size,
            w.reference.median_s(),
            w.indexed.median_s(),
            w.speedup(),
            magic,
            Series::ref_ms_of(&[&w.reference, &w.indexed])
        );
    }

    // show *why* via the engine profile of one indexed tc run
    let profiled = engine(JoinMode::Indexed)
        .run(&tc_program, Database::new())
        .expect("profiled run evaluates");
    println!("\n{}", render_engine_profile(&profiled.profile));
    println!("results written to {out_path}");

    if let Some(path) = baseline {
        // Each gated median is compared with its baseline at one host
        // speed: both are divided by the reference kernel's median timed
        // beside them.
        let magic = tc_goal.magic.as_ref().expect("tc_goal runs a magic series");
        let gated = [
            ("engine.tc", "indexed", &tc.indexed),
            ("engine.tc_goal", "magic", magic),
            ("engine.suda", "indexed", &suda.indexed),
        ];
        let mut failed = false;
        for (bench, mode, s) in gated {
            failed |= !reference::gate(&path, bench, mode, s.median_s(), s.ref_ms());
        }
        if failed {
            std::process::exit(1);
        }
    }
}
