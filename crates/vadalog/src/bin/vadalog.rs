//! A small command-line front end for the vadalog engine.
//!
//! ```text
//! vadalog PROGRAM.vada [FACTS.vada ...] [options]
//!
//!   --output PRED        print only this predicate (repeatable; default:
//!                        all predicates derived by rule heads)
//!   --trace              print provenance for every derived fact
//!   --warded             run the wardedness analysis and report violations
//!   --stats              print evaluation statistics
//!   --profile            print the execution profile: per-stratum spans,
//!                        fixpoint-round deltas, per-rule firing /
//!                        derived-fact / join-candidate counts
//!   --profile-json PATH  stream telemetry events to PATH as JSON lines
//!                        (one event object per line; see vadasa-obs docs)
//!   --trace-out PATH     write the run's span timeline as Chrome
//!                        trace_event JSON (open in chrome://tracing or
//!                        Perfetto)
//!   --collapsed-out PATH write the run's span timeline as collapsed
//!                        stacks (pipe into a flamegraph renderer)
//!   --deadline-ms N      soft wall-clock budget: stop at the next check
//!                        point after N ms and print the partial result
//!   --max-facts N        soft derived-fact budget: stop once N facts have
//!                        been derived and print the partial result
//!   --reference-join     use the reference nested-loop evaluator instead
//!                        of planned, hash-indexed joins (for debugging
//!                        and baseline timing)
//!   --goal ATOM          goal-directed evaluation (repeatable): rewrite
//!                        the program with magic sets so only facts
//!                        relevant to the goal are derived; constants are
//!                        bound positions, `?` marks a free one, e.g.
//!                        --goal 'path(1, ?)'. Output is restricted to
//!                        the goal predicates, filtered to the goal slice
//!                        — identical to the full run's answers
//!   --no-magic           with --goal: answer the goals from a full
//!                        (unrewritten) run — the correctness baseline
//! ```
//!
//! Budgets degrade gracefully: the run still exits 0 and prints whatever
//! was derived, with a `% termination: …` comment explaining which budget
//! tripped and where.
//!
//! Programs and fact files share one syntax (see the crate docs); fact
//! files typically contain only ground atoms. Example:
//!
//! ```text
//! $ cat tc.vada
//! edge(1, 2). edge(2, 3).
//! path(X, Y) :- edge(X, Y).
//! path(X, Y) :- edge(X, Z), path(Z, Y).
//! $ vadalog tc.vada --output path
//! path(1, 2)
//! path(1, 3)
//! path(2, 3)
//! ```

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use vadalog::obs::trace::TraceBuilder;
use vadalog::obs::{Fanout, JsonLinesWriter, Recorder};
use vadalog::{
    parse_program, print_rule, warded_analyze, Budget, Database, Engine, EngineConfig, EngineError,
    Fact, Head, JoinMode, Termination,
};

fn usage() -> ! {
    eprintln!(
        "usage: vadalog PROGRAM.vada [FACTS.vada ...] [--output PRED]... [--trace] [--warded] [--stats] [--profile] [--profile-json PATH] [--trace-out PATH] [--collapsed-out PATH] [--deadline-ms N] [--max-facts N] [--reference-join] [--goal ATOM]... [--no-magic]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut trace = false;
    let mut warded = false;
    let mut stats = false;
    let mut profile = false;
    let mut profile_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut budget = Budget::unlimited();
    let mut join_mode = JoinMode::Indexed;
    let mut goal_specs: Vec<String> = Vec::new();
    let mut no_magic = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--output" => match args.next() {
                Some(p) => outputs.push(p),
                None => usage(),
            },
            "--trace" => trace = true,
            "--warded" => warded = true,
            "--stats" => stats = true,
            "--profile" => profile = true,
            "--profile-json" => match args.next() {
                Some(p) => profile_json = Some(p),
                None => usage(),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => usage(),
            },
            "--collapsed-out" => match args.next() {
                Some(p) => collapsed_out = Some(p),
                None => usage(),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => budget = budget.with_deadline(Duration::from_millis(ms)),
                None => usage(),
            },
            "--max-facts" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => budget = budget.with_max_facts(n),
                None => usage(),
            },
            "--reference-join" => join_mode = JoinMode::Reference,
            "--goal" => match args.next() {
                Some(g) => goal_specs.push(g),
                None => usage(),
            },
            "--no-magic" => no_magic = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                usage();
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        usage();
    }

    // first file is the program; the rest contribute facts (and may also
    // contain rules — they are merged)
    let mut program = vadalog::Program::new();
    for (i, path) in files.iter().enumerate() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_program(&text) {
            Ok(p) => program.extend(p),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if i == 0 && program.rules.is_empty() {
            eprintln!("warning: {path} contains no rules");
        }
    }

    if warded {
        let report = warded_analyze(&program);
        if report.is_warded() {
            println!("% program is warded");
        } else {
            for (rule, why) in &report.violations {
                println!("% wardedness violation in rule {rule}: {why}");
            }
        }
    }

    let sink: Option<Arc<JsonLinesWriter<_>>> = match &profile_json {
        Some(path) => match JsonLinesWriter::create(path) {
            Ok(w) => Some(Arc::new(w)),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Trace exports need the events replayed into a recorder; fan out
    // when the JSON-lines sink is also requested.
    let recorder: Option<Arc<Recorder>> = if trace_out.is_some() || collapsed_out.is_some() {
        Some(Arc::new(Recorder::new()))
    } else {
        None
    };
    let mut collectors: Vec<Arc<dyn vadalog::obs::Collector>> = Vec::new();
    if let Some(s) = &sink {
        collectors.push(s.clone());
    }
    if let Some(r) = &recorder {
        collectors.push(r.clone());
    }
    let collector: Option<Arc<dyn vadalog::obs::Collector>> = match collectors.len() {
        0 => None,
        1 => collectors.pop(),
        _ => Some(Arc::new(Fanout::new(collectors))),
    };
    let engine = Engine::with_config(EngineConfig {
        trace,
        collector,
        budget,
        join_mode,
        ..Default::default()
    });
    let mut goals: Vec<vadalog::Atom> = Vec::new();
    for spec in &goal_specs {
        match vadalog::parse_goal(spec) {
            Ok(g) => goals.push(g),
            Err(e) => {
                eprintln!("invalid --goal '{spec}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut magic_report: Option<vadalog::MagicReport> = None;
    let run_outcome = if goals.is_empty() || no_magic {
        engine.run(&program, Database::new())
    } else {
        engine
            .run_with_goals(
                &program,
                Database::new(),
                &goals,
                vadalog::MagicOptions::default(),
            )
            .map(|gr| {
                magic_report = Some(gr.magic);
                gr.result
            })
    };
    let result = match run_outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("evaluation failed: {e}");
            // show the offending rule's source when a hard limit names one
            if let EngineError::ResourceLimit {
                rule: Some(idx), ..
            } = &e
            {
                if let Some(rule) = program.rules.get(*idx) {
                    eprintln!("offending rule: {}", print_rule(rule));
                }
            }
            return ExitCode::FAILURE;
        }
    };
    match &result.termination {
        Termination::Fixpoint => {}
        t @ Termination::BudgetExceeded { rule, .. } => {
            println!("% termination: {t} — result below is partial");
            if let Some(label) = rule {
                if let Some(r) = program
                    .rules
                    .iter()
                    .enumerate()
                    .find(|(i, r)| {
                        r.label.as_deref() == Some(label.as_str()) || format!("rule#{i}") == *label
                    })
                    .map(|(_, r)| r)
                {
                    println!("% last active rule: {}", print_rule(r));
                }
            }
        }
        t @ Termination::Cancelled => {
            println!("% termination: {t} — result below is partial");
        }
    }
    if let Some(sink) = &sink {
        if let Err(e) = sink.flush() {
            eprintln!("cannot write telemetry: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(rec) = &recorder {
        let tree = TraceBuilder::from_recorder(rec);
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, tree.chrome_trace_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &collapsed_out {
            if let Err(e) = std::fs::write(path, tree.collapsed_stacks()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(report) = &magic_report {
        if report.applied {
            println!(
                "% magic: applied — {} goal seed(s), {} guarded rule(s), {} seed rule(s), {} rule(s) pruned",
                report.stats.goal_seeds,
                report.stats.guarded_rules,
                report.stats.seed_rules,
                report.stats.pruned_rules
            );
        } else if report.degenerate {
            println!("% magic: degenerate goal (no bound argument) — full evaluation");
        } else if let Some(reason) = &report.fallback {
            println!("% magic: fell back to full evaluation — {reason}");
        }
    }

    if !goals.is_empty() {
        // Goal-directed output: the goal slices, identically whether the
        // rewrite ran (--goal) or not (--goal --no-magic). An explicit
        // --output list narrows which goal predicates are shown.
        let show: BTreeSet<String> = if outputs.is_empty() {
            goals.iter().map(|g| g.pred.clone()).collect()
        } else {
            outputs.into_iter().collect()
        };
        let mut rows_by_pred: std::collections::BTreeMap<String, BTreeSet<Vec<vadalog::Value>>> =
            Default::default();
        for goal in &goals {
            if !show.contains(&goal.pred) {
                continue;
            }
            rows_by_pred
                .entry(goal.pred.clone())
                .or_default()
                .extend(vadalog::goal_slice(&result.db, goal));
        }
        for (pred, rows) in &rows_by_pred {
            for row in rows {
                println!("{}", Fact::new(pred.clone(), row.clone()));
            }
        }
    } else {
        // default outputs: all head predicates
        let outputs: BTreeSet<String> = if outputs.is_empty() {
            program
                .rules
                .iter()
                .filter_map(|r| match &r.head {
                    Head::Atoms(atoms) => Some(atoms.iter().map(|a| a.pred.clone())),
                    Head::Equality(_, _) => None,
                })
                .flatten()
                .collect()
        } else {
            outputs.into_iter().collect()
        };

        for pred in &outputs {
            let mut rows = result.db.rows(pred);
            rows.sort();
            for row in rows {
                println!("{}", Fact::new(pred.clone(), row));
            }
        }
    }

    if trace {
        println!("% --- provenance ---");
        for t in &result.trace {
            println!("% {} ⟵ [{}]", t.fact, t.rule);
        }
    }
    for v in &result.violations {
        println!(
            "% EGD violation{}: {} ≠ {}",
            v.rule_label
                .as_ref()
                .map(|l| format!(" [{l}]"))
                .unwrap_or_default(),
            v.left,
            v.right
        );
    }
    if stats {
        println!(
            "% {} facts derived, {} iterations, {} nulls, {} unifications",
            result.stats.facts_derived,
            result.stats.iterations,
            result.stats.nulls_created,
            result.stats.unifications
        );
    }
    if profile {
        for line in result.profile.render_table().lines() {
            println!("% {line}");
        }
    }
    ExitCode::SUCCESS
}
