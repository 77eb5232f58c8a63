//! `rbay-check` — the systematic-exploration CLI.
//!
//! ```text
//! rbay-check explore [--nodes N] [--seed N] [--budget-secs S]
//!                    [--initial-depth D] [--max-depth D] [--max-runs N]
//!                    [--target-distinct N] [--keep-going] [--random WALKS]
//!                    [--strict-recall] [--schedule-out FILE]
//! rbay-check replay <file.schedule>
//! rbay-check shrink <file.schedule> [--out FILE]
//! ```
//!
//! `explore` drives the subscribe-fail-repair scenario through all
//! bounded interleavings (iterative-deepening DFS with sleep-set
//! reduction; `--random` switches to seeded random walks for larger
//! configurations) and exits non-zero if any protocol invariant trips.
//! `replay` re-executes a `.schedule` counterexample deterministically
//! with obs tracing forced on, printing the tree-repair timeline; it
//! exits non-zero when the recorded violation does not reproduce.
//! `shrink` delta-debugs a schedule down to a locally minimal one.

use rbay_check::{
    explore, explore_random, replay, runner, shrink, CheckSpec, Scenario, ScheduleFile,
};
use simnet::ReplayScheduler;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: rbay-check explore [--nodes N] [--seed N] [--budget-secs S] [--initial-depth D]\n\
         \x20                        [--max-depth D] [--max-runs N] [--target-distinct N]\n\
         \x20                        [--keep-going] [--random WALKS] [--strict-recall]\n\
         \x20                        [--schedule-out FILE]\n\
         \x20      rbay-check replay <file.schedule>\n\
         \x20      rbay-check shrink <file.schedule> [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        _ => usage("expected a subcommand: explore | replay | shrink"),
    }
}

fn cmd_explore(args: &[String]) -> ! {
    let mut spec = CheckSpec::subscribe_fail_repair(3, 7);
    let mut opts = runner::ExploreOpts::default();
    let mut random_walks: Option<u64> = None;
    let mut schedule_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                spec.nodes = parse_num(args, i, "--nodes");
                i += 2;
            }
            "--seed" => {
                spec.seed = parse_num(args, i, "--seed");
                i += 2;
            }
            "--budget-secs" => {
                opts.budget = Duration::from_secs(parse_num(args, i, "--budget-secs"));
                i += 2;
            }
            "--initial-depth" => {
                opts.initial_depth = parse_num(args, i, "--initial-depth");
                i += 2;
            }
            "--max-depth" => {
                opts.max_depth = parse_num(args, i, "--max-depth");
                i += 2;
            }
            "--max-runs" => {
                opts.max_runs = parse_num(args, i, "--max-runs");
                i += 2;
            }
            "--target-distinct" => {
                opts.target_distinct = parse_num(args, i, "--target-distinct");
                i += 2;
            }
            "--keep-going" => {
                opts.stop_at_first = false;
                i += 1;
            }
            "--random" => {
                random_walks = Some(parse_num(args, i, "--random"));
                i += 2;
            }
            "--strict-recall" => {
                spec.strict_recall = true;
                i += 1;
            }
            "--schedule-out" => {
                schedule_out = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| usage("--schedule-out needs a file path")),
                );
                i += 2;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if spec.nodes < 2 {
        usage("--nodes must be at least 2");
    }

    let report = match random_walks {
        Some(walks) => explore_random(&spec, walks, 0.02),
        None => explore(&spec, &opts),
    };
    println!(
        "{}: {} runs, {} distinct interleavings, {} pruned, {} violation(s), {}exhausted, {:.2?}",
        spec.kind.name(),
        report.runs,
        report.distinct,
        report.pruned,
        report.violations.len(),
        if report.exhausted { "" } else { "not " },
        report.elapsed,
    );
    for cx in &report.violations {
        println!("\nviolation [{}]: {}", cx.violation.kind(), cx.violation);
        let schedule = cx.to_schedule(&spec);
        match &schedule_out {
            Some(path) => match std::fs::write(path, schedule.render()) {
                Ok(()) => println!("schedule written to {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            },
            None => print!("{}", schedule.render()),
        }
    }
    std::process::exit(if report.violations.is_empty() { 0 } else { 1 });
}

fn read_schedule(args: &[String]) -> ScheduleFile {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| usage("expected a .schedule file"));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    ScheduleFile::parse(&text).unwrap_or_else(|e| usage(&format!("bad schedule {path}: {e}")))
}

fn cmd_replay(args: &[String]) -> ! {
    let file = read_schedule(args);
    let (name, nodes, seed) = file.spec.identity();
    println!(
        "replaying {name} (nodes {nodes}, seed {seed}), recorded violation: {}",
        file.violation.as_deref().unwrap_or("none"),
    );

    // For the explorable scenarios, re-run step by step with obs tracing
    // forced on and print the tree-repair timeline; bench scenarios
    // re-run their experiment's core end to end.
    let found = match &file.spec {
        Scenario::Explored(spec) => {
            let mut p = spec.prepare();
            let rec = p.fed.enable_obs(1 << 16);
            let started = p.fed.sim().now();
            let mut sched = ReplayScheduler::new(file.directives.iter().copied());
            let outcome = runner::run_prepared(&mut p, &mut sched);
            let tree = p.ctx.topic.key().as_u128();
            rbay_bench::print_repair_timeline(rec.events(), started, tree);
            println!(
                "replayed {} steps, {} divergences",
                outcome.steps,
                outcome.decisions.len()
            );
            outcome.violation
        }
        _ => replay(&file).violation,
    };

    match &found {
        Some(v) => println!("violation [{}]: {v}", v.kind()),
        None => println!("no violation"),
    }
    let reproduced = match (&file.violation, &found) {
        (Some(want), Some(got)) => want == got.kind(),
        (None, None) => true,
        _ => false,
    };
    if !reproduced {
        eprintln!("recorded violation did NOT reproduce");
    }
    std::process::exit(if reproduced { 0 } else { 1 });
}

fn cmd_shrink(args: &[String]) -> ! {
    let file = read_schedule(args);
    let mut out_path = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a file path")),
                );
                i += 2;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let before = file.directives.len();
    let reduced = shrink(&file);
    println!(
        "shrunk {} -> {} directive(s)",
        before,
        reduced.directives.len()
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, reduced.render())
                .unwrap_or_else(|e| usage(&format!("cannot write {path}: {e}")));
            println!("written to {path}");
        }
        None => print!("{}", reduced.render()),
    }
    std::process::exit(0);
}
