//! `bench` — the RBAY benchmark.
//!
//! ```text
//! bench run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
//! bench trace   [--workload W] [--seed N] [--seconds S]
//! bench layers
//! bench check   [--seed N] [--seconds S]
//! bench compare <a.json> <b.json>
//! bench manifest
//! ```
//!
//! `run --workload W` is what `BENCHMARK.json` names: it measures one
//! workload and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Without
//! `--workload` it runs all four and prints (and stores under
//! `bench/out/`) one row per workload. See `bench/README.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod harness;
mod json;
mod layers;
mod metrics;
mod procfs;
mod report;
mod sim_churn;
mod sim_geo;
mod sim_zipf_rw;
mod simcommon;
mod stats;
mod tcp_pack;
mod trace;

use json::{obj, Value};
use metrics::{RUN_SECONDS, WORKLOADS};
use report::{Env, Outcome, RunCfg};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Where traces and result files go: `bench/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE]\n\
         \x20      bench trace [--workload W] [--seed N] [--seconds S]\n\
         \x20      bench layers | check [--seed N] [--seconds S] | compare <a.json> <b.json> | manifest\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut i = 0;
    let value = |i: usize| -> &String {
        argv.get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(i);
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    usage(&format!("unknown workload `{w}`"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => {
                a.seed = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a non-negative integer"));
            }
            "--seconds" => {
                a.seconds = value(i)
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage("--seconds needs an integer from 1 to 60"));
            }
            "--trace" => {
                a.trace = match value(i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--runs" => {
                a.runs = value(i)
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--runs needs a positive integer"));
            }
            "--out" => a.out = Some(PathBuf::from(value(i))),
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            file => {
                a.files.push(file.to_owned());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    a
}

/// Runs one workload once.
fn run_workload(name: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    match name {
        "sim_geo" => sim_geo::run(cfg, tracer),
        "sim_zipf_rw" => sim_zipf_rw::run(cfg, tracer),
        "sim_churn" => sim_churn::run(cfg, tracer),
        "tcp_pack" => tcp_pack::run(cfg, tracer),
        other => unreachable!("workload `{other}` passed validation"),
    }
}

/// Runs one workload and, on a traced pass, adds the micro-probes and
/// writes the spans to `bench/out/<workload>.trace.jsonl`.
fn measure(name: &str, cfg: &RunCfg) -> Outcome {
    let mut tracer = Tracer::off();
    let mut outcome = run_workload(name, cfg, &mut tracer);
    if cfg.trace {
        layers::run_probes(cfg.seed, &mut outcome);
        let dir = out_dir();
        let path = dir.join(format!("{name}.trace.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            Ok(()) => eprintln!(
                "bench: {} span(s) written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("bench: cannot write {}: {e}", path.display()),
        }
    }
    outcome.print_table(cfg.trace);
    outcome
}

/// Everything that must happen before the first measurement: build the
/// daemon if a selected workload needs it (unpinned, so the build may use
/// every CPU), then pin the process tree to one CPU.
fn prepare(workloads: &[&str]) -> Env {
    if workloads.contains(&"tcp_pack") {
        if let Err(e) = tcp_pack::ensure_daemon_built() {
            eprintln!("bench: {e}");
            std::process::exit(1);
        }
    }
    let pinned = procfs::pin_to_highest_cpu();
    if pinned.is_none() {
        eprintln!("bench: warning: could not pin to one CPU; wall-clock metrics will be noisier");
    }
    Env::collect(pinned)
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Measures one workload in a process of its own and returns its row:
/// peak memory and allocator state of one workload must not leak into the
/// next, and the driver measures each in a fresh process too.
fn measure_in_child(name: &str, cfg: &RunCfg) -> Result<Value, String> {
    let row_file = out_dir().join(format!("tmp/row-{}.json", std::process::id()));
    let mut cmd = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&row_file)
        .stdout(std::process::Stdio::null());
    // The exit code only says whether the outputs were correct; the row does too.
    cmd.status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text =
        std::fs::read_to_string(&row_file).map_err(|e| format!("{name} left no result ({e})"))?;
    let _ = std::fs::remove_file(&row_file);
    let doc = json::parse(&text)?;
    doc.get("rows")
        .and_then(Value::as_arr)
        .and_then(<[Value]>::first)
        .cloned()
        .ok_or_else(|| format!("{name}: result file has no row"))
}

fn cmd_run(args: &Args) -> ExitCode {
    let names = selected(args);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let single = args.workload.is_some() && args.runs == 1;
    let mut rows = Vec::new();
    let mut all_correct = true;
    let mut result_line = None;
    if single {
        let env = prepare(&names);
        let outcome = measure(names[0], &cfg);
        all_correct = outcome.correct();
        rows.push(outcome.row(&cfg, &env));
        result_line = Some(outcome.result_line(cfg.trace));
    } else {
        for run in 0..args.runs {
            for name in &names {
                eprintln!("bench: run {}/{}: {name}", run + 1, args.runs);
                match measure_in_child(name, &cfg) {
                    Ok(mut row) => {
                        all_correct &= row.get("correct") == Some(&Value::Bool(true));
                        row.push("run", run.into());
                        rows.push(row);
                    }
                    Err(e) => {
                        eprintln!("bench: {e}");
                        all_correct = false;
                    }
                }
            }
        }
    }
    let doc = obj([
        ("benchmark", "rbay".into()),
        ("rows", rows.into()),
        ("claim", Value::Null),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if cfg.trace { "trace" } else { "run" };
        out_dir().join(format!("{kind}-seed{}.json", cfg.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => eprintln!("bench: rows written to {}", path.display()),
        Err(e) => eprintln!("bench: cannot write {}: {e}", path.display()),
    }
    match result_line {
        // One workload, once: the driver's contract — the result object is
        // the last line of standard output.
        Some(line) => println!("{line}"),
        None => print!("{}", doc.pretty()),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_layers(args: &Args) -> ExitCode {
    prepare(&[]);
    let mut outcome = Outcome::new("layers", "wall");
    layers::run_probes(args.seed, &mut outcome);
    outcome.print_table(true);
    ExitCode::SUCCESS
}

/// Everything a simulator run reports that does not depend on the wall
/// clock: its counts, and the metrics taken on the simulated clock.
fn exact_values(o: &Outcome) -> Vec<(&'static str, f64)> {
    let metrics = o
        .e2e
        .iter()
        .filter(|(name, _)| metrics::is_exact(o.clock, name))
        .map(|(name, m)| (*name, m.value));
    o.exact.iter().copied().chain(metrics).collect()
}

/// Correctness in one command: every workload's outputs are checked while
/// it is measured; each simulator workload is run twice with one seed and
/// must repeat its simulated-clock and count values bit for bit; a second
/// seed shows the exact values move while the rates stay within bounds.
fn cmd_check(args: &Args) -> ExitCode {
    const SECOND_SEED: u64 = 7;
    let names = selected(args);
    prepare(&names);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
    };
    let mut ok = true;
    for name in names {
        let first = measure(name, &cfg);
        ok &= first.correct();
        if first.clock != "sim" {
            continue;
        }
        let again = measure(name, &cfg);
        ok &= again.correct();
        let (a, b) = (exact_values(&first), exact_values(&again));
        if a == b {
            eprintln!(
                "check: {name}: {} simulated-clock and count value(s) identical across two runs of seed {}",
                a.len(),
                cfg.seed
            );
        } else {
            ok = false;
            eprintln!("check: {name}: FAILED: same seed, different exact values");
            for (x, y) in a.iter().zip(&b).filter(|(x, y)| x != y) {
                eprintln!("   {} = {} vs {}", x.0, x.1, y.1);
            }
        }
        let other = measure(
            name,
            &RunCfg {
                seed: SECOND_SEED,
                ..cfg
            },
        );
        ok &= other.correct();
        eprintln!(
            "check: {name}: seed {SECOND_SEED} {} the exact values of seed {}",
            if exact_values(&other) == a {
                "repeats (unexpected)"
            } else {
                "changes"
            },
            cfg.seed
        );
        for row in compare::judge_pair(&first, &other) {
            eprintln!("   {row}");
        }
    }
    eprintln!("check: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        usage("missing subcommand");
    };
    let mut args = parse_args(&argv[1..]);
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "trace" => {
            args.trace = true;
            cmd_run(&args)
        }
        "layers" => cmd_layers(&args),
        "check" => cmd_check(&args),
        "compare" => match args.files.as_slice() {
            [a, b] => compare::run(a, b),
            _ => usage("compare needs two result files"),
        },
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}
