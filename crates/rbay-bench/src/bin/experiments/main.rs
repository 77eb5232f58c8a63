//! `experiments` — the whole evaluation behind one driver, one
//! subcommand per table, figure and ablation.
//!
//! ```sh
//! cargo run --release -p rbay-bench --bin experiments -- fig9 --seed 42 --scale 1
//! cargo run --release -p rbay-bench --bin experiments -- all --scale 0.1
//! ```
//!
//! [`EXPERIMENTS`] is the one place an experiment is named: the
//! subcommand lookup, `all` and the usage text all read it. The exit
//! status is the one judge: an experiment that misses a gate says why and
//! exits 1 ([`fail`]).

use rbay_bench::{HarnessOpts, HARNESS_FLAGS};

mod aa_exec;
mod ablation_aggregation;
mod ablation_central;
mod churn;
mod fig10;
mod fig11;
mod fig8a;
mod fig8b;
mod fig8c;
mod fig9;
mod frontdoor;
mod latency_grid;
mod openloop;
mod pastry_probe;
mod table2;

/// `(subcommand, what it reproduces, entry point)`.
type Experiment = (&'static str, &'static str, fn(&HarnessOpts));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table2", "Table II — inter-site RTT matrix", table2::run),
    ("fig8a", "Fig. 8a — hops vs number of nodes", fig8a::run),
    (
        "fig8b",
        "Fig. 8b — forwarding load balance across NodeIds",
        fig8b::run,
    ),
    (
        "fig8c",
        "Fig. 8c — AA memory vs the PAST baseline",
        fig8c::run,
    ),
    (
        "fig9",
        "Fig. 9 — per-user query-latency CDFs (Virginia, Singapore, São Paulo)",
        fig9::run,
    ),
    (
        "fig10",
        "Fig. 10 — average latency ± stddev vs number of requesting sites",
        fig10::run,
    ),
    (
        "fig11",
        "Fig. 11 — tree construction (onSubscribe) and command delivery (onDeliver) latency",
        fig11::run,
    ),
    (
        "ablation_central",
        "§II.A argument — central master load vs RBAY's decentralized trees",
        ablation_central::run,
    ),
    (
        "ablation_aggregation",
        "design ablation — aggregation interval vs root-view staleness",
        ablation_aggregation::run,
    ),
    (
        "churn",
        "§VI future work — query success/recall/latency under node churn (gated)",
        churn::run,
    ),
    (
        "openloop",
        "§IV.A arrival process — concurrent queries at a fixed rate, conflicts + backoff",
        openloop::run,
    ),
    (
        "frontdoor",
        "front-door result cache — Zipf closed loop, cache off vs on at equal recall",
        frontdoor::run,
    ),
    (
        "aa_exec",
        "AA handler cost — bytecode VM vs tree-walking oracle, ns/invocation",
        aa_exec::run,
    ),
];

/// An experiment missed a gate: say why and exit 1.
fn fail(why: &str) -> ! {
    eprintln!("experiments: FAIL: {why}");
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: experiments <name|all> {HARNESS_FLAGS}\n\nexperiments:");
    for (name, what, _) in EXPERIMENTS {
        eprintln!("  {name:<22}{what}");
    }
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args
        .next()
        .unwrap_or_else(|| usage("name an experiment, or `all`"));
    let all = which == "all";
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, ..)| all || *name == which)
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment `{which}`"));
    }
    let opts = HarnessOpts::from_args(args);
    for (name, _, run) in &selected {
        if all {
            println!("==================== {name} ====================");
        }
        run(&opts);
        if all {
            println!();
        }
    }
    if all {
        println!("all {} experiments completed", selected.len());
    }
}
