//! `aalint` — the standalone front end to the AAScript install-time
//! static analysis (see `aascript::analysis` and DESIGN.md §11).
//!
//! Lints `.aa` handler files the way `RbayHost` vets scripts at install:
//! compile, then run the dataflow lints and the abstract cost-bound
//! analysis against the instruction budget. Exit status is nonzero when
//! any error-severity diagnostic (or compile error) is found, so CI can
//! gate on the in-repo handler corpus.
//!
//! ```sh
//! # Lint the in-repo corpus (examples/handlers, experiments/handlers),
//! # from the repository root:
//! cargo run --bin aalint
//! # Lint specific files or directories:
//! cargo run --bin aalint -- path/to/policy.aa handlers/
//! # Tighten the budget, declare deployment-specific globals:
//! cargo run --bin aalint -- --budget 500 --extern utilization node.aa
//! ```

use aascript::analysis::{LintOptions, Severity};
use aascript::Script;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Globals the RBAY host injects before any handler runs; reads of these
/// are always defined (keep in sync with `RbayHost::lint_script`).
const HOST_EXTERNS: [&str; 3] = ["now_ms", "attrs", "sha1hex"];

/// The host's default per-invocation instruction budget
/// (`RbayConfig::default().aa_budget`).
const DEFAULT_BUDGET: u64 = 10_000;

struct Args {
    budget: u64,
    externs: Vec<String>,
    paths: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: aalint [--budget N] [--extern NAME]... [FILE|DIR]...\n\
         With no paths, lints the in-repo corpus (examples/handlers,\n\
         experiments/handlers)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        budget: DEFAULT_BUDGET,
        externs: HOST_EXTERNS.iter().map(|s| s.to_string()).collect(),
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.budget = n,
                None => usage(),
            },
            "--extern" => match it.next() {
                Some(n) => args.externs.push(n),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if a.starts_with('-') => usage(),
            _ => args.paths.push(PathBuf::from(a)),
        }
    }
    args
}

/// The repository's default corpus directories, relative to the current
/// directory (run from the repository root, as CI does; name paths
/// otherwise).
fn default_corpus() -> Vec<PathBuf> {
    ["examples/handlers", "experiments/handlers"]
        .iter()
        .map(PathBuf::from)
        .collect()
}

/// All `.aa` files under `path` (recursively), or `path` itself if it is
/// a file.
fn collect_aa_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        eprintln!("aalint: cannot read {}", path.display());
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            collect_aa_files(&child, out);
        } else if child.extension().is_some_and(|e| e == "aa") {
            out.push(child);
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let roots = if args.paths.is_empty() {
        default_corpus()
    } else {
        args.paths.clone()
    };
    let mut files = Vec::new();
    for root in &roots {
        collect_aa_files(root, &mut files);
    }
    if files.is_empty() {
        eprintln!("aalint: no .aa files found under {roots:?}");
        return ExitCode::from(2);
    }

    let opts = LintOptions {
        budget: Some(args.budget),
        externs: args.externs.clone(),
    };
    let (mut errors, mut warnings) = (0usize, 0usize);
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: cannot read: {e}", file.display());
                errors += 1;
                continue;
            }
        };
        let script = match Script::compile(&src) {
            Ok(s) => s,
            Err(e) => {
                println!("{}:{}: error: {}", file.display(), e.pos, e.message);
                errors += 1;
                continue;
            }
        };
        for d in script.analyze(&opts) {
            println!("{}:{d}", file.display());
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
    }
    println!(
        "aalint: {} file(s), {errors} error(s), {warnings} warning(s)",
        files.len()
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
