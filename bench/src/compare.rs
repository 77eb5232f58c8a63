//! `bench compare <a.json> <b.json>`: does `b` regress against `a`?
//!
//! Both files come from `bench run` with one seed (any number of `--runs`).
//! For every workload and end-to-end metric the medians over each file's
//! runs are set side by side with the cell's bound: 0.01 where the row says
//! the value repeats exactly per seed (simulated clock, simulator counts),
//! 0.10 on the wall clock. A change is only called when the run-to-run
//! spread is narrower than the bound; otherwise the pair is `unresolved`,
//! never `same`. A cell the row flags `not_applicable` is printed, not
//! judged.

use crate::json::{self, Value};
use crate::metrics::{compare_bound, Better, MetricDef, END_TO_END, WORKLOADS};
use crate::report::Outcome;
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// What a comparison concludes for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Judges one metric from its medians, its bound and the wider of the two
/// spreads.
pub fn judge(def: &MetricDef, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    let w = worsening(def, a, b);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One metric on one workload: the values of every run and what the rows
/// said about it.
#[derive(Default)]
struct Cell {
    values: Vec<f64>,
    /// The rows call its clock `sim`: it repeats exactly per seed.
    exact: bool,
    /// The rows flag it as unable to move on this workload.
    not_applicable: bool,
}

/// Per workload: its cells, and the highest failed share seen.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, BTreeMap<String, Cell>>,
    failed_share: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no `rows` array"))?;
    let mut side = Side::default();
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: row without `workload`"))?;
        let failed = row
            .get("failed_share")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let worst = side.failed_share.entry(workload.to_owned()).or_insert(0.0);
        *worst = worst.max(failed);
        let Some(Value::Obj(metrics)) = row.get("end_to_end") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                let cell = side
                    .metrics
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default();
                cell.values.push(v);
                cell.exact = m.get("clock").and_then(Value::as_str) == Some("sim");
                cell.not_applicable = m.get("not_applicable").is_some();
            }
        }
    }
    Ok(side)
}

/// Compares two result files; fails on any `worse` or a higher failed
/// share.
pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound", "spread"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        let (Some(ma), Some(mb)) = (a.metrics.get(w.name), b.metrics.get(w.name)) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(ca), Some(cb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let (med_a, med_b) = (stats::median(&ca.values), stats::median(&cb.values));
            let spread = stats::iqr_share(&ca.values).max(stats::iqr_share(&cb.values));
            let bound = compare_bound(def, ca.exact && cb.exact);
            let verdict = if ca.not_applicable || cb.not_applicable {
                "n/a"
            } else {
                let verdict = judge(def, bound, med_a, med_b, spread);
                regressed |= verdict == Verdict::Worse;
                verdict.as_str()
            };
            println!(
                "{:<12} {:<26} {:>14.4} {:>14.4} {:>+8.3} {:>7.3} {:>7.3}  {}",
                w.name,
                def.name,
                med_a,
                med_b,
                worsening(def, med_a, med_b),
                bound,
                spread,
                verdict
            );
        }
        let (fa, fb) = (
            a.failed_share.get(w.name).copied().unwrap_or(0.0),
            b.failed_share.get(w.name).copied().unwrap_or(0.0),
        );
        let failed_rose = fb > fa;
        regressed |= failed_rose;
        println!(
            "{:<12} {:<26} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {}",
            w.name,
            "failed_share",
            fa,
            fb,
            "",
            "",
            "",
            if failed_rose { "worse" } else { "same" }
        );
    }
    println!(
        "(change = how much worse b is, as a share of a; runs per side: {} vs {})",
        runs_of(&a),
        runs_of(&b)
    );
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn runs_of(side: &Side) -> usize {
    side.metrics
        .values()
        .flat_map(BTreeMap::values)
        .map(|cell| cell.values.len())
        .max()
        .unwrap_or(0)
}

/// One line per end-to-end metric comparing two single runs (no spread is
/// known, so none is claimed): used by `bench check` for its second seed,
/// hence against the manifest's bound, which is the one meant to hold
/// across seeds.
pub fn judge_pair(a: &Outcome, b: &Outcome) -> Vec<String> {
    END_TO_END
        .iter()
        .filter_map(|def| {
            let (x, y) = (a.e2e.get(def.name)?.value, b.e2e.get(def.name)?.value);
            let w = worsening(def, x, y);
            Some(format!(
                "{:<26} {:>14.4} -> {:>14.4}  change {:>+7.3}  bound {:.3}  {}",
                def.name,
                x,
                y,
                w,
                def.bound,
                if w.abs() <= def.bound {
                    "within"
                } else {
                    "outside"
                }
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let qps = end_to_end("queries_per_wall_s").unwrap(); // higher is better
        let p50 = end_to_end("query_p50_ms").unwrap(); // lower is better
        let bound = compare_bound(qps, false);
        assert_eq!(bound, crate::metrics::WALL_BOUND);
        let (half, twice) = (bound / 2.0, bound * 2.0);
        let verdict = |def, b| judge(def, bound, 1000.0, b, 0.0);
        assert_eq!(verdict(qps, 1000.0 * (1.0 - half)), Verdict::Same);
        assert_eq!(verdict(qps, 1000.0 * (1.0 - twice)), Verdict::Worse);
        assert_eq!(verdict(qps, 1000.0 * (1.0 + twice)), Verdict::Better);
        assert_eq!(verdict(p50, 1000.0 * (1.0 + twice)), Verdict::Worse);
        assert_eq!(verdict(p50, 1000.0 * (1.0 - twice)), Verdict::Better);
        // A spread wider than the bound hides even a large change.
        assert_eq!(
            judge(p50, bound, 10.0, 20.0, bound * 1.5),
            Verdict::Unresolved
        );
        // On the simulated clock 2 % is a regression; on the wall clock it
        // is noise. `ok_share` keeps its own, tighter bound either way.
        let exact = compare_bound(p50, true);
        assert_eq!(exact, crate::metrics::EXACT_BOUND);
        assert_eq!(judge(p50, exact, 500.0, 510.0, 0.0), Verdict::Worse);
        assert_eq!(judge(p50, bound, 500.0, 510.0, 0.0), Verdict::Same);
        let ok = end_to_end("ok_share").unwrap();
        assert_eq!(compare_bound(ok, true), ok.bound);
        assert_eq!(compare_bound(ok, false), ok.bound);
    }

    #[test]
    fn files_are_grouped_by_workload_and_metric() {
        let dir = std::env::temp_dir().join(format!("rbay-perf-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Every row: a wall-clock throughput, a simulated-clock median 2 %
        // above 500 ms when `p50_up`, and a saturated tail flagged n/a.
        let write_with = |name: &str, qps: [f64; 3], failed: f64, p50_up: bool, p99: f64| {
            let p50 = if p50_up { 510.0 } else { 500.0 };
            let rows: Vec<String> = qps
                .iter()
                .map(|q| {
                    format!(
                        r#"{{"workload":"sim_geo","failed_share":{failed},"end_to_end":{{"queries_per_wall_s":{{"value":{q},"unit":"1/s","clock":"wall"}},"query_p50_ms":{{"value":{p50},"unit":"ms","clock":"sim"}},"query_p99_ms":{{"value":{p99},"unit":"ms","clock":"sim","not_applicable":"saturated"}}}}}}"#
                    )
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(r#"{{"rows":[{}],"claim":null}}"#, rows.join(",")),
            )
            .unwrap();
            path.to_str().unwrap().to_owned()
        };
        let write =
            |name: &str, qps: [f64; 3], failed: f64| write_with(name, qps, failed, false, 5001.0);
        let a = write("a.json", [1000.0, 1010.0, 990.0], 0.0);
        let same = write("same.json", [1005.0, 995.0, 1000.0], 0.0);
        let slow = write("slow.json", [500.0, 505.0, 495.0], 0.0);
        let failing = write("failing.json", [1000.0, 1010.0, 990.0], 0.01);
        let side = load(&a).unwrap();
        let cells = &side.metrics["sim_geo"];
        assert_eq!(cells["queries_per_wall_s"].values.len(), 3);
        assert!(cells["query_p50_ms"].exact && !cells["queries_per_wall_s"].exact);
        assert!(cells["query_p99_ms"].not_applicable);
        assert_eq!(run(&a, &same), ExitCode::SUCCESS);
        // 2 % on the simulated clock is a regression; a cell that cannot
        // move is never judged, whatever it reads.
        let drifted = write_with("drifted.json", [1000.0, 1010.0, 990.0], 0.0, true, 5001.0);
        assert_eq!(run(&a, &drifted), ExitCode::FAILURE);
        let tail = write_with("tail.json", [1000.0, 1010.0, 990.0], 0.0, false, 9000.0);
        assert_eq!(run(&a, &tail), ExitCode::SUCCESS);
        assert_eq!(run(&a, &slow), ExitCode::FAILURE);
        assert_eq!(run(&a, &failing), ExitCode::FAILURE);
        assert_eq!(run(&a, "/nonexistent.json"), ExitCode::from(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
