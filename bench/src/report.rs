//! What a workload run produces and how it is printed: the result line
//! the driver reads, the human table, and the JSON rows `bench compare`
//! reads back.

use crate::json::{obj, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::{procfs, stats};
use std::collections::BTreeMap;
use std::process::Command;

/// Failed operations listed by name before the list is cut off (the
/// count is never cut).
const MAX_LISTED_FAILURES: usize = 20;

/// One run's command-line choices.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of the workload generators.
    pub seed: u64,
    /// Wall seconds of timed work on the reference host: chooses the number
    /// of laps, whose size is frozen per workload.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the untraced pass
    /// (end-to-end metrics).
    pub trace: bool,
}

/// Operations attempted and failed, with the first failures by name.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub listed: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.listed.len() < MAX_LISTED_FAILURES {
            self.listed.push(what);
        }
    }

    /// Failed over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Samples it was computed from (laps, queries, set-ups…).
    pub samples: u64,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// `sim` when latencies are on the simulated WAN clock, `wall`
    /// otherwise.
    pub clock: &'static str,
    /// Operation counts and failures.
    pub tally: Tally,
    /// End-to-end metrics (untraced pass) by name.
    pub e2e: BTreeMap<&'static str, Measured>,
    /// Per-layer metrics (traced pass and probes) by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Wall seconds of each timed lap.
    pub lap_wall_s: Vec<f64>,
    /// Values that must repeat exactly for one seed: simulated-clock
    /// latencies and counts.
    pub exact: Vec<(&'static str, f64)>,
    /// The workload's frozen constants and run-time facts (ports, tail
    /// percentile actually reported, …).
    pub facts: Vec<(&'static str, Value)>,
    /// End-to-end metrics that cannot move on this workload, with the
    /// reason. The driver's contract still wants a value for each, so they
    /// are reported, but flagged in the row and never judged by `compare`.
    pub not_applicable: Vec<(&'static str, &'static str)>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, clock: &'static str) -> Self {
        Outcome {
            workload,
            clock,
            tally: Tally::default(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            lap_wall_s: Vec::new(),
            exact: Vec::new(),
            facts: Vec::new(),
            not_applicable: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(crate::metrics::end_to_end(name).is_some(), "{name}");
        self.e2e.insert(name, Measured { value, samples });
    }

    /// Why `name` says nothing on this workload, if it does not.
    pub fn why_not(&self, name: &str) -> Option<&'static str> {
        self.not_applicable
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, why)| *why)
    }

    /// `sim` when `name` repeats exactly per seed on this workload (taken
    /// on the simulated clock or counted by the simulator), else `wall`.
    pub fn metric_clock(&self, name: &str) -> &'static str {
        if crate::metrics::is_exact(self.clock, name) {
            "sim"
        } else {
            "wall"
        }
    }

    /// Records a per-layer metric.
    pub fn put_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.layer.insert(name, value);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Spread of the timed laps' wall time (interquartile over median).
    pub fn lap_spread(&self) -> f64 {
        stats::iqr_share(&self.lap_wall_s)
    }

    /// The single line the driver reads: `correct`, `attempted`, `failed`
    /// and every end-to-end metric (untraced) or every per-layer metric
    /// (traced; one this workload does not produce reads 0).
    pub fn result_line(&self, traced: bool) -> String {
        let metric = |m: &MetricDef, v: f64| {
            (
                m.name.to_owned(),
                obj([("value", v.into()), ("unit", m.unit.into())]),
            )
        };
        let metrics: Vec<(String, Value)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| metric(m, self.layer.get(m.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| metric(m, self.e2e.get(m.name).map_or(f64::NAN, |x| x.value)))
                .collect()
        };
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.tally.attempted.max(1).into()),
            ("failed", self.tally.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }

    /// The row `bench run` stores: metrics plus everything needed to
    /// reproduce and judge them.
    pub fn row(&self, cfg: &RunCfg, env: &Env) -> Value {
        let e2e = Value::Obj(
            END_TO_END
                .iter()
                .filter_map(|m| {
                    self.e2e.get(m.name).map(|x| {
                        let mut cell = obj([
                            ("value", x.value.into()),
                            ("unit", m.unit.into()),
                            ("samples", x.samples.into()),
                            ("clock", self.metric_clock(m.name).into()),
                        ]);
                        if let Some(why) = self.why_not(m.name) {
                            cell.push("not_applicable", why.into());
                        }
                        (m.name.to_owned(), cell)
                    })
                })
                .collect(),
        );
        let layer = Value::Obj(
            PER_LAYER
                .iter()
                .filter_map(|m| {
                    self.layer.get(m.name).map(|v| {
                        (
                            m.name.to_owned(),
                            obj([("value", (*v).into()), ("unit", m.unit.into())]),
                        )
                    })
                })
                .collect(),
        );
        let mut row = obj([
            ("workload", self.workload.into()),
            ("clock", self.clock.into()),
            ("seed", cfg.seed.into()),
            ("seconds", cfg.seconds.into()),
            ("traced", cfg.trace.into()),
        ]);
        for (k, v) in env.fields() {
            row.push(k, v);
        }
        row.push("correct", self.correct().into());
        row.push("attempted", self.tally.attempted.into());
        row.push("failed", self.tally.failed.into());
        row.push("failed_share", self.tally.failed_share().into());
        row.push(
            "failures",
            self.tally
                .listed
                .iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>()
                .into(),
        );
        row.push("laps", self.lap_wall_s.len().into());
        row.push("lap_spread", self.lap_spread().into());
        row.push(
            "constants",
            Value::Obj(
                self.facts
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        );
        row.push("end_to_end", e2e);
        row.push("per_layer", layer);
        row.push(
            "exact",
            Value::Obj(
                self.exact
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::from(*v)))
                    .collect(),
            ),
        );
        row
    }

    /// Prints the metrics by name with unit and sample count.
    pub fn print_table(&self, traced: bool) {
        eprintln!(
            "\n== {} (clock: {}, {} lap(s), lap spread {:.3}) ==",
            self.workload,
            self.clock,
            self.lap_wall_s.len(),
            self.lap_spread()
        );
        for (k, v) in &self.facts {
            eprintln!("   {k} = {}", v.render());
        }
        let laps: Vec<String> = self.lap_wall_s.iter().map(|w| format!("{w:.3}")).collect();
        eprintln!("   lap_wall_s = [{}]", laps.join(", "));
        if traced {
            for m in PER_LAYER {
                if let Some(v) = self.layer.get(m.name) {
                    eprintln!("   {:<36} {:>16.4} {}", m.name, v, m.unit);
                }
            }
        } else {
            for m in END_TO_END {
                if let Some(x) = self.e2e.get(m.name) {
                    eprintln!(
                        "   {:<28} {:>16.4} {:<6} n={} {}{}",
                        m.name,
                        x.value,
                        m.unit,
                        x.samples,
                        self.metric_clock(m.name),
                        self.why_not(m.name)
                            .map_or(String::new(), |why| format!("  n/a: {why}"))
                    );
                }
            }
        }
        eprintln!(
            "   attempted {}  failed {}  failed_share {:.6}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        for f in &self.tally.listed {
            eprintln!("   FAILED: {f}");
        }
        if self.tally.failed as usize > self.tally.listed.len() {
            eprintln!(
                "   … and {} more",
                self.tally.failed as usize - self.tally.listed.len()
            );
        }
    }
}

/// Where and on what the numbers were taken; carried by every row.
#[derive(Debug, Clone)]
pub struct Env {
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// CPUs the host reports.
    pub nproc: usize,
    /// The one CPU the process tree is pinned to (`None`: pinning
    /// refused).
    pub pinned_cpu: Option<usize>,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

impl Env {
    /// Collects the facts; call after pinning.
    pub fn collect(pinned_cpu: Option<usize>) -> Env {
        Env {
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: procfs::nproc(),
            pinned_cpu,
            cpu_model: procfs::cpu_model(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    fn fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("git_rev", self.git_rev.as_str().into()),
            ("nproc", self.nproc.into()),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Value::Null, Value::from),
            ),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome::new("sim_geo", "sim");
        for (i, m) in END_TO_END.iter().enumerate() {
            o.put(m.name, 1.5 + i as f64, 40);
        }
        o.put_layer("simnet.events_per_query", 812.25);
        o.tally.attempted = 200;
        o.lap_wall_s = vec![2.0, 2.1, 1.9, 2.0, 2.05];
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = sample();
        let v = crate::json::parse(&o.result_line(false)).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1,
            obj([("value", 1.5.into()), ("unit", "s".into())])
        );
        // Traced: every per-layer metric, absent ones as 0.
        let v = crate::json::parse(&o.result_line(true)).unwrap();
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(get("simnet.events_per_query"), Some(812.25));
        assert_eq!(get("tcp.reboots"), Some(0.0));
    }

    #[test]
    fn rows_say_which_cells_are_exact_and_which_cannot_move() {
        let mut o = sample();
        o.not_applicable
            .push(("query_p99_ms", "saturated at the query timeout"));
        let env = Env {
            git_rev: "abc1234".into(),
            nproc: 2,
            pinned_cpu: Some(1),
            cpu_model: "test".into(),
            rustc: "rustc 1.0".into(),
        };
        let cfg = RunCfg {
            seed: 7,
            seconds: 10,
            trace: false,
        };
        let row = o.row(&cfg, &env);
        let cell = |name: &str| row.get("end_to_end").and_then(|m| m.get(name)).unwrap();
        let clock = |name: &str| cell(name).get("clock").and_then(Value::as_str);
        assert_eq!(clock("query_p50_ms"), Some("sim"));
        assert_eq!(clock("msgs_per_query"), Some("sim"));
        assert_eq!(clock("queries_per_wall_s"), Some("wall"));
        assert_eq!(clock("setup_s"), Some("wall"));
        assert_eq!(
            cell("query_p99_ms")
                .get("not_applicable")
                .and_then(Value::as_str),
            Some("saturated at the query timeout")
        );
        assert_eq!(cell("query_p50_ms").get("not_applicable"), None);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect_and_is_listed() {
        let mut o = sample();
        o.tally.fail("query 17: 2 candidates, wanted 3".to_string());
        assert!(!o.correct());
        let env = Env {
            git_rev: "abc1234".into(),
            nproc: 2,
            pinned_cpu: Some(1),
            cpu_model: "test".into(),
            rustc: "rustc 1.0".into(),
        };
        let cfg = RunCfg {
            seed: 7,
            seconds: 10,
            trace: false,
        };
        let row = o.row(&cfg, &env);
        let back = crate::json::parse(&row.pretty()).unwrap();
        assert_eq!(back, row, "rows survive a round trip through text");
        assert_eq!(back.get("failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            back.get("failures").and_then(Value::as_arr).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(back.get("git_rev").and_then(Value::as_str), Some("abc1234"));
        assert_eq!(back.get("seed").and_then(Value::as_f64), Some(7.0));
    }
}
