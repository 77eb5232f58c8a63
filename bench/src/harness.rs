//! The run protocol every workload shares: repeated set-up, one untimed
//! warm-up lap, then timed laps of one frozen size; throughput and CPU cost
//! are those of the fastest lap, latency samples are pooled over laps.

use crate::procfs::Proc;
use crate::report::{Outcome, RunCfg};
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Timed laps per requested second: 40 laps at the default `--seconds 10`.
/// A lap's size is a frozen constant of its workload (`OPS_PER_LAP`), about
/// a quarter second of work on the reference host (the host's slow phases
/// last a second or more, its fast ones often less), so `--seconds` chooses how
/// many laps run, never how much work one does — one seed and one
/// `--seconds` time the same operations on every host.
pub const LAPS_PER_S: usize = 4;
/// Reference laps, and then traced laps, of a traced pass.
pub const TRACE_LAPS: usize = 6;
/// Times a workload is set up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Laps stop early once the timed part has taken this many times the
/// requested seconds, so a slow host degrades to fewer laps instead of
/// overrunning the driver's limit.
const OVERRUN_FACTOR: f64 = 3.0;

/// Timed laps of an untraced run.
pub fn laps(cfg: &RunCfg) -> usize {
    LAPS_PER_S * cfg.seconds as usize
}

/// Runs `build` [`SETUP_REPS`] times (once on a traced pass, which does not
/// report set-up time) and returns the last product with each build's wall
/// seconds. The previous product is dropped before the next build, outside
/// its timing, so only one is alive at a time.
pub fn repeat_setup<T>(cfg: &RunCfg, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut walls = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        walls.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS >= 1"), walls)
}

/// Wall time, satisfied queries, work and CPU time of each timed lap.
#[derive(Debug, Default)]
pub struct LapStats {
    /// Wall seconds per lap.
    pub wall_s: Vec<f64>,
    /// Satisfied queries per lap.
    pub satisfied: Vec<u64>,
    /// Units of work per lap, the yardstick laps are compared by. Laps of
    /// identical work count their queries; `sim_churn`, whose laps differ
    /// in size, counts simulator events.
    pub work: Vec<u64>,
    /// CPU milliseconds the watched processes spent, per lap.
    pub cpu_ms: Vec<f64>,
}

impl LapStats {
    /// Appends another block of laps.
    pub fn extend(&mut self, more: LapStats) {
        self.wall_s.extend(more.wall_s);
        self.satisfied.extend(more.satisfied);
        self.work.extend(more.work);
        self.cpu_ms.extend(more.cpu_ms);
    }

    /// Satisfied queries over all laps.
    pub fn total_satisfied(&self) -> u64 {
        self.satisfied.iter().sum()
    }

    /// Wall seconds over all laps.
    pub fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Units of work per satisfied query over all laps (1 when laps count
    /// their queries as work).
    fn work_per_query(&self) -> f64 {
        self.work.iter().sum::<u64>() as f64 / self.total_satisfied().max(1) as f64
    }

    /// Satisfied queries per wall second at the pace of the fastest lap:
    /// the highest work rate of any lap, over the work a query takes.
    ///
    /// On a shared host a neighbour can only ever slow a lap down — by half
    /// for seconds at a time on the reference host. The fastest lap is the
    /// least disturbed one, and it repeats from run to run where the median
    /// lap does not.
    pub fn best_rate(&self) -> f64 {
        let pace = self
            .wall_s
            .iter()
            .zip(&self.work)
            .map(|(wall, work)| *work as f64 / wall.max(1e-9))
            .fold(0.0, f64::max);
        pace / self.work_per_query().max(f64::MIN_POSITIVE)
    }

    /// CPU milliseconds per satisfied query at the cost of the lap that
    /// spent least per unit of work.
    pub fn best_cpu_ms_per_query(&self) -> f64 {
        let cost = self
            .cpu_ms
            .iter()
            .zip(&self.work)
            .filter(|(_, work)| **work > 0)
            .map(|(cpu, work)| cpu / *work as f64)
            .fold(f64::INFINITY, f64::min);
        cost * self.work_per_query()
    }
}

/// Runs up to `laps` timed laps. `lap(i)` performs lap `i` and returns
/// the queries it satisfied; CPU time of `watched` is sampled around each.
pub fn timed_laps(
    cfg: &RunCfg,
    laps: usize,
    watched: &[Proc],
    mut lap: impl FnMut(usize) -> u64,
) -> LapStats {
    let cpu = |ps: &[Proc]| ps.iter().map(Proc::cpu_ms).sum::<f64>();
    let mut out = LapStats::default();
    let started = Instant::now();
    for i in 0..laps {
        let cpu0 = cpu(watched);
        let t = Instant::now();
        let satisfied = lap(i);
        out.wall_s.push(t.elapsed().as_secs_f64());
        out.cpu_ms.push(cpu(watched) - cpu0);
        out.satisfied.push(satisfied);
        out.work.push(satisfied);
        if started.elapsed().as_secs_f64() > OVERRUN_FACTOR * cfg.seconds as f64 {
            eprintln!(
                "bench: timed laps overran {OVERRUN_FACTOR}x --seconds; stopping after lap {}",
                i + 1
            );
            break;
        }
    }
    out
}

/// Fills the metrics every workload derives the same way from its laps:
/// `setup_s`, `queries_per_wall_s`, `cpu_ms_per_query`, `ok_share`.
pub fn put_common(out: &mut Outcome, setup_walls: &[f64], laps: &LapStats) {
    out.put(
        "setup_s",
        stats::median(setup_walls),
        setup_walls.len() as u64,
    );
    let n = laps.wall_s.len() as u64;
    out.put("queries_per_wall_s", laps.best_rate(), n);
    out.put("cpu_ms_per_query", laps.best_cpu_ms_per_query(), n);
    out.put(
        "ok_share",
        1.0 - out.tally.failed_share(),
        out.tally.attempted,
    );
    out.lap_wall_s = laps.wall_s.clone();
}

/// What every traced pass reports about itself: the traced laps' wall
/// times, `trace.overhead_share` (fastest traced lap against fastest
/// reference lap: what the spans and the observability plane cost), the
/// self time of every traced call, and the run's failed share.
pub fn put_traced(out: &mut Outcome, tracer: &Tracer, reference: &LapStats, traced: &LapStats) {
    out.lap_wall_s = traced.wall_s.clone();
    out.put_layer(
        "trace.overhead_share",
        1.0 - traced.best_rate() / reference.best_rate().max(1e-9),
    );
    put_span_shares(out, tracer, traced.total_wall_s());
    out.put_layer("harness.failed_share", out.tally.failed_share());
    out.put_layer("harness.lap_spread", out.lap_spread());
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Fills `query_p50_ms`, `query_p99_ms` and `query_mean_ms` from the latency
/// sample pooled over every timed lap (milliseconds), recording which
/// percentile the tail really is.
pub fn put_latency(out: &mut Outcome, lat_ms: &mut [f64]) {
    let Some((p50, tail)) = stats::p50_and_tail(lat_ms) else {
        return;
    };
    let n = lat_ms.len() as u64;
    out.put("query_p50_ms", p50, n);
    out.put("query_mean_ms", mean(lat_ms), n);
    put_tail(out, tail, n);
}

fn put_tail(out: &mut Outcome, tail: stats::Tail, samples: u64) {
    out.put("query_p99_ms", tail.value, samples);
    out.facts.push(("tail_percentile", tail.p.into()));
    out.facts.push(("tail_samples_beyond", tail.beyond.into()));
}

/// The latency metrics on the wall clock. `query_p50_ms` and
/// `query_mean_ms` are those of `pool`, a sample pooled over laps.
/// `query_p99_ms` is not: it is the tail of the least-disturbed lap — each
/// `per_lap` consecutive samples of `in_lap_order` give one lap's tail by
/// the ten-samples-beyond rule, and the lowest is reported, with that lap's
/// percentile and sample count. On the reference host no pooled p99 repeats
/// from run to run (bench/README.md has the figures), and a figure that
/// does not repeat cannot gate a change.
pub fn put_wall_latency(
    out: &mut Outcome,
    pool: &mut [f64],
    in_lap_order: &mut [f64],
    per_lap: usize,
) {
    let Some((p50, _)) = stats::p50_and_tail(pool) else {
        return;
    };
    out.put("query_p50_ms", p50, pool.len() as u64);
    out.put("query_mean_ms", mean(pool), pool.len() as u64);
    let quietest = in_lap_order
        .chunks_mut(per_lap.max(1))
        .filter_map(|lap| Some((stats::p50_and_tail(lap)?.1, lap.len())))
        .min_by(|a, b| a.0.value.total_cmp(&b.0.value));
    if let Some((tail, samples)) = quietest {
        put_tail(out, tail, samples as u64);
    }
}

/// `self.<name>_share` for every traced call: its summed self time as a
/// share of the traced lap's wall time.
fn put_span_shares(out: &mut Outcome, tracer: &Tracer, traced_wall_s: f64) {
    let totals = tracer.totals();
    out.put_layer("trace.spans", tracer.spans().len() as f64);
    for def in crate::metrics::PER_LAYER {
        let Some(name) = def
            .name
            .strip_prefix("self.")
            .and_then(|n| n.strip_suffix("_share"))
        else {
            continue;
        };
        if let Some(t) = totals.get(name) {
            out.put_layer(def.name, t.self_ns as f64 / 1e9 / traced_wall_s.max(1e-9));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_choose_the_number_of_laps() {
        let cfg = |seconds| RunCfg {
            seed: 1,
            seconds,
            trace: false,
        };
        assert_eq!(laps(&cfg(10)), 40);
        assert_eq!(laps(&cfg(1)), 4);
    }

    #[test]
    fn wall_metrics_come_from_the_least_disturbed_lap() {
        let laps = LapStats {
            wall_s: vec![2.0, 1.0, 4.0, 1.25, 3.0],
            satisfied: vec![100, 100, 100, 100, 100],
            work: vec![100, 100, 100, 100, 100],
            cpu_ms: vec![400.0, 180.0, 500.0, 200.0, 450.0],
        };
        assert_eq!(laps.best_rate(), 100.0);
        assert_eq!(laps.best_cpu_ms_per_query(), 1.8);
        assert_eq!(laps.total_satisfied(), 500);
        // Laps of different size are compared by their work: the second lap
        // is the fastest (3,000 units/s) although it answered fewest queries
        // per second; a query takes 5,000 / 100 = 50 units.
        let uneven = LapStats {
            wall_s: vec![2.0, 1.0],
            satisfied: vec![50, 50],
            work: vec![2_000, 3_000],
            cpu_ms: vec![1_000.0, 600.0],
        };
        assert_eq!(uneven.best_rate(), 3_000.0 / 50.0);
        assert_eq!(uneven.best_cpu_ms_per_query(), 0.2 * 50.0);
        let mut out = Outcome::new("sim_geo", "sim");
        out.tally.attempted = 500;
        put_common(&mut out, &[3.0, 1.0, 2.0], &laps);
        assert_eq!(
            out.e2e["setup_s"].value, 2.0,
            "set-up: median of the builds"
        );
        assert_eq!(out.e2e["queries_per_wall_s"].value, 100.0);
        assert_eq!(out.e2e["cpu_ms_per_query"].value, 1.8);
        assert_eq!(out.e2e["ok_share"].value, 1.0);
    }

    #[test]
    fn latency_is_pooled_over_laps() {
        // Three laps of four samples; the middle lap is disturbed, and the
        // pooled figures show it.
        let lat = [
            1.0, 2.0, 3.0, 4.0, //
            10.0, 20.0, 30.0, 40.0, //
            1.0, 2.0, 3.0, 6.0,
        ];
        let mut out = Outcome::new("sim_geo", "sim");
        put_latency(&mut out, &mut lat.clone());
        assert_eq!(out.e2e["query_p50_ms"].value, 3.5);
        assert_eq!(out.e2e["query_mean_ms"].value, 122.0 / 12.0);
        assert_eq!(out.e2e["query_p50_ms"].samples, 12);
        // On the wall clock the median and mean are still those of the pool
        // handed in (here: the first lap); only the tail is the quietest
        // lap's, and it says how many samples it stands on.
        let mut out = Outcome::new("tcp_pack", "wall");
        put_wall_latency(&mut out, &mut lat[..4].to_vec(), &mut lat.clone(), 4);
        assert_eq!(out.e2e["query_p50_ms"].value, 2.5);
        assert_eq!(out.e2e["query_mean_ms"].value, 2.5);
        assert_eq!(out.e2e["query_p99_ms"].value, 4.0, "lap maxima 4, 40, 6");
        assert_eq!(out.e2e["query_p99_ms"].samples, 4);
    }

    #[test]
    fn setup_is_repeated_and_the_last_product_kept() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 1,
            trace: false,
        };
        // Each product counts the products alive while it was built.
        let alive = std::rc::Rc::new(());
        let (kept, walls) = repeat_setup(&cfg, || {
            let token = std::rc::Rc::clone(&alive);
            (std::rc::Rc::strong_count(&alive), token)
        });
        assert_eq!(walls.len(), SETUP_REPS);
        assert_eq!(
            kept.0, 2,
            "the previous product was gone before this one was built"
        );
        let traced = RunCfg { trace: true, ..cfg };
        assert_eq!(repeat_setup(&traced, || ()).1.len(), 1);
    }
}
