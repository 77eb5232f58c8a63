#![allow(clippy::needless_range_loop)] // index used for both reads and address math

//! Table II: average round-trip latency between Amazon sites.
//!
//! Measures RTTs over the simulated topology with ping/pong actors and
//! prints the measured matrix next to the paper's input values. Because
//! the topology's means come from Table II itself, agreement validates the
//! latency model (mean ≈ RTT plus the jitter tail).

use rbay_bench::HarnessOpts;
use simnet::topology::AWS8_SITE_NAMES;
use simnet::{
    Actor, Context, MessageSize, NodeAddr, SimTime, Simulation, SiteId, Topology, Transport,
};

#[derive(Debug)]
enum Msg {
    Ping { seq: u32 },
    Pong { seq: u32 },
}
impl MessageSize for Msg {}

#[derive(Default)]
struct Pinger {
    // (destination, seq) -> send time, and collected RTT samples per site.
    outstanding: std::collections::HashMap<u32, (NodeAddr, SimTime)>,
    rtts: Vec<(SiteId, f64)>,
    next_seq: u32,
}

impl Actor for Pinger {
    type Msg = Msg;
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeAddr, msg: Msg) {
        match msg {
            Msg::Ping { seq } => ctx.send(from, Msg::Pong { seq }),
            Msg::Pong { seq } => {
                if let Some((dest, sent)) = self.outstanding.remove(&seq) {
                    let site = ctx.topology().site_of(dest);
                    self.rtts
                        .push((site, ctx.now().saturating_since(sent).as_millis_f64()));
                }
            }
        }
    }
}

pub fn run(opts: &HarnessOpts) {
    let pings = opts.scaled(50, 5);
    let mut sim = Simulation::new(Topology::aws_ec2_8_sites(2), opts.seed, |_| {
        Pinger::default()
    });

    // Node 2*s is site s's prober; it pings one node in every site
    // (including its own) `pings` times.
    for s in 0..8u32 {
        let src = NodeAddr(2 * s);
        for d in 0..8u32 {
            let dst = NodeAddr(2 * d + 1);
            for _ in 0..pings {
                sim.schedule_call(SimTime::ZERO, src, move |a, ctx| {
                    let seq = a.next_seq;
                    a.next_seq += 1;
                    a.outstanding.insert(seq, (dst, ctx.now()));
                    ctx.send(dst, Msg::Ping { seq });
                });
            }
        }
    }
    sim.run_until_idle();

    // Average the measured RTTs per (source site, dest site).
    let mut sums = vec![vec![(0.0f64, 0u32); 8]; 8];
    for s in 0..8u32 {
        let a = sim.actor(NodeAddr(2 * s));
        for (site, rtt) in &a.rtts {
            let cell = &mut sums[s as usize][site.0 as usize];
            cell.0 += rtt;
            cell.1 += 1;
        }
    }

    println!("Table II: average round-trip latency between Amazon sites (ms)");
    println!("measured over the simulated topology (upper: measured, lower: paper)\n");
    print!("{:<12}", "");
    for name in AWS8_SITE_NAMES {
        print!("{name:>12}");
    }
    println!();
    let paper = simnet::topology::table2_rtt_matrix();
    for (i, name) in AWS8_SITE_NAMES.iter().enumerate() {
        print!("{name:<12}");
        for j in 0..8 {
            if j < i {
                print!("{:>12}", "");
                continue;
            }
            let (sum, n) = sums[i][j];
            print!("{:>12.3}", sum / n as f64);
        }
        println!();
        print!("{:<12}", "  (paper)");
        for j in 0..8 {
            if j < i {
                print!("{:>12}", "");
                continue;
            }
            print!("{:>12.3}", paper[i][j]);
        }
        println!();
    }
}
