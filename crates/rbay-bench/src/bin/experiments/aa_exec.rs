//! AA execution engine A/B: ns/invocation of representative handlers on
//! the bytecode VM vs the tree-walking oracle.
//!
//! The paper's extensibility claim (§III.B) prices every query by the
//! active-attribute handlers it triggers, so per-invocation overhead is
//! the unit cost behind Fig. 8b/8c. This harness times the Fig. 5
//! password handler (branch + table reads) and a loop-heavy aggregation
//! handler on both engines and reports the speedup; `--json` prints one
//! record per handler and engine.

use aascript::{oracle, RuntimeError, Script, SharedSandbox, Value};
use rbay_bench::{emit_json, HarnessOpts, JsonRecord};
use std::hint::black_box;
use std::time::Instant;

struct Case {
    name: &'static str,
    src: &'static str,
    handler: &'static str,
    args: Vec<Value>,
    budget: u64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "onget_password_check",
            src: r#"
                AA = {NodeId = 27, Password = "3053482032"}
                function onGet(caller, password)
                    if password == AA.Password then
                        return AA.NodeId
                    end
                    return nil
                end
            "#,
            handler: "onGet",
            args: vec![Value::str("joe"), Value::str("3053482032")],
            budget: 10_000,
        },
        Case {
            name: "ontimer_sum_loop_200",
            src: r#"
                function onTimer(n)
                    local s = 0
                    for i = 1, n do
                        s = s + i % 7
                    end
                    return s
                end
            "#,
            handler: "onTimer",
            args: vec![Value::Num(200.0)],
            budget: 1_000_000,
        },
    ]
}

/// Times `iters` calls of `invoke` (after a warm-up) and returns mean
/// ns/invocation.
fn time_invoke(iters: u32, invoke: impl Fn() -> Result<Value, RuntimeError>) -> f64 {
    // Warm-up: touch every path once so lazy setup is off the clock.
    for _ in 0..1_000 {
        black_box(invoke().expect("runs"));
    }
    let started = Instant::now();
    for _ in 0..iters {
        black_box(invoke().expect("runs"));
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean ns/invocation of `case` on the tree-walking oracle and on the VM.
fn time_case(case: &Case, iters: u32) -> (f64, f64) {
    let sandbox = SharedSandbox::new();
    let script = Script::compile(case.src).expect("handler compiles");
    let walker = oracle::instantiate(&script, &sandbox, case.budget).expect("instantiates");
    let tw = time_invoke(iters, || {
        walker.invoke(case.handler, &case.args, case.budget)
    });
    let aa = script
        .instantiate(&sandbox, case.budget)
        .expect("instantiates");
    let vm = time_invoke(iters, || aa.invoke(case.handler, &case.args, case.budget));
    (tw, vm)
}

pub fn run(opts: &HarnessOpts) {
    let iters = opts.scaled(200_000, 1_000) as u32;

    println!(
        "AA handler execution: bytecode VM vs tree-walking oracle ({iters} invocations/cell)\n"
    );
    println!(
        "{:>24} {:>16} {:>16} {:>9}",
        "handler", "treewalk ns/inv", "vm ns/inv", "speedup"
    );
    for case in cases() {
        let (tw, vm) = time_case(&case, iters);
        let speedup = tw / vm;
        println!("{:>24} {tw:>16.1} {vm:>16.1} {speedup:>8.2}x", case.name);
        for (engine, ns) in [("treewalk", tw), ("vm", vm)] {
            emit_json(
                opts,
                &JsonRecord::new("aa_exec")
                    .text("handler", case.name)
                    .text("engine", engine)
                    .int("iters", iters as u64)
                    .num("ns_per_invoke", ns)
                    .num("speedup_vs_treewalk", tw / ns),
            );
        }
    }
}
