//! Differential fuzzing: the bytecode VM and the tree-walking oracle must
//! agree on return values, on mutated global state, on runtime errors
//! (message included), and on budget exhaustion.
//!
//! The generator produces structured programs rather than token soup so
//! every case parses and exercises the interesting paths: slot-resolved
//! locals, cell-captured closures, loops with hidden registers, generic
//! `pairs` iteration, table stores, and deliberate runtime errors.
//!
//! Two engine divergences are intentional and documented in DESIGN.md §10,
//! and the generator avoids them by construction:
//!
//! 1. Budget accounting differs (per opcode vs per AST node), so programs
//!    either do bounded work far below the budget or spin forever — never
//!    straddle the limit.
//! 2. The compiler scopes lexically, so closures only reference variables
//!    declared before them textually (the pool locals at the top of
//!    `main`, loop variables, or their own parameter).

use aascript::{display_value, oracle, AaInstance, RuntimeError, Script, SharedSandbox, Value};
use proptest::prelude::*;

/// Locals declared at the top of `main` (or globals in top-level programs).
const POOL: [&str; 4] = ["va", "vb", "vc", "vd"];

const BUDGET: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Program model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Num(i32),
    Str(u8),
    /// A pool variable (may hold a number, string, bool, or function).
    Var(usize),
    /// The innermost numeric-for variable, or `va` outside any loop.
    LoopVar,
    /// A global `g0`/`g1` (nil until first assigned).
    Global(u8),
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Cmp(&'static str, Box<Expr>, Box<Expr>),
    Logic(&'static str, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Concat(Box<Expr>, Box<Expr>),
    /// `T[k]` on the global scratch table.
    Index(u8),
    /// `va(k)` — calls whatever the pool var holds (often a type error).
    Call(usize, i32),
}

#[derive(Debug, Clone)]
enum Stmt {
    Assign(usize, Expr),
    GlobalSet(u8, Expr),
    TableSet(u8, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    For(u8, Vec<Stmt>),
    While(u8, Vec<Stmt>),
    Repeat(u8, Vec<Stmt>),
    /// `if e then break end` — also exercises stray-break semantics when it
    /// appears outside any loop.
    BreakIf(Expr),
    /// Store an escaping closure capturing pool vars: `va = function(p0) …`.
    StoreFn(usize, Expr),
    /// Define-and-call a throwaway closure: `va = (function(p1) … end)(e)`.
    CallNow(usize, Expr, Expr),
    /// A statement that raises a runtime error (possibly pcall-contained).
    Raise(u8),
    /// Fold the scratch table through `pairs` into `g0` (iteration order).
    SumPairs,
}

// ---------------------------------------------------------------------------
// Rendering to source
// ---------------------------------------------------------------------------

/// Renders an expression. `lvl` is the numeric-for nesting depth (names the
/// loop variable); `in_stored_fn` restricts the expression to references
/// that are safe inside an escaping closure: the parameter instead of loop
/// variables (which are out of scope) and no calls (a stored function
/// calling a pool var could recurse through itself, and the engines may
/// interleave StackOverflow/BudgetExhausted differently near the limits).
fn rexpr(e: &Expr, lvl: u32, in_stored_fn: bool) -> String {
    match e {
        Expr::Num(n) => format!("({n})"),
        Expr::Str(n) => format!("\"s{n}\""),
        Expr::Var(i) => POOL[*i].to_string(),
        Expr::LoopVar => {
            if in_stored_fn {
                "p0".to_string()
            } else if lvl > 0 {
                format!("i{}", lvl - 1)
            } else {
                "va".to_string()
            }
        }
        Expr::Global(g) => format!("g{}", g % 2),
        Expr::Bin(op, a, b) => format!(
            "({} {op} {})",
            rexpr(a, lvl, in_stored_fn),
            rexpr(b, lvl, in_stored_fn)
        ),
        Expr::Cmp(op, a, b) => format!(
            "({} {op} {})",
            rexpr(a, lvl, in_stored_fn),
            rexpr(b, lvl, in_stored_fn)
        ),
        Expr::Logic(op, a, b) => format!(
            "({} {op} {})",
            rexpr(a, lvl, in_stored_fn),
            rexpr(b, lvl, in_stored_fn)
        ),
        Expr::Neg(a) => format!("(-{})", rexpr(a, lvl, in_stored_fn)),
        Expr::Not(a) => format!("(not {})", rexpr(a, lvl, in_stored_fn)),
        Expr::Concat(a, b) => format!(
            "({} .. {})",
            rexpr(a, lvl, in_stored_fn),
            rexpr(b, lvl, in_stored_fn)
        ),
        Expr::Index(k) => format!("T[{}]", k % 8),
        Expr::Call(i, k) => {
            if in_stored_fn {
                format!("({k})")
            } else {
                format!("{}({k})", POOL[*i])
            }
        }
    }
}

fn rstmt(s: &Stmt, lvl: u32, out: &mut String) {
    match s {
        Stmt::Assign(i, e) => {
            out.push_str(&format!("{} = {}\n", POOL[*i], rexpr(e, lvl, false)));
        }
        Stmt::GlobalSet(g, e) => {
            out.push_str(&format!("g{} = {}\n", g % 2, rexpr(e, lvl, false)));
        }
        Stmt::TableSet(k, e) => {
            out.push_str(&format!("T[{}] = {}\n", k % 8, rexpr(e, lvl, false)));
        }
        Stmt::If(c, t, f) => {
            out.push_str(&format!("if {} then\n", rexpr(c, lvl, false)));
            for s in t {
                rstmt(s, lvl, out);
            }
            if !f.is_empty() {
                out.push_str("else\n");
                for s in f {
                    rstmt(s, lvl, out);
                }
            }
            out.push_str("end\n");
        }
        Stmt::For(n, b) => {
            out.push_str(&format!("for i{lvl} = 1, {} do\n", n % 6 + 1));
            for s in b {
                rstmt(s, lvl + 1, out);
            }
            out.push_str("end\n");
        }
        Stmt::While(n, b) => {
            out.push_str(&format!(
                "local w{lvl} = 0\nwhile w{lvl} < {} do\nw{lvl} = w{lvl} + 1\n",
                n % 5 + 1
            ));
            for s in b {
                rstmt(s, lvl + 1, out);
            }
            out.push_str("end\n");
        }
        Stmt::Repeat(n, b) => {
            out.push_str(&format!("local r{lvl} = 0\nrepeat\nr{lvl} = r{lvl} + 1\n"));
            for s in b {
                rstmt(s, lvl + 1, out);
            }
            out.push_str(&format!("until r{lvl} >= {}\n", n % 4 + 1));
        }
        Stmt::BreakIf(e) => {
            out.push_str(&format!("if {} then break end\n", rexpr(e, lvl, false)));
        }
        Stmt::StoreFn(i, e) => {
            out.push_str(&format!(
                "{} = function(p0) return p0 * 2 + {} end\n",
                POOL[*i],
                rexpr(e, 0, true)
            ));
        }
        Stmt::CallNow(i, a, b) => {
            out.push_str(&format!(
                "{} = (function(p1) return p1 - {} end)({})\n",
                POOL[*i],
                rexpr(a, lvl, false),
                rexpr(b, lvl, false)
            ));
        }
        Stmt::Raise(k) => out.push_str(match k % 4 {
            0 => "va = g9.x\n",
            1 => "vb = g9(1)\n",
            2 => "error(\"boom\")\n",
            _ => "local e0 = pcall(function() return g9.y end)\nvc = e0.ok\n",
        }),
        Stmt::SumPairs => out.push_str(
            "for k0, u0 in pairs(T) do g0 = tostring(g0) .. tostring(k0) .. tostring(u0) end\n",
        ),
    }
}

/// A full script: globals, then `main` declaring the pool locals, running
/// the generated statements, and returning a digest of the pool state.
fn program(stmts: &[Stmt]) -> String {
    let mut src = String::from("T = {}\nfunction main()\n");
    for (i, name) in POOL.iter().enumerate() {
        src.push_str(&format!("local {name} = {}\n", i + 1));
    }
    for s in stmts {
        rstmt(s, 0, &mut src);
    }
    src.push_str(
        "return tostring(va) .. \"|\" .. tostring(vb) .. \"|\" .. tostring(vc) \
         .. \"|\" .. tostring(vd)\nend\n",
    );
    src
}

// ---------------------------------------------------------------------------
// Running both engines
// ---------------------------------------------------------------------------

type Outcome = (Result<String, RuntimeError>, Vec<String>);

/// The two evaluators under comparison: the VM every host runs, and the
/// tree-walking reference it must agree with.
#[derive(Debug, Clone, Copy)]
enum Evaluator {
    Vm,
    Oracle,
}

/// A script instantiated on one of them.
enum Instance {
    Vm(AaInstance),
    Oracle(oracle::Instance),
}

impl Evaluator {
    fn instantiate(self, src: &str, budget: u64) -> Result<Instance, RuntimeError> {
        let sandbox = SharedSandbox::new();
        let script = Script::compile(src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        match self {
            Evaluator::Vm => script.instantiate(&sandbox, budget).map(Instance::Vm),
            Evaluator::Oracle => {
                oracle::instantiate(&script, &sandbox, budget).map(Instance::Oracle)
            }
        }
    }
}

impl Instance {
    fn invoke(&self, name: &str, budget: u64) -> Result<Value, RuntimeError> {
        match self {
            Instance::Vm(aa) => aa.invoke(name, &[], budget),
            Instance::Oracle(aa) => aa.invoke(name, &[], budget),
        }
    }

    fn global(&self, name: &str) -> Value {
        match self {
            Instance::Vm(aa) => aa.global(name),
            Instance::Oracle(aa) => aa.global(name),
        }
    }
}

/// Instantiates `src` on the given engine, invokes `main`, and snapshots
/// the observable global state.
fn run_engine(src: &str, engine: Evaluator, budget: u64) -> Outcome {
    let aa = engine
        .instantiate(src, budget)
        .unwrap_or_else(|e| panic!("trivial top level must run: {e:?}\n{src}"));
    let result = aa.invoke("main", budget).map(|v| display_value(&v));
    let state = ["g0", "g1", "T"]
        .iter()
        .map(|n| display_value(&aa.global(n)))
        .collect();
    (result, state)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

fn expr() -> BoxedStrategy<Expr> {
    let bin_op = prop_oneof![
        Just("+"),
        Just("-"),
        Just("*"),
        Just("/"),
        Just("%"),
        Just("^"),
    ]
    .boxed();
    let cmp_op = prop_oneof![
        Just("=="),
        Just("~="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
    ]
    .boxed();
    let logic_op = prop_oneof![Just("and"), Just("or")].boxed();
    let leaf = prop_oneof![
        (-99i32..100).prop_map(Expr::Num),
        (0u8..4).prop_map(Expr::Str),
        (0usize..4).prop_map(Expr::Var),
        Just(Expr::LoopVar),
        (0u8..2).prop_map(Expr::Global),
        (0u8..8).prop_map(Expr::Index),
    ];
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            (bin_op.clone(), inner.clone(), inner.clone()).prop_map(|(o, a, b)| Expr::Bin(
                o,
                Box::new(a),
                Box::new(b)
            )),
            (cmp_op.clone(), inner.clone(), inner.clone()).prop_map(|(o, a, b)| Expr::Cmp(
                o,
                Box::new(a),
                Box::new(b)
            )),
            (logic_op.clone(), inner.clone(), inner.clone()).prop_map(|(o, a, b)| Expr::Logic(
                o,
                Box::new(a),
                Box::new(b)
            )),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Concat(Box::new(a), Box::new(b))),
            (0usize..4, -9i32..10).prop_map(|(i, k)| Expr::Call(i, k)),
        ]
    })
}

fn stmt() -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        (0usize..4, expr()).prop_map(|(i, e)| Stmt::Assign(i, e)),
        (0usize..4, expr()).prop_map(|(i, e)| Stmt::Assign(i, e)),
        (0u8..2, expr()).prop_map(|(g, e)| Stmt::GlobalSet(g, e)),
        (0u8..8, expr()).prop_map(|(k, e)| Stmt::TableSet(k, e)),
        (0usize..4, expr()).prop_map(|(i, e)| Stmt::StoreFn(i, e)),
        (0usize..4, expr(), expr()).prop_map(|(i, a, b)| Stmt::CallNow(i, a, b)),
        (0u8..4).prop_map(Stmt::Raise),
        expr().prop_map(Stmt::BreakIf),
        Just(Stmt::SumPairs),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        let body = proptest::collection::vec(inner.clone(), 0..4).boxed();
        prop_oneof![
            (
                expr(),
                body.clone(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, f)| Stmt::If(c, t, f)),
            (0u8..6, body.clone()).prop_map(|(n, b)| Stmt::For(n, b)),
            (0u8..5, body.clone()).prop_map(|(n, b)| Stmt::While(n, b)),
            (0u8..4, body).prop_map(|(n, b)| Stmt::Repeat(n, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The headline property: handler invocation is observationally
    /// identical across engines — return value, error (message and all),
    /// and every observable global afterwards.
    #[test]
    fn vm_matches_treewalker_on_handlers(stmts in proptest::collection::vec(stmt(), 0..8)) {
        let src = program(&stmts);
        let vm = run_engine(&src, Evaluator::Vm, BUDGET);
        let tw = run_engine(&src, Evaluator::Oracle, BUDGET);
        prop_assert!(
            vm == tw,
            "engines diverged on:\n{}\n  vm: {:?}\n  tw: {:?}",
            src, vm, tw
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Same property for top-level (instantiate-time) execution, where the
    /// VM lowers top-level locals to instance globals.
    #[test]
    fn vm_matches_treewalker_at_top_level(stmts in proptest::collection::vec(stmt(), 0..6)) {
        let mut src = String::from("T = {}\ng0 = 0\ng1 = 0\n");
        for (i, name) in POOL.iter().enumerate() {
            src.push_str(&format!("local {name} = {}\n", i + 1));
        }
        for s in &stmts {
            rstmt(s, 0, &mut src);
        }
        let run = |engine: Evaluator| -> Result<Vec<String>, RuntimeError> {
            let aa = engine.instantiate(&src, BUDGET)?;
            Ok(["va", "vb", "vc", "vd", "g0", "g1", "T"]
                .iter()
                .map(|n| display_value(&aa.global(n)))
                .collect())
        };
        let vm = run(Evaluator::Vm);
        let tw = run(Evaluator::Oracle);
        prop_assert!(
            vm == tw,
            "engines diverged on:\n{}\n  vm: {:?}\n  tw: {:?}",
            src, vm, tw
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Programs ending in an infinite loop reach the same outcome on both
    /// engines: either an identical error raised by the preamble, or
    /// `BudgetExhausted` from the spin (never a successful return, unless
    /// a stray `break` in the preamble legitimately ends `main` early —
    /// in which case both engines must agree on that too).
    #[test]
    fn budget_exhaustion_matches(
        pre in proptest::collection::vec(stmt(), 0..4),
        which in 0u8..3,
    ) {
        // The busy variant mutates a *local*: per-opcode and per-AST-node
        // budgets run out after different iteration counts (the documented
        // accounting divergence), so observable globals must not record
        // how far the spin got.
        let spin = match which {
            0 => "while true do end\n",
            1 => "repeat until false\n",
            _ => "local s9 = 0\nwhile true do s9 = s9 + 1 end\n",
        };
        let mut body = pre.clone();
        let mut src = String::from("T = {}\nfunction main()\n");
        for (i, name) in POOL.iter().enumerate() {
            src.push_str(&format!("local {name} = {}\n", i + 1));
        }
        for s in &mut body {
            rstmt(s, 0, &mut src);
        }
        src.push_str(spin);
        src.push_str("end\n");
        let vm = run_engine(&src, Evaluator::Vm, 60_000);
        let tw = run_engine(&src, Evaluator::Oracle, 60_000);
        prop_assert!(
            vm == tw,
            "engines diverged on:\n{}\n  vm: {:?}\n  tw: {:?}",
            src, vm, tw
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic differential cases for the sandbox limits
// ---------------------------------------------------------------------------

#[test]
fn both_engines_exhaust_budget_on_spin() {
    let src = "function main() while true do end end";
    for engine in [Evaluator::Vm, Evaluator::Oracle] {
        let (result, _) = run_engine(src, engine, 10_000);
        assert_eq!(result, Err(RuntimeError::BudgetExhausted), "{engine:?}");
    }
}

#[test]
fn both_engines_overflow_on_deep_recursion() {
    // Both engines share the 120-frame call-depth limit; with a budget far
    // above what 120 calls can burn, both must report StackOverflow.
    let src = "function f() return f() end\nfunction main() return f() end";
    for engine in [Evaluator::Vm, Evaluator::Oracle] {
        let (result, _) = run_engine(src, engine, 10_000_000);
        assert_eq!(result, Err(RuntimeError::StackOverflow), "{engine:?}");
    }
}

#[test]
fn pcall_cannot_contain_budget_exhaustion_on_either_engine() {
    let src = r#"
        function spin() while true do end end
        function main()
            local r = pcall(spin)
            return "survived"
        end
    "#;
    for engine in [Evaluator::Vm, Evaluator::Oracle] {
        let (result, _) = run_engine(src, engine, 10_000);
        assert_eq!(result, Err(RuntimeError::BudgetExhausted), "{engine:?}");
    }
}
