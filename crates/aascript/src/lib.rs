//! # aascript — the sandboxed active-attribute scripting runtime
//!
//! RBAY attaches to each resource attribute a handler written by the site
//! admin and invoked at runtime (paper §III). The paper used a modified Lua
//! interpreter; this crate is a from-scratch implementation of the same
//! idea: a small Lua-style language whose only data structure is the table,
//! executed under two sandbox restrictions:
//!
//! 1. **Instruction budget** — every evaluation step decrements a counter;
//!    exhaustion terminates the handler immediately.
//! 2. **No dangerous libraries** — only `math`, `string`, and `table`
//!    manipulation plus `tostring`/`tonumber`/`type` exist; there is no
//!    `io`, `os`, `require`, or `load`.
//!
//! ## Example: the paper's Fig. 5 password handler
//!
//! ```
//! use aascript::{Script, SharedSandbox, Value};
//!
//! let src = r#"
//!     AA = {NodeId = 27,
//!           IP = "131.94.130.118",
//!           Password = "3053482032"}
//!     function onGet(caller, password)
//!         if (password == AA.Password) then
//!             return AA.NodeId
//!         end
//!         return nil
//!     end
//! "#;
//! let sandbox = SharedSandbox::new();
//! let script = Script::compile(src)?;
//! let aa = script.instantiate(&sandbox, 10_000)?;
//! let ok = aa.invoke("onGet", &[Value::str("joe"), Value::str("3053482032")], 10_000)?;
//! assert_eq!(ok.as_num().unwrap(), 27.0);
//! let denied = aa.invoke("onGet", &[Value::str("joe"), Value::str("wrong")], 10_000)?;
//! assert!(!denied.truthy());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod ast;
pub mod compile;
mod error;
mod interp;
mod lexer;
mod parser;
mod stdlib;
mod value;
pub mod vm;

pub use error::{CompileError, Pos, RuntimeError};
pub use value::{display_value, BcClosure, Key, NativeFn, Table, Value};

use interp::{child_env, lookup, scope_size_bytes, sealed_env_from, Env};
use std::rc::Rc;
use vm::Vm;

/// The standard handler names of the active-attribute API (paper Table I).
pub const HANDLER_NAMES: [&str; 5] = [
    "onGet",
    "onSubscribe",
    "onUnsubscribe",
    "onDeliver",
    "onTimer",
];

/// A stdlib environment shared between many AA instances.
///
/// Sharing is safe: the environment is sealed, so script assignments shadow
/// rather than mutate it. One `SharedSandbox` per node keeps per-AA memory
/// proportional to the AA itself, which is what the paper's Fig. 8c
/// measures.
#[derive(Clone)]
pub struct SharedSandbox {
    env: Env,
}

impl SharedSandbox {
    /// Builds the sealed stdlib environment.
    pub fn new() -> Self {
        SharedSandbox {
            env: sealed_env_from(stdlib::sandbox_globals()),
        }
    }
}

impl Default for SharedSandbox {
    fn default() -> Self {
        SharedSandbox::new()
    }
}

impl std::fmt::Debug for SharedSandbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSandbox")
    }
}

/// A compiled AAScript program (parsed once, instantiable many times).
///
/// Holds the lowered bytecode [`compile::Chunk`] that
/// [`Script::instantiate`] runs, and the AST it was lowered from (for the
/// static analyzer and the reference evaluator the tests compare against).
#[derive(Debug, Clone)]
pub struct Script {
    block: Rc<ast::Block>,
    chunk: Rc<compile::Chunk>,
}

impl Script {
    /// Parses and lowers `src` into a reusable compiled script.
    ///
    /// # Errors
    ///
    /// Returns the first lexical or syntactic error.
    pub fn compile(src: &str) -> Result<Script, CompileError> {
        let block = Rc::new(parser::parse(src)?);
        let chunk = Rc::new(compile::compile(&block)?);
        Ok(Script { block, chunk })
    }

    /// Runs the static analyzer over the compiled script and returns its
    /// findings (empty = lint-clean). This is the install-time gate hosts
    /// enforce their `LintPolicy` over; see [`analysis`] for the lint
    /// catalog.
    pub fn analyze(&self, opts: &analysis::LintOptions) -> Vec<analysis::Diagnostic> {
        analysis::analyze(&self.block, &self.chunk, opts)
    }

    /// Runs the script top-to-bottom in a fresh instance environment,
    /// producing an [`AaInstance`] whose globals (the `AA` table, handler
    /// functions) persist across handler invocations.
    ///
    /// # Errors
    ///
    /// Any runtime error raised by top-level code, including budget
    /// exhaustion.
    pub fn instantiate(
        &self,
        sandbox: &SharedSandbox,
        budget: u64,
    ) -> Result<AaInstance, RuntimeError> {
        let globals = child_env(&sandbox.env);
        Vm::new(budget, globals.clone()).exec_main(&self.chunk)?;
        Ok(AaInstance { globals })
    }
}

/// A live active attribute: the persistent state left behind by running its
/// script (the `AA` table plus handler functions), ready for event
/// dispatch.
#[derive(Debug)]
pub struct AaInstance {
    globals: Env,
}

/// The lookup behind [`AaInstance::handler`], shared with the reference
/// evaluator's instances.
fn find_handler(globals: &Env, name: &str) -> Option<Value> {
    let is_fn = |v: &Value| matches!(v, Value::Func(_) | Value::Compiled(_) | Value::Native(..));
    let direct = lookup(globals, name);
    if is_fn(&direct) {
        return Some(direct);
    }
    if let Value::Table(aa) = lookup(globals, "AA") {
        let v = aa.borrow().get(&Key::Str(name.into()));
        if is_fn(&v) {
            return Some(v);
        }
    }
    None
}

impl AaInstance {
    /// Looks up a handler: a global function named `name`, or a
    /// same-named function inside the global `AA` table (the paper allows
    /// both styles).
    pub fn handler(&self, name: &str) -> Option<Value> {
        find_handler(&self.globals, name)
    }

    /// Whether the instance defines `name` as a handler.
    pub fn has_handler(&self, name: &str) -> bool {
        self.handler(name).is_some()
    }

    /// Invokes a handler with a fresh instruction budget.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Undefined`] if no such handler exists, or any error
    /// the handler raises (including budget exhaustion).
    pub fn invoke(&self, name: &str, args: &[Value], budget: u64) -> Result<Value, RuntimeError> {
        let f = self
            .handler(name)
            .ok_or_else(|| RuntimeError::Undefined(format!("handler `{name}`")))?;
        Vm::new(budget, self.globals.clone()).call(&f, args)
    }

    /// Reads a global of the instance (e.g. the `AA` table).
    pub fn global(&self, name: &str) -> Value {
        lookup(&self.globals, name)
    }

    /// Sets a global of the instance (used by the runtime to expose the
    /// key-value map to handlers).
    pub fn set_global(&self, name: &str, value: Value) {
        interp::declare(&self.globals, name, value);
    }

    /// Approximate memory footprint of this instance: its own globals
    /// (the AA table, handler closures) plus fixed bookkeeping. The
    /// compiled script and the sealed sandbox are shared across instances
    /// and are not charged. This is the quantity compared against the
    /// PAST baseline in Fig. 8c.
    pub fn size_bytes(&self) -> usize {
        // The handle and its globals scope's allocation, as one constant
        // rather than `size_of::<Self>()`: Fig. 8c must not move when a
        // field of this struct does.
        const FIXED_BOOKKEEPING: usize = 72;
        FIXED_BOOKKEEPING + scope_size_bytes(&self.globals)
    }
}

/// Compiles and instantiates in one step — convenience for tests and
/// examples.
///
/// # Errors
///
/// Compile errors are boxed together with runtime errors.
pub fn eval_script(src: &str, budget: u64) -> Result<AaInstance, Box<dyn std::error::Error>> {
    let sandbox = SharedSandbox::new();
    let script = Script::compile(src)?;
    Ok(script.instantiate(&sandbox, budget)?)
}

/// The tree-walking reference evaluator, for the differential tests and the
/// `aa_exec` experiment only: it runs a [`Script`]'s AST directly, charging
/// the budget per visited node, and must agree with the VM on everything a
/// handler can observe (DESIGN.md §10 lists the three documented
/// divergences).
#[doc(hidden)]
pub mod oracle {
    use super::{find_handler, RuntimeError, Script, SharedSandbox, Value};
    use crate::interp::{child_env, lookup, Env, Interp};

    /// A script instantiated on the reference evaluator. Deliberately not an
    /// [`AaInstance`](super::AaInstance): its closures are the walker's, which
    /// the VM cannot call.
    #[derive(Debug)]
    pub struct Instance {
        pub(crate) globals: Env,
    }

    /// [`Script::instantiate`] on the reference evaluator.
    ///
    /// # Errors
    ///
    /// Any runtime error raised by top-level code, including budget
    /// exhaustion.
    pub fn instantiate(
        script: &Script,
        sandbox: &SharedSandbox,
        budget: u64,
    ) -> Result<Instance, RuntimeError> {
        let globals = child_env(&sandbox.env);
        Interp::new(budget, globals.clone()).exec_chunk(&script.block, &globals)?;
        Ok(Instance { globals })
    }

    impl Instance {
        /// [`AaInstance::invoke`](super::AaInstance::invoke) on the reference
        /// evaluator.
        ///
        /// # Errors
        ///
        /// [`RuntimeError::Undefined`] if no such handler exists, or any
        /// error the handler raises (including budget exhaustion).
        pub fn invoke(
            &self,
            name: &str,
            args: &[Value],
            budget: u64,
        ) -> Result<Value, RuntimeError> {
            let f = find_handler(&self.globals, name)
                .ok_or_else(|| RuntimeError::Undefined(format!("handler `{name}`")))?;
            Interp::new(budget, self.globals.clone()).call(&f, args)
        }

        /// Reads a global of the instance.
        pub fn global(&self, name: &str) -> Value {
            lookup(&self.globals, name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(src: &str) -> f64 {
        let aa = eval_script(&format!("function main() {src} end"), 100_000).unwrap();
        aa.invoke("main", &[], 100_000).unwrap().as_num().unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(num("return 2 + 3 * 4"), 14.0);
        assert_eq!(num("return (2 + 3) * 4"), 20.0);
        assert_eq!(num("return 2 ^ 3 ^ 2"), 512.0, "right associative");
        assert_eq!(num("return -2 ^ 2"), -4.0, "pow binds tighter than unary");
        assert_eq!(num("return 7 % 3"), 1.0);
        assert_eq!(num("return -7 % 3"), 2.0, "Lua modulo semantics");
        assert_eq!(num("return 10 / 4"), 2.5);
    }

    #[test]
    fn control_flow() {
        assert_eq!(num("if 1 < 2 then return 1 else return 2 end"), 1.0);
        assert_eq!(
            num(
                "local x = 0\nif x > 0 then return 1 elseif x == 0 then return 2 else return 3 end"
            ),
            2.0
        );
        assert_eq!(
            num("local s = 0\nfor i = 1, 10 do s = s + i end\nreturn s"),
            55.0
        );
        assert_eq!(
            num("local s = 0\nfor i = 10, 1, -2 do s = s + i end\nreturn s"),
            30.0
        );
        assert_eq!(
            num("local s = 0\nlocal i = 0\nwhile i < 5 do i = i + 1\ns = s + i end\nreturn s"),
            15.0
        );
        assert_eq!(
            num("local i = 0\nrepeat i = i + 1 until i >= 3\nreturn i"),
            3.0
        );
        assert_eq!(
            num("local s = 0\nfor i = 1, 100 do if i > 3 then break end\ns = s + i end\nreturn s"),
            6.0
        );
    }

    #[test]
    fn closures_capture_environment() {
        let src = r#"
            function counter()
                local n = 0
                return function()
                    n = n + 1
                    return n
                end
            end
            function main()
                local c = counter()
                local a = c()
                local b = c()
                return a * 10 + b
            end
        "#;
        let aa = eval_script(src, 100_000).unwrap();
        assert_eq!(
            aa.invoke("main", &[], 100_000).unwrap().as_num().unwrap(),
            12.0,
            "closure state persists between calls"
        );
    }

    #[test]
    fn tables_and_generic_for() {
        assert_eq!(
            num(r#"local t = {a = 1, b = 2, c = 3}
                   local s = 0
                   for k, v in pairs(t) do s = s + v end
                   return s"#),
            6.0
        );
        assert_eq!(
            num(r#"local t = {10, 20, 30}
                   local s = 0
                   for i, v in ipairs(t) do s = s + i * v end
                   return s"#),
            140.0
        );
        assert_eq!(num("local t = {}\nt.x = {y = 5}\nreturn t.x.y"), 5.0);
        assert_eq!(num("local t = {[3] = 9}\nreturn t[3]"), 9.0);
    }

    #[test]
    fn method_call_passes_self() {
        let src = r#"
            obj = {factor = 3}
            function obj.scale(self, x)
                return self.factor * x
            end
            function main()
                return obj:scale(5)
            end
        "#;
        let aa = eval_script(src, 100_000).unwrap();
        assert_eq!(
            aa.invoke("main", &[], 100_000).unwrap().as_num().unwrap(),
            15.0
        );
    }

    #[test]
    fn budget_terminates_infinite_loop() {
        let aa = eval_script("function spin() while true do end end", 100_000).unwrap();
        let err = aa.invoke("spin", &[], 5_000).unwrap_err();
        assert_eq!(err, RuntimeError::BudgetExhausted);
    }

    #[test]
    fn budget_terminates_infinite_recursion_or_overflows() {
        let aa = eval_script("function f() return f() end", 100_000).unwrap();
        let err = aa.invoke("f", &[], 1_000_000).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::StackOverflow | RuntimeError::BudgetExhausted
            ),
            "{err:?}"
        );
    }

    #[test]
    fn top_level_budget_applies_too() {
        let sandbox = SharedSandbox::new();
        let script = Script::compile("x = 0\nwhile true do x = x + 1 end").unwrap();
        let err = script.instantiate(&sandbox, 2_000).unwrap_err();
        assert_eq!(err, RuntimeError::BudgetExhausted);
    }

    #[test]
    fn fig5_password_handler_end_to_end() {
        let src = r#"
            AA = {NodeId = 27,
                  IP = "131.94.130.118",
                  Password = "3053482032"}
            function onGet(caller, password)
                if (password == AA.Password) then
                    return AA.NodeId
                end
                return nil
            end
        "#;
        let aa = eval_script(src, 100_000).unwrap();
        let granted = aa
            .invoke(
                "onGet",
                &[Value::str("joe"), Value::str("3053482032")],
                10_000,
            )
            .unwrap();
        assert_eq!(granted.as_num().unwrap(), 27.0);
        let denied = aa
            .invoke("onGet", &[Value::str("joe"), Value::str("nope")], 10_000)
            .unwrap();
        assert!(matches!(denied, Value::Nil));
    }

    #[test]
    fn handlers_inside_aa_table_work_too() {
        let src = r#"
            AA = {Value = 10}
            AA.onGet = function(caller)
                return AA.Value * 2
            end
        "#;
        let aa = eval_script(src, 100_000).unwrap();
        assert!(aa.has_handler("onGet"));
        assert!(!aa.has_handler("onDeliver"));
        assert_eq!(
            aa.invoke("onGet", &[Value::Nil], 10_000)
                .unwrap()
                .as_num()
                .unwrap(),
            20.0
        );
    }

    #[test]
    fn missing_handler_is_an_error() {
        let aa = eval_script("x = 1", 10_000).unwrap();
        assert!(matches!(
            aa.invoke("onGet", &[], 10_000),
            Err(RuntimeError::Undefined(_))
        ));
    }

    #[test]
    fn instances_do_not_share_state() {
        let sandbox = SharedSandbox::new();
        let script =
            Script::compile("count = 0\nfunction bump() count = count + 1\nreturn count end")
                .unwrap();
        let a = script.instantiate(&sandbox, 10_000).unwrap();
        let b = script.instantiate(&sandbox, 10_000).unwrap();
        assert_eq!(a.invoke("bump", &[], 1_000).unwrap().as_num().unwrap(), 1.0);
        assert_eq!(a.invoke("bump", &[], 1_000).unwrap().as_num().unwrap(), 2.0);
        assert_eq!(
            b.invoke("bump", &[], 1_000).unwrap().as_num().unwrap(),
            1.0,
            "instance b must not see a's counter"
        );
    }

    #[test]
    fn sandbox_stdlib_cannot_be_poisoned_across_instances() {
        let sandbox = SharedSandbox::new();
        let evil = Script::compile("math = 666").unwrap();
        evil.instantiate(&sandbox, 10_000).unwrap();
        // A fresh instance still sees the intact stdlib.
        let good = Script::compile("function f() return math.abs(-1) end").unwrap();
        let inst = good.instantiate(&sandbox, 10_000).unwrap();
        assert_eq!(inst.invoke("f", &[], 1_000).unwrap().as_num().unwrap(), 1.0);
    }

    #[test]
    fn state_persists_between_invocations() {
        let src = r#"
            AA = {uses = 0}
            function onGet(caller)
                AA.uses = AA.uses + 1
                return AA.uses
            end
        "#;
        let aa = eval_script(src, 100_000).unwrap();
        for expect in 1..=3 {
            let got = aa.invoke("onGet", &[Value::Nil], 10_000).unwrap();
            assert_eq!(got.as_num().unwrap(), expect as f64);
        }
    }

    #[test]
    fn set_global_exposes_runtime_data() {
        let aa = eval_script("function read() return injected end", 10_000).unwrap();
        aa.set_global("injected", Value::Num(42.0));
        assert_eq!(
            aa.invoke("read", &[], 1_000).unwrap().as_num().unwrap(),
            42.0
        );
    }

    #[test]
    fn size_accounting_grows_with_state() {
        let small = eval_script("AA = {x = 1}", 10_000).unwrap();
        let big = eval_script(
            r#"AA = {}
               for i = 1, 200 do AA["key" .. i] = "value" .. i end"#,
            1_000_000,
        )
        .unwrap();
        assert!(big.size_bytes() > small.size_bytes() + 1_000);
    }

    #[test]
    fn string_comparison_and_concat() {
        let aa = eval_script(
            r#"function f(a, b) return a .. "-" .. b end
               function cmp(a, b) return a < b end"#,
            10_000,
        )
        .unwrap();
        let v = aa
            .invoke("f", &[Value::str("x"), Value::Num(3.0)], 1_000)
            .unwrap();
        assert_eq!(display_value(&v), "x-3");
        let c = aa
            .invoke("cmp", &[Value::str("apple"), Value::str("banana")], 1_000)
            .unwrap();
        assert!(c.truthy());
    }

    #[test]
    fn treewalk_closure_env_cycle_is_the_documented_divergence() {
        // DESIGN.md §10, divergence (3): a walker handler stored in the
        // globals it captures is an Rc cycle the walker never breaks, so
        // dropping the instance leaks its globals scope. VM closures
        // capture individual cells and are fully reclaimed. This test pins
        // both halves of the documented behavior; if the walker is ever
        // fixed, flip the first assertion and delete the note in interp.rs.
        let src = "function onGet() return 1 end";
        let sandbox = SharedSandbox::new();

        let walker = oracle::instantiate(&Script::compile(src).unwrap(), &sandbox, 10_000).unwrap();
        let weak = Rc::downgrade(&walker.globals);
        drop(walker);
        assert!(
            weak.upgrade().is_some(),
            "walker closure-env cycle keeps the dropped instance's globals alive"
        );

        let vm = Script::compile(src)
            .unwrap()
            .instantiate(&sandbox, 10_000)
            .unwrap();
        let weak = Rc::downgrade(&vm.globals);
        drop(vm);
        assert!(
            weak.upgrade().is_none(),
            "VM instances must be fully reclaimed on drop"
        );
    }

    #[test]
    fn type_errors_are_reported_not_panicking() {
        let aa = eval_script("function f() return {} + 1 end", 10_000).unwrap();
        assert!(matches!(
            aa.invoke("f", &[], 1_000),
            Err(RuntimeError::TypeError(_))
        ));
        let aa = eval_script("function f() return nil .. \"x\" end", 10_000).unwrap();
        assert!(matches!(
            aa.invoke("f", &[], 1_000),
            Err(RuntimeError::TypeError(_))
        ));
        let aa = eval_script("function f() local x\nreturn x.y end", 10_000).unwrap();
        assert!(matches!(
            aa.invoke("f", &[], 1_000),
            Err(RuntimeError::TypeError(_))
        ));
    }
}

#[cfg(test)]
mod pcall_tests {
    use super::*;

    #[test]
    fn pcall_catches_script_errors() {
        let aa = eval_script(
            r#"
            function risky()
                error("kaboom")
            end
            function main()
                local r = pcall(risky)
                if r.ok then
                    return "unexpected"
                end
                return r.error
            end
        "#,
            100_000,
        )
        .unwrap();
        let v = aa.invoke("main", &[], 10_000).unwrap();
        assert_eq!(display_value(&v), "kaboom");
    }

    #[test]
    fn pcall_passes_values_through_on_success() {
        let aa = eval_script(
            r#"
            function double(x) return x * 2 end
            function main()
                local r = pcall(double, 21)
                return r.value
            end
        "#,
            100_000,
        )
        .unwrap();
        assert_eq!(
            aa.invoke("main", &[], 10_000).unwrap().as_num().unwrap(),
            42.0
        );
    }

    #[test]
    fn pcall_catches_type_errors_too() {
        let aa = eval_script(
            r#"
            function bad() return {} + 1 end
            function main()
                local r = pcall(bad)
                return r.ok
            end
        "#,
            100_000,
        )
        .unwrap();
        assert!(!aa.invoke("main", &[], 10_000).unwrap().truthy());
    }

    #[test]
    fn pcall_cannot_shield_from_the_budget() {
        let aa = eval_script(
            r#"
            function spin() while true do end end
            function main()
                local r = pcall(spin)
                return "survived"
            end
        "#,
            100_000,
        )
        .unwrap();
        let err = aa.invoke("main", &[], 5_000).unwrap_err();
        assert_eq!(err, RuntimeError::BudgetExhausted, "sandbox wins");
    }

    #[test]
    fn indirect_pcall_reference_still_works_or_errors_cleanly() {
        // Assigning pcall to a variable and calling it goes through the
        // same dispatch (the name travels with the native), so it works.
        let aa = eval_script(
            r#"
            function main()
                local p = pcall
                local r = p(function() return 7 end)
                return r.value
            end
        "#,
            100_000,
        )
        .unwrap();
        assert_eq!(
            aa.invoke("main", &[], 10_000).unwrap().as_num().unwrap(),
            7.0
        );
    }
}

#[cfg(test)]
mod cyclic_tests {
    use super::*;

    #[test]
    fn cyclic_tables_do_not_hang_tostring() {
        let aa = eval_script(
            r#"
            t = {}
            t.me = t
            function main()
                return tostring(t)
            end
        "#,
            100_000,
        )
        .unwrap();
        let v = aa.invoke("main", &[], 100_000).unwrap();
        let s = display_value(&v);
        assert!(s.contains('…'), "cycle rendered with an ellipsis: {s}");
    }

    #[test]
    fn cyclic_tables_do_not_hang_size_accounting() {
        let aa = eval_script("t = {}\nt.me = t\nt.pad = \"xxxx\"", 100_000).unwrap();
        // Must terminate and count the string payload at least once.
        let sz = aa.size_bytes();
        assert!(sz > 4, "{sz}");
    }

    #[test]
    fn mutually_recursive_tables_terminate() {
        let aa = eval_script(
            r#"
            a = {}
            b = {peer = a}
            a.peer = b
            function main() return tostring(a) end
        "#,
            100_000,
        )
        .unwrap();
        let v = aa.invoke("main", &[], 100_000).unwrap();
        assert!(!display_value(&v).is_empty());
    }
}
