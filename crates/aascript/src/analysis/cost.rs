//! Abstract-interpretation worst-case instruction-cost bounds.
//!
//! The VM charges one budget unit per executed opcode, so a *sound upper
//! bound* on opcode executions is a sound bound on budget consumption. The
//! abstract domain is `Finite(n) ⊑ Unbounded`:
//!
//! * **Acyclic code** — every op executes at most once per entry, so the
//!   sum of op counts over a range is an upper bound (branches count both
//!   arms; that only over-approximates).
//! * **Numeric `for` with literal bounds** — the compiler emits
//!   `Const; [ToNum;] StoreReg` setups for start/stop/step, so constant
//!   trip counts are recoverable from the bytecode; the loop contributes
//!   `trips × body + 1` (the final failing `ForTest`).
//! * **Calls** — resolved by walking the stack effects backwards from the
//!   call site: stdlib natives cost the call op itself, script closures
//!   recurse into their proto (recursion ⇒ `Unbounded`), anything
//!   unresolvable ⇒ `Unbounded`.
//! * **Everything else** — `while`/`repeat`, data-dependent `for` bounds,
//!   and generic `for` over tables are `Unbounded`: not an error, but the
//!   "possibly unbounded" warning the analyzer surfaces as `AA008`.
//!
//! Provably-over-budget handlers (`Finite(c) > budget`) are the `AA007`
//! error: every invocation of such a handler would be killed at runtime,
//! which in RBAY's dispatch silently *denies* the request.

use crate::compile::{Chunk, Op, Proto};
use crate::error::Pos;
use crate::stdlib::{builtin_fn, stdlib_member, Def};
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// The cost abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many opcodes execute.
    Finite(u64),
    /// No static bound; the payload says why (first cause wins).
    Unbounded(&'static str),
}

impl Bound {
    fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            (Bound::Unbounded(r), _) | (_, Bound::Unbounded(r)) => Bound::Unbounded(r),
        }
    }

    fn mul(self, k: u64) -> Bound {
        match self {
            Bound::Finite(a) => Bound::Finite(a.saturating_mul(k)),
            u => u,
        }
    }
}

/// Back edges of a proto: loop head → index of the (largest) backward jump
/// targeting it. The compiler's structured emission makes loop bodies the
/// contiguous interval `[head, back]`.
fn loop_heads(proto: &Proto) -> HashMap<usize, usize> {
    let mut heads: HashMap<usize, usize> = HashMap::new();
    for (i, op) in proto.code.iter().enumerate() {
        let t = match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::ForStep { top: t, .. } => *t as usize,
            _ => continue,
        };
        if t <= i {
            let e = heads.entry(t).or_insert(i);
            *e = (*e).max(i);
        }
    }
    heads
}

/// Number of iterations of `for v = start, stop, step` with literal
/// bounds. `step == 0` raises at runtime before the first iteration.
fn for_trips(start: f64, stop: f64, step: f64) -> Option<u64> {
    if step == 0.0 || !start.is_finite() || !stop.is_finite() || !step.is_finite() {
        return Some(0);
    }
    let n = if step > 0.0 {
        ((stop - start) / step).floor() + 1.0
    } else {
        ((start - stop) / -step).floor() + 1.0
    };
    if n <= 0.0 {
        Some(0)
    } else if n >= 1e18 {
        None
    } else {
        Some(n as u64)
    }
}

/// Finds the literal value last stored into `reg` in the straight-line
/// setup window before `before` (the `Const; [ToNum;] StoreReg` pattern
/// the compiler emits for numeric-`for` bounds).
fn const_reg_before(chunk: &Chunk, proto: &Proto, before: usize, reg: u16) -> Option<f64> {
    let lo = before.saturating_sub(24);
    let mut j = before;
    while j > lo {
        j -= 1;
        if proto.code[j] == Op::StoreReg(reg) {
            let ci = match (j.checked_sub(1).map(|k| &proto.code[k]), j.checked_sub(2)) {
                (Some(Op::Const(c)), _) => *c,
                (Some(Op::ToNum), Some(k2)) => match proto.code[k2] {
                    Op::Const(c) => c,
                    _ => return None,
                },
                _ => return None,
            };
            return match &chunk.consts[ci as usize] {
                Value::Num(n) => Some(*n),
                _ => None,
            };
        }
    }
    None
}

/// Net stack effect of an op as `(pops, pushes)`, or `None` for ops whose
/// effect is dynamic or that transfer control (the backward callee walk
/// bails out on those).
fn stack_effect(op: &Op) -> Option<(usize, usize)> {
    Some(match op {
        Op::Const(_)
        | Op::Nil
        | Op::True
        | Op::False
        | Op::LoadReg(_)
        | Op::LoadCell(_)
        | Op::LoadUpval(_)
        | Op::LoadGlobal(_)
        | Op::GlobalIndexConst { .. }
        | Op::NewTable
        | Op::MakeClosure(_) => (0, 1),
        Op::StoreReg(_)
        | Op::StoreCell(_)
        | Op::NewCell(_)
        | Op::StoreUpval(_)
        | Op::StoreGlobal(_)
        | Op::Pop => (1, 0),
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Mod
        | Op::Pow
        | Op::Concat
        | Op::Eq
        | Op::Ne
        | Op::Lt
        | Op::Le
        | Op::Gt
        | Op::Ge
        | Op::Index => (2, 1),
        Op::Neg | Op::Not | Op::Len | Op::ToNum | Op::IndexConst(_) => (1, 1),
        Op::StoreIndex => (3, 0),
        Op::StoreIndexConst(_) => (2, 0),
        Op::SetItem => (2, 0),
        Op::Method(_) => (1, 2),
        Op::Call(n) => (*n as usize + 1, 1),
        Op::ForZeroCheck(_) => (0, 0),
        // Control transfer or dynamic stack effect: bail.
        Op::Jump(_)
        | Op::JumpIfFalse(_)
        | Op::JumpIfFalseKeep(_)
        | Op::JumpIfTrueKeep(_)
        | Op::Return
        | Op::ForTest { .. }
        | Op::ForStep { .. }
        | Op::IterPrep(_)
        | Op::IterNext { .. }
        | Op::IterEnd => return None,
    })
}

/// What a call site dispatches to, as far as the analyzer can tell.
enum Callee {
    /// A stdlib native: costs the call op only (natives run outside the
    /// script budget).
    Native,
    /// A script function with a known proto.
    Closure(usize),
    /// Could not resolve — `Unbounded`.
    Unknown,
}

/// The per-chunk cost analyzer (memoizes proto bounds, detects recursion).
pub struct CostModel<'a> {
    chunk: &'a Chunk,
    /// Global name index → proto, for globals bound exactly once to a
    /// closure (`function f() … end` at top level).
    fn_map: HashMap<u32, usize>,
    /// Name indices the script itself stores — a stdlib name in here is
    /// shadowed and no longer resolvable as a native.
    ever_stored: HashSet<u32>,
    /// Name indices of host-injected natives (e.g. `sha1hex`): calls to
    /// these cost the call op only, like stdlib natives.
    extern_natives: HashSet<u32>,
    memo: HashMap<usize, Bound>,
    visiting: Vec<usize>,
}

impl<'a> CostModel<'a> {
    /// Builds the model, resolving the chunk's global-function bindings.
    pub fn new(chunk: &'a Chunk) -> Self {
        let mut ever_stored: HashSet<u32> = HashSet::new();
        let mut fn_map: HashMap<u32, usize> = HashMap::new();
        let mut poisoned: HashSet<u32> = HashSet::new();
        for proto in &chunk.protos {
            for (i, op) in proto.code.iter().enumerate() {
                if let Op::StoreGlobal(n) = op {
                    ever_stored.insert(*n);
                    match (i.checked_sub(1).map(|j| &proto.code[j]), fn_map.get(n)) {
                        (Some(Op::MakeClosure(p)), None) if !poisoned.contains(n) => {
                            fn_map.insert(*n, *p as usize);
                        }
                        (Some(Op::MakeClosure(p)), Some(&q)) if *p as usize == q => {}
                        _ => {
                            // Rebound to something else (or a second,
                            // different closure): no longer resolvable.
                            fn_map.remove(n);
                            poisoned.insert(*n);
                        }
                    }
                }
            }
        }
        CostModel {
            chunk,
            fn_map,
            ever_stored,
            extern_natives: HashSet::new(),
            memo: HashMap::new(),
            visiting: Vec::new(),
        }
    }

    /// Declares host-injected globals as native functions: a call through
    /// one of these names costs the call op only (natives run outside the
    /// script budget), instead of poisoning the bound as unresolvable.
    pub fn with_externs(mut self, externs: &[String]) -> Self {
        for (i, name) in self.chunk.names.iter().enumerate() {
            if externs.iter().any(|e| e == &**name) {
                self.extern_natives.insert(i as u32);
            }
        }
        self
    }

    /// Worst-case opcode count of executing proto `pi` once.
    pub fn proto_cost(&mut self, pi: usize) -> Bound {
        if let Some(&b) = self.memo.get(&pi) {
            return b;
        }
        if self.visiting.contains(&pi) {
            return Bound::Unbounded("recursion");
        }
        self.visiting.push(pi);
        let proto = &self.chunk.protos[pi];
        let heads = loop_heads(proto);
        let b = self.range_cost(proto, &heads, 0, proto.code.len(), None);
        self.visiting.pop();
        self.memo.insert(pi, b);
        b
    }

    /// Cost of ops `[lo, hi)` executed once, expanding loops by their trip
    /// count. `expanding` is the head of the loop currently being costed,
    /// so its own back edge does not re-trigger expansion.
    fn range_cost(
        &mut self,
        proto: &Proto,
        heads: &HashMap<usize, usize>,
        lo: usize,
        hi: usize,
        expanding: Option<usize>,
    ) -> Bound {
        let mut total = Bound::Finite(0);
        let mut i = lo;
        while i < hi {
            if let Some(&back) = heads.get(&i) {
                if Some(i) != expanding {
                    if back >= hi {
                        // A back edge escaping the range would mean the
                        // loop intervals are not nested — impossible for
                        // compiler output, so just give up soundly.
                        return Bound::Unbounded("irreducible loop structure");
                    }
                    let body = self.range_cost(proto, heads, i, back + 1, Some(i));
                    total = total.add(self.loop_cost(proto, i, back, body));
                    i = back + 1;
                    continue;
                }
            }
            total = total.add(Bound::Finite(1));
            if let Op::Call(n) = proto.code[i] {
                match self.resolve_callee(proto, i, n as usize) {
                    Callee::Native => {}
                    Callee::Closure(p) => total = total.add(self.proto_cost(p)),
                    Callee::Unknown => {
                        return Bound::Unbounded("call target not statically resolvable")
                    }
                }
            }
            i += 1;
        }
        total
    }

    /// Multiplies a loop body bound by the trip count, when one is
    /// statically known.
    fn loop_cost(&mut self, proto: &Proto, head: usize, back: usize, body: Bound) -> Bound {
        match (&proto.code[head], &proto.code[back]) {
            (
                Op::ForTest {
                    idx, stop, step, ..
                },
                Op::ForStep { .. },
            ) => {
                let start_v = const_reg_before(self.chunk, proto, head, *idx);
                let stop_v = const_reg_before(self.chunk, proto, head, *stop);
                let step_v = const_reg_before(self.chunk, proto, head, *step);
                match (start_v, stop_v, step_v) {
                    (Some(a), Some(b), Some(s)) => match for_trips(a, b, s) {
                        // trips × (ForTest + body + ForStep) + the final
                        // failing ForTest.
                        Some(k) => body.mul(k).add(Bound::Finite(1)),
                        None => Bound::Unbounded("astronomical literal trip count"),
                    },
                    _ => Bound::Unbounded("data-dependent numeric-for bounds"),
                }
            }
            (Op::IterNext { .. }, _) => Bound::Unbounded("generic-for over a table"),
            _ => Bound::Unbounded("while/repeat loop"),
        }
    }

    /// Resolves what `Call(nargs)` at `call_idx` dispatches to by walking
    /// stack effects backwards to the instruction that pushed the callee.
    fn resolve_callee(&self, proto: &Proto, call_idx: usize, nargs: usize) -> Callee {
        // Depth of the callee below the top of stack just before the call.
        let mut depth = nargs;
        let mut j = call_idx;
        while j > 0 {
            j -= 1;
            let op = &proto.code[j];
            let Some((pops, pushes)) = stack_effect(op) else {
                return Callee::Unknown;
            };
            if depth < pushes {
                // This op pushed the callee value.
                return match op {
                    Op::MakeClosure(p) => Callee::Closure(*p as usize),
                    Op::LoadGlobal(n) => {
                        if let Some(&p) = self.fn_map.get(n) {
                            return Callee::Closure(p);
                        }
                        let name = &*self.chunk.names[*n as usize];
                        // pcall invokes its argument; its cost is the
                        // argument's, which this walk cannot see.
                        if name != "pcall"
                            && builtin_fn(name).is_some()
                            && !self.ever_stored.contains(n)
                        {
                            return Callee::Native;
                        }
                        if self.extern_natives.contains(n) && !self.ever_stored.contains(n) {
                            return Callee::Native;
                        }
                        Callee::Unknown
                    }
                    Op::GlobalIndexConst { name, key } => {
                        let module = &*self.chunk.names[*name as usize];
                        let member = match &self.chunk.keys[*key as usize] {
                            crate::value::Key::Str(s) => s.clone(),
                            _ => return Callee::Unknown,
                        };
                        if !self.ever_stored.contains(name)
                            && matches!(stdlib_member(module, &member), Some(Def::Func { .. }))
                        {
                            return Callee::Native;
                        }
                        Callee::Unknown
                    }
                    _ => Callee::Unknown,
                };
            }
            depth = depth - pushes + pops;
        }
        Callee::Unknown
    }
}

/// Handlers installed by top-level code, with the proto each one binds and
/// the source position of the binding. Recognizes the three idioms:
/// `function onGet() … end`, `AA.onGet = function … end` (also
/// `function AA.onGet() … end`), and `AA = { onGet = function … end }`.
pub fn installed_handlers(chunk: &Chunk) -> Vec<(String, usize, Pos)> {
    let main = &chunk.protos[chunk.main];
    let mut out = Vec::new();
    let mut push = |name: &str, proto: usize, pos: Pos| {
        if crate::HANDLER_NAMES.contains(&name) {
            out.push((name.to_string(), proto, pos));
        }
    };
    for (i, op) in main.code.iter().enumerate() {
        let Op::MakeClosure(p) = op else { continue };
        let p = *p as usize;
        let pos = main.lines[i];
        match (main.code.get(i + 1), main.code.get(i + 2)) {
            // function onGet() … end  /  onGet = function() … end
            (Some(Op::StoreGlobal(n)), _) => push(&chunk.names[*n as usize], p, pos),
            // AA.onGet = function() … end (value compiled before target)
            (Some(Op::LoadGlobal(aa)), Some(Op::StoreIndexConst(k)))
                if &*chunk.names[*aa as usize] == "AA" =>
            {
                if let crate::value::Key::Str(s) = &chunk.keys[*k as usize] {
                    push(s, p, pos);
                }
            }
            // AA = { onGet = function() … end }
            (Some(Op::SetItem), _) if i >= 1 => {
                if let Op::Const(c) = &main.code[i - 1] {
                    if let Value::Str(s) = &chunk.consts[*c as usize] {
                        push(s, p, pos);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn chunk_of(src: &str) -> Chunk {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn handler_bound(src: &str, name: &str) -> Bound {
        let chunk = chunk_of(src);
        let handlers = installed_handlers(&chunk);
        let (_, pi, _) = handlers
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("handler {name} not found in {handlers:?}"));
        CostModel::new(&chunk).proto_cost(*pi)
    }

    #[test]
    fn straight_line_handler_is_finite_and_tight_enough() {
        let b = handler_bound("function onGet(caller) return 1 + 2 end", "onGet");
        match b {
            Bound::Finite(n) => assert!(n <= 10, "got {n}"),
            u => panic!("{u:?}"),
        }
    }

    #[test]
    fn constant_trip_loop_multiplies() {
        let small = handler_bound(
            "function onGet() local s = 0 for i = 1, 10 do s = s + i end return s end",
            "onGet",
        );
        let big = handler_bound(
            "function onGet() local s = 0 for i = 1, 1000 do s = s + i end return s end",
            "onGet",
        );
        let (Bound::Finite(a), Bound::Finite(b)) = (small, big) else {
            panic!("{small:?} {big:?}");
        };
        assert!(b > a * 50, "bounds must scale with trips: {a} vs {b}");
    }

    #[test]
    fn bound_is_sound_against_actual_execution() {
        // Actual consumption must never exceed the static bound: find the
        // minimal budget that lets the handler finish and compare.
        let src = "function onGet() local s = 0 for i = 1, 25 do s = s + i * 2 end return s end";
        let Bound::Finite(bound) = handler_bound(src, "onGet") else {
            panic!("expected finite bound");
        };
        let aa = crate::eval_script(src, 100_000).unwrap();
        assert!(
            aa.invoke("onGet", &[], bound).is_ok(),
            "static bound {bound} must cover the real execution"
        );
    }

    #[test]
    fn while_loop_is_unbounded() {
        let b = handler_bound("function onGet() while x do y = 1 end end", "onGet");
        assert!(matches!(b, Bound::Unbounded(_)), "{b:?}");
    }

    #[test]
    fn data_dependent_for_is_unbounded() {
        let b = handler_bound(
            "function onGet(n) local s = 0 for i = 1, n do s = s + 1 end return s end",
            "onGet",
        );
        assert!(matches!(b, Bound::Unbounded(_)), "{b:?}");
    }

    #[test]
    fn recursion_is_unbounded() {
        let b = handler_bound("function onGet() return onGet() end", "onGet");
        assert!(matches!(b, Bound::Unbounded(_)), "{b:?}");
    }

    #[test]
    fn stdlib_calls_stay_finite_but_unknown_calls_do_not() {
        let b = handler_bound(
            "function onGet(x) return math.abs(x) + string.len(\"ab\") end",
            "onGet",
        );
        assert!(matches!(b, Bound::Finite(_)), "{b:?}");
        let u = handler_bound(
            "mystery = nil
             function onGet(x) return mystery(x) end",
            "onGet",
        );
        assert!(matches!(u, Bound::Unbounded(_)), "{u:?}");
    }

    #[test]
    fn script_function_calls_compose() {
        let fin = handler_bound(
            "function helper(x) return x * 2 end
             function onGet(x) return helper(x) + helper(x) end",
            "onGet",
        );
        assert!(matches!(fin, Bound::Finite(_)), "{fin:?}");
        let unb = handler_bound(
            "function helper(x) while x do end end
             function onGet(x) return helper(x) end",
            "onGet",
        );
        assert!(matches!(unb, Bound::Unbounded(_)), "{unb:?}");
    }

    #[test]
    fn nested_constant_loops_multiply_out() {
        let b = handler_bound(
            "function onGet()
                 local s = 0
                 for i = 1, 10 do
                     for j = 1, 10 do s = s + 1 end
                 end
                 return s
             end",
            "onGet",
        );
        let Bound::Finite(n) = b else { panic!("{b:?}") };
        assert!(n >= 100, "inner body runs 100 times: {n}");
        assert!(n < 100_000, "but the bound stays sane: {n}");
    }

    #[test]
    fn all_three_handler_idioms_are_discovered() {
        let chunk = chunk_of(
            "function onGet() return 1 end
             AA = {}
             AA.onTimer = function() return 2 end
             AA2 = { onDeliver = function() return 3 end }
             AA = { onSubscribe = function() return 4 end }",
        );
        let names: Vec<String> = installed_handlers(&chunk)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert!(names.contains(&"onGet".to_string()), "{names:?}");
        assert!(names.contains(&"onTimer".to_string()), "{names:?}");
        assert!(names.contains(&"onSubscribe".to_string()), "{names:?}");
    }
}
