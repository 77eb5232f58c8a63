//! The bytecode VM with the same sandbox contract as the tree-walker.
//!
//! Executes a [`Chunk`] on an explicit value stack shared by all frames
//! (each call takes a window of registers at the top and restores the stack
//! on exit). The instruction budget is charged **per executed opcode** —
//! this is the engine that literally matches the paper's "strictly limits
//! the number of bytecode instructions a handler can execute" (§III.B). The
//! same call-depth limit as the tree-walker guards the Rust stack, and the
//! same `pcall` special form catches script errors while keeping
//! [`RuntimeError::BudgetExhausted`] and [`RuntimeError::StackOverflow`]
//! uncatchable.
//!
//! Globals intentionally stay name-addressed through the instance's
//! `Env`: hosts write them between invocations (`set_global`,
//! `refresh_aa_env`) and handlers must observe the new bindings, so they
//! cannot be slot-resolved at compile time.

use crate::ast::IterKind;
use crate::compile::{Chunk, Op, Proto, Slot, UpvalSrc};
use crate::error::RuntimeError;
use crate::interp::{declare_interned, lookup, Env};
use crate::value::{BcClosure, Key, Table, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// The bytecode executor. It holds only the sandbox counters and the
/// globals handle; all program state lives in frames, cells, and shared
/// tables.
#[derive(Debug)]
pub struct Vm {
    /// Remaining instruction budget for the current invocation.
    pub budget: u64,
    depth: u32,
    max_depth: u32,
    globals: Env,
    stack: Vec<Value>,
}

thread_local! {
    /// One recycled operand stack per thread. A host invokes handlers at
    /// very high rates (every query triggers one), so the per-invocation
    /// `Vec` allocation is measurable; the most recently dropped VM parks
    /// its buffer here for the next one. A single slot suffices: calls
    /// nest as frames of one VM, and a second VM alive on the thread
    /// simply allocates fresh.
    static SPARE_STACK: std::cell::Cell<Option<Vec<Value>>> =
        const { std::cell::Cell::new(None) };
}

/// Largest buffer worth parking in [`SPARE_STACK`].
const SPARE_MAX_CAPACITY: usize = 1024;

impl Drop for Vm {
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.stack);
        if stack.capacity() == 0 || stack.capacity() > SPARE_MAX_CAPACITY {
            return;
        }
        stack.clear(); // drop the values, keep the capacity
        SPARE_STACK.with(|slot| slot.set(Some(stack)));
    }
}

impl Vm {
    /// Creates a VM with the given instruction budget; `globals` is where
    /// global reads and writes land.
    pub fn new(budget: u64, globals: Env) -> Self {
        let stack = SPARE_STACK
            .with(std::cell::Cell::take)
            .unwrap_or_else(|| Vec::with_capacity(32));
        Vm {
            budget,
            depth: 0,
            max_depth: 120,
            globals,
            stack,
        }
    }

    /// Runs a chunk's top-level code (instantiation), returning the value
    /// of a top-level `return` (or nil).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], including budget exhaustion.
    pub fn exec_main(&mut self, chunk: &Rc<Chunk>) -> Result<Value, RuntimeError> {
        self.run_frame(chunk, chunk.main, &[], &[])
    }

    /// Calls a function value with arguments.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeError`] when `f` is not callable, plus anything
    /// the body raises.
    pub fn call(&mut self, f: &Value, args: &[Value]) -> Result<Value, RuntimeError> {
        match f {
            // Same special form as the tree-walker: `pcall` catches script
            // errors but can never shield a handler from the sandbox
            // (budget exhaustion, stack overflow).
            Value::Native("pcall", _) => {
                let Some(inner) = args.first() else {
                    return Err(RuntimeError::Other("pcall needs a function".into()));
                };
                let result = self.call(inner, &args[1..]);
                let table = Rc::new(RefCell::new(Table::new()));
                match result {
                    Ok(v) => {
                        let mut t = table.borrow_mut();
                        t.set(Key::Str("ok".into()), Value::Bool(true));
                        t.set(Key::Str("value".into()), v);
                    }
                    Err(e @ RuntimeError::BudgetExhausted)
                    | Err(e @ RuntimeError::StackOverflow) => return Err(e),
                    Err(e) => {
                        let mut t = table.borrow_mut();
                        t.set(Key::Str("ok".into()), Value::Bool(false));
                        t.set(Key::Str("error".into()), Value::str(e.to_string()));
                    }
                }
                Ok(Value::Table(table))
            }
            Value::Compiled(c) => {
                if self.depth >= self.max_depth {
                    return Err(RuntimeError::StackOverflow);
                }
                self.depth += 1;
                let chunk = Rc::clone(&c.chunk);
                let result = self.run_frame(&chunk, c.proto, &c.upvals, args);
                self.depth -= 1;
                result
            }
            Value::Native(_, nf) => nf(args),
            other => Err(RuntimeError::TypeError(format!(
                "attempt to call a {} value",
                other.type_name()
            ))),
        }
    }

    /// Pushes a frame for `protos[proto]`, binds `args`, runs it to its
    /// `Return`, and restores the stack.
    fn run_frame(
        &mut self,
        chunk: &Rc<Chunk>,
        proto: usize,
        upvals: &[Rc<RefCell<Value>>],
        args: &[Value],
    ) -> Result<Value, RuntimeError> {
        let p = &chunk.protos[proto];
        let base = self.stack.len();
        self.stack.resize(base + p.n_regs as usize, Value::Nil);
        let mut cells: Vec<Rc<RefCell<Value>>> = if p.n_cells > 0 {
            (0..p.n_cells)
                .map(|_| Rc::new(RefCell::new(Value::Nil)))
                .collect()
        } else {
            Vec::new()
        };
        for (i, slot) in p.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Nil);
            match slot {
                Slot::Reg(r) => self.stack[base + *r as usize] = v,
                Slot::Cell(c) => cells[*c as usize] = Rc::new(RefCell::new(v)),
            }
        }
        let result = self.run(chunk, p, base, &mut cells, upvals);
        // Unconditionally restore: on error the frame may leave operands
        // behind; on success the return value has already been popped.
        self.stack.truncate(base);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        chunk: &Rc<Chunk>,
        proto: &Proto,
        base: usize,
        cells: &mut [Rc<RefCell<Value>>],
        upvals: &[Rc<RefCell<Value>>],
    ) -> Result<Value, RuntimeError> {
        // Snapshot iterators for generic-for, innermost last. Local to the
        // frame: a `return` mid-loop drops them with the frame.
        let mut iters: Vec<std::vec::IntoIter<(Key, Value)>> = Vec::new();
        let code = &proto.code;
        let mut pc = 0usize;
        // One-entry inline cache for global reads: handlers typically hit
        // the same global (`AA`) several times in a row, and the binding
        // can only change under this frame's feet through `StoreGlobal` or
        // a `Call` (which may run arbitrary stores) — both invalidate.
        let mut gcache_name = u32::MAX;
        let mut gcache_val = Value::Nil;
        loop {
            // One budget unit per opcode — the paper's sandbox rule.
            if self.budget == 0 {
                return Err(RuntimeError::BudgetExhausted);
            }
            self.budget -= 1;
            match code[pc] {
                Op::Const(i) => self.stack.push(chunk.consts[i as usize].clone()),
                Op::Nil => self.stack.push(Value::Nil),
                Op::True => self.stack.push(Value::Bool(true)),
                Op::False => self.stack.push(Value::Bool(false)),
                Op::LoadReg(r) => {
                    let v = self.stack[base + r as usize].clone();
                    self.stack.push(v);
                }
                Op::StoreReg(r) => {
                    let v = self.pop();
                    self.stack[base + r as usize] = v;
                }
                Op::LoadCell(c) => {
                    let v = cells[c as usize].borrow().clone();
                    self.stack.push(v);
                }
                Op::StoreCell(c) => {
                    let v = self.pop();
                    *cells[c as usize].borrow_mut() = v;
                }
                Op::NewCell(c) => {
                    let v = self.pop();
                    cells[c as usize] = Rc::new(RefCell::new(v));
                }
                Op::LoadUpval(u) => {
                    let v = upvals[u as usize].borrow().clone();
                    self.stack.push(v);
                }
                Op::StoreUpval(u) => {
                    let v = self.pop();
                    *upvals[u as usize].borrow_mut() = v;
                }
                Op::LoadGlobal(i) => {
                    if gcache_name == i {
                        self.stack.push(gcache_val.clone());
                    } else {
                        let v = lookup(&self.globals, &chunk.names[i as usize]);
                        gcache_name = i;
                        gcache_val = v.clone();
                        self.stack.push(v);
                    }
                }
                Op::StoreGlobal(i) => {
                    let v = self.pop();
                    gcache_name = u32::MAX;
                    declare_interned(&self.globals, &chunk.names[i as usize], v);
                }
                Op::Pop => {
                    self.pop();
                }
                Op::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::JumpIfFalse(t) => {
                    if !self.pop().truthy() {
                        pc = t as usize;
                        continue;
                    }
                }
                Op::JumpIfFalseKeep(t) => {
                    if !self.top().truthy() {
                        pc = t as usize;
                        continue;
                    }
                    self.pop();
                }
                Op::JumpIfTrueKeep(t) => {
                    if self.top().truthy() {
                        pc = t as usize;
                        continue;
                    }
                    self.pop();
                }
                Op::Add => self.arith(|a, b| a + b)?,
                Op::Sub => self.arith(|a, b| a - b)?,
                Op::Mul => self.arith(|a, b| a * b)?,
                Op::Div => self.arith(|a, b| a / b)?,
                Op::Mod => self.arith(|a, b| a - (a / b).floor() * b)?,
                Op::Pow => self.arith(f64::powf)?,
                Op::Concat => {
                    let r = self.pop();
                    let l = self.pop();
                    let mut s = l.concat_str()?;
                    s.push_str(&r.concat_str()?);
                    self.stack.push(Value::str(s));
                }
                Op::Eq => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(Value::Bool(l.script_eq(&r)));
                }
                Op::Ne => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(Value::Bool(!l.script_eq(&r)));
                }
                Op::Lt => self.compare(|o| o.is_lt())?,
                Op::Le => self.compare(|o| o.is_le())?,
                Op::Gt => self.compare(|o| o.is_gt())?,
                Op::Ge => self.compare(|o| o.is_ge())?,
                Op::Neg => {
                    let v = self.pop();
                    self.stack.push(Value::Num(-v.as_num()?));
                }
                Op::Not => {
                    let v = self.pop();
                    self.stack.push(Value::Bool(!v.truthy()));
                }
                Op::Len => {
                    let v = self.pop();
                    let n = match &v {
                        Value::Str(s) => s.len() as f64,
                        Value::Table(t) => t.borrow().len() as f64,
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot take length of a {}",
                                other.type_name()
                            )))
                        }
                    };
                    self.stack.push(Value::Num(n));
                }
                Op::Index => {
                    let k = self.pop();
                    let o = self.pop();
                    match o {
                        Value::Table(t) => {
                            let key = Key::from_value(&k)?;
                            let v = t.borrow().get(&key);
                            self.stack.push(v);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::GlobalIndexConst { name, key } => {
                    let o = if gcache_name == name {
                        gcache_val.clone()
                    } else {
                        let v = lookup(&self.globals, &chunk.names[name as usize]);
                        gcache_name = name;
                        gcache_val = v.clone();
                        v
                    };
                    match o {
                        Value::Table(t) => {
                            let v = t.borrow().get(&chunk.keys[key as usize]);
                            self.stack.push(v);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::IndexConst(i) => {
                    let o = self.pop();
                    match o {
                        Value::Table(t) => {
                            let v = t.borrow().get(&chunk.keys[i as usize]);
                            self.stack.push(v);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::StoreIndex => {
                    let k = self.pop();
                    let o = self.pop();
                    let v = self.pop();
                    match o {
                        Value::Table(t) => {
                            let key = Key::from_value(&k)?;
                            t.borrow_mut().set(key, v);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::StoreIndexConst(i) => {
                    let o = self.pop();
                    let v = self.pop();
                    match o {
                        Value::Table(t) => {
                            t.borrow_mut().set(chunk.keys[i as usize].clone(), v);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot index a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::NewTable => self.stack.push(Value::table()),
                Op::SetItem => {
                    let v = self.pop();
                    let k = self.pop();
                    let key = Key::from_value(&k)?;
                    let Some(Value::Table(t)) = self.stack.last() else {
                        unreachable!("SetItem without a table under construction");
                    };
                    t.borrow_mut().set(key, v);
                }
                Op::Method(i) => {
                    let o = self.pop();
                    match &o {
                        Value::Table(t) => {
                            let m = t
                                .borrow()
                                .get(&Key::Str(Rc::clone(&chunk.names[i as usize])));
                            self.stack.push(m);
                            self.stack.push(o);
                        }
                        other => {
                            return Err(RuntimeError::TypeError(format!(
                                "cannot call method on a {} value",
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::Call(argc) => {
                    let at = self.stack.len() - argc as usize;
                    let call_args = self.stack.split_off(at);
                    let f = self.pop();
                    let v = self.call(&f, &call_args)?;
                    // The callee may have stored globals.
                    gcache_name = u32::MAX;
                    self.stack.push(v);
                }
                Op::MakeClosure(i) => {
                    let p = &chunk.protos[i as usize];
                    let captured: Vec<Rc<RefCell<Value>>> = p
                        .upvals
                        .iter()
                        .map(|src| match src {
                            UpvalSrc::ParentCell(c) => Rc::clone(&cells[*c as usize]),
                            UpvalSrc::ParentUpval(u) => Rc::clone(&upvals[*u as usize]),
                        })
                        .collect();
                    self.stack.push(Value::Compiled(Rc::new(BcClosure {
                        chunk: Rc::clone(chunk),
                        proto: i as usize,
                        upvals: captured,
                    })));
                }
                Op::Return => return Ok(self.pop()),
                Op::ToNum => {
                    let v = self.pop();
                    self.stack.push(Value::Num(v.as_num()?));
                }
                Op::ForZeroCheck(s) => {
                    if self.reg_num(base, s) == 0.0 {
                        return Err(RuntimeError::Other("for step must be non-zero".into()));
                    }
                }
                Op::ForTest {
                    idx,
                    stop,
                    step,
                    exit,
                } => {
                    let i = self.reg_num(base, idx);
                    let stop = self.reg_num(base, stop);
                    let step = self.reg_num(base, step);
                    if !((step > 0.0 && i <= stop) || (step < 0.0 && i >= stop)) {
                        pc = exit as usize;
                        continue;
                    }
                }
                Op::ForStep { idx, step, top } => {
                    let next = self.reg_num(base, idx) + self.reg_num(base, step);
                    self.stack[base + idx as usize] = Value::Num(next);
                    pc = top as usize;
                    continue;
                }
                Op::IterPrep(kind) => {
                    let v = self.pop();
                    let Value::Table(t) = v else {
                        return Err(RuntimeError::TypeError(format!(
                            "cannot iterate a {}",
                            v.type_name()
                        )));
                    };
                    // Snapshot, like the tree-walker, so body mutations
                    // cannot invalidate the walk.
                    let entries: Vec<(Key, Value)> = match kind {
                        IterKind::Pairs => t
                            .borrow()
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect(),
                        IterKind::Ipairs => {
                            let tb = t.borrow();
                            let mut out = Vec::new();
                            let mut i = 1i64;
                            loop {
                                let v = tb.get(&Key::Int(i));
                                if matches!(v, Value::Nil) {
                                    break;
                                }
                                out.push((Key::Int(i), v));
                                i += 1;
                            }
                            out
                        }
                    };
                    iters.push(entries.into_iter());
                }
                Op::IterNext { exit } => match iters.last_mut().and_then(Iterator::next) {
                    Some((k, v)) => {
                        let key_val = match k {
                            Key::Int(i) => Value::Num(i as f64),
                            Key::Str(s) => Value::Str(s),
                        };
                        self.stack.push(key_val);
                        self.stack.push(v);
                    }
                    None => {
                        pc = exit as usize;
                        continue;
                    }
                },
                Op::IterEnd => {
                    iters.pop();
                }
            }
            pc += 1;
        }
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("operand stack underflow")
    }

    #[inline]
    fn top(&self) -> &Value {
        self.stack.last().expect("operand stack underflow")
    }

    /// Reads a numeric-`for` control register (always a number: the loop
    /// header coerces via `ToNum`).
    #[inline]
    fn reg_num(&self, base: usize, r: u16) -> f64 {
        match &self.stack[base + r as usize] {
            Value::Num(n) => *n,
            other => unreachable!("for-loop register holds {}", other.type_name()),
        }
    }

    #[inline]
    fn arith(&mut self, f: impl FnOnce(f64, f64) -> f64) -> Result<(), RuntimeError> {
        let r = self.pop();
        let l = self.pop();
        // Left operand's type error surfaces first, like the tree-walker.
        let a = l.as_num()?;
        let b = r.as_num()?;
        self.stack.push(Value::Num(f(a, b)));
        Ok(())
    }

    fn compare(&mut self, f: impl FnOnce(std::cmp::Ordering) -> bool) -> Result<(), RuntimeError> {
        let r = self.pop();
        let l = self.pop();
        let ord = match (&l, &r) {
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => {
                return Err(RuntimeError::TypeError(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                )))
            }
        };
        // NaN comparisons are false.
        self.stack.push(Value::Bool(ord.is_some_and(f)));
        Ok(())
    }
}
