//! AST → bytecode lowering.
//!
//! The compiler turns a parsed `Block` into a [`Chunk`]: flat opcode
//! vectors with jump-patched control flow, a deduplicated constant pool, and
//! an interned name table. The key transformation is **compile-time slot
//! resolution**: every local variable and upvalue is resolved here, once, to
//! a frame index, so the VM's steady-state variable access is an array index
//! instead of the tree-walker's scope-chain `HashMap` walk. Only true
//! globals (instance state and sealed stdlib names) keep the name-addressed
//! path, because hosts mutate them between invocations (`set_global`,
//! `refresh_aa_env`) and handlers must observe those writes.
//!
//! Slot kinds:
//!
//! * **registers** — locals never referenced by a nested function; they live
//!   directly in the frame and die with it.
//! * **cells** (`Rc<RefCell<Value>>`) — locals that some nested function
//!   captures. [`Op::NewCell`] allocates a *fresh* cell each time the
//!   declaration executes, which is what gives captured loop variables their
//!   per-iteration identity. Capture analysis is conservative: any name that
//!   appears anywhere inside a nested function body is cell-allocated, which
//!   is always semantically safe (merely slower for false positives).
//! * **upvalues** — a closure's references into enclosing frames, resolved
//!   transitively ([`UpvalSrc`]) and materialized when [`Op::MakeClosure`]
//!   runs.
//!
//! Scoping is lexical (standard Lua). One deliberate quirk mirrors the
//! tree-walker: the *outermost* block of a script runs with the instance's
//! globals scope as its environment, so top-level `local x` and
//! `local function f` compile to global stores — that is what makes
//! top-level handlers visible to [`crate::AaInstance::handler`].

use crate::ast::*;
use crate::error::{CompileError, Pos};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Where a resolved local lives in its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Direct register: `frame[base + i]`.
    Reg(u16),
    /// Heap cell shared with closures: `cells[i]`.
    Cell(u16),
}

/// Where a closure's upvalue is captured from, relative to the frame
/// executing [`Op::MakeClosure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpvalSrc {
    /// A cell of the enclosing frame.
    ParentCell(u16),
    /// An upvalue of the enclosing closure (transitive capture).
    ParentUpval(u16),
}

/// One bytecode instruction. The VM charges one unit of the instruction
/// budget per executed opcode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push `nil`.
    Nil,
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Push register `i`.
    LoadReg(u16),
    /// Pop into register `i`.
    StoreReg(u16),
    /// Push the contents of cell `i`.
    LoadCell(u16),
    /// Pop into cell `i` (in place; closures sharing the cell observe it).
    StoreCell(u16),
    /// Pop into a *fresh* cell stored at slot `i` (executing a captured
    /// declaration; prior captures keep the old cell).
    NewCell(u16),
    /// Push the contents of upvalue `i`.
    LoadUpval(u16),
    /// Pop into upvalue `i`.
    StoreUpval(u16),
    /// Push the global (or sealed stdlib) binding `names[i]`, nil if absent.
    LoadGlobal(u32),
    /// Pop into the instance-global binding `names[i]`.
    StoreGlobal(u32),
    /// Discard the top of stack.
    Pop,
    /// Unconditional jump to instruction `t`.
    Jump(u32),
    /// Pop; jump to `t` when the value is falsy.
    JumpIfFalse(u32),
    /// `and`: if the top is falsy jump to `t` keeping it, else pop it.
    JumpIfFalseKeep(u32),
    /// `or`: if the top is truthy jump to `t` keeping it, else pop it.
    JumpIfTrueKeep(u32),
    /// Pop `b`, pop `a`, push `a + b`.
    Add,
    /// Pop `b`, pop `a`, push `a - b`.
    Sub,
    /// Pop `b`, pop `a`, push `a * b`.
    Mul,
    /// Pop `b`, pop `a`, push `a / b`.
    Div,
    /// Pop `b`, pop `a`, push the floored modulo `a - floor(a/b)*b`.
    Mod,
    /// Pop `b`, pop `a`, push `a ^ b`.
    Pow,
    /// Pop `b`, pop `a`, push `a .. b`.
    Concat,
    /// Pop `b`, pop `a`, push `a == b`.
    Eq,
    /// Pop `b`, pop `a`, push `a ~= b`.
    Ne,
    /// Pop `b`, pop `a`, push `a < b`.
    Lt,
    /// Pop `b`, pop `a`, push `a <= b`.
    Le,
    /// Pop `b`, pop `a`, push `a > b`.
    Gt,
    /// Pop `b`, pop `a`, push `a >= b`.
    Ge,
    /// Pop `a`, push `-a`.
    Neg,
    /// Pop `a`, push `not a`.
    Not,
    /// Pop `a`, push `#a`.
    Len,
    /// Pop key, pop table, push `table[key]`.
    Index,
    /// Pop a table, push `table[keys[i]]` — the fused form of
    /// `Const k; Index` for literal string keys (`t.field`, `t["field"]`),
    /// skipping the push/pop and the runtime key conversion.
    IndexConst(u32),
    /// Push `globals[names[name]][keys[key]]` — the fully fused form of
    /// `LoadGlobal; IndexConst` for the `AA.field` idiom every handler
    /// leans on (paper Fig. 5).
    GlobalIndexConst {
        /// Index into [`Chunk::names`] of the global.
        name: u32,
        /// Index into [`Chunk::keys`] of the field key.
        key: u32,
    },
    /// Pop key, pop table, pop value, run `table[key] = value`.
    StoreIndex,
    /// Pop a table, pop a value, run `table[keys[i]] = value` — the fused
    /// store counterpart of [`Op::IndexConst`].
    StoreIndexConst(u32),
    /// Push a fresh empty table.
    NewTable,
    /// Pop value, pop key, set them on the table now at the top of stack
    /// (the table stays; used by table constructors).
    SetItem,
    /// Pop an object, push `object.names[i]` then the object again
    /// (method-call receiver threading).
    Method(u32),
    /// Call with `n` arguments: stack holds `f, a1, …, an`; pops all,
    /// pushes the result.
    Call(u8),
    /// Capture upvalues per `protos[i]` and push the closure.
    MakeClosure(u32),
    /// Pop the return value and leave the frame.
    Return,
    /// Pop, coerce to number (numeric-`for` header), push.
    ToNum,
    /// Error if register `i` (the `for` step) is zero.
    ForZeroCheck(u16),
    /// Numeric-`for` test: jump to `exit` when the loop is done.
    ForTest {
        /// Register of the (hidden) loop counter.
        idx: u16,
        /// Register of the stop bound.
        stop: u16,
        /// Register of the step.
        step: u16,
        /// Jump target when the loop finishes.
        exit: u32,
    },
    /// Numeric-`for` advance: `idx += step`, jump back to `top`.
    ForStep {
        /// Register of the (hidden) loop counter.
        idx: u16,
        /// Register of the step.
        step: u16,
        /// Jump target of the loop head.
        top: u32,
    },
    /// Pop a table and push a snapshot iterator onto the frame's iterator
    /// stack (`pairs`/`ipairs`).
    IterPrep(IterKind),
    /// Advance the innermost iterator: push key then value, or jump to
    /// `exit` when exhausted.
    IterNext {
        /// Jump target once the iterator is exhausted (its [`Op::IterEnd`]).
        exit: u32,
    },
    /// Pop the innermost iterator (loop exit and `break` both land here).
    IterEnd,
}

/// One compiled function body.
#[derive(Debug)]
pub struct Proto {
    /// The instruction stream; execution begins at 0 and leaves via
    /// [`Op::Return`].
    pub code: Vec<Op>,
    /// Source position of each instruction, parallel to `code` (the position
    /// of the statement the op was emitted for). The VM never reads this;
    /// the static analyzer uses it to anchor diagnostics.
    pub lines: Vec<Pos>,
    /// Number of register slots the frame needs.
    pub n_regs: u16,
    /// Number of cell slots the frame needs.
    pub n_cells: u16,
    /// Where each parameter is bound, in declaration order.
    pub params: Vec<Slot>,
    /// Capture plan for [`Op::MakeClosure`].
    pub upvals: Vec<UpvalSrc>,
}

/// A fully compiled script: shared, immutable, and instantiated many times
/// (one [`crate::AaInstance`] per resource posting).
#[derive(Debug)]
pub struct Chunk {
    /// Deduplicated literal pool (numbers and strings).
    pub consts: Vec<Value>,
    /// Interned names used by global accesses and method calls.
    pub names: Vec<Rc<str>>,
    /// Pre-built table keys for [`Op::IndexConst`]/[`Op::StoreIndexConst`]
    /// (literal string keys resolved at compile time).
    pub keys: Vec<crate::value::Key>,
    /// Every function body in the script, main last.
    pub protos: Vec<Proto>,
    /// Index of the top-level code in `protos`.
    pub main: usize,
}

/// Lowers a parsed block to bytecode.
///
/// # Errors
///
/// Returns a [`CompileError`] only for capacity overflows (more than `u16`
/// locals in one function, more than 255 call arguments, …) — shapes no
/// real handler reaches.
pub fn compile(block: &Block) -> Result<Chunk, CompileError> {
    let mut c = Compiler {
        consts: Vec::new(),
        const_map: HashMap::new(),
        names: Vec::new(),
        name_map: HashMap::new(),
        keys: Vec::new(),
        key_map: HashMap::new(),
        protos: Vec::new(),
        fns: Vec::new(),
    };
    let main = c.compile_func(&[], block, true)?;
    Ok(Chunk {
        consts: c.consts,
        names: c.names,
        keys: c.keys,
        protos: c.protos,
        main: main as usize,
    })
}

/// Dedup key for the constant pool (`f64` keyed by its bit pattern so the
/// pool can live in a `HashMap`).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Num(u64),
    Str(Rc<str>),
}

enum Resolved {
    Slot(Slot),
    Upval(u16),
    Global,
}

struct BlockScope {
    locals: Vec<(Name, Slot)>,
    reg_mark: u16,
    cell_mark: u16,
}

struct LoopCtx {
    /// `Jump` sites to patch to the loop's exit label.
    breaks: Vec<usize>,
}

struct FnCtx {
    code: Vec<Op>,
    lines: Vec<Pos>,
    /// Position of the statement currently being compiled; stamped on every
    /// emitted op.
    cur_pos: Pos,
    scopes: Vec<BlockScope>,
    n_regs: u16,
    max_regs: u16,
    n_cells: u16,
    max_cells: u16,
    upvals: Vec<UpvalSrc>,
    upval_names: Vec<Name>,
    /// Names referenced anywhere inside nested function bodies — these
    /// locals must live in cells.
    captured: HashSet<Name>,
    loops: Vec<LoopCtx>,
    top_level: bool,
}

struct Compiler {
    consts: Vec<Value>,
    const_map: HashMap<ConstKey, u32>,
    names: Vec<Rc<str>>,
    name_map: HashMap<Rc<str>, u32>,
    keys: Vec<crate::value::Key>,
    key_map: HashMap<Rc<str>, u32>,
    protos: Vec<Proto>,
    fns: Vec<FnCtx>,
}

fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        pos: Pos { line: 0, col: 0 },
        message: message.into(),
    }
}

impl Compiler {
    fn cur(&mut self) -> &mut FnCtx {
        self.fns.last_mut().expect("compiler function stack")
    }

    fn emit(&mut self, op: Op) -> usize {
        let f = self.cur();
        let pos = f.cur_pos;
        f.code.push(op);
        f.lines.push(pos);
        f.code.len() - 1
    }

    fn here(&mut self) -> u32 {
        self.cur().code.len() as u32
    }

    /// Rewrites the jump at `at` to point at the current end of code.
    fn patch_jump(&mut self, at: usize) {
        let target = self.here();
        let op = &mut self.cur().code[at];
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfFalseKeep(t)
            | Op::JumpIfTrueKeep(t)
            | Op::ForTest { exit: t, .. }
            | Op::IterNext { exit: t } => *t = target,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    fn const_idx(&mut self, key: ConstKey, v: impl FnOnce() -> Value) -> Result<u32, CompileError> {
        if let Some(&i) = self.const_map.get(&key) {
            return Ok(i);
        }
        let i = u32::try_from(self.consts.len()).map_err(|_| err("constant pool overflow"))?;
        self.consts.push(v());
        self.const_map.insert(key, i);
        Ok(i)
    }

    fn num_const(&mut self, n: f64) -> Result<u32, CompileError> {
        self.const_idx(ConstKey::Num(n.to_bits()), || Value::Num(n))
    }

    fn str_const(&mut self, s: &Name) -> Result<u32, CompileError> {
        self.const_idx(ConstKey::Str(Rc::clone(s)), || Value::Str(Rc::clone(s)))
    }

    fn key_idx(&mut self, s: &Name) -> Result<u32, CompileError> {
        if let Some(&i) = self.key_map.get(s) {
            return Ok(i);
        }
        let i = u32::try_from(self.keys.len()).map_err(|_| err("key pool overflow"))?;
        self.keys.push(crate::value::Key::Str(Rc::clone(s)));
        self.key_map.insert(Rc::clone(s), i);
        Ok(i)
    }

    fn name_idx(&mut self, name: &Name) -> Result<u32, CompileError> {
        if let Some(&i) = self.name_map.get(name) {
            return Ok(i);
        }
        let i = u32::try_from(self.names.len()).map_err(|_| err("name table overflow"))?;
        self.names.push(Rc::clone(name));
        self.name_map.insert(Rc::clone(name), i);
        Ok(i)
    }

    // ---- scopes and slots ----

    fn begin_scope(&mut self) {
        let f = self.cur();
        f.scopes.push(BlockScope {
            locals: Vec::new(),
            reg_mark: f.n_regs,
            cell_mark: f.n_cells,
        });
    }

    fn end_scope(&mut self) {
        let f = self.cur();
        let sc = f.scopes.pop().expect("scope underflow");
        // Slots are block-scoped: siblings reuse them. Closures keep their
        // captured cells alive through the Rc regardless of slot reuse.
        f.n_regs = sc.reg_mark;
        f.n_cells = sc.cell_mark;
    }

    fn alloc_reg(&mut self) -> Result<u16, CompileError> {
        let f = self.cur();
        let r = f.n_regs;
        f.n_regs = f
            .n_regs
            .checked_add(1)
            .ok_or_else(|| err("too many locals"))?;
        f.max_regs = f.max_regs.max(f.n_regs);
        Ok(r)
    }

    fn alloc_cell(&mut self) -> Result<u16, CompileError> {
        let f = self.cur();
        let c = f.n_cells;
        f.n_cells = f
            .n_cells
            .checked_add(1)
            .ok_or_else(|| err("too many captured locals"))?;
        f.max_cells = f.max_cells.max(f.n_cells);
        Ok(c)
    }

    fn declare_local(&mut self, name: &Name) -> Result<Slot, CompileError> {
        let slot = if self.cur().captured.contains(name) {
            Slot::Cell(self.alloc_cell()?)
        } else {
            Slot::Reg(self.alloc_reg()?)
        };
        let f = self.cur();
        f.scopes
            .last_mut()
            .expect("declaration outside any scope")
            .locals
            .push((Rc::clone(name), slot));
        Ok(slot)
    }

    /// Is the compiler at the outermost block of the top-level code, where
    /// `local` declarations land in the instance globals (matching the
    /// tree-walker, whose top-level environment *is* the globals scope)?
    fn at_main_scope(&mut self) -> bool {
        let f = self.cur();
        f.top_level && f.scopes.len() == 1
    }

    fn find_local(f: &FnCtx, name: &str) -> Option<Slot> {
        f.scopes.iter().rev().find_map(|sc| {
            sc.locals
                .iter()
                .rev()
                .find(|(n, _)| &**n == name)
                .map(|&(_, slot)| slot)
        })
    }

    fn resolve(&mut self, name: &str) -> Resolved {
        let top = self.fns.len() - 1;
        if let Some(slot) = Self::find_local(&self.fns[top], name) {
            return Resolved::Slot(slot);
        }
        match self.resolve_upval(top, name) {
            Some(u) => Resolved::Upval(u),
            None => Resolved::Global,
        }
    }

    /// Resolves `name` as an upvalue of function `fi`, adding capture specs
    /// to every intermediate function (transitive capture).
    fn resolve_upval(&mut self, fi: usize, name: &str) -> Option<u16> {
        if fi == 0 {
            return None;
        }
        if let Some(i) = self.fns[fi].upval_names.iter().position(|n| &**n == name) {
            return Some(i as u16);
        }
        let src = if let Some(slot) = Self::find_local(&self.fns[fi - 1], name) {
            match slot {
                Slot::Cell(c) => UpvalSrc::ParentCell(c),
                // Conservative capture analysis cell-allocates every local
                // referenced from a nested function, so a captured register
                // cannot exist.
                Slot::Reg(_) => unreachable!("captured local in a register"),
            }
        } else {
            UpvalSrc::ParentUpval(self.resolve_upval(fi - 1, name)?)
        };
        let f = &mut self.fns[fi];
        f.upvals.push(src);
        f.upval_names.push(Rc::from(name));
        Some((f.upvals.len() - 1) as u16)
    }

    // ---- functions ----

    fn compile_func(
        &mut self,
        params: &[Name],
        body: &Block,
        top_level: bool,
    ) -> Result<u32, CompileError> {
        let mut captured = HashSet::new();
        captured_names_block(body, false, &mut captured);
        self.fns.push(FnCtx {
            code: Vec::new(),
            lines: Vec::new(),
            cur_pos: Pos { line: 0, col: 0 },
            scopes: Vec::new(),
            n_regs: 0,
            max_regs: 0,
            n_cells: 0,
            max_cells: 0,
            upvals: Vec::new(),
            upval_names: Vec::new(),
            captured,
            loops: Vec::new(),
            top_level,
        });
        self.begin_scope();
        let mut param_slots = Vec::with_capacity(params.len());
        for p in params {
            param_slots.push(self.declare_local(p)?);
        }
        self.compile_stmts(body)?;
        // Implicit `return nil` falling off the end.
        self.emit(Op::Nil);
        self.emit(Op::Return);
        let f = self.fns.pop().expect("function underflow");
        let i = u32::try_from(self.protos.len()).map_err(|_| err("too many functions"))?;
        self.protos.push(Proto {
            code: f.code,
            lines: f.lines,
            n_regs: f.max_regs,
            n_cells: f.max_cells,
            params: param_slots,
            upvals: f.upvals,
        });
        Ok(i)
    }

    /// Compiles a block's statements in a fresh scope.
    fn compile_block(&mut self, block: &Block) -> Result<(), CompileError> {
        self.begin_scope();
        self.compile_stmts(block)?;
        self.end_scope();
        Ok(())
    }

    /// Compiles a block's statements in the *current* scope (function
    /// bodies, `repeat` bodies whose scope must stay open for `until`).
    fn compile_stmts(&mut self, block: &Block) -> Result<(), CompileError> {
        for (i, stmt) in block.stmts.iter().enumerate() {
            if let Some(&p) = block.at.get(i) {
                self.cur().cur_pos = p;
            }
            self.compile_stmt(stmt)?;
        }
        Ok(())
    }

    // ---- statements ----

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Local(name, init) => {
                match init {
                    Some(e) => self.compile_expr(e)?,
                    None => {
                        self.emit(Op::Nil);
                    }
                }
                if self.at_main_scope() {
                    let ni = self.name_idx(name)?;
                    self.emit(Op::StoreGlobal(ni));
                } else {
                    // Declared *after* the initializer: `local x = x` reads
                    // the outer binding.
                    let slot = self.declare_local(name)?;
                    self.emit_decl_store(slot);
                }
                Ok(())
            }
            Stmt::Assign(target, expr) => {
                // Value first, then the target's object/key — the evaluation
                // order the tree-walker uses.
                self.compile_expr(expr)?;
                self.compile_store_target(target)
            }
            Stmt::ExprStmt(e) => {
                self.compile_expr(e)?;
                self.emit(Op::Pop);
                Ok(())
            }
            Stmt::If(arms, else_body) => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.compile_expr(cond)?;
                    let jf = self.emit(Op::JumpIfFalse(0));
                    self.compile_block(body)?;
                    end_jumps.push(self.emit(Op::Jump(0)));
                    self.patch_jump(jf);
                }
                if let Some(body) = else_body {
                    self.compile_block(body)?;
                }
                for j in end_jumps {
                    self.patch_jump(j);
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let top = self.here();
                self.compile_expr(cond)?;
                let exit = self.emit(Op::JumpIfFalse(0));
                self.cur().loops.push(LoopCtx { breaks: Vec::new() });
                self.compile_block(body)?;
                self.emit(Op::Jump(top));
                self.patch_jump(exit);
                self.finish_loop()
            }
            Stmt::Repeat(body, cond) => {
                let top = self.here();
                self.cur().loops.push(LoopCtx { breaks: Vec::new() });
                // The until-condition sees the body's scope.
                self.begin_scope();
                self.compile_stmts(body)?;
                self.compile_expr(cond)?;
                self.end_scope();
                self.emit(Op::JumpIfFalse(top));
                self.finish_loop()
            }
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                self.begin_scope();
                let idx = self.alloc_reg()?;
                let stop_r = self.alloc_reg()?;
                let step_r = self.alloc_reg()?;
                self.compile_expr(start)?;
                self.emit(Op::ToNum);
                self.emit(Op::StoreReg(idx));
                self.compile_expr(stop)?;
                self.emit(Op::ToNum);
                self.emit(Op::StoreReg(stop_r));
                match step {
                    Some(e) => {
                        self.compile_expr(e)?;
                        self.emit(Op::ToNum);
                    }
                    None => {
                        let one = self.num_const(1.0)?;
                        self.emit(Op::Const(one));
                    }
                }
                self.emit(Op::StoreReg(step_r));
                self.emit(Op::ForZeroCheck(step_r));
                let top = self.here();
                let test = self.emit(Op::ForTest {
                    idx,
                    stop: stop_r,
                    step: step_r,
                    exit: 0,
                });
                self.cur().loops.push(LoopCtx { breaks: Vec::new() });
                self.begin_scope();
                let slot = self.declare_local(var)?;
                self.emit(Op::LoadReg(idx));
                self.emit_decl_store(slot);
                self.compile_stmts(body)?;
                self.end_scope();
                self.emit(Op::ForStep {
                    idx,
                    step: step_r,
                    top,
                });
                self.patch_jump(test);
                self.finish_loop()?;
                self.end_scope();
                Ok(())
            }
            Stmt::GenericFor {
                k,
                v,
                kind,
                expr,
                body,
            } => {
                self.compile_expr(expr)?;
                self.emit(Op::IterPrep(*kind));
                let top = self.here();
                let next = self.emit(Op::IterNext { exit: 0 });
                self.cur().loops.push(LoopCtx { breaks: Vec::new() });
                self.begin_scope();
                let k_slot = self.declare_local(k)?;
                // IterNext pushed key then value; bind value (top) first.
                match v {
                    Some(vname) => {
                        let v_slot = self.declare_local(vname)?;
                        self.emit_decl_store(v_slot);
                    }
                    None => {
                        self.emit(Op::Pop);
                    }
                }
                self.emit_decl_store(k_slot);
                self.compile_stmts(body)?;
                self.end_scope();
                self.emit(Op::Jump(top));
                self.patch_jump(next);
                // break jumps land here too, so the iterator is always
                // popped on the way out.
                self.finish_loop()?;
                self.emit(Op::IterEnd);
                Ok(())
            }
            Stmt::FuncDecl { target, def } => {
                let proto = self.compile_func(&def.params, &def.body, false)?;
                self.emit(Op::MakeClosure(proto));
                self.compile_store_target(target)
            }
            Stmt::LocalFunc { name, def } => {
                if self.at_main_scope() {
                    let proto = self.compile_func(&def.params, &def.body, false)?;
                    self.emit(Op::MakeClosure(proto));
                    let ni = self.name_idx(name)?;
                    self.emit(Op::StoreGlobal(ni));
                    return Ok(());
                }
                // Declare before compiling the body so it can recurse.
                let slot = self.declare_local(name)?;
                if let Slot::Cell(c) = slot {
                    // The cell must exist before MakeClosure captures it.
                    self.emit(Op::Nil);
                    self.emit(Op::NewCell(c));
                }
                let proto = self.compile_func(&def.params, &def.body, false)?;
                self.emit(Op::MakeClosure(proto));
                match slot {
                    Slot::Reg(r) => self.emit(Op::StoreReg(r)),
                    Slot::Cell(c) => self.emit(Op::StoreCell(c)),
                };
                Ok(())
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.compile_expr(e)?,
                    None => {
                        self.emit(Op::Nil);
                    }
                }
                self.emit(Op::Return);
                Ok(())
            }
            Stmt::Break => {
                if self.cur().loops.is_empty() {
                    // The tree-walker treats a stray top-level break as
                    // "stop the script"; match it.
                    self.emit(Op::Nil);
                    self.emit(Op::Return);
                    return Ok(());
                }
                let j = self.emit(Op::Jump(0));
                self.cur()
                    .loops
                    .last_mut()
                    .expect("loop context")
                    .breaks
                    .push(j);
                Ok(())
            }
        }
    }

    /// Pops the innermost loop context and patches its breaks to land here.
    fn finish_loop(&mut self) -> Result<(), CompileError> {
        let ctx = self.cur().loops.pop().expect("loop underflow");
        for j in ctx.breaks {
            self.patch_jump(j);
        }
        Ok(())
    }

    /// Emits the store for a freshly declared local (the value is on top of
    /// the stack). Cells get a *new* allocation so earlier captures are
    /// unaffected.
    fn emit_decl_store(&mut self, slot: Slot) {
        match slot {
            Slot::Reg(r) => self.emit(Op::StoreReg(r)),
            Slot::Cell(c) => self.emit(Op::NewCell(c)),
        };
    }

    /// Emits the store consuming the value on top of the stack into an
    /// assignment target.
    fn compile_store_target(&mut self, target: &Target) -> Result<(), CompileError> {
        match target {
            Target::Name(n) => {
                match self.resolve(n) {
                    Resolved::Slot(Slot::Reg(r)) => self.emit(Op::StoreReg(r)),
                    Resolved::Slot(Slot::Cell(c)) => self.emit(Op::StoreCell(c)),
                    Resolved::Upval(u) => self.emit(Op::StoreUpval(u)),
                    Resolved::Global => {
                        let ni = self.name_idx(n)?;
                        self.emit(Op::StoreGlobal(ni))
                    }
                };
                Ok(())
            }
            Target::Index(obj, key) => {
                self.compile_expr(obj)?;
                if let Expr::Str(s) = &**key {
                    let ki = self.key_idx(s)?;
                    self.emit(Op::StoreIndexConst(ki));
                } else {
                    self.compile_expr(key)?;
                    self.emit(Op::StoreIndex);
                }
                Ok(())
            }
        }
    }

    // ---- expressions ----

    fn compile_expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::Nil => {
                self.emit(Op::Nil);
                Ok(())
            }
            Expr::Bool(true) => {
                self.emit(Op::True);
                Ok(())
            }
            Expr::Bool(false) => {
                self.emit(Op::False);
                Ok(())
            }
            Expr::Num(n) => {
                let i = self.num_const(*n)?;
                self.emit(Op::Const(i));
                Ok(())
            }
            Expr::Str(s) => {
                let i = self.str_const(s)?;
                self.emit(Op::Const(i));
                Ok(())
            }
            Expr::Var(n) => {
                match self.resolve(n) {
                    Resolved::Slot(Slot::Reg(r)) => self.emit(Op::LoadReg(r)),
                    Resolved::Slot(Slot::Cell(c)) => self.emit(Op::LoadCell(c)),
                    Resolved::Upval(u) => self.emit(Op::LoadUpval(u)),
                    Resolved::Global => {
                        let ni = self.name_idx(n)?;
                        self.emit(Op::LoadGlobal(ni))
                    }
                };
                Ok(())
            }
            Expr::Index(obj, key) => {
                if let (Expr::Var(n), Expr::Str(s)) = (&**obj, &**key) {
                    if matches!(self.resolve(n), Resolved::Global) {
                        let name = self.name_idx(n)?;
                        let key = self.key_idx(s)?;
                        self.emit(Op::GlobalIndexConst { name, key });
                        return Ok(());
                    }
                }
                self.compile_expr(obj)?;
                if let Expr::Str(s) = &**key {
                    let ki = self.key_idx(s)?;
                    self.emit(Op::IndexConst(ki));
                } else {
                    self.compile_expr(key)?;
                    self.emit(Op::Index);
                }
                Ok(())
            }
            Expr::Call(f, args) => {
                self.compile_expr(f)?;
                for a in args {
                    self.compile_expr(a)?;
                }
                let n = u8::try_from(args.len()).map_err(|_| err("too many call arguments"))?;
                self.emit(Op::Call(n));
                Ok(())
            }
            Expr::MethodCall(obj, method, args) => {
                self.compile_expr(obj)?;
                let ni = self.name_idx(method)?;
                self.emit(Op::Method(ni));
                for a in args {
                    self.compile_expr(a)?;
                }
                let n = u8::try_from(args.len() + 1).map_err(|_| err("too many call arguments"))?;
                self.emit(Op::Call(n));
                Ok(())
            }
            Expr::Bin(BinOp::And, l, r) => {
                self.compile_expr(l)?;
                let j = self.emit(Op::JumpIfFalseKeep(0));
                self.compile_expr(r)?;
                self.patch_jump(j);
                Ok(())
            }
            Expr::Bin(BinOp::Or, l, r) => {
                self.compile_expr(l)?;
                let j = self.emit(Op::JumpIfTrueKeep(0));
                self.compile_expr(r)?;
                self.patch_jump(j);
                Ok(())
            }
            Expr::Bin(op, l, r) => {
                self.compile_expr(l)?;
                self.compile_expr(r)?;
                self.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Pow => Op::Pow,
                    BinOp::Concat => Op::Concat,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
                Ok(())
            }
            Expr::Un(op, e) => {
                self.compile_expr(e)?;
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                    UnOp::Len => Op::Len,
                });
                Ok(())
            }
            Expr::TableCtor(items) => {
                self.emit(Op::NewTable);
                let mut next_index = 1i64;
                for item in items {
                    match item {
                        TableItem::Positional(e) => {
                            let i = self.num_const(next_index as f64)?;
                            self.emit(Op::Const(i));
                            self.compile_expr(e)?;
                            next_index += 1;
                        }
                        TableItem::Named(n, e) => {
                            let i = self.str_const(n)?;
                            self.emit(Op::Const(i));
                            self.compile_expr(e)?;
                        }
                        TableItem::Keyed(k, e) => {
                            self.compile_expr(k)?;
                            self.compile_expr(e)?;
                        }
                    }
                    self.emit(Op::SetItem);
                }
                Ok(())
            }
            Expr::Func(def) => {
                let proto = self.compile_func(&def.params, &def.body, false)?;
                self.emit(Op::MakeClosure(proto));
                Ok(())
            }
        }
    }
}

// ---- conservative capture analysis ----

/// Collects every variable name referenced (read or written) inside any
/// function definition nested within `block` — the names whose enclosing
/// locals must be cell-allocated. `nested` says whether `block` itself is
/// already inside such a definition.
fn captured_names_block(block: &Block, nested: bool, out: &mut HashSet<Name>) {
    for stmt in &block.stmts {
        if let (
            true,
            Stmt::Assign(Target::Name(n), _)
            | Stmt::FuncDecl {
                target: Target::Name(n),
                ..
            },
        ) = (nested, stmt)
        {
            out.insert(Rc::clone(n));
        }
        stmt.for_each_child(|c| captured_names_child(c, nested, out));
    }
}

fn captured_names_child(child: Child<'_>, nested: bool, out: &mut HashSet<Name>) {
    match child {
        Child::Expr(e) => {
            if let (true, Expr::Var(n)) = (nested, e) {
                out.insert(Rc::clone(n));
            }
            e.for_each_child(|c| captured_names_child(c, nested, out));
        }
        Child::Block(b) => captured_names_block(b, nested, out),
        Child::Func(def) => captured_names_block(&def.body, true, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn chunk_of(src: &str) -> Chunk {
        compile(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn literals_are_pooled_once() {
        let c = chunk_of(r#"x = "hi" .. "hi" .. "hi" y = 1 + 1"#);
        let strs = c
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Str(_)))
            .count();
        let nums = c
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Num(_)))
            .count();
        assert_eq!(strs, 1, "identical string literals share one slot");
        assert_eq!(nums, 1, "identical numbers share one slot");
    }

    #[test]
    fn locals_resolve_to_slots_not_names() {
        // A function-local variable must never emit a global access.
        let c = chunk_of("function f(a) local b = a + 1 return b end");
        let f = &c.protos[0];
        assert!(
            !f.code
                .iter()
                .any(|op| matches!(op, Op::LoadGlobal(_) | Op::StoreGlobal(_))),
            "locals must compile to register slots: {:?}",
            f.code
        );
        assert!(f.code.iter().any(|op| matches!(op, Op::LoadReg(_))));
    }

    #[test]
    fn top_level_locals_become_instance_globals() {
        // Matching the tree-walker: the script's outermost block runs in the
        // globals scope, so handlers see top-level locals.
        let c = chunk_of("local x = 1");
        let main = &c.protos[c.main];
        assert!(main.code.iter().any(|op| matches!(op, Op::StoreGlobal(_))));
    }

    #[test]
    fn captured_locals_get_cells_plain_locals_get_registers() {
        let c = chunk_of(
            "function outer()
                 local shared = 0
                 local plain = 1
                 local function inc() shared = shared + 1 end
                 inc()
                 return plain
             end",
        );
        let outer = c
            .protos
            .iter()
            .find(|p| p.code.iter().any(|op| matches!(op, Op::NewCell(_))))
            .expect("outer must cell-allocate `shared`");
        assert!(
            outer.code.iter().any(|op| matches!(op, Op::StoreReg(_))),
            "`plain` must stay in a register"
        );
        // The inner function reaches `shared` through an upvalue.
        let inner = c
            .protos
            .iter()
            .find(|p| !p.upvals.is_empty())
            .expect("inner must capture an upvalue");
        assert_eq!(inner.upvals, vec![UpvalSrc::ParentCell(0)]);

        // Is `outer`'s one local a cell? (`outer` is the last proto before
        // main; its closures compile first.)
        let outer_cells = |body: &str| {
            let c = chunk_of(&format!("function outer() {body} end"));
            let outer = &c.protos[c.main - 1];
            assert_eq!(outer.n_cells + outer.n_regs, 1, "one local: {body}");
            outer.n_cells == 1
        };
        assert!(
            outer_cells("local w = 0 return function() w = 1 end"),
            "a closure that only assigns (never reads) still captures"
        );
        assert!(
            outer_cells("local cb return function() function cb() end end"),
            "naming a local as a `function name()` target inside a closure captures it"
        );
        assert!(
            !outer_cells("local r = 0 r = 1 function r() end return function() end"),
            "the same writes at the outer level capture nothing"
        );
        // Two function levels down: the middle function relays the cell.
        let c = chunk_of(
            "function outer()
                 local deep = 0
                 return function() return function() return deep end end
             end",
        );
        let [innermost, middle, outer, _main] = &c.protos[..] else {
            panic!("three functions and main: {}", c.protos.len());
        };
        assert_eq!(outer.n_cells, 1);
        assert_eq!(middle.upvals, vec![UpvalSrc::ParentCell(0)]);
        assert_eq!(innermost.upvals, vec![UpvalSrc::ParentUpval(0)]);
    }

    #[test]
    fn jumps_are_patched_in_bounds() {
        let c = chunk_of(
            "for i = 1, 10 do
                 if i % 2 == 0 then x = i else y = i end
                 while y do y = nil end
             end
             for k, v in pairs(t) do z = k end",
        );
        for p in &c.protos {
            for op in &p.code {
                let t = match op {
                    Op::Jump(t)
                    | Op::JumpIfFalse(t)
                    | Op::JumpIfFalseKeep(t)
                    | Op::JumpIfTrueKeep(t)
                    | Op::ForTest { exit: t, .. }
                    | Op::ForStep { top: t, .. }
                    | Op::IterNext { exit: t } => *t,
                    _ => continue,
                };
                assert!((t as usize) < p.code.len(), "jump target {t} out of bounds");
            }
        }
    }

    #[test]
    fn slot_counts_cover_loop_hidden_registers() {
        let c = chunk_of("function f() for i = 1, 3 do local a = i end end");
        let f = &c.protos[0];
        // idx/stop/step hidden regs + i + a.
        assert!(f.n_regs >= 5, "expected ≥5 registers, got {}", f.n_regs);
    }
}
