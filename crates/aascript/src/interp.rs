//! The tree-walking evaluator with its sandbox protections, and the scope
//! chains ([`Env`]) it and the VM keep globals in. Hosts run the VM; this
//! evaluator is the reference the differential tests compare it against,
//! reached through [`crate::oracle`].
//!
//! Every AST node visited consumes one unit of the instruction budget; when
//! the budget runs out the handler is terminated immediately with
//! [`RuntimeError::BudgetExhausted`]. This mirrors the paper's modified Lua
//! interpreter, which "strictly limits the number of bytecode instructions a
//! handler can execute" (§III.B). A call-depth limit guards the Rust stack.

use crate::ast::*;
use crate::error::RuntimeError;
use crate::value::{Closure, Key, Table, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One lexical scope: a mutable variable map plus a parent link.
///
/// A *sealed* scope (the shared stdlib environment) can be read through but
/// never mutated by scripts: assignments to names found only in sealed
/// scopes create instance-global shadows instead. This lets many AA
/// instances share one stdlib environment safely.
#[derive(Debug, Default)]
pub struct Scope {
    vars: RefCell<HashMap<Name, Value>>,
    parent: Option<Env>,
    sealed: bool,
}

/// A shared handle to a scope chain.
pub type Env = Rc<Scope>;

/// Creates a fresh root (global) scope.
pub fn root_env() -> Env {
    Rc::new(Scope::default())
}

/// Marks construction of a sealed scope: scripts can read its bindings but
/// assignments will shadow them in the instance scope instead of mutating.
pub fn sealed_env_from(env: Env) -> Env {
    Rc::new(Scope {
        vars: RefCell::new(env.vars.borrow().clone()),
        parent: env.parent.clone(),
        sealed: true,
    })
}

/// Creates a child scope of `parent`.
pub fn child_env(parent: &Env) -> Env {
    Rc::new(Scope {
        vars: RefCell::new(HashMap::new()),
        parent: Some(Rc::clone(parent)),
        sealed: false,
    })
}

/// Approximate heap footprint of the bindings in exactly this scope (not
/// its parents), used for the Fig. 8c memory accounting.
pub fn scope_size_bytes(env: &Env) -> usize {
    env.vars
        .borrow()
        .iter()
        .map(|(k, v)| k.len() + v.size_bytes())
        .sum()
}

/// Declares `name` in exactly this scope (shadowing outer bindings).
pub fn declare(env: &Env, name: &str, value: Value) {
    let mut vars = env.vars.borrow_mut();
    // Fast path: redeclaration updates in place without allocating a key.
    if let Some(slot) = vars.get_mut(name) {
        *slot = value;
    } else {
        vars.insert(Rc::from(name), value);
    }
}

/// [`declare`] with an already-interned name: never allocates.
pub fn declare_interned(env: &Env, name: &Name, value: Value) {
    let mut vars = env.vars.borrow_mut();
    if let Some(slot) = vars.get_mut(&**name) {
        *slot = value;
    } else {
        vars.insert(Rc::clone(name), value);
    }
}

/// Reads a variable by walking the scope chain; absent names read as nil
/// (Lua semantics).
pub fn lookup(env: &Env, name: &str) -> Value {
    let mut cur = Some(env);
    while let Some(scope) = cur {
        if let Some(v) = scope.vars.borrow().get(name) {
            return v.clone();
        }
        cur = scope.parent.as_ref();
    }
    Value::Nil
}

/// Assigns to the innermost *unsealed* scope declaring `name`; if none
/// does, the assignment creates a binding in `globals` (the instance's
/// global scope), like Lua's global assignment. Sealed scopes are never
/// mutated — names found only there are shadowed in `globals`.
pub fn assign(env: &Env, globals: &Env, name: &Name, value: Value) {
    let mut cur = Rc::clone(env);
    loop {
        if !cur.sealed {
            // One borrow, one hash: update in place when the binding exists.
            if let Some(slot) = cur.vars.borrow_mut().get_mut(&**name) {
                *slot = value;
                return;
            }
        }
        match &cur.parent {
            Some(p) => {
                let next = Rc::clone(p);
                cur = next;
            }
            None => {
                declare_interned(globals, name, value);
                return;
            }
        }
    }
}

enum Flow {
    Normal,
    Break,
    Return(Value),
}

/// The evaluator. Holds only the sandbox counters; all program state lives
/// in [`Env`] scope chains and shared tables.
#[derive(Debug)]
pub struct Interp {
    /// Remaining instruction budget for the current invocation.
    pub budget: u64,
    depth: u32,
    max_depth: u32,
    globals: Env,
}

impl Interp {
    /// Creates an evaluator with the given instruction budget; `globals` is
    /// where global assignments land.
    pub fn new(budget: u64, globals: Env) -> Self {
        Interp {
            budget,
            depth: 0,
            max_depth: 120,
            globals,
        }
    }

    fn step(&mut self) -> Result<(), RuntimeError> {
        if self.budget == 0 {
            return Err(RuntimeError::BudgetExhausted);
        }
        self.budget -= 1;
        Ok(())
    }

    /// Executes a whole script block in `env`, returning the value of a
    /// top-level `return` (or nil).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], including budget exhaustion.
    pub fn exec_chunk(&mut self, block: &Block, env: &Env) -> Result<Value, RuntimeError> {
        match self.exec_block(block, env)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Nil),
        }
    }

    /// Calls a function value with arguments.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TypeError`] when `f` is not callable, plus anything
    /// the body raises.
    pub fn call(&mut self, f: &Value, args: &[Value]) -> Result<Value, RuntimeError> {
        self.step()?;
        match f {
            // `pcall(f, ...)` is a special form: it needs the interpreter
            // to run `f` and catch script-level errors. Sandbox errors
            // (budget exhaustion, stack overflow) are deliberately NOT
            // catchable — a handler cannot shield itself from termination.
            Value::Native("pcall", _) => {
                let Some(inner) = args.first() else {
                    return Err(RuntimeError::Other("pcall needs a function".into()));
                };
                let result = self.call(inner, &args[1..]);
                let table = crate::value::Table::new();
                let table = std::rc::Rc::new(std::cell::RefCell::new(table));
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
            Value::Func(closure) => {
                if self.depth >= self.max_depth {
                    return Err(RuntimeError::StackOverflow);
                }
                self.depth += 1;
                let scope = child_env(&closure.env);
                for (i, p) in closure.def.params.iter().enumerate() {
                    declare_interned(&scope, p, args.get(i).cloned().unwrap_or(Value::Nil));
                }
                let result = self.exec_block(&closure.def.body, &scope);
                self.depth -= 1;
                match result? {
                    Flow::Return(v) => Ok(v),
                    _ => Ok(Value::Nil),
                }
            }
            Value::Native(_, nf) => nf(args),
            other => Err(RuntimeError::TypeError(format!(
                "attempt to call a {} value",
                other.type_name()
            ))),
        }
    }

    fn exec_block(&mut self, block: &Block, env: &Env) -> Result<Flow, RuntimeError> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &Env) -> Result<Flow, RuntimeError> {
        self.step()?;
        match stmt {
            Stmt::Local(name, init) => {
                let v = match init {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Nil,
                };
                declare_interned(env, name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign(target, expr) => {
                let v = self.eval(expr, env)?;
                self.assign_target(target, v, env)?;
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::If(arms, else_body) => {
                for (cond, body) in arms {
                    if self.eval(cond, env)?.truthy() {
                        let scope = child_env(env);
                        return self.exec_block(body, &scope);
                    }
                }
                if let Some(body) = else_body {
                    let scope = child_env(env);
                    return self.exec_block(body, &scope);
                }
                Ok(Flow::Normal)
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, env)?.truthy() {
                    self.step()?;
                    let scope = child_env(env);
                    match self.exec_block(body, &scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Repeat(body, cond) => {
                loop {
                    self.step()?;
                    let scope = child_env(env);
                    match self.exec_block(body, &scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal => {}
                    }
                    // The until condition sees the body's scope in Lua; we
                    // approximate with the parent scope.
                    if self.eval(cond, &scope)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let mut i = self.eval(start, env)?.as_num()?;
                let stop = self.eval(stop, env)?.as_num()?;
                let step = match step {
                    Some(e) => self.eval(e, env)?.as_num()?,
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(RuntimeError::Other("for step must be non-zero".into()));
                }
                while (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                    self.step()?;
                    let scope = child_env(env);
                    declare_interned(&scope, var, Value::Num(i));
                    match self.exec_block(body, &scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal => {}
                    }
                    i += step;
                }
                Ok(Flow::Normal)
            }
            Stmt::GenericFor {
                k,
                v,
                kind,
                expr,
                body,
            } => {
                let t = self.eval(expr, env)?;
                let Value::Table(t) = t else {
                    return Err(RuntimeError::TypeError(format!(
                        "cannot iterate a {}",
                        t.type_name()
                    )));
                };
                // Snapshot entries so body mutations cannot invalidate the
                // walk (Lua forbids such mutation; we make it safe).
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
                for (key, value) in entries {
                    self.step()?;
                    let scope = child_env(env);
                    let key_val = match key {
                        Key::Int(i) => Value::Num(i as f64),
                        Key::Str(s) => Value::Str(s),
                    };
                    declare_interned(&scope, k, key_val);
                    if let Some(vname) = v {
                        declare_interned(&scope, vname, value);
                    }
                    match self.exec_block(body, &scope)? {
                        Flow::Break => break,
                        Flow::Return(rv) => return Ok(Flow::Return(rv)),
                        Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FuncDecl { target, def } => {
                // divergence (DESIGN.md §10, item 3): walker closures
                // capture their *whole* defining environment, so a handler
                // stored into the globals it captures forms an `Rc` cycle
                // this engine never breaks (pinned by
                // `treewalk_closure_env_cycle_is_the_documented_divergence`
                // in lib.rs). VM closures capture individual cells and are
                // fully reclaimed — one reason the VM is the engine.
                let f = Value::Func(Rc::new(Closure {
                    def: Rc::clone(def),
                    env: Rc::clone(env),
                }));
                self.assign_target(target, f, env)?;
                Ok(Flow::Normal)
            }
            Stmt::LocalFunc { name, def } => {
                // Declare first so the function can recurse.
                declare_interned(env, name, Value::Nil);
                let f = Value::Func(Rc::new(Closure {
                    def: Rc::clone(def),
                    env: Rc::clone(env),
                }));
                declare_interned(env, name, f);
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
        }
    }

    fn assign_target(
        &mut self,
        target: &Target,
        value: Value,
        env: &Env,
    ) -> Result<(), RuntimeError> {
        match target {
            Target::Name(n) => {
                assign(env, &self.globals, n, value);
                Ok(())
            }
            Target::Index(obj, key) => {
                let obj = self.eval(obj, env)?;
                let key = self.eval(key, env)?;
                let Value::Table(t) = obj else {
                    return Err(RuntimeError::TypeError(format!(
                        "cannot index a {} value",
                        obj.type_name()
                    )));
                };
                let key = Key::from_value(&key)?;
                t.borrow_mut().set(key, value);
                Ok(())
            }
        }
    }

    fn eval(&mut self, expr: &Expr, env: &Env) -> Result<Value, RuntimeError> {
        self.step()?;
        match expr {
            Expr::Nil => Ok(Value::Nil),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(Rc::clone(s))),
            Expr::Var(n) => Ok(lookup(env, n)),
            Expr::Index(obj, key) => {
                let obj = self.eval(obj, env)?;
                let key = self.eval(key, env)?;
                match obj {
                    Value::Table(t) => {
                        let key = Key::from_value(&key)?;
                        Ok(t.borrow().get(&key))
                    }
                    other => Err(RuntimeError::TypeError(format!(
                        "cannot index a {} value",
                        other.type_name()
                    ))),
                }
            }
            Expr::Call(f, args) => {
                let f = self.eval(f, env)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call(&f, &vals)
            }
            Expr::MethodCall(obj, method, args) => {
                let obj = self.eval(obj, env)?;
                let f = match &obj {
                    Value::Table(t) => t.borrow().get(&Key::Str(method.clone())),
                    other => {
                        return Err(RuntimeError::TypeError(format!(
                            "cannot call method on a {} value",
                            other.type_name()
                        )))
                    }
                };
                let mut vals = Vec::with_capacity(args.len() + 1);
                vals.push(obj);
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call(&f, &vals)
            }
            Expr::Bin(op, l, r) => self.eval_bin(*op, l, r, env),
            Expr::Un(op, e) => {
                let v = self.eval(e, env)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.as_num()?)),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Len => match &v {
                        Value::Str(s) => Ok(Value::Num(s.len() as f64)),
                        Value::Table(t) => Ok(Value::Num(t.borrow().len() as f64)),
                        other => Err(RuntimeError::TypeError(format!(
                            "cannot take length of a {}",
                            other.type_name()
                        ))),
                    },
                }
            }
            Expr::TableCtor(items) => {
                let mut table = Table::new();
                let mut next_index = 1i64;
                for item in items {
                    match item {
                        TableItem::Positional(e) => {
                            let v = self.eval(e, env)?;
                            table.set(Key::Int(next_index), v);
                            next_index += 1;
                        }
                        TableItem::Named(n, e) => {
                            let v = self.eval(e, env)?;
                            table.set(Key::Str(n.clone()), v);
                        }
                        TableItem::Keyed(k, e) => {
                            let kv = self.eval(k, env)?;
                            let v = self.eval(e, env)?;
                            table.set(Key::from_value(&kv)?, v);
                        }
                    }
                }
                Ok(Value::Table(Rc::new(RefCell::new(table))))
            }
            // divergence: whole-environment capture, same as FuncDecl above.
            Expr::Func(def) => Ok(Value::Func(Rc::new(Closure {
                def: Rc::clone(def),
                env: Rc::clone(env),
            }))),
        }
    }

    fn eval_bin(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        env: &Env,
    ) -> Result<Value, RuntimeError> {
        // Short-circuit forms first.
        match op {
            BinOp::And => {
                let lv = self.eval(l, env)?;
                if !lv.truthy() {
                    return Ok(lv);
                }
                return self.eval(r, env);
            }
            BinOp::Or => {
                let lv = self.eval(l, env)?;
                if lv.truthy() {
                    return Ok(lv);
                }
                return self.eval(r, env);
            }
            _ => {}
        }
        let lv = self.eval(l, env)?;
        let rv = self.eval(r, env)?;
        match op {
            BinOp::Add => Ok(Value::Num(lv.as_num()? + rv.as_num()?)),
            BinOp::Sub => Ok(Value::Num(lv.as_num()? - rv.as_num()?)),
            BinOp::Mul => Ok(Value::Num(lv.as_num()? * rv.as_num()?)),
            BinOp::Div => Ok(Value::Num(lv.as_num()? / rv.as_num()?)),
            BinOp::Mod => {
                let (a, b) = (lv.as_num()?, rv.as_num()?);
                Ok(Value::Num(a - (a / b).floor() * b))
            }
            BinOp::Pow => Ok(Value::Num(lv.as_num()?.powf(rv.as_num()?))),
            BinOp::Concat => {
                let mut s = lv.concat_str()?;
                s.push_str(&rv.concat_str()?);
                Ok(Value::str(s))
            }
            BinOp::Eq => Ok(Value::Bool(lv.script_eq(&rv))),
            BinOp::Ne => Ok(Value::Bool(!lv.script_eq(&rv))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = match (&lv, &rv) {
                    (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
                    (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                    _ => {
                        return Err(RuntimeError::TypeError(format!(
                            "cannot compare {} with {}",
                            lv.type_name(),
                            rv.type_name()
                        )))
                    }
                };
                let Some(ord) = ord else {
                    return Ok(Value::Bool(false)); // NaN comparisons
                };
                let b = match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
pub mod testing {
    use super::{Env, Name};

    /// The names bound in exactly this scope.
    pub fn scope_names(env: &Env) -> Vec<Name> {
        env.vars.borrow().keys().cloned().collect()
    }
}
