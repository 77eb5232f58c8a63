//! AST-level lints: handler-name typos, stdlib misuse, and global writes
//! outside the `AA` namespace.
//!
//! These run over the source AST (where statement positions live) rather
//! than the bytecode; the scope tracking mirrors the compiler's rules —
//! in particular, top-level `local`s are instance globals, so they are
//! *not* treated as lexical locals here either.

use super::diag::{Diagnostic, LintId};
use crate::ast::*;
use crate::error::Pos;
use crate::stdlib::{builtin_fn, module_members, stdlib_member, Def};
use std::collections::HashSet;

/// Levenshtein distance, for "did you mean" suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within edit distance 2, if any.
fn suggest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(name, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Whether `name` looks like a handler definition (`on` + capitalized
/// word): anything shaped like this that is not a real handler name is a
/// deny-by-typo bug.
fn handlerish(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next() == Some('o')
        && chars.next() == Some('n')
        && chars.next().is_some_and(|c| c.is_ascii_uppercase())
}

struct AstLinter {
    diags: Vec<Diagnostic>,
    /// Lexical scopes (innermost last), crossing function boundaries so
    /// upvalue writes are not mistaken for global writes. Top-level
    /// `local`s are instance globals and never enter a scope.
    scopes: Vec<HashSet<Name>>,
    /// Function-nesting depth; 0 = top-level statements.
    depth: usize,
    /// Stdlib names the script itself rebinds — their lints are disabled.
    shadowed: HashSet<Name>,
    cur_pos: Pos,
}

/// Runs the AST lints (AA001, AA003, AA004, AA005) over a parsed script.
pub fn ast_lints(block: &Block) -> Vec<Diagnostic> {
    let mut shadowed = HashSet::new();
    collect_shadowed(block, &mut shadowed);
    let mut l = AstLinter {
        diags: Vec::new(),
        scopes: vec![HashSet::new()],
        depth: 0,
        shadowed,
        cur_pos: Pos { line: 1, col: 1 },
    };
    l.walk_block(block);
    l.diags
}

/// Collects stdlib names the script rebinds anywhere (locals, params, loop
/// variables, assignments): member/arity lints must not second-guess a
/// user-defined `string` table.
fn collect_shadowed(block: &Block, out: &mut HashSet<Name>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Local(n, _)
            | Stmt::Assign(Target::Name(n), _)
            | Stmt::NumericFor { var: n, .. }
            | Stmt::FuncDecl {
                target: Target::Name(n),
                ..
            }
            | Stmt::LocalFunc { name: n, .. } => shadow(n, out),
            Stmt::GenericFor { k, v, .. } => {
                shadow(k, out);
                v.iter().for_each(|v| shadow(v, out));
            }
            _ => {}
        }
        stmt.for_each_child(|c| collect_shadowed_child(c, out));
    }
}

fn collect_shadowed_child(child: Child<'_>, out: &mut HashSet<Name>) {
    match child {
        Child::Expr(e) => e.for_each_child(|c| collect_shadowed_child(c, out)),
        Child::Block(b) => collect_shadowed(b, out),
        Child::Func(def) => {
            def.params.iter().for_each(|p| shadow(p, out));
            collect_shadowed(&def.body, out);
        }
    }
}

/// Records a rebinding of `n` if it is a stdlib name.
fn shadow(n: &Name, out: &mut HashSet<Name>) {
    if builtin_fn(n).is_some() || module_members(n).next().is_some() {
        out.insert(n.clone());
    }
}

impl AstLinter {
    fn is_local(&self, name: &str) -> bool {
        self.scopes.iter().rev().any(|s| s.contains(name))
    }

    fn at_main_scope(&self) -> bool {
        self.depth == 0 && self.scopes.len() == 1
    }

    fn declare(&mut self, name: &Name) {
        if !self.at_main_scope() {
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(name.clone());
        }
    }

    fn check_handler_name(&mut self, name: &str) {
        if handlerish(name) && !crate::HANDLER_NAMES.contains(&name) {
            let hint = suggest(name, crate::HANDLER_NAMES.iter().copied())
                .map(|s| format!(" — did you mean `{s}`?"))
                .unwrap_or_else(|| {
                    format!(
                        " — the runtime dispatches only: {}",
                        crate::HANDLER_NAMES.join(", ")
                    )
                });
            self.diags.push(Diagnostic::error(
                LintId::UnknownHandler,
                self.cur_pos,
                format!("unknown handler name `{name}`; it will never be invoked{hint}"),
            ));
        }
    }

    /// AA001 over a function value flowing into a named location.
    fn check_handler_binding(&mut self, target: &Target, value: &Expr) {
        let func_valued = matches!(value, Expr::Func(_));
        match target {
            Target::Name(n) if func_valued => self.check_handler_name(n),
            Target::Index(obj, key) => {
                if let (Expr::Var(base), Expr::Str(k)) = (&**obj, &**key) {
                    if &**base == "AA" && func_valued {
                        self.check_handler_name(k);
                    }
                }
            }
            _ => {}
        }
        // `AA = { onGet = function() … end }`
        if let (Target::Name(n), Expr::TableCtor(items)) = (target, value) {
            if &**n == "AA" {
                for item in items {
                    if let TableItem::Named(k, Expr::Func(_)) = item {
                        self.check_handler_name(k);
                    }
                }
            }
        }
    }

    /// AA005: a write to a non-`AA` global from inside a function body.
    fn check_global_write(&mut self, name: &str) {
        if self.depth > 0 && !self.is_local(name) && name != "AA" {
            self.diags.push(Diagnostic::warning(
                LintId::GlobalWriteOutsideAa,
                self.cur_pos,
                format!(
                    "handler writes global `{name}` outside the `AA` namespace \
                     (keep mutable state in `AA` so it stays visible and deterministic)"
                ),
            ));
        }
    }

    fn walk_block(&mut self, block: &Block) {
        for (i, stmt) in block.stmts.iter().enumerate() {
            if let Some(&p) = block.at.get(i) {
                self.cur_pos = p;
            }
            self.walk_stmt(stmt);
        }
    }

    fn walk_scoped_block(&mut self, block: &Block) {
        self.scopes.push(HashSet::new());
        self.walk_block(block);
        self.scopes.pop();
    }

    fn walk_def(&mut self, def: &FuncDef) {
        self.scopes.push(def.params.iter().cloned().collect());
        self.depth += 1;
        let saved = self.cur_pos;
        self.walk_block(&def.body);
        self.cur_pos = saved;
        self.depth -= 1;
        self.scopes.pop();
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Local(name, init) => {
                if let Some(e) = init {
                    self.walk_expr(e);
                    // `local onGte = function …` at top level is a global
                    // handler slot, same as a plain assignment.
                    if self.at_main_scope() && matches!(e, Expr::Func(_)) {
                        self.check_handler_name(name);
                    }
                }
                self.declare(name);
            }
            Stmt::Assign(target, expr) => {
                self.walk_expr(expr);
                if let Target::Index(obj, key) = target {
                    self.walk_expr(obj);
                    self.walk_expr(key);
                }
                self.check_handler_binding(target, expr);
                if let Target::Name(n) = target {
                    self.check_global_write(n);
                }
            }
            Stmt::ExprStmt(e) => self.walk_expr(e),
            Stmt::If(arms, else_body) => {
                for (cond, body) in arms {
                    self.walk_expr(cond);
                    self.walk_scoped_block(body);
                }
                if let Some(b) = else_body {
                    self.walk_scoped_block(b);
                }
            }
            Stmt::While(cond, body) => {
                self.walk_expr(cond);
                self.walk_scoped_block(body);
            }
            Stmt::Repeat(body, cond) => {
                // The until-condition sees the body's scope.
                self.scopes.push(HashSet::new());
                self.walk_block(body);
                self.walk_expr(cond);
                self.scopes.pop();
            }
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                self.walk_expr(start);
                self.walk_expr(stop);
                if let Some(s) = step {
                    self.walk_expr(s);
                }
                self.scopes.push(HashSet::new());
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(var.clone());
                self.walk_block(body);
                self.scopes.pop();
            }
            Stmt::GenericFor {
                k, v, expr, body, ..
            } => {
                self.walk_expr(expr);
                self.scopes.push(HashSet::new());
                let sc = self.scopes.last_mut().expect("scope stack never empty");
                sc.insert(k.clone());
                if let Some(v) = v {
                    sc.insert(v.clone());
                }
                self.walk_block(body);
                self.scopes.pop();
            }
            Stmt::FuncDecl { target, def } => {
                self.check_handler_binding(target, &Expr::Func(def.clone()));
                if let Target::Index(obj, key) = target {
                    self.walk_expr(obj);
                    self.walk_expr(key);
                }
                if let Target::Name(n) = target {
                    self.check_global_write(n);
                }
                self.walk_def(def);
            }
            Stmt::LocalFunc { name, def } => {
                if self.at_main_scope() {
                    self.check_handler_name(name);
                }
                self.declare(name);
                self.walk_def(def);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.walk_expr(e);
                }
            }
            Stmt::Break => {}
        }
    }

    /// Is `name` a live (unshadowed) stdlib module reference here?
    fn stdlib_module(&self, name: &str) -> bool {
        module_members(name).next().is_some()
            && !self.shadowed.contains(name)
            && !self.is_local(name)
    }

    fn walk_expr(&mut self, expr: &Expr) {
        match expr {
            // AA003: `math.flor`.
            Expr::Index(obj, key) => {
                if let (Expr::Var(m), Expr::Str(k)) = (&**obj, &**key) {
                    if self.stdlib_module(m) && stdlib_member(m, k).is_none() {
                        let hint = suggest(k, module_members(m).map(|(n, _)| n))
                            .map(|s| format!(" — did you mean `{m}.{s}`?"))
                            .unwrap_or_default();
                        self.diags.push(Diagnostic::error(
                            LintId::UnknownStdlibMember,
                            self.cur_pos,
                            format!("`{m}` has no member `{k}`{hint}"),
                        ));
                    }
                }
            }
            Expr::Call(f, args) => self.check_call(f, args.len()),
            _ => {}
        }
        expr.for_each_child(|c| match c {
            Child::Expr(e) => self.walk_expr(e),
            Child::Func(def) => self.walk_def(def),
            Child::Block(_) => unreachable!("an expression holds blocks only inside a function"),
        });
    }

    /// AA004: stdlib arity and kind checks at call sites.
    fn check_call(&mut self, callee: &Expr, nargs: usize) {
        let (label, def) = match callee {
            Expr::Index(obj, key) => {
                let (Expr::Var(m), Expr::Str(k)) = (&**obj, &**key) else {
                    return;
                };
                if !self.stdlib_module(m) {
                    return;
                }
                match stdlib_member(m, k) {
                    Some(def) => (format!("{m}.{k}"), def),
                    None => return, // AA003 already reported it.
                }
            }
            Expr::Var(n) => {
                if self.shadowed.contains(n) || self.is_local(n) {
                    return;
                }
                match builtin_fn(n) {
                    Some(def) => (n.to_string(), def),
                    None => return,
                }
            }
            _ => return,
        };
        let Def::Func { min, max, .. } = def else {
            self.diags.push(Diagnostic::error(
                LintId::StdlibMisuse,
                self.cur_pos,
                format!("`{label}` is a value, not a function"),
            ));
            return;
        };
        if nargs < min {
            self.diags.push(Diagnostic::error(
                LintId::StdlibMisuse,
                self.cur_pos,
                format!(
                    "`{label}` expects at least {} argument{}, got {nargs}",
                    min,
                    if min == 1 { "" } else { "s" }
                ),
            ));
        } else if let Some(max) = max.filter(|&m| nargs > m) {
            self.diags.push(Diagnostic::error(
                LintId::StdlibMisuse,
                self.cur_pos,
                format!(
                    "`{label}` accepts at most {max} argument{}, got {nargs}",
                    if max == 1 { "" } else { "s" }
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lints(src: &str) -> Vec<Diagnostic> {
        ast_lints(&parse(src).unwrap())
    }

    fn ids(src: &str) -> Vec<LintId> {
        lints(src).into_iter().map(|d| d.id).collect()
    }

    #[test]
    fn typod_handler_names_are_caught_in_every_idiom() {
        for src in [
            "function onGte(c) return 1 end",
            "onGte = function(c) return 1 end",
            "AA = {}\nfunction AA.onGte(c) return 1 end",
            "AA = {}\nAA.onGte = function(c) return 1 end",
            "AA = { onGte = function(c) return 1 end }",
            "local function onGte(c) return 1 end",
        ] {
            let ds = lints(src);
            assert!(
                ds.iter().any(|d| d.id == LintId::UnknownHandler),
                "missed in: {src}\n{ds:?}"
            );
        }
    }

    #[test]
    fn real_handler_names_and_plain_helpers_pass() {
        for src in [
            "function onGet(c) return 1 end",
            "function onDeliver(m) return m end",
            "AA = { onTimer = function() return 1 end }",
            "function once() return 1 end", // `onc` is lowercase: not handlerish
            "function helper() return 1 end",
            "onGte = 5", // not a function value: AA001 stays quiet
        ] {
            assert!(
                !ids(src).contains(&LintId::UnknownHandler),
                "false positive in: {src}"
            );
        }
    }

    #[test]
    fn typo_suggestion_names_the_real_handler() {
        let ds = lints("function onGte() return 1 end");
        assert!(
            ds[0].message.contains("onGet"),
            "suggestion expected: {}",
            ds[0].message
        );
    }

    #[test]
    fn unknown_stdlib_member_with_suggestion() {
        let ds = lints("function f() return math.flor(1.5) end");
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].id, LintId::UnknownStdlibMember);
        assert!(ds[0].message.contains("math.floor"), "{}", ds[0].message);
        assert!(ids("function f() return math.floor(1.5) end").is_empty());
    }

    #[test]
    fn stdlib_arity_and_kind_mismatches() {
        assert!(ids("x = math.fmod(1)").contains(&LintId::StdlibMisuse));
        assert!(ids("x = math.abs(1, 2)").contains(&LintId::StdlibMisuse));
        assert!(ids("x = math.pi()").contains(&LintId::StdlibMisuse));
        assert!(ids("x = tostring()").contains(&LintId::StdlibMisuse));
        assert!(!ids("x = math.fmod(7, 3)").contains(&LintId::StdlibMisuse));
        assert!(!ids("x = math.max(1, 2, 3, 4)").contains(&LintId::StdlibMisuse));
        assert!(!ids("x = string.format(\"%d-%d\", 1, 2)").contains(&LintId::StdlibMisuse));
    }

    #[test]
    fn shadowed_stdlib_disables_its_lints() {
        assert!(
            ids("math = {flor = 1}\nx = math.flor").is_empty(),
            "a user-rebound `math` is not ours to check"
        );
        assert!(ids("function g(math) return math.flor end").is_empty());
        assert!(ids("local tostring = 1").is_empty());
    }

    #[test]
    fn global_write_outside_aa_warns_only_in_function_bodies() {
        let ds = lints("function onGet() count = count + 1 return count end");
        assert!(
            ds.iter().any(|d| d.id == LintId::GlobalWriteOutsideAa),
            "{ds:?}"
        );
        // Top-level setup writes are the normal install idiom.
        assert!(!ids("count = 0").contains(&LintId::GlobalWriteOutsideAa));
        // AA writes and local writes are fine anywhere.
        assert!(
            !ids("function onGet() AA.n = 1 local x = 2 x = 3 return x end")
                .contains(&LintId::GlobalWriteOutsideAa)
        );
        // Upvalue writes are not global writes.
        assert!(!ids("function mk()
                 local n = 0
                 return function() n = n + 1 return n end
             end")
        .contains(&LintId::GlobalWriteOutsideAa));
    }

    #[test]
    fn positions_point_at_the_offending_statement() {
        let ds = lints("x = 1\ny = 2\nfunction onGte() return 1 end");
        let d = ds
            .iter()
            .find(|d| d.id == LintId::UnknownHandler)
            .expect("AA001");
        assert_eq!(d.pos.line, 3, "{d:?}");
    }
}
