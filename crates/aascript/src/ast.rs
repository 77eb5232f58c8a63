//! Abstract syntax tree for AAScript.

use std::rc::Rc;

/// An interned identifier or string literal.
///
/// Names are interned as `Rc<str>` at parse time so that the evaluators can
/// clone them (for map keys, method lookups, string-literal values, …)
/// without allocating.
pub type Name = Rc<str>;

/// A full script: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Source position of each statement, parallel to `stmts`. Evaluators
    /// ignore it; the static analyzer uses it to anchor diagnostics.
    pub at: Vec<crate::error::Pos>,
}

/// A function definition (named or anonymous).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Parameter names, in order.
    pub params: Vec<Name>,
    /// The function body.
    pub body: Block,
}

/// The two syntactic iterator forms supported by `for ... in`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterKind {
    /// `pairs(t)` — every key/value in deterministic key order.
    Pairs,
    /// `ipairs(t)` — `1..#t` array entries.
    Ipairs,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::enum_variant_names)]
pub enum Stmt {
    /// `local name = expr` (expr optional → nil).
    Local(Name, Option<Expr>),
    /// `target = expr` where target is a name or index chain.
    Assign(Target, Expr),
    /// An expression evaluated for its side effects (must be a call).
    ExprStmt(Expr),
    /// `if cond then block {elseif cond then block} [else block] end`.
    If(Vec<(Expr, Block)>, Option<Block>),
    /// `while cond do block end`.
    While(Expr, Block),
    /// `repeat block until cond`.
    Repeat(Block, Expr),
    /// `for var = start, stop [, step] do block end`.
    NumericFor {
        /// Loop variable.
        var: Name,
        /// Start expression.
        start: Expr,
        /// Stop expression (inclusive).
        stop: Expr,
        /// Step expression (default 1).
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `for k, v in pairs(t) do block end` (and `ipairs`).
    GenericFor {
        /// Key (or index) variable.
        k: Name,
        /// Value variable (optional).
        v: Option<Name>,
        /// Which iterator.
        kind: IterKind,
        /// The table expression.
        expr: Expr,
        /// Loop body.
        body: Block,
    },
    /// `function name(...) body end` or `function a.b.c(...) ... end`.
    FuncDecl {
        /// Assignment target for the function value.
        target: Target,
        /// The function itself.
        def: Rc<FuncDef>,
    },
    /// `local function name(...) body end`.
    LocalFunc {
        /// Local name bound to the function.
        name: Name,
        /// The function itself.
        def: Rc<FuncDef>,
    },
    /// `return [expr]`.
    Return(Option<Expr>),
    /// `break`.
    Break,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A plain variable.
    Name(Name),
    /// `obj[key]` / `obj.key`.
    Index(Box<Expr>, Box<Expr>),
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^`
    Pow,
    /// `..`
    Concat,
    /// `==`
    Eq,
    /// `~=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (short-circuit)
    And,
    /// `or` (short-circuit)
    Or,
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `not`
    Not,
    /// `#`
    Len,
}

/// One entry in a table constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum TableItem {
    /// `value` — appended at the next array index.
    Positional(Expr),
    /// `name = value`.
    Named(Name, Expr),
    /// `[key] = value`.
    Keyed(Expr, Expr),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `nil`
    Nil,
    /// `true` / `false`
    Bool(bool),
    /// A number literal.
    Num(f64),
    /// A string literal.
    Str(Name),
    /// A variable reference.
    Var(Name),
    /// `expr[expr]` / `expr.name`.
    Index(Box<Expr>, Box<Expr>),
    /// `f(args)`.
    Call(Box<Expr>, Vec<Expr>),
    /// `obj:method(args)` — sugar for `obj.method(obj, args)`.
    MethodCall(Box<Expr>, Name, Vec<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
    /// `{ ... }` table constructor.
    TableCtor(Vec<TableItem>),
    /// `function(...) body end`.
    Func(Rc<FuncDef>),
}

/// One direct child of a [`Stmt`] or [`Expr`].
#[derive(Debug, Clone, Copy)]
pub enum Child<'a> {
    /// A sub-expression evaluated in the parent's scope.
    Expr(&'a Expr),
    /// A nested block of the same function (loop and branch bodies).
    Block(&'a Block),
    /// A nested function definition: a new frame, with its own parameters.
    Func(&'a FuncDef),
}

impl Target {
    fn for_each_child<'a>(&'a self, f: &mut impl FnMut(Child<'a>)) {
        if let Target::Index(obj, key) = self {
            f(Child::Expr(obj));
            f(Child::Expr(key));
        }
    }
}

impl Stmt {
    /// Calls `f` on each direct child, once, in source order. This is the
    /// one description of the statement tree's shape: passes that only
    /// need to reach every node recurse through it instead of matching on
    /// the variants themselves.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Child<'a>)) {
        match self {
            Stmt::Local(_, init) => init.iter().for_each(|e| f(Child::Expr(e))),
            Stmt::Assign(target, e) => {
                target.for_each_child(&mut f);
                f(Child::Expr(e));
            }
            Stmt::ExprStmt(e) => f(Child::Expr(e)),
            Stmt::If(arms, else_body) => {
                for (cond, body) in arms {
                    f(Child::Expr(cond));
                    f(Child::Block(body));
                }
                else_body.iter().for_each(|b| f(Child::Block(b)));
            }
            Stmt::While(cond, body) => {
                f(Child::Expr(cond));
                f(Child::Block(body));
            }
            Stmt::Repeat(body, cond) => {
                f(Child::Block(body));
                f(Child::Expr(cond));
            }
            Stmt::NumericFor {
                start,
                stop,
                step,
                body,
                ..
            } => {
                f(Child::Expr(start));
                f(Child::Expr(stop));
                step.iter().for_each(|e| f(Child::Expr(e)));
                f(Child::Block(body));
            }
            Stmt::GenericFor { expr, body, .. } => {
                f(Child::Expr(expr));
                f(Child::Block(body));
            }
            Stmt::FuncDecl { target, def } => {
                target.for_each_child(&mut f);
                f(Child::Func(def));
            }
            Stmt::LocalFunc { def, .. } => f(Child::Func(def)),
            Stmt::Return(e) => e.iter().for_each(|e| f(Child::Expr(e))),
            Stmt::Break => {}
        }
    }
}

impl Expr {
    /// Calls `f` on each direct child, once, in source order (see
    /// [`Stmt::for_each_child`]). An expression never yields
    /// [`Child::Block`]: blocks only occur inside a function literal.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(Child<'a>)) {
        match self {
            Expr::Nil | Expr::Bool(_) | Expr::Num(_) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Index(a, b) | Expr::Bin(_, a, b) => {
                f(Child::Expr(a));
                f(Child::Expr(b));
            }
            Expr::Call(callee, args) | Expr::MethodCall(callee, _, args) => {
                f(Child::Expr(callee));
                args.iter().for_each(|a| f(Child::Expr(a)));
            }
            Expr::Un(_, e) => f(Child::Expr(e)),
            Expr::TableCtor(items) => {
                for item in items {
                    match item {
                        TableItem::Positional(e) | TableItem::Named(_, e) => f(Child::Expr(e)),
                        TableItem::Keyed(k, e) => {
                            f(Child::Expr(k));
                            f(Child::Expr(e));
                        }
                    }
                }
            }
            Expr::Func(def) => f(Child::Func(def)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// A short, order-revealing label per child: variables by name, string
    /// keys quoted, index chains and calls spelled out, blocks by statement
    /// count, functions by parameters.
    fn label(c: Child<'_>) -> String {
        match c {
            Child::Expr(Expr::Var(n)) => n.to_string(),
            Child::Expr(Expr::Str(s)) => format!("'{s}'"),
            Child::Expr(Expr::Num(n)) => n.to_string(),
            Child::Expr(Expr::Index(a, b)) => {
                format!("{}[{}]", label(Child::Expr(a)), label(Child::Expr(b)))
            }
            Child::Expr(Expr::Call(f, args)) => {
                let args: Vec<String> = args.iter().map(|a| label(Child::Expr(a))).collect();
                format!("{}({})", label(Child::Expr(f)), args.join(","))
            }
            Child::Expr(other) => panic!("fixture child needs a label: {other:?}"),
            Child::Block(b) => format!("block/{}", b.stmts.len()),
            Child::Func(def) => format!("fn({})", def.params.join(",")),
        }
    }

    fn stmt_children(src: &str) -> Vec<String> {
        let block = parse(src).unwrap();
        assert_eq!(block.stmts.len(), 1, "one statement per fixture: {src}");
        let mut out = Vec::new();
        block.stmts[0].for_each_child(|c| out.push(label(c)));
        out
    }

    fn expr_children(src: &str) -> Vec<String> {
        let block = parse(&format!("x = {src}")).unwrap();
        let Stmt::Assign(_, e) = &block.stmts[0] else {
            panic!("fixture is an assignment: {src}");
        };
        let mut out = Vec::new();
        e.for_each_child(|c| out.push(label(c)));
        out
    }

    #[test]
    fn every_stmt_variant_yields_each_direct_child_once_in_source_order() {
        for (src, want) in [
            ("local a = i", vec!["i"]),
            ("local a", vec![]),
            ("a = v", vec!["v"]),
            ("t[k] = v", vec!["t", "k", "v"]),
            ("t.f.g = v", vec!["t['f']", "'g'", "v"]),
            ("f(x)", vec!["f(x)"]),
            (
                "if c1 then a = 1 elseif c2 then a = 1 a = 2 else a = 1 a = 2 a = 3 end",
                vec!["c1", "block/1", "c2", "block/2", "block/3"],
            ),
            ("if c then end", vec!["c", "block/0"]),
            ("while w do a = 1 end", vec!["w", "block/1"]),
            ("repeat a = 1 until u", vec!["block/1", "u"]),
            ("for i = lo, hi do a = 1 end", vec!["lo", "hi", "block/1"]),
            (
                "for i = lo, hi, st do a = 1 end",
                vec!["lo", "hi", "st", "block/1"],
            ),
            (
                "for k, v in pairs(tbl) do a = 1 end",
                vec!["tbl", "block/1"],
            ),
            ("for i in ipairs(tbl) do end", vec!["tbl", "block/0"]),
            ("function g(p, q) end", vec!["fn(p,q)"]),
            ("function o.m.n(p) end", vec!["o['m']", "'n'", "fn(p)"]),
            ("local function h(r) end", vec!["fn(r)"]),
            ("return rv", vec!["rv"]),
            ("return", vec![]),
            ("break", vec![]),
        ] {
            assert_eq!(stmt_children(src), want, "{src}");
        }
    }

    #[test]
    fn every_expr_variant_yields_each_direct_child_once_in_source_order() {
        for (src, want) in [
            ("nil", vec![]),
            ("true", vec![]),
            ("1", vec![]),
            ("\"s\"", vec![]),
            ("v", vec![]),
            ("a[b]", vec!["a", "b"]),
            ("a.b", vec!["a", "'b'"]),
            ("f(x, y)", vec!["f", "x", "y"]),
            ("f()", vec!["f"]),
            ("o:m(x, y)", vec!["o", "x", "y"]),
            ("l + r", vec!["l", "r"]),
            ("l and r", vec!["l", "r"]),
            ("-e", vec!["e"]),
            ("{p, n = q, [k] = w}", vec!["p", "q", "k", "w"]),
            ("function(z) return z end", vec!["fn(z)"]),
        ] {
            assert_eq!(expr_children(src), want, "{src}");
        }
    }
}
