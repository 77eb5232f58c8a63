//! The sandboxed standard library.
//!
//! Only math, string, and table manipulation plus a few conversion
//! primitives are exposed — the paper's second sandbox modification removes
//! "core libraries relating to kernel access, file system access, network
//! access" from the executing environment (§III.B). There is deliberately no
//! `io`, `os`, `require`, `load`, or coroutine support, and no source of
//! nondeterminism.

use crate::error::RuntimeError;
use crate::interp::{declare, lookup, root_env, Env};
use crate::value::{display_value, Key, Table, Value};
use std::cell::RefCell;
use std::rc::Rc;

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Nil)
}

fn num_arg(args: &[Value], i: usize, fname: &str) -> Result<f64, RuntimeError> {
    arg(args, i)
        .as_num()
        .map_err(|_| RuntimeError::TypeError(format!("bad argument #{} to {fname}", i + 1)))
}

fn str_arg(args: &[Value], i: usize, fname: &str) -> Result<String, RuntimeError> {
    match arg(args, i) {
        Value::Str(s) => Ok(s.to_string()),
        other => Err(RuntimeError::TypeError(format!(
            "bad argument #{} to {fname} (string expected, got {})",
            i + 1,
            other.type_name()
        ))),
    }
}

fn table_arg(args: &[Value], i: usize, fname: &str) -> Result<Rc<RefCell<Table>>, RuntimeError> {
    match arg(args, i) {
        Value::Table(t) => Ok(t),
        other => Err(RuntimeError::TypeError(format!(
            "bad argument #{} to {fname} (table expected, got {})",
            i + 1,
            other.type_name()
        ))),
    }
}

/// Resolves Lua-style string indices: 1-based, negative counts from the
/// end; returns a byte range.
fn str_range(len: usize, i: f64, j: f64) -> (usize, usize) {
    let n = len as i64;
    let norm = |x: f64, default_neg: i64| -> i64 {
        let x = x as i64;
        if x >= 0 {
            x
        } else {
            (n + x + 1).max(default_neg)
        }
    };
    let mut start = norm(i, 1);
    let mut stop = norm(j, 0);
    if start < 1 {
        start = 1;
    }
    if stop > n {
        stop = n;
    }
    if start > stop {
        return (0, 0);
    }
    ((start - 1) as usize, stop as usize)
}

/// What a name of the sandbox library is bound to.
#[derive(Clone, Copy)]
pub(crate) enum Def {
    /// A native function accepting `min..=max` arguments (`None` =
    /// varargs). The bounds are what AA004 enforces at call sites.
    Func {
        min: usize,
        max: Option<usize>,
        run: NativeImpl,
    },
    /// A plain number (`math.pi`): calling it is a kind error.
    Const(f64),
}

type NativeImpl = fn(&[Value]) -> Result<Value, RuntimeError>;

/// A native bound at `path`, taking `min..=max` arguments.
const fn f(path: &str, min: usize, max: Option<usize>, run: NativeImpl) -> (&str, Def) {
    (path, Def::Func { min, max, run })
}

/// The whole sandbox library, by the path scripts reach it through
/// (`tostring`, `math.abs`): the environment [`sandbox_globals`] builds and
/// the signatures the analyzer checks calls against are both read off this.
pub(crate) static LIBRARY: &[(&str, Def)] = &[
    f("tostring", 1, Some(1), |args| {
        Ok(Value::str(display_value(&arg(args, 0))))
    }),
    f("tonumber", 1, Some(1), |args| match arg(args, 0) {
        Value::Num(n) => Ok(Value::Num(n)),
        Value::Str(s) => Ok(s
            .trim()
            .parse::<f64>()
            .map(Value::Num)
            .unwrap_or(Value::Nil)),
        _ => Ok(Value::Nil),
    }),
    f("type", 1, Some(1), |args| {
        Ok(Value::str(arg(args, 0).type_name()))
    }),
    f("assert", 1, Some(2), |args| {
        let v = arg(args, 0);
        if v.truthy() {
            Ok(v)
        } else {
            let msg = match arg(args, 1) {
                Value::Str(s) => s.to_string(),
                Value::Nil => "assertion failed!".into(),
                other => display_value(&other),
            };
            Err(RuntimeError::Other(msg))
        }
    }),
    f("error", 1, Some(1), |args| {
        Err(RuntimeError::Other(display_value(&arg(args, 0))))
    }),
    // `pcall` is dispatched specially by the interpreter (it must run the
    // callee); this binding only provides the name. Unlike Lua's
    // multi-value return, it returns a table: `{ok = bool, value = ...}`
    // on success, `{ok = false, error = "..."}` on a caught error.
    f("pcall", 1, None, |_args| {
        Err(RuntimeError::Other(
            "pcall must be called directly, not through a variable".into(),
        ))
    }),
    // ---- math ----
    ("math.pi", Def::Const(std::f64::consts::PI)),
    ("math.huge", Def::Const(f64::INFINITY)),
    f("math.abs", 1, Some(1), |a| {
        Ok(Value::Num(num_arg(a, 0, "abs")?.abs()))
    }),
    f("math.ceil", 1, Some(1), |a| {
        Ok(Value::Num(num_arg(a, 0, "ceil")?.ceil()))
    }),
    f("math.floor", 1, Some(1), |a| {
        Ok(Value::Num(num_arg(a, 0, "floor")?.floor()))
    }),
    f("math.sqrt", 1, Some(1), |a| {
        Ok(Value::Num(num_arg(a, 0, "sqrt")?.sqrt()))
    }),
    f("math.max", 1, None, |a| {
        if a.is_empty() {
            return Err(RuntimeError::Other("math.max needs arguments".into()));
        }
        let mut best = num_arg(a, 0, "max")?;
        for i in 1..a.len() {
            best = best.max(num_arg(a, i, "max")?);
        }
        Ok(Value::Num(best))
    }),
    f("math.min", 1, None, |a| {
        if a.is_empty() {
            return Err(RuntimeError::Other("math.min needs arguments".into()));
        }
        let mut best = num_arg(a, 0, "min")?;
        for i in 1..a.len() {
            best = best.min(num_arg(a, i, "min")?);
        }
        Ok(Value::Num(best))
    }),
    f("math.fmod", 2, Some(2), |a| {
        Ok(Value::Num(num_arg(a, 0, "fmod")? % num_arg(a, 1, "fmod")?))
    }),
    // ---- string ----
    f("string.len", 1, Some(1), |a| {
        Ok(Value::Num(str_arg(a, 0, "len")?.len() as f64))
    }),
    f("string.upper", 1, Some(1), |a| {
        Ok(Value::str(str_arg(a, 0, "upper")?.to_uppercase()))
    }),
    f("string.lower", 1, Some(1), |a| {
        Ok(Value::str(str_arg(a, 0, "lower")?.to_lowercase()))
    }),
    f("string.sub", 2, Some(3), |a| {
        let text = str_arg(a, 0, "sub")?;
        let i = num_arg(a, 1, "sub")?;
        let j = match arg(a, 2) {
            Value::Nil => -1.0,
            v => v.as_num()?,
        };
        let (lo, hi) = str_range(text.len(), i, j);
        Ok(Value::str(&text[lo..hi]))
    }),
    f("string.rep", 2, Some(2), |a| {
        let text = str_arg(a, 0, "rep")?;
        let n = num_arg(a, 1, "rep")?.max(0.0) as usize;
        if text.len().saturating_mul(n) > 1 << 20 {
            return Err(RuntimeError::Other("string.rep result too large".into()));
        }
        Ok(Value::str(text.repeat(n)))
    }),
    f("string.find", 2, Some(2), |a| {
        // Plain substring find (no patterns in the sandbox); returns the
        // 1-based start index or nil.
        let hay = str_arg(a, 0, "find")?;
        let needle = str_arg(a, 1, "find")?;
        Ok(hay
            .find(&needle)
            .map(|i| Value::Num((i + 1) as f64))
            .unwrap_or(Value::Nil))
    }),
    f("string.byte", 1, Some(2), |a| {
        let text = str_arg(a, 0, "byte")?;
        let i = match arg(a, 1) {
            Value::Nil => 1.0,
            v => v.as_num()?,
        };
        let (lo, hi) = str_range(text.len(), i, i);
        if lo >= hi {
            return Ok(Value::Nil);
        }
        Ok(Value::Num(text.as_bytes()[lo] as f64))
    }),
    f("string.char", 0, None, |a| {
        let mut out = String::new();
        for i in 0..a.len() {
            let c = num_arg(a, i, "char")? as u32;
            let c = char::from_u32(c)
                .ok_or_else(|| RuntimeError::Other(format!("invalid char code {c}")))?;
            out.push(c);
        }
        Ok(Value::str(out))
    }),
    f("string.format", 1, None, |a| {
        // Minimal %s / %d / %f / %% support.
        let fmt = str_arg(a, 0, "format")?;
        let mut out = String::new();
        let mut argi = 1usize;
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('%') => out.push('%'),
                Some('s') => {
                    out.push_str(&display_value(&arg(a, argi)));
                    argi += 1;
                }
                Some('d') => {
                    out.push_str(&format!("{}", num_arg(a, argi, "format")? as i64));
                    argi += 1;
                }
                Some('f') => {
                    out.push_str(&format!("{:.6}", num_arg(a, argi, "format")?));
                    argi += 1;
                }
                other => {
                    return Err(RuntimeError::Other(format!(
                        "unsupported format directive %{}",
                        other.map(String::from).unwrap_or_default()
                    )))
                }
            }
        }
        Ok(Value::str(out))
    }),
    // ---- table ----
    f("table.insert", 2, Some(3), |a| {
        let t = table_arg(a, 0, "insert")?;
        match a.len() {
            2 => {
                let n = t.borrow().len();
                t.borrow_mut().set(Key::Int(n + 1), arg(a, 1));
                Ok(Value::Nil)
            }
            3 => {
                let pos = num_arg(a, 1, "insert")? as i64;
                t.borrow_mut().array_insert(pos, arg(a, 2));
                Ok(Value::Nil)
            }
            n => Err(RuntimeError::Other(format!(
                "wrong number of arguments to table.insert ({n})"
            ))),
        }
    }),
    f("table.remove", 1, Some(2), |a| {
        let t = table_arg(a, 0, "remove")?;
        let pos = match arg(a, 1) {
            Value::Nil => t.borrow().len(),
            v => v.as_num()? as i64,
        };
        if pos == 0 {
            return Ok(Value::Nil);
        }
        let removed = t.borrow_mut().array_remove(pos);
        Ok(removed)
    }),
    f("table.concat", 1, Some(2), |a| {
        let t = table_arg(a, 0, "concat")?;
        let sep = match arg(a, 1) {
            Value::Nil => String::new(),
            Value::Str(s) => s.to_string(),
            other => {
                return Err(RuntimeError::TypeError(format!(
                    "bad separator of type {}",
                    other.type_name()
                )))
            }
        };
        let t = t.borrow();
        let mut parts = Vec::new();
        for i in 1..=t.len() {
            parts.push(t.get(&Key::Int(i)).concat_str()?);
        }
        Ok(Value::str(parts.join(&sep)))
    }),
];

/// The members of sandbox module `module`, in declaration order; empty for
/// a name that is not a module.
pub(crate) fn module_members(module: &str) -> impl Iterator<Item = (&'static str, Def)> + '_ {
    LIBRARY.iter().filter_map(move |&(path, def)| {
        let member = path.strip_prefix(module)?.strip_prefix('.')?;
        Some((member, def))
    })
}

/// Looks up a stdlib module member (`stdlib_member("math", "abs")`).
pub(crate) fn stdlib_member(module: &str, member: &str) -> Option<Def> {
    module_members(module)
        .find(|&(name, _)| name == member)
        .map(|(_, def)| def)
}

/// Looks up a top-level sandbox builtin (`tostring`, `pcall`, …).
pub(crate) fn builtin_fn(name: &str) -> Option<Def> {
    // A member's path holds a dot, so it never equals an identifier.
    LIBRARY
        .iter()
        .find(|&&(path, _)| path == name)
        .map(|&(_, def)| def)
}

/// Every global name the sealed sandbox provides — the stdlib seed of the
/// defined-globals analysis. A module is yielded once per member.
pub(crate) fn stdlib_global_names<'a>() -> impl Iterator<Item = &'a str> {
    LIBRARY
        .iter()
        .map(|&(path, _)| path.split_once('.').map_or(path, |(module, _)| module))
}

/// Builds a fresh global environment containing the sandboxed stdlib.
pub fn sandbox_globals() -> Env {
    let env = root_env();
    for &(path, def) in LIBRARY {
        let value = match def {
            Def::Func { run, .. } => Value::Native(path, Rc::new(run)),
            Def::Const(n) => Value::Num(n),
        };
        let Some((module, name)) = path.split_once('.') else {
            declare(&env, path, value);
            continue;
        };
        let table = match lookup(&env, module) {
            Value::Table(t) => t,
            _ => {
                let t = Rc::new(RefCell::new(Table::new()));
                declare(&env, module, Value::Table(Rc::clone(&t)));
                t
            }
        };
        table.borrow_mut().set(Key::Str(name.into()), value);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::parser::parse;

    fn run(src: &str) -> Result<Value, RuntimeError> {
        let block = parse(src).expect("parse");
        let env = sandbox_globals();
        let mut interp = Interp::new(100_000, env.clone());
        interp.exec_chunk(&block, &env)
    }

    fn run_num(src: &str) -> f64 {
        run(src).unwrap().as_num().unwrap()
    }

    fn run_str(src: &str) -> String {
        match run(src).unwrap() {
            Value::Str(s) => s.to_string(),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn math_functions() {
        assert_eq!(run_num("return math.abs(-3)"), 3.0);
        assert_eq!(run_num("return math.floor(2.9)"), 2.0);
        assert_eq!(run_num("return math.ceil(2.1)"), 3.0);
        assert_eq!(run_num("return math.sqrt(16)"), 4.0);
        assert_eq!(run_num("return math.max(1, 9, 4)"), 9.0);
        assert_eq!(run_num("return math.min(1, 9, -4)"), -4.0);
        assert_eq!(run_num("return math.fmod(7, 3)"), 1.0);
        assert!(run_num("return math.huge") > 1e300);
    }

    #[test]
    fn string_functions() {
        assert_eq!(run_num(r#"return string.len("hello")"#), 5.0);
        assert_eq!(run_str(r#"return string.upper("aBc")"#), "ABC");
        assert_eq!(run_str(r#"return string.sub("hello", 2, 4)"#), "ell");
        assert_eq!(run_str(r#"return string.sub("hello", -3)"#), "llo");
        assert_eq!(run_str(r#"return string.rep("ab", 3)"#), "ababab");
        assert_eq!(run_num(r#"return string.find("hello", "ll")"#), 3.0);
        assert!(matches!(
            run(r#"return string.find("hello", "xyz")"#).unwrap(),
            Value::Nil
        ));
        assert_eq!(run_num(r#"return string.byte("A")"#), 65.0);
        assert_eq!(run_str("return string.char(104, 105)"), "hi");
        assert_eq!(run_str(r#"return string.format("%s=%d", "x", 7)"#), "x=7");
    }

    #[test]
    fn table_functions() {
        assert_eq!(
            run_num("local t = {1, 2}\ntable.insert(t, 9)\nreturn t[3]"),
            9.0
        );
        assert_eq!(
            run_num("local t = {1, 2, 3}\ntable.insert(t, 1, 9)\nreturn t[1] + t[4]"),
            12.0
        );
        assert_eq!(
            run_num("local t = {5, 6, 7}\nlocal r = table.remove(t, 1)\nreturn r + #t"),
            7.0
        );
        assert_eq!(
            run_str(r#"return table.concat({"a", "b", "c"}, "-")"#),
            "a-b-c"
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(run_str("return tostring(42)"), "42");
        assert_eq!(run_str("return tostring(nil)"), "nil");
        assert_eq!(run_num(r#"return tonumber("3.5")"#), 3.5);
        assert!(matches!(
            run(r#"return tonumber("zebra")"#).unwrap(),
            Value::Nil
        ));
        assert_eq!(run_str("return type({})"), "table");
        assert_eq!(run_str(r#"return type("")"#), "string");
    }

    #[test]
    fn assert_and_error() {
        assert!(run("assert(true)").is_ok());
        assert!(matches!(
            run(r#"assert(false, "boom")"#),
            Err(RuntimeError::Other(m)) if m == "boom"
        ));
        assert!(matches!(
            run(r#"error("explode")"#),
            Err(RuntimeError::Other(m)) if m == "explode"
        ));
    }

    #[test]
    fn no_dangerous_libraries() {
        let env = sandbox_globals();
        for name in [
            "io",
            "os",
            "require",
            "load",
            "loadstring",
            "dofile",
            "coroutine",
        ] {
            assert!(
                matches!(lookup(&env, name), Value::Nil),
                "{name} must not exist in the sandbox"
            );
        }
    }

    #[test]
    fn library_table_and_built_environment_list_the_same_paths() {
        let env = sandbox_globals();
        let mut built = Vec::new();
        for global in crate::interp::testing::scope_names(&env) {
            match lookup(&env, &global) {
                Value::Table(t) => built.extend(t.borrow().iter().map(|(k, _)| match k {
                    Key::Str(member) => format!("{global}.{member}"),
                    Key::Int(i) => panic!("`{global}[{i}]` in the stdlib"),
                })),
                _ => built.push(global.to_string()),
            }
        }
        built.sort();
        // A path listed twice (or with two dots) builds one binding, not two.
        let mut listed: Vec<&str> = LIBRARY.iter().map(|&(path, _)| path).collect();
        listed.sort_unstable();
        assert_eq!(built, listed);

        for &(path, def) in LIBRARY {
            let bound = run(&format!("return {path}")).unwrap();
            match def {
                Def::Func { .. } => assert!(matches!(bound, Value::Native(p, _) if p == path)),
                Def::Const(n) => assert_eq!(bound.as_num().unwrap(), n, "{path}"),
            }
        }
        let mut globals: Vec<&str> = stdlib_global_names().collect();
        globals.dedup();
        assert_eq!(
            globals,
            [
                "tostring", "tonumber", "type", "assert", "error", "pcall", "math", "string",
                "table"
            ]
        );
    }

    #[test]
    fn declared_arity_is_what_aa004_enforces() {
        use crate::analysis::{lints::ast_lints, LintId};
        let misuse = |path: &str, nargs: usize| {
            let src = format!("x = {path}({})", vec!["nil"; nargs].join(", "));
            ast_lints(&parse(&src).unwrap())
                .iter()
                .any(|d| d.id == LintId::StdlibMisuse)
        };
        for &(path, def) in LIBRARY {
            match def {
                Def::Func { min, max, .. } => {
                    assert!(!misuse(path, min), "{path} with its minimum");
                    if min > 0 {
                        assert!(misuse(path, min - 1), "{path} one short");
                    }
                    match max {
                        Some(max) => {
                            assert!(!misuse(path, max), "{path} with its maximum");
                            assert!(misuse(path, max + 1), "{path} one over");
                        }
                        None => assert!(!misuse(path, min + 7), "{path} is varargs"),
                    }
                }
                Def::Const(_) => assert!(misuse(path, 0), "{path} is not callable"),
            }
        }
    }

    #[test]
    fn rep_bomb_is_rejected() {
        assert!(matches!(
            run(r#"return string.rep("aaaaaaaaaa", 10000000)"#),
            Err(RuntimeError::Other(_))
        ));
    }
}
