//! Runtime values: nil, booleans, numbers, strings, tables, and functions.
//!
//! Like Lua, AAScript technically has one data structure — the table, an
//! associative array (paper §III.B). Tables are reference values shared via
//! `Rc<RefCell<..>>`; everything else is a value type.

use crate::ast::FuncDef;
use crate::error::RuntimeError;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A table key: strings and numbers (integral `f64`s are canonicalized so
/// `t[1]` and `t[1.0]` are the same slot).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// Integer key (array part, `t[1]`).
    Int(i64),
    /// String key (`t.name`), interned.
    Str(Rc<str>),
}

impl Key {
    /// Converts a runtime value into a key.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError::Other`] for nil, non-integral numbers used
    /// where no exact integer exists, booleans, tables, and functions.
    pub fn from_value(v: &Value) -> Result<Key, RuntimeError> {
        match v {
            Value::Num(n) if n.fract() == 0.0 && n.is_finite() => Ok(Key::Int(*n as i64)),
            Value::Num(_) => Err(RuntimeError::Other(
                "table key must be an integer or string".into(),
            )),
            Value::Str(s) => Ok(Key::Str(Rc::clone(s))),
            other => Err(RuntimeError::Other(format!(
                "invalid table key of type {}",
                other.type_name()
            ))),
        }
    }
}

/// The associative-array data structure. Kept ordered (`BTreeMap`) so
/// iteration with `pairs` is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Table {
    entries: BTreeMap<Key, Value>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Gets a value by key (`nil` if absent).
    pub fn get(&self, key: &Key) -> Value {
        self.entries.get(key).cloned().unwrap_or(Value::Nil)
    }

    /// Sets a value; setting `nil` removes the entry, like Lua.
    pub fn set(&mut self, key: Key, value: Value) {
        if matches!(value, Value::Nil) {
            self.entries.remove(&key);
        } else {
            self.entries.insert(key, value);
        }
    }

    /// The border `#t`: the number of consecutive integer keys from 1.
    pub fn len(&self) -> i64 {
        let mut n = 0;
        while self.entries.contains_key(&Key::Int(n + 1)) {
            n += 1;
        }
        n
    }

    /// Whether the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries (any key shape).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Deterministic iteration over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.entries.iter()
    }

    /// Inserts at position `pos` (1-based) in the array part, shifting
    /// later elements up (`table.insert`).
    pub fn array_insert(&mut self, pos: i64, value: Value) {
        let n = self.len();
        let mut i = n;
        while i >= pos {
            let v = self.get(&Key::Int(i));
            self.set(Key::Int(i + 1), v);
            i -= 1;
        }
        self.set(Key::Int(pos), value);
    }

    /// Removes position `pos` (1-based) from the array part, shifting later
    /// elements down (`table.remove`). Returns the removed value.
    pub fn array_remove(&mut self, pos: i64) -> Value {
        let n = self.len();
        let removed = self.get(&Key::Int(pos));
        let mut i = pos;
        while i < n {
            let v = self.get(&Key::Int(i + 1));
            self.set(Key::Int(i), v);
            i += 1;
        }
        if n > 0 {
            self.set(Key::Int(n), Value::Nil);
        }
        removed
    }

    fn deep_size_bytes_depth(&self, depth: u32) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for (k, v) in &self.entries {
            total += std::mem::size_of::<Key>()
                + match k {
                    Key::Str(s) => s.len(),
                    Key::Int(_) => 0,
                };
            total += v.size_bytes_depth(depth);
        }
        total
    }
}

/// A user-defined function: its definition plus the environment it closed
/// over.
pub struct Closure {
    /// The parsed function definition.
    pub def: Rc<FuncDef>,
    /// Captured environment (interpreter scope chain).
    pub env: crate::interp::Env,
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Closure(params={:?})", self.def.params)
    }
}

/// A compiled (bytecode) function: a shared [`Chunk`](crate::compile::Chunk)
/// plus the upvalue cells it closed over.
pub struct BcClosure {
    /// The compiled chunk this closure's code lives in.
    pub chunk: Rc<crate::compile::Chunk>,
    /// Index of this function's prototype within the chunk.
    pub proto: usize,
    /// Captured upvalue cells, in the prototype's declared order.
    pub upvals: Vec<Rc<RefCell<Value>>>,
}

impl fmt::Debug for BcClosure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BcClosure(proto={})", self.proto)
    }
}

/// A native (Rust) function exposed to scripts.
pub type NativeFn = Rc<dyn Fn(&[Value]) -> Result<Value, RuntimeError>>;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// The absent value.
    Nil,
    /// A boolean.
    Bool(bool),
    /// A double-precision number (the only numeric type, like Lua 5.1).
    Num(f64),
    /// An immutable string.
    Str(Rc<str>),
    /// A shared, mutable table.
    Table(Rc<RefCell<Table>>),
    /// A script-defined function (tree-walking engine).
    Func(Rc<Closure>),
    /// A script-defined function compiled to bytecode (VM engine).
    Compiled(Rc<BcClosure>),
    /// A built-in function from the sandboxed stdlib.
    Native(&'static str, NativeFn),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds a fresh empty table value.
    pub fn table() -> Value {
        Value::Table(Rc::new(RefCell::new(Table::new())))
    }

    /// Lua truthiness: everything but `nil` and `false` is true.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// The `type()` name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Table(_) => "table",
            Value::Func(_) | Value::Compiled(_) | Value::Native(..) => "function",
        }
    }

    /// Numeric view, coercing numeric strings like Lua's arithmetic does
    /// not — AAScript is strict: only numbers convert.
    pub fn as_num(&self) -> Result<f64, RuntimeError> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(RuntimeError::TypeError(format!(
                "expected number, got {}",
                other.type_name()
            ))),
        }
    }

    /// String view for concatenation: numbers and strings only.
    pub fn concat_str(&self) -> Result<String, RuntimeError> {
        match self {
            Value::Str(s) => Ok(s.to_string()),
            Value::Num(n) => Ok(fmt_num(*n)),
            other => Err(RuntimeError::TypeError(format!(
                "cannot concatenate {}",
                other.type_name()
            ))),
        }
    }

    /// Structural equality (`==`): tables and functions compare by
    /// identity, everything else by value.
    pub fn script_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Table(a), Value::Table(b)) => Rc::ptr_eq(a, b),
            (Value::Func(a), Value::Func(b)) => Rc::ptr_eq(a, b),
            (Value::Compiled(a), Value::Compiled(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a, _), Value::Native(b, _)) => a == b,
            _ => false,
        }
    }

    /// Approximate heap footprint in bytes (Fig. 8c accounting).
    pub fn size_bytes(&self) -> usize {
        self.size_bytes_depth(8)
    }

    pub(crate) fn size_bytes_depth(&self, depth: u32) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Str(s) => s.len(),
                Value::Table(t) if depth > 0 => {
                    // A cyclic table (or a borrow held elsewhere) stops the
                    // descent; charge the handle only.
                    match t.try_borrow() {
                        Ok(tb) => tb.deep_size_bytes_depth(depth - 1),
                        Err(_) => 0,
                    }
                }
                Value::Table(_) => 0,
                // A bytecode closure's persistent state is its captured
                // cells (the chunk itself is shared, like the tree-walker's
                // AST, and is not charged per instance).
                Value::Compiled(c) if depth > 0 => c
                    .upvals
                    .iter()
                    .map(|cell| match cell.try_borrow() {
                        Ok(v) => v.size_bytes_depth(depth - 1),
                        Err(_) => 0,
                    })
                    .sum(),
                _ => 0,
            }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", display_value(self))
    }
}

/// Formats a number the way Lua prints it: integral values without a
/// decimal point.
pub fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The `tostring()` rendering of a value. Nested tables render to a
/// bounded depth so cyclic tables terminate.
pub fn display_value(v: &Value) -> String {
    display_value_depth(v, 6)
}

fn display_value_depth(v: &Value, depth: u32) -> String {
    match v {
        Value::Nil => "nil".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => fmt_num(*n),
        Value::Str(s) => s.to_string(),
        Value::Table(t) => {
            if depth == 0 {
                return "{…}".into();
            }
            let Ok(t) = t.try_borrow() else {
                return "{…}".into();
            };
            let inner: Vec<String> = t
                .iter()
                .map(|(k, v)| match k {
                    Key::Str(s) => format!("{s} = {}", display_value_depth(v, depth - 1)),
                    Key::Int(i) => format!("[{i}] = {}", display_value_depth(v, depth - 1)),
                })
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Value::Func(_) | Value::Compiled(_) => "function".into(),
        Value::Native(name, _) => format!("function: {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_lua() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Num(0.0).truthy(), "0 is truthy in Lua");
        assert!(Value::str("").truthy(), "empty string is truthy in Lua");
    }

    #[test]
    fn keys_canonicalize_integral_floats() {
        assert_eq!(Key::from_value(&Value::Num(1.0)).unwrap(), Key::Int(1));
        assert!(Key::from_value(&Value::Num(1.5)).is_err());
        assert!(Key::from_value(&Value::Nil).is_err());
        assert_eq!(
            Key::from_value(&Value::str("x")).unwrap(),
            Key::Str("x".into())
        );
    }

    #[test]
    fn table_set_nil_removes() {
        let mut t = Table::new();
        t.set(Key::Str("a".into()), Value::Num(1.0));
        assert_eq!(t.entry_count(), 1);
        t.set(Key::Str("a".into()), Value::Nil);
        assert_eq!(t.entry_count(), 0);
        assert!(matches!(t.get(&Key::Str("a".into())), Value::Nil));
    }

    #[test]
    fn array_len_counts_consecutive_from_one() {
        let mut t = Table::new();
        for i in 1..=4 {
            t.set(Key::Int(i), Value::Num(i as f64));
        }
        assert_eq!(t.len(), 4);
        t.set(Key::Int(3), Value::Nil);
        assert_eq!(t.len(), 2, "hole stops the border");
    }

    #[test]
    fn array_insert_and_remove_shift() {
        let mut t = Table::new();
        for i in 1..=3 {
            t.set(Key::Int(i), Value::Num(i as f64));
        }
        t.array_insert(2, Value::Num(99.0));
        let vals: Vec<f64> = (1..=4)
            .map(|i| t.get(&Key::Int(i)).as_num().unwrap())
            .collect();
        assert_eq!(vals, vec![1.0, 99.0, 2.0, 3.0]);
        let removed = t.array_remove(1);
        assert_eq!(removed.as_num().unwrap(), 1.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&Key::Int(1)).as_num().unwrap(), 99.0);
    }

    #[test]
    fn equality_by_identity_for_tables() {
        let a = Value::table();
        let b = Value::table();
        assert!(!a.script_eq(&b));
        assert!(a.script_eq(&a.clone()));
        assert!(Value::str("x").script_eq(&Value::str("x")));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(3.5), "3.5");
        assert_eq!(fmt_num(-2.0), "-2");
    }

    #[test]
    fn display_table_is_deterministic() {
        let t = Value::table();
        if let Value::Table(rc) = &t {
            let mut b = rc.borrow_mut();
            b.set(Key::Str("b".into()), Value::Num(2.0));
            b.set(Key::Str("a".into()), Value::Num(1.0));
            b.set(Key::Int(1), Value::str("x"));
        }
        assert_eq!(display_value(&t), "{[1] = x, a = 1, b = 2}");
    }

    #[test]
    fn size_accounting_counts_strings_and_nesting() {
        let t = Value::table();
        if let Value::Table(rc) = &t {
            rc.borrow_mut()
                .set(Key::Str("password".into()), Value::str("3053482032"));
        }
        let sz = t.size_bytes();
        assert!(sz > 10, "must include string payload, got {sz}");
    }
}
