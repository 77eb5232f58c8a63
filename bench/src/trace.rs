//! Harness-side spans around every call into a layer.
//!
//! Spans live in memory and are written once, after measuring; a disabled
//! tracer costs one branch per call site, so the untraced pass and the
//! traced pass run the same code.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call it wraps (`settle`, `frontdoor_query`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The operation (query, write, epoch) the span belongs to; spans of
    /// one operation share it.
    pub op_id: u64,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by direct children.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::enable`].
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes a span. Spans close in the reverse order they opened.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[open.0].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op_id);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// One JSON object per line: `name, start, end, parent, op_id, self`
    /// (times in nanoseconds since the trace began; `parent` is the line
    /// index of the enclosing span or `null`).
    pub fn to_jsonl(&self) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let line = obj([
                ("name", s.name.into()),
                ("start", s.start_ns.into()),
                ("end", s.end_ns.into()),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("op_id", s.op_id.into()),
                ("self", self_ns.into()),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("settle", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::off();
        t.enable();
        let op = t.begin("query", 9);
        t.span("parse_query", 9, || std::hint::black_box(1 + 1));
        t.span("settle", 9, || std::hint::black_box(2 + 2));
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let own = t.self_times();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));
        let totals = t.totals();
        assert_eq!(totals["query"].count, 1);
        assert_eq!(totals["query"].self_ns, own[0]);
        // Every line parses back and carries the six keys.
        for line in t.to_jsonl().lines() {
            let v = crate::json::parse(line).unwrap();
            for key in ["name", "start", "end", "parent", "op_id", "self"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
            assert_eq!(v.get("op_id").and_then(Value::as_f64), Some(9.0));
        }
    }
}
