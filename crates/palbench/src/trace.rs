//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a (layer, function) call timed from outside the layer. Spans
//! nest: every op is a root span, the layer calls it makes are its
//! children, and a span's self time is its duration minus its children's.
//! Spans are aggregated per (layer, function) as a count, busy and self
//! nanoseconds and a latency histogram; raw spans are kept for the first
//! [`RAW_OPS`] ops and written as a Chrome trace-event file.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! pass pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use std::fmt::Write as _;

use crate::stats::Histogram;

/// Ops whose raw spans are kept for the trace file.
pub const RAW_OPS: u64 = 20_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op the span belongs to; `None` for world set-up.
    pub op: Option<u64>,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer (crate) name.
    pub layer: &'static str,
    /// Function name.
    pub func: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Per-(layer, function) aggregate.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Calls recorded.
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
    /// Span durations in ns.
    pub hist: Histogram,
}

struct Open {
    id: u64,
    layer: &'static str,
    func: &'static str,
    start: Instant,
    child_ns: u64,
}

/// The span recorder. See the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: Option<u64>,
    next_id: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<(&'static str, &'static str), Agg>,
    raw: Vec<Span>,
}

/// Handle for a span opened with [`Tracer::begin`].
#[must_use]
pub struct SpanToken(bool);

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: None,
            next_id: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            raw: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, layer: &'static str, func: &'static str) -> SpanToken {
        if !self.on {
            return SpanToken(false);
        }
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            layer,
            func,
            start: Instant::now(),
            child_ns: 0,
        });
        SpanToken(true)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, token: SpanToken) {
        if !token.0 {
            return;
        }
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry((open.layer, open.func)).or_default();
        agg.count += 1;
        agg.busy_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.hist.record(dur as f64);
        if self.op.is_none_or(|op| op < RAW_OPS) {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.raw.push(Span {
                op: self.op,
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                layer: open.layer,
                func: open.func,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    /// Times `f` as a leaf span.
    pub fn span<R>(&mut self, layer: &'static str, func: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin(layer, func);
        let r = f();
        self.end(t);
        r
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) -> SpanToken {
        self.op = Some(op);
        self.begin("palbench", "op")
    }

    /// Closes the root span of the current op, first closing any span an
    /// unwinding panic left open.
    pub fn end_op(&mut self, token: SpanToken) {
        while self.stack.len() > 1 {
            self.end(SpanToken(true));
        }
        self.end(token);
        self.op = None;
    }

    /// The aggregate for one (layer, function), if any span was recorded.
    pub fn agg(&self, layer: &str, func: &str) -> Option<&Agg> {
        self.aggs
            .iter()
            .find(|((l, f), _)| *l == layer && *f == func)
            .map(|(_, a)| a)
    }

    /// Mean span duration in µs (0 when none were recorded).
    pub fn mean_us(&self, layer: &str, func: &str) -> f64 {
        self.agg(layer, func)
            .filter(|a| a.count > 0)
            .map_or(0.0, |a| a.busy_ns as f64 / a.count as f64 / 1e3)
    }

    /// 99th-percentile span duration in µs (0 when none were recorded).
    pub fn p99_us(&self, layer: &str, func: &str) -> f64 {
        self.agg(layer, func)
            .map_or(0.0, |a| a.hist.quantile(0.99) / 1e3)
    }

    /// Mean self time in µs (0 when none were recorded).
    pub fn mean_self_us(&self, layer: &str, func: &str) -> f64 {
        self.agg(layer, func)
            .filter(|a| a.count > 0)
            .map_or(0.0, |a| a.self_ns as f64 / a.count as f64 / 1e3)
    }

    /// Raw spans kept so far.
    pub fn raw(&self) -> &[Span] {
        &self.raw
    }

    /// The raw spans as a Chrome trace-event file (complete `X` events,
    /// µs timestamps), loadable in `chrome://tracing` or Perfetto. Layer
    /// and function names are identifiers, so they need no escaping.
    pub fn chrome_trace(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{l}.{f}\",\"cat\":\"{l}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"op\":{op},\"span\":{id},\"parent\":{parent}}}}}",
                l = s.layer,
                f = s.func,
                ts = s.start_ns as f64 / 1e3,
                dur = (s.end_ns - s.start_ns) as f64 / 1e3,
                op = opt(s.op),
                id = s.id,
                parent = opt(s.parent),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_raw_spans_link_parents() {
        let mut t = Tracer::new(true);
        let op = t.begin_op(0);
        t.span("x86sim", "save_image", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end_op(op);
        let root = t.agg("palbench", "op").unwrap();
        let child = t.agg("x86sim", "save_image").unwrap();
        assert_eq!((root.count, child.count), (1, 1));
        assert!(root.busy_ns >= child.busy_ns);
        assert_eq!(root.self_ns, root.busy_ns - child.busy_ns);
        let raw = t.raw();
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0].parent, Some(raw[1].id), "child closes first");
        assert_eq!(raw[1].parent, None);
        let trace = crate::json::parse(&t.chrome_trace()).expect("the trace is JSON");
        let Some(crate::json::Value::Arr(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(
            first.get("name").and_then(|v| v.as_str()),
            Some("x86sim.save_image")
        );
        assert_eq!(first.get("ph").and_then(|v| v.as_str()), Some("X"));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_end_op_closes_leaked_spans() {
        let mut off = Tracer::new(false);
        let op = off.begin_op(0);
        assert_eq!(off.span("a", "b", || 7), 7);
        off.end_op(op);
        assert!(off.raw().is_empty() && off.agg("a", "b").is_none());

        let mut t = Tracer::new(true);
        let op = t.begin_op(3);
        let _leaked = t.begin("a", "b");
        t.end_op(op);
        assert_eq!(t.agg("a", "b").unwrap().count, 1);
        assert_eq!(t.agg("palbench", "op").unwrap().count, 1);
    }
}
