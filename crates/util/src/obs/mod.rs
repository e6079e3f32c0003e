//! Observability substrate: deterministic tracing, metrics, exporters.
//!
//! The PDMS answers a query by chaining reformulation, view rewriting and
//! multi-peer fetch — a layered pipeline where "the answer is small, slow
//! or incomplete" is undiagnosable without per-stage accounting. This
//! module is the zero-dependency substrate the storage, query and pdms
//! layers thread their accounting through:
//!
//! * [`Tracer`] — a structured span tree keyed by a **logical tick
//!   clock**. Every span start/end consumes one tick, and simulated
//!   latency can be charged with [`Tracer::advance`], so span timestamps
//!   are a pure function of the instrumented code path, not of the
//!   machine, and traces can be golden-tested byte for byte. A tracer
//!   keeps every span it starts, so its exports are always complete.
//! * [`Metrics`] — a registry of named counters and log2-bucket
//!   [`Histogram`]s. Counter updates are commutative, so totals stay
//!   deterministic even when worker threads race.
//! * Lossless rollups — [`Histogram::merge`] and
//!   [`MetricsSnapshot::merge`] combine per-peer metrics into a cluster
//!   view. Log2 buckets plus exact count/sum/min/max make histogram
//!   merge *exact*: merging equals observing the union.
//! * Chrome trace-event export ([`Tracer::chrome_trace`]) — the JSON
//!   array `chrome://tracing` / Perfetto load directly, rendered with an
//!   in-repo serializer (the workspace has no serde).
//! * [`LogSink`] — the shared writer the bench/property harnesses report
//!   through instead of bare `println!`/`eprintln!`, so harness output is
//!   machine-parseable and separable from test noise.
//!
//! Canonical metric names live in [`names`]; every `Obs::inc`/`observe`
//! call site uses those constants, and [`names::unregistered`] lets tests
//! fail on strays.
//!
//! The [`Obs`] handle bundles one tracer and one metrics registry behind
//! a cheap `Clone`; [`Obs::disabled`] is a no-alloc no-op, so hot paths
//! take `&Obs` unconditionally and instrumentation costs nothing when
//! off. The contract every instrumented layer upholds: **enabling
//! observability never changes answers** — only what is recorded about
//! producing them.

pub mod names;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// One recorded span: a named interval on the logical tick clock, with
/// ordered key→value annotations and an optional parent.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Dense id, in span-*start* order (0-based).
    pub id: usize,
    /// Parent span id, `None` for roots.
    pub parent: Option<usize>,
    /// Span name, e.g. `pdms.fetch.relation`.
    pub name: String,
    /// Annotations in insertion order (later `set` of a key replaces the
    /// value in place, keeping the order stable).
    pub args: Vec<(String, String)>,
    /// Logical tick at span start.
    pub start_tick: u64,
    /// Logical tick at span end (`None` while open).
    pub end_tick: Option<u64>,
}

impl SpanRecord {
    /// Duration in logical ticks (open spans extend to `now`).
    pub fn ticks(&self, now: u64) -> u64 {
        self.end_tick.unwrap_or(now).saturating_sub(self.start_tick)
    }

    /// Look up an annotation.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    ticks: u64,
    /// Every span started so far, indexed by id; open ones have no end
    /// tick yet.
    spans: Vec<SpanRecord>,
}

/// A deterministic structured tracer: a tree of [`SpanRecord`]s on a
/// logical tick clock. Cheap to clone (shared handle); interior mutability
/// so instrumented code can record through `&self` receivers.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A fresh tracer at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        // Plain data behind the lock; recover from poisoning like the
        // storage catalog does (DESIGN.md §5).
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Open a root span.
    pub fn span(&self, name: impl Into<String>) -> Span {
        self.open(name.into(), None)
    }

    fn open(&self, name: String, parent: Option<usize>) -> Span {
        let mut t = self.lock();
        let id = t.spans.len();
        let start_tick = t.ticks;
        t.ticks += 1;
        t.spans.push(SpanRecord { id, parent, name, args: Vec::new(), start_tick, end_tick: None });
        Span { tracer: self.clone(), id }
    }

    /// Advance the logical clock by `n` ticks — how simulated latency
    /// (network backoff, fault-plan delays) is charged to the trace.
    pub fn advance(&self, n: u64) {
        self.lock().ticks += n;
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.lock().ticks
    }

    /// Snapshot every span, finished and open, in span-id order. Clones
    /// each record.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Number of spans started so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Export the span tree as a Chrome trace-event JSON array (the
    /// `chrome://tracing` / Perfetto "JSON Array Format"). Timestamps and
    /// durations are **logical ticks**, so for a fixed instrumented code
    /// path the output is byte-identical run to run. Load with `ph:"X"`
    /// complete events; spans still open at export time run to the
    /// current tick.
    pub fn chrome_trace(&self) -> String {
        let t = self.lock();
        let now = t.ticks;
        let mut out = String::from("[");
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            json_string(&mut out, &s.name);
            out.push_str(",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":");
            out.push_str(&s.start_tick.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&s.ticks(now).to_string());
            out.push_str(",\"args\":{\"id\":");
            out.push_str(&s.id.to_string());
            if let Some(p) = s.parent {
                out.push_str(",\"parent\":");
                out.push_str(&p.to_string());
            }
            for (k, v) in &s.args {
                out.push(',');
                json_string(&mut out, k);
                out.push(':');
                json_string(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }

    /// Render the span tree as indented text — the human-facing view of
    /// the same deterministic data the JSON export carries. Siblings, and
    /// roots, appear in span-id order.
    pub fn render_tree(&self) -> String {
        let t = self.lock();
        let now = t.ticks;
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); t.spans.len()];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        // A parent starts before its children, so walking ids downwards
        // fills every list, and the stack, smallest id on top.
        for s in t.spans.iter().rev() {
            match s.parent {
                Some(p) => children[p].push(s.id),
                None => stack.push((s.id, 0)),
            }
        }
        let mut out = String::new();
        while let Some((id, depth)) = stack.pop() {
            let s = &t.spans[id];
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} [{}..{}]", s.name, s.start_tick, s.end_tick.unwrap_or(now)));
            for (k, v) in &s.args {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            stack.extend(children[id].iter().map(|&k| (k, depth + 1)));
        }
        out
    }
}

/// An open span. Finishes (records its end tick) on [`Span::finish`] or
/// on drop.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: usize,
}

impl Span {
    /// This span's id in the tracer.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Open a child span.
    pub fn child(&self, name: impl Into<String>) -> Span {
        self.tracer.open(name.into(), Some(self.id))
    }

    /// Set an annotation (replaces an existing key in place).
    pub fn set(&self, key: &str, value: impl fmt::Display) {
        let mut t = self.tracer.lock();
        let args = &mut t.spans[self.id].args;
        let value = value.to_string();
        match args.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => args.push((key.to_string(), value)),
        }
    }

    /// Close the span at the current tick.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let mut t = self.tracer.lock();
        let end = t.ticks;
        t.ticks += 1;
        t.spans[self.id].end_tick = Some(end);
    }
}

/// Escape and append a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render `s` as a JSON string literal (quotes included) — the same
/// escaper the Chrome export uses, for other modules emitting trace
/// events (e.g. the pdms monitor's rollup export).
pub fn json_escape(s: &str) -> String {
    let mut out = String::new();
    json_string(&mut out, s);
    out
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A log2-bucket histogram over `u64` observations: bucket `i` holds
/// values whose bit length is `i` (0 → bucket 0, 1 → bucket 1, 2..3 →
/// bucket 2, 4..7 → bucket 3, ...). Exact count/sum/min/max ride along,
/// so means are exact and percentiles are bucket-upper-bound estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Smallest observation (u64::MAX when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `i`. Bucket 64 holds values with
    /// the top bit set; its bound is `u64::MAX` (a plain `1 << 64` would
    /// overflow — caught by the `u64::MAX` edge-case test).
    fn bucket_top(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`. Log2 buckets make this **lossless**:
    /// the merge is exactly the histogram that would have observed the
    /// union of both observation streams (count, sum, min, max and every
    /// bucket agree) — which is what lets per-peer histograms roll up
    /// into an exact cluster view.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the bucket
    /// holding the `ceil(q·count)`-th observation, clamped to the exact
    /// max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_top(i).min(self.max);
            }
        }
        self.max
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named counters and histograms. Cheap to clone (shared
/// handle); `&self` updates via interior mutability. Snapshots render in
/// sorted name order, so output is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MetricsInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Add `n` to the named counter (creating it at 0).
    pub fn inc(&self, name: &str, n: u64) {
        let mut m = self.lock();
        match m.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                m.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Record an observation into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        self.lock().histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Clone out the named histogram.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// A point-in-time copy of every metric, for rendering or assertions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        MetricsSnapshot {
            counters: m.counters.clone(),
            histograms: m.histograms.clone(),
            ..MetricsSnapshot::default()
        }
    }
}

/// A frozen copy of a [`Metrics`] registry, or a rollup built from
/// several. `Display` renders one machine-parseable line per metric,
/// sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name: point readings a rollup carries (a registry
    /// records none).
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters and gauges add, histograms
    /// merge losslessly ([`Histogram::merge`]). Gauges *sum* because a
    /// rollup reads them as cluster totals (total WAL backlog, worst
    /// q-errors summed over peers).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "counter {k}={v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "gauge {k}={v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "histogram {k} count={} sum={} min={} max={} p50={} p95={}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.quantile(0.5),
                h.quantile(0.95),
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Obs: the handle instrumented layers carry
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ObsCore {
    tracer: Tracer,
    metrics: Metrics,
}

/// The observability handle threaded through storage → query → pdms: one
/// [`Tracer`] plus one [`Metrics`] registry, or nothing at all.
/// [`Obs::disabled`] allocates nothing and makes every operation a no-op,
/// so un-instrumented callers pay only a branch.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsCore>>,
}

impl Obs {
    /// A live handle with a fresh tracer and metrics registry.
    pub fn enabled() -> Self {
        Obs { inner: Some(Arc::new(ObsCore { tracer: Tracer::new(), metrics: Metrics::new() })) }
    }

    /// The no-op handle (no allocation).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// The tracer, when enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.as_deref().map(|c| &c.tracer)
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_deref().map(|c| &c.metrics)
    }

    /// Counter add (no-op when disabled).
    pub fn inc(&self, name: &str, n: u64) {
        if let Some(c) = &self.inner {
            c.metrics.inc(name, n);
        }
    }

    /// Histogram observation (no-op when disabled).
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(c) = &self.inner {
            c.metrics.observe(name, v);
        }
    }

    /// Charge `n` logical ticks to the trace clock (no-op when disabled).
    pub fn advance(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.tracer.advance(n);
        }
    }

    /// Open a root span (a no-op handle when disabled).
    pub fn span(&self, name: &str) -> SpanHandle {
        SpanHandle(self.inner.as_ref().map(|c| c.tracer.span(name)))
    }
}

/// A possibly-absent span: the disabled-observability twin of [`Span`].
/// Every method is a no-op when the underlying tracer is off, so
/// instrumented code reads the same either way.
#[derive(Debug, Default)]
pub struct SpanHandle(Option<Span>);

impl SpanHandle {
    /// The always-no-op handle.
    pub fn none() -> Self {
        SpanHandle(None)
    }

    /// True when this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Open a child span (no-op child when disabled).
    pub fn child(&self, name: &str) -> SpanHandle {
        SpanHandle(self.0.as_ref().map(|s| s.child(name)))
    }

    /// Set an annotation.
    pub fn set(&self, key: &str, value: impl fmt::Display) {
        if let Some(s) = &self.0 {
            s.set(key, value);
        }
    }

    /// Close the span at the current tick (also happens on drop).
    pub fn finish(self) {
        if let Some(s) = self.0 {
            s.finish();
        }
    }
}

// ---------------------------------------------------------------------------
// LogSink
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum SinkTarget {
    Stdout,
    Stderr,
    Capture(Vec<String>),
}

/// A shared line-oriented writer for harness diagnostics. The bench and
/// property harnesses emit through a sink instead of bare
/// `println!`/`eprintln!`: every line is prefixed `[stream]`, so
/// consumers can grep one stream out of interleaved output, and tests can
/// swap in a capturing sink to assert on (or silence) diagnostics.
#[derive(Debug, Clone)]
pub struct LogSink {
    target: Arc<Mutex<SinkTarget>>,
}

impl LogSink {
    /// A sink that prints to stdout.
    pub fn stdout() -> Self {
        LogSink { target: Arc::new(Mutex::new(SinkTarget::Stdout)) }
    }

    /// A sink that prints to stderr.
    pub fn stderr() -> Self {
        LogSink { target: Arc::new(Mutex::new(SinkTarget::Stderr)) }
    }

    /// A sink that buffers lines for later inspection.
    pub fn capture() -> Self {
        LogSink { target: Arc::new(Mutex::new(SinkTarget::Capture(Vec::new()))) }
    }

    /// Emit one line on `stream` (rendered as `[stream] line`).
    pub fn emit(&self, stream: &str, line: &str) {
        let rendered = format!("[{stream}] {line}");
        let mut t = self.target.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *t {
            SinkTarget::Stdout => println!("{rendered}"),
            SinkTarget::Stderr => eprintln!("{rendered}"),
            SinkTarget::Capture(lines) => lines.push(rendered),
        }
    }

    /// Emit one machine-parseable `key=value` record on `stream`. Values
    /// containing whitespace are double-quoted (with `"` and `\` escaped),
    /// so a consumer can split on spaces outside quotes.
    pub fn emit_kv(&self, stream: &str, fields: &[(&str, String)]) {
        let mut line = String::new();
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(k);
            line.push('=');
            if v.is_empty() || v.contains(char::is_whitespace) || v.contains('"') {
                line.push('"');
                for c in v.chars() {
                    if c == '"' || c == '\\' {
                        line.push('\\');
                    }
                    line.push(c);
                }
                line.push('"');
            } else {
                line.push_str(v);
            }
        }
        self.emit(stream, &line);
    }

    /// Lines captured so far (empty for stdout/stderr sinks).
    pub fn lines(&self) -> Vec<String> {
        let t = self.target.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*t {
            SinkTarget::Capture(lines) => lines.clone(),
            _ => Vec::new(),
        }
    }
}

impl Default for LogSink {
    fn default() -> Self {
        Self::stdout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_records_parents_args_and_ticks() {
        let t = Tracer::new();
        let root = t.span("query");
        root.set("peer", "MIT");
        {
            let child = root.child("fetch");
            child.set("relation", "Berkeley.course");
            child.set("relation", "Berkeley.course2"); // replace in place
            t.advance(5);
            child.finish();
        }
        root.finish();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].arg("relation"), Some("Berkeley.course2"));
        assert_eq!(spans[1].args.len(), 1);
        // Each start/end consumes a tick: start(root)@0, start(child)@1
        // (clock now 2), +5 latency → 7, end(child)@7, end(root)@8.
        assert_eq!(spans[1].start_tick, 1);
        assert_eq!(spans[1].end_tick, Some(7));
        assert_eq!(spans[0].end_tick, Some(8));
    }

    #[test]
    fn spans_close_on_drop() {
        let t = Tracer::new();
        {
            let _s = t.span("scoped");
        }
        assert_eq!(t.spans()[0].end_tick, Some(1));
    }

    #[test]
    fn chrome_trace_is_deterministic_and_excludes_wall_clock() {
        let run = || {
            let t = Tracer::new();
            let root = t.span("q");
            root.set("n", 3);
            let c = root.child("step \"one\"\n");
            c.finish();
            root.finish();
            t.chrome_trace()
        };
        let a = run();
        // Two fresh runs of the same path are byte-identical even though
        // their wall clocks differ.
        assert_eq!(a, run());
        assert!(a.contains("\"ph\":\"X\""), "{a}");
        assert!(a.contains("\\\"one\\\""), "escaped quote: {a}");
        assert!(a.contains("\\n"), "escaped newline: {a}");
        assert!(!a.contains("wall"), "wall clock leaked into export: {a}");
        assert!(a.starts_with('[') && a.ends_with("]\n"), "{a}");
    }

    #[test]
    fn render_tree_indents_children() {
        let t = Tracer::new();
        let root = t.span("root");
        root.child("kid").finish();
        root.finish();
        t.span("second_root").finish();
        let tree = t.render_tree();
        assert!(tree.contains("root [0..3]"), "{tree}");
        assert!(tree.contains("\n  kid [1..2]"), "{tree}");
        assert!(tree.contains("\nsecond_root"), "{tree}");
    }

    #[test]
    fn unbounded_dump_and_open_spans_render() {
        // Every span is kept, and a span still open runs to the current
        // tick in both renderings.
        let t = Tracer::new();
        let root = t.span("open_root");
        root.child("done").finish();
        assert_eq!(t.render_tree(), "open_root [0..3]\n  done [1..2]\n");
        let trace = t.chrome_trace();
        let open_root = "\"name\":\"open_root\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":3";
        assert!(trace.contains(open_root), "{trace}");
        root.finish();
        assert_eq!(t.spans()[0].end_tick, Some(3));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1110);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.quantile(0.0), 0);
        // p50 = 4th of 7 observations → value 3 lands in bucket 2 (top 3).
        assert_eq!(h.quantile(0.5), 3);
        // The top quantile is clamped to the exact max, not the bucket top.
        assert_eq!(h.quantile(1.0), 1000);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count, 0);
    }

    #[test]
    fn single_observation_histogram() {
        let mut h = Histogram::default();
        h.observe(42);
        assert_eq!((h.count, h.sum, h.min, h.max), (1, 42, 42, 42));
        // Every quantile of a single observation is that observation
        // (the bucket top clamps to the exact max).
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn extreme_observation_does_not_overflow() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.min, u64::MAX);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn merge_equals_observing_the_union() {
        // Hand-picked boundary values; the seeded sweep lives in
        // tests/property_tests.rs.
        let xs = [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX];
        let ys = [0u64, 5, 63, 64, u64::MAX - 1];
        let (mut a, mut b, mut union) =
            (Histogram::default(), Histogram::default(), Histogram::default());
        for &x in &xs {
            a.observe(x);
            union.observe(x);
        }
        for &y in &ys {
            b.observe(y);
            union.observe(y);
        }
        a.merge(&b);
        assert_eq!(a, union, "merge must equal observing the union");
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn metrics_registry_counts_and_snapshots_deterministically() {
        let m = Metrics::new();
        m.inc("b.count", 2);
        m.inc("a.count", 1);
        m.inc("b.count", 3);
        m.observe("lat", 7);
        m.observe("lat", 100);
        assert_eq!(m.counter("b.count"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("lat").unwrap().count, 2);
        let text = m.snapshot().to_string();
        let a_pos = text.find("counter a.count=1").expect("a.count line");
        let b_pos = text.find("counter b.count=5").expect("b.count line");
        assert!(a_pos < b_pos, "sorted order: {text}");
        assert!(text.contains("histogram lat count=2"), "{text}");
    }

    #[test]
    fn snapshot_merge_rolls_up_losslessly() {
        let (a, b) = (Metrics::new(), Metrics::new());
        a.inc("x", 2);
        a.observe("h", 10);
        b.inc("x", 3);
        b.inc("y", 1);
        b.observe("h", 1000);
        let mut merged = a.snapshot();
        merged.gauges.insert("g".to_string(), 5);
        let mut other = b.snapshot();
        other.gauges.insert("g".to_string(), -2);
        merged.merge(&other);
        assert_eq!(merged.counters.get("x"), Some(&5));
        assert_eq!(merged.counters.get("y"), Some(&1));
        assert_eq!(merged.gauges.get("g"), Some(&3), "gauges sum in rollups");
        let h = &merged.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 1010, 10, 1000));
    }

    #[test]
    fn disabled_obs_is_free_and_inert() {
        let o = Obs::disabled();
        assert!(o.tracer().is_none());
        o.inc("x", 1);
        o.observe("y", 2);
        o.advance(10);
        let s = o.span("nothing");
        assert!(!s.is_recording());
        s.child("nested").set("k", "v");
        s.finish();
        assert!(o.tracer().is_none());
        assert!(o.metrics().is_none());
    }

    #[test]
    fn enabled_obs_records_through_the_handle() {
        let o = Obs::enabled();
        let s = o.span("root");
        s.child("leaf").finish();
        s.finish();
        o.inc("c", 2);
        assert_eq!(o.tracer().unwrap().len(), 2);
        assert_eq!(o.metrics().unwrap().counter("c"), 2);
        // Clones share state.
        let o2 = o.clone();
        o2.inc("c", 1);
        assert_eq!(o.metrics().unwrap().counter("c"), 3);
    }

    #[test]
    fn json_escape_matches_export_escaping() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn log_sink_captures_and_prefixes() {
        let sink = LogSink::capture();
        sink.emit("bench", "hello");
        sink.emit_kv(
            "bench",
            &[("name", "g/f".to_string()), ("title", "two words".to_string()), ("n", "3".to_string())],
        );
        let lines = sink.lines();
        assert_eq!(lines[0], "[bench] hello");
        assert_eq!(lines[1], "[bench] name=g/f title=\"two words\" n=3");
        // stdout sinks don't capture.
        assert!(LogSink::stdout().lines().is_empty());
    }
}
