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
//!   machine. Wall-clock durations are captured on the side and *never*
//!   enter the deterministic exports, so traces can be golden-tested
//!   byte for byte. [`Tracer::new`] retains every span (for golden-trace
//!   tests); [`Tracer::flight`] is the production **flight recorder**: a
//!   bounded ring of the most recently finished spans with deterministic
//!   oldest-first eviction, so long runs keep O(capacity) memory and
//!   [`Tracer::dump`] always has a post-incident snapshot.
//! * [`Metrics`] — a registry of named counters, gauges and log2-bucket
//!   [`Histogram`]s. Counter updates are commutative, so totals stay
//!   deterministic even when worker threads race. [`Metrics::windowed`]
//!   adds epoch-rotated sliding windows: observations land in the
//!   current window, [`Metrics::rotate_window`] (driven by the caller's
//!   logical tick cadence, never wall-clock) closes it, and
//!   [`Metrics::window_counter`] / [`Metrics::window_snapshot`] read the
//!   last K closed windows — recent behaviour, not lifetime averages.
//! * Lossless rollups — [`Histogram::merge`] and
//!   [`MetricsSnapshot::merge`] combine per-peer metrics into a cluster
//!   view. Log2 buckets plus exact count/sum/min/max make histogram
//!   merge *exact*: merging equals observing the union.
//! * Deterministic **head sampling** — [`ObsConfig::sample_rate`] keeps
//!   a pure-hash-chosen fraction of root spans (children follow their
//!   root), bounding tracing overhead under sustained load without
//!   losing run-to-run determinism.
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::fault::{mix, unit};

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
    /// Wall-clock nanoseconds between start and finish. Diagnostic only:
    /// excluded from the deterministic exports.
    pub wall_ns: Option<u128>,
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

/// A started, not yet finished span plus its wall-clock start.
#[derive(Debug)]
struct OpenSpan {
    rec: SpanRecord,
    started_at: Instant,
}

#[derive(Debug, Default)]
struct TracerInner {
    ticks: u64,
    /// Ids handed out so far (monotone; ids stay dense in start order
    /// even after old spans have been evicted).
    started: usize,
    /// Spans currently open, by id. Bounded by instrumented nesting depth
    /// (the span stack), never by trace length.
    open: BTreeMap<usize, OpenSpan>,
    /// Finished spans in finish order. In flight-recorder mode this is a
    /// ring: once `capacity` is reached, finishing a span evicts the
    /// oldest-finished one.
    done: VecDeque<SpanRecord>,
    /// `None` = unbounded (golden-trace mode); `Some(n)` = flight
    /// recorder keeping at most `n` finished spans.
    capacity: Option<usize>,
    /// Finished spans evicted so far (flight-recorder mode only).
    evicted: u64,
}

impl TracerInner {
    /// References to every retained span (finished and open), sorted by
    /// span id — the one walk all exporters share, clone-free.
    fn sorted(&self) -> Vec<&SpanRecord> {
        let mut refs: Vec<&SpanRecord> =
            self.done.iter().chain(self.open.values().map(|o| &o.rec)).collect();
        refs.sort_by_key(|s| s.id);
        refs
    }
}

/// A deterministic structured tracer: a tree of [`SpanRecord`]s on a
/// logical tick clock. Cheap to clone (shared handle); interior mutability
/// so instrumented code can record through `&self` receivers.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A fresh unbounded tracer at tick 0: every span is retained, so
    /// exports are complete. This is the golden-trace-test mode; long
    /// runs should use [`Tracer::flight`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh **flight recorder** at tick 0: at most `capacity` finished
    /// spans are retained, evicting the oldest-finished deterministically,
    /// so memory is O(capacity) regardless of trace length. `capacity` is
    /// clamped to at least 1.
    pub fn flight(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                capacity: Some(capacity.max(1)),
                ..TracerInner::default()
            })),
        }
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
        let id = t.started;
        t.started += 1;
        let start_tick = t.ticks;
        t.ticks += 1;
        t.open.insert(
            id,
            OpenSpan {
                rec: SpanRecord {
                    id,
                    parent,
                    name,
                    args: Vec::new(),
                    start_tick,
                    end_tick: None,
                    wall_ns: None,
                },
                started_at: Instant::now(),
            },
        );
        Span { tracer: self.clone(), id, closed: false }
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

    /// Snapshot every *retained* span (in span-id order). In unbounded
    /// mode that is the full trace; a flight recorder returns its ring
    /// plus any still-open spans. Clones each record.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().sorted().into_iter().cloned().collect()
    }

    /// Number of spans started so far (including evicted ones).
    pub fn len(&self) -> usize {
        self.lock().started
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spans currently retained (finished ring + open spans).
    pub fn retained(&self) -> usize {
        let t = self.lock();
        t.done.len() + t.open.len()
    }

    /// Finished spans evicted from the flight-recorder ring so far.
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// The flight-recorder capacity (`None` for an unbounded tracer).
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// Export the span tree as a Chrome trace-event JSON array (the
    /// `chrome://tracing` / Perfetto "JSON Array Format"). Timestamps and
    /// durations are **logical ticks**, so for a fixed instrumented code
    /// path the output is byte-identical run to run; wall-clock is
    /// deliberately left out. Load with `ph:"X"` complete events; spans
    /// still open at export time run to the current tick. A flight
    /// recorder exports only its retained window.
    pub fn chrome_trace(&self) -> String {
        let t = self.lock();
        let now = t.ticks;
        let mut out = String::from("[");
        for (i, s) in t.sorted().into_iter().enumerate() {
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

    /// The post-incident text snapshot: one line per retained span,
    /// ordered by span id, headed by the recorder's accounting. Purely
    /// logical-tick data, so a fixed code path dumps byte-identically.
    pub fn dump(&self) -> String {
        let t = self.lock();
        let cap = match t.capacity {
            Some(c) => c.to_string(),
            None => "unbounded".to_string(),
        };
        let mut out = format!(
            "flight recorder: capacity={cap} retained={} evicted={} started={} now={}\n",
            t.done.len() + t.open.len(),
            t.evicted,
            t.started,
            t.ticks,
        );
        for s in t.sorted() {
            let end = match s.end_tick {
                Some(e) => e.to_string(),
                None => "*".to_string(),
            };
            out.push_str(&format!("#{} {} [{}..{}]", s.id, s.name, s.start_tick, end));
            if let Some(p) = s.parent {
                out.push_str(&format!(" parent={p}"));
            }
            for (k, v) in &s.args {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render the span tree as indented text — the human-facing view of
    /// the same deterministic data the JSON export carries. Spans whose
    /// parent was evicted from a flight-recorder ring render as roots.
    pub fn render_tree(&self) -> String {
        let t = self.lock();
        let now = t.ticks;
        let by_id: BTreeMap<usize, &SpanRecord> =
            t.sorted().into_iter().map(|s| (s.id, s)).collect();
        let mut children: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
        for s in by_id.values() {
            let key = s.parent.filter(|p| by_id.contains_key(p));
            children.entry(key).or_default().push(s.id);
        }
        let mut out = String::new();
        let mut stack: Vec<(usize, usize)> = children
            .get(&None)
            .map(|roots| roots.iter().rev().map(|&r| (r, 0)).collect())
            .unwrap_or_default();
        while let Some((id, depth)) = stack.pop() {
            let s = by_id[&id];
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} [{}..{}]", s.name, s.start_tick, s.end_tick.unwrap_or(now)));
            for (k, v) in &s.args {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            if let Some(kids) = children.get(&Some(id)) {
                for &k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
        out
    }
}

/// An open span. Finishes (records its end tick) on [`Span::finish`] or
/// on drop, whichever comes first.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: usize,
    closed: bool,
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
        let Some(open) = t.open.get_mut(&self.id) else { return };
        let value = value.to_string();
        match open.rec.args.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => open.rec.args.push((key.to_string(), value)),
        }
    }

    /// Close the span at the current tick.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut t = self.tracer.lock();
        let Some(mut open) = t.open.remove(&self.id) else { return };
        let end = t.ticks;
        t.ticks += 1;
        open.rec.end_tick = Some(end);
        open.rec.wall_ns = Some(open.started_at.elapsed().as_nanos());
        t.done.push_back(open.rec);
        if let Some(cap) = t.capacity {
            while t.done.len() > cap {
                t.done.pop_front();
                t.evicted += 1;
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
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

/// One sliding window's worth of deltas: the counters and histogram
/// observations that landed while this window was current.
#[derive(Debug, Default, Clone)]
struct Frame {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Sliding-window state for a windowed [`Metrics`] registry: the
/// in-progress frame plus up to `keep` closed frames.
#[derive(Debug)]
struct WindowState {
    keep: usize,
    current: Frame,
    closed: VecDeque<Frame>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    windows: Option<WindowState>,
}

/// A registry of named counters, gauges and histograms. Cheap to clone
/// (shared handle); `&self` updates via interior mutability. Snapshots
/// render in sorted name order, so output is deterministic.
///
/// [`Metrics::windowed`] additionally keeps epoch-rotated sliding
/// windows: every `inc`/`observe` also lands in the *current* window,
/// [`Metrics::rotate_window`] closes it (retaining the last `keep`
/// closed windows), and [`Metrics::window_counter`] /
/// [`Metrics::window_snapshot`] read only those closed windows. Rotation is driven by the caller's
/// logical tick cadence — never wall-clock — so windowed readings are as
/// byte-deterministic as cumulative ones.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
}

impl Metrics {
    /// An empty cumulative-only registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry that also keeps the last `keep` rotated windows
    /// (`keep` is clamped to at least 1).
    pub fn windowed(keep: usize) -> Self {
        Metrics {
            inner: Arc::new(Mutex::new(MetricsInner {
                windows: Some(WindowState {
                    keep: keep.max(1),
                    current: Frame::default(),
                    closed: VecDeque::new(),
                }),
                ..MetricsInner::default()
            })),
        }
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
        if let Some(w) = &mut m.windows {
            *w.current.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge.
    pub fn set_gauge(&self, name: &str, v: i64) {
        self.lock().gauges.insert(name.to_string(), v);
    }

    /// Read a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().gauges.get(name).copied()
    }

    /// Record an observation into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut m = self.lock();
        m.histograms.entry(name.to_string()).or_default().observe(v);
        if let Some(w) = &mut m.windows {
            w.current.histograms.entry(name.to_string()).or_default().observe(v);
        }
    }

    /// Clone out the named histogram (cumulative).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Close the current window and open a fresh one, retaining at most
    /// `keep` closed windows. No-op on a cumulative-only registry.
    pub fn rotate_window(&self) {
        let mut m = self.lock();
        if let Some(w) = &mut m.windows {
            let frame = std::mem::take(&mut w.current);
            w.closed.push_back(frame);
            while w.closed.len() > w.keep {
                w.closed.pop_front();
            }
        }
    }

    /// Sum of the named counter over the retained closed windows.
    pub fn window_counter(&self, name: &str) -> u64 {
        let m = self.lock();
        m.windows
            .as_ref()
            .map_or(0, |w| w.closed.iter().filter_map(|f| f.counters.get(name)).sum())
    }

    /// A point-in-time copy of every metric, for rendering or assertions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        MetricsSnapshot {
            counters: m.counters.clone(),
            gauges: m.gauges.clone(),
            histograms: m.histograms.clone(),
        }
    }

    /// A snapshot of the retained closed windows only: counters summed
    /// and histograms merged across them, gauges carried over at their
    /// current value (gauges are points, not deltas). This is what a
    /// monitor scrapes to see *recent* behaviour.
    pub fn window_snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        let mut out = MetricsSnapshot { gauges: m.gauges.clone(), ..MetricsSnapshot::default() };
        if let Some(w) = m.windows.as_ref() {
            for f in &w.closed {
                for (k, v) in &f.counters {
                    *out.counters.entry(k.clone()).or_insert(0) += v;
                }
                for (k, h) in &f.histograms {
                    out.histograms.entry(k.clone()).or_default().merge(h);
                }
            }
        }
        out
    }
}

/// A frozen copy of a [`Metrics`] registry. `Display` renders one
/// machine-parseable line per metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters and gauges add, histograms
    /// merge losslessly ([`Histogram::merge`]). Gauges *sum* because a
    /// rollup reads them as cluster totals (total WAL backlog, total
    /// sync lag); per-peer points stay visible in per-peer snapshots.
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

/// How an [`Obs`] handle records: unbounded vs flight-recorder tracing,
/// full vs head-sampled spans. The
/// default (`Obs::enabled()`) is the golden-trace configuration: retain
/// everything, sample nothing away.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// `Some(n)` bounds the tracer to a flight-recorder ring of `n`
    /// finished spans ([`Tracer::flight`]); `None` retains every span.
    pub flight_capacity: Option<usize>,
    /// `Some(r)` head-samples root spans at rate `r` (`0.0..=1.0`): a
    /// pure-hash draw on `(sample_seed, root ordinal)` keeps the span
    /// tree for ~`r` of the roots and drops it (children included,
    /// recorded as no-ops) for the rest. `None` traces every root.
    pub sample_rate: Option<f64>,
    /// Seed for the sampling draw — same seed, same call sequence, same
    /// kept set, so sampled traces stay byte-deterministic.
    pub sample_seed: u64,
}

/// Head-sampling state: the pure-hash draw plus the root ordinal.
#[derive(Debug)]
struct Sampler {
    rate: f64,
    seed: u64,
    roots: Mutex<u64>,
}

const SALT_SAMPLE: u64 = 0x0b5e_c0de_5a3b_1e5d;

impl Sampler {
    /// Deterministically decide the next root span's fate.
    fn keep_next(&self) -> bool {
        let mut n = self.roots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ordinal = *n;
        *n += 1;
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        unit(mix(&[self.seed, SALT_SAMPLE, ordinal])) < self.rate
    }
}

#[derive(Debug)]
struct ObsCore {
    tracer: Tracer,
    metrics: Metrics,
    sampler: Option<Sampler>,
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
    /// A live handle with a fresh unbounded tracer and cumulative metrics
    /// registry — the golden-trace configuration.
    pub fn enabled() -> Self {
        Self::with_config(ObsConfig::default())
    }

    /// A live handle configured for production telemetry: flight-recorder
    /// capacity, head sampling, or both.
    pub fn with_config(cfg: ObsConfig) -> Self {
        let tracer = match cfg.flight_capacity {
            Some(cap) => Tracer::flight(cap),
            None => Tracer::new(),
        };
        let sampler = cfg
            .sample_rate
            .map(|rate| Sampler { rate, seed: cfg.sample_seed, roots: Mutex::new(0) });
        Obs { inner: Some(Arc::new(ObsCore { tracer, metrics: Metrics::new(), sampler })) }
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

    /// Gauge set (no-op when disabled).
    pub fn set_gauge(&self, name: &str, v: i64) {
        if let Some(c) = &self.inner {
            c.metrics.set_gauge(name, v);
        }
    }

    /// Charge `n` logical ticks to the trace clock (no-op when disabled).
    pub fn advance(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.tracer.advance(n);
        }
    }

    /// Open a root span (a no-op handle when disabled, or when the head
    /// sampler drops this root — children of a dropped root are free).
    pub fn span(&self, name: &str) -> SpanHandle {
        let Some(c) = &self.inner else { return SpanHandle(None) };
        if let Some(s) = &c.sampler {
            if !s.keep_next() {
                return SpanHandle(None);
            }
        }
        SpanHandle(Some(c.tracer.span(name)))
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
        assert!(spans[0].wall_ns.is_some());
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
    fn flight_recorder_bounds_memory_and_evicts_oldest() {
        let t = Tracer::flight(4);
        assert_eq!(t.capacity(), Some(4));
        for i in 0..100 {
            t.span(format!("s{i}")).finish();
        }
        assert_eq!(t.len(), 100, "len counts every started span");
        assert_eq!(t.retained(), 4, "ring holds exactly its capacity");
        assert_eq!(t.evicted(), 96);
        // Survivors are the most recent finishes, exported in id order.
        let ids: Vec<usize> = t.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![96, 97, 98, 99]);
    }

    #[test]
    fn flight_recorder_dump_is_ordered_and_deterministic() {
        let run = || {
            let t = Tracer::flight(3);
            let root = t.span("root");
            root.set("peer", "P0");
            for i in 0..5 {
                root.child(format!("c{i}")).finish();
            }
            drop(root);
            t.dump()
        };
        let d = run();
        assert_eq!(d, run(), "dump diverged across identical runs");
        assert!(d.starts_with("flight recorder: capacity=3 retained=3 evicted=3 started=6"), "{d}");
        // Ordered by span id: the retained children then the root.
        let i4 = d.find("#4 c3").expect("span 4 retained");
        let i5 = d.find("#5 c4").expect("span 5 retained");
        assert!(i4 < i5, "{d}");
        // Children whose parent survives keep the parent edge; render_tree
        // treats evicted parents as roots without panicking.
        assert!(d.contains("parent=0"), "{d}");
        let _ = Tracer::flight(1).render_tree();
    }

    #[test]
    fn unbounded_dump_and_open_spans_render() {
        let t = Tracer::new();
        let root = t.span("open_root");
        let d = t.dump();
        assert!(d.contains("capacity=unbounded"), "{d}");
        assert!(d.contains("#0 open_root [0..*]"), "open span marked: {d}");
        root.finish();
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
        m.set_gauge("depth", -4);
        m.observe("lat", 7);
        m.observe("lat", 100);
        assert_eq!(m.counter("b.count"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("depth"), Some(-4));
        assert_eq!(m.histogram("lat").unwrap().count, 2);
        let text = m.snapshot().to_string();
        let a_pos = text.find("counter a.count=1").expect("a.count line");
        let b_pos = text.find("counter b.count=5").expect("b.count line");
        assert!(a_pos < b_pos, "sorted order: {text}");
        assert!(text.contains("gauge depth=-4"), "{text}");
        assert!(text.contains("histogram lat count=2"), "{text}");
    }

    #[test]
    fn windowed_metrics_read_only_closed_windows() {
        let m = Metrics::windowed(2);
        m.inc("c", 10);
        m.observe("h", 100);
        // Nothing rotated yet: windowed readers see nothing, cumulative
        // readers see everything.
        assert_eq!(m.window_counter("c"), 0);
        assert_eq!(m.counter("c"), 10);
        m.rotate_window();
        assert_eq!(m.window_counter("c"), 10);
        // Two more rotations age the first window out (keep = 2).
        m.inc("c", 4);
        m.rotate_window();
        m.rotate_window();
        assert_eq!(m.window_counter("c"), 4, "first window aged out");
        // Cumulative view is untouched by rotation.
        assert_eq!(m.counter("c"), 14);
        // window_snapshot carries only retained-window deltas (+ gauges).
        m.set_gauge("g", 7);
        let ws = m.window_snapshot();
        assert_eq!(ws.counters.get("c"), Some(&4));
        assert_eq!(ws.gauges.get("g"), Some(&7));
        // rotate_window on a cumulative registry is a no-op.
        let plain = Metrics::new();
        plain.inc("c", 1);
        plain.rotate_window();
        assert!(plain.window_snapshot().counters.is_empty());
        assert_eq!(plain.counter("c"), 1);
    }

    #[test]
    fn snapshot_merge_rolls_up_losslessly() {
        let (a, b) = (Metrics::new(), Metrics::new());
        a.inc("x", 2);
        a.set_gauge("g", 5);
        a.observe("h", 10);
        b.inc("x", 3);
        b.inc("y", 1);
        b.set_gauge("g", -2);
        b.observe("h", 1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
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
    fn head_sampling_is_deterministic_and_bounds_spans() {
        let run = |rate| {
            let o = Obs::with_config(ObsConfig {
                sample_rate: Some(rate),
                sample_seed: 7,
                ..ObsConfig::default()
            });
            for i in 0..200 {
                let root = o.span("root");
                root.child(&format!("kid{i}")).finish();
                root.finish();
            }
            (o.tracer().unwrap().len(), o.tracer().unwrap().chrome_trace())
        };
        let (n_kept, trace_a) = run(0.25);
        let (n_again, trace_b) = run(0.25);
        assert_eq!(n_kept, n_again, "sampled span count diverged");
        assert_eq!(trace_a, trace_b, "sampled trace diverged");
        // Roughly the configured fraction of the 400 spans survives, and
        // children follow their roots exactly (even count).
        assert!(n_kept % 2 == 0, "a kept root keeps its child");
        assert!((40..160).contains(&n_kept), "rate 0.25 kept {n_kept} of 400");
        // Boundary rates short-circuit.
        assert_eq!(run(1.0).0, 400);
        assert_eq!(run(0.0).0, 0);
        // Metrics still record under sampling.
        let o = Obs::with_config(ObsConfig { sample_rate: Some(0.0), ..ObsConfig::default() });
        o.inc("c", 1);
        assert_eq!(o.metrics().unwrap().counter("c"), 1);
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
