//! The benchmark's own span recorder.
//!
//! The library crates carry no spans on most of these paths yet, so the
//! traced pass records them from outside, around public calls. Two kinds:
//!
//! * a **front-door** span times a call the operation really makes
//!   (`query_str`, `seal`, `publish`, a slice of `Mangrove::publish`);
//! * a **staged** span times a replay, after that call has returned, of
//!   one layer's share of it through the layer's public function on
//!   shadow state. Its `parent` is the front-door span whose inner work it
//!   replays, so its interval lies *after* the parent's, not inside it.
//!
//! A span's self time is its duration minus its children's durations; for
//! a front-door span that remainder is the time no staged layer accounts
//! for. Spans are kept in memory and written out once, when the pass ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span in [`Recorder::spans`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a module path, as in the metric names).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op_id: u32,
    /// True for a replay on shadow state, false for a front-door call.
    pub staged: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink for one traced pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    op_id: u32,
    /// Every span recorded so far, in creation order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            op_id: 0,
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Spans recorded from now on belong to operation `op_id`.
    pub fn begin_op(&mut self, op_id: usize) {
        self.op_id = op_id as u32;
    }

    /// Record a front-door call already timed by the operation loop.
    pub fn front(&mut self, name: &'static str, start: Instant, dur: Duration) -> SpanId {
        self.push(name, None, start, dur, false)
    }

    /// Run and record a staged replay under `parent`.
    pub fn staged<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        (out, self.push(name, Some(parent), start, dur, true))
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        dur: Duration,
        staged: bool,
    ) -> SpanId {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            op_id: self.op_id,
            staged,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Per span name: (summed duration, summed self time), nanoseconds.
    /// Self time is signed: a replay can cost more than the call it
    /// replays, and hiding that would hide a reconciliation failure.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, i64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, i64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += s.dur() as i64 - kids as i64;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}, \"staged\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                s.staged,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_by_duration() {
        let mut rec = Recorder::default();
        let t = Instant::now();
        let front = rec.front("front", t, Duration::from_nanos(1000));
        let (_, eval) = rec.staged("eval", front, || ());
        rec.spans[eval as usize].end_ns = rec.spans[eval as usize].start_ns + 600;
        let (_, kernel) = rec.staged("kernel", eval, || ());
        rec.spans[kernel as usize].end_ns = rec.spans[kernel as usize].start_ns + 250;
        let totals = rec.totals();
        assert_eq!(totals["front"], (1000, 400));
        assert_eq!(totals["eval"], (600, 350));
        assert_eq!(totals["kernel"], (250, 250));
        assert!(rec.to_json().contains("\"parent\": 1"));
    }
}
