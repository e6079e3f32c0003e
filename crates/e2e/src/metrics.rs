//! Metric names, the per-run tally, and the result line.
//!
//! The names here are the ones `BENCHMARK.json` lists; a smoke test holds
//! the two together.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload (see the README for
/// what latency and throughput mean on each).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

/// A per-layer metric of the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// True for a count (or a ratio of counts) that must repeat exactly
    /// for a given seed and operation count; false for anything derived
    /// from a clock.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, lower_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better,
        exact: true,
    }
}

/// The per-layer metrics, in the README's order. A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [PerLayer; 56] = [
    // Query path.
    time("query.parse.self_us_per_op", "us"),
    time("pdms.reformulate.self_us_per_op", "us"),
    count("pdms.reformulate.nodes_expanded_per_op", "count", true),
    count("pdms.reformulate.disjuncts_per_op", "count", true),
    count("pdms.reformulate.pruned_ratio", "ratio", false),
    count("pdms.network.cache.reformulation_hit_ratio", "ratio", false),
    count("pdms.network.cache.plan_hit_ratio", "ratio", false),
    count("pdms.network.cache.plan_evictions", "count", true),
    time("query.plan.self_us_per_op", "us"),
    count("query.plan.plans_per_op", "count", true),
    time("pdms.network.fetch.self_us_per_op", "us"),
    count("pdms.network.fetch.tuples_shipped_per_op", "count", true),
    count("pdms.network.fetch.messages_per_op", "count", true),
    time("query.vec.kernel_self_us_per_op", "us"),
    count("query.vec.bindings_per_op", "count", true),
    count("query.vec.bindings_per_answer", "ratio", true),
    time("query.eval.materialize_self_us_per_op", "us"),
    time("storage.relation.distinct_self_us_per_op", "us"),
    count("storage.relation.rows_in_per_row_out", "ratio", true),
    time("pdms.network.query.unattributed_ratio", "ratio"),
    // Update path.
    time("pdms.propagation.seal_self_us_per_op", "us"),
    time("pdms.propagation.ship_self_us_per_op", "us"),
    count("pdms.propagation.messages_per_gram", "count", true),
    count("pdms.propagation.duplicates_absorbed", "count", true),
    time("storage.wal.append_self_us_per_op", "us"),
    count("storage.wal.bytes_per_gram", "bytes", true),
    count("storage.wal.records_per_gram", "count", true),
    time("pdms.updategram.sign_self_us_per_op", "us"),
    time("pdms.updategram.apply_self_us_per_op", "us"),
    time("query.dataflow.push_self_us_per_op", "us"),
    count("query.dataflow.work_per_row", "count", true),
    count("query.dataflow.output_changes_per_gram", "count", true),
    count("query.dataflow.arranged_tuples", "count", true),
    count("pdms.network.publish.refreshed_per_gram", "count", true),
    count("pdms.network.publish.skipped_per_gram", "count", false),
    time("pdms.network.publish.unattributed_ratio", "ratio"),
    time("pdms.network.publish.p50_us", "us"),
    time("pdms.network.publish.p95_us", "us"),
    time("pdms.durable.checkpoint_ms", "ms"),
    count("pdms.durable.image_bytes", "bytes", true),
    count("pdms.durable.log_truncated_records", "count", false),
    time("pdms.durable.recover_ms", "ms"),
    count("pdms.durable.stable_bytes_per_user_byte", "ratio", true),
    // Ingestion path.
    time("mangrove.html.parse_self_us_per_page", "us"),
    count("mangrove.html.bytes_per_page", "bytes", true),
    time("mangrove.annotation.extract_self_us_per_page", "us"),
    count("mangrove.annotation.statements_per_page", "count", true),
    time("storage.triples.republish_self_us_per_page", "us"),
    count("storage.triples.live", "count", true),
    time("storage.triples.compact_ms", "ms"),
    time("mangrove.apps.render_ms_per_round", "ms"),
    time("pdms.peer.load_ms_per_round", "ms"),
    time("pdms.network.query_ms_per_round", "ms"),
    time("mangrove.publish.unattributed_ratio", "ratio"),
    // The pass itself.
    time("trace.overhead_ratio", "ratio"),
    // The tail of the user-visible latency, over the same steps untraced.
    // Not end-to-end: ten runs spread it by up to a fifth on the reference
    // box (a neighbour's interference lands in the tail), which no bound
    // the contract allows would hold.
    time("latency_p95_us", "us"),
];

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Measure {
    /// A fixed number of steps of the seeded stream (counts repeat exactly).
    Steps(usize),
    /// Whole cycles, until this much time has been spent inside timed
    /// regions.
    Seconds(f64),
}

/// Iterations of one slice of the reference loop.
const SLICE_ITERATIONS: u64 = 200_000;

/// What one slice takes on the reference box while its clock is in the
/// faster of its two states, nanoseconds. It fixes the scale of reference
/// time, nothing else: on another machine every reported time is off by
/// one constant factor, the same for a parent commit and its change.
pub const SLICE_NOMINAL_NS: f64 = 246_000.0;

/// Timed work per reference slice: a step is followed by one slice per
/// this many nominal slice-times it took (at least one), so the reference
/// loop samples the clock for about a twentieth of the time, spread
/// evenly over it.
const WORK_PER_SLICE: f64 = 20.0;

/// Run one slice of the reference loop and time it: a serial chain of
/// integer multiply-adds that touches no memory, calls nothing in the
/// repository and allocates nothing, so its duration is a function of the
/// core's clock alone and no change to the libraries can move it.
fn reference_slice() -> Duration {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..black_box(SLICE_ITERATIONS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
    }
    black_box(x);
    t.elapsed()
}

/// The reference loop beside `busy` of timed work: the slices' total
/// duration and their number.
pub fn reference_beside(busy: Duration) -> (Duration, u32) {
    let slices =
        ((busy.as_nanos() as f64 / (WORK_PER_SLICE * SLICE_NOMINAL_NS)).round() as u32).max(1);
    ((0..slices).map(|_| reference_slice()).sum(), slices)
}

/// How much slower than nominal the work beside `slices` reference slices
/// ran, when they took `reference` in all.
pub fn slowdown(reference: Duration, slices: u32) -> f64 {
    if slices == 0 {
        return 1.0;
    }
    reference.as_nanos() as f64 / (slices as f64 * SLICE_NOMINAL_NS)
}

/// One cycle of a workload: a fixed number of steps whose composition is
/// the same in every cycle of the pass.
#[derive(Debug, Clone, Default)]
struct Cycle {
    busy_ns: u64,
    units: u64,
    /// This cycle's share of [`Tally::latencies_ns`].
    latencies: std::ops::Range<usize>,
    /// The reference slices run between this cycle's steps.
    reference: Duration,
    slices: u32,
}

/// What one pass over a workload's operation stream observed.
///
/// The reference box's clock runs in two states a fifth apart. It stays
/// in one for anything from a second to minutes, so a run can see either
/// state alone, and no statistic over a run's own samples can tell a slow
/// clock from a slow program. So the pass runs slices of a fixed reference
/// loop after every step, and reports **reference time**: wall-clock time
/// divided by how much slower than nominal the reference loop ran beside
/// it. While the clock is in its
/// fast state the divisor is 1 and reference time is wall-clock time. A
/// pass is cut into cycles of identical composition, about a second each;
/// every figure is computed per cycle, scaled by that cycle's slowdown,
/// and the median over the cycles is reported, so a descheduled stretch or
/// a cycle the slices sampled badly does not move it. A real regression
/// slows the steps and not the slices.
#[derive(Debug)]
pub struct Tally {
    measure: Measure,
    cycle_steps: usize,
    /// Operations attempted (queries, publishes, rounds).
    pub attempted: u64,
    /// Operations that returned an error, an incomplete answer, or an
    /// answer that disagreed with the reference.
    pub failed: u64,
    /// The user-visible latency samples, wall-clock nanoseconds.
    pub latencies_ns: Vec<u64>,
    steps: usize,
    busy_ns: u64,
    closed: Vec<Cycle>,
    open: Cycle,
}

impl Tally {
    pub fn new(measure: Measure, cycle_steps: usize) -> Self {
        Tally {
            measure,
            cycle_steps: cycle_steps.max(1),
            attempted: 0,
            failed: 0,
            latencies_ns: Vec::new(),
            steps: 0,
            busy_ns: 0,
            closed: Vec::new(),
            open: Cycle::default(),
        }
    }

    /// True while the pass should take another step.
    pub fn wants_more(&self) -> bool {
        match self.measure {
            Measure::Steps(n) => self.steps < n,
            Measure::Seconds(s) => {
                (self.busy_ns as f64) < s * 1e9 || self.steps % self.cycle_steps != 0
            }
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whole cycles completed so far.
    pub fn cycles(&self) -> usize {
        self.closed.len()
    }

    /// Close a step: `busy` inside timed regions, `units` of throughput.
    /// Runs the step's reference slices.
    pub fn step(&mut self, busy: Duration, units: u64) {
        let (reference, slices) = reference_beside(busy);
        self.step_beside(busy, units, reference, slices);
    }

    /// [`Tally::step`] with the reference slices already timed.
    fn step_beside(&mut self, busy: Duration, units: u64, reference: Duration, slices: u32) {
        let ns = busy.as_nanos() as u64;
        self.busy_ns += ns;
        self.steps += 1;
        self.open.busy_ns += ns;
        self.open.units += units;
        self.open.latencies.end = self.latencies_ns.len();
        self.open.reference += reference;
        self.open.slices += slices;
        if self.steps % self.cycle_steps == 0 {
            let next = Cycle {
                latencies: self.latencies_ns.len()..self.latencies_ns.len(),
                ..Cycle::default()
            };
            self.closed.push(std::mem::replace(&mut self.open, next));
        }
    }

    /// One user-visible latency sample.
    pub fn latency(&mut self, d: Duration) {
        self.latencies_ns.push(d.as_nanos() as u64);
    }

    /// Count a failed operation; the first few are explained on stderr.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("e2e: FAILED operation: {}", why());
        }
    }

    /// Count a failed operation when `r` is an error.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(|| e);
        }
    }

    /// Mean time per step inside timed regions, nanoseconds.
    pub fn mean_step_ns(&self) -> f64 {
        self.busy_ns as f64 / self.steps.max(1) as f64
    }

    /// Median over the whole cycles of `f(cycle)`; a pass too short to
    /// complete one is a single cycle.
    fn over_cycles(&self, f: impl Fn(&Cycle) -> f64) -> f64 {
        let cycles = if self.closed.is_empty() {
            std::slice::from_ref(&self.open)
        } else {
            &self.closed[..]
        };
        let mut v = cycles.iter().map(f).collect::<Vec<_>>();
        median(&mut v)
    }

    fn cycle_slowdown(&self, c: &Cycle) -> f64 {
        slowdown(c.reference, c.slices)
    }

    /// The divisor between wall-clock and reference time.
    pub fn slowdown(&self) -> f64 {
        self.over_cycles(|c| self.cycle_slowdown(c))
    }

    /// Units completed per second of timed reference time.
    pub fn throughput_per_s(&self) -> f64 {
        self.over_cycles(|c| {
            c.units as f64 * 1e9 / c.busy_ns.max(1) as f64 * self.cycle_slowdown(c)
        })
    }

    /// The latency around percentile `p`, reference microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.over_cycles(|c| {
            around_percentile_us(&self.latencies_ns[c.latencies.clone()], p)
                / self.cycle_slowdown(c)
        })
    }
}

/// Width of the band of ranks a latency figure averages.
const BAND: f64 = 0.05;

/// The mean of the samples in the band of ranks [`BAND`] wide around
/// percentile `p` (for the 95th, from the 92.5th to the 97.5th), in
/// microseconds; 0 when there are none. The workloads mix a few kinds of
/// operation, so their latencies come in clusters with gaps between them,
/// and a single rank that sits at a gap jumps by a fifth when one sample
/// changes sides. The band's mean moves by that sample's share.
pub fn around_percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    band_mean_us(samples_ns, p - BAND / 2.0, p + BAND / 2.0)
}

/// Nearest-rank percentile of nanosecond samples, in microseconds (0 when
/// there are none).
pub fn percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    band_mean_us(samples_ns, p, p)
}

/// Mean of the samples from nearest rank `lo` to nearest rank `hi`.
fn band_mean_us(samples_ns: &[u64], lo: f64, hi: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let band = &sorted[rank(lo) - 1..rank(hi)];
    band.iter().sum::<u64>() as f64 / band.len() as f64 / 1e3
}

/// Median of a small set of measurements.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// High-water mark of this process's resident set, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run reports: the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles (not part of the line).
    pub samples: usize,
    /// The divisor between wall-clock and reference time (not part of
    /// the line).
    pub slowdown: f64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a result line back (only the shape [`RunResult::to_json`]
    /// writes; `repeat` and `baseline` parse their children's output).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            line[at..].split([',', '}']).next().map(str::trim)
        };
        let (_, body) = line.split_once("\"metrics\": {")?;
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\"")) {
            let mut quoted = entry.split('"').skip(1).step_by(2);
            let name = quoted.next()?.to_string();
            let unit = entry.rsplit('"').next()?.to_string();
            let value = entry
                .split_once("\"value\": ")?
                .1
                .split(',')
                .next()?
                .parse()
                .ok()?;
            metrics.push(Metric { name, value, unit });
        }
        Some(RunResult {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            samples: 0,
            slowdown: 1.0,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            samples: 0,
            slowdown: 1.0,
            metrics: vec![
                Metric {
                    name: "latency_p50_us".into(),
                    value: 12.5,
                    unit: "us".into(),
                },
                Metric {
                    name: "throughput_per_s".into(),
                    value: 3e6,
                    unit: "1/s".into(),
                },
            ],
        };
        assert_eq!(RunResult::from_json(&r.to_json()), Some(r));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&ns, 0.50), 50.0);
        assert_eq!(percentile_us(&ns, 0.95), 95.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        // The band around a percentile: ranks 48..=53 and 93..=98 of 100.
        assert_eq!(around_percentile_us(&ns, 0.50), 50.5);
        assert_eq!(around_percentile_us(&ns, 0.95), 95.5);
        assert_eq!(around_percentile_us(&ns[..3], 0.95), 3.0);
        assert_eq!(around_percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn figures_are_medians_over_whole_cycles() {
        let nominal = Duration::from_nanos(SLICE_NOMINAL_NS as u64);
        let mut t = Tally::new(Measure::Seconds(0.0085), 2);
        // Cycles of two 1 ms steps; one cycle is twice as slow, and the
        // deadline falls inside the fourth, which still completes.
        while t.wants_more() {
            let slow = t.steps() / 2 == 1;
            let d = Duration::from_millis(if slow { 2 } else { 1 });
            t.latency(d);
            t.step_beside(d, 1, nominal, 1);
        }
        assert_eq!((t.steps(), t.cycles()), (8, 4));
        assert!(
            (t.throughput_per_s() - 1000.0).abs() < 1e-6,
            "{}",
            t.throughput_per_s()
        );
        assert_eq!(t.latency_us(0.5), 1000.0);
        // A pass shorter than a cycle is one cycle; a clock half as fast
        // halves every time.
        let mut t = Tally::new(Measure::Steps(3), 100);
        t.latency(Duration::from_micros(14));
        t.step_beside(Duration::from_micros(14), 1, nominal * 6, 3);
        assert!((t.slowdown() - 2.0).abs() < 1e-12);
        assert!((t.latency_us(0.95) - 7.0).abs() < 1e-9);
    }
}
