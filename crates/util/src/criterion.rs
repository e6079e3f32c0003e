//! A micro-benchmark harness with a `criterion`-shaped API.
//!
//! Replaces the `criterion` crate for this workspace's `harness = false`
//! bench targets. The surface kept: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`]
//! / [`BenchmarkGroup::sample_size`], [`BenchmarkId`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros — so the files in
//! `crates/bench/benches/` keep their structure.
//!
//! Measurement model: one warmup phase sizes an iteration batch so a
//! sample takes roughly `TARGET_SAMPLE`, then `sample_size` samples are
//! timed and per-iteration **median** and **p95** are printed to stdout,
//! one line per measurement. No plotting, no statistics files, no outlier
//! analysis.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-sample time the warmup phase aims for when sizing batches.
const TARGET_SAMPLE: Duration = Duration::from_millis(2);
/// Minimum wall-clock spent warming up a routine before measuring.
const WARMUP: Duration = Duration::from_millis(10);

/// A benchmark identifier rendered as `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("pruned", 8)` renders as `pruned/8`.
    pub fn new(function_id: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{function_id}/{parameter}") }
    }
}

/// Hint for how to amortize setup cost in [`Bencher::iter_batched`].
/// This harness times one routine call per batch regardless, so the
/// variants only exist for call-site compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state; criterion would batch many.
    SmallInput,
    /// Large per-iteration state; criterion would batch few.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// The measurement driver handed to bench closures.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher { samples: Vec::new(), sample_size }
    }

    /// Time `routine` repeatedly: warmup, size the batch, then record
    /// `sample_size` samples of per-iteration seconds.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warmup and batch sizing: run until WARMUP has elapsed, tracking
        // the mean cost to pick how many iterations fill TARGET_SAMPLE.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch = ((TARGET_SAMPLE.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
    }

    /// Like [`Bencher::iter`], but re-creates the routine's input outside
    /// the timed region before every call.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        // One warmup call keeps cold-start effects out of the samples
        // without paying for the (possibly expensive) setup many times.
        black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Override the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        self.report(&id.to_string(), &b.samples);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        self.report(&id.id, &b.samples);
        self
    }

    fn report(&self, id: &str, samples: &[f64]) {
        println!("{}", summarize(&format!("{}/{}", self.name, id), samples));
    }

    /// End the group (kept for criterion API compatibility; reporting is
    /// incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// Top-level bench driver; one per process, created by `criterion_main!`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into(), sample_size: self.sample_size }
    }
}

/// Median and p95 of a non-empty sample set (seconds).
fn percentiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let median = sorted[sorted.len() / 2];
    let p95 = sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)];
    (median, p95)
}

/// Render one measurement line: `name  median <t>  p95 <t>  (n samples)`.
fn summarize(name: &str, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("{name:<52} (no samples)");
    }
    let (median, p95) = percentiles(samples);
    format!(
        "{name:<52} median {:>10}  p95 {:>10}  ({} samples)",
        fmt_duration(median),
        fmt_duration(p95),
        samples.len()
    )
}

/// Human units for a seconds measurement.
fn fmt_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Define a bench group function from bench functions, criterion-style:
/// `criterion_group!(benches, bench_a, bench_b);`
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::criterion::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define `main` from bench groups, criterion-style:
/// `criterion_main!(benches);`
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::criterion::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

// Make `use revere_util::criterion::{criterion_group, criterion_main}`
// work like the real crate's paths (macro_export places them at the
// crate root).
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("pruned", 8).id, "pruned/8");
    }

    #[test]
    fn summarize_orders_percentiles() {
        let line = summarize("g/b", &[0.004, 0.001, 0.002, 0.003, 0.010]);
        assert!(line.contains("median"), "{line}");
        assert!(line.contains("3.000 ms"), "{line}"); // median of 5
        assert!(line.contains("10.000 ms"), "{line}"); // p95 = max here
    }

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(2.5), "2.500 s");
        assert_eq!(fmt_duration(0.0025), "2.500 ms");
        assert_eq!(fmt_duration(2.5e-6), "2.500 µs");
        assert_eq!(fmt_duration(2.5e-9), "2.5 ns");
    }

    #[test]
    fn bench_pipeline_produces_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3);
        let mut taken = Vec::new();
        g.bench_function("iter", |b| {
            b.iter(|| black_box(1 + 1));
            taken.push(b.samples.len());
        });
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u64, |b, &n| {
            b.iter_batched(|| vec![0u64; n as usize], |v| v.len(), BatchSize::SmallInput);
            taken.push(b.samples.len());
        });
        g.finish();
        assert_eq!(taken, [3, 3]);
    }
}
