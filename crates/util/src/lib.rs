//! Dependency-free substrates for the rest of the workspace.
//!
//! The build environment is hermetic: crates.io is unreachable, so every
//! facility the workspace used to pull from the registry lives here
//! instead, with deliberately compatible surfaces so call sites port
//! mechanically:
//!
//! * [`rng`] — a small, seeded, splittable PRNG (SplitMix64-seeded
//!   xoshiro256++) with the `StdRng` / `SeedableRng` / `RngExt` surface
//!   the `workload`, `corpus` and `bench` crates were written against.
//! * [`prop`] — a closure-driven property-test harness (`forall` with a
//!   case count and seeded, shrink-free generation) standing in for
//!   `proptest`.
//! * [`criterion`] — a micro-benchmark harness (warmup + N timed samples,
//!   median/p95) with a `criterion`-shaped API (`Criterion`, groups,
//!   `BenchmarkId`, `criterion_group!`/`criterion_main!`) so the bench
//!   files keep their structure.
//! * [`fault`] — deterministic fault injection for the simulated peer
//!   overlay: a seeded [`fault::FaultPlan`] (outages, drops, flaky
//!   responses, latency, duplication) whose verdicts are pure functions
//!   of `(seed, peer, key, attempt)`, plus capped-exponential
//!   [`fault::RetryPolicy`].
//! * [`obs`] — the observability substrate: a deterministic span-tree
//!   tracer on a logical tick clock, a metrics registry (counters and
//!   log2-bucket histograms), a Chrome trace-event JSON
//!   exporter, and the [`obs::LogSink`] shared writer the harnesses
//!   report through.
//!
//! Everything here is deterministic given a seed, allocation-light, and
//! uses only `std`.

pub mod criterion;
pub mod fault;
pub mod obs;
pub mod prop;
pub mod rng;

/// Mirror of `rand::rngs`, so `use revere_util::rngs::StdRng` works.
pub mod rngs {
    pub use crate::rng::StdRng;
}

pub use rng::{RngCore, RngExt, SeedableRng, StdRng};
