//! E13: plan once, run many — reformulation/plan caching under skewed
//! repeated-query workloads.
//!
//! The PDMS answers a query by reformulating it over the mapping graph's
//! transitive closure, fetching, planning, and evaluating. Reformulation
//! dominates that pipeline and is a pure function of (query, mappings),
//! so a workload that repeats queries — as real traffic does — should pay
//! it once. E13 sweeps the Zipf skew of a repeated-query trace and
//! measures: cache hit rates, mean cold vs warm query latency, end-to-end
//! time against a cold cache before every query, and how many
//! intermediate join bindings the planner's orders produce on the same
//! trace's templates.
//!
//! Timings are wall-clock and machine-dependent; everything else in the
//! table (hit rates, binding counts, answer checksums) is a pure function
//! of the seed. The tests only assert the deterministic columns.

use crate::fixtures::network_with_rows;
use crate::table::Table;
use revere_pdms::PdmsNetwork;
use revere_query::{eval_bindings, plan_cq};
use revere_util::obs::{Obs, SpanHandle};
use revere_workload::{course_templates, QueryMix, Topology, TopologyKind};
use std::collections::BTreeSet;
use std::time::Instant;

/// The Zipf skews E13 sweeps (0 = uniform; higher = heavier repetition).
pub const SKEWS: [f64; 4] = [0.0, 0.6, 1.2, 1.8];

/// Seed for topology, data, and trace sampling.
pub const PLANCACHE_SEED: u64 = 1013;

/// Sweep dimensions, exposed so tests can run a smaller instance.
#[derive(Debug, Clone, Copy)]
pub struct PlanCacheConfig {
    /// Peers in the random overlay.
    pub peers: usize,
    /// Course rows per peer.
    pub rows_per_peer: usize,
    /// Distinct query templates.
    pub templates: usize,
    /// Queries per trace.
    pub queries: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig { peers: 6, rows_per_peer: 40, templates: 12, queries: 48 }
    }
}

/// One row of the sweep.
pub struct PlanCachePoint {
    /// The Zipf skew of the trace.
    pub skew: f64,
    /// Queries in the trace.
    pub queries: usize,
    /// Distinct templates the trace actually sampled.
    pub distinct_templates: usize,
    /// Reformulation cache hits / queries.
    pub reformulation_hit_rate: f64,
    /// Plan cache hits / plan lookups.
    pub plan_hit_rate: f64,
    /// Mean latency of cold queries (first occurrence of a template), µs.
    pub cold_us: f64,
    /// Mean latency of warm queries (repeats), µs.
    pub warm_us: f64,
    /// Whole-trace time on the network that keeps its caches, µs.
    pub cached_total_us: u128,
    /// Whole-trace time with every cache cleared before each query, µs.
    pub uncached_total_us: u128,
    /// Total answer rows over the trace (identical cached/uncached).
    pub answer_rows: usize,
    /// Intermediate join bindings over the distinct templates.
    pub inter_bindings: usize,
}

/// Run the sweep at the default scale.
pub fn plan_cache_sweep() -> Vec<PlanCachePoint> {
    plan_cache_sweep_with(PlanCacheConfig::default())
}

/// The E13 overlay: a random topology whose peers hold *different-sized*
/// course relations (1×, 2×, 3× `rows_per_peer`, rotating) — reformulated
/// disjuncts then mix large and small relations in one body, which is
/// what makes join-order choices visible.
pub(crate) fn plan_cache_network(cfg: &PlanCacheConfig) -> PdmsNetwork {
    let topology =
        Topology::generate(TopologyKind::Random { extra: 2 }, cfg.peers, PLANCACHE_SEED);
    network_with_rows(&topology, |i| cfg.rows_per_peer * (1 + i % 3))
}

/// Run the sweep at an explicit scale.
pub fn plan_cache_sweep_with(cfg: PlanCacheConfig) -> Vec<PlanCachePoint> {
    let templates = course_templates("P0", cfg.templates);
    let mut points = Vec::new();
    for &skew in &SKEWS {
        let trace = QueryMix::zipf(templates.clone(), skew, PLANCACHE_SEED ^ skew.to_bits())
            .sample(cfg.queries);
        let distinct: BTreeSet<&String> = trace.iter().collect();

        // Caching on: per-query timing, split cold (first occurrence of a
        // template) from warm (repeat).
        let net = plan_cache_network(&cfg);
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let (mut cold_us, mut colds, mut warm_us, mut warms) = (0u128, 0usize, 0u128, 0usize);
        let mut answer_rows = 0usize;
        let cached_start = Instant::now();
        for q in &trace {
            let t = Instant::now();
            let out = net.query_str("P0", q).expect("trace query runs");
            let us = t.elapsed().as_micros();
            answer_rows += out.answers.len();
            if seen.insert(q) {
                cold_us += us;
                colds += 1;
            } else {
                warm_us += us;
                warms += 1;
            }
        }
        let cached_total_us = cached_start.elapsed().as_micros();
        let stats = net.cache_stats();

        // A cold cache before every query: same trace, same network
        // construction, everything reformulated and planned from scratch.
        let cold = plan_cache_network(&cfg);
        let uncached_start = Instant::now();
        let mut cold_rows = 0usize;
        for q in &trace {
            cold.clear_caches();
            cold_rows += cold.query_str("P0", q).expect("trace query runs").answers.len();
            let s = cold.cache_stats();
            assert_eq!((s.reformulation_hits, s.plan_hits), (0, 0), "a cold query hit a cache");
        }
        let uncached_total_us = uncached_start.elapsed().as_micros();
        assert_eq!(answer_rows, cold_rows, "caching changed answers at skew {skew}");

        // Join-order quality over what actually executes: every
        // reformulated disjunct of the trace's distinct templates,
        // measured as total intermediate bindings against the merged
        // snapshot — independent of caching.
        let snapshot = net.snapshot_all();
        let mut inter_bindings = 0usize;
        for q in &distinct {
            let out = net.query_str("P0", q).expect("trace query runs");
            for d in &out.reformulation.union.disjuncts {
                let plan = plan_cq(d, &snapshot);
                let (_, steps) =
                    eval_bindings(d, &plan, &snapshot, &Obs::disabled(), &SpanHandle::none())
                        .expect("disjunct evaluates");
                inter_bindings += steps.iter().map(|p| p.bindings).sum::<usize>();
            }
        }

        points.push(PlanCachePoint {
            skew,
            queries: trace.len(),
            distinct_templates: distinct.len(),
            reformulation_hit_rate: stats.reformulation_hits as f64 / trace.len() as f64,
            plan_hit_rate: stats.plan_hits as f64
                / (stats.plan_hits + stats.plan_misses).max(1) as f64,
            cold_us: cold_us as f64 / colds.max(1) as f64,
            warm_us: warm_us as f64 / warms.max(1) as f64,
            cached_total_us,
            uncached_total_us,
            answer_rows,
            inter_bindings,
        });
    }
    points
}

/// E13 — plan/reformulation caching vs workload skew ("plan once, run
/// many").
pub fn e13_plan_cache() -> Table {
    let mut t = Table::new(
        "E13: plan & reformulation caching under Zipf-repeated queries (plan once, run many)",
        &[
            "zipf s", "queries", "templates", "reform hit", "plan hit", "cold us/q",
            "warm us/q", "cold/warm x", "uncached/cached x", "inter-bindings",
        ],
    );
    for p in plan_cache_sweep() {
        t.row(vec![
            format!("{:.1}", p.skew),
            p.queries.to_string(),
            p.distinct_templates.to_string(),
            format!("{:.0}%", p.reformulation_hit_rate * 100.0),
            format!("{:.0}%", p.plan_hit_rate * 100.0),
            format!("{:.0}", p.cold_us),
            format!("{:.0}", p.warm_us),
            format!("{:.1}", p.cold_us / p.warm_us.max(1.0)),
            format!("{:.1}", p.uncached_total_us as f64 / p.cached_total_us.max(1) as f64),
            p.inter_bindings.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Vec<PlanCachePoint> {
        plan_cache_sweep_with(PlanCacheConfig {
            peers: 3,
            rows_per_peer: 12,
            templates: 8,
            queries: 16,
        })
    }

    #[test]
    fn skew_raises_hit_rates() {
        let points = smoke();
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(last.reformulation_hit_rate >= first.reformulation_hit_rate);
        // The heaviest skew repeats its head template a lot.
        assert!(last.reformulation_hit_rate > 0.5, "{}", last.reformulation_hit_rate);
        assert!(last.plan_hit_rate > 0.5, "{}", last.plan_hit_rate);
    }

    #[test]
    fn caching_preserves_answers() {
        // The cross-check inside the sweep already asserts cached ==
        // uncached row counts; here we pin the deterministic totals.
        let a = smoke();
        let b = smoke();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.answer_rows, y.answer_rows);
            assert_eq!(x.distinct_templates, y.distinct_templates);
            assert_eq!(x.inter_bindings, y.inter_bindings);
        }
    }

    #[test]
    fn every_query_hits_after_the_first_at_max_skew_single_template() {
        let points = plan_cache_sweep_with(PlanCacheConfig {
            peers: 3,
            rows_per_peer: 8,
            templates: 1,
            queries: 10,
        });
        for p in &points {
            assert_eq!(p.distinct_templates, 1);
            assert!((p.reformulation_hit_rate - 0.9).abs() < 1e-9, "{}", p.reformulation_hit_rate);
        }
    }
}
