//! Canonical metric names: the one registry every `Obs::inc`/`observe`
//! call site draws from.
//!
//! Names follow a `layer.component.noun_verb` scheme — the dotted prefix
//! says *where* in the stack the number comes from (`query.eval`,
//! `pdms.fetch`, `pdms.wal`, `monitor.probe`, ...), the snake_case
//! leaf says *what happened* (`rows_scanned`, `messages_dropped`,
//! `retries_spent`). Keeping every name here (instead of scattered
//! string literals) makes three things cheap:
//!
//! * renames are one-file diffs with the compiler finding call sites;
//! * dashboards and rollups can enumerate [`ALL`] instead of guessing;
//! * tests can lint a [`MetricsSnapshot`] with [`unregistered`] and fail
//!   on stray names before they ossify into ad-hoc conventions.

use super::MetricsSnapshot;

// --- query layer -----------------------------------------------------------

/// Plan steps executed by the evaluator.
pub const QUERY_EVAL_STEPS_EXECUTED: &str = "query.eval.steps_executed";
/// Base-relation rows scanned during evaluation.
pub const QUERY_EVAL_ROWS_SCANNED: &str = "query.eval.rows_scanned";
/// Rows materialized into join build sides during evaluation.
pub const QUERY_EVAL_ROWS_BUILT: &str = "query.eval.rows_built";
/// Binding rows probed against join indexes during evaluation.
pub const QUERY_EVAL_ROWS_PROBED: &str = "query.eval.rows_probed";
/// Histogram: binding-set size after each plan step.
pub const QUERY_EVAL_STEP_BINDINGS: &str = "query.eval.step_bindings";

// --- pdms fetch (query-time data movement) ---------------------------------

/// Fetch request messages sent to owner peers (including retries).
pub const PDMS_FETCH_MESSAGES_SENT: &str = "pdms.fetch.messages_sent";
/// Fetch request messages the fault plan dropped.
pub const PDMS_FETCH_MESSAGES_DROPPED: &str = "pdms.fetch.messages_dropped";
/// Fetch retries spent beyond each first attempt.
pub const PDMS_FETCH_RETRIES_SPENT: &str = "pdms.fetch.retries_spent";
/// Completeness gaps: relations whose owner never delivered.
pub const PDMS_FETCH_GAPS_OBSERVED: &str = "pdms.fetch.gaps_observed";
/// Histogram: simulated round-trip latency of successful fetches.
pub const PDMS_FETCH_LATENCY_TICKS: &str = "pdms.fetch.latency_ticks";

// --- pdms ship (updategram propagation) ------------------------------------

/// Updategram messages shipped to subscribers (including retries).
pub const PDMS_SHIP_MESSAGES_SENT: &str = "pdms.ship.messages_sent";
/// Updategram messages the fault plan dropped.
pub const PDMS_SHIP_MESSAGES_DROPPED: &str = "pdms.ship.messages_dropped";
/// Updategram messages duplicated by the wire.
pub const PDMS_SHIP_MESSAGES_DUPLICATED: &str = "pdms.ship.messages_duplicated";
/// Shipping retries spent beyond each first attempt.
pub const PDMS_SHIP_RETRIES_SPENT: &str = "pdms.ship.retries_spent";
/// Histogram: delivery attempts needed per updategram.
pub const PDMS_SHIP_ATTEMPTS_SPENT: &str = "pdms.ship.attempts_spent";

// --- pdms feedback (estimator calibration loop) ----------------------------

/// Cached plans evicted by the q-error feedback loop.
pub const PDMS_FEEDBACK_PLANS_REPLANNED: &str = "pdms.feedback.plans_replanned";
/// Per-step actual cardinalities fed back into peer statistics.
pub const PDMS_FEEDBACK_OVERLAPS_OBSERVED: &str = "pdms.feedback.overlaps_observed";

// --- pdms cache (reformulation/plan cache verdicts) ------------------------

/// Queries answered with a cached reformulation.
pub const PDMS_CACHE_REFORMULATION_HITS: &str = "pdms.cache.reformulation_hits";
/// Queries that had to reformulate from scratch.
pub const PDMS_CACHE_REFORMULATION_MISSES: &str = "pdms.cache.reformulation_misses";
/// Disjuncts executed under a cached plan.
pub const PDMS_CACHE_PLAN_HITS: &str = "pdms.cache.plan_hits";
/// Disjuncts planned from scratch.
pub const PDMS_CACHE_PLAN_MISSES: &str = "pdms.cache.plan_misses";
/// Cached plans evicted for miscalibration.
pub const PDMS_CACHE_PLAN_EVICTIONS: &str = "pdms.cache.plan_evictions";

// --- pdms wal (durability backlog, scraped as gauges) ----------------------

/// Gauge: change-log records appended but not yet acknowledged by every
/// durable subscriber (the unacked LSN span).
pub const PDMS_WAL_RECORDS_PENDING: &str = "pdms.wal.records_pending";

// --- pdms feedback vitals (scraped as gauges) ------------------------------

/// Gauge: worst q-error observed for plans touching this peer, in
/// thousandths (integer so gauges stay exact).
pub const PDMS_FEEDBACK_QERROR_WORST_MILLI: &str = "pdms.feedback.qerror_worst_milli";

// --- monitor (the overlay health monitor's own accounting) -----------------

/// Liveness probe messages sent (including intra-scrape retries).
pub const MONITOR_PROBE_PROBES_SENT: &str = "monitor.probe.probes_sent";
/// Scrapes in which a peer answered no probe at all.
pub const MONITOR_PROBE_PROBES_MISSED: &str = "monitor.probe.probes_missed";
/// Peers successfully scraped.
pub const MONITOR_SCRAPE_PEERS_SEEN: &str = "monitor.scrape.peers_seen";
/// Threshold-crossing events appended to the monitor's event log.
pub const MONITOR_SCRAPE_EVENTS_EMITTED: &str = "monitor.scrape.events_emitted";

/// Every canonical metric name, sorted — the registry the lint test and
/// the dashboards enumerate.
pub const ALL: &[&str] = &[
    MONITOR_PROBE_PROBES_MISSED,
    MONITOR_PROBE_PROBES_SENT,
    MONITOR_SCRAPE_EVENTS_EMITTED,
    MONITOR_SCRAPE_PEERS_SEEN,
    PDMS_CACHE_PLAN_EVICTIONS,
    PDMS_CACHE_PLAN_HITS,
    PDMS_CACHE_PLAN_MISSES,
    PDMS_CACHE_REFORMULATION_HITS,
    PDMS_CACHE_REFORMULATION_MISSES,
    PDMS_FEEDBACK_OVERLAPS_OBSERVED,
    PDMS_FEEDBACK_PLANS_REPLANNED,
    PDMS_FEEDBACK_QERROR_WORST_MILLI,
    PDMS_FETCH_GAPS_OBSERVED,
    PDMS_FETCH_LATENCY_TICKS,
    PDMS_FETCH_MESSAGES_DROPPED,
    PDMS_FETCH_MESSAGES_SENT,
    PDMS_FETCH_RETRIES_SPENT,
    PDMS_SHIP_ATTEMPTS_SPENT,
    PDMS_SHIP_MESSAGES_DROPPED,
    PDMS_SHIP_MESSAGES_DUPLICATED,
    PDMS_SHIP_MESSAGES_SENT,
    PDMS_SHIP_RETRIES_SPENT,
    PDMS_WAL_RECORDS_PENDING,
    QUERY_EVAL_ROWS_BUILT,
    QUERY_EVAL_ROWS_PROBED,
    QUERY_EVAL_ROWS_SCANNED,
    QUERY_EVAL_STEP_BINDINGS,
    QUERY_EVAL_STEPS_EXECUTED,
];

/// Is `name` in the canonical registry?
pub fn is_registered(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

/// Does `name` follow the `layer.component.noun_verb` scheme: exactly
/// three dot-separated lowercase snake_case segments, the leaf compound
/// (containing `_`)?
pub fn follows_scheme(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    if segs.len() != 3 {
        return false;
    }
    let well_formed = |s: &str| {
        !s.is_empty()
            && !s.starts_with('_')
            && !s.ends_with('_')
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    segs.iter().all(|s| well_formed(s)) && segs[2].contains('_')
}

/// Every metric name in `snap` that is *not* in the canonical registry —
/// the lint tests assert this comes back empty after a representative
/// workload.
pub fn unregistered(snap: &MetricsSnapshot) -> Vec<String> {
    snap.counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .filter(|n| !is_registered(n))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Metrics;

    #[test]
    fn registry_is_sorted_deduped_and_scheme_clean() {
        for w in ALL.windows(2) {
            assert!(w[0] < w[1], "ALL must stay sorted/deduped: {:?} >= {:?}", w[0], w[1]);
        }
        for name in ALL {
            assert!(follows_scheme(name), "canonical name breaks the scheme: {name}");
        }
    }

    #[test]
    fn scheme_rejects_malformed_names() {
        for bad in [
            "messages",                 // no layer
            "pdms.fetch",               // no leaf
            "pdms.fetch.messages",      // leaf not noun_verb
            "pdms.fetch.dropped.again", // too deep
            "pdms.Fetch.rows_read",     // uppercase
            "pdms..rows_read",          // empty segment
            "pdms.fetch._rows",         // leading underscore
        ] {
            assert!(!follows_scheme(bad), "scheme accepted {bad:?}");
        }
        assert!(follows_scheme("query.eval.rows_scanned"));
    }

    #[test]
    fn unregistered_flags_strays_only() {
        let m = Metrics::new();
        m.inc(QUERY_EVAL_ROWS_SCANNED, 1);
        m.observe(PDMS_FETCH_LATENCY_TICKS, 3);
        m.set_gauge(PDMS_WAL_RECORDS_PENDING, 5);
        assert!(unregistered(&m.snapshot()).is_empty());
        m.inc("pdms.fetch.bytes", 1);
        assert_eq!(unregistered(&m.snapshot()), vec!["pdms.fetch.bytes".to_string()]);
    }
}
