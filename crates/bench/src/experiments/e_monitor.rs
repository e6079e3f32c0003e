//! E19: the health monitor under chaos — fault attribution, detection
//! latency, and the cost of telemetry.
//!
//! PR 10's monitor claims it can watch a degrading overlay and name the
//! degraded peers. E19 closes the loop with the chaos machinery: an
//! E12-style seeded [`FaultPlan`] downs a fraction of a 32-peer random
//! overlay (plus message drops, flaky responses, latency) and crashes
//! one healthy peer mid-run, a zipf [`QueryMix`] drives traffic from
//! `P0`, and a [`Monitor`] scrapes every peer once per query tick. The
//! experiment then *asserts* (in-report regression gates, like E15):
//!
//! * **exact attribution** — the monitor's `Suspect`/`Down` set equals
//!   the injected degraded-peer set: zero misses, zero false positives
//!   (`Degraded` verdicts are reported but not flagged, bounding the
//!   false-positive surface);
//! * **bounded detection latency** — every injected fault is flagged
//!   within `REVERE_E19_MAX_DETECT_TICKS` of its onset;
//! * **bounded telemetry** — each fully traced query ([`Obs::enabled`],
//!   every span kept) records no more spans than its shape implies (see
//!   [`span_budget`]), so tracing work grows with the plan, never with
//!   the rows.
//!
//! Attribution, latency and span counts are pure functions of
//! `REVERE_E19_SEED`. The wall-clock cost of full tracing over
//! [`Obs::disabled`] is recorded beside them (min-of-N, like E15's cost
//! table), not gated: on a shared machine it sits below its own noise.

use crate::fixtures::network_from_topology;
use crate::table::{f2, Table};
use revere_pdms::fault::{FaultPlan, FaultSpec};
use revere_pdms::monitor::{Health, Monitor};
use revere_pdms::obs::Obs;
use revere_pdms::PdmsNetwork;
use revere_query::UnionQuery;
use revere_workload::{course_templates, QueryMix, Topology, TopologyKind};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Default seed for the E19 overlay, chaos plan, and query mix.
pub const MONITOR_SEED: u64 = 1003;

/// The chaos dial: same "degraded but not collapsed" level E14b replays.
pub const CHAOS_RATE: f64 = 0.2;

/// Seed for the E19 run (override: `REVERE_E19_SEED`).
pub fn e19_seed() -> u64 {
    std::env::var("REVERE_E19_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(MONITOR_SEED)
}

/// Detection-latency gate in monitor ticks (override:
/// `REVERE_E19_MAX_DETECT_TICKS`).
pub fn e19_max_detect_ticks() -> u64 {
    std::env::var("REVERE_E19_MAX_DETECT_TICKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Scale knobs, so tests can run a smaller instance of the same shape.
#[derive(Debug, Clone, Copy)]
pub struct E19Config {
    /// Overlay size.
    pub peers: usize,
    /// Rows per peer.
    pub rows: usize,
    /// Distinct query templates in the zipf mix.
    pub templates: usize,
    /// Queries driven (= monitor ticks; one scrape per query).
    pub queries: usize,
}

impl Default for E19Config {
    fn default() -> Self {
        E19Config { peers: 32, rows: 3, templates: 12, queries: 48 }
    }
}

/// One injected fault and how the monitor saw it.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The degraded peer.
    pub peer: String,
    /// `"outage"` (down for the whole run) or `"crash"` (mid-run kill).
    pub kind: &'static str,
    /// Monitor tick the fault took effect.
    pub onset: u64,
    /// First tick the monitor flagged the peer Suspect-or-worse (`None` =
    /// missed — the attribution gate fails on it).
    pub detected: Option<u64>,
}

/// Everything the attribution run produces.
pub struct MonitorOutcome {
    /// Injected degraded peers, in name order.
    pub injected: Vec<String>,
    /// The monitor's final `Suspect`/`Down` set, in name order.
    pub flagged: Vec<String>,
    /// Peers merely `Degraded` at the end (reported, never flagged).
    pub degraded: Vec<String>,
    /// Per-fault detection records.
    pub detections: Vec<Detection>,
    /// Verdict-crossing events appended over the run.
    pub events: usize,
    /// The final dashboard (byte-deterministic for a given seed).
    pub dashboard: String,
}

/// Build the E19 network: the topology and data from the shared fixtures,
/// the chaos plan from `seed`, and one deterministic mid-run crash of the
/// first healthy non-`P0` peer.
fn e19_network(cfg: &E19Config, seed: u64) -> (PdmsNetwork, Vec<(String, &'static str, u64)>) {
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, cfg.peers, seed);
    let mut net = network_from_topology(&topology, cfg.rows);
    let chaos = FaultPlan::new(FaultSpec::chaos(seed, CHAOS_RATE));
    let mut faults: Vec<(String, &'static str, u64)> = (0..cfg.peers)
        .map(|i| format!("P{i}"))
        .filter(|p| chaos.is_down(p))
        .map(|p| (p, "outage", 0))
        .collect();
    let crash_tick = (cfg.queries / 2) as u64;
    let victim = (1..cfg.peers)
        .map(|i| format!("P{i}"))
        .find(|p| !chaos.is_down(p))
        .expect("some peer survived the chaos draw");
    faults.push((victim.clone(), "crash", crash_tick));
    faults.sort();
    net.faults = FaultPlan::new(FaultSpec::chaos(seed, CHAOS_RATE).with_crash(victim, crash_tick));
    (net, faults)
}

/// Drive the querymix workload with a monitor scraping once per query
/// tick, and report what it attributed.
pub fn monitor_outcome(cfg: &E19Config, seed: u64) -> MonitorOutcome {
    let (net, faults) = e19_network(cfg, seed);
    let mut mix = QueryMix::zipf(course_templates("P0", cfg.templates), 1.1, seed);
    let mut mon = Monitor::default();
    for tick in 0..cfg.queries as u64 {
        let q = mix.next_query().to_string();
        net.query_str("P0", &q).expect("E19 query runs");
        mon.scrape(&net, tick);
    }
    let injected: Vec<String> = faults.iter().map(|(p, _, _)| p.clone()).collect();
    let detections = faults
        .iter()
        .map(|(peer, kind, onset)| Detection {
            peer: peer.clone(),
            kind,
            onset: *onset,
            detected: mon.first_flagged_tick(peer),
        })
        .collect();
    let degraded = mon
        .verdicts()
        .into_iter()
        .filter(|(_, h)| *h == Health::Degraded)
        .map(|(p, _)| p)
        .collect();
    MonitorOutcome {
        injected,
        flagged: mon.flagged(),
        degraded,
        detections,
        events: mon.events().len(),
        dashboard: mon.render_dashboard(),
    }
}

/// Mean per-query latency (µs) of one run of the workload under `obs`.
fn time_workload(cfg: &E19Config, seed: u64, obs: Obs) -> f64 {
    let (mut net, _) = e19_network(cfg, seed);
    net.obs = obs;
    let mut mix = QueryMix::zipf(course_templates("P0", cfg.templates), 1.1, seed);
    let started = Instant::now();
    for _ in 0..cfg.queries {
        let q = mix.next_query().to_string();
        net.query_str("P0", &q).expect("E19 query runs");
    }
    started.elapsed().as_secs_f64() * 1e6 / cfg.queries.max(1) as f64
}

/// E19a — fault attribution and detection latency. Gates: the flagged
/// set equals the injected set exactly, and every detection lands within
/// [`e19_max_detect_ticks`].
pub fn e19_attribution() -> Table {
    let cfg = E19Config::default();
    let seed = e19_seed();
    let out = monitor_outcome(&cfg, seed);
    assert!(!out.injected.is_empty(), "seed {seed} injected no faults; pick another");
    assert_eq!(
        out.flagged, out.injected,
        "monitor mis-attributed under seed {seed}: injected {:?}, flagged {:?} \
         (degraded, unflagged: {:?})",
        out.injected, out.flagged, out.degraded
    );
    let max_ticks = e19_max_detect_ticks();
    let mut t = Table::new(
        format!(
            "E19a: fault attribution, {} peers / {} queries, chaos {} seed {} \
             (gate: detect <= {} ticks, REVERE_E19_MAX_DETECT_TICKS)",
            cfg.peers, cfg.queries, CHAOS_RATE, seed, max_ticks
        ),
        &["peer", "fault", "onset tick", "flagged at", "latency ticks", "gate"],
    );
    for d in &out.detections {
        let detected = d.detected.unwrap_or_else(|| {
            panic!("monitor never flagged injected peer {} under seed {seed}", d.peer)
        });
        let latency = detected.saturating_sub(d.onset);
        assert!(
            latency <= max_ticks,
            "detection of {} took {latency} ticks > gate {max_ticks} (REVERE_E19_MAX_DETECT_TICKS)",
            d.peer
        );
        t.row(vec![
            d.peer.clone(),
            d.kind.to_string(),
            d.onset.to_string(),
            detected.to_string(),
            latency.to_string(),
            "ok".to_string(),
        ]);
    }
    t.row(vec![
        format!("{} injected", out.injected.len()),
        "all flagged".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{} events", out.events),
        format!("{} degraded-only", out.degraded.len()),
    ]);
    t
}

/// The spans one fully traced query over `union` may record, by name:
/// one `pdms.query` and one `pdms.reformulate`, one `pdms.fetch` per
/// distinct relation of the union, and per disjunct one
/// `pdms.eval.disjunct` plus at most one `eval.step` per body atom.
pub fn span_budget(union: &UnionQuery) -> BTreeMap<&'static str, usize> {
    let relations: BTreeSet<&str> =
        union.disjuncts.iter().flat_map(|d| &d.body).map(|a| a.relation.as_str()).collect();
    BTreeMap::from([
        ("pdms.query", 1),
        ("pdms.reformulate", 1),
        ("pdms.fetch", relations.len()),
        ("pdms.eval.disjunct", union.disjuncts.len()),
        ("eval.step", union.disjuncts.iter().map(|d| d.body.len()).sum()),
    ])
}

/// Run the workload fully traced, each query under a fresh tracer, and
/// check every query's spans against its [`span_budget`]. Returns the
/// spans recorded and the spans budgeted over the run.
fn traced_spans(cfg: &E19Config, seed: u64) -> (usize, usize) {
    let (mut net, _) = e19_network(cfg, seed);
    let mut mix = QueryMix::zipf(course_templates("P0", cfg.templates), 1.1, seed);
    let (mut recorded, mut budgeted) = (0, 0);
    for _ in 0..cfg.queries {
        let q = mix.next_query().to_string();
        net.obs = Obs::enabled();
        let out = net.query_str("P0", &q).expect("E19 query runs");
        let mut budget = span_budget(&out.reformulation.union);
        budgeted += budget.values().sum::<usize>();
        for span in net.obs.tracer().expect("enabled").spans() {
            let left = budget.get_mut(span.name.as_str()).filter(|n| **n > 0);
            let left = left.unwrap_or_else(|| {
                panic!("{q}: span {} is beyond what the query's shape implies", span.name)
            });
            *left -= 1;
            recorded += 1;
        }
    }
    (recorded, budgeted)
}

/// E19b — telemetry cost. Gate: every fully traced query records no more
/// spans than its shape implies ([`span_budget`]). The wall-clock column
/// is a record: the same chaos workload untraced and fully traced, the
/// runs alternating between the two, min-of-3 per side.
pub fn e19_overhead() -> Table {
    let cfg = E19Config::default();
    let seed = e19_seed();
    let (spans, budget) = traced_spans(&cfg, seed);
    let runs = 3;
    // Alternate the two sides, so a slow phase of the machine lands on
    // both rather than on one side's every run.
    let (mut disabled, mut full) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        disabled = disabled.min(time_workload(&cfg, seed, Obs::disabled()));
        full = full.min(time_workload(&cfg, seed, Obs::enabled()));
    }
    let pct = (full - disabled) / disabled.max(1e-9) * 100.0;
    let per_query = |n: usize| f2(n as f64 / cfg.queries.max(1) as f64);
    let mut t = Table::new(
        format!(
            "E19b: telemetry cost, {} queries, wall clock min-of-{runs} (gate: each traced \
             query's spans within its shape's budget)",
            cfg.queries
        ),
        &["profile", "us/query", "overhead %", "spans/query", "budget/query", "gate"],
    );
    t.row(vec!["disabled".into(), f2(disabled), "-".into(), "0".into(), "-".into(), "-".into()]);
    t.row(vec![
        "full tracing".into(),
        f2(full),
        f2(pct),
        per_query(spans),
        per_query(budget),
        "ok".into(),
    ]);
    t
}

/// Both E19 tables.
pub fn e19_tables() -> Vec<Table> {
    vec![e19_attribution(), e19_overhead()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance of the E19 shape for the unit suite; the full
    /// 32-peer gate runs under `report E19` / `scripts/verify.sh`.
    fn small() -> E19Config {
        E19Config { peers: 10, rows: 2, templates: 6, queries: 16 }
    }

    #[test]
    fn attribution_is_exact_on_the_small_instance() {
        let out = monitor_outcome(&small(), e19_seed());
        assert!(!out.injected.is_empty());
        assert_eq!(out.flagged, out.injected, "degraded-only: {:?}", out.degraded);
        for d in &out.detections {
            let detected = d.detected.expect("every injected fault detected");
            assert!(detected.saturating_sub(d.onset) <= e19_max_detect_ticks());
        }
    }

    #[test]
    fn outcome_is_deterministic() {
        let (a, b) = (monitor_outcome(&small(), 5), monitor_outcome(&small(), 5));
        assert_eq!(a.dashboard, b.dashboard);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn traced_queries_stay_within_their_span_budget() {
        let (spans, budget) = traced_spans(&small(), e19_seed());
        assert!(spans > 0 && spans <= budget, "{spans} spans against a budget of {budget}");
    }

    #[test]
    fn crash_victim_is_flagged_only_after_onset() {
        let cfg = small();
        let out = monitor_outcome(&cfg, e19_seed());
        let crash = out
            .detections
            .iter()
            .find(|d| d.kind == "crash")
            .expect("a crash is always injected");
        assert!(crash.onset > 0);
        assert!(crash.detected.expect("crash detected") > crash.onset);
    }
}
