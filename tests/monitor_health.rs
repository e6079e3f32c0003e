//! Integration: the overlay health monitor, spanning `revere-util`'s obs
//! substrate and `revere-pdms`'s network + monitor.
//!
//! Three contracts, all seed-parametric (`REVERE_E19_SEED`, default 1003;
//! `scripts/verify.sh` runs the suite under several seeds):
//!
//! 1. **Exact attribution** — under a seeded chaos plan plus one mid-run
//!    crash, the monitor's `Suspect`/`Down` set equals the injected
//!    degraded-peer set, with every detection inside
//!    `REVERE_E19_MAX_DETECT_TICKS`.
//! 2. **Answer invariance** — running a monitor beside a workload changes
//!    nothing: every query outcome is byte-identical to the unmonitored
//!    twin, same discipline as `tests/trace_obs.rs`.
//! 3. **Determinism** — dashboards, event logs, and windowed rollups are
//!    byte-identical across same-seed runs.

use revere::prelude::*;
use revere::storage::Attribute;
use revere::workload::course_templates;

/// The seed under test: `REVERE_E19_SEED` or 1003.
fn seed() -> u64 {
    std::env::var("REVERE_E19_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1003)
}

/// Detection-latency bound: `REVERE_E19_MAX_DETECT_TICKS` or 8.
fn max_detect_ticks() -> u64 {
    std::env::var("REVERE_E19_MAX_DETECT_TICKS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(8)
}

/// A 16-peer random course overlay (same shape as the E12/E19 fixtures).
fn build_network(seed: u64, n: usize) -> PdmsNetwork {
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, n, seed);
    let mut net = PdmsNetwork::new();
    net.options.max_depth = n.max(8);
    for i in 0..n {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        for k in 0..3 {
            r.insert(vec![
                Value::str(format!("Course {k} at P{i}")),
                Value::Int((10 + (i * 7 + k * 13) % 300) as i64),
            ]);
        }
        p.add_relation(r);
        net.add_peer(p);
    }
    for (idx, (a, b)) in topology.edges.iter().enumerate() {
        net.add_mapping(
            GlavMapping::parse(
                format!("m{idx}"),
                format!("P{a}"),
                format!("P{b}"),
                &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
            )
            .expect("mapping parses"),
        );
    }
    net
}

/// The chaos plan under test plus the injected degraded set: whole-run
/// outage peers drawn by the chaos dial, and the first healthy non-P0
/// peer crashed at `crash_tick`.
fn chaos_with_crash(seed: u64, n: usize, crash_tick: u64) -> (FaultPlan, Vec<(String, u64)>) {
    let chaos = FaultPlan::new(FaultSpec::chaos(seed, 0.25));
    let mut injected: Vec<(String, u64)> = (0..n)
        .map(|i| format!("P{i}"))
        .filter(|p| chaos.is_down(p))
        .map(|p| (p, 0))
        .collect();
    let victim = (1..n)
        .map(|i| format!("P{i}"))
        .find(|p| !chaos.is_down(p))
        .expect("some peer survived the chaos draw");
    injected.push((victim.clone(), crash_tick));
    injected.sort();
    let plan = FaultPlan::new(FaultSpec::chaos(seed, 0.25).with_crash(victim, crash_tick));
    (plan, injected)
}

#[test]
fn monitor_attributes_injected_faults_exactly() {
    let seed = seed();
    let (n, ticks, crash_tick) = (16usize, 32u64, 16u64);
    let mut net = build_network(seed, n);
    let (plan, injected) = chaos_with_crash(seed, n, crash_tick);
    net.faults = plan;
    let templates = course_templates("P0", 6);
    let mut mon = Monitor::default();
    for tick in 0..ticks {
        let q = &templates[tick as usize % templates.len()];
        net.query_str("P0", q).expect("query runs");
        mon.scrape(&net, tick);
    }
    let expected: Vec<String> = injected.iter().map(|(p, _)| p.clone()).collect();
    assert!(!expected.is_empty(), "seed {seed} injected no faults");
    assert_eq!(
        mon.flagged(),
        expected,
        "attribution diverged under seed {seed}; events:\n{}",
        mon.event_log()
    );
    let bound = max_detect_ticks();
    for (peer, onset) in &injected {
        let detected = mon
            .first_flagged_tick(peer)
            .unwrap_or_else(|| panic!("injected peer {peer} never flagged under seed {seed}"));
        assert!(
            detected.saturating_sub(*onset) <= bound,
            "detecting {peer} took {} ticks > {bound} (REVERE_E19_MAX_DETECT_TICKS)",
            detected.saturating_sub(*onset)
        );
    }
}

#[test]
fn monitoring_never_changes_answers() {
    // Twin runs under the same chaos plan: one bare, one scraped by a
    // monitor after every query (with tracing enabled, so the golden
    // trace must match too). Every outcome must be identical — the
    // monitor observes the network, it never steers it.
    let seed = seed();
    let (n, ticks) = (10usize, 12u64);
    let run = |monitored: bool| {
        let mut net = build_network(seed, n);
        let (plan, _) = chaos_with_crash(seed, n, 6);
        net.faults = plan;
        net.obs = Obs::enabled();
        let mut mon = Monitor::default();
        let templates = course_templates("P0", 6);
        let mut outcomes = Vec::new();
        for tick in 0..ticks {
            let q = &templates[tick as usize % templates.len()];
            let out = net.query_str("P0", q).expect("query runs");
            outcomes.push((
                out.answers,
                out.completeness,
                out.messages,
                out.peers_contacted,
                out.tuples_shipped,
            ));
            if monitored {
                mon.scrape(&net, tick);
            }
        }
        let trace = net.obs.tracer().unwrap().chrome_trace();
        let metrics = net.obs.metrics().unwrap().snapshot().to_string();
        (outcomes, trace, metrics)
    };
    let (bare, monitored) = (run(false), run(true));
    assert_eq!(bare.0, monitored.0, "monitor scraping changed a query outcome (seed {seed})");
    assert_eq!(bare.1, monitored.1, "monitor scraping changed the golden trace (seed {seed})");
    assert_eq!(bare.2, monitored.2, "monitor scraping changed workload metrics (seed {seed})");
}

#[test]
fn monitored_runs_are_byte_deterministic() {
    let seed = seed();
    let run = || {
        let mut net = build_network(seed, 10);
        let (plan, _) = chaos_with_crash(seed, 10, 6);
        net.faults = plan;
        let mut mon = Monitor::default();
        let templates = course_templates("P0", 6);
        for tick in 0..12u64 {
            net.query_str("P0", &templates[tick as usize % templates.len()])
                .expect("query runs");
            mon.scrape(&net, tick);
        }
        (mon.render_dashboard(), mon.event_log(), mon.chrome_trace(), mon.rollup().to_string())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "dashboard diverged under seed {seed}");
    assert_eq!(a.1, b.1, "event log diverged under seed {seed}");
    assert_eq!(a.2, b.2, "chrome export diverged under seed {seed}");
    assert_eq!(a.3, b.3, "windowed rollup diverged under seed {seed}");
}
