//! Watch an overlay degrade on the live health dashboard.
//!
//! Stands up a 12-peer random overlay under light chaos (plus one
//! scheduled mid-run crash), drives a query workload from `P0` with a
//! [`Monitor`] scraping every peer each tick, and prints the final
//! cluster dashboard, the structured event log, and the merged metrics
//! rollup:
//!
//! ```text
//! cargo run --release --example dashboard
//! ```
//!
//! Everything is a pure function of `REVERE_E19_SEED` (default 1003):
//! the same seed always prints the same dashboard, byte for byte.

use revere::prelude::*;
use revere::storage::Attribute;
use revere::workload::course_templates;

fn main() {
    let seed = std::env::var("REVERE_E19_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1003);
    let n = 12usize;
    let ticks = 24u64;

    // A 12-peer random overlay, every edge a GLAV mapping.
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, n, seed);
    let mut net = PdmsNetwork::new();
    net.options.max_depth = n;
    for i in 0..n {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        for k in 0..3 {
            r.insert(vec![
                Value::str(format!("Course {k} at P{i}")),
                Value::Int((10 + i * 3 + k) as i64),
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

    // Light chaos, and the first healthy non-P0 peer crashes mid-run.
    let chaos = FaultPlan::new(FaultSpec::chaos(seed, 0.15));
    let victim = (1..n)
        .map(|i| format!("P{i}"))
        .find(|p| !chaos.is_down(p))
        .expect("someone survived the draw");
    eprintln!("scheduling crash of {victim} at tick {}", ticks / 2);
    net.faults = FaultPlan::new(FaultSpec::chaos(seed, 0.15).with_crash(victim, ticks / 2));

    // Drive the workload; the monitor scrapes once per query tick.
    let templates = course_templates("P0", 6);
    let mut mon = Monitor::default();
    for tick in 0..ticks {
        let q = &templates[tick as usize % templates.len()];
        net.query_str("P0", q).expect("query runs");
        mon.scrape(&net, tick);
    }

    println!("{}", mon.render_dashboard());
    println!("event log:");
    print!("{}", mon.event_log());
    println!();
    println!("cluster rollup (last {} windows):", Monitor::WINDOWS);
    print!("{}", mon.rollup());
}
