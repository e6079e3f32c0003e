//! E17: delta-dataflow IVM vs invalidate-and-recompute.

use crate::fixtures::big_relation;
use crate::table::{f2, ms, Table};
use revere_pdms::{apply_updategrams, PdmsNetwork, Peer, Updategram};
use revere_query::dataflow::Circuit;
use revere_query::plan::plan_cq;
use revere_query::{eval_cq, eval_planned, parse_query};
use revere_storage::{Catalog, Value, ZSetBatch};
use revere_util::obs::{Obs, SpanHandle};
use std::time::Instant;

/// E17a — O(|Δ|) refresh: a circuit's per-update cost is a function of
/// the delta, not the base. The base relation grows 64×; the join-work
/// units and wall time per single-row update stay flat, while the
/// from-scratch recompute each update would otherwise trigger grows
/// linearly. "arranged/base" is the write amplification the circuit pays
/// for that: distinct tuples held in arrangements per base tuple.
pub fn e17_dataflow_scaling() -> Table {
    let mut t = Table::new(
        "E17a: circuit refresh cost vs base size (O(|\u{394}|) scaling)",
        &[
            "base rows", "updates", "work/update", "us/update", "recompute ms", "speedup",
            "arranged/base",
        ],
    );
    let updates = 64usize;
    for &base in &[1_000usize, 4_000, 16_000, 64_000] {
        let domain = (base / 10) as i64;
        let mut mirror = Catalog::new();
        mirror.register(big_relation("r", base, domain));
        mirror.register(big_relation("s", base / 5, domain));
        let q = parse_query("v(A, C) :- r(A, B), s(B, C)").unwrap();
        let plan = plan_cq(&q, &mirror);
        let mut circuit = Circuit::new(&q, &plan).unwrap();
        circuit.init_full(&mirror).unwrap();
        let work0 = circuit.work();

        // Single-row updates: fresh `a` values (no collision with the
        // base pattern), in-domain `b` values so every update joins.
        // Every fourth update retracts the previous insert. Batches are
        // prepared (and mirrored) up front so the timed loop measures
        // circuit refresh alone.
        let batches: Vec<ZSetBatch> = (0..updates)
            .map(|u| {
                let row = |i: usize| {
                    vec![
                        Value::Int(1_000_000 + i as i64),
                        Value::Int((i as i64 * 17 + 5) % domain),
                    ]
                };
                let mut batch = ZSetBatch::new();
                if u % 4 == 3 {
                    batch.add("r", row(u - 1), -1);
                    mirror.delete("r", &row(u - 1));
                } else {
                    batch.add("r", row(u), 1);
                    mirror.insert("r", row(u));
                }
                batch
            })
            .collect();
        let start = Instant::now();
        for batch in &batches {
            circuit.push(batch);
        }
        let inc = start.elapsed();
        let work_per_update = (circuit.work() - work0) as f64 / updates as f64;

        // What each update would have cost without the circuit.
        let start = Instant::now();
        let (fresh, _) =
            eval_planned(&q, &plan, &mirror, &Obs::disabled(), &SpanHandle::none()).unwrap();
        let recompute = start.elapsed();
        assert_eq!(circuit.output_bag().rows(), fresh.sorted().rows(), "circuit drifted");

        let per_update = inc.as_secs_f64() / updates as f64;
        t.row(vec![
            base.to_string(),
            updates.to_string(),
            f2(work_per_update),
            f2(per_update * 1e6),
            ms(recompute),
            f2(recompute.as_secs_f64() / per_update.max(1e-9)),
            f2(circuit.arranged_tuples() as f64 / (base + base / 5) as f64),
        ]);
    }
    t
}

/// A one-peer network holding the join's base data.
fn hub_network(base: usize, domain: i64) -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    let mut hub = Peer::new("Hub");
    hub.add_relation(big_relation("r", base, domain));
    hub.add_relation(big_relation("s", base / 5, domain));
    net.add_peer(hub);
    net
}

/// The E17b update stream: mostly inserts, one retraction.
fn feed_grams(domain: i64) -> Vec<Updategram> {
    let mut grams: Vec<Updategram> = (0..6u64)
        .map(|g| {
            Updategram::inserts(
                "Hub.r",
                (0..4u64)
                    .map(|i| {
                        let k = (g * 4 + i) as i64;
                        vec![Value::Int(1_000_000 + k), Value::Int((k * 17 + 5) % domain)]
                    })
                    .collect(),
            )
        })
        .collect();
    grams.push(Updategram::deletes(
        "Hub.r",
        vec![vec![Value::Int(1_000_000), Value::Int(5 % domain)]],
    ));
    grams
}

/// E17b — refresh latency under subscriber fan-out: the same update
/// stream served to N continuous queries ([`PdmsNetwork::subscribe_str`],
/// each a view kept by delta-dataflow circuits) against
/// invalidate-and-recompute (every subscriber re-evaluates the query from
/// scratch over one shared base catalog after every gram). Setup
/// (subscribing) is excluded; the table times the stream.
pub fn e17_subscriber_fanout() -> Table {
    let mut t = Table::new(
        "E17b: N subscribers \u{d7} update stream, dataflow vs recompute",
        &["subscribers", "grams", "dataflow ms", "recompute ms", "recompute/dataflow"],
    );
    let (base, domain) = (2_000usize, 200i64);
    let text = "q(A, C) :- Hub.r(A, B), Hub.s(B, C)";
    for &n in &[1usize, 10, 100] {
        let grams = feed_grams(domain);

        // Delta-dataflow circuits.
        let mut net = hub_network(base, domain);
        for i in 0..n {
            net.subscribe_str("Hub", &format!("sub{i}"), text).unwrap();
        }
        let start = Instant::now();
        for g in &grams {
            net.publish(g).unwrap();
        }
        let flow = start.elapsed();
        let flow_answers = net.subscription("sub0").unwrap().answers();

        // Invalidate-and-recompute: every gram re-runs every subscriber.
        let mut catalog = hub_network(base, domain).snapshot_all();
        let q = parse_query(text).unwrap();
        let mut answer = eval_cq(&q, &catalog).unwrap();
        let start = Instant::now();
        for g in &grams {
            apply_updategrams(&mut catalog, std::slice::from_ref(g));
            for _ in 0..n {
                answer = eval_cq(&q, &catalog).unwrap();
            }
        }
        let recompute = start.elapsed();
        assert_eq!(
            answer.sorted().rows(),
            flow_answers.rows(),
            "recompute diverged from dataflow"
        );

        t.row(vec![
            n.to_string(),
            grams.len().to_string(),
            ms(flow),
            ms(recompute),
            f2(recompute.as_secs_f64() / flow.as_secs_f64().max(1e-9)),
        ]);
    }
    t
}

/// Both E17 tables.
pub fn e17_tables() -> Vec<Table> {
    vec![e17_dataflow_scaling(), e17_subscriber_fanout()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17a_per_update_cost_is_flat_as_the_base_grows() {
        let t = e17_dataflow_scaling();
        let work_first: f64 = t.rows[0][2].parse().unwrap();
        let work_last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        // 64× more base data, same per-update join work (± constants).
        assert!(
            work_last <= work_first * 4.0 + 8.0,
            "per-update work grew with the base: {work_first} -> {work_last}\n{t}"
        );
        // Against that flat cost, from-scratch recompute keeps growing.
        let speed_first: f64 = t.rows[0][5].parse().unwrap();
        let speed_last: f64 = t.rows.last().unwrap()[5].parse().unwrap();
        assert!(speed_last > speed_first, "speedup should grow with base size\n{t}");
    }

    #[test]
    fn e17b_dataflow_beats_recompute_at_scale() {
        let t = e17_subscriber_fanout();
        let last = t.rows.last().unwrap();
        assert_eq!(last[0], "100");
        let vs_recompute: f64 = last[4].parse().unwrap();
        assert!(
            vs_recompute >= 5.0,
            "dataflow should be \u{2265}5\u{d7} faster than recompute at 100 subscribers\n{t}"
        );
    }
}
