//! E11 (extension): data placement — materializing hot views at asking
//! peers (§3.1.2, \[21\]).

use crate::fixtures::course_network;
use crate::table::{f2, Table};
use revere_pdms::placement::{answer_with_plan, plan_placement, WorkloadEntry};
use revere_query::parse_query;
use revere_workload::TopologyKind;

/// E11 — §3.1.2: "materialize the best views at each peer to allow
/// answering queries most efficiently." Sweep the per-peer storage budget
/// and measure the messages a fixed workload costs with and without the
/// placement plan.
pub fn e11_placement() -> Table {
    let mut t = Table::new(
        "E11 (ext): data placement benefit vs storage budget (\u{a7}3.1.2)",
        &[
            "budget (tuples/peer)", "views placed", "tuples stored",
            "workload messages (no plan)", "workload messages (plan)", "saving",
        ],
    );
    let mut net = course_network(TopologyKind::Chain, 8, 20, 7);
    // Workload: three peers ask the hot whole-network query with
    // different frequencies, one peer asks a selective query.
    let workload: Vec<WorkloadEntry> = vec![
        WorkloadEntry {
            peer: "P7".into(),
            query: parse_query("q(T, E) :- P7.course(T, E)").unwrap(),
            frequency: 10.0,
        },
        WorkloadEntry {
            peer: "P4".into(),
            query: parse_query("q(T, E) :- P4.course(T, E)").unwrap(),
            frequency: 5.0,
        },
        WorkloadEntry {
            peer: "P0".into(),
            query: parse_query("q(T, E) :- P0.course(T, E), E > 100").unwrap(),
            frequency: 2.0,
        },
    ];
    // Baseline cost: weighted messages without any plan.
    let baseline: f64 = workload
        .iter()
        .map(|w| {
            w.frequency * net.query(&w.peer, &w.query).map(|o| o.messages).unwrap_or(0) as f64
        })
        .sum();
    for &budget in &[0usize, 100, 200, 100_000] {
        let plan = plan_placement(&mut net, &workload, budget);
        let planned: f64 = workload
            .iter()
            .map(|w| {
                let (_, messages) =
                    answer_with_plan(&net, &plan, &w.peer, &w.query).expect("query runs");
                w.frequency * messages as f64
            })
            .sum();
        let stored: usize = plan.usage_by_peer().values().sum();
        let placed = plan.placements.len();
        // A plan's views are subscriptions; take them back before the
        // next budget point plans on the same network.
        plan.retire(&mut net);
        t.row(vec![
            budget.to_string(),
            placed.to_string(),
            stored.to_string(),
            f2(baseline),
            f2(planned),
            format!("{:.0}%", 100.0 * (baseline - planned) / baseline.max(1e-9)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_saving_grows_with_budget() {
        let t = e11_placement();
        let savings: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[5].trim_end_matches('%').parse().unwrap())
            .collect();
        assert_eq!(savings[0], 0.0, "zero budget saves nothing");
        assert!(
            savings.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "saving not monotone: {savings:?}"
        );
        let last = *savings.last().unwrap();
        assert!(last >= 99.0, "unbounded budget should eliminate messages, saved {last}%");
        // Answers stay correct either way (checked in placement unit tests);
        // here assert the plan actually placed all three views at the top.
        let views: usize = t.rows.last().unwrap()[1].parse().unwrap();
        assert_eq!(views, 3);
    }
}
