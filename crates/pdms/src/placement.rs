//! Intelligent data placement (§3.1.2, \[21\]).
//!
//! "Our ultimate goal is to materialize the best views at each peer to
//! allow answering queries most efficiently, given network constraints;
//! and to distribute each query in the PDMS to the peer that will provide
//! the best performance."
//!
//! [`plan_placement`] takes a query workload (who asks what, how often)
//! and greedily materializes the highest-benefit views within a per-peer
//! tuple budget, where benefit = frequency × messages currently spent on
//! that query per tuple stored. A placed view is a subscription registered
//! at the asking peer ([`PdmsNetwork::subscribe_cq`]), so every later
//! [`PdmsNetwork::publish`] keeps it fresh like any other continuous
//! query. [`answer_with_plan`] then routes: a query equivalent to a view
//! placed *at the asking peer* is served from the maintained answer with
//! zero messages; everything else falls back to normal reformulation.
//! A plan that is replaced or dropped is taken back with
//! [`PlacementPlan::retire`], or its views go on being maintained.

use crate::network::{PdmsError, PdmsNetwork, QueryOutcome};
use revere_query::{equivalent, ConjunctiveQuery};
use revere_storage::Relation;
use std::collections::BTreeMap;

/// One workload entry: `peer` poses `query` with relative `frequency`.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The asking peer.
    pub peer: String,
    /// The query, in that peer's vocabulary.
    pub query: ConjunctiveQuery,
    /// Executions per unit time (relative weight).
    pub frequency: f64,
}

/// One chosen placement: a view materialized at a peer.
///
/// The view maintains the query's full PDMS answer (the union over every
/// reachable peer), not just local data — that is what makes serving it
/// locally equivalent to re-asking the network.
#[derive(Debug)]
pub struct Placement {
    /// Where the view lives.
    pub peer: String,
    /// The view's defining query (in the peer's vocabulary).
    pub definition: ConjunctiveQuery,
    /// The subscription that maintains it ([`PdmsNetwork::subscription`]).
    pub subscription: String,
    /// Tuples it held when placed (the storage cost the budget charged).
    pub rows: usize,
    /// Messages saved every time its query is asked.
    pub saved_messages: usize,
    /// Benefit score used by the greedy pass.
    pub benefit: f64,
}

/// The placement plan.
#[derive(Debug, Default)]
pub struct PlacementPlan {
    /// Chosen placements.
    pub placements: Vec<Placement>,
}

impl PlacementPlan {
    /// The view at `peer` equivalent to `query`, if any.
    pub fn view_for(&self, peer: &str, query: &ConjunctiveQuery) -> Option<&Placement> {
        self.placements
            .iter()
            .find(|p| p.peer == peer && equivalent(&p.definition, query))
    }

    /// Total materialized tuples per peer.
    pub fn usage_by_peer(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for p in &self.placements {
            *out.entry(p.peer.clone()).or_default() += p.rows;
        }
        out
    }

    /// Discard the plan: unsubscribe exactly the subscriptions
    /// [`plan_placement`] registered for it, so its circuits stop being
    /// pushed on every publish.
    pub fn retire(self, net: &mut PdmsNetwork) {
        for p in &self.placements {
            net.unsubscribe(&p.subscription);
        }
    }
}

/// Greedily choose views to materialize under a per-peer tuple budget.
///
/// For each workload entry the candidate view is the entry's own query
/// (materialized at the asking peer — the "warehouse it where it's asked"
/// strategy of \[21\]); candidates are ranked by
/// `frequency × messages saved / rows stored` and accepted while the
/// peer's budget allows. Each accepted view is registered on `net` as the
/// subscription `placed:<peer>:<query>`, replacing one of that name.
pub fn plan_placement(
    net: &mut PdmsNetwork,
    workload: &[WorkloadEntry],
    budget_per_peer: usize,
) -> PlacementPlan {
    let mut candidates: Vec<Placement> = Vec::new();
    for entry in workload {
        let Ok(outcome) = net.query(&entry.peer, &entry.query) else {
            continue;
        };
        if outcome.messages == 0 {
            continue; // already local; nothing to save
        }
        let rows = outcome.answers.len();
        let benefit = entry.frequency * outcome.messages as f64 / (rows.max(1) as f64);
        candidates.push(Placement {
            peer: entry.peer.clone(),
            definition: entry.query.clone(),
            subscription: format!("placed:{}:{}", entry.peer, entry.query),
            rows,
            saved_messages: outcome.messages,
            benefit,
        });
    }
    candidates.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    let mut plan = PlacementPlan::default();
    let mut used: BTreeMap<String, usize> = BTreeMap::new();
    for c in candidates {
        let u = used.entry(c.peer.clone()).or_default();
        if *u + c.rows > budget_per_peer {
            continue;
        }
        // Skip if an equivalent view is already placed at this peer.
        if plan.view_for(&c.peer, &c.definition).is_some() {
            continue;
        }
        // Materialize the full network answer, and keep it.
        if net.subscribe_cq(&c.peer, &c.subscription, c.definition.clone()).is_err() {
            continue;
        }
        *u += c.rows;
        plan.placements.push(c);
    }
    plan
}

/// Answer `query` at `peer`, using a materialized view when one matches.
/// Returns the answers plus the messages actually spent.
pub fn answer_with_plan(
    net: &PdmsNetwork,
    plan: &PlacementPlan,
    peer: &str,
    query: &ConjunctiveQuery,
) -> Result<(Relation, usize), PdmsError> {
    let placed = plan.view_for(peer, query).and_then(|p| net.subscription(&p.subscription));
    if let Some(sub) = placed {
        return Ok((sub.answers(), 0));
    }
    let QueryOutcome { answers, messages, .. } = net.query(peer, query)?;
    Ok((answers, messages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;
    use revere_query::{parse_query, GlavMapping};
    use revere_storage::{RelSchema, Value};

    fn chain_net() -> PdmsNetwork {
        let mut net = PdmsNetwork::new();
        for i in 0..3 {
            let mut p = Peer::new(format!("P{i}"));
            let mut r = Relation::new(RelSchema::text("course", &["title"]));
            for k in 0..4 {
                r.insert(vec![Value::str(format!("C{k}@P{i}"))]);
            }
            p.add_relation(r);
            net.add_peer(p);
        }
        for i in 1..3 {
            net.add_mapping(
                GlavMapping::parse(
                    format!("m{i}"),
                    format!("P{}", i - 1),
                    format!("P{i}"),
                    &format!(
                        "m(T) :- P{}.course(T) ==> m(T) :- P{i}.course(T)",
                        i - 1
                    ),
                )
                .unwrap(),
            );
        }
        net
    }

    fn workload() -> Vec<WorkloadEntry> {
        vec![WorkloadEntry {
            peer: "P2".into(),
            query: parse_query("q(T) :- P2.course(T)").unwrap(),
            frequency: 10.0,
        }]
    }

    #[test]
    fn placement_eliminates_messages_for_hot_query() {
        let mut net = chain_net();
        let plan = plan_placement(&mut net, &workload(), 1_000);
        assert_eq!(plan.placements.len(), 1);
        assert_eq!(plan.placements[0].peer, "P2");
        assert!(plan.placements[0].saved_messages > 0);
        let q = parse_query("q(T) :- P2.course(T)").unwrap();
        let (answers, messages) = answer_with_plan(&net, &plan, "P2", &q).unwrap();
        assert_eq!(messages, 0, "materialized view should serve locally");
        assert_eq!(answers.len(), 12, "{answers}");
        // Without the plan, the same query ships data.
        let direct = net.query("P2", &q).unwrap();
        assert!(direct.messages > 0);
        let mut a = answers.rows().to_vec();
        let mut b = direct.answers.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "view answers must match live answers");
    }

    #[test]
    fn retire_takes_back_exactly_the_plans_subscriptions() {
        let mut net = chain_net();
        let plan = plan_placement(&mut net, &workload(), 1_000);
        let placed = plan.placements[0].subscription.clone();
        assert_eq!(net.subscription_names().collect::<Vec<_>>(), [placed.as_str()]);
        plan.retire(&mut net);
        assert_eq!(net.subscription_names().count(), 0, "a retired plan leaves nothing behind");
        // Somebody else's subscription is not the plan's to take.
        net.subscribe_str("P1", "mine", "q(T) :- P1.course(T)").unwrap();
        plan_placement(&mut net, &workload(), 1_000).retire(&mut net);
        assert_eq!(net.subscription_names().collect::<Vec<_>>(), ["mine"]);
    }

    #[test]
    fn zero_budget_places_nothing() {
        let mut net = chain_net();
        let plan = plan_placement(&mut net, &workload(), 0);
        assert!(plan.placements.is_empty());
        // Queries still work, just remotely.
        let q = parse_query("q(T) :- P2.course(T)").unwrap();
        let (answers, messages) = answer_with_plan(&net, &plan, "P2", &q).unwrap();
        assert!(messages > 0);
        assert_eq!(answers.len(), 12);
    }

    #[test]
    fn budget_is_respected_across_entries() {
        let mut net = chain_net();
        let mut wl = workload();
        wl.push(WorkloadEntry {
            peer: "P2".into(),
            query: parse_query("q(T) :- P2.course(T), T != 'nope'").unwrap(),
            frequency: 1.0,
        });
        // Budget fits exactly one 12-row view.
        let plan = plan_placement(&mut net, &wl, 12);
        assert_eq!(plan.placements.len(), 1);
        // The higher-frequency entry wins the budget.
        assert!(plan.placements[0].benefit >= 1.0);
        assert!(plan.usage_by_peer()["P2"] <= 12);
    }

    #[test]
    fn equivalent_queries_share_a_view() {
        let mut net = chain_net();
        let plan = plan_placement(&mut net, &workload(), 1_000);
        // A renamed-variable version of the hot query hits the same view.
        let q2 = parse_query("q(X) :- P2.course(X)").unwrap();
        let (_, messages) = answer_with_plan(&net, &plan, "P2", &q2).unwrap();
        assert_eq!(messages, 0);
        // But a different peer does not get P2's view.
        let q_p1 = parse_query("q(T) :- P1.course(T)").unwrap();
        let (_, messages) = answer_with_plan(&net, &plan, "P1", &q_p1).unwrap();
        assert!(messages > 0);
    }

    #[test]
    fn local_only_queries_are_not_materialized() {
        let mut net = PdmsNetwork::new();
        let mut p = Peer::new("Solo");
        let mut r = Relation::new(RelSchema::text("course", &["title"]));
        r.insert(vec![Value::str("x")]);
        p.add_relation(r);
        net.add_peer(p);
        let wl = vec![WorkloadEntry {
            peer: "Solo".into(),
            query: parse_query("q(T) :- Solo.course(T)").unwrap(),
            frequency: 100.0,
        }];
        let plan = plan_placement(&mut net, &wl, 1_000);
        assert!(plan.placements.is_empty(), "no messages to save");
    }
}
