//! How changes reach continuous queries.

use super::{PdmsError, PdmsNetwork};
use crate::peer::{split_qualified, Peer};
use crate::updategram::Updategram;
use crate::views::MaterializedView;
use revere_query::eval::EvalError;
use revere_query::{parse_query, ConjunctiveQuery};
use revere_storage::{Catalog, Relation, ZSetBatch};
use revere_util::obs::SpanHandle;
use std::collections::{BTreeMap, BTreeSet};

/// A continuous query registered at a peer ([`PdmsNetwork::subscribe_str`]):
/// a [`MaterializedView`] of the query's reformulation over the mapping
/// graph, plus where it was asked and what changes have done to it. A
/// pushed batch of changes re-fires only subscriptions whose base
/// relations it touches; everything else is a counted no-op.
#[derive(Debug)]
pub struct Subscription {
    /// The peer the continuous query was posed at.
    pub at_peer: String,
    /// The maintained answer; named after the subscription (unique per
    /// network), defined by the query as posed in that peer's vocabulary.
    pub view: MaterializedView,
    /// Disjuncts in the reformulated union; those the network could not
    /// evaluate when the view was last seeded (unreachable base
    /// relations) are not in the view.
    pub disjuncts_total: usize,
    /// Times a pushed batch incrementally refreshed this subscription.
    pub refreshes: usize,
    /// Pushed batches that touched none of this subscription's base
    /// relations (no work beyond the affected-set check).
    pub skipped: usize,
}

impl Subscription {
    /// The base relations whose deltas re-fire this subscription.
    pub fn relations(&self) -> &BTreeSet<String> {
        self.view.relations()
    }

    /// The maintained answer under set semantics, sorted.
    pub fn answers(&self) -> Relation {
        self.view.as_relation()
    }

    /// Join-work units spent across all circuits.
    pub fn work(&self) -> u64 {
        self.view.work()
    }

    /// Distinct tuples held across all circuit arrangements.
    pub fn arranged_tuples(&self) -> usize {
        self.view.arranged_tuples()
    }
}

/// What one [`PdmsNetwork::publish`] call did.
#[derive(Debug, Clone, Default)]
pub struct PublishReport {
    /// Subscriptions whose answers were incrementally refreshed.
    pub refreshed: Vec<String>,
    /// Subscriptions skipped because the delta touches none of their
    /// base relations.
    pub skipped: usize,
    /// Distinct output tuples whose derivation counts changed, summed
    /// over the refreshed subscriptions.
    pub output_changes: usize,
}

/// A network's continuous queries, and the topology their circuits were
/// seeded under.
#[derive(Debug, Default)]
pub(super) struct Subscriptions {
    /// Continuous queries registered via [`PdmsNetwork::subscribe_str`].
    by_name: BTreeMap<String, Subscription>,
    /// The topology epoch at which every member's catalog started
    /// tracking its changes ([`Catalog::track_changes`]); `None` while no
    /// one subscribes, when no catalog tracks.
    topology: Option<u64>,
}

impl PdmsNetwork {
    /// Start every member's catalog tracking its changes from now on, and
    /// stamp the topology that covers.
    fn track_members(&mut self) {
        for p in self.peers.values() {
            p.storage.write(Catalog::track_changes);
        }
        self.subs.topology = Some(self.topology_epoch);
    }

    /// `q`'s reformulation over the current mapping graph, compiled into
    /// a view seeded from `base`, with the number of disjuncts it has.
    fn seed(&self, name: &str, q: ConjunctiveQuery, base: &Catalog) -> (MaterializedView, usize) {
        let (reformulation, _) = self.reformulate_cached(&q, &SpanHandle::none());
        let disjuncts = &reformulation.union.disjuncts;
        (MaterializedView::union(name, q, disjuncts, base), disjuncts.len())
    }

    /// Register a continuous query at a peer. The query is reformulated
    /// over the mapping graph exactly like [`PdmsNetwork::query`]; each
    /// evaluable disjunct is compiled into a circuit and initialized
    /// against the current network contents, so [`Subscription::answers`]
    /// immediately equals what a one-shot query would return. Disjuncts
    /// referencing unreachable relations are dropped and counted.
    /// Replaces any existing subscription of the same name.
    pub fn subscribe_str(
        &mut self,
        at_peer: &str,
        name: &str,
        query: &str,
    ) -> Result<&Subscription, PdmsError> {
        let q = parse_query(query)?;
        self.subscribe_cq(at_peer, name, q)
    }

    /// [`PdmsNetwork::subscribe_str`] for an already-parsed query.
    pub fn subscribe_cq(
        &mut self,
        at_peer: &str,
        name: &str,
        q: ConjunctiveQuery,
    ) -> Result<&Subscription, PdmsError> {
        self.member(at_peer)?;
        // Bring the others up to date first, so every circuit holds the
        // state the members' next recorded changes apply to.
        self.sync_subscriptions();
        if self.subs.topology != Some(self.topology_epoch) {
            self.track_members();
        }
        let (view, disjuncts_total) = self.seed(name, q, &self.snapshot_all());
        let at_peer = at_peer.to_string();
        let sub = Subscription { at_peer, view, disjuncts_total, refreshes: 0, skipped: 0 };
        self.subs.by_name.insert(name.to_string(), sub);
        Ok(self.subs.by_name.get(name).expect("just inserted"))
    }

    /// Remove a subscription, returning its final state. The last one
    /// out stops every member's catalog tracking its changes.
    pub fn unsubscribe(&mut self, name: &str) -> Option<Subscription> {
        let gone = self.subs.by_name.remove(name);
        if self.subs.by_name.is_empty() && self.subs.topology.take().is_some() {
            for p in self.peers.values() {
                p.storage.write(Catalog::untrack_changes);
            }
        }
        gone
    }

    /// Borrow a subscription.
    pub fn subscription(&self, name: &str) -> Option<&Subscription> {
        self.subs.by_name.get(name)
    }

    /// Registered subscription names.
    pub fn subscription_names(&self) -> impl Iterator<Item = &str> {
        self.subs.by_name.keys().map(String::as_str)
    }

    /// Apply an updategram to the relation's owning peer and push the
    /// resulting delta through every affected subscription. Changes made
    /// elsewhere are synced first ([`PdmsNetwork::sync_subscriptions`]);
    /// then the signed rows the owner's catalog reports for the gram (a
    /// delete retracts every stored copy of a row, duplicate inserts each
    /// count) re-fire *only* subscriptions whose base relations they
    /// touch — everyone else pays one set lookup. Errors when the
    /// relation is unqualified, its owner is not a member, or the owner
    /// does not store it; a row of the wrong arity is refused
    /// ([`PdmsError::Eval`]) before the owner journals or writes anything.
    pub fn publish(&mut self, gram: &Updategram) -> Result<PublishReport, PdmsError> {
        let Some((owner, _)) = split_qualified(&gram.relation) else {
            return Err(PdmsError::Unqualified(gram.relation.clone()));
        };
        if !self.member(owner)?.stores(&gram.relation) {
            return Err(PdmsError::NotStored { peer: owner.into(), relation: gram.relation.clone() });
        }
        self.sync_subscriptions();
        let owner = &self.peers[owner];
        owner
            .storage
            .write(|c| c.apply(&gram.relation, &gram.delete, &gram.insert).map(drop))
            .map_err(EvalError::from)?;
        Ok(refire(&mut self.subs.by_name, &drain([owner])))
    }

    /// Bring every subscription up to date with the network: push the
    /// signed rows each member's catalog recorded since the last sync
    /// through the affected circuits. When the topology has moved since
    /// the circuits were seeded — a peer joined, left, restarted or was
    /// borrowed mutably, or a mapping was added — every subscription is
    /// re-reformulated and re-seeded from the current contents instead,
    /// keeping its counters. Returns the number of distinct changed rows
    /// pushed: 0 after a re-seed, or while no one subscribes.
    pub fn sync_subscriptions(&mut self) -> usize {
        if self.subs.by_name.is_empty() {
            return 0;
        }
        if self.subs.topology != Some(self.topology_epoch) {
            self.track_members();
            let base = self.snapshot_all();
            let mut by_name = std::mem::take(&mut self.subs.by_name);
            for (name, sub) in &mut by_name {
                let q = sub.view.definition.clone();
                (sub.view, sub.disjuncts_total) = self.seed(name, q, &base);
            }
            self.subs.by_name = by_name;
            return 0;
        }
        let batch = drain(self.peers.values());
        if !batch.is_empty() {
            refire(&mut self.subs.by_name, &batch);
        }
        batch.len()
    }

    // This and `IvmStrategy` are named by `crates/e2e/src/surface.rs`;
    // delete them with the next `benchmark` issue.
    #[doc(hidden)]
    pub fn subscribe(
        &mut self,
        at_peer: &str,
        name: &str,
        query: &str,
        _strategy: IvmStrategy,
    ) -> Result<&Subscription, PdmsError> {
        self.subscribe_str(at_peer, name, query)
    }
}

/// The signed rows `peers`' catalogs recorded since their last take, as
/// one batch.
fn drain<'a>(peers: impl IntoIterator<Item = &'a Peer>) -> ZSetBatch {
    let mut batch = ZSetBatch::new();
    for peer in peers {
        batch.merge(peer.storage.write(Catalog::take_changes));
    }
    batch
}

/// Push one signed batch through every affected subscription.
fn refire(subs: &mut BTreeMap<String, Subscription>, batch: &ZSetBatch) -> PublishReport {
    let mut report = PublishReport::default();
    for (name, sub) in subs.iter_mut() {
        if !batch.relations().any(|r| sub.view.relations().contains(r)) {
            sub.skipped += 1;
            report.skipped += 1;
            continue;
        }
        report.output_changes += sub.view.push(batch);
        sub.refreshes += 1;
        report.refreshed.push(name.clone());
    }
    report
}

/// The maintainer selector of the two-maintainer era; circuits are left.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum IvmStrategy {
    Dataflow,
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_query::glav::GlavMapping;
    use revere_storage::{RelSchema, Value};

    /// Peers `A` and `B`, in memory, each storing `r(x)` with one row.
    fn two_peers() -> PdmsNetwork {
        let mut net = PdmsNetwork::new();
        for name in ["A", "B"] {
            let mut p = Peer::new(name);
            p.add_relation(Relation::with_rows(
                RelSchema::text("r", &["x"]),
                vec![vec![Value::str(name)]],
            ));
            net.add_peer(p);
        }
        net
    }

    fn assert_matches_query(net: &PdmsNetwork, name: &str, at: &str, text: &str) {
        let oneshot = net.query_str(at, text).unwrap().answers;
        assert_eq!(net.subscription(name).unwrap().answers().rows(), oneshot.rows());
    }

    #[test]
    fn a_direct_write_to_an_in_memory_peer_reaches_the_subscription() {
        let mut net = two_peers();
        let text = "q(X) :- A.r(X)";
        net.subscribe_str("A", "s", text).unwrap();
        net.peer("A").unwrap().storage.write(|c| {
            c.insert("A.r", vec![Value::str("direct")]);
            c.delete("A.r", &[Value::str("A")]);
        });
        assert_eq!(net.sync_subscriptions(), 2);
        assert_matches_query(&net, "s", "A", text);
        assert_eq!(net.subscription("s").unwrap().answers().len(), 1);
        assert_eq!(net.subscription("s").unwrap().refreshes, 1);
    }

    #[test]
    fn a_mapping_added_after_subscribing_reaches_the_subscription() {
        let mut net = two_peers();
        let text = "q(X) :- A.r(X)";
        net.subscribe_str("A", "s", text).unwrap();
        let rule = "m(X) :- B.r(X) ==> m(X) :- A.r(X)";
        net.add_mapping(GlavMapping::parse("ba", "B", "A", rule).unwrap());
        net.sync_subscriptions();
        assert_matches_query(&net, "s", "A", text);
        assert_eq!(net.subscription("s").unwrap().answers().len(), 2);
        // The re-seeded circuits follow later publishes to the new source.
        let gram = Updategram::inserts("B.r", vec![vec![Value::str("late")]]);
        assert_eq!(net.publish(&gram).unwrap().refreshed, ["s"]);
        assert_matches_query(&net, "s", "A", text);
        assert_eq!(net.subscription("s").unwrap().answers().len(), 3);
    }

    #[test]
    fn catalogs_track_only_while_someone_subscribes() {
        let mut net = two_peers();
        let tracking = |net: &PdmsNetwork| {
            net.peer("A").unwrap().storage.write(|c| {
                c.insert("A.r", vec![Value::str("probe")]);
                !c.take_changes().is_empty()
            })
        };
        assert!(!tracking(&net));
        net.subscribe_str("A", "s", "q(X) :- A.r(X)").unwrap();
        assert!(tracking(&net));
        net.unsubscribe("s");
        assert!(!tracking(&net));
    }
}
