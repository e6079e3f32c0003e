//! How changes reach continuous queries.

use super::{PdmsError, PdmsNetwork};
use crate::peer::split_qualified;
use crate::updategram::{add_change, apply_gram, Updategram};
use crate::views::MaterializedView;
use revere_query::dataflow::DeltaBatch;
use revere_query::eval::EvalError;
use revere_query::{parse_query, ConjunctiveQuery};
use revere_storage::{Catalog, Lsn, Relation};
use revere_util::obs::SpanHandle;
use std::collections::{BTreeMap, BTreeSet};

/// A continuous query registered at a peer ([`PdmsNetwork::subscribe_str`]):
/// a [`MaterializedView`] of the query's reformulation over the mapping
/// graph, plus where it was asked and what publishing has done to it.
/// Published updategrams re-fire only subscriptions whose base relations
/// the delta touches; everything else is a counted no-op.
#[derive(Debug)]
pub struct Subscription {
    /// The peer the continuous query was posed at.
    pub at_peer: String,
    /// The maintained answer; named after the subscription (unique per
    /// network), defined by the query as posed in that peer's vocabulary.
    pub view: MaterializedView,
    /// Disjuncts in the reformulated union; those the network could not
    /// evaluate at subscribe time (unreachable base relations) are not in
    /// the view.
    pub disjuncts_total: usize,
    /// Times a published delta incrementally refreshed this subscription.
    pub refreshes: usize,
    /// Published deltas that touched none of this subscription's base
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

/// A network's continuous queries and the state they are maintained
/// against, which [`PdmsNetwork::publish`] and
/// [`PdmsNetwork::sync_durable_subscriptions`] move in lockstep.
#[derive(Debug, Default)]
pub(super) struct Subscriptions {
    /// Continuous queries registered via [`PdmsNetwork::subscribe_str`].
    by_name: BTreeMap<String, Subscription>,
    /// The merged base snapshot the subscription circuits were
    /// initialized against. Built lazily at the first subscribe; `None`
    /// until then.
    base: Option<Catalog>,
    /// Per-durable-peer journal positions already absorbed into `base`
    /// (WAL change-data capture for mutations that bypass
    /// [`PdmsNetwork::publish`]).
    wal_cursors: BTreeMap<String, Lsn>,
}

impl Subscriptions {
    /// Forget a departed peer's journal position.
    pub(super) fn forget_cursor(&mut self, peer: &str) {
        self.wal_cursors.remove(peer);
    }
}

impl PdmsNetwork {
    /// The durable-subscription sync cursor for `name`: journaled records
    /// with `lsn < cursor` have been absorbed into the subscription base
    /// (see [`PdmsNetwork::sync_durable_subscriptions`]). `None` until
    /// the peer has a cursor. The health monitor reads
    /// `journal.next_lsn() - cursor` as the inbox watermark lag.
    pub fn wal_cursor(&self, name: &str) -> Option<Lsn> {
        self.subs.wal_cursors.get(name).copied()
    }

    /// Build the mirrored base snapshot on first use, and start every
    /// durable peer's WAL cursor at its current tail (the snapshot
    /// already contains everything journaled so far).
    fn ensure_subs_base(&mut self) {
        if self.subs.base.is_some() {
            return;
        }
        self.subs.base = Some(self.snapshot_all());
        for (name, disk) in &self.disks {
            self.subs.wal_cursors.insert(name.clone(), disk.journal().next_lsn());
        }
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
        // Absorb pending durable-peer mutations first, so the circuits
        // initialize against the same state later deltas are signed from.
        self.sync_durable_subscriptions();
        self.ensure_subs_base();
        let (reformulation, _) = self.reformulate_cached(&q, &SpanHandle::none());
        let base = self.subs.base.as_ref().expect("ensured above");
        let sub = Subscription {
            at_peer: at_peer.to_string(),
            view: MaterializedView::union(name, q, &reformulation.union.disjuncts, base),
            disjuncts_total: reformulation.union.disjuncts.len(),
            refreshes: 0,
            skipped: 0,
        };
        self.subs.by_name.insert(name.to_string(), sub);
        Ok(self.subs.by_name.get(name).expect("just inserted"))
    }

    /// Remove a subscription, returning its final state.
    pub fn unsubscribe(&mut self, name: &str) -> Option<Subscription> {
        self.subs.by_name.remove(name)
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
    /// resulting delta through every affected subscription. The gram is
    /// applied to the owner's catalog and to the mirrored base, and the
    /// signed rows the base's apply reports (a delete retracts every
    /// stored copy of a row, duplicate inserts each count) re-fire *only*
    /// subscriptions whose base relations they touch — everyone else pays
    /// one set lookup. Errors when the relation is unqualified, its owner
    /// is not a member, or the owner does not store it; a row of the
    /// wrong arity is refused ([`PdmsError::Eval`]) before the owner
    /// journals or writes anything.
    pub fn publish(&mut self, gram: &Updategram) -> Result<PublishReport, PdmsError> {
        let Some((owner, _)) = split_qualified(&gram.relation) else {
            return Err(PdmsError::Unqualified(gram.relation.clone()));
        };
        if !self.member(owner)?.storage.read(|c| c.get(&gram.relation).is_some()) {
            return Err(PdmsError::NotStored { peer: owner.into(), relation: gram.relation.clone() });
        }
        let owner = owner.to_string();
        // Catch up on out-of-band durable-peer mutations so this gram's
        // deltas are signed against the state subscribers actually hold.
        self.sync_durable_subscriptions();
        self.ensure_subs_base();
        self.peers
            .get(&owner)
            .expect("membership checked above")
            .storage
            .write(|c| c.apply(&gram.relation, &gram.delete, &gram.insert).map(drop))
            .map_err(EvalError::from)?;
        // The application above may itself have journaled records on a
        // durable owner; advance the cursor past them — their effect is
        // exactly the batch the base's apply reports, pushed below.
        if let Some(disk) = self.disks.get(&owner) {
            self.subs.wal_cursors.insert(owner.clone(), disk.journal().next_lsn());
        }
        let batch = apply_gram(self.subs.base.as_mut().expect("ensured above"), gram)?;
        Ok(refire(&mut self.subs.by_name, &batch))
    }

    /// Absorb durable peers' journal suffixes into the subscription layer:
    /// mutations made *directly* on a durable peer's catalog (bypassing
    /// [`PdmsNetwork::publish`]) are recovered from its WAL via per-peer
    /// LSN cursors, replayed into the mirrored base, and the signed rows
    /// each replay reports ([`Catalog::replay`]) are pushed through
    /// affected subscriptions. Returns the number of distinct changed rows
    /// absorbed. No-op (0) before the first subscription.
    pub fn sync_durable_subscriptions(&mut self) -> usize {
        let Subscriptions { by_name, base: Some(base), wal_cursors } = &mut self.subs else {
            return 0;
        };
        let mut changed = 0;
        for (name, disk) in &self.disks {
            let journal = disk.journal();
            let cursor = wal_cursors.get(name).copied().unwrap_or(0);
            let records = journal.records_from(cursor);
            wal_cursors.insert(name.clone(), journal.next_lsn());
            let mut batch = DeltaBatch::new();
            for (_, rec) in &records {
                add_change(&mut batch, &base.replay(rec));
            }
            if !batch.is_empty() {
                changed += batch.len();
                refire(by_name, &batch);
            }
        }
        changed
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

/// Push one signed batch through every affected subscription.
fn refire(subs: &mut BTreeMap<String, Subscription>, batch: &DeltaBatch) -> PublishReport {
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
