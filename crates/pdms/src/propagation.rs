//! Updategram propagation across peer mappings (§3.1.2, \[36\]).
//!
//! "Propagation of updates is also a major challenge in a PDMS: we would
//! prefer to make incremental updates versus simply invalidating views and
//! re-reading data. Piazza treats updates as first-class citizens ... in
//! the form of 'updategrams' \[36\]. Updategrams on base data can be
//! combined to create updategrams for views."
//!
//! A change crosses a mapping as an updategram on the mapping's virtual
//! relation `m`: a [`MaterializedView`] over the mapping's GAV rule at the
//! source side turns each base gram into the set-level diff its circuit
//! reports ([`MaterializedView::apply_gram`]), and that diff is what ships
//! to the target side. The network's continuous queries
//! ([`crate::PdmsNetwork::subscribe_str`]) are the maintained path: each
//! subscription is one view over the query's reformulation across the
//! mapping graph, refreshed by every published delta it touches. This
//! module owns what happens to a shipped gram on the wire.
//!
//! # At-least-once shipping
//!
//! On a real network the shipped gram can be dropped, answered with a
//! transient error, or delivered twice. [`ReliableLink`] retries under a
//! [`RetryPolicy`] against a seeded [`FaultPlan`] (at-least-once), and the
//! receiver-side [`GramInbox`] deduplicates by gram id before applying
//! ([`apply_once`]) — so a dropped *or* duplicated delivery leaves the
//! remote cache exactly where a single clean delivery would. Either way
//! the cache's view is pushed the [`revere_storage::ZSetBatch`] its
//! catalog signs for the gram, live or replayed from the journal.

use crate::updategram::{SequencedGram, Updategram};
use crate::views::MaterializedView;
use revere_query::eval::EvalError;
use revere_storage::wal::{Journal, Lsn, WalRecord};
use revere_storage::{Catalog, ZSetBatch};
use revere_util::fault::{Fate, FaultPlan, RetryPolicy};
use revere_util::obs::{names, Obs};
use std::collections::{BTreeMap, BTreeSet};

/// Receiver-side dedup ledger: which gram ids this cache has already
/// applied. Makes delivery idempotent, so senders are free to re-deliver.
///
/// # Bounded memory
///
/// Link ids are assigned consecutively by [`ReliableLink::seal`], so the
/// ledger self-compacts: all ids below `watermark` are seen, and only the
/// (small, transient) set of out-of-order ids above it is stored. After N
/// in-order ship rounds the inbox holds a single integer, not N entries.
///
/// # Durability
///
/// An inbox built with [`GramInbox::durable`] carries the peer's
/// [`Journal`] and its link identity; [`apply_once`] then journals an
/// atomic [`WalRecord::DeltaApplied`] *before* applying, so a crash after
/// the apply replays it and a re-delivery after recovery is deduplicated
/// — exactly-once across restarts.
#[derive(Debug, Default)]
pub struct GramInbox {
    /// All ids strictly below this are seen (the compacted prefix).
    watermark: u64,
    /// Seen ids at or above the watermark (out-of-order arrivals).
    above: BTreeSet<u64>,
    /// Deliveries ignored because their id had already been applied.
    pub duplicates_ignored: usize,
    /// Durable identity: (link name, journal) when restart-safe.
    durability: Option<(String, Journal)>,
}

impl GramInbox {
    /// An empty, in-memory-only inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty inbox whose applications are journaled under `link` (use
    /// one stable name per incoming link, e.g. the source peer's name).
    pub fn durable(link: impl Into<String>, journal: Journal) -> Self {
        GramInbox { durability: Some((link.into(), journal)), ..Self::default() }
    }

    /// Rebuild an inbox from recovered state (crate-internal: used by
    /// [`crate::durable::recover`]).
    pub(crate) fn restore(
        watermark: u64,
        above: BTreeSet<u64>,
        duplicates_ignored: usize,
        durability: Option<(String, Journal)>,
    ) -> Self {
        GramInbox { watermark, above, duplicates_ignored, durability }
    }

    /// True when `id` was already accepted.
    pub fn is_seen(&self, id: u64) -> bool {
        id < self.watermark || self.above.contains(&id)
    }

    /// Record `id`; returns `true` exactly the first time it is seen.
    pub fn accept(&mut self, id: u64) -> bool {
        if self.is_seen(id) {
            self.duplicates_ignored += 1;
            return false;
        }
        self.above.insert(id);
        // Compact: swallow the contiguous run into the watermark.
        while self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
        true
    }

    /// Distinct gram ids applied so far: every id below the watermark
    /// and each one stored above it.
    pub fn applied_count(&self) -> usize {
        self.watermark as usize + self.above.len()
    }

    /// The compaction watermark: every id below it is seen.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// How many ids the ledger currently stores explicitly — the memory
    /// bound the compaction maintains (0 once delivery catches up).
    pub fn tracked_ids(&self) -> usize {
        self.above.len()
    }

    /// Out-of-order seen ids at or above the watermark (for snapshots).
    pub(crate) fn above(&self) -> &BTreeSet<u64> {
        &self.above
    }

    /// The durable link identity, if any.
    pub fn link(&self) -> Option<&str> {
        self.durability.as_ref().map(|(l, _)| l.as_str())
    }
}

/// Apply a sequenced gram to a target-side cache **exactly once**: a gram
/// id the inbox has already seen is a no-op (`Ok(false)`). First-time
/// grams are applied to the catalog, and the batch it signs is pushed
/// through the cached view's circuits ([`MaterializedView::push`]); no
/// set-level diff is built, since the receiver ships nothing on. A gram
/// carrying a row of the wrong arity is refused (`Err`) before anything
/// is journaled, written or accepted.
///
/// For a durable inbox the gram is journaled as one atomic
/// [`WalRecord::DeltaApplied`] *before* applying, and applied as recovery
/// will apply it: by replaying that record ([`Catalog::replay`]), with
/// the catalog's own journal suspended so the deltas are not journaled
/// twice (replaying both the `DeltaApplied` and per-row records would
/// double-apply).
pub fn apply_once(
    inbox: &mut GramInbox,
    catalog: &mut Catalog,
    view: &mut MaterializedView,
    gram: &SequencedGram,
) -> Result<bool, EvalError> {
    if inbox.is_seen(gram.id) {
        inbox.duplicates_ignored += 1;
        return Ok(false);
    }
    gram.gram.check_arity(catalog)?;
    if let Some((link, journal)) = &inbox.durability {
        let rec = WalRecord::DeltaApplied {
            link: link.clone(),
            id: gram.id,
            relation: gram.gram.relation.clone(),
            insert: gram.gram.insert.clone(),
            delete: gram.gram.delete.clone(),
        };
        journal.append(&rec);
        view.push(&ZSetBatch::from(&catalog.replay(&rec)));
    } else {
        let change = catalog.apply(&gram.gram.relation, &gram.gram.delete, &gram.gram.insert)?;
        view.push(&ZSetBatch::from(&change));
    }
    let accepted = inbox.accept(gram.id);
    debug_assert!(accepted);
    Ok(true)
}

/// Delivery accounting for one [`ReliableLink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Grams handed to the link.
    pub shipped: usize,
    /// Grams whose delivery was acknowledged within the retry budget.
    pub delivered: usize,
    /// Grams still unacknowledged after the retry budget (re-ship later).
    pub unacknowledged: usize,
    /// Messages sent (requests + responses, including lost ones).
    pub messages: usize,
    /// Send attempts beyond each first try.
    pub retries: usize,
    /// Requests lost in flight.
    pub dropped: usize,
    /// Extra copies the network delivered (then deduped by the inbox).
    pub duplicated: usize,
}

/// Result of one [`ReliableLink::ship`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The gram's id on this link.
    pub id: u64,
    /// True when an acknowledgement came back (the sender may stop).
    pub acknowledged: bool,
    /// True when the receiver applied the gram this round (false for
    /// pure duplicates of an earlier round).
    pub applied: bool,
}

/// Sender side of at-least-once updategram shipping over a faulty
/// channel: retries each gram until acknowledged or the retry budget is
/// spent, and leans on the receiver's [`GramInbox`] to make the inevitable
/// duplicates harmless.
#[derive(Debug)]
pub struct ReliableLink {
    /// The network weather this link ships through.
    pub plan: FaultPlan,
    /// Retry budget per [`ReliableLink::ship`] call.
    pub retry: RetryPolicy,
    /// Name of the receiving peer (keys the fault plan).
    pub target: String,
    /// Delivery accounting.
    pub stats: LinkStats,
    /// Observability handle: one `pdms.ship` span per [`ReliableLink::ship`]
    /// round plus `pdms.ship.*` counters when enabled (default disabled).
    /// Enabling it never changes delivery behavior.
    pub obs: Obs,
    next_id: u64,
    epoch: u64,
    /// Sender-side journal: seals and acks are logged so unacknowledged
    /// grams survive a sender restart. `None` for in-memory links.
    journal: Option<Journal>,
    /// Sealed-but-unacknowledged grams: id → LSN of the seal record. The
    /// minimum LSN here is the link's truncation floor (an unacked gram's
    /// seal record must survive checkpoints; it is the only copy).
    unacked: BTreeMap<u64, Lsn>,
}

impl ReliableLink {
    /// A link to `target` under `plan`, with the default retry policy.
    pub fn new(target: impl Into<String>, plan: FaultPlan) -> Self {
        ReliableLink {
            plan,
            retry: RetryPolicy::default(),
            target: target.into(),
            stats: LinkStats::default(),
            obs: Obs::disabled(),
            next_id: 0,
            epoch: 0,
            journal: None,
            unacked: BTreeMap::new(),
        }
    }

    /// A restart-safe link: every seal and ack is journaled, so the
    /// sender recovers its unacknowledged grams after a crash.
    pub fn durable(target: impl Into<String>, plan: FaultPlan, journal: Journal) -> Self {
        ReliableLink { journal: Some(journal), ..Self::new(target, plan) }
    }

    /// Rebuild a link from recovered outbox state (crate-internal: used
    /// by [`crate::durable::recover`] consumers). Does not re-journal.
    pub(crate) fn restore(
        target: impl Into<String>,
        plan: FaultPlan,
        journal: Journal,
        next_id: u64,
        unacked: BTreeMap<u64, Lsn>,
    ) -> Self {
        ReliableLink { journal: Some(journal), next_id, unacked, ..Self::new(target, plan) }
    }

    /// Stamp a gram with this link's next delivery id. Sealing is
    /// separate from shipping so an unacknowledged gram can be re-shipped
    /// *under the same id* — the at-least-once contract. On a durable
    /// link the seal is journaled before it is handed back: a sealed gram
    /// is *owed* to the target until acknowledged, even across a crash.
    pub fn seal(&mut self, gram: Updategram) -> SequencedGram {
        let id = self.next_id;
        self.next_id += 1;
        if let Some(j) = &self.journal {
            let lsn = j.append(&WalRecord::DeltaSealed {
                link: self.target.clone(),
                id,
                relation: gram.relation.clone(),
                insert: gram.insert.clone(),
                delete: gram.delete.clone(),
            });
            self.unacked.insert(id, lsn);
        }
        gram.sequenced(id)
    }

    /// The smallest LSN this link still needs retained in the log (the
    /// oldest unacknowledged seal record). `None` when fully acknowledged.
    pub fn truncation_floor(&self) -> Option<Lsn> {
        self.unacked.values().min().copied()
    }

    /// The id the next [`ReliableLink::seal`] will assign (checkpointed
    /// so a restarted sender never reuses a delivery id).
    pub fn next_seal_id(&self) -> u64 {
        self.next_id
    }

    /// Ship one sealed gram: up to `retry.attempts()` sends, each with an
    /// independently drawn fate. A `Flaky` fate models a lost
    /// acknowledgement — the receiver applies, the sender keeps retrying,
    /// and the duplicate is absorbed by the inbox. Returns whether an ack
    /// arrived; call again with the same gram to keep trying.
    pub fn ship(
        &mut self,
        gram: &SequencedGram,
        inbox: &mut GramInbox,
        catalog: &mut Catalog,
        view: &mut MaterializedView,
    ) -> Result<Delivery, EvalError> {
        self.stats.shipped += 1;
        self.epoch += 1;
        let key = format!("gram:{}:epoch:{}", gram.id, self.epoch);
        let span = self.obs.span("pdms.ship");
        if span.is_recording() {
            span.set("gram", gram.id.to_string());
            span.set("target", self.target.clone());
        }
        // Baselines so the span reports this round's cost, not lifetime
        // totals (the `LinkStats` fields are cumulative).
        let (messages0, dropped0, retries0, duplicated0) = (
            self.stats.messages,
            self.stats.dropped,
            self.stats.retries,
            self.stats.duplicated,
        );
        let mut attempts_used: u32 = 0;
        let mut applied = false;
        let mut acknowledged = false;
        for attempt in 0..self.retry.attempts() {
            attempts_used += 1;
            if attempt > 0 {
                self.stats.retries += 1;
            }
            if self.plan.is_down(&self.target) {
                self.stats.messages += 1;
                self.stats.dropped += 1;
                continue;
            }
            match self.plan.fate(&self.target, &key, attempt) {
                Fate::Dropped => {
                    self.stats.messages += 1;
                    self.stats.dropped += 1;
                }
                Fate::Flaky => {
                    // Delivered, but the ack is lost: the receiver applies
                    // (idempotently), the sender cannot tell and retries.
                    self.stats.messages += 2;
                    if apply_once(inbox, catalog, view, gram)? {
                        applied = true;
                    } else {
                        self.stats.duplicated += 1;
                    }
                }
                Fate::Delivered { .. } => {
                    self.stats.messages += 2;
                    if apply_once(inbox, catalog, view, gram)? {
                        applied = true;
                    } else {
                        self.stats.duplicated += 1;
                    }
                    if self.plan.duplicates(&self.target, &key) {
                        // The network hiccups a second copy; the inbox
                        // swallows it.
                        self.stats.messages += 1;
                        self.stats.duplicated += 1;
                        apply_once(inbox, catalog, view, gram)?;
                    }
                    acknowledged = true;
                    break;
                }
            }
        }
        if acknowledged {
            self.stats.delivered += 1;
            // Journal the ack (once): the seal record becomes truncatable
            // at the next checkpoint.
            if self.journal.is_some() && self.unacked.remove(&gram.id).is_some() {
                if let Some(j) = &self.journal {
                    j.append(&WalRecord::DeltaAcked {
                        link: self.target.clone(),
                        id: gram.id,
                    });
                }
            }
        } else {
            self.stats.unacknowledged += 1;
        }
        if span.is_recording() {
            span.set("attempts", attempts_used.to_string());
            span.set("messages", (self.stats.messages - messages0).to_string());
            span.set("dropped", (self.stats.dropped - dropped0).to_string());
            span.set("retries", (self.stats.retries - retries0).to_string());
            span.set("duplicated", (self.stats.duplicated - duplicated0).to_string());
            span.set("acknowledged", acknowledged.to_string());
            span.set("applied", applied.to_string());
        }
        self.obs.inc(names::PDMS_SHIP_MESSAGES_SENT, (self.stats.messages - messages0) as u64);
        self.obs.inc(names::PDMS_SHIP_MESSAGES_DROPPED, (self.stats.dropped - dropped0) as u64);
        self.obs.inc(names::PDMS_SHIP_RETRIES_SPENT, (self.stats.retries - retries0) as u64);
        self.obs.inc(names::PDMS_SHIP_MESSAGES_DUPLICATED, (self.stats.duplicated - duplicated0) as u64);
        self.obs.observe(names::PDMS_SHIP_ATTEMPTS_SPENT, attempts_used as u64);
        Ok(Delivery { id: gram.id, acknowledged, applied })
    }

    // Named by `crates/e2e/src/surface.rs`; delete with the next
    // `benchmark` issue.
    #[doc(hidden)]
    pub fn ship_dataflow(
        &mut self,
        gram: &SequencedGram,
        inbox: &mut GramInbox,
        catalog: &mut Catalog,
        view: &mut MaterializedView,
    ) -> Result<Delivery, EvalError> {
        self.ship(gram, inbox, catalog, view)
    }

    /// Ship and keep re-shipping (fresh fate draws each round) until
    /// acknowledged or `max_rounds` is exhausted. At-least-once: under any
    /// plan with a nonzero delivery probability this converges.
    pub fn ship_until_acknowledged(
        &mut self,
        gram: &SequencedGram,
        inbox: &mut GramInbox,
        catalog: &mut Catalog,
        view: &mut MaterializedView,
        max_rounds: u32,
    ) -> Result<Delivery, EvalError> {
        let mut last = Delivery { id: gram.id, acknowledged: false, applied: false };
        for _ in 0..max_rounds.max(1) {
            let d = self.ship(gram, inbox, catalog, view)?;
            last.applied |= d.applied;
            last.acknowledged = d.acknowledged;
            if d.acknowledged {
                break;
            }
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updategram::maintain;
    use revere_query::glav::GlavMapping;
    use revere_query::{parse_query, ConjunctiveQuery};
    use revere_storage::{RelSchema, Relation, Value};

    /// Berkeley's course data: the GAV rule joins course and teaches.
    fn source() -> Catalog {
        let mut course = Relation::new(RelSchema::text("B.course", &["id", "title"]));
        course.insert(vec!["c1".into(), "Databases".into()]);
        course.insert(vec!["c2".into(), "Rome".into()]);
        let mut teaches = Relation::new(RelSchema::text("B.teaches", &["prof", "id"]));
        teaches.insert(vec!["ada".into(), "c1".into()]);
        teaches.insert(vec!["bob".into(), "c2".into()]);
        let mut cat = Catalog::new();
        cat.register(course);
        cat.register(teaches);
        cat
    }

    fn mapping() -> GlavMapping {
        GlavMapping::parse(
            "m_bm",
            "B",
            "M",
            "m(T, P) :- B.course(C, T), B.teaches(P, C) ==> m(T, P) :- M.offering(T, P)",
        )
        .unwrap()
    }

    /// The mapping's virtual relation `m_bm`, materialized at the source
    /// through the mapping's GAV rule.
    fn virtual_view(source: &Catalog) -> MaterializedView {
        let m = mapping();
        let gav = m.gav_rule();
        MaterializedView::new(m.name, ConjunctiveQuery::new(gav.head, gav.body), source).unwrap()
    }

    /// Apply a base gram at the source and return the gram it induces on
    /// the virtual relation (empty when the change is invisible through
    /// the mapping).
    fn virtual_gram(
        view: &mut MaterializedView,
        source: &mut Catalog,
        gram: &Updategram,
    ) -> Updategram {
        let (insert, delete) = view.apply_gram(source, gram).unwrap();
        Updategram { relation: view.name.clone(), insert, delete }
    }

    #[test]
    fn insert_propagates_as_virtual_insert() {
        let mut cat = source();
        let mut p = virtual_view(&cat);
        assert_eq!(p.as_relation().len(), 2);
        // A new course + its teacher arrive at Berkeley.
        let grams = [
            Updategram::inserts("B.course", vec![vec!["c3".into(), "Greece".into()]]),
            Updategram::inserts("B.teaches", vec![vec!["eve".into(), "c3".into()]]),
        ];
        let out1 = virtual_gram(&mut p, &mut cat, &grams[0]);
        // Course without teacher: nothing visible through the join yet.
        assert!(out1.insert.is_empty() && out1.delete.is_empty());
        let out2 = virtual_gram(&mut p, &mut cat, &grams[1]);
        assert_eq!(out2.relation, "m_bm");
        assert_eq!(out2.insert, vec![vec![Value::str("Greece"), Value::str("eve")]]);
        assert!(out2.delete.is_empty());
        assert_eq!(p.as_relation().len(), 3);
    }

    #[test]
    fn delete_propagates_as_virtual_delete() {
        let mut cat = source();
        let mut p = virtual_view(&cat);
        let gram = Updategram::deletes("B.teaches", vec![vec!["bob".into(), "c2".into()]]);
        let out = virtual_gram(&mut p, &mut cat, &gram);
        assert_eq!(out.delete, vec![vec![Value::str("Rome"), Value::str("bob")]]);
        assert!(out.insert.is_empty());
        assert_eq!(p.as_relation().len(), 1);
    }

    #[test]
    fn redundant_derivations_do_not_leak() {
        // Two teachers for one course: deleting one keeps the (title, prof)
        // pair for the other but only removes that teacher's pair.
        let mut cat = source();
        cat.insert("B.teaches", vec!["carol".into(), "c1".into()]);
        let mut p = virtual_view(&cat);
        assert_eq!(p.as_relation().len(), 3);
        let gram = Updategram::deletes("B.teaches", vec![vec!["carol".into(), "c1".into()]]);
        let out = virtual_gram(&mut p, &mut cat, &gram);
        assert_eq!(out.delete, vec![vec![Value::str("Databases"), Value::str("carol")]]);
        // Ada's pair survives.
        assert!(p
            .as_relation()
            .contains(&vec![Value::str("Databases"), Value::str("ada")]));
    }

    #[test]
    fn propagated_gram_maintains_a_remote_cache() {
        // The full [36] pipeline: source update → virtual updategram →
        // incremental maintenance of a remote cached copy.
        let mut source_cat = source();
        let mut p = virtual_view(&source_cat);

        // Remote (target-side) cache of the virtual relation.
        let mut remote_cat = Catalog::new();
        remote_cat.register(p.as_relation());
        let mut remote_view = MaterializedView::new(
            "cache",
            parse_query("cache(T) :- m_bm(T, P)").unwrap(),
            &remote_cat,
        )
        .unwrap();
        assert_eq!(remote_view.len(), 2);

        // Source-side change.
        let gram = Updategram {
            relation: "B.course".into(),
            insert: vec![],
            delete: vec![vec!["c1".into(), "Databases".into()]],
        };
        let virtual_gram = virtual_gram(&mut p, &mut source_cat, &gram);
        assert_eq!(virtual_gram.delete.len(), 1);

        // Ship it and maintain the remote cache incrementally.
        maintain(
            &mut remote_cat,
            &mut remote_view,
            std::slice::from_ref(&virtual_gram),
            Some(crate::updategram::MaintenanceChoice::Incremental),
        )
        .unwrap();
        assert_eq!(remote_view.len(), 1);
        assert!(remote_view
            .as_relation()
            .contains(&vec![Value::str("Rome")]));
    }

    /// Target-side cache of the virtual relation, as in the [36] pipeline.
    fn remote_cache(p: &MaterializedView) -> (Catalog, MaterializedView) {
        let mut remote_cat = Catalog::new();
        remote_cat.register(p.as_relation());
        let remote_view = MaterializedView::new(
            "cache",
            parse_query("cache(T, P) :- m_bm(T, P)").unwrap(),
            &remote_cat,
        )
        .unwrap();
        (remote_cat, remote_view)
    }

    #[test]
    fn duplicated_delivery_applies_exactly_once() {
        let mut cat = source();
        let mut p = virtual_view(&cat);
        let (mut remote_cat, mut remote_view) = remote_cache(&p);
        assert_eq!(remote_view.len(), 2);

        // New course + teacher at the source: the second base gram makes
        // one row visible through the mapping's join.
        virtual_gram(&mut p, &mut cat, &Updategram::inserts("B.course", vec![vec!["c3".into(), "Greece".into()]]));
        let virtual_gram = virtual_gram(&mut p, &mut cat, &Updategram::inserts("B.teaches", vec![vec!["eve".into(), "c3".into()]]));
        assert_eq!(virtual_gram.insert.len(), 1);
        let mut link = ReliableLink::new("M", FaultPlan::zero());
        let mut inbox = GramInbox::new();
        let sealed = link.seal(virtual_gram);

        // Deliver the SAME sealed gram twice: second copy is a no-op.
        let first = link.ship(&sealed, &mut inbox, &mut remote_cat, &mut remote_view).unwrap();
        let second = link.ship(&sealed, &mut inbox, &mut remote_cat, &mut remote_view).unwrap();
        assert!(first.acknowledged && first.applied);
        assert!(second.acknowledged && !second.applied);
        assert_eq!(inbox.duplicates_ignored, 1);
        assert_eq!(inbox.applied_count(), 1);
        assert_eq!(link.stats.duplicated, 1);
        // Cache state is what ONE application produces.
        let fresh =
            MaterializedView::new("chk", remote_view.definition.clone(), &remote_cat).unwrap();
        assert_eq!(remote_view.as_relation().rows(), fresh.as_relation().rows());
    }

    #[test]
    fn lossy_link_converges_to_the_clean_state() {
        // Ship every virtual gram over a very lossy, duplicating link; the
        // remote cache must end up exactly where clean delivery ends up.
        let mut cat = source();
        let mut p = virtual_view(&cat);
        let (mut remote_cat, mut remote_view) = remote_cache(&p);

        let plan = FaultPlan::new(revere_util::fault::FaultSpec {
            seed: 1003,
            drop_prob: 0.5,
            flaky_prob: 0.3,
            duplicate_prob: 0.5,
            ..Default::default()
        });
        let mut link = ReliableLink::new("M", plan);
        let mut inbox = GramInbox::new();

        let base_grams = [
            Updategram::inserts("B.course", vec![vec!["c3".into(), "Greece".into()]]),
            Updategram::inserts("B.teaches", vec![vec!["eve".into(), "c3".into()]]),
            Updategram::deletes("B.teaches", vec![vec!["bob".into(), "c2".into()]]),
        ];
        for g in base_grams {
            let virtual_gram = virtual_gram(&mut p, &mut cat, &g);
            let sealed = link.seal(virtual_gram);
            let d = link
                .ship_until_acknowledged(&sealed, &mut inbox, &mut remote_cat, &mut remote_view, 64)
                .unwrap();
            assert!(d.acknowledged, "lossy link failed to deliver in 64 rounds");
        }
        // Converged: remote cache == current virtual extension.
        let mut want = Catalog::new();
        want.register(p.as_relation());
        let fresh = MaterializedView::new("chk", remote_view.definition.clone(), &want).unwrap();
        assert_eq!(remote_view.as_relation().rows(), fresh.as_relation().rows());
        // The weather actually did something, and we rode it out.
        assert!(link.stats.dropped > 0 || link.stats.duplicated > 0, "{:?}", link.stats);
        assert_eq!(link.stats.delivered, 3);
    }

    #[test]
    fn link_replay_is_deterministic_per_seed() {
        let run = || {
            let mut cat = source();
            let mut p = virtual_view(&cat);
            let (mut remote_cat, mut remote_view) = remote_cache(&p);
            let plan = FaultPlan::new(revere_util::fault::FaultSpec {
                seed: 7,
                drop_prob: 0.4,
                duplicate_prob: 0.4,
                ..Default::default()
            });
            let mut link = ReliableLink::new("M", plan);
            let mut inbox = GramInbox::new();
            let vg = virtual_gram(&mut p, &mut cat, &Updategram::deletes("B.teaches", vec![vec!["bob".into(), "c2".into()]]));
            let sealed = link.seal(vg);
            link.ship_until_acknowledged(&sealed, &mut inbox, &mut remote_cat, &mut remote_view, 32)
                .unwrap();
            (link.stats.clone(), remote_view.as_relation().rows().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn instrumented_link_ships_identically_and_records_spans() {
        let run = |obs: Obs| {
            let mut cat = source();
            let mut p = virtual_view(&cat);
            let (mut remote_cat, mut remote_view) = remote_cache(&p);
            let plan = FaultPlan::new(revere_util::fault::FaultSpec {
                seed: 7,
                drop_prob: 0.4,
                duplicate_prob: 0.4,
                ..Default::default()
            });
            let mut link = ReliableLink::new("M", plan);
            link.obs = obs;
            let mut inbox = GramInbox::new();
            let vg = virtual_gram(&mut p, &mut cat, &Updategram::deletes("B.teaches", vec![vec!["bob".into(), "c2".into()]]));
            let sealed = link.seal(vg);
            link.ship_until_acknowledged(&sealed, &mut inbox, &mut remote_cat, &mut remote_view, 32)
                .unwrap();
            (link.stats.clone(), remote_view.as_relation().rows().to_vec())
        };
        let plain = run(Obs::disabled());
        let obs = Obs::enabled();
        let traced = run(obs.clone());
        // The contract: observability never changes delivery behavior.
        assert_eq!(plain, traced);

        let spans = obs.tracer().unwrap().spans();
        assert!(!spans.is_empty(), "no pdms.ship spans recorded");
        assert!(spans.iter().all(|s| s.name == "pdms.ship"));
        // Per-round message accounting in span args sums to the link total.
        let messages: usize = spans
            .iter()
            .map(|s| s.arg("messages").unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(messages, traced.0.messages);
        let last = spans.last().unwrap();
        assert_eq!(last.arg("acknowledged").as_deref(), Some("true"));
        assert_eq!(last.arg("target").as_deref(), Some("M"));
        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.counter(names::PDMS_SHIP_MESSAGES_SENT), traced.0.messages as u64);
        assert_eq!(metrics.counter(names::PDMS_SHIP_MESSAGES_DROPPED), traced.0.dropped as u64);
    }
}
