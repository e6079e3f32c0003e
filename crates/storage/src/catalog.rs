//! Named collections of relations.
//!
//! A [`Catalog`] is the local database of one Piazza peer (its "stored
//! relations", §3.1) or of one MANGROVE installation. [`SharedCatalog`]
//! wraps it for concurrent access from the simulated peer network.
//!
//! # Lock-poisoning policy
//!
//! [`SharedCatalog`] uses `std::sync::RwLock` (this workspace builds with
//! zero external dependencies). Unlike the `parking_lot` lock it replaced,
//! the std lock poisons when a holder panics. We **recover** the guard via
//! [`std::sync::PoisonError::into_inner`] rather than propagating the
//! panic, deliberately matching the previous `parking_lot` semantics
//! (which never poisoned): a peer thread that panics mid-query must not
//! take the whole simulated network down with it — peers "can join or
//! leave at will" (§3.1), and the surviving peers keep answering. The data
//! stays structurally sound because every write path is a single
//! `BTreeMap`/`Vec` operation that upholds the catalog's invariants even
//! if a *caller's* closure panics partway through a multi-step update; a
//! torn multi-step update is then visible, which the simulation accepts
//! in exchange for availability.

use crate::relation::Relation;
use crate::schema::{DbSchema, RelSchema};
use crate::stats::{JoinStats, RelStats};
use crate::value::Value;
use crate::wal::{Journal, WalRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// A named collection of relations.
///
/// The catalog also owns the planner-facing metadata for its relations:
/// incremental [`RelStats`] per relation (see [`crate::stats`]) and a
/// *stats epoch*, a counter bumped on every mutation. Plan caches stamp
/// each entry with the epoch, so a cached plan can never outlive the
/// statistics it was costed against.
///
/// Relations share their rows and what is derived from them (see
/// [`Relation`]), so registering a clone of another catalog's relation
/// copies no tuples, takes the statistics the relation already carries,
/// and reads the same columnar image.
///
/// # Durability
///
/// A catalog may carry an attached [`Journal`]
/// ([`Catalog::attach_journal`]); every mutation is then journaled as a
/// [`WalRecord`] *before* it is applied, so the catalog can be recovered
/// after a crash via [`crate::wal::recover_catalog`] (snapshot + LSN
/// suffix replay). `Clone` deliberately does **not** carry the journal:
/// a clone is a value snapshot (staging catalogs, merged views), and
/// double-journaling through copies would corrupt the history.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Relation>,
    /// Clean statistics per relation. A relation mutated through
    /// [`Catalog::get_mut`] loses its entry (the mutation is opaque) until
    /// the next [`Catalog::analyze`] or re-registration. Shared with the
    /// relation's own memo ([`Relation::stats`]) until an insert or
    /// delete moves them on.
    stats: BTreeMap<String, Arc<RelStats>>,
    /// The last clean stats of relations dirtied via [`Catalog::get_mut`],
    /// kept so [`Catalog::analyze`] can tell a real change from a no-op
    /// round-trip and leave the epoch alone for the latter.
    dirty: BTreeMap<String, Arc<RelStats>>,
    /// Learned equijoin selectivities fed back from executed plans.
    join_stats: JoinStats,
    epoch: u64,
    /// Attached durable change log; `None` for plain in-memory catalogs.
    journal: Option<Journal>,
    /// Relations handed out via [`Catalog::get_mut`] while journaled: the
    /// mutation is opaque, so the whole relation is re-journaled as a
    /// [`WalRecord::Register`] at the next journaled operation. Until
    /// then the log is behind the in-memory state — the documented
    /// crash window of an unflushed write.
    rejournal: BTreeSet<String>,
}

impl Clone for Catalog {
    /// Value snapshot: everything but the journal (see the type docs).
    fn clone(&self) -> Self {
        Catalog {
            relations: self.relations.clone(),
            stats: self.stats.clone(),
            dirty: self.dirty.clone(),
            join_stats: self.join_stats.clone(),
            epoch: self.epoch,
            journal: None,
            rejournal: BTreeSet::new(),
        }
    }
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a durable journal: from now on every mutation is journaled
    /// before it is applied. The log receives no backfill — callers
    /// snapshot the current state first (see [`crate::wal::encode_catalog`])
    /// so recovery has a baseline.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Detach the journal (mutations stop being journaled). Used to
    /// suppress re-journaling while *replaying* history onto a catalog and
    /// while applying an updategram already captured as one atomic
    /// [`WalRecord::DeltaApplied`].
    pub fn detach_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Journal a record, first flushing any relations dirtied through
    /// [`Catalog::get_mut`] as whole-relation re-registrations (their
    /// mutations were opaque, so the full current state is the only
    /// faithful record).
    fn journal_record(&mut self, rec: WalRecord) {
        let Some(j) = self.journal.clone() else { return };
        for name in std::mem::take(&mut self.rejournal) {
            if let Some(r) = self.relations.get(&name) {
                j.append(&WalRecord::Register { relation: r.clone() });
            }
        }
        j.append(&rec);
    }

    /// Flush pending opaque-mutation re-registrations to the journal
    /// without adding a record — called before snapshotting, so the log
    /// and the image agree.
    pub fn flush_journal(&mut self) {
        let Some(j) = self.journal.clone() else { return };
        for name in std::mem::take(&mut self.rejournal) {
            if let Some(r) = self.relations.get(&name) {
                j.append(&WalRecord::Register { relation: r.clone() });
            }
        }
    }

    /// Apply one journaled record to this catalog (crash recovery). The
    /// journal is suspended for the duration: replay must not re-journal
    /// history. `DeltaSealed`/`DeltaAcked` records carry no catalog
    /// effect and are ignored (the propagation layer folds them).
    pub fn replay(&mut self, rec: &WalRecord) {
        let suspended = self.journal.take();
        match rec {
            WalRecord::Register { relation } => self.register(relation.clone()),
            WalRecord::Insert { relation, row } => {
                self.insert(relation, row.clone());
            }
            WalRecord::Delete { relation, row } => {
                self.delete(relation, row);
            }
            WalRecord::Analyze => {
                self.analyze();
            }
            WalRecord::JoinObserved { rel_a, col_a, rel_b, col_b, selectivity } => {
                self.note_join_overlap(
                    rel_a,
                    *col_a as usize,
                    rel_b,
                    *col_b as usize,
                    *selectivity,
                );
            }
            WalRecord::DeltaApplied { relation, insert, delete, .. } => {
                // Same order as updategram application: deletes, then
                // inserts.
                for row in delete {
                    self.delete(relation, row);
                }
                for row in insert {
                    self.insert(relation, row.clone());
                }
            }
            WalRecord::DeltaSealed { .. } | WalRecord::DeltaAcked { .. } => {}
        }
        self.journal = suspended;
    }

    /// Register (or replace) a relation under its schema name. Statistics
    /// are the relation's own ([`Relation::stats`]): computed here if no
    /// clone of it has needed them yet, taken by reference otherwise.
    pub fn register(&mut self, rel: Relation) {
        let name = rel.schema.name.clone();
        if self.journal.is_some() {
            // The explicit record supersedes any pending re-journal.
            self.rejournal.remove(&name);
            self.journal_record(WalRecord::Register { relation: rel.clone() });
        }
        self.stats.insert(name.clone(), rel.stats());
        self.dirty.remove(&name);
        self.relations.insert(name, rel);
        self.epoch += 1;
    }

    /// Create an empty relation under the given schema.
    pub fn create(&mut self, schema: RelSchema) {
        self.register(Relation::new(schema));
    }

    /// Borrow a relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutably borrow a relation.
    ///
    /// The caller may mutate arbitrarily, so the relation's cached
    /// statistics are invalidated and the stats epoch bumped; call
    /// [`Catalog::analyze`] afterwards to rebuild them (the planner falls
    /// back to raw row counts in the meantime).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Relation> {
        if self.journal.is_some() && self.relations.contains_key(name) {
            // The caller's mutations are opaque to the journal; remember
            // to re-journal the whole relation at the next operation.
            self.rejournal.insert(name.to_string());
        }
        let r = self.relations.get_mut(name);
        if r.is_some() {
            if let Some(old) = self.stats.remove(name) {
                self.dirty.insert(name.to_string(), old);
            }
            self.epoch += 1;
        }
        r
    }

    /// Insert a row into a named relation. Returns `false` if the relation
    /// does not exist. Statistics follow incrementally — no rescan.
    pub fn insert(&mut self, rel: &str, row: Vec<Value>) -> bool {
        if !self.relations.contains_key(rel) {
            return false;
        }
        if self.journal.is_some() {
            self.journal_record(WalRecord::Insert { relation: rel.to_string(), row: row.clone() });
        }
        // The relation first: its write drops the memo's reference to
        // these statistics, so `make_mut` updates them in place instead
        // of copying every histogram.
        let r = self.relations.get_mut(rel).expect("checked above");
        r.insert(row);
        if let Some(s) = self.stats.get_mut(rel) {
            let row = r.rows().last().expect("just inserted");
            Arc::make_mut(s).note_insert(row);
        }
        self.epoch += 1;
        true
    }

    /// Delete every copy of `row` from a named relation, returning how
    /// many rows were actually removed. Statistics are noted with that
    /// exact count (so a delete-of-absent cannot desync them), and the
    /// epoch only moves when something really changed.
    ///
    /// When journaled, the delete is logged *before* it is applied —
    /// even a delete that turns out to remove nothing (replaying a no-op
    /// delete is itself a no-op, so recovery stays faithful).
    pub fn delete(&mut self, rel: &str, row: &[Value]) -> usize {
        if !self.relations.contains_key(rel) {
            return 0;
        }
        if self.journal.is_some() {
            self.journal_record(WalRecord::Delete { relation: rel.to_string(), row: row.to_vec() });
        }
        let r = self.relations.get_mut(rel).expect("checked above");
        let removed = r.delete(row);
        if removed > 0 {
            if let Some(s) = self.stats.get_mut(rel) {
                Arc::make_mut(s).note_delete_n(row, removed);
            }
            self.epoch += 1;
        }
        removed
    }

    /// Current statistics for a relation, if clean. `None` for unknown
    /// relations and for relations dirtied via [`Catalog::get_mut`].
    pub fn rel_stats(&self, name: &str) -> Option<&RelStats> {
        self.stats.get(name).map(Arc::as_ref)
    }

    /// Recompute statistics for every relation that lacks a clean entry.
    /// Returns how many relations were (re)analyzed.
    ///
    /// The epoch moves only when some recomputed statistics actually
    /// differ from the last clean ones: a `get_mut` round-trip that left
    /// the data equivalent must not invalidate every warm plan that
    /// reads this catalog for a no-op.
    pub fn analyze(&mut self) -> usize {
        if self.journal.is_some()
            && self.relations.keys().any(|n| !self.stats.contains_key(n))
        {
            // journal_record first flushes the dirtied relations as full
            // re-registrations, so the replayed Analyze finds them clean;
            // the record still marks where statistics were rebuilt.
            self.journal_record(WalRecord::Analyze);
        }
        let mut analyzed = 0;
        let mut changed = 0;
        for (name, rel) in &self.relations {
            if !self.stats.contains_key(name) {
                let fresh = rel.stats();
                if self.dirty.remove(name).as_ref() != Some(&fresh) {
                    changed += 1;
                }
                self.stats.insert(name.clone(), fresh);
                analyzed += 1;
            }
        }
        if changed > 0 {
            self.epoch += 1;
        }
        analyzed
    }

    /// The learned join-overlap store (see [`crate::stats::JoinStats`]).
    pub fn join_stats(&self) -> &JoinStats {
        &self.join_stats
    }

    /// Record an observed equijoin selectivity fed back from an executed
    /// plan. The epoch is bumped **only** when the stored estimate
    /// materially changed — re-observing a well-calibrated join must not
    /// flush warm plan caches keyed on the epoch. Returns whether the
    /// store changed.
    pub fn note_join_overlap(
        &mut self,
        rel_a: &str,
        col_a: usize,
        rel_b: &str,
        col_b: usize,
        sel: f64,
    ) -> bool {
        if self.journal.is_some() {
            // Every observation is journaled (not just material changes):
            // replay re-runs each `note`, reproducing both the stored
            // selectivity and the observation count exactly.
            self.journal_record(WalRecord::JoinObserved {
                rel_a: rel_a.to_string(),
                col_a: col_a as u32,
                rel_b: rel_b.to_string(),
                col_b: col_b as u32,
                selectivity: sel,
            });
        }
        let changed = self.join_stats.note(rel_a, col_a, rel_b, col_b, sel);
        if changed {
            self.epoch += 1;
        }
        changed
    }

    /// Import learned join stats wholesale (e.g. into a per-query staging
    /// catalog or a merged snapshot). Does **not** bump the epoch: the
    /// observations were already accounted for where they were recorded.
    /// Not journaled — this is a staging/merge API; durable catalogs learn
    /// through [`Catalog::note_join_overlap`].
    pub fn absorb_join_stats(&mut self, other: &JoinStats) {
        self.join_stats.absorb(other);
    }

    /// Drop every learned join observation mentioning a relation for which
    /// `drop_rel` returns true (either side of the pair). Bumps the epoch
    /// when anything was removed, so caches costed against the departed
    /// statistics are invalidated. Returns how many entries were removed.
    pub fn purge_join_stats(&mut self, drop_rel: impl Fn(&str) -> bool) -> usize {
        let removed = self.join_stats.purge_where(drop_rel);
        if removed > 0 {
            self.epoch += 1;
        }
        removed
    }

    /// The stats epoch: strictly increases with every catalog mutation
    /// (register/create/insert/`get_mut`/analyze). Cache keys include it.
    pub fn stats_epoch(&self) -> u64 {
        self.epoch
    }

    /// Relation names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when no relation is registered.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The database schema implied by the registered relations.
    pub fn schema(&self, name: impl Into<String>) -> DbSchema {
        DbSchema {
            name: name.into(),
            relations: self.relations.values().map(|r| r.schema.clone()).collect(),
        }
    }

    /// Total tuple count across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

/// A thread-safe, shareable catalog handle.
#[derive(Debug, Default, Clone)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Catalog>>,
}

impl SharedCatalog {
    /// Wrap a catalog for sharing.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog { inner: Arc::new(RwLock::new(catalog)) }
    }

    /// Run a closure with read access (recovers from poisoning; see the
    /// module docs for the policy).
    pub fn read<T>(&self, f: impl FnOnce(&Catalog) -> T) -> T {
        f(&self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Run a closure with write access (recovers from poisoning; see the
    /// module docs for the policy).
    pub fn write<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        f(&mut self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// A snapshot of a relation by name: a handle on the rows as they are
    /// now, O(1) whatever the cardinality, which later writes to the
    /// catalog leave untouched (see [`Relation`] on sharing). The
    /// catalog's incrementally maintained statistics ride along, so a
    /// relation written since its last scan is not rescanned for them.
    pub fn snapshot(&self, rel: &str) -> Option<Relation> {
        self.read(|c| {
            let r = c.get(rel)?;
            if let Some(stats) = c.stats.get(rel) {
                r.seed_stats(stats);
            }
            Some(r.clone())
        })
    }

    /// The wrapped catalog's stats epoch (see [`Catalog::stats_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.read(Catalog::stats_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    #[test]
    fn register_and_insert() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("course", &["title"]));
        assert!(c.insert("course", vec![Value::str("db")]));
        assert!(!c.insert("nope", vec![Value::str("x")]));
        assert_eq!(c.get("course").unwrap().len(), 1);
        assert_eq!(c.total_rows(), 1);
    }

    #[test]
    fn stats_follow_inserts_incrementally() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["v"]));
        let e0 = c.stats_epoch();
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("b")]);
        let s = c.rel_stats("t").expect("clean stats");
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct(0), 2);
        assert_eq!(s.columns[0].count_of(&Value::str("a")), 2);
        assert!(c.stats_epoch() > e0, "mutations bump the epoch");
        assert!(c.rel_stats("missing").is_none());
    }

    #[test]
    fn get_mut_dirties_stats_and_analyze_rebuilds() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        let before = c.stats_epoch();
        c.get_mut("t").unwrap().insert(vec![Value::str("b")]);
        assert!(c.rel_stats("t").is_none(), "opaque mutation dirties stats");
        assert!(c.stats_epoch() > before);
        assert_eq!(c.analyze(), 1);
        let s = c.rel_stats("t").unwrap();
        assert_eq!(s.rows, 2);
        assert_eq!(s.distinct(0), 2);
        // A second analyze is a no-op and leaves the epoch alone.
        let stable = c.stats_epoch();
        assert_eq!(c.analyze(), 0);
        assert_eq!(c.stats_epoch(), stable);
    }

    #[test]
    fn analyze_after_a_no_op_get_mut_leaves_the_epoch_alone() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        // Borrow mutably but change nothing observable.
        assert_eq!(c.get_mut("t").unwrap().len(), 1);
        let after_dirty = c.stats_epoch();
        assert_eq!(c.analyze(), 1, "the dirtied relation is recomputed");
        assert_eq!(c.stats_epoch(), after_dirty, "identical stats must not bump the epoch");
        assert_eq!(c.rel_stats("t").unwrap().rows, 1);
        // A get_mut that really changes data still bumps on analyze.
        c.get_mut("t").unwrap().insert(vec![Value::str("b")]);
        let dirtied = c.stats_epoch();
        assert_eq!(c.analyze(), 1);
        assert!(c.stats_epoch() > dirtied, "changed stats bump the epoch");
    }

    #[test]
    fn delete_notes_only_rows_actually_removed() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("b")]);
        let e = c.stats_epoch();
        // Deleting an absent row changes nothing — not even the epoch.
        assert_eq!(c.delete("t", &[Value::str("ghost")]), 0);
        assert_eq!(c.stats_epoch(), e);
        assert_eq!(c.rel_stats("t").unwrap().rows, 3);
        // Deleting a duplicated row removes (and notes) both copies.
        assert_eq!(c.delete("t", &[Value::str("a")]), 2);
        assert!(c.stats_epoch() > e);
        let s = c.rel_stats("t").unwrap();
        assert_eq!(s.rows, 1);
        assert_eq!(s.distinct(0), 1);
        assert_eq!(s, &crate::stats::RelStats::compute(c.get("t").unwrap()));
        assert_eq!(c.delete("missing", &[Value::str("x")]), 0);
    }

    #[test]
    fn join_overlap_feedback_bumps_the_epoch_only_on_material_change() {
        let mut c = Catalog::new();
        let e0 = c.stats_epoch();
        assert!(c.note_join_overlap("A.r", 0, "B.r", 1, 0.25));
        let e1 = c.stats_epoch();
        assert!(e1 > e0, "a new observation shifts the epoch");
        assert_eq!(c.join_stats().overlap("B.r", 1, "A.r", 0), Some(0.25));
        // Re-observing the same selectivity is a no-op for the epoch.
        assert!(!c.note_join_overlap("A.r", 0, "B.r", 1, 0.25));
        assert_eq!(c.stats_epoch(), e1);
        // Absorbing into a staging catalog never moves its epoch.
        let mut staging = Catalog::new();
        let se = staging.stats_epoch();
        staging.absorb_join_stats(c.join_stats());
        assert_eq!(staging.stats_epoch(), se);
        assert_eq!(staging.join_stats().overlap("A.r", 0, "B.r", 1), Some(0.25));
    }

    #[test]
    fn register_computes_stats_in_one_pass() {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("t", &["v"]));
        r.insert(vec![Value::str("x")]);
        r.insert(vec![Value::str("x")]);
        c.register(r);
        assert_eq!(c.rel_stats("t").unwrap().columns[0].count_of(&Value::str("x")), 2);
        // SharedCatalog exposes the epoch for cache keys.
        let shared = SharedCatalog::new(c);
        let e = shared.epoch();
        shared.write(|c| c.insert("t", vec![Value::str("y")]));
        assert!(shared.epoch() > e);
    }

    #[test]
    fn journaled_mutations_replay_to_the_same_catalog() {
        use crate::wal::{encode_catalog, recover_catalog, Journal};
        let mut c = Catalog::new();
        let journal = Journal::new();
        c.attach_journal(journal.clone());
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("b")]);
        c.delete("t", &[Value::str("a")]);
        c.note_join_overlap("A.r", 0, "B.s", 1, 0.5);
        c.note_join_overlap("A.r", 0, "B.s", 1, 0.5); // re-observation journaled too
        let (rec, report) = recover_catalog(None, &journal.bytes()).expect("recovers");
        assert!(!report.snapshot_used);
        assert_eq!(encode_catalog(&rec, 0), encode_catalog(&c, 0));
        assert_eq!(
            rec.join_stats().iter().next().unwrap().1.observations,
            2,
            "observation counts replay exactly"
        );
        // Statistics are recomputed on replay, not carried in the log.
        assert_eq!(rec.rel_stats("t").unwrap(), c.rel_stats("t").unwrap());
    }

    #[test]
    fn get_mut_mutations_are_rejournaled_at_the_next_operation() {
        use crate::wal::{recover_catalog, Journal, WalRecord};
        let mut c = Catalog::new();
        let journal = Journal::new();
        c.attach_journal(journal.clone());
        c.create(RelSchema::text("t", &["v"]));
        // Opaque mutation: invisible to the journal until the next op.
        c.get_mut("t").unwrap().insert(vec![Value::str("hidden")]);
        let behind = recover_catalog(None, &journal.bytes()).unwrap().0;
        assert_eq!(behind.get("t").unwrap().len(), 0, "crash window: unflushed write");
        // The next journaled operation flushes the whole relation first.
        c.insert("t", vec![Value::str("visible")]);
        let caught_up = recover_catalog(None, &journal.bytes()).unwrap().0;
        assert_eq!(caught_up.get("t").unwrap().len(), 2);
        assert!(
            journal
                .records()
                .iter()
                .any(|(_, r)| matches!(r, WalRecord::Register { relation } if relation.len() == 1)),
            "the flush re-registered the relation with its opaque insert"
        );
        // flush_journal covers the snapshot path with no extra record.
        c.get_mut("t").unwrap().insert(vec![Value::str("third")]);
        c.flush_journal();
        let flushed = recover_catalog(None, &journal.bytes()).unwrap().0;
        assert_eq!(flushed.get("t").unwrap().len(), 3);
    }

    #[test]
    fn clones_do_not_carry_the_journal() {
        use crate::wal::Journal;
        let mut c = Catalog::new();
        let journal = Journal::new();
        c.attach_journal(journal.clone());
        c.create(RelSchema::text("t", &["v"]));
        let n = journal.record_count();
        let mut copy = c.clone();
        assert!(copy.journal().is_none());
        copy.insert("t", vec![Value::str("staged")]);
        assert_eq!(journal.record_count(), n, "staging mutations are not journaled");
        assert!(c.journal().is_some(), "the original keeps its journal");
    }

    #[test]
    fn purge_join_stats_drops_matching_entries_and_bumps_the_epoch() {
        let mut c = Catalog::new();
        c.note_join_overlap("Gone.r", 0, "Stays.s", 1, 0.25);
        c.note_join_overlap("Stays.s", 0, "Also.t", 1, 0.5);
        let e = c.stats_epoch();
        assert_eq!(c.purge_join_stats(|rel| rel.starts_with("Gone.")), 1);
        assert!(c.stats_epoch() > e);
        assert_eq!(c.join_stats().len(), 1);
        assert!(c.join_stats().overlap("Gone.r", 0, "Stays.s", 1).is_none());
        // Purging nothing leaves the epoch alone.
        let e2 = c.stats_epoch();
        assert_eq!(c.purge_join_stats(|rel| rel.starts_with("Absent.")), 0);
        assert_eq!(c.stats_epoch(), e2);
    }

    #[test]
    fn every_mutation_path_empties_the_relation_memo() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        let fresh = |c: &Catalog| {
            let r = c.get("t").unwrap();
            assert_eq!(*r.batch(), crate::ColumnarBatch::from_relation(r));
            assert_eq!(*r.stats(), RelStats::compute(r));
            assert_eq!(c.rel_stats("t"), Some(&RelStats::compute(r)));
            r.batch()
        };
        let b1 = fresh(&c);
        assert_eq!(b1.to_relation(c.get("t").unwrap().schema.clone()), *c.get("t").unwrap());
        // Unchanged relation: the very same image is shared, also through
        // a clone of the catalog and through a snapshot staged elsewhere.
        assert!(Arc::ptr_eq(&b1, &fresh(&c)), "memo hit must share the image");
        assert!(Arc::ptr_eq(&b1, &fresh(&c.clone())));
        let shared = SharedCatalog::new(c);
        let mut staging = Catalog::new();
        staging.register(shared.snapshot("t").unwrap());
        assert!(Arc::ptr_eq(&b1, &fresh(&staging)));
        drop(staging);
        // Any mutation path invalidates — insert, get_mut, delete.
        let b3 = shared.write(|c| {
            c.insert("t", vec![Value::str("b")]);
            let b3 = fresh(c);
            assert!(!Arc::ptr_eq(&b1, &b3), "stale image survived an insert");
            assert_eq!(b3.rows(), 2);
            c.get_mut("t").unwrap().insert(vec![Value::str("c")]);
            assert_eq!(c.get("t").unwrap().batch().rows(), 3, "stale image survived get_mut");
            c.analyze();
            assert_eq!(fresh(c).rows(), 3);
            c.delete("t", &[Value::str("a")]);
            assert_eq!(fresh(c).rows(), 2, "stale image survived a delete");
            // A delete that removes nothing leaves the memo alone.
            let kept = fresh(c);
            c.delete("t", &[Value::str("ghost")]);
            assert!(Arc::ptr_eq(&kept, &fresh(c)));
            b3
        });
        // The images handed out earlier still describe the rows they
        // were pivoted from.
        assert_eq!((b1.rows(), b3.rows()), (1, 2));
    }

    #[test]
    fn a_snapshot_is_isolated_from_later_writes_and_carries_the_stats() {
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| {
            c.create(RelSchema::text("t", &["v"]));
            c.insert("t", vec![Value::str("a")]);
        });
        // The insert emptied the memo; the snapshot is seeded from the
        // catalog's incremental statistics instead of rescanning.
        let snap = shared.snapshot("t").unwrap();
        assert!(shared.read(|c| std::ptr::eq(&*snap.stats(), c.rel_stats("t").unwrap())));
        shared.write(|c| {
            c.insert("t", vec![Value::str("b")]);
            c.delete("t", &[Value::str("a")]);
            assert_eq!(c.rel_stats("t"), Some(&RelStats::compute(c.get("t").unwrap())));
        });
        assert_eq!(snap.rows(), [vec![Value::str("a")]]);
        assert_eq!(*snap.stats(), RelStats::compute(&snap));
        assert_eq!(shared.snapshot("t").unwrap().rows(), [vec![Value::str("b")]]);
        // With the snapshot gone the owner writes in place again.
        drop(snap);
        let rows_at = |s: &SharedCatalog| s.read(|c| c.get("t").unwrap().rows().as_ptr());
        shared.write(|c| c.get_mut("t").unwrap().insert(vec![Value::str("c")]));
        let at = rows_at(&shared);
        shared.write(|c| c.delete("t", &[Value::str("b")]));
        assert_eq!(rows_at(&shared), at, "an unshared relation is mutated in place");
    }

    #[test]
    fn schema_reflects_contents() {
        let mut c = Catalog::new();
        c.create(RelSchema::text("a", &["x"]));
        c.create(RelSchema::text("b", &["y", "z"]));
        let s = c.schema("peer1");
        assert_eq!(s.relations.len(), 2);
        assert_eq!(s.element_count(), 5);
    }

    #[test]
    fn shared_catalog_concurrent_access() {
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| c.create(RelSchema::text("t", &["v"])));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    s.write(|c| c.insert("t", vec![Value::Int(i)]));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.read(|c| c.get("t").unwrap().len()), 8);
        assert_eq!(shared.snapshot("t").unwrap().len(), 8);
        assert!(shared.snapshot("missing").is_none());
    }

    #[test]
    fn poisoned_lock_recovers() {
        // A peer thread panicking mid-write must not strand the catalog:
        // the module's documented policy is to recover the guard.
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| c.create(RelSchema::text("t", &["v"])));
        let clone = shared.clone();
        let _ = std::thread::spawn(move || {
            clone.write(|c| {
                c.insert("t", vec![Value::Int(1)]);
                panic!("writer dies while holding the lock");
            })
        })
        .join();
        // Both the completed single-step insert and future access survive.
        assert_eq!(shared.read(|c| c.get("t").unwrap().len()), 1);
        shared.write(|c| c.insert("t", vec![Value::Int(2)]));
        assert_eq!(shared.snapshot("t").unwrap().len(), 2);
    }

    #[test]
    fn writers_contending_with_a_panicking_writer_all_land() {
        // The chaos scenario: one peer thread dies mid-write while others
        // keep updating the same catalog. Every surviving writer's insert
        // must land, whether it acquired the lock before or after the
        // poisoning.
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| c.create(RelSchema::text("t", &["v"])));
        let mut handles = Vec::new();
        for i in 0..8 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                s.write(|c| {
                    c.insert("t", vec![Value::Int(i)]);
                    if i == 3 {
                        panic!("peer thread dies holding the write guard");
                    }
                });
            }));
        }
        let panicked = handles.into_iter().map(|h| h.join()).filter(Result::is_err).count();
        assert_eq!(panicked, 1, "exactly the one deliberate panic");
        assert_eq!(shared.read(|c| c.get("t").unwrap().len()), 8);
    }

    #[test]
    fn panicking_read_closure_does_not_block_writers() {
        // Reads recover from (and do not themselves prevent) progress: a
        // panic inside a read closure leaves the lock usable for both
        // subsequent readers and writers.
        let shared = SharedCatalog::new(Catalog::new());
        shared.write(|c| c.create(RelSchema::text("t", &["v"])));
        shared.write(|c| c.insert("t", vec![Value::Int(1)]));
        let clone = shared.clone();
        let joined = std::thread::spawn(move || {
            clone.read(|c| {
                assert_eq!(c.get("t").unwrap().len(), 1);
                panic!("reader dies while holding the lock");
            })
        })
        .join();
        assert!(joined.is_err(), "the reader really did panic");
        shared.write(|c| c.insert("t", vec![Value::Int(2)]));
        assert_eq!(shared.read(|c| c.get("t").unwrap().len()), 2);
        assert_eq!(shared.snapshot("t").unwrap().len(), 2);
    }
}
