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

use crate::relation::{ArityError, Relation, Tuple};
use crate::schema::{DbSchema, RelSchema};
use crate::stats::{JoinStats, RelStats};
use crate::value::Value;
use crate::wal::{Journal, WalRecord};
use crate::zset::ZSetBatch;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// The signed rows one catalog change made to one relation, as a Z-set
/// delta: `-m` once for each distinct deleted row that had `m` copies
/// (spelled as listed first), `-1` for each row a re-registration
/// replaced, `+1` for each inserted row. The rows are borrowed from the
/// change itself, so reporting one copies none.
#[derive(Debug, Default)]
pub struct Change<'a> {
    relation: &'a str,
    /// Distinct deleted rows that had copies, sorted, with their counts.
    deleted: Vec<(&'a [Value], usize)>,
    /// The contents a re-registration replaced.
    replaced: Option<Relation>,
    /// The rows inserted, or a registration's new contents.
    inserted: &'a [Tuple],
}

impl<'a> Change<'a> {
    /// The relation changed.
    pub fn relation(&self) -> &'a str {
        self.relation
    }

    /// Every changed row with its weight: the deletes in row order, then
    /// the replaced contents, then the inserts as listed.
    pub fn rows(&self) -> impl Iterator<Item = (&[Value], i64)> + '_ {
        let deleted = self.deleted.iter().map(|&(row, n)| (row, -(n as i64)));
        let replaced = self.replaced.iter().flat_map(Relation::iter).map(|row| (&row[..], -1));
        let inserted = self.inserted.iter().map(|row| (&row[..], 1));
        deleted.chain(replaced).chain(inserted)
    }
}

/// A named collection of relations.
///
/// The catalog also serves the planner-facing metadata for its relations:
/// [`RelStats`] per relation (see [`crate::stats`]) and a *stats epoch*,
/// a counter bumped on every mutation. Plan caches stamp each entry with
/// the epoch, so a cached plan can never outlive the statistics it was
/// costed against.
///
/// The statistics live in each relation's own memo ([`Relation::stats`]),
/// computed when the relation is registered unless a clone of it already
/// has them, and moved on incrementally by every write. Relations are
/// written only through the catalog's own mutators —
/// [`Catalog::register`] / [`Catalog::create`], [`Catalog::apply`] and its
/// one-row cases [`Catalog::insert`] and [`Catalog::delete`] — so every
/// registered relation has current statistics at all times
/// ([`Catalog::rel_stats`] is `Some` exactly when [`Catalog::get`] is).
/// [`Catalog::apply`] and [`Catalog::replay`] report the signed rows they
/// made ([`Change`]), so no consumer of deltas recounts them. While
/// tracked ([`Catalog::track_changes`]) the catalog also records the
/// signed rows of every change its mutators make, for
/// [`Catalog::take_changes`] to hand over.
///
/// Relations share their rows and what is derived from them (see
/// [`Relation`]), so registering a clone of another catalog's relation
/// copies no tuples, takes the statistics the relation already carries,
/// and reads the same columnar image.
///
/// # Durability
///
/// A catalog may carry an attached [`Journal`]
/// ([`Catalog::attach_journal`]); every mutator then journals a
/// [`WalRecord`] *before* it touches memory (after checking every row's
/// arity, so each record replays), so the log is never behind the state
/// and the catalog can be recovered after a crash: a snapshot
/// ([`crate::wal::decode_catalog`]) plus [`Catalog::replay`] of each
/// record of the log suffix. The one
/// exception is [`Catalog::absorb_join_stats`], a staging/merge API
/// that durable catalogs do not use. `Clone` deliberately does **not**
/// carry the journal or the change record: a clone is a value snapshot
/// (staging catalogs, merged views), and double-journaling through copies
/// would corrupt the history.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Relation>,
    /// Learned equijoin selectivities fed back from executed plans.
    join_stats: JoinStats,
    epoch: u64,
    /// Attached durable change log; `None` for plain in-memory catalogs.
    journal: Option<Journal>,
    /// The signed rows changed since the last [`Catalog::take_changes`],
    /// consolidated; `None` while untracked.
    changes: Option<ZSetBatch>,
}

impl Clone for Catalog {
    /// Value snapshot: everything but the journal and the change record
    /// (see the type docs).
    fn clone(&self) -> Self {
        Catalog {
            relations: self.relations.clone(),
            join_stats: self.join_stats.clone(),
            epoch: self.epoch,
            journal: None,
            changes: None,
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

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Append the record `rec` builds to the attached journal; an
    /// un-journaled catalog never builds it.
    fn journal_record(&self, rec: impl FnOnce() -> WalRecord) {
        if let Some(j) = &self.journal {
            j.append(&rec());
        }
    }

    /// Start recording the signed rows of every change, from an empty
    /// record (anything recorded before is dropped).
    pub fn track_changes(&mut self) {
        self.changes = Some(ZSetBatch::new());
    }

    /// Stop recording and drop the record.
    pub fn untrack_changes(&mut self) {
        self.changes = None;
    }

    /// The net change of every row since tracking started or the last
    /// take, consolidated: each row once, with its summed weight, and no
    /// row whose changes cancelled. Empty while untracked.
    pub fn take_changes(&mut self) -> ZSetBatch {
        self.changes.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Apply one journaled record — crash recovery — and return the
    /// signed rows it made: row records go through [`Catalog::apply`], a
    /// `Register` retracts the contents it replaces and asserts its own,
    /// and bookkeeping records change no rows. The journal is suspended:
    /// replay must not re-journal history. A tracked catalog records the
    /// rows through those mutators.
    pub fn replay<'a>(&mut self, rec: &'a WalRecord) -> Change<'a> {
        let suspended = self.journal.take();
        let change = match rec {
            WalRecord::Register { relation } => {
                let name = relation.schema.name.as_str();
                let replaced = self.get(name).cloned();
                self.register(relation.clone());
                Change { relation: name, replaced, inserted: relation.rows(), ..Change::default() }
            }
            // A wrong-arity record predates the check that keeps such rows
            // out of the log; it is skipped, as a live change is refused.
            WalRecord::Insert { relation, row } => {
                self.apply(relation, &[], std::slice::from_ref(row)).unwrap_or_default()
            }
            WalRecord::Delete { relation, row } => {
                self.apply(relation, std::slice::from_ref(row), &[]).unwrap_or_default()
            }
            WalRecord::DeltaApplied { relation, insert, delete, .. } => {
                self.apply(relation, delete, insert).unwrap_or_default()
            }
            WalRecord::JoinObserved { rel_a, col_a, rel_b, col_b, selectivity } => {
                self.note_join_overlap(
                    rel_a,
                    *col_a as usize,
                    rel_b,
                    *col_b as usize,
                    *selectivity,
                );
                Change::default()
            }
            WalRecord::JoinPurged { peer } => {
                self.purge_join_stats(peer);
                Change::default()
            }
            WalRecord::DeltaSealed { .. } | WalRecord::DeltaAcked { .. } => Change::default(),
        };
        self.journal = suspended;
        change
    }

    /// The signed rows [`Catalog::apply`] would make of this change,
    /// without writing: one pass over the relation counts the copies of
    /// every distinct deleted row. An unknown relation yields no rows.
    pub fn sign<'a>(&self, rel: &'a str, delete: &'a [Tuple], insert: &'a [Tuple]) -> Change<'a> {
        let Some(stored) = self.relations.get(rel) else {
            return Change { relation: rel, ..Change::default() };
        };
        let mut deleted: Vec<(&[Value], usize)> = delete.iter().map(|row| (&row[..], 0)).collect();
        // A stable sort keeps the first-listed spelling of equal rows in front.
        deleted.sort_by(|a, b| a.0.cmp(b.0));
        deleted.dedup_by(|later, kept| later.0 == kept.0);
        stored.count_copies(&mut deleted);
        deleted.retain(|(_, n)| *n > 0);
        Change { relation: rel, deleted, replaced: None, inserted: insert }
    }

    /// The row mutator, with an updategram's semantics: every copy of each
    /// `delete` row goes (in one pass), then each `insert` row is
    /// appended. Returns the signed rows it made ([`Catalog::sign`] of the
    /// pre-state), and records them while tracked. Journals a `Delete` per
    /// listed row, then an `Insert` per row. A row of the wrong arity
    /// refuses the whole change before anything is journaled or written.
    pub fn apply<'a>(
        &mut self,
        rel: &'a str,
        delete: &'a [Tuple],
        insert: &'a [Tuple],
    ) -> Result<Change<'a>, ArityError> {
        let change = self.sign(rel, delete, insert);
        let Some(stored) = self.relations.get_mut(rel) else {
            return Ok(change);
        };
        stored.check_arity(delete.iter().chain(insert))?;
        if let Some(j) = &self.journal {
            for row in delete {
                j.append(&WalRecord::Delete { relation: rel.to_string(), row: row.clone() });
            }
            for row in insert {
                j.append(&WalRecord::Insert { relation: rel.to_string(), row: row.clone() });
            }
        }
        stored.remove_all(&change.deleted);
        for row in insert {
            stored.insert(row.clone());
        }
        self.epoch += (change.deleted.len() + insert.len()) as u64;
        if let Some(changes) = &mut self.changes {
            changes.record(&change);
        }
        Ok(change)
    }

    /// Register (or replace) a relation under its schema name. Statistics
    /// are the relation's own ([`Relation::stats`]): computed here if no
    /// clone of it has needed them yet, shared otherwise. While tracked,
    /// the replaced contents are recorded as retracted and the new ones as
    /// asserted.
    pub fn register(&mut self, rel: Relation) {
        self.journal_record(|| WalRecord::Register { relation: rel.clone() });
        if let Some(changes) = &mut self.changes {
            let replaced = self.relations.get(&rel.schema.name).cloned();
            let (relation, inserted) = (rel.schema.name.as_str(), rel.rows());
            changes.record(&Change { relation, replaced, inserted, ..Change::default() });
        }
        rel.stats_memo();
        self.relations.insert(rel.schema.name.clone(), rel);
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

    /// Insert a row into a named relation: [`Catalog::apply`] of one
    /// insert. Returns `false` if the relation does not exist.
    ///
    /// # Panics
    /// Panics, before journaling, if the row's arity is not the relation's.
    pub fn insert(&mut self, rel: &str, row: Vec<Value>) -> bool {
        if self.get(rel).is_none() {
            return false;
        }
        self.apply(rel, &[], &[row]).unwrap_or_else(|e| panic!("{e}"));
        true
    }

    /// Delete every copy of `row` from a named relation: [`Catalog::apply`]
    /// of one delete. Returns how many rows were removed; 0 for an unknown
    /// relation or a row of the wrong arity, which journals nothing.
    pub fn delete(&mut self, rel: &str, row: &[Value]) -> usize {
        let row = [row.to_vec()];
        let change = self.apply(rel, &row, &[]);
        change.map_or(0, |c| c.deleted.first().map_or(0, |&(_, n)| n))
    }

    /// Current statistics for a relation, its own memo; `None` only for
    /// unknown relations.
    pub fn rel_stats(&self, name: &str) -> Option<&RelStats> {
        self.relations.get(name).map(|r| &**r.stats_memo())
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
        // Every observation is journaled (not just material changes):
        // replay re-runs each `note`, reproducing both the stored
        // selectivity and the observation count exactly.
        self.journal_record(|| WalRecord::JoinObserved {
            rel_a: rel_a.to_string(),
            col_a: col_a as u32,
            rel_b: rel_b.to_string(),
            col_b: col_b as u32,
            selectivity: sel,
        });
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

    /// Drop every learned join observation mentioning a relation of the
    /// departed peer `peer` (its qualified names start `"<peer>."`), on
    /// either side of the pair. Bumps the epoch when anything was
    /// removed, so caches costed against the departed statistics are
    /// invalidated. Returns how many entries were removed.
    pub fn purge_join_stats(&mut self, peer: &str) -> usize {
        self.journal_record(|| WalRecord::JoinPurged { peer: peer.to_string() });
        let prefix = format!("{peer}.");
        let removed = self.join_stats.purge_where(|rel| rel.starts_with(&prefix));
        if removed > 0 {
            self.epoch += 1;
        }
        removed
    }

    /// The stats epoch: strictly increases with every catalog mutation
    /// that changed something (register/create/insert, a delete that
    /// removed rows, a join observation or purge that moved the store).
    /// Cache keys include it.
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
    /// relation's current statistics ride along in its memo.
    pub fn snapshot(&self, rel: &str) -> Option<Relation> {
        self.read(|c| c.get(rel).cloned())
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
    fn a_wrong_arity_delete_journals_nothing() {
        use crate::wal::Journal;
        let mut c = Catalog::new();
        c.create(RelSchema::text("t", &["a", "b"]));
        c.insert("t", vec![Value::str("x"), Value::str("y")]);
        let journal = Journal::new();
        c.attach_journal(journal.clone());
        assert_eq!(c.delete("t", &[Value::str("x")]), 0);
        assert_eq!(journal.record_count(), 0, "no record a replay would have to skip");
        assert_eq!(c.get("t").unwrap().len(), 1);
    }

    fn signed(change: &Change) -> Vec<(Vec<Value>, i64)> {
        change.rows().map(|(row, w)| (row.to_vec(), w)).collect()
    }

    #[test]
    fn apply_signs_the_pre_state_and_journals_what_single_row_calls_journal() {
        use crate::wal::Journal;
        let v = |s: &str| vec![Value::str(s)];
        let setup = || {
            let mut c = Catalog::new();
            c.create(RelSchema::text("t", &["v"]));
            for s in ["a", "b", "a"] {
                c.insert("t", v(s));
            }
            let journal = Journal::new();
            c.attach_journal(journal.clone());
            (c, journal)
        };
        // A two-copy row listed twice, an absent row, a repeated insert.
        let delete = [v("a"), v("ghost"), v("a")];
        let insert = [v("c"), v("c")];
        let (mut applied, journal) = setup();
        let change = applied.apply("t", &delete, &insert).unwrap();
        assert_eq!(change.relation(), "t");
        assert_eq!(signed(&change), [(v("a"), -2), (v("c"), 1), (v("c"), 1)]);
        let (mut by_row, by_row_journal) = setup();
        for row in &delete {
            by_row.delete("t", row);
        }
        for row in &insert {
            by_row.insert("t", row.clone());
        }
        assert_eq!(journal.bytes(), by_row_journal.bytes(), "the log is byte-identical");
        assert_eq!(applied.get("t"), by_row.get("t"));
        assert_eq!(applied.rel_stats("t"), by_row.rel_stats("t"));
        assert_eq!(applied.stats_epoch(), by_row.stats_epoch());
        assert!(signed(&applied.apply("nope", &delete, &insert).unwrap()).is_empty());

        // A wrong-arity row refuses the whole change, journaling nothing;
        // a direct insert of one panics before it journals.
        let before = journal.bytes();
        let wide = [vec![Value::str("x"), Value::str("y")]];
        let err = applied.apply("t", &[v("b")], &wide).unwrap_err();
        assert_eq!(err.to_string(), "relation t has arity 1, row has 2");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            applied.insert("t", vec![]);
        }));
        assert!(panicked.is_err());
        assert_eq!(journal.bytes(), before);
        assert_eq!(applied.get("t"), by_row.get("t"));
    }

    #[test]
    fn replay_reports_the_signed_rows_of_each_record() {
        use crate::schema::Attribute;
        use crate::wal::{Journal, WalRecord};
        // A journaled catalog mutates; a shadow started from the same
        // pre-state replays each record and reports what it changed.
        let row = |t: &str, n: i64| vec![Value::str(t), Value::Int(n)];
        let schema =
            RelSchema::new("course", vec![Attribute::text("title"), Attribute::int("size")]);
        let base = || {
            let mut c = Catalog::new();
            let rows = vec![row("Db", 120), row("Greece", 40)];
            c.register(Relation::with_rows(schema.clone(), rows));
            c
        };
        let (mut live, mut shadow) = (base(), base());
        let journal = Journal::new();
        live.attach_journal(journal.clone());
        live.insert("course", row("Db", 120));
        live.insert("course", row("Logic", 15));
        live.delete("course", &row("Db", 120));
        live.delete("course", &row("Ghost", 0));
        live.register(Relation::with_rows(schema.clone(), vec![row("Rhetoric", 9)]));
        live.note_join_overlap("A.r", 0, "B.s", 1, 0.5);
        let records = journal.records();
        let replayed: Vec<_> = records.iter().map(|(_, rec)| signed(&shadow.replay(rec))).collect();
        assert_eq!(
            replayed,
            [
                vec![(row("Db", 120), 1)],
                vec![(row("Logic", 15), 1)],
                vec![(row("Db", 120), -2)],
                vec![],
                vec![(row("Greece", 40), -1), (row("Logic", 15), -1), (row("Rhetoric", 9), 1)],
                vec![],
            ]
        );
        assert_eq!(shadow.get("course"), live.get("course"));

        // A `DeltaApplied` is signed as the gram it journaled: a repeated
        // delete row retracts once, inserts count per occurrence.
        let gram = WalRecord::DeltaApplied {
            link: "S→T".into(),
            id: 1,
            relation: "course".into(),
            insert: vec![row("Logic", 15), row("Logic", 15)],
            delete: vec![row("Rhetoric", 9), row("Rhetoric", 9)],
        };
        assert_eq!(
            signed(&shadow.replay(&gram)),
            [(row("Rhetoric", 9), -1), (row("Logic", 15), 1), (row("Logic", 15), 1)]
        );
        let lost = WalRecord::Insert { relation: "gone".into(), row: row("x", 1) };
        assert!(signed(&shadow.replay(&lost)).is_empty(), "no rows for an unknown relation");
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
        use crate::wal::{encode_catalog, Journal};
        let mut c = Catalog::new();
        let journal = Journal::new();
        c.attach_journal(journal.clone());
        c.create(RelSchema::text("t", &["v"]));
        c.insert("t", vec![Value::str("a")]);
        c.insert("t", vec![Value::str("b")]);
        c.delete("t", &[Value::str("a")]);
        c.note_join_overlap("A.r", 0, "B.s", 1, 0.5);
        c.note_join_overlap("A.r", 0, "B.s", 1, 0.5); // re-observation journaled too
        c.note_join_overlap("Gone.r", 0, "B.s", 1, 0.25);
        c.purge_join_stats("Gone"); // a departed peer stays departed after a restart
        let mut rec = Catalog::new();
        for (_, r) in &journal.records() {
            rec.replay(r);
        }
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
        assert_eq!(c.purge_join_stats("Gone"), 1);
        assert!(c.stats_epoch() > e);
        assert_eq!(c.join_stats().len(), 1);
        assert!(c.join_stats().overlap("Gone.r", 0, "Stays.s", 1).is_none());
        // Purging nothing leaves the epoch alone.
        let e2 = c.stats_epoch();
        assert_eq!(c.purge_join_stats("Absent"), 0);
        assert_eq!(c.stats_epoch(), e2);
        // A peer's name is a whole qualifier, not a string prefix.
        assert_eq!(c.purge_join_stats("Stay"), 0);
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
        // Unchanged relation: the very same image is shared, also through
        // a clone of the catalog and through a snapshot staged elsewhere.
        assert!(Arc::ptr_eq(&b1, &fresh(&c)), "memo hit must share the image");
        assert!(Arc::ptr_eq(&b1, &fresh(&c.clone())));
        let shared = SharedCatalog::new(c);
        let mut staging = Catalog::new();
        staging.register(shared.snapshot("t").unwrap());
        assert!(Arc::ptr_eq(&b1, &fresh(&staging)));
        drop(staging);
        // Any mutation path invalidates — insert, delete.
        let b3 = shared.write(|c| {
            c.insert("t", vec![Value::str("b")]);
            let b3 = fresh(c);
            assert!(!Arc::ptr_eq(&b1, &b3), "stale image survived an insert");
            assert_eq!(b3.rows(), 2);
            c.insert("t", vec![Value::str("c")]);
            assert_eq!(fresh(c).rows(), 3);
            c.delete("t", &[Value::str("a")]);
            assert_eq!(fresh(c).rows(), 2, "stale image survived a delete");
            // A delete that removes nothing leaves the memo alone.
            let kept = fresh(c);
            c.delete("t", &[Value::str("ghost")]);
            assert!(Arc::ptr_eq(&kept, &fresh(c)));
            c.apply("t", &[vec![Value::str("ghost")]], &[]).unwrap();
            assert!(Arc::ptr_eq(&kept, &fresh(c)), "an apply that removes nothing leaves it too");
            c.apply("t", &[vec![Value::str("b")]], &[vec![Value::str("d")]]).unwrap();
            assert_eq!(fresh(c).rows(), 2, "stale image survived an apply");
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
        // The insert moved the relation's statistics on; the snapshot
        // shares them instead of rescanning.
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
        shared.write(|c| c.insert("t", vec![Value::str("c")]));
        let at = rows_at(&shared);
        shared.write(|c| c.delete("t", &[Value::str("b")]));
        assert_eq!(rows_at(&shared), at, "an unshared relation is mutated in place");
    }

    #[test]
    fn a_registered_relation_has_one_owner_journaled_or_recovered() {
        use crate::wal::Journal;
        // The log holds a `Register` as bytes, not as a handle on the
        // rows, so the first write after it copies nothing.
        let written_in_place = |c: &mut Catalog| {
            let at = Arc::as_ptr(&c.get("t").unwrap().shared);
            assert_eq!(Arc::strong_count(&c.get("t").unwrap().shared), 1, "a second owner");
            c.insert("t", vec![Value::str("b")]);
            assert_eq!(Arc::as_ptr(&c.get("t").unwrap().shared), at, "a copy-on-write copy");
            assert_eq!(c.rel_stats("t"), Some(&RelStats::compute(c.get("t").unwrap())));
        };
        let mut live = Catalog::new();
        let journal = Journal::new();
        live.attach_journal(journal.clone());
        live.register(Relation::with_rows(RelSchema::text("t", &["v"]), vec![vec![Value::str("a")]]));
        let log = journal.records();
        written_in_place(&mut live);
        let mut recovered = Catalog::new();
        for (_, r) in log {
            recovered.replay(&r);
        }
        written_in_place(&mut recovered);
        assert_eq!(recovered.get("t"), live.get("t"));
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
