//! Z-sets: the one shape a change takes from catalog to circuit.
//!
//! §3.1.2 makes updategrams first-class deltas that "can be combined to
//! create updategrams for views". A [`ZSet`] is such a delta's effect on
//! one relation — each row mapped to a signed multiplicity — and combining
//! deltas is adding them; a [`ZSetBatch`] is one round of them, relation
//! by relation. These are what a tracked catalog records, what a
//! continuous query (`revere_query::dataflow`) is pushed and returns, and
//! what its arranged state and derivation counts hold.
//!
//! A Z-set is always *consolidated*: no row twice, none with weight zero.
//! Rows hash under [`crate::fxhash`], so equal rows spelled differently
//! (`Int(2)`, `Float(2.0)`) meet in one entry, in the spelling seen first.
//! Iteration order is unspecified but deterministic; results are ordered
//! only where they are read ([`ZSet::sorted`], [`ZSet::support`]).

use crate::catalog::Change;
use crate::fxhash::{rebuild_if_full, FxMap};
use crate::relation::{Relation, Tuple};
use crate::schema::RelSchema;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A consolidated, hashed Z-set of rows: row → nonzero signed weight.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZSet {
    weights: FxMap<Tuple, i64>,
}

impl ZSet {
    /// The empty Z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `w` copies of `row` (negative `w` retracts). A borrowed row is
    /// cloned only when it enters; an entry whose weight cancels is
    /// removed; an entry already there keeps its first-seen spelling. The
    /// keys of a long-lived Z-set churn at a stationary size, so an entry
    /// that enters a full table rebuilds it rather than grow it
    /// ([`crate::fxhash::rebuild_if_full`]).
    pub fn add<'a>(&mut self, row: impl Into<Cow<'a, [Value]>>, w: i64) {
        if w == 0 {
            return;
        }
        let row = row.into();
        match self.weights.get_mut(row.as_ref()) {
            Some(slot) => {
                *slot += w;
                if *slot == 0 {
                    self.weights.remove(row.as_ref());
                }
            }
            None => {
                rebuild_if_full(&mut self.weights);
                self.weights.insert(row.into_owned(), w);
            }
        }
    }

    /// Pointwise sum: `self += other`. Z-set addition is commutative and
    /// associative, with cancellation (an insert then its retraction
    /// leaves the empty Z-set).
    pub fn merge(&mut self, other: &ZSet) {
        for (row, w) in other.iter() {
            self.add(row, w);
        }
    }

    /// Signed multiplicity of `row` (0 when absent).
    pub fn weight(&self, row: &[Value]) -> i64 {
        self.weights.get(row).copied().unwrap_or(0)
    }

    /// Number of distinct rows with nonzero weight.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no row has nonzero weight.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterate `(row, weight)` in unspecified (but deterministic) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, w)| (t, *w))
    }

    /// Every `(row, weight)` in row order.
    pub fn sorted(&self) -> Vec<(&Tuple, i64)> {
        let mut entries: Vec<_> = self.iter().collect();
        // Stored rows are pairwise unequal, so any sort is the sort.
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// The rows of positive weight, sorted: the set a Z-set of
    /// derivation counts denotes.
    pub fn support(&self) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> =
            self.weights.iter().filter(|(_, w)| **w > 0).map(|(t, _)| t.clone()).collect();
        rows.sort_unstable();
        rows
    }

    /// The positive part as a sorted bag [`Relation`]: each row repeated
    /// by its multiplicity.
    pub fn to_bag(&self, schema: RelSchema) -> Relation {
        let mut rows = Vec::new();
        for (t, w) in self.sorted() {
            for _ in 0..w.max(0) {
                rows.push(t.clone());
            }
        }
        Relation::with_rows(schema, rows)
    }
}

impl IntoIterator for ZSet {
    type Item = (Tuple, i64);
    type IntoIter = std::collections::hash_map::IntoIter<Tuple, i64>;

    fn into_iter(self) -> Self::IntoIter {
        self.weights.into_iter()
    }
}

impl<'a, R: Into<Cow<'a, [Value]>>> FromIterator<(R, i64)> for ZSet {
    /// Consolidate signed entries: repeated rows sum, and rows whose
    /// weights cancel are dropped.
    fn from_iter<I: IntoIterator<Item = (R, i64)>>(entries: I) -> Self {
        let mut z = ZSet::new();
        for (row, w) in entries {
            z.add(row, w);
        }
        z
    }
}

/// One round of changes: a [`ZSet`] per relation touched. All relations'
/// Z-sets take effect together, which is what lets a circuit's bilinear
/// joins get self-joins (the Δ⋈Δ term) right within one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZSetBatch {
    rels: BTreeMap<String, ZSet>,
}

impl ZSetBatch {
    /// The empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `w` copies of `row` to `relation`'s Z-set. A relation enters
    /// the batch with its first nonzero weight and stays, listed by
    /// [`ZSetBatch::relations`], even if its rows later cancel.
    pub fn add<'a>(&mut self, relation: &str, row: impl Into<Cow<'a, [Value]>>, w: i64) {
        if w == 0 {
            return;
        }
        match self.rels.get_mut(relation) {
            Some(z) => z.add(row, w),
            None => {
                self.rels.insert(relation.to_string(), ZSet::from_iter([(row, w)]));
            }
        }
    }

    /// Fold in the signed rows a catalog reported for one change.
    pub fn record(&mut self, change: &Change) {
        for (row, w) in change.rows() {
            self.add(change.relation(), row, w);
        }
    }

    /// Add another batch to this one, relation by relation.
    pub fn merge(&mut self, other: ZSetBatch) {
        for (relation, z) in other.rels {
            match self.rels.get_mut(&relation) {
                Some(mine) => mine.merge(&z),
                None => {
                    self.rels.insert(relation, z);
                }
            }
        }
    }

    /// The Z-set on one relation, if the batch touches it.
    pub fn get(&self, relation: &str) -> Option<&ZSet> {
        self.rels.get(relation)
    }

    /// Relations this batch touches, in order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// Total distinct changed rows across relations.
    pub fn len(&self) -> usize {
        self.rels.values().map(ZSet::len).sum()
    }

    /// True when every relation's Z-set is empty.
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(ZSet::is_empty)
    }
}

impl From<&Change<'_>> for ZSetBatch {
    /// The batch of one change's signed rows.
    fn from(change: &Change<'_>) -> Self {
        let mut batch = ZSetBatch::new();
        batch.record(change);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_map_churning_at_a_stationary_size_keeps_its_table() {
        // Fresh keys in, oldest out, 3 000 live throughout: the table may
        // rebuild, but never grows past what 3 000 entries need.
        let live = 3_000;
        let ceiling = FxMap::<Tuple, i64>::with_capacity_and_hasher(live + 1, Default::default())
            .capacity();
        let mut z = ZSet::new();
        for k in 0..200_000 {
            z.add(vec![Value::Int(k as i64)], 1);
            if k >= live {
                z.add(vec![Value::Int((k - live) as i64)], -1);
            }
            assert!(z.weights.capacity() <= ceiling, "table grew at key {k}");
        }
        assert_eq!(z.len(), live);
    }

    #[test]
    fn equal_rows_meet_in_their_first_spelling() {
        let mut z = ZSet::new();
        z.add(vec![Value::Float(2.0)], 1);
        let two = vec![Value::Int(2)];
        z.add(&two, 2);
        assert_eq!(z.weight(&two), 3);
        assert_eq!(format!("{:?}", z.sorted()), "[([Float(2.0)], 3)]");
        z.add(&[Value::Int(2)][..], -3);
        assert!(z.is_empty());
    }
}
