//! In-memory relations: bags of tuples under a [`RelSchema`].

use crate::column::ColumnarBatch;
use crate::schema::RelSchema;
use crate::stats::RelStats;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One row of a relation.
pub type Tuple = Vec<Value>;

/// A bag of tuples conforming to a schema.
///
/// Relations are bags, not sets — MANGROVE explicitly admits "partial,
/// redundant, or conflicting information" (§2.1), so duplicates are
/// preserved until [`Relation::distinct`] consumes the relation.
///
/// # Sharing
///
/// The rows live behind an `Arc`, together with a memo of what is
/// derived from them ([`Relation::stats`], [`Relation::batch`]). `Clone`
/// therefore costs a schema copy and one reference-count bump whatever
/// the cardinality, and every clone — a peer's stored relation, the copy
/// [`crate::SharedCatalog::snapshot`] stages for a query — reads the same
/// rows, the same statistics and the same columnar image. The statistics
/// in the memo are the only copy: [`crate::Catalog::rel_stats`] reads
/// them too.
///
/// Mutation is copy-on-write: [`Relation::insert`] and
/// [`Relation::delete`] work in place when this handle is the only one,
/// and otherwise copy the rows once and leave every other handle reading
/// what it was cloned from (snapshot isolation). Either way the mutated
/// handle's statistics, once computed, follow each write incrementally
/// (a copy takes them along), and its columnar image is dropped, so a
/// derived value can never describe rows other than the ones beside it.
/// The memo depends on the rows alone; `schema` may be renamed freely,
/// but its arity must stay the rows'.
#[derive(Clone)]
pub struct Relation {
    /// The schema this relation conforms to.
    pub schema: RelSchema,
    pub(crate) shared: Arc<Shared>,
}

/// What the clones of one relation share: the rows and, computed at most
/// once per row state, what is derived from them.
#[derive(Default)]
pub(crate) struct Shared {
    rows: Vec<Tuple>,
    stats: OnceLock<Arc<RelStats>>,
    batch: OnceLock<Arc<ColumnarBatch>>,
}

impl Clone for Shared {
    /// The copy half of copy-on-write: the rows and their statistics,
    /// which the caller's write moves on, but no columnar image.
    fn clone(&self) -> Self {
        Shared { rows: self.rows.clone(), stats: self.stats.clone(), ..Shared::default() }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: RelSchema) -> Self {
        Relation { schema, shared: Arc::default() }
    }

    /// Create a relation pre-filled with rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's.
    pub fn with_rows(schema: RelSchema, rows: Vec<Tuple>) -> Self {
        let rel = Relation { schema, shared: Arc::new(Shared { rows, ..Shared::default() }) };
        rel.check_arity(rel.rows()).unwrap_or_else(|e| panic!("{e}"));
        rel
    }

    /// Refuse rows whose arity is not the schema's, naming the first.
    pub fn check_arity<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r Tuple>,
    ) -> Result<(), ArityError> {
        let (relation, arity) = (&self.schema.name, self.schema.arity());
        match rows.into_iter().find(|row| row.len() != arity) {
            Some(row) => Err(ArityError { relation: relation.clone(), arity, row: row.len() }),
            None => Ok(()),
        }
    }

    /// The rows and memo for writing: unshared (copied first if another
    /// handle reads them) and without a columnar image. The caller moves
    /// the statistics, if computed, on with its write.
    fn write(&mut self) -> &mut Shared {
        let shared = Arc::make_mut(&mut self.shared);
        shared.batch.take();
        shared
    }

    /// Append a tuple.
    ///
    /// # Panics
    /// Panics if the tuple's arity differs from the schema's.
    pub fn insert(&mut self, row: Tuple) {
        self.check_arity([&row]).unwrap_or_else(|e| panic!("{e}"));
        let shared = self.write();
        if let Some(stats) = shared.stats.get_mut() {
            Arc::make_mut(stats).note_insert(&row);
        }
        shared.rows.push(row);
    }

    /// Remove every occurrence of `row`; returns how many were removed.
    pub fn delete(&mut self, row: &[Value]) -> usize {
        let mut found = [(row, 0)];
        self.count_copies(&mut found);
        self.remove_all(&found);
        found[0].1
    }

    /// Count, in one pass, the copies held of each row in `rows` (sorted,
    /// no two equal), adding each count beside its row. Every delete's
    /// multiplicities are counted here and nowhere else.
    pub fn count_copies(&self, rows: &mut [(&[Value], usize)]) {
        if rows.is_empty() {
            return;
        }
        for r in self.iter() {
            if let Ok(i) = rows.binary_search_by(|(d, _)| (*d).cmp(r.as_slice())) {
                rows[i].1 += 1;
            }
        }
    }

    /// Remove, in one pass, every copy of the rows [`Relation::count_copies`]
    /// counted. Writes nothing when it found none: a delete of absent rows
    /// must not copy shared rows or discard a memo that still holds.
    pub fn remove_all(&mut self, rows: &[(&[Value], usize)]) {
        if rows.iter().all(|(_, n)| *n == 0) {
            return;
        }
        let shared = self.write();
        shared.rows.retain(|r| rows.binary_search_by(|(d, _)| (*d).cmp(r.as_slice())).is_err());
        if let Some(stats) = shared.stats.get_mut().map(Arc::make_mut) {
            for &(row, n) in rows {
                stats.note_delete_n(row, n);
            }
        }
    }

    /// Statistics of the current rows, computed on first use, moved on by
    /// every write after, and shared by every clone until one of them is
    /// written to.
    pub fn stats(&self) -> Arc<RelStats> {
        Arc::clone(self.stats_memo())
    }

    pub(crate) fn stats_memo(&self) -> &Arc<RelStats> {
        self.shared.stats.get_or_init(|| Arc::new(RelStats::compute(self)))
    }

    /// The columnar image of the current rows (see [`ColumnarBatch`]),
    /// pivoted on first use and shared by every clone until one of them
    /// is mutated. The row→column pivot — dictionary-encoding every
    /// string cell in particular — costs about as much as scanning the
    /// relation, so the vectorized engine must not pay it per evaluation:
    /// queries against unchanged data, however many catalogs the relation
    /// was staged into on the way, read one immutable image.
    pub fn batch(&self) -> Arc<ColumnarBatch> {
        Arc::clone(self.shared.batch.get_or_init(|| Arc::new(ColumnarBatch::from_relation(self))))
    }

    /// Number of tuples (bag cardinality).
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.shared.rows
    }

    /// Iterate over rows.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows().iter()
    }

    /// Consume into rows: moved out when this is the only handle, cloned
    /// when the rows are shared.
    pub fn into_rows(self) -> Vec<Tuple> {
        Arc::try_unwrap(self.shared).map_or_else(|shared| shared.rows.clone(), |shared| shared.rows)
    }

    /// True if `row` occurs at least once.
    pub fn contains(&self, row: &Tuple) -> bool {
        self.iter().any(|r| r == row)
    }

    /// Bag-preserving sorted copy: same multiset of rows in a canonical
    /// order. Two evaluations are bag-equivalent iff their `sorted()`
    /// rows are equal — what the differential query oracle compares.
    pub fn sorted(&self) -> Relation {
        let mut rows = self.rows().to_vec();
        rows.sort();
        Relation::with_rows(self.schema.clone(), rows)
    }

    /// Set semantics: rows sorted, duplicates removed. Sorts in place when
    /// this handle is the only one and copies the rows once when they are
    /// shared (copy-on-write, as for any write). Of rows that compare
    /// equal but are spelled differently — `Int(2)` and `Float(2.0)` — the
    /// last one in the bag is kept, as collecting into a `BTreeSet` keeps
    /// it, so answers are byte-identical to that older implementation.
    pub fn distinct(mut self) -> Relation {
        let shared = self.write();
        shared.stats.take();
        let rows = &mut shared.rows;
        rows.sort();
        rows.dedup_by(|later, kept| {
            let equal = later == kept;
            if equal {
                std::mem::swap(later, kept);
            }
            equal
        });
        self
    }

    /// The column at attribute position `idx` as a vector.
    pub fn column(&self, idx: usize) -> Vec<&Value> {
        self.iter().map(|r| &r[idx]).collect()
    }

    /// Sample up to `n` distinct values of the named attribute — the
    /// "sets of data instances" the corpus keeps composite statistics on
    /// (§4.2.2).
    pub fn sample_values(&self, attr: &str, n: usize) -> Vec<Value> {
        let Some(idx) = self.schema.position(attr) else {
            return Vec::new();
        };
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for row in self.iter() {
            if seen.insert(row[idx].clone()) {
                out.push(row[idx].clone());
                if out.len() >= n {
                    break;
                }
            }
        }
        out
    }
}

/// A row whose arity is not its relation's. A change that carries one is
/// refused whole, before anything is journaled or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError {
    relation: String,
    arity: usize,
    row: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "relation {} has arity {}, row has {}", self.relation, self.arity, self.row)
    }
}

impl std::error::Error for ArityError {}

impl fmt::Display for Relation {
    /// Prints an ASCII table; used by examples and the `report` binary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<&str> = self.schema.attr_names().collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:width$} |", c, width = widths[i])?;
            }
            writeln!(f)
        };
        writeln!(f, "{} ({} rows)", self.schema.name, self.len())?;
        line(f, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn rel() -> Relation {
        let mut r = Relation::new(RelSchema::text("course", &["title", "dept"]));
        r.insert(vec![Value::str("Databases"), Value::str("CS")]);
        r.insert(vec![Value::str("Ancient Greece"), Value::str("History")]);
        r.insert(vec![Value::str("Databases"), Value::str("CS")]);
        r
    }

    #[test]
    fn bag_semantics_preserve_duplicates() {
        let r = rel();
        assert_eq!(r.len(), 3);
        assert_eq!(r.distinct().len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = rel();
        r.insert(vec![Value::str("only one")]);
    }

    #[test]
    fn delete_removes_all_occurrences() {
        let mut r = rel();
        let n = r.delete(&vec![Value::str("Databases"), Value::str("CS")]);
        assert_eq!(n, 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sample_values_dedups_in_order() {
        let r = rel();
        let vals = r.sample_values("title", 10);
        assert_eq!(vals, vec![Value::str("Databases"), Value::str("Ancient Greece")]);
        assert_eq!(r.sample_values("title", 1).len(), 1);
        assert!(r.sample_values("nonexistent", 5).is_empty());
    }

    #[test]
    fn display_renders_table() {
        let s = rel().to_string();
        assert!(s.contains("| title"));
        assert!(s.contains("Ancient Greece"));
        assert!(s.starts_with("course (3 rows)"));
    }
}
