//! Typed column vectors, dictionary-encoded strings, and selection
//! bitmaps — the columnar storage layer under the vectorized evaluator
//! (`revere_query::vec`).
//!
//! A [`ColumnarBatch`] is a [`Relation`] pivoted into one [`ColumnVec`]
//! per attribute. Columns are *typed when the data allows it*: an
//! all-integer column becomes a dense `Vec<i64>`, an all-string column is
//! dictionary-encoded (first-seen-order dictionary + `u32` codes), and
//! everything else (nulls, bools, floats, mixed types) falls back to a
//! plain `Vec<Value>`. The conversion is exact: `get` reconstructs the
//! original [`Value`] byte for byte, so the batch layer can sit under the
//! evaluator without changing any answer.
//!
//! **Correctness rule for typed fast paths.** [`Value`] equality is
//! *numeric* across `Int` and `Float` (`Value::Int(2) == Value::Float(2.0)`),
//! and `Value`'s `Hash` agrees with it. Typed code paths (integer
//! compares, dictionary-code compares) are therefore only sound when
//! *both* operands are the same concrete variant; every cross-variant
//! comparison in this module routes through `Value` semantics. The
//! differential gate (`tests/differential_vec.rs`) holds the vectorized
//! engine to the row engine on exactly these cases.
//!
//! A [`SelBitmap`] is one bit per row of a batch, with the small algebra
//! (`and`/`or`/`not`, `rank`/`select`) filters and scans compose over.

use crate::relation::{Relation, Tuple};
use crate::schema::RelSchema;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A selection bitmap: one bit per row, set = selected. Bits beyond
/// `len` are kept zero so whole-word operations (`and`, `or`, `not`,
/// `count_ones`) never see ghost rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelBitmap {
    /// An all-zeros bitmap over `len` rows.
    pub fn none(len: usize) -> SelBitmap {
        SelBitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// An all-ones bitmap over `len` rows.
    pub fn all(len: usize) -> SelBitmap {
        let mut b = SelBitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.mask_tail();
        b
    }

    /// A bitmap with exactly the given row indices set.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_indices(len: usize, indices: &[u32]) -> SelBitmap {
        let mut b = SelBitmap::none(len);
        for &i in indices {
            b.set(i as usize);
        }
        b
    }

    /// Number of rows the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero every bit at or past `len`.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Bitwise intersection.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and(&self, other: &SelBitmap) -> SelBitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        SelBitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect(),
            len: self.len,
        }
    }

    /// Bitwise union.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or(&self, other: &SelBitmap) -> SelBitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        SelBitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect(),
            len: self.len,
        }
    }

    /// Bitwise complement (over the `len` live rows only).
    pub fn not(&self) -> SelBitmap {
        let mut b =
            SelBitmap { words: self.words.iter().map(|w| !w).collect(), len: self.len };
        b.mask_tail();
        b
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of selected rows strictly before `i` (ones in `[0, i)`).
    ///
    /// # Panics
    /// Panics if `i > len`.
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank {i} out of range {}", self.len);
        let mut ones = self.words[..i / 64].iter().map(|w| w.count_ones() as usize).sum();
        if i % 64 != 0 {
            ones += (self.words[i / 64] & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        ones
    }

    /// Row index of the `k`-th selected row (0-based), or `None` when
    /// fewer than `k + 1` rows are selected. Inverse of [`SelBitmap::rank`]:
    /// `select(rank(i)) == Some(i)` for every selected `i`.
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                let mut w = w;
                for _ in 0..remaining {
                    w &= w - 1; // clear lowest set bit
                }
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// The selected row indices, ascending.
    pub fn ones(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push((wi * 64 + w.trailing_zeros() as usize) as u32);
                w &= w - 1;
            }
        }
        out
    }
}

/// The dictionary of a [`ColumnVec::Str`] column: its distinct strings in
/// first-seen order. Entries are the cells' own `Arc<str>`s, so
/// [`ColumnVec::get`] hands a string back out by reference count, and the
/// whole dictionary is shared by every column gathered from this one.
pub type Dictionary = Arc<Vec<Arc<str>>>;

/// One column of a batch, stored as the tightest representation the data
/// admits. See the module docs for the cross-type correctness rule.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Every cell is `Value::Int`.
    Int(Vec<i64>),
    /// Every cell is `Value::Str`, dictionary-encoded. The dictionary is
    /// deduplicated in first-seen order, so within one dictionary code
    /// equality is string equality; across dictionaries codes must be
    /// translated (see `Arc` sharing in [`ColumnVec::gather`]).
    Str {
        /// The distinct strings, in first-seen order.
        dict: Dictionary,
        /// Per-row index into `dict`.
        codes: Vec<u32>,
    },
    /// Anything else: nulls, bools, floats, or mixed types.
    Any(Vec<Value>),
}

impl ColumnVec {
    /// Build a column from a slice of values, picking the tightest
    /// representation ([`ColumnVec::Int`] if all-int, dictionary-encoded
    /// [`ColumnVec::Str`] if all-string, else [`ColumnVec::Any`]).
    pub fn from_values(vals: &[Value]) -> ColumnVec {
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Int(_))) {
            return ColumnVec::Int(
                vals.iter().map(|v| v.as_int().expect("all-int column")).collect(),
            );
        }
        if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Str(_))) {
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut positions: HashMap<&str, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(vals.len());
            for v in vals {
                let Value::Str(s) = v else { unreachable!("all-str column") };
                let code = *positions.entry(s).or_insert_with(|| {
                    dict.push(Arc::clone(s));
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            return ColumnVec::Str { dict: Arc::new(dict), codes };
        }
        ColumnVec::Any(vals.to_vec())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Str { codes, .. } => codes.len(),
            ColumnVec::Any(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at row `i`, reconstructed as a [`Value`] (exact
    /// round-trip of what the column was built from).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Str { dict, codes } => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            ColumnVec::Any(v) => v[i].clone(),
        }
    }

    /// The whole column back as values (exact round-trip).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Append one value, promoting the representation when the new value
    /// does not fit the current one (`Int` + a string ⇒ `Any`, etc.).
    /// Bulk loads should prefer [`ColumnVec::from_values`], which picks
    /// the representation once.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColumnVec::Int(ints), Value::Int(i)) => ints.push(i),
            (ColumnVec::Str { dict, codes }, Value::Str(s)) => {
                let code = match dict.iter().position(|d| *d == s) {
                    Some(p) => p as u32,
                    None => {
                        let d = Arc::make_mut(dict);
                        d.push(s);
                        (d.len() - 1) as u32
                    }
                };
                codes.push(code);
            }
            (_, v) => {
                let mut vals = self.to_values();
                vals.push(v);
                // An empty column re-detects its representation from the
                // first pushed value; a mismatched push demotes to Any.
                *self = if self.is_empty() {
                    ColumnVec::from_values(&vals)
                } else {
                    ColumnVec::Any(vals)
                };
            }
        }
    }

    /// The dense integer slice, when this is an `Int` column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            ColumnVec::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary and code slice, when this is a `Str` column.
    pub fn as_dict(&self) -> Option<(&Dictionary, &[u32])> {
        match self {
            ColumnVec::Str { dict, codes } => Some((dict, codes)),
            _ => None,
        }
    }

    /// Rows equal to a constant, under [`Value`] equality semantics
    /// (numeric across `Int`/`Float`; see module docs).
    pub fn eq_const(&self, c: &Value) -> SelBitmap {
        let mut sel = SelBitmap::none(self.len());
        match self {
            ColumnVec::Int(v) => {
                // An Int column can only match Int constants or Float
                // constants that are exactly an integer.
                let target = match c {
                    Value::Int(i) => Some(*i),
                    Value::Float(f) if Value::Int(*f as i64) == *c => Some(*f as i64),
                    _ => None,
                };
                if let Some(t) = target {
                    for (i, x) in v.iter().enumerate() {
                        if *x == t {
                            sel.set(i);
                        }
                    }
                }
            }
            ColumnVec::Str { dict, codes } => {
                if let Some(target) =
                    c.as_str().and_then(|s| dict.iter().position(|d| &**d == s))
                {
                    let target = target as u32;
                    for (i, code) in codes.iter().enumerate() {
                        if *code == target {
                            sel.set(i);
                        }
                    }
                }
            }
            ColumnVec::Any(v) => {
                for (i, x) in v.iter().enumerate() {
                    if x == c {
                        sel.set(i);
                    }
                }
            }
        }
        sel
    }

    /// Rows where this column equals `other` at the same row (both
    /// columns must be the same length) — the within-atom repeated-
    /// variable filter of the vectorized engine.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn eq_elementwise(&self, other: &ColumnVec) -> SelBitmap {
        assert_eq!(self.len(), other.len(), "column length mismatch");
        let mut sel = SelBitmap::none(self.len());
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => {
                for i in 0..a.len() {
                    if a[i] == b[i] {
                        sel.set(i);
                    }
                }
            }
            (
                ColumnVec::Str { dict: da, codes: ca },
                ColumnVec::Str { dict: db, codes: cb },
            ) => {
                if Arc::ptr_eq(da, db) {
                    for i in 0..ca.len() {
                        if ca[i] == cb[i] {
                            sel.set(i);
                        }
                    }
                } else {
                    // Translate the other dictionary's codes into this
                    // one once, then compare codes.
                    let trans: Vec<Option<u32>> = db
                        .iter()
                        .map(|s| da.iter().position(|d| d == s).map(|p| p as u32))
                        .collect();
                    for i in 0..ca.len() {
                        if trans[cb[i] as usize] == Some(ca[i]) {
                            sel.set(i);
                        }
                    }
                }
            }
            _ => {
                for i in 0..self.len() {
                    if self.eq_at(i, other, i) {
                        sel.set(i);
                    }
                }
            }
        }
        sel
    }

    /// Does `self[i]` equal `other[j]` under [`Value`] semantics? No
    /// allocation on any variant pair.
    pub fn eq_at(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a[i] == b[j],
            (
                ColumnVec::Str { dict: da, codes: ca },
                ColumnVec::Str { dict: db, codes: cb },
            ) => {
                if Arc::ptr_eq(da, db) {
                    ca[i] == cb[j]
                } else {
                    da[ca[i] as usize] == db[cb[j] as usize]
                }
            }
            (ColumnVec::Any(a), ColumnVec::Any(b)) => a[i] == b[j],
            (ColumnVec::Int(a), ColumnVec::Any(b)) => Value::Int(a[i]) == b[j],
            (ColumnVec::Any(a), ColumnVec::Int(b)) => a[i] == Value::Int(b[j]),
            (ColumnVec::Str { dict, codes }, ColumnVec::Any(b)) => {
                b[j].as_str() == Some(&*dict[codes[i] as usize])
            }
            (ColumnVec::Any(a), ColumnVec::Str { dict, codes }) => {
                a[i].as_str() == Some(&*dict[codes[j] as usize])
            }
            // Int vs Str never compare equal (distinct type ranks).
            (ColumnVec::Int(_), ColumnVec::Str { .. })
            | (ColumnVec::Str { .. }, ColumnVec::Int(_)) => false,
        }
    }

    /// The rows at `idx`, in `idx` order, as a new column. Preserves the
    /// representation; `Str` gathers share the dictionary `Arc`, so codes
    /// stay comparable across a gather without translation.
    pub fn gather(&self, idx: &[u32]) -> ColumnVec {
        match self {
            ColumnVec::Int(v) => {
                ColumnVec::Int(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnVec::Str { dict, codes } => ColumnVec::Str {
                dict: Arc::clone(dict),
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
            },
            ColumnVec::Any(v) => {
                ColumnVec::Any(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// The selected rows, in row order, as a new column. Equivalent to
    /// `gather(&sel.ones())`.
    ///
    /// # Panics
    /// Panics if the bitmap length differs from the column length.
    pub fn filter(&self, sel: &SelBitmap) -> ColumnVec {
        assert_eq!(self.len(), sel.len(), "bitmap/column length mismatch");
        self.gather(&sel.ones())
    }
}

/// A [`Relation`] pivoted into columns: the unit the vectorized evaluator
/// scans, filters, and joins.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnarBatch {
    /// Pivot a relation into columns (the batch append path: one pass
    /// per column, typed representations chosen per column).
    pub fn from_relation(rel: &Relation) -> ColumnarBatch {
        let arity = rel.schema.arity();
        let columns = (0..arity)
            .map(|j| {
                let vals: Vec<Value> = rel.iter().map(|r| r[j].clone()).collect();
                ColumnVec::from_values(&vals)
            })
            .collect();
        ColumnarBatch { columns, rows: rel.len() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    /// Row `i` back as a tuple (exact round-trip).
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// The whole batch back as a relation under `schema` (exact
    /// round-trip of [`ColumnarBatch::from_relation`]).
    ///
    /// # Panics
    /// Panics if the schema arity differs from the batch's.
    pub fn to_relation(&self, schema: RelSchema) -> Relation {
        assert_eq!(schema.arity(), self.columns.len(), "schema arity mismatch");
        Relation::with_rows(schema, (0..self.rows).map(|i| self.row(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_algebra_basics() {
        let mut a = SelBitmap::none(70);
        for i in [0, 3, 63, 64, 69] {
            a.set(i);
        }
        assert_eq!(a.count_ones(), 5);
        assert_eq!(a.ones(), vec![0, 3, 63, 64, 69]);
        assert!(a.get(64) && !a.get(65));
        let b = SelBitmap::from_indices(70, &[3, 65]);
        assert_eq!(a.and(&b).ones(), vec![3]);
        assert_eq!(a.or(&b).count_ones(), 6);
        assert_eq!(a.not().count_ones(), 65);
        assert_eq!(a.not().not(), a);
        assert_eq!(SelBitmap::all(70).count_ones(), 70);
    }

    #[test]
    fn bitmap_rank_select_are_inverse() {
        let bits = SelBitmap::from_indices(130, &[0, 1, 64, 100, 129]);
        for (k, &i) in [0u32, 1, 64, 100, 129].iter().enumerate() {
            assert_eq!(bits.select(k), Some(i as usize));
            assert_eq!(bits.rank(i as usize), k);
        }
        assert_eq!(bits.select(5), None);
        assert_eq!(bits.rank(130), 5);
    }

    #[test]
    fn int_column_round_trips() {
        let vals = vec![Value::Int(3), Value::Int(-1), Value::Int(3)];
        let col = ColumnVec::from_values(&vals);
        assert!(matches!(col, ColumnVec::Int(_)));
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn str_column_dictionary_encodes() {
        let vals: Vec<Value> = ["a", "b", "a", "a"].iter().map(|s| Value::str(*s)).collect();
        let col = ColumnVec::from_values(&vals);
        let (dict, codes) = col.as_dict().expect("str column");
        assert_eq!(dict.as_slice(), &[Arc::from("a"), Arc::from("b")]);
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn mixed_column_falls_back_to_any() {
        let vals = vec![Value::Int(1), Value::Null, Value::Float(2.5), Value::Bool(true)];
        let col = ColumnVec::from_values(&vals);
        assert!(matches!(col, ColumnVec::Any(_)));
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn push_promotes_representation() {
        let mut col = ColumnVec::from_values(&[Value::Int(1), Value::Int(2)]);
        col.push(Value::str("x"));
        assert!(matches!(col, ColumnVec::Any(_)));
        assert_eq!(col.to_values(), vec![Value::Int(1), Value::Int(2), Value::str("x")]);
        let mut strs = ColumnVec::from_values(&[Value::str("a")]);
        strs.push(Value::str("b"));
        strs.push(Value::str("a"));
        assert_eq!(strs.as_dict().unwrap().1, &[0, 1, 0]);
    }

    #[test]
    fn eq_const_matches_value_semantics() {
        let ints = ColumnVec::from_values(&[Value::Int(2), Value::Int(3)]);
        // Cross-type numeric equality: Float(2.0) selects Int(2).
        assert_eq!(ints.eq_const(&Value::Float(2.0)).ones(), vec![0]);
        assert_eq!(ints.eq_const(&Value::Float(2.5)).count_ones(), 0);
        assert_eq!(ints.eq_const(&Value::str("2")).count_ones(), 0);
        let strs = ColumnVec::from_values(&[Value::str("a"), Value::str("b")]);
        assert_eq!(strs.eq_const(&Value::str("b")).ones(), vec![1]);
        assert_eq!(strs.eq_const(&Value::str("zzz")).count_ones(), 0);
        let any = ColumnVec::from_values(&[Value::Float(2.0), Value::Null]);
        assert_eq!(any.eq_const(&Value::Int(2)).ones(), vec![0]);
    }

    /// The typed Int path selects exactly what `Value` equality selects at
    /// the edges a float-to-int conversion blurs: `-0.0`, 2⁶³ and NaN.
    #[test]
    fn eq_const_on_int_column_is_value_equality_at_the_edges() {
        let vals = [Value::Int(0), Value::Int(i64::MAX), Value::Int(i64::MIN)];
        let ints = ColumnVec::from_values(&vals);
        for c in [-0.0, 0.0, 9_223_372_036_854_775_808.0, -9_223_372_036_854_775_808.0, f64::NAN] {
            let c = Value::Float(c);
            let expect: Vec<u32> = (0..3).filter(|&i| vals[i as usize] == c).collect();
            assert_eq!(ints.eq_const(&c).ones(), expect, "{c:?}");
        }
    }

    #[test]
    fn eq_elementwise_crosses_dictionaries() {
        let a = ColumnVec::from_values(&[Value::str("x"), Value::str("y")]);
        let b = ColumnVec::from_values(&[Value::str("y"), Value::str("y")]);
        assert_eq!(a.eq_elementwise(&b).ones(), vec![1]);
        let ints = ColumnVec::from_values(&[Value::Int(2), Value::Int(7)]);
        let mixed = ColumnVec::from_values(&[Value::Float(2.0), Value::str("7")]);
        assert_eq!(ints.eq_elementwise(&mixed).ones(), vec![0]);
    }

    #[test]
    fn gather_preserves_dictionary() {
        let col = ColumnVec::from_values(&[Value::str("a"), Value::str("b"), Value::str("c")]);
        let g = col.gather(&[2, 0, 2]);
        let (d0, _) = col.as_dict().unwrap();
        let (d1, codes) = g.as_dict().unwrap();
        assert!(Arc::ptr_eq(d0, d1));
        assert_eq!(codes, &[2, 0, 2]);
        assert_eq!(g.to_values(), vec![Value::str("c"), Value::str("a"), Value::str("c")]);
    }

    #[test]
    fn batch_round_trips_relation() {
        let mut r = Relation::new(RelSchema::text("t", &["s", "n"]));
        r.insert(vec![Value::str("a"), Value::Int(1)]);
        r.insert(vec![Value::str("b"), Value::Null]);
        let batch = ColumnarBatch::from_relation(&r);
        assert_eq!(batch.rows(), 2);
        assert!(matches!(batch.column(0), ColumnVec::Str { .. }));
        assert!(matches!(batch.column(1), ColumnVec::Any(_)));
        assert_eq!(batch.to_relation(r.schema.clone()), r);
    }
}
