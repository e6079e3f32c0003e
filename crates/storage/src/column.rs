//! Typed column vectors and dictionary-encoded strings — the columnar
//! storage layer under the vectorized evaluator (`revere_query::vec`).
//!
//! A [`ColumnarBatch`] is a [`Relation`] pivoted into one [`ColumnVec`]
//! per attribute. Columns are *typed when the data allows it*: an
//! all-integer column becomes a dense `Vec<i64>`, an all-string column is
//! dictionary-encoded (a first-seen-order [`Dictionary`] + `u32` codes),
//! and everything else (nulls, bools, floats, mixed types) falls back to
//! a plain `Vec<Value>`. The conversion is exact: `get` reconstructs the
//! original [`Value`] byte for byte, so the batch layer can sit under the
//! evaluator without changing any answer.
//!
//! **Dictionary ranks.** Codes are assigned in first-seen order, so they
//! answer equality but not order. A [`Dictionary`] also keeps each
//! string's rank in string order ([`Dictionary::ranks`]), sorted once on
//! first use: `ranks[a] < ranks[b]` exactly when string `a` sorts before
//! string `b`. Every column gathered from a column shares its dictionary
//! `Arc`, and a relation's columnar image is memoised per row state
//! ([`Relation::batch`]), so a static relation ranks each dictionary
//! once, however many evaluations order their answers by it.
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
//! A selection is an ascending `Vec<u32>` of row indices. The two
//! filters, [`ColumnVec::retain_eq_const`] and [`ColumnVec::retain_eq`],
//! each narrow one in place, and [`ColumnVec::gather`] reads it out.

use crate::fxhash::FxMap;
use crate::relation::Relation;
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// The dictionary of a [`ColumnVec::Str`] column: its distinct strings in
/// first-seen order (a cell's code is its string's position) and, once
/// asked for, their ranks in string order. Entries are the cells' own
/// `Arc<str>`s, so [`ColumnVec::get`] hands a string back out by
/// reference count, and the whole dictionary is shared by every column
/// gathered from this one.
#[derive(Debug)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
    ranks: OnceLock<Vec<u32>>,
}

impl Dictionary {
    /// The distinct strings, in first-seen order: `strings()[code]`.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// `ranks()[code]`: the position of `code`'s string among this
    /// dictionary's strings in string order, so codes order as their
    /// strings do when compared by rank. Sorted on first use and kept.
    pub fn ranks(&self) -> &[u32] {
        self.ranks.get_or_init(|| {
            let strings = &self.strings;
            let mut order: Vec<u32> = (0..strings.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| strings[a as usize].cmp(&strings[b as usize]));
            let mut ranks = vec![0; order.len()];
            for (rank, &code) in order.iter().enumerate() {
                ranks[code as usize] = rank as u32;
            }
            ranks
        })
    }

    /// `translate(from)[code]`: this dictionary's code for the string
    /// `from` encodes as `code`, or `None` when this one never saw it.
    /// One hash map over this dictionary, one lookup per `from` entry.
    pub fn translate(&self, from: &Dictionary) -> Vec<Option<u32>> {
        if std::ptr::eq(self, from) {
            return (0..self.strings.len() as u32).map(Some).collect();
        }
        let codes: FxMap<&str, u32> =
            self.strings.iter().enumerate().map(|(i, s)| (&**s, i as u32)).collect();
        from.strings.iter().map(|s| codes.get(&**s).copied()).collect()
    }
}

impl PartialEq for Dictionary {
    /// The same strings under the same codes; the ranks follow from them.
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
    }
}

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
        dict: Arc<Dictionary>,
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
        ColumnVec::from_cells(vals.iter())
    }

    /// [`ColumnVec::from_values`] over borrowed cells: a string cell is
    /// cloned once, into the dictionary, and only if it is new there.
    fn from_cells<'a, I>(cells: I) -> ColumnVec
    where
        I: ExactSizeIterator<Item = &'a Value> + Clone,
    {
        let n = cells.len();
        if n > 0 && cells.clone().all(|v| matches!(v, Value::Int(_))) {
            return ColumnVec::Int(cells.map(|v| v.as_int().expect("all-int column")).collect());
        }
        if n > 0 && cells.clone().all(|v| matches!(v, Value::Str(_))) {
            let mut strings: Vec<Arc<str>> = Vec::new();
            let mut positions: FxMap<&str, u32> = FxMap::default();
            let mut codes = Vec::with_capacity(n);
            for v in cells {
                let Value::Str(s) = v else { unreachable!("all-str column") };
                let code = *positions.entry(s).or_insert_with(|| {
                    strings.push(Arc::clone(s));
                    (strings.len() - 1) as u32
                });
                codes.push(code);
            }
            let dict = Arc::new(Dictionary { strings, ranks: OnceLock::new() });
            return ColumnVec::Str { dict, codes };
        }
        ColumnVec::Any(cells.cloned().collect())
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
            ColumnVec::Str { dict, codes } => {
                Value::Str(Arc::clone(&dict.strings[codes[i] as usize]))
            }
            ColumnVec::Any(v) => v[i].clone(),
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
    pub fn as_dict(&self) -> Option<(&Arc<Dictionary>, &[u32])> {
        match self {
            ColumnVec::Str { dict, codes } => Some((dict, codes)),
            _ => None,
        }
    }

    /// Keep the rows of `rows` whose cell equals `c` under [`Value`]
    /// equality semantics (numeric across `Int`/`Float`; see module docs),
    /// in their order: the pushed-constant filter of the vectorized engine.
    pub fn retain_eq_const(&self, c: &Value, rows: &mut Vec<u32>) {
        match self {
            ColumnVec::Int(v) => {
                // An Int column can only match Int constants or Float
                // constants that are exactly an integer.
                let target = match c {
                    Value::Int(i) => Some(*i),
                    Value::Float(f) if Value::Int(*f as i64) == *c => Some(*f as i64),
                    _ => None,
                };
                match target {
                    Some(t) => rows.retain(|&r| v[r as usize] == t),
                    None => rows.clear(),
                }
            }
            ColumnVec::Str { dict, codes } => {
                match c.as_str().and_then(|s| dict.strings.iter().position(|d| &**d == s)) {
                    Some(t) => rows.retain(|&r| codes[r as usize] == t as u32),
                    None => rows.clear(),
                }
            }
            ColumnVec::Any(v) => rows.retain(|&r| v[r as usize] == *c),
        }
    }

    /// Keep the rows of `rows` where this column equals `other` at the
    /// same row, in their order: the within-atom repeated-variable filter
    /// of the vectorized engine.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn retain_eq(&self, other: &ColumnVec, rows: &mut Vec<u32>) {
        assert_eq!(self.len(), other.len(), "column length mismatch");
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => {
                rows.retain(|&r| a[r as usize] == b[r as usize]);
            }
            (
                ColumnVec::Str { dict: da, codes: ca },
                ColumnVec::Str { dict: db, codes: cb },
            ) => {
                // Translate the other dictionary's codes into this one
                // once, then compare codes.
                let trans = da.translate(db);
                rows.retain(|&r| trans[cb[r as usize] as usize] == Some(ca[r as usize]));
            }
            (ColumnVec::Any(a), ColumnVec::Any(b)) => {
                rows.retain(|&r| a[r as usize] == b[r as usize]);
            }
            (ColumnVec::Int(a), ColumnVec::Any(b)) | (ColumnVec::Any(b), ColumnVec::Int(a)) => {
                rows.retain(|&r| b[r as usize] == Value::Int(a[r as usize]));
            }
            (ColumnVec::Str { dict, codes }, ColumnVec::Any(b))
            | (ColumnVec::Any(b), ColumnVec::Str { dict, codes }) => {
                rows.retain(|&r| {
                    b[r as usize].as_str() == Some(&*dict.strings[codes[r as usize] as usize])
                });
            }
            // Int vs Str never compare equal (distinct type ranks).
            (ColumnVec::Int(_), ColumnVec::Str { .. })
            | (ColumnVec::Str { .. }, ColumnVec::Int(_)) => rows.clear(),
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
            .map(|j| ColumnVec::from_cells(rel.rows().iter().map(move |r| &r[j])))
            .collect();
        ColumnarBatch { columns, rows: rel.len() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn values(col: &ColumnVec) -> Vec<Value> {
        (0..col.len()).map(|i| col.get(i)).collect()
    }

    /// The rows of `col` equal to `c`, narrowed from every row.
    fn kept_eq_const(col: &ColumnVec, c: &Value) -> Vec<u32> {
        let mut rows = (0..col.len() as u32).collect();
        col.retain_eq_const(c, &mut rows);
        rows
    }

    /// The rows where `a` equals `b`, narrowed from every row.
    fn kept_eq(a: &ColumnVec, b: &ColumnVec) -> Vec<u32> {
        let mut rows = (0..a.len() as u32).collect();
        a.retain_eq(b, &mut rows);
        rows
    }

    #[test]
    fn int_column_round_trips() {
        let vals = vec![Value::Int(3), Value::Int(-1), Value::Int(3)];
        let col = ColumnVec::from_values(&vals);
        assert!(matches!(col, ColumnVec::Int(_)));
        assert_eq!(values(&col), vals);
    }

    #[test]
    fn str_column_dictionary_encodes() {
        let vals: Vec<Value> = ["a", "b", "a", "a"].iter().map(|s| Value::str(*s)).collect();
        let col = ColumnVec::from_values(&vals);
        let (dict, codes) = col.as_dict().expect("str column");
        assert_eq!(dict.strings(), &[Arc::from("a"), Arc::from("b")]);
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(values(&col), vals);
    }

    #[test]
    fn mixed_column_falls_back_to_any() {
        let vals = vec![Value::Int(1), Value::Null, Value::Float(2.5), Value::Bool(true)];
        let col = ColumnVec::from_values(&vals);
        assert!(matches!(col, ColumnVec::Any(_)));
        assert_eq!(values(&col), vals);
    }

    #[test]
    fn eq_const_matches_value_semantics() {
        let ints = ColumnVec::from_values(&[Value::Int(2), Value::Int(3)]);
        // Cross-type numeric equality: Float(2.0) keeps Int(2).
        assert_eq!(kept_eq_const(&ints, &Value::Float(2.0)), vec![0]);
        assert!(kept_eq_const(&ints, &Value::Float(2.5)).is_empty());
        assert!(kept_eq_const(&ints, &Value::str("2")).is_empty());
        let strs = ColumnVec::from_values(&[Value::str("a"), Value::str("b")]);
        assert_eq!(kept_eq_const(&strs, &Value::str("b")), vec![1]);
        assert!(kept_eq_const(&strs, &Value::str("zzz")).is_empty());
        let any = ColumnVec::from_values(&[Value::Float(2.0), Value::Null]);
        assert_eq!(kept_eq_const(&any, &Value::Int(2)), vec![0]);
        // A narrowed list only shrinks, keeping its order.
        let mut rows = vec![1];
        ints.retain_eq_const(&Value::Int(2), &mut rows);
        assert!(rows.is_empty());
    }

    /// The typed Int path keeps exactly what `Value` equality keeps at
    /// the edges a float-to-int conversion blurs: `-0.0`, 2⁶³ and NaN.
    #[test]
    fn eq_const_on_int_column_is_value_equality_at_the_edges() {
        let vals = [Value::Int(0), Value::Int(i64::MAX), Value::Int(i64::MIN)];
        let ints = ColumnVec::from_values(&vals);
        for c in [-0.0, 0.0, 9_223_372_036_854_775_808.0, -9_223_372_036_854_775_808.0, f64::NAN] {
            let c = Value::Float(c);
            let expect: Vec<u32> = (0..3).filter(|&i| vals[i as usize] == c).collect();
            assert_eq!(kept_eq_const(&ints, &c), expect, "{c:?}");
        }
    }

    #[test]
    fn eq_elementwise_crosses_dictionaries() {
        let a = ColumnVec::from_values(&[Value::str("x"), Value::str("y")]);
        let b = ColumnVec::from_values(&[Value::str("y"), Value::str("y")]);
        assert_eq!(kept_eq(&a, &b), vec![1]);
        let ints = ColumnVec::from_values(&[Value::Int(2), Value::Int(7)]);
        let mixed = ColumnVec::from_values(&[Value::Float(2.0), Value::str("7")]);
        assert_eq!(kept_eq(&ints, &mixed), vec![0]);
    }

    #[test]
    fn gather_preserves_dictionary() {
        let col = ColumnVec::from_values(&[Value::str("a"), Value::str("b"), Value::str("c")]);
        let g = col.gather(&[2, 0, 2]);
        let (d0, _) = col.as_dict().unwrap();
        let (d1, codes) = g.as_dict().unwrap();
        assert!(Arc::ptr_eq(d0, d1));
        assert_eq!(codes, &[2, 0, 2]);
        assert_eq!(values(&g), vec![Value::str("c"), Value::str("a"), Value::str("c")]);
    }

    /// Ranks order a dictionary's strings whatever order they arrived
    /// in, and a gathered column reads the same rank table.
    #[test]
    fn ranks_order_the_dictionary_and_gathers_share_them() {
        let col = ColumnVec::from_values(
            &["pear", "apple", "fig", "apple", "Zed", ""].map(Value::str),
        );
        let (dict, _) = col.as_dict().expect("str column");
        let ranks = dict.ranks();
        let mut by_rank: Vec<&str> = vec![""; ranks.len()];
        for (code, &rank) in ranks.iter().enumerate() {
            by_rank[rank as usize] = &dict.strings()[code];
        }
        assert_eq!(by_rank, ["", "Zed", "apple", "fig", "pear"]);
        let g = col.gather(&[4, 0]);
        let (gathered, _) = g.as_dict().expect("str column");
        assert!(Arc::ptr_eq(dict, gathered));
        assert!(std::ptr::eq(ranks, gathered.ranks()), "the rank table is computed once");
    }

    /// Two ~1 000-string columns under different dictionaries (each in
    /// its own first-seen order, partly overlapping) keep exactly the
    /// rows `Value` equality keeps.
    #[test]
    fn eq_across_large_dictionaries_is_value_equality() {
        let n = 1_000;
        let a: Vec<Value> = (0..n).map(|i| Value::str(format!("s{}", (i * 7) % 1_100))).collect();
        let b: Vec<Value> = (0..n).map(|i| Value::str(format!("s{}", (n - i) % 1_200))).collect();
        let (ca, cb) = (ColumnVec::from_values(&a), ColumnVec::from_values(&b));
        assert!(ca.as_dict().unwrap().0.strings().len() > 900);
        let expect: Vec<u32> = (0..n as u32).filter(|&i| a[i as usize] == b[i as usize]).collect();
        assert!(!expect.is_empty());
        assert_eq!(kept_eq(&ca, &cb), expect);
        assert_eq!(kept_eq(&cb, &ca), expect);
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
        for (i, row) in r.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(&batch.column(j).get(i), cell, "cell ({i}, {j})");
            }
        }
    }
}
