//! Typed column vectors and dictionary-encoded strings — the columnar
//! storage layer under the vectorized evaluator (`revere_query::vec`).
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
//! A selection is an ascending `Vec<u32>` of row indices. The two
//! filters, [`ColumnVec::retain_eq_const`] and [`ColumnVec::retain_eq`],
//! each narrow one in place, and [`ColumnVec::gather`] reads it out.

use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

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
                match c.as_str().and_then(|s| dict.iter().position(|d| &**d == s)) {
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
                if Arc::ptr_eq(da, db) {
                    rows.retain(|&r| ca[r as usize] == cb[r as usize]);
                } else {
                    // Translate the other dictionary's codes into this
                    // one once, then compare codes.
                    let trans: Vec<Option<u32>> = db
                        .iter()
                        .map(|s| da.iter().position(|d| d == s).map(|p| p as u32))
                        .collect();
                    rows.retain(|&r| trans[cb[r as usize] as usize] == Some(ca[r as usize]));
                }
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
                    b[r as usize].as_str() == Some(&*dict[codes[r as usize] as usize])
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
        assert_eq!(dict.as_slice(), &[Arc::from("a"), Arc::from("b")]);
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
