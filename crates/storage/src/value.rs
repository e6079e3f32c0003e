//! The dynamically-typed cell type used throughout the workspace.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell of a tuple.
///
/// `Value` implements total [`Ord`], [`Eq`] and [`Hash`] (floats compare by
/// [`f64::total_cmp`] and hash by bit pattern; an `Int` and a `Float`
/// compare by exact numeric value) so it can serve as a join or grouping
/// key, and a sort key, without wrapper types.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, immutable and shared: cloning a cell bumps a
    /// reference count instead of copying the bytes, so a string that
    /// flows from a stored row through a dictionary, a binding table and
    /// an answer is allocated once, where it entered the system.
    /// Comparison, ordering and hashing are by content, exactly as for an
    /// owned `String`.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor from anything stringy.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Rank used to order across variants: Null < Bool < numeric < Str.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Parse a literal the way the datalog-ish query parser and generators
    /// do: `null`, `true`/`false`, integer, float, else string (with
    /// optional surrounding quotes).
    pub fn parse(src: &str) -> Value {
        let s = src.trim();
        if let Some(q) = s
            .strip_prefix('\'')
            .and_then(|x| x.strip_suffix('\''))
            .or_else(|| s.strip_prefix('"').and_then(|x| x.strip_suffix('"')))
        {
            return Value::str(q);
        }
        match s {
            "null" => return Value::Null,
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            return Value::Float(f);
        }
        Value::str(s)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            // Cells gathered from one dictionary share its allocation:
            // equal without reading a byte.
            (Str(a), Str(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// `i` against `f` exactly, in [`f64::total_cmp`]'s order: an `i64` of
/// magnitude above 2⁵³ may round to a neighbouring `f64`, so converting
/// it would make `Int(2⁵³ + 1) == Float(2⁵³) == Int(2⁵³)` and break
/// transitivity (and with it `sort`). Up to 2⁵³ every `i64` is exactly an
/// `f64`, and the conversion is exact — `-0.0` below `0`, NaNs at the
/// ends, as among floats.
///
/// Kept out of line: cross-type comparisons are rare, and inlined twice
/// into `Value::cmp` they double its size, which measurably slows sorts
/// and ordered maps over tuples.
#[cold]
#[inline(never)]
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    const EXACT: i64 = 1 << 53;
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if (-EXACT..=EXACT).contains(&i) || f.is_nan() {
        (i as f64).total_cmp(&f)
    } else if f >= TWO_63 {
        Ordering::Less
    } else if f < -TWO_63 {
        Ordering::Greater
    } else {
        // `f` truncates exactly into i64 range; with |i| > 2⁵³, `i` equals
        // `f` only when `f` is that integer (every f64 that large is one),
        // and otherwise lies on the same side of `f` as of its truncation.
        i.cmp(&(f as i64))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that are numerically equal must hash equally
            // (they compare equal). An Int equals a Float only when the
            // float is exactly that integer, so hash an Int that converts
            // and back as the f64's bits, any other as the raw integer.
            Value::Int(i) => {
                2u8.hash(state);
                let f = *i as f64;
                if f as i64 == *i {
                    f.to_bits().hash(state);
                } else {
                    i.hash(state);
                }
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_ordering_is_total() {
        let mut vals = [Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::str("x")), hash_of(&Value::Str("x".into())));
    }

    /// Above 2⁵³ an `i64` can round to a neighbouring `f64`; comparing
    /// through that rounding made `Int(2⁵³ + 1) == Float(2⁵³) == Int(2⁵³)`
    /// while `Int(2⁵³ + 1) > Int(2⁵³)`, and hashed the first two apart.
    #[test]
    fn int_float_order_is_transitive_and_hash_agrees_past_2_pow_53() {
        let p = 1i64 << 53;
        let triple = [Value::Int(p + 1), Value::Float(p as f64), Value::Int(p)];
        for a in &triple {
            for b in &triple {
                for c in &triple {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?} but not {a:?} <= {c:?}");
                    }
                }
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?} hash apart");
                }
            }
        }
        assert!(Value::Int(p + 1) > Value::Float(p as f64));
        assert_eq!(Value::Int(p), Value::Float(p as f64));
        // The extremes: 2⁶³ is above every i64, -2⁶³ is i64::MIN.
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-9_223_372_036_854_775_808.0));
        assert!(Value::Int(-p - 1) < Value::Float(-p as f64));
        assert!(Value::Int(p + 1) < Value::Float(f64::INFINITY));
        assert!(Value::Int(p + 1) < Value::Float(f64::NAN));
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < nan);
    }

    #[test]
    fn parse_literals() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("4.5"), Value::Float(4.5));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("null"), Value::Null);
        assert_eq!(Value::parse("'hi there'"), Value::str("hi there"));
        assert_eq!(Value::parse("plain"), Value::str("plain"));
    }

    #[test]
    fn display_roundtrips_for_scalars() {
        for v in [Value::Int(-3), Value::Float(1.25), Value::Bool(false), Value::Null] {
            assert_eq!(Value::parse(&v.to_string()), v);
        }
    }
}
