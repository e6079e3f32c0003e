//! The dynamically-typed cell type used throughout the workspace.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell of a tuple.
///
/// `Value` implements total [`Ord`], [`Eq`] and [`Hash`] (floats compare by
/// [`f64::total_cmp`] and hash by bit pattern) so it can serve as a join or
/// grouping key without wrapper types.
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

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
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

    /// Numeric view: `Int` and `Float` as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
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
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
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
            // (they compare equal). Hash every numeric as the total_cmp key
            // of its f64 value when exactly representable, else the raw
            // integer.
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
            Value::Str(s) => write!(f, "{s}"),
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
        assert!(vals[0].is_null());
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
