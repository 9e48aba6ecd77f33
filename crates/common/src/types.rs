//! The property type system: [`DataType`] and [`Value`].
//!
//! The paper's datasets use four property types: integers (LDBC edge
//! properties are all 4-byte ints; we use `i64` uniformly), doubles, strings
//! (dominant in IMDb), and dates (stored as an `i64` timestamp, as LDBC's
//! `creationDate`). Booleans are included for completeness.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a structured vertex or edge property (Guideline 3: label
/// determines properties and their datatypes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// Boolean.
    Bool,
    /// Date/time stored as an `i64` timestamp (seconds or days; the unit is
    /// dataset-defined and opaque to the engine).
    Date,
    /// UTF-8 string; columnar storage dictionary-encodes these.
    String,
}

impl DataType {
    /// Width in bytes of the *uncompressed* fixed-length physical
    /// representation, used for memory estimates of row layouts. Strings
    /// report the pointer width; their heap bytes are accounted separately.
    pub fn fixed_width(self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 | DataType::Date => 8,
            DataType::Bool => 1,
            DataType::String => 8,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT64",
            DataType::Float64 => "DOUBLE",
            DataType::Bool => "BOOL",
            DataType::Date => "DATE",
            DataType::String => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed property value.
///
/// `Value` is the interchange representation used by the row store
/// (interpreted attribute layout), data generators, and query results.
/// Columnar storage never materializes `Value`s on the hot path; it works on
/// typed columns directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL / missing property.
    Null,
    Int64(i64),
    Float64(f64),
    Bool(bool),
    /// Date as i64 timestamp.
    Date(i64),
    String(String),
}

impl Value {
    /// The [`DataType`] of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
            Value::String(_) => Some(DataType::String),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) | Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A *total* deterministic ordering over all values, used wherever
    /// results must be canonically ordered regardless of type mixing:
    /// grouping keys, DISTINCT sets, and ORDER BY sort keys.
    ///
    /// Lexicographic on `(type rank, value)`, which makes it transitive by
    /// construction: NULL < booleans < numerics < strings. Within the
    /// numeric rank, `Int64`/`Date`/`Float64` order by exact mathematical
    /// value, with positive NaN after every finite value; `Int64(3)`,
    /// `Date(3)` and `Float64(3.0)` compare equal, matching
    /// [`Value::compare`].
    ///
    /// Same-type pairs take fast arms: `Int64`/`Date` pairs are `i64::cmp`,
    /// `Float64` pairs `f64::total_cmp`. Only a mixed integer/float pair
    /// pays for the exact-order key (`Value::numeric_key`, two
    /// `f64 → i128` conversions), which orders same-type pairs exactly as
    /// the fast arms do.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int64(a) | Value::Date(a), Value::Int64(b) | Value::Date(b)) => a.cmp(b),
            (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::String(a), Value::String(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            // Different ranks, or the one same-rank pair left: integer vs
            // float.
            _ => self.type_rank().cmp(&other.type_rank()).then_with(|| {
                match (self.numeric_key(), other.numeric_key()) {
                    (Some((a, ar)), Some((b, br))) => a.total_cmp(&b).then(ar.total_cmp(&br)),
                    _ => Ordering::Equal,
                }
            }),
        }
    }

    /// Feed `state` a hash that agrees with [`Value::total_cmp`] equality:
    /// values that compare `Equal` hash alike, so `Int64(3)`, `Date(3)` and
    /// `Float64(3.0)` do. A float equals an integer only when it is one
    /// exactly, so integral floats in the `i64` range hash as that integer
    /// and every other float as its bits (`f64::total_cmp` equality is bit
    /// equality).
    pub fn total_hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int64(v) | Value::Date(v) => v.hash(state),
            Value::Float64(f) => {
                // [-2^63, 2^63): the integral floats an i64 can equal.
                let two_63 = -(i64::MIN as f64);
                if f.fract() == 0.0 && (-two_63..two_63).contains(f) {
                    (*f as i64).hash(state)
                } else {
                    f.to_bits().hash(state)
                }
            }
            Value::String(s) => s.hash(state),
        }
    }

    /// Exact-order key of a numeric-rank value: the round-to-nearest `f64`
    /// plus the integer residue the rounding dropped. Round-to-nearest is
    /// monotone and equal rounded values order by their residue, so the
    /// lexicographic pair orders by exact mathematical value even for
    /// integers beyond 2^53 (where `as f64` alone would collide).
    fn numeric_key(&self) -> Option<(f64, f64)> {
        match self {
            Value::Float64(v) => Some((*v, 0.0)),
            Value::Int64(v) | Value::Date(v) => {
                let f = *v as f64;
                // `f` is an exact integer in [-2^63, 2^63]; the residue is
                // at most half the f64 spacing (≤ 512), exact as f64.
                Some((f, (*v as i128 - f as i128) as f64))
            }
            _ => None,
        }
    }

    /// Fixed rank used by [`Value::total_cmp`] to order across types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int64(_) | Value::Date(_) | Value::Float64(_) => 2,
            Value::String(_) => 3,
        }
    }

    /// Three-valued-logic comparison: returns `None` if either side is NULL
    /// or the types are incomparable (SQL semantics: the predicate evaluates
    /// to UNKNOWN and the tuple is filtered out).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Int64(a), Value::Date(b)) | (Value::Date(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Float64(a), Value::Float64(b)) => a.partial_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).partial_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::String(a), Value::String(b)) => Some(a.as_str().cmp(b.as_str())),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date({v})"),
            Value::String(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn data_type_widths() {
        assert_eq!(DataType::Int64.fixed_width(), 8);
        assert_eq!(DataType::Bool.fixed_width(), 1);
        assert_eq!(DataType::String.fixed_width(), 8);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Date(7).as_i64(), Some(7));
        assert_eq!(Value::Float64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Int64(2).as_f64(), Some(2.0));
        assert_eq!(Value::String("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).compare(&Value::Null), None);
    }

    #[test]
    fn total_cmp_is_a_lawful_total_order() {
        use Ordering::*;
        // NULL first, then bool < numeric < string.
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Less);
        assert_eq!(Value::Bool(true).total_cmp(&Value::Int64(0)), Less);
        assert_eq!(Value::Int64(9).total_cmp(&Value::String("a".into())), Less);
        // The numeric rank orders by exact value across Int64/Date/Float64 —
        // including the Date-vs-Float64 pair `compare` refuses.
        assert_eq!(Value::Date(3).total_cmp(&Value::Float64(3.5)), Less);
        assert_eq!(Value::Int64(3).total_cmp(&Value::Date(3)), Equal);
        assert_eq!(Value::Float64(3.0).total_cmp(&Value::Int64(3)), Equal);
        // Distinct large integers beyond 2^53 do NOT collide.
        let big = 1i64 << 60;
        assert_eq!(Value::Int64(big).total_cmp(&Value::Int64(big + 1)), Less);
        // NaN is ordered deterministically (after finite values).
        assert_eq!(Value::Float64(f64::NAN).total_cmp(&Value::Float64(1e300)), Greater);
        assert_eq!(Value::Float64(f64::NAN).total_cmp(&Value::Float64(f64::NAN)), Equal);
        // Spot-check transitivity over a mixed-type chain.
        let chain = [
            Value::Null,
            Value::Bool(true),
            Value::Int64(2),
            Value::Date(3),
            Value::Float64(3.5),
            Value::Int64(big),
            Value::Int64(big + 1),
            Value::String("x".into()),
        ];
        for w in chain.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Less, "{} < {}", w[0], w[1]);
        }
        for (i, a) in chain.iter().enumerate() {
            for b in &chain[i + 1..] {
                assert_eq!(a.total_cmp(b), Less, "{a} < {b}");
            }
        }
    }

    /// The pre-fast-arm formulation of [`Value::total_cmp`]: every numeric
    /// pair through `numeric_key`. Kept as the oracle the fast arms must
    /// reproduce.
    fn oracle_cmp(a: &Value, b: &Value) -> Ordering {
        a.type_rank().cmp(&b.type_rank()).then_with(|| match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            (Value::String(x), Value::String(y)) => x.cmp(y),
            _ => match (a.numeric_key(), b.numeric_key()) {
                (Some((x, xr)), Some((y, yr))) => x.total_cmp(&y).then(xr.total_cmp(&yr)),
                _ => Ordering::Equal,
            },
        })
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.total_hash(&mut h);
        h.finish()
    }

    /// Values clustered where the order is delicate: integers at ±2^53 and
    /// at the ends of `i64`, the same integers as `Date` and `Float64`,
    /// signed zeros, infinities, NaNs of both signs, floats at ±2^63.
    fn value() -> impl Strategy<Value = Value> {
        let two_53 = 1i64 << 53;
        let ints = prop_oneof![
            (-4i64..4).prop_map(move |d| two_53 + d),
            (-4i64..4).prop_map(move |d| -two_53 + d),
            (0i64..4).prop_map(|d| i64::MIN + d),
            (0i64..4).prop_map(|d| i64::MAX - d),
            // The largest f64 below 2^63 and its neighbours.
            (-2i64..2).prop_map(|d| i64::MAX - 1023 + d),
            -4i64..4,
            any::<i64>(),
        ]
        .boxed();
        let floats = prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-(i64::MIN as f64)),
            Just(i64::MIN as f64),
            (-4i64..4).prop_map(|d| d as f64 + 0.5),
            any::<f64>(),
        ]
        .boxed();
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            "[a-c]{0,2}".prop_map(Value::String),
            ints.clone().prop_map(Value::Int64),
            ints.clone().prop_map(Value::Date),
            ints.prop_map(|i| Value::Float64(i as f64)),
            floats.prop_map(Value::Float64),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn fast_arms_match_the_numeric_key_order_and_hash_agrees(
            a in value(),
            b in value(),
        ) {
            // Independent draws rarely collide, so also pair `a` with its
            // numeric twins (same number, other variants).
            let twins = match a {
                Value::Int64(v) | Value::Date(v) => {
                    vec![Value::Int64(v), Value::Date(v), Value::Float64(v as f64)]
                }
                Value::Float64(f) => vec![Value::Int64(f as i64), Value::Date(f as i64)],
                _ => Vec::new(),
            };
            for b in std::iter::once(b).chain(twins) {
                let ord = a.total_cmp(&b);
                prop_assert_eq!(ord, oracle_cmp(&a, &b), "{} vs {}", a, b);
                prop_assert_eq!(b.total_cmp(&a), ord.reverse(), "{} vs {}", b, a);
                if ord == Ordering::Equal {
                    prop_assert_eq!(hash_of(&a), hash_of(&b), "{} == {}", a, b);
                }
            }
        }
    }

    #[test]
    fn equal_numerics_hash_alike() {
        for v in [Value::Int64(3), Value::Date(3), Value::Float64(3.0)] {
            assert_eq!(hash_of(&v), hash_of(&Value::Int64(3)), "{v}");
        }
        let min = Value::Int64(i64::MIN);
        assert_eq!(min.total_cmp(&Value::Float64(i64::MIN as f64)), Ordering::Equal);
        assert_eq!(hash_of(&min), hash_of(&Value::Float64(i64::MIN as f64)));
    }

    #[test]
    fn cross_numeric_comparisons() {
        use Ordering::*;
        assert_eq!(Value::Int64(1).compare(&Value::Float64(1.5)), Some(Less));
        assert_eq!(Value::Float64(2.5).compare(&Value::Int64(2)), Some(Greater));
        assert_eq!(Value::Int64(3).compare(&Value::Date(3)), Some(Equal));
        assert_eq!(Value::String("abc".into()).compare(&Value::String("abd".into())), Some(Less));
        // Incomparable types evaluate to UNKNOWN, not a panic.
        assert_eq!(Value::Bool(true).compare(&Value::Int64(1)), None);
    }
}
