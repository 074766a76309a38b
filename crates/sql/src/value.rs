//! Scalar values and rows of the relational backend.
//!
//! The schema the paper's prototype stores in PostgreSQL needs only two
//! scalar types: integers (node identifiers, cardinalities) and text (label
//! paths). `NULL` is included because outer data — histograms with missing
//! estimates, for instance — naturally produces it.

use std::cmp::Ordering;
use std::fmt;

/// A scalar SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Double-precision float.
    Float(f64),
}

impl Value {
    /// Builds a text value from anything string-like.
    pub fn text<S: Into<String>>(s: S) -> Value {
        Value::Text(s.into())
    }

    /// `true` when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer content, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text content, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The float content (integers widen), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// SQL comparison: `NULL` compares less than everything (only used for
    /// ordering, not for three-valued logic), numbers before text, numeric
    /// types compare numerically across `Int`/`Float`.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Int(_) | Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_) | Float(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }

    /// SQL equality: NULL equals nothing (including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.sql_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// One tuple of a relation.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_constructors() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from(3u32).as_int(), Some(3));
        assert_eq!(Value::text("abc").as_text(), Some("abc"));
        assert_eq!(Value::from(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Int(1).as_text(), None);
    }

    #[test]
    fn comparison_order_and_equality() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(1.5)), Ordering::Greater);
        assert_eq!(Value::text("a").sql_cmp(&Value::text("b")), Ordering::Less);
        assert_eq!(Value::Int(5).sql_cmp(&Value::text("5")), Ordering::Less);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), Ordering::Less);
        assert!(Value::Int(3).sql_eq(&Value::Int(3)));
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Null.sql_eq(&Value::Null), "NULL = NULL is not true");
        assert!(!Value::text("x").sql_eq(&Value::text("y")));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::text("knows.worksFor").to_string(), "knows.worksFor");
        assert_eq!(Value::Float(0.25).to_string(), "0.25");
    }
}
