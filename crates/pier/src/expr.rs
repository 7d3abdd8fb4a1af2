//! Scalar expressions: selection predicates and the substring operators the
//! InvertedCache plan (Fig. 3 of the paper) filters with.

use crate::value::{Tuple, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A serializable scalar expression evaluated against one tuple.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Expr {
    /// The value of column `i`.
    Col(usize),
    /// A literal.
    Lit(Value),
    /// Case-insensitive substring test: does the string value of the first
    /// operand contain the string value of the second? (The paper's
    /// `Substring(filename, T)` selection.)
    Contains(Box<Expr>, Box<Expr>),
    /// Conjunction, short-circuiting left to right; empty is true.
    And(Vec<Expr>),
}

/// Evaluation errors (type mismatches, bad column references).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    BadColumn(usize),
    TypeMismatch { op: &'static str, lhs: &'static str, rhs: &'static str },
    NotBool(&'static str),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::BadColumn(c) => write!(f, "column {c} out of range"),
            ExprError::TypeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible types {lhs} and {rhs}")
            }
            ExprError::NotBool(t) => write!(f, "predicate evaluated to {t}, expected bool"),
        }
    }
}

impl std::error::Error for ExprError {}

impl Expr {
    /// Convenience: `Contains(col, needle)`.
    pub fn contains(col: usize, needle: &str) -> Expr {
        Expr::Contains(
            Box::new(Expr::Col(col)),
            Box::new(Expr::Lit(Value::Str(needle.to_string()))),
        )
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, ExprError> {
        match self {
            Expr::Col(i) => tuple.get(*i).cloned().ok_or(ExprError::BadColumn(*i)),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Contains(hay, needle) => {
                let h = hay.eval(tuple)?;
                let n = needle.eval(tuple)?;
                match (&h, &n) {
                    // NULL propagates as false (SQL-ish three-valued logic
                    // collapsed to boolean selection semantics).
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Bool(false)),
                    (Value::Str(h), Value::Str(n)) => Ok(Value::Bool(contains_ci(h, n))),
                    _ => Err(ExprError::TypeMismatch {
                        op: "contains",
                        lhs: h.type_name(),
                        rhs: n.type_name(),
                    }),
                }
            }
            Expr::And(exprs) => {
                for e in exprs {
                    if !e.eval_bool(tuple)? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
        }
    }

    /// Evaluate as a selection predicate.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool, ExprError> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            // A NULL value selects nothing.
            Value::Null => Ok(false),
            other => Err(ExprError::NotBool(other.type_name())),
        }
    }

    /// Largest column index referenced, for plan validation.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            Expr::Lit(_) => None,
            Expr::Contains(l, r) => l.max_col().max(r.max_col()),
            Expr::And(es) => es.iter().filter_map(|e| e.max_col()).max(),
        }
    }
}

/// Case-insensitive ASCII substring search (filenames in filesharing
/// networks are matched case-insensitively).
fn contains_ci(hay: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    let hay = hay.as_bytes();
    let needle = needle.as_bytes();
    hay.windows(needle.len()).any(|w| w.iter().zip(needle).all(|(a, b)| a.eq_ignore_ascii_case(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn substring_case_insensitive() {
        let t = tuple!["Led_Zeppelin-Stairway.mp3"];
        assert!(Expr::contains(0, "zeppelin").eval_bool(&t).unwrap());
        assert!(Expr::contains(0, "STAIRWAY").eval_bool(&t).unwrap());
        assert!(!Expr::contains(0, "floyd").eval_bool(&t).unwrap());
        assert!(Expr::contains(0, "").eval_bool(&t).unwrap(), "empty needle matches");
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let t = tuple!["abc"];
        let tru = Expr::contains(0, "b");
        let fal = Expr::contains(0, "z");
        // A bad-column expr after a short-circuit point must not evaluate.
        let broken = Expr::contains(9, "b");
        assert!(!Expr::And(vec![fal.clone(), broken.clone()]).eval_bool(&t).unwrap());
        assert_eq!(
            Expr::And(vec![tru.clone(), broken]).eval_bool(&t),
            Err(ExprError::BadColumn(9))
        );
        assert!(!Expr::And(vec![tru.clone(), fal]).eval_bool(&t).unwrap());
        assert!(Expr::And(vec![tru.clone(), tru]).eval_bool(&t).unwrap());
        assert!(Expr::And(vec![]).eval_bool(&t).unwrap(), "empty AND is true");
    }

    #[test]
    fn null_semantics() {
        let t = Tuple::new(vec![Value::Null, Value::Str("x".into())]);
        assert!(!Expr::contains(0, "x").eval_bool(&t).unwrap());
        let null_needle = Expr::Contains(Box::new(Expr::Col(1)), Box::new(Expr::Col(0)));
        assert!(!null_needle.eval_bool(&t).unwrap(), "a NULL needle matches nothing");
        assert!(!Expr::Col(0).eval_bool(&t).unwrap(), "a NULL predicate selects nothing");
    }

    #[test]
    fn errors_surface() {
        let t = tuple![1i64, "s"];
        assert_eq!(Expr::contains(7, "s").eval_bool(&t), Err(ExprError::BadColumn(7)));
        assert!(matches!(
            Expr::Contains(Box::new(Expr::Col(0)), Box::new(Expr::Col(1))).eval_bool(&t),
            Err(ExprError::TypeMismatch { .. })
        ));
        assert!(matches!(Expr::Col(0).eval_bool(&t), Err(ExprError::NotBool("int"))));
    }

    #[test]
    fn max_col_for_validation() {
        let e = Expr::And(vec![Expr::contains(3, "y"), Expr::contains(7, "x")]);
        assert_eq!(e.max_col(), Some(7));
        assert_eq!(Expr::Lit(Value::Null).max_col(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let e = Expr::And(vec![Expr::contains(1, "zeppelin"), Expr::contains(2, "stairway")]);
        let bytes = pier_codec::to_bytes(&e).unwrap();
        let back: Expr = pier_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, e);
    }
}
