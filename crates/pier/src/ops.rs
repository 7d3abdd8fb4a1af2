//! The streaming join PIER uses for distributed keyword joins (§3.2), as a
//! stand-alone local operator.
//!
//! The distributed engine does not call it: `PierCore` scans, joins and
//! projects inline in each stage, and the §5 posting-list replay intersects
//! the workload `Evaluator`'s posting runs. [`SymmetricHashJoin`] is the
//! operator in isolation, held against the [`nested_loop_join`] reference
//! by this module's tests and `tests/proptests.rs`.

use crate::value::{Tuple, Value};
use pier_netsim::keyed::KeyedMap;

/// Streaming symmetric hash join: tuples may arrive on either side in any
/// order; every match is emitted exactly once. Output is `left ++ right`.
pub struct SymmetricHashJoin {
    left_col: usize,
    right_col: usize,
    left_table: KeyedMap<Value, Vec<Tuple>>,
    right_table: KeyedMap<Value, Vec<Tuple>>,
    /// Tuples inserted (both sides): the posting-list entries this join
    /// processed.
    pub inserted: u64,
}

impl SymmetricHashJoin {
    pub fn new(left_col: usize, right_col: usize) -> Self {
        SymmetricHashJoin {
            left_col,
            right_col,
            left_table: KeyedMap::new(),
            right_table: KeyedMap::new(),
            inserted: 0,
        }
    }

    /// Insert a left-side tuple; returns all joins with right tuples seen so
    /// far. NULL join keys match nothing (SQL semantics).
    pub fn push_left(&mut self, t: Tuple) -> Vec<Tuple> {
        self.inserted += 1;
        let key = t.0[self.left_col].clone();
        if key == Value::Null {
            return Vec::new();
        }
        let out = self
            .right_table
            .get(&key)
            .map(|rs| rs.iter().map(|r| t.concat(r)).collect())
            .unwrap_or_default();
        self.left_table.entry(key).or_default().push(t);
        out
    }

    /// Insert a right-side tuple; returns all joins with left tuples seen so
    /// far. NULL join keys match nothing (SQL semantics).
    pub fn push_right(&mut self, t: Tuple) -> Vec<Tuple> {
        self.inserted += 1;
        let key = t.0[self.right_col].clone();
        if key == Value::Null {
            return Vec::new();
        }
        let out = self
            .left_table
            .get(&key)
            .map(|ls| ls.iter().map(|l| l.concat(&t)).collect())
            .unwrap_or_default();
        self.right_table.entry(key).or_default().push(t);
        out
    }
}

/// Naive nested-loop join — the reference implementation the property tests
/// compare the symmetric hash join against.
pub fn nested_loop_join(
    left: &[Tuple],
    right: &[Tuple],
    left_col: usize,
    right_col: usize,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l.0[left_col] == r.0[right_col] && l.0[left_col] != Value::Null {
                out.push(l.concat(r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter().map(|(a, b)| tuple![*a, *b]).collect()
    }

    #[test]
    fn shj_streaming_equals_batch() {
        let left = rel(&[(1, "l1"), (2, "l2"), (2, "l2b")]);
        let right = rel(&[(2, "r2"), (1, "r1"), (2, "r2b")]);
        let mut shj = SymmetricHashJoin::new(0, 0);
        let mut streamed = Vec::new();
        // Interleave arrivals.
        streamed.extend(shj.push_left(left[0].clone()));
        streamed.extend(shj.push_right(right[0].clone()));
        streamed.extend(shj.push_left(left[1].clone()));
        streamed.extend(shj.push_right(right[1].clone()));
        streamed.extend(shj.push_left(left[2].clone()));
        streamed.extend(shj.push_right(right[2].clone()));
        let mut batch = nested_loop_join(&left, &right, 0, 0);
        streamed.sort_by(|x, y| format!("{x}").cmp(&format!("{y}")));
        batch.sort_by(|x, y| format!("{x}").cmp(&format!("{y}")));
        assert_eq!(streamed, batch);
        assert_eq!(shj.inserted, 6);
    }

    #[test]
    fn shj_no_duplicate_emissions() {
        let mut shj = SymmetricHashJoin::new(0, 0);
        assert!(shj.push_left(tuple![1i64, "l"]).is_empty());
        assert_eq!(shj.push_right(tuple![1i64, "r"]).len(), 1);
        // Pushing the same right value again joins again (it is a new tuple),
        // but the original pair is not re-emitted.
        assert_eq!(shj.push_right(tuple![1i64, "r2"]).len(), 1);
    }

    #[test]
    fn null_keys_never_join() {
        let left = vec![Tuple::new(vec![Value::Null, Value::Str("l".into())])];
        let right = vec![Tuple::new(vec![Value::Null, Value::Str("r".into())])];
        assert!(nested_loop_join(&left, &right, 0, 0).is_empty());
        let mut shj = SymmetricHashJoin::new(0, 0);
        assert!(shj.push_left(left[0].clone()).is_empty());
        assert!(shj.push_right(right[0].clone()).is_empty());
    }
}
