//! Local (single-site) relational operators, as reference implementations.
//!
//! Neither the distributed engine nor the experiments call them: `PierCore`
//! scans, joins and projects inline in each stage, and the §5 posting-list
//! replay intersects the workload `Evaluator`'s posting runs. They are
//! exercised by this module's tests and `tests/proptests.rs`. The
//! centrepiece is [`SymmetricHashJoin`], the operator PIER uses for
//! distributed keyword joins (§3.2).

use crate::expr::Expr;
use crate::value::{Tuple, Value};
use std::collections::HashMap;

/// Filter tuples by a predicate. Evaluation errors select nothing (and are
/// counted by the caller if needed).
pub fn select<'a>(
    input: impl Iterator<Item = Tuple> + 'a,
    pred: &'a Expr,
) -> impl Iterator<Item = Tuple> + 'a {
    input.filter(move |t| pred.eval_bool(t).unwrap_or(false))
}

/// Project tuples onto columns.
pub fn project<'a>(
    input: impl Iterator<Item = Tuple> + 'a,
    cols: &'a [usize],
) -> impl Iterator<Item = Tuple> + 'a {
    input.map(move |t| t.project(cols))
}

/// Remove duplicate tuples, preserving first occurrence order.
pub fn distinct(input: impl Iterator<Item = Tuple>) -> Vec<Tuple> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for t in input {
        if seen.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// One-shot hash join: build on `right`, probe with `left`. Output is
/// `left ++ right` tuples.
pub fn hash_join(
    left: impl Iterator<Item = Tuple>,
    right: impl Iterator<Item = Tuple>,
    left_col: usize,
    right_col: usize,
) -> Vec<Tuple> {
    let mut build: HashMap<Value, Vec<Tuple>> = HashMap::new();
    for t in right {
        if t.0[right_col] == Value::Null {
            continue;
        }
        build.entry(t.0[right_col].clone()).or_default().push(t);
    }
    let mut out = Vec::new();
    for l in left {
        if let Some(matches) = build.get(&l.0[left_col]) {
            for r in matches {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Streaming symmetric hash join: tuples may arrive on either side in any
/// order; every match is emitted exactly once. Output is `left ++ right`.
pub struct SymmetricHashJoin {
    left_col: usize,
    right_col: usize,
    left_table: HashMap<Value, Vec<Tuple>>,
    right_table: HashMap<Value, Vec<Tuple>>,
    /// Tuples inserted (both sides): the posting-list entries this join
    /// processed.
    pub inserted: u64,
}

impl SymmetricHashJoin {
    pub fn new(left_col: usize, right_col: usize) -> Self {
        SymmetricHashJoin {
            left_col,
            right_col,
            left_table: HashMap::new(),
            right_table: HashMap::new(),
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

/// Aggregate functions for group-by.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
}

/// Hash group-by aggregation over one input column.
///
/// Output tuples are `(group_key, aggregate)`. Groups appear in first-seen
/// order (deterministic for deterministic input order).
pub fn group_aggregate(
    input: impl Iterator<Item = Tuple>,
    group_col: usize,
    agg_col: usize,
    func: AggFunc,
) -> Vec<Tuple> {
    let mut order: Vec<Value> = Vec::new();
    let mut state: HashMap<Value, i64> = HashMap::new();
    let mut counts: HashMap<Value, i64> = HashMap::new();
    for t in input {
        let g = t.0[group_col].clone();
        if !state.contains_key(&g) {
            order.push(g.clone());
        }
        let c = counts.entry(g.clone()).or_insert(0);
        *c += 1;
        let v = t.0.get(agg_col).and_then(|v| v.as_int()).unwrap_or(0);
        let s = state.entry(g).or_insert(match func {
            AggFunc::Count | AggFunc::Sum => 0,
            AggFunc::Min => i64::MAX,
            AggFunc::Max => i64::MIN,
        });
        match func {
            AggFunc::Count => *s += 1,
            AggFunc::Sum => *s += v,
            AggFunc::Min => *s = (*s).min(v),
            AggFunc::Max => *s = (*s).max(v),
        }
    }
    order
        .into_iter()
        .map(|g| {
            let s = state[&g];
            Tuple::new(vec![g, Value::Int(s)])
        })
        .collect()
}

/// Naive nested-loop join — the reference implementation the property tests
/// compare the hash joins against.
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
    use crate::expr::CmpOp;
    use crate::tuple;

    fn rel(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter().map(|(a, b)| tuple![*a, *b]).collect()
    }

    #[test]
    fn select_project_compose() {
        let input = rel(&[(1, "a"), (2, "b"), (3, "c")]);
        let pred = Expr::cmp(CmpOp::Ge, 0, 2i64);
        let out: Vec<Tuple> = project(select(input.into_iter(), &pred), &[1]).collect();
        assert_eq!(out, vec![tuple!["b"], tuple!["c"]]);
    }

    #[test]
    fn distinct_preserves_order() {
        let input = rel(&[(1, "a"), (2, "b"), (1, "a"), (3, "c"), (2, "b")]);
        let out = distinct(input.into_iter());
        assert_eq!(out, rel(&[(1, "a"), (2, "b"), (3, "c")]));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let left = rel(&[(1, "l1"), (2, "l2"), (2, "l2b"), (4, "l4")]);
        let right = rel(&[(2, "r2"), (2, "r2b"), (3, "r3"), (1, "r1")]);
        let mut a = hash_join(left.clone().into_iter(), right.clone().into_iter(), 0, 0);
        let mut b = nested_loop_join(&left, &right, 0, 0);
        a.sort_by(|x, y| format!("{x}").cmp(&format!("{y}")));
        b.sort_by(|x, y| format!("{x}").cmp(&format!("{y}")));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5); // (1,r1), (2,r2)x2 for both left-2 tuples... 2*2+1 = 5
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
    fn group_aggregates() {
        let input = rel(&[(1, "a"), (1, "b"), (2, "c")]);
        let counts = group_aggregate(input.clone().into_iter(), 0, 0, AggFunc::Count);
        assert_eq!(counts, vec![tuple![1i64, 2i64], tuple![2i64, 1i64]]);
        let sums = group_aggregate(input.clone().into_iter(), 1, 0, AggFunc::Sum);
        assert_eq!(sums.len(), 3);
        let mins = group_aggregate(input.clone().into_iter(), 0, 0, AggFunc::Min);
        assert_eq!(mins, vec![tuple![1i64, 1i64], tuple![2i64, 2i64]]);
        let maxs = group_aggregate(input.into_iter(), 0, 0, AggFunc::Max);
        assert_eq!(maxs, vec![tuple![1i64, 1i64], tuple![2i64, 2i64]]);
    }

    #[test]
    fn null_keys_never_join() {
        let left = vec![Tuple::new(vec![Value::Null, Value::Str("l".into())])];
        let right = vec![Tuple::new(vec![Value::Null, Value::Str("r".into())])];
        assert!(nested_loop_join(&left, &right, 0, 0).is_empty());
        assert!(hash_join(left.clone().into_iter(), right.clone().into_iter(), 0, 0).is_empty());
        let mut shj = SymmetricHashJoin::new(0, 0);
        assert!(shj.push_left(left[0].clone()).is_empty());
        assert!(shj.push_right(right[0].clone()).is_empty());
    }
}
