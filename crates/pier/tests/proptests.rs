//! Property-based tests for the symmetric hash join, expressions and the
//! tuple codec.

use pier_qp::ops::{nested_loop_join, SymmetricHashJoin};
use pier_qp::{Expr, Tuple, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-50i64..50).prop_map(Value::Int),
        "[a-d]{0,3}".prop_map(Value::Str),
    ]
}

fn tuple_strategy(arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value_strategy(), arity).prop_map(Tuple::new)
}

fn relation(n: usize, arity: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(tuple_strategy(arity), 0..n)
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_by_key(|t| format!("{t}"));
    v
}

proptest! {
    /// The streaming symmetric hash join must agree with the nested-loop
    /// reference for every input and every interleaving of arrivals.
    #[test]
    fn shj_equals_nested_loop(
        left in relation(24, 2),
        right in relation(24, 2),
        interleave in prop::collection::vec(any::<bool>(), 0..48),
    ) {
        let mut shj = SymmetricHashJoin::new(0, 0);
        let mut out = Vec::new();
        let mut li = left.iter();
        let mut ri = right.iter();
        for take_left in &interleave {
            if *take_left {
                if let Some(t) = li.next() { out.extend(shj.push_left(t.clone())); }
            } else if let Some(t) = ri.next() {
                out.extend(shj.push_right(t.clone()));
            }
        }
        for t in li { out.extend(shj.push_left(t.clone())); }
        for t in ri { out.extend(shj.push_right(t.clone())); }
        let reference = nested_loop_join(&left, &right, 0, 0);
        prop_assert_eq!(sorted(out), sorted(reference));
    }

    /// Expressions never panic: any expression over any tuple returns
    /// Ok or Err, never aborts.
    #[test]
    fn expr_total(t in tuple_strategy(3), col in 0usize..5, lit in value_strategy()) {
        let contains = Expr::Contains(Box::new(Expr::Col(col)), Box::new(Expr::Lit(lit.clone())));
        let exprs = [
            Expr::Col(col),
            Expr::Lit(lit.clone()),
            contains.clone(),
            Expr::Contains(Box::new(Expr::Lit(lit)), Box::new(Expr::Col(col))),
            Expr::And(vec![Expr::Col(col), contains]),
        ];
        for e in exprs {
            let _ = e.eval_bool(&t);
        }
    }

    /// Tuples of arbitrary values roundtrip through the wire format.
    #[test]
    fn tuple_codec_roundtrip(t in tuple_strategy(4)) {
        let bytes = t.encode();
        prop_assert_eq!(Tuple::decode(&bytes).unwrap(), t);
    }
}
