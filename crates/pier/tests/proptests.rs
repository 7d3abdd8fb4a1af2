//! Property-based tests for the symmetric hash join, expressions and the
//! wire encodings of tuples, expressions and the PIER and DHT messages.

use pier_codec::Error;
use pier_dht::{Contact, DhtMsg, Key, Request, Response};
use pier_netsim::NodeId;
use pier_qp::ops::{nested_loop_join, SymmetricHashJoin};
use pier_qp::{Expr, JoinCols, PierMsg, QueryId, QueryPlan, ScanSpec, Stage, Tuple, Value};
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

// ---------------------------------------------------------------------------
// Wire encodings: every value survives a roundtrip, sizing agrees with
// encoding, and corrupt input fails cleanly.
// ---------------------------------------------------------------------------

fn key() -> impl Strategy<Value = Key> {
    any::<u64>().prop_map(|i| Key::hash(&i.to_le_bytes()))
}

fn contact() -> impl Strategy<Value = Contact> {
    (key(), any::<u32>()).prop_map(|(k, n)| Contact::new(k, NodeId::new(n)))
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

/// Values over their whole domains (the join tests use a small one).
fn wire_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<String>().prop_map(Value::Str),
        key().prop_map(Value::Key),
    ]
}

fn wire_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(wire_value(), 0..6).prop_map(Tuple::new)
}

fn wire_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(wire_tuple(), 0..6)
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![any::<usize>().prop_map(Expr::Col), wire_value().prop_map(Expr::Lit)];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Contains(Box::new(a), Box::new(b))),
            prop::collection::vec(inner, 0..4).prop_map(Expr::And),
        ]
    })
}

fn qid() -> impl Strategy<Value = QueryId> {
    (any::<u32>(), any::<u32>()).prop_map(|(origin, seq)| QueryId { origin, seq })
}

fn stage() -> impl Strategy<Value = Stage> {
    let join = (any::<bool>(), any::<usize>(), any::<usize>())
        .prop_map(|(some, incoming, scanned)| some.then_some(JoinCols { incoming, scanned }));
    let filter = (any::<bool>(), expr()).prop_map(|(some, e)| some.then_some(e));
    (key(), (any::<String>(), key()), filter, join, prop::collection::vec(any::<usize>(), 0..4))
        .prop_map(|(site, (table, key), filter, join, project)| Stage {
            site,
            scan: ScanSpec { table, key },
            filter,
            join,
            project,
        })
}

fn plan() -> impl Strategy<Value = QueryPlan> {
    (qid(), prop::collection::vec(stage(), 0..3), contact(), any::<Option<u32>>())
        .prop_map(|(id, stages, collector, limit)| QueryPlan { id, stages, collector, limit })
}

fn pier_msg() -> impl Strategy<Value = PierMsg> {
    prop_oneof![
        (plan(), any::<u32>()).prop_map(|(plan, stage)| PierMsg::Install { plan, stage }),
        (qid(), any::<u32>(), any::<u32>(), wire_tuples())
            .prop_map(|(qid, stage, seq, tuples)| PierMsg::Batch { qid, stage, seq, tuples }),
        (qid(), any::<u32>(), any::<u32>()).prop_map(|(qid, stage, total)| PierMsg::BatchEof {
            qid,
            stage,
            total
        }),
        (qid(), any::<u32>(), wire_tuples()).prop_map(|(qid, seq, tuples)| PierMsg::Results {
            qid,
            seq,
            tuples
        }),
        (qid(), any::<u32>()).prop_map(|(qid, total)| PierMsg::ResultsEof { qid, total }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        key().prop_map(|target| Request::FindNode { target }),
        (key(), bytes(), any::<u64>()).prop_map(|(key, value, ttl_us)| Request::Store {
            key,
            value,
            ttl_us
        }),
        key().prop_map(|key| Request::FindValue { key }),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let contacts = || prop::collection::vec(contact(), 0..4);
    prop_oneof![
        Just(Response::Pong),
        contacts().prop_map(|contacts| Response::Nodes { contacts }),
        Just(Response::StoreAck),
        (prop::collection::vec(bytes(), 0..4), contacts())
            .prop_map(|(values, closer)| Response::Values { values, closer }),
    ]
}

fn dht_msg() -> impl Strategy<Value = DhtMsg> {
    prop_oneof![
        (any::<u64>(), contact(), request()).prop_map(|(id, from, body)| DhtMsg::Request {
            id,
            from,
            body
        }),
        (any::<u64>(), contact(), response()).prop_map(|(id, from, body)| DhtMsg::Response {
            id,
            from,
            body
        }),
        (key(), bytes(), any::<u32>(), contact())
            .prop_map(|(key, payload, hops, origin)| DhtMsg::Route { key, payload, hops, origin }),
        (key(), bytes(), any::<u64>(), any::<u32>(), contact()).prop_map(
            |(key, value, ttl_us, hops, origin)| DhtMsg::RouteStore {
                key,
                value,
                ttl_us,
                hops,
                origin
            }
        ),
        (bytes(), contact()).prop_map(|(payload, origin)| DhtMsg::AppDirect { payload, origin }),
    ]
}

proptest! {
    #[test]
    fn roundtrip_vec_tuples(v in wire_tuples()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<Vec<Tuple>>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_recursive_enum(e in expr()) {
        let bytes = pier_codec::to_bytes(&e).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<Expr>(&bytes).unwrap(), e);
    }

    /// `DhtMsg` has no `PartialEq`: its roundtrip is checked on the bytes.
    #[test]
    fn roundtrip_messages(m in pier_msg(), d in dht_msg()) {
        prop_assert_eq!(PierMsg::decode(&m.encode()).unwrap(), m);
        let bytes = pier_codec::to_bytes(&d).unwrap();
        let back: DhtMsg = pier_codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(pier_codec::to_bytes(&back).unwrap(), bytes);
    }

    /// Sizing is the encoder run into a counting sink: it must report the
    /// length of the bytes the same walk writes into a `Vec`.
    #[test]
    fn encoded_size_is_the_length_of_the_bytes(m in pier_msg(), d in dht_msg(), t in wire_tuple()) {
        prop_assert_eq!(pier_codec::encoded_size(&m), m.encode().len());
        prop_assert_eq!(d.encoded_len(), pier_codec::to_bytes(&d).unwrap().len());
        prop_assert_eq!(t.encoded_size(), t.encode().len());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding hostile input may fail, but must not panic or allocate
        // unbounded memory.
        let _ = Tuple::decode(&bytes);
        let _ = PierMsg::decode(&bytes);
        let _ = pier_codec::from_bytes::<DhtMsg>(&bytes);
    }

    /// No strict prefix of an encoding decodes.
    #[test]
    fn truncated_messages_fail(m in pier_msg(), d in dht_msg()) {
        let pier = m.encode();
        for cut in 0..pier.len() {
            prop_assert!(PierMsg::decode(&pier[..cut]).is_err(), "cut {}", cut);
        }
        let dht = pier_codec::to_bytes(&d).unwrap();
        for cut in 0..dht.len() {
            prop_assert!(pier_codec::from_bytes::<DhtMsg>(&dht[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(
        m in pier_msg(),
        d in dht_msg(),
        extra in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut pier = m.encode();
        pier.extend_from_slice(&extra);
        prop_assert_eq!(PierMsg::decode(&pier).unwrap_err(), Error::TrailingBytes(extra.len()));
        let mut dht = pier_codec::to_bytes(&d).unwrap();
        dht.extend_from_slice(&extra);
        prop_assert_eq!(
            pier_codec::from_bytes::<DhtMsg>(&dht).unwrap_err(),
            Error::TrailingBytes(extra.len())
        );
    }
}

/// A declared length past the remaining input fails before any allocation,
/// wherever the length sits in a message.
#[test]
fn length_overrun_is_rejected() {
    let overrun = |bytes: &[u8]| {
        let mut out = bytes.to_vec();
        pier_codec::varint::write_u64(&mut out, 1 << 60);
        out.push(0);
        out
    };
    // `Results` (tag 3), qid (3, 44), seq 0, then the tuple count.
    let results = overrun(&[3, 3, 44, 0]);
    assert!(matches!(PierMsg::decode(&results), Err(Error::LengthOverrun { .. })));
    // `AppDirect` (tag 4), then the payload length.
    let app = overrun(&[4]);
    assert!(matches!(pier_codec::from_bytes::<DhtMsg>(&app), Err(Error::LengthOverrun { .. })));
    // A tuple's value count, and a string value's byte length.
    assert!(matches!(Tuple::decode(&overrun(&[])), Err(Error::LengthOverrun { .. })));
    assert!(matches!(Tuple::decode(&overrun(&[1, 3])), Err(Error::LengthOverrun { .. })));
}

/// An enum tag past the last variant fails, naming the type.
#[test]
fn unknown_variant_tags_are_rejected() {
    assert_eq!(PierMsg::decode(&[5]).unwrap_err(), Error::UnknownVariant { ty: "PierMsg", tag: 5 });
    assert_eq!(
        pier_codec::from_bytes::<DhtMsg>(&[0x80, 0x01]).unwrap_err(),
        Error::UnknownVariant { ty: "DhtMsg", tag: 128 }
    );
    assert_eq!(Tuple::decode(&[1, 5]).unwrap_err(), Error::UnknownVariant { ty: "Value", tag: 5 });
}
