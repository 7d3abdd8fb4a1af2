//! Golden encodings: the exact bytes of a fixed corpus of wire values.
//!
//! Every DHT and PIER message's wire size (and every DHT key built from
//! `Value::index_bytes`) is a function of these bytes, so a change to any
//! hand-written `Wire` impl that moves a single byte fails here, naming the
//! value. The corpus covers every variant of `DhtMsg`, `Request`,
//! `Response`, `PierMsg`, `Value` and `Expr`, a two-stage `QueryPlan`, and
//! payload bytes ≥ 128 (each a two-byte varint inside a `Vec<u8>`).

use pier_codec::Wire;
use pier_dht::{Contact, DhtMsg, Key, Request, Response};
use pier_netsim::NodeId;
use pier_qp::{Expr, JoinCols, PierMsg, QueryId, QueryPlan, ScanSpec, Stage, Tuple, Value};

/// One corpus value: its name, its bytes, and a decode-then-encode of them.
struct Entry {
    name: &'static str,
    bytes: Vec<u8>,
    reencode: fn(&[u8]) -> Vec<u8>,
}

fn reencode<T: Wire>(bytes: &[u8]) -> Vec<u8> {
    pier_codec::to_bytes(&pier_codec::from_bytes::<T>(bytes).unwrap()).unwrap()
}

fn entry<T: Wire>(name: &'static str, value: &T) -> Entry {
    let bytes = pier_codec::to_bytes(value).unwrap();
    assert_eq!(pier_codec::encoded_size(value), bytes.len(), "{name}");
    Entry { name, bytes, reencode: reencode::<T> }
}

fn contact(n: u32) -> Contact {
    Contact::for_node(NodeId::new(n))
}

fn two_stage_plan() -> QueryPlan {
    QueryPlan {
        id: QueryId { origin: 9, seq: 200 },
        stages: vec![
            Stage {
                site: Key::hash(b"site-0"),
                scan: ScanSpec { table: "inverted".into(), key: Key::hash(b"led") },
                filter: Some(Expr::contains(2, "zeppelin")),
                join: None,
                project: vec![1, 0],
            },
            Stage {
                site: Key::hash(b"site-1"),
                scan: ScanSpec { table: "inverted".into(), key: Key::hash(b"stairway") },
                filter: None,
                join: Some(JoinCols { incoming: 0, scanned: 1 }),
                project: vec![0, 300],
            },
        ],
        collector: contact(70_000),
        limit: Some(150),
    }
}

fn corpus() -> Vec<Entry> {
    let key = Key::hash(b"golden");
    let high = vec![0x00, 0x7F, 0x80, 0xFF];
    let qid = QueryId { origin: 3, seq: 44 };
    let tuples = vec![
        Tuple::new(vec![Value::Str("zeppelin".into()), Value::Key(key)]),
        Tuple::new(vec![Value::Int(-1), Value::Null]),
    ];
    let values = [
        ("value.null", Value::Null),
        ("value.bool", Value::Bool(true)),
        ("value.int", Value::Int(-300)),
        ("value.int_min", Value::Int(i64::MIN)),
        ("value.str", Value::Str("stairway".into())),
        ("value.key", Value::Key(key)),
    ];
    let exprs = [
        ("expr.col", Expr::Col(300)),
        ("expr.lit", Expr::Lit(Value::Int(7))),
        ("expr.contains", Expr::contains(2, "zeppelin")),
        ("expr.and", Expr::And(vec![Expr::contains(1, "led"), Expr::And(vec![])])),
    ];
    let requests = [
        ("request.ping", Request::Ping),
        ("request.find_node", Request::FindNode { target: key }),
        ("request.store", Request::Store { key, value: high.clone(), ttl_us: 900_000_000 }),
        ("request.find_value", Request::FindValue { key }),
    ];
    let responses = [
        ("response.pong", Response::Pong),
        ("response.nodes", Response::Nodes { contacts: vec![contact(1), contact(200)] }),
        ("response.store_ack", Response::StoreAck),
        (
            "response.values",
            Response::Values { values: vec![high.clone(), vec![]], closer: vec![contact(5)] },
        ),
    ];
    let dht = [
        ("dht.request", DhtMsg::Request { id: 1, from: contact(1), body: requests[2].1.clone() }),
        (
            "dht.response",
            DhtMsg::Response { id: 1 << 40, from: contact(2), body: responses[3].1.clone() },
        ),
        (
            "dht.route",
            DhtMsg::Route { key, payload: high.clone(), hops: 300, origin: contact(70_000) },
        ),
        (
            "dht.route_store",
            DhtMsg::RouteStore {
                key,
                value: tuples[0].encode(),
                ttl_us: 60_000_000,
                hops: 0,
                origin: contact(3),
            },
        ),
        ("dht.app_direct", DhtMsg::AppDirect { payload: high.clone(), origin: contact(4) }),
    ];
    let pier = [
        ("pier.install", PierMsg::Install { plan: two_stage_plan(), stage: 1 }),
        ("pier.batch", PierMsg::Batch { qid, stage: 1, seq: 0, tuples: tuples.clone() }),
        ("pier.batch_eof", PierMsg::BatchEof { qid, stage: 1, total: 1 }),
        ("pier.results", PierMsg::Results { qid, seq: 2, tuples: tuples.clone() }),
        ("pier.results_eof", PierMsg::ResultsEof { qid, total: 3 }),
    ];

    let mut out = Vec::new();
    out.extend(values.iter().map(|(n, v)| entry(n, v)));
    out.extend(exprs.iter().map(|(n, v)| entry(n, v)));
    out.extend(requests.iter().map(|(n, v)| entry(n, v)));
    out.extend(responses.iter().map(|(n, v)| entry(n, v)));
    out.extend(dht.iter().map(|(n, v)| entry(n, v)));
    out.extend(pier.iter().map(|(n, v)| entry(n, v)));
    out.push(entry("tuple", &tuples[0]));
    out.push(entry("plan.two_stage", &two_stage_plan()));
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, hex)` of every corpus value, in corpus order. The hex was
/// captured from the serde-based encoder that the `Wire` impls replaced,
/// so these pins carry the byte identity across that rewrite.
const GOLDEN: &[(&str, &str)] = &[
    ("value.null", "00"),
    ("value.bool", "0101"),
    ("value.int", "02d704"),
    ("value.int_min", "02ffffffffffffffffff01"),
    ("value.str", "03087374616972776179"),
    ("value.key", "0414ec30adc79e734900430e4174cf0a36c2d0c42272"),
    ("expr.col", "00ac02"),
    ("expr.lit", "01020e"),
    ("expr.contains", "0200020103087a657070656c696e"),
    ("expr.and", "03020200010103036c65640300"),
    ("request.ping", "00"),
    ("request.find_node", "0114ec30adc79e734900430e4174cf0a36c2d0c42272"),
    ("request.store", "0214ec30adc79e734900430e4174cf0a36c2d0c4227204007f8001ff0180d293ad03"),
    ("request.find_value", "0314ec30adc79e734900430e4174cf0a36c2d0c42272"),
    ("response.pong", "00"),
    ("response.nodes", "010214f712ea27462b64e020e49801df4881cf4a08980f011493369b6d6a0fe61e9fcc2c26c07f5fb683b17cc9c801"),
    ("response.store_ack", "02"),
    ("response.values", "030204007f8001ff01000114fe966651f77a356757443aa5c884f93c687c13bb05"),
    ("dht.request", "000114f712ea27462b64e020e49801df4881cf4a08980f010214ec30adc79e734900430e4174cf0a36c2d0c4227204007f8001ff0180d293ad03"),
    ("dht.response", "0180808080802014ec3c8725333e66eae4312a5925d3a2e7bbbedfb202030204007f8001ff01000114fe966651f77a356757443aa5c884f93c687c13bb05"),
    ("dht.route", "0214ec30adc79e734900430e4174cf0a36c2d0c4227204007f8001ff01ac02140856015cf8c25cfd4502a75756661dd680874190f0a204"),
    ("dht.route_store", "0314ec30adc79e734900430e4174cf0a36c2d0c42272210203087a657070656c696e0414ec0130ad01c7019e01734900430e4174cf010a36c201d001c4012272808ece1c0014116d4d1f806a82843d726ee3875a5f3f292e199303"),
    ("dht.app_direct", "0404007f8001ff011449a98a97a83b5e0c52e0c1e8b4a1a584bd5f94a604"),
    ("pier.install", "0009c801021465abe90b3d30230ef0f84bd33066643849fbdac808696e766572746564146a9a37af6cf5b18589847d90cddfc861aae1df65010200020103087a657070656c696e0002010014310537c401a25233b226efef0eac610142ce1a1308696e76657274656414733ed8b1ec0a68976c24f4516f8be32c04ab0097000100010200ac02140856015cf8c25cfd4502a75756661dd680874190f0a20401960101"),
    ("pier.batch", "01032c0100020203087a657070656c696e0414ec30adc79e734900430e4174cf0a36c2d0c4227202020100"),
    ("pier.batch_eof", "02032c0101"),
    ("pier.results", "03032c02020203087a657070656c696e0414ec30adc79e734900430e4174cf0a36c2d0c4227202020100"),
    ("pier.results_eof", "04032c03"),
    ("tuple", "0203087a657070656c696e0414ec30adc79e734900430e4174cf0a36c2d0c42272"),
    ("plan.two_stage", "09c801021465abe90b3d30230ef0f84bd33066643849fbdac808696e766572746564146a9a37af6cf5b18589847d90cddfc861aae1df65010200020103087a657070656c696e0002010014310537c401a25233b226efef0eac610142ce1a1308696e76657274656414733ed8b1ec0a68976c24f4516f8be32c04ab0097000100010200ac02140856015cf8c25cfd4502a75756661dd680874190f0a204019601"),
];

#[test]
fn encodings_are_pinned() {
    let corpus = corpus();
    let names: Vec<&str> = corpus.iter().map(|e| e.name).collect();
    let pinned: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned);
    for (e, (_, want)) in corpus.iter().zip(GOLDEN) {
        assert_eq!(hex(&e.bytes), *want, "{}", e.name);
        assert_eq!((e.reencode)(&e.bytes), e.bytes, "{} decodes and re-encodes", e.name);
    }
}
