//! PIER's wire protocol, carried as opaque payloads inside DHT `Route`
//! (plan dissemination, inter-stage tuple streams) and `AppDirect`
//! (result streams) messages.

use crate::plan::{QueryId, QueryPlan};
use crate::value::Tuple;
use pier_codec::{Error, Reader, Sink, Wire};
use pier_netsim::MetricClass;

/// All engine-to-engine messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PierMsg {
    /// Install stage `stage` of `plan` at the owner of its site key.
    Install { plan: QueryPlan, stage: u32 },
    /// A batch of intermediate tuples flowing into stage `stage`.
    Batch { qid: QueryId, stage: u32, seq: u32, tuples: Vec<Tuple> },
    /// End of the stream into `stage`: `total` batches were sent.
    /// (Separate from the batches because DHT routing may reorder.)
    BatchEof { qid: QueryId, stage: u32, total: u32 },
    /// A batch of final results, sent directly to the collector.
    Results { qid: QueryId, seq: u32, tuples: Vec<Tuple> },
    /// End of the result stream: `total` result batches were sent.
    ResultsEof { qid: QueryId, total: u32 },
}

impl PierMsg {
    pub fn encode(&self) -> Vec<u8> {
        pier_codec::to_bytes(self).expect("PIER messages always serialize")
    }

    pub fn decode(bytes: &[u8]) -> Result<PierMsg, pier_codec::Error> {
        pier_codec::from_bytes(bytes)
    }

    /// Interned metrics class for this message.
    pub fn class(&self) -> MetricClass {
        use crate::classes;
        match self {
            PierMsg::Install { .. } => classes::INSTALL.id(),
            PierMsg::Batch { .. } => classes::BATCH.id(),
            PierMsg::BatchEof { .. } => classes::BATCH_EOF.id(),
            PierMsg::Results { .. } => classes::RESULTS.id(),
            PierMsg::ResultsEof { .. } => classes::RESULTS_EOF.id(),
        }
    }
}

impl Wire for PierMsg {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            PierMsg::Install { plan, stage } => out.tag(0).put(plan).put(stage),
            PierMsg::Batch { qid, stage, seq, tuples } => {
                out.tag(1).put(qid).put(stage).put(seq).put(tuples)
            }
            PierMsg::BatchEof { qid, stage, total } => out.tag(2).put(qid).put(stage).put(total),
            PierMsg::Results { qid, seq, tuples } => out.tag(3).put(qid).put(seq).put(tuples),
            PierMsg::ResultsEof { qid, total } => out.tag(4).put(qid).put(total),
        };
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(match r.varint()? {
            0 => PierMsg::Install { plan: r.get()?, stage: r.get()? },
            1 => PierMsg::Batch { qid: r.get()?, stage: r.get()?, seq: r.get()?, tuples: r.get()? },
            2 => PierMsg::BatchEof { qid: r.get()?, stage: r.get()?, total: r.get()? },
            3 => PierMsg::Results { qid: r.get()?, seq: r.get()?, tuples: r.get()? },
            4 => PierMsg::ResultsEof { qid: r.get()?, total: r.get()? },
            tag => return Err(Error::UnknownVariant { ty: "PierMsg", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn roundtrip() {
        let qid = QueryId { origin: 3, seq: 44 };
        let msgs = vec![
            PierMsg::Batch { qid, stage: 1, seq: 0, tuples: vec![tuple![1i64, "x"]] },
            PierMsg::BatchEof { qid, stage: 1, total: 1 },
            PierMsg::Results { qid, seq: 0, tuples: vec![tuple!["y"]] },
            PierMsg::ResultsEof { qid, total: 1 },
        ];
        for m in msgs {
            let back = PierMsg::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(PierMsg::decode(&[0xFF, 0x00, 0x13]).is_err());
        assert!(PierMsg::decode(&[]).is_err());
    }

    /// An `Install` whose filter is 100,048 bytes in all, the filter a
    /// chain of `Contains` tags (each opens another nested `Expr`): an
    /// error, where unbounded recursion overflowed the stack.
    #[test]
    fn deeply_nested_filter_is_an_error() {
        use crate::expr::Expr;
        use crate::plan::{ScanSpec, Stage};
        use pier_dht::{Contact, Key};
        let install = |filter| PierMsg::Install {
            plan: QueryPlan {
                id: QueryId { origin: 1, seq: 2 },
                stages: vec![Stage {
                    site: Key::hash(b"site"),
                    scan: ScanSpec { table: "inverted".into(), key: Key::hash(b"led") },
                    filter,
                    join: None,
                    project: vec![0],
                }],
                collector: Contact::for_node(pier_netsim::NodeId::new(3)),
                limit: None,
            },
            stage: 0,
        };
        // The bytes up to the filter's `Some` tag, where the two differ.
        let (none, some) = (install(None).encode(), install(Some(Expr::Col(0))).encode());
        let at = none.iter().zip(&some).position(|(a, b)| a != b).unwrap();
        let mut bytes = some[..=at].to_vec();
        bytes.resize(100_048, 2);
        assert_eq!(PierMsg::decode(&bytes), Err(Error::TooDeep { limit: pier_codec::MAX_DEPTH }));
        // A filter a few levels deep still decodes.
        let shallow =
            install(Some(Expr::And(vec![Expr::contains(0, "a"), Expr::contains(1, "b")])));
        assert_eq!(PierMsg::decode(&shallow.encode()), Ok(shallow));
    }
}
