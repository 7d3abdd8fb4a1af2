//! DHT wire protocol.
//!
//! Requests and responses are matched by a per-sender `RpcId`. `Route` is
//! the one-way recursive primitive PIER uses to deliver query plans to key
//! owners ("all messages are sent via the DHT routing layer", §2 of the
//! paper); `AppDirect` is the exception the paper carves out for query
//! answers, which flow straight back to the query node.

use crate::classes;
use crate::contact::Contact;
use crate::key::Key;
use pier_codec::{Error, Reader, Sink, Wire};
use pier_netsim::MetricClass;

/// Fixed per-message overhead accounted on top of the encoded payload
/// (transport headers), in bytes.
const HEADER_BYTES: usize = 28;

/// Correlates a response with its request (unique per sender).
pub type RpcId = u64;

/// A full DHT message.
#[derive(Clone, Debug)]
pub enum DhtMsg {
    Request {
        id: RpcId,
        from: Contact,
        body: Request,
    },
    Response {
        id: RpcId,
        from: Contact,
        body: Response,
    },
    /// Recursive routing step: forward toward the owner of `key`, then
    /// deliver `payload` to the application there.
    Route {
        key: Key,
        payload: Vec<u8>,
        hops: u32,
        origin: Contact,
    },
    /// Recursive (Bamboo-style) store: forwarded greedily to the owner,
    /// which stores the value. Fire-and-forget — durability is the
    /// publisher's soft-state refresh loop (PIERSearch's `Publisher`).
    RouteStore {
        key: Key,
        value: Vec<u8>,
        ttl_us: u64,
        hops: u32,
        origin: Contact,
    },
    /// Direct application payload (result streaming; not routed).
    AppDirect {
        payload: Vec<u8>,
        origin: Contact,
    },
}

/// RPC request bodies.
#[derive(Clone, Debug)]
pub enum Request {
    Ping,
    /// Return the k closest contacts to `target`.
    FindNode {
        target: Key,
    },
    /// Store a value under `key` with a requested TTL in microseconds.
    Store {
        key: Key,
        value: Vec<u8>,
        ttl_us: u64,
    },
    /// Return stored values for `key`, or closer contacts.
    FindValue {
        key: Key,
    },
}

/// RPC response bodies.
#[derive(Clone, Debug)]
pub enum Response {
    Pong,
    Nodes {
        contacts: Vec<Contact>,
    },
    StoreAck,
    /// Values found at the responder (possibly alongside closer contacts
    /// is unnecessary: a holder is authoritative for its replica).
    Values {
        values: Vec<Vec<u8>>,
        closer: Vec<Contact>,
    },
}

impl DhtMsg {
    /// Encoded size of this message's payload, without the header.
    pub fn encoded_len(&self) -> usize {
        pier_codec::encoded_size(self)
    }

    /// Bytes this message costs on the wire: the encoded payload plus the
    /// fixed `HEADER_BYTES`.
    pub fn wire_size(&self) -> usize {
        self.encoded_len() + HEADER_BYTES
    }

    /// Interned metrics class for this message.
    pub fn class(&self) -> MetricClass {
        match self {
            DhtMsg::Request { body, .. } => match body {
                Request::Ping => classes::REQ_PING.id(),
                Request::FindNode { .. } => classes::REQ_FIND_NODE.id(),
                Request::Store { .. } => classes::REQ_STORE.id(),
                Request::FindValue { .. } => classes::REQ_FIND_VALUE.id(),
            },
            DhtMsg::Response { body, .. } => match body {
                Response::Pong => classes::RESP_PONG.id(),
                Response::Nodes { .. } => classes::RESP_NODES.id(),
                Response::StoreAck => classes::RESP_STORE_ACK.id(),
                Response::Values { .. } => classes::RESP_VALUES.id(),
            },
            DhtMsg::Route { .. } => classes::ROUTE.id(),
            DhtMsg::RouteStore { .. } => classes::ROUTE_STORE.id(),
            DhtMsg::AppDirect { .. } => classes::APP_DIRECT.id(),
        }
    }
}

impl Wire for DhtMsg {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            DhtMsg::Request { id, from, body } => out.tag(0).put(id).put(from).put(body),
            DhtMsg::Response { id, from, body } => out.tag(1).put(id).put(from).put(body),
            DhtMsg::Route { key, payload, hops, origin } => {
                out.tag(2).put(key).put(payload).put(hops).put(origin)
            }
            DhtMsg::RouteStore { key, value, ttl_us, hops, origin } => {
                out.tag(3).put(key).put(value).put(ttl_us).put(hops).put(origin)
            }
            DhtMsg::AppDirect { payload, origin } => out.tag(4).put(payload).put(origin),
        };
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(match r.varint()? {
            0 => DhtMsg::Request { id: r.get()?, from: r.get()?, body: r.get()? },
            1 => DhtMsg::Response { id: r.get()?, from: r.get()?, body: r.get()? },
            2 => {
                DhtMsg::Route { key: r.get()?, payload: r.get()?, hops: r.get()?, origin: r.get()? }
            }
            3 => DhtMsg::RouteStore {
                key: r.get()?,
                value: r.get()?,
                ttl_us: r.get()?,
                hops: r.get()?,
                origin: r.get()?,
            },
            4 => DhtMsg::AppDirect { payload: r.get()?, origin: r.get()? },
            tag => return Err(Error::UnknownVariant { ty: "DhtMsg", tag }),
        })
    }
}

impl Wire for Request {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            Request::Ping => out.tag(0),
            Request::FindNode { target } => out.tag(1).put(target),
            Request::Store { key, value, ttl_us } => out.tag(2).put(key).put(value).put(ttl_us),
            Request::FindValue { key } => out.tag(3).put(key),
        };
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(match r.varint()? {
            0 => Request::Ping,
            1 => Request::FindNode { target: r.get()? },
            2 => Request::Store { key: r.get()?, value: r.get()?, ttl_us: r.get()? },
            3 => Request::FindValue { key: r.get()? },
            tag => return Err(Error::UnknownVariant { ty: "Request", tag }),
        })
    }
}

impl Wire for Response {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            Response::Pong => out.tag(0),
            Response::Nodes { contacts } => out.tag(1).put(contacts),
            Response::StoreAck => out.tag(2),
            Response::Values { values, closer } => out.tag(3).put(values).put(closer),
        };
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(match r.varint()? {
            0 => Response::Pong,
            1 => Response::Nodes { contacts: r.get()? },
            2 => Response::StoreAck,
            3 => Response::Values { values: r.get()?, closer: r.get()? },
            tag => return Err(Error::UnknownVariant { ty: "Response", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::NodeId;

    fn contact() -> Contact {
        Contact::for_node(NodeId::new(1))
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            DhtMsg::Request { id: 1, from: contact(), body: Request::Ping },
            DhtMsg::Request {
                id: 2,
                from: contact(),
                body: Request::FindNode { target: Key::hash(b"t") },
            },
            DhtMsg::Request {
                id: 3,
                from: contact(),
                body: Request::Store { key: Key::hash(b"k"), value: vec![1, 2], ttl_us: 99 },
            },
            DhtMsg::Request {
                id: 4,
                from: contact(),
                body: Request::FindValue { key: Key::hash(b"k") },
            },
            DhtMsg::Response { id: 1, from: contact(), body: Response::Pong },
            DhtMsg::Response {
                id: 2,
                from: contact(),
                body: Response::Nodes { contacts: vec![contact()] },
            },
            DhtMsg::Response { id: 3, from: contact(), body: Response::StoreAck },
            DhtMsg::Response {
                id: 4,
                from: contact(),
                body: Response::Values { values: vec![vec![9]], closer: vec![] },
            },
            DhtMsg::Route {
                key: Key::hash(b"r"),
                payload: vec![7; 30],
                hops: 3,
                origin: contact(),
            },
            DhtMsg::AppDirect { payload: vec![1], origin: contact() },
        ];
        for m in msgs {
            let bytes = pier_codec::to_bytes(&m).unwrap();
            assert_eq!(bytes.len(), m.encoded_len());
            let back: DhtMsg = pier_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back.class(), m.class());
            assert_eq!(back.encoded_len(), m.encoded_len());
        }
    }

    #[test]
    fn ping_is_small() {
        let m = DhtMsg::Request { id: 1, from: contact(), body: Request::Ping };
        // enum tag + id + contact(21 key + node) + body tag: well under 40B.
        assert!(m.encoded_len() < 40, "got {}", m.encoded_len());
    }
}
