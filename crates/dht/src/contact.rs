//! A contact: the pair of overlay identifier and network address.

use crate::key::Key;
use pier_codec::{Reader, Sink, Wire};
use pier_netsim::NodeId;

/// One routing-table entry: where a node lives in the key space and how to
/// reach it on the (simulated) network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Contact {
    pub key: Key,
    pub node: NodeId,
}

impl pier_netsim::HeapSize for Contact {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Contact {
    pub fn new(key: Key, node: NodeId) -> Self {
        Contact { key, node }
    }

    /// The canonical contact for a simulated node (key derived from its
    /// address).
    pub fn for_node(node: NodeId) -> Self {
        Contact { key: Key::for_node(node.raw()), node }
    }
}

/// The key, then the node's raw index as a varint.
impl Wire for Contact {
    fn put<S: Sink>(&self, out: &mut S) {
        out.put(&self.key).put(&self.node.raw());
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
        Ok(Contact { key: r.get()?, node: NodeId::new(r.get()?) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_contact_is_stable() {
        let a = Contact::for_node(NodeId::new(7));
        let b = Contact::for_node(NodeId::new(7));
        assert_eq!(a, b);
        assert_ne!(a, Contact::for_node(NodeId::new(8)));
    }

    #[test]
    fn serde_roundtrip() {
        let c = Contact::for_node(NodeId::new(3));
        let bytes = pier_codec::to_bytes(&c).unwrap();
        assert_eq!(pier_codec::from_bytes::<Contact>(&bytes).unwrap(), c);
    }
}
