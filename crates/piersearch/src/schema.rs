//! The PIERSearch relations of §3.1, verbatim from the paper:
//!
//! * `Item(fileID, filename, filesize, ipAddress, port)` — indexed by
//!   fileID, one tuple per shared item;
//! * `Inverted(keyword, fileID)` — indexed by keyword, so all postings for
//!   one keyword land on one node;
//! * `InvertedCache(keyword, fileID, fulltext)` — the Fig. 3 variant that
//!   caches the filename on every posting.

use pier_dht::Key;
use pier_netsim::NodeId;
use pier_qp::{Field, FieldType, Schema, TableDef, Tuple, Value};

/// Table name constants (shared by publisher, search engine, and plans).
pub const ITEM: &str = "item";
pub const INVERTED: &str = "inverted";
pub const INVERTED_CACHE: &str = "inverted_cache";

/// `Item(fileID, filename, filesize, ipAddress, port)`, published on fileID.
pub fn item_table() -> TableDef {
    TableDef::new(
        ITEM,
        Schema::new(vec![
            Field::new("fileID", FieldType::Key),
            Field::new("filename", FieldType::Str),
            Field::new("filesize", FieldType::Int),
            Field::new("ipAddress", FieldType::Int),
            Field::new("port", FieldType::Int),
        ]),
        0,
    )
}

/// `Inverted(keyword, fileID)`, published on keyword.
pub fn inverted_table() -> TableDef {
    TableDef::new(
        INVERTED,
        Schema::new(vec![
            Field::new("keyword", FieldType::Str),
            Field::new("fileID", FieldType::Key),
        ]),
        0,
    )
}

/// `InvertedCache(keyword, fileID, fulltext)`, published on keyword.
pub fn inverted_cache_table() -> TableDef {
    TableDef::new(
        INVERTED_CACHE,
        Schema::new(vec![
            Field::new("keyword", FieldType::Str),
            Field::new("fileID", FieldType::Key),
            Field::new("fulltext", FieldType::Str),
        ]),
        0,
    )
}

/// A catalog pre-loaded with all three PIERSearch tables.
pub fn catalog() -> pier_qp::Catalog {
    let mut c = pier_qp::Catalog::new();
    c.register(item_table());
    c.register(inverted_table());
    c.register(inverted_cache_table());
    c
}

/// The unique file identifier: "generated by applying a hash on the other
/// fields" (§3.1).
pub fn file_id(filename: &str, filesize: u64, host: NodeId, port: u16) -> Key {
    let mut buf = Vec::with_capacity(filename.len() + 16);
    buf.extend_from_slice(filename.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&filesize.to_be_bytes());
    buf.extend_from_slice(&host.raw().to_be_bytes());
    buf.extend_from_slice(&port.to_be_bytes());
    Key::hash(&buf)
}

/// One decoded Item row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemRecord {
    pub file_id: Key,
    pub filename: String,
    pub filesize: u64,
    pub host: NodeId,
    pub port: u16,
}

impl ItemRecord {
    pub fn new(filename: &str, filesize: u64, host: NodeId, port: u16) -> Self {
        ItemRecord {
            file_id: file_id(filename, filesize, host, port),
            filename: filename.to_string(),
            filesize,
            host,
            port,
        }
    }

    /// Build the Item tuple for publishing.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(vec![
            Value::Key(self.file_id),
            Value::Str(self.filename.clone()),
            Value::Int(self.filesize as i64),
            Value::Int(self.host.raw() as i64),
            Value::Int(self.port as i64),
        ])
    }

    /// Decode an Item tuple.
    pub fn from_tuple(t: &Tuple) -> Option<ItemRecord> {
        Some(ItemRecord {
            file_id: t.get(0)?.as_key()?,
            filename: t.get(1)?.as_str()?.to_string(),
            filesize: t.get(2)?.as_int()? as u64,
            host: NodeId::new(u32::try_from(t.get(3)?.as_int()?).ok()?),
            port: u16::try_from(t.get(4)?.as_int()?).ok()?,
        })
    }
}

/// Build an Inverted tuple.
pub fn inverted_tuple(keyword: &str, file_id: Key) -> Tuple {
    Tuple::new(vec![Value::Str(keyword.to_string()), Value::Key(file_id)])
}

/// Build an InvertedCache tuple.
pub fn inverted_cache_tuple(keyword: &str, file_id: Key, fulltext: &str) -> Tuple {
    Tuple::new(vec![
        Value::Str(keyword.to_string()),
        Value::Key(file_id),
        Value::Str(fulltext.to_string()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_depends_on_all_fields() {
        let base = file_id("a.mp3", 10, NodeId::new(1), 6346);
        assert_ne!(base, file_id("b.mp3", 10, NodeId::new(1), 6346));
        assert_ne!(base, file_id("a.mp3", 11, NodeId::new(1), 6346));
        assert_ne!(base, file_id("a.mp3", 10, NodeId::new(2), 6346));
        assert_ne!(base, file_id("a.mp3", 10, NodeId::new(1), 6347));
        assert_eq!(base, file_id("a.mp3", 10, NodeId::new(1), 6346));
    }

    #[test]
    fn item_record_roundtrip() {
        let rec = ItemRecord::new("led_zeppelin.mp3", 4_000_000, NodeId::new(9), 6346);
        let t = rec.to_tuple();
        // Holds: `to_tuple` emits the five Item fields in schema order.
        item_table().schema.check(&t).expect("schema-valid");
        assert_eq!(ItemRecord::from_tuple(&t), Some(rec));
    }

    #[test]
    fn from_tuple_rejects_malformed() {
        let bad = Tuple::new(vec![Value::Int(1)]);
        assert_eq!(ItemRecord::from_tuple(&bad), None);
        let wrong_types = Tuple::new(vec![
            Value::Str("x".into()),
            Value::Str("y".into()),
            Value::Int(1),
            Value::Int(1),
            Value::Int(1),
        ]);
        assert_eq!(ItemRecord::from_tuple(&wrong_types), None);
    }

    #[test]
    fn inverted_tuples_validate() {
        let f = Key::hash(b"f");
        inverted_table().schema.check(&inverted_tuple("rock", f)).unwrap();
        inverted_cache_table()
            .schema
            .check(&inverted_cache_tuple("rock", f, "rock_anthem.mp3"))
            .unwrap();
    }

    #[test]
    fn same_keyword_same_home() {
        let inv = inverted_table();
        let a = inv.publish_key(&inverted_tuple("rock", Key::hash(b"a")));
        let b = inv.publish_key(&inverted_tuple("rock", Key::hash(b"b")));
        assert_eq!(a, b, "postings for one keyword must colocate");
        // But Inverted and InvertedCache namespaces differ.
        let c =
            inverted_cache_table().publish_key(&inverted_cache_tuple("rock", Key::hash(b"a"), "x"));
        assert_ne!(a, c);
    }

    #[test]
    fn catalog_has_all_tables() {
        let c = catalog();
        assert!(c.get(ITEM).is_some());
        assert!(c.get(INVERTED).is_some());
        assert!(c.get(INVERTED_CACHE).is_some());
    }
}
