//! Property-based tests: any value the workspace can construct must survive
//! an encode/decode roundtrip, decoding must never panic on arbitrary
//! bytes, and sizing a value must agree with encoding it.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Tree {
    Leaf(String),
    Pair(Box<Tree>, Box<Tree>),
    Tagged { id: u64, children: Vec<Tree> },
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = any::<String>().prop_map(Tree::Leaf);
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Pair(Box::new(a), Box::new(b))),
            (any::<u64>(), prop::collection::vec(inner, 0..4))
                .prop_map(|(id, children)| Tree::Tagged { id, children }),
        ]
    })
}

/// A byte string: goes through `serialize_bytes`, not as a sequence of `u8`.
#[derive(Debug, Clone)]
struct Blob(Vec<u8>);

impl Serialize for Blob {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

/// One variant of each enum kind, holding one of each remaining layout rule.
#[derive(Serialize, Debug, Clone)]
enum Shape {
    Unit,
    Newtype(Option<Box<Shape>>),
    Tuple(i64, f32, char),
    Struct {
        blob: Blob,
        map: BTreeMap<String, Option<u32>>,
        kids: Vec<Shape>,
        flag: bool,
        wide: u128,
    },
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![
        Just(Shape::Unit),
        Just(Shape::Newtype(None)),
        (any::<i64>(), any::<f32>(), any::<char>()).prop_map(|(a, b, c)| Shape::Tuple(a, b, c)),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| Shape::Newtype(Some(Box::new(s)))),
            (
                prop::collection::vec(any::<u8>(), 0..200),
                prop::collection::btree_map(any::<String>(), any::<Option<u32>>(), 0..6),
                prop::collection::vec(inner, 0..4),
                any::<bool>(),
                any::<u128>(),
            )
                .prop_map(|(blob, map, kids, flag, wide)| Shape::Struct {
                    blob: Blob(blob),
                    map,
                    kids,
                    flag,
                    wide,
                }),
        ]
    })
}

/// Sizing agrees with encoding across the lengths where the varint length
/// prefix grows a byte.
#[test]
fn encoded_size_at_length_prefix_boundaries() {
    for len in [0usize, 1, 127, 128, 1 << 14] {
        let prefix = pier_codec::varint::encoded_len(len as u64);
        // Elements of every varint width.
        let seq: Vec<u64> =
            (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let body: usize = seq.iter().map(|&v| pier_codec::varint::encoded_len(v)).sum();
        assert_eq!(pier_codec::encoded_size(&seq).unwrap(), prefix + body);
        assert_eq!(pier_codec::to_bytes(&seq).unwrap().len(), prefix + body);

        let blob = Blob(vec![0xAB; len]);
        assert_eq!(pier_codec::encoded_size(&blob).unwrap(), prefix + len);
        assert_eq!(pier_codec::to_bytes(&blob).unwrap().len(), prefix + len);

        let text = "x".repeat(len);
        assert_eq!(pier_codec::encoded_size(&text).unwrap(), prefix + len);
        assert_eq!(pier_codec::to_bytes(&text).unwrap().len(), prefix + len);

        let map: BTreeMap<u32, bool> = (0..len as u32).map(|i| (i, i % 2 == 0)).collect();
        let bytes = pier_codec::to_bytes(&map).unwrap();
        assert_eq!(pier_codec::encoded_size(&map).unwrap(), bytes.len());
    }
}

proptest! {
    /// Sizing is the encoder run into a counting sink: it must report the
    /// length of the bytes the same walk writes into a `Vec`.
    #[test]
    fn encoded_size_is_the_length_of_the_bytes(shape in shape_strategy()) {
        let bytes = pier_codec::to_bytes(&shape).unwrap();
        prop_assert_eq!(pier_codec::encoded_size(&shape).unwrap(), bytes.len());
    }

    #[test]
    fn roundtrip_u64(v in any::<u64>()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<u64>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_i64(v in any::<i64>()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<i64>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_f64(v in any::<f64>()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        let back = pier_codec::from_bytes::<f64>(&bytes).unwrap();
        prop_assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn roundtrip_string(v in any::<String>()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<String>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_vec_tuples(v in prop::collection::vec((any::<u32>(), any::<String>()), 0..32)) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<Vec<(u32, String)>>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_map(v in prop::collection::btree_map(any::<u16>(), any::<Option<bool>>(), 0..16)) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<BTreeMap<u16, Option<bool>>>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_recursive_enum(t in tree_strategy()) {
        let bytes = pier_codec::to_bytes(&t).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<Tree>(&bytes).unwrap(), t);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding hostile input may fail, but must not panic or allocate
        // unbounded memory.
        let _ = pier_codec::from_bytes::<Tree>(&bytes);
        let _ = pier_codec::from_bytes::<Vec<String>>(&bytes);
        let _ = pier_codec::from_bytes::<(u64, String, f64)>(&bytes);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        pier_codec::varint::write_u64(&mut buf, v);
        let (back, used) = pier_codec::varint::read_u64(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(used, pier_codec::varint::encoded_len(v));
    }

    #[test]
    fn zigzag_preserves_order_near_zero(a in -1000i64..1000, b in -1000i64..1000) {
        // Smaller magnitude must never encode longer than much larger magnitude.
        let la = pier_codec::varint::encoded_len(pier_codec::varint::zigzag_encode(a));
        let lb = pier_codec::varint::encoded_len(pier_codec::varint::zigzag_encode(b));
        if a.unsigned_abs() * 128 < b.unsigned_abs() {
            prop_assert!(la <= lb);
        }
    }
}
