//! Property-based tests of the primitive encodings every wire type is built
//! from: any value must survive an encode/decode roundtrip, decoding must
//! never panic on arbitrary bytes, and sizing a value must agree with
//! encoding it. The wire types themselves (`Tuple`, `PierMsg`, `DhtMsg`, …)
//! are held to the same properties in `pier-qp`'s `tests/proptests.rs`.

use proptest::prelude::*;

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
        assert_eq!(pier_codec::encoded_size(&seq), prefix + body);
        assert_eq!(pier_codec::to_bytes(&seq).unwrap().len(), prefix + body);

        // A byte payload is a sequence of varints, not a blob: 0xAB takes two.
        let payload = vec![0xABu8; len];
        assert_eq!(pier_codec::encoded_size(&payload), prefix + 2 * len);
        assert_eq!(pier_codec::to_bytes(&payload).unwrap().len(), prefix + 2 * len);

        let text = "x".repeat(len);
        assert_eq!(pier_codec::encoded_size(&text), prefix + len);
        assert_eq!(pier_codec::to_bytes(&text).unwrap().len(), prefix + len);
    }
}

proptest! {
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
    fn roundtrip_string(v in any::<String>()) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::encoded_size(&v), bytes.len());
        prop_assert_eq!(pier_codec::from_bytes::<String>(&bytes).unwrap(), v);
    }

    #[test]
    fn roundtrip_nested_containers(
        v in prop::collection::vec((any::<bool>(), prop::collection::vec(any::<u8>(), 0..40)), 0..16)
            .prop_map(|v| v.into_iter().map(|(some, b)| some.then_some(b)).collect::<Vec<_>>()),
    ) {
        let bytes = pier_codec::to_bytes(&v).unwrap();
        prop_assert_eq!(pier_codec::encoded_size(&v), bytes.len());
        prop_assert_eq!(pier_codec::from_bytes::<Vec<Option<Vec<u8>>>>(&bytes).unwrap(), v);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding hostile input may fail, but must not panic or allocate
        // unbounded memory.
        let _ = pier_codec::from_bytes::<Vec<String>>(&bytes);
        let _ = pier_codec::from_bytes::<Vec<Option<Box<u32>>>>(&bytes);
        let _ = pier_codec::from_bytes::<Vec<Vec<u8>>>(&bytes);
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
