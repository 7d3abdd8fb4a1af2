//! # pier-codec — compact binary serde format
//!
//! Every DHT and PIER message in this workspace is serialized with this
//! format before its wire size is accounted, so the bandwidth numbers in the
//! reproduced experiments (publishing cost per file, posting-list bytes
//! shipped per query, …) reflect real encoded sizes rather than guesses.
//!
//! The format is bincode-like: **not self-describing** (field names and
//! types are implied by the Rust type), varint integers, length-prefixed
//! strings/sequences/maps, fixed-width floats. The paper observes that much
//! of its measured 3.5 KB-per-file publishing cost was Java serialization
//! overhead "which could in principle be eliminated" — this codec is the
//! eliminated version, and EXPERIMENTS.md compares both.
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Inverted { keyword: String, file_id: u64 }
//!
//! let t = Inverted { keyword: "zeppelin".into(), file_id: 42 };
//! let bytes = pier_codec::to_bytes(&t).unwrap();
//! assert_eq!(bytes.len(), 1 + 8 + 1); // len-prefix + keyword + varint id
//! let back: Inverted = pier_codec::from_bytes(&bytes).unwrap();
//! assert_eq!(back, t);
//! ```

mod de;
mod error;
mod ser;
pub mod varint;

pub use de::{from_bytes, from_bytes_prefix, Deserializer};
pub use error::{Error, Result};
pub use ser::{encoded_size, to_bytes, Serializer};

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(value).expect("serialize");
        assert_eq!(bytes.len(), encoded_size(value).unwrap());
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(&back, value);
        back
    }

    #[test]
    fn primitives() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-1i32);
        roundtrip(&3.5f64);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&'ß');
        roundtrip(&String::from("hello world"));
        roundtrip(&String::new());
        roundtrip(&u128::MAX);
        roundtrip(&i128::MIN);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let bytes = to_bytes(&f64::NAN).unwrap();
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<String>::new());
        roundtrip(&Some(7i16));
        roundtrip(&Option::<u8>::None);
        roundtrip(&(1u8, "two".to_string(), 3.0f32));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        roundtrip(&m);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Proto {
        Ping,
        Store { key: u64, value: Vec<u8> },
        Lookup(u64),
        Batch(Vec<Proto>),
    }

    #[test]
    fn enums_nested() {
        roundtrip(&Proto::Ping);
        roundtrip(&Proto::Store { key: 9, value: vec![1, 2, 3] });
        roundtrip(&Proto::Lookup(u64::MAX));
        roundtrip(&Proto::Batch(vec![Proto::Ping, Proto::Lookup(0)]));
    }

    #[test]
    fn unit_variant_is_one_byte() {
        assert_eq!(to_bytes(&Proto::Ping).unwrap().len(), 1);
    }

    #[test]
    fn struct_fields_have_no_name_overhead() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Named {
            a_very_long_field_name_that_should_not_appear: u8,
        }
        assert_eq!(
            to_bytes(&Named { a_very_long_field_name_that_should_not_appear: 5 }).unwrap(),
            vec![5]
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0xAA);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert_eq!(err, Error::TrailingBytes(1));
    }

    #[test]
    fn prefix_decoding_reports_consumed() {
        let mut bytes = to_bytes(&"abc".to_string()).unwrap();
        let tail_start = bytes.len();
        bytes.extend_from_slice(&[9, 9, 9]);
        let (s, used) = from_bytes_prefix::<String>(&bytes).unwrap();
        assert_eq!(s, "abc");
        assert_eq!(used, tail_start);
    }

    #[test]
    fn corrupt_length_rejected_without_allocation() {
        // Declared string length of 2^60 with 1 byte of payload: must be
        // rejected by the length check, not attempted.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1 << 60);
        bytes.push(b'x');
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert!(matches!(err, Error::LengthOverrun { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(from_bytes::<String>(&bytes).unwrap_err(), Error::InvalidUtf8);
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert_eq!(from_bytes::<bool>(&[2]).unwrap_err(), Error::InvalidBool(2));
        assert_eq!(from_bytes::<Option<u8>>(&[9]).unwrap_err(), Error::InvalidOptionTag(9));
    }

    #[test]
    fn eof_on_truncation() {
        let bytes = to_bytes(&(1u64, 2u64, 3u64)).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<(u64, u64, u64)>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn borrowed_str_zero_copy() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Borrowed<'a> {
            #[serde(borrow)]
            s: &'a str,
        }
        let bytes = to_bytes(&Borrowed { s: "shared" }).unwrap();
        let back: Borrowed = from_bytes(&bytes).unwrap();
        assert_eq!(back.s, "shared");
    }

    #[test]
    fn out_of_range_narrowing_fails() {
        let bytes = to_bytes(&300u64).unwrap();
        assert!(from_bytes::<u8>(&bytes).is_err());
    }
}
