//! # pier-codec — the compact binary wire format
//!
//! Every DHT and PIER message is encoded with this format before its wire
//! size is accounted, so the reproduced bandwidth numbers (publishing cost
//! per file, posting-list bytes shipped per query, …) are real encoded
//! sizes. The paper blames much of its 3.5 KB-per-file publishing cost on
//! Java serialization overhead "which could in principle be eliminated";
//! this bincode-like, non-self-describing format is the eliminated version.
//! Each wire type implements [`Wire`] by hand, beside its definition:
//!
//! ```
//! use pier_codec::{Reader, Sink, Wire};
//!
//! /// The paper's `Inverted(keyword, fileID)` posting.
//! #[derive(PartialEq, Debug)]
//! struct Inverted { keyword: String, file_id: u64 }
//!
//! impl Wire for Inverted {
//!     fn put<S: Sink>(&self, out: &mut S) {
//!         out.put(&self.keyword).put(&self.file_id);
//!     }
//!     fn get(r: &mut Reader<'_>) -> pier_codec::Result<Self> {
//!         Ok(Inverted { keyword: r.get()?, file_id: r.get()? })
//!     }
//! }
//!
//! let t = Inverted { keyword: "zeppelin".into(), file_id: 42 };
//! let bytes = pier_codec::to_bytes(&t).unwrap();
//! assert_eq!(bytes.len(), 1 + 8 + 1); // len-prefix + keyword + varint id
//! assert_eq!(pier_codec::encoded_size(&t), bytes.len());
//! assert_eq!(pier_codec::from_bytes::<Inverted>(&bytes).unwrap(), t);
//! ```

mod error;
pub mod varint;

pub use error::{Error, Result};

/// A value with a wire encoding. The layout rules every impl follows:
///
/// * unsigned integers: LEB128 varint; `i64`: ZigZag, then varint;
/// * `bool`: one byte (0/1); `Option`: one tag byte (0/1), then the value;
/// * strings and sequences: varint length, then the bytes or elements. A
///   `Vec<u8>` is a sequence of varint bytes, so a byte ≥ 128 takes two;
///   a DHT `Key` is the one fixed blob (length 20, then the raw bytes);
/// * structs: fields in declaration order, no names, no lengths;
/// * enums: the variant's index in declaration order as a varint, then its
///   fields.
///
/// `put` is the only encoder: [`encoded_size`] runs it into a counting
/// sink and [`to_bytes`] into a `Vec`, so a size can never disagree with
/// the bytes it describes.
///
/// A type that can contain itself (`Expr`) decodes inside
/// [`Reader::nested`], which bounds its depth.
pub trait Wire: Sized {
    /// Write this value's bytes into `out`.
    fn put<S: Sink>(&self, out: &mut S);
    /// Read one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

/// Where encoded bytes go: a `Vec<u8>` keeps them, the counter behind
/// [`encoded_size`] only adds up their lengths.
pub trait Sink: Sized {
    fn extend_from_slice(&mut self, bytes: &[u8]);
    fn push_varint(&mut self, v: u64);

    /// Write an enum's variant index; chains like [`Sink::put`].
    fn tag(&mut self, index: u64) -> &mut Self {
        self.push_varint(index);
        self
    }

    /// Write `value` and return the sink, so fields chain:
    /// `out.tag(2).put(key).put(value)`.
    fn put<T: Wire>(&mut self, value: &T) -> &mut Self {
        value.put(self);
        self
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
    #[inline]
    fn push_varint(&mut self, v: u64) {
        varint::write_u64(self, v);
    }
}

/// The sizing sink: the number of bytes a `Vec<u8>` sink would hold.
struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn push_varint(&mut self, v: u64) {
        self.0 += varint::encoded_len(v);
    }
}

/// Encode a value to bytes: one sizing walk, one exact allocation, one
/// writing walk (cheaper than growing the buffer by doubling from empty).
pub fn to_bytes<T: Wire>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(encoded_size(value));
    value.put(&mut out);
    Ok(out)
}

/// The encoded size of a value, without keeping the bytes (nothing is
/// allocated). The cost of shipping a tuple is `encoded_size(tuple) + header`.
pub fn encoded_size<T: Wire>(value: &T) -> usize {
    let mut counter = Counter(0);
    value.put(&mut counter);
    counter.0
}

/// Decode a value from bytes, requiring the input be fully consumed.
pub fn from_bytes<T: Wire>(input: &[u8]) -> Result<T> {
    let mut r = Reader { input, depth: MAX_DEPTH };
    let value = T::get(&mut r)?;
    match r.input.len() {
        0 => Ok(value),
        n => Err(Error::TrailingBytes(n)),
    }
}

/// How many [`Reader::nested`] levels may nest while decoding: far past
/// any real message, and shallow enough that a recursive `get` cannot
/// exhaust the stack.
pub const MAX_DEPTH: u32 = 256;

/// A decoding cursor over the input. Every read is bounds-checked, a
/// length prefix is checked against the remaining input before anything
/// is allocated for it, and nesting is bounded by [`MAX_DEPTH`].
pub struct Reader<'a> {
    input: &'a [u8],
    /// Nesting levels left for [`Reader::nested`].
    depth: u32,
}

impl<'a> Reader<'a> {
    /// Read one `T`: [`Wire::get`] with the type taken from the use site.
    pub fn get<T: Wire>(&mut self) -> Result<T> {
        T::get(self)
    }

    /// Run `get` one nesting level deeper, or fail past [`MAX_DEPTH`]. A
    /// type that can contain itself decodes through here, so its depth is
    /// bounded even in hostile input; types that cannot pay nothing.
    pub fn nested<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth = self.depth.checked_sub(1).ok_or(Error::TooDeep { limit: MAX_DEPTH })?;
        let value = get(self);
        self.depth += 1;
        value
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.input.len() < n {
            return Err(Error::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// The next varint (an integer, a length or an enum tag).
    pub fn varint(&mut self) -> Result<u64> {
        let (v, used) = varint::read_u64(self.input)?;
        self.input = &self.input[used..];
        Ok(v)
    }

    /// A length prefix. Every element of a string or sequence takes at
    /// least one byte, so a length past the remaining input is corrupt.
    pub fn length(&mut self) -> Result<usize> {
        let declared = self.varint()?;
        if declared > self.input.len() as u64 {
            return Err(Error::LengthOverrun { declared, remaining: self.input.len() });
        }
        Ok(declared as usize)
    }
}

/// Decoding a sequence reserves at most this many elements up front; the
/// rest grow as they actually decode.
const MAX_PREALLOC: usize = 4096;

// A bool or an `Option` tag is written as a varint of 0 or 1 (one byte),
// but read as a raw byte, so only 0 and 1 decode.
impl Wire for bool {
    fn put<S: Sink>(&self, out: &mut S) {
        out.push_varint(u64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidBool(b)),
        }
    }
}

/// Unsigned integers: a varint, narrowed back with a range check.
macro_rules! unsigned {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put<S: Sink>(&self, out: &mut S) {
                out.push_varint(*self as u64);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                let value = r.varint()?;
                <$ty>::try_from(value).map_err(|_| Error::OutOfRange { value, ty: stringify!($ty) })
            }
        }
    )*};
}

unsigned!(u8, u32, u64, usize);

impl Wire for i64 {
    fn put<S: Sink>(&self, out: &mut S) {
        out.push_varint(varint::zigzag_encode(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(varint::zigzag_decode(r.varint()?))
    }
}

impl Wire for String {
    fn put<S: Sink>(&self, out: &mut S) {
        out.push_varint(self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.length()?;
        std::str::from_utf8(r.take(len)?).map(str::to_owned).map_err(|_| Error::InvalidUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<S: Sink>(&self, out: &mut S) {
        out.push_varint(self.len() as u64);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.length()?;
        let mut items = Vec::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.tag(0),
            Some(v) => out.tag(1).put(v),
        };
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            b => Err(Error::InvalidOptionTag(b)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put<S: Sink>(&self, out: &mut S) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        T::get(r).map(Box::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let bytes = to_bytes(value).expect("encode");
        assert_eq!(bytes.len(), encoded_size(value));
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, value);
        back
    }

    #[test]
    fn primitives() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u8::MAX);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-1i64);
        roundtrip(&String::from("hello world"));
        roundtrip(&String::from("ßtraße"));
        roundtrip(&String::new());
    }

    #[test]
    fn containers() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<String>::new());
        roundtrip(&vec![vec![0u8, 128, 255], vec![]]);
        roundtrip(&Some(7i64));
        roundtrip(&Option::<u8>::None);
        roundtrip(&Some(Box::new(vec![Some(1u64), None])));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0xAA);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert_eq!(err, Error::TrailingBytes(1));
    }

    #[test]
    fn corrupt_length_rejected_without_allocation() {
        // Declared length of 2^60 with 1 byte of payload: must be rejected
        // by the length check, not attempted — for strings and sequences.
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1 << 60);
        bytes.push(b'x');
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert!(matches!(err, Error::LengthOverrun { .. }));
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
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
        let bytes = to_bytes(&vec![1u64, u64::MAX, 3]).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<u64>>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A `Box` per `Some` byte, then `None`.
    struct Nest(Option<Box<Nest>>);

    impl Wire for Nest {
        fn put<S: Sink>(&self, out: &mut S) {
            out.put(&self.0);
        }
        fn get(r: &mut Reader<'_>) -> Result<Self> {
            r.nested(|r| r.get().map(Nest))
        }
    }

    /// A one-element sequence per 1 byte, then an empty one.
    struct Tree(Vec<Tree>);

    impl Wire for Tree {
        fn put<S: Sink>(&self, out: &mut S) {
            out.put(&self.0);
        }
        fn get(r: &mut Reader<'_>) -> Result<Self> {
            r.nested(|r| r.get().map(Tree))
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let levels = |n: usize| {
            let mut bytes = vec![1; n];
            bytes.push(0);
            bytes
        };
        let too_deep = Err(Error::TooDeep { limit: MAX_DEPTH });
        // `n` bytes of 1 nest `n + 1` values, the outermost one included.
        let max = MAX_DEPTH as usize;
        assert!(from_bytes::<Nest>(&levels(max - 1)).is_ok());
        assert_eq!(from_bytes::<Nest>(&levels(max)).map(drop), too_deep);
        assert!(from_bytes::<Tree>(&levels(max - 1)).is_ok());
        assert_eq!(from_bytes::<Tree>(&levels(max)).map(drop), too_deep);
        // Deep enough to overflow the stack without the bound.
        assert_eq!(from_bytes::<Nest>(&levels(1_000_000)).map(drop), too_deep);
        assert_eq!(from_bytes::<Tree>(&levels(1_000_000)).map(drop), too_deep);
    }

    #[test]
    fn out_of_range_narrowing_fails() {
        let bytes = to_bytes(&300u64).unwrap();
        assert_eq!(
            from_bytes::<u8>(&bytes).unwrap_err(),
            Error::OutOfRange { value: 300, ty: "u8" }
        );
        let bytes = to_bytes(&(u64::from(u32::MAX) + 1)).unwrap();
        assert!(matches!(from_bytes::<u32>(&bytes), Err(Error::OutOfRange { ty: "u32", .. })));
    }
}
