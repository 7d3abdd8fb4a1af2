//! 160-bit DHT identifiers with the XOR distance metric.

use crate::sha1::sha1;
use pier_codec::{Error::WrongLength, Reader, Sink, Wire};
use std::fmt;

/// The number of bits in a key (and buckets in a routing table).
pub const KEY_BITS: usize = 160;

/// A 160-bit identifier: node ids, publishing keys, and lookup targets all
/// live in this space. Distance is the Kademlia XOR metric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Key(pub [u8; 20]);

impl pier_netsim::HeapSize for Key {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Key {
    /// The all-zero key.
    pub const ZERO: Key = Key([0; 20]);

    /// Hash arbitrary bytes into the key space.
    pub fn hash(data: &[u8]) -> Key {
        Key(sha1(data))
    }

    /// Hash a text value (a keyword, a filename) into the key space.
    pub fn hash_str(s: &str) -> Key {
        Key::hash(s.as_bytes())
    }

    /// Key for a node, derived from its network address plus a namespace
    /// tag so node ids never collide with content keys by construction.
    pub fn for_node(addr: u32) -> Key {
        let mut buf = [0u8; 9];
        buf[..5].copy_from_slice(b"node:");
        buf[5..].copy_from_slice(&addr.to_be_bytes());
        Key::hash(&buf)
    }

    /// XOR distance to `other`.
    pub fn distance(&self, other: &Key) -> Distance {
        let (hi, lo) = self.words();
        let (other_hi, other_lo) = other.words();
        Distance { hi: hi ^ other_hi, lo: lo ^ other_lo }
    }

    /// The key as big-endian integer words: bits 0..128 and 128..160.
    fn words(&self) -> (u128, u32) {
        let (hi, lo) = self.0.split_at(16);
        (
            u128::from_be_bytes(hi.try_into().expect("16 of 20 bytes")),
            u32::from_be_bytes(lo.try_into().expect("4 of 20 bytes")),
        )
    }

    /// Index of the k-bucket a contact at `other` falls into, as seen from
    /// `self`: `159 - floor(log2(distance))`, i.e. bucket 0 holds the
    /// farthest half of the space. Returns `None` when `other == self`.
    pub fn bucket_index(&self, other: &Key) -> Option<usize> {
        let d = self.distance(other);
        let lz = d.leading_zeros();
        if lz == KEY_BITS {
            None
        } else {
            Some(lz)
        }
    }

    /// The bit at position `i` (0 = most significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < KEY_BITS);
        (self.0[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// Flip the bit at position `i` — used to generate bucket-refresh
    /// targets that land in a specific bucket.
    pub fn with_flipped_bit(mut self, i: usize) -> Key {
        debug_assert!(i < KEY_BITS);
        self.0[i / 8] ^= 1 << (7 - i % 8);
        self
    }

    /// A uniformly random key drawn from `rng`.
    pub fn random(rng: &mut impl rand::Rng) -> Key {
        let mut k = [0u8; 20];
        rng.fill(&mut k[..]);
        Key(k)
    }

    /// Short hex prefix for logs.
    pub fn short(&self) -> String {
        format!("{:02x}{:02x}{:02x}{:02x}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// An XOR distance: the 160-bit big-endian number `a ^ b`, held as integer
/// words so that XOR and comparison are a few register operations. The
/// derived ordering (high word, then low word) is numeric order, which
/// equals lexicographic order of the big-endian bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Distance {
    /// Bits 0..128 (bit 0 = most significant).
    hi: u128,
    /// Bits 128..160.
    lo: u32,
}

impl Distance {
    /// The number of leading zero bits (160 for distance zero).
    pub fn leading_zeros(&self) -> usize {
        if self.hi != 0 {
            self.hi.leading_zeros() as usize
        } else {
            128 + self.lo.leading_zeros() as usize
        }
    }

    pub fn is_zero(&self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// The bit at position `i` (0 = most significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < KEY_BITS);
        if i < 128 {
            (self.hi >> (127 - i)) & 1 == 1
        } else {
            (self.lo >> (KEY_BITS - 1 - i)) & 1 == 1
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({}…)", self.short())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Distance(lz={})", self.leading_zeros())
    }
}

/// A key is the one fixed blob on the wire: its length (20) and then its
/// raw bytes, 21 bytes in all — not 20 varint elements.
impl Wire for Key {
    fn put<S: Sink>(&self, out: &mut S) {
        out.push_varint(self.0.len() as u64);
        out.extend_from_slice(&self.0);
    }
    fn get(r: &mut Reader<'_>) -> pier_codec::Result<Key> {
        let declared = r.length()?;
        r.take(declared)?.try_into().map(Key).map_err(|_| WrongLength { declared, expected: 20 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_axioms() {
        let a = Key::hash(b"a");
        let b = Key::hash(b"b");
        let c = Key::hash(b"c");
        // Identity.
        assert!(a.distance(&a).is_zero());
        // Symmetry.
        assert_eq!(a.distance(&b), b.distance(&a));
        // XOR triangle equality: d(a,c) = d(a,b) XOR d(b,c); in particular
        // the triangle inequality holds for the XOR metric.
        let mut x = [0u8; 20];
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = (a.0[i] ^ b.0[i]) ^ (b.0[i] ^ c.0[i]);
        }
        assert_eq!(a.distance(&c), Key::ZERO.distance(&Key(x)));
    }

    #[test]
    fn bucket_index_from_leading_zeros() {
        let zero = Key::ZERO;
        // A key with only the top bit set: distance has 0 leading zeros.
        let mut top = [0u8; 20];
        top[0] = 0x80;
        assert_eq!(zero.bucket_index(&Key(top)), Some(0));
        // A key with only the lowest bit set: 159 leading zeros.
        let mut low = [0u8; 20];
        low[19] = 0x01;
        assert_eq!(zero.bucket_index(&Key(low)), Some(159));
        // Self maps to no bucket.
        assert_eq!(zero.bucket_index(&zero), None);
    }

    #[test]
    fn bit_and_flip() {
        let k = Key::ZERO.with_flipped_bit(0);
        assert!(k.bit(0));
        assert!(!k.bit(1));
        assert_eq!(k.with_flipped_bit(0), Key::ZERO);
        let k2 = Key::ZERO.with_flipped_bit(159);
        assert!(k2.bit(159));
        assert_eq!(k2.0[19], 1);
    }

    #[test]
    fn flipped_bit_lands_in_that_bucket() {
        let base = Key::hash(b"base");
        for i in [0usize, 1, 8, 63, 100, 159] {
            let target = base.with_flipped_bit(i);
            assert_eq!(base.bucket_index(&target), Some(i), "bit {i}");
        }
    }

    #[test]
    fn hash_is_stable_and_spread() {
        assert_eq!(Key::hash(b"x"), Key::hash(b"x"));
        assert_ne!(Key::hash(b"x"), Key::hash(b"y"));
        assert_ne!(Key::for_node(1), Key::for_node(2));
        // Node keys and content keys use disjoint preimages.
        assert_ne!(Key::for_node(0x6b657931), Key::hash_str("key1"));
    }

    #[test]
    fn distance_ordering_is_numeric() {
        let mut near = [0u8; 20];
        near[19] = 5;
        let mut far = [0u8; 20];
        far[0] = 1;
        assert!(Key::ZERO.distance(&Key(near)) < Key::ZERO.distance(&Key(far)));
        // The low word only decides between equal high words.
        let mut low_word = [0u8; 20];
        low_word[16] = 0xff;
        let mut high_word = [0u8; 20];
        high_word[15] = 1;
        assert!(Key::ZERO.distance(&Key(low_word)) < Key::ZERO.distance(&Key(high_word)));
    }

    #[test]
    fn distance_bits_match_key_bits() {
        let k = Key::hash(b"bits");
        let d = Key::ZERO.distance(&k);
        for i in 0..KEY_BITS {
            assert_eq!(d.bit(i), k.bit(i), "bit {i}");
        }
    }

    #[test]
    fn serde_is_21_bytes() {
        let k = Key::hash(b"wire");
        let bytes = pier_codec::to_bytes(&k).unwrap();
        assert_eq!(bytes.len(), 21);
        let back: Key = pier_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, k);
    }

    #[test]
    fn serde_rejects_wrong_length() {
        let bytes = pier_codec::to_bytes(&vec![1u8, 2, 3]).unwrap();
        assert!(pier_codec::from_bytes::<Key>(&bytes).is_err());
    }
}
