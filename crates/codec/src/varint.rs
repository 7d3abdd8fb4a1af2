//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! Small values — the common case for tuple field tags, lengths, ports,
//! hop counts — encode in one byte, which is what keeps published
//! `Inverted(keyword, fileID)` tuples near the paper's per-entry sizes.

use crate::error::{Error, Result};

/// Maximum encoded length of a u64 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Append `value` to `out` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned LEB128 varint from the front of `input`.
/// Returns `(value, bytes_consumed)`.
pub fn read_u64(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(Error::VarintOverflow);
        }
        let low = (byte & 0x7F) as u64;
        // The 10th byte may only contribute the final bit.
        if shift == 63 && low > 1 {
            return Err(Error::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::Eof)
}

/// ZigZag: map signed to unsigned so small magnitudes stay small.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Number of bytes `value` occupies as a varint.
#[inline]
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    (64 - value.leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_values() {
        for v in [0u64, 1, 127] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
            assert_eq!(read_u64(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn boundary_values() {
        for v in [128u64, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), encoded_len(v));
            assert_eq!(read_u64(&buf).unwrap(), (v, buf.len()));
        }
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(matches!(read_u64(&buf[..cut]), Err(Error::Eof)));
        }
    }

    #[test]
    fn overlong_encodings_rejected() {
        // 11 continuation bytes cannot be a valid u64.
        let bad = [0x80u8; 11];
        assert!(matches!(read_u64(&bad), Err(Error::VarintOverflow)));
        // A 10-byte encoding whose last byte overflows bit 63.
        let mut bad2 = vec![0xFFu8; 9];
        bad2.push(0x02);
        assert!(matches!(read_u64(&bad2), Err(Error::VarintOverflow)));
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn encoded_len_matches_actual() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), encoded_len(v), "shift {shift}");
        }
    }
}
