//! Decoding errors. Encoding cannot fail: every value has bytes.

use std::fmt;

/// Codec result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Input ended before the value was complete.
    Eof,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An `Option` tag byte was neither 0 nor 1.
    InvalidOptionTag(u8),
    /// A length prefix exceeded the remaining input (corrupt or hostile).
    LengthOverrun { declared: u64, remaining: usize },
    /// A varint does not fit the narrower integer type being decoded.
    OutOfRange { value: u64, ty: &'static str },
    /// An enum tag names no variant of the type being decoded.
    UnknownVariant { ty: &'static str, tag: u64 },
    /// A fixed-size blob was declared with the wrong length.
    WrongLength { declared: usize, expected: usize },
    /// Values nested deeper than the decoder's bound (corrupt or hostile).
    TooDeep { limit: u32 },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Eof => write!(f, "unexpected end of input"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            Error::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            Error::InvalidUtf8 => write!(f, "invalid UTF-8 in string"),
            Error::InvalidBool(b) => write!(f, "invalid bool byte {b:#x}"),
            Error::InvalidOptionTag(b) => write!(f, "invalid option tag {b:#x}"),
            Error::LengthOverrun { declared, remaining } => {
                write!(f, "declared length {declared} exceeds remaining {remaining} bytes")
            }
            Error::OutOfRange { value, ty } => write!(f, "{value} out of range for {ty}"),
            Error::UnknownVariant { ty, tag } => write!(f, "unknown {ty} variant tag {tag}"),
            Error::WrongLength { declared, expected } => {
                write!(f, "declared length {declared}, expected {expected}")
            }
            Error::TooDeep { limit } => write!(f, "values nested deeper than {limit} levels"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::Eof.to_string().contains("end of input"));
        assert!(Error::LengthOverrun { declared: 10, remaining: 3 }.to_string().contains("10"));
        assert!(Error::InvalidBool(7).to_string().contains("0x7"));
        assert!(Error::UnknownVariant { ty: "Expr", tag: 9 }.to_string().contains("Expr"));
        assert!(Error::TooDeep { limit: 256 }.to_string().contains("256"));
    }
}
