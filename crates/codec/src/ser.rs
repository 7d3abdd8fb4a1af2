//! The serializer: serde data model → compact bytes.
//!
//! Layout rules (the deserializer mirrors them exactly):
//! * unsigned ints: LEB128 varint; signed ints: ZigZag then varint
//! * `f32`/`f64`: fixed-width little-endian
//! * `bool`: one byte (0/1); `char`: varint of the scalar value
//! * strings / byte slices / sequences / maps: varint length prefix, then
//!   elements
//! * structs and tuples: fields in order, no names, no length
//! * `Option`: one tag byte; enums: varint variant index, then payload
//!
//! The rules are written once, against a [`Sink`]: a `Vec<u8>` keeps the
//! bytes, a private counter only adds up their lengths. [`encoded_size`]
//! and [`to_bytes`] are the same walk into the two sinks, so a size can
//! never disagree with the bytes it describes.

use crate::error::{Error, Result};
use crate::varint;
use serde::ser::{self, Serialize};

/// Where encoded bytes go. Implemented by `Vec<u8>` (keep them) and by the
/// counter behind [`encoded_size`] (measure them); not implementable
/// outside this crate.
pub trait Sink {
    fn push(&mut self, byte: u8);
    fn extend_from_slice(&mut self, bytes: &[u8]);
    fn push_varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }
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
    fn push(&mut self, _byte: u8) {
        self.0 += 1;
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn push_varint(&mut self, v: u64) {
        self.0 += varint::encoded_len(v);
    }
}

/// Serializes values into a `Sink` (by default an owned byte buffer).
pub struct Serializer<S: Sink = Vec<u8>> {
    out: S,
}

impl Serializer {
    pub fn new() -> Self {
        Serializer { out: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Serializer { out: Vec::with_capacity(cap) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

impl Default for Serializer {
    fn default() -> Self {
        Self::new()
    }
}

/// Encode a value to bytes: one sizing walk, one exact allocation, one
/// writing walk (cheaper than growing the buffer by doubling from empty).
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut ser = Serializer::with_capacity(encoded_size(value)?);
    value.serialize(&mut ser)?;
    Ok(ser.into_bytes())
}

/// The encoded size of a value, without keeping the bytes (nothing is
/// allocated: the value is serialized into a counter).
///
/// Used throughout the workspace for wire-size accounting: the cost of
/// shipping a tuple is `encoded_size(tuple) + header`.
pub fn encoded_size<T: Serialize + ?Sized>(value: &T) -> Result<usize> {
    let mut ser = Serializer { out: Counter(0) };
    value.serialize(&mut ser)?;
    Ok(ser.out.0)
}

impl<'a, S: Sink> ser::Serializer for &'a mut Serializer<S> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, S>;
    type SerializeTuple = Compound<'a, S>;
    type SerializeTupleStruct = Compound<'a, S>;
    type SerializeTupleVariant = Compound<'a, S>;
    type SerializeMap = Compound<'a, S>;
    type SerializeStruct = Compound<'a, S>;
    type SerializeStructVariant = Compound<'a, S>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push(v as u8);
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.out.push_varint(varint::zigzag_encode(v));
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.push_varint(v);
        Ok(())
    }

    fn serialize_u128(self, v: u128) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i128(self, v: i128) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.out.push_varint(v as u64);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.out.push_varint(v.len() as u64);
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.out.push_varint(v.len() as u64);
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.out.push_varint(variant_index as u64);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.out.push_varint(variant_index as u64);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        let len =
            len.ok_or_else(|| Error::Custom("sequences must have a known length".to_string()))?;
        self.out.push_varint(len as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        self.out.push_varint(variant_index as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        let len = len.ok_or_else(|| Error::Custom("maps must have a known length".to_string()))?;
        self.out.push_varint(len as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self::SerializeStruct> {
        Ok(Compound { ser: self })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        self.out.push_varint(variant_index as u64);
        Ok(Compound { ser: self })
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Compound-value serializer shared by all container kinds.
pub struct Compound<'a, S: Sink> {
    ser: &'a mut Serializer<S>,
}

impl<S: Sink> ser::SerializeSeq for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeTuple for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeTupleStruct for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeTupleVariant for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeMap for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        key.serialize(&mut *self.ser)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStruct for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStructVariant for Compound<'_, S> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<()> {
        Ok(())
    }
}
