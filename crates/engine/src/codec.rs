//! A compact self-contained binary codec for checkpoints, and the
//! serialized-size accounting of the network-cost model.
//!
//! Fault tolerance needs model snapshots that survive the process (§VI:
//! DistStream inherits Spark Streaming's recovery; here the recovery
//! substrate is ours). This module provides `encode`/`decode` for any
//! `Serialize`/`Deserialize` type using a fixed-width little-endian wire
//! format. The runtime counts the bytes it broadcasts and shuffles by that
//! same layout, and only a replay outside the engine (the bench crate's
//! modeled cluster) turns those counts into network time:
//! [`serialized_size`] runs the one encoder over a byte *counter* instead of
//! a buffer, so `encode(v).len() == serialized_size(v)` by construction.
//!
//! Format: fixed-width little-endian numbers; `bool` = 1 byte; `Option` =
//! 1-byte tag + payload; sequences/maps/strings = u64 length prefix +
//! elements; enum variants = u32 index + payload; structs/tuples = fields in
//! order with no framing.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
use std::fmt;

use diststream_types::{DistStreamError, Result};

/// Encodes `value` into the compact binary format.
///
/// # Examples
///
/// ```
/// use diststream_engine::{decode, encode, serialized_size};
///
/// let value = (42u32, vec![1.5f64, 2.5], Some("hi".to_string()));
/// let bytes = encode(&value);
/// assert_eq!(bytes.len() as u64, serialized_size(&value));
/// let back: (u32, Vec<f64>, Option<String>) = decode(&bytes).unwrap();
/// assert_eq!(back, value);
/// ```
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    encode_to(value, Vec::new())
}

/// Encodes `value` into `buf`, clearing it first but keeping its capacity.
///
/// The scratch-buffer form of [`encode`] for per-batch callers (e.g.
/// checkpointing) that would otherwise allocate a fresh `Vec` on every call.
/// The resulting bytes are identical to `encode(value)`.
///
/// # Examples
///
/// ```
/// use diststream_engine::{encode, encode_into};
///
/// let mut buf = Vec::new();
/// encode_into(&vec![1u32, 2, 3], &mut buf);
/// assert_eq!(buf, encode(&vec![1u32, 2, 3]));
/// let cap = buf.capacity();
/// encode_into(&vec![4u32], &mut buf);
/// assert_eq!(buf, encode(&vec![4u32]));
/// assert!(buf.capacity() >= cap);
/// ```
pub fn encode_into<T: Serialize + ?Sized>(value: &T, buf: &mut Vec<u8>) {
    buf.clear();
    *buf = encode_to(value, std::mem::take(buf));
}

/// Returns the number of bytes [`encode`] would produce for `value`,
/// without allocating: the same encoder, writing into a length counter.
///
/// # Examples
///
/// ```
/// use diststream_engine::serialized_size;
///
/// assert_eq!(serialized_size(&0u64), 8);
/// assert_eq!(serialized_size(&1.0f64), 8);
/// // Vec = 8-byte length prefix + elements.
/// assert_eq!(serialized_size(&vec![1.0f64, 2.0]), 8 + 16);
/// ```
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> u64 {
    encode_to(value, ByteCount(0)).0
}

/// Runs the encoder over `value` into `sink` and hands the sink back.
fn encode_to<T: Serialize + ?Sized, S: Sink>(value: &T, sink: S) -> S {
    let mut out = Encoder { sink };
    value
        .serialize(&mut out)
        // lint:allow(panic-path) both sinks are in-memory and never error
        .expect("in-memory encoding cannot fail");
    out.sink
}

/// Decodes a value previously produced by [`encode`].
///
/// # Errors
///
/// Returns [`DistStreamError::Engine`] on truncated or malformed input, or
/// when trailing bytes remain.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut decoder = Decoder { bytes, pos: 0 };
    let value = T::deserialize(&mut decoder)
        .map_err(|e| DistStreamError::Engine(format!("decode failed: {e}")))?;
    if decoder.pos != bytes.len() {
        return Err(DistStreamError::Engine(format!(
            "decode left {} trailing bytes",
            bytes.len() - decoder.pos
        )));
    }
    Ok(value)
}

// --------------------------------------------------------------------------
// Encoder
// --------------------------------------------------------------------------

/// Where the encoder's bytes go: a buffer ([`encode`]) or a length counter
/// ([`serialized_size`]). Both are monomorphised through the same
/// serializer, so the two can never disagree on the layout.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    // Inlined (the serializer is monomorphised in the caller's crate) so a
    // fixed-width `put` stays a fixed-width store.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(u64);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

struct Encoder<S> {
    sink: S,
}

#[derive(Debug)]
struct CodecError(String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl<S: Sink> ser::Serializer for &mut Encoder<S> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> std::result::Result<(), CodecError> {
        self.sink.put(&[v as u8]);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> std::result::Result<(), CodecError> {
        self.sink.put(&[v]);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> std::result::Result<(), CodecError> {
        self.sink.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> std::result::Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> std::result::Result<(), CodecError> {
        self.serialize_u64(v.len() as u64)?;
        self.sink.put(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> std::result::Result<(), CodecError> {
        self.serialize_u64(v.len() as u64)?;
        self.sink.put(v);
        Ok(())
    }
    fn serialize_none(self) -> std::result::Result<(), CodecError> {
        self.sink.put(&[0]);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(
        self,
        value: &T,
    ) -> std::result::Result<(), CodecError> {
        self.sink.put(&[1]);
        value.serialize(self)
    }
    fn serialize_unit(self) -> std::result::Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _: &'static str) -> std::result::Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        index: u32,
        _: &'static str,
    ) -> std::result::Result<(), CodecError> {
        self.serialize_u32(index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        value: &T,
    ) -> std::result::Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        index: u32,
        _: &'static str,
        value: &T,
    ) -> std::result::Result<(), CodecError> {
        self.serialize_u32(index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> std::result::Result<Self, CodecError> {
        let len = len.ok_or_else(|| ser::Error::custom("sequences must know their length"))?;
        self.serialize_u64(len as u64)?;
        Ok(self)
    }
    fn serialize_tuple(self, _: usize) -> std::result::Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> std::result::Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        index: u32,
        _: &'static str,
        _: usize,
    ) -> std::result::Result<Self, CodecError> {
        self.serialize_u32(index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> std::result::Result<Self, CodecError> {
        let len = len.ok_or_else(|| ser::Error::custom("maps must know their length"))?;
        self.serialize_u64(len as u64)?;
        Ok(self)
    }
    fn serialize_struct(self, _: &'static str, _: usize) -> std::result::Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        index: u32,
        _: &'static str,
        _: usize,
    ) -> std::result::Result<Self, CodecError> {
        self.serialize_u32(index)?;
        Ok(self)
    }
}

macro_rules! impl_encode_compound {
    ($trait:path, $method:ident $(, $key:ident)?) => {
        impl<S: Sink> $trait for &mut Encoder<S> {
            type Ok = ();
            type Error = CodecError;

            $(
                fn $key<T: Serialize + ?Sized>(
                    &mut self,
                    key: &T,
                ) -> std::result::Result<(), CodecError> {
                    key.serialize(&mut **self)
                }
            )?

            fn $method<T: Serialize + ?Sized>(
                &mut self,
                value: &T,
            ) -> std::result::Result<(), CodecError> {
                value.serialize(&mut **self)
            }

            fn end(self) -> std::result::Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

impl_encode_compound!(ser::SerializeSeq, serialize_element);
impl_encode_compound!(ser::SerializeTuple, serialize_element);
impl_encode_compound!(ser::SerializeTupleStruct, serialize_field);
impl_encode_compound!(ser::SerializeTupleVariant, serialize_field);
impl_encode_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl<S: Sink> ser::SerializeStruct for &mut Encoder<S> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _: &'static str,
        value: &T,
    ) -> std::result::Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> std::result::Result<(), CodecError> {
        Ok(())
    }
}

impl<S: Sink> ser::SerializeStructVariant for &mut Encoder<S> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _: &'static str,
        value: &T,
    ) -> std::result::Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> std::result::Result<(), CodecError> {
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Decoder
// --------------------------------------------------------------------------

struct Decoder<'de> {
    bytes: &'de [u8],
    pos: usize,
}

impl<'de> Decoder<'de> {
    /// The next `n` bytes. `n` may come from the input (a length prefix),
    /// so it is checked against what is left, never added to the position
    /// first.
    fn take(&mut self, n: usize) -> std::result::Result<&'de [u8], CodecError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let Some(slice) = rest.get(..n) else {
            return Err(de::Error::custom("unexpected end of input"));
        };
        self.pos += n;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> std::result::Result<[u8; N], CodecError> {
        self.take(N)?
            .try_into()
            .map_err(|_| <CodecError as de::Error>::custom("internal length mismatch"))
    }

    fn read_u32(&mut self) -> std::result::Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn read_u64(&mut self) -> std::result::Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn read_len(&mut self) -> std::result::Result<usize, CodecError> {
        let len = self.read_u64()?;
        usize::try_from(len).map_err(|_| de::Error::custom("length overflows usize"))
    }
}

macro_rules! decode_num {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> std::result::Result<V::Value, CodecError> {
            visitor.$visit(<$ty>::from_le_bytes(self.take_array()?))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _: V) -> std::result::Result<V::Value, CodecError> {
        Err(de::Error::custom(
            "the checkpoint codec is not self-describing",
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(de::Error::custom(format!("invalid bool byte {b}"))),
        }
    }

    decode_num!(deserialize_i8, visit_i8, i8);
    decode_num!(deserialize_i16, visit_i16, i16);
    decode_num!(deserialize_i32, visit_i32, i32);
    decode_num!(deserialize_i64, visit_i64, i64);
    decode_num!(deserialize_u16, visit_u16, u16);
    decode_num!(deserialize_u32, visit_u32, u32);
    decode_num!(deserialize_u64, visit_u64, u64);
    decode_num!(deserialize_f32, visit_f32, f32);
    decode_num!(deserialize_f64, visit_f64, f64);

    fn deserialize_u8<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    fn deserialize_char<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        let code = self.read_u32()?;
        visitor.visit_char(
            char::from_u32(code)
                .ok_or_else(|| de::Error::custom(format!("invalid char code {code}")))?,
        )
    }

    fn deserialize_str<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        visitor.visit_str(std::str::from_utf8(bytes).map_err(|e| de::Error::custom(e.to_string()))?)
    }

    fn deserialize_string<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(de::Error::custom(format!("invalid option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        len: usize,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(
        self,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_map(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(
        self,
        _: V,
    ) -> std::result::Result<V::Value, CodecError> {
        Err(de::Error::custom("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _: V,
    ) -> std::result::Result<V::Value, CodecError> {
        Err(de::Error::custom(
            "the checkpoint codec cannot skip unknown fields",
        ))
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> std::result::Result<Option<T::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> std::result::Result<Option<K::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> std::result::Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> std::result::Result<(V::Value, Self), CodecError> {
        let index = self.de.read_u32()?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> std::result::Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> std::result::Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> std::result::Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::{Point, Record, Timestamp};
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(value: &T) {
        let bytes = encode(value);
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&-7i64);
        roundtrip(&3.25f64);
        roundtrip(&'λ');
        roundtrip(&String::from("checkpoint"));
        roundtrip(&Option::<u32>::None);
        roundtrip(&Some(99u32));
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1.0f64, 2.0, 3.0]);
        roundtrip(&Vec::<u8>::new());
        let mut map = BTreeMap::new();
        map.insert(3u64, "three".to_string());
        map.insert(7, "seven".to_string());
        roundtrip(&map);
    }

    #[test]
    fn enums_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        enum E {
            Unit,
            Newtype(u64),
            Tuple(u8, f64),
            Struct { a: bool, b: Vec<i32> },
        }
        roundtrip(&E::Unit);
        roundtrip(&E::Newtype(12));
        roundtrip(&E::Tuple(1, 2.0));
        roundtrip(&E::Struct {
            a: true,
            b: vec![-1, 0, 1],
        });
    }

    #[test]
    fn records_roundtrip() {
        let r = Record::labeled(
            7,
            Point::from(vec![1.5, -2.5, 0.0]),
            Timestamp::from_secs(3.25),
            diststream_types::ClassId(4),
        );
        roundtrip(&r);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode(&vec![1.0f64, 2.0]);
        let short = &bytes[..bytes.len() - 1];
        assert!(decode::<Vec<f64>>(short).is_err());
    }

    /// A length prefix is input: one near `u64::MAX` used to overflow the
    /// read position (a panic in either build profile) instead of running
    /// out of input.
    #[test]
    fn forged_length_prefixes_are_typed_errors() {
        /// Reads itself through `deserialize_byte_buf`, the `bytes` path.
        #[derive(Debug)]
        struct Bytes;
        impl<'de> Deserialize<'de> for Bytes {
            fn deserialize<D: de::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
                struct Visit;
                impl de::Visitor<'_> for Visit {
                    type Value = Bytes;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("bytes")
                    }
                    fn visit_bytes<E: de::Error>(self, _: &[u8]) -> std::result::Result<Bytes, E> {
                        Ok(Bytes)
                    }
                }
                d.deserialize_byte_buf(Visit)
            }
        }
        for len in [u64::MAX, u64::MAX - 4] {
            let mut forged = len.to_le_bytes().to_vec();
            forged.extend_from_slice(b"abc");
            assert!(decode::<String>(&forged).is_err(), "str {len}");
            assert!(decode::<Bytes>(&forged).is_err(), "bytes {len}");
            assert!(decode::<Vec<u8>>(&forged).is_err(), "seq {len}");
        }
        // The honest prefix still reads.
        let mut honest = 3u64.to_le_bytes().to_vec();
        honest.extend_from_slice(b"abc");
        assert_eq!(decode::<String>(&honest).unwrap(), "abc");
        assert!(decode::<Bytes>(&honest).is_ok());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode(&1u64);
        bytes.push(0);
        assert!(decode::<u64>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_errors() {
        assert!(decode::<bool>(&[2]).is_err());
    }

    #[test]
    fn size_of_primitives_options_and_tuples() {
        assert_eq!(serialized_size(&true), 1);
        assert_eq!(serialized_size(&1u8), 1);
        assert_eq!(serialized_size(&1u32), 4);
        assert_eq!(serialized_size(&1i64), 8);
        assert_eq!(serialized_size(&1.5f64), 8);
        assert_eq!(serialized_size("abc"), 11);
        assert_eq!(serialized_size(&Option::<u64>::None), 1);
        assert_eq!(serialized_size(&Some(1u64)), 9);
        assert_eq!(serialized_size(&(1u32, 2.0f64)), 12);
    }

    #[test]
    fn size_of_sequences_has_length_prefix() {
        assert_eq!(serialized_size(&Vec::<f64>::new()), 8);
        assert_eq!(serialized_size(&vec![0.0f64; 10]), 8 + 80);
        let nested = vec![vec![1u8], vec![2u8, 3u8]];
        assert_eq!(serialized_size(&nested), 8 + (8 + 1) + (8 + 2));
    }

    #[test]
    fn size_of_structs_sums_fields_and_enums_carry_tag() {
        #[derive(Serialize)]
        struct S {
            a: u32,
            b: f64,
        }
        assert_eq!(serialized_size(&S { a: 1, b: 2.0 }), 12);
        #[derive(Serialize)]
        enum E {
            A,
            B(u64),
        }
        assert_eq!(serialized_size(&E::A), 4);
        assert_eq!(serialized_size(&E::B(0)), 12);
    }

    #[test]
    fn record_size_scales_with_dims() {
        let small = Record::new(0, Point::zeros(2), Timestamp::ZERO);
        let big = Record::new(0, Point::zeros(54), Timestamp::ZERO);
        let delta = serialized_size(&big) - serialized_size(&small);
        assert_eq!(delta, 52 * 8);
    }

    proptest! {
        #[test]
        fn prop_nested_roundtrip(
            entries in prop::collection::btree_map(
                0u64..1000,
                (prop::collection::vec(-1e9f64..1e9, 0..8), any::<bool>()),
                0..20,
            ),
        ) {
            roundtrip(&entries);
        }

        #[test]
        fn prop_strings_roundtrip(s in ".*") {
            roundtrip(&s);
        }

        /// The shuffle accounting's O(1) closed form is what the encoder
        /// actually writes, at the dimensionalities the workloads use.
        #[test]
        fn prop_record_wire_size_is_serialized_size(
            id in any::<u64>(),
            secs in -1e9f64..1e9,
            coord in -1e9f64..1e9,
            class in any::<u32>(),
            dims_pick in 0usize..4,
        ) {
            let dims = [0usize, 1, 54, 315][dims_pick];
            let point = Point::from(vec![coord; dims]);
            let t = Timestamp::from_secs(secs);
            let unlabeled = Record::new(id, point.clone(), t);
            let labeled = Record::labeled(id, point, t, diststream_types::ClassId(class));
            prop_assert_eq!(unlabeled.wire_size(), serialized_size(&unlabeled));
            prop_assert_eq!(labeled.wire_size(), serialized_size(&labeled));
            prop_assert_eq!(labeled.wire_size(), unlabeled.wire_size() + 4);
        }
    }
}
