//! Hand-written binary codec.
//!
//! CFS persists meta-partition snapshots, Raft log entries, WAL records and
//! resource-manager state. The paper uses RocksDB + Go gob-style encoding;
//! here we write a small deterministic little-endian codec so persistence has
//! no external dependency and byte layouts are stable across runs.
//!
//! Framing rules:
//! * fixed-width little-endian integers,
//! * `bool` as one byte (0/1),
//! * byte strings / `String` / `Vec<T>` length-prefixed with `u32`,
//! * `Option<T>` tag-prefixed with one byte.
//!
//! Decoding is strict: trailing bytes, truncated input and invalid tags are
//! errors, never panics.

use bytes::Bytes;

use crate::error::{CfsError, Result};

/// Serializer that appends to an owned buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// New encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize, "byte string too long");
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Raw bytes with no length prefix (caller manages framing).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Zero-copy deserializer over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over the full slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes, raw (the reading side of [`Encoder::put_raw`]).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CfsError::Corrupt(format!(
                "decode underflow: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed byte string, borrowed from the input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }
}

/// Types that serialize into the CFS binary format.
pub trait Encode {
    /// Append this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Types that deserialize from the CFS binary format.
pub trait Decode: Sized {
    /// Decode one value, advancing the decoder.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Convenience: decode a value that must occupy the whole slice.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(CfsError::Corrupt(format!(
                "decode: {} trailing bytes",
                dec.remaining()
            )));
        }
        Ok(v)
    }
}

macro_rules! primitive_codec {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                dec.$get()
            }
        }
    };
}

primitive_codec!(u8, put_u8, get_u8);
primitive_codec!(u16, put_u16, get_u16);
primitive_codec!(u32, put_u32, get_u32);
primitive_codec!(u64, put_u64, get_u64);
primitive_codec!(i64, put_i64, get_i64);

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CfsError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let v = dec.get_u64()?;
        usize::try_from(v).map_err(|_| CfsError::Corrupt("usize overflow".into()))
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let b = dec.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CfsError::Corrupt("invalid utf-8".into()))
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.get_bytes()?.to_vec())
    }
}

impl Encode for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}

impl Decode for Bytes {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Bytes::copy_from_slice(dec.get_bytes()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            b => Err(CfsError::Corrupt(format!("invalid option tag {b}"))),
        }
    }
}

/// `Vec<T>` for non-byte payloads. (`Vec<u8>` has a dedicated fast impl.)
macro_rules! vec_codec {
    ($ty:ty) => {
        impl Encode for Vec<$ty> {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_u32(self.len() as u32);
                for item in self {
                    item.encode(enc);
                }
            }
        }
        impl Decode for Vec<$ty> {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                let n = dec.get_u32()? as usize;
                // Bound pre-allocation by what the input could possibly hold
                // so corrupt lengths cannot trigger huge allocations.
                let mut v = Vec::with_capacity(n.min(dec.remaining().max(16)));
                for _ in 0..n {
                    v.push(<$ty>::decode(dec)?);
                }
                Ok(v)
            }
        }
    };
}

// Generic impl would conflict with Vec<u8>; enumerate the element types the
// workspace actually persists.
vec_codec!(u64);
vec_codec!(String);
vec_codec!(crate::ids::NodeId);
vec_codec!(crate::ids::PartitionId);
vec_codec!(crate::ids::InodeId);
vec_codec!(crate::inode::ExtentKey);
vec_codec!(crate::inode::Dentry);
vec_codec!(crate::inode::Inode);
vec_codec!((u64, u64));
vec_codec!((Vec<u8>, Vec<u8>));
vec_codec!((Vec<u8>, Option<Vec<u8>>));

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

/// Encode then decode — used by tests across the workspace.
pub fn roundtrip<T: Encode + Decode>(v: &T) -> Result<T> {
    T::from_bytes(&v.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0u8).unwrap(), 0);
        assert_eq!(roundtrip(&u16::MAX).unwrap(), u16::MAX);
        assert_eq!(roundtrip(&0xdead_beefu32).unwrap(), 0xdead_beef);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&(-42i64)).unwrap(), -42);
        assert!(roundtrip(&true).unwrap());
        assert!(!roundtrip(&false).unwrap());
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        assert_eq!(
            roundtrip(&String::from("héllo/文件")).unwrap(),
            "héllo/文件"
        );
        assert_eq!(roundtrip(&String::new()).unwrap(), "");
        let v: Vec<u8> = (0..=255).collect();
        assert_eq!(roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn options_roundtrip() {
        assert_eq!(roundtrip(&Some(7u64)).unwrap(), Some(7));
        assert_eq!(roundtrip(&None::<u64>).unwrap(), None);
    }

    #[test]
    fn tuples_roundtrip() {
        assert_eq!(
            roundtrip(&(1u64, String::from("x"))).unwrap(),
            (1, "x".into())
        );
    }

    #[test]
    fn truncated_input_is_error_not_panic() {
        let bytes = 12345u64.to_bytes();
        for cut in 0..bytes.len() {
            assert!(u64::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u64>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn corrupt_length_prefix_does_not_overallocate() {
        // Vec<u64> claiming 2^32-1 elements but providing none.
        let buf = u32::MAX.to_le_bytes();
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        assert!(String::from_bytes(&enc.finish()).is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) {
            prop_assert_eq!(roundtrip(&v).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let s = s.to_string();
            prop_assert_eq!(roundtrip(&s).unwrap(), s);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(roundtrip(&v).unwrap(), v);
        }

        #[test]
        fn prop_vec_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(roundtrip(&v).unwrap(), v);
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(v in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Whatever the bytes, decoding returns Ok or Err, never panics.
            let _ = Vec::<String>::from_bytes(&v);
            let _ = Option::<u64>::from_bytes(&v);
            let _ = String::from_bytes(&v);
        }
    }
}
