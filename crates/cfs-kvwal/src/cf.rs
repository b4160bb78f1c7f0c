//! Typed column families over the LSM engine.
//!
//! The paper's resource manager keeps distinct record kinds (volume specs,
//! partition maps, node states) in one RocksDB instance; storage-hub-style
//! typed stores wrap that with per-family key/value types so call sites
//! never touch raw bytes. This module is that layer for [`crate::LsmEngine`]:
//!
//! * a [`TypedCf`] names one column family and fixes its key/value types,
//! * [`CfKey`] is an *order-preserving* key codec (big-endian integers,
//!   raw-suffix byte strings) so range scans over a family iterate in the
//!   key type's natural order,
//! * values reuse the workspace codec ([`Encode`]/[`Decode`]),
//! * a [`WriteBatch`] buffers typed puts/deletes and commits them through
//!   one WAL append (all-or-nothing across families).
//!
//! On disk every key is `[name_len u8][cf name][encoded key]`, so one
//! engine hosts any number of families and a family scan is a prefix scan.

use cfs_types::codec::{Decode, Encode};
use cfs_types::{CfsError, Result};

/// Order-preserving key codec. Unlike the little-endian value codec,
/// encoded keys compare bytewise in the same order as the typed values,
/// which is what makes `scan`/range over a column family meaningful.
pub trait CfKey: Sized {
    /// Append the order-preserving encoding of `self`.
    fn encode_key(&self, out: &mut Vec<u8>);

    /// Decode a key from exactly `buf` (the whole slice).
    fn decode_key(buf: &[u8]) -> Result<Self>;

    /// Convenience: encode into a fresh buffer.
    fn key_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_key(&mut out);
        out
    }
}

impl CfKey for u64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_key(buf: &[u8]) -> Result<Self> {
        let arr: [u8; 8] = buf
            .try_into()
            .map_err(|_| CfsError::Corrupt(format!("u64 key needs 8 bytes, got {}", buf.len())))?;
        Ok(u64::from_be_bytes(arr))
    }
}

impl CfKey for (u64, u64) {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
        out.extend_from_slice(&self.1.to_be_bytes());
    }
    fn decode_key(buf: &[u8]) -> Result<Self> {
        if buf.len() != 16 {
            return Err(CfsError::Corrupt(format!(
                "(u64,u64) key needs 16 bytes, got {}",
                buf.len()
            )));
        }
        Ok((
            u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            u64::from_be_bytes(buf[8..16].try_into().unwrap()),
        ))
    }
}

impl CfKey for (u64, u64, u64) {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
        out.extend_from_slice(&self.1.to_be_bytes());
        out.extend_from_slice(&self.2.to_be_bytes());
    }
    fn decode_key(buf: &[u8]) -> Result<Self> {
        if buf.len() != 24 {
            return Err(CfsError::Corrupt(format!(
                "(u64,u64,u64) key needs 24 bytes, got {}",
                buf.len()
            )));
        }
        Ok((
            u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            u64::from_be_bytes(buf[8..16].try_into().unwrap()),
            u64::from_be_bytes(buf[16..24].try_into().unwrap()),
        ))
    }
}

/// Raw byte-string keys: the trailing position in the composite on-disk key
/// means no length prefix is needed, and bytewise order is preserved.
impl CfKey for Vec<u8> {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_key(buf: &[u8]) -> Result<Self> {
        Ok(buf.to_vec())
    }
}

/// One named column family with typed keys and values.
///
/// Implementors are unit structs; the engine is untyped underneath and the
/// family is purely a compile-time view:
///
/// ```ignore
/// struct VolumesCf;
/// impl TypedCf for VolumesCf {
///     const NAME: &'static str = "volumes";
///     type Key = u64;
///     type Value = VolumeSpec;
/// }
/// ```
pub trait TypedCf {
    /// Family name; must be unique per engine and at most 255 bytes.
    const NAME: &'static str;
    /// Key type (order-preserving codec).
    type Key: CfKey;
    /// Value type (workspace codec).
    type Value: Encode + Decode;
}

/// Composite on-disk key: `[name_len u8][cf name][encoded key]`.
pub fn raw_key<C: TypedCf>(key: &C::Key) -> Vec<u8> {
    let name = C::NAME.as_bytes();
    debug_assert!(name.len() <= u8::MAX as usize, "cf name too long");
    let mut out = Vec::with_capacity(1 + name.len() + 16);
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    key.encode_key(&mut out);
    out
}

/// The scan prefix that selects every key of family `C`.
pub fn cf_prefix<C: TypedCf>() -> Vec<u8> {
    let name = C::NAME.as_bytes();
    let mut out = Vec::with_capacity(1 + name.len());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out
}

/// Strip the family prefix off a raw engine key, returning the typed key.
pub fn typed_key<C: TypedCf>(raw: &[u8]) -> Result<C::Key> {
    let prefix_len = 1 + C::NAME.len();
    if raw.len() < prefix_len {
        return Err(CfsError::Corrupt(
            "engine key shorter than cf prefix".into(),
        ));
    }
    C::Key::decode_key(&raw[prefix_len..])
}

/// A buffered set of typed mutations committed atomically.
///
/// Ops are applied in insertion order, so a later put of the same key wins.
/// The batch is the engine's only write interface: even a single put goes
/// through a (one-element) batch, which keeps the WAL format uniform.
#[derive(Debug, Default)]
pub struct WriteBatch {
    pub(crate) ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Buffer a typed put.
    pub fn put<C: TypedCf>(&mut self, key: &C::Key, value: &C::Value) -> &mut Self {
        self.ops.push((raw_key::<C>(key), Some(value.to_bytes())));
        self
    }

    /// Buffer a typed delete.
    pub fn delete<C: TypedCf>(&mut self, key: &C::Key) -> &mut Self {
        self.ops.push((raw_key::<C>(key), None));
        self
    }

    /// Buffer a raw put (escape hatch for untyped callers).
    pub fn put_raw(&mut self, key: Vec<u8>, value: Vec<u8>) -> &mut Self {
        self.ops.push((key, Some(value)));
        self
    }

    /// Buffer a raw delete.
    pub fn delete_raw(&mut self, key: Vec<u8>) -> &mut Self {
        self.ops.push((key, None));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NumsCf;
    impl TypedCf for NumsCf {
        const NAME: &'static str = "nums";
        type Key = (u64, u64);
        type Value = u64;
    }

    #[test]
    fn composite_keys_preserve_order() {
        let pairs = [(0u64, 0u64), (0, 1), (0, 255), (1, 0), (1, 1), (256, 0)];
        let encoded: Vec<Vec<u8>> = pairs.iter().map(raw_key::<NumsCf>).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted, "byte order must match tuple order");
    }

    #[test]
    fn typed_key_roundtrip() {
        let raw = raw_key::<NumsCf>(&(7, 9));
        assert!(raw.starts_with(&cf_prefix::<NumsCf>()));
        assert_eq!(typed_key::<NumsCf>(&raw).unwrap(), (7, 9));
    }

    #[test]
    fn u64_key_roundtrip_and_order() {
        for v in [0u64, 1, 255, 256, u64::MAX] {
            assert_eq!(u64::decode_key(&v.key_bytes()).unwrap(), v);
        }
        assert!(1u64.key_bytes() < 256u64.key_bytes());
        assert!(255u64.key_bytes() < 256u64.key_bytes());
    }

    #[test]
    fn batch_records_ops_in_order() {
        let mut b = WriteBatch::new();
        b.put::<NumsCf>(&(1, 2), &3).delete::<NumsCf>(&(1, 2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.ops[0].0, b.ops[1].0);
        assert!(b.ops[0].1.is_some());
        assert!(b.ops[1].1.is_none());
    }
}
