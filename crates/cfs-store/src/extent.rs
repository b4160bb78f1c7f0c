//! A single extent: append-only tail, in-place overwrite, CRC cache.

use cfs_types::crc::{crc32, crc32_combine, Crc32};
use cfs_types::{CfsError, ExtentId, Result};

use crate::device::{BlockDevice, MemDevice};

/// A cold CRC recompute reads the extent this many bytes at a time.
const CRC_CHUNK: u64 = 1 << 20;

/// One storage unit of the extent store.
///
/// An extent has a *write watermark* (`size`): appends must land exactly at
/// the watermark (the sequential-write protocol guarantees in-order packet
/// delivery; a mismatch means a lost or duplicated packet), overwrites must
/// stay strictly below it. The CRC of the whole extent is cached (§2.2.1):
/// an append folds the packet's CRC into it by combination, so keeping it
/// warm costs no pass over the bytes beyond the one that checks them.
pub struct Extent {
    id: ExtentId,
    dev: Box<dyn BlockDevice>,
    /// Write watermark: logical size in bytes.
    size: u64,
    /// Committed offset: the largest offset every replica acknowledged
    /// (advanced only at the chain head, 0 elsewhere). Never above `size`,
    /// never regresses except through [`Extent::truncate`] (§2.2.5).
    committed: u64,
    /// Cached CRC32-C over `[0, size)`. Appends fold into it; overwrites,
    /// hole punches and truncates clear it, and it stays `None` until
    /// [`Extent::crc`] recomputes it from the stored bytes.
    crc: Option<u32>,
    /// Bytes logically punched out (for utilization accounting).
    punched_bytes: u64,
}

impl std::fmt::Debug for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Extent")
            .field("id", &self.id)
            .field("size", &self.size)
            .field("committed", &self.committed)
            .field("crc", &self.crc)
            .field("punched_bytes", &self.punched_bytes)
            .finish()
    }
}

impl Extent {
    /// Fresh, empty extent on an in-memory device.
    pub fn new(id: ExtentId) -> Self {
        Self::with_device(id, Box::new(MemDevice::new()))
    }

    /// Fresh, empty extent on a caller-provided device (e.g. a durable
    /// [`FileDevice`](crate::FileDevice)).
    pub fn with_device(id: ExtentId, dev: Box<dyn BlockDevice>) -> Self {
        Extent {
            id,
            dev,
            size: 0,
            committed: 0,
            crc: Some(0),
            punched_bytes: 0,
        }
    }

    /// Rebuild an extent from durable parts: a device already holding its
    /// bytes plus the persisted watermark, punch accounting and committed
    /// offset. The CRC cache starts cold and is recomputed from the device
    /// on first access.
    pub fn from_parts(
        id: ExtentId,
        dev: Box<dyn BlockDevice>,
        size: u64,
        punched_bytes: u64,
        committed: u64,
    ) -> Self {
        Extent {
            id,
            dev,
            size,
            committed: committed.min(size),
            crc: None,
            punched_bytes,
        }
    }

    /// Extent id.
    pub fn id(&self) -> ExtentId {
        self.id
    }

    /// Current write watermark (logical size).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Committed offset (0 if never committed).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Advance the committed offset to `upto`. A commit at or below the
    /// current offset is a no-op (it never regresses); one above the
    /// watermark is rejected, so what is stored never exceeds `size`.
    pub fn commit(&mut self, upto: u64) -> Result<()> {
        if upto > self.size {
            return Err(CfsError::InvalidArgument(format!(
                "commit to {upto} above watermark {}",
                self.size
            )));
        }
        self.committed = self.committed.max(upto);
        Ok(())
    }

    /// Bytes punched out of this extent so far.
    pub fn punched_bytes(&self) -> u64 {
        self.punched_bytes
    }

    /// Physically allocated bytes on the backing device.
    pub fn allocated_bytes(&self) -> u64 {
        self.dev.allocated_bytes()
    }

    /// Append `data` at `offset`, which must equal the current watermark.
    /// Sums `data` only to keep a warm CRC cache warm.
    pub fn append(&mut self, offset: u64, data: &[u8]) -> Result<u64> {
        self.check_tail(offset)?;
        let crc = self.crc.map(|_| crc32(data));
        self.land(data, crc)
    }

    /// [`Extent::append`] of a packet the sender summed to `crc`: `data`
    /// is summed once, a mismatch is `Corrupt` before any byte lands, and
    /// the checked CRC is what folds into the cache.
    pub fn append_checked(&mut self, offset: u64, data: &[u8], crc: u32) -> Result<u64> {
        self.check_tail(offset)?;
        let actual = crc32(data);
        if actual != crc {
            return Err(CfsError::Corrupt(format!(
                "{}: append packet crc mismatch: sent {crc:#x}, got {actual:#x}",
                self.id
            )));
        }
        self.land(data, Some(crc))
    }

    /// [`Extent::append`] of `data` the caller itself summed to `crc`.
    pub(crate) fn append_summed(&mut self, offset: u64, data: &[u8], crc: u32) -> Result<u64> {
        self.check_tail(offset)?;
        self.land(data, Some(crc))
    }

    fn check_tail(&self, offset: u64) -> Result<()> {
        if offset != self.size {
            return Err(CfsError::InvalidArgument(format!(
                "append at {offset} but watermark is {}",
                self.size
            )));
        }
        Ok(())
    }

    /// Write `data` at the watermark and fold its CRC (when known) into a
    /// warm cache.
    fn land(&mut self, data: &[u8], crc: Option<u32>) -> Result<u64> {
        self.dev.write_at(self.size, data)?;
        self.size += data.len() as u64;
        self.crc = self
            .crc
            .zip(crc)
            .map(|(head, tail)| crc32_combine(head, tail, data.len() as u64));
        Ok(self.size)
    }

    /// Overwrite `data` in place at `offset`; the range must lie entirely
    /// below the watermark (the random-write path never extends a file
    /// through this interface, §2.7.2).
    pub fn overwrite(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let end = offset + data.len() as u64;
        if end > self.size {
            return Err(CfsError::InvalidArgument(format!(
                "overwrite [{offset}, {end}) beyond watermark {}",
                self.size
            )));
        }
        self.dev.write_at(offset, data)?;
        self.crc = None; // cache invalid; recomputed lazily
        Ok(())
    }

    /// Read `len` bytes at `offset`, clamped to the watermark.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        if offset > self.size {
            return Err(CfsError::InvalidArgument(format!(
                "read at {offset} beyond watermark {}",
                self.size
            )));
        }
        let mut buf = vec![0u8; len.min((self.size - offset) as usize)];
        self.dev.read_at(offset, &mut buf)?;
        Ok(buf)
    }

    /// Punch out `[offset, offset + len)` (small-file deletion, §2.2.3).
    pub fn punch_hole(&mut self, offset: u64, len: u64) -> Result<()> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| CfsError::InvalidArgument("punch range overflow".into()))?;
        if end > self.size {
            return Err(CfsError::InvalidArgument(format!(
                "punch [{offset}, {end}) beyond watermark {}",
                self.size
            )));
        }
        self.dev.punch_hole(offset, len)?;
        self.punched_bytes += len;
        self.crc = None;
        Ok(())
    }

    /// The extent's CRC32-C over `[0, size)`, from cache when warm.
    pub fn crc(&mut self) -> Result<u32> {
        if let Some(c) = self.crc {
            return Ok(c);
        }
        let c = self.stored_crc()?;
        self.crc = Some(c);
        Ok(c)
    }

    /// CRC32-C of the stored bytes `[0, size)`, in one streamed pass over
    /// the device.
    fn stored_crc(&self) -> Result<u32> {
        let mut st = Crc32::new();
        let mut buf = vec![0u8; self.size.min(CRC_CHUNK) as usize];
        let mut pos = 0;
        while pos < self.size {
            let n = (self.size - pos).min(CRC_CHUNK) as usize;
            self.dev.read_at(pos, &mut buf[..n])?;
            st.update(&buf[..n]);
            pos += n as u64;
        }
        Ok(st.finish())
    }

    /// Verify the stored bytes, re-read from the device, against an
    /// expected CRC.
    pub fn verify(&self, expected: u32) -> Result<()> {
        let actual = self.stored_crc()?;
        if actual != expected {
            return Err(CfsError::Corrupt(format!(
                "{}: crc mismatch: expected {expected:#x}, got {actual:#x}",
                self.id
            )));
        }
        Ok(())
    }

    /// Truncate the watermark down to `new_size`, clamping the committed
    /// offset with it (used by the primary-backup recovery path to align
    /// replica extents, §2.2.5).
    pub fn truncate(&mut self, new_size: u64) -> Result<()> {
        if new_size > self.size {
            return Err(CfsError::InvalidArgument(format!(
                "truncate to {new_size} above watermark {}",
                self.size
            )));
        }
        // Physically drop the tail, then recompute CRC lazily.
        self.dev.punch_hole(new_size, self.size - new_size)?;
        self.size = new_size;
        self.committed = self.committed.min(new_size);
        self.crc = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_advances_watermark_and_reads_back() {
        let mut e = Extent::new(ExtentId(1));
        assert_eq!(e.append(0, b"hello").unwrap(), 5);
        assert_eq!(e.append(5, b" world").unwrap(), 11);
        assert_eq!(e.read(0, 11).unwrap(), b"hello world");
        assert_eq!(
            e.read(6, 100).unwrap(),
            b"world",
            "read clamps at watermark"
        );
    }

    #[test]
    fn append_at_wrong_offset_rejected() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, b"abc").unwrap();
        assert!(e.append(2, b"x").is_err(), "below watermark");
        assert!(e.append(4, b"x").is_err(), "past watermark");
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn overwrite_in_place_only_below_watermark() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, b"aaaaaaaaaa").unwrap();
        e.overwrite(3, b"XYZ").unwrap();
        assert_eq!(e.read(0, 10).unwrap(), b"aaaXYZaaaa");
        assert!(
            e.overwrite(8, b"abc").is_err(),
            "would extend past watermark"
        );
    }

    #[test]
    fn crc_incremental_matches_recompute() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, b"part one ").unwrap();
        let c1 = e.crc().unwrap();
        e.append(9, b"part two").unwrap();
        let c2 = e.crc().unwrap();
        assert_ne!(c1, c2);
        assert_eq!(c2, cfs_types::crc::crc32(b"part one part two"));

        // Overwrite invalidates the cache; recompute matches the bytes.
        e.overwrite(0, b"PART").unwrap();
        assert_eq!(
            e.crc().unwrap(),
            cfs_types::crc::crc32(b"PART one part two")
        );
        // And incremental appends after a recompute still fold correctly.
        e.append(17, b"!").unwrap();
        assert_eq!(
            e.crc().unwrap(),
            cfs_types::crc::crc32(b"PART one part two!")
        );
        // A checked append folds the CRC it checked; a corrupt packet
        // lands nothing.
        let sum = cfs_types::crc::crc32(b"?");
        assert!(matches!(
            e.append_checked(18, b"?", sum ^ 1),
            Err(CfsError::Corrupt(_))
        ));
        assert_eq!(e.size(), 18);
        e.append_checked(18, b"?", sum).unwrap();
        assert_eq!(
            e.crc().unwrap(),
            cfs_types::crc::crc32(b"PART one part two!?")
        );
    }

    #[test]
    fn verify_detects_mismatch() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, b"data").unwrap();
        let good = e.crc().unwrap();
        assert!(e.verify(good).is_ok());
        assert!(e.verify(good ^ 1).is_err());
    }

    #[test]
    fn punch_hole_reclaims_space_and_reads_zero() {
        let mut e = Extent::new(ExtentId(1));
        let blob = vec![7u8; 64 * 1024];
        e.append(0, &blob).unwrap();
        let before = e.allocated_bytes();
        e.punch_hole(0, 64 * 1024).unwrap();
        assert!(e.allocated_bytes() < before);
        assert_eq!(e.punched_bytes(), 64 * 1024);
        assert!(e.read(0, 64 * 1024).unwrap().iter().all(|&b| b == 0));
        // Watermark unchanged: holes do not shrink the extent.
        assert_eq!(e.size(), 64 * 1024);
    }

    #[test]
    fn punch_beyond_watermark_rejected() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, b"1234").unwrap();
        assert!(e.punch_hole(2, 10).is_err());
    }

    #[test]
    fn truncate_aligns_replica_tail() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, &vec![1u8; 10_000]).unwrap();
        e.truncate(4_000).unwrap();
        assert_eq!(e.size(), 4_000);
        // New appends land at the truncated watermark.
        e.append(4_000, b"tail").unwrap();
        assert_eq!(e.size(), 4_004);
        assert_eq!(&e.read(4_000, 4).unwrap(), b"tail");
        assert!(e.truncate(5_000).is_err(), "cannot truncate upward");
    }

    #[test]
    fn committed_stays_at_or_below_the_watermark() {
        let mut e = Extent::new(ExtentId(1));
        e.append(0, &[1u8; 100]).unwrap();
        assert!(e.commit(101).is_err(), "above the watermark");
        assert_eq!(e.committed(), 0, "a rejected commit stores nothing");
        e.commit(60).unwrap();
        e.commit(50).unwrap();
        assert_eq!(e.committed(), 60, "never regresses");
        e.truncate(80).unwrap();
        assert_eq!(e.committed(), 60, "truncate above it leaves it");
        e.truncate(40).unwrap();
        assert_eq!(e.committed(), 40, "truncate below it clamps");
        e.append(40, &[2u8; 10]).unwrap();
        assert_eq!(e.committed(), 40, "appends do not move it");
    }
}
