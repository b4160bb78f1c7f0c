//! The extent store of one data partition.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use cfs_types::crc::crc32;
use cfs_types::{CfsError, ExtentId, Result};

use crate::device::FileDevice;
use crate::extent::Extent;
use crate::metrics::StoreMetrics;
use crate::persist::StorePersist;
use crate::small::{SmallFileLocation, SmallFilePacker};

/// Utilization counters for placement decisions and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of extents.
    pub extent_count: usize,
    /// Sum of extent watermarks (logical bytes ever written and retained).
    pub logical_bytes: u64,
    /// Physically allocated bytes across all extents.
    pub physical_bytes: u64,
    /// Bytes logically punched out by small-file deletions.
    pub punched_bytes: u64,
}

/// All extents of one data partition (§2.2.1, Figure 2).
///
/// Owns extent allocation, the large-file and small-file write paths, hole
/// punching and utilization accounting. Replication sits *above* this type:
/// each replica of a data partition holds its own `ExtentStore`, and the
/// replication protocols (primary-backup for appends, Raft for overwrites)
/// apply identical operations to each.
#[derive(Debug)]
pub struct ExtentStore {
    extents: HashMap<ExtentId, Extent>,
    next_extent_id: u64,
    packer: SmallFilePacker,
    /// Capacity limit: extents beyond this refuse creation (§2.3.1).
    extent_limit: u64,
    /// Byte accounting, detached until [`ExtentStore::set_metrics`].
    metrics: StoreMetrics,
    /// Durable backing (extent files + extent/store rows written through
    /// at every mutation). `None` = in-memory devices, the original model.
    persist: Option<Arc<StorePersist>>,
}

impl ExtentStore {
    /// Empty store. `small_extent_rotate_at` bounds shared small-file
    /// extents; `extent_limit` caps the partition (0 = unlimited).
    pub fn new(small_extent_rotate_at: u64, extent_limit: u64) -> Self {
        ExtentStore {
            extents: HashMap::new(),
            next_extent_id: 1,
            packer: SmallFilePacker::new(small_extent_rotate_at),
            extent_limit,
            metrics: StoreMetrics::detached(),
            persist: None,
        }
    }

    /// Empty store whose extents live in [`StorePersist`]'s files: every
    /// write and punch is in its file, then its watermark or punch row on
    /// the engine, before the mutating call returns.
    pub fn new_persistent(
        small_extent_rotate_at: u64,
        extent_limit: u64,
        persist: Arc<StorePersist>,
    ) -> Result<Self> {
        let mut st = Self::new(small_extent_rotate_at, extent_limit);
        persist.save_store_meta(st.next_extent_id, None)?;
        st.persist = Some(persist);
        Ok(st)
    }

    /// Rebuild a store from what `persist` holds on disk: every indexed
    /// extent's file, watermark, punch accounting and committed offset,
    /// plus the allocation cursor and active small-file extent. The index
    /// decides: a file without a row is removed, bytes past a row's
    /// watermark are ignored, and a row whose file is missing or shorter
    /// than its watermark is `Corrupt`. CRC caches start cold and recompute
    /// from the restored bytes on first access.
    pub fn restore(
        small_extent_rotate_at: u64,
        extent_limit: u64,
        persist: Arc<StorePersist>,
    ) -> Result<Self> {
        let mut st = Self::new(small_extent_rotate_at, extent_limit);
        let (mut next_id, active) = persist.load_store_meta()?.unwrap_or((1, None));
        for e in persist.stored_extents()? {
            let dev = FileDevice::open(persist.clone(), e.id, e.watermark, &e.holes)?;
            st.extents.insert(
                e.id,
                Extent::from_parts(e.id, Box::new(dev), e.watermark, e.punched, e.committed),
            );
            next_id = next_id.max(e.id.raw() + 1);
        }
        persist.sweep_unindexed_files(|id| st.extents.contains_key(&id))?;
        st.next_extent_id = next_id;
        st.packer.active = active.filter(|id| st.extents.contains_key(id));
        st.persist = Some(persist);
        Ok(st)
    }

    /// Write-through of one extent's `(watermark, punched, committed)`
    /// row after a mutation. No-op for in-memory stores.
    fn persist_extent_meta(&self, id: ExtentId) -> Result<()> {
        if let Some(p) = &self.persist {
            let e = self.extent(id)?;
            p.save_extent_meta(id, e.size(), e.punched_bytes(), e.committed())?;
        }
        Ok(())
    }

    /// Write-through of the allocation cursor + packer state.
    fn persist_store_meta(&self) -> Result<()> {
        if let Some(p) = &self.persist {
            p.save_store_meta(self.next_extent_id, self.packer.active)?;
        }
        Ok(())
    }

    /// Attach byte-accounting metrics (shared across the node's stores).
    pub fn set_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = metrics;
    }

    /// Store with defaults suitable for tests: 128 MB shared extents, no
    /// extent cap.
    pub fn with_defaults() -> Self {
        Self::new(128 * 1024 * 1024, 0)
    }

    /// True when the partition can no longer accept *new* extents. Existing
    /// extents can still be modified or deleted (§2.3.1).
    pub fn is_full(&self) -> bool {
        self.extent_limit != 0 && self.extents.len() as u64 >= self.extent_limit
    }

    /// Allocate a fresh, empty extent (the large-file write path always
    /// starts at offset 0 of a new extent, §2.2.2).
    pub fn create_extent(&mut self) -> Result<ExtentId> {
        if self.is_full() {
            return Err(CfsError::PartitionFull(cfs_types::PartitionId(0)));
        }
        let id = ExtentId(self.next_extent_id);
        self.next_extent_id += 1;
        self.extents.insert(id, self.new_extent(id)?);
        self.metrics.extents_created.inc();
        self.persist_extent_meta(id)?;
        self.persist_store_meta()?;
        Ok(id)
    }

    /// An empty extent on the store's device kind (durable or in-memory).
    fn new_extent(&self, id: ExtentId) -> Result<Extent> {
        Ok(match &self.persist {
            Some(p) => Extent::with_device(id, Box::new(FileDevice::create(p.clone(), id)?)),
            None => Extent::new(id),
        })
    }

    /// Create an extent with a specific id (replication replays the
    /// leader's allocation on followers deterministically).
    pub fn create_extent_with_id(&mut self, id: ExtentId) -> Result<()> {
        if self.extents.contains_key(&id) {
            return Err(CfsError::Exists(format!("{id}")));
        }
        self.next_extent_id = self.next_extent_id.max(id.raw() + 1);
        self.extents.insert(id, self.new_extent(id)?);
        self.metrics.extents_created.inc();
        self.persist_extent_meta(id)?;
        self.persist_store_meta()?;
        Ok(())
    }

    fn extent_mut(&mut self, id: ExtentId) -> Result<&mut Extent> {
        self.extents
            .get_mut(&id)
            .ok_or_else(|| CfsError::NotFound(format!("{id}")))
    }

    /// Borrow an extent immutably.
    pub fn extent(&self, id: ExtentId) -> Result<&Extent> {
        self.extents
            .get(&id)
            .ok_or_else(|| CfsError::NotFound(format!("{id}")))
    }

    /// True if the extent exists.
    pub fn has_extent(&self, id: ExtentId) -> bool {
        self.extents.contains_key(&id)
    }

    /// Append at the extent watermark; returns the new watermark.
    pub fn append(&mut self, id: ExtentId, offset: u64, data: &[u8]) -> Result<u64> {
        let watermark = self.extent_mut(id)?.append(offset, data)?;
        self.appended(id, data.len())?;
        Ok(watermark)
    }

    /// [`ExtentStore::append`] of a packet its sender summed to `crc`:
    /// the one pass that checks the packet also keeps the extent's CRC
    /// warm, and a mismatch is `Corrupt` before any byte or row lands.
    pub fn append_checked(
        &mut self,
        id: ExtentId,
        offset: u64,
        data: &[u8],
        crc: u32,
    ) -> Result<u64> {
        let watermark = self.extent_mut(id)?.append_checked(offset, data, crc)?;
        self.appended(id, data.len())?;
        Ok(watermark)
    }

    /// Account `len` appended bytes and write the extent's row through.
    fn appended(&mut self, id: ExtentId, len: usize) -> Result<()> {
        self.metrics.bytes_written.add(len as u64);
        self.metrics.live_bytes.add(len as i64);
        self.persist_extent_meta(id)
    }

    /// In-place overwrite below the watermark.
    pub fn overwrite(&mut self, id: ExtentId, offset: u64, data: &[u8]) -> Result<()> {
        self.extent_mut(id)?.overwrite(offset, data)?;
        self.metrics.bytes_overwritten.add(data.len() as u64);
        Ok(())
    }

    /// Read from an extent.
    pub fn read(&self, id: ExtentId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.extent(id)?.read(offset, len)?;
        self.metrics.bytes_read.add(data.len() as u64);
        Ok(data)
    }

    /// Read committed bytes only: the range is clamped to the committed
    /// offset, so a stale tail is never returned (§2.2.5).
    pub fn read_committed(&self, id: ExtentId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let committed = self.committed(id);
        if offset >= committed {
            return Err(CfsError::InvalidArgument(format!(
                "read at {offset} beyond committed watermark {committed}"
            )));
        }
        self.read(id, offset, len.min((committed - offset) as usize))
    }

    /// Watermark of an extent.
    pub fn extent_size(&self, id: ExtentId) -> Result<u64> {
        Ok(self.extent(id)?.size())
    }

    /// Advance an extent's committed offset (chain head, after the whole
    /// chain acked) and write its row: the only way the offset moves up.
    pub fn commit(&mut self, id: ExtentId, upto: u64) -> Result<()> {
        self.extent_mut(id)?.commit(upto)?;
        self.persist_extent_meta(id)
    }

    /// Committed offset of an extent (0 if never committed or unknown).
    pub fn committed(&self, id: ExtentId) -> u64 {
        self.extents.get(&id).map_or(0, Extent::committed)
    }

    /// CRC of an extent (cached).
    pub fn extent_crc(&mut self, id: ExtentId) -> Result<u32> {
        self.extent_mut(id)?.crc()
    }

    /// Write one small file into the active shared extent, rotating if
    /// needed. Returns where it landed. A batch of one record.
    pub fn write_small_file(&mut self, data: &[u8]) -> Result<SmallFileLocation> {
        Ok(self.write_small_batch(&[data])?.0[0])
    }

    /// Write a batch of small files into the shared extent(s) with one
    /// aggregated append per extent segment. Rotation may split the batch
    /// across extents, but every record inside one segment costs a single
    /// device append + one meta write-through — the store half of the
    /// small-file hot path. Record placement depends only on the record
    /// sequence, never on how it was cut into batches, so followers
    /// replaying per-segment appends converge.
    ///
    /// Returns where each record landed, and the CRC32-C of each segment
    /// in order — a segment being a maximal run of locations contiguous in
    /// one extent — so the caller forwards a segment without summing it
    /// again.
    pub fn write_small_batch(
        &mut self,
        records: &[&[u8]],
    ) -> Result<(Vec<SmallFileLocation>, Vec<u32>)> {
        let mut locs = Vec::with_capacity(records.len());
        let mut crcs = Vec::new();
        let mut i = 0;
        while i < records.len() {
            let first_len = records[i].len() as u64;
            let need_new = match self.packer.active {
                None => true,
                Some(id) => {
                    let size = self.extent_size(id)?;
                    self.packer.needs_rotation(size, first_len)
                }
            };
            if need_new {
                let id = self.create_extent()?;
                self.packer.active = Some(id);
                self.persist_store_meta()?;
            }
            let id = self.packer.active.expect("active small extent set above");
            let base = self.extent_size(id)?;
            // Greedily take records until the next one would rotate; the
            // first record of a segment always fits by construction (an
            // oversized record lands alone in a fresh extent).
            let mut offset = base;
            let mut j = i;
            while j < records.len() {
                let len = records[j].len() as u64;
                if j > i && self.packer.needs_rotation(offset, len) {
                    break;
                }
                locs.push(SmallFileLocation {
                    extent_id: id,
                    offset,
                    len,
                });
                offset += len;
                j += 1;
            }
            // A lone record is appended from where it lies.
            let segment = match &records[i..j] {
                [one] => Cow::Borrowed(*one),
                many => Cow::Owned(many.concat()),
            };
            let crc = crc32(&segment);
            self.extent_mut(id)?.append_summed(base, &segment, crc)?;
            self.appended(id, segment.len())?;
            crcs.push(crc);
            i = j;
        }
        Ok((locs, crcs))
    }

    /// Delete a small file by punching its range out of the shared extent
    /// (§2.2.3). Asynchronous in the real system; the data partition layer
    /// queues these, and punches neighbouring files' ranges in one call.
    pub fn delete_small_file(&mut self, loc: SmallFileLocation) -> Result<()> {
        self.extent_mut(loc.extent_id)?
            .punch_hole(loc.offset, loc.len)?;
        self.metrics.punches.inc();
        self.metrics.bytes_punched.add(loc.len);
        self.metrics.live_bytes.sub(loc.len as i64);
        self.persist_extent_meta(loc.extent_id)?;
        Ok(())
    }

    /// Remove a whole extent (large-file deletion removes extents directly,
    /// §2.2.3).
    pub fn delete_extent(&mut self, id: ExtentId) -> Result<()> {
        if self.packer.active == Some(id) {
            self.packer.active = None;
        }
        let e = self
            .extents
            .remove(&id)
            .ok_or_else(|| CfsError::NotFound(format!("{id}")))?;
        // Only still-live bytes move to `freed`; punched bytes were
        // already accounted when the holes were cut.
        let live = e.size().saturating_sub(e.punched_bytes());
        self.metrics.bytes_freed.add(live);
        self.metrics.live_bytes.sub(live as i64);
        if let Some(p) = &self.persist {
            p.delete_extent(id)?;
        }
        self.persist_store_meta()?;
        Ok(())
    }

    /// Truncate an extent (primary-backup recovery alignment, §2.2.5).
    pub fn truncate_extent(&mut self, id: ExtentId, new_size: u64) -> Result<()> {
        let e = self.extent_mut(id)?;
        let shrunk = e.size().saturating_sub(new_size);
        e.truncate(new_size)?;
        self.metrics.bytes_truncated.add(shrunk);
        self.metrics.live_bytes.sub(shrunk as i64);
        self.persist_extent_meta(id)?;
        Ok(())
    }

    /// Ids of all extents, in id order (recovery walks them in this
    /// order, so its per-extent RPCs go out the same way on every run).
    pub fn extent_ids(&self) -> Vec<ExtentId> {
        let mut ids: Vec<ExtentId> = self.extents.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Utilization snapshot.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            extent_count: self.extents.len(),
            ..StoreStats::default()
        };
        for e in self.extents.values() {
            s.logical_bytes += e.size();
            s.physical_bytes += e.allocated_bytes();
            s.punched_bytes += e.punched_bytes();
        }
        s
    }

    /// Re-read every extent from its device and compare the CRC of the
    /// stored bytes with the cached one (the folded value, or a fresh
    /// recompute for a cold cache) — a full-store scrub used in recovery
    /// tests. `Corrupt` names the first extent that differs.
    pub fn scrub(&mut self) -> Result<()> {
        for e in self.extents.values_mut() {
            let cached = e.crc()?;
            e.verify(cached)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_obs::Registry;
    use proptest::prelude::*;

    /// The §2.2.3 space-accounting identity the proptest enforces after
    /// every step. Panics with the step label on violation.
    fn check_space_identity(registry: &Registry, when: &str) {
        let s = registry.snapshot();
        let written = s.counter("store.bytes_written");
        let punched = s.counter("store.bytes_punched");
        let live = s.gauge("store.live_bytes").map(|g| g.value).unwrap_or(0);
        assert_eq!(
            written as i64 - punched as i64,
            live,
            "space identity violated ({when}): \
             bytes_written {written} - bytes_punched {punched} != live_bytes {live}"
        );
    }

    #[test]
    fn large_file_path_uses_dedicated_extents() {
        let mut st = ExtentStore::with_defaults();
        let e1 = st.create_extent().unwrap();
        let e2 = st.create_extent().unwrap();
        assert_ne!(e1, e2);
        st.append(e1, 0, &[1u8; 1000]).unwrap();
        st.append(e1, 1000, &[2u8; 1000]).unwrap();
        st.append(e2, 0, &[3u8; 500]).unwrap();
        assert_eq!(st.extent_size(e1).unwrap(), 2000);
        assert_eq!(st.extent_size(e2).unwrap(), 500);
        assert_eq!(st.read(e1, 1000, 1000).unwrap(), [2u8; 1000]);
    }

    #[test]
    fn small_files_aggregate_into_shared_extent() {
        let mut st = ExtentStore::with_defaults();
        let a = st.write_small_file(&[1u8; 100]).unwrap();
        let b = st.write_small_file(&[2u8; 200]).unwrap();
        let c = st.write_small_file(&[3u8; 300]).unwrap();
        assert_eq!(a.extent_id, b.extent_id);
        assert_eq!(b.extent_id, c.extent_id);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 100);
        assert_eq!(c.offset, 300);
        assert_eq!(
            st.read(b.extent_id, b.offset, b.len as usize).unwrap(),
            [2u8; 200]
        );
    }

    #[test]
    fn batch_write_matches_sequential_placement() {
        let mut batch = ExtentStore::new(250, 0);
        let mut seq = ExtentStore::new(250, 0);
        let records: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 60 + i as usize * 20]).collect();
        let views: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let (batch_locs, crcs) = batch.write_small_batch(&views).unwrap();
        let seq_locs: Vec<_> = records
            .iter()
            .map(|r| seq.write_small_file(r).unwrap())
            .collect();
        assert_eq!(batch_locs, seq_locs, "placement parity incl. rotation");
        assert_eq!(batch.stats(), seq.stats());
        for (loc, rec) in batch_locs.iter().zip(&records) {
            assert_eq!(
                &batch.read(loc.extent_id, loc.offset, rec.len()).unwrap(),
                rec
            );
        }
        // One CRC per segment (the records of one extent), of its bytes.
        let mut segments: Vec<Vec<u8>> = Vec::new();
        for (k, rec) in records.iter().enumerate() {
            if k == 0 || batch_locs[k].extent_id != batch_locs[k - 1].extent_id {
                segments.push(Vec::new());
            }
            segments.last_mut().unwrap().extend_from_slice(rec);
        }
        assert!(segments.len() > 1, "the batch rotates");
        let expected: Vec<u32> = segments.iter().map(|s| crc32(s)).collect();
        assert_eq!(crcs, expected);
    }

    #[test]
    fn batch_write_oversized_record_gets_own_extent() {
        let mut st = ExtentStore::new(200, 0);
        let big = vec![9u8; 500];
        let records: Vec<&[u8]> = vec![&[1u8; 50], big.as_slice(), &[2u8; 50]];
        let (locs, _) = st.write_small_batch(&records).unwrap();
        assert_ne!(locs[0].extent_id, locs[1].extent_id);
        assert_ne!(locs[1].extent_id, locs[2].extent_id);
        assert_eq!(locs[1].offset, 0);
        assert_eq!(st.read(locs[1].extent_id, 0, 500).unwrap(), big);
    }

    #[test]
    fn small_extent_rotates_at_threshold() {
        let mut st = ExtentStore::new(250, 0);
        let a = st.write_small_file(&[1u8; 100]).unwrap();
        let b = st.write_small_file(&[2u8; 100]).unwrap();
        let c = st.write_small_file(&[3u8; 100]).unwrap(); // 300 > 250: rotate
        assert_eq!(a.extent_id, b.extent_id);
        assert_ne!(b.extent_id, c.extent_id);
        assert_eq!(c.offset, 0);
    }

    #[test]
    fn delete_small_file_reclaims_physical_space() {
        let mut st = ExtentStore::with_defaults();
        // Block-aligned small files so holes free whole blocks.
        let locs: Vec<_> = (0..8)
            .map(|i| st.write_small_file(&vec![i as u8; 8192]).unwrap())
            .collect();
        let before = st.stats();
        assert_eq!(before.physical_bytes, 8 * 8192);
        st.delete_small_file(locs[2]).unwrap();
        st.delete_small_file(locs[5]).unwrap();
        let after = st.stats();
        assert_eq!(after.physical_bytes, 6 * 8192);
        assert_eq!(after.punched_bytes, 2 * 8192);
        // Logical bytes (watermarks) unchanged — holes don't shrink extents.
        assert_eq!(after.logical_bytes, before.logical_bytes);
        // Neighbors intact.
        assert_eq!(
            st.read(locs[3].extent_id, locs[3].offset, 8192).unwrap(),
            vec![3u8; 8192]
        );
    }

    #[test]
    fn delete_extent_removes_large_file_storage() {
        let mut st = ExtentStore::with_defaults();
        let e = st.create_extent().unwrap();
        st.append(e, 0, &[9u8; 4096]).unwrap();
        assert_eq!(st.stats().extent_count, 1);
        st.delete_extent(e).unwrap();
        assert_eq!(st.stats().extent_count, 0);
        assert!(st.read(e, 0, 1).is_err());
        assert!(st.delete_extent(e).is_err(), "double delete");
    }

    #[test]
    fn extent_limit_marks_partition_full() {
        let mut st = ExtentStore::new(1 << 20, 2);
        st.create_extent().unwrap();
        assert!(!st.is_full());
        st.create_extent().unwrap();
        assert!(st.is_full());
        assert!(matches!(
            st.create_extent(),
            Err(CfsError::PartitionFull(_))
        ));
        // Existing extents still writable/deletable when full.
        let ids = st.extent_ids();
        st.append(ids[0], 0, b"still writable").unwrap();
        st.delete_extent(ids[0]).unwrap();
        assert!(!st.is_full());
    }

    #[test]
    fn deterministic_replay_with_explicit_ids() {
        let mut leader = ExtentStore::with_defaults();
        let mut follower = ExtentStore::with_defaults();
        let id = leader.create_extent().unwrap();
        follower.create_extent_with_id(id).unwrap();
        leader.append(id, 0, b"replicated").unwrap();
        follower.append(id, 0, b"replicated").unwrap();
        assert_eq!(
            leader.extent_crc(id).unwrap(),
            follower.extent_crc(id).unwrap()
        );
        assert!(follower.create_extent_with_id(id).is_err());
        // Ids allocated after an explicit insert never collide.
        let next = follower.create_extent().unwrap();
        assert!(next.raw() > id.raw());
    }

    #[test]
    fn scrub_passes_on_clean_store() {
        let mut st = ExtentStore::with_defaults();
        let e = st.create_extent().unwrap();
        st.append(e, 0, &[5u8; 10_000]).unwrap();
        st.write_small_file(&[6u8; 500]).unwrap();
        st.scrub().unwrap();
    }

    /// Forced-failure twin of `scrub_passes_on_clean_store`: a byte flipped
    /// in an extent file behind the store's back is found, because the
    /// scrub re-reads the device instead of comparing the cache with
    /// itself.
    #[test]
    fn scrub_detects_a_flipped_byte() {
        use crate::persist::StorePersist;
        use cfs_kvwal::{LsmEngine, LsmOptions};
        use cfs_types::testutil::TempDir;
        use std::os::unix::fs::FileExt;

        let dir = TempDir::new("storescrub").unwrap();
        let engine = Arc::new(LsmEngine::open(dir.path(), LsmOptions::default()).unwrap());
        let persist = Arc::new(StorePersist::new(engine, 3));
        let mut st = ExtentStore::new_persistent(1 << 20, 0, persist.clone()).unwrap();
        let e = st.create_extent().unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        st.append(e, 0, &data).unwrap();
        st.write_small_file(&[6u8; 500]).unwrap();
        st.scrub().unwrap();

        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(persist.extent_path(e))
            .unwrap();
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, 12_345).unwrap();
        file.write_all_at(&[byte[0] ^ 0x10], 12_345).unwrap();

        match st.scrub() {
            Err(CfsError::Corrupt(msg)) => assert!(msg.contains(&e.to_string()), "{msg}"),
            other => panic!("a flipped byte must fail the scrub, got {other:?}"),
        }
    }

    /// Forced failure: a perturbed ledger (a write the gauge never saw)
    /// must trip the identity check — proves the proptest can actually
    /// fail, not just vacuously pass.
    #[test]
    fn space_identity_check_detects_unaccounted_write() {
        let registry = Registry::new();
        let mut st = ExtentStore::with_defaults();
        st.set_metrics(StoreMetrics::bind(&registry));
        st.write_small_file(&[7u8; 100]).unwrap();
        check_space_identity(&registry, "healthy");
        // Perturb: claim 50 written bytes that never hit the store.
        registry.counter("store.bytes_written").add(50);
        let err = std::panic::catch_unwind(|| check_space_identity(&registry, "perturbed"))
            .expect_err("perturbed ledger must violate the identity");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("space identity violated"), "got: {msg}");
    }

    /// Overwrites and whole-extent deletes keep the *general* ledger
    /// balanced: written - punched - freed - truncated == live. A read
    /// counts the bytes it returned, not the bytes it asked for.
    #[test]
    fn general_ledger_balances_across_extent_lifecycle() {
        let registry = Registry::new();
        let mut st = ExtentStore::with_defaults();
        st.set_metrics(StoreMetrics::bind(&registry));
        let e = st.create_extent().unwrap();
        st.append(e, 0, &[1u8; 4096]).unwrap();
        st.overwrite(e, 100, &[2u8; 50]).unwrap();
        st.read(e, 4000, 500).unwrap(); // clamped to the watermark
        st.truncate_extent(e, 1024).unwrap();
        let f = st.create_extent().unwrap();
        st.append(f, 0, &[3u8; 2048]).unwrap();
        st.delete_extent(f).unwrap();
        let s = registry.snapshot();
        let live = s.counter("store.bytes_written") as i64
            - s.counter("store.bytes_punched") as i64
            - s.counter("store.bytes_freed") as i64
            - s.counter("store.bytes_truncated") as i64;
        assert_eq!(live, s.gauge("store.live_bytes").unwrap().value);
        assert_eq!(live, 1024);
        assert_eq!(s.counter("store.bytes_overwritten"), 50);
        assert_eq!(s.counter("store.bytes_read"), 96);
        assert_eq!(s.counter("store.extents_created"), 2);
    }

    #[test]
    fn persistent_store_restores_from_engine_alone() {
        use crate::persist::StorePersist;
        use cfs_kvwal::{LsmEngine, LsmOptions};
        use cfs_types::testutil::TempDir;

        let dir = TempDir::new("storekv").unwrap();
        let open_persist = || {
            Arc::new(StorePersist::new(
                Arc::new(LsmEngine::open(dir.path(), LsmOptions::default()).unwrap()),
                42,
            ))
        };
        let (big, small_a, small_b, expected_crc);
        {
            let mut st = ExtentStore::new_persistent(300, 0, open_persist()).unwrap();
            big = st.create_extent().unwrap();
            st.append(big, 0, &vec![7u8; 9_000]).unwrap();
            st.overwrite(big, 100, b"OVERWRITTEN").unwrap();
            st.commit(big, 8_500).unwrap();
            st.truncate_extent(big, 8_000).unwrap();
            small_a = st.write_small_file(&[1u8; 120]).unwrap();
            small_b = st.write_small_file(&[2u8; 120]).unwrap();
            st.delete_small_file(small_a).unwrap();
            let doomed = st.create_extent().unwrap();
            st.append(doomed, 0, b"gone").unwrap();
            st.delete_extent(doomed).unwrap();
            expected_crc = st.extent_crc(big).unwrap();
            // Dropped without any export: disk is the only carrier.
        }
        let mut st = ExtentStore::restore(300, 0, open_persist()).unwrap();
        assert_eq!(st.extent_size(big).unwrap(), 8_000);
        assert_eq!(st.committed(big), 8_000, "clamped by the truncate");
        assert_eq!(st.committed(small_b.extent_id), 0, "never committed");
        assert_eq!(&st.read(big, 100, 11).unwrap(), b"OVERWRITTEN");
        assert_eq!(st.extent_crc(big).unwrap(), expected_crc);
        assert_eq!(
            st.read(small_a.extent_id, small_a.offset, 120).unwrap(),
            vec![0u8; 120],
            "punched small file stays punched"
        );
        assert_eq!(
            st.read(small_b.extent_id, small_b.offset, 120).unwrap(),
            vec![2u8; 120]
        );
        assert_eq!(
            st.extent(small_a.extent_id).unwrap().punched_bytes(),
            120,
            "punch accounting restored"
        );
        assert!(!st.has_extent(ExtentId(3)) || st.extent_ids().len() == 2);
        // The allocation cursor survives: no id reuse after restart.
        let fresh = st.create_extent().unwrap();
        assert!(fresh.raw() > big.raw());
        // Packer keeps filling the same shared extent after restart.
        let small_c = st.write_small_file(&[3u8; 50]).unwrap();
        assert_eq!(small_c.extent_id, small_b.extent_id);
        st.scrub().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Pack random small files, delete a subset, and verify the
        /// survivors read back intact while punched space is accounted.
        #[test]
        fn prop_small_file_pack_delete(
            sizes in proptest::collection::vec(1usize..4096, 1..40),
            delete_mask in proptest::collection::vec(any::<bool>(), 40),
        ) {
            let mut st = ExtentStore::new(64 * 1024, 0);
            let mut files = Vec::new();
            for (i, &sz) in sizes.iter().enumerate() {
                let fill = (i % 251) as u8;
                let loc = st.write_small_file(&vec![fill; sz]).unwrap();
                files.push((loc, fill, sz));
            }
            let mut expected_punched = 0u64;
            for (i, &(loc, _, sz)) in files.iter().enumerate() {
                if delete_mask[i % delete_mask.len()] && i % 2 == 0 {
                    st.delete_small_file(loc).unwrap();
                    expected_punched += sz as u64;
                }
            }
            prop_assert_eq!(st.stats().punched_bytes, expected_punched);
            for (i, &(loc, fill, sz)) in files.iter().enumerate() {
                if !(delete_mask[i % delete_mask.len()] && i % 2 == 0) {
                    let data = st.read(loc.extent_id, loc.offset, sz).unwrap();
                    prop_assert!(data.iter().all(|&b| b == fill), "file {i} intact");
                }
            }
        }

        /// Space-accounting identity (§2.2.3 / §3.2 punch-hole dealloc):
        /// over any interleaving of small-file writes and deletes,
        /// `bytes_written - bytes_punched == live_bytes` holds after every
        /// single step — the punch path must account exactly, not
        /// eventually.
        #[test]
        fn prop_space_accounting_identity(
            sizes in proptest::collection::vec(1usize..4096, 1..48),
            delete_at in proptest::collection::vec(any::<u8>(), 1..48),
            rotate_at in 1024u64..32_768,
        ) {
            let registry = Registry::new();
            let mut st = ExtentStore::new(rotate_at, 0);
            st.set_metrics(StoreMetrics::bind(&registry));
            let mut written = Vec::new();
            for (i, &sz) in sizes.iter().enumerate() {
                let loc = st.write_small_file(&vec![i as u8; sz]).unwrap();
                written.push(Some(loc));
                check_space_identity(&registry, "after write");
                // Interleave: every few writes, delete an earlier survivor.
                let victim = delete_at[i % delete_at.len()] as usize % written.len();
                if i % 3 == 2 {
                    if let Some(loc) = written[victim].take() {
                        st.delete_small_file(loc).unwrap();
                        check_space_identity(&registry, "after delete");
                    }
                }
            }
            // Drain every survivor; the identity must land back exactly.
            for loc in written.iter_mut().filter_map(Option::take) {
                st.delete_small_file(loc).unwrap();
                check_space_identity(&registry, "during drain");
            }
            let s = registry.snapshot();
            prop_assert_eq!(s.gauge("store.live_bytes").unwrap().value, 0);
            prop_assert_eq!(
                s.counter("store.bytes_written"),
                s.counter("store.bytes_punched")
            );
        }

        /// Batched small-file writes are equivalent to the same records
        /// written one at a time: identical locations (across rotation),
        /// identical readback, and identical watermark/punched-bytes
        /// accounting even with punch-hole deletions interleaved between
        /// batches — the §2.2.3 ledger identity holds after every step on
        /// both stores.
        #[test]
        fn prop_batch_write_equals_sequential(
            sizes in proptest::collection::vec(1usize..2048, 1..40),
            chunk_sizes in proptest::collection::vec(1usize..6, 1..40),
            delete_at in proptest::collection::vec(any::<u8>(), 1..40),
            rotate_at in 512u64..16_384,
        ) {
            let reg_batch = Registry::new();
            let reg_seq = Registry::new();
            let mut batch = ExtentStore::new(rotate_at, 0);
            let mut seq = ExtentStore::new(rotate_at, 0);
            batch.set_metrics(StoreMetrics::bind(&reg_batch));
            seq.set_metrics(StoreMetrics::bind(&reg_seq));
            let records: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &sz)| vec![(i % 251) as u8; sz])
                .collect();
            let mut locs: Vec<Option<SmallFileLocation>> = Vec::new();
            let mut i = 0;
            let mut round = 0;
            while i < records.len() {
                let n = chunk_sizes[round % chunk_sizes.len()].min(records.len() - i);
                let views: Vec<&[u8]> =
                    records[i..i + n].iter().map(|r| r.as_slice()).collect();
                let (batch_locs, _) = batch.write_small_batch(&views).unwrap();
                for (k, r) in records[i..i + n].iter().enumerate() {
                    let s = seq.write_small_file(r).unwrap();
                    prop_assert_eq!(batch_locs[k], s, "placement parity at record {}", i + k);
                    locs.push(Some(s));
                }
                check_space_identity(&reg_batch, "batch store after batch");
                check_space_identity(&reg_seq, "seq store after batch");
                // Interleave a punch-hole between batches on both stores.
                let victim = delete_at[round % delete_at.len()] as usize % locs.len();
                if round % 2 == 1 {
                    if let Some(loc) = locs[victim].take() {
                        batch.delete_small_file(loc).unwrap();
                        seq.delete_small_file(loc).unwrap();
                        check_space_identity(&reg_batch, "batch store after punch");
                    }
                }
                i += n;
                round += 1;
            }
            prop_assert_eq!(batch.stats(), seq.stats());
            for (k, loc) in locs.iter().enumerate() {
                if let Some(loc) = loc {
                    prop_assert_eq!(
                        batch.read(loc.extent_id, loc.offset, loc.len as usize).unwrap(),
                        seq.read(loc.extent_id, loc.offset, loc.len as usize).unwrap(),
                        "readback parity for surviving record {}", k
                    );
                }
            }
        }

        /// The CRC cache stays the CRC of the stored bytes: over any mix
        /// of plain and checked appends (sizes crossing the CRC kernel's
        /// lane and block boundaries), rejected corrupt packets,
        /// overwrites, punches, truncates and reopens, `extent_crc` after
        /// every step equals the CRC of `read(0, size)`. A reopen is
        /// followed by an append, which lands on a cold cache.
        #[test]
        fn prop_warm_crc_equals_cold_crc(
            steps in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..16),
        ) {
            use crate::persist::StorePersist;
            use cfs_kvwal::{LsmEngine, LsmOptions};
            use cfs_types::testutil::TempDir;

            let dir = TempDir::new("storecrc").unwrap();
            let open = || {
                let engine = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
                Arc::new(StorePersist::new(Arc::new(engine), 5))
            };
            let mut st = ExtentStore::new_persistent(1 << 30, 0, open()).unwrap();
            let e = st.create_extent().unwrap();
            for (i, &(kind, x, y)) in steps.iter().enumerate() {
                let size = st.extent_size(e).unwrap();
                let bytes = |n: u32| -> Vec<u8> {
                    (0..n).map(|k| (k.wrapping_mul(2_654_435_761) ^ y) as u8).collect()
                };
                let packet = bytes(1 + x % 14_000);
                match kind {
                    0 | 1 => {
                        st.append(e, size, &packet).unwrap();
                    }
                    2 => {
                        st.append_checked(e, size, &packet, crc32(&packet)).unwrap();
                    }
                    3 => {
                        let wrong = crc32(&packet) ^ (1 | y);
                        prop_assert!(matches!(
                            st.append_checked(e, size, &packet, wrong),
                            Err(CfsError::Corrupt(_))
                        ));
                        prop_assert_eq!(st.extent_size(e).unwrap(), size, "nothing landed");
                    }
                    4 if size > 0 => {
                        let off = x as u64 % size;
                        let n = (y as u64 % 9_000).clamp(1, size - off) as usize;
                        st.overwrite(e, off, &bytes(n as u32)).unwrap();
                    }
                    5 if size > 0 => {
                        let offset = x as u64 % size;
                        let len = (y as u64 % 9_000).clamp(1, size - offset);
                        st.delete_small_file(SmallFileLocation { extent_id: e, offset, len })
                            .unwrap();
                    }
                    6 => st.truncate_extent(e, x as u64 % (size + 1)).unwrap(),
                    7 => {
                        drop(st);
                        st = ExtentStore::restore(1 << 30, 0, open()).unwrap();
                        st.append_checked(e, size, &packet, crc32(&packet)).unwrap();
                    }
                    _ => {}
                }
                let size = st.extent_size(e).unwrap();
                let stored = st.read(e, 0, size as usize).unwrap();
                prop_assert_eq!(
                    st.extent_crc(e).unwrap(),
                    crc32(&stored),
                    "step {} (kind {}), {} bytes", i, kind, size
                );
            }
            st.scrub().unwrap();
        }

        /// Appends, commits, arbitrary in-range overwrites and a truncate
        /// behave like a Vec<u8> model plus one clamped, monotone offset.
        #[test]
        fn prop_extent_matches_vec_model(
            chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..512), 1..12),
            overwrites in proptest::collection::vec((any::<u16>(), proptest::collection::vec(any::<u8>(), 1..128)), 0..8),
        ) {
            let mut st = ExtentStore::with_defaults();
            let e = st.create_extent().unwrap();
            let mut model: Vec<u8> = Vec::new();
            let mut committed = 0u64;
            for (i, chunk) in chunks.iter().enumerate() {
                st.append(e, model.len() as u64, chunk).unwrap();
                model.extend_from_slice(chunk);
                // Commit every other chunk, sometimes to a stale offset.
                if i % 2 == 0 {
                    let upto = (model.len() - i % 3) as u64;
                    st.commit(e, upto).unwrap();
                    committed = committed.max(upto);
                }
                prop_assert!(st.commit(e, model.len() as u64 + 1).is_err());
                prop_assert_eq!(st.committed(e), committed);
            }
            for (off, data) in &overwrites {
                let off = *off as usize % model.len();
                let n = data.len().min(model.len() - off);
                st.overwrite(e, off as u64, &data[..n]).unwrap();
                model[off..off + n].copy_from_slice(&data[..n]);
            }
            prop_assert_eq!(st.committed(e), committed, "overwrites leave it");
            prop_assert_eq!(st.read(e, 0, model.len()).unwrap(), &model[..]);
            // Truncate to the offset an overwrite picked (or the middle).
            let cut = overwrites.first().map_or(model.len() / 2, |(off, _)| *off as usize % model.len());
            st.truncate_extent(e, cut as u64).unwrap();
            model.truncate(cut);
            prop_assert_eq!(st.committed(e), committed.min(cut as u64));
            prop_assert_eq!(st.read(e, 0, cut + 1).unwrap(), model);
        }
    }
}
