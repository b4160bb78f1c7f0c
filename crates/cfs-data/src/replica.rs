//! One replica of a data partition: an extent store plus the replica
//! array, always written through to the node's engine.
//!
//! Each durable fact has one row and one writer. Everything per extent —
//! watermark, punch count, committed offset — is the extent's
//! `store_extents` row, written by `cfs-store`; `commit`, `committed`,
//! `read` and `truncate` here delegate to it. What changes rarely —
//! volume, members, rotate/limit, the read-only flag, the delete queue —
//! is this module's one `data_replicas` row per partition, whose size does
//! not depend on how many extents the partition holds.

use std::sync::Arc;

use cfs_kvwal::{LsmEngine, TypedCf};
use cfs_store::{ExtentStore, SmallFileLocation, StorePersist, StoreStats};
use cfs_types::{
    CfsError, Decode, Decoder, Encode, Encoder, ExtentId, NodeId, PartitionId, Result, VolumeId,
};

/// Column family holding one encoded [`ReplicaMeta`] row per hosted
/// partition. Extent bytes live in the per-partition `StorePersist`
/// directory of extent files beside the engine, every per-extent fact in
/// that store's index rows in the same engine.
pub(crate) struct ReplicaCf;

impl TypedCf for ReplicaCf {
    const NAME: &'static str = "data_replicas";
    type Key = u64;
    type Value = Vec<u8>;
}

/// The durable, non-extent state of a replica: everything needed to rebuild
/// a [`DataPartitionReplica`] after power loss besides the store contents.
/// Nothing here is per extent.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReplicaMeta {
    volume_id: VolumeId,
    members: Vec<NodeId>,
    small_extent_rotate_at: u64,
    extent_limit: u64,
    read_only: bool,
    /// Delete queue as parallel vectors: `(kind, extent)` where kind 0 =
    /// whole extent, 1 = punch; `(offset, len)` meaningful for punches.
    delete_kinds: Vec<(u64, u64)>,
    delete_ranges: Vec<(u64, u64)>,
}

impl ReplicaMeta {
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.volume_id.encode(&mut enc);
        self.members.encode(&mut enc);
        self.small_extent_rotate_at.encode(&mut enc);
        self.extent_limit.encode(&mut enc);
        u64::from(self.read_only).encode(&mut enc);
        self.delete_kinds.encode(&mut enc);
        self.delete_ranges.encode(&mut enc);
        enc.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let volume_id = VolumeId::decode(&mut dec)?;
        let members = Vec::<NodeId>::decode(&mut dec)?;
        let small_extent_rotate_at = u64::decode(&mut dec)?;
        let extent_limit = u64::decode(&mut dec)?;
        let read_only = u64::decode(&mut dec)? != 0;
        let delete_kinds = Vec::<(u64, u64)>::decode(&mut dec)?;
        let delete_ranges = Vec::<(u64, u64)>::decode(&mut dec)?;
        Ok(ReplicaMeta {
            volume_id,
            members,
            small_extent_rotate_at,
            extent_limit,
            read_only,
            delete_kinds,
            delete_ranges,
        })
    }
}

/// A queued asynchronous deletion (§2.7.3): either a whole extent (large
/// file) or a punched range (small file, or a truncated tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteTask {
    Extent(ExtentId),
    Punch {
        extent: ExtentId,
        offset: u64,
        len: u64,
    },
}

/// Utilization and status counters reported to the resource manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    pub partition_id: PartitionId,
    pub volume_id: VolumeId,
    pub store: StoreStats,
    pub read_only: bool,
    pub is_full: bool,
    pub pending_deletes: usize,
}

/// One replica's state for one data partition: the extent store plus the
/// replication bookkeeping.
#[derive(Debug)]
pub struct DataPartitionReplica {
    partition_id: PartitionId,
    volume_id: VolumeId,
    /// Replica order: index 0 is the primary-backup leader (§2.7.1).
    members: Vec<NodeId>,
    /// Extents and every per-extent fact, including the committed offset:
    /// the largest offset acked by *all* replicas (maintained at the PB
    /// leader; followers hold 0 and track their own applied size).
    store: ExtentStore,
    /// Set by the resource manager when a replica times out (§2.3.3).
    read_only: bool,
    delete_queue: Vec<DeleteTask>,
    small_extent_rotate_at: u64,
    extent_limit: u64,
    /// The replica's meta row and its extents' index rows are written
    /// through to this engine after every mutation.
    engine: Arc<LsmEngine>,
}

impl DataPartitionReplica {
    /// Fresh replica whose meta row and extent index are written through
    /// to `engine`, and whose extent bytes go to files under the engine's
    /// directory (both namespaced by partition id), so it survives power
    /// loss.
    pub fn new_persistent(
        partition_id: PartitionId,
        volume_id: VolumeId,
        members: Vec<NodeId>,
        small_extent_rotate_at: u64,
        extent_limit: u64,
        engine: Arc<LsmEngine>,
    ) -> Result<Self> {
        let persist = Arc::new(StorePersist::new(engine.clone(), partition_id.raw()));
        let store = ExtentStore::new_persistent(small_extent_rotate_at, extent_limit, persist)?;
        let replica = DataPartitionReplica {
            partition_id,
            volume_id,
            members,
            store,
            read_only: false,
            delete_queue: Vec::new(),
            small_extent_rotate_at,
            extent_limit,
            engine,
        };
        replica.persist_meta()?;
        Ok(replica)
    }

    /// Rebuild a replica from its engine-persisted state alone: the meta
    /// row restores membership/flags/queue, the store's index rows and
    /// extent files restore every extent's bytes and offsets.
    pub fn restore(partition_id: PartitionId, engine: Arc<LsmEngine>) -> Result<Self> {
        let bytes = engine
            .get::<ReplicaCf>(&partition_id.raw())?
            .ok_or_else(|| CfsError::NotFound(format!("replica row for {partition_id}")))?;
        let meta = ReplicaMeta::from_bytes(&bytes)?;
        let persist = Arc::new(StorePersist::new(engine.clone(), partition_id.raw()));
        let store = ExtentStore::restore(meta.small_extent_rotate_at, meta.extent_limit, persist)?;
        let delete_queue = meta
            .delete_kinds
            .iter()
            .zip(meta.delete_ranges.iter())
            .map(|(&(kind, extent), &(offset, len))| {
                if kind == 0 {
                    DeleteTask::Extent(ExtentId(extent))
                } else {
                    DeleteTask::Punch {
                        extent: ExtentId(extent),
                        offset,
                        len,
                    }
                }
            })
            .collect();
        Ok(DataPartitionReplica {
            partition_id,
            volume_id: meta.volume_id,
            members: meta.members,
            store,
            read_only: meta.read_only,
            delete_queue,
            small_extent_rotate_at: meta.small_extent_rotate_at,
            extent_limit: meta.extent_limit,
            engine,
        })
    }

    /// Write the meta row through to the engine. Extents, and everything
    /// known per extent, are persisted by the store itself.
    fn persist_meta(&self) -> Result<()> {
        let mut delete_kinds = Vec::with_capacity(self.delete_queue.len());
        let mut delete_ranges = Vec::with_capacity(self.delete_queue.len());
        for t in &self.delete_queue {
            match t {
                DeleteTask::Extent(e) => {
                    delete_kinds.push((0, e.raw()));
                    delete_ranges.push((0, 0));
                }
                DeleteTask::Punch {
                    extent,
                    offset,
                    len,
                } => {
                    delete_kinds.push((1, extent.raw()));
                    delete_ranges.push((*offset, *len));
                }
            }
        }
        let meta = ReplicaMeta {
            volume_id: self.volume_id,
            members: self.members.clone(),
            small_extent_rotate_at: self.small_extent_rotate_at,
            extent_limit: self.extent_limit,
            read_only: self.read_only,
            delete_kinds,
            delete_ranges,
        };
        self.engine
            .put::<ReplicaCf>(&self.partition_id.raw(), &meta.to_bytes())
    }

    /// Attach byte-accounting metrics to the underlying extent store
    /// (shared with the node's other partitions).
    pub fn set_store_metrics(&mut self, metrics: cfs_store::StoreMetrics) {
        self.store.set_metrics(metrics);
    }

    /// Replica order (index 0 = PB leader).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Replace the replica array (repair membership change, §2.3.3).
    pub fn set_members(&mut self, members: Vec<NodeId>) -> Result<()> {
        self.members = members;
        self.persist_meta()
    }

    /// The primary-backup leader.
    pub fn pb_leader(&self) -> NodeId {
        self.members[0]
    }

    /// Mark/unmark read-only (§2.3.3 exception handling).
    pub fn set_read_only(&mut self, ro: bool) -> Result<()> {
        self.read_only = ro;
        self.persist_meta()
    }

    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn check_writable(&self) -> Result<()> {
        if self.read_only {
            return Err(CfsError::ReadOnly(self.partition_id));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write paths (invoked by the node's replication machinery)
    // ------------------------------------------------------------------

    /// Create an extent with a leader-chosen id (replicated op).
    pub fn create_extent(&mut self, id: ExtentId) -> Result<()> {
        self.check_writable()?;
        self.store.create_extent_with_id(id)
    }

    /// Allocate a fresh extent id (leader side).
    pub fn allocate_extent(&mut self) -> Result<ExtentId> {
        self.check_writable()?;
        let id = self.store.create_extent()?;
        Ok(id)
    }

    /// Apply an append of a packet its sender summed to `crc`; returns the
    /// new local watermark. The store checks the packet in the same pass
    /// that folds it into the extent's CRC, so a corrupt packet is
    /// `Corrupt` before any byte lands. Auto-creates the extent on
    /// followers (the leader allocated it).
    pub fn apply_append(
        &mut self,
        extent: ExtentId,
        offset: u64,
        data: &[u8],
        crc: u32,
    ) -> Result<u64> {
        self.check_writable()?;
        if !self.store.has_extent(extent) {
            self.store.create_extent_with_id(extent)?;
        }
        self.store.append_checked(extent, offset, data, crc)
    }

    /// Apply an in-place overwrite (Raft apply path).
    pub fn apply_overwrite(&mut self, extent: ExtentId, offset: u64, data: &[u8]) -> Result<()> {
        // Overwrites are allowed on read-only partitions? No: read-only
        // means "no new data"; the paper allows modification of existing
        // data ("it can still be modified or deleted", §2.3.1) — that
        // refers to capacity-full, while timeout-read-only blocks writes.
        // We enforce the stricter interpretation only for appends/creates
        // and allow in-place modification.
        self.store.overwrite(extent, offset, data)
    }

    /// Write a batch of small files into the shared extent(s) (leader
    /// side): one aggregated store append per extent segment, returning
    /// where each record landed in order so followers can replay
    /// deterministically, and each segment's CRC to forward with it.
    pub fn write_small_batch(
        &mut self,
        records: &[&[u8]],
    ) -> Result<(Vec<SmallFileLocation>, Vec<u32>)> {
        self.check_writable()?;
        self.store.write_small_batch(records)
    }

    /// Advance the committed watermark for an extent (PB leader, after the
    /// whole chain acked): one fixed-size extent row.
    pub fn commit(&mut self, extent: ExtentId, upto: u64) -> Result<()> {
        self.store.commit(extent, upto)
    }

    /// The committed watermark of an extent (0 if never committed).
    pub fn committed(&self, extent: ExtentId) -> u64 {
        self.store.committed(extent)
    }

    /// Local (applied) size of an extent.
    pub fn extent_size(&self, extent: ExtentId) -> Result<u64> {
        self.store.extent_size(extent)
    }

    /// Extent CRC (cached).
    pub fn extent_crc(&mut self, extent: ExtentId) -> Result<u32> {
        self.store.extent_crc(extent)
    }

    /// Read committed bytes only: the range is clamped to the committed
    /// watermark so a stale tail is never returned (§2.2.5). On followers
    /// (who don't track chain acks) the caller uses the meta-recorded size;
    /// here `enforce_committed` distinguishes the two.
    pub fn read(
        &self,
        extent: ExtentId,
        offset: u64,
        len: usize,
        enforce_committed: bool,
    ) -> Result<Vec<u8>> {
        if enforce_committed {
            self.store.read_committed(extent, offset, len)
        } else {
            self.store.read(extent, offset, len)
        }
    }

    /// Truncate an extent (recovery alignment); the store clamps the
    /// committed watermark with it.
    pub fn truncate(&mut self, extent: ExtentId, size: u64) -> Result<()> {
        self.store.truncate_extent(extent, size)
    }

    // ------------------------------------------------------------------
    // Asynchronous deletion (§2.7.3)
    // ------------------------------------------------------------------

    /// Queue deletions; the queue row is written once for all of them.
    pub fn queue_deletes(&mut self, tasks: &[DeleteTask]) -> Result<()> {
        self.delete_queue.extend_from_slice(tasks);
        self.persist_meta()
    }

    /// Process every queued deletion; returns how many tasks were drained.
    /// Punches are sorted by `(extent, offset)` and ranges that touch go
    /// out as one punch-hole call (their lengths still sum to the bytes
    /// punched); punches of an extent this drain deletes whole are
    /// dropped. Errors are swallowed (a later fsck/scrub pass handles
    /// them) so one bad task can't wedge the queue: a merged punch that
    /// fails is retried range by range. Failing to persist the drained
    /// queue is reported.
    pub fn process_delete_queue(&mut self) -> Result<usize> {
        let tasks = std::mem::take(&mut self.delete_queue);
        let n = tasks.len();
        let mut whole = Vec::new();
        let mut punches = Vec::new();
        for t in tasks {
            match t {
                DeleteTask::Extent(e) => whole.push(e),
                DeleteTask::Punch {
                    extent,
                    offset,
                    len,
                } => punches.push(SmallFileLocation {
                    extent_id: extent,
                    offset,
                    len,
                }),
            }
        }
        whole.sort_unstable();
        whole.dedup();
        punches.retain(|p| whole.binary_search(&p.extent_id).is_err());
        punches.sort_unstable_by_key(|p| (p.extent_id, p.offset));
        let mut i = 0;
        while i < punches.len() {
            let mut merged = punches[i];
            let mut j = i + 1;
            while punches.get(j).is_some_and(|p| {
                p.extent_id == merged.extent_id && p.offset == merged.offset + merged.len
            }) {
                merged.len += punches[j].len;
                j += 1;
            }
            if self.store.delete_small_file(merged).is_err() && j - i > 1 {
                for &p in &punches[i..j] {
                    let _ = self.store.delete_small_file(p);
                }
            }
            i = j;
        }
        for e in whole {
            let _ = self.store.delete_extent(e);
        }
        self.persist_meta()?;
        Ok(n)
    }

    /// Pending deletion count.
    pub fn pending_deletes(&self) -> usize {
        self.delete_queue.len()
    }

    /// Utilization snapshot for the resource manager.
    pub fn stats(&self) -> PartitionStats {
        PartitionStats {
            partition_id: self.partition_id,
            volume_id: self.volume_id,
            store: self.store.stats(),
            read_only: self.read_only,
            is_full: self.store.is_full(),
            pending_deletes: self.delete_queue.len(),
        }
    }

    /// All extent ids (recovery enumeration).
    pub fn extent_ids(&self) -> Vec<ExtentId> {
        self.store.extent_ids()
    }

    /// Does the extent exist locally?
    pub fn has_extent(&self, extent: ExtentId) -> bool {
        self.store.has_extent(extent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_kvwal::LsmOptions;
    use cfs_types::crc::crc32;
    use cfs_types::testutil::TempDir;

    fn open_engine(dir: &TempDir) -> Arc<LsmEngine> {
        Arc::new(LsmEngine::open(dir.path(), LsmOptions::default()).unwrap())
    }

    /// A fresh replica on its own directory (kept alive beside it).
    fn replica() -> (DataPartitionReplica, TempDir) {
        let dir = TempDir::new("replica").unwrap();
        let r = DataPartitionReplica::new_persistent(
            PartitionId(1),
            VolumeId(1),
            vec![NodeId(1), NodeId(2), NodeId(3)],
            1 << 20,
            0,
            open_engine(&dir),
        )
        .unwrap();
        (r, dir)
    }

    fn punch(loc: SmallFileLocation) -> DeleteTask {
        DeleteTask::Punch {
            extent: loc.extent_id,
            offset: loc.offset,
            len: loc.len,
        }
    }

    /// Apply an append the way a chain hop does, with the packet's CRC.
    fn append(r: &mut DataPartitionReplica, e: ExtentId, offset: u64, data: &[u8]) -> Result<u64> {
        r.apply_append(e, offset, data, crc32(data))
    }

    #[test]
    fn committed_watermark_gates_reads() {
        let (mut r, _dir) = replica();
        let e = r.allocate_extent().unwrap();
        append(&mut r, e, 0, &[1u8; 100]).unwrap();
        // Nothing committed yet: leader-enforced read fails.
        assert!(r.read(e, 0, 10, true).is_err());
        // Uncommitted (stale-tail-tolerant) read sees the bytes.
        assert_eq!(r.read(e, 0, 10, false).unwrap(), [1u8; 100][..10]);

        r.commit(e, 60).unwrap();
        assert_eq!(r.read(e, 0, 100, true).unwrap().len(), 60, "clamped");
        assert!(r.read(e, 60, 1, true).is_err(), "at watermark");
        assert_eq!(r.committed(e), 60);
        // Watermark never regresses.
        r.commit(e, 50).unwrap();
        assert_eq!(r.committed(e), 60);
    }

    #[test]
    fn read_only_blocks_new_data_not_modification() {
        let (mut r, _dir) = replica();
        let e = r.allocate_extent().unwrap();
        append(&mut r, e, 0, &[7u8; 64]).unwrap();
        r.set_read_only(true).unwrap();
        assert!(r.is_read_only());
        assert!(r.allocate_extent().is_err());
        assert!(append(&mut r, e, 64, b"more").is_err());
        assert!(r.write_small_batch(&[b"x"]).is_err());
        // In-place modification and deletion still possible (§2.3.1).
        r.apply_overwrite(e, 0, b"mod").unwrap();
        r.queue_deletes(&[DeleteTask::Extent(e)]).unwrap();
        assert_eq!(r.process_delete_queue().unwrap(), 1);
    }

    #[test]
    fn follower_auto_creates_extent_on_append() {
        let (mut f, _dir) = replica();
        // Leader allocated extent 5; the follower sees the first append.
        append(&mut f, ExtentId(5), 0, b"replicated").unwrap();
        assert!(f.has_extent(ExtentId(5)));
        assert_eq!(f.extent_size(ExtentId(5)).unwrap(), 10);
    }

    #[test]
    fn truncate_clamps_committed() {
        let (mut r, _dir) = replica();
        let e = r.allocate_extent().unwrap();
        append(&mut r, e, 0, &[2u8; 1000]).unwrap();
        r.commit(e, 1000).unwrap();
        r.truncate(e, 400).unwrap();
        assert_eq!(r.committed(e), 400);
        assert_eq!(r.extent_size(e).unwrap(), 400);
    }

    #[test]
    fn delete_queue_is_asynchronous() {
        let (mut r, _dir) = replica();
        let loc = r.write_small_batch(&[&[3u8; 8192]]).unwrap().0[0];
        let before = r.stats().store.physical_bytes;
        r.queue_deletes(&[punch(loc)]).unwrap();
        assert_eq!(r.pending_deletes(), 1);
        // Space not reclaimed until the background pass runs.
        assert_eq!(r.stats().store.physical_bytes, before);
        assert_eq!(r.process_delete_queue().unwrap(), 1);
        assert!(r.stats().store.physical_bytes < before);
        assert_eq!(r.pending_deletes(), 0);
    }

    #[test]
    fn bad_delete_task_does_not_wedge_queue() {
        let (mut r, _dir) = replica();
        r.queue_deletes(&[DeleteTask::Extent(ExtentId(999))])
            .unwrap(); // nonexistent
        let loc = r.write_small_batch(&[&[1u8; 4096]]).unwrap().0[0];
        r.queue_deletes(&[punch(loc)]).unwrap();
        assert_eq!(r.process_delete_queue().unwrap(), 2);
        assert_eq!(r.stats().store.punched_bytes, 4096);
    }

    /// A drain punches touching ranges in one call and skips punches of an
    /// extent it deletes whole; the bytes punched are what they were one
    /// punch per file, and a bad range does not take its neighbours down.
    #[test]
    fn drain_merges_touching_punches() {
        let registry = cfs_obs::Registry::new();
        let (mut r, _dir) = replica();
        r.set_store_metrics(cfs_store::StoreMetrics::bind(&registry));
        let records: Vec<Vec<u8>> = (1..=6u8).map(|i| vec![i; 1000 * i as usize]).collect();
        let slices: Vec<&[u8]> = records.iter().map(|v| &v[..]).collect();
        let locs = r.write_small_batch(&slices).unwrap().0;
        assert!(locs.iter().all(|l| l.extent_id == locs[0].extent_id));
        let big = r.allocate_extent().unwrap();
        append(&mut r, big, 0, &[9u8; 8192]).unwrap();
        // Files 0, 1, 2 and 4, 5 touch; 3 stays; queued out of order, plus
        // a tail punch of an extent deleted whole in the same drain.
        let tasks = [
            punch(locs[5]),
            punch(locs[1]),
            DeleteTask::Punch {
                extent: big,
                offset: 4096,
                len: 4096,
            },
            punch(locs[0]),
            punch(locs[4]),
            punch(locs[2]),
            DeleteTask::Extent(big),
        ];
        r.queue_deletes(&tasks).unwrap();
        assert_eq!(r.process_delete_queue().unwrap(), tasks.len());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store.punches"), 2, "two touching runs");
        let punched: u64 = [0, 1, 2, 4, 5].iter().map(|&i| locs[i].len).sum();
        assert_eq!(snap.counter("store.bytes_punched"), punched);
        assert!(!r.has_extent(big));
        assert_eq!(
            r.read(locs[3].extent_id, locs[3].offset, 4000, false)
                .unwrap(),
            vec![4u8; 4000]
        );
        assert!(r
            .read(locs[0].extent_id, locs[0].offset, 6000, false)
            .unwrap()
            .iter()
            .all(|&b| b == 0));

        // A range past the watermark fails alone: its touching neighbour
        // is still punched.
        let loc = r.write_small_batch(&[&[7u8; 512]]).unwrap().0[0];
        let past = DeleteTask::Punch {
            extent: loc.extent_id,
            offset: loc.offset + loc.len,
            len: 1 << 20,
        };
        r.queue_deletes(&[punch(loc), past]).unwrap();
        assert_eq!(r.process_delete_queue().unwrap(), 2);
        assert_eq!(
            registry.snapshot().counter("store.bytes_punched"),
            punched + 512
        );
    }

    #[test]
    fn persistent_replica_restores_from_engine_alone() {
        let dir = TempDir::new("replica").unwrap();
        let pid = PartitionId(42);
        let (extent, loc) = {
            let mut r = DataPartitionReplica::new_persistent(
                pid,
                VolumeId(7),
                vec![NodeId(1), NodeId(2)],
                1 << 20,
                0,
                open_engine(&dir),
            )
            .unwrap();
            let e = r.allocate_extent().unwrap();
            append(&mut r, e, 0, &[9u8; 300]).unwrap();
            r.commit(e, 300).unwrap();
            let loc = r.write_small_batch(&[&[5u8; 4096]]).unwrap().0[0];
            r.queue_deletes(&[punch(loc), DeleteTask::Extent(ExtentId(999))])
                .unwrap();
            r.set_read_only(true).unwrap();
            (e, loc)
        };
        // Reopen the engine from disk and rebuild the replica from it alone.
        let mut r = DataPartitionReplica::restore(pid, open_engine(&dir)).unwrap();
        assert_eq!(r.members(), &[NodeId(1), NodeId(2)]);
        assert!(r.is_read_only());
        assert_eq!(r.committed(extent), 300, "from the extent's own row");
        assert_eq!(r.committed(loc.extent_id), 0, "never committed");
        assert_eq!(r.read(extent, 0, 300, true).unwrap(), vec![9u8; 300]);
        assert_eq!(
            r.read(loc.extent_id, loc.offset, loc.len as usize, false)
                .unwrap(),
            vec![5u8; 4096]
        );
        assert_eq!(r.pending_deletes(), 2, "delete queue survives restart");
        assert_eq!(r.process_delete_queue().unwrap(), 2);
        assert!(r.stats().store.punched_bytes >= 4096);

        // A truncate below the watermark persists the clamp, and a deleted
        // extent leaves no watermark behind for a reused id to inherit.
        r.truncate(extent, 120).unwrap();
        r.commit(loc.extent_id, 4096).unwrap();
        r.queue_deletes(&[DeleteTask::Extent(loc.extent_id)])
            .unwrap();
        assert_eq!(r.process_delete_queue().unwrap(), 1);
        drop(r);
        let mut r = DataPartitionReplica::restore(pid, open_engine(&dir)).unwrap();
        assert_eq!(r.committed(extent), 120);
        assert_eq!(r.extent_size(extent).unwrap(), 120);
        assert!(!r.has_extent(loc.extent_id));
        assert_eq!(r.committed(loc.extent_id), 0);
        r.set_read_only(false).unwrap();
        r.create_extent(loc.extent_id).unwrap();
        assert_eq!(r.committed(loc.extent_id), 0, "recreated, not inherited");
    }

    /// The partition row holds nothing per extent: its length is the same
    /// with 1 and with 64 committed extents, and committing never rewrites
    /// it.
    #[test]
    fn replica_row_does_not_grow_with_extents_or_commits() {
        let (mut r, _dir) = replica();
        let row = |r: &DataPartitionReplica| {
            let bytes = r.engine.get::<ReplicaCf>(&r.partition_id.raw());
            bytes.unwrap().expect("replica row")
        };
        let mut extents = Vec::new();
        let mut len_with_one = 0;
        for _ in 0..64 {
            let e = r.allocate_extent().unwrap();
            append(&mut r, e, 0, &[1u8; 16]).unwrap();
            r.commit(e, 8).unwrap();
            extents.push(e);
            // Rewrite the row, as any membership/flag/queue change does.
            r.set_read_only(false).unwrap();
            if extents.len() == 1 {
                len_with_one = row(&r).len();
            }
        }
        assert_eq!(row(&r).len(), len_with_one, "64 committed extents");
        // A sentinel put behind the replica's back survives 64 commits.
        r.engine
            .put::<ReplicaCf>(&r.partition_id.raw(), &b"sentinel".to_vec())
            .unwrap();
        for &e in &extents {
            r.commit(e, 16).unwrap();
            assert_eq!(r.committed(e), 16);
        }
        assert_eq!(row(&r), b"sentinel", "commit does not touch the row");
    }

    #[test]
    fn stats_reflect_state() {
        let (mut r, _dir) = replica();
        let e = r.allocate_extent().unwrap();
        append(&mut r, e, 0, &[1u8; 5000]).unwrap();
        let s = r.stats();
        assert_eq!(s.partition_id, PartitionId(1));
        assert_eq!(s.store.extent_count, 1);
        assert_eq!(s.store.logical_bytes, 5000);
        assert!(!s.read_only && !s.is_full);
    }
}
