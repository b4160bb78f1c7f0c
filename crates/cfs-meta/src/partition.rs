//! One meta partition: the replicated state machine.

use cfs_btree::BTree;
use cfs_types::codec::{Decode, Decoder, Encode, Encoder};
use cfs_types::{
    CfsError, Dentry, ExtentKey, FileType, Inode, InodeId, PartitionId, Result, VolumeId,
};

/// Static configuration of a partition: which volume it belongs to and
/// which inode-id range it owns. `end == InodeId::MAX` means "unbounded"
/// (the newest partition of a volume, per Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPartitionConfig {
    pub partition_id: PartitionId,
    pub volume_id: VolumeId,
    pub start: InodeId,
    pub end: InodeId,
}

impl Encode for MetaPartitionConfig {
    fn encode(&self, enc: &mut Encoder) {
        self.partition_id.encode(enc);
        self.volume_id.encode(enc);
        self.start.encode(enc);
        self.end.encode(enc);
    }
}

impl Decode for MetaPartitionConfig {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MetaPartitionConfig {
            partition_id: PartitionId::decode(dec)?,
            volume_id: VolumeId::decode(dec)?,
            start: InodeId::decode(dec)?,
            end: InodeId::decode(dec)?,
        })
    }
}

/// The in-memory metadata store of one partition (§2.1.1).
///
/// All mutation methods are deterministic in their arguments (timestamps
/// come from the client inside the command), which is what lets Raft keep
/// replicas byte-identical.
#[derive(Debug, Clone)]
pub struct MetaPartition {
    config: MetaPartitionConfig,
    inode_tree: BTree<InodeId, Inode>,
    dentry_tree: BTree<(InodeId, String), Dentry>,
    /// Largest inode id allocated so far (`maxInodeID` in Algorithm 1).
    max_inode: InodeId,
}

impl MetaPartition {
    /// Empty partition owning `config`'s inode range.
    pub fn new(config: MetaPartitionConfig) -> Self {
        let max_inode = InodeId(config.start.raw().saturating_sub(1));
        MetaPartition {
            config,
            inode_tree: BTree::new(),
            dentry_tree: BTree::new(),
            max_inode,
        }
    }

    /// Partition configuration.
    pub fn config(&self) -> &MetaPartitionConfig {
        &self.config
    }

    /// Largest inode id allocated so far.
    pub fn max_inode(&self) -> InodeId {
        self.max_inode
    }

    /// Total items (inodes + dentries) — the split/capacity metric
    /// (§2.3.1) and the memory-utilization signal for placement.
    pub fn item_count(&self) -> u64 {
        (self.inode_tree.len() + self.dentry_tree.len()) as u64
    }

    // ------------------------------------------------------------------
    // Inode operations
    // ------------------------------------------------------------------

    /// Allocate and insert a fresh inode at `maxInodeID + 1` (never below
    /// the range start) and advance `maxInodeID`. Ids are never reused
    /// within a partition, which is what lets an intent's pinned id tell
    /// its own inode from a later one (`intent_effect_present`).
    pub fn create_inode(
        &mut self,
        file_type: FileType,
        link_target: &[u8],
        now_ns: u64,
    ) -> Result<Inode> {
        let next = InodeId(self.max_inode.raw().max(self.config.start.raw() - 1) + 1);
        if next > self.config.end {
            return Err(CfsError::PartitionFull(self.config.partition_id));
        }
        let inode = if file_type == FileType::Symlink {
            Inode::new_symlink(next, link_target, now_ns)
        } else {
            Inode::new(next, file_type, now_ns)
        };
        self.inode_tree.insert(next, inode.clone());
        self.max_inode = next;
        Ok(inode)
    }

    /// Insert a fresh inode at a *pinned* id (asynchronous-commit path,
    /// §2.6 + DESIGN §12). The id was allocated speculatively on the
    /// leader's overlay when the op was acked; replaying the pinned command
    /// is what keeps the replicated apply deterministic no matter what
    /// else committed in between. Advances `maxInodeID` past the pin so
    /// later fresh allocations never collide.
    pub fn create_inode_at(
        &mut self,
        id: InodeId,
        file_type: FileType,
        link_target: &[u8],
        now_ns: u64,
    ) -> Result<Inode> {
        if id > self.config.end {
            return Err(CfsError::PartitionFull(self.config.partition_id));
        }
        if self.inode_tree.contains_key(&id) {
            return Err(CfsError::Exists(format!("{id}")));
        }
        let inode = if file_type == FileType::Symlink {
            Inode::new_symlink(id, link_target, now_ns)
        } else {
            Inode::new(id, file_type, now_ns)
        };
        self.inode_tree.insert(id, inode.clone());
        self.max_inode = self.max_inode.max(id);
        Ok(inode)
    }

    /// Look up an inode.
    pub fn get_inode(&self, id: InodeId) -> Result<Inode> {
        self.inode_tree
            .get(&id)
            .cloned()
            .ok_or_else(|| CfsError::NotFound(format!("{id}")))
    }

    /// Batched inode fetch: the paper's `batchInodeGet`, which replaces
    /// Ceph's per-inode `inodeGet` storm after `readdir` (§4.2). Missing
    /// ids are skipped, matching readdir-then-stat semantics.
    pub fn batch_get_inodes(&self, ids: &[InodeId]) -> Vec<Inode> {
        ids.iter()
            .filter_map(|id| self.inode_tree.get(id).cloned())
            .collect()
    }

    /// Increment nlink (first half of the link workflow, §2.6.2).
    pub fn inode_link(&mut self, id: InodeId) -> Result<Inode> {
        let mut ino = self.get_inode(id)?;
        ino.nlink += 1;
        self.inode_tree.insert(id, ino.clone());
        Ok(ino)
    }

    /// Decrement nlink (unlink workflow §2.6.3, or link-failure rollback
    /// §2.6.2). Never underflows. At the type's threshold — 0 for files
    /// and symlinks, below 2 for directories — the same apply marks the
    /// inode deleted, so no crash can leave an unlinked inode unmarked; a
    /// background pass reclaims it and its data later (§2.7.3).
    pub fn inode_unlink(&mut self, id: InodeId, now_ns: u64) -> Result<Inode> {
        let mut ino = self.get_inode(id)?;
        ino.nlink = ino.nlink.saturating_sub(1);
        ino.mtime_ns = now_ns;
        if ino.nlink == 0 || ino.nlink < ino.file_type.unlink_threshold() {
            ino.flag.set_mark_deleted();
        }
        self.inode_tree.insert(id, ino.clone());
        Ok(ino)
    }

    /// Evict an inode: remove it from the tree. Returns the evicted inode;
    /// its extent list tells the caller what data to delete, so nothing of
    /// it stays behind here.
    pub fn evict_inode(&mut self, id: InodeId) -> Result<Inode> {
        self.inode_tree
            .remove(&id)
            .ok_or_else(|| CfsError::NotFound(format!("{id}")))
    }

    /// Conditional eviction (compensation fixup): evict `id` only if it is
    /// the inode a dead async intent created — same creation stamp, still
    /// unreferenced. A mismatch means the id was legitimately reallocated
    /// (or the file was linked up after all), and the fixup must not touch
    /// it; returns `None` payload in that case so replays are idempotent.
    /// "Unreferenced" is relative to the file type's birth count — a fresh
    /// directory starts at nlink 2, so a flat `<= 1` guard would strand
    /// every orphan directory forever.
    pub fn evict_if(&mut self, id: InodeId, ctime_ns: u64) -> Result<Option<Inode>> {
        match self.inode_tree.get(&id) {
            Some(ino) if ino.ctime_ns == ctime_ns && ino.nlink <= ino.file_type.initial_nlink() => {
                Ok(Some(self.evict_inode(id)?))
            }
            _ => Ok(None),
        }
    }

    /// Record where newly written file bytes landed and the new size
    /// (client metadata sync after a successful write, §2.4).
    pub fn append_extents(
        &mut self,
        id: InodeId,
        extents: &[ExtentKey],
        new_size: u64,
        now_ns: u64,
    ) -> Result<Inode> {
        let mut ino = self.get_inode(id)?;
        if ino.is_dir() {
            return Err(CfsError::IsADirectory(id));
        }
        ino.extents.extend_from_slice(extents);
        ino.size = ino.size.max(new_size);
        // Every sync moves the mtime, even with another mount's clock
        // behind this inode's: that is how an `open` elsewhere sees the
        // file changed.
        ino.mtime_ns = now_ns.max(ino.mtime_ns + 1);
        self.inode_tree.insert(id, ino.clone());
        Ok(ino)
    }

    /// Truncate a file to `size`, returning the bytes cut off, as extent
    /// keys, for data-subsystem cleanup: every key wholly beyond the new
    /// size, and the tail of a key the cut falls inside (starting at the
    /// cut, its `extent_offset` advanced by as much). Bumps the generation
    /// so stale client caches are detectable.
    pub fn truncate(&mut self, id: InodeId, size: u64, now_ns: u64) -> Result<Vec<ExtentKey>> {
        let mut ino = self.get_inode(id)?;
        if ino.is_dir() {
            return Err(CfsError::IsADirectory(id));
        }
        let mut removed = Vec::new();
        let mut kept = Vec::new();
        for k in ino.extents.drain(..) {
            if k.file_offset >= size {
                removed.push(k);
            } else {
                let mut k = k;
                // Partially truncated piece: clamp its length and hand
                // back the tail.
                if k.file_offset + k.size > size {
                    let head = size - k.file_offset;
                    removed.push(ExtentKey {
                        file_offset: size,
                        extent_offset: k.extent_offset + head,
                        size: k.size - head,
                        ..k
                    });
                    k.size = head;
                }
                kept.push(k);
            }
        }
        ino.extents = kept;
        ino.size = size;
        ino.mtime_ns = now_ns;
        ino.generation += 1;
        self.inode_tree.insert(id, ino);
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Dentry operations
    // ------------------------------------------------------------------

    /// Insert a dentry; fails if `(parent, name)` exists.
    pub fn create_dentry(
        &mut self,
        parent: InodeId,
        name: &str,
        inode: InodeId,
        file_type: FileType,
    ) -> Result<Dentry> {
        let key = (parent, name.to_string());
        if self.dentry_tree.contains_key(&key) {
            return Err(CfsError::Exists(format!("{parent}/{name}")));
        }
        let d = Dentry {
            parent_id: parent,
            name: name.to_string(),
            inode,
            file_type,
        };
        self.dentry_tree.insert(key, d.clone());
        Ok(d)
    }

    /// Look up one dentry.
    pub fn get_dentry(&self, parent: InodeId, name: &str) -> Result<Dentry> {
        self.dentry_tree
            .get(&(parent, name.to_string()))
            .cloned()
            .ok_or_else(|| CfsError::NotFound(format!("{parent}/{name}")))
    }

    /// Remove a dentry, returning it (unlink workflow step 1, §2.6.3).
    pub fn delete_dentry(&mut self, parent: InodeId, name: &str) -> Result<Dentry> {
        self.dentry_tree
            .remove(&(parent, name.to_string()))
            .ok_or_else(|| CfsError::NotFound(format!("{parent}/{name}")))
    }

    /// Conditional dentry removal (compensation fixup): remove
    /// `(parent, name)` only while it still points at `inode`. Absent, or
    /// re-pointed by a later create of the same name, means there is
    /// nothing left to compensate — returns `None` payload, so replaying
    /// the fixup is idempotent and can never undo an unrelated op.
    pub fn remove_dentry_if(
        &mut self,
        parent: InodeId,
        name: &str,
        inode: InodeId,
    ) -> Result<Option<Dentry>> {
        let key = (parent, name.to_string());
        match self.dentry_tree.get(&key) {
            Some(d) if d.inode == inode => Ok(self.dentry_tree.remove(&key)),
            _ => Ok(None),
        }
    }

    /// All dentries under `parent`, name-ordered (`readdir`). A prefix
    /// range scan of the dentry tree — no per-entry lookups.
    pub fn readdir(&self, parent: InodeId) -> Vec<Dentry> {
        let lo = (parent, String::new());
        let hi = (InodeId(parent.raw() + 1), String::new());
        self.dentry_tree
            .range(lo..hi)
            .map(|(_, d)| d.clone())
            .collect()
    }

    /// Number of dentries under `parent` (rmdir emptiness check).
    pub fn dir_entry_count(&self, parent: InodeId) -> usize {
        let lo = (parent, String::new());
        let hi = (InodeId(parent.raw() + 1), String::new());
        self.dentry_tree.range(lo..hi).count()
    }

    /// Every inode in the partition (fsck enumeration).
    pub fn all_inodes(&self) -> Vec<Inode> {
        self.inode_tree.iter().map(|(_, v)| v.clone()).collect()
    }

    /// Every dentry in the partition (fsck enumeration).
    pub fn all_dentries(&self) -> Vec<Dentry> {
        self.dentry_tree.iter().map(|(_, v)| v.clone()).collect()
    }

    // ------------------------------------------------------------------
    // Splitting & snapshots
    // ------------------------------------------------------------------

    /// Cut the inode range at `end` (Algorithm 1 step on the original
    /// partition): after this no inode above `end` is ever allocated here.
    pub fn update_end(&mut self, end: InodeId) -> Result<()> {
        if end < self.max_inode {
            return Err(CfsError::InvalidArgument(format!(
                "cannot cut range at {end}: maxInodeID is {}",
                self.max_inode
            )));
        }
        self.config.end = end;
        Ok(())
    }

    /// Serialize the whole partition (Raft snapshot, §2.1.3).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.config.encode(&mut enc);
        self.max_inode.encode(&mut enc);
        let inodes: Vec<Inode> = self.inode_tree.iter().map(|(_, v)| v.clone()).collect();
        inodes.encode(&mut enc);
        let dentries: Vec<Dentry> = self.dentry_tree.iter().map(|(_, v)| v.clone()).collect();
        dentries.encode(&mut enc);
        enc.finish()
    }

    /// Rebuild `partition` from a snapshot. Every failure names the
    /// partition, so a chaos-repro log pinpoints which replica's image was
    /// bad; a snapshot whose embedded config disagrees with the expected
    /// id is rejected as corrupt too.
    pub fn from_snapshot(partition: PartitionId, data: &[u8]) -> Result<Self> {
        let p = Self::decode_snapshot(data)
            .map_err(|e| CfsError::Corrupt(format!("{partition} snapshot: {e}")))?;
        if p.config.partition_id != partition {
            return Err(CfsError::Corrupt(format!(
                "{partition} snapshot: carries id {}",
                p.config.partition_id
            )));
        }
        Ok(p)
    }

    fn decode_snapshot(data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        let config = MetaPartitionConfig::decode(&mut dec)?;
        let max_inode = InodeId::decode(&mut dec)?;
        let inodes = Vec::<Inode>::decode(&mut dec)?;
        let dentries = Vec::<Dentry>::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(CfsError::Corrupt("trailing bytes".into()));
        }
        let mut p = MetaPartition::new(config);
        p.max_inode = max_inode;
        for ino in inodes {
            p.inode_tree.insert(ino.id, ino);
        }
        for d in dentries {
            p.dentry_tree.insert((d.parent_id, d.name.clone()), d);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(start: u64, end: u64) -> MetaPartition {
        MetaPartition::new(MetaPartitionConfig {
            partition_id: PartitionId(1),
            volume_id: VolumeId(1),
            start: InodeId(start),
            end: InodeId(end),
        })
    }

    #[test]
    fn inode_allocation_is_sequential_within_range() {
        let mut p = part(1, u64::MAX);
        let a = p.create_inode(FileType::Dir, b"", 0).unwrap();
        let b = p.create_inode(FileType::File, b"", 0).unwrap();
        assert_eq!(a.id, InodeId(1));
        assert_eq!(b.id, InodeId(2));
        assert_eq!(p.max_inode(), InodeId(2));
        assert_eq!(a.nlink, 2, "directory starts with nlink 2");
        assert_eq!(b.nlink, 1, "file starts with nlink 1");
    }

    #[test]
    fn allocation_respects_split_range() {
        let mut p = part(100, 102);
        assert_eq!(
            p.create_inode(FileType::File, b"", 0).unwrap().id,
            InodeId(100)
        );
        assert_eq!(
            p.create_inode(FileType::File, b"", 0).unwrap().id,
            InodeId(101)
        );
        assert_eq!(
            p.create_inode(FileType::File, b"", 0).unwrap().id,
            InodeId(102)
        );
        assert!(matches!(
            p.create_inode(FileType::File, b"", 0),
            Err(CfsError::PartitionFull(_))
        ));
    }

    #[test]
    fn update_end_cuts_range_per_algorithm_1() {
        let mut p = part(1, u64::MAX);
        for _ in 0..5 {
            p.create_inode(FileType::File, b"", 0).unwrap();
        }
        // Cut at maxInodeID + Δ.
        p.update_end(InodeId(5 + 100)).unwrap();
        assert_eq!(p.config().end, InodeId(105));
        // Cutting below maxInodeID is rejected.
        assert!(p.update_end(InodeId(3)).is_err());
        // Next allocation stays in the cut range.
        assert_eq!(
            p.create_inode(FileType::File, b"", 0).unwrap().id,
            InodeId(6)
        );
    }

    #[test]
    fn dentry_crud_and_readdir_order() {
        let mut p = part(1, u64::MAX);
        let dir = p.create_inode(FileType::Dir, b"", 0).unwrap();
        for name in ["zeta", "alpha", "mid"] {
            let f = p.create_inode(FileType::File, b"", 0).unwrap();
            p.create_dentry(dir.id, name, f.id, FileType::File).unwrap();
        }
        assert!(p
            .create_dentry(dir.id, "alpha", InodeId(9), FileType::File)
            .is_err());
        let names: Vec<String> = p.readdir(dir.id).into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(p.dir_entry_count(dir.id), 3);

        let d = p.delete_dentry(dir.id, "mid").unwrap();
        assert_eq!(d.name, "mid");
        assert!(p.delete_dentry(dir.id, "mid").is_err());
        assert_eq!(p.dir_entry_count(dir.id), 2);
    }

    #[test]
    fn readdir_does_not_leak_across_parents() {
        let mut p = part(1, u64::MAX);
        let d1 = p.create_inode(FileType::Dir, b"", 0).unwrap();
        let d2 = p.create_inode(FileType::Dir, b"", 0).unwrap();
        let f = p.create_inode(FileType::File, b"", 0).unwrap();
        p.create_dentry(d1.id, "only-in-d1", f.id, FileType::File)
            .unwrap();
        p.create_dentry(d2.id, "only-in-d2", f.id, FileType::File)
            .unwrap();
        assert_eq!(p.readdir(d1.id).len(), 1);
        assert_eq!(p.readdir(d1.id)[0].name, "only-in-d1");
        assert_eq!(p.readdir(d2.id)[0].name, "only-in-d2");
    }

    #[test]
    fn link_unlink_lifecycle() {
        let mut p = part(1, u64::MAX);
        let f = p.create_inode(FileType::File, b"", 0).unwrap();
        assert_eq!(p.inode_link(f.id).unwrap().nlink, 2);
        assert_eq!(p.inode_unlink(f.id, 1).unwrap().nlink, 1);
        assert_eq!(p.inode_unlink(f.id, 2).unwrap().nlink, 0);
        // Saturates, never underflows.
        assert_eq!(p.inode_unlink(f.id, 3).unwrap().nlink, 0);
    }

    #[test]
    fn evict_leaves_nothing_behind() {
        let mut p = part(1, u64::MAX);
        let f = p.create_inode(FileType::File, b"", 0).unwrap();
        p.evict_inode(f.id).unwrap();
        assert!(p.get_inode(f.id).is_err());
        assert!(p.evict_inode(f.id).is_err(), "double evict");

        // An evicted inode costs the snapshot nothing: 100 create+evict
        // rounds image exactly as long as 1 (the ids differ only in
        // `maxInodeID`, a fixed-width field).
        let churned = |n: usize| {
            let mut q = part(1, u64::MAX);
            for _ in 0..n {
                let f = q.create_inode(FileType::File, b"", 0).unwrap();
                q.evict_inode(f.id).unwrap();
            }
            q.snapshot_bytes().len()
        };
        assert_eq!(churned(100), churned(1));
    }

    #[test]
    fn extents_and_truncate() {
        let mut p = part(1, u64::MAX);
        let f = p.create_inode(FileType::File, b"", 0).unwrap();
        let keys: Vec<ExtentKey> = (0..4)
            .map(|i| ExtentKey {
                file_offset: i * 100,
                partition_id: PartitionId(2),
                extent_id: cfs_types::ExtentId(i + 1),
                extent_offset: 0,
                size: 100,
            })
            .collect();
        p.append_extents(f.id, &keys, 400, 5).unwrap();
        let ino = p.get_inode(f.id).unwrap();
        assert_eq!(ino.size, 400);
        assert_eq!(ino.extents.len(), 4);

        // Truncate to 150: extents at 200,300 removed; extent at 100
        // clamped to 50 bytes, and its cut tail handed back with them.
        let removed = p.truncate(f.id, 150, 6).unwrap();
        assert_eq!(removed.len(), 3);
        assert_eq!(
            removed[0],
            ExtentKey {
                file_offset: 150,
                extent_offset: 50,
                size: 50,
                ..keys[1]
            }
        );
        assert_eq!(&removed[1..], &keys[2..]);
        let ino = p.get_inode(f.id).unwrap();
        assert_eq!(ino.size, 150);
        assert_eq!(ino.extents.len(), 2);
        assert_eq!(ino.extents[1].size, 50);
        assert_eq!(ino.generation, 1);
    }

    #[test]
    fn batch_get_skips_missing() {
        let mut p = part(1, u64::MAX);
        let a = p.create_inode(FileType::File, b"", 0).unwrap();
        let b = p.create_inode(FileType::File, b"", 0).unwrap();
        let got = p.batch_get_inodes(&[a.id, InodeId(999), b.id]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, a.id);
        assert_eq!(got[1].id, b.id);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut p = part(1, u64::MAX);
        let dir = p.create_inode(FileType::Dir, b"", 7).unwrap();
        for i in 0..50 {
            let f = p.create_inode(FileType::File, b"", 7).unwrap();
            p.create_dentry(dir.id, &format!("f{i:03}"), f.id, FileType::File)
                .unwrap();
        }
        let victim = p.readdir(dir.id)[0].inode;
        p.evict_inode(victim).unwrap();
        let link = p.create_inode(FileType::Symlink, b"/target", 9).unwrap();

        let bytes = p.snapshot_bytes();
        let q = MetaPartition::from_snapshot(PartitionId(1), &bytes).unwrap();
        assert_eq!(q.item_count(), p.item_count());
        assert_eq!(q.max_inode(), p.max_inode());
        assert_eq!(q.readdir(dir.id).len(), 50);
        assert_eq!(q.get_inode(link.id).unwrap().link_target, b"/target");
        assert!(q.get_inode(victim).is_err());
    }

    #[test]
    fn corrupt_snapshot_rejected_with_partition_context() {
        let p = part(1, u64::MAX);
        let mut bytes = p.snapshot_bytes();
        bytes.push(0xff);
        let err = MetaPartition::from_snapshot(PartitionId(1), &bytes).unwrap_err();
        assert!(
            err.to_string().contains("p1"),
            "error names the partition: {err}"
        );
        let err = MetaPartition::from_snapshot(PartitionId(1), &bytes[..3]).unwrap_err();
        assert!(err.to_string().contains("p1"), "{err}");
        // A valid image restored under the wrong id is corrupt too.
        let err = MetaPartition::from_snapshot(PartitionId(9), &p.snapshot_bytes()).unwrap_err();
        assert!(matches!(err, CfsError::Corrupt(_)));
    }

    #[test]
    fn create_inode_at_pins_id_and_advances_max() {
        let mut p = part(1, u64::MAX);
        let pinned = p
            .create_inode_at(InodeId(7), FileType::File, b"", 42)
            .unwrap();
        assert_eq!(pinned.id, InodeId(7));
        assert_eq!(p.max_inode(), InodeId(7));
        // Fresh allocation after a pin never collides.
        assert_eq!(
            p.create_inode(FileType::File, b"", 0).unwrap().id,
            InodeId(8)
        );
        // A taken id is a deterministic Exists outcome.
        assert!(matches!(
            p.create_inode_at(InodeId(7), FileType::File, b"", 43),
            Err(CfsError::Exists(_))
        ));
        // Pins beyond the range cut are rejected like allocations.
        let mut q = part(1, 10);
        assert!(matches!(
            q.create_inode_at(InodeId(11), FileType::File, b"", 0),
            Err(CfsError::PartitionFull(_))
        ));
    }

    #[test]
    fn conditional_fixups_only_touch_their_own_victim() {
        let mut p = part(1, u64::MAX);
        let dir = p.create_inode(FileType::Dir, b"", 0).unwrap();
        let f = p.create_inode(FileType::File, b"", 5).unwrap();
        p.create_dentry(dir.id, "x", f.id, FileType::File).unwrap();

        // Wrong target inode: no-op, dentry survives.
        assert!(p
            .remove_dentry_if(dir.id, "x", InodeId(999))
            .unwrap()
            .is_none());
        assert!(p.get_dentry(dir.id, "x").is_ok());
        // Matching target: removed, and the replay is a no-op.
        assert!(p.remove_dentry_if(dir.id, "x", f.id).unwrap().is_some());
        assert!(p.remove_dentry_if(dir.id, "x", f.id).unwrap().is_none());

        // evict_if: stamp mismatch (id reallocated by someone else) is a
        // no-op; matching stamp evicts; replay is a no-op.
        assert!(p.evict_if(f.id, 6).unwrap().is_none());
        assert!(p.get_inode(f.id).is_ok());
        assert!(p.evict_if(f.id, 5).unwrap().is_some());
        assert!(p.evict_if(f.id, 5).unwrap().is_none());
        assert!(p.get_inode(f.id).is_err());
        // A linked-up inode (nlink above its birth count) is never
        // evicted by the fixup.
        let g = p.create_inode(FileType::File, b"", 9).unwrap();
        p.inode_link(g.id).unwrap();
        assert!(p.evict_if(g.id, 9).unwrap().is_none());

        // An orphan directory is evictable at its *initial* nlink of 2 —
        // a flat `<= 1` guard would strand it forever.
        let d2 = p.create_inode(FileType::Dir, b"", 12).unwrap();
        assert_eq!(d2.nlink, 2);
        assert!(p.evict_if(d2.id, 12).unwrap().is_some());
        assert!(p.get_inode(d2.id).is_err());
    }

    #[test]
    fn unlink_marks_the_inode_at_its_threshold() {
        let mut p = part(1, u64::MAX);
        // A file with two names survives the first unlink unmarked.
        let f = p.create_inode(FileType::File, b"", 0).unwrap();
        p.inode_link(f.id).unwrap();
        assert!(!p.inode_unlink(f.id, 1).unwrap().flag.is_mark_deleted());
        let gone = p.inode_unlink(f.id, 2).unwrap();
        assert_eq!(gone.nlink, 0);
        assert!(gone.flag.is_mark_deleted());
        assert!(gone.is_reclaimable());
        // A directory is marked below 2 ("." and the parent entry).
        let d = p.create_inode(FileType::Dir, b"", 3).unwrap();
        let gone = p.inode_unlink(d.id, 4).unwrap();
        assert_eq!(gone.nlink, 1);
        assert!(gone.flag.is_mark_deleted());
    }
}
