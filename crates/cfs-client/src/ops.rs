//! Metadata operations: the Fig. 3 workflows and friends.
//!
//! Each mutating workflow has one body. Under `ClientOptions::async_meta`
//! its steps may be acked from the leader's intent journal (DESIGN §12);
//! a synchronous step is the same step, committed by the leader instead,
//! and owes no barrier.

use cfs_meta::{IntentContext, MetaCommand, MetaRead};
use cfs_types::{CfsError, Dentry, FileType, Inode, InodeId, Result};

use crate::client::{Client, MAX_RETRIES};

impl Client {
    // ------------------------------------------------------------------
    // Create (Fig. 3a)
    // ------------------------------------------------------------------

    /// Create a file/directory/symlink under `parent`.
    ///
    /// Workflow (§2.6.1): pick an available meta partition, create the
    /// inode there, then create the dentry on the *parent's* partition.
    /// If the dentry step fails, unlink the fresh inode and put it on the
    /// local orphan list for a later evict.
    ///
    /// When a step is journaled (DESIGN §12), the inode intent carries
    /// the planned dentry and the dentry intent the fresh inode's
    /// creation stamp, so a crash between ack and group commit
    /// compensates whichever half died.
    pub fn create_entry(
        &self,
        parent: InodeId,
        name: &str,
        file_type: FileType,
        link_target: &[u8],
    ) -> Result<Inode> {
        if name.is_empty() || name.contains('/') {
            return Err(CfsError::InvalidArgument(format!("bad name {name:?}")));
        }
        // Step 1: inode on a random writable partition. A split can freeze
        // the picked partition between the view fetch and the write
        // (`PartitionFull`/`RangeMoved` from the dual-serve fence): refresh
        // the table and re-pick among the partitions that can still
        // allocate (§2.3.1 — the successor partition covers the open end).
        let inode = self.create_inode_anywhere(file_type, link_target, parent, name)?;

        // Step 2: dentry on the parent's partition — possibly a different
        // meta node (§2.6: no cross-node atomicity). Routed by parent id
        // so a concurrent split of the parent's range re-routes here.
        let cmd = MetaCommand::CreateDentry {
            parent,
            name: name.to_string(),
            inode: inode.id,
            file_type,
        };
        let ctx = IntentContext::FreshInode {
            ctime_ns: inode.ctime_ns,
        };
        match self.dentry_step(parent, cmd, true, || Ok(ctx)) {
            Ok((d, _)) => {
                // Local mutation of `parent`: drop its lookup entries
                // (including any negative entry for this name), then
                // re-seed the cache with the fresh dentry.
                self.invalidate_parent(parent);
                self.cache_inode(&inode);
                self.cache_dentry(&d);
                Ok(inode)
            }
            Err(e) => {
                // Failure path: roll the inode back and orphan-list it.
                // A journaled step 1 still commits its inode; the unlink
                // queues behind it on the same partition.
                let _ = self.drop_link(inode.id);
                self.push_orphan(inode.id);
                Err(e)
            }
        }
    }

    /// nlink-- at the inode's meta node: the second half of unlink, and
    /// the rollback of a create or link whose dentry step failed.
    fn drop_link(&self, ino: InodeId) -> Result<Inode> {
        let now_ns = self.now_ns();
        self.meta_write_at(ino, MetaCommand::Unlink { inode: ino, now_ns })?
            .into_inode()
    }

    /// Create a regular file.
    pub fn create(&self, parent: InodeId, name: &str) -> Result<Inode> {
        self.create_entry(parent, name, FileType::File, b"")
    }

    /// Create a directory.
    pub fn mkdir(&self, parent: InodeId, name: &str) -> Result<Inode> {
        self.create_entry(parent, name, FileType::Dir, b"")
    }

    /// Create a symlink pointing at `target`.
    pub fn symlink(&self, parent: InodeId, name: &str, target: &[u8]) -> Result<Inode> {
        self.create_entry(parent, name, FileType::Symlink, target)
    }

    /// Read a symlink's target.
    pub fn readlink(&self, ino: InodeId) -> Result<Vec<u8>> {
        let inode = self.stat(ino)?;
        if inode.file_type != FileType::Symlink {
            return Err(CfsError::InvalidArgument(format!("{ino}: not a symlink")));
        }
        Ok(inode.link_target)
    }

    // ------------------------------------------------------------------
    // Lookup / stat / readdir
    // ------------------------------------------------------------------

    /// Look up `name` under `parent` (dentry routed by parent id).
    ///
    /// Consults the generation-checked lookup cache first (§2.4):
    /// positive hits and unexpired negative entries are answered without
    /// touching the fabric; misses fetch from the partition leader and
    /// fill the cache — including a TTL'd negative entry on `NotFound`.
    pub fn lookup(&self, parent: InodeId, name: &str) -> Result<Dentry> {
        if let Some(cached) = self.cached_lookup(parent, name) {
            return cached;
        }
        self.stats.lookup_cache_misses.inc();
        match self.meta_read_at(
            parent,
            MetaRead::Lookup {
                parent,
                name: name.to_string(),
            },
        ) {
            Ok(v) => {
                let d = v.into_dentry()?;
                self.cache_dentry(&d);
                Ok(d)
            }
            Err(CfsError::NotFound(msg)) => {
                self.cache_negative_lookup(parent, name);
                Err(CfsError::NotFound(msg))
            }
            Err(e) => Err(e),
        }
    }

    /// Fetch an inode, bypassing the cache (used by open's force-sync,
    /// §2.4).
    pub fn stat(&self, ino: InodeId) -> Result<Inode> {
        let inode = self
            .meta_read_at(ino, MetaRead::GetInode { inode: ino })?
            .into_inode()?;
        self.cache_inode(&inode);
        Ok(inode)
    }

    /// List a directory (one range scan on the parent's partition).
    pub fn readdir(&self, parent: InodeId) -> Result<Vec<Dentry>> {
        self.meta_read_at(parent, MetaRead::ReadDir { parent })?
            .into_dentries()
    }

    /// `readdir` plus attributes: batches the inode fetches per partition
    /// (the paper's `batchInodeGet`, which replaces Ceph's per-inode
    /// request storm, §4.2) and serves repeats from the client cache.
    pub fn readdir_plus(&self, parent: InodeId) -> Result<Vec<(Dentry, Inode)>> {
        let dentries = self.readdir(parent)?;
        let mut inodes: std::collections::HashMap<InodeId, Inode> = Default::default();
        for d in &dentries {
            if let Some(ino) = self.cached_inode(d.inode) {
                inodes.insert(d.inode, ino);
            }
        }
        // Batch the cache misses per owning partition. A split racing the
        // listing fences a batch with `RangeMoved` (the grouping used a
        // stale view): refresh the table and re-group what is still
        // missing — already-fetched inodes are not re-requested.
        'regroup: for pass in 0..=MAX_RETRIES {
            self.retry_pause(pass, "meta_route", |c| {
                c.stats.view_refreshes.inc();
                c.refresh_partition_table()
            })?;
            // Partition order, so the batches go out in the same order on
            // every run.
            let mut by_partition: std::collections::BTreeMap<
                cfs_types::PartitionId,
                (Vec<cfs_types::NodeId>, Vec<InodeId>),
            > = Default::default();
            for d in &dentries {
                if inodes.contains_key(&d.inode) {
                    continue; // hard link repeat, cached, or already fetched
                }
                let (p, members) = self.meta_partition_of(d.inode)?;
                let e = by_partition
                    .entry(p)
                    .or_insert_with(|| (members, Vec::new()));
                if !e.1.contains(&d.inode) {
                    e.1.push(d.inode);
                }
            }
            for (partition, (members, ids)) in by_partition {
                match self.meta_read(
                    partition,
                    &members,
                    MetaRead::BatchGetInodes { inodes: ids },
                ) {
                    Ok(v) => {
                        for ino in v.into_inodes()? {
                            self.cache_inode(&ino);
                            inodes.insert(ino.id, ino);
                        }
                    }
                    Err(CfsError::RangeMoved { .. }) => continue 'regroup,
                    Err(e) => return Err(e),
                }
            }
            break;
        }
        let mut out = Vec::with_capacity(dentries.len());
        for d in dentries {
            if let Some(ino) = inodes.get(&d.inode) {
                out.push((d, ino.clone()));
            }
            // A dentry whose inode the batch read did not return is
            // silently dropped from the listing. That covers both an
            // orphaned dentry (its create-workflow died between the
            // dentry and inode steps, §2.6.1 — fsck repairs it later)
            // and an inode unlinked concurrently with this listing; the
            // relaxed-atomicity model permits either (§2.6).
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Link (Fig. 3b)
    // ------------------------------------------------------------------

    /// Hard-link `ino` as `parent/name`.
    ///
    /// Workflow (§2.6.2): nlink++ at the inode's meta node, then create
    /// the dentry at the parent's; on dentry failure, nlink-- rollback.
    /// The nlink++ is always synchronous (it is the guard the rollback
    /// rests on); a journaled dentry step's compensation removes the
    /// dentry *and* undoes the increment (DESIGN §12).
    pub fn link(&self, parent: InodeId, name: &str, ino: InodeId) -> Result<()> {
        let linked = self
            .meta_write_at(ino, MetaCommand::Link { inode: ino })?
            .into_inode()?;
        let created = if linked.is_dir() {
            // Directories cannot be hard-linked.
            Err(CfsError::IsADirectory(ino))
        } else {
            let cmd = MetaCommand::CreateDentry {
                parent,
                name: name.to_string(),
                inode: ino,
                file_type: linked.file_type,
            };
            let ctx = IntentContext::LinkedInode { inode: ino };
            self.dentry_step(parent, cmd, true, || Ok(ctx))
        };
        match created {
            Ok((d, _)) => {
                self.invalidate_parent(parent);
                self.cache_dentry(&d);
                self.cache_inode(&linked);
                Ok(())
            }
            Err(e) => {
                // SUCCESSFUL/FAILED branches of Fig. 3b: undo the nlink++.
                let _ = self.drop_link(ino);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Unlink (Fig. 3c) and rmdir
    // ------------------------------------------------------------------

    /// Remove `parent/name`.
    ///
    /// Workflow (§2.6.3): delete the dentry first; only then nlink-- at
    /// the inode's node. At the type threshold (0 for files) that same
    /// command marks the inode deleted, and it is reclaimed
    /// asynchronously (§2.7.3).
    ///
    /// A journaled dentry delete (DESIGN §12) defers the nlink-- half to
    /// the barrier: its compensation *forward-completes* the deletion, so
    /// an acked unlink always ends with the name absent.
    pub fn unlink(&self, parent: InodeId, name: &str) -> Result<()> {
        let cmd = MetaCommand::DeleteDentry {
            parent,
            name: name.to_string(),
        };
        // Only a journaled delete has to name its target up front.
        let ctx = || {
            let inode = self.lookup(parent, name)?.inode;
            Ok(IntentContext::UnlinkedInode { inode })
        };
        let (deleted, acked) = self.dentry_step(parent, cmd, false, ctx)?;
        self.invalidate_parent(parent);
        if acked {
            return Ok(()); // the second half runs from the barrier
        }
        self.finish_unlink(deleted.inode)
    }

    /// Second half of Fig. 3c, for files and directories alike. Runs
    /// inline after a committed dentry delete and from the barrier after
    /// a journaled one.
    pub(crate) fn finish_unlink(&self, ino: InodeId) -> Result<()> {
        match self.drop_link(ino) {
            Ok(inode) => {
                self.uncache_inode(ino);
                if inode.flag.is_mark_deleted() {
                    // Threshold reached: data reclaimed by the
                    // asynchronous delete pass.
                    self.push_orphan(ino);
                }
                Ok(())
            }
            // Already reclaimed (an earlier pass or fsck got there).
            Err(CfsError::NotFound(_)) => Ok(()),
            Err(e) => {
                // All retries failed: the inode is now an orphan the
                // administrator may need to resolve (§2.6.3). Record it.
                self.push_orphan(ino);
                Err(e)
            }
        }
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, parent: InodeId, name: &str) -> Result<()> {
        let dentry = self.lookup(parent, name)?;
        if dentry.file_type != FileType::Dir {
            return Err(CfsError::NotADirectory(dentry.inode));
        }
        // Emptiness check on the directory's own partition.
        let count = match self.meta_read_at(
            dentry.inode,
            MetaRead::DirEntryCount {
                parent: dentry.inode,
            },
        )? {
            cfs_meta::MetaValue::Count(c) => c,
            _ => return Err(CfsError::Internal("bad DirEntryCount reply".into())),
        };
        if count > 0 {
            return Err(CfsError::NotEmpty(dentry.inode));
        }

        self.meta_write_at(
            parent,
            MetaCommand::DeleteDentry {
                parent,
                name: name.to_string(),
            },
        )?;
        self.invalidate_parent(parent);
        // Directory threshold is 2 (§2.6.3): one decrement takes a fresh
        // dir from 2 → 1, below threshold → reclaim.
        self.finish_unlink(dentry.inode)
    }

    // ------------------------------------------------------------------
    // Rename
    // ------------------------------------------------------------------

    /// Rename `old_parent/old_name` to `new_parent/new_name`.
    ///
    /// Composed from the link + unlink workflows (no cross-partition
    /// transaction, per the §2.6 relaxation): the new dentry is created
    /// first, so the file is always reachable under at least one name.
    /// Fails with `Exists` if the destination is taken.
    pub fn rename(
        &self,
        old_parent: InodeId,
        old_name: &str,
        new_parent: InodeId,
        new_name: &str,
    ) -> Result<()> {
        let dentry = self.lookup(old_parent, old_name)?;
        self.meta_write_at(
            new_parent,
            MetaCommand::CreateDentry {
                parent: new_parent,
                name: new_name.to_string(),
                inode: dentry.inode,
                file_type: dentry.file_type,
            },
        )?;
        // Remove the old name; nlink is untouched (same count of dentries
        // before and after).
        self.meta_write_at(
            old_parent,
            MetaCommand::DeleteDentry {
                parent: old_parent,
                name: old_name.to_string(),
            },
        )?;
        // Both directories were mutated locally: the new name appeared
        // and the old one vanished.
        self.invalidate_parent(new_parent);
        self.invalidate_parent(old_parent);
        Ok(())
    }
}
