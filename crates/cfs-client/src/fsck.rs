//! fsck: the administrator repair tool of §2.6.
//!
//! The relaxed metadata atomicity can leave *orphan inodes* — inodes with
//! no dentry pointing at them — when a client dies before flushing its
//! local orphan list, or when all unlink retries fail ("the administrator
//! may need to manually resolve the issue", §2.6.3). `fsck` rebuilds the
//! reachability picture across every meta partition of the volume and
//! reclaims what nothing references.

use std::collections::HashSet;

use cfs_master::{MasterRequest, MasterResponse, NodeKind};
use cfs_meta::{MetaRead, MetaRequest, MetaResponse};
use cfs_types::{CfsError, FileType, InodeId, NodeId, PartitionId, Result, ROOT_INODE};

use crate::client::Client;

/// One partition whose live membership is below the configured
/// replication factor — what the self-healing scheduler (§2.3.3) still
/// has to repair, or what an operator must resolve by hand when no spare
/// node exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnderReplication {
    /// Which subsystem hosts the partition.
    pub kind: NodeKind,
    pub partition: PartitionId,
    /// Replicas the partition table still lists.
    pub members: Vec<NodeId>,
    /// Listed members the resource manager no longer reports alive.
    pub missing: Vec<NodeId>,
    /// The configured replica count the partition should be at.
    pub expected: usize,
}

/// Async-commit residue on one node × partition (DESIGN §12): intents
/// still journaled (acked but neither group-committed nor compensated)
/// or compensation records the orphan sweep has not executed yet. At any
/// quiesced moment — every barrier drained, every sweep acked — both
/// counts must be zero; a nonzero entry is the typed audit trail of an
/// acknowledged op whose fate is still in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrphanIntent {
    /// Meta node holding the journal.
    pub node: NodeId,
    pub partition: PartitionId,
    /// Journaled intents not yet resolved.
    pub pending_intents: u64,
    /// Compensation records awaiting the resource manager's sweep.
    pub pending_compensations: u64,
}

/// What an fsck pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Inodes scanned across all partitions.
    pub inodes_scanned: u64,
    /// Dentries scanned across all partitions.
    pub dentries_scanned: u64,
    /// Orphan inodes found (unreferenced by any dentry).
    pub orphans_found: u64,
    /// Orphans evicted (data cleanup queued for their extents).
    pub orphans_reclaimed: u64,
    /// Dentries whose target inode no longer exists. The §2.6 design
    /// keeps this at zero ("a dentry is always associated with at least
    /// one inode"); fsck reports violations rather than hiding them.
    pub dangling_dentries: u64,
    /// Inode ids owned by more than one partition. Partition ranges are
    /// disjoint by construction; a split (Algorithm 1) must never leave
    /// the same inode served by both halves.
    pub duplicate_inodes: u64,
    /// `(parent, name)` pairs present in more than one partition — a
    /// lookup would be double-served. Must stay zero across splits.
    pub duplicate_dentries: u64,
    /// Meta/data partitions with fewer live replicas than configured,
    /// with the dead members repair still has to replace (§2.3.3).
    pub under_replicated: Vec<UnderReplication>,
    /// Async-commit residue (DESIGN §12): journaled-but-unresolved
    /// intents and unswept compensations, per node × partition. Must be
    /// empty at every chaos quiesce.
    pub orphan_intents: Vec<OrphanIntent>,
}

impl Client {
    /// Scan the volume's metadata for orphan inodes and reclaim them.
    ///
    /// `reclaim = false` runs a dry audit (report only).
    pub fn fsck(&self, reclaim: bool) -> Result<FsckReport> {
        self.refresh_partition_table()?;
        let partitions: Vec<_> = {
            let cache = self.cache.lock();
            cache
                .meta_partitions
                .iter()
                .map(|p| (p.partition, p.members.clone()))
                .collect()
        };

        let mut report = FsckReport::default();

        // Pass 0: replication audit. Every partition in the volume should
        // list `replica_count` members the resource manager has not
        // declared dead; anything short is work the repair scheduler owes
        // (or an operator escalation when no spare node exists, §2.3.3).
        let alive: HashSet<NodeId> = match self.master_call(MasterRequest::ListNodes)? {
            MasterResponse::Nodes(nodes) => nodes
                .iter()
                .filter(|n| !n.is_dead())
                .map(|n| n.node)
                .collect(),
            _ => return Err(CfsError::Internal("bad ListNodes reply".into())),
        };
        let expected = self.config.replica_count;
        {
            let cache = self.cache.lock();
            let meta = cache
                .meta_partitions
                .iter()
                .map(|p| (NodeKind::Meta, p.partition, &p.members));
            let data = cache
                .data_partitions
                .iter()
                .map(|p| (NodeKind::Data, p.partition, &p.members));
            for (kind, partition, members) in meta.chain(data) {
                let missing: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|m| !alive.contains(m))
                    .collect();
                if members.len() - missing.len() < expected {
                    report.under_replicated.push(UnderReplication {
                        kind,
                        partition,
                        members: members.clone(),
                        missing,
                        expected,
                    });
                }
            }
        }

        // Pass 0.5: async-commit audit (DESIGN §12). Ask every meta node
        // hosting one of the volume's partitions for its per-partition
        // pending-intent / pending-compensation counts; anything nonzero
        // is an acked op whose fate has not settled. Unreachable nodes
        // are skipped — their journals resurface on the next pass.
        let mut meta_nodes: Vec<NodeId> = partitions
            .iter()
            .flat_map(|(_, members)| members.iter().copied())
            .collect();
        meta_nodes.sort_unstable();
        meta_nodes.dedup();
        for node in meta_nodes {
            let Ok(Ok(MetaResponse::Report(infos))) =
                self.fabrics.meta.call(self.id, node, MetaRequest::Report)
            else {
                continue;
            };
            for info in infos {
                if info.volume_id != self.volume {
                    continue;
                }
                if info.pending_intents > 0 || info.pending_compensations > 0 {
                    report.orphan_intents.push(OrphanIntent {
                        node,
                        partition: info.partition_id,
                        pending_intents: info.pending_intents,
                        pending_compensations: info.pending_compensations,
                    });
                }
            }
        }

        // Pass 1: gather every inode and dentry in the volume, flagging
        // anything two partitions both claim to own (a split that failed
        // to fence one half would surface here).
        let mut inodes = Vec::new();
        let mut referenced: HashSet<InodeId> = HashSet::new();
        let mut all_inode_ids: HashSet<InodeId> = HashSet::new();
        let mut dentry_keys: HashSet<(InodeId, String)> = HashSet::new();
        for (partition, members) in &partitions {
            let inos = self
                .meta_read(*partition, members, MetaRead::ListAllInodes)?
                .into_inodes()?;
            for ino in inos {
                if !all_inode_ids.insert(ino.id) {
                    report.duplicate_inodes += 1;
                }
                inodes.push(ino);
                report.inodes_scanned += 1;
            }
            let dents = self
                .meta_read(*partition, members, MetaRead::ListAllDentries)?
                .into_dentries()?;
            for d in dents {
                referenced.insert(d.inode);
                if !dentry_keys.insert((d.parent_id, d.name.clone())) {
                    report.duplicate_dentries += 1;
                }
                report.dentries_scanned += 1;
            }
        }

        // Pass 2: dangling-dentry audit (now that all inodes are known —
        // a dentry's inode may live on a partition scanned after it).
        for (partition, members) in &partitions {
            let dents = self
                .meta_read(*partition, members, MetaRead::ListAllDentries)?
                .into_dentries()?;
            report.dangling_dentries += dents
                .iter()
                .filter(|d| !all_inode_ids.contains(&d.inode))
                .count() as u64;
        }

        // Pass 3: orphans = inodes no dentry references, except the root
        // (reachable by definition) and live directories' implicit self
        // references. Mark-deleted inodes are reclaimable regardless.
        let orphans: Vec<InodeId> = inodes
            .into_iter()
            .filter(|ino| {
                let is_root = ino.id == ROOT_INODE;
                let unreferenced = !referenced.contains(&ino.id);
                ino.flag.is_mark_deleted()
                    || (unreferenced
                        && !is_root
                        && (ino.file_type != FileType::Dir || ino.nlink <= 2))
            })
            .map(|ino| ino.id)
            .collect();
        report.orphans_found = orphans.len() as u64;
        if reclaim {
            // The deletion pass's own routine; an orphan it could not
            // evict is simply left for the next pass.
            report.orphans_reclaimed = self.evict_and_clean(orphans).evicted as u64;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end in the workspace integration tests (fsck needs
    // a full cluster); unit coverage here is for the report type.
    use super::*;

    #[test]
    fn report_defaults_clean() {
        let r = FsckReport::default();
        assert_eq!(r.orphans_found, 0);
        assert_eq!(r.dangling_dentries, 0);
        assert!(r.under_replicated.is_empty());
        assert!(r.orphan_intents.is_empty());
    }
}
