//! The resource manager's replicated state machine.

use std::collections::BTreeMap;

use cfs_types::codec::{Decode, Decoder, Encode, Encoder};
use cfs_types::{
    CfsError, ClusterConfig, InodeId, NodeId, PartitionId, Result, VolumeId, DEAD_AFTER_MISSED,
    SPLIT_DELTA, SUSPECT_AFTER_MISSED, VOLUME_REFILL_WATERMARK,
};

use crate::placement::{choose_replicas, NodeLoad};

/// Heartbeat rounds a meta partition may stay unreported before the
/// maintenance sweep re-emits its create task (split reconciliation).
const UNREPORTED_ROUNDS: u64 = 3;

/// A `u32` count, then each item.
fn put_seq<'a, T: Encode + 'a>(enc: &mut Encoder, items: impl ExactSizeIterator<Item = &'a T>) {
    enc.put_u32(items.len() as u32);
    for item in items {
        item.encode(enc);
    }
}

/// Inverse of [`put_seq`].
fn get_seq<T: Decode>(dec: &mut Decoder<'_>) -> Result<Vec<T>> {
    (0..dec.get_u32()?).map(|_| T::decode(dec)).collect()
}

/// What kind of storage node registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Meta,
    Data,
}

impl Encode for NodeKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            NodeKind::Meta => 0,
            NodeKind::Data => 1,
        });
    }
}

impl Decode for NodeKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(NodeKind::Meta),
            1 => Ok(NodeKind::Data),
            b => Err(CfsError::Corrupt(format!("invalid node kind {b}"))),
        }
    }
}

/// Liveness + utilization of one registered node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    pub node: NodeId,
    pub kind: NodeKind,
    /// Memory items (meta) or physical bytes (data) — the placement
    /// signal (§2.3.1).
    pub utilization: u64,
    /// Raft set membership (§2.5.1).
    pub raft_set: u32,
    /// Consecutive heartbeat rounds this node failed to report in.
    /// `>= SUSPECT_AFTER_MISSED` makes the node a non-target for
    /// placement; `>= DEAD_AFTER_MISSED` triggers repair (§2.3.3).
    pub missed_heartbeats: u32,
}

impl NodeStatus {
    /// Past the detection threshold: a node the scheduler must
    /// re-replicate away from.
    pub fn is_dead(&self) -> bool {
        self.missed_heartbeats >= DEAD_AFTER_MISSED
    }

    /// Suspect or worse: excluded from new placements but not yet
    /// repaired around.
    pub fn is_suspect(&self) -> bool {
        self.missed_heartbeats >= SUSPECT_AFTER_MISSED
    }
}

impl Encode for NodeStatus {
    fn encode(&self, enc: &mut Encoder) {
        self.node.encode(enc);
        self.kind.encode(enc);
        enc.put_u64(self.utilization);
        enc.put_u32(self.raft_set);
        enc.put_u32(self.missed_heartbeats);
    }
}

impl Decode for NodeStatus {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(NodeStatus {
            node: NodeId::decode(dec)?,
            kind: NodeKind::decode(dec)?,
            utilization: dec.get_u64()?,
            raft_set: dec.get_u32()?,
            missed_heartbeats: dec.get_u32()?,
        })
    }
}

/// Resource-manager view of a meta partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPartitionMeta {
    pub partition: PartitionId,
    pub volume: VolumeId,
    pub start: InodeId,
    pub end: InodeId,
    pub members: Vec<NodeId>,
    pub item_count: u64,
    pub max_inode: InodeId,
    /// Raft applied index as of the last heartbeat report. The delta
    /// between two reports is the partition's write rate, the QPS signal
    /// for the load-triggered split (§2.3.2).
    pub applied: u64,
    /// Applied-index delta observed between the two most recent reports.
    pub write_load: u64,
    /// The range end the reporting replica actually serves. While it lags
    /// `end` the split's cut task has not landed, and the maintenance
    /// sweep re-emits `UpdateMetaPartitionEnd` until it does.
    pub reported_end: InodeId,
    /// Heartbeat round of the last stats report. A partition that stays
    /// unreported for `UNREPORTED_ROUNDS` rounds gets its create task
    /// re-emitted (a split whose successor was never materialised, e.g.
    /// the master crashed before task delivery).
    pub last_reported_round: u64,
}

impl Encode for MetaPartitionMeta {
    fn encode(&self, enc: &mut Encoder) {
        self.partition.encode(enc);
        self.volume.encode(enc);
        self.start.encode(enc);
        self.end.encode(enc);
        self.members.encode(enc);
        enc.put_u64(self.item_count);
        self.max_inode.encode(enc);
        enc.put_u64(self.applied);
        enc.put_u64(self.write_load);
        self.reported_end.encode(enc);
        enc.put_u64(self.last_reported_round);
    }
}

impl Decode for MetaPartitionMeta {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MetaPartitionMeta {
            partition: PartitionId::decode(dec)?,
            volume: VolumeId::decode(dec)?,
            start: InodeId::decode(dec)?,
            end: InodeId::decode(dec)?,
            members: Vec::<NodeId>::decode(dec)?,
            item_count: dec.get_u64()?,
            max_inode: InodeId::decode(dec)?,
            applied: dec.get_u64()?,
            write_load: dec.get_u64()?,
            reported_end: InodeId::decode(dec)?,
            last_reported_round: dec.get_u64()?,
        })
    }
}

/// Resource-manager view of a data partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPartitionMeta {
    pub partition: PartitionId,
    pub volume: VolumeId,
    /// Replica order; index 0 is the PB leader (§2.7.1).
    pub members: Vec<NodeId>,
    pub read_only: bool,
    pub full: bool,
}

impl Encode for DataPartitionMeta {
    fn encode(&self, enc: &mut Encoder) {
        self.partition.encode(enc);
        self.volume.encode(enc);
        self.members.encode(enc);
        self.read_only.encode(enc);
        self.full.encode(enc);
    }
}

impl Decode for DataPartitionMeta {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(DataPartitionMeta {
            partition: PartitionId::decode(dec)?,
            volume: VolumeId::decode(dec)?,
            members: Vec::<NodeId>::decode(dec)?,
            read_only: bool::decode(dec)?,
            full: bool::decode(dec)?,
        })
    }
}

/// A volume (§2): the file-system instance a container mounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    pub volume: VolumeId,
    pub name: String,
    pub meta_partitions: Vec<PartitionId>,
    pub data_partitions: Vec<PartitionId>,
}

impl Encode for VolumeMeta {
    fn encode(&self, enc: &mut Encoder) {
        self.volume.encode(enc);
        self.name.encode(enc);
        self.meta_partitions.encode(enc);
        self.data_partitions.encode(enc);
    }
}

impl Decode for VolumeMeta {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(VolumeMeta {
            volume: VolumeId::decode(dec)?,
            name: String::decode(dec)?,
            meta_partitions: Vec::<PartitionId>::decode(dec)?,
            data_partitions: Vec::<PartitionId>::decode(dec)?,
        })
    }
}

/// A side effect the cluster driver must deliver to storage nodes: the
/// paper's "tasks" (§2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Task {
    CreateMetaPartition {
        partition: PartitionId,
        volume: VolumeId,
        start: InodeId,
        end: InodeId,
        members: Vec<NodeId>,
    },
    CreateDataPartition {
        partition: PartitionId,
        volume: VolumeId,
        members: Vec<NodeId>,
    },
    /// Algorithm 1: tell the meta partition to cut its inode range.
    UpdateMetaPartitionEnd {
        partition: PartitionId,
        end: InodeId,
        members: Vec<NodeId>,
    },
    /// Exception handling (§2.3.3): mark replicas read-only.
    SetDataPartitionReadOnly {
        partition: PartitionId,
        members: Vec<NodeId>,
        read_only: bool,
    },
    /// Repair (§2.3.3): replace the dead member `dead` of a partition
    /// with a replica on `new_node`. `members` is the post-repair array
    /// (survivors in chain order, replacement appended; index 0 of a data
    /// partition is the possibly newly promoted PB leader). `start..=end`
    /// is a meta partition's inode range (both zero for a data partition).
    ReplaceReplica {
        kind: NodeKind,
        partition: PartitionId,
        volume: VolumeId,
        start: InodeId,
        end: InodeId,
        members: Vec<NodeId>,
        dead: NodeId,
        new_node: NodeId,
    },
}

/// One meta partition leader's counters in a heartbeat (feeds Algorithm
/// 1). `end` is the range end the replica serves (split reconciliation
/// compares it against the planned cut) and `applied` its Raft applied
/// index (successive deltas give the write-rate trigger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPartitionReport {
    pub partition: PartitionId,
    pub item_count: u64,
    pub max_inode: InodeId,
    pub end: InodeId,
    pub applied: u64,
}

impl Encode for MetaPartitionReport {
    fn encode(&self, enc: &mut Encoder) {
        self.partition.encode(enc);
        enc.put_u64(self.item_count);
        self.max_inode.encode(enc);
        self.end.encode(enc);
        enc.put_u64(self.applied);
    }
}

impl Decode for MetaPartitionReport {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MetaPartitionReport {
            partition: PartitionId::decode(dec)?,
            item_count: dec.get_u64()?,
            max_inode: InodeId::decode(dec)?,
            end: InodeId::decode(dec)?,
            applied: dec.get_u64()?,
        })
    }
}

/// Commands replicated across resource-manager replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterCommand {
    RegisterNode {
        node: NodeId,
        kind: NodeKind,
    },
    /// Timeout reported on a data partition (§2.3.3).
    ReportPartitionTimeout {
        partition: PartitionId,
    },
    CreateVolume {
        name: String,
        meta_partition_count: u64,
        data_partition_count: u64,
    },
    /// Algorithm 1 on one partition.
    SplitMetaPartition {
        partition: PartitionId,
    },
    /// One heartbeat round (§2.3), applied as a unit: `reporting` nodes
    /// answered and every registered node absent from the list missed it
    /// (failure detection survives master churn); the responders'
    /// utilization feeds placement, the meta partition leaders' counters
    /// feed Algorithm 1, and `full` data partitions reached their extent
    /// cap (§2.3.1). The apply ends with the maintenance sweep — split
    /// reconciliation, auto-split, volume refill — whose tasks it returns.
    Heartbeat {
        reporting: Vec<NodeId>,
        utilization: Vec<(NodeId, u64)>,
        meta: Vec<MetaPartitionReport>,
        full: Vec<PartitionId>,
    },
    /// One repair-scheduler sweep (§2.3.3): replan up to
    /// `max_repairs_per_tick` degraded partitions, emitting
    /// decommission/add-replica task pairs.
    RepairTick,
    /// The driver confirms `node` finished joining `partition` (aligned +
    /// caught up); the partition leaves the pending-join set and data
    /// partitions return to read-write.
    ConfirmReplicaJoined {
        partition: PartitionId,
        node: NodeId,
    },
}

impl Encode for MasterCommand {
    fn encode(&self, enc: &mut Encoder) {
        // Tags 1–4, 7, 9, 10 and 13 belonged to retired commands (the
        // per-report heartbeat commands, the maintenance trigger, the
        // orphan-sweep tally and two never-proposed ones) and are never
        // reused: a log holding one decodes to `Corrupt`.
        match self {
            MasterCommand::RegisterNode { node, kind } => {
                enc.put_u8(0);
                node.encode(enc);
                kind.encode(enc);
            }
            MasterCommand::ReportPartitionTimeout { partition } => {
                enc.put_u8(5);
                partition.encode(enc);
            }
            MasterCommand::CreateVolume {
                name,
                meta_partition_count,
                data_partition_count,
            } => {
                enc.put_u8(6);
                name.encode(enc);
                enc.put_u64(*meta_partition_count);
                enc.put_u64(*data_partition_count);
            }
            MasterCommand::SplitMetaPartition { partition } => {
                enc.put_u8(8);
                partition.encode(enc);
            }
            MasterCommand::RepairTick => enc.put_u8(11),
            MasterCommand::ConfirmReplicaJoined { partition, node } => {
                enc.put_u8(12);
                partition.encode(enc);
                node.encode(enc);
            }
            MasterCommand::Heartbeat {
                reporting,
                utilization,
                meta,
                full,
            } => {
                enc.put_u8(14);
                put_seq(enc, reporting.iter());
                put_seq(enc, utilization.iter());
                put_seq(enc, meta.iter());
                put_seq(enc, full.iter());
            }
        }
    }
}

impl Decode for MasterCommand {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => MasterCommand::RegisterNode {
                node: NodeId::decode(dec)?,
                kind: NodeKind::decode(dec)?,
            },
            5 => MasterCommand::ReportPartitionTimeout {
                partition: PartitionId::decode(dec)?,
            },
            6 => MasterCommand::CreateVolume {
                name: String::decode(dec)?,
                meta_partition_count: dec.get_u64()?,
                data_partition_count: dec.get_u64()?,
            },
            8 => MasterCommand::SplitMetaPartition {
                partition: PartitionId::decode(dec)?,
            },
            11 => MasterCommand::RepairTick,
            12 => MasterCommand::ConfirmReplicaJoined {
                partition: PartitionId::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            14 => MasterCommand::Heartbeat {
                reporting: get_seq(dec)?,
                utilization: get_seq(dec)?,
                meta: get_seq(dec)?,
                full: get_seq(dec)?,
            },
            b => return Err(CfsError::Corrupt(format!("invalid master command tag {b}"))),
        })
    }
}

/// What a command application produced: new cluster tasks plus an
/// optional created-volume id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    pub tasks: Vec<Task>,
    pub volume: Option<VolumeId>,
}

/// The deterministic resource-manager state.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterState {
    config: ClusterConfig,
    nodes: BTreeMap<NodeId, NodeStatus>,
    volumes: BTreeMap<VolumeId, VolumeMeta>,
    volume_names: BTreeMap<String, VolumeId>,
    meta_partitions: BTreeMap<PartitionId, MetaPartitionMeta>,
    data_partitions: BTreeMap<PartitionId, DataPartitionMeta>,
    next_partition: u64,
    next_volume: u64,
    /// Heartbeat rounds recorded so far (replicated tick counter).
    heartbeat_round: u64,
    /// Partitions with an in-flight replacement join: partition → the
    /// joining node. The repair scheduler skips these until the driver
    /// confirms the join, so one degraded partition is repaired once.
    pending_joins: BTreeMap<PartitionId, NodeId>,
}

impl MasterState {
    /// Fresh state. Partition ids start at 1 and are shared between meta
    /// and data partitions (they double as Raft group ids, which must be
    /// cluster-unique).
    pub fn new(config: ClusterConfig) -> Self {
        MasterState {
            config,
            nodes: BTreeMap::new(),
            volumes: BTreeMap::new(),
            volume_names: BTreeMap::new(),
            meta_partitions: BTreeMap::new(),
            data_partitions: BTreeMap::new(),
            next_partition: 1,
            next_volume: 1,
            heartbeat_round: 0,
            pending_joins: BTreeMap::new(),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn node(&self, id: NodeId) -> Option<&NodeStatus> {
        self.nodes.get(&id)
    }

    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<&NodeStatus> {
        self.nodes.values().filter(|n| n.kind == kind).collect()
    }

    pub fn volume_by_name(&self, name: &str) -> Option<&VolumeMeta> {
        self.volume_names
            .get(name)
            .and_then(|id| self.volumes.get(id))
    }

    pub fn volume(&self, id: VolumeId) -> Option<&VolumeMeta> {
        self.volumes.get(&id)
    }

    pub fn meta_partition(&self, id: PartitionId) -> Option<&MetaPartitionMeta> {
        self.meta_partitions.get(&id)
    }

    pub fn data_partition(&self, id: PartitionId) -> Option<&DataPartitionMeta> {
        self.data_partitions.get(&id)
    }

    /// Heartbeat rounds recorded so far.
    pub fn heartbeat_round(&self) -> u64 {
        self.heartbeat_round
    }

    /// Partitions with an in-flight replacement join (partition → joiner).
    pub fn pending_joins(&self) -> &BTreeMap<PartitionId, NodeId> {
        &self.pending_joins
    }

    /// Do all of `members` live in one Raft set (§2.5.1)? Used to count
    /// in-set placements vs cross-set fallbacks.
    pub fn members_in_one_set(&self, members: &[NodeId]) -> bool {
        let mut sets = members
            .iter()
            .filter_map(|m| self.nodes.get(m))
            .map(|n| n.raft_set);
        let Some(first) = sets.next() else {
            return false;
        };
        sets.all(|s| s == first)
    }

    /// Meta partitions of a volume, id-ordered.
    pub fn volume_meta_partitions(&self, vol: VolumeId) -> Vec<&MetaPartitionMeta> {
        self.volumes
            .get(&vol)
            .map(|v| {
                v.meta_partitions
                    .iter()
                    .filter_map(|p| self.meta_partitions.get(p))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Data partitions of a volume, id-ordered.
    pub fn volume_data_partitions(&self, vol: VolumeId) -> Vec<&DataPartitionMeta> {
        self.volumes
            .get(&vol)
            .map(|v| {
                v.data_partitions
                    .iter()
                    .filter_map(|p| self.data_partitions.get(p))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn loads(&self, kind: NodeKind) -> Vec<NodeLoad> {
        self.nodes
            .values()
            .filter(|n| n.kind == kind)
            .map(|n| NodeLoad {
                node: n.node,
                utilization: n.utilization,
                raft_set: n.raft_set,
                // Suspects are excluded from new placements before they
                // are declared dead (§2.3.3); the dead are suspect too.
                alive: !n.is_suspect(),
            })
            .collect()
    }

    fn alloc_partition_id(&mut self) -> PartitionId {
        let id = PartitionId(self.next_partition);
        self.next_partition += 1;
        id
    }

    fn place(&self, kind: NodeKind) -> Result<Vec<NodeId>> {
        // Salt ties with the allocation counter so placements rotate.
        choose_replicas(
            &self.loads(kind),
            self.config.replica_count,
            self.next_partition,
        )
        .ok_or_else(|| {
            CfsError::Unavailable(format!(
                "not enough live {kind:?} nodes for {} replicas",
                self.config.replica_count
            ))
        })
    }

    fn new_meta_partition(
        &mut self,
        volume: VolumeId,
        start: InodeId,
        end: InodeId,
    ) -> Result<(PartitionId, Task)> {
        let members = self.place(NodeKind::Meta)?;
        let pid = self.alloc_partition_id();
        self.meta_partitions.insert(
            pid,
            MetaPartitionMeta {
                partition: pid,
                volume,
                start,
                end,
                members: members.clone(),
                item_count: 0,
                max_inode: InodeId(start.raw().saturating_sub(1)),
                applied: 0,
                write_load: 0,
                // Treat the plan as reported until the first heartbeat
                // arrives, so a freshly created partition is not
                // immediately "lost" to reconciliation.
                reported_end: end,
                last_reported_round: self.heartbeat_round,
            },
        );
        self.volumes
            .get_mut(&volume)
            .expect("volume exists")
            .meta_partitions
            .push(pid);
        Ok((
            pid,
            Task::CreateMetaPartition {
                partition: pid,
                volume,
                start,
                end,
                members,
            },
        ))
    }

    fn new_data_partition(&mut self, volume: VolumeId) -> Result<(PartitionId, Task)> {
        let members = self.place(NodeKind::Data)?;
        let pid = self.alloc_partition_id();
        self.data_partitions.insert(
            pid,
            DataPartitionMeta {
                partition: pid,
                volume,
                members: members.clone(),
                read_only: false,
                full: false,
            },
        );
        self.volumes
            .get_mut(&volume)
            .expect("volume exists")
            .data_partitions
            .push(pid);
        Ok((
            pid,
            Task::CreateDataPartition {
                partition: pid,
                volume,
                members,
            },
        ))
    }

    /// Algorithm 1. Only the newest partition of a volume (the one with
    /// the unbounded range) is split; older ones are already cut.
    fn split_meta_partition(&mut self, pid: PartitionId) -> Result<ApplyOutcome> {
        let (volume, max_inode, members) = {
            let mp = self
                .meta_partitions
                .get(&pid)
                .ok_or_else(|| CfsError::NotFound(format!("{pid}")))?;
            (mp.volume, mp.max_inode, mp.members.clone())
        };
        let vol = self
            .volumes
            .get(&volume)
            .ok_or_else(|| CfsError::NotFound(format!("{volume}")))?;
        // Line 6: if metaPartition.ID < maxPartitionID then return.
        let max_partition_id = vol
            .meta_partitions
            .iter()
            .copied()
            .max()
            .expect("volume has meta partitions");
        if pid < max_partition_id {
            return Ok(ApplyOutcome::default());
        }
        // Line 7: only an unbounded partition needs cutting.
        let mp = self.meta_partitions.get_mut(&pid).expect("checked above");
        if mp.end != InodeId::MAX {
            return Ok(ApplyOutcome::default());
        }
        // Line 8: end ← maxInodeID + Δ.
        let end = InodeId(max_inode.raw() + SPLIT_DELTA);
        mp.end = end;
        let mut tasks = vec![Task::UpdateMetaPartitionEnd {
            partition: pid,
            end,
            members,
        }];
        // Create the successor partition [end+1, ∞).
        let (_, task) = self.new_meta_partition(volume, end.next(), InodeId::MAX)?;
        tasks.push(task);
        Ok(ApplyOutcome {
            tasks,
            volume: Some(volume),
        })
    }

    /// Pick a replacement host for a degraded partition: the least-loaded
    /// live non-suspect node of `kind` that is not already a member.
    fn place_replacement(&self, kind: NodeKind, members: &[NodeId]) -> Option<NodeId> {
        let mut loads = self.loads(kind);
        for l in &mut loads {
            if members.contains(&l.node) {
                l.alive = false; // never re-pick an existing member
            }
        }
        choose_replicas(&loads, 1, self.next_partition).map(|r| r[0])
    }

    /// One reconciliation sweep of the repair scheduler (§2.3.3): for up
    /// to `max_repairs_per_tick` partitions with a dead member, meta
    /// partitions first, pick a replacement with the placement policy,
    /// rewrite the membership (survivors keep their chain order; a dead
    /// head promotes the next survivor), and emit one `ReplaceReplica`
    /// task. The partition is parked in `pending_joins` (data partitions
    /// also go read-only in the routing table) until the driver confirms
    /// the replacement is aligned and caught up.
    fn repair_tick(&mut self) -> Result<ApplyOutcome> {
        let dead: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.is_dead())
            .map(|n| n.node)
            .collect();
        let mut outcome = ApplyOutcome::default();
        if dead.is_empty() {
            return Ok(outcome);
        }
        let candidates: Vec<(NodeKind, PartitionId)> = self
            .meta_partitions
            .keys()
            .map(|&pid| (NodeKind::Meta, pid))
            .chain(
                self.data_partitions
                    .keys()
                    .map(|&pid| (NodeKind::Data, pid)),
            )
            .collect();
        for (kind, pid) in candidates {
            if outcome.tasks.len() >= self.config.max_repairs_per_tick {
                break;
            }
            if self.pending_joins.contains_key(&pid) {
                continue;
            }
            let (volume, start, end, members) = match kind {
                NodeKind::Meta => {
                    let mp = &self.meta_partitions[&pid];
                    (mp.volume, mp.start, mp.end, &mp.members)
                }
                NodeKind::Data => {
                    let dp = &self.data_partitions[&pid];
                    (dp.volume, InodeId(0), InodeId(0), &dp.members)
                }
            };
            let Some(&dead_member) = members.iter().find(|m| dead.contains(m)) else {
                continue;
            };
            let Some(new_node) = self.place_replacement(kind, members) else {
                continue; // no spare node yet; retried next sweep
            };
            let mut new_members: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&m| m != dead_member)
                .collect();
            new_members.push(new_node);
            match kind {
                NodeKind::Meta => {
                    let mp = self.meta_partitions.get_mut(&pid).expect("listed above");
                    mp.members = new_members.clone();
                }
                NodeKind::Data => {
                    let dp = self.data_partitions.get_mut(&pid).expect("listed above");
                    dp.members = new_members.clone();
                    // Routed read-only while the join is in flight: clients
                    // place new extents elsewhere, but the survivors stay
                    // replica-writable so §2.2.5 alignment can re-ship bytes.
                    dp.read_only = true;
                }
            }
            self.pending_joins.insert(pid, new_node);
            outcome.tasks.push(Task::ReplaceReplica {
                kind,
                partition: pid,
                volume,
                start,
                end,
                members: new_members,
                dead: dead_member,
                new_node,
            });
        }
        Ok(outcome)
    }

    /// One heartbeat round, in order: the round counter and miss counters,
    /// the responders' utilization, the meta partition counters (stamped
    /// with the new round), the full flags, then the maintenance sweep.
    fn heartbeat(
        &mut self,
        reporting: &[NodeId],
        utilization: &[(NodeId, u64)],
        meta: &[MetaPartitionReport],
        full: &[PartitionId],
    ) -> Result<ApplyOutcome> {
        self.heartbeat_round += 1;
        for n in self.nodes.values_mut() {
            n.missed_heartbeats = if reporting.contains(&n.node) {
                0
            } else {
                n.missed_heartbeats.saturating_add(1)
            };
        }
        for (node, u) in utilization {
            if let Some(n) = self.nodes.get_mut(node) {
                n.utilization = *u;
            }
        }
        for r in meta {
            if let Some(p) = self.meta_partitions.get_mut(&r.partition) {
                p.item_count = r.item_count;
                p.max_inode = r.max_inode.max(p.max_inode);
                p.write_load = r.applied.saturating_sub(p.applied);
                p.applied = r.applied;
                p.reported_end = r.end;
                p.last_reported_round = self.heartbeat_round;
            }
        }
        for pid in full {
            if let Some(p) = self.data_partitions.get_mut(pid) {
                p.full = true;
            }
        }
        self.maintenance()
    }

    /// The maintenance sweep closing every heartbeat round: split
    /// reconciliation, auto-split of near-full or hot meta partitions, and
    /// refill of volumes short on writable data partitions.
    fn maintenance(&mut self) -> Result<ApplyOutcome> {
        let mut outcome = ApplyOutcome::default();
        // Split reconciliation first (so a split planned later in this
        // same sweep is not immediately re-emitted): a cut the replicas
        // have not acknowledged yet is re-sent, and a partition that never
        // reported in (its create task was lost with a crashed master) is
        // re-created. Both tasks are idempotent at the meta nodes.
        for p in self.meta_partitions.values() {
            if p.reported_end != p.end {
                outcome.tasks.push(Task::UpdateMetaPartitionEnd {
                    partition: p.partition,
                    end: p.end,
                    members: p.members.clone(),
                });
            }
            if self.heartbeat_round >= p.last_reported_round.saturating_add(UNREPORTED_ROUNDS) {
                outcome.tasks.push(Task::CreateMetaPartition {
                    partition: p.partition,
                    volume: p.volume,
                    start: p.start,
                    end: p.end,
                    members: p.members.clone(),
                });
            }
        }
        // Auto-split meta partitions near their item limit or running hot
        // (§2.3.2: size *or* write-rate trigger).
        let near_full: Vec<PartitionId> = self
            .meta_partitions
            .values()
            .filter(|p| {
                p.end == InodeId::MAX
                    && (p.item_count >= self.config.meta_partition_item_limit
                        || p.write_load >= self.config.meta_partition_write_load_limit)
            })
            .map(|p| p.partition)
            .collect();
        for pid in near_full {
            let o = self.split_meta_partition(pid)?;
            outcome.tasks.extend(o.tasks);
        }
        // Refill volumes short on writable data partitions.
        let vols: Vec<VolumeId> = self.volumes.keys().copied().collect();
        for vid in vols {
            let parts = self.volume_data_partitions(vid);
            if parts.is_empty() {
                continue;
            }
            let writable = parts.iter().filter(|p| !p.full && !p.read_only).count();
            let ratio = writable as f64 / parts.len() as f64;
            if ratio < VOLUME_REFILL_WATERMARK {
                for _ in 0..self.config.partitions_per_allocation {
                    let (_, t) = self.new_data_partition(vid)?;
                    outcome.tasks.push(t);
                }
            }
        }
        Ok(outcome)
    }

    /// Apply one command. Deterministic; errors are deterministic too.
    pub fn apply(&mut self, cmd: &MasterCommand) -> Result<ApplyOutcome> {
        match cmd {
            MasterCommand::RegisterNode { node, kind } => {
                if self.nodes.contains_key(node) {
                    return Ok(ApplyOutcome::default()); // idempotent re-register
                }
                let set_size = self.config.raft_set_size.max(1) as u32;
                let peers = self.nodes_of_kind(*kind).len() as u32;
                let raft_set = peers / set_size;
                self.nodes.insert(
                    *node,
                    NodeStatus {
                        node: *node,
                        kind: *kind,
                        utilization: 0,
                        raft_set,
                        missed_heartbeats: 0,
                    },
                );
                Ok(ApplyOutcome::default())
            }
            MasterCommand::ReportPartitionTimeout { partition } => {
                // §2.3.3: the remaining replicas go read-only.
                let p = self
                    .data_partitions
                    .get_mut(partition)
                    .ok_or_else(|| CfsError::NotFound(format!("{partition}")))?;
                p.read_only = true;
                Ok(ApplyOutcome {
                    tasks: vec![Task::SetDataPartitionReadOnly {
                        partition: *partition,
                        members: p.members.clone(),
                        read_only: true,
                    }],
                    volume: None,
                })
            }
            MasterCommand::CreateVolume {
                name,
                meta_partition_count,
                data_partition_count,
            } => {
                if self.volume_names.contains_key(name) {
                    return Err(CfsError::Exists(format!("volume {name}")));
                }
                let vid = VolumeId(self.next_volume);
                self.next_volume += 1;
                self.volumes.insert(
                    vid,
                    VolumeMeta {
                        volume: vid,
                        name: name.clone(),
                        meta_partitions: Vec::new(),
                        data_partitions: Vec::new(),
                    },
                );
                self.volume_names.insert(name.clone(), vid);
                let mut tasks = Vec::new();
                // First meta partition owns [1, ∞); later ones come from
                // splits. Additional requested meta partitions share the
                // keyspace by successive pre-splits of the id range? No —
                // the paper allocates several partitions up front; we give
                // each a disjoint slice of the id space, with the last one
                // unbounded.
                let n = (*meta_partition_count).max(1);
                let slice = 1u64 << 32; // generous per-partition id slice
                for i in 0..n {
                    let start = InodeId(1 + i * slice);
                    let end = if i == n - 1 {
                        InodeId::MAX
                    } else {
                        InodeId((i + 1) * slice)
                    };
                    let (_, t) = self.new_meta_partition(vid, start, end)?;
                    tasks.push(t);
                }
                for _ in 0..*data_partition_count {
                    let (_, t) = self.new_data_partition(vid)?;
                    tasks.push(t);
                }
                Ok(ApplyOutcome {
                    tasks,
                    volume: Some(vid),
                })
            }
            MasterCommand::SplitMetaPartition { partition } => {
                self.split_meta_partition(*partition)
            }
            MasterCommand::Heartbeat {
                reporting,
                utilization,
                meta,
                full,
            } => self.heartbeat(reporting, utilization, meta, full),
            MasterCommand::RepairTick => self.repair_tick(),
            MasterCommand::ConfirmReplicaJoined { partition, node } => {
                // Idempotent: a stale confirm (wrong node, or already
                // confirmed) is a no-op so task retries are safe.
                if self.pending_joins.get(partition) == Some(node) {
                    self.pending_joins.remove(partition);
                    if let Some(dp) = self.data_partitions.get_mut(partition) {
                        dp.read_only = false;
                    }
                }
                Ok(ApplyOutcome::default())
            }
        }
    }

    /// Serialize the whole state (the master group's Raft snapshot).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.next_partition);
        enc.put_u64(self.next_volume);
        put_seq(&mut enc, self.nodes.values());
        put_seq(&mut enc, self.volumes.values());
        put_seq(&mut enc, self.meta_partitions.values());
        put_seq(&mut enc, self.data_partitions.values());
        enc.put_u64(self.heartbeat_round);
        enc.put_u32(self.pending_joins.len() as u32);
        for (pid, node) in &self.pending_joins {
            pid.encode(&mut enc);
            node.encode(&mut enc);
        }
        enc.finish()
    }

    /// Restore from [`MasterState::snapshot_bytes`].
    pub fn from_snapshot(config: ClusterConfig, data: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(data);
        let mut st = MasterState::new(config);
        st.next_partition = dec.get_u64()?;
        st.next_volume = dec.get_u64()?;
        for n in get_seq::<NodeStatus>(&mut dec)? {
            st.nodes.insert(n.node, n);
        }
        for v in get_seq::<VolumeMeta>(&mut dec)? {
            st.volume_names.insert(v.name.clone(), v.volume);
            st.volumes.insert(v.volume, v);
        }
        for p in get_seq::<MetaPartitionMeta>(&mut dec)? {
            st.meta_partitions.insert(p.partition, p);
        }
        for p in get_seq::<DataPartitionMeta>(&mut dec)? {
            st.data_partitions.insert(p.partition, p);
        }
        st.heartbeat_round = dec.get_u64()?;
        for (pid, node) in get_seq::<(PartitionId, NodeId)>(&mut dec)? {
            st.pending_joins.insert(pid, node);
        }
        if !dec.is_exhausted() {
            return Err(CfsError::Corrupt("master snapshot trailing bytes".into()));
        }
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_nodes(meta: u64, data: u64) -> MasterState {
        let mut st = MasterState::new(ClusterConfig::default());
        for i in 1..=meta {
            st.apply(&MasterCommand::RegisterNode {
                node: NodeId(i),
                kind: NodeKind::Meta,
            })
            .unwrap();
        }
        for i in 1..=data {
            st.apply(&MasterCommand::RegisterNode {
                node: NodeId(100 + i),
                kind: NodeKind::Data,
            })
            .unwrap();
        }
        st
    }

    /// One heartbeat round in which every registered node reports,
    /// carrying the given stats.
    fn round(
        st: &mut MasterState,
        utilization: Vec<(NodeId, u64)>,
        meta: Vec<MetaPartitionReport>,
        full: Vec<PartitionId>,
    ) -> ApplyOutcome {
        let reporting = st.nodes.keys().copied().collect();
        st.apply(&MasterCommand::Heartbeat {
            reporting,
            utilization,
            meta,
            full,
        })
        .unwrap()
    }

    /// A meta partition leader's counters.
    fn stats(
        partition: PartitionId,
        item_count: u64,
        max_inode: u64,
        end: InodeId,
        applied: u64,
    ) -> MetaPartitionReport {
        MetaPartitionReport {
            partition,
            item_count,
            max_inode: InodeId(max_inode),
            end,
            applied,
        }
    }

    #[test]
    fn register_assigns_raft_sets() {
        let st = state_with_nodes(12, 0);
        // raft_set_size = 5: nodes 1–5 → set 0, 6–10 → set 1, 11–12 → set 2.
        assert_eq!(st.node(NodeId(1)).unwrap().raft_set, 0);
        assert_eq!(st.node(NodeId(5)).unwrap().raft_set, 0);
        assert_eq!(st.node(NodeId(6)).unwrap().raft_set, 1);
        assert_eq!(st.node(NodeId(11)).unwrap().raft_set, 2);
    }

    #[test]
    fn create_volume_emits_tasks_for_all_partitions() {
        let mut st = state_with_nodes(4, 4);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "vol1".into(),
                meta_partition_count: 2,
                data_partition_count: 3,
            })
            .unwrap();
        assert_eq!(out.tasks.len(), 5);
        let vid = out.volume.unwrap();
        let v = st.volume(vid).unwrap();
        assert_eq!(v.meta_partitions.len(), 2);
        assert_eq!(v.data_partitions.len(), 3);
        // Last meta partition is unbounded; earlier ones are cut.
        let mps = st.volume_meta_partitions(vid);
        assert_eq!(mps[0].start, InodeId(1));
        assert_ne!(mps[0].end, InodeId::MAX);
        assert_eq!(mps[1].end, InodeId::MAX);
        assert_eq!(mps[1].start, mps[0].end.next());
        // Duplicate name rejected.
        assert!(st
            .apply(&MasterCommand::CreateVolume {
                name: "vol1".into(),
                meta_partition_count: 1,
                data_partition_count: 1,
            })
            .is_err());
    }

    #[test]
    fn placement_prefers_low_utilization() {
        let mut st = state_with_nodes(5, 5);
        // Load up nodes 1–2 heavily.
        round(
            &mut st,
            vec![(NodeId(1), 1_000), (NodeId(2), 900)],
            vec![],
            vec![],
        );
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 0,
            })
            .unwrap();
        match &out.tasks[0] {
            Task::CreateMetaPartition { members, .. } => {
                assert!(!members.contains(&NodeId(1)));
                assert!(!members.contains(&NodeId(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn split_follows_algorithm_1() {
        let mut st = state_with_nodes(4, 0);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 0,
            })
            .unwrap();
        let vid = out.volume.unwrap();
        let pid = st.volume(vid).unwrap().meta_partitions[0];

        // Report usage: maxInodeID = 500.
        round(
            &mut st,
            vec![],
            vec![stats(pid, 800, 500, InodeId::MAX, 800)],
            vec![],
        );

        let out = st
            .apply(&MasterCommand::SplitMetaPartition { partition: pid })
            .unwrap();
        assert_eq!(out.tasks.len(), 2);
        let delta = SPLIT_DELTA;
        match &out.tasks[0] {
            Task::UpdateMetaPartitionEnd { end, .. } => {
                assert_eq!(*end, InodeId(500 + delta), "end = maxInodeID + Δ");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &out.tasks[1] {
            Task::CreateMetaPartition { start, end, .. } => {
                assert_eq!(*start, InodeId(501 + delta));
                assert_eq!(*end, InodeId::MAX);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Original is now bounded; splitting it again is a no-op (line 6).
        let out = st
            .apply(&MasterCommand::SplitMetaPartition { partition: pid })
            .unwrap();
        assert!(out.tasks.is_empty());
    }

    #[test]
    fn maintenance_auto_splits_and_refills() {
        let mut st = state_with_nodes(4, 4);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 2,
            })
            .unwrap();
        let vid = out.volume.unwrap();
        let mpid = st.volume(vid).unwrap().meta_partitions[0];
        let dpids = st.volume(vid).unwrap().data_partitions.clone();

        // Nothing to do yet.
        assert!(round(&mut st, vec![], vec![], vec![]).tasks.is_empty());

        // Meta partition hits the item limit → auto-split; all data
        // partitions full → refill.
        let limit = st.config().meta_partition_item_limit;
        let out = round(
            &mut st,
            vec![],
            vec![stats(mpid, limit, 42, InodeId::MAX, 0)],
            dpids,
        );
        let splits = out
            .tasks
            .iter()
            .filter(|t| matches!(t, Task::UpdateMetaPartitionEnd { .. }))
            .count();
        let new_data = out
            .tasks
            .iter()
            .filter(|t| matches!(t, Task::CreateDataPartition { .. }))
            .count();
        assert_eq!(splits, 1);
        assert_eq!(new_data, st.config().partitions_per_allocation);
        assert_eq!(
            st.volume(vid).unwrap().data_partitions.len(),
            2 + st.config().partitions_per_allocation
        );
    }

    #[test]
    fn write_load_triggers_maintenance_split() {
        let mut st = MasterState::new(ClusterConfig {
            meta_partition_write_load_limit: 50,
            ..ClusterConfig::default()
        });
        for i in 1..=4u64 {
            st.apply(&MasterCommand::RegisterNode {
                node: NodeId(i),
                kind: NodeKind::Meta,
            })
            .unwrap();
        }
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 0,
            })
            .unwrap();
        let pid = st.volume(out.volume.unwrap()).unwrap().meta_partitions[0];

        // Far below the item limit but applying entries fast: the delta
        // between successive reports crosses the write-load limit.
        let out = round(
            &mut st,
            vec![],
            vec![stats(pid, 10, 10, InodeId::MAX, 30)],
            vec![],
        );
        assert_eq!(st.meta_partition(pid).unwrap().write_load, 30);
        assert!(out.tasks.is_empty());
        let out = round(
            &mut st,
            vec![],
            vec![stats(pid, 12, 12, InodeId::MAX, 100)],
            vec![],
        );
        assert_eq!(st.meta_partition(pid).unwrap().write_load, 70);
        assert!(out
            .tasks
            .iter()
            .any(|t| matches!(t, Task::UpdateMetaPartitionEnd { .. })));
        assert!(out
            .tasks
            .iter()
            .any(|t| matches!(t, Task::CreateMetaPartition { .. })));
    }

    #[test]
    fn maintenance_reemits_unacknowledged_cut_and_lost_create() {
        let mut st = state_with_nodes(4, 0);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 0,
            })
            .unwrap();
        let vid = out.volume.unwrap();
        let pid = st.volume(vid).unwrap().meta_partitions[0];

        round(
            &mut st,
            vec![],
            vec![stats(pid, 5, 5, InodeId::MAX, 5)],
            vec![],
        );
        st.apply(&MasterCommand::SplitMetaPartition { partition: pid })
            .unwrap();
        let created = st.heartbeat_round();
        let cut = st.meta_partition(pid).unwrap().end;
        let succ = st.volume(vid).unwrap().meta_partitions[1];
        assert_ne!(cut, InodeId::MAX);

        // The replicas never saw the cut (reported_end still MAX): every
        // sweep re-emits the UpdateMetaPartitionEnd task until they do.
        let out = round(&mut st, vec![], vec![], vec![]);
        assert!(out.tasks.iter().any(|t| matches!(
            t,
            Task::UpdateMetaPartitionEnd { partition, end, .. }
                if *partition == pid && *end == cut
        )));

        // Acknowledge the cut: reconciliation goes quiet for it.
        let out = round(&mut st, vec![], vec![stats(pid, 5, 5, cut, 6)], vec![]);
        assert!(!out
            .tasks
            .iter()
            .any(|t| matches!(t, Task::UpdateMetaPartitionEnd { .. })));

        // The successor's create task was lost (master crash before task
        // delivery): it never reports, and the sweep UNREPORTED_ROUNDS
        // rounds after its creation re-creates it. The predecessor keeps
        // reporting.
        let mut out = ApplyOutcome::default();
        while st.heartbeat_round() < created + UNREPORTED_ROUNDS {
            out = round(&mut st, vec![], vec![stats(pid, 5, 5, cut, 6)], vec![]);
        }
        let recreates: Vec<_> = out
            .tasks
            .iter()
            .filter(|t| matches!(t, Task::CreateMetaPartition { .. }))
            .collect();
        assert_eq!(recreates.len(), 1);
        match recreates[0] {
            Task::CreateMetaPartition {
                partition,
                start,
                end,
                ..
            } => {
                assert_eq!(*partition, succ);
                assert_eq!(*start, cut.next());
                assert_eq!(*end, InodeId::MAX);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn members_in_one_set_classifies_placements() {
        let st = state_with_nodes(12, 0);
        // raft_set_size = 5: 1–5 → set 0, 6–10 → set 1.
        assert!(st.members_in_one_set(&[NodeId(1), NodeId(2), NodeId(5)]));
        assert!(!st.members_in_one_set(&[NodeId(1), NodeId(6)]));
        assert!(!st.members_in_one_set(&[]));
    }

    #[test]
    fn timeout_marks_read_only_with_task() {
        let mut st = state_with_nodes(0, 4);
        let out = st.apply(&MasterCommand::CreateVolume {
            name: "v".into(),
            meta_partition_count: 1,
            data_partition_count: 1,
        });
        // No meta nodes: volume creation fails deterministically.
        assert!(out.is_err());

        let mut st = state_with_nodes(3, 4);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 1,
            })
            .unwrap();
        let dpid = st.volume(out.volume.unwrap()).unwrap().data_partitions[0];
        let out = st
            .apply(&MasterCommand::ReportPartitionTimeout { partition: dpid })
            .unwrap();
        assert!(matches!(
            out.tasks[0],
            Task::SetDataPartitionReadOnly {
                read_only: true,
                ..
            }
        ));
        assert!(st.data_partition(dpid).unwrap().read_only);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut st = state_with_nodes(5, 5);
        st.apply(&MasterCommand::CreateVolume {
            name: "v1".into(),
            meta_partition_count: 2,
            data_partition_count: 3,
        })
        .unwrap();
        // Exercise the self-healing fields too: a heartbeat round with
        // stats and misses, and an in-flight join.
        st.apply(&MasterCommand::Heartbeat {
            reporting: st
                .nodes_of_kind(NodeKind::Meta)
                .iter()
                .map(|n| n.node)
                .collect(),
            utilization: vec![(NodeId(3), 777)],
            meta: vec![stats(PartitionId(1), 9, 9, InodeId(1 << 32), 9)],
            full: vec![PartitionId(3)],
        })
        .unwrap();
        st.pending_joins.insert(PartitionId(3), NodeId(105));
        let bytes = st.snapshot_bytes();
        let back = MasterState::from_snapshot(ClusterConfig::default(), &bytes).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn commands_roundtrip_codec() {
        use cfs_types::codec::roundtrip;
        let cmds = vec![
            MasterCommand::RegisterNode {
                node: NodeId(1),
                kind: NodeKind::Data,
            },
            MasterCommand::ReportPartitionTimeout {
                partition: PartitionId(2),
            },
            MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 2,
            },
            MasterCommand::SplitMetaPartition {
                partition: PartitionId(1),
            },
            MasterCommand::Heartbeat {
                reporting: vec![NodeId(1), NodeId(101)],
                utilization: vec![(NodeId(1), 42), (NodeId(101), 1 << 40)],
                meta: vec![stats(PartitionId(1), 10, 5, InodeId(7), 99)],
                full: vec![PartitionId(2)],
            },
            MasterCommand::Heartbeat {
                reporting: vec![],
                utilization: vec![],
                meta: vec![],
                full: vec![],
            },
            MasterCommand::RepairTick,
            MasterCommand::ConfirmReplicaJoined {
                partition: PartitionId(3),
                node: NodeId(104),
            },
        ];
        for c in cmds {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
        assert!(MasterCommand::from_bytes(&[99]).is_err());
    }

    #[test]
    fn retired_command_tags_decode_to_corrupt() {
        // The per-report heartbeat commands, the maintenance trigger, the
        // orphan-sweep tally and two never-proposed commands were retired;
        // a log that still holds one is refused, not misread.
        for tag in [1u8, 2, 3, 4, 7, 9, 10, 13] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&NodeId(1).to_bytes());
            bytes.extend_from_slice(&7u64.to_le_bytes());
            assert!(
                matches!(MasterCommand::from_bytes(&bytes), Err(CfsError::Corrupt(_))),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn registration_is_idempotent() {
        let mut st = MasterState::new(ClusterConfig::default());
        for _ in 0..3 {
            st.apply(&MasterCommand::RegisterNode {
                node: NodeId(1),
                kind: NodeKind::Meta,
            })
            .unwrap();
        }
        assert_eq!(st.nodes_of_kind(NodeKind::Meta).len(), 1);
        assert_eq!(st.node(NodeId(1)).unwrap().raft_set, 0);
    }

    /// One heartbeat round in which every registered node except `absent`
    /// reports.
    fn miss_round(st: &mut MasterState, absent: NodeId) {
        let reporting: Vec<NodeId> = st.nodes.keys().copied().filter(|&n| n != absent).collect();
        st.apply(&MasterCommand::Heartbeat {
            reporting,
            utilization: vec![],
            meta: vec![],
            full: vec![],
        })
        .unwrap();
    }

    #[test]
    fn missed_heartbeats_drive_suspect_then_dead() {
        let mut st = state_with_nodes(3, 4);
        round(&mut st, vec![], vec![], vec![]);
        assert_eq!(st.heartbeat_round(), 1);
        let victim = NodeId(101);
        assert_eq!(st.node(victim).unwrap().missed_heartbeats, 0);

        // Default thresholds: suspect at 2 misses, dead at 3.
        miss_round(&mut st, victim);
        let n = st.node(victim).unwrap();
        assert!(!n.is_suspect() && !n.is_dead());

        miss_round(&mut st, victim);
        let n = st.node(victim).unwrap();
        assert!(n.is_suspect() && !n.is_dead());
        // Suspects are no longer placement targets.
        assert!(st
            .loads(NodeKind::Data)
            .iter()
            .all(|l| l.node != victim || !l.alive));

        miss_round(&mut st, victim);
        let n = st.node(victim).unwrap();
        assert!(n.is_dead());

        // A node that comes back fully recovers.
        round(&mut st, vec![], vec![], vec![]);
        let n = st.node(victim).unwrap();
        assert!(!n.is_dead() && n.missed_heartbeats == 0 && !n.is_suspect());
    }

    #[test]
    fn repair_replaces_dead_data_member_and_confirm_restores() {
        let mut st = state_with_nodes(3, 4);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 1,
            })
            .unwrap();
        let vid = out.volume.unwrap();
        let dpid = st.volume(vid).unwrap().data_partitions[0];
        let members = st.data_partition(dpid).unwrap().members.clone();
        let victim = members[2]; // a non-head member
        let spare = (101..=104)
            .map(NodeId)
            .find(|n| !members.contains(n))
            .unwrap();

        for _ in 0..DEAD_AFTER_MISSED {
            miss_round(&mut st, victim);
        }
        let out = st.apply(&MasterCommand::RepairTick).unwrap();
        assert_eq!(out.tasks.len(), 1);
        match &out.tasks[0] {
            Task::ReplaceReplica {
                kind: NodeKind::Data,
                partition,
                members: new_members,
                dead,
                new_node,
                ..
            } => {
                assert_eq!(*partition, dpid);
                assert_eq!(*dead, victim);
                assert_eq!(*new_node, spare);
                assert!(!new_members.contains(&victim));
                assert_eq!(new_members[0], members[0], "head unchanged");
                assert_eq!(*new_members.last().unwrap(), spare);
            }
            other => panic!("unexpected {other:?}"),
        }
        let dp = st.data_partition(dpid).unwrap();
        assert!(dp.read_only, "routed read-only while the join is in flight");
        assert!(!dp.members.contains(&victim));
        assert_eq!(st.pending_joins().get(&dpid), Some(&spare));

        // A second sweep must not replan the pending partition.
        let out = st.apply(&MasterCommand::RepairTick).unwrap();
        assert!(out.tasks.is_empty());

        // A stale confirm (wrong node) is a no-op; the real one restores.
        st.apply(&MasterCommand::ConfirmReplicaJoined {
            partition: dpid,
            node: victim,
        })
        .unwrap();
        assert!(st.data_partition(dpid).unwrap().read_only);
        st.apply(&MasterCommand::ConfirmReplicaJoined {
            partition: dpid,
            node: spare,
        })
        .unwrap();
        assert!(!st.data_partition(dpid).unwrap().read_only);
        assert!(st.pending_joins().is_empty());
    }

    #[test]
    fn repair_promotes_survivor_when_chain_head_dies() {
        let mut st = state_with_nodes(3, 4);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 1,
            })
            .unwrap();
        let dpid = st.volume(out.volume.unwrap()).unwrap().data_partitions[0];
        let members = st.data_partition(dpid).unwrap().members.clone();
        let head = members[0];
        for _ in 0..DEAD_AFTER_MISSED {
            miss_round(&mut st, head);
        }
        st.apply(&MasterCommand::RepairTick).unwrap();
        let dp = st.data_partition(dpid).unwrap();
        assert_eq!(dp.members[0], members[1], "next survivor promoted to head");
        assert!(!dp.members.contains(&head));
        assert_eq!(dp.members.len(), members.len());
    }

    #[test]
    fn repair_handles_meta_partitions_and_respects_budget() {
        let mut st = MasterState::new(ClusterConfig {
            max_repairs_per_tick: 1,
            ..ClusterConfig::default()
        });
        for i in 1..=4u64 {
            st.apply(&MasterCommand::RegisterNode {
                node: NodeId(i),
                kind: NodeKind::Meta,
            })
            .unwrap();
        }
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 2,
                data_partition_count: 0,
            })
            .unwrap();
        let vid = out.volume.unwrap();
        // Find a node serving both meta partitions, if any; otherwise any
        // member of the first.
        let mps = st.volume_meta_partitions(vid);
        assert_eq!(mps.len(), 2);
        let victim = mps[0].members[0];
        let degraded_before: Vec<PartitionId> = mps
            .iter()
            .filter(|p| p.members.contains(&victim))
            .map(|p| p.partition)
            .collect();
        for _ in 0..DEAD_AFTER_MISSED {
            miss_round(&mut st, victim);
        }
        let out = st.apply(&MasterCommand::RepairTick).unwrap();
        // Budget of 1: exactly one replacement per sweep.
        assert_eq!(out.tasks.len(), 1);
        match &out.tasks[0] {
            Task::ReplaceReplica {
                kind: NodeKind::Meta,
                partition,
                start,
                end,
                members,
                dead,
                new_node,
                ..
            } => {
                assert_eq!(*dead, victim);
                let mp = st.meta_partition(*partition).unwrap();
                assert_eq!((mp.start, mp.end), (*start, *end));
                assert_eq!(&mp.members, members);
                assert!(!members.contains(&victim));
                assert_eq!(members.last(), Some(new_node));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Remaining degraded partitions are picked up by later sweeps.
        if degraded_before.len() > 1 {
            let out = st.apply(&MasterCommand::RepairTick).unwrap();
            assert_eq!(out.tasks.len(), 1);
        }
    }

    #[test]
    fn repair_waits_when_no_spare_node_exists() {
        let mut st = state_with_nodes(3, 3);
        let out = st
            .apply(&MasterCommand::CreateVolume {
                name: "v".into(),
                meta_partition_count: 1,
                data_partition_count: 1,
            })
            .unwrap();
        let dpid = st.volume(out.volume.unwrap()).unwrap().data_partitions[0];
        let members = st.data_partition(dpid).unwrap().members.clone();
        for _ in 0..DEAD_AFTER_MISSED {
            miss_round(&mut st, members[1]);
        }
        let out = st.apply(&MasterCommand::RepairTick).unwrap();
        assert!(out.tasks.is_empty(), "no replacement host available");
        assert_eq!(st.data_partition(dpid).unwrap().members, members);
        assert!(st.pending_joins().is_empty());

        // Register a spare and the next sweep repairs.
        st.apply(&MasterCommand::RegisterNode {
            node: NodeId(104),
            kind: NodeKind::Data,
        })
        .unwrap();
        let out = st.apply(&MasterCommand::RepairTick).unwrap();
        assert_eq!(out.tasks.len(), 1);
        assert_eq!(st.pending_joins().get(&dpid), Some(&NodeId(104)));
    }
}
