//! The data node: partitions, chain replication, Raft overwrites,
//! recovery.
//!
//! A hosted partition is one [`Hosted`] entry in one map: its replica and
//! its chain-ordering state. A request fetches the entry once under the
//! map's read lock and from then on locks only that partition; the lock
//! order is stated at [`Hosted`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use cfs_kvwal::{LsmEngine, LsmOptions};
use cfs_net::Network;
use cfs_obs::{Registry, RequestId, RpcRoute, Span};
use cfs_raft::hub::{RaftHost, RaftHub};
use cfs_raft::{
    leader_read, GroupCommit, MultiRaft, RaftConfig, ReadPath, WireEnvelope, COMMIT_TIMEOUT_TICKS,
};
use cfs_store::{SmallFileLocation, StoreMetrics};
use cfs_types::codec::{Decode, Encode};
use cfs_types::crc::crc32;
use cfs_types::{CfsError, ExtentId, NodeId, PartitionId, RaftGroupId, Result, VolumeId};

use crate::command::DataCommand;
use crate::metrics::{DataLatency, DataMetrics};
use crate::replica::{DataPartitionReplica, DeleteTask, PartitionStats, ReplicaCf};

/// Size/CRC/watermark facts about one extent on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentInfo {
    pub extent: ExtentId,
    pub size: u64,
    pub committed: u64,
    pub crc: u32,
}

/// RPCs a data node serves. Write requests carry the full replica array
/// (§2.7.1: the client got it from the resource manager and sends to index
/// 0); each node forwards to its downstream successor.
#[derive(Debug, Clone)]
pub enum DataRequest {
    /// Resource-manager task: host a replica of a new partition.
    CreatePartition {
        partition: PartitionId,
        volume: VolumeId,
        members: Vec<NodeId>,
        small_extent_rotate_at: u64,
        extent_limit: u64,
    },
    /// Allocate a fresh extent (large-file write path). Sent to the PB
    /// leader, which picks the id and chain-replicates the creation.
    CreateExtent { partition: PartitionId },
    /// Chain-internal: create an extent with a known id.
    CreateExtentAt {
        partition: PartitionId,
        extent: ExtentId,
        replicas: Vec<NodeId>,
    },
    /// Sequential-write packet (§2.7.1): append at the extent watermark.
    Append {
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: Bytes,
        crc: u32,
        replicas: Vec<NodeId>,
        /// Causal request id for cross-stack tracing (0 = untraced).
        /// Propagated down the chain so one client op can be followed
        /// client → net → every chain hop.
        request_id: u64,
    },
    /// Small-file write (§2.2.3, DESIGN §13): the PB leader packs every
    /// record into the shared extent(s) in one store call and
    /// chain-replicates each aggregated segment as a single append. A
    /// lone small write is a batch of one record. A mid-batch chain
    /// failure commits a prefix of whole records; the reply's location
    /// vector is exactly that committed prefix.
    WriteSmallBatch {
        partition: PartitionId,
        records: Vec<Bytes>,
        replicas: Vec<NodeId>,
    },
    /// In-place overwrite, Raft-replicated (§2.2.4). Sent to the Raft
    /// leader.
    Overwrite {
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: Bytes,
    },
    /// Read committed bytes (§2.7.4). Only the partition's Raft leader
    /// answers ([`cfs_raft::leader_read`]); a follower answers `NotLeader`
    /// with its leader hint.
    Read {
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        len: u64,
        /// Clamp to the PB-committed watermark (true on the PB leader).
        enforce_committed: bool,
    },
    /// Extent facts (recovery, scrubbing).
    ExtentInfo {
        partition: PartitionId,
        extent: ExtentId,
    },
    /// Queue deletions (§2.7.3), chain-replicated: every hop forwards the
    /// whole list first, then queues it with one write of its queue row.
    /// The client sends one per data partition per cleanup.
    QueueDeletes {
        partition: PartitionId,
        tasks: Vec<DeleteTask>,
        replicas: Vec<NodeId>,
    },
    /// Run the background deletion pass on one partition.
    ProcessDeletes { partition: PartitionId },
    /// Resource-manager task: mark the partition read-only (§2.3.3).
    SetReadOnly { partition: PartitionId, ro: bool },
    /// Recovery-internal: truncate an extent to align replicas (§2.2.5).
    TruncateExtent {
        partition: PartitionId,
        extent: ExtentId,
        size: u64,
    },
    /// PB-leader recovery (§2.2.5): align every extent across replicas,
    /// then Raft replay proceeds. A newly promoted chain head names the
    /// `survivors` whose applied sizes bound each extent's committed
    /// watermark, since only the old head's extent rows held one; empty
    /// keeps the head's own watermarks.
    Recover {
        partition: PartitionId,
        survivors: Vec<NodeId>,
    },
    /// Repair (§2.3.3): adopt a post-repair replica array (survivors in
    /// chain order, replacement appended); the partition's Raft group
    /// changes its member list in place.
    UpdateMembers {
        partition: PartitionId,
        members: Vec<NodeId>,
    },
    /// Utilization report (heartbeat body).
    Report,
}

impl RpcRoute for DataRequest {
    fn route(&self) -> &'static str {
        match self {
            DataRequest::CreatePartition { .. } => "data.create_partition",
            DataRequest::CreateExtent { .. } => "data.create_extent",
            DataRequest::CreateExtentAt { .. } => "data.create_extent_at",
            DataRequest::Append { .. } => "data.append",
            DataRequest::WriteSmallBatch { .. } => "data.write_small",
            DataRequest::Overwrite { .. } => "data.overwrite",
            DataRequest::Read { .. } => "data.read",
            DataRequest::ExtentInfo { .. } => "data.extent_info",
            DataRequest::QueueDeletes { .. } => "data.queue_deletes",
            DataRequest::ProcessDeletes { .. } => "data.process_deletes",
            DataRequest::SetReadOnly { .. } => "data.set_read_only",
            DataRequest::TruncateExtent { .. } => "data.truncate_extent",
            DataRequest::Recover { .. } => "data.recover",
            DataRequest::UpdateMembers { .. } => "data.update_members",
            DataRequest::Report => "data.report",
        }
    }

    fn request_id(&self) -> u64 {
        match self {
            DataRequest::Append { request_id, .. } => *request_id,
            _ => 0,
        }
    }
}

/// Replies to [`DataRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum DataResponse {
    Created,
    Extent(ExtentId),
    /// New committed watermark after an append.
    Watermark(u64),
    /// Where each record of a `WriteSmallBatch` landed, in order. Shorter
    /// than the request's record vector after a mid-batch chain failure:
    /// the committed prefix (§2.2.5 semantics per sub-record).
    SmallBatch(Vec<SmallFileLocation>),
    /// The bytes of a `Read`: the store's read buffer itself, not a copy.
    Data(Bytes),
    Info(ExtentInfo),
    Report(Vec<PartitionStats>),
    /// Deletions executed by a background pass.
    Processed(usize),
    None,
}

/// A data node (§2.2): hosts data partition replicas, speaks both
/// replication protocols, and serves the client data path.
pub struct DataNode {
    id: NodeId,
    hub: RaftHub,
    net: Network<DataRequest, Result<DataResponse>>,
    /// Written only when a partition is created; requests clone the entry
    /// out under the read lock ([`DataNode::hosted`]).
    partitions: RwLock<HashMap<PartitionId, Arc<Hosted>>>,
    raft: Mutex<RaftState>,
    /// Bound when the node was opened `open_with_registry`; used for
    /// trace spans of traced requests.
    registry: Option<Registry>,
    metrics: DataMetrics,
    latency: DataLatency,
    /// Shared byte accounting for every hosted partition's extent store.
    store_metrics: StoreMetrics,
    /// Every replica, extent and raft group is written through to this
    /// engine; the node restores from its directory alone after power
    /// loss.
    engine: Arc<LsmEngine>,
}

struct RaftState {
    multiraft: MultiRaft,
    commits: GroupCommit<()>,
}

/// Everything the node keeps for one partition it hosts.
///
/// Lock order, node-wide: `raft` → partition map (read) → `replica`, and
/// within a partition `chain.seq` or `chain.small` → `replica`. Nothing
/// takes `raft`, the map or a `chain` lock while holding a `replica`;
/// nothing takes `raft` while holding the map's write lock; no `replica`
/// lock is held across a fabric call.
struct Hosted {
    replica: Mutex<DataPartitionReplica>,
    chain: ChainState,
}

impl Hosted {
    fn new(replica: DataPartitionReplica) -> Arc<Self> {
        Arc::new(Hosted {
            replica: Mutex::new(replica),
            chain: ChainState {
                seq: Mutex::new(ChainSeq {
                    next_ticket: 0,
                    forward_turn: 0,
                }),
                cv: Condvar::new(),
                small: Mutex::new(()),
            },
        })
    }
}

/// Per-partition chain-replication ordering at the PB leader (§2.7.1).
///
/// The fabric spawns no threads: a handler runs on its caller's thread,
/// so two appends to one partition overlap only when several OS threads
/// drive the same fabric. When they do, the leader must (a) apply them in
/// offset order and (b) forward them downstream in the same order — but
/// it does *not* need to hold packet k+1's apply back until packet k
/// finished its whole downstream round-trip. Each packet takes a *ticket*
/// the moment its local apply lands (applies are strictly ordered by the
/// extent's offset==size check), then forwards when `forward_turn`
/// reaches its ticket: packet k+1 applies locally while packet k is still
/// in flight down the chain.
struct ChainState {
    seq: Mutex<ChainSeq>,
    cv: Condvar,
    /// Small-file packing keeps the coarse critical section: placement is
    /// chosen by the shared extent's cursor inside the call, so pack +
    /// forward must stay serial (§2.2.3).
    small: Mutex<()>,
}

struct ChainSeq {
    /// Next ticket to hand out (assigned in local-apply order).
    next_ticket: u64,
    /// Ticket currently allowed to forward downstream.
    forward_turn: u64,
}

/// How long the chain head waits for a predecessor packet to fill an
/// offset gap before failing the out-of-order packet.
const CHAIN_GAP_TIMEOUT: Duration = Duration::from_secs(1);

/// Advances the forward turn on drop, so a forwarding error (or panic)
/// can never wedge the successors' turn wait.
struct TurnGuard<'a> {
    state: &'a ChainState,
    ticket: u64,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut seq = self.state.seq.lock();
        seq.forward_turn = self.ticket + 1;
        drop(seq);
        self.state.cv.notify_all();
    }
}

impl DataNode {
    /// Open a data node at `dir` and register it on the raft hub (the
    /// caller registers it on `net`, so tests can interpose), restoring
    /// every hosted partition (replica meta, extent bytes, raft group
    /// state) from the directory's LSM engine. A fresh directory yields an
    /// empty node; after power loss the node comes back with all
    /// acknowledged state.
    pub fn open(
        id: NodeId,
        hub: RaftHub,
        net: Network<DataRequest, Result<DataResponse>>,
        dir: &Path,
        raft_config: RaftConfig,
        seed: u64,
    ) -> Result<Arc<Self>> {
        Self::open_with_registry(id, hub, net, dir, raft_config, seed, None)
    }

    /// [`DataNode::open`] with metrics bound to `registry`: chain/raft/store
    /// counters (`data.*`, `raft.*`, `store.*`), the engine's `kvwal.*`
    /// counters, plus trace spans for traced requests.
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_registry(
        id: NodeId,
        hub: RaftHub,
        net: Network<DataRequest, Result<DataResponse>>,
        dir: &Path,
        raft_config: RaftConfig,
        seed: u64,
        registry: Option<&Registry>,
    ) -> Result<Arc<Self>> {
        let engine = Arc::new(LsmEngine::open_with_registry(
            dir,
            LsmOptions::default(),
            registry,
        )?);
        let mut multiraft = MultiRaft::persistent(id, raft_config, seed, engine.clone(), registry);
        let store_metrics: StoreMetrics = registry.map(StoreMetrics::bind).unwrap_or_default();
        let mut partitions = HashMap::new();
        for (pid_raw, _) in engine.scan::<ReplicaCf>()? {
            let pid = PartitionId(pid_raw);
            let mut replica = DataPartitionReplica::restore(pid, engine.clone())?;
            replica.set_store_metrics(store_metrics.clone());
            multiraft.rehost_group(Self::group_of(pid), replica.members().to_vec())?;
            partitions.insert(pid, Hosted::new(replica));
        }
        let node = Arc::new(DataNode {
            id,
            hub: hub.clone(),
            net,
            partitions: RwLock::new(partitions),
            raft: Mutex::new(RaftState {
                multiraft,
                commits: GroupCommit::default(),
            }),
            registry: registry.cloned(),
            metrics: registry.map(DataMetrics::bind).unwrap_or_default(),
            latency: registry.map(DataLatency::bind).unwrap_or_default(),
            store_metrics,
            engine,
        });
        hub.register(node.clone() as Arc<dyn RaftHost>);
        Ok(node)
    }

    /// Open a trace span for `req` if the node has a registry and the
    /// request carries a nonzero causal id.
    fn span_for(&self, req: &DataRequest) -> Option<Span> {
        let registry = self.registry.as_ref()?;
        let rid = RequestId(req.request_id());
        rid.is_traced()
            .then(|| registry.tracer().span(rid, "data", req.route()))
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn group_of(partition: PartitionId) -> RaftGroupId {
        RaftGroupId(partition.raw())
    }

    /// Downstream successor of this node in a replica chain.
    fn next_in_chain(&self, replicas: &[NodeId]) -> Option<NodeId> {
        replicas
            .iter()
            .position(|&n| n == self.id)
            .and_then(|i| replicas.get(i + 1))
            .copied()
    }

    /// Handle one RPC (the `cfs-net` service entry point).
    pub fn handle(&self, req: DataRequest) -> Result<DataResponse> {
        let _span = self.span_for(&req);
        match req {
            DataRequest::CreatePartition {
                partition,
                volume,
                members,
                small_extent_rotate_at,
                extent_limit,
            } => {
                self.create_partition(
                    partition,
                    volume,
                    members,
                    small_extent_rotate_at,
                    extent_limit,
                )?;
                Ok(DataResponse::Created)
            }
            DataRequest::CreateExtent { partition } => {
                let (extent, replicas) = {
                    let hosted = self.hosted(partition)?;
                    let mut r = hosted.replica.lock();
                    if r.pb_leader() != self.id {
                        return Err(CfsError::NotLeader {
                            partition,
                            hint: Some(r.pb_leader()),
                        });
                    }
                    (r.allocate_extent()?, r.members().to_vec())
                };
                self.forward_chain(
                    &replicas,
                    DataRequest::CreateExtentAt {
                        partition,
                        extent,
                        replicas: replicas.clone(),
                    },
                )?;
                Ok(DataResponse::Extent(extent))
            }
            DataRequest::CreateExtentAt {
                partition,
                extent,
                replicas,
            } => {
                {
                    let hosted = self.hosted(partition)?;
                    let mut r = hosted.replica.lock();
                    // Idempotent for chain retries.
                    if !r.has_extent(extent) {
                        r.create_extent(extent)?;
                    }
                }
                self.forward_chain(
                    &replicas,
                    DataRequest::CreateExtentAt {
                        partition,
                        extent,
                        replicas: replicas.clone(),
                    },
                )?;
                Ok(DataResponse::Created)
            }
            DataRequest::Append {
                partition,
                extent,
                offset,
                data,
                crc,
                replicas,
                request_id,
            } => self.handle_append(partition, extent, offset, data, crc, replicas, request_id),
            DataRequest::WriteSmallBatch {
                partition,
                records,
                replicas,
            } => self.handle_write_small_batch(partition, records, replicas),
            DataRequest::Overwrite {
                partition,
                extent,
                offset,
                data,
            } => {
                self.handle_overwrite(partition, extent, offset, &data)?;
                Ok(DataResponse::None)
            }
            DataRequest::Read {
                partition,
                extent,
                offset,
                len,
                enforce_committed,
            } => {
                let group = Self::group_of(partition);
                let (_, path) =
                    leader_read(&self.hub, group, || self.raft.lock(), |r| &mut r.multiraft)?;
                let hosted = self.hosted(partition)?;
                let r = hosted.replica.lock();
                let data = r.read(extent, offset, len as usize, enforce_committed)?;
                match path {
                    ReadPath::Lease => self.metrics.lease_reads.inc(),
                    ReadPath::Quorum => self.metrics.quorum_reads.inc(),
                }
                Ok(DataResponse::Data(Bytes::from(data)))
            }
            DataRequest::ExtentInfo { partition, extent } => {
                let hosted = self.hosted(partition)?;
                let mut r = hosted.replica.lock();
                let size = r.extent_size(extent)?;
                let committed = r.committed(extent);
                let crc = r.extent_crc(extent)?;
                Ok(DataResponse::Info(ExtentInfo {
                    extent,
                    size,
                    committed,
                    crc,
                }))
            }
            // A chain-replicated delete is queued here only once every
            // successor queued it: a lost forward leaves no replica
            // deleting alone, so the replicas stay byte-identical.
            DataRequest::QueueDeletes {
                partition,
                tasks,
                replicas,
            } => {
                let hosted = self.hosted(partition)?;
                self.forward_chain(
                    &replicas,
                    DataRequest::QueueDeletes {
                        partition,
                        tasks: tasks.clone(),
                        replicas: replicas.clone(),
                    },
                )?;
                hosted.replica.lock().queue_deletes(&tasks)?;
                Ok(DataResponse::None)
            }
            DataRequest::ProcessDeletes { partition } => {
                let hosted = self.hosted(partition)?;
                let n = hosted.replica.lock().process_delete_queue()?;
                Ok(DataResponse::Processed(n))
            }
            DataRequest::SetReadOnly { partition, ro } => {
                let hosted = self.hosted(partition)?;
                hosted.replica.lock().set_read_only(ro)?;
                Ok(DataResponse::None)
            }
            DataRequest::TruncateExtent {
                partition,
                extent,
                size,
            } => {
                let hosted = self.hosted(partition)?;
                hosted.replica.lock().truncate(extent, size)?;
                Ok(DataResponse::None)
            }
            DataRequest::Recover {
                partition,
                survivors,
            } => {
                let repaired = self.recover_partition(partition, &survivors)?;
                Ok(DataResponse::Processed(repaired))
            }
            DataRequest::UpdateMembers { partition, members } => {
                self.update_members(partition, members)?;
                Ok(DataResponse::None)
            }
            DataRequest::Report => {
                let parts = self.partitions.read();
                let mut stats: Vec<PartitionStats> =
                    parts.values().map(|h| h.replica.lock().stats()).collect();
                stats.sort_by_key(|s| s.partition_id);
                Ok(DataResponse::Report(stats))
            }
        }
    }

    /// The entry of a hosted partition, fetched once per request.
    fn hosted(&self, pid: PartitionId) -> Result<Arc<Hosted>> {
        self.partitions
            .read()
            .get(&pid)
            .cloned()
            .ok_or_else(|| CfsError::NotFound(format!("{pid}")))
    }

    /// Create a partition replica (idempotent for RM task retries).
    pub fn create_partition(
        &self,
        partition: PartitionId,
        volume: VolumeId,
        members: Vec<NodeId>,
        small_extent_rotate_at: u64,
        extent_limit: u64,
    ) -> Result<()> {
        // `raft` comes first in the lock order and serialises creation.
        let mut raft = self.raft.lock();
        if let Ok(existing) = self.hosted(partition) {
            if existing.replica.lock().members() == members.as_slice() {
                return Ok(());
            }
            return Err(CfsError::Exists(format!("{partition}")));
        }
        let group = Self::group_of(partition);
        raft.multiraft.create_group(group, members.clone())?;
        // The chain head campaigns at once, so the node clients send
        // appends to also leads the group that serves reads and overwrites.
        let head = members.first() == Some(&self.id);
        if let Some(g) = raft.multiraft.group_mut(group).filter(|_| head) {
            g.campaign();
        }
        let mut replica = DataPartitionReplica::new_persistent(
            partition,
            volume,
            members,
            small_extent_rotate_at,
            extent_limit,
            self.engine.clone(),
        )?;
        replica.set_store_metrics(self.store_metrics.clone());
        self.partitions
            .write()
            .insert(partition, Hosted::new(replica));
        Ok(())
    }

    /// Forward a chain request to this node's successor, if any.
    fn forward_chain(&self, replicas: &[NodeId], req: DataRequest) -> Result<()> {
        if let Some(next) = self.next_in_chain(replicas) {
            self.metrics.chain_forwards.inc();
            self.net.call(self.id, next, req)??;
        }
        Ok(())
    }

    /// Primary-backup append (§2.7.1 steps 3–7): apply locally — the store
    /// verifies the packet's CRC in the one pass that also folds it into
    /// the extent's CRC — forward down the chain; the PB leader advances
    /// the committed watermark only after the whole chain acked.
    #[allow(clippy::too_many_arguments)]
    fn handle_append(
        &self,
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: Bytes,
        crc: u32,
        replicas: Vec<NodeId>,
        request_id: u64,
    ) -> Result<DataResponse> {
        let hosted = self.hosted(partition)?;
        let am_chain_head = replicas.first() == Some(&self.id);
        if !am_chain_head {
            // Followers receive already-ordered traffic from the chain
            // head: validate, apply, forward — no ordering machinery.
            {
                let mut r = hosted.replica.lock();
                if r.pb_leader() == self.id {
                    return Err(CfsError::InvalidArgument(
                        "replica array does not start at the PB leader".into(),
                    ));
                }
                if !replicas.contains(&self.id) {
                    return Err(CfsError::InvalidArgument(format!(
                        "{}: not in replica chain",
                        self.id
                    )));
                }
                r.apply_append(extent, offset, &data, crc)?;
                self.metrics.chain_applies.inc();
            }
            self.forward_chain(
                &replicas,
                DataRequest::Append {
                    partition,
                    extent,
                    offset,
                    data: data.clone(),
                    crc,
                    replicas: replicas.clone(),
                    request_id,
                },
            )?;
            return Ok(DataResponse::Watermark(offset + data.len() as u64));
        }

        // Chain head: pipelined apply + ordered forwarding. When several
        // threads drive the fabric, packets of one window can reach this
        // handler out of order; apply order is enforced by waiting
        // (bounded) until our offset meets the extent's applied size, and
        // forward order by the ticket turn. `chain.seq` → `replica`.
        let state = &hosted.chain;
        let deadline = Instant::now() + CHAIN_GAP_TIMEOUT;
        // Set on the first gap wait; its elapsed time feeds the stall
        // histogram once our turn arrives.
        let mut gap_wait_started: Option<Instant> = None;
        let (ticket, is_pb_leader) = {
            let mut seq = state.seq.lock();
            loop {
                {
                    let mut r = hosted.replica.lock();
                    let leader = r.pb_leader();
                    if leader != self.id && !replicas.contains(&self.id) {
                        return Err(CfsError::InvalidArgument(format!(
                            "{}: not in replica chain",
                            self.id
                        )));
                    }
                    if offset <= r.extent_size(extent).unwrap_or(0) {
                        // Our turn (or a misordered duplicate, which the
                        // strict offset==size append check rejects).
                        r.apply_append(extent, offset, &data, crc)?;
                        self.metrics.chain_applies.inc();
                        let ticket = seq.next_ticket;
                        seq.next_ticket += 1;
                        break (ticket, leader == self.id);
                    }
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(CfsError::Timeout(format!(
                        "{partition}: chain gap before offset {offset} of {extent}"
                    )));
                }
                if gap_wait_started.is_none() {
                    gap_wait_started = Some(Instant::now());
                    self.metrics.gap_wait_stalls.inc();
                }
                state.cv.wait_for(&mut seq, remaining);
            }
        };
        if let Some(started) = gap_wait_started {
            self.latency.gap_wait_ns.record_duration(started.elapsed());
        }
        // Wake window peers blocked on the apply gap we just filled.
        state.cv.notify_all();
        let turn_guard = TurnGuard { state, ticket };

        // Forward in ticket order, outside every lock: packet k+1 applies
        // locally while we are still in flight down the chain. A
        // downstream failure leaves our local bytes as an uncommitted
        // stale tail (§2.2.5) and surfaces the error to the sender.
        let forward_res = {
            let mut seq = state.seq.lock();
            while seq.forward_turn != ticket {
                state.cv.wait(&mut seq);
            }
            drop(seq);
            self.forward_chain(
                &replicas,
                DataRequest::Append {
                    partition,
                    extent,
                    offset,
                    data: data.clone(),
                    crc,
                    replicas: replicas.clone(),
                    request_id,
                },
            )
        };
        drop(turn_guard); // advance the turn even if forwarding failed
        forward_res?;

        let new_watermark = offset + data.len() as u64;
        if is_pb_leader {
            hosted.replica.lock().commit(extent, new_watermark)?;
        }
        self.metrics.appends_served.inc();
        Ok(DataResponse::Watermark(new_watermark))
    }

    /// Small-file write at the PB leader (§2.2.3, DESIGN §13): pack every
    /// record into the shared extent(s) with one store call, forward each
    /// aggregated segment down the chain as a single append, and advance
    /// the watermark segment by segment. On a mid-batch chain failure the
    /// already-forwarded segments stay committed and the reply carries
    /// exactly that prefix of locations; if nothing committed, the error
    /// surfaces so the client can retry the whole batch elsewhere.
    fn handle_write_small_batch(
        &self,
        partition: PartitionId,
        records: Vec<Bytes>,
        replicas: Vec<NodeId>,
    ) -> Result<DataResponse> {
        if records.is_empty() {
            return Ok(DataResponse::SmallBatch(Vec::new()));
        }
        // Serialize pack + forward per partition (see [`ChainState`]).
        let hosted = self.hosted(partition)?;
        let _order_guard = hosted.chain.small.lock();
        let (locs, crcs, members) = {
            let mut r = hosted.replica.lock();
            if r.pb_leader() != self.id {
                return Err(CfsError::NotLeader {
                    partition,
                    hint: Some(r.pb_leader()),
                });
            }
            let views: Vec<&[u8]> = records.iter().map(|b| b.as_ref()).collect();
            let (locs, crcs) = r.write_small_batch(&views)?;
            (locs, crcs, r.members().to_vec())
        };
        let replicas = if replicas.is_empty() {
            members
        } else {
            replicas
        };
        // Locations are contiguous runs per extent by construction
        // (rotation starts a new run); each run is one segment the store
        // summed, one chain forward and one watermark commit.
        let mut crcs = crcs.into_iter();
        let mut committed_records = 0usize;
        let mut failure: Option<CfsError> = None;
        let mut i = 0usize;
        while i < locs.len() {
            let extent = locs[i].extent_id;
            let base = locs[i].offset;
            let mut seg_len = 0u64;
            let mut j = i;
            while j < locs.len() && locs[j].extent_id == extent && locs[j].offset == base + seg_len
            {
                seg_len += locs[j].len;
                j += 1;
            }
            // A lone record travels as the buffer the client sent.
            let payload = match &records[i..j] {
                [one] => one.clone(),
                many => {
                    let mut payload = Vec::with_capacity(seg_len as usize);
                    for rec in many {
                        payload.extend_from_slice(rec);
                    }
                    Bytes::from(payload)
                }
            };
            let crc = crcs
                .next()
                .ok_or_else(|| CfsError::Internal("small-file segment without a CRC".into()))?;
            let forwarded = self.forward_chain(
                &replicas,
                DataRequest::Append {
                    partition,
                    extent,
                    offset: base,
                    data: payload,
                    crc,
                    replicas: replicas.clone(),
                    request_id: 0,
                },
            );
            match forwarded {
                Ok(()) => {
                    hosted.replica.lock().commit(extent, base + seg_len)?;
                    committed_records = j;
                    self.metrics.small_batch_segments.inc();
                }
                Err(e) => {
                    // The failed segment is an uncommitted stale tail on
                    // this replica (§2.2.5); recovery truncates it.
                    failure = Some(e);
                    break;
                }
            }
            i = j;
        }
        if committed_records == 0 {
            if let Some(e) = failure {
                return Err(e);
            }
        }
        self.metrics.small_writes_served.inc();
        self.metrics
            .small_batch_records
            .add(committed_records as u64);
        Ok(DataResponse::SmallBatch(locs[..committed_records].to_vec()))
    }

    /// Raft-replicated overwrite: group-commit it and pump until its frame
    /// applies (§2.2.4).
    fn handle_overwrite(
        &self,
        partition: PartitionId,
        extent: ExtentId,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let group = Self::group_of(partition);
        let cmd = DataCommand::overwrite(extent, offset, data.to_vec());
        let ticket = {
            let mut raft = self.raft.lock();
            raft.multiraft
                .group(group)
                .ok_or_else(|| CfsError::NotFound(format!("{partition}")))?
                .require_leader()?;
            raft.commits.enqueue(group, cmd.to_bytes())
        };
        self.hub.pump_until(
            || self.raft.lock().commits.is_resolved(ticket),
            COMMIT_TIMEOUT_TICKS,
        );
        let mut raft = self.raft.lock();
        raft.commits.take(ticket).unwrap_or_else(|| {
            raft.commits.abandon(group, ticket);
            Err(CfsError::Timeout(format!(
                "{partition}: overwrite commit of ticket {ticket}"
            )))
        })
    }

    /// Recovery step 1 (§2.2.5): the PB leader aligns every extent across
    /// replicas — truncating stale tails above the committed watermark and
    /// re-shipping missing committed bytes. Raft replay (step 2) then
    /// proceeds through the normal MultiRaft machinery.
    ///
    /// A newly promoted head (non-empty `survivors`) first raises each
    /// extent's watermark to the minimum applied size across itself and
    /// the survivors: every chain-acked byte is present on all of them, so
    /// the minimum never cuts committed data, and `commit` never regresses.
    /// One `ExtentInfo` per (extent, peer) serves both steps.
    ///
    /// The leader first drains its own delete queue, so the bytes it
    /// re-ships are the punched ones: a replacement never saw the queued
    /// deletes, and a lagging peer's punch past its watermark failed, yet
    /// both end byte-identical to the replicas that punch later.
    fn recover_partition(&self, partition: PartitionId, survivors: &[NodeId]) -> Result<usize> {
        let hosted = self.hosted(partition)?;
        let (extents, members) = {
            let mut r = hosted.replica.lock();
            if r.pb_leader() != self.id {
                return Err(CfsError::NotLeader {
                    partition,
                    hint: Some(r.pb_leader()),
                });
            }
            r.process_delete_queue()?;
            (r.extent_ids(), r.members().to_vec())
        };
        self.metrics.recoveries.inc();
        if !survivors.is_empty() {
            self.metrics.join_promotions.inc();
        }
        let mut repaired = 0;
        for extent in extents {
            let mut sizes = Vec::with_capacity(members.len());
            for &peer in members.iter().filter(|&&m| m != self.id) {
                let size = match self.net.call(
                    self.id,
                    peer,
                    DataRequest::ExtentInfo { partition, extent },
                ) {
                    Ok(Ok(DataResponse::Info(i))) => i.size,
                    Ok(Ok(_)) => return Err(CfsError::Internal("bad ExtentInfo reply".into())),
                    Ok(Err(CfsError::NotFound(_))) => 0,
                    Ok(Err(e)) => return Err(e),
                    // A survivor's size bounds the watermark. Any other
                    // unreachable peer (down or partitioned) is skipped:
                    // the repair scheduler restores the replication factor.
                    Err(e) if survivors.contains(&peer) => return Err(e),
                    Err(_) => continue,
                };
                sizes.push((peer, size));
            }
            let committed = {
                let mut r = hosted.replica.lock();
                if !survivors.is_empty() {
                    let watermark = sizes
                        .iter()
                        .filter(|(peer, _)| survivors.contains(peer))
                        .fold(r.extent_size(extent).unwrap_or(0), |w, &(_, s)| w.min(s));
                    if watermark > r.committed(extent) {
                        r.commit(extent, watermark)?;
                    }
                }
                let c = r.committed(extent);
                // Drop our own stale tail first.
                if r.extent_size(extent)? > c {
                    r.truncate(extent, c)?;
                    repaired += 1;
                }
                c
            };
            for (peer, size) in sizes {
                if size > committed {
                    // Stale tail on the peer: align down.
                    self.net.call(
                        self.id,
                        peer,
                        DataRequest::TruncateExtent {
                            partition,
                            extent,
                            size: committed,
                        },
                    )??;
                    repaired += 1;
                } else if size < committed {
                    // Peer is missing committed bytes: re-ship them.
                    let missing = hosted.replica.lock().read(
                        extent,
                        size,
                        (committed - size) as usize,
                        true,
                    )?;
                    let crc = crc32(&missing);
                    self.net.call(
                        self.id,
                        peer,
                        DataRequest::Append {
                            partition,
                            extent,
                            offset: size,
                            data: Bytes::from(missing),
                            crc,
                            // Point-to-point repair: no further forwarding.
                            replicas: vec![peer],
                            request_id: 0,
                        },
                    )??;
                    repaired += 1;
                }
            }
        }
        self.metrics.recovery_repairs.add(repaired as u64);
        Ok(repaired)
    }

    /// Adopt a repaired replica array (§2.3.3): update the chain order and
    /// change the partition's Raft group's member list in place, keeping
    /// its log and applied state. An unchanged array is a no-op, so task
    /// retries are safe.
    pub fn update_members(&self, partition: PartitionId, members: Vec<NodeId>) -> Result<()> {
        {
            let hosted = self.hosted(partition)?;
            let mut r = hosted.replica.lock();
            if r.members() == members.as_slice() {
                return Ok(());
            }
            r.set_members(members.clone())?;
        }
        self.raft
            .lock()
            .multiraft
            .set_members(Self::group_of(partition), members)?;
        self.metrics.join_members_updates.inc();
        Ok(())
    }

    /// Utilization for placement (disk-bytes analog, §2.3.1).
    pub fn total_physical_bytes(&self) -> u64 {
        self.partitions
            .read()
            .values()
            .map(|h| h.replica.lock().stats().store.physical_bytes)
            .sum()
    }

    /// Partitions hosted.
    pub fn partition_count(&self) -> usize {
        self.partitions.read().len()
    }

    /// Is this node the Raft leader of the partition's group?
    pub fn is_raft_leader_for(&self, partition: PartitionId) -> bool {
        self.raft
            .lock()
            .multiraft
            .group(Self::group_of(partition))
            .map(|g| g.is_leader())
            .unwrap_or(false)
    }

    /// Partitions hosted here with their replica arrays (invariant
    /// checking), sorted by partition id.
    pub fn hosted_partitions(&self) -> Vec<(PartitionId, Vec<NodeId>)> {
        let parts = self.partitions.read();
        let mut out: Vec<(PartitionId, Vec<NodeId>)> = parts
            .iter()
            .map(|(pid, h)| (*pid, h.replica.lock().members().to_vec()))
            .collect();
        out.sort_by_key(|(pid, _)| *pid);
        out
    }

    /// Size/CRC/watermark facts for every extent of one partition,
    /// sorted by extent id (replica-alignment invariant checking).
    pub fn extent_manifest(&self, partition: PartitionId) -> Option<Vec<ExtentInfo>> {
        let hosted = self.hosted(partition).ok()?;
        let mut r = hosted.replica.lock();
        Some(
            r.extent_ids()
                .into_iter()
                .map(|e| ExtentInfo {
                    extent: e,
                    size: r.extent_size(e).unwrap_or(0),
                    committed: r.committed(e),
                    crc: r.extent_crc(e).unwrap_or(0),
                })
                .collect(),
        )
    }

    /// Queued-but-unexecuted deletions on one partition (quiesce check).
    pub fn pending_deletes(&self, partition: PartitionId) -> Option<usize> {
        let hosted = self.hosted(partition).ok()?;
        let pending = hosted.replica.lock().pending_deletes();
        Some(pending)
    }
}

impl RaftHost for DataNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn raft_tick(&self) {
        self.raft.lock().multiraft.tick_all();
    }

    fn raft_drain(&self) -> Vec<WireEnvelope> {
        let mut guard = self.raft.lock();
        let raft = &mut *guard;
        raft.commits.flush(&mut raft.multiraft, |_, _, _| Ok(()));
        let (msgs, readies) = raft.multiraft.drain();
        for (gid, ready) in readies {
            let pid = PartitionId(gid.raw());
            let hint = raft.multiraft.group(gid).and_then(|g| g.leader_hint());
            raft.commits.apply(gid, ready.committed, hint, |bytes| {
                let cmd = DataCommand::from_bytes(bytes)?;
                cmd.verify()?;
                let DataCommand::Overwrite {
                    extent,
                    offset,
                    data,
                    ..
                } = cmd;
                let hosted = self.hosted(pid)?;
                let result = hosted.replica.lock().apply_overwrite(extent, offset, &data);
                if result.is_ok() {
                    self.metrics.overwrites_applied.inc();
                }
                result
            });
        }
        msgs
    }

    fn raft_deliver(&self, env: WireEnvelope) {
        self.raft.lock().multiraft.receive(env.from, env.msg);
    }
}
