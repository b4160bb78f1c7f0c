//! The in-process cluster: Figure 1 wired together.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfs_client::{Client, ClientOptions, Fabrics};
use cfs_data::{DataNode, DataRequest, DataResponse};
use cfs_master::{
    MasterCommand, MasterNode, MasterRequest, MasterResponse, MetaPartitionReport, NodeKind, Task,
};
use cfs_meta::{MetaNode, MetaPartitionConfig, MetaRequest, MetaResponse};
use cfs_net::{Network, SimClock};
use cfs_obs::{MetricsSnapshot, Registry};
use cfs_raft::{RaftConfig, RaftHub};
use cfs_types::testutil::TempDir;
use cfs_types::{
    CfsError, ClusterConfig, FaultState, FileType, InodeId, NodeId, PartitionId, Result, VolumeId,
};

/// Node-id ranges per role (must not collide — they share the raft hub).
const META_NODE_BASE: u64 = 1;
const DATA_NODE_BASE: u64 = 101;
const MASTER_NODE_BASE: u64 = 9_001;
const CLIENT_BASE: u64 = 20_001;

/// Size at which a data partition rotates the extent it packs small files
/// into (§2.2.3).
const SMALL_EXTENT_ROTATE_AT: u64 = 128 * 1024 * 1024;

/// Builds an in-process CFS cluster.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    meta_nodes: usize,
    data_nodes: usize,
    master_replicas: usize,
    config: ClusterConfig,
    raft_config: RaftConfig,
    seed: u64,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Defaults: 3 meta nodes, 3 data nodes, 3 master replicas.
    pub fn new() -> Self {
        ClusterBuilder {
            meta_nodes: 3,
            data_nodes: 3,
            master_replicas: 3,
            config: ClusterConfig::default(),
            raft_config: RaftConfig::default(),
            seed: 0x5EED,
        }
    }

    /// Number of meta nodes.
    pub fn meta_nodes(mut self, n: usize) -> Self {
        self.meta_nodes = n;
        self
    }

    /// Number of data nodes.
    pub fn data_nodes(mut self, n: usize) -> Self {
        self.data_nodes = n;
        self
    }

    /// Number of resource-manager replicas.
    pub fn master_replicas(mut self, n: usize) -> Self {
        self.master_replicas = n;
        self
    }

    /// Cluster-wide configuration (thresholds, replica count…).
    pub fn config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Deterministic seed for elections and client randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Raft tuning (e.g. a low snapshot threshold so chaos tests
    /// exercise compaction + restore-from-snapshot).
    pub fn raft_config(mut self, raft_config: RaftConfig) -> Self {
        self.raft_config = raft_config;
        self
    }

    /// Bring the cluster up: elect the master group, register storage
    /// nodes, and wait until everything is answerable.
    pub fn build(self) -> Result<Cluster> {
        self.config.validate()?;
        self.raft_config.validate()?;
        let hub = RaftHub::new();
        let faults = FaultState::new();
        hub.set_faults(faults.clone());

        // One registry for the whole cluster: every node, fabric and
        // client mounted through [`Cluster::mount`] names its metrics
        // here, so a single snapshot covers the full stack.
        let registry = Registry::new();

        let fabrics = Fabrics {
            master: Network::new(),
            meta: Network::new(),
            data: Network::new(),
        };
        // One virtual clock for the whole cluster: a latency charged on
        // any fabric is visible to every other, so cross-fabric ordering
        // (meta sync after a data append, say) reads off one timeline.
        let clock = SimClock::new();
        fabrics.master.set_clock(clock.clone());
        fabrics.meta.set_clock(clock.clone());
        fabrics.data.set_clock(clock);
        fabrics.master.set_faults(faults.clone());
        fabrics.meta.set_faults(faults.clone());
        fabrics.data.set_faults(faults.clone());
        fabrics.master.bind_metrics(&registry, "master");
        fabrics.meta.bind_metrics(&registry, "meta");
        fabrics.data.bind_metrics(&registry, "data");

        // Every node gets its own engine directory under one root: the
        // node's entire durable state (raft logs, snapshots, extents,
        // replica meta) lives there, so restart-from-disk is just
        // reopening the directory.
        let root_dir = TempDir::new("cfs-cluster")?;
        let root = root_dir.path().to_path_buf();

        // Resource-manager replicas.
        let master_ids: Vec<NodeId> = (0..self.master_replicas.max(1) as u64)
            .map(|i| NodeId(MASTER_NODE_BASE + i))
            .collect();
        let masters: Vec<Arc<MasterNode>> = master_ids
            .iter()
            .map(|&id| {
                MasterNode::open_with_registry(
                    id,
                    hub.clone(),
                    &root.join(format!("master-{}", id.raw())),
                    master_ids.clone(),
                    self.config.clone(),
                    self.raft_config.clone(),
                    self.seed,
                    Some(&registry),
                )
            })
            .collect::<Result<_>>()?;
        for m in &masters {
            let m2 = m.clone();
            fabrics
                .master
                .register(m.id(), Arc::new(move |_from, req| m2.handle(req)));
        }

        // Meta nodes.
        let meta_dirs: Vec<PathBuf> = (0..self.meta_nodes)
            .map(|i| root.join(format!("meta-{i}")))
            .collect();
        let meta_nodes: Vec<Arc<MetaNode>> = meta_dirs
            .iter()
            .enumerate()
            .map(|(i, dir)| {
                MetaNode::open_with_registry(
                    NodeId(META_NODE_BASE + i as u64),
                    hub.clone(),
                    dir,
                    self.raft_config.clone(),
                    self.seed,
                    Some(&registry),
                )
            })
            .collect::<Result<_>>()?;
        for n in &meta_nodes {
            let n2 = n.clone();
            fabrics
                .meta
                .register(n.id(), Arc::new(move |_from, req| n2.handle(req)));
        }

        // Data nodes.
        let data_dirs: Vec<PathBuf> = (0..self.data_nodes)
            .map(|i| root.join(format!("data-{i}")))
            .collect();
        let data_nodes: Vec<Arc<DataNode>> = data_dirs
            .iter()
            .enumerate()
            .map(|(i, dir)| {
                DataNode::open_with_registry(
                    NodeId(DATA_NODE_BASE + i as u64),
                    hub.clone(),
                    fabrics.data.clone(),
                    dir,
                    self.raft_config.clone(),
                    self.seed,
                    Some(&registry),
                )
            })
            .collect::<Result<_>>()?;
        for n in &data_nodes {
            let n2 = n.clone();
            fabrics
                .data
                .register(n.id(), Arc::new(move |_from, req| n2.handle(req)));
        }

        let cluster = Cluster {
            hub,
            faults,
            fabrics,
            registry,
            masters,
            master_ids,
            meta_nodes,
            data_nodes,
            meta_dirs,
            data_dirs,
            config: self.config,
            raft_config: self.raft_config,
            seed: self.seed,
            next_client: AtomicU64::new(CLIENT_BASE),
            root_dir,
        };

        // Elect the master group, then register every storage node.
        let leader = cluster.master_leader()?;
        for n in &cluster.meta_nodes {
            leader.propose(&MasterCommand::RegisterNode {
                node: n.id(),
                kind: NodeKind::Meta,
            })?;
        }
        for n in &cluster.data_nodes {
            leader.propose(&MasterCommand::RegisterNode {
                node: n.id(),
                kind: NodeKind::Data,
            })?;
        }
        Ok(cluster)
    }
}

/// Per-partition outcome of [`Cluster::recover_data_partitions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverReport {
    pub partition: PartitionId,
    /// The replica recovery ran from: the configured chain head, or the
    /// next live replica when the head was down. `None` if every replica
    /// was down.
    pub head: Option<NodeId>,
    /// Repairs made (truncations + re-ships), or why recovery failed.
    pub result: Result<usize>,
}

impl RecoverReport {
    /// Did this partition's recovery pass succeed?
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// A running in-process CFS cluster (Figure 1): resource manager replicas,
/// meta nodes, data nodes, and the fabrics clients mount through.
pub struct Cluster {
    hub: RaftHub,
    faults: FaultState,
    fabrics: Fabrics,
    registry: Registry,
    masters: Vec<Arc<MasterNode>>,
    master_ids: Vec<NodeId>,
    meta_nodes: Vec<Arc<MetaNode>>,
    data_nodes: Vec<Arc<DataNode>>,
    meta_dirs: Vec<PathBuf>,
    data_dirs: Vec<PathBuf>,
    config: ClusterConfig,
    raft_config: RaftConfig,
    seed: u64,
    next_client: AtomicU64,
    /// Root of every node's engine directory; removed when the cluster
    /// is dropped.
    root_dir: TempDir,
}

impl Drop for Cluster {
    /// A fabric holds each node's handler, a data node holds its fabric,
    /// and every mount holds all three fabrics: without this the nodes
    /// (and their engines' memory) would outlive the cluster.
    fn drop(&mut self) {
        self.deregister_all();
    }
}

impl Cluster {
    /// Take every master, meta and data node off its fabric.
    fn deregister_all(&self) {
        for m in &self.masters {
            self.fabrics.master.deregister(m.id());
        }
        for n in &self.meta_nodes {
            self.fabrics.meta.deregister(n.id());
        }
        for n in &self.data_nodes {
            self.fabrics.data.deregister(n.id());
        }
    }

    /// The shared fault switches (kill nodes, cut links).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster-wide metrics registry (every node, fabric and mounted
    /// client names its metrics here).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// Convenience: a point-in-time snapshot of every cluster metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The raft hub (advanced: drive ticks manually in tests).
    pub fn hub(&self) -> &RaftHub {
        &self.hub
    }

    /// Simulate a per-call latency on the data fabric (benches: give the
    /// append pipeline a round trip to hide). Zero disables it.
    pub fn set_data_latency(&self, latency: std::time::Duration) {
        self.fabrics.data.set_latency(latency);
    }

    /// The shared virtual clock every fabric schedules deliveries on.
    pub fn clock(&self) -> SimClock {
        self.fabrics.data.clock()
    }

    /// Current reading of the shared virtual clock, in nanoseconds.
    pub fn virtual_now_ns(&self) -> u64 {
        self.clock().now()
    }

    /// Meta nodes.
    pub fn meta_nodes(&self) -> &[Arc<MetaNode>] {
        &self.meta_nodes
    }

    /// Data nodes.
    pub fn data_nodes(&self) -> &[Arc<DataNode>] {
        &self.data_nodes
    }

    /// Master replicas.
    pub fn masters(&self) -> &[Arc<MasterNode>] {
        &self.masters
    }

    /// Run `ticks` of cluster time (elections, heartbeats, commits).
    pub fn settle(&self, ticks: u64) {
        for _ in 0..ticks {
            self.hub.tick_and_pump();
        }
    }

    /// The current master leader (waits for an election if needed). A
    /// replica that is down may still believe it leads; only reachable
    /// leaders count.
    pub fn master_leader(&self) -> Result<Arc<MasterNode>> {
        let reachable_leader = || {
            self.masters
                .iter()
                .find(|m| m.is_leader() && !self.faults.is_down(m.id()))
                .cloned()
        };
        let ok = self.hub.pump_until(|| reachable_leader().is_some(), 10_000);
        if !ok {
            return Err(CfsError::Unavailable("no master leader elected".into()));
        }
        Ok(reachable_leader().expect("leader exists per pump predicate"))
    }

    /// Execute resource-manager tasks against the storage nodes (§2.3:
    /// the RM "manages the file system by processing different types of
    /// tasks").
    pub fn execute_tasks(&self, tasks: &[Task]) -> Result<()> {
        for task in tasks {
            match task {
                Task::CreateMetaPartition {
                    partition,
                    volume,
                    start,
                    end,
                    members,
                } => {
                    // Best effort per member: a down replica, or an
                    // `Exists` from a reconciliation re-emit racing a
                    // not-yet-acknowledged cut, must not wedge the task
                    // stream — the maintenance sweep re-emits until every
                    // replica reports the planned range.
                    let mut created = 0;
                    for &m in members {
                        match self.host_meta_replica(m, *partition, *volume, *start, *end, members)
                        {
                            Ok(MetaResponse::Created) | Err(CfsError::Exists(_)) => created += 1,
                            Ok(_) => {
                                return Err(CfsError::Internal("bad CreatePartition reply".into()))
                            }
                            Err(_) => {}
                        }
                    }
                    // Wait for the new group to elect a leader (only
                    // possible once a quorum of replicas host it).
                    if created * 2 > members.len() {
                        let pid = *partition;
                        self.hub.pump_until(
                            || self.meta_nodes.iter().any(|n| n.is_leader_for(pid)),
                            10_000,
                        );
                    }
                }
                Task::CreateDataPartition {
                    partition,
                    volume,
                    members,
                } => {
                    for &m in members {
                        self.host_data_replica(m, *partition, *volume, members)?;
                    }
                    let pid = *partition;
                    self.hub.pump_until(
                        || self.data_nodes.iter().any(|n| n.is_raft_leader_for(pid)),
                        10_000,
                    );
                }
                Task::UpdateMetaPartitionEnd {
                    partition,
                    end,
                    members,
                } => {
                    // Route to the partition leader like a client would.
                    // Best effort: if no replica can accept the cut right
                    // now (mid-election, crashed leader), the maintenance
                    // sweep re-emits it until a heartbeat reports the new
                    // range (split reconciliation).
                    for &m in members {
                        let cmd = cfs_meta::MetaCommand::UpdateEnd { end: *end };
                        if self.meta_write_on(m, *partition, cmd).is_ok() {
                            break;
                        }
                    }
                }
                Task::SetDataPartitionReadOnly {
                    partition,
                    members,
                    read_only,
                } => {
                    for &m in members {
                        // Best effort: a dead replica is the very reason
                        // the partition is going read-only.
                        let _ = self.fabrics.data.call(
                            NodeId(0),
                            m,
                            DataRequest::SetReadOnly {
                                partition: *partition,
                                ro: *read_only,
                            },
                        );
                    }
                }
                Task::ReplaceReplica {
                    kind,
                    partition,
                    volume,
                    start,
                    end,
                    members,
                    new_node,
                    ..
                } => {
                    self.replace_replica(
                        *kind,
                        *partition,
                        *volume,
                        (*start, *end),
                        members,
                        *new_node,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Host a replica of a data partition on `node` (idempotent at the
    /// node, so task retries are safe).
    fn host_data_replica(
        &self,
        node: NodeId,
        partition: PartitionId,
        volume: VolumeId,
        members: &[NodeId],
    ) -> Result<()> {
        self.fabrics.data.call(
            NodeId(0),
            node,
            DataRequest::CreatePartition {
                partition,
                volume,
                members: members.to_vec(),
                small_extent_rotate_at: SMALL_EXTENT_ROTATE_AT,
                extent_limit: self.config.data_partition_extent_limit,
            },
        )??;
        Ok(())
    }

    /// Host a replica of the meta partition owning `[start, end]` on
    /// `node` (idempotent for an identical config; a replica already
    /// hosted under another range answers `Exists`).
    fn host_meta_replica(
        &self,
        node: NodeId,
        partition: PartitionId,
        volume: VolumeId,
        start: InodeId,
        end: InodeId,
        members: &[NodeId],
    ) -> Result<MetaResponse> {
        let config = MetaPartitionConfig {
            partition_id: partition,
            volume_id: volume,
            start,
            end,
        };
        self.fabrics.meta.call(
            NodeId(0),
            node,
            MetaRequest::CreatePartition {
                config,
                members: members.to_vec(),
            },
        )?
    }

    /// Replace a dead replica (§2.3.3): host the replacement, have the
    /// survivors adopt the post-repair membership once, catch the
    /// replacement up, and confirm the join so the partition leaves the
    /// pending set (a data partition returns to read-write). `(start,
    /// end)` is a meta partition's inode range.
    fn replace_replica(
        &self,
        kind: NodeKind,
        partition: PartitionId,
        volume: VolumeId,
        (start, end): (InodeId, InodeId),
        members: &[NodeId],
        new_node: NodeId,
    ) -> Result<()> {
        match kind {
            NodeKind::Meta => {
                self.host_meta_replica(new_node, partition, volume, start, end, members)?;
            }
            NodeKind::Data => self.host_data_replica(new_node, partition, volume, members)?,
        }
        // Each survivor changes its group's member list in place, once.
        let survivors: Vec<NodeId> = members.iter().copied().filter(|&m| m != new_node).collect();
        for &m in &survivors {
            match kind {
                NodeKind::Meta => {
                    self.fabrics.meta.call(
                        NodeId(0),
                        m,
                        MetaRequest::UpdateMembers {
                            partition,
                            members: members.to_vec(),
                        },
                    )??;
                }
                NodeKind::Data => {
                    self.fabrics.data.call(
                        NodeId(0),
                        m,
                        DataRequest::UpdateMembers {
                            partition,
                            members: members.to_vec(),
                        },
                    )??;
                }
            }
        }
        if kind == NodeKind::Data {
            // §2.2.5 join: the head recomputes committed watermarks from
            // the survivors (the still-empty replacement must not drag the
            // minimum down to zero), truncates stale tails and re-ships
            // every committed byte to the replacement; the Raft group
            // replays the rest.
            self.fabrics.data.call(
                NodeId(0),
                members[0],
                DataRequest::Recover {
                    partition,
                    survivors,
                },
            )??;
        }
        self.hub.pump_until(
            || match kind {
                NodeKind::Meta => self
                    .meta_nodes
                    .iter()
                    .any(|n| !self.faults.is_down(n.id()) && n.is_leader_for(partition)),
                NodeKind::Data => self
                    .data_nodes
                    .iter()
                    .any(|n| !self.faults.is_down(n.id()) && n.is_raft_leader_for(partition)),
            },
            10_000,
        );
        if kind == NodeKind::Meta {
            // Caught up = the replacement applied everything the group has
            // committed (snapshot install + replay both count).
            let replacement = self
                .meta_nodes
                .iter()
                .find(|n| n.id() == new_node)
                .ok_or_else(|| CfsError::NotFound(format!("{new_node}")))?;
            self.hub.pump_until(
                || {
                    replacement
                        .raft_indices(partition)
                        .is_some_and(|(commit, applied, _)| commit > 0 && applied == commit)
                },
                10_000,
            );
        }
        self.master_leader()?
            .propose(&MasterCommand::ConfirmReplicaJoined {
                partition,
                node: new_node,
            })?;
        Ok(())
    }

    /// Create a volume (§2): allocate partitions via the resource manager,
    /// create them on the storage nodes, and initialize the root inode.
    pub fn create_volume(
        &self,
        name: &str,
        meta_partitions: u64,
        data_partitions: u64,
    ) -> Result<VolumeId> {
        let leader = self.master_leader()?;
        let outcome = leader.propose(&MasterCommand::CreateVolume {
            name: name.to_string(),
            meta_partition_count: meta_partitions,
            data_partition_count: data_partitions,
        })?;
        self.execute_tasks(&outcome.tasks)?;
        let volume = outcome
            .volume
            .ok_or_else(|| CfsError::Internal("CreateVolume returned no id".into()))?;

        // Initialize the root directory (inode 1) on the partition that
        // owns the low end of the id space.
        let root_partition = outcome
            .tasks
            .iter()
            .find_map(|t| match t {
                Task::CreateMetaPartition {
                    partition,
                    start,
                    members,
                    ..
                } if *start == InodeId(1) => Some((*partition, members.clone())),
                _ => None,
            })
            .ok_or_else(|| CfsError::Internal("no meta partition starting at 1".into()))?;
        let (pid, members) = root_partition;
        let mut created = false;
        for &m in &members {
            let cmd = cfs_meta::MetaCommand::CreateInode {
                file_type: FileType::Dir,
                link_target: vec![],
                now_ns: 0,
            };
            if self.meta_write_on(m, pid, cmd).is_ok() {
                created = true;
                break;
            }
        }
        if !created {
            return Err(CfsError::Unavailable("could not create volume root".into()));
        }
        Ok(volume)
    }

    /// Mount a volume, returning a client (one per container in the paper;
    /// any number may mount the same volume simultaneously).
    pub fn mount(&self, volume_name: &str) -> Result<Client> {
        self.mount_with_options(volume_name, ClientOptions::default())
    }

    /// Mount with explicit client options. Unless the caller supplied its
    /// own registry, the client joins the cluster-wide one so its
    /// `client.*` counters land in the same snapshot as everything else.
    pub fn mount_with_options(
        &self,
        volume_name: &str,
        mut options: ClientOptions,
    ) -> Result<Client> {
        if options.registry.is_none() {
            options.registry = Some(self.registry.clone());
        }
        let id = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        Client::mount(
            id,
            volume_name,
            self.fabrics.clone(),
            self.masters.iter().map(|m| m.id()).collect(),
            self.config.clone(),
            options,
        )
    }

    /// One heartbeat round (§2.3): every storage node is polled over its
    /// fabric for utilization and per-partition status, the orphan sweep
    /// runs, and the round goes to the resource manager as one replicated
    /// `Heartbeat` command — the nodes that answered (failure detection,
    /// §2.3.3) and their stats (placement, Algorithm 1) — whose apply ends
    /// with the maintenance sweep. Its tasks are executed, then — when
    /// `repair_enabled` — one repair-scheduler sweep is proposed and its
    /// tasks executed. Returns the number of tasks processed. A node that
    /// fails to answer never fails the round: its miss is exactly the
    /// signal the detector accumulates.
    pub fn heartbeat(&self) -> Result<usize> {
        let leader = self.master_leader()?;

        let mut reporting = Vec::new();
        let mut utilization = Vec::new();
        let mut meta = Vec::new();
        let mut full = Vec::new();
        let mut all_meta_reported = true;
        let mut intents_quiet = true;
        let mut comp_nodes = Vec::new();
        for n in &self.meta_nodes {
            match self
                .fabrics
                .meta
                .call(NodeId(0), n.id(), MetaRequest::Report)
            {
                Ok(Ok(MetaResponse::Report(infos))) => {
                    reporting.push(n.id());
                    utilization.push((n.id(), infos.iter().map(|i| i.item_count).sum()));
                    intents_quiet &= infos.iter().all(|i| i.pending_intents == 0);
                    if infos.iter().any(|i| i.pending_compensations > 0) {
                        comp_nodes.push(n.id());
                    }
                    meta.extend(infos.iter().filter(|i| i.is_leader).map(|i| {
                        MetaPartitionReport {
                            partition: i.partition_id,
                            item_count: i.item_count,
                            max_inode: i.max_inode,
                            end: i.end,
                            applied: i.applied,
                        }
                    }));
                }
                Ok(Ok(_)) => return Err(CfsError::Internal("bad meta Report reply".into())),
                Ok(Err(_)) | Err(_) => all_meta_reported = false, // missed this round
            }
        }
        for n in &self.data_nodes {
            match self
                .fabrics
                .data
                .call(NodeId(0), n.id(), DataRequest::Report)
            {
                Ok(Ok(DataResponse::Report(stats))) => {
                    reporting.push(n.id());
                    utilization.push((n.id(), stats.iter().map(|s| s.store.physical_bytes).sum()));
                    full.extend(stats.iter().filter(|s| s.is_full).map(|s| s.partition_id));
                }
                Ok(Ok(_)) => return Err(CfsError::Internal("bad data Report reply".into())),
                Ok(Err(_)) | Err(_) => {} // missed this round
            }
        }

        // DESIGN §12 orphan-sweep gate: the sweep may only run in a round
        // where every meta node answered and no journal anywhere still
        // holds an unresolved intent — resolution is finished cluster-wide,
        // so every remaining compensation record is a genuine orphan (its
        // client never came back to barrier it). The sweep reads only
        // partition ranges, which the round's stats never change.
        if all_meta_reported && intents_quiet && !comp_nodes.is_empty() {
            self.orphan_sweep(&leader, &comp_nodes);
        }

        let outcome = leader.propose(&MasterCommand::Heartbeat {
            reporting,
            utilization,
            meta,
            full,
        })?;
        let mut n = outcome.tasks.len();
        self.execute_tasks(&outcome.tasks)?;

        // A repair plan parks its partition in `pending_joins`, which
        // nothing re-emits: it is committed only once the round's tasks
        // were delivered.
        if self.config.repair_enabled {
            let outcome = self.master_leader()?.propose(&MasterCommand::RepairTick)?;
            n += outcome.tasks.len();
            self.execute_tasks(&outcome.tasks)?;
        }
        Ok(n)
    }

    /// DESIGN §12 heartbeat reconciliation: execute the compensation
    /// fixups left behind by dead async intents nobody barriered (the
    /// client crashed between ack and `fsync`), then ack them at their
    /// origin node so the records leave the durable journal. Everything
    /// is best-effort: an unreachable node or partition simply keeps its
    /// records for the next round's sweep. Executed fixups are counted in
    /// `meta.async.orphans`.
    fn orphan_sweep(&self, leader: &Arc<MasterNode>, comp_nodes: &[NodeId]) {
        let mut executed: u64 = 0;
        for &node in comp_nodes {
            let comps = match self
                .fabrics
                .meta
                .call(NodeId(0), node, MetaRequest::Compensations)
            {
                Ok(Ok(MetaResponse::Compensations(c))) => c,
                _ => continue,
            };
            // Two passes across this node's records: every dentry removal
            // and nlink rollback first, the conditional evictions second.
            // A dead link's not-yet-rolled-back increment would otherwise
            // make a sibling record's `EvictIf` guard refuse the orphan
            // for good. Within a record the order still holds (removal
            // precedes eviction), and an eviction only runs once its own
            // record's first pass fully succeeded.
            let mut done: Vec<bool> = vec![true; comps.len()];
            for (i, comp) in comps.iter().enumerate() {
                for (routing, cmd) in &comp.fixups {
                    if matches!(cmd, cfs_meta::MetaCommand::EvictIf { .. }) {
                        continue;
                    }
                    if !self.execute_fixup(leader, comp.volume, *routing, cmd) {
                        done[i] = false;
                        break;
                    }
                    executed += 1;
                }
            }
            let mut acks: Vec<(PartitionId, Vec<u64>)> = Vec::new();
            for (i, comp) in comps.iter().enumerate() {
                if !done[i] {
                    continue;
                }
                for (routing, cmd) in &comp.fixups {
                    if !matches!(cmd, cfs_meta::MetaCommand::EvictIf { .. }) {
                        continue;
                    }
                    if !self.execute_fixup(leader, comp.volume, *routing, cmd) {
                        done[i] = false;
                        break;
                    }
                    executed += 1;
                }
                // Only a fully repaired record may be acked; a partial one
                // stays journaled so the next sweep retries all of it
                // (the namespace fixups are conditional — re-running them
                // is free).
                if done[i] {
                    match acks.iter_mut().find(|(p, _)| *p == comp.partition) {
                        Some((_, ids)) => ids.push(comp.id),
                        None => acks.push((comp.partition, vec![comp.id])),
                    }
                }
            }
            for (partition, ids) in acks {
                let _ = self.fabrics.meta.call(
                    NodeId(0),
                    node,
                    MetaRequest::AckCompensations { partition, ids },
                );
            }
        }
        if executed > 0 {
            self.registry.counter("meta.async.orphans").add(executed);
        }
    }

    /// Route one conditional fixup to the partition owning `routing` in
    /// `volume`. Returns whether it executed — a conditional no-op and an
    /// already-vanished target both count as done.
    fn execute_fixup(
        &self,
        leader: &Arc<MasterNode>,
        volume: VolumeId,
        routing: InodeId,
        cmd: &cfs_meta::MetaCommand,
    ) -> bool {
        let Some((partition, members)) = leader.with_state(|s| {
            s.volume_meta_partitions(volume)
                .iter()
                .find(|p| p.start <= routing && routing <= p.end)
                .map(|p| (p.partition, p.members.clone()))
        }) else {
            // No partition owns the id (range churn since the record was
            // written): the fixup has no possible target left.
            return true;
        };
        for &m in &members {
            match self.meta_write_on(m, partition, cmd.clone()) {
                Ok(_) => return true,
                // The target vanished on its own — the rollback is moot.
                Err(CfsError::NotFound(_)) => return true,
                Err(_) => continue,
            }
        }
        false
    }

    /// One replicated meta command sent to member `m` as the control
    /// plane; fabric, node and command errors all come back as `Err`.
    fn meta_write_on(
        &self,
        m: NodeId,
        partition: PartitionId,
        cmd: cfs_meta::MetaCommand,
    ) -> Result<cfs_meta::MetaValue> {
        let req = MetaRequest::Write {
            partition,
            cmds: vec![cmd],
        };
        self.fabrics.meta.call(NodeId(0), m, req)??.into_value()
    }

    /// Capacity expansion (§2.3.1): add a fresh meta node. No data moves;
    /// the node simply starts attracting future placements.
    pub fn add_meta_node(&mut self) -> Result<NodeId> {
        let idx = self.meta_nodes.len();
        let id = NodeId(META_NODE_BASE + idx as u64);
        let dir = self.root_dir.path().join(format!("meta-{idx}"));
        let node = MetaNode::open_with_registry(
            id,
            self.hub.clone(),
            &dir,
            self.raft_config.clone(),
            self.seed,
            Some(&self.registry),
        )?;
        self.meta_dirs.push(dir);
        let n2 = node.clone();
        self.fabrics
            .meta
            .register(id, Arc::new(move |_from, req| n2.handle(req)));
        self.meta_nodes.push(node);
        self.master_leader()?
            .propose(&MasterCommand::RegisterNode {
                node: id,
                kind: NodeKind::Meta,
            })?;
        Ok(id)
    }

    /// Capacity expansion: add a fresh data node.
    pub fn add_data_node(&mut self) -> Result<NodeId> {
        let idx = self.data_nodes.len();
        let id = NodeId(DATA_NODE_BASE + idx as u64);
        let dir = self.root_dir.path().join(format!("data-{idx}"));
        let node = DataNode::open_with_registry(
            id,
            self.hub.clone(),
            self.fabrics.data.clone(),
            &dir,
            self.raft_config.clone(),
            self.seed,
            Some(&self.registry),
        )?;
        self.data_dirs.push(dir);
        let n2 = node.clone();
        self.fabrics
            .data
            .register(id, Arc::new(move |_from, req| n2.handle(req)));
        self.data_nodes.push(node);
        self.master_leader()?
            .propose(&MasterCommand::RegisterNode {
                node: id,
                kind: NodeKind::Data,
            })?;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Crash / restart (chaos harness)
    // ------------------------------------------------------------------

    /// Crash a meta node: cut it off the fabric, mark it down, drop the
    /// process, and reopen it from its engine directory alone — exactly
    /// what a machine restart does (§2.1.3). Volatile state (locks,
    /// caches, unflushed memtable acks beyond the WAL) is lost; the node
    /// stays unreachable until [`Cluster::restart_meta_node`].
    pub fn crash_meta_node(&mut self, idx: usize) -> Result<NodeId> {
        let id = self.meta_nodes[idx].id();
        self.faults.set_down(id, true);
        self.fabrics.meta.deregister(id);
        let node = MetaNode::open_with_registry(
            id,
            self.hub.clone(),
            &self.meta_dirs[idx],
            self.raft_config.clone(),
            self.seed,
            Some(&self.registry),
        )?;
        // Replacing the slot drops the crashed node's last strong ref;
        // the hub's weak handle to it expires on the next pump.
        self.meta_nodes[idx] = node;
        Ok(id)
    }

    /// Bring a crashed meta node back: re-register it on the fabric and
    /// lift the down flag. Recovery (log replay, catching up via Raft)
    /// happens through normal ticks afterwards.
    pub fn restart_meta_node(&mut self, idx: usize) {
        let node = self.meta_nodes[idx].clone();
        let id = node.id();
        self.fabrics
            .meta
            .register(id, Arc::new(move |_from, req| node.handle(req)));
        self.faults.set_down(id, false);
    }

    /// Crash a data node (see [`Cluster::crash_meta_node`]): the extent
    /// stores and per-group Raft state survive on disk; chain bookkeeping
    /// and committed-watermark gossip recover via §2.2.5 alignment.
    pub fn crash_data_node(&mut self, idx: usize) -> Result<NodeId> {
        let id = self.data_nodes[idx].id();
        self.faults.set_down(id, true);
        self.fabrics.data.deregister(id);
        let node = DataNode::open_with_registry(
            id,
            self.hub.clone(),
            self.fabrics.data.clone(),
            &self.data_dirs[idx],
            self.raft_config.clone(),
            self.seed,
            Some(&self.registry),
        )?;
        self.data_nodes[idx] = node;
        Ok(id)
    }

    /// Bring a crashed data node back online.
    pub fn restart_data_node(&mut self, idx: usize) {
        let node = self.data_nodes[idx].clone();
        let id = node.id();
        self.fabrics
            .data
            .register(id, Arc::new(move |_from, req| node.handle(req)));
        self.faults.set_down(id, false);
    }

    /// Whole-cluster power loss: every node — master, meta and data —
    /// loses its process at the same instant, then every machine boots
    /// back up from its engine directory alone. Nothing in memory
    /// survives; acknowledged state must come back from WAL + sorted
    /// runs. Nodes that were already marked down (killed by chaos) come
    /// back as processes but stay fenced off the fabric until their
    /// `restart_*` call, exactly like a machine whose NIC is dead.
    pub fn power_loss_restart(&mut self) -> Result<()> {
        // Cut the power: deregister everything and drop every strong
        // node reference. The raft hub's weak handles expire with them.
        self.deregister_all();
        self.masters.clear();
        self.meta_nodes.clear();
        self.data_nodes.clear();

        // Boot every machine back up from disk.
        let root = self.root_dir.path().to_path_buf();
        for &id in &self.master_ids {
            let m = MasterNode::open_with_registry(
                id,
                self.hub.clone(),
                &root.join(format!("master-{}", id.raw())),
                self.master_ids.clone(),
                self.config.clone(),
                self.raft_config.clone(),
                self.seed,
                Some(&self.registry),
            )?;
            if !self.faults.is_down(id) {
                let m2 = m.clone();
                self.fabrics
                    .master
                    .register(id, Arc::new(move |_from, req| m2.handle(req)));
            }
            self.masters.push(m);
        }
        for (i, dir) in self.meta_dirs.clone().iter().enumerate() {
            let id = NodeId(META_NODE_BASE + i as u64);
            let n = MetaNode::open_with_registry(
                id,
                self.hub.clone(),
                dir,
                self.raft_config.clone(),
                self.seed,
                Some(&self.registry),
            )?;
            if !self.faults.is_down(id) {
                let n2 = n.clone();
                self.fabrics
                    .meta
                    .register(id, Arc::new(move |_from, req| n2.handle(req)));
            }
            self.meta_nodes.push(n);
        }
        for (i, dir) in self.data_dirs.clone().iter().enumerate() {
            let id = NodeId(DATA_NODE_BASE + i as u64);
            let n = DataNode::open_with_registry(
                id,
                self.hub.clone(),
                self.fabrics.data.clone(),
                dir,
                self.raft_config.clone(),
                self.seed,
                Some(&self.registry),
            )?;
            if !self.faults.is_down(id) {
                let n2 = n.clone();
                self.fabrics
                    .data
                    .register(id, Arc::new(move |_from, req| n2.handle(req)));
            }
            self.data_nodes.push(n);
        }
        Ok(())
    }

    /// Run §2.2.5 recovery on every data partition: each PB leader
    /// truncates stale tails and realigns its replicas. If a partition's
    /// configured chain head is down, the next live replica is rotated to
    /// the head position on the live members (watermarks recomputed from
    /// the survivors first) and recovery runs from there — the committed
    /// data stays readable even while the original head is out. The
    /// rotation is replica-local: master routing is reconciled by the
    /// repair scheduler, not by this helper. Returns one report per
    /// distinct partition hosted on a live node.
    pub fn recover_data_partitions(&self) -> Vec<RecoverReport> {
        let mut seen = std::collections::BTreeSet::new();
        let mut reports = Vec::new();
        for n in &self.data_nodes {
            if self.faults.is_down(n.id()) {
                continue;
            }
            for (pid, members) in n.hosted_partitions() {
                if !seen.insert(pid) {
                    continue;
                }
                reports.push(self.recover_one_partition(pid, &members));
            }
        }
        reports
    }

    fn recover_one_partition(&self, pid: PartitionId, members: &[NodeId]) -> RecoverReport {
        let live: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| !self.faults.is_down(m))
            .collect();
        let Some(&head) = live.first() else {
            return RecoverReport {
                partition: pid,
                head: None,
                result: Err(CfsError::Unavailable(format!("{pid}: no live replica"))),
            };
        };
        let result = (|| {
            let mut survivors = Vec::new();
            if members.first() != Some(&head) {
                // Configured head is down: promote the next live replica
                // on the survivors, which recomputes the watermarks from
                // them. Live members first (original order), then the
                // down ones, so the set is unchanged.
                let mut rotated = live.clone();
                rotated.extend(members.iter().copied().filter(|&m| self.faults.is_down(m)));
                for &m in &live {
                    self.fabrics.data.call(
                        NodeId(0),
                        m,
                        DataRequest::UpdateMembers {
                            partition: pid,
                            members: rotated.clone(),
                        },
                    )??;
                }
                survivors = live;
            }
            match self.fabrics.data.call(
                NodeId(0),
                head,
                DataRequest::Recover {
                    partition: pid,
                    survivors,
                },
            )?? {
                DataResponse::Processed(k) => Ok(k),
                _ => Err(CfsError::Internal("bad Recover reply".into())),
            }
        })();
        RecoverReport {
            partition: pid,
            head: Some(head),
            result,
        }
    }

    /// Drain every data partition's asynchronous delete queue (§2.7.3)
    /// on every replica. Returns the number of tasks executed.
    pub fn process_all_deletes(&self) -> usize {
        let mut total = 0;
        for n in &self.data_nodes {
            for (pid, _) in n.hosted_partitions() {
                if let Ok(Ok(DataResponse::Processed(k))) = self.fabrics.data.call(
                    NodeId(0),
                    n.id(),
                    DataRequest::ProcessDeletes { partition: pid },
                ) {
                    total += k;
                }
            }
        }
        total
    }

    /// The RPC fabrics (chaos harness: install delivery hooks, inspect
    /// drop/rejection counters).
    pub fn fabrics(&self) -> &Fabrics {
        &self.fabrics
    }

    /// Force Algorithm 1 on the newest (unbounded) meta partition of
    /// `volume`: the master commits the cut and successor placement, and
    /// the resulting tasks are delivered to the meta nodes. With
    /// `deliver` false the tasks are dropped on the floor — the master
    /// "crashed" right after committing the split — and the heartbeat
    /// reconciliation sweep must finish the handoff. Returns the number
    /// of tasks the split planned (0 if the partition was already cut).
    pub fn split_newest_meta_partition(&self, volume: VolumeId, deliver: bool) -> Result<usize> {
        let leader = self.master_leader()?;
        let pid = leader
            .with_state(|s| {
                s.volume_meta_partitions(volume)
                    .iter()
                    .map(|p| p.partition)
                    .max()
            })
            .ok_or_else(|| CfsError::NotFound(format!("{volume} has no meta partitions")))?;
        let outcome = leader.propose(&MasterCommand::SplitMetaPartition { partition: pid })?;
        let n = outcome.tasks.len();
        if deliver {
            self.execute_tasks(&outcome.tasks)?;
        }
        Ok(n)
    }

    /// Report a data partition timeout (§2.3.3): the RM marks the
    /// remaining replicas read-only.
    pub fn report_partition_timeout(&self, partition: PartitionId) -> Result<()> {
        let leader = self.master_leader()?;
        let outcome = leader.propose(&MasterCommand::ReportPartitionTimeout { partition })?;
        self.execute_tasks(&outcome.tasks)
    }

    /// Direct master query helper.
    pub fn master_query(&self, req: MasterRequest) -> Result<MasterResponse> {
        self.master_leader()?.handle(req)
    }
}
