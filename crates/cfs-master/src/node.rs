//! Resource-manager replicas: one Raft group + key-value persistence.

use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use cfs_kvwal::{LsmEngine, LsmOptions};
use cfs_obs::{Counter, Registry, RpcRoute};
use cfs_raft::hub::{RaftHost, RaftHub};
use cfs_raft::{
    leader_read, GroupCommit, MultiRaft, RaftConfig, WireEnvelope, COMMIT_TIMEOUT_TICKS,
};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{CfsError, ClusterConfig, NodeId, RaftGroupId, Result, VolumeId};

use crate::state::{
    ApplyOutcome, DataPartitionMeta, MasterCommand, MasterState, MetaPartitionMeta, NodeStatus,
    VolumeMeta,
};

/// The master replicas' Raft group id — far above any partition id, which
/// double as group ids.
pub const MASTER_GROUP: RaftGroupId = RaftGroupId(u64::MAX);

/// RPCs the resource manager serves. Clients use *non-persistent
/// connections* (§2.5.2) — every request here is independent.
#[derive(Debug, Clone)]
pub enum MasterRequest {
    /// Replicated mutation.
    Command(MasterCommand),
    /// Full partition table of a volume (the client caches this, §2.4).
    GetVolume { name: String },
    /// Same, by id.
    GetVolumeById { volume: VolumeId },
    /// All registered nodes.
    ListNodes,
}

impl RpcRoute for MasterRequest {
    fn route(&self) -> &'static str {
        match self {
            MasterRequest::Command(_) => "master.command",
            MasterRequest::GetVolume { .. } => "master.get_volume",
            MasterRequest::GetVolumeById { .. } => "master.get_volume_by_id",
            MasterRequest::ListNodes => "master.list_nodes",
        }
    }
}

/// Resource-manager churn counters.
#[derive(Debug, Clone, Default)]
pub struct MasterMetrics {
    /// Master-group leadership changes (election churn).
    pub leader_changes: Counter,
    /// Replicated commands applied to the state machine.
    pub commands_applied: Counter,
    /// Volumes created.
    pub volumes_created: Counter,
    /// Repair-scheduler sweeps proposed (`RepairTick`).
    pub repair_ticks: Counter,
    /// Dead replicas scheduled for decommission by the repair sweep (one
    /// per `ReplaceReplica`).
    pub repair_decommissions: Counter,
    /// Replacement replicas scheduled (one per `ReplaceReplica`).
    pub repair_replacements: Counter,
    /// Joins confirmed complete (`ConfirmReplicaJoined` accepted).
    pub repair_confirms: Counter,
    /// Meta partition range cuts planned (Algorithm 1 splits, including
    /// reconciliation re-emissions of an unacknowledged cut).
    pub splits_planned: Counter,
    /// Partition placements whose replicas all landed in one Raft set
    /// (§2.5.1).
    pub raftset_placements: Counter,
    /// Placements that had to fall back across Raft sets (no single set
    /// had enough live capacity).
    pub raftset_fallbacks: Counter,
}

impl MasterMetrics {
    /// Metrics counted into private atomics (no registry attached).
    pub fn detached() -> MasterMetrics {
        MasterMetrics::default()
    }

    /// Metrics registered under `master.*` names.
    pub fn bind(registry: &Registry) -> MasterMetrics {
        MasterMetrics {
            leader_changes: registry.counter("master.leader_changes"),
            commands_applied: registry.counter("master.commands_applied"),
            volumes_created: registry.counter("master.volumes_created"),
            repair_ticks: registry.counter("master.repair.ticks"),
            repair_decommissions: registry.counter("master.repair.decommissions"),
            repair_replacements: registry.counter("master.repair.replacements"),
            repair_confirms: registry.counter("master.repair.confirms"),
            splits_planned: registry.counter("master.splits.planned"),
            raftset_placements: registry.counter("master.raftset.placements"),
            raftset_fallbacks: registry.counter("master.raftset.fallbacks"),
        }
    }
}

/// Replies to [`MasterRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum MasterResponse {
    Applied(ApplyOutcome),
    Volume {
        volume: VolumeMeta,
        meta_partitions: Vec<MetaPartitionMeta>,
        data_partitions: Vec<DataPartitionMeta>,
    },
    Nodes(Vec<NodeStatus>),
}

struct Inner {
    multiraft: MultiRaft,
    state: MasterState,
    commits: GroupCommit<ApplyOutcome>,
}

/// One resource-manager replica (§2.3). The replicas form a single Raft
/// group whose log, hard state and compaction snapshot live on an
/// [`LsmEngine`] via [`cfs_raft::KvRaftStorage`] (the paper's RocksDB role) — the
/// state machine's only durable image, so a restarted replica recovers
/// entirely from local disk.
pub struct MasterNode {
    id: NodeId,
    hub: RaftHub,
    inner: Mutex<Inner>,
    metrics: MasterMetrics,
}

impl MasterNode {
    /// Open (or create) a replica persisting under `dir`, and register it
    /// on the raft hub. `members` are all master replica node ids.
    pub fn open(
        id: NodeId,
        hub: RaftHub,
        dir: &Path,
        members: Vec<NodeId>,
        cluster_config: ClusterConfig,
        raft_config: RaftConfig,
        seed: u64,
    ) -> Result<Arc<Self>> {
        Self::open_with_registry(
            id,
            hub,
            dir,
            members,
            cluster_config,
            raft_config,
            seed,
            None,
        )
    }

    /// [`MasterNode::open`] with metrics bound to `registry` (`master.*`
    /// churn counters plus the group's `raft.*` consensus counters).
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_registry(
        id: NodeId,
        hub: RaftHub,
        dir: &Path,
        members: Vec<NodeId>,
        cluster_config: ClusterConfig,
        raft_config: RaftConfig,
        seed: u64,
        registry: Option<&Registry>,
    ) -> Result<Arc<Self>> {
        let engine = Arc::new(LsmEngine::open_with_registry(
            dir,
            LsmOptions::default(),
            registry,
        )?);
        let mut multiraft = MultiRaft::persistent(id, raft_config, seed, engine, registry);
        // The state machine restarts from the group's durable snapshot (or
        // fresh).
        let state = match multiraft.rehost_group(MASTER_GROUP, members)? {
            Some(snap) => MasterState::from_snapshot(cluster_config, &snap.data)?,
            None => MasterState::new(cluster_config),
        };

        let node = Arc::new(MasterNode {
            id,
            hub: hub.clone(),
            inner: Mutex::new(Inner {
                multiraft,
                state,
                commits: GroupCommit::default(),
            }),
            metrics: registry.map(MasterMetrics::bind).unwrap_or_default(),
        });
        hub.register(node.clone() as Arc<dyn RaftHost>);
        Ok(node)
    }

    /// This replica's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Is this replica the group leader, caught up to its own term
    /// ([`cfs_raft::RaftNode::applied_own_term`])?
    pub fn is_leader(&self) -> bool {
        self.inner
            .lock()
            .multiraft
            .group(MASTER_GROUP)
            .is_some_and(|g| g.applied_own_term())
    }

    /// Handle one RPC.
    pub fn handle(&self, req: MasterRequest) -> Result<MasterResponse> {
        match req {
            MasterRequest::Command(cmd) => self.propose(&cmd).map(MasterResponse::Applied),
            MasterRequest::GetVolume { name } => {
                let inner = self.read()?;
                let vol = inner
                    .state
                    .volume_by_name(&name)
                    .ok_or_else(|| CfsError::NotFound(format!("volume {name}")))?
                    .clone();
                Ok(Self::volume_view(&inner.state, vol))
            }
            MasterRequest::GetVolumeById { volume } => {
                let inner = self.read()?;
                let vol = inner
                    .state
                    .volume(volume)
                    .ok_or_else(|| CfsError::NotFound(format!("{volume}")))?
                    .clone();
                Ok(Self::volume_view(&inner.state, vol))
            }
            MasterRequest::ListNodes => {
                let inner = self.read()?;
                let mut nodes: Vec<NodeStatus> = Vec::new();
                for kind in [crate::state::NodeKind::Meta, crate::state::NodeKind::Data] {
                    nodes.extend(inner.state.nodes_of_kind(kind).into_iter().cloned());
                }
                Ok(MasterResponse::Nodes(nodes))
            }
        }
    }

    /// The replicated state, under the one leader read rule
    /// ([`cfs_raft::leader_read`]).
    fn read(&self) -> Result<MutexGuard<'_, Inner>> {
        let lock = || self.inner.lock();
        Ok(leader_read(&self.hub, MASTER_GROUP, lock, |i| &mut i.multiraft)?.0)
    }

    fn volume_view(state: &MasterState, vol: VolumeMeta) -> MasterResponse {
        let meta_partitions = state
            .volume_meta_partitions(vol.volume)
            .into_iter()
            .cloned()
            .collect();
        let data_partitions = state
            .volume_data_partitions(vol.volume)
            .into_iter()
            .cloned()
            .collect();
        MasterResponse::Volume {
            volume: vol,
            meta_partitions,
            data_partitions,
        }
    }

    /// Queue a command for the replicas' next group-commit frame; the
    /// ticket resolves once that frame applies or fails.
    fn submit(&self, cmd: &MasterCommand) -> Result<u64> {
        let mut inner = self.inner.lock();
        inner
            .multiraft
            .group(MASTER_GROUP)
            .ok_or_else(|| CfsError::Internal("master group missing".into()))?
            .require_leader()?;
        Ok(inner.commits.enqueue(MASTER_GROUP, cmd.to_bytes()))
    }

    /// Propose a command through the replicas' Raft group and wait for the
    /// apply outcome.
    pub fn propose(&self, cmd: &MasterCommand) -> Result<ApplyOutcome> {
        let ticket = self.submit(cmd)?;
        self.hub.pump_until(
            || self.inner.lock().commits.is_resolved(ticket),
            COMMIT_TIMEOUT_TICKS,
        );
        let result = {
            let mut inner = self.inner.lock();
            let Some(result) = inner.commits.take(ticket) else {
                inner.commits.abandon(MASTER_GROUP, ticket);
                return Err(CfsError::Timeout(format!(
                    "master commit of ticket {ticket}"
                )));
            };
            result
        };
        // Repair counters are proposal-side (leader-only) so they count
        // each scheduling decision once, not once per replica apply.
        if let Ok(outcome) = &result {
            match cmd {
                MasterCommand::RepairTick => {
                    self.metrics.repair_ticks.inc();
                    for t in &outcome.tasks {
                        if let crate::state::Task::ReplaceReplica { .. } = t {
                            self.metrics.repair_decommissions.inc();
                            self.metrics.repair_replacements.inc();
                        }
                    }
                }
                MasterCommand::ConfirmReplicaJoined { .. } => self.metrics.repair_confirms.inc(),
                _ => {}
            }
            // Split + Raft-set placement counters, also proposal-side:
            // every planned cut, and each new partition classified by
            // whether its replicas landed in one Raft set (§2.5.1).
            let counts = outcome.tasks.iter().any(|t| {
                matches!(
                    t,
                    crate::state::Task::UpdateMetaPartitionEnd { .. }
                        | crate::state::Task::CreateMetaPartition { .. }
                        | crate::state::Task::CreateDataPartition { .. }
                )
            });
            if counts {
                let inner = self.inner.lock();
                for t in &outcome.tasks {
                    match t {
                        crate::state::Task::UpdateMetaPartitionEnd { .. } => {
                            self.metrics.splits_planned.inc()
                        }
                        crate::state::Task::CreateMetaPartition { members, .. }
                        | crate::state::Task::CreateDataPartition { members, .. } => {
                            if inner.state.members_in_one_set(members) {
                                self.metrics.raftset_placements.inc()
                            } else {
                                self.metrics.raftset_fallbacks.inc()
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        result
    }

    /// Read-only view accessor for tests and the cluster driver.
    pub fn with_state<R>(&self, f: impl FnOnce(&MasterState) -> R) -> R {
        f(&self.inner.lock().state)
    }
}

impl RaftHost for MasterNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn raft_tick(&self) {
        self.inner.lock().multiraft.tick_all();
    }

    fn raft_drain(&self) -> Vec<WireEnvelope> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.commits.flush(&mut inner.multiraft, |_, _, _| Ok(()));
        let (msgs, readies) = inner.multiraft.drain();
        for (gid, ready) in readies {
            debug_assert_eq!(gid, MASTER_GROUP);
            if ready.became_leader {
                self.metrics.leader_changes.inc();
            }

            if let Some(snap) = ready.snapshot {
                if let Ok(st) = MasterState::from_snapshot(inner.state.config().clone(), &snap.data)
                {
                    inner.state = st;
                }
            }

            let hint = inner.multiraft.group(gid).and_then(|g| g.leader_hint());
            let state = &mut inner.state;
            inner.commits.apply(gid, ready.committed, hint, |bytes| {
                let cmd = MasterCommand::from_bytes(bytes)?;
                let r = state.apply(&cmd);
                if r.is_ok() {
                    self.metrics.commands_applied.inc();
                    if matches!(cmd, MasterCommand::CreateVolume { .. }) {
                        self.metrics.volumes_created.inc();
                    }
                }
                r
            });

            // Log compaction (§2.1.3): the state snapshot becomes the
            // group's, which `KvRaftStorage` persists.
            if let Some(g) = inner.multiraft.group_mut(gid) {
                g.maybe_compact(|| inner.state.snapshot_bytes());
            }
        }
        msgs
    }

    fn raft_deliver(&self, env: WireEnvelope) {
        self.inner.lock().multiraft.receive(env.from, env.msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeKind;
    use cfs_types::testutil::TempDir;

    fn replica_set(dir: &TempDir, hub: &RaftHub, n: u64) -> Vec<Arc<MasterNode>> {
        replica_set_with(dir, hub, n, RaftConfig::default())
    }

    fn replica_set_with(
        dir: &TempDir,
        hub: &RaftHub,
        n: u64,
        raft_config: RaftConfig,
    ) -> Vec<Arc<MasterNode>> {
        let members: Vec<NodeId> = (1001..1001 + n).map(NodeId).collect();
        members
            .iter()
            .map(|&id| {
                MasterNode::open(
                    id,
                    hub.clone(),
                    &dir.path().join(format!("m{id}")),
                    members.clone(),
                    ClusterConfig::default(),
                    raft_config.clone(),
                    3,
                )
                .unwrap()
            })
            .collect()
    }

    fn elect(hub: &RaftHub, masters: &[Arc<MasterNode>]) -> Arc<MasterNode> {
        assert!(hub.pump_until(|| masters.iter().any(|m| m.is_leader()), 5_000));
        masters.iter().find(|m| m.is_leader()).unwrap().clone()
    }

    #[test]
    fn replicated_volume_creation_with_tasks() {
        let dir = TempDir::new("master").unwrap();
        let hub = RaftHub::new();
        let masters = replica_set(&dir, &hub, 3);
        let leader = elect(&hub, &masters);

        for i in 1..=4u64 {
            leader
                .propose(&MasterCommand::RegisterNode {
                    node: NodeId(i),
                    kind: NodeKind::Meta,
                })
                .unwrap();
            leader
                .propose(&MasterCommand::RegisterNode {
                    node: NodeId(10 + i),
                    kind: NodeKind::Data,
                })
                .unwrap();
        }
        let out = leader
            .propose(&MasterCommand::CreateVolume {
                name: "shared".into(),
                meta_partition_count: 1,
                data_partition_count: 2,
            })
            .unwrap();
        assert_eq!(out.tasks.len(), 3);

        // Query through the RPC surface.
        match leader
            .handle(MasterRequest::GetVolume {
                name: "shared".into(),
            })
            .unwrap()
        {
            MasterResponse::Volume {
                meta_partitions,
                data_partitions,
                ..
            } => {
                assert_eq!(meta_partitions.len(), 1);
                assert_eq!(data_partitions.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Followers converge (heartbeats propagate the commit).
        for _ in 0..200 {
            hub.tick_and_pump();
        }
        for m in &masters {
            m.with_state(|s| {
                assert!(s.volume_by_name("shared").is_some(), "{}", m.id());
            });
        }
    }

    #[test]
    fn follower_queries_redirect() {
        let dir = TempDir::new("master").unwrap();
        let hub = RaftHub::new();
        let masters = replica_set(&dir, &hub, 3);
        let leader = elect(&hub, &masters);
        let follower = masters.iter().find(|m| !m.is_leader()).unwrap();
        let err = follower.handle(MasterRequest::ListNodes).unwrap_err();
        match err {
            CfsError::NotLeader { hint, .. } => assert_eq!(hint, Some(leader.id())),
            other => panic!("expected NotLeader, got {other}"),
        }
    }

    /// Drive a one-replica master under a fresh directory through node
    /// registrations, a volume and heartbeat rounds, reopen it from that
    /// directory alone, and check the ready leader recovered the identical
    /// state. Returns whether the closed replica's image was a compacted
    /// snapshot plus a non-empty log tail.
    fn recovers_after_restart(raft_config: RaftConfig) -> bool {
        let dir = TempDir::new("master").unwrap();
        let open = |hub: &RaftHub| {
            MasterNode::open(
                NodeId(1001),
                hub.clone(),
                dir.path(),
                vec![NodeId(1001)],
                ClusterConfig::default(),
                raft_config.clone(),
                3,
            )
            .unwrap()
        };
        let (before, snapshot_plus_tail) = {
            let hub = RaftHub::new();
            let m = open(&hub);
            assert!(hub.pump_until(|| m.is_leader(), 5_000));
            for i in 1..=3u64 {
                m.propose(&MasterCommand::RegisterNode {
                    node: NodeId(i),
                    kind: NodeKind::Meta,
                })
                .unwrap();
            }
            m.propose(&MasterCommand::CreateVolume {
                name: "persisted".into(),
                meta_partition_count: 1,
                data_partition_count: 0,
            })
            .unwrap();
            for u in 1..=3u64 {
                m.propose(&MasterCommand::Heartbeat {
                    reporting: vec![NodeId(1), NodeId(2)],
                    utilization: vec![(NodeId(1), u)],
                    meta: vec![],
                    full: vec![],
                })
                .unwrap();
            }
            let inner = m.inner.lock();
            let tail = inner.multiraft.group(MASTER_GROUP).unwrap().live_log_len() > 0;
            let snapshot = inner
                .multiraft
                .group(MASTER_GROUP)
                .unwrap()
                .persistent_state()
                .snapshot
                .is_some();
            (inner.state.snapshot_bytes(), snapshot && tail)
        };
        let hub = RaftHub::new();
        let m = open(&hub);
        assert!(hub.pump_until(|| m.is_leader(), 5_000));
        m.with_state(|s| {
            assert!(s.volume_by_name("persisted").is_some());
            assert_eq!(s.nodes_of_kind(NodeKind::Meta).len(), 3);
            assert_eq!(s.heartbeat_round(), 3);
            assert_eq!(s.snapshot_bytes(), before);
        });
        snapshot_plus_tail
    }

    #[test]
    fn single_replica_recovers_from_kv_after_restart() {
        // Default threshold: nothing compacts, the whole log replays.
        assert!(!recovers_after_restart(RaftConfig::default()));
    }

    #[test]
    fn single_replica_recovers_from_compacted_snapshot_plus_tail() {
        let raft_config = RaftConfig {
            snapshot_threshold: 4,
            ..RaftConfig::default()
        };
        assert!(recovers_after_restart(raft_config));
    }

    #[test]
    fn leader_failover_preserves_state() {
        let dir = TempDir::new("master").unwrap();
        let hub = RaftHub::new();
        let faults = cfs_types::FaultState::new();
        hub.set_faults(faults.clone());
        let masters = replica_set(&dir, &hub, 3);
        let leader = elect(&hub, &masters);
        for i in 1..=3u64 {
            leader
                .propose(&MasterCommand::RegisterNode {
                    node: NodeId(i),
                    kind: NodeKind::Data,
                })
                .unwrap();
        }
        faults.set_down(leader.id(), true);
        assert!(hub.pump_until(
            || masters
                .iter()
                .any(|m| m.id() != leader.id() && m.is_leader()),
            10_000
        ));
        let new_leader = masters
            .iter()
            .find(|m| m.id() != leader.id() && m.is_leader())
            .unwrap();
        new_leader.with_state(|s| {
            assert_eq!(s.nodes_of_kind(NodeKind::Data).len(), 3);
        });
        // And it accepts new commands.
        new_leader
            .propose(&MasterCommand::RegisterNode {
                node: NodeId(4),
                kind: NodeKind::Data,
            })
            .unwrap();
    }

    /// A leader cut off from its peers keeps believing it leads. Once the
    /// majority elected a new leader and committed a change to the
    /// volume's partition table, the old leader must answer `GetVolume`
    /// with a retryable error, never with the superseded table.
    #[test]
    fn cut_off_leader_never_serves_a_superseded_volume_table() {
        let dir = TempDir::new("master").unwrap();
        let hub = RaftHub::new();
        let faults = cfs_types::FaultState::new();
        hub.set_faults(faults.clone());
        let masters = replica_set(&dir, &hub, 3);
        let old = elect(&hub, &masters);
        for i in 1..=3u64 {
            for (node, kind) in [(i, NodeKind::Meta), (10 + i, NodeKind::Data)] {
                let cmd = MasterCommand::RegisterNode {
                    node: NodeId(node),
                    kind,
                };
                old.propose(&cmd).unwrap();
            }
        }
        old.propose(&MasterCommand::CreateVolume {
            name: "v".into(),
            meta_partition_count: 1,
            data_partition_count: 1,
        })
        .unwrap();
        let get = || MasterRequest::GetVolume { name: "v".into() };
        let meta_partitions = |resp| match resp {
            MasterResponse::Volume {
                meta_partitions, ..
            } => meta_partitions,
            other => panic!("unexpected {other:?}"),
        };
        let table = meta_partitions(old.handle(get()).unwrap());
        assert_eq!(table.len(), 1);

        let others: Vec<&Arc<MasterNode>> = masters.iter().filter(|m| m.id() != old.id()).collect();
        for m in &others {
            faults.set_partitioned(old.id(), m.id(), true);
        }
        assert!(hub.pump_until(|| others.iter().any(|m| m.is_leader()), 10_000));
        let new = others.iter().find(|m| m.is_leader()).unwrap();
        new.propose(&MasterCommand::SplitMetaPartition {
            partition: table[0].partition,
        })
        .unwrap();
        assert_eq!(meta_partitions(new.handle(get()).unwrap()).len(), 2);

        let believes = old
            .inner
            .lock()
            .multiraft
            .group(MASTER_GROUP)
            .unwrap()
            .is_leader();
        assert!(believes, "the cut-off leader still believes it leads");
        match old.handle(get()) {
            Err(e) => assert!(e.is_retryable(), "non-retryable: {e}"),
            Ok(resp) => panic!("a deposed leader served {resp:?}"),
        }
    }

    /// `(term, commit, last index)` of a replica's group.
    fn indices(m: &MasterNode) -> (u64, u64, u64) {
        let inner = m.inner.lock();
        let g = inner.multiraft.group(MASTER_GROUP).unwrap();
        (g.term(), g.commit_index(), g.last_index())
    }

    /// Tick only `m`, then deliver: the test decides who times out.
    fn step_alone(hub: &RaftHub, m: &MasterNode, until: impl Fn() -> bool) {
        for _ in 0..2_000 {
            if until() {
                return;
            }
            m.raft_tick();
            hub.pump();
        }
        panic!("condition not reached by ticking {} alone", m.id());
    }

    /// A deposed leader's command must never resolve with the result of
    /// the entry that replaced it, even when that leader is re-elected and
    /// applies the replacement while leading.
    #[test]
    fn re_elected_leader_never_hands_a_lost_command_another_result() {
        let dir = TempDir::new("master").unwrap();
        let hub = RaftHub::new();
        let faults = cfs_types::FaultState::new();
        hub.set_faults(faults.clone());
        // No vote stickiness, so ticking one replica alone decides who
        // wins each election.
        let config = RaftConfig {
            lease_ticks: 0,
            ..RaftConfig::default()
        };
        let masters = replica_set_with(&dir, &hub, 3, config);
        let old = elect(&hub, &masters);
        for _ in 0..100 {
            hub.tick_and_pump();
        }
        let others: Vec<Arc<MasterNode>> = masters
            .iter()
            .filter(|m| m.id() != old.id())
            .cloned()
            .collect();
        let (new, third) = (&others[0], &others[1]);
        let register = |n| MasterCommand::RegisterNode {
            node: NodeId(n),
            kind: NodeKind::Data,
        };

        // Cut off, the leader proposes X, then A into the slot after it.
        faults.set_partitioned(old.id(), new.id(), true);
        faults.set_partitioned(old.id(), third.id(), true);
        let x = old.submit(&register(1)).unwrap();
        hub.pump();
        let a = old.submit(&register(2)).unwrap();
        hub.pump();

        // The majority elects `new`; its no-op takes X's index.
        step_alone(&hub, new, || new.is_leader());
        // `new` reaches `old` only. `old` steps down and drops X and A.
        faults.set_partitioned(new.id(), third.id(), true);
        faults.set_partitioned(old.id(), new.id(), false);
        step_alone(&hub, new, || indices(&old) == indices(new));
        // B takes A's index and commits with `old`'s ack; `old` holds B
        // but has not learnt that it committed.
        let b = new.submit(&register(3)).unwrap();
        hub.pump();
        assert!(matches!(new.inner.lock().commits.take(b), Some(Ok(_))));
        let (_, commit, last) = indices(&old);
        assert_eq!(last, commit + 1, "B is in old's log, uncommitted");

        // `old` is re-elected with `third`'s vote and applies B as leader.
        faults.set_partitioned(old.id(), new.id(), true);
        faults.set_partitioned(old.id(), third.id(), false);
        step_alone(&hub, &old, || old.is_leader());
        old.with_state(|s| {
            assert!(s
                .nodes_of_kind(NodeKind::Data)
                .iter()
                .any(|n| n.node == NodeId(3)))
        });

        // The callers of A and X never see B's result.
        let outcome = old.inner.lock().commits.take(a);
        assert!(
            matches!(outcome, Some(Err(CfsError::NotLeader { .. }))),
            "A's caller got {outcome:?}"
        );
        let outcome = old.inner.lock().commits.take(x);
        assert!(
            matches!(outcome, Some(Err(CfsError::NotLeader { .. }))),
            "X's caller got {outcome:?}"
        );
    }
}
