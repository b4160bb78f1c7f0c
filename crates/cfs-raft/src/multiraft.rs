//! MultiRaft: many groups per node, coalesced heartbeats.
//!
//! A CFS node hosts hundreds of partitions, each its own Raft group. Naïve
//! per-group heartbeats would send `groups × peers` messages every
//! heartbeat interval; MultiRaft folds all empty heartbeats between the
//! same `(from, to)` node pair into one wire message (§2.1.2), and §2.5.1's
//! Raft sets bound how many distinct `to` nodes exist at all.
//! [`MultiRaft::stats`] and [`MultiRaft::distinct_peers`] count both
//! effects; the raft-set budget test pins them.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use cfs_kvwal::LsmEngine;
use cfs_obs::Registry;
use cfs_types::{NodeId, RaftGroupId, Result};

use crate::config::{RaftConfig, HEARTBEAT_INTERVAL};
use crate::message::{Envelope, Message, SnapshotPayload};
use crate::metrics::RaftMetrics;
use crate::node::{RaftNode, Ready};
use crate::storage::{KvRaftStorage, RaftStorage};

/// One group's heartbeat folded into a coalesced frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBeat {
    pub group: RaftGroupId,
    pub term: u64,
    pub prev_index: u64,
    pub prev_term: u64,
    pub leader_commit: u64,
    /// Lease probe stamp (see [`Message::AppendEntries`]); survives
    /// coalescing so heartbeat acks still renew the leader's read lease.
    pub probe: u64,
}

/// One group's heartbeat ack folded into a coalesced frame:
/// `(group, term, success, match_index, probe)`.
pub type GroupBeatAck = (RaftGroupId, u64, bool, u64, u64);

/// What actually crosses the network between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A single group's non-heartbeat message.
    Raft(RaftGroupId, Message),
    /// All heartbeats from one node to another for this tick.
    CoalescedHeartbeat(Vec<GroupBeat>),
    /// All heartbeat acks from one node to another for this tick.
    CoalescedHeartbeatResp(Vec<GroupBeatAck>),
}

/// A routed wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEnvelope {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: WireMsg,
}

/// Wire traffic counters (coalescing folds heartbeats, Raft sets bound
/// their destinations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiRaftStats {
    /// Wire messages sent (after coalescing, if enabled).
    pub wire_messages_sent: u64,
    /// Raw per-group messages generated before coalescing.
    pub raw_messages_generated: u64,
}

/// All Raft groups hosted by one node.
pub struct MultiRaft {
    node_id: NodeId,
    config: RaftConfig,
    seed: u64,
    /// Hosted groups, in id order: ticks, drains and therefore wire
    /// messages run in the same order on every run.
    groups: BTreeMap<RaftGroupId, RaftNode>,
    /// Fold heartbeat traffic per destination (the MultiRaft optimization).
    coalesce: bool,
    /// Node-level heartbeat phase shared by every hosted group.
    heartbeat_elapsed: u64,
    stats: MultiRaftStats,
    /// Every distinct destination node this host has ever sent a wire
    /// message to. With §2.5.1 Raft sets this stays bounded by the set
    /// size no matter how many groups the node hosts — the quantity the
    /// raft-set budget test pins.
    peers: HashSet<NodeId>,
    /// Shared by every hosted group, present and future.
    metrics: RaftMetrics,
    /// Durable raft storage attached to every hosted group, present and
    /// future (`None` = in-memory crash-image model).
    storage: Option<Arc<dyn RaftStorage>>,
}

impl std::fmt::Debug for MultiRaft {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiRaft")
            .field("node_id", &self.node_id)
            .field("groups", &self.groups.len())
            .field("coalesce", &self.coalesce)
            .finish()
    }
}

impl MultiRaft {
    /// Empty MultiRaft host for `node_id`.
    pub fn new(node_id: NodeId, config: RaftConfig, seed: u64, coalesce: bool) -> Self {
        MultiRaft {
            node_id,
            config,
            seed,
            groups: BTreeMap::new(),
            coalesce,
            heartbeat_elapsed: 0,
            stats: MultiRaftStats::default(),
            peers: HashSet::new(),
            metrics: RaftMetrics::detached(),
            storage: None,
        }
    }

    /// The host of a node persisting under `engine`: every group it hosts
    /// writes its durable state there (see [`RaftNode::set_storage`]), and
    /// its consensus counters bind to `registry` (`None`: detached).
    pub fn persistent(
        node_id: NodeId,
        config: RaftConfig,
        seed: u64,
        engine: Arc<LsmEngine>,
        registry: Option<&Registry>,
    ) -> Self {
        MultiRaft {
            metrics: registry.map(RaftMetrics::bind).unwrap_or_default(),
            storage: Some(Arc::new(KvRaftStorage::new(engine))),
            ..MultiRaft::new(node_id, config, seed, true)
        }
    }

    /// Host `group` again from its durable state, or fresh if it has none.
    /// Returns the compaction snapshot its state machine restarts from
    /// (`None`: empty); committed entries above it re-apply through the
    /// normal `Ready` path (§2.1.3).
    pub fn rehost_group(
        &mut self,
        group: RaftGroupId,
        members: Vec<NodeId>,
    ) -> Result<Option<&SnapshotPayload>> {
        let stored = match &self.storage {
            Some(s) => s.load(group)?,
            None => None,
        };
        match stored {
            Some(state) => self.restore_group(group, members, state)?,
            None => self.create_group(group, members)?,
        }
        Ok(self.groups[&group].snapshot())
    }

    /// Create (and host) a new group replica on this node.
    pub fn create_group(&mut self, group: RaftGroupId, members: Vec<NodeId>) -> Result<()> {
        if self.groups.contains_key(&group) {
            return Err(cfs_types::CfsError::Exists(format!("{group}")));
        }
        let mut node = RaftNode::new(self.node_id, group, members, self.config.clone(), self.seed);
        // The host owns the heartbeat cadence so all groups beat in phase
        // and fold into one wire frame per peer.
        node.set_external_heartbeat(true);
        node.set_metrics(self.metrics.clone());
        if let Some(s) = &self.storage {
            node.set_storage(s.clone())?;
        }
        self.groups.insert(group, node);
        Ok(())
    }

    /// Re-host a group from its durable state after a crash (see
    /// [`RaftNode::restore`]). The caller is responsible for rebuilding
    /// the group's state machine from `state.snapshot`.
    pub fn restore_group(
        &mut self,
        group: RaftGroupId,
        members: Vec<NodeId>,
        state: crate::node::PersistentRaftState,
    ) -> Result<()> {
        if self.groups.contains_key(&group) {
            return Err(cfs_types::CfsError::Exists(format!("{group}")));
        }
        let mut node = RaftNode::restore(
            self.node_id,
            group,
            members,
            self.config.clone(),
            self.seed,
            state,
        );
        node.set_external_heartbeat(true);
        node.set_metrics(self.metrics.clone());
        if let Some(s) = &self.storage {
            node.set_storage(s.clone())?;
        }
        self.groups.insert(group, node);
        Ok(())
    }

    /// Change a hosted group's member list in place (see
    /// [`RaftNode::set_members`]): its durable state and applied index
    /// carry over and nothing is written.
    pub fn set_members(&mut self, group: RaftGroupId, members: Vec<NodeId>) -> Result<()> {
        let node = self
            .groups
            .get_mut(&group)
            .ok_or_else(|| cfs_types::CfsError::NotFound(format!("{group}")))?;
        node.set_members(members);
        Ok(())
    }

    /// Remove a group replica (and its stored state, if storage is
    /// attached).
    pub fn remove_group(&mut self, group: RaftGroupId) -> bool {
        let removed = self.groups.remove(&group).is_some();
        if removed {
            if let Some(s) = &self.storage {
                let _ = s.remove_group(group);
            }
        }
        removed
    }

    /// Borrow one group's node.
    pub fn group(&self, group: RaftGroupId) -> Option<&RaftNode> {
        self.groups.get(&group)
    }

    /// Mutably borrow one group's node (propose, compact…).
    pub fn group_mut(&mut self, group: RaftGroupId) -> Option<&mut RaftNode> {
        self.groups.get_mut(&group)
    }

    /// Number of hosted groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Traffic counters.
    pub fn stats(&self) -> MultiRaftStats {
        self.stats
    }

    /// How many distinct nodes this host has sent wire traffic to —
    /// the per-node fan-out that Raft sets keep O(set size).
    pub fn distinct_peers(&self) -> usize {
        self.peers.len()
    }

    /// Tick every hosted group once; on the shared heartbeat boundary,
    /// fire one synchronized heartbeat from every leader group.
    pub fn tick_all(&mut self) {
        for node in self.groups.values_mut() {
            node.tick();
        }
        self.heartbeat_elapsed += 1;
        if self.heartbeat_elapsed >= HEARTBEAT_INTERVAL {
            self.heartbeat_elapsed = 0;
            for node in self.groups.values_mut() {
                node.force_heartbeat();
            }
        }
    }

    /// Deliver one wire message, de-multiplexing coalesced frames.
    pub fn receive(&mut self, from: NodeId, msg: WireMsg) {
        match msg {
            WireMsg::Raft(group, m) => {
                if let Some(node) = self.groups.get_mut(&group) {
                    node.step(from, m);
                }
            }
            WireMsg::CoalescedHeartbeat(beats) => {
                for b in beats {
                    if let Some(node) = self.groups.get_mut(&b.group) {
                        node.step(
                            from,
                            Message::AppendEntries {
                                term: b.term,
                                prev_index: b.prev_index,
                                prev_term: b.prev_term,
                                entries: vec![],
                                leader_commit: b.leader_commit,
                                probe: b.probe,
                            },
                        );
                    }
                }
            }
            WireMsg::CoalescedHeartbeatResp(acks) => {
                for (group, term, success, match_index, probe) in acks {
                    if let Some(node) = self.groups.get_mut(&group) {
                        node.step(
                            from,
                            Message::AppendEntriesResp {
                                term,
                                success,
                                match_index,
                                probe,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Drain every group's `Ready`, returning `(wire messages, per-group
    /// readies)`. Heartbeat AppendEntries (and their acks) between the same
    /// node pair are folded into one wire message when coalescing is on.
    pub fn drain(&mut self) -> (Vec<WireEnvelope>, Vec<(RaftGroupId, Ready)>) {
        let mut raw: Vec<Envelope> = Vec::new();
        let mut readies = Vec::new();
        for (&gid, node) in self.groups.iter_mut() {
            let mut ready = node.take_ready();
            raw.append(&mut ready.messages);
            if !ready.is_empty() {
                readies.push((gid, ready));
            }
        }
        self.stats.raw_messages_generated += raw.len() as u64;

        let mut wire: Vec<WireEnvelope> = Vec::new();
        if !self.coalesce {
            for env in raw {
                wire.push(WireEnvelope {
                    from: env.from,
                    to: env.to,
                    msg: WireMsg::Raft(env.group, env.msg),
                });
            }
            self.peers.extend(wire.iter().map(|e| e.to));
            self.stats.wire_messages_sent += wire.len() as u64;
            return (wire, readies);
        }

        // Keyed in node order so the coalesced frames go out in the same
        // order on every run.
        let mut beats: BTreeMap<NodeId, Vec<GroupBeat>> = BTreeMap::new();
        let mut acks: BTreeMap<NodeId, Vec<GroupBeatAck>> = BTreeMap::new();
        for env in raw {
            match env.msg {
                Message::AppendEntries {
                    term,
                    prev_index,
                    prev_term,
                    ref entries,
                    leader_commit,
                    probe,
                } if entries.is_empty() => {
                    beats.entry(env.to).or_default().push(GroupBeat {
                        group: env.group,
                        term,
                        prev_index,
                        prev_term,
                        leader_commit,
                        probe,
                    });
                }
                Message::AppendEntriesResp {
                    term,
                    success,
                    match_index,
                    probe,
                } => {
                    acks.entry(env.to).or_default().push((
                        env.group,
                        term,
                        success,
                        match_index,
                        probe,
                    ));
                }
                msg => {
                    wire.push(WireEnvelope {
                        from: env.from,
                        to: env.to,
                        msg: WireMsg::Raft(env.group, msg),
                    });
                }
            }
        }
        for (to, list) in beats {
            wire.push(WireEnvelope {
                from: self.node_id,
                to,
                msg: WireMsg::CoalescedHeartbeat(list),
            });
        }
        for (to, list) in acks {
            wire.push(WireEnvelope {
                from: self.node_id,
                to,
                msg: WireMsg::CoalescedHeartbeatResp(list),
            });
        }
        self.peers.extend(wire.iter().map(|e| e.to));
        self.stats.wire_messages_sent += wire.len() as u64;
        (wire, readies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tick and exchange messages among `hosts` for `ticks` rounds,
    /// adding to `applied[i]` the non-empty entries host `i` surfaces.
    fn pump(hosts: &mut [MultiRaft], ticks: u64, applied: &mut [usize]) {
        for _ in 0..ticks {
            for h in hosts.iter_mut() {
                h.tick_all();
            }
            loop {
                let mut inflight = Vec::new();
                for (i, h) in hosts.iter_mut().enumerate() {
                    let (msgs, readies) = h.drain();
                    inflight.extend(msgs);
                    for (_, ready) in readies {
                        applied[i] += ready
                            .committed
                            .iter()
                            .filter(|e| !e.data.is_empty())
                            .count();
                    }
                }
                if inflight.is_empty() {
                    break;
                }
                for env in inflight {
                    let to = hosts.iter().position(|h| h.node_id == env.to).unwrap();
                    hosts[to].receive(env.from, env.msg);
                }
            }
        }
    }

    /// Three nodes, `g` groups each, fully replicated; run until every
    /// group has a leader. Returns total wire messages.
    pub(super) fn run_cluster(groups: u64, coalesce: bool, ticks: u64) -> (u64, u64) {
        let ids = [NodeId(1), NodeId(2), NodeId(3)];
        let mut hosts: Vec<MultiRaft> = ids
            .iter()
            .map(|&id| MultiRaft::new(id, RaftConfig::default(), 99, coalesce))
            .collect();
        for g in 1..=groups {
            for h in hosts.iter_mut() {
                h.create_group(RaftGroupId(g), ids.to_vec()).unwrap();
            }
        }
        pump(&mut hosts, ticks, &mut [0; 3]);
        let wire: u64 = hosts.iter().map(|h| h.stats().wire_messages_sent).sum();
        let raw: u64 = hosts.iter().map(|h| h.stats().raw_messages_generated).sum();
        (wire, raw)
    }

    #[test]
    fn all_groups_elect_leaders() {
        let ids = [NodeId(1), NodeId(2), NodeId(3)];
        let mut hosts: Vec<MultiRaft> = ids
            .iter()
            .map(|&id| MultiRaft::new(id, RaftConfig::default(), 5, true))
            .collect();
        for g in 1..=10 {
            for h in hosts.iter_mut() {
                h.create_group(RaftGroupId(g), ids.to_vec()).unwrap();
            }
        }
        pump(&mut hosts, 600, &mut [0; 3]);
        for g in 1..=10 {
            let leaders: usize = hosts
                .iter()
                .filter(|h| h.group(RaftGroupId(g)).unwrap().is_leader())
                .count();
            assert_eq!(leaders, 1, "group {g} has exactly one leader");
        }
    }

    #[test]
    fn coalescing_reduces_wire_messages() {
        let (wire_on, raw_on) = run_cluster(20, true, 800);
        let (wire_off, raw_off) = run_cluster(20, false, 800);
        // Same protocol work either way…
        assert!(raw_on > 0 && raw_off > 0);
        // …but far fewer wire messages with coalescing: 20 groups' steady
        // state heartbeats per peer collapse into one frame.
        assert!(
            wire_on * 3 < wire_off,
            "coalesced {wire_on} vs raw {wire_off}"
        );
    }

    #[test]
    fn distinct_peers_is_bounded_by_membership() {
        let ids = [NodeId(1), NodeId(2), NodeId(3)];
        let mut hosts: Vec<MultiRaft> = ids
            .iter()
            .map(|&id| MultiRaft::new(id, RaftConfig::default(), 42, true))
            .collect();
        for g in 1..=5 {
            for h in hosts.iter_mut() {
                h.create_group(RaftGroupId(g), ids.to_vec()).unwrap();
            }
        }
        pump(&mut hosts, 400, &mut [0; 3]);
        for h in &hosts {
            // 5 groups, but only 2 other nodes exist to talk to.
            assert!(h.distinct_peers() >= 1 && h.distinct_peers() <= 2);
        }
    }

    #[test]
    fn set_members_keeps_applied_state_and_ignores_an_unchanged_list() {
        let ids = vec![NodeId(1), NodeId(2), NodeId(3)];
        let g = RaftGroupId(1);
        let mut hosts: Vec<MultiRaft> = ids
            .iter()
            .map(|&id| MultiRaft::new(id, RaftConfig::default(), 7, true))
            .collect();
        for h in hosts.iter_mut() {
            h.create_group(g, ids.clone()).unwrap();
        }
        let mut applied = vec![0; ids.len()];
        pump(&mut hosts, 400, &mut applied);
        let li = hosts
            .iter()
            .position(|h| h.group(g).unwrap().is_leader())
            .expect("a leader");
        for i in 0..5u8 {
            hosts[li].group_mut(g).unwrap().propose(vec![i]).unwrap();
        }
        pump(&mut hosts, 100, &mut applied);
        assert_eq!(applied, vec![5; ids.len()]);
        let indices = |hosts: &[MultiRaft]| -> Vec<(u64, u64, u64)> {
            hosts
                .iter()
                .map(|h| {
                    let n = h.group(g).unwrap();
                    (n.term(), n.commit_index(), n.applied_index())
                })
                .collect()
        };
        let before = indices(&hosts);
        assert!(before
            .iter()
            .all(|&(_, commit, applied)| commit > 5 && applied == commit));

        // An unchanged list is a no-op: the leader keeps leading.
        for h in hosts.iter_mut() {
            h.set_members(g, ids.clone()).unwrap();
        }
        assert!(hosts[li].group(g).unwrap().is_leader());
        assert_eq!(indices(&hosts), before);

        // A rotated list steps every replica down and keeps its term,
        // commit and applied indexes.
        let rotated = vec![ids[1], ids[2], ids[0]];
        for h in hosts.iter_mut() {
            h.set_members(g, rotated.clone()).unwrap();
            let n = h.group(g).unwrap();
            assert!(!n.is_leader());
            assert_eq!(n.members(), rotated.as_slice());
        }
        assert_eq!(indices(&hosts), before);

        // A new leader is elected and no replica re-applies an entry.
        pump(&mut hosts, 400, &mut applied);
        assert!(hosts.iter().any(|h| h.group(g).unwrap().is_leader()));
        assert_eq!(applied, vec![5; ids.len()]);
        assert!(hosts[0].set_members(RaftGroupId(9), ids).is_err());
    }

    #[test]
    fn group_lifecycle() {
        let mut h = MultiRaft::new(NodeId(1), RaftConfig::default(), 1, true);
        h.create_group(RaftGroupId(1), vec![NodeId(1)]).unwrap();
        assert!(h.create_group(RaftGroupId(1), vec![NodeId(1)]).is_err());
        assert_eq!(h.group_count(), 1);
        assert!(h.remove_group(RaftGroupId(1)));
        assert!(!h.remove_group(RaftGroupId(1)));
        assert_eq!(h.group_count(), 0);
    }
}
