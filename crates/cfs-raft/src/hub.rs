//! The raft hub: message plumbing for an in-process cluster.
//!
//! Each node that hosts Raft groups (meta nodes, data nodes, the resource
//! manager replicas) implements [`RaftHost`]; the hub moves wire messages
//! between hosts, honoring the shared [`FaultState`] so a "down" node's
//! consensus traffic stops exactly like its RPC traffic. Because the whole
//! cluster is in-process and sans-io, delivery is a pump loop rather than
//! sockets: callers pump after proposing and the messages flow until
//! quiescent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use cfs_types::{FaultState, NodeId};

use crate::multiraft::WireEnvelope;

/// A node that hosts a [`crate::MultiRaft`] instance.
pub trait RaftHost: Send + Sync {
    /// This host's node id.
    fn node_id(&self) -> NodeId;

    /// Advance logical time one tick (drives elections and heartbeats).
    fn raft_tick(&self);

    /// Drain outbound wire messages (also applies committed entries
    /// internally).
    fn raft_drain(&self) -> Vec<WireEnvelope>;

    /// Deliver one inbound wire message.
    fn raft_deliver(&self, env: WireEnvelope);
}

/// Scriptable consensus-message scheduling for chaos tests: each wire
/// message about to be delivered gets a hub-wide sequence number and the
/// schedule decides how many future pump rounds to defer it by (0 =
/// deliver now). With a deterministic pump order the verdicts — and thus
/// the whole fault interleaving — replay exactly from a seed.
pub trait DeliverySchedule: Send + Sync {
    fn defer_rounds(&self, seq: u64, from: NodeId, to: NodeId) -> u64;
}

/// Routes Raft traffic among registered hosts.
#[derive(Clone, Default)]
pub struct RaftHub {
    inner: Arc<HubInner>,
}

#[derive(Default)]
struct HubInner {
    hosts: RwLock<Vec<Weak<dyn RaftHost>>>,
    faults: RwLock<Option<FaultState>>,
    schedule: RwLock<Option<Arc<dyn DeliverySchedule>>>,
    /// Deferred messages with the pump round at which they become due.
    pending: Mutex<Vec<(u64, WireEnvelope)>>,
    /// Monotonic pump-round counter (one per [`RaftHub::pump`] call).
    round: AtomicU64,
    /// Sequence numbers handed to the delivery schedule.
    seq: AtomicU64,
}

impl RaftHub {
    /// Empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Share fault state with the RPC network.
    pub fn set_faults(&self, faults: FaultState) {
        *self.inner.faults.write() = Some(faults);
    }

    /// Install (or clear) a delivery schedule. Clearing does not flush
    /// already-deferred messages; they deliver as their rounds come due.
    pub fn set_delivery_schedule(&self, schedule: Option<Arc<dyn DeliverySchedule>>) {
        *self.inner.schedule.write() = schedule;
    }

    /// Register a host. Hosts are held weakly so dropping a node
    /// deregisters it.
    pub fn register(&self, host: Arc<dyn RaftHost>) {
        self.inner.hosts.write().push(Arc::downgrade(&host));
    }

    fn live_hosts(&self) -> Vec<Arc<dyn RaftHost>> {
        let mut guard = self.inner.hosts.write();
        guard.retain(|w| w.strong_count() > 0);
        guard.iter().filter_map(|w| w.upgrade()).collect()
    }

    fn link_ok(&self, from: NodeId, to: NodeId) -> bool {
        match &*self.inner.faults.read() {
            Some(f) => f.link_ok(from, to),
            None => true,
        }
    }

    /// Move messages between hosts until the network is quiescent.
    /// Returns the number of messages delivered.
    pub fn pump(&self) -> usize {
        let hosts = self.live_hosts();
        let round = self.inner.round.fetch_add(1, Ordering::Relaxed);
        let mut delivered = 0;
        // Release deferred messages whose round has come. Link state is
        // re-checked at delivery time: a link cut while the message was in
        // flight drops it, like a cable pulled mid-transmission.
        let due: Vec<WireEnvelope> = {
            let mut pending = self.inner.pending.lock();
            let mut due = Vec::new();
            pending.retain(|(at, env)| {
                if *at <= round {
                    due.push(env.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for env in due {
            if !self.link_ok(env.from, env.to) {
                continue;
            }
            if let Some(dst) = hosts.iter().find(|h| h.node_id() == env.to) {
                dst.raft_deliver(env);
                delivered += 1;
            }
        }
        loop {
            let mut moved = false;
            for host in &hosts {
                for env in host.raft_drain() {
                    if !self.link_ok(env.from, env.to) {
                        continue;
                    }
                    let defer = match &*self.inner.schedule.read() {
                        Some(s) => {
                            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
                            s.defer_rounds(seq, env.from, env.to)
                        }
                        None => 0,
                    };
                    if defer > 0 {
                        self.inner.pending.lock().push((round + defer, env));
                        continue;
                    }
                    if let Some(dst) = hosts.iter().find(|h| h.node_id() == env.to) {
                        dst.raft_deliver(env);
                        delivered += 1;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        delivered
    }

    /// One tick on every host, then pump to quiescence.
    pub fn tick_and_pump(&self) {
        for host in self.live_hosts() {
            host.raft_tick();
        }
        self.pump();
    }

    /// Tick-and-pump until `done()` returns true or `max_ticks` expire.
    /// Returns whether the predicate was satisfied.
    pub fn pump_until<F: FnMut() -> bool>(&self, mut done: F, max_ticks: u64) -> bool {
        self.pump();
        if done() {
            return true;
        }
        for _ in 0..max_ticks {
            self.tick_and_pump();
            if done() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    use crate::config::RaftConfig;
    use crate::multiraft::MultiRaft;
    use cfs_types::RaftGroupId;

    /// Minimal host wrapping a MultiRaft and recording applied commands.
    struct TestHost {
        id: NodeId,
        mr: Mutex<MultiRaft>,
        applied: Mutex<Vec<Vec<u8>>>,
    }

    impl RaftHost for TestHost {
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn raft_tick(&self) {
            self.mr.lock().tick_all();
        }
        fn raft_drain(&self) -> Vec<WireEnvelope> {
            let (msgs, readies) = self.mr.lock().drain();
            for (_gid, ready) in readies {
                for e in ready.committed {
                    if !e.data.is_empty() {
                        self.applied.lock().push(e.data);
                    }
                }
            }
            msgs
        }
        fn raft_deliver(&self, env: WireEnvelope) {
            self.mr.lock().receive(env.from, env.msg);
        }
    }

    fn make_cluster(hub: &RaftHub, n: u64) -> Vec<Arc<TestHost>> {
        let ids: Vec<NodeId> = (1..=n).map(NodeId).collect();
        let hosts: Vec<Arc<TestHost>> = ids
            .iter()
            .map(|&id| {
                let mut mr = MultiRaft::new(id, RaftConfig::default(), 77, true);
                mr.create_group(RaftGroupId(1), ids.clone()).unwrap();
                Arc::new(TestHost {
                    id,
                    mr: Mutex::new(mr),
                    applied: Mutex::new(Vec::new()),
                })
            })
            .collect();
        for h in &hosts {
            hub.register(h.clone() as Arc<dyn RaftHost>);
        }
        hosts
    }

    fn leader_of(hosts: &[Arc<TestHost>]) -> Option<usize> {
        hosts
            .iter()
            .position(|h| h.mr.lock().group(RaftGroupId(1)).unwrap().is_leader())
    }

    #[test]
    fn hub_elects_and_replicates() {
        let hub = RaftHub::new();
        let hosts = make_cluster(&hub, 3);
        assert!(hub.pump_until(|| leader_of(&hosts).is_some(), 2_000));
        let li = leader_of(&hosts).unwrap();
        let index = hosts[li]
            .mr
            .lock()
            .group_mut(RaftGroupId(1))
            .unwrap()
            .propose(b"cmd".to_vec())
            .unwrap();
        assert!(hub.pump_until(
            || hosts
                .iter()
                .all(|h| h.applied.lock().iter().any(|c| c == b"cmd")),
            2_000
        ));
        assert!(index > 0);
    }

    #[test]
    fn fault_state_blocks_consensus_traffic() {
        let hub = RaftHub::new();
        let faults = FaultState::new();
        hub.set_faults(faults.clone());
        let hosts = make_cluster(&hub, 3);
        assert!(hub.pump_until(|| leader_of(&hosts).is_some(), 2_000));
        let li = leader_of(&hosts).unwrap();
        let leader_id = hosts[li].id;

        // Down the leader: a new leader emerges among the others.
        faults.set_down(leader_id, true);
        assert!(hub.pump_until(
            || hosts
                .iter()
                .enumerate()
                .any(|(i, h)| i != li && h.mr.lock().group(RaftGroupId(1)).unwrap().is_leader()),
            5_000
        ));
    }

    #[test]
    fn crashed_host_restores_from_durable_state_and_replays() {
        let hub = RaftHub::new();
        let mut hosts = make_cluster(&hub, 3);
        assert!(hub.pump_until(|| leader_of(&hosts).is_some(), 2_000));
        let li = leader_of(&hosts).unwrap();
        hosts[li]
            .mr
            .lock()
            .group_mut(RaftGroupId(1))
            .unwrap()
            .propose(b"pre-crash".to_vec())
            .unwrap();
        assert!(hub.pump_until(
            || hosts
                .iter()
                .all(|h| h.applied.lock().iter().any(|c| c == b"pre-crash")),
            2_000
        ));

        // Crash a follower: capture its durable image, drop the host.
        let victim = (li + 1) % hosts.len();
        let id = hosts[victim].id;
        let state = hosts[victim]
            .mr
            .lock()
            .group(RaftGroupId(1))
            .unwrap()
            .persistent_state();
        let members: Vec<NodeId> = hosts.iter().map(|h| h.id).collect();
        hosts.remove(victim);

        // Rebuild from the image: the volatile applied list starts empty
        // and must be repopulated purely by log replay.
        let mut mr = MultiRaft::new(id, RaftConfig::default(), 77, true);
        mr.restore_group(RaftGroupId(1), members, state).unwrap();
        let reborn = Arc::new(TestHost {
            id,
            mr: Mutex::new(mr),
            applied: Mutex::new(Vec::new()),
        });
        hub.register(reborn.clone() as Arc<dyn RaftHost>);
        assert!(hub.pump_until(
            || reborn.applied.lock().iter().any(|c| c == b"pre-crash"),
            5_000
        ));
    }

    #[test]
    fn deferred_delivery_slows_but_does_not_stall_consensus() {
        struct DeferOdd;
        impl DeliverySchedule for DeferOdd {
            fn defer_rounds(&self, seq: u64, _from: NodeId, _to: NodeId) -> u64 {
                if seq % 2 == 1 {
                    2
                } else {
                    0
                }
            }
        }
        let hub = RaftHub::new();
        hub.set_delivery_schedule(Some(Arc::new(DeferOdd)));
        let hosts = make_cluster(&hub, 3);
        assert!(hub.pump_until(|| leader_of(&hosts).is_some(), 5_000));
        let li = leader_of(&hosts).unwrap();
        hosts[li]
            .mr
            .lock()
            .group_mut(RaftGroupId(1))
            .unwrap()
            .propose(b"lagged".to_vec())
            .unwrap();
        assert!(hub.pump_until(
            || hosts
                .iter()
                .all(|h| h.applied.lock().iter().any(|c| c == b"lagged")),
            5_000
        ));
        hub.set_delivery_schedule(None);
    }

    #[test]
    fn dropped_hosts_are_deregistered() {
        let hub = RaftHub::new();
        let hosts = make_cluster(&hub, 3);
        assert!(hub.pump_until(|| leader_of(&hosts).is_some(), 2_000));
        drop(hosts);
        // No panic, no delivery.
        assert_eq!(hub.pump(), 0);
        hub.tick_and_pump();
    }
}
