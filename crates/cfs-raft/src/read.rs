//! Leader reads: the one way a state machine serves a read — meta
//! partitions, data partitions and the resource manager alike. The Raft
//! dissertation's §6.4 rule: apply an entry of the leader's own term, then
//! answer under the quorum lease, or else after a ReadIndex barrier.

use std::ops::DerefMut;

use cfs_types::{CfsError, PartitionId, RaftGroupId, Result};

use crate::commit::COMMIT_TIMEOUT_TICKS;
use crate::hub::RaftHub;
use crate::multiraft::MultiRaft;

/// How a leader admitted a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Under the lease, fully applied: no consensus round.
    Lease,
    /// After a ReadIndex barrier.
    Quorum,
}

/// Admit a read of `group` here. `lock` takes the caller's own lock and
/// `raft` reaches its [`MultiRaft`]; the caller serves under the returned
/// guard. The barrier path pumps `hub` with the lock released. Every error
/// is retryable: `NotLeader` (with the hint), `Timeout` when no quorum
/// confirmed the barrier, `Unavailable` where the group is not hosted.
pub fn leader_read<T, G: DerefMut<Target = T>>(
    hub: &RaftHub,
    group: RaftGroupId,
    mut lock: impl FnMut() -> G,
    raft: fn(&mut T) -> &mut MultiRaft,
) -> Result<(G, ReadPath)> {
    let partition = PartitionId(group.raw());
    let not_hosted = || CfsError::Unavailable(format!("{partition}: not hosted here"));
    let barrier = {
        let mut guard = lock();
        let node = raft(&mut guard).group_mut(group).ok_or_else(not_hosted)?;
        match node.read_index()? {
            None => return Ok((guard, ReadPath::Lease)),
            Some(barrier) => barrier,
        }
    };
    let passed = hub.pump_until(
        || {
            raft(&mut lock())
                .group(group)
                .is_some_and(|g| g.barrier_passed(barrier))
        },
        COMMIT_TIMEOUT_TICKS,
    );
    let mut guard = lock();
    let node = raft(&mut guard).group(group).ok_or_else(not_hosted)?;
    node.require_leader()?;
    if !passed {
        return Err(CfsError::Timeout(format!("{partition}: read barrier")));
    }
    Ok((guard, ReadPath::Quorum))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;

    use cfs_types::{FaultState, NodeId};

    use super::*;
    use crate::config::RaftConfig;
    use crate::hub::RaftHost;
    use crate::multiraft::WireEnvelope;

    const G: RaftGroupId = RaftGroupId(7);

    /// A host whose only state is its MultiRaft; applies nothing.
    struct Host {
        id: NodeId,
        mr: Mutex<MultiRaft>,
    }

    impl RaftHost for Host {
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn raft_tick(&self) {
            self.mr.lock().tick_all();
        }
        fn raft_drain(&self) -> Vec<WireEnvelope> {
            self.mr.lock().drain().0
        }
        fn raft_deliver(&self, env: WireEnvelope) {
            self.mr.lock().receive(env.from, env.msg);
        }
    }

    fn group(config: RaftConfig, n: u64) -> (RaftHub, FaultState, Vec<Arc<Host>>) {
        let hub = RaftHub::new();
        let faults = FaultState::new();
        hub.set_faults(faults.clone());
        let members: Vec<NodeId> = (1..=n).map(NodeId).collect();
        let hosts: Vec<Arc<Host>> = members
            .iter()
            .map(|&id| {
                let mut mr = MultiRaft::new(id, config.clone(), 7, true);
                mr.create_group(G, members.clone()).unwrap();
                let host = Arc::new(Host {
                    id,
                    mr: Mutex::new(mr),
                });
                hub.register(host.clone() as Arc<dyn RaftHost>);
                host
            })
            .collect();
        (hub, faults, hosts)
    }

    fn read(hub: &RaftHub, host: &Host) -> Result<ReadPath> {
        leader_read(hub, G, || host.mr.lock(), |mr| mr).map(|(_, path)| path)
    }

    fn leader(hub: &RaftHub, hosts: &[Arc<Host>]) -> Arc<Host> {
        let leads = |h: &Arc<Host>| h.mr.lock().group(G).unwrap().applied_own_term();
        assert!(hub.pump_until(|| hosts.iter().any(leads), 5_000));
        hosts.iter().find(|h| leads(h)).unwrap().clone()
    }

    #[test]
    fn settled_leader_reads_under_its_lease_and_a_follower_redirects() {
        let (hub, _, hosts) = group(RaftConfig::default(), 3);
        let l = leader(&hub, &hosts);
        for _ in 0..20 {
            hub.tick_and_pump();
        }
        assert_eq!(read(&hub, &l).unwrap(), ReadPath::Lease);
        let follower = hosts.iter().find(|h| h.id != l.id).unwrap();
        match read(&hub, follower) {
            Err(CfsError::NotLeader { hint, .. }) => assert_eq!(hint, Some(l.id)),
            other => panic!("follower admitted a read: {other:?}"),
        }
    }

    #[test]
    fn without_a_lease_every_read_passes_a_barrier() {
        let config = RaftConfig {
            lease_ticks: 0,
            ..RaftConfig::default()
        };
        let (hub, _, hosts) = group(config, 3);
        let l = leader(&hub, &hosts);
        assert_eq!(read(&hub, &l).unwrap(), ReadPath::Quorum);
    }

    #[test]
    fn a_fresh_leader_waits_for_an_entry_of_its_own_term() {
        // A lone member elects itself and commits its no-op at once, but
        // applies it only when the hub drains it.
        let (hub, _, hosts) = group(RaftConfig::default(), 1);
        let solo = &hosts[0];
        while !solo.mr.lock().group(G).unwrap().is_leader() {
            solo.raft_tick();
        }
        assert!(!solo.mr.lock().group(G).unwrap().applied_own_term());
        assert_eq!(read(&hub, solo).unwrap(), ReadPath::Quorum);
        assert!(solo.mr.lock().group(G).unwrap().applied_own_term());
    }

    #[test]
    fn a_cut_off_leader_times_out_instead_of_serving() {
        let (hub, faults, hosts) = group(RaftConfig::default(), 3);
        let l = leader(&hub, &hosts);
        for h in hosts.iter().filter(|h| h.id != l.id) {
            faults.set_partitioned(l.id, h.id, true);
        }
        // Outlive the lease: until then no other leader can be elected,
        // so serving under it is still correct.
        for _ in 0..=RaftConfig::default().lease_ticks {
            hub.tick_and_pump();
        }
        match read(&hub, &l) {
            Err(e @ CfsError::Timeout(_)) => assert!(e.is_retryable()),
            other => panic!("cut-off leader admitted a read: {other:?}"),
        }
    }

    #[test]
    fn a_group_not_hosted_here_is_unavailable() {
        let (hub, _, hosts) = group(RaftConfig::default(), 3);
        let err = leader_read(&hub, RaftGroupId(99), || hosts[0].mr.lock(), |mr| mr).err();
        assert!(matches!(err, Some(CfsError::Unavailable(_))), "{err:?}");
    }
}
