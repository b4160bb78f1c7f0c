//! Deterministic cluster harness tests: elections under partitions, log
//! convergence, repair of diverged followers, snapshot catch-up, a
//! randomized linearizability check of the committed sequence, and the
//! stored-log ≡ in-memory-log property under the same chaos.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cfs_kvwal::{LsmEngine, LsmOptions};
use cfs_obs::{MetricsSnapshot, Registry};
use cfs_types::testutil::TempDir;
use cfs_types::{NodeId, RaftGroupId};

use crate::config::RaftConfig;
use crate::log::{Entry, RaftLog};
use crate::message::{Envelope, SnapshotPayload};
use crate::metrics::RaftMetrics;
use crate::node::{PersistentRaftState, RaftNode};
use crate::storage::{KvRaftStorage, RaftStorage};

/// A simulated single-group cluster with droppable links and a per-node
/// applied-command log (the "state machine" is just the byte sequence).
struct Cluster {
    nodes: HashMap<NodeId, RaftNode>,
    /// In-flight messages (FIFO per send order).
    network: VecDeque<Envelope>,
    /// Links currently cut: (from, to).
    cut: Vec<(NodeId, NodeId)>,
    applied: HashMap<NodeId, Vec<Vec<u8>>>,
    rng: SmallRng,
    /// Probability of dropping any given message (chaos mode).
    drop_prob: f64,
    /// Per-node durable storage (see [`Cluster::with_storage`]); the
    /// directory lives as long as the cluster.
    stores: HashMap<NodeId, (TempDir, Arc<KvRaftStorage>)>,
    /// Conflict truncations observed on stored nodes.
    conflicts: u64,
}

impl Cluster {
    fn new(n: u64, seed: u64) -> Self {
        Self::with_snapshot_threshold(n, seed, 0) // explicit compaction in tests
    }

    fn with_snapshot_threshold(n: u64, seed: u64, snapshot_threshold: u64) -> Self {
        let ids: Vec<NodeId> = (1..=n).map(NodeId).collect();
        let cfg = RaftConfig {
            snapshot_threshold,
            ..RaftConfig::default()
        };
        let nodes = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    RaftNode::new(id, RaftGroupId(1), ids.clone(), cfg.clone(), seed),
                )
            })
            .collect();
        Cluster {
            nodes,
            network: VecDeque::new(),
            cut: Vec::new(),
            applied: ids.iter().map(|&id| (id, Vec::new())).collect(),
            rng: SmallRng::seed_from_u64(seed),
            drop_prob: 0.0,
            stores: HashMap::new(),
            conflicts: 0,
        }
    }

    /// A cluster whose every node writes through its own
    /// [`KvRaftStorage`] and compacts past `snapshot_threshold` live
    /// entries; `pump` then checks after every step that each node's
    /// stored image equals its in-memory durable state.
    fn with_storage(n: u64, seed: u64, snapshot_threshold: u64) -> Self {
        let mut c = Self::with_snapshot_threshold(n, seed, snapshot_threshold);
        for (&id, node) in c.nodes.iter_mut() {
            let dir = TempDir::new("raft-harness").unwrap();
            let engine = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
            let storage = Arc::new(KvRaftStorage::new(Arc::new(engine)));
            node.set_storage(storage.clone()).unwrap();
            c.stores.insert(id, (dir, storage));
        }
        c
    }

    /// The stored-log ≡ in-memory-log invariant the scan-free deletes
    /// rely on: what `load` returns equals the node's durable image, and
    /// the stored log rows are exactly its live indices (`load` would
    /// hide a leaked row at or below the base).
    fn check_stored(&self, id: NodeId) {
        let Some((_, storage)) = self.stores.get(&id) else {
            return;
        };
        let group = RaftGroupId(1);
        let stored = storage
            .load(group)
            .unwrap()
            .expect("attached groups are stored");
        let memory = self.nodes[&id].persistent_state();
        assert_eq!(
            durable_image(&stored),
            durable_image(&memory),
            "{id}: stored raft state differs from memory"
        );
        let rows: Vec<u64> = storage
            .stored_log_keys(group)
            .unwrap()
            .into_iter()
            .map(|(_, index)| index)
            .collect();
        let live: Vec<u64> = (memory.log.first_index()..=memory.log.last_index()).collect();
        assert_eq!(rows, live, "{id}: stored log rows are not the live entries");
    }

    fn ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort();
        v
    }

    fn cut_link_both(&mut self, a: NodeId, b: NodeId) {
        self.cut.push((a, b));
        self.cut.push((b, a));
    }

    fn heal_all(&mut self) {
        self.cut.clear();
    }

    /// Isolate `node` from everyone.
    fn isolate(&mut self, node: NodeId) {
        for other in self.ids() {
            if other != node {
                self.cut_link_both(node, other);
            }
        }
    }

    /// One tick for every node, then deliver until the network quiesces.
    fn step_tick(&mut self) {
        let ids = self.ids();
        for id in &ids {
            self.nodes.get_mut(id).unwrap().tick();
        }
        self.pump();
    }

    fn pump(&mut self) {
        loop {
            // Drain readies.
            let ids = self.ids();
            for id in &ids {
                let ready = self.nodes.get_mut(id).unwrap().take_ready();
                for env in ready.messages {
                    self.network.push_back(env);
                }
                if let Some(snap) = ready.snapshot {
                    // "Restore" the byte-sequence state machine: parse the
                    // snapshot data as length-prefixed commands.
                    let cmds = decode_snapshot(&snap.data);
                    *self.applied.get_mut(id).unwrap() = cmds;
                }
                for e in ready.committed {
                    if !e.data.is_empty() {
                        self.applied.get_mut(id).unwrap().push(e.data);
                    }
                }
                // The embedding layer's compaction: snapshot the applied
                // sequence once the live log crosses the threshold.
                let node = self.nodes.get_mut(id).unwrap();
                if node.wants_compaction() {
                    let (last_index, last_term) = node.compaction_point();
                    node.compact(SnapshotPayload {
                        last_index,
                        last_term,
                        data: encode_snapshot(&self.applied[id]),
                    });
                    self.check_stored(*id);
                }
            }
            // Deliver one message.
            let Some(env) = self.network.pop_front() else {
                for id in self.ids() {
                    self.check_stored(id);
                }
                break;
            };
            if self.cut.contains(&(env.from, env.to)) {
                continue;
            }
            if self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob) {
                continue;
            }
            if let Some(node) = self.nodes.get_mut(&env.to) {
                let before = self
                    .stores
                    .contains_key(&env.to)
                    .then(|| node.persistent_state().log);
                node.step(env.from, env.msg);
                if let Some(before) = before {
                    let after = node.persistent_state().log;
                    if truncated_conflict(&before, &after) {
                        self.conflicts += 1;
                    }
                    self.check_stored(env.to);
                }
            }
        }
    }

    fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.step_tick();
        }
    }

    fn leader(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.is_leader())
            .map(|n| n.id())
            .collect();
        match leaders.len() {
            1 => Some(leaders[0]),
            0 => None,
            // Multiple "leaders" can coexist transiently across terms; the
            // one with the highest term is the real one.
            _ => leaders.into_iter().max_by_key(|id| self.nodes[id].term()),
        }
    }

    fn elect(&mut self) -> NodeId {
        for _ in 0..50 {
            self.run_ticks(400);
            if let Some(l) = self.leader() {
                return l;
            }
        }
        panic!("no leader elected");
    }

    fn propose(&mut self, leader: NodeId, data: &[u8]) {
        self.nodes
            .get_mut(&leader)
            .unwrap()
            .propose(data.to_vec())
            .unwrap();
        self.pump();
    }
}

/// Everything `RaftStorage` persists, in comparable form: term, vote,
/// log base, live entries and the snapshot.
type DurableImage = (
    u64,
    Option<NodeId>,
    (u64, u64),
    Vec<Entry>,
    Option<SnapshotPayload>,
);

fn durable_image(s: &PersistentRaftState) -> DurableImage {
    (
        s.term,
        s.voted_for,
        s.log.snapshot_base(),
        s.log.slice(s.log.first_index(), usize::MAX),
        s.snapshot.clone(),
    )
}

/// Did one step drop entries of `before` that `after` no longer holds at
/// the same term (a conflict truncation)?
fn truncated_conflict(before: &RaftLog, after: &RaftLog) -> bool {
    let first = before.first_index().max(after.first_index());
    let last = before.last_index().min(after.last_index());
    after.last_index() < before.last_index()
        || (first..=last).any(|i| before.term(i) != after.term(i))
}

fn encode_snapshot(cmds: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in cmds {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    out
}

fn decode_snapshot(data: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + 4 <= data.len() {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        out.push(data[pos..pos + len].to_vec());
        pos += len;
    }
    out
}

#[test]
fn three_node_cluster_elects_and_replicates() {
    let mut c = Cluster::new(3, 11);
    let leader = c.elect();
    for i in 0..10u8 {
        c.propose(leader, &[i]);
    }
    c.run_ticks(200);
    let expect: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
    for id in c.ids() {
        assert_eq!(c.applied[&id], expect, "{id} applied everything in order");
    }
}

#[test]
fn leader_failover_preserves_committed_entries() {
    let mut c = Cluster::new(3, 23);
    let leader = c.elect();
    c.propose(leader, b"one");
    c.propose(leader, b"two");
    c.run_ticks(100);

    // Kill the leader (isolate it) and elect a new one.
    c.isolate(leader);
    let new_leader = {
        // Ensure progress among the remaining majority.
        for _ in 0..50 {
            c.run_ticks(400);
            if let Some(l) = c.leader() {
                if l != leader {
                    break;
                }
            }
        }
        c.leader().unwrap()
    };
    assert_ne!(new_leader, leader);
    c.propose(new_leader, b"three");
    c.run_ticks(200);

    for id in c.ids() {
        if id == leader {
            continue;
        }
        assert_eq!(
            c.applied[&id],
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()],
            "{id}"
        );
    }

    // Old leader rejoins and catches up (including learning the new term).
    c.heal_all();
    c.run_ticks(600);
    assert_eq!(
        c.applied[&leader],
        vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
    );
}

#[test]
fn minority_partition_cannot_commit() {
    let mut c = Cluster::new(5, 31);
    let leader = c.elect();
    c.propose(leader, b"committed");
    c.run_ticks(100);

    // Partition the leader with just one follower (minority side).
    let others: Vec<NodeId> = c.ids().into_iter().filter(|&n| n != leader).collect();
    let minority_peer = others[0];
    for &a in &[leader, minority_peer] {
        for &b in &others[1..] {
            c.cut_link_both(a, b);
        }
    }

    // Old leader may still accept proposals but can never commit them.
    let before = c.applied[&leader].len();
    let _ = c
        .nodes
        .get_mut(&leader)
        .unwrap()
        .propose(b"doomed".to_vec());
    c.run_ticks(600);
    assert_eq!(
        c.applied[&leader].len(),
        before,
        "minority leader commits nothing new"
    );

    // Majority side elects its own leader and commits.
    let maj_leader = c
        .leader()
        .filter(|l| others[1..].contains(l))
        .unwrap_or_else(|| {
            // Wait for majority election if still pending.
            for _ in 0..50 {
                c.run_ticks(400);
                if let Some(l) = c.leader() {
                    if others[1..].contains(&l) {
                        return l;
                    }
                }
            }
            panic!("majority never elected a leader");
        });
    c.propose(maj_leader, b"survives");
    c.run_ticks(200);

    // Heal: the doomed entry is superseded; every node converges on
    // [committed, survives].
    c.heal_all();
    c.run_ticks(1200);
    for id in c.ids() {
        assert_eq!(
            c.applied[&id],
            vec![b"committed".to_vec(), b"survives".to_vec()],
            "{id} converged"
        );
    }
}

#[test]
fn lagging_follower_catches_up_via_snapshot() {
    let mut c = Cluster::new(3, 47);
    let leader = c.elect();
    let laggard = c.ids().into_iter().find(|&n| n != leader).unwrap();
    c.isolate(laggard);

    // Commit a pile of entries, then compact the leader's log so the
    // laggard can only recover via InstallSnapshot.
    for i in 0..30u8 {
        c.propose(leader, &[i]);
    }
    c.run_ticks(100);
    {
        let applied_cmds = c.applied[&leader].clone();
        let node = c.nodes.get_mut(&leader).unwrap();
        let (idx, term) = node.compaction_point();
        node.compact(SnapshotPayload {
            last_index: idx,
            last_term: term,
            data: encode_snapshot(&applied_cmds),
        });
        assert!(node.live_log_len() == 0, "log fully compacted");
    }

    c.heal_all();
    c.run_ticks(800);
    let expect: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i]).collect();
    assert_eq!(
        c.applied[&laggard], expect,
        "laggard restored from snapshot"
    );

    // And it keeps applying post-snapshot entries.
    let leader = c.elect();
    c.propose(leader, b"after");
    c.run_ticks(200);
    assert_eq!(c.applied[&laggard].last().unwrap(), b"after");
}

/// The classic disruptive-server scenario the lease must not turn into a
/// livelock: an isolated *follower* campaigns its term sky-high, then
/// rejoins a cluster whose leader holds a valid lease (and whose
/// followers are vote-sticky). The rejoiner must be re-absorbed — not
/// starve forever at commit 0 — and the cluster must converge.
#[test]
fn high_term_rejoiner_is_absorbed_despite_lease() {
    let mut c = Cluster::new(3, 59);
    let leader = c.elect();
    c.propose(leader, b"one");
    c.run_ticks(50);

    let rejoiner = c.ids().into_iter().find(|&n| n != leader).unwrap();
    c.isolate(rejoiner);
    // Long isolation: the follower times out and campaigns over and over,
    // bumping (and persisting) its term far past the live cluster's.
    c.run_ticks(3000);
    assert!(
        c.nodes[&rejoiner].term() > c.nodes[&leader].term() + 3,
        "isolated follower should have campaigned its term up"
    );
    c.propose(leader, b"two");
    c.run_ticks(50);
    // Compact the leader's log so the rejoiner can only be repaired via
    // InstallSnapshot — the path whose lower-term rejection must reach
    // the stale leader for the cluster to learn the high term at all.
    {
        let applied_cmds = c.applied[&leader].clone();
        let node = c.nodes.get_mut(&leader).unwrap();
        let (idx, term) = node.compaction_point();
        node.compact(SnapshotPayload {
            last_index: idx,
            last_term: term,
            data: encode_snapshot(&applied_cmds),
        });
    }

    c.heal_all();
    c.run_ticks(3000);
    let expect = vec![b"one".to_vec(), b"two".to_vec()];
    for id in c.ids() {
        assert_eq!(c.applied[&id], expect, "{id} converged after rejoin");
    }
}

#[test]
fn chaos_drops_still_converge_and_prefix_property_holds() {
    for seed in [3u64, 17, 29, 71] {
        let mut c = Cluster::new(5, seed);
        c.drop_prob = 0.10;
        let mut proposed = Vec::new();
        for round in 0..12u8 {
            // Find any leader and try to propose; tolerate rejections.
            c.run_ticks(400);
            if let Some(l) = c.leader() {
                let data = vec![round];
                if c.nodes.get_mut(&l).unwrap().propose(data.clone()).is_ok() {
                    proposed.push(data);
                }
                c.pump();
            }
        }
        c.drop_prob = 0.0;
        c.run_ticks(2000);

        // Every node applied the same sequence (no divergence), and that
        // sequence is a subsequence of what was proposed (no invention).
        let first = c.applied[&NodeId(1)].clone();
        for id in c.ids() {
            assert_eq!(c.applied[&id], first, "{id} (seed {seed})");
        }
        let mut pi = proposed.iter();
        for cmd in &first {
            assert!(
                pi.any(|p| p == cmd),
                "applied command not in proposal order (seed {seed})"
            );
        }
    }
}

/// The chaos scenario again — drops, a leader isolated with proposals it
/// can never commit, re-elections, and the conflicting suffix it meets on
/// rejoin — with every node on a `KvRaftStorage` and a snapshot threshold
/// small enough that compaction and InstallSnapshot both run. After every
/// step `pump` checks that each node's stored image equals its in-memory
/// durable state: the invariant that lets appends, compactions and
/// installs delete stale rows by index instead of scanning for them.
#[test]
fn stored_log_equals_memory_through_chaos() {
    let registry = Registry::new();
    let metrics = RaftMetrics::bind(&registry);
    let (mut conflicts, mut compactions) = (0, 0);
    for seed in [3u64, 17, 29, 71] {
        let mut c = Cluster::with_storage(5, seed, 6);
        for id in c.ids() {
            c.nodes.get_mut(&id).unwrap().set_metrics(metrics.clone());
        }
        c.drop_prob = 0.10;
        let mut proposed = Vec::new();
        for round in 0..16u8 {
            c.run_ticks(400);
            let Some(l) = c.leader() else { continue };
            if round % 4 == 1 {
                // Cut the leader off with a suffix no quorum will see.
                c.isolate(l);
                for i in 0..3u8 {
                    let _ = c.nodes.get_mut(&l).unwrap().propose(vec![200 + i]);
                }
                c.pump();
                continue;
            }
            for i in 0..3u8 {
                let data = vec![round, i];
                if c.nodes.get_mut(&l).unwrap().propose(data.clone()).is_ok() {
                    proposed.push(data);
                }
                c.pump();
            }
            if round % 4 == 2 {
                c.heal_all();
            }
        }
        c.heal_all();
        c.drop_prob = 0.0;
        c.run_ticks(2000);

        let first = c.applied[&NodeId(1)].clone();
        for id in c.ids() {
            assert_eq!(c.applied[&id], first, "{id} (seed {seed})");
            compactions += u64::from(c.nodes[&id].persistent_state().snapshot.is_some());
        }
        let mut pi = proposed.iter();
        for cmd in &first {
            assert!(
                pi.any(|p| p == cmd),
                "applied command not in proposal order (seed {seed})"
            );
        }
        conflicts += c.conflicts;
    }
    let snap = registry.snapshot();
    assert!(conflicts > 0, "no conflict truncation was exercised");
    assert!(compactions > 0, "no compaction was exercised");
    assert!(
        snap.counter("raft.snapshot_installs_received") > 0,
        "no InstallSnapshot was exercised"
    );
}

/// The InstallSnapshot durability budget (pins the fix where received
/// snapshots become part of the persistent state): every install a
/// follower applied must also have been covered by a crash image.
fn check_install_durability(snapshot: &MetricsSnapshot) {
    let received = snapshot.counter("raft.snapshot_installs_received");
    let persisted = snapshot.counter("raft.snapshot_installs_persisted");
    assert!(
        received > 0,
        "budget test exercised no InstallSnapshot at all"
    );
    assert_eq!(
        received, persisted,
        "InstallSnapshot durability regression: {received} received vs \
         {persisted} persisted — an installed snapshot did not make it \
         into a crash image"
    );
}

#[test]
fn installed_snapshots_survive_crash_restore_budget() {
    let registry = Registry::new();
    let metrics = RaftMetrics::bind(&registry);
    let mut c = Cluster::new(3, 47);
    for id in c.ids() {
        c.nodes.get_mut(&id).unwrap().set_metrics(metrics.clone());
    }

    // Same shape as `lagging_follower_catches_up_via_snapshot`: isolate a
    // follower, commit + compact past it, heal so it recovers via
    // InstallSnapshot.
    let leader = c.elect();
    let laggard = c.ids().into_iter().find(|&n| n != leader).unwrap();
    c.isolate(laggard);
    for i in 0..30u8 {
        c.propose(leader, &[i]);
    }
    c.run_ticks(100);
    {
        let applied_cmds = c.applied[&leader].clone();
        let node = c.nodes.get_mut(&leader).unwrap();
        let (idx, term) = node.compaction_point();
        node.compact(SnapshotPayload {
            last_index: idx,
            last_term: term,
            data: encode_snapshot(&applied_cmds),
        });
    }
    c.heal_all();
    c.run_ticks(800);
    let expect: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i]).collect();
    assert_eq!(c.applied[&laggard], expect, "laggard caught up");
    assert!(
        registry
            .snapshot()
            .counter("raft.snapshot_installs_received")
            > 0,
        "catch-up must have gone through InstallSnapshot"
    );

    // Crash the laggard: the crash image is whatever `persistent_state`
    // captures. Restore from it and re-attach the same metrics.
    let ids = c.ids();
    let crashed = c.nodes.remove(&laggard).unwrap();
    let image = crashed.persistent_state();
    drop(crashed);
    let mut restored = RaftNode::restore(
        laggard,
        RaftGroupId(1),
        ids,
        RaftConfig {
            snapshot_threshold: 0,
            ..RaftConfig::default()
        },
        47,
        image.clone(),
    );
    restored.set_metrics(metrics.clone());
    c.nodes.insert(laggard, restored);
    // The state machine restarts from the crash image's snapshot.
    let restored_cmds = image.snapshot.as_ref().map(|s| decode_snapshot(&s.data));
    *c.applied.get_mut(&laggard).unwrap() = restored_cmds.unwrap_or_default();

    // It must still hold the full prefix and keep applying new entries.
    c.run_ticks(800);
    let leader = c.elect();
    c.propose(leader, b"after-crash");
    c.run_ticks(400);
    assert_eq!(c.applied[&laggard].last().unwrap(), b"after-crash");
    assert_eq!(c.applied[&laggard].len(), 31, "full prefix survived");

    check_install_durability(&registry.snapshot());
}

/// The budget check itself must fail when the durability rule is broken:
/// simulate a run where an install was received but never covered by a
/// crash image and assert the checker panics.
#[test]
fn install_durability_check_detects_unpersisted_install() {
    let registry = Registry::new();
    registry.counter("raft.snapshot_installs_received").add(3);
    registry.counter("raft.snapshot_installs_persisted").add(2);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(move || check_install_durability(&snap))
        .expect_err("checker must reject received != persisted");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("InstallSnapshot durability regression"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn terms_are_monotonic_and_single_leader_per_term() {
    let mut c = Cluster::new(3, 5);
    let mut leaders_by_term: HashMap<u64, NodeId> = HashMap::new();
    for _ in 0..6 {
        let leader = c.elect();
        let term = c.nodes[&leader].term();
        if let Some(prev) = leaders_by_term.insert(term, leader) {
            assert_eq!(prev, leader, "two leaders in term {term}");
        }
        // Force a re-election by isolating the current leader briefly.
        c.isolate(leader);
        c.run_ticks(600);
        c.heal_all();
        c.run_ticks(600);
    }
}
