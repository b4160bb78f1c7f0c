//! A single Raft group member (sans-io).

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cfs_types::{CfsError, NodeId, RaftGroupId, Result};

use crate::config::{
    RaftConfig, ELECTION_TIMEOUT_MAX, ELECTION_TIMEOUT_MIN, HEARTBEAT_INTERVAL,
    MAX_ENTRIES_PER_MESSAGE,
};
use crate::log::{Entry, RaftLog};
use crate::message::{Envelope, Message, SnapshotPayload};
use crate::metrics::RaftMetrics;
use crate::storage::RaftStorage;

/// Role within the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Everything the embedding layer must act on after ticks/steps:
/// messages to transmit, entries to apply, and a snapshot to restore.
#[derive(Debug, Default)]
pub struct Ready {
    /// Outbound messages.
    pub messages: Vec<Envelope>,
    /// Newly committed entries, in order; apply them to the state machine.
    pub committed: Vec<Entry>,
    /// A received snapshot the state machine must restore *before*
    /// applying `committed`.
    pub snapshot: Option<SnapshotPayload>,
    /// True if this node just won an election.
    pub became_leader: bool,
}

impl Ready {
    /// Nothing to do?
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
            && self.committed.is_empty()
            && self.snapshot.is_none()
            && !self.became_leader
    }
}

/// A pending ReadIndex barrier ([`RaftNode::read_index`]): the leader's
/// clock and commit index when the read arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadBarrier {
    clock: u64,
    commit: u64,
}

/// Per-peer replication progress kept by the leader.
#[derive(Debug, Clone, Copy)]
struct Progress {
    next_index: u64,
    match_index: u64,
}

/// The durable subset of a member's state: what a real deployment fsyncs
/// before acknowledging (term, vote, log) plus the last compaction
/// snapshot the state machine can be rebuilt from. Everything else —
/// role, commit/applied indexes, peer progress — is volatile and is
/// reconstructed by the protocol after [`RaftNode::restore`].
#[derive(Debug, Clone)]
pub struct PersistentRaftState {
    pub term: u64,
    pub voted_for: Option<NodeId>,
    pub log: RaftLog,
    /// Last compaction snapshot (base of `log`), if one was ever taken.
    pub snapshot: Option<SnapshotPayload>,
}

/// One member of one Raft group.
///
/// Drive it with [`RaftNode::tick`] (time) and [`RaftNode::step`] (inbound
/// messages); propose with [`RaftNode::propose_batch`]; drain effects with
/// [`RaftNode::take_ready`]. The node never blocks, spawns, or reads a
/// clock, so a test can run thousands of deterministic elections.
pub struct RaftNode {
    id: NodeId,
    group: RaftGroupId,
    /// All group members including `id`.
    members: Vec<NodeId>,
    config: RaftConfig,

    term: u64,
    voted_for: Option<NodeId>,
    role: Role,
    leader_hint: Option<NodeId>,

    log: RaftLog,
    commit: u64,
    applied: u64,

    votes: HashSet<NodeId>,
    progress: HashMap<NodeId, Progress>,

    election_elapsed: u64,
    heartbeat_elapsed: u64,
    election_timeout: u64,
    rng: SmallRng,

    /// Local logical clock: increments once per [`RaftNode::tick`]. The
    /// timebase for the leader read lease; never persisted (a restart
    /// starts at 0 with no lease, which is always safe).
    clock: u64,
    /// Ticks since an append/snapshot from a valid leader was processed
    /// (`u64::MAX` = never). Backs vote stickiness: a follower with
    /// recent leader contact refuses to help depose that leader.
    ticks_since_leader_contact: u64,
    /// Leader-side lease credit per peer: the highest `probe` (leader
    /// clock at send time) echoed back in a successful current-term ack.
    /// Cleared on any role or term change — the lease fence.
    lease_stamps: HashMap<NodeId, u64>,

    ready: Ready,
    /// Provider of snapshot bytes when a lagging peer needs catch-up; set
    /// by the embedding layer after each compaction.
    snapshot_payload: Option<SnapshotPayload>,
    /// When true, the embedding layer (MultiRaft) owns the heartbeat
    /// cadence so that all groups on a node beat in phase and coalesce.
    external_heartbeat: bool,

    /// Durable storage this member writes through at every mutation of
    /// `(term, voted_for, log, snapshot_payload)`. `None` keeps the
    /// original crash-image model (persistence via
    /// [`RaftNode::persistent_state`] exports only).
    storage: Option<Arc<dyn RaftStorage>>,

    metrics: RaftMetrics,
    /// InstallSnapshots applied by *this* member (registry counters
    /// aggregate cluster-wide, so persisted-credit bookkeeping needs a
    /// per-node ledger). Atomics because [`RaftNode::persistent_state`]
    /// takes `&self` yet must mark installs as credited.
    installs_received: AtomicU64,
    installs_credited: AtomicU64,
    /// `last_index` of the most recent applied install (0 = none yet).
    last_install_index: AtomicU64,
}

impl std::fmt::Debug for RaftNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaftNode")
            .field("id", &self.id)
            .field("group", &self.group)
            .field("term", &self.term)
            .field("role", &self.role)
            .field("commit", &self.commit)
            .field("last_index", &self.log.last_index())
            .finish()
    }
}

impl RaftNode {
    /// Create a member of `group` with the given co-members. `seed`
    /// randomizes election jitter deterministically.
    pub fn new(
        id: NodeId,
        group: RaftGroupId,
        members: Vec<NodeId>,
        config: RaftConfig,
        seed: u64,
    ) -> Self {
        debug_assert!(members.contains(&id), "members must include self");
        let mut rng = SmallRng::seed_from_u64(seed ^ id.raw() ^ (group.raw() << 32));
        let election_timeout = rng.gen_range(ELECTION_TIMEOUT_MIN..ELECTION_TIMEOUT_MAX);
        RaftNode {
            id,
            group,
            members,
            config,
            term: 0,
            voted_for: None,
            role: Role::Follower,
            leader_hint: None,
            log: RaftLog::new(),
            commit: 0,
            applied: 0,
            votes: HashSet::new(),
            progress: HashMap::new(),
            election_elapsed: 0,
            heartbeat_elapsed: 0,
            election_timeout,
            rng,
            clock: 0,
            ticks_since_leader_contact: u64::MAX,
            lease_stamps: HashMap::new(),
            ready: Ready::default(),
            snapshot_payload: None,
            external_heartbeat: false,
            storage: None,
            metrics: RaftMetrics::detached(),
            installs_received: AtomicU64::new(0),
            installs_credited: AtomicU64::new(0),
            last_install_index: AtomicU64::new(0),
        }
    }

    /// Attach consensus counters (detached atomics by default). The
    /// embedding layer shares one [`RaftMetrics`] across all its groups.
    pub fn set_metrics(&mut self, metrics: RaftMetrics) {
        self.metrics = metrics;
    }

    /// Attach durable storage and write the current state as its baseline
    /// image. From here on every mutation of the durable subset is pushed
    /// through `storage` *before* the message acknowledging it is emitted,
    /// so a whole-process power loss can restore this member from disk via
    /// [`RaftStorage::load`] + [`RaftNode::restore`].
    pub fn set_storage(&mut self, storage: Arc<dyn RaftStorage>) -> Result<()> {
        storage.persist_full(self.group, &self.persistent_state())?;
        self.storage = Some(storage);
        Ok(())
    }

    /// Persist `(term, voted_for)` through the attached storage, if any.
    /// Storage failures abort: acknowledging un-fsynced state would break
    /// the Raft durability contract, so there is no meaningful fallback.
    fn store_hard_state(&self) {
        if let Some(s) = &self.storage {
            s.set_hard_state(self.group, self.term, self.voted_for)
                .expect("raft storage: hard state");
        }
    }

    /// Persist entries the log now holds and delete the rows at `stale`,
    /// which it no longer does.
    fn store_entries(&self, entries: &[Entry], stale: Range<u64>) {
        if let Some(s) = &self.storage {
            s.append_entries(self.group, entries, stale)
                .expect("raft storage: append");
        }
    }

    /// Persist the entry the in-memory log just appended at `index`.
    fn store_appended_at(&self, index: u64) {
        if self.storage.is_some() {
            let e = self.log.get(index).expect("just appended").clone();
            self.store_entries(&[e], 0..0);
        }
    }

    /// Compact the in-memory log to the snapshot's base and persist the
    /// snapshot, the base and the deletion of the rows the compaction
    /// dropped: the old live range minus the new one.
    fn compact_and_store(&mut self, snapshot: &SnapshotPayload) {
        let (old_first, old_last) = (self.log.first_index(), self.log.last_index());
        self.log.compact_to(snapshot.last_index, snapshot.last_term);
        if let Some(s) = &self.storage {
            let kept_from = self.log.first_index().min(old_last + 1);
            s.save_snapshot(self.group, snapshot, old_first..kept_from)
                .expect("raft storage: snapshot");
        }
    }

    /// Snapshot the durable state, as a crash-consistent image. The log is
    /// cloned wholesale: this model treats every appended entry as synced,
    /// matching the acknowledgement rule of Raft.
    pub fn persistent_state(&self) -> PersistentRaftState {
        // Credit installed snapshots as *persisted* only when this crash
        // image actually covers them: the durable `snapshot` field must
        // reach at least the last install's index. If installs stopped
        // being folded into `snapshot_payload` (the durability rule in
        // `handle_install_snapshot`), no credit is ever given and
        // `raft.snapshot_installs_persisted` falls behind
        // `raft.snapshot_installs_received` — which the harness
        // regression test turns into a failure.
        let received = self.installs_received.load(Ordering::Relaxed);
        let credited = self.installs_credited.load(Ordering::Relaxed);
        if received > credited {
            let install_index = self.last_install_index.load(Ordering::Relaxed);
            let covered = self
                .snapshot_payload
                .as_ref()
                .is_some_and(|s| s.last_index >= install_index);
            if covered {
                self.metrics
                    .snapshot_installs_persisted
                    .add(received - credited);
                self.installs_credited.store(received, Ordering::Relaxed);
            }
        }
        PersistentRaftState {
            term: self.term,
            voted_for: self.voted_for,
            log: self.log.clone(),
            snapshot: self.snapshot_payload.clone(),
        }
    }

    /// Rebuild a member from its durable state after a crash.
    ///
    /// The node restarts as a follower with `commit = applied =` the log's
    /// snapshot base: the embedding layer restores its state machine from
    /// `state.snapshot` (or fresh, if none was ever taken) and the entries
    /// still in the log re-commit and re-apply through the normal `Ready`
    /// path once a leader's commit index reaches it — the §2.1.3
    /// "snapshot + log replay" recovery, exercised live.
    pub fn restore(
        id: NodeId,
        group: RaftGroupId,
        members: Vec<NodeId>,
        config: RaftConfig,
        seed: u64,
        state: PersistentRaftState,
    ) -> Self {
        let mut node = Self::new(id, group, members, config, seed);
        let base = state.log.snapshot_base().0;
        node.term = state.term;
        node.voted_for = state.voted_for;
        node.log = state.log;
        node.snapshot_payload = state.snapshot;
        node.commit = base;
        node.applied = base;
        node
    }

    /// Adopt a repaired member list in place (§2.3.3). Term, vote, log and
    /// the commit and applied indexes carry over, so the state machine
    /// re-applies nothing and no row is written. The node steps down to a
    /// follower with no per-peer progress and no lease credit, and the
    /// group elects a leader under the new quorum. An unchanged list is a
    /// no-op.
    pub fn set_members(&mut self, members: Vec<NodeId>) {
        debug_assert!(members.contains(&self.id), "members must include self");
        if self.members == members {
            return;
        }
        self.members = members;
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.progress.clear();
        self.lease_stamps.clear();
        self.ticks_since_leader_contact = u64::MAX;
        self.reset_election_timer();
    }

    /// Hand heartbeat scheduling to the embedding layer (see
    /// [`crate::MultiRaft`]): `tick` stops auto-sending leader heartbeats;
    /// call [`RaftNode::force_heartbeat`] instead.
    pub fn set_external_heartbeat(&mut self, external: bool) {
        self.external_heartbeat = external;
    }

    /// Broadcast a heartbeat now (no-op unless leader).
    pub fn force_heartbeat(&mut self) {
        if self.role == Role::Leader {
            self.broadcast_append();
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn group(&self) -> RaftGroupId {
        self.group
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    pub fn commit_index(&self) -> u64 {
        self.commit
    }

    /// Index of the last entry handed to the state machine; converges to
    /// [`RaftNode::commit_index`] once the embedding layer drains.
    pub fn applied_index(&self) -> u64 {
        self.applied
    }

    pub fn last_index(&self) -> u64 {
        self.log.last_index()
    }

    /// Last known leader, for client redirects (§2.4 leader cache).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Members of the group.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Last compaction snapshot (the log's base), if one was taken.
    pub(crate) fn snapshot(&self) -> Option<&SnapshotPayload> {
        self.snapshot_payload.as_ref()
    }

    /// Live (uncompacted) log length, used to decide when to compact.
    pub fn live_log_len(&self) -> usize {
        self.log.live_len()
    }

    /// Is this leader's read lease currently valid? True when a quorum
    /// (counting self) acked an append probed within the last
    /// `lease_ticks` ticks of the current term. While this holds, no
    /// competing leader can be elected: every peer contributing to the
    /// lease had leader contact more recently than `lease_ticks <
    /// ELECTION_TIMEOUT_MIN` ticks ago, so each is still inside its
    /// vote-stickiness window, and any election quorum must intersect
    /// the lease quorum. Always false when `lease_ticks == 0`.
    pub fn lease_valid(&self) -> bool {
        if self.config.lease_ticks == 0 {
            return false;
        }
        let horizon = (self.clock + 1).saturating_sub(self.config.lease_ticks);
        self.quorum_contact_since(horizon)
    }

    /// Leader *and* caught up: it applied an entry of its own term (the
    /// no-op every new leader commits), so its state machine holds every
    /// command committed before the election.
    pub fn applied_own_term(&self) -> bool {
        self.role == Role::Leader && self.log.term(self.applied) == Some(self.term)
    }

    /// Gate for a linearizable read ([`crate::leader_read`]), leader only.
    /// `None`: caught up in its term, under the lease and fully applied,
    /// the state machine may answer now. `Some(barrier)`: the ReadIndex
    /// path — note the clock and commit index, force a heartbeat, and
    /// answer once [`Self::barrier_passed`] holds.
    pub(crate) fn read_index(&mut self) -> Result<Option<ReadBarrier>> {
        self.require_leader()?;
        if self.applied_own_term() && self.lease_valid() && self.applied == self.commit {
            return Ok(None);
        }
        let barrier = ReadBarrier {
            clock: self.clock,
            commit: self.commit,
        };
        self.force_heartbeat();
        Ok(Some(barrier))
    }

    /// Has `barrier` passed? A quorum acked probes stamped at or after its
    /// clock — so this node still led when the read arrived — and its
    /// commit index and an entry of its own term are applied.
    pub(crate) fn barrier_passed(&self, barrier: ReadBarrier) -> bool {
        self.quorum_contact_since(barrier.clock)
            && self.applied >= barrier.commit
            && self.applied_own_term()
    }

    /// True when this node is leader and a quorum (counting self) has
    /// acked an append probed at local clock `>= since` in the current
    /// term. `since = 0` accepts any current-term ack, which is how
    /// snapshot acks (probe 0) earn credit only while the clock itself is
    /// still inside the first lease window.
    fn quorum_contact_since(&self, since: u64) -> bool {
        if self.role != Role::Leader {
            return false;
        }
        let me = self.id;
        let fresh = 1 + self
            .members
            .iter()
            .filter(|&&p| p != me && self.lease_stamps.get(&p).is_some_and(|&s| s >= since))
            .count();
        fresh >= self.quorum()
    }

    /// Vote stickiness (the rule that makes the lease sound): refuse to
    /// adopt a higher-term candidacy while we believe a leader is alive —
    /// as that leader, while our own lease holds; as a follower, while
    /// leader contact is younger than the minimum election timeout (no
    /// correctly-functioning member would have started this election).
    /// Candidates are never sticky. Disabled together with the lease.
    fn vote_sticky(&self) -> bool {
        if self.config.lease_ticks == 0 {
            return false;
        }
        match self.role {
            Role::Leader => self.lease_valid(),
            Role::Follower => self.ticks_since_leader_contact < ELECTION_TIMEOUT_MIN,
            Role::Candidate => false,
        }
    }

    fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.id;
        self.members.iter().copied().filter(move |&n| n != me)
    }

    // ------------------------------------------------------------------
    // Driving
    // ------------------------------------------------------------------

    /// Advance logical time by one tick.
    pub fn tick(&mut self) {
        self.clock += 1;
        self.ticks_since_leader_contact = self.ticks_since_leader_contact.saturating_add(1);
        match self.role {
            Role::Leader => {
                if self.external_heartbeat {
                    return;
                }
                self.heartbeat_elapsed += 1;
                if self.heartbeat_elapsed >= HEARTBEAT_INTERVAL {
                    self.heartbeat_elapsed = 0;
                    self.broadcast_append();
                }
            }
            Role::Follower | Role::Candidate => {
                self.election_elapsed += 1;
                if self.election_elapsed >= self.election_timeout {
                    self.campaign();
                }
            }
        }
    }

    /// `Ok` on the leader; elsewhere a retryable `NotLeader` naming the
    /// group and the leader hint.
    pub fn require_leader(&self) -> Result<()> {
        if self.role == Role::Leader {
            return Ok(());
        }
        Err(CfsError::NotLeader {
            partition: cfs_types::PartitionId(self.group.raw()),
            hint: self.leader_hint,
        })
    }

    /// Propose one raw log entry. Only the leader accepts; returns its log
    /// index. State machines propose through [`crate::GroupCommit`], whose
    /// frames are the only entries they apply.
    pub(crate) fn propose(&mut self, data: Vec<u8>) -> Result<u64> {
        self.require_leader()?;
        self.metrics.proposals.inc();
        let index = self.log.append_new(self.term, data);
        self.store_appended_at(index);
        // Single-member groups commit immediately.
        self.maybe_advance_commit();
        // Replicate eagerly rather than waiting for the heartbeat tick.
        self.broadcast_append();
        Ok(index)
    }

    /// Group commit: propose many commands as ONE log entry (sub-entry
    /// framing, see [`decode_batch_frame`]), so N commands queued within
    /// the same hub round cost one consensus round instead of N. Returns
    /// the index of the single frame entry; [`crate::GroupCommit::apply`]
    /// unpacks the frame at apply time and resolves each sub-command's
    /// result individually.
    pub fn propose_batch(&mut self, cmds: Vec<Vec<u8>>) -> Result<u64> {
        self.require_leader()?;
        if cmds.is_empty() {
            return Err(CfsError::InvalidArgument("empty batch proposal".into()));
        }
        self.metrics.batch_commits.inc();
        self.propose(encode_batch_frame(&cmds))
    }

    /// Drain pending effects.
    pub fn take_ready(&mut self) -> Ready {
        // Surface newly committed entries.
        if self.commit > self.applied {
            let from = self.applied + 1;
            let n = (self.commit - self.applied) as usize;
            let mut entries = self.log.slice(from, n);
            // Entries below the snapshot base were applied via snapshot
            // restore; skip them.
            entries.retain(|e| e.index > self.applied);
            if let Some(last) = entries.last() {
                self.applied = last.index;
            } else {
                self.applied = self.commit.min(self.log.snapshot_base().0);
            }
            self.ready.committed.extend(entries);
        }
        std::mem::take(&mut self.ready)
    }

    /// Record the state machine's latest snapshot and compact the log up to
    /// its index. The embedding layer calls this when `live_log_len`
    /// crosses the configured threshold (§2.1.3 log compaction).
    pub fn compact(&mut self, snapshot: SnapshotPayload) {
        debug_assert!(
            snapshot.last_index <= self.applied,
            "cannot compact unapplied entries"
        );
        self.compact_and_store(&snapshot);
        self.snapshot_payload = Some(snapshot);
    }

    /// Log compaction (§2.1.3): when the threshold calls for it, snapshot
    /// the state machine at the applied index with `snapshot` and compact
    /// the log up to it. Returns whether it compacted.
    pub fn maybe_compact(&mut self, snapshot: impl FnOnce() -> Vec<u8>) -> bool {
        if !self.wants_compaction() {
            return false;
        }
        let (last_index, last_term) = self.compaction_point();
        let data = snapshot();
        self.compact(SnapshotPayload {
            last_index,
            last_term,
            data,
        });
        true
    }

    /// Does the configured threshold call for compaction now?
    pub fn wants_compaction(&self) -> bool {
        self.config.snapshot_threshold > 0
            && self.log.live_len() as u64 > self.config.snapshot_threshold
            && self.applied > self.log.snapshot_base().0
    }

    /// Index/term pair a compaction snapshot must be taken at: the applied
    /// index and its term.
    pub fn compaction_point(&self) -> (u64, u64) {
        (self.applied, self.log.term(self.applied).unwrap_or(0))
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    fn reset_election_timer(&mut self) {
        self.election_elapsed = 0;
        self.election_timeout = self
            .rng
            .gen_range(ELECTION_TIMEOUT_MIN..ELECTION_TIMEOUT_MAX);
    }

    /// Stand for election in the next term and ask every peer for its
    /// vote. [`Self::tick`] calls it when the election timer fires; the
    /// embedding layer may call it to campaign at once.
    pub fn campaign(&mut self) {
        self.metrics.elections_started.inc();
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.leader_hint = None;
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_timer();
        self.store_hard_state();

        if self.votes.len() >= self.quorum() {
            self.become_leader();
            return;
        }
        let (lli, llt) = (self.log.last_index(), self.log.last_term());
        let term = self.term;
        let peers: Vec<NodeId> = self.peers().collect();
        for to in peers {
            self.send(
                to,
                Message::RequestVote {
                    term,
                    last_log_index: lli,
                    last_log_term: llt,
                },
            );
        }
    }

    fn become_leader(&mut self) {
        self.metrics.leader_elections.inc();
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.heartbeat_elapsed = 0;
        let next = self.log.last_index() + 1;
        self.progress = self
            .peers()
            .map(|p| {
                (
                    p,
                    Progress {
                        next_index: next,
                        match_index: 0,
                    },
                )
            })
            .collect();
        self.ready.became_leader = true;
        // A fresh leader starts without a lease: reads go through a
        // quorum round until acks of its *own* term accumulate.
        self.lease_stamps.clear();
        // Commit a no-op entry of the new term so prior-term entries can
        // commit through the current-term rule (Raft §5.4.2).
        let noop = self.log.append_new(self.term, Vec::new());
        self.store_appended_at(noop);
        self.maybe_advance_commit();
        self.broadcast_append();
    }

    fn become_follower(&mut self, term: u64, leader: Option<NodeId>) {
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.leader_hint = leader;
        self.votes.clear();
        // Lease fence: stepping down (for any reason — a newer term, a
        // competing leader) invalidates whatever lease credit this node
        // held, so a deposed leader can never serve another local read.
        self.lease_stamps.clear();
        self.reset_election_timer();
        self.store_hard_state();
    }

    // ------------------------------------------------------------------
    // Replication (leader side)
    // ------------------------------------------------------------------

    fn broadcast_append(&mut self) {
        let peers: Vec<NodeId> = self.peers().collect();
        for to in peers {
            self.send_append(to);
        }
    }

    fn send_append(&mut self, to: NodeId) {
        let pr = match self.progress.get(&to) {
            Some(p) => *p,
            None => return,
        };
        let prev_index = pr.next_index - 1;
        // Peer is behind our compacted prefix: ship the snapshot instead.
        if prev_index < self.log.snapshot_base().0 && pr.next_index < self.log.first_index() {
            if let Some(snap) = self.snapshot_payload.clone() {
                let term = self.term;
                self.send(
                    to,
                    Message::InstallSnapshot {
                        term,
                        snapshot: snap,
                    },
                );
                return;
            }
        }
        let prev_term = match self.log.term(prev_index) {
            Some(t) => t,
            None => {
                // prev_index compacted and no snapshot available yet; wait
                // for the embedding layer to provide one.
                return;
            }
        };
        let entries = self.log.slice(pr.next_index, MAX_ENTRIES_PER_MESSAGE);
        let term = self.term;
        let commit = self.commit;
        let probe = self.clock;
        self.send(
            to,
            Message::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit: commit,
                probe,
            },
        );
    }

    fn maybe_advance_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        // Median match across the group (self counts as last_index).
        let mut matches: Vec<u64> = self.progress.values().map(|p| p.match_index).collect();
        matches.push(self.log.last_index());
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let candidate = matches[self.quorum() - 1];
        if candidate > self.commit && self.log.term(candidate) == Some(self.term) {
            self.commit = candidate;
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Feed one inbound message.
    pub fn step(&mut self, from: NodeId, msg: Message) {
        // Any newer term demotes us — except a higher-term *candidacy*
        // while we are sticky: deny the vote at our own term without
        // adopting the candidate's. A response at a lower term is ignored
        // by the candidate, so a sticky quorum silently starves any
        // election attempted inside a live leader's lease window.
        if msg.term() > self.term {
            if matches!(msg, Message::RequestVote { .. }) && self.vote_sticky() {
                let my_term = self.term;
                self.send(
                    from,
                    Message::RequestVoteResp {
                        term: my_term,
                        granted: false,
                    },
                );
                return;
            }
            let leader = match &msg {
                Message::AppendEntries { .. } | Message::InstallSnapshot { .. } => Some(from),
                _ => None,
            };
            self.become_follower(msg.term(), leader);
        }

        match msg {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.handle_request_vote(from, term, last_log_index, last_log_term),
            Message::RequestVoteResp { term, granted } => {
                self.handle_vote_resp(from, term, granted)
            }
            Message::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
            } => self.handle_append(
                from,
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                probe,
            ),
            Message::AppendEntriesResp {
                term,
                success,
                match_index,
                probe,
            } => self.handle_append_resp(from, term, success, match_index, probe),
            Message::InstallSnapshot { term, snapshot } => {
                self.handle_install_snapshot(from, term, snapshot)
            }
            Message::InstallSnapshotResp { term, match_index } => {
                self.handle_append_resp(from, term, true, match_index, 0)
            }
        }
    }

    fn handle_request_vote(&mut self, from: NodeId, term: u64, lli: u64, llt: u64) {
        let grant = term == self.term
            && self.voted_for.map(|v| v == from).unwrap_or(true)
            && self.log.candidate_up_to_date(lli, llt);
        if grant {
            self.voted_for = Some(from);
            self.reset_election_timer();
            self.store_hard_state();
        }
        let my_term = self.term;
        self.send(
            from,
            Message::RequestVoteResp {
                term: my_term,
                granted: grant,
            },
        );
    }

    fn handle_vote_resp(&mut self, from: NodeId, term: u64, granted: bool) {
        if self.role != Role::Candidate || term < self.term {
            return;
        }
        if granted {
            self.votes.insert(from);
            if self.votes.len() >= self.quorum() {
                self.become_leader();
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_append(
        &mut self,
        from: NodeId,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<Entry>,
        leader_commit: u64,
        probe: u64,
    ) {
        if term < self.term {
            let my_term = self.term;
            let last = self.log.last_index();
            self.send(
                from,
                Message::AppendEntriesResp {
                    term: my_term,
                    success: false,
                    match_index: last,
                    probe: 0,
                },
            );
            return;
        }
        // Valid leader for our term.
        if self.role != Role::Follower {
            self.become_follower(term, Some(from));
        }
        self.leader_hint = Some(from);
        self.reset_election_timer();
        self.ticks_since_leader_contact = 0;

        let old_last = self.log.last_index();
        let ok = self.log.try_append(prev_index, prev_term, &entries);
        let my_term = self.term;
        if ok {
            if !entries.is_empty() {
                self.metrics.entries_appended.add(entries.len() as u64);
                // Persist before acking, in one batch: put the leader's
                // entries above our base (point overwrites resolve
                // conflicts in place) and delete the rows a conflict
                // truncation left above the new tail.
                let base = self.log.snapshot_base().0;
                let held = &entries[entries.partition_point(|e| e.index <= base)..];
                self.store_entries(held, self.log.last_index() + 1..old_last + 1);
            }
            let match_index = if entries.is_empty() {
                prev_index
            } else {
                entries.last().unwrap().index
            };
            // Commit only up to what we know matches the leader.
            let new_commit = leader_commit.min(match_index).max(self.commit);
            self.commit = new_commit;
            self.send(
                from,
                Message::AppendEntriesResp {
                    term: my_term,
                    success: true,
                    match_index,
                    probe,
                },
            );
        } else {
            let last = self.log.last_index();
            self.send(
                from,
                Message::AppendEntriesResp {
                    term: my_term,
                    success: false,
                    match_index: last,
                    probe: 0,
                },
            );
        }
    }

    fn handle_append_resp(
        &mut self,
        from: NodeId,
        term: u64,
        success: bool,
        match_index: u64,
        probe: u64,
    ) {
        if self.role != Role::Leader || term < self.term {
            return;
        }
        let Some(pr) = self.progress.get_mut(&from) else {
            return;
        };
        if success {
            // Lease renewal: the peer processed an append we probed at
            // local clock `probe`, in our current term — its leader
            // contact is provably no older than that.
            let stamp = self.lease_stamps.entry(from).or_insert(0);
            if probe > *stamp {
                *stamp = probe;
            }
            let pr = self.progress.get_mut(&from).expect("checked above");
            if match_index > pr.match_index {
                pr.match_index = match_index;
            }
            pr.next_index = pr.match_index + 1;
            self.maybe_advance_commit();
            // Stream further entries if the peer is still behind.
            if self.progress[&from].next_index <= self.log.last_index() {
                self.send_append(from);
            }
        } else {
            // Back off using the follower's hint (its last index), never
            // below 1 and never above our own next guess minus one.
            pr.next_index = pr.next_index.saturating_sub(1).max(1).min(match_index + 1);
            self.send_append(from);
        }
    }

    fn handle_install_snapshot(&mut self, from: NodeId, term: u64, snapshot: SnapshotPayload) {
        if term < self.term {
            // Reply immediately (Raft Fig. 13) so a stale leader learns
            // our term. Vote stickiness starves this node's own elections
            // while the leader's lease holds, so this rejection is the
            // only remaining channel for the cluster to discover a
            // high-term rejoiner whose catch-up needs a snapshot —
            // swallowing it livelocks replication to that peer.
            let my_term = self.term;
            let applied = self.applied;
            self.send(
                from,
                Message::InstallSnapshotResp {
                    term: my_term,
                    match_index: applied,
                },
            );
            return;
        }
        self.leader_hint = Some(from);
        self.reset_election_timer();
        self.ticks_since_leader_contact = 0;
        if snapshot.last_index <= self.applied {
            // Stale snapshot; just ack what we have.
            let my_term = self.term;
            let applied = self.applied;
            self.send(
                from,
                Message::InstallSnapshotResp {
                    term: my_term,
                    match_index: applied,
                },
            );
            return;
        }
        // The received snapshot is durable: once the log is compacted past
        // it, a crash must restore the state machine from this image, so it
        // has to be part of the persistent state like a locally-taken
        // compaction snapshot would be.
        self.compact_and_store(&snapshot);
        self.commit = self.commit.max(snapshot.last_index);
        self.applied = snapshot.last_index;
        self.metrics.snapshot_installs_received.inc();
        self.installs_received.fetch_add(1, Ordering::Relaxed);
        self.last_install_index
            .store(snapshot.last_index, Ordering::Relaxed);
        let my_term = self.term;
        let match_index = snapshot.last_index;
        if self.storage.is_some() {
            // With write-through storage the install is on disk before the
            // ack below leaves the node — credit it now rather than at the
            // next crash-image export (which a disk-restored node may
            // never take).
            self.metrics.snapshot_installs_persisted.inc();
            self.installs_credited.fetch_add(1, Ordering::Relaxed);
        }
        self.snapshot_payload = Some(snapshot.clone());
        self.ready.snapshot = Some(snapshot);
        self.send(
            from,
            Message::InstallSnapshotResp {
                term: my_term,
                match_index,
            },
        );
    }

    fn send(&mut self, to: NodeId, msg: Message) {
        self.ready.messages.push(Envelope {
            from: self.id,
            to,
            group: self.group,
            msg,
        });
    }
}

/// First byte of a group-commit frame produced by
/// [`RaftNode::propose_batch`]: the marker, then each command as a
/// little-endian `u32` length and its bytes. Every non-empty entry a state
/// machine applies is a frame; anything else is corrupt.
pub const BATCH_FRAME_MARKER: u8 = 0xFE;

pub(crate) fn encode_batch_frame(cmds: &[Vec<u8>]) -> Vec<u8> {
    let payload: usize = cmds.iter().map(|c| 4 + c.len()).sum();
    let mut out = Vec::with_capacity(1 + payload);
    out.push(BATCH_FRAME_MARKER);
    for c in cmds {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    out
}

/// Split a committed group-commit frame back into its sub-commands,
/// borrowed from `data`. Bytes that are not a well-formed frame are
/// `Corrupt`.
pub fn decode_batch_frame(data: &[u8]) -> Result<Vec<&[u8]>> {
    if data.first() != Some(&BATCH_FRAME_MARKER) {
        return Err(CfsError::Corrupt("log entry is not a batch frame".into()));
    }
    let corrupt = || CfsError::Corrupt("truncated raft batch frame".into());
    let mut out = Vec::new();
    let mut rest = &data[1..];
    while !rest.is_empty() {
        let (len, tail) = rest.split_at_checked(4).ok_or_else(corrupt)?;
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let (cmd, tail) = tail.split_at_checked(len).ok_or_else(corrupt)?;
        out.push(cmd);
        rest = tail;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64, members: &[u64], seed: u64) -> RaftNode {
        RaftNode::new(
            NodeId(id),
            RaftGroupId(1),
            members.iter().map(|&n| NodeId(n)).collect(),
            RaftConfig::default(),
            seed,
        )
    }

    #[test]
    fn single_member_group_self_elects_and_commits() {
        let mut n = node(1, &[1], 42);
        for _ in 0..ELECTION_TIMEOUT_MAX {
            n.tick();
        }
        assert!(n.is_leader());
        let idx = n.propose(b"x".to_vec()).unwrap();
        let ready = n.take_ready();
        assert!(ready.became_leader);
        // no-op entry + our proposal are both committed.
        assert_eq!(ready.committed.last().unwrap().index, idx);
        assert_eq!(ready.committed.last().unwrap().data, b"x");
    }

    #[test]
    fn follower_rejects_proposals_with_hint() {
        let mut n = node(1, &[1, 2, 3], 7);
        let err = n.propose(vec![]).unwrap_err();
        assert!(matches!(err, CfsError::NotLeader { .. }));
    }

    #[test]
    fn candidate_steps_down_on_higher_term() {
        let mut n = node(1, &[1, 2, 3], 7);
        for _ in 0..ELECTION_TIMEOUT_MAX {
            n.tick();
        }
        assert_eq!(n.role(), Role::Candidate);
        let t = n.term();
        n.step(
            NodeId(2),
            Message::AppendEntries {
                term: t + 5,
                prev_index: 0,
                prev_term: 0,
                entries: vec![],
                leader_commit: 0,
                probe: 0,
            },
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), t + 5);
        assert_eq!(n.leader_hint(), Some(NodeId(2)));
    }

    #[test]
    fn vote_granted_once_per_term() {
        let mut n = node(1, &[1, 2, 3], 7);
        n.step(
            NodeId(2),
            Message::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        n.step(
            NodeId(3),
            Message::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let ready = n.take_ready();
        let grants: Vec<bool> = ready
            .messages
            .iter()
            .filter_map(|e| match e.msg {
                Message::RequestVoteResp { granted, .. } => Some(granted),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![true, false]);
    }

    #[test]
    fn vote_denied_to_stale_log() {
        // Lease off so the vote goes through the log-up-to-date rule
        // rather than being rejected by stickiness (tested separately).
        let mut n = RaftNode::new(
            NodeId(1),
            RaftGroupId(1),
            vec![NodeId(1), NodeId(2), NodeId(3)],
            RaftConfig {
                lease_ticks: 0,
                ..RaftConfig::default()
            },
            7,
        );
        // Give ourselves a log entry at term 2 via an append from a leader.
        n.step(
            NodeId(2),
            Message::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 0,
                entries: vec![Entry {
                    index: 1,
                    term: 2,
                    data: vec![],
                }],
                leader_commit: 0,
                probe: 0,
            },
        );
        let _ = n.take_ready();
        // Candidate with an older log (term 1).
        n.step(
            NodeId(3),
            Message::RequestVote {
                term: 3,
                last_log_index: 5,
                last_log_term: 1,
            },
        );
        let ready = n.take_ready();
        assert!(ready
            .messages
            .iter()
            .any(|e| matches!(e.msg, Message::RequestVoteResp { granted: false, .. })));
    }

    #[test]
    fn follower_applies_committed_entries_in_order() {
        let mut n = node(2, &[1, 2, 3], 9);
        let entries: Vec<Entry> = (1..=3)
            .map(|i| Entry {
                index: i,
                term: 1,
                data: vec![i as u8],
            })
            .collect();
        n.step(
            NodeId(1),
            Message::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries,
                leader_commit: 2,
                probe: 0,
            },
        );
        let ready = n.take_ready();
        let applied: Vec<u64> = ready.committed.iter().map(|e| e.index).collect();
        assert_eq!(
            applied,
            vec![1, 2],
            "only entries at or below leader_commit"
        );
    }

    #[test]
    fn single_member_leader_holds_lease_immediately() {
        let mut n = node(1, &[1], 42);
        assert!(!n.lease_valid(), "no lease before election");
        for _ in 0..ELECTION_TIMEOUT_MAX {
            n.tick();
        }
        assert!(n.is_leader());
        assert!(n.lease_valid(), "self is the whole quorum");
    }

    #[test]
    fn lease_renews_on_probed_acks_and_expires_without_them() {
        let cfg = RaftConfig::default();
        let mut n = node(1, &[1, 2, 3], 42);
        for _ in 0..ELECTION_TIMEOUT_MAX * 4 {
            n.tick();
            if n.is_leader() {
                break;
            }
            // Grant the election from both peers.
            let ready = n.take_ready();
            for env in ready.messages {
                if let Message::RequestVote { term, .. } = env.msg {
                    n.step(
                        env.to,
                        Message::RequestVoteResp {
                            term,
                            granted: true,
                        },
                    );
                }
            }
        }
        assert!(n.is_leader());
        assert!(!n.lease_valid(), "no acks of our own term yet");

        // Ack one probed append from one peer: quorum (self + 1) reached.
        let probe = n.clock;
        let term = n.term();
        n.step(
            NodeId(2),
            Message::AppendEntriesResp {
                term,
                success: true,
                match_index: 1,
                probe,
            },
        );
        assert!(n.lease_valid(), "quorum ack renews the lease");

        // Without further acks the lease expires after lease_ticks.
        for _ in 0..cfg.lease_ticks {
            n.tick();
            let _ = n.take_ready();
        }
        assert!(!n.lease_valid(), "unrenewed lease expired");

        // A fresh probed ack revives it; a term change fences it.
        let probe = n.clock;
        n.step(
            NodeId(2),
            Message::AppendEntriesResp {
                term,
                success: true,
                match_index: 1,
                probe,
            },
        );
        assert!(n.lease_valid());
        n.step(
            NodeId(3),
            Message::AppendEntries {
                term: term + 5,
                prev_index: 0,
                prev_term: 0,
                entries: vec![],
                leader_commit: 0,
                probe: 0,
            },
        );
        assert_eq!(n.role(), Role::Follower);
        assert!(!n.lease_valid(), "deposed leader's lease is fenced");
    }

    #[test]
    fn follower_with_recent_leader_contact_is_vote_sticky() {
        let mut n = node(1, &[1, 2, 3], 7);
        // Leader contact at term 2.
        n.step(
            NodeId(2),
            Message::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 0,
                entries: vec![],
                leader_commit: 0,
                probe: 0,
            },
        );
        let _ = n.take_ready();
        // Higher-term candidacy arrives immediately: sticky rejection at
        // our own term, without adopting the candidate's term.
        n.step(
            NodeId(3),
            Message::RequestVote {
                term: 9,
                last_log_index: 50,
                last_log_term: 9,
            },
        );
        assert_eq!(n.term(), 2, "sticky reject does not bump the term");
        let ready = n.take_ready();
        assert!(ready.messages.iter().any(|e| matches!(
            e.msg,
            Message::RequestVoteResp {
                term: 2,
                granted: false
            }
        )));

        // Once contact goes stale past the minimum election timeout the
        // same candidacy is granted (log is up to date).
        let mut stale = node(1, &[1, 2, 3], 7);
        stale.step(
            NodeId(2),
            Message::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 0,
                entries: vec![],
                leader_commit: 0,
                probe: 0,
            },
        );
        let _ = stale.take_ready();
        // Age the contact without firing our own election timer: the
        // timer redraws per reset, so stop just short of eto_min.
        for _ in 0..ELECTION_TIMEOUT_MIN - 1 {
            stale.tick();
        }
        if stale.role() == Role::Follower {
            // Manufacture staleness ≥ eto_min by one more contact-free
            // message-driven step: a direct RequestVote exactly at the
            // boundary. One more tick crosses it; a simultaneous own
            // election is fine for the assertion either way.
            stale.tick();
        }
        let _ = stale.take_ready();
        stale.step(
            NodeId(3),
            Message::RequestVote {
                term: 99,
                last_log_index: 50,
                last_log_term: 9,
            },
        );
        assert_eq!(stale.term(), 99, "stale follower adopts the candidacy");
        let ready = stale.take_ready();
        assert!(ready.messages.iter().any(|e| matches!(
            e.msg,
            Message::RequestVoteResp {
                term: 99,
                granted: true
            }
        )));
    }

    #[test]
    fn batch_frame_roundtrip_and_non_frames_are_corrupt() {
        let cmds = vec![b"alpha".to_vec(), vec![], b"b".to_vec()];
        let mut n = node(1, &[1], 3);
        for _ in 0..ELECTION_TIMEOUT_MAX {
            n.tick();
        }
        assert!(n.is_leader());
        let idx = n.propose_batch(cmds.clone()).unwrap();
        let ready = n.take_ready();
        let entry = ready
            .committed
            .iter()
            .find(|e| e.index == idx)
            .expect("frame committed");
        let decoded = decode_batch_frame(&entry.data).expect("well-formed frame");
        assert_eq!(decoded, cmds);

        // A payload that is not a frame is corrupt, never a single command.
        assert!(matches!(
            decode_batch_frame(b"\x01plain"),
            Err(CfsError::Corrupt(_))
        ));
        assert!(matches!(decode_batch_frame(&[]), Err(CfsError::Corrupt(_))));
        // Truncated frames are an error, not a silent misparse.
        assert!(decode_batch_frame(&[BATCH_FRAME_MARKER, 9, 0, 0, 0]).is_err());
        assert!(decode_batch_frame(&[BATCH_FRAME_MARKER, 1, 0, 0]).is_err());
        // Empty batches are rejected at propose time.
        assert!(n.propose_batch(vec![]).is_err());
    }

    #[test]
    fn received_install_snapshot_is_durable_across_restore() {
        // A follower whose log was replaced by an InstallSnapshot must keep
        // that snapshot in its persistent state: after a crash the log
        // starts above the snapshot base, so restoring with `snapshot:
        // None` would silently lose the whole prefix of the state machine.
        let mut n = node(2, &[1, 2, 3], 9);
        n.step(
            NodeId(1),
            Message::InstallSnapshot {
                term: 3,
                snapshot: SnapshotPayload {
                    last_index: 10,
                    last_term: 3,
                    data: b"state-at-10".to_vec(),
                },
            },
        );
        let ready = n.take_ready();
        assert_eq!(
            ready.snapshot.as_ref().map(|s| s.last_index),
            Some(10),
            "host is told to restore its state machine"
        );

        let state = n.persistent_state();
        assert_eq!(state.log.snapshot_base().0, 10, "log compacted to base");
        assert_eq!(
            state.snapshot.as_ref().map(|s| s.data.as_slice()),
            Some(b"state-at-10".as_slice()),
            "the installed snapshot is part of the durable image"
        );

        let restored = RaftNode::restore(
            NodeId(2),
            RaftGroupId(1),
            vec![NodeId(1), NodeId(2), NodeId(3)],
            RaftConfig::default(),
            9,
            state,
        );
        assert_eq!(restored.applied_index(), 10);
        assert_eq!(
            restored.persistent_state().snapshot.unwrap().data,
            b"state-at-10",
            "the snapshot survives a second crash/restore cycle"
        );
    }
}
