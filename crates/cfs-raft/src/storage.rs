//! Durable raft state on the LSM engine.
//!
//! [`RaftStorage`] is the incremental persistence interface a
//! [`crate::RaftNode`] writes through at each durable-state mutation
//! (term/vote change, log append/truncate, compaction, snapshot install).
//! The default deployment is [`KvRaftStorage`]: four typed column families
//! on a shared [`LsmEngine`], so hundreds of multiraft groups on one node
//! share a single WAL and one set of sorted runs — the paper's "RocksDB
//! for backup and recovery" role (§2).
//!
//! Keys lead with the group id (big-endian), so one group's log is one
//! contiguous key range and whole-group operations are prefix scans.
//!
//! **The contract.** After every call, a group's stored `raft_log` rows
//! are exactly the node's live entries `(base, last_index]`. `persist_full`
//! establishes it when a group is attached, and every later transition
//! keeps it by naming the rows it drops: the node knows its old live range,
//! so the stale rows are the old indices missing from the new range, and
//! they are deleted by key. Each transition — hard state, an append (with
//! the rows a conflict truncation dropped), a snapshot (with the prefix it
//! compacted) — is one `WriteBatch`, so one WAL record, and a crash never
//! tears it. Its cost is the rows it writes. Only `persist_full`, `load`,
//! `groups` and `remove_group` scan stored rows; none of them runs on the
//! append, compaction or snapshot-install path.

use std::ops::Range;
use std::sync::Arc;

use cfs_types::{NodeId, RaftGroupId, Result};

use cfs_kvwal::cf::{cf_prefix, raw_key, typed_key};
use cfs_kvwal::{LsmEngine, TypedCf, WriteBatch};

use crate::log::{Entry, RaftLog};
use crate::message::SnapshotPayload;
use crate::node::PersistentRaftState;

/// `group -> (term, voted_for)`. Written before any message that could
/// acknowledge the new term or vote leaves the node.
struct HardStateCf;
impl TypedCf for HardStateCf {
    const NAME: &'static str = "raft_hard";
    type Key = u64;
    type Value = (u64, Option<NodeId>);
}

/// `(group, index) -> (term, data)`. One row per live log entry.
struct LogCf;
impl TypedCf for LogCf {
    const NAME: &'static str = "raft_log";
    type Key = (u64, u64);
    type Value = (u64, Vec<u8>);
}

/// `group -> (snapshot_index, snapshot_term)`: the compacted-prefix base.
struct BaseCf;
impl TypedCf for BaseCf {
    const NAME: &'static str = "raft_base";
    type Key = u64;
    type Value = (u64, u64);
}

/// `group -> (last_index, (last_term, state))`: the newest state-machine
/// snapshot (locally taken or installed from a leader).
struct SnapCf;
impl TypedCf for SnapCf {
    const NAME: &'static str = "raft_snap";
    type Key = u64;
    type Value = (u64, (u64, Vec<u8>));
}

/// Incremental durable storage for raft groups.
///
/// Each method is one atomic commit: a crash between two calls may lose
/// the later one but never tears a single call in half. [`RaftNode`]
/// invokes these *before* emitting the message that acknowledges the
/// mutated state, matching the fsync-before-ack rule of Raft. The caller
/// names the rows a transition drops (`stale`), so no transition reads
/// the stored log (see the module docs).
///
/// [`RaftNode`]: crate::RaftNode
pub trait RaftStorage: Send + Sync {
    /// Persist `(term, voted_for)`.
    fn set_hard_state(
        &self,
        group: RaftGroupId,
        term: u64,
        voted_for: Option<NodeId>,
    ) -> Result<()>;

    /// Upsert log entries (point writes keyed by index) and delete the
    /// rows at indices `stale`, those a conflict truncation dropped above
    /// the new tail.
    fn append_entries(
        &self,
        group: RaftGroupId,
        entries: &[Entry],
        stale: Range<u64>,
    ) -> Result<()>;

    /// Persist the newest state-machine snapshot, record its
    /// `(last_index, last_term)` as the compacted-prefix base and delete
    /// the rows at indices `stale`, those the compaction dropped.
    fn save_snapshot(
        &self,
        group: RaftGroupId,
        snapshot: &SnapshotPayload,
        stale: Range<u64>,
    ) -> Result<()>;

    /// Replace everything stored for `group` with `state` in one commit —
    /// the baseline written when a group is first attached to storage.
    fn persist_full(&self, group: RaftGroupId, state: &PersistentRaftState) -> Result<()>;

    /// Reassemble the durable image of `group`, or `None` if the group has
    /// never been stored.
    fn load(&self, group: RaftGroupId) -> Result<Option<PersistentRaftState>>;

    /// Every group with stored state.
    fn groups(&self) -> Result<Vec<RaftGroupId>>;

    /// Drop all state of `group`.
    fn remove_group(&self, group: RaftGroupId) -> Result<()>;
}

/// [`RaftStorage`] over typed column families of an [`LsmEngine`].
pub struct KvRaftStorage {
    engine: Arc<LsmEngine>,
}

impl KvRaftStorage {
    /// All groups' raft state lives on `engine` (shared with whatever else
    /// the node persists there).
    pub fn new(engine: Arc<LsmEngine>) -> Self {
        KvRaftStorage { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Arc<LsmEngine> {
        &self.engine
    }

    /// Raw key prefix covering one group's log entries.
    fn log_prefix(group: RaftGroupId) -> Vec<u8> {
        let mut p = cf_prefix::<LogCf>();
        p.extend_from_slice(&group.raw().to_be_bytes());
        p
    }

    /// `(raw_key, index)` for each stored entry of `group`.
    pub(crate) fn stored_log_keys(&self, group: RaftGroupId) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        for (raw, _) in self.engine.scan_prefix_raw(&Self::log_prefix(group)) {
            let (_, index) = typed_key::<LogCf>(&raw)?;
            out.push((raw, index));
        }
        Ok(out)
    }
}

impl RaftStorage for KvRaftStorage {
    fn set_hard_state(
        &self,
        group: RaftGroupId,
        term: u64,
        voted_for: Option<NodeId>,
    ) -> Result<()> {
        self.engine
            .put::<HardStateCf>(&group.raw(), &(term, voted_for))
    }

    fn append_entries(
        &self,
        group: RaftGroupId,
        entries: &[Entry],
        stale: Range<u64>,
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        for idx in stale {
            batch.delete::<LogCf>(&(group.raw(), idx));
        }
        for e in entries {
            batch.put::<LogCf>(&(group.raw(), e.index), &(e.term, e.data.clone()));
        }
        self.engine.write(batch)
    }

    fn save_snapshot(
        &self,
        group: RaftGroupId,
        snapshot: &SnapshotPayload,
        stale: Range<u64>,
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        let (index, term) = (snapshot.last_index, snapshot.last_term);
        batch.put::<SnapCf>(&group.raw(), &(index, (term, snapshot.data.clone())));
        batch.put::<BaseCf>(&group.raw(), &(index, term));
        for idx in stale {
            batch.delete::<LogCf>(&(group.raw(), idx));
        }
        self.engine.write(batch)
    }

    fn persist_full(&self, group: RaftGroupId, state: &PersistentRaftState) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put::<HardStateCf>(&group.raw(), &(state.term, state.voted_for));
        let (base_index, base_term) = state.log.snapshot_base();
        batch.put::<BaseCf>(&group.raw(), &(base_index, base_term));
        match &state.snapshot {
            Some(s) => {
                batch.put::<SnapCf>(&group.raw(), &(s.last_index, (s.last_term, s.data.clone())));
            }
            None => {
                batch.delete::<SnapCf>(&group.raw());
            }
        }
        // Replace the stored log wholesale: delete rows the new image does
        // not carry, upsert the rest.
        let live: std::collections::HashSet<u64> = (state.log.first_index()
            ..=state.log.last_index())
            .filter(|&i| state.log.get(i).is_some())
            .collect();
        for (raw, idx) in self.stored_log_keys(group)? {
            if !live.contains(&idx) {
                batch.delete_raw(raw);
            }
        }
        for idx in live {
            let e = state.log.get(idx).expect("index in live range");
            batch.put::<LogCf>(&(group.raw(), e.index), &(e.term, e.data.clone()));
        }
        self.engine.write(batch)
    }

    fn load(&self, group: RaftGroupId) -> Result<Option<PersistentRaftState>> {
        let hard = self.engine.get::<HardStateCf>(&group.raw())?;
        let base = self.engine.get::<BaseCf>(&group.raw())?;
        let snap = self.engine.get::<SnapCf>(&group.raw())?;
        let mut entries = Vec::new();
        for (raw, value) in self.engine.scan_prefix_raw(&Self::log_prefix(group)) {
            let (_, index) = typed_key::<LogCf>(&raw)?;
            let (term, data) = <(u64, Vec<u8>) as cfs_types::codec::Decode>::from_bytes(&value)?;
            entries.push(Entry { index, term, data });
        }
        if hard.is_none() && base.is_none() && snap.is_none() && entries.is_empty() {
            return Ok(None);
        }
        let (term, voted_for) = hard.unwrap_or((0, None));
        let (base_index, base_term) = base.unwrap_or((0, 0));
        Ok(Some(PersistentRaftState {
            term,
            voted_for,
            log: RaftLog::from_parts(base_index, base_term, entries),
            snapshot: snap.map(|(last_index, (last_term, data))| SnapshotPayload {
                last_index,
                last_term,
                data,
            }),
        }))
    }

    fn groups(&self) -> Result<Vec<RaftGroupId>> {
        let mut out = Vec::new();
        for (raw, _) in self.engine.scan_prefix_raw(&cf_prefix::<HardStateCf>()) {
            out.push(RaftGroupId(typed_key::<HardStateCf>(&raw)?));
        }
        Ok(out)
    }

    fn remove_group(&self, group: RaftGroupId) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_raw(raw_key::<HardStateCf>(&group.raw()));
        batch.delete_raw(raw_key::<BaseCf>(&group.raw()));
        batch.delete_raw(raw_key::<SnapCf>(&group.raw()));
        for (raw, _) in self.stored_log_keys(group)? {
            batch.delete_raw(raw);
        }
        self.engine.write(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_kvwal::LsmOptions;
    use cfs_types::testutil::TempDir;

    fn entry(index: u64, term: u64) -> Entry {
        Entry {
            index,
            term,
            data: vec![index as u8; 3],
        }
    }

    fn open(dir: &std::path::Path) -> KvRaftStorage {
        KvRaftStorage::new(Arc::new(
            LsmEngine::open(dir, LsmOptions::default()).unwrap(),
        ))
    }

    #[test]
    fn unknown_group_loads_none() {
        let dir = TempDir::new("raftkv").unwrap();
        let s = open(dir.path());
        assert!(s.load(RaftGroupId(9)).unwrap().is_none());
        assert!(s.groups().unwrap().is_empty());
    }

    #[test]
    fn incremental_ops_roundtrip_across_reopen() {
        let dir = TempDir::new("raftkv").unwrap();
        let g = RaftGroupId(7);
        {
            let s = open(dir.path());
            s.set_hard_state(g, 3, Some(NodeId(2))).unwrap();
            s.append_entries(
                g,
                &[entry(1, 1), entry(2, 1), entry(3, 2), entry(4, 2)],
                0..0,
            )
            .unwrap();
            // A replacement entry whose conflict truncation dropped row 4.
            s.append_entries(g, &[entry(3, 3)], 4..5).unwrap();
            // Compact the first entry away.
            s.save_snapshot(
                g,
                &SnapshotPayload {
                    last_index: 1,
                    last_term: 1,
                    data: b"sm@1".to_vec(),
                },
                1..2,
            )
            .unwrap();
        }
        let s = open(dir.path());
        let state = s.load(g).unwrap().expect("stored");
        assert_eq!(state.term, 3);
        assert_eq!(state.voted_for, Some(NodeId(2)));
        assert_eq!(state.log.snapshot_base(), (1, 1));
        assert_eq!(state.log.first_index(), 2);
        assert_eq!(state.log.last_index(), 3);
        assert_eq!(state.log.term(3), Some(3), "truncated entry replaced");
        assert_eq!(state.snapshot.unwrap().data, b"sm@1");
        assert_eq!(s.groups().unwrap(), vec![g]);
    }

    #[test]
    fn persist_full_replaces_previous_image() {
        let dir = TempDir::new("raftkv").unwrap();
        let g = RaftGroupId(1);
        let s = open(dir.path());
        s.append_entries(
            g,
            &[entry(1, 1), entry(2, 1), entry(3, 1), entry(4, 1)],
            0..0,
        )
        .unwrap();
        s.set_hard_state(g, 1, None).unwrap();

        // New image: shorter log on a compacted base.
        let mut log = RaftLog::from_parts(2, 1, vec![entry(3, 2)]);
        log.append_new(2, b"x".to_vec());
        let state = PersistentRaftState {
            term: 2,
            voted_for: Some(NodeId(5)),
            log,
            snapshot: Some(SnapshotPayload {
                last_index: 2,
                last_term: 1,
                data: b"sm@2".to_vec(),
            }),
        };
        s.persist_full(g, &state).unwrap();

        let loaded = s.load(g).unwrap().unwrap();
        assert_eq!(loaded.term, 2);
        assert_eq!(loaded.log.first_index(), 3);
        assert_eq!(loaded.log.last_index(), 4);
        assert_eq!(loaded.log.term(4), Some(2), "stale row 4 replaced");
        assert_eq!(loaded.log.term(3), Some(2));
    }

    #[test]
    fn install_snapshot_persists_through_engine_and_restores_from_disk() {
        use crate::config::RaftConfig;
        use crate::message::Message;
        use crate::node::RaftNode;

        let dir = TempDir::new("raftkv").unwrap();
        let g = RaftGroupId(1);
        {
            let storage = Arc::new(open(dir.path()));
            let mut n = RaftNode::new(
                NodeId(2),
                g,
                vec![NodeId(1), NodeId(2), NodeId(3)],
                RaftConfig::default(),
                9,
            );
            n.set_storage(storage).unwrap();
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
            let _ = n.take_ready();
            // The node is dropped without any crash-image export: the only
            // path to the state below is the engine's disk contents.
        }
        let storage = open(dir.path());
        let state = storage.load(g).unwrap().expect("written through engine");
        assert_eq!(state.log.snapshot_base(), (10, 3));
        assert_eq!(
            state.snapshot.as_ref().map(|s| s.data.as_slice()),
            Some(b"state-at-10".as_slice()),
            "installed snapshot restores from the engine alone"
        );
        let restored = RaftNode::restore(
            NodeId(2),
            g,
            vec![NodeId(1), NodeId(2), NodeId(3)],
            RaftConfig::default(),
            9,
            state,
        );
        assert_eq!(restored.applied_index(), 10);
    }

    /// Forwards the first `budget` mutating calls to a [`KvRaftStorage`]
    /// and drops the rest: a power cut right after call number `budget`.
    struct CutAfter {
        inner: KvRaftStorage,
        budget: std::sync::atomic::AtomicUsize,
    }

    impl CutAfter {
        fn pass(&self) -> bool {
            use std::sync::atomic::Ordering::SeqCst;
            self.budget
                .fetch_update(SeqCst, SeqCst, |b| b.checked_sub(1))
                .is_ok()
        }
    }

    impl RaftStorage for CutAfter {
        fn set_hard_state(&self, g: RaftGroupId, term: u64, vote: Option<NodeId>) -> Result<()> {
            match self.pass() {
                true => self.inner.set_hard_state(g, term, vote),
                false => Ok(()),
            }
        }
        fn append_entries(&self, g: RaftGroupId, es: &[Entry], stale: Range<u64>) -> Result<()> {
            match self.pass() {
                true => self.inner.append_entries(g, es, stale),
                false => Ok(()),
            }
        }
        fn save_snapshot(
            &self,
            g: RaftGroupId,
            snap: &SnapshotPayload,
            stale: Range<u64>,
        ) -> Result<()> {
            match self.pass() {
                true => self.inner.save_snapshot(g, snap, stale),
                false => Ok(()),
            }
        }
        fn persist_full(&self, g: RaftGroupId, state: &PersistentRaftState) -> Result<()> {
            match self.pass() {
                true => self.inner.persist_full(g, state),
                false => Ok(()),
            }
        }
        fn load(&self, g: RaftGroupId) -> Result<Option<PersistentRaftState>> {
            self.inner.load(g)
        }
        fn groups(&self) -> Result<Vec<RaftGroupId>> {
            self.inner.groups()
        }
        fn remove_group(&self, g: RaftGroupId) -> Result<()> {
            match self.pass() {
                true => self.inner.remove_group(g),
                false => Ok(()),
            }
        }
    }

    /// A log as `(base, live entries)`, comparable across reloads.
    fn log_image(log: &RaftLog) -> ((u64, u64), Vec<Entry>) {
        (
            log.snapshot_base(),
            log.slice(log.first_index(), usize::MAX),
        )
    }

    #[test]
    fn conflict_truncation_is_crash_atomic() {
        use crate::config::RaftConfig;
        use crate::message::Message;
        use crate::node::RaftNode;
        use cfs_obs::Registry;

        // A follower holds 1..=10 at term 1. A term-2 leader announces
        // itself, then replaces 5..=10 with 5..=7. Cut the power after
        // every storage call in turn: the reloaded log must be one the
        // node really held, never the leader's entries under stale term-1
        // rows, a log whose terms go down.
        let g = RaftGroupId(1);
        let members = vec![NodeId(1), NodeId(2), NodeId(3)];
        let append = |term, prev_index, prev_term, entries| Message::AppendEntries {
            term,
            prev_index,
            prev_term,
            entries,
            leader_commit: 0,
            probe: 0,
        };
        let steps = [
            (
                NodeId(1),
                append(1, 0, 0, (1..=10).map(|i| entry(i, 1)).collect()),
            ),
            (NodeId(3), append(2, 0, 0, vec![])),
            (
                NodeId(3),
                append(2, 4, 1, (5..=7).map(|i| entry(i, 2)).collect()),
            ),
        ];
        for cut in 0.. {
            let dir = TempDir::new("raftcut").unwrap();
            let registry = Registry::new();
            let engine =
                LsmEngine::open_with_registry(dir.path(), LsmOptions::default(), Some(&registry))
                    .unwrap();
            let storage = Arc::new(CutAfter {
                inner: KvRaftStorage::new(Arc::new(engine)),
                budget: cut.into(),
            });
            let mut n = RaftNode::new(NodeId(2), g, members.clone(), RaftConfig::default(), 9);
            n.set_storage(storage.clone()).unwrap();
            let mut held = vec![log_image(&n.persistent_state().log)];
            let mut step_wal_appends = 0;
            for (from, msg) in steps.clone() {
                let before = registry.snapshot();
                n.step(from, msg);
                let _ = n.take_ready();
                step_wal_appends = registry
                    .snapshot()
                    .diff(&before)
                    .counter("kvwal.wal_appends");
                held.push(log_image(&n.persistent_state().log));
            }
            let uncut = storage.pass();
            drop((n, storage));

            let reloaded = open(dir.path())
                .load(g)
                .unwrap()
                .map(|s| log_image(&s.log))
                .unwrap_or_else(|| log_image(&RaftLog::new()));
            assert!(
                reloaded.1.windows(2).all(|w| w[0].term <= w[1].term),
                "cut after call {cut}: reloaded terms go down: {:?}",
                reloaded.1
            );
            assert!(
                held.contains(&reloaded),
                "cut after call {cut}: reloaded a log the node never held: {reloaded:?}"
            );
            if uncut {
                assert_eq!(
                    step_wal_appends, 1,
                    "a conflicting append is one WAL record"
                );
                break;
            }
        }
    }

    #[test]
    fn retransmitted_entries_below_the_base_store_no_rows() {
        use crate::config::RaftConfig;
        use crate::message::Message;
        use crate::node::RaftNode;

        // The leader never saw the follower's ack, so it resends 1..=10
        // after the follower applied and compacted 1..=8. Only 9 and 10
        // may become rows: nothing would ever delete one below the base.
        let dir = TempDir::new("raftkv").unwrap();
        let g = RaftGroupId(1);
        let storage = Arc::new(open(dir.path()));
        let members = vec![NodeId(1), NodeId(2), NodeId(3)];
        let mut n = RaftNode::new(NodeId(2), g, members, RaftConfig::default(), 9);
        n.set_storage(storage.clone()).unwrap();
        let append = |last, leader_commit| Message::AppendEntries {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries: (1..=last).map(|i| entry(i, 1)).collect(),
            leader_commit,
            probe: 0,
        };
        n.step(NodeId(1), append(8, 8));
        let _ = n.take_ready();
        let (last_index, last_term) = n.compaction_point();
        n.compact(SnapshotPayload {
            last_index,
            last_term,
            data: b"sm@8".to_vec(),
        });
        n.step(NodeId(1), append(10, 8));
        let rows: Vec<u64> = storage
            .stored_log_keys(g)
            .unwrap()
            .into_iter()
            .map(|(_, index)| index)
            .collect();
        assert_eq!(rows, vec![9, 10]);
    }

    #[test]
    fn crash_during_engine_compaction_leaves_raft_state_intact() {
        let dir = TempDir::new("raftkv").unwrap();
        let g = RaftGroupId(4);
        {
            let s = open(dir.path());
            s.set_hard_state(g, 5, Some(NodeId(1))).unwrap();
            s.append_entries(g, &[entry(1, 4), entry(2, 5)], 0..0)
                .unwrap();
            s.engine().flush().unwrap();
        }
        // A crash mid-compaction leaves a half-written sorted run: a staged
        // tmp file and a truncated (CRC-failing) committed-looking run.
        std::fs::write(
            dir.path().join("tmp-run-01-00000000000000000099.sst"),
            b"partial",
        )
        .unwrap();
        let real_run = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run-"))
            })
            .expect("flush wrote a run");
        let bytes = std::fs::read(&real_run).unwrap();
        std::fs::write(
            dir.path().join("run-01-00000000000000000098.sst"),
            &bytes[..bytes.len() / 2],
        )
        .unwrap();

        let s = open(dir.path());
        assert!(
            s.engine().metrics().runs_discarded.get() >= 2,
            "tmp + torn runs discarded on recovery"
        );
        let state = s.load(g).unwrap().expect("state survives");
        assert_eq!(state.term, 5);
        assert_eq!(state.log.last_index(), 2);
        assert_eq!(state.log.term(2), Some(5));
    }

    #[test]
    fn groups_are_isolated_and_removable() {
        let dir = TempDir::new("raftkv").unwrap();
        let s = open(dir.path());
        let (a, b) = (RaftGroupId(1), RaftGroupId(2));
        s.set_hard_state(a, 1, None).unwrap();
        s.append_entries(a, &[entry(1, 1)], 0..0).unwrap();
        s.set_hard_state(b, 9, None).unwrap();
        s.append_entries(b, &[entry(1, 9)], 0..0).unwrap();

        let mut groups = s.groups().unwrap();
        groups.sort_by_key(|g| g.raw());
        assert_eq!(groups, vec![a, b]);

        s.remove_group(a).unwrap();
        assert!(s.load(a).unwrap().is_none());
        let left = s.load(b).unwrap().unwrap();
        assert_eq!(left.term, 9);
        assert_eq!(left.log.term(1), Some(9));
    }
}
