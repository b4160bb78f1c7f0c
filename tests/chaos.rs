//! Deterministic full-stack chaos harness.
//!
//! Each test runs a batch of seeded [`FaultPlan`] schedules (generated in
//! `cfs_sim::schedule`) against a real in-process cluster: client workload
//! steps (create/append/read/truncate/unlink/fsync) interleaved with fault
//! events (node crash + recovery from persisted state, directed link cuts,
//! resource-manager leader churn, deferred consensus delivery, dropped
//! RPCs). All randomness flows from the seed, so a failing run prints a
//! one-line repro:
//!
//! ```text
//! CHAOS_SEED=17 cargo test -q --test chaos chaos_replay_env_seed
//! ```
//!
//! At every quiesce point the harness heals all faults, restarts crashed
//! nodes, runs §2.7.1 replica recovery, and checks four invariants:
//!
//! (a) read-your-committed-writes: every file reads back exactly the
//!     acknowledged content, plus at most a prefix of the single in-flight
//!     append whose ack was lost (never bytes beyond it, never torn);
//! (b) meta/data cross-consistency: `fsck` completes with zero dangling
//!     dentries (§2.6 — orphan inodes are legal and reclaimed, a dentry
//!     pointing at a missing inode is not);
//! (c) replica extent alignment: for every extent not subject to
//!     best-effort cleanup, all replicas agree with the primary's committed
//!     watermark in both length and CRC (§2.2.5/§2.7.1);
//! (d) meta snapshot/replay equivalence: every replica of a meta partition
//!     applies the same committed log, their state snapshots are
//!     byte-identical, and a snapshot restores to an identical snapshot
//!     (§2.1.3);
//! (e) fault/metric reconciliation: on every fabric the per-cause drop
//!     split partitions the drop total, the registry's per-route counters
//!     agree with the always-on fabric counters, and every hook-caused
//!     drop is one the seeded schedule's hooks actually fired — losses
//!     are fully explained by injected faults, never by silent routing
//!     bugs;
//! (f) full replication factor: after the self-healing pipeline runs
//!     (heartbeat-driven failure detection plus master-scheduled
//!     re-replication, §2.3.3), every partition lists `replica_count`
//!     live members — even when the schedule permanently killed a data
//!     node that will never restart.
//!
//! Schedules also contain [`ChaosStep::PowerLoss`] events (every plan
//! ends with one): the whole cluster — masters, meta and data nodes —
//! loses power at the same instant and every machine reboots from its
//! storage-engine directory alone, with zero in-memory carryover. The
//! executor checks a seventh invariant at each power cycle:
//!
//! (g) recovered ≡ acknowledged: the durable replica state visible
//!     right before the power cut (hosted partitions, chain membership,
//!     per-extent length / committed watermark / CRC) is byte-identical
//!     after the reboot — no lost committed metadata, no resurrected
//!     punched extents. The paired quiesce that follows then re-proves
//!     invariants (a)–(f) on the rebooted cluster.
//!
//! Schedules also contain [`FaultStep::SplitPartition`] events: the
//! master performs an Algorithm 1 online split of the volume's newest
//! meta partition while workload and faults race it — sometimes with the
//! cut/create tasks never delivered (a master crash mid-handoff), so the
//! heartbeat reconciliation sweep must finish the split on its own. The
//! quiesce sweep then checks an eighth invariant:
//!
//! (h) split handoff exactness: every dentry written before, during or
//!     after a split is visible exactly once (the root listing never
//!     loses or double-lists a name), and fsck finds zero inodes or
//!     dentries owned by more than one partition — the frozen half and
//!     the successor never both serve the same id.
//!
//! Every chaos mount runs with asynchronous metadata commit (DESIGN §12)
//! enabled, so create/link/unlink ack from the intent journal with zero
//! consensus rounds and the strong barrier only runs at fsync/close. The
//! quiesce sweep drains every outstanding intent and checks a ninth
//! invariant:
//!
//! (i) async commit atomicity: every acknowledged-then-crashed metadata
//!     op is, once the cluster quiesces, either fully applied or fully
//!     compensated — never half-visible (a dentry without its inode, a
//!     rolled-back create that still lists, an acked unlink whose name
//!     survives) — and the fsck orphan-intent audit finds zero
//!     journaled-but-uncompensated intents on any meta node.
//!
//! `CHAOS_SEED=<n>` replays any failing seed, including schedules whose
//! fault mix contains a `PermanentKill` (the kill is part of the plan, so
//! the repro regenerates it deterministically).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfs::{
    CfsError, Client, ClientOptions, Cluster, ClusterBuilder, ClusterConfig, DeliveryHook,
    DeliverySchedule, DeliveryVerdict, Dentry, DropCauses, ExtentId, FileHandle, InodeId,
    MetaCommand, MetaPartition, MetricsSnapshot, NodeId, PartitionId, RaftConfig,
};
use cfs_sim::schedule::{ChaosStep, ClusterShape, FaultPlan, FaultStep, NodeRef, WorkloadStep};

/// Steps per generated schedule (plus the final quiesce).
const PLAN_LEN: usize = 120;

/// What invariant (g) compares across a power cycle: for every live
/// (data node, hosted partition), the chain membership plus each
/// extent's (id, size, committed watermark, CRC).
type DurableDataState =
    BTreeMap<(NodeId, PartitionId), (Vec<NodeId>, Vec<(ExtentId, u64, u64, u32)>)>;

/// Defers every odd-sequence consensus message by a fixed number of hub
/// rounds: messages arrive late and out of order, but all arrive.
struct DeferOdd {
    defer: u64,
}

impl DeliverySchedule for DeferOdd {
    fn defer_rounds(&self, seq: u64, _from: NodeId, _to: NodeId) -> u64 {
        if seq % 2 == 1 {
            self.defer
        } else {
            0
        }
    }
}

/// Drops every `one_in`-th client RPC on the fabric it is installed on,
/// counting each drop it actually fired so invariant (e) can reconcile
/// the fabric's loss counters against the schedule.
struct DropEvery {
    one_in: u64,
    fired: AtomicU64,
}

impl DeliveryHook for DropEvery {
    fn verdict(&self, seq: u64, _from: NodeId, _to: NodeId) -> DeliveryVerdict {
        if seq.is_multiple_of(self.one_in) {
            self.fired.fetch_add(1, Ordering::Relaxed);
            DeliveryVerdict::Drop
        } else {
            DeliveryVerdict::Deliver
        }
    }
}

/// What the model knows about one file slot. `Uncertain*` states mean the
/// client saw an error for an operation that may still have committed; the
/// next quiesce resolves them by consulting the (settled) file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileState {
    Absent,
    Present,
    UncertainCreate,
    UncertainUnlink,
    UncertainTrunc { cut: usize },
}

struct FileSlot {
    state: FileState,
    /// Acknowledged content: every byte here was reported committed.
    base: Vec<u8>,
    /// Body of the single failed append, if any. While non-empty the slot
    /// is frozen (no further mutations) until quiesce resolves how much of
    /// it actually landed.
    pending: Vec<u8>,
    handle: Option<FileHandle>,
    /// The create was acked from the intent journal (DESIGN §12) and no
    /// successful barrier has confirmed it since: the op may legally end
    /// rolled back, so quiesce resolves the slot by lookup before
    /// checking content (invariant (i)).
    unbarriered: bool,
}

impl FileSlot {
    fn new() -> FileSlot {
        FileSlot {
            state: FileState::Absent,
            base: Vec::new(),
            pending: Vec::new(),
            handle: None,
            unbarriered: false,
        }
    }
}

fn fname(file: usize) -> String {
    format!("chaos-f{file}")
}

/// Deterministic, position-tagged content so a mismatch pinpoints both the
/// originating append and the file offset.
fn pattern_bytes(file: usize, start: usize, len: usize, fill: u8) -> Vec<u8> {
    (0..len)
        .map(|i| fill ^ ((start + i) as u8) ^ (file as u8).wrapping_mul(31))
        .collect()
}

/// Invariant (a): `got` must extend the acknowledged `base` by at most a
/// prefix of the in-flight `pending` bytes.
fn check_read(seed: u64, file: usize, when: &str, got: &[u8], base: &[u8], pending: &[u8]) {
    if got.len() < base.len() {
        panic!(
            "invariant (a) violated ({when}, file {file}, seed {seed}): \
             read {} bytes but {} are committed",
            got.len(),
            base.len()
        );
    }
    if &got[..base.len()] != base {
        let i = got
            .iter()
            .zip(base.iter())
            .position(|(a, b)| a != b)
            .unwrap();
        panic!(
            "invariant (a) violated ({when}, file {file}, seed {seed}): \
             committed byte {i} differs (got {}, expected {})",
            got[i], base[i]
        );
    }
    let surplus = &got[base.len()..];
    if surplus.len() > pending.len() || surplus != &pending[..surplus.len()] {
        panic!(
            "invariant (a) violated ({when}, file {file}, seed {seed}): \
             {} bytes beyond the committed watermark don't match the in-flight append",
            surplus.len()
        );
    }
}

/// Invariant (e), per fabric: the registry's per-route/per-cause counters
/// must agree exactly with the fabric's always-on counters, and the cause
/// split must partition the drop total. Factored out so the forced-failure
/// test below can prove it rejects books that don't balance.
fn check_fabric_reconciliation(
    seed: u64,
    snap: &MetricsSnapshot,
    fabric: &str,
    calls: u64,
    drops: u64,
    causes: DropCauses,
    rejections: u64,
) {
    assert_eq!(
        causes.total(),
        drops,
        "invariant (e): {fabric} drop causes don't partition the drop total (seed {seed})"
    );
    let routed = snap.counter_sum(&format!("net.calls{{fabric={fabric}"));
    assert_eq!(
        routed, calls,
        "invariant (e): {fabric} per-route call counters disagree with the \
         fabric total (seed {seed})"
    );
    let cause_counters = snap.counter_sum(&format!("net.drops{{fabric={fabric}"));
    assert_eq!(
        cause_counters, drops,
        "invariant (e): {fabric} per-cause drop counters disagree with the \
         fabric total (seed {seed})"
    );
    assert_eq!(
        snap.counter(&format!("net.rejections{{fabric={fabric}}}")),
        rejections,
        "invariant (e): {fabric} rejection counter disagrees with the fabric \
         total (seed {seed})"
    );
    // Completion-model books: every call was a submit, every submit was
    // completed (a drop completes as a timeout — nothing stays queued),
    // and the in-flight gauge is back to zero once the fabric is quiet.
    let submits = snap.counter(&format!("fabric.submits{{fabric={fabric}}}"));
    assert_eq!(
        submits, calls,
        "invariant (e): {fabric} submit counter disagrees with the fabric \
         call total (seed {seed})"
    );
    let completions = snap.counter(&format!("fabric.completions{{fabric={fabric}}}"));
    assert_eq!(
        completions, submits,
        "invariant (e): {fabric} completions don't drain the submits (seed {seed})"
    );
    if let Some(g) = snap.gauge(&format!("fabric.inflight{{fabric={fabric}}}")) {
        assert_eq!(
            g.value, 0,
            "invariant (e): {fabric} still has RPCs in flight at quiesce (seed {seed})"
        );
    }
}

struct Chaos {
    seed: u64,
    cluster: Cluster,
    client: Client,
    files: Vec<FileSlot>,
    /// Extents subject to best-effort cleanup (truncate/unlink queued a
    /// punch or delete on them); exempt from invariant (c).
    exempt: BTreeSet<(PartitionId, ExtentId)>,
    crashed_meta: Option<usize>,
    crashed_data: Option<usize>,
    /// Permanently killed data node: never restarted — only the master's
    /// repair pipeline brings its partitions back to full replication.
    killed_data: Option<usize>,
    /// Directed link cuts currently installed. Healed individually — never
    /// via `heal_all`, which would also resurrect crashed nodes.
    cuts: Vec<(NodeId, NodeId)>,
    /// Every inode a compensation record's fixups named (removed dentry
    /// target or evicted inode), noted before each heartbeat's orphan
    /// sweep executes and empties the records: the evidence invariant
    /// (i)'s "fully compensated" arms require.
    compensated: BTreeSet<InodeId>,
    /// Uncertain truncates resolved through that arm.
    compensated_truncates: usize,
    /// Every drop hook the schedule ever installed, kept so invariant (e)
    /// can total the drops the schedule actually fired.
    drop_hooks: Vec<Arc<DropEvery>>,
    /// Algorithm 1 splits the schedule successfully proposed (delivered
    /// or not); when non-zero, quiesce drives heartbeat reconciliation
    /// rounds so half-delivered handoffs finish before invariants run.
    splits: usize,
    /// Test knob: force a failure at the first quiesce so the repro-line
    /// plumbing can be exercised.
    sabotage: bool,
}

impl Chaos {
    fn new(seed: u64, shape: ClusterShape, sabotage: bool) -> Chaos {
        let config = ClusterConfig {
            // Small thresholds exercise packing, multi-packet appends and
            // per-packet meta syncs without large bodies.
            small_file_threshold: 1024,
            packet_size: 1024,
            ..Default::default()
        };
        let raft_config = RaftConfig {
            // Aggressive compaction so crash recovery restores from
            // snapshots, not just log replay.
            snapshot_threshold: 24,
            ..Default::default()
        };
        let cluster = ClusterBuilder::new()
            .meta_nodes(shape.meta_nodes)
            .data_nodes(shape.data_nodes)
            .master_replicas(shape.masters)
            .config(config)
            .raft_config(raft_config)
            .seed(seed)
            .build()
            .expect("cluster build");
        cluster.create_volume("chaos", 2, 4).expect("create volume");
        let client = cluster
            .mount_with_options(
                "chaos",
                ClientOptions {
                    seed: seed ^ 0x51DE_CA4E,
                    pipeline_depth: 1,
                    meta_sync_every: 1,
                    // Every chaos mount exercises DESIGN §12: mutations
                    // ack from the intent journal, quiesce must prove
                    // invariant (i).
                    async_meta: true,
                    ..Default::default()
                },
            )
            .expect("mount");
        Chaos {
            seed,
            cluster,
            client,
            files: (0..shape.files).map(|_| FileSlot::new()).collect(),
            exempt: BTreeSet::new(),
            crashed_meta: None,
            crashed_data: None,
            killed_data: None,
            cuts: Vec::new(),
            compensated: BTreeSet::new(),
            compensated_truncates: 0,
            drop_hooks: Vec::new(),
            splits: 0,
            sabotage,
        }
    }

    fn run(&mut self, plan: &FaultPlan) {
        for step in &plan.steps {
            match *step {
                ChaosStep::Op(op) => self.do_op(op),
                ChaosStep::Fault(f) => self.do_fault(f),
                ChaosStep::PowerLoss => self.power_loss(),
                ChaosStep::Quiesce => self.quiesce(),
            }
        }
    }

    fn node_id(&self, r: NodeRef) -> NodeId {
        match r {
            NodeRef::Meta(i) => self.cluster.meta_nodes()[i].id(),
            NodeRef::Data(i) => self.cluster.data_nodes()[i].id(),
        }
    }

    // ----- workload steps ------------------------------------------------

    fn do_op(&mut self, op: WorkloadStep) {
        match op {
            WorkloadStep::Create { file } => {
                if self.files[file].state != FileState::Absent {
                    return;
                }
                let root = self.client.root();
                let nm = fname(file);
                match self.client.create(root, &nm) {
                    Ok(_) => {
                        self.files[file].handle = self.client.open(root, &nm).ok();
                        self.files[file].state = FileState::Present;
                        // An async ack is not yet a commitment: until a
                        // barrier succeeds, the create may legally end
                        // rolled back (invariant (i)).
                        self.files[file].unbarriered = self.client.async_pending_count() > 0;
                    }
                    // The create may or may not have committed a dentry
                    // (the client rolls the inode back on error, §2.6).
                    Err(_) => self.files[file].state = FileState::UncertainCreate,
                }
            }
            WorkloadStep::Append { file, len, fill } => {
                let client = &self.client;
                let slot = &mut self.files[file];
                if slot.state != FileState::Present || !slot.pending.is_empty() {
                    return;
                }
                let Some(h) = slot.handle.as_mut() else {
                    return;
                };
                let data = pattern_bytes(file, slot.base.len(), len, fill);
                h.seek(h.size());
                match client.write(h, &data) {
                    Ok(_) => slot.base.extend_from_slice(&data),
                    // The append failed partway; some prefix may have
                    // committed. Freeze the slot until quiesce.
                    Err(_) => slot.pending = data,
                }
            }
            WorkloadStep::Read { file } => {
                let slot = &self.files[file];
                if slot.state != FileState::Present {
                    return;
                }
                let Some(h) = slot.handle.as_ref() else {
                    return;
                };
                // Errors are tolerated mid-chaos (replicas may be down);
                // a successful read must still obey invariant (a).
                if let Ok(r) = self.client.read_at(h, 0, h.size() as usize) {
                    check_read(
                        self.seed,
                        file,
                        "mid-chaos read",
                        &r,
                        &slot.base,
                        &slot.pending,
                    );
                }
            }
            WorkloadStep::Truncate { file, keep_num } => {
                let client = &self.client;
                let slot = &mut self.files[file];
                if slot.state != FileState::Present || !slot.pending.is_empty() {
                    return;
                }
                let Some(h) = slot.handle.as_mut() else {
                    return;
                };
                let cut = slot.base.len() * keep_num as usize / 16;
                // Truncate queues best-effort punches/deletes for the cut
                // extents; exempt them from strict replica alignment.
                for k in h.extents() {
                    if k.file_offset >= cut as u64 {
                        self.exempt.insert((k.partition_id, k.extent_id));
                    }
                }
                match client.truncate_file(h, cut as u64) {
                    Ok(()) => slot.base.truncate(cut),
                    Err(_) => slot.state = FileState::UncertainTrunc { cut },
                }
            }
            WorkloadStep::Unlink { file } => {
                {
                    let slot = &self.files[file];
                    if slot.state != FileState::Present || !slot.pending.is_empty() {
                        return;
                    }
                    if let Some(h) = slot.handle.as_ref() {
                        for k in h.extents() {
                            self.exempt.insert((k.partition_id, k.extent_id));
                        }
                    }
                }
                let root = self.client.root();
                let nm = fname(file);
                self.files[file].handle = None;
                match self.client.unlink(root, &nm) {
                    Ok(()) => {
                        self.files[file].state = FileState::Absent;
                        self.files[file].base.clear();
                    }
                    Err(_) => self.files[file].state = FileState::UncertainUnlink,
                }
            }
            WorkloadStep::Fsync { file } => {
                let fsynced = {
                    let client = &self.client;
                    let slot = &mut self.files[file];
                    if slot.state != FileState::Present || !slot.pending.is_empty() {
                        return;
                    }
                    match slot.handle.as_mut() {
                        Some(h) => client.fsync(h).is_ok(),
                        None => false,
                    }
                };
                // fsync is the strong barrier: success means *every*
                // outstanding async intent (all files — the drain is
                // client-global) committed durably.
                if fsynced {
                    for slot in &mut self.files {
                        slot.unbarriered = false;
                    }
                }
            }
        }
    }

    // ----- fault steps ---------------------------------------------------

    fn do_fault(&mut self, f: FaultStep) {
        match f {
            FaultStep::CrashMeta { idx } => {
                if self.crashed_meta.is_none() {
                    self.cluster.crash_meta_node(idx).expect("crash meta node");
                    self.crashed_meta = Some(idx);
                }
            }
            FaultStep::RestartMeta { idx } => {
                if self.crashed_meta == Some(idx) {
                    self.cluster.restart_meta_node(idx);
                    self.crashed_meta = None;
                }
            }
            FaultStep::CrashData { idx } => {
                if self.crashed_data.is_none() && self.killed_data != Some(idx) {
                    self.cluster.crash_data_node(idx).expect("crash data node");
                    self.crashed_data = Some(idx);
                }
            }
            FaultStep::RestartData { idx } => {
                if self.crashed_data == Some(idx) && self.killed_data != Some(idx) {
                    self.cluster.restart_data_node(idx);
                    self.crashed_data = None;
                }
            }
            FaultStep::PermanentKill { idx } => {
                // Same mechanics as a crash, but the node is never
                // restarted: quiesce relies on the self-healing pipeline
                // (not this harness) to restore the replication factor.
                if self.killed_data.is_none() && self.crashed_data != Some(idx) {
                    self.cluster.crash_data_node(idx).expect("kill data node");
                    self.killed_data = Some(idx);
                }
            }
            FaultStep::CutLink { from, to } => {
                let (a, b) = (self.node_id(from), self.node_id(to));
                if a != b {
                    self.cluster.faults().set_link_cut(a, b, true);
                    self.cuts.push((a, b));
                }
            }
            FaultStep::HealLinks => self.heal_cuts(),
            FaultStep::MasterChurn => {
                if let Ok(leader) = self.cluster.master_leader() {
                    let id = leader.id();
                    self.cluster.faults().set_down(id, true);
                    self.cluster.settle(900);
                    self.cluster.faults().set_down(id, false);
                }
            }
            FaultStep::DelayConsensus { defer } => {
                self.cluster
                    .hub()
                    .set_delivery_schedule(Some(Arc::new(DeferOdd { defer })));
            }
            FaultStep::DropRpcs { one_in } => {
                let hook = Arc::new(DropEvery {
                    one_in: one_in as u64,
                    fired: AtomicU64::new(0),
                });
                self.drop_hooks.push(hook.clone());
                self.cluster
                    .fabrics()
                    .meta
                    .set_delivery_hook(Some(hook.clone()));
                self.cluster.fabrics().data.set_delivery_hook(Some(hook));
            }
            FaultStep::SplitPartition { deliver } => {
                // Algorithm 1, mid-fault: the proposal fails harmlessly
                // when the master is leaderless; with `deliver: false`
                // the split commits in the master's Raft group but no
                // cut/create task reaches a meta node (a master crash at
                // the worst instant) — the reconciliation sweep at
                // quiesce must finish the handoff on its own.
                if self
                    .cluster
                    .split_newest_meta_partition(self.client.volume(), deliver)
                    .is_ok()
                {
                    self.splits += 1;
                }
            }
        }
    }

    fn heal_cuts(&mut self) {
        let faults = self.cluster.faults();
        for (a, b) in self.cuts.drain(..) {
            faults.set_link_cut(a, b, false);
        }
    }

    // ----- whole-cluster power loss --------------------------------------

    /// Invariant (g): capture the durable replica state of every live
    /// data node, cut power on the entire cluster at once, boot every
    /// machine back from its engine directory, and require the recovered
    /// view to match the pre-cut view exactly. No settling happens
    /// between the two captures, so this isolates the storage engine:
    /// any difference is state that existed only in process memory.
    ///
    /// The schedule generator pairs every `PowerLoss` with an immediately
    /// following `Quiesce`, which re-elects leaders and re-checks
    /// invariants (a)–(f) on the rebooted cluster.
    fn power_loss(&mut self) {
        let acknowledged = self.durable_data_state();
        self.cluster
            .power_loss_restart()
            .unwrap_or_else(|e| panic!("power-loss reboot failed (seed {}): {e:?}", self.seed));
        let recovered = self.durable_data_state();
        assert_eq!(
            recovered, acknowledged,
            "invariant (g): whole-cluster power loss changed the durable \
             data state (seed {})",
            self.seed
        );
    }

    /// Per-live-data-node durable state: hosted partitions with their
    /// chain membership and each extent's (size, committed watermark,
    /// CRC), sorted so two captures compare positionally. Nodes the
    /// schedule has down stay fenced through the reboot and are skipped
    /// on both sides of the comparison.
    fn durable_data_state(&self) -> DurableDataState {
        let faults = self.cluster.faults();
        let mut state = BTreeMap::new();
        for node in self.cluster.data_nodes() {
            if faults.is_down(node.id()) {
                continue;
            }
            for (pid, members) in node.hosted_partitions() {
                let manifest = node
                    .extent_manifest(pid)
                    .expect("node hosts the partition it reported");
                let mut extents: Vec<_> = manifest
                    .iter()
                    .map(|e| (e.extent, e.size, e.committed, e.crc))
                    .collect();
                extents.sort_unstable();
                state.insert((node.id(), pid), (members, extents));
            }
        }
        state
    }

    // ----- quiesce + invariants ------------------------------------------

    fn quiesce(&mut self) {
        // 1. Lift every fault: restart crashed nodes from their persisted
        //    images, heal cuts, uninstall delivery faults.
        if let Some(idx) = self.crashed_meta.take() {
            self.cluster.restart_meta_node(idx);
        }
        if let Some(idx) = self.crashed_data.take() {
            self.cluster.restart_data_node(idx);
        }
        self.heal_cuts();
        self.cluster.hub().set_delivery_schedule(None);
        self.cluster.fabrics().meta.set_delivery_hook(None);
        self.cluster.fabrics().data.set_delivery_hook(None);

        // 2. Let consensus settle: every Raft group re-elects and drains
        //    deferred traffic.
        self.cluster.settle(600);

        // 2a. Split reconciliation — before the leader waits: a split
        //     whose create task reached only a minority of its members
        //     (crashed replica, cut links, dropped RPCs) leaves a
        //     quorumless group that can never elect until the maintenance
        //     sweep re-delivers the cut/create tasks. Heartbeat rounds
        //     drive the re-emission until every replica reports its
        //     planned range.
        if self.splits > 0 {
            for _ in 0..6 {
                self.heartbeat();
                self.cluster.settle(200);
            }
        }

        self.await_leaders();
        self.retry("refresh partition table", || {
            self.client.refresh_partition_table()
        });

        // 2b. Self-healing (§2.3.3): when a node was permanently killed,
        //     drive heartbeat rounds so the master detects it as dead and
        //     re-replicates its partitions onto the spare. The harness
        //     never recovers those partitions by hand — the repair
        //     pipeline (detect → decommission → join → confirm) must.
        if self.killed_data.is_some() {
            self.run_repair();
        }

        // 3. §2.7.1 recovery: align every data replica to the primary's
        //    committed watermark.
        self.recover_data();

        // 3b. DESIGN §12: drain every outstanding async intent through
        //     the strong barrier, then drive heartbeat orphan sweeps
        //     until no meta node holds a journaled-but-uncompensated
        //     intent — invariant (i).
        self.drain_async_intents();

        // 4. Invariant (a): resolve uncertain operations and verify
        //    read-your-committed-writes on every file.
        self.resolve_files();

        if self.sabotage {
            panic!("sabotage: injected invariant violation");
        }

        // 5. Drain deferred deletions (orphan eviction + extent cleanup) so
        //    fsck audits a stable state.
        self.client.process_deletions();
        self.cluster.process_all_deletes();

        // 6. Invariant (b): meta/data cross-consistency; invariant (f):
        //    every partition back at full replication factor (the audit
        //    counts only members the resource manager reports alive, so a
        //    killed node the repair pipeline failed to replace fails it).
        let report = self.retry("fsck", || self.client.fsck(false));
        assert_eq!(
            report.dangling_dentries, 0,
            "invariant (b): dangling dentries after quiesce (seed {})",
            self.seed
        );
        if self.killed_data.is_some() {
            assert!(
                report.under_replicated.is_empty(),
                "invariant (f): partitions below replication factor after \
                 quiesce (seed {}): {:?}",
                self.seed,
                report.under_replicated
            );
        }

        // 6b. Invariant (h): split handoff exactness — no two partitions
        //     both own an inode or serve a dentry, and the client-visible
        //     namespace matches the model exactly once per name.
        assert_eq!(
            report.duplicate_inodes, 0,
            "invariant (h): inodes owned by two partitions after quiesce (seed {})",
            self.seed
        );
        assert_eq!(
            report.duplicate_dentries, 0,
            "invariant (h): dentries served by two partitions after quiesce (seed {})",
            self.seed
        );
        self.check_split_visibility();

        // 7. Invariant (c): replica extent alignment.
        self.check_replica_alignment();

        // 8. Invariant (d): meta snapshot/replay equivalence.
        check_meta_snapshot_replay(&self.cluster, self.seed);

        // 9. Invariant (e): fault/metric reconciliation.
        self.check_net_reconciliation();

        // 10. Invariant (e), hot path: group-commit sub-entries and the
        //     meta and data reads leaders served reconcile exactly.
        self.check_hot_path_reconciliation();

        // 11. Invariant (e), read cache (DESIGN §13): block conservation —
        //     every block ever inserted is still resident, was evicted, or
        //     was invalidated; nothing is lost or double-counted across
        //     truncates, overwrites, unlinks and view refreshes.
        self.check_readcache_reconciliation();
    }

    /// Invariant (i) machinery: barrier every acked-but-unbarriered
    /// intent (a *rollback* report is a legal outcome here — the crash
    /// beat the group commit — and surfaces as an error the slot
    /// resolution below absorbs), then run heartbeat rounds until the
    /// fsck orphan-intent audit is empty: every compensation journaled
    /// anywhere has been executed and acked by the resource manager's
    /// orphan sweep.
    fn drain_async_intents(&mut self) {
        for _ in 0..6 {
            if self.client.drain_async_commits().is_ok() {
                break;
            }
            self.cluster.settle(400);
        }
        assert_eq!(
            self.client.async_pending_count(),
            0,
            "invariant (i): async intents still queued after the quiesce \
             drain (seed {})",
            self.seed
        );
        for _ in 0..8 {
            let report = self.retry("fsck", || self.client.fsck(false));
            if report.orphan_intents.is_empty() {
                break;
            }
            self.heartbeat();
            self.cluster.settle(200);
        }
        let report = self.retry("fsck", || self.client.fsck(false));
        assert!(
            report.orphan_intents.is_empty(),
            "invariant (i): journaled-but-uncompensated intents survived \
             quiesce (seed {}): {:?}",
            self.seed,
            report.orphan_intents
        );
    }

    /// Wait until the masters and every meta/data partition have a leader.
    fn await_leaders(&self) {
        for _ in 0..50 {
            if self.cluster.master_leader().is_ok() {
                break;
            }
            self.cluster.settle(200);
        }
        self.cluster
            .master_leader()
            .expect("resource manager failed to elect a leader at quiesce");

        // A permanently killed node stays down through quiesce: its stale
        // partition/leadership views must not drive (or satisfy) the
        // election waits.
        let hub = self.cluster.hub();
        let faults = self.cluster.faults();
        let metas: Vec<_> = self
            .cluster
            .meta_nodes()
            .iter()
            .filter(|m| !faults.is_down(m.id()))
            .collect();
        let mut meta_pids = BTreeSet::new();
        for m in &metas {
            meta_pids.extend(m.partition_ids());
        }
        for pid in meta_pids {
            let ok = hub.pump_until(|| metas.iter().any(|m| m.is_leader_for(pid)), 20_000);
            assert!(
                ok,
                "meta partition {pid} failed to elect a leader at quiesce"
            );
        }

        let datas: Vec<_> = self
            .cluster
            .data_nodes()
            .iter()
            .filter(|d| !faults.is_down(d.id()))
            .collect();
        let mut data_pids = BTreeSet::new();
        for d in &datas {
            for (pid, _) in d.hosted_partitions() {
                data_pids.insert(pid);
            }
        }
        for pid in data_pids {
            let ok = hub.pump_until(|| datas.iter().any(|d| d.is_raft_leader_for(pid)), 20_000);
            assert!(
                ok,
                "data partition {pid} failed to elect a leader at quiesce"
            );
        }
    }

    /// Heartbeat-driven failure detection + repair: tick the master until
    /// the killed node crosses the dead threshold, then keep ticking (the
    /// scheduler is budgeted per sweep) until the replication audit is
    /// clean again.
    fn run_repair(&mut self) {
        for _ in 0..cfs::DEAD_AFTER_MISSED {
            self.heartbeat();
            self.cluster.settle(200);
        }
        for _ in 0..8 {
            let clean = self
                .retry("replication audit", || self.client.fsck(false))
                .under_replicated
                .is_empty();
            if clean {
                return;
            }
            self.heartbeat();
            self.cluster.settle(300);
        }
        panic!(
            "self-healing failed to restore the replication factor (seed {})",
            self.seed
        );
    }

    fn recover_data(&self) {
        let mut reports = self.cluster.recover_data_partitions();
        for _ in 0..4 {
            if !reports.is_empty() && reports.iter().all(|r| r.ok()) {
                break;
            }
            self.cluster.settle(400);
            reports = self.cluster.recover_data_partitions();
        }
        assert!(
            !reports.is_empty(),
            "no data partition was reachable for recovery at quiesce (seed {})",
            self.seed
        );
        for r in &reports {
            assert!(
                r.ok(),
                "data partition {} recovery failed at quiesce (seed {}): \
                 head {:?}, outcome {:?}",
                r.partition,
                self.seed,
                r.head,
                r.result
            );
        }
    }

    /// Retry a client operation across transient post-heal hiccups; at a
    /// quiesce point it must eventually succeed.
    fn retry<T>(&self, what: &str, mut f: impl FnMut() -> cfs::Result<T>) -> T {
        let mut last: Option<CfsError> = None;
        for _ in 0..6 {
            match f() {
                Ok(v) => return v,
                Err(e) => {
                    last = Some(e);
                    self.cluster.settle(400);
                }
            }
        }
        panic!("{what} failed after quiesce (seed {}): {last:?}", self.seed)
    }

    /// One heartbeat round, after noting every inode the compensation
    /// records still name — the round's orphan sweep may execute them.
    fn heartbeat(&mut self) {
        for node in self.cluster.meta_nodes() {
            for comp in node.compensations() {
                for (_, cmd) in comp.fixups {
                    if let MetaCommand::RemoveDentryIf { inode, .. }
                    | MetaCommand::EvictIf { inode, .. } = cmd
                    {
                        self.compensated.insert(inode);
                    }
                }
            }
        }
        self.retry("heartbeat", || self.cluster.heartbeat());
    }

    /// Lookup that only distinguishes present/absent; transient errors are
    /// retried, anything persistent is a harness failure.
    fn lookup_settled(&self, parent: InodeId, name: &str) -> Option<Dentry> {
        let mut last: Option<CfsError> = None;
        for _ in 0..6 {
            match self.client.lookup(parent, name) {
                Ok(d) => return Some(d),
                Err(CfsError::NotFound(_)) => return None,
                Err(e) => {
                    last = Some(e);
                    self.cluster.settle(400);
                }
            }
        }
        panic!(
            "lookup {name} kept failing after quiesce (seed {}): {last:?}",
            self.seed
        )
    }

    fn resolve_files(&mut self) {
        let root = self.client.root();
        for idx in 0..self.files.len() {
            let nm = fname(idx);
            let mut slot = std::mem::replace(&mut self.files[idx], FileSlot::new());
            match slot.state {
                FileState::Absent => {}
                FileState::UncertainCreate => {
                    // The cluster has settled, so the questionable dentry
                    // either committed or never will.
                    if self.lookup_settled(root, &nm).is_some() {
                        // The dentry committed even though the client saw an
                        // error and rolled the inode back (nlink 0,
                        // orphan-listed). Remove it — a dentry the model
                        // considers absent must not linger, or fsck would
                        // flag it dangling once the orphan is reclaimed.
                        let _ = self.client.unlink(root, &nm);
                        if self.lookup_settled(root, &nm).is_some() {
                            self.retry("cleanup unlink", || self.client.unlink(root, &nm));
                            assert!(
                                self.lookup_settled(root, &nm).is_none(),
                                "uncertain create left an unremovable dentry (seed {})",
                                self.seed
                            );
                        }
                    }
                    slot = FileSlot::new();
                }
                FileState::UncertainUnlink => {
                    match self.lookup_settled(root, &nm) {
                        // The dentry delete committed; the inode is an
                        // orphan awaiting reclamation (checked via fsck).
                        None => slot = FileSlot::new(),
                        // The unlink never took effect: the file must be
                        // fully intact.
                        Some(_) => {
                            let mut h = self.retry("reopen", || self.client.open(root, &nm));
                            self.retry("fsync", || self.client.fsync(&mut h));
                            let r = self
                                .retry("read", || self.client.read_at(&h, 0, h.size() as usize));
                            check_read(self.seed, idx, "unlink rollback", &r, &slot.base, &[]);
                            slot.base = r;
                            slot.handle = Some(h);
                            slot.state = FileState::Present;
                        }
                    }
                }
                FileState::UncertainTrunc { .. }
                    if slot.unbarriered && self.lookup_settled(root, &nm).is_none() =>
                {
                    // Invariant (i), the "fully compensated" arm, as for
                    // `Present` — but only with the evidence: a
                    // compensation record named the file's inode.
                    let ino = slot.handle.as_ref().map(FileHandle::ino);
                    assert!(
                        ino.is_some_and(|i| self.compensated.contains(&i)),
                        "invariant (i): async-acked file {idx} ({ino:?}) vanished \
                         after an uncertain truncate, but no compensation record \
                         named its inode (seed {})",
                        self.seed
                    );
                    self.compensated_truncates += 1;
                    slot = FileSlot::new();
                }
                FileState::UncertainTrunc { cut } => {
                    // A truncate is atomic in the meta partition: after
                    // settling, the file has either the old or the new size.
                    let mut h = self.retry("reopen", || self.client.open(root, &nm));
                    self.retry("fsync", || self.client.fsync(&mut h));
                    let r = self.retry("read", || self.client.read_at(&h, 0, h.size() as usize));
                    if r != slot.base && r != slot.base[..cut.min(slot.base.len())] {
                        panic!(
                            "invariant (a) violated (truncate, file {idx}, seed {}): \
                             {} bytes read, expected the pre-image ({}) or the \
                             truncated image ({cut})",
                            self.seed,
                            r.len(),
                            slot.base.len()
                        );
                    }
                    slot.base = r;
                    slot.handle = Some(h);
                    slot.state = FileState::Present;
                }
                FileState::Present
                    if slot.unbarriered && self.lookup_settled(root, &nm).is_none() =>
                {
                    // Invariant (i), the "fully compensated" arm: the
                    // async-acked create was rolled back by the crash and
                    // its compensation removed every trace — the name is
                    // gone, so the model forgets the file entirely.
                    slot = FileSlot::new();
                }
                FileState::Present => {
                    // Keep the existing handle when we have one: fsync must
                    // flush any extent keys a failed append left pending.
                    let mut h = match slot.handle.take() {
                        Some(h) => h,
                        None => self.retry("reopen", || self.client.open(root, &nm)),
                    };
                    self.retry("fsync", || self.client.fsync(&mut h));
                    let r = self.retry("read", || self.client.read_at(&h, 0, h.size() as usize));
                    check_read(self.seed, idx, "quiesce", &r, &slot.base, &slot.pending);
                    slot.base = r;
                    slot.pending.clear();
                    slot.handle = Some(h);
                    slot.unbarriered = false;
                }
            }
            self.files[idx] = slot;
        }
    }

    /// Invariant (h), client view: the root listing shows every name
    /// exactly once, and each file slot's visibility matches the model —
    /// a dentry written before, during or after a split is never lost
    /// (0 sightings) and never double-served by both halves of a cut
    /// (2 sightings). Runs after `resolve_files`, so every slot is
    /// settled to `Present` or `Absent`.
    fn check_split_visibility(&self) {
        let listing = self.retry("readdir", || self.client.readdir(self.client.root()));
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for d in &listing {
            *counts.entry(d.name.clone()).or_default() += 1;
        }
        for (name, n) in &counts {
            assert_eq!(
                *n, 1,
                "invariant (h): dentry {name} listed {n} times (seed {})",
                self.seed
            );
        }
        for (idx, slot) in self.files.iter().enumerate() {
            let visible = counts.get(&fname(idx)).copied().unwrap_or(0);
            let expected = usize::from(slot.state == FileState::Present);
            assert_eq!(
                visible, expected,
                "invariant (h): file {idx} in state {:?} visible {visible} \
                 time(s) after quiesce (seed {})",
                slot.state, self.seed
            );
        }
    }

    fn check_replica_alignment(&self) {
        // Only live nodes count: a permanently killed node still holds a
        // stale image of its old partitions, but repair replaced it — the
        // live members (invariant (f) proved there are enough) must agree.
        let faults = self.cluster.faults();
        let datas: Vec<_> = self
            .cluster
            .data_nodes()
            .iter()
            .filter(|d| !faults.is_down(d.id()))
            .collect();
        let by_id = |id: NodeId| {
            datas
                .iter()
                .find(|d| d.id() == id)
                .unwrap_or_else(|| panic!("no live data node {id}"))
        };
        let mut seen = BTreeSet::new();
        for node in &datas {
            for (pid, members) in node.hosted_partitions() {
                if !seen.insert(pid) {
                    continue;
                }
                let leader = by_id(members[0]);
                let manifest = leader
                    .extent_manifest(pid)
                    .expect("primary hosts the partition");
                for info in &manifest {
                    if self.exempt.contains(&(pid, info.extent)) {
                        continue;
                    }
                    assert_eq!(
                        info.size, info.committed,
                        "invariant (c): {pid}/{:?} primary length vs committed watermark \
                         after recovery (seed {})",
                        info.extent, self.seed
                    );
                    for &peer in &members[1..] {
                        let pm = by_id(peer)
                            .extent_manifest(pid)
                            .expect("replica hosts the partition");
                        let Some(pe) = pm.iter().find(|e| e.extent == info.extent) else {
                            // Replicas materialize an extent on its first
                            // replicated append, so an extent nothing was
                            // committed to may exist on the primary alone.
                            assert_eq!(
                                info.committed, 0,
                                "invariant (c): {pid}/{:?} has committed bytes but is \
                                 missing on replica {peer} (seed {})",
                                info.extent, self.seed
                            );
                            continue;
                        };
                        assert_eq!(
                            pe.size, info.committed,
                            "invariant (c): {pid}/{:?} length on replica {peer} (seed {})",
                            info.extent, self.seed
                        );
                        assert_eq!(
                            pe.crc, info.crc,
                            "invariant (c): {pid}/{:?} crc on replica {peer} (seed {})",
                            info.extent, self.seed
                        );
                    }
                }
            }
        }
    }

    fn check_net_reconciliation(&self) {
        let snap = self.cluster.metrics_snapshot();
        let fabrics = self.cluster.fabrics();
        check_fabric_reconciliation(
            self.seed,
            &snap,
            "master",
            fabrics.master.call_count(),
            fabrics.master.drop_count(),
            fabrics.master.drop_causes(),
            fabrics.master.rejection_count(),
        );
        check_fabric_reconciliation(
            self.seed,
            &snap,
            "meta",
            fabrics.meta.call_count(),
            fabrics.meta.drop_count(),
            fabrics.meta.drop_causes(),
            fabrics.meta.rejection_count(),
        );
        check_fabric_reconciliation(
            self.seed,
            &snap,
            "data",
            fabrics.data.call_count(),
            fabrics.data.drop_count(),
            fabrics.data.drop_causes(),
            fabrics.data.rejection_count(),
        );

        // Hook-caused drops must be exactly the ones the schedule's hooks
        // fired: the hooks only ever ride the meta and data fabrics, and
        // each firing is one fabric-level drop (nothing else produces
        // cause=hook, and no firing goes unaccounted).
        let fired: u64 = self
            .drop_hooks
            .iter()
            .map(|h| h.fired.load(Ordering::Relaxed))
            .sum();
        let hook_drops = fabrics.meta.drop_causes().hook + fabrics.data.drop_causes().hook;
        assert_eq!(
            fired, hook_drops,
            "invariant (e): schedule hooks fired {fired} drops but the fabrics \
             counted {hook_drops} (seed {})",
            self.seed
        );
        assert_eq!(
            fabrics.master.drop_causes().hook,
            0,
            "invariant (e): master fabric counted hook drops but no hook was \
             ever installed there (seed {})",
            self.seed
        );
    }

    fn check_hot_path_reconciliation(&self) {
        let snap = self.cluster.metrics_snapshot();
        // Group commit: every command a replica applies is a decoded
        // sub-entry of a batch frame, and
        // both counters tick at the same apply site — so they match
        // exactly, across crashes, snapshot catch-ups and retries.
        assert_eq!(
            snap.counter("raft.batch.entries"),
            snap.counter_sum("meta.applies{"),
            "invariant (e): raft batch sub-entries vs meta applies (seed {})",
            self.seed
        );
        // Read path: fabric drops happen strictly before the handler runs,
        // and every pre-classification server error is retryable — so a
        // meta read counts client-side as served iff exactly one leader
        // classified it as a lease read or a quorum read.
        let served_by_leaders =
            snap.counter("meta.lease_reads") + snap.counter("meta.quorum_reads");
        let served_to_client = self.client.data_path_stats().meta_reads_served;
        assert_eq!(
            served_by_leaders, served_to_client,
            "invariant (e): leader-classified meta reads (lease + quorum) vs \
             reads the client saw served (seed {})",
            self.seed
        );
        // Data reads: only a partition's Raft leader answers a `Read`, and
        // it classifies the read as lease or quorum once it has the bytes
        // — exactly the replies the client takes as served.
        assert_eq!(
            snap.counter("data.lease_reads") + snap.counter("data.quorum_reads"),
            snap.counter("client.data_reads_served"),
            "invariant (e): leader-classified data reads (lease + quorum) vs \
             data reads the client accepted (seed {})",
            self.seed
        );
    }

    /// Invariant (e), DESIGN §13: the readahead block cache obeys block
    /// conservation — `resident == inserted - evicted - invalidated` —
    /// both per client and in the shared registry (the workload's only
    /// mount, so the two views must agree exactly), and every probe was
    /// classified as exactly one hit or miss.
    fn check_readcache_reconciliation(&self) {
        let stats = self.client.data_path_stats();
        let balance = stats.readcache_inserted as i64
            - stats.readcache_evicted as i64
            - stats.readcache_invalidated as i64;
        assert_eq!(
            stats.readcache_resident, balance,
            "invariant (e): read-cache resident blocks vs inserted - evicted \
             - invalidated (seed {}): {:?}",
            self.seed, stats
        );
        assert!(
            stats.readcache_resident >= 0,
            "invariant (e): negative read-cache residency (seed {}): {:?}",
            self.seed,
            stats
        );
        // Full blocks are the only insertable unit, so residency can never
        // exceed the configured capacity.
        assert!(
            stats.readcache_resident <= 256,
            "invariant (e): read-cache residency above capacity (seed {}): {:?}",
            self.seed,
            stats
        );
        // The shared registry mirrors the single mount's pairs exactly.
        let snap = self.cluster.metrics_snapshot();
        assert_eq!(
            snap.counter("client.readcache.inserted") as i64
                - snap.counter("client.readcache.evicted") as i64
                - snap.counter("client.readcache.invalidated") as i64,
            snap.gauge("client.readcache.resident")
                .map(|g| g.value)
                .unwrap_or(0),
            "invariant (e): registry-level read-cache conservation (seed {})",
            self.seed
        );
        assert_eq!(
            snap.counter("client.readcache.hit"),
            stats.readcache_hits,
            "invariant (e): registry vs client read-cache hits (seed {})",
            self.seed
        );
        assert_eq!(
            snap.counter("client.readcache.miss"),
            stats.readcache_misses,
            "invariant (e): registry vs client read-cache misses (seed {})",
            self.seed
        );
    }
}

/// Invariant (d) over the live hosts: every live replica of each meta
/// partition applies the same committed log, their trees are
/// byte-identical, and replaying the snapshot reproduces the tree.
fn check_meta_snapshot_replay(cluster: &Cluster, seed: u64) {
    let faults = cluster.faults();
    let metas: Vec<_> = cluster
        .meta_nodes()
        .iter()
        .filter(|m| !faults.is_down(m.id()))
        .collect();
    let hub = cluster.hub();
    let mut pids = BTreeSet::new();
    for m in &metas {
        pids.extend(m.partition_ids());
    }
    for pid in pids {
        let hosts: Vec<_> = metas
            .iter()
            .filter(|m| m.partition_ids().contains(&pid))
            .collect();
        // Every replica must finish applying the same committed log.
        let ok = hub.pump_until(
            || {
                let idx: Vec<_> = hosts.iter().filter_map(|m| m.raft_indices(pid)).collect();
                idx.len() == hosts.len()
                    && idx.iter().all(|&(commit, applied, _)| commit == applied)
                    && idx.windows(2).all(|w| w[0].0 == w[1].0)
            },
            30_000,
        );
        assert!(
            ok,
            "invariant (d): {pid} replicas failed to converge (seed {}): \
             (commit, applied, last) per host = {:?}, leaders = {:?}",
            seed,
            hosts
                .iter()
                .map(|m| m.raft_indices(pid))
                .collect::<Vec<_>>(),
            hosts
                .iter()
                .map(|m| (m.is_leader_for(pid), m.raft_term(pid)))
                .collect::<Vec<_>>()
        );
        let snaps: Vec<Vec<u8>> = hosts
            .iter()
            .map(|m| {
                m.partition_snapshot(pid)
                    .expect("snapshot of hosted partition")
            })
            .collect();
        for (i, s) in snaps.iter().enumerate().skip(1) {
            if s != &snaps[0] {
                let a = MetaPartition::from_snapshot(pid, &snaps[0]).unwrap();
                let b = MetaPartition::from_snapshot(pid, s).unwrap();
                eprintln!("max_inode: {:?} vs {:?}", a.max_inode(), b.max_inode());
                eprintln!(
                    "inodes: {} vs {}",
                    a.all_inodes().len(),
                    b.all_inodes().len()
                );
                for (x, y) in a.all_inodes().iter().zip(b.all_inodes().iter()) {
                    if x != y {
                        eprintln!("inode diff:\n  {x:?}\n  {y:?}");
                    }
                }
                eprintln!(
                    "dentries: {} vs {}",
                    a.all_dentries().len(),
                    b.all_dentries().len()
                );
                for (x, y) in a.all_dentries().iter().zip(b.all_dentries().iter()) {
                    if x != y {
                        eprintln!("dentry diff:\n  {x:?}\n  {y:?}");
                    }
                }
                panic!(
                    "invariant (d): replica {i} of {pid} diverges (seed {})",
                    seed
                );
            }
        }
        // Replaying the snapshot must reproduce the state exactly.
        let restored = MetaPartition::from_snapshot(pid, &snaps[0]).expect("snapshot must decode");
        assert_eq!(
            restored.snapshot_bytes(),
            snaps[0],
            "invariant (d): snapshot round-trip for {pid} (seed {})",
            seed
        );
    }
}

// ----- runners -----------------------------------------------------------

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The invariant letter a failure message names (`"invariant (c): …"` →
/// `'c'`), so the repro line says up front which property broke before
/// anyone replays the seed. `None` for harness/setup failures that name
/// no invariant.
fn failed_invariant(msg: &str) -> Option<char> {
    let rest = &msg[msg.find("invariant (")? + "invariant (".len()..];
    rest.chars().next().filter(char::is_ascii_lowercase)
}

/// The `[…]` tag spliced into every repro line: the failing invariant by
/// letter, or `harness` when the failure named none.
fn invariant_tag(msg: &str) -> String {
    match failed_invariant(msg) {
        Some(c) => format!("invariant ({c})"),
        None => "harness".into(),
    }
}

/// Run one generated schedule; the failure message if it failed.
fn seed_failure(seed: u64, sabotage: bool) -> Option<String> {
    let shape = ClusterShape::default();
    let plan = FaultPlan::generate(seed, shape, PLAN_LEN);
    panic::catch_unwind(AssertUnwindSafe(|| {
        let mut chaos = Chaos::new(seed, shape, sabotage);
        chaos.run(&plan);
    }))
    .err()
    .map(|payload| panic_message(payload.as_ref()))
}

/// The one-line repro: re-running with this seed regenerates the exact
/// schedule (FaultPlan is a pure function of the seed).
fn repro_line(seed: u64, msg: &str) -> String {
    format!(
        "CHAOS_SEED={seed} failed [{}] — replay with \
         `CHAOS_SEED={seed} cargo test -q --test chaos chaos_replay_env_seed`",
        invariant_tag(msg)
    )
}

fn run_seed_inner(seed: u64, sabotage: bool) {
    if let Some(msg) = seed_failure(seed, sabotage) {
        panic!("{}: {msg}", repro_line(seed, &msg));
    }
}

fn run_seed(seed: u64) {
    run_seed_inner(seed, false)
}

/// Power-loss-dense variant of a generated schedule: a whole-cluster
/// power cycle before every quiesce, on top of whatever power losses the
/// seed already rolled. Every fault window then ends with a full reboot
/// from disk, so recovery runs against crashed nodes, cut links and
/// in-flight appends — not just settled state.
fn densify_power_loss(plan: &mut FaultPlan) {
    let mut steps = Vec::with_capacity(plan.steps.len() + 8);
    for step in plan.steps.drain(..) {
        if step == ChaosStep::Quiesce && steps.last() != Some(&ChaosStep::PowerLoss) {
            steps.push(ChaosStep::PowerLoss);
        }
        steps.push(step);
    }
    plan.steps = steps;
}

/// Split-dense variant of a generated schedule: an Algorithm 1 split at
/// every fault-window boundary — before each whole-cluster power cycle
/// and each bare quiesce — alternating between full task delivery and a
/// master that "crashes" before delivering anything (`deliver: false`,
/// reconciliation must finish the handoff). Combined with
/// [`densify_power_loss`], every split is immediately followed by a
/// whole-cluster power cut, so recovery always runs mid-handoff.
fn densify_splits(plan: &mut FaultPlan) {
    let mut steps = Vec::with_capacity(plan.steps.len() + 16);
    let mut n = 0usize;
    let mut prev_power = false;
    for step in plan.steps.drain(..) {
        let boundary = step == ChaosStep::PowerLoss || (step == ChaosStep::Quiesce && !prev_power);
        if boundary {
            steps.push(ChaosStep::Fault(FaultStep::SplitPartition {
                deliver: n.is_multiple_of(2),
            }));
            n += 1;
        }
        prev_power = step == ChaosStep::PowerLoss;
        steps.push(step);
    }
    plan.steps = steps;
}

/// Run one split-dense seed: splits at every fault-window boundary, a
/// power cut right after each split, invariant (h) at every quiesce.
fn run_split_seed(seed: u64) {
    let shape = ClusterShape::default();
    let mut plan = FaultPlan::generate(seed, shape, PLAN_LEN);
    densify_splits(&mut plan);
    densify_power_loss(&mut plan);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut chaos = Chaos::new(seed, shape, false);
        chaos.run(&plan);
        assert!(
            chaos.splits > 0,
            "split-dense schedule performed no split (seed {seed})"
        );
    }));
    if let Err(payload) = result {
        let msg = panic_message(payload.as_ref());
        panic!(
            "CHAOS_SEED={seed} failed (split dense) [{}] — replay with \
             `CHAOS_SEED={seed} cargo test -q --test chaos split_replay_env_seed`: {msg}",
            invariant_tag(&msg)
        );
    }
}

/// Async-dense variant: on top of a power cycle before every quiesce, a
/// burst of K creates fires *immediately before each power cut* — the
/// acks come from the intent journal and the lights go out before any
/// barrier, so every quiesce resolves acked-but-unbarriered intents the
/// hard way (group-committed, replayed, or compensated: invariant (i)).
fn densify_async_bursts(plan: &mut FaultPlan, files: usize) {
    const BURST: usize = 4;
    let mut steps = Vec::with_capacity(plan.steps.len() + 32);
    let mut n = 0usize;
    for step in plan.steps.drain(..) {
        if step == ChaosStep::PowerLoss {
            for k in 0..BURST {
                steps.push(ChaosStep::Op(WorkloadStep::Create {
                    file: (n + k) % files,
                }));
            }
            n += BURST;
        }
        steps.push(step);
    }
    plan.steps = steps;
}

/// Run one async-dense seed: unbarriered create bursts racing every
/// power cut, invariant (i) at every quiesce.
fn run_async_seed(seed: u64) {
    let shape = ClusterShape::default();
    let mut plan = FaultPlan::generate(seed, shape, PLAN_LEN);
    densify_power_loss(&mut plan);
    densify_async_bursts(&mut plan, shape.files);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut chaos = Chaos::new(seed, shape, false);
        chaos.run(&plan);
    }));
    if let Err(payload) = result {
        let msg = panic_message(payload.as_ref());
        panic!(
            "CHAOS_SEED={seed} failed (async dense) [{}] — replay with \
             `CHAOS_SEED={seed} cargo test -q --test chaos async_replay_env_seed`: {msg}",
            invariant_tag(&msg)
        );
    }
}

/// Run one power-loss-dense seed to completion and hand back the
/// cluster's final metrics snapshot (for the kvwal engine report).
fn run_power_loss_seed(seed: u64) -> MetricsSnapshot {
    let shape = ClusterShape::default();
    let mut plan = FaultPlan::generate(seed, shape, PLAN_LEN);
    densify_power_loss(&mut plan);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut chaos = Chaos::new(seed, shape, false);
        chaos.run(&plan);
        chaos.cluster.metrics_snapshot()
    }));
    match result {
        Ok(snap) => snap,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            panic!(
                "CHAOS_SEED={seed} failed (power-loss dense) [{}] — replay with \
                 `CHAOS_SEED={seed} cargo test -q --test chaos power_loss_replay_env_seed`: {msg}",
                invariant_tag(&msg)
            )
        }
    }
}

/// One JSON record per power-loss seed: every `kvwal.*` counter and
/// histogram (WAL appends, flushes, compactions, records replayed, torn
/// runs discarded, recovery nanoseconds) from the run's registry.
fn kvwal_json(seed: u64, snap: &MetricsSnapshot) -> String {
    let mut kvwal = MetricsSnapshot::default();
    for (k, v) in &snap.counters {
        if k.starts_with("kvwal.") {
            kvwal.counters.insert(k.clone(), *v);
        }
    }
    for (k, v) in &snap.histograms {
        if k.starts_with("kvwal.") {
            kvwal.histograms.insert(k.clone(), v.clone());
        }
    }
    format!("{{\"seed\":{seed},\"metrics\":{}}}", kvwal.to_json())
}

/// Write the power-loss kvwal report to `POWERLOSS_JSON_PATH` (default
/// `target/powerloss_metrics.json`), mirroring the bench JSON plumbing
/// so nightly CI uploads it alongside the existing artifacts.
fn write_powerloss_json(records: &[String]) {
    let json = format!(
        "{{\"suite\":\"power_loss\",\"runs\":[{}]}}",
        records.join(",")
    );
    let json_path = std::env::var("POWERLOSS_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/target/powerloss_metrics.json").to_string()
    });
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("kvwal metrics JSON written to {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}; emitting to stdout\n{json}"),
    }
}

fn run_batch(range: std::ops::Range<u64>) {
    // When replaying one seed, skip the batches so the documented replay
    // command stays fast.
    if std::env::var("CHAOS_SEED").is_ok() {
        return;
    }
    for seed in range {
        run_seed(seed);
    }
}

#[test]
fn chaos_seeds_batch_0() {
    run_batch(0..13);
}

#[test]
fn chaos_seeds_batch_1() {
    run_batch(13..26);
}

#[test]
fn chaos_seeds_batch_2() {
    run_batch(26..39);
}

#[test]
fn chaos_seeds_batch_3() {
    run_batch(39..52);
}

/// A seed replays exactly: two runs of one schedule in one process end
/// with equal counters, every one of them (histograms hold host timings
/// and are left out). Seeds 4 and 9 are ones whose runs disagreed — by 23
/// and 7 counters — while hash-map iteration order still reached the
/// wire.
#[test]
fn chaos_seed_replays_exactly() {
    let counters = |seed| {
        let shape = ClusterShape::default();
        let mut chaos = Chaos::new(seed, shape, false);
        chaos.run(&FaultPlan::generate(seed, shape, PLAN_LEN));
        chaos.cluster.metrics_snapshot().counters
    };
    for seed in [4, 9] {
        let (first, second) = (counters(seed), counters(seed));
        let diverged: Vec<String> = first
            .iter()
            .filter(|&(name, n)| second.get(name) != Some(n))
            .map(|(name, n)| format!("{name}: {n} vs {:?}", second.get(name)))
            .collect();
        assert!(
            diverged.is_empty() && first.len() == second.len(),
            "CHAOS_SEED={seed} did not replay exactly: {diverged:?}"
        );
    }
}

/// Replays exactly one schedule: `CHAOS_SEED=17 cargo test -q --test chaos
/// chaos_replay_env_seed`. A no-op without the environment variable.
#[test]
fn chaos_replay_env_seed() {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        run_seed(s.parse().expect("CHAOS_SEED must be a u64"));
    }
}

/// Named tier-1 power-loss sweep: 8 seeds whose schedules power-cycle
/// the whole cluster before every quiesce, with the kvwal engine metrics
/// of every run written to `POWERLOSS_JSON_PATH`.
#[test]
fn power_loss_seeds() {
    if std::env::var("CHAOS_SEED").is_ok() {
        return;
    }
    let records: Vec<String> = (0..8)
        .map(|seed| kvwal_json(seed, &run_power_loss_seed(seed)))
        .collect();
    write_powerloss_json(&records);
}

/// Replays one power-loss-dense schedule: `CHAOS_SEED=17 cargo test -q
/// --test chaos power_loss_replay_env_seed`. A no-op without the
/// environment variable.
#[test]
fn power_loss_replay_env_seed() {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed = s.parse().expect("CHAOS_SEED must be a u64");
        run_power_loss_seed(seed);
    }
}

/// Nightly power-loss sweep: `POWERLOSS_SEEDS=N` runs N extra dense
/// seeds beyond the tier-1 eight, uploading the kvwal report for all of
/// them. A no-op without the environment variable.
#[test]
fn power_loss_extended_seeds() {
    if let Ok(n) = std::env::var("POWERLOSS_SEEDS") {
        let n: u64 = n.parse().expect("POWERLOSS_SEEDS must be a u64");
        let records: Vec<String> = (0..n)
            .map(|i| {
                let seed = 5_000 + i;
                kvwal_json(seed, &run_power_loss_seed(seed))
            })
            .collect();
        write_powerloss_json(&records);
    }
}

/// Named tier-1 split-invariant sweep: 8 seeds whose schedules perform
/// an Algorithm 1 split at every fault-window boundary (alternating task
/// delivery with a master crash before delivery) with a whole-cluster
/// power cut striking immediately after each split — invariant (h) must
/// hold at every quiesce of every seed.
#[test]
fn split_seeds() {
    if std::env::var("CHAOS_SEED").is_ok() {
        return;
    }
    for seed in 0..8 {
        run_split_seed(seed);
    }
}

/// Replays one split-dense schedule: `CHAOS_SEED=17 cargo test -q
/// --test chaos split_replay_env_seed`. A no-op without the environment
/// variable.
#[test]
fn split_replay_env_seed() {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        run_split_seed(s.parse().expect("CHAOS_SEED must be a u64"));
    }
}

/// Nightly split sweep: `SPLIT_SEEDS=N` runs N extra split-dense seeds
/// beyond the tier-1 eight. A no-op without the environment variable.
#[test]
fn split_extended_seeds() {
    if let Ok(n) = std::env::var("SPLIT_SEEDS") {
        let n: u64 = n.parse().expect("SPLIT_SEEDS must be a u64");
        for i in 0..n {
            run_split_seed(7_000 + i);
        }
    }
}

/// Named tier-1 async-invariant sweep: 8 seeds whose schedules fire a
/// burst of journal-acked creates immediately before every whole-cluster
/// power cut — invariant (i) must hold at every quiesce of every seed.
#[test]
fn async_seeds() {
    if std::env::var("CHAOS_SEED").is_ok() {
        return;
    }
    for seed in 0..8 {
        run_async_seed(9_000 + seed);
    }
}

/// Replays one async-dense schedule: `CHAOS_SEED=17 cargo test -q
/// --test chaos async_replay_env_seed`. A no-op without the environment
/// variable.
#[test]
fn async_replay_env_seed() {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        run_async_seed(s.parse().expect("CHAOS_SEED must be a u64"));
    }
}

/// Nightly async sweep: `ASYNC_SEEDS=N` runs N extra async-dense seeds
/// beyond the tier-1 eight. A no-op without the environment variable.
#[test]
fn async_extended_seeds() {
    if let Ok(n) = std::env::var("ASYNC_SEEDS") {
        let n: u64 = n.parse().expect("ASYNC_SEEDS must be a u64");
        for i in 0..n {
            run_async_seed(9_100 + i);
        }
    }
}

/// The repro line names the failing invariant by letter, so a triager
/// knows what property broke before replaying the seed (satellite of
/// DESIGN §12).
#[test]
fn repro_line_names_the_failing_invariant() {
    assert_eq!(
        failed_invariant("invariant (a) violated (quiesce)"),
        Some('a')
    );
    assert_eq!(
        failed_invariant("prefix: invariant (i): journaled intents survived"),
        Some('i')
    );
    assert_eq!(failed_invariant("sabotage: injected failure"), None);
    assert_eq!(failed_invariant("invariant ()"), None);
    assert_eq!(
        invariant_tag("invariant (h): dentry listed twice"),
        "invariant (h)"
    );
    assert_eq!(invariant_tag("cluster build exploded"), "harness");
}

/// Six nightly seeds (1070, 1100, 1125, 1200, 1366, 1460) that failed
/// when a crash compensated an async-acked, unbarriered create while a
/// truncate of the file failed. Each must pass, and the seeds must still
/// reach `UncertainTrunc`'s "fully compensated" arm — which asserts that a
/// compensation record named the file's inode.
const COMPENSATED_TRUNCATE_SEEDS: [u64; 6] = [1070, 1100, 1125, 1200, 1366, 1460];

#[test]
fn compensated_truncate_seeds() {
    if std::env::var("CHAOS_SEED").is_ok() {
        return;
    }
    let mut compensated_truncates = 0;
    for seed in COMPENSATED_TRUNCATE_SEEDS {
        let shape = ClusterShape::default();
        let mut chaos = Chaos::new(seed, shape, false);
        chaos.run(&FaultPlan::generate(seed, shape, PLAN_LEN));
        compensated_truncates += chaos.compensated_truncates;
    }
    assert!(
        compensated_truncates > 0,
        "no regression seed reaches the compensated arm of an uncertain truncate"
    );
}

/// Wider sweep for nightly CI: `CHAOS_SEEDS=N` runs N extra seeds beyond
/// the tier-1 batches — every one of them — and fails at the end with one
/// repro line per failing seed. A no-op without the environment variable.
#[test]
fn chaos_extended_seeds() {
    if let Ok(n) = std::env::var("CHAOS_SEEDS") {
        let n: u64 = n.parse().expect("CHAOS_SEEDS must be a u64");
        let failed: Vec<String> = (1_000..1_000 + n)
            .filter_map(|seed| seed_failure(seed, false).map(|msg| repro_line(seed, &msg)))
            .collect();
        assert!(
            failed.is_empty(),
            "{} of {n} extended seeds failed:\n{}",
            failed.len(),
            failed.join("\n")
        );
    }
}

/// Invariant (e)'s checker must reject books that don't balance: a drop
/// that reached the always-on counters but not the registry (or vice
/// versa) is exactly the kind of silent skew it exists to catch.
#[test]
fn net_reconciliation_detects_unaccounted_drops() {
    // Registry saw 5 routed calls but the fabric counted 6: one call
    // escaped per-route accounting.
    let registry = cfs::Registry::new();
    registry
        .counter("net.calls{fabric=data,route=data.append}")
        .add(5);
    let snap = registry.snapshot();
    let err = panic::catch_unwind(|| {
        check_fabric_reconciliation(0, &snap, "data", 6, 0, DropCauses::default(), 0)
    })
    .expect_err("per-route undercount must fail reconciliation");
    assert!(
        panic_message(err.as_ref()).contains("invariant (e)"),
        "unexpected panic message"
    );

    // A drop whose cause was never classified: total 3, causes sum to 2.
    let registry = cfs::Registry::new();
    registry.counter("net.drops{fabric=meta,cause=hook}").add(2);
    let snap = registry.snapshot();
    let causes = DropCauses {
        hook: 2,
        ..DropCauses::default()
    };
    let err =
        panic::catch_unwind(|| check_fabric_reconciliation(0, &snap, "meta", 0, 3, causes, 0))
            .expect_err("unclassified drop must fail reconciliation");
    assert!(
        panic_message(err.as_ref()).contains("partition the drop total"),
        "unexpected panic message"
    );

    // Completion-model skew: the legacy books balance, but one submit
    // never completed — a token leaked in the delivery queue.
    let registry = cfs::Registry::new();
    registry
        .counter("net.calls{fabric=data,route=data.read}")
        .add(6);
    registry.counter("fabric.submits{fabric=data}").add(6);
    registry.counter("fabric.completions{fabric=data}").add(5);
    let snap = registry.snapshot();
    let err = panic::catch_unwind(|| {
        check_fabric_reconciliation(0, &snap, "data", 6, 0, DropCauses::default(), 0)
    })
    .expect_err("leaked completion token must fail reconciliation");
    assert!(
        panic_message(err.as_ref()).contains("drain the submits"),
        "unexpected panic message"
    );

    // An RPC still in flight at quiesce must trip the gauge identity.
    let registry = cfs::Registry::new();
    registry
        .counter("net.calls{fabric=data,route=data.read}")
        .add(6);
    registry.counter("fabric.submits{fabric=data}").add(6);
    registry.counter("fabric.completions{fabric=data}").add(6);
    registry.gauge("fabric.inflight{fabric=data}").add(1);
    let snap = registry.snapshot();
    let err = panic::catch_unwind(|| {
        check_fabric_reconciliation(0, &snap, "data", 6, 0, DropCauses::default(), 0)
    })
    .expect_err("an in-flight RPC at quiesce must fail reconciliation");
    assert!(
        panic_message(err.as_ref()).contains("still has RPCs in flight"),
        "unexpected panic message"
    );
}

/// A forced failure must print the `CHAOS_SEED=…` repro line, and the
/// printed seed must regenerate the exact schedule that failed.
#[test]
fn failing_seed_prints_replayable_repro() {
    const SEED: u64 = 7;
    let err = panic::catch_unwind(|| run_seed_inner(SEED, true)).expect_err("sabotaged run fails");
    let msg = panic_message(err.as_ref());
    assert!(
        msg.contains(&format!("CHAOS_SEED={SEED}")),
        "repro line missing from: {msg}"
    );
    let parsed: u64 = msg
        .split("CHAOS_SEED=")
        .nth(1)
        .unwrap()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert_eq!(
        FaultPlan::generate(parsed, ClusterShape::default(), PLAN_LEN),
        FaultPlan::generate(SEED, ClusterShape::default(), PLAN_LEN),
        "printed seed must regenerate the exact failing schedule"
    );
}

// ----- targeted self-healing tests ---------------------------------------
//
// Scripted kill scenarios for the §2.3.3 pipeline: permanently kill one
// node mid-workload, drive heartbeat rounds until the master detects it as
// dead and re-replicates its partitions, then prove full replication
// factor, replica alignment and read-your-committed-writes — with zero
// manual recovery calls from the test.

/// Chaos-style cluster for scripted kill tests: small packets so a few KB
/// exercises multi-packet appends and real (non-small-file) extents.
fn kill_test_cluster(seed: u64, meta_nodes: usize, repair_enabled: bool) -> (Cluster, Client) {
    let config = ClusterConfig {
        small_file_threshold: 1024,
        packet_size: 1024,
        repair_enabled,
        ..Default::default()
    };
    let cluster = ClusterBuilder::new()
        .meta_nodes(meta_nodes)
        .data_nodes(4)
        .master_replicas(3)
        .config(config)
        .seed(seed)
        .build()
        .expect("cluster build");
    cluster.create_volume("kill", 2, 4).expect("create volume");
    let client = cluster
        .mount_with_options(
            "kill",
            ClientOptions {
                seed: seed ^ 0x51DE_CA4E,
                pipeline_depth: 2,
                meta_sync_every: 1,
                ..Default::default()
            },
        )
        .expect("mount");
    (cluster, client)
}

/// One tracked file: handle, acknowledged bytes, frozen in-flight append.
struct KillFile {
    handle: FileHandle,
    base: Vec<u8>,
    pending: Vec<u8>,
}

fn write_kill_files(client: &Client, count: usize) -> Vec<KillFile> {
    let root = client.root();
    (0..count)
        .map(|i| {
            let nm = format!("kill-f{i}");
            client.create(root, &nm).expect("create");
            let mut handle = client.open(root, &nm).expect("open");
            let data = pattern_bytes(i, 0, 4_000 + i * 777, 0x40 + i as u8);
            client.write(&mut handle, &data).expect("write");
            client.fsync(&mut handle).expect("fsync");
            KillFile {
                handle,
                base: data,
                pending: Vec::new(),
            }
        })
        .collect()
}

/// Mid-kill workload: appends may fail while the dead node still sits in
/// partition chains — a failure freezes the slot (§2.2.5 uncertainty)
/// until the post-repair read resolves how much landed.
fn append_mid_kill(client: &Client, files: &mut [KillFile]) {
    for (i, f) in files.iter_mut().enumerate() {
        let data = pattern_bytes(i, f.base.len(), 1_500 + i * 333, 0x90 + i as u8);
        f.handle.seek(f.handle.size());
        match client.write(&mut f.handle, &data) {
            Ok(_) => f.base.extend_from_slice(&data),
            Err(_) => f.pending = data,
        }
    }
}

/// Heartbeat rounds up to the dead threshold: failure detection only —
/// whether repair replans afterwards depends on `repair_enabled`.
fn drive_detection(cluster: &Cluster) {
    for _ in 0..cfs::DEAD_AFTER_MISSED {
        cluster.heartbeat().expect("heartbeat");
        cluster.settle(200);
    }
}

/// Detection plus budgeted repair sweeps, until the replication audit
/// reports every partition back at full factor.
fn drive_repair(cluster: &Cluster, client: &Client) {
    drive_detection(cluster);
    for _ in 0..8 {
        let clean = client
            .fsck(false)
            .map(|r| r.under_replicated.is_empty())
            .unwrap_or(false);
        if clean {
            cluster.settle(200);
            return;
        }
        cluster.heartbeat().expect("heartbeat");
        cluster.settle(300);
    }
    panic!("repair failed to restore the replication factor");
}

/// Post-repair checks shared by the kill tests: every file reads back its
/// committed bytes (plus at most a prefix of a frozen append), and new
/// writes land — the volume is fully read-write again.
fn verify_files_after_repair(seed: u64, client: &Client, files: &mut [KillFile]) {
    client.refresh_partition_table().expect("refresh");
    for (i, f) in files.iter_mut().enumerate() {
        client.fsync(&mut f.handle).expect("post-repair fsync");
        let r = client
            .read_at(&f.handle, 0, f.handle.size() as usize)
            .expect("post-repair read");
        check_read(seed, i, "after repair", &r, &f.base, &f.pending);
        f.base = r;
        f.pending.clear();

        let extra = pattern_bytes(i, f.base.len(), 900, 0xC0 + i as u8);
        f.handle.seek(f.handle.size());
        client
            .write(&mut f.handle, &extra)
            .expect("post-repair write must succeed");
        f.base.extend_from_slice(&extra);
        client.fsync(&mut f.handle).expect("fsync");
        let r = client
            .read_at(&f.handle, 0, f.handle.size() as usize)
            .expect("read");
        assert_eq!(r, f.base, "post-repair content (file {i}, seed {seed})");
    }
}

/// Replica alignment across the live members of every data partition
/// (the targeted tests run no manual recovery — the join protocol itself
/// must leave replicas aligned).
fn assert_live_replicas_aligned(cluster: &Cluster) {
    let faults = cluster.faults();
    let datas: Vec<_> = cluster
        .data_nodes()
        .iter()
        .filter(|d| !faults.is_down(d.id()))
        .collect();
    let by_id = |id: NodeId| {
        datas
            .iter()
            .find(|d| d.id() == id)
            .unwrap_or_else(|| panic!("no live data node {id}"))
    };
    let mut seen = BTreeSet::new();
    for node in &datas {
        for (pid, members) in node.hosted_partitions() {
            if !seen.insert(pid) {
                continue;
            }
            let manifest = by_id(members[0])
                .extent_manifest(pid)
                .expect("head manifest");
            for info in &manifest {
                assert_eq!(
                    info.size, info.committed,
                    "head of {pid}/{:?} not truncated to its committed watermark",
                    info.extent
                );
                for &peer in &members[1..] {
                    let pm = by_id(peer).extent_manifest(pid).expect("replica manifest");
                    let Some(pe) = pm.iter().find(|e| e.extent == info.extent) else {
                        assert_eq!(
                            info.committed, 0,
                            "{pid}/{:?} has committed bytes but is missing on {peer}",
                            info.extent
                        );
                        continue;
                    };
                    assert_eq!(
                        pe.size, info.committed,
                        "{pid}/{:?} length on replica {peer}",
                        info.extent
                    );
                    assert_eq!(
                        pe.crc, info.crc,
                        "{pid}/{:?} crc on replica {peer}",
                        info.extent
                    );
                }
            }
        }
    }
}

/// The `master.repair.*` counters must reconcile exactly with the kill:
/// one decommission + one replacement + one confirmed join per partition
/// the dead node hosted.
fn assert_repair_counters(cluster: &Cluster, expected_partitions: usize) {
    let snap = cluster.metrics_snapshot();
    let n = expected_partitions as u64;
    assert!(
        snap.counter("master.repair.ticks") >= 1,
        "no repair sweep ran"
    );
    assert_eq!(
        snap.counter("master.repair.decommissions"),
        n,
        "decommissions vs partitions the dead node hosted"
    );
    assert_eq!(
        snap.counter("master.repair.replacements"),
        n,
        "replacements vs partitions the dead node hosted"
    );
    assert_eq!(
        snap.counter("master.repair.confirms"),
        n,
        "confirmed joins vs partitions the dead node hosted"
    );
}

/// Kill the PB chain head (members[0], §2.7.1) of a partition the
/// workload wrote to; self-healing must promote a survivor and
/// re-replicate onto the spare node.
#[test]
fn self_healing_survives_chain_head_kill() {
    const SEED: u64 = 0xD1E;
    let (mut cluster, client) = kill_test_cluster(SEED, 3, true);
    let mut files = write_kill_files(&client, 4);

    let pid = files[0].handle.extents()[0].partition_id;
    let members = client.data_partition_members(pid).expect("members");
    let victim = members[0];
    let victim_idx = cluster
        .data_nodes()
        .iter()
        .position(|d| d.id() == victim)
        .expect("victim index");
    let victim_partitions = cluster.data_nodes()[victim_idx].hosted_partitions().len();
    assert!(victim_partitions > 0, "victim must host partitions");

    cluster.crash_data_node(victim_idx).expect("kill data node");
    append_mid_kill(&client, &mut files);

    drive_repair(&cluster, &client);
    verify_files_after_repair(SEED, &client, &mut files);
    assert_live_replicas_aligned(&cluster);
    assert_repair_counters(&cluster, victim_partitions);
    let report = client.fsck(false).expect("fsck");
    assert!(
        report.under_replicated.is_empty(),
        "{:?}",
        report.under_replicated
    );
}

/// Kill a raft follower (not the chain head, not the partition's current
/// raft leader): the surviving chain keeps serving, and repair restores
/// the third replica.
#[test]
fn self_healing_survives_raft_follower_kill() {
    const SEED: u64 = 0xF0110;
    let (mut cluster, client) = kill_test_cluster(SEED, 3, true);
    let mut files = write_kill_files(&client, 4);

    let pid = files[0].handle.extents()[0].partition_id;
    let members = client.data_partition_members(pid).expect("members");
    cluster.hub().pump_until(
        || {
            cluster
                .data_nodes()
                .iter()
                .any(|d| d.is_raft_leader_for(pid))
        },
        20_000,
    );
    let raft_leader = cluster
        .data_nodes()
        .iter()
        .find(|d| d.is_raft_leader_for(pid))
        .map(|d| d.id());
    let victim = members[1..]
        .iter()
        .copied()
        .find(|&m| Some(m) != raft_leader)
        .expect("a follower that is neither head nor raft leader");
    let victim_idx = cluster
        .data_nodes()
        .iter()
        .position(|d| d.id() == victim)
        .expect("victim index");
    let victim_partitions = cluster.data_nodes()[victim_idx].hosted_partitions().len();

    cluster.crash_data_node(victim_idx).expect("kill data node");
    append_mid_kill(&client, &mut files);

    drive_repair(&cluster, &client);
    verify_files_after_repair(SEED, &client, &mut files);
    assert_live_replicas_aligned(&cluster);
    assert_repair_counters(&cluster, victim_partitions);
}

/// Kill a meta replica host (4 meta nodes, so a spare exists): repair
/// re-replicates the meta partitions via snapshot install + log replay,
/// and the namespace stays fully available.
#[test]
fn self_healing_survives_meta_host_kill() {
    const SEED: u64 = 0x3E7A;
    let (mut cluster, client) = kill_test_cluster(SEED, 4, true);
    let mut files = write_kill_files(&client, 4);

    let victim_idx = cluster
        .meta_nodes()
        .iter()
        .position(|m| !m.partition_ids().is_empty())
        .expect("a meta node hosting partitions");
    let victim_partitions = cluster.meta_nodes()[victim_idx].partition_ids().len();

    cluster.crash_meta_node(victim_idx).expect("kill meta node");
    append_mid_kill(&client, &mut files);

    drive_repair(&cluster, &client);
    verify_files_after_repair(SEED, &client, &mut files);
    assert_repair_counters(&cluster, victim_partitions);
    // The replacement caught up to the survivors, which kept their trees
    // through the membership change: one state, no orphaned inodes.
    check_meta_snapshot_replay(&cluster, SEED);
    let report = client.fsck(false).expect("fsck");
    assert_eq!(report.orphans_found, 0, "{report:?}");

    // The namespace is fully writable again: a fresh create + lookup.
    let root = client.root();
    client
        .create(root, "post-repair")
        .expect("create after meta repair");
    assert!(client.lookup(root, "post-repair").is_ok());
}

/// The forced-failure twin: with repair disabled the same kill must leave
/// the replication audit dirty — proving invariant (f) actually fires and
/// the clean results above are the repair pipeline's doing.
#[test]
fn replication_audit_fires_when_repair_disabled() {
    const SEED: u64 = 0xDEAD;
    let (mut cluster, client) = kill_test_cluster(SEED, 3, false);
    let _files = write_kill_files(&client, 2);

    let victim_idx = cluster
        .data_nodes()
        .iter()
        .position(|d| !d.hosted_partitions().is_empty())
        .expect("a data node hosting partitions");
    let victim = cluster.data_nodes()[victim_idx].id();

    cluster.crash_data_node(victim_idx).expect("kill data node");
    drive_detection(&cluster);

    let report = client.fsck(false).expect("fsck");
    assert!(
        !report.under_replicated.is_empty(),
        "audit must flag partitions hosted by the dead node"
    );
    assert!(
        report
            .under_replicated
            .iter()
            .any(|u| u.missing.contains(&victim)),
        "audit must name the dead member: {:?}",
        report.under_replicated
    );
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("master.repair.ticks"), 0, "repair is disabled");
    assert_eq!(snap.counter("master.repair.replacements"), 0);
}
