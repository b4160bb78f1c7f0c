//! Behavioral-budget regression tests: lock in the data-path pipelining
//! wins (windowed appends, batched meta sync) and the metadata hot-path
//! wins (Raft group commit, lease-protected reads, cached leader routing)
//! with *exact* metric budgets, so a refactor that quietly serializes the
//! window, re-chattifies the meta sync, un-batches the commit path, or
//! silently falls back to quorum reads fails loudly.
//!
//! The budgets come straight from the client design (§2.7.1):
//!  * `n` packet appends at `meta_sync_every = k` issue exactly
//!    `ceil(n/k) + 1` meta sync RPCs (cadence flushes + the close flush,
//!    plus the small-file write's unconditional sync);
//!  * at most `pipeline_depth` append packets are ever in flight;
//!  * each 3-replica chain append costs exactly 3 fabric calls (client →
//!    head, head → middle, middle → tail).
//!
//! The storage-engine recovery budget pins the LSM design down the same
//! way: a whole-cluster restart after a long op history replays only the
//! WAL records appended since each engine's last memtable flush — never
//! the total history — because a flush persists its records into sorted
//! runs and truncates the WAL behind them.
//!
//! The extent append budget pins what the engine is *not* asked to hold:
//! a replica's share of a 1 MiB sequential write is at most one WAL record
//! per packet (the watermark row) and no memtable flush, because the bytes
//! go to the extent file.

use std::sync::Arc;
use std::time::Duration;

use cfs::{
    ClientOptions, Cluster, ClusterBuilder, ClusterConfig, ExtentId, FileType, MetaCommand,
    MetaNode, MetaRequest, MetaResponse, MetricsSnapshot, NodeId, PartitionId, VolumeId,
};
use cfs_data::DataPartitionReplica;
use cfs_kvwal::{LsmEngine, LsmOptions, TypedCf};
use cfs_types::testutil::TempDir;

const PACKET: u64 = 4096;
const DEPTH: u32 = 4;
const SYNC_EVERY: u32 = 32;
const PACKETS: u64 = 100;
const REPLICAS: u64 = 3;
const CREATES: u64 = 32;
const MAX_COMMIT_ROUNDS: u64 = 4;
const STATS: u64 = 50;

/// The append-path budget over one measured window of work. Factored out
/// so the forced-failure test below can prove it actually rejects
/// perturbed counters.
fn check_append_budget(window: &MetricsSnapshot, packets: u64, syncs: u64, depth: i64) {
    let sent = window.counter("client.packets_sent");
    assert!(
        sent == packets,
        "append budget regression: {sent} packets sent, expected exactly {packets}"
    );
    let m = window.counter("client.meta_syncs");
    assert!(
        m == syncs,
        "append budget regression: {m} meta syncs, expected exactly {syncs}"
    );
    if let Some(g) = window.gauge("client.inflight_packets") {
        assert!(
            g.high_water <= depth,
            "append budget regression: {} packets in flight, window allows {depth}",
            g.high_water
        );
    }
}

#[test]
fn pipelined_append_meta_sync_budget() {
    let config = ClusterConfig {
        packet_size: PACKET,
        small_file_threshold: PACKET,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new().config(config).build().unwrap();
    cluster.create_volume("budget", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "budget",
            ClientOptions {
                pipeline_depth: DEPTH,
                meta_sync_every: SYNC_EVERY,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    // Give every append a real round trip so window packets genuinely
    // overlap (the gauge's high-water mark must still respect the depth).
    cluster.set_data_latency(Duration::from_millis(2));

    let root = client.root();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();

    let before = cluster.metrics_snapshot();

    // One small-file write (aggregated-extent path, syncs immediately),
    // then 100 packets appended as 25 window-sized writes.
    client.write(&mut fh, &vec![1u8; 1024]).unwrap();
    for i in 0..(PACKETS / DEPTH as u64) {
        let body = vec![i as u8; (PACKET * DEPTH as u64) as usize];
        client.write(&mut fh, &body).unwrap();
    }
    client.close(&mut fh).unwrap();

    cluster.set_data_latency(Duration::ZERO);
    let window = cluster.metrics_snapshot().diff(&before);

    // floor(100/32) = 3 cadence flushes + 1 close flush + 1 small-file
    // sync = ceil(100/32) + 1.
    let expected_syncs = PACKETS.div_ceil(SYNC_EVERY as u64) + 1;
    check_append_budget(&window, PACKETS, expected_syncs, DEPTH as i64);

    // The window genuinely pipelined: strictly fewer blocking waits than
    // packets, and more than one packet actually in flight at once.
    assert_eq!(
        window.counter("client.window_waits"),
        PACKETS / DEPTH as u64
    );
    let inflight = window.gauge("client.inflight_packets").unwrap();
    assert!(
        inflight.high_water >= 2,
        "no overlap observed: high water {}",
        inflight.high_water
    );

    // Chain fan-out is visible per route: every packet costs exactly one
    // fabric call per replica (client → head → middle → tail), and the
    // small-file write forwards down its chain as plain appends (the two
    // follower hops).
    assert_eq!(
        window.counter("net.calls{fabric=data,route=data.append}"),
        PACKETS * REPLICAS + (REPLICAS - 1)
    );

    // The registry view and the legacy per-client stats agree.
    let stats = client.data_path_stats();
    assert_eq!(stats.packets_sent, PACKETS);
    assert_eq!(stats.meta_syncs, expected_syncs);
}

#[test]
fn append_budget_check_rejects_perturbed_counters() {
    // Prove the budget assertion actually fails when the counters drift:
    // one extra meta sync (a chattier client) must trip it.
    let registry = cfs::Registry::new();
    registry.counter("client.packets_sent").add(PACKETS);
    registry.counter("client.meta_syncs").add(6); // budget says 5
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_append_budget(&snap, PACKETS, 5, DEPTH as i64))
        .expect_err("perturbed meta-sync count must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("append budget regression"),
        "unexpected panic message: {msg}"
    );

    // And an over-deep window must trip the in-flight bound.
    let registry = cfs::Registry::new();
    registry.counter("client.packets_sent").add(PACKETS);
    registry.counter("client.meta_syncs").add(5);
    registry
        .gauge("client.inflight_packets")
        .add(DEPTH as i64 + 1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_append_budget(&snap, PACKETS, 5, DEPTH as i64))
        .expect_err("over-deep window must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("packets in flight"),
        "unexpected panic message: {msg}"
    );
}

/// The event-fabric budget: `rpcs` submitted RPCs must ride the
/// scheduled-delivery queue — every token drained (submits ==
/// completions), and the in-flight high water bounded by the append
/// window plus the chain's nested forwards (head → middle → tail hops
/// count as in-flight while the window is open).
fn check_fabric_budget(window: &MetricsSnapshot, rpcs: u64, max_inflight: i64) {
    let submits = window.counter("fabric.submits{fabric=data}");
    let completions = window.counter("fabric.completions{fabric=data}");
    assert!(
        submits >= rpcs,
        "fabric budget regression: only {submits} submits, expected at least {rpcs}"
    );
    assert!(
        submits == completions,
        "fabric budget regression: {submits} submits but {completions} \
         completions — tokens leaked in the delivery queue"
    );
    if let Some(g) = window.gauge("fabric.inflight{fabric=data}") {
        assert!(
            g.high_water <= max_inflight,
            "fabric budget regression: {} RPCs in flight at once, window + \
             chain allows {max_inflight}",
            g.high_water
        );
        assert!(
            g.value == 0,
            "fabric budget regression: {} RPCs still in flight after drain",
            g.value
        );
    }
}

#[test]
fn fabric_completion_budget() {
    const FABRIC_PACKETS: u64 = 1_024;
    let config = ClusterConfig {
        packet_size: PACKET,
        small_file_threshold: PACKET,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new().config(config).build().unwrap();
    cluster.create_volume("budget-fabric", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "budget-fabric",
            ClientOptions {
                pipeline_depth: DEPTH,
                meta_sync_every: SYNC_EVERY,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    cluster.set_data_latency(Duration::from_millis(1));

    let root = client.root();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();

    let before = cluster.metrics_snapshot();
    let virtual_before = cluster.virtual_now_ns();
    for i in 0..(FABRIC_PACKETS / DEPTH as u64) {
        let body = vec![i as u8; (PACKET * DEPTH as u64) as usize];
        client.write(&mut fh, &body).unwrap();
    }
    client.close(&mut fh).unwrap();
    cluster.set_data_latency(Duration::ZERO);
    let window = cluster.metrics_snapshot().diff(&before);

    // >1k packet RPCs rode the queue: depth-deep window, two extra chain
    // hops while the head/middle forward.
    check_fabric_budget(
        &window,
        FABRIC_PACKETS,
        DEPTH as i64 + (REPLICAS as i64 - 1),
    );

    // The latency was charged to the virtual clock, not the wall clock:
    // 1024 packets × 1ms minimum (chain hops add more).
    let virtual_elapsed = cluster.virtual_now_ns() - virtual_before;
    assert!(
        virtual_elapsed >= FABRIC_PACKETS * 1_000_000,
        "virtual clock only advanced {virtual_elapsed}ns"
    );
}

#[test]
fn fabric_budget_check_rejects_perturbed_counters() {
    // A leaked completion token must trip the drain identity.
    let registry = cfs::Registry::new();
    registry.counter("fabric.submits{fabric=data}").add(1_024);
    registry
        .counter("fabric.completions{fabric=data}")
        .add(1_023);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_fabric_budget(&snap, 1_024, 6))
        .expect_err("a leaked token must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("tokens leaked"),
        "unexpected panic message: {msg}"
    );

    // An over-deep in-flight high water must trip the window bound.
    let registry = cfs::Registry::new();
    registry.counter("fabric.submits{fabric=data}").add(1_024);
    registry
        .counter("fabric.completions{fabric=data}")
        .add(1_024);
    registry.gauge("fabric.inflight{fabric=data}").add(7);
    registry.gauge("fabric.inflight{fabric=data}").sub(7);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_fabric_budget(&snap, 1_024, 6))
        .expect_err("an over-deep in-flight high water must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("in flight at once"),
        "unexpected panic message: {msg}"
    );
}

/// The meta-commit budget (§2.1.3 hot path): `creates` concurrent writes
/// on one partition must coalesce into at most `max_rounds` Raft rounds.
fn check_meta_commit_budget(window: &MetricsSnapshot, creates: u64, max_rounds: u64) {
    let rounds = window.counter("raft.proposals");
    assert!(
        rounds <= max_rounds,
        "meta commit budget regression: {creates} concurrent creates took \
         {rounds} raft rounds, budget allows {max_rounds}"
    );
    let frames = window.counter("raft.batch.commits");
    assert!(
        (1..=max_rounds).contains(&frames),
        "meta commit budget regression: {frames} group-commit frames for \
         {creates} creates, budget allows 1..={max_rounds}"
    );
}

/// The lease-read budget: a steady-state stat loop on a healthy leader
/// serves every read from the lease fast path — zero quorum barriers.
fn check_lease_read_budget(window: &MetricsSnapshot, reads: u64) {
    let quorum = window.counter("meta.quorum_reads");
    assert!(
        quorum == 0,
        "lease read budget regression: {quorum} quorum reads in a \
         steady-state stat loop, budget allows 0"
    );
    let lease = window.counter("meta.lease_reads");
    assert!(
        lease == reads,
        "lease read budget regression: {lease} lease reads for {reads} \
         stats, expected exactly {reads}"
    );
}

/// The async ack budget (DESIGN §12): a storm of async metadata ops is
/// acked straight from the durable intent journal — ZERO consensus
/// rounds on the ack path. The deferred group commit pays the rounds
/// later, behind the strong barrier.
fn check_meta_async_ack_budget(window: &MetricsSnapshot, acks: u64) {
    let rounds = window.counter("raft.proposals");
    assert!(
        rounds == 0,
        "async ack budget regression: {rounds} raft rounds on the ack path \
         for {acks} journal-acked ops, budget allows 0"
    );
    let a = window.counter("meta.async.acks");
    assert!(
        a == acks,
        "async ack budget regression: {a} journal acks for {acks} async \
         sub-ops, expected exactly {acks}"
    );
    let fb = window.counter("meta.async.sync_fallbacks");
    assert!(
        fb == 0,
        "async ack budget regression: {fb} sync fallbacks in a clean \
         window, budget allows 0"
    );
}

/// The async barrier budget: the strong barrier drains every journal-acked
/// sub-op of the storm in exactly one group-commit proposal.
fn check_meta_async_barrier_budget(window: &MetricsSnapshot, sub_ops: u64) {
    let rounds = window.counter("raft.proposals");
    assert!(
        rounds == 1,
        "async barrier budget regression: {rounds} raft rounds to drain \
         {sub_ops} journal-acked sub-ops, expected exactly 1"
    );
}

/// The (single) meta partition's current leader replica.
fn meta_partition_leader(cluster: &Cluster) -> (PartitionId, Arc<MetaNode>) {
    for n in cluster.meta_nodes() {
        if let Ok(MetaResponse::Report(infos)) = n.handle(MetaRequest::Report) {
            for info in infos {
                if info.is_leader {
                    return (info.partition_id, n.clone());
                }
            }
        }
    }
    panic!("no meta partition leader");
}

#[test]
fn meta_group_commit_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget-meta", 1, 4).unwrap();
    cluster.settle(200);
    let (pid, leader) = meta_partition_leader(&cluster);

    let before = cluster.metrics_snapshot();
    // Queue all 32 creates before any raft round runs — the exact shape
    // of a burst of concurrent client writes arriving within one round.
    let tickets: Vec<u64> = (0..CREATES)
        .map(|i| {
            leader
                .enqueue_write(
                    pid,
                    &MetaCommand::CreateInode {
                        file_type: FileType::File,
                        link_target: vec![],
                        now_ns: i,
                    },
                )
                .unwrap()
        })
        .collect();
    cluster.settle(200);
    for t in tickets {
        leader
            .take_write_result(t)
            .expect("ticket resolved")
            .expect("create applied");
    }

    let window = cluster.metrics_snapshot().diff(&before);
    check_meta_commit_budget(&window, CREATES, MAX_COMMIT_ROUNDS);
    assert_eq!(
        window.counter("raft.batch.entries"),
        CREATES * REPLICAS,
        "every sub-command applied on all replicas"
    );
}

#[test]
fn meta_async_ack_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget-async", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "budget-async",
            ClientOptions {
                async_meta: true,
                ..Default::default()
            },
        )
        .unwrap();
    let root = client.root();
    cluster.settle(200);

    // A 32-create storm: every create is two async sub-ops (inode +
    // dentry), both acked from the intent journal without a single
    // consensus round — the sim clock only advances on pumps, so any
    // raft proposal in this window would be a regression.
    let before = cluster.metrics_snapshot();
    for i in 0..CREATES {
        client.create(root, &format!("af{i}")).unwrap();
    }
    let at_ack = cluster.metrics_snapshot().diff(&before);
    check_meta_async_ack_budget(&at_ack, 2 * CREATES);
    assert_eq!(
        client.async_pending_count(),
        2 * CREATES as usize,
        "every acked sub-op still owes its barrier"
    );

    // The strong barrier pays the deferred round: one group commit drains
    // every sub-op, nothing is compensated, and every file is durable.
    client.drain_async_commits().unwrap();
    let after = cluster.metrics_snapshot().diff(&before);
    check_meta_async_barrier_budget(&after, 2 * CREATES);
    assert_eq!(after.counter("meta.async.completions"), 2 * CREATES);
    assert_eq!(after.counter("meta.async.compensations"), 0);
    assert_eq!(client.async_pending_count(), 0);
    for i in 0..CREATES {
        client.lookup(root, &format!("af{i}")).unwrap();
    }
}

#[test]
fn lease_read_and_leader_cache_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget-lease", 1, 4).unwrap();
    let client = cluster.mount("budget-lease").unwrap();
    let root = client.root();
    let ino = client.create(root, "f").unwrap().id;
    // Let the leader catch up (applied == commit) and renew its lease so
    // the loop below measures the steady state, not the warm-up.
    cluster.settle(200);

    let before = cluster.metrics_snapshot();
    for _ in 0..STATS {
        client.stat(ino).unwrap();
    }
    let window = cluster.metrics_snapshot().diff(&before);
    check_lease_read_budget(&window, STATS);

    // Leader caching: every stat is exactly one fabric call, straight to
    // the cached partition leader — no NotLeader redirects, no probing.
    assert_eq!(
        window.counter("net.calls{fabric=meta,route=meta.read}"),
        STATS
    );
    // Client and servers agree on what was served (the chaos harness
    // checks the same identity after every fault schedule).
    assert_eq!(window.counter("client.meta_reads_served"), STATS);
}

#[test]
fn meta_hot_path_budget_checks_reject_perturbed_counters() {
    // An un-batched commit path (one round per create) must trip.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(CREATES);
    registry.counter("raft.batch.commits").add(CREATES);
    let snap = registry.snapshot();
    let err =
        std::panic::catch_unwind(|| check_meta_commit_budget(&snap, CREATES, MAX_COMMIT_ROUNDS))
            .expect_err("un-batched commit path must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("meta commit budget regression"),
        "unexpected panic message: {msg}"
    );

    // A single quorum fallback in the steady-state loop must trip.
    let registry = cfs::Registry::new();
    registry.counter("meta.lease_reads").add(STATS - 1);
    registry.counter("meta.quorum_reads").add(1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_lease_read_budget(&snap, STATS))
        .expect_err("quorum fallback in steady state must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lease read budget regression"),
        "unexpected panic message: {msg}"
    );

    // A consensus round sneaking onto the async ack path must trip.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(1);
    registry.counter("meta.async.acks").add(2 * CREATES);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_meta_async_ack_budget(&snap, 2 * CREATES))
        .expect_err("a raft round on the ack path must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("async ack budget regression"),
        "unexpected panic message: {msg}"
    );

    // A silent sync fallback (op served synchronously, not journaled)
    // must trip too — the storm would no longer measure the async path.
    let registry = cfs::Registry::new();
    registry.counter("meta.async.acks").add(2 * CREATES - 1);
    registry.counter("meta.async.sync_fallbacks").add(1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_meta_async_ack_budget(&snap, 2 * CREATES))
        .expect_err("a sync fallback inside the storm must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("async ack budget regression"),
        "unexpected panic message: {msg}"
    );

    // A barrier that proposes each sub-op on its own must trip.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(2 * CREATES);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_meta_async_barrier_budget(&snap, 2 * CREATES))
        .expect_err("one proposal per sub-op must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("async barrier budget regression"),
        "unexpected panic message: {msg}"
    );
}

// ----- data lease-read budget (§2.7.4) -----------------------------------

/// Cold-mount reads of a never-overwritten file in the data budget.
const DATA_READS: u64 = 16;

/// The data lease-read budget: in steady state every data read is served
/// at the partition's Raft leader under its lease — zero barriers — and
/// the leaders counted exactly the reads the client took as served.
fn check_data_lease_read_budget(window: &MetricsSnapshot, reads: u64) {
    let quorum = window.counter("data.quorum_reads");
    assert!(
        quorum == 0,
        "data lease read budget regression: {quorum} quorum reads in a \
         steady-state read loop, budget allows 0"
    );
    let lease = window.counter("data.lease_reads");
    assert!(
        lease == reads,
        "data lease read budget regression: {lease} lease reads for {reads} \
         reads served, expected exactly {reads}"
    );
}

/// `DATA_READS` 4 KiB reads of distinct blocks of a settled 1 MiB file
/// through one cold mount with the read cache off.
fn data_read_window(raft_config: cfs::RaftConfig) -> MetricsSnapshot {
    let cluster = ClusterBuilder::new()
        .raft_config(raft_config)
        .build()
        .unwrap();
    cluster.create_volume("budget-data", 1, 1).unwrap();
    let writer = cluster.mount("budget-data").unwrap();
    let root = writer.root();
    writer.create(root, "f").unwrap();
    let mut fh = writer.open(root, "f").unwrap();
    let body: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    writer.write(&mut fh, &body).unwrap();
    writer.close(&mut fh).unwrap();
    cluster.settle(200);
    // The chain head — a cold mount's first try — campaigned at creation
    // and leads, so no read is redirected.
    let (pid, members) = cluster.data_nodes()[0].hosted_partitions()[0].clone();
    let head = cluster.data_nodes().iter().find(|n| n.id() == members[0]);
    assert!(head.is_some_and(|n| n.is_raft_leader_for(pid)));

    let cold = cluster
        .mount_with_options(
            "budget-data",
            ClientOptions {
                read_cache_capacity: 0,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let fh = cold.open(root, "f").unwrap();
    let before = cluster.metrics_snapshot();
    for i in 0..DATA_READS as usize {
        let at = i * 4096 * 7;
        let got = cold.read_at(&fh, at as u64, 4096).unwrap();
        assert_eq!(got, body[at..at + 4096]);
    }
    cluster.metrics_snapshot().diff(&before)
}

#[test]
fn data_lease_read_budget() {
    let window = data_read_window(cfs::RaftConfig::default());
    check_data_lease_read_budget(&window, DATA_READS);
    assert_eq!(window.counter("client.data_reads_served"), DATA_READS);
    // `net.data_calls_per_read` is 1: each read is one call, straight to
    // the leader.
    assert_eq!(
        window.counter("net.calls{fabric=data,route=data.read}"),
        DATA_READS
    );
}

/// The forced-failure twin: with the lease off every data read passes a
/// ReadIndex barrier, and the budget check must reject the window.
#[test]
fn data_lease_read_budget_fires_when_leases_are_off() {
    let config = cfs::RaftConfig {
        lease_ticks: 0,
        ..cfs::RaftConfig::default()
    };
    let window = data_read_window(config);
    assert_eq!(window.counter("data.quorum_reads"), DATA_READS);
    let err = std::panic::catch_unwind(|| check_data_lease_read_budget(&window, DATA_READS))
        .expect_err("quorum reads must fail the data lease read budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("data lease read budget regression"),
        "unexpected panic message: {msg}"
    );
}

// ----- workflow RPC table (§2.6, DESIGN §12) ------------------------------

/// What one metadata workflow costs: client→meta calls per route, sync
/// fallbacks the leaders served, and consensus rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkflowRpcs {
    reads: u64,
    writes: u64,
    write_asyncs: u64,
    fallbacks: u64,
    proposals: u64,
}

const fn rpcs(
    reads: u64,
    writes: u64,
    write_asyncs: u64,
    fallbacks: u64,
    proposals: u64,
) -> WorkflowRpcs {
    WorkflowRpcs {
        reads,
        writes,
        write_asyncs,
        fallbacks,
        proposals,
    }
}

fn check_workflow_rpcs(op: &str, mode: &str, window: &MetricsSnapshot, want: WorkflowRpcs) {
    let calls = |route: &str| window.counter(&format!("net.calls{{fabric=meta,route={route}}}"));
    let got = WorkflowRpcs {
        reads: calls("meta.read"),
        writes: calls("meta.write"),
        write_asyncs: calls("meta.write_async"),
        fallbacks: window.counter("meta.async.sync_fallbacks"),
        proposals: window.counter("raft.proposals"),
    };
    assert!(
        got == want,
        "workflow rpc regression: {op} with async_meta {mode} cost {got:?}, \
         expected exactly {want:?}"
    );
}

/// How a mount's workflow steps are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepMode {
    /// `async_meta` off: every step is a replicated `Write`.
    Off,
    /// `async_meta` on, every step finds a clean window and is acked
    /// from the intent journal.
    Clean,
    /// `async_meta` on, but a write already waits in the group-commit
    /// queue whenever a step arrives, so every leader declines.
    Dirty,
}

/// The workflows, in the order the table runs them, with their
/// exact cost per mode `[Off, Clean, Dirty]`. A declined step is served
/// synchronously inside its own RPC, so a Dirty row makes as many
/// client→meta calls as its Off row. The reads in `rmdir` are its
/// lookup (the creates since `mkdir` invalidated the cached entry) and
/// its emptiness check. Only a journaled dentry delete names its target
/// up front, so only under `async_meta` does `unlink` look the name up:
/// from the client cache for the fresh link, from the meta node for the
/// original name.
const WORKFLOW_TABLE: [(&str, [WorkflowRpcs; 3]); 6] = [
    (
        "mkdir",
        [
            rpcs(0, 2, 0, 0, 2),
            rpcs(0, 0, 2, 0, 0),
            rpcs(0, 0, 2, 2, 2),
        ],
    ),
    (
        "create",
        [
            rpcs(0, 2, 0, 0, 2),
            rpcs(0, 0, 2, 0, 0),
            rpcs(0, 0, 2, 2, 2),
        ],
    ),
    // nlink++ is a synchronous write in every mode.
    (
        "link",
        [
            rpcs(0, 2, 0, 0, 2),
            rpcs(0, 1, 1, 0, 1),
            rpcs(0, 1, 1, 1, 2),
        ],
    ),
    // An acked dentry delete defers nlink-- to the barrier; a committed
    // one runs it inline.
    (
        "unlink",
        [
            rpcs(0, 2, 0, 0, 2),
            rpcs(0, 0, 1, 0, 0),
            rpcs(0, 1, 1, 1, 2),
        ],
    ),
    // Dropping the last name costs the same: the nlink-- that reaches
    // the threshold marks the inode itself, no third round does.
    (
        "unlink-last",
        [
            rpcs(0, 2, 0, 0, 2),
            rpcs(1, 0, 1, 0, 0),
            rpcs(1, 1, 1, 1, 2),
        ],
    ),
    // rmdir's steps are synchronous writes in every mode.
    (
        "rmdir",
        [
            rpcs(2, 2, 0, 0, 2),
            rpcs(2, 2, 0, 0, 2),
            rpcs(2, 2, 0, 0, 2),
        ],
    ),
];

/// Run the workflows on a fresh single-partition cluster, each in its
/// own quiesced window.
fn run_workflow_table(mode: StepMode) -> Vec<MetricsSnapshot> {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("wf", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "wf",
            ClientOptions {
                async_meta: mode != StepMode::Off,
                ..Default::default()
            },
        )
        .unwrap();
    if mode == StepMode::Dirty {
        // Hold every window dirty: put a write that changes nothing into
        // the leader's group-commit queue just before each step arrives.
        for node in cluster.meta_nodes() {
            let n = node.clone();
            cluster.fabrics().meta.register(
                n.id(),
                Arc::new(move |_from, req: MetaRequest| {
                    if let MetaRequest::WriteAsync { partition, .. } = &req {
                        let noop = MetaCommand::EvictIf {
                            inode: cfs::InodeId(u64::MAX),
                            ctime_ns: 0,
                        };
                        let _ = n.enqueue_write(*partition, &noop);
                    }
                    n.handle(req)
                }),
            );
        }
    }
    let root = client.root();
    // Find the partition's leader outside the measured windows.
    client.stat(root).unwrap();
    let mut file = None;
    let mut windows = Vec::new();
    for (op, _) in WORKFLOW_TABLE {
        // Quiesce: no intent, queue entry or overlay survives into the
        // next window.
        client.drain_async_commits().unwrap();
        cluster.settle(200);
        let before = cluster.metrics_snapshot();
        match op {
            "mkdir" => drop(client.mkdir(root, "d").unwrap()),
            "create" => file = Some(client.create(root, "f").unwrap().id),
            "link" => client.link(root, "l", file.unwrap()).unwrap(),
            "unlink" => client.unlink(root, "l").unwrap(),
            "unlink-last" => client.unlink(root, "f").unwrap(),
            "rmdir" => client.rmdir(root, "d").unwrap(),
            _ => unreachable!(),
        }
        windows.push(cluster.metrics_snapshot().diff(&before));
    }
    // Whatever path the steps took, the namespace ends the same: empty,
    // with the file and the directory marked and awaiting the evict pass.
    client.drain_async_commits().unwrap();
    assert!(client.readdir(root).unwrap().is_empty(), "{mode:?}");
    assert!(client.stat(file.unwrap()).unwrap().flag.is_mark_deleted());
    assert_eq!(client.orphan_count(), 2, "{mode:?}");
    assert_eq!(client.process_deletions().0, 2, "{mode:?}");
    windows
}

#[test]
fn workflow_rpc_table() {
    for (col, mode) in [StepMode::Off, StepMode::Clean, StepMode::Dirty]
        .into_iter()
        .enumerate()
    {
        let windows = run_workflow_table(mode);
        for ((op, want), window) in WORKFLOW_TABLE.iter().zip(&windows) {
            check_workflow_rpcs(op, &format!("{mode:?}"), window, want[col]);
        }
    }
}

#[test]
fn workflow_rpc_check_rejects_perturbed_counters() {
    // A declined step that costs the client a second round trip — the
    // leader answers "no" and the client re-sends the op as a `Write` —
    // must trip the Dirty row of `create`.
    let registry = cfs::Registry::new();
    registry
        .counter("net.calls{fabric=meta,route=meta.write_async}")
        .add(2);
    registry
        .counter("net.calls{fabric=meta,route=meta.write}")
        .add(2);
    registry.counter("meta.async.sync_fallbacks").add(2);
    registry.counter("raft.proposals").add(2);
    let snap = registry.snapshot();
    let want = WORKFLOW_TABLE[1].1[2];
    let err = std::panic::catch_unwind(|| check_workflow_rpcs("create", "Dirty", &snap, want))
        .expect_err("a second round trip per declined step must fail the table");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("workflow rpc regression"),
        "unexpected panic message: {msg}"
    );

    // A fourth consensus round per deleted file (a separate mark-deleted
    // command) must trip the Off row of `unlink`.
    let registry = cfs::Registry::new();
    registry
        .counter("net.calls{fabric=meta,route=meta.write}")
        .add(3);
    registry.counter("raft.proposals").add(3);
    let snap = registry.snapshot();
    let want = WORKFLOW_TABLE[4].1[0];
    let err = std::panic::catch_unwind(|| check_workflow_rpcs("unlink-last", "Off", &snap, want))
        .expect_err("a mark-deleted round must fail the table");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("workflow rpc regression"),
        "unexpected panic message: {msg}"
    );
}

// ----- split cost & raft-set fan-out budgets ------------------------------

/// Files created before the split (the items the predecessor must keep
/// across the cut, plus the root inode).
const SPLIT_FILES: u64 = 48;
/// Post-split settle rounds (of [`SPLIT_SETTLE_TICKS`] sim ticks each)
/// within which reads on the frozen half, the root listing, and the
/// refreshed client view must all be back. Algorithm 1 moves a range
/// boundary, not data, so the handoff is administrative — a handful of
/// rounds, never a rebuild.
const SPLIT_ROUND_BUDGET: u64 = 10;
const SPLIT_SETTLE_TICKS: u64 = 50;
/// Raft-set topology for the fan-out budget: 9 meta nodes in sets of 3,
/// the seed partition split 9 times → 10x partitions.
const RAFTSET_SIZE: usize = 3;
const RAFTSET_META_NODES: usize = 9;
const RAFTSET_SPLITS: u64 = 9;

/// The split-cost budget: the cut committed, the predecessor kept every
/// item, the successor starts empty — §2.3.2 splits the inode-id range,
/// never copies the tree — and post-split unavailability fits the fixed
/// round budget.
fn check_split_cost_budget(
    cuts: u64,
    items_before: u64,
    predecessor_items: u64,
    successor_items: u64,
    unavailable_rounds: u64,
) {
    assert!(
        cuts >= 1,
        "split budget regression: the range cut never committed"
    );
    assert!(
        successor_items == 0,
        "split budget regression: the successor holds {successor_items} \
         items right after the handoff — Algorithm 1 moves the range \
         boundary, never the data"
    );
    assert!(
        predecessor_items == items_before,
        "split budget regression: the predecessor dropped from \
         {items_before} to {predecessor_items} items across the cut"
    );
    assert!(
        unavailable_rounds <= SPLIT_ROUND_BUDGET,
        "split budget regression: {unavailable_rounds} settle rounds of \
         post-split unavailability, budget allows {SPLIT_ROUND_BUDGET}"
    );
}

/// The raft-set budget (§2.5.1): every placement stays inside one set,
/// so each node's raft fan-out is bounded by its set — independent of
/// how many partitions the splits piled on.
fn check_raftset_fanout_budget(
    peers_per_node: &[usize],
    set_size: usize,
    partitions: u64,
    placements: u64,
    fallbacks: u64,
) {
    assert!(
        fallbacks == 0,
        "raft-set budget regression: {fallbacks} placements spilled \
         across raft-set boundaries"
    );
    assert!(
        placements >= partitions,
        "raft-set budget regression: only {placements} set-confined \
         placements recorded for {partitions} partitions"
    );
    let bound = set_size - 1;
    for (i, &p) in peers_per_node.iter().enumerate() {
        assert!(
            p <= bound,
            "raft-set budget regression: meta node #{i} fan-out is {p} \
             distinct raft peers at {partitions} partitions — set-confined \
             placement bounds it at {bound}, independent of partition count"
        );
    }
}

/// Leader-reported item count per meta partition.
fn meta_partition_items(cluster: &Cluster) -> std::collections::BTreeMap<PartitionId, u64> {
    let mut items = std::collections::BTreeMap::new();
    for n in cluster.meta_nodes() {
        if let Ok(MetaResponse::Report(infos)) = n.handle(MetaRequest::Report) {
            for info in infos {
                if info.is_leader {
                    items.insert(info.partition_id, info.item_count);
                }
            }
        }
    }
    items
}

#[test]
fn meta_split_cost_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    let vol = cluster.create_volume("budget-split", 1, 4).unwrap();
    let client = cluster.mount("budget-split").unwrap();
    let root = client.root();
    let mut inos = Vec::new();
    for i in 0..SPLIT_FILES {
        inos.push(client.create(root, &format!("f{i}")).unwrap().id);
    }
    cluster.settle(200);

    let items_before: u64 = meta_partition_items(&cluster).values().sum();
    let before = cluster.metrics_snapshot();
    let planned = cluster.split_newest_meta_partition(vol, true).unwrap();
    assert_eq!(planned, 2, "a split plans exactly a cut and a successor");

    // Count settle rounds until service is fully back: a stat on the
    // frozen half, the complete root listing, and a client view refresh.
    let mut rounds = 0;
    loop {
        let ready = client.stat(inos[0]).is_ok()
            && client
                .readdir(root)
                .map(|d| d.len() as u64 == SPLIT_FILES)
                .unwrap_or(false)
            && client.refresh_partition_table().is_ok();
        if ready {
            break;
        }
        rounds += 1;
        assert!(
            rounds <= SPLIT_ROUND_BUDGET * 4,
            "service never came back after the split"
        );
        cluster.settle(SPLIT_SETTLE_TICKS);
    }
    // Let the successor's group elect and report before the item audit.
    cluster.settle(200);

    let window = cluster.metrics_snapshot().diff(&before);
    let items = meta_partition_items(&cluster);
    assert_eq!(items.len(), 2, "both halves report a leader: {items:?}");
    let predecessor_items = *items.values().next().unwrap();
    let successor_items = *items.values().last().unwrap();
    check_split_cost_budget(
        window.counter("meta.split.cuts"),
        items_before,
        predecessor_items,
        successor_items,
        rounds,
    );

    // Writes keep flowing after the handoff.
    client.create(root, "post-split").unwrap();
}

#[test]
fn raftset_fanout_budget_at_10x_partitions() {
    let config = ClusterConfig {
        raft_set_size: RAFTSET_SIZE,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .meta_nodes(RAFTSET_META_NODES)
        .config(config)
        .build()
        .unwrap();
    let vol = cluster.create_volume("budget-raftset", 1, 4).unwrap();
    cluster.settle(200);

    for _ in 0..RAFTSET_SPLITS {
        assert_eq!(cluster.split_newest_meta_partition(vol, true).unwrap(), 2);
        cluster.settle(100);
    }

    let snap = cluster.metrics_snapshot();
    let peers: Vec<usize> = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.raft_distinct_peers())
        .collect();
    check_raftset_fanout_budget(
        &peers,
        RAFTSET_SIZE,
        1 + RAFTSET_SPLITS,
        snap.counter("master.raftset.placements"),
        snap.counter("master.raftset.fallbacks"),
    );
}

/// Peak per-node raft fan-out and the meta nodes' steady-state wire
/// messages over a fixed settle window, for 12 meta nodes placed in sets
/// of `set_size`, after the seed partition is split 9 times (10x).
fn raftset_fanout_and_heartbeat_traffic(set_size: usize) -> (usize, u64) {
    let config = ClusterConfig {
        raft_set_size: set_size,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .meta_nodes(12)
        .config(config)
        .build()
        .unwrap();
    let vol = cluster.create_volume("raftsets", 1, 4).unwrap();
    let client = cluster.mount("raftsets").unwrap();
    let root = client.root();
    for i in 0..16 {
        client.create(root, &format!("f{i}")).unwrap();
    }
    cluster.settle(200);
    for _ in 0..RAFTSET_SPLITS {
        assert_eq!(cluster.split_newest_meta_partition(vol, true).unwrap(), 2);
        cluster.settle(100);
    }
    cluster.heartbeat().unwrap();
    cluster.settle(200);
    // Every group is elected, so the window carries heartbeat upkeep
    // only: the cost Raft sets bound.
    let wire = || -> u64 {
        cluster
            .meta_nodes()
            .iter()
            .map(|n| n.multiraft_stats().wire_messages_sent)
            .sum()
    };
    let before = wire();
    cluster.settle(2_000);
    let peers_max = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.raft_distinct_peers())
        .max()
        .unwrap_or(0);
    (peers_max, wire() - before)
}

/// §2.5.1 against no confinement at all: sets of 3 hold each node's
/// fan-out at 2 peers where one set of 12 lets it reach 5, and fold the
/// window's heartbeats into 480 wire messages instead of 1,600.
#[test]
fn raftsets_bound_fanout_and_heartbeat_traffic_against_one_set_of_12() {
    assert_eq!(raftset_fanout_and_heartbeat_traffic(RAFTSET_SIZE), (2, 480));
    assert_eq!(raftset_fanout_and_heartbeat_traffic(12), (5, 1_600));
}

#[test]
fn split_and_raftset_budget_checks_reject_perturbed_counts() {
    let msg_of = |payload: Box<dyn std::any::Any + Send>| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    };

    // A split that copied the tree into the successor must trip.
    let err = std::panic::catch_unwind(|| check_split_cost_budget(3, 97, 97, 97, 0))
        .expect_err("a data-copying split must fail the budget");
    assert!(msg_of(err).contains("never the data"));

    // A handoff that blew the availability window must trip.
    let err =
        std::panic::catch_unwind(|| check_split_cost_budget(3, 97, 97, 0, SPLIT_ROUND_BUDGET + 1))
            .expect_err("a slow handoff must fail the budget");
    assert!(msg_of(err).contains("unavailability"));

    // A cut that never committed must trip.
    let err = std::panic::catch_unwind(|| check_split_cost_budget(0, 97, 97, 0, 0))
        .expect_err("a missing cut must fail the budget");
    assert!(msg_of(err).contains("never committed"));

    // One node whose fan-out outgrew its set must trip.
    let err = std::panic::catch_unwind(|| {
        check_raftset_fanout_budget(&[2, 2, 3], RAFTSET_SIZE, 10, 12, 0)
    })
    .expect_err("set-crossing fan-out must fail the budget");
    assert!(msg_of(err).contains("fan-out"));

    // A cross-set placement spill must trip.
    let err =
        std::panic::catch_unwind(|| check_raftset_fanout_budget(&[2; 9], RAFTSET_SIZE, 10, 12, 1))
            .expect_err("a cross-set spill must fail the budget");
    assert!(msg_of(err).contains("spilled"));
}

// ----- storage-engine recovery budget ------------------------------------

/// Client ops in the recovery history, and the WAL records one of them
/// costs now that an append's bytes go to the extent file: one watermark
/// row on each of its three replicas, the chain head's commit row, and
/// the meta sync's raft entry on each of the three meta replicas — 7,
/// where the page-row store wrote 10 (its three page batches are gone).
const RECOVERY_OPS: u64 = 3_000;
const RECOVERY_RECORDS_PER_OP: u64 = 7;
const RECOVERY_WAL_RECORDS: u64 = RECOVERY_OPS * RECOVERY_RECORDS_PER_OP;
const RECOVERY_FILES: usize = 8;

/// The recovery budget: `total_appends` WAL records were written over
/// the cluster's whole history, at least one memtable flush happened,
/// and a whole-cluster power-loss restart replayed `replayed` records.
/// A flush persists its records into sorted runs and truncates the WAL
/// behind them, so replay is bounded by ops since the last flush —
/// pinned here as strictly under half the history, which a flushing
/// engine beats by a wide margin and a non-flushing engine (which
/// replays everything, every restart) cannot meet.
fn check_recovery_budget(total_appends: u64, flushes: u64, replayed: u64) {
    assert!(
        flushes >= 1,
        "recovery budget regression: {total_appends} WAL appends without a \
         single memtable flush — restart replay is unbounded"
    );
    assert!(
        replayed <= total_appends / 2,
        "recovery budget regression: restart replayed {replayed} of \
         {total_appends} WAL records ever appended; replay must be bounded \
         by ops since the last flush, not total history"
    );
}

#[test]
fn whole_cluster_recovery_budget() {
    let mut cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget-recovery", 1, 4).unwrap();
    let client = cluster.mount("budget-recovery").unwrap();
    let root = client.root();

    let mut handles = Vec::new();
    let mut expected = vec![Vec::new(); RECOVERY_FILES];
    for f in 0..RECOVERY_FILES {
        let nm = format!("recovery-f{f}");
        client.create(root, &nm).unwrap();
        handles.push(client.open(root, &nm).unwrap());
    }
    // A 21k-record acknowledged history: every append is durably acked
    // through its replica chain before the next op runs, landing WAL
    // records on all three data engines plus the meta/master engines the
    // sync cadence touches.
    for op in 0..RECOVERY_OPS {
        let f = (op % RECOVERY_FILES as u64) as usize;
        let body = vec![(op % 251) as u8; 256];
        let h = &mut handles[f];
        h.seek(h.size());
        client.write(h, &body).unwrap();
        expected[f].extend_from_slice(&body);
    }
    for h in &mut handles {
        client.fsync(h).unwrap();
    }

    let before = cluster.metrics_snapshot();
    assert!(
        before.counter("kvwal.wal_appends") >= RECOVERY_WAL_RECORDS,
        "the history must span at least {RECOVERY_WAL_RECORDS} WAL records \
         (got {})",
        before.counter("kvwal.wal_appends")
    );
    cluster.power_loss_restart().unwrap();
    let window = cluster.metrics_snapshot().diff(&before);

    check_recovery_budget(
        before.counter("kvwal.wal_appends"),
        before.counter("kvwal.flushes"),
        window.counter("kvwal.wal_replayed"),
    );
    // Recovery cost is instrumented: every rebooted engine recorded a
    // recover_ns sample inside the restart window.
    assert!(
        window.histograms["kvwal.recover_ns"].count >= 1,
        "no recovery samples recorded across the restart"
    );

    // The restart was real: leaders re-elect and every acknowledged byte
    // reads back from disk state alone.
    cluster.settle(600);
    client.refresh_partition_table().unwrap();
    for (f, h) in handles.iter_mut().enumerate() {
        let mut last = None;
        for _ in 0..6 {
            match client.read_at(h, 0, h.size() as usize) {
                Ok(r) => {
                    last = Some(r);
                    break;
                }
                Err(_) => cluster.settle(400),
            }
        }
        let r = last.expect("post-restart read");
        assert_eq!(r, expected[f], "file {f} content after power loss");
    }
}

/// The forced-failure twin: the same op volume with flushing disabled
/// leaves the whole history in the WAL, so recovery replays every record
/// ever appended and the budget check must reject it.
struct RecoveryCf;
impl TypedCf for RecoveryCf {
    const NAME: &'static str = "budget_recovery";
    type Key = u64;
    type Value = Vec<u8>;
}

#[test]
fn recovery_budget_fires_when_flushing_disabled() {
    let registry = cfs::Registry::new();
    let dir = TempDir::new("budget-noflush").unwrap();
    let opts = LsmOptions {
        flush_enabled: false,
        ..LsmOptions::default()
    };
    {
        let engine =
            LsmEngine::open_with_registry(dir.path(), opts.clone(), Some(&registry)).unwrap();
        for i in 0..RECOVERY_WAL_RECORDS {
            engine.put::<RecoveryCf>(&i, &vec![i as u8; 32]).unwrap();
        }
    }
    let before = registry.snapshot();
    let _engine = LsmEngine::open_with_registry(dir.path(), opts, Some(&registry)).unwrap();
    let window = registry.snapshot().diff(&before);

    let total = before.counter("kvwal.wal_appends");
    let flushes = before.counter("kvwal.flushes");
    let replayed = window.counter("kvwal.wal_replayed");
    assert_eq!(total, RECOVERY_WAL_RECORDS, "one WAL record per put");
    assert_eq!(flushes, 0, "flushing is disabled");
    assert_eq!(replayed, RECOVERY_WAL_RECORDS, "the whole history replays");

    let err = std::panic::catch_unwind(|| check_recovery_budget(total, flushes, replayed))
        .expect_err("a non-flushing engine must fail the recovery budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("recovery budget regression"),
        "unexpected panic message: {msg}"
    );
}

// ----- heartbeat round budget --------------------------------------------

/// Master replicas of a default cluster.
const MASTER_REPLICAS: u64 = 3;

/// The heartbeat budget: one round is one replicated `Heartbeat` command
/// (liveness, every node's stats and the maintenance sweep) plus, with
/// repair on, one `RepairTick` — never one proposal per report — and each
/// proposal reaches the WAL once per master replica (its raft-log entry),
/// with no second durable image beside the log.
fn check_heartbeat_budget(window: &MetricsSnapshot, proposals: u64) {
    let p = window.counter("raft.proposals");
    assert!(
        p == proposals,
        "heartbeat budget regression: one round took {p} master proposals, \
         expected exactly {proposals}"
    );
    let wal = window.counter("kvwal.wal_appends");
    let cap = MASTER_REPLICAS * proposals;
    assert!(
        wal <= cap,
        "heartbeat budget regression: one round wrote {wal} WAL records, \
         {MASTER_REPLICAS} master replicas × {proposals} proposals allow {cap}"
    );
}

/// One heartbeat round on a settled default cluster (3 meta + 3 data
/// nodes, a volume of 2 meta + 8 data partitions), as a metrics window.
fn settled_heartbeat_window(repair_enabled: bool) -> MetricsSnapshot {
    let config = ClusterConfig {
        repair_enabled,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new().config(config).build().unwrap();
    cluster.create_volume("budget-heartbeat", 2, 8).unwrap();
    cluster.heartbeat().unwrap();
    let before = cluster.metrics_snapshot();
    assert_eq!(
        cluster.heartbeat().unwrap(),
        0,
        "a settled round has no tasks"
    );
    cluster.metrics_snapshot().diff(&before)
}

#[test]
fn heartbeat_round_budget() {
    check_heartbeat_budget(&settled_heartbeat_window(true), 2);
    check_heartbeat_budget(&settled_heartbeat_window(false), 1);
}

#[test]
fn heartbeat_budget_check_rejects_per_report_proposals() {
    // One proposal per report on the same cluster — a round record, six
    // node stats, two meta partition stats, maintenance and repair — each
    // written to the WAL twice per replica (log entry + command row).
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(11);
    registry.counter("kvwal.wal_appends").add(66);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_heartbeat_budget(&snap, 2))
        .expect_err("per-report proposals must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("master proposals"),
        "unexpected panic message: {msg}"
    );

    // Two proposals, but each still written twice per replica.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(2);
    registry.counter("kvwal.wal_appends").add(12);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_heartbeat_budget(&snap, 2))
        .expect_err("a second durable image must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("WAL records"),
        "unexpected panic message: {msg}"
    );
}

// ----- flat create cost budget --------------------------------------------

/// Creates in the flat-cost history. A create is two raft entries, so
/// 5,000 creates pass 2 × 4,096 entries and every meta replica compacts
/// twice, at about creates #2,050 and #4,100 — the second time inside the
/// measured tail.
const FLAT_CREATES: u64 = 5_000;
/// Creates that price one create, at the start of the history.
const FLAT_HEAD: u64 = 100;
/// Creates in the measured tail, at the end of the history.
const FLAT_TAIL: u64 = 1_000;
/// WAL records one create costs on a default cluster: two raft entries,
/// each written by the leader and both followers of the meta partition.
const FLAT_RECORDS_PER_CREATE: u64 = 6;

/// The flat-cost budget over `creates` creates at the end of a long
/// history: no stored row was scanned, and the WAL took exactly
/// `per_create` records per create plus one per compaction (snapshot,
/// base and the dropped prefix in one batch) — what the creates wrote,
/// whatever the log held.
fn check_flat_create_budget(window: &MetricsSnapshot, creates: u64, per_create: u64) {
    let scanned = window.counter("kvwal.rows_scanned");
    assert!(
        scanned == 0,
        "flat create budget regression: {creates} creates scanned {scanned} \
         stored rows; a create costs the rows it writes, not the log it joins"
    );
    let snapshots = window.counter("meta.snapshots_taken");
    let wal = window.counter("kvwal.wal_appends");
    let want = creates * per_create + snapshots;
    assert!(
        wal == want,
        "flat create budget regression: {creates} creates and {snapshots} \
         compactions wrote {wal} WAL records, expected exactly {want} \
         ({per_create} per create + 1 per compaction)"
    );
}

#[test]
fn flat_create_cost_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget-flat", 1, 4).unwrap();
    let client = cluster.mount("budget-flat").unwrap();
    let root = client.root();
    cluster.settle(200);
    let create = |i: u64| drop(client.create(root, &format!("f{i}")).unwrap());

    let before = cluster.metrics_snapshot();
    (1..=FLAT_HEAD).for_each(create);
    let head = cluster.metrics_snapshot().diff(&before);
    assert_eq!(head.counter("meta.snapshots_taken"), 0);
    assert_eq!(
        head.counter("kvwal.wal_appends"),
        FLAT_HEAD * FLAT_RECORDS_PER_CREATE,
        "creates #1–#{FLAT_HEAD} price a create"
    );

    (FLAT_HEAD + 1..=FLAT_CREATES - FLAT_TAIL).for_each(create);
    let before = cluster.metrics_snapshot();
    (FLAT_CREATES - FLAT_TAIL + 1..=FLAT_CREATES).for_each(create);
    let tail = cluster.metrics_snapshot().diff(&before);
    assert!(
        tail.counter("meta.snapshots_taken") >= 1,
        "the tail must include a compaction"
    );
    check_flat_create_budget(&tail, FLAT_TAIL, FLAT_RECORDS_PER_CREATE);
}

#[test]
fn flat_create_budget_check_rejects_the_log_walk() {
    // Every follower append scanning the group's stored log: per create,
    // two entries on each of two followers, each scan visiting the
    // ~3,000 rows the log holds on average over the tail.
    let registry = cfs::Registry::new();
    registry
        .counter("kvwal.rows_scanned")
        .add(FLAT_TAIL * 2 * 2 * 3_000);
    registry
        .counter("kvwal.wal_appends")
        .add(FLAT_TAIL * FLAT_RECORDS_PER_CREATE + 3);
    registry.counter("meta.snapshots_taken").add(3);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| {
        check_flat_create_budget(&snap, FLAT_TAIL, FLAT_RECORDS_PER_CREATE)
    })
    .expect_err("a log walk per follower append must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("stored rows"),
        "unexpected panic message: {msg}"
    );

    // A compaction written as two records (snapshot row, then base and
    // deletes) on each of the three replicas.
    let registry = cfs::Registry::new();
    registry
        .counter("kvwal.wal_appends")
        .add(FLAT_TAIL * FLAT_RECORDS_PER_CREATE + 2 * 3);
    registry.counter("meta.snapshots_taken").add(3);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| {
        check_flat_create_budget(&snap, FLAT_TAIL, FLAT_RECORDS_PER_CREATE)
    })
    .expect_err("a two-record compaction must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("WAL records"),
        "unexpected panic message: {msg}"
    );
}

// ----- extent append budget ----------------------------------------------

const EXTENT_PACKET: usize = 128 * 1024;
const EXTENT_PACKETS: u64 = 8;

/// What one replica's engine may be charged for `packets` appended
/// packets: their watermark rows, and nothing that grows with the payload.
fn check_extent_append_budget(packets: u64, wal_appends: u64, flushes: u64) {
    assert!(
        wal_appends <= packets,
        "extent append budget regression: {wal_appends} WAL records for \
         {packets} packets; a packet costs its replica one watermark row"
    );
    assert!(
        flushes == 0,
        "extent append budget regression: {flushes} memtable flushes while \
         appending {packets} packets — file data is going through the engine"
    );
}

struct PayloadCf;
impl TypedCf for PayloadCf {
    const NAME: &'static str = "budget_payload";
    type Key = u64;
    type Value = Vec<u8>;
}

/// Apply a 1 MiB sequential write to one persistent replica, as a chain
/// member does, and return the `(kvwal.wal_appends, kvwal.flushes)` it
/// cost. `payload_in_engine` is the forced-failure twin: a device that
/// also puts each packet's bytes into the engine.
fn append_one_mib_to_a_replica(payload_in_engine: bool) -> (u64, u64) {
    let registry = cfs::Registry::new();
    let dir = TempDir::new("budget-extent").unwrap();
    let engine = Arc::new(
        LsmEngine::open_with_registry(dir.path(), LsmOptions::default(), Some(&registry)).unwrap(),
    );
    let mut replica = DataPartitionReplica::new_persistent(
        PartitionId(1),
        VolumeId(1),
        vec![NodeId(1), NodeId(2), NodeId(3)],
        128 << 20,
        0,
        engine.clone(),
    )
    .unwrap();
    replica.create_extent(ExtentId(1)).unwrap();
    let packet = vec![0x5a_u8; EXTENT_PACKET];
    let crc = cfs_types::crc::crc32(&packet);
    let before = registry.snapshot();
    for i in 0..EXTENT_PACKETS {
        replica
            .apply_append(ExtentId(1), i * EXTENT_PACKET as u64, &packet, crc)
            .unwrap();
        if payload_in_engine {
            engine.put::<PayloadCf>(&i, &packet).unwrap();
        }
    }
    let window = registry.snapshot().diff(&before);
    (
        window.counter("kvwal.wal_appends"),
        window.counter("kvwal.flushes"),
    )
}

#[test]
fn extent_append_budget() {
    let (wal_appends, flushes) = append_one_mib_to_a_replica(false);
    check_extent_append_budget(EXTENT_PACKETS, wal_appends, flushes);
}

#[test]
fn extent_append_budget_fires_when_the_payload_goes_through_the_engine() {
    let (wal_appends, flushes) = append_one_mib_to_a_replica(true);
    assert_eq!(wal_appends, 2 * EXTENT_PACKETS, "row + payload per packet");
    assert!(flushes >= 1, "1 MiB of payload overflows the memtable");
    let err =
        std::panic::catch_unwind(|| check_extent_append_budget(EXTENT_PACKETS, wal_appends, 0))
            .expect_err("a second WAL record per packet must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("one watermark row"), "got: {msg}");
    let err = std::panic::catch_unwind(|| check_extent_append_budget(EXTENT_PACKETS, 0, flushes))
        .expect_err("a flush of file data must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("going through the engine"), "got: {msg}");
}

// ---------------------------------------------------------------------
// Small-file fast path budgets (DESIGN §13)
// ---------------------------------------------------------------------

const SMALL_FILES: u64 = 64;
const SMALL_BATCH: u32 = 16;
const READ_BLOCKS: u64 = 16;

/// The coalesced small-write budget over one measured window: N buffered
/// first-writes flush as exactly N/batch `WriteSmallBatch` submissions —
/// on the client's counters and on the `data.write_small` route.
fn check_smallfile_budget(window: &MetricsSnapshot, batches: u64, records: u64) {
    let b = window.counter("client.smallfile.batches");
    assert!(
        b == batches,
        "small-file budget regression: {b} batch flushes, expected exactly {batches}"
    );
    let r = window.counter("client.smallfile.batch_records");
    assert!(
        r == records,
        "small-file budget regression: {r} batched records, expected exactly {records}"
    );
    let calls = window.counter("net.calls{fabric=data,route=data.write_small}");
    assert!(
        calls == batches,
        "small-file budget regression: {calls} data.write_small submissions \
         for {records} records, expected exactly {batches}"
    );
}

/// The warmed-read budget: a fully cached sequential re-read costs zero
/// fabric read RPCs and serves every block from the cache.
fn check_warmed_read_budget(window: &MetricsSnapshot, hits: u64) {
    let reads = window.counter("net.calls{fabric=data,route=data.read}");
    assert!(
        reads == 0,
        "warmed-read budget regression: {reads} fabric reads from a fully \
         cached file, expected 0"
    );
    let h = window.counter("client.readcache.hit");
    assert!(
        h == hits,
        "warmed-read budget regression: {h} cache hits, expected exactly {hits}"
    );
}

#[test]
fn coalesced_small_write_budget() {
    let config = ClusterConfig {
        packet_size: PACKET,
        small_file_threshold: PACKET,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .config(config.clone())
        .build()
        .unwrap();
    cluster.create_volume("budget", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "budget",
            ClientOptions {
                small_batch_max_ops: SMALL_BATCH,
                ..ClientOptions::default()
            },
        )
        .unwrap();

    let root = client.root();
    let mut handles = Vec::new();
    for i in 0..SMALL_FILES {
        let nm = format!("s{i}");
        client.create(root, &nm).unwrap();
        handles.push(client.open(root, &nm).unwrap());
    }

    let before = cluster.metrics_snapshot();
    for (i, h) in handles.iter_mut().enumerate() {
        client.write(h, &vec![i as u8; 512]).unwrap();
    }
    // 64 writes at batch 16 tripped the ops bound exactly 4 times; the
    // buffer is empty, so the closes flush nothing further.
    assert_eq!(client.small_writes_buffered(), 0);
    for h in handles.iter_mut() {
        client.close(h).unwrap();
    }
    let window = cluster.metrics_snapshot().diff(&before);

    let batches = SMALL_FILES / SMALL_BATCH as u64;
    check_smallfile_budget(&window, batches, SMALL_FILES);
    assert_eq!(window.counter("client.smallfile.coalesced"), SMALL_FILES);
    // Each batch forwards its aggregated segment down the chain once per
    // follower hop (no rotation at these sizes: one segment per batch).
    assert_eq!(
        window.counter("net.calls{fabric=data,route=data.append}"),
        batches * (REPLICAS - 1)
    );

    // Readback survives adoption: every file holds its own record.
    let mut h = client.open(root, "s7").unwrap();
    assert_eq!(client.read_at(&h, 0, 512).unwrap(), vec![7u8; 512]);
    client.close(&mut h).unwrap();

    // Ablation twin: the identical workload at the default record bound
    // of 1 costs one chain submission per file — it fails the budget
    // above, and the fast path must be ≥2x cheaper.
    let base_cluster = ClusterBuilder::new().config(config).build().unwrap();
    base_cluster.create_volume("budget", 1, 4).unwrap();
    let base = base_cluster
        .mount_with_options("budget", ClientOptions::default())
        .unwrap();
    let root = base.root();
    let before = base_cluster.metrics_snapshot();
    for i in 0..SMALL_FILES {
        let nm = format!("s{i}");
        base.create(root, &nm).unwrap();
        let mut h = base.open(root, &nm).unwrap();
        base.write(&mut h, &vec![i as u8; 512]).unwrap();
        base.close(&mut h).unwrap();
    }
    let base_window = base_cluster.metrics_snapshot().diff(&before);
    let base_rounds = base_window.counter("net.calls{fabric=data,route=data.write_small}");
    assert_eq!(base_rounds, SMALL_FILES);
    std::panic::catch_unwind(|| check_smallfile_budget(&base_window, batches, SMALL_FILES))
        .expect_err("the un-coalesced mount must fail the coalesced budget");
    assert!(
        base_rounds >= 2 * batches,
        "coalescing saved less than 2x: {base_rounds} baseline rounds vs \
         {batches} batched"
    );
}

#[test]
fn smallfile_budget_check_rejects_perturbed_counters() {
    // A chattier coalescer (one extra batch flush) must trip the budget.
    let registry = cfs::Registry::new();
    registry.counter("client.smallfile.batches").add(5); // budget says 4
    registry
        .counter("client.smallfile.batch_records")
        .add(SMALL_FILES);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_smallfile_budget(&snap, 4, SMALL_FILES))
        .expect_err("perturbed batch count must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("small-file budget regression"),
        "unexpected panic message: {msg}"
    );

    // A coalescer that quietly submits one record at a time must trip it
    // even when the client's own counters look right.
    let registry = cfs::Registry::new();
    registry.counter("client.smallfile.batches").add(4);
    registry
        .counter("client.smallfile.batch_records")
        .add(SMALL_FILES);
    registry
        .counter("net.calls{fabric=data,route=data.write_small}")
        .add(SMALL_FILES);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_smallfile_budget(&snap, 4, SMALL_FILES))
        .expect_err("per-record submissions must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("data.write_small submissions"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn warmed_sequential_read_budget() {
    let config = ClusterConfig {
        packet_size: PACKET,
        small_file_threshold: PACKET,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new().config(config).build().unwrap();
    cluster.create_volume("budget", 1, 4).unwrap();
    let client = cluster
        .mount_with_options("budget", ClientOptions::default())
        .unwrap();

    let root = client.root();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();
    let len = (PACKET * READ_BLOCKS) as usize;
    let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    client.write(&mut fh, &body).unwrap();
    client.close(&mut fh).unwrap();

    // Cold pass fills the cache (every block is a demand miss).
    let fh = client.open(root, "f").unwrap();
    let before = cluster.metrics_snapshot();
    assert_eq!(client.read_at(&fh, 0, len).unwrap(), body);
    let cold = cluster.metrics_snapshot().diff(&before);
    assert_eq!(cold.counter("client.readcache.miss"), READ_BLOCKS);
    assert_eq!(cold.counter("client.readcache.inserted"), READ_BLOCKS);

    // Warmed pass: zero fabric reads, every block a hit.
    let before = cluster.metrics_snapshot();
    assert_eq!(client.read_at(&fh, 0, len).unwrap(), body);
    let warm = cluster.metrics_snapshot().diff(&before);
    check_warmed_read_budget(&warm, READ_BLOCKS);

    // Invalidation: a truncate drops the cached blocks, so the next read
    // goes back to the fabric and conservation still balances.
    let mut fh = client.open(root, "f").unwrap();
    client.truncate_file(&mut fh, PACKET * 4).unwrap();
    let before = cluster.metrics_snapshot();
    assert_eq!(
        client.read_at(&fh, 0, len).unwrap(),
        body[..(PACKET * 4) as usize]
    );
    let after_truncate = cluster.metrics_snapshot().diff(&before);
    assert!(after_truncate.counter("net.calls{fabric=data,route=data.read}") > 0);
    let stats = client.data_path_stats();
    assert_eq!(
        stats.readcache_resident,
        stats.readcache_inserted as i64
            - stats.readcache_evicted as i64
            - stats.readcache_invalidated as i64
    );
    client.close(&mut fh).unwrap();
}

#[test]
fn warmed_read_budget_check_rejects_perturbed_counters() {
    // A cache that quietly leaks reads to the fabric must trip the budget
    // even when the hit counter looks right.
    let registry = cfs::Registry::new();
    registry.counter("client.readcache.hit").add(READ_BLOCKS);
    registry
        .counter("net.calls{fabric=data,route=data.read}")
        .add(1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_warmed_read_budget(&snap, READ_BLOCKS))
        .expect_err("leaked fabric read must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("warmed-read budget regression"),
        "unexpected panic message: {msg}"
    );

    // Short-served hits (a shrunken cache) must trip it too.
    let registry = cfs::Registry::new();
    registry
        .counter("client.readcache.hit")
        .add(READ_BLOCKS - 1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_warmed_read_budget(&snap, READ_BLOCKS))
        .expect_err("short hit count must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("cache hits"),
        "unexpected panic message: {msg}"
    );
}

const RAND_READS: u64 = 256;
const RAND_READ_LEN: u64 = 4096;

/// The random-read fetch budget (DESIGN §13): a read that neither starts
/// at offset 0 nor continues the previous read fetches exactly the bytes
/// it demands, in one data read, and caches nothing (it covers no full
/// block).
fn check_random_read_fetch_budget(window: &MetricsSnapshot, reads: u64, len: u64) {
    let fetched = window.counter("store.bytes_read");
    assert!(
        fetched == reads * len,
        "random-read fetch budget regression: the stores returned {fetched} B \
         for {reads} reads of {len} B, expected exactly {}",
        reads * len
    );
    let calls = window.counter("net.calls{fabric=data,route=data.read}");
    assert!(
        calls == reads,
        "random-read fetch budget regression: {calls} data reads for {reads} \
         cache misses, expected exactly {reads}"
    );
    let inserted = window.counter("client.readcache.inserted");
    assert!(
        inserted == 0,
        "random-read fetch budget regression: {inserted} blocks cached by \
         reads that cover no full block, expected 0"
    );
}

/// `n` seeded (splitmix64), `len`-aligned read offsets below `size`: none
/// is 0 and none starts where the previous read ended.
fn random_read_offsets(seed: u64, n: u64, size: u64, len: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out: Vec<u64> = Vec::new();
    while (out.len() as u64) < n {
        let at = next() % (size / len) * len;
        if at != 0 && out.last().map(|p| p + len) != Some(at) {
            out.push(at);
        }
    }
    out
}

#[test]
fn random_read_fetch_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("budget", 1, 4).unwrap();
    let block = cluster.config().packet_size;
    let size = READ_BLOCKS * block;
    let body: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let writer = cluster.mount("budget").unwrap();
    let root = writer.root();
    writer.create(root, "f").unwrap();
    let mut fh = writer.open(root, "f").unwrap();
    writer.write(&mut fh, &body).unwrap();
    writer.close(&mut fh).unwrap();

    // A cold mount whose cache holds half the file.
    let reader = cluster
        .mount_with_options(
            "budget",
            ClientOptions {
                read_cache_capacity: READ_BLOCKS as usize / 2,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let rfh = reader.open(root, "f").unwrap();
    let offsets = random_read_offsets(1, RAND_READS, size, RAND_READ_LEN);
    let before = cluster.metrics_snapshot();
    for &at in &offsets {
        let (lo, hi) = (at as usize, (at + RAND_READ_LEN) as usize);
        assert_eq!(
            reader.read_at(&rfh, at, RAND_READ_LEN as usize).unwrap(),
            &body[lo..hi]
        );
    }
    let window = cluster.metrics_snapshot().diff(&before);
    check_random_read_fetch_budget(&window, RAND_READS, RAND_READ_LEN);

    // A sequential scan from 0 in 1 MiB steps still reads ahead in whole
    // blocks, and fetches each byte of the file once.
    let step = 1 << 20;
    let before = cluster.metrics_snapshot();
    for at in (0..size).step_by(step) {
        let (lo, hi) = (at as usize, (at as usize + step).min(body.len()));
        assert_eq!(reader.read_at(&rfh, at, step).unwrap(), &body[lo..hi]);
    }
    let scan = cluster.metrics_snapshot().diff(&before);
    assert_eq!(
        scan.counter("store.bytes_read"),
        size,
        "the sequential scan fetches each byte once"
    );
    assert!(scan.counter("client.readcache.readahead") > 0);
}

#[test]
fn random_read_fetch_budget_check_rejects_block_fetches() {
    // A miss rounded out to its whole 128 KiB block (and cached) must trip
    // the budget even when it costs one data read per miss.
    let block = 128 * 1024;
    let registry = cfs::Registry::new();
    registry.counter("store.bytes_read").add(RAND_READS * block);
    registry
        .counter("net.calls{fabric=data,route=data.read}")
        .add(RAND_READS);
    registry
        .counter("client.readcache.inserted")
        .add(RAND_READS);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| {
        check_random_read_fetch_budget(&snap, RAND_READS, RAND_READ_LEN)
    })
    .expect_err("block-sized fetches must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("the stores returned 33554432 B"),
        "unexpected panic message: {msg}"
    );

    // A miss that fetches its bytes but still caches a block must trip it.
    let registry = cfs::Registry::new();
    registry
        .counter("store.bytes_read")
        .add(RAND_READS * RAND_READ_LEN);
    registry
        .counter("net.calls{fabric=data,route=data.read}")
        .add(RAND_READS);
    registry.counter("client.readcache.inserted").add(1);
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| {
        check_random_read_fetch_budget(&snap, RAND_READS, RAND_READ_LEN)
    })
    .expect_err("a cached block must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("blocks cached"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn ceph_baseline_config_is_pinned_to_the_paper() {
    // The evaluation matrix (BENCH_eval.json) compares CFS against the
    // ceph-baseline model; a quiet change to any cost parameter would
    // move every "% improv" number without anyone noticing. Pin the
    // whole default config to the paper's §4.1/Table-1 setup so model
    // drift fails CI instead.
    let c = ceph_baseline::CephConfig::default();
    assert_eq!(c.nodes, 10, "Table 1: 10 server machines");
    assert_eq!(c.osds_per_node, 16, "§4.1: 16 OSDs per machine");
    assert_eq!(c.mds_per_node, 1, "§4.1: 1 MDS per machine");
    assert_eq!(c.client_nodes, 8, "Table 1: 8 client machines");
    assert_eq!(c.osd_shards, 6, "§4.3: osd_op_num_shards = 6");
    assert_eq!(c.osd_threads_per_shard, 4, "§4.3: 4 threads per shard");
    assert_eq!(c.replicas, 3, "3-way replication, as CFS");
    assert_eq!(c.object_size, 4 * 1024 * 1024, "4 MB RADOS objects");
    assert_eq!(c.mds_op_ns, 50_000);
    assert_eq!(c.mds_journal_ns, 250_000);
    assert_eq!(c.mds_cache_inodes, 100_000);
    assert_eq!(c.osd_shard_op_ns, 15_000);
    assert_eq!(c.onode_cache_per_node, 20_000);
    assert_eq!(c.client_op_ns, 80_000);
    assert_eq!(c.rebalance_threshold_ops, 300);
    assert_eq!(c.total_mds(), 10);

    // The shared hardware model underneath both systems (Table 1).
    let hw = &c.hw;
    assert_eq!(hw.nic_bandwidth_bps, 1_000_000_000, "1 Gbps NICs");
    assert_eq!(hw.net_oneway_ns, 60_000);
    assert_eq!(hw.net_per_msg_ns, 2_000);
    assert_eq!(hw.cores_per_node, 16, "Table 1: 16 cores");
    assert_eq!(hw.ssds_per_node, 16, "Table 1: 16 SSDs");
    assert_eq!(hw.ssd_read_ns, 80_000);
    assert_eq!(hw.ssd_write_ns, 50_000);
    assert_eq!(hw.ssd_fsync_ns, 250_000);
    assert_eq!(hw.rpc_handle_ns, 12_000);
    assert_eq!(hw.mem_index_op_ns, 1_500);

    // The fast-network variant used by fig8–fig10 differs ONLY in NIC
    // line rate.
    let fast = cfs_sim::HardwareModel::fast_network();
    assert_eq!(fast.nic_bandwidth_bps, 10_000_000_000, "10 Gbps NICs");
    assert_eq!(fast.net_oneway_ns, hw.net_oneway_ns);
    assert_eq!(fast.ssd_read_ns, hw.ssd_read_ns);
    assert_eq!(fast.ssd_fsync_ns, hw.ssd_fsync_ns);
}

// ---------------------------------------------------------------------
// Deletion drain budget (§2.7.3)
// ---------------------------------------------------------------------

const DRAIN_FILES: u64 = 64;

/// The deletion-drain budget over one `process_deletions` window: one
/// raft round per meta partition holding orphans (its evicts ride one
/// batched write), one `QueueDeletes` from the client per data partition
/// with cleanup (each hop forwards it once more down the chain), and at
/// most one punch-hole call per punched extent on each replica (touching
/// ranges merge).
fn check_delete_drain_budget(
    window: &MetricsSnapshot,
    meta_partitions: u64,
    data_partitions: u64,
    extents: u64,
) {
    let rounds = window.counter("raft.proposals");
    assert!(
        rounds == meta_partitions,
        "delete drain budget regression: {rounds} raft rounds to evict the \
         orphans of {meta_partitions} meta partitions, expected exactly \
         {meta_partitions}"
    );
    let calls = window.counter("net.calls{fabric=data,route=data.queue_deletes}");
    let from_client = calls.saturating_sub(window.counter("data.chain_forwards"));
    assert!(
        from_client == data_partitions,
        "delete drain budget regression: {from_client} data.queue_deletes \
         requests from the client, expected exactly {data_partitions} (one \
         per data partition with cleanup)"
    );
    let punches = window.counter("store.punches");
    assert!(
        punches <= extents * REPLICAS,
        "delete drain budget regression: {punches} punch calls for \
         {extents} punched extents on {REPLICAS} replicas"
    );
}

#[test]
fn delete_drain_budget() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("drain", 2, 4).unwrap();
    cluster.settle(200);
    let client = cluster.mount("drain").unwrap();
    let root = client.root();
    let mut inodes = Vec::new();
    let mut keys = Vec::new();
    for i in 0..DRAIN_FILES {
        let name = format!("d{i}");
        let ino = client.create(root, &name).unwrap().id;
        let mut fh = client.open(root, &name).unwrap();
        client.write(&mut fh, &vec![i as u8; 3000]).unwrap();
        client.close(&mut fh).unwrap();
        keys.extend(client.stat(ino).unwrap().extents);
        inodes.push(ino);
    }
    for i in 0..DRAIN_FILES {
        client.unlink(root, &format!("d{i}")).unwrap();
    }

    // Which meta partition owns each orphan, from the leaders' ranges.
    let mut ranges = std::collections::BTreeMap::new();
    for n in cluster.meta_nodes() {
        if let Ok(MetaResponse::Report(infos)) = n.handle(MetaRequest::Report) {
            for info in infos.into_iter().filter(|i| i.is_leader) {
                ranges.insert(info.partition_id, (info.start, info.end));
            }
        }
    }
    let meta_partitions: std::collections::BTreeSet<PartitionId> = inodes
        .iter()
        .map(|&ino| {
            *ranges
                .iter()
                .find(|(_, (start, end))| *start <= ino && ino <= *end)
                .expect("an owning partition")
                .0
        })
        .collect();
    assert_eq!(meta_partitions.len(), 2, "the orphans span both partitions");
    let data_partitions: std::collections::BTreeSet<PartitionId> =
        keys.iter().map(|k| k.partition_id).collect();
    let extents: std::collections::BTreeSet<(PartitionId, ExtentId)> =
        keys.iter().map(|k| (k.partition_id, k.extent_id)).collect();

    let before = cluster.metrics_snapshot();
    assert_eq!(client.process_deletions().0, DRAIN_FILES as usize);
    let window = cluster.metrics_snapshot().diff(&before);
    check_delete_drain_budget(
        &window,
        meta_partitions.len() as u64,
        data_partitions.len() as u64,
        extents.len() as u64,
    );
    assert_eq!(
        window.counter("store.bytes_punched"),
        DRAIN_FILES * 3000 * REPLICAS,
        "every file's bytes punched on every replica"
    );
}

#[test]
fn delete_drain_budget_check_rejects_perturbed_counters() {
    // An evict per orphan — one raft round per inode — must trip it.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(DRAIN_FILES);
    registry
        .counter("net.calls{fabric=data,route=data.queue_deletes}")
        .add(4 * REPLICAS);
    registry
        .counter("data.chain_forwards")
        .add(4 * (REPLICAS - 1));
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_delete_drain_budget(&snap, 2, 4, 4))
        .expect_err("one proposal per evicted inode must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("raft rounds"),
        "unexpected panic message: {msg}"
    );

    // A queue request per file, even with batched evicts, must trip it.
    let registry = cfs::Registry::new();
    registry.counter("raft.proposals").add(2);
    registry
        .counter("net.calls{fabric=data,route=data.queue_deletes}")
        .add(DRAIN_FILES * REPLICAS);
    registry
        .counter("data.chain_forwards")
        .add(DRAIN_FILES * (REPLICAS - 1));
    let snap = registry.snapshot();
    let err = std::panic::catch_unwind(|| check_delete_drain_budget(&snap, 2, 4, 4))
        .expect_err("one queue request per file must fail the budget");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("data.queue_deletes requests"),
        "unexpected panic message: {msg}"
    );
}
