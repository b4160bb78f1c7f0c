//! Ablation A5 (§2.1.3): metadata hot path — Raft group commit and
//! lease-protected local reads.
//!
//! Runs the real in-process stack through a metadata-heavy workload
//! over a 2 × 2: write arrival burst/serial × read lease on/off. Every
//! meta write is group-committed, so what the first axis varies is how
//! many writes a Raft round window finds queued: the burst lands all its
//! creates on one meta partition inside a single window (the shape a
//! container fleet produces at startup) and they ride one frame; the
//! serial arm issues blocking creates one at a time, so each frame holds
//! one op and costs its own round. The read phase is a steady-state stat
//! loop. Reported: Raft rounds consumed per create, how each read was
//! classified (lease fast path vs quorum barrier), and wall time.
//! Besides the human-readable table, the bench writes a JSON record with
//! one full [`MetricsSnapshot`] per run (diffed over the measured
//! section) to `BENCH_META_OPS_JSON_PATH` (default: `BENCH_meta_ops.json`
//! at the repo root) for regression tracking and CI artifact upload.
//!
//! With the lease off (`lease_ticks = 0`), every read pays a
//! ReadIndex-style quorum barrier: a heartbeat round trip before the
//! local tree may answer.

use std::sync::Arc;

use cfs::{
    Cluster, ClusterBuilder, FileType, MetaCommand, MetaNode, MetaRequest, MetaResponse,
    MetricsSnapshot, PartitionId, RaftConfig,
};

const SCHEMA_VERSION: u32 = 2;
const CREATES: u64 = 64;
const STATS: u64 = 200;

struct Run {
    /// All creates queued inside one round window (one frame) rather than
    /// issued one blocking write at a time (one frame each).
    burst: bool,
    lease: bool,
    raft_rounds: u64,
    lease_reads: u64,
    quorum_reads: u64,
    elapsed_ms: f64,
    /// Registry diff over the measured section only.
    metrics: MetricsSnapshot,
}

impl Run {
    fn to_json(&self) -> String {
        format!(
            "{{\"burst\":{},\"lease\":{},\"creates\":{CREATES},\
             \"raft_rounds\":{},\"stat_reads\":{STATS},\"lease_reads\":{},\
             \"quorum_reads\":{},\"elapsed_ms\":{:.3},\"metrics_snapshot\":{}}}",
            self.burst,
            self.lease,
            self.raft_rounds,
            self.lease_reads,
            self.quorum_reads,
            self.elapsed_ms,
            self.metrics.to_json()
        )
    }
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

fn run(burst: bool, lease: bool) -> Run {
    let raft_config = RaftConfig {
        lease_ticks: if lease {
            RaftConfig::default().lease_ticks
        } else {
            0
        },
        ..RaftConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .raft_config(raft_config)
        .build()
        .unwrap();
    cluster.create_volume("meta-ops", 1, 4).unwrap();
    let client = cluster.mount("meta-ops").unwrap();
    let root = client.root();
    let ino = client.create(root, "probe").unwrap().id;
    cluster.settle(200);
    let (pid, leader) = meta_partition_leader(&cluster);

    let before = cluster.metrics_snapshot();
    let t0 = std::time::Instant::now();

    // Write phase. The burst is queued whole before the next raft round
    // and rides one frame; serial blocking writes each wait for their own
    // frame to commit, so nothing is left to coalesce.
    let cmd = |i: u64| MetaCommand::CreateInode {
        file_type: FileType::File,
        link_target: vec![],
        now_ns: i,
    };
    if burst {
        let tickets: Vec<u64> = (0..CREATES)
            .map(|i| leader.enqueue_write(pid, &cmd(i)).unwrap())
            .collect();
        cluster.settle(400);
        for t in tickets {
            leader
                .take_write_result(t)
                .expect("ticket resolved")
                .expect("create applied");
        }
    } else {
        for i in 0..CREATES {
            leader.write(pid, &cmd(i)).unwrap();
        }
    }

    // Steady-state stat loop through the client (cached leader routing).
    for _ in 0..STATS {
        client.stat(ino).unwrap();
    }

    let elapsed = t0.elapsed();
    let metrics = cluster.metrics_snapshot().diff(&before);
    Run {
        burst,
        lease,
        raft_rounds: metrics.counter("raft.proposals"),
        lease_reads: metrics.counter("meta.lease_reads"),
        quorum_reads: metrics.counter("meta.quorum_reads"),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        metrics,
    }
}

fn main() {
    println!("\n== Ablation A5: metadata hot path (S2.1.3) ==");
    println!("{CREATES} concurrent creates on one partition + {STATS} steady-state stats\n");
    println!("   burst  lease   raft rounds   rounds/create   lease reads   quorum reads     ms");
    let mut runs = Vec::new();
    for (burst, lease) in [(true, true), (true, false), (false, true), (false, false)] {
        let r = run(burst, lease);
        println!(
            "{:>8}  {:>5}   {:>11}   {:>13.3}   {:>11}   {:>12}   {:>4.0}",
            r.burst,
            r.lease,
            r.raft_rounds,
            r.raft_rounds as f64 / CREATES as f64,
            r.lease_reads,
            r.quorum_reads,
            r.elapsed_ms
        );
        // Each axis must actually do its job, in both directions.
        if burst {
            assert!(
                r.raft_rounds < CREATES / 4,
                "group commit must coalesce the burst ({} rounds for {CREATES} creates)",
                r.raft_rounds
            );
        } else {
            assert!(
                r.raft_rounds >= CREATES,
                "a serial create is alone in its frame: one round each ({} rounds)",
                r.raft_rounds
            );
        }
        if lease {
            assert_eq!(
                r.quorum_reads, 0,
                "healthy leader serves all reads by lease"
            );
            assert_eq!(r.lease_reads, STATS);
        } else {
            assert_eq!(r.lease_reads, 0, "lease disabled: no fast-path reads");
            assert_eq!(r.quorum_reads, STATS);
        }
        runs.push(r);
    }

    let json = format!(
        "{{\"bench\":\"ablation_meta_ops\",\"schema_version\":{SCHEMA_VERSION},\
         \"creates\":{CREATES},\"stat_reads\":{STATS},\"runs\":[{}]}}",
        runs.iter().map(Run::to_json).collect::<Vec<_>>().join(",")
    );
    let json_path = std::env::var("BENCH_META_OPS_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_meta_ops.json").to_string()
    });
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nmetrics JSON written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}; emitting to stdout\n{json}"),
    }

    let full = &runs[0];
    let bare = &runs[3];
    println!(
        "\nconclusion: group commit spends {:.2} raft rounds/create on a burst vs {:.2} one at a time,",
        full.raft_rounds as f64 / CREATES as f64,
        bare.raft_rounds as f64 / CREATES as f64
    );
    println!("and the lease turns every steady-state read into a local answer (S2.1.3).");
}
