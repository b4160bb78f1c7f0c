//! Ablation A3 (§2.5.1): Raft sets on a real cluster.
//!
//! Builds two identical 12-meta-node clusters and splits the volume's
//! seed meta partition nine times through the real Algorithm 1 path
//! (master-committed cut + successor placement), ending at 10x the seed
//! partition count. The only difference between the runs is placement:
//!
//!  * `raft_set_size = 3` — replicas confined to four sets of three, so
//!    each node's consensus fan-out is bounded by its set;
//!  * `raft_set_size = 12` — one set spanning the whole cluster, i.e. no
//!    confinement: the salt-rotated utilization picker spreads replicas
//!    over all nodes and per-node fan-out grows with partition count.
//!
//! After the splits, a fixed settle window measures steady-state wire
//! traffic (MultiRaft coalesced messages) and per-node distinct peers.
//!
//! Writes a versioned JSON record to `BENCH_RAFTSETS_JSON_PATH` (default:
//! `BENCH_raftsets.json` at the repo root, refreshed nightly in CI) —
//! schema version bumps whenever a field changes meaning.

use cfs::{ClusterBuilder, ClusterConfig};

const SCHEMA_VERSION: u32 = 1;
const META_NODES: usize = 12;
const SPLITS: u64 = 9;
const SETTLE_WINDOW: u64 = 2_000;

struct Run {
    label: &'static str,
    set_size: usize,
    partitions: u64,
    peers_max: usize,
    peers_mean: f64,
    wire_msgs: u64,
    raw_msgs: u64,
    heartbeats_coalesced: u64,
    placements: u64,
    fallbacks: u64,
}

impl Run {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"set_size\":{},\"meta_nodes\":{META_NODES},\
             \"partitions\":{},\"peers_max\":{},\"peers_mean\":{:.2},\
             \"wire_msgs\":{},\"raw_msgs\":{},\"heartbeats_coalesced\":{},\
             \"placements\":{},\"fallbacks\":{}}}",
            self.label,
            self.set_size,
            self.partitions,
            self.peers_max,
            self.peers_mean,
            self.wire_msgs,
            self.raw_msgs,
            self.heartbeats_coalesced,
            self.placements,
            self.fallbacks
        )
    }
}

/// Bring up a cluster at `set_size`, split to 10x partitions, measure.
fn run(label: &'static str, set_size: usize) -> Run {
    let config = ClusterConfig {
        raft_set_size: set_size,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .meta_nodes(META_NODES)
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

    for _ in 0..SPLITS {
        assert_eq!(
            cluster.split_newest_meta_partition(vol, true).unwrap(),
            2,
            "each split plans a cut and a successor"
        );
        cluster.settle(100);
    }
    cluster.heartbeat().unwrap();
    cluster.settle(200);

    // Steady-state traffic over a fixed window: every group is elected,
    // so what flows is heartbeat upkeep — the cost Raft sets bound.
    let before: Vec<_> = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.multiraft_stats())
        .collect();
    cluster.settle(SETTLE_WINDOW);
    let mut wire_msgs = 0;
    let mut raw_msgs = 0;
    let mut heartbeats_coalesced = 0;
    for (n, b) in cluster.meta_nodes().iter().zip(&before) {
        let s = n.multiraft_stats();
        wire_msgs += s.wire_messages_sent - b.wire_messages_sent;
        raw_msgs += s.raw_messages_generated - b.raw_messages_generated;
        heartbeats_coalesced += s.heartbeats_coalesced - b.heartbeats_coalesced;
    }

    let peers: Vec<usize> = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.raft_distinct_peers())
        .collect();
    let snap = cluster.metrics_snapshot();
    Run {
        label,
        set_size,
        partitions: 1 + SPLITS,
        peers_max: peers.iter().copied().max().unwrap_or(0),
        peers_mean: peers.iter().sum::<usize>() as f64 / peers.len() as f64,
        wire_msgs,
        raw_msgs,
        heartbeats_coalesced,
        placements: snap.counter("master.raftset.placements"),
        fallbacks: snap.counter("master.raftset.fallbacks"),
    }
}

fn main() {
    println!("\n== Ablation A3: raft sets at 10x partitions (S2.5.1) ==");
    println!(
        "{META_NODES} meta nodes, 1 seed partition split {SPLITS}x, \
         {SETTLE_WINDOW}-tick steady-state window\n"
    );

    let confined = run("raft sets (3)", 3);
    let unconfined = run("no sets (one set of 12)", META_NODES);

    println!("placement                 peers max   peers mean   wire msgs   raw msgs   coalesced");
    for r in [&confined, &unconfined] {
        println!(
            "{:<25} {:>9}   {:>10.2}   {:>9}   {:>8}   {:>9}",
            r.label, r.peers_max, r.peers_mean, r.wire_msgs, r.raw_msgs, r.heartbeats_coalesced
        );
    }

    // The claims the budget test pins, re-checked at bench scale: with
    // sets every placement stays set-local and fan-out is set-bounded.
    assert_eq!(confined.fallbacks, 0, "a placement spilled across sets");
    assert!(
        confined.peers_max < confined.set_size,
        "set-confined fan-out {} exceeds set bound {}",
        confined.peers_max,
        confined.set_size - 1
    );
    assert!(
        unconfined.peers_max > confined.peers_max,
        "unconfined placement should fan out wider ({} vs {})",
        unconfined.peers_max,
        confined.peers_max
    );

    let json = format!(
        "{{\"bench\":\"ablation_raftsets\",\"schema_version\":{SCHEMA_VERSION},\
         \"splits\":{SPLITS},\"settle_window\":{SETTLE_WINDOW},\"runs\":[{}]}}",
        [&confined, &unconfined]
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    let json_path = std::env::var("BENCH_RAFTSETS_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_raftsets.json").to_string()
    });
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nmetrics JSON written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}; emitting to stdout\n{json}"),
    }
    println!(
        "\nconclusion: at {}x partitions raft sets hold per-node fan-out at {} \
         peers ({} without confinement) — heartbeat and hub work stays O(set size).",
        1 + SPLITS,
        confined.peers_max,
        unconfined.peers_max
    );
}
