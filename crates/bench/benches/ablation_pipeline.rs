//! Ablation A4 (§2.7.1): windowed append streaming + batched meta sync.
//!
//! Runs the real in-process stack end to end (resource manager, meta +
//! data subsystems, client) with a simulated 1 ms per-call latency on the
//! data fabric — the round trip a real deployment pays and the thing a
//! pipelined sender hides. Streams a large sequential append at pipeline
//! depths 1 (fully synchronous baseline), 4 (default) and 8, crossed with
//! meta-sync cadences, reporting throughput, blocking round-trip waits
//! per packet, and meta round trips. Throughput is measured on the shared
//! *virtual* fabric clock (the 1 ms/call is scheduled ticks, not sleeps),
//! so the ablation isolates protocol structure from host noise. Besides the human-readable table,
//! the bench writes a JSON record with one full [`MetricsSnapshot`] per
//! run (diffed over the measured section) to `BENCH_PIPELINE_JSON_PATH`
//! (default: `BENCH_pipeline.json` at the repo root) for regression
//! tracking and CI artifact upload.
//!
//! Note the structural ceiling: chain forwarding stays ordered per
//! partition (leader order, §2.7.1), so only the client→leader leg and
//! the leader's local applies overlap across a window; the two downstream
//! hops remain serial per packet. Depth 4 therefore approaches the
//! 3-hops→2-hops bound rather than a full 4x.

use std::time::Duration;

use bytes::Bytes;

use cfs::{ClientOptions, ClusterBuilder, MetricsSnapshot};

const SCHEMA_VERSION: u32 = 1;

struct Run {
    depth: u32,
    meta_every: u32,
    mib_s: f64,
    waits: u64,
    packets: u64,
    meta_syncs: u64,
    /// Registry diff over the measured section only: what this
    /// configuration actually cost, per subsystem, per route.
    metrics: MetricsSnapshot,
}

impl Run {
    fn to_json(&self) -> String {
        format!(
            "{{\"depth\":{},\"meta_sync_every\":{},\"mib_s\":{:.3},\
             \"window_waits\":{},\"packets_sent\":{},\"meta_syncs\":{},\
             \"metrics_snapshot\":{}}}",
            self.depth,
            self.meta_every,
            self.mib_s,
            self.waits,
            self.packets,
            self.meta_syncs,
            self.metrics.to_json()
        )
    }
}

fn run(depth: u32, meta_every: u32, total: usize, calls: usize) -> Run {
    let cluster = ClusterBuilder::new().data_nodes(4).build().unwrap();
    cluster.create_volume("pipe", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "pipe",
            ClientOptions {
                pipeline_depth: depth,
                meta_sync_every: meta_every,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let root = client.root();
    client.create(root, "bench.bin").unwrap();
    let mut fh = client.open(root, "bench.bin").unwrap();

    // Latency goes on after setup so only the measured data path pays it.
    cluster.set_data_latency(Duration::from_millis(1));
    let per_call = total / calls;
    let body = Bytes::from(vec![0xABu8; per_call]);
    let before = cluster.metrics_snapshot();
    let v0 = cluster.virtual_now_ns();
    for _ in 0..calls {
        client.write_bytes(&mut fh, body.clone()).unwrap();
    }
    client.close(&mut fh).unwrap();
    // Latency is charged to the shared fabric clock, not the wall clock:
    // throughput is virtual time, so host noise cannot move the numbers.
    let virtual_elapsed_ns = cluster.virtual_now_ns() - v0;
    let metrics = cluster.metrics_snapshot().diff(&before);

    let s = client.data_path_stats();
    Run {
        depth,
        meta_every,
        mib_s: total as f64 / (1 << 20) as f64 / (virtual_elapsed_ns as f64 / 1e9),
        waits: s.window_waits,
        packets: s.packets_sent,
        meta_syncs: s.meta_syncs,
        metrics,
    }
}

fn main() {
    let total = 16 * 1024 * 1024; // 16 MiB = 128 packets of 128 KiB
    let calls = 16; // 8 packets per write call

    println!("\n== Ablation A4: pipelined data path (S2.7.1) ==");
    println!("{total} B sequential append in {calls} write calls, 1 ms/call data-fabric latency\n");
    println!("depth  sync-every   MiB/s   waits/packet   meta round trips");
    let mut base = 0.0;
    let mut best = 0.0;
    let mut runs = Vec::new();
    for (depth, meta_every) in [(1, 1), (4, 1), (4, 32), (8, 32)] {
        let r = run(depth, meta_every, total, calls);
        if depth == 1 {
            base = r.mib_s;
        }
        best = f64::max(best, r.mib_s);
        println!(
            "{:>5}  {:>10}  {:>6.1}   {:>12.3}   {:>16}",
            r.depth,
            r.meta_every,
            r.mib_s,
            r.waits as f64 / r.packets as f64,
            r.meta_syncs
        );
        if depth > 1 {
            assert!(
                r.waits < r.packets,
                "depth {depth} must block fewer times than packets sent"
            );
        }
        // The always-on registry and the legacy per-client counters are
        // the same numbers seen two ways; if they drift, instrumentation
        // itself has a bug.
        assert_eq!(r.metrics.counter("client.packets_sent"), r.packets);
        assert_eq!(r.metrics.counter("client.meta_syncs"), r.meta_syncs);
        runs.push(r);
    }

    // Machine-readable record with the full per-run MetricsSnapshot, for
    // regression tracking and CI artifact upload. Metrics stay on during
    // the measured section — the relaxed-atomic counters are the cost.
    let json = format!(
        "{{\"bench\":\"ablation_pipeline\",\"schema_version\":{SCHEMA_VERSION},\
         \"total_bytes\":{total},\"write_calls\":{calls},\
         \"baseline_mib_s\":{base:.3},\"best_mib_s\":{best:.3},\"runs\":[{}]}}",
        runs.iter().map(Run::to_json).collect::<Vec<_>>().join(",")
    );
    let json_path = std::env::var("BENCH_PIPELINE_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json").to_string()
    });
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nmetrics JSON written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}; emitting to stdout\n{json}"),
    }
    assert!(
        best > base,
        "pipelined depths must beat the synchronous baseline ({best:.1} vs {base:.1} MiB/s)"
    );
    println!(
        "\nconclusion: a deep window sustains {:.2}x the synchronous baseline by",
        best / base
    );
    println!("overlapping client round trips and amortizing meta syncs (§2.7.1).");
}
