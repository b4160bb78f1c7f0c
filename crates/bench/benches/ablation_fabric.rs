//! Ablation A5: the event-driven fabric (submit/poll completions on the
//! sim clock) versus synchronous calls, and fleet scale-out.
//!
//! Two axes:
//!
//!  * **mode** — the same sequential append streamed depth-1 (every packet
//!    a blocking `call`) versus depth-8 (a submit-N/poll window on the
//!    completion queue), at 1 ms scheduled per-call latency. Throughput is
//!    virtual MiB/s on the shared fabric clock, so the gap is protocol
//!    structure, not host noise.
//!  * **fleet size** — the multi-tenant fairness scenario from
//!    `tests/fleet.rs` at 512, 2 048 and 10 000 live mounts: 3/4 steady
//!    tenant, 1/4 abusive tenant (8× demand) clipped by a token bucket.
//!    At every size the fabrics must spawn zero threads and the steady
//!    tenant's p99 queue wait must stay within 2× its solo baseline.
//!
//! Writes a versioned JSON record to `BENCH_FABRIC_JSON_PATH` (default:
//! `BENCH_fabric.json` at the repo root, committed so regressions show up
//! in review) — schema version bumps whenever a field changes meaning.

use std::time::Duration;

use bytes::Bytes;

use cfs::fleet::{run_fleet, run_fleet_sim, BucketConfig, FleetConfig, TenantSpec};
use cfs::{ClientOptions, ClusterBuilder};

const SCHEMA_VERSION: u32 = 1;
const FAIRNESS_FACTOR: u64 = 2;
const ROUND_NS: u64 = 1_000_000;

struct ModeRun {
    mode: &'static str,
    depth: u32,
    mib_s: f64,
    packets: u64,
    window_waits: u64,
    virtual_elapsed_ns: u64,
    threads_spawned: u64,
}

impl ModeRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"depth\":{},\"virtual_mib_s\":{:.3},\
             \"packets\":{},\"window_waits\":{},\"virtual_elapsed_ns\":{},\
             \"threads_spawned\":{}}}",
            self.mode,
            self.depth,
            self.mib_s,
            self.packets,
            self.window_waits,
            self.virtual_elapsed_ns,
            self.threads_spawned
        )
    }
}

/// Stream `total` bytes of sequential append at `depth`, measuring on the
/// virtual fabric clock.
fn run_mode(mode: &'static str, depth: u32, total: usize) -> ModeRun {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("fabric", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "fabric",
            ClientOptions {
                pipeline_depth: depth,
                meta_sync_every: 32,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let root = client.root();
    client.create(root, "bench.bin").unwrap();
    let mut fh = client.open(root, "bench.bin").unwrap();

    cluster.set_data_latency(Duration::from_millis(1));
    let calls = 8;
    let body = Bytes::from(vec![0xABu8; total / calls]);
    let v0 = cluster.virtual_now_ns();
    for _ in 0..calls {
        client.write_bytes(&mut fh, body.clone()).unwrap();
    }
    client.close(&mut fh).unwrap();
    let virtual_elapsed_ns = cluster.virtual_now_ns() - v0;

    let f = cluster.fabrics();
    let threads_spawned =
        f.master.threads_spawned() + f.meta.threads_spawned() + f.data.threads_spawned();
    let s = client.data_path_stats();
    ModeRun {
        mode,
        depth,
        mib_s: total as f64 / (1 << 20) as f64 / (virtual_elapsed_ns as f64 / 1e9),
        packets: s.packets_sent,
        window_waits: s.window_waits,
        virtual_elapsed_ns,
        threads_spawned,
    }
}

struct FleetRun {
    mounts: usize,
    ops_executed: u64,
    steady_p99_ns: u64,
    solo_p99_ns: u64,
    abusive_throttled: u64,
    threads_spawned: u64,
    wall_ms: u128,
}

impl FleetRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"mounts\":{},\"ops_executed\":{},\"steady_p99_ns\":{},\
             \"solo_p99_ns\":{},\"abusive_throttled\":{},\
             \"threads_spawned\":{},\"wall_ms\":{}}}",
            self.mounts,
            self.ops_executed,
            self.steady_p99_ns,
            self.solo_p99_ns,
            self.abusive_throttled,
            self.threads_spawned,
            self.wall_ms
        )
    }
}

/// The fairness scenario at `scale` mounts (mirrors `tests/fleet.rs`).
fn run_fleet_at(scale: usize) -> FleetRun {
    let steady_mounts = scale * 3 / 4;
    let abusive_mounts = scale - steady_mounts;
    let cfg = FleetConfig {
        rounds: 16,
        capacity_per_round: (steady_mounts + abusive_mounts) as u64,
        round_ns: ROUND_NS,
    };
    let steady = TenantSpec {
        name: "steady",
        mounts: steady_mounts,
        demand_per_mount: 1,
        bucket: None,
    };
    let abusive = TenantSpec {
        name: "abusive",
        mounts: abusive_mounts,
        demand_per_mount: 8,
        bucket: Some(BucketConfig {
            burst: abusive_mounts as u64,
            refill_per_round: abusive_mounts as u64,
        }),
    };

    let solo = run_fleet_sim(std::slice::from_ref(&steady), &cfg);
    let solo_p99_ns = solo.reports[0].wait_p99_ns;

    let cluster = ClusterBuilder::new().build().unwrap();
    let t0 = std::time::Instant::now();
    let report = run_fleet(&cluster, &[steady, abusive], &cfg).unwrap();
    let wall_ms = t0.elapsed().as_millis();

    assert_eq!(report.mounts, scale);
    assert_eq!(report.op_failures, 0, "no op may fail on a healthy cluster");
    FleetRun {
        mounts: scale,
        ops_executed: report.ops_executed,
        steady_p99_ns: report.reports[0].wait_p99_ns,
        solo_p99_ns,
        abusive_throttled: report.reports[1].throttled,
        threads_spawned: report.threads_spawned,
        wall_ms,
    }
}

fn main() {
    println!("\n== Ablation A5: event-driven fabric (submit/poll on the sim clock) ==\n");

    let total = 4 * 1024 * 1024;
    println!("mode         depth   virtual MiB/s   waits/packet");
    let sync = run_mode("sync-call", 1, total);
    let pipelined = run_mode("submit-poll", 8, total);
    for r in [&sync, &pipelined] {
        println!(
            "{:<12} {:>5}   {:>13.1}   {:>12.3}",
            r.mode,
            r.depth,
            r.mib_s,
            r.window_waits as f64 / r.packets as f64
        );
        assert_eq!(r.threads_spawned, 0, "{}: fabric spawned threads", r.mode);
    }
    assert!(
        pipelined.mib_s > sync.mib_s,
        "submit/poll must beat synchronous calls ({:.1} vs {:.1} virtual MiB/s)",
        pipelined.mib_s,
        sync.mib_s
    );

    println!("\nfleet scale-out (3/4 steady + 1/4 abusive, bucketed):");
    println!("mounts   ops      steady p99   solo p99   fairness   threads   wall");
    let mut fleets = Vec::new();
    for scale in [512, 2_048, 10_000] {
        let r = run_fleet_at(scale);
        println!(
            "{:>6}   {:>6}   {:>8}ns   {:>6}ns   {:>7.2}x   {:>7}   {:>4}ms",
            r.mounts,
            r.ops_executed,
            r.steady_p99_ns,
            r.solo_p99_ns,
            r.steady_p99_ns as f64 / r.solo_p99_ns as f64,
            r.threads_spawned,
            r.wall_ms
        );
        assert_eq!(
            r.threads_spawned, 0,
            "{} mounts: the fabrics must not spawn threads",
            r.mounts
        );
        assert!(
            r.steady_p99_ns <= FAIRNESS_FACTOR * r.solo_p99_ns,
            "{} mounts: steady p99 {}ns blew the {}x fairness bound (solo {}ns)",
            r.mounts,
            r.steady_p99_ns,
            FAIRNESS_FACTOR,
            r.solo_p99_ns
        );
        assert!(
            r.abusive_throttled > 0,
            "{} mounts: the bucket never clipped the abuser",
            r.mounts
        );
        fleets.push(r);
    }

    let json = format!(
        "{{\"bench\":\"ablation_fabric\",\"schema_version\":{SCHEMA_VERSION},\
         \"fairness_factor\":{FAIRNESS_FACTOR},\"modes\":[{}],\"fleets\":[{}]}}",
        [&sync, &pipelined]
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(","),
        fleets
            .iter()
            .map(FleetRun::to_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    let json_path = std::env::var("BENCH_FABRIC_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fabric.json").to_string()
    });
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nmetrics JSON written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}; emitting to stdout\n{json}"),
    }
    println!(
        "\nconclusion: submit/poll sustains {:.2}x the synchronous baseline, and a",
        pipelined.mib_s / sync.mib_s
    );
    println!("10,000-mount fleet runs on zero fabric threads with bounded tenant p99.");
}
