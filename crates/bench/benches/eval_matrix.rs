//! The full evaluation matrix (ROADMAP item 4): regenerate the paper's
//! fig6–fig10/table3 comparison against the Ceph baseline AND run the
//! scenario diversity the paper never measured — container-image layer
//! churn (small-file create/punch storms over the coalesced fast path)
//! and AI-training read storms (epoch-looped sequential scans through
//! the readahead block cache) — emitting one versioned `BENCH_eval.json`
//! at the repo root so the perf trajectory is tracked PR-over-PR.
//!
//! The paper matrix runs on the closed-loop simulator (virtual time, the
//! Table-1 cluster); the scenarios run on the *real* stack — a live
//! `cfs::Cluster` with every replication/consensus/cache code path
//! engaged — and double as the coalescing and read-cache ablations: the
//! layer-churn scenario must show ≥2x fewer data-fabric rounds per op
//! with coalescing on, and the warmed read-storm epochs must serve from
//! the cache instead of the fabric.
//!
//! Output:
//!  * `BENCH_eval.json` (override: `BENCH_EVAL_JSON_PATH`) — the full
//!    matrix + scenario summaries, `schema_version` pinned;
//!  * per-scenario `MetricsSnapshot` JSON under `target/eval/`
//!    (override: `BENCH_EVAL_SNAPSHOT_DIR`) for CI artifact upload.
//!
//! Naming tables on the command line (`cargo bench -p bench --bench
//! eval_matrix -- fig6 table3`) prints just those paper tables: no
//! scenarios run and no JSON is written.
//!
//! `CFS_BENCH_FULL=1` runs the 4x-longer simulator windows.

use std::fmt::Write as _;

use bench_harness::experiments::{fig10, fig6, fig7, fig8, fig9, render, table3, Cell};
use cfs::{ClientOptions, Cluster, ClusterBuilder, ClusterConfig, MetricsSnapshot};

const SCHEMA_VERSION: u32 = 1;

/// Layers created per churn round, and rounds run.
const LAYERS_PER_ROUND: usize = 48;
const CHURN_ROUNDS: usize = 6;
/// Read-storm dataset: files × packets per file, and training epochs.
const STORM_FILES: usize = 8;
const STORM_PACKETS: u64 = 32;
const STORM_EPOCHS: usize = 4;
const PACKET: u64 = 4096;

/// One paper table: filter name, printed title, generator.
type PaperTable = (&'static str, &'static str, fn(bool) -> Vec<Cell>);

/// The paper's evaluation, CFS vs Ceph on the Table-1 cluster.
const PAPER: [PaperTable; 6] = [
    ("table3", "Table 3: metadata, 8 clients x 64 procs", table3),
    ("fig6", "Figure 6: metadata, single client", fig6),
    ("fig7", "Figure 7: metadata, multi client", fig7),
    ("fig8", "Figure 8: large files, single client", fig8),
    ("fig9", "Figure 9: large files, multi client", fig9),
    ("fig10", "Figure 10: small files", fig10),
];

fn cells_json(cells: &[Cell]) -> String {
    let mut out = String::from("[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"test\":\"{}\",\"x_label\":\"{}\",\"x\":{},\"cfs_iops\":{:.1},\
             \"ceph_iops\":{:.1},\"improvement_pct\":{:.1}}}",
            c.test,
            c.x_label,
            c.x,
            c.cfs_iops,
            c.ceph_iops,
            c.improvement_pct()
        );
    }
    out.push(']');
    out
}

fn mean_improvement(cells: &[Cell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().map(Cell::improvement_pct).sum::<f64>() / cells.len() as f64
}

/// One real-stack scenario run, measured in virtual time.
struct ScenarioRun {
    name: &'static str,
    ops: u64,
    virtual_ns: u64,
    /// Every data-fabric hop in the window (client submissions + chain
    /// forwards): the currency the small-file fast path saves.
    data_rounds: u64,
    window: MetricsSnapshot,
}

impl ScenarioRun {
    fn rounds_per_op(&self) -> f64 {
        self.data_rounds as f64 / self.ops.max(1) as f64
    }

    fn iops(&self) -> f64 {
        if self.virtual_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.virtual_ns as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"ops\":{},\"virtual_ns\":{},\"iops\":{:.1},\
             \"data_rounds\":{},\"rounds_per_op\":{:.3},\
             \"readcache_hits\":{},\"readcache_misses\":{},\
             \"smallfile_batches\":{},\"bytes_punched\":{}}}",
            self.name,
            self.ops,
            self.virtual_ns,
            self.iops(),
            self.data_rounds,
            self.rounds_per_op(),
            self.window.counter("client.readcache.hit"),
            self.window.counter("client.readcache.miss"),
            self.window.counter("client.smallfile.batches"),
            self.window.counter("store.bytes_punched"),
        )
    }

    fn save_snapshot(&self, dir: &str) {
        let path = format!("{dir}/{}.metrics.json", self.name.replace('/', "_"));
        let _ = std::fs::create_dir_all(dir);
        match std::fs::write(&path, self.window.to_json()) {
            Ok(()) => println!("scenario snapshot written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn scenario_cluster(coalesce: bool, read_cache: bool) -> (Cluster, cfs::Client) {
    let config = ClusterConfig {
        packet_size: PACKET,
        small_file_threshold: PACKET,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new().config(config).build().unwrap();
    cluster.create_volume("eval", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "eval",
            ClientOptions {
                small_batch_max_ops: if coalesce { 16 } else { 1 },
                read_cache_capacity: if read_cache {
                    ClientOptions::default().read_cache_capacity
                } else {
                    0
                },
                ..ClientOptions::default()
            },
        )
        .unwrap();
    // Give every data hop a real round trip so virtual time advances and
    // the scenario IOPS mean something: fewer fabric rounds = less
    // virtual time for the same op count.
    cluster.set_data_latency(std::time::Duration::from_millis(2));
    (cluster, client)
}

/// Container-image layer churn: every round pushes a batch of small
/// layer blobs (create + first write ≤ 4 KB) and garbage-collects half
/// of the previous round's layers (unlink → queued punch-hole →
/// `process_deletions` storm). Doubles as the coalescing ablation.
fn layer_churn(coalesce: bool) -> ScenarioRun {
    let (cluster, client) = scenario_cluster(coalesce, true);
    let root = client.root();
    let before = cluster.metrics_snapshot();
    let t0 = cluster.virtual_now_ns();
    let mut ops = 0u64;
    let mut prev: Vec<String> = Vec::new();
    for round in 0..CHURN_ROUNDS {
        let mut this: Vec<String> = Vec::new();
        let mut handles = Vec::new();
        for i in 0..LAYERS_PER_ROUND {
            let name = format!("layer-{round}-{i}");
            client.create(root, &name).unwrap();
            handles.push((client.open(root, &name).unwrap(), i));
            this.push(name);
            ops += 1;
        }
        for (h, i) in handles.iter_mut() {
            let len = 1 + (*i * 37 + round * 11) % PACKET as usize;
            client.write(h, &vec![(*i % 251) as u8; len]).unwrap();
            ops += 1;
        }
        for (h, _) in handles.iter_mut() {
            client.close(h).unwrap();
        }
        // GC half of the previous image's layers: a punch-hole storm.
        for name in prev.drain(..).take(LAYERS_PER_ROUND / 2) {
            client.unlink(root, &name).unwrap();
            ops += 1;
        }
        client.process_deletions();
        prev = this;
    }
    let window = cluster.metrics_snapshot().diff(&before);
    ScenarioRun {
        name: if coalesce {
            "layer_churn/coalesced"
        } else {
            "layer_churn/sequential"
        },
        ops,
        virtual_ns: cluster.virtual_now_ns() - t0,
        data_rounds: window.counter_sum("net.calls{fabric=data"),
        window,
    }
}

/// AI-training read storm: a shared dataset written once, then epoch
/// after epoch of whole-file sequential scans from the trainer. Doubles
/// as the read-cache ablation: warmed epochs must be served by the
/// client block cache, not the data fabric.
fn read_storm(read_cache: bool) -> ScenarioRun {
    let (cluster, client) = scenario_cluster(false, read_cache);
    let root = client.root();
    // Ingest the dataset (not part of the measured storm window).
    let len = (PACKET * STORM_PACKETS) as usize;
    for f in 0..STORM_FILES {
        let name = format!("shard-{f}");
        client.create(root, &name).unwrap();
        let mut h = client.open(root, &name).unwrap();
        let body: Vec<u8> = (0..len).map(|i| ((i + f) % 251) as u8).collect();
        client.write(&mut h, &body).unwrap();
        client.close(&mut h).unwrap();
    }
    let before = cluster.metrics_snapshot();
    let t0 = cluster.virtual_now_ns();
    let mut ops = 0u64;
    // 16 KB fetches, 4 blocks per call, straight through each shard.
    let chunk = (PACKET * 4) as usize;
    for _epoch in 0..STORM_EPOCHS {
        for f in 0..STORM_FILES {
            let h = client.open(root, &format!("shard-{f}")).unwrap();
            let mut off = 0u64;
            while off < len as u64 {
                let got = client.read_at(&h, off, chunk).unwrap();
                assert_eq!(got.len(), chunk.min(len - off as usize));
                off += chunk as u64;
                ops += 1;
            }
        }
    }
    let window = cluster.metrics_snapshot().diff(&before);
    ScenarioRun {
        name: if read_cache {
            "read_storm/cached"
        } else {
            "read_storm/uncached"
        },
        ops,
        virtual_ns: cluster.virtual_now_ns() - t0,
        data_rounds: window.counter_sum("net.calls{fabric=data"),
        window,
    }
}

fn main() {
    let quick = std::env::var("CFS_BENCH_FULL").is_err();
    // Tables named on the command line (cargo's own `--bench` flag is not
    // a name): print those and stop.
    let named: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if !named.is_empty() {
        for name in &named {
            let Some((_, title, table)) = PAPER.iter().find(|(key, ..)| key == name) else {
                let known: Vec<&str> = PAPER.iter().map(|(key, ..)| *key).collect();
                eprintln!("unknown table {name:?}; known: {}", known.join(" "));
                std::process::exit(2);
            };
            let cells = table(quick);
            println!("{}", render(title, &cells));
            println!("mean improvement: {:.0}%", mean_improvement(&cells));
        }
        return;
    }
    // Scenario-only mode for fast smoke runs (CI per-PR); the paper
    // matrix cells come out empty but the schema stays identical.
    let scenarios_only = std::env::var("CFS_EVAL_SCENARIOS_ONLY").is_ok();

    if !scenarios_only {
        println!("running the paper matrix (quick={quick})...");
    }
    let [t3, f6, f7, f8, f9, f10] = PAPER.map(|(_, title, table)| {
        let cells = if scenarios_only {
            Vec::new()
        } else {
            table(quick)
        };
        println!("{}", render(title, &cells));
        cells
    });

    // ------------------------------------------------------------------
    // Scenario diversity on the real stack.
    // ------------------------------------------------------------------
    println!("\nrunning real-stack scenarios...");
    let churn_on = layer_churn(true);
    let churn_off = layer_churn(false);
    let storm_on = read_storm(true);
    let storm_off = read_storm(false);

    println!("\nscenario              ops     virt-iops   data rounds   rounds/op");
    for s in [&churn_on, &churn_off, &storm_on, &storm_off] {
        println!(
            "{:<20} {:>5}   {:>9.0}   {:>11}   {:>9.3}",
            s.name,
            s.ops,
            s.iops(),
            s.data_rounds,
            s.rounds_per_op()
        );
    }

    // The acceptance ablations, enforced here so a regression fails the
    // nightly run, not just drifts the JSON.
    let saved = churn_off.rounds_per_op() / churn_on.rounds_per_op();
    assert!(
        saved >= 2.0,
        "layer churn: coalescing saved less than 2x fabric rounds/op \
         ({:.3} on vs {:.3} off = {saved:.2}x)",
        churn_on.rounds_per_op(),
        churn_off.rounds_per_op()
    );
    let warm_hits = storm_on.window.counter("client.readcache.hit");
    assert!(
        warm_hits > 0 && storm_on.data_rounds < storm_off.data_rounds,
        "read storm: the cache saved no fabric reads \
         ({} vs {} rounds, {warm_hits} hits)",
        storm_on.data_rounds,
        storm_off.data_rounds
    );

    // ------------------------------------------------------------------
    // Emit the versioned trajectory record + per-scenario snapshots.
    // ------------------------------------------------------------------
    let json = format!(
        "{{\"bench\":\"eval_matrix\",\"schema_version\":{SCHEMA_VERSION},\"quick\":{quick},\
         \"paper\":{{\
           \"table3\":{},\"fig6\":{},\"fig7\":{},\"fig8\":{},\"fig9\":{},\"fig10\":{}}},\
         \"mean_improvement_pct\":{{\
           \"table3\":{:.1},\"fig6\":{:.1},\"fig7\":{:.1},\"fig8\":{:.1},\
           \"fig9\":{:.1},\"fig10\":{:.1}}},\
         \"scenarios\":[{},{},{},{}],\
         \"coalescing_rounds_per_op_improvement_x\":{saved:.2}}}",
        cells_json(&t3),
        cells_json(&f6),
        cells_json(&f7),
        cells_json(&f8),
        cells_json(&f9),
        cells_json(&f10),
        mean_improvement(&t3),
        mean_improvement(&f6),
        mean_improvement(&f7),
        mean_improvement(&f8),
        mean_improvement(&f9),
        mean_improvement(&f10),
        churn_on.to_json(),
        churn_off.to_json(),
        storm_on.to_json(),
        storm_off.to_json(),
    );
    let json_path = std::env::var("BENCH_EVAL_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json").to_string()
    });
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nevaluation JSON written to {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}; emitting to stdout\n{json}"),
    }
    let snap_dir = std::env::var("BENCH_EVAL_SNAPSHOT_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/eval").to_string());
    for s in [&churn_on, &churn_off, &storm_on, &storm_off] {
        s.save_snapshot(&snap_dir);
    }

    println!("\nconclusion: coalescing cuts layer-churn fabric rounds/op {saved:.2}x; the warmed");
    println!(
        "read storm serves {warm_hits} block hits from the client cache ({} vs {} fabric rounds).",
        storm_on.data_rounds, storm_off.data_rounds
    );
}
