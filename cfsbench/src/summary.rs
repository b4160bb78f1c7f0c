//! Metric tables, the run loop, and the folding of rounds into the
//! metrics a run reports.
//!
//! `END_TO_END` and `per_layer_defs()` are the same lists as in the repository's
//! `BENCHMARK.json` (a unit test keeps them equal). Every workload
//! reports every metric; what a generic name means on each workload is in
//! the README's metric table.

use std::path::Path;
use std::time::Instant;

use cfs::MetricsSnapshot;

use crate::gen::round_seed;
use crate::layers;
use crate::stats::{median, percentile, supported_tail, window_too_short};
use crate::trace::{self, Fold, Layer};
use crate::workloads::{run_round, Phase, Round, Workload, PHASES, PHASE_NAMES, VIRTUAL_HOP};

/// `--seconds` of the scoreboard (`run_seconds` in `BENCHMARK.json`).
/// A shorter run is a smoke run: tagged `quick`, never a baseline.
pub const STANDARD_SECONDS: f64 = 25.0;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

/// The timing bounds are as wide as the contract allows because this
/// sandbox's speed drifts by more than a tenth between runs of unchanged
/// code (README, "Seed-commit baseline").
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("write_ops_s", "1/s", true, 0.25),
    e2e("read_ops_s", "1/s", true, 0.25),
    e2e("delete_ops_s", "1/s", true, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.25),
    e2e("disk_kib_per_op", "KiB", false, 0.10),
];

/// The six routes whose handler latency is reported.
const ROUTES: [&str; 6] = [
    "meta.read",
    "meta.write",
    "data.append",
    "data.read",
    "data.overwrite",
    "data.write_small",
];

/// `(name, unit)` of every per-layer metric, in output order: the span
/// shares, the route latencies (two per entry of `ROUTES`), the registry
/// counts, then the isolated probes of `layers::PROBES`.
pub fn per_layer_defs() -> Vec<(String, &'static str)> {
    let mut defs: Vec<(String, &'static str)> = SHARES
        .iter()
        .map(|(n, _)| (n.to_string(), "ratio"))
        .collect();
    defs.push(("trace.overhead_pct".into(), "%"));
    for route in ROUTES {
        defs.push((format!("{route}.handle_us_p50"), "us"));
        defs.push((format!("{route}.handle_us_p99"), "us"));
    }
    defs.extend(COUNTS.iter().map(|c| (c.name.to_string(), c.unit)));
    // Timings that every workload cannot report, or that do not repeat
    // within a tenth: demoted from the end-to-end set.
    defs.push(("client.readdir_entries_s".into(), "1/s"));
    defs.push(("write_tail_us".into(), "us"));
    defs.extend(layers::PROBES.iter().map(|p| (p.name.to_string(), p.unit)));
    defs
}

const SHARES: [(&str, Layer); 5] = [
    ("client.self_share", Layer::Client),
    ("meta.handle_share", Layer::Meta),
    ("data.handle_share", Layer::Data),
    ("data.forward_share", Layer::DataForward),
    ("master.handle_share", Layer::Master),
];

/// A count taken from the registry windows of one round.
struct CountDef {
    name: &'static str,
    unit: &'static str,
    value: fn(&Round) -> f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn window(r: &Round, p: Phase) -> &MetricsSnapshot {
    &r.windows[p as usize].registry
}

/// Events of `counter` (or of every counter with that prefix, when it
/// carries a label) in the write window, per write op.
fn per_write_op(r: &Round, counter: &str) -> f64 {
    let w = window(r, Phase::Write);
    let n = if counter.contains('{') {
        w.counter_sum(counter)
    } else {
        w.counter(counter)
    };
    ratio(n, r.windows[Phase::Write as usize].units)
}

/// Fabric calls with the label prefix `calls` in the read window, per
/// read op.
fn per_read_op(r: &Round, calls: &str) -> f64 {
    ratio(
        window(r, Phase::Read).counter_sum(calls),
        r.windows[Phase::Read as usize].units,
    )
}

fn hit_ratio(w: &MetricsSnapshot, hit: &str, miss: &str) -> f64 {
    let hits = w.counter(hit);
    ratio(hits, hits + w.counter(miss))
}

const fn count(name: &'static str, unit: &'static str, value: fn(&Round) -> f64) -> CountDef {
    CountDef { name, unit, value }
}

/// Counts per write op come from the write window, read ratios from the
/// read window, `store.bytes_punched` from the delete window, and the
/// plain event counts from the whole round, set-up included.
const COUNTS: [CountDef; 30] = [
    count("net.meta_calls_per_op", "count", |r| {
        per_write_op(r, "net.calls{fabric=meta,")
    }),
    count("net.data_calls_per_op", "count", |r| {
        per_write_op(r, "net.calls{fabric=data,")
    }),
    count("net.master_calls_per_op", "count", |r| {
        per_write_op(r, "net.calls{fabric=master,")
    }),
    count("net.critical_rounds_per_op", "count", |r| {
        let w = &r.windows[Phase::Write as usize];
        ratio(w.virtual_ns, w.units * VIRTUAL_HOP.as_nanos() as u64)
    }),
    count("net.meta_calls_per_read", "count", |r| {
        per_read_op(r, "net.calls{fabric=meta,")
    }),
    count("net.data_calls_per_read", "count", |r| {
        per_read_op(r, "net.calls{fabric=data,")
    }),
    count("net.failures", "count", |r| {
        r.whole.counter_sum("net.failures{") as f64
    }),
    count("raft.proposals_per_op", "count", |r| {
        per_write_op(r, "raft.proposals")
    }),
    count("raft.entries_appended_per_op", "count", |r| {
        per_write_op(r, "raft.entries_appended")
    }),
    count("raft.entries_per_batch", "count", |r| {
        let w = window(r, Phase::Write);
        ratio(
            w.counter("raft.batch.entries"),
            w.counter("raft.batch.commits"),
        )
    }),
    count("raft.elections", "count", |r| {
        r.whole.counter("raft.leader_elections") as f64
    }),
    count("kvwal.wal_appends_per_op", "count", |r| {
        per_write_op(r, "kvwal.wal_appends")
    }),
    count("kvwal.flushes", "count", |r| {
        r.whole.counter("kvwal.flushes") as f64
    }),
    count("kvwal.compactions", "count", |r| {
        r.whole.counter("kvwal.compactions") as f64
    }),
    count("meta.applies_per_op", "count", |r| {
        per_write_op(r, "meta.applies{")
    }),
    count("meta.lease_read_ratio", "ratio", |r| {
        hit_ratio(
            window(r, Phase::Read),
            "meta.lease_reads",
            "meta.quorum_reads",
        )
    }),
    count("meta.snapshots_taken", "count", |r| {
        r.whole.counter("meta.snapshots_taken") as f64
    }),
    count("data.chain_forwards_per_append", "count", |r| {
        let w = window(r, Phase::Write);
        ratio(
            w.counter("data.chain_forwards"),
            w.counter("data.appends_served") + w.counter("data.small_writes_served"),
        )
    }),
    count("data.gap_wait_stalls", "count", |r| {
        r.whole.counter("data.gap_wait_stalls") as f64
    }),
    count("data.overwrites_applied_per_op", "count", |r| {
        per_write_op(r, "data.overwrites_applied")
    }),
    count("store.write_amp", "ratio", |r| {
        let w = window(r, Phase::Write);
        ratio(
            w.counter("store.bytes_written") + w.counter("store.bytes_overwritten"),
            r.user_bytes,
        )
    }),
    count("store.bytes_punched", "B", |r| {
        window(r, Phase::Delete).counter("store.bytes_punched") as f64
    }),
    count("store.extents_created", "count", |r| {
        window(r, Phase::Write).counter("store.extents_created") as f64
    }),
    count("client.lookup_cache_hit_ratio", "ratio", |r| {
        hit_ratio(
            window(r, Phase::Read),
            "client.lookup_cache.hit",
            "client.lookup_cache.miss",
        )
    }),
    count("client.readcache_hit_ratio", "ratio", |r| {
        hit_ratio(
            window(r, Phase::Read),
            "client.readcache.hit",
            "client.readcache.miss",
        )
    }),
    count("client.meta_syncs_per_op", "count", |r| {
        per_write_op(r, "client.meta_syncs")
    }),
    count("client.retries", "count", |r| {
        r.whole.counter("client.retries") as f64
    }),
    count("client.packets_per_mib", "count", |r| {
        let packets = window(r, Phase::Write).counter("client.packets_sent");
        packets as f64 * (1 << 20) as f64 / r.user_bytes.max(1) as f64
    }),
    count("client.window_waits_per_packet", "count", |r| {
        let w = window(r, Phase::Write);
        ratio(
            w.counter("client.window_waits"),
            w.counter("client.packets_sent"),
        )
    }),
    count("master.commands_applied", "count", |r| {
        r.whole.counter("master.commands_applied") as f64
    }),
];

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
pub struct RunResult {
    pub workload: Workload,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Whether each count of `per_layer` repeated exactly in every round.
    /// Timings are `None`.
    pub count_repeats: Vec<Option<bool>>,
    /// Name and value of every registry count in the first measured
    /// round, whose inputs depend on the seed alone (not on how many
    /// rounds the run had time for).
    pub first_round_counts: Vec<(&'static str, f64)>,
    /// Total measured time per phase.
    pub phase_seconds: [f64; PHASES],
    /// Units per second of each phase in each round, and set-up seconds
    /// per round: the spread inside the run.
    pub round_rates: [Vec<f64>; PHASES],
    pub round_setup_s: Vec<f64>,
    /// Percentile of `write_tail_us`, median of the write latencies (µs)
    /// and their number.
    pub tail: (f64, f64, usize),
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Repeat rounds of the workload until `seconds` have passed (at least
/// three), then fold them. Round 0 warms the process up (first-touch page
/// faults make it consistently slower): its ops are checked and counted,
/// its timings are not used. In a traced run the later rounds alternate
/// between span-recording and plain, all with the virtual hop latency:
/// the plain ones give the baseline of `trace.overhead_pct`.
pub fn run(cfg: &RunConfig, data_dir: &Path, spans_path: &Path) -> RunResult {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut fold = Fold::default();
    while rounds.len() < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
        let n = rounds.len() as u64;
        let traced = cfg.trace && n % 2 == 1;
        let mut round = run_round(
            cfg.workload,
            round_seed(cfg.seed, n),
            traced,
            cfg.trace,
            data_dir,
        );
        if traced {
            fold.add(&round.spans);
            if n == 1 {
                if let Err(e) = trace::write_jsonl(spans_path, &round.spans) {
                    eprintln!("cfsbench: cannot write {}: {e}", spans_path.display());
                }
            }
        }
        round.spans = Vec::new();
        rounds.push(round);
    }
    let probes = if cfg.trace {
        layers::run_all(data_dir)
    } else {
        vec![0.0; layers::PROBES.len()]
    };
    summarize(cfg, &rounds, &fold, probes)
}

fn per_second(units: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        units as f64 * 1e9 / ns as f64
    }
}

fn median_over(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn summarize(cfg: &RunConfig, rounds: &[Round], fold: &Fold, probes: Vec<f64>) -> RunResult {
    let (attempted, failed) = rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    let rounds = &rounds[1..]; // round 0 was the warm-up
    let all: Vec<&Round> = rounds.iter().collect();
    let rate = |p: Phase| {
        median_over(&all, |r| {
            let w = &r.windows[p as usize];
            per_second(w.units, w.ns)
        })
    };

    // Timings taken from outside the spans use the rounds that recorded
    // none, so that they carry no tracing overhead.
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let mut lat: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.write_lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let mut notes = Vec::new();
    let tail_p = supported_tail(lat.len()).unwrap_or_else(|| {
        notes.push(format!(
            "write_tail_us: only {} samples, reporting the median",
            lat.len()
        ));
        0.5
    });

    let end_to_end = [
        median_over(&all, |r| r.setup_s),
        rate(Phase::Write),
        rate(Phase::Read),
        rate(Phase::Delete),
        median_over(&all, |r| r.peak_rss_mib),
        median_over(&all, |r| {
            r.disk_bytes as f64 / 1024.0 / r.windows[Phase::Write as usize].units.max(1) as f64
        }),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(d, value)| Metric {
            name: d.name.to_string(),
            unit: d.unit,
            value,
        })
        .collect();

    let mut phase_seconds = [0.0; PHASES];
    for (p, total) in phase_seconds.iter_mut().enumerate() {
        *total = rounds.iter().map(|r| r.windows[p].ns).sum::<u64>() as f64 / 1e9;
        let used = rounds.iter().any(|r| r.windows[p].ns > 0);
        if used && window_too_short(*total, cfg.seconds) {
            notes.push(format!(
                "window_too_short: phase {} measured {:.2} s of a {} s run",
                PHASE_NAMES[p], *total, cfg.seconds
            ));
        }
    }
    if cfg.seconds < STANDARD_SECONDS {
        notes.push(format!(
            "quick: true ({} s is below the standard {STANDARD_SECONDS} s; not a baseline)",
            cfg.seconds
        ));
    }

    // Per-layer numbers come from the span-recording rounds of a traced
    // run, and from every round otherwise (spans and virtual time are
    // then absent and read 0).
    let counted: Vec<&Round> = rounds.iter().filter(|r| r.traced == cfg.trace).collect();
    let mut values: Vec<f64> = SHARES.iter().map(|&(_, l)| fold.share(l)).collect();
    let mut repeats: Vec<Option<bool>> = vec![None; values.len()];
    values.push(if cfg.trace {
        let traced_ns = median_over(&counted, |r| r.op_ns() as f64);
        let plain_ns = median_over(&plain, |r| r.op_ns() as f64);
        (traced_ns / plain_ns.max(1.0) - 1.0) * 100.0
    } else {
        0.0
    });
    repeats.push(None);
    for route in ROUTES {
        let mut ns = fold.handler_ns.get(route).cloned().unwrap_or_default();
        ns.sort_unstable();
        values.push(percentile(&ns, 0.5) as f64 / 1e3);
        values.push(percentile(&ns, 0.99) as f64 / 1e3);
        repeats.extend([None, None]);
    }
    for c in &COUNTS {
        let per_round: Vec<f64> = counted.iter().map(|r| (c.value)(r)).collect();
        repeats.push(Some(per_round.windows(2).all(|w| w[0] == w[1])));
        values.push(median(&per_round));
    }
    values.push(median_over(&plain, |r| {
        let w = &r.windows[Phase::List as usize];
        per_second(w.units, w.ns)
    }));
    values.push(percentile(&lat, tail_p) as f64 / 1e3);
    repeats.extend([None, None]);
    values.extend(probes);
    repeats.resize(values.len(), None);
    let per_layer = per_layer_defs()
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, unit, value })
        .collect();

    RunResult {
        workload: cfg.workload,
        rounds: rounds.len(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        count_repeats: repeats,
        first_round_counts: COUNTS
            .iter()
            .map(|c| (c.name, counted.first().map_or(0.0, |r| (c.value)(r))))
            .collect(),
        phase_seconds,
        round_rates: std::array::from_fn(|p| {
            rounds
                .iter()
                .map(|r| per_second(r.windows[p].units, r.windows[p].ns))
                .collect()
        }),
        round_setup_s: rounds.iter().map(|r| r.setup_s).collect(),
        tail: (tail_p, percentile(&lat, 0.5) as f64 / 1e3, lat.len()),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim().trim_start_matches('"'))
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// The tables here and the lists in `BENCHMARK.json` are one contract.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layer: Vec<String> = per_layer_defs().into_iter().map(|d| d.0).collect();
        assert_eq!(names_in(&json, "per_layer"), layer);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        for d in &END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
                d.name,
                d.unit,
                if d.higher { "higher" } else { "lower" },
                d.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let defs = per_layer_defs();
        assert!(defs.len() <= 128);
        let mut names: Vec<&str> = defs.iter().map(|d| d.0.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len());
        assert!(defs.iter().all(|d| d.0.len() <= 64 && d.1.len() <= 16));
    }
}
