//! `cfsbench`: a wall-clock scoreboard for the real CFS stack.
//!
//! One process, one thread, one client op in flight, against an
//! in-process `cfs::Cluster` with no injected fabric latency: every
//! timing is host wall-clock. See `README.md` beside this package.

mod gen;
mod layers;
mod selfcheck;
mod stats;
mod summary;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use summary::{Metric, RunConfig, RunResult, STANDARD_SECONDS};
use workloads::{Workload, PHASE_NAMES};

const USAGE: &str = "usage:
  cfsbench --workload <meta_mdtest|small_files|large_seq|large_rand|all>
           [--seed N] [--seconds S] [--trace 0|1]
  cfsbench layers
  cfsbench selfcheck [--seed N] [--seconds S]";

enum Mode {
    One(Workload),
    All,
    Layers,
    Selfcheck,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (1u64, STANDARD_SECONDS, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => mode = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            name if !name.starts_with("--") && mode.is_none() => mode = Some(name.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match mode.as_deref() {
        Some("all") => Mode::All,
        Some("layers") => Mode::Layers,
        Some("selfcheck") => Mode::Selfcheck,
        Some(name) => Mode::One(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
        None => return Err("no workload given".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
        trace,
    })
}

/// Where a run keeps its files: the clusters' engine directories (through
/// `TMPDIR`, which is how `cfs::ClusterBuilder` picks its root) and the
/// span dump. Inside the build's target directory, so inside the checkout.
pub struct RunDirs {
    pub data: PathBuf,
    pub spans: PathBuf,
}

impl RunDirs {
    fn create() -> std::io::Result<RunDirs> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let spans = target.join("cfsbench");
        let data = spans.join(format!("data-{}", std::process::id()));
        std::fs::create_dir_all(&data)?;
        let data = data.canonicalize()?;
        // Set before any cluster exists; this process has one thread.
        std::env::set_var("TMPDIR", &data);
        Ok(RunDirs { data, spans })
    }

    pub fn spans_file(&self, workload: Workload) -> PathBuf {
        self.spans.join(format!("{}.spans.jsonl", workload.name()))
    }

    /// File system type of the data directory, from `/proc/mounts`.
    fn data_fs(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split(' ');
                let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                self.data.starts_with(mount).then_some((mount.len(), fs))
            })
            .max_by_key(|&(len, _)| len)
            .map_or("unknown".into(), |(_, fs)| fs.to_string())
    }
}

impl Drop for RunDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data);
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The result object of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn json_result(r: &RunResult, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        json_metrics(metrics)
    )
}

/// The per-round values, in round order.
fn spread(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    items.join(" ")
}

fn print_report(r: &RunResult, args: &Args, dirs: &RunDirs) {
    println!(
        "== {} seed={} seconds={} trace={} rounds={}",
        r.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        r.rounds
    );
    println!(
        "datadir_fs: {} ({}); flush policy: engine default, sync_on_append = false",
        dirs.data_fs(),
        dirs.data.display()
    );
    println!("ops: attempted {} failed {}", r.attempted, r.failed);
    for (p, name) in PHASE_NAMES.iter().enumerate() {
        if r.phase_seconds[p] > 0.0 {
            println!(
                "phase {name:<6} measured {:.3} s; units/s per round: {}",
                r.phase_seconds[p],
                spread(&r.round_rates[p])
            );
        }
    }
    println!("set-up seconds per round: {}", spread(&r.round_setup_s));
    let (p, p50, n) = r.tail;
    println!(
        "write latency: p50 {p50:.1} us, write_tail_us is p{} of {n} samples",
        p * 100.0
    );
    for note in &r.notes {
        println!("{note}");
    }
    for m in &r.end_to_end {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for (m, repeats) in r.per_layer.iter().zip(&r.count_repeats) {
            let tag = match repeats {
                Some(true) => "  (same in every round)",
                Some(false) => "  (varies between rounds)",
                None => "",
            };
            println!("{:<34} {:>16.4} {}{tag}", m.name, m.value, m.unit);
        }
        println!(
            "spans of the first traced round: {}",
            dirs.spans_file(r.workload).display()
        );
    }
}

fn run_one(workload: Workload, args: &Args, dirs: &RunDirs) -> RunResult {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = summary::run(&cfg, &dirs.data, &dirs.spans_file(workload));
    print_report(&result, args, dirs);
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dirs = match RunDirs::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cfsbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::One(workload) => {
            let r = run_one(workload, &args, &dirs);
            println!("{}", json_result(&r, args.trace));
            r.correct()
        }
        Mode::All => {
            let results: Vec<RunResult> = Workload::ALL
                .into_iter()
                .map(|w| run_one(w, &args, &dirs))
                .collect();
            let parts: Vec<String> = results
                .iter()
                .map(|r| format!("\"{}\": {}", r.workload.name(), json_result(r, args.trace)))
                .collect();
            let ok = results.iter().all(RunResult::correct);
            println!(
                "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"workloads\": {{{}}}}}",
                results.iter().map(|r| r.attempted).sum::<u64>(),
                results.iter().map(|r| r.failed).sum::<u64>(),
                parts.join(", ")
            );
            ok
        }
        Mode::Layers => {
            for (p, v) in layers::PROBES.iter().zip(layers::run_all(&dirs.data)) {
                println!("{:<34} {v:>16.4} {}", p.name, p.unit);
            }
            true
        }
        Mode::Selfcheck => selfcheck::run(args.seed, args.seconds, &dirs),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
