//! `cfsbench selfcheck`: does the scoreboard agree with itself?
//!
//! Runs every workload twice untraced and once traced, in this process,
//! and checks that every registry count repeats exactly between the two
//! untraced sets, that every end-to-end metric agrees within its bound,
//! and that the traced run's self-time shares sum to 1 ± 0.02.

use crate::summary::{self, RunConfig, RunResult, END_TO_END};
use crate::workloads::Workload;
use crate::RunDirs;

fn run_once(workload: Workload, seed: u64, seconds: f64, trace: bool, dirs: &RunDirs) -> RunResult {
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
    };
    summary::run(&cfg, &dirs.data, &dirs.spans_file(workload))
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn run(seed: u64, seconds: f64, dirs: &RunDirs) -> bool {
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    for workload in Workload::ALL {
        println!(
            "== selfcheck {} seed={seed} seconds={seconds}",
            workload.name()
        );
        let a = run_once(workload, seed, seconds, false, dirs);
        let b = run_once(workload, seed, seconds, false, dirs);
        let t = run_once(workload, seed, seconds, true, dirs);
        for r in [&a, &b, &t] {
            check(
                format!("{} of {} ops failed", r.failed, r.attempted),
                r.correct(),
            );
        }

        println!(
            "{:<22} {:>14} {:>14} {:>8} {:>6}",
            "end-to-end metric", "set 1", "set 2", "spread", "bound"
        );
        for ((ma, mb), def) in a.end_to_end.iter().zip(&b.end_to_end).zip(&END_TO_END) {
            let spread = (ma.value - mb.value).abs() / ma.value.abs().max(f64::MIN_POSITIVE);
            println!(
                "{:<22} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%",
                def.name,
                ma.value,
                mb.value,
                spread * 100.0,
                def.bound * 100.0
            );
            check(
                format!("{} agrees within its bound", def.name),
                worsening(ma.value, mb.value, def.higher).abs() <= def.bound,
            );
        }

        // Round for round the two sets had the same inputs, but their
        // medians may cover different numbers of rounds: compare the first.
        let differing: Vec<&str> = a
            .first_round_counts
            .iter()
            .zip(&b.first_round_counts)
            .filter(|(ca, cb)| ca.1 != cb.1)
            .map(|(ca, _)| ca.0)
            .collect();
        check(
            format!("every count repeats exactly (differing: {differing:?})"),
            differing.is_empty(),
        );

        let shares: f64 = t
            .per_layer
            .iter()
            .filter(|m| m.name.ends_with("_share"))
            .map(|m| m.value)
            .sum();
        check(
            format!("self-time shares sum to {shares:.4}"),
            (shares - 1.0).abs() <= 0.02,
        );
        if let Some(m) = t.per_layer.iter().find(|m| m.name == "trace.overhead_pct") {
            println!("     trace.overhead_pct = {:.1} %", m.value);
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    ok
}
