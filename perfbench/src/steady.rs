//! Steadiness mode: run one workload several times, each with its own
//! seed, and print every metric's median, quartiles, interquartile share
//! and range share across the runs — the figures the bounds in
//! `BENCHMARK.json` are set from.

use crate::stats::Spread;
use qagview_common::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Returns the process exit code: 0 when every run succeeded.
pub fn run(workload: &str, runs: usize, seconds: f64, trace: bool, first_seed: u64) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("steady: cannot locate the benchmark binary: {e}");
            return 1;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut failures = 0usize;
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output();
        let last = out.as_ref().ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            text.lines().last().and_then(|l| json::parse(l).ok())
        });
        let ok = out.as_ref().is_ok_and(|o| o.status.success());
        let Some(Json::Obj(metrics)) = last.as_ref().and_then(|d| d.get("metrics")).cloned() else {
            eprintln!("steady: run {i} (seed {seed}) printed no result");
            failures += 1;
            continue;
        };
        if !ok {
            eprintln!("steady: run {i} (seed {seed}) failed its checks");
            failures += 1;
        }
        eprintln!("steady: run {} of {runs} done (seed {seed})", i + 1);
        for (name, m) in metrics {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry(name)
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    println!(
        "{:<32} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    let mut summary = BTreeMap::new();
    for (name, (unit, v)) in &values {
        let Some(s) = Spread::of(v) else { continue };
        println!(
            "{name:<32} {unit:>8} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4}",
            s.median,
            s.q1,
            s.q3,
            s.iqr_share(),
            s.range_share()
        );
        summary.insert(
            name.clone(),
            Json::obj([
                ("median", Json::from(s.median)),
                ("q1", Json::from(s.q1)),
                ("q3", Json::from(s.q3)),
                ("iqr_share", Json::from(s.iqr_share())),
                ("range_share", Json::from(s.range_share())),
                (
                    "values",
                    Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
                ),
            ]),
        );
    }
    println!(
        "{}",
        Json::obj([
            ("workload", Json::from(workload)),
            ("runs", Json::from(runs)),
            ("failed_runs", Json::from(failures)),
            ("spread", Json::Obj(summary)),
        ])
        .to_text()
    );
    i32::from(failures > 0)
}
