//! The perf-trajectory gate: compare a fresh `BENCH_hotpath.json` against
//! the committed baseline and **fail** (exit 1) when any enforced metric
//! regresses by more than the allowed fraction.
//!
//! This replaces the old CI step that merely printed `diff -u … || true` —
//! a reviewer had to notice a regression by eye. The gate reads both files
//! with the in-repo JSON reader (no external deps), extracts the enforced
//! speedup bars, and prints a table; a fresh value below
//! `committed × (1 − 0.25)` fails the job. Metrics present only in the
//! fresh file (new sections) pass with a note; metrics that *disappeared*
//! fail — losing a bar silently is exactly what the gate exists to catch.
//!
//! ```text
//! perf_trajectory [COMMITTED_JSON] [FRESH_JSON]
//! ```
//!
//! Defaults: `<repo>/BENCH_hotpath.committed.json` and
//! `<repo>/BENCH_hotpath.json`, resolved from `CARGO_MANIFEST_DIR` so the
//! binary works from any working directory. A missing committed baseline
//! is a clear, immediate error (exit 2), not an empty diff.

use qagview_bench::json::{self, Json};
use qagview_bench::repo_root;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Maximum tolerated regression of any enforced metric (fraction of the
/// committed value).
const MAX_REGRESSION: f64 = 0.25;

/// One enforced metric: a dotted path within a document root.
struct Metric {
    name: String,
    committed: Option<f64>,
    fresh: Option<f64>,
}

/// Collect every enforced metric from one parsed baseline document.
/// Workload-indexed sections are keyed by their `m` so the comparison
/// survives reordering.
fn enforced(doc: &Json) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, v: Option<&Json>| {
        if let Some(value) = v.and_then(Json::as_f64) {
            out.push((name, value));
        }
    };
    push("query_exec.speedup".into(), doc.path("query_exec.speedup"));
    push(
        "query_exec.threshold_reeval.speedup".into(),
        doc.path("query_exec.threshold_reeval.speedup"),
    );
    push(
        "session_tick.warm_vs_cold".into(),
        doc.path("session_tick.warm_vs_cold"),
    );
    push(
        "store_warm_start.speedup".into(),
        doc.path("store_warm_start.speedup"),
    );
    push(
        "progressive_first_paint.speedup".into(),
        doc.path("progressive_first_paint.speedup"),
    );
    push(
        "serve_tick.latency_headroom".into(),
        doc.path("serve_tick.latency_headroom"),
    );
    push(
        "serve_tick.throughput_ticks_per_s".into(),
        doc.path("serve_tick.throughput_ticks_per_s"),
    );
    for wl in doc
        .path("plane_build.workloads")
        .map(Json::items)
        .unwrap_or(&[])
    {
        if let Some(m) = wl.get("m").and_then(Json::as_f64) {
            push(format!("plane_build[m={m}].speedup"), wl.get("speedup"));
        }
    }
    // `auto_ms`/`auto_mrows_per_s` stay informational: they time whichever
    // path `group_aggregate_auto` dispatches to, which a dispatch change
    // moves on purpose.
    for p in doc.path("n_scaling.points").map(Json::items).unwrap_or(&[]) {
        if let Some(n) = p.get("n").and_then(Json::as_f64) {
            push(
                format!("n_scaling[n={n}].seq_mrows_per_s"),
                p.get("seq_mrows_per_s"),
            );
            // Core-scaling metric: `run` drops it when the committed and
            // fresh runs saw different thread counts.
            push(
                format!("n_scaling[n={n}].par_mrows_per_s"),
                p.get("par_mrows_per_s"),
            );
        }
    }
    // `candidate_build.lazy_build_ms` stays informational: it times only
    // generation and postings, while the enforced ratio compares full
    // coverage with full coverage.
    for wl in doc.get("workloads").map(Json::items).unwrap_or(&[]) {
        if let Some(m) = wl.get("m").and_then(Json::as_f64) {
            push(
                format!("workloads[m={m}].candidate_build.indexed_speedup_vs_naive"),
                wl.path("candidate_build.indexed_speedup_vs_naive"),
            );
            push(
                format!("workloads[m={m}].greedy_marginals.speedup"),
                wl.path("greedy_marginals.speedup"),
            );
            push(
                format!("workloads[m={m}].delta_greedy.speedup"),
                wl.path("delta_greedy.speedup"),
            );
        }
    }
    out
}

fn read_doc(path: &Path, role: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read the {role} baseline at {}: {e}\n\
             (the perf job copies the committed BENCH_hotpath.json to \
             BENCH_hotpath.committed.json before rerunning the baseline)",
            path.display()
        )
    })?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(committed_path: &Path, fresh_path: &Path) -> Result<bool, String> {
    let committed = read_doc(committed_path, "committed")?;
    let fresh = read_doc(fresh_path, "fresh")?;

    let mut committed_metrics = enforced(&committed);
    let mut fresh_metrics = enforced(&fresh);

    // Core-scaling metrics (parallel per-row throughput) only mean
    // something when both runs had the same number of cores to scale
    // onto; a baseline committed from a 1-thread CI host must not gate a
    // 16-thread dev box (or vice versa).
    let threads_of = |doc: &Json| doc.get("threads").and_then(Json::as_f64);
    let (ct, ft) = (threads_of(&committed), threads_of(&fresh));
    if ct != ft {
        let is_core_scaling = |name: &str| name.ends_with(".par_mrows_per_s");
        committed_metrics.retain(|(n, _)| !is_core_scaling(n));
        fresh_metrics.retain(|(n, _)| !is_core_scaling(n));
        println!(
            "note: thread counts differ (committed {}, fresh {}); \
             core-scaling metrics (*.par_mrows_per_s) are not compared",
            ct.map_or("?".into(), |v| format!("{v:.0}")),
            ft.map_or("?".into(), |v| format!("{v:.0}")),
        );
    }
    let mut names: Vec<String> = committed_metrics
        .iter()
        .map(|(n, _)| n.clone())
        .chain(fresh_metrics.iter().map(|(n, _)| n.clone()))
        .collect();
    names.sort();
    names.dedup();

    let lookup = |set: &[(String, f64)], name: &str| -> Option<f64> {
        set.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let metrics: Vec<Metric> = names
        .into_iter()
        .map(|name| Metric {
            committed: lookup(&committed_metrics, &name),
            fresh: lookup(&fresh_metrics, &name),
            name,
        })
        .collect();

    let mut ok = true;
    println!(
        "{:<58} {:>10} {:>10} {:>8}  status",
        "metric", "committed", "fresh", "ratio"
    );
    for m in &metrics {
        let (status, line_ok) = match (m.committed, m.fresh) {
            (Some(c), Some(f)) => {
                let ratio = f / c;
                if f + 1e-12 >= c * (1.0 - MAX_REGRESSION) {
                    (format!("ok ({:+.0}%)", (ratio - 1.0) * 100.0), true)
                } else {
                    (format!("REGRESSED >{:.0}%", MAX_REGRESSION * 100.0), false)
                }
            }
            (None, Some(_)) => ("new metric".to_string(), true),
            (Some(_), None) => ("MISSING from fresh run".to_string(), false),
            (None, None) => unreachable!("name came from one of the sets"),
        };
        println!(
            "{:<58} {:>10} {:>10} {:>8}  {status}",
            m.name,
            m.committed.map_or("-".into(), |v| format!("{v:.2}")),
            m.fresh.map_or("-".into(), |v| format!("{v:.2}")),
            match (m.committed, m.fresh) {
                (Some(c), Some(f)) => format!("{:.2}", f / c),
                _ => "-".into(),
            },
        );
        ok &= line_ok;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let committed: PathBuf = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_hotpath.committed.json"));
    let fresh: PathBuf = args
        .get(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_hotpath.json"));
    eprintln!(
        "perf trajectory gate: committed {} vs fresh {} (max regression {:.0}%)",
        committed.display(),
        fresh.display(),
        MAX_REGRESSION * 100.0
    );
    match run(&committed, &fresh) {
        Ok(true) => {
            println!("trajectory gate: all enforced metrics within bounds");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("trajectory gate: enforced metric regressed (see table)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("trajectory gate error: {message}");
            ExitCode::from(2)
        }
    }
}
