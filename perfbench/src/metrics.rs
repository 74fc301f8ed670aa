//! The benchmark's metrics: the end-to-end set every untraced run prints
//! and the per-layer set every traced run prints, both assembled from the
//! samples and spans a workload collected.

use crate::ops::{EngineTotals, OPEN_STAGES};
use crate::stats::{self, windowed_percentile, Report};
use crate::trace::{self, Span};
use qagview_common::json::Json;
use std::collections::BTreeMap;

/// What the untraced run of a workload measured. Times in milliseconds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    pub open: Vec<f64>,
    pub warm_start: Vec<f64>,
    pub first_paint: Vec<f64>,
    pub tick: Vec<f64>,
    /// Ticks per second: the median over one-second windows of TCP time
    /// when serving; one over the median tick for the in-process
    /// workloads, whose mean is set by a few seed-dependent expensive plane
    /// states.
    pub ticks_per_s: f64,
    pub restore: Vec<f64>,
}

/// The end-to-end metrics, plus (in `support`) each percentile's sample
/// count and whether at least ten samples lie beyond it. Each percentile
/// is the median over up to `windows` consecutive windows of its samples
/// (see [`windowed_percentile`]).
pub fn end_to_end(s: &Samples, windows: usize, support: &mut BTreeMap<String, Json>) -> Report {
    let mut r = Report::default();
    r.put(
        "setup_s",
        "s",
        stats::median(&s.setup_s).unwrap_or(f64::NAN),
    );
    let mut pct = |name: &'static str, samples: &[f64], p: usize| {
        let got = windowed_percentile(samples, p, windows);
        support.insert(
            name.to_string(),
            Json::obj([
                ("samples", Json::from(samples.len())),
                ("supported", Json::from(got.is_some_and(|g| g.supported()))),
            ]),
        );
        r.put(name, "ms", got.map_or(f64::NAN, |g| g.value));
    };
    pct("open_ms_p50", &s.open, 50);
    pct("open_ms_p90", &s.open, 90);
    pct("warm_start_ms_p50", &s.warm_start, 50);
    pct("first_paint_ms_p50", &s.first_paint, 50);
    pct("first_paint_ms_p90", &s.first_paint, 90);
    pct("tick_ms_p50", &s.tick, 50);
    pct("tick_ms_p99", &s.tick, 99);
    pct("restore_tick_ms_p50", &s.restore, 50);
    r.put("ticks_per_s", "1/s", s.ticks_per_s);
    r.put("peak_rss_mb", "MB", crate::host::peak_rss_mb());
    r
}

/// What a traced run knows beyond its spans.
#[derive(Debug, Default)]
pub struct LayerInputs {
    pub totals: EngineTotals,
    /// Rows of the scanned table.
    pub rows: usize,
    pub serve_evictions: u64,
    pub serve_restores: u64,
    /// Traced against untraced medians of the workload's main op.
    pub overhead_pct: f64,
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// The per-layer metrics, from the run's spans and counts.
pub fn per_layer(spans: &[Span], x: &LayerInputs) -> Report {
    let ms = |name: &str| med(&trace::durations_ms(spans, name));
    let us = |name: &str| 1e3 * ms(name);
    let count = |name: &str| med(&trace::counts(name));
    let scan_ms = ms("query.group_scan");
    let tcp_us = us("serve.tcp_tick");
    let gateway_us = us("serve.gateway");
    let unaccounted = stats::unaccounted_by_request(spans, "replay.open", &OPEN_STAGES);

    let mut r = Report::default();
    r.put("query.group_scan_ms", "ms", scan_ms);
    r.put(
        "query.scan_mrows_per_s",
        "Mrows/s",
        x.rows as f64 / scan_ms / 1e3,
    );
    r.put(
        "query.parallel_scans",
        "count",
        x.totals.parallel_scans as f64,
    );
    r.put("query.sample_ms", "ms", ms("query.sample"));
    r.put("query.parse_us", "us", us("query.parse"));
    r.put("query.bind_us", "us", us("query.bind"));
    r.put("query.apply_answers_ms", "ms", ms("query.apply_answers"));
    r.put("lattice.fingerprint_ms", "ms", ms("lattice.fingerprint"));
    r.put(
        "lattice.candidate_index_ms",
        "ms",
        ms("lattice.candidate_index"),
    );
    r.put("lattice.candidates", "count", count("lattice.candidates"));
    r.put("precompute.descents_ms", "ms", ms("precompute.descents"));
    r.put("store.save_ms", "ms", ms("store.save"));
    r.put("store.file_bytes", "bytes", count("store.file_bytes"));
    r.put("store.load_ms", "ms", ms("store.load"));
    r.put("precompute.guidance_us", "us", us("precompute.guidance"));
    r.put("precompute.solution_us", "us", us("precompute.solution"));
    r.put(
        "core.drill_summarizer_ms",
        "ms",
        ms("core.drill_summarizer"),
    );
    r.put("core.drill_hybrid_ms", "ms", ms("core.drill_hybrid"));
    r.put("checkpoint.save_us", "us", us("checkpoint.save"));
    r.put("checkpoint.load_us", "us", us("checkpoint.load"));
    r.put("checkpoint.bytes", "bytes", count("checkpoint.bytes"));
    r.put("explore.apply_us", "us", us("explore.apply"));
    r.put("explore.stats_us", "us", us("explore.stats"));
    r.put("explore.group_hit_ratio", "ratio", x.totals.hit_ratio(0));
    r.put("explore.answers_hit_ratio", "ratio", x.totals.hit_ratio(1));
    r.put("explore.plane_hit_ratio", "ratio", x.totals.hit_ratio(2));
    r.put(
        "explore.summarizer_hit_ratio",
        "ratio",
        x.totals.hit_ratio(3),
    );
    r.put("explore.evictions", "count", x.totals.evictions as f64);
    r.put("explore.unaccounted_ms", "ms", med(&unaccounted));
    r.put("serve.gateway_us", "us", gateway_us);
    r.put("serve.view_json_us", "us", us("serve.view_json"));
    r.put("serve.parse_command_us", "us", us("serve.parse_command"));
    r.put("serve.wire_us", "us", tcp_us - gateway_us);
    r.put("serve.evictions", "count", x.serve_evictions as f64);
    r.put("serve.restores", "count", x.serve_restores as f64);
    r.put("trace.overhead_pct", "%", x.overhead_pct);
    r
}

/// `100 · (traced / untraced − 1)` of two samples' medians.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    100.0 * (med(traced) / med(untraced) - 1.0)
}
