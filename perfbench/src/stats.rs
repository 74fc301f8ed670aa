//! Sample statistics and the result record: percentile selection with its
//! support rule, the steadiness quartiles, the per-request unaccounted time,
//! and the JSON line every run ends with.

use crate::trace::Span;
use qagview_common::json::Json;
use std::collections::BTreeMap;

/// A percentile is supported when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    /// Samples ranked strictly above the selected one.
    pub beyond: usize,
}

impl Pct {
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `pct`-th percentile (`pct` in whole percent) of
/// `samples`, in any order: the smallest sample with at least `pct`% of
/// the sample at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], pct: usize) -> Option<Pct> {
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Integer ceil(pct · n / 100): float rounding would push 90% of 100
    // samples to rank 91.
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median, over consecutive windows of `samples` in the order they
/// were taken, of each window's [`percentile`]. There are as many windows
/// as keep each one's percentile supported, at most `max_windows`; with
/// one window this is the plain percentile. A host stall of a few seconds
/// then moves a few windows instead of the whole tail. `beyond` is the
/// smallest window's.
pub fn windowed_percentile(samples: &[f64], pct: usize, max_windows: usize) -> Option<Pct> {
    let n = samples.len();
    let w = (n * (100 - pct) / (100 * (MIN_BEYOND + 1))).clamp(1, max_windows.max(1));
    let per_window: Vec<Pct> = (0..w)
        .filter_map(|i| percentile(&samples[i * n / w..(i + 1) * n / w], pct))
        .collect();
    let values: Vec<f64> = per_window.iter().map(|p| p.value).collect();
    Some(Pct {
        value: median(&values)?,
        samples: n,
        beyond: per_window.iter().map(|p| p.beyond).min()?,
    })
}

/// The median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default `exclusive` method), which the steadiness rule is stated in.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Spread of a metric across runs, as the steadiness rule measures it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Option<Spread> {
        let [q1, _, q3] = quartiles(values)?;
        Some(Spread {
            median: median(values)?,
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// Full range as a share of the median.
    pub fn range_share(&self) -> f64 {
        (self.max - self.min) / self.median.abs()
    }
}

/// What an operation's measured wall time leaves after its replayed
/// stages: `total − Σ stages`. Negative when the replayed stages ran
/// slower than the operation itself; reported as measured.
pub fn unaccounted_ms(total_ms: f64, stages_ms: impl IntoIterator<Item = f64>) -> f64 {
    total_ms - stages_ms.into_iter().sum::<f64>()
}

/// [`unaccounted_ms`] for every request holding a span named `total`:
/// that span's duration minus the durations of the request's spans named
/// in `stages`.
pub fn unaccounted_by_request(spans: &[Span], total: &str, stages: &[&str]) -> Vec<f64> {
    let mut by_request: BTreeMap<u64, (Option<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        if s.name == total {
            by_request.entry(s.request).or_default().0 = Some(s.ms());
        } else if stages.contains(&s.name) {
            by_request.entry(s.request).or_default().1.push(s.ms());
        }
    }
    by_request
        .into_values()
        .filter_map(|(t, st)| Some(unaccounted_ms(t?, st)))
        .collect()
}

/// The metrics of one run, in the order they were put.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// The run's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, attempted: u64, failed: u64) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_common::json;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_selects_the_expected_sample() {
        let p = percentile(&seq(100), 90).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 10);
        let p = percentile(&seq(1000), 99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        let p = percentile(&[3.0, 1.0, 2.0], 50).unwrap();
        assert_eq!(p.value, 2.0, "input order must not matter");
        assert_eq!(percentile(&[7.0], 99).unwrap().value, 7.0);
        assert_eq!(percentile(&seq(10), 100).unwrap().beyond, 0);
        assert!(percentile(&[], 50).is_none());
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert!(percentile(&seq(20), 50).unwrap().supported());
        assert!(!percentile(&seq(19), 50).unwrap().supported());
        assert!(percentile(&seq(100), 90).unwrap().supported());
        assert!(!percentile(&seq(99), 90).unwrap().supported());
        assert!(percentile(&seq(1000), 99).unwrap().supported());
        assert!(!percentile(&seq(999), 99).unwrap().supported());
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // One window: the plain percentile.
        assert_eq!(
            windowed_percentile(&seq(100), 90, 1),
            percentile(&seq(100), 90)
        );
        assert_eq!(
            windowed_percentile(&seq(1000), 99, 30),
            percentile(&seq(1000), 99)
        );
        // A stall in one of three windows does not move the figure.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        v[1000..2000].iter_mut().for_each(|x| *x += 1000.0);
        let p = windowed_percentile(&v, 90, 3).unwrap();
        assert_eq!(p.value, 89.0);
        assert_eq!((p.samples, p.beyond), (3000, 100));
        assert!(p.supported());
        // No more windows than keep ten samples beyond each percentile.
        let p = windowed_percentile(&seq(2200), 99, 30).unwrap();
        assert!(p.supported(), "{p:?}");
        assert!(windowed_percentile(&[], 50, 30).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&seq(2)).unwrap(), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 7, 2, 9.5], n=4) == [1.5, 3.0, 8.25]
        let q = quartiles(&[3.0, 1.0, 7.0, 2.0, 9.5]).unwrap();
        assert_eq!(q, [1.5, 3.0, 8.25]);
        assert_eq!(quartiles(&[4.0]).unwrap(), [4.0; 3]);
        assert_eq!(median(&seq(10)), Some(5.5));
        let s = Spread::of(&seq(10)).unwrap();
        assert!((s.iqr_share() - 5.5 / 5.5).abs() < 1e-12);
        assert!((s.range_share() - 9.0 / 5.5).abs() < 1e-12);
    }

    fn span(request: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: start_ns + 1,
            parent: 0,
            request,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn unaccounted_is_total_minus_stages_per_request() {
        assert_eq!(unaccounted_ms(10.0, [2.0, 3.0, 1.5]), 3.5);
        assert_eq!(unaccounted_ms(1.0, [2.0]), -1.0, "reported as measured");
        let ms = 1_000_000;
        let spans = [
            span(1, "explore.open", 0, 10 * ms),
            span(1, "query.group_scan", 10 * ms, 16 * ms),
            span(1, "lattice.candidate_index", 16 * ms, 18 * ms),
            span(1, "serve.gateway", 18 * ms, 19 * ms), // not a stage
            span(2, "query.group_scan", 0, ms),         // no total: skipped
            span(3, "explore.open", 0, 4 * ms),
        ];
        let stages = ["query.group_scan", "lattice.candidate_index"];
        let got = unaccounted_by_request(&spans, "explore.open", &stages);
        assert_eq!(got, vec![2.0, 4.0]);
    }

    #[test]
    fn result_line_round_trips_through_the_json_reader() {
        let mut r = Report::default();
        r.put("open_ms_p50", "ms", 123.456_789_012_345);
        r.put("ticks_per_s", "1/s", 4321.0);
        r.put("explore.unaccounted_ms", "ms", -0.25);
        let text = r.result_json(17, 0).to_text();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(17));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit, value) in [
            ("open_ms_p50", "ms", 123.456_789_012_345_f64),
            ("ticks_per_s", "1/s", 4321.0),
            ("explore.unaccounted_ms", "ms", -0.25),
        ] {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
            let v = m.get("value").and_then(|v| v.as_f64()).unwrap();
            assert_eq!(v.to_bits(), value.to_bits(), "{name} keeps every digit");
        }
        let failed = json::parse(&r.result_json(3, 1).to_text()).unwrap();
        assert_eq!(failed.get("correct").and_then(|v| v.as_bool()), Some(false));
    }
}
