//! Seeded, per-group reservoir-sampled group phase — the approximate
//! first paint of progressive mode.
//!
//! [`group_aggregate_sampled`] answers the paper query's group phase from
//! a deterministic row sample instead of the full scan: a systematic
//! stratified draw of [`SampleSpec::target_rows`] row ids (one per equal
//! stride, jittered by a seeded hash) feeds the *same* predicate /
//! key-encoding / group-assignment kernels as the exact pipeline, but
//! touches `target_rows` rows instead of `N`. Per group the phase keeps a
//! bounded reservoir of [`SampleSpec::reservoir`] sampled rows (smallest
//! seeded per-row priorities win) plus the exact count of sampled rows
//! that matched, and finishes *estimates*: scaled counts, reservoir
//! means, and a per-phase worst-case relative-error bound
//! ([`SampleStats`]) that the fidelity-aware API surfaces as error bars.
//!
//! # Determinism: partition-invariant, byte-reproducible
//!
//! Everything downstream of the seed is a pure function of
//! `(seed, table, spec)`:
//!
//! * the sampled id set is computed *before* the scan (no per-partition
//!   RNG state), ascending by construction;
//! * the scan mirrors the morsel discipline of [`crate::parallel`] — ids
//!   split into `partitions` contiguous chunks, each chunk scanned with
//!   its own local [`GroupTable`], outputs merged in ascending chunk
//!   order so global group ids reproduce the `P = 1` first-encounter
//!   order exactly;
//! * reservoir membership is the `R` smallest `(priority(row), row)`
//!   pairs of each group — a total order over the whole sample, so the
//!   retained set cannot depend on chunk boundaries — and every estimate
//!   accumulates its reservoir in ascending row order.
//!
//! The result is byte-identical (f64 bits) for any partition count,
//! property-tested for `P ∈ {1, 2, 7, 16}`. Chunks are scanned
//! sequentially — a sample is a few tens of thousands of rows, below any
//! sensible parallel threshold — but the ordered-merge structure is what
//! the invariance contract (and a future parallel dispatch) rests on.
//!
//! # Estimator contract
//!
//! With `S` sampled ids over `N` rows (`scale = N / S`) and a group that
//! matched `n_g` sampled rows, `m_g = min(n_g, R)` of them retained:
//!
//! * `COUNT` → `n_g · scale` (so `HAVING count(*)` thresholds keep their
//!   meaning against the estimated relation);
//! * `AVG` → reservoir mean;
//! * `SUM` → reservoir mean · estimated count;
//! * `MIN`/`MAX` → reservoir extrema (biased toward the center — the
//!   sample cannot see tails it never drew; the error bound covers the
//!   mean-based aggregates only).
//!
//! [`SampleStats::rel_err`] is the *worst* per-group half-width of a 95%
//! normal-approximation confidence interval for the mean, relative to
//! the estimate (capped at 1.0 — "no better than a guess"); groups with
//! fewer than two retained rows report 1.0. Conservative by design: the
//! first paint advertises its least-trustworthy group.

use crate::exec::{apply_predicate, encode_keys, plan_agg_inputs, AggInputs, BATCH_ROWS};
use crate::group::{finish_hash, fold_hash, GroupKeys, GroupTable, GroupedResult};
use crate::plan::GroupSpec;
use qagview_common::Result;
use qagview_storage::selection::{gather_f64, gather_i64_as_f64, SelectionVector};
use qagview_storage::Table;

/// Two-sided 95% normal quantile used for the error bars.
const Z95: f64 = 1.959_963_984_540_054;

/// Shape of one sampled group phase. Every field participates in
/// [`SampleSpec::fingerprint`], so cached approximate artifacts never
/// alias across differing sample shapes (or the exact phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Seed of the systematic draw and the reservoir priorities.
    pub seed: u64,
    /// Row ids to draw (clamped to `[1, N]`; `>= N` degenerates to the
    /// full scan, at which point `AVG`/`COUNT`/`MIN`/`MAX` estimates are
    /// bit-identical to the exact phase).
    pub target_rows: usize,
    /// Max sampled rows retained per group for the value estimates (the
    /// matched *count* stays exact over the sample regardless).
    pub reservoir: usize,
}

impl Default for SampleSpec {
    fn default() -> Self {
        SampleSpec {
            seed: 0x5a3b_1e00_7d61_c0de,
            target_rows: 16_384,
            reservoir: 256,
        }
    }
}

impl SampleSpec {
    /// Composite fingerprint lane for cache keys: distinct from every
    /// other spec and from the exact phase (callers combine it with the
    /// query's own fingerprints).
    pub fn fingerprint(&self) -> u64 {
        let mut h = fold_hash(0x5a4d_504c_4544, self.seed);
        h = fold_hash(h, self.target_rows as u64);
        h = fold_hash(h, self.reservoir as u64);
        finish_hash(h)
    }
}

/// Accuracy metadata of one sampled group phase — what the fidelity API
/// renders as error bars next to an approximate summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Worst per-group relative half-width of the mean's confidence
    /// interval, in `[0, 1]` (1.0 = at least one group is a guess).
    pub rel_err: f64,
    /// Confidence level of `rel_err` (fixed at 0.95).
    pub confidence: f64,
    /// Row ids drawn from the table.
    pub sampled_rows: u64,
    /// Sampled rows that survived the predicates.
    pub matched_rows: u64,
    /// Rows of the scanned table.
    pub total_rows: u64,
}

/// An approximate [`GroupedResult`] plus its accuracy metadata.
#[derive(Debug)]
pub struct SampledResult {
    /// The estimated group phase; downstream `HAVING`/`ORDER`/`LIMIT`
    /// derivation ([`GroupedResult::apply_answers`]) works unchanged.
    pub result: GroupedResult,
    /// Accuracy of the estimates.
    pub stats: SampleStats,
}

/// The deterministic systematic draw: one row id per equal stride of the
/// table, jittered inside its stride by a seeded hash. Ascending and
/// duplicate-free by construction; `target >= n` returns every row.
pub fn sample_row_ids(seed: u64, n: usize, target: usize) -> Vec<u32> {
    debug_assert!(n <= u32::MAX as usize, "row ids are u32");
    if n == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, n);
    if target == n {
        return (0..n as u32).collect();
    }
    (0..target)
        .map(|j| {
            let lo = j * n / target;
            let hi = (j + 1) * n / target;
            let jitter = finish_hash(fold_hash(seed ^ 0x9e37_79b9_7f4a_7c15, j as u64));
            (lo + (jitter as usize % (hi - lo))) as u32
        })
        .collect()
}

/// Reservoir priority of a row: a pure function of `(seed, row)`, so the
/// `R` smallest `(priority, row)` pairs of a group — the retained set —
/// are independent of scan partitioning and merge order.
#[inline]
fn priority(seed: u64, row: u32) -> u64 {
    finish_hash(fold_hash(seed ^ 0x2545_f491_4f6c_dd1d, u64::from(row) + 1))
}

/// What one chunk's scan produced — the sampled twin of the morsel
/// output: local group keys plus, per selected row in ascending row
/// order, the local gid, the row id, and each gathered aggregate input.
struct ChunkOutput {
    num_local_groups: usize,
    local_keys: Vec<u64>,
    row_gids: Vec<u32>,
    row_ids: Vec<u32>,
    row_vals: Vec<Vec<f64>>,
}

/// Scan one ascending id chunk through the shared predicate/keying
/// kernels (gather paths only — sampled batches are never dense).
fn scan_chunk(
    spec: &GroupSpec,
    table: &Table,
    inputs: &AggInputs,
    ids: &[u32],
) -> Result<ChunkOutput> {
    let width = spec.group_cols.len();
    let mut gt = GroupTable::new(width);
    let mut sel = SelectionVector::with_capacity(BATCH_ROWS);
    let mut keys: Vec<u64> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    let mut gids: Vec<u32> = Vec::new();
    let mut gathered: Vec<f64> = Vec::new();
    let mut out = ChunkOutput {
        num_local_groups: 0,
        local_keys: Vec::new(),
        row_gids: Vec::new(),
        row_ids: Vec::new(),
        row_vals: vec![Vec::new(); inputs.input_cols.len()],
    };
    for batch in ids.chunks(BATCH_ROWS) {
        sel.fill_ids(batch);
        for p in &spec.predicates {
            apply_predicate(table, p, &mut sel)?;
            if sel.is_empty() {
                break;
            }
        }
        if sel.is_empty() {
            continue;
        }
        encode_keys(table, &spec.group_cols, &sel, None, &mut keys, &mut hashes)?;
        gt.assign(&keys, &hashes, sel.len(), &mut gids);
        out.row_gids.extend_from_slice(&gids);
        out.row_ids.extend_from_slice(sel.rows());
        for (k, &c) in inputs.input_cols.iter().enumerate() {
            let col = table.column(c);
            if let Some(v) = col.as_f64() {
                gather_f64(v, &sel, &mut gathered);
            } else if let Some(v) = col.as_i64() {
                gather_i64_as_f64(v, &sel, &mut gathered);
            } else {
                unreachable!("non-numeric inputs rejected before the scan");
            }
            out.row_vals[k].extend_from_slice(&gathered);
        }
    }
    out.num_local_groups = gt.num_groups();
    out.local_keys = gt.key_arena().to_vec();
    Ok(out)
}

/// One group's reservoir: parallel columns of priority / row id / row
/// values (`num_inputs` per row, row-major).
#[derive(Default)]
struct Reservoir {
    prio: Vec<u64>,
    rid: Vec<u32>,
    vals: Vec<f64>,
}

impl Reservoir {
    /// Keep the `cap` smallest `(priority, row)` entries — an
    /// order-independent top-R, so insertion order cannot leak into the
    /// retained set.
    fn offer(&mut self, cap: usize, p: u64, rid: u32, vals: &[f64], num_inputs: usize) {
        if self.rid.len() < cap {
            self.prio.push(p);
            self.rid.push(rid);
            self.vals.extend_from_slice(vals);
            return;
        }
        let mut worst = 0;
        for i in 1..self.prio.len() {
            if (self.prio[i], self.rid[i]) > (self.prio[worst], self.rid[worst]) {
                worst = i;
            }
        }
        if (p, rid) < (self.prio[worst], self.rid[worst]) {
            self.prio[worst] = p;
            self.rid[worst] = rid;
            self.vals[worst * num_inputs..(worst + 1) * num_inputs].copy_from_slice(vals);
        }
    }
}

/// Run the sampled group phase over `partitions` contiguous id chunks.
/// Byte-identical for any `partitions >= 1` (see the module docs); the
/// exact pipeline never calls this — it is the explicitly-approximate
/// entry point behind [`crate::run_query`]'s progressive callers.
pub fn group_aggregate_sampled(
    spec: &GroupSpec,
    table: &Table,
    sample: &SampleSpec,
    partitions: usize,
) -> Result<SampledResult> {
    let n = table.num_rows();
    let width = spec.group_cols.len();
    let inputs = plan_agg_inputs(spec, table)?;
    let num_inputs = inputs.input_cols.len();
    let cap = sample.reservoir.max(1);

    let ids = sample_row_ids(sample.seed, n, sample.target_rows);
    let sampled_rows = ids.len();
    let p = partitions.max(1).min(sampled_rows.max(1));
    let chunk_len = sampled_rows.div_ceil(p).max(1);

    // Ordered merge over ascending chunks: remap each chunk's local
    // groups onto the global table (global first-encounter order is the
    // P = 1 order), count every matched row, and offer it to its group's
    // reservoir.
    let mut gt = GroupTable::new(width);
    let mut matched: Vec<u64> = Vec::new();
    let mut reservoirs: Vec<Reservoir> = Vec::new();
    let mut remap: Vec<u32> = Vec::new();
    let mut remap_hashes: Vec<u64> = Vec::new();
    let mut row_buf: Vec<f64> = vec![0.0; num_inputs];
    for chunk in ids.chunks(chunk_len.max(1)) {
        let out = scan_chunk(spec, table, &inputs, chunk)?;
        remap_hashes.clear();
        remap_hashes.extend(
            out.local_keys
                .chunks_exact(width.max(1))
                .take(out.num_local_groups)
                .map(|key| key.iter().fold(0u64, |h, &lane| fold_hash(h, lane))),
        );
        if width == 0 {
            remap_hashes.resize(out.num_local_groups, 0);
        }
        gt.assign(
            &out.local_keys,
            &remap_hashes,
            out.num_local_groups,
            &mut remap,
        );
        if gt.num_groups() > matched.len() {
            matched.resize(gt.num_groups(), 0);
            reservoirs.resize_with(gt.num_groups(), Reservoir::default);
        }
        for (i, (&lg, &rid)) in out.row_gids.iter().zip(&out.row_ids).enumerate() {
            let g = remap[lg as usize] as usize;
            matched[g] += 1;
            for (k, slot) in row_buf.iter_mut().enumerate() {
                *slot = out.row_vals[k][i];
            }
            reservoirs[g].offer(cap, priority(sample.seed, rid), rid, &row_buf, num_inputs);
        }
    }

    let num_groups = gt.num_groups();
    let scale = if sampled_rows == 0 {
        0.0
    } else {
        n as f64 / sampled_rows as f64
    };
    let err_input = inputs.agg_input.iter().flatten().next().copied();
    let mut matched_total = 0u64;
    let mut rel_err: f64 = 0.0;
    let mut finished: Vec<Vec<f64>> = vec![Vec::with_capacity(num_groups); spec.aggs.len()];
    let mut order: Vec<usize> = Vec::new();
    for g in 0..num_groups {
        matched_total += matched[g];
        let res = &reservoirs[g];
        let m_g = res.rid.len();
        // Replay the retained rows in ascending row order so every float
        // fold is a pure function of the retained *set*.
        order.clear();
        order.extend(0..m_g);
        order.sort_unstable_by_key(|&i| res.rid[i]);
        let est_count = matched[g] as f64 * scale;
        let col_stats = |k: usize| -> (f64, f64, f64) {
            let (mut sum, mut min, mut max) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
            for &i in &order {
                let v = res.vals[i * num_inputs + k];
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
            (sum / m_g as f64, min, max)
        };
        for (ai, agg) in spec.aggs.iter().enumerate() {
            let v = match (agg.func, inputs.agg_input[ai]) {
                (crate::ast::AggFunc::Count, _) | (_, None) => est_count,
                (func, Some(k)) => {
                    let (mean, min, max) = col_stats(k);
                    match func {
                        crate::ast::AggFunc::Avg => mean,
                        crate::ast::AggFunc::Sum => mean * est_count,
                        crate::ast::AggFunc::Min => min,
                        crate::ast::AggFunc::Max => max,
                        crate::ast::AggFunc::Count => unreachable!("matched above"),
                    }
                }
            };
            finished[ai].push(v);
        }
        // Error bound of this group, from the first value-bearing
        // aggregate (count-only queries use the binomial count bound).
        let g_err = match err_input {
            _ if m_g < 2 => 1.0,
            Some(k) => {
                let (mean, _, _) = col_stats(k);
                let var = order
                    .iter()
                    .map(|&i| {
                        let d = res.vals[i * num_inputs + k] - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / (m_g - 1) as f64;
                Z95 * (var / m_g as f64).sqrt() / mean.abs().max(f64::MIN_POSITIVE)
            }
            None => {
                let f = sampled_rows as f64 / n.max(1) as f64;
                Z95 * ((1.0 - f).max(0.0) / m_g as f64).sqrt()
            }
        };
        rel_err = rel_err.max(if g_err.is_finite() {
            g_err.min(1.0)
        } else {
            1.0
        });
    }

    let result = GroupedResult::from_finished(
        spec,
        table,
        GroupKeys::hashed(&mut gt),
        num_groups,
        finished,
    )?;
    Ok(SampledResult {
        result,
        stats: SampleStats {
            rel_err,
            confidence: 0.95,
            sampled_rows: sampled_rows as u64,
            matched_rows: matched_total,
            total_rows: n as u64,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::group_aggregate;
    use crate::parser::parse;
    use crate::plan::bind;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn skewed_table(rows: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("g", ColumnType::Int),
            ("s", ColumnType::Str),
            ("x", ColumnType::Float),
            ("n", ColumnType::Int),
        ])
        .unwrap();
        let mut b = TableBuilder::with_capacity(schema, rows);
        let mut h = 0x1234_5678_9abc_def0u64;
        for r in 0..rows {
            h = finish_hash(fold_hash(h, r as u64));
            // One giant group (g = 0) plus a tail of small ones.
            let g = if h.is_multiple_of(4) {
                (h % 23) as i64
            } else {
                0
            };
            let s = format!("s{}", h % 5);
            let x = (h % 10_000) as f64 / 16.0 - 300.0;
            b.push_row(vec![
                Cell::Int(g),
                s.as_str().into(),
                Cell::Float(x),
                Cell::Int((h % 1000) as i64),
            ])
            .unwrap();
        }
        b.finish()
    }

    const SQL: &str = "SELECT g, s, AVG(x) AS val FROM t WHERE n < 900 GROUP BY g, s \
                       HAVING count(*) > 10 ORDER BY val DESC LIMIT 50";

    #[test]
    fn sample_ids_are_ascending_deterministic_and_stratified() {
        let a = sample_row_ids(7, 100_000, 1000);
        let b = sample_row_ids(7, 100_000, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // One id per stride of 100.
        for (j, &id) in a.iter().enumerate() {
            assert!((id as usize) / 100 == j);
        }
        let c = sample_row_ids(8, 100_000, 1000);
        assert_ne!(a, c, "seed must move the draw");
        assert_eq!(sample_row_ids(7, 10, 50), (0..10u32).collect::<Vec<_>>());
        assert!(sample_row_ids(7, 0, 50).is_empty());
    }

    #[test]
    fn sampled_phase_is_byte_reproducible_across_partition_counts() {
        let table = skewed_table(30_000);
        let bound = bind(&parse(SQL).unwrap(), &table).unwrap();
        let spec = SampleSpec {
            seed: 42,
            target_rows: 2_000,
            reservoir: 32,
        };
        let base = group_aggregate_sampled(&bound.group, &table, &spec, 1).unwrap();
        let base_fp = base.result.result_fingerprint();
        assert!(base.stats.rel_err > 0.0 && base.stats.rel_err <= 1.0);
        assert_eq!(base.stats.sampled_rows, 2_000);
        for p in [2usize, 7, 16] {
            let other = group_aggregate_sampled(&bound.group, &table, &spec, p).unwrap();
            assert_eq!(other.result.result_fingerprint(), base_fp, "P={p}");
            assert_eq!(other.stats, base.stats, "P={p}");
        }
        // And the derived answer relation is identical too.
        let a = base.result.apply_answers(&bound.output).unwrap();
        let b = group_aggregate_sampled(&bound.group, &table, &spec, 7)
            .unwrap()
            .result
            .apply_answers(&bound.output)
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn full_sample_with_roomy_reservoir_matches_exact_bits() {
        // target >= N and reservoir >= every group: AVG / COUNT / MIN /
        // MAX estimates degenerate to the exact values, accumulated in
        // the exact path's ascending row order — the fingerprints match
        // bit for bit.
        let table = skewed_table(4_000);
        for sql in [
            SQL,
            "SELECT s, COUNT(*) AS val FROM t GROUP BY s ORDER BY val DESC",
            "SELECT g, MIN(x) AS val FROM t GROUP BY g HAVING max(x) > 0 ORDER BY val ASC",
        ] {
            let bound = bind(&parse(sql).unwrap(), &table).unwrap();
            let exact = group_aggregate(&bound.group, &table).unwrap();
            let spec = SampleSpec {
                seed: 9,
                target_rows: usize::MAX,
                reservoir: usize::MAX,
            };
            let sampled = group_aggregate_sampled(&bound.group, &table, &spec, 3).unwrap();
            assert_eq!(
                sampled.result.result_fingerprint(),
                exact.result_fingerprint(),
                "{sql}"
            );
            assert_eq!(sampled.stats.sampled_rows, 4_000);
        }
    }

    #[test]
    fn reservoir_caps_retained_rows_but_counts_stay_exact_over_the_sample() {
        let table = skewed_table(20_000);
        let bound = bind(
            &parse("SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC").unwrap(),
            &table,
        )
        .unwrap();
        let tight = SampleSpec {
            seed: 5,
            target_rows: 5_000,
            reservoir: 8,
        };
        let loose = SampleSpec {
            reservoir: usize::MAX,
            ..tight
        };
        let a = group_aggregate_sampled(&bound.group, &table, &tight, 2).unwrap();
        let b = group_aggregate_sampled(&bound.group, &table, &loose, 2).unwrap();
        // Same matched counts (the COUNT estimate ignores the cap) …
        assert_eq!(a.stats.matched_rows, b.stats.matched_rows);
        // … but the tight reservoir changes the value estimates.
        assert_ne!(a.result.result_fingerprint(), b.result.result_fingerprint());
        // Tight-reservoir runs stay partition-invariant.
        let c = group_aggregate_sampled(&bound.group, &table, &tight, 16).unwrap();
        assert_eq!(a.result.result_fingerprint(), c.result.result_fingerprint());
    }

    #[test]
    fn estimates_track_the_exact_answer_on_a_benign_table() {
        // Uniform-ish values: a 10% sample must land well inside the
        // advertised error bound for the big group's mean.
        let table = skewed_table(50_000);
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g HAVING count(*) > 1000 \
                   ORDER BY val DESC";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let exact = group_aggregate(&bound.group, &table)
            .unwrap()
            .apply(&bound.output)
            .unwrap();
        let spec = SampleSpec {
            seed: 1,
            target_rows: 5_000,
            reservoir: 4_096,
        };
        let sampled = group_aggregate_sampled(&bound.group, &table, &spec, 1)
            .unwrap()
            .result
            .apply(&bound.output)
            .unwrap();
        let exact_big = exact.rows.iter().map(|r| r.val).fold(f64::MIN, f64::max);
        let approx_big = sampled.rows.iter().map(|r| r.val).fold(f64::MIN, f64::max);
        let rel = (approx_big - exact_big).abs() / exact_big.abs().max(1e-12);
        assert!(
            rel < 0.2,
            "estimate off by {rel} (exact {exact_big}, approx {approx_big})"
        );
    }
}
