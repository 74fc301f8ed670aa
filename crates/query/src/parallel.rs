//! Morsel-parallel group-phase execution.
//!
//! [`group_aggregate_parallel`] partitions the table scan into fixed-size
//! *morsels* (contiguous row ranges) dispatched to `std::thread::scope`
//! workers over an atomic work queue. Each worker owns one pooled set of
//! scan scratch — a [`SelectionVector`], a [`GroupTable`], key/hash/gid
//! buffers — reused across every morsel it claims (no per-morsel
//! allocation; see [`ParallelScanStats::scratch_reuses`]). A worker scans
//! its morsel exactly like the sequential pipeline scans a batch run, but
//! instead of accumulating into global state it emits a compact
//! `MorselOutput`: the morsel's local group-key arena plus, per selected
//! row, the local group id and the gathered aggregate-input values.
//!
//! # Determinism: ordered partition merge, ascending re-accumulation
//!
//! Float addition is not associative, so merging per-partition *partial
//! sums* can never be bit-identical to the sequential scan for an
//! arbitrary partition count. This module therefore merges **rows, not
//! sums**: morsel outputs are merged in ascending morsel order, each
//! morsel's local group ids are remapped onto one global [`GroupTable`]
//! (inserting each morsel's local groups in local first-encounter order),
//! and every aggregate is re-accumulated row by row from the stored
//! per-row values. Because morsels are contiguous ascending row ranges,
//!
//! * the global group-id assignment reproduces the sequential
//!   first-encounter order exactly (a group's first global occurrence lies
//!   in the first morsel containing it, and within that morsel local
//!   first-encounter order *is* row order), and
//! * the merge's row walk is the sequential scan's row walk, so every
//!   `SUM`/`AVG` float addition chain — and every `MIN`/`MAX`
//!   `f64::min`/`max` application order, which matters for signed zeros
//!   and NaN operands — is replayed in the identical order.
//!
//! The result is byte-identical (f64 bit patterns included) to
//! [`crate::exec::group_aggregate`] for *any* partition count and any
//! worker schedule; `P = 1` degenerates to an identity remap. The
//! partition-count-invariance property suite in this module holds the
//! contract on random tables and queries, with the sequential engine as
//! oracle.
//!
//! The merge costs one extra `O(selected rows)` pass and the transient
//! morsel outputs hold ~`4 + 8·(input columns)` bytes per selected row —
//! the price of determinism, paid only on the parallel path.
//!
//! # When the morsel path runs
//!
//! [`group_aggregate_auto`] sends a scan here only when the direct key
//! codec declines it: some group column has no dense code table, or the
//! key domain exceeds [`crate::exec::direct_slot_bound`]. The direct
//! sequential scan beats this path on the paper's categorical group-bys
//! at every size measured (5M-row MovieLens at m = 3/4/6 and the 288k-row
//! TPC-DS Fig. 9 query on a 2-vCPU host), because it skips both the key
//! hashing and the row-by-row merge. What remains here is wide key
//! domains on tables of at least [`PARALLEL_MIN_ROWS`] rows.

use crate::exec::{apply_predicate, encode_keys, plan_agg_inputs, AggInputs, BATCH_ROWS};
use crate::group::{fold_hash, AggColumns, GroupCounts, GroupKeys, GroupTable, GroupedResult};
use crate::plan::GroupSpec;
use qagview_common::Result;
use qagview_storage::selection::{gather_f64, gather_i64_as_f64, SelectionVector};
use qagview_storage::Table;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per morsel: a handful of scan batches, so the per-morsel
/// dispatch overhead amortizes while the work queue still load-balances.
pub const MORSEL_ROWS: usize = 16 * BATCH_ROWS;

/// Row-count threshold below which [`group_aggregate_auto`] keeps a
/// hashed scan sequential. A hashed scan of this many rows takes several
/// milliseconds (the paper query at m = 3/4/6: 5.7/7.6/13.6 ms on a
/// 2-vCPU Xeon), and the thread spawns plus the ordered merge eat what a
/// second core saves (6.8/7.9/13.6 ms morsel-parallel).
pub const PARALLEL_MIN_ROWS: usize = 4 * MORSEL_ROWS;

/// Configuration of the morsel-parallel scan.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads to spawn (clamped to the morsel count; `0` and `1`
    /// both mean "run the morsel pipeline on the calling thread").
    pub threads: usize,
    /// Rows per morsel (minimum 1).
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism().map_or(1, |t| t.get()),
            morsel_rows: MORSEL_ROWS,
        }
    }
}

impl ParallelConfig {
    /// A configuration that splits an `n_rows`-row table into exactly
    /// `partitions` contiguous morsels (the last may be short), with one
    /// worker per partition — the shape the partition-count-invariance
    /// property tests sweep.
    pub fn with_partitions(n_rows: usize, partitions: usize) -> Self {
        let p = partitions.max(1);
        ParallelConfig {
            threads: p,
            morsel_rows: n_rows.div_ceil(p).max(1),
        }
    }
}

/// Counters from the group scans run so far: which path
/// [`group_aggregate_auto`] took, and the worker scratch pooling of the
/// morsel-parallel scans. Counters are cumulative so a session can expose
/// them across many queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Scans that took the direct-indexed sequential path.
    pub direct_scans: u64,
    /// Scans that took the morsel-parallel path.
    pub parallel_scans: u64,
    /// Morsels processed across all parallel scans.
    pub morsels: u64,
    /// Workers spawned across all parallel scans.
    pub workers: u64,
    /// Morsels served by a worker's *pooled* scratch (selection vector,
    /// group table, key/gid buffers) rather than a fresh allocation —
    /// every morsel after a worker's first. `morsels - workers` when all
    /// workers claim at least one morsel.
    pub scratch_reuses: u64,
}

impl ParallelScanStats {
    /// Add another counter snapshot into this one (sessions fold each
    /// scan's counters into a cumulative total with this).
    pub fn merge(&mut self, other: ParallelScanStats) {
        self.direct_scans += other.direct_scans;
        self.parallel_scans += other.parallel_scans;
        self.morsels += other.morsels;
        self.workers += other.workers;
        self.scratch_reuses += other.scratch_reuses;
    }
}

/// One worker's pooled scan scratch, reused across every morsel it claims.
struct WorkerScratch {
    sel: SelectionVector,
    gt: GroupTable,
    keys: Vec<u64>,
    hashes: Vec<u64>,
    gids: Vec<u32>,
    input_scratch: Vec<Vec<f64>>,
}

impl WorkerScratch {
    fn new(width: usize, num_inputs: usize) -> Self {
        WorkerScratch {
            sel: SelectionVector::with_capacity(BATCH_ROWS),
            gt: GroupTable::new(width),
            keys: Vec::with_capacity(BATCH_ROWS * width.max(1)),
            hashes: Vec::with_capacity(BATCH_ROWS),
            gids: Vec::with_capacity(BATCH_ROWS),
            input_scratch: (0..num_inputs)
                .map(|_| Vec::with_capacity(BATCH_ROWS))
                .collect(),
        }
    }
}

/// What one morsel's scan produced: the local group-key arena plus, per
/// selected row in ascending row order, the local group id and the
/// gathered value of each distinct aggregate input column.
struct MorselOutput {
    morsel_id: usize,
    num_local_groups: usize,
    /// Local key arena copied out of the worker's pooled table
    /// (`width` lanes per local group, local-gid order).
    local_keys: Vec<u64>,
    /// Local group id of every selected row, ascending row order.
    row_gids: Vec<u32>,
    /// Per distinct input column: the selected rows' values, same order.
    row_vals: Vec<Vec<f64>>,
}

/// Scan rows `[start, end)` with the worker's pooled scratch, emitting the
/// morsel output. Mirrors the sequential pipeline's batch loop exactly —
/// same predicate kernels, same dense-batch fast paths — except values and
/// local gids are stored instead of accumulated.
fn scan_morsel(
    spec: &GroupSpec,
    table: &Table,
    inputs: &AggInputs,
    start: usize,
    end: usize,
    scratch: &mut WorkerScratch,
    morsel_id: usize,
) -> Result<MorselOutput> {
    let width = spec.group_cols.len();
    scratch.gt.clear(width);
    let mut row_gids: Vec<u32> = Vec::new();
    let mut row_vals: Vec<Vec<f64>> = vec![Vec::new(); inputs.input_cols.len()];

    let mut batch_start = start;
    while batch_start < end {
        let batch_end = (batch_start + BATCH_ROWS).min(end);
        scratch.sel.fill_range(batch_start as u32, batch_end as u32);
        for p in &spec.predicates {
            apply_predicate(table, p, &mut scratch.sel)?;
            if scratch.sel.is_empty() {
                break;
            }
        }
        if scratch.sel.is_empty() {
            batch_start = batch_end;
            continue;
        }
        let dense_start = if scratch.sel.len() == batch_end - batch_start {
            Some(batch_start)
        } else {
            None
        };
        encode_keys(
            table,
            &spec.group_cols,
            &scratch.sel,
            dense_start,
            &mut scratch.keys,
            &mut scratch.hashes,
        )?;
        scratch.gt.assign(
            &scratch.keys,
            &scratch.hashes,
            scratch.sel.len(),
            &mut scratch.gids,
        );
        row_gids.extend_from_slice(&scratch.gids);
        for (k, &c) in inputs.input_cols.iter().enumerate() {
            let col = table.column(c);
            if let Some(v) = col.as_f64() {
                match dense_start {
                    Some(s) => row_vals[k].extend_from_slice(&v[s..s + scratch.sel.len()]),
                    None => {
                        gather_f64(v, &scratch.sel, &mut scratch.input_scratch[k]);
                        row_vals[k].extend_from_slice(&scratch.input_scratch[k]);
                    }
                }
            } else if let Some(v) = col.as_i64() {
                match dense_start {
                    Some(s) => {
                        row_vals[k].extend(v[s..s + scratch.sel.len()].iter().map(|&x| x as f64))
                    }
                    None => {
                        gather_i64_as_f64(v, &scratch.sel, &mut scratch.input_scratch[k]);
                        row_vals[k].extend_from_slice(&scratch.input_scratch[k]);
                    }
                }
            } else {
                unreachable!("non-numeric inputs rejected before the scan");
            }
        }
        batch_start = batch_end;
    }

    Ok(MorselOutput {
        morsel_id,
        num_local_groups: scratch.gt.num_groups(),
        local_keys: scratch.gt.key_arena().to_vec(),
        row_gids,
        row_vals,
    })
}

/// Run the group phase morsel-parallel. Byte-identical to
/// [`crate::exec::group_aggregate`] for any `cfg` (see the module docs for
/// the determinism argument).
pub fn group_aggregate_parallel(
    spec: &GroupSpec,
    table: &Table,
    cfg: &ParallelConfig,
) -> Result<GroupedResult> {
    let mut gt = GroupTable::new(spec.group_cols.len());
    let mut stats = ParallelScanStats::default();
    group_aggregate_parallel_with(spec, table, cfg, &mut gt, &mut stats)
}

/// [`group_aggregate_parallel`] against a caller-provided merge
/// [`GroupTable`] (cleared first, allocations kept) and cumulative
/// [`ParallelScanStats`].
pub fn group_aggregate_parallel_with(
    spec: &GroupSpec,
    table: &Table,
    cfg: &ParallelConfig,
    gt: &mut GroupTable,
    stats: &mut ParallelScanStats,
) -> Result<GroupedResult> {
    let n = table.num_rows();
    let width = spec.group_cols.len();
    let inputs = plan_agg_inputs(spec, table)?;
    let morsel_rows = cfg.morsel_rows.max(1);
    let num_morsels = n.div_ceil(morsel_rows);
    let workers = cfg.threads.clamp(1, num_morsels.max(1));

    let mut run_stats = ParallelScanStats {
        parallel_scans: 1,
        morsels: num_morsels as u64,
        workers: workers as u64,
        ..ParallelScanStats::default()
    };

    // Claim morsels off an atomic queue; each worker collects its outputs
    // locally. The morsel-id sort afterwards makes the merge independent
    // of the scheduling order.
    let next = AtomicUsize::new(0);
    let worker_loop = |reuses: &mut u64| -> Result<Vec<MorselOutput>> {
        let mut scratch = WorkerScratch::new(width, inputs.input_cols.len());
        let mut out = Vec::new();
        loop {
            let m = next.fetch_add(1, Ordering::Relaxed);
            if m >= num_morsels {
                break;
            }
            if !out.is_empty() {
                *reuses += 1;
            }
            let start = m * morsel_rows;
            let end = (start + morsel_rows).min(n);
            out.push(scan_morsel(
                spec,
                table,
                &inputs,
                start,
                end,
                &mut scratch,
                m,
            )?);
        }
        Ok(out)
    };

    let mut outputs: Vec<MorselOutput> = if workers > 1 {
        let results: Vec<Result<(Vec<MorselOutput>, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut reuses = 0u64;
                        worker_loop(&mut reuses).map(|out| (out, reuses))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("morsel worker panicked"))
                .collect()
        });
        let mut all = Vec::with_capacity(num_morsels);
        for r in results {
            let (out, reuses) = r?;
            run_stats.scratch_reuses += reuses;
            all.extend(out);
        }
        all
    } else {
        let mut reuses = 0u64;
        let out = worker_loop(&mut reuses)?;
        run_stats.scratch_reuses += reuses;
        out
    };
    outputs.sort_unstable_by_key(|o| o.morsel_id);

    // Ordered merge: walk morsels in ascending id, remap local group ids
    // through the global table, and re-accumulate every aggregate row by
    // row — replaying the sequential scan's exact accumulation order.
    gt.clear(width);
    let mut counts = GroupCounts::default();
    let mut acc: Vec<AggColumns> = spec.aggs.iter().map(|_| AggColumns::default()).collect();
    let mut remap: Vec<u32> = Vec::new();
    let mut remap_hashes: Vec<u64> = Vec::new();
    let mut global_gids: Vec<u32> = Vec::new();
    for out in &outputs {
        // Insert this morsel's local groups in local-gid order: local
        // first-encounter order is row order, so the global table extends
        // in sequential first-encounter order.
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
        global_gids.clear();
        global_gids.extend(out.row_gids.iter().map(|&lg| remap[lg as usize]));
        counts.count_rows(&global_gids, gt.num_groups());
        for (ai, agg) in spec.aggs.iter().enumerate() {
            let Some(k) = inputs.agg_input[ai] else {
                continue;
            };
            let vals = &out.row_vals[k];
            match agg.func {
                crate::ast::AggFunc::Sum | crate::ast::AggFunc::Avg => {
                    acc[ai].accumulate_sum(&global_gids, vals, gt.num_groups())
                }
                crate::ast::AggFunc::Min => {
                    acc[ai].accumulate_min(&global_gids, vals, gt.num_groups())
                }
                crate::ast::AggFunc::Max => {
                    acc[ai].accumulate_max(&global_gids, vals, gt.num_groups())
                }
                crate::ast::AggFunc::Count => unreachable!("filtered above"),
            }
        }
    }

    stats.merge(run_stats);
    let num_groups = gt.num_groups();
    GroupedResult::finish(
        spec,
        table,
        GroupKeys::hashed(gt),
        num_groups,
        &counts,
        &acc,
    )
}

/// The dispatching group phase. Output is byte-identical on every path;
/// only the cost differs.
///
/// 1. **Direct**: when every group column has a dense code table and the
///    key domain fits [`crate::exec::direct_slot_bound`] (four slots per
///    row), the sequential scan indexes group ids directly — see
///    [`crate::exec::group_aggregate_direct_with`]. It skips key hashing
///    and, at any size, the morsel path's row-by-row merge. The paper's
///    categorical group-bys all land here. Counted in
///    [`ParallelScanStats::direct_scans`].
/// 2. **Morsel-parallel**: wider key domains on tables of at least
///    [`PARALLEL_MIN_ROWS`] rows when more than one core is available.
/// 3. **Hashed sequential** ([`crate::exec::group_aggregate_with`])
///    otherwise.
pub fn group_aggregate_auto(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
    stats: &mut ParallelScanStats,
) -> Result<GroupedResult> {
    if let Some(grouped) = crate::exec::group_aggregate_direct_with(spec, table, gt)? {
        stats.direct_scans += 1;
        return Ok(grouped);
    }
    let cfg = ParallelConfig::default();
    if table.num_rows() >= PARALLEL_MIN_ROWS && cfg.threads > 1 {
        group_aggregate_parallel_with(spec, table, &cfg, gt, stats)
    } else {
        crate::exec::group_aggregate_with(spec, table, gt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{
        direct_slot_bound, execute_rows, group_aggregate, group_aggregate_direct_with,
    };
    use crate::parser::parse;
    use crate::plan::bind;
    use qagview_datagen::movielens::{self, MovieLensConfig};
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    /// The partition counts every invariance test sweeps — 1 degenerates
    /// to the identity remap, the rest force group keys to straddle
    /// morsel boundaries in different ways.
    const PARTITIONS: [usize; 5] = [1, 2, 3, 7, 16];

    /// Tiny deterministic xorshift so the property tests need no RNG dep.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random table whose float values exercise non-associativity
    /// (mixed magnitudes), with occasional NaNs and signed zeros. Key
    /// columns: `g` (negative `Int`s), `s` and `s2` (`Str`s from the one
    /// interner, partly overlapping), `flag`, and `e`, whose `i64::MIN` /
    /// `i64::MAX` range has no dense code table.
    fn random_table(seed: u64, rows: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("g", ColumnType::Int),
            ("s", ColumnType::Str),
            ("flag", ColumnType::Bool),
            ("x", ColumnType::Float),
            ("n", ColumnType::Int),
            ("s2", ColumnType::Str),
            ("e", ColumnType::Int),
        ])
        .unwrap();
        let mut rng = XorShift(seed.wrapping_mul(0x9e3779b97f4a7c15).max(1));
        let mut b = TableBuilder::with_capacity(schema, rows);
        for _ in 0..rows {
            let g = rng.below(23) as i64 - 11;
            let s = format!("s{}", rng.below(7));
            let flag = rng.below(2) == 0;
            let x = match rng.below(41) {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                k if k < 10 => (rng.below(1000) as f64) * 1e-9,
                k if k < 20 => (rng.below(1000) as f64) * 1e6,
                _ => rng.below(10_000) as f64 / 16.0 - 300.0,
            };
            let n = rng.below(1_000_000) as i64 - 500_000;
            let s2 = format!("s{}", (g + 11) % 9);
            let e = if g < 0 { i64::MIN } else { i64::MAX - g };
            b.push_row(vec![
                Cell::Int(g),
                s.as_str().into(),
                flag.into(),
                Cell::Float(x),
                Cell::Int(n),
                s2.as_str().into(),
                Cell::Int(e),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// Assert the parallel scan is byte-identical to the sequential oracle
    /// for every swept partition count: equal `GroupedResult` fingerprints
    /// and equal `AnswerSet` fingerprints of the derived answer relation
    /// (or the identical error — `AnswerSet` refuses NaN scores by
    /// contract, and the parallel path must refuse them identically).
    ///
    /// The direct key codec (where the key domain admits it) and the
    /// dispatching [`group_aggregate_auto`] are held to the same oracle.
    fn assert_partition_invariant(sql: &str, table: &Table) {
        let bound = bind(&parse(sql).unwrap(), table).unwrap();
        let oracle = group_aggregate(&bound.group, table).unwrap();
        let oracle_fp = oracle.result_fingerprint();
        let oracle_answers = oracle.apply_answers(&bound.output);
        let mut gt = GroupTable::new(0);
        if let Some(direct) = group_aggregate_direct_with(&bound.group, table, &mut gt).unwrap() {
            assert_eq!(
                direct.result_fingerprint(),
                oracle_fp,
                "direct codec, {sql}"
            );
        }
        let mut stats = ParallelScanStats::default();
        let auto = group_aggregate_auto(&bound.group, table, &mut gt, &mut stats).unwrap();
        assert_eq!(auto.result_fingerprint(), oracle_fp, "auto dispatch, {sql}");
        for p in PARTITIONS {
            let cfg = ParallelConfig::with_partitions(table.num_rows(), p);
            let par = group_aggregate_parallel(&bound.group, table, &cfg).unwrap();
            assert_eq!(
                par.result_fingerprint(),
                oracle_fp,
                "grouped result diverges at P={p} for {sql}"
            );
            match (&oracle_answers, par.apply_answers(&bound.output)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    b.fingerprint(),
                    a.fingerprint(),
                    "answer-set fingerprint diverges at P={p} for {sql}"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "answer-set errors diverge at P={p} for {sql}"
                ),
                (a, b) => panic!(
                    "answer-set Ok/Err parity broken at P={p} for {sql}: \
                     oracle ok={}, parallel ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
            // And the rendered output matches the row-at-a-time reference
            // modulo NaN != NaN (covered by the fingerprints above).
            let out = par.apply(&bound.output).unwrap();
            let reference = execute_rows(&bound, table).unwrap();
            let canon = |o: &crate::exec::QueryOutput| -> Vec<(Vec<String>, u64)> {
                o.rows
                    .iter()
                    .map(|r| (r.attrs.clone(), r.val.to_bits()))
                    .collect()
            };
            assert_eq!(canon(&out), canon(&reference), "P={p} vs reference, {sql}");
        }
    }

    #[test]
    fn partition_count_invariance_on_random_tables() {
        // Random tables (mixed magnitudes, NaNs, signed zeros) × the query
        // shapes of the engine: every partition count must reproduce the
        // sequential bytes, including ORDER BY tie order and NaN slots.
        for seed in [3u64, 17, 90210] {
            let table = random_table(seed, 10_240 + (seed as usize % 700));
            for sql in [
                "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC",
                "SELECT g, s, SUM(x) AS val FROM t WHERE flag = true GROUP BY g, s \
                 HAVING count(*) > 5 ORDER BY val ASC",
                "SELECT s, MIN(x) AS val FROM t WHERE n >= 0 GROUP BY s ORDER BY val ASC",
                "SELECT s, flag, MAX(x) AS val FROM t GROUP BY s, flag \
                 ORDER BY val DESC LIMIT 5",
                "SELECT g, COUNT(*) AS val FROM t WHERE x >= -100 GROUP BY g \
                 HAVING count(*) > 2 ORDER BY val DESC",
            ] {
                assert_partition_invariant(sql, &table);
            }
        }
    }

    #[test]
    fn partition_invariance_with_shared_aggregate_inputs() {
        let table = random_table(5, 9_000);
        assert_partition_invariant(
            "SELECT g, AVG(x) AS val FROM t GROUP BY g \
             HAVING min(x) < 0 AND max(x) > 1 AND count(*) > 3 ORDER BY val DESC",
            &table,
        );
        // Two distinct input columns gathered per morsel (min ignores the
        // table's planted NaNs, so the HAVING comparison stays defined).
        assert_partition_invariant(
            "SELECT s, SUM(n) AS val FROM t GROUP BY s \
             HAVING min(x) > -100000000 ORDER BY val ASC",
            &table,
        );
    }

    #[test]
    fn empty_and_degenerate_selections() {
        let table = random_table(11, 4_000);
        // Predicate that drops everything.
        assert_partition_invariant(
            "SELECT g, AVG(x) AS val FROM t WHERE n > 2000000 GROUP BY g",
            &table,
        );
        // No GROUP BY columns: the single implicit group.
        assert_partition_invariant("SELECT SUM(x) AS val FROM t", &table);
        assert_partition_invariant("SELECT COUNT(*) AS val FROM t WHERE flag = true", &table);
    }

    /// Whether the direct key codec takes `sql` on `table`.
    fn takes_direct(sql: &str, table: &Table) -> bool {
        let bound = bind(&parse(sql).unwrap(), table).unwrap();
        let mut gt = GroupTable::new(0);
        group_aggregate_direct_with(&bound.group, table, &mut gt)
            .unwrap()
            .is_some()
    }

    #[test]
    fn partition_invariance_across_key_codecs() {
        let table = random_table(71, 12_000);
        for (sql, direct) in [
            // Str columns sharing one interner, with Bool and negative Int.
            (
                "SELECT s, s2, flag, g, AVG(x) AS val FROM t GROUP BY s, s2, flag, g \
                 ORDER BY val DESC",
                true,
            ),
            // A sparse selection (about 1 row in 10 survives).
            (
                "SELECT g, s2, SUM(x) AS val FROM t WHERE n > 400000 GROUP BY g, s2 \
                 HAVING count(*) > 1 ORDER BY val ASC",
                true,
            ),
            ("SELECT flag, MIN(x) AS val FROM t GROUP BY flag", true),
            ("SELECT MAX(x) AS val FROM t WHERE n < -490000", true),
            // i64::MIN..i64::MAX has no code table: hashed fallback.
            (
                "SELECT e, s, AVG(x) AS val FROM t GROUP BY e, s ORDER BY val DESC",
                false,
            ),
            // A 1M-value Int range is past the bound of a 12k-row table.
            ("SELECT n, COUNT(*) AS val FROM t GROUP BY n", false),
        ] {
            assert_eq!(takes_direct(sql, &table), direct, "{sql}");
            assert_partition_invariant(sql, &table);
        }
        // An empty table: every codec finds no group.
        let empty = random_table(72, 0);
        assert_partition_invariant("SELECT g, s, AVG(x) AS val FROM t GROUP BY g, s", &empty);
        assert_partition_invariant("SELECT COUNT(*) AS val FROM t", &empty);
    }

    #[test]
    fn auto_dispatch_pins_the_path_per_key_domain() {
        // Big enough for the morsel path to be eligible on a multicore host.
        let table = movielens::generate(&MovieLensConfig {
            ratings: PARALLEL_MIN_ROWS,
            ..MovieLensConfig::default()
        })
        .unwrap();
        let threads = ParallelConfig::default().threads;
        let run = |sql: &str| {
            let bound = bind(&parse(sql).unwrap(), &table).unwrap();
            let mut gt = GroupTable::new(0);
            let mut stats = ParallelScanStats::default();
            let auto = group_aggregate_auto(&bound.group, &table, &mut gt, &mut stats).unwrap();
            let oracle = group_aggregate(&bound.group, &table).unwrap();
            assert_eq!(
                auto.result_fingerprint(),
                oracle.result_fingerprint(),
                "{sql}"
            );
            stats
        };
        // The paper query over categorical attributes: direct, never
        // morsel-parallel, however many rows.
        for g in [
            "hdec, agegrp, gender",
            "hdec, agegrp, gender, occupation",
            "hdec, agegrp, gender, occupation, region, decade",
        ] {
            let stats = run(&format!(
                "SELECT {g}, AVG(rating) AS val FROM ratingtable GROUP BY {g} \
                 HAVING count(*) > 10 ORDER BY val DESC"
            ));
            assert_eq!((stats.direct_scans, stats.parallel_scans), (1, 0), "{g}");
        }
        // User × movie × age spans more slots than four per row: hashed,
        // morsel-parallel when there is more than one core.
        let slots: usize = ["user_id", "movie_id", "age"]
            .iter()
            .map(|c| {
                let col = table.schema().index_of(c).unwrap();
                table.dense_codes(col).unwrap().card() as usize
            })
            .product();
        assert!(slots > direct_slot_bound(table.num_rows()), "{slots} slots");
        let stats = run(
            "SELECT user_id, movie_id, age, AVG(rating) AS val FROM ratingtable \
             GROUP BY user_id, movie_id, age",
        );
        assert_eq!(stats.direct_scans, 0);
        assert_eq!(stats.parallel_scans, u64::from(threads > 1));
        // merge sums both counters.
        let mut total = stats;
        total.merge(ParallelScanStats {
            direct_scans: 2,
            parallel_scans: 1,
            ..ParallelScanStats::default()
        });
        assert_eq!(
            (total.direct_scans, total.parallel_scans),
            (2, 1 + stats.parallel_scans)
        );
    }

    #[test]
    fn morsel_sizes_that_straddle_batches() {
        // Morsel sizes around the batch size — equal, off-by-one, tiny —
        // must not change a single byte.
        let table = random_table(29, 3 * BATCH_ROWS + 17);
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let oracle_fp = group_aggregate(&bound.group, &table)
            .unwrap()
            .result_fingerprint();
        for morsel_rows in [1usize, 37, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
            for threads in [1usize, 3] {
                let cfg = ParallelConfig {
                    threads,
                    morsel_rows,
                };
                let par = group_aggregate_parallel(&bound.group, &table, &cfg).unwrap();
                assert_eq!(
                    par.result_fingerprint(),
                    oracle_fp,
                    "morsel_rows={morsel_rows} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn scratch_pooling_reuses_worker_tables() {
        let table = random_table(41, 40_000);
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let mut gt = GroupTable::new(0);
        let mut stats = ParallelScanStats::default();
        let cfg = ParallelConfig {
            threads: 2,
            morsel_rows: 1000,
        };
        let a =
            group_aggregate_parallel_with(&bound.group, &table, &cfg, &mut gt, &mut stats).unwrap();
        assert_eq!(stats.parallel_scans, 1);
        assert_eq!(stats.morsels, 40);
        assert_eq!(stats.workers, 2);
        // Every morsel after each worker's first reused pooled scratch.
        // On a loaded (or single-core) host one worker may drain the whole
        // queue before the other starts, so only bound the counter: at
        // least `morsels - workers`, strictly below `morsels`.
        assert!(stats.scratch_reuses >= stats.morsels - stats.workers);
        assert!(stats.scratch_reuses < stats.morsels);
        // The merge table and stats are reusable across runs.
        let b =
            group_aggregate_parallel_with(&bound.group, &table, &cfg, &mut gt, &mut stats).unwrap();
        assert_eq!(a.result_fingerprint(), b.result_fingerprint());
        assert_eq!(stats.parallel_scans, 2);
        assert_eq!(stats.morsels, 80);
    }

    #[test]
    fn auto_dispatch_is_byte_identical_across_the_threshold() {
        // Just below and above PARALLEL_MIN_ROWS (scaled down via direct
        // calls — auto itself only flips on multicore hosts, so assert
        // equivalence of the two paths it chooses between).
        let table = random_table(53, 20_000);
        let sql = "SELECT s, AVG(x) AS val FROM t GROUP BY s ORDER BY val DESC";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let mut gt = GroupTable::new(0);
        let mut stats = ParallelScanStats::default();
        let auto = group_aggregate_auto(&bound.group, &table, &mut gt, &mut stats).unwrap();
        let seq = group_aggregate(&bound.group, &table).unwrap();
        let par = group_aggregate_parallel(
            &bound.group,
            &table,
            &ParallelConfig::with_partitions(table.num_rows(), 4),
        )
        .unwrap();
        assert_eq!(auto.result_fingerprint(), seq.result_fingerprint());
        assert_eq!(auto.result_fingerprint(), par.result_fingerprint());
    }
}
