//! Group tables and cached grouped results for the vectorized executor.
//!
//! The expensive part of every paper-shaped query is the scan: filter the
//! base table, assign each surviving row a group id, and accumulate the
//! aggregates. Everything after that — `HAVING`, `ORDER BY`, `LIMIT` — is
//! `O(groups)`. [`GroupTable`] performs the group-id assignment over
//! encoded key batches; [`GroupedResult`] is the finished group phase,
//! from which [`GroupedResult::apply`] derives the answer relation for any
//! output spec without touching the base table again. An interactive
//! threshold slider re-applies against one cached `GroupedResult` instead
//! of re-executing the query.

use crate::ast::{AggFunc, CmpOp, OrderDir};
use crate::exec::{QueryOutput, QueryRow};
use crate::plan::{BoundAgg, OutputSpec};
use qagview_common::{FxHashMap, QagError, Result, Symbol};
use qagview_lattice::AnswerSet;
use qagview_storage::{Column, Table};
use std::cmp::Ordering;

/// Encode an `i64` group-key part so that `u64` comparison preserves the
/// signed order (flip the sign bit).
#[inline]
pub(crate) fn encode_i64(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

#[inline]
fn decode_i64(e: u64) -> i64 {
    (e ^ (1 << 63)) as i64
}

/// Fold one encoded key lane into a running hash (FxHash-style
/// rotate–xor–multiply). The scan pipeline folds lanes column by column
/// while encoding, so hashing costs no extra pass over the keys.
#[inline]
pub(crate) fn fold_hash(h: u64, lane: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    (h.rotate_left(5) ^ lane).wrapping_mul(K)
}

/// Final high-bit fold so the low bits used for slot indexing depend on
/// every lane.
#[inline]
pub(crate) fn finish_hash(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// Map a float to a `u64` whose unsigned order matches the float's total
/// order (negatives below positives, `-0.0` canonicalized to `+0.0` so
/// the two zeros tie exactly as `f64` comparison says they do). Both
/// engines sort `ORDER BY val` through this mapping, which also gives
/// NaN aggregates a single well-defined position (above `+∞`, below
/// `-∞` for negative NaNs) instead of comparator-dependent garbage.
#[inline]
pub(crate) fn f64_sort_bits(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Assigns dense group ids to rows from their group keys.
///
/// Keys are fixed-width slices of `u64` (one lane per group column, each
/// lane encoded order-preservingly), so hashing and equality run over
/// plain machine words regardless of the underlying column types. Ids
/// come from one of two maps, chosen per query by the scan's key codec:
///
/// * [`GroupTable::assign`] — a flat open-addressing hash map whose
///   probes compare directly into the contiguous key arena (no per-group
///   heap box, no pointer chase);
/// * `assign_direct` — a slot map indexed by a row's
///   direct slot `Σ code_j · stride_j`, for key domains small enough to
///   address (see [`crate::exec::direct_slot_bound`]). No hashing, no
///   probing; the key arena is written once per new group.
///
/// Either way ids are dense and in first-encounter order, and the key
/// arena holds the same encoded lanes. The table is reusable:
/// [`GroupTable::clear`] resets it for another query while keeping its
/// allocations.
#[derive(Debug, Default)]
pub struct GroupTable {
    width: usize,
    /// Open-addressing slots: `(key hash, gid + 1)`; gid `0` marks empty.
    /// Keeping the hash inline means a probe usually resolves from this
    /// one array — the key arena is only touched to confirm a hash match.
    slots: Vec<(u64, u32)>,
    mask: usize,
    /// Direct slot map: `gid + 1` per direct slot, `0` for a slot no row
    /// has reached. Grown on demand, never shrunk.
    direct: Vec<u32>,
    /// The direct slot of each group, in group-id order — the only
    /// entries of `direct` that [`GroupTable::clear`] has to reset.
    direct_touched: Vec<u32>,
    /// Encoded keys in group-id order, `width` lanes per group.
    keys: Vec<u64>,
    num_groups: u32,
}

impl GroupTable {
    const MIN_SLOTS: usize = 1024;

    /// A table for keys of `width` lanes (one per group column).
    pub fn new(width: usize) -> Self {
        GroupTable {
            width,
            ..Default::default()
        }
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.num_groups as usize
    }

    /// The encoded key of group `gid`.
    pub fn key(&self, gid: usize) -> &[u64] {
        &self.keys[gid * self.width..(gid + 1) * self.width]
    }

    /// The whole key arena in group-id order (`width` lanes per group) —
    /// what the morsel-merge feeds back through [`GroupTable::assign`] to
    /// remap a partition's local group ids onto the global table.
    pub(crate) fn key_arena(&self) -> &[u64] {
        &self.keys
    }

    /// Reset for a new query with keys of `width` lanes, keeping the
    /// allocations of the slot array and key arena.
    pub fn clear(&mut self, width: usize) {
        self.slots.iter_mut().for_each(|s| *s = (0, 0));
        for &slot in &self.direct_touched {
            self.direct[slot as usize] = 0;
        }
        self.direct_touched.clear();
        self.keys.clear();
        self.num_groups = 0;
        self.width = width;
    }

    /// Double the slot array and re-seat every group from its stored hash.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old: Vec<(u64, u32)> = std::mem::take(&mut self.slots)
            .into_iter()
            .filter(|&(_, g)| g != 0)
            .collect();
        self.slots.resize(new_len, (0, 0));
        self.mask = new_len - 1;
        for (h, g) in old {
            let mut idx = (h as usize) & self.mask;
            while self.slots[idx].1 != 0 {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = (h, g);
        }
    }

    /// Assign a group id to each of the `count` encoded keys in `batch`
    /// (row-major, `width` lanes per row, with `hashes[i]` the folded hash
    /// of row `i` as produced by the pipeline's incremental lane-hash fold),
    /// appending new groups in
    /// first-encounter order. Ids are written to `gids` (cleared first).
    pub fn assign(&mut self, batch: &[u64], hashes: &[u64], count: usize, gids: &mut Vec<u32>) {
        gids.clear();
        if self.width == 0 {
            // No GROUP BY columns: every row lands in the single group.
            if count > 0 {
                self.num_groups = 1;
            }
            gids.resize(count, 0);
            return;
        }
        debug_assert_eq!(batch.len(), count * self.width);
        debug_assert_eq!(hashes.len(), count);
        let width = self.width;
        for (key, &raw_h) in batch.chunks_exact(width).zip(hashes) {
            // Keep the load factor below 3/4 so probe chains stay short.
            if (self.num_groups as usize + 1) * 4 > self.slots.len() * 3 {
                self.grow();
            }
            let h = finish_hash(raw_h);
            let mut idx = (h as usize) & self.mask;
            let gid = loop {
                let (slot_h, slot_g) = self.slots[idx];
                if slot_g == 0 {
                    let g = self.num_groups;
                    self.slots[idx] = (h, g + 1);
                    self.keys.extend_from_slice(key);
                    self.num_groups += 1;
                    break g;
                }
                if slot_h == h {
                    let g = (slot_g - 1) as usize;
                    if &self.keys[g * width..(g + 1) * width] == key {
                        break slot_g - 1;
                    }
                }
                idx = (idx + 1) & self.mask;
            };
            gids.push(gid);
        }
    }

    /// Assign a group id to each row of a batch from its direct slot
    /// (`slots[i] < num_slots`), appending new groups in first-encounter
    /// order. For each new group, `push_key(i, arena)` appends row `i`'s
    /// encoded key lanes to the key arena — the same lanes the hashed
    /// path stores, so everything downstream of the ids is shared. Ids
    /// are written to `gids` (cleared first).
    pub(crate) fn assign_direct(
        &mut self,
        num_slots: usize,
        slots: &[u32],
        gids: &mut Vec<u32>,
        mut push_key: impl FnMut(usize, &mut Vec<u64>),
    ) {
        if self.direct.len() < num_slots {
            self.direct.resize(num_slots, 0);
        }
        gids.clear();
        let direct = &mut self.direct[..num_slots];
        gids.extend(slots.iter().enumerate().map(|(i, &slot)| {
            let entry = &mut direct[slot as usize];
            if *entry == 0 {
                self.num_groups += 1;
                *entry = self.num_groups;
                self.direct_touched.push(slot);
                push_key(i, &mut self.keys);
            }
            *entry - 1
        }));
    }
}

/// Per-group row counts, shared by every aggregate of a query: columns
/// are non-nullable, so `COUNT(*)`, `COUNT(col)`, and the denominators of
/// every `AVG` all count exactly the selected rows — one pass suffices.
#[derive(Debug, Default)]
pub(crate) struct GroupCounts {
    count: Vec<u64>,
}

impl GroupCounts {
    /// Count each row of the batch into its group.
    pub(crate) fn count_rows(&mut self, gids: &[u32], num_groups: usize) {
        if self.count.len() < num_groups {
            self.count.resize(num_groups, 0);
        }
        for &g in gids {
            self.count[g as usize] += 1;
        }
    }
}

/// Columnar accumulator state for one aggregate: structure-of-arrays over
/// group ids, updated by batch kernels. Only the state the aggregate's
/// function finishes from is maintained.
#[derive(Debug, Default)]
pub(crate) struct AggColumns {
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl AggColumns {
    /// Grow to hold `n` groups.
    fn ensure(&mut self, n: usize) {
        if self.sum.len() < n {
            self.sum.resize(n, 0.0);
            self.min.resize(n, f64::INFINITY);
            self.max.resize(n, f64::NEG_INFINITY);
        }
    }

    /// `SUM`/`AVG` update: running sum. Accumulation order is ascending
    /// row id (the batches scan in table order), so per-group float sums
    /// are bit-identical to the row-at-a-time reference path.
    pub(crate) fn accumulate_sum(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        self.ensure(num_groups);
        for (&g, &x) in gids.iter().zip(vals) {
            self.sum[g as usize] += x;
        }
    }

    /// `MIN` update.
    pub(crate) fn accumulate_min(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        self.ensure(num_groups);
        for (&g, &x) in gids.iter().zip(vals) {
            let g = g as usize;
            self.min[g] = self.min[g].min(x);
        }
    }

    /// `MAX` update.
    pub(crate) fn accumulate_max(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        self.ensure(num_groups);
        for (&g, &x) in gids.iter().zip(vals) {
            let g = g as usize;
            self.max[g] = self.max[g].max(x);
        }
    }

    /// The finished value of `func` for group `gid`.
    fn finish(&self, func: AggFunc, gid: usize, counts: &GroupCounts) -> f64 {
        match func {
            AggFunc::Count => counts.count[gid] as f64,
            AggFunc::Sum => self.sum[gid],
            AggFunc::Avg => {
                debug_assert!(counts.count[gid] > 0, "groups are never empty");
                self.sum[gid] / counts.count[gid] as f64
            }
            AggFunc::Min => self.min[gid],
            AggFunc::Max => self.max[gid],
        }
    }
}

pub(crate) fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// The finished group phase of one query: every aggregate finished per
/// group, display attributes rendered, and both sort permutations
/// precomputed. Any `HAVING` threshold, `ORDER BY` direction, and `LIMIT`
/// is derived from this in `O(groups)` via [`GroupedResult::apply`].
#[derive(Debug, Clone)]
pub struct GroupedResult {
    attr_names: Vec<String>,
    width: usize,
    num_groups: usize,
    /// Distinct rendered display strings per key lane (group keys draw
    /// from small categorical domains, so each value renders once).
    attr_pool: Vec<Vec<String>>,
    /// Per-group pool indices, row-major `width` per group: the display
    /// attributes of group `g` are `attr_pool[j][attr_codes[g*width + j]]`.
    attr_codes: Vec<u32>,
    /// Finished aggregate values, `[agg_idx][gid]`.
    finished: Vec<Vec<f64>>,
    /// Group ids sorted by (val asc, key asc) / (val desc, key asc).
    order_asc: Vec<u32>,
    order_desc: Vec<u32>,
}

impl GroupedResult {
    /// Finish a group phase: render keys, finalize aggregates, precompute
    /// the sort permutations.
    pub(crate) fn finish(
        table: &Table,
        group_cols: &[usize],
        attr_names: Vec<String>,
        aggs: &[BoundAgg],
        gt: &GroupTable,
        counts: &GroupCounts,
        acc: &[AggColumns],
    ) -> Result<Self> {
        let n = gt.num_groups();
        let mut finished = vec![Vec::with_capacity(n); aggs.len()];
        for (ai, agg) in aggs.iter().enumerate() {
            for gid in 0..n {
                finished[ai].push(acc[ai].finish(agg.func, gid, counts));
            }
        }
        Self::from_finished(table, group_cols, attr_names, gt, finished)
    }

    /// Finish a group phase from already-finished aggregate columns
    /// (`[agg_idx][gid]`, gids in `gt` insertion order): render keys and
    /// precompute the sort permutations. The exact path arrives here via
    /// [`GroupedResult::finish`]; the sampled path injects per-group
    /// *estimates* directly.
    pub(crate) fn from_finished(
        table: &Table,
        group_cols: &[usize],
        attr_names: Vec<String>,
        gt: &GroupTable,
        finished: Vec<Vec<f64>>,
    ) -> Result<Self> {
        let n = gt.num_groups();
        let width = group_cols.len();

        // Render each *distinct* encoded value per lane once into a pool
        // and store per-group pool codes; output rows clone from the pool
        // on demand in `apply`. Lane-major passes keep each lane's lookup
        // structure hot.
        let mut attr_pool: Vec<Vec<String>> = vec![Vec::new(); width];
        let mut attr_codes: Vec<u32> = vec![0; n * width];
        for (j, &c) in group_cols.iter().enumerate() {
            let pool = &mut attr_pool[j];
            match table.column(c) {
                // Symbols are dense interner indices: a direct-index table
                // beats a hash map.
                Column::Str(_) => {
                    let interner = table.interner();
                    let mut by_symbol: Vec<u32> = vec![u32::MAX; interner.len()];
                    for gid in 0..n {
                        let enc = gt.keys[gid * width + j];
                        let s = enc as usize;
                        if by_symbol[s] == u32::MAX {
                            by_symbol[s] = pool.len() as u32;
                            pool.push(interner.resolve(Symbol(enc as u32)).to_string());
                        }
                        attr_codes[gid * width + j] = by_symbol[s];
                    }
                }
                Column::Int(_) | Column::Bool(_) => {
                    let mut by_enc: FxHashMap<u64, u32> = FxHashMap::default();
                    for gid in 0..n {
                        let enc = gt.keys[gid * width + j];
                        let code = match by_enc.get(&enc) {
                            Some(&code) => code,
                            None => {
                                let code = pool.len() as u32;
                                by_enc.insert(enc, code);
                                pool.push(render_part(table, c, enc)?);
                                code
                            }
                        };
                        attr_codes[gid * width + j] = code;
                    }
                }
                Column::Float(_) => {
                    return Err(QagError::internal(
                        "float group keys are rejected at bind time".to_string(),
                    ))
                }
            }
        }

        // Sort (value-bits, gid) pairs — a branchless integer sort — then
        // re-order each equal-value run by encoded key, matching the
        // reference engine's (val, key) comparator. Runs of exactly equal
        // scores are rare and short, so the fix-up pass is cheap.
        let key_of = |g: u32| &gt.keys[g as usize * width..(g as usize + 1) * width];
        static NO_VALS: [f64; 0] = [];
        let vals: &[f64] = finished.first().map_or(&NO_VALS, |v| v.as_slice());
        let val_of = |g: u32| {
            if vals.is_empty() {
                0.0
            } else {
                vals[g as usize]
            }
        };
        let mut tagged: Vec<(u64, u32)> = (0..n as u32)
            .map(|g| (f64_sort_bits(val_of(g)), g))
            .collect();
        tagged.sort_unstable();
        let mut order_asc: Vec<u32> = tagged.iter().map(|&(_, g)| g).collect();
        let mut lo = 0;
        while lo < n {
            let mut hi = lo + 1;
            while hi < n && tagged[hi].0 == tagged[lo].0 {
                hi += 1;
            }
            if hi - lo > 1 {
                order_asc[lo..hi].sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
            }
            lo = hi;
        }
        // Descending order keeps the *ascending* key tie-break, so it is
        // the reverse of `order_asc` with each equal-value run restored to
        // its original direction — no second sort needed.
        let mut order_desc: Vec<u32> = Vec::with_capacity(n);
        let mut hi = n;
        while hi > 0 {
            let mut lo = hi - 1;
            while lo > 0
                && f64_sort_bits(val_of(order_asc[lo - 1]))
                    == f64_sort_bits(val_of(order_asc[hi - 1]))
            {
                lo -= 1;
            }
            order_desc.extend_from_slice(&order_asc[lo..hi]);
            hi = lo;
        }

        Ok(GroupedResult {
            attr_names,
            width,
            num_groups: n,
            attr_pool,
            attr_codes,
            finished,
            order_asc,
            order_desc,
        })
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// A structural fingerprint over every field of the finished group
    /// phase, with floats hashed by *bit pattern* (NaNs and signed zeros
    /// included). Two `GroupedResult`s with equal fingerprints agree on
    /// group order, rendered attributes, every aggregate's exact f64 bits,
    /// and both sort permutations — the identity contract the
    /// morsel-parallel scan is held to against the sequential engine, and
    /// what the N-scaling bench asserts before timing anything.
    pub fn result_fingerprint(&self) -> u64 {
        let mut h = fold_hash(0, self.num_groups as u64);
        h = fold_hash(h, self.width as u64);
        for name in &self.attr_names {
            h = fold_hash(h, name.len() as u64);
            for b in name.as_bytes() {
                h = fold_hash(h, u64::from(*b));
            }
        }
        for pool in &self.attr_pool {
            h = fold_hash(h, pool.len() as u64);
            for s in pool {
                h = fold_hash(h, s.len() as u64);
                for b in s.as_bytes() {
                    h = fold_hash(h, u64::from(*b));
                }
            }
        }
        for &code in &self.attr_codes {
            h = fold_hash(h, u64::from(code));
        }
        for col in &self.finished {
            h = fold_hash(h, col.len() as u64);
            for v in col {
                h = fold_hash(h, v.to_bits());
            }
        }
        for ord in [&self.order_asc, &self.order_desc] {
            for &g in ord.iter() {
                h = fold_hash(h, u64::from(g));
            }
        }
        finish_hash(h)
    }

    /// Number of aggregates finished per group.
    pub fn num_aggs(&self) -> usize {
        self.finished.len()
    }

    /// Evaluate every `HAVING` conjunct for every group — conjuncts
    /// short-circuit per group exactly like the reference engine, so a
    /// NaN aggregate reached by the conjunct chain errors here even when
    /// `LIMIT` would have cut the output walk short of that group.
    fn having_passes(&self, spec: &OutputSpec) -> Result<Vec<bool>> {
        for h in &spec.having {
            if h.agg_idx >= self.finished.len() {
                return Err(QagError::internal(format!(
                    "HAVING references aggregate {} but the grouped result has {}",
                    h.agg_idx,
                    self.finished.len()
                )));
            }
        }
        let mut passes = vec![true; self.num_groups];
        'group: for (gid, pass) in passes.iter_mut().enumerate() {
            for h in &spec.having {
                let v = self.finished[h.agg_idx][gid];
                let ord = v.partial_cmp(&h.value).ok_or_else(|| {
                    QagError::Execution("NaN aggregate in HAVING comparison".to_string())
                })?;
                if !cmp_holds(h.op, ord) {
                    *pass = false;
                    continue 'group;
                }
            }
        }
        Ok(passes)
    }

    /// Derive the answer relation for one output spec in `O(groups)`:
    /// evaluate `HAVING` over every group, then walk the precomputed
    /// permutation (or insertion order), stopping the expensive rendering
    /// walk at `LIMIT`.
    pub fn apply(&self, spec: &OutputSpec) -> Result<QueryOutput> {
        let passes = self.having_passes(spec)?;
        let mut rows = Vec::new();
        match spec.order {
            None => self.emit_rows(spec, 0..self.num_groups, &passes, &mut rows),
            Some(OrderDir::Asc) => self.emit_rows(
                spec,
                self.order_asc.iter().map(|&g| g as usize),
                &passes,
                &mut rows,
            ),
            Some(OrderDir::Desc) => self.emit_rows(
                spec,
                self.order_desc.iter().map(|&g| g as usize),
                &passes,
                &mut rows,
            ),
        }
        Ok(QueryOutput {
            attr_names: self.attr_names.clone(),
            val_name: spec.agg_alias.clone(),
            rows,
        })
    }

    /// Derive the answer relation for one output spec directly as a
    /// dense-coded [`AnswerSet`], skipping the display-string round trip of
    /// [`GroupedResult::apply`] + re-interning: group attributes are
    /// re-coded straight from the interned pool codes, and each pool string
    /// is cloned at most once (when it first enters a domain) instead of
    /// once per row.
    ///
    /// Byte-for-byte identical to feeding [`GroupedResult::apply`]'s rows
    /// through `qagview_lattice::AnswerSetBuilder`: domain codes are
    /// assigned in the same first-occurrence-in-output order, and the final
    /// ordering/uniqueness rules are shared via [`AnswerSet::from_rows`].
    pub fn apply_answers(&self, spec: &OutputSpec) -> Result<AnswerSet> {
        let passes = self.having_passes(spec)?;
        let limit = spec.limit.unwrap_or(usize::MAX);
        let picked: Vec<usize> = match spec.order {
            None => collect_passing(0..self.num_groups, &passes, limit),
            Some(OrderDir::Asc) => {
                collect_passing(self.order_asc.iter().map(|&g| g as usize), &passes, limit)
            }
            Some(OrderDir::Desc) => {
                collect_passing(self.order_desc.iter().map(|&g| g as usize), &passes, limit)
            }
        };
        // Re-code each lane's pool indices densely in first-occurrence
        // order over the emitted groups — the same order in which the
        // string path would have interned the rendered values.
        let mut domains: Vec<Vec<String>> = vec![Vec::new(); self.width];
        let mut remap: Vec<Vec<u32>> = self
            .attr_pool
            .iter()
            .map(|pool| vec![u32::MAX; pool.len()])
            .collect();
        let vals: &[f64] = self.finished.first().map_or(&[], |v| v.as_slice());
        let mut rows: Vec<(Vec<u32>, f64)> = Vec::with_capacity(picked.len());
        for &gid in &picked {
            let mut codes = Vec::with_capacity(self.width);
            for (j, &pool_code) in self.attr_codes[gid * self.width..(gid + 1) * self.width]
                .iter()
                .enumerate()
            {
                let slot = &mut remap[j][pool_code as usize];
                if *slot == u32::MAX {
                    *slot = domains[j].len() as u32;
                    domains[j].push(self.attr_pool[j][pool_code as usize].clone());
                }
                codes.push(*slot);
            }
            rows.push((codes, if vals.is_empty() { 0.0 } else { vals[gid] }));
        }
        AnswerSet::from_rows(self.attr_names.clone(), domains, rows)
    }

    /// Walk `gids` in order, rendering the groups that passed `HAVING`,
    /// stopping at the limit.
    fn emit_rows(
        &self,
        spec: &OutputSpec,
        gids: impl Iterator<Item = usize>,
        passes: &[bool],
        rows: &mut Vec<QueryRow>,
    ) {
        let limit = spec.limit.unwrap_or(usize::MAX);
        for gid in gids {
            if rows.len() >= limit {
                break;
            }
            if !passes[gid] {
                continue;
            }
            let attrs = self.attr_codes[gid * self.width..(gid + 1) * self.width]
                .iter()
                .enumerate()
                .map(|(j, &code)| self.attr_pool[j][code as usize].clone())
                .collect();
            rows.push(QueryRow {
                attrs,
                val: self.finished.first().map_or(0.0, |v| v[gid]),
            });
        }
    }
}

/// Walk `gids` in order, collecting the groups that passed `HAVING` until
/// the limit is reached.
fn collect_passing(gids: impl Iterator<Item = usize>, passes: &[bool], limit: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for gid in gids {
        if out.len() >= limit {
            break;
        }
        if passes[gid] {
            out.push(gid);
        }
    }
    out
}

/// Render one encoded group-key lane back to display text, matching the
/// row-at-a-time path's rendering exactly.
fn render_part(table: &Table, col: usize, enc: u64) -> Result<String> {
    match table.column(col) {
        Column::Int(_) => Ok(decode_i64(enc).to_string()),
        Column::Str(_) => Ok(table.interner().resolve(Symbol(enc as u32)).to_string()),
        Column::Bool(_) => Ok((enc != 0).to_string()),
        Column::Float(_) => Err(QagError::internal(
            "float group keys are rejected at bind time".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold lane hashes the way the scan pipeline does.
    fn hashes_of(batch: &[u64], width: usize) -> Vec<u64> {
        batch
            .chunks_exact(width)
            .map(|key| key.iter().fold(0u64, |h, &w| fold_hash(h, w)))
            .collect()
    }

    #[test]
    fn i64_encoding_preserves_order_and_round_trips() {
        let xs = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for w in xs.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(decode_i64(encode_i64(x)), x);
        }
    }

    #[test]
    fn group_table_assigns_dense_ids_in_first_encounter_order() {
        let mut gt = GroupTable::new(2);
        let batch = [1u64, 1, 2, 2, 1, 1, 3, 3];
        let mut gids = Vec::new();
        gt.assign(&batch, &hashes_of(&batch, 2), 4, &mut gids);
        assert_eq!(gids, vec![0, 1, 0, 2]);
        assert_eq!(gt.num_groups(), 3);
        assert_eq!(gt.key(1), &[2, 2]);
        // A second batch continues the same id space.
        let batch = [3u64, 3, 9, 9];
        gt.assign(&batch, &hashes_of(&batch, 2), 2, &mut gids);
        assert_eq!(gids, vec![2, 3]);
        assert_eq!(gt.num_groups(), 4);
    }

    #[test]
    fn group_table_survives_growth_past_the_initial_slot_count() {
        // More distinct keys than MIN_SLOTS * 3/4 forces several grows;
        // ids must stay stable and probes must still find every key.
        let mut gt = GroupTable::new(1);
        let mut gids = Vec::new();
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 7 + 3).collect();
        gt.assign(&keys, &hashes_of(&keys, 1), keys.len(), &mut gids);
        assert_eq!(gt.num_groups(), 5000);
        let expected: Vec<u32> = (0..5000).collect();
        assert_eq!(gids, expected);
        // Replaying the same keys yields the same ids.
        gt.assign(&keys, &hashes_of(&keys, 1), keys.len(), &mut gids);
        assert_eq!(gids, expected);
    }

    #[test]
    fn group_table_clear_resets_but_reuses() {
        let mut gt = GroupTable::new(1);
        let mut gids = Vec::new();
        let batch = [7u64, 8, 7];
        gt.assign(&batch, &hashes_of(&batch, 1), 3, &mut gids);
        assert_eq!(gt.num_groups(), 2);
        gt.clear(1);
        assert_eq!(gt.num_groups(), 0);
        gt.assign(&[8], &hashes_of(&[8], 1), 1, &mut gids);
        assert_eq!(gids, vec![0], "ids restart after clear");
    }

    #[test]
    fn zero_width_keys_form_a_single_group() {
        let mut gt = GroupTable::new(0);
        let mut gids = Vec::new();
        gt.assign(&[], &[], 5, &mut gids);
        assert_eq!(gids, vec![0; 5]);
        assert_eq!(gt.num_groups(), 1);
        // No rows: no group.
        let mut gt = GroupTable::new(0);
        gt.assign(&[], &[], 0, &mut gids);
        assert_eq!(gt.num_groups(), 0);
    }

    #[test]
    fn agg_columns_match_scalar_semantics() {
        let gids = [0u32, 1, 0];
        let vals = [2.0, 10.0, 4.0];
        let mut counts = GroupCounts::default();
        counts.count_rows(&gids, 2);
        let mut sums = AggColumns::default();
        sums.accumulate_sum(&gids, &vals, 2);
        assert_eq!(sums.finish(AggFunc::Count, 0, &counts), 2.0);
        assert_eq!(sums.finish(AggFunc::Sum, 0, &counts), 6.0);
        assert_eq!(sums.finish(AggFunc::Avg, 0, &counts), 3.0);
        assert_eq!(sums.finish(AggFunc::Avg, 1, &counts), 10.0);
        let mut mins = AggColumns::default();
        mins.accumulate_min(&gids, &vals, 2);
        assert_eq!(mins.finish(AggFunc::Min, 0, &counts), 2.0);
        assert_eq!(mins.finish(AggFunc::Min, 1, &counts), 10.0);
        let mut maxs = AggColumns::default();
        maxs.accumulate_max(&gids, &vals, 2);
        assert_eq!(maxs.finish(AggFunc::Max, 0, &counts), 4.0);
        assert_eq!(maxs.finish(AggFunc::Count, 1, &counts), 1.0);
    }
}
