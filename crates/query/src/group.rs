//! Group tables and cached grouped results for the vectorized executor.
//!
//! The expensive part of every paper-shaped query is the scan: filter the
//! base table, assign each surviving row a group id, and accumulate the
//! aggregates. [`GroupTable`] performs the group-id assignment;
//! [`GroupedResult`] is the finished group phase: a key per group and its
//! finished aggregates. [`GroupedResult::apply`] and
//! [`GroupedResult::apply_answers`] derive the answer relation for any
//! output spec from it without touching the base table again: `HAVING`
//! over every group, then ranking, `LIMIT` and rendering over only the
//! groups that pass. An interactive threshold slider re-applies against
//! one cached `GroupedResult` instead of re-executing the query.

use crate::ast::{AggFunc, CmpOp, OrderDir};
use crate::exec::{QueryOutput, QueryRow};
use crate::plan::{GroupSpec, OutputSpec};
use qagview_common::{FxHashMap, Interner, QagError, Result, Symbol};
use qagview_lattice::AnswerSet;
use qagview_storage::{Column, ColumnType, Table};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

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
///   probing, and no key arena: a group is identified by its slot, which
///   the table records once per new group.
///
/// Either way ids are dense and in first-encounter order. The table is
/// reusable: [`GroupTable::clear`] resets it for another query while
/// keeping the allocations of its hash slots and slot map. A finished
/// hashed scan moves its key arena into the [`GroupedResult`], so the
/// next hashed scan grows a new one.
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
    /// The direct slot of each group, in group-id order: each direct
    /// group's key, and the only entries of `direct` that
    /// [`GroupTable::clear`] has to reset.
    direct_touched: Vec<u32>,
    /// Encoded keys in group-id order, `width` lanes per group (hashed
    /// assignment only).
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

    /// The whole key arena in group-id order (`width` lanes per group) —
    /// what the sampled scan's chunk merge feeds back through
    /// [`GroupTable::assign`] to remap a chunk's local group ids onto the
    /// global table.
    pub(crate) fn key_arena(&self) -> &[u64] {
        &self.keys
    }

    /// Reset for a new query with keys of `width` lanes, keeping the
    /// allocations of the hash slots, the slot map and whatever key arena
    /// the table still holds.
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
    /// order and recording each new group's slot. Ids are written to
    /// `gids` (cleared first).
    pub(crate) fn assign_direct(&mut self, num_slots: usize, slots: &[u32], gids: &mut Vec<u32>) {
        if self.direct.len() < num_slots {
            self.direct.resize(num_slots, 0);
        }
        gids.clear();
        let direct = &mut self.direct[..num_slots];
        gids.extend(slots.iter().map(|&slot| {
            let entry = &mut direct[slot as usize];
            if *entry == 0 {
                self.num_groups += 1;
                *entry = self.num_groups;
                self.direct_touched.push(slot);
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

/// Keep in `passes` only the groups whose value in `vals` passes `test`;
/// whether a NaN value was reached among the groups that had passed.
#[inline]
fn refine(passes: &mut [bool], vals: &[f64], test: impl Fn(f64) -> bool) -> bool {
    let mut nan = false;
    for (pass, &v) in passes.iter_mut().zip(vals) {
        nan |= *pass & v.is_nan();
        *pass &= test(v);
    }
    nan
}

/// How a finished group phase identifies each group's key: the encoded
/// lanes the hashed scan stored, or the slot the direct scan indexed.
/// Either way [`GroupedResult`] reads a key through one accessor, so
/// everything past the scan is shared.
#[derive(Debug, Clone)]
pub(crate) enum GroupKeys {
    /// `width` encoded lanes per group, in group-id order: the hashed
    /// scan's key arena, moved out of its [`GroupTable`].
    Lanes(Vec<u64>),
    /// The direct slot of each group, in group-id order, and per lane how
    /// to read its encoded value back out of a slot.
    Slots {
        slots: Vec<u32>,
        lanes: Vec<SlotLane>,
    },
}

impl GroupKeys {
    /// The hashed scan's keys: `gt`'s key arena, moved out. `gt` must be
    /// [`GroupTable::clear`]ed before it assigns again (every scan does).
    pub(crate) fn hashed(gt: &mut GroupTable) -> Self {
        GroupKeys::Lanes(std::mem::take(&mut gt.keys))
    }

    /// The direct scan's keys: a copy of `gt`'s slots, which
    /// [`GroupTable::clear`] still needs to reset its slot map.
    pub(crate) fn direct(gt: &GroupTable, lanes: Vec<SlotLane>) -> Self {
        GroupKeys::Slots {
            slots: gt.direct_touched.clone(),
            lanes,
        }
    }
}

/// One group column of a direct slot `Σ code_j · stride_j`.
#[derive(Debug, Clone)]
pub(crate) struct SlotLane {
    pub(crate) stride: u32,
    /// The encoded lane of each code. Dense codes ascend with the value
    /// they code, so these ascend too.
    pub(crate) values: Vec<u64>,
}

impl SlotLane {
    /// The lane's code within `slot`.
    #[inline]
    fn code(&self, slot: u32) -> usize {
        (slot / self.stride) as usize % self.values.len()
    }
}

/// The finished group phase of one query: each group's key (its encoded
/// lanes from a hashed scan, its slot from a direct one) and every
/// aggregate finished per group — nothing rendered and nothing sorted.
/// [`GroupedResult::apply`] and [`GroupedResult::apply_answers`] derive
/// the answer relation for any `HAVING` threshold, `ORDER BY` direction
/// and `LIMIT`, ranking and rendering only the groups that pass.
#[derive(Debug, Clone)]
pub struct GroupedResult {
    attr_names: Vec<String>,
    width: usize,
    num_groups: usize,
    keys: GroupKeys,
    /// Type of each key lane, which says how it renders.
    lane_types: Vec<ColumnType>,
    /// The scanned table's interner, which renders `Str` lanes.
    interner: Arc<Interner>,
    /// Finished aggregate values, `[agg_idx][gid]`.
    finished: Vec<Vec<f64>>,
    /// Set by the first ordered apply. That one ranks only the groups
    /// that pass (a cold open applies once); every later one walks
    /// `rank` (a threshold slider applies many times).
    applied: OnceLock<()>,
    /// Every group by score in the direction of the second ordered apply,
    /// equal scores by ascending key, built by that apply. The other
    /// direction is its run-wise reverse.
    rank: OnceLock<(OrderDir, Vec<u32>)>,
}

impl GroupedResult {
    /// Finish a group phase: finalize every aggregate of `spec` per group.
    pub(crate) fn finish(
        spec: &GroupSpec,
        table: &Table,
        keys: GroupKeys,
        num_groups: usize,
        counts: &GroupCounts,
        acc: &[AggColumns],
    ) -> Result<Self> {
        let finished = spec
            .aggs
            .iter()
            .zip(acc)
            .map(|(agg, acc)| {
                (0..num_groups)
                    .map(|gid| acc.finish(agg.func, gid, counts))
                    .collect()
            })
            .collect();
        Self::from_finished(spec, table, keys, num_groups, finished)
    }

    /// A group phase from already-finished aggregate columns
    /// (`[agg_idx][gid]`, gids in first-encounter order). The exact path
    /// arrives here via [`GroupedResult::finish`]; the sampled path
    /// injects per-group *estimates* directly.
    pub(crate) fn from_finished(
        spec: &GroupSpec,
        table: &Table,
        keys: GroupKeys,
        num_groups: usize,
        finished: Vec<Vec<f64>>,
    ) -> Result<Self> {
        let lane_types = spec
            .group_cols
            .iter()
            .map(|&c| match table.column(c) {
                Column::Float(_) => Err(QagError::internal(
                    "float group keys are rejected at bind time".to_string(),
                )),
                col => Ok(col.ty()),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(GroupedResult {
            attr_names: spec.group_names.clone(),
            width: spec.group_cols.len(),
            num_groups,
            keys,
            lane_types,
            interner: table.shared_interner(),
            finished,
            applied: OnceLock::new(),
            rank: OnceLock::new(),
        })
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// A structural fingerprint of the finished group phase: group order,
    /// every encoded key lane, and every aggregate's exact f64 bits (NaNs
    /// and signed zeros included). The hashed, direct and sampled scans
    /// are held to it against each other, and the N-scaling bench
    /// asserts it before timing anything.
    pub fn result_fingerprint(&self) -> u64 {
        let mut h = fold_hash(0, self.num_groups as u64);
        h = fold_hash(h, self.width as u64);
        for name in &self.attr_names {
            h = fold_hash(h, name.len() as u64);
            for b in name.as_bytes() {
                h = fold_hash(h, u64::from(*b));
            }
        }
        for g in 0..self.num_groups as u32 {
            for j in 0..self.width {
                h = fold_hash(h, self.lane(g, j));
            }
        }
        for col in &self.finished {
            h = fold_hash(h, col.len() as u64);
            for v in col {
                h = fold_hash(h, v.to_bits());
            }
        }
        finish_hash(h)
    }

    /// Number of aggregates finished per group.
    pub fn num_aggs(&self) -> usize {
        self.finished.len()
    }

    /// The encoded lane `j` of group `g`'s key.
    #[inline]
    fn lane(&self, g: u32, j: usize) -> u64 {
        match &self.keys {
            GroupKeys::Lanes(arena) => arena[g as usize * self.width + j],
            GroupKeys::Slots { slots, lanes } => {
                let lane = &lanes[j];
                lane.values[lane.code(slots[g as usize])]
            }
        }
    }

    /// Group `g`'s score: its first aggregate.
    #[inline]
    fn val(&self, g: u32) -> f64 {
        self.finished.first().map_or(0.0, |v| v[g as usize])
    }

    /// Display text of an encoded lane `enc` of lane `j`, exactly as the
    /// row-at-a-time engine renders it.
    fn render(&self, j: usize, enc: u64) -> String {
        match self.lane_types[j] {
            ColumnType::Int => decode_i64(enc).to_string(),
            ColumnType::Str => self.interner.resolve(Symbol(enc as u32)).to_string(),
            ColumnType::Bool => (enc != 0).to_string(),
            ColumnType::Float => unreachable!("float lanes are rejected in from_finished"),
        }
    }

    /// Evaluate every `HAVING` conjunct for every group, one conjunct at a
    /// time over the groups that passed the ones before it. That is the
    /// reference engine's per-group short circuit, so a NaN aggregate
    /// reached by the conjunct chain errors here even when `LIMIT` would
    /// have cut the output walk short of that group.
    fn having_passes(&self, spec: &OutputSpec) -> Result<Vec<bool>> {
        let mut passes = vec![true; self.num_groups];
        for h in &spec.having {
            let vals = self.finished.get(h.agg_idx).ok_or_else(|| {
                QagError::internal(format!(
                    "HAVING references aggregate {} but the grouped result has {}",
                    h.agg_idx,
                    self.finished.len()
                ))
            })?;
            let x = h.value;
            // One loop per operator, so each compiles to a branch-free
            // pass; on non-NaN scores each test is `cmp_holds` exactly.
            let nan = match h.op {
                CmpOp::Eq => refine(&mut passes, vals, |v| v == x),
                CmpOp::Neq => refine(&mut passes, vals, |v| v != x),
                CmpOp::Lt => refine(&mut passes, vals, |v| v < x),
                CmpOp::Le => refine(&mut passes, vals, |v| v <= x),
                CmpOp::Gt => refine(&mut passes, vals, |v| v > x),
                CmpOp::Ge => refine(&mut passes, vals, |v| v >= x),
            };
            if nan {
                return Err(QagError::Execution(
                    "NaN aggregate in HAVING comparison".to_string(),
                ));
            }
        }
        Ok(passes)
    }

    /// Encoded-key order of two groups, lane by lane: the reference
    /// engine's tie-break between equal scores.
    fn key_cmp(&self, a: u32, b: u32) -> Ordering {
        (0..self.width)
            .map(|j| self.lane(a, j).cmp(&self.lane(b, j)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The first `limit` of `gids` ranked by score in direction `dir`,
    /// equal scores by ascending key. Only those `limit` are sorted.
    fn rank_groups(
        &self,
        dir: OrderDir,
        gids: impl Iterator<Item = u32>,
        limit: usize,
    ) -> Vec<u32> {
        let flip = match dir {
            OrderDir::Asc => 0,
            OrderDir::Desc => u64::MAX,
        };
        let mut tagged: Vec<(u64, u32)> = gids
            .map(|g| (f64_sort_bits(self.val(g)) ^ flip, g))
            .collect();
        let cmp =
            |a: &(u64, u32), b: &(u64, u32)| a.0.cmp(&b.0).then_with(|| self.key_cmp(a.1, b.1));
        if limit < tagged.len() {
            if limit > 0 {
                tagged.select_nth_unstable_by(limit - 1, cmp);
            }
            tagged.truncate(limit);
        }
        tagged.sort_unstable_by(cmp);
        tagged.into_iter().map(|(_, g)| g).collect()
    }

    /// `rank` walked in the opposite score direction: its equal-score runs
    /// last to first, each kept in ascending key order.
    fn reversed_runs<'a>(&'a self, rank: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
        let mut hi = rank.len();
        std::iter::from_fn(move || {
            let bits = f64_sort_bits(self.val(*rank[..hi].last()?));
            let lo = rank[..hi]
                .iter()
                .rposition(|&g| f64_sort_bits(self.val(g)) != bits)
                .map_or(0, |p| p + 1);
            let run = &rank[lo..hi];
            hi = lo;
            Some(run)
        })
        .flatten()
        .copied()
    }

    /// The groups of the answer relation for `spec`, in output order: the
    /// ones that pass `HAVING`, ranked by `ORDER BY` (group-id order
    /// without one), cut at `LIMIT`.
    fn pick(&self, spec: &OutputSpec) -> Result<Vec<u32>> {
        let passes = self.having_passes(spec)?;
        let limit = spec.limit.unwrap_or(usize::MAX);
        let passing = |g: &u32| passes[*g as usize];
        let all = 0..self.num_groups as u32;
        let Some(dir) = spec.order else {
            return Ok(all.filter(passing).take(limit).collect());
        };
        if self.applied.set(()).is_ok() {
            return Ok(self.rank_groups(dir, all.filter(passing), limit));
        }
        let (rank_dir, rank) = self
            .rank
            .get_or_init(|| (dir, self.rank_groups(dir, all, usize::MAX)));
        Ok(if *rank_dir == dir {
            rank.iter().copied().filter(passing).take(limit).collect()
        } else {
            self.reversed_runs(rank)
                .filter(passing)
                .take(limit)
                .collect()
        })
    }

    /// Per-lane domains and row-major dense codes of `picked`: codes are
    /// assigned in first-occurrence order over `picked`, and each distinct
    /// lane value renders once, when it enters its domain.
    fn recode(&self, picked: &[u32]) -> (Vec<Vec<String>>, Vec<u32>) {
        let width = self.width;
        let mut domains: Vec<Vec<String>> = vec![Vec::new(); width];
        let mut codes: Vec<u32> = Vec::with_capacity(picked.len() * width);
        match &self.keys {
            GroupKeys::Slots { slots, lanes } => {
                let mut remap: Vec<Vec<u32>> = lanes
                    .iter()
                    .map(|lane| vec![u32::MAX; lane.values.len()])
                    .collect();
                for &g in picked {
                    for (j, lane) in lanes.iter().enumerate() {
                        let code = lane.code(slots[g as usize]);
                        let c = &mut remap[j][code];
                        if *c == u32::MAX {
                            *c = domains[j].len() as u32;
                            domains[j].push(self.render(j, lane.values[code]));
                        }
                        codes.push(*c);
                    }
                }
            }
            GroupKeys::Lanes(arena) => {
                let mut remap: Vec<FxHashMap<u64, u32>> = vec![FxHashMap::default(); width];
                for &g in picked {
                    let key = &arena[g as usize * width..(g as usize + 1) * width];
                    for (j, &enc) in key.iter().enumerate() {
                        let next = domains[j].len() as u32;
                        let c = *remap[j].entry(enc).or_insert(next);
                        if c == next {
                            domains[j].push(self.render(j, enc));
                        }
                        codes.push(c);
                    }
                }
            }
        }
        (domains, codes)
    }

    /// Derive the answer relation for one output spec as display rows:
    /// evaluate `HAVING` over every group, then rank and render the groups
    /// that pass, up to `LIMIT`.
    pub fn apply(&self, spec: &OutputSpec) -> Result<QueryOutput> {
        let picked = self.pick(spec)?;
        let (domains, codes) = self.recode(&picked);
        let rows = picked
            .iter()
            .enumerate()
            .map(|(i, &g)| QueryRow {
                attrs: (0..self.width)
                    .map(|j| domains[j][codes[i * self.width + j] as usize].clone())
                    .collect(),
                val: self.val(g),
            })
            .collect();
        Ok(QueryOutput {
            attr_names: self.attr_names.clone(),
            val_name: spec.agg_alias.clone(),
            rows,
        })
    }

    /// Derive the answer relation for one output spec directly as a
    /// dense-coded [`AnswerSet`], in one pass over the groups that pass:
    /// rank them, assign domain codes in first-occurrence order over that
    /// ranking (rendering each distinct value once), then put the tuples
    /// in the relation's rank order — score descending, equal scores by
    /// code — for [`AnswerSet::from_ordered_parts`].
    ///
    /// Byte-for-byte identical to feeding [`GroupedResult::apply`]'s rows
    /// through `qagview_lattice::AnswerSetBuilder`, whose interning order
    /// is that same first occurrence.
    pub fn apply_answers(&self, spec: &OutputSpec) -> Result<AnswerSet> {
        let picked = self.pick(spec)?;
        let (domains, codes) = self.recode(&picked);
        let width = self.width;
        let vals: Vec<f64> = picked.iter().map(|&g| self.val(g)).collect();
        let bits = |i: u32| f64_sort_bits(vals[i as usize]);
        let row = |i: u32| &codes[i as usize * width..(i as usize + 1) * width];
        // Positions in `picked`, by score descending: the walk itself, its
        // reverse, or (without ORDER BY) a sort.
        let n = picked.len() as u32;
        let mut order: Vec<u32> = match spec.order {
            Some(OrderDir::Desc) => (0..n).collect(),
            Some(OrderDir::Asc) => (0..n).rev().collect(),
            None => {
                let mut order: Vec<u32> = (0..n).collect();
                order.sort_unstable_by_key(|&i| std::cmp::Reverse(bits(i)));
                order
            }
        };
        // Equal scores tie-break on the new codes, not the encoded keys.
        let mut lo = 0;
        while lo < order.len() {
            let run_bits = bits(order[lo]);
            let len = order[lo..]
                .iter()
                .position(|&i| bits(i) != run_bits)
                .unwrap_or(order.len() - lo);
            order[lo..lo + len].sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            lo += len;
        }
        let vals = order.iter().map(|&i| vals[i as usize]).collect();
        let codes = order.iter().flat_map(|&i| row(i)).copied().collect();
        AnswerSet::from_ordered_parts(self.attr_names.clone(), domains, codes, vals)
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
        assert_eq!(&gt.key_arena()[2..4], &[2, 2]);
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
