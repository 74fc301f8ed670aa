//! Query execution.
//!
//! Two engines share the same semantics:
//!
//! * [`execute`] — the vectorized production path: the scan runs in
//!   batches of [`BATCH_ROWS`] rows; `WHERE` conjuncts refine a
//!   [`SelectionVector`] through typed per-column kernels; surviving rows
//!   are assigned dense group ids by a [`crate::group::GroupTable`];
//!   aggregates accumulate columnarly per group id. The finished group
//!   phase is a [`GroupedResult`], from which `HAVING`/`ORDER BY`/`LIMIT`
//!   are derived in `O(groups)` — and which sessions cache so a moved
//!   threshold never rescans the table.
//!
//!   One batch loop serves two *key codecs*, which differ only in how a
//!   row's group key becomes a group id. The hashed codec
//!   ([`group_aggregate_with`]) encodes each key into fixed-width `u64`
//!   lanes, hashes and probes. The direct codec
//!   ([`group_aggregate_direct_with`]) applies when every group column
//!   has a dense code table and the key domain is at most
//!   [`direct_slot_bound`] slots: a row's slot is `Σ code_j · stride_j`
//!   and its group id is `slot_to_gid[slot]`, with no hashing. Both
//!   assign ids in first-encounter order, and a group's key reads the
//!   same encoded lanes whether it is stored (hashed) or decoded from the
//!   group's slot (direct), so their results are byte-identical.
//! * [`execute_rows`] — the row-at-a-time reference implementation
//!   (per-row [`Value`] materialization, per-row key vectors). It is kept
//!   as the differential-testing oracle and the benchmark baseline.

use crate::ast::{AggFunc, CmpOp, OrderDir};
use crate::group::{
    cmp_holds, encode_i64, fold_hash, AggColumns, GroupCounts, GroupKeys, GroupTable,
    GroupedResult, SlotLane,
};
use crate::plan::{BoundPredicate, BoundQuery, GroupSpec};
use qagview_common::{FxHashMap, QagError, Result, Value};
use qagview_storage::selection::{gather_f64, gather_i64_as_f64, SelOp, SelectionVector};
use qagview_storage::{Column, DenseCodes, Table};

/// Rows per scan batch of the vectorized pipeline. Sized so the per-batch
/// scratch (selection vector, encoded keys, group ids, gathered values)
/// stays L1/L2-resident.
pub const BATCH_ROWS: usize = 4096;

/// One output row: the grouping attribute values (display text) plus the
/// aggregate score.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Grouping attribute values rendered as display text.
    pub attrs: Vec<String>,
    /// The aggregate score (`val`).
    pub val: f64,
}

/// The answer relation produced by a query — the paper's `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Names of the grouping attributes.
    pub attr_names: Vec<String>,
    /// Name of the score column.
    pub val_name: String,
    /// The rows, in `ORDER BY` order.
    pub rows: Vec<QueryRow>,
}

fn sel_op(op: CmpOp) -> SelOp {
    match op {
        CmpOp::Eq => SelOp::Eq,
        CmpOp::Neq => SelOp::Ne,
        CmpOp::Lt => SelOp::Lt,
        CmpOp::Le => SelOp::Le,
        CmpOp::Gt => SelOp::Gt,
        CmpOp::Ge => SelOp::Ge,
    }
}

/// Refine `sel` by one bound predicate through the typed kernel matching
/// the (column type, literal type) pair.
pub(crate) fn apply_predicate(
    table: &Table,
    p: &BoundPredicate,
    sel: &mut SelectionVector,
) -> Result<()> {
    let col = table.column(p.col);
    match (&p.value, col) {
        // String literal absent from the table's interner: `=` can never
        // match, `<>` matches every (non-null) row. Ordered operators are
        // rejected at bind time; refuse them here too rather than silently
        // matching nothing.
        (None, _) => match p.op {
            CmpOp::Eq => sel.clear(),
            CmpOp::Neq => {}
            _ => {
                return Err(QagError::internal(
                    "ordered comparison against an interner-miss literal".to_string(),
                ))
            }
        },
        (Some(Value::Int(x)), Column::Int(v)) => sel.retain_cmp(v, sel_op(p.op), *x),
        (Some(Value::Float(x)), Column::Int(v)) => sel.retain_i64_vs_f64(v, sel_op(p.op), *x),
        (Some(Value::Int(x)), Column::Float(v)) => sel.retain_cmp(v, sel_op(p.op), *x as f64),
        (Some(Value::Float(x)), Column::Float(v)) => sel.retain_cmp(v, sel_op(p.op), *x),
        (Some(Value::Bool(b)), Column::Bool(v)) => sel.retain_bool(v, sel_op(p.op), *b),
        (Some(Value::Str(s)), Column::Str(v)) => match p.op {
            CmpOp::Eq => sel.retain_symbol_eq(v, *s, false),
            CmpOp::Neq => sel.retain_symbol_eq(v, *s, true),
            _ => {
                return Err(QagError::internal(
                    "ordered string comparisons are rejected at bind time".to_string(),
                ))
            }
        },
        (Some(v), col) => {
            return Err(QagError::internal(format!(
                "predicate literal {v:?} does not match column type {:?}",
                col.ty()
            )))
        }
    }
    Ok(())
}

/// Encode one column's lane of the batch keys, folding each row's hash as
/// it goes. `dense_start` is `Some(first_row)` when the selection is the
/// full contiguous batch — the common no-predicate case — letting the
/// loop walk the column slice directly instead of through the selection.
#[allow(clippy::too_many_arguments)] // private kernel; the args are the kernel's working set
fn encode_lane<T: Copy>(
    v: &[T],
    sel: &SelectionVector,
    dense_start: Option<usize>,
    enc: impl Fn(T) -> u64,
    out: &mut [u64],
    hashes: &mut [u64],
    j: usize,
    width: usize,
) {
    match dense_start {
        Some(start) => {
            for (i, &x) in v[start..start + sel.len()].iter().enumerate() {
                let e = enc(x);
                out[i * width + j] = e;
                hashes[i] = fold_hash(hashes[i], e);
            }
        }
        None => {
            for (i, &r) in sel.rows().iter().enumerate() {
                let e = enc(v[r as usize]);
                out[i * width + j] = e;
                hashes[i] = fold_hash(hashes[i], e);
            }
        }
    }
}

/// Encode the group key of every selected row into `out` (row-major, one
/// `u64` lane per group column), writing column by column so each column
/// type dispatches once per batch. The per-row key hash is folded
/// incrementally into `hashes` during the same cache-friendly passes, so
/// the group table never has to re-walk the keys to hash them.
pub(crate) fn encode_keys(
    table: &Table,
    group_cols: &[usize],
    sel: &SelectionVector,
    dense_start: Option<usize>,
    out: &mut Vec<u64>,
    hashes: &mut Vec<u64>,
) -> Result<()> {
    let width = group_cols.len();
    out.clear();
    out.resize(sel.len() * width, 0);
    hashes.clear();
    hashes.resize(sel.len(), 0);
    for (j, &c) in group_cols.iter().enumerate() {
        match table.column(c) {
            Column::Int(v) => encode_lane(v, sel, dense_start, encode_i64, out, hashes, j, width),
            Column::Str(v) => encode_lane(
                v,
                sel,
                dense_start,
                |s| u64::from(s.0),
                out,
                hashes,
                j,
                width,
            ),
            Column::Bool(v) => encode_lane(v, sel, dense_start, u64::from, out, hashes, j, width),
            Column::Float(_) => {
                return Err(QagError::internal(
                    "float group keys are rejected at bind time".to_string(),
                ))
            }
        }
    }
    Ok(())
}

/// The distinct aggregate input columns of a query and, per aggregate, the
/// index of the distinct column it reads (`None` for `COUNT`). Shared by
/// the sequential scan and the morsel-parallel workers so both gather each
/// distinct column exactly once per batch.
pub(crate) struct AggInputs {
    pub(crate) input_cols: Vec<usize>,
    pub(crate) agg_input: Vec<Option<usize>>,
}

/// Plan the aggregate input gathers, rejecting non-numeric input columns
/// before any scan work starts.
pub(crate) fn plan_agg_inputs(spec: &GroupSpec, table: &Table) -> Result<AggInputs> {
    // Distinct aggregate input columns (Count aggregates need none), each
    // gathered once per batch and shared by every aggregate reading it.
    let mut input_cols: Vec<usize> = Vec::new();
    let agg_input: Vec<Option<usize>> = spec
        .aggs
        .iter()
        .map(|agg| {
            let c = agg.col.filter(|_| agg.func != AggFunc::Count)?;
            Some(match input_cols.iter().position(|&ic| ic == c) {
                Some(k) => k,
                None => {
                    input_cols.push(c);
                    input_cols.len() - 1
                }
            })
        })
        .collect();
    for &c in &input_cols {
        let col = table.column(c);
        if col.as_f64().is_none() && col.as_i64().is_none() {
            return Err(QagError::Execution(format!(
                "aggregate input column is not numeric ({})",
                col.ty().name()
            )));
        }
    }
    Ok(AggInputs {
        input_cols,
        agg_input,
    })
}

/// Slots per table row the direct key codec may address. Beyond that, the
/// slot map outgrows the scan it serves, and most of it is never touched.
const DIRECT_SLOTS_PER_ROW: usize = 4;

/// Slots the direct key codec may always address, however small the table
/// (a 256 KiB slot map).
const DIRECT_MIN_SLOTS: usize = 1 << 16;

/// The largest key domain (product of the group columns' code-table
/// cardinalities) the direct key codec takes on a table of `rows` rows:
/// four slots per row, and at least 65,536. Tying the bound to the row
/// count keeps the slot map (4 bytes a slot) in proportion to the table.
pub fn direct_slot_bound(rows: usize) -> usize {
    DIRECT_SLOTS_PER_ROW
        .saturating_mul(rows)
        .max(DIRECT_MIN_SLOTS)
}

/// The direct key codec of one query: per group column its dense code
/// table and stride, so a row's slot is `Σ code_j · stride_j`.
struct DirectKeys<'t> {
    /// `(column index, code table, stride)` per group column.
    lanes: Vec<(usize, &'t DenseCodes, u32)>,
    num_slots: usize,
}

impl<'t> DirectKeys<'t> {
    /// `None` when some group column has no dense code table, or the
    /// key domain exceeds [`direct_slot_bound`] for the table.
    fn new(table: &'t Table, group_cols: &[usize]) -> Option<Self> {
        let bound = direct_slot_bound(table.num_rows()).min(u32::MAX as usize);
        let mut lanes = Vec::with_capacity(group_cols.len());
        let mut num_slots = 1usize;
        for &c in group_cols {
            let codes = table.dense_codes(c)?;
            lanes.push((c, codes, num_slots as u32));
            num_slots = num_slots
                .checked_mul(codes.card() as usize)
                .filter(|&n| n <= bound)?;
        }
        Some(DirectKeys { lanes, num_slots })
    }

    /// How the finished group phase reads each lane's encoded value back
    /// out of a group's slot.
    fn slot_lanes(&self) -> Vec<SlotLane> {
        self.lanes
            .iter()
            .map(|&(_, codes, stride)| {
                let values = match codes {
                    DenseCodes::Int { min, code_of, .. } => coded_indices(code_of)
                        .map(|i| encode_i64(min.wrapping_add(i as i64)))
                        .collect(),
                    DenseCodes::Str { code_of, .. } => {
                        coded_indices(code_of).map(|i| i as u64).collect()
                    }
                    DenseCodes::Bool => vec![0, 1],
                };
                SlotLane { stride, values }
            })
            .collect()
    }

    /// Write the direct slot of every selected row into `slots`, one
    /// column at a time.
    fn slots(
        &self,
        table: &Table,
        sel: &SelectionVector,
        dense_start: Option<usize>,
        slots: &mut Vec<u32>,
    ) {
        slots.clear();
        slots.resize(sel.len(), 0);
        for &(c, codes, stride) in &self.lanes {
            match (table.column(c), codes) {
                (Column::Int(v), DenseCodes::Int { min, code_of, .. }) => {
                    add_slot_lane(v, sel, dense_start, stride, slots, |x| {
                        code_of[x.wrapping_sub(*min) as usize]
                    })
                }
                (Column::Str(v), DenseCodes::Str { code_of, .. }) => {
                    add_slot_lane(v, sel, dense_start, stride, slots, |s| {
                        code_of[s.0 as usize]
                    })
                }
                (Column::Bool(v), DenseCodes::Bool) => {
                    add_slot_lane(v, sel, dense_start, stride, slots, u32::from)
                }
                _ => unreachable!("a code table always matches its column's type"),
            }
        }
    }
}

/// The indices of a code table that hold a code, in code order: the
/// `k`-th one has code `k`.
fn coded_indices(code_of: &[u32]) -> impl Iterator<Item = usize> + '_ {
    code_of
        .iter()
        .enumerate()
        .filter(|&(_, &code)| code != u32::MAX)
        .map(|(i, _)| i)
}

/// Add one column's `code · stride` to the slot of every selected row.
/// Slots stay below the codec's slot count, which fits `u32`.
fn add_slot_lane<T: Copy>(
    v: &[T],
    sel: &SelectionVector,
    dense_start: Option<usize>,
    stride: u32,
    slots: &mut [u32],
    code: impl Fn(T) -> u32,
) {
    match dense_start {
        Some(start) => {
            for (s, &x) in slots.iter_mut().zip(&v[start..start + sel.len()]) {
                *s += code(x) * stride;
            }
        }
        None => {
            for (s, &r) in slots.iter_mut().zip(sel.rows()) {
                *s += code(v[r as usize]) * stride;
            }
        }
    }
}

/// How the scan turns the group keys of a batch's selected rows into
/// group ids. This is all that differs between the two scans; filtering,
/// counting, accumulation and finishing are shared.
enum KeyCodec<'t> {
    /// Encode each key to `u64` lanes, hash, and probe the group table.
    Hashed { keys: Vec<u64>, hashes: Vec<u64> },
    /// Compute each row's direct slot and index the group table's slot map.
    Direct {
        keys: DirectKeys<'t>,
        slots: Vec<u32>,
    },
}

impl KeyCodec<'_> {
    fn assign(
        &mut self,
        table: &Table,
        group_cols: &[usize],
        sel: &SelectionVector,
        dense_start: Option<usize>,
        gt: &mut GroupTable,
        gids: &mut Vec<u32>,
    ) -> Result<()> {
        match self {
            KeyCodec::Hashed { keys, hashes } => {
                encode_keys(table, group_cols, sel, dense_start, keys, hashes)?;
                gt.assign(keys, hashes, sel.len(), gids);
            }
            // No group columns: one slot, the table's zero-width path.
            KeyCodec::Direct { keys, .. } if keys.lanes.is_empty() => {
                gt.assign(&[], &[], sel.len(), gids);
            }
            KeyCodec::Direct { keys, slots } => {
                keys.slots(table, sel, dense_start, slots);
                gt.assign_direct(keys.num_slots, slots, gids);
            }
        }
        Ok(())
    }
}

/// Run the group phase of a query — batched filter, group-id assignment,
/// columnar aggregation — producing the cacheable [`GroupedResult`].
/// Group ids come from the hashed key codec; this is the oracle the
/// direct and morsel-parallel scans are tested against.
pub fn group_aggregate(spec: &GroupSpec, table: &Table) -> Result<GroupedResult> {
    let mut gt = GroupTable::new(spec.group_cols.len());
    group_aggregate_with(spec, table, &mut gt)
}

/// [`group_aggregate`] against a caller-provided [`GroupTable`], so a
/// session can reuse the table's hash-slot allocation across queries. The
/// table is cleared first; its key arena moves into the result.
pub fn group_aggregate_with(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
) -> Result<GroupedResult> {
    let codec = KeyCodec::Hashed {
        keys: Vec::with_capacity(BATCH_ROWS * spec.group_cols.len()),
        hashes: Vec::with_capacity(BATCH_ROWS),
    };
    scan_groups(spec, table, gt, codec)
}

/// [`group_aggregate_with`] through the direct key codec: each selected
/// row's group id is read from the group table's slot map at
/// `Σ code_j · stride_j` over the group columns' dense code tables
/// ([`Table::dense_codes`]), with no key encoding, hashing or probing.
/// The result is byte-identical to [`group_aggregate`]. `Ok(None)` when
/// some group column has no code table (a wide `Int` range) or the key
/// domain exceeds [`direct_slot_bound`]; nothing is scanned then.
pub fn group_aggregate_direct_with(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
) -> Result<Option<GroupedResult>> {
    let Some(keys) = DirectKeys::new(table, &spec.group_cols) else {
        return Ok(None);
    };
    let codec = KeyCodec::Direct {
        keys,
        slots: Vec::with_capacity(BATCH_ROWS),
    };
    scan_groups(spec, table, gt, codec).map(Some)
}

/// The one batch loop of the sequential group phase, with group ids from
/// `codec`.
fn scan_groups(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
    mut codec: KeyCodec<'_>,
) -> Result<GroupedResult> {
    gt.clear(spec.group_cols.len());
    let mut counts = GroupCounts::default();
    let mut acc: Vec<AggColumns> = spec.aggs.iter().map(|_| AggColumns::default()).collect();

    let mut sel = SelectionVector::with_capacity(BATCH_ROWS);
    let mut gids: Vec<u32> = Vec::with_capacity(BATCH_ROWS);

    let AggInputs {
        input_cols,
        agg_input,
    } = plan_agg_inputs(spec, table)?;
    let mut input_scratch: Vec<Vec<f64>> = input_cols
        .iter()
        .map(|_| Vec::with_capacity(BATCH_ROWS))
        .collect();

    let n = table.num_rows();
    let mut batch_start = 0usize;
    while batch_start < n {
        let end = (batch_start + BATCH_ROWS).min(n);
        sel.fill_range(batch_start as u32, end as u32);
        for p in &spec.predicates {
            apply_predicate(table, p, &mut sel)?;
            if sel.is_empty() {
                break;
            }
        }
        if sel.is_empty() {
            batch_start = end;
            continue;
        }

        // The selection is "dense" when no predicate dropped a row: the
        // kernels can then walk the column slices directly.
        let dense_start = if sel.len() == end - batch_start {
            Some(batch_start)
        } else {
            None
        };
        codec.assign(table, &spec.group_cols, &sel, dense_start, gt, &mut gids)?;

        // Row counts are shared: every aggregate of the query counts
        // exactly the selected rows (columns are non-nullable).
        counts.count_rows(&gids, gt.num_groups());
        // Gather each distinct input column once. Float columns in a
        // dense batch are aggregated straight off the column storage (the
        // scratch stays empty for them); everything else fills scratch.
        for (k, &c) in input_cols.iter().enumerate() {
            let col = table.column(c);
            if let Some(v) = col.as_f64() {
                if dense_start.is_none() {
                    gather_f64(v, &sel, &mut input_scratch[k]);
                }
            } else if let Some(v) = col.as_i64() {
                match dense_start {
                    // Dense i64 batch: convert off the contiguous slice,
                    // no selection indirection.
                    Some(start) => {
                        input_scratch[k].clear();
                        input_scratch[k]
                            .extend(v[start..start + sel.len()].iter().map(|&x| x as f64));
                    }
                    None => gather_i64_as_f64(v, &sel, &mut input_scratch[k]),
                }
            } else {
                unreachable!("non-numeric inputs rejected before the scan");
            }
        }
        for (ai, agg) in spec.aggs.iter().enumerate() {
            // COUNT(*) / COUNT(col) finish from the shared counts alone.
            let Some(k) = agg_input[ai] else { continue };
            let vals: &[f64] = match (table.column(input_cols[k]).as_f64(), dense_start) {
                (Some(v), Some(start)) => &v[start..start + sel.len()],
                _ => &input_scratch[k],
            };
            // Each aggregate only ever finishes its own function, so only
            // that function's state needs maintaining.
            match agg.func {
                AggFunc::Sum | AggFunc::Avg => acc[ai].accumulate_sum(&gids, vals, gt.num_groups()),
                AggFunc::Min => acc[ai].accumulate_min(&gids, vals, gt.num_groups()),
                AggFunc::Max => acc[ai].accumulate_max(&gids, vals, gt.num_groups()),
                AggFunc::Count => unreachable!("filtered above"),
            }
        }
        batch_start = end;
    }

    // A zero-width direct scan assigned through the hashed path (above).
    let keys = match &codec {
        KeyCodec::Direct { keys, .. } if !keys.lanes.is_empty() => {
            GroupKeys::direct(gt, keys.slot_lanes())
        }
        _ => GroupKeys::hashed(gt),
    };
    GroupedResult::finish(spec, table, keys, gt.num_groups(), &counts, &acc)
}

/// Execute a bound query through the vectorized pipeline, producing the
/// answer relation.
pub fn execute(query: &BoundQuery, table: &Table) -> Result<QueryOutput> {
    group_aggregate(&query.group, table)?.apply(&query.output)
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference engine
// ---------------------------------------------------------------------------

/// Hashable group key part (floats are banned from GROUP BY at bind time).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyPart {
    Int(i64),
    Str(u32),
    Bool(bool),
}

fn key_part(v: Value) -> Result<KeyPart> {
    match v {
        Value::Int(i) => Ok(KeyPart::Int(i)),
        Value::Str(s) => Ok(KeyPart::Str(s.0)),
        Value::Bool(b) => Ok(KeyPart::Bool(b)),
        other => Err(QagError::internal(format!(
            "unhashable group key {other:?}"
        ))),
    }
}

/// Per-group running state for one aggregate.
#[derive(Debug, Clone, Copy)]
struct AggState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, x: Option<f64>) {
        // `None` means COUNT(*) — count the row without a value.
        self.count += 1;
        if let Some(x) = x {
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => {
                debug_assert!(self.count > 0, "groups are never empty");
                self.sum / self.count as f64
            }
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
        }
    }
}

fn row_passes(table: &Table, row: usize, preds: &[BoundPredicate]) -> bool {
    preds.iter().all(|p| {
        let lhs = table.value(row, p.col);
        match &p.value {
            // String literal absent from the table: `=` never matches,
            // `<>` matches every (non-null) row.
            None => matches!(p.op, CmpOp::Neq),
            Some(rhs) => match p.op {
                CmpOp::Eq => lhs.sql_eq(rhs).unwrap_or(false),
                CmpOp::Neq => lhs.sql_eq(rhs).map(|b| !b).unwrap_or(false),
                _ => lhs
                    .sql_cmp(rhs)
                    .map(|o| cmp_holds(p.op, o))
                    .unwrap_or(false),
            },
        }
    })
}

/// Execute a bound query row-at-a-time — the reference implementation the
/// vectorized engine is differentially tested against, and the baseline of
/// the `query_exec` perf section.
pub fn execute_rows(query: &BoundQuery, table: &Table) -> Result<QueryOutput> {
    let spec = &query.group;
    let out = &query.output;
    // Group states keyed by the group-by values; insertion order retained
    // separately for deterministic output when no ORDER BY is given.
    let mut groups: FxHashMap<Vec<KeyPart>, usize> = FxHashMap::default();
    let mut keys: Vec<Vec<KeyPart>> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut key_scratch: Vec<KeyPart> = Vec::with_capacity(spec.group_cols.len());

    for row in 0..table.num_rows() {
        if !row_passes(table, row, &spec.predicates) {
            continue;
        }
        key_scratch.clear();
        for &c in &spec.group_cols {
            key_scratch.push(key_part(table.value(row, c))?);
        }
        let gid = match groups.get(key_scratch.as_slice()) {
            Some(&g) => g,
            None => {
                let g = keys.len();
                groups.insert(key_scratch.clone(), g);
                keys.push(key_scratch.clone());
                states.push(vec![AggState::new(); spec.aggs.len()]);
                g
            }
        };
        for (ai, agg) in spec.aggs.iter().enumerate() {
            let x = match agg.col {
                None => None,
                Some(_) if agg.func == AggFunc::Count => None,
                Some(c) => Some(table.value(row, c).as_f64().ok_or_else(|| {
                    QagError::Execution(format!("aggregate input at row {row} is not numeric"))
                })?),
            };
            states[gid][ai].update(x);
        }
    }

    // HAVING + projection.
    let mut rows: Vec<(Vec<KeyPart>, QueryRow)> = Vec::with_capacity(keys.len());
    'group: for (gid, key) in keys.iter().enumerate() {
        for h in &out.having {
            let agg = &spec.aggs[h.agg_idx];
            let v = states[gid][h.agg_idx].finish(agg.func);
            let ord = v.partial_cmp(&h.value).ok_or_else(|| {
                QagError::Execution("NaN aggregate in HAVING comparison".to_string())
            })?;
            if !cmp_holds(h.op, ord) {
                continue 'group;
            }
        }
        let val = states[gid][0].finish(spec.aggs[0].func);
        let attrs = render_key(table, spec, key);
        rows.push((key.clone(), QueryRow { attrs, val }));
    }

    // ORDER BY val under the shared total order (NaN included),
    // deterministic tie-break on the group key.
    if let Some(dir) = out.order {
        rows.sort_by(|a, b| {
            let ord =
                crate::group::f64_sort_bits(a.1.val).cmp(&crate::group::f64_sort_bits(b.1.val));
            let ord = match dir {
                OrderDir::Asc => ord,
                OrderDir::Desc => ord.reverse(),
            };
            ord.then_with(|| a.0.cmp(&b.0))
        });
    }

    let mut rows: Vec<QueryRow> = rows.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = out.limit {
        rows.truncate(limit);
    }

    Ok(QueryOutput {
        attr_names: spec.group_names.clone(),
        val_name: out.agg_alias.clone(),
        rows,
    })
}

fn render_key(table: &Table, spec: &GroupSpec, key: &[KeyPart]) -> Vec<String> {
    key.iter()
        .zip(&spec.group_cols)
        .map(|(part, _)| match part {
            KeyPart::Int(i) => i.to_string(),
            KeyPart::Str(s) => table
                .interner()
                .resolve(qagview_common::Symbol(*s))
                .to_string(),
            KeyPart::Bool(b) => b.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::bind;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn ratings() -> Table {
        let schema = Schema::from_pairs(&[
            ("gender", ColumnType::Str),
            ("occ", ColumnType::Str),
            ("adventure", ColumnType::Bool),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: Vec<(&str, &str, bool, f64)> = vec![
            ("M", "Student", true, 5.0),
            ("M", "Student", true, 4.0),
            ("M", "Student", false, 1.0),
            ("M", "Programmer", true, 4.0),
            ("F", "Student", true, 3.0),
            ("F", "Student", true, 2.0),
            ("F", "Educator", true, 5.0),
        ];
        for (g, o, a, r) in rows {
            b.push_row(vec![g.into(), o.into(), a.into(), Cell::Float(r)])
                .unwrap();
        }
        b.finish()
    }

    /// Run through the vectorized engine, asserting along the way that the
    /// row-at-a-time reference produces the identical output.
    fn run(sql: &str) -> QueryOutput {
        let t = ratings();
        let stmt = parse(sql).unwrap();
        let bound = bind(&stmt, &t).unwrap();
        let vectorized = execute(&bound, &t).unwrap();
        let reference = execute_rows(&bound, &t).unwrap();
        assert_eq!(vectorized, reference, "engines diverge on {sql}");
        vectorized
    }

    #[test]
    fn avg_group_by_with_where_and_order() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r WHERE adventure = 1 \
             GROUP BY gender, occ ORDER BY val DESC",
        );
        assert_eq!(out.attr_names, vec!["gender", "occ"]);
        // Groups (adventure only): (M,Student)=4.5, (M,Programmer)=4.0,
        // (F,Student)=2.5, (F,Educator)=5.0.
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0].attrs, vec!["F", "Educator"]);
        assert_eq!(out.rows[0].val, 5.0);
        assert_eq!(out.rows[1].attrs, vec!["M", "Student"]);
        assert!((out.rows[1].val - 4.5).abs() < 1e-12);
        assert_eq!(out.rows[3].attrs, vec!["F", "Student"]);
    }

    #[test]
    fn having_count_filters_small_groups() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING count(*) > 1 ORDER BY val DESC",
        );
        // Only (M,Student) [3 rows] and (F,Student) [2 rows] survive.
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["M", "Student"]);
        assert!((out.rows[0].val - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_conjunct_having() {
        // Both conjuncts must hold: count(*) > 1 keeps (M,Student) and
        // (F,Student); avg(rating) >= 3 then drops (F,Student) [avg 2.5].
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING count(*) > 1 AND avg(rating) >= 3 ORDER BY val DESC",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].attrs, vec!["M", "Student"]);
        // And with the conjunct order flipped, the result is the same.
        let flipped = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING avg(rating) >= 3 AND count(*) > 1 ORDER BY val DESC",
        );
        assert_eq!(out.rows, flipped.rows);
    }

    #[test]
    fn count_star_and_sum_min_max() {
        let out = run("SELECT gender, COUNT(*) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 4.0);

        let out = run("SELECT gender, SUM(rating) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].val, 14.0); // M: 5+4+1+4

        let out = run("SELECT gender, MIN(rating) AS val FROM r GROUP BY gender ORDER BY val ASC");
        assert_eq!(out.rows[0].val, 1.0);

        let out = run("SELECT gender, MAX(rating) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].val, 5.0);
    }

    #[test]
    fn count_star_mixed_with_column_aggregates() {
        // COUNT(*) projected while HAVING references column aggregates.
        let out = run("SELECT gender, COUNT(*) AS val FROM r GROUP BY gender \
             HAVING avg(rating) > 3 AND max(rating) >= 5 ORDER BY val DESC");
        // M: avg 3.5, max 5 → kept (4 rows). F: avg 10/3, max 5 → kept (3).
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 4.0);
        assert_eq!(out.rows[1].val, 3.0);

        // Column aggregate projected while HAVING mixes COUNT(*) in.
        let out = run("SELECT occ, SUM(rating) AS val FROM r GROUP BY occ \
             HAVING count(*) > 1 AND min(rating) < 2 ORDER BY val ASC");
        // Student: count 5, min 1.0 → kept, sum 15. Others fail count/min.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].attrs, vec!["Student"]);
        assert_eq!(out.rows[0].val, 15.0);
    }

    #[test]
    fn limit_truncates() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             ORDER BY val DESC LIMIT 2",
        );
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn string_equality_predicates() {
        let out = run(
            "SELECT occ, AVG(rating) AS val FROM r WHERE gender = 'F' GROUP BY occ \
             ORDER BY val DESC",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["Educator"]);
    }

    #[test]
    fn missing_string_literal_matches_nothing_or_everything() {
        let none = run("SELECT occ, AVG(rating) AS val FROM r WHERE gender = 'X' GROUP BY occ");
        assert!(none.rows.is_empty());
        let all = run("SELECT occ, AVG(rating) AS val FROM r WHERE gender <> 'X' GROUP BY occ");
        assert_eq!(all.rows.len(), 3);
    }

    #[test]
    fn numeric_range_predicates() {
        let out = run(
            "SELECT gender, COUNT(*) AS val FROM r WHERE rating >= 4.0 GROUP BY gender \
             ORDER BY val DESC",
        );
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 3.0);
        assert_eq!(out.rows[1].val, 1.0);
    }

    #[test]
    fn ties_break_deterministically_on_group_key() {
        // Two groups share val 4.0 in this query; order must be stable
        // across runs (by encoded group key).
        let out = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
             ORDER BY val DESC",
        );
        let first_run: Vec<Vec<String>> = out.rows.iter().map(|r| r.attrs.clone()).collect();
        for _ in 0..3 {
            let again = run(
                "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
                 ORDER BY val DESC",
            );
            let attrs: Vec<Vec<String>> = again.rows.iter().map(|r| r.attrs.clone()).collect();
            assert_eq!(first_run, attrs);
        }
    }

    #[test]
    fn order_by_ties_use_interned_key_order_in_both_directions() {
        // (M,Student) and (M,Programmer) tie at MAX(rating) = 4.0 once the
        // 5.0 row is filtered out. The documented tie-break is the encoded
        // group key ascending — i.e. interning order (first appearance in
        // the table), NOT display-string order — and it applies unreversed
        // under both ASC and DESC.
        let desc = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r WHERE rating < 5 \
             GROUP BY gender, occ ORDER BY val DESC",
        );
        let tied: Vec<&Vec<String>> = desc
            .rows
            .iter()
            .filter(|r| r.val == 4.0)
            .map(|r| &r.attrs)
            .collect();
        // "Student" interns before "Programmer" (row order), so the
        // (M,Student) group precedes (M,Programmer) among the ties.
        assert_eq!(
            tied,
            vec![
                &vec!["M".to_string(), "Student".to_string()],
                &vec!["M".to_string(), "Programmer".to_string()]
            ]
        );
        let asc = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r WHERE rating < 5 \
             GROUP BY gender, occ ORDER BY val ASC",
        );
        let tied_asc: Vec<&Vec<String>> = asc
            .rows
            .iter()
            .filter(|r| r.val == 4.0)
            .map(|r| &r.attrs)
            .collect();
        assert_eq!(tied, tied_asc, "tie order is direction-independent");
    }

    #[test]
    fn empty_result_for_all_filtered() {
        let out =
            run("SELECT gender, AVG(rating) AS val FROM r WHERE rating > 100 GROUP BY gender");
        assert!(out.rows.is_empty());
        assert_eq!(out.val_name, "val");
    }

    #[test]
    fn bool_group_by() {
        let out =
            run("SELECT adventure, AVG(rating) AS val FROM r GROUP BY adventure ORDER BY val DESC");
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["true"]);
    }

    #[test]
    fn nan_aggregates_order_identically_in_both_engines() {
        // NaN scores get one well-defined slot in the shared total order
        // (above +inf), so ORDER BY — and therefore the cached
        // GroupedResult — stays byte-identical between engines even on
        // pathological float data.
        let schema =
            Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
        let mut b = TableBuilder::new(schema);
        for (g, x) in [
            (3i64, 2.0),
            (1, f64::NAN),
            (2, 5.0),
            (0, f64::NAN),
            (4, -1.0),
        ] {
            b.push_row(vec![Cell::Int(g), Cell::Float(x)]).unwrap();
        }
        let t = b.finish();
        // NaN != NaN under PartialEq, so byte-identity is asserted on
        // (attrs, value bits) instead of QueryOutput equality.
        let canon = |out: &QueryOutput| -> Vec<(Vec<String>, u64)> {
            out.rows
                .iter()
                .map(|r| (r.attrs.clone(), r.val.to_bits()))
                .collect()
        };
        for dir in ["ASC", "DESC"] {
            let sql = format!("SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val {dir}");
            let bound = bind(&parse(&sql).unwrap(), &t).unwrap();
            let vec_out = execute(&bound, &t).unwrap();
            let row_out = execute_rows(&bound, &t).unwrap();
            assert_eq!(canon(&vec_out), canon(&row_out), "{sql}");
            // NaN groups sit above +inf: last under ASC, first under DESC,
            // tied NaNs in group-key order either way.
            let attrs: Vec<&str> = vec_out.rows.iter().map(|r| r.attrs[0].as_str()).collect();
            match dir {
                "ASC" => assert_eq!(attrs, vec!["4", "3", "2", "0", "1"]),
                _ => assert_eq!(attrs, vec!["0", "1", "2", "3", "4"]),
            }
        }
    }

    #[test]
    fn int_predicates_beyond_2_pow_53_stay_exact_in_both_engines() {
        // i64 predicate comparisons must not round-trip through f64:
        // 2^53 and 2^53 + 1 are distinct i64s that collapse to one f64.
        let schema = Schema::from_pairs(&[("g", ColumnType::Str), ("n", ColumnType::Int)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec!["a".into(), Cell::Int(1i64 << 53)]).unwrap();
        b.push_row(vec!["b".into(), Cell::Int((1i64 << 53) + 1)])
            .unwrap();
        let t = b.finish();
        for (op, expected) in [("=", 1), ("<>", 1), ("<=", 1), (">", 1)] {
            let sql = format!(
                "SELECT g, COUNT(*) AS val FROM t WHERE n {op} 9007199254740992 GROUP BY g"
            );
            let bound = bind(&parse(&sql).unwrap(), &t).unwrap();
            let vec_out = execute(&bound, &t).unwrap();
            let row_out = execute_rows(&bound, &t).unwrap();
            assert_eq!(vec_out, row_out, "{sql}");
            assert_eq!(vec_out.rows.len(), expected, "{sql}");
        }
    }

    #[test]
    fn multiple_aggregates_share_one_gather_of_the_same_column() {
        // Three aggregates over the same column (plus COUNT(*)) must agree
        // with the reference engine — exercises the shared input-gather
        // path with and without a WHERE filter.
        for where_clause in ["", "WHERE adventure = 1 "] {
            run(&format!(
                "SELECT gender, AVG(rating) AS val FROM r {where_clause}GROUP BY gender \
                 HAVING min(rating) > 0 AND max(rating) <= 5 AND count(*) > 0 \
                 ORDER BY val DESC"
            ));
        }
    }

    #[test]
    fn nan_having_errors_in_both_engines_even_under_limit() {
        // HAVING is evaluated over every group before LIMIT cuts the
        // walk, so a NaN aggregate errors identically in both engines —
        // LIMIT must not let the vectorized path silently succeed where
        // the reference errors.
        let schema =
            Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Cell::Int(1), Cell::Float(1.0)]).unwrap();
        b.push_row(vec![Cell::Int(2), Cell::Float(f64::NAN)])
            .unwrap();
        let t = b.finish();
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g \
                   HAVING avg(x) > 0 ORDER BY val ASC LIMIT 1";
        let bound = bind(&parse(sql).unwrap(), &t).unwrap();
        let vec_err = execute(&bound, &t).unwrap_err();
        let row_err = execute_rows(&bound, &t).unwrap_err();
        assert!(vec_err.to_string().contains("NaN aggregate"), "{vec_err}");
        assert_eq!(vec_err.to_string(), row_err.to_string());
    }

    #[test]
    fn grouped_result_reuse_across_thresholds() {
        // One group phase, many output specs: every derived output must be
        // byte-identical to a cold end-to-end execution.
        let t = ratings();
        let base = "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
                    HAVING count(*) > 0 ORDER BY val DESC";
        let bound = bind(&parse(base).unwrap(), &t).unwrap();
        let grouped = group_aggregate(&bound.group, &t).unwrap();
        assert_eq!(grouped.num_groups(), 4);
        assert_eq!(grouped.num_aggs(), 2); // AVG + COUNT(*)

        for threshold in 0..4 {
            for (dir, limit) in [("DESC", ""), ("ASC", ""), ("DESC", " LIMIT 2")] {
                let sql = format!(
                    "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
                     HAVING count(*) > {threshold} ORDER BY val {dir}{limit}"
                );
                let b = bind(&parse(&sql).unwrap(), &t).unwrap();
                assert_eq!(
                    b.group.fingerprint(),
                    bound.group.fingerprint(),
                    "same group phase"
                );
                let from_cache = grouped.apply(&b.output).unwrap();
                let cold = execute(&b, &t).unwrap();
                assert_eq!(from_cache, cold, "{sql}");
            }
        }
    }

    #[test]
    fn batch_boundaries_do_not_change_results() {
        // A table larger than one batch, with group keys straddling batch
        // boundaries; vectorized and reference engines must agree exactly.
        let schema = Schema::from_pairs(&[
            ("g", ColumnType::Int),
            ("flag", ColumnType::Bool),
            ("x", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::with_capacity(schema, 3 * BATCH_ROWS + 17);
        for i in 0..(3 * BATCH_ROWS + 17) as i64 {
            b.push_row(vec![
                Cell::Int(i % 37 - 18), // negative keys exercise the order-preserving encoding
                Cell::Bool(i % 3 == 0),
                Cell::Float((i % 101) as f64 / 4.0),
            ])
            .unwrap();
        }
        let t = b.finish();
        for sql in [
            "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC",
            "SELECT g, SUM(x) AS val FROM t WHERE flag = true GROUP BY g \
             HAVING count(*) > 20 ORDER BY val ASC",
            "SELECT g, MAX(x) AS val FROM t WHERE x >= 2.5 GROUP BY g \
             ORDER BY val DESC LIMIT 7",
        ] {
            let bound = bind(&parse(sql).unwrap(), &t).unwrap();
            assert_eq!(
                execute(&bound, &t).unwrap(),
                execute_rows(&bound, &t).unwrap(),
                "{sql}"
            );
        }
    }
}
