//! The incremental merge-frontier engine.
//!
//! Every Bottom-Up descent round used to rebuild its pair set from scratch
//! and re-evaluate all O(p²) candidate merges — recomputing each pair's LCA,
//! re-probing the candidate index, and re-scoring the marginal — O(p³) work
//! per descent, times every `D`-plane of a cold precomputation. Three facts
//! make almost all of that work redundant:
//!
//! 1. **A pair's LCA never changes.** It depends only on the two member
//!    patterns, so it can be resolved (and index-probed) exactly once, when
//!    the pair first exists. Likewise the pair's distance, which decides
//!    membership in the phase-1 violating set.
//! 2. **Scores depend only on the LCA and the coverage.** Many pairs share
//!    an LCA, and both greedy rules (and Min-Size) score a merge purely as a
//!    function of the LCA id and the current coverage `T` — and applying a
//!    merge depends only on its LCA too, so pairs with equal LCAs are fully
//!    interchangeable. Scoring therefore dedupes to the *distinct* LCA ids.
//! 3. **A coverage-neutral merge changes no marginal.** When the applied
//!    LCA absorbs nothing new (the common case late in a descent), every
//!    cached score stays exact; the round reduces to dropping the removed
//!    members' pair rows and inserting the new cluster's O(p) pairs.
//!
//! [`MergeFrontier`] carries the pair table, per-LCA pair counts, and an
//! epoch-stamped score cache across rounds (the epoch is the working set's
//! coverage version, see [`WorkingSet::round`]). Selection keeps the exact
//! tie-break contract of [`crate::working::greedy_apply`] — score first,
//! then [`qagview_lattice::Pattern::cmp_for_ties`] on the LCA pattern —
//! and distinct LCAs have distinct patterns, so the maximum is unique and
//! the chosen merge is byte-identical to the per-round re-evaluation path
//! (property-tested bit-for-bit in `tests/frontier_property.rs`; the
//! legacy path survives as [`crate::run_phases_reeval`], the differential
//! oracle).

use crate::working::{Evaluator, GreedyRule, MergeEvent, WorkingSet};
use qagview_common::Result;
use qagview_lattice::{CandId, STAR};

/// Order-preserving `f64 → u64` key (no NaNs): larger floats map to larger
/// keys, so a max-heap of keys pops scores descending.
#[inline]
fn f64_desc_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Inverse of [`f64_desc_key`].
#[inline]
fn f64_from_desc_key(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// Which pair set a selection round draws from (the two phases of
/// Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierPhase {
    /// Pairs at distance `< D` (phase 1: enforce the distance constraint).
    Violating,
    /// Every pair (phase 2: enforce the size constraint).
    All,
}

/// One unordered pair of working-set members, with its merge target
/// resolved once. Rows are tombstoned (`alive`) instead of compacted, so
/// removing a member touches only that member's rows; the pair's members
/// are implied by which `by_member` lists hold the row's index.
#[derive(Debug, Clone, Copy)]
struct PairRow {
    lca: CandId,
    /// Pattern distance between the two members (static; arity ≤ 20).
    dist: u8,
    alive: bool,
}

/// How many live pairs map to one distinct LCA id, plus whether the id is
/// currently listed in the `distinct` iteration vector.
#[derive(Debug, Clone, Copy, Default)]
struct LcaCounts {
    all: u32,
    violating: u32,
    listed: bool,
}

/// The persistent merge table one greedy descent carries across rounds.
///
/// Generic over the score type `S`: the Max-Avg rules score with `f64`
/// (see [`frontier_round`]), Min-Size with its lexicographic
/// `(redundancy, avg)` pair. The caller supplies the scoring function and
/// the strict "better" comparison; the frontier supplies LCA resolution,
/// per-LCA dedup, epoch-scoped score caching, and the pattern tie-break.
///
/// `Clone` + [`MergeFrontier::reseed`] support the plane precomputation's
/// prototype pattern: resolve the shared pool's O(p²) pair LCAs (and warm
/// their scores) once, then stamp out one frontier per `D`-descent —
/// distances are stored per row, so re-classifying the violating set for
/// a different `D` is a linear pass, not a rebuild.
#[derive(Debug, Clone)]
pub struct MergeFrontier<S> {
    d: usize,
    rows: Vec<PairRow>,
    /// Live row indices per member (dense, indexed by [`CandId`]);
    /// removing a member drains its list. Lists may retain tombstoned
    /// indices of pairs whose *other* member vanished first — skipped
    /// when encountered.
    by_member: Vec<Vec<u32>>,
    /// Per-LCA pair counts, dense-indexed by [`CandId`] — selection and
    /// maintenance never hash.
    counts: Vec<LcaCounts>,
    /// LCA ids with live pairs; entries whose counts dropped to zero stay
    /// until the next lazy compaction (`stale` tracks how many).
    distinct: Vec<CandId>,
    stale: usize,
    /// Epoch-stamped score cache, dense-indexed by [`CandId`].
    scores: Vec<Option<(u32, S)>>,
    /// Per-LCA stale-bound state for the lazy Max-Avg selection:
    /// `(cap_epoch, u, n)` = a sound upper bound `u` on the score at
    /// `cap_epoch`, chained from the stale score over the intervening
    /// diffs, with `n` a lower bound on the union size the score averaged
    /// over. See [`MergeFrontier::select_max_avg`].
    caps: Vec<(u32, f64, u32)>,
    /// `(epoch, diff len, max val absorbed)` per coverage-growing round,
    /// ascending by epoch.
    diff_vmax: Vec<(u32, u32, f64)>,
    /// Per-LCA static coverage stats `(Σ val, |cov|, min val)`, copied out
    /// of the candidate index the first time the LCA is listed so the
    /// per-round bound pass reads one flat table instead of chasing
    /// `CandidateInfo` pointers.
    lca_static: Vec<(f64, u32, f64)>,
    live_pairs: usize,
    violating_pairs: usize,
    lca_scratch: Vec<u32>,
}

impl<S: Copy> MergeFrontier<S> {
    /// Build the frontier for the working set's current members: every
    /// member pair's LCA is resolved and its distance computed exactly
    /// once — the only O(p²) step of the whole descent.
    pub fn new(w: &WorkingSet<'_>, d: usize) -> Result<Self> {
        let members = w.members();
        let p = members.len();
        let ncand = w.index().len();
        let mut frontier = MergeFrontier {
            d,
            rows: Vec::with_capacity(p * p.saturating_sub(1) / 2),
            by_member: vec![Vec::new(); ncand],
            counts: vec![LcaCounts::default(); ncand],
            distinct: Vec::new(),
            stale: 0,
            scores: vec![None; ncand],
            caps: vec![(0, f64::INFINITY, 1); ncand],
            diff_vmax: Vec::new(),
            lca_static: vec![(0.0, 0, 0.0); ncand],
            live_pairs: 0,
            violating_pairs: 0,
            lca_scratch: Vec::with_capacity(w.answers().arity()),
        };
        for i in 0..p {
            for j in i + 1..p {
                frontier.push_pair(w, members[i], members[j])?;
            }
        }
        Ok(frontier)
    }

    /// A copy of this frontier re-classified for distance threshold `d`:
    /// pair rows, LCA resolutions, and cached scores carry over verbatim
    /// (scores depend only on the LCA and the coverage, never on `D`);
    /// only the violating bookkeeping is recomputed from the stored
    /// distances. This is how `build_planes` shares one warmed prototype
    /// across every `D`-descent.
    pub fn reseed(&self, d: usize) -> Self {
        let mut f = self.clone();
        f.d = d;
        f.violating_pairs = 0;
        for c in &mut f.counts {
            c.violating = 0;
        }
        if d > 0 {
            let MergeFrontier {
                rows,
                counts,
                violating_pairs,
                ..
            } = &mut f;
            for row in rows.iter() {
                if row.alive && (row.dist as usize) < d {
                    counts[row.lca as usize].violating += 1;
                    *violating_pairs += 1;
                }
            }
        }
        f
    }

    /// Number of live pairs violating the distance constraint.
    pub fn violating_count(&self) -> usize {
        self.violating_pairs
    }

    /// Number of live pairs.
    pub fn pair_count(&self) -> usize {
        self.live_pairs
    }

    /// Number of distinct LCA ids among the live pairs — the selection
    /// work per round, as opposed to the pair count the re-evaluation path
    /// scans.
    pub fn distinct_lca_count(&self) -> usize {
        self.distinct
            .iter()
            .filter(|&&lca| self.counts[lca as usize].all > 0)
            .count()
    }

    /// The distinct LCA ids a selection in `phase` would consider, in
    /// unspecified order (diagnostics and differential tests).
    pub fn distinct_lcas(&self, phase: FrontierPhase) -> Vec<CandId> {
        self.distinct
            .iter()
            .copied()
            .filter(|&lca| {
                let c = &self.counts[lca as usize];
                match phase {
                    FrontierPhase::Violating => c.violating > 0,
                    FrontierPhase::All => c.all > 0,
                }
            })
            .collect()
    }

    /// Resolve one new pair: LCA slots into the scratch buffer, one
    /// allocation-free index probe, one distance computation.
    fn push_pair(&mut self, w: &WorkingSet<'_>, a: CandId, b: CandId) -> Result<()> {
        let index = w.index();
        let pa = index.pattern(a);
        let pb = index.pattern(b);
        let dist = pa.distance(pb) as u8;
        self.lca_scratch.clear();
        self.lca_scratch
            .extend(pa.slots().iter().zip(pb.slots()).map(|(&x, &y)| {
                if x == y && x != STAR {
                    x
                } else {
                    STAR
                }
            }));
        let lca = index.require_slots(&self.lca_scratch)?;
        let counts = &mut self.counts[lca as usize];
        counts.all += 1;
        self.live_pairs += 1;
        if self.d > 0 && (dist as usize) < self.d {
            counts.violating += 1;
            self.violating_pairs += 1;
        }
        if !counts.listed {
            counts.listed = true;
            self.distinct.push(lca);
            let info = index.info(lca);
            // cov is ascending by tuple id == descending by value, so the
            // coverage's minimum value is its last element's.
            let vmin = w
                .answers()
                .val(*info.cov.last().expect("non-empty coverage"));
            self.lca_static[lca as usize] = (info.sum, info.cov.len() as u32, vmin);
        } else if counts.all == 1 {
            // Listed but previously counted down to zero: resurrected, so
            // one fewer stale entry than estimated.
            self.stale = self.stale.saturating_sub(1);
        }
        let idx = self.rows.len() as u32;
        self.rows.push(PairRow {
            lca,
            dist,
            alive: true,
        });
        self.by_member[a as usize].push(idx);
        self.by_member[b as usize].push(idx);
        Ok(())
    }

    /// Lazily compact the distinct list when over half its entries have
    /// counted down to zero.
    fn compact_distinct(&mut self) {
        if self.stale * 2 > self.distinct.len() {
            let counts = &mut self.counts;
            self.distinct.retain(|&lca| {
                if counts[lca as usize].all > 0 {
                    true
                } else {
                    counts[lca as usize].listed = false;
                    false
                }
            });
            self.stale = 0;
        }
    }

    /// Select the best merge target among the phase's distinct LCA ids by
    /// exhaustive scan: `score` is consulted only for LCAs with no cached
    /// score at the current coverage epoch; `better` is the greedy rule's
    /// strict comparison. Ties on the score break on the smaller LCA
    /// pattern (`cmp_for_ties`), exactly like the re-evaluation path — and
    /// since distinct LCAs have distinct patterns, the selected maximum is
    /// unique, independent of iteration order. (The Max-Avg rule has a
    /// bound-pruned fast path, [`MergeFrontier::select_max_avg`].)
    pub fn select(
        &mut self,
        w: &WorkingSet<'_>,
        phase: FrontierPhase,
        score: &mut impl FnMut(&WorkingSet<'_>, CandId) -> Result<S>,
        better: impl Fn(&S, &S) -> bool,
    ) -> Result<Option<CandId>> {
        self.compact_distinct();
        let epoch = w.round();
        let mut best: Option<(S, CandId)> = None;
        for i in 0..self.distinct.len() {
            let lca = self.distinct[i];
            let counts = &self.counts[lca as usize];
            let eligible = match phase {
                FrontierPhase::Violating => counts.violating > 0,
                FrontierPhase::All => counts.all > 0,
            };
            if !eligible {
                continue;
            }
            let s = match self.scores[lca as usize] {
                Some((e, s)) if e == epoch => s,
                _ => {
                    let s = score(w, lca)?;
                    self.scores[lca as usize] = Some((epoch, s));
                    // Generic scorers are opaque: leave a neutral cap that
                    // forces the lazy Max-Avg path to re-evaluate rather
                    // than trust a bound it cannot derive here.
                    self.caps[lca as usize] = (epoch, f64::INFINITY, 1);
                    s
                }
            };
            let replace = match &best {
                None => true,
                Some((best_score, best_lca)) => {
                    better(&s, best_score)
                        || (!better(best_score, &s)
                            && w.index()
                                .pattern(lca)
                                .cmp_for_ties(w.index().pattern(*best_lca))
                                == std::cmp::Ordering::Less)
                }
            };
            if replace {
                best = Some((s, lca));
            }
        }
        Ok(best.map(|(_, lca)| lca))
    }

    /// Apply the selected merge and update the frontier incrementally:
    /// tombstone the removed members' pair rows (touching only those
    /// members' row lists), insert the new cluster's O(p) pairs. Cached
    /// scores survive untouched — the epoch stamp (the working set's
    /// coverage version) invalidates them lazily, and a coverage-neutral
    /// merge does not advance it.
    pub fn apply(&mut self, w: &mut WorkingSet<'_>, lca: CandId) -> Result<MergeEvent> {
        let event = w.merge_by_lca(lca)?;
        if event.new_coverage {
            // Tuples are rank-sorted by value, so the diff's maximum value
            // is its first (lowest-id) element — the O(1) cap the lazy
            // Max-Avg selection bounds stale scores with.
            let diff = w.last_added();
            let vmax = w.answers().val(diff[0]);
            self.diff_vmax.push((w.round(), diff.len() as u32, vmax));
        }
        for &m in &event.removed {
            let idxs = std::mem::take(&mut self.by_member[m as usize]);
            for idx in idxs {
                let row = &mut self.rows[idx as usize];
                if !row.alive {
                    continue;
                }
                row.alive = false;
                let (row_lca, row_dist) = (row.lca, row.dist);
                self.live_pairs -= 1;
                let c = &mut self.counts[row_lca as usize];
                c.all -= 1;
                if self.d > 0 && (row_dist as usize) < self.d {
                    c.violating -= 1;
                    self.violating_pairs -= 1;
                }
                if c.all == 0 {
                    self.stale += 1;
                }
            }
        }
        let survivors = w.members().len() - 1;
        for i in 0..survivors {
            let m = w.members()[i];
            self.push_pair(w, m, event.lca)?;
        }
        Ok(event)
    }
}

impl MergeFrontier<f64> {
    /// Lazy exact selection for the Max-Avg (`SolutionAvg`) rule.
    ///
    /// The score is `score(c) = avg(T ∪ cov(c))`. When the coverage grows
    /// by a diff Δ, the union only gains tuples from Δ, and an average
    /// never exceeds the maximum of its parts, so
    /// `score'(c) ≤ max(score(c), max val ∈ Δ)` — and tuples are
    /// rank-sorted, so the diff's value cap is an O(1) read. Chaining over
    /// epochs (the per-LCA `caps` extension) yields a sound upper bound on
    /// every stale score. Selection scans candidates in bound order and
    /// stops as soon as the bound falls *strictly* below the best exact
    /// score found, so only the near-top LCAs are ever refreshed.
    ///
    /// Exactness: the bound is inflated by a relative margin that dominates
    /// the accumulated float rounding of the underlying sums (and skipping
    /// requires strict inferiority), so no candidate that could equal the
    /// maximum is ever skipped — ties still resolve through
    /// `cmp_for_ties`, and the selected LCA is byte-identical to the
    /// exhaustive scan and the per-round re-evaluation oracle.
    pub fn select_max_avg(
        &mut self,
        w: &WorkingSet<'_>,
        phase: FrontierPhase,
        evaluator: &mut Evaluator,
    ) -> Result<Option<CandId>> {
        self.compact_distinct();
        let epoch = w.round();
        // Safety margin: relative rounding of an n-term sum is ≤ n·ε, with
        // generous headroom (exactly 0 for dyadic values, where sums are
        // exact). The absolute floor is scaled by the value range so a
        // chained bound that cancels to ≈ 0 still gets real inflation
        // (every intermediate term is bounded by the extreme |val|, and
        // values are rank-sorted, so the extremes are the endpoints). A
        // conservative bound only costs an extra refresh.
        let margin = 16.0 * w.answers().len() as f64 * f64::EPSILON + 1e-12;
        let vals = w.answers().vals();
        let scale = 1.0
            + vals
                .first()
                .map(|v| v.abs())
                .unwrap_or(0.0)
                .max(vals.last().map(|v| v.abs()).unwrap_or(0.0));
        let inflate = |u: f64| u + (u.abs() + scale) * margin;
        let sum_t = w.sum();
        let n_t = w.covered_count();
        let mut cands: Vec<(f64, CandId)> = Vec::with_capacity(self.distinct.len());
        for i in 0..self.distinct.len() {
            let lca = self.distinct[i];
            let counts = &self.counts[lca as usize];
            let eligible = match phase {
                FrontierPhase::Violating => counts.violating > 0,
                FrontierPhase::All => counts.all > 0,
            };
            if !eligible {
                continue;
            }
            let u = match self.scores[lca as usize] {
                // Exact score at the current epoch: the "bound" is the
                // score itself, no margin needed.
                Some((e, s)) if e == epoch => s,
                Some(_) => {
                    let (cap_epoch, mut u, n) = self.caps[lca as usize];
                    if u.is_finite() && cap_epoch < epoch {
                        // Chain the bound over the coverage-growing rounds
                        // since it was last extended: absorbing at most
                        // `len` tuples each valued ≤ `vmax` into a union of
                        // size ≥ n with average ≤ u caps the new average at
                        // (n·u + len·vmax)/(n + len). The union only ever
                        // grows, so the stale lower-bound size n keeps the
                        // bound sound (the cap decreases in n).
                        let start = self
                            .diff_vmax
                            .partition_point(|&(de, _, _)| de <= cap_epoch);
                        let nf = n as f64;
                        for &(_, len, vmax) in &self.diff_vmax[start..] {
                            if vmax > u {
                                let lf = len as f64;
                                u = (nf * u + lf * vmax) / (nf + lf);
                            }
                        }
                        self.caps[lca as usize] = (epoch, u, n);
                    }
                    inflate(u)
                }
                None => {
                    // Never scored: a static bound from the LCA's
                    // whole-coverage stats. The score is
                    // avg(T ∪ cov) = (S_T + sum_cov − σ)/(N_T + |cov| − k)
                    // where k tuples of cov are already covered with value
                    // sum σ ≥ k·vmin; maximizing over k (the derivative's
                    // sign is constant) lands on k = 0 or
                    // k = min(|cov|, N_T), both O(1). A hopeless wide
                    // generalization is thus skipped without ever
                    // computing its marginal.
                    let (cov_sum, cov_cnt, vmin) = self.lca_static[lca as usize];
                    let a = sum_t + cov_sum;
                    let b = (n_t + cov_cnt as usize) as f64;
                    let k = cov_cnt.min(n_t as u32) as f64;
                    inflate((a / b).max((a - k * vmin) / (b - k)))
                }
            };
            cands.push((u, lca));
        }
        // Pop candidates bound-descending from a max-heap — only the few
        // near-top entries are ever popped, so heapify-then-pop beats a
        // full sort. The total order on f64 bits is fine here: bounds are
        // never NaN, and the scan order never changes the outcome (the
        // exact maximum is unique).
        let mut heap: std::collections::BinaryHeap<(u64, CandId)> = cands
            .iter()
            .map(|&(u, lca)| (f64_desc_key(u), lca))
            .collect();
        let mut best: Option<(f64, CandId)> = None;
        while let Some((key, lca)) = heap.pop() {
            let u = f64_from_desc_key(key);
            if let Some((best_score, _)) = best {
                if u < best_score {
                    // Heap pops bound-descending: every remaining
                    // candidate is strictly below the best exact score.
                    break;
                }
            }
            let s = match self.scores[lca as usize] {
                Some((e, s)) if e == epoch => s,
                _ => {
                    let (dsum, dcnt) = evaluator.marginal(w, lca);
                    let s = w.avg_after(dsum, dcnt);
                    self.scores[lca as usize] = Some((epoch, s));
                    // Fresh bound state: the score itself, over the exact
                    // union size |T ∪ cov(c)|.
                    self.caps[lca as usize] = (epoch, s, w.covered_count() as u32 + dcnt);
                    s
                }
            };
            let replace = match &best {
                None => true,
                Some((best_score, best_lca)) => {
                    s > *best_score
                        || (s == *best_score
                            && w.index()
                                .pattern(lca)
                                .cmp_for_ties(w.index().pattern(*best_lca))
                                == std::cmp::Ordering::Less)
                }
            };
            if replace {
                best = Some((s, lca));
            }
        }
        Ok(best.map(|(_, lca)| lca))
    }
}

/// One frontier-driven selection-and-merge round under a [`GreedyRule`] —
/// the engine behind [`crate::run_phases`]. Returns the applied merge's
/// event, or `None` when the phase has no pair left to merge.
pub fn frontier_round(
    frontier: &mut MergeFrontier<f64>,
    w: &mut WorkingSet<'_>,
    phase: FrontierPhase,
    evaluator: &mut Evaluator,
    rule: GreedyRule,
) -> Result<Option<MergeEvent>> {
    let selected = match rule {
        GreedyRule::SolutionAvg => frontier.select_max_avg(w, phase, evaluator)?,
        GreedyRule::PairAvg => frontier.select(
            w,
            phase,
            &mut |w, lca| Ok(w.index().info(lca).avg()),
            |a, b| a > b,
        )?,
    };
    match selected {
        Some(lca) => frontier.apply(w, lca).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::working::EvalMode;
    use qagview_lattice::{AnswerSet, AnswerSetBuilder, CandidateIndex};

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        b.push(&["x", "p"], 4.0).unwrap();
        b.push(&["x", "q"], 3.0).unwrap();
        b.push(&["y", "p"], 2.0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn frontier_tracks_pairs_and_distinct_lcas() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let frontier: MergeFrontier<f64> = MergeFrontier::new(&w, 2).unwrap();
        assert_eq!(frontier.pair_count(), 3);
        assert_eq!(frontier.distinct_lca_count(), 3);
        // Distances: (x,p)-(x,q) = 1, (x,p)-(y,p) = 1, (x,q)-(y,p) = 2.
        assert_eq!(frontier.violating_count(), 2);
        let no_distance: MergeFrontier<f64> = MergeFrontier::new(&w, 0).unwrap();
        assert_eq!(no_distance.violating_count(), 0);
    }

    #[test]
    fn zero_new_coverage_round_makes_zero_marginal_evaluations() {
        // All three tuples are top-L, so every LCA's marginal is empty and
        // every merge is coverage-neutral. Round 1 scores the 3 distinct
        // LCAs; the applied merge (x,*) keeps the coverage version
        // unchanged and the one new pair's LCA — lca((x,*), (y,p)) =
        // (*,*) — was already scored, so round 2 asks for nothing.
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut evaluator = Evaluator::new(EvalMode::Delta);
        let mut frontier: MergeFrontier<f64> = MergeFrontier::new(&w, 0).unwrap();

        let event = frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::All,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )
        .unwrap()
        .expect("a merge applies");
        assert_eq!(evaluator.eval_calls(), 3, "3 distinct LCAs scored once");
        assert!(!event.new_coverage, "top-L coverage cannot grow");
        assert_eq!(
            s.pattern_to_string(idx.pattern(event.lca)),
            "(x, *)",
            "ties broke to the smallest LCA pattern"
        );

        let before = evaluator.eval_calls();
        frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::All,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )
        .unwrap()
        .expect("final merge applies");
        assert_eq!(
            evaluator.eval_calls(),
            before,
            "coverage-neutral round with a known LCA re-evaluates nothing"
        );
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn coverage_growth_invalidates_cached_scores() {
        // The best merge, (*, p), absorbs the redundant (w, p) for
        // 10.5/4 = 2.625, beating (*, *) at 11.5/5 = 2.3. The applied
        // merge advances the coverage version, so the next round must
        // re-score its (previously seen) LCA.
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        b.push(&["x", "p"], 4.0).unwrap();
        b.push(&["y", "q"], 3.0).unwrap();
        b.push(&["z", "p"], 2.0).unwrap();
        b.push(&["w", "p"], 1.5).unwrap();
        b.push(&["x", "q"], 1.0).unwrap();
        let s = b.finish().unwrap();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut evaluator = Evaluator::new(EvalMode::Delta);
        let mut frontier: MergeFrontier<f64> = MergeFrontier::new(&w, 0).unwrap();

        let event = frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::All,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )
        .unwrap()
        .unwrap();
        assert_eq!(s.pattern_to_string(idx.pattern(event.lca)), "(*, p)");
        assert!(event.new_coverage, "absorbed the redundant (w, p)");
        let before = evaluator.eval_calls();
        frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::All,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )
        .unwrap()
        .unwrap();
        assert!(
            evaluator.eval_calls() > before,
            "stale scores must be re-evaluated after coverage growth"
        );
    }

    #[test]
    fn pair_avg_rule_needs_no_marginals() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut evaluator = Evaluator::new(EvalMode::Delta);
        let mut frontier: MergeFrontier<f64> = MergeFrontier::new(&w, 0).unwrap();
        while w.len() > 1 {
            frontier_round(
                &mut frontier,
                &mut w,
                FrontierPhase::All,
                &mut evaluator,
                GreedyRule::PairAvg,
            )
            .unwrap()
            .unwrap();
        }
        assert_eq!(evaluator.eval_calls(), 0);
    }
}
