//! The mutable working solution shared by all greedy algorithms.
//!
//! [`WorkingSet`] maintains the state every algorithm in §5 manipulates:
//! the current cluster set `O` (as candidate ids), the union coverage
//! `T = cov(O)` (bitset over tuple ids), and the running `(sum, count)` of
//! the Max-Avg objective. The only mutation primitives are the paper's:
//!
//! * absorbing a new cluster's coverage (`add_candidate`), and
//! * the `Merge(O, C1, C2)` procedure (§5.1): replace two clusters by their
//!   LCA and evict every cluster the LCA covers.
//!
//! Both primitives record the *coverage diff* of the round they complete —
//! the `T_i \ T_{i-1}` list that the Delta-Judgment cache (Algorithm 2,
//! [`crate::delta`]) consumes.

use crate::delta::DeltaCache;
use qagview_common::{FixedBitSet, QagError, Result};
use qagview_lattice::{AnswerSet, CandId, CandidateIndex, Pattern, TupleId};

/// How greedy steps evaluate the marginal benefit of a candidate merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Recompute `cov(c) \ T` from the coverage bitset every time (the
    /// paper's naive baseline for Fig. 8(b)).
    Naive,
    /// Algorithm 2: cache per-candidate marginals and refresh them against
    /// the last round's coverage diff (30× reported speed-up).
    #[default]
    Delta,
    /// Explicitly-approximate evaluation: every marginal is a fresh fused
    /// scan through the 4-way-accumulator kernel
    /// (`WorkingSet::marginal_fused_relaxed`, `relaxed-kernels`
    /// feature), whose sums match the strict path within a documented
    /// `1e-9` relative tolerance — never bit-for-bit. Only the
    /// progressive pipeline's *approximate* plane builds select this
    /// mode, where results already carry error bars that dwarf the
    /// kernel tolerance; byte-identity paths (exact plane builds, stored
    /// solutions, refinement) must keep using [`EvalMode::Delta`].
    /// Without the feature the mode falls back to the strict fused
    /// kernel, keeping the mode choice compile-safe.
    Relaxed,
}

/// A pending merge considered by a greedy step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSpec {
    /// Merge the members at these two positions (Bottom-Up style).
    Pair(usize, usize),
    /// Merge the member at this position with an external candidate
    /// (Fixed-Order style: the incoming top-`L` element).
    External(usize, CandId),
}

/// Greedy selection rule for [`greedy_apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GreedyRule {
    /// Maximize the post-merge solution average (`UpdateSolution` in
    /// Algorithm 1) — the paper's default.
    #[default]
    SolutionAvg,
    /// Maximize the merged cluster's own average `avg(LCA(C1, C2))` — the
    /// §5.1 variant reported as "comparable or worse".
    PairAvg,
}

/// Evaluator bundling the [`EvalMode`] with its Delta-Judgment cache.
///
/// `Clone` duplicates the cache state — the plane precomputation warms
/// one evaluator at the shared Fixed-Order state and clones it per
/// `D`-descent.
#[derive(Debug, Clone)]
pub struct Evaluator {
    mode: EvalMode,
    cache: DeltaCache,
    calls: u64,
}

impl Evaluator {
    /// Create an evaluator for `mode`.
    pub fn new(mode: EvalMode) -> Self {
        Evaluator {
            mode,
            cache: DeltaCache::new(),
            calls: 0,
        }
    }

    /// Marginal `(Σ val, count)` of `cov(id) \ T` for the working set `w`.
    pub fn marginal(&mut self, w: &WorkingSet<'_>, id: CandId) -> (f64, u32) {
        self.calls += 1;
        match self.mode {
            EvalMode::Naive => w.marginal_naive(id),
            EvalMode::Delta => self.cache.marginal(w, id),
            #[cfg(feature = "relaxed-kernels")]
            EvalMode::Relaxed => w.marginal_fused_relaxed(id),
            #[cfg(not(feature = "relaxed-kernels"))]
            EvalMode::Relaxed => w.marginal_fused(id),
        }
    }

    /// Number of marginal evaluations requested so far (Delta-cache hits
    /// included). The merge-frontier engine's score dedup/caching is
    /// measured by how few requests it makes: a zero-new-coverage round
    /// whose pairs all map to already-scored LCAs makes none at all.
    pub fn eval_calls(&self) -> u64 {
        self.calls
    }
}

/// What one applied merge did to the working set — produced by
/// [`WorkingSet::merge_by_lca`], consumed by the merge-frontier engine
/// ([`crate::merge_table`]) for incremental pair maintenance and by the
/// `(k, D)`-plane precomputation for cluster-lifetime bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeEvent {
    /// The merged cluster (the pair's LCA), now a member.
    pub lca: CandId,
    /// Members evicted by the merge (everything the LCA covers, including
    /// the merge endpoints), in pre-merge member order.
    pub removed: Vec<CandId>,
    /// Whether the merge absorbed tuples not previously covered. When
    /// `false`, no marginal in the system changed: the round is pure pair
    /// bookkeeping.
    pub new_coverage: bool,
}

/// The working solution `O` with Max-Avg bookkeeping.
#[derive(Debug, Clone)]
pub struct WorkingSet<'a> {
    answers: &'a AnswerSet,
    index: &'a CandidateIndex,
    members: Vec<CandId>,
    covered: FixedBitSet,
    sum: f64,
    round: u32,
    last_added: Vec<TupleId>,
    last_added_mask: FixedBitSet,
    scratch_added: Vec<TupleId>,
    scratch_mask: FixedBitSet,
    /// Concatenation of every version's diff, in version order (each
    /// version's segment ascending by tuple id). Bounded by the relation
    /// size — coverage only grows.
    diff_history: Vec<TupleId>,
    /// `diff_offsets[v]` = length of `diff_history` at version `v`, so the
    /// tuples added after version `v` are `diff_history[diff_offsets[v]..]`.
    diff_offsets: Vec<u32>,
}

impl<'a> WorkingSet<'a> {
    /// An empty working set.
    pub fn new(answers: &'a AnswerSet, index: &'a CandidateIndex) -> Self {
        WorkingSet {
            answers,
            index,
            members: Vec::new(),
            covered: FixedBitSet::new(answers.len()),
            sum: 0.0,
            round: 0,
            last_added: Vec::new(),
            last_added_mask: FixedBitSet::new(answers.len()),
            scratch_added: Vec::new(),
            scratch_mask: FixedBitSet::new(answers.len()),
            diff_history: Vec::new(),
            diff_offsets: vec![0],
        }
    }

    /// The Bottom-Up start state: the top-`L` singleton clusters (line 1 of
    /// Algorithm 1), where `L = index.l()`.
    pub fn with_top_l_singletons(
        answers: &'a AnswerSet,
        index: &'a CandidateIndex,
    ) -> Result<Self> {
        let mut w = WorkingSet::new(answers, index);
        for t in 0..index.l() as u32 {
            let id = index.require(&answers.singleton(t))?;
            w.add_candidate(id)?;
        }
        Ok(w)
    }

    /// The answer relation.
    pub fn answers(&self) -> &'a AnswerSet {
        self.answers
    }

    /// The candidate index.
    pub fn index(&self) -> &'a CandidateIndex {
        self.index
    }

    /// Current members (candidate ids) in insertion order.
    pub fn members(&self) -> &[CandId] {
        &self.members
    }

    /// Number of clusters in `O`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether `O` is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Pattern of the member at `position`.
    pub fn pattern(&self, position: usize) -> &Pattern {
        self.index.pattern(self.members[position])
    }

    /// The coverage version: how many rounds actually *grew* the coverage
    /// (the Delta-Judgment clock). A merge that absorbs nothing new leaves
    /// the version unchanged, so cached marginals stay exactly valid across
    /// it — this is what lets the merge-frontier engine skip whole rounds
    /// of re-evaluation.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Tuples newly covered by the most recent coverage-growing round
    /// (`T_i \ T_{i-1}` for the current version `i`). Unchanged across
    /// merges that absorb nothing.
    pub fn last_added(&self) -> &[TupleId] {
        &self.last_added
    }

    /// [`WorkingSet::last_added`] as a bitset over tuple ids, maintained
    /// word-parallel during absorption. The Delta-Judgment refresh
    /// intersects a dense candidate's coverage words against this mask —
    /// O(n/64) regardless of how large the round diff was.
    pub fn last_added_mask(&self) -> &FixedBitSet {
        &self.last_added_mask
    }

    /// Every tuple that entered the coverage after version `round`, in
    /// version order (each version's segment ascending by tuple id; the
    /// concatenation is *not* globally sorted). This is what lets the
    /// Delta-Judgment cache refresh an arbitrarily stale entry against
    /// exactly the tuples it is missing, instead of recomputing the whole
    /// marginal — the enabler for the merge-frontier's lazy selection,
    /// which deliberately leaves low-scoring candidates stale for many
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds the current version.
    pub fn added_since(&self, round: u32) -> &[TupleId] {
        &self.diff_history[self.diff_offsets[round as usize] as usize..]
    }

    /// Whether tuple `t` is covered by the union of current members.
    ///
    /// `t` must be a valid tuple id of this working set's answer relation;
    /// bounds are `debug_assert!`-checked only in the underlying bitset.
    pub fn is_tuple_covered(&self, t: TupleId) -> bool {
        self.covered.contains(t as usize)
    }

    /// Number of tuples covered (`|T|`).
    pub fn covered_count(&self) -> usize {
        self.covered.count_ones()
    }

    /// Sum of scores over covered tuples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Current Max-Avg objective value (0 for an empty coverage).
    pub fn avg(&self) -> f64 {
        let n = self.covered_count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Naive marginal: `(Σ val, count)` over `cov(id) \ T` by probing the
    /// candidate's coverage list against the bitset one tuple at a time.
    ///
    /// Kept verbatim as the Fig. 8(b) ablation baseline; production paths
    /// use [`WorkingSet::marginal_fused`].
    pub fn marginal_naive(&self, id: CandId) -> (f64, u32) {
        let info = self.index.info(id);
        let mut dsum = 0.0;
        let mut dcnt = 0u32;
        for &t in &info.cov {
            if !self.covered.contains(t as usize) {
                dsum += self.answers.val(t);
                dcnt += 1;
            }
        }
        (dsum, dcnt)
    }

    /// Fused marginal: `(Σ val, count)` over `cov(id) \ T`.
    ///
    /// Dense candidates evaluate with the word-level
    /// [`FixedBitSet::difference_count_sum`] kernel (64 tuples per word,
    /// scores read only for surviving bits); sparse candidates walk their
    /// short coverage list. Float accumulation order is ascending tuple id
    /// on both paths, so results are byte-identical to
    /// [`WorkingSet::marginal_naive`].
    pub fn marginal_fused(&self, id: CandId) -> (f64, u32) {
        let info = self.index.info(id);
        match &info.cov_bits {
            Some(bits) => bits.difference_count_sum(&self.covered, self.answers.vals()),
            None => self.marginal_naive(id),
        }
    }

    /// Relaxed fused marginal: [`WorkingSet::marginal_fused`] over the
    /// 4-way-accumulator kernel
    /// ([`FixedBitSet::difference_count_sum_relaxed`]), for the
    /// mid-coverage regime where the strict kernel's serial FP dependency
    /// chain dominates. The count is exact; the sum matches the strict
    /// path within the kernel's documented `1e-9` relative tolerance, not
    /// bit-for-bit — so this must never feed the byte-identity paths
    /// (greedy descents, plane builds, stored solutions). Sparse
    /// candidates fall through to the (exact) naive walk.
    #[cfg(feature = "relaxed-kernels")]
    pub fn marginal_fused_relaxed(&self, id: CandId) -> (f64, u32) {
        let info = self.index.info(id);
        match &info.cov_bits {
            Some(bits) => bits.difference_count_sum_relaxed(&self.covered, self.answers.vals()),
            None => self.marginal_naive(id),
        }
    }

    /// Marginal via the cheaper side: when most of a dense candidate's
    /// coverage is still uncovered, summing the (small) covered
    /// intersection and subtracting it from the candidate's stored total
    /// reads far fewer values than summing the (large) marginal directly.
    /// A word-level popcount pass picks the side first; the sparse path
    /// and the direct side fall through to [`WorkingSet::marginal_fused`].
    ///
    /// Results agree with the direct path up to float rounding of the
    /// subtraction (exact for dyadic values); the Delta-Judgment cache
    /// uses this for its full recomputations, where the value is about to
    /// be refreshed incrementally anyway.
    pub fn marginal_complement(&self, id: CandId) -> (f64, u32) {
        let info = self.index.info(id);
        let Some(bits) = &info.cov_bits else {
            return self.marginal_naive(id);
        };
        let mut inter = 0u32;
        for (&c, &t) in bits.as_words().iter().zip(self.covered.as_words()) {
            inter += (c & t).count_ones();
        }
        if (inter as usize) * 2 > info.cov.len() {
            // Covered side is the big one: sum the marginal directly.
            return bits.difference_count_sum(&self.covered, self.answers.vals());
        }
        let vals = self.answers.vals();
        let mut covered_sum = 0.0;
        for (wi, (&c, &t)) in bits
            .as_words()
            .iter()
            .zip(self.covered.as_words())
            .enumerate()
        {
            let mut x = c & t;
            while x != 0 {
                let i = wi * 64 + x.trailing_zeros() as usize;
                covered_sum += vals[i];
                x &= x - 1;
            }
        }
        (info.sum - covered_sum, info.cov.len() as u32 - inter)
    }

    /// Objective value after hypothetically absorbing a marginal.
    pub fn avg_after(&self, dsum: f64, dcnt: u32) -> f64 {
        let n = self.covered_count() + dcnt as usize;
        if n == 0 {
            0.0
        } else {
            (self.sum + dsum) / n as f64
        }
    }

    /// Add a candidate as a new cluster, absorbing its coverage.
    ///
    /// # Errors
    ///
    /// Returns an internal error if the candidate is already a member —
    /// callers are expected to have applied the skip/merge logic first.
    pub fn add_candidate(&mut self, id: CandId) -> Result<()> {
        if self.members.contains(&id) {
            return Err(QagError::internal("candidate already in the working set"));
        }
        self.absorb_coverage(id);
        self.members.push(id);
        Ok(())
    }

    /// The `Merge` procedure (§5.1) generalized to any two clusters: replace
    /// them by their LCA, evict every member the LCA covers, absorb the
    /// LCA's coverage. Returns the LCA's candidate id.
    ///
    /// `spec` positions refer to the member order *before* the merge.
    pub fn apply_merge(&mut self, spec: MergeSpec) -> Result<CandId> {
        let (pat_a, pat_b) = match spec {
            MergeSpec::Pair(i, j) => {
                if i == j || i >= self.members.len() || j >= self.members.len() {
                    return Err(QagError::internal("invalid merge pair positions"));
                }
                (self.pattern(i).clone(), self.pattern(j).clone())
            }
            MergeSpec::External(i, ext) => {
                if i >= self.members.len() {
                    return Err(QagError::internal("invalid merge position"));
                }
                (self.pattern(i).clone(), self.index.pattern(ext).clone())
            }
        };
        let lca = pat_a.lca(&pat_b);
        let lca_id = self.index.require(&lca)?;
        self.merge_by_lca(lca_id).map(|event| event.lca)
    }

    /// Apply a merge directly by its LCA candidate id: evict every member
    /// the LCA covers, absorb the LCA's coverage, push the LCA as a member.
    /// This is [`WorkingSet::apply_merge`] with the LCA already resolved —
    /// the merge-frontier engine resolves each pair's LCA exactly once and
    /// drives all merges through here — and it reports what happened as a
    /// [`MergeEvent`].
    pub fn merge_by_lca(&mut self, lca_id: CandId) -> Result<MergeEvent> {
        if (lca_id as usize) >= self.index.len() {
            return Err(QagError::internal("merge LCA id out of candidate range"));
        }
        let index = self.index;
        let lca = index.pattern(lca_id);
        // Evict every member covered by the LCA (this includes the merge
        // endpoints). Eviction cannot shrink coverage: cov(M) ⊆ cov(LCA)
        // for every evicted M.
        let mut removed = Vec::with_capacity(2);
        self.members.retain(|&m| {
            if lca.covers(index.pattern(m)) {
                removed.push(m);
                false
            } else {
                true
            }
        });
        let grew = self.absorb_coverage(lca_id);
        self.members.push(lca_id);
        Ok(MergeEvent {
            lca: lca_id,
            removed,
            new_coverage: grew,
        })
    }

    /// The LCA candidate of a pending merge, plus its evaluated objective.
    pub fn eval_merge(&self, spec: MergeSpec, evaluator: &mut Evaluator) -> Result<(CandId, f64)> {
        let (pat_a, pat_b) = match spec {
            MergeSpec::Pair(i, j) => (self.pattern(i), self.pattern(j)),
            MergeSpec::External(i, ext) => (self.pattern(i), self.index.pattern(ext)),
        };
        let lca = pat_a.lca(pat_b);
        let lca_id = self.index.require(&lca)?;
        let (dsum, dcnt) = evaluator.marginal(self, lca_id);
        Ok((lca_id, self.avg_after(dsum, dcnt)))
    }

    /// Member-index pairs at distance `< d` (the first-phase pair set `P_D`
    /// of Algorithm 1). Empty when `d == 0`.
    pub fn violating_pairs(&self, d: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if d == 0 {
            return out;
        }
        for i in 0..self.members.len() {
            for j in i + 1..self.members.len() {
                if self.pattern(i).distance(self.pattern(j)) < d {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// All member-index pairs (the second-phase pair set of Algorithm 1).
    pub fn all_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.members.len() * (self.members.len() - 1) / 2);
        for i in 0..self.members.len() {
            for j in i + 1..self.members.len() {
                out.push((i, j));
            }
        }
        out
    }

    /// Minimum pairwise distance among members (None for < 2 members).
    pub fn min_pairwise_distance(&self) -> Option<usize> {
        let patterns: Vec<Pattern> = self
            .members
            .iter()
            .map(|&m| self.index.pattern(m).clone())
            .collect();
        qagview_lattice::min_pairwise_distance(&patterns)
    }

    /// Freeze into a user-facing [`crate::Solution`] (clusters sorted by
    /// descending cluster average).
    pub fn to_solution(&self) -> crate::Solution {
        let mut clusters: Vec<crate::SolutionCluster> = self
            .members
            .iter()
            .map(|&m| {
                let info = self.index.info(m);
                crate::SolutionCluster {
                    pattern: info.pattern.clone(),
                    members: info.cov.clone(),
                    sum: info.sum,
                }
            })
            .collect();
        clusters.sort_by(|a, b| {
            b.avg()
                .partial_cmp(&a.avg())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.pattern.cmp_for_ties(&b.pattern))
        });
        crate::Solution {
            clusters,
            covered: self.covered_count(),
            sum: self.sum,
        }
    }

    /// Absorb `cov(id)` into the coverage, returning whether anything new
    /// was covered. The coverage version (`round`) and the version diff
    /// (`last_added`) advance only when coverage actually grew, so a no-op
    /// absorption keeps every round-stamped marginal cache entry valid.
    fn absorb_coverage(&mut self, id: CandId) -> bool {
        self.scratch_added.clear();
        self.scratch_mask.clear();
        let info = self.index.info(id);
        if let Some(bits) = &info.cov_bits {
            // Fused path: extract the round diff `cov \ T` word-by-word
            // (ascending, so sum accumulation order matches the per-tuple
            // loop), then fold the coverage in with a word-level union.
            // Each diff word doubles as a word of the diff mask.
            let vals = self.answers.vals();
            for (wi, (&c, &t)) in bits
                .as_words()
                .iter()
                .zip(self.covered.as_words())
                .enumerate()
            {
                let mut w = c & !t;
                if w == 0 {
                    continue;
                }
                self.scratch_mask.set_word(wi, w);
                while w != 0 {
                    let i = wi * 64 + w.trailing_zeros() as usize;
                    self.sum += vals[i];
                    self.scratch_added.push(i as TupleId);
                    w &= w - 1;
                }
            }
            self.covered.union_with(bits);
        } else {
            for &t in &info.cov {
                if self.covered.insert(t as usize) {
                    self.sum += self.answers.val(t);
                    self.scratch_added.push(t);
                    self.scratch_mask.insert(t as usize);
                }
            }
        }
        if self.scratch_added.is_empty() {
            return false;
        }
        std::mem::swap(&mut self.last_added, &mut self.scratch_added);
        std::mem::swap(&mut self.last_added_mask, &mut self.scratch_mask);
        self.diff_history.extend_from_slice(&self.last_added);
        self.diff_offsets.push(self.diff_history.len() as u32);
        self.round += 1;
        true
    }
}

/// One greedy `UpdateSolution` step: evaluate every spec, apply the best.
///
/// Selection maximizes the rule's score; ties break on the smaller LCA
/// pattern (level first, then lexicographic) and then on spec order, so
/// naive and delta evaluation choose identical merges.
///
/// Returns the id of the merged cluster, or `None` when `specs` is empty.
pub fn greedy_apply(
    w: &mut WorkingSet<'_>,
    specs: &[MergeSpec],
    evaluator: &mut Evaluator,
    rule: GreedyRule,
) -> Result<Option<CandId>> {
    let mut best: Option<(f64, &Pattern, MergeSpec)> = None;
    for &spec in specs {
        let (lca_id, solution_avg) = w.eval_merge(spec, evaluator)?;
        let score = match rule {
            GreedyRule::SolutionAvg => solution_avg,
            GreedyRule::PairAvg => w.index().info(lca_id).avg(),
        };
        let lca_pattern = w.index().pattern(lca_id);
        let better = match &best {
            None => true,
            Some((best_score, best_pat, _)) => {
                score > *best_score
                    || (score == *best_score
                        && lca_pattern.cmp_for_ties(best_pat) == std::cmp::Ordering::Less)
            }
        };
        if better {
            best = Some((score, lca_pattern, spec));
        }
    }
    match best {
        None => Ok(None),
        Some((_, _, spec)) => w.apply_merge(spec).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_lattice::AnswerSetBuilder;

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        b.push(&["x", "p", "1"], 8.0).unwrap();
        b.push(&["x", "q", "1"], 6.0).unwrap();
        b.push(&["y", "p", "2"], 4.0).unwrap();
        b.push(&["y", "q", "2"], 2.0).unwrap();
        b.push(&["x", "p", "2"], 1.0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn top_l_singletons_cover_exactly_top_l() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.covered_count(), 3);
        assert!((w.avg() - 6.0).abs() < 1e-12);
        assert!(w.is_tuple_covered(0) && w.is_tuple_covered(2));
        assert!(!w.is_tuple_covered(3));
    }

    #[test]
    fn merge_replaces_pair_with_lca_and_absorbs_redundant() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 2).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        // Merge (x,p,1) and (x,q,1) -> (x,*,1): coverage stays {0,1}.
        let lca = w.apply_merge(MergeSpec::Pair(0, 1)).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(s.pattern_to_string(idx.pattern(lca)), "(x, *, 1)");
        assert_eq!(w.covered_count(), 2);
        // Two coverage-growing adds; the merge absorbed nothing, so the
        // coverage version and its diff are unchanged.
        assert_eq!(w.round(), 2);
        assert_eq!(w.last_added(), &[1], "diff still the last growing round");
    }

    #[test]
    fn merge_by_lca_reports_event() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let members = w.members().to_vec();
        // LCA of positions 0 and 2 is (*, p, *), which newly covers tuple 4.
        let lca = w.pattern(0).lca(w.pattern(2));
        let lca_id = idx.require(&lca).unwrap();
        let event = w.merge_by_lca(lca_id).unwrap();
        assert_eq!(event.lca, lca_id);
        assert_eq!(event.removed, vec![members[0], members[2]]);
        assert!(event.new_coverage);
        assert_eq!(w.members().last(), Some(&lca_id));
        // A second, coverage-neutral merge reports no new coverage.
        let star = idx.require(&Pattern::all_star(3));
        if let Ok(star_id) = star {
            let before = w.covered_count();
            let event = w.merge_by_lca(star_id).unwrap();
            assert_eq!(w.covered_count() == before, !event.new_coverage);
        }
        assert!(
            w.merge_by_lca(u32::MAX).is_err(),
            "out-of-range id rejected"
        );
    }

    #[test]
    fn merge_with_redundant_pickup() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        // Merge (x,p,1) with (y,p,2) -> (*,p,*) which also covers rank-5
        // tuple (x,p,2): a redundant element gets picked up.
        let lca = w.apply_merge(MergeSpec::Pair(0, 2)).unwrap();
        assert_eq!(s.pattern_to_string(idx.pattern(lca)), "(*, p, *)");
        assert_eq!(w.covered_count(), 4);
        assert_eq!(w.last_added(), &[4]);
        // Sum now 8 + 6 + 4 + 1.
        assert!((w.sum() - 19.0).abs() < 1e-12);
    }

    #[test]
    fn merge_evicts_members_covered_by_lca() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 5).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        assert_eq!(w.len(), 5);
        // Merging ranks 1 and 4 gives (*,*,*)? No: (x,p,1) vs (y,q,2) ->
        // all-star. Every member is covered and evicted.
        let lca = w.apply_merge(MergeSpec::Pair(0, 3)).unwrap();
        assert_eq!(idx.pattern(lca), &Pattern::all_star(3));
        assert_eq!(w.len(), 1);
        assert_eq!(w.covered_count(), 5);
    }

    #[test]
    fn eval_merge_matches_apply() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut ev = Evaluator::new(EvalMode::Naive);
        let (lca_id, predicted) = w.eval_merge(MergeSpec::Pair(0, 2), &mut ev).unwrap();
        let applied = w.apply_merge(MergeSpec::Pair(0, 2)).unwrap();
        assert_eq!(lca_id, applied);
        assert!((w.avg() - predicted).abs() < 1e-12);
    }

    #[test]
    fn external_merge_uses_incoming_candidate() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 4).unwrap();
        let mut w = WorkingSet::new(&s, &idx);
        let t0 = idx.require(&s.singleton(0)).unwrap();
        w.add_candidate(t0).unwrap();
        let t1 = idx.require(&s.singleton(1)).unwrap();
        let lca = w.apply_merge(MergeSpec::External(0, t1)).unwrap();
        assert_eq!(s.pattern_to_string(idx.pattern(lca)), "(x, *, 1)");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn violating_and_all_pairs() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        assert_eq!(w.all_pairs().len(), 3);
        // Hamming distances: (0,1)=1 (attr b), (0,2)=3, (1,2)=3.
        assert_eq!(w.violating_pairs(2), vec![(0, 1)]);
        assert_eq!(w.violating_pairs(0), vec![]);
        assert_eq!(w.violating_pairs(4).len(), 3);
        assert_eq!(w.min_pairwise_distance(), Some(1));
    }

    #[test]
    fn greedy_apply_picks_highest_resulting_average() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut ev = Evaluator::new(EvalMode::Naive);
        // Candidates: merge(0,1) -> (x,*,1): avg (8+6+4)/3 = 6; merge(0,2)
        // -> (*,p,*): avg (8+6+4+1)/4 = 4.75; merge(1,2) -> all-star:
        // avg 21/5 = 4.2. Best is (0,1).
        let specs: Vec<MergeSpec> = w
            .all_pairs()
            .into_iter()
            .map(|(i, j)| MergeSpec::Pair(i, j))
            .collect();
        let merged = greedy_apply(&mut w, &specs, &mut ev, GreedyRule::SolutionAvg)
            .unwrap()
            .unwrap();
        assert_eq!(s.pattern_to_string(idx.pattern(merged)), "(x, *, 1)");
        assert!((w.avg() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_apply_pair_avg_rule_differs() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut ev = Evaluator::new(EvalMode::Naive);
        // Cluster averages: (x,*,1) = 7.0 ((8+6)/2); (*,p,*) = 13/3 ≈ 4.3;
        // all-star = 4.2. PairAvg also picks (x,*,1) here.
        let specs: Vec<MergeSpec> = w
            .all_pairs()
            .into_iter()
            .map(|(i, j)| MergeSpec::Pair(i, j))
            .collect();
        let merged = greedy_apply(&mut w, &specs, &mut ev, GreedyRule::PairAvg)
            .unwrap()
            .unwrap();
        assert_eq!(s.pattern_to_string(idx.pattern(merged)), "(x, *, 1)");
    }

    #[test]
    fn greedy_apply_empty_specs() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 2).unwrap();
        let mut w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut ev = Evaluator::new(EvalMode::Naive);
        assert!(greedy_apply(&mut w, &[], &mut ev, GreedyRule::SolutionAvg)
            .unwrap()
            .is_none());
    }

    #[test]
    fn duplicate_candidate_rejected() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 2).unwrap();
        let mut w = WorkingSet::new(&s, &idx);
        let id = idx.require(&s.singleton(0)).unwrap();
        w.add_candidate(id).unwrap();
        assert!(w.add_candidate(id).is_err());
    }

    #[test]
    fn to_solution_orders_clusters_by_avg() {
        let s = answers();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let sol = w.to_solution();
        assert_eq!(sol.len(), 3);
        assert!(sol.clusters[0].avg() >= sol.clusters[1].avg());
        assert!(sol.clusters[1].avg() >= sol.clusters[2].avg());
        assert_eq!(sol.covered, 3);
    }

    /// The explicitly-approximate evaluator mode answers every marginal
    /// with an exact count and a sum within the relaxed kernel's `1e-9`
    /// relative tolerance of the naive oracle — with the feature off it
    /// degenerates to the strict fused kernel and matches bit-for-bit.
    #[test]
    fn relaxed_eval_mode_tracks_naive_within_tolerance() {
        let s = answers();
        let idx = CandidateIndex::build(&s, s.len()).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut relaxed = Evaluator::new(EvalMode::Relaxed);
        for (id, _) in idx.iter() {
            let (nsum, ncnt) = w.marginal_naive(id);
            let (rsum, rcnt) = relaxed.marginal(&w, id);
            assert_eq!(ncnt, rcnt, "counts are exact in every mode");
            let scale = nsum.abs().max(1.0);
            assert!(
                (rsum - nsum).abs() <= 1e-9 * scale,
                "candidate {id}: relaxed-mode {rsum} vs naive {nsum}"
            );
        }
        assert!(relaxed.eval_calls() > 0);
    }

    /// Differential contract of the relaxed marginal against the strict
    /// path on a working set large enough to densify broad candidates:
    /// exact counts everywhere, dense sums within the kernel's documented
    /// `1e-9` relative tolerance, sparse candidates bit-identical (they
    /// share the exact naive walk).
    #[cfg(feature = "relaxed-kernels")]
    #[test]
    fn relaxed_marginal_matches_strict_within_tolerance() {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // 20 × 25 unique tuples with mixed-magnitude scores: star patterns
        // cover ~20-25 of 500 tuples, past the n/64 density threshold.
        for i in 0..20 {
            for j in 0..25 {
                let val = match next() % 3 {
                    0 => (next() % 1000) as f64 * 1e-6,
                    1 => (next() % 1000) as f64 * 1e3,
                    _ => (next() % 100_000) as f64 / 128.0,
                };
                b.push(&[&format!("a{i}"), &format!("b{j}")], val).unwrap();
            }
        }
        let s = b.finish().unwrap();
        let idx = CandidateIndex::build(&s, 300).unwrap();
        let w = WorkingSet::with_top_l_singletons(&s, &idx).unwrap();
        let mut dense_seen = 0usize;
        for (id, info) in idx.iter() {
            let (strict_sum, strict_cnt) = w.marginal_fused(id);
            let (relaxed_sum, relaxed_cnt) = w.marginal_fused_relaxed(id);
            assert_eq!(strict_cnt, relaxed_cnt, "counts are order-free");
            if info.cov_bits.is_some() {
                dense_seen += 1;
                let scale = strict_sum.abs().max(1.0);
                assert!(
                    (relaxed_sum - strict_sum).abs() <= 1e-9 * scale,
                    "dense candidate {id}: relaxed {relaxed_sum} vs strict {strict_sum}"
                );
            } else {
                assert_eq!(
                    strict_sum.to_bits(),
                    relaxed_sum.to_bits(),
                    "sparse candidate {id} shares the exact naive walk"
                );
            }
        }
        assert!(dense_seen > 0, "test must exercise the dense kernel");
    }
}
