//! Candidate-cluster generation and cluster→tuple mapping (paper §6.3).
//!
//! Rather than materializing the full cluster space `∏ᵢ (Dᵢ ∪ {∗})`, the
//! paper generates exactly the clusters that can ever appear in a solution:
//! the ancestors of the top-`L` tuples (each top-`L` tuple has `2^m`
//! generalizations). This set is closed under the `Merge` operation — the
//! LCA of two ancestors of top-`L` tuples covers a top-`L` tuple, hence is
//! itself such an ancestor — so one generation pass serves a whole run, and
//! *all* `(k, D)` combinations during precomputation (§6.2).
//!
//! The set is also closed under generalization, so a candidate's coverage
//! derives from its parent's, one attribute at a time (as Smart Drill-Down
//! refines a rule). [`CandidateIndex::build`] generates every candidate but
//! derives coverage only on a candidate's first [`CandidateIndex::info`]:
//! a full plane build reads the coverage of a few percent of them. The
//! naive per-candidate scan, [`CandidateIndex::build_naive`], fills every
//! coverage eagerly; it is the Fig. 8(a) ablation's slow arm (paper:
//! 100×–1000× slower) and the derivation's test oracle.

use crate::answers::{AnswerSet, TupleId};
use crate::pattern::{Pattern, STAR};
use qagview_common::{FixedBitSet, FxHashMap, QagError, Result};
use std::sync::OnceLock;

/// Dense identifier of a candidate cluster inside a [`CandidateIndex`].
pub type CandId = u32;

/// A candidate covering at least `n / DENSE_COVERAGE_DIVISOR` tuples also
/// carries a bitset coverage representation, so marginal evaluation can use
/// the fused word-level kernels instead of walking the id list. The
/// threshold sits where one coverage word holds an expected hit (1/64
/// density): from there on a branch-free word walk with zero-word skip
/// beats per-id probes, and — just as important for the merge-frontier
/// descents — the Delta-Judgment refresh gets an O(1) bitset probe per
/// diff tuple instead of a list merge.
pub const DENSE_COVERAGE_DIVISOR: usize = 64;

/// A candidate cluster with its coverage over all of `S`.
#[derive(Debug, Clone)]
pub struct CandidateInfo {
    /// The cluster pattern.
    pub pattern: Pattern,
    /// Ids of covered tuples, ascending (== descending-value rank order).
    pub cov: Vec<TupleId>,
    /// Sum of `val` over the covered tuples.
    pub sum: f64,
    /// Bitset view of `cov`, present only for dense candidates (see
    /// [`DENSE_COVERAGE_DIVISOR`]). Always consistent with `cov`.
    pub cov_bits: Option<FixedBitSet>,
}

impl CandidateInfo {
    /// Number of covered tuples.
    pub fn count(&self) -> usize {
        self.cov.len()
    }

    /// Average value of covered tuples (`avg(C)` in §4.1).
    pub fn avg(&self) -> f64 {
        if self.cov.is_empty() {
            0.0
        } else {
            self.sum / self.cov.len() as f64
        }
    }
}

/// The candidate-cluster index for one `(S, L)` pair.
///
/// Shared across threads (the per-`D` descents run in parallel), each
/// candidate's coverage is memoized in a once-cell: concurrent first
/// touches of one candidate block on a single derivation, and since a
/// derivation only waits on its ancestors, first touches cannot deadlock.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    m: usize,
    l: usize,
    n: usize,
    map: FxHashMap<Pattern, CandId>,
    patterns: Vec<Pattern>,
    infos: Vec<OnceLock<CandidateInfo>>,
    postings: Postings,
}

/// What coverage derivation reads of the answer relation: its codes and
/// scores, and the ascending tuple ids of every `(attribute, code)`, with a
/// bitset for postings that are dense by the [`DENSE_COVERAGE_DIVISOR`]
/// rule.
#[derive(Debug, Clone)]
struct Postings {
    codes: Vec<u32>,
    vals: Vec<f64>,
    /// `lists[a][c]`: the tuples holding code `c` at attribute `a`.
    lists: Vec<Vec<(Option<FixedBitSet>, Vec<TupleId>)>>,
}

impl Postings {
    /// One O(m·n) pass over `S`.
    fn new(answers: &AnswerSet) -> Self {
        let (m, n) = (answers.arity(), answers.len());
        let mut ids: Vec<Vec<Vec<TupleId>>> = (0..m)
            .map(|a| vec![Vec::new(); answers.domain_size(a)])
            .collect();
        for (t, codes, _) in answers.iter() {
            for (a, &c) in codes.iter().enumerate() {
                ids[a][c as usize].push(t);
            }
        }
        let lists = ids
            .into_iter()
            .map(|per_code| {
                per_code
                    .into_iter()
                    .map(|ids| (dense_bits(n, &ids), ids))
                    .collect()
            })
            .collect();
        Postings {
            codes: answers.codes().to_vec(),
            vals: answers.vals().to_vec(),
            lists,
        }
    }
}

impl CandidateIndex {
    /// Build with the §6.3 optimization (default path): generate every
    /// candidate and the relation's postings; each candidate's coverage is
    /// derived on its first [`CandidateIndex::info`].
    ///
    /// # Errors
    ///
    /// * [`QagError::InvalidParameter`] if `l` is zero or exceeds `n`, or if
    ///   `m` is too large for eager enumeration.
    pub fn build(answers: &AnswerSet, l: usize) -> Result<Self> {
        let m = answers.arity();
        if l == 0 || l > answers.len() {
            return Err(QagError::param(format!(
                "coverage parameter L={l} must be in 1..={}",
                answers.len()
            )));
        }
        if m > 20 {
            return Err(QagError::param(format!(
                "eager candidate generation supports at most 20 grouping attributes, got {m}"
            )));
        }
        let mut map: FxHashMap<Pattern, CandId> = FxHashMap::default();
        let mut patterns: Vec<Pattern> = Vec::new();
        for t in 0..l as u32 {
            Pattern::for_each_generalization(answers.tuple(t), |slots| {
                // Probe with the scratch slice; allocate only on first sight.
                if !map.contains_key(slots) {
                    let p = Pattern::new(slots.to_vec());
                    map.insert(p.clone(), patterns.len() as CandId);
                    patterns.push(p);
                }
            });
        }
        Ok(CandidateIndex {
            m,
            l,
            n: answers.len(),
            map,
            infos: (0..patterns.len()).map(|_| OnceLock::new()).collect(),
            patterns,
            postings: Postings::new(answers),
        })
    }

    /// Build with the naive per-candidate scan, filling every coverage
    /// eagerly (Fig. 8(a) ablation and test oracle).
    ///
    /// Produces byte-identical results to [`CandidateIndex::build`].
    pub fn build_naive(answers: &AnswerSet, l: usize) -> Result<Self> {
        let index = Self::build(answers, l)?;
        for (pattern, cell) in index.patterns.iter().zip(&index.infos) {
            let mut info = CandidateInfo {
                pattern: pattern.clone(),
                cov: Vec::new(),
                sum: 0.0,
                cov_bits: None,
            };
            for (t, codes, v) in answers.iter() {
                if pattern.covers_tuple(codes) {
                    info.cov.push(t);
                    info.sum += v;
                }
            }
            info.cov_bits = dense_bits(index.n, &info.cov);
            cell.set(info).expect("a fresh index has no coverage yet");
        }
        Ok(index)
    }

    /// Derive a candidate's coverage from its parent, itself with its last
    /// fixed attribute `a = c` starred (the all-`∗` root covers `0..n`), by
    /// keeping the parent's tuples with `c` at `a`:
    ///
    /// * dense parent and posting: the AND of their bitsets, which a dense
    ///   child keeps as its `cov_bits`;
    /// * dense parent, sparse posting: the posting ids set in the parent;
    /// * sparse parent: the parent ids holding `c` at `a`.
    ///
    /// Only the AND can yield a dense child. Sums accumulate over ascending
    /// ids from `0.0`, so coverage, sums (to the f64 bit) and `cov_bits` are
    /// identical to [`CandidateIndex::build_naive`].
    #[cold]
    fn derive(&self, id: CandId) -> CandidateInfo {
        let (n, pattern) = (self.n, &self.patterns[id as usize]);
        let (cov_bits, cov) = match pattern.slots().iter().rposition(|&s| s != STAR) {
            None => {
                let cov: Vec<TupleId> = (0..n as TupleId).collect();
                (dense_bits(n, &cov), cov)
            }
            Some(a) => {
                let mut slots = pattern.slots().to_vec();
                let c = std::mem::replace(&mut slots[a], STAR);
                let parent_id = self
                    .id_of_slots(&slots)
                    .expect("candidates are closed under generalization");
                let parent = self.info(parent_id);
                match (&parent.cov_bits, &self.postings.lists[a][c as usize]) {
                    (Some(pb), (Some(qb), _)) => {
                        let words = (pb.as_words().iter().zip(qb.as_words()))
                            .map(|(x, y)| x & y)
                            .collect();
                        let bits = FixedBitSet::from_words(n, words)
                            .expect("an AND of two n-bit sets has n bits");
                        let mut cov = Vec::with_capacity(bits.count_ones());
                        cov.extend(bits.iter_ones().map(|t| t as TupleId));
                        (Some(bits).filter(|_| is_dense(cov.len(), n)), cov)
                    }
                    (Some(pb), (None, ids)) => (None, filter_ids(ids, |t| pb.contains(t as usize))),
                    (None, _) => {
                        let codes = &self.postings.codes;
                        let keep = |t: TupleId| codes[t as usize * self.m + a] == c;
                        (None, filter_ids(&parent.cov, keep))
                    }
                }
            }
        };
        debug_assert_eq!(cov_bits.is_some(), is_dense(cov.len(), n));
        let vals = &self.postings.vals;
        CandidateInfo {
            pattern: pattern.clone(),
            sum: cov.iter().fold(0.0, |s, &t| s + vals[t as usize]),
            cov,
            cov_bits,
        }
    }

    /// Number of tuples in the answer relation this index was built over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of grouping attributes.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// The `L` this index was built for.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of candidate clusters.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the index is empty (only possible for an empty `S`).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Id of a pattern, if it is a candidate.
    pub fn id_of(&self, p: &Pattern) -> Option<CandId> {
        self.map.get(p).copied()
    }

    /// Id of a pattern, or an internal error (the candidate set is closed
    /// under LCA of ancestors of top-`L` tuples, so algorithm-internal
    /// lookups must never miss).
    pub fn require(&self, p: &Pattern) -> Result<CandId> {
        self.id_of(p).ok_or_else(|| {
            QagError::internal(format!("pattern {:?} missing from candidate index", p))
        })
    }

    /// Id of the pattern with these raw slots, probing the candidate map
    /// allocation-free (patterns `Borrow<[u32]>`, see [`Pattern`]). This is
    /// the merge-frontier engine's probe: LCA slots are computed into a
    /// reusable scratch buffer and looked up without building a `Pattern`.
    pub fn id_of_slots(&self, slots: &[u32]) -> Option<CandId> {
        self.map.get(slots).copied()
    }

    /// Like [`CandidateIndex::require`], but for raw slots (allocation-free).
    pub fn require_slots(&self, slots: &[u32]) -> Result<CandId> {
        self.id_of_slots(slots).ok_or_else(|| {
            QagError::internal(format!("pattern {slots:?} missing from candidate index"))
        })
    }

    /// A candidate's pattern. Unlike [`CandidateIndex::info`], this never
    /// derives coverage, so reads that need only the pattern (distances,
    /// LCAs, tie-breaks) keep the index lazy.
    #[inline]
    pub fn pattern(&self, id: CandId) -> &Pattern {
        &self.patterns[id as usize]
    }

    /// Candidate info by id, deriving its coverage on first touch.
    #[inline]
    pub fn info(&self, id: CandId) -> &CandidateInfo {
        self.infos[id as usize].get_or_init(|| self.derive(id))
    }

    /// Iterate over `(CandId, &CandidateInfo)`, deriving every coverage.
    pub fn iter(&self) -> impl Iterator<Item = (CandId, &CandidateInfo)> {
        (0..self.len() as CandId).map(|id| (id, self.info(id)))
    }

    /// How many candidates have their coverage derived so far.
    pub fn materialized(&self) -> usize {
        self.infos
            .iter()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

/// The ids `keep` accepts. Every id is stored and only accepted ones
/// advance the cursor, so an unpredictable `keep` costs no branch misses.
fn filter_ids(ids: &[TupleId], keep: impl Fn(TupleId) -> bool) -> Vec<TupleId> {
    let mut out = vec![0; ids.len()];
    let mut kept = 0;
    for &t in ids {
        out[kept] = t;
        kept += usize::from(keep(t));
    }
    out.truncate(kept);
    out
}

/// The [`DENSE_COVERAGE_DIVISOR`] rule: whether `count` of `n` tuples is
/// dense enough to carry a bitset.
fn is_dense(count: usize, n: usize) -> bool {
    count * DENSE_COVERAGE_DIVISOR >= n && count > 0
}

/// The bitset of ascending `ids` over `0..n`, if they are dense.
fn dense_bits(n: usize, ids: &[TupleId]) -> Option<FixedBitSet> {
    is_dense(ids.len(), n).then(|| FixedBitSet::from_ids(n, ids.iter().map(|&t| t as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::AnswerSetBuilder;

    fn sample() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        b.push(&["x", "p", "1"], 5.0).unwrap();
        b.push(&["x", "q", "1"], 4.0).unwrap();
        b.push(&["y", "p", "2"], 3.0).unwrap();
        b.push(&["y", "q", "2"], 2.0).unwrap();
        b.push(&["x", "p", "2"], 1.0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn candidate_count_for_single_top_tuple() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 1).unwrap();
        // One top tuple over m=3 attributes: 2^3 = 8 ancestors.
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.l(), 1);
        assert_eq!(idx.arity(), 3);
    }

    #[test]
    fn coverage_lists_cover_all_of_s_not_just_top_l() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 2).unwrap();
        // (x, *, *) is an ancestor of both top tuples and covers rank 4 too.
        let x = s.code_of(0, "x").unwrap();
        let p = Pattern::new(vec![x, STAR, STAR]);
        let id = idx.id_of(&p).expect("candidate present");
        let info = idx.info(id);
        assert_eq!(info.cov, vec![0, 1, 4]);
        assert!((info.sum - 10.0).abs() < 1e-12);
        assert!((info.avg() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_star_candidate_covers_everything() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let id = idx.id_of(&Pattern::all_star(3)).unwrap();
        assert_eq!(idx.info(id).count(), s.len());
    }

    #[test]
    fn naive_build_matches_indexed_build() {
        let s = sample();
        let fast = CandidateIndex::build(&s, 4).unwrap();
        let slow = CandidateIndex::build_naive(&s, 4).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (_, info) in fast.iter() {
            let sid = slow.id_of(&info.pattern).expect("same candidate set");
            let sinfo = slow.info(sid);
            assert_eq!(
                info.cov, sinfo.cov,
                "coverage differs for {:?}",
                info.pattern
            );
            assert!((info.sum - sinfo.sum).abs() < 1e-9);
        }
    }

    #[test]
    fn closure_under_lca() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 3).unwrap();
        let pats: Vec<Pattern> = idx.iter().map(|(_, i)| i.pattern.clone()).collect();
        for a in &pats {
            for b in &pats {
                let l = a.lca(b);
                // LCA of two candidates covering top-L tuples is a candidate
                // iff it covers a top-L tuple; ancestors of candidates that
                // themselves cover a top-L tuple always do.
                if (0..3u32).any(|t| l.covers_tuple(s.tuple(t))) {
                    assert!(idx.id_of(&l).is_some(), "LCA {l:?} missing");
                }
            }
        }
    }

    #[test]
    fn coverage_matches_full_scan() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 5).unwrap();
        for (_, info) in idx.iter() {
            let (ids, sum) = s.scan_coverage(&info.pattern);
            assert_eq!(info.cov, ids);
            assert!((info.sum - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn l_bounds_validated() {
        let s = sample();
        assert!(CandidateIndex::build(&s, 0).is_err());
        assert!(CandidateIndex::build(&s, 6).is_err());
        assert!(CandidateIndex::build(&s, 5).is_ok());
    }

    #[test]
    fn walk_build_matches_naive_exactly() {
        let s = sample();
        for l in 1..=5 {
            let fast = CandidateIndex::build(&s, l).unwrap();
            let slow = CandidateIndex::build_naive(&s, l).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (id, info) in fast.iter() {
                let sinfo = slow.info(id);
                assert_eq!(info.pattern, sinfo.pattern);
                assert_eq!(info.cov, sinfo.cov);
                assert_eq!(
                    info.sum.to_bits(),
                    sinfo.sum.to_bits(),
                    "sums must be byte-identical"
                );
                assert_eq!(info.cov_bits, sinfo.cov_bits);
            }
        }
    }

    #[test]
    fn dense_candidates_carry_consistent_bitsets() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 5).unwrap();
        let mut saw_dense = false;
        for (_, info) in idx.iter() {
            if let Some(bits) = &info.cov_bits {
                saw_dense = true;
                assert_eq!(bits.len(), s.len());
                assert_eq!(bits.count_ones(), info.cov.len());
                let ids: Vec<u32> = bits.iter_ones().map(|i| i as u32).collect();
                assert_eq!(ids, info.cov);
            } else {
                // Sparse candidates must genuinely be below the threshold.
                assert!(info.cov.len() * DENSE_COVERAGE_DIVISOR < s.len() || info.cov.is_empty());
            }
        }
        assert!(saw_dense, "the all-star candidate is always dense");
    }

    #[test]
    fn coverage_is_derived_on_first_touch() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 5).unwrap();
        assert_eq!(idx.materialized(), 0);
        let leaf = idx.id_of(&s.singleton(0)).unwrap();
        assert_eq!(idx.pattern(leaf), &s.singleton(0));
        assert_eq!(idx.materialized(), 0, "a pattern read derives nothing");
        assert_eq!(idx.info(leaf).cov, vec![0]);
        // The leaf and its parent chain up to the all-∗ root: m + 1 cells.
        assert_eq!(idx.materialized(), 4);
        assert_eq!(idx.iter().count(), idx.len());
        assert_eq!(idx.materialized(), idx.len());
    }

    #[test]
    fn require_reports_missing_pattern() {
        let s = sample();
        let idx = CandidateIndex::build(&s, 1).unwrap();
        // (y, *, *) is not an ancestor of the single top tuple (x, p, 1).
        let y = s.code_of(0, "y").unwrap();
        let missing = Pattern::new(vec![y, STAR, STAR]);
        assert!(idx.require(&missing).is_err());
    }
}
