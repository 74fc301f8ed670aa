//! Exact reference solver (the paper's "BF" baseline, Fig. 5).
//!
//! Depth-first search over subsets of candidate clusters of size `≤ k` with
//! incremental feasibility checking (antichain + distance) and coverage
//! bookkeeping with undo. Exponential — the paper measured 2.5 hours at
//! `k = 4` on MovieLens — so it is guarded by a node budget and meant for
//! small instances and for validating the heuristics in tests.
//!
//! The search space is the candidate index (every ancestor of a top-`L`
//! tuple). Clusters covering no top-`L` tuple cannot *reduce* infeasibility
//! and only matter as average boosters; within this space the solver is
//! exact for the Max-Avg objective, and zero-marginal additions are pruned
//! (they never change the objective).

use crate::params::Params;
use crate::solution::Solution;
use crate::working::WorkingSet;
use qagview_common::{FixedBitSet, QagError, Result};
use qagview_lattice::{AnswerSet, CandId, CandidateIndex};

/// Budget guard for the exponential search.
#[derive(Debug, Clone, Copy)]
pub struct BruteForceOptions {
    /// Maximum number of DFS nodes explored before giving up.
    pub max_nodes: u64,
}

impl Default for BruteForceOptions {
    fn default() -> Self {
        BruteForceOptions {
            max_nodes: 20_000_000,
        }
    }
}

struct Search<'a> {
    answers: &'a AnswerSet,
    index: &'a CandidateIndex,
    k: usize,
    l: usize,
    d: usize,
    chosen: Vec<CandId>,
    covered: FixedBitSet,
    sum: f64,
    covered_cnt: usize,
    top_l_covered: usize,
    nodes: u64,
    max_nodes: u64,
    best: Option<(f64, Vec<CandId>)>,
}

impl Search<'_> {
    fn feasible_with(&self, id: CandId) -> bool {
        let pattern = self.index.pattern(id);
        for &c in &self.chosen {
            let other = self.index.pattern(c);
            if pattern.covers(other) || other.covers(pattern) {
                return false;
            }
            if self.d > 0 && pattern.distance(other) < self.d {
                return false;
            }
        }
        true
    }

    fn consider_current(&mut self) {
        if self.top_l_covered < self.l || self.chosen.is_empty() {
            return;
        }
        let avg = self.sum / self.covered_cnt as f64;
        let better = match &self.best {
            None => true,
            Some((best_avg, best_ids)) => {
                avg > *best_avg
                    || (avg == *best_avg
                        && (self.chosen.len() < best_ids.len()
                            || (self.chosen.len() == best_ids.len() && self.chosen < *best_ids)))
            }
        };
        if better {
            self.best = Some((avg, self.chosen.clone()));
        }
    }

    fn dfs(&mut self, next: CandId) -> Result<()> {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Err(QagError::Execution(format!(
                "brute force exceeded its node budget of {}",
                self.max_nodes
            )));
        }
        self.consider_current();
        if self.chosen.len() == self.k {
            return Ok(());
        }
        for id in next..self.index.len() as CandId {
            if !self.feasible_with(id) {
                continue;
            }
            // Apply with undo trail.
            let mut added: Vec<u32> = Vec::new();
            let mut dsum = 0.0;
            let mut dtop = 0usize;
            for &t in &self.index.info(id).cov {
                if self.covered.insert(t as usize) {
                    added.push(t);
                    dsum += self.answers.val(t);
                    if (t as usize) < self.l {
                        dtop += 1;
                    }
                }
            }
            if added.is_empty() {
                // Zero-marginal addition can never change the objective; in
                // this branch it only burns a slot.
                continue;
            }
            self.chosen.push(id);
            self.sum += dsum;
            self.covered_cnt += added.len();
            self.top_l_covered += dtop;

            self.dfs(id + 1)?;

            self.chosen.pop();
            self.sum -= dsum;
            self.covered_cnt -= added.len();
            self.top_l_covered -= dtop;
            for &t in &added {
                self.covered.remove(t as usize);
            }
        }
        Ok(())
    }
}

/// Exhaustively find the Max-Avg-optimal feasible solution within the
/// candidate space.
pub fn brute_force(
    answers: &AnswerSet,
    index: &CandidateIndex,
    params: &Params,
    opts: BruteForceOptions,
) -> Result<Solution> {
    params.validate(answers)?;
    crate::bottom_up::check_index(index, params)?;
    let mut search = Search {
        answers,
        index,
        k: params.k,
        l: params.l,
        d: params.d,
        chosen: Vec::new(),
        covered: FixedBitSet::new(answers.len()),
        sum: 0.0,
        covered_cnt: 0,
        top_l_covered: 0,
        nodes: 0,
        max_nodes: opts.max_nodes,
        best: None,
    };
    search.dfs(0)?;
    let (_, ids) = search.best.ok_or_else(|| {
        QagError::internal("no feasible solution found (trivial cluster missing?)")
    })?;
    // Materialize via a working set for consistent bookkeeping.
    let mut w = WorkingSet::new(answers, index);
    for id in ids {
        w.add_candidate(id)?;
    }
    Ok(w.to_solution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::{bottom_up, BottomUpOptions};
    use crate::fixed_order::{fixed_order, Seeding};
    use crate::hybrid::hybrid;
    use crate::working::EvalMode;
    use qagview_lattice::AnswerSetBuilder;

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        b.push(&["x", "p", "1"], 9.0).unwrap();
        b.push(&["x", "q", "1"], 8.0).unwrap();
        b.push(&["y", "p", "2"], 7.0).unwrap();
        b.push(&["y", "q", "2"], 6.0).unwrap();
        b.push(&["z", "p", "1"], 2.0).unwrap();
        b.push(&["z", "q", "2"], 1.0).unwrap();
        b.finish().unwrap()
    }

    fn setup(l: usize) -> (AnswerSet, CandidateIndex) {
        let s = answers();
        let idx = CandidateIndex::build(&s, l).unwrap();
        (s, idx)
    }

    #[test]
    fn optimal_is_feasible_and_dominates_heuristics() {
        let (s, idx) = setup(4);
        for d in 0..=3 {
            for k in 1..=3 {
                let params = Params::new(k, 4, d);
                let bf = brute_force(&s, &idx, &params, BruteForceOptions::default()).unwrap();
                bf.verify(&s, &params).unwrap();
                let bu = bottom_up(&s, &idx, &params, BottomUpOptions::default()).unwrap();
                let fo = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
                let hy = hybrid(&s, &idx, &params, EvalMode::Delta).unwrap();
                let eps = 1e-9;
                assert!(
                    bf.avg() + eps >= bu.avg(),
                    "BF {} < BU {} (k={k}, d={d})",
                    bf.avg(),
                    bu.avg()
                );
                assert!(bf.avg() + eps >= fo.avg(), "BF < FO (k={k}, d={d})");
                assert!(bf.avg() + eps >= hy.avg(), "BF < Hybrid (k={k}, d={d})");
            }
        }
    }

    #[test]
    fn finds_the_known_optimum() {
        let (s, idx) = setup(2);
        // k=1, L=2, D=0: the best single cluster covering ranks 1-2 is
        // (x, *, 1) with avg 8.5.
        let params = Params::new(1, 2, 0);
        let sol = brute_force(&s, &idx, &params, BruteForceOptions::default()).unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(s.pattern_to_string(&sol.clusters[0].pattern), "(x, *, 1)");
        assert!((sol.avg() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn k_geq_l_d_zero_matches_top_k_elements() {
        // §4.3 case (1): with k >= L and D = 0 the top-k singletons achieve
        // the optimum (adding anything else only drags the average down).
        // Here (x,*,1) covers exactly the same two tuples, so the optimum is
        // attained at avg 8.5 covering exactly the top 2; the tie-break may
        // report either form.
        let (s, idx) = setup(2);
        let params = Params::new(2, 2, 0);
        let sol = brute_force(&s, &idx, &params, BruteForceOptions::default()).unwrap();
        assert!((sol.avg() - 8.5).abs() < 1e-12);
        assert_eq!(
            sol.covered, 2,
            "optimum must cover exactly the top-2 tuples"
        );
    }

    #[test]
    fn node_budget_enforced() {
        let (s, idx) = setup(4);
        let params = Params::new(3, 4, 0);
        let err = brute_force(&s, &idx, &params, BruteForceOptions { max_nodes: 10 }).unwrap_err();
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn always_finds_at_least_the_trivial_solution() {
        let (s, idx) = setup(6);
        // Harsh constraints: k=1 must cover all 6 tuples; only very general
        // clusters qualify; all-star always does.
        let params = Params::new(1, 6, 0);
        let sol = brute_force(&s, &idx, &params, BruteForceOptions::default()).unwrap();
        sol.verify(&s, &params).unwrap();
    }
}
