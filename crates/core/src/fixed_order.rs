//! The Fixed-Order greedy algorithm (paper §5.2, Algorithm 3 / App. A.4).
//!
//! Process the top-`L` elements in descending score order, maintaining a
//! feasible solution at every step:
//!
//! * an element already covered is skipped;
//! * while the solution has room (`|O| < k`) and the element keeps distance
//!   `≥ D` from every cluster, it joins as a singleton;
//! * otherwise it is merged into an existing cluster — restricted to the
//!   distance-violating clusters while there is room, or chosen among all
//!   clusters when the solution is full — greedily by resulting average.
//!
//! The `random-` and `k-means-` seeded variants (§5.2) pre-process `k`
//! chosen elements/patterns before the ranked stream; both are provided via
//! [`Seeding`].

use crate::kmodes::{covering_pattern, kmodes};
use crate::params::Params;
use crate::solution::Solution;
use crate::working::{greedy_apply, EvalMode, Evaluator, GreedyRule, MergeSpec, WorkingSet};
use qagview_common::rng::seeded;
use qagview_common::Result;
use qagview_lattice::{AnswerSet, CandId, CandidateIndex};
use rand::seq::SliceRandom;

/// Pre-processing performed before the ranked top-`L` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Seeding {
    /// Plain Fixed-Order: no seeds.
    #[default]
    None,
    /// `random-Fixed-Order`: process `k` elements drawn uniformly from the
    /// top-`L` first (then the full ranked stream).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// `k-means-Fixed-Order`: run k-modes on the top-`L`, process each
    /// cluster's minimum covering pattern first.
    KMeans {
        /// RNG seed for the k-modes random seeding.
        seed: u64,
        /// Maximum Lloyd iterations.
        max_iter: usize,
    },
}

/// Run Algorithm 3 with plain parameters.
pub fn fixed_order(
    answers: &AnswerSet,
    index: &CandidateIndex,
    params: &Params,
    seeding: Seeding,
    eval: EvalMode,
) -> Result<Solution> {
    params.validate(answers)?;
    crate::bottom_up::check_index(index, params)?;
    let w = fixed_order_phase(answers, index, params, params.k, seeding, eval)?;
    Ok(w.to_solution())
}

/// The Fixed-Order pass with an explicit pool size (`pool ≥ k` enables the
/// Hybrid algorithm's enlarged first phase, §5.3, and the precomputation's
/// shared phase, §6.2). Returns the working set for further phases.
pub fn fixed_order_phase<'a>(
    answers: &'a AnswerSet,
    index: &'a CandidateIndex,
    params: &Params,
    pool: usize,
    seeding: Seeding,
    eval: EvalMode,
) -> Result<WorkingSet<'a>> {
    let mut w = WorkingSet::new(answers, index);
    let mut evaluator = Evaluator::new(eval);
    let pool = pool.max(1);

    // Seeds first (§5.2 variants), then the ranked stream.
    for id in seed_candidates(answers, index, params, seeding)? {
        process_item(&mut w, id, params.d, pool, &mut evaluator)?;
    }
    for t in 0..params.l as u32 {
        let id = index.require(&answers.singleton(t))?;
        process_item(&mut w, id, params.d, pool, &mut evaluator)?;
    }
    Ok(w)
}

fn seed_candidates(
    answers: &AnswerSet,
    index: &CandidateIndex,
    params: &Params,
    seeding: Seeding,
) -> Result<Vec<CandId>> {
    match seeding {
        Seeding::None => Ok(Vec::new()),
        Seeding::Random { seed } => {
            let mut ids: Vec<u32> = (0..params.l as u32).collect();
            ids.shuffle(&mut seeded(seed));
            ids.truncate(params.k);
            // Keep the chosen sample in descending-value order, matching
            // "still in descending-value order" for the remaining stream.
            ids.sort_unstable();
            ids.iter()
                .map(|&t| index.require(&answers.singleton(t)))
                .collect()
        }
        Seeding::KMeans { seed, max_iter } => {
            let result = kmodes(answers, params.l, params.k, seed, max_iter);
            result
                .clusters
                .iter()
                .map(|members| index.require(&covering_pattern(answers, members)))
                .collect()
        }
    }
}

/// Process one incoming candidate (a singleton element or a seed pattern)
/// against the current solution — the loop body of Algorithm 3.
fn process_item(
    w: &mut WorkingSet<'_>,
    id: CandId,
    d: usize,
    pool: usize,
    evaluator: &mut Evaluator,
) -> Result<()> {
    let pattern = w.index().pattern(id).clone();

    // Skip anything already subsumed by the solution. For a singleton this
    // is exactly "tᵢ ∈ cov(O)"; for seed patterns it is pattern coverage.
    if (0..w.len()).any(|i| w.pattern(i).covers(&pattern)) {
        return Ok(());
    }

    if w.len() < pool {
        // Seeds may *cover* existing members; inserting such a pattern
        // would break incomparability, so route it through a merge with a
        // covered member (the LCA is the seed itself, which evicts all
        // covered members).
        let covered_member = (0..w.len()).find(|&i| pattern.covers(w.pattern(i)));
        if let Some(i) = covered_member {
            w.apply_merge(MergeSpec::External(i, id))?;
            return Ok(());
        }
        let violating: Vec<usize> = if d == 0 {
            Vec::new()
        } else {
            (0..w.len())
                .filter(|&i| w.pattern(i).distance(&pattern) < d)
                .collect()
        };
        if violating.is_empty() {
            w.add_candidate(id)?;
        } else {
            let specs: Vec<MergeSpec> = violating
                .into_iter()
                .map(|i| MergeSpec::External(i, id))
                .collect();
            greedy_apply(w, &specs, evaluator, GreedyRule::SolutionAvg)?;
        }
    } else {
        // Solution full: merge with the best existing cluster.
        let specs: Vec<MergeSpec> = (0..w.len()).map(|i| MergeSpec::External(i, id)).collect();
        greedy_apply(w, &specs, evaluator, GreedyRule::SolutionAvg)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_lattice::AnswerSetBuilder;

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        b.push(&["x", "p", "1"], 9.0).unwrap();
        b.push(&["x", "q", "1"], 8.0).unwrap();
        b.push(&["x", "r", "1"], 7.0).unwrap();
        b.push(&["y", "p", "2"], 6.0).unwrap();
        b.push(&["y", "q", "2"], 5.0).unwrap();
        b.push(&["z", "p", "1"], 1.0).unwrap();
        b.push(&["z", "q", "2"], 0.5).unwrap();
        b.finish().unwrap()
    }

    fn setup(l: usize) -> (AnswerSet, CandidateIndex) {
        let s = answers();
        let idx = CandidateIndex::build(&s, l).unwrap();
        (s, idx)
    }

    #[test]
    fn feasible_across_parameter_grid() {
        let (s, idx) = setup(5);
        for d in 0..=3 {
            for k in 1..=5 {
                let params = Params::new(k, 5, d);
                let sol = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
                sol.verify(&s, &params).unwrap();
            }
        }
    }

    #[test]
    fn keeps_singletons_when_room_and_distance_allow() {
        let (s, idx) = setup(3);
        let params = Params::new(3, 3, 1);
        let sol = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
        assert_eq!(sol.len(), 3);
        assert!((sol.avg() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn merges_when_full() {
        let (s, idx) = setup(5);
        let params = Params::new(2, 5, 0);
        let sol = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
        sol.verify(&s, &params).unwrap();
        assert!(sol.len() <= 2);
        // Top-5 coverage forced merges; good solutions group x's and y's.
        assert!(sol.avg() > s.mean_val());
    }

    #[test]
    fn covered_elements_are_skipped() {
        let (s, idx) = setup(5);
        // With k=1 and d=0 the first merge generalizes; later covered
        // elements must not change the solution size.
        let params = Params::new(1, 5, 0);
        let sol = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
        assert_eq!(sol.len(), 1);
        sol.verify(&s, &params).unwrap();
    }

    #[test]
    fn random_seeding_is_deterministic_and_feasible() {
        let (s, idx) = setup(5);
        let params = Params::new(3, 5, 1);
        let a = fixed_order(
            &s,
            &idx,
            &params,
            Seeding::Random { seed: 11 },
            EvalMode::Delta,
        )
        .unwrap();
        let b = fixed_order(
            &s,
            &idx,
            &params,
            Seeding::Random { seed: 11 },
            EvalMode::Delta,
        )
        .unwrap();
        assert_eq!(a.patterns(), b.patterns());
        a.verify(&s, &params).unwrap();
    }

    #[test]
    fn kmeans_seeding_is_feasible() {
        let (s, idx) = setup(5);
        let params = Params::new(2, 5, 1);
        let sol = fixed_order(
            &s,
            &idx,
            &params,
            Seeding::KMeans {
                seed: 5,
                max_iter: 20,
            },
            EvalMode::Delta,
        )
        .unwrap();
        sol.verify(&s, &params).unwrap();
    }

    #[test]
    fn seed_patterns_covering_members_keep_antichain() {
        // Construct a scenario where a k-means seed pattern covers an
        // earlier seed: duplicate-ish groups collapse to general patterns.
        let (s, idx) = setup(5);
        let params = Params::new(2, 5, 0);
        for seed in 0..10 {
            let sol = fixed_order(
                &s,
                &idx,
                &params,
                Seeding::KMeans { seed, max_iter: 10 },
                EvalMode::Delta,
            )
            .unwrap();
            sol.verify(&s, &params).unwrap();
        }
    }

    #[test]
    fn pool_larger_than_k_keeps_more_clusters() {
        let (s, idx) = setup(5);
        let params = Params::new(2, 5, 0);
        let w = fixed_order_phase(&s, &idx, &params, 4, Seeding::None, EvalMode::Delta).unwrap();
        assert!(w.len() <= 4);
        assert!(w.len() >= 2, "pool should retain more granularity than k");
        for t in 0..5 {
            assert!(w.is_tuple_covered(t), "coverage invariant");
        }
    }

    #[test]
    fn naive_eval_matches_delta() {
        let (s, idx) = setup(5);
        for k in 1..=4 {
            let params = Params::new(k, 5, 2);
            let a = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Naive).unwrap();
            let b = fixed_order(&s, &idx, &params, Seeding::None, EvalMode::Delta).unwrap();
            assert_eq!(a.patterns(), b.patterns());
        }
    }
}
