//! Property tests for the §6.3 candidate index: the coverage that
//! `CandidateIndex::build` derives on first touch must be bit-identical to
//! the naive scan whatever order (and from however many threads) the
//! candidates are touched in, and the index must be closed under the merge
//! operation on arbitrary relations.

use proptest::prelude::*;
use qagview_lattice::{AnswerSet, AnswerSetBuilder, CandId, CandidateIndex, Pattern, STAR};
use std::sync::{Arc, Barrier};

/// A relation of `n` distinct tuples over `m` attributes with skewed
/// domains: each attribute draws from a domain of 1..=8 codes, biased
/// toward small codes, so coverage counts spread across the dense/sparse
/// boundary (`n / 64`). A duplicate draw bumps its last code until the
/// tuple is new. Scores are fractions of both signs, so a sum accumulated
/// in another order would differ in its low bits.
fn skewed_answers(m: usize, n: usize, seed: u64) -> AnswerSet {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let domains: Vec<u32> = (0..m).map(|_| 1 + next() % 8).collect();
    let mut builder = AnswerSetBuilder::new((0..m).map(|i| format!("a{i}")).collect());
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let mut codes: Vec<u32> = domains
            .iter()
            .map(|&d| (next() % d).min(next() % d))
            .collect();
        while !seen.insert(codes.clone()) {
            codes[m - 1] += 1;
        }
        let texts: Vec<String> = codes.iter().map(|c| format!("v{c}")).collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let val = (f64::from(next() % 100_000) - 50_000.0) / 7.0;
        builder.push(&refs, val).unwrap();
    }
    builder.finish().unwrap()
}

fn arb_answers() -> impl Strategy<Value = AnswerSet> {
    let n = prop_oneof![Just(63usize), Just(64), Just(65), Just(128), 1usize..=300];
    (1usize..=8, n, any::<u64>()).prop_map(|(m, n, seed)| skewed_answers(m, n, seed))
}

/// `build` and `build_naive` agree candidate by candidate: ids, patterns,
/// coverage lists, sums to the f64 bit, and bitset coverage.
fn assert_bitwise_naive(answers: &AnswerSet, l: usize) {
    let fast = CandidateIndex::build(answers, l).unwrap();
    let slow = CandidateIndex::build_naive(answers, l).unwrap();
    assert_eq!(fast.len(), slow.len());
    for id in 0..fast.len() as CandId {
        assert_same_info(&fast, &slow, id);
    }
}

/// Candidate `id` of `lazy` (touched now, if it was not yet) equals the
/// naive oracle's, bit for bit.
fn assert_same_info(lazy: &CandidateIndex, slow: &CandidateIndex, id: CandId) {
    let (info, sinfo) = (lazy.info(id), slow.info(id));
    assert_eq!(lazy.pattern(id), &sinfo.pattern);
    assert_eq!(info.pattern, sinfo.pattern);
    assert_eq!(info.cov, sinfo.cov);
    assert_eq!(info.sum.to_bits(), sinfo.sum.to_bits());
    assert_eq!(info.cov_bits, sinfo.cov_bits);
}

/// A seeded Fisher–Yates permutation of `0..len`.
fn permutation(len: usize, seed: u64) -> Vec<CandId> {
    let mut state = seed | 1;
    let mut ids: Vec<CandId> = (0..len as CandId).collect();
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }
    ids
}

fn l_of(answers: &AnswerSet, l_frac: f64) -> usize {
    ((answers.len() as f64 * l_frac) as usize).clamp(1, answers.len())
}

/// At relation sizes around word and density boundaries, some parent (a
/// candidate with its last fixed attribute starred) covers exactly the
/// fewest tuples that count as dense, and derivation from it still matches
/// the naive scan.
#[test]
fn walk_build_crosses_the_dense_boundary() {
    for n in [63usize, 64, 65, 128, 300] {
        let boundary = n.div_ceil(64);
        let mut hit = false;
        for seed in 0..8u64 {
            let answers = skewed_answers(4, n, seed);
            let l = (n / 2).max(1);
            assert_bitwise_naive(&answers, l);
            let index = CandidateIndex::build(&answers, l).unwrap();
            for (_, info) in index.iter() {
                let mut slots = info.pattern.slots().to_vec();
                if let Some(last) = slots.iter().rposition(|&s| s != STAR) {
                    slots[last] = STAR;
                    let parent = index.info(index.id_of_slots(&slots).unwrap());
                    hit |= parent.count() == boundary;
                }
            }
        }
        assert!(hit, "no parent sits on the n={n} dense boundary");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed and naive builds agree on the candidate set, every coverage
    /// list, and every sum (to the f64 bit), whatever `L` is.
    #[test]
    fn indexed_build_equals_naive(answers in arb_answers(), l_frac in 0.1f64..=1.0) {
        let l = l_of(&answers, l_frac);
        let fast = CandidateIndex::build(&answers, l).unwrap();
        let slow = CandidateIndex::build_naive(&answers, l).unwrap();
        prop_assert_eq!(fast.len(), slow.len());
        for (_, info) in fast.iter() {
            let sid = slow.id_of(&info.pattern).expect("same candidate set");
            let sinfo = slow.info(sid);
            prop_assert_eq!(&info.cov, &sinfo.cov);
            prop_assert_eq!(info.sum.to_bits(), sinfo.sum.to_bits());
        }
    }

    /// Every coverage list matches a full scan of the relation.
    #[test]
    fn coverage_lists_match_scans(answers in arb_answers()) {
        let l = (answers.len() / 2).max(1);
        let index = CandidateIndex::build(&answers, l).unwrap();
        for (_, info) in index.iter() {
            let (ids, sum) = answers.scan_coverage(&info.pattern);
            prop_assert_eq!(&info.cov, &ids);
            prop_assert_eq!(info.sum.to_bits(), sum.to_bits());
        }
    }

    /// The derived coverage is bit-identical to the naive scan candidate by
    /// candidate, bitsets included.
    #[test]
    fn walk_build_is_bitwise_naive(answers in arb_answers()) {
        let l = (answers.len() / 2).max(1);
        assert_bitwise_naive(&answers, l);
    }

    /// Touching candidates in any order derives every coverage bit for bit
    /// as the naive scan does, and a fresh index has derived none.
    #[test]
    fn any_access_order_is_bitwise_naive(
        answers in arb_answers(),
        l_frac in 0.1f64..=1.0,
        seed in any::<u64>(),
    ) {
        let l = l_of(&answers, l_frac);
        let lazy = CandidateIndex::build(&answers, l).unwrap();
        let slow = CandidateIndex::build_naive(&answers, l).unwrap();
        prop_assert_eq!(lazy.materialized(), 0);
        prop_assert_eq!(slow.materialized(), slow.len());
        for id in permutation(lazy.len(), seed) {
            assert_same_info(&lazy, &slow, id);
        }
        prop_assert_eq!(lazy.materialized(), lazy.len());
    }

    /// Two threads racing first touches over one shared index, each in its
    /// own random order, both read exactly the naive scan's coverage.
    #[test]
    fn concurrent_first_touches_are_bitwise_naive(
        answers in arb_answers(),
        l_frac in 0.1f64..=1.0,
        seed in any::<u64>(),
    ) {
        let l = l_of(&answers, l_frac);
        let lazy = Arc::new(CandidateIndex::build(&answers, l).unwrap());
        let slow = CandidateIndex::build_naive(&answers, l).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for k in 0..2 {
                let (lazy, slow, start) = (Arc::clone(&lazy), &slow, &start);
                let order = permutation(lazy.len(), seed.wrapping_add(k));
                scope.spawn(move || {
                    start.wait();
                    for id in order {
                        assert_same_info(&lazy, slow, id);
                    }
                });
            }
        });
        prop_assert_eq!(lazy.materialized(), lazy.len());
    }

    /// The candidate set is closed under LCA for pairs that each cover a
    /// top-L tuple (the property the algorithms rely on for `require`).
    #[test]
    fn closed_under_lca(answers in arb_answers()) {
        let l = answers.len().min(4);
        let index = CandidateIndex::build(&answers, l).unwrap();
        let patterns: Vec<Pattern> = index.iter().map(|(_, i)| i.pattern.clone()).collect();
        for a in patterns.iter().take(40) {
            for b in patterns.iter().take(40) {
                let lca = a.lca(b);
                prop_assert!(
                    index.id_of(&lca).is_some(),
                    "LCA of two candidates missing from the index"
                );
            }
        }
    }

    /// Candidate count is exactly the number of distinct generalizations of
    /// the top-L tuples.
    #[test]
    fn candidate_count_is_distinct_ancestor_count(answers in arb_answers()) {
        let l = (answers.len() / 3).max(1);
        let index = CandidateIndex::build(&answers, l).unwrap();
        let mut expected = std::collections::HashSet::new();
        for t in 0..l as u32 {
            Pattern::for_each_generalization(answers.tuple(t), |slots| {
                expected.insert(Pattern::new(slots.to_vec()));
            });
        }
        prop_assert_eq!(index.len(), expected.len());
    }
}
