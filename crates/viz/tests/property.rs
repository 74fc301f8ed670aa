//! Property tests for the layout optimizer (optimality, permutation
//! validity, dominance over the default placement) and for the overlap
//! matrix of a transition, checked against pairwise sorted-list merges.

use proptest::prelude::*;
use qagview_core::{Solution, SolutionCluster};
use qagview_lattice::{AnswerSetBuilder, Pattern, STAR};
use qagview_viz::hungarian::{min_cost_assignment, min_cost_assignment_brute};
use qagview_viz::layout::{band_crossings, optimal_placement, total_distance, Placement};
use qagview_viz::overlap::Transition;

/// The oracle: length of the intersection of two ascending id lists, by
/// a plain merge.
fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[test]
fn oracle_counts_shared_ids() {
    assert_eq!(sorted_intersection_len(&[1, 3, 5], &[2, 3, 5, 9]), 2);
    assert_eq!(sorted_intersection_len(&[], &[1]), 0);
    assert_eq!(sorted_intersection_len(&[7], &[7]), 1);
}

/// `k` clusters over tuples `0..n`, each keeping a tuple with a per-cluster
/// density drawn from `seed`; density 0 gives empty clusters.
fn random_solution(n: usize, k: usize, seed: u64) -> Solution {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let clusters = (0..k)
        .map(|_| {
            let density = next() % 5; // 0 = empty … 4 = every tuple
            let members: Vec<u32> = (0..n as u32)
                .filter(|_| density > 0 && next() % 4 < density)
                .collect();
            SolutionCluster {
                pattern: Pattern::new(vec![STAR]),
                members,
                sum: 0.0,
            }
        })
        .collect();
    Solution {
        clusters,
        covered: 0,
        sum: 0.0,
    }
}

fn arb_transition() -> impl Strategy<Value = Transition> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(0usize..8, rows * cols).prop_map(move |cells| {
            let overlaps: Vec<Vec<usize>> =
                cells.chunks(cols).map(|chunk| chunk.to_vec()).collect();
            let left_sizes: Vec<usize> = overlaps
                .iter()
                .map(|row| row.iter().sum::<usize>().max(1))
                .collect();
            let right_sizes: Vec<usize> = (0..cols)
                .map(|j| overlaps.iter().map(|row| row[j]).sum::<usize>().max(1))
                .collect();
            Transition {
                left_labels: (0..rows).map(|i| format!("L{i}")).collect(),
                right_labels: (0..cols).map(|j| format!("R{j}")).collect(),
                left_top: left_sizes.iter().map(|s| s / 2).collect(),
                right_top: right_sizes.iter().map(|s| s / 2).collect(),
                left_sizes,
                right_sizes,
                overlaps,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimal placement is a permutation achieving its reported cost,
    /// and no worse than the default ordering.
    #[test]
    fn optimal_dominates_default(t in arb_transition()) {
        let (placement, cost) = optimal_placement(&t);
        // Permutation validity.
        let mut seen = vec![false; t.right_len()];
        for &p in &placement.position {
            prop_assert!(p < t.right_len());
            prop_assert!(!seen[p], "duplicate slot");
            seen[p] = true;
        }
        // Reported cost is the actual Def. A.3 objective.
        prop_assert!((total_distance(&t, &placement) - cost).abs() < 1e-9);
        // Dominance.
        let default = Placement::default_order(t.right_len());
        prop_assert!(cost <= total_distance(&t, &default) + 1e-9);
    }

    /// No single transposition of the optimal placement improves it
    /// (local optimality — implied by global optimality).
    #[test]
    fn optimal_is_swap_stable(t in arb_transition()) {
        let (placement, cost) = optimal_placement(&t);
        let n = t.right_len();
        for i in 0..n {
            for j in i + 1..n {
                let mut swapped = placement.clone();
                swapped.position.swap(i, j);
                prop_assert!(
                    total_distance(&t, &swapped) + 1e-9 >= cost,
                    "swap ({i},{j}) improved the optimum"
                );
            }
        }
    }

    /// Hungarian equals brute force on random square matrices.
    #[test]
    fn hungarian_equals_brute(
        n in 1usize..=5,
        cells in prop::collection::vec(0.0f64..100.0, 25),
    ) {
        let cost: Vec<Vec<f64>> =
            (0..n).map(|i| (0..n).map(|j| cells[i * 5 + j]).collect()).collect();
        let (_, fast) = min_cost_assignment(&cost);
        let (_, slow) = min_cost_assignment_brute(&cost);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    /// Crossing counts are invariant under relabeling both sides with the
    /// identity and zero for the empty band set.
    #[test]
    fn crossings_sanity(t in arb_transition()) {
        let default = Placement::default_order(t.right_len());
        let crossings = band_crossings(&t, &default);
        // An upper bound: every band pair crosses at most once.
        let bands = t.bands().len();
        prop_assert!(crossings <= bands * bands.saturating_sub(1) / 2);
    }

    /// The overlap matrix equals `k²` pairwise sorted-list merges, for `k`
    /// up to 70 (so the left-cluster masks need two words) and with empty
    /// clusters on either side.
    #[test]
    fn overlap_matrix_equals_pairwise_merges(
        n in 1usize..200,
        kl in 0usize..=70,
        kr in 0usize..=70,
        seed in 0u64..1_000_000,
    ) {
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], 1.0).unwrap();
        let answers = b.finish().unwrap();
        let left = random_solution(n, kl, seed);
        let right = random_solution(n, kr, seed.wrapping_mul(31).wrapping_add(7));
        let t = Transition::between(&answers, &left, &right, 1);
        prop_assert_eq!(t.overlaps.len(), kl);
        for (i, a) in left.clusters.iter().enumerate() {
            prop_assert_eq!(t.overlaps[i].len(), kr);
            for (j, b) in right.clusters.iter().enumerate() {
                prop_assert_eq!(
                    t.overlaps[i][j],
                    sorted_intersection_len(&a.members, &b.members),
                    "cell ({}, {})", i, j
                );
            }
        }
    }
}
