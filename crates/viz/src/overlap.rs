//! The shared-tuple overlap matrix between two successive solutions.

use qagview_core::Solution;
use qagview_lattice::AnswerSet;
use std::cell::RefCell;

/// A transition from an old solution (`left`) to a new one (`right`):
/// cluster sizes, top-`L` content, and the pairwise overlap counts `m_ij`
/// that weight the comparison bands (App. A.7.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Rendered pattern of each left cluster, in display order.
    pub left_labels: Vec<String>,
    /// Rendered pattern of each right cluster.
    pub right_labels: Vec<String>,
    /// Tuple count per left cluster (box width in the GUI).
    pub left_sizes: Vec<usize>,
    /// Tuple count per right cluster.
    pub right_sizes: Vec<usize>,
    /// Count of top-`L` tuples per left cluster (dark box fraction).
    pub left_top: Vec<usize>,
    /// Count of top-`L` tuples per right cluster.
    pub right_top: Vec<usize>,
    /// `overlaps[i][j]` = number of tuples shared by left `i` and right `j`.
    pub overlaps: Vec<Vec<usize>>,
}

impl Transition {
    /// Build the overlap matrix between two solutions over the same answer
    /// relation. `l` is the coverage parameter (for the top-`L` fractions).
    pub fn between(answers: &AnswerSet, left: &Solution, right: &Solution, l: usize) -> Self {
        let left_labels = left
            .clusters
            .iter()
            .map(|c| answers.pattern_to_string(&c.pattern))
            .collect();
        let right_labels = right
            .clusters
            .iter()
            .map(|c| answers.pattern_to_string(&c.pattern))
            .collect();
        let left_sizes = left.clusters.iter().map(|c| c.members.len()).collect();
        let right_sizes = right.clusters.iter().map(|c| c.members.len()).collect();
        let count_top = |members: &[u32]| members.iter().filter(|&&t| (t as usize) < l).count();
        let left_top = left
            .clusters
            .iter()
            .map(|c| count_top(&c.members))
            .collect();
        let right_top = right
            .clusters
            .iter()
            .map(|c| count_top(&c.members))
            .collect();
        let overlaps = if merge_steps(left, right) <= mask_steps(left, right) {
            pairwise_overlaps(left, right)
        } else {
            masked_overlaps(left, right)
        };
        Transition {
            left_labels,
            right_labels,
            left_sizes,
            right_sizes,
            left_top,
            right_top,
            overlaps,
        }
    }

    /// Number of left clusters.
    pub fn left_len(&self) -> usize {
        self.left_sizes.len()
    }

    /// Number of right clusters.
    pub fn right_len(&self) -> usize {
        self.right_sizes.len()
    }

    /// The bands: `(left, right, shared)` triples with `shared > 0`.
    pub fn bands(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (i, row) in self.overlaps.iter().enumerate() {
            for (j, &m) in row.iter().enumerate() {
                if m > 0 {
                    out.push((i, j, m));
                }
            }
        }
        out
    }
}

thread_local! {
    /// Per-thread left-cluster masks, all zero between calls: a tick
    /// reuses the buffer instead of allocating (and faulting in) an
    /// `n`-word array per transition.
    static MASKS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The list steps [`pairwise_overlaps`] takes: each merge walks both
/// lists only up to where the first of them ends. Two binary searches per
/// pair.
fn merge_steps(left: &Solution, right: &Solution) -> usize {
    let walked = |a: &[u32], b: &[u32]| match (a.last(), b.last()) {
        (Some(&x), Some(&y)) => a.partition_point(|&t| t <= y) + b.partition_point(|&t| t <= x),
        _ => 0,
    };
    left.clusters
        .iter()
        .flat_map(|a| {
            right
                .clusters
                .iter()
                .map(|b| walked(&a.members, &b.members))
        })
        .sum()
}

/// The member visits [`masked_overlaps`] makes: mark and clear every left
/// member, walk every right one.
fn mask_steps(left: &Solution, right: &Solution) -> usize {
    let members = |s: &Solution| s.clusters.iter().map(|c| c.members.len()).sum::<usize>();
    2 * members(left) + members(right)
}

/// `m[i][j]` by one sorted-list merge per pair. Cheapest when the pairs'
/// lists end early or are few — the common tick — but `k²` full merges
/// when many large clusters span the relation.
fn pairwise_overlaps(left: &Solution, right: &Solution) -> Vec<Vec<usize>> {
    let merged = |a: &[u32], b: &[u32]| {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => (i, j, n) = (i + 1, j + 1, n + 1),
            }
        }
        n
    };
    left.clusters
        .iter()
        .map(|a| {
            right
                .clusters
                .iter()
                .map(|b| merged(&a.members, &b.members))
                .collect()
        })
        .collect()
}

/// `m[i][j]` in one pass per side, whatever the cluster shapes: every
/// tuple of a left cluster is marked with a bitmask of the left clusters
/// holding it (`⌈k/64⌉` words), then each right cluster's members are
/// walked once, adding to `m[i][j]` per set bit. Cost is the summed member
/// counts plus the overlaps, independent of the relation size.
fn masked_overlaps(left: &Solution, right: &Solution) -> Vec<Vec<usize>> {
    let (kl, kr) = (left.clusters.len(), right.clusters.len());
    let words = kl.div_ceil(64);
    // Members are ascending, so each cluster's last one bounds its ids.
    let n = left
        .clusters
        .iter()
        .filter_map(|c| c.members.last())
        .map(|&t| t as usize + 1)
        .max()
        .unwrap_or(0);
    // counts[i * kr + j] = m[i][j].
    let mut counts = vec![0usize; kl * kr];
    MASKS.with_borrow_mut(|masks| {
        if masks.len() < n * words {
            masks.resize(n * words, 0);
        }
        let masks = &mut masks[..n * words];
        for (i, c) in left.clusters.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for &t in &c.members {
                masks[t as usize * words + word] |= bit;
            }
        }
        // A right cluster's members mostly come in runs sharing one left
        // mask (ids are rank-ordered, and so is cluster membership), so
        // each run is counted once, when it ends.
        let add = |counts: &mut [usize], mask: &[u64], j: usize, run: usize| {
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    counts[(w * 64 + bits.trailing_zeros() as usize) * kr + j] += run;
                    bits &= bits - 1;
                }
            }
        };
        for (j, c) in right.clusters.iter().enumerate() {
            let (mut run_at, mut run) = (0, 0);
            for &t in &c.members {
                let at = t as usize * words;
                if at >= masks.len() {
                    break; // past every left cluster's last member
                }
                // A word-wise compare: a slice `==` would call `memcmp`
                // per member.
                if run > 0 && (0..words).all(|w| masks[at + w] == masks[run_at + w]) {
                    run += 1;
                    continue;
                }
                if run > 0 {
                    add(&mut counts, &masks[run_at..run_at + words], j, run);
                }
                (run_at, run) = (at, 1);
            }
            if run > 0 {
                add(&mut counts, &masks[run_at..run_at + words], j, run);
            }
        }
        // Leave the buffer all zero for the next call: every set bit came
        // from one left cluster's pass, so undoing the passes word by word
        // clears it.
        for (i, c) in left.clusters.iter().enumerate() {
            for &t in &c.members {
                masks[t as usize * words + i / 64] = 0;
            }
        }
    });
    counts
        .chunks(kr.max(1))
        .take(kl)
        .map(<[usize]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_core::{SolutionCluster, Summarizer};
    use qagview_lattice::AnswerSetBuilder;

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        b.push(&["x", "p"], 9.0).unwrap();
        b.push(&["x", "q"], 8.0).unwrap();
        b.push(&["y", "p"], 7.0).unwrap();
        b.push(&["y", "q"], 6.0).unwrap();
        b.push(&["z", "p"], 1.0).unwrap();
        b.finish().unwrap()
    }

    fn solution(clusters: &[&[u32]]) -> Solution {
        Solution {
            clusters: clusters
                .iter()
                .map(|m| SolutionCluster {
                    pattern: qagview_lattice::Pattern::new(vec![qagview_lattice::STAR]),
                    members: m.to_vec(),
                    sum: 0.0,
                })
                .collect(),
            covered: 0,
            sum: 0.0,
        }
    }

    #[test]
    fn intersection_helper() {
        let left = solution(&[&[1, 3, 5], &[], &[7]]);
        let right = solution(&[&[2, 3, 5, 9], &[1], &[7, 8]]);
        let want = vec![vec![2, 1, 0], vec![0, 0, 0], vec![0, 0, 1]];
        assert_eq!(pairwise_overlaps(&left, &right), want);
        assert_eq!(masked_overlaps(&left, &right), want);
        // The mask buffer is left all zero: a second call agrees.
        assert_eq!(masked_overlaps(&left, &right), want);
        assert_eq!(
            masked_overlaps(&right, &left),
            pairwise_overlaps(&right, &left)
        );
        assert!(masked_overlaps(&solution(&[]), &right).is_empty());
    }

    #[test]
    fn transition_between_k4_and_k2() {
        let s = answers();
        let sm = Summarizer::new(&s, 4).unwrap();
        let left = sm.bottom_up(4, 0).unwrap();
        let right = sm.bottom_up(2, 0).unwrap();
        let t = Transition::between(&s, &left, &right, 4);
        assert_eq!(t.left_len(), left.len());
        assert_eq!(t.right_len(), right.len());
        // Every left cluster's tuples must be accounted for in some band
        // when the right side covers at least as much.
        let band_total: usize = t.bands().iter().map(|&(_, _, m)| m).sum();
        assert!(
            band_total >= 4,
            "top-4 tuples flow through bands, got {band_total}"
        );
        // Overlap symmetry sanity: overlap <= min(size_left, size_right).
        for (i, j, m) in t.bands() {
            assert!(m <= t.left_sizes[i].min(t.right_sizes[j]));
        }
    }

    #[test]
    fn top_l_fractions_counted() {
        let s = answers();
        let sm = Summarizer::new(&s, 2).unwrap();
        let sol = sm.bottom_up(1, 0).unwrap();
        let t = Transition::between(&s, &sol, &sol, 2);
        // Identity transition: full overlap on the diagonal.
        for i in 0..t.left_len() {
            assert_eq!(t.overlaps[i][i], t.left_sizes[i]);
            assert!(t.left_top[i] <= t.left_sizes[i]);
        }
    }
}
