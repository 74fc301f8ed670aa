//! Property tests for the fused word-level bitset kernel: on arbitrary
//! sets — including word-boundary capacities — `difference_count_sum`
//! must agree bit-for-bit with the naive per-bit loop it replaces.

use proptest::prelude::*;
use qagview_common::FixedBitSet;

/// Capacities that stress the word boundary: empty, one-under, exact,
/// one-over, and a multi-word tail.
const BOUNDARY_LENS: [usize; 7] = [0, 1, 63, 64, 65, 128, 130];

fn arb_set_pair() -> impl Strategy<Value = (FixedBitSet, FixedBitSet, Vec<f64>)> {
    (0usize..BOUNDARY_LENS.len(), any::<u64>()).prop_map(|(li, seed)| {
        let len = BOUNDARY_LENS[li];
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut a = FixedBitSet::new(len);
        let mut b = FixedBitSet::new(len);
        let mut vals = Vec::with_capacity(len);
        for i in 0..len {
            if next() % 3 == 0 {
                a.insert(i);
            }
            if next() % 3 == 0 {
                b.insert(i);
            }
            // Dyadic values so float sums compare exactly regardless of
            // magnitude mix.
            vals.push((next() % 512) as f64 / 8.0);
        }
        (a, b, vals)
    })
}

/// Reference semantics via the per-bit probes.
fn per_bit_difference(a: &FixedBitSet, b: &FixedBitSet, vals: &[f64]) -> (f64, u32) {
    let mut sum = 0.0;
    let mut cnt = 0u32;
    for (i, &v) in vals.iter().enumerate().take(a.len()) {
        if a.contains(i) && !b.contains(i) {
            sum += v;
            cnt += 1;
        }
    }
    (sum, cnt)
}

fn per_bit_union(a: &FixedBitSet, b: &FixedBitSet, vals: &[f64]) -> (f64, u32) {
    let mut sum = 0.0;
    let mut cnt = 0u32;
    for (i, &v) in vals.iter().enumerate().take(a.len()) {
        if a.contains(i) || b.contains(i) {
            sum += v;
            cnt += 1;
        }
    }
    (sum, cnt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `difference_count_sum` == the naive `contains` loop, bit-for-bit.
    #[test]
    fn difference_kernel_matches_per_bit((a, b, vals) in arb_set_pair()) {
        let fused = a.difference_count_sum(&b, &vals);
        let naive = per_bit_difference(&a, &b, &vals);
        prop_assert_eq!(fused.1, naive.1);
        prop_assert_eq!(fused.0.to_bits(), naive.0.to_bits());
    }

    /// `union_with` keeps `count_ones` exact and equals the element-wise or.
    #[test]
    fn union_with_matches_element_wise((a, b, _vals) in arb_set_pair()) {
        let mut u = a.clone();
        u.union_with(&b);
        let mut expected = 0usize;
        for i in 0..a.len() {
            let bit = a.contains(i) || b.contains(i);
            prop_assert_eq!(u.contains(i), bit);
            expected += usize::from(bit);
        }
        prop_assert_eq!(u.count_ones(), expected);
    }

    /// The difference kernel decomposes the union: |a∪b| = |a\b| + |b|,
    /// and the same for sums (up to the exact float order, so compare via
    /// recomposition with a tolerance-free integer count plus a
    /// 1-ulp-scale epsilon on the sum).
    #[test]
    fn kernels_decompose((a, b, vals) in arb_set_pair()) {
        let (dsum, dcnt) = a.difference_count_sum(&b, &vals);
        let (usum, ucnt) = per_bit_union(&a, &b, &vals);
        let bsum: f64 = b.iter_ones().map(|i| vals[i]).sum();
        prop_assert_eq!(ucnt, dcnt + b.count_ones() as u32);
        prop_assert!((usum - (dsum + bsum)).abs() < 1e-9);
    }
}
