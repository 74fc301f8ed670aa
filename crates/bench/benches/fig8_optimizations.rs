//! Fig. 8: the two §6.3 optimization ablations.
//!
//! (a) candidate coverage derived from each parent's (`CandidateIndex::build`,
//!     every candidate forced) vs the naive per-candidate scan;
//! (b) Delta-Judgment marginals vs naive recomputation.
//! Paper shape: both optimized paths win by one to three orders of
//! magnitude, growing with L.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::{eager_index, synthetic_answers};
use qagview_core::{EvalMode, Params};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench_candidate_generation(c: &mut Criterion) {
    let answers = synthetic_answers(2087, 8, 7).expect("workload");
    let mut group = c.benchmark_group("fig8a_candidate_generation");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    for l in [100usize, 200] {
        group.bench_with_input(BenchmarkId::new("parent_derived", l), &l, |b, &l| {
            b.iter(|| black_box(eager_index(&answers, l).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("naive_scan", l), &l, |b, &l| {
            b.iter(|| black_box(CandidateIndex::build_naive(&answers, l).unwrap()))
        });
    }
    group.finish();
}

fn bench_delta_judgment(c: &mut Criterion) {
    let answers = synthetic_answers(2087, 8, 7).expect("workload");
    let mut group = c.benchmark_group("fig8b_delta_judgment");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    for l in [200usize, 500] {
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(20, l, 2);
        group.bench_with_input(BenchmarkId::new("with_delta", l), &params, |b, p| {
            b.iter(|| {
                black_box(
                    qagview_core::hybrid_with(&answers, &index, p, 5, EvalMode::Delta).unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("without_delta", l), &params, |b, p| {
            b.iter(|| {
                black_box(
                    qagview_core::hybrid_with(&answers, &index, p, 5, EvalMode::Naive).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidate_generation, bench_delta_judgment);
criterion_main!(benches);
