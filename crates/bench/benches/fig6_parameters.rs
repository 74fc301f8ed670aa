//! Fig. 6: algorithm runtime as k, L, D, and m vary (MovieLens workload).
//!
//! Paper shape: Fixed-Order fastest and nearly flat, Bottom-Up slowest and
//! growing with L, Hybrid in between; initialization grows steeply with m.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::{eager_index, movielens_answers};
use qagview_core::{bottom_up, fixed_order, BottomUpOptions, EvalMode, Params, Seeding};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench_vary_l(c: &mut Criterion) {
    let answers = movielens_answers(8, 20, 42).expect("workload");
    let mut group = c.benchmark_group("fig6_vary_L");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    for l in [9usize, 27, 81] {
        let l = l.min(answers.len());
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(3, l, 3);
        group.bench_with_input(BenchmarkId::new("bottom_up", l), &params, |b, p| {
            b.iter(|| {
                black_box(bottom_up(&answers, &index, p, BottomUpOptions::default()).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("fixed_order", l), &params, |b, p| {
            b.iter(|| {
                black_box(fixed_order(&answers, &index, p, Seeding::None, EvalMode::Delta).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("hybrid", l), &params, |b, p| {
            b.iter(|| {
                black_box(qagview_core::hybrid(&answers, &index, p, EvalMode::Delta).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_vary_d(c: &mut Criterion) {
    let answers = movielens_answers(8, 20, 42).expect("workload");
    let l = 40.min(answers.len());
    let index = CandidateIndex::build(&answers, l).expect("index");
    let mut group = c.benchmark_group("fig6_vary_D");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    for d in [1usize, 3, 6] {
        let params = Params::new(10, l, d);
        group.bench_with_input(BenchmarkId::new("bottom_up", d), &params, |b, p| {
            b.iter(|| {
                black_box(bottom_up(&answers, &index, p, BottomUpOptions::default()).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("hybrid", d), &params, |b, p| {
            b.iter(|| {
                black_box(qagview_core::hybrid(&answers, &index, p, EvalMode::Delta).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_init_vary_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_init_vary_m");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    for (m, having) in [(4usize, 30usize), (6, 30), (8, 20), (10, 8)] {
        let answers = movielens_answers(m, having, 42).expect("workload");
        let l = 20.min(answers.len());
        group.bench_with_input(BenchmarkId::new("initialization", m), &l, |b, &l| {
            b.iter(|| black_box(eager_index(&answers, l).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vary_l, bench_vary_d, bench_init_vary_m);
criterion_main!(benches);
