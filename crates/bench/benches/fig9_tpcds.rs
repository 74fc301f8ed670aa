//! Fig. 9: TPC-DS scalability — initialization, single run, precompute and
//! retrieval at N in the tens of thousands.
//!
//! Paper shape: everything stays interactive (seconds at worst) even at
//! N ≈ 47k; retrieval stays in the milliseconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::{eager_index, tpcds_answers};
use qagview_core::{EvalMode, Params};
use qagview_interactive::{PrecomputeConfig, Precomputed};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // A 1/4-scale workload keeps the bench loop tractable while preserving
    // the shape; `paper-experiments fig9` runs the full N ≈ 51k point.
    let answers = tpcds_answers(72_010, 1, 7).expect("workload");
    let mut group = c.benchmark_group("fig9_tpcds");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4));
    group.throughput(criterion::Throughput::Elements(answers.len() as u64));

    for l in [500usize, 1000] {
        let l = l.min(answers.len());
        group.bench_with_input(BenchmarkId::new("initialization", l), &l, |b, &l| {
            b.iter(|| black_box(eager_index(&answers, l).unwrap()))
        });
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(20, l, 2);
        group.bench_with_input(BenchmarkId::new("single_hybrid", l), &params, |b, p| {
            b.iter(|| {
                black_box(qagview_core::hybrid(&answers, &index, p, EvalMode::Delta).unwrap())
            })
        });
        let pre = Precomputed::build_with_index(
            &answers,
            index.clone(),
            PrecomputeConfig {
                k_min: 1,
                k_max: 20,
                d_min: 2,
                d_max: 2,
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("retrieval", l), &pre, |b, pre| {
            b.iter(|| black_box(pre.solution(20, 2).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
