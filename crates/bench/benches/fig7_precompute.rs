//! Fig. 7: precomputation cost vs single runs vs retrieval (synthetic N
//! sweep).
//!
//! Paper shape: per-retrieval cost is orders of magnitude below a fresh
//! algorithm run, which is itself far below initialization; repeated
//! exploration amortizes the precomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::{eager_index, synthetic_answers};
use qagview_core::{EvalMode, Params};
use qagview_interactive::{PrecomputeConfig, Precomputed};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_precompute");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));

    for n in [927usize, 2087] {
        let answers = synthetic_answers(n, 8, 7).expect("workload");
        let l = 500.min(answers.len());
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(20, l, 2);

        group.bench_with_input(BenchmarkId::new("initialization", n), &l, |b, &l| {
            b.iter(|| black_box(eager_index(&answers, l).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("single_hybrid", n), &params, |b, p| {
            b.iter(|| {
                black_box(qagview_core::hybrid(&answers, &index, p, EvalMode::Delta).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("precompute_plane", n), &l, |b, _| {
            b.iter(|| {
                black_box(
                    Precomputed::build_with_index(
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
                    .unwrap(),
                )
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
        group.bench_with_input(BenchmarkId::new("retrieval", n), &pre, |b, pre| {
            b.iter(|| black_box(pre.solution(12, 2).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
