//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p qagview-bench --bin paper-experiments            # all
//! cargo run --release -p qagview-bench --bin paper-experiments -- fig5 fig6
//! ```
//!
//! Output is the textual equivalent of each figure: the same rows/series
//! the paper plots, with this reproduction's measured values. EXPERIMENTS.md
//! records the paper-vs-measured comparison.

use qagview::baselines::{
    decision_tree, disc_diverse_subset, diversified_topk, mmr_select, smart_drilldown, RuleSource,
};
use qagview::prelude::*;
use qagview::userstudy::{run_study, StudyConfig, StudyReport};
use qagview::viz::{band_crossings, total_distance};
use qagview_bench::{
    eager_index, example_1_1_answers, movielens_answers, synthetic_answers, tpcds_answers,
};
use qagview_core::{
    bottom_up, brute_force, fixed_order, BottomUpOptions, BruteForceOptions, EvalMode, Seeding,
};
use qagview_lattice::CandidateIndex;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn header(name: &str, what: &str) {
    println!("\n================================================================");
    println!("{name}: {what}");
    println!("================================================================");
}

/// Fig. 1: the running example's two-layer output.
fn fig1() {
    header(
        "fig1",
        "Example 1.1 workload, k=4, L=8, D=2 (paper Fig. 1a-1c)",
    );
    let answers = example_1_1_answers(42).expect("workload");
    println!("n = {} answer groups (m = 4)", answers.len());
    println!("-- top-8 / bottom-8 (Fig. 1a) --");
    let n = answers.len();
    for rank in (0..8.min(n)).chain(n.saturating_sub(8)..n) {
        let t = rank as u32;
        let row: Vec<&str> = (0..4)
            .map(|i| answers.code_text(i, answers.tuple(t)[i]))
            .collect();
        println!(
            "  {:>3}. {} | {:.2}",
            rank + 1,
            row.join(", "),
            answers.val(t)
        );
    }
    let summarizer = Summarizer::new(&answers, 8).expect("index");
    let sol = summarizer.hybrid(4, 2).expect("solution");
    println!("-- clusters + second layer (Fig. 1b/1c) --");
    print!("{}", sol.render(&answers, true));
}

/// Fig. 2 + §7.2 guidance timing.
fn fig2() {
    header(
        "fig2",
        "parameter-selection guidance: avg value vs k per D (L=15)",
    );
    let answers = example_1_1_answers(42).expect("workload");
    let l = 15.min(answers.len());
    let t = Instant::now();
    let pre = Precomputed::build(
        &answers,
        l,
        PrecomputeConfig {
            k_min: 2,
            k_max: 15,
            d_min: 1,
            d_max: 4,
            ..Default::default()
        },
    )
    .expect("precompute");
    let plot = pre.guidance();
    let build_ms = ms(t);
    println!("generation time (precompute + series): {build_ms:.1} ms (paper: 20-40 ms)");
    print!("k:     ");
    for k in &plot.k_values {
        print!("{k:>7}");
    }
    println!();
    for s in &plot.series {
        print!("D={}:   ", s.d);
        for v in &s.avg_by_k {
            print!("{v:>7.3}");
        }
        println!();
    }
    for d in 1..=4 {
        println!(
            "D={d}: knees {:?}, flat regions {:?}",
            plot.knees(d, 0.002),
            plot.flat_regions(d, 0.0005)
        );
    }
    // §7.2: guidance generation across m.
    println!("-- guidance generation time vs m (paper: 20-40 ms for m in 4..10) --");
    for (m, having) in [(4usize, 30usize), (6, 30), (8, 20), (10, 8)] {
        let answers = movielens_answers(m, having, 42).expect("workload");
        let l = 15.min(answers.len());
        let t = Instant::now();
        let pre = Precomputed::build(
            &answers,
            l,
            PrecomputeConfig {
                k_min: 2,
                k_max: 15,
                d_min: 1,
                d_max: 3,
                ..Default::default()
            },
        )
        .expect("precompute");
        let _ = pre.guidance();
        println!("  m={m}: n={}, generation {:.1} ms", answers.len(), ms(t));
    }
}

/// Fig. 5: brute force vs heuristics (runtime and value), L=5, D=3.
fn fig5() {
    header("fig5", "comparison with brute force: L=5, D=3, k=2..4");
    let answers = example_1_1_answers(42).expect("workload");
    let l = 5;
    let index = CandidateIndex::build(&answers, l).expect("index");
    let lower_bound = {
        let total: f64 = answers.vals().iter().sum();
        total / answers.len() as f64
    };
    println!(
        "{:<14} {:>4} {:>14} {:>10}",
        "algorithm", "k", "runtime (ms)", "avg value"
    );
    for k in 2..=4usize {
        let params = Params::new(k, l, 3);
        let t = Instant::now();
        let bf = brute_force(&answers, &index, &params, BruteForceOptions::default()).unwrap();
        println!("{:<14} {:>4} {:>14.3} {:>10.4}", "BF", k, ms(t), bf.avg());

        let t = Instant::now();
        let bu = bottom_up(&answers, &index, &params, BottomUpOptions::default()).unwrap();
        println!(
            "{:<14} {:>4} {:>14.3} {:>10.4}",
            "Bottom-Up",
            k,
            ms(t),
            bu.avg()
        );

        let t = Instant::now();
        let fo = fixed_order(&answers, &index, &params, Seeding::None, EvalMode::Delta).unwrap();
        println!(
            "{:<14} {:>4} {:>14.3} {:>10.4}",
            "Fixed-Order",
            k,
            ms(t),
            fo.avg()
        );

        let t = Instant::now();
        let hy = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        println!(
            "{:<14} {:>4} {:>14.3} {:>10.4}",
            "Hybrid",
            k,
            ms(t),
            hy.avg()
        );

        // Randomized variants: average over 20 seeded runs.
        for (name, mk) in [("Random", true), ("K-Means", false)] {
            let t = Instant::now();
            let mut sum = 0.0;
            let runs = 20;
            for seed in 0..runs {
                let seeding = if mk {
                    Seeding::Random { seed }
                } else {
                    Seeding::KMeans { seed, max_iter: 20 }
                };
                sum += fixed_order(&answers, &index, &params, seeding, EvalMode::Delta)
                    .unwrap()
                    .avg();
            }
            println!(
                "{:<14} {:>4} {:>14.3} {:>10.4}",
                name,
                k,
                ms(t) / runs as f64,
                sum / runs as f64
            );
        }
        println!(
            "{:<14} {:>4} {:>14} {:>10.4}",
            "Lower Bound", k, "-", lower_bound
        );
    }
}

/// Fig. 6: runtime/value vs k, L, D, and m.
fn fig6() {
    header(
        "fig6",
        "varying parameters on MovieLens (defaults m=8, k=3, L=40, D=3)",
    );
    let answers = movielens_answers(8, 20, 42).expect("workload");
    println!("n = {} answer groups (m = 8)", answers.len());

    println!("-- (a,b) vary k in {{5,10,20,40}} (L=40, D=3) --");
    let index = CandidateIndex::build(&answers, 40.min(answers.len())).expect("index");
    let l = index.l();
    println!(
        "{:<6} {:>12} {:>12} {:>12}  {:>8} {:>8} {:>8}",
        "k", "BU ms", "FO ms", "HY ms", "BU avg", "FO avg", "HY avg"
    );
    for k in [5usize, 10, 20, 40] {
        let params = Params::new(k, l, 3);
        let t = Instant::now();
        let bu = bottom_up(&answers, &index, &params, BottomUpOptions::default()).unwrap();
        let bu_ms = ms(t);
        let t = Instant::now();
        let fo = fixed_order(&answers, &index, &params, Seeding::None, EvalMode::Delta).unwrap();
        let fo_ms = ms(t);
        let t = Instant::now();
        let hy = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let hy_ms = ms(t);
        println!(
            "{k:<6} {bu_ms:>12.3} {fo_ms:>12.3} {hy_ms:>12.3}  {:>8.4} {:>8.4} {:>8.4}",
            bu.avg(),
            fo.avg(),
            hy.avg()
        );
    }

    println!("-- (c,d) vary L in {{3,9,27,81}} (k=3, D=3) --");
    println!(
        "{:<6} {:>12} {:>12} {:>12}  {:>8} {:>8} {:>8}",
        "L", "BU ms", "FO ms", "HY ms", "BU avg", "FO avg", "HY avg"
    );
    for l in [3usize, 9, 27, 81] {
        let l = l.min(answers.len());
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(3, l, 3);
        let t = Instant::now();
        let bu = bottom_up(&answers, &index, &params, BottomUpOptions::default()).unwrap();
        let bu_ms = ms(t);
        let t = Instant::now();
        let fo = fixed_order(&answers, &index, &params, Seeding::None, EvalMode::Delta).unwrap();
        let fo_ms = ms(t);
        let t = Instant::now();
        let hy = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let hy_ms = ms(t);
        println!(
            "{l:<6} {bu_ms:>12.3} {fo_ms:>12.3} {hy_ms:>12.3}  {:>8.4} {:>8.4} {:>8.4}",
            bu.avg(),
            fo.avg(),
            hy.avg()
        );
    }

    println!("-- (e,f) vary D in 1..6 (k=10, L=40) --");
    let index = CandidateIndex::build(&answers, 40.min(answers.len())).expect("index");
    let l = index.l();
    println!(
        "{:<6} {:>12} {:>12} {:>12}  {:>8} {:>8} {:>8}",
        "D", "BU ms", "FO ms", "HY ms", "BU avg", "FO avg", "HY avg"
    );
    for d in 1..=6usize {
        let params = Params::new(10, l, d);
        let t = Instant::now();
        let bu = bottom_up(&answers, &index, &params, BottomUpOptions::default()).unwrap();
        let bu_ms = ms(t);
        let t = Instant::now();
        let fo = fixed_order(&answers, &index, &params, Seeding::None, EvalMode::Delta).unwrap();
        let fo_ms = ms(t);
        let t = Instant::now();
        let hy = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let hy_ms = ms(t);
        println!(
            "{d:<6} {bu_ms:>12.3} {fo_ms:>12.3} {hy_ms:>12.3}  {:>8.4} {:>8.4} {:>8.4}",
            bu.avg(),
            fo.avg(),
            hy.avg()
        );
    }

    println!("-- (g,h) vary m in {{4,6,8,10}} (k=L=20, D=3): init + algorithm --");
    println!(
        "{:<6} {:>6} {:>14} {:>12} {:>12} {:>12}",
        "m", "n", "init (ms)", "BU ms", "FO ms", "HY ms"
    );
    // Per-m HAVING thresholds keeping n in the paper's 140-280 band.
    for (m, having) in [(4usize, 30usize), (6, 30), (8, 20), (10, 8)] {
        let answers = movielens_answers(m, having, 42).expect("workload");
        let l = 20.min(answers.len());
        let t = Instant::now();
        let index = eager_index(&answers, l).expect("index");
        let init_ms = ms(t);
        let params = Params::new(20, l, 3.min(answers.arity()));
        let t = Instant::now();
        let _ = bottom_up(&answers, &index, &params, BottomUpOptions::default()).unwrap();
        let bu_ms = ms(t);
        let t = Instant::now();
        let _ = fixed_order(&answers, &index, &params, Seeding::None, EvalMode::Delta).unwrap();
        let fo_ms = ms(t);
        let t = Instant::now();
        let _ = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let hy_ms = ms(t);
        println!(
            "{m:<6} {:>6} {init_ms:>14.2} {bu_ms:>12.3} {fo_ms:>12.3} {hy_ms:>12.3}",
            answers.len()
        );
    }
}

/// Fig. 7: cost and benefit of precomputation.
fn fig7() {
    header(
        "fig7",
        "precomputation cost/benefit on synthetic answers (m=8)",
    );

    println!("-- (a) precompute runtime vs target k (L=1000, D=2, N=2087, pool=2x100) --");
    // The paper's fig 7a: descend from a shared pool down to the user's
    // target k; larger targets stop earlier, so runtime decreases with k.
    let answers = synthetic_answers(2087, 8, 7).expect("workload");
    let t = Instant::now();
    let index = eager_index(&answers, 1000).expect("index");
    println!("  init (shared across k): {:.1} ms", ms(t));
    for k in [5usize, 10, 20, 50, 100] {
        let t = Instant::now();
        let pre = Precomputed::build_with_index(
            &answers,
            index.clone(),
            PrecomputeConfig {
                k_min: k,
                k_max: 100,
                d_min: 2,
                d_max: 2,
                ..Default::default()
            },
        )
        .expect("precompute");
        println!(
            "  k={k:<4} precompute {:>9.1} ms  ({} intervals)",
            ms(t),
            pre.stored_intervals()
        );
    }

    println!("-- (b) single runs vs precomputation over 6 runs (N=6955, L=500, D=2) --");
    let answers = synthetic_answers(6955, 8, 11).expect("workload");
    let l = 500;
    let ks = [20usize, 15, 10, 18, 12, 8];
    let t = Instant::now();
    let summarizer = Summarizer::new(&answers, l).expect("index");
    let single_init_ms = ms(t);
    let mut single_cum = single_init_ms;
    print!("  single:      init {single_init_ms:>8.1} ms");
    for (i, &k) in ks.iter().enumerate() {
        let t = Instant::now();
        let _ = summarizer.hybrid(k, 2).unwrap();
        single_cum += ms(t);
        print!("  run{}@{:.0}ms", i + 1, single_cum);
    }
    println!();
    let t = Instant::now();
    let pre = Precomputed::build(
        &answers,
        l,
        PrecomputeConfig {
            k_min: 1,
            k_max: 20,
            d_min: 2,
            d_max: 2,
            ..Default::default()
        },
    )
    .expect("precompute");
    let mut pre_cum = ms(t);
    print!("  precompute:  build {pre_cum:>7.1} ms");
    for (i, &k) in ks.iter().enumerate() {
        let t = Instant::now();
        let _ = pre.solution(k, 2).unwrap();
        pre_cum += ms(t);
        print!("  run{}@{:.0}ms", i + 1, pre_cum);
    }
    println!();

    println!("-- (c,d) single vs precompute vs L (k=20, D=2, N=2087) --");
    let answers = synthetic_answers(2087, 8, 7).expect("workload");
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "L", "init ms", "single ms", "precompute ms", "retrieval ms"
    );
    for l in [200usize, 500, 1000] {
        let t = Instant::now();
        let index = eager_index(&answers, l).expect("index");
        let init_ms = ms(t);
        let params = Params::new(20, l, 2);
        let t = Instant::now();
        let _ = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let single_ms = ms(t);
        let t = Instant::now();
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
        let pre_ms = ms(t);
        let t = Instant::now();
        for k in 1..=20 {
            let _ = pre.solution(k, 2).unwrap();
        }
        let retr_ms = ms(t) / 20.0;
        println!("{l:<8} {init_ms:>12.1} {single_ms:>12.2} {pre_ms:>14.1} {retr_ms:>14.3}");
    }

    println!("-- (e,f) single vs precompute vs N (k=20, L=500, D=2) --");
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "N", "init ms", "single ms", "precompute ms", "retrieval ms"
    );
    for n in [927usize, 2087, 6955] {
        let answers = synthetic_answers(n, 8, 7).expect("workload");
        let l = 500.min(answers.len());
        let t = Instant::now();
        let index = eager_index(&answers, l).expect("index");
        let init_ms = ms(t);
        let params = Params::new(20, l, 2);
        let t = Instant::now();
        let _ = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let single_ms = ms(t);
        let t = Instant::now();
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
        let pre_ms = ms(t);
        let t = Instant::now();
        let _ = pre.solution(20, 2).unwrap();
        let retr_ms = ms(t);
        println!("{n:<8} {init_ms:>12.1} {single_ms:>12.2} {pre_ms:>14.1} {retr_ms:>14.3}");
    }
}

/// Fig. 8: effect of the two §6.3 optimizations.
fn fig8() {
    header("fig8", "optimization ablations (N=2087, m=8, k=20, D=2)");
    let answers = synthetic_answers(2087, 8, 7).expect("workload");

    println!("-- (a) initialization: parent-derived coverage vs naive scan --");
    println!(
        "{:<8} {:>16} {:>16} {:>10}",
        "L", "derived (ms)", "naive scan (ms)", "speedup"
    );
    for l in [200usize, 500, 1000] {
        let t = Instant::now();
        let fast = eager_index(&answers, l).expect("derived build");
        let fast_ms = ms(t);
        let t = Instant::now();
        let slow = CandidateIndex::build_naive(&answers, l).expect("naive");
        let slow_ms = ms(t);
        assert_eq!(fast.len(), slow.len());
        println!(
            "{l:<8} {fast_ms:>16.1} {slow_ms:>16.1} {:>9.0}x",
            slow_ms / fast_ms.max(1e-9)
        );
    }

    println!("-- (b) algorithm: Delta Judgment vs naive marginals (Hybrid, pool 5k) --");
    println!(
        "{:<8} {:>16} {:>16} {:>10}",
        "L", "with delta (ms)", "without (ms)", "speedup"
    );
    for l in [200usize, 500, 1000] {
        let index = CandidateIndex::build(&answers, l).expect("index");
        let params = Params::new(20, l, 2);
        let t = Instant::now();
        let delta =
            qagview_core::hybrid_with(&answers, &index, &params, 5, EvalMode::Delta).unwrap();
        let delta_ms = ms(t);
        let t = Instant::now();
        let naive =
            qagview_core::hybrid_with(&answers, &index, &params, 5, EvalMode::Naive).unwrap();
        let naive_ms = ms(t);
        assert_eq!(
            delta.patterns(),
            naive.patterns(),
            "ablation must not change output"
        );
        println!(
            "{l:<8} {delta_ms:>16.2} {naive_ms:>16.2} {:>9.1}x",
            naive_ms / delta_ms.max(1e-9)
        );
    }

    println!("-- (c) hash values for fields: interned codes vs raw strings --");
    // Isolate the field representation: evaluate the same coverage workload
    // (every top-L singleton's generalizations against all n tuples) over
    // interned u32 codes vs owned strings (paper: ~50x from interning).
    let string_rows: Vec<Vec<String>> = (0..answers.len() as u32)
        .map(|t| {
            (0..answers.arity())
                .map(|i| answers.code_text(i, answers.tuple(t)[i]).to_string())
                .collect()
        })
        .collect();
    for l in [50usize, 100] {
        let t = Instant::now();
        let mut interned_hits = 0usize;
        for top in 0..l as u32 {
            qagview_lattice::Pattern::for_each_generalization(answers.tuple(top), |slots| {
                let p = qagview_lattice::Pattern::new(slots.to_vec());
                for tu in 0..answers.len() as u32 {
                    if p.covers_tuple(answers.tuple(tu)) {
                        interned_hits += 1;
                    }
                }
            });
        }
        let interned_ms = ms(t);
        let t = Instant::now();
        let mut string_hits = 0usize;
        for top in 0..l {
            let top_row = &string_rows[top];
            let m = top_row.len();
            for mask in 0u32..(1 << m) {
                for row in &string_rows {
                    let covers = (0..m).all(|i| mask >> i & 1 == 1 || top_row[i] == row[i]);
                    if covers {
                        string_hits += 1;
                    }
                }
            }
        }
        let string_ms = ms(t);
        assert_eq!(interned_hits, string_hits, "representations must agree");
        println!(
            "  L={l:<5} interned {interned_ms:>9.1} ms   strings {string_ms:>9.1} ms   {:>5.1}x",
            string_ms / interned_ms.max(1e-9)
        );
    }
}

/// Fig. 9: TPC-DS scalability.
fn fig9() {
    header("fig9", "TPC-DS store_sales scalability (k=20, D=2)");
    let t = Instant::now();
    let answers = tpcds_answers(288_040, 1, 7).expect("workload");
    println!(
        "workload: N = {} answer groups (m = 8) generated+queried in {:.1} ms",
        answers.len(),
        ms(t)
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "L", "init ms", "single ms", "precompute ms", "retrieval ms"
    );
    for l in [500usize, 1000, 2000] {
        let t = Instant::now();
        let index = eager_index(&answers, l).expect("index");
        let init_ms = ms(t);
        let params = Params::new(20, l, 2);
        let t = Instant::now();
        let _ = qagview_core::hybrid(&answers, &index, &params, EvalMode::Delta).unwrap();
        let single_ms = ms(t);
        let t = Instant::now();
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
        let pre_ms = ms(t);
        let t = Instant::now();
        let _ = pre.solution(20, 2).unwrap();
        let retr_ms = ms(t);
        println!("{l:<8} {init_ms:>12.1} {single_ms:>12.2} {pre_ms:>14.1} {retr_ms:>14.3}");
    }
}

/// Fig. 16: comparison-visualization layout quality and timing.
fn fig16() {
    header("fig16", "matched vs default placement (D=2)");
    let answers = movielens_answers(4, 20, 42).expect("workload");
    println!(
        "{:<4} {:>10} {:>16} {:>14} {:>16} {:>14} {:>12}",
        "k",
        "(L1,L2)",
        "default dist",
        "default cross",
        "matched dist",
        "matched cross",
        "match ms"
    );
    for (k, l1, l2) in [(5usize, 8usize, 10usize), (10, 15, 20), (20, 30, 40)] {
        let l1 = l1.min(answers.len());
        let l2 = l2.min(answers.len());
        let s1 = Summarizer::new(&answers, l1).unwrap().hybrid(k, 2).unwrap();
        let s2 = Summarizer::new(&answers, l2).unwrap().hybrid(k, 2).unwrap();
        let tr = Transition::between(&answers, &s1, &s2, l2);
        let default = Placement::default_order(tr.right_len());
        let t = Instant::now();
        let (matched, matched_cost) = optimal_placement(&tr);
        let match_ms = ms(t);
        println!(
            "{k:<4} {:>10} {:>16.1} {:>14} {:>16.1} {:>14} {:>12.3}",
            format!("({l1},{l2})"),
            total_distance(&tr, &default),
            band_crossings(&tr, &default),
            matched_cost,
            band_crossings(&tr, &matched),
            match_ms
        );
    }
    // Timing vs brute force (paper: <10 ms matching vs >2 s brute at k=10).
    let s1 = Summarizer::new(&answers, 15.min(answers.len()))
        .unwrap()
        .hybrid(8, 2)
        .unwrap();
    let s2 = Summarizer::new(&answers, 20.min(answers.len()))
        .unwrap()
        .hybrid(8, 2)
        .unwrap();
    let tr = Transition::between(&answers, &s1, &s2, 20.min(answers.len()));
    let t = Instant::now();
    let (_, hungarian_cost) = optimal_placement(&tr);
    let fast_ms = ms(t);
    let n = tr.right_len();
    let cost_matrix: Vec<Vec<f64>> = (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    (0..tr.left_len())
                        .map(|i| tr.overlaps[i][u] as f64 * (i as f64 - v as f64).abs())
                        .sum()
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    let (_, brute_cost) = qagview::viz::hungarian::min_cost_assignment_brute(&cost_matrix);
    let brute_ms = ms(t);
    println!(
        "timing at k={n}: Hungarian {fast_ms:.3} ms vs brute force {brute_ms:.1} ms (costs {hungarian_cost:.1} == {brute_cost:.1})"
    );
}

/// Tables 1 & 2: the simulated user study.
fn table1() {
    header(
        "table1+table2",
        "simulated user study (16 subjects, 3 task groups)",
    );
    let answers = movielens_answers(4, 30, 42).expect("workload");
    println!("workload: n = {} answer groups", answers.len());
    let report = run_study(&answers, &StudyConfig::default()).expect("study");
    print!("{}", report.render());
    let _ = StudyReport::render_table(&report.table1);
}

/// App. A.5: qualitative baseline comparison.
fn table_a5() {
    header(
        "tableA5",
        "qualitative comparison with related approaches (k=4, D=2, L=10)",
    );
    let answers = example_1_1_answers(42).expect("workload");
    let l = 10.min(answers.len());
    let summarizer = Summarizer::new(&answers, l).expect("index");
    let ours = summarizer.hybrid(4, 2).expect("ours");
    println!("-- qagview (avg {:.3}) --", ours.avg());
    print!("{}", ours.render(&answers, false));

    for (label, source) in [
        ("top-10", RuleSource::TopL(l)),
        ("all elements", RuleSource::AllElements),
    ] {
        println!("-- smart drill-down on {label} --");
        for r in smart_drilldown(&answers, 4, source).expect("drill-down") {
            println!(
                "  {}  W={} MCount={} avg={:.2}",
                answers.pattern_to_string(&r.pattern),
                r.weight,
                r.marginal_count,
                r.avg_val
            );
        }
    }

    println!("-- diversified top-k --");
    for p in diversified_topk(&answers, l, 4, 2).expect("divtopk") {
        let row: Vec<&str> = (0..answers.arity())
            .map(|i| answers.code_text(i, answers.tuple(p.tuple)[i]))
            .collect();
        println!(
            "  {} | score {:.2} | nbhd avg {:.2}",
            row.join(", "),
            p.score,
            p.neighborhood_avg
        );
    }

    println!("-- DisC diversity (r=2) --");
    for t in disc_diverse_subset(&answers, l, 2).expect("disc") {
        let row: Vec<&str> = (0..answers.arity())
            .map(|i| answers.code_text(i, answers.tuple(t)[i]))
            .collect();
        println!("  {} | score {:.2}", row.join(", "), answers.val(t));
    }

    for lambda in [0.0, 0.5, 1.0] {
        println!("-- MMR λ={lambda} --");
        for t in mmr_select(&answers, l, 4, lambda).expect("mmr") {
            let row: Vec<&str> = (0..answers.arity())
                .map(|i| answers.code_text(i, answers.tuple(t)[i]))
                .collect();
            println!("  {} | score {:.2}", row.join(", "), answers.val(t));
        }
    }

    println!("-- decision tree (positive leaves <= 4) --");
    match decision_tree::fit_for_k(&answers, l, 4) {
        Ok(tree) => {
            for rule in tree.rules() {
                println!(
                    "  {}  [{} top / {} other, avg {:.2}]",
                    rule.render(&answers),
                    rule.positives,
                    rule.negatives,
                    rule.avg_val
                );
            }
        }
        Err(e) => println!("  (no suitable tree: {e})"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    let t0 = Instant::now();
    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
    if want("fig7") {
        fig7();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig16") {
        fig16();
    }
    if want("table1") || want("table2") {
        table1();
    }
    if want("tableA5") {
        table_a5();
    }
    println!("\ntotal: {:.1} s", t0.elapsed().as_secs_f64());
}
