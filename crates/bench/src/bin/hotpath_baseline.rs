//! Hot-path perf baseline: candidate-index construction and greedy-step
//! marginal evaluation on synthetic answer relations (N ≈ 50k, m ∈ {4, 6}).
//!
//! Writes `BENCH_hotpath.json` at the repository root, not in the working
//! directory: the root is `qagview_bench::repo_root()`, resolved from
//! `CARGO_MANIFEST_DIR` when the binary is compiled. A binary built from a
//! copy of the repository therefore writes into that copy (and overwrites
//! its `BENCH_hotpath.json`); give each copy its own `CARGO_TARGET_DIR` so
//! one copy's build never runs as another's. This file is the perf
//! trajectory anchor: every later optimization reruns this binary and
//! compares against the committed baseline. Three comparisons per
//! workload:
//!
//! * **candidate build** — naive per-candidate scan (Fig. 8(a) ablation)
//!   vs `CandidateIndex::build` with every candidate's coverage derived
//!   (forced through `iter()`), so both arms compute full coverage. The
//!   informational `lazy_build_ms` times `build` alone: generation and
//!   postings, with coverage left to first touch;
//! * **greedy marginals** — per-tuple `marginal_naive` probes vs the fused
//!   word-level `marginal_fused` kernels over the dense (bitset-backed)
//!   candidates — the class where the two paths differ; sparse candidates
//!   share one code path — at three coverage states of the working set
//!   (early ≈25%, mid ≈55%, late ≈ full), since a greedy run sweeps
//!   through all of them. The headline `speedup` is the late state, where
//!   Algorithm 2 leaves fused recomputation as the dominant cost;
//! * **delta greedy** — a full Hybrid run with `EvalMode::Naive` vs
//!   `EvalMode::Delta` (Algorithm 2);
//! * **plane build** — a cold `(k, D)`-plane precomputation (§6.2) over an
//!   `Arc`-shared candidate index: the legacy per-round re-evaluation
//!   engine (`DescentEngine::PerRoundReEval`: O(p²) merge evaluations every
//!   round, O(p²) lifetime diffing) vs the merge-frontier engine
//!   (`DescentEngine::Frontier`: pair LCAs resolved once into a warmed
//!   prototype shared by every `D`-descent, lazy bound-pruned Max-Avg
//!   selection, event-driven lifetimes, D ∈ {0, 1} built once). Every
//!   stored solution across the whole `(k, D)` grid is asserted
//!   byte-identical before timing;
//! * **query exec** — the paper-shaped aggregate query on an N = 50k
//!   MovieLens-like RatingTable: row-at-a-time reference engine vs the
//!   vectorized batched engine (cold), and cold re-execution vs `O(groups)`
//!   threshold re-evaluation from a cached `GroupedResult` (the §6
//!   interactive-loop hot path);
//! * **n scaling** — the same paper query's group phase, hashed
//!   sequential, as the base relation grows 100× (N ∈ {50k, 500k, 5M};
//!   streaming datagen, fingerprint-identical results asserted before
//!   timing). Per-row throughput is recorded per point. An informational
//!   `auto` arm times `group_aggregate_auto`, the dispatch sessions run;
//! * **session tick** — end-to-end command latency of the owned
//!   exploration engine on the same table: a warm `SetThreshold` slider
//!   tick and a warm `SetK` knob move (median of 21) vs rebuilding the
//!   pipeline cold at the same state (warm-vs-cold bar ≥ 10×);
//! * **progressive first paint** — the sampled approximate first paint of
//!   progressive mode (`FidelityMode::Approximate`, refinement worker
//!   disabled so the timing is pure) vs the exact cold open of the same
//!   session at N = 5M. One refined session is first asserted
//!   byte-identical (f64 bits) to a store-less cold exact session at the
//!   same state; the acceptance bar is a ≥ 50× first-paint speedup.
//!
//! Methodology: each timed section reports the best of `reps` runs (min
//! wall clock), so scheduler noise only ever inflates, never deflates, the
//! reported speedups.

use qagview_bench::{eager_index, repo_root, synthetic_answers};
use qagview_core::{
    fixed_order_phase, hybrid_with, run_phases, run_phases_reeval, EvalMode, Evaluator, GreedyRule,
    Params, Seeding, WorkingSet,
};
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_interactive::{
    store, DescentEngine, ExploreCommand, Explorer, ExplorerConfig, Fidelity, FidelityMode,
    PrecomputeConfig, Precomputed, SampleSpec, SessionSpec,
};
use qagview_lattice::{AnswerSet, CandidateIndex};
use qagview_query::{
    bind, execute, execute_rows, group_aggregate, group_aggregate_auto, parse, GroupTable,
    ParallelScanStats,
};
use qagview_storage::{Catalog, TableBuilder};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;

struct Workload {
    m: usize,
    l: usize,
    k: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        m: 4,
        l: 200,
        k: 20,
    },
    Workload {
        m: 6,
        l: 100,
        k: 20,
    },
];

fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Median wall-clock of `reps` runs — used for the session-tick latencies,
/// which are small enough that a median is the more honest central
/// tendency (min would understate lock and allocator jitter).
fn time_median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Absorb candidates (largest coverage first, skipping near-universal ones
/// so the mix is realistic) until at least `target_pct` percent of the
/// relation is covered — the coverage states greedy rounds sweep through.
fn working_set_at_coverage<'a>(
    answers: &'a AnswerSet,
    index: &'a CandidateIndex,
    target_pct: usize,
) -> WorkingSet<'a> {
    let mut w = WorkingSet::new(answers, index);
    let mut by_size: Vec<_> = index.iter().map(|(id, info)| (info.count(), id)).collect();
    by_size.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
    for &(count, id) in &by_size {
        if count == 0 || count * 2 > answers.len() {
            continue;
        }
        if w.covered_count() * 100 >= answers.len() * target_pct {
            break;
        }
        if w.add_candidate(id).is_err() {
            continue;
        }
    }
    w
}

/// The `k` range a `plane_build` arm materializes: the paper's Fig. 6
/// sweeps `k` up to 50, so a cold plane build serving that interactive
/// range descends from a pool of `2 · 50` clusters.
const PLANE_K_MAX: usize = 50;

/// One `plane_build` entry: a cold `(k, D)`-plane build over the workload's
/// answer relation (`k ∈ [1, 50]`, every `D` from 0 to m, pool = 2·k_max),
/// built by `Precomputed::build_with_index` with the per-round
/// re-evaluation engine vs the merge-frontier engine. The candidate index
/// is `Arc`-shared so neither arm pays for cloning it; every stored
/// solution across the whole `(k, D)` grid is asserted byte-identical
/// (patterns, member lists, f64 sum bits — the workload's values are
/// dyadic, so the comparison is exact) before anything is timed. The
/// descent-level marginal-evaluation counts are reported alongside from
/// one instrumented D = 0 descent per engine.
fn bench_plane_build_for(
    answers: &AnswerSet,
    index: &CandidateIndex,
    wl: &Workload,
) -> (String, f64) {
    let arc_answers = Arc::new(answers.clone());
    let arc_index = Arc::new(index.clone());
    let d_max = wl.m;
    let cfg_frontier = PrecomputeConfig {
        k_min: 1,
        k_max: PLANE_K_MAX,
        d_min: 0,
        d_max,
        pool_factor: 2,
        eval: EvalMode::Delta,
        parallel: false,
        engine: DescentEngine::Frontier,
    };
    let cfg_reeval = PrecomputeConfig {
        engine: DescentEngine::PerRoundReEval,
        ..cfg_frontier
    };

    // Byte-equality across the whole (k, D) grid before timing anything.
    let frontier = Precomputed::build_with_index(
        Arc::clone(&arc_answers),
        Arc::clone(&arc_index),
        cfg_frontier,
    )
    .expect("frontier build");
    let reeval =
        Precomputed::build_with_index(Arc::clone(&arc_answers), Arc::clone(&arc_index), cfg_reeval)
            .expect("re-eval build");
    for d in 0..=d_max {
        for k in 1..=PLANE_K_MAX {
            let a = frontier.solution(k, d).expect("frontier solution");
            let b = reeval.solution(k, d).expect("re-eval solution");
            assert_eq!(a.patterns(), b.patterns(), "engines diverge at k={k} d={d}");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "sum bits k={k} d={d}");
            for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                assert_eq!(ca.members, cb.members, "members k={k} d={d}");
            }
        }
    }
    drop((frontier, reeval));

    let reeval_ms = time_best_ms(3, || {
        Precomputed::build_with_index(Arc::clone(&arc_answers), Arc::clone(&arc_index), cfg_reeval)
            .unwrap()
    });
    let frontier_ms = time_best_ms(3, || {
        Precomputed::build_with_index(
            Arc::clone(&arc_answers),
            Arc::clone(&arc_index),
            cfg_frontier,
        )
        .unwrap()
    });
    let speedup = reeval_ms / frontier_ms;

    // Context: marginal evaluations of one D = 0 descent per engine.
    let params = Params::new(PLANE_K_MAX, wl.l, 0);
    let w0 = fixed_order_phase(
        answers,
        index,
        &params,
        2 * PLANE_K_MAX,
        Seeding::None,
        EvalMode::Delta,
    )
    .expect("fixed-order phase");
    let mut w = w0.clone();
    let mut ev_reeval = Evaluator::new(EvalMode::Delta);
    run_phases_reeval(
        &mut w,
        0,
        1,
        &mut ev_reeval,
        GreedyRule::SolutionAvg,
        |_| {},
    )
    .expect("re-eval descent");
    let mut w = w0.clone();
    let mut ev_frontier = Evaluator::new(EvalMode::Delta);
    run_phases(
        &mut w,
        0,
        1,
        &mut ev_frontier,
        GreedyRule::SolutionAvg,
        |_| {},
    )
    .expect("frontier descent");

    eprintln!(
        "  plane build (k<=50, {} planes, pool {}): re-eval {reeval_ms:.2} ms, \
         frontier {frontier_ms:.2} ms ({speedup:.1}x); d=0 descent evals {} -> {}",
        d_max + 1,
        2 * PLANE_K_MAX,
        ev_reeval.eval_calls(),
        ev_frontier.eval_calls(),
    );
    let json = format!(
        r#"      {{
        "m": {m}, "k_max": {PLANE_K_MAX}, "pool": {pool}, "d_planes": {planes},
        "reeval_ms": {reeval_ms:.3},
        "frontier_ms": {frontier_ms:.3},
        "speedup": {speedup:.2},
        "d0_descent_marginal_evals_reeval": {er},
        "d0_descent_marginal_evals_frontier": {ef}
      }}"#,
        m = wl.m,
        pool = 2 * PLANE_K_MAX,
        planes = d_max + 1,
        er = ev_reeval.eval_calls(),
        ef = ev_frontier.eval_calls(),
    );
    (json, speedup)
}

/// The `query_exec` section: vectorized vs row-at-a-time execution and
/// threshold re-evaluation from a cached grouped result, on the paper's
/// MovieLens query over an N-row RatingTable.
fn bench_query_exec(all_ok: &mut bool) -> String {
    let table = movielens::generate(&MovieLensConfig {
        ratings: N,
        ..Default::default()
    })
    .expect("movielens table");
    let rows = table.num_rows();
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    let table = catalog.require("ratingtable").unwrap();

    // The paper's Example 1.1 grouping (m = 4) over the full relation —
    // the group phase at its heaviest (every row grouped and aggregated).
    let sql_at = |threshold: usize| {
        format!(
            "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
             GROUP BY hdec, agegrp, gender, occupation \
             HAVING count(*) > {threshold} ORDER BY val DESC LIMIT 100"
        )
    };
    let bound = bind(&parse(&sql_at(10)).unwrap(), table).expect("bind");

    // Engines must agree before their times mean anything.
    let vec_out = execute(&bound, table).expect("vectorized");
    let row_out = execute_rows(&bound, table).expect("row engine");
    assert_eq!(vec_out, row_out, "engines diverge");

    let row_ms = time_best_ms(5, || execute_rows(&bound, table).unwrap());
    let vec_ms = time_best_ms(5, || execute(&bound, table).unwrap());
    let exec_speedup = row_ms / vec_ms;

    // Threshold sweep: a slider pass over 8 HAVING positions of the same
    // top-L query (the paper's summarization input is the top-L prefix),
    // cold re-execution vs O(groups) re-derivation from one cached group
    // phase.
    let thresholds = [5usize, 10, 20, 30, 50, 75, 100, 150];
    let bounds: Vec<_> = thresholds
        .iter()
        .map(|&t| bind(&parse(&sql_at(t)).unwrap(), table).unwrap())
        .collect();
    let grouped = group_aggregate(&bound.group, table).expect("group phase");
    for b in &bounds {
        assert_eq!(
            grouped.apply(&b.output).unwrap(),
            execute(b, table).unwrap(),
            "reuse diverges from cold execution"
        );
    }
    let cold_ms = time_best_ms(3, || {
        for b in &bounds {
            black_box(execute(b, table).unwrap());
        }
    });
    let reuse_ms = time_best_ms(3, || {
        for b in &bounds {
            black_box(grouped.apply(&b.output).unwrap());
        }
    });
    let reuse_speedup = cold_ms / reuse_ms;

    eprintln!(
        "query exec ({rows} rows, {} groups): row {row_ms:.2} ms, vectorized {vec_ms:.2} ms \
         ({exec_speedup:.1}x); threshold sweep x{}: cold {cold_ms:.2} ms, reuse {reuse_ms:.3} ms \
         ({reuse_speedup:.0}x)",
        grouped.num_groups(),
        thresholds.len()
    );
    // Static bars are coarse sanity floors; the precise guard is the CI
    // trajectory gate (`perf_trajectory`), which compares every enforced
    // metric against the committed baseline with a 25% tolerance. The
    // vectorized floor sits at 2x because the *row* engine's absolute time
    // swings with the host (the ratio's denominator), while the vectorized
    // time itself is stable.
    if exec_speedup < 2.0 {
        *all_ok = false;
        eprintln!("  WARNING: vectorized execution below the 2x acceptance floor");
    }
    if reuse_speedup < 20.0 {
        *all_ok = false;
        eprintln!("  WARNING: threshold reuse below the 20x acceptance bar");
    }

    format!(
        r#"  "query_exec": {{
    "sql": "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable GROUP BY hdec, agegrp, gender, occupation HAVING count(*) > t ORDER BY val DESC LIMIT 100",
    "rows": {rows},
    "groups": {groups},
    "aggregates": {aggs},
    "row_at_a_time_ms": {row_ms:.3},
    "vectorized_ms": {vec_ms:.3},
    "speedup": {exec_speedup:.2},
    "threshold_reeval": {{
      "sweep_positions": {positions},
      "cold_ms": {cold_ms:.3},
      "reuse_ms": {reuse_ms:.4},
      "speedup": {reuse_speedup:.2}
    }}
  }}"#,
        groups = grouped.num_groups(),
        aggs = grouped.num_aggs(),
        positions = thresholds.len(),
    )
}

/// The `store_warm_start` section: the plane tier of the store alone —
/// serving a first summary from a persisted `.qag` plane file versus
/// building the same plane set cold, both from an answer relation already
/// in memory.
///
/// The cold arm is the full §6.2 initialization a process without a plane
/// file must run: candidate-index construction plus every `(k ≤ 50,
/// D ≤ m)` descent ([`Precomputed::build`]). The warm arm opens the plane
/// file (read + checksum + header/interval/state decode; coverage
/// sections stay zero-copy in the buffer) and serves `solution(k, d)`.
/// Neither arm includes obtaining the relation (a table scan, or a
/// relation-file load), so this is not the end-to-end warm start of a
/// restarted process; perfbench's `warm_start_ms_p50` times that. Before
/// timing anything, every stored
/// solution across the whole grid is asserted byte-identical (patterns,
/// member lists, f64 sum/value bits, guidance plot) between the built and
/// the loaded plane set.
fn bench_store_warm_start(all_ok: &mut bool) -> String {
    let wl = &WORKLOADS[1]; // m = 6 — the heavier plane workload
    let answers = synthetic_answers(N, wl.m, 7).expect("synthetic workload");
    let cfg = PrecomputeConfig {
        k_min: 1,
        k_max: PLANE_K_MAX,
        d_min: 0,
        d_max: wl.m,
        pool_factor: 2,
        eval: EvalMode::Delta,
        parallel: false,
        engine: DescentEngine::Frontier,
    };
    let (first_k, first_d) = (20usize, 2usize);

    // Build once, persist, and hold the byte-identity bar before timing.
    let built = Precomputed::build(&answers, wl.l, cfg).expect("cold build");
    // Keyed by process id: the fingerprint is deterministic (fixed seed),
    // so two concurrent baseline runs on one host must not share a file —
    // one run's cleanup would yank it out from under the other's timing
    // loop.
    let path = std::env::temp_dir().join(format!(
        "qag-bench-{}-{}",
        std::process::id(),
        store::plane_file_name(answers.fingerprint(), wl.l, PLANE_K_MAX, 2)
    ));
    store::save(&built, &path).expect("save plane store");
    let file_bytes = std::fs::metadata(&path).expect("stat store").len();
    let loaded = store::load(&path, &answers).expect("load plane store");
    for d in 0..=wl.m {
        for k in 1..=PLANE_K_MAX {
            let a = built.solution(k, d).expect("built solution");
            let b = loaded.solution(k, d).expect("loaded solution");
            assert_eq!(a.patterns(), b.patterns(), "store diverges at k={k} d={d}");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "sum bits k={k} d={d}");
            for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                assert_eq!(ca.members, cb.members, "members k={k} d={d}");
            }
            assert_eq!(
                built.value(k, d).expect("value").to_bits(),
                loaded.value(k, d).expect("value").to_bits(),
                "value bits k={k} d={d}"
            );
        }
    }
    assert_eq!(built.guidance(), loaded.guidance(), "guidance plots differ");
    let clusters_stored = loaded.stored_intervals();
    drop((built, loaded));

    let cold_ms = time_best_ms(3, || {
        let pre = Precomputed::build(&answers, wl.l, cfg).expect("cold build");
        pre.solution(first_k, first_d).expect("first summary")
    });
    let warm_ms = time_best_ms(5, || {
        let pre = store::load(&path, &answers).expect("warm load");
        pre.solution(first_k, first_d).expect("first summary")
    });
    let speedup = cold_ms / warm_ms;
    let _ = std::fs::remove_file(&path);

    eprintln!(
        "store warm start (m={}, {} planes, {} intervals, {file_bytes} bytes): \
         cold build+first-summary {cold_ms:.2} ms, open-from-store {warm_ms:.3} ms ({speedup:.0}x)",
        wl.m,
        wl.m + 1,
        clusters_stored,
    );
    if speedup < 50.0 {
        *all_ok = false;
        eprintln!("  WARNING: store warm start below the 50x acceptance bar");
    }

    format!(
        r#"  "store_warm_start": {{
    "what": "fresh-process first summary: open a persisted .qag plane store (read + checksum + lazy-coverage decode) vs rebuilding the plane set cold (candidate index + all (k,D) descents); loaded plane asserted byte-identical across the whole grid first",
    "m": {m}, "n": {n}, "l": {l}, "k_max": {PLANE_K_MAX}, "d_planes": {planes},
    "file_bytes": {file_bytes},
    "stored_intervals": {clusters_stored},
    "first_summary": {{ "k": {first_k}, "d": {first_d} }},
    "cold_build_ms": {cold_ms:.3},
    "open_from_store_ms": {warm_ms:.4},
    "speedup": {speedup:.2}
  }}"#,
        m = wl.m,
        n = answers.len(),
        l = wl.l,
        planes = wl.m + 1,
    )
}

/// The `n_scaling` section: the hashed sequential group phase of the
/// paper query as the base relation grows 100× (N ∈ {50k, 500k, 5M}),
/// plus the dispatching `group_aggregate_auto` that sessions run.
///
/// Each table is materialized through the streaming generator
/// ([`movielens::iter_rows`]), so generation allocates O(users + movies)
/// beyond the table itself, and is dropped before the next point. Both
/// arms are asserted fingerprint-identical before anything is timed.
///
/// The trajectory gate enforces the sequential per-row throughput.
/// `auto_ms`/`auto_mrows_per_s` time what a session's cold open runs (the
/// direct-indexed scan, for this query). They are informational: the
/// trajectory gate does not enforce them. The first auto call also builds
/// the table's cached code tables, so timing starts after it.
fn bench_n_scaling(all_ok: &mut bool) -> String {
    let sql = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
               GROUP BY hdec, agegrp, gender, occupation \
               HAVING count(*) > 10 ORDER BY val DESC LIMIT 100";
    let mut points = Vec::new();
    for &(n, reps) in &[(50_000usize, 5usize), (500_000, 3), (5_000_000, 2)] {
        let t = Instant::now();
        let mut b = TableBuilder::with_capacity(movielens::rating_schema(), n);
        for row in movielens::iter_rows(&MovieLensConfig {
            ratings: n,
            ..Default::default()
        }) {
            b.push_row(row).expect("streamed row");
        }
        let table = b.finish();
        let gen_ms = t.elapsed().as_secs_f64() * 1e3;
        let rows = table.num_rows();
        let bound = bind(&parse(sql).unwrap(), &table).expect("bind");

        // Identity before timing: the dispatched scan must reproduce the
        // hashed group phase bit-for-bit at every scale.
        let seq = group_aggregate(&bound.group, &table).expect("sequential group phase");
        let mut scratch = GroupTable::new(0);
        let mut scan = ParallelScanStats::default();
        let auto = group_aggregate_auto(&bound.group, &table, &mut scratch, &mut scan)
            .expect("auto group phase");
        assert_eq!(
            seq.result_fingerprint(),
            auto.result_fingerprint(),
            "auto group phase diverges from sequential at n={n}"
        );
        let groups = seq.num_groups();
        drop((seq, auto));

        let seq_ms = time_best_ms(reps, || group_aggregate(&bound.group, &table).unwrap());
        let auto_ms = time_best_ms(reps, || {
            group_aggregate_auto(&bound.group, &table, &mut scratch, &mut scan).unwrap()
        });
        let seq_mrows = rows as f64 / seq_ms / 1e3;
        let auto_mrows = rows as f64 / auto_ms / 1e3;
        eprintln!(
            "n-scaling n={n}: gen {gen_ms:.0} ms, {rows} rows, {groups} groups; \
             seq {seq_ms:.2} ms ({seq_mrows:.1} Mrows/s), \
             auto {auto_ms:.2} ms ({auto_mrows:.1} Mrows/s, {} direct scans)",
            scan.direct_scans
        );
        // Coarse absolute floor; the trajectory gate owns the tight
        // relative bound against the committed baseline.
        if seq_mrows < 1.0 {
            *all_ok = false;
            eprintln!("  WARNING: sequential group phase below 1 Mrows/s at n={n}");
        }
        points.push(format!(
            r#"      {{ "n": {n}, "rows": {rows}, "groups": {groups}, "gen_ms": {gen_ms:.1}, "seq_ms": {seq_ms:.3}, "seq_mrows_per_s": {seq_mrows:.2}, "auto_ms": {auto_ms:.3}, "auto_mrows_per_s": {auto_mrows:.2} }}"#
        ));
    }

    format!(
        "  \"n_scaling\": {{\n    \"what\": \"hashed sequential group phase of the paper query as N grows 100x, plus the dispatching group_aggregate_auto (informational, not gated); tables stream from the seeded generator and both arms are asserted fingerprint-identical before timing\",\n    \"sql\": \"SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable GROUP BY hdec, agegrp, gender, occupation HAVING count(*) > 10 ORDER BY val DESC LIMIT 100\",\n    \"points\": [\n{}\n    ]\n  }}",
        points.join(",\n")
    )
}

/// The `session_tick` section: command latency of the owned exploration
/// engine on the 50k-row MovieLens table — a warm `SetThreshold` slider
/// tick and a warm `SetK` knob move versus rebuilding the pipeline cold at
/// the same state (fresh engine: scan + answer relation + plane build).
fn bench_session_tick(all_ok: &mut bool) -> String {
    let table = movielens::generate(&MovieLensConfig {
        ratings: N,
        ..Default::default()
    })
    .expect("movielens table");
    let rows = table.num_rows();
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    let catalog = Arc::new(catalog);

    let sql = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
               GROUP BY hdec, agegrp, gender, occupation \
               HAVING count(*) > 50 ORDER BY val DESC";

    // Cold: a fresh engine answers the opening command from nothing.
    let cold_ms = time_median_ms(5, || {
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&catalog),
            ExplorerConfig::default(),
        ));
        let mut session = engine
            .open_session(SessionSpec::default())
            .expect("open session");
        session
            .apply(ExploreCommand::SetQuery(sql.into()))
            .expect("cold open")
    });

    // Warm: one long-lived session; ticks alternate between two values so
    // every measured command does real state-advancing work. The 50.0/50.5
    // threshold pair leaves the answer relation unchanged (counts are
    // integers), which is exactly the §6 slider fast path: group phase and
    // plane answer from cache, the relation re-derives in O(groups).
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(&catalog),
        ExplorerConfig::default(),
    ));
    let mut session = engine
        .open_session(SessionSpec::default())
        .expect("open session");
    let groups = {
        let r = session
            .apply(ExploreCommand::SetQuery(sql.into()))
            .expect("warm open");
        session
            .apply(ExploreCommand::SetK(6))
            .expect("initial SetK");
        // Warm both threshold positions once so the answers layer is hot.
        session
            .apply(ExploreCommand::SetThreshold(50.5))
            .expect("warmup tick");
        session
            .apply(ExploreCommand::SetThreshold(50.0))
            .expect("warmup tick");
        r.summary.total
    };

    let mut flip = false;
    let threshold_tick_ms = time_median_ms(21, || {
        flip = !flip;
        let t = if flip { 50.5 } else { 50.0 };
        session
            .apply(ExploreCommand::SetThreshold(t))
            .expect("threshold tick")
    });
    let mut flip = false;
    let set_k_tick_ms = time_median_ms(21, || {
        flip = !flip;
        let k = if flip { 7 } else { 6 };
        session.apply(ExploreCommand::SetK(k)).expect("k tick")
    });

    let warm_vs_cold = cold_ms / threshold_tick_ms.max(set_k_tick_ms);
    eprintln!(
        "session tick ({rows} rows, {groups} answers): cold open {cold_ms:.2} ms, \
         SetThreshold tick {threshold_tick_ms:.4} ms, SetK tick {set_k_tick_ms:.4} ms \
         (warm-vs-cold {warm_vs_cold:.0}x)"
    );
    if warm_vs_cold < 10.0 {
        *all_ok = false;
        eprintln!("  WARNING: warm session ticks below the 10x acceptance bar");
    }

    format!(
        r#"  "session_tick": {{
    "sql": "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable GROUP BY hdec, agegrp, gender, occupation HAVING count(*) > t ORDER BY val DESC",
    "rows": {rows},
    "answers": {groups},
    "k": 6,
    "cold_open_ms": {cold_ms:.3},
    "set_threshold_tick_ms": {threshold_tick_ms:.4},
    "set_k_tick_ms": {set_k_tick_ms:.4},
    "warm_vs_cold": {warm_vs_cold:.2}
  }}"#
    )
}

/// The `progressive_first_paint` section: what progressive mode buys at
/// N = 5M — a seeded sampled first paint (approximate session, refinement
/// worker disabled so nothing exact runs concurrently on the timed arm)
/// versus the exact cold open of the same query.
///
/// Identity comes first: one approximate session is promoted via
/// `AwaitExact` and its refined view is asserted byte-identical (summary,
/// plot, per-cluster f64 sum/avg bits) to a store-less cold exact session
/// at the same state. Only then are both arms timed, each on a fresh
/// engine over the `Arc`-shared catalog so neither sees a warm cache.
fn bench_progressive_first_paint(all_ok: &mut bool) -> String {
    const ROWS: usize = 5_000_000;
    let sql = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
               GROUP BY hdec, agegrp, gender, occupation \
               HAVING count(*) > 10 ORDER BY val DESC";
    let t = Instant::now();
    let mut b = TableBuilder::with_capacity(movielens::rating_schema(), ROWS);
    for row in movielens::iter_rows(&MovieLensConfig {
        ratings: ROWS,
        ..Default::default()
    }) {
        b.push_row(row).expect("streamed row");
    }
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", b.finish());
    let catalog = Arc::new(catalog);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;

    // The sampled scan is memory-latency-bound (strided gathers across a
    // 5M-row table run ~15x slower per row than the sequential exact
    // scan), so the first-paint sample is sized for this N: 1024 rows
    // keep the whole open around a millisecond while still estimating
    // hundreds of groups. The spec is reported in the JSON section.
    let cfg = ExplorerConfig {
        sample: SampleSpec {
            target_rows: 1_024,
            ..Default::default()
        },
        ..Default::default()
    };
    let fresh_engine = || Arc::new(Explorer::from_shared(Arc::clone(&catalog), cfg.clone()));
    let approx_spec = || SessionSpec {
        sql: Some(sql.into()),
        fidelity: FidelityMode::Approximate,
        background_refine: false,
        ..Default::default()
    };
    let exact_spec = || SessionSpec {
        sql: Some(sql.into()),
        ..Default::default()
    };
    let sample = cfg.sample;

    // Identity before timing: promote one approximate session and hold it
    // against the store-less cold exact path at the same state.
    let engine = fresh_engine();
    let mut s = engine
        .open_session(approx_spec())
        .expect("approximate open");
    let approx = s.apply(ExploreCommand::SetK(6)).expect("approximate SetK");
    let (rel_err, confidence) = match approx.fidelity {
        Fidelity::Approximate {
            rel_err,
            confidence,
        } => (rel_err, confidence),
        ref other => panic!("approximate session served {other:?}"),
    };
    let sampled_answers = approx.summary.total;
    let refined = s.apply(ExploreCommand::AwaitExact).expect("AwaitExact");
    assert_eq!(refined.fidelity, Fidelity::Refined, "promotion must refine");
    let engine2 = fresh_engine();
    let mut s2 = engine2.open_session(exact_spec()).expect("exact open");
    let exact = s2.apply(ExploreCommand::SetK(6)).expect("exact SetK");
    assert_eq!(
        refined.summary, exact.summary,
        "refined view diverges from the cold exact path"
    );
    assert_eq!(refined.plot, exact.plot, "guidance plots diverge");
    for (a, b) in refined
        .summary
        .clusters
        .iter()
        .zip(exact.summary.clusters.iter())
    {
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "cluster sum bits");
        assert_eq!(a.avg.to_bits(), b.avg.to_bits(), "cluster avg bits");
    }
    assert_eq!(refined.summary.avg.to_bits(), exact.summary.avg.to_bits());
    let exact_answers = exact.summary.total;
    drop((s, s2, engine, engine2));

    // Timed arms: a fresh engine per rep — both arms pay their pipeline
    // from nothing, the only difference is the group-phase fidelity.
    let first_paint_ms = time_median_ms(7, || {
        fresh_engine()
            .open_session(approx_spec())
            .expect("sampled first paint")
    });
    let exact_cold_ms = time_median_ms(3, || {
        fresh_engine()
            .open_session(exact_spec())
            .expect("exact cold open")
    });
    let speedup = exact_cold_ms / first_paint_ms;

    eprintln!(
        "progressive first paint ({ROWS} rows, gen {gen_ms:.0} ms, sample {} rows): \
         sampled open {first_paint_ms:.3} ms ({sampled_answers} est. answers, \
         rel_err {rel_err:.4} @ {confidence:.2}), exact cold open {exact_cold_ms:.2} ms \
         ({exact_answers} answers) — {speedup:.0}x",
        sample.target_rows,
    );
    if speedup < 50.0 {
        *all_ok = false;
        eprintln!("  WARNING: sampled first paint below the 50x acceptance bar");
    }

    format!(
        r#"  "progressive_first_paint": {{
    "what": "sampled approximate first paint (FidelityMode::Approximate, refinement worker off) vs exact cold open of the same session at N = 5M; one refined session asserted byte-identical to a store-less cold exact session before timing",
    "sql": "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable GROUP BY hdec, agegrp, gender, occupation HAVING count(*) > 10 ORDER BY val DESC",
    "rows": {ROWS},
    "answers_exact": {exact_answers},
    "answers_sampled": {sampled_answers},
    "sample": {{ "target_rows": {target}, "reservoir": {reservoir} }},
    "rel_err": {rel_err:.6},
    "confidence": {confidence:.2},
    "gen_ms": {gen_ms:.1},
    "first_paint_ms": {first_paint_ms:.4},
    "exact_cold_ms": {exact_cold_ms:.3},
    "speedup": {speedup:.2}
  }}"#,
        target = sample.target_rows,
        reservoir = sample.reservoir,
    )
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut sections = Vec::new();
    let mut plane_sections = Vec::new();
    let mut all_ok = true;

    for wl in &WORKLOADS {
        let answers = synthetic_answers(N, wl.m, 7).expect("synthetic workload");
        eprintln!("workload m={} l={}: {} tuples", wl.m, wl.l, answers.len());

        // --- candidate build ---
        // Same min-of-N protection as the optimized arms, so scheduler
        // noise cannot inflate the naive side of the speedup ratio.
        let naive_ms = time_best_ms(3, || CandidateIndex::build_naive(&answers, wl.l).unwrap());
        let build_ms = time_best_ms(3, || eager_index(&answers, wl.l).unwrap());
        let lazy_build_ms = time_best_ms(3, || CandidateIndex::build(&answers, wl.l).unwrap());
        let index = eager_index(&answers, wl.l).expect("candidate index");
        eprintln!(
            "  build: naive {naive_ms:.1} ms, derived {build_ms:.1} ms, lazy {lazy_build_ms:.1} ms ({} candidates)",
            index.len()
        );

        // --- greedy-step marginals: fused kernel vs per-tuple probes over
        // the dense candidates, at the coverage states of a greedy sweep ---
        let dense_ids: Vec<_> = index
            .iter()
            .filter(|(_, info)| info.cov_bits.is_some())
            .map(|(id, _)| id)
            .collect();
        let all_ids: Vec<_> = index.iter().map(|(id, _)| id).collect();
        let mut state_sections = Vec::new();
        let mut late_speedup = 0.0;
        for (stage, pct) in [("early", 25usize), ("mid", 55), ("late", 100)] {
            let w = working_set_at_coverage(&answers, &index, pct);
            let naive_ms = time_best_ms(5, || {
                let mut acc = (0.0f64, 0u64);
                for &id in &dense_ids {
                    let (s, c) = w.marginal_naive(id);
                    acc.0 += s;
                    acc.1 += u64::from(c);
                }
                acc
            });
            let fused_ms = time_best_ms(5, || {
                let mut acc = (0.0f64, 0u64);
                for &id in &dense_ids {
                    let (s, c) = w.marginal_fused(id);
                    acc.0 += s;
                    acc.1 += u64::from(c);
                }
                acc
            });
            let speedup = naive_ms / fused_ms;
            if stage == "late" {
                late_speedup = speedup;
            }
            eprintln!(
                "  {stage:>5} marginals ({} dense cands, {}/{} covered): naive {naive_ms:.3} ms, fused {fused_ms:.3} ms ({speedup:.1}x)",
                dense_ids.len(),
                w.covered_count(),
                answers.len()
            );
            state_sections.push(format!(
                r#"          {{ "stage": "{stage}", "covered": {}, "naive_per_tuple_ms": {naive_ms:.4}, "fused_ms": {fused_ms:.4}, "speedup": {speedup:.2} }}"#,
                w.covered_count()
            ));
        }
        if late_speedup < 5.0 {
            all_ok = false;
            eprintln!("  WARNING: fused marginal speedup below the 5x acceptance bar");
        }
        // All-candidate aggregate at the mid state, for context (sparse
        // candidates share one code path, so this dilutes toward 1x).
        let w_mid = working_set_at_coverage(&answers, &index, 55);
        let agg_naive_ms = time_best_ms(5, || {
            let mut acc = 0.0;
            for &id in &all_ids {
                acc += w_mid.marginal_naive(id).0;
            }
            acc
        });
        let agg_fused_ms = time_best_ms(5, || {
            let mut acc = 0.0;
            for &id in &all_ids {
                acc += w_mid.marginal_fused(id).0;
            }
            acc
        });

        // --- plane build: per-round re-eval vs merge-frontier descents ---
        let (plane_json, plane_speedup) = bench_plane_build_for(&answers, &index, wl);
        plane_sections.push(plane_json);
        // Floor at 4x (the committed m=6 ratio is ~5.5x): the re-eval
        // arm's absolute time wobbles with the host; the trajectory gate
        // owns the tight relative bound.
        if wl.m == 6 && plane_speedup < 4.0 {
            all_ok = false;
            eprintln!("  WARNING: frontier plane build below the 4x acceptance floor");
        }

        // --- full greedy run: naive vs delta evaluation ---
        let params = Params::new(wl.k, wl.l, 2);
        let run_naive_ms = time_best_ms(2, || {
            hybrid_with(&answers, &index, &params, 5, EvalMode::Naive).unwrap()
        });
        let run_delta_ms = time_best_ms(2, || {
            hybrid_with(&answers, &index, &params, 5, EvalMode::Delta).unwrap()
        });
        eprintln!(
            "  hybrid run: naive {run_naive_ms:.1} ms, delta {run_delta_ms:.1} ms ({:.1}x)",
            run_naive_ms / run_delta_ms
        );

        let mut s = String::new();
        write!(
            s,
            r#"    {{
      "m": {m}, "n": {n}, "l": {l}, "k": {k}, "candidates": {cands},
      "candidate_build": {{
        "naive_scan_ms": {naive_ms:.3},
        "build_ms": {build_ms:.3},
        "lazy_build_ms": {lazy_build_ms:.3},
        "indexed_speedup_vs_naive": {idx_speedup:.2}
      }},
      "greedy_marginals": {{
        "dense_candidates": {dense_cands},
        "states": [
{states}
        ],
        "speedup": {late_speedup:.2},
        "all_candidates_mid_naive_ms": {agg_naive_ms:.4},
        "all_candidates_mid_fused_ms": {agg_fused_ms:.4}
      }},
      "delta_greedy": {{
        "naive_run_ms": {run_naive_ms:.3},
        "delta_run_ms": {run_delta_ms:.3},
        "speedup": {delta_speedup:.2}
      }}
    }}"#,
            m = wl.m,
            n = answers.len(),
            l = wl.l,
            k = wl.k,
            cands = index.len(),
            idx_speedup = naive_ms / build_ms,
            dense_cands = dense_ids.len(),
            states = state_sections.join(",\n"),
            delta_speedup = run_naive_ms / run_delta_ms,
        )
        .expect("string write");
        sections.push(s);
    }

    let query_exec = bench_query_exec(&mut all_ok);
    let n_scaling = bench_n_scaling(&mut all_ok);
    let session_tick = bench_session_tick(&mut all_ok);
    let store_warm_start = bench_store_warm_start(&mut all_ok);
    let progressive = bench_progressive_first_paint(&mut all_ok);
    let plane_build = format!(
        "  \"plane_build\": {{\n    \"what\": \"cold (k,D)-plane precomputation (k in [1,50], D in [0,m], pool=2*k_max, Arc-shared index): per-round re-eval engine vs merge-frontier engine, all stored solutions asserted byte-identical first\",\n    \"workloads\": [\n{}\n    ]\n  }}",
        plane_sections.join(",\n")
    );

    let json = format!(
        "{{\n  \"bench\": \"hotpath_baseline\",\n  \"n_target\": {N},\n  \"threads\": {threads},\n{query_exec},\n{n_scaling},\n{session_tick},\n{store_warm_start},\n{progressive},\n{plane_build},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        sections.join(",\n")
    );
    // Always resolve against the repository root — running from a crate
    // directory must not scatter stray baseline files (the trajectory
    // gate would then diff against nothing).
    let out = repo_root().join("BENCH_hotpath.json");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("{json}");
    eprintln!("wrote {}", out.display());
    if !all_ok {
        eprintln!("hotpath_baseline: speedup bar missed (see warnings above)");
        std::process::exit(1);
    }
}
