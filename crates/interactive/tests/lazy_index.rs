//! The candidate index derives a candidate's coverage on first touch.
//! Everything this crate builds on a lazy index (every `(k, D)` plane
//! solution, the guidance plot, the store image, a drill summary) must be
//! bit-identical to the same build over the index forced eager, and a
//! default plane build must touch only a small share of the candidates.

use qagview_core::{Solution, Summarizer};
use qagview_datagen::synthetic::{answer_set, SyntheticConfig};
use qagview_interactive::{store, PrecomputeConfig, Precomputed};
use qagview_lattice::{AnswerSet, CandidateIndex};
use std::path::PathBuf;
use std::sync::Arc;

fn answers(n: usize, m: usize, seed: u64) -> Arc<AnswerSet> {
    Arc::new(answer_set(&SyntheticConfig::new(n, m, seed)).unwrap())
}

/// The index with every candidate's coverage derived up front.
fn forced(answers: &AnswerSet, l: usize) -> CandidateIndex {
    let index = CandidateIndex::build(answers, l).unwrap();
    for _ in index.iter() {}
    assert_eq!(index.materialized(), index.len());
    index
}

fn assert_same_solution(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(a.covered, b.covered, "{what}: covered");
    assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum bits");
    assert_eq!(a.clusters.len(), b.clusters.len(), "{what}: cluster count");
    for (x, y) in a.clusters.iter().zip(&b.clusters) {
        assert_eq!(x.pattern, y.pattern, "{what}: pattern");
        assert_eq!(x.members, y.members, "{what}: members");
        assert_eq!(x.sum.to_bits(), y.sum.to_bits(), "{what}: cluster sum bits");
    }
}

fn saved_bytes(pre: &Precomputed<'_>, tag: &str) -> Vec<u8> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qag-lazy-index-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planes.qag");
    store::save(pre, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// The default configuration runs the per-`D` descents in parallel, so
/// the lazy arm also races first touches of shared candidates.
#[test]
fn planes_guidance_store_and_drill_match_the_forced_index() {
    for (n, m, l, seed) in [(2_087, 6, 500, 7), (927, 8, 300, 3)] {
        let answers = answers(n, m, seed);
        let cfg = PrecomputeConfig::default();
        let lazy_index = CandidateIndex::build(&answers, l).unwrap();
        let lazy = Precomputed::build_with_index(Arc::clone(&answers), lazy_index, cfg).unwrap();
        let eager =
            Precomputed::build_with_index(Arc::clone(&answers), forced(&answers, l), cfg).unwrap();
        for d in cfg.d_min..=cfg.d_max {
            for k in cfg.k_min..=cfg.k_max {
                assert_same_solution(
                    &lazy.solution(k, d).unwrap(),
                    &eager.solution(k, d).unwrap(),
                    &format!("n={n} plane k={k} D={d}"),
                );
            }
        }
        assert_eq!(lazy.guidance(), eager.guidance());
        assert_eq!(
            saved_bytes(&lazy, &format!("lazy-{n}")),
            saved_bytes(&eager, &format!("eager-{n}"))
        );

        let drill = Summarizer::new(Arc::clone(&answers), l).unwrap();
        let drill_eager = Summarizer::with_index(Arc::clone(&answers), forced(&answers, l));
        for (k, d) in [(5, 1), (10, 2), (20, 3)] {
            assert_same_solution(
                &drill.hybrid(k, d).unwrap(),
                &drill_eager.hybrid(k, d).unwrap(),
                &format!("n={n} drill k={k} D={d}"),
            );
        }
    }
}

/// Pins the laziness: a default plane build at large `L` derives the
/// coverage of well under a tenth of the candidates (0.55% here). Reading
/// patterns through `info` instead of `pattern` derives 3.5%, and an eager
/// pass over the index derives them all.
#[test]
fn a_default_plane_build_derives_few_coverages() {
    let answers = answers(6_955, 8, 11);
    let pre = Precomputed::build(Arc::clone(&answers), 1_000, PrecomputeConfig::default()).unwrap();
    let index = pre.index().unwrap();
    let share = index.materialized() as f64 / index.len() as f64;
    eprintln!(
        "{} of {} candidates derived ({:.2}%)",
        index.materialized(),
        index.len(),
        100.0 * share
    );
    assert!(
        share < 0.02,
        "plane build derived {:.2}% of candidates",
        100.0 * share
    );
}
