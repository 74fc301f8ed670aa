//! Shared workload builders for the benchmark harness.
//!
//! Each figure of the paper's evaluation is regenerated by one Criterion
//! bench (`benches/figN_*.rs`) plus one section of the `paper-experiments`
//! binary, all drawing their workloads from this module so the two paths
//! measure identical inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use qagview_common::json;

use qagview_common::Result;
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_datagen::synthetic::{answer_set, SyntheticConfig};
use qagview_datagen::tpcds::{self, StoreSalesConfig};
use qagview_interactive::Explorer;
use qagview_lattice::{AnswerSet, CandidateIndex};
use qagview_storage::Catalog;

/// The §6.3 candidate index with every candidate's coverage derived, as
/// the paper's initialization step computes it. `CandidateIndex::build`
/// alone derives coverage on first touch, so the timed initialization arms
/// (and the Fig. 8(a) ablation against `build_naive`) force it through
/// `iter()` to compare full coverage with full coverage.
pub fn eager_index(answers: &AnswerSet, l: usize) -> Result<CandidateIndex> {
    let index = CandidateIndex::build(answers, l)?;
    for _ in index.iter() {}
    Ok(index)
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up) at compile time.
///
/// The perf binaries read and write `BENCH_hotpath.json` *here*, not in
/// the current working directory — running them from inside a crate
/// directory used to leave a stray baseline file that CI then diffed
/// against nothing.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
        .to_path_buf()
}

/// The paper's MovieLens aggregate query (App. A.8) over a generated
/// RatingTable, with a configurable grouping-attribute count `m`.
///
/// The first `m` attributes are drawn from the paper's running example
/// (hdec, agegrp, gender, occupation) extended with further categorical
/// attributes for larger `m`.
pub fn movielens_answers(m: usize, having: usize, seed: u64) -> Result<AnswerSet> {
    let table = movielens::generate(&MovieLensConfig {
        seed,
        ..Default::default()
    })?;
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    let attrs = [
        "hdec",
        "agegrp",
        "gender",
        "occupation",
        "region",
        "decade",
        "weekday",
        "premium",
        "month",
        "genres_adventure",
    ];
    assert!(
        m >= 1 && m <= attrs.len(),
        "m must be in 1..={}",
        attrs.len()
    );
    let group = attrs[..m].join(", ");
    let sql = format!(
        "SELECT {group}, AVG(rating) AS val FROM ratingtable \
         WHERE genres_adventure = 1 \
         GROUP BY {group} HAVING count(*) > {having} ORDER BY val DESC"
    );
    Ok((*Explorer::new(catalog).answer_relation(&sql)?).clone())
}

/// The paper's Example 1.1 workload: m = 4 (hdec, agegrp, gender,
/// occupation), HAVING count(*) > 50.
pub fn example_1_1_answers(seed: u64) -> Result<AnswerSet> {
    movielens_answers(4, 50, seed)
}

/// A synthetic answer relation with exactly `n` tuples over `m` attributes
/// (the Fig. 7/8 N-sweeps).
pub fn synthetic_answers(n: usize, m: usize, seed: u64) -> Result<AnswerSet> {
    answer_set(&SyntheticConfig::new(n, m, seed))
}

/// The TPC-DS-like workload of Fig. 9: aggregate `avg(net_profit)` grouped
/// by high-cardinality dimensions, tuned to produce tens of thousands of
/// answer groups.
pub fn tpcds_answers(rows: usize, having: usize, seed: u64) -> Result<AnswerSet> {
    let table = tpcds::generate(&StoreSalesConfig { rows, seed })?;
    let mut catalog = Catalog::new();
    catalog.register("store_sales", table);
    let sql = format!(
        "SELECT item_category, month, demo_gender, demo_marital, demo_education, \
         channel, demo_credit, year, AVG(net_profit) AS val \
         FROM store_sales GROUP BY item_category, month, demo_gender, demo_marital, \
         demo_education, channel, demo_credit, year \
         HAVING count(*) > {having} ORDER BY val DESC"
    );
    Ok((*Explorer::new(catalog).answer_relation(&sql)?).clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movielens_workload_produces_ranked_answers() {
        let s = movielens_answers(4, 30, 42).unwrap();
        assert!(
            s.len() > 20,
            "need a non-trivial answer relation, got {}",
            s.len()
        );
        assert_eq!(s.arity(), 4);
        for w in s.vals().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn synthetic_exact_sizes() {
        let s = synthetic_answers(927, 8, 1).unwrap();
        assert_eq!(s.len(), 927);
        assert_eq!(s.arity(), 8);
    }

    #[test]
    fn m_bounds_enforced() {
        assert!(std::panic::catch_unwind(|| movielens_answers(0, 10, 1)).is_err());
        assert!(std::panic::catch_unwind(|| movielens_answers(11, 10, 1)).is_err());
    }
}
