//! **qagview** — interactive summarization and exploration of top aggregate
//! query answers.
//!
//! A from-scratch Rust implementation of Wen, Zhu, Roy & Yang,
//! *"Interactive Summarization and Exploration of Top Aggregate Query
//! Answers"* (arXiv 1807.11634; demo: QagView, SIGMOD 2018). The facade
//! re-exports the workspace crates and the end-to-end entry points.
//!
//! The primary API is the owned, command-driven exploration engine:
//! [`Explorer`](interactive::Explorer) owns a shared catalog plus every
//! cache layer of the paper's §6 interactive loop, and
//! [`Explorer::open_session`](interactive::Explorer::open_session) —
//! the one documented front door — turns a declarative
//! [`SessionSpec`](interactive::SessionSpec) into an
//! [`ExploreSession`](interactive::ExploreSession) that advances the
//! state `(sql, k, L, D, threshold, drill, fidelity)` one typed command
//! at a time. Each command returns the refreshed summary, the Fig. 2
//! guidance plot, a band-diagram transition from the previous summary,
//! cache provenance saying which layer answered, and a typed
//! [`Fidelity`](interactive::Fidelity) tag saying whether the view is
//! exact, sampled with error bounds, or freshly promoted to exact.
//!
//! Callers that want the answer relation itself rather than a session
//! use [`Explorer::answer_relation`](interactive::Explorer::answer_relation);
//! the free-standing row engine ([`query::run_query`] +
//! [`answers_from_query`]) survives only as the differential test
//! oracle for those paths.
//!
//! # The interactive loop, end to end
//!
//! ```
//! use qagview::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A tiny ratings relation.
//! let schema = Schema::from_pairs(&[
//!     ("genre", ColumnType::Str),
//!     ("who", ColumnType::Str),
//!     ("rating", ColumnType::Float),
//! ]).unwrap();
//! let mut b = TableBuilder::new(schema);
//! for (g, w, r) in [
//!     ("adventure", "student", 4.8), ("adventure", "student", 4.4),
//!     ("adventure", "coder", 4.3), ("romance", "student", 2.0),
//!     ("romance", "coder", 1.6), ("romance", "coder", 1.2),
//! ] {
//!     b.push_row(vec![g.into(), w.into(), Cell::Float(r)]).unwrap();
//! }
//! let mut catalog = Catalog::new();
//! catalog.register("ratings", b.finish());
//!
//! // 2. An owned, Send + Sync engine; sessions share its caches.
//! let engine = Arc::new(Explorer::new(catalog));
//!
//! // 3. The paper-shaped aggregate query opens the loop through the
//! //    one front door: a SessionSpec.
//! let mut session = engine.open_session(SessionSpec {
//!     sql: Some(
//!         "SELECT genre, who, AVG(rating) AS val FROM ratings \
//!          GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC".into(),
//!     ),
//!     ..Default::default()
//! }).unwrap();
//!
//! // 4. A HAVING slider tick: the group phase is reused, and because the
//! //    answer relation happens not to change, so is the whole plane.
//! let r = session.apply(ExploreCommand::SetThreshold(0.5)).unwrap();
//! assert_eq!(r.summary.clusters[0].label, "(adventure, *)");
//! assert_eq!(r.fidelity, Fidelity::Exact);
//! assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
//! assert_eq!(r.provenance.plane, CacheOutcome::Hit);
//!
//! // 5. A k knob move: answered by a plane lookup, with a transition
//! //    diagram back to the previous summary.
//! let r = session.apply(ExploreCommand::SetK(1)).unwrap();
//! assert_eq!(r.summary.clusters[0].label, "(*, *)");
//! assert!(r.transition.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use qagview_baselines as baselines;
pub use qagview_common as common;
pub use qagview_core as core;
pub use qagview_datagen as datagen;
pub use qagview_hierarchy as hierarchy;
pub use qagview_interactive as interactive;
pub use qagview_lattice as lattice;
pub use qagview_query as query;
pub use qagview_serve as serve;
pub use qagview_storage as storage;
pub use qagview_userstudy as userstudy;
pub use qagview_viz as viz;

use qagview_common::Result;
use qagview_lattice::{AnswerSet, AnswerSetBuilder};
use qagview_query::QueryOutput;

/// Convert an executed query's output into the answer relation consumed by
/// the summarization algorithms.
///
/// **Test oracle only.** Production callers go through
/// [`Explorer::open_session`](interactive::Explorer::open_session) (for a
/// session) or
/// [`Explorer::answer_relation`](interactive::Explorer::answer_relation)
/// (for the relation itself); this free-function path — paired with
/// [`query::run_query`] — is kept as the readable reference and
/// differential oracle for the conversion: it renders every output row to
/// display strings and re-interns them through [`AnswerSetBuilder`]. The
/// engine path —
/// [`GroupedResult::apply_answers`](qagview_query::GroupedResult::apply_answers)
/// — ranks and codes only the groups that pass `HAVING`, renders each
/// distinct value once, and builds the relation already in rank order. It
/// is byte-identical to this function applied to the row engine's output
/// (see `crates/query/tests/answers_direct.rs`).
pub fn answers_from_query(output: &QueryOutput) -> Result<AnswerSet> {
    let mut builder = AnswerSetBuilder::new(output.attr_names.clone());
    for row in &output.rows {
        let refs: Vec<&str> = row.attrs.iter().map(|s| s.as_str()).collect();
        builder.push(&refs, row.val)?;
    }
    builder.finish()
}

/// Commonly used items in one import.
///
/// The prelude deliberately does **not** export the row-engine oracle
/// (`run_query` / `answers_from_query`): engine callers open sessions via
/// [`Explorer::open_session`](qagview_interactive::Explorer::open_session)
/// or fetch relations via
/// [`Explorer::answer_relation`](qagview_interactive::Explorer::answer_relation);
/// tests that want the oracle import it by its full path.
pub mod prelude {
    pub use qagview_common::{FaultIo, FaultKind, FaultPlan, RealIo, RetryPolicy, StoreIo};
    pub use qagview_core::{BottomUpOptions, EvalMode, Params, Seeding, Solution, Summarizer};
    pub use qagview_interactive::{
        store, CacheLayer, CacheOutcome, CacheProvenance, ClusterView, Degradation, ExploreCommand,
        ExploreResponse, ExploreSession, ExploreState, Explorer, ExplorerConfig, ExplorerStats,
        Fidelity, FidelityMode, GcReport, GuidancePlot, PoisonStats, PrecomputeConfig, Precomputed,
        QuerySession, SampleSpec, SampleStats, SessionSpec, StoreFileKind, StoreKindStats,
        StoreLayerStats, StoreReader, SummaryView,
    };
    pub use qagview_lattice::{
        AnswerSet, AnswerSetBuilder, AnswersHandle, CandidateIndex, Pattern, STAR,
    };
    pub use qagview_serve::{
        Gateway, GatewayConfig, Metrics, Server, ServerConfig, SessionConfig, SessionStore,
    };
    pub use qagview_storage::{Catalog, Cell, ColumnType, Schema, Table, TableBuilder, TableId};
    pub use qagview_viz::{optimal_placement, render_transition, Placement, Transition};
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_query::{QueryOutput, QueryRow};

    #[test]
    fn answers_from_query_preserves_order_and_values() {
        let output = QueryOutput {
            attr_names: vec!["g".into()],
            val_name: "val".into(),
            rows: vec![
                QueryRow {
                    attrs: vec!["a".into()],
                    val: 3.0,
                },
                QueryRow {
                    attrs: vec!["b".into()],
                    val: 5.0,
                },
            ],
        };
        let answers = answers_from_query(&output).unwrap();
        assert_eq!(answers.len(), 2);
        // Re-sorted by value descending regardless of input order.
        assert_eq!(answers.val(0), 5.0);
        assert_eq!(answers.code_text(0, answers.tuple(0)[0]), "b");
    }

    #[test]
    fn duplicate_groups_rejected_at_conversion() {
        let output = QueryOutput {
            attr_names: vec!["g".into()],
            val_name: "val".into(),
            rows: vec![
                QueryRow {
                    attrs: vec!["a".into()],
                    val: 3.0,
                },
                QueryRow {
                    attrs: vec!["a".into()],
                    val: 5.0,
                },
            ],
        };
        assert!(answers_from_query(&output).is_err());
    }
}
