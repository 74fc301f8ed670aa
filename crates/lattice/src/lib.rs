//! Cluster patterns and the coverage semilattice (paper §3–§4.2, §6.3).
//!
//! The summarization framework describes groups of aggregate answers with
//! *clusters*: patterns over the `m` grouping attributes where hidden values
//! are replaced by a don't-care `∗`. This crate implements:
//!
//! * [`answers`] — the answer relation `S` of an aggregate query, re-encoded
//!   with per-attribute dense codes and sorted by score (the input to every
//!   algorithm in the paper).
//! * [`pattern`] — the pattern/cluster type with the paper's coverage
//!   relation (Def. in §3), distance function (Def. 3.1) and least-common-
//!   ancestor (`Merge`'s LCA, §5.1).
//! * [`semilattice`] — set-level helpers over the semilattice of clusters:
//!   antichain checks, minimum pairwise distance, and the monotonicity
//!   property of Prop. 4.2.
//! * [`candidates`] — the §6.3 "cluster generation and mapping to tuples"
//!   optimization: an index of every candidate cluster (ancestors of top-`L`
//!   tuples) whose coverage over all of `S` is derived on first touch, plus
//!   the naive scan variant kept for the Fig. 8(a) ablation.
//! * [`wire`] — on-disk sections for patterns and cluster coverage (the
//!   lattice half of the persistent precompute store), including the lazy
//!   [`wire::ClusterDirectory`] a loaded store serves solutions from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod answers;
pub mod candidates;
pub mod pattern;
pub mod semilattice;
pub mod wire;

pub use answers::{AnswerSet, AnswerSetBuilder, AnswersHandle, TupleId};
pub use candidates::{CandId, CandidateIndex, CandidateInfo};
pub use pattern::{Pattern, STAR};
pub use semilattice::{is_antichain, min_pairwise_distance};
pub use wire::{ClusterDirectory, StoredCluster};
