//! Restricted SQL aggregate query engine — the qagview reproduction's
//! PostgreSQL stand-in.
//!
//! The paper's workloads (App. A.8) are all of one shape:
//!
//! ```sql
//! SELECT g1, ..., gm, AVG(x) AS val
//! FROM t
//! WHERE p1 AND p2 ...
//! GROUP BY g1, ..., gm
//! HAVING COUNT(*) > c
//! ORDER BY val DESC
//! LIMIT n
//! ```
//!
//! This crate implements exactly that fragment end-to-end: [`lexer`] →
//! [`ast`] → [`parser`] → [`plan`] (name/type binding against a
//! [`qagview_storage::Table`], split into the expensive
//! [`plan::GroupSpec`] and the cheap [`plan::OutputSpec`]) → [`exec`]
//! (vectorized batched filter → group-id assignment via a reusable
//! [`group::GroupTable`] → columnar aggregation → `O(groups)` derivation
//! of having/order/limit from the cached [`group::GroupedResult`]). The
//! output is the paper's answer relation `S`: one row per group with its
//! display attribute values and score.
//!
//! Group ids come from one of two key codecs inside the one batch loop.
//! The paper's grouping attributes are small categorical domains, so when
//! the product of the group columns' distinct counts is small (see
//! [`exec::direct_slot_bound`]) a row's group is read from a slot map at
//! `Σ code_j · stride_j` over per-column dense code tables
//! ([`qagview_storage::Table::dense_codes`]); otherwise the key is encoded
//! to `u64` lanes, hashed and probed. [`parallel::group_aggregate_auto`]
//! picks the direct codec when it applies, then the morsel-parallel scan
//! ([`parallel`]) for large tables on multicore hosts, then the hashed
//! sequential scan. Every path is byte-identical to [`exec::group_aggregate`].
//!
//! # Examples
//!
//! ```
//! use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
//! use qagview_query::run_query;
//!
//! let schema = Schema::from_pairs(&[
//!     ("gender", ColumnType::Str),
//!     ("rating", ColumnType::Float),
//! ]).unwrap();
//! let mut b = TableBuilder::new(schema);
//! b.push_row(vec![Cell::from("M"), Cell::from(4.0)]).unwrap();
//! b.push_row(vec![Cell::from("M"), Cell::from(2.0)]).unwrap();
//! b.push_row(vec![Cell::from("F"), Cell::from(5.0)]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("r", b.finish());
//!
//! let out = run_query(&catalog,
//!     "SELECT gender, AVG(rating) AS val FROM r GROUP BY gender ORDER BY val DESC").unwrap();
//! assert_eq!(out.rows.len(), 2);
//! assert_eq!(out.rows[0].attrs[0], "F");
//! assert_eq!(out.rows[0].val, 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod group;
pub mod lexer;
pub mod parallel;
pub mod parser;
pub mod plan;
pub mod sample;

pub use ast::{AggFunc, CmpOp, Literal, OrderDir, SelectStmt};
pub use exec::{
    direct_slot_bound, execute, execute_rows, group_aggregate, group_aggregate_direct_with,
    group_aggregate_with, QueryOutput, QueryRow,
};
pub use group::{GroupTable, GroupedResult};
pub use parallel::{
    group_aggregate_auto, group_aggregate_parallel, group_aggregate_parallel_with, ParallelConfig,
    ParallelScanStats,
};
pub use parser::parse;
pub use plan::{bind, BoundQuery, GroupSpec, OutputSpec};
pub use sample::{group_aggregate_sampled, sample_row_ids, SampleSpec, SampleStats, SampledResult};

use qagview_common::Result;
use qagview_storage::Catalog;

/// Parse, bind, and execute `sql` against `catalog` in one call.
///
/// This is the row-engine-adjacent *oracle* entry point: production
/// callers route through `qagview_interactive::Explorer::open_session`
/// instead, which adds caching, budgets, and progressive fidelity on the
/// same pipeline. Tests keep calling this directly to cross-check them.
pub fn run_query(catalog: &Catalog, sql: &str) -> Result<QueryOutput> {
    let stmt = parse(sql)?;
    let table = catalog.require(&stmt.from)?;
    let bound = bind(&stmt, table)?;
    execute(&bound, table)
}
