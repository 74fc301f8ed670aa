//! In-memory column store — the storage substrate of the qagview
//! reproduction.
//!
//! The paper runs its aggregate queries against PostgreSQL after
//! materializing all joins into a single universal relation ("RatingTable",
//! §7). The algorithms only ever see the *answer* of one aggregate query, so
//! the storage layer's job is modest: hold a wide, densely packed relation
//! and scan it fast. We store each attribute as a typed column vector;
//! categorical strings are interned once at ingestion (§6.3's "hash values
//! for fields" optimization) so every downstream comparison is an integer
//! comparison.
//!
//! * [`schema`] — column types, column definitions, named schemas.
//! * [`mod@column`] — typed column vectors with raw slice accessors.
//! * [`selection`] — selection vectors and vectorized predicate kernels
//!   (the scan primitives of the batched query executor).
//! * [`table`] — the table itself plus a row-oriented builder.
//! * [`catalog`] — a named collection of tables (the query engine's `FROM`
//!   resolver).
//! * [`csv`] — a dependency-free CSV loader so real datasets (an actual
//!   MovieLens export, say) can be ingested.
//! * [`raw`] — a deliberately *string-based* row store used only by the
//!   §6.3 hashing ablation benchmark (Fig. 8 family), to quantify what
//!   interning buys.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod raw;
pub mod schema;
pub mod selection;
pub mod table;

pub use catalog::{Catalog, RegisteredTable, TableId};
pub use column::Column;
pub use csv::load_csv;
pub use raw::RawTable;
pub use schema::{ColumnDef, ColumnType, Schema};
pub use selection::{gather_f64, gather_i64_as_f64, SelOp, SelectionVector};
pub use table::{Cell, Table, TableBuilder};
