//! A named collection of tables.

use crate::table::Table;
use qagview_common::{FxHashMap, QagError, Result};
use std::sync::Arc;

/// Stable identity of one registered table.
///
/// Every [`Catalog::register`] call mints a fresh id — including when a
/// name is re-registered — so an id never aliases two different contents.
/// Caches keyed by `(TableId, …)` therefore stay trivially correct across
/// catalog updates: entries for a replaced table simply become unreachable
/// instead of serving stale data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u64);

/// One registered table as the engine resolves it: its in-memory
/// identity, the shared table, and its content fingerprint.
#[derive(Debug, Clone)]
pub struct RegisteredTable {
    /// The registration's stable in-memory id.
    pub id: TableId,
    /// The table itself.
    pub table: Arc<Table>,
    /// [`Table::content_fingerprint`], computed once at registration. Unlike
    /// the id it survives a process restart, so results persisted across
    /// processes are keyed by it.
    pub fingerprint: u64,
}

/// The query engine's `FROM`-clause resolver: a case-insensitive mapping
/// from table names to shared, immutable tables.
///
/// Tables are handed out as [`Arc<Table>`], so a long-lived engine (or a
/// serving thread) can keep a table alive independently of later catalog
/// mutations.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: FxHashMap<String, RegisteredTable>,
    next_id: u64,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `table` under `name` (case-insensitive). Replaces any
    /// existing table of the same name and returns it. The new entry gets
    /// a fresh [`TableId`] even when replacing.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Option<Arc<Table>> {
        self.register_shared(name, Arc::new(table))
    }

    /// [`Catalog::register`] for a table that is already shared. This is
    /// where the table's content fingerprint is computed — once, here,
    /// never per query.
    pub fn register_shared(
        &mut self,
        name: impl Into<String>,
        table: Arc<Table>,
    ) -> Option<Arc<Table>> {
        let id = TableId(self.next_id);
        self.next_id += 1;
        let fingerprint = table.content_fingerprint();
        self.tables
            .insert(
                name.into().to_ascii_lowercase(),
                RegisteredTable {
                    id,
                    table,
                    fingerprint,
                },
            )
            .map(|r| r.table)
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|r| &*r.table)
    }

    /// Look up a table together with its stable id, sharing ownership.
    pub fn get_shared(&self, name: &str) -> Option<(TableId, Arc<Table>)> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|r| (r.id, Arc::clone(&r.table)))
    }

    /// The stable id of a registered table, if any.
    pub fn id_of(&self, name: &str) -> Option<TableId> {
        self.tables.get(&name.to_ascii_lowercase()).map(|r| r.id)
    }

    /// Look up a table, or produce a binding error naming it.
    pub fn require(&self, name: &str) -> Result<&Table> {
        self.get(name)
            .ok_or_else(|| QagError::Binding(format!("unknown table `{name}`")))
    }

    /// [`Catalog::get_shared`], or a binding error naming the table.
    pub fn require_shared(&self, name: &str) -> Result<(TableId, Arc<Table>)> {
        self.get_shared(name)
            .ok_or_else(|| QagError::Binding(format!("unknown table `{name}`")))
    }

    /// The full registration of a table (id, table, content fingerprint),
    /// or a binding error naming it.
    pub fn require_registered(&self, name: &str) -> Result<RegisteredTable> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| QagError::Binding(format!("unknown table `{name}`")))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::table::TableBuilder;

    fn tiny_table() -> Table {
        let schema = Schema::from_pairs(&[("x", ColumnType::Int)]).unwrap();
        TableBuilder::new(schema).finish()
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("RatingTable", tiny_table());
        assert!(c.get("ratingtable").is_some());
        assert!(c.get("RATINGTABLE").is_some());
        assert!(c.require("missing").is_err());
    }

    #[test]
    fn replace_returns_previous() {
        let mut c = Catalog::new();
        assert!(c.register("t", tiny_table()).is_none());
        assert!(c.register("T", tiny_table()).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.register("zeta", tiny_table());
        c.register("alpha", tiny_table());
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
        assert!(!c.is_empty());
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let mut c = Catalog::new();
        c.register("a", tiny_table());
        c.register("b", tiny_table());
        let a = c.id_of("a").unwrap();
        let b = c.id_of("B").unwrap();
        assert_ne!(a, b);
        // Replacing a name mints a fresh id; the old one never comes back.
        c.register("A", tiny_table());
        let a2 = c.id_of("a").unwrap();
        assert_ne!(a, a2);
        assert_ne!(b, a2);
        assert_eq!(c.id_of("b"), Some(b), "unrelated entries keep their id");
    }

    #[test]
    fn registration_fingerprints_content_and_ids_stay_fresh() {
        let mut c = Catalog::new();
        c.register("t", tiny_table());
        let first = c.require_registered("T").unwrap();
        assert_eq!(first.fingerprint, tiny_table().content_fingerprint());
        // Same content under the same name: a fresh id, the same fingerprint.
        c.register("t", tiny_table());
        let second = c.require_registered("t").unwrap();
        assert_ne!(first.id, second.id);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert!(c.require_registered("missing").is_err());
    }

    #[test]
    fn shared_lookup_outlives_replacement() {
        let mut c = Catalog::new();
        c.register("t", tiny_table());
        let (id, table) = c.require_shared("t").unwrap();
        c.register("t", tiny_table());
        // The old Arc is still alive and its id no longer resolves.
        assert_eq!(table.num_rows(), 0);
        assert_ne!(c.id_of("t"), Some(id));
    }
}
