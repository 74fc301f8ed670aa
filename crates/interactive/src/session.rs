//! Query sessions with threshold-reusable group tables.
//!
//! The paper's interactive loop (§6) assumes the answer relation `S` can
//! be re-derived cheaply as the analyst moves the `HAVING` threshold and
//! re-summarizes. A [`QuerySession`] makes that true at the query layer:
//! it caches the finished group phase
//! ([`qagview_query::GroupedResult`]) of every query it runs, keyed by
//! the typed pair `(TableId, GroupSpec fingerprint)`, so a re-run that
//! only changes the `HAVING` thresholds, `ORDER BY` direction, or `LIMIT`
//! — a threshold-slider tick — is answered in `O(groups)` from the cache
//! instead of rescanning the base table. The cache is a bounded LRU
//! ([`crate::cache::LruCache`]), so a long-lived session over many
//! distinct queries cannot grow without bound.
//!
//! `QuerySession` is the lightweight, borrow-based entry point for the
//! query layer alone. The full end-to-end loop — query, summarize,
//! precompute, drill — lives in the owned, thread-shareable
//! [`crate::Explorer`].

use crate::cache::LruCache;
use qagview_common::Result;
use qagview_query::{
    bind, group_aggregate_auto, parse, GroupTable, GroupedResult, ParallelScanStats, QueryOutput,
};
use qagview_storage::{Catalog, TableId};
use std::sync::Arc;

/// Default bound on the number of cached group phases.
pub const DEFAULT_SESSION_CACHE_ENTRIES: usize = 64;

/// An interactive query session over a catalog.
///
/// # Examples
///
/// ```
/// use qagview_interactive::QuerySession;
/// use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
///
/// let schema = Schema::from_pairs(&[
///     ("genre", ColumnType::Str),
///     ("rating", ColumnType::Float),
/// ]).unwrap();
/// let mut b = TableBuilder::new(schema);
/// for (g, r) in [("a", 4.0), ("a", 2.0), ("b", 5.0), ("b", 3.0)] {
///     b.push_row(vec![g.into(), Cell::Float(r)]).unwrap();
/// }
/// let mut catalog = Catalog::new();
/// catalog.register("r", b.finish());
///
/// let mut session = QuerySession::new(&catalog);
/// let base = "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
///             HAVING count(*) > 0 ORDER BY val DESC";
/// session.run(base).unwrap();
/// // Moving the threshold hits the cached group table: no rescan.
/// let strict = "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
///               HAVING count(*) > 9 ORDER BY val DESC";
/// assert!(session.run(strict).unwrap().rows.is_empty());
/// assert_eq!(session.cache_hits(), 1);
/// ```
#[derive(Debug)]
pub struct QuerySession<'a> {
    catalog: &'a Catalog,
    /// Finished group phases keyed by `(table, GroupSpec fingerprint)`.
    cache: LruCache<(TableId, u64), Arc<GroupedResult>>,
    /// Reused across cache misses so the group hash table, direct slot map
    /// and key arena keep their allocations.
    scratch: GroupTable,
    /// Cumulative group-scan path counters.
    scan_stats: ParallelScanStats,
}

impl<'a> QuerySession<'a> {
    /// Open a session over `catalog` with the default cache bound. Tables
    /// are borrowed immutably for the session's lifetime, so cached group
    /// phases can never go stale.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_cache_entries(catalog, DEFAULT_SESSION_CACHE_ENTRIES)
    }

    /// Open a session whose cache holds at most `entries` group phases
    /// (least-recently-used phases are evicted beyond that).
    pub fn with_cache_entries(catalog: &'a Catalog, entries: usize) -> Self {
        QuerySession {
            catalog,
            cache: LruCache::new(entries),
            scratch: GroupTable::new(0),
            scan_stats: ParallelScanStats::default(),
        }
    }

    /// Parse, bind, and execute `sql`, reusing a cached group phase when
    /// one with the same scan/filter/group/aggregate shape exists.
    ///
    /// The output is byte-identical to a cold
    /// [`qagview_query::run_query`]: only the cost changes.
    pub fn run(&mut self, sql: &str) -> Result<QueryOutput> {
        let stmt = parse(sql)?;
        let (table_id, table) = self.catalog.require_shared(&stmt.from)?;
        let bound = bind(&stmt, &table)?;
        let key = (table_id, bound.group.fingerprint());
        if let Some(grouped) = self.cache.get_cloned(&key) {
            return grouped.apply(&bound.output);
        }
        let grouped = group_aggregate_auto(
            &bound.group,
            &table,
            &mut self.scratch,
            &mut self.scan_stats,
        )?;
        let out = grouped.apply(&bound.output);
        self.cache.insert(key, Arc::new(grouped));
        out
    }

    /// How many queries were answered from a cached group phase.
    pub fn cache_hits(&self) -> usize {
        self.cache.stats().hits as usize
    }

    /// How many queries had to run their group phase cold.
    pub fn cache_misses(&self) -> usize {
        self.cache.stats().misses as usize
    }

    /// How many group phases were evicted to stay within the cache bound.
    pub fn cache_evictions(&self) -> usize {
        self.cache.stats().evictions as usize
    }

    /// Number of distinct group phases currently cached.
    pub fn cached_group_phases(&self) -> usize {
        self.cache.len()
    }

    /// How many morsels were served by a worker's pooled scratch (rather
    /// than a fresh allocation) across the session's parallel scans. Zero
    /// while every scan takes the direct or the hashed sequential path.
    pub fn scratch_reuses(&self) -> usize {
        self.scan_stats.scratch_reuses as usize
    }

    /// Cumulative group-scan path counters for the session.
    pub fn scan_stats(&self) -> ParallelScanStats {
        self.scan_stats
    }

    /// Drop every cached group phase (e.g. to release memory in a
    /// long-running session).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_query::run_query;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("adventure", ColumnType::Bool),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: &[(&str, &str, bool, f64)] = &[
            ("action", "M", true, 5.0),
            ("action", "M", true, 4.5),
            ("action", "F", true, 4.0),
            ("action", "F", true, 4.4),
            ("drama", "M", false, 2.0),
            ("drama", "M", false, 2.4),
            ("drama", "F", true, 3.2),
            ("drama", "F", true, 3.4),
            ("comedy", "M", true, 3.9),
            ("comedy", "F", false, 1.5),
        ];
        for &(g, s, a, r) in rows {
            b.push_row(vec![g.into(), s.into(), a.into(), Cell::Float(r)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("ratings", b.finish());
        c
    }

    fn threshold_sql(threshold: usize, dir: &str) -> String {
        format!(
            "SELECT genre, gender, AVG(rating) AS val FROM ratings \
             WHERE adventure = 1 GROUP BY genre, gender \
             HAVING count(*) > {threshold} ORDER BY val {dir}"
        )
    }

    #[test]
    fn threshold_moves_reuse_the_group_phase() {
        let c = catalog();
        let mut session = QuerySession::new(&c);
        session.run(&threshold_sql(0, "DESC")).unwrap();
        assert_eq!(session.cache_misses(), 1);
        for threshold in [1, 2, 0, 3] {
            for dir in ["DESC", "ASC"] {
                let sql = threshold_sql(threshold, dir);
                let warm = session.run(&sql).unwrap();
                let cold = run_query(&c, &sql).unwrap();
                assert_eq!(warm, cold, "{sql}");
            }
        }
        assert_eq!(session.cache_hits(), 8, "every re-run hit the cache");
        assert_eq!(session.cache_misses(), 1);
        assert_eq!(session.cached_group_phases(), 1);
    }

    #[test]
    fn changed_scan_shape_misses_the_cache() {
        let c = catalog();
        let mut session = QuerySession::new(&c);
        session.run(&threshold_sql(0, "DESC")).unwrap();
        // A different WHERE clause is a different group phase.
        let other = "SELECT genre, gender, AVG(rating) AS val FROM ratings \
                     GROUP BY genre, gender HAVING count(*) > 0 ORDER BY val DESC";
        let warm = session.run(other).unwrap();
        assert_eq!(session.cache_misses(), 2);
        assert_eq!(warm, run_query(&c, other).unwrap());
        // And both phases stay cached independently.
        session.run(&threshold_sql(2, "ASC")).unwrap();
        session
            .run(
                "SELECT genre, gender, AVG(rating) AS val FROM ratings \
                  GROUP BY genre, gender HAVING count(*) > 1 ORDER BY val DESC",
            )
            .unwrap();
        assert_eq!(session.cache_hits(), 2);
        assert_eq!(session.cached_group_phases(), 2);
    }

    #[test]
    fn limit_and_unordered_variants_hit_the_cache() {
        let c = catalog();
        let mut session = QuerySession::new(&c);
        let base = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre";
        session.run(base).unwrap();
        for sql in [
            format!("{base} ORDER BY val DESC LIMIT 1"),
            format!("{base} ORDER BY val ASC"),
            format!("{base} HAVING avg(rating) > 0 LIMIT 2"),
        ] {
            let warm = session.run(&sql).unwrap();
            assert_eq!(warm, run_query(&c, &sql).unwrap(), "{sql}");
        }
        // HAVING avg(rating) reuses the projected AVG aggregate, so all
        // three variants share the base group phase.
        assert_eq!(session.cache_hits(), 3);
        assert_eq!(session.cache_misses(), 1);
    }

    #[test]
    fn errors_surface_and_do_not_poison_the_cache() {
        let c = catalog();
        let mut session = QuerySession::new(&c);
        assert!(session
            .run("SELECT ghost, AVG(rating) FROM ratings GROUP BY ghost")
            .is_err());
        assert!(session
            .run("SELECT genre, AVG(rating) FROM nope GROUP BY genre")
            .is_err());
        assert_eq!(session.cached_group_phases(), 0);
        let sql = threshold_sql(0, "DESC");
        assert_eq!(session.run(&sql).unwrap(), run_query(&c, &sql).unwrap());
        session.clear_cache();
        assert_eq!(session.cached_group_phases(), 0);
        session.run(&sql).unwrap();
        assert_eq!(session.cache_misses(), 2, "cleared cache forces a cold run");
    }

    #[test]
    fn cache_bound_evicts_least_recently_used_phase() {
        let c = catalog();
        let mut session = QuerySession::with_cache_entries(&c, 2);
        let sql_a = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre";
        let sql_b = "SELECT gender, AVG(rating) AS val FROM ratings GROUP BY gender";
        let sql_c = "SELECT genre, gender, AVG(rating) AS val FROM ratings \
                     GROUP BY genre, gender";
        session.run(sql_a).unwrap();
        session.run(sql_b).unwrap();
        session.run(sql_a).unwrap(); // refresh A; B becomes LRU
        session.run(sql_c).unwrap(); // evicts B
        assert_eq!(session.cache_evictions(), 1);
        assert_eq!(session.cached_group_phases(), 2);
        session.run(sql_a).unwrap();
        assert_eq!(session.cache_hits(), 2, "A survived the eviction");
        session.run(sql_b).unwrap();
        assert_eq!(session.cache_misses(), 4, "B was evicted and re-ran cold");
        // Outputs stay correct throughout.
        assert_eq!(session.run(sql_b).unwrap(), run_query(&c, sql_b).unwrap());
    }
}
