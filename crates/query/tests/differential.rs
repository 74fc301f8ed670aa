//! Differential testing: the executor vs. a naive reference implementation
//! of the same semantics, on random tables and queries; and the direct
//! key codec vs. the hashed group phase and the row-at-a-time engine.

use proptest::prelude::*;
use qagview_query::{
    direct_slot_bound, execute, execute_rows, group_aggregate, group_aggregate_direct_with, parse,
    plan::bind, GroupTable, QueryOutput, QueryRow,
};
use qagview_storage::{Cell, ColumnType, Schema, Table, TableBuilder};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("g1", ColumnType::Str),
        ("g2", ColumnType::Int),
        ("flag", ColumnType::Bool),
        ("x", ColumnType::Float),
    ])
    .unwrap()
}

#[derive(Debug, Clone)]
struct Row {
    g1: u8,
    g2: i64,
    flag: bool,
    x: f64,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (0u8..4, 0i64..3, any::<bool>(), 0u32..100).prop_map(|(g1, g2, flag, x)| Row {
            g1,
            g2,
            flag,
            x: f64::from(x) / 4.0,
        }),
        1..40,
    )
}

fn build_table(rows: &[Row]) -> Table {
    let mut b = TableBuilder::new(schema());
    for r in rows {
        b.push_row(vec![
            Cell::from(format!("s{}", r.g1)),
            Cell::Int(r.g2),
            Cell::Bool(r.flag),
            Cell::Float(r.x),
        ])
        .unwrap();
    }
    b.finish()
}

/// Reference semantics: filter → group → aggregate → having → sort.
fn reference(
    rows: &[Row],
    agg: &str,
    having_min_count: usize,
    flag_filter: Option<bool>,
) -> Vec<QueryRow> {
    let mut groups: BTreeMap<(u8, i64), Vec<f64>> = BTreeMap::new();
    for r in rows {
        if let Some(f) = flag_filter {
            if r.flag != f {
                continue;
            }
        }
        groups.entry((r.g1, r.g2)).or_default().push(r.x);
    }
    let mut out: Vec<QueryRow> = groups
        .into_iter()
        .filter(|(_, xs)| xs.len() > having_min_count)
        .map(|((g1, g2), xs)| {
            let val = match agg {
                "AVG" => xs.iter().sum::<f64>() / xs.len() as f64,
                "SUM" => xs.iter().sum::<f64>(),
                "COUNT" => xs.len() as f64,
                "MIN" => xs.iter().cloned().fold(f64::INFINITY, f64::min),
                "MAX" => xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                other => unreachable!("agg {other}"),
            };
            QueryRow {
                attrs: vec![format!("s{g1}"), g2.to_string()],
                val,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.val
            .partial_cmp(&a.val)
            .unwrap()
            .then_with(|| a.attrs.cmp(&b.attrs))
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Executor output matches reference semantics for every aggregate,
    /// HAVING threshold, and optional WHERE filter. (Exact attrs + values;
    /// order compared as multisets because the executor tie-breaks on
    /// interned group keys rather than display strings.)
    #[test]
    fn executor_matches_reference(
        rows in arb_rows(),
        agg_idx in 0usize..5,
        having in 0usize..3,
        flag_filter in prop::option::of(any::<bool>()),
    ) {
        let agg = ["AVG", "SUM", "COUNT", "MIN", "MAX"][agg_idx];
        let table = build_table(&rows);
        let agg_expr = if agg == "COUNT" { "COUNT(*)".to_string() } else { format!("{agg}(x)") };
        let where_clause = match flag_filter {
            Some(true) => "WHERE flag = true ",
            Some(false) => "WHERE flag = false ",
            None => "",
        };
        let sql = format!(
            "SELECT g1, g2, {agg_expr} AS val FROM t {where_clause}\
             GROUP BY g1, g2 HAVING count(*) > {having} ORDER BY val DESC"
        );
        let stmt = parse(&sql).unwrap();
        let bound = bind(&stmt, &table).unwrap();
        let got = execute(&bound, &table).unwrap();
        // The vectorized engine must agree byte-for-byte (values, order,
        // rendered attrs) with the row-at-a-time reference engine.
        let row_engine = execute_rows(&bound, &table).unwrap();
        prop_assert_eq!(&got, &row_engine, "engines diverge on {}", &sql);
        let expected = reference(&rows, agg, having, flag_filter);

        prop_assert_eq!(got.rows.len(), expected.len(), "row count for {}", sql);
        // Compare as sorted multisets of (attrs, value-bits).
        let canon = |rows: &[QueryRow]| {
            let mut v: Vec<(Vec<String>, u64)> = rows
                .iter()
                .map(|r| (r.attrs.clone(), r.val.to_bits()))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(canon(&got.rows), canon(&expected), "content for {}", sql);
        // And the value sequence must be non-increasing.
        for w in got.rows.windows(2) {
            prop_assert!(w[0].val >= w[1].val);
        }
    }

    /// A grouped result computed once serves every HAVING threshold,
    /// direction, and LIMIT byte-identically to cold execution — on both
    /// engines.
    #[test]
    fn grouped_result_reuse_matches_cold_execution(
        rows in arb_rows(),
        thresholds in prop::collection::vec(0usize..4, 1..4),
        flag_filter in prop::option::of(any::<bool>()),
    ) {
        let table = build_table(&rows);
        let where_clause = match flag_filter {
            Some(true) => "WHERE flag = true ",
            Some(false) => "WHERE flag = false ",
            None => "",
        };
        let base_sql = format!(
            "SELECT g1, g2, AVG(x) AS val FROM t {where_clause}GROUP BY g1, g2"
        );
        let base = bind(&parse(&format!("{base_sql} HAVING count(*) > 0")).unwrap(), &table).unwrap();
        let grouped = group_aggregate(&base.group, &table).unwrap();
        for &th in &thresholds {
            for dir in ["ASC", "DESC"] {
                let sql = format!("{base_sql} HAVING count(*) > {th} ORDER BY val {dir} LIMIT 3");
                let bound = bind(&parse(&sql).unwrap(), &table).unwrap();
                prop_assert_eq!(
                    base.group.fingerprint(),
                    bound.group.fingerprint(),
                    "threshold moves must not change the group phase"
                );
                let reused = grouped.apply(&bound.output).unwrap();
                let cold = execute(&bound, &table).unwrap();
                let cold_rows = execute_rows(&bound, &table).unwrap();
                prop_assert_eq!(&reused, &cold, "reuse vs cold for {}", &sql);
                prop_assert_eq!(&reused, &cold_rows, "reuse vs row engine for {}", &sql);
            }
        }
    }

    /// LIMIT returns a prefix of the unlimited result.
    #[test]
    fn limit_is_a_prefix(rows in arb_rows(), limit in 0usize..6) {
        let table = build_table(&rows);
        let full_sql = "SELECT g1, g2, AVG(x) AS val FROM t GROUP BY g1, g2 ORDER BY val DESC";
        let stmt = parse(full_sql).unwrap();
        let full = execute(&bind(&stmt, &table).unwrap(), &table).unwrap();
        let sql = format!("{full_sql} LIMIT {limit}");
        let stmt = parse(&sql).unwrap();
        let limited = execute(&bind(&stmt, &table).unwrap(), &table).unwrap();
        prop_assert_eq!(limited.rows.len(), limit.min(full.rows.len()));
        for (a, b) in full.rows.iter().zip(&limited.rows) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A row of the direct-codec differential table: negative `Int` keys, two
/// `Str` key columns drawing partly overlapping values from the one
/// interner, `Bool` keys, float values with NaN and both zeros, and a
/// wide `Int` column for sparse `WHERE` selections.
#[derive(Debug, Clone)]
struct KeyRow {
    a: i64,
    s1: u8,
    s2: u8,
    b: bool,
    x: f64,
    n: i64,
}

fn arb_key_rows() -> impl Strategy<Value = Vec<KeyRow>> {
    prop::collection::vec(
        (-6i64..6, 0u8..5, 3u8..8, any::<bool>(), 0u32..40, 0i64..100).prop_map(
            |(a, s1, s2, b, x, n)| KeyRow {
                a,
                s1,
                s2,
                b,
                x: match x {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    k => (f64::from(k) - 20.0) / 8.0,
                },
                n,
            },
        ),
        1..60,
    )
}

fn build_key_table(rows: &[KeyRow]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnType::Int),
        ("s1", ColumnType::Str),
        ("s2", ColumnType::Str),
        ("b", ColumnType::Bool),
        ("x", ColumnType::Float),
        ("n", ColumnType::Int),
    ])
    .unwrap();
    let mut t = TableBuilder::new(schema);
    for r in rows {
        t.push_row(vec![
            Cell::Int(r.a),
            Cell::from(format!("v{}", r.s1)),
            Cell::from(format!("v{}", r.s2)),
            Cell::Bool(r.b),
            Cell::Float(r.x),
            Cell::Int(r.n),
        ])
        .unwrap();
    }
    t.finish()
}

/// Rows as `(attrs, value bits)`, so NaN scores compare equal.
fn canon_rows(out: &QueryOutput) -> Vec<(Vec<String>, u64)> {
    out.rows
        .iter()
        .map(|r| (r.attrs.clone(), r.val.to_bits()))
        .collect()
}

/// Run `sql`'s group phase through the direct key codec, which must
/// apply, and assert it equals the hashed group phase by fingerprint and
/// the row-at-a-time engine row by row (or fails with the same error).
fn assert_direct_matches(sql: &str, table: &Table) {
    let bound = bind(&parse(sql).unwrap(), table).unwrap();
    let hashed = group_aggregate(&bound.group, table).unwrap();
    let mut gt = GroupTable::new(0);
    let direct = group_aggregate_direct_with(&bound.group, table, &mut gt)
        .unwrap()
        .unwrap_or_else(|| panic!("direct codec declined {sql}"));
    assert_eq!(
        direct.result_fingerprint(),
        hashed.result_fingerprint(),
        "direct vs hashed group phase for {sql}"
    );
    match (direct.apply(&bound.output), execute_rows(&bound, table)) {
        (Ok(d), Ok(r)) => assert_eq!(canon_rows(&d), canon_rows(&r), "direct vs rows, {sql}"),
        (Err(d), Err(r)) => assert_eq!(d.to_string(), r.to_string(), "errors for {sql}"),
        (d, r) => panic!("ok/err parity for {sql}: direct {d:?}, rows {r:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The direct key codec reproduces the hashed group phase bit for bit
    /// and the row engine row by row, over every subset of the key
    /// columns (including none), every aggregate, and dense or sparse
    /// selections.
    #[test]
    fn direct_codec_matches_hashed_and_row_engines(
        rows in arb_key_rows(),
        cols_mask in 0usize..16,
        agg_idx in 0usize..5,
        where_idx in 0usize..4,
        having in 0usize..3,
    ) {
        let table = build_key_table(&rows);
        let cols: Vec<&str> = ["a", "s1", "s2", "b"]
            .iter()
            .enumerate()
            .filter(|(i, _)| cols_mask >> i & 1 == 1)
            .map(|(_, c)| *c)
            .collect();
        let agg = ["AVG(x)", "SUM(x)", "COUNT(*)", "MIN(x)", "MAX(x)"][agg_idx];
        let where_clause = ["", "WHERE n < 12 ", "WHERE b = true ", "WHERE s2 <> 'v4' "][where_idx];
        let sql = if cols.is_empty() {
            format!("SELECT {agg} AS val FROM t {where_clause}")
        } else {
            let g = cols.join(", ");
            format!(
                "SELECT {g}, {agg} AS val FROM t {where_clause}GROUP BY {g} \
                 HAVING count(*) > {having} ORDER BY val DESC"
            )
        };
        assert_direct_matches(&sql, &table);
    }
}

#[test]
fn direct_codec_on_an_empty_table() {
    let table = build_key_table(&[]);
    assert_direct_matches("SELECT a, s1, AVG(x) AS val FROM t GROUP BY a, s1", &table);
    assert_direct_matches("SELECT COUNT(*) AS val FROM t", &table);
}

#[test]
fn direct_codec_declines_a_key_range_wider_than_u32() {
    let schema = Schema::from_pairs(&[("k", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
    let mut b = TableBuilder::new(schema);
    for (k, x) in [(i64::MIN, 1.0), (i64::MAX, 2.0), (0, 3.0), (i64::MIN, 4.0)] {
        b.push_row(vec![Cell::Int(k), Cell::Float(x)]).unwrap();
    }
    let table = b.finish();
    let bound = bind(
        &parse("SELECT k, AVG(x) AS val FROM t GROUP BY k ORDER BY val DESC").unwrap(),
        &table,
    )
    .unwrap();
    let mut gt = GroupTable::new(0);
    assert!(group_aggregate_direct_with(&bound.group, &table, &mut gt)
        .unwrap()
        .is_none());
    // The hashed path still answers it, extremes included.
    let out = execute(&bound, &table).unwrap();
    assert_eq!(out, execute_rows(&bound, &table).unwrap());
    let keys: Vec<&str> = out.rows.iter().map(|r| r.attrs[0].as_str()).collect();
    assert_eq!(
        keys,
        vec!["0", "-9223372036854775808", "9223372036854775807"]
    );
}

#[test]
fn direct_codec_applies_up_to_the_slot_bound_and_not_past_it() {
    // Two Int key columns holding `c1` and `c2` distinct values: a key
    // domain of c1 · c2 slots.
    let table_with_cards = |rows: usize, c1: i64, c2: i64| {
        let schema = Schema::from_pairs(&[
            ("k1", ColumnType::Int),
            ("k2", ColumnType::Int),
            ("x", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::with_capacity(schema, rows);
        for i in 0..rows as i64 {
            b.push_row(vec![
                Cell::Int(i % c1 - 3),
                Cell::Int(2 * (i % c2)),
                Cell::Float(i as f64 / 3.0),
            ])
            .unwrap();
        }
        b.finish()
    };
    let sql = "SELECT k1, k2, SUM(x) AS val FROM t GROUP BY k1, k2 ORDER BY val ASC";
    let takes_direct = |table: &Table| {
        let bound = bind(&parse(sql).unwrap(), table).unwrap();
        let mut gt = GroupTable::new(0);
        group_aggregate_direct_with(&bound.group, table, &mut gt)
            .unwrap()
            .is_some()
    };
    // The per-row part of the bound: 4 slots per row.
    assert_eq!(direct_slot_bound(20_000), 80_000);
    assert_direct_matches(sql, &table_with_cards(20_000, 10, 8_000));
    assert!(
        !takes_direct(&table_with_cards(20_000, 9, 8_889)),
        "80,001 slots"
    );
    // Its floor, for small tables (65,537 is prime, so the first key
    // domain past it that two columns of 16k rows can hold is 65,538).
    assert_eq!(direct_slot_bound(16_000), 65_536);
    assert_direct_matches(sql, &table_with_cards(16_000, 256, 256));
    assert!(
        !takes_direct(&table_with_cards(16_000, 6, 10_923)),
        "65,538 slots"
    );
}

#[test]
fn direct_scratch_reuse_resets_only_what_it_touched() {
    // One group table across queries of different key domains: stale
    // slots from an earlier scan must never leak into a later one.
    let rows: Vec<KeyRow> = (0..200)
        .map(|i| KeyRow {
            a: i % 11 - 5,
            s1: (i % 5) as u8,
            s2: (3 + i % 4) as u8,
            b: i % 3 == 0,
            x: f64::from(i as i32) / 7.0,
            n: i % 100,
        })
        .collect();
    let table = build_key_table(&rows);
    let mut gt = GroupTable::new(0);
    for sql in [
        "SELECT a, s1, s2, b, AVG(x) AS val FROM t GROUP BY a, s1, s2, b",
        "SELECT b, AVG(x) AS val FROM t WHERE n < 30 GROUP BY b",
        "SELECT s2, a, AVG(x) AS val FROM t GROUP BY s2, a",
        "SELECT a, s1, s2, b, AVG(x) AS val FROM t WHERE n > 60 GROUP BY a, s1, s2, b",
    ] {
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let reused = group_aggregate_direct_with(&bound.group, &table, &mut gt)
            .unwrap()
            .unwrap();
        let fresh = group_aggregate(&bound.group, &table).unwrap();
        assert_eq!(
            reused.result_fingerprint(),
            fresh.result_fingerprint(),
            "{sql}"
        );
    }
}
