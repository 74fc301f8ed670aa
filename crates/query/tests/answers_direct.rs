//! The answer relation a finished group phase derives must be
//! byte-identical to the row-at-a-time engine's rows fed through
//! `AnswerSetBuilder` — for every scan that produces a group phase
//! (direct, hashed, morsel-parallel, and a sample of every row), through
//! both `GroupedResult::apply_answers` and `GroupedResult::apply`, and for
//! a cached group phase re-applied at many thresholds.

use proptest::prelude::*;
use qagview_lattice::{AnswerSet, AnswerSetBuilder};
use qagview_query::{
    bind, execute_rows, group_aggregate, group_aggregate_direct_with, group_aggregate_parallel,
    group_aggregate_sampled, parse, BoundQuery, GroupTable, GroupedResult, ParallelConfig,
    QueryOutput, SampleSpec,
};
use qagview_storage::{Cell, ColumnType, Schema, Table, TableBuilder};

/// Display rows re-interned through the builder: what
/// `qagview::answers_from_query` does.
fn answers_via_strings(output: &QueryOutput) -> qagview_common::Result<AnswerSet> {
    let mut builder = AnswerSetBuilder::new(output.attr_names.clone());
    for row in &output.rows {
        let refs: Vec<&str> = row.attrs.iter().map(|s| s.as_str()).collect();
        builder.push(&refs, row.val)?;
    }
    builder.finish()
}

/// The oracle: the row-at-a-time engine, re-interned through the builder.
fn oracle(bound: &BoundQuery, table: &Table) -> qagview_common::Result<AnswerSet> {
    answers_via_strings(&execute_rows(bound, table)?)
}

/// Equal answer sets, equal fingerprints, and equal score bits — or the
/// same error.
fn assert_same(
    got: &qagview_common::Result<AnswerSet>,
    want: &qagview_common::Result<AnswerSet>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got, want, "{what}");
            assert_eq!(got.fingerprint(), want.fingerprint(), "{what}");
            assert!(
                got.vals()
                    .iter()
                    .zip(want.vals())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "score bits diverge: {what}"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
        (got, want) => panic!("ok/err parity: got {got:?}, want {want:?}: {what}"),
    }
}

/// Both derivations of one group phase against the oracle.
fn assert_phase_matches(grouped: &GroupedResult, bound: &BoundQuery, table: &Table, what: &str) {
    let want = oracle(bound, table);
    assert_same(
        &grouped.apply_answers(&bound.output),
        &want,
        &format!("apply_answers, {what}"),
    );
    let rows = grouped
        .apply(&bound.output)
        .and_then(|o| answers_via_strings(&o));
    assert_same(&rows, &want, &format!("apply, {what}"));
}

fn ratings() -> Table {
    let schema = Schema::from_pairs(&[
        ("gender", ColumnType::Str),
        ("occ", ColumnType::Str),
        ("hdec", ColumnType::Int),
        ("adventure", ColumnType::Bool),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, i64, bool, f64)] = &[
        ("M", "Student", 1975, true, 5.0),
        ("M", "Student", 1975, true, 4.0),
        ("M", "Student", 1980, false, 1.0),
        ("M", "Programmer", 1980, true, 4.0),
        ("F", "Student", 1975, true, 3.0),
        ("F", "Student", 1980, true, 2.0),
        ("F", "Educator", -5, true, 5.0),
        ("F", "Educator", -5, false, 5.0),
    ];
    for &(g, o, h, a, r) in rows {
        b.push_row(vec![
            g.into(),
            o.into(),
            Cell::Int(h),
            a.into(),
            Cell::Float(r),
        ])
        .unwrap();
    }
    b.finish()
}

#[test]
fn direct_answers_match_the_string_round_trip() {
    let t = ratings();
    // Ties, every order direction, limits mid-tie, HAVING variants, int and
    // bool group keys — everything that shapes interning order.
    let queries = [
        "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ ORDER BY val DESC",
        "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ ORDER BY val ASC",
        "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ",
        "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ ORDER BY val DESC",
        "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
         ORDER BY val DESC LIMIT 2",
        "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
         ORDER BY val ASC LIMIT 3",
        "SELECT hdec, adventure, AVG(rating) AS val FROM r GROUP BY hdec, adventure \
         ORDER BY val DESC",
        "SELECT gender, occ, AVG(rating) AS val FROM r WHERE adventure = 1 \
         GROUP BY gender, occ HAVING count(*) > 1 ORDER BY val DESC",
        "SELECT gender, occ, COUNT(*) AS val FROM r GROUP BY gender, occ \
         HAVING avg(rating) >= 3 AND count(*) > 0 ORDER BY val DESC",
        "SELECT gender, AVG(rating) AS val FROM r WHERE rating > 100 GROUP BY gender \
         ORDER BY val DESC",
    ];
    for sql in queries {
        let bound = bind(&parse(sql).unwrap(), &t).unwrap();
        let grouped = group_aggregate(&bound.group, &t).unwrap();
        assert_phase_matches(&grouped, &bound, &t, sql);
    }
}

#[test]
fn direct_answers_error_on_nan_scores() {
    let schema = Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
    let mut b = TableBuilder::new(schema);
    b.push_row(vec![Cell::Int(1), Cell::Float(f64::NAN)])
        .unwrap();
    let t = b.finish();
    let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC";
    let bound = bind(&parse(sql).unwrap(), &t).unwrap();
    let grouped = group_aggregate(&bound.group, &t).unwrap();
    let err = grouped.apply_answers(&bound.output).unwrap_err();
    assert!(err.to_string().contains("NaN"), "{err}");
    assert_phase_matches(&grouped, &bound, &t, sql);
}

#[test]
fn equal_scores_order_by_new_codes_not_by_encoded_keys() {
    // "p" interns before "q", so the tied (p, 1) ranks before (q, 2) by
    // encoded key. But (q, 5) ranks first and gives "q" code 0, so in the
    // relation the tie runs (q, 2) before (p, 1).
    let schema = Schema::from_pairs(&[
        ("s", ColumnType::Str),
        ("i", ColumnType::Int),
        ("x", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for (s, i, x) in [("p", 1, 1.0), ("q", 2, 1.0), ("q", 5, 3.0)] {
        b.push_row(vec![s.into(), Cell::Int(i), Cell::Float(x)])
            .unwrap();
    }
    let t = b.finish();
    let sql = "SELECT s, i, SUM(x) AS val FROM t GROUP BY s, i ORDER BY val DESC";
    let bound = bind(&parse(sql).unwrap(), &t).unwrap();
    let grouped = group_aggregate(&bound.group, &t).unwrap();
    let answers = grouped.apply_answers(&bound.output).unwrap();
    let rendered: Vec<Vec<&str>> = answers
        .iter()
        .map(|(_, codes, _)| {
            codes
                .iter()
                .enumerate()
                .map(|(j, &c)| answers.code_text(j, c))
                .collect()
        })
        .collect();
    assert_eq!(
        rendered,
        vec![vec!["q", "5"], vec!["q", "2"], vec!["p", "1"]]
    );
    assert_phase_matches(&grouped, &bound, &t, sql);
}

/// A row of the randomized differential: negative `Int` keys, two `Str`
/// key columns over one interner, `Bool` keys, and scores with NaN, both
/// zeros and many ties.
#[derive(Debug, Clone)]
struct Row {
    a: i64,
    s1: u8,
    s2: u8,
    b: bool,
    x: f64,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (-4i64..4, 0u8..4, 2u8..6, any::<bool>(), 0u32..24).prop_map(|(a, s1, s2, b, x)| Row {
            a,
            s1,
            s2,
            b,
            x: match x {
                0 => f64::NAN,
                1..=3 => -0.0,
                4..=6 => 0.0,
                k => f64::from(k % 5) - 2.0,
            },
        }),
        1..50,
    )
}

fn build_table(rows: &[Row]) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnType::Int),
        ("s1", ColumnType::Str),
        ("s2", ColumnType::Str),
        ("b", ColumnType::Bool),
        ("x", ColumnType::Float),
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
        ])
        .unwrap();
    }
    t.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Direct, hashed, morsel-parallel and full-sample group phases all
    /// derive the row engine's relation, over every subset of the key
    /// columns (including none), every aggregate, `ORDER BY` in either
    /// direction or none, `LIMIT` from 0 to past the end, and `HAVING`
    /// that passes all, some, or none of the groups.
    #[test]
    fn every_group_phase_derives_the_row_engines_relation(
        rows in arb_rows(),
        cols_mask in 0usize..16,
        agg_idx in 0usize..5,
        order_idx in 0usize..3,
        limit_idx in 0usize..5,
        having_idx in 0usize..4,
    ) {
        let table = build_table(&rows);
        let cols: Vec<&str> = ["a", "s1", "s2", "b"]
            .iter()
            .enumerate()
            .filter(|(i, _)| cols_mask >> i & 1 == 1)
            .map(|(_, c)| *c)
            .collect();
        let agg = ["AVG(x)", "SUM(x)", "COUNT(*)", "MIN(x)", "MAX(x)"][agg_idx];
        let sql = if cols.is_empty() {
            format!("SELECT {agg} AS val FROM t")
        } else {
            let g = cols.join(", ");
            let having = [
                "",
                " HAVING count(*) > 0",
                " HAVING count(*) > 1",
                " HAVING count(*) > 1000",
            ][having_idx];
            let order = ["", " ORDER BY val DESC", " ORDER BY val ASC"][order_idx];
            let limit = ["", " LIMIT 0", " LIMIT 1", " LIMIT 3", " LIMIT 100"][limit_idx];
            format!("SELECT {g}, {agg} AS val FROM t GROUP BY {g}{having}{order}{limit}")
        };
        let bound = bind(&parse(&sql).unwrap(), &table).unwrap();

        let hashed = group_aggregate(&bound.group, &table).unwrap();
        assert_phase_matches(&hashed, &bound, &table, &format!("hashed: {sql}"));

        let mut gt = GroupTable::new(0);
        let direct = group_aggregate_direct_with(&bound.group, &table, &mut gt)
            .unwrap()
            .unwrap_or_else(|| panic!("direct codec declined {sql}"));
        assert_phase_matches(&direct, &bound, &table, &format!("direct: {sql}"));

        let cfg = ParallelConfig::with_partitions(table.num_rows(), 3);
        let morsel = group_aggregate_parallel(&bound.group, &table, &cfg).unwrap();
        assert_phase_matches(&morsel, &bound, &table, &format!("morsel: {sql}"));

        // A sample of every row with room for every row of a group
        // estimates AVG, COUNT, MIN and MAX exactly (SUM is mean · count).
        if agg != "SUM(x)" {
            let spec = SampleSpec {
                seed: 7,
                target_rows: table.num_rows(),
                reservoir: table.num_rows(),
            };
            let sampled = group_aggregate_sampled(&bound.group, &table, &spec, 2).unwrap();
            assert_phase_matches(&sampled.result, &bound, &table, &format!("sampled: {sql}"));
        }
    }
}

/// A table of a few hundred groups whose counts spread over 1..=12.
fn spread_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("g", ColumnType::Int),
        ("s", ColumnType::Str),
        ("x", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..1500i64 {
        let g = (i * 7919) % 211 - 100;
        let reps = 1 + (g.rem_euclid(12));
        if i % 12 >= reps {
            continue;
        }
        b.push_row(vec![
            Cell::Int(g),
            Cell::from(format!("s{}", (g * 31).rem_euclid(5))),
            Cell::Float(((i * 13) % 9) as f64 / 2.0),
        ])
        .unwrap();
    }
    b.finish()
}

#[test]
fn a_cached_group_phase_reapplied_at_many_thresholds_matches_fresh_phases() {
    // The first ordered apply of a phase ranks only what passes; every
    // later one walks a rank of all groups built by the second, in that
    // apply's direction, and walks the other direction as its run-wise
    // reverse. Each re-apply of one cached phase must equal the first
    // apply of a fresh phase, on either side of that boundary and with
    // the rank built in either direction.
    let t = spread_table();
    let query = |threshold: usize, tail: &str| {
        format!(
            "SELECT g, s, AVG(x) AS val FROM t GROUP BY g, s \
             HAVING count(*) > {threshold}{tail}"
        )
    };
    let desc = " ORDER BY val DESC";
    let asc = " ORDER BY val ASC";
    let desc_7 = " ORDER BY val DESC LIMIT 7";
    let asc_3 = " ORDER BY val ASC LIMIT 3";
    let unordered = " LIMIT 4";
    // The second apply of a phase builds its rank in the direction of the
    // first tail: descending in the first pass, ascending in the second.
    for tails in [
        [desc, asc, desc_7, asc_3, unordered],
        [asc, desc, asc_3, desc_7, unordered],
    ] {
        let base = bind(&parse(&query(0, desc)).unwrap(), &t).unwrap();
        let mut gt = GroupTable::new(0);
        let cached = [
            group_aggregate(&base.group, &t).unwrap(),
            group_aggregate_direct_with(&base.group, &t, &mut gt)
                .unwrap()
                .unwrap(),
        ];
        for threshold in [0, 5, 1, 11, 3, 100, 0, 8] {
            for tail in tails {
                let sql = query(threshold, tail);
                let bound = bind(&parse(&sql).unwrap(), &t).unwrap();
                let fresh = group_aggregate(&bound.group, &t).unwrap();
                let want = fresh.apply_answers(&bound.output);
                for phase in &cached {
                    assert_same(&phase.apply_answers(&bound.output), &want, &sql);
                    assert_eq!(
                        phase.apply(&bound.output).unwrap(),
                        group_aggregate(&bound.group, &t)
                            .unwrap()
                            .apply(&bound.output)
                            .unwrap(),
                        "{sql}"
                    );
                }
                assert_same(&want, &oracle(&bound, &t), &sql);
            }
        }
    }
}
