//! Integration: the SQL surface drives the whole stack — predicates,
//! HAVING, ordering and LIMIT all affect the downstream summarization.

use qagview::prelude::*;
// The row-engine oracle, imported by full path: these tests pin the
// reference SQL semantics the engine's cached paths are diffed against.
use qagview::answers_from_query;
use qagview::query::run_query;
use std::sync::Arc;

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("gender", ColumnType::Str),
        ("occupation", ColumnType::Str),
        ("adventure", ColumnType::Bool),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, &str, bool, f64)] = &[
        ("action", "M", "Student", true, 5.0),
        ("action", "M", "Student", true, 4.5),
        ("action", "M", "Coder", true, 4.5),
        ("action", "M", "Coder", true, 4.0),
        ("action", "F", "Student", true, 4.0),
        ("action", "F", "Student", true, 4.4),
        ("drama", "M", "Student", false, 2.0),
        ("drama", "M", "Student", false, 2.4),
        ("drama", "F", "Coder", false, 3.0),
        ("drama", "F", "Coder", false, 2.8),
        ("drama", "F", "Student", true, 3.2),
        ("drama", "F", "Student", true, 3.4),
    ];
    for &(g, s, o, a, r) in rows {
        b.push_row(vec![g.into(), s.into(), o.into(), a.into(), Cell::Float(r)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    c
}

#[test]
fn where_clause_shapes_the_answer_relation() {
    let c = catalog();
    let all = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    let filtered = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         WHERE adventure = 1 GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    assert!(filtered.rows.len() < all.rows.len());
    let answers = answers_from_query(&filtered).unwrap();
    assert_eq!(answers.arity(), 3);
    // All adventure groups are action or (drama, F, Student).
    let summarizer = Summarizer::new(&answers, 2).unwrap();
    let sol = summarizer.hybrid(1, 0).unwrap();
    let p = answers.pattern_to_string(&sol.clusters[0].pattern);
    assert!(
        p.contains("action"),
        "top cluster should be the action block: {p}"
    );
}

#[test]
fn having_prunes_small_groups_before_summarization() {
    let c = catalog();
    let out = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation HAVING count(*) > 1 ORDER BY val DESC",
    )
    .unwrap();
    for row in &out.rows {
        assert!(!row.attrs.is_empty());
    }
    // Every surviving group has >= 2 supporting rows by construction.
    assert_eq!(out.rows.len(), 6);
}

#[test]
fn limit_truncates_the_relation_but_not_its_order() {
    let c = catalog();
    let full = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    let limited = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC LIMIT 3",
    )
    .unwrap();
    assert_eq!(limited.rows.len(), 3);
    for (a, b) in full.rows.iter().zip(&limited.rows) {
        assert_eq!(a, b, "LIMIT must preserve the prefix");
    }
}

/// The engine's answer relation for `sql` and the row-engine oracle's,
/// asserted equal down to the score bits.
fn warm_and_cold(explorer: &Explorer, sql: &str) -> (Arc<AnswerSet>, AnswerSet) {
    let warm = explorer.answer_relation(sql).unwrap();
    let cold = answers_from_query(&run_query(explorer.catalog(), sql).unwrap()).unwrap();
    assert_eq!(*warm, cold, "{sql}");
    assert_eq!(warm.fingerprint(), cold.fingerprint(), "{sql}");
    assert!(
        warm.vals()
            .iter()
            .zip(cold.vals())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "score bits: {sql}"
    );
    (warm, cold)
}

#[test]
fn session_threshold_slider_feeds_summarization_from_the_cached_group_phase() {
    // The §6 interactive loop: the user drags the HAVING threshold and
    // re-summarizes. The engine scans the table only for the first
    // position; every slider position must nevertheless produce an answer
    // relation — and a summary — identical to a cold re-execution.
    let explorer = Explorer::new(catalog());
    let sql_at = |threshold: usize| {
        format!(
            "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
             GROUP BY genre, gender, occupation HAVING count(*) > {threshold} \
             ORDER BY val DESC"
        )
    };
    for threshold in [0, 1, 0, 1] {
        let (warm, cold) = warm_and_cold(&explorer, &sql_at(threshold));
        if warm.len() < 2 {
            continue;
        }
        let l = warm.len().min(4);
        let sol_warm = Summarizer::new(&*warm, l).unwrap().hybrid(2, 0).unwrap();
        let sol_cold = Summarizer::new(&cold, l).unwrap().hybrid(2, 0).unwrap();
        assert_eq!(sol_warm.patterns(), sol_cold.patterns());
    }
    let groups = explorer.stats().group_phase;
    assert_eq!(
        groups.misses, 1,
        "only the first slider position may scan the table"
    );
    assert_eq!(groups.hits, 3);
}

#[test]
fn changed_scan_shape_misses_the_cache() {
    let explorer = Explorer::new(catalog());
    let filtered = |threshold: usize| {
        format!(
            "SELECT genre, gender, AVG(rating) AS val FROM ratings WHERE adventure = 1 \
             GROUP BY genre, gender HAVING count(*) > {threshold} ORDER BY val DESC"
        )
    };
    let unfiltered = |threshold: usize| {
        format!(
            "SELECT genre, gender, AVG(rating) AS val FROM ratings \
             GROUP BY genre, gender HAVING count(*) > {threshold} ORDER BY val DESC"
        )
    };
    warm_and_cold(&explorer, &filtered(0));
    // A different WHERE clause is a different group phase.
    warm_and_cold(&explorer, &unfiltered(0));
    assert_eq!(explorer.stats().group_phase.misses, 2);
    // And both phases stay cached independently.
    warm_and_cold(&explorer, &filtered(1));
    warm_and_cold(&explorer, &unfiltered(1));
    let groups = explorer.stats().group_phase;
    assert_eq!((groups.hits, groups.misses, groups.entries), (2, 2, 2));
}

#[test]
fn limit_and_unordered_variants_hit_the_cache() {
    let explorer = Explorer::new(catalog());
    let base = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre";
    warm_and_cold(&explorer, base);
    for sql in [
        format!("{base} ORDER BY val DESC LIMIT 1"),
        format!("{base} ORDER BY val ASC"),
        format!("{base} HAVING avg(rating) > 0 LIMIT 2"),
    ] {
        warm_and_cold(&explorer, &sql);
    }
    // HAVING avg(rating) reuses the projected AVG aggregate, so all three
    // variants share the base group phase.
    let groups = explorer.stats().group_phase;
    assert_eq!((groups.hits, groups.misses), (3, 1));
}

#[test]
fn binding_errors_surface_cleanly() {
    let c = catalog();
    let err = run_query(&c, "SELECT ghost, AVG(rating) FROM ratings GROUP BY ghost").unwrap_err();
    assert!(err.to_string().contains("ghost"));
    let err = run_query(&c, "SELECT genre, AVG(rating) FROM nope GROUP BY genre").unwrap_err();
    assert!(err.to_string().contains("nope"));
}

#[test]
fn aggregates_other_than_avg_flow_through() {
    let c = catalog();
    for agg in ["SUM(rating)", "COUNT(*)", "MIN(rating)", "MAX(rating)"] {
        let out = run_query(
            &c,
            &format!(
                "SELECT genre, gender, occupation, {agg} AS val FROM ratings \
                 GROUP BY genre, gender, occupation ORDER BY val DESC"
            ),
        )
        .unwrap();
        let answers = answers_from_query(&out).unwrap();
        let summarizer = Summarizer::new(&answers, 2).unwrap();
        let sol = summarizer.hybrid(2, 1).unwrap();
        sol.verify(&answers, &Params::new(2, 2, 1)).unwrap();
    }
}
