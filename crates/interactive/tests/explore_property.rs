//! Property: every command's response is byte-identical to rebuilding the
//! whole pipeline from scratch at the same exploration state.
//!
//! A warm session accumulates cache layers; a cold engine over the same
//! catalog has none. For any reachable state `(sql, k, L, D, threshold,
//! drill)`, replaying just that state on a fresh engine must produce the
//! same summary and plot bit for bit — caches may only ever change the
//! provenance, never the view.

use proptest::prelude::*;
use qagview_interactive::{ExploreCommand, ExploreSession, Explorer, ExplorerConfig};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::sync::Arc;

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("who", ColumnType::Str),
        ("decade", ColumnType::Int),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, i64, f64)] = &[
        ("adventure", "student", 1970, 4.8),
        ("adventure", "student", 1970, 4.4),
        ("adventure", "coder", 1970, 4.3),
        ("adventure", "coder", 1980, 4.1),
        ("romance", "student", 1980, 2.0),
        ("romance", "student", 1990, 2.2),
        ("romance", "coder", 1990, 1.6),
        ("romance", "coder", 1990, 1.2),
        ("western", "student", 1970, 3.0),
        ("western", "coder", 1980, 3.4),
    ];
    for &(g, w, d, r) in rows {
        b.push_row(vec![g.into(), w.into(), Cell::Int(d), Cell::Float(r)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());

    let schema =
        Schema::from_pairs(&[("store", ColumnType::Str), ("profit", ColumnType::Float)]).unwrap();
    let mut b = TableBuilder::new(schema);
    for (s, p) in [("a", 10.0), ("a", 12.0), ("b", 3.0), ("c", 7.0), ("c", 5.0)] {
        b.push_row(vec![s.into(), Cell::Float(p)]).unwrap();
    }
    c.register("stores", b.finish());
    c
}

const SQLS: [&str; 3] = [
    "SELECT genre, who, AVG(rating) AS val FROM ratings GROUP BY genre, who \
     HAVING count(*) > 0 ORDER BY val DESC",
    "SELECT genre, who, decade, AVG(rating) AS val FROM ratings \
     GROUP BY genre, who, decade HAVING count(*) > 0 ORDER BY val DESC",
    "SELECT store, SUM(profit) AS val FROM stores GROUP BY store \
     HAVING count(*) > 0 ORDER BY val DESC",
];

/// Decode one `(kind, arg)` byte pair into a command; drill indices pick a
/// cluster from the previous response, so generated drills are always
/// patterns that exist in the current view.
fn decode(
    kind: u8,
    arg: u8,
    last: Option<&qagview_interactive::ExploreResponse>,
) -> Option<ExploreCommand> {
    match kind % 7 {
        0 => Some(ExploreCommand::SetQuery(
            SQLS[arg as usize % SQLS.len()].to_string(),
        )),
        1 => Some(ExploreCommand::SetThreshold(
            [0.0, 0.5, 1.0, 2.0][arg as usize % 4],
        )),
        2 => Some(ExploreCommand::SetK(1 + arg as usize % 5)),
        3 => Some(ExploreCommand::SetL(1 + arg as usize % 7)),
        4 => Some(ExploreCommand::SetD(arg as usize % 4)),
        5 => last.map(|r| {
            let c = &r.summary.clusters[arg as usize % r.summary.clusters.len()];
            ExploreCommand::DrillDown(c.pattern.clone())
        }),
        _ => last.map(|r| {
            ExploreCommand::DrillDown(qagview_lattice::Pattern::all_star(
                r.summary.attr_names.len(),
            ))
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warm responses equal a from-scratch rebuild at the same state.
    #[test]
    fn responses_match_cold_rebuild(words in prop::collection::vec(any::<u64>(), 8)) {
        let shared = Arc::new(catalog());
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig::default(),
        ));
        let mut warm = ExploreSession::new(Arc::clone(&engine));
        // Always open with a query so every later command is meaningful.
        let mut last = warm
            .apply(ExploreCommand::SetQuery(SQLS[0].to_string()))
            .ok();

        for word in words {
            let (kind, arg) = ((word & 0xff) as u8, ((word >> 8) & 0xff) as u8);
            let Some(cmd) = decode(kind, arg, last.as_ref()) else {
                continue;
            };
            let response = match warm.apply(cmd) {
                Ok(r) => r,
                // Errors (empty relation, drill covering nothing, …) leave
                // the state untouched; nothing to compare.
                Err(_) => continue,
            };

            // Rebuild from scratch: a fresh engine over the same catalog,
            // driven to the same state through session commands.
            let cold_engine = Arc::new(Explorer::from_shared(
                Arc::clone(&shared),
                ExplorerConfig::default(),
            ));
            let mut cold = ExploreSession::new(cold_engine);
            let st = &response.state;
            cold.apply(ExploreCommand::SetQuery(st.sql.clone())).unwrap();
            cold.apply(ExploreCommand::SetK(st.k)).unwrap();
            cold.apply(ExploreCommand::SetL(st.l)).unwrap();
            let mut cold_resp = cold.apply(ExploreCommand::SetD(st.d)).unwrap();
            if let Some(t) = st.threshold {
                cold_resp = cold.apply(ExploreCommand::SetThreshold(t)).unwrap();
            }
            if let Some(p) = &st.drill {
                cold_resp = cold.apply(ExploreCommand::DrillDown(p.clone())).unwrap();
            }

            prop_assert_eq!(&cold_resp.state, st);
            prop_assert_eq!(&cold_resp.summary, &response.summary);
            prop_assert_eq!(&cold_resp.plot, &response.plot);
            // Scores must agree at the bit level, not merely under `==`.
            for (a, b) in cold_resp
                .summary
                .clusters
                .iter()
                .zip(&response.summary.clusters)
            {
                prop_assert_eq!(a.sum.to_bits(), b.sum.to_bits());
                prop_assert_eq!(a.avg.to_bits(), b.avg.to_bits());
            }
            last = Some(response);
        }
    }
}

/// A catalog with one table of a few hundred groups whose counts spread
/// over 1..=12, so most threshold moves change the answer relation.
fn spread_catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("g", ColumnType::Int),
        ("s", ColumnType::Str),
        ("x", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..1500i64 {
        let g = (i * 7919) % 211 - 100;
        if i % 12 > g.rem_euclid(12) {
            continue;
        }
        b.push_row(vec![
            Cell::Int(g),
            format!("s{}", (g * 31).rem_euclid(5)).as_str().into(),
            Cell::Float(((i * 13) % 9) as f64 / 2.0),
        ])
        .unwrap();
    }
    let mut c = Catalog::new();
    c.register("spread", b.finish());
    c
}

/// A relation-changing `SetThreshold` re-applies the session's cached
/// group phase (ranking only what passes the first time, walking a rank
/// of every group after that). Each must serve the relation — and the
/// view — of a cold engine opened at that threshold, which applies a
/// fresh group phase once.
#[test]
fn threshold_ticks_serve_the_relation_of_a_cold_open() {
    let shared = Arc::new(spread_catalog());
    let sql = |t: u32| {
        format!(
            "SELECT g, s, AVG(x) AS val FROM spread GROUP BY g, s \
             HAVING count(*) > {t} ORDER BY val DESC"
        )
    };
    let fresh_engine = || {
        Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig::default(),
        ))
    };
    let engine = fresh_engine();
    let mut warm = ExploreSession::new(Arc::clone(&engine));
    warm.apply(ExploreCommand::SetQuery(sql(0))).unwrap();
    let mut last_fp = engine.answer_relation(&sql(0)).unwrap().fingerprint();
    let mut changes = 0;
    for t in [3, 1, 6, 2, 0, 4, 5] {
        let warm_view = warm
            .apply(ExploreCommand::SetThreshold(f64::from(t)))
            .unwrap();
        let warm_fp = engine.answer_relation(&sql(t)).unwrap().fingerprint();
        let cold_engine = fresh_engine();
        let cold_fp = cold_engine.answer_relation(&sql(t)).unwrap().fingerprint();
        assert_eq!(warm_fp, cold_fp, "relation at threshold {t}");
        let cold_view = ExploreSession::new(cold_engine)
            .apply(ExploreCommand::SetQuery(sql(t)))
            .unwrap();
        assert_eq!(
            warm_view.summary, cold_view.summary,
            "view at threshold {t}"
        );
        changes += usize::from(warm_fp != last_fp);
        last_fp = warm_fp;
    }
    assert_eq!(changes, 7, "every move changes the relation");
}
