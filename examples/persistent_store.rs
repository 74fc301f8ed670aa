//! The persistent precompute store, end to end: a first engine pays the
//! cold table scan and `(k, D)` plane build once and writes both the
//! answer relation and the plane set back as `.qag` files; a second
//! engine — standing in for a *restarted process* — warm-starts from the
//! two files without scanning the table, and serves a byte-identical
//! summary in a fraction of the time.
//!
//! ```text
//! cargo run --release --example persistent_store
//! ```

use qagview::datagen::movielens::{self, MovieLensConfig};
use qagview::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const SQL: &str = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
                   GROUP BY hdec, agegrp, gender, occupation \
                   HAVING count(*) > 50 ORDER BY val DESC";

fn engine(catalog: Arc<Catalog>, store_dir: &std::path::Path) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        catalog,
        ExplorerConfig {
            store_dir: Some(store_dir.to_path_buf()),
            ..Default::default()
        },
    ))
}

fn store_outcome(outcome: Option<CacheOutcome>) -> &'static str {
    match outcome {
        Some(CacheOutcome::Hit) => "loaded from .qag",
        Some(_) => "computed cold, written back",
        None => "not consulted",
    }
}

fn report(what: &str, elapsed: std::time::Duration, r: &ExploreResponse) {
    let p = &r.provenance;
    println!(
        "{what}: {elapsed:?}\n  relation {} (group scan {:?})\n  plane    {}",
        store_outcome(p.answers_store),
        p.group_phase,
        store_outcome(p.plane_store)
    );
}

fn main() {
    let table = movielens::generate(&MovieLensConfig {
        ratings: 50_000,
        ..Default::default()
    })
    .expect("movielens generator");
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    let catalog = Arc::new(catalog);

    let dir = std::env::temp_dir().join(format!("qagview-store-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");
    println!("store directory: {}", dir.display());

    // Engine 1: nothing on disk — the scan and the plane build run cold
    // and persist.
    let first = engine(Arc::clone(&catalog), &dir);
    let mut session = first
        .open_session(SessionSpec::default())
        .expect("open session");
    let t = Instant::now();
    let cold = session
        .apply(ExploreCommand::SetQuery(SQL.into()))
        .expect("cold open");
    report("\nengine 1 cold open", t.elapsed(), &cold);
    for entry in std::fs::read_dir(&dir).expect("read store dir").flatten() {
        println!(
            "  wrote {} ({} bytes)",
            entry.file_name().to_string_lossy(),
            entry.metadata().map(|m| m.len()).unwrap_or(0)
        );
    }

    // Engine 2: a "restarted process" — same catalog, empty caches. The
    // relation and the plane come off disk; the table is never scanned.
    let second = engine(Arc::clone(&catalog), &dir);
    let mut session2 = second
        .open_session(SessionSpec::default())
        .expect("open session");
    let t = Instant::now();
    let warm = session2
        .apply(ExploreCommand::SetQuery(SQL.into()))
        .expect("warm open");
    report("engine 2 warm start", t.elapsed(), &warm);
    assert!(
        cold.same_view(&warm),
        "store-served view must be byte-identical"
    );
    println!("views are byte-identical across engines\n");

    println!(
        "top of the k={} summary over {} answers (avg {:.3}):",
        warm.summary.k, warm.summary.total, warm.summary.avg
    );
    for c in warm.summary.clusters.iter().take(4) {
        println!(
            "  {}  avg {:.2} [{} tuples, {} of top-L]",
            c.label, c.avg, c.size, c.top_l
        );
    }
    let stats = second.stats();
    for (kind, k) in [
        ("relation", stats.store.answers),
        ("plane", stats.store.planes),
    ] {
        println!(
            "engine 2 {kind} store: loads {}, probe misses {}, writes {}",
            k.loads, k.probe_misses, k.writes
        );
    }
    println!(
        "engine 2 group scans: {}",
        stats.group_phase.hits + stats.group_phase.misses
    );

    std::fs::remove_dir_all(&dir).expect("clean up store dir");
}
