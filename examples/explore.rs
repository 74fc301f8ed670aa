//! The full slider-then-knob exploration scenario on the synthetic
//! MovieLens RatingTable, driven end to end through the owned
//! command-driven engine: open Example 1.1's query, tick the `HAVING`
//! slider, turn the `(k, L, D)` knobs, drill into the top cluster, and
//! watch which cache layer answers each command.
//!
//! ```text
//! cargo run --release --example explore
//! ```

use qagview::datagen::movielens::{self, MovieLensConfig};
use qagview::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn describe(tag: &str, r: &ExploreResponse, elapsed: std::time::Duration) {
    let p = &r.provenance;
    let fmt = |o: CacheOutcome| match o {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Skipped => "skipped",
    };
    println!(
        "\n== {tag} ({elapsed:?}) — group {}, answers {}, plane {}{}",
        fmt(p.group_phase),
        fmt(p.answers),
        fmt(p.plane),
        match p.summarizer {
            Some(o) => format!(", summarizer {}", fmt(o)),
            None => String::new(),
        }
    );
    println!(
        "   state: k={} L={} D={} threshold={:?} drill={}",
        r.state.k,
        r.state.l,
        r.state.d,
        r.state.threshold,
        r.state.drill.is_some(),
    );
    println!(
        "   summary over {} answers (covered {}, avg {:.3}):",
        r.summary.total, r.summary.covered, r.summary.avg
    );
    for c in &r.summary.clusters {
        println!(
            "     {}  avg {:.2} [{} tuples, {} of top-L]",
            c.label, c.avg, c.size, c.top_l
        );
    }
}

fn main() {
    let t0 = Instant::now();
    let table = movielens::generate(&MovieLensConfig::default()).expect("generator");
    println!(
        "generated RatingTable: {} rows x {} attributes in {:?}",
        table.num_rows(),
        table.schema().arity(),
        t0.elapsed()
    );
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);

    // The owned engine: Send + Sync, shareable across serving threads.
    let engine = Arc::new(Explorer::new(catalog));
    let mut session = engine
        .open_session(SessionSpec::default())
        .expect("open session");
    let apply = |session: &mut ExploreSession, tag: &str, cmd: ExploreCommand| {
        let t = Instant::now();
        let r = session.apply(cmd).expect(tag);
        describe(tag, &r, t.elapsed());
        r
    };

    // Example 1.1, opened cold: scan + answer relation + (k, D) plane.
    let sql = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val \
               FROM ratingtable WHERE genres_adventure = 1 \
               GROUP BY hdec, agegrp, gender, occupation \
               HAVING count(*) > 50 ORDER BY val DESC";
    apply(
        &mut session,
        "SetQuery (Example 1.1)",
        ExploreCommand::SetQuery(sql.into()),
    );

    // Slider: tighten the support threshold twice. The base table is
    // never rescanned; each tick re-derives S in O(groups).
    apply(
        &mut session,
        "SetThreshold 60",
        ExploreCommand::SetThreshold(60.0),
    );
    let r = apply(
        &mut session,
        "SetThreshold 50 (back)",
        ExploreCommand::SetThreshold(50.0),
    );

    // Knobs: k and D are plane lookups; L rebuilds only the plane layer.
    apply(&mut session, "SetK 6", ExploreCommand::SetK(6));
    apply(&mut session, "SetD 1", ExploreCommand::SetD(1));
    let r_knob = apply(&mut session, "SetK 9", ExploreCommand::SetK(9));
    if let Some(t) = &r_knob.transition {
        println!("\ntransition k=6 -> k=9 (band diagram):");
        print!("{}", t.render_optimal());
    }

    // Drill into the best cluster: re-summarize inside its coverage.
    let top = r.summary.clusters[0].pattern.clone();
    apply(
        &mut session,
        "DrillDown (top cluster)",
        ExploreCommand::DrillDown(top),
    );
    let m = r.summary.attr_names.len();
    apply(
        &mut session,
        "DrillDown all-star (back to overview)",
        ExploreCommand::DrillDown(Pattern::all_star(m)),
    );

    // The guidance plot of the final state, with knee/flat detection.
    let r = apply(&mut session, "SetK 8", ExploreCommand::SetK(8));
    println!("\nFig. 2 guidance plot:");
    print!("{}", r.plot.render_ascii(12));
    for d in 0..=3 {
        let knees = r.plot.knees(d, 0.002);
        let flats = r.plot.flat_regions(d, 0.0005);
        println!("D={d}: knee points {knees:?}, flat k-ranges {flats:?}");
    }

    let stats = engine.stats();
    println!(
        "\nengine cache stats: group {}h/{}m, answers {}h/{}m, planes {}h/{}m, \
         summarizers {}h/{}m ({} evictions total)",
        stats.group_phase.hits,
        stats.group_phase.misses,
        stats.answers.hits,
        stats.answers.misses,
        stats.planes.hits,
        stats.planes.misses,
        stats.summarizers.hits,
        stats.summarizers.misses,
        stats.group_phase.evictions
            + stats.answers.evictions
            + stats.planes.evictions
            + stats.summarizers.evictions,
    );
}
