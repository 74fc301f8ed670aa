//! CI persistence-roundtrip driver: one process builds and persists the
//! MovieLens plane store, a **separate** process reloads it and asserts
//! byte-identical summaries.
//!
//! ```text
//! store_roundtrip save   <dir>   # process 1: cold build + write-back
//! store_roundtrip verify <dir>   # process 2: warm start from the store
//! ```
//!
//! `save` drives the owned exploration engine with
//! [`ExplorerConfig::store_dir`] pointed at `<dir>`: the paper's Example
//! 1.1 session opens cold, the engine writes the answer relation and the
//! plane set back as `.qag` files,
//! and a bit-exact digest of everything the user saw (summary, guidance
//! plot, exploration state — floats hashed by their bit patterns) lands in
//! `<dir>/summary.digest`.
//!
//! `verify` runs in a fresh process: the same session must now warm-start
//! from the store — the answer relation loaded from its `relation-*.qag`
//! file with zero group scans, and the plane from its `plane-*.qag` file
//! (asserted via cache provenance and the engine counters) — its view must
//! hash to the digest recorded by process 1, and a third, store-less
//! engine rebuilding everything cold must agree bit for bit as well. Any
//! mismatch exits nonzero, failing the CI job.

use qagview::datagen::movielens::{self, MovieLensConfig};
use qagview::prelude::*;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Example 1.1's query over the generated RatingTable.
const SQL: &str = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
                   GROUP BY hdec, agegrp, gender, occupation \
                   HAVING count(*) > 50 ORDER BY val DESC";
const RATINGS: usize = 50_000;
const DIGEST_FILE: &str = "summary.digest";

fn catalog() -> Catalog {
    let table = movielens::generate(&MovieLensConfig {
        ratings: RATINGS,
        ..Default::default()
    })
    .expect("movielens table");
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    catalog
}

/// A bit-exact digest of a response's user-visible content: every float
/// contributes its raw bits, so two processes agree iff their views are
/// byte-identical.
fn digest(r: &ExploreResponse) -> String {
    let mut h = qagview::common::FxHasher::default();
    let put_f64 = |h: &mut qagview::common::FxHasher, v: f64| h.write_u64(v.to_bits());
    h.write(r.state.sql.as_bytes());
    h.write_usize(r.state.k);
    h.write_usize(r.state.l);
    h.write_usize(r.state.d);
    for c in &r.summary.clusters {
        h.write(c.label.as_bytes());
        h.write_usize(c.size);
        h.write_usize(c.top_l);
        put_f64(&mut h, c.sum);
        put_f64(&mut h, c.avg);
    }
    h.write_usize(r.summary.covered);
    h.write_usize(r.summary.total);
    put_f64(&mut h, r.summary.avg);
    for series in &r.plot.series {
        h.write_usize(series.d);
        for &v in &series.avg_by_k {
            put_f64(&mut h, v);
        }
    }
    format!("{:016x}", h.finish())
}

/// Open Example 1.1 on a fresh engine; returns the engine and the
/// responses to the opening `SetQuery` and to the following knob move.
fn open_session(store_dir: Option<PathBuf>) -> (Arc<Explorer>, ExploreResponse, ExploreResponse) {
    let engine = Arc::new(Explorer::with_config(
        catalog(),
        ExplorerConfig {
            store_dir,
            ..Default::default()
        },
    ));
    let mut session = engine
        .open_session(SessionSpec::default())
        .expect("open session");
    let opened = session
        .apply(ExploreCommand::SetQuery(SQL.into()))
        .expect("open session");
    // One knob move so the digest covers a plane lookup beyond the default.
    let response = session.apply(ExploreCommand::SetK(6)).expect("SetK");
    (engine, opened, response)
}

fn save(dir: &Path) -> ExitCode {
    std::fs::create_dir_all(dir).expect("create store dir");
    let t0 = std::time::Instant::now();
    let (engine, _, response) = open_session(Some(dir.to_path_buf()));
    let stats = engine.stats().store;
    assert_eq!(
        response.provenance.plane_store.as_ref(),
        None, // SetK after the cold SetQuery is a memory hit
        "warm knob move must not consult the store"
    );
    assert_eq!(stats.answers.writes, 1, "exactly one relation .qag written");
    assert_eq!(stats.planes.writes, 1, "exactly one plane .qag written");
    assert_eq!(stats.write_errors, 0, "write-back failed");
    let d = digest(&response);
    std::fs::write(dir.join(DIGEST_FILE), &d).expect("write digest");
    let qag: Vec<String> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".qag"))
        .collect();
    println!(
        "saved relation and plane store for {} answers in {:?}: {} (digest {d})",
        response.summary.total,
        t0.elapsed(),
        qag.join(", ")
    );
    ExitCode::SUCCESS
}

fn verify(dir: &Path) -> ExitCode {
    let recorded = std::fs::read_to_string(dir.join(DIGEST_FILE))
        .expect("read digest written by the save process");

    // Process 2, arm 1: warm start from the persisted store.
    let t0 = std::time::Instant::now();
    let (engine, opened, warm) = open_session(Some(dir.to_path_buf()));
    let stats = engine.stats();
    let (answers, planes) = (stats.store.answers, stats.store.planes);
    if answers.loads != 1 || answers.probe_misses != 0 {
        eprintln!(
            "FAIL: expected the relation from the store, saw loads={} probe_misses={}",
            answers.loads, answers.probe_misses
        );
        return ExitCode::FAILURE;
    }
    if planes.loads != 1 || planes.probe_misses != 0 {
        eprintln!(
            "FAIL: expected the plane from the store, saw loads={} probe_misses={}",
            planes.loads, planes.probe_misses
        );
        return ExitCode::FAILURE;
    }
    // Zero group scans: layer 1 was never even probed, and the opening
    // command says so.
    let scans = stats.group_phase.hits + stats.group_phase.misses;
    if scans != 0
        || stats.scan != Default::default()
        || opened.provenance.group_phase != CacheOutcome::Skipped
        || opened.provenance.answers_store != Some(CacheOutcome::Hit)
    {
        eprintln!(
            "FAIL: the warm start touched the table: {scans} group-phase lookups, \
             group_phase {:?}, answers_store {:?}",
            opened.provenance.group_phase, opened.provenance.answers_store
        );
        return ExitCode::FAILURE;
    }
    let warm_digest = digest(&warm);
    println!(
        "warm start from store in {:?}: digest {warm_digest}",
        t0.elapsed()
    );
    if warm_digest != recorded {
        eprintln!("FAIL: warm view digest {warm_digest} != saved process digest {recorded}");
        return ExitCode::FAILURE;
    }

    // Arm 2: a store-less engine rebuilding cold must agree bit for bit.
    let (_, _, cold) = open_session(None);
    if !warm.same_view(&cold) || digest(&cold) != warm_digest {
        eprintln!("FAIL: store-served view diverges from a cold rebuild");
        return ExitCode::FAILURE;
    }
    println!(
        "byte-identical across processes and against a cold rebuild \
         ({} answers, k={}, digest {warm_digest})",
        warm.summary.total, warm.state.k
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, dir] if cmd == "save" => save(Path::new(dir)),
        [cmd, dir] if cmd == "verify" => verify(Path::new(dir)),
        _ => {
            eprintln!("usage: store_roundtrip <save|verify> <dir>");
            ExitCode::from(2)
        }
    }
}
