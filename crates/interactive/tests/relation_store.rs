//! The store's relation tier: a fresh engine over a store directory
//! loads the exact answer relation from its `relation-<key>.qag` file and
//! never touches the table, and every way that file can be unusable —
//! stale table content, a torn or flipped file, a foreign version, key or
//! fingerprint — is a typed miss that falls back to the scan with a
//! truthful degradation, never a wrong answer.

use qagview_common::wire::checksum64;
use qagview_common::StoreErrorKind;
use qagview_interactive::{
    store, CacheOutcome, Degradation, ExploreCommand, ExploreResponse, ExploreSession, Explorer,
    ExplorerConfig, StoreFileKind,
};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC";
const OTHER_SQL: &str = "SELECT genre, AVG(rating) AS val FROM ratings \
                         GROUP BY genre HAVING count(*) > 0 ORDER BY val DESC";

/// The ratings table; `last_rating` is the one cell the stale-table test
/// changes.
fn catalog(last_rating: f64) -> Arc<Catalog> {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("who", ColumnType::Str),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, f64)] = &[
        ("adventure", "student", 4.8),
        ("adventure", "student", 4.4),
        ("adventure", "coder", 4.3),
        ("adventure", "coder", 4.1),
        ("romance", "student", 2.0),
        ("romance", "coder", 1.6),
        ("romance", "coder", 1.2),
        ("western", "student", 3.0),
        ("western", "coder", last_rating),
    ];
    for &(g, w, r) in rows {
        b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    Arc::new(c)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qag-relation-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine(catalog: &Arc<Catalog>, store_dir: Option<&Path>) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig {
            store_dir: store_dir.map(Path::to_path_buf),
            parallel_planes: false,
            ..Default::default()
        },
    ))
}

/// Run `commands` on a fresh session of `engine`.
fn run(engine: &Arc<Explorer>, commands: &[ExploreCommand]) -> Vec<ExploreResponse> {
    let mut s = ExploreSession::new(Arc::clone(engine));
    commands
        .iter()
        .map(|c| s.apply(c.clone()).unwrap())
        .collect()
}

/// Same view, with every score compared as f64 bits.
fn assert_same_bits(a: &ExploreResponse, b: &ExploreResponse) {
    assert!(a.same_view(b), "views differ");
    assert_eq!(a.summary.avg.to_bits(), b.summary.avg.to_bits());
    for (x, y) in a.summary.clusters.iter().zip(&b.summary.clusters) {
        assert_eq!(x.sum.to_bits(), y.sum.to_bits());
        assert_eq!(x.avg.to_bits(), y.avg.to_bits());
    }
    for (x, y) in a.plot.series.iter().zip(&b.plot.series) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.avg_by_k), bits(&y.avg_by_k));
    }
}

/// The single relation file in `dir`.
fn relation_file(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("relation-")
        })
        .collect();
    assert_eq!(found.len(), 1, "{found:?}");
    found.pop().unwrap()
}

#[test]
fn warm_start_loads_the_relation_and_never_scans() {
    let dir = temp_dir("warm");
    let cat = catalog(2.5);
    let cmds = [
        ExploreCommand::SetQuery(SQL.into()),
        ExploreCommand::SetK(2),
    ];
    let cold = run(&engine(&cat, Some(&dir)), &cmds);
    assert_eq!(cold[0].provenance.answers_store, Some(CacheOutcome::Miss));
    assert_eq!(cold[0].provenance.group_phase, CacheOutcome::Miss);

    let warm_engine = engine(&cat, Some(&dir));
    let warm = run(&warm_engine, &cmds);
    let p = &warm[0].provenance;
    assert_eq!(p.group_phase, CacheOutcome::Skipped);
    assert_eq!(p.answers, CacheOutcome::Miss);
    assert_eq!(p.answers_store, Some(CacheOutcome::Hit));
    assert_eq!(p.plane_store, Some(CacheOutcome::Hit));
    assert!(p.degradations.is_empty(), "{:?}", p.degradations);
    // The knob move answers from memory: relation resident, store idle.
    assert_eq!(warm[1].provenance.group_phase, CacheOutcome::Skipped);
    assert_eq!(warm[1].provenance.answers, CacheOutcome::Hit);
    assert_eq!(warm[1].provenance.answers_store, None);

    let stats = warm_engine.stats();
    assert_eq!(stats.scan, Default::default(), "no scan ran");
    assert_eq!(stats.group_phase.hits + stats.group_phase.misses, 0);
    assert_eq!(stats.group_phase.entries, 0);
    assert_eq!(stats.store.answers.loads, 1);
    assert_eq!(stats.store.answers.writes, 0);
    for (c, w) in cold.iter().zip(&warm) {
        assert_same_bits(c, w);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn threshold_after_warm_start_equals_a_cold_session() {
    let dir = temp_dir("threshold");
    let cat = catalog(2.5);
    run(
        &engine(&cat, Some(&dir)),
        &[ExploreCommand::SetQuery(SQL.into())],
    );

    // Count > 1 drops the single-row groups: the relation changes.
    let cmds = [
        ExploreCommand::SetQuery(SQL.into()),
        ExploreCommand::SetK(2),
        ExploreCommand::SetThreshold(1.0),
        ExploreCommand::SetThreshold(0.0),
        ExploreCommand::SetThreshold(1.0),
    ];
    let warm = run(&engine(&cat, Some(&dir)), &cmds);
    let cold = run(&engine(&cat, None), &cmds);
    for (w, c) in warm.iter().zip(&cold) {
        assert_same_bits(w, c);
    }
    assert_ne!(warm[2].summary.total, warm[1].summary.total);
    // The first relation-changing threshold scans once and persists its
    // relation; later thresholds derive from the resident group phase.
    let p = &warm[2].provenance;
    assert_eq!(p.group_phase, CacheOutcome::Miss);
    assert_eq!(p.answers_store, Some(CacheOutcome::Miss));
    assert!(p.degradations.is_empty(), "{:?}", p.degradations);
    for later in &warm[3..] {
        assert_eq!(later.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(later.provenance.answers, CacheOutcome::Hit);
        assert_eq!(later.provenance.answers_store, None);
    }

    // A third process warm-starts straight into the moved threshold.
    let moved = [
        ExploreCommand::SetQuery(SQL.into()),
        ExploreCommand::SetThreshold(1.0),
    ];
    let third = run(&engine(&cat, Some(&dir)), &moved);
    assert_eq!(third[1].provenance.group_phase, CacheOutcome::Skipped);
    assert_eq!(third[1].provenance.answers_store, Some(CacheOutcome::Hit));
    assert_same_bits(&third[1], &run(&engine(&cat, None), &moved)[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_changed_cell_misses_the_old_relation_file() {
    let dir = temp_dir("stale");
    let cmds = [ExploreCommand::SetQuery(SQL.into())];
    let old = run(&engine(&catalog(2.5), Some(&dir)), &cmds);

    // The same table name and store directory, one cell changed.
    let changed = catalog(0.5);
    let fresh = engine(&changed, Some(&dir));
    let r = run(&fresh, &cmds);
    let p = &r[0].provenance;
    assert_eq!(p.answers_store, Some(CacheOutcome::Miss));
    assert_eq!(p.group_phase, CacheOutcome::Miss);
    assert!(p.degradations.is_empty(), "an absent key is a clean miss");
    assert_eq!(fresh.stats().store.answers.loads, 0);
    assert_same_bits(&r[0], &run(&engine(&changed, None), &cmds)[0]);
    assert!(
        !r[0].same_view(&old[0]),
        "the changed cell changes the view"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seed a store, damage its relation file with `damage`, and check that a
/// fresh engine rejects it as `expected`, scans, serves the cold view bit
/// for bit, and overwrites the file with a good one.
fn rejected_file_falls_back_to_the_scan(
    tag: &str,
    expected: StoreErrorKind,
    damage: impl FnOnce(&Path, Vec<u8>) -> Vec<u8>,
) {
    let dir = temp_dir(tag);
    let cat = catalog(2.5);
    let cmds = [ExploreCommand::SetQuery(SQL.into())];
    let baseline = run(&engine(&cat, Some(&dir)), &cmds);
    let path = relation_file(&dir);
    let damaged = damage(&dir, std::fs::read(&path).unwrap());
    std::fs::write(&path, damaged).unwrap();

    let r = run(&engine(&cat, Some(&dir)), &cmds);
    let p = &r[0].provenance;
    assert_eq!(p.answers_store, Some(CacheOutcome::Miss), "{tag}");
    assert_eq!(p.group_phase, CacheOutcome::Miss, "{tag}: the scan ran");
    assert_eq!(
        p.degradations,
        vec![Degradation::StoreFileRejected {
            file: StoreFileKind::Answers,
            error: expected,
        }],
        "{tag}"
    );
    assert_same_bits(&r[0], &baseline[0]);

    let again = run(&engine(&cat, Some(&dir)), &cmds);
    assert_eq!(
        again[0].provenance.answers_store,
        Some(CacheOutcome::Hit),
        "{tag}: the rejected file was overwritten"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_relation_file_is_a_typed_miss() {
    rejected_file_falls_back_to_the_scan("torn-header", StoreErrorKind::Truncated, |_, b| {
        b[..10].to_vec()
    });
    rejected_file_falls_back_to_the_scan(
        "torn-payload",
        StoreErrorKind::ChecksumMismatch,
        |_, b| b[..b.len() / 2].to_vec(),
    );
}

#[test]
fn flipped_relation_byte_is_a_typed_miss() {
    rejected_file_falls_back_to_the_scan("flip", StoreErrorKind::ChecksumMismatch, |_, mut b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x20;
        b
    });
}

#[test]
fn wrong_relation_version_is_a_typed_miss() {
    rejected_file_falls_back_to_the_scan(
        "version",
        StoreErrorKind::UnsupportedVersion,
        |_, mut b| {
            b[8..12].copy_from_slice(&(store::RELATION_VERSION + 1).to_le_bytes());
            b
        },
    );
    // A plane file in the relation's place fails on its magic.
    rejected_file_falls_back_to_the_scan("magic", StoreErrorKind::BadMagic, |dir, _| {
        let plane = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("plane-")
            })
            .unwrap();
        std::fs::read(plane).unwrap()
    });
}

#[test]
fn foreign_relation_key_is_a_typed_miss() {
    // Another query's (valid) relation file under this query's name.
    rejected_file_falls_back_to_the_scan("key", StoreErrorKind::FingerprintMismatch, |_, _| {
        let other_dir = temp_dir("key-source");
        run(
            &engine(&catalog(2.5), Some(&other_dir)),
            &[ExploreCommand::SetQuery(OTHER_SQL.into())],
        );
        let bytes = std::fs::read(relation_file(&other_dir)).unwrap();
        std::fs::remove_dir_all(&other_dir).unwrap();
        bytes
    });
}

#[test]
fn relation_not_matching_its_fingerprint_is_a_typed_miss() {
    // A well-formed, correctly sealed file whose header fingerprint does
    // not match its content (bytes 28..36: after the key).
    rejected_file_falls_back_to_the_scan("fingerprint", StoreErrorKind::Corrupt, |_, mut b| {
        b[28] ^= 0x01;
        let sum = checksum64(&b[20..]);
        b[12..20].copy_from_slice(&sum.to_le_bytes());
        b
    });
}
