//! What every workload shares: the op tally, the scratch directories, the
//! user-level operations on an engine, the correctness comparisons, and
//! the stage replay the traced run breaks an open down with.

use crate::trace::{self, timed};
use crate::Result;
use qagview_common::io::RealIo;
use qagview_core::{EvalMode, Summarizer};
use qagview_interactive::explore::{DEFAULT_D, DEFAULT_K, DEFAULT_L};
use qagview_interactive::{
    store, ExploreCommand, ExploreResponse, ExploreSession, Explorer, ExplorerConfig,
    ExplorerStats, Fidelity, FidelityMode, PrecomputeConfig, Precomputed, SessionCheckpoint,
    SessionSpec, StoreReader, SummaryView,
};
use qagview_lattice::{AnswerSet, AnswerSetBuilder, CandidateIndex, Pattern};
use qagview_query::{
    bind, group_aggregate_auto, group_aggregate_sampled, parse, GroupTable, ParallelScanStats,
};
use qagview_storage::Catalog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The `k` every open moves to after the query is set.
pub const OPEN_K: usize = 6;

/// Ops attempted and ops failed (an error, a refusal, or a mismatch).
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one op; a failed one is reported on stderr.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("FAIL: {}", what());
        }
        ok
    }

    /// Count one op that returned a result; `Err` is a failure.
    pub fn result<T, E: std::fmt::Display>(
        &self,
        r: std::result::Result<T, E>,
        what: &str,
    ) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// A run's scratch directory under `.bench_tmp/` in the working
/// directory, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let root = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// An empty directory `name` inside the scratch root.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty `.bench_tmp` behind either; fails harmlessly
        // while another run still uses it.
        let _ = std::fs::remove_dir(PathBuf::from(".bench_tmp"));
    }
}

/// An engine as every op of the benchmark opens one: the default
/// configuration, plus a store directory.
pub fn engine(catalog: &Arc<Catalog>, store: &Path) -> Arc<Explorer> {
    let cfg = ExplorerConfig {
        store_dir: Some(store.to_path_buf()),
        ..ExplorerConfig::default()
    };
    Arc::new(Explorer::from_shared(Arc::clone(catalog), cfg))
}

/// An approximate first paint with the background refinement off.
pub fn first_paint_spec(sql: &str) -> SessionSpec {
    SessionSpec {
        sql: Some(sql.to_string()),
        fidelity: FidelityMode::Approximate,
        background_refine: false,
        ..SessionSpec::default()
    }
}

/// A session as the analyst sees it after opening: the query set, `k`
/// moved to [`OPEN_K`] and `L` to `l`. Returns the session and the
/// responses to the last two commands.
pub fn open_view(
    engine: &Arc<Explorer>,
    sql: &str,
    l: usize,
) -> Result<(ExploreSession, ExploreResponse, ExploreResponse)> {
    let mut session = engine.open_session(SessionSpec {
        sql: Some(sql.to_string()),
        ..SessionSpec::default()
    })?;
    let at_k = session.apply(ExploreCommand::SetK(OPEN_K))?;
    let at_l = session.apply(ExploreCommand::SetL(l))?;
    Ok((session, at_k, at_l))
}

fn summary_bits_equal(a: &SummaryView, b: &SummaryView) -> bool {
    a.avg.to_bits() == b.avg.to_bits()
        && a.clusters.len() == b.clusters.len()
        && a.clusters
            .iter()
            .zip(&b.clusters)
            .all(|(x, y)| x.sum.to_bits() == y.sum.to_bits() && x.avg.to_bits() == y.avg.to_bits())
}

/// Same view under `same_view`, with every cluster's `sum`/`avg` and the
/// summary average compared as f64 bits.
pub fn same_view_bits(a: &ExploreResponse, b: &ExploreResponse) -> bool {
    a.same_view(b) && summary_bits_equal(&a.summary, &b.summary)
}

/// Promote an approximate first paint with `AwaitExact` on a fresh engine
/// and compare it with the exact open's response at `k = OPEN_K`.
pub fn promotion_matches(
    catalog: &Arc<Catalog>,
    store: &Path,
    sql: &str,
    exact_at_k: &ExploreResponse,
) -> Result<bool> {
    let e = engine(catalog, store);
    let mut s = e.open_session(first_paint_spec(sql))?;
    s.apply(ExploreCommand::SetK(OPEN_K))?;
    let r = s.apply(ExploreCommand::AwaitExact)?;
    Ok(r.fidelity == Fidelity::Refined
        && r.state == exact_at_k.state
        && r.summary == exact_at_k.summary
        && r.plot == exact_at_k.plot
        && summary_bits_equal(&r.summary, &exact_at_k.summary))
}

/// One restore tick: time loading the checkpoint at `path`, resuming it
/// on `engine` and sending `cmd`. The loaded checkpoint must equal `cp`,
/// and the response that of a session resumed from `cp` itself. Returns
/// the time, or `None` when the op failed.
pub fn restore_tick(
    engine: &Arc<Explorer>,
    cp: &SessionCheckpoint,
    cmd: ExploreCommand,
    path: &Path,
    tally: &Tally,
) -> Result<Option<f64>> {
    trace::begin_request();
    let (restored, ms) = timed("explore.restore_tick", || {
        let (loaded, _) = timed("checkpoint.load", || {
            SessionCheckpoint::load_io(&RealIo, path).map(|cp| {
                let s = cp.resume(Arc::clone(engine));
                (cp, s)
            })
        });
        let (loaded, mut s) = loaded?;
        let (r, _) = timed("explore.apply", || s.apply(cmd.clone()));
        r.map(|r| (loaded, r))
    });
    let Some((loaded, r)) = tally.result(restored, "restore tick") else {
        return Ok(None);
    };
    let expected = cp.resume(Arc::clone(engine)).apply(cmd)?;
    tally.check(loaded == *cp && same_view_bits(&r, &expected), || {
        "restored session differs from its checkpoint".to_string()
    });
    Ok(Some(ms))
}

/// Cache counters summed over every engine a run used.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    pub layers: [(u64, u64); 4],
    pub evictions: u64,
    pub parallel_scans: u64,
}

impl EngineTotals {
    pub fn add(&mut self, s: &ExplorerStats) {
        for (slot, l) in
            self.layers
                .iter_mut()
                .zip([&s.group_phase, &s.answers, &s.planes, &s.summarizers])
        {
            slot.0 += l.hits;
            slot.1 += l.misses;
            self.evictions += l.evictions;
        }
        self.parallel_scans += s.scan.parallel_scans;
    }

    /// Hit ratio of layer `i` (group, answers, plane, summarizer); 0 when
    /// the layer saw no lookup.
    pub fn hit_ratio(&self, i: usize) -> f64 {
        let (h, m) = self.layers[i];
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// The stage spans an open is replayed as; its unaccounted time is the
/// open minus these.
pub const OPEN_STAGES: [&str; 10] = [
    "query.parse",
    "query.bind",
    "query.group_scan",
    "query.apply_answers",
    "lattice.fingerprint",
    "lattice.candidate_index",
    "precompute.descents",
    "store.save",
    "precompute.guidance",
    "precompute.solution",
];

/// The traced breakdown of one open. Opens a fresh engine on an empty
/// store (span `replay.open`), then replays the same commands stage by
/// stage through each layer's public functions, in the engine's order:
/// every command parses and binds; the first scans, derives the answer
/// relation and fingerprints it; every plane miss builds the candidate
/// index, descends and writes back; every command reads the guidance
/// plot and one solution. The replay also times the sampled scan of a
/// first paint, loading each written plane back, a drill into the first
/// cluster, and `Explorer::stats` with two sessions live. All spans
/// share one request id.
pub fn replay_open(
    catalog: &Arc<Catalog>,
    store_dir: &Path,
    replay_dir: &Path,
    sql: &str,
    l: usize,
) -> Result<()> {
    trace::begin_request();
    let (opened, _) = timed("replay.open", || {
        let e = engine(catalog, store_dir);
        open_view(&e, sql, l).map(|(s, _, last)| (e, s, last))
    });
    let (e, _session, last) = opened?;

    let cfg = e.config().clone();
    let parse_bind = || -> Result<_> {
        let stmt = timed("query.parse", || parse(sql)).0?;
        let table = catalog.require(&stmt.from)?;
        Ok((timed("query.bind", || bind(&stmt, table)).0?, table))
    };
    parse_bind()?;
    parse_bind()?;
    let (bound, table) = parse_bind()?;
    let mut scratch = GroupTable::new(0);
    let mut scan = ParallelScanStats::default();
    let (grouped, _) = timed("query.group_scan", || {
        group_aggregate_auto(&bound.group, table, &mut scratch, &mut scan)
    });
    let grouped = grouped?;
    let (answers, _) = timed("query.apply_answers", || {
        grouped.apply_answers(&bound.output)
    });
    let answers = Arc::new(answers?);
    let (fp, _) = timed("lattice.fingerprint", || answers.fingerprint());

    let m = answers.arity();
    let d = DEFAULT_D.min(m);
    let k_max = cfg.default_k_max.max(OPEN_K);
    let pcfg = PrecomputeConfig {
        k_min: 1,
        k_max,
        d_min: 0,
        d_max: m,
        pool_factor: cfg.pool_factor,
        eval: EvalMode::Delta,
        parallel: cfg.parallel_planes,
        ..PrecomputeConfig::default()
    };
    // (L of the plane, k of each command served from it): the query is
    // set at the default k and L, then k moves on the same plane, then L
    // moves to a new plane.
    for (l_step, ks) in [(DEFAULT_L, &[DEFAULT_K, OPEN_K][..]), (l, &[OPEN_K][..])] {
        let l_eff = l_step.min(answers.len());
        let (index, _) = timed("lattice.candidate_index", || {
            CandidateIndex::build(&answers, l_eff)
        });
        let index = index?;
        trace::count("lattice.candidates", index.len() as f64);
        let (pre, _) = timed("precompute.descents", || {
            Precomputed::build_with_index(Arc::clone(&answers), index, pcfg)
        });
        let pre = pre?;
        let path = replay_dir.join(store::plane_file_name(fp, l_eff, k_max, cfg.pool_factor));
        timed("store.save", || store::save_io(&RealIo, &pre, &path)).0?;
        trace::count("store.file_bytes", std::fs::metadata(&path)?.len() as f64);
        for &k in ks {
            timed("precompute.guidance", || pre.guidance());
            timed("precompute.solution", || pre.solution(k, d)).0?;
        }
        let (loaded, _) = timed("store.load", || {
            StoreReader::open_io(&RealIo, &path)?.into_precomputed(Arc::clone(&answers))
        });
        loaded?;
    }

    let (sampled, _) = timed("query.sample", || {
        group_aggregate_sampled(&bound.group, table, &cfg.sample, 1)
    });
    sampled?;

    if let Some(first) = last.summary.clusters.first() {
        let base = e.answer_relation(sql)?;
        let sub = Arc::new(drill_relation(&base, &first.pattern)?);
        let l_sub = l.min(sub.len());
        let (summarizer, _) = timed("core.drill_summarizer", || {
            Summarizer::new(Arc::clone(&sub), l_sub)
        });
        let summarizer = summarizer?;
        timed("core.drill_hybrid", || {
            summarizer.hybrid(OPEN_K, d.min(sub.arity()))
        })
        .0?;
    }

    let _second = e.open_session(SessionSpec {
        sql: Some(sql.to_string()),
        ..SessionSpec::default()
    })?;
    for _ in 0..20 {
        timed("explore.stats", || e.stats());
    }
    Ok(())
}

/// The answers a drill pattern covers, re-encoded as their own relation
/// in the base relation's rank order — what the engine summarizes on a
/// `DrillDown`.
fn drill_relation(base: &AnswerSet, pattern: &Pattern) -> Result<AnswerSet> {
    let (ids, _) = base.scan_coverage(pattern);
    let mut builder = AnswerSetBuilder::new(base.attr_names().to_vec());
    for t in ids {
        let texts: Vec<&str> = base
            .tuple(t)
            .iter()
            .enumerate()
            .map(|(i, &c)| base.code_text(i, c))
            .collect();
        builder.push(&texts, base.val(t))?;
    }
    Ok(builder.finish()?)
}
