//! The owned, command-driven end-to-end exploration engine.
//!
//! The paper's whole point is one *interactive loop* (§6, Fig. 2): the
//! analyst moves a `HAVING` threshold or a `(k, L, D)` knob and expects an
//! instant refreshed summary. [`Explorer`] owns everything that loop
//! needs — a shared [`Catalog`] plus three fingerprint-keyed cache layers —
//! behind one `Send + Sync` value, so sessions on any number of serving
//! threads share every expensive artifact:
//!
//! 1. **group phases** — [`qagview_query::GroupedResult`]s keyed by
//!    `(TableId, GroupSpec fingerprint)`; a threshold tick never rescans
//!    the base table;
//! 2. **answer relations** — dense-coded [`AnswerSet`]s keyed by
//!    `(TableId, group ⊕ output fingerprint)`, built straight from the
//!    interned group codes (no display-string round trip);
//! 3. **parameter planes** — [`Precomputed`] `(k, D)` planes keyed by the
//!    answer set's *content* fingerprint and `(L, k_max)`, so even a
//!    threshold move that happens not to change the answer relation reuses
//!    the whole plane; and **summarizers** — owned
//!    [`qagview_core::Summarizer`]s keyed the same way, serving
//!    [`ExploreCommand::DrillDown`] focus views.
//!
//! [`ExploreSession`] holds the current exploration state
//! `(sql, k, L, D, threshold, drill)` and advances it through typed
//! [`ExploreCommand`]s; every command returns an [`ExploreResponse`] whose
//! [`CacheProvenance`] says which layer answered from cache, and whose
//! [`Transition`] (when the underlying relation is unchanged) feeds the
//! App. A.7 band diagram between consecutive summaries.
//!
//! Responses are deterministic functions of the state: re-running the
//! whole pipeline from scratch at the same state yields byte-identical
//! summaries and plots (property-tested), so cache hits are purely a cost
//! story.

use crate::cache::{LayerStats, LruCache};
use crate::plot::{DSeries, GuidancePlot};
use crate::precompute::{PrecomputeConfig, Precomputed};
use qagview_common::io::{RealIo, RetryPolicy, StoreIo};
use qagview_common::{QagError, Result, StoreErrorKind};
use qagview_core::{EvalMode, Solution, SolutionCluster, Summarizer, DEFAULT_POOL_FACTOR};
use qagview_lattice::{AnswerSet, AnswerSetBuilder, Pattern, TupleId, STAR};
use qagview_query::{
    bind, group_aggregate_auto, group_aggregate_sampled, parse, BoundQuery, GroupTable,
    GroupedResult, ParallelScanStats, SampleSpec, SampleStats,
};
use qagview_storage::{Catalog, RegisteredTable, TableId};
use qagview_viz::Transition;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default `k` of a fresh session (the paper's Fig. 1 walkthrough).
pub const DEFAULT_K: usize = 4;
/// Default `L` of a fresh session.
pub const DEFAULT_L: usize = 8;
/// Default `D` of a fresh session.
pub const DEFAULT_D: usize = 2;

/// Which pipeline a session *asks for* — the progressive-mode knob.
///
/// [`FidelityMode::Exact`] runs the full scan + exact plane build every
/// view; [`FidelityMode::Approximate`] first-paints from a seeded
/// per-group reservoir sample of the base table ([`SampleSpec`]) and
/// relies on [`ExploreCommand::AwaitExact`] (or the background refinement
/// worker) to promote the view to exact later. The mode is part of
/// [`ExploreState`], so replaying a command log reproduces the same
/// fidelity decisions byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityMode {
    /// The exact pipeline: full scan, exact answers, exact plane.
    #[default]
    Exact,
    /// The sampled pipeline: estimated answers with error bounds.
    Approximate,
}

/// How faithful a served response is to the exact pipeline — the typed
/// answer to "can I trust these numbers yet?".
///
/// `Approximate` carries the sampling layer's error envelope:
/// `rel_err` is the largest estimated relative standard error of any
/// group mean in the answer relation (capped at 1.0; see
/// [`SampleStats`]), `confidence` the normal-approximation level that
/// envelope is stated at. `Refined` marks the response that *promoted*
/// an approximate session to exact — its summary is byte-identical to
/// what a cold exact session would serve, and the transition diffs the
/// approximate summary against the exact one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Served by the exact pipeline.
    Exact,
    /// Served by the sampled pipeline; numbers are estimates.
    Approximate {
        /// Worst estimated relative standard error across groups (≤ 1.0).
        rel_err: f64,
        /// Confidence level of the error estimate (e.g. 0.95).
        confidence: f64,
    },
    /// This response promoted an approximate view to exact.
    Refined,
}

/// Tuning knobs of an [`Explorer`] — cache bounds, plane shape, and the
/// optional persistent plane store.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Max cached group phases (layer 1).
    pub group_cache_entries: usize,
    /// Max cached answer relations (layer 2).
    pub answers_cache_entries: usize,
    /// Max cached `(k, D)` planes (layer 3).
    pub plane_cache_entries: usize,
    /// Max cached drill-down summarizers.
    pub summarizer_cache_entries: usize,
    /// Planes always materialize `k` up to at least this value, so knob
    /// moves within the range are pure lookups.
    pub default_k_max: usize,
    /// Hybrid pool factor `c` for plane construction.
    pub pool_factor: usize,
    /// Build the per-`D` planes on parallel threads (byte-identical to
    /// serial; see the `parallel_and_serial_builds_agree` property).
    pub parallel_planes: bool,
    /// Directory of the persistent plane store. When set, a plane-cache
    /// miss probes `<dir>/plane-<fp>-l<L>-k<kmax>-p<pool>.qag` before building,
    /// and a cold build writes its plane set back (atomically), so the
    /// next *process* warm-starts in roughly the cost of reading the
    /// file. `None` (the default) keeps planes process-scoped.
    pub store_dir: Option<std::path::PathBuf>,
    /// Byte budget of the store directory. After every write-back the
    /// engine runs [`crate::store::gc`], evicting least-recently-used
    /// `.qag` files until the directory fits. `None` (the default) never
    /// evicts.
    pub store_budget_bytes: Option<u64>,
    /// Retry policy for *transient* store faults (a failed read that is
    /// not a clean [`StoreErrorKind::NotFound`], a failed write-back):
    /// bounded attempts with deterministic jittered backoff. Absences and
    /// corrupt files are never retried — they are probe misses.
    pub retry: RetryPolicy,
    /// Default per-session memory budget, bounding the bytes a command
    /// *retains* (answer relation + parameter plane estimates — not the
    /// transient build peak). Over budget the engine degrades instead of
    /// growing: first the plane is shed (uncached single-`(k, D)` serve,
    /// recorded as [`Degradation::PlaneShed`]); if even the degraded path
    /// cannot fit, the command is refused with a typed
    /// [`QagError::BudgetExceeded`] and the session state is untouched.
    /// `None` (the default) never degrades. Sessions can override it via
    /// [`ExploreSession::set_budget_bytes`].
    pub session_budget_bytes: Option<u64>,
    /// The I/O backend every store touch goes through: [`RealIo`] in
    /// production (the default), a [`qagview_common::FaultIo`] under
    /// fault-injection tests.
    pub store_io: Arc<dyn StoreIo>,
    /// Shape of the sampled group phase serving
    /// [`FidelityMode::Approximate`] views: seed, target sample size, and
    /// per-group reservoir capacity. Part of the approximate cache keys,
    /// so engines configured differently never share sampled artifacts.
    pub sample: SampleSpec,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            group_cache_entries: 32,
            answers_cache_entries: 64,
            plane_cache_entries: 8,
            summarizer_cache_entries: 16,
            default_k_max: 20,
            pool_factor: DEFAULT_POOL_FACTOR,
            parallel_planes: true,
            store_dir: None,
            store_budget_bytes: None,
            retry: RetryPolicy::default(),
            session_budget_bytes: None,
            store_io: Arc::new(RealIo),
            sample: SampleSpec::default(),
        }
    }
}

/// Whether a cache layer answered a lookup or had to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Computed cold (and cached for next time).
    Miss,
    /// Not consulted at all: a later layer's artifact was already at hand
    /// (in memory or in the persistent store), so this layer's work never
    /// ran. Only [`CacheProvenance::group_phase`] reports it — an exact
    /// relation served without a scan.
    Skipped,
}

/// The two kinds of `.qag` file the persistent store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFileKind {
    /// An exact, post-`HAVING` answer relation (`relation-<key>.qag`),
    /// backing layers 1–2.
    Answers,
    /// A `(k, D)` plane set (`plane-<fp>-….qag`), backing layer 3.
    Plane,
}

/// Per-file-kind counters of the persistent store tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreKindStats {
    /// Files loaded after a memory-cache miss.
    pub loads: u64,
    /// Probes that found no usable file (absent, corrupt, or keyed to
    /// something else) and fell through to a cold computation.
    pub probe_misses: u64,
    /// Files written back after a cold computation.
    pub writes: u64,
}

/// Cumulative counters of the persistent store tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLayerStats {
    /// Answer-relation files.
    pub answers: StoreKindStats,
    /// Plane-set files.
    pub planes: StoreKindStats,
    /// Write-backs (of either kind) that failed even after retrying.
    /// Serving is unaffected — a failed write-back only costs the next
    /// process its warm start.
    pub write_errors: u64,
    /// Transient-fault retries across probes and write-backs (each retry
    /// slept one jittered backoff first).
    pub retries: u64,
    /// Orphaned temp files swept at engine construction.
    pub temp_cleanups: u64,
    /// `.qag` files evicted by the byte-budget GC.
    pub gc_evictions: u64,
    /// Bytes those evictions freed.
    pub gc_bytes_freed: u64,
}

impl StoreLayerStats {
    fn kind_mut(&mut self, kind: StoreFileKind) -> &mut StoreKindStats {
        match kind {
            StoreFileKind::Answers => &mut self.answers,
            StoreFileKind::Plane => &mut self.planes,
        }
    }
}

/// A cache layer of the [`Explorer`], named for stats and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLayer {
    /// Layer 1: finished group phases.
    GroupPhase,
    /// Layer 2: dense-coded answer relations.
    Answers,
    /// Layer 3: `(k, D)` parameter planes.
    Planes,
    /// Drill-down summarizers.
    Summarizers,
    /// The store-tier counter block.
    Store,
}

/// How many times each layer's mutex was recovered from poisoning (a
/// thread panicked while holding it). Recovery clears the layer's cached
/// contents — cold rebuilds, never a propagated panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoisonStats {
    /// Group-phase layer recoveries.
    pub group_phase: u64,
    /// Answer-relation layer recoveries.
    pub answers: u64,
    /// Plane layer recoveries.
    pub planes: u64,
    /// Summarizer layer recoveries.
    pub summarizers: u64,
    /// Store-counter block recoveries (contents kept; counters are plain
    /// data that cannot be mid-mutation in a observable way).
    pub store: u64,
}

impl PoisonStats {
    /// Total recoveries across every layer.
    pub fn total(&self) -> u64 {
        self.group_phase + self.answers + self.planes + self.summarizers + self.store
    }
}

/// One graceful-degradation event of a single command, recorded in
/// [`CacheProvenance::degradations`]. Every entry means the engine chose
/// a cheaper/safer path instead of failing; the view itself is still a
/// correct answer for the state (a [`Degradation::PlaneShed`] view is
/// computed directly rather than from the precomputed plane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// A transient store fault was retried (with backoff) and the
    /// operation eventually succeeded after `attempts` tries.
    StoreRetried {
        /// Total attempts including the successful one.
        attempts: u32,
    },
    /// A write-back failed every attempt and was dropped. Serving
    /// continued from memory; the next process pays a cold build.
    StoreWriteBackDropped {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A store file was there but unusable — torn, corrupt, a foreign
    /// version, keyed to something else, or unreadable after every retry.
    /// The command fell back to computing the artifact cold (and wrote a
    /// good file back); the view is unaffected.
    StoreFileRejected {
        /// Which kind of file was rejected.
        file: StoreFileKind,
        /// Why it was rejected.
        error: StoreErrorKind,
    },
    /// The session memory budget could not fit the full `(k, D)` plane;
    /// the view was served by a direct uncached solve instead, and the
    /// guidance plot collapsed to the single requested point.
    PlaneShed {
        /// Bytes the full plane path would have retained.
        needed: u64,
        /// The session budget that refused it.
        budget: u64,
    },
    /// A poisoned layer mutex was recovered by clearing that layer.
    PoisonRecovered {
        /// Which layer was recovered.
        layer: CacheLayer,
    },
    /// Promoting an approximate view to exact failed (background worker
    /// error/panic, or the inline exact rebuild was refused — e.g. by the
    /// session budget). The session keeps serving the approximate view
    /// with its error bounds; it is never silently relabeled exact.
    RefinementFailed {
        /// Human-readable cause, for provenance surfaces and logs.
        reason: String,
    },
}

/// Cumulative counters of every [`Explorer`] cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerStats {
    /// Group-phase cache (layer 1).
    pub group_phase: LayerStats,
    /// Answer-relation cache (layer 2).
    pub answers: LayerStats,
    /// Parameter-plane cache (layer 3).
    pub planes: LayerStats,
    /// Drill-down summarizer cache.
    pub summarizers: LayerStats,
    /// Persistent store tier (the disk backing of layers 2 and 3).
    pub store: StoreLayerStats,
    /// Group-scan path counters across every group-phase cache miss:
    /// direct-indexed scans, and morsel-parallel scans with their worker
    /// counters (zero while scans stay direct or below the parallel
    /// threshold).
    pub scan: ParallelScanStats,
    /// Lock-poison recoveries per layer.
    pub poison: PoisonStats,
}

/// Which cache layer answered each stage of one command, plus a cumulative
/// counter snapshot. This is how a caller (or a future HTTP facade) can
/// see — and assert — that a threshold tick after a knob move hit both the
/// group-phase cache and the precomputed plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheProvenance {
    /// Layer 1: finished group phase of the query's scan.
    /// [`CacheOutcome::Skipped`] when the relation was served without it
    /// (from memory or from the store's relation tier), so no scan ran.
    pub group_phase: CacheOutcome,
    /// Layer 2: dense-coded answer relation. [`CacheOutcome::Miss`] means
    /// the in-memory cache had to be filled — `answers_store` says whether
    /// the fill came from disk or from the group phase.
    pub answers: CacheOutcome,
    /// The store's relation tier, probed for exact relations only, when a
    /// store directory is configured and neither the group phase nor the
    /// relation is in memory: `Some(Hit)` — the relation was loaded from a
    /// `relation-<key>.qag` file and the table was never touched;
    /// `Some(Miss)` — no usable file, the table was scanned (and the
    /// relation written back); `None` — not consulted.
    pub answers_store: Option<CacheOutcome>,
    /// Layer 3: the `(k, D)` parameter plane serving summary and plot.
    /// [`CacheOutcome::Miss`] means the in-memory cache had to be filled —
    /// `plane_store` says whether the fill came from disk or a cold build.
    pub plane: CacheOutcome,
    /// The persistent store tier, probed only on a plane-cache miss with a
    /// configured [`ExplorerConfig::store_dir`]: `Some(Hit)` — the plane
    /// set was loaded from a `.qag` file; `Some(Miss)` — no usable file,
    /// the plane was built cold (and written back); `None` — the store was
    /// not consulted (memory hit, or no store configured).
    pub plane_store: Option<CacheOutcome>,
    /// Drill-down summarizer (only consulted while a drill is active).
    pub summarizer: Option<CacheOutcome>,
    /// Fidelity of the pipeline that produced this response's artifacts:
    /// [`Fidelity::Approximate`] when the group phase was sampled,
    /// [`Fidelity::Refined`] on the command that promoted an approximate
    /// session to exact, [`Fidelity::Exact`] otherwise.
    pub fidelity: Fidelity,
    /// Every graceful degradation this command took (store retries,
    /// dropped write-backs, plane sheds, poison recoveries, failed
    /// refinements). Empty on the happy path.
    pub degradations: Vec<Degradation>,
    /// Cumulative hits/misses/evictions per layer, after this command.
    pub stats: ExplorerStats,
}

/// One cluster of a rendered summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    /// The cluster's pattern (codes relative to the summarized relation).
    pub pattern: Pattern,
    /// The pattern rendered against the relation's domains, e.g.
    /// `(1980, *, M, *)`.
    pub label: String,
    /// Number of answer tuples the cluster covers.
    pub size: usize,
    /// How many of the top-`L` tuples it covers (the dark fraction of the
    /// GUI's boxes).
    pub top_l: usize,
    /// Sum of covered scores.
    pub sum: f64,
    /// Average covered score.
    pub avg: f64,
}

/// A rendered summary: the solution clusters plus objective bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryView {
    /// Attribute names of the summarized relation.
    pub attr_names: Vec<String>,
    /// Clusters, highest average first.
    pub clusters: Vec<ClusterView>,
    /// Distinct tuples covered by the union of the clusters.
    pub covered: usize,
    /// Size of the summarized relation.
    pub total: usize,
    /// The Max-Avg objective value.
    pub avg: f64,
    /// `k` the summary was computed for.
    pub k: usize,
    /// Effective coverage parameter (the session `L` capped at the
    /// relation size).
    pub l: usize,
    /// Effective distance parameter (the session `D` capped at `m`).
    pub d: usize,
    /// Whether the numbers in this summary are exact or sampled
    /// estimates. Never [`Fidelity::Refined`]: a refined command serves
    /// the *exact* summary (byte-identical to a cold exact session), so
    /// the promotion is visible on [`ExploreResponse::fidelity`] only.
    pub fidelity: Fidelity,
}

/// The full exploration state a response was computed from. Feeding the
/// same state to a fresh engine reproduces the same summary and plot
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreState {
    /// The SQL of the current query.
    pub sql: String,
    /// Size knob `k`.
    pub k: usize,
    /// Coverage knob `L` (capped at the relation size when applied).
    pub l: usize,
    /// Distance knob `D` (capped at `m` when applied).
    pub d: usize,
    /// Override for the first `HAVING` conjunct's threshold; `None` keeps
    /// the value written in the SQL.
    pub threshold: Option<f64>,
    /// Focus pattern of an active drill-down (`None` = overview).
    pub drill: Option<Pattern>,
    /// Which pipeline serves this state: exact, or sampled-first-paint.
    pub fidelity: FidelityMode,
}

/// Typed session commands — the verbs of the §6 interactive loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreCommand {
    /// Switch to a new query (clears any drill; knobs are kept).
    SetQuery(String),
    /// Move the `HAVING` slider: override the first conjunct's threshold.
    SetThreshold(f64),
    /// Set the size knob `k ≥ 1`.
    SetK(usize),
    /// Set the coverage knob `L ≥ 1`.
    SetL(usize),
    /// Set the distance knob `D`.
    SetD(usize),
    /// Focus on the answers covered by a pattern and re-summarize within
    /// (an all-`∗` pattern returns to the overview).
    DrillDown(Pattern),
    /// Switch the session between the exact and the sampled pipeline
    /// (query and knobs are kept; the relation changes, so no transition).
    SetFidelity(FidelityMode),
    /// Promote an approximate session to exact: join the background
    /// refinement worker (if any), serve the exact view, and diff it
    /// against the approximate summary through the transition machinery.
    /// On an exact session this is an idempotent re-view. If the exact
    /// rebuild fails, the session stays approximate and the failure is
    /// recorded as [`Degradation::RefinementFailed`] — never wrong-exact.
    AwaitExact,
}

/// The engine's answer to one command.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResponse {
    /// The state the response was computed from.
    pub state: ExploreState,
    /// The refreshed summary (of the drill focus, if one is active).
    pub summary: SummaryView,
    /// The Fig. 2 guidance plot of the current base relation.
    pub plot: GuidancePlot,
    /// Band-diagram transition from the previous summary, when both were
    /// computed over the identical relation (parameter nudges); `None`
    /// right after the relation itself changed.
    pub transition: Option<Transition>,
    /// How faithful this response is: mirrors the summary's fidelity,
    /// except on the command that promoted an approximate session to
    /// exact, which reports [`Fidelity::Refined`] over an exact summary.
    pub fidelity: Fidelity,
    /// Which cache layers answered, and the cumulative counters.
    pub provenance: CacheProvenance,
}

impl ExploreResponse {
    /// Whether two responses show the user the same thing: state, summary,
    /// plot, transition, and fidelity all equal. Cache provenance is
    /// deliberately excluded — a warm and a cold run of the same state
    /// must compare equal under this method.
    pub fn same_view(&self, other: &ExploreResponse) -> bool {
        self.state == other.state
            && self.summary == other.summary
            && self.plot == other.plot
            && self.transition == other.transition
            && self.fidelity == other.fidelity
    }
}

/// Everything `view` computes for one state.
#[derive(Debug)]
struct EngineView {
    relation: Arc<AnswerSet>,
    relation_fp: u64,
    l_eff: usize,
    solution: Solution,
    summary: SummaryView,
    plot: GuidancePlot,
    /// Fidelity of the pipeline that produced the view (never `Refined`;
    /// the session layer decides when a view counts as a promotion).
    fidelity: Fidelity,
    /// Estimated bytes this view pinned in shared caches (relation +
    /// plane; zero plane contribution when the plane was shed).
    retained_bytes: u64,
}

struct AnswerEntry {
    answers: Arc<AnswerSet>,
    fp: u64,
}

/// What the first two cache layers hand the rest of the pipeline.
struct RelationOutcome {
    entry: Arc<AnswerEntry>,
    group_out: CacheOutcome,
    answers_out: CacheOutcome,
    answers_store: Option<CacheOutcome>,
    /// Sampling statistics when the group phase came from the sampled
    /// pipeline; `None` on the exact path.
    sample: Option<SampleStats>,
}

/// A finished group phase plus, when it came from the sampled pipeline,
/// the sampling statistics that turn it into error bounds downstream.
struct GroupPhase {
    result: GroupedResult,
    sample: Option<SampleStats>,
}

/// The group-phase layer: its cache plus the reusable scan scratch table,
/// which lives under the same lock because only group scans use it.
/// Exact phases are keyed `(TableId, group_fp)`; sampled phases fold the
/// [`SampleSpec`] fingerprint into the key, so both coexist.
struct GroupLayer {
    cache: LruCache<(TableId, u64), Arc<GroupPhase>>,
    scratch: GroupTable,
    /// Cumulative group-scan path counters across every cache-miss scan.
    scan_stats: ParallelScanStats,
}

/// The owned, thread-shareable exploration engine.
///
/// `Explorer` is `Send + Sync`: wrap it in an `Arc`, hand clones to any
/// number of threads, and open an [`ExploreSession`] per analyst. All
/// sessions share the three cache layers, so the second analyst asking
/// the paper's Example 1.1 query pays `O(groups)` instead of a scan.
///
/// ```
/// use qagview_interactive::{ExploreCommand, Explorer, SessionSpec};
/// use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
/// use std::sync::Arc;
///
/// let schema = Schema::from_pairs(&[
///     ("genre", ColumnType::Str),
///     ("rating", ColumnType::Float),
/// ]).unwrap();
/// let mut b = TableBuilder::new(schema);
/// for (g, r) in [("a", 4.0), ("a", 5.0), ("b", 2.0), ("b", 1.0)] {
///     b.push_row(vec![g.into(), Cell::Float(r)]).unwrap();
/// }
/// let mut catalog = Catalog::new();
/// catalog.register("r", b.finish());
///
/// let engine = Arc::new(Explorer::new(catalog));
/// let mut session = engine.open_session(SessionSpec::default()).unwrap();
/// let response = session.apply(ExploreCommand::SetQuery(
///     "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
///      ORDER BY val DESC".into(),
/// )).unwrap();
/// assert_eq!(response.summary.total, 2);
/// ```
///
/// Each cache layer sits behind its **own** mutex, and every lock is held
/// only for a lookup or an insert — artifact construction (table scans,
/// plane builds, drill summarizer builds) runs unlocked. A cold `(k, D)`
/// plane build on one table therefore never serializes group-phase or
/// answer-relation probes for other sessions, and no code path ever holds
/// two layer locks at once (so the split cannot deadlock). Two sessions
/// racing on the same missing key may both compute it; the artifacts are
/// deterministic, so the duplicate work is wasted cost only, and the last
/// insert wins.
pub struct Explorer {
    catalog: Arc<Catalog>,
    cfg: ExplorerConfig,
    groups: Mutex<GroupLayer>,
    answers: Mutex<LruCache<(TableId, u64), Arc<AnswerEntry>>>,
    planes: Mutex<LruCache<(u64, usize, usize), Arc<Precomputed<'static>>>>,
    summarizers: Mutex<LruCache<(u64, usize), Arc<Summarizer<'static>>>>,
    store_stats: Mutex<StoreLayerStats>,
    poison: PoisonCounters,
}

/// Lock-free poison-recovery counters (atomics, so counting a recovery
/// can never itself poison anything).
#[derive(Debug, Default)]
struct PoisonCounters {
    group_phase: AtomicU64,
    answers: AtomicU64,
    planes: AtomicU64,
    summarizers: AtomicU64,
    store: AtomicU64,
}

impl PoisonCounters {
    fn snapshot(&self) -> PoisonStats {
        PoisonStats {
            group_phase: self.group_phase.load(Ordering::Relaxed),
            answers: self.answers.load(Ordering::Relaxed),
            planes: self.planes.load(Ordering::Relaxed),
            summarizers: self.summarizers.load(Ordering::Relaxed),
            store: self.store.load(Ordering::Relaxed),
        }
    }

    fn counter(&self, layer: CacheLayer) -> &AtomicU64 {
        match layer {
            CacheLayer::GroupPhase => &self.group_phase,
            CacheLayer::Answers => &self.answers,
            CacheLayer::Planes => &self.planes,
            CacheLayer::Summarizers => &self.summarizers,
            CacheLayer::Store => &self.store,
        }
    }
}

/// What a layer does to its contents when its mutex is recovered from
/// poisoning: drop anything that could be mid-mutation, keep what is
/// plain data. The caches rebuild cold; nothing served afterwards can
/// observe a half-updated structure.
trait PoisonReset {
    fn reset_after_poison(&mut self);
}

impl<K: Eq + std::hash::Hash + Clone, V> PoisonReset for LruCache<K, V> {
    fn reset_after_poison(&mut self) {
        self.clear();
    }
}

impl PoisonReset for GroupLayer {
    fn reset_after_poison(&mut self) {
        self.cache.clear();
        self.scratch = GroupTable::new(0);
        // `scan_stats` counters are plain `u64`s; keep the history, like
        // the store-layer counters.
    }
}

impl PoisonReset for StoreLayerStats {
    fn reset_after_poison(&mut self) {
        // Counters are plain `u64`s; the worst a panic mid-increment
        // leaves behind is an off-by-one count, which is not worth
        // zeroing the whole history over.
    }
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("catalog_tables", &self.catalog.len())
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Fold two fingerprints into one composite key lane.
#[inline]
fn combine(a: u64, b: u64) -> u64 {
    (a.rotate_left(5) ^ b).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl Explorer {
    /// An engine owning `catalog`, with default configuration.
    pub fn new(catalog: Catalog) -> Self {
        Self::from_shared(Arc::new(catalog), ExplorerConfig::default())
    }

    /// An engine owning `catalog` with explicit configuration.
    pub fn with_config(catalog: Catalog, cfg: ExplorerConfig) -> Self {
        Self::from_shared(Arc::new(catalog), cfg)
    }

    /// An engine over an already-shared catalog (e.g. one catalog serving
    /// several engines in tests).
    ///
    /// When a store directory is configured, construction sweeps the
    /// orphaned temp files a crashed predecessor left behind — this runs
    /// before any writer of this process exists, so every matching file
    /// is guaranteed stale. A sweep failure (e.g. the directory does not
    /// exist yet) is ignored; the store degrades, the engine serves.
    pub fn from_shared(catalog: Arc<Catalog>, cfg: ExplorerConfig) -> Self {
        let temp_cleanups = cfg
            .store_dir
            .as_ref()
            .and_then(|dir| crate::store::clean_orphan_temps(cfg.store_io.as_ref(), dir).ok())
            .unwrap_or(0) as u64;
        Explorer {
            catalog,
            groups: Mutex::new(GroupLayer {
                cache: LruCache::new(cfg.group_cache_entries),
                scratch: GroupTable::new(0),
                scan_stats: ParallelScanStats::default(),
            }),
            answers: Mutex::new(LruCache::new(cfg.answers_cache_entries)),
            planes: Mutex::new(LruCache::new(cfg.plane_cache_entries)),
            summarizers: Mutex::new(LruCache::new(cfg.summarizer_cache_entries)),
            store_stats: Mutex::new(StoreLayerStats {
                temp_cleanups,
                ..Default::default()
            }),
            poison: PoisonCounters::default(),
            cfg,
        }
    }

    /// The catalog this engine serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExplorerConfig {
        &self.cfg
    }

    /// Lock a layer, *recovering* from poisoning instead of propagating
    /// it: a panic in one session while it held a layer lock must not
    /// take the layer away from every future session. Recovery clears
    /// the layer's cached contents ([`PoisonReset`]) — the caches are
    /// pure cost, so the worst case is cold rebuilds — and counts the
    /// event in [`PoisonStats`].
    fn lock<'a, T: PoisonReset>(
        &self,
        layer: &'a Mutex<T>,
        which: CacheLayer,
    ) -> std::sync::MutexGuard<'a, T> {
        match layer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                layer.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.reset_after_poison();
                self.poison.counter(which).fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Snapshot the cumulative cache counters of every layer. Each layer
    /// lock is taken (and released) in turn — never nested.
    pub fn stats(&self) -> ExplorerStats {
        let (group_phase, scan) = {
            let layer = self.lock(&self.groups, CacheLayer::GroupPhase);
            (layer.cache.stats(), layer.scan_stats)
        };
        ExplorerStats {
            group_phase,
            scan,
            answers: self.lock(&self.answers, CacheLayer::Answers).stats(),
            planes: self.lock(&self.planes, CacheLayer::Planes).stats(),
            summarizers: self
                .lock(&self.summarizers, CacheLayer::Summarizers)
                .stats(),
            store: *self.lock(&self.store_stats, CacheLayer::Store),
            poison: self.poison.snapshot(),
        }
    }

    /// Load one store file of `kind` — the single probe path both file
    /// kinds share. Reads `path` (only *transient* read faults,
    /// [`StoreErrorKind::Io`], retry, with jittered backoff), then hands the
    /// bytes to `decode`, the kind's validating decoder. Any failure is a
    /// typed probe miss (`None`): the caller computes cold and writes a good
    /// file back. A clean [`StoreErrorKind::NotFound`] is silent; every
    /// other failure is surfaced as [`Degradation::StoreFileRejected`]. A
    /// successful load touches the file so the byte-budget GC sees it as
    /// recently used.
    fn store_load<T>(
        &self,
        kind: StoreFileKind,
        path: &std::path::Path,
        degradations: &mut Vec<Degradation>,
        decode: impl FnOnce(Vec<u8>) -> Result<T>,
    ) -> Option<T> {
        let io = self.cfg.store_io.as_ref();
        let policy = &self.cfg.retry;
        let attempts = policy.attempts.max(1);
        let mut read = Err(QagError::store(StoreErrorKind::Io, "no read attempted"));
        for attempt in 0..attempts {
            if attempt > 0 {
                io.sleep(policy.backoff(attempt - 1));
                self.lock(&self.store_stats, CacheLayer::Store).retries += 1;
            }
            read = io
                .read(path)
                .map_err(|e| crate::store::io_error("read", path, e));
            match &read {
                Ok(_) if attempt > 0 => degradations.push(Degradation::StoreRetried {
                    attempts: attempt + 1,
                }),
                // Transient fault: retry. Everything else — absence,
                // truncation, corruption — is permanent for this probe.
                Err(e) if e.store_kind() == Some(StoreErrorKind::Io) => continue,
                _ => {}
            }
            break;
        }
        let loaded = read.and_then(decode);
        let mut st = self.lock(&self.store_stats, CacheLayer::Store);
        match loaded {
            Ok(v) => {
                st.kind_mut(kind).loads += 1;
                drop(st);
                // Refresh recency so the byte-budget GC keeps what sessions
                // actually load; a failed touch only skews eviction order.
                let _ = io.touch(path);
                Some(v)
            }
            Err(e) => {
                st.kind_mut(kind).probe_misses += 1;
                drop(st);
                match e.store_kind() {
                    Some(StoreErrorKind::NotFound) => {}
                    error => degradations.push(Degradation::StoreFileRejected {
                        file: kind,
                        error: error.unwrap_or(StoreErrorKind::Corrupt),
                    }),
                }
                None
            }
        }
    }

    /// Write one freshly computed artifact's image back to the store — the
    /// single write path both file kinds share: crash-safe write with
    /// bounded retry, per-kind counters, degradations, then a byte-budget
    /// GC pass. Never fails the command; a dropped write-back only costs
    /// the next process its warm start.
    fn store_write_back(
        &self,
        kind: StoreFileKind,
        path: &std::path::Path,
        image: &[u8],
        degradations: &mut Vec<Degradation>,
    ) {
        let io = self.cfg.store_io.as_ref();
        let written = crate::store::write_with_retry(io, path, image, &self.cfg.retry);
        let mut st = self.lock(&self.store_stats, CacheLayer::Store);
        match written {
            Ok(attempts) => {
                st.kind_mut(kind).writes += 1;
                st.retries += u64::from(attempts - 1);
                drop(st);
                if attempts > 1 {
                    degradations.push(Degradation::StoreRetried { attempts });
                }
            }
            Err((_, attempts)) => {
                st.write_errors += 1;
                st.retries += u64::from(attempts.saturating_sub(1));
                drop(st);
                degradations.push(Degradation::StoreWriteBackDropped { attempts });
            }
        }
        // Keep the directory under its byte budget now that it grew. GC
        // trouble is never fatal — the next write-back retries it.
        if let (Some(gc_budget), Some(dir)) =
            (self.cfg.store_budget_bytes, self.cfg.store_dir.as_ref())
        {
            if let Ok(report) = crate::store::gc(io, dir, gc_budget) {
                let mut st = self.lock(&self.store_stats, CacheLayer::Store);
                st.gc_evictions += report.evicted as u64;
                st.gc_bytes_freed += report.bytes_freed;
            }
        }
    }

    /// Decode a plane-set image and accept it only if it serves exactly
    /// what the in-memory key promises: same relation, same `L`, a grid
    /// covering the full knob ranges, and the same pool factor — pool size
    /// changes which clusters the Fixed-Order phase keeps, so a plane built
    /// under a different pool factor would serve different (valid but
    /// non-reproducible) summaries, breaking the warm-equals-cold
    /// invariant.
    fn decode_plane(
        &self,
        bytes: Vec<u8>,
        base: &Arc<AnswerSet>,
        fp: u64,
        l_eff: usize,
        k_max: usize,
    ) -> Result<Precomputed<'static>> {
        let reader = crate::store::StoreReader::from_bytes(bytes)?;
        let cfg = reader.config();
        if reader.fingerprint() != fp
            || reader.l() != l_eff
            || cfg.k_min != 1
            || cfg.k_max != k_max
            || cfg.d_min != 0
            || cfg.d_max != base.arity()
            || cfg.pool_factor != self.cfg.pool_factor
        {
            return Err(QagError::store(
                StoreErrorKind::FingerprintMismatch,
                "plane file is keyed to a different relation or plane shape",
            ));
        }
        reader.into_precomputed(Arc::clone(base))
    }

    /// Rough bytes a dense answer relation retains: `m` u32 codes plus an
    /// f64 score per tuple, plus fixed overhead. An *estimate* — budget
    /// checks need the right order of magnitude, not an allocator audit.
    fn relation_bytes(n: usize, m: usize) -> u64 {
        (n * (4 * m + 8) + 1024) as u64
    }

    /// Rough bytes a full `(k, D)` plane set retains: per-`D` state rows
    /// and interval records, plus the shared cluster pool (pattern +
    /// coverage bitset/list per pooled cluster).
    fn plane_bytes(&self, n: usize, m: usize, k_max: usize) -> u64 {
        let per_plane = k_max * 24 + k_max * 12;
        let pool = self.cfg.pool_factor * k_max * (4 * m + n / 8 + 48);
        ((m + 1) * per_plane + pool + 4096) as u64
    }

    /// Compute the full view for one exploration state — the stateless
    /// engine entry point that [`ExploreSession::apply`] (and any future
    /// network facade) routes through. Deterministic in `state`: cache
    /// hits change only the [`CacheProvenance`], never the view.
    pub fn view(&self, state: &ExploreState) -> Result<(SummaryView, GuidancePlot)> {
        let (view, _) = self.view_internal(state, self.cfg.session_budget_bytes)?;
        Ok((view.summary, view.plot))
    }

    /// The exact dense-coded answer relation `S` of `sql` — layers 1–2
    /// only, no plane build. This is the documented entry point for
    /// callers that want the relation itself (baseline comparisons,
    /// offline summarization) rather than an interactive session; it
    /// shares the engine's caches, so a following
    /// [`Explorer::open_session`] on the same query is warm.
    pub fn answer_relation(&self, sql: &str) -> Result<Arc<AnswerSet>> {
        let stmt = parse(sql)?;
        let table = self.catalog.require_registered(&stmt.from)?;
        let bound = bind(&stmt, &table.table)?;
        let ro = self.relation_layers(&table, &bound, FidelityMode::Exact, &mut Vec::new())?;
        Ok(Arc::clone(&ro.entry.answers))
    }

    /// Layers 1–2 of the pipeline: the finished group phase (exact scan
    /// or seeded sample, per `fidelity`) and the dense-coded answer
    /// relation derived from it. Sampled artifacts fold the
    /// [`SampleSpec`] fingerprint into both cache keys, so exact and
    /// approximate entries for the same query coexist and never alias.
    ///
    /// With a store directory, exact relations are also persisted: when
    /// neither the group phase nor the relation is in memory, the
    /// relation tier is probed *before* layer 1, and a usable
    /// `relation-<key>.qag` serves the relation without touching the
    /// table. The key folds the table's *content* fingerprint with the
    /// group and output fingerprints (the output one covers any
    /// `SetThreshold` override), so it means the same thing in every
    /// process. On a probe miss the table is scanned, the relation derived
    /// and published in memory, then written back. Approximate relations
    /// are never persisted, like approximate planes.
    fn relation_layers(
        &self,
        table: &RegisteredTable,
        bound: &BoundQuery,
        fidelity: FidelityMode,
        degradations: &mut Vec<Degradation>,
    ) -> Result<RelationOutcome> {
        let approx = fidelity == FidelityMode::Approximate;
        let group_fp = bound.group.fingerprint();
        let output_fp = bound.output.fingerprint();
        let phase_fp = if approx {
            combine(group_fp, self.cfg.sample.fingerprint())
        } else {
            group_fp
        };
        let gkey = (table.id, phase_fp);
        let akey = (table.id, combine(phase_fp, output_fp));

        // The relation tier. A resident group phase derives the relation
        // in O(groups), cheaper than any file read, so the tier is only
        // consulted when the scan would otherwise have to run — and then
        // layer 2's memory probe goes first. Without the tier the layers
        // keep their plain 1-then-2 order.
        let tier = match &self.cfg.store_dir {
            Some(dir) if !approx => {
                let key = combine(table.fingerprint, combine(group_fp, output_fp));
                Some((dir.join(crate::store::relation_file_name(key)), key))
            }
            _ => None,
        };
        let mut answers_store = None;
        if let Some((path, key)) = &tier {
            let resident = self
                .lock(&self.groups, CacheLayer::GroupPhase)
                .cache
                .contains_key(&gkey);
            if !resident {
                let probe = self
                    .lock(&self.answers, CacheLayer::Answers)
                    .get_cloned(&akey);
                let served = match probe {
                    Some(entry) => Some((entry, CacheOutcome::Hit, None)),
                    None => self
                        .store_load(StoreFileKind::Answers, path, degradations, |bytes| {
                            crate::store::relation_from_bytes(&bytes, *key)
                        })
                        .map(|(answers, fp)| {
                            let entry = self.publish_answers(akey, answers, fp);
                            (entry, CacheOutcome::Miss, Some(CacheOutcome::Hit))
                        }),
                };
                if let Some((entry, answers_out, answers_store)) = served {
                    return Ok(RelationOutcome {
                        entry,
                        group_out: CacheOutcome::Skipped,
                        answers_out,
                        answers_store,
                        sample: None,
                    });
                }
                answers_store = Some(CacheOutcome::Miss);
            }
        }

        // Layer 1: the finished group phase — the only stage that ever
        // touches the base table. The scratch group table is borrowed out
        // of the engine while the scan runs unlocked; a concurrent miss
        // simply scans with a fresh scratch.
        // Each probe is bound to its own statement so the layer guard in
        // the scrutinee drops before the miss arm re-locks to insert.
        let probe = self
            .lock(&self.groups, CacheLayer::GroupPhase)
            .cache
            .get_cloned(&gkey);
        let (grouped, group_out) = match probe {
            Some(g) => (g, CacheOutcome::Hit),
            None if approx => {
                // The sampled phase brings its own (small) group table and
                // touches only the drawn rows — no scratch borrowing.
                let sampled =
                    group_aggregate_sampled(&bound.group, &table.table, &self.cfg.sample, 1)?;
                let g = Arc::new(GroupPhase {
                    result: sampled.result,
                    sample: Some(sampled.stats),
                });
                self.lock(&self.groups, CacheLayer::GroupPhase)
                    .cache
                    .insert(gkey, Arc::clone(&g));
                (g, CacheOutcome::Miss)
            }
            None => {
                let mut scratch =
                    std::mem::take(&mut self.lock(&self.groups, CacheLayer::GroupPhase).scratch);
                let mut scan = ParallelScanStats::default();
                let result =
                    group_aggregate_auto(&bound.group, &table.table, &mut scratch, &mut scan);
                let mut layer = self.lock(&self.groups, CacheLayer::GroupPhase);
                layer.scratch = scratch;
                layer.scan_stats.merge(scan);
                let g = Arc::new(GroupPhase {
                    result: result?,
                    sample: None,
                });
                layer.cache.insert(gkey, Arc::clone(&g));
                (g, CacheOutcome::Miss)
            }
        };

        // Layer 2: the dense-coded answer relation, derived O(groups) from
        // the group phase via the direct (no string round-trip) path. Its
        // memory probe already ran (and missed) if the relation tier was
        // consulted.
        let probe = match answers_store {
            Some(_) => None,
            None => self
                .lock(&self.answers, CacheLayer::Answers)
                .get_cloned(&akey),
        };
        let (entry, answers_out) = match probe {
            Some(e) => (e, CacheOutcome::Hit),
            None => {
                let answers = grouped.result.apply_answers(&bound.output)?;
                let fp = answers.fingerprint();
                (self.publish_answers(akey, answers, fp), CacheOutcome::Miss)
            }
        };
        // Published first, written back second: a racing session finds the
        // relation in memory without waiting on the disk.
        if let (Some(_), Some((path, key))) = (answers_store, &tier) {
            let image = crate::store::relation_to_bytes(*key, &entry.answers);
            self.store_write_back(StoreFileKind::Answers, path, &image, degradations);
        }
        Ok(RelationOutcome {
            entry,
            group_out,
            answers_out,
            answers_store,
            sample: grouped.sample,
        })
    }

    /// Insert a freshly derived or loaded relation into layer 2.
    fn publish_answers(
        &self,
        akey: (TableId, u64),
        answers: AnswerSet,
        fp: u64,
    ) -> Arc<AnswerEntry> {
        let e = Arc::new(AnswerEntry {
            answers: Arc::new(answers),
            fp,
        });
        self.lock(&self.answers, CacheLayer::Answers)
            .insert(akey, Arc::clone(&e));
        e
    }

    fn view_internal(
        &self,
        state: &ExploreState,
        budget: Option<u64>,
    ) -> Result<(EngineView, CacheProvenance)> {
        if state.k == 0 {
            return Err(QagError::param("size knob k must be at least 1"));
        }
        if state.l == 0 {
            return Err(QagError::param("coverage knob L must be at least 1"));
        }
        let mut degradations: Vec<Degradation> = Vec::new();
        let poison_before = self.poison.snapshot();
        let stmt = parse(&state.sql)?;
        let table = self.catalog.require_registered(&stmt.from)?;
        let mut bound = bind(&stmt, &table.table)?;
        if let Some(t) = state.threshold {
            match bound.output.having.first_mut() {
                Some(h) => h.value = t,
                None => {
                    return Err(QagError::param(
                        "SetThreshold requires a query with a HAVING clause",
                    ))
                }
            }
        }

        // Layers 1–2: the finished group phase and the dense-coded answer
        // relation (shared with [`Explorer::answer_relation`]).
        let ro = self.relation_layers(&table, &bound, state.fidelity, &mut degradations)?;
        let RelationOutcome {
            entry,
            group_out,
            answers_out,
            answers_store,
            sample,
        } = ro;
        let base = Arc::clone(&entry.answers);
        let base_fp = entry.fp;
        let approx = sample.is_some();
        let fidelity = match sample {
            Some(st) => Fidelity::Approximate {
                rel_err: st.rel_err,
                confidence: st.confidence,
            },
            None => Fidelity::Exact,
        };
        if base.is_empty() {
            return Err(QagError::Execution(
                "the query produced an empty answer relation; relax the threshold".to_string(),
            ));
        }
        let m = base.arity();
        let l_eff = state.l.min(base.len());
        let d_eff = state.d.min(m);

        // Layer 3: the (k, D) parameter plane — keyed by the answer set's
        // *content* fingerprint, so a threshold tick that does not change
        // the relation reuses the whole plane. On a memory miss the
        // persistent store (when configured) is probed before building:
        // a usable `.qag` file turns a cold build into a file read, and a
        // cold build writes its plane set back for the next process. All
        // store traffic runs with no layer lock held.
        let k_max = self.cfg.default_k_max.max(state.k);

        // Per-session memory budget: the gate bounds what a command
        // *retains* (relation + plane estimates), not the transient build
        // peak. Over budget the plane is shed — the view is served by one
        // uncached solve and nothing new is pinned; if even the relation
        // alone cannot fit, the command is refused with a typed error and
        // the caller's session state stays untouched.
        let rel_bytes = Self::relation_bytes(base.len(), m);
        if let Some(b) = budget {
            if rel_bytes > b {
                return Err(QagError::BudgetExceeded {
                    needed: rel_bytes,
                    budget: b,
                });
            }
        }
        let plane_est = self.plane_bytes(base.len(), m, k_max);
        let full_bytes = rel_bytes.saturating_add(plane_est);
        let shed_plane = budget.is_some_and(|b| full_bytes > b);

        // Approximate planes may be built with relaxed kernels, so they
        // must never alias an exact plane — even when the sampled
        // relation happens to be content-identical to the exact one
        // (small tables, roomy sample budget).
        let plane_fp = if approx {
            combine(base_fp, self.cfg.sample.fingerprint())
        } else {
            base_fp
        };
        let pkey = (plane_fp, l_eff, k_max);
        let (plane, plane_out, store_out) = if shed_plane {
            degradations.push(Degradation::PlaneShed {
                needed: full_bytes,
                budget: budget.expect("shed implies a budget"),
            });
            (None, CacheOutcome::Miss, None)
        } else {
            let probe = self
                .lock(&self.planes, CacheLayer::Planes)
                .get_cloned(&pkey);
            match probe {
                Some(p) => (Some(p), CacheOutcome::Hit, None),
                None => {
                    // Approximate planes are never persisted: they are
                    // keyed to a sample, cheap to rebuild, and a store
                    // full of throwaway sampled planes would evict the
                    // exact ones warm starts depend on.
                    let store_path = match &self.cfg.store_dir {
                        Some(dir) if !approx => Some(dir.join(crate::store::plane_file_name(
                            base_fp,
                            l_eff,
                            k_max,
                            self.cfg.pool_factor,
                        ))),
                        _ => None,
                    };
                    let loaded = store_path.as_ref().and_then(|path| {
                        self.store_load(StoreFileKind::Plane, path, &mut degradations, |bytes| {
                            self.decode_plane(bytes, &base, base_fp, l_eff, k_max)
                        })
                    });
                    let (p, store_out) = match loaded {
                        Some(p) => (Arc::new(p), Some(CacheOutcome::Hit)),
                        None => {
                            let built: Arc<Precomputed<'static>> = Arc::new(Precomputed::build(
                                Arc::clone(&base),
                                l_eff,
                                PrecomputeConfig {
                                    k_min: 1,
                                    k_max,
                                    d_min: 0,
                                    d_max: m,
                                    pool_factor: self.cfg.pool_factor,
                                    // Approximate planes are built over
                                    // estimates anyway, so they may take
                                    // the relaxed (reassociated) marginal
                                    // kernels; byte-identity paths keep
                                    // the strict delta evaluator.
                                    eval: if approx {
                                        EvalMode::Relaxed
                                    } else {
                                        EvalMode::Delta
                                    },
                                    parallel: self.cfg.parallel_planes,
                                    ..Default::default()
                                },
                            )?);
                            (built, store_path.as_ref().map(|_| CacheOutcome::Miss))
                        }
                    };
                    // Publish to the memory cache *before* the disk
                    // write-back: concurrent sessions racing the same key
                    // stop duplicating the cold build as soon as the plane
                    // exists, and the serialize + write cost never sits
                    // between them and a hit.
                    self.lock(&self.planes, CacheLayer::Planes)
                        .insert(pkey, Arc::clone(&p));
                    if let (Some(CacheOutcome::Miss), Some(path)) = (store_out, &store_path) {
                        // A freshly built plane set always serializes.
                        if let Ok(image) = crate::store::to_bytes(&p) {
                            self.store_write_back(
                                StoreFileKind::Plane,
                                path,
                                &image,
                                &mut degradations,
                            );
                        }
                    }
                    (Some(p), CacheOutcome::Miss, store_out)
                }
            }
        };

        // The guidance plot: the full plane serves the complete (k, D)
        // grid; a shed plane degrades to the single requested point,
        // computed by one uncached solve (nothing retained).
        let (plot, shed_solution) = match &plane {
            Some(p) => (p.guidance(), None),
            None => {
                let summarizer = Summarizer::new(Arc::clone(&base), l_eff)?;
                let solution = summarizer.hybrid(state.k, d_eff)?;
                let plot = GuidancePlot {
                    l: l_eff,
                    k_values: vec![state.k],
                    series: vec![DSeries {
                        d: d_eff,
                        avg_by_k: vec![solution.avg()],
                    }],
                };
                (plot, Some(solution))
            }
        };

        // Summary: the plane's §6.2 stored solution for the overview, or a
        // cached owned summarizer run over the drill focus.
        let (relation, relation_fp, l_used, solution, summarizer_out) = match &state.drill {
            Some(p) if !p.slots().iter().all(|&s| s == STAR) => {
                if p.arity() != m {
                    return Err(QagError::param(format!(
                        "drill pattern arity {} does not match the relation's m={m}",
                        p.arity()
                    )));
                }
                let sub = Arc::new(drill_relation(&base, p)?);
                let sub_fp = sub.fingerprint();
                let l_sub = state.l.min(sub.len());
                let skey = (sub_fp, l_sub);
                let probe = self
                    .lock(&self.summarizers, CacheLayer::Summarizers)
                    .get_cloned(&skey);
                let (summarizer, s_out) = match probe {
                    Some(s) => (s, CacheOutcome::Hit),
                    None => {
                        let s: Arc<Summarizer<'static>> =
                            Arc::new(Summarizer::new(Arc::clone(&sub), l_sub)?);
                        self.lock(&self.summarizers, CacheLayer::Summarizers)
                            .insert(skey, Arc::clone(&s));
                        (s, CacheOutcome::Miss)
                    }
                };
                let solution = summarizer.hybrid(state.k, d_eff.min(sub.arity()))?;
                (sub, sub_fp, l_sub, solution, Some(s_out))
            }
            _ => {
                let solution = match (&plane, shed_solution) {
                    (Some(p), _) => p.solution(state.k, d_eff)?,
                    (None, Some(s)) => s,
                    (None, None) => unreachable!("shed plane always computes a solution"),
                };
                (Arc::clone(&base), base_fp, l_eff, solution, None)
            }
        };

        // Surface poison recoveries that happened under this command's
        // lock acquisitions (comparing cumulative counters keeps the fast
        // path allocation-free).
        let poison_after = self.poison.snapshot();
        for (layer, before, after) in [
            (
                CacheLayer::GroupPhase,
                poison_before.group_phase,
                poison_after.group_phase,
            ),
            (
                CacheLayer::Answers,
                poison_before.answers,
                poison_after.answers,
            ),
            (
                CacheLayer::Planes,
                poison_before.planes,
                poison_after.planes,
            ),
            (
                CacheLayer::Summarizers,
                poison_before.summarizers,
                poison_after.summarizers,
            ),
            (CacheLayer::Store, poison_before.store, poison_after.store),
        ] {
            if after > before {
                degradations.push(Degradation::PoisonRecovered { layer });
            }
        }

        let provenance = CacheProvenance {
            group_phase: group_out,
            answers: answers_out,
            answers_store,
            plane: plane_out,
            plane_store: store_out,
            summarizer: summarizer_out,
            fidelity,
            degradations,
            stats: self.stats(),
        };
        let summary = summary_view(&relation, &solution, state.k, l_used, d_eff, fidelity);
        Ok((
            EngineView {
                relation,
                relation_fp,
                l_eff: l_used,
                solution,
                summary,
                plot,
                fidelity,
                retained_bytes: if shed_plane { rel_bytes } else { full_bytes },
            },
            provenance,
        ))
    }
}

/// Render a solution into a [`SummaryView`].
fn summary_view(
    relation: &AnswerSet,
    solution: &Solution,
    k: usize,
    l: usize,
    d: usize,
    fidelity: Fidelity,
) -> SummaryView {
    let clusters = solution
        .clusters
        .iter()
        .map(|c| ClusterView {
            pattern: c.pattern.clone(),
            label: relation.pattern_to_string(&c.pattern),
            size: c.members.len(),
            top_l: c.members.iter().filter(|&&t| (t as usize) < l).count(),
            sum: c.sum,
            avg: c.avg(),
        })
        .collect();
    SummaryView {
        attr_names: relation.attr_names().to_vec(),
        clusters,
        covered: solution.covered,
        total: relation.len(),
        avg: solution.avg(),
        k,
        l,
        d,
        fidelity,
    }
}

/// Re-express `solution` (computed over `from`) against `to`, matching
/// pattern slots by display text — the bridge that lets the transition
/// machinery diff an *approximate* summary against its *exact* refinement,
/// which live on relations with different dense codings. Coverage and
/// sums are recomputed against `to`; a cluster whose pattern names a
/// value absent from `to`'s domain (a sampling artifact that vanished
/// under the exact scan) is dropped, which the band diagram renders as
/// the cluster dissolving.
fn translate_solution(from: &AnswerSet, to: &AnswerSet, solution: &Solution) -> Solution {
    let mut clusters: Vec<SolutionCluster> = Vec::with_capacity(solution.clusters.len());
    let mut union: std::collections::BTreeSet<TupleId> = std::collections::BTreeSet::new();
    'clusters: for c in &solution.clusters {
        let mut slots = Vec::with_capacity(c.pattern.slots().len());
        for (i, &code) in c.pattern.slots().iter().enumerate() {
            if code == STAR {
                slots.push(STAR);
            } else {
                match to.code_of(i, from.code_text(i, code)) {
                    Some(translated) => slots.push(translated),
                    None => continue 'clusters,
                }
            }
        }
        let pattern = Pattern::new(slots);
        let (members, sum) = to.scan_coverage(&pattern);
        union.extend(members.iter().copied());
        clusters.push(SolutionCluster {
            pattern,
            members,
            sum,
        });
    }
    // Deterministic union sum: BTreeSet iterates ascending tuple id.
    let sum = union.iter().map(|&t| to.val(t)).sum();
    Solution {
        clusters,
        covered: union.len(),
        sum,
    }
}

/// The sub-relation covered by a drill pattern, re-encoded as its own
/// answer set (rank order is inherited from the base relation).
fn drill_relation(base: &AnswerSet, pattern: &Pattern) -> Result<AnswerSet> {
    let (ids, _) = base.scan_coverage(pattern);
    if ids.is_empty() {
        return Err(QagError::Execution(format!(
            "drill pattern {} covers no answers",
            base.pattern_to_string(pattern)
        )));
    }
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
    builder.finish()
}

/// What the previous command of a session summarized, kept for transition
/// rendering. The transition is only built when the current relation's
/// content fingerprint matches `relation_fp`, so the previous solution's
/// tuple ids are valid against the current relation by construction.
#[derive(Debug)]
struct LastView {
    relation_fp: u64,
    solution: Solution,
}

/// A background worker promoting an approximate view to exact by running
/// the exact pipeline for the same state against the shared engine
/// caches. It holds no session state — its entire output is warm cache
/// entries — so dropping the handle (session eviction, checkpoint) simply
/// detaches it; [`ExploreCommand::AwaitExact`] joins it to surface
/// failures as [`Degradation::RefinementFailed`].
#[derive(Debug)]
struct RefineTask {
    handle: std::thread::JoinHandle<std::result::Result<(), String>>,
    /// Content fingerprint of the approximate relation this worker
    /// refines; a new relation obsoletes the task.
    relation_fp: u64,
}

/// Everything needed to open an [`ExploreSession`] — the one documented
/// way into the engine for production callers (examples, the serving
/// layer, load generators). [`SessionSpec::default`] opens a plain exact
/// session with no query, equivalent to [`ExploreSession::new`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Open with this query already applied (the response is discarded;
    /// the first [`ExploreSession::apply`] then starts warm). `None`
    /// opens an empty session whose first command must be
    /// [`ExploreCommand::SetQuery`].
    pub sql: Option<String>,
    /// Pipeline the session starts in. [`FidelityMode::Approximate`]
    /// first-paints from the sampled pipeline and refines in the
    /// background; see [`ExploreCommand::AwaitExact`].
    pub fidelity: FidelityMode,
    /// Session memory budget: `None` inherits
    /// [`ExplorerConfig::session_budget_bytes`]; `Some(b)` overrides it
    /// (`Some(None)` = explicitly unbounded).
    pub budget_bytes: Option<Option<u64>>,
    /// Whether approximate views spawn the background exact-refinement
    /// worker. Disable for benchmarks that must time the first paint
    /// without a concurrent exact scan, or on single-core deployments
    /// that prefer refining only on explicit `AwaitExact`.
    pub background_refine: bool,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            sql: None,
            fidelity: FidelityMode::Exact,
            budget_bytes: None,
            background_refine: true,
        }
    }
}

impl Explorer {
    /// Open a session per `spec` — the documented front door. Collapses
    /// the historical trio of entry points (`run_query` for the relation,
    /// `answers_from_query` for the answer set, raw [`ExploreSession`]
    /// construction for the loop) into one call; the row-level
    /// `qagview_query` functions remain available as the differential
    /// test oracle.
    ///
    /// # Errors
    ///
    /// When [`SessionSpec::sql`] is set, propagates every error its
    /// `SetQuery` could produce (parse/bind failures, empty relation,
    /// budget refusal); no session is returned in that case.
    pub fn open_session(self: &Arc<Self>, spec: SessionSpec) -> Result<ExploreSession> {
        let mut session = ExploreSession::new(Arc::clone(self));
        if let Some(budget) = spec.budget_bytes {
            session.set_budget_bytes(budget);
        }
        session.background_refine = spec.background_refine;
        session.default_fidelity = spec.fidelity;
        if let Some(sql) = spec.sql {
            session.apply(ExploreCommand::SetQuery(sql))?;
        }
        Ok(session)
    }
}

/// One analyst's exploration session over a shared [`Explorer`].
///
/// The session is a thin state machine: it owns the current
/// [`ExploreState`], advances it via [`ExploreSession::apply`], and keeps
/// the previous solution so consecutive summaries over the same relation
/// come back with a band-diagram [`Transition`]. A command that errors
/// (unknown column, empty relation, drill that covers nothing) leaves the
/// state untouched.
#[derive(Debug)]
pub struct ExploreSession {
    engine: Arc<Explorer>,
    state: Option<ExploreState>,
    last: Option<LastView>,
    budget_bytes: Option<u64>,
    retained_bytes: u64,
    /// Fidelity the first `SetQuery` starts in (later commands inherit
    /// the state's own fidelity).
    default_fidelity: FidelityMode,
    /// Whether approximate views spawn a background refinement worker.
    background_refine: bool,
    /// The in-flight (or finished, unjoined) refinement worker, if any.
    refine: Option<RefineTask>,
}

impl ExploreSession {
    /// Open a session on a shared engine. The first command must be
    /// [`ExploreCommand::SetQuery`]. The memory budget starts at the
    /// engine's [`ExplorerConfig::session_budget_bytes`].
    pub fn new(engine: Arc<Explorer>) -> Self {
        let budget_bytes = engine.config().session_budget_bytes;
        ExploreSession {
            engine,
            state: None,
            last: None,
            budget_bytes,
            retained_bytes: 0,
            default_fidelity: FidelityMode::Exact,
            background_refine: true,
            refine: None,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> &Arc<Explorer> {
        &self.engine
    }

    /// Override this session's memory budget (`None` = unbounded). Takes
    /// effect from the next command; see
    /// [`ExplorerConfig::session_budget_bytes`] for the semantics.
    pub fn set_budget_bytes(&mut self, budget: Option<u64>) {
        self.budget_bytes = budget;
    }

    /// This session's current memory budget.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Estimated bytes the last successful command retained in the
    /// engine's shared caches on this session's behalf — the quantity the
    /// budget bounds. Zero before the first successful command.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// The current exploration state (`None` until the first successful
    /// [`ExploreCommand::SetQuery`]).
    pub fn state(&self) -> Option<&ExploreState> {
        self.state.as_ref()
    }

    /// Snapshot everything needed to reconstruct this session later — on
    /// this engine, a fresh engine, or a fresh process — such that its
    /// next command responds byte-identically to the un-evicted session
    /// (see [`crate::checkpoint`]).
    pub fn checkpoint(&self) -> crate::checkpoint::SessionCheckpoint {
        crate::checkpoint::SessionCheckpoint {
            state: self.state.clone(),
            last: self
                .last
                .as_ref()
                .map(|lv| (lv.relation_fp, lv.solution.clone())),
            budget_bytes: self.budget_bytes,
            retained_bytes: self.retained_bytes,
            default_fidelity: self.default_fidelity,
            background_refine: self.background_refine,
        }
    }

    /// Rebuild a session from a checkpoint (the other half of
    /// [`ExploreSession::checkpoint`]).
    pub(crate) fn resume_from(
        engine: Arc<Explorer>,
        cp: &crate::checkpoint::SessionCheckpoint,
    ) -> ExploreSession {
        ExploreSession {
            engine,
            state: cp.state.clone(),
            last: cp.last.as_ref().map(|(fp, solution)| LastView {
                relation_fp: *fp,
                solution: solution.clone(),
            }),
            budget_bytes: cp.budget_bytes,
            retained_bytes: cp.retained_bytes,
            default_fidelity: cp.default_fidelity,
            background_refine: cp.background_refine,
            // The worker is never checkpointed: its only output is warm
            // shared caches, which survive (or rebuild) on their own.
            refine: None,
        }
    }

    /// Advance the session by one command and return the refreshed view.
    ///
    /// # Errors
    ///
    /// Propagates parse/bind/execution errors and knob violations
    /// (`k == 0`, `L == 0`, `SetThreshold` without a `HAVING`, a drill
    /// pattern of the wrong arity or empty coverage, an empty answer
    /// relation), and [`QagError::BudgetExceeded`] when even the degraded
    /// serving path cannot fit this session's memory budget. The session
    /// state is unchanged on error.
    pub fn apply(&mut self, command: ExploreCommand) -> Result<ExploreResponse> {
        if matches!(&command, ExploreCommand::AwaitExact) {
            return self.await_exact();
        }
        let next = match (&self.state, command) {
            (None, ExploreCommand::SetQuery(sql)) => ExploreState {
                sql,
                k: DEFAULT_K,
                l: DEFAULT_L,
                d: DEFAULT_D,
                threshold: None,
                drill: None,
                fidelity: self.default_fidelity,
            },
            (None, other) => {
                return Err(QagError::param(format!(
                    "session has no query yet; start with SetQuery (got {other:?})"
                )))
            }
            (Some(s), ExploreCommand::SetQuery(sql)) => ExploreState {
                sql,
                threshold: None,
                drill: None,
                ..s.clone()
            },
            (Some(s), ExploreCommand::SetThreshold(t)) => ExploreState {
                threshold: Some(t),
                ..s.clone()
            },
            (Some(s), ExploreCommand::SetK(k)) => ExploreState { k, ..s.clone() },
            (Some(s), ExploreCommand::SetL(l)) => ExploreState { l, ..s.clone() },
            (Some(s), ExploreCommand::SetD(d)) => ExploreState { d, ..s.clone() },
            (Some(s), ExploreCommand::DrillDown(p)) => ExploreState {
                drill: if p.slots().iter().all(|&c| c == STAR) {
                    None
                } else {
                    Some(p)
                },
                ..s.clone()
            },
            (Some(s), ExploreCommand::SetFidelity(f)) => ExploreState {
                fidelity: f,
                ..s.clone()
            },
            (_, ExploreCommand::AwaitExact) => unreachable!("handled above"),
        };
        self.finish(next)
    }

    /// The shared back half of every non-`AwaitExact` command: compute
    /// the view, render the transition, commit the state, and (in
    /// approximate mode) kick off the background refinement worker.
    fn finish(&mut self, next: ExploreState) -> Result<ExploreResponse> {
        let (view, provenance) = self.engine.view_internal(&next, self.budget_bytes)?;
        self.retained_bytes = view.retained_bytes;
        let transition = match &self.last {
            Some(last) if last.relation_fp == view.relation_fp => Some(Transition::between(
                &view.relation,
                &last.solution,
                &view.solution,
                view.l_eff,
            )),
            _ => None,
        };
        self.state = Some(next.clone());
        self.last = Some(LastView {
            relation_fp: view.relation_fp,
            solution: view.solution,
        });
        self.maybe_spawn_refine(&next, view.relation_fp);
        Ok(ExploreResponse {
            state: next,
            summary: view.summary,
            plot: view.plot,
            transition,
            fidelity: view.fidelity,
            provenance,
        })
    }

    /// After an approximate view: start (or keep) a background worker
    /// that runs the *exact* pipeline for the same state, so the shared
    /// caches are already warm when `AwaitExact` arrives. Holding the
    /// approximate relation's fingerprint keeps the worker keyed to what
    /// it refines; a spawn failure is silently tolerated — `AwaitExact`
    /// computes inline either way.
    fn maybe_spawn_refine(&mut self, state: &ExploreState, relation_fp: u64) {
        if !self.background_refine || state.fidelity != FidelityMode::Approximate {
            return;
        }
        if self
            .refine
            .as_ref()
            .is_some_and(|t| t.relation_fp == relation_fp)
        {
            return; // already refining (or refined) this relation
        }
        let engine = Arc::clone(&self.engine);
        let exact = ExploreState {
            fidelity: FidelityMode::Exact,
            ..state.clone()
        };
        let budget = self.budget_bytes;
        let spawned = std::thread::Builder::new()
            .name("qag-refine".into())
            .spawn(move || {
                engine
                    .view_internal(&exact, budget)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            });
        self.refine = spawned.ok().map(|handle| RefineTask {
            handle,
            relation_fp,
        });
    }

    /// [`ExploreCommand::AwaitExact`]: promote the session to the exact
    /// pipeline. The served summary is byte-identical to what a cold
    /// exact session at the same state would serve; the transition diffs
    /// the approximate summary (translated onto the exact relation)
    /// against the exact one. If the exact rebuild fails, the session
    /// stays approximate and the failure is surfaced as a degradation.
    fn await_exact(&mut self) -> Result<ExploreResponse> {
        let Some(s) = self.state.clone() else {
            return Err(QagError::param(
                "session has no query yet; start with SetQuery (got AwaitExact)",
            ));
        };
        if s.fidelity == FidelityMode::Exact {
            // Nothing to promote: an idempotent re-view of the state.
            return self.finish(s);
        }
        // Join the worker first: its warm cache entries make the inline
        // exact view below a lookup, and its failure (if any) must be
        // surfaced. The inline computation is authoritative either way.
        let worker_failure = match self.refine.take() {
            Some(task) => match task.handle.join() {
                Ok(Ok(())) => None,
                Ok(Err(reason)) => Some(reason),
                Err(_) => Some("refinement worker panicked".to_string()),
            },
            None => None,
        };
        // The approximate view this promotion starts from — cache-warm
        // (it produced the session's current summary) and needed both for
        // the refined diff and as the fallback if refinement fails.
        let (approx_view, _) = self.engine.view_internal(&s, self.budget_bytes)?;
        let exact_state = ExploreState {
            fidelity: FidelityMode::Exact,
            ..s.clone()
        };
        match self.engine.view_internal(&exact_state, self.budget_bytes) {
            Ok((view, mut provenance)) => {
                if let Some(reason) = worker_failure {
                    // The background attempt failed but the inline one
                    // succeeded: the promotion stands, the hiccup is
                    // still visible in provenance.
                    provenance
                        .degradations
                        .push(Degradation::RefinementFailed { reason });
                }
                provenance.fidelity = Fidelity::Refined;
                let translated = translate_solution(
                    &approx_view.relation,
                    &view.relation,
                    &approx_view.solution,
                );
                let transition = Some(Transition::between(
                    &view.relation,
                    &translated,
                    &view.solution,
                    view.l_eff,
                ));
                self.retained_bytes = view.retained_bytes;
                self.state = Some(exact_state.clone());
                self.last = Some(LastView {
                    relation_fp: view.relation_fp,
                    solution: view.solution,
                });
                Ok(ExploreResponse {
                    state: exact_state,
                    summary: view.summary,
                    plot: view.plot,
                    transition,
                    fidelity: Fidelity::Refined,
                    provenance,
                })
            }
            Err(err) => {
                // Refinement failed: keep serving the approximate view
                // with its error bounds — never a wrong-exact. The state
                // stays approximate so a later AwaitExact can retry.
                let (view, mut provenance) = self.engine.view_internal(&s, self.budget_bytes)?;
                if let Some(reason) = worker_failure {
                    provenance
                        .degradations
                        .push(Degradation::RefinementFailed { reason });
                }
                provenance.degradations.push(Degradation::RefinementFailed {
                    reason: err.to_string(),
                });
                let transition = match &self.last {
                    Some(last) if last.relation_fp == view.relation_fp => {
                        Some(Transition::between(
                            &view.relation,
                            &last.solution,
                            &view.solution,
                            view.l_eff,
                        ))
                    }
                    _ => None,
                };
                self.retained_bytes = view.retained_bytes;
                self.last = Some(LastView {
                    relation_fp: view.relation_fp,
                    solution: view.solution,
                });
                Ok(ExploreResponse {
                    state: s,
                    summary: view.summary,
                    plot: view.plot,
                    transition,
                    fidelity: view.fidelity,
                    provenance,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn catalog() -> Catalog {
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
        ];
        for &(g, w, r) in rows {
            b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("ratings", b.finish());
        c
    }

    const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                       GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC";

    fn session() -> ExploreSession {
        ExploreSession::new(Arc::new(Explorer::new(catalog())))
    }

    #[test]
    fn explorer_is_send_sync_and_sessions_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Explorer>();
        assert_send::<ExploreSession>();
    }

    #[test]
    fn first_command_must_be_set_query() {
        let mut s = session();
        assert!(s.apply(ExploreCommand::SetK(3)).is_err());
        assert!(s.state().is_none());
        assert!(s.apply(ExploreCommand::SetQuery(SQL.into())).is_ok());
        assert!(s.state().is_some());
    }

    #[test]
    fn full_loop_with_provenance() {
        let mut s = session();
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Miss);
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert_eq!(r.summary.total, 5);
        assert!(r.transition.is_none());

        // A knob move: everything upstream is cached.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Hit);
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
        assert!(r.transition.is_some(), "same relation => transition");
        assert_eq!(r.summary.clusters[0].label, "(adventure, *)");

        // A threshold tick that keeps the relation identical still hits
        // the plane (content-fingerprint keying).
        let r = s.apply(ExploreCommand::SetThreshold(0.5)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Miss);
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
        assert!(r.transition.is_some());

        // A threshold tick that changes the relation misses the plane.
        let r = s.apply(ExploreCommand::SetThreshold(1.0)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert_eq!(r.summary.total, 3, "only count-2 groups survive");
        assert!(r.transition.is_none(), "relation changed");
    }

    #[test]
    fn drill_down_focuses_and_all_star_returns() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        let m = r.summary.attr_names.len();
        let adventure = r
            .summary
            .clusters
            .iter()
            .find(|c| c.label == "(adventure, *)")
            .expect("an (adventure, *) cluster")
            .pattern
            .clone();
        let r = s.apply(ExploreCommand::DrillDown(adventure)).unwrap();
        assert_eq!(r.summary.total, 2, "two adventure groups");
        assert_eq!(r.provenance.summarizer, Some(CacheOutcome::Miss));
        assert!(r.transition.is_none(), "focus is a different relation");
        // Same drill again: the summarizer layer answers.
        let r = s
            .apply(ExploreCommand::DrillDown(r.state.drill.clone().unwrap()))
            .unwrap();
        assert_eq!(r.provenance.summarizer, Some(CacheOutcome::Hit));
        assert!(r.transition.is_some());
        // All-star pattern returns to the overview.
        let r = s
            .apply(ExploreCommand::DrillDown(Pattern::all_star(m)))
            .unwrap();
        assert!(r.state.drill.is_none());
        assert_eq!(r.summary.total, 5);
        assert_eq!(r.provenance.summarizer, None);
    }

    #[test]
    fn errors_leave_state_untouched() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        let before = s.state().cloned();
        assert!(s.apply(ExploreCommand::SetK(0)).is_err());
        assert!(s.apply(ExploreCommand::SetL(0)).is_err());
        // Threshold beyond every group: empty relation.
        assert!(s.apply(ExploreCommand::SetThreshold(99.0)).is_err());
        // Drill with the wrong arity.
        assert!(s
            .apply(ExploreCommand::DrillDown(Pattern::new(vec![0])))
            .is_err());
        // New query against a missing table.
        assert!(s
            .apply(ExploreCommand::SetQuery(
                "SELECT x, AVG(y) AS val FROM nope GROUP BY x".into()
            ))
            .is_err());
        assert_eq!(s.state().cloned(), before);
        // And the session still works.
        assert!(s.apply(ExploreCommand::SetK(2)).is_ok());
    }

    #[test]
    fn set_threshold_requires_a_having_clause() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(
            "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre \
             ORDER BY val DESC"
                .into(),
        ))
        .unwrap();
        let err = s.apply(ExploreCommand::SetThreshold(1.0)).unwrap_err();
        assert!(err.to_string().contains("HAVING"), "{err}");
    }

    #[test]
    fn view_is_stateless_and_deterministic() {
        let engine = Explorer::new(catalog());
        let state = ExploreState {
            sql: SQL.into(),
            k: 3,
            l: 5,
            d: 1,
            threshold: Some(0.0),
            drill: None,
            fidelity: FidelityMode::Exact,
        };
        let (summary_a, plot_a) = engine.view(&state).unwrap();
        let (summary_b, plot_b) = engine.view(&state).unwrap();
        assert_eq!(summary_a, summary_b);
        assert_eq!(plot_a, plot_b);
    }

    #[test]
    fn per_layer_locks_serve_concurrent_cold_sessions() {
        // Two tables on one engine, driven cold from two threads at once.
        // Under the per-layer locks a cold plane build on one table holds
        // no lock while constructing, so both sessions complete and every
        // layer ends up populated for both tables. (Deadlock-freedom is by
        // construction: no path ever holds two layer locks.)
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("who", ColumnType::Str),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut c = catalog();
        let mut b = TableBuilder::new(schema);
        for &(g, w, r) in &[
            ("jazz", "student", 4.5),
            ("jazz", "coder", 3.5),
            ("punk", "student", 2.5),
            ("punk", "coder", 1.5),
        ] {
            b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
                .unwrap();
        }
        c.register("albums", b.finish());
        let engine = Arc::new(Explorer::new(c));

        let album_sql = "SELECT genre, who, AVG(rating) AS val FROM albums \
                         GROUP BY genre, who ORDER BY val DESC";
        std::thread::scope(|scope| {
            let e1 = Arc::clone(&engine);
            let t1 = scope.spawn(move || {
                let mut s = ExploreSession::new(e1);
                s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap()
            });
            let e2 = Arc::clone(&engine);
            let t2 = scope.spawn(move || {
                let mut s = ExploreSession::new(e2);
                s.apply(ExploreCommand::SetQuery(album_sql.into())).unwrap()
            });
            let r1 = t1.join().unwrap();
            let r2 = t2.join().unwrap();
            assert_eq!(r1.summary.total, 5);
            assert_eq!(r2.summary.total, 4);
        });
        let stats = engine.stats();
        assert_eq!(stats.group_phase.entries, 2);
        assert_eq!(stats.answers.entries, 2);
        assert_eq!(stats.planes.entries, 2);
    }

    #[test]
    fn store_tier_write_back_and_process_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ExplorerConfig {
            store_dir: Some(dir.clone()),
            ..Default::default()
        };

        // "Process 1": cold build, written back to disk.
        let shared = Arc::new(catalog());
        let engine = Arc::new(Explorer::from_shared(Arc::clone(&shared), cfg.clone()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let cold = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(cold.provenance.plane, CacheOutcome::Miss);
        assert_eq!(cold.provenance.plane_store, Some(CacheOutcome::Miss));
        assert_eq!(cold.provenance.answers_store, Some(CacheOutcome::Miss));
        let stats = engine.stats().store;
        let counts = |k: StoreKindStats| (k.loads, k.probe_misses, k.writes);
        assert_eq!(counts(stats.planes), (0, 1, 1));
        assert_eq!(counts(stats.answers), (0, 1, 1));
        assert_eq!(stats.write_errors, 0);
        let files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 2, "one relation and one plane .qag written");

        // Same engine, warm tick: memory hit, store not consulted.
        let warm = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(warm.provenance.plane, CacheOutcome::Hit);
        assert_eq!(warm.provenance.plane_store, None);

        // "Process 2": a fresh engine over the same catalog warm-starts
        // from the store and shows the user the exact same thing.
        let engine2 = Arc::new(Explorer::from_shared(Arc::clone(&shared), cfg));
        let mut s2 = ExploreSession::new(Arc::clone(&engine2));
        let restored = s2.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(restored.provenance.plane, CacheOutcome::Miss);
        assert_eq!(restored.provenance.plane_store, Some(CacheOutcome::Hit));
        assert_eq!(restored.provenance.answers_store, Some(CacheOutcome::Hit));
        assert_eq!(restored.provenance.group_phase, CacheOutcome::Skipped);
        assert_eq!(engine2.stats().store.planes.loads, 1);
        assert_eq!(engine2.stats().store.answers.loads, 1);
        assert!(cold.same_view(&restored), "store-served view must match");

        // A corrupt file is a probe miss, not an error: flip one byte.
        let path = files
            .iter()
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("plane-")
            })
            .unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(path, &bytes).unwrap();
        let engine3 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s3 = ExploreSession::new(Arc::clone(&engine3));
        let rebuilt = s3.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(rebuilt.provenance.plane_store, Some(CacheOutcome::Miss));
        assert!(rebuilt
            .provenance
            .degradations
            .contains(&Degradation::StoreFileRejected {
                file: StoreFileKind::Plane,
                error: StoreErrorKind::ChecksumMismatch,
            }));
        assert!(cold.same_view(&rebuilt));
        // ... and the rebuild overwrote the corrupt file with a good one.
        let engine4 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s4 = ExploreSession::new(engine4);
        let reread = s4.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(reread.provenance.plane_store, Some(CacheOutcome::Hit));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_budget_sheds_the_plane_then_refuses() {
        let engine = Arc::new(Explorer::new(catalog()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        assert_eq!(s.budget_bytes(), None);

        // Unbounded: the full plane path.
        let full = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert!(full.provenance.degradations.is_empty());
        let full_retained = s.retained_bytes();
        assert!(full_retained > 0);

        // A budget that fits the relation but not the plane: the plane is
        // shed, the command still succeeds, and the plot collapses to the
        // single requested point.
        let mut s2 = ExploreSession::new(Arc::clone(&engine));
        s2.set_budget_bytes(Some(2_000));
        let shed = s2.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(shed.provenance.plane, CacheOutcome::Miss);
        assert_eq!(shed.provenance.plane_store, None);
        assert!(matches!(
            shed.provenance.degradations.as_slice(),
            [Degradation::PlaneShed { needed, budget: 2_000 }] if *needed > 2_000
        ));
        assert_eq!(shed.summary.k, DEFAULT_K);
        assert_eq!(shed.plot.k_values, vec![DEFAULT_K]);
        assert_eq!(shed.plot.series.len(), 1);
        assert!(s2.retained_bytes() <= 2_000);
        assert!(s2.retained_bytes() < full_retained);

        // A budget below even the relation: a typed refusal, state
        // untouched, and the session keeps working once the budget lifts.
        let before = s2.state().cloned();
        s2.set_budget_bytes(Some(100));
        let err = s2.apply(ExploreCommand::SetK(3)).unwrap_err();
        assert!(
            matches!(err, QagError::BudgetExceeded { needed, budget: 100 } if needed > 100),
            "{err}"
        );
        assert_eq!(s2.state().cloned(), before);
        s2.set_budget_bytes(None);
        let recovered = s2.apply(ExploreCommand::SetK(3)).unwrap();
        assert!(recovered.provenance.degradations.is_empty());
    }

    #[test]
    fn poisoned_plane_layer_recovers_by_clearing() {
        let engine = Arc::new(Explorer::new(catalog()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(engine.stats().planes.entries, 1);

        // Panic while holding the plane lock: the guard drops during the
        // unwind and poisons the mutex.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.planes.lock().unwrap();
            panic!("simulated panic while holding the plane layer lock");
        }));
        assert!(poison.is_err());

        // The next command recovers: the layer is cleared (cold plane
        // rebuild), the event is counted and surfaced, and no panic
        // propagates to this session.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::PoisonRecovered {
                layer: CacheLayer::Planes
            }));
        assert_eq!(engine.stats().poison.planes, 1);
        assert_eq!(engine.stats().poison.total(), 1);
        // And the layer is functional again: a further tick is a hit.
        let r = s.apply(ExploreCommand::SetK(2)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
    }

    #[test]
    fn transient_probe_fault_retries_and_warm_starts() {
        use qagview_common::{FaultIo, FaultKind};
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-retry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let shared = Arc::new(catalog());

        // Seed the store with a real engine.
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        ExploreSession::new(engine)
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();

        // A fresh "process" whose first store read fails transiently:
        // op 0 is the construction orphan sweep's list, op 1 the probe
        // read. The retry (after one recorded backoff) succeeds.
        let io = Arc::new(FaultIo::new());
        io.schedule(1, FaultKind::Error);
        let engine2 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_io: io.clone(),
                ..Default::default()
            },
        ));
        let r = ExploreSession::new(Arc::clone(&engine2))
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();
        assert_eq!(r.provenance.plane_store, Some(CacheOutcome::Hit));
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::StoreRetried { attempts: 2 }));
        let stats = engine2.stats().store;
        assert_eq!((stats.planes.loads, stats.retries), (1, 1));
        assert_eq!(io.sleeps().len(), 1, "the retry slept one backoff");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_back_give_up_never_fails_the_command() {
        use qagview_common::{FaultIo, FaultKind};
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-giveup-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Crash the simulated process at the first write-back's
        // create_temp (op 2: list, relation probe read, create_temp):
        // every later op fails too, so both write-backs (relation, then
        // plane) are dropped — and the analyst still gets their summary.
        let io = Arc::new(FaultIo::new());
        io.schedule(2, FaultKind::Crash);
        let engine = Arc::new(Explorer::with_config(
            catalog(),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_io: io.clone(),
                ..Default::default()
            },
        ));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.summary.total, 5);
        assert_eq!(r.provenance.plane_store, Some(CacheOutcome::Miss));
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::StoreWriteBackDropped { attempts: 3 }));
        let stats = engine.stats().store;
        assert_eq!(
            (
                stats.answers.writes,
                stats.planes.writes,
                stats.write_errors
            ),
            (0, 0, 2)
        );
        // Nothing torn left on disk.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // Serving continues from memory.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_gc_evicts_lru_and_retained_planes_still_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let shared = Arc::new(catalog());
        let sql_b = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre \
                     ORDER BY val DESC";

        // Write plane A with no GC budget and measure it.
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        ExploreSession::new(engine)
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();
        let size_a = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum::<u64>();
        assert!(size_a > 0);

        // Backdate A's files (relation older than plane) so the LRU order
        // is deterministic: file mtimes are too coarse to separate writes
        // made within a few milliseconds.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let age = if name.starts_with("relation-") {
                120
            } else {
                60
            };
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(age))
                .unwrap();
        }

        // An engine with a budget of exactly A's two files (relation and
        // plane) writes B's two, overflows the budget, and GC evicts the
        // older A files.
        let engine2 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_budget_bytes: Some(size_a),
                ..Default::default()
            },
        ));
        ExploreSession::new(Arc::clone(&engine2))
            .apply(ExploreCommand::SetQuery(sql_b.into()))
            .unwrap();
        let stats = engine2.stats().store;
        assert_eq!(stats.gc_evictions, 2);
        assert!(stats.gc_bytes_freed > 0);
        let remaining: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert!(remaining <= size_a, "directory over budget after GC");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);

        // The retained files (B) still warm-start a fresh process purely
        // from the store; the evicted ones (A) are clean probe misses.
        let engine3 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s3 = ExploreSession::new(Arc::clone(&engine3));
        let warm = s3.apply(ExploreCommand::SetQuery(sql_b.into())).unwrap();
        assert_eq!(warm.provenance.plane_store, Some(CacheOutcome::Hit));
        assert_eq!(warm.provenance.answers_store, Some(CacheOutcome::Hit));
        let rebuilt = s3.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(rebuilt.provenance.plane_store, Some(CacheOutcome::Miss));
        assert_eq!(rebuilt.provenance.answers_store, Some(CacheOutcome::Miss));
        assert!(
            rebuilt.provenance.degradations.is_empty(),
            "absence is silent"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_temps_are_swept_at_engine_construction() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-orphan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("plane-dead.qag.tmp.999.0"), b"torn").unwrap();
        std::fs::write(dir.join("plane-live.qag"), b"not actually a plane").unwrap();
        let engine = Explorer::with_config(
            catalog(),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        assert_eq!(engine.stats().store.temp_cleanups, 1);
        assert!(!dir.join("plane-dead.qag.tmp.999.0").exists());
        assert!(dir.join("plane-live.qag").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_cache_eviction_is_bounded_and_counted() {
        let engine = Arc::new(Explorer::with_config(
            catalog(),
            ExplorerConfig {
                group_cache_entries: 2,
                ..Default::default()
            },
        ));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let sqls = [
            "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre ORDER BY val DESC",
            "SELECT who, AVG(rating) AS val FROM ratings GROUP BY who ORDER BY val DESC",
            "SELECT genre, who, AVG(rating) AS val FROM ratings GROUP BY genre, who \
             ORDER BY val DESC",
        ];
        for sql in sqls {
            s.apply(ExploreCommand::SetQuery(sql.to_string())).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.group_phase.evictions, 1);
        assert_eq!(stats.group_phase.entries, 2);
        // The first (least recently used) query is cold again.
        let r = s
            .apply(ExploreCommand::SetQuery(sqls[0].to_string()))
            .unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Miss);
    }

    /// A wider catalog (many groups) so approximate and exact relations
    /// have clearly different sizes under a small sampling budget.
    fn wide_catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("who", ColumnType::Str),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for g in 0..12 {
            for w in 0..5 {
                for r in 0..4 {
                    b.push_row(vec![
                        format!("g{g}").as_str().into(),
                        format!("w{w}").as_str().into(),
                        Cell::Float(1.0 + (g * 31 + w * 7 + r) as f64 * 0.01),
                    ])
                    .unwrap();
                }
            }
        }
        let mut c = Catalog::new();
        c.register("ratings", b.finish());
        c
    }

    fn approx_spec(sql: &str) -> SessionSpec {
        SessionSpec {
            sql: Some(sql.to_string()),
            fidelity: FidelityMode::Approximate,
            background_refine: false,
            ..Default::default()
        }
    }

    #[test]
    fn open_session_is_the_front_door() {
        let engine = Arc::new(Explorer::new(catalog()));
        // Default spec == ExploreSession::new.
        let s = engine.open_session(SessionSpec::default()).unwrap();
        assert!(s.state().is_none());
        // With a query: the session opens warm at that query.
        let mut s = engine
            .open_session(SessionSpec {
                sql: Some(SQL.into()),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(s.state().unwrap().sql, SQL);
        assert_eq!(s.state().unwrap().fidelity, FidelityMode::Exact);
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.fidelity, Fidelity::Exact);
        // A bad query refuses to open.
        assert!(engine
            .open_session(SessionSpec {
                sql: Some("SELECT x FROM nope".into()),
                ..Default::default()
            })
            .is_err());
    }

    #[test]
    fn answer_relation_serves_the_exact_relation_and_warms_the_caches() {
        let engine = Arc::new(Explorer::new(catalog()));
        let rel = engine.answer_relation(SQL).unwrap();
        assert_eq!(rel.len(), 5);
        let again = engine.answer_relation(SQL).unwrap();
        assert_eq!(rel.fingerprint(), again.fingerprint());
        // A session on the same query starts layer-1/2 warm.
        let mut s = engine.open_session(SessionSpec::default()).unwrap();
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Hit);
    }

    #[test]
    fn approximate_session_reports_bounds_and_is_reproducible() {
        let sql = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";
        let open = |cfg: ExplorerConfig| {
            let engine = Arc::new(Explorer::with_config(wide_catalog(), cfg));
            let mut s = engine.open_session(approx_spec(sql)).unwrap();
            s.apply(ExploreCommand::SetK(3)).unwrap()
        };
        let cfg = ExplorerConfig {
            sample: SampleSpec {
                target_rows: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = open(cfg.clone());
        match a.fidelity {
            Fidelity::Approximate {
                rel_err,
                confidence,
            } => {
                assert!((0.0..=1.0).contains(&rel_err), "rel_err {rel_err}");
                assert_eq!(confidence, 0.95);
            }
            other => panic!("expected Approximate, got {other:?}"),
        }
        assert_eq!(a.summary.fidelity, a.fidelity);
        // Same config, fresh engine: byte-identical first paint.
        let b = open(cfg);
        assert!(a.same_view(&b), "sampled views must be reproducible");
        // A different seed is a different sampled relation.
        let c = open(ExplorerConfig {
            sample: SampleSpec {
                seed: 7,
                target_rows: 64,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_ne!(
            a.summary.total, 0,
            "sampled relation must not be empty under HAVING-free queries"
        );
        assert!(c.summary.total > 0);
    }

    #[test]
    fn await_exact_matches_a_cold_exact_session_bit_for_bit() {
        let sql = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";
        let cfg = ExplorerConfig {
            sample: SampleSpec {
                target_rows: 48,
                reservoir: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        // Drive an approximate session through a command sequence, then
        // promote it.
        let engine = Arc::new(Explorer::with_config(wide_catalog(), cfg.clone()));
        let mut s = engine.open_session(approx_spec(sql)).unwrap();
        s.apply(ExploreCommand::SetK(3)).unwrap();
        s.apply(ExploreCommand::SetD(1)).unwrap();
        let refined = s.apply(ExploreCommand::AwaitExact).unwrap();
        assert_eq!(refined.fidelity, Fidelity::Refined);
        assert_eq!(refined.state.fidelity, FidelityMode::Exact);
        assert_eq!(refined.summary.fidelity, Fidelity::Exact);
        assert_eq!(refined.provenance.fidelity, Fidelity::Refined);
        assert!(
            refined.transition.is_some(),
            "refinement must diff approximate vs exact"
        );

        // The store-less cold exact path at the same state.
        let engine2 = Arc::new(Explorer::with_config(wide_catalog(), cfg));
        let mut s2 = engine2
            .open_session(SessionSpec {
                sql: Some(sql.into()),
                ..Default::default()
            })
            .unwrap();
        s2.apply(ExploreCommand::SetK(3)).unwrap();
        let exact = s2.apply(ExploreCommand::SetD(1)).unwrap();
        assert_eq!(refined.summary, exact.summary, "refined != cold exact");
        assert_eq!(refined.plot, exact.plot);
        for (a, b) in refined
            .summary
            .clusters
            .iter()
            .zip(exact.summary.clusters.iter())
        {
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            assert_eq!(a.avg.to_bits(), b.avg.to_bits());
        }
        assert_eq!(refined.summary.avg.to_bits(), exact.summary.avg.to_bits());

        // After promotion the session is exact: further commands serve
        // exact views and AwaitExact is an idempotent re-view.
        let r = s.apply(ExploreCommand::SetK(2)).unwrap();
        assert_eq!(r.fidelity, Fidelity::Exact);
        let again = s.apply(ExploreCommand::AwaitExact).unwrap();
        assert_eq!(again.fidelity, Fidelity::Exact);
        assert!(again.transition.is_some());
    }

    #[test]
    fn background_refinement_warms_the_exact_path() {
        let sql = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";
        let engine = Arc::new(Explorer::with_config(
            wide_catalog(),
            ExplorerConfig {
                sample: SampleSpec {
                    target_rows: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
        let mut s = engine
            .open_session(SessionSpec {
                sql: Some(sql.into()),
                fidelity: FidelityMode::Approximate,
                background_refine: true,
                ..Default::default()
            })
            .unwrap();
        // AwaitExact joins the worker; the exact artifacts it computed
        // serve the promotion from cache.
        let refined = s.apply(ExploreCommand::AwaitExact).unwrap();
        assert_eq!(refined.fidelity, Fidelity::Refined);
        assert_eq!(refined.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(refined.provenance.plane, CacheOutcome::Hit);
        assert!(!refined
            .provenance
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::RefinementFailed { .. })));
    }

    #[test]
    fn refinement_failure_keeps_the_approximate_view() {
        let sql = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";
        // A budget sized between the sampled relation (~16 groups) and
        // the exact one (60 groups): the approximate view serves (plane
        // shed), the exact rebuild is refused.
        let engine = Arc::new(Explorer::with_config(
            wide_catalog(),
            ExplorerConfig {
                sample: SampleSpec {
                    target_rows: 16,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
        let mut s = engine
            .open_session(SessionSpec {
                sql: Some(sql.into()),
                fidelity: FidelityMode::Approximate,
                background_refine: false,
                budget_bytes: Some(Some(1_500)),
            })
            .unwrap();
        let approx_total = s.apply(ExploreCommand::SetK(2)).unwrap().summary.total;
        let r = s.apply(ExploreCommand::AwaitExact).unwrap();
        assert!(
            matches!(r.fidelity, Fidelity::Approximate { .. }),
            "failed refinement must stay approximate, got {:?}",
            r.fidelity
        );
        assert_eq!(r.state.fidelity, FidelityMode::Approximate);
        assert_eq!(r.summary.total, approx_total);
        assert!(
            r.provenance
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::RefinementFailed { .. })),
            "failure must be visible in provenance: {:?}",
            r.provenance.degradations
        );
        // The session still works, and lifting the budget lets a retry
        // succeed.
        s.set_budget_bytes(None);
        let promoted = s.apply(ExploreCommand::AwaitExact).unwrap();
        assert_eq!(promoted.fidelity, Fidelity::Refined);
        assert_eq!(promoted.state.fidelity, FidelityMode::Exact);
    }

    #[test]
    fn set_fidelity_switches_pipelines_without_aliasing_planes() {
        let sql = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who ORDER BY val DESC";
        let engine = Arc::new(Explorer::with_config(
            wide_catalog(),
            ExplorerConfig {
                sample: SampleSpec {
                    target_rows: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
        let mut s = engine
            .open_session(SessionSpec {
                sql: Some(sql.into()),
                background_refine: false,
                ..Default::default()
            })
            .unwrap();
        // Exact first, then switch to approximate: the sampled pipeline
        // must build its own plane (no cache aliasing), even if the
        // sampled relation were content-identical.
        let exact = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(exact.fidelity, Fidelity::Exact);
        let approx = s
            .apply(ExploreCommand::SetFidelity(FidelityMode::Approximate))
            .unwrap();
        assert!(matches!(approx.fidelity, Fidelity::Approximate { .. }));
        assert_eq!(approx.provenance.plane, CacheOutcome::Miss);
        assert_eq!(
            approx.provenance.plane_store, None,
            "approximate planes never touch the persistent store"
        );
        // And back: the exact plane is still cached.
        let back = s
            .apply(ExploreCommand::SetFidelity(FidelityMode::Exact))
            .unwrap();
        assert_eq!(back.fidelity, Fidelity::Exact);
        assert_eq!(back.provenance.plane, CacheOutcome::Hit);
        assert!(back.same_view(&ExploreResponse {
            transition: back.transition.clone(),
            ..exact.clone()
        }));
    }

    #[test]
    fn await_exact_before_any_query_is_a_clean_error() {
        let engine = Arc::new(Explorer::new(catalog()));
        let mut s = engine.open_session(SessionSpec::default()).unwrap();
        let err = s.apply(ExploreCommand::AwaitExact).unwrap_err();
        assert!(err.to_string().contains("SetQuery"), "{err}");
        let err = s
            .apply(ExploreCommand::SetFidelity(FidelityMode::Approximate))
            .unwrap_err();
        assert!(err.to_string().contains("SetQuery"), "{err}");
    }
}
