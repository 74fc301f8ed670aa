//! The persistent precompute store: versioned, checksummed `.qag` files
//! holding the two artifacts a restarted process needs to serve a view
//! without recomputing it — the exact answer relation of a query, and its
//! full [`Precomputed`] `(k, D)` plane set.
//!
//! The paper's interactivity guarantee (§6.2, §7) rests on precomputing
//! every `(k, D)` solution plane so a slider or knob tick is a lookup.
//! Since the owned engine landed, those planes are shared across sessions
//! in memory — but they still died with the process. This module inverts
//! that lifetime: a built plane set serializes to one `.qag` file, and a
//! fresh process [`load`]s it back in roughly the cost of reading the file,
//! then serves summaries **byte-identical** to the ones the building
//! process served. Planes are keyed by the answer relation's content
//! fingerprint, which a fresh process could only learn by rescanning the
//! table — so the relation is persisted too ([`relation_to_bytes`]), keyed
//! by what the process *does* know up front: the table's content
//! fingerprint and the query's group and output fingerprints.
//!
//! # File layouts
//!
//! All integers are little-endian; floats are stored as raw `u64` bit
//! patterns (the engine's byte-identity discipline extends to disk). Both
//! kinds share one fixed header:
//!
//! ```text
//! [ 0.. 8)  magic            b"QAGPLANE" (plane set) or b"QAGRELTN" (relation)
//! [ 8..12)  format version   u32 (currently 1 for both kinds)
//! [12..20)  payload checksum u64 — qagview_common::wire::checksum64 of
//!                            every byte after this field
//! [20..  )  payload
//! ```
//!
//! **Plane set** (`plane-<fp>-l<L>-k<kmax>-p<pool>.qag`, [`to_bytes`]):
//!
//! ```text
//!   header   answer-set content fingerprint u64, n u64, m u32, L u32,
//!            PrecomputeConfig (k_min/k_max/d_min/d_max/pool_factor u32,
//!            eval/engine/parallel u8, reserved u8)
//!   clusters count u32, then per referenced candidate id:
//!            id u32 · pattern (m × u32) · coverage sum f64-bits ·
//!            coverage section (ascending u32 id run, or raw u64 bitset
//!            words when that is smaller — see qagview_lattice::wire)
//!   planes   count u32, then per D:
//!            d u32 · state count u32 · states (size u64, covered u64,
//!            sum f64-bits) · interval count u32 · intervals
//!            (k_lo u32, k_hi u32, cluster id u32), canonically sorted
//! ```
//!
//! The **cluster section is shared across all `D` planes**: the Fixed-Order
//! pool (and every merge LCA any descent produced) is written exactly once,
//! and the per-`D` sections reference it by candidate id — mirroring how
//! the build shares one Fixed-Order prefix across all `D` descents.
//!
//! **Answer relation** (`relation-<key>.qag`, [`relation_to_bytes`]): the
//! exact, post-`HAVING` relation, rank-ordered as served.
//!
//! ```text
//!   key      u64 — the engine's relation key (table content fingerprint ⊕
//!            group-phase fingerprint ⊕ output-phase fingerprint, the last
//!            including any SetThreshold override)
//!   fp       u64 — the relation's AnswerSet::fingerprint
//!   relation m u32 · n u64 · m attribute names · per attribute: domain
//!            size u32 + display strings in code order · n·m codes u32
//!            (row-major) · n scores f64-bits (qagview_lattice::wire)
//! ```
//!
//! Strings are a `u32` byte count plus UTF-8 bytes. Approximate (sampled)
//! relations and planes are never persisted.
//!
//! # Warm start cost
//!
//! A restarted process serving a known query reads one relation file
//! (checksum, decode, bounds and order check, re-fingerprint — one linear
//! pass each) and one plane file per `L`, and never touches the table.
//! [`StoreReader::open`] reads a plane file once, verifies the checksum
//! (one linear pass), and decodes only the small sections: header,
//! patterns, states, intervals. Coverage — the bulky part — stays as
//! undecoded byte ranges of the single shared buffer and is materialized
//! per cluster each time a solution touches it
//! ([`qagview_lattice::StoredCluster`]; cost-comparable to the live-index
//! path, which clones its cached coverage list per access).
//! A stabbing query at `(k, d)` touches at most `k` clusters, so the
//! first summary after a process start costs file-read + checksum + a few
//! coverage decodes, not a candidate-index rebuild.
//!
//! # Failure model
//!
//! Every way a file can be unusable — truncation, wrong magic, unknown
//! version, checksum mismatch, semantic corruption (an out-of-domain code,
//! a NaN or misordered score, an inverted interval), or a key or
//! fingerprint that does not match what it is being loaded as — returns a
//! typed [`QagError::Store`] with a [`StoreErrorKind`]; nothing in the
//! decode or serve path panics on file content. A relation file is used
//! only if magic, version, checksum, key and code bounds all pass *and*
//! its recomputed content fingerprint equals the one in its header.
//! [`crate::Explorer`] treats any load failure as a cache miss: it
//! recomputes (a relation falls back to the table scan, a plane to a cold
//! build), records a [`crate::Degradation::StoreFileRejected`] unless the
//! file was simply absent, and overwrites the bad file. Neither kind can
//! ever produce a wrong answer — only a slower one.
//!
//! Faults at the moment they happen are covered too: every filesystem
//! touch goes through a [`StoreIo`] ([`RealIo`] in production, a
//! scriptable [`qagview_common::FaultIo`] under test), and the write path
//! ([`write_with_retry`], shared by both kinds) is crash-safe by
//! construction — create temp, write, **sync**, rename — so a kill at any
//! step leaves either the complete old file, the complete new file, or
//! nothing but an orphaned temp that [`clean_orphan_temps`] sweeps on the
//! next open. A directory-level [`gc`] keeps a store under a configurable
//! byte budget by evicting the least-recently-used `.qag` files of either
//! kind (recency = mtime, refreshed by [`StoreIo::touch`] on every
//! successful load).

use crate::interval_tree::IntervalTree;
use crate::precompute::{DPlane, PrecomputeConfig, Precomputed, StateMeta};
use crate::DescentEngine;
use qagview_common::io::{RealIo, RetryPolicy, StoreIo};
use qagview_common::wire::{checksum64, Reader, Writer};
use qagview_common::{QagError, Result, StoreErrorKind};
use qagview_core::EvalMode;
use qagview_lattice::{wire as lwire, AnswerSet, AnswersHandle, CandId, ClusterDirectory};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a `.qag` plane-store file.
pub const STORE_MAGIC: [u8; 8] = *b"QAGPLANE";
/// Current store format version.
pub const STORE_VERSION: u32 = 1;
/// Magic bytes identifying a `.qag` answer-relation file.
pub const RELATION_MAGIC: [u8; 8] = *b"QAGRELTN";
/// Current relation-file format version.
pub const RELATION_VERSION: u32 = 1;
/// Bytes before the payload: magic (8) + version (4) + checksum (8).
const HEADER_BYTES: usize = 20;

/// The canonical file name for a plane store: the engine's in-memory
/// plane-cache key (answer-set content fingerprint, `L`, `k_max`) plus
/// the pool factor — pool size changes which clusters the Fixed-Order
/// phase keeps, so engines configured with different pool factors must
/// not shadow each other's files in a shared store directory.
pub fn plane_file_name(fingerprint: u64, l: usize, k_max: usize, pool_factor: usize) -> String {
    format!("plane-{fingerprint:016x}-l{l}-k{k_max}-p{pool_factor}.qag")
}

fn eval_code(eval: EvalMode) -> u8 {
    match eval {
        EvalMode::Naive => 0,
        EvalMode::Delta => 1,
    }
}

fn eval_from(code: u8) -> Result<EvalMode> {
    match code {
        0 => Ok(EvalMode::Naive),
        1 => Ok(EvalMode::Delta),
        other => Err(QagError::store(
            StoreErrorKind::Corrupt,
            format!("unknown eval-mode code {other}"),
        )),
    }
}

fn engine_code(engine: DescentEngine) -> u8 {
    match engine {
        DescentEngine::Frontier => 0,
        DescentEngine::PerRoundReEval => 1,
    }
}

fn engine_from(code: u8) -> Result<DescentEngine> {
    match code {
        0 => Ok(DescentEngine::Frontier),
        1 => Ok(DescentEngine::PerRoundReEval),
        other => Err(QagError::store(
            StoreErrorKind::Corrupt,
            format!("unknown descent-engine code {other}"),
        )),
    }
}

/// Serialize a plane set to the format-1 byte image.
///
/// # Errors
///
/// Propagates coverage materialization failures when re-saving a plane set
/// that was itself loaded from a (corrupt) store; a freshly built plane
/// set cannot fail.
pub fn to_bytes(pre: &Precomputed<'_>) -> Result<Vec<u8>> {
    let answers = pre.answers();
    let cfg = pre.config();
    let mut w = Writer::with_capacity(1 << 16);
    w.put_bytes(&STORE_MAGIC);
    w.put_u32(STORE_VERSION);
    let checksum_at = w.len();
    w.put_u64(0); // back-patched below

    // Header section.
    w.put_u64(answers.fingerprint());
    w.put_u64(answers.len() as u64);
    w.put_u32(answers.arity() as u32);
    w.put_u32(pre.l() as u32);
    w.put_u32(cfg.k_min as u32);
    w.put_u32(cfg.k_max as u32);
    w.put_u32(cfg.d_min as u32);
    w.put_u32(cfg.d_max as u32);
    w.put_u32(cfg.pool_factor as u32);
    w.put_u8(eval_code(cfg.eval));
    w.put_u8(engine_code(cfg.engine));
    w.put_u8(u8::from(cfg.parallel));
    w.put_u8(0); // reserved

    // Shared cluster section: every id any plane references, once.
    // Borrow-visited — a write-back streams each cluster's pattern and
    // coverage straight into the buffer without cloning them first.
    let ids = pre.referenced_ids();
    w.put_u32(ids.len() as u32);
    for &id in &ids {
        pre.with_cluster(id, |pattern, members, sum| {
            lwire::put_cluster(&mut w, id, pattern, sum, answers.len(), members);
        })?;
    }

    // Per-D plane sections.
    w.put_u32(pre.planes().len() as u32);
    for plane in pre.planes() {
        w.put_u32(plane.d as u32);
        w.put_u32(plane.states.len() as u32);
        for s in &plane.states {
            w.put_u64(s.size as u64);
            w.put_u64(s.covered as u64);
            w.put_f64_bits(s.sum);
        }
        let mut items: Vec<(usize, usize, CandId)> = plane
            .tree
            .items()
            .map(|(lo, hi, &id)| (lo, hi, id))
            .collect();
        // `finish_plane` built the tree from canonically sorted items;
        // re-sorting the extraction recovers exactly that order, so the
        // loader rebuilds a structurally identical tree.
        items.sort_unstable();
        w.put_u32(items.len() as u32);
        for (lo, hi, id) in items {
            w.put_u32(lo as u32);
            w.put_u32(hi as u32);
            w.put_u32(id);
        }
    }

    Ok(seal(w, checksum_at))
}

/// Back-patch the payload checksum of a finished image.
fn seal(mut w: Writer, checksum_at: usize) -> Vec<u8> {
    let sum = checksum64(&w.as_bytes()[HEADER_BYTES..]);
    w.patch_u64(checksum_at, sum);
    w.into_bytes()
}

/// Verify the fixed header every `.qag` file kind shares — length, magic,
/// format version, payload checksum — so no section decode ever runs over
/// bytes that were not written whole by this build's format.
fn verify_image(bytes: &[u8], magic: &[u8; 8], version: u32) -> Result<()> {
    if bytes.len() < HEADER_BYTES {
        return Err(QagError::store(
            StoreErrorKind::Truncated,
            format!(
                "file is {} bytes, the fixed header alone needs {HEADER_BYTES}",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != magic[..] {
        return Err(QagError::store(
            StoreErrorKind::BadMagic,
            format!(
                "missing {} magic; not this kind of store file",
                String::from_utf8_lossy(magic)
            ),
        ));
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(QagError::store(
            StoreErrorKind::UnsupportedVersion,
            format!("format version {found}, this build reads {version}"),
        ));
    }
    let stored = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let actual = checksum64(&bytes[HEADER_BYTES..]);
    if stored != actual {
        return Err(QagError::store(
            StoreErrorKind::ChecksumMismatch,
            format!("stored {stored:#018x}, computed {actual:#018x}"),
        ));
    }
    Ok(())
}

/// The canonical file name of a persisted answer relation. `key` is the
/// engine's cross-process relation key: the table's content fingerprint
/// folded with the group-phase and output-phase fingerprints of the query
/// (see [`crate::Explorer`]).
pub fn relation_file_name(key: u64) -> String {
    format!("relation-{key:016x}.qag")
}

/// Serialize an exact answer relation to the relation-file image (format
/// version [`RELATION_VERSION`]): the fixed header, then `key`, the
/// relation's content fingerprint, and the [`lwire::put_answers`] section.
pub fn relation_to_bytes(key: u64, answers: &AnswerSet) -> Vec<u8> {
    let mut w =
        Writer::with_capacity(HEADER_BYTES + 64 + answers.len() * (answers.arity() * 4 + 8));
    w.put_bytes(&RELATION_MAGIC);
    w.put_u32(RELATION_VERSION);
    let checksum_at = w.len();
    w.put_u64(0); // back-patched by `seal`
    w.put_u64(key);
    w.put_u64(answers.fingerprint());
    lwire::put_answers(&mut w, answers);
    seal(w, checksum_at)
}

/// Decode a relation-file image, accepting it only as the relation keyed
/// `key`. Returns the relation with its (verified) content fingerprint.
///
/// # Errors
///
/// Every failure is a typed [`QagError::Store`]: the shared header checks
/// (truncation, magic, version, checksum), [`StoreErrorKind::FingerprintMismatch`]
/// when the file holds a different key, and [`StoreErrorKind::Corrupt`] on
/// a malformed section, out-of-domain code, NaN or misordered score,
/// trailing bytes, or a recomputed content fingerprint that differs from
/// the one in the header.
pub fn relation_from_bytes(bytes: &[u8], key: u64) -> Result<(AnswerSet, u64)> {
    verify_image(bytes, &RELATION_MAGIC, RELATION_VERSION)?;
    let mut r = Reader::new(&bytes[HEADER_BYTES..]);
    let stored_key = r.read_u64()?;
    if stored_key != key {
        return Err(QagError::store(
            StoreErrorKind::FingerprintMismatch,
            format!("file holds relation {stored_key:#018x}, expected {key:#018x}"),
        ));
    }
    let stored_fp = r.read_u64()?;
    let answers = lwire::read_answers(&mut r)?;
    if !r.is_exhausted() {
        return Err(QagError::store(
            StoreErrorKind::Corrupt,
            format!(
                "{} trailing bytes after the relation section",
                r.remaining()
            ),
        ));
    }
    let fp = answers.fingerprint();
    if fp != stored_fp {
        return Err(QagError::store(
            StoreErrorKind::Corrupt,
            format!("relation content fingerprints to {fp:#018x}, header says {stored_fp:#018x}"),
        ));
    }
    Ok((answers, fp))
}

/// Map a raw filesystem error to the typed store error, keeping file
/// absence ([`StoreErrorKind::NotFound`]) distinct from real I/O trouble
/// so callers never retry a clean miss.
pub(crate) fn io_error(op: &str, path: &Path, e: std::io::Error) -> QagError {
    let kind = if e.kind() == std::io::ErrorKind::NotFound {
        StoreErrorKind::NotFound
    } else {
        StoreErrorKind::Io
    };
    QagError::store(kind, format!("{op} {}: {e}", path.display()))
}

/// The unique temp path one write-back attempt uses.
///
/// The temp name must be unique per *writer*, not just per process: two
/// sessions of one engine racing the same cold build both write back to
/// the same final path, and a shared temp file would reopen the
/// torn-write window the rename exists to close.
fn temp_path_for(path: &Path) -> std::path::PathBuf {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    std::path::PathBuf::from(tmp)
}

/// Whether a directory entry is an orphaned write-back temp file.
fn is_orphan_temp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.contains(".qag.tmp."))
}

/// Write a byte image to `path` crash-safely through `io`: create a
/// uniquely named temp file, write, **sync**, then rename over the final
/// path. On any failure the temp file is removed (best-effort — a crash
/// can orphan it, which [`clean_orphan_temps`] sweeps on the next open).
pub(crate) fn write_image(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_path_for(path);
    let step =
        |op: &str, r: std::io::Result<()>| -> Result<()> { r.map_err(|e| io_error(op, path, e)) };
    let guarded: Result<()> = step("create temp for", io.create_temp(&tmp))
        .and_then(|()| step("write temp for", io.write(&tmp, bytes)))
        .and_then(|()| step("sync temp for", io.sync(&tmp)))
        .and_then(|()| step("rename into", io.rename(&tmp, path)));
    if guarded.is_err() {
        let _ = io.remove(&tmp);
    }
    guarded
}

/// Write a plane set to `path` atomically (temp file + sync + rename), so
/// a concurrent reader — or a crash mid-write — never observes a torn
/// file. Production entry point over [`RealIo`].
pub fn save(pre: &Precomputed<'_>, path: impl AsRef<Path>) -> Result<()> {
    save_io(&RealIo, pre, path.as_ref())
}

/// [`save`] over an explicit [`StoreIo`] backend.
pub fn save_io(io: &dyn StoreIo, pre: &Precomputed<'_>, path: &Path) -> Result<()> {
    let bytes = to_bytes(pre)?;
    write_image(io, path, &bytes)
}

/// Write any store image crash-safely with bounded retry: transient
/// failures (a flaky disk, a momentary `ENOSPC`) back off with
/// deterministic jitter ([`RetryPolicy::backoff`], slept through
/// [`StoreIo::sleep`]) and try again; each failed attempt removes its temp
/// file before the next one starts. Returns the number of attempts used
/// on success; after the last attempt fails, the final error propagates
/// (temp already cleaned) with the attempt count.
pub fn write_with_retry(
    io: &dyn StoreIo,
    path: &Path,
    bytes: &[u8],
    policy: &RetryPolicy,
) -> std::result::Result<u32, (QagError, u32)> {
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            io.sleep(policy.backoff(attempt - 1));
        }
        match write_image(io, path, bytes) {
            Ok(()) => return Ok(attempt + 1),
            Err(e) => last = Some(e),
        }
    }
    Err((last.expect("at least one attempt ran"), attempts))
}

/// Remove orphaned write-back temp files (`*.qag.tmp.<pid>.<seq>`) from a
/// store directory — the debris a crash between temp-write and rename
/// leaves behind. Returns how many were removed. Run at engine open,
/// before any writer of this process is live, so every matching file is
/// guaranteed stale.
pub fn clean_orphan_temps(io: &dyn StoreIo, dir: &Path) -> Result<usize> {
    let entries = io.list(dir).map_err(|e| io_error("list", dir, e))?;
    let mut removed = 0;
    for entry in entries {
        if is_orphan_temp(&entry.path) && io.remove(&entry.path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// What one [`gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// `.qag` files examined.
    pub examined: usize,
    /// Files evicted to get under the budget.
    pub evicted: usize,
    /// Bytes those evictions freed.
    pub bytes_freed: u64,
    /// `.qag` bytes remaining after the pass.
    pub bytes_retained: u64,
}

/// Keep a store directory's `.qag` payload under `budget_bytes` by
/// evicting least-recently-used files (oldest mtime first; loads refresh
/// mtime via [`StoreIo::touch`], so retention tracks *use*, not creation).
/// Non-`.qag` files are never touched. A file that cannot be removed is
/// skipped, not fatal — the next pass retries it.
pub fn gc(io: &dyn StoreIo, dir: &Path, budget_bytes: u64) -> Result<GcReport> {
    let mut planes: Vec<_> = io
        .list(dir)
        .map_err(|e| io_error("list", dir, e))?
        .into_iter()
        .filter(|f| f.path.extension().is_some_and(|e| e == "qag"))
        .collect();
    // Oldest first; absent mtimes first (cannot prove recent use), path as
    // the deterministic tie-break.
    planes.sort_by(|a, b| a.modified.cmp(&b.modified).then(a.path.cmp(&b.path)));
    let mut report = GcReport {
        examined: planes.len(),
        bytes_retained: planes.iter().map(|f| f.len).sum(),
        ..Default::default()
    };
    for f in &planes {
        if report.bytes_retained <= budget_bytes {
            break;
        }
        if io.remove(&f.path).is_ok() {
            report.evicted += 1;
            report.bytes_freed += f.len;
            report.bytes_retained -= f.len;
        }
    }
    Ok(report)
}

/// The parsed fixed-size header of a store file.
#[derive(Debug, Clone, Copy)]
struct StoreHeader {
    fingerprint: u64,
    n: usize,
    m: usize,
    l: usize,
    cfg: PrecomputeConfig,
}

/// An opened store file: checksum-verified bytes plus the parsed header,
/// with the bulky sections still undecoded.
///
/// `open` answers "is this the plane set for my answer relation?"
/// (via [`StoreReader::fingerprint`]) without decoding any plane;
/// [`StoreReader::into_precomputed`] finishes the decode against the
/// answer set, keeping coverage sections zero-copy inside the shared
/// buffer.
#[derive(Debug)]
pub struct StoreReader {
    bytes: Arc<Vec<u8>>,
    header: StoreHeader,
}

impl StoreReader {
    /// Open and verify a store file: magic, version, checksum, header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_io(&RealIo, path.as_ref())
    }

    /// [`StoreReader::open`] over an explicit [`StoreIo`] backend. A file
    /// that does not exist is [`StoreErrorKind::NotFound`] (the clean
    /// probe miss); any other filesystem failure is
    /// [`StoreErrorKind::Io`] (transient — a caller may retry).
    pub fn open_io(io: &dyn StoreIo, path: &Path) -> Result<Self> {
        let bytes = io.read(path).map_err(|e| io_error("read", path, e))?;
        Self::from_bytes(bytes)
    }

    /// Verify an in-memory store image (magic, version, checksum, header).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        verify_image(&bytes, &STORE_MAGIC, STORE_VERSION)?;
        let mut r = Reader::new(&bytes[HEADER_BYTES..]);
        let header = Self::read_header(&mut r)?;
        Ok(StoreReader {
            bytes: Arc::new(bytes),
            header,
        })
    }

    fn read_header(r: &mut Reader<'_>) -> Result<StoreHeader> {
        let fingerprint = r.read_u64()?;
        let n = r.read_u64()? as usize;
        if n > u32::MAX as usize {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("tuple count {n} exceeds the u32 tuple-id space"),
            ));
        }
        let m = r.read_u32()? as usize;
        let l = r.read_u32()? as usize;
        let k_min = r.read_u32()? as usize;
        let k_max = r.read_u32()? as usize;
        let d_min = r.read_u32()? as usize;
        let d_max = r.read_u32()? as usize;
        let pool_factor = r.read_u32()? as usize;
        let eval = eval_from(r.read_u8()?)?;
        let engine = engine_from(r.read_u8()?)?;
        let parallel = r.read_u8()? != 0;
        let _reserved = r.read_u8()?;
        if m == 0 || m > 24 {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("implausible arity m={m}"),
            ));
        }
        if l == 0 || l > n {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("L={l} outside 1..=n={n}"),
            ));
        }
        if k_min == 0 || k_min > k_max || d_min > d_max || d_max > m {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("invalid parameter ranges k=[{k_min},{k_max}] d=[{d_min},{d_max}] m={m}"),
            ));
        }
        Ok(StoreHeader {
            fingerprint,
            n,
            m,
            l,
            cfg: PrecomputeConfig {
                k_min,
                k_max,
                d_min,
                d_max,
                pool_factor,
                eval,
                parallel,
                engine,
            },
        })
    }

    /// The answer-set content fingerprint the planes were built over.
    pub fn fingerprint(&self) -> u64 {
        self.header.fingerprint
    }

    /// Tuple count of the answer relation.
    pub fn n(&self) -> usize {
        self.header.n
    }

    /// Arity of the answer relation.
    pub fn m(&self) -> usize {
        self.header.m
    }

    /// The `L` the planes serve.
    pub fn l(&self) -> usize {
        self.header.l
    }

    /// The build configuration stored in the file.
    pub fn config(&self) -> PrecomputeConfig {
        self.header.cfg
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.bytes.len()
    }

    /// Finish the decode against the answer relation the file claims to
    /// describe, producing a [`Precomputed`] that serves byte-identical
    /// solutions to the one that was saved.
    ///
    /// # Errors
    ///
    /// [`StoreErrorKind::FingerprintMismatch`] when `answers` is not the
    /// relation the file was built over; [`StoreErrorKind::Truncated`] /
    /// [`StoreErrorKind::Corrupt`] on malformed sections.
    pub fn into_precomputed<'a>(
        self,
        answers: impl Into<AnswersHandle<'a>>,
    ) -> Result<Precomputed<'a>> {
        let answers = answers.into();
        let h = &self.header;
        let fp = answers.fingerprint();
        if fp != h.fingerprint {
            return Err(QagError::store(
                StoreErrorKind::FingerprintMismatch,
                format!(
                    "store was built over answer set {:#018x}, loading against {fp:#018x}",
                    h.fingerprint
                ),
            ));
        }
        if answers.len() != h.n || answers.arity() != h.m {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "fingerprint matches but shape differs: file says n={} m={}, relation has \
                     n={} m={}",
                    h.n,
                    h.m,
                    answers.len(),
                    answers.arity()
                ),
            ));
        }
        let domain_sizes: Vec<usize> = (0..h.m).map(|i| answers.domain_size(i)).collect();

        // One cursor over the whole file, so the zero-copy coverage ranges
        // the cluster records capture are offsets into the shared buffer.
        let buf = Arc::clone(&self.bytes);
        let mut pr = Reader::new(&buf);
        pr.skip(HEADER_BYTES)?;
        Self::read_header(&mut pr)?; // fixed width; validated at open

        // Shared cluster section.
        let cluster_count = pr.read_count(pr.remaining() / 4, "cluster")?;
        let mut directory = ClusterDirectory::new(h.m, h.n);
        for _ in 0..cluster_count {
            let (id, cluster) = lwire::read_cluster(&mut pr, &buf, h.n, &domain_sizes)?;
            directory.insert(id, cluster)?;
        }

        // Per-D plane sections.
        let plane_count = pr.read_count(h.d_max_planes(), "plane")?;
        if plane_count != h.d_max_planes() {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "{plane_count} planes stored, config ranges over {}",
                    h.d_max_planes()
                ),
            ));
        }
        let mut planes: Vec<DPlane> = Vec::with_capacity(plane_count);
        for _ in 0..plane_count {
            let d = pr.read_u32()? as usize;
            if d < h.cfg.d_min || d > h.cfg.d_max || planes.iter().any(|p| p.d == d) {
                return Err(QagError::store(
                    StoreErrorKind::Corrupt,
                    format!("unexpected or duplicate plane D={d}"),
                ));
            }
            let state_count = pr.read_count(pr.remaining() / 24, "state")?;
            if state_count == 0 {
                return Err(QagError::store(
                    StoreErrorKind::Corrupt,
                    format!("plane D={d} has no recorded states"),
                ));
            }
            let mut states = Vec::with_capacity(state_count);
            for _ in 0..state_count {
                states.push(StateMeta {
                    size: pr.read_u64()? as usize,
                    covered: pr.read_u64()? as usize,
                    sum: pr.read_f64_bits()?,
                });
            }
            let interval_count = pr.read_count(pr.remaining() / 12, "interval")?;
            let mut items: Vec<(usize, usize, CandId)> = Vec::with_capacity(interval_count);
            for _ in 0..interval_count {
                let lo = pr.read_u32()? as usize;
                let hi = pr.read_u32()? as usize;
                let id = pr.read_u32()?;
                if lo > hi {
                    return Err(QagError::store(
                        StoreErrorKind::Corrupt,
                        format!("inverted interval [{lo}, {hi}] in plane D={d}"),
                    ));
                }
                if !directory.contains(id) {
                    return Err(QagError::store(
                        StoreErrorKind::Corrupt,
                        format!("plane D={d} references cluster {id} absent from the directory"),
                    ));
                }
                items.push((lo, hi, id));
            }
            planes.push(DPlane {
                d,
                tree: IntervalTree::build(items),
                states,
            });
        }
        if !pr.is_exhausted() {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "{} trailing bytes after the last plane section",
                    pr.remaining()
                ),
            ));
        }
        Ok(Precomputed::from_stored(
            answers, directory, h.l, h.cfg, planes,
        ))
    }
}

impl StoreHeader {
    fn d_max_planes(&self) -> usize {
        self.cfg.d_max - self.cfg.d_min + 1
    }
}

/// Open `path` and reconstruct the plane set against `answers` in one
/// call — the process warm-start entry point.
pub fn load<'a>(
    path: impl AsRef<Path>,
    answers: impl Into<AnswersHandle<'a>>,
) -> Result<Precomputed<'a>> {
    StoreReader::open(path)?.into_precomputed(answers)
}

/// [`load`] over an explicit [`StoreIo`] backend.
pub fn load_io<'a>(
    io: &dyn StoreIo,
    path: &Path,
    answers: impl Into<AnswersHandle<'a>>,
) -> Result<Precomputed<'a>> {
    StoreReader::open_io(io, path)?.into_precomputed(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_lattice::{AnswerSet, AnswerSetBuilder};

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        let rows: Vec<(&str, &str, &str, f64)> = vec![
            ("x", "p", "1", 9.5),
            ("x", "q", "1", 8.75),
            ("x", "r", "1", 8.0),
            ("y", "p", "2", 7.5),
            ("y", "q", "2", 7.0),
            ("y", "r", "2", 6.5),
            ("w", "p", "3", 6.0),
            ("w", "q", "3", 5.5),
            ("z", "p", "1", 2.0),
            ("z", "q", "2", 1.5),
            ("v", "r", "3", 1.0),
            ("v", "p", "1", 0.5),
        ];
        for (a, bb, c, v) in rows {
            b.push(&[a, bb, c], v).unwrap();
        }
        b.finish().unwrap()
    }

    fn built() -> (AnswerSet, Precomputed<'static>) {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 8,
            d_min: 0,
            d_max: 3,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(Arc::new(s.clone()), 8, cfg).unwrap();
        (s, pre)
    }

    fn assert_equivalent(a: &Precomputed<'_>, b: &Precomputed<'_>) {
        assert_eq!(a.stored_intervals(), b.stored_intervals());
        assert_eq!(a.l(), b.l());
        for d in 0..=3 {
            for k in 1..=8 {
                let sa = a.solution(k, d).unwrap();
                let sb = b.solution(k, d).unwrap();
                assert_eq!(sa.patterns(), sb.patterns(), "k={k} d={d}");
                assert_eq!(sa.sum.to_bits(), sb.sum.to_bits(), "k={k} d={d}");
                assert_eq!(sa.covered, sb.covered, "k={k} d={d}");
                for (ca, cb) in sa.clusters.iter().zip(&sb.clusters) {
                    assert_eq!(ca.members, cb.members, "k={k} d={d}");
                    assert_eq!(ca.sum.to_bits(), cb.sum.to_bits(), "k={k} d={d}");
                }
                assert_eq!(
                    a.value(k, d).unwrap().to_bits(),
                    b.value(k, d).unwrap().to_bits(),
                    "k={k} d={d}"
                );
            }
        }
        assert_eq!(a.guidance(), b.guidance());
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (s, pre) = built();
        let bytes = to_bytes(&pre).unwrap();
        let reader = StoreReader::from_bytes(bytes.clone()).unwrap();
        assert_eq!(reader.fingerprint(), s.fingerprint());
        assert_eq!(reader.n(), s.len());
        assert_eq!(reader.m(), s.arity());
        assert_eq!(reader.l(), 8);
        let loaded = reader.into_precomputed(Arc::new(s.clone())).unwrap();
        assert!(loaded.is_stored());
        assert!(loaded.index().is_none());
        assert_equivalent(&pre, &loaded);
        // Serializing the loaded plane set reproduces the same bytes.
        assert_eq!(to_bytes(&loaded).unwrap(), bytes);
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let (s, pre) = built();
        let dir = std::env::temp_dir().join(format!("qag-store-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(plane_file_name(s.fingerprint(), 8, 8, 2));
        save(&pre, &path).unwrap();
        let loaded = load(&path, Arc::new(s.clone())).unwrap();
        assert_equivalent(&pre, &loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_file_is_a_clean_not_found() {
        let err = StoreReader::open("/nonexistent/qag/plane.qag").unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::NotFound));
    }

    #[test]
    fn failed_save_removes_its_temp_file() {
        use qagview_common::{FaultIo, FaultKind};
        let (s, pre) = built();
        let dir = std::env::temp_dir().join(format!("qag-store-tmpclean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(plane_file_name(s.fingerprint(), 8, 8, 2));
        // Fail the write (op 1: create_temp is op 0) — the half-written
        // temp must be cleaned up before the error propagates.
        let io = FaultIo::new();
        io.schedule(1, FaultKind::TornWrite);
        let err = save_io(&io, &pre, &path).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::Io));
        assert!(!path.exists(), "no final file after a failed save");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "temp file leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_with_retry_recovers_from_a_transient_fault() {
        use qagview_common::{FaultIo, FaultKind};
        let (s, pre) = built();
        let dir = std::env::temp_dir().join(format!("qag-store-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(plane_file_name(s.fingerprint(), 8, 8, 2));
        let io = FaultIo::new();
        io.schedule(1, FaultKind::Enospc); // first attempt's write fails
        let policy = RetryPolicy::default();
        let attempts = write_with_retry(&io, &path, &to_bytes(&pre).unwrap(), &policy).unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(io.sleeps().len(), 1, "one backoff sleep between attempts");
        let loaded = load(&path, Arc::new(s.clone())).unwrap();
        assert_equivalent(&pre, &loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_with_retry_gives_up_with_no_temp_debris() {
        use qagview_common::{FaultIo, FaultKind};
        let (s, pre) = built();
        let dir = std::env::temp_dir().join(format!("qag-store-giveup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(plane_file_name(s.fingerprint(), 8, 8, 2));
        let io = FaultIo::new();
        // Fail every attempt's write: 4 ops per clean attempt, but a failed
        // attempt runs create_temp, write (fails), remove = 3 ops.
        for op in [1, 4, 7] {
            io.schedule(op, FaultKind::Enospc);
        }
        let policy = RetryPolicy::default();
        let (err, attempts) =
            write_with_retry(&io, &path, &to_bytes(&pre).unwrap(), &policy).unwrap_err();
        assert_eq!(attempts, 3);
        assert_eq!(err.store_kind(), Some(StoreErrorKind::Io));
        assert!(!path.exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "temp debris after give-up: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_temps_are_swept_and_real_files_kept() {
        let dir = std::env::temp_dir().join(format!("qag-store-orphans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("plane-aaaa.qag"), b"keep").unwrap();
        std::fs::write(dir.join("plane-aaaa.qag.tmp.1234.0"), b"orphan").unwrap();
        std::fs::write(dir.join("plane-bbbb.qag.tmp.1234.7"), b"orphan").unwrap();
        std::fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
        let removed = clean_orphan_temps(&RealIo, &dir).unwrap();
        assert_eq!(removed, 2);
        assert!(dir.join("plane-aaaa.qag").exists());
        assert!(dir.join("notes.txt").exists());
        assert!(!dir.join("plane-aaaa.qag.tmp.1234.0").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_evicts_least_recently_used_until_under_budget() {
        let dir = std::env::temp_dir().join(format!("qag-store-gc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Three 100-byte planes with strictly increasing mtimes, plus an
        // unrelated file GC must never consider.
        let names = ["plane-old.qag", "plane-mid.qag", "plane-new.qag"];
        for (i, name) in names.iter().enumerate() {
            let p = dir.join(name);
            std::fs::write(&p, vec![0u8; 100]).unwrap();
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 60);
            std::fs::File::options()
                .write(true)
                .open(&p)
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), vec![0u8; 500]).unwrap();
        let report = gc(&RealIo, &dir, 250).unwrap();
        assert_eq!(report.examined, 3);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.bytes_freed, 100);
        assert_eq!(report.bytes_retained, 200);
        assert!(!dir.join("plane-old.qag").exists(), "LRU file evicted");
        assert!(dir.join("plane-mid.qag").exists());
        assert!(dir.join("plane-new.qag").exists());
        assert!(dir.join("notes.txt").exists(), "non-.qag files untouched");
        // Already under budget: a second pass is a no-op.
        let again = gc(&RealIo, &dir, 250).unwrap();
        assert_eq!(again.evicted, 0);
        assert_eq!(again.bytes_retained, 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn touch_refreshes_recency_so_gc_keeps_the_touched_file() {
        let dir = std::env::temp_dir().join(format!("qag-store-touch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, name) in ["plane-a.qag", "plane-b.qag"].iter().enumerate() {
            let p = dir.join(name);
            std::fs::write(&p, vec![0u8; 100]).unwrap();
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(2_000_000 + i as u64 * 60);
            std::fs::File::options()
                .write(true)
                .open(&p)
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        // plane-a is older; touching it (as a load would) makes it the
        // most recent, so GC evicts plane-b instead.
        RealIo.touch(&dir.join("plane-a.qag")).unwrap();
        let report = gc(&RealIo, &dir, 100).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(dir.join("plane-a.qag").exists());
        assert!(!dir.join("plane-b.qag").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let (_, pre) = built();
        let bytes = to_bytes(&pre).unwrap();
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["other"], 1.0).unwrap();
        let other = b.finish().unwrap();
        let err = StoreReader::from_bytes(bytes)
            .unwrap()
            .into_precomputed(Arc::new(other))
            .unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::FingerprintMismatch));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (_, pre) = built();
        let bytes = to_bytes(&pre).unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert_eq!(
            StoreReader::from_bytes(wrong_magic)
                .unwrap_err()
                .store_kind(),
            Some(StoreErrorKind::BadMagic)
        );
        let mut wrong_version = bytes;
        wrong_version[8] = 99;
        assert_eq!(
            StoreReader::from_bytes(wrong_version)
                .unwrap_err()
                .store_kind(),
            Some(StoreErrorKind::UnsupportedVersion)
        );
    }

    #[test]
    fn retired_and_unknown_eval_codes_are_corrupt() {
        let (_, pre) = built();
        let bytes = to_bytes(&pre).unwrap();
        // The eval-mode byte follows the fingerprint and n (u64 each), m
        // and L (u32 each) and the five u32 config fields before it.
        let eval_at = HEADER_BYTES + 8 + 8 + 4 + 4 + 5 * 4;
        assert_eq!(bytes[eval_at], eval_code(pre.config().eval));
        // Code 2 was the approximate-plane mode, which no build writes
        // any more; it decodes like any other unknown code.
        for code in [2u8, 3, 0xff] {
            let mut bad = bytes.clone();
            bad[eval_at] = code;
            let sum = checksum64(&bad[HEADER_BYTES..]);
            bad[12..20].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                StoreReader::from_bytes(bad).unwrap_err().store_kind(),
                Some(StoreErrorKind::Corrupt),
                "eval code {code}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let (_, pre) = built();
        let base = to_bytes(&pre).unwrap();
        // A flip anywhere in the payload must be caught at open time.
        for pos in [
            HEADER_BYTES,
            HEADER_BYTES + 9,
            base.len() / 2,
            base.len() - 1,
        ] {
            let mut bytes = base.clone();
            bytes[pos] ^= 0x10;
            assert_eq!(
                StoreReader::from_bytes(bytes).unwrap_err().store_kind(),
                Some(StoreErrorKind::ChecksumMismatch),
                "flip at {pos}"
            );
        }
        // A flip in the stored checksum itself, too.
        let mut bytes = base;
        bytes[12] ^= 0x01;
        assert_eq!(
            StoreReader::from_bytes(bytes).unwrap_err().store_kind(),
            Some(StoreErrorKind::ChecksumMismatch)
        );
    }

    #[test]
    fn relation_round_trip_is_byte_identical() {
        let s = answers();
        let key = 0xfeed_beef;
        assert_eq!(relation_file_name(key), "relation-00000000feedbeef.qag");
        let bytes = relation_to_bytes(key, &s);
        assert_eq!(&bytes[..8], &RELATION_MAGIC);
        let (back, fp) = relation_from_bytes(&bytes, key).unwrap();
        assert_eq!(back, s);
        assert_eq!(fp, s.fingerprint());
        assert_eq!(relation_to_bytes(key, &back), bytes);
        // Asked for under another key, the same file is a typed mismatch.
        let err = relation_from_bytes(&bytes, key + 1).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::FingerprintMismatch));
        // A plane image is not a relation image, and vice versa.
        let (_, pre) = built();
        let plane = to_bytes(&pre).unwrap();
        let err = relation_from_bytes(&plane, key).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::BadMagic));
        let err = StoreReader::from_bytes(bytes).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::BadMagic));
    }

    #[test]
    fn relation_damage_is_typed_never_a_panic() {
        let key = 7;
        let bytes = relation_to_bytes(key, &answers());
        for len in 0..bytes.len() {
            let err = relation_from_bytes(&bytes[..len], key).expect_err("strict prefix");
            assert!(err.store_kind().is_some(), "untyped error at prefix {len}");
        }
        for pos in HEADER_BYTES..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x04;
            assert_eq!(
                relation_from_bytes(&flipped, key).unwrap_err().store_kind(),
                Some(StoreErrorKind::ChecksumMismatch),
                "flip at {pos}"
            );
        }
        // Re-sealed damage gets past the checksum and must still be caught:
        // a code outside its domain (the first code follows the strings).
        let s = answers();
        let codes_at = bytes.len() - s.len() * 8 - s.codes().len() * 4;
        let mut bad = bytes.clone();
        bad[codes_at] = 0xff;
        let sum = checksum64(&bad[HEADER_BYTES..]);
        bad[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            relation_from_bytes(&bad, key).unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
        // ... and trailing bytes after the section.
        let mut long = bytes;
        long.push(0);
        let sum = checksum64(&long[HEADER_BYTES..]);
        long[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            relation_from_bytes(&long, key).unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
    }

    #[test]
    fn truncation_at_every_length_is_typed_never_a_panic() {
        let (s, pre) = built();
        let bytes = to_bytes(&pre).unwrap();
        let arc = Arc::new(s);
        for len in 0..bytes.len() {
            let cut = bytes[..len].to_vec();
            let result = StoreReader::from_bytes(cut)
                .and_then(|r| r.into_precomputed(Arc::clone(&arc)).map(|_| ()));
            let err = result.expect_err("every strict prefix must fail");
            assert!(
                err.store_kind().is_some(),
                "untyped error at prefix {len}: {err}"
            );
        }
    }
}
