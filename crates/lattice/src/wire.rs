//! On-disk sections for lattice-level objects: patterns, cluster
//! coverage, and whole answer relations ([`put_answers`] /
//! [`read_answers`], the section of a persisted relation file).
//!
//! The persistent precompute store serializes, per candidate cluster that
//! any `(k, D)` plane references, its pattern codes, its exact coverage
//! sum (as raw `f64` bits), and its coverage over `S`. Coverage is the
//! bulky part, so two representations are chosen per cluster by size:
//!
//! * **id runs** — ascending `u32` tuple ids, for sparse clusters;
//! * **bitset words** — raw `u64` words over `n` tuples, for clusters
//!   covering more than `n / 32` tuples (where the words are smaller than
//!   the id run).
//!
//! Either way the bytes stay inside the store's single read buffer
//! ([`std::sync::Arc`]`<Vec<u8>>`) and are only *materialized* into id
//! vectors when a solution actually touches the cluster — a stabbing query
//! at `(k, d)` touches ≤ `k` clusters, so a process can open a store and
//! serve its first summary without ever decoding the other clusters'
//! coverage. Materialization re-validates bounds and ordering (typed
//! errors, never panics), and yields ids in ascending order — exactly the
//! order of [`CandidateInfo::cov`](crate::CandidateInfo::cov) — so solutions served from a store are
//! byte-identical (float accumulation order included) to solutions served
//! from a live [`CandidateIndex`](crate::CandidateIndex).

use crate::answers::{AnswerSet, TupleId};
use crate::candidates::CandId;
use crate::pattern::{Pattern, STAR};
use qagview_common::wire::{self as qwire, Reader, Writer};
use qagview_common::{FixedBitSet, FxHashMap, QagError, Result, StoreErrorKind};
use std::sync::Arc;

/// Append a pattern's slots (codes or [`STAR`]) to a section.
pub fn put_pattern(w: &mut Writer, p: &Pattern) {
    w.put_u32_slice(p.slots());
}

/// Decode a pattern of arity `m`, validating every concrete slot against
/// the per-attribute domain sizes.
pub fn read_pattern(r: &mut Reader<'_>, domain_sizes: &[usize]) -> Result<Pattern> {
    let slots = r.read_u32_vec(domain_sizes.len())?;
    for (i, &c) in slots.iter().enumerate() {
        if c != STAR && c as usize >= domain_sizes[i] {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "pattern slot {i} holds code {c}, attribute domain has {} values",
                    domain_sizes[i]
                ),
            ));
        }
    }
    Ok(Pattern::new(slots))
}

/// Representation tag of a serialized coverage section.
const COV_IDS: u8 = 0;
const COV_BITS: u8 = 1;

/// A cluster's coverage kept as an undecoded range of the shared store
/// buffer, materialized on demand.
#[derive(Debug, Clone)]
enum CovSection {
    /// Ascending `u32` little-endian tuple ids.
    IdsLe {
        buf: Arc<Vec<u8>>,
        offset: usize,
        count: usize,
    },
    /// `u64` little-endian bitset words over `n` tuples.
    BitsLe {
        buf: Arc<Vec<u8>>,
        offset: usize,
        count: usize,
    },
}

/// One cluster as loaded from a store: pattern, exact coverage sum, and a
/// lazily materialized coverage section.
#[derive(Debug, Clone)]
pub struct StoredCluster {
    pattern: Pattern,
    sum: f64,
    n: usize,
    cov: CovSection,
}

impl StoredCluster {
    /// The cluster pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Sum of `val` over the covered tuples, bit-exact as stored.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of covered tuples (known without materializing).
    pub fn count(&self) -> usize {
        match &self.cov {
            CovSection::IdsLe { count, .. } | CovSection::BitsLe { count, .. } => *count,
        }
    }

    /// Decode the coverage into ascending tuple ids — the same order as
    /// [`CandidateInfo::cov`](crate::CandidateInfo::cov), so downstream float
    /// accumulation is byte-identical to the live-index path.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::Store`] ([`StoreErrorKind::Corrupt`]) if ids
    /// are out of range or not strictly ascending, or if a bitset section
    /// disagrees with its recorded count. A checksum-valid store never
    /// trips these; they exist so even a hand-corrupted file cannot panic
    /// the serving path.
    pub fn materialize(&self) -> Result<Vec<TupleId>> {
        match &self.cov {
            CovSection::IdsLe { buf, offset, count } => {
                let bytes = &buf[*offset..*offset + count * 4];
                let mut ids = Vec::with_capacity(*count);
                let mut prev: Option<u32> = None;
                for c in bytes.chunks_exact(4) {
                    let id = u32::from_le_bytes(c.try_into().expect("4 bytes"));
                    if id as usize >= self.n {
                        return Err(QagError::store(
                            StoreErrorKind::Corrupt,
                            format!("coverage id {id} out of range for n={}", self.n),
                        ));
                    }
                    if prev.is_some_and(|p| p >= id) {
                        return Err(QagError::store(
                            StoreErrorKind::Corrupt,
                            "coverage ids not strictly ascending",
                        ));
                    }
                    prev = Some(id);
                    ids.push(id);
                }
                Ok(ids)
            }
            CovSection::BitsLe { buf, offset, count } => {
                let nwords = self.n.div_ceil(64);
                let bytes = &buf[*offset..*offset + nwords * 8];
                // The shared word-codec validates word count and the
                // padding-bits-zero invariant with a typed error.
                let bits = FixedBitSet::from_words(self.n, qwire::decode_u64_le(bytes))?;
                if bits.count_ones() != *count {
                    return Err(QagError::store(
                        StoreErrorKind::Corrupt,
                        format!(
                            "coverage bitset holds {} ids, section header says {count}",
                            bits.count_ones()
                        ),
                    ));
                }
                Ok(bits.iter_ones().map(|i| i as TupleId).collect())
            }
        }
    }
}

/// Append one cluster's coverage section: representation tag, count, then
/// either the ascending id run or the bitset words — whichever is smaller.
///
/// `ids` must be ascending tuple ids `< n` (the invariant of
/// [`CandidateInfo::cov`](crate::CandidateInfo::cov)).
///
/// # Panics
///
/// Panics if any id is `>= n` (via [`FixedBitSet::from_ids`]'s bounds
/// assert) — an out-of-range id written as a word would corrupt the
/// padding invariant the decoder validates.
pub fn put_coverage(w: &mut Writer, n: usize, ids: &[TupleId]) {
    let id_bytes = ids.len() * 4;
    let word_bytes = n.div_ceil(64) * 8;
    if id_bytes <= word_bytes {
        w.put_u8(COV_IDS);
        w.put_u32(ids.len() as u32);
        w.put_u32_slice(ids);
    } else {
        w.put_u8(COV_BITS);
        w.put_u32(ids.len() as u32);
        let bits = FixedBitSet::from_ids(n, ids.iter().map(|&id| id as usize));
        w.put_u64_slice(bits.as_words());
    }
}

/// Decode one cluster record written by [`put_cluster`], borrowing the
/// coverage bytes from `buf` without copying. `r` must be a cursor over
/// `buf` itself (positions are reused as offsets into the shared buffer).
pub fn read_cluster(
    r: &mut Reader<'_>,
    buf: &Arc<Vec<u8>>,
    n: usize,
    domain_sizes: &[usize],
) -> Result<(CandId, StoredCluster)> {
    let id = r.read_u32()?;
    let pattern = read_pattern(r, domain_sizes)?;
    let sum = r.read_f64_bits()?;
    let tag = r.read_u8()?;
    let count = r.read_count(n, "coverage")?;
    let cov = match tag {
        COV_IDS => {
            let offset = r.position();
            r.skip(count * 4)?;
            CovSection::IdsLe {
                buf: Arc::clone(buf),
                offset,
                count,
            }
        }
        COV_BITS => {
            let offset = r.position();
            r.skip(n.div_ceil(64) * 8)?;
            CovSection::BitsLe {
                buf: Arc::clone(buf),
                offset,
                count,
            }
        }
        other => {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("unknown coverage representation tag {other}"),
            ))
        }
    };
    Ok((
        id,
        StoredCluster {
            pattern,
            sum,
            n,
            cov,
        },
    ))
}

/// Append one full cluster record: id, pattern, sum bits, coverage.
pub fn put_cluster(
    w: &mut Writer,
    id: CandId,
    pattern: &Pattern,
    sum: f64,
    n: usize,
    ids: &[TupleId],
) {
    w.put_u32(id);
    put_pattern(w, pattern);
    w.put_f64_bits(sum);
    put_coverage(w, n, ids);
}

/// Upper bound on the arity a persisted answer relation may declare — a
/// guard against absurd counts in a corrupt file, far above any real
/// group-by width.
const MAX_ARITY: usize = 1 << 10;

/// Append a whole answer relation: arity `m` u32, tuple count `n` u64,
/// the `m` attribute names, each attribute's domain (count u32, then its
/// display strings in code order), the row-major codes (`n·m` u32) and the
/// scores (`n` f64 bit patterns), all in rank order.
pub fn put_answers(w: &mut Writer, answers: &AnswerSet) {
    let m = answers.arity();
    w.put_u32(m as u32);
    w.put_u64(answers.len() as u64);
    for name in answers.attr_names() {
        w.put_str_u32(name);
    }
    for i in 0..m {
        let domain = answers.domain(i);
        w.put_u32(domain.len() as u32);
        for text in domain {
            w.put_str_u32(text);
        }
    }
    w.put_u32_slice(answers.codes());
    for &v in answers.vals() {
        w.put_f64_bits(v);
    }
}

/// Decode a relation written by [`put_answers`] through
/// [`AnswerSet::from_ordered_parts`]: codes are bounds-checked against
/// their domains, NaN scores and rank-order violations rejected — all as
/// typed [`StoreErrorKind::Corrupt`] errors, never a panic.
pub fn read_answers(r: &mut Reader<'_>) -> Result<AnswerSet> {
    let m = r.read_count(MAX_ARITY, "attribute")?;
    let n = r.read_u64()?;
    // Every tuple needs at least its 8 score bytes: a count the rest of
    // the section cannot hold is corrupt, and must fail before allocating.
    if n > (r.remaining() / 8) as u64 {
        return Err(QagError::store(
            StoreErrorKind::Corrupt,
            format!(
                "tuple count {n} exceeds what {} bytes can hold",
                r.remaining()
            ),
        ));
    }
    let n = n as usize;
    let attr_names = (0..m)
        .map(|_| r.read_str_u32())
        .collect::<Result<Vec<_>>>()?;
    let mut domains = Vec::with_capacity(m);
    for _ in 0..m {
        let size = r.read_count(r.remaining() / 4, "domain value")?;
        domains.push(
            (0..size)
                .map(|_| r.read_str_u32())
                .collect::<Result<Vec<_>>>()?,
        );
    }
    let codes = r.read_u32_vec(n * m)?;
    let vals = qwire::decode_u64_le(r.read_bytes(n * 8)?)
        .into_iter()
        .map(f64::from_bits)
        .collect();
    AnswerSet::from_ordered_parts(attr_names, domains, codes, vals)
        .map_err(|e| QagError::store(StoreErrorKind::Corrupt, e.to_string()))
}

/// The cluster directory of a loaded store: every candidate id any plane
/// references, with pattern/sum decoded and coverage kept lazy.
#[derive(Debug)]
pub struct ClusterDirectory {
    m: usize,
    n: usize,
    map: FxHashMap<CandId, StoredCluster>,
}

impl ClusterDirectory {
    /// An empty directory over `m` attributes and `n` tuples.
    pub fn new(m: usize, n: usize) -> Self {
        ClusterDirectory {
            m,
            n,
            map: FxHashMap::default(),
        }
    }

    /// Arity of the stored patterns.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// Tuple count of the answer relation the coverage refers to.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored clusters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Register a decoded cluster. Duplicate ids are a format violation.
    pub fn insert(&mut self, id: CandId, cluster: StoredCluster) -> Result<()> {
        if cluster.pattern.arity() != self.m {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "cluster {id} has arity {}, directory expects {}",
                    cluster.pattern.arity(),
                    self.m
                ),
            ));
        }
        if self.map.insert(id, cluster).is_some() {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("cluster id {id} appears twice in the store"),
            ));
        }
        Ok(())
    }

    /// Look up a cluster by candidate id.
    pub fn get(&self, id: CandId) -> Option<&StoredCluster> {
        self.map.get(&id)
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: CandId) -> bool {
        self.map.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answers::AnswerSetBuilder;
    use crate::candidates::CandidateIndex;

    fn sample_index() -> (crate::AnswerSet, CandidateIndex) {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        for (x, y, v) in [
            ("p", "1", 8.0),
            ("p", "2", 7.5),
            ("q", "1", 6.0),
            ("q", "2", 2.0),
            ("r", "1", 1.0),
        ] {
            b.push(&[x, y], v).unwrap();
        }
        let s = b.finish().unwrap();
        let idx = CandidateIndex::build(&s, s.len()).unwrap();
        (s, idx)
    }

    #[test]
    fn answers_round_trip_and_reject_bad_content() {
        let (s, _) = sample_index();
        let mut w = Writer::new();
        put_answers(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_answers(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), s.fingerprint());
        // Every strict prefix fails typed, never panics.
        for len in 0..bytes.len() {
            let err = read_answers(&mut Reader::new(&bytes[..len])).unwrap_err();
            assert!(err.store_kind().is_some(), "untyped error at prefix {len}");
        }
        // A code bumped past its domain is a typed corruption. The codes
        // start right after the header and strings; the first code is
        // tuple 0's attribute 0.
        let codes_at = bytes.len() - s.len() * 8 - s.codes().len() * 4;
        let mut bad = bytes.clone();
        bad[codes_at] = 0xee;
        let err = read_answers(&mut Reader::new(&bad)).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::Corrupt));
        // A NaN score too.
        let mut bad = bytes;
        let last = bad.len() - 8;
        bad[last..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let err = read_answers(&mut Reader::new(&bad)).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::Corrupt));
    }

    #[test]
    fn pattern_round_trips_and_validates_codes() {
        let p = Pattern::new(vec![2, STAR, 0]);
        let mut w = Writer::new();
        put_pattern(&mut w, &p);
        let bytes = w.into_bytes();
        let back = read_pattern(&mut Reader::new(&bytes), &[3, 5, 1]).unwrap();
        assert_eq!(back, p);
        // Code 2 is out of range for a 2-value domain.
        let err = read_pattern(&mut Reader::new(&bytes), &[2, 5, 1]).unwrap_err();
        assert_eq!(err.store_kind(), Some(StoreErrorKind::Corrupt));
    }

    #[test]
    fn clusters_round_trip_both_representations() {
        let (s, idx) = sample_index();
        let domain_sizes: Vec<usize> = (0..s.arity()).map(|i| s.domain_size(i)).collect();
        let mut w = Writer::new();
        let all: Vec<_> = idx.iter().collect();
        for (id, info) in &all {
            put_cluster(&mut w, *id, &info.pattern, info.sum, s.len(), &info.cov);
        }
        let buf = Arc::new(w.into_bytes());
        let mut r = Reader::new(&buf);
        for (id, info) in &all {
            let (rid, sc) = read_cluster(&mut r, &buf, s.len(), &domain_sizes).unwrap();
            assert_eq!(rid, *id);
            assert_eq!(sc.pattern(), &info.pattern);
            assert_eq!(sc.sum().to_bits(), info.sum.to_bits());
            assert_eq!(sc.count(), info.cov.len());
            assert_eq!(sc.materialize().unwrap(), info.cov);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn bitset_representation_kicks_in_for_dense_coverage() {
        // n large relative to coverage forces ids; tiny n forces words.
        let ids: Vec<TupleId> = (0..50).collect();
        let mut w_ids = Writer::new();
        put_coverage(&mut w_ids, 1 << 20, &ids);
        let mut w_bits = Writer::new();
        put_coverage(&mut w_bits, 64, &ids);
        assert_eq!(w_ids.as_bytes()[0], COV_IDS);
        assert_eq!(w_bits.as_bytes()[0], COV_BITS);
        assert!(w_bits.len() < w_ids.len());
    }

    #[test]
    fn materialize_rejects_out_of_range_and_unsorted_ids() {
        let make = |ids: &[u32], n: usize| {
            let mut w = Writer::new();
            w.put_u32(0); // id
            w.put_u32_slice(&[STAR]); // pattern, m = 1
            w.put_f64_bits(0.0);
            w.put_u8(COV_IDS);
            w.put_u32(ids.len() as u32);
            w.put_u32_slice(ids);
            let buf = Arc::new(w.into_bytes());
            let mut r = Reader::new(&buf);
            read_cluster(&mut r, &buf, n, &[1]).unwrap().1
        };
        let oob = make(&[0, 9], 5);
        assert_eq!(
            oob.materialize().unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
        let unsorted = make(&[3, 1], 5);
        assert_eq!(
            unsorted.materialize().unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
    }

    #[test]
    fn directory_rejects_duplicates_and_wrong_arity() {
        let (s, idx) = sample_index();
        let domain_sizes: Vec<usize> = (0..s.arity()).map(|i| s.domain_size(i)).collect();
        let (id, info) = idx.iter().next().unwrap();
        let mut w = Writer::new();
        put_cluster(&mut w, id, &info.pattern, info.sum, s.len(), &info.cov);
        let buf = Arc::new(w.into_bytes());
        let decode = || {
            read_cluster(&mut Reader::new(&buf), &buf, s.len(), &domain_sizes)
                .unwrap()
                .1
        };
        let mut dir = ClusterDirectory::new(s.arity(), s.len());
        dir.insert(id, decode()).unwrap();
        assert_eq!(
            dir.insert(id, decode()).unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
        let mut wrong = ClusterDirectory::new(s.arity() + 1, s.len());
        assert_eq!(
            wrong.insert(id, decode()).unwrap_err().store_kind(),
            Some(StoreErrorKind::Corrupt)
        );
        assert!(dir.contains(id));
        assert_eq!(dir.len(), 1);
    }
}
