//! The answer relation `S` of an aggregate query (paper §3).
//!
//! Every algorithm in the paper consumes the same object: the ordered output
//! of `SELECT A₁..Aₘ, aggr AS val … ORDER BY val DESC`. [`AnswerSet`]
//! re-encodes each grouping attribute's active domain with dense `u32`
//! codes (so patterns are pure integer vectors) and stores the tuples sorted
//! by descending value with a deterministic tie-break.

use crate::pattern::Pattern;
use qagview_common::{FxHashMap, FxHashSet, FxHasher, QagError, Result};
use std::hash::Hasher as _;
use std::ops::Deref;
use std::sync::Arc;

/// Dense identifier of an original answer tuple; equals its 0-based rank
/// (tuple 0 is the highest-valued answer).
pub type TupleId = u32;

/// The answer relation: `n` scored tuples over `m` categorical attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSet {
    attr_names: Vec<String>,
    /// Per-attribute active domain, display text per dense code.
    domains: Vec<Vec<String>>,
    /// Row-major codes: `codes[t * m + i]` is attribute `i` of tuple `t`.
    codes: Vec<u32>,
    /// `vals[t]` is the score of tuple `t`; non-increasing in `t`.
    vals: Vec<f64>,
    m: usize,
}

impl AnswerSet {
    /// Number of grouping attributes `m`.
    pub fn arity(&self) -> usize {
        self.m
    }

    /// Number of answer tuples `n`.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Attribute names, in order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Size of attribute `i`'s active domain.
    pub fn domain_size(&self, i: usize) -> usize {
        self.domains[i].len()
    }

    /// Display text for code `c` of attribute `i`.
    pub fn code_text(&self, i: usize, c: u32) -> &str {
        &self.domains[i][c as usize]
    }

    /// Look up the code of a display value in attribute `i`'s domain.
    pub fn code_of(&self, i: usize, text: &str) -> Option<u32> {
        self.domains[i]
            .iter()
            .position(|v| v == text)
            .map(|p| p as u32)
    }

    /// The codes of tuple `t`.
    #[inline]
    pub fn tuple(&self, t: TupleId) -> &[u32] {
        let s = t as usize * self.m;
        &self.codes[s..s + self.m]
    }

    /// The score of tuple `t`.
    #[inline]
    pub fn val(&self, t: TupleId) -> f64 {
        self.vals[t as usize]
    }

    /// All scores, rank-ordered.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// All codes, row-major in rank order: `codes()[t * m + i]` is
    /// attribute `i` of tuple `t`.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Attribute `i`'s active domain, display text per dense code.
    pub fn domain(&self, i: usize) -> &[String] {
        &self.domains[i]
    }

    /// Iterator over `(TupleId, codes, val)` in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &[u32], f64)> {
        (0..self.len() as u32).map(move |t| (t, self.tuple(t), self.val(t)))
    }

    /// The singleton-cluster pattern of tuple `t`.
    pub fn singleton(&self, t: TupleId) -> Pattern {
        Pattern::from_tuple(self.tuple(t))
    }

    /// Average score of all `n` tuples — the paper's trivial "Lower Bound"
    /// baseline (the all-`∗` cluster covers everything).
    pub fn mean_val(&self) -> f64 {
        if self.vals.is_empty() {
            return 0.0;
        }
        self.vals.iter().sum::<f64>() / self.vals.len() as f64
    }

    /// Render a pattern against this answer set's domains.
    pub fn pattern_to_string(&self, p: &Pattern) -> String {
        p.display_with(|i, c| self.domains[i][c as usize].clone())
            .to_string()
    }

    /// Sum of `val` and count over the tuples covered by `p` (full scan).
    ///
    /// This is the slow path used by tests and the naive candidate builder;
    /// the algorithms use [`crate::CandidateIndex`] coverage lists instead.
    pub fn scan_coverage(&self, p: &Pattern) -> (Vec<TupleId>, f64) {
        let mut ids = Vec::new();
        let mut sum = 0.0;
        for (t, codes, v) in self.iter() {
            if p.covers_tuple(codes) {
                ids.push(t);
                sum += v;
            }
        }
        (ids, sum)
    }

    /// Assemble an answer set from pre-encoded rows: per-attribute display
    /// domains plus `(codes, val)` tuples. This is the allocation-lean path
    /// used by the query layer to convert a cached group phase straight
    /// into an answer relation without re-interning display strings; it
    /// applies the exact same ordering, uniqueness, and NaN rules as
    /// [`AnswerSetBuilder::finish`], so both construction paths are
    /// byte-identical for the same logical input.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::SchemaMismatch`] on an arity mismatch, a code
    /// outside its domain, a NaN score, or a duplicate group-by tuple.
    pub fn from_rows(
        attr_names: Vec<String>,
        domains: Vec<Vec<String>>,
        mut rows: Vec<(Vec<u32>, f64)>,
    ) -> Result<AnswerSet> {
        let m = attr_names.len();
        if domains.len() != m {
            return Err(QagError::SchemaMismatch(format!(
                "{} domains for {m} attributes",
                domains.len()
            )));
        }
        for (codes, val) in &rows {
            if codes.len() != m {
                return Err(QagError::SchemaMismatch(format!(
                    "answer tuple arity {} != {m}",
                    codes.len()
                )));
            }
            for (i, &c) in codes.iter().enumerate() {
                if c as usize >= domains[i].len() {
                    return Err(QagError::SchemaMismatch(format!(
                        "code {c} outside attribute {i}'s domain of {}",
                        domains[i].len()
                    )));
                }
            }
            if val.is_nan() {
                return Err(QagError::SchemaMismatch(
                    "NaN aggregate score cannot be ranked".to_string(),
                ));
            }
        }
        // Uniqueness must be checked against *all* rows, not just
        // value-sort neighbors: two rows with equal codes but different
        // scores sort apart, so an adjacency check would miss them.
        {
            let mut seen: FxHashSet<&[u32]> = FxHashSet::default();
            for (codes, _) in &rows {
                if !seen.insert(codes.as_slice()) {
                    return Err(QagError::SchemaMismatch(format!(
                        "duplicate group-by tuple {codes:?}: the answer relation must come from \
                         GROUP BY"
                    )));
                }
            }
        }
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN scores rejected above")
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut codes = Vec::with_capacity(rows.len() * m);
        let mut vals = Vec::with_capacity(rows.len());
        for (c, v) in rows {
            codes.extend_from_slice(&c);
            vals.push(v);
        }
        Ok(AnswerSet {
            attr_names,
            domains,
            codes,
            vals,
            m,
        })
    }

    /// Reassemble an answer set from parts that are *already* in rank
    /// order — row-major `codes` and `vals` exactly as [`AnswerSet::codes`]
    /// and [`AnswerSet::vals`] hand them out. This is the load path of a
    /// persisted relation: it validates in one linear pass instead of
    /// re-sorting and re-hashing every tuple like [`AnswerSet::from_rows`].
    ///
    /// Checked: shapes, every code against its domain, no NaN score, and
    /// the rank order itself (scores non-increasing, equal scores strictly
    /// ascending by codes — the order `from_rows` produces). The order
    /// check also rules out duplicates among equal-scored tuples; two equal
    /// tuples with *different* scores are not detected (the callers verify
    /// a content fingerprint of what they load instead).
    ///
    /// # Errors
    ///
    /// Returns [`QagError::SchemaMismatch`] naming the first violation.
    pub fn from_ordered_parts(
        attr_names: Vec<String>,
        domains: Vec<Vec<String>>,
        codes: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<AnswerSet> {
        let m = attr_names.len();
        let mismatch = |msg: String| Err(QagError::SchemaMismatch(msg));
        if domains.len() != m {
            return mismatch(format!("{} domains for {m} attributes", domains.len()));
        }
        if codes.len() != vals.len() * m {
            return mismatch(format!(
                "{} codes for {} tuples of arity {m}",
                codes.len(),
                vals.len()
            ));
        }
        if m > 0 {
            for row in codes.chunks_exact(m) {
                for (i, (&c, domain)) in row.iter().zip(&domains).enumerate() {
                    if c as usize >= domain.len() {
                        return mismatch(format!(
                            "code {c} outside attribute {i}'s domain of {}",
                            domain.len()
                        ));
                    }
                }
            }
        }
        if vals.iter().any(|v| v.is_nan()) {
            return mismatch("NaN aggregate score cannot be ranked".to_string());
        }
        for t in 1..vals.len() {
            let ordered = match vals[t - 1].partial_cmp(&vals[t]) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Equal) => {
                    codes[(t - 1) * m..t * m] < codes[t * m..(t + 1) * m]
                }
                _ => false,
            };
            if !ordered {
                return mismatch(format!("tuples {} and {t} are out of rank order", t - 1));
            }
        }
        Ok(AnswerSet {
            attr_names,
            domains,
            codes,
            vals,
            m,
        })
    }

    /// A deterministic content fingerprint: two answer sets with equal
    /// fingerprints are (collisions aside) byte-identical — same attribute
    /// names, domains, codes, and score bits — so every summarization
    /// artifact derived from them (candidate index, solutions, guidance
    /// plot) is identical too. The interactive engine keys its summarizer
    /// and precompute caches by this value, which is what lets a `HAVING`
    /// tick that happens not to change the answer relation reuse a whole
    /// precomputed parameter plane.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(self.m);
        h.write_usize(self.vals.len());
        for name in &self.attr_names {
            h.write_usize(name.len());
            h.write(name.as_bytes());
        }
        for domain in &self.domains {
            h.write_usize(domain.len());
            for text in domain {
                h.write_usize(text.len());
                h.write(text.as_bytes());
            }
        }
        for &c in &self.codes {
            h.write_u32(c);
        }
        for &v in &self.vals {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }
}

/// Borrowed-or-shared access to an [`AnswerSet`].
///
/// The summarization stack historically borrowed the answer relation
/// (`Summarizer<'a>`, `Precomputed<'a>`), which ties every derived cache to
/// the borrow's lifetime. The owned exploration engine instead shares the
/// relation behind an [`Arc`]. This handle unifies both: APIs accept
/// `impl Into<AnswersHandle<'a>>`, so `&AnswerSet` keeps working verbatim
/// while `Arc<AnswerSet>` produces a `'static`, thread-shareable value.
#[derive(Debug, Clone)]
pub enum AnswersHandle<'a> {
    /// Borrowed for `'a` — the classic lifetime-bound path.
    Borrowed(&'a AnswerSet),
    /// Shared ownership — the handle itself can be `'static`.
    Shared(Arc<AnswerSet>),
}

impl Deref for AnswersHandle<'_> {
    type Target = AnswerSet;

    fn deref(&self) -> &AnswerSet {
        match self {
            AnswersHandle::Borrowed(a) => a,
            AnswersHandle::Shared(a) => a,
        }
    }
}

impl AsRef<AnswerSet> for AnswersHandle<'_> {
    fn as_ref(&self) -> &AnswerSet {
        self
    }
}

impl<'a> From<&'a AnswerSet> for AnswersHandle<'a> {
    fn from(a: &'a AnswerSet) -> Self {
        AnswersHandle::Borrowed(a)
    }
}

impl From<Arc<AnswerSet>> for AnswersHandle<'_> {
    fn from(a: Arc<AnswerSet>) -> Self {
        AnswersHandle::Shared(a)
    }
}

/// Builder that accepts display-valued rows and produces a rank-sorted,
/// dense-coded [`AnswerSet`].
#[derive(Debug)]
pub struct AnswerSetBuilder {
    attr_names: Vec<String>,
    domains: Vec<Vec<String>>,
    domain_maps: Vec<FxHashMap<String, u32>>,
    rows: Vec<(Vec<u32>, f64)>,
}

impl AnswerSetBuilder {
    /// Start building an answer set over the named attributes.
    pub fn new(attr_names: Vec<String>) -> Self {
        let m = attr_names.len();
        AnswerSetBuilder {
            attr_names,
            domains: vec![Vec::new(); m],
            domain_maps: vec![FxHashMap::default(); m],
            rows: Vec::new(),
        }
    }

    /// Append one answer tuple given as display strings plus its score.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::SchemaMismatch`] on an arity mismatch.
    pub fn push(&mut self, attrs: &[&str], val: f64) -> Result<()> {
        if attrs.len() != self.attr_names.len() {
            return Err(QagError::SchemaMismatch(format!(
                "answer tuple arity {} != {}",
                attrs.len(),
                self.attr_names.len()
            )));
        }
        let mut codes = Vec::with_capacity(attrs.len());
        for (i, &a) in attrs.iter().enumerate() {
            let code = match self.domain_maps[i].get(a) {
                Some(&c) => c,
                None => {
                    let c = self.domains[i].len() as u32;
                    self.domains[i].push(a.to_string());
                    self.domain_maps[i].insert(a.to_string(), c);
                    c
                }
            };
            codes.push(code);
        }
        self.rows.push((codes, val));
        Ok(())
    }

    /// Finish: sort by value descending (ties broken by codes ascending so
    /// runs are deterministic) and validate group-by uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::SchemaMismatch`] if two tuples share identical
    /// attribute values — impossible for a well-formed `GROUP BY` output —
    /// or if any score is NaN (unrankable).
    pub fn finish(self) -> Result<AnswerSet> {
        AnswerSet::from_rows(self.attr_names, self.domains, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::STAR;

    fn movie_sample() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec![
            "hdec".into(),
            "agegrp".into(),
            "gender".into(),
            "occupation".into(),
        ]);
        // A slice of Figure 1a.
        b.push(&["1975", "20s", "M", "Student"], 4.24).unwrap();
        b.push(&["1980", "20s", "M", "Programmer"], 4.13).unwrap();
        b.push(&["1980", "10s", "M", "Student"], 3.96).unwrap();
        b.push(&["1980", "20s", "M", "Student"], 3.91).unwrap();
        b.push(&["1995", "20s", "F", "Healthcare"], 1.98).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn tuples_sorted_by_value_desc() {
        let s = movie_sample();
        assert_eq!(s.len(), 5);
        assert_eq!(s.arity(), 4);
        let vals: Vec<f64> = s.vals().to_vec();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(vals, sorted);
        assert_eq!(s.val(0), 4.24);
    }

    #[test]
    fn codes_round_trip_to_text() {
        let s = movie_sample();
        let t0 = s.tuple(0);
        assert_eq!(s.code_text(0, t0[0]), "1975");
        assert_eq!(s.code_text(2, t0[2]), "M");
        assert_eq!(s.code_of(3, "Programmer"), Some(s.tuple(1)[3]));
        assert_eq!(s.code_of(3, "Astronaut"), None);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["zz"], 1.0).unwrap();
        b.push(&["aa"], 1.0).unwrap();
        let s = b.finish().unwrap();
        // "zz" was interned first (code 0) so it sorts before "aa" (code 1)
        // under the code-ascending tie-break.
        assert_eq!(s.code_text(0, s.tuple(0)[0]), "zz");
    }

    #[test]
    fn duplicate_groups_rejected() {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        b.push(&["x", "y"], 1.0).unwrap();
        b.push(&["x", "y"], 2.0).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
        assert!(b.push(&["only-one"], 1.0).is_err());
    }

    #[test]
    fn scan_coverage_and_mean() {
        let s = movie_sample();
        // (1980, *, M, *) covers ranks 1..=3 (values 4.13, 3.96, 3.91).
        let hdec_1980 = s.code_of(0, "1980").unwrap();
        let gender_m = s.code_of(2, "M").unwrap();
        let p = Pattern::new(vec![hdec_1980, STAR, gender_m, STAR]);
        let (ids, sum) = s.scan_coverage(&p);
        assert_eq!(ids, vec![1, 2, 3]);
        assert!((sum - (4.13 + 3.96 + 3.91)).abs() < 1e-9);
        assert!((s.mean_val() - (4.24 + 4.13 + 3.96 + 3.91 + 1.98) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_rendering_uses_domain_text() {
        let s = movie_sample();
        let p = Pattern::new(vec![
            s.code_of(0, "1980").unwrap(),
            STAR,
            s.code_of(2, "M").unwrap(),
            STAR,
        ]);
        assert_eq!(s.pattern_to_string(&p), "(1980, *, M, *)");
    }

    #[test]
    fn singleton_covers_only_itself_among_distinct_tuples() {
        let s = movie_sample();
        let p = s.singleton(2);
        let (ids, _) = s.scan_coverage(&p);
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn empty_answer_set() {
        let s = AnswerSetBuilder::new(vec!["a".into()]).finish().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.mean_val(), 0.0);
    }

    #[test]
    fn from_rows_matches_builder_byte_for_byte() {
        let built = movie_sample();
        let rebuilt = AnswerSet::from_rows(
            built.attr_names.clone(),
            built.domains.clone(),
            built
                .iter()
                .map(|(_, codes, v)| (codes.to_vec(), v))
                .collect(),
        )
        .unwrap();
        assert_eq!(built, rebuilt);
        assert_eq!(built.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn from_ordered_parts_round_trips_and_validates_order() {
        let s = movie_sample();
        let parts = || {
            (
                s.attr_names().to_vec(),
                (0..s.arity())
                    .map(|i| s.domain(i).to_vec())
                    .collect::<Vec<_>>(),
                s.codes().to_vec(),
                s.vals().to_vec(),
            )
        };
        let (names, domains, codes, vals) = parts();
        let rebuilt = AnswerSet::from_ordered_parts(names, domains, codes, vals).unwrap();
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.fingerprint(), s.fingerprint());

        // Out of rank order.
        let (names, domains, codes, mut vals) = parts();
        vals.swap(0, 1);
        assert!(AnswerSet::from_ordered_parts(names, domains, codes, vals).is_err());
        // Code outside its domain.
        let (names, domains, mut codes, vals) = parts();
        codes[0] = 99;
        assert!(AnswerSet::from_ordered_parts(names, domains, codes, vals).is_err());
        // NaN score.
        let (names, domains, codes, mut vals) = parts();
        vals[4] = f64::NAN;
        assert!(AnswerSet::from_ordered_parts(names, domains, codes, vals).is_err());
        // Shape mismatch.
        let (names, domains, mut codes, vals) = parts();
        codes.pop();
        assert!(AnswerSet::from_ordered_parts(names, domains, codes, vals).is_err());

        // Equal scores must be strictly ascending by codes.
        let names = vec!["a".to_string()];
        let domains = vec![vec!["x".to_string(), "y".to_string()]];
        let tied = |codes: Vec<u32>| {
            AnswerSet::from_ordered_parts(names.clone(), domains.clone(), codes, vec![1.0, 1.0])
        };
        assert!(tied(vec![0, 1]).is_ok());
        assert!(tied(vec![1, 0]).is_err());
        assert!(
            tied(vec![0, 0]).is_err(),
            "duplicate tuple with an equal score"
        );
    }

    #[test]
    fn from_rows_validates_input() {
        let names = vec!["a".into()];
        let domains = vec![vec!["x".into()]];
        // Arity mismatch.
        assert!(
            AnswerSet::from_rows(names.clone(), domains.clone(), vec![(vec![0, 0], 1.0)]).is_err()
        );
        // Code outside the domain.
        assert!(
            AnswerSet::from_rows(names.clone(), domains.clone(), vec![(vec![7], 1.0)]).is_err()
        );
        // NaN score.
        assert!(
            AnswerSet::from_rows(names.clone(), domains.clone(), vec![(vec![0], f64::NAN)])
                .is_err()
        );
        // Duplicate tuple.
        assert!(
            AnswerSet::from_rows(names, domains, vec![(vec![0], 1.0), (vec![0], 2.0)]).is_err()
        );
    }

    #[test]
    fn duplicate_tuples_detected_even_when_not_value_adjacent() {
        // Regression: the rows sort by value, so equal-code rows separated
        // by a third row are not neighbors — uniqueness must still fail.
        let err = AnswerSet::from_rows(
            vec!["a".into()],
            vec![vec!["x".into(), "y".into()]],
            vec![(vec![0], 3.0), (vec![1], 2.0), (vec![0], 1.0)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Same through the builder.
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], 3.0).unwrap();
        b.push(&["y"], 2.0).unwrap();
        b.push(&["x"], 1.0).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn nan_scores_error_instead_of_panicking() {
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], f64::NAN).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn fingerprint_separates_content_but_not_derivation() {
        let s = movie_sample();
        assert_eq!(s.fingerprint(), s.clone().fingerprint());
        // A changed score changes the fingerprint.
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], 1.0).unwrap();
        let one = b.finish().unwrap();
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], 2.0).unwrap();
        let two = b.finish().unwrap();
        assert_ne!(one.fingerprint(), two.fingerprint());
        // -0.0 and +0.0 differ at the byte level, so they must differ here.
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], 0.0).unwrap();
        let pos = b.finish().unwrap();
        let mut b = AnswerSetBuilder::new(vec!["a".into()]);
        b.push(&["x"], -0.0).unwrap();
        let neg = b.finish().unwrap();
        assert_ne!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn handle_derefs_from_both_ownership_modes() {
        let s = movie_sample();
        let borrowed: AnswersHandle<'_> = (&s).into();
        assert_eq!(borrowed.len(), 5);
        let shared: AnswersHandle<'static> = Arc::new(s.clone()).into();
        assert_eq!(shared.len(), 5);
        assert_eq!(borrowed.fingerprint(), shared.fingerprint());
    }
}
