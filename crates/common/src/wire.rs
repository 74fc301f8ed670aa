//! Little-endian section (de)serialization primitives for on-disk stores.
//!
//! The persistent precompute store (`qagview_interactive::store`) writes
//! `.qag` files as a sequence of fixed-width little-endian sections: `u32`
//! counts, `u64` offsets and float *bits* (never text-formatted floats —
//! the whole engine's byte-identity discipline extends to disk), raw `u32`
//! id runs, and raw `u64` bitset words. This module is the shared codec
//! layer those files are built from:
//!
//! * [`Writer`] — an append-only byte buffer with typed `put_*` methods;
//! * [`Reader`] — a cursor over a byte slice whose typed `read_*` methods
//!   return [`QagError::Store`] with [`StoreErrorKind::Truncated`] instead
//!   of panicking when the input runs out;
//! * [`checksum64`] — a fast 4-lane 64-bit payload checksum (wide files are
//!   verified on every open, so throughput matters), and its incremental
//!   form [`Checksum64`];
//! * raw word runs ([`Writer::put_u64_slice`] / [`decode_u64_le`]) that,
//!   paired with [`FixedBitSet::from_words`](crate::FixedBitSet::from_words)
//!   and [`FixedBitSet::as_words`](crate::FixedBitSet::as_words), move
//!   bitset coverage to and from disk verbatim — padding-bits-zero
//!   re-validated on the way in.

use crate::error::{QagError, Result, StoreErrorKind};

/// An append-only little-endian section writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A fresh writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern (exact round trip, including
    /// `-0.0` and every NaN payload).
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32` run, little-endian, without a length prefix (the
    /// caller writes counts into its own section header).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Append a `u64` run, little-endian, without a length prefix.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed UTF-8 string: a `u32` byte count followed
    /// by the raw bytes. Used by session checkpoints to persist SQL text.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `u32::MAX` bytes (a writer bug;
    /// nothing in the workspace produces 4 GiB strings).
    pub fn put_str_u32(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string fits a u32 length prefix");
        self.put_u32(len);
        self.put_bytes(s.as_bytes());
    }

    /// Overwrite 8 previously written bytes at `offset` with a `u64` —
    /// used to back-patch a checksum once the payload after it is final.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the bytes written so far (a writer
    /// bug, not an input condition).
    pub fn patch_u64(&mut self, offset: usize, v: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
///
/// Every read returns [`StoreErrorKind::Truncated`] once the slice is
/// exhausted — a corrupt or cut-short store file can never panic the
/// decoder.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, starting at byte 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current cursor position in bytes.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole slice.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(QagError::store(
                StoreErrorKind::Truncated,
                format!(
                    "need {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` stored as raw bits.
    pub fn read_f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Borrow `n` raw bytes from the underlying slice (zero-copy).
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Skip `n` bytes without decoding them (zero-copy section hop).
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    /// Decode `n` little-endian `u32`s into a vector.
    pub fn read_u32_vec(&mut self, n: usize) -> Result<Vec<u32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| {
            QagError::store(StoreErrorKind::Corrupt, "u32 run length overflows")
        })?)?;
        Ok(decode_u32_le(bytes))
    }

    /// Read a string written by [`Writer::put_str_u32`]: a `u32` byte
    /// count, then that many UTF-8 bytes. Invalid UTF-8 is a typed
    /// [`StoreErrorKind::Corrupt`] error, and the count is implicitly
    /// bounded by the remaining bytes (a huge prefix in a corrupt file
    /// fails as [`StoreErrorKind::Truncated`] before allocating).
    pub fn read_str_u32(&mut self) -> Result<String> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            QagError::store(StoreErrorKind::Corrupt, "string section is not valid UTF-8")
        })
    }

    /// Read a `u32` count that the caller knows cannot plausibly exceed
    /// `limit` (e.g. it counts items in the remaining bytes) — a cheap
    /// guard that turns absurd counts in corrupt files into typed errors
    /// instead of giant allocations.
    pub fn read_count(&mut self, limit: usize, what: &str) -> Result<usize> {
        let n = self.read_u32()? as usize;
        if n > limit {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!("{what} count {n} exceeds plausible bound {limit}"),
            ));
        }
        Ok(n)
    }
}

/// Decode a little-endian `u32` run from raw bytes (length must be a
/// multiple of 4; trailing partial words are ignored by construction of
/// the callers, which size sections exactly).
pub fn decode_u32_le(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// Decode a little-endian `u64` run from raw bytes.
pub fn decode_u64_le(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

const CHECKSUM_K: u64 = 0x517c_c1b7_2722_0a95;
const CHECKSUM_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
];

#[inline]
fn checksum_mix(lane: &mut u64, word: &[u8]) {
    let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
    *lane = (*lane ^ w).rotate_left(23).wrapping_mul(CHECKSUM_K);
}

/// A fast 64-bit checksum over a byte slice.
///
/// Four independent multiplicative lanes (so the 8-byte chunks don't form
/// one long multiply dependency chain), folded with the length at the end.
/// This is an *integrity* check against torn writes and bit rot, not an
/// authenticity check — the store format pairs it with magic/version
/// fields, and the workspace threat model is "our own files".
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum64::new();
    c.update(bytes);
    c.finish()
}

/// The incremental form of [`checksum64`]: feeding bytes through any
/// number of [`Checksum64::update`] calls yields exactly the checksum of
/// their concatenation. Lets a caller checksum data it never holds as one
/// byte slice (a table's typed columns, say) without copying it out first.
#[derive(Debug, Clone)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Bytes of a 32-byte block not yet complete.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Checksum64 {
            lanes: CHECKSUM_SEEDS,
            pending: [0; 32],
            pending_len: 0,
            total: 0,
        }
    }

    fn block(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            checksum_mix(lane, word);
        }
    }

    /// Append bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let block = self.pending;
            Self::block(&mut self.lanes, &block);
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for c in &mut chunks {
            Self::block(&mut self.lanes, c);
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The checksum of every byte appended so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        // The tail (< 32 bytes), zero-padded to whole words, one word per
        // lane in turn.
        let mut tail = [0u8; 32];
        tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        for (i, word) in tail[..self.pending_len.div_ceil(8) * 8]
            .chunks_exact(8)
            .enumerate()
        {
            checksum_mix(&mut lanes[i % 4], word);
        }
        let mut h = self.total;
        for lane in lanes {
            h = (h ^ lane).rotate_left(29).wrapping_mul(CHECKSUM_K);
        }
        h ^ (h >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64_bits(-0.0);
        w.put_f64_bits(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64_bits().unwrap().is_nan());
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_typed() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.read_u8().unwrap();
        let err = r.read_u32().unwrap_err();
        match err {
            QagError::Store { kind, .. } => assert_eq!(kind, StoreErrorKind::Truncated),
            other => panic!("expected Store error, got {other:?}"),
        }
    }

    #[test]
    fn u32_runs_round_trip() {
        let ids: Vec<u32> = (0..1000).map(|i| i * 3 + 1).collect();
        let mut w = Writer::new();
        w.put_u32_slice(&ids);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u32_vec(ids.len()).unwrap(), ids);
    }

    #[test]
    fn bitset_words_round_trip_through_the_wire_codec() {
        use crate::bitset::FixedBitSet;
        for len in [0usize, 1, 63, 64, 65, 128, 130, 1000] {
            let mut bits = FixedBitSet::new(len);
            for i in (0..len).step_by(3) {
                bits.insert(i);
            }
            let mut w = Writer::new();
            w.put_u64_slice(bits.as_words());
            let bytes = w.into_bytes();
            let back = FixedBitSet::from_words(len, decode_u64_le(&bytes)).unwrap();
            assert_eq!(back, bits, "len={len}");
        }
    }

    #[test]
    fn checksum_is_deterministic_and_length_sensitive() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        assert_eq!(checksum64(&data), checksum64(&data));
        assert_ne!(checksum64(&data), checksum64(&data[..4999]));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        // Trailing zeros must still change the sum (length folded in).
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(checksum64(&data), checksum64(&padded));
    }

    #[test]
    fn incremental_checksum_matches_one_shot_for_any_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = checksum64(&data);
        for split in [0, 1, 7, 31, 32, 33, 64, 150, 299, 300] {
            let mut c = Checksum64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
        let mut bytewise = Checksum64::new();
        for b in &data {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let base = checksum64(&data);
        for pos in [0usize, 7, 31, 32, 1000, data.len() - 1] {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[pos] ^= 1 << bit;
                assert_ne!(base, checksum64(&copy), "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn patch_u64_overwrites_in_place() {
        let mut w = Writer::new();
        w.put_u32(1);
        let at = w.len();
        w.put_u64(0);
        w.put_u32(2);
        w.patch_u64(at, 42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u32().unwrap(), 1);
        assert_eq!(r.read_u64().unwrap(), 42);
        assert_eq!(r.read_u32().unwrap(), 2);
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut w = Writer::new();
        w.put_str_u32("SELECT … FROM ratingtable");
        w.put_str_u32("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_str_u32().unwrap(), "SELECT … FROM ratingtable");
        assert_eq!(r.read_str_u32().unwrap(), "");
        assert!(r.is_exhausted());

        // A length prefix larger than the remaining bytes is Truncated.
        let mut w = Writer::new();
        w.put_u32(100);
        w.put_bytes(b"short");
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).read_str_u32().unwrap_err();
        assert!(matches!(
            err,
            QagError::Store {
                kind: StoreErrorKind::Truncated,
                ..
            }
        ));

        // Invalid UTF-8 in the payload is Corrupt, not a panic.
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).read_str_u32().unwrap_err();
        assert!(matches!(
            err,
            QagError::Store {
                kind: StoreErrorKind::Corrupt,
                ..
            }
        ));
    }

    #[test]
    fn read_count_guards_absurd_counts() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes)
            .read_count(1000, "clusters")
            .unwrap_err();
        assert!(matches!(
            err,
            QagError::Store {
                kind: StoreErrorKind::Corrupt,
                ..
            }
        ));
    }
}
