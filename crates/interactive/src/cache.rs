//! The cache layers of the exploration engine ([`crate::Explorer`]).
//!
//! Every layer is a [`Layer`]: a bounded LRU map behind its own mutex,
//! tagged with the [`CacheLayer`] it is, whose counters feed the
//! per-command [`crate::explore::CacheProvenance`]. A lookup or an insert
//! takes the lock; building a missing artifact ([`Layer::get_or_build`])
//! runs with no lock held. A panic while a lock is held poisons the
//! mutex; the next lock recovers it by clearing the layer and counting
//! the recovery, so the worst a panic costs is cold rebuilds.
//!
//! Capacities are small (tens of entries of expensive artifacts), so
//! eviction scans for the least-recently-used entry instead of
//! maintaining an intrusive list — `O(entries)` on insert-at-capacity,
//! zero overhead on hits.

use crate::explore::{CacheLayer, CacheOutcome};
use qagview_common::{FxHashMap, Result};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cumulative counters of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Entries dropped to stay within the capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded least-recently-used map.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    cap: usize,
    map: FxHashMap<K, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `cap` entries (`cap` is clamped to ≥ 1).
    pub(crate) fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            map: FxHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency and counting a hit or miss.
    /// Returns a clone of the value (caches store `Arc`s, so this is
    /// reference-count traffic, not a deep copy).
    pub(crate) fn get_cloned(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((v, used)) => {
                *used = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting the least-recently-used entry
    /// if the cache is at capacity and `key` is new.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Whether `key` is resident (no recency refresh, no counting).
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Drop every entry (counters are kept; no evictions are counted).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// Snapshot the cumulative counters.
    pub(crate) fn stats(&self) -> LayerStats {
        LayerStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }
}

/// Lock `mutex`, *recovering* from poisoning instead of propagating it:
/// a panic in one session while it held the lock must not take the
/// guarded value away from every later session. Recovery runs `reset` on
/// the value and counts the event in `recoveries`.
pub(crate) fn lock_recovering<'a, T>(
    mutex: &'a Mutex<T>,
    recoveries: &AtomicU64,
    reset: impl FnOnce(&mut T),
) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        let mut guard = poisoned.into_inner();
        reset(&mut guard);
        recoveries.fetch_add(1, Ordering::Relaxed);
        guard
    })
}

/// One cache layer: an [`LruCache`] behind its own mutex, the
/// [`CacheLayer`] it serves, and how often its mutex was recovered from
/// poisoning. Recovery clears the cached contents — the layer is pure
/// cost, so nothing served afterwards can observe a half-updated map.
#[derive(Debug)]
pub(crate) struct Layer<K, V> {
    which: CacheLayer,
    cache: Mutex<LruCache<K, V>>,
    poisoned: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Layer<K, V> {
    /// An empty layer holding at most `cap` entries.
    pub(crate) fn new(which: CacheLayer, cap: usize) -> Self {
        Layer {
            which,
            cache: Mutex::new(LruCache::new(cap)),
            poisoned: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        lock_recovering(&self.cache, &self.poisoned, LruCache::clear)
    }

    /// Look up `key`, counting a hit or a miss.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().get_cloned(key)
    }

    /// Whether `key` is resident, without counting or refreshing it.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.lock().contains_key(key)
    }

    /// Insert `value` under `key` (the last insert of a racing pair wins).
    pub(crate) fn insert(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    /// The value under `key`: a hit from the cache, or else `build()`,
    /// run with no lock held and inserted before it is returned. Two
    /// callers racing on the same missing key may both build; artifacts
    /// are deterministic, so the duplicate is wasted work only. A failed
    /// build inserts nothing.
    pub(crate) fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(V, CacheOutcome)> {
        if let Some(v) = self.get(&key) {
            return Ok((v, CacheOutcome::Hit));
        }
        let v = build()?;
        self.insert(key, v.clone());
        Ok((v, CacheOutcome::Miss))
    }

    /// The layer's cumulative counters.
    pub(crate) fn stats(&self) -> LayerStats {
        self.lock().stats()
    }

    /// Which layer this is, and how many times its mutex was recovered
    /// from poisoning.
    pub(crate) fn poison_recoveries(&self) -> (CacheLayer, u64) {
        (self.which, self.poisoned.load(Ordering::Relaxed))
    }

    /// The layer's mutex, for tests that poison it.
    #[cfg(test)]
    pub(crate) fn mutex(&self) -> &Mutex<LruCache<K, V>> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_misses_and_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert_eq!(c.get_cloned(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get_cloned(&1), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(c.get_cloned(&1), Some(10));
        c.insert(3, 30);
        assert!(c.contains_key(&1));
        assert!(!c.contains_key(&2), "LRU entry must be evicted");
        assert!(c.contains_key(&3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get_cloned(&1), Some(11));
        assert!(c.contains_key(&2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 10);
        c.get_cloned(&1);
        c.clear();
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().entries, 0);
    }
}
