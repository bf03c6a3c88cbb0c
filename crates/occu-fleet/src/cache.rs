//! A hand-rolled LRU cache for prediction results.
//!
//! Slots live in a `Vec` linked by indices (no allocator churn after
//! warm-up, no pointer juggling); a `HashMap` gives O(1) key lookup.
//! The cache counts hits, misses, and evictions so `/metrics` and
//! `/debug/statusz` can state the hit rate exactly.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Counter snapshot returned by [`LruCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out by capacity pressure.
    pub evictions: u64,
    /// Live entries right now.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Least-recently-used cache with intrusive index links.
///
/// A `capacity` of 0 degenerates to a pure miss counter (nothing is
/// ever stored), which is how `--cache 0` disables caching without a
/// second code path.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slots: Vec::with_capacity(capacity.min(1 << 16)),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(&self.slots[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or the hit/miss
    /// counters — for double-checked insert patterns where the first
    /// `get` already recorded the lookup's outcome.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.slots[idx].value)
    }

    /// Inserts or refreshes `key`, evicting the least-recently-used
    /// entry when at capacity. Returns `true` iff an eviction happened.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.slots[idx].value = value;
            self.detach(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot in place.
            let idx = self.tail;
            self.detach(idx);
            self.map.remove(&self.slots[idx].key);
            self.slots[idx].key = key.clone();
            self.slots[idx].value = value;
            self.evictions += 1;
            evicted = true;
            idx
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Drops every entry; counters are preserved.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        let evicted = c.insert(3, "c");
        assert!(evicted);
        assert_eq!(c.get(&1), None, "1 was LRU and must be gone");
        assert_eq!(c.get(&2), Some(&"b"));
        assert_eq!(c.get(&3), Some(&"c"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 2 is now LRU
        c.insert(3, 30);
        assert_eq!(c.get(&2), None, "2 was LRU after touching 1");
        assert_eq!(c.get(&1), Some(&10));
    }

    #[test]
    fn insert_existing_updates_value_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(!c.insert(1, 11));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn capacity_one_cycles() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i);
            assert_eq!(c.get(&i), Some(&i));
            assert_eq!(c.len(), 1);
        }
        assert_eq!(c.stats().evictions, 9);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert!(!c.insert(1, 1));
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 1, 0));
    }

    #[test]
    fn stats_and_hit_rate_track_lookups() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(1, 1);
        c.get(&1);
        c.get(&1);
        c.get(&2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_preserves_counters() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().hits, 1);
        // Reuse after clear still behaves.
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(&2));
    }
}
