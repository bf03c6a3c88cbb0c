//! Property test pinning `LruCache` against a naive reference model.
//!
//! The serving tier's prediction cache is one LRU whose
//! hit/miss/eviction counters feed `/metrics` and
//! `/debug/statusz` — so the counters must be *exact*
//! under any interleaving of `get` (counts + reorders), `peek`
//! (counter-neutral, order-neutral), `insert` (may evict), and
//! `clear` (drops entries, preserves counters). The reference model
//! is a plain MRU-first `Vec`, slow and obviously correct.

use occu_fleet::cache::LruCache;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Get(u8),
    Peek(u8),
    Insert(u8, u32),
    Clear,
}

/// Keys are drawn from a tiny space so sequences revisit them often
/// (hits, refreshes, in-place updates all get exercised); `Clear` is
/// rare enough that caches usually refill afterwards.
fn op() -> impl Strategy<Value = Op> {
    (0u8..16, 0u8..10, 0u32..1000).prop_map(|(kind, key, val)| match kind {
        0..=4 => Op::Get(key),
        5..=7 => Op::Peek(key),
        15 => Op::Clear,
        _ => Op::Insert(key, val),
    })
}

/// MRU-first vector with the counter semantics the real cache
/// documents.
struct ModelCache {
    entries: Vec<(u8, u32)>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelCache {
    fn new(cap: usize) -> Self {
        Self { entries: Vec::new(), cap, hits: 0, misses: 0, evictions: 0 }
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        match self.entries.iter().position(|&(k, _)| k == key) {
            Some(pos) => {
                self.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.insert(0, entry);
                Some(entry.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn peek(&self, key: u8) -> Option<u32> {
        self.entries.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn insert(&mut self, key: u8, val: u32) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
            self.entries.insert(0, (key, val));
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.cap {
            self.entries.pop();
            self.evictions += 1;
            evicted = true;
        }
        self.entries.insert(0, (key, val));
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

proptest! {
    #[test]
    fn counters_and_contents_match_reference(
        cap in 0usize..=6,
        ops in prop::collection::vec(op(), 0..80),
    ) {
        let mut real: LruCache<u8, u32> = LruCache::new(cap);
        let mut model = ModelCache::new(cap);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Get(k) => {
                    prop_assert_eq!(real.get(&k).copied(), model.get(k),
                        "get({}) diverged at step {}", k, step);
                }
                Op::Peek(k) => {
                    prop_assert_eq!(real.peek(&k).copied(), model.peek(k),
                        "peek({}) diverged at step {}", k, step);
                }
                Op::Insert(k, v) => {
                    prop_assert_eq!(real.insert(k, v), model.insert(k, v),
                        "insert({}) eviction flag diverged at step {}", k, step);
                }
                Op::Clear => {
                    real.clear();
                    model.clear();
                }
            }
            let s = real.stats();
            prop_assert_eq!(s.hits, model.hits, "hits diverged at step {}", step);
            prop_assert_eq!(s.misses, model.misses, "misses diverged at step {}", step);
            prop_assert_eq!(s.evictions, model.evictions,
                "evictions diverged at step {}", step);
            prop_assert_eq!(s.len, model.entries.len(), "len diverged at step {}", step);
            prop_assert_eq!(s.capacity, cap);
            prop_assert!(s.len <= cap, "cache exceeded capacity at step {}", step);
        }
        // Full-content sweep: every key the model holds must be
        // peekable with the same value, and none it dropped may linger.
        for k in 0u8..10 {
            prop_assert_eq!(real.peek(&k).copied(), model.peek(k), "final peek({})", k);
        }
    }
}
