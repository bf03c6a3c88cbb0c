//! Consistent-hash ring mapping 64-bit keys to shards.
//!
//! Each shard owns `VNODES` pseudo-random points on the `u64` circle;
//! a key routes to the shard owning the first point at or after the
//! key's hash (wrapping at the top). Two properties matter for the
//! serving tier:
//!
//! 1. **Stickiness** — a given graph fingerprint always lands on the
//!    same shard, so that shard's prediction cache accumulates
//!    exactly the working set routed to it (no cross-shard
//!    duplication).
//! 2. **Minimal remap** — growing from M to M+1 shards moves only
//!    ~1/(M+1) of the keyspace, so resharding does not flush every
//!    shard cache at once. A modulo hash would remap almost everything.
//!
//! Virtual nodes smooth out the variance of random arc lengths; 64
//! per shard keeps the per-shard load within a few percent of fair at
//! the shard counts the server allows (≤ 64).

/// Virtual nodes per shard on the ring.
pub const VNODES: usize = 64;

/// splitmix64: a full-period, well-mixed u64 permutation. Used both
/// to place vnodes and (by callers) to hash route keys; inlined here
/// so routing needs no external hash dependency.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An immutable consistent-hash ring over `shards` shards.
pub struct HashRing {
    /// Sorted `(point, shard)` pairs; binary-searched per route.
    points: Vec<(u64, u32)>,
    shards: u32,
}

impl HashRing {
    /// Builds a ring for `shards` shards (clamped to ≥ 1). Vnode
    /// placement is deterministic, so every process computes the same
    /// ring for the same shard count.
    pub fn new(shards: u32) -> Self {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards as usize * VNODES);
        for shard in 0..shards {
            for vnode in 0..VNODES as u64 {
                // Mix shard and vnode into distinct ring positions.
                let point = splitmix64((u64::from(shard) << 32) | vnode);
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        // Collisions across shards are astronomically unlikely but
        // dedup keeps ownership unambiguous if one ever occurs.
        points.dedup_by_key(|p| p.0);
        Self { points, shards }
    }

    /// Number of shards this ring routes across.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Routes a (well-mixed) 64-bit key to its owning shard. Callers
    /// hashing low-entropy keys should pass them through
    /// [`splitmix64`] first.
    pub fn route(&self, key: u64) -> u32 {
        let idx = self.points.partition_point(|&(point, _)| point < key);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_in_range() {
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        for i in 0..10_000u64 {
            let key = splitmix64(i);
            let s = a.route(key);
            assert_eq!(s, b.route(key), "two rings with equal shard count must agree");
            assert!(s < 4);
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::new(8);
        let mut counts = [0u32; 8];
        let total = 100_000u64;
        for i in 0..total {
            counts[ring.route(splitmix64(i)) as usize] += 1;
        }
        let fair = total as f64 / 8.0;
        for (shard, &c) in counts.iter().enumerate() {
            let ratio = f64::from(c) / fair;
            assert!(
                (0.5..=1.6).contains(&ratio),
                "shard {shard} holds {c} keys ({ratio:.2}x fair share)"
            );
        }
    }

    #[test]
    fn growing_the_ring_remaps_a_minority_of_keys() {
        let before = HashRing::new(4);
        let after = HashRing::new(5);
        let total = 50_000u64;
        let moved = (0..total)
            .filter(|&i| {
                let key = splitmix64(i);
                before.route(key) != after.route(key)
            })
            .count();
        let frac = moved as f64 / total as f64;
        // Ideal is 1/5 = 0.20; vnode variance allows some slack. A
        // modulo hash would move ~4/5 of the keys.
        assert!(frac < 0.35, "remapped fraction {frac:.3} is not minimal");
        assert!(frac > 0.05, "growing the ring must hand the new shard real keyspace");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let ring = HashRing::new(0);
        assert_eq!(ring.shards(), 1);
        assert_eq!(ring.route(123), 0);
    }
}
