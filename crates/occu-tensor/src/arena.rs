//! Grow-only scratch-buffer arena for allocation-free hot paths.
//!
//! A [`ScratchArena`] recycles the `Vec<f32>` storage behind
//! [`Matrix`] values. Call sites take a buffer sized for the matrix
//! they are about to produce and recycle it (or the whole matrix) when
//! the value dies — typically when an autodiff tape is cleared between
//! samples.
//!
//! Buffers are pooled by size class: a take of `len` elements is
//! served by a free buffer of capacity `len.next_power_of_two()`, and a
//! miss allocates exactly that capacity. A take therefore reuses any
//! free buffer of less than twice its length, so one arena that sees
//! many graph sizes — a training worker's tape over a whole fit, a
//! pooled plan executor — serves near sizes from the same buffers
//! rather than keeping one buffer per exact length it has ever seen.
//! Because buffers of one class are interchangeable, a larger free set
//! never makes a take miss that would have hit: any repeated sequence
//! of takes and recycles is allocation-free from its second pass on,
//! and steady-state training and inference perform zero heap
//! allocations on the tensor hot path. (Best-fit across classes — the
//! smallest free buffer in `[len, 2·len]` — shares more, but is not
//! monotone that way: a second pass can hand a long-lived small value
//! the buffer a later large one needed.)
//!
//! The arena is deliberately *not* thread-safe — each worker thread
//! owns one (the tape embeds one per instance). Global atomics track
//! fleet-wide totals so serving can export an arena high-water-mark
//! gauge without walking threads.

use crate::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static TOTAL_ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
static TOTAL_FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_TAKES: AtomicU64 = AtomicU64::new(0);

/// Total bytes ever handed out fresh by every arena in the process.
/// Arenas are grow-only, so this is also the fleet-wide high-water
/// mark of arena-managed scratch memory.
pub fn arena_total_allocated_bytes() -> usize {
    TOTAL_ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Process-wide count of takes that missed the free lists and had to
/// allocate. Flat across steady-state iterations.
pub fn arena_total_fresh_allocs() -> u64 {
    TOTAL_FRESH_ALLOCS.load(Ordering::Relaxed)
}

/// Process-wide count of buffer takes (hits and misses).
pub fn arena_total_takes() -> u64 {
    TOTAL_TAKES.load(Ordering::Relaxed)
}

/// A per-thread pool of reusable `f32` buffers, keyed by size class.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Free buffers by size class (a power of two, at most the
    /// buffer's capacity).
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    takes: u64,
    fresh_allocs: u64,
    allocated_bytes: usize,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer with capacity at least `len`: a free one
    /// of `len`'s size class, or a fresh one of the class capacity
    /// (`len.next_power_of_two()`) on a miss. Fill it with
    /// `extend`/`resize` up to `len`.
    pub fn take_vec(&mut self, len: usize) -> Vec<f32> {
        self.takes += 1;
        TOTAL_TAKES.fetch_add(1, Ordering::Relaxed);
        // Empty takes allocate nothing and are never pooled.
        let class = if len == 0 { 0 } else { len.next_power_of_two() };
        if let Some(v) = self.buckets.get_mut(&class).and_then(Vec::pop) {
            return v;
        }
        let bytes = class * std::mem::size_of::<f32>();
        self.fresh_allocs += 1;
        self.allocated_bytes += bytes;
        TOTAL_FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL_ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
        Vec::with_capacity(class)
    }

    /// Takes a zero-filled `rows x cols` matrix backed by a recycled
    /// buffer.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let mut v = self.take_vec(len);
        v.resize(len, 0.0);
        Matrix::from_vec(rows, cols, v)
    }

    /// Takes a `rows x cols` matrix holding a copy of `src`'s data.
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let mut v = self.take_vec(src.len());
        v.extend_from_slice(src.data());
        Matrix::from_vec(src.rows(), src.cols(), v)
    }

    /// Returns a matrix's storage to the free lists.
    pub fn recycle(&mut self, m: Matrix) {
        self.recycle_vec(m.into_vec());
    }

    /// Returns a raw buffer to the free lists, in the largest size
    /// class its capacity covers (its own, for arena-allocated ones).
    pub fn recycle_vec(&mut self, mut v: Vec<f32>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        v.clear();
        let class = 1 << (usize::BITS - 1 - cap.leading_zeros());
        self.buckets.entry(class).or_default().push(v);
    }

    /// Takes that hit or missed the free lists since construction.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Takes that had to allocate. A steady-state workload holds this
    /// flat — the zero-allocation tests assert exactly that.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Bytes this arena has ever allocated (its high-water mark).
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_allocation_free_after_warmup() {
        let mut arena = ScratchArena::new();
        for _ in 0..3 {
            let a = arena.take_zeroed(4, 8);
            let b = arena.take_zeroed(2, 2);
            arena.recycle(a);
            arena.recycle(b);
        }
        assert_eq!(arena.fresh_allocs(), 2, "only the first pass allocates");
        assert_eq!(arena.takes(), 6);
        assert_eq!(arena.allocated_bytes(), (32 + 4) * 4);
    }

    #[test]
    fn same_length_buffers_share_a_bucket() {
        let mut arena = ScratchArena::new();
        let a = arena.take_zeroed(4, 8);
        arena.recycle(a);
        // A 8x4 matrix has the same element count: reuses the buffer.
        let b = arena.take_zeroed(8, 4);
        assert_eq!(arena.fresh_allocs(), 1);
        assert_eq!(b.shape(), (8, 4));
        assert!(b.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_copy_round_trips_values() {
        let mut arena = ScratchArena::new();
        let src = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let cp = arena.take_copy(&src);
        assert_eq!(cp, src);
        arena.recycle(cp);
        let again = arena.take_copy(&src);
        assert_eq!(again, src);
        assert_eq!(arena.fresh_allocs(), 1);
    }

    #[test]
    fn a_take_reuses_a_free_buffer_under_twice_its_length() {
        let mut arena = ScratchArena::new();
        let first = arena.take_zeroed(3, 7);
        arena.recycle(first);
        // 21 elements allocated the 32-element class; 10 elements would
        // leave it over twice the request, 17..=32 reuse it.
        for (rows, cols) in [(2, 9), (4, 8), (3, 6)] {
            let m = arena.take_zeroed(rows, cols);
            assert_eq!(arena.fresh_allocs(), 1, "{rows}x{cols} reuses the free buffer");
            assert_eq!(m.shape(), (rows, cols));
            assert!(m.data().iter().all(|&x| x == 0.0));
            arena.recycle(m);
        }
    }

    #[test]
    fn a_buffer_twice_the_request_or_more_is_not_taken() {
        let mut arena = ScratchArena::new();
        let big = arena.take_vec(40);
        arena.recycle_vec(big);
        // A 64-element buffer against a 32-element take: a miss.
        let v = arena.take_vec(32);
        assert_eq!((arena.fresh_allocs(), v.capacity()), (2, 32));
        // The large buffer is still free for a take that fits it.
        let again = arena.take_vec(33);
        assert_eq!((arena.fresh_allocs(), again.capacity()), (2, 64));
    }

    #[test]
    fn a_reused_buffer_comes_back_zeroed_or_copied() {
        let mut arena = ScratchArena::new();
        let dirty = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 + 1.0);
        let dirty = arena.take_copy(&dirty);
        arena.recycle(dirty);
        let z = arena.take_zeroed(3, 5);
        assert_eq!(z, Matrix::zeros(3, 5));
        arena.recycle(z);
        let src = Matrix::from_fn(1, 13, |_, c| -(c as f32));
        let cp = arena.take_copy(&src);
        assert_eq!(cp.shape(), (1, 13));
        assert_eq!(cp, src);
        assert_eq!(arena.fresh_allocs(), 1, "both takes reuse the 16-element buffer");
    }

    #[test]
    fn counters_count_only_misses() {
        let mut arena = ScratchArena::new();
        let a = arena.take_vec(100);
        arena.recycle_vec(a);
        for len in [100, 70, 65] {
            let v = arena.take_vec(len);
            arena.recycle_vec(v);
        }
        assert_eq!(arena.takes(), 4);
        // A miss allocates its class: 128 elements.
        assert_eq!((arena.fresh_allocs(), arena.allocated_bytes()), (1, 128 * 4));
        let v = arena.take_vec(64);
        arena.recycle_vec(v);
        assert_eq!((arena.fresh_allocs(), arena.allocated_bytes()), (2, (128 + 64) * 4));
    }

    #[test]
    fn a_foreign_buffer_serves_the_takes_it_can_hold() {
        let mut arena = ScratchArena::new();
        arena.recycle_vec(Vec::with_capacity(100));
        let v = arena.take_vec(60);
        assert!(v.capacity() >= 100);
        assert_eq!(arena.fresh_allocs(), 0);
    }

    #[test]
    fn a_repeated_sequence_is_allocation_free_after_one_pass() {
        // Two long-lived values, one short-lived and one long-lived
        // value of a smaller size, then a large value while the small
        // long-lived one is still held: the order in which best-fit
        // across classes allocates again on the second pass.
        let mut arena = ScratchArena::new();
        let pass = |arena: &mut ScratchArena| {
            let h = arena.take_vec(160);
            let act = arena.take_vec(160);
            arena.recycle_vec(h);
            let scores = arena.take_vec(100);
            let attn = arena.take_vec(100);
            arena.recycle_vec(scores);
            let mixed = arena.take_vec(160);
            arena.recycle_vec(attn);
            arena.recycle_vec(act);
            arena.recycle_vec(mixed);
        };
        pass(&mut arena);
        let warm = arena.fresh_allocs();
        for _ in 0..3 {
            pass(&mut arena);
        }
        assert_eq!(arena.fresh_allocs(), warm);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut arena = ScratchArena::new();
        let e = arena.take_zeroed(0, 5);
        arena.recycle(e);
        assert_eq!(arena.allocated_bytes(), 0);
    }

    #[test]
    fn global_counters_monotone() {
        let before = arena_total_fresh_allocs();
        let mut arena = ScratchArena::new();
        let m = arena.take_zeroed(7, 7);
        arena.recycle(m);
        assert!(arena_total_fresh_allocs() > before);
        assert!(arena_total_allocated_bytes() >= 49 * 4);
        assert!(arena_total_takes() >= 1);
    }
}
