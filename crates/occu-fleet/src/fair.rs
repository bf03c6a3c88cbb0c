//! Bounded multi-producer queue with weighted-fair dequeue.
//!
//! Each tenant owns a lane (a `VecDeque`); the consumer drains lanes
//! round-robin, taking up to `weight` items from a lane before moving
//! on. Under backlog a tenant with weight 3 therefore gets 3× the
//! dequeue bandwidth of a weight-1 tenant — and, crucially, a tenant
//! flooding its lane cannot starve the others: its excess waits
//! behind everyone else's turn.
//!
//! The bound is on the *total* across lanes, mirroring the single
//! worker pool the items feed. A full queue rejects the push
//! immediately (the server turns that into `429 Too Many Requests`)
//! rather than blocking the submitting worker thread.
//!
//! Nothing ever blocks on the queue: the workers that submit items
//! also drain them, with [`FairQueue::try_pop`].

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

struct Inner<T> {
    lanes: Vec<VecDeque<T>>,
    /// Items the cursor lane may still dequeue this visit.
    credits: u32,
    cursor: usize,
    len: usize,
}

/// Bounded weighted-fair queue over a fixed set of lanes.
pub struct FairQueue<T> {
    inner: Mutex<Inner<T>>,
    weights: Vec<u32>,
    cap: usize,
}

impl<T> FairQueue<T> {
    /// A queue of `weights.len()` lanes holding at most `cap` items
    /// in total. Weights are clamped to ≥ 1; an empty weight list
    /// gets a single lane.
    pub fn new(cap: usize, weights: &[u32]) -> Self {
        let weights: Vec<u32> =
            if weights.is_empty() { vec![1] } else { weights.iter().map(|&w| w.max(1)).collect() };
        let lanes = weights.iter().map(|_| VecDeque::new()).collect();
        Self {
            inner: Mutex::new(Inner { lanes, credits: weights[0], cursor: 0, len: 0 }),
            weights,
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        // Poisoning only marks a panicked holder; the queue structure
        // is consistent after every complete operation.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.weights.len()
    }

    /// Total items queued across all lanes.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items queued in one lane (0 for an out-of-range index).
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.lock().lanes.get(lane).map_or(0, VecDeque::len)
    }

    /// Enqueues `item` on `lane`. Fails with the item when the queue
    /// is at capacity or the lane index is out of range.
    pub fn push(&self, lane: usize, item: T) -> std::result::Result<(), T> {
        let mut inner = self.lock();
        if inner.len >= self.cap || lane >= inner.lanes.len() {
            return Err(item);
        }
        inner.lanes[lane].push_back(item);
        inner.len += 1;
        Ok(())
    }

    /// Dequeues the next item under the weighted round-robin policy,
    /// without waiting. Returns the lane it came from.
    pub fn try_pop(&self) -> Option<(usize, T)> {
        self.take_next(&mut self.lock())
    }

    /// Round-robin scan: spend the cursor lane's remaining credits,
    /// then move on, reloading the next lane's full weight. `len > 0`
    /// guarantees termination — some lane is non-empty.
    fn take_next(&self, inner: &mut Inner<T>) -> Option<(usize, T)> {
        if inner.len == 0 {
            return None;
        }
        loop {
            if inner.credits > 0 {
                if let Some(item) = inner.lanes[inner.cursor].pop_front() {
                    inner.credits -= 1;
                    inner.len -= 1;
                    return Some((inner.cursor, item));
                }
            }
            inner.cursor = (inner.cursor + 1) % self.weights.len();
            inner.credits = self.weights[inner.cursor];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_interleave_under_backlog() {
        // Lane 0 weight 3, lane 1 weight 1: the drain order must be
        // three from lane 0, one from lane 1, repeating.
        let q: FairQueue<u32> = FairQueue::new(64, &[3, 1]);
        for i in 0..6 {
            q.push(0, i).expect("push lane 0");
        }
        for i in 100..102 {
            q.push(1, i).expect("push lane 1");
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| q.try_pop().map(|(lane, _)| lane)).collect();
        assert_eq!(order, vec![0, 0, 0, 1, 0, 0, 0, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_flooding_lane_cannot_starve_the_other() {
        let q: FairQueue<u32> = FairQueue::new(128, &[1, 1]);
        for i in 0..100 {
            q.push(0, i).expect("flood lane 0");
        }
        q.push(1, 999).expect("push lane 1");
        // The lone lane-1 item must surface within one full rotation.
        let lanes: Vec<usize> = (0..3)
            .filter_map(|_| q.try_pop().map(|(lane, _)| lane))
            .collect();
        assert!(lanes.contains(&1), "lane 1 starved behind the flood: {lanes:?}");
    }

    #[test]
    fn capacity_bound_rejects_and_out_of_range_lane_fails() {
        let q: FairQueue<u32> = FairQueue::new(2, &[1, 1]);
        q.push(0, 1).expect("first");
        q.push(1, 2).expect("second");
        assert_eq!(q.push(0, 3), Err(3), "over-capacity push returns the item");
        assert_eq!(q.len(), 2);
        assert_eq!(q.lane_depth(0), 1);
        assert_eq!(q.push(7, 4), Err(4), "out-of-range lane is rejected");
    }
}
