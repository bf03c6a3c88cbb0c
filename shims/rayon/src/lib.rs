//! Offline stand-in for the `rayon` crate.
//!
//! Provides the subset of the rayon 1.x data-parallel API this
//! workspace uses: `par_iter`, `par_iter_mut`, `into_par_iter`,
//! `par_chunks_mut`, and the adapters `map`, `enumerate`, `for_each`,
//! `collect`.
//!
//! Work runs on a persistent pool of `current_num_threads() - 1`
//! worker threads, spawned on the first call with at least two items
//! and parked on a condition variable between calls. The calling
//! thread always runs items itself: it posts the call as a job, and it
//! and any idle worker that joins claim items one at a time from one
//! atomic index, so a long item does not hold the others to a fixed
//! share. A call with one item, or any call with one thread
//! (`RAYON_NUM_THREADS=1` or a one-core host), is a serial loop on the
//! caller that never touches the pool. A call made from inside an item
//! posts its own job and can finish it alone, so nesting cannot
//! deadlock.
//!
//! `enumerate` yields source positions exactly like upstream rayon, and
//! `collect` preserves source order, so callers observe the same
//! results as with the real crate. A panicking item does not stop the
//! others; the first panic is resumed on the caller once every claimed
//! item has finished, and the pool survives it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// Number of threads a parallel call runs on, the caller included:
/// `RAYON_NUM_THREADS` when it is a positive integer, else the number
/// of available cores. Read once, at first use: the core count comes
/// from cgroup files and costs tens of microseconds per read.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Locks `m`, ignoring poison: no lock in this module is held while
/// user code runs, so a poisoned one still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel call waiting for helpers.
struct Job {
    id: u64,
    /// Claims and runs the call's items until none is left. Borrows
    /// the posting `execute`'s stack frame; see the `SAFETY` comment
    /// there.
    help: &'static (dyn Fn() + Sync),
    /// Workers that may still join.
    seats: usize,
    /// Workers running `help` now.
    running: usize,
}

#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    next_id: u64,
}

/// The process-wide worker set.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a job with free seats is posted.
    posted: Condvar,
    /// Signalled when a worker leaves a job.
    left: Condvar,
    /// Worker threads (`current_num_threads() - 1`).
    workers: usize,
}

impl Pool {
    /// The pool, spawning its workers on first use. The workers are
    /// detached and live as long as the process, parked in `work`.
    fn get() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = current_num_threads() - 1;
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                queue: Mutex::new(Queue::default()),
                posted: Condvar::new(),
                left: Condvar::new(),
                workers,
            }));
            for i in 0..workers {
                // A worker that fails to spawn only leaves its seats
                // untaken: every caller can finish its items alone.
                let _ = std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || pool.work());
            }
            pool
        })
    }

    /// A worker's loop: join the oldest job with a free seat, run its
    /// items, leave it, and park when no job has a free seat.
    fn work(&self) {
        let mut queue = lock(&self.queue);
        loop {
            let Some(job) = queue.jobs.iter_mut().find(|j| j.seats > 0) else {
                queue = self.posted.wait(queue).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.seats -= 1;
            job.running += 1;
            let (id, help) = (job.id, job.help);
            drop(queue);
            // `help` catches every item's panic; this only keeps the
            // worker, and the `running` count, alive if it has a bug.
            let _ = catch_unwind(AssertUnwindSafe(help));
            queue = lock(&self.queue);
            if let Some(job) = queue.jobs.iter_mut().find(|j| j.id == id) {
                job.running -= 1;
            }
            self.left.notify_all();
        }
    }

    /// Queues `help` with up to `seats` helper seats.
    fn post(&'static self, help: &'static (dyn Fn() + Sync), seats: usize) -> Posted {
        let mut queue = lock(&self.queue);
        let id = queue.next_id;
        queue.next_id += 1;
        queue.jobs.push(Job { id, help, seats, running: 0 });
        drop(queue);
        self.posted.notify_all();
        Posted { pool: self, id }
    }
}

/// A posted job. Dropping it closes the job's seats, waits until every
/// worker that joined has left, and takes the job off the queue.
struct Posted {
    pool: &'static Pool,
    id: u64,
}

impl Drop for Posted {
    fn drop(&mut self) {
        let mut queue = lock(&self.pool.queue);
        while let Some(pos) = queue.jobs.iter().position(|j| j.id == self.id) {
            let job = &mut queue.jobs[pos];
            job.seats = 0;
            if job.running == 0 {
                queue.jobs.remove(pos);
                break;
            }
            queue = self.pool.left.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Run `f` over every item, on the pool when there is more than one
/// item and more than one thread, returning results in source order.
/// `f` receives the item's source index.
fn execute<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if n <= 1 || threads <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let pool = Pool::get();
    // Relaxed: the index only hands out positions; items, results and
    // the panic are published through their mutexes and the queue's.
    let next = AtomicUsize::new(0);
    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let run = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let x = lock(item).take().expect("each position is claimed once");
        match catch_unwind(AssertUnwindSafe(|| f(i, x))) {
            Ok(r) => *lock(&results[i]) = Some(r),
            Err(payload) => {
                lock(&panic).get_or_insert(payload);
            }
        }
    };
    let run: &(dyn Fn() + Sync) = &run;
    // SAFETY: `help` borrows `run`, which borrows this frame's `next`,
    // `items`, `results`, `panic` and `f`; only the lifetime is erased.
    // A worker calls `help` only after taking a seat while the job is
    // on the queue, and `job`'s drop closes the seats, waits until
    // every worker that joined has returned from `help`, and takes the
    // job off the queue. So the job has left the queue, and every
    // helper that joined it has finished, before `execute` returns.
    // Nor can `execute` unwind past this frame before that point: `run`
    // catches every item's panic, and on any other unwind `job`'s drop
    // still waits.
    let help = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(run) };
    let job = pool.post(help, pool.workers.min(n - 1));
    run();
    drop(job);
    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every position ran"))
        .collect()
}

/// A parallel pipeline. `drive` threads the source index through every
/// adapter so `enumerate` can report source positions from any stage.
pub trait ParallelIterator: Sized {
    type Item: Send;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.drive(|_, x| f(x));
    }

    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive(|_, x| x).into_iter().collect()
    }
}

pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    type Item = R;

    fn drive<R2, G>(self, g: G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(usize, R) -> R2 + Sync,
    {
        let f = self.f;
        self.inner.drive(move |i, x| g(i, f(x)))
    }
}

pub struct Enumerate<P> {
    inner: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn drive<R, G>(self, g: G) -> Vec<R>
    where
        R: Send,
        G: Fn(usize, (usize, P::Item)) -> R + Sync,
    {
        self.inner.drive(move |i, x| g(i, (i, x)))
    }
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

pub struct SliceIter<'a, T> {
    items: Vec<&'a T>,
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &'a T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

pub struct SliceIterMut<'a, T> {
    items: Vec<&'a mut T>,
}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &'a mut T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

pub struct ChunksMut<'a, T> {
    items: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &'a mut [T]) -> R + Sync,
    {
        execute(self.items, f)
    }
}

/// `vec.into_par_iter()` — consuming parallel iteration.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl<T: Send, const N: usize> IntoParallelIterator for [T; N] {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self.into_iter().collect() }
    }
}

/// `slice.par_iter()` — shared parallel iteration over slices/Vecs.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SliceIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { items: self.iter().collect() }
    }
}

/// `slice.par_iter_mut()` / `slice.par_chunks_mut(n)`.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T> {
        SliceIterMut { items: self.iter_mut().collect() }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "par_chunks_mut: chunk size must be > 0");
        ChunksMut { items: self.chunks_mut(chunk_size).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_collect() {
        let v: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_for_each() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn par_chunks_mut_sees_global_offsets() {
        let mut v = vec![0usize; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(ci, chunk)| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = ci * 10 + j;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn panics_propagate() {
        let v = [1usize, 2, 3];
        let r = std::panic::catch_unwind(|| {
            v.par_iter().for_each(|_| panic!("boom"));
        });
        assert!(r.is_err());
        // One panicking item among many: its payload reaches the
        // caller, and the pool still serves the next call.
        let v: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            v.par_iter().for_each(|&x| {
                if x == 17 {
                    std::panic::panic_any(x);
                }
            });
        });
        let payload = r.expect_err("item 17 panics");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&17));
        let out: Vec<usize> = v.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn items_outnumbering_threads_each_run_exactly_once() {
        let n = 50 * super::current_num_threads() + 7;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out: Vec<usize> = (0..n)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i * 3
            })
            .collect();
        assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_callers_each_get_source_order() {
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for round in 0..20 {
                        let v: Vec<usize> = (0..100 + t).collect();
                        let out: Vec<usize> = v.par_iter().map(|x| x * t + round).collect();
                        assert_eq!(out, (0..100 + t).map(|x| x * t + round).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_calls_run_from_the_caller_and_from_a_pool_thread() {
        let caller = std::thread::current().id();
        // With a helper, both outer items must be running at once to
        // pass the barrier, so one runs on the caller and one on a pool
        // thread; with one thread they run in turn on the caller.
        let parallel = super::current_num_threads() > 1;
        let barrier = Barrier::new(2);
        let outer: Vec<(std::thread::ThreadId, Vec<usize>)> = vec![0usize, 1]
            .into_par_iter()
            .map(|o| {
                if parallel {
                    barrier.wait();
                }
                let inner: Vec<usize> = (0..40).collect::<Vec<_>>().par_iter().map(|i| o * 1000 + i).collect();
                (std::thread::current().id(), inner)
            })
            .collect();
        for (o, (_, inner)) in outer.iter().enumerate() {
            assert_eq!(*inner, (0..40).map(|i| o * 1000 + i).collect::<Vec<_>>());
        }
        if parallel {
            assert!(outer.iter().any(|(id, _)| *id == caller), "the caller runs an outer item");
            assert!(outer.iter().any(|(id, _)| *id != caller), "a pool thread runs an outer item");
        }
    }

    #[test]
    fn execute_waits_for_items_running_on_pool_threads() {
        // Items that land on a pool thread outlast the caller's own, so
        // a call that returned before its helpers finished would miss
        // their results.
        let caller = std::thread::current().id();
        let done = AtomicUsize::new(0);
        let out: Vec<usize> = (0..16usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                let ms = if std::thread::current().id() == caller { 1 } else { 30 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
            .collect();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }
}
