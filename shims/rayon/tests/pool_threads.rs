//! The pool's thread count, isolated in its own test binary so no
//! other test's threads change `/proc/self/task`: repeated parallel
//! calls reuse one worker set instead of spawning threads per call.

#![cfg(target_os = "linux")]

use rayon::prelude::*;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

#[test]
fn repeated_calls_reuse_the_pool_threads() {
    let before = thread_count();
    for call in 0..200usize {
        let v: Vec<usize> = (0..8).collect();
        let out: Vec<usize> = v.par_iter().map(|x| x + call).collect();
        assert_eq!(out, (call..call + 8).collect::<Vec<_>>());
    }
    let after = thread_count();
    let pool_workers = rayon::current_num_threads() - 1;
    assert!(
        after.saturating_sub(before) <= pool_workers,
        "200 calls grew the process from {before} to {after} threads (pool of {pool_workers} workers)",
    );
}
