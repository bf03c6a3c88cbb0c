//! Quiet-host gating.
//!
//! The benchmark runs on shared virtual machines whose hypervisor takes
//! CPU time away in bursts ("steal"). On a 2-core host, a slice of time
//! with 20% steal serves about half as many cold predictions as a quiet
//! one, because every parallel GEMM waits for its slowest thread. Timing
//! through those bursts measures the neighbours, not the program.
//!
//! So a sampler thread cuts each timed phase into half-second slices
//! and reads the host's steal share and this process's CPU time for
//! each, and samples the resident set size. A slice is quiet when at
//! most [`QUIET_STEAL`] of the host's CPU time was stolen in it and, on
//! average, in the few seconds before it. A timed phase runs until it
//! has `seconds` of quiet slices or the process has run for
//! [`PHASE_DEADLINE_S`], so a run waits out a spell of heavy neighbours
//! of up to about two minutes, and the metrics use the quiet slices
//! only. A phase with too little quiet time falls back to all slices
//! and says so in the run context.

use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub const SLICE_S: f64 = 0.5;
/// Largest stolen share of host CPU time in a quiet slice.
pub const QUIET_STEAL: f64 = 0.05;
/// A slice is quiet only if the mean steal over the last this many
/// slices (itself included) is low too: a neighbour's heavy spell slows
/// this process even in its moments of low steal.
const TRAILING_SLICES: usize = 8;
/// A timed phase stops once the process has run this long, even without
/// its quiet time, so that the run still ends within three minutes.
pub const PHASE_DEADLINE_S: f64 = 140.0;
/// Below this share of the quiet-time target, every slice is used.
const MIN_QUIET_SHARE: f64 = 0.25;

#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub start_s: f64,
    pub end_s: f64,
    pub steal: f64,
    /// Process CPU seconds (all threads) spent in the slice.
    pub cpu_s: f64,
    /// Resident set size at the end of the slice, MiB.
    pub rss_mb: f64,
    pub quiet: bool,
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Starts the clock behind [`PHASE_DEADLINE_S`]; the first call wins.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// How long a phase may stretch to collect its quiet time.
#[derive(Clone, Copy)]
pub enum Stretch {
    /// Until the process has run [`PHASE_DEADLINE_S`]: timed runs.
    ToDeadline,
    /// Not at all: traced runs, whose per-layer metrics have no bound
    /// and which do more work after the phase.
    No,
}

impl Stretch {
    /// Seconds a phase of `seconds` that starts now may last.
    fn limit_s(self, seconds: f64) -> f64 {
        let ran = PROCESS_START.get_or_init(Instant::now).elapsed();
        match self {
            Stretch::ToDeadline => (PHASE_DEADLINE_S - ran.as_secs_f64()).max(seconds),
            Stretch::No => seconds,
        }
    }
}

/// What the work polls to know when to stop, and its time origin.
pub struct Gate {
    pub t0: Instant,
    done: AtomicBool,
    quiet_us: AtomicU64,
}

impl Gate {
    pub fn done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Quiet time collected so far, in seconds.
    pub fn quiet_s(&self) -> f64 {
        self.quiet_us.load(Ordering::SeqCst) as f64 * 1e-6
    }

    pub fn at_s(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }
}

/// The slices of one phase.
pub struct Slices {
    pub slices: Vec<Slice>,
    /// True when too few slices were quiet and all of them are used.
    pub fallback: bool,
}

/// Runs `work` under a sampler thread until `seconds` of quiet slices
/// have been collected or `stretch` ends the phase (it always has
/// `seconds` to run).
pub fn watched<T: Send>(
    seconds: f64,
    stretch: Stretch,
    work: impl FnOnce(&Gate) -> T + Send,
) -> (T, Slices) {
    let limit_s = stretch.limit_s(seconds);
    let gate = Gate {
        t0: Instant::now(),
        done: AtomicBool::new(false),
        quiet_us: AtomicU64::new(0),
    };
    let finished = AtomicBool::new(false);
    let slices = Mutex::new(Vec::new());
    let out = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut prev = (0.0, stats::host_jiffies(), stats::usage().cpu_s);
            let mut quiet_s = 0.0;
            let mut recent: Vec<f64> = Vec::new();
            let mut next = SLICE_S;
            loop {
                let stop = finished.load(Ordering::SeqCst);
                if !stop {
                    let wait = next - gate.at_s(Instant::now());
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait.min(0.05)));
                        continue;
                    }
                }
                let now = (
                    gate.at_s(Instant::now()),
                    stats::host_jiffies(),
                    stats::usage().cpu_s,
                );
                let steal = stats::steal_share(prev.1, now.1);
                if !steal.is_nan() {
                    recent.push(steal);
                }
                let trailing = &recent[recent.len().saturating_sub(TRAILING_SLICES)..];
                let trailing_mean = trailing.iter().sum::<f64>() / trailing.len().max(1) as f64;
                // Without a steal reading every slice counts as quiet.
                let quiet =
                    steal.is_nan() || (steal <= QUIET_STEAL && trailing_mean <= QUIET_STEAL);
                let rss_mb = stats::rss_mb().unwrap_or(f64::NAN);
                let slice = Slice {
                    start_s: prev.0,
                    end_s: now.0,
                    steal,
                    cpu_s: now.2 - prev.2,
                    rss_mb,
                    quiet,
                };
                if quiet {
                    quiet_s += slice.end_s - slice.start_s;
                }
                slices.lock().expect("slice log poisoned").push(slice);
                gate.quiet_us
                    .store((quiet_s * 1e6) as u64, Ordering::SeqCst);
                if quiet_s >= seconds || now.0 >= limit_s {
                    gate.done.store(true, Ordering::SeqCst);
                }
                if stop {
                    return;
                }
                prev = now;
                next += SLICE_S;
            }
        });
        let out = work(&gate);
        finished.store(true, Ordering::SeqCst);
        sampler.join().expect("sampler thread panicked");
        out
    });
    let mut slices = slices.into_inner().expect("slice log poisoned");
    let quiet_s: f64 = slices
        .iter()
        .filter(|s| s.quiet)
        .map(|s| s.end_s - s.start_s)
        .sum();
    let fallback = quiet_s < MIN_QUIET_SHARE * seconds;
    if fallback {
        for s in &mut slices {
            s.quiet = true;
        }
    }
    (out, Slices { slices, fallback })
}

/// Longest time spent repeating set-up to find three quiet runs.
const SETUP_CAP_S: f64 = 10.0;

/// Runs `setup` at least three times and for at least two seconds, and
/// until three runs were quiet (at most [`QUIET_STEAL`] of the host's CPU
/// stolen while it ran) or [`SETUP_CAP_S`] has passed; at most 100 times. Returns
/// the median duration of the quiet runs (of all runs if none was
/// quiet), the number of runs and of quiet runs, and the last result.
/// Each earlier result goes to `discard`, untimed, before the next run.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, usize, usize, T), String> {
    let start = Instant::now();
    let (mut all, mut quiet) = (Vec::new(), Vec::new());
    loop {
        let (t, j0) = (Instant::now(), stats::host_jiffies());
        let value = setup()?;
        let secs = t.elapsed().as_secs_f64();
        let steal = stats::steal_share(j0, stats::host_jiffies());
        all.push(secs);
        if steal.is_nan() || steal <= QUIET_STEAL {
            quiet.push(secs);
        }
        let spent = start.elapsed().as_secs_f64();
        let enough = all.len() >= 3 && spent >= 2.0 && (quiet.len() >= 3 || spent >= SETUP_CAP_S);
        if enough || all.len() >= 100 {
            let median = stats::median(if quiet.is_empty() { &all } else { &quiet });
            return Ok((median, all.len(), quiet.len(), value));
        }
        discard(value);
    }
}

impl Slices {
    fn index(&self, t: f64) -> Option<usize> {
        let i = self.slices.partition_point(|s| s.end_s < t);
        self.slices.get(i).filter(|s| s.start_s <= t).map(|_| i)
    }

    /// True when every slice that `[start_s, end_s]` touches is quiet.
    pub fn quiet_span(&self, start_s: f64, end_s: f64) -> bool {
        match (self.index(start_s), self.index(end_s)) {
            (Some(a), Some(b)) => self.slices[a..=b].iter().all(|s| s.quiet),
            _ => false,
        }
    }

    pub fn quiet_s(&self) -> f64 {
        self.slices
            .iter()
            .filter(|s| s.quiet)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    pub fn quiet_cpu_s(&self) -> f64 {
        self.slices
            .iter()
            .filter(|s| s.quiet)
            .map(|s| s.cpu_s)
            .sum()
    }

    pub fn total_s(&self) -> f64 {
        self.slices.last().map_or(0.0, |s| s.end_s)
    }

    /// Items completed at `done_at_s` that fall in quiet slices.
    pub fn quiet_completions(&self, done_at_s: &[f64]) -> usize {
        done_at_s
            .iter()
            .filter(|&&t| self.index(t).is_some_and(|i| self.slices[i].quiet))
            .count()
    }

    /// Largest resident set size sampled during the phase, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.slices
            .iter()
            .map(|s| s.rss_mb)
            .fold(f64::NAN, f64::max)
    }

    /// Mean steal share over the whole phase.
    pub fn steal(&self) -> f64 {
        let total = self.total_s();
        self.slices
            .iter()
            .filter(|s| !s.steal.is_nan())
            .map(|s| s.steal * (s.end_s - s.start_s))
            .sum::<f64>()
            / total.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(quiet: &[bool]) -> Slices {
        Slices {
            slices: quiet
                .iter()
                .enumerate()
                .map(|(i, &q)| Slice {
                    start_s: i as f64 * SLICE_S,
                    end_s: (i + 1) as f64 * SLICE_S,
                    steal: if q { 0.0 } else { 0.3 },
                    cpu_s: 0.25,
                    rss_mb: i as f64,
                    quiet: q,
                })
                .collect(),
            fallback: false,
        }
    }

    #[test]
    fn setup_repeats_at_least_three_times() {
        let mut n = 0;
        let mut discarded = Vec::new();
        let (_, runs, _, last) = repeat_setup(
            || {
                n += 1;
                Ok(n)
            },
            |v| discarded.push(v),
        )
        .unwrap();
        assert_eq!(runs, 100, "instant set-ups repeat until the run limit");
        assert_eq!(last, 100);
        assert_eq!(discarded, (1..100).collect::<Vec<_>>());
        assert!(repeat_setup(|| Err::<(), _>("no".to_string()), drop).is_err());
    }

    #[test]
    fn spans_are_quiet_only_inside_quiet_slices() {
        let s = slices(&[true, true, false, true]);
        assert!(s.quiet_span(0.1, 0.9));
        assert!(!s.quiet_span(0.9, 1.1));
        assert!(s.quiet_span(1.6, 1.9));
        assert!(!s.quiet_span(1.9, 2.5), "past the last slice");
        assert_eq!(s.quiet_completions(&[0.2, 1.2, 1.7, 9.0]), 2);
        assert_eq!(s.quiet_s(), 1.5);
        assert_eq!(s.quiet_cpu_s(), 0.75);
        assert_eq!(s.peak_rss_mb(), 3.0);
    }

    #[test]
    fn watched_stops_once_quiet_time_is_collected() {
        let (polls, s) = watched(1.0, Stretch::ToDeadline, |gate| {
            let mut polls = 0;
            while !gate.done() {
                polls += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            polls
        });
        assert!(polls > 0);
        assert!(
            s.total_s() >= 1.0 && s.total_s() <= PHASE_DEADLINE_S,
            "{}",
            s.total_s()
        );
        assert!(s.slices.windows(2).all(|w| w[0].end_s == w[1].start_s));
    }
}
