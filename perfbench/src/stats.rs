//! Percentiles and process/host counters.

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A tail percentile is only reported when at least ten samples lie
/// beyond it; fewer makes it one or two outliers, not a percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The fields of `getrusage(RUSAGE_SELF)` the benchmark reads. Process
/// totals: every thread, the in-process server's as well as the
/// callers', live or exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: i64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the C layout of `struct rusage` on
    // 64-bit Linux, the pointer is valid for writes of that size, and
    // the zeroed value is a valid `Rusage` whatever the call returns.
    let ru = unsafe {
        let rc = getrusage(RUSAGE_SELF, ru.as_mut_ptr());
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        ru.assume_init()
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: ru.nvcsw + ru.nivcsw,
    }
}

/// Host-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`; `None` where the file is missing.
pub fn host_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *fields.get(7)?;
    // guest and guest_nice are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// This process's resident set size in MiB, from `/proc/self/status`.
pub fn rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(20, 0.5), 10);
        assert!(!tail_supported(19, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn usage_reads_this_process() {
        let u = usage();
        assert!(u.cpu_s >= 0.0);
        assert!(rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
