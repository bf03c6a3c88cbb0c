//! Runtime CPU-feature dispatch for the SIMD kernels.
//!
//! The workspace compiles for the baseline target (x86-64 means SSE2
//! only), so AVX2 kernels cannot be selected at compile time without
//! producing a binary that faults on older machines. Instead, the
//! first kernel invocation probes the CPU once
//! ([`std::arch::is_x86_feature_detected!`]), caches the verdict in a
//! [`OnceLock`], and every hot-path primitive branches on that cached
//! [`Isa`]. The same binary therefore runs everywhere and uses the
//! widest unit the host offers; non-x86 hosts run the scalar kernels.
//!
//! `OCCU_FORCE_SCALAR=1`, read once at first use, pins [`Isa::Scalar`]
//! regardless of the CPU. The scalar kernels are the bitwise oracle — a
//! forced-scalar run must reproduce the SIMD run exactly, which the
//! proptests in `tests/proptests.rs` and the forced-scalar rerun in
//! `occu-core/tests/plan_equivalence.rs` verify. Apart from that
//! switch the choice follows the CPU features alone.
//!
//! When the CPU additionally reports AVX-512 (F and DQ), the GEMM
//! micro-kernel is upgraded to the 16-lane paired-panel kernel — still
//! separate mul-then-add per lane, so still bitwise-equal to the
//! scalar oracle. On a 2×512-bit-FPU core that roughly doubles GEMM
//! throughput over the AVX2 kernel, whose 4×8 tile is port-limited.
//!
//! Per-ISA dispatch counters (one increment per dispatched primitive
//! call, not per element) feed the `tensor.dispatch.{avx2,avx512,
//! scalar}` metrics that `occu-serve` exports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Instruction set a kernel invocation was dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar Rust — the always-available bitwise oracle.
    Scalar,
    /// x86-64 AVX2: 8-lane `f32`, separate mul-then-add (bitwise-equal
    /// to scalar).
    Avx2,
    /// x86-64 AVX-512 (F+DQ): 16-lane `f32` GEMM micro-kernel covering
    /// two packed `NR`-panels per step, separate mul-then-add per lane
    /// (bitwise-equal to scalar). Row-wise primitives stay on the AVX2
    /// code — they are memory-bound and gain nothing from wider lanes.
    Avx512,
}

impl Isa {
    /// Stable lower-case name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// True when `var` is set to something other than empty or `0`.
fn env_flag(var: &str) -> bool {
    std::env::var(var).map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

fn detect() -> Isa {
    if env_flag("OCCU_FORCE_SCALAR") {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                return Isa::Avx512;
            }
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// The ISA every dispatched primitive in this process uses, probed
/// once on first call (honouring `OCCU_FORCE_SCALAR`).
pub fn active_isa() -> Isa {
    *ACTIVE.get_or_init(detect)
}

/// Instruction set an int8 GEMM invocation was dispatched to. The
/// int8 kernels live on their own ladder because the units involved
/// (`maddubs`/`dpbusd`) are detected independently of the f32 tiers:
/// a host can have AVX-512F without VNNI, and the scalar i32 oracle
/// must stay reachable via `OCCU_FORCE_SCALAR=1` exactly like the f32
/// oracle. Every tier accumulates in exact i32 arithmetic, so all
/// three are bitwise-equal by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantIsa {
    /// Portable scalar i32 accumulation — the always-available oracle.
    Scalar,
    /// x86-64 AVX2 `_mm256_maddubs_epi16` + `_mm256_madd_epi16`.
    Avx2,
    /// x86-64 AVX-512 VNNI `_mm512_dpbusd_epi32` over paired panels.
    Vnni,
}

impl QuantIsa {
    /// Stable lower-case name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            QuantIsa::Scalar => "scalar",
            QuantIsa::Avx2 => "avx2",
            QuantIsa::Vnni => "avx512vnni",
        }
    }
}

static QUANT_ACTIVE: OnceLock<QuantIsa> = OnceLock::new();

fn detect_quant() -> QuantIsa {
    // Follow the f32 verdict so OCCU_FORCE_SCALAR pins both ladders
    // with one switch, then probe the integer units on top.
    match active_isa() {
        Isa::Scalar => QuantIsa::Scalar,
        Isa::Avx2 | Isa::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
                {
                    return QuantIsa::Vnni;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return QuantIsa::Avx2;
                }
            }
            QuantIsa::Scalar
        }
    }
}

/// The ISA every dispatched int8 GEMM in this process uses, probed
/// once on first call (honouring `OCCU_FORCE_SCALAR`).
pub fn quant_isa() -> QuantIsa {
    *QUANT_ACTIVE.get_or_init(detect_quant)
}

static DISPATCH_SCALAR: AtomicU64 = AtomicU64::new(0);
static DISPATCH_AVX2: AtomicU64 = AtomicU64::new(0);
static DISPATCH_AVX512: AtomicU64 = AtomicU64::new(0);
static DISPATCH_I8_SCALAR: AtomicU64 = AtomicU64::new(0);
static DISPATCH_I8_AVX2: AtomicU64 = AtomicU64::new(0);
static DISPATCH_I8_VNNI: AtomicU64 = AtomicU64::new(0);

/// Records one dispatched primitive call on `isa`.
#[inline]
pub(crate) fn note_dispatch(isa: Isa) {
    let c = match isa {
        Isa::Scalar => &DISPATCH_SCALAR,
        Isa::Avx2 => &DISPATCH_AVX2,
        Isa::Avx512 => &DISPATCH_AVX512,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide dispatch counters: how many kernel-level primitive
/// calls (GEMM sweeps, fused row passes) ran on each ISA.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Calls that ran the portable scalar path (including small
    /// products below the blocked-GEMM gate, which always stream).
    pub scalar: u64,
    /// Calls that ran the AVX2 mul-then-add kernels.
    pub avx2: u64,
    /// Calls that ran the AVX-512 paired-panel GEMM kernel.
    pub avx512: u64,
}

impl DispatchCounts {
    /// Sum over all ISAs.
    pub fn total(&self) -> u64 {
        self.scalar + self.avx2 + self.avx512
    }

    /// Calls that took any SIMD path.
    pub fn simd(&self) -> u64 {
        self.avx2 + self.avx512
    }
}

/// Snapshot of the per-ISA dispatch counters.
pub fn dispatch_counts() -> DispatchCounts {
    DispatchCounts {
        scalar: DISPATCH_SCALAR.load(Ordering::Relaxed),
        avx2: DISPATCH_AVX2.load(Ordering::Relaxed),
        avx512: DISPATCH_AVX512.load(Ordering::Relaxed),
    }
}

/// Records one dispatched int8 GEMM call on `isa`.
#[inline]
pub(crate) fn note_quant_dispatch(isa: QuantIsa) {
    let c = match isa {
        QuantIsa::Scalar => &DISPATCH_I8_SCALAR,
        QuantIsa::Avx2 => &DISPATCH_I8_AVX2,
        QuantIsa::Vnni => &DISPATCH_I8_VNNI,
    };
    c.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide int8 dispatch counters, feeding the
/// `tensor.dispatch.i8_*` gauges `occu-serve` exports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantDispatchCounts {
    /// Calls that ran the scalar i32-accumulate oracle.
    pub scalar: u64,
    /// Calls that ran the AVX2 `maddubs` kernel.
    pub avx2: u64,
    /// Calls that ran the AVX-512 VNNI `dpbusd` kernel.
    pub vnni: u64,
}

impl QuantDispatchCounts {
    /// Sum over all int8 tiers.
    pub fn total(&self) -> u64 {
        self.scalar + self.avx2 + self.vnni
    }
}

/// Snapshot of the per-ISA int8 dispatch counters.
pub fn quant_dispatch_counts() -> QuantDispatchCounts {
    QuantDispatchCounts {
        scalar: DISPATCH_I8_SCALAR.load(Ordering::Relaxed),
        avx2: DISPATCH_I8_AVX2.load(Ordering::Relaxed),
        vnni: DISPATCH_I8_VNNI.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx512.name(), "avx512");
    }

    #[test]
    fn counters_accumulate() {
        let before = dispatch_counts();
        note_dispatch(Isa::Scalar);
        note_dispatch(Isa::Avx2);
        let after = dispatch_counts();
        assert!(after.scalar > before.scalar);
        assert!(after.avx2 > before.avx2);
        assert_eq!(after.total(), after.scalar + after.avx2 + after.avx512);
    }

    #[test]
    fn active_isa_is_sticky() {
        // Whatever the first probe decided, later calls agree.
        assert_eq!(active_isa(), active_isa());
    }

    #[test]
    fn quant_names_are_stable() {
        assert_eq!(QuantIsa::Scalar.name(), "scalar");
        assert_eq!(QuantIsa::Avx2.name(), "avx2");
        assert_eq!(QuantIsa::Vnni.name(), "avx512vnni");
    }

    #[test]
    fn quant_counters_accumulate() {
        let before = quant_dispatch_counts();
        note_quant_dispatch(QuantIsa::Scalar);
        note_quant_dispatch(QuantIsa::Avx2);
        note_quant_dispatch(QuantIsa::Vnni);
        let after = quant_dispatch_counts();
        assert!(after.scalar > before.scalar);
        assert!(after.avx2 > before.avx2);
        assert!(after.vnni > before.vnni);
        assert_eq!(after.total(), after.scalar + after.avx2 + after.vnni);
    }

    #[test]
    fn quant_isa_follows_scalar_pin() {
        // The int8 ladder derives from the f32 verdict: a scalar f32
        // pin (OCCU_FORCE_SCALAR) must pin int8 to the oracle too.
        if active_isa() == Isa::Scalar {
            assert_eq!(quant_isa(), QuantIsa::Scalar);
        }
        assert_eq!(quant_isa(), quant_isa());
    }
}
