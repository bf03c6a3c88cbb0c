//! # occu-gpusim
//!
//! An analytical GPU simulator that plays the role of the paper's
//! profiling infrastructure (NVIDIA GPUs + Nsight Compute, §IV-B).
//! Given a computation graph from `occu-graph` and a [`DeviceSpec`],
//! it produces per-kernel *achieved occupancy* and duration, the
//! duration-weighted model occupancy that DNN-occu learns to predict,
//! and the NVML-utilization metric the paper contrasts against
//! (Fig. 2).
//!
//! ## Model
//!
//! 1. **Lowering** ([`lowering`]): each graph operator expands into a
//!    sequence of [`Kernel`] launches with realistic launch
//!    geometries, register counts and shared-memory footprints,
//!    mimicking cuDNN/cuBLAS algorithm selection (implicit GEMM for
//!    convolutions, 128x128 tiled GEMM, fused elementwise kernels,
//!    block-per-row reductions, flash-style attention).
//! 2. **Theoretical occupancy** ([`occupancy::theoretical_occupancy`]):
//!    the CUDA occupancy-calculator rules — active blocks per SM are
//!    limited by warp slots, registers, shared memory, and the
//!    per-SM block cap.
//! 3. **Achieved occupancy** ([`occupancy::achieved_occupancy`]):
//!    theoretical occupancy degraded by grid tail/quantization
//!    effects (partial waves leave SMs idle) and a per-category
//!    scheduling efficiency.
//! 4. **Timing** ([`profile`]): a roofline duration per kernel —
//!    `max(flops/peak, bytes/bandwidth)` with latency-hiding reduced
//!    at low occupancy — plus a fixed launch overhead, from which the
//!    NVML "kernel resident" fraction follows.
//!
//! The absolute numbers are synthetic, but the *structure* — which
//! configurations raise or depress occupancy, how NVML saturates
//! while occupancy plateaus much lower — follows the real mechanisms,
//! which is what the learning problem needs.

#![warn(clippy::unwrap_used)]

pub mod device;
pub mod kernel;
pub mod lowering;
pub mod occupancy;
pub mod profile;

pub use device::DeviceSpec;
pub use kernel::{Kernel, KernelCategory};
pub use occupancy::{achieved_occupancy, theoretical_occupancy, OccupancyLimits};
pub use profile::{csv_field, profile_graph, split_csv_row, KernelProfile, ProfileReport};
