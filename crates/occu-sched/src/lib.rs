//! # occu-sched
//!
//! Trace-driven simulation of co-location DL workload scheduling
//! (paper §VI-B). A cluster of GPUs executes a queue of inference
//! jobs under one of three packing policies:
//!
//! * **occu-packing** — co-locate while the *predicted cumulative GPU
//!   occupancy* stays ≤ 100% (the paper's contribution);
//! * **nvml-util-packing** — co-locate while cumulative NVML
//!   utilization stays ≤ 100% (Horus/Yeung-style baselines);
//! * **slot-packing** — co-location disabled, one job per GPU.
//!
//! Shared-resource contention is modelled by the interference curve
//! of Fig. 7: job progress slows as the *true* cumulative occupancy
//! on its GPU rises, gently below 100% and sharply beyond. Because
//! NVML utilization saturates near 1.0 for almost any DL job, the
//! nvml policy can rarely co-locate at all, while occupancy — a
//! tighter measure of real SM usage — safely packs two or three jobs,
//! raising utilization and cutting makespan (Table VI).

#![warn(clippy::unwrap_used)]

pub mod cluster;
pub mod interference;
pub mod job;
pub mod policy;
pub mod trace;

pub use cluster::{simulate, GpuSpec, SimResult};
pub use interference::{jct_interference_study, slowdown, InterferencePoint};
pub use job::Job;
pub use policy::PackingPolicy;
pub use trace::{
    assign_poisson_arrivals, jobs_from_csv, jobs_to_csv, load_factor, load_trace, save_trace, TRACE_HEADER,
};
