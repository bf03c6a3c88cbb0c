//! # occu-bench
//!
//! The evaluation harness. The [`repro`](../repro/index.html) binary
//! (`cargo run -p occu-bench --bin repro --release -- all`) regenerates
//! every table and figure of the paper and runs the kernel, plan,
//! quantization and observability gates.
//!
//! This library crate hosts the two *application* experiments that
//! span predictor + scheduler (Fig. 7 and Table VI), the gate studies,
//! and the report formatting the binary prints. Serving is checked
//! elsewhere: its correctness by the cargo tests in
//! `occu-serve/tests/serve_integration.rs`, its cost per cold
//! prediction by perfbench's `serve_cold` workload.

pub mod apps;
pub mod kernels;
pub mod perf;
pub mod planperf;
pub mod quantperf;
pub mod report;

pub use apps::{build_job_pool, fig7_study, table6, Table6Row};
pub use kernels::{kernel_study, render_kernels, KernelPerfReport, KernelShapeRow};
pub use planperf::{plan_study, render_plan, PlanModelRow, PlanPerfReport, PLAN_SPEEDUP_GATE};
pub use quantperf::{
    quant_study, render_quant, QuantModelRow, QuantPerfReport, QUANT_MRE_DELTA_GATE_PP,
    QUANT_SPEEDUP_GATE,
};
pub use perf::{
    obs_overhead_study, perf_study, render_obs_overhead, render_perf, serve_overhead_study,
    validate_out_path, ObsOverheadReport, PerfReport, SERVE_ATTRIBUTION_TOLERANCE,
    SERVE_OVERHEAD_BUDGET,
};
