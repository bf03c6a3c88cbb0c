//! # occu-bench
//!
//! The evaluation harness. The [`repro`](../repro/index.html) binary
//! (`cargo run -p occu-bench --bin repro --release -- all`) regenerates
//! every table and figure of the paper.
//!
//! This library crate hosts the two *application* experiments that
//! span predictor + scheduler (Fig. 7 and Table VI) and the report
//! formatting the binary prints. Exactness checks are cargo tests in
//! the crates they check; speed is measured by perfbench, and the
//! constant speed floors live in `tests/speed_floors.rs`
//! (`cargo test --release -p occu-bench --test speed_floors -- --ignored`).

pub mod apps;
pub mod report;

pub use apps::{build_job_pool, fig7_study, table6, Table6Row};
