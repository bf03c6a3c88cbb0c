//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p occu-bench --bin repro --release -- all
//! cargo run -p occu-bench --bin repro --release -- fig4 --quick
//! ```
//!
//! Subcommands: `fig2 fig4 fig5 fig45 fig6 fig7 table4 table5 table6
//! ablation aggr device-gen all`. `--quick` shrinks dataset sizes and
//! epochs for smoke runs; `--device <name>` restricts the multi-device
//! experiments to one GPU (useful for piecewise archive runs) and also
//! accepts a device-spec JSON path. All subcommands accept
//! `--trace-out <spans.jsonl>`, `--metrics-out <metrics.json>`, and
//! `--log-level <level>`.
//!
//! `repro` measures no speed. The exactness checks (blocked and SIMD
//! GEMM against their oracles, plan against tape, int8 across ISAs
//! and against f32) are cargo tests; perfbench measures throughput
//! per layer; the constant speed floors are the opt-in tests in
//! `occu-bench/tests/speed_floors.rs`.
//!
//! ## Exit codes
//!
//! Usage mistakes (including a subcommand or flag `repro` does not
//! know) exit 2. Pipeline failures print one `error:` line and exit
//! with the `OccuError` code for the failure class: 3 io, 4 parse,
//! 5 shape, 6 config, 7 data.

#![warn(clippy::unwrap_used)]

use occu_bench::report;
use occu_bench::{fig7_study, table6};
use occu_core::experiments::{
    ablation_study, batch_sweep, fig4_comparison, fig5_robustness, table4_clip,
    table5_generalization, ExperimentScale,
};
use occu_error::{IoContext, OccuError};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;

/// Either a command-line usage mistake (exit 2 + usage text) or a
/// typed pipeline failure (its own exit code, one `error:` line).
enum CliError {
    Usage(String),
    Pipeline(OccuError),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<OccuError> for CliError {
    fn from(e: OccuError) -> Self {
        CliError::Pipeline(e)
    }
}

fn scale_of(quick: bool) -> ExperimentScale {
    if quick {
        ExperimentScale { configs_per_model: 3, epochs: 8, hidden: 32 }
    } else {
        ExperimentScale::full()
    }
}

/// Value of a `--flag value` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{flag} expects a value")),
        },
    }
}

/// Devices selected by `--device <name-or-path>` (default: the
/// paper's three).
fn devices_of(args: &[String]) -> Result<Vec<DeviceSpec>, CliError> {
    match flag_value(args, "--device")? {
        Some(name) => Ok(vec![DeviceSpec::resolve(name)?]),
        None => Ok(DeviceSpec::paper_devices()),
    }
}

fn run_fig2() {
    // Fig. 2: *training* ResNet-50 on CIFAR-10, A100; the profile
    // covers forward + backward + optimizer kernels. The standard
    // torchvision pipeline resizes CIFAR-10 to 224x224.
    let batches = [4, 8, 16, 32, 64, 96, 128, 192, 256];
    let base = occu_models::ModelConfig { image_size: 224, ..Default::default() };
    let pts = occu_core::experiments::batch_sweep_with(
        ModelId::ResNet50,
        &DeviceSpec::a100(),
        &batches,
        base,
        true,
    );
    println!(
        "{}",
        report::render_batch_sweep(
            "Fig. 2: training ResNet-50 (CIFAR-10) on A100 — occupancy vs NVML utilization",
            &pts
        )
    );
}

fn run_fig6() {
    // Fig. 6: hyperparameter-optimization case study — the same axes
    // on the models the user would tune.
    for model in [ModelId::ResNet50, ModelId::VitS] {
        let batches = [16, 32, 48, 64, 96, 128];
        let pts = batch_sweep(model, &DeviceSpec::a100(), &batches);
        println!(
            "{}",
            report::render_batch_sweep(
                &format!("Fig. 6: impact of batch size — {} on A100", model.name()),
                &pts
            )
        );
        if let Some(best) = pts.iter().filter(|p| p.fits_memory).max_by(|a, b| a.occupancy.total_cmp(&b.occupancy)) {
            println!("  -> occupancy-optimal batch size: {}\n", best.batch);
        }
    }
}

fn run_fig4(quick: bool, args: &[String]) -> Result<(), CliError> {
    let scale = scale_of(quick);
    for dev in devices_of(args)? {
        let res = fig4_comparison(&dev, scale, 42);
        println!("{}", report::render_fig4(&res));
    }
    Ok(())
}

fn run_fig5(quick: bool, args: &[String]) -> Result<(), CliError> {
    let scale = scale_of(quick);
    for dev in devices_of(args)? {
        let (nodes, edges) = fig5_robustness(&dev, scale, 43);
        println!("{}", report::render_fig5(&dev.name, &nodes, &edges));
    }
    Ok(())
}

fn run_fig45(quick: bool, args: &[String]) -> Result<(), CliError> {
    // Fig. 4 + Fig. 5 sharing one trained suite per device.
    let scale = scale_of(quick);
    for dev in devices_of(args)? {
        let art = occu_core::experiments::prepare_comparison(&dev, scale, 42);
        println!("{}", report::render_fig4(&occu_core::experiments::fig4_from(&art)));
        let (nodes, edges) = occu_core::experiments::fig5_from(&art);
        println!("{}", report::render_fig5(&dev.name, &nodes, &edges));
    }
    Ok(())
}

fn run_table4(quick: bool, args: &[String]) -> Result<(), CliError> {
    let scale = scale_of(quick);
    let devs: Vec<DeviceSpec> = if args.iter().any(|a| a == "--device") {
        devices_of(args)?
    } else {
        vec![DeviceSpec::a100(), DeviceSpec::p40()] // the paper's Table IV devices
    };
    let mut rows = Vec::new();
    for dev in devs {
        rows.extend(table4_clip(&dev, scale, 44));
    }
    println!("{}", report::render_table4(&rows));
    Ok(())
}

fn run_table5(quick: bool, args: &[String]) -> Result<(), CliError> {
    let scale = scale_of(quick);
    let mut rows = Vec::new();
    for dev in devices_of(args)? {
        rows.extend(table5_generalization(&dev, scale, 45));
    }
    println!("{}", report::render_table5(&rows));
    Ok(())
}

fn run_fig7(quick: bool) {
    let pairs = if quick { 50 } else { 200 };
    let pts = fig7_study(pairs, 46);
    println!("{}", report::render_fig7(&pts));
}

fn run_table6(quick: bool) {
    let scale = scale_of(quick);
    let (runs, jobs) = if quick { (5, 12) } else { (100, 24) };
    let rows = table6(scale, runs, jobs, 47);
    println!("{}", report::render_table6(&rows));
}

fn run_ablation(quick: bool) {
    let scale = scale_of(quick);
    let rows = ablation_study(&DeviceSpec::a100(), scale, 48);
    println!("== Ablation: DNN-occu components (A100) ==");
    println!("{:<28} {:>14} {:>14}", "variant", "seen MRE(%)", "unseen MRE(%)");
    for r in &rows {
        println!(
            "{:<28} {:>14.3} {:>14.3}",
            r.variant,
            r.seen.mre_percent(),
            r.unseen.mre_percent()
        );
    }
    println!();
}

fn run_aggr(quick: bool) {
    let scale = scale_of(quick);
    let rows = occu_core::experiments::aggregation_study(&DeviceSpec::a100(), scale, 49);
    println!("== Aggregation study (§III-A): mean/max/min kernel occupancy (A100) ==");
    println!("{:<8} {:>12} {:>12} {:>6}", "aggr", "MRE(%)", "MSE", "n");
    for r in &rows {
        println!(
            "{:<8} {:>12.3} {:>12.5} {:>6}",
            format!("{:?}", r.aggr),
            r.seen.mre_percent(),
            r.seen.mse,
            r.seen.n
        );
    }
    println!();
}

fn run_device_generalization(quick: bool) {
    let scale = scale_of(quick);
    let rows = occu_core::experiments::device_generalization(scale, 50);
    println!("== Extensible-device generalization (train: A100 + P40) ==");
    println!("{:<12} {:<8} {:>10} {:>12} {:>6}", "device", "split", "MRE(%)", "MSE", "n");
    for r in &rows {
        println!(
            "{:<12} {:<8} {:>10.3} {:>12.5} {:>6}",
            r.device,
            if r.seen_device { "seen" } else { "unseen" },
            r.result.mre_percent(),
            r.result.mse,
            r.result.n
        );
    }
    println!();
}

/// Applies `--log-level` / `--trace-out` / `--metrics-out`; returns
/// the output paths for [`finish_obs`].
fn init_obs(args: &[String]) -> Result<(Option<String>, Option<String>), CliError> {
    if let Some(level) = flag_value(args, "--log-level")? {
        occu_obs::set_level_from_str(level).map_err(|e| OccuError::config("--log-level", e))?;
    }
    let trace = flag_value(args, "--trace-out")?.map(String::from);
    let metrics = flag_value(args, "--metrics-out")?.map(String::from);
    if trace.is_some() || metrics.is_some() {
        occu_obs::enable();
    }
    Ok((trace, metrics))
}

/// Drains the recorded spans/metrics into the requested files.
fn finish_obs(trace: Option<String>, metrics: Option<String>) -> Result<(), OccuError> {
    if trace.is_none() && metrics.is_none() {
        return Ok(());
    }
    let spans = occu_obs::take_spans();
    let snapshot = occu_obs::metrics_snapshot();
    if let Some(path) = trace {
        std::fs::write(&path, occu_obs::spans_to_jsonl(&spans)).io_context(&*path)?;
        occu_obs::info!("wrote {} spans to {path}", spans.len());
    }
    if let Some(path) = metrics {
        std::fs::write(&path, snapshot.to_json()).io_context(&*path)?;
        occu_obs::info!("wrote {} metrics to {path}", snapshot.entries.len());
    }
    occu_obs::info!("{}", occu_obs::render_summary(&spans, &snapshot));
    Ok(())
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: repro [fig2|fig4|fig5|fig45|fig6|fig7|table4|table5|table6|ablation|aggr|device-gen|all] [--quick] [--device <name-or-json>]");
    eprintln!("observability: --trace-out spans.jsonl --metrics-out metrics.json --log-level info");
    std::process::exit(2);
}

fn try_main(cmd: &str, quick: bool, args: &[String]) -> Result<(), CliError> {
    let (trace_out, metrics_out) = init_obs(args)?;
    match cmd {
        "fig2" => run_fig2(),
        "fig4" => run_fig4(quick, args)?,
        "fig5" => run_fig5(quick, args)?,
        "fig45" => run_fig45(quick, args)?,
        "fig6" => run_fig6(),
        "fig7" => run_fig7(quick),
        "table4" => run_table4(quick, args)?,
        "table5" => run_table5(quick, args)?,
        "table6" => run_table6(quick),
        "ablation" => run_ablation(quick),
        "aggr" => run_aggr(quick),
        "device-gen" => run_device_generalization(quick),
        "all" => {
            run_fig2();
            run_fig6();
            run_fig7(quick);
            // Fig. 4 and Fig. 5 share one trained suite per device.
            let scale = scale_of(quick);
            for dev in DeviceSpec::paper_devices() {
                let art = occu_core::experiments::prepare_comparison(&dev, scale, 42);
                println!("{}", report::render_fig4(&occu_core::experiments::fig4_from(&art)));
                let (nodes, edges) = occu_core::experiments::fig5_from(&art);
                println!("{}", report::render_fig5(&dev.name, &nodes, &edges));
            }
            run_table4(quick, args)?;
            run_table5(quick, args)?;
            run_table6(quick);
            run_ablation(quick);
            run_aggr(quick);
            run_device_generalization(quick);
        }
        other => return Err(CliError::Usage(format!("unknown experiment '{other}'"))),
    }
    finish_obs(trace_out, metrics_out)?;
    Ok(())
}

/// Flags that take a value; their values are excluded from
/// subcommand detection. `--quick` is the only switch.
const VALUE_FLAGS: &[&str] = &["--device", "--trace-out", "--metrics-out", "--log-level"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut positional = None;
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
        } else if a.starts_with("--") && a != "--quick" {
            usage_exit(&format!("unknown flag {a}"));
        } else if !a.starts_with("--") && positional.is_none() {
            positional = Some(a.as_str());
        }
    }
    let cmd = positional.unwrap_or("all");
    if let Err(e) = try_main(cmd, quick, &args) {
        match e {
            CliError::Usage(msg) => usage_exit(&msg),
            CliError::Pipeline(err) => {
                eprintln!("error: {err}");
                std::process::exit(err.exit_code());
            }
        }
    }
}
