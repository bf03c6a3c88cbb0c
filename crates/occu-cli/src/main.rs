//! `occu` — the DNN-occu command line.
//!
//! ```text
//! occu models                                    # list the model zoo
//! occu devices                                   # list built-in GPUs
//! occu profile  --model ResNet-50 --batch 32 --device a100 [--training] [--kernels] [--json]
//! occu train    --out model.json --device a100 --configs 8 --epochs 50 --workers 0
//! occu predict  --weights model.json --model ResNet-50 --batch 32 --device a100 [--json]
//! occu schedule --jobs 24 --gpus 4 [--weights model.json] [--trace jobs.csv] [--seed 1]
//! occu serve    --weights model.json --port 7071 --threads 4 [--precision int8]   # cached HTTP server
//! occu serve    --model a=x.json --model b=y.json --rate b=200 --weight b=3 --precision b=int8   # multi-model fleet
//! ```
//!
//! `--device` accepts a built-in name (`a100`) or a path to a device
//! spec JSON. Every command additionally accepts `--trace-out
//! <spans.jsonl>`, `--metrics-out <metrics.json>`, and `--log-level
//! <level>`; `train` writes a `<out stem>.manifest.json` run manifest
//! next to the model.
//!
//! ## Exit codes
//!
//! Usage mistakes (unknown command, a flag the command does not
//! accept, missing value) exit 2 with the usage text. Pipeline
//! failures print one `error:` line — no backtrace — and exit with the
//! [`OccuError`] code for the failure class: 3 io, 4 parse, 5 shape,
//! 6 config, 7 data.

#![warn(clippy::unwrap_used)]

mod args;

use args::{Args, Spec};
use occu_core::dataset::{make_sample, Dataset, SEEN_MODELS};
use occu_core::experiments::ExperimentScale;
use occu_core::features::featurize;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::{OccuPredictor, Parallelism, TrainConfig, Trainer};
use occu_error::{ErrContext, IoContext, OccuError};
use occu_gpusim::{profile_graph, DeviceSpec};
use occu_graph::to_training_graph;
use occu_models::{ModelConfig, ModelId};
use occu_sched::{simulate, GpuSpec, PackingPolicy};

/// A CLI failure: either the user misused the command line (exit 2,
/// usage text) or the pipeline rejected the inputs (typed exit code,
/// single `error:` line).
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

/// The flags each subcommand accepts, besides [`args::COMMON_FLAGS`].
fn flag_spec(command: &str) -> Option<Spec> {
    let (flags, switches): (&'static [&'static str], &'static [&'static str]) = match command {
        "models" | "devices" => (&[], &[]),
        "profile" => (&["model", "batch", "channels", "seq", "device"], &["training", "kernels", "json"]),
        "train" => (
            &["out", "device", "configs", "epochs", "hidden", "seed", "workers", "test-fraction"],
            &["quiet"],
        ),
        "predict" => (&["weights", "model", "batch", "channels", "seq", "device"], &["json"]),
        "schedule" => (&["jobs", "gpus", "seed", "device", "weights", "trace", "save-trace"], &[]),
        "serve" => (
            &[
                "weights", "model", "weight", "rate", "precision", "addr", "port", "threads",
                "queue", "cache", "slo-us", "recorder",
            ],
            &[],
        ),
        _ => return None,
    };
    Some(Spec { flags, switches })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1), flag_spec) {
        Ok(a) => a,
        Err(e) => die_usage(&e),
    };
    if let Err(e) = run(&args) {
        match e {
            CliError::Usage(msg) => die_usage(&msg),
            CliError::Pipeline(err) => {
                eprintln!("error: {err}");
                std::process::exit(err.exit_code());
            }
        }
    }
}

fn run(args: &Args) -> Result<(), CliError> {
    let obs = ObsSession::init(args)?;
    match args.command.as_deref() {
        Some("models") => cmd_models(),
        Some("devices") => cmd_devices(),
        Some("profile") => cmd_profile(args),
        Some("train") => cmd_train(args),
        Some("predict") => cmd_predict(args),
        Some("schedule") => cmd_schedule(args),
        Some("serve") => cmd_serve(args),
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
        None => Err(CliError::Usage("no command given".to_string())),
    }?;
    obs.finish()
}

fn die_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("usage: occu <models|devices|profile|train|predict|schedule|serve> [flags]");
    eprintln!("  occu profile  --model ResNet-50 --batch 32 --device a100 [--training] [--kernels] [--json]");
    eprintln!("  occu train    [--out model.json] [--device a100] [--configs 8] [--epochs 50] [--hidden 32] [--workers 0] [--test-fraction 0.2]");
    eprintln!("  occu predict  --weights model.json --model ResNet-50 [--batch 32] [--device a100] [--json]");
    eprintln!("  occu schedule [--jobs 24] [--gpus 4] [--weights model.json] [--trace jobs.csv] [--save-trace jobs.csv] [--seed 1]");
    eprintln!("  occu serve    --weights model.json [--addr 127.0.0.1] [--port 7071] [--threads 4] [--queue 128] [--cache 12288] [--slo-us 5000] [--recorder 256] [--precision f32|int8]");
    eprintln!("  occu serve    --model a=x.json --model b=y.json [--weight b=3] [--rate b=200] [--precision b=int8] ...   # multi-model fleet (repeatable)");
    eprintln!("--device takes a built-in name or a device-spec JSON path");
    eprintln!("observability (any command): --trace-out spans.jsonl --metrics-out metrics.json --log-level info");
    std::process::exit(2);
}

/// Observability lifecycle for one CLI invocation: `--trace-out` /
/// `--metrics-out` switch recording on; at exit the span timeline and
/// metrics snapshot are written and a summary goes to stderr.
/// `--log-level <error|warn|info|debug|trace>` gates progress lines
/// independently (default `info` keeps the historical output).
struct ObsSession {
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl ObsSession {
    fn init(args: &Args) -> Result<Self, CliError> {
        if let Some(level) = args.get("log-level") {
            occu_obs::set_level_from_str(level)
                .map_err(|e| OccuError::config("--log-level", e))?;
        }
        let session = Self {
            trace_out: args.get("trace-out").map(String::from),
            metrics_out: args.get("metrics-out").map(String::from),
        };
        if session.active() {
            occu_obs::enable();
        }
        Ok(session)
    }

    fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    fn finish(self) -> Result<(), CliError> {
        if !self.active() {
            return Ok(());
        }
        let spans = occu_obs::take_spans();
        let snapshot = occu_obs::metrics_snapshot();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, occu_obs::spans_to_jsonl(&spans)).io_context(path)?;
            occu_obs::info!("wrote {} spans to {path}", spans.len());
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, snapshot.to_json()).io_context(path)?;
            occu_obs::info!("wrote {} metrics to {path}", snapshot.entries.len());
        }
        occu_obs::info!("{}", occu_obs::render_summary(&spans, &snapshot));
        Ok(())
    }
}

/// `--device` resolution: a built-in name, or a path to a device spec
/// JSON (missing file → `Io`, corrupt → `Parse`, impossible → `Config`).
fn lookup_device(args: &Args) -> Result<DeviceSpec, CliError> {
    Ok(DeviceSpec::resolve(args.get_or("device", "a100"))?)
}

fn lookup_model(args: &Args) -> Result<ModelId, String> {
    let name = args.require("model")?;
    ModelId::from_name(name).ok_or_else(|| format!("unknown model '{name}' (see `occu models`)"))
}

fn config_from(args: &Args, model: ModelId) -> Result<ModelConfig, String> {
    let mut cfg = model.default_config();
    cfg.batch_size = args.usize_or("batch", cfg.batch_size)?;
    cfg.input_channels = args.usize_or("channels", cfg.input_channels)?;
    if let Ok(seq) = args.usize_or("seq", cfg.seq_len.max(1)) {
        if cfg.seq_len > 0 || args.require("seq").is_ok() {
            cfg.seq_len = seq;
        }
    }
    Ok(cfg)
}

fn cmd_models() -> Result<(), CliError> {
    println!("{:<16} {:>12} {:>10} {:>10}", "model", "family", "nodes*", "edges*");
    for &m in ModelId::ALL {
        let cfg = ModelConfig { batch_size: 8, ..m.default_config() };
        let g = m.build(&cfg);
        println!(
            "{:<16} {:>12} {:>10} {:>10}",
            m.name(),
            format!("{:?}", m.family()),
            g.num_nodes(),
            g.num_edges()
        );
    }
    println!("* at batch 8 with family-default configuration");
    Ok(())
}

fn cmd_devices() -> Result<(), CliError> {
    println!(
        "{:<12} {:<8} {:>5} {:>10} {:>12} {:>9}",
        "device", "arch", "SMs", "GFLOPS", "BW (GB/s)", "mem(GiB)"
    );
    for d in DeviceSpec::all_devices() {
        println!(
            "{:<12} {:<8} {:>5} {:>10.0} {:>12.0} {:>9.1}",
            d.name, d.arch, d.sm_count, d.fp32_gflops, d.mem_bandwidth_gbps, d.memory_gib
        );
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let model = lookup_model(args)?;
    let device = lookup_device(args)?;
    let cfg = config_from(args, model)?;
    let mut graph = model.build(&cfg);
    if args.has("training") {
        graph = to_training_graph(&graph);
    }
    let rep = profile_graph(&graph, &device);
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&rep).expect("report serializes"));
        return Ok(());
    }
    println!(
        "{} @ batch {} on {}{}",
        model.name(),
        cfg.batch_size,
        device.name,
        if args.has("training") { " (training)" } else { "" }
    );
    println!(
        "  graph: {} nodes, {} edges, {:.2} GFLOPs",
        graph.num_nodes(),
        graph.num_edges(),
        graph.total_flops() as f64 / 1e9
    );
    println!(
        "  occupancy {:.2}% (min {:.2}% / max {:.2}%) | NVML util {:.2}%",
        rep.mean_occupancy * 100.0,
        rep.min_occupancy * 100.0,
        rep.max_occupancy * 100.0,
        rep.nvml_utilization * 100.0
    );
    println!(
        "  {} kernels | {:.3} ms busy / {:.3} ms wall per iteration | {:.2} GiB est. memory",
        rep.kernels.len(),
        rep.busy_us / 1e3,
        rep.wall_us / 1e3,
        rep.memory_bytes as f64 / (1u64 << 30) as f64
    );
    println!("  by kernel family:");
    for (family, us, occ, n) in rep.category_summary() {
        println!(
            "    {:<16} {:>9.1} us ({:>3} launches), occupancy {:>6.2}%",
            family,
            us,
            n,
            occ * 100.0
        );
    }
    if args.has("kernels") {
        println!("  kernels:");
        for k in &rep.kernels {
            println!(
                "    {:<48} {:>9.2} us  occ {:>6.2}%  grid {:>8} x {:<4}",
                k.name,
                k.duration_us,
                k.occupancy * 100.0,
                k.grid_blocks,
                k.block_threads
            );
        }
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let started = std::time::Instant::now();
    let device = lookup_device(args)?;
    let out = args.get_or("out", "model.json").to_string();
    let configs = args.usize_or("configs", 8)?;
    let epochs = args.usize_or("epochs", 50)?;
    let hidden = args.usize_or("hidden", ExperimentScale::full().hidden)?;
    let seed = args.usize_or("seed", 42)? as u64;
    // 0 = auto-detect cores. Trained parameters are identical for any
    // worker count, so this only affects wall-clock time.
    let workers = args.usize_or("workers", 0)?;
    let test_fraction = args.f64_or("test-fraction", 0.2)?;

    occu_obs::info!(
        "generating {} configurations x {} models on {}...",
        configs,
        SEEN_MODELS.len(),
        device.name
    );
    let data = Dataset::generate(&SEEN_MODELS, configs, &device, seed);
    let (train, test) = data.split(test_fraction)?;
    let mut model = DnnOccu::new(DnnOccuConfig { hidden, ..DnnOccuConfig::fast() }, seed);
    occu_obs::info!(
        "training DNN-occu ({} parameters) on {} samples for {} epochs...",
        model.num_parameters(),
        train.len(),
        epochs
    );
    let trainer = Trainer::new(TrainConfig {
        epochs,
        log_every: if args.has("quiet") { 0 } else { 10 },
        parallelism: Parallelism { workers },
        ..Default::default()
    });
    let history = trainer.fit(&mut model, &train)?;
    let eval = model.evaluate(&test);
    occu_obs::info!("held-out: {eval}");
    std::fs::write(&out, model.to_json()).io_context(&*out)?;
    occu_obs::info!("saved model to {out}");

    let mut manifest = occu_obs::RunManifest::new("occu train")
        .with_config("device", &device.name)
        .with_config("configs", configs)
        .with_config("epochs", epochs)
        .with_config("hidden", hidden)
        .with_config("workers", workers)
        .with_config("train_samples", train.len())
        .with_config("test_samples", test.len())
        .with_config("parameters", model.num_parameters())
        .with_metric("heldout_mre", f64::from(eval.mre))
        .with_metric("heldout_mse", f64::from(eval.mse));
    if let Some(last) = history.last() {
        manifest = manifest.with_metric("final_train_loss", f64::from(last.train_loss));
    }
    manifest.seed = seed;
    manifest.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    manifest.artifacts = vec![out.clone()];
    if occu_obs::enabled() {
        manifest.metrics = Some(occu_obs::metrics_snapshot());
    }
    let manifest_path = manifest
        .write_next_to(std::path::Path::new(&out))
        .io_context("run manifest")?;
    occu_obs::info!("wrote run manifest to {}", manifest_path.display());
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), CliError> {
    let weights = args.require("weights")?;
    let json = std::fs::read_to_string(weights).io_context(weights)?;
    let predictor = DnnOccu::from_json(&json).err_context(weights)?;
    let model = lookup_model(args)?;
    let device = lookup_device(args)?;
    let cfg = config_from(args, model)?;
    let graph = model.build(&cfg);
    let feats = featurize(&graph, &device);
    // The compiled plan, as the server runs it (bitwise-equal to the
    // tape interpreter at f32).
    let predicted = predictor.compile_plan_for(&feats).predict(&feats);
    if args.has("json") {
        println!(
            "{}",
            serde_json::json!({
                "model": model.name(),
                "device": device.name,
                "batch_size": cfg.batch_size,
                "predicted_occupancy": predicted,
            })
        );
    } else {
        println!(
            "{} @ batch {} on {}: predicted GPU occupancy {:.2}%",
            model.name(),
            cfg.batch_size,
            device.name,
            predicted * 100.0
        );
    }
    Ok(())
}

/// Splits one `name=value` occurrence of a repeatable flag.
fn name_value<'a>(flag: &str, spec: &'a str) -> Result<(&'a str, &'a str), CliError> {
    spec.split_once('=')
        .filter(|(name, value)| !name.is_empty() && !value.is_empty())
        .ok_or_else(|| CliError::Usage(format!("--{flag} expects name=value, got '{spec}'")))
}

/// Parses one `--precision` value (the part after `name=`, or the
/// whole global value).
fn parse_precision(value: &str) -> Result<occu_serve::Precision, CliError> {
    occu_serve::Precision::parse(value).ok_or_else(|| {
        CliError::Usage(format!("--precision: unknown precision '{value}' (f32, int8)"))
    })
}

/// Builds the model fleet from the command line: either the classic
/// single `--weights model.json` (served as tenant `default`) or one
/// or more `--model name=path` entries, with optional per-tenant
/// `--weight name=N` fair-share weights, `--rate name=RPS` token
/// buckets, and `--precision [name=]f32|int8` plan lowering (bare
/// value = every tenant, `name=value` = that tenant; per-tenant wins).
/// The first `--model` is the default tenant for requests that do not
/// name one.
fn build_fleet(args: &Args) -> Result<std::sync::Arc<occu_serve::FleetRegistry>, CliError> {
    let mut global_precision = occu_serve::Precision::F32;
    let mut precisions = std::collections::BTreeMap::new();
    for spec in args.get_all("precision") {
        match spec.split_once('=') {
            Some((name, value)) if !name.is_empty() && !value.is_empty() => {
                precisions.insert(name.to_string(), parse_precision(value)?);
            }
            Some(_) => {
                return Err(CliError::Usage(format!(
                    "--precision expects f32|int8 or name=value, got '{spec}'"
                )))
            }
            None => global_precision = parse_precision(spec)?,
        }
    }
    let model_flags = args.get_all("model");
    if model_flags.is_empty() {
        let weights = args.require("weights")?;
        if !args.get_all("rate").is_empty() || !args.get_all("weight").is_empty() {
            return Err(CliError::Usage(
                "--rate/--weight need named tenants; use --model name=path".to_string(),
            ));
        }
        if !precisions.is_empty() {
            return Err(CliError::Usage(
                "per-tenant --precision name=value needs named tenants; use --model name=path"
                    .to_string(),
            ));
        }
        let registry = std::sync::Arc::new(occu_serve::ModelRegistry::load(weights)?);
        return Ok(occu_serve::FleetRegistry::builder()
            .model_with_precision("default", registry, 1, None, global_precision)
            .build()?);
    }
    if args.get("weights").is_some() {
        return Err(CliError::Usage(
            "give either --weights (single model) or --model name=path (fleet), not both"
                .to_string(),
        ));
    }
    let mut rates = std::collections::BTreeMap::new();
    for spec in args.get_all("rate") {
        let (name, value) = name_value("rate", spec)?;
        let rps: f64 = value
            .parse()
            .map_err(|_| CliError::Usage(format!("--rate {name}: '{value}' is not a number")))?;
        rates.insert(name.to_string(), rps);
    }
    let mut weights_by_name = std::collections::BTreeMap::new();
    for spec in args.get_all("weight") {
        let (name, value) = name_value("weight", spec)?;
        let w: u32 = value
            .parse()
            .map_err(|_| CliError::Usage(format!("--weight {name}: '{value}' is not an integer")))?;
        weights_by_name.insert(name.to_string(), w);
    }
    let mut builder = occu_serve::FleetRegistry::builder();
    let mut names = Vec::with_capacity(model_flags.len());
    for spec in model_flags {
        let (name, path) = name_value("model", spec)?;
        let registry = std::sync::Arc::new(occu_serve::ModelRegistry::load(path)?);
        builder = builder.model_with_precision(
            name,
            registry,
            weights_by_name.get(name).copied().unwrap_or(1),
            rates.get(name).copied(),
            precisions.get(name).copied().unwrap_or(global_precision),
        );
        names.push(name.to_string());
    }
    // A --rate/--weight/--precision naming a tenant that was never
    // registered is a silent no-op otherwise; fail loudly.
    for name in rates.keys().chain(weights_by_name.keys()).chain(precisions.keys()) {
        if !names.iter().any(|n| n == name) {
            return Err(CliError::Usage(format!(
                "--rate/--weight/--precision references unknown model '{name}' (registered: {})",
                names.join(", ")
            )));
        }
    }
    Ok(builder.build()?)
}

/// `occu serve` — runs the cached multi-model prediction
/// server until SIGTERM/SIGINT, then drains in-flight work
/// and reports counters.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let defaults = occu_serve::ServeConfig::default();
    let cfg = occu_serve::ServeConfig {
        addr: format!(
            "{}:{}",
            args.get_or("addr", "127.0.0.1"),
            args.usize_or("port", 7071)?
        ),
        workers: args.usize_or("threads", defaults.workers)?,
        queue_cap: args.usize_or("queue", defaults.queue_cap)?,
        cache_cap: args.usize_or("cache", defaults.cache_cap)?,
        slo_us: args.f64_or("slo-us", defaults.slo_us)?,
        recorder_cap: args.usize_or("recorder", defaults.recorder_cap)?,
        ..defaults
    };
    let fleet = build_fleet(args)?;
    let resident: Vec<String> = fleet
        .slots()
        .iter()
        .map(|s| format!("{}={}", s.name, s.registry.current().path.display()))
        .collect();
    occu_serve::signal::install();
    let server = occu_serve::Server::start_fleet(cfg, fleet)?;
    occu_obs::info!(
        "serving predictions on http://{} ({}); POST /predict, /predict_batch, /reload; GET /healthz, /metrics, /debug/{{statusz,tracez,varz}}",
        server.local_addr(),
        resident.join(", ")
    );
    while !occu_serve::signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    occu_obs::info!("shutdown requested; draining in-flight requests...");
    let stats = server.shutdown();
    occu_obs::info!(
        "drained: {} requests ({} errors, {} rejected, {} throttled, {} reloads), cache {:.1}% hit rate",
        stats.requests,
        stats.errors,
        stats.rejected,
        stats.throttled,
        stats.reloads,
        stats.cache.hit_rate() * 100.0
    );
    Ok(())
}

fn cmd_schedule(args: &Args) -> Result<(), CliError> {
    let n_jobs = args.usize_or("jobs", 24)?;
    let gpus = args.usize_or("gpus", 4)?;
    let seed = args.usize_or("seed", 1)? as u64;
    let device = lookup_device(args)?;

    // Optional trained predictor for the scheduler-visible occupancy.
    let predictor = match args.get("weights") {
        Some(path) => {
            let json = std::fs::read_to_string(path).io_context(path)?;
            Some(DnnOccu::from_json(&json).err_context(path)?)
        }
        None => None,
    };

    // `--trace jobs.csv` replays a saved workload instead of
    // generating one; a corrupt or impossible trace fails loudly here.
    let jobs: Vec<occu_sched::Job> = if let Some(path) = args.get("trace") {
        let jobs = occu_sched::load_trace(path)?;
        occu_obs::info!("loaded {} jobs from {path}", jobs.len());
        jobs
    } else {
        occu_obs::info!("profiling a {n_jobs}-job workload mix on {}...", device.name);
        let mut rng = occu_tensor::SeededRng::new(seed);
        (0..n_jobs)
            .map(|id| {
                let model = ModelId::ALL[rng.index(ModelId::ALL.len())];
                let mut cfg = occu_models::sample_config(model.family(), &mut rng);
                if model.family() != occu_graph::ModelFamily::Rnn {
                    cfg.batch_size = cfg.batch_size.min(64);
                }
                cfg.seq_len = cfg.seq_len.clamp(16, 64).max(16);
                let s = make_sample(model, cfg, &device);
                let iters = rng.int_range(200, 2000) as f64;
                let predicted = match &predictor {
                    Some(p) => f64::from(p.predict(&s.features)).clamp(0.0, 1.0),
                    None => f64::from(s.occupancy),
                };
                occu_sched::Job {
                    id,
                    name: format!("{}-b{}", s.model_name, cfg.batch_size),
                    true_occupancy: f64::from(s.occupancy),
                    predicted_occupancy: predicted,
                    nvml_utilization: f64::from(s.nvml_utilization),
                    work_us: s.busy_us * iters,
                    memory_bytes: s.memory_bytes,
                    arrival_us: 0.0,
                }
            })
            .collect()
    };
    if let Some(path) = args.get("save-trace") {
        occu_sched::save_trace(path, &jobs)?;
        occu_obs::info!("saved {} jobs to {path}", jobs.len());
    }

    let cluster: Vec<GpuSpec> = (0..gpus)
        .map(|_| GpuSpec { memory_bytes: device.memory_bytes(), name: device.name.clone() })
        .collect();
    println!(
        "{:<20} {:>13} {:>14} {:>14} {:>10}",
        "strategy", "makespan(s)", "mean JCT(s)", "nvml-util(%)", "max coloc"
    );
    for policy in PackingPolicy::table6() {
        let res = simulate(&jobs, &cluster, policy);
        println!(
            "{:<20} {:>13.2} {:>14.2} {:>14.2} {:>10}",
            policy.name(),
            res.makespan_us / 1e6,
            res.mean_jct_us / 1e6,
            res.avg_nvml_utilization * 100.0,
            res.max_colocation
        );
    }
    Ok(())
}
