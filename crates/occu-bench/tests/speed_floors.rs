//! The constant speed floors, one opt-in test per floor.
//!
//! ```text
//! cargo test --release -p occu-bench --test speed_floors -- --ignored --nocapture
//! OCCU_FORCE_SCALAR=1 cargo test --release -p occu-bench --test speed_floors -- --ignored --nocapture
//! ```
//!
//! Every floor times two sides, A and B, alternately, so host drift
//! hits both alike, until at least [`MIN_WALL`] and [`MIN_ROUNDS`]
//! rounds have run; it reads the median of the per-round ratios and
//! prints one line with that reading. A shared lock keeps the floors
//! from timing each other. They are `#[ignore]`d because their
//! constants hold only on a quiet host with the stated SIMD units;
//! correctness never rests on them (the exactness checks are tier-1
//! tests), and perfbench tracks the same layers against the parent
//! commit.

use occu_core::dataset::{make_sample, Dataset, SEEN_MODELS};
use occu_core::experiments::ExperimentScale;
use occu_core::features::{EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM};
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::{OccuPredictor, TrainConfig, Trainer};
use occu_core::{FeaturizedGraph, Precision};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use occu_serve::{ModelRegistry, ServeConfig, Server};
use occu_tensor::{Isa, Matrix, QuantIsa, SeededRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Blocked GEMM must not lose to the naive oracle at or above this
/// many multiply-adds.
const BLOCKED_MIN_MULADDS: usize = 64 * 64 * 64;
/// Dispatched AVX kernel over the forced-scalar blocked kernel at
/// `cube:256`.
const SIMD_MIN_SPEEDUP: f64 = 2.0;
/// Compiled plan over the tape interpreter, zoo-wide.
const PLAN_MIN_SPEEDUP: f64 = 1.15;
/// int8 plans over f32 plans, zoo-wide at paper width.
const INT8_MIN_SPEEDUP: f64 = 1.5;
/// A fit with spans and metrics on, over the same fit with them off.
const FIT_OBS_MAX_FACTOR: f64 = 3.0;
/// A server with request telemetry on, over the same server with it off.
const SERVE_TELEMETRY_MAX_FACTOR: f64 = 1.05;
/// Largest gap between the sum of the stage p50s on `/metrics` and the
/// end-to-end p50, as a fraction of the latter.
const SERVE_ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Least wall time a floor keeps alternating for.
const MIN_WALL: Duration = Duration::from_secs(1);
/// Fewest rounds a floor reads, however long one round takes.
const MIN_ROUNDS: usize = 5;

static TIMING: Mutex<()> = Mutex::new(());

fn timing_lock() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `round` until at least [`MIN_WALL`] and [`MIN_ROUNDS`] rounds
/// have passed, prints the median reading with its range, and returns
/// the median.
fn median_of_rounds(floor: &str, mut round: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut readings = Vec::new();
    while readings.len() < MIN_ROUNDS || started.elapsed() < MIN_WALL {
        readings.push(round());
    }
    readings.sort_by(f64::total_cmp);
    let median = readings[readings.len() / 2];
    println!(
        "{floor}: {median:.3} (median of {} rounds, {:.3}..{:.3}; isa {}, int8 {})",
        readings.len(),
        readings[0],
        readings[readings.len() - 1],
        occu_tensor::active_isa().name(),
        occu_tensor::quant_isa().name(),
    );
    median
}

/// Seconds one call of `f` takes.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_secs_f64()
}

/// The GEMM shapes the model multiplies (ANEE projections, Graphormer
/// QKV and FFN, head) on a 48-node, 64-edge graph at the fast and paper
/// widths, plus square reference cubes.
fn gemm_shapes() -> Vec<(String, usize, usize, usize)> {
    let (nodes, edges) = (48, 64);
    let mut shapes = Vec::new();
    for (tag, hidden) in [("fast", DnnOccuConfig::fast().hidden), ("paper", DnnOccuConfig::paper().hidden)] {
        shapes.push((format!("{tag}:anee.w_u"), nodes, NODE_FEAT_DIM, hidden));
        shapes.push((format!("{tag}:anee.w_e"), edges, EDGE_FEAT_DIM, hidden));
        shapes.push((format!("{tag}:anee.w_m"), edges, hidden, hidden));
        shapes.push((format!("{tag}:graphormer.qkv"), nodes, hidden, hidden));
        shapes.push((format!("{tag}:graphormer.ffn1"), nodes, hidden, 2 * hidden));
        shapes.push((format!("{tag}:head.l0"), 1, hidden + GLOBAL_FEAT_DIM, 2 * hidden));
    }
    for side in [64, 128, 256] {
        shapes.push((format!("cube:{side}"), side, side, side));
    }
    shapes
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn blocked_gemm_is_no_slower_than_naive_at_64_cubed_and_up() {
    let _lock = timing_lock();
    let mut rng = SeededRng::new(53);
    let mut slow = Vec::new();
    for (label, m, k, n) in gemm_shapes().into_iter().filter(|&(_, m, k, n)| m * k * n >= BLOCKED_MIN_MULADDS) {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let mut out = Matrix::zeros(m, n);
        let speedup = median_of_rounds(&format!("blocked over naive, {label} ({m}x{k}x{n})"), || {
            let naive = secs(|| a.naive_matmul(&b));
            naive / secs(|| a.matmul_into(&b, &mut out))
        });
        if speedup < 1.0 {
            slow.push(format!("{label}: {speedup:.3}x"));
        }
    }
    assert!(slow.is_empty(), "blocked GEMM slower than naive: {slow:?}");
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn simd_gemm_is_twice_the_scalar_kernel_at_cube_256() {
    let _lock = timing_lock();
    let isa = occu_tensor::active_isa();
    if !matches!(isa, Isa::Avx2 | Isa::Avx512) {
        println!("simd over scalar, cube:256: exempt, no AVX kernel dispatched (isa {})", isa.name());
        return;
    }
    let mut rng = SeededRng::new(53);
    let a = Matrix::randn(256, 256, 1.0, &mut rng);
    let b = Matrix::randn(256, 256, 1.0, &mut rng);
    let mut out = Matrix::zeros(256, 256);
    let speedup = median_of_rounds("simd over scalar, cube:256", || {
        let scalar = secs(|| a.matmul_into_isa(&b, &mut out, Isa::Scalar));
        scalar / secs(|| a.matmul_into(&b, &mut out))
    });
    assert!(speedup >= SIMD_MIN_SPEEDUP, "{} kernel {speedup:.3}x over scalar, floor {SIMD_MIN_SPEEDUP}x", isa.name());
}

/// Every zoo model's featurized default configuration on the A100.
fn zoo_graphs() -> Vec<FeaturizedGraph> {
    let device = DeviceSpec::a100();
    ModelId::ALL.iter().map(|&id| make_sample(id, id.default_config(), &device).features).collect()
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn compiled_plan_beats_the_tape_by_the_floor() {
    let _lock = timing_lock();
    let model = DnnOccu::new(DnnOccuConfig::fast(), 54);
    let cases: Vec<_> = zoo_graphs().into_iter().map(|fg| (model.compile_plan_for(&fg), fg)).collect();
    // One round is one zoo pass, one tape call then one plan call per model.
    let speedup = median_of_rounds("plan over tape, zoo pass", || {
        let (mut tape, mut plan) = (0.0, 0.0);
        for (compiled, fg) in &cases {
            tape += secs(|| model.predict_target(fg));
            plan += secs(|| compiled.predict_target(fg));
        }
        tape / plan
    });
    assert!(speedup >= PLAN_MIN_SPEEDUP, "plan {speedup:.3}x over tape, floor {PLAN_MIN_SPEEDUP}x");
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn int8_plans_beat_f32_plans_by_the_floor() {
    let _lock = timing_lock();
    if occu_tensor::quant_isa() == QuantIsa::Scalar {
        println!("int8 over f32, zoo pass: exempt, no SIMD int8 kernel dispatched");
        return;
    }
    // Paper width: at the fast width the GEMMs are too small for the
    // int8 tier to matter.
    let model = DnnOccu::new(DnnOccuConfig::paper(), 55);
    let cases: Vec<_> = zoo_graphs()
        .into_iter()
        .map(|fg| (model.compile_plan_for_with(&fg, Precision::F32), model.compile_plan_for_with(&fg, Precision::Int8), fg))
        .collect();
    let speedup = median_of_rounds("int8 over f32, zoo pass", || {
        let (mut f32_s, mut i8_s) = (0.0, 0.0);
        for (f32_plan, i8_plan, fg) in &cases {
            f32_s += secs(|| f32_plan.predict(fg));
            i8_s += secs(|| i8_plan.predict(fg));
        }
        f32_s / i8_s
    });
    assert!(speedup >= INT8_MIN_SPEEDUP, "int8 {speedup:.3}x over f32, floor {INT8_MIN_SPEEDUP}x");
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn a_fit_with_spans_and_metrics_on_stays_within_the_budget() {
    let _lock = timing_lock();
    let scale = ExperimentScale::full();
    let data = Dataset::generate(&SEEN_MODELS, scale.configs_per_model, &DeviceSpec::a100(), 52);
    let cfg = DnnOccuConfig { hidden: scale.hidden, ..DnnOccuConfig::fast() };
    let fit = |on: bool| {
        if on {
            occu_obs::enable();
        } else {
            occu_obs::disable();
        }
        let mut model = DnnOccu::new(cfg, 52);
        let train = TrainConfig { epochs: scale.epochs, seed: 52, ..TrainConfig::default() };
        let s = secs(|| Trainer::new(train).fit(&mut model, &data).expect("in-tree config"));
        occu_obs::disable();
        occu_obs::take_spans();
        occu_obs::clear_metrics();
        s
    };
    let factor = median_of_rounds("fit with obs on over off", || {
        let off = fit(false);
        fit(true) / off
    });
    assert!(factor <= FIT_OBS_MAX_FACTOR, "obs on costs {factor:.3}x, budget {FIT_OBS_MAX_FACTOR}x");
}

/// Requests per serve pass and the keep-alive clients sending them.
const SERVE_REQUESTS: usize = 20_000;
const SERVE_CLIENTS: usize = 8;

/// The serve passes' working set: 8 named specs, so after one warm-up
/// round every request is a prediction-cache hit and a pass times the
/// request path (parse, lookup, telemetry, write), the part request
/// telemetry instruments.
fn serve_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for model in ["LeNet", "AlexNet"] {
        for batch in [1, 2] {
            for device in ["a100", "v100"] {
                specs.push(format!(r#"{{"model": "{model}", "batch": {batch}, "device": "{device}"}}"#));
            }
        }
    }
    specs
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("set_nodelay");
    BufReader::new(stream)
}

/// One request on a keep-alive connection; panics unless it answers
/// 200, and returns the body.
fn http_ok(conn: &mut BufReader<TcpStream>, method: &str, path: &str, body: &str) -> String {
    let request = format!("{method} {path} HTTP/1.1\r\nHost: floors\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    conn.get_mut().write_all(request.as_bytes()).expect("send request");
    let mut line = String::new();
    conn.read_line(&mut line).expect("read status line");
    assert!(line.starts_with("HTTP/1.1 200"), "{method} {path} {body}: {line}");
    let mut len = 0;
    loop {
        line.clear();
        conn.read_line(&mut line).expect("read header");
        match line.trim_end().split_once(':') {
            Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                len = value.trim().parse().expect("numeric Content-Length");
            }
            Some(_) => {}
            None => break,
        }
    }
    let mut answer = vec![0; len];
    conn.read_exact(&mut answer).expect("read body");
    String::from_utf8_lossy(&answer).into_owned()
}

/// One pass of an in-process server with request telemetry `record`:
/// warm the working set, then [`SERVE_CLIENTS`] keep-alive clients send
/// [`SERVE_REQUESTS`] predictions between them. Returns the pass's
/// seconds and, from the `quantile="0.5"` rows of `/metrics`, the sum
/// of the stage p50s over the end-to-end p50.
fn serve_pass(record: bool) -> (f64, f64) {
    let registry = Arc::new(ModelRegistry::from_model(DnnOccu::new(DnnOccuConfig::fast(), 17), "floors.json"));
    let cfg = ServeConfig { workers: SERVE_CLIENTS, record, ..ServeConfig::default() };
    let server = Server::start(cfg, registry).expect("server start");
    let addr = server.local_addr();
    let specs = serve_specs();
    // A worker serves one connection until it closes, so the warm-up
    // connection is dropped before the clients connect.
    let mut warm = connect(addr);
    for spec in &specs {
        http_ok(&mut warm, "POST", "/predict", spec);
    }
    drop(warm);
    let per_client = SERVE_REQUESTS / SERVE_CLIENTS;
    let seconds = secs(|| {
        std::thread::scope(|s| {
            for c in 0..SERVE_CLIENTS {
                let specs = &specs;
                s.spawn(move || {
                    let mut conn = connect(addr);
                    for i in 0..per_client {
                        http_ok(&mut conn, "POST", "/predict", &specs[(c + i) % specs.len()]);
                    }
                });
            }
        })
    });
    let metrics = http_ok(&mut connect(addr), "GET", "/metrics", "");
    server.shutdown();
    occu_obs::disable();
    occu_obs::take_spans();
    occu_obs::clear_metrics();
    let (mut stage_sum_us, mut total_us) = (0.0, 0.0);
    for (series, value) in metrics.lines().filter_map(|l| l.rsplit_once(' ')) {
        if !series.ends_with(r#"quantile="0.5"}"#) {
            continue;
        }
        let value: f64 = value.parse().expect("numeric sample");
        if series.starts_with("serve_stage_us{") {
            stage_sum_us += value;
        } else if series.starts_with("serve_request_total_us{") {
            total_us = value;
        }
    }
    (seconds, stage_sum_us / total_us)
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn serve_telemetry_stays_within_the_budget() {
    let _lock = timing_lock();
    let factor = median_of_rounds("serve with telemetry on over off", || {
        let off = serve_pass(false).0;
        serve_pass(true).0 / off
    });
    assert!(
        factor <= SERVE_TELEMETRY_MAX_FACTOR,
        "telemetry costs {factor:.3}x, budget {SERVE_TELEMETRY_MAX_FACTOR}x"
    );
}

#[test]
#[ignore = "speed floor: run with --ignored on a quiet host"]
fn serve_stage_p50s_add_up_to_the_end_to_end_p50() {
    let _lock = timing_lock();
    // One side only: a round is one telemetry-on pass.
    let ratio = median_of_rounds("serve stage-sum p50 over total p50", || serve_pass(true).1);
    assert!(
        (ratio - 1.0).abs() <= SERVE_ATTRIBUTION_TOLERANCE,
        "stage p50s sum to {ratio:.3} of the end-to-end p50, band 1 +/- {SERVE_ATTRIBUTION_TOLERANCE}"
    );
}
