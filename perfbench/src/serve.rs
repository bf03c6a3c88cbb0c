//! `serve_cold`: closed-loop scheduler callers against an in-process
//! `occu-serve` with its default configuration.

use crate::http::{self, Conn, Reply, Scrape};
use crate::inputs::{self, ColdGen, Spec};
use crate::layers::{self, Item, Replay};
use crate::quiet::{self, Gate, Slices, Stretch};
use crate::stats;
use crate::trace::Tracer;
use crate::Outcome;
use occu_gpusim::DeviceSpec;
use occu_models::ModelConfig;
use occu_serve::{ModelRegistry, ServeConfig, Server, STAGE_NAMES};
use occu_tensor::SeededRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The timed phase is cut into rounds of this much quiet time, each with
/// fresh caller threads and connections, so fresh thread placement on
/// the cores: many short rounds average over placements rather than
/// ride one.
const ROUND_S: f64 = 0.5;
/// Cold answers re-derived in-process after the timed phase.
const COLD_CHECKS: usize = 32;

/// One closed-loop caller: what it sends next and how it checks the answer.
pub trait Caller: Send {
    /// The next request body; `None` ends this caller's run early.
    fn next_body(&mut self) -> Option<String>;
    fn check(&mut self, reply: &Reply) -> bool;
}

struct ColdCaller {
    gen: ColdGen,
    last: Option<Spec>,
    /// Every answer: spec, occupancy, fingerprint.
    answers: Vec<(Spec, f32, String)>,
}

impl Caller for ColdCaller {
    fn next_body(&mut self) -> Option<String> {
        let spec = self.gen.next_spec();
        self.last = Some(spec);
        Some(spec.body())
    }

    fn check(&mut self, reply: &Reply) -> bool {
        let (Some(spec), Some(occ), Some(fp)) = (
            self.last,
            http::occupancy(&reply.body),
            http::field(&reply.body, "fingerprint"),
        ) else {
            return false;
        };
        self.answers.push((spec, occ, fp.to_string()));
        reply.status == 200 && http::cached(&reply.body) == Some(false)
    }
}

/// What a phase (or one round of it) of closed-loop load produced.
pub struct Phase {
    /// Start and end of every answer that passed its check.
    pub items: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub trace: Option<Tracer>,
}

impl Phase {
    pub fn latencies_us(&self) -> Vec<f64> {
        self.items.iter().map(|(s, e)| (e - s) * 1e6).collect()
    }
}

/// Runs every caller on its own thread and connection until the gate
/// closes or has collected `until_quiet_s` of quiet time; each caller
/// waits for an answer before sending again.
pub fn drive(
    addr: SocketAddr,
    callers: &mut [impl Caller],
    gate: &Gate,
    until_quiet_s: f64,
    traced: bool,
) -> Phase {
    let per_caller: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                s.spawn(move || {
                    let mut p = Phase {
                        items: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        trace: traced.then(|| Tracer::new(gate.t0)),
                    };
                    let mut conn = Conn::open(addr).ok();
                    while !gate.done() && gate.quiet_s() < until_quiet_s {
                        let Some(body) = caller.next_body() else {
                            break;
                        };
                        p.attempted += 1;
                        let start = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(c) => c.send("POST", "/predict", &body),
                            None => Err(std::io::ErrorKind::NotConnected.into()),
                        };
                        let end = Instant::now();
                        match reply {
                            Ok(r) if caller.check(&r) => {
                                p.items.push((gate.at_s(start), gate.at_s(end)));
                                if let Some(tr) = p.trace.as_mut() {
                                    tr.record("client.request", start, end);
                                }
                            }
                            Ok(_) => p.failed += 1,
                            Err(_) => {
                                p.failed += 1;
                                conn = Conn::open(addr).ok();
                            }
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        items: Vec::new(),
        attempted: 0,
        failed: 0,
        trace: traced.then(|| Tracer::new(gate.t0)),
    };
    for p in per_caller {
        phase.items.extend(p.items);
        phase.attempted += p.attempted;
        phase.failed += p.failed;
        if let (Some(all), Some(tr)) = (phase.trace.as_mut(), p.trace) {
            all.merge(tr);
        }
    }
    phase
}

pub fn callers() -> usize {
    stats::nproc().min(2)
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = Conn::open(addr)
        .and_then(|mut c| c.send("GET", "/metrics", ""))
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("scrape /metrics: status {}", reply.status));
    }
    Ok(Scrape::parse(&reply.body))
}

/// An in-process server with the default `ServeConfig`, drained and
/// joined when dropped, on every path out of a run: a `Server` dropped
/// without `shutdown` would wait for its batch collectors forever.
pub struct Running(Option<Server>);

impl Running {
    pub fn start(model: occu_core::DnnOccu) -> Running {
        let registry = Arc::new(ModelRegistry::from_model(model, "perfbench-model"));
        Running(Some(
            Server::start(ServeConfig::default(), registry).expect("in-process server must start"),
        ))
    }

    pub fn server(&self) -> &Server {
        self.0.as_ref().expect("server runs until dropped")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// A started server that has compiled the plan of every zoo model's
/// graph shape: set-up sends one spec per zoo model, split over
/// `callers()` connections.
fn setup() -> Result<Running, String> {
    let server = Running::start(inputs::fixed_model());
    let addr = server.server().local_addr();
    let specs = inputs::cold_warmup();
    let share = specs.len().div_ceil(callers());
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .chunks(share)
            .map(|part| {
                s.spawn(move || -> Result<(), String> {
                    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
                    for spec in part {
                        let r = conn
                            .send("POST", "/predict", &spec.body())
                            .map_err(|e| e.to_string())?;
                        if r.status != 200 {
                            return Err(format!("warm-up {spec:?}: {} {}", r.status, r.body));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })?;
    Ok(server)
}

fn make_callers(seed: u64) -> Vec<ColdCaller> {
    (0..callers())
        .map(|c| ColdCaller {
            gen: ColdGen::new(seed, c, callers()),
            last: None,
            answers: Vec::new(),
        })
        .collect()
}

/// The in-process path a cold answer must match bit for bit.
fn expected(model: &occu_core::DnnOccu, spec: &Spec) -> (f32, String) {
    let cfg = ModelConfig {
        batch_size: spec.batch,
        ..spec.model.default_config()
    };
    let graph = spec.model.build(&cfg);
    let fp = graph.fingerprint().to_hex();
    let dev = DeviceSpec::by_name(spec.device).expect("generated devices are built-ins");
    let fg = occu_core::features::featurize(&graph, &dev);
    (model.compile_plan_for(&fg).predict(&fg), fp)
}

/// Re-derives a seeded sample of cold answers in-process with the
/// server's own weights; returns how many differ in any bit.
fn cold_mismatches(server: &Server, seed: u64, callers: &[ColdCaller]) -> u64 {
    let answers: Vec<&(Spec, f32, String)> = callers.iter().flat_map(|c| &c.answers).collect();
    if answers.is_empty() {
        return 0;
    }
    let loaded = server.fleet().default_slot().registry.current();
    let mut rng = SeededRng::new(seed ^ 0xC4EC);
    let mut bad = 0;
    for _ in 0..COLD_CHECKS.min(answers.len()) {
        let (spec, occ, fp) = answers[rng.index(answers.len())];
        let (want_occ, want_fp) = expected(&loaded.model, spec);
        if occ.to_bits() != want_occ.to_bits() || *fp != want_fp {
            eprintln!("check: {spec:?} served {occ} {fp}, in-process {want_occ} {want_fp}");
            bad += 1;
        }
    }
    bad
}

fn occu_obs_off() {
    // The server turns global metric recording on; the in-process work
    // after it is measured without that recording.
    occu_obs::disable();
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if traced {
        return run_traced(seed, seconds);
    }
    let (setup_s, setup_runs, quiet_setups, server) = quiet::repeat_setup(setup, drop)?;
    let addr = server.server().local_addr();
    let before = scrape(addr)?;
    let mut callers = make_callers(seed);
    let (rounds, slices) = quiet::watched(seconds, Stretch::ToDeadline, |gate| {
        let mut rounds = Vec::new();
        let n = (seconds / ROUND_S).ceil() as usize;
        for r in 1..=n {
            let until = seconds * r as f64 / n as f64;
            // Quiet time comes in whole slices, so it may have passed
            // this round's share already.
            if gate.quiet_s() >= until {
                continue;
            }
            rounds.push(drive(addr, &mut callers, gate, until, false));
            if gate.done() {
                break;
            }
        }
        rounds
    });
    let after = scrape(addr)?;

    let mut attempted = rounds.iter().map(|p| p.attempted).sum();
    let mut failed = rounds.iter().map(|p| p.failed).sum::<u64>()
        + cache_hits(&before, &after)
        + cold_mismatches(server.server(), seed, &callers);
    let (mre, sent, bad) = crate::train::served_unseen_mre_pct(addr)?;
    attempted += sent;
    failed += bad;
    drop(server);
    occu_obs_off();

    let mut out = Outcome::new(attempted, failed);
    end_to_end(&mut out, setup_s, &rounds, &slices, mre)?;
    out.note("setup_runs", setup_runs);
    out.note("quiet_setup_runs", quiet_setups);
    out.note(
        "tensor_kernel_isa",
        after.info("tensor_kernel_isa", "isa").unwrap_or_default(),
    );
    out.note(
        "tensor_quant_isa",
        after.info("tensor_quant_isa", "isa").unwrap_or_default(),
    );
    out.note("callers", callers.len());
    Ok(out)
}

/// `serve_cold` must never be answered from a cache; counts 1 failure
/// if the server's counters say it was.
fn cache_hits(before: &Scrape, after: &Scrape) -> u64 {
    let hits = after.value("serve_cache_hits") - before.value("serve_cache_hits");
    if hits != 0.0 {
        eprintln!("check: {hits} cache hits in the phase");
    }
    u64::from(hits != 0.0)
}

/// The end-to-end metrics of one timed phase, shared by all workloads,
/// from its quiet slices, with one rule for every metric: each pools the
/// items of all rounds. An item counts in the slice where it completed;
/// its latency counts only if it lies wholly in quiet slices.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    rounds: &[Phase],
    slices: &Slices,
    mre_pct: f64,
) -> Result<(), String> {
    let items = rounds.iter().flat_map(|r| r.items.iter().copied());
    let ends: Vec<f64> = items.clone().map(|i| i.1).collect();
    let mut lat: Vec<f64> = items
        .filter(|(s, e)| slices.quiet_span(*s, *e))
        .map(|(s, e)| (e - s) * 1e6)
        .collect();
    let completions = slices.quiet_completions(&ends);
    if lat.is_empty() || completions == 0 {
        return Err("no item succeeded in a quiet slice of the timed phase".into());
    }
    stats::sort(&mut lat);
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "throughput_per_s",
        completions as f64 / slices.quiet_s(),
        "1/s",
    );
    out.metric("latency_p50_ms", stats::percentile(&lat, 0.5) / 1e3, "ms");
    out.metric("latency_p99_ms", stats::percentile(&lat, 0.99) / 1e3, "ms");
    out.metric(
        "cpu_ms_per_item",
        slices.quiet_cpu_s() * 1e3 / completions as f64,
        "ms",
    );
    out.metric("peak_rss_mb", slices.peak_rss_mb(), "MB");
    out.metric(
        "success_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("unseen_mre_pct", mre_pct, "%");
    out.note("rounds", rounds.len());
    out.note("latency_samples", lat.len());
    out.note(
        "latency_p99_supported",
        stats::tail_supported(lat.len(), 0.99),
    );
    out.note("quiet_s", format!("{:.1}", slices.quiet_s()));
    out.note("phase_s", format!("{:.1}", slices.total_s()));
    out.note("quiet_fallback", slices.fallback);
    out.note("host_steal_share", format!("{:.4}", slices.steal()));
    Ok(())
}

/// The workload's inputs, in the order the callers sent them.
fn replay_items(seed: u64) -> impl Iterator<Item = Item> {
    let n = callers();
    let mut gens: Vec<ColdGen> = (0..n).map(|c| ColdGen::new(seed, c, n)).collect();
    let mut turn = 0usize;
    std::iter::from_fn(move || {
        turn += 1;
        let spec = gens[turn % n].next_spec();
        Some(Item {
            model: spec.model,
            cfg: ModelConfig {
                batch_size: spec.batch,
                ..spec.model.default_config()
            },
            device: DeviceSpec::by_name(spec.device).expect("generated devices are built-ins"),
        })
    })
}

/// Server-side per-layer metrics of one phase of load, from `/metrics`
/// scraped before and after it.
pub fn serve_layers(out: &mut Outcome, before: &Scrape, after: &Scrape, phase: &Phase) {
    let delta = |name: &str| after.value(name) - before.value(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (delta("serve_cache_hits"), delta("serve_cache_misses"));
    let (plan_hits, compiles) = (delta("serve_plan_hits"), delta("serve_plan_compiles"));
    out.metric(
        "fleet.result_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    out.metric(
        "fleet.l2_hit_share",
        ratio(delta("serve_l2_hits"), hits),
        "ratio",
    );
    out.metric(
        "fleet.plan_hit_ratio",
        ratio(plan_hits, plan_hits + compiles),
        "ratio",
    );
    out.metric("fleet.throttled", delta("serve_throttled"), "count");
    out.metric("plan.compiles", compiles, "count");
    // Stage means over the phase (the summaries' lifetime sums and
    // counts), so that the stages add up to the server's total; a stage
    // no request ran, such as featurize on cache hits, reads 0.
    for stage in STAGE_NAMES {
        let sum = |s: &Scrape| {
            s.get("serve_stage_us_sum", &[("stage", stage)])
                .unwrap_or(0.0)
        };
        let count = |s: &Scrape| {
            s.get("serve_stage_us_count", &[("stage", stage)])
                .unwrap_or(0.0)
        };
        let mean = ratio(sum(after) - sum(before), count(after) - count(before));
        out.metric(format!("serve.stage.{stage}_us"), mean, "us");
    }
    out.metric(
        "serve.batch_size_mean",
        ratio(
            delta("serve_batch_size_sum"),
            delta("serve_batch_size_count"),
        ),
        "count",
    );
    let mut lat = phase.latencies_us();
    stats::sort(&mut lat);
    let client_p50 = if lat.is_empty() {
        0.0
    } else {
        stats::percentile(&lat, 0.5)
    };
    let server_p50 = after
        .get("serve_request_total_us", &[("quantile", "0.5")])
        .unwrap_or(0.0);
    out.metric("serve.unattributed_us", client_p50 - server_p50, "us");
}

/// Per-layer metrics of an in-process replay.
pub fn replay_layers(out: &mut Outcome, tr: &Tracer, replay: &Replay, overhead: f64) {
    for (metric, span) in [
        ("models.build_us", "models.build"),
        ("graph.fingerprint_us", "graph.fingerprint"),
        ("features.featurize_us", "features.featurize"),
        ("gpusim.profile_us", "gpusim.profile"),
        ("plan.compile_us", "plan.compile"),
        ("plan.execute_us", "plan.execute"),
        ("nn.forward_us", "nn.forward"),
        ("nn.backward_us", "nn.backward"),
    ] {
        out.metric(metric, tr.mean_us(span), "us");
    }
    let quartiles = layers::node_quartiles(&replay.nodes);
    for (q, n) in ["q1", "q2", "q3"].iter().zip(quartiles) {
        let (fwd, tb) = layers::gemm_gflops(n, inputs::HIDDEN);
        out.metric(format!("tensor.gemm_gflops_{q}"), fwd, "GFLOP/s");
        out.metric(format!("tensor.gemm_tb_gflops_{q}"), tb, "GFLOP/s");
        out.note(format!("gemm_nodes_{q}"), n);
    }
    let summary = tr.summary();
    let root = summary.get("replay.item").copied().unwrap_or_default();
    out.metric(
        "replay.residual_us",
        root.self_us / root.calls.max(1) as f64,
        "us",
    );
    out.metric("trace.overhead_ratio", overhead, "ratio");
    for (name, t) in &summary {
        out.note(
            format!("self_us.{name}"),
            format!("{:.1}", t.self_us / t.calls.max(1) as f64),
        );
        out.note(format!("calls.{name}"), t.calls);
    }
}

fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let server = setup()?;
    let addr = server.server().local_addr();
    let before = scrape(addr)?;
    let mut callers = make_callers(seed);
    let u0 = stats::usage();
    let (mut phase, slices) = quiet::watched(seconds / 2.0, Stretch::No, |gate| {
        drive(addr, &mut callers, gate, f64::INFINITY, true)
    });
    let u1 = stats::usage();
    let after = scrape(addr)?;
    let failed = phase.failed
        + cache_hits(&before, &after)
        + cold_mismatches(server.server(), seed, &callers);
    let loaded = server.server().fleet().default_slot().registry.current();
    drop(server);
    occu_obs_off();

    let mut out = Outcome::new(phase.attempted, failed);
    let mut tr = phase.trace.take().expect("traced phase records spans");
    let mut replay = Replay::new(&loaded.model);
    let (replayed, overhead) = layers::replay_for(
        &mut tr,
        &mut replay,
        &mut replay_items(seed),
        Duration::from_secs_f64(seconds / 2.0),
    );
    serve_layers(&mut out, &before, &after, &phase);
    replay_layers(&mut out, &tr, &replay, overhead);
    let served = phase.items.len().max(1) as f64;
    out.metric(
        "rayon.ctx_switches_per_item",
        (u1.ctx_switches - u0.ctx_switches) as f64 / served,
        "count/item",
    );
    // A training quantity: its own fit, so that it means the same on
    // every workload.
    out.metric(
        "train.worker_utilization",
        crate::train::utilization_probe()?,
        "ratio",
    );
    out.note("replayed_items", replayed);
    out.note("served_items", phase.items.len());
    out.note("host_steal_share", format!("{:.4}", slices.steal()));
    out.trace = Some(tr);
    Ok(out)
}
