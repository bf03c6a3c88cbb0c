//! Multi-tenant fleet load generator for `occu-serve`.
//!
//! Boots an in-process server over a fleet of named models and drives
//! Zipf-skewed traffic across (tenant, spec) keys through a
//! concurrency ladder, firing one rolling per-tenant hot-reload at
//! the midpoint of every rung. After the ladder, a throttle phase
//! hammers a rate-limited tenant to prove per-tenant admission
//! isolation: the limited tenant collects `429`s with `Retry-After`
//! while an unlimited tenant sharing the same server sees none.
//!
//! Acceptance gates (`repro fleet`):
//!
//! * zero dropped requests and zero non-429 errors across every rung,
//!   reloads included;
//! * the ladder itself is 429-free (only the throttle phase's limited
//!   tenant is ever throttled);
//! * after each reload the reloaded tenant's predictions match a
//!   local forward pass of the new weights bitwise — a stale compiled
//!   plan cannot hide;
//! * `/debug/statusz` lists every resident model with path, version,
//!   load timestamp, and plan-cache occupancy;
//! * (full runs) aggregate top-rung throughput within 10% of the
//!   single-model `serve_perf.json` baseline at equal concurrency.

use crate::loadgen::Conn;
use crate::zipf::ZipfSampler;
use occu_core::features::featurize;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::OccuPredictor;
use occu_error::{IoContext, OccuError};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use occu_serve::{FleetRegistry, ModelRegistry, ServeConfig, Server};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet load-generation knobs (`repro fleet` flags).
#[derive(Clone, Debug)]
pub struct FleetgenConfig {
    /// Requests per connection per rung (rung total = this × rung
    /// concurrency, matching the single-model loadgen's shape).
    pub base_requests: usize,
    /// Concurrency ladder; each rung reuses the same warm server.
    pub rungs: Vec<usize>,
    /// Zipf exponent over the (tenant, spec) keyspace.
    pub zipf_exponent: f64,
    /// Base seed for the per-thread Zipf streams (`--seed`). Each
    /// client thread derives `seed + rung*64 + thread`, so a rerun
    /// with the same seed replays the exact key sequence.
    pub seed: u64,
    /// Requests per tenant in the throttle phase.
    pub throttle_requests: usize,
    /// Token-bucket rate for the limited tenant, requests/second.
    pub rate_limit_rps: f64,
    /// Single-model baseline (predictions/s) the top rung is compared
    /// against in the report; 0 disables the comparison.
    pub baseline_rps: f64,
}

impl Default for FleetgenConfig {
    fn default() -> Self {
        Self {
            base_requests: 5_000,
            rungs: vec![2, 4, 8],
            zipf_exponent: 1.1,
            seed: 0xF1EE7,
            throttle_requests: 400,
            rate_limit_rps: 50.0,
            baseline_rps: 0.0,
        }
    }
}

/// The machine-readable result (written to `reports/fleet_perf.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetPerfReport {
    /// Resident tenant names, registration order.
    pub models: Vec<String>,
    /// Zipf exponent the keyspace was sampled with.
    pub zipf_exponent: f64,
    /// Base Zipf seed the run used (replay with `--seed` this).
    pub seed: u64,
    /// Single-model baseline used for the ratio (0 = none).
    pub baseline_rps: f64,
    /// One entry per concurrency rung, in run order.
    pub rungs: Vec<FleetRung>,
    /// Top-rung aggregate throughput, predictions/second.
    pub aggregate_rps: f64,
    /// `aggregate_rps / baseline_rps` (0 when no baseline).
    pub baseline_ratio: f64,
    /// Ladder traffic split per tenant.
    pub tenants: Vec<TenantTally>,
    /// Throttle-phase isolation summary.
    pub throttle: ThrottleSummary,
    /// Post-reload predictions that did not match the new weights
    /// bitwise. The gate: stays 0 — stale plans are never served.
    pub stale_serves: u64,
    /// Requests with no response at all, all phases.
    pub total_dropped: u64,
    /// Whether `/debug/statusz` listed every resident model with
    /// path, version, load timestamp, and plan-cache occupancy.
    pub statusz_models_ok: bool,
}

/// One concurrency rung of the ladder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetRung {
    /// Client connections.
    pub concurrency: usize,
    /// Requests sent.
    pub requests: usize,
    /// 200 responses.
    pub ok: usize,
    /// Non-200, non-429 responses.
    pub errors: usize,
    /// 429 responses (must be 0 in the ladder — no tenant here is
    /// rate-limited).
    pub throttled: usize,
    /// Requests with no response.
    pub dropped: usize,
    /// Timed-phase wall clock, seconds.
    pub duration_s: f64,
    /// Completed predictions per second.
    pub throughput_rps: f64,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
    /// Fraction of 200s answered from a prediction cache tier.
    pub cache_hit_rate: f64,
    /// Which tenant was hot-reloaded at the rung midpoint.
    pub reload_tenant: String,
    /// Whether the reload round-trip succeeded.
    pub reload_ok: bool,
    /// Tenant model version after the reload.
    pub version_after: u64,
    /// Whether the post-reload bitwise stale-plan check passed.
    pub stale_check_ok: bool,
}

/// Ladder traffic attribution for one tenant.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TenantTally {
    /// Tenant name.
    pub tenant: String,
    /// Requests sent to the tenant across the ladder.
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 429 responses.
    pub throttled: u64,
    /// Other non-200 responses.
    pub errors: u64,
    /// Share of all ladder requests (Zipf skew made visible).
    pub share: f64,
}

/// Throttle-phase result: the limited tenant must be the *only* one
/// collecting 429s, and every 429 must carry `Retry-After`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThrottleSummary {
    /// The rate-limited tenant.
    pub limited_tenant: String,
    /// Its configured admission rate, requests/second.
    pub rate_rps: f64,
    /// Limited tenant's 200s (the bucket's burst allowance).
    pub limited_ok: u64,
    /// Limited tenant's 429s (must be > 0 under the hammer).
    pub limited_throttled: u64,
    /// Whether every limited-tenant 429 carried a `Retry-After`
    /// header with a positive value.
    pub retry_after_present: bool,
    /// The unlimited tenant driven through the same phase.
    pub unlimited_tenant: String,
    /// Its 429 count (must stay 0 — isolation).
    pub unlimited_throttled: u64,
}

/// One Zipf-ranked key: a tenant index plus the request body.
struct FleetKey {
    tenant: usize,
    spec: String,
}

/// The ladder keyspace: tenants × models × batch × device, ranks
/// alternating tenants so the Zipf head exercises both.
fn build_keyspace(tenants: &[&str]) -> Vec<FleetKey> {
    let mut per_tenant: Vec<Vec<String>> = tenants
        .iter()
        .map(|tenant| {
            let mut specs = Vec::new();
            for model in ["LeNet", "AlexNet"] {
                for batch in [1, 2] {
                    for device in ["a100", "v100"] {
                        specs.push(format!(
                            "{{\"tenant\": \"{tenant}\", \"model\": \"{model}\", \"batch\": {batch}, \"device\": \"{device}\"}}"
                        ));
                    }
                }
            }
            specs
        })
        .collect();
    let mut keys = Vec::new();
    let depth = per_tenant.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..depth {
        for (tenant, specs) in per_tenant.iter_mut().enumerate() {
            if i < specs.len() {
                keys.push(FleetKey { tenant, spec: std::mem::take(&mut specs[i]) });
            }
        }
    }
    keys
}

/// Per-tenant counters inside one client thread.
#[derive(Clone, Copy, Default)]
struct LaneCounts {
    requests: u64,
    ok: u64,
    throttled: u64,
    errors: u64,
}

struct FleetTally {
    ok: usize,
    errors: usize,
    throttled: usize,
    dropped: usize,
    cache_hits: usize,
    latencies_us: Vec<u64>,
    lanes: Vec<LaneCounts>,
}

fn fleet_client(
    addr: String,
    keys: Arc<Vec<FleetKey>>,
    count: usize,
    mut zipf: ZipfSampler,
    n_tenants: usize,
    completed: Arc<AtomicU64>,
) -> FleetTally {
    let mut tally = FleetTally {
        ok: 0,
        errors: 0,
        throttled: 0,
        dropped: 0,
        cache_hits: 0,
        latencies_us: Vec::with_capacity(count),
        lanes: vec![LaneCounts::default(); n_tenants],
    };
    let mut conn = Conn::open(&addr).ok();
    for _ in 0..count {
        let key = &keys[zipf.sample()];
        tally.lanes[key.tenant].requests += 1;
        // One reconnect attempt per request: the server may close an
        // idle keep-alive connection, which is not a dropped request.
        let mut attempt = 0;
        loop {
            if conn.is_none() {
                conn = Conn::open(&addr).ok();
            }
            let Some(c) = conn.as_mut() else {
                tally.dropped += 1;
                break;
            };
            let started = Instant::now();
            match c.post("/predict", &key.spec) {
                Ok((status, body)) => {
                    tally
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                    match status {
                        200 => {
                            tally.ok += 1;
                            tally.lanes[key.tenant].ok += 1;
                            if body.contains("\"cached\":true") {
                                tally.cache_hits += 1;
                            }
                        }
                        429 => {
                            tally.throttled += 1;
                            tally.lanes[key.tenant].throttled += 1;
                        }
                        _ => {
                            tally.errors += 1;
                            tally.lanes[key.tenant].errors += 1;
                        }
                    }
                    break;
                }
                Err(_) => {
                    conn = None;
                    attempt += 1;
                    if attempt > 1 {
                        tally.dropped += 1;
                        break;
                    }
                }
            }
        }
        completed.fetch_add(1, Ordering::Relaxed);
    }
    tally
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Extracts the numeric token following `"field":` from a one-line
/// JSON body. String parsing on purpose: the bitwise stale check
/// compares the exact serialized value, and the hot loop must not pay
/// for a full JSON parse per response.
fn json_number(body: &str, field: &str) -> Option<f64> {
    let rest = body.split(&format!("\"{field}\":")).nth(1)?;
    let token: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    token.parse().ok()
}

/// The local forward pass the post-reload server answer must match
/// bitwise: LeNet at batch 1 on a100, through the given weights.
fn expected_occupancy(model: &DnnOccu) -> f32 {
    let id = ModelId::from_name("LeNet").expect("LeNet is in the zoo");
    let mut cfg = id.default_config();
    cfg.batch_size = 1;
    let graph = id.build(&cfg);
    let device = DeviceSpec::by_name("a100").expect("a100 is built in");
    model.predict(&featurize(&graph, &device))
}

/// Post-reload stale-plan probe: two predictions for the reloaded
/// tenant (the first recomputes under the new version, the second
/// should hit the cache) must both match the new weights bitwise.
/// Returns the number of mismatches (0 = clean).
fn stale_probe(addr: &str, tenant: &str, expected: f32) -> u64 {
    let Ok(mut conn) = Conn::open(addr) else {
        return 2;
    };
    let spec =
        format!("{{\"tenant\": \"{tenant}\", \"model\": \"LeNet\", \"batch\": 1, \"device\": \"a100\"}}");
    let mut mismatches = 0;
    for _ in 0..2 {
        match conn.post("/predict", &spec) {
            Ok((200, body)) => {
                let got = json_number(&body, "predicted_occupancy").map(|v| v as f32);
                if got.map(f32::to_bits) != Some(expected.to_bits()) {
                    mismatches += 1;
                }
            }
            _ => mismatches += 1,
        }
    }
    mismatches
}

/// Checks `/debug/statusz` lists every tenant with the per-model keys
/// the fleet gate requires.
fn statusz_lists_models(addr: &str, tenants: &[&str]) -> bool {
    let Ok(mut conn) = Conn::open(addr) else {
        return false;
    };
    let Ok((200, body)) = conn.get("/debug/statusz") else {
        return false;
    };
    let Ok(parsed) = serde_json::from_str::<serde_json::Value>(&body) else {
        return false;
    };
    let Some(models) = parsed.get("models").and_then(|v| v.as_object()) else {
        return false;
    };
    tenants.iter().all(|tenant| {
        models.get(*tenant).and_then(|m| m.as_object()).is_some_and(|m| {
            ["path", "version", "loaded_at_unix_s", "plan_cached"]
                .iter()
                .all(|key| m.contains_key(*key))
        })
    })
}

/// Runs the fleet load test: boots a 3-tenant in-process server
/// (`alpha`, `beta` unlimited; `gamma` rate-limited), runs the
/// Zipfian concurrency ladder with rolling reloads over alpha/beta,
/// then the throttle phase over gamma.
pub fn run_fleetgen(cfg: &FleetgenConfig) -> Result<FleetPerfReport, OccuError> {
    if cfg.base_requests == 0 || cfg.rungs.is_empty() || cfg.rungs.contains(&0) {
        return Err(OccuError::config(
            "fleetgen",
            "--requests and every ladder rung must be positive",
        ));
    }
    let ladder_tenants = ["alpha", "beta"];
    let all_tenants = ["alpha", "beta", "gamma"];

    let dir = std::env::temp_dir().join(format!("occu_fleetgen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).io_context(dir.display().to_string())?;
    let paths: Vec<PathBuf> = ladder_tenants.iter().map(|t| dir.join(format!("{t}.json"))).collect();
    for (i, path) in paths.iter().enumerate() {
        let model = DnnOccu::new(DnnOccuConfig::fast(), 21 + i as u64);
        std::fs::write(path, model.to_json()).io_context(path.display().to_string())?;
    }

    let top_rung = cfg.rungs.iter().copied().max().unwrap_or(2);
    let fleet = FleetRegistry::builder()
        .model("alpha", Arc::new(ModelRegistry::load(&paths[0])?), 2, None)
        .model("beta", Arc::new(ModelRegistry::load(&paths[1])?), 1, None)
        // gamma shares alpha's initial weights; only its admission
        // policy differs — that is the point of the isolation gate.
        .model("gamma", Arc::new(ModelRegistry::load(&paths[0])?), 1, Some(cfg.rate_limit_rps))
        .build()?;
    let server = Server::start_fleet(
        ServeConfig {
            workers: top_rung.clamp(2, 16),
            ..ServeConfig::default()
        },
        fleet,
    )?;
    let addr = server.local_addr().to_string();

    let keys = Arc::new(build_keyspace(&ladder_tenants));

    // Warm phase: every ladder key once, so rung 1 starts from the
    // cached steady state like the single-model loadgen does.
    {
        let mut warm =
            Conn::open(&addr).map_err(|e| OccuError::io(format!("connect {addr}"), e))?;
        for key in keys.iter() {
            let (status, body) = warm
                .post("/predict", &key.spec)
                .map_err(|e| OccuError::io("warmup request", e))?;
            if status != 200 {
                return Err(OccuError::data(
                    "fleetgen warmup",
                    format!("spec {} answered {status}: {body}", key.spec),
                ));
            }
        }
    }

    let mut rungs = Vec::with_capacity(cfg.rungs.len());
    let mut lane_totals = vec![LaneCounts::default(); ladder_tenants.len()];
    let mut stale_serves = 0u64;
    let mut total_dropped = 0u64;
    for (r, &concurrency) in cfg.rungs.iter().enumerate() {
        let per_thread = cfg.base_requests;
        let total = per_thread * concurrency;
        let reload_tenant = ladder_tenants[r % ladder_tenants.len()];
        let reload_path = paths[r % ladder_tenants.len()].clone();
        let new_model = DnnOccu::new(DnnOccuConfig::fast(), 100 + r as u64);
        // Serialize the reload weights before the clock starts: on a
        // small host this steals enough CPU to skew the rung if it
        // happens while the clients are running.
        let weights_json = new_model.to_json();

        let completed = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let mut handles = Vec::new();
        for t in 0..concurrency {
            let addr = addr.clone();
            let keys = Arc::clone(&keys);
            let completed = Arc::clone(&completed);
            let zipf = ZipfSampler::new(
                keys.len(),
                cfg.zipf_exponent,
                cfg.seed + (r as u64) * 64 + t as u64,
            );
            let n_tenants = ladder_tenants.len();
            handles.push(std::thread::spawn(move || {
                fleet_client(addr, keys, per_thread, zipf, n_tenants, completed)
            }));
        }

        // Rolling reload: at the rung midpoint, swap this rung's
        // tenant to fresh weights and POST the per-tenant /reload.
        let reload_handle = {
            let addr = addr.clone();
            let completed = Arc::clone(&completed);
            let half = (total as u64) / 2;
            let tenant = reload_tenant.to_string();
            std::thread::spawn(move || -> (bool, u64) {
                while completed.load(Ordering::Relaxed) < half {
                    std::thread::sleep(Duration::from_millis(2));
                }
                if std::fs::write(&reload_path, weights_json).is_err() {
                    return (false, 0);
                }
                let Ok(mut conn) = Conn::open(&addr) else {
                    return (false, 0);
                };
                match conn.post("/reload", &format!("{{\"model\": \"{tenant}\"}}")) {
                    Ok((200, body)) => {
                        (true, json_number(&body, "version").unwrap_or(0.0) as u64)
                    }
                    _ => (false, 0),
                }
            })
        };

        let mut tallies = Vec::new();
        for h in handles {
            tallies.push(
                h.join()
                    .map_err(|_| OccuError::data("fleetgen", "client thread panicked"))?,
            );
        }
        let duration_s = started.elapsed().as_secs_f64();
        let (reload_ok, version_after) = reload_handle
            .join()
            .map_err(|_| OccuError::data("fleetgen", "reload thread panicked"))?;

        // The clients are quiet; the reloaded tenant must now answer
        // with the new weights, bitwise.
        let mismatches = stale_probe(&addr, reload_tenant, expected_occupancy(&new_model));
        stale_serves += mismatches;

        let mut latencies: Vec<u64> =
            tallies.iter().flat_map(|t| t.latencies_us.clone()).collect();
        latencies.sort_unstable();
        let ok: usize = tallies.iter().map(|t| t.ok).sum();
        let errors: usize = tallies.iter().map(|t| t.errors).sum();
        let throttled: usize = tallies.iter().map(|t| t.throttled).sum();
        let dropped: usize = tallies.iter().map(|t| t.dropped).sum();
        let cache_hits: usize = tallies.iter().map(|t| t.cache_hits).sum();
        total_dropped += dropped as u64;
        for tally in &tallies {
            for (lane, counts) in tally.lanes.iter().enumerate() {
                lane_totals[lane].requests += counts.requests;
                lane_totals[lane].ok += counts.ok;
                lane_totals[lane].throttled += counts.throttled;
                lane_totals[lane].errors += counts.errors;
            }
        }

        rungs.push(FleetRung {
            concurrency,
            requests: total,
            ok,
            errors,
            throttled,
            dropped,
            duration_s,
            throughput_rps: if duration_s > 0.0 { ok as f64 / duration_s } else { 0.0 },
            p50_us: percentile(&latencies, 0.50),
            p99_us: percentile(&latencies, 0.99),
            cache_hit_rate: if ok > 0 { cache_hits as f64 / ok as f64 } else { 0.0 },
            reload_tenant: reload_tenant.to_string(),
            reload_ok,
            version_after,
            stale_check_ok: mismatches == 0,
        });
    }

    // Throttle phase: alternate the limited and an unlimited tenant
    // from one connection, far above the limited tenant's rate.
    let mut throttle = ThrottleSummary {
        limited_tenant: "gamma".to_string(),
        rate_rps: cfg.rate_limit_rps,
        unlimited_tenant: "alpha".to_string(),
        retry_after_present: true,
        ..ThrottleSummary::default()
    };
    {
        let mut conn =
            Conn::open(&addr).map_err(|e| OccuError::io(format!("connect {addr}"), e))?;
        let gamma_spec = "{\"tenant\": \"gamma\", \"model\": \"LeNet\", \"batch\": 1}";
        let alpha_spec = "{\"tenant\": \"alpha\", \"model\": \"LeNet\", \"batch\": 1}";
        for _ in 0..cfg.throttle_requests {
            match conn.post_full("/predict", gamma_spec) {
                Ok((200, _, _)) => throttle.limited_ok += 1,
                Ok((429, retry_after, _)) => {
                    throttle.limited_throttled += 1;
                    if retry_after.is_none_or(|s| s < 1) {
                        throttle.retry_after_present = false;
                    }
                }
                Ok(_) | Err(_) => total_dropped += 1,
            }
            match conn.post_full("/predict", alpha_spec) {
                Ok((429, _, _)) => throttle.unlimited_throttled += 1,
                Ok(_) => {}
                Err(_) => total_dropped += 1,
            }
        }
    }

    let statusz_models_ok = statusz_lists_models(&addr, &all_tenants);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let ladder_requests: u64 = lane_totals.iter().map(|l| l.requests).sum();
    let tenants = ladder_tenants
        .iter()
        .zip(&lane_totals)
        .map(|(name, l)| TenantTally {
            tenant: (*name).to_string(),
            requests: l.requests,
            ok: l.ok,
            throttled: l.throttled,
            errors: l.errors,
            share: if ladder_requests > 0 {
                l.requests as f64 / ladder_requests as f64
            } else {
                0.0
            },
        })
        .collect();

    let aggregate_rps = rungs.last().map(|r| r.throughput_rps).unwrap_or(0.0);
    Ok(FleetPerfReport {
        models: all_tenants.iter().map(|t| (*t).to_string()).collect(),
        zipf_exponent: cfg.zipf_exponent,
        seed: cfg.seed,
        baseline_rps: cfg.baseline_rps,
        rungs,
        aggregate_rps,
        baseline_ratio: if cfg.baseline_rps > 0.0 { aggregate_rps / cfg.baseline_rps } else { 0.0 },
        tenants,
        throttle,
        stale_serves,
        total_dropped,
        statusz_models_ok,
    })
}

/// Console rendering of a [`FleetPerfReport`].
pub fn render_fleet(rep: &FleetPerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fleet load test: {} models, Zipf s={:.2} seed={} ==",
        rep.models.len(),
        rep.zipf_exponent,
        rep.seed
    );
    let _ = writeln!(
        out,
        "  {:<5} {:>9} {:>12} {:>9} {:>9} {:>7} {:>6} {:>6} {:>5}  reload",
        "conc", "requests", "pred/s", "p50 us", "p99 us", "hit%", "err", "429", "drop"
    );
    for r in &rep.rungs {
        let _ = writeln!(
            out,
            "  {:<5} {:>9} {:>12.0} {:>9} {:>9} {:>6.1}% {:>6} {:>6} {:>5}  {} -> v{} {}{}",
            r.concurrency,
            r.requests,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.cache_hit_rate * 100.0,
            r.errors,
            r.throttled,
            r.dropped,
            r.reload_tenant,
            r.version_after,
            if r.reload_ok { "ok" } else { "FAILED" },
            if r.stale_check_ok { "" } else { " STALE" },
        );
    }
    let _ = writeln!(out, "tenant split (ladder):");
    for t in &rep.tenants {
        let _ = writeln!(
            out,
            "  {:<8} {:>9} requests ({:>5.1}%)  ok/429/err {}/{}/{}",
            t.tenant,
            t.requests,
            t.share * 100.0,
            t.ok,
            t.throttled,
            t.errors
        );
    }
    let th = &rep.throttle;
    let _ = writeln!(
        out,
        "throttle: {} @ {:.0} rps -> {} ok, {} x 429 (Retry-After {}); {} saw {} x 429",
        th.limited_tenant,
        th.rate_rps,
        th.limited_ok,
        th.limited_throttled,
        if th.retry_after_present { "present" } else { "MISSING" },
        th.unlimited_tenant,
        th.unlimited_throttled
    );
    if rep.baseline_rps > 0.0 {
        let _ = writeln!(
            out,
            "aggregate: {:.0} pred/s = {:.2}x the {:.0} single-model baseline",
            rep.aggregate_rps, rep.baseline_ratio, rep.baseline_rps
        );
    }
    let _ = writeln!(
        out,
        "stale serves: {}   dropped: {}   statusz models: {}",
        rep.stale_serves,
        rep.total_dropped,
        if rep.statusz_models_ok { "ok" } else { "INCOMPLETE" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyspace_alternates_tenants_and_is_distinct() {
        let keys = build_keyspace(&["alpha", "beta"]);
        assert_eq!(keys.len(), 16);
        // Ranks alternate tenants so the Zipf head hits both.
        assert_eq!(keys[0].tenant, 0);
        assert_eq!(keys[1].tenant, 1);
        assert_eq!(keys[2].tenant, 0);
        let unique: std::collections::HashSet<_> = keys.iter().map(|k| &k.spec).collect();
        assert_eq!(unique.len(), keys.len());
        for key in &keys {
            assert!(key.spec.contains("\"tenant\""));
        }
    }

    #[test]
    fn json_number_extracts_fields() {
        let body = "{\"predicted_occupancy\":0.4375,\"version\": 3,\"cached\":false}";
        assert_eq!(json_number(body, "predicted_occupancy"), Some(0.4375));
        assert_eq!(json_number(body, "version"), Some(3.0));
        assert_eq!(json_number(body, "absent"), None);
    }

    // The full in-process fleet round-trip lives in `repro fleet`
    // (and its --quick smoke): booting a server flips the
    // process-global obs switch, which the perf tests in this crate
    // assert against, so it cannot run under `cargo test` here.
}
