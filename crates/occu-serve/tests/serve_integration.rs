//! End-to-end exercises of a live `occu-serve` server over real TCP:
//! every endpoint, cache behavior (including fingerprint-keyed hits
//! for re-ordered inline graphs), hot-reload semantics, and graceful
//! drain accounting.

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_graph::{GraphBuilder, GraphMeta, Hyper, ModelFamily, OpKind};
use occu_serve::{FleetRegistry, ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_model(seed: u64) -> DnnOccu {
    let cfg = DnnOccuConfig {
        hidden: 8,
        ..DnnOccuConfig::fast()
    };
    DnnOccu::new(cfg, seed)
}

fn start_server() -> Server {
    let registry = Arc::new(ModelRegistry::from_model(tiny_model(7), "in-memory.json"));
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    Server::start(cfg, registry).expect("server start")
}

/// One-shot HTTP exchange; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body);
    (status, body)
}

/// One-shot HTTP exchange keeping the raw header block; returns
/// (status, headers, body).
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    try_request_full(addr, method, path, body).expect("HTTP exchange")
}

/// [`request_full`] that reports a transport failure (refused or reset
/// connection, unparseable status line) instead of panicking.
fn try_request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut s = TcpStream::connect(addr)?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    s.write_all(body.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    Ok((status, head, body))
}

/// The value of `header` in a raw response head, if present.
fn header_value<'a>(head: &'a str, header: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case(header).then(|| value.trim())
    })
}

#[test]
fn healthz_metrics_and_routing() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Known route, wrong method.
    let (status, _) = request(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);

    // One prediction so the metrics dump has serve.* entries.
    let (status, body) = request(addr, "POST", "/predict", r#"{"model": "LeNet"}"#);
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"predicted_occupancy\":"), "body: {body}");
    assert!(body.contains("\"fingerprint\":"), "body: {body}");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    // Prometheus text exposition: typed families, histogram series,
    // per-stage summaries with labels.
    assert!(metrics.contains("# TYPE serve_requests counter"), "dump: {metrics}");
    assert!(metrics.contains("# TYPE serve_cache_misses counter"), "dump: {metrics}");
    assert!(metrics.contains("# TYPE serve_request_us histogram"), "dump: {metrics}");
    assert!(metrics.contains("serve_request_us_bucket{le=\"+Inf\"}"), "dump: {metrics}");
    assert!(metrics.contains("serve_request_us_count"), "dump: {metrics}");
    assert!(metrics.contains("# TYPE serve_stage_us summary"), "dump: {metrics}");
    assert!(
        metrics.contains("serve_stage_us{stage=\"predict\",quantile=\"0.5\"}"),
        "dump: {metrics}"
    );
    assert!(
        metrics.contains("serve_request_total_us{quantile=\"0.99\"}"),
        "dump: {metrics}"
    );
    assert!(metrics.contains("tensor_kernel_isa{isa=\""), "dump: {metrics}");

    let stats = server.shutdown();
    assert!(stats.requests >= 4);
}

#[test]
fn debug_endpoints_expose_status_traces_and_vars() {
    let server = start_server();
    let addr = server.local_addr();

    // One success and one error so the flight recorder has a recent
    // trace and a pinned notable trace.
    let (status, _) = request(addr, "POST", "/predict", r#"{"model": "LeNet"}"#);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/predict", r#"{"model": "NoSuchNet"}"#);
    assert_eq!(status, 404);

    let (status, statusz) = request(addr, "GET", "/debug/statusz", "");
    assert_eq!(status, 200, "body: {statusz}");
    let parsed: serde_json::Value = serde_json::from_str(&statusz).expect("statusz is JSON");
    let obj = parsed.as_object().expect("statusz object");
    for key in ["uptime_s", "model", "isa", "config", "counters", "cache", "plan", "recorder"] {
        assert!(obj.contains_key(key), "statusz missing '{key}': {statusz}");
    }

    let (status, tracez) = request(addr, "GET", "/debug/tracez", "");
    assert_eq!(status, 200, "body: {tracez}");
    let parsed: serde_json::Value = serde_json::from_str(&tracez).expect("tracez is JSON");
    let recent = parsed.get("recent").and_then(|v| v.as_array()).expect("recent array");
    assert!(!recent.is_empty(), "tracez recorded no traces: {tracez}");
    // Every trace carries the complete stage breakdown, zeros included.
    for trace in recent {
        let stages = trace.get("stages").and_then(|v| v.as_object()).expect("stages object");
        for name in occu_serve::STAGE_NAMES {
            assert!(stages.contains_key(name), "trace missing stage '{name}': {trace:?}");
        }
        assert!(trace.get("total_us").and_then(|v| v.as_f64()).expect("total_us") > 0.0);
    }
    // The 404 is pinned in the notable ring with its error line.
    let notable = parsed.get("notable").and_then(|v| v.as_array()).expect("notable array");
    assert!(
        notable.iter().any(|t| t.get("status").and_then(|v| v.as_f64()) == Some(404.0)),
        "404 not pinned: {tracez}"
    );
    // This harness drives the server one request at a time, so the
    // recorder's contention-drop counter must read exactly zero.
    assert_eq!(
        parsed.get("dropped").and_then(|v| v.as_f64()),
        Some(0.0),
        "flight recorder dropped traces single-threaded: {tracez}"
    );
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("flight_dropped 0"), "dump: {metrics}");

    let (status, varz) = request(addr, "GET", "/debug/varz", "");
    assert_eq!(status, 200, "body: {varz}");
    // One flat map keyed by metric name: the raw registry snapshot.
    let parsed: serde_json::Value = serde_json::from_str(&varz).expect("varz is JSON");
    let vars = parsed.as_object().expect("varz object");
    for key in ["serve.requests", "serve.errors", "serve.model_version"] {
        assert!(vars.contains_key(key), "varz missing '{key}': {varz}");
    }

    server.shutdown();
}

#[test]
fn telemetry_off_still_serves_with_empty_traces() {
    let registry = Arc::new(ModelRegistry::from_model(tiny_model(7), "in-memory.json"));
    let cfg = ServeConfig {
        workers: 2,
        record: false,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, registry).expect("server start");
    let addr = server.local_addr();

    let (status, body) = request(addr, "POST", "/predict", r#"{"model": "LeNet"}"#);
    assert_eq!(status, 200, "body: {body}");

    // No traces, no stage samples — the request path was inert.
    let (status, tracez) = request(addr, "GET", "/debug/tracez", "");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&tracez).expect("tracez is JSON");
    assert_eq!(parsed.get("recorded").and_then(|v| v.as_f64()), Some(0.0), "tracez: {tracez}");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve_request_total_us_count 0"),
        "windows must stay empty with record=false: {metrics}"
    );
    for stage in occu_serve::STAGE_NAMES {
        assert!(
            metrics.contains(&format!("serve_stage_us_count{{stage=\"{stage}\"}} 0\n")),
            "stage '{stage}' recorded samples with record=false: {metrics}"
        );
    }
    server.shutdown();
}

#[test]
fn named_predictions_hit_the_cache_on_repeat() {
    let server = start_server();
    let addr = server.local_addr();
    let spec = r#"{"model": "AlexNet", "batch": 2, "device": "v100"}"#;

    let (status, first) = request(addr, "POST", "/predict", spec);
    assert_eq!(status, 200, "body: {first}");
    assert!(first.contains("\"cached\":false"), "body: {first}");

    let (status, second) = request(addr, "POST", "/predict", spec);
    assert_eq!(status, 200);
    assert!(second.contains("\"cached\":true"), "body: {second}");
    // Identical payload apart from the cached flag.
    assert_eq!(
        first.replace("\"cached\":false", ""),
        second.replace("\"cached\":true", "")
    );

    // Same model on another device is a distinct entry.
    let (_, other) = request(
        addr,
        "POST",
        "/predict",
        r#"{"model": "AlexNet", "batch": 2, "device": "a100"}"#,
    );
    assert!(other.contains("\"cached\":false"), "body: {other}");

    let stats = server.shutdown();
    assert_eq!(stats.cache.hits, 1);
    assert!(stats.cache.misses >= 2);
    assert_eq!(stats.errors, 0);
}

/// The same diamond graph built with two different node-insertion
/// orders; the fingerprint must unify them in the cache.
fn diamond_json(swap: bool) -> String {
    let mut meta = GraphMeta::new(if swap { "variant-b" } else { "variant-a" }, ModelFamily::Cnn);
    meta.batch_size = 4;
    let mut b = GraphBuilder::new(meta);
    let x = b.input("x", &[4, 8]);
    let lin = || Hyper::new().with("in_features", 8.0).with("out_features", 8.0);
    let (l, r) = if swap {
        let r = b.add(OpKind::Linear, "right", lin(), &[x]);
        let l = b.add(OpKind::Linear, "left", lin(), &[x]);
        (l, r)
    } else {
        let l = b.add(OpKind::Linear, "left", lin(), &[x]);
        let r = b.add(OpKind::Linear, "right", lin(), &[x]);
        (l, r)
    };
    let add = b.add(OpKind::Add, "join", Hyper::new(), &[l, r]);
    let _ = b.add(OpKind::Output, "out", Hyper::new(), &[add]);
    b.finish().to_json()
}

#[test]
fn inline_graphs_cache_by_canonical_fingerprint() {
    let server = start_server();
    let addr = server.local_addr();

    let body_a = format!("{{\"graph\": {}}}", diamond_json(false));
    let (status, first) = request(addr, "POST", "/predict", &body_a);
    assert_eq!(status, 200, "body: {first}");
    assert!(first.contains("\"cached\":false"), "body: {first}");

    // Different insertion order, different model_name — same structure.
    let body_b = format!("{{\"graph\": {}}}", diamond_json(true));
    let (status, second) = request(addr, "POST", "/predict", &body_b);
    assert_eq!(status, 200);
    assert!(second.contains("\"cached\":true"), "body: {second}");

    let stats = server.shutdown();
    assert_eq!(stats.cache.hits, 1);
}

#[test]
fn predict_batch_mixes_results_and_per_item_errors() {
    let server = start_server();
    let addr = server.local_addr();
    let body = r#"[
        {"model": "LeNet"},
        {"model": "LeNet"},
        {"model": "NoSuchNet"}
    ]"#;
    let (status, resp) = request(addr, "POST", "/predict_batch", body);
    assert_eq!(status, 200, "body: {resp}");
    assert!(resp.contains("\"errors\":1"), "body: {resp}");
    assert!(resp.contains("unknown model 'NoSuchNet'"), "body: {resp}");
    assert_eq!(resp.matches("\"predicted_occupancy\":").count(), 2);
    // The duplicate spec resolves in the same request: second copy is
    // still a miss at resolve time (both were in flight together) or a
    // hit — either way both succeed with the same value.
    server.shutdown();
}

#[test]
fn hot_reload_swaps_model_and_invalidates_cache_by_version() {
    let dir = std::env::temp_dir().join(format!("occu_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let weights: PathBuf = dir.join("model.json");
    std::fs::write(&weights, tiny_model(1).to_json()).expect("write weights");

    let registry = Arc::new(ModelRegistry::load(&weights).expect("load"));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start");
    let addr = server.local_addr();

    let spec = r#"{"model": "LeNet"}"#;
    let (_, before) = request(addr, "POST", "/predict", spec);
    assert!(before.contains("\"model_version\":1"), "body: {before}");

    // Swap weights on disk and reload through the endpoint.
    std::fs::write(&weights, tiny_model(2).to_json()).expect("rewrite weights");
    let (status, reload) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "body: {reload}");
    assert!(reload.contains("\"version\":2"), "body: {reload}");

    // Old cache entries are version-keyed: the same spec misses and
    // runs on the new model.
    let (_, after) = request(addr, "POST", "/predict", spec);
    assert!(after.contains("\"model_version\":2"), "body: {after}");
    assert!(after.contains("\"cached\":false"), "body: {after}");

    // Reload from an explicit bad path fails without losing the model.
    let (status, bad) = request(addr, "POST", "/reload", r#"{"path": "/nope/x.json"}"#);
    assert_eq!(status, 500, "body: {bad}");
    let (_, still) = request(addr, "POST", "/predict", spec);
    assert!(still.contains("\"model_version\":2"), "body: {still}");

    let stats = server.shutdown();
    assert_eq!(stats.reloads, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_time_is_charged_to_the_parse_stage() {
    let dir = std::env::temp_dir().join(format!("occu_serve_reload_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let weights: PathBuf = dir.join("model.json");
    std::fs::write(&weights, tiny_model(1).to_json()).expect("write weights");
    let registry = Arc::new(ModelRegistry::load(&weights).expect("load"));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start");
    let addr = server.local_addr();

    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "body: {body}");

    // Decoding the weights file is the bulk of a reload; its trace must
    // attribute that time to a stage instead of leaving it unaccounted.
    let (status, tracez) = request(addr, "GET", "/debug/tracez", "");
    assert_eq!(status, 200, "body: {tracez}");
    let parsed: serde_json::Value = serde_json::from_str(&tracez).expect("tracez is JSON");
    let reload = parsed
        .get("recent")
        .and_then(|v| v.as_array())
        .expect("recent array")
        .iter()
        .find(|t| t.get("path").and_then(|p| p.as_str()) == Some("/reload"))
        .unwrap_or_else(|| panic!("no /reload trace: {tracez}"));
    let parse_us = reload
        .get("stages")
        .and_then(|s| s.get("parse"))
        .and_then(|v| v.as_f64())
        .expect("parse stage");
    assert!(parse_us > 0.0, "reload work not attributed: {reload:?}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the `predicted_occupancy` scalar from a /predict body.
fn occupancy_of(body: &str) -> f64 {
    let parsed: serde_json::Value = serde_json::from_str(body).expect("predict body is JSON");
    parsed
        .get("predicted_occupancy")
        .and_then(|v| v.as_f64())
        .expect("predicted_occupancy field")
}

#[test]
fn reload_never_serves_stale_plans() {
    let dir = std::env::temp_dir().join(format!("occu_serve_plan_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let weights: PathBuf = dir.join("model.json");
    std::fs::write(&weights, tiny_model(1).to_json()).expect("write weights");

    // The server compiles a plan for the LeNet graph shape on the
    // first prediction.
    let registry = Arc::new(ModelRegistry::load(&weights).expect("load"));
    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start");
    let addr = server.local_addr();

    let spec = r#"{"model": "LeNet"}"#;
    let (_, before) = request(addr, "POST", "/predict", spec);
    let before_occ = occupancy_of(&before);

    // Swap weights and reload. The same graph shape now needs a plan
    // compiled from the *new* weights — a stale plan would replay the
    // old model's prediction.
    std::fs::write(&weights, tiny_model(2).to_json()).expect("rewrite weights");
    let (status, _) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200);
    let (_, after) = request(addr, "POST", "/predict", spec);
    let after_occ = occupancy_of(&after);
    assert!(after.contains("\"cached\":false"), "body: {after}");
    assert_ne!(
        before_occ, after_occ,
        "prediction unchanged across reload — stale plan served"
    );

    // The post-reload prediction must match the tape interpreter (the
    // test oracle) running the new weights in-process on the same
    // graph: LeNet at its default config on the default a100.
    use occu_core::OccuPredictor;
    let id = occu_models::ModelId::LeNet;
    let fg = occu_core::dataset::make_sample(
        id,
        id.default_config(),
        &occu_gpusim::DeviceSpec::a100(),
    )
    .features;
    let oracle = tiny_model(2).predict(&fg);
    assert_eq!(
        (after_occ as f32).to_bits(),
        oracle.to_bits(),
        "recompiled plan diverged from the interpreter: {after} vs {oracle}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let server = start_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    let body = r#"{"model": "LeNet"}"#;
    for _ in 0..5 {
        write!(
            s,
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        // Read exactly one response: headers, then Content-Length bytes.
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).expect("read header byte");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).expect("utf8");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length");
        let mut resp = vec![0u8; len];
        s.read_exact(&mut resp).expect("read body");
        assert!(String::from_utf8(resp)
            .expect("utf8")
            .contains("\"predicted_occupancy\":"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.cache.hits, 4, "repeats on one connection must hit");
}

/// A three-tenant fleet over tiny models: `alpha` and `bravo` carry
/// different weights (and alpha is file-backed so it can hot-reload);
/// `limited` shares alpha's weights behind a 1 req/s admission limit.
fn start_fleet(dir: &std::path::Path) -> Server {
    std::fs::create_dir_all(dir).expect("mkdir");
    let alpha_weights = dir.join("alpha.json");
    std::fs::write(&alpha_weights, tiny_model(1).to_json()).expect("write alpha weights");
    let fleet = FleetRegistry::builder()
        .model("alpha", Arc::new(ModelRegistry::load(&alpha_weights).expect("load")), 2, None)
        .model("bravo", Arc::new(ModelRegistry::from_model(tiny_model(2), "bravo.json")), 1, None)
        .model(
            "limited",
            Arc::new(ModelRegistry::from_model(tiny_model(1), "limited.json")),
            1,
            Some(1.0),
        )
        .build()
        .expect("fleet");
    Server::start_fleet(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        fleet,
    )
    .expect("fleet server start")
}

#[test]
fn fleet_routes_by_tenant_and_reloads_one_model_at_a_time() {
    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_{}", std::process::id()));
    let server = start_fleet(&dir);
    let addr = server.local_addr();

    // Same spec, different tenants, different weights — the answers
    // must differ, and the tenant must echo back in the response.
    let (status, alpha) =
        request(addr, "POST", "/predict", r#"{"tenant": "alpha", "model": "LeNet"}"#);
    assert_eq!(status, 200, "body: {alpha}");
    let (status, bravo) =
        request(addr, "POST", "/predict", r#"{"tenant": "bravo", "model": "LeNet"}"#);
    assert_eq!(status, 200, "body: {bravo}");
    assert_ne!(
        occupancy_of(&alpha).to_bits(),
        occupancy_of(&bravo).to_bits(),
        "tenants with different weights answered identically"
    );

    // No tenant field routes to the first registered model.
    let (status, default_body) = request(addr, "POST", "/predict", r#"{"model": "LeNet"}"#);
    assert_eq!(status, 200);
    assert_eq!(occupancy_of(&default_body).to_bits(), occupancy_of(&alpha).to_bits());

    // Unknown tenants are a 404 naming the residents.
    let (status, missing) =
        request(addr, "POST", "/predict", r#"{"tenant": "nope", "model": "LeNet"}"#);
    assert_eq!(status, 404, "body: {missing}");
    assert!(missing.contains("alpha"), "404 should list residents: {missing}");

    // The per-tenant cache is isolated: a bravo repeat hits.
    let (_, bravo_again) =
        request(addr, "POST", "/predict", r#"{"tenant": "bravo", "model": "LeNet"}"#);
    assert!(bravo_again.contains("\"cached\":true"), "body: {bravo_again}");

    // Reload only alpha: its version moves, its answer changes, and
    // bravo's cached entry survives untouched.
    std::fs::write(dir.join("alpha.json"), tiny_model(3).to_json()).expect("rewrite weights");
    let (status, reload) = request(addr, "POST", "/reload", r#"{"model": "alpha"}"#);
    assert_eq!(status, 200, "body: {reload}");
    assert!(reload.contains("\"model\":\"alpha\""), "body: {reload}");
    assert!(reload.contains("\"version\":2"), "body: {reload}");

    let (_, alpha_after) =
        request(addr, "POST", "/predict", r#"{"tenant": "alpha", "model": "LeNet"}"#);
    assert!(alpha_after.contains("\"model_version\":2"), "body: {alpha_after}");
    assert!(alpha_after.contains("\"cached\":false"), "body: {alpha_after}");
    assert_ne!(
        occupancy_of(&alpha).to_bits(),
        occupancy_of(&alpha_after).to_bits(),
        "alpha still answers with pre-reload weights"
    );
    let (_, bravo_after) =
        request(addr, "POST", "/predict", r#"{"tenant": "bravo", "model": "LeNet"}"#);
    assert!(bravo_after.contains("\"model_version\":1"), "body: {bravo_after}");
    assert!(bravo_after.contains("\"cached\":true"), "bravo lost its cache: {bravo_after}");

    // Reload of an unknown tenant is a 404, not a default fallback.
    let (status, bad) = request(addr, "POST", "/reload", r#"{"model": "nope"}"#);
    assert_eq!(status, 404, "body: {bad}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Client threads send `alpha` and `bravo` predictions while alpha's
/// weights file is rewritten and `/reload`ed in the middle of the run.
/// Nothing drops and nothing answers non-200; every alpha answer sent
/// after the reload's 200 is the new weights' forward pass bit for bit
/// (a stale prediction-cache entry or compiled plan would replay the
/// old weights), and bravo never changes. The run's `/metrics` then
/// attributes the traffic to every request stage.
#[test]
fn fleet_reload_under_concurrent_traffic_serves_no_stale_answers() {
    use occu_core::OccuPredictor;
    use occu_models::{ModelConfig, ModelId};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_live_{}", std::process::id()));
    let server = start_fleet(&dir);
    let addr = server.local_addr();

    // Each spec's answer under a model: its forward pass on the graph
    // the server builds for `{"model", "batch"}` on the default a100.
    const SPECS: [(ModelId, usize); 4] =
        [(ModelId::LeNet, 1), (ModelId::LeNet, 2), (ModelId::AlexNet, 1), (ModelId::AlexNet, 2)];
    let answers_of = |model: &DnnOccu| -> Vec<u32> {
        SPECS
            .iter()
            .map(|&(id, batch)| {
                let graph = id.build(&ModelConfig { batch_size: batch, ..id.default_config() });
                let fg = occu_core::features::featurize(&graph, &occu_gpusim::DeviceSpec::a100());
                model.predict(&fg).to_bits()
            })
            .collect()
    };
    let alpha_old = answers_of(&tiny_model(1));
    let alpha_new = answers_of(&tiny_model(3));
    let bravo = answers_of(&tiny_model(2));
    for k in 0..SPECS.len() {
        assert_ne!(alpha_old[k], alpha_new[k], "spec {k}: the reload must change the answer");
    }

    // Each client sends at least MIN_PER_CLIENT requests, and keeps
    // sending until it has sent MIN_AFTER after the reload answered.
    const CLIENTS: usize = 4;
    const MIN_PER_CLIENT: usize = 40;
    const MIN_AFTER: usize = 8;
    let sent = AtomicUsize::new(0);
    let reload_done = AtomicBool::new(false);
    let reloaded = AtomicBool::new(false);
    // (tenant is alpha, spec index, sent after the reload's 200,
    // status, occupancy bits); Err is a transport drop.
    type Answer = std::io::Result<(bool, usize, bool, u16, u32)>;
    let (reload, answers): (std::io::Result<(u16, String)>, Vec<Answer>) = std::thread::scope(|s| {
        let reload = s.spawn(|| {
            while sent.load(Ordering::SeqCst) < CLIENTS * MIN_PER_CLIENT / 2 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::fs::write(dir.join("alpha.json"), tiny_model(3).to_json()).expect("rewrite weights");
            let outcome = try_request_full(addr, "POST", "/reload", r#"{"model": "alpha"}"#)
                .map(|(status, _, body)| (status, body));
            reloaded.store(matches!(outcome, Ok((200, _))), Ordering::SeqCst);
            reload_done.store(true, Ordering::SeqCst);
            outcome
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (sent, reload_done, reloaded) = (&sent, &reload_done, &reloaded);
                s.spawn(move || {
                    let mut answers = Vec::new();
                    let mut after = 0;
                    let mut i = 0;
                    let reload_failed =
                        || reload_done.load(Ordering::SeqCst) && !reloaded.load(Ordering::SeqCst);
                    while i < MIN_PER_CLIENT || (after < MIN_AFTER && !reload_failed()) {
                        let alpha = (c + i) % 2 == 0;
                        let k = (c + i / 2) % SPECS.len();
                        let (id, batch) = SPECS[k];
                        let tenant = if alpha { "alpha" } else { "bravo" };
                        let body = format!(r#"{{"tenant": "{tenant}", "model": "{}", "batch": {batch}}}"#, id.name());
                        let post_reload = reloaded.load(Ordering::SeqCst);
                        answers.push(try_request_full(addr, "POST", "/predict", &body).map(|(status, _, body)| {
                            let bits = if status == 200 { (occupancy_of(&body) as f32).to_bits() } else { 0 };
                            (alpha, k, post_reload, status, bits)
                        }));
                        sent.fetch_add(1, Ordering::SeqCst);
                        after += usize::from(post_reload);
                        i += 1;
                    }
                    answers
                })
            })
            .collect();
        let answers = clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
        (reload.join().expect("reload thread"), answers)
    });

    let (status, body) = reload.expect("reload transport");
    assert_eq!(status, 200, "reload: {body}");
    let drops = answers.iter().filter(|a| a.is_err()).count();
    assert_eq!(drops, 0, "transport drops: {:?}", answers.iter().filter(|a| a.is_err()).collect::<Vec<_>>());
    let mut checked_after = 0;
    for answer in answers.iter().flatten() {
        let &(alpha, k, post_reload, status, bits) = answer;
        assert_eq!(status, 200, "spec {k} (alpha: {alpha}) answered {status}");
        if !alpha {
            assert_eq!(bits, bravo[k], "bravo spec {k} changed across alpha's reload");
        } else if post_reload {
            assert_eq!(bits, alpha_new[k], "alpha spec {k} sent after the reload served a stale answer");
            checked_after += 1;
        } else {
            assert!(bits == alpha_old[k] || bits == alpha_new[k], "alpha spec {k} matches neither weights");
        }
    }
    assert!(checked_after >= CLIENTS * MIN_AFTER / 2, "only {checked_after} alpha answers after the reload");

    // Every request stage recorded samples, the batch-size histogram
    // and the scratch-arena gauge are exported, and the stage p50s
    // account for the end-to-end p50 (loosely: the run is short).
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let sample = |series: &str| -> Option<f64> {
        metrics.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
    };
    for stage in occu_serve::STAGE_NAMES {
        let count = sample(&format!("serve_stage_us_count{{stage=\"{stage}\"}}"));
        assert!(count.is_some_and(|n| n > 0.0), "stage '{stage}' recorded no samples: {metrics}");
    }
    assert!(sample("serve_batch_size_count").is_some_and(|n| n > 0.0), "no batch sizes: {metrics}");
    assert!(sample("serve_arena_allocated_bytes").is_some_and(|n| n > 0.0), "no arena gauge: {metrics}");
    let stage_sum: f64 = occu_serve::STAGE_NAMES
        .iter()
        .map(|stage| sample(&format!("serve_stage_us{{stage=\"{stage}\",quantile=\"0.5\"}}")).expect("stage p50"))
        .sum();
    let total = sample("serve_request_total_us{quantile=\"0.5\"}").expect("total p50");
    let ratio = stage_sum / total;
    assert!(ratio > 0.5 && ratio < 1.5, "stage-sum p50 {stage_sum} vs total p50 {total}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_throttles_only_the_limited_tenant_with_retry_after() {
    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_rl_{}", std::process::id()));
    let server = start_fleet(&dir);
    let addr = server.local_addr();

    // The 1 req/s bucket admits one request, then throttles. Other
    // tenants on the same server stay unaffected.
    let limited = r#"{"tenant": "limited", "model": "LeNet"}"#;
    let (status, body) = request(addr, "POST", "/predict", limited);
    assert_eq!(status, 200, "burst allowance should admit: {body}");
    let (status, head, body) = request_full(addr, "POST", "/predict", limited);
    assert_eq!(status, 429, "body: {body}");
    assert!(body.contains("rate limit"), "body: {body}");
    let retry_after: u64 = header_value(&head, "Retry-After")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After is integer seconds");
    assert!(retry_after >= 1, "Retry-After must be at least 1s: {head}");

    let (status, _) =
        request(addr, "POST", "/predict", r#"{"tenant": "alpha", "model": "LeNet"}"#);
    assert_eq!(status, 200, "unlimited tenant must not be throttled");

    let stats = server.shutdown();
    assert_eq!(stats.throttled, 1, "exactly one request was throttled");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_metrics_content_type_and_per_tenant_families() {
    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_m_{}", std::process::id()));
    let server = start_fleet(&dir);
    let addr = server.local_addr();

    let (status, _) =
        request(addr, "POST", "/predict", r#"{"tenant": "bravo", "model": "LeNet"}"#);
    assert_eq!(status, 200);

    let (status, head, metrics) = request_full(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    // Prometheus text exposition format version, as scrapers expect.
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("text/plain; version=0.0.4"),
        "head: {head}"
    );
    // Every resident model shows up in the labeled tenant families.
    for tenant in ["alpha", "bravo", "limited"] {
        assert!(
            metrics.contains(&format!("serve_tenant_requests{{tenant=\"{tenant}\"}}")),
            "missing tenant series for '{tenant}': {metrics}"
        );
    }
    assert!(metrics.contains("serve_tenant_requests{tenant=\"bravo\"} 1"), "dump: {metrics}");
    assert!(metrics.contains("# TYPE serve_tenant_model_version gauge"), "dump: {metrics}");
    // One miss queue, one cache: a single depth series, no shard families.
    assert!(metrics.contains("serve_miss_queue_depth "), "dump: {metrics}");
    assert!(!metrics.contains("serve_shard_"), "no per-shard series: {metrics}");
    assert!(!metrics.contains("serve_l2_"), "no second cache tier: {metrics}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_tenants_share_weights_but_not_plans_across_precisions() {
    use occu_core::Precision;
    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_q_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let weights = dir.join("shared.json");
    std::fs::write(&weights, tiny_model(5).to_json()).expect("write weights");

    // Two tenants over the *same* weights file; only the precision
    // differs. cache_cap 0 disables the prediction caches so every
    // request runs a queued job and therefore reaches the plan cache.
    let fleet = FleetRegistry::builder()
        .model("full", Arc::new(ModelRegistry::load(&weights).expect("load")), 1, None)
        .model_with_precision(
            "quant",
            Arc::new(ModelRegistry::load(&weights).expect("load")),
            1,
            None,
            Precision::Int8,
        )
        .build()
        .expect("fleet");
    let server = Server::start_fleet(
        ServeConfig {
            workers: 2,
            cache_cap: 0,
            ..ServeConfig::default()
        },
        Arc::clone(&fleet),
    )
    .expect("fleet server start");
    let addr = server.local_addr();

    let (status, full_body) =
        request(addr, "POST", "/predict", r#"{"tenant": "full", "model": "LeNet"}"#);
    assert_eq!(status, 200, "body: {full_body}");
    for _ in 0..2 {
        let (status, body) =
            request(addr, "POST", "/predict", r#"{"tenant": "quant", "model": "LeNet"}"#);
        assert_eq!(status, 200, "body: {body}");
    }

    // Each tenant compiled its own plan: the caches are per-tenant,
    // and the int8 tenant's single resident plan is the quantized one
    // (the second quant request reused it — one compile, one hit).
    let full_slot = fleet.get("full").expect("full slot");
    let quant_slot = fleet.get("quant").expect("quant slot");
    assert_eq!(full_slot.precision(), Precision::F32);
    assert_eq!(quant_slot.precision(), Precision::Int8);
    assert_eq!(full_slot.plan_cache.stats().len, 1, "one f32 plan resident");
    assert_eq!(quant_slot.plan_cache.stats().len, 1, "one int8 plan resident");
    assert_eq!(quant_slot.plan_cache.stats().hits, 1, "repeat must reuse the int8 plan");

    // The per-tenant serving counters diverge with the traffic split,
    // and the precision shows up as a labeled metric family.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_tenant_requests{tenant=\"full\"} 1"), "dump: {metrics}");
    assert!(metrics.contains("serve_tenant_requests{tenant=\"quant\"} 2"), "dump: {metrics}");
    assert!(metrics.contains("serve_tenant_predictions{tenant=\"full\"} 1"), "dump: {metrics}");
    assert!(metrics.contains("serve_tenant_predictions{tenant=\"quant\"} 2"), "dump: {metrics}");
    assert!(
        metrics.contains("serve_tenant_precision{tenant=\"full\",precision=\"f32\"} 1"),
        "dump: {metrics}"
    );
    assert!(
        metrics.contains("serve_tenant_precision{tenant=\"quant\",precision=\"int8\"} 1"),
        "dump: {metrics}"
    );

    // `/reload` can switch a tenant's precision in place; the swap is
    // visible in statusz and the next compile is at the new precision.
    let (status, reload) =
        request(addr, "POST", "/reload", r#"{"model": "quant", "precision": "f32"}"#);
    assert_eq!(status, 200, "body: {reload}");
    assert!(reload.contains("\"precision\":\"f32\""), "body: {reload}");
    assert_eq!(quant_slot.precision(), Precision::F32);
    let (status, statusz) = request(addr, "GET", "/debug/statusz", "");
    assert_eq!(status, 200);
    let parsed: serde_json::Value = serde_json::from_str(&statusz).expect("statusz is JSON");
    assert_eq!(
        parsed
            .get("models")
            .and_then(|m| m.get("quant"))
            .and_then(|m| m.get("precision"))
            .and_then(|v| v.as_str()),
        Some("f32"),
        "statusz: {statusz}"
    );
    // Bad precision strings are a 400, not a silent default; f16 is
    // not a serving tier.
    for tier in ["int4", "f16"] {
        let body = format!(r#"{{"model": "quant", "precision": "{tier}"}}"#);
        let (status, bad) = request(addr, "POST", "/reload", &body);
        assert_eq!(status, 400, "{tier} body: {bad}");
    }
    assert_eq!(quant_slot.precision(), Precision::F32, "a rejected reload changes nothing");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_statusz_reports_every_resident_model() {
    let dir = std::env::temp_dir().join(format!("occu_serve_fleet_s_{}", std::process::id()));
    let server = start_fleet(&dir);
    let addr = server.local_addr();

    let (status, statusz) = request(addr, "GET", "/debug/statusz", "");
    assert_eq!(status, 200, "body: {statusz}");
    let parsed: serde_json::Value = serde_json::from_str(&statusz).expect("statusz is JSON");
    let models = parsed
        .get("models")
        .and_then(|v| v.as_object())
        .expect("statusz models object");
    assert_eq!(models.len(), 3, "all residents listed: {statusz}");
    for tenant in ["alpha", "bravo", "limited"] {
        let m = models
            .get(tenant)
            .and_then(|v| v.as_object())
            .unwrap_or_else(|| panic!("statusz missing model '{tenant}': {statusz}"));
        for key in
            ["path", "version", "loaded_at_unix_s", "weight", "plan_cached", "plan_capacity"]
        {
            assert!(m.contains_key(key), "model '{tenant}' missing '{key}': {statusz}");
        }
        assert!(
            m.get("loaded_at_unix_s").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0,
            "load timestamp must be set: {statusz}"
        );
    }
    // Only the limited tenant advertises a rate limit.
    assert_eq!(
        models["limited"].get("rate_limit_rps").and_then(|v| v.as_f64()),
        Some(1.0),
        "statusz: {statusz}"
    );
    assert!(
        models["alpha"].get("rate_limit_rps").is_some_and(|v| v.is_null()),
        "unlimited tenants report null: {statusz}"
    );
    // The miss queue's depth is visible; there are no shards and no
    // second cache tier.
    assert!(
        parsed.get("miss_queue_depth").and_then(|v| v.as_f64()).is_some(),
        "statusz: {statusz}"
    );
    assert!(parsed.get("shards").is_none(), "no shards array: {statusz}");
    assert!(
        parsed.get("config").is_some_and(|c| c.get("shards").is_none()),
        "no config.shards key: {statusz}"
    );
    assert!(parsed.get("l2").is_none(), "no l2 object: {statusz}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_queued_job_is_answered_under_concurrent_cold_load() {
    use occu_models::{ModelConfig, ModelId};
    let dir = std::env::temp_dir().join(format!("occu_serve_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let weights = dir.join("shared.json");
    std::fs::write(&weights, tiny_model(9).to_json()).expect("write weights");

    // Two tenants over one weights file, weighted 3:1, so both lanes
    // of the one miss queue fill. cache_cap 0: every item is a queued
    // job, and each worker must drain until its own replies are in.
    let fleet = FleetRegistry::builder()
        .model("heavy", Arc::new(ModelRegistry::load(&weights).expect("load")), 3, None)
        .model("light", Arc::new(ModelRegistry::load(&weights).expect("load")), 1, None)
        .build()
        .expect("fleet");
    let server = Server::start_fleet(
        ServeConfig { workers: 4, cache_cap: 0, ..ServeConfig::default() },
        Arc::clone(&fleet),
    )
    .expect("fleet server start");
    let addr = server.local_addr();

    // 8 clients x 15 distinct cold specs, sent as /predict singles and
    // /predict_batch groups of 3-5 items.
    const MODELS: [ModelId; 3] = [ModelId::LeNet, ModelId::AlexNet, ModelId::Rnn];
    const GROUPS: [usize; 6] = [1, 4, 1, 3, 1, 5];
    let spec = |client: usize, k: usize| {
        let tenant = if (client + k).is_multiple_of(2) { "heavy" } else { "light" };
        (tenant, MODELS[k % MODELS.len()], 1 + client * 15 + k)
    };
    let served: Vec<Vec<(usize, usize, u32)>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..8)
            .map(|client| {
                s.spawn(move || {
                    let mut answers = Vec::new();
                    let mut k = 0;
                    for size in GROUPS {
                        let bodies: Vec<String> = (k..k + size)
                            .map(|i| {
                                let (tenant, id, batch) = spec(client, i);
                                format!(
                                    r#"{{"tenant": "{tenant}", "model": "{}", "batch": {batch}}}"#,
                                    id.name()
                                )
                            })
                            .collect();
                        let occupancies: Vec<f64> = if size == 1 {
                            let (status, body) = request(addr, "POST", "/predict", &bodies[0]);
                            assert_eq!(status, 200, "body: {body}");
                            vec![occupancy_of(&body)]
                        } else {
                            let batch = format!("[{}]", bodies.join(","));
                            let (status, body) = request(addr, "POST", "/predict_batch", &batch);
                            assert_eq!(status, 200, "body: {body}");
                            let parsed: serde_json::Value =
                                serde_json::from_str(&body).expect("batch body is JSON");
                            assert_eq!(parsed.get("errors").and_then(|v| v.as_f64()), Some(0.0), "{body}");
                            parsed
                                .get("results")
                                .and_then(|v| v.as_array())
                                .expect("results array")
                                .iter()
                                .map(|r| {
                                    r.get("predicted_occupancy")
                                        .and_then(|v| v.as_f64())
                                        .unwrap_or_else(|| panic!("item failed: {body}"))
                                })
                                .collect()
                        };
                        assert_eq!(occupancies.len(), size);
                        for (i, occ) in (k..).zip(occupancies) {
                            answers.push((client, i, (occ as f32).to_bits()));
                        }
                        k += size;
                    }
                    answers
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });

    // Every answer matches the in-process plan of its tenant's model.
    let mut checked = 0;
    for (client, k, bits) in served.into_iter().flatten() {
        let (tenant, id, batch) = spec(client, k);
        let loaded = fleet.get(tenant).expect("tenant slot").registry.current();
        let graph = id.build(&ModelConfig { batch_size: batch, ..id.default_config() });
        let fg = occu_core::features::featurize(&graph, &occu_gpusim::DeviceSpec::a100());
        let want = loaded.model.compile_plan_for(&fg).predict(&fg);
        assert_eq!(bits, want.to_bits(), "{tenant} {} batch {batch}", id.name());
        checked += 1;
    }
    assert_eq!(checked, 8 * 15);

    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.throttled, 0);
    std::fs::remove_dir_all(&dir).ok();
}
