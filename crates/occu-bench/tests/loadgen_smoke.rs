//! In-process loadgen round-trip, isolated in its own test binary:
//! booting a server flips the process-global observability switch,
//! which the perf tests in the library binary assert against.

use occu_bench::{run_loadgen, LoadgenConfig, ServeReport};

/// Full smoke: boots the server, runs a short burst, asserts the
/// acceptance invariants (no errors, no drops across the hot-reload,
/// cache carrying the load, stage telemetry scraped and coherent).
#[test]
fn loadgen_round_trip_in_process() {
    let cfg = LoadgenConfig {
        url: None,
        requests: 400,
        concurrency: 4,
        telemetry: true,
    };
    let rep = run_loadgen(&cfg).expect("loadgen run");
    assert_eq!(rep.requests, 400);
    assert_eq!(rep.errors, 0, "no request may fail");
    assert_eq!(rep.dropped, 0, "no request may be dropped");
    assert_eq!(rep.ok, 400);
    assert!(rep.reload_ok, "mid-run reload must succeed");
    assert!(rep.model_version_after >= 2);
    assert!(rep.cache_hit_rate > 0.5, "rate: {}", rep.cache_hit_rate);
    assert!(rep.p99_us > 0 && rep.p50_us <= rep.p99_us);
    assert!(rep.p99_us <= rep.p999_us, "p999 below p99");
    // /metrics must expose the batcher histogram and the scratch-arena
    // high-water gauge; the warmup misses alone force both nonzero.
    assert!(
        rep.metrics_batch_count > 0,
        "serve_batch_size histogram missing from /metrics"
    );
    assert!(
        rep.arena_allocated_bytes > 0,
        "serve_arena_allocated_bytes gauge missing from /metrics"
    );
    // The per-stage summaries cover the whole pipeline taxonomy, and
    // the end-to-end window saw every request.
    assert_eq!(
        rep.stages.len(),
        occu_serve::STAGE_NAMES.len(),
        "stages scraped: {:?}",
        rep.stages.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>()
    );
    for (scraped, expected) in rep.stages.iter().zip(occu_serve::STAGE_NAMES) {
        assert_eq!(scraped.stage, expected, "stage order must be pipeline order");
        assert!(scraped.count > 0, "stage '{}' recorded no samples", scraped.stage);
    }
    assert!(rep.server_total.p50_us > 0.0, "end-to-end window empty");
    // Lenient attribution bound for a short noisy burst; the full run
    // gates at 10%.
    assert!(
        rep.attribution_ratio > 0.5 && rep.attribution_ratio < 1.5,
        "stage-sum p50 {} vs total p50 {} (ratio {})",
        rep.stage_sum_p50_us,
        rep.server_total.p50_us,
        rep.attribution_ratio
    );
    // The flight recorder surfaced the slowest requests with complete
    // stage breakdowns.
    assert!(!rep.slowest.is_empty(), "no traces from /debug/tracez");
    for trace in &rep.slowest {
        assert!(trace.total_us > 0.0);
        assert_eq!(
            trace.stages.len(),
            occu_serve::STAGE_NAMES.len(),
            "trace #{} missing stages",
            trace.id
        );
    }
    let json = serde_json::to_string_pretty(&rep).expect("serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("round-trips");
    assert_eq!(back.requests, rep.requests);
    assert_eq!(back.stages.len(), rep.stages.len());
    assert_eq!(back.slowest.len(), rep.slowest.len());
}

/// Telemetry off: the run still completes, and the stage/trace
/// sections come back empty — the inert-path contract the
/// obs-overhead baseline depends on.
#[test]
fn loadgen_with_telemetry_off_has_no_stage_data() {
    let cfg = LoadgenConfig {
        url: None,
        requests: 200,
        concurrency: 2,
        telemetry: false,
    };
    let rep = run_loadgen(&cfg).expect("loadgen run");
    assert_eq!(rep.errors, 0);
    assert_eq!(rep.dropped, 0);
    assert!(!rep.telemetry);
    assert!(rep.slowest.is_empty(), "flight recorder must stay empty");
    assert_eq!(rep.server_total.count, 0, "total window must stay empty");
    assert_eq!(rep.attribution_ratio, 0.0);
    for s in &rep.stages {
        assert_eq!(s.count, 0, "stage '{}' recorded with telemetry off", s.stage);
    }
}
