//! Scheduler metrics drill, isolated in its own test binary: it turns
//! on the process-global metrics registry, so any other test calling
//! `simulate` in the same process would overwrite the
//! `sched.max_colocation` gauge while this one reads it.

use occu_sched::{simulate, GpuSpec, Job, PackingPolicy};

fn jobs(n: usize, occ: f64, nvml: f64) -> Vec<Job> {
    (0..n)
        .map(|i| Job::exact(i, format!("j{i}"), occ, nvml, 1e6, 2 << 30))
        .collect()
}

#[test]
fn simulation_records_placements_and_gpu_load_when_enabled() {
    let pool = jobs(6, 0.3, 0.3);
    occu_obs::enable();
    let res = simulate(&pool, &GpuSpec::cluster(2), PackingPolicy::OccuPacking);
    occu_obs::disable();
    let snap = occu_obs::metrics_snapshot();
    match snap.get("sched.placements") {
        Some(occu_obs::MetricValue::Counter(n)) => assert!(*n >= 6, "all jobs placed: {n}"),
        other => panic!("placements counter missing: {other:?}"),
    }
    assert!(snap.get("sched.gpu0.occupancy_sum").is_some());
    match snap.get("sched.max_colocation") {
        Some(occu_obs::MetricValue::Gauge(v)) => assert!(*v >= res.max_colocation as f64),
        other => panic!("max colocation gauge missing: {other:?}"),
    }
    let spans = occu_obs::take_spans();
    let sim = spans.iter().find(|s| s.name == "sched.simulate").expect("simulate span");
    assert!(sim
        .fields
        .iter()
        .any(|(k, v)| k == "policy" && *v == occu_obs::FieldVal::Str("occu-packing".into())));
}
