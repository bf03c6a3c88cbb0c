//! Drives the `occu` binary with hostile inputs and asserts the
//! contract of the typed error layer: every failure exits non-zero
//! with a single-line `error:` message on stderr — never a panic, a
//! backtrace, or a success code. Exit codes are the `OccuError`
//! mapping (3 io, 4 parse, 5 shape, 6 config, 7 data) with 2 reserved
//! for usage mistakes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn occu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occu"))
        .args(args)
        .output()
        .expect("spawning occu")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occu_cli_fault_injection").join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Asserts the hostile-input contract: given exit code, exactly one
/// one-line `error:` message, and nothing panicked. Progress lines
/// (`occu_obs` info logs) may precede the error on stderr.
fn assert_clean_failure(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "panic leaked to the user: {stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "backtrace hint leaked: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 1, "want exactly one error line: {stderr}");
    assert!(errors[0].contains(needle), "'{needle}' not in '{}'", errors[0]);
}

#[test]
fn usage_errors_exit_2() {
    assert_clean_failure(&occu(&[]), 2, "no command given");
    assert_clean_failure(&occu(&["frobnicate"]), 2, "unknown command");
    assert_clean_failure(&occu(&["profile", "--model"]), 2, "expects a value");
    assert_clean_failure(&occu(&["predict"]), 2, "missing required flag --weights");
    assert_clean_failure(&occu(&["profile", "--model", "NoSuchNet-9000"]), 2, "unknown model");
    assert_clean_failure(&occu(&["schedule", "--jobs", "many"]), 2, "not an integer");
    assert_clean_failure(&occu(&["serve"]), 2, "missing required flag --weights");
}

#[test]
fn flags_a_command_does_not_accept_exit_2() {
    // Retired and misplaced flags are rejected by name instead of
    // silently swallowing the argument after them.
    let cases: [(&[&str], &str); 8] = [
        (&["serve", "--weights", "m.json", "--l2-cache", "8"], "unknown flag --l2-cache"),
        (&["serve", "--weights", "m.json", "--batch-window-us", "1000"], "unknown flag --batch-window-us"),
        (&["serve", "--weights", "m.json", "--max-batch", "32"], "unknown flag --max-batch"),
        (&["serve", "--weights", "m.json", "--shards", "2"], "unknown flag --shards"),
        (&["serve", "--no-plan", "--weights", "m.json"], "unknown flag --no-plan"),
        (&["predict", "--plan", "--weights", "m.json", "--model", "LeNet"], "unknown flag --plan"),
        (&["models", "--device", "a100"], "unknown flag --device"),
        (&["serve", "--weights", "m.json", "--precision", "f16"], "unknown precision 'f16'"),
    ];
    for (args, needle) in cases {
        assert_clean_failure(&occu(args), 2, needle);
    }
}

#[test]
fn serve_rejects_bad_weights_and_config() {
    // Missing weights file: Io, exit 3 — before any socket is bound.
    let out = occu(&["serve", "--weights", "/nonexistent/model.json"]);
    assert_clean_failure(&out, 3, "/nonexistent/model.json");

    // Impossible server shape: Config, exit 6. Weights must be
    // readable so the failure is attributable to the config check.
    let dir = tmp_dir("serve_config");
    let weights = dir.join("model.json");
    let out = occu(&["train", "--configs", "1", "--epochs", "1", "--hidden", "8",
        "--out", weights.to_str().expect("utf8"), "--quiet"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = occu(&["serve", "--weights", weights.to_str().expect("utf8"), "--threads", "0"]);
    assert_clean_failure(&out, 6, "serve --threads");
}

#[test]
fn missing_files_exit_3() {
    let out = occu(&["predict", "--weights", "/nonexistent/model.json", "--model", "LeNet"]);
    assert_clean_failure(&out, 3, "/nonexistent/model.json");
    let out = occu(&["schedule", "--trace", "/nonexistent/trace.csv"]);
    assert_clean_failure(&out, 3, "/nonexistent/trace.csv");
}

#[test]
fn truncated_model_json_exits_4() {
    let dir = tmp_dir("truncated_model");
    let path = dir.join("model.json");
    std::fs::write(&path, r#"{"config":{"hidden":16,"#).expect("write");
    let out = occu(&["predict", "--weights", path.to_str().expect("utf8"), "--model", "LeNet"]);
    assert_clean_failure(&out, 4, "invalid input");
}

#[test]
fn corrupt_device_json_exits_4_and_impossible_exits_6() {
    let dir = tmp_dir("device_specs");
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{ not json").expect("write");
    let out = occu(&[
        "profile",
        "--model",
        "LeNet",
        "--device",
        garbled.to_str().expect("utf8"),
    ]);
    assert_clean_failure(&out, 4, "invalid input");

    // Well-formed JSON with an impossible spec (zero SMs).
    let json = r#"{"name":"bad","arch":"x","sm_count":0,"max_warps_per_sm":64,
        "max_threads_per_block":1024,"max_blocks_per_sm":32,"registers_per_sm":65536,
        "register_alloc_unit":256,"shared_mem_per_sm":167936,"shared_mem_per_block":101376,
        "warp_size":32,"fp32_gflops":19500.0,"mem_bandwidth_gbps":1555.0,"memory_gib":40.0,
        "launch_overhead_us":3.0}"#;
    let impossible = dir.join("impossible.json");
    std::fs::write(&impossible, json).expect("write");
    let out = occu(&[
        "profile",
        "--model",
        "LeNet",
        "--device",
        impossible.to_str().expect("utf8"),
    ]);
    assert_clean_failure(&out, 6, "invalid configuration");
}

#[test]
fn unknown_device_name_exits_6_listing_builtins() {
    let out = occu(&["profile", "--model", "LeNet", "--device", "gtx9090"]);
    assert_clean_failure(&out, 6, "gtx9090");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("A100"), "should list built-ins: {stderr}");
}

#[test]
fn hostile_train_fraction_and_epochs_exit_6() {
    // NaN parses as a float, so it must be the pipeline (not the flag
    // parser) that rejects it — exit 6, not 2.
    let out = occu(&["train", "--configs", "1", "--test-fraction", "NaN"]);
    assert_clean_failure(&out, 6, "test_fraction");
    let out = occu(&["train", "--configs", "1", "--test-fraction", "1.5"]);
    assert_clean_failure(&out, 6, "test_fraction");
    let out = occu(&["train", "--configs", "1", "--epochs", "0"]);
    assert_clean_failure(&out, 6, "epochs");
}

#[test]
fn corrupt_trace_csv_exits_4_and_impossible_rows_exit_7() {
    let dir = tmp_dir("traces");
    let header = "id,name,true_occupancy,predicted_occupancy,nvml_utilization,work_us,memory_bytes,arrival_us";

    let truncated = dir.join("truncated.csv");
    std::fs::write(&truncated, format!("{header}\n0,j0,0.3\n")).expect("write");
    let out = occu(&["schedule", "--trace", truncated.to_str().expect("utf8")]);
    assert_clean_failure(&out, 4, "row 1");

    let nan = dir.join("nan.csv");
    std::fs::write(&nan, format!("{header}\n0,j0,NaN,0.3,0.5,1e6,1024,0\n")).expect("write");
    let out = occu(&["schedule", "--trace", nan.to_str().expect("utf8")]);
    assert_clean_failure(&out, 7, "invalid data");
}

#[test]
fn bad_log_level_exits_6() {
    let out = occu(&["models", "--log-level", "shouty"]);
    assert_clean_failure(&out, 6, "--log-level");
}

#[test]
fn schedule_trace_roundtrip_succeeds() {
    // The happy path through the new trace flags: save a generated
    // workload, then replay it.
    let dir = tmp_dir("roundtrip");
    let path = dir.join("jobs.csv");
    let path = path.to_str().expect("utf8");
    let out = occu(&["schedule", "--jobs", "4", "--gpus", "2", "--save-trace", path]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = occu(&["schedule", "--trace", path, "--gpus", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("occu-packing"), "table missing: {stdout}");
}
