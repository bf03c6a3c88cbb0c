//! Drives the `repro` binary with hostile inputs: every failure must
//! exit non-zero with a one-line `error:` message — no panics, no
//! backtraces.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawning repro")
}

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
    assert_clean_failure(&repro(&["figure-nine"]), 2, "unknown experiment");
    // Retired subcommands and the flags only they read are usage errors.
    for cmd in ["loadgen", "fleet", "perf", "kernels", "plan", "quant", "obs-overhead"] {
        assert_clean_failure(&repro(&[cmd]), 2, "unknown experiment");
    }
    for flag in [
        "--url", "--requests", "--concurrency", "--telemetry", "--rungs", "--zipf", "--seed", "--out", "--workers",
        "--compare",
    ] {
        assert_clean_failure(&repro(&["fig7", flag, "1"]), 2, "unknown flag");
    }
    assert_clean_failure(&repro(&["fig4", "--device"]), 2, "--device expects a value");
}

#[test]
fn unknown_device_exits_6() {
    assert_clean_failure(&repro(&["fig4", "--quick", "--device", "gtx9090"]), 6, "gtx9090");
}

#[test]
fn corrupt_device_json_exits_4() {
    let dir = std::env::temp_dir().join("repro_fault_injection");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("garbled.json");
    std::fs::write(&path, "[1, 2,").expect("write");
    let out = repro(&["fig4", "--quick", "--device", path.to_str().expect("utf8")]);
    assert_clean_failure(&out, 4, "invalid input");
}

#[test]
fn bad_log_level_exits_6() {
    assert_clean_failure(&repro(&["fig7", "--quick", "--log-level", "shouty"]), 6, "--log-level");
}

#[test]
fn unwritable_report_path_exits_3() {
    let out = repro(&["fig7", "--quick", "--trace-out", "/nonexistent-dir/spans.jsonl"]);
    assert_clean_failure(&out, 3, "/nonexistent-dir/spans.jsonl");
}
