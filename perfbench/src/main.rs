//! The repository's benchmark: one command that measures the occupancy
//! predictor as its users meet it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_cold|train_fit --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is timed and reports the end-to-end metrics;
//! with `--trace 1` it reports per-layer metrics from spans the
//! benchmark records around its calls into each crate, and writes the
//! spans to `perfbench/out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Run
//! context (cores, kernel ISA, host steal, seed, sample counts) is
//! printed on the line before it. See `NOTES.md` for the workloads.

mod http;
mod inputs;
mod layers;
mod quiet;
mod serve;
mod stats;
mod trace;
mod train;

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use trace::Tracer;

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    context: Vec<(String, String)>,
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            context: Vec::new(),
            trace: None,
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl Display) {
        self.context.push((key.into(), value.to_string()));
    }

    fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; a NaN metric is a bug in
            // the benchmark and is reported as an incorrect run.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn context_json(&self) -> String {
        let body: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload serve_cold|train_fit --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    quiet::mark_process_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_cold" => serve::run(args.seed, args.seconds, args.trace),
        "train_fit" => train::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("nproc", stats::nproc());
    if let Some(tr) = out.trace.take() {
        match write_trace(&args, &tr) {
            Ok(path) => out.note("trace_file", path),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("context {}", out.context_json());
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
