//! `train_fit`: `Trainer::fit` with the default `TrainConfig` on the
//! SEEN_MODELS training set, then evaluation on UNSEEN_MODELS configs.

use crate::http::{self, Conn, Reply};
use crate::inputs;
use crate::layers::{self, Item, Replay};
use crate::quiet::{self, Stretch};
use crate::serve::{self, Caller, Phase};
use crate::stats;
use crate::trace::Tracer;
use crate::Outcome;
use occu_core::{
    Dataset, DnnOccu, EvalResult, FeaturizedGraph, OccuPredictor, Sample, TrainConfig, Trainer,
};
use occu_nn::{ParamStore, Tape, Var};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The model under training, wrapped so that the benchmark sees when
/// each training sample starts and ends without changing the trainer.
///
/// A worker starts a sample with `forward`; its tape backward follows
/// on the same thread, so the sample ends when that thread starts its
/// next forward, or at the batch join, which the trainer marks by
/// folding gradients through `store_mut`. The last sample of each
/// worker's slice therefore includes its wait for the slowest worker.
struct Metered {
    inner: DnnOccu,
    meter: Mutex<Meter>,
}

#[derive(Default)]
struct Meter {
    open: Vec<(ThreadId, Instant)>,
    samples: Vec<(Instant, Instant)>,
}

impl Metered {
    fn new(inner: DnnOccu) -> Self {
        Metered {
            inner,
            meter: Mutex::new(Meter::default()),
        }
    }

    fn finish(mut self) -> (DnnOccu, Vec<(Instant, Instant)>) {
        let now = Instant::now();
        let meter = self
            .meter
            .get_mut()
            .expect("meter lock poisoned by a panicking worker");
        let open: Vec<_> = meter.open.drain(..).collect();
        meter
            .samples
            .extend(open.into_iter().map(|(_, s)| (s, now)));
        let samples = std::mem::take(&mut meter.samples);
        (self.inner, samples)
    }
}

impl OccuPredictor for Metered {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn store(&self) -> &ParamStore {
        self.inner.store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        let now = Instant::now();
        let meter = self
            .meter
            .get_mut()
            .expect("meter lock poisoned by a panicking worker");
        let open: Vec<_> = meter.open.drain(..).collect();
        meter
            .samples
            .extend(open.into_iter().map(|(_, s)| (s, now)));
        self.inner.store_mut()
    }

    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let now = Instant::now();
        let me = std::thread::current().id();
        {
            let mut m = self
                .meter
                .lock()
                .expect("meter lock poisoned by a panicking worker");
            if let Some(i) = m.open.iter().position(|(t, _)| *t == me) {
                let (_, start) = m.open.swap_remove(i);
                m.samples.push((start, now));
            }
            m.open.push((me, now));
        }
        self.inner.forward(tape, fg)
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: inputs::TRAIN_EPOCHS,
        ..TrainConfig::default()
    }
}

/// A trained model, its loss history and the `(start, end)` instants of
/// every training sample.
type Fitted = (DnnOccu, Vec<f32>, Vec<(Instant, Instant)>);

/// One fit from the fixed initial weights.
fn fit(train: &Dataset) -> Result<Fitted, String> {
    let mut model = Metered::new(inputs::fixed_model());
    let history = Trainer::new(train_config())
        .fit(&mut model, train)
        .map_err(|e| format!("fit: {e}"))?;
    let (model, samples) = model.finish();
    Ok((
        model,
        history.iter().map(|e| e.train_loss).collect(),
        samples,
    ))
}

/// Checks the trained model on the unseen set: every prediction finite
/// and in `[0, 1]`. Returns the MRE in percent and the failure count.
fn evaluate(model: &DnnOccu, eval: &Dataset) -> (f64, u64) {
    let preds = model.predict_all(eval);
    let bad = preds
        .iter()
        .filter(|p| !(p.is_finite() && (0.0..=1.0).contains(*p)))
        .count() as u64;
    if bad > 0 {
        eprintln!("check: {bad} unseen predictions outside [0, 1]: {preds:?}");
    }
    let truth: Vec<f32> = eval.samples.iter().map(|s| s.occupancy).collect();
    let mre = EvalResult::from_pairs(model.name(), &preds, &truth).mre_percent();
    (f64::from(mre), bad)
}

/// MRE on the unseen set of a server's answers, one `/predict` per
/// config. Returns the MRE in percent, the requests sent and the
/// answers that failed (not 200, or not finite and in `[0, 1]`).
pub fn served_unseen_mre_pct(addr: SocketAddr) -> Result<(f64, u64, u64), String> {
    let eval = inputs::eval_data();
    let mut conn = Conn::open(addr).map_err(|e| format!("unseen configs: {e}"))?;
    let (mut preds, mut truth, mut bad) = (Vec::new(), Vec::new(), 0);
    for s in &eval.samples {
        let reply = conn
            .send("POST", "/predict", &eval_body(s))
            .map_err(|e| format!("unseen configs: {e}"))?;
        let pred = http::occupancy(&reply.body)
            .filter(|p| reply.status == 200 && p.is_finite() && (0.0..=1.0).contains(p));
        match pred {
            Some(p) => {
                preds.push(p);
                truth.push(s.occupancy);
            }
            None => {
                eprintln!(
                    "check: unseen config answered {} {}",
                    reply.status, reply.body
                );
                bad += 1;
            }
        }
    }
    if preds.is_empty() {
        return Err("no unseen config was answered".into());
    }
    let mre = EvalResult::from_pairs("served", &preds, &truth).mre_percent();
    Ok((f64::from(mre), eval.len() as u64, bad))
}

/// Serial tape forward + backward time of `train`'s samples × epochs
/// trained, as a share of the workers' wall time during a fit of
/// `fit_s`: how much of the parallel fit did useful work.
fn worker_utilization(model: &DnnOccu, train: &Dataset, fit_s: f64) -> f64 {
    let mut tape = Tape::new();
    let start = Instant::now();
    for s in &train.samples {
        layers::fwd_bwd(model, &mut tape, &s.features);
    }
    let serial_s = start.elapsed().as_secs_f64() * inputs::TRAIN_EPOCHS as f64;
    let workers = occu_core::Parallelism::auto().resolve() as f64;
    serial_s / (fit_s * workers)
}

/// [`worker_utilization`] of one `train_fit` fit, for the serve
/// workloads' traced runs, which report every per-layer metric.
pub fn utilization_probe() -> Result<f64, String> {
    let train = inputs::train_data();
    let start = Instant::now();
    let (model, _, _) = fit(&train)?;
    Ok(worker_utilization(
        &model,
        &train,
        start.elapsed().as_secs_f64(),
    ))
}

/// A falling loss; counts 1 failure otherwise.
fn loss_check(history: &[f32]) -> u64 {
    let ok = history.len() >= 2
        && history.iter().all(|l| l.is_finite())
        && history[history.len() - 1] < history[0];
    if !ok {
        eprintln!("check: loss did not fall: {history:?}");
    }
    u64::from(!ok)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if traced {
        return run_traced(seed, seconds);
    }
    let (setup_s, setup_runs, quiet_setups, (train, eval)) =
        quiet::repeat_setup(|| Ok((inputs::train_data(), inputs::eval_data())), drop)?;

    // Fits repeat until the gate has seen enough quiet time; each fit
    // is a round, starts from the same weights and must end with the
    // same losses.
    let (fits, slices) = quiet::watched(seconds, Stretch::ToDeadline, |gate| {
        let mut fits = Vec::new();
        loop {
            let fitted = fit(&train);
            let stop = fitted.is_err() || gate.done();
            fits.push(fitted.map(|(model, history, samples)| {
                let items: Vec<(f64, f64)> = samples
                    .iter()
                    .map(|&(s, e)| (gate.at_s(s), gate.at_s(e)))
                    .collect();
                let round = Phase {
                    attempted: items.len() as u64,
                    items,
                    failed: 0,
                    trace: None,
                };
                (model, history, round)
            }));
            if stop {
                return fits;
            }
        }
    });
    let fits = fits.into_iter().collect::<Result<Vec<_>, String>>()?;
    let first = fits[0].1.clone();
    let mut failed = 0;
    for (_, history, _) in &fits {
        failed += loss_check(history);
        // Training is bit-identical for any worker count and timing.
        if *history != first {
            eprintln!("check: a fit's losses {history:?} differ from the first fit's {first:?}");
            failed += 1;
        }
    }
    let (mre, bad) = evaluate(&fits[fits.len() - 1].0, &eval);
    failed += bad;

    let rounds: Vec<Phase> = fits.into_iter().map(|f| f.2).collect();
    let mut out = Outcome::new(rounds.iter().map(|r| r.attempted).sum(), failed);
    serve::end_to_end(&mut out, setup_s, &rounds, &slices, mre)?;
    out.note("fits", rounds.len());
    out.note("setup_runs", setup_runs);
    out.note("quiet_setup_runs", quiet_setups);
    out.note("tensor_kernel_isa", occu_tensor::active_isa().name());
    out.note("tensor_quant_isa", occu_tensor::quant_isa().name());
    out.note("epochs", inputs::TRAIN_EPOCHS);
    out.note("train_samples", train.len());
    out.note("eval_samples", eval.len());
    out.note("workers", occu_core::Parallelism::auto().resolve());
    Ok(out)
}

/// Sends each unseen config once to a server holding the trained model
/// and checks the answer against the same model's plan in-process.
struct EvalCaller {
    queue: Vec<(String, f32)>,
    want: Option<f32>,
}

impl Caller for EvalCaller {
    fn next_body(&mut self) -> Option<String> {
        let (body, want) = self.queue.pop()?;
        self.want = Some(want);
        Some(body)
    }

    fn check(&mut self, reply: &Reply) -> bool {
        reply.status == 200
            && http::cached(&reply.body) == Some(false)
            && http::occupancy(&reply.body).map(f32::to_bits) == self.want.map(f32::to_bits)
    }
}

fn eval_body(s: &Sample) -> String {
    format!(
        "{{\"model\":\"{}\",\"batch\":{},\"channels\":{},\"seq\":{},\"device\":\"{}\"}}",
        s.model.name(),
        s.config.batch_size,
        s.config.input_channels,
        s.config.seq_len,
        s.device.to_ascii_lowercase()
    )
}

fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let (train, eval) = (inputs::train_data(), inputs::eval_data());
    let u0 = stats::usage();
    let fit_start = Instant::now();
    let (model, history, samples) = fit(&train)?;
    let fit_s = fit_start.elapsed().as_secs_f64();
    let u1 = stats::usage();
    let mut failed = loss_check(&history);
    let (_, bad) = evaluate(&model, &eval);
    failed += bad;

    let mut tr = Tracer::new(t0);
    for &(s, e) in &samples {
        tr.record("train.sample", s, e);
    }

    // Serve the trained model: each unseen config once, over HTTP.
    let n = serve::callers();
    let mut queues: Vec<Vec<(String, f32)>> = vec![Vec::new(); n];
    for (i, s) in eval.samples.iter().enumerate() {
        let want = model.compile_plan_for(&s.features).predict(&s.features);
        queues[i % n].push((eval_body(s), want));
    }
    let server = serve::Running::start(model);
    let addr = server.server().local_addr();
    let before = serve::scrape(addr)?;
    let mut callers: Vec<EvalCaller> = queues
        .into_iter()
        .map(|queue| EvalCaller { queue, want: None })
        .collect();
    let (mut phase, _) = quiet::watched(seconds, Stretch::No, |gate| {
        serve::drive(addr, &mut callers, gate, f64::INFINITY, true)
    });
    let after = serve::scrape(addr)?;
    let loaded = server.server().fleet().default_slot().registry.current();
    drop(server);
    occu_obs::disable();
    failed += phase.failed;
    if phase.attempted != eval.len() as u64 {
        eprintln!(
            "check: served {} of {} unseen configs",
            phase.attempted,
            eval.len()
        );
        failed += 1;
    }
    tr.merge(phase.trace.take().expect("traced phase records spans"));

    // Replay every training sample's labelling and gradient path.
    let mut replay = Replay::new(&loaded.model);
    // One config of every model first, so a replay cut short by its
    // budget still covers every model.
    let per_model = inputs::TRAIN_CONFIGS_PER_MODEL;
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.sort_by_key(|&i| (i % per_model, i / per_model));
    let mut items = order.into_iter().map(|i| &train.samples[i]).map(|s| Item {
        model: s.model,
        cfg: s.config,
        device: occu_gpusim::DeviceSpec::a100(),
    });
    let budget = Duration::from_secs_f64(seconds).saturating_sub(t0.elapsed());
    let (replayed, overhead) = layers::replay_for(
        &mut tr,
        &mut replay,
        &mut items,
        budget.max(Duration::from_secs(1)),
    );

    let mut out = Outcome::new(samples.len() as u64 + phase.attempted, failed);
    serve::serve_layers(&mut out, &before, &after, &phase);
    serve::replay_layers(&mut out, &tr, &replay, overhead);
    out.metric(
        "rayon.ctx_switches_per_item",
        (u1.ctx_switches - u0.ctx_switches) as f64 / samples.len().max(1) as f64,
        "count/item",
    );
    out.metric(
        "train.worker_utilization",
        worker_utilization(&loaded.model, &train, fit_s),
        "ratio",
    );
    out.note("seed_unused_by_train_data", seed);
    out.note("replayed_items", replayed);
    out.note("fit_s", format!("{fit_s:.3}"));
    out.trace = Some(tr);
    Ok(out)
}
