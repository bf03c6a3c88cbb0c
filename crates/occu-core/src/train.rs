//! The predictor interface and the Adam/MSE training loop (§III-E, §V).

use crate::dataset::{Dataset, Sample};
use crate::features::FeaturizedGraph;
use crate::metrics::EvalResult;
use occu_error::OccuError;
use occu_nn::{Adam, AdamConfig, GradBuffer, ParamStore, Tape, Var};
use occu_tensor::{Matrix, SeededRng};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Occupancy spans more than two orders of magnitude across the
/// dataset (tiny RNN kernels at <1% up to dense CNNs near 70%), and
/// the paper's MRE metric is *relative*. Networks therefore regress a
/// log-scale target `t = 1 + ln(occ) / ln(1/OCC_FLOOR)` that maps
/// `[OCC_FLOOR, 1]` monotonically onto `[0, 1]` — uniform relative
/// resolution across the range. [`occupancy_to_target`] /
/// [`target_to_occupancy`] convert in both directions; evaluation
/// metrics always operate on raw occupancy.
pub const OCC_FLOOR: f32 = 0.002;

/// Maps an occupancy in `[0, 1]` to the network's regression target.
pub fn occupancy_to_target(occ: f32) -> f32 {
    let scale = (1.0 / OCC_FLOOR).ln();
    (1.0 + occ.clamp(OCC_FLOOR, 1.0).ln() / scale).clamp(0.0, 1.0)
}

/// Inverse of [`occupancy_to_target`]. Accepts out-of-range inputs
/// (unbounded baseline heads) and amplifies them exponentially —
/// which is exactly how latency-style regressors blow up on unseen
/// model families in the paper's Tables IV/V.
pub fn target_to_occupancy(t: f32) -> f32 {
    let scale = (1.0 / OCC_FLOOR).ln();
    ((t - 1.0) * scale).exp()
}

thread_local! {
    /// Per-thread inference tape, reused across predictions so the
    /// embedded scratch arena's free lists stay warm (see
    /// [`OccuPredictor::predict_target`]).
    static PREDICT_TAPE: std::cell::RefCell<Tape> = std::cell::RefCell::new(Tape::new());
}

/// Anything that maps a featurized graph to a scalar occupancy
/// prediction on an autodiff tape. Implemented by [`crate::DnnOccu`]
/// and every baseline. `Send + Sync` so experiment suites can train
/// predictors on separate rayon workers and the trainer can share one
/// predictor across per-sample gradient workers (`forward` takes
/// `&self`; all mutation goes through [`OccuPredictor::store_mut`]).
pub trait OccuPredictor: Send + Sync {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;
    /// Parameter store (read).
    fn store(&self) -> &ParamStore;
    /// Parameter store (write — gradients and optimizer updates).
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Records the forward pass; returns a `1x1` prediction of the
    /// log-scale target (see [`occupancy_to_target`]).
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var;

    /// Runs a forward pass and returns the predicted *occupancy*.
    fn predict(&self, fg: &FeaturizedGraph) -> f32 {
        target_to_occupancy(self.predict_target(fg))
    }

    /// Runs a forward pass and returns the raw log-scale target.
    ///
    /// Inference reuses one tape per thread: [`Tape::clear`] recycles
    /// all node storage into the tape's scratch arena, so after the
    /// first prediction of each shape the forward pass performs no
    /// heap allocations. `occu-serve` does not call it: a served
    /// prediction runs a compiled plan (`occu-serve`'s `batch::run_job`),
    /// and this tape forward is the oracle plans are tested against.
    fn predict_target(&self, fg: &FeaturizedGraph) -> f32 {
        PREDICT_TAPE.with(|t| {
            let mut tape = t.borrow_mut();
            tape.clear();
            let y = self.forward(&mut tape, fg);
            tape.value(y).get(0, 0)
        })
    }

    /// Predicts every sample of a dataset. Forward passes are
    /// independent, so they run on all available workers; `collect`
    /// preserves sample order, keeping the output deterministic.
    fn predict_all(&self, data: &Dataset) -> Vec<f32> {
        data.samples.par_iter().map(|s| self.predict(&s.features)).collect()
    }

    /// Predicts a batch of already-featurized graphs, in input order,
    /// fanning the independent forward passes across all available
    /// workers, so one slow giant graph and many small ones still cost
    /// one parallel sweep.
    fn predict_batch(&self, fgs: &[FeaturizedGraph]) -> Vec<f32> {
        fgs.par_iter().map(|fg| self.predict(fg)).collect()
    }

    /// Evaluates MRE/MSE on a dataset.
    fn evaluate(&self, data: &Dataset) -> EvalResult {
        let preds = self.predict_all(data);
        let truth: Vec<f32> = data.samples.iter().map(|s| s.occupancy).collect();
        EvalResult::from_pairs(self.name(), &preds, &truth)
    }
}

/// Worker-count policy for data-parallel training and evaluation.
///
/// Training results are bit-identical for every worker count (see
/// [`Trainer::fit`]), so `auto` is always safe; `serial` keeps a fit
/// entirely on the calling thread, for outer parallel loops (ensemble
/// members, experiment sweeps) that already keep the cores busy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads. `0` means the rayon pool's thread count
    /// (`rayon::current_num_threads()`: the machine's cores, or
    /// `RAYON_NUM_THREADS`).
    pub workers: usize,
}

impl Parallelism {
    /// Run everything on the calling thread (no spawning).
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// Use every thread of the rayon pool.
    pub fn auto() -> Self {
        Self { workers: 0 }
    }

    /// Use exactly `n` workers (clamped to at least one). They run on
    /// the rayon pool, so at most `rayon::current_num_threads()` of
    /// them are busy at once.
    pub fn fixed(n: usize) -> Self {
        Self { workers: n.max(1) }
    }

    /// Concrete worker count for this machine.
    pub fn resolve(self) -> usize {
        if self.workers == 0 {
            rayon::current_num_threads()
        } else {
            self.workers
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

/// Training hyperparameters (paper defaults: Adam, lr = weight decay
/// = 1e-4; this reproduction exposes them for the ablation benches).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Gradients are accumulated over this many samples per step.
    pub batch_size: usize,
    /// Gradient-norm clip (0 disables).
    pub clip_norm: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Print a progress line every this many epochs (0 = silent).
    pub log_every: usize,
    /// Worker threads for per-sample gradient computation. Any value
    /// yields bit-identical parameters for the same seed.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // The paper's lr of 1e-4 converges too slowly for the small
        // CPU-budget datasets used here; 3e-3 with the same schedule
        // reaches the same optimum on this data.
        Self {
            epochs: 30,
            lr: 3e-3,
            weight_decay: 1e-4,
            batch_size: 8,
            clip_norm: 5.0,
            seed: 0,
            log_every: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

impl TrainConfig {
    /// Rejects hyperparameter values the loop cannot run with: the
    /// optimizer needs a finite positive learning rate, at least one
    /// epoch and a nonzero batch, and finite non-negative decay/clip
    /// (a NaN here would silently poison every parameter).
    pub fn validate(&self) -> occu_error::Result<()> {
        let ctx = "train config";
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(OccuError::config(ctx, format!("lr must be a finite positive rate, got {}", self.lr)));
        }
        if self.epochs == 0 {
            return Err(OccuError::config(ctx, "epochs must be at least 1"));
        }
        if self.batch_size == 0 {
            return Err(OccuError::config(ctx, "batch_size must be at least 1"));
        }
        if !self.weight_decay.is_finite() || self.weight_decay < 0.0 {
            return Err(OccuError::config(
                ctx,
                format!("weight_decay must be finite and non-negative, got {}", self.weight_decay),
            ));
        }
        if !self.clip_norm.is_finite() || self.clip_norm < 0.0 {
            return Err(OccuError::config(
                ctx,
                format!("clip_norm must be finite and non-negative (0 disables), got {}", self.clip_norm),
            ));
        }
        Ok(())
    }
}

/// Per-epoch training record.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean MSE loss over the epoch.
    pub train_loss: f32,
}

/// Runs the §III-E training loop: shuffled epochs, accumulated
/// gradients, Adam with decoupled weight decay.
///
/// # Parallel gradient computation
///
/// Within a batch, each sample's forward + backward runs on a worker
/// against a *read-only* model ([`occu_nn::Tape::backward_into`]
/// collects gradients into a per-sample [`GradBuffer`] instead of
/// mutating the store). Each worker claims the next unclaimed sample
/// of the batch from a shared counter, largest graph first, so a
/// worker that draws a large graph does not hold the others to a fixed
/// share and the batch does not end on one. Every sample's gradients
/// land in the buffer of its batch position, and the buffers are
/// folded into one accumulator in that (global shuffled) order, so the
/// summation tree — and therefore every trained parameter bit — is the
/// same for every worker count given the same seed. The fold, the
/// clip and the Adam step are split by parameter over the same workers
/// ([`fold_and_step`]); each parameter's arithmetic is the serial
/// sequence's, so the split changes no bit either.
///
/// A fit owns its scratch for its whole run: one tape per worker,
/// cleared but never dropped, so its arena stays warm across batches
/// and epochs, plus the per-sample buffers and the accumulator, zeroed
/// and reused. After the first epoch a fit allocates no tensor storage.
pub struct Trainer {
    cfg: TrainConfig,
}

/// Scratch one fit reuses for every batch: a tape per worker, a
/// gradient slot per batch position and the batch accumulator.
struct FitScratch {
    tapes: Vec<Tape>,
    slots: Vec<Mutex<SampleSlot>>,
    acc: GradBuffer,
}

/// One batch position's result: its loss and its gradients.
struct SampleSlot {
    loss: f32,
    grads: GradBuffer,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Trains `model` on `data`; returns the loss history.
    ///
    /// Fails with `Config` when the hyperparameters are unusable
    /// ([`TrainConfig::validate`]) and `Data` when the training set is
    /// empty.
    ///
    /// When observability is enabled (`occu_obs::enable`), the run
    /// records a `train.fit` → `train.epoch` → `train.batch` span
    /// timeline plus loss/grad-norm/throughput metrics and per-worker
    /// sample counts; disabled, each site is a single atomic check.
    pub fn fit(&self, model: &mut dyn OccuPredictor, data: &Dataset) -> occu_error::Result<Vec<EpochStats>> {
        self.cfg.validate()?;
        if data.is_empty() {
            return Err(OccuError::data("Trainer::fit", "empty training set"));
        }
        let workers = self.cfg.parallelism.resolve();
        let fit_start = std::time::Instant::now();
        let _fit_span = occu_obs::span!(
            "train.fit",
            model = model.name(),
            epochs = self.cfg.epochs,
            samples = data.len(),
            workers = workers,
        );
        let mut opt = Adam::new(
            model.store(),
            AdamConfig { lr: self.cfg.lr, weight_decay: self.cfg.weight_decay, ..AdamConfig::default() },
        );
        let mut scratch = FitScratch {
            tapes: (0..workers).map(|_| Tape::new()).collect(),
            slots: Vec::new(),
            acc: GradBuffer::for_store(model.store()),
        };
        let mut rng = SeededRng::new(self.cfg.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut history = Vec::with_capacity(self.cfg.epochs);

        for epoch in 0..self.cfg.epochs {
            let _epoch_span = occu_obs::span!("train.epoch", epoch = epoch);
            // Cosine learning-rate decay to 10% of the base rate:
            // full-rate Adam late in training destabilizes the small
            // per-graph batches.
            let progress = epoch as f32 / self.cfg.epochs.max(1) as f32;
            let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
            opt.set_lr(self.cfg.lr * (0.1 + 0.9 * cos));
            shuffle(&mut order, &mut rng);
            let mut epoch_loss = 0.0f32;
            for (bi, batch) in order.chunks(self.cfg.batch_size.max(1)).enumerate() {
                let _batch_span = occu_obs::span!("train.batch", batch = bi, size = batch.len());
                let batch_loss = self.train_batch(model, data, batch, &mut scratch, &mut opt);
                if occu_obs::enabled() {
                    occu_obs::histogram("train.batch_loss", &BATCH_LOSS_EDGES)
                        .observe(f64::from(batch_loss / batch.len() as f32));
                }
                epoch_loss += batch_loss;
            }
            let stats = EpochStats { epoch, train_loss: epoch_loss / data.len() as f32 };
            if occu_obs::enabled() {
                occu_obs::gauge("train.loss").set(f64::from(stats.train_loss));
            }
            if self.cfg.log_every > 0 && epoch % self.cfg.log_every == 0 {
                occu_obs::info!("[{}] epoch {:3}  loss {:.6}", model.name(), epoch, stats.train_loss);
            }
            history.push(stats);
        }
        if occu_obs::enabled() {
            let secs = fit_start.elapsed().as_secs_f64();
            occu_obs::gauge("train.samples_per_sec")
                .set((self.cfg.epochs * data.len()) as f64 / secs.max(1e-9));
        }
        Ok(history)
    }

    /// Computes per-sample gradients for one batch ([`sample_grads`]),
    /// then folds them in batch order and takes one optimizer step
    /// ([`fold_and_step`]). Returns the summed sample losses.
    fn train_batch(
        &self,
        model: &mut dyn OccuPredictor,
        data: &Dataset,
        batch: &[usize],
        scratch: &mut FitScratch,
        opt: &mut Adam,
    ) -> f32 {
        while scratch.slots.len() < batch.len() {
            let grads = GradBuffer::for_store(model.store());
            scratch.slots.push(Mutex::new(SampleSlot { loss: 0.0, grads }));
        }
        let slots = &mut scratch.slots[..batch.len()];
        sample_grads(&*model, data, batch, &mut scratch.tapes, slots);
        // The workers have joined; the store is written from here on.
        let slots: Vec<&SampleSlot> =
            slots.iter_mut().map(|s| &*s.get_mut().expect("a gradient worker panicked holding its slot")).collect();
        let batch_loss = slots.iter().fold(0.0f32, |sum, s| sum + s.loss);
        let samples: Vec<&GradBuffer> = slots.iter().map(|s| &s.grads).collect();
        let parallel = scratch.tapes.len() > 1;
        fold_and_step(model.store_mut(), opt, &mut scratch.acc, &samples, self.cfg.clip_norm, parallel);
        batch_loss
    }
}

/// Folds the per-sample gradients `samples` into `acc` (zero on entry)
/// in batch order, averages, clips the global norm to `clip_norm` (0
/// disables) and applies one Adam step, leaving `acc` zeroed.
///
/// Two fan-outs over the parameters, on the rayon pool when `parallel`
/// and on the calling thread otherwise. The first sums each
/// parameter's gradients in batch order, scales by `1/n` and returns
/// the parameter's sum of squares; the caller adds those in parameter
/// order into the global norm ([`GradBuffer::norm_from_sum_sq`]). The
/// second clips, runs [`occu_nn::AdamUpdate::apply`] and zeroes the
/// accumulator, each parameter on its own. Every element sees the
/// arithmetic of `merge` → `scale` → `clip_norm` → `Adam::step` in the
/// same order, so the parameters come out bit-identical to that serial
/// sequence however the parameters are shared out.
fn fold_and_step(
    store: &mut ParamStore,
    opt: &mut Adam,
    acc: &mut GradBuffer,
    samples: &[&GradBuffer],
    clip_norm: f32,
    parallel: bool,
) {
    let n = samples.len();
    let sums = fan_out(parallel, acc.grads_mut().iter_mut().enumerate().collect(), |(p, a): (usize, &mut Matrix)| {
        for s in samples {
            a.add_assign(&s.grads()[p]);
        }
        if n > 1 {
            let s = 1.0 / n as f32;
            a.map_inplace(|x| x * s);
        }
        GradBuffer::sum_sq(a)
    });
    // Pre-clip norm: the true gradient magnitude of the step.
    let norm = GradBuffer::norm_from_sum_sq(sums);
    if occu_obs::enabled() {
        occu_obs::gauge("train.grad_norm").set(f64::from(norm));
    }
    let clip = if clip_norm > 0.0 { GradBuffer::clip_scale(norm, clip_norm) } else { None };
    let update = opt.begin_step();
    let params = store.values_mut().zip(opt.moments_mut()).zip(acc.grads_mut()).collect();
    fan_out(parallel, params, |((value, (m, v)), g)| {
        if let Some(s) = clip {
            g.map_inplace(|x| x * s);
        }
        update.apply(value, m, v, g);
        g.data_mut().fill(0.0);
    });
}

/// Runs `f` over `items`, on the rayon pool when `parallel` and in a
/// loop on the calling thread otherwise, returning results in order.
fn fan_out<T: Send, R: Send>(parallel: bool, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parallel {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Bucket edges for the per-batch mean-loss histogram. MSE on the
/// `[0, 1]` log-scale target starts around ~1e-1 and converges toward
/// ~1e-3, so the edges are log-spaced over that range.
const BATCH_LOSS_EDGES: [f64; 9] = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0];

/// Forward + backward for every sample of `batch`, on up to one worker
/// per tape: each worker claims the next unclaimed batch position from
/// a shared counter, in descending node count (ties in batch order),
/// and writes that sample's loss and gradients into `slots[position]`,
/// so the results come out in batch order however the samples were
/// shared out. Largest first, the batch ends on small graphs rather
/// than one worker finishing a large one while the others idle. The
/// model is only read, so the workers run concurrently against one
/// predictor; each reuses its own tape (cleared per sample), so the
/// tapes' arenas stay warm across calls.
fn sample_grads(
    model: &dyn OccuPredictor,
    data: &Dataset,
    batch: &[usize],
    tapes: &mut [Tape],
    slots: &[Mutex<SampleSlot>],
) {
    // Stable sort: equal node counts keep batch order.
    let mut claims: Vec<usize> = (0..batch.len()).collect();
    claims.sort_by_key(|&pos| Reverse(data.samples[batch[pos]].features.num_nodes()));
    // Relaxed: the counter only hands out positions; a slot's contents
    // are published by its mutex and by the join.
    let next = AtomicUsize::new(0);
    let workers = tapes.len().min(batch.len());
    tapes[..workers].par_iter_mut().enumerate().for_each(|(w, tape)| {
        let _span = occu_obs::span!("train.grad_worker", worker = w);
        let mut claimed = 0u64;
        while let Some(&pos) = claims.get(next.fetch_add(1, Ordering::Relaxed)) {
            let mut slot = slots[pos].lock().expect("a gradient worker panicked holding its slot");
            let SampleSlot { loss, grads } = &mut *slot;
            *loss = sample_grad(model, tape, &data.samples[batch[pos]], grads);
            claimed += 1;
        }
        if occu_obs::enabled() {
            occu_obs::counter(&format!("train.samples.worker{w}")).add(claimed);
        }
    });
}

/// Forward + backward for one sample on `tape` (cleared first): zeroes
/// `grads`, fills it with the sample's parameter gradients and returns
/// the loss. The regression target is the log-scale transform of the
/// measured occupancy (see [`occupancy_to_target`]).
fn sample_grad(model: &dyn OccuPredictor, tape: &mut Tape, sample: &Sample, grads: &mut GradBuffer) -> f32 {
    tape.clear();
    grads.zero();
    let y = model.forward(tape, &sample.features);
    let target = occupancy_to_target(sample.occupancy);
    let t = tape.constant_zeroed_with(1, 1, |m| m.set(0, 0, target));
    let loss = tape.mse_loss(y, t);
    tape.backward_into(loss, model.store(), grads);
    tape.value(loss).get(0, 0)
}

/// Fisher–Yates shuffle driven by the workspace RNG.
fn shuffle(xs: &mut [usize], rng: &mut SeededRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.index(i + 1);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::make_sample;
    use crate::gnn::{DnnOccu, DnnOccuConfig};
    use occu_gpusim::DeviceSpec;
    use occu_models::{ModelConfig, ModelId};

    fn tiny_dataset() -> Dataset {
        let dev = DeviceSpec::a100();
        let samples = vec![
            make_sample(ModelId::LeNet, ModelConfig { batch_size: 8, ..Default::default() }, &dev),
            make_sample(ModelId::LeNet, ModelConfig { batch_size: 64, ..Default::default() }, &dev),
            make_sample(ModelId::LeNet, ModelConfig { batch_size: 128, ..Default::default() }, &dev),
        ];
        Dataset { samples }
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 7);
        let data = tiny_dataset();
        let trainer = Trainer::new(TrainConfig { epochs: 12, lr: 5e-3, batch_size: 3, ..Default::default() });
        let history = trainer.fit(&mut model, &data).unwrap();
        let first = history.first().unwrap().train_loss;
        let last = history.last().unwrap().train_loss;
        assert!(last < first, "training diverged: {first} -> {last}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut xs: Vec<usize> = (0..50).collect();
        let mut rng = SeededRng::new(3);
        shuffle(&mut xs, &mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn evaluate_reports_name_and_counts() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 8);
        let data = tiny_dataset();
        let res = model.evaluate(&data);
        assert_eq!(res.predictor, "DNN-occu");
        assert_eq!(res.n, 3);
        assert!(res.mse >= 0.0 && res.mre >= 0.0);
    }

    #[test]
    fn target_transform_roundtrips() {
        for occ in [0.002f32, 0.01, 0.05, 0.2, 0.45, 0.9, 1.0] {
            let t = occupancy_to_target(occ);
            assert!((0.0..=1.0).contains(&t), "target {t} for occ {occ}");
            let back = target_to_occupancy(t);
            assert!(
                (back - occ).abs() / occ < 1e-4,
                "roundtrip {occ} -> {t} -> {back}"
            );
        }
    }

    #[test]
    fn target_transform_is_monotone_and_clamped() {
        let mut prev = -1.0f32;
        for i in 0..100 {
            let occ = 0.002 + 0.00998 * i as f32;
            let t = occupancy_to_target(occ);
            assert!(t > prev);
            prev = t;
        }
        // Below the floor clamps to 0; above 1 clamps to 1.
        assert_eq!(occupancy_to_target(0.0), 0.0);
        assert_eq!(occupancy_to_target(2.0), 1.0);
        // Out-of-range targets amplify (the blow-up mechanism).
        assert!(target_to_occupancy(1.5) > 10.0);
        assert!(target_to_occupancy(-0.5) < 1e-3);
    }

    #[test]
    fn worker_count_does_not_change_trained_parameters() {
        // Workers claim samples dynamically, but every sample's
        // gradients are merged in batch order, so any worker count must
        // produce the exact same bits as serial training with the same
        // seed. Mixed graph sizes (LeNet beside ResNet-50) make the
        // claim order differ from the batch order; the batch sizes
        // include ones the worker counts do not divide and ones
        // smaller than the worker count.
        let dev = DeviceSpec::a100();
        let mut data = tiny_dataset();
        data.samples.insert(1, make_sample(ModelId::ResNet50, ModelConfig { batch_size: 16, ..Default::default() }, &dev));
        data.samples.push(make_sample(ModelId::ResNet50, ModelConfig { batch_size: 2, ..Default::default() }, &dev));
        let fit_with = |workers: usize, batch_size: usize| {
            let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 5);
            let cfg = TrainConfig {
                epochs: 3,
                batch_size,
                parallelism: Parallelism::fixed(workers),
                ..Default::default()
            };
            let history = Trainer::new(cfg).fit(&mut model, &data).unwrap();
            (model, history.iter().map(|e| e.train_loss.to_bits()).collect::<Vec<_>>())
        };
        for batch_size in [2, 3, 5] {
            let (serial, serial_losses) = fit_with(1, batch_size);
            for workers in [2, 3, 4, 8] {
                let (parallel, losses) = fit_with(workers, batch_size);
                assert_eq!(serial_losses, losses, "losses differ between 1 and {workers} workers");
                for id in serial.store().ids() {
                    assert_eq!(
                        serial.store().value(id).data(),
                        parallel.store().value(id).data(),
                        "param {} differs between 1 and {workers} workers at batch {batch_size}",
                        serial.store().name(id),
                    );
                }
            }
        }
    }

    /// The sharded fold and step against the serial sequence it
    /// replaced — `merge` in batch order, `scale`, `clip_norm`,
    /// `Adam::step` — over two steps (so the second reads the first's
    /// moments), with the clip disabled, inactive and active. Runs on
    /// this process's rayon pool; the next test reruns it at 1, 2 and 3
    /// threads.
    #[test]
    fn sharded_fold_and_step_match_the_serial_sequence() {
        use occu_nn::Optimizer;
        let mut rng = SeededRng::new(21);
        let mut store = ParamStore::new();
        for (i, (r, c)) in [(3, 4), (1, 7), (5, 5), (16, 3), (2, 1), (33, 9)].into_iter().enumerate() {
            store.register(format!("p{i}"), Matrix::randn(r, c, 1.0, &mut rng));
        }
        let samples: Vec<GradBuffer> = (0..5)
            .map(|_| {
                let mut g = GradBuffer::for_store(&store);
                for m in g.grads_mut() {
                    *m = Matrix::randn(m.rows(), m.cols(), 1.0, &mut rng);
                }
                g
            })
            .collect();
        let adam = AdamConfig { lr: 3e-3, ..AdamConfig::default() };
        for (clip, clipped) in [(0.0, false), (1e3, false), (0.5, true)] {
            for n in [1, 2, 5] {
                for parallel in [false, true] {
                    let (mut want, mut got) = (store.clone(), store.clone());
                    let (mut want_opt, mut got_opt) = (Adam::new(&store, adam), Adam::new(&store, adam));
                    let mut want_acc = GradBuffer::for_store(&store);
                    let mut got_acc = GradBuffer::for_store(&store);
                    for batch in [&samples[..n], &samples[5 - n..]] {
                        for s in batch {
                            want_acc.merge(s);
                        }
                        if n > 1 {
                            want_acc.scale(1.0 / n as f32);
                        }
                        if clip > 0.0 {
                            assert_eq!(want_acc.norm() > clip, clipped, "clip {clip} at batch {n}");
                            want_acc.clip_norm(clip);
                        }
                        want_opt.step(&mut want, &mut want_acc);
                        let batch: Vec<&GradBuffer> = batch.iter().collect();
                        fold_and_step(&mut got, &mut got_opt, &mut got_acc, &batch, clip, parallel);
                    }
                    for id in store.ids() {
                        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(want.value(id)),
                            bits(got.value(id)),
                            "{} differs: clip {clip}, batch {n}, parallel {parallel}",
                            store.name(id),
                        );
                        assert!(got_acc.grad(id).data().iter().all(|&x| x.to_bits() == 0), "accumulator not zeroed");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_fold_and_step_match_at_one_two_and_three_threads() {
        // The pool's size is fixed per process at first use, so each
        // thread count runs the test above in a child process.
        let exe = std::env::current_exe().expect("test binary path");
        for threads in ["1", "2", "3"] {
            let out = std::process::Command::new(&exe)
                .args(["--exact", "train::tests::sharded_fold_and_step_match_the_serial_sequence", "--test-threads", "1"])
                .env("RAYON_NUM_THREADS", threads)
                .output()
                .expect("rerun the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "at {threads} threads:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr),
            );
        }
    }

    #[test]
    fn parallelism_resolves_to_at_least_one_worker() {
        assert_eq!(Parallelism::serial().resolve(), 1);
        assert_eq!(Parallelism::fixed(4).resolve(), 4);
        assert_eq!(Parallelism::fixed(0).resolve(), 1);
        assert!(Parallelism::auto().resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn instrumented_fit_matches_uninstrumented_bits() {
        // Observability records but never perturbs: parameters after
        // training with tracing + metrics on are bit-identical to the
        // silent run, and the run leaves an epoch/batch span timeline
        // plus the headline metrics behind.
        let data = tiny_dataset();
        let fit = || {
            let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 11);
            let cfg = TrainConfig { epochs: 3, batch_size: 2, parallelism: Parallelism::fixed(2), ..Default::default() };
            Trainer::new(cfg).fit(&mut model, &data).unwrap();
            model
        };
        let silent = fit();
        // Recording off (no other test in this binary switches it on):
        // a fit leaves it off and records nothing.
        assert!(!occu_obs::enabled());
        assert!(occu_obs::take_spans().is_empty(), "a silent fit recorded spans");
        assert!(occu_obs::metrics_snapshot().get("train.loss").is_none(), "a silent fit recorded metrics");
        occu_obs::enable();
        let traced = fit();
        occu_obs::disable();
        for id in silent.store().ids() {
            assert_eq!(silent.store().value(id).data(), traced.store().value(id).data());
        }
        let spans = occu_obs::take_spans();
        assert!(spans.iter().any(|s| s.name == "train.fit"));
        assert!(spans.iter().any(|s| s.name == "train.epoch"));
        let fit_span = spans.iter().find(|s| s.name == "train.fit").unwrap();
        assert!(
            spans.iter().filter(|s| s.name == "train.batch").any(|s| {
                s.parent.is_some_and(|p| spans.iter().any(|e| e.id == p && e.name == "train.epoch"))
            }),
            "batches nest under epochs"
        );
        assert!(fit_span.dur_us > 0.0);
        let snap = occu_obs::metrics_snapshot();
        assert!(snap.get("train.loss").is_some());
        assert!(snap.get("train.samples_per_sec").is_some());
        assert!(snap.get("train.grad_norm").is_some());
        assert!(snap.get("train.samples.worker0").is_some());
    }

    #[test]
    fn fit_rejects_empty_dataset() {
        let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 9);
        let e = Trainer::new(TrainConfig::default()).fit(&mut model, &Dataset::default()).unwrap_err();
        assert_eq!(e.kind(), "data");
        assert!(e.to_string().contains("empty training set"), "{e}");
    }

    #[test]
    fn fit_rejects_hostile_hyperparameters() {
        let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 9);
        let data = tiny_dataset();
        let bad = [
            TrainConfig { lr: f32::NAN, ..Default::default() },
            TrainConfig { lr: 0.0, ..Default::default() },
            TrainConfig { lr: -1e-3, ..Default::default() },
            TrainConfig { epochs: 0, ..Default::default() },
            TrainConfig { batch_size: 0, ..Default::default() },
            TrainConfig { weight_decay: f32::NAN, ..Default::default() },
            TrainConfig { clip_norm: f32::INFINITY, ..Default::default() },
        ];
        for cfg in bad {
            let e = Trainer::new(cfg).fit(&mut model, &data).unwrap_err();
            assert_eq!(e.kind(), "config", "{cfg:?}");
        }
    }
}
