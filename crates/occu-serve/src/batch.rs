//! The per-shard micro-batch collectors.
//!
//! Worker threads submit one [`PredictJob`] per cache miss onto the
//! owning shard's bounded [`FairQueue`] (one lane per tenant). Each
//! shard runs one collector thread that drains its queue under the
//! weighted round-robin policy, coalescing everything that arrives
//! within a short window (or until `max_batch`) — then groups the
//! batch *by tenant*, snapshots each tenant's model once, runs one
//! compiled-plan sweep per group, and fans the scalars back out over
//! per-job reply channels.
//!
//! A panic while running a group fails only that group: its jobs'
//! reply senders drop during the unwind, so their workers answer 500
//! at once, and the collector goes on to the next group.
//!
//! The per-tenant model `Arc` is snapshotted once per group, so a
//! hot-reload that lands mid-batch takes effect on the *next* batch;
//! jobs already collected finish on the model they were batched
//! under. Compiled plans live in the tenant's own [`PlanCache`] and
//! are keyed on the snapshotted version, so the mid-batch-reload
//! guarantee holds identically: a group runs entirely on plans
//! compiled from the model it was batched under — stale plans are
//! unreachable by construction.

use occu_core::FeaturizedGraph;
use occu_fleet::{FairQueue, FleetRegistry};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Collector tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// How long the collector waits after the first job for
    /// companions before running the batch.
    pub window: Duration,
    /// Upper bound on jobs per batch; reached → run immediately.
    pub max_batch: usize,
}

/// One cache-missed prediction waiting for its tenant's model.
pub struct PredictJob {
    /// Featurized input, ready for the forward pass.
    pub features: FeaturizedGraph,
    /// When the worker submitted the job — the collector measures
    /// batch-window dwell against this.
    pub submitted_at: Instant,
    /// Where the prediction goes. Send failures are ignored — the
    /// requester may have timed out and hung up. Dropped unanswered
    /// if the job's group panics.
    pub reply: SyncSender<PredictReply>,
}

/// A prediction plus the collector-side timing the worker charges to
/// the request's stage breakdown.
#[derive(Clone, Copy, Debug)]
pub struct PredictReply {
    /// The predicted occupancy.
    pub occupancy: f32,
    /// Submit → model-invocation wait (batch-window dwell), µs.
    pub dwell_us: f64,
    /// Wall time of this job's own model invocation (plan lookup,
    /// compiling it on a plan-cache miss, and executing it), µs.
    pub predict_us: f64,
}

/// Handle to one shard's collector thread.
pub struct ShardCollector {
    handle: Option<JoinHandle<()>>,
}

impl ShardCollector {
    /// Spawns the collector for `queue` (whose lanes index the
    /// fleet's tenants). It runs until `shutdown` is set *and* the
    /// queue is drained, so every job a worker managed to enqueue is
    /// answered.
    pub fn start(
        shard_id: u32,
        cfg: BatchConfig,
        fleet: Arc<FleetRegistry>,
        queue: Arc<FairQueue<PredictJob>>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let max_batch = cfg.max_batch.max(1);
        let window = cfg.window;
        let handle = thread::Builder::new()
            .name(format!("occu-serve-shard-{shard_id}"))
            .spawn(move || {
                let batches = occu_obs::counter("serve.batches");
                let predictions = occu_obs::counter("serve.predictions");
                let batch_size =
                    occu_obs::histogram("serve.batch.size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
                loop {
                    // Block for the first job of the next batch.
                    let first = match queue.pop_timeout(Duration::from_millis(50)) {
                        Some(job) => job,
                        None => {
                            if shutdown.load(Ordering::SeqCst) && queue.is_empty() {
                                return;
                            }
                            continue;
                        }
                    };
                    let mut jobs = vec![first];
                    let deadline = Instant::now() + window;
                    while jobs.len() < max_batch {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match queue.pop_timeout(deadline - now) {
                            Some(job) => jobs.push(job),
                            None => break,
                        }
                    }
                    batches.inc();
                    predictions.add(jobs.len() as u64);
                    batch_size.observe(jobs.len() as f64);

                    // Group by tenant lane; each group snapshots its
                    // own model once and executes together.
                    let mut groups: Vec<Vec<PredictJob>> =
                        (0..fleet.len()).map(|_| Vec::new()).collect();
                    for (lane, job) in jobs {
                        groups[lane].push(job);
                    }
                    for (lane, group) in groups.into_iter().enumerate() {
                        if group.is_empty() {
                            continue;
                        }
                        let size = group.len();
                        if catch_unwind(AssertUnwindSafe(|| run_group(&fleet, lane, group)))
                            .is_err()
                        {
                            occu_obs::error!(
                                "serve: shard {shard_id} failed a batch of {size} prediction(s)"
                            );
                        }
                    }
                }
            })
            .expect("spawn shard collector thread");
        Self { handle: Some(handle) }
    }
}

/// Executes one tenant's slice of a batch and fans replies out.
fn run_group(fleet: &FleetRegistry, lane: usize, group: Vec<PredictJob>) {
    let slot = &fleet.slots()[lane];
    let loaded = slot.registry.current();
    let precision = slot.precision();
    let exec_start = Instant::now();
    let (feats, meta): (Vec<_>, Vec<_>) = group
        .into_iter()
        .map(|j| (j.features, (j.reply, j.submitted_at)))
        .unzip();
    // Each forward executes the cached compiled plan for its graph
    // shape (bitwise-equal to the tape at f32; see `occu-core::plan`),
    // timed on the thread that runs it.
    let preds: Vec<(f32, f64)> = feats
        .par_iter()
        .map(|fg| {
            let start = Instant::now();
            let pred = slot
                .plan_cache
                .get_or_compile(&loaded.model, loaded.version, fg, precision)
                .predict(fg);
            (pred, start.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    slot.predictions.fetch_add(preds.len() as u64, Ordering::Relaxed);
    for ((reply, submitted_at), (occupancy, predict_us)) in meta.into_iter().zip(preds) {
        let dwell_us =
            exec_start.saturating_duration_since(submitted_at).as_secs_f64() * 1e6;
        let _ = reply.send(PredictReply { occupancy, dwell_us, predict_us });
    }
}

impl Drop for ShardCollector {
    /// Joins the collector. Set the shutdown flag (and join the
    /// workers submitting jobs) before dropping, or this blocks until
    /// the collector's next idle poll observes the flag.
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use occu_core::dataset::make_sample;
    use occu_core::{DnnOccu, DnnOccuConfig};
    use occu_gpusim::DeviceSpec;
    use occu_models::ModelId;
    use std::sync::mpsc::{self, RecvTimeoutError};

    fn submit(queue: &FairQueue<PredictJob>, features: FeaturizedGraph) -> mpsc::Receiver<PredictReply> {
        let (reply, rx) = mpsc::sync_channel(1);
        let job = PredictJob { features, submitted_at: Instant::now(), reply };
        assert!(queue.push(0, job).is_ok(), "queue has room");
        rx
    }

    #[test]
    fn collector_survives_a_panicking_group() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 3);
        let good = make_sample(ModelId::LeNet, ModelId::LeNet.default_config(), &DeviceSpec::a100())
            .features;
        let want = model.compile_plan_for(&good).predict(&good);
        let mut bad = good.clone();
        bad.edge_src[0] = bad.num_nodes() + 5;

        let fleet = FleetRegistry::single(Arc::new(ModelRegistry::from_model(model, "m.json")));
        let queue = Arc::new(FairQueue::new(16, &fleet.weights()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = BatchConfig { window: Duration::from_micros(100), max_batch: 8 };
        let collector =
            ShardCollector::start(0, cfg, fleet, Arc::clone(&queue), Arc::clone(&shutdown));

        // The bad job's group panics: its reply sender is dropped
        // unanswered, well before any reply timeout.
        let bad_rx = submit(&queue, bad);
        match bad_rx.recv_timeout(Duration::from_secs(10)) {
            Err(RecvTimeoutError::Disconnected) => {}
            other => panic!("bad job must fail promptly, got {other:?}"),
        }
        // The same collector still serves the next job.
        let good_rx = submit(&queue, good);
        let reply = good_rx.recv_timeout(Duration::from_secs(10)).expect("valid job answered");
        assert_eq!(reply.occupancy.to_bits(), want.to_bits());

        shutdown.store(true, Ordering::SeqCst);
        drop(collector);
    }
}
