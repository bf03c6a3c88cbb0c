//! Cache-miss jobs and the one function that runs them.
//!
//! A worker thread submits one [`PredictJob`] per cache miss onto the
//! server's bounded [`occu_fleet::FairQueue`] (one lane per tenant),
//! then drains that queue itself: it pops jobs in weighted
//! round-robin order, whichever request they belong to, and hands each
//! to [`run_job`] until its own replies are in or the queue is empty
//! (see `predict_many` in [`crate::server`]). No thread waits for
//! companions and no thread sits between a job and its worker.
//!
//! A panic while running a job fails only that job: its reply sender
//! drops unanswered, so the worker that submitted it answers 500 at
//! once, and the thread that ran it goes on draining.
//!
//! The tenant's model `Arc` is snapshotted when the job starts, so a
//! hot-reload that lands while jobs are queued takes effect on the
//! jobs started after it; a job already running finishes on the model
//! it started on. Compiled plans live in the tenant's own
//! [`occu_fleet::PlanCache`] and are keyed on the snapshotted version,
//! so a job runs entirely on a plan compiled from the model it
//! snapshotted — stale plans are unreachable by construction.

use occu_core::FeaturizedGraph;
use occu_fleet::FleetRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::time::Instant;

/// One cache-missed prediction waiting for its tenant's model.
pub struct PredictJob {
    /// Featurized input, ready for the forward pass.
    pub features: FeaturizedGraph,
    /// Where the prediction goes. Send failures are ignored — the
    /// requester may have timed out and hung up. Dropped unanswered
    /// if the job panics.
    pub reply: SyncSender<PredictReply>,
}

/// A prediction plus the timing the submitting worker charges to the
/// request's `predict` stage.
#[derive(Clone, Copy, Debug)]
pub struct PredictReply {
    /// The predicted occupancy.
    pub occupancy: f32,
    /// Wall time of this job's own model invocation (plan lookup,
    /// compiling it on a plan-cache miss, and executing it), µs.
    pub predict_us: f64,
}

/// Runs one job popped from `lane` of the miss queue on the calling
/// thread and sends its reply. A panicking forward pass is contained
/// here: the job's reply sender drops, and the caller carries on.
pub fn run_job(fleet: &FleetRegistry, lane: usize, job: PredictJob) {
    let start = Instant::now();
    let PredictJob { features, reply } = job;
    let slot = &fleet.slots()[lane];
    let loaded = slot.registry.current();
    let precision = slot.precision();
    // The cached compiled plan for the graph's shape (bitwise-equal
    // to the tape at f32; see `occu-core::plan`).
    let ran = catch_unwind(AssertUnwindSafe(|| {
        slot.plan_cache
            .get_or_compile(&loaded.model, loaded.version, &features, precision)
            .predict(&features)
    }));
    match ran {
        Ok(occupancy) => {
            slot.predictions.fetch_add(1, Ordering::Relaxed);
            let predict_us = start.elapsed().as_secs_f64() * 1e6;
            let _ = reply.send(PredictReply { occupancy, predict_us });
        }
        Err(_) => occu_obs::error!("serve: a prediction for tenant '{}' failed", slot.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occu_core::dataset::make_sample;
    use occu_core::{DnnOccu, DnnOccuConfig};
    use occu_fleet::{FairQueue, ModelRegistry};
    use occu_gpusim::DeviceSpec;
    use occu_models::ModelId;
    use std::sync::mpsc::{self, TryRecvError};
    use std::sync::Arc;

    fn submit(queue: &FairQueue<PredictJob>, features: FeaturizedGraph) -> mpsc::Receiver<PredictReply> {
        let (reply, rx) = mpsc::sync_channel(1);
        let job = PredictJob { features, reply };
        assert!(queue.push(0, job).is_ok(), "queue has room");
        rx
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_drain_goes_on() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 3);
        let good = make_sample(ModelId::LeNet, ModelId::LeNet.default_config(), &DeviceSpec::a100())
            .features;
        let want = model.compile_plan_for(&good).predict(&good);
        let mut bad = good.clone();
        bad.edge_src[0] = bad.num_nodes() + 5;

        let fleet = FleetRegistry::single(Arc::new(ModelRegistry::from_model(model, "m.json")));
        let queue = FairQueue::new(16, &fleet.weights());
        let bad_rx = submit(&queue, bad);
        let good_rx = submit(&queue, good);

        // Drain on this thread: the bad job panics inside `run_job`,
        // which must not unwind into the loop.
        let mut ran = 0;
        while let Some((lane, job)) = queue.try_pop() {
            run_job(&fleet, lane, job);
            ran += 1;
        }
        assert_eq!(ran, 2, "the drain stopped at the panicking job");

        // The bad job's reply sender is gone: its worker answers 500
        // at once instead of waiting out a timeout.
        assert_eq!(bad_rx.try_recv().err(), Some(TryRecvError::Disconnected));
        let reply = good_rx.try_recv().expect("valid job answered");
        assert_eq!(reply.occupancy.to_bits(), want.to_bits());
    }
}
