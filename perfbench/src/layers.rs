//! In-process replay of a workload's inputs through every layer, one
//! span per public call, so each layer's cost per call is measured on
//! that workload's own graphs.
//!
//! One replayed item runs, in order: `occu-models` build →
//! `occu-graph` fingerprint → `occu-core::features` featurize →
//! `occu-gpusim` profile → `occu-core::plan` compile (first time a
//! graph shape is seen) and execute → `occu-nn` tape forward and
//! backward. Serving a cold request runs the first five; labelling a
//! training sample runs build, profile and featurize; a training step
//! runs forward and backward. The notes in `NOTES.md` say which layers
//! lie on which workload's path.

use crate::trace::Tracer;
use occu_core::{CompiledPlan, DnnOccu, FeaturizedGraph, OccuPredictor};
use occu_gpusim::DeviceSpec;
use occu_models::{ModelConfig, ModelId};
use occu_nn::{GradBuffer, Tape, Var};
use occu_tensor::Matrix;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One replayed input.
#[derive(Clone, Debug)]
pub struct Item {
    pub model: ModelId,
    pub cfg: ModelConfig,
    pub device: DeviceSpec,
}

pub struct Replay<'m> {
    model: &'m DnnOccu,
    plans: HashMap<(usize, usize), CompiledPlan>,
    tape: Tape,
    /// Graph node counts of the replayed items (GEMM shape quartiles).
    pub nodes: Vec<usize>,
}

impl<'m> Replay<'m> {
    pub fn new(model: &'m DnnOccu) -> Self {
        Replay {
            model,
            plans: HashMap::new(),
            tape: Tape::new(),
            nodes: Vec::new(),
        }
    }

    /// Replays one item under a `replay.item` root span.
    pub fn item(&mut self, tr: &mut Tracer, item: &Item) {
        tr.span("replay.item", |tr| {
            let graph = tr.span("models.build", |_| item.model.build(&item.cfg));
            black_box(tr.span("graph.fingerprint", |_| graph.fingerprint()));
            let fg = tr.span("features.featurize", |_| {
                occu_core::features::featurize(&graph, &item.device)
            });
            black_box(tr.span("gpusim.profile", |_| {
                occu_gpusim::profile_graph(&graph, &item.device)
            }));
            let key = (fg.num_nodes(), fg.edge_src.len());
            if !self.plans.contains_key(&key) {
                let plan = tr.span("plan.compile", |_| self.model.compile_plan_for(&fg));
                self.plans.insert(key, plan);
            }
            let plan = &self.plans[&key];
            black_box(tr.span("plan.execute", |_| plan.predict(&fg)));
            let (model, tape) = (self.model, &mut self.tape);
            let loss = tr.span("nn.forward", |_| forward_loss(model, tape, &fg));
            tr.span("nn.backward", |_| backward(model, tape, loss));
            self.nodes.push(fg.num_nodes());
        });
    }

    /// The same calls with no spans; returns the wall time.
    pub fn item_untraced(&mut self, item: &Item) -> Duration {
        let t = Instant::now();
        let graph = item.model.build(&item.cfg);
        black_box(graph.fingerprint());
        let fg = occu_core::features::featurize(&graph, &item.device);
        black_box(occu_gpusim::profile_graph(&graph, &item.device));
        let key = (fg.num_nodes(), fg.edge_src.len());
        let model = self.model;
        let plan = self
            .plans
            .entry(key)
            .or_insert_with(|| model.compile_plan_for(&fg));
        black_box(plan.predict(&fg));
        fwd_bwd(model, &mut self.tape, &fg);
        t.elapsed()
    }
}

/// One training step's tape work on `fg`: forward and loss, then
/// backward into a fresh gradient buffer.
pub fn fwd_bwd(model: &DnnOccu, tape: &mut Tape, fg: &FeaturizedGraph) {
    let loss = forward_loss(model, tape, fg);
    backward(model, tape, loss);
}

fn forward_loss(model: &DnnOccu, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
    tape.clear();
    let y = model.forward(tape, fg);
    let t = tape.constant(Matrix::from_vec(1, 1, vec![0.5]));
    tape.mse_loss(y, t)
}

fn backward(model: &DnnOccu, tape: &mut Tape, loss: Var) {
    let mut buf = GradBuffer::for_store(model.store());
    tape.backward_into(loss, model.store(), &mut buf);
    black_box(buf);
}

/// Replays `items` in order until `budget` is spent (at least one),
/// then re-runs a prefix untraced and traced in alternating order to
/// measure what the spans cost. Returns `(replayed, traced / untraced)`.
pub fn replay_for(
    tr: &mut Tracer,
    replay: &mut Replay,
    items: &mut dyn Iterator<Item = Item>,
    budget: Duration,
) -> (usize, f64) {
    let start = Instant::now();
    let main_budget = budget.mul_f64(0.7);
    let mut done: Vec<Item> = Vec::new();
    for item in &mut *items {
        replay.item(tr, &item);
        done.push(item);
        if start.elapsed() >= main_budget {
            break;
        }
    }
    // Overhead pairs reuse the compiled plans, so neither side compiles.
    let (mut traced, mut untraced) = (0.0, 0.0);
    let mut scratch = Tracer::new(Instant::now());
    for (i, item) in done.iter().cycle().enumerate() {
        let time_traced = |replay: &mut Replay, scratch: &mut Tracer| {
            let t = Instant::now();
            replay.item(scratch, item);
            t.elapsed().as_secs_f64()
        };
        if i % 2 == 0 {
            untraced += replay.item_untraced(item).as_secs_f64();
            traced += time_traced(replay, &mut scratch);
        } else {
            traced += time_traced(replay, &mut scratch);
            untraced += replay.item_untraced(item).as_secs_f64();
        }
        if start.elapsed() >= budget && i >= 1 {
            break;
        }
    }
    // The pairs' spans measured the overhead only; keep the replay's
    // item statistics to the first pass.
    let first_pass = done.len();
    replay.nodes.truncate(first_pass);
    (first_pass, traced / untraced)
}

/// Achieved GFLOP/s of `(n x h)·(h x h)` and of the transposed-operand
/// product `(n x h)·(h x h)ᵀ`, as the GNN layers issue them.
pub fn gemm_gflops(n: usize, h: usize) -> (f64, f64) {
    let mut rng = occu_tensor::SeededRng::new(n as u64);
    let a = Matrix::rand_uniform(n, h, -1.0, 1.0, &mut rng);
    let b = Matrix::rand_uniform(h, h, -1.0, 1.0, &mut rng);
    let mut out = Matrix::zeros(n, h);
    let flops = 2.0 * (n * h * h) as f64;
    let time = |f: &mut dyn FnMut()| {
        f();
        let t = Instant::now();
        let mut reps = 0u64;
        while t.elapsed() < Duration::from_millis(40) {
            f();
            reps += 1;
        }
        flops * reps as f64 / t.elapsed().as_secs_f64() / 1e9
    };
    let fwd = time(&mut || {
        a.matmul_into(&b, &mut out);
        black_box(&out);
    });
    let tb = time(&mut || {
        a.matmul_transb_into(&b, &mut out);
        black_box(&out);
    });
    (fwd, tb)
}

/// Quartiles of the replayed node counts.
pub fn node_quartiles(nodes: &[usize]) -> [usize; 3] {
    let mut s = nodes.to_vec();
    s.sort_unstable();
    let q = |p: f64| s[((p * (s.len() - 1) as f64).round() as usize).min(s.len() - 1)];
    [q(0.25), q(0.5), q(0.75)]
}
