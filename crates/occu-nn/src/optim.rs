//! Optimizers: Adam (the paper trains DNN-occu with Adam and default
//! hyperparameters, lr = weight_decay = 1e-4) and plain SGD.

use crate::params::ParamStore;
use crate::tape::GradBuffer;
use occu_tensor::Matrix;

/// Common optimizer interface: apply a gradient buffer to the store's
/// values, then zero the buffer for the next accumulation.
pub trait Optimizer {
    /// Applies one update step from the accumulated `grads` (shaped by
    /// [`GradBuffer::for_store`] for `store`) and zeroes them.
    fn step(&mut self, store: &mut ParamStore, grads: &mut GradBuffer);
}

/// Configuration for [`Adam`].
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Decoupled weight decay (paper: 1e-4).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        // §V: "the learning rate and weight decay are both set to
        // 0.0001. We use the Adam optimizer with default
        // hyperparameters".
        Self { lr: 1e-4, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 1e-4 }
    }
}

/// Adam with decoupled weight decay (AdamW-style).
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl Adam {
    /// Creates Adam state sized for `store`.
    pub fn new(store: &ParamStore, cfg: AdamConfig) -> Self {
        let m = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                Matrix::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self { cfg, m, v, t: 0 }
    }

    /// Convenience constructor with a custom learning rate and the
    /// paper's remaining defaults.
    pub fn with_lr(store: &ParamStore, lr: f32) -> Self {
        Self::new(store, AdamConfig { lr, ..AdamConfig::default() })
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Adjusts the learning rate (schedules live in the caller).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Starts one step: advances the step count and returns the update
    /// that [`AdamUpdate::apply`] makes to each parameter. A caller
    /// that splits the step per parameter applies it to every
    /// parameter once, with the moments from [`Adam::moments_mut`];
    /// [`Optimizer::step`] is that loop on one thread.
    pub fn begin_step(&mut self) -> AdamUpdate {
        self.t += 1;
        let AdamConfig { beta1, beta2, .. } = self.cfg;
        AdamUpdate {
            cfg: self.cfg,
            bc1: 1.0 - beta1.powi(self.t as i32),
            bc2: 1.0 - beta2.powi(self.t as i32),
        }
    }

    /// Each parameter's first and second moments, in param-id order.
    pub fn moments_mut(&mut self) -> impl Iterator<Item = (&mut Matrix, &mut Matrix)> {
        self.m.iter_mut().zip(self.v.iter_mut())
    }
}

/// One Adam step's update, as [`Adam::begin_step`] returns it: the
/// hyperparameters and the step's bias corrections.
#[derive(Clone, Copy, Debug)]
pub struct AdamUpdate {
    cfg: AdamConfig,
    bc1: f32,
    bc2: f32,
}

impl AdamUpdate {
    /// Updates one parameter's `value` and its moments `m`, `v` from
    /// its gradient `g`.
    pub fn apply(&self, value: &mut Matrix, m: &mut Matrix, v: &mut Matrix, g: &Matrix) {
        let AdamConfig { lr, beta1, beta2, eps, weight_decay } = self.cfg;
        for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut().iter_mut()).zip(g.data().iter()) {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
        }
        for ((p, &mi), &vi) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
            let m_hat = mi / self.bc1;
            let v_hat = vi / self.bc2;
            *p -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * *p);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &mut GradBuffer) {
        let update = self.begin_step();
        for ((value, (m, v)), g) in store.values_mut().zip(self.moments_mut()).zip(grads.grads()) {
            update.apply(value, m, v, g);
        }
        grads.zero();
    }
}

/// Plain stochastic gradient descent (used in tests and ablations).
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &mut GradBuffer) {
        for id in store.ids() {
            store.value_mut(id).add_scaled_assign(grads.grad(id), -self.lr);
        }
        grads.zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use crate::tape::Tape;
    use occu_tensor::SeededRng;

    /// Minimizes f(w) = mean((w - target)^2) and checks convergence.
    fn converges_with(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let mut rng = SeededRng::new(0);
        let w = store.register("w", Matrix::randn(2, 2, 1.0, &mut rng));
        let target = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        let mut grads = GradBuffer::for_store(&store);
        let mut last = f32::INFINITY;
        for _ in 0..iters {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let tv = tape.constant(target.clone());
            let loss = tape.mse_loss(wv, tv);
            last = tape.value(loss).get(0, 0);
            tape.backward_into(loss, &store, &mut grads);
            opt.step(&mut store, &mut grads);
        }
        last
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd { lr: 0.3 };
        assert!(converges_with(&mut opt, 100) < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let mut rng = SeededRng::new(0);
        let w = store.register("w", Matrix::randn(2, 2, 1.0, &mut rng));
        let target = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        let mut opt2 = Adam::new(&store, AdamConfig { lr: 0.1, weight_decay: 0.0, ..AdamConfig::default() });
        let mut grads = GradBuffer::for_store(&store);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let tv = tape.constant(target.clone());
            let loss = tape.mse_loss(wv, tv);
            last = tape.value(loss).get(0, 0);
            tape.backward_into(loss, &store, &mut grads);
            opt2.step(&mut store, &mut grads);
        }
        assert!(last < 1e-4, "Adam failed to converge: {last}");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 10.0));
        let mut opt = Adam::new(&store, AdamConfig { lr: 0.1, weight_decay: 1.0, ..AdamConfig::default() });
        // Zero gradient: only decay acts.
        let mut zero = GradBuffer::for_store(&store);
        opt.step(&mut store, &mut zero);
        assert!(store.value(w).get(0, 0) < 10.0);
    }

    #[test]
    fn step_zeroes_grads() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(1, 1));
        let mut grads = GradBuffer::for_store(&store);
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward_into(loss, &store, &mut grads);
        assert_eq!(grads.grad(w).sum(), 1.0);
        let mut opt = Sgd { lr: 0.1 };
        opt.step(&mut store, &mut grads);
        assert!((store.value(w).get(0, 0) - 0.9).abs() < 1e-6);
        assert_eq!(grads.grad(w).sum(), 0.0);
    }
}
