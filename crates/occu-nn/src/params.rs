//! The parameter store: owns the values and names of a model's weights.

use occu_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Handle to a trainable parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// Owns every trainable matrix of a model, with a debug name each.
///
/// Layers register parameters at construction time and keep only
/// [`ParamId`] handles; each forward pass copies the current value
/// onto the [`crate::Tape`]. Gradients never live here: a
/// [`crate::GradBuffer`] shaped by [`crate::GradBuffer::for_store`]
/// collects them ([`crate::Tape::backward_into`]), and an
/// [`crate::Optimizer`] applies the buffer to the store and zeroes it.
/// A loaded model therefore carries its weights and nothing else, and
/// its JSON holds `values` and `names` (a `grads` field written by
/// older versions is ignored on load).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self { values: Vec::new(), names: Vec::new() }
    }

    /// Registers a parameter with an initial value and a debug name.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Registers a zero-initialized parameter (biases, LayerNorm beta).
    pub fn register_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.register(name, Matrix::zeros(rows, cols))
    }

    /// Registers a Xavier-uniform initialized `fan_in x fan_out` weight.
    pub fn register_xavier(
        &mut self,
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut SeededRng,
    ) -> ParamId {
        self.register(name, occu_tensor::xavier_uniform(fan_in, fan_out, rng))
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Every parameter's value, in param-id order, for callers that
    /// update each parameter separately.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, Matrix> {
        self.values.iter_mut()
    }

    /// Debug name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Serializes parameter values and names to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore serialization cannot fail")
    }

    /// Restores a store from [`ParamStore::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::ones(2, 3));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.value(id).shape(), (2, 3));
        assert_eq!(store.name(id), "w");
    }

    #[test]
    fn zero_grads_resets() {
        // Gradients for a store live in a GradBuffer shaped by it; zeroing
        // the buffer resets every parameter's gradient and keeps its shape.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        let b = store.register_zeros("b", 1, 3);
        let mut grads = crate::GradBuffer::for_store(&store);
        assert_eq!(grads.grad(w).shape(), store.value(w).shape());
        assert_eq!(grads.grad(b).shape(), store.value(b).shape());
        let mut tape = crate::Tape::new();
        let (wv, bv) = (tape.param(&store, w), tape.param(&store, b));
        let (sw, sb) = (tape.sum_all(wv), tape.sum_all(bv));
        let loss = tape.sub(sw, sb);
        tape.backward_into(loss, &store, &mut grads);
        assert_eq!(grads.grad(w).sum(), 4.0);
        assert_eq!(grads.grad(b).sum(), -3.0);
        grads.zero();
        assert_eq!(grads.grad(w).sum(), 0.0);
        assert_eq!(grads.grad(b).sum(), 0.0);
        assert_eq!(grads.grad(w).shape(), (2, 2));
        assert_eq!(store.value(w).sum(), 4.0, "zeroing gradients leaves values alone");
    }

    #[test]
    fn json_roundtrip() {
        let mut store = ParamStore::new();
        let mut rng = SeededRng::new(5);
        store.register_xavier("w1", 4, 8, &mut rng);
        store.register_zeros("b1", 1, 8);
        let json = store.to_json();
        let restored = ParamStore::from_json(&json).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.value(ParamId(0)), store.value(ParamId(0)));
    }
}
