//! The autodiff tape: a per-forward-pass record of operations with
//! reverse-mode gradient propagation.
//!
//! Every tape owns a [`ScratchArena`]: node values, backward gradient
//! slots, and backward temporaries are all taken from (and recycled
//! into) the arena, so after a warm-up pass a reused tape performs
//! zero heap allocations per forward/backward iteration — the arena's
//! free lists already hold a buffer of every shape the model produces.
//! [`Tape::clear`] returns all node storage to the arena between
//! samples, and the index and bucket-map copies of gather, scatter and
//! SPD-bias ops to free lists of their own.
//!
//! Both directions run `occu-tensor`'s kernels: the GELU, sigmoid and
//! tanh forwards and the GELU backward go through its vectorised
//! polynomial exp, the same kernels compiled plans call. The SPD
//! attention bias is one gather op whose backward sums the gradient per
//! bucket, the same gather a plan's `SpdBias` instruction performs.
//! Multi-head attention is one node: its forward is the fused kernel a
//! plan's `Attention` instruction runs, keeping each head's softmax
//! rows, and its backward is the kernel's fused backward, with the
//! bits of the per-head op sequence (slices, `matmul_transb`, scale,
//! bias add, softmax, `matmul`, `hcat`) the tape once recorded.

use crate::layers::Activation;
use crate::params::{ParamId, ParamStore};
use crate::record::Recorder;
use occu_tensor::{Matrix, ScratchArena};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// One recorded operation. Parents are earlier tape indices, so a
/// single reverse sweep over the node list is a valid reverse
/// topological order.
enum Op {
    /// Constant input (no gradient flows out of the tape).
    Leaf,
    /// Trainable parameter; backward accumulates into the store.
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `x + broadcast(row)` where `row` is `1 x cols`.
    AddRowBroadcast(Var, Var),
    /// `x * broadcast(row)` elementwise per row.
    MulRowBroadcast(Var, Var),
    Matmul(Var, Var),
    /// `a * b^T` without materializing the transpose.
    MatmulTransB(Var, Var),
    Scale(Var, f32),
    LeakyRelu(Var, f32),
    Relu(Var),
    Gelu(Var),
    Sigmoid(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    /// Row-wise layer normalization (no affine; compose with
    /// `mul_row_broadcast`/`add_row_broadcast` for gamma/beta).
    LayerNormRows(Var),
    /// Fused row-wise layer normalization with affine transform:
    /// `y = layernorm(x) * gamma + beta`, one op instead of three.
    LayerNormAffine(Var, Var, Var),
    /// Fused `a * w + broadcast(bias)` — the linear-layer forward as a
    /// single op with no pre-bias intermediate.
    MatmulBias(Var, Var, Var),
    /// `y[i][j] = x[i][j] * col[i][0]` where `col` is `rows x 1` —
    /// per-row gating (ANEE attention weights) without materializing
    /// the broadcast.
    MulColBroadcast(Var, Var),
    MeanAll(Var),
    SumAll(Var),
    MeanRows(Var),
    HCat(Var, Var),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Vec<usize>),
    /// `out[indices[i]] += x[i]` over `out_rows` output rows (the row
    /// count is implied by the output's stored value in backward).
    ScatterAddRows(Var, Vec<usize>, #[allow(dead_code)] usize),
    Square(Var),
    /// `y[i][j] = theta[spd[i * n + j]]`, the shortest-path attention
    /// bias. `theta[b]` is the `1x1` parameter node `first_theta + b`,
    /// recorded just before this op, one per bucket.
    SpdBias { first_theta: usize, buckets: usize, spd: Vec<u8> },
    /// Multi-head attention through `occu-tensor`'s fused kernel;
    /// `probs` (`heads * n x m`, arena storage) keeps every head's
    /// softmax rows for backward.
    Attention { q: Var, k: Var, v: Var, bias: Option<Var>, heads: usize, scale: f32, probs: Matrix },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Parameter-gradient accumulator, keyed by [`ParamId`]: the only
/// place gradients live.
///
/// Holds one gradient matrix per parameter in a store, letting
/// [`Tape::backward_into`] run without mutating the shared
/// [`ParamStore`]. Training workers fill one buffer per sample,
/// side-effect-free and in parallel; the trainer merges them into an
/// accumulator buffer in sample order (each merge in ascending
/// param-id order), so the sum is identical for every worker count,
/// and an [`crate::Optimizer`] applies the accumulator and zeroes it.
/// Buffers are reused: [`GradBuffer::zero`] keeps the allocations.
pub struct GradBuffer {
    grads: Vec<Matrix>,
}

impl GradBuffer {
    /// Creates a zeroed buffer shaped like `store`'s parameters.
    pub fn for_store(store: &ParamStore) -> Self {
        let grads = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self { grads }
    }

    /// Number of parameters tracked.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when no parameters are tracked.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Resets every gradient to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// Accumulated gradient for one parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Every parameter's gradient, in param-id order.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }

    /// Every parameter's gradient, in param-id order, for callers that
    /// split the work per parameter.
    pub fn grads_mut(&mut self) -> &mut [Matrix] {
        &mut self.grads
    }

    fn accumulate(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id.0].add_assign(g);
    }

    /// Adds another buffer into this one, in fixed param-id order.
    pub fn merge(&mut self, other: &GradBuffer) {
        assert_eq!(self.grads.len(), other.grads.len(), "merge: buffer sizes differ");
        for (dst, src) in self.grads.iter_mut().zip(other.grads.iter()) {
            dst.add_assign(src);
        }
    }

    /// Multiplies every gradient by `s` (averaging an accumulated
    /// batch).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.grads {
            g.map_inplace(|x| x * s);
        }
    }

    /// Global L2 norm of all gradients — for clipping and for
    /// monitoring training health.
    pub fn norm(&self) -> f32 {
        Self::norm_from_sum_sq(self.grads.iter().map(Self::sum_sq))
    }

    /// One parameter's term of [`GradBuffer::norm`]: the sum of its
    /// gradient's squares, in element order.
    pub fn sum_sq(g: &Matrix) -> f32 {
        g.data().iter().map(|x| x * x).sum()
    }

    /// [`GradBuffer::norm`] from the per-parameter
    /// [`GradBuffer::sum_sq`] terms, summed in param-id order.
    pub fn norm_from_sum_sq(terms: impl IntoIterator<Item = f32>) -> f32 {
        terms.into_iter().sum::<f32>().sqrt()
    }

    /// The factor [`GradBuffer::clip_norm`] scales every gradient by
    /// when their global norm is `norm`, or `None` when it leaves them
    /// as they are.
    pub fn clip_scale(norm: f32, max_norm: f32) -> Option<f32> {
        (norm > max_norm && norm > 0.0).then(|| max_norm / norm)
    }

    /// Scales the gradients so their global norm does not exceed
    /// `max_norm`.
    pub fn clip_norm(&mut self, max_norm: f32) {
        if let Some(s) = Self::clip_scale(self.norm(), max_norm) {
            self.scale(s);
        }
    }
}

/// Records a computation graph for one forward pass.
///
/// The tape is append-only; [`Var`]s index into it. Values are stored
/// eagerly (define-by-run), so any intermediate can be inspected with
/// [`Tape::value`]. The ops layers are written in come from its
/// [`Recorder`] implementation; the inherent methods add what only
/// training and the baselines use (constants, losses, `sub`, row
/// broadcasts, named activations). Call [`Tape::backward_into`] on a
/// scalar (`1x1`) output to collect parameter gradients in a
/// [`GradBuffer`]; the store is only read. Reuse one tape across samples with
/// [`Tape::clear`]: node storage returns to the embedded scratch
/// arena, so steady-state passes allocate nothing.
pub struct Tape {
    nodes: Vec<Node>,
    /// Recycled storage for node values and backward temporaries. A
    /// `RefCell` so `backward` can stay `&self` while drawing scratch.
    arena: RefCell<ScratchArena>,
    /// Reusable gradient-slot vector for the reverse sweep.
    grad_slots: RefCell<Vec<Option<Matrix>>>,
    /// Recycled index buffers for gather/scatter ops. FIFO so a
    /// repeated op sequence gets back the same-capacity buffer it
    /// recycled last pass.
    free_indices: VecDeque<Vec<usize>>,
    /// Recycled bucket maps for the SPD-bias op.
    free_spd: Vec<Vec<u8>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            arena: RefCell::new(ScratchArena::new()),
            grad_slots: RefCell::new(Vec::new()),
            free_indices: VecDeque::new(),
            free_spd: Vec::new(),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Arena-allocation counters `(takes, fresh_allocs, bytes)` for
    /// this tape's scratch arena — the hook for zero-allocation
    /// steady-state assertions and the serving high-water gauge.
    pub fn arena_stats(&self) -> (u64, u64, usize) {
        let a = self.arena.borrow();
        (a.takes(), a.fresh_allocs(), a.allocated_bytes())
    }

    /// Drops all recorded nodes, returning their storage to the
    /// scratch arena so the next pass reuses it instead of
    /// reallocating.
    pub fn clear(&mut self) {
        let mut arena = self.arena.borrow_mut();
        for node in self.nodes.drain(..) {
            arena.recycle(node.value);
            match node.op {
                Op::GatherRows(_, mut idx) | Op::ScatterAddRows(_, mut idx, _) => {
                    idx.clear();
                    self.free_indices.push_back(idx);
                }
                Op::SpdBias { mut spd, .. } => {
                    spd.clear();
                    self.free_spd.push(spd);
                }
                Op::Attention { probs, .. } => arena.recycle(probs),
                _ => {}
            }
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Takes a zeroed `r x c` scratch matrix from the arena.
    fn take(&self, r: usize, c: usize) -> Matrix {
        self.arena.borrow_mut().take_zeroed(r, c)
    }

    /// Takes an arena matrix holding a copy of `src`.
    fn take_copy(&self, src: &Matrix) -> Matrix {
        self.arena.borrow_mut().take_copy(src)
    }

    /// Takes a recycled index buffer holding a copy of `indices`.
    fn take_indices(&mut self, indices: &[usize]) -> Vec<usize> {
        let mut v = self.free_indices.pop_front().unwrap_or_default();
        v.extend_from_slice(indices);
        v
    }

    /// Records a constant input. The value is copied into arena
    /// storage and `value` is dropped, so a tape reused across samples
    /// does not collect one foreign buffer per call in its free lists.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.constant_ref(&value)
    }

    /// Records a constant input by copying it into arena-managed
    /// storage — the allocation-free form for hot-path callers that
    /// hold the value elsewhere.
    pub fn constant_ref(&mut self, value: &Matrix) -> Var {
        let v = self.take_copy(value);
        self.push(v, Op::Leaf)
    }

    /// Records an all-zero constant in arena-managed storage.
    pub fn constant_zeros(&mut self, rows: usize, cols: usize) -> Var {
        let v = self.take(rows, cols);
        self.push(v, Op::Leaf)
    }

    /// Records a constant built in place: `fill` receives a zeroed
    /// `rows x cols` arena matrix to populate. Lets callers construct
    /// masks and indicator matrices without a fresh heap allocation.
    pub fn constant_zeroed_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Matrix)) -> Var {
        let mut v = self.take(rows, cols);
        fill(&mut v);
        self.push(v, Op::Leaf)
    }

    /// Current value of a recorded variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    // --- elementwise/binary ---

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take(self.shape(a).0, self.shape(a).1);
        self.value(a).zip_map_into(self.value(b), &mut out, |x, y| x - y);
        self.push(out, Op::Sub(a, b))
    }

    /// Adds a `1 x cols` row vector to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, row: Var) -> Var {
        let mut out = self.take_copy(self.value(x));
        out.add_bias_rowwise(self.value(row));
        self.push(out, Op::AddRowBroadcast(x, row))
    }

    /// Multiplies every row of `x` elementwise by a `1 x cols` vector.
    pub fn mul_row_broadcast(&mut self, x: Var, row: Var) -> Var {
        let (r, c) = self.shape(x);
        assert_eq!(self.shape(row), (1, c), "mul_row_broadcast: width mismatch");
        let mut out = self.take_copy(self.value(x));
        let rowv = self.value(row);
        for i in 0..r {
            for (o, &m) in out.row_mut(i).iter_mut().zip(rowv.row(0).iter()) {
                *o *= m;
            }
        }
        self.push(out, Op::MulRowBroadcast(x, row))
    }

    /// Fused linear layer: `a * w + broadcast(bias)` as one op. Saves
    /// a tape node and an intermediate versus `matmul` followed by
    /// `add_row_broadcast`.
    pub fn matmul_bias(&mut self, a: Var, w: Var, bias: Var) -> Var {
        let (m, _) = self.shape(a);
        let n = self.shape(w).1;
        assert_eq!(self.shape(bias), (1, n), "matmul_bias: bias must be 1x{n}");
        let mut out = self.take(m, n);
        self.value(a).matmul_into(self.value(w), &mut out);
        out.add_bias_rowwise(self.value(bias));
        self.push(out, Op::MatmulBias(a, w, bias))
    }

    // --- activations ---

    /// Scalar multiple `x * s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).map_into(&mut out, |e| e * s);
        self.push(out, Op::Scale(x, s))
    }

    /// `a * b^T` without materializing the transpose.
    pub fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take(self.shape(a).0, self.shape(b).0);
        self.value(a).matmul_transb_into(self.value(b), &mut out);
        self.push(out, Op::MatmulTransB(a, b))
    }

    /// Column slice `[start, end)` of every row.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.shape(x);
        assert!(start <= end && end <= cols, "slice_cols: {start}..{end} out of {cols} cols");
        let mut out = self.take(rows, end - start);
        {
            let src = self.value(x);
            for r in 0..rows {
                out.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
            }
        }
        self.push(out, Op::SliceCols(x, start, end))
    }

    /// LeakyReLU with negative slope `alpha` (paper's ANEE uses this).
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).map_into(&mut out, |e| if e >= 0.0 { e } else { alpha * e });
        self.push(out, Op::LeakyRelu(x, alpha))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).map_into(&mut out, |e| e.max(0.0));
        self.push(out, Op::Relu(x))
    }

    /// GELU (tanh approximation), used inside transformer FFNs. This
    /// and the two activations below run `occu-tensor`'s kernels on
    /// its polynomial exp, the ones compiled plans run too; the GELU
    /// backward multiplies by its slope through the same tanh.
    pub fn gelu(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).gelu_into(&mut out);
        self.push(out, Op::Gelu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).sigmoid_into(&mut out);
        self.push(out, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).tanh_into(&mut out);
        self.push(out, Op::Tanh(x))
    }

    /// Row-wise layer normalization with epsilon `1e-5`, no affine.
    pub fn layer_norm_rows(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).layernorm_rows_into(LN_EPS, &mut out);
        self.push(out, Op::LayerNormRows(x))
    }

    /// Fused `layernorm(x) * gamma + beta` where `gamma`/`beta` are
    /// `1 x cols` rows: one op and one output instead of the
    /// norm → scale → shift chain.
    pub fn layer_norm_affine(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let (r, c) = self.shape(x);
        assert_eq!(self.shape(gamma), (1, c), "layer_norm_affine: gamma must be 1x{c}");
        assert_eq!(self.shape(beta), (1, c), "layer_norm_affine: beta must be 1x{c}");
        let mut out = self.take(r, c);
        self.value(x).layernorm_rows_into(LN_EPS, &mut out);
        {
            let gammav = self.value(gamma);
            let betav = self.value(beta);
            for i in 0..r {
                for ((o, &g), &b) in out.row_mut(i).iter_mut().zip(gammav.row(0)).zip(betav.row(0)) {
                    *o = *o * g + b;
                }
            }
        }
        self.push(out, Op::LayerNormAffine(x, gamma, beta))
    }

    // --- reductions & reshapes ---

    /// Mean of all elements, producing a `1x1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let mut out = self.take(1, 1);
        out.set(0, 0, self.value(x).mean());
        self.push(out, Op::MeanAll(x))
    }

    /// Sum of all elements, producing a `1x1` scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let mut out = self.take(1, 1);
        out.set(0, 0, self.value(x).sum());
        self.push(out, Op::SumAll(x))
    }

    /// Elementwise square.
    pub fn square(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).map_into(&mut out, |e| e * e);
        self.push(out, Op::Square(x))
    }

    /// Mean-squared-error loss between prediction and target, as a
    /// `1x1` scalar tape value.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    /// Accumulates `g` into slot `idx` by reference: copies through the
    /// arena on the first contribution, adds in place afterwards.
    fn acc_ref(&self, grads: &mut [Option<Matrix>], idx: usize, g: &Matrix) {
        match &mut grads[idx] {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(self.take_copy(g)),
        }
    }

    /// Accumulates an owned gradient into slot `idx`, either moving it
    /// into an empty slot (no copy) or adding and recycling its buffer.
    /// Use for a node's *last* consumer so the temporary never leaks.
    fn acc_owned(&self, grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
        match &mut grads[idx] {
            Some(existing) => {
                existing.add_assign(&g);
                self.arena.borrow_mut().recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Accumulates rows `r0..r0 + rows` of `g` into slot `idx`, like
    /// [`Tape::acc_ref`] on that block.
    fn acc_rows(&self, grads: &mut [Option<Matrix>], idx: usize, g: &Matrix, r0: usize, rows: usize) {
        let block = &g.data()[r0 * g.cols()..(r0 + rows) * g.cols()];
        match &mut grads[idx] {
            Some(existing) => occu_tensor::add_into(existing.data_mut(), block),
            slot @ None => {
                let mut copy = self.take(rows, g.cols());
                copy.data_mut().copy_from_slice(block);
                *slot = Some(copy);
            }
        }
    }

    fn recycle(&self, g: Matrix) {
        self.arena.borrow_mut().recycle(g);
    }

    /// Runs reverse-mode differentiation from scalar `output`, adding
    /// each parameter's gradient into `buf` (a parameter reached twice
    /// gets two additions). The store is only read, so parallel
    /// training workers run this concurrently against one model, each
    /// into its own buffer, and the trainer merges the buffers
    /// deterministically.
    ///
    /// Every temporary comes from and returns to the tape arena, and the
    /// per-node gradient slots are a reused buffer, so repeat sweeps
    /// over same-shaped graphs are allocation-free.
    ///
    /// # Panics
    /// If `output` is not `1x1`, or if `buf` was not sized for `store`.
    pub fn backward_into(&self, output: Var, store: &ParamStore, buf: &mut GradBuffer) {
        assert_eq!(buf.len(), store.len(), "backward_into: buffer does not match store");
        assert_eq!(self.shape(output), (1, 1), "backward: output must be a 1x1 scalar");
        let mut slots = self.grad_slots.borrow_mut();
        slots.clear();
        slots.resize_with(self.nodes.len(), || None);
        let grads = slots.as_mut_slice();
        let mut seed = self.take(1, 1);
        seed.set(0, 0, 1.0);
        grads[output.0] = Some(seed);

        for i in (0..=output.0).rev() {
            let mut g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[i].op {
                Op::Leaf => self.recycle(g),
                Op::Param(id) => {
                    buf.accumulate(*id, &g);
                    self.recycle(g);
                }
                Op::Add(a, b) => {
                    self.acc_ref(grads, a.0, &g);
                    self.acc_owned(grads, b.0, g);
                }
                Op::Sub(a, b) => {
                    self.acc_ref(grads, a.0, &g);
                    for v in g.data_mut() {
                        *v *= -1.0;
                    }
                    self.acc_owned(grads, b.0, g);
                }
                Op::Mul(a, b) => {
                    let mut ga = self.take(g.rows(), g.cols());
                    g.zip_map_into(&self.nodes[b.0].value, &mut ga, |gi, bi| gi * bi);
                    // Reuse g itself for db = g ⊙ a.
                    for (gi, &ai) in g.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                        *gi *= ai;
                    }
                    self.acc_owned(grads, a.0, ga);
                    self.acc_owned(grads, b.0, g);
                }
                Op::AddRowBroadcast(x, row) => {
                    self.acc_ref(grads, x.0, &g);
                    let mut gr = self.take(1, g.cols());
                    sum_rows_into(&g, &mut gr);
                    self.acc_owned(grads, row.0, gr);
                    self.recycle(g);
                }
                Op::MulRowBroadcast(x, row) => {
                    let rowv = &self.nodes[row.0].value;
                    let xv = &self.nodes[x.0].value;
                    // drow = sum_rows(g ⊙ x), accumulated row-by-row so
                    // the order matches mul().sum_rows() exactly.
                    let mut gr = self.take(1, g.cols());
                    for r in 0..g.rows() {
                        for ((o, &gi), &xi) in gr.row_mut(0).iter_mut().zip(g.row(r)).zip(xv.row(r)) {
                            *o += gi * xi;
                        }
                    }
                    // dx = g ⊙ broadcast(row), in place.
                    for r in 0..g.rows() {
                        for (gi, &m) in g.row_mut(r).iter_mut().zip(rowv.row(0)) {
                            *gi *= m;
                        }
                    }
                    self.acc_owned(grads, x.0, g);
                    self.acc_owned(grads, row.0, gr);
                }
                Op::MulColBroadcast(x, col) => {
                    let colv = &self.nodes[col.0].value;
                    let xv = &self.nodes[x.0].value;
                    // dcol[i] = Σ_j g[i][j] * x[i][j]
                    let mut gc = self.take(g.rows(), 1);
                    for r in 0..g.rows() {
                        let mut acc = 0.0f32;
                        for (&gi, &xi) in g.row(r).iter().zip(xv.row(r)) {
                            acc += gi * xi;
                        }
                        gc.set(r, 0, acc);
                    }
                    // dx = g ⊙ broadcast_col(col), in place.
                    for r in 0..g.rows() {
                        let m = colv.get(r, 0);
                        for gi in g.row_mut(r).iter_mut() {
                            *gi *= m;
                        }
                    }
                    self.acc_owned(grads, x.0, g);
                    self.acc_owned(grads, col.0, gc);
                }
                Op::Matmul(a, b) => {
                    let bv = &self.nodes[b.0].value;
                    let av = &self.nodes[a.0].value;
                    let mut ga = self.take(g.rows(), bv.rows());
                    g.matmul_transb_into(bv, &mut ga);
                    let mut gb = self.take(av.cols(), g.cols());
                    av.matmul_transa_into(&g, &mut gb);
                    self.acc_owned(grads, a.0, ga);
                    self.acc_owned(grads, b.0, gb);
                    self.recycle(g);
                }
                Op::MatmulTransB(a, b) => {
                    // y = a b^T : dA = g * b ; dB = g^T * a
                    let bv = &self.nodes[b.0].value;
                    let av = &self.nodes[a.0].value;
                    let mut ga = self.take(g.rows(), bv.cols());
                    g.matmul_into(bv, &mut ga);
                    let mut gb = self.take(g.cols(), av.cols());
                    g.matmul_transa_into(av, &mut gb);
                    self.acc_owned(grads, a.0, ga);
                    self.acc_owned(grads, b.0, gb);
                    self.recycle(g);
                }
                Op::MatmulBias(a, w, bias) => {
                    // Same math as Matmul followed by AddRowBroadcast.
                    let wv = &self.nodes[w.0].value;
                    let av = &self.nodes[a.0].value;
                    let mut ga = self.take(g.rows(), wv.rows());
                    g.matmul_transb_into(wv, &mut ga);
                    let mut gw = self.take(av.cols(), g.cols());
                    av.matmul_transa_into(&g, &mut gw);
                    let mut gbias = self.take(1, g.cols());
                    sum_rows_into(&g, &mut gbias);
                    self.acc_owned(grads, a.0, ga);
                    self.acc_owned(grads, w.0, gw);
                    self.acc_owned(grads, bias.0, gbias);
                    self.recycle(g);
                }
                Op::Scale(x, s) => {
                    for v in g.data_mut() {
                        *v *= *s;
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::LeakyRelu(x, alpha) => {
                    for (gi, &xi) in g.data_mut().iter_mut().zip(self.nodes[x.0].value.data()) {
                        if xi < 0.0 {
                            *gi *= *alpha;
                        }
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::Relu(x) => {
                    for (gi, &xi) in g.data_mut().iter_mut().zip(self.nodes[x.0].value.data()) {
                        if xi <= 0.0 {
                            *gi = 0.0;
                        }
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::Gelu(x) => {
                    self.nodes[x.0].value.gelu_grad_mul_into(&mut g);
                    self.acc_owned(grads, x.0, g);
                }
                Op::Sigmoid(x) => {
                    for (gi, &yi) in g.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *gi *= yi * (1.0 - yi);
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::Tanh(x) => {
                    for (gi, &yi) in g.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *gi *= 1.0 - yi * yi;
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::SoftmaxRows(x) => {
                    let yv = &self.nodes[i].value;
                    for r in 0..g.rows() {
                        let dot: f32 = g.row(r).iter().zip(yv.row(r).iter()).map(|(a, b)| a * b).sum();
                        for (gi, &yi) in g.row_mut(r).iter_mut().zip(yv.row(r)) {
                            *gi = yi * (*gi - dot);
                        }
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::LayerNormRows(x) => {
                    layer_norm_bwd_inplace(&self.nodes[x.0].value, &mut g);
                    self.acc_owned(grads, x.0, g);
                }
                Op::LayerNormAffine(x, gamma, beta) => {
                    let xv = &self.nodes[x.0].value;
                    let gammav = &self.nodes[gamma.0].value;
                    let cols = xv.cols() as f32;
                    // dgamma = Σ_r g ⊙ xhat ; dbeta = Σ_r g (xhat is
                    // recomputed per row — no materialized buffer).
                    let mut dgamma = self.take(1, xv.cols());
                    let mut dbeta = self.take(1, xv.cols());
                    for r in 0..xv.rows() {
                        let xr = xv.row(r);
                        let mean: f32 = xr.iter().sum::<f32>() / cols;
                        let var: f32 = xr.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols;
                        let inv = 1.0 / (var + LN_EPS).sqrt();
                        for (((dg, db), &gi), &xi) in dgamma
                            .row_mut(0)
                            .iter_mut()
                            .zip(dbeta.row_mut(0).iter_mut())
                            .zip(g.row(r))
                            .zip(xr)
                        {
                            *dg += gi * (xi - mean) * inv;
                            *db += gi;
                        }
                    }
                    // dx = layernorm-backward of (g ⊙ broadcast(gamma)).
                    for r in 0..g.rows() {
                        for (gi, &ga) in g.row_mut(r).iter_mut().zip(gammav.row(0)) {
                            *gi *= ga;
                        }
                    }
                    layer_norm_bwd_inplace(xv, &mut g);
                    self.acc_owned(grads, x.0, g);
                    self.acc_owned(grads, gamma.0, dgamma);
                    self.acc_owned(grads, beta.0, dbeta);
                }
                Op::MeanAll(x) => {
                    let (r, c) = self.nodes[x.0].value.shape();
                    let gi = g.get(0, 0) / (r * c) as f32;
                    let mut gx = self.take(r, c);
                    gx.fill(gi);
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::SumAll(x) => {
                    let (r, c) = self.nodes[x.0].value.shape();
                    let mut gx = self.take(r, c);
                    gx.fill(g.get(0, 0));
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::MeanRows(x) => {
                    let (r, c) = self.nodes[x.0].value.shape();
                    let inv = 1.0 / r as f32;
                    let mut gx = self.take(r, c);
                    for row in 0..r {
                        for (o, &gi) in gx.row_mut(row).iter_mut().zip(g.row(0)) {
                            *o = gi * inv;
                        }
                    }
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::HCat(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let mut ga = self.take(g.rows(), ca);
                    let mut gb = self.take(g.rows(), g.cols() - ca);
                    for r in 0..g.rows() {
                        ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                    }
                    self.acc_owned(grads, a.0, ga);
                    self.acc_owned(grads, b.0, gb);
                    self.recycle(g);
                }
                Op::SliceCols(x, start, end) => {
                    let (r, c) = self.nodes[x.0].value.shape();
                    let mut gx = self.take(r, c);
                    for row in 0..r {
                        gx.row_mut(row)[*start..*end].copy_from_slice(g.row(row));
                    }
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::GatherRows(x, indices) => {
                    let (r, c) = self.nodes[x.0].value.shape();
                    let mut gx = self.take(r, c);
                    for (i2, &idx) in indices.iter().enumerate() {
                        occu_tensor::add_into(gx.row_mut(idx), g.row(i2));
                    }
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::ScatterAddRows(x, indices, _) => {
                    // Backward of scatter-add is gather.
                    let mut gx = self.take(indices.len(), g.cols());
                    g.gather_rows_into(indices, &mut gx);
                    self.acc_owned(grads, x.0, gx);
                    self.recycle(g);
                }
                Op::Square(x) => {
                    for (gi, &xi) in g.data_mut().iter_mut().zip(self.nodes[x.0].value.data()) {
                        *gi *= 2.0 * xi;
                    }
                    self.acc_owned(grads, x.0, g);
                }
                Op::SpdBias { first_theta, buckets, spd } => {
                    // dtheta[b] = sum of g over bucket b, one accumulator
                    // per theta, in row-major order.
                    let mut sums = self.take(1, *buckets);
                    let acc = sums.data_mut();
                    for (&gi, &b) in g.data().iter().zip(spd) {
                        acc[b as usize] += gi;
                    }
                    for (b, &sum) in sums.data().iter().enumerate() {
                        let mut gt = self.take(1, 1);
                        gt.set(0, 0, sum);
                        self.acc_owned(grads, first_theta + b, gt);
                    }
                    self.recycle(sums);
                    self.recycle(g);
                }
                Op::Attention { q, k, v, bias, heads, scale, probs } => {
                    let (qv, kv, vv) = (&self.nodes[q.0].value, &self.nodes[k.0].value, &self.nodes[v.0].value);
                    let mut dq = self.take(qv.rows(), qv.cols());
                    let mut dk = self.take(kv.rows(), kv.cols());
                    let mut dv = self.take(vv.rows(), vv.cols());
                    let mut dbias = bias.map(|_| self.take(probs.rows(), probs.cols()));
                    occu_tensor::attention_backward_into(
                        qv,
                        kv,
                        vv,
                        probs,
                        &g,
                        *heads,
                        *scale,
                        &mut dq,
                        &mut dk,
                        &mut dv,
                        dbias.as_mut(),
                        &mut self.arena.borrow_mut(),
                    );
                    // Each head's bias gradient in descending head
                    // order, then the value, key and query gradients:
                    // the order of the per-head op sequence's reverse
                    // sweep, so a bias shared by several attention
                    // nodes (the SPD bias) sums to the same bits.
                    if let (Some(b), Some(db)) = (bias, dbias) {
                        let n = qv.rows();
                        for h in (0..*heads).rev() {
                            self.acc_rows(grads, b.0, &db, h * n, n);
                        }
                        self.recycle(db);
                    }
                    self.acc_owned(grads, v.0, dv);
                    self.acc_owned(grads, k.0, dk);
                    self.acc_owned(grads, q.0, dq);
                    self.recycle(g);
                }
            }
        }
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// Eager recording: every op computes its value now and records what
/// backward needs.
impl Recorder for Tape {
    type V = Var;
    type Idx<'a> = &'a [usize];
    type Spd<'a> = &'a [u8];

    fn shape(&self, x: Var) -> (usize, usize) {
        self.nodes[x.0].value.shape()
    }

    /// Copies the parameter's current value from the store; backward
    /// accumulates into its gradient.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.take_copy(store.value(id));
        self.push(v, Op::Param(id))
    }

    /// One fused `matmul_bias` op when there is a bias.
    fn linear(&mut self, store: &ParamStore, w: ParamId, b: Option<ParamId>, x: Var) -> Var {
        let w = self.param(store, w);
        match b {
            Some(b) => {
                let bv = self.param(store, b);
                self.matmul_bias(x, w, bv)
            }
            None => self.matmul(x, w),
        }
    }

    fn layer_norm(&mut self, store: &ParamStore, gamma: ParamId, beta: ParamId, x: Var) -> Var {
        let g = self.param(store, gamma);
        let b = self.param(store, beta);
        self.layer_norm_affine(x, g, b)
    }

    fn activation(&mut self, act: Activation, x: Var) -> Var {
        match act {
            Activation::None => x,
            Activation::Relu => self.relu(x),
            Activation::LeakyRelu(a) => self.leaky_relu(x, a),
            Activation::Gelu => self.gelu(x),
            Activation::Sigmoid => self.sigmoid(x),
            Activation::Tanh => self.tanh(x),
        }
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take(self.shape(a).0, self.shape(a).1);
        self.value(a).zip_map_into(self.value(b), &mut out, |x, y| x + y);
        self.push(out, Op::Add(a, b))
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take(self.shape(a).0, self.shape(a).1);
        self.value(a).zip_map_into(self.value(b), &mut out, |x, y| x * y);
        self.push(out, Op::Mul(a, b))
    }

    /// Fused: no materialized broadcast of `col`. This is the ANEE
    /// attention-weighting primitive.
    fn mul_col_broadcast(&mut self, x: Var, col: Var) -> Var {
        let r = self.shape(x).0;
        assert_eq!(self.shape(col), (r, 1), "mul_col_broadcast: expected {r}x1 column");
        let mut out = self.take_copy(self.value(x));
        let colv = self.value(col);
        for i in 0..r {
            let m = colv.get(i, 0);
            for o in out.row_mut(i).iter_mut() {
                *o *= m;
            }
        }
        self.push(out, Op::MulColBroadcast(x, col))
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.take(self.shape(a).0, self.shape(b).1);
        self.value(a).matmul_into(self.value(b), &mut out);
        self.push(out, Op::Matmul(a, b))
    }

    fn softmax_rows(&mut self, x: Var) -> Var {
        let mut out = self.take(self.shape(x).0, self.shape(x).1);
        self.value(x).softmax_rows_into(&mut out);
        self.push(out, Op::SoftmaxRows(x))
    }

    /// One node running `occu-tensor`'s fused attention kernel, the
    /// one a compiled plan's `Attention` instruction runs, keeping
    /// each head's softmax rows for backward. Its backward,
    /// [`occu_tensor::attention_backward_into`], returns the bits of
    /// the per-head op sequence (column slices, `matmul_transb`, scale,
    /// bias add, row softmax, `matmul`, `hcat`) it replaced.
    fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize, scale: f32, bias: Option<Var>) -> Var {
        let (n, dim) = self.shape(q);
        let m = self.shape(k).0;
        let mut out = self.take(n, dim);
        let mut probs = self.take(heads * n, m);
        occu_tensor::attention_into(
            self.value(q),
            self.value(k),
            self.value(v),
            heads,
            scale,
            bias.map(|b| self.value(b)),
            &mut out,
            Some(&mut probs),
            &mut self.arena.borrow_mut(),
        );
        self.push(out, Op::Attention { q, k, v, bias, heads, scale, probs })
    }

    fn mean_rows(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        assert!(r > 0, "mean_rows: empty matrix");
        let mut out = self.take(1, c);
        {
            let xv = self.value(x);
            for row in 0..r {
                occu_tensor::add_into(out.row_mut(0), xv.row(row));
            }
            let inv = 1.0 / r as f32;
            for o in out.row_mut(0).iter_mut() {
                *o *= inv;
            }
        }
        self.push(out, Op::MeanRows(x))
    }

    fn hcat(&mut self, a: Var, b: Var) -> Var {
        let (r, ca) = self.shape(a);
        let cb = self.shape(b).1;
        assert_eq!(self.shape(b).0, r, "hcat: row mismatch");
        let mut out = self.take(r, ca + cb);
        {
            let av = self.value(a);
            let bv = self.value(b);
            for row in 0..r {
                out.row_mut(row)[..ca].copy_from_slice(av.row(row));
                out.row_mut(row)[ca..].copy_from_slice(bv.row(row));
            }
        }
        self.push(out, Op::HCat(a, b))
    }

    /// Differentiable; backward scatter-adds.
    fn gather_rows(&mut self, x: Var, indices: &[usize]) -> Var {
        let mut out = self.take(indices.len(), self.shape(x).1);
        self.value(x).gather_rows_into(indices, &mut out);
        let idx = self.take_indices(indices);
        self.push(out, Op::GatherRows(x, idx))
    }

    fn scatter_add_rows(&mut self, x: Var, indices: &[usize], out_rows: usize) -> Var {
        let (src_rows, cols) = self.shape(x);
        assert_eq!(indices.len(), src_rows, "scatter_add_rows: one index per row required");
        let mut out = self.take(out_rows, cols);
        {
            let src = self.value(x);
            for (i, &idx) in indices.iter().enumerate() {
                assert!(idx < out_rows, "scatter_add_rows: index {idx} out of {out_rows}");
                occu_tensor::add_into(out.row_mut(idx), src.row(i));
            }
        }
        let idx = self.take_indices(indices);
        self.push(out, Op::ScatterAddRows(x, idx, out_rows))
    }

    /// Records every theta as a parameter node, then gathers one value
    /// per element; backward sums the gradient per bucket.
    fn spd_bias(&mut self, store: &ParamStore, thetas: &[ParamId], spd: &[u8]) -> Var {
        let n = spd.len().isqrt();
        assert_eq!(n * n, spd.len(), "spd_bias: bucket map of {} entries is not square", spd.len());
        let first_theta = self.nodes.len();
        for &id in thetas {
            assert_eq!(store.value(id).shape(), (1, 1), "spd_bias: thetas must be 1x1");
            self.param(store, id);
        }
        let mut out = self.take(n, n);
        let theta = &self.nodes[first_theta..];
        for (o, &b) in out.data_mut().iter_mut().zip(spd) {
            *o = theta[b as usize].value.get(0, 0);
        }
        let mut buf = self.free_spd.pop().unwrap_or_default();
        buf.extend_from_slice(spd);
        self.push(out, Op::SpdBias { first_theta, buckets: thetas.len(), spd: buf })
    }
}

/// Column sums of `g` accumulated into a `1 x cols` row, in the same
/// row-ascending order as [`Matrix::sum_rows`].
fn sum_rows_into(g: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(out.shape(), (1, g.cols()));
    for r in 0..g.rows() {
        occu_tensor::add_into(out.row_mut(0), g.row(r));
    }
}

const LN_EPS: f32 = 1e-5;

/// In-place layer-norm backward: replaces `g` with `dL/dx`. The
/// normalized values are recomputed per element instead of being
/// buffered, keeping the sweep allocation-free while summing in the
/// same order as the previous buffered implementation.
fn layer_norm_bwd_inplace(x: &Matrix, g: &mut Matrix) {
    let cols = x.cols() as f32;
    for r in 0..x.rows() {
        let xr = x.row(r);
        let mean: f32 = xr.iter().sum::<f32>() / cols;
        let var: f32 = xr.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        let g_mean: f32 = g.row(r).iter().sum::<f32>() / cols;
        let gx_mean: f32 = g
            .row(r)
            .iter()
            .zip(xr.iter())
            .map(|(a, v)| a * ((v - mean) * inv))
            .sum::<f32>()
            / cols;
        for (gi, &v) in g.row_mut(r).iter_mut().zip(xr) {
            *gi = inv * (*gi - g_mean - ((v - mean) * inv) * gx_mean);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::MultiHeadAttention;
    use occu_tensor::{assert_close, SeededRng};

    /// Gradients of scalar `loss` for every parameter of `store`.
    fn grads_of(tape: &Tape, loss: Var, store: &ParamStore) -> GradBuffer {
        let mut buf = GradBuffer::for_store(store);
        tape.backward_into(loss, store, &mut buf);
        buf
    }

    #[test]
    fn forward_values() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let s = tape.add(a, b);
        assert_eq!(tape.value(s).data(), &[4.0, 6.0]);
        let p = tape.mul(a, b);
        assert_eq!(tape.value(p).data(), &[3.0, 8.0]);
        let m = tape.mean_all(p);
        assert_eq!(tape.value(m).get(0, 0), 5.5);
    }

    #[test]
    fn simple_gradient_linear() {
        // y = mean((w*x)^2); dy/dw known analytically for scalar case.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![3.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let x = tape.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let y = tape.mul(wv, x);
        let sq = tape.square(y);
        let loss = tape.mean_all(sq);
        assert_eq!(tape.value(loss).get(0, 0), 36.0);
        let grads = grads_of(&tape, loss, &store);
        // d/dw (w*x)^2 = 2*w*x^2 = 2*3*4 = 24
        assert!((grads.grad(w).get(0, 0) - 24.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let mut rng = SeededRng::new(1);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::randn(3, 4, 0.5, &mut rng));
        let x = Matrix::randn(2, 3, 0.5, &mut rng);
        let run = |store: &ParamStore| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let xv = tape.constant(x.clone());
            let y = tape.matmul(xv, wv);
            let sq = tape.square(y);
            let loss = tape.mean_all(sq);
            (tape, loss)
        };
        let (tape, loss) = run(&store);
        let grads = grads_of(&tape, loss, &store);
        let analytic = grads.grad(w).clone();

        // central finite differences
        let h = 1e-2_f32;
        let mut fd = Matrix::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                let orig = store.value(w).get(r, c);
                store.value_mut(w).set(r, c, orig + h);
                let (t1, l1) = run(&store);
                let up = t1.value(l1).get(0, 0);
                store.value_mut(w).set(r, c, orig - h);
                let (t2, l2) = run(&store);
                let dn = t2.value(l2).get(0, 0);
                store.value_mut(w).set(r, c, orig);
                fd.set(r, c, (up - dn) / (2.0 * h));
            }
        }
        assert_close(&analytic, &fd, 2e-2);
    }

    #[test]
    fn gather_scatter_inverse_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        // Gather rows [2, 0, 2] then scatter back into 3 rows at [0, 1, 1].
        let gathered = tape.gather_rows(wv, &[2, 0, 2]);
        let scattered = tape.scatter_add_rows(gathered, &[0, 1, 1], 3);
        // scattered row0 = w[2], row1 = w[0]+w[2], row2 = 0
        assert_eq!(tape.value(scattered).row(0), &[5.0, 6.0]);
        assert_eq!(tape.value(scattered).row(1), &[6.0, 8.0]);
        assert_eq!(tape.value(scattered).row(2), &[0.0, 0.0]);
        let loss = tape.sum_all(scattered);
        let grads = grads_of(&tape, loss, &store);
        // d(loss)/dw: w[2] appears twice, w[0] once, w[1] never.
        assert_eq!(grads.grad(w).row(0), &[1.0, 1.0]);
        assert_eq!(grads.grad(w).row(1), &[0.0, 0.0]);
        assert_eq!(grads.grad(w).row(2), &[2.0, 2.0]);
    }

    #[test]
    fn layer_norm_rows_normalizes() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(2, 4, vec![1., 2., 3., 4., 10., 10., 10., 10.]));
        let y = tape.layer_norm_rows(x);
        let v = tape.value(y);
        // Row 0: mean 0, unit variance (up to eps).
        let mean: f32 = v.row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        // Constant row maps to ~0.
        assert!(v.row(1).iter().all(|x| x.abs() < 1e-2));
    }

    #[test]
    fn softmax_backward_is_zero_for_uniform_grad() {
        // For g constant across a row, softmax gradient is exactly 0
        // (shift invariance).
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.9]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let sm = tape.softmax_rows(wv);
        let loss = tape.sum_all(sm); // sum of softmax == 1 always
        let grads = grads_of(&tape, loss, &store);
        for &g in grads.grad(w).data() {
            assert!(g.abs() < 1e-6, "grad {g} should vanish");
        }
    }

    #[test]
    fn hcat_slice_gradients_route_correctly() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::ones(2, 2));
        let b = store.register("b", Matrix::ones(2, 3));
        let mut tape = Tape::new();
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let h = tape.hcat(av, bv); // 2x5
        let sl = tape.slice_cols(h, 1, 4); // touches last col of a, first 2 of b
        let loss = tape.sum_all(sl);
        let grads = grads_of(&tape, loss, &store);
        assert_eq!(grads.grad(a).data(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(grads.grad(b).data(), &[1.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let mut store = ParamStore::new();
        let p = store.register("p", Matrix::from_vec(1, 2, vec![1.0, 3.0]));
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let t = tape.constant(Matrix::from_vec(1, 2, vec![0.0, 1.0]));
        let loss = tape.mse_loss(pv, t);
        // ((1-0)^2 + (3-1)^2)/2 = 2.5
        assert!((tape.value(loss).get(0, 0) - 2.5).abs() < 1e-6);
        let grads = grads_of(&tape, loss, &store);
        // d/dp mean((p-t)^2) = 2(p-t)/n
        assert_close(grads.grad(p), &Matrix::from_vec(1, 2, vec![1.0, 2.0]), 1e-5);
    }

    /// The SPD bias as it was built before the gather op: per bucket
    /// present, an indicator of its elements scaled by its theta, the
    /// terms summed with `add`. The indicator is an `n*n x 1` column so
    /// that `mul_row_broadcast` by the `1x1` theta is a plain scalar
    /// multiply: `e * theta` forward, and backward the sequential dot
    /// `acc += g * e` from zero.
    fn indicator_sum_bias(tape: &mut Tape, store: &ParamStore, thetas: &[ParamId], spd: &[u8]) -> Var {
        let mut total = None;
        for (b, &theta) in thetas.iter().enumerate() {
            if !spd.iter().any(|&d| d as usize == b) {
                continue;
            }
            let ind = tape.constant_zeroed_with(spd.len(), 1, |m| {
                for (k, &d) in spd.iter().enumerate() {
                    if d as usize == b {
                        m.set(k, 0, 1.0);
                    }
                }
            });
            let tv = tape.param(store, theta);
            let term = tape.mul_row_broadcast(ind, tv);
            total = Some(match total {
                Some(acc) => tape.add(acc, term),
                None => term,
            });
        }
        total.expect("a non-empty bucket map has a bucket")
    }

    #[test]
    fn spd_bias_matches_the_indicator_sum_bitwise() {
        let mut rng = SeededRng::new(21);
        let uniform = |rng: &mut SeededRng, k: usize| (0..k).map(|_| rng.uniform(-2.0, 2.0)).collect::<Vec<_>>();
        let cases: Vec<(usize, Vec<u8>, Vec<f32>)> = vec![
            // Buckets 2, 4, 5 and 7 never occur.
            (7, (0..49).map(|_| [0u8, 1, 3, 6][rng.index(4)]).collect(), uniform(&mut rng, 8)),
            (1, vec![0], vec![-0.75, 0.5]),
            (5, (0..25).map(|_| rng.index(8) as u8).collect(), vec![0.0; 8]),
            (6, (0..36).map(|_| rng.index(8) as u8).collect(), (0..8).map(|b| -0.25 - b as f32).collect()),
            (9, (0..81).map(|_| rng.index(8) as u8).collect(), vec![0.0, -1.5, 0.0, 2.25, -0.125, 0.0, 3.0, -7.5]),
            (12, (0..144).map(|_| rng.index(8) as u8).collect(), uniform(&mut rng, 8)),
        ];
        for (case, (n, spd, values)) in cases.into_iter().enumerate() {
            let mut store = ParamStore::new();
            let thetas: Vec<ParamId> = values
                .iter()
                .enumerate()
                .map(|(b, &t)| store.register(format!("theta{b}"), Matrix::from_vec(1, 1, vec![t])))
                .collect();
            let w = Matrix::randn(n, n, 1.0, &mut rng);

            let mut tape = Tape::new();
            let bias = tape.spd_bias(&store, &thetas, &spd);
            let wv = tape.constant_ref(&w);
            let weighted = tape.mul(bias, wv);
            let loss = tape.sum_all(weighted);
            let got = grads_of(&tape, loss, &store);

            let mut reference = Tape::new();
            let want_bias = indicator_sum_bias(&mut reference, &store, &thetas, &spd);
            let w_col = reference.constant(Matrix::from_vec(n * n, 1, w.data().to_vec()));
            let weighted = reference.mul(want_bias, w_col);
            let want_loss = reference.sum_all(weighted);
            let want = grads_of(&reference, want_loss, &store);

            assert_eq!(tape.shape(bias), (n, n));
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(tape.value(bias)), bits(reference.value(want_bias)), "case {case}: bias");
            for (b, &id) in thetas.iter().enumerate() {
                assert_eq!(bits(got.grad(id)), bits(want.grad(id)), "case {case}: theta {b} gradient");
            }
        }
    }

    /// Attention as the tape recorded it before the fused op: per head,
    /// column slices of `q`, `k` and `v`, `matmul_transb`, scale, bias
    /// add, row softmax, a matmul with the values, and `hcat` onto the
    /// heads before it.
    #[allow(clippy::too_many_arguments)]
    fn per_head_attention(tape: &mut Tape, q: Var, k: Var, v: Var, heads: usize, scale: f32, bias: Option<Var>) -> Var {
        let head_dim = tape.shape(q).1 / heads;
        let mut merged: Option<Var> = None;
        for h in 0..heads {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let qh = tape.slice_cols(q, lo, hi);
            let kh = tape.slice_cols(k, lo, hi);
            let vh = tape.slice_cols(v, lo, hi);
            let scores = tape.matmul_transb(qh, kh);
            let scores = tape.scale(scores, scale);
            let scores = match bias {
                Some(b) => tape.add(scores, b),
                None => scores,
            };
            let attn = tape.softmax_rows(scores);
            let out_h = tape.matmul(attn, vh);
            merged = Some(match merged {
                Some(acc) => tape.hcat(acc, out_h),
                None => out_h,
            });
        }
        merged.expect("at least one head")
    }

    /// Records on a tape like the tape itself, except attention, which
    /// it records as [`per_head_attention`].
    struct PerHead<'t>(&'t mut Tape);

    impl Recorder for PerHead<'_> {
        type V = Var;
        type Idx<'a> = &'a [usize];
        type Spd<'a> = &'a [u8];
        fn shape(&self, x: Var) -> (usize, usize) {
            self.0.shape(x)
        }
        fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
            self.0.param(store, id)
        }
        fn linear(&mut self, store: &ParamStore, w: ParamId, b: Option<ParamId>, x: Var) -> Var {
            self.0.linear(store, w, b, x)
        }
        fn layer_norm(&mut self, store: &ParamStore, gamma: ParamId, beta: ParamId, x: Var) -> Var {
            self.0.layer_norm(store, gamma, beta, x)
        }
        fn activation(&mut self, act: Activation, x: Var) -> Var {
            self.0.activation(act, x)
        }
        fn add(&mut self, a: Var, b: Var) -> Var {
            self.0.add(a, b)
        }
        fn mul(&mut self, a: Var, b: Var) -> Var {
            self.0.mul(a, b)
        }
        fn mul_col_broadcast(&mut self, x: Var, col: Var) -> Var {
            self.0.mul_col_broadcast(x, col)
        }
        fn matmul(&mut self, a: Var, b: Var) -> Var {
            self.0.matmul(a, b)
        }
        fn softmax_rows(&mut self, x: Var) -> Var {
            self.0.softmax_rows(x)
        }
        fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize, scale: f32, bias: Option<Var>) -> Var {
            per_head_attention(self.0, q, k, v, heads, scale, bias)
        }
        fn mean_rows(&mut self, x: Var) -> Var {
            self.0.mean_rows(x)
        }
        fn hcat(&mut self, a: Var, b: Var) -> Var {
            self.0.hcat(a, b)
        }
        fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Var {
            self.0.gather_rows(x, idx)
        }
        fn scatter_add_rows(&mut self, x: Var, idx: &[usize], out_rows: usize) -> Var {
            self.0.scatter_add_rows(x, idx, out_rows)
        }
        fn spd_bias(&mut self, store: &ParamStore, thetas: &[ParamId], spd: &[u8]) -> Var {
            self.0.spd_bias(store, thetas, spd)
        }
    }

    /// Two SPD-biased self-attention layers sharing one bias, each with
    /// a residual add, then cross-attention from `seeds` query rows over
    /// the result (PMA's shape, n != m).
    struct AttentionStack {
        layers: [MultiHeadAttention; 2],
        pma: MultiHeadAttention,
        seeds: ParamId,
        thetas: Vec<ParamId>,
    }

    impl AttentionStack {
        fn new(store: &mut ParamStore, dim: usize, heads: usize, seeds: usize, rng: &mut SeededRng) -> Self {
            let mut mha = |name: &str, store: &mut ParamStore| MultiHeadAttention::new(store, name, dim, heads, rng);
            let layers = [mha("l0", store), mha("l1", store)];
            let pma = mha("pma", store);
            let seeds = store.register("seeds", Matrix::randn(seeds, dim, 1.0, rng));
            let thetas = (0..8)
                .map(|b| store.register(format!("theta{b}"), Matrix::from_vec(1, 1, vec![rng.uniform(-1.0, 1.0)])))
                .collect();
            Self { layers, pma, seeds, thetas }
        }

        fn forward<R: Recorder<V = Var>>(&self, r: &mut R, store: &ParamStore, x: Var, bias: Var) -> Var {
            let mut h = x;
            for layer in &self.layers {
                let a = layer.forward(r, store, h, h, Some(bias));
                h = r.add(h, a);
            }
            let s = r.param(store, self.seeds);
            self.pma.forward(r, store, s, h, None)
        }

        /// The output's bits and every parameter gradient of
        /// `sum(output * w)`, attention fused or per head.
        fn grads(&self, store: &ParamStore, x: &Matrix, spd: &[u8], w: &Matrix, fused: bool) -> (Vec<u32>, GradBuffer) {
            let mut tape = Tape::new();
            let xv = tape.constant_ref(x);
            let bias = tape.spd_bias(store, &self.thetas, spd);
            let y = if fused {
                self.forward(&mut tape, store, xv, bias)
            } else {
                self.forward(&mut PerHead(&mut tape), store, xv, bias)
            };
            let wv = tape.constant_ref(w);
            let weighted = tape.mul(y, wv);
            let loss = tape.sum_all(weighted);
            let bits = tape.value(y).data().iter().map(|v| v.to_bits()).collect();
            (bits, grads_of(&tape, loss, store))
        }
    }

    #[test]
    fn fused_attention_gradients_match_the_per_head_ops_bitwise() {
        let mut rng = SeededRng::new(29);
        // (head_dim, heads, nodes): head dims 4, 8 (the served width,
        // hidden 32) and 9; 61 nodes put several products past
        // `use_blocked`, 7 keeps them all streaming.
        for (head_dim, heads, n) in [(4, 2, 7), (8, 4, 61), (9, 3, 13), (4, 2, 61), (8, 4, 7)] {
            let dim = head_dim * heads;
            let mut store = ParamStore::new();
            let stack = AttentionStack::new(&mut store, dim, heads, 3, &mut rng);
            let x = Matrix::randn(n, dim, 1.0, &mut rng);
            let spd: Vec<u8> = (0..n * n).map(|_| rng.index(8) as u8).collect();
            let w = Matrix::randn(3, dim, 1.0, &mut rng);
            let (got_out, got) = stack.grads(&store, &x, &spd, &w, true);
            let (want_out, want) = stack.grads(&store, &x, &spd, &w, false);
            let what = format!("head_dim {head_dim}, {heads} heads, {n} nodes");
            assert_eq!(got_out, want_out, "{what}: output");
            for id in store.ids() {
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.grad(id)), bits(want.grad(id)), "{what}: {} gradient", store.name(id));
            }
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // GELU(0)=0, GELU is odd-ish around 0, GELU(large) ~ x.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, 3, vec![0.0, 5.0, -5.0]));
        let y = tape.gelu(x);
        let v = tape.value(y);
        assert!(v.get(0, 0).abs() < 1e-6);
        assert!((v.get(0, 1) - 5.0).abs() < 1e-3);
        assert!(v.get(0, 2).abs() < 1e-3);
    }

    /// Records a small but representative graph (matmul, bias
    /// broadcast, gelu, layer norm, mse) and returns its scalar loss.
    fn record_mlp_loss(tape: &mut Tape, store: &ParamStore, w: ParamId, b: ParamId, x: &Matrix) -> Var {
        let wv = tape.param(store, w);
        let bv = tape.param(store, b);
        let xv = tape.constant(x.clone());
        let h = tape.matmul(xv, wv);
        let h = tape.add_row_broadcast(h, bv);
        let h = tape.gelu(h);
        let h = tape.layer_norm_rows(h);
        let target = tape.constant(Matrix::full(2, 4, 0.5));
        tape.mse_loss(h, target)
    }

    #[test]
    fn cleared_tape_reproduces_fresh_gradients() {
        // Regression test for arena reuse: a tape that has been used
        // and cleared must produce exactly the gradients a fresh tape
        // does — no stale nodes, no leftover state.
        let mut rng = SeededRng::new(11);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::randn(3, 4, 0.5, &mut rng));
        let b = store.register("b", Matrix::randn(1, 4, 0.5, &mut rng));
        let x1 = Matrix::randn(2, 3, 0.5, &mut rng);
        let x2 = Matrix::randn(2, 3, 0.5, &mut rng);

        let mut fresh = Tape::new();
        let loss = record_mlp_loss(&mut fresh, &store, w, b, &x2);
        let mut want = GradBuffer::for_store(&store);
        fresh.backward_into(loss, &store, &mut want);

        // Reused tape: run an unrelated pass on x1 first, then clear.
        let mut reused = Tape::new();
        let loss1 = record_mlp_loss(&mut reused, &store, w, b, &x1);
        let mut scratch = GradBuffer::for_store(&store);
        reused.backward_into(loss1, &store, &mut scratch);
        reused.clear();
        assert!(reused.is_empty());

        let loss2 = record_mlp_loss(&mut reused, &store, w, b, &x2);
        let mut got = GradBuffer::for_store(&store);
        reused.backward_into(loss2, &store, &mut got);

        assert_eq!(want.grad(w).data(), got.grad(w).data());
        assert_eq!(want.grad(b).data(), got.grad(b).data());
    }

    #[test]
    fn matmul_bias_matches_unfused_composition() {
        let mut rng = SeededRng::new(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::randn(3, 4, 0.5, &mut rng));
        let b = store.register("b", Matrix::randn(1, 4, 0.5, &mut rng));
        let x = Matrix::randn(2, 3, 0.5, &mut rng);

        let mut fused = Tape::new();
        let wv = fused.param(&store, w);
        let bv = fused.param(&store, b);
        let xv = fused.constant_ref(&x);
        let y = fused.matmul_bias(xv, wv, bv);
        let sq = fused.square(y);
        let loss = fused.mean_all(sq);
        let mut got = GradBuffer::for_store(&store);
        fused.backward_into(loss, &store, &mut got);

        let mut plain = Tape::new();
        let wv2 = plain.param(&store, w);
        let bv2 = plain.param(&store, b);
        let xv2 = plain.constant_ref(&x);
        let mm = plain.matmul(xv2, wv2);
        let y2 = plain.add_row_broadcast(mm, bv2);
        let sq2 = plain.square(y2);
        let loss2 = plain.mean_all(sq2);
        let mut want = GradBuffer::for_store(&store);
        plain.backward_into(loss2, &store, &mut want);

        assert_eq!(fused.value(y).data(), plain.value(y2).data());
        assert_eq!(got.grad(w).data(), want.grad(w).data());
        assert_eq!(got.grad(b).data(), want.grad(b).data());
    }

    #[test]
    fn layer_norm_affine_matches_unfused_composition() {
        let mut rng = SeededRng::new(11);
        let mut store = ParamStore::new();
        let gamma = store.register("gamma", Matrix::randn(1, 5, 0.5, &mut rng));
        let beta = store.register("beta", Matrix::randn(1, 5, 0.5, &mut rng));
        let x = Matrix::randn(3, 5, 1.0, &mut rng);

        let mut fused = Tape::new();
        let gv = fused.param(&store, gamma);
        let bv = fused.param(&store, beta);
        let xv = fused.constant_ref(&x);
        let y = fused.layer_norm_affine(xv, gv, bv);
        let sq = fused.square(y);
        let loss = fused.mean_all(sq);
        let mut got = GradBuffer::for_store(&store);
        fused.backward_into(loss, &store, &mut got);

        let mut plain = Tape::new();
        let gv2 = plain.param(&store, gamma);
        let bv2 = plain.param(&store, beta);
        let xv2 = plain.constant_ref(&x);
        let ln = plain.layer_norm_rows(xv2);
        let scaled = plain.mul_row_broadcast(ln, gv2);
        let y2 = plain.add_row_broadcast(scaled, bv2);
        let sq2 = plain.square(y2);
        let loss2 = plain.mean_all(sq2);
        let mut want = GradBuffer::for_store(&store);
        plain.backward_into(loss2, &store, &mut want);

        assert_eq!(fused.value(y).data(), plain.value(y2).data());
        assert_close(got.grad(gamma), want.grad(gamma), 1e-6);
        assert_close(got.grad(beta), want.grad(beta), 1e-6);
    }

    #[test]
    fn mul_col_broadcast_matches_explicit_broadcast() {
        let mut rng = SeededRng::new(13);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::randn(4, 3, 0.8, &mut rng));
        let col = Matrix::from_vec(4, 1, vec![0.5, -1.0, 2.0, 0.0]);

        let mut fused = Tape::new();
        let wv = fused.param(&store, w);
        let cv = fused.constant_ref(&col);
        let y = fused.mul_col_broadcast(wv, cv);
        let loss = fused.mean_all(y);
        let mut got = GradBuffer::for_store(&store);
        fused.backward_into(loss, &store, &mut got);

        // Reference: materialize broadcast(col) and use elementwise mul.
        let mut wide = Matrix::zeros(4, 3);
        for r in 0..4 {
            wide.row_mut(r).fill(col.get(r, 0));
        }
        let mut plain = Tape::new();
        let wv2 = plain.param(&store, w);
        let bc = plain.constant_ref(&wide);
        let y2 = plain.mul(wv2, bc);
        let loss2 = plain.mean_all(y2);
        let mut want = GradBuffer::for_store(&store);
        plain.backward_into(loss2, &store, &mut want);

        assert_eq!(fused.value(y).data(), plain.value(y2).data());
        assert_eq!(got.grad(w).data(), want.grad(w).data());
    }

    #[test]
    fn reused_tape_reaches_zero_fresh_allocations() {
        let mut rng = SeededRng::new(3);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::randn(6, 4, 0.5, &mut rng));
        let b = store.register("b", Matrix::randn(1, 4, 0.5, &mut rng));
        let t0 = store.register("t0", Matrix::from_vec(1, 1, vec![0.5]));
        let t1 = store.register("t1", Matrix::from_vec(1, 1, vec![-0.25]));
        let x = Matrix::randn(5, 6, 0.5, &mut rng);
        let idx = [0usize, 2, 4, 1];
        let spd = [0u8, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0];

        let mut tape = Tape::new();
        let mut buf = GradBuffer::for_store(&store);
        let run = |tape: &mut Tape, buf: &mut GradBuffer| {
            tape.clear();
            let wv = tape.param(&store, w);
            let bv = tape.param(&store, b);
            let xv = tape.constant_ref(&x);
            let h = tape.matmul_bias(xv, wv, bv);
            let act = tape.gelu(h);
            let ln = tape.layer_norm_rows(act);
            let gathered = tape.gather_rows(ln, &idx);
            let bias = tape.spd_bias(&store, &[t0, t1], &spd);
            let attended = tape.attention(gathered, gathered, gathered, 2, 0.5, Some(bias));
            let biased = tape.add(attended, bias);
            let sm = tape.softmax_rows(biased);
            let loss = tape.mean_all(sm);
            buf.zero();
            tape.backward_into(loss, &store, buf);
        };

        // Warm up twice (first pass allocates, second proves the free
        // lists already cover every shape), then demand zero growth.
        run(&mut tape, &mut buf);
        run(&mut tape, &mut buf);
        let (_, fresh_before, bytes_before) = tape.arena_stats();
        for _ in 0..5 {
            run(&mut tape, &mut buf);
        }
        let (_, fresh_after, bytes_after) = tape.arena_stats();
        assert_eq!(
            fresh_before, fresh_after,
            "steady-state forward/backward must not allocate fresh arena buffers"
        );
        assert_eq!(bytes_before, bytes_after, "arena high-water mark must stay flat");
    }

    #[test]
    fn grad_buffer_zero_merge_and_apply() {
        use crate::optim::{Optimizer, Sgd};
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        let mut a = GradBuffer::for_store(&store);
        let mut bbuf = GradBuffer::for_store(&store);
        a.accumulate(w, &Matrix::full(2, 2, 1.5));
        bbuf.accumulate(w, &Matrix::full(2, 2, 0.5));
        a.merge(&bbuf);
        assert_eq!(a.grad(w).data(), &[2.0; 4]);
        assert_eq!(bbuf.grad(w).data(), &[0.5; 4], "merge leaves its source alone");
        // Applying the merged buffer is the optimizer's job: the store's
        // values move by -lr * grad and the buffer comes back zeroed.
        Sgd { lr: 0.25 }.step(&mut store, &mut a);
        assert_eq!(store.value(w).data(), &[0.5; 4]);
        assert_eq!(a.grad(w).data(), &[0.0; 4]);
        bbuf.zero();
        assert_eq!(bbuf.grad(w).data(), &[0.0; 4]);
    }

    #[test]
    fn grad_buffer_norm_and_clip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 2));
        let mut g = GradBuffer::for_store(&store);
        g.accumulate(w, &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        assert!((g.norm() - 5.0).abs() < 1e-6);
        g.scale(0.5);
        assert_eq!(g.grad(w).data(), &[1.5, 2.0]);
        g.clip_norm(1.0);
        assert!((g.norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        let before = g.grad(w).clone();
        g.clip_norm(10.0);
        assert_eq!(g.grad(w), &before);
    }
}
