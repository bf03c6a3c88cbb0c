//! # occu-plan
//!
//! Shape-specialized inference plans. A *plan* is a flat instruction
//! program compiled once per (model version, graph shape) pair and
//! executed by a small register VM:
//!
//! * Every intermediate gets a numbered register whose shape is known
//!   at compile time, so the executor's [`ScratchArena`] reaches a
//!   zero-fresh-allocation steady state after the first run.
//! * Weight matrices that sit on the right-hand side of a matmul are
//!   pre-packed once into BLIS-style panels ([`PackedB`]) at compile
//!   time, eliminating the per-request `pack_b` sweep the interpreter
//!   pays on every forward.
//! * A liveness pass records the last instruction that reads each
//!   register, so buffers recycle mid-program instead of at the end.
//!
//! [`ProgramBuilder`] implements `occu-nn`'s [`Recorder`], the trait
//! every layer's forward pass is written against: recording a model's
//! forward pass on a builder emits one instruction per recorder call,
//! in the same order, and each call is one op on the tape too. This
//! crate knows no model; `occu-core`'s `DnnOccu::compile_plan_with`
//! records one. Each instruction's executor arm calls the same public
//! `occu-tensor` kernels (`matmul_into`, `softmax_rows_into`,
//! `layernorm_rows_into`, `gelu_into`, `attention_into`, ...) as the
//! tape's op, with operands in the same order, so a compiled plan is
//! bitwise-equal to the interpreted forward pass on every ISA rung,
//! including `OCCU_FORCE_SCALAR=1`.
//!
//! The crate depends on `occu-tensor` (kernels) and `occu-nn` (the
//! [`Recorder`] trait, parameter store and [`Activation`] selector).

use occu_nn::{Activation, ParamId, ParamStore, Recorder};
use occu_tensor::{attention_into, matmul_i8_into, Matrix, PackedB, PackedI8, ScratchArena};

/// Numeric tier a plan's weight matmuls were lowered to. Tagged on
/// every [`Program`] so plan caches can key on it — two tenants
/// serving the same weights at different precisions must compile
/// distinct plans.
///
/// `F32` is the default and keeps the bitwise plan-vs-interpreter
/// contract. `Int8` trades bit equality for integer-factor
/// throughput and smaller weights, and is validated against an
/// accuracy budget instead (the int8 drift test in
/// `occu-core/tests/plan_equivalence.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full-precision packed-panel matmuls; bitwise-equal to the
    /// interpreter.
    #[default]
    F32,
    /// Symmetric per-output-channel int8 weights with dynamic per-row
    /// activation quantization; cross-ISA bitwise-stable but not
    /// bitwise-equal to f32.
    Int8,
}

impl Precision {
    /// Stable lowercase name (flag values, metric labels, statusz).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a flag/config value; accepts exactly the [`Self::name`]
    /// forms.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

/// Layer-norm epsilon. Must match `occu-nn`'s tape constant so the
/// fused `LayerNormAffine` instruction is bitwise-identical to the
/// interpreter's `layer_norm_affine` op.
const LN_EPS: f32 = 1e-5;

/// A per-request input matrix, referenced by an instruction operand
/// instead of being baked into the program. Plans are keyed only on
/// graph *shape*; the feature values flow in at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputRef {
    /// `n_nodes x node_feat_dim` node feature matrix.
    NodeFeats,
    /// `n_edges x edge_feat_dim` edge feature matrix.
    EdgeFeats,
    /// `1 x global_feat_dim` graph-level feature row.
    GlobalFeats,
}

/// A per-request index array operand (gather/scatter sources).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdxRef {
    /// Source node index of each edge (`n_edges` entries).
    EdgeSrc,
    /// Destination node index of each edge (`n_edges` entries).
    EdgeDst,
    /// Degree bucket of each node (`n_nodes` entries).
    DegreeBucket,
}

/// The per-request shortest-path bucket map ([`PlanInputs::spd`]),
/// the one operand of [`Instr::SpdBias`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpdRef;

/// A matrix operand: an intermediate register, a per-request input,
/// or a compile-time weight snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Intermediate produced by an earlier instruction.
    Reg(u16),
    /// Per-request input matrix.
    Input(InputRef),
    /// Plain (unpacked) weight baked into the program at compile time.
    Weight(u16),
}

/// Elementwise unary applied by [`Instr::Unary`]. The exp-based arms
/// call the same `occu-tensor` kernels as the tape's activations; the
/// others repeat the tape's one-line closures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// `e.max(0.0)`.
    Relu,
    /// `if e >= 0.0 { e } else { alpha * e }`.
    LeakyRelu(f32),
    /// Tanh-approximation GELU ([`Matrix::gelu_into`]).
    Gelu,
    /// Logistic sigmoid ([`Matrix::sigmoid_into`]).
    Sigmoid,
    /// Hyperbolic tangent ([`Matrix::tanh_into`]).
    Tanh,
}

/// One VM instruction. `dst` is always a fresh register (plans are in
/// SSA form — nothing writes a register twice), taken zeroed from the
/// arena to mirror the tape's `take` discipline.
#[derive(Clone, Debug)]
pub enum Instr {
    /// `dst = a * packed[w] (+ bias broadcast per row)`. The packed
    /// operand reuses the exact panel layout `matmul_into` packs on
    /// the fly, so the product is bitwise-identical; `bias` is a
    /// `1 x n` plain weight applied via `add_bias_rowwise`.
    MatmulPacked {
        /// Left operand.
        a: Src,
        /// Index into the program's packed-weight table.
        w: u16,
        /// Optional row-broadcast bias (plain-weight index).
        bias: Option<u16>,
        /// Destination register.
        dst: u16,
    },
    /// `dst = a * packed_i8[w] (+ bias)` — the int8 tier's matmul.
    /// The weight was quantized per output channel at compile time;
    /// activations are quantized per row on the fly inside
    /// `matmul_i8_into`. Cross-ISA bitwise-stable, accuracy-budgeted
    /// against f32.
    MatmulPackedI8 {
        /// Left operand (f32 activations).
        a: Src,
        /// Index into the program's int8 packed-weight table.
        w: u16,
        /// Optional row-broadcast bias (plain-weight index).
        bias: Option<u16>,
        /// Destination register.
        dst: u16,
    },
    /// `dst = a * b` for runtime right-hand sides (small parameter
    /// vectors).
    Matmul {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Multi-head attention through `occu-tensor`'s fused kernel
    /// ([`occu_tensor::attention_into`]): per head, scores `q k^T`
    /// scaled by `scale`, plus `bias`, row softmax, times `v`, each
    /// head's columns written straight into `dst`. The kernel the
    /// tape's attention node runs ([`Recorder::attention`]), without
    /// keeping the softmax rows; its scratch comes from the executor's
    /// arena.
    Attention {
        /// `n x dim` queries.
        q: Src,
        /// `m x dim` keys.
        k: Src,
        /// `m x dim` values.
        v: Src,
        /// Head count; `dim / heads` columns each.
        heads: usize,
        /// Score scale (`1 / sqrt(head_dim)`).
        scale: f32,
        /// Optional `n x m` score bias shared by every head.
        bias: Option<Src>,
        /// Destination register.
        dst: u16,
    },
    /// Elementwise `dst = a + b`.
    Add {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Elementwise `dst = a * b` (Hadamard).
    Mul {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst[i][j] = a[i][j] * col[i][0]` — broadcast a column vector
    /// across each row.
    MulColBroadcast {
        /// Matrix operand.
        a: Src,
        /// `rows x 1` column operand.
        col: Src,
        /// Destination register.
        dst: u16,
    },
    /// Elementwise unary `dst = op(a)`.
    Unary {
        /// Operand.
        a: Src,
        /// The unary to apply.
        op: UnaryOp,
        /// Destination register.
        dst: u16,
    },
    /// Row-wise softmax.
    SoftmaxRows {
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Fused layer-norm + affine: normalize rows (eps [`LN_EPS`]),
    /// then `dst = dst * gamma + beta` broadcast per row.
    LayerNormAffine {
        /// Operand.
        a: Src,
        /// `1 x cols` gain row (plain-weight index).
        gamma: u16,
        /// `1 x cols` shift row (plain-weight index).
        beta: u16,
        /// Destination register.
        dst: u16,
    },
    /// `dst[i] = a[idx[i]]` row gather.
    GatherRows {
        /// Row source.
        a: Src,
        /// Per-request index array.
        idx: IdxRef,
        /// Destination register.
        dst: u16,
    },
    /// `dst[idx[i]] += a[i]` row scatter-add into a zeroed output
    /// with `out_rows` rows, accumulating in index order.
    ScatterAddRows {
        /// Row source.
        a: Src,
        /// Per-request index array.
        idx: IdxRef,
        /// Number of output rows.
        out_rows: usize,
        /// Destination register.
        dst: u16,
    },
    /// Horizontal concatenation `dst = [a | b]`.
    HCat {
        /// Left block.
        a: Src,
        /// Right block.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// `1 x cols` mean over rows: accumulate rows in order with the
    /// dispatched `add_into`, then scale by `1.0 / rows`.
    MeanRows {
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Shortest-path-distance attention bias:
    /// `dst[i][j] = thetas[spd[i * n + j]]` over the flattened
    /// `n_nodes x n_nodes` SPD bucket map ([`PlanInputs::spd`]), the
    /// same gather as the tape's op. Theta values are snapshot at
    /// compile time (plans are invalidated on reload).
    SpdBias {
        /// Per-bucket bias values, indexed by SPD bucket.
        thetas: Vec<f32>,
        /// Destination register.
        dst: u16,
    },
}

impl Instr {
    fn dst(&self) -> u16 {
        match *self {
            Instr::MatmulPacked { dst, .. }
            | Instr::MatmulPackedI8 { dst, .. }
            | Instr::Matmul { dst, .. }
            | Instr::Attention { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::MulColBroadcast { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::SoftmaxRows { dst, .. }
            | Instr::LayerNormAffine { dst, .. }
            | Instr::GatherRows { dst, .. }
            | Instr::ScatterAddRows { dst, .. }
            | Instr::HCat { dst, .. }
            | Instr::MeanRows { dst, .. }
            | Instr::SpdBias { dst, .. } => dst,
        }
    }

    fn for_each_src(&self, mut f: impl FnMut(Src)) {
        match *self {
            Instr::MatmulPacked { a, .. }
            | Instr::MatmulPackedI8 { a, .. }
            | Instr::Unary { a, .. }
            | Instr::SoftmaxRows { a, .. }
            | Instr::LayerNormAffine { a, .. }
            | Instr::GatherRows { a, .. }
            | Instr::ScatterAddRows { a, .. }
            | Instr::MeanRows { a, .. } => f(a),
            Instr::Matmul { a, b, .. }
            | Instr::Add { a, b, .. }
            | Instr::Mul { a, b, .. }
            | Instr::HCat { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::MulColBroadcast { a, col, .. } => {
                f(a);
                f(col);
            }
            Instr::Attention { q, k, v, bias, .. } => {
                f(q);
                f(k);
                f(v);
                if let Some(b) = bias {
                    f(b);
                }
            }
            Instr::SpdBias { .. } => {}
        }
    }
}

/// Per-request input shapes a program is specialized to. Execution
/// validates the actual inputs against these before running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputShapes {
    /// Number of graph nodes.
    pub n_nodes: usize,
    /// Number of edge rows (the featurizer pads empty graphs to one
    /// zero edge, so this is `max(edges, 1)`).
    pub n_edges: usize,
    /// Node feature width.
    pub node_feat_dim: usize,
    /// Edge feature width.
    pub edge_feat_dim: usize,
    /// Global feature width.
    pub global_feat_dim: usize,
}

/// Borrowed per-request inputs for one execution.
#[derive(Clone, Copy)]
pub struct PlanInputs<'a> {
    /// `n_nodes x node_feat_dim` node features.
    pub node_feats: &'a Matrix,
    /// `n_edges x edge_feat_dim` edge features.
    pub edge_feats: &'a Matrix,
    /// `1 x global_feat_dim` graph-level features.
    pub global_feats: &'a Matrix,
    /// Source node of each edge.
    pub edge_src: &'a [usize],
    /// Destination node of each edge.
    pub edge_dst: &'a [usize],
    /// Degree bucket of each node.
    pub degree_bucket: &'a [usize],
    /// Flattened `n_nodes x n_nodes` SPD bucket map.
    pub spd: &'a [u8],
}

/// Summary counters for observability (`/statusz` plan section).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramStats {
    /// Instruction count.
    pub instrs: usize,
    /// Register count.
    pub registers: usize,
    /// Pre-packed f32 weight panels.
    pub packed_weights: usize,
    /// Pre-packed int8 weight panels.
    pub packed_i8_weights: usize,
    /// Plain weight snapshots.
    pub plain_weights: usize,
    /// Total bytes held by weight snapshots (packed + quantized +
    /// plain).
    pub weight_bytes: usize,
    /// Node count the program is specialized to.
    pub n_nodes: usize,
    /// Edge-row count the program is specialized to.
    pub n_edges: usize,
}

/// A compiled, shape-specialized instruction stream plus its weight
/// snapshots. Immutable after [`ProgramBuilder::finish`]; safe to
/// share across threads behind an `Arc` (executors are per-thread).
#[derive(Clone, Debug)]
pub struct Program {
    instrs: Vec<Instr>,
    packed: Vec<PackedB>,
    packed_i8: Vec<PackedI8>,
    plain: Vec<Matrix>,
    reg_shapes: Vec<(usize, usize)>,
    /// Registers whose last read is instruction `i`, recycled right
    /// after it executes.
    free_after: Vec<Vec<u16>>,
    output: u16,
    shapes: InputShapes,
    precision: Precision,
}

impl Program {
    /// The input shapes this program is specialized to.
    pub fn input_shapes(&self) -> InputShapes {
        self.shapes
    }

    /// The numeric tier this program's weight matmuls were lowered to.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Shape of the final output register.
    pub fn output_shape(&self) -> (usize, usize) {
        self.reg_shapes[self.output as usize]
    }

    /// Summary counters for telemetry.
    pub fn stats(&self) -> ProgramStats {
        let packed_bytes: usize = self.packed.iter().map(|p| p.bytes()).sum();
        let i8_bytes: usize = self.packed_i8.iter().map(|p| p.bytes()).sum();
        let plain_bytes: usize = self.plain.iter().map(|m| m.len() * 4).sum();
        ProgramStats {
            instrs: self.instrs.len(),
            registers: self.reg_shapes.len(),
            packed_weights: self.packed.len(),
            packed_i8_weights: self.packed_i8.len(),
            plain_weights: self.plain.len(),
            weight_bytes: packed_bytes + i8_bytes + plain_bytes,
            n_nodes: self.shapes.n_nodes,
            n_edges: self.shapes.n_edges,
        }
    }

    fn validate(&self, inp: &PlanInputs<'_>) {
        let s = &self.shapes;
        assert_eq!(
            inp.node_feats.shape(),
            (s.n_nodes, s.node_feat_dim),
            "plan: node feature shape mismatch"
        );
        assert_eq!(
            inp.edge_feats.shape(),
            (s.n_edges, s.edge_feat_dim),
            "plan: edge feature shape mismatch"
        );
        assert_eq!(
            inp.global_feats.shape(),
            (1, s.global_feat_dim),
            "plan: global feature shape mismatch"
        );
        assert_eq!(inp.edge_src.len(), s.n_edges, "plan: edge_src length mismatch");
        assert_eq!(inp.edge_dst.len(), s.n_edges, "plan: edge_dst length mismatch");
        assert_eq!(inp.degree_bucket.len(), s.n_nodes, "plan: degree_bucket length mismatch");
        assert_eq!(inp.spd.len(), s.n_nodes * s.n_nodes, "plan: spd length mismatch");
    }
}

/// Incrementally builds a [`Program`], checking operand shapes at
/// every emit so shape bugs surface at compile time rather than as
/// kernel panics mid-request. Its [`Recorder`] implementation emits
/// one instruction per call and returns the [`Src`] of the new
/// register, so a model's generic forward pass records a plan.
pub struct ProgramBuilder {
    shapes: InputShapes,
    instrs: Vec<Instr>,
    packed: Vec<PackedB>,
    packed_i8: Vec<PackedI8>,
    plain: Vec<Matrix>,
    reg_shapes: Vec<(usize, usize)>,
    precision: Precision,
}

impl ProgramBuilder {
    /// Starts a program specialized to the given input shapes, tagged
    /// [`Precision::F32`] until [`Self::set_precision`] says otherwise.
    pub fn new(shapes: InputShapes) -> Self {
        ProgramBuilder {
            shapes,
            instrs: Vec::new(),
            packed: Vec::new(),
            packed_i8: Vec::new(),
            plain: Vec::new(),
            reg_shapes: Vec::new(),
            precision: Precision::F32,
        }
    }

    /// Sets the numeric tier [`Recorder::linear`] lowers weight
    /// matmuls to; carried onto the finished [`Program`] as its tag.
    pub fn set_precision(&mut self, p: Precision) {
        self.precision = p;
    }

    fn idx_len(&self, idx: IdxRef) -> usize {
        match idx {
            IdxRef::EdgeSrc | IdxRef::EdgeDst => self.shapes.n_edges,
            IdxRef::DegreeBucket => self.shapes.n_nodes,
        }
    }

    fn push_reg(&mut self, shape: (usize, usize)) -> u16 {
        let id = self.reg_shapes.len();
        assert!(id < u16::MAX as usize, "plan: register count overflow");
        self.reg_shapes.push(shape);
        id as u16
    }

    fn emit(&mut self, shape: (usize, usize), make: impl FnOnce(u16) -> Instr) -> Src {
        let dst = self.push_reg(shape);
        self.instrs.push(make(dst));
        Src::Reg(dst)
    }

    /// Snapshots and pre-packs a matmul right-hand-side weight,
    /// returning its packed-table index for [`Self::matmul_packed`].
    fn packed_weight(&mut self, w: &Matrix) -> u16 {
        let id = self.packed.len();
        assert!(id < u16::MAX as usize, "plan: packed weight count overflow");
        self.packed.push(w.prepack_b());
        id as u16
    }

    /// Quantizes and packs a matmul weight into int8 panels, returning
    /// its table index for [`Self::matmul_packed_i8`].
    fn packed_weight_i8(&mut self, w: &Matrix) -> u16 {
        let id = self.packed_i8.len();
        assert!(id < u16::MAX as usize, "plan: int8 weight count overflow");
        self.packed_i8.push(PackedI8::pack(w));
        id as u16
    }

    /// Snapshots a plain weight (bias rows, norm gains, embedding
    /// tables, seed matrices), returning its plain-table index. Use
    /// [`Src::Weight`] to reference it as a general operand.
    fn plain_weight(&mut self, w: Matrix) -> u16 {
        let id = self.plain.len();
        assert!(id < u16::MAX as usize, "plan: plain weight count overflow");
        self.plain.push(w);
        id as u16
    }

    /// Emits `a * packed[w] (+ bias)`.
    fn matmul_packed(&mut self, a: Src, w: u16, bias: Option<u16>) -> Src {
        let (ar, ac) = self.shape(a);
        let (k, n) = self.packed[w as usize].shape();
        assert_eq!(ac, k, "plan: matmul_packed inner dim mismatch");
        if let Some(b) = bias {
            assert_eq!(
                self.plain[b as usize].shape(),
                (1, n),
                "plan: matmul_packed bias shape mismatch"
            );
        }
        self.emit((ar, n), |dst| Instr::MatmulPacked { a, w, bias, dst })
    }

    /// Emits `a * packed_i8[w] (+ bias)`.
    fn matmul_packed_i8(&mut self, a: Src, w: u16, bias: Option<u16>) -> Src {
        let (ar, ac) = self.shape(a);
        let (k, n) = self.packed_i8[w as usize].shape();
        assert_eq!(ac, k, "plan: matmul_packed_i8 inner dim mismatch");
        if let Some(b) = bias {
            assert_eq!(
                self.plain[b as usize].shape(),
                (1, n),
                "plan: matmul_packed_i8 bias shape mismatch"
            );
        }
        self.emit((ar, n), |dst| Instr::MatmulPackedI8 { a, w, bias, dst })
    }

    /// Emits an elementwise unary.
    fn unary(&mut self, a: Src, op: UnaryOp) -> Src {
        let sa = self.shape(a);
        self.emit(sa, |dst| Instr::Unary { a, op, dst })
    }

    /// Emits fused layer-norm + affine.
    fn layer_norm_affine(&mut self, a: Src, gamma: u16, beta: u16) -> Src {
        let sa = self.shape(a);
        assert_eq!(
            self.plain[gamma as usize].shape(),
            (1, sa.1),
            "plan: layer_norm gamma shape mismatch"
        );
        assert_eq!(
            self.plain[beta as usize].shape(),
            (1, sa.1),
            "plan: layer_norm beta shape mismatch"
        );
        self.emit(sa, |dst| Instr::LayerNormAffine { a, gamma, beta, dst })
    }

    /// Runs the liveness pass and seals the program. `output` must be
    /// a register.
    pub fn finish(self, output: Src) -> Program {
        let out_reg = match output {
            Src::Reg(r) => r,
            other => panic!("plan: program output must be a register, got {other:?}"),
        };
        assert!((out_reg as usize) < self.reg_shapes.len(), "plan: output register undefined");
        // Last instruction that reads each register; a register never
        // read dies right after its producer.
        let mut last_use: Vec<usize> = vec![0; self.reg_shapes.len()];
        for (i, instr) in self.instrs.iter().enumerate() {
            last_use[instr.dst() as usize] = i;
            instr.for_each_src(|s| {
                if let Src::Reg(r) = s {
                    last_use[r as usize] = i;
                }
            });
        }
        let mut free_after: Vec<Vec<u16>> = vec![Vec::new(); self.instrs.len()];
        for (r, &at) in last_use.iter().enumerate() {
            if r as u16 != out_reg {
                free_after[at].push(r as u16);
            }
        }
        Program {
            instrs: self.instrs,
            packed: self.packed,
            packed_i8: self.packed_i8,
            plain: self.plain,
            reg_shapes: self.reg_shapes,
            free_after,
            output: out_reg,
            shapes: self.shapes,
            precision: self.precision,
        }
    }
}

/// Plan recording: one instruction per call. Parameters are snapshot
/// at record time, so a reloaded model needs fresh plans.
impl Recorder for ProgramBuilder {
    type V = Src;
    type Idx<'a> = IdxRef;
    type Spd<'a> = SpdRef;

    /// Shape of any operand (register, input, or plain weight).
    fn shape(&self, s: Src) -> (usize, usize) {
        match s {
            Src::Reg(r) => self.reg_shapes[r as usize],
            Src::Input(InputRef::NodeFeats) => (self.shapes.n_nodes, self.shapes.node_feat_dim),
            Src::Input(InputRef::EdgeFeats) => (self.shapes.n_edges, self.shapes.edge_feat_dim),
            Src::Input(InputRef::GlobalFeats) => (1, self.shapes.global_feat_dim),
            Src::Weight(w) => self.plain[w as usize].shape(),
        }
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Src {
        Src::Weight(self.plain_weight(store.value(id).clone()))
    }

    /// The precision-lowering hook: every `Linear` weight (the only
    /// compile-time matmul right-hand sides) is snapshot at the
    /// builder's precision. Activation-by-activation products
    /// (attention scores/values) have no compile-time operand and
    /// stay f32 at every tier.
    fn linear(&mut self, store: &ParamStore, w: ParamId, b: Option<ParamId>, x: Src) -> Src {
        let wm = store.value(w);
        let bias = b.map(|id| self.plain_weight(store.value(id).clone()));
        match self.precision {
            Precision::F32 => {
                let w = self.packed_weight(wm);
                self.matmul_packed(x, w, bias)
            }
            Precision::Int8 => {
                let w = self.packed_weight_i8(wm);
                self.matmul_packed_i8(x, w, bias)
            }
        }
    }

    fn layer_norm(&mut self, store: &ParamStore, gamma: ParamId, beta: ParamId, x: Src) -> Src {
        let gamma = self.plain_weight(store.value(gamma).clone());
        let beta = self.plain_weight(store.value(beta).clone());
        self.layer_norm_affine(x, gamma, beta)
    }

    fn activation(&mut self, act: Activation, x: Src) -> Src {
        match act {
            Activation::None => x,
            Activation::Relu => self.unary(x, UnaryOp::Relu),
            Activation::LeakyRelu(a) => self.unary(x, UnaryOp::LeakyRelu(a)),
            Activation::Gelu => self.unary(x, UnaryOp::Gelu),
            Activation::Sigmoid => self.unary(x, UnaryOp::Sigmoid),
            Activation::Tanh => self.unary(x, UnaryOp::Tanh),
        }
    }

    fn add(&mut self, a: Src, b: Src) -> Src {
        let sa = self.shape(a);
        assert_eq!(sa, self.shape(b), "plan: add shape mismatch");
        self.emit(sa, |dst| Instr::Add { a, b, dst })
    }

    fn mul(&mut self, a: Src, b: Src) -> Src {
        let sa = self.shape(a);
        assert_eq!(sa, self.shape(b), "plan: mul shape mismatch");
        self.emit(sa, |dst| Instr::Mul { a, b, dst })
    }

    fn mul_col_broadcast(&mut self, a: Src, col: Src) -> Src {
        let sa = self.shape(a);
        assert_eq!(self.shape(col), (sa.0, 1), "plan: mul_col_broadcast column shape mismatch");
        self.emit(sa, |dst| Instr::MulColBroadcast { a, col, dst })
    }

    /// Runtime right-hand sides (small parameter vectors); weight
    /// matmuls go through [`Recorder::linear`].
    fn matmul(&mut self, a: Src, b: Src) -> Src {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ac, br, "plan: matmul inner dim mismatch");
        self.emit((ar, bc), |dst| Instr::Matmul { a, b, dst })
    }

    fn softmax_rows(&mut self, a: Src) -> Src {
        let sa = self.shape(a);
        self.emit(sa, |dst| Instr::SoftmaxRows { a, dst })
    }

    /// One [`Instr::Attention`] for the whole multi-head block.
    fn attention(&mut self, q: Src, k: Src, v: Src, heads: usize, scale: f32, bias: Option<Src>) -> Src {
        let (n, dim) = self.shape(q);
        let (m, kc) = self.shape(k);
        assert!(heads > 0 && dim.is_multiple_of(heads), "plan: attention over {dim} columns in {heads} heads");
        assert_eq!(kc, dim, "plan: attention key width mismatch");
        assert_eq!(self.shape(v), (m, dim), "plan: attention value shape mismatch");
        if let Some(b) = bias {
            assert_eq!(self.shape(b), (n, m), "plan: attention bias shape mismatch");
        }
        self.emit((n, dim), |dst| Instr::Attention { q, k, v, heads, scale, bias, dst })
    }

    fn mean_rows(&mut self, a: Src) -> Src {
        let (ar, ac) = self.shape(a);
        assert!(ar > 0, "plan: mean_rows over zero rows");
        self.emit((1, ac), |dst| Instr::MeanRows { a, dst })
    }

    fn hcat(&mut self, a: Src, b: Src) -> Src {
        let (ar, ac) = self.shape(a);
        let (br, bc) = self.shape(b);
        assert_eq!(ar, br, "plan: hcat row mismatch");
        self.emit((ar, ac + bc), |dst| Instr::HCat { a, b, dst })
    }

    /// Gathers through a per-request index array.
    fn gather_rows(&mut self, a: Src, idx: IdxRef) -> Src {
        let (_, cols) = self.shape(a);
        let rows = self.idx_len(idx);
        self.emit((rows, cols), |dst| Instr::GatherRows { a, idx, dst })
    }

    fn scatter_add_rows(&mut self, a: Src, idx: IdxRef, out_rows: usize) -> Src {
        let (ar, cols) = self.shape(a);
        assert_eq!(ar, self.idx_len(idx), "plan: scatter_add_rows index length mismatch");
        self.emit((out_rows, cols), |dst| Instr::ScatterAddRows { a, idx, out_rows, dst })
    }

    /// Snapshots the theta values the way [`Recorder::param`] does.
    fn spd_bias(&mut self, store: &ParamStore, thetas: &[ParamId], _spd: SpdRef) -> Src {
        assert!(!thetas.is_empty(), "plan: spd_bias needs at least one bucket");
        let thetas = thetas.iter().map(|&id| store.value(id).get(0, 0)).collect();
        let n = self.shapes.n_nodes;
        self.emit((n, n), |dst| Instr::SpdBias { thetas, dst })
    }
}

fn resolve<'r>(
    regs: &'r [Option<Matrix>],
    program: &'r Program,
    inp: &PlanInputs<'r>,
    s: Src,
) -> &'r Matrix {
    match s {
        Src::Reg(r) => regs[r as usize].as_ref().expect("plan: register read before write"),
        Src::Input(InputRef::NodeFeats) => inp.node_feats,
        Src::Input(InputRef::EdgeFeats) => inp.edge_feats,
        Src::Input(InputRef::GlobalFeats) => inp.global_feats,
        Src::Weight(w) => &program.plain[w as usize],
    }
}

fn indices<'r>(inp: &PlanInputs<'r>, idx: IdxRef) -> &'r [usize] {
    match idx {
        IdxRef::EdgeSrc => inp.edge_src,
        IdxRef::EdgeDst => inp.edge_dst,
        IdxRef::DegreeBucket => inp.degree_bucket,
    }
}

/// Executes [`Program`]s against a private [`ScratchArena`]. One
/// executor per thread; after the first run at a given shape, every
/// register take is served from recycled buffers (zero fresh
/// allocations per request).
pub struct Executor {
    arena: ScratchArena,
    regs: Vec<Option<Matrix>>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor with an empty arena.
    pub fn new() -> Self {
        Executor { arena: ScratchArena::new(), regs: Vec::new() }
    }

    /// Runs a program whose output is a `1 x 1` scalar and returns
    /// its value. Panics on input-shape mismatch or a non-scalar
    /// output register.
    pub fn run_scalar(&mut self, program: &Program, inp: &PlanInputs<'_>) -> f32 {
        assert_eq!(program.output_shape(), (1, 1), "plan: run_scalar on non-scalar program");
        let out = self.run(program, inp);
        let v = out.get(0, 0);
        self.arena.recycle(out);
        v
    }

    /// Runs a program and returns the output matrix. The caller may
    /// hand the matrix back via [`Self::recycle`] to keep the arena
    /// warm, or keep it (it is an owned `Matrix`).
    pub fn run(&mut self, program: &Program, inp: &PlanInputs<'_>) -> Matrix {
        program.validate(inp);
        self.regs.clear();
        self.regs.resize_with(program.reg_shapes.len(), || None);
        for (i, instr) in program.instrs.iter().enumerate() {
            let dst_id = instr.dst();
            let dst = self.exec(program, inp, instr);
            debug_assert_eq!(dst.shape(), program.reg_shapes[dst_id as usize]);
            self.regs[dst_id as usize] = Some(dst);
            for &r in &program.free_after[i] {
                if let Some(m) = self.regs[r as usize].take() {
                    self.arena.recycle(m);
                }
            }
        }
        self.regs[program.output as usize].take().expect("plan: program produced no output")
    }

    /// Returns a matrix obtained from [`Self::run`] to the arena.
    pub fn recycle(&mut self, m: Matrix) {
        self.arena.recycle(m);
    }

    /// Fresh-allocation counter of the private arena (steady-state
    /// executions should not move it).
    pub fn fresh_allocs(&self) -> u64 {
        self.arena.fresh_allocs()
    }

    fn exec(&mut self, p: &Program, inp: &PlanInputs<'_>, instr: &Instr) -> Matrix {
        let regs = &self.regs;
        match instr {
            Instr::MatmulPacked { a, w, bias, dst } => {
                let av = resolve(regs, p, inp, *a);
                let pb = &p.packed[*w as usize];
                let mut out = self.arena.take_zeroed(p.reg_shapes[*dst as usize].0, pb.shape().1);
                av.matmul_prepacked_into(pb, &mut out);
                if let Some(b) = bias {
                    out.add_bias_rowwise(&p.plain[*b as usize]);
                }
                out
            }
            Instr::MatmulPackedI8 { a, w, bias, dst } => {
                let av = resolve(regs, p, inp, *a);
                let pw = &p.packed_i8[*w as usize];
                let mut out = self.arena.take_zeroed(p.reg_shapes[*dst as usize].0, pw.shape().1);
                matmul_i8_into(av, pw, &mut out);
                if let Some(b) = bias {
                    out.add_bias_rowwise(&p.plain[*b as usize]);
                }
                out
            }
            Instr::Matmul { a, b, dst } => {
                let av = resolve(regs, p, inp, *a);
                let bv = resolve(regs, p, inp, *b);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.matmul_into(bv, &mut out);
                out
            }
            Instr::Attention { q, k, v, heads, scale, bias, dst } => {
                let qv = resolve(regs, p, inp, *q);
                let kv = resolve(regs, p, inp, *k);
                let vv = resolve(regs, p, inp, *v);
                let bv = bias.map(|b| resolve(regs, p, inp, b));
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                attention_into(qv, kv, vv, *heads, *scale, bv, &mut out, None, &mut self.arena);
                out
            }
            Instr::Add { a, b, dst } => {
                let av = resolve(regs, p, inp, *a);
                let bv = resolve(regs, p, inp, *b);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.zip_map_into(bv, &mut out, |x, y| x + y);
                out
            }
            Instr::Mul { a, b, dst } => {
                let av = resolve(regs, p, inp, *a);
                let bv = resolve(regs, p, inp, *b);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.zip_map_into(bv, &mut out, |x, y| x * y);
                out
            }
            Instr::MulColBroadcast { a, col, .. } => {
                let av = resolve(regs, p, inp, *a);
                let cv = resolve(regs, p, inp, *col);
                let mut out = self.arena.take_copy(av);
                for i in 0..out.rows() {
                    let s = cv.get(i, 0);
                    for o in out.row_mut(i) {
                        *o *= s;
                    }
                }
                out
            }
            Instr::Unary { a, op, dst } => {
                let av = resolve(regs, p, inp, *a);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                match *op {
                    UnaryOp::Relu => av.map_into(&mut out, |e| e.max(0.0)),
                    UnaryOp::LeakyRelu(alpha) => {
                        av.map_into(&mut out, |e| if e >= 0.0 { e } else { alpha * e })
                    }
                    UnaryOp::Gelu => av.gelu_into(&mut out),
                    UnaryOp::Sigmoid => av.sigmoid_into(&mut out),
                    UnaryOp::Tanh => av.tanh_into(&mut out),
                }
                out
            }
            Instr::SoftmaxRows { a, dst } => {
                let av = resolve(regs, p, inp, *a);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.softmax_rows_into(&mut out);
                out
            }
            Instr::LayerNormAffine { a, gamma, beta, dst } => {
                let av = resolve(regs, p, inp, *a);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.layernorm_rows_into(LN_EPS, &mut out);
                let g = &p.plain[*gamma as usize];
                let b = &p.plain[*beta as usize];
                for row in 0..out.rows() {
                    for ((o, &gv), &bv) in
                        out.row_mut(row).iter_mut().zip(g.row(0).iter()).zip(b.row(0).iter())
                    {
                        *o = *o * gv + bv;
                    }
                }
                out
            }
            Instr::GatherRows { a, idx, dst } => {
                let av = resolve(regs, p, inp, *a);
                let ids = indices(inp, *idx);
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                av.gather_rows_into(ids, &mut out);
                out
            }
            Instr::ScatterAddRows { a, idx, out_rows, dst } => {
                let av = resolve(regs, p, inp, *a);
                let ids = indices(inp, *idx);
                let (_, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(*out_rows, c);
                for (i, &target) in ids.iter().enumerate() {
                    occu_tensor::add_into(out.row_mut(target), av.row(i));
                }
                out
            }
            Instr::HCat { a, b, dst } => {
                let av = resolve(regs, p, inp, *a);
                let bv = resolve(regs, p, inp, *b);
                let ca = av.cols();
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                for row in 0..r {
                    out.row_mut(row)[..ca].copy_from_slice(av.row(row));
                    out.row_mut(row)[ca..].copy_from_slice(bv.row(row));
                }
                out
            }
            Instr::MeanRows { a, dst } => {
                let av = resolve(regs, p, inp, *a);
                let (_, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(1, c);
                for row in 0..av.rows() {
                    occu_tensor::add_into(out.row_mut(0), av.row(row));
                }
                let inv = 1.0 / av.rows() as f32;
                for o in out.row_mut(0) {
                    *o *= inv;
                }
                out
            }
            Instr::SpdBias { thetas, dst } => {
                let (r, c) = p.reg_shapes[*dst as usize];
                let mut out = self.arena.take_zeroed(r, c);
                for (o, &bucket) in out.data_mut().iter_mut().zip(inp.spd.iter()) {
                    *o = thetas[bucket as usize];
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occu_tensor::SeededRng;

    fn rand_matrix(rng: &mut SeededRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.uniform(-1.0, 1.0))
    }

    struct Fixture {
        node_feats: Matrix,
        edge_feats: Matrix,
        global_feats: Matrix,
        edge_src: Vec<usize>,
        edge_dst: Vec<usize>,
        degree_bucket: Vec<usize>,
        spd: Vec<u8>,
        shapes: InputShapes,
    }

    impl Fixture {
        fn new(seed: u64, n_nodes: usize, n_edges: usize) -> Self {
            let mut rng = SeededRng::new(seed);
            let (nf, ef, gf) = (5, 3, 4);
            let node_feats = rand_matrix(&mut rng, n_nodes, nf);
            let edge_feats = rand_matrix(&mut rng, n_edges, ef);
            let global_feats = rand_matrix(&mut rng, 1, gf);
            let edge_src = (0..n_edges).map(|_| rng.index(n_nodes)).collect();
            let edge_dst = (0..n_edges).map(|_| rng.index(n_nodes)).collect();
            let degree_bucket = (0..n_nodes).map(|_| rng.index(4)).collect();
            let spd = (0..n_nodes * n_nodes).map(|_| rng.index(3) as u8).collect();
            let shapes = InputShapes {
                n_nodes,
                n_edges,
                node_feat_dim: nf,
                edge_feat_dim: ef,
                global_feat_dim: gf,
            };
            Fixture { node_feats, edge_feats, global_feats, edge_src, edge_dst, degree_bucket, spd, shapes }
        }

        fn inputs(&self) -> PlanInputs<'_> {
            PlanInputs {
                node_feats: &self.node_feats,
                edge_feats: &self.edge_feats,
                global_feats: &self.global_feats,
                edge_src: &self.edge_src,
                edge_dst: &self.edge_dst,
                degree_bucket: &self.degree_bucket,
                spd: &self.spd,
            }
        }
    }

    #[test]
    fn packed_matmul_program_matches_direct_matmul_bitwise() {
        let fx = Fixture::new(0xAB, 6, 4);
        let mut rng = SeededRng::new(7);
        let w = rand_matrix(&mut rng, 5, 8);
        let bias = rand_matrix(&mut rng, 1, 8);

        let mut b = ProgramBuilder::new(fx.shapes);
        let wid = b.packed_weight(&w);
        let bid = b.plain_weight(bias.clone());
        let y = b.matmul_packed(Src::Input(InputRef::NodeFeats), wid, Some(bid));
        let prog = b.finish(y);

        let mut ex = Executor::new();
        let got = ex.run(&prog, &fx.inputs());

        let mut want = fx.node_feats.matmul(&w);
        want.add_bias_rowwise(&bias);
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data().iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "packed matmul diverged from direct matmul");
        }
    }

    /// Plain-loop multi-head attention, independent of the fused
    /// kernel: per head and query row, each score a `+0.0`-based chain
    /// over the head columns, scaled, biased, softmaxed by the row
    /// kernel, then each output a `+0.0`-based chain over the keys.
    fn reference_attention(q: &Matrix, k: &Matrix, v: &Matrix, heads: usize, bias: Option<&Matrix>) -> Matrix {
        let (n, dim) = q.shape();
        let m = k.rows();
        let d = dim / heads;
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = Matrix::zeros(n, dim);
        for h in 0..heads {
            let lo = h * d;
            let mut scores = Matrix::zeros(n, m);
            for i in 0..n {
                for j in 0..m {
                    let mut s = 0.0f32;
                    for t in lo..lo + d {
                        s += q.get(i, t) * k.get(j, t);
                    }
                    s *= scale;
                    if let Some(b) = bias {
                        s += b.get(i, j);
                    }
                    scores.set(i, j, s);
                }
            }
            let probs = scores.softmax_rows();
            for i in 0..n {
                for c in lo..lo + d {
                    let mut acc = 0.0f32;
                    for j in 0..m {
                        acc += probs.get(i, j) * v.get(j, c);
                    }
                    out.set(i, c, acc);
                }
            }
        }
        out
    }

    #[test]
    fn structured_ops_match_reference_semantics_bitwise() {
        let fx = Fixture::new(0xC0FFEE, 5, 7);
        let mut rng = SeededRng::new(11);
        let gamma = rand_matrix(&mut rng, 1, 5);
        let beta = rand_matrix(&mut rng, 1, 5);
        let w = rand_matrix(&mut rng, 5, 6);
        let seeds = rand_matrix(&mut rng, 3, 6);
        let w_out = rand_matrix(&mut rng, 6, 5);
        let thetas = [0.25_f32, -0.5, 1.5];
        let mut store = ParamStore::new();
        let theta_ids: Vec<ParamId> = thetas
            .iter()
            .enumerate()
            .map(|(i, &t)| store.register(format!("theta{i}"), Matrix::from_vec(1, 1, vec![t])))
            .collect();

        let mut b = ProgramBuilder::new(fx.shapes);
        let gid = b.plain_weight(gamma.clone());
        let bid = b.plain_weight(beta.clone());
        let wid = b.packed_weight(&w);
        let seeds_src = Src::Weight(b.plain_weight(seeds.clone()));
        let w_out_src = Src::Weight(b.plain_weight(w_out.clone()));

        // gather node rows per edge source, scatter them back onto
        // destinations, normalize and widen to two 3-column heads, run
        // SPD-biased self-attention over the nodes, then pool it into
        // three seed rows with unbiased cross-attention (n != m, as in
        // PMA); softmax, mix, activate, mean-pool and concatenate with
        // the global features.
        let nodes = Src::Input(InputRef::NodeFeats);
        let gathered = b.gather_rows(nodes, IdxRef::EdgeSrc);
        let scattered = b.scatter_add_rows(gathered, IdxRef::EdgeDst, fx.shapes.n_nodes);
        let summed = b.add(scattered, nodes);
        let normed = b.layer_norm_affine(summed, gid, bid);
        let wide = b.matmul_packed(normed, wid, None);
        let bias = b.spd_bias(&store, &theta_ids, SpdRef);
        let scale = 1.0 / 3.0f32.sqrt();
        let att = b.attention(wide, wide, wide, 2, scale, Some(bias));
        let slots = b.attention(seeds_src, att, att, 2, scale, None);
        let probs = b.softmax_rows(slots);
        let mixed = b.matmul(probs, w_out_src);
        let act = b.unary(mixed, UnaryOp::Gelu);
        let pooled = b.mean_rows(act);
        let out = b.hcat(pooled, Src::Input(InputRef::GlobalFeats));
        let prog = b.finish(out);
        assert_eq!(prog.stats().instrs, 13);

        let mut ex = Executor::new();
        let got = ex.run(&prog, &fx.inputs());

        // Reference path: the other ops' kernels invoked directly,
        // mirroring the tape interpreter's op-by-op recipes, and
        // attention as plain loops.
        let n = fx.shapes.n_nodes;
        let mut gathered_r = Matrix::zeros(fx.shapes.n_edges, 5);
        fx.node_feats.gather_rows_into(&fx.edge_src, &mut gathered_r);
        let mut scattered_r = Matrix::zeros(n, 5);
        for (i, &d) in fx.edge_dst.iter().enumerate() {
            occu_tensor::add_into(scattered_r.row_mut(d), gathered_r.row(i));
        }
        let summed_r = scattered_r.zip_map(&fx.node_feats, |x, y| x + y);
        let mut normed_r = Matrix::zeros(n, 5);
        summed_r.layernorm_rows_into(1e-5, &mut normed_r);
        for row in 0..n {
            for ((o, &gv), &bv) in
                normed_r.row_mut(row).iter_mut().zip(gamma.row(0).iter()).zip(beta.row(0).iter())
            {
                *o = *o * gv + bv;
            }
        }
        let wide_r = normed_r.matmul(&w);
        let bias_r = Matrix::from_fn(n, n, |i, j| thetas[fx.spd[i * n + j] as usize]);
        let att_r = reference_attention(&wide_r, &wide_r, &wide_r, 2, Some(&bias_r));
        let slots_r = reference_attention(&seeds, &att_r, &att_r, 2, None);
        let probs_r = slots_r.softmax_rows();
        let mixed_r = probs_r.matmul(&w_out);
        let mut act_r = Matrix::zeros(3, 5);
        mixed_r.gelu_into(&mut act_r);
        let mut pooled_r = Matrix::zeros(1, 5);
        for row in 0..act_r.rows() {
            occu_tensor::add_into(pooled_r.row_mut(0), act_r.row(row));
        }
        let inv = 1.0 / act_r.rows() as f32;
        for o in pooled_r.row_mut(0) {
            *o *= inv;
        }
        let want = pooled_r.hcat(&fx.global_feats);

        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.data().iter().zip(want.data().iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "structured program diverged from reference");
        }
    }

    #[test]
    fn every_unary_arm_matches_the_tape_activation_bitwise() {
        // 2 x 67 = 134 elements: sixteen 8-lane chunks and a 6-element
        // scalar tail, with the exp cutoffs and non-finite values mixed
        // into the random ones.
        let (n, width) = (2, 67);
        let mut rng = SeededRng::new(0xAC7);
        let specials = [
            -87.0,
            88.0,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -90.0,
        ];
        let node_feats = Matrix::from_fn(n, width, |r, c| match (r * width + c) % 17 {
            k if k < specials.len() => specials[k],
            _ => rng.uniform(-6.0, 6.0),
        });
        let (edge_feats, global_feats) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let inputs = PlanInputs {
            node_feats: &node_feats,
            edge_feats: &edge_feats,
            global_feats: &global_feats,
            edge_src: &[0],
            edge_dst: &[0],
            degree_bucket: &[0; 2],
            spd: &[0; 4],
        };
        let shapes = InputShapes {
            n_nodes: n,
            n_edges: 1,
            node_feat_dim: width,
            edge_feat_dim: 1,
            global_feat_dim: 1,
        };
        let ops = [
            UnaryOp::Relu,
            UnaryOp::LeakyRelu(0.2),
            UnaryOp::Gelu,
            UnaryOp::Sigmoid,
            UnaryOp::Tanh,
        ];
        for op in ops {
            let mut b = ProgramBuilder::new(shapes);
            let out = b.unary(Src::Input(InputRef::NodeFeats), op);
            let got = Executor::new().run(&b.finish(out), &inputs);

            let mut tape = occu_nn::Tape::new();
            let x = tape.constant(node_feats.clone());
            let y = match op {
                UnaryOp::Relu => tape.relu(x),
                UnaryOp::LeakyRelu(a) => tape.leaky_relu(x, a),
                UnaryOp::Gelu => tape.gelu(x),
                UnaryOp::Sigmoid => tape.sigmoid(x),
                UnaryOp::Tanh => tape.tanh(x),
            };
            let want = tape.value(y);
            assert_eq!(got.shape(), want.shape());
            for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{op:?}: element {i} is {g}, tape {w}"
                );
            }
        }
    }

    #[test]
    fn int8_program_matches_direct_int8_matmul_bitwise() {
        let fx = Fixture::new(0x18, 6, 4);
        let mut rng = SeededRng::new(21);
        let w = rand_matrix(&mut rng, 5, 8);
        let bias = rand_matrix(&mut rng, 1, 8);

        let mut b = ProgramBuilder::new(fx.shapes);
        b.set_precision(Precision::Int8);
        let wid = b.packed_weight_i8(&w);
        let bid = b.plain_weight(bias.clone());
        let y = b.matmul_packed_i8(Src::Input(InputRef::NodeFeats), wid, Some(bid));
        let prog = b.finish(y);
        assert_eq!(prog.precision(), Precision::Int8);
        assert_eq!(prog.stats().packed_i8_weights, 1);

        let mut ex = Executor::new();
        let got = ex.run(&prog, &fx.inputs());

        let packed = PackedI8::pack(&w);
        let mut want = Matrix::zeros(6, 8);
        matmul_i8_into(&fx.node_feats, &packed, &mut want);
        want.add_bias_rowwise(&bias);
        assert_eq!(got, want, "int8 plan diverged from direct int8 matmul");
    }

    #[test]
    fn precision_defaults_to_f32_and_names_are_stable() {
        let fx = Fixture::new(0x33, 3, 2);
        let mut b = ProgramBuilder::new(fx.shapes);
        let out = b.unary(Src::Input(InputRef::NodeFeats), UnaryOp::Relu);
        let prog = b.finish(out);
        assert_eq!(prog.precision(), Precision::F32);
        for p in [Precision::F32, Precision::Int8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("int4"), None);
        assert_eq!(Precision::parse("f16"), None);
    }

    #[test]
    fn steady_state_runs_make_no_fresh_allocations() {
        let fx = Fixture::new(0xFEED, 8, 10);
        let mut rng = SeededRng::new(3);
        let w = rand_matrix(&mut rng, 5, 16);
        let seeds = rand_matrix(&mut rng, 3, 16);
        let mut store = ParamStore::new();
        let thetas: Vec<ParamId> = (0..3)
            .map(|i| store.register(format!("theta{i}"), Matrix::from_vec(1, 1, vec![0.1 * i as f32])))
            .collect();

        // Biased self-attention over the nodes and unbiased
        // cross-attention from three seeds, two heads each: the fused
        // instruction's scratch must come from the warm arena too.
        let mut b = ProgramBuilder::new(fx.shapes);
        let wid = b.packed_weight(&w);
        let seeds = Src::Weight(b.plain_weight(seeds));
        let h = b.matmul_packed(Src::Input(InputRef::NodeFeats), wid, None);
        let act = b.unary(h, UnaryOp::Relu);
        let bias = b.spd_bias(&store, &thetas, SpdRef);
        let att = b.attention(act, act, act, 2, 0.25, Some(bias));
        let slots = b.attention(seeds, att, att, 2, 0.25, None);
        let pooled = b.mean_rows(slots);
        let prog = b.finish(pooled);

        let mut ex = Executor::new();
        let first = ex.run(&prog, &fx.inputs());
        ex.recycle(first);
        let warm = ex.fresh_allocs();
        for _ in 0..5 {
            let out = ex.run(&prog, &fx.inputs());
            ex.recycle(out);
        }
        assert_eq!(
            ex.fresh_allocs(),
            warm,
            "steady-state plan execution should be allocation-free"
        );
    }

    #[test]
    fn liveness_frees_registers_after_last_use() {
        let fx = Fixture::new(1, 4, 3);
        let mut b = ProgramBuilder::new(fx.shapes);
        let nodes = Src::Input(InputRef::NodeFeats);
        let a = b.unary(nodes, UnaryOp::Relu); // reg 0, last used by instr 2
        let c = b.unary(nodes, UnaryOp::Tanh); // reg 1, last used by instr 2
        let s = b.add(a, c); // reg 2 (output)
        let prog = b.finish(s);
        // Registers 0 and 1 die at instruction 2; the output register
        // must never appear in a free list.
        assert_eq!(prog.free_after[2], vec![0, 1]);
        assert!(prog.free_after.iter().all(|f| !f.contains(&2)));
    }

    #[test]
    #[should_panic(expected = "matmul inner dim mismatch")]
    fn builder_rejects_shape_mismatches_at_compile_time() {
        let fx = Fixture::new(2, 4, 3);
        let mut b = ProgramBuilder::new(fx.shapes);
        let nodes = Src::Input(InputRef::NodeFeats); // 4 x 5
        let edges = Src::Input(InputRef::EdgeFeats); // 3 x 3
        b.matmul(nodes, edges);
    }

    #[test]
    #[should_panic(expected = "node feature shape mismatch")]
    fn executor_rejects_wrong_shaped_inputs() {
        let fx = Fixture::new(3, 4, 3);
        let mut b = ProgramBuilder::new(fx.shapes);
        let out = b.unary(Src::Input(InputRef::NodeFeats), UnaryOp::Relu);
        let prog = b.finish(out);

        let other = Fixture::new(3, 5, 3);
        Executor::new().run(&prog, &other.inputs());
    }
}
