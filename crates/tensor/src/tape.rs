//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an arena of [`Node`]s. Model parameters are registered
//! first ([`Tape::param`]), the boundary is sealed with [`Tape::freeze`], and
//! every training step then appends ephemeral forward nodes, calls
//! [`Tape::backward`] on the scalar loss, lets the optimizer consume the
//! parameter gradients, and finally calls [`Tape::reset`] which truncates the
//! arena back to the parameters. This keeps allocations stable across epochs
//! and avoids any closure-based backward machinery: each op's backward rule
//! is a match arm over [`Op`].
//!
//! ## The hot-path workspace
//!
//! Every ephemeral tensor — forward values, gradients, backward temporaries —
//! is drawn from an epoch-persistent [`crate::Workspace`] and returned to it
//! by [`Tape::reset`]. Because consecutive epochs replay the same computation
//! over the same shapes, the second and later epochs run entirely out of the
//! free lists: zero heap allocation in steady state, observable through
//! [`Tape::workspace_stats`].

use std::ops::Range;
use std::sync::Arc;

use crate::adjacency::Adjacency;
use crate::backend::{
    make_backend, scatter_mean_rows, softmax_row_in_place, streamed_softmax_prob, BackendKind,
    TensorBackend,
};
use crate::tensor::Tensor;
use crate::workspace::{Workspace, WorkspaceStats};

/// Probability clamp used by the focal loss in **both** the forward and the
/// backward pass. The lower bound guards `ln(0)` and division by zero; the
/// upper bound keeps `1 - p_t` away from exact zero so a saturated correct
/// prediction still yields a tiny positive loss and a finite gradient instead
/// of a forward loss of exactly zero that the (clamped) backward pass would
/// contradict.
const FOCAL_P_MIN: f32 = 1e-12;
const FOCAL_P_MAX: f32 = 1.0 - 1e-7;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(u32);

impl Var {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// Handle for the node at position `i` on its tape. Only meaningful for
    /// indices below [`Tape::param_count`] (used by optimizers to walk the
    /// parameter section).
    #[inline]
    pub fn from_index(i: usize) -> Var {
        Var(u32::try_from(i).expect("tape node index fits u32"))
    }
}

/// The operation that produced a node; encodes the backward rule.
#[derive(Debug)]
enum Op {
    /// Leaf node: parameter (grads tracked) or constant input.
    Leaf,
    /// `A · B`.
    MatMul(Var, Var),
    /// Elementwise `A + B` of identical shapes.
    Add(Var, Var),
    /// `A + b` where `b` is a `1 × cols` row broadcast over the rows of `A`.
    AddRowBroadcast(Var, Var),
    /// Elementwise `A - B`.
    Sub(Var, Var),
    /// Elementwise Hadamard product.
    MulElem(Var, Var),
    /// `k · A`.
    Scale(Var, f32),
    /// Elementwise sum of several identically shaped inputs.
    AddN(Vec<Var>),
    /// Rectified linear unit.
    Relu(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// `out[i] = a[idx[i]]` row gather (embedding lookup).
    GatherRows(Var, Arc<Vec<u32>>),
    /// Contiguous row slice: `out[i] = a[first + i]`.
    SliceRows(Var, usize),
    /// `out[i] = mean of a[j] over j ∈ adj(first + i)`; zero row when
    /// degree 0. The output covers adjacency rows `first..first + rows`.
    ScatterMean(Var, Arc<Adjacency>, usize),
    /// `out[i] = Σ_j w[e] · a[j]` over edges `e = (first + i, j)` of the
    /// adjacency, with one constant weight per CSR target entry (GCN-style
    /// normalized aggregation).
    ScatterWeighted(Var, Arc<Adjacency>, Arc<Vec<f32>>, usize),
    /// Horizontal concatenation of matrices with equal row counts.
    ConcatCols(Vec<Var>),
    /// Column slice `a[:, start..end]`.
    SliceCols(Var, usize, usize),
    /// Shape reinterpretation (data order unchanged).
    Reshape(Var),
    /// Sum of all elements, producing a `1 × 1` tensor.
    SumAll(Var),
    /// Mean of all elements, producing a `1 × 1` tensor.
    MeanAll(Var),
    /// Row-wise softmax.
    RowSoftmax(Var),
    /// `out[n] = Σ_c alpha[n, c] · v[n·C + c, :]` — batched attention
    /// read-out over blocks of `C` rows.
    BlockWeightedSum { v: Var, alpha: Var },
    /// Mean softmax cross-entropy over rows of logits against class indices.
    SoftmaxCrossEntropy { logits: Var, targets: Arc<Vec<u32>> },
    /// Mean focal loss `-(1 - p_t)^γ · log p_t` over rows of logits.
    FocalLoss {
        logits: Var,
        targets: Arc<Vec<u32>>,
        gamma: f32,
    },
    /// Mean squared error of an `N × 1` prediction column against targets.
    MseLoss { pred: Var, targets: Arc<Vec<f32>> },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    needs_grad: bool,
}

/// Timing and work counters for the most recent [`Tape::backward`] call.
/// Cheap to maintain (two clock reads and one counter per sweep) so they
/// are always on; observability layers read them after each backward pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackwardStats {
    /// Nodes whose gradients were actually propagated (nodes without a
    /// gradient or not requiring one are skipped and not counted).
    pub nodes_visited: u64,
    /// Wall-clock duration of the reverse sweep, in seconds.
    pub seconds: f64,
}

/// Reverse-mode autodiff tape.
pub struct Tape {
    nodes: Vec<Node>,
    frozen_at: Option<u32>,
    ws: Workspace,
    /// Recycled `Vec<Var>` backing stores for [`Op::AddN`]/[`Op::ConcatCols`].
    var_lists: Vec<Vec<Var>>,
    /// Execution backend for the hot-path kernels (serial by default).
    backend: Box<dyn TensorBackend>,
    /// Counters of the most recent backward sweep.
    last_backward: BackwardStats,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            frozen_at: None,
            ws: Workspace::new(),
            var_lists: Vec::new(),
            backend: make_backend(BackendKind::Serial),
            last_backward: BackwardStats::default(),
        }
    }

    /// Work counters of the most recent [`Tape::backward`] call.
    pub fn last_backward_stats(&self) -> BackwardStats {
        self.last_backward
    }

    /// Select the execution backend for the hot-path kernels. Backends are
    /// bit-identical to each other by contract (see [`crate::backend`]), so
    /// this changes wall-clock time, never results. Must be called before
    /// any node is pushed.
    ///
    /// # Panics
    /// Panics if the tape already holds nodes.
    pub fn set_backend(&mut self, kind: BackendKind) {
        assert!(self.nodes.is_empty(), "set_backend requires an empty tape");
        self.backend = make_backend(kind);
    }

    /// The kind of the active kernel backend.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Allocation counters of the internal buffer workspace. After the first
    /// epoch of a shape-stable training loop the miss counter stops moving —
    /// the property the hot-path tests and the benchmark probe assert.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        let id = u32::try_from(self.nodes.len()).expect("tape node count fits u32");
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(id)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.idx()].needs_grad
    }

    fn any_needs(&self, vars: &[Var]) -> bool {
        vars.iter().any(|&v| self.needs(v))
    }

    /// A workspace copy of a node's value.
    fn ws_copy(&mut self, v: Var) -> Tensor {
        self.ws.copy_of(&self.nodes[v.idx()].value)
    }

    /// A workspace tensor holding `f` applied elementwise to a node's value.
    fn ws_map(&mut self, v: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let (rows, cols) = self.nodes[v.idx()].value.shape();
        let mut out = self.ws.raw(rows, cols);
        for (o, &x) in out
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[v.idx()].value.as_slice())
        {
            *o = f(x);
        }
        out
    }

    /// A `1 × 1` workspace tensor holding `v`.
    fn ws_scalar(&mut self, v: f32) -> Tensor {
        let mut out = self.ws.raw(1, 1);
        out.as_mut_slice()[0] = v;
        out
    }

    /// A recycled `Vec<Var>` pre-filled with `src` (for [`Op::AddN`] and
    /// [`Op::ConcatCols`], whose var lists would otherwise allocate each
    /// epoch).
    fn take_var_list(&mut self, src: &[Var]) -> Vec<Var> {
        let mut list = self.var_lists.pop().unwrap_or_default();
        list.extend_from_slice(src);
        list
    }

    /// Register a trainable parameter. Must be called before [`Tape::freeze`].
    ///
    /// # Panics
    /// Panics if the tape is already frozen.
    pub fn param(&mut self, value: Tensor) -> Var {
        assert!(
            self.frozen_at.is_none(),
            "cannot add parameters to a frozen tape"
        );
        self.push(value, Op::Leaf, true)
    }

    /// Seal the parameter section; later [`Tape::reset`] calls truncate here.
    pub fn freeze(&mut self) {
        assert!(self.frozen_at.is_none(), "tape already frozen");
        self.frozen_at = Some(self.nodes.len() as u32);
    }

    /// Number of nodes in the persistent (pre-freeze) section. These survive
    /// [`Tape::reset`]; optimizers walk this range and skip entries without a
    /// gradient, so persistent constant inputs registered before freezing are
    /// harmless here.
    pub fn param_count(&self) -> usize {
        self.frozen_at
            .map(|b| b as usize)
            .unwrap_or(self.nodes.len())
    }

    /// Total number of f32 values across all trainable parameters
    /// (persistent constant inputs are excluded).
    pub fn total_param_elems(&self) -> usize {
        self.nodes[..self.param_count()]
            .iter()
            .filter(|n| n.needs_grad)
            .map(|n| n.value.len())
            .sum()
    }

    /// Drop all ephemeral nodes and clear parameter gradients. Ephemeral
    /// values, gradients and op var-lists are recycled into the workspace for
    /// the next epoch, which keeps as many buffers of each size as this
    /// cycle acquired and frees the rest.
    pub fn reset(&mut self) {
        let boundary = self.frozen_at.expect("reset requires a frozen tape") as usize;
        while self.nodes.len() > boundary {
            let node = self.nodes.pop().expect("length checked above");
            self.ws.release(node.value);
            if let Some(g) = node.grad {
                self.ws.release(g);
            }
            if let Op::AddN(mut list) | Op::ConcatCols(mut list) = node.op {
                list.clear();
                self.var_lists.push(list);
            }
        }
        for node in &mut self.nodes[..boundary] {
            if let Some(g) = node.grad.take() {
                self.ws.release(g);
            }
        }
        self.ws.end_cycle();
    }

    /// Add a constant (non-differentiable) input tensor. Registered before
    /// [`Tape::freeze`], the input is persistent: it survives [`Tape::reset`]
    /// and can be reused across epochs without cloning.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.idx()].value
    }

    /// Mutable value of a node (used by optimizers to update parameters).
    pub fn value_mut(&mut self, v: Var) -> &mut Tensor {
        &mut self.nodes[v.idx()].value
    }

    /// Whether a node is a trainable parameter (as opposed to a persistent
    /// constant input or an ephemeral forward node).
    pub fn is_trainable(&self, v: Var) -> bool {
        self.nodes[v.idx()].needs_grad
    }

    // ---- robustness / fault-tolerance primitives --------------------------

    /// Global L2 norm over every parameter gradient produced by the latest
    /// [`Tape::backward`]. Accumulates in `f64` so the squared sum does not
    /// overflow `f32`. Returns `0.0` when no parameter has a gradient; the
    /// result is non-finite if and only if some gradient element is.
    pub fn global_grad_norm(&self) -> f64 {
        let mut sq = 0.0f64;
        for node in &self.nodes[..self.param_count()] {
            if !node.needs_grad {
                continue;
            }
            if let Some(g) = &node.grad {
                for &x in g.as_slice() {
                    let x = f64::from(x);
                    sq += x * x;
                }
            }
        }
        sq.sqrt()
    }

    /// Multiply every parameter gradient by `factor` in place — the second
    /// half of global-norm clipping (`factor = max_norm / norm`).
    pub fn scale_param_grads(&mut self, factor: f32) {
        let boundary = self.param_count();
        for node in &mut self.nodes[..boundary] {
            if !node.needs_grad {
                continue;
            }
            if let Some(g) = &mut node.grad {
                for x in g.as_mut_slice() {
                    *x *= factor;
                }
            }
        }
    }

    /// `true` when every trainable parameter value is finite — the post-step
    /// divergence check.
    pub fn params_all_finite(&self) -> bool {
        self.nodes[..self.param_count()]
            .iter()
            .filter(|n| n.needs_grad)
            .all(|n| n.value.all_finite())
    }

    /// Copies of every trainable parameter value, in registration order —
    /// the payload of a training checkpoint.
    pub fn snapshot_param_values(&self) -> Vec<Tensor> {
        self.nodes[..self.param_count()]
            .iter()
            .filter(|n| n.needs_grad)
            .map(|n| n.value.clone())
            .collect()
    }

    /// Re-capture trainable parameter values into an existing snapshot
    /// without allocating (buffers are reused when shapes match). An empty
    /// `out` is filled as by [`Tape::snapshot_param_values`].
    pub fn snapshot_param_values_into(&self, out: &mut Vec<Tensor>) {
        if out.is_empty() {
            *out = self.snapshot_param_values();
            return;
        }
        let mut it = out.iter_mut();
        for node in self.nodes[..self.param_count()]
            .iter()
            .filter(|n| n.needs_grad)
        {
            let dst = it
                .next()
                .expect("invariant: snapshot length matches trainable parameter count");
            if dst.shape() == node.value.shape() {
                dst.as_mut_slice().copy_from_slice(node.value.as_slice());
            } else {
                *dst = node.value.clone();
            }
        }
        assert!(
            it.next().is_none(),
            "invariant: snapshot length matches trainable parameter count"
        );
    }

    /// Overwrite every trainable parameter with values from a snapshot taken
    /// by [`Tape::snapshot_param_values`] on an identically shaped tape.
    ///
    /// # Panics
    /// Panics when the snapshot's tensor count or shapes do not match.
    pub fn restore_param_values(&mut self, snapshot: &[Tensor]) {
        let boundary = self.frozen_at.map_or(self.nodes.len(), |b| b as usize);
        let mut it = snapshot.iter();
        for node in self.nodes[..boundary].iter_mut().filter(|n| n.needs_grad) {
            let src = it
                .next()
                .expect("invariant: snapshot length matches trainable parameter count");
            assert_eq!(
                src.shape(),
                node.value.shape(),
                "invariant: snapshot shapes match tape parameters"
            );
            node.value.as_mut_slice().copy_from_slice(src.as_slice());
        }
        assert!(
            it.next().is_none(),
            "invariant: snapshot length matches trainable parameter count"
        );
    }

    /// Gradient accumulated for a node by the latest [`Tape::backward`].
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.idx()].grad.as_ref()
    }

    /// Mutable gradient of a node, when the latest [`Tape::backward`]
    /// produced one (used by the fault-injection harness to corrupt a
    /// gradient in place).
    pub fn grad_mut(&mut self, v: Var) -> Option<&mut Tensor> {
        self.nodes[v.idx()].grad.as_mut()
    }

    /// Split borrow of a node's gradient (shared) and value (mutable), so an
    /// optimizer can apply an update in one pass without cloning the
    /// gradient.
    pub fn grad_and_value_mut(&mut self, v: Var) -> (Option<&Tensor>, &mut Tensor) {
        let node = &mut self.nodes[v.idx()];
        (node.grad.as_ref(), &mut node.value)
    }

    // ---- forward ops ------------------------------------------------------

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, _) = self.nodes[a.idx()].value.shape();
        let n = self.nodes[b.idx()].value.cols();
        let mut value = self.ws.raw(m, n);
        self.backend
            .matmul_into(self.value(a), self.value(b), &mut value);
        let ng = self.any_needs(&[a, b]);
        self.push(value, Op::MatMul(a, b), ng)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "add shape mismatch"
        );
        let mut value = self.ws_copy(a);
        value.add_assign(self.value(b));
        let ng = self.any_needs(&[a, b]);
        self.push(value, Op::Add(a, b), ng)
    }

    /// `a + bias` broadcasting the `1 × cols` bias row over `a`'s rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, cols), "bias must be 1 x cols");
        let mut value = self.ws_copy(a);
        let b = self.nodes[bias.idx()].value.as_slice();
        for r in 0..rows {
            for (o, &bv) in value.row_slice_mut(r).iter_mut().zip(b) {
                *o += bv;
            }
        }
        let ng = self.any_needs(&[a, bias]);
        self.push(value, Op::AddRowBroadcast(a, bias), ng)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "sub shape mismatch"
        );
        let mut value = self.ws_copy(a);
        value.add_scaled(self.value(b), -1.0);
        let ng = self.any_needs(&[a, b]);
        self.push(value, Op::Sub(a, b), ng)
    }

    /// Elementwise Hadamard product.
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "mul shape mismatch"
        );
        let mut value = self.ws_copy(a);
        for (x, &bv) in value
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[b.idx()].value.as_slice())
        {
            *x *= bv;
        }
        let ng = self.any_needs(&[a, b]);
        self.push(value, Op::MulElem(a, b), ng)
    }

    /// `k · a`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let value = self.ws_map(a, |v| v * k);
        let ng = self.needs(a);
        self.push(value, Op::Scale(a, k), ng)
    }

    /// Elementwise sum of identically shaped inputs.
    ///
    /// # Panics
    /// Panics on an empty input list or mismatched shapes.
    pub fn add_n(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "add_n requires at least one input");
        let mut value = self.ws_copy(vars[0]);
        for &v in &vars[1..] {
            value.add_assign(self.value(v));
        }
        let ng = self.any_needs(vars);
        let list = self.take_var_list(vars);
        self.push(value, Op::AddN(list), ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.ws_map(a, |v| v.max(0.0));
        let ng = self.needs(a);
        self.push(value, Op::Relu(a), ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.ws_map(a, f32::tanh);
        let ng = self.needs(a);
        self.push(value, Op::Tanh(a), ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.ws_map(a, |v| 1.0 / (1.0 + (-v).exp()));
        let ng = self.needs(a);
        self.push(value, Op::Sigmoid(a), ng)
    }

    /// Row gather: `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<u32>>) -> Var {
        let cols = self.nodes[a.idx()].value.cols();
        let mut value = self.ws.raw(idx.len(), cols);
        let src = &self.nodes[a.idx()].value;
        for (i, &j) in idx.iter().enumerate() {
            value
                .row_slice_mut(i)
                .copy_from_slice(src.row_slice(j as usize));
        }
        let ng = self.needs(a);
        self.push(value, Op::GatherRows(a, idx), ng)
    }

    /// Contiguous row slice `a[rows]`.
    pub fn slice_rows(&mut self, a: Var, rows: Range<usize>) -> Var {
        let (src_rows, cols) = self.nodes[a.idx()].value.shape();
        assert!(
            rows.start <= rows.end && rows.end <= src_rows,
            "row slice out of bounds"
        );
        let mut value = self.ws.raw(rows.len(), cols);
        value.as_mut_slice().copy_from_slice(
            &self.nodes[a.idx()].value.as_slice()[rows.start * cols..rows.end * cols],
        );
        let ng = self.needs(a);
        self.push(value, Op::SliceRows(a, rows.start), ng)
    }

    /// Neighborhood mean: `out[i] = mean_{j ∈ adj(i)} a[j]`, zero when
    /// `adj(i)` is empty.
    pub fn scatter_mean(&mut self, a: Var, adj: Arc<Adjacency>) -> Var {
        let rows = 0..adj.n_rows();
        self.scatter_mean_rows(a, adj, rows)
    }

    /// [`Tape::scatter_mean`] of the adjacency rows `rows` only:
    /// `out[i - rows.start] = mean_{j ∈ adj(i)} a[j]` for `i ∈ rows`, with
    /// the neighbors `j` anywhere in `a`.
    pub fn scatter_mean_rows(&mut self, a: Var, adj: Arc<Adjacency>, rows: Range<usize>) -> Var {
        let src = self.value(a);
        assert!(
            rows.start <= rows.end && rows.end <= adj.n_rows(),
            "row range beyond the adjacency"
        );
        assert!(
            adj.max_target_bound() <= src.rows(),
            "adjacency references row beyond input ({} > {})",
            adj.max_target_bound(),
            src.rows()
        );
        let cols = src.cols();
        let first = rows.start;
        let mut value = self.ws.raw(rows.len(), cols);
        self.backend
            .scatter_mean_rows_into(&self.nodes[a.idx()].value, &adj, rows, &mut value);
        let ng = self.needs(a);
        self.push(value, Op::ScatterMean(a, adj, first), ng)
    }

    /// Weighted neighborhood sum: `out[i] = Σ w[e] · a[j]` over the
    /// adjacency's edges `(i, j)`, with `weights` aligned to the CSR target
    /// array (one weight per stored edge). The weights are constants (no
    /// gradient), which is exactly what GCN's fixed symmetric normalization
    /// needs.
    ///
    /// # Panics
    /// Panics when `weights.len() != adj.n_edges()`.
    pub fn scatter_weighted(&mut self, a: Var, adj: Arc<Adjacency>, weights: Arc<Vec<f32>>) -> Var {
        let rows = 0..adj.n_rows();
        self.scatter_weighted_rows(a, adj, weights, rows)
    }

    /// [`Tape::scatter_weighted`] of the adjacency rows `rows` only:
    /// `out[i - rows.start] = Σ w[e] · a[j]` over the edges `(i, j)` of
    /// `i ∈ rows`, with the neighbors `j` anywhere in `a`.
    ///
    /// # Panics
    /// Panics when `weights.len() != adj.n_edges()`.
    pub fn scatter_weighted_rows(
        &mut self,
        a: Var,
        adj: Arc<Adjacency>,
        weights: Arc<Vec<f32>>,
        rows: Range<usize>,
    ) -> Var {
        let src = self.value(a);
        assert_eq!(
            weights.len(),
            adj.n_edges(),
            "one weight per adjacency edge"
        );
        assert!(
            rows.start <= rows.end && rows.end <= adj.n_rows(),
            "row range beyond the adjacency"
        );
        assert!(
            adj.max_target_bound() <= src.rows(),
            "adjacency references row beyond input"
        );
        let cols = src.cols();
        let first = rows.start;
        let mut value = self.ws.raw(rows.len(), cols);
        scatter_weighted_rows_into(&self.nodes[a.idx()].value, &adj, &weights, rows, &mut value);
        let ng = self.needs(a);
        self.push(value, Op::ScatterWeighted(a, adj, weights, first), ng)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols requires at least one input");
        let rows = self.value(vars[0]).rows();
        let total_cols: usize = vars.iter().map(|&v| self.value(v).cols()).sum();
        let mut value = self.ws.raw(rows, total_cols);
        let mut offset = 0;
        for &v in vars {
            let t = &self.nodes[v.idx()].value;
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            let c = t.cols();
            for r in 0..rows {
                value.row_slice_mut(r)[offset..offset + c].copy_from_slice(t.row_slice(r));
            }
            offset += c;
        }
        let ng = self.any_needs(vars);
        let list = self.take_var_list(vars);
        self.push(value, Op::ConcatCols(list), ng)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, src_cols) = self.nodes[a.idx()].value.shape();
        assert!(start <= end && end <= src_cols, "slice out of bounds");
        let mut value = self.ws.raw(rows, end - start);
        let src = &self.nodes[a.idx()].value;
        for r in 0..rows {
            value
                .row_slice_mut(r)
                .copy_from_slice(&src.row_slice(r)[start..end]);
        }
        let ng = self.needs(a);
        self.push(value, Op::SliceCols(a, start, end), ng)
    }

    /// Shape reinterpretation preserving element order.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let value = self.ws_copy(a).into_reshaped(rows, cols);
        let ng = self.needs(a);
        self.push(value, Op::Reshape(a), ng)
    }

    /// Sum of all elements as a `1 × 1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let value = self.ws_scalar(s);
        let ng = self.needs(a);
        self.push(value, Op::SumAll(a), ng)
    }

    /// Mean of all elements as a `1 × 1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let m = t.sum() / t.len() as f32;
        let value = self.ws_scalar(m);
        let ng = self.needs(a);
        self.push(value, Op::MeanAll(a), ng)
    }

    /// Row-wise numerically stable softmax.
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let mut value = self.ws_copy(a);
        softmax_rows_in_place(&mut value);
        let ng = self.needs(a);
        self.push(value, Op::RowSoftmax(a), ng)
    }

    /// Batched attention read-out: with `v` of shape `(N·C) × D` and `alpha`
    /// of shape `N × C`, produces `out` of shape `N × D` with
    /// `out[n] = Σ_c alpha[n, c] · v[n·C + c, :]`.
    pub fn block_weighted_sum(&mut self, v: Var, alpha: Var) -> Var {
        let (n, c) = self.value(alpha).shape();
        let (vc_rows, d) = self.value(v).shape();
        assert_eq!(vc_rows, n * c, "v rows must equal alpha rows x cols");
        let mut value = self.ws.raw(n, d);
        block_weighted_sum_into(
            &self.nodes[v.idx()].value,
            &self.nodes[alpha.idx()].value,
            &mut value,
        );
        let ng = self.any_needs(&[v, alpha]);
        self.push(value, Op::BlockWeightedSum { v, alpha }, ng)
    }

    /// Mean softmax cross-entropy of `logits` (`N × K`) against class
    /// indices `targets` (`len N`, each `< K`). The forward pass streams
    /// per-row max/sum-exp and never materializes the probability matrix;
    /// the target probability is clamped to `CE_P_MIN` (with the backward
    /// pass zeroing the gradient of rows the clamp flattens — see
    /// [`crate::backend`]).
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: Arc<Vec<u32>>) -> Var {
        let lt = &self.nodes[logits.idx()].value;
        assert_eq!(lt.rows(), targets.len(), "one target per logits row");
        let loss = self.backend.softmax_ce_loss(lt, &targets);
        let value = self.ws_scalar((loss / targets.len() as f64) as f32);
        let ng = self.needs(logits);
        self.push(value, Op::SoftmaxCrossEntropy { logits, targets }, ng)
    }

    /// Mean focal loss `-(1 - p_t)^γ log p_t` against class indices, with
    /// `p_t` clamped to the same range the backward pass uses.
    pub fn focal_loss(&mut self, logits: Var, targets: Arc<Vec<u32>>, gamma: f32) -> Var {
        let lt = &self.nodes[logits.idx()].value;
        assert_eq!(lt.rows(), targets.len(), "one target per logits row");
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let p =
                streamed_softmax_prob(lt.row_slice(i), t as usize).clamp(FOCAL_P_MIN, FOCAL_P_MAX);
            loss -= f64::from((1.0 - p).powf(gamma) * p.ln());
        }
        let value = self.ws_scalar((loss / targets.len() as f64) as f32);
        let ng = self.needs(logits);
        self.push(
            value,
            Op::FocalLoss {
                logits,
                targets,
                gamma,
            },
            ng,
        )
    }

    /// Mean squared error of an `N × 1` prediction column against targets.
    pub fn mse_loss(&mut self, pred: Var, targets: Arc<Vec<f32>>) -> Var {
        let pt = self.value(pred);
        assert_eq!(pt.shape(), (targets.len(), 1), "pred must be N x 1");
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let d = f64::from(pt.get(i, 0) - t);
            loss += d * d;
        }
        let value = self.ws_scalar((loss / targets.len().max(1) as f64) as f32);
        let ng = self.needs(pred);
        self.push(value, Op::MseLoss { pred, targets }, ng)
    }

    // ---- backward ---------------------------------------------------------

    fn accumulate(&mut self, v: Var, delta: Tensor) {
        if !self.needs(v) {
            self.ws.release(delta);
            return;
        }
        let node = &mut self.nodes[v.idx()];
        match &mut node.grad {
            Some(g) => {
                g.add_assign(&delta);
                self.ws.release(delta);
            }
            None => node.grad = Some(delta),
        }
    }

    /// Run reverse-mode differentiation from the scalar node `loss`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        let started = std::time::Instant::now();
        let mut visited = 0u64;
        let seed = self.ws_scalar(1.0);
        if let Some(old) = self.nodes[loss.idx()].grad.replace(seed) {
            self.ws.release(old);
        }
        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].needs_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            visited += 1;
            // Detach the gradient and op so the backward arm can borrow the
            // rest of the tape freely without cloning either; both are
            // restored below so `Tape::grad` keeps working after backward.
            let grad = self.nodes[i].grad.take().expect("presence checked above");
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.backprop_one(Var(i as u32), &grad, &op);
            self.nodes[i].grad = Some(grad);
            self.nodes[i].op = op;
        }
        self.last_backward = BackwardStats {
            nodes_visited: visited,
            seconds: started.elapsed().as_secs_f64(),
        };
    }

    fn backprop_one(&mut self, out: Var, grad: &Tensor, op: &Op) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.needs(*a) {
                    let mut da = self.ws.raw(grad.rows(), self.nodes[b.idx()].value.rows());
                    self.backend
                        .matmul_nt_into(grad, &self.nodes[b.idx()].value, &mut da);
                    self.accumulate(*a, da);
                }
                if self.needs(*b) {
                    let mut db = self.ws.raw(self.nodes[a.idx()].value.cols(), grad.cols());
                    self.backend
                        .matmul_tn_into(&self.nodes[a.idx()].value, grad, &mut db);
                    self.accumulate(*b, db);
                }
            }
            Op::Add(a, b) => {
                if self.needs(*a) {
                    let da = self.ws.copy_of(grad);
                    self.accumulate(*a, da);
                }
                if self.needs(*b) {
                    let db = self.ws.copy_of(grad);
                    self.accumulate(*b, db);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.needs(*a) {
                    let da = self.ws.copy_of(grad);
                    self.accumulate(*a, da);
                }
                if self.needs(*bias) {
                    let cols = grad.cols();
                    let mut db = self.ws.zeroed(1, cols);
                    for r in 0..grad.rows() {
                        for (o, &g) in db.as_mut_slice().iter_mut().zip(grad.row_slice(r)) {
                            *o += g;
                        }
                    }
                    self.accumulate(*bias, db);
                }
            }
            Op::Sub(a, b) => {
                if self.needs(*a) {
                    let da = self.ws.copy_of(grad);
                    self.accumulate(*a, da);
                }
                if self.needs(*b) {
                    let mut db = self.ws.copy_of(grad);
                    for g in db.as_mut_slice() {
                        *g = -*g;
                    }
                    self.accumulate(*b, db);
                }
            }
            Op::MulElem(a, b) => {
                if self.needs(*a) {
                    let mut da = self.ws.copy_of(grad);
                    for (g, &bv) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[b.idx()].value.as_slice())
                    {
                        *g *= bv;
                    }
                    self.accumulate(*a, da);
                }
                if self.needs(*b) {
                    let mut db = self.ws.copy_of(grad);
                    for (g, &av) in db
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.idx()].value.as_slice())
                    {
                        *g *= av;
                    }
                    self.accumulate(*b, db);
                }
            }
            Op::Scale(a, k) => {
                if self.needs(*a) {
                    let k = *k;
                    let mut da = self.ws.copy_of(grad);
                    for g in da.as_mut_slice() {
                        *g *= k;
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::AddN(vars) => {
                for &v in vars {
                    if self.needs(v) {
                        let dv = self.ws.copy_of(grad);
                        self.accumulate(v, dv);
                    }
                }
            }
            Op::Relu(a) => {
                if self.needs(*a) {
                    let mut da = self.ws.copy_of(grad);
                    for (g, &o) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[out.idx()].value.as_slice())
                    {
                        *g *= if o > 0.0 { 1.0 } else { 0.0 };
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::Tanh(a) => {
                if self.needs(*a) {
                    let mut da = self.ws.copy_of(grad);
                    for (g, &o) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[out.idx()].value.as_slice())
                    {
                        *g *= 1.0 - o * o;
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::Sigmoid(a) => {
                if self.needs(*a) {
                    let mut da = self.ws.copy_of(grad);
                    for (g, &o) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[out.idx()].value.as_slice())
                    {
                        *g *= o * (1.0 - o);
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::GatherRows(a, idx) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.zeroed(rows, cols);
                    for (i, &j) in idx.iter().enumerate() {
                        let dst = da.row_slice_mut(j as usize);
                        for (o, &g) in dst.iter_mut().zip(grad.row_slice(i)) {
                            *o += g;
                        }
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::SliceRows(a, first) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.zeroed(rows, cols);
                    da.as_mut_slice()[first * cols..first * cols + grad.len()]
                        .copy_from_slice(grad.as_slice());
                    self.accumulate(*a, da);
                }
            }
            Op::ScatterMean(a, adj, first) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.zeroed(rows, cols);
                    for r in 0..grad.rows() {
                        let neigh = adj.neighbors(first + r);
                        if neigh.is_empty() {
                            continue;
                        }
                        let inv = 1.0 / neigh.len() as f32;
                        for &j in neigh {
                            let dst = da.row_slice_mut(j as usize);
                            for (o, &g) in dst.iter_mut().zip(grad.row_slice(r)) {
                                *o += g * inv;
                            }
                        }
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::ScatterWeighted(a, adj, weights, first) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.zeroed(rows, cols);
                    let mut e = adj.first_edge(*first);
                    for r in 0..grad.rows() {
                        for &j in adj.neighbors(first + r) {
                            let w = weights[e];
                            e += 1;
                            let dst = da.row_slice_mut(j as usize);
                            for (o, &g) in dst.iter_mut().zip(grad.row_slice(r)) {
                                *o += w * g;
                            }
                        }
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::ConcatCols(vars) => {
                let mut offset = 0;
                for &v in vars {
                    let c = self.nodes[v.idx()].value.cols();
                    if self.needs(v) {
                        let rows = grad.rows();
                        let mut dv = self.ws.raw(rows, c);
                        for r in 0..rows {
                            dv.row_slice_mut(r)
                                .copy_from_slice(&grad.row_slice(r)[offset..offset + c]);
                        }
                        self.accumulate(v, dv);
                    }
                    offset += c;
                }
            }
            Op::SliceCols(a, start, _end) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.zeroed(rows, cols);
                    for r in 0..rows {
                        let g = grad.row_slice(r);
                        da.row_slice_mut(r)[*start..*start + g.len()].copy_from_slice(g);
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::Reshape(a) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let da = self.ws.copy_of(grad).into_reshaped(rows, cols);
                    self.accumulate(*a, da);
                }
            }
            Op::SumAll(a) => {
                if self.needs(*a) {
                    let g = grad.item();
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let mut da = self.ws.raw(rows, cols);
                    da.as_mut_slice().fill(g);
                    self.accumulate(*a, da);
                }
            }
            Op::MeanAll(a) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[a.idx()].value.shape();
                    let g = grad.item() / (rows * cols) as f32;
                    let mut da = self.ws.raw(rows, cols);
                    da.as_mut_slice().fill(g);
                    self.accumulate(*a, da);
                }
            }
            Op::RowSoftmax(a) => {
                if self.needs(*a) {
                    let (rows, cols) = self.nodes[out.idx()].value.shape();
                    let mut da = self.ws.raw(rows, cols);
                    let outv = &self.nodes[out.idx()].value;
                    for r in 0..rows {
                        let s = outv.row_slice(r);
                        let g = grad.row_slice(r);
                        let dot: f32 = s.iter().zip(g).map(|(&si, &gi)| si * gi).sum();
                        for ((o, &si), &gi) in da.row_slice_mut(r).iter_mut().zip(s).zip(g) {
                            *o = si * (gi - dot);
                        }
                    }
                    self.accumulate(*a, da);
                }
            }
            Op::BlockWeightedSum { v, alpha } => {
                let (n, c) = self.nodes[alpha.idx()].value.shape();
                let d = self.nodes[v.idx()].value.cols();
                if self.needs(*v) {
                    // Every row n·C + c is written by exactly one (n, c)
                    // pair, so the buffer is fully overwritten — and the
                    // weight is applied unconditionally (no zero-skip).
                    let mut dv = self.ws.raw(n * c, d);
                    let at = &self.nodes[alpha.idx()].value;
                    for ni in 0..n {
                        let g = grad.row_slice(ni);
                        for ci in 0..c {
                            let w = at.get(ni, ci);
                            for (o, &gi) in dv.row_slice_mut(ni * c + ci).iter_mut().zip(g) {
                                *o = w * gi;
                            }
                        }
                    }
                    self.accumulate(*v, dv);
                }
                if self.needs(*alpha) {
                    let mut dalpha = self.ws.raw(n, c);
                    let vt = &self.nodes[v.idx()].value;
                    for ni in 0..n {
                        let g = grad.row_slice(ni);
                        for ci in 0..c {
                            let dot: f32 = vt
                                .row_slice(ni * c + ci)
                                .iter()
                                .zip(g)
                                .map(|(&x, &gi)| x * gi)
                                .sum();
                            dalpha.set(ni, ci, dot);
                        }
                    }
                    self.accumulate(*alpha, dalpha);
                }
            }
            Op::SoftmaxCrossEntropy { logits, targets } => {
                if self.needs(*logits) {
                    let mut dl = self.ws_copy(*logits);
                    let n = targets.len() as f32;
                    let scale = grad.item() / n;
                    // The backend applies the softmax and the `p - δ` rule
                    // row by row, zeroing rows whose target probability the
                    // forward pass clamped (where the loss is flat).
                    self.backend.softmax_ce_backward(&mut dl, targets, scale);
                    self.accumulate(*logits, dl);
                }
            }
            Op::FocalLoss {
                logits,
                targets,
                gamma,
            } => {
                if self.needs(*logits) {
                    let mut dl = self.ws_copy(*logits);
                    softmax_rows_in_place(&mut dl);
                    let n = targets.len() as f32;
                    let scale = grad.item() / n;
                    let gamma = *gamma;
                    for (i, &t) in targets.iter().enumerate() {
                        let t = t as usize;
                        let row = dl.row_slice_mut(i);
                        let pt = row[t].clamp(FOCAL_P_MIN, FOCAL_P_MAX);
                        // dL/dp_t for L = -(1-p)^g ln p
                        let dl_dpt = gamma * (1.0 - pt).powf(gamma - 1.0) * pt.ln()
                            - (1.0 - pt).powf(gamma) / pt;
                        for (k, o) in row.iter_mut().enumerate() {
                            let pk = *o;
                            let dpt_dzk = if k == t { pt * (1.0 - pt) } else { -pt * pk };
                            *o = scale * dl_dpt * dpt_dzk;
                        }
                    }
                    self.accumulate(*logits, dl);
                }
            }
            Op::MseLoss { pred, targets } => {
                if self.needs(*pred) {
                    let n = targets.len().max(1) as f32;
                    let scale = 2.0 * grad.item() / n;
                    let mut dp = self.ws.raw(targets.len(), 1);
                    let pt = &self.nodes[pred.idx()].value;
                    for (i, &t) in targets.iter().enumerate() {
                        dp.set(i, 0, scale * (pt.get(i, 0) - t));
                    }
                    self.accumulate(*pred, dp);
                }
            }
        }
    }
}

/// Numerically stable row-wise softmax, in place.
pub fn softmax_rows_in_place(t: &mut Tensor) {
    for r in 0..t.rows() {
        softmax_row_in_place(t.row_slice_mut(r));
    }
}

/// Numerically stable row-wise softmax of a tensor.
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// Neighborhood mean into a preallocated output: `out[i] = mean of a[j] over
/// j ∈ adj(i)`, a zero row when `adj(i)` is empty. Every element of `out` is
/// overwritten; `out` must be `adj.n_rows() × a.cols()`.
pub fn scatter_mean_into(a: &Tensor, adj: &Adjacency, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), (adj.n_rows(), a.cols()));
    scatter_mean_rows(a, adj, 0, adj.n_rows(), out.as_mut_slice());
}

/// Weighted neighborhood sum into a preallocated output: `out[i] = Σ w[e] ·
/// a[j]` over the adjacency's edges `(i, j)` with one weight per CSR entry.
/// Weights are applied unconditionally — a zero weight multiplies rather
/// than skips, so a NaN in a zero-weighted source row propagates instead of
/// being silently masked. Every element of `out` is overwritten.
pub fn scatter_weighted_into(a: &Tensor, adj: &Adjacency, weights: &[f32], out: &mut Tensor) {
    scatter_weighted_rows_into(a, adj, weights, 0..adj.n_rows(), out);
}

/// [`scatter_weighted_into`] of the adjacency rows `rows`: `out` is
/// `rows.len() × a.cols()` and row `i - rows.start` receives output row
/// `i`.
fn scatter_weighted_rows_into(
    a: &Tensor,
    adj: &Adjacency,
    weights: &[f32],
    rows: Range<usize>,
    out: &mut Tensor,
) {
    debug_assert_eq!(
        weights.len(),
        adj.n_edges(),
        "one weight per adjacency edge"
    );
    debug_assert_eq!(out.shape(), (rows.len(), a.cols()));
    let mut e = adj.first_edge(rows.start);
    for (r, i) in rows.enumerate() {
        let out_row = out.row_slice_mut(r);
        out_row.fill(0.0);
        for &j in adj.neighbors(i) {
            let w = weights[e];
            e += 1;
            for (o, &v) in out_row.iter_mut().zip(a.row_slice(j as usize)) {
                *o += w * v;
            }
        }
    }
}

/// Batched attention read-out into a preallocated output: with `v` of shape
/// `(N·C) × D` and `alpha` of shape `N × C`, writes `out[n] = Σ_c alpha[n, c]
/// · v[n·C + c, :]`. Like [`scatter_weighted_into`], zero attention weights
/// multiply rather than skip, so NaN payloads under a zero weight surface.
/// Every element of `out` is overwritten; `out` must be `N × D`.
pub fn block_weighted_sum_into(v: &Tensor, alpha: &Tensor, out: &mut Tensor) {
    let (n, c) = alpha.shape();
    debug_assert_eq!(v.rows(), n * c, "v rows must equal alpha rows x cols");
    debug_assert_eq!(out.shape(), (n, v.cols()));
    for ni in 0..n {
        let out_row = out.row_slice_mut(ni);
        out_row.fill(0.0);
        for ci in 0..c {
            let w = alpha.get(ni, ci);
            for (o, &x) in out_row.iter_mut().zip(v.row_slice(ni * c + ci)) {
                *o += w * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_idx(v: Vec<u32>) -> Arc<Vec<u32>> {
        Arc::new(v)
    }

    #[test]
    fn matmul_backward_matches_hand_derivation() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.param(Tensor::from_vec(2, 1, vec![5.0, 6.0]));
        tape.freeze();
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss);
        // d(sum(A·b))/dA = 1 · bᵀ per row; /db = colsum over A rows.
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[5.0, 6.0, 5.0, 6.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn global_grad_norm_matches_hand_computation() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.param(Tensor::scalar(3.0));
        tape.freeze();
        assert_eq!(tape.global_grad_norm(), 0.0, "no grads before backward");
        let s = tape.sum_all(a);
        let p = tape.mul_elem(b, b);
        let ps = tape.sum_all(p);
        let loss = tape.add(s, ps);
        tape.backward(loss);
        // d/da = [1, 1], d/db = 2·3 = 6 → norm = sqrt(1 + 1 + 36)
        let expect = 38.0f64.sqrt();
        assert!((tape.global_grad_norm() - expect).abs() < 1e-9);
    }

    #[test]
    fn scale_param_grads_rescales_every_gradient() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(1, 2, vec![4.0, 5.0]));
        tape.freeze();
        let loss = tape.sum_all(a);
        tape.backward(loss);
        tape.scale_param_grads(0.5);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[0.5, 0.5]);
        assert!((tape.global_grad_norm() - 0.5f64.hypot(0.5)).abs() < 1e-9);
    }

    #[test]
    fn params_all_finite_detects_a_poisoned_parameter() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        tape.freeze();
        assert!(tape.params_all_finite());
        tape.value_mut(a).as_mut_slice()[1] = f32::NAN;
        assert!(!tape.params_all_finite());
    }

    #[test]
    fn param_snapshot_roundtrip_is_bit_exact() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(1, 2, vec![0.1, 0.2]));
        let _x = tape.input(Tensor::from_vec(1, 3, vec![9.0, 9.0, 9.0]));
        let b = tape.param(Tensor::scalar(0.3));
        tape.freeze();
        let snap = tape.snapshot_param_values();
        assert_eq!(snap.len(), 2, "inputs are excluded from snapshots");
        tape.value_mut(a).as_mut_slice()[0] = 77.0;
        tape.value_mut(b).as_mut_slice()[0] = 88.0;
        tape.restore_param_values(&snap);
        assert_eq!(tape.value(a).as_slice(), &[0.1, 0.2]);
        assert_eq!(tape.value(b).item(), 0.3);
        // re-capture into the same buffers without reallocating
        let mut again = snap;
        tape.value_mut(a).as_mut_slice()[0] = -1.5;
        tape.snapshot_param_values_into(&mut again);
        assert_eq!(again[0].as_slice(), &[-1.5, 0.2]);
    }

    #[test]
    fn is_trainable_distinguishes_params_from_inputs() {
        let mut tape = Tape::new();
        let p = tape.param(Tensor::scalar(1.0));
        let x = tape.input(Tensor::scalar(2.0));
        tape.freeze();
        assert!(tape.is_trainable(p));
        assert!(!tape.is_trainable(x));
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        tape.freeze();
        let r = tape.relu(a);
        let loss = tape.sum_all(r);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn gather_rows_scatters_gradient_back() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        tape.freeze();
        let g = tape.gather_rows(a, arc_idx(vec![2, 0, 2]));
        let loss = tape.sum_all(g);
        tape.backward(loss);
        assert_eq!(
            tape.grad(a).unwrap().as_slice(),
            &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    fn scatter_mean_forward_and_backward() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(3, 1, vec![3.0, 6.0, 9.0]));
        tape.freeze();
        let adj = Arc::new(Adjacency::from_lists(&[vec![1, 2], vec![], vec![0]]));
        let m = tape.scatter_mean(a, adj);
        assert_eq!(tape.value(m).as_slice(), &[7.5, 0.0, 3.0]);
        let loss = tape.sum_all(m);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[1.0, 0.5, 0.5]);
    }

    #[test]
    fn scatter_weighted_forward_and_backward() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(3, 1, vec![2.0, 4.0, 8.0]));
        tape.freeze();
        let adj = Arc::new(Adjacency::from_lists(&[vec![1, 2], vec![], vec![0]]));
        let w = Arc::new(vec![0.5, 0.25, 2.0]);
        let out = tape.scatter_weighted(a, adj, w);
        // out[0] = 0.5*4 + 0.25*8 = 4; out[1] = 0; out[2] = 2*2 = 4
        assert_eq!(tape.value(out).as_slice(), &[4.0, 0.0, 4.0]);
        let loss = tape.sum_all(out);
        tape.backward(loss);
        // d a[0] = 2 (via out[2]); d a[1] = 0.5; d a[2] = 0.25
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[2.0, 0.5, 0.25]);
    }

    #[test]
    fn scatter_weighted_with_unit_weights_matches_sum() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let adj = Arc::new(Adjacency::from_lists(&[vec![0, 1]]));
        let out = tape.scatter_weighted(a, adj, Arc::new(vec![1.0, 1.0]));
        assert_eq!(tape.value(out).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_cross_entropy_matches_manual_value() {
        let mut tape = Tape::new();
        let logits = tape.param(Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        tape.freeze();
        let loss = tape.softmax_cross_entropy(logits, arc_idx(vec![1]));
        assert!((tape.value(loss).item() - 0.5f32.ln().abs()).abs() < 1e-6);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        assert!((g.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((g.get(0, 1) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn focal_loss_reduces_to_ce_at_gamma_zero() {
        let make = |gamma: Option<f32>| {
            let mut tape = Tape::new();
            let logits = tape.param(Tensor::from_vec(2, 3, vec![0.3, -0.1, 0.7, 1.0, 0.0, -1.0]));
            tape.freeze();
            let t = arc_idx(vec![2, 0]);
            let loss = match gamma {
                Some(g) => tape.focal_loss(logits, t, g),
                None => tape.softmax_cross_entropy(logits, t),
            };
            tape.backward(loss);
            (tape.value(loss).item(), tape.grad(logits).unwrap().clone())
        };
        let (l_focal, g_focal) = make(Some(0.0));
        let (l_ce, g_ce) = make(None);
        assert!((l_focal - l_ce).abs() < 1e-5);
        for (a, b) in g_focal.as_slice().iter().zip(g_ce.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn focal_loss_is_positive_at_saturated_logits() {
        // A perfectly confident, correct prediction: p_t rounds to 1.0 in
        // f32. Without the shared upper clamp the forward loss would be
        // exactly 0 while the backward pass (which clamps) reports a
        // non-zero gradient; with one clamp in both places the loss is the
        // tiny positive value the gradient integrates to.
        let mut tape = Tape::new();
        let logits = tape.param(Tensor::from_vec(1, 2, vec![20.0, -20.0]));
        tape.freeze();
        let loss = tape.focal_loss(logits, arc_idx(vec![0]), 2.0);
        let l = tape.value(loss).item();
        let p = FOCAL_P_MAX;
        let expected = -(1.0 - p).powi(2) * p.ln();
        assert!(l > 0.0, "saturated focal loss must stay positive, got {l}");
        assert!(
            (l - expected).abs() <= expected * 1e-3,
            "got {l}, expected {expected}"
        );
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        assert!(g.all_finite(), "saturated focal gradient must be finite");
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let mut tape = Tape::new();
        let pred = tape.param(Tensor::from_vec(2, 1, vec![1.0, 3.0]));
        tape.freeze();
        let loss = tape.mse_loss(pred, Arc::new(vec![0.0, 1.0]));
        assert!((tape.value(loss).item() - 2.5).abs() < 1e-6);
        tape.backward(loss);
        assert_eq!(tape.grad(pred).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn block_weighted_sum_selects_blocks() {
        let mut tape = Tape::new();
        // 2 samples, 2 columns, dim 2
        let v = tape.param(Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 2., 2., 3., 3.]));
        let alpha = tape.param(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.5, 0.5]));
        tape.freeze();
        let out = tape.block_weighted_sum(v, alpha);
        assert_eq!(tape.value(out).as_slice(), &[1.0, 0.0, 2.5, 2.5]);
        let loss = tape.sum_all(out);
        tape.backward(loss);
        assert_eq!(tape.grad(alpha).unwrap().as_slice(), &[1.0, 1.0, 4.0, 6.0]);
        assert_eq!(
            tape.grad(v).unwrap().as_slice(),
            &[1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5]
        );
    }

    /// One forward/backward cycle over `rows` input rows, then a reset.
    fn request_cycle(tape: &mut Tape, w: Var, rows: usize) {
        let x = tape.input(Tensor::full(rows, 3, 0.5));
        let h = tape.matmul(x, w);
        let r = tape.relu(h);
        let loss = tape.sum_all(r);
        tape.backward(loss);
        tape.reset();
    }

    #[test]
    fn workspace_retention_follows_the_last_reset_cycle() {
        // A served model sees a new request shape per cycle: the parked
        // buffers must track the last cycle's working set instead of
        // accumulating every shape ever seen.
        let weights = || Tensor::from_vec(3, 2, vec![0.5, -0.25, 0.125, 1.0, -0.75, 0.375]);
        let shapes = [8usize, 72, 13, 40, 8, 55, 21];
        // What one cycle of each shape parks on a fresh tape: exactly the
        // buffers that cycle acquired.
        let working_set = |rows: usize| {
            let mut tape = Tape::new();
            let w = tape.param(weights());
            tape.freeze();
            request_cycle(&mut tape, w, rows);
            tape.workspace_stats().resident_elems
        };
        let mut tape = Tape::new();
        let w = tape.param(weights());
        tape.freeze();
        for rows in shapes {
            request_cycle(&mut tape, w, rows);
            let resident = tape.workspace_stats().resident_elems;
            assert!(
                resident <= working_set(rows),
                "after a {rows}-row cycle {resident} elements stay parked, more than \
                 the {} the cycle acquired",
                working_set(rows)
            );
        }
        // A replayed shape still runs allocation-free.
        let misses = tape.workspace_stats().misses;
        request_cycle(&mut tape, w, 21);
        assert_eq!(tape.workspace_stats().misses, misses);
    }

    #[test]
    fn reset_truncates_to_parameters() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::scalar(2.0));
        tape.freeze();
        let b = tape.scale(a, 3.0);
        let loss = tape.sum_all(b);
        tape.backward(loss);
        assert!(tape.grad(a).is_some());
        tape.reset();
        assert!(tape.grad(a).is_none());
        assert_eq!(tape.param_count(), 1);
        // the tape is usable again after reset
        let c = tape.scale(a, 5.0);
        assert_eq!(tape.value(c).item(), 10.0);
    }

    #[test]
    fn row_softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = tape.row_softmax(a);
        for r in 0..2 {
            let sum: f32 = tape.value(s).row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_inputs_receive_no_gradient() {
        let mut tape = Tape::new();
        let p = tape.param(Tensor::scalar(1.0));
        tape.freeze();
        let c = tape.input(Tensor::scalar(4.0));
        let prod = tape.mul_elem(p, c);
        let loss = tape.sum_all(prod);
        tape.backward(loss);
        assert_eq!(tape.grad(p).unwrap().item(), 4.0);
        assert!(tape.grad(c).is_none());
    }

    /// One full train step over a small graph: identical epochs after the
    /// first must run entirely out of the workspace free lists.
    fn train_epoch(tape: &mut Tape, w: Var, x: Var) {
        let adj = Arc::new(Adjacency::from_lists(&[vec![1, 2], vec![0], vec![0, 1]]));
        let h = tape.matmul(x, w);
        let agg = tape.scatter_mean(h, adj);
        let act = tape.relu(agg);
        let cat = tape.concat_cols(&[h, act]);
        let merged = tape.add_n(&[cat, cat]);
        let loss = tape.mean_all(merged);
        tape.backward(loss);
        tape.reset();
    }

    #[test]
    fn workspace_misses_stop_growing_after_first_epoch() {
        let mut tape = Tape::new();
        let w = tape.param(Tensor::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        tape.freeze();
        train_epoch(&mut tape, w, x);
        let after_first = tape.workspace_stats().misses;
        assert!(after_first > 0, "first epoch must populate the free lists");
        for _ in 0..5 {
            train_epoch(&mut tape, w, x);
        }
        assert_eq!(
            tape.workspace_stats().misses,
            after_first,
            "later epochs must be allocation-free"
        );
    }

    #[test]
    fn workspace_misses_stop_growing_after_first_epoch_on_the_parallel_backend() {
        // The 0-allocs-after-epoch-1 invariant must survive the backend
        // swap: pool threads and reduction scratch are created once.
        let mut tape = Tape::new();
        tape.set_backend(BackendKind::Parallel { threads: 2 });
        let w = tape.param(Tensor::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        tape.freeze();
        train_epoch(&mut tape, w, x);
        let after_first = tape.workspace_stats().misses;
        for _ in 0..5 {
            train_epoch(&mut tape, w, x);
        }
        assert_eq!(
            tape.workspace_stats().misses,
            after_first,
            "later epochs must be allocation-free on the parallel backend"
        );
    }

    #[test]
    fn parallel_backend_matches_serial_bitwise_through_a_training_step() {
        // One full forward/backward over every dispatched kernel — matmul,
        // scatter_mean (with a degree-0 row), softmax-CE — must produce
        // bit-identical losses and gradients on every backend.
        let run = |kind: BackendKind| {
            let mut tape = Tape::new();
            tape.set_backend(kind);
            let w = tape.param(Tensor::from_vec(
                2,
                3,
                vec![0.5, -0.25, 0.125, 1.0, -0.75, 0.375],
            ));
            let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
            tape.freeze();
            let h = tape.matmul(x, w);
            let adj = Arc::new(Adjacency::from_lists(&[vec![1, 2], vec![], vec![0]]));
            let m = tape.scatter_mean(h, adj);
            let loss = tape.softmax_cross_entropy(m, Arc::new(vec![0u32, 1, 2]));
            tape.backward(loss);
            (tape.value(loss).item(), tape.grad(w).unwrap().clone())
        };
        let (serial_loss, serial_grad) = run(BackendKind::Serial);
        for threads in [1usize, 2, 8] {
            let (loss, grad) = run(BackendKind::Parallel { threads });
            assert_eq!(loss.to_bits(), serial_loss.to_bits(), "{threads} threads");
            assert_eq!(grad.shape(), serial_grad.shape());
            for (a, b) in grad.as_slice().iter().zip(serial_grad.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads: {a} vs {b}");
            }
        }
    }
}
