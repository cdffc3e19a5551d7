//! Pluggable execution backends for the training hot-path kernels.
//!
//! The [`TensorBackend`] trait abstracts the five kernels that dominate a
//! GRIMP training epoch — `matmul`, `matmul_tn`, `matmul_nt`, `scatter_mean`
//! and the fused softmax cross-entropy (forward and backward) — so the tape
//! can swap the blocked serial implementation ([`SerialBackend`]) for a
//! multi-threaded one ([`ParallelBackend`]) without touching any autodiff
//! logic.
//!
//! ## Determinism contract
//!
//! Both backends produce **bit-identical** results for every kernel, for any
//! thread count. This is what keeps checkpoint resume and
//! `TrainReport::from_events` replay exact under parallel execution:
//!
//! * `matmul` / `matmul_nt` / `scatter_mean` / CE-backward write disjoint
//!   output rows, and each output row is computed by a per-row routine whose
//!   arithmetic does not depend on which range the row belongs to. Any row
//!   partitioning therefore composes to exactly the serial result.
//! * `matmul_tn` reduces over the shared row dimension. The strip kernel
//!   ([`crate::tensor::gemm_tn_strip`]) keeps the outer k-loop intact and
//!   only restricts the inner sweep over output rows, so every output
//!   element sees the same k-ascending accumulation order as the serial
//!   kernel.
//! * The CE forward is a cross-row reduction, which *would* depend on the
//!   partitioning — so both backends reduce it over **fixed-size chunks**
//!   ([`CE_CHUNK`] rows) whose per-chunk `f64` partials are summed in chunk
//!   order. The chunk size is independent of the thread count, hence
//!   `Serial == Parallel(1) == Parallel(8)` bit-for-bit.
//!
//! ## Allocation contract
//!
//! The thread pool and its workers are created once per backend;
//! [`ParallelBackend`]'s only per-call scratch (the CE chunk-partial buffer)
//! grows once to the largest batch seen and is reused afterwards, preserving
//! the 0-allocations-after-epoch-1 hot-path invariant.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::adjacency::Adjacency;
use crate::tensor::{gemm_nt_rows, gemm_rows, gemm_tn_strip, Tensor};

/// Probability clamp applied to the target-class softmax probability by the
/// cross-entropy **forward and backward** passes. The forward guards
/// `ln(0)`; the backward must agree: where the forward loss is flattened by
/// the clamp (`p_t < CE_P_MIN`) the consistent gradient is zero, not the
/// `p_k - δ_tk` of the unclamped loss.
pub(crate) const CE_P_MIN: f32 = 1e-12;

/// Fixed row-chunk size of the cross-entropy forward reduction. Both
/// backends sum per-chunk `f64` partials in ascending chunk order, so the
/// loss is independent of the thread count (see the module docs).
pub(crate) const CE_CHUNK: usize = 64;

/// Which kernel backend a [`crate::Tape`] executes its hot-path ops on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Single-threaded blocked kernels (the default).
    #[default]
    Serial,
    /// Fixed-partition thread pool over the same kernels; bit-identical to
    /// [`BackendKind::Serial`] for any thread count.
    Parallel {
        /// Worker count including the calling thread; must be ≥ 1.
        threads: usize,
    },
}

impl BackendKind {
    /// Stable numeric code for trace provenance (0 serial, 1 parallel).
    pub fn code(self) -> u64 {
        match self {
            BackendKind::Serial => 0,
            BackendKind::Parallel { .. } => 1,
        }
    }

    /// Human-readable backend name.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::Parallel { .. } => "parallel",
        }
    }

    /// Thread count the kind runs with (1 for serial).
    pub fn threads(self) -> usize {
        match self {
            BackendKind::Serial => 1,
            BackendKind::Parallel { threads } => threads,
        }
    }
}

/// Execution backend for the training hot-path kernels. See the module docs
/// for the determinism and allocation contracts implementations must uphold.
pub trait TensorBackend {
    /// The kind this backend was built from.
    fn kind(&self) -> BackendKind;

    /// Threads participating in kernel execution (1 for serial).
    fn threads(&self) -> usize {
        self.kind().threads()
    }

    /// Human-readable backend name (used in trace provenance).
    fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// `out = a · b`, overwriting `out`.
    fn matmul_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor);

    /// `out = aᵀ · b`, overwriting `out`.
    fn matmul_tn_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor);

    /// `out = a · bᵀ`, overwriting `out`.
    fn matmul_nt_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor);

    /// Neighborhood mean of the adjacency rows `rows`: `out[i - rows.start]
    /// = mean of a[j] over j ∈ adj(i)`, a zero row when `adj(i)` is empty
    /// (degree-0 targets must not divide by zero). `out` is `rows.len() ×
    /// a.cols()`; every element is overwritten.
    fn scatter_mean_rows_into(
        &self,
        a: &Tensor,
        adj: &Adjacency,
        rows: Range<usize>,
        out: &mut Tensor,
    );

    /// [`TensorBackend::scatter_mean_rows_into`] over every adjacency row.
    fn scatter_mean_into(&self, a: &Tensor, adj: &Adjacency, out: &mut Tensor) {
        self.scatter_mean_rows_into(a, adj, 0..adj.n_rows(), out);
    }

    /// Total (unaveraged) cross-entropy loss `Σ_i -ln(max(p_ti, CE_P_MIN))`
    /// over the rows of `logits`, reduced in fixed [`CE_CHUNK`]-row chunks.
    fn softmax_ce_loss(&self, logits: &Tensor, targets: &[u32]) -> f64;

    /// Cross-entropy backward: `dl` holds a copy of the logits on entry and
    /// the scaled gradient on exit. Rows whose target probability fell
    /// below [`CE_P_MIN`] (where the forward loss is clamped flat) receive a
    /// zero gradient.
    fn softmax_ce_backward(&self, dl: &mut Tensor, targets: &[u32], scale: f32);

    /// Allocating convenience form of [`TensorBackend::matmul_into`].
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, &mut out);
        out
    }

    /// Allocating convenience form of [`TensorBackend::matmul_tn_into`].
    fn matmul_tn(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.cols(), b.cols());
        self.matmul_tn_into(a, b, &mut out);
        out
    }

    /// Allocating convenience form of [`TensorBackend::matmul_nt_into`].
    fn matmul_nt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.rows());
        self.matmul_nt_into(a, b, &mut out);
        out
    }

    /// Allocating convenience form of [`TensorBackend::scatter_mean_into`].
    fn scatter_mean(&self, a: &Tensor, adj: &Adjacency) -> Tensor {
        let mut out = Tensor::zeros(adj.n_rows(), a.cols());
        self.scatter_mean_into(a, adj, &mut out);
        out
    }
}

/// Build the backend a [`BackendKind`] describes.
pub fn make_backend(kind: BackendKind) -> Box<dyn TensorBackend> {
    match kind {
        BackendKind::Serial => Box::new(SerialBackend),
        BackendKind::Parallel { threads } => Box::new(ParallelBackend::new(threads)),
    }
}

// ---------------------------------------------------------------------------
// Shared per-row kernel routines
//
// Both backends execute these exact routines; the parallel backend merely
// distributes disjoint row / chunk ranges across threads. Keeping a single
// source of truth is what makes the bit-identity argument local.
// ---------------------------------------------------------------------------

/// Numerically stable softmax of one row, in place. Single source of truth
/// for the per-row arithmetic of [`crate::softmax_rows_in_place`].
pub(crate) fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Softmax probability of class `t` for one logits row, streaming the
/// max/sum-exp without materializing the probability vector. The summation
/// order matches [`softmax_row_in_place`] exactly, so the result is
/// bit-identical to reading the materialized probability.
pub(crate) fn streamed_softmax_prob(row: &[f32], t: usize) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &z in row {
        sum += (z - max).exp();
    }
    (row[t] - max).exp() * (1.0 / sum)
}

/// Rows `r0..r1` of the scatter-mean forward, written to `out` (which holds
/// exactly those rows). Degree-0 rows are zeroed, never divided by.
pub(crate) fn scatter_mean_rows(
    a: &Tensor,
    adj: &Adjacency,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    let cols = a.cols();
    debug_assert_eq!(out.len(), (r1 - r0) * cols);
    for i in r0..r1 {
        let out_row = &mut out[(i - r0) * cols..(i - r0 + 1) * cols];
        out_row.fill(0.0);
        let neigh = adj.neighbors(i);
        if neigh.is_empty() {
            continue;
        }
        let inv = 1.0 / neigh.len() as f32;
        for &j in neigh {
            for (o, &v) in out_row.iter_mut().zip(a.row_slice(j as usize)) {
                *o += v * inv;
            }
        }
    }
}

/// Unaveraged CE loss of rows `r0..r1`, accumulated left to right in `f64`.
fn ce_loss_rows(logits: &Tensor, targets: &[u32], r0: usize, r1: usize) -> f64 {
    let mut loss = 0.0f64;
    for (i, &t) in targets[r0..r1].iter().enumerate() {
        let p = streamed_softmax_prob(logits.row_slice(r0 + i), t as usize).max(CE_P_MIN);
        loss -= f64::from(p.ln());
    }
    loss
}

/// CE backward for rows `r0..r1`; `dl` holds exactly those rows of the
/// logits copy and receives the scaled gradient. Rows whose target
/// probability is clamped in the forward get a zero gradient (the loss is
/// flat there), which also keeps deep-underflow rows from emitting the
/// unclamped rule's `≈ -scale` spike against a constant forward value.
fn ce_backward_rows(
    dl: &mut [f32],
    cols: usize,
    targets: &[u32],
    r0: usize,
    r1: usize,
    scale: f32,
) {
    for i in r0..r1 {
        let row = &mut dl[(i - r0) * cols..(i - r0 + 1) * cols];
        softmax_row_in_place(row);
        let t = targets[i] as usize;
        if row[t] < CE_P_MIN {
            row.fill(0.0);
        } else {
            row[t] -= 1.0;
            for g in row.iter_mut() {
                *g *= scale;
            }
        }
    }
}

/// Number of [`CE_CHUNK`]-row chunks covering `rows`.
fn ce_chunks(rows: usize) -> usize {
    rows.div_ceil(CE_CHUNK)
}

/// Row range of CE chunk `c`.
fn ce_chunk_range(rows: usize, c: usize) -> (usize, usize) {
    (c * CE_CHUNK, ((c + 1) * CE_CHUNK).min(rows))
}

/// Rows `[r0, r1)` handled by partition `j` of `parts` over `rows` rows —
/// a pure function of its inputs, so a given (rows, parts) pair always
/// yields the same partitioning.
fn part_range(rows: usize, parts: usize, j: usize) -> (usize, usize) {
    let base = rows / parts;
    let rem = rows % parts;
    let r0 = j * base + j.min(rem);
    (r0, r0 + base + usize::from(j < rem))
}

// ---------------------------------------------------------------------------
// SerialBackend
// ---------------------------------------------------------------------------

/// The existing single-threaded blocked kernels behind the backend trait.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialBackend;

impl TensorBackend for SerialBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Serial
    }

    fn matmul_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        a.matmul_into(b, out);
    }

    fn matmul_tn_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        a.matmul_tn_into(b, out);
    }

    fn matmul_nt_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        a.matmul_nt_into(b, out);
    }

    fn scatter_mean_rows_into(
        &self,
        a: &Tensor,
        adj: &Adjacency,
        rows: Range<usize>,
        out: &mut Tensor,
    ) {
        debug_assert_eq!(out.shape(), (rows.len(), a.cols()));
        scatter_mean_rows(a, adj, rows.start, rows.end, out.as_mut_slice());
    }

    fn softmax_ce_loss(&self, logits: &Tensor, targets: &[u32]) -> f64 {
        let rows = targets.len();
        let mut total = 0.0f64;
        for c in 0..ce_chunks(rows) {
            let (r0, r1) = ce_chunk_range(rows, c);
            total += ce_loss_rows(logits, targets, r0, r1);
        }
        total
    }

    fn softmax_ce_backward(&self, dl: &mut Tensor, targets: &[u32], scale: f32) {
        let (rows, cols) = dl.shape();
        ce_backward_rows(dl.as_mut_slice(), cols, targets, 0, rows, scale);
    }
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

/// Type-erased pointer to the job closure of the in-flight dispatch. The
/// pointee lives on the dispatching caller's stack; [`Pool::run`] does not
/// return until every partition has executed, which bounds the pointer's
/// use strictly inside the pointee's lifetime.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (the closure is shared immutably across
// workers) and outlives every dereference (see `Job`'s docs), so shipping
// the pointer to worker threads is sound.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per dispatched job so sleeping workers can tell a new
    /// job from a spurious wakeup.
    epoch: u64,
    job: Option<Job>,
    /// Partitions of the current job.
    n_parts: usize,
    /// Next unclaimed partition index.
    next_part: usize,
    /// Claimed-but-unfinished plus unclaimed partitions.
    outstanding: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is posted (or shutdown requested).
    start: Condvar,
    /// Signaled when the last partition of a job finishes.
    done: Condvar,
}

impl PoolShared {
    fn worker_loop(&self) {
        let mut seen = 0u64;
        let mut st = self.state.lock().expect("pool mutex poisoned");
        loop {
            if st.shutdown {
                return;
            }
            if st.epoch == seen || st.next_part >= st.n_parts {
                // Nothing for us in this job (or no job yet): mark it seen
                // and sleep until the next dispatch.
                seen = st.epoch;
                st = self.start.wait(st).expect("pool mutex poisoned");
                continue;
            }
            seen = st.epoch;
            while st.next_part < st.n_parts {
                let part = st.next_part;
                st.next_part += 1;
                let job = st.job.expect("job present while partitions remain");
                drop(st);
                // SAFETY: `Pool::run` keeps the closure alive until
                // `outstanding` reaches zero, which cannot happen before
                // this call returns.
                unsafe { (*job.0)(part) };
                st = self.state.lock().expect("pool mutex poisoned");
                st.outstanding -= 1;
                if st.outstanding == 0 {
                    self.done.notify_all();
                }
            }
        }
    }
}

/// Hand-rolled fixed-partition fork-join pool: `threads - 1` persistent
/// workers plus the dispatching caller, which participates in draining the
/// partition queue instead of blocking idle. No work stealing, no
/// dependencies; partition indices map to fixed output ranges so *which*
/// thread runs a partition never affects the bytes it writes.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                n_parts: 0,
                next_part: 0,
                outstanding: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("grimp-kernel-{i}"))
                    .spawn(move || sh.worker_loop())
                    .expect("spawn kernel worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Execute `f(0), f(1), …, f(n_parts - 1)` across the pool (the caller
    /// included) and return once all of them have finished.
    fn run<'a>(&self, n_parts: usize, f: &'a (dyn Fn(usize) + Sync + 'a)) {
        debug_assert!(n_parts >= 1);
        let p: *const (dyn Fn(usize) + Sync + 'a) = f;
        // SAFETY: lifetime erasure only — this function joins every
        // partition before returning, so the pointee outlives all uses.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'a),
                *const (dyn Fn(usize) + Sync + 'static),
            >(p)
        });
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            st.epoch += 1;
            st.job = Some(job);
            st.n_parts = n_parts;
            st.next_part = 0;
            st.outstanding = n_parts;
        }
        self.shared.start.notify_all();
        loop {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            if st.next_part >= st.n_parts {
                while st.outstanding > 0 {
                    st = self.shared.done.wait(st).expect("pool mutex poisoned");
                }
                st.job = None;
                return;
            }
            let part = st.next_part;
            st.next_part += 1;
            drop(st);
            f(part);
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            st.outstanding -= 1;
            if st.outstanding == 0 {
                self.shared.done.notify_all();
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Raw mutable pointer that may cross thread boundaries. Each partition
/// derives a slice over a *disjoint* output range from it, so no two
/// threads ever alias the same element.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);

// SAFETY: partitions write disjoint ranges (asserted by construction in the
// dispatchers below); the pointee outlives the dispatch because `Pool::run`
// joins before returning.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The sub-slice of `len` elements starting at `offset`.
    ///
    /// # Safety
    /// Caller guarantees `offset..offset + len` is in bounds and disjoint
    /// from every other concurrently derived range.
    unsafe fn slice(self, offset: usize, len: usize) -> &'static mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// [`SendPtr`]'s `f64` sibling for the CE chunk-partial buffer.
#[derive(Clone, Copy)]
struct SendF64(*mut f64);

// SAFETY: same argument as `SendPtr` — disjoint indices, joined dispatch.
unsafe impl Send for SendF64 {}
unsafe impl Sync for SendF64 {}

impl SendF64 {
    /// Store `v` at `idx`.
    ///
    /// # Safety
    /// Caller guarantees `idx` is in bounds and written by exactly one
    /// partition of the in-flight dispatch.
    unsafe fn set(self, idx: usize, v: f64) {
        *self.0.add(idx) = v;
    }
}

// ---------------------------------------------------------------------------
// ParallelBackend
// ---------------------------------------------------------------------------

/// Fixed-partition multi-threaded backend, bit-identical to
/// [`SerialBackend`] for any thread count (see the module docs).
pub struct ParallelBackend {
    threads: usize,
    /// `None` when `threads == 1`: the caller runs every partition inline.
    pool: Option<Pool>,
    /// CE chunk partials, grow-once (allocation-free after the first epoch).
    ce_partials: RefCell<Vec<f64>>,
}

impl ParallelBackend {
    /// A backend executing on `threads` threads (the calling thread plus
    /// `threads - 1` pool workers, spawned once here).
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> ParallelBackend {
        assert!(threads >= 1, "parallel backend needs at least one thread");
        ParallelBackend {
            threads,
            pool: (threads > 1).then(|| Pool::new(threads - 1)),
            ce_partials: RefCell::new(Vec::new()),
        }
    }

    /// Split `rows` into at most `self.threads` contiguous ranges and run
    /// `f(r0, r1)` on each, using the pool when it pays.
    fn par_ranges(&self, rows: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        let parts = self.threads.min(rows).max(1);
        match &self.pool {
            Some(pool) if parts > 1 => {
                let g = |j: usize| {
                    let (r0, r1) = part_range(rows, parts, j);
                    f(r0, r1);
                };
                pool.run(parts, &g);
            }
            _ => f(0, rows),
        }
    }
}

impl TensorBackend for ParallelBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Parallel {
            threads: self.threads,
        }
    }

    fn matmul_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul shape mismatch: {}x{} · {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        assert_eq!(
            out.shape(),
            (a.rows(), b.cols()),
            "matmul output shape mismatch"
        );
        let (k, n) = (a.cols(), b.cols());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let op = SendPtr(out.as_mut_slice().as_mut_ptr());
        self.par_ranges(a.rows(), &|r0, r1| {
            // SAFETY: ranges are disjoint by `part_range` construction.
            let chunk = unsafe { op.slice(r0 * n, (r1 - r0) * n) };
            gemm_rows(ad, bd, k, n, r0, r1, chunk);
        });
    }

    fn matmul_tn_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        assert_eq!(
            out.shape(),
            (a.cols(), b.cols()),
            "matmul_tn output shape mismatch"
        );
        let (r, c, n) = (a.rows(), a.cols(), b.cols());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let op = SendPtr(out.as_mut_slice().as_mut_ptr());
        self.par_ranges(c, &|i0, i1| {
            // SAFETY: strips are disjoint by `part_range` construction.
            let chunk = unsafe { op.slice(i0 * n, (i1 - i0) * n) };
            gemm_tn_strip(ad, bd, r, c, n, i0, i1, chunk);
        });
    }

    fn matmul_nt_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        assert_eq!(
            out.shape(),
            (a.rows(), b.rows()),
            "matmul_nt output shape mismatch"
        );
        let (c, p) = (a.cols(), b.rows());
        let (ad, bd) = (a.as_slice(), b.as_slice());
        let op = SendPtr(out.as_mut_slice().as_mut_ptr());
        self.par_ranges(a.rows(), &|r0, r1| {
            // SAFETY: ranges are disjoint by `part_range` construction.
            let chunk = unsafe { op.slice(r0 * p, (r1 - r0) * p) };
            gemm_nt_rows(ad, bd, c, p, r0, r1, chunk);
        });
    }

    fn scatter_mean_rows_into(
        &self,
        a: &Tensor,
        adj: &Adjacency,
        rows: Range<usize>,
        out: &mut Tensor,
    ) {
        assert_eq!(
            out.shape(),
            (rows.len(), a.cols()),
            "scatter_mean output shape mismatch"
        );
        let cols = a.cols();
        let first = rows.start;
        let op = SendPtr(out.as_mut_slice().as_mut_ptr());
        self.par_ranges(rows.len(), &|r0, r1| {
            // SAFETY: ranges are disjoint by `part_range` construction.
            let chunk = unsafe { op.slice(r0 * cols, (r1 - r0) * cols) };
            scatter_mean_rows(a, adj, first + r0, first + r1, chunk);
        });
    }

    fn softmax_ce_loss(&self, logits: &Tensor, targets: &[u32]) -> f64 {
        let rows = targets.len();
        let chunks = ce_chunks(rows);
        let mut partials = self.ce_partials.borrow_mut();
        if partials.len() < chunks {
            partials.resize(chunks, 0.0); // grow-once: shapes are epoch-stable
        }
        let pp = SendF64(partials.as_mut_ptr());
        self.par_ranges(chunks, &|c0: usize, c1: usize| {
            for c in c0..c1 {
                let (r0, r1) = ce_chunk_range(rows, c);
                // SAFETY: each chunk index is visited by exactly one range.
                unsafe { pp.set(c, ce_loss_rows(logits, targets, r0, r1)) };
            }
        });
        // Chunk-order summation: identical to the serial backend's fold.
        partials[..chunks].iter().sum()
    }

    fn softmax_ce_backward(&self, dl: &mut Tensor, targets: &[u32], scale: f32) {
        let (rows, cols) = dl.shape();
        let op = SendPtr(dl.as_mut_slice().as_mut_ptr());
        self.par_ranges(rows, &|r0, r1| {
            // SAFETY: ranges are disjoint by `part_range` construction.
            let chunk = unsafe { op.slice(r0 * cols, (r1 - r0) * cols) };
            ce_backward_rows(chunk, cols, targets, r0, r1, scale);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied(rows: usize, cols: usize, seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) % 2000) as f32 / 500.0 - 2.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn part_range_covers_rows_exactly_once() {
        for rows in [0usize, 1, 2, 7, 64, 65, 1000] {
            for parts in [1usize, 2, 3, 8] {
                let mut next = 0;
                for j in 0..parts {
                    let (r0, r1) = part_range(rows, parts, j);
                    assert_eq!(r0, next, "rows={rows} parts={parts} j={j}");
                    assert!(r1 >= r0);
                    next = r1;
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn parallel_matmul_family_is_bit_identical_to_serial() {
        let serial = SerialBackend;
        for threads in [1usize, 2, 8] {
            let par = ParallelBackend::new(threads);
            for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 9, 2), (33, 17, 12)] {
                let a = varied(m, k, (m * 31 + k) as u32);
                let b = varied(k, n, (k * 31 + n) as u32);
                assert_bits_eq(&par.matmul(&a, &b), &serial.matmul(&a, &b));
                let at = varied(k, m, (m + n) as u32);
                assert_bits_eq(&par.matmul_tn(&at, &b), &serial.matmul_tn(&at, &b));
                let bt = varied(n, k, (n * 7 + k) as u32);
                assert_bits_eq(&par.matmul_nt(&a, &bt), &serial.matmul_nt(&a, &bt));
            }
        }
    }

    #[test]
    fn parallel_scatter_mean_zeroes_degree_0_rows() {
        let a = varied(4, 3, 9);
        let adj = Adjacency::from_lists(&[vec![1, 3], vec![], vec![0], vec![]]);
        let serial = SerialBackend;
        for threads in [1usize, 2, 8] {
            let par = ParallelBackend::new(threads);
            let got = par.scatter_mean(&a, &adj);
            assert_bits_eq(&got, &serial.scatter_mean(&a, &adj));
            assert!(got.row_slice(1).iter().all(|&v| v == 0.0));
            assert!(got.row_slice(3).iter().all(|&v| v == 0.0));
            assert!(got.all_finite(), "degree-0 rows must not divide by zero");
        }
    }

    #[test]
    fn ce_loss_and_backward_are_bit_identical_across_backends() {
        let serial = SerialBackend;
        // 150 rows straddles multiple CE chunks unevenly (64 + 64 + 22).
        let logits = varied(150, 6, 3);
        let targets: Vec<u32> = (0..150u32).map(|i| i % 6).collect();
        let want = serial.softmax_ce_loss(&logits, &targets);
        let mut want_grad = logits.clone();
        serial.softmax_ce_backward(&mut want_grad, &targets, 0.01);
        for threads in [1usize, 2, 8] {
            let par = ParallelBackend::new(threads);
            let got = par.softmax_ce_loss(&logits, &targets);
            assert_eq!(got.to_bits(), want.to_bits());
            let mut got_grad = logits.clone();
            par.softmax_ce_backward(&mut got_grad, &targets, 0.01);
            assert_bits_eq(&got_grad, &want_grad);
        }
    }

    #[test]
    fn ce_backward_zeroes_rows_where_forward_is_clamped() {
        // Row 0: target probability underflows f32 (logit gap ≫ ln(1e-12)),
        // so the forward loss is clamped flat and the gradient must vanish.
        // Row 1: healthy probabilities keep the classic p - δ gradient.
        let logits = Tensor::from_vec(2, 2, vec![-200.0, 200.0, 1.0, 0.0]);
        let targets = vec![0u32, 0];
        for backend in [
            &SerialBackend as &dyn TensorBackend,
            &ParallelBackend::new(2),
        ] {
            let mut grad = logits.clone();
            backend.softmax_ce_backward(&mut grad, &targets, 1.0);
            assert_eq!(grad.row_slice(0), &[0.0, 0.0], "clamped row gradient");
            assert!(grad.get(1, 0) < 0.0 && grad.get(1, 1) > 0.0);
        }
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let par = ParallelBackend::new(4);
        let a = varied(65, 9, 1);
        let b = varied(9, 7, 2);
        let want = SerialBackend.matmul(&a, &b);
        for _ in 0..200 {
            assert_bits_eq(&par.matmul(&a, &b), &want);
        }
    }
}
