//! Dense, row-major, two-dimensional `f32` tensors.
//!
//! Everything in GRIMP's learning stack is expressed over matrices; batched
//! three-dimensional quantities (such as the `N × C × D` training-vector
//! collections of the attention tasks) are stored as `(N·C) × D` matrices and
//! re-interpreted by the block-aware ops in [`crate::tape`].

use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols`. Constructors enforce this and the
/// mutating helpers preserve it.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A tensor wrapping an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// A `1 × 1` tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// A row vector (`1 × n`).
    pub fn row(values: &[f32]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A read-only view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 × 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Reinterpret the buffer with a new shape of identical element count.
    pub fn reshaped(&self, rows: usize, cols: usize) -> Tensor {
        self.clone().into_reshaped(rows, cols)
    }

    /// Reinterpret this tensor's own buffer with a new shape — zero-copy.
    pub fn into_reshaped(self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            rows * cols,
            self.len(),
            "reshape must preserve element count"
        );
        Tensor {
            rows,
            cols,
            data: self.data,
        }
    }

    /// Consume the tensor, yielding its row-major buffer (used by the tape
    /// workspace to recycle allocations across epochs).
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }

    /// Fill every element with zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix product `self · rhs`.
    ///
    /// The kernel is an ikj loop with the k dimension blocked four wide, so
    /// the inner loop streams both operands sequentially with four
    /// independent multiply-adds per output element and no data-dependent
    /// branches. At GRIMP's scales (≤ a few thousand rows, ≤ 256 columns)
    /// this is within a small factor of a tuned BLAS and keeps the crate
    /// dependency-free.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self · rhs` written into `out`, overwriting its contents. Allocation
    /// free: the training hot path pairs this with a recycled output buffer.
    ///
    /// # Panics
    /// Panics on operand or output shape mismatch.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul output shape mismatch"
        );
        gemm_blocked(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// `selfᵀ · rhs` written into `out`, overwriting its contents.
    ///
    /// # Panics
    /// Panics on operand or output shape mismatch.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "matmul_tn output shape mismatch"
        );
        gemm_tn_blocked(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` written into `out`, overwriting its contents.
    ///
    /// # Panics
    /// Panics on operand or output shape mismatch.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_nt output shape mismatch"
        );
        gemm_nt_blocked(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.rows,
            &mut out.data,
        );
    }

    /// The pre-optimization `matmul` kernel (ikj order with a per-element
    /// zero skip). Retained as the reference of differential tests and
    /// benchmarks against the blocked kernel; note the zero skip
    /// suppresses NaN propagation from zero-masked positions, which the
    /// blocked kernel deliberately does not.
    pub fn matmul_ref(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        for i in 0..self.rows {
            let a_row = self.row_slice(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// The pre-optimization `matmul_tn` kernel (see [`Tensor::matmul_ref`]).
    pub fn matmul_tn_ref(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        let n = rhs.cols;
        for k in 0..self.rows {
            let a_row = self.row_slice(k);
            let b_row = rhs.row_slice(k);
            for (i, &a_ki) in a_row.iter().enumerate() {
                if a_ki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b;
                }
            }
        }
        out
    }

    /// The pre-optimization `matmul_nt` kernel (see [`Tensor::matmul_ref`]).
    pub fn matmul_nt_ref(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row_slice(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row_slice(j);
                let dot: f32 = a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum();
                out.data[i * rhs.rows + j] = dot;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other` elementwise (AXPY).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Width of the blocks in which the GEMM kernels fold the shared (k)
/// dimension: [`gemm_rows`] sweeps [`GEMM_K_BLOCK`] columns of `a` per pass
/// and [`gemm_tn_strip`] sums the shared row dimension [`GEMM_K_BLOCK`] rows
/// at a time, with a scalar tail for the remainder. A product over a suffix
/// of `aᵀ · b`'s shared rows whose start is a multiple of this width is
/// therefore summed in the same groups as the full product — which is what
/// lets a row-restricted pass reproduce the full pass's weight gradients
/// bit for bit when the rows it leaves out carry zero gradient.
pub const GEMM_K_BLOCK: usize = 4;

/// `out = a · b` with `a` being `m × k`, `b` being `k × n`. The k dimension
/// is blocked [`GEMM_K_BLOCK`] (four) wide: each pass over an output row
/// folds four rank-1 updates into one sweep, giving four independent
/// multiply-adds per element and no data-dependent branches (a zero in `a`
/// contributes `0 · x`, so NaN and infinity propagate as IEEE arithmetic
/// dictates).
fn gemm_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_rows(a, b, k, n, 0, m, out);
}

/// Output rows `r0..r1` of `a · b`, written to `out` (which holds exactly
/// those rows). Each output row depends only on the matching row of `a`, so
/// disjoint row ranges compose to the full product bit-for-bit regardless of
/// how the range is partitioned — the parallel backend relies on this.
pub(crate) fn gemm_rows(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), (r1 - r0) * n);
    out.fill(0.0);
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[(i - r0) * n..(i - r0 + 1) * n];
        let mut kk = 0;
        while kk + GEMM_K_BLOCK <= k {
            let a0 = a_row[kk];
            let a1 = a_row[kk + 1];
            let a2 = a_row[kk + 2];
            let a3 = a_row[kk + 3];
            let (b0, rest) = b[kk * n..].split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, rest) = rest.split_at(n);
            let b3 = &rest[..n];
            for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o += a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
            }
            kk += GEMM_K_BLOCK;
        }
        for kr in kk..k {
            let av = a_row[kr];
            let b_row = &b[kr * n..(kr + 1) * n];
            for (o, &x) in out_row.iter_mut().zip(b_row) {
                *o += av * x;
            }
        }
    }
}

/// `out = aᵀ · b` with `a` being `r × c` (so `out` is `c × n`). Mirrors
/// [`gemm_blocked`]'s four-wide k blocking over the shared row dimension; the
/// accumulation order per output element is identical to running
/// `gemm_blocked` on an explicitly transposed `a`, so the two agree
/// bit-for-bit.
fn gemm_tn_blocked(a: &[f32], b: &[f32], r: usize, c: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), r * c);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), c * n);
    gemm_tn_strip(a, b, r, c, n, 0, c, out);
}

/// Output rows `i0..i1` of `aᵀ · b`, written to `out` (which holds exactly
/// those rows). The outer loop over the shared row dimension `r` is kept
/// intact — only the inner sweep over output rows is restricted — so every
/// output element sees the exact k-ascending accumulation order of the full
/// kernel and disjoint strips compose to the full product bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tn_strip(
    a: &[f32],
    b: &[f32],
    r: usize,
    c: usize,
    n: usize,
    i0: usize,
    i1: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), (i1 - i0) * n);
    out.fill(0.0);
    let mut kk = 0;
    while kk + GEMM_K_BLOCK <= r {
        let (a0, rest) = a[kk * c..].split_at(c);
        let (a1, rest) = rest.split_at(c);
        let (a2, rest) = rest.split_at(c);
        let a3 = &rest[..c];
        let (b0, rest) = b[kk * n..].split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, rest) = rest.split_at(n);
        let b3 = &rest[..n];
        for i in i0..i1 {
            let x0 = a0[i];
            let x1 = a1[i];
            let x2 = a2[i];
            let x3 = a3[i];
            let out_row = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            for ((((o, &y0), &y1), &y2), &y3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o += x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3;
            }
        }
        kk += GEMM_K_BLOCK;
    }
    for kr in kk..r {
        let a_row = &a[kr * c..(kr + 1) * c];
        let b_row = &b[kr * n..(kr + 1) * n];
        for i in i0..i1 {
            let av = a_row[i];
            let out_row = &mut out[(i - i0) * n..(i - i0 + 1) * n];
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o += av * y;
            }
        }
    }
}

/// `out = a · bᵀ` with `a` being `m × c`, `b` being `p × c` (so `out` is
/// `m × p`): row-by-row dot products, each unrolled into four independent
/// accumulators over the shared column dimension.
fn gemm_nt_blocked(a: &[f32], b: &[f32], m: usize, c: usize, p: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * c);
    debug_assert_eq!(b.len(), p * c);
    debug_assert_eq!(out.len(), m * p);
    gemm_nt_rows(a, b, c, p, 0, m, out);
}

/// Output rows `r0..r1` of `a · bᵀ`, written to `out` (which holds exactly
/// those rows). Row-disjoint like [`gemm_rows`]; the stack-scratch transpose
/// of `b` is rebuilt per call, so concurrent callers over disjoint ranges
/// never share mutable state and each range reproduces the full kernel's
/// per-element arithmetic exactly.
pub(crate) fn gemm_nt_rows(
    a: &[f32],
    b: &[f32],
    c: usize,
    p: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), (r1 - r0) * p);
    // The training hot path calls this almost exclusively with a small
    // right-hand side (a layer's weight matrix, ≤ 64×64): transposing it
    // into a stack scratch once turns every inner loop into the same
    // contiguous multiply-add sweep as [`gemm_blocked`], which the compiler
    // vectorizes far better than strided dot products.
    const SCRATCH: usize = 4096;
    if c * p <= SCRATCH {
        let mut bt = [0.0f32; SCRATCH];
        let bt = &mut bt[..c * p];
        for (j, b_row) in b.chunks_exact(c).enumerate() {
            for (l, &v) in b_row.iter().enumerate() {
                bt[l * p + j] = v;
            }
        }
        gemm_rows(a, bt, c, p, r0, r1, out);
        return;
    }
    for i in r0..r1 {
        let a_row = &a[i * c..(i + 1) * c];
        let out_row = &mut out[(i - r0) * p..(i - r0 + 1) * p];
        // Four output columns per pass: each load of an `a` chunk feeds four
        // dot products, so the kernel is bound by multiply-adds rather than
        // reloads of `a_row`. Every dot keeps the same four-accumulator
        // shape as the scalar tail below, so the result is identical to
        // computing each element on its own.
        let mut j = 0;
        while j + 4 <= p {
            let b0 = &b[j * c..(j + 1) * c];
            let b1 = &b[(j + 1) * c..(j + 2) * c];
            let b2 = &b[(j + 2) * c..(j + 3) * c];
            let b3 = &b[(j + 3) * c..(j + 4) * c];
            let mut acc0 = [0.0f32; 4];
            let mut acc1 = [0.0f32; 4];
            let mut acc2 = [0.0f32; 4];
            let mut acc3 = [0.0f32; 4];
            let ca = a_row.chunks_exact(4);
            let ra = ca.remainder();
            for ((((xa, xb0), xb1), xb2), xb3) in ca
                .zip(b0.chunks_exact(4))
                .zip(b1.chunks_exact(4))
                .zip(b2.chunks_exact(4))
                .zip(b3.chunks_exact(4))
            {
                for l in 0..4 {
                    acc0[l] += xa[l] * xb0[l];
                    acc1[l] += xa[l] * xb1[l];
                    acc2[l] += xa[l] * xb2[l];
                    acc3[l] += xa[l] * xb3[l];
                }
            }
            let base = a_row.len() - ra.len();
            let mut d0 = (acc0[0] + acc0[1]) + (acc0[2] + acc0[3]);
            let mut d1 = (acc1[0] + acc1[1]) + (acc1[2] + acc1[3]);
            let mut d2 = (acc2[0] + acc2[1]) + (acc2[2] + acc2[3]);
            let mut d3 = (acc3[0] + acc3[1]) + (acc3[2] + acc3[3]);
            for (l, &xa) in ra.iter().enumerate() {
                d0 += xa * b0[base + l];
                d1 += xa * b1[base + l];
                d2 += xa * b2[base + l];
                d3 += xa * b3[base + l];
            }
            out_row[j] = d0;
            out_row[j + 1] = d1;
            out_row[j + 2] = d2;
            out_row[j + 3] = d3;
            j += 4;
        }
        for (j, o) in out_row.iter_mut().enumerate().skip(j) {
            let b_row = &b[j * c..(j + 1) * c];
            let mut acc = [0.0f32; 4];
            let ca = a_row.chunks_exact(4);
            let cb = b_row.chunks_exact(4);
            let (ra, rb) = (ca.remainder(), cb.remainder());
            for (xa, xb) in ca.zip(cb) {
                acc[0] += xa[0] * xb[0];
                acc[1] += xa[1] * xb[1];
                acc[2] += xa[2] * xb[2];
                acc[3] += xa[3] * xb[3];
            }
            let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for (&xa, &xb) in ra.iter().zip(rb) {
                dot += xa * xb;
            }
            *o = dot;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![1.0, 0.5, -1.0, 2.0, 0.0, 3.0]);
        let fast = a.matmul_tn(&b);
        let slow = a.transposed().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(4, 3, vec![1.0; 12]);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transposed());
        assert_eq!(fast, slow);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshaped(3, 2);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn row_slices_index_correct_rows() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.row_slice(0), &[1.0, 2.0]);
        assert_eq!(t.row_slice(1), &[3.0, 4.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn scalar_item_roundtrip() {
        assert_eq!(Tensor::scalar(3.25).item(), 3.25);
    }

    #[test]
    fn into_reshaped_moves_without_copy() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let ptr = t.as_slice().as_ptr();
        let r = t.into_reshaped(3, 2);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.as_slice().as_ptr(), ptr, "reshape must reuse the buffer");
    }

    /// Pseudo-random but deterministic fill with zeros sprinkled in, so the
    /// differential tests cover the positions where the reference kernel's
    /// zero skip used to fire.
    fn varied(rows: usize, cols: usize, seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if state.is_multiple_of(5) {
                    0.0
                } else {
                    ((state >> 8) % 2000) as f32 / 1000.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_kernels_match_reference_over_odd_shapes() {
        // dims straddle the 4-wide block boundary on purpose
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 9, 2), (8, 8, 8), (5, 13, 6)] {
            let a = varied(m, k, (m * 100 + k) as u32);
            let b = varied(k, n, (k * 100 + n) as u32);
            assert_close(&a.matmul(&b), &a.matmul_ref(&b));
            let at = varied(k, m, (m + n) as u32);
            assert_close(&at.matmul_tn(&b), &at.matmul_tn_ref(&b));
            let bt = varied(n, k, (n * 7 + k) as u32);
            assert_close(&a.matmul_nt(&bt), &a.matmul_nt_ref(&bt));
        }
    }

    #[test]
    fn matmul_into_matches_allocating_path_on_stale_buffer() {
        let a = varied(6, 10, 1);
        let b = varied(10, 3, 2);
        let mut out = Tensor::full(6, 3, f32::NAN); // stale contents must not leak
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    // The reference kernels skipped multiplications where the left factor is
    // zero, which silently swallowed NaN sitting in the matching position of
    // the other operand. The blocked kernels must let IEEE arithmetic speak.
    #[test]
    fn matmul_propagates_nan_through_zero_masked_positions() {
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let mut b = Tensor::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(
            a.matmul(&b).get(0, 0).is_nan(),
            "0 · NaN must poison the output"
        );
        // the reference kernel documents the old masking behavior
        assert_eq!(a.matmul_ref(&b).get(0, 0), 2.0);
        b.set(0, 0, 3.0);
        assert_eq!(a.matmul(&b).get(0, 0), 2.0);
    }

    #[test]
    fn matmul_tn_propagates_nan_through_zero_masked_positions() {
        let a = Tensor::from_vec(2, 1, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul_tn(&b).get(0, 0).is_nan());
        assert_eq!(a.matmul_tn_ref(&b).get(0, 0), 2.0);
    }
}
