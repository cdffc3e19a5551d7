//! Epoch-persistent buffer recycling for the training hot path.
//!
//! Every ephemeral tensor a [`crate::Tape`] produces during one epoch —
//! forward values, gradients, backward temporaries — is returned here by
//! `Tape::reset` instead of being freed. Buffers are parked in free lists
//! keyed by element count, so the next epoch (which replays the same
//! computation over the same shapes) acquires every buffer as a hit and the
//! steady state performs no heap allocation at all. The hit/miss counters
//! make that property observable and testable.
//!
//! Retention follows the last reset cycle: the workspace counts the
//! acquisitions of each size class between two resets, and at the reset
//! trims every free list to that count and drops the classes the cycle
//! never touched. A replayed cycle therefore still hits on every
//! acquisition, while buffers of shapes that stopped recurring (a served
//! model's past requests, a per-epoch input tensor) are freed instead of
//! accumulating.
//!
//! The kernel backends (see [`crate::backend`]) follow the same grow-once
//! discipline outside this workspace: the parallel backend's thread pool is
//! spawned at backend creation and its per-chunk reduction scratch grows on
//! first use to a table-determined size, so from epoch 2 onward neither the
//! workspace nor the backend touches the allocator.

use std::collections::HashMap;

use crate::tensor::Tensor;

/// Allocation counters of a [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Acquisitions served from a free list (no allocation).
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently parked in the free lists.
    pub resident: usize,
    /// Total `f32` elements parked in the free lists.
    pub resident_elems: usize,
}

/// The parked buffers of one size class, and how many buffers of that size
/// the current cycle has acquired so far.
#[derive(Debug, Default)]
struct SizeClass {
    free: Vec<Vec<f32>>,
    acquired: usize,
}

/// Free lists of `f32` buffers keyed by element count.
#[derive(Debug, Default)]
pub struct Workspace {
    classes: HashMap<usize, SizeClass>,
    hits: u64,
    misses: u64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows × cols` tensor with unspecified contents (stale data from a
    /// previous life). The caller must overwrite every element.
    pub fn raw(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        if len == 0 {
            return Tensor::zeros(rows, cols); // zero-length Vec: no allocation
        }
        let class = self.classes.entry(len).or_default();
        class.acquired += 1;
        match class.free.pop() {
            Some(buf) => {
                self.hits += 1;
                Tensor::from_vec(rows, cols, buf)
            }
            None => {
                self.misses += 1;
                Tensor::zeros(rows, cols)
            }
        }
    }

    /// A `rows × cols` tensor with every element zeroed.
    pub fn zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.raw(rows, cols);
        t.as_mut_slice().fill(0.0);
        t
    }

    /// A recycled copy of `src`.
    pub fn copy_of(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.raw(src.rows(), src.cols());
        t.as_mut_slice().copy_from_slice(src.as_slice());
        t
    }

    /// Park a tensor's buffer for reuse by a same-sized acquisition.
    pub fn release(&mut self, t: Tensor) {
        if t.is_empty() {
            return;
        }
        let buf = t.into_raw();
        self.classes.entry(buf.len()).or_default().free.push(buf);
    }

    /// Close a reset cycle: keep at most as many buffers per size class as
    /// the cycle acquired, drop the classes it never acquired from, and
    /// start counting the next cycle.
    pub(crate) fn end_cycle(&mut self) {
        self.classes.retain(|_, class| {
            class.free.truncate(class.acquired);
            class.acquired = 0;
            !class.free.is_empty()
        });
    }

    /// Current counters.
    pub fn stats(&self) -> WorkspaceStats {
        let (mut resident, mut resident_elems) = (0usize, 0usize);
        for class in self.classes.values() {
            resident += class.free.len();
            resident_elems += class.free.iter().map(Vec::len).sum::<usize>();
        }
        WorkspaceStats {
            hits: self.hits,
            misses: self.misses,
            resident,
            resident_elems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_acquisition_of_a_shape_is_a_hit() {
        let mut ws = Workspace::new();
        let t = ws.zeroed(3, 4);
        assert_eq!(ws.stats().misses, 1);
        ws.release(t);
        assert_eq!(ws.stats().resident, 1);
        let t2 = ws.zeroed(3, 4);
        assert_eq!(t2.shape(), (3, 4));
        assert!(t2.as_slice().iter().all(|&v| v == 0.0));
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 1, 0));
    }

    #[test]
    fn buffers_are_shared_across_shapes_of_equal_len() {
        let mut ws = Workspace::new();
        let t = ws.raw(2, 6);
        ws.release(t);
        let _t2 = ws.raw(4, 3); // 12 elements either way
        assert_eq!(ws.stats().hits, 1);
    }

    #[test]
    fn end_cycle_keeps_what_the_cycle_acquired_and_drops_the_rest() {
        let mut ws = Workspace::new();
        let (a, b) = (ws.raw(2, 3), ws.raw(2, 3));
        ws.release(a);
        ws.release(b);
        // A buffer the workspace never handed out (a caller-built input).
        ws.release(Tensor::zeros(4, 4));
        ws.release(Tensor::zeros(2, 3));
        ws.end_cycle();
        let s = ws.stats();
        assert_eq!((s.resident, s.resident_elems), (2, 12));
        // The next cycle acquires nothing: everything parked is dropped.
        ws.end_cycle();
        assert_eq!(ws.stats().resident, 0);
    }

    #[test]
    fn copy_of_duplicates_contents() {
        let mut ws = Workspace::new();
        let src = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let dup = ws.copy_of(&src);
        assert_eq!(dup, src);
    }

    #[test]
    fn zero_length_tensors_bypass_the_free_lists() {
        let mut ws = Workspace::new();
        let t = ws.raw(0, 5);
        ws.release(t);
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.resident), (0, 0, 0));
    }
}
