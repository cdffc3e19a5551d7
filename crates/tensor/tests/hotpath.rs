//! Regression tests for the allocation-free training hot path.
//!
//! Two properties, both load-bearing for the workspace recycling in `Tape`:
//!
//! 1. After the first epoch of a shape-stable training loop, later epochs
//!    perform **zero** heap allocations (verified with a counting global
//!    allocator, not just the tape's own free-list statistics).
//! 2. An epoch running on recycled (stale-content) buffers produces values
//!    and gradients **bit-for-bit identical** to the same epoch on a fresh
//!    tape — i.e. every workspace buffer really is fully overwritten.
//!
//! Allocations are counted per thread, so only the test's own thread is
//! measured — never the test harness or a sibling test running alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use grimp_tensor::{Adam, Adjacency, Tape, Tensor, Var};

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made by the current thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Fixture {
    idx8: Arc<Vec<u32>>,
    idx4: Arc<Vec<u32>>,
    adj: Arc<Adjacency>,
    weights: Arc<Vec<f32>>,
    targets: Arc<Vec<u32>>,
    num_targets: Arc<Vec<f32>>,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            idx8: Arc::new(vec![0, 2, 4, 6, 8, 1, 3, 5]),
            idx4: Arc::new(vec![7, 0, 3, 5]),
            adj: Arc::new(Adjacency::from_lists(&[
                vec![1, 2],
                vec![0, 3, 5],
                vec![],
                vec![4],
                vec![0, 1, 2, 3],
                vec![5],
            ])),
            weights: Arc::new(vec![
                0.5, -0.25, 1.0, 0.0, 2.0, -1.0, 0.75, 0.1, 0.2, 0.3, 1.5,
            ]),
            targets: Arc::new(vec![2, 0, 3, 1]),
            num_targets: Arc::new(vec![0.5, -0.5, 1.0, 0.0]),
        }
    }
}

fn params(tape: &mut Tape) -> (Var, Var) {
    let w1 = tape.param(Tensor::from_vec(
        4,
        6,
        (0..24)
            .map(|i| ((i * 7 + 3) % 11) as f32 / 11.0 - 0.5)
            .collect(),
    ));
    let bias = tape.param(Tensor::from_vec(
        1,
        6,
        (0..6).map(|i| i as f32 / 10.0 - 0.25).collect(),
    ));
    (w1, bias)
}

fn input(tape: &mut Tape) -> Var {
    tape.input(Tensor::from_vec(
        6,
        4,
        (0..24)
            .map(|i| ((i * 5 + 1) % 13) as f32 / 13.0 - 0.4)
            .collect(),
    ))
}

/// One forward + backward pass touching every tape op, returning the loss.
fn epoch(tape: &mut Tape, x: Var, w1: Var, bias: Var, fx: &Fixture) -> f32 {
    let h = tape.matmul(x, w1);
    let hb = tape.add_row_broadcast(h, bias);
    let r = tape.relu(hb);
    let t = tape.tanh(hb);
    let s = tape.sigmoid(hb);
    let m = tape.mul_elem(r, t);
    let d = tape.sub(m, s);
    let sc = tape.scale(d, 0.5);
    let an = tape.add_n(&[sc, m, d]);
    let sm = tape.scatter_mean(an, Arc::clone(&fx.adj));
    let sw = tape.scatter_weighted(an, Arc::clone(&fx.adj), Arc::clone(&fx.weights));
    let cat = tape.concat_cols(&[sm, sw]);
    let sl = tape.slice_cols(cat, 3, 9);
    let resh = tape.reshape(sl, 9, 4);
    let v = tape.gather_rows(resh, Arc::clone(&fx.idx8));
    let alpha_src = tape.gather_rows(resh, Arc::clone(&fx.idx4));
    let alpha_sl = tape.slice_cols(alpha_src, 1, 3);
    let alpha = tape.row_softmax(alpha_sl);
    let bws = tape.block_weighted_sum(v, alpha);
    let ce = tape.softmax_cross_entropy(bws, Arc::clone(&fx.targets));
    let fl = tape.focal_loss(bws, Arc::clone(&fx.targets), 1.5);
    let num = tape.slice_cols(bws, 0, 1);
    let mse = tape.mse_loss(num, Arc::clone(&fx.num_targets));
    let sa = tape.sum_all(m);
    let sa_small = tape.scale(sa, 0.01);
    let ma = tape.mean_all(m);
    let loss = tape.add_n(&[ce, fl, mse, sa_small, ma]);
    let value = tape.value(loss).item();
    tape.backward(loss);
    value
}

#[test]
fn second_epoch_performs_zero_heap_allocations() {
    let fx = Fixture::new();
    let mut tape = Tape::new();
    let (w1, bias) = params(&mut tape);
    let x = input(&mut tape);
    tape.freeze();
    let mut adam = Adam::new(1e-2);

    // Epoch 1 populates the free lists and the Adam moments — heap
    // allocations the counter must see.
    let allocs_before = allocs();
    epoch(&mut tape, x, w1, bias, &fx);
    adam.step(&mut tape);
    tape.reset();
    assert!(
        allocs() > allocs_before,
        "the counter must observe the first epoch's allocations"
    );
    let stats_after_first = tape.workspace_stats();
    assert!(
        stats_after_first.misses > 0,
        "first epoch must allocate buffers"
    );

    let allocs_before = allocs();
    for _ in 0..4 {
        epoch(&mut tape, x, w1, bias, &fx);
        adam.step(&mut tape);
        tape.reset();
    }
    let alloc_delta = allocs() - allocs_before;
    let miss_delta = tape.workspace_stats().misses - stats_after_first.misses;
    assert_eq!(miss_delta, 0, "later epochs must never miss the free lists");
    assert_eq!(alloc_delta, 0, "later epochs must not touch the heap");
}

#[test]
fn recycled_epoch_is_bit_identical_to_a_fresh_tape() {
    let fx = Fixture::new();

    // Long-lived tape: epoch 1 dirties the workspace, epoch 2 runs entirely
    // on recycled, stale-content buffers. No optimizer step in between, so
    // both epochs (and the fresh tape below) compute the same function.
    let mut recycled = Tape::new();
    let (w1_a, bias_a) = params(&mut recycled);
    let x_a = input(&mut recycled);
    recycled.freeze();
    epoch(&mut recycled, x_a, w1_a, bias_a, &fx);
    recycled.reset();
    let loss_recycled = epoch(&mut recycled, x_a, w1_a, bias_a, &fx);

    let mut fresh = Tape::new();
    let (w1_b, bias_b) = params(&mut fresh);
    let x_b = input(&mut fresh);
    fresh.freeze();
    let loss_fresh = epoch(&mut fresh, x_b, w1_b, bias_b, &fx);

    assert_eq!(
        loss_recycled.to_bits(),
        loss_fresh.to_bits(),
        "loss differs: recycled {loss_recycled} vs fresh {loss_fresh}"
    );
    for (a, b) in [(w1_a, w1_b), (bias_a, bias_b)] {
        let ga = recycled.grad(a).expect("recycled grad");
        let gb = fresh.grad(b).expect("fresh grad");
        assert_eq!(ga.shape(), gb.shape());
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "gradient bits differ: {x} vs {y}");
        }
    }
}
