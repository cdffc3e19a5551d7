//! Proof that tracing through a `NullSink` is allocation-free: a hot
//! loop exercising every trace primitive (spans, counters, metrics)
//! against a disabled sink must perform zero heap allocations.
//!
//! Allocations are counted per thread, so only the test's own thread is
//! measured — never the test harness or a sibling test running alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grimp_obs::{names, MemorySink, NullSink, Trace};

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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn trace_heavy_loop(trace: &mut Trace<'_>, epochs: u64) -> f64 {
    // The same mix of primitives the training loop emits per epoch.
    let mut acc = 0.0f64;
    for epoch in 0..epochs {
        let ep = trace.enter(names::EPOCH, epoch);
        let fwd = trace.enter(names::FORWARD, epoch);
        trace.exit(names::FORWARD, epoch, fwd);
        let bwd = trace.enter(names::BACKWARD, epoch);
        trace.exit(names::BACKWARD, epoch, bwd);
        trace.metric(names::TRAIN_LOSS, epoch, 1.0 / (epoch + 1) as f64);
        trace.metric(names::GRAD_NORM, epoch, 0.5);
        trace.counter(names::EPOCH_ALLOCS, epoch, 0);
        trace.counter(names::GNN_ROWS, epoch, 178);
        trace.counter(names::GRAPH_KEYS, 0, 1_330);
        for task in 0..4u64 {
            trace.metric(names::TASK_LOSS, task, 0.25);
        }
        trace.exit(names::EPOCH, epoch, ep);
        acc += (epoch as f64).sqrt();
    }
    acc
}

#[test]
fn null_sink_tracing_performs_zero_heap_allocations() {
    let mut sink = NullSink;
    let mut trace = Trace::new(&mut sink);
    assert!(!trace.is_enabled());

    // Warm up once so any lazy runtime setup is excluded.
    std::hint::black_box(trace_heavy_loop(&mut trace, 10));

    let before = allocs();
    let out = trace_heavy_loop(&mut trace, 1000);
    let after = allocs();
    std::hint::black_box(out);

    assert_eq!(
        after - before,
        0,
        "NullSink tracing must not allocate on the hot path"
    );
}

#[test]
fn disabled_trace_constructor_performs_zero_heap_allocations() {
    let before = allocs();
    for _ in 0..100 {
        let mut sink = NullSink;
        let mut trace = Trace::new(&mut sink);
        std::hint::black_box(trace_heavy_loop(&mut trace, 1));
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "constructing a disabled Trace must not allocate"
    );
}

#[test]
fn memory_sink_does_allocate_which_validates_the_counter() {
    // Sanity check that the counting allocator actually observes the
    // allocations an enabled sink performs.
    let mut sink = MemorySink::new();
    let before = allocs();
    {
        let mut trace = Trace::new(&mut sink);
        std::hint::black_box(trace_heavy_loop(&mut trace, 100));
    }
    let after = allocs();
    assert!(after > before, "MemorySink growth should be counted");
    assert!(!sink.is_empty());
}
