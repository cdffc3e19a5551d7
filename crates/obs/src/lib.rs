//! # grimp-obs
//!
//! Dependency-free structured observability for the GRIMP stack.
//!
//! The model of this crate is a flat, allocation-free **event stream**:
//! every instrumented phase of a run (graph build, feature init, each
//! training epoch and its forward/backward/optim sub-phases, per-task
//! losses, checkpoint I/O, recovery, imputation) emits [`Event`]s into an
//! [`EventSink`]. Three primitives cover everything:
//!
//! - **spans** — paired [`EventKind::SpanEnter`]/[`EventKind::SpanExit`]
//!   events carrying monotonic nanosecond timestamps; the exit event's
//!   `value` is the span duration in seconds;
//! - **counters** — monotone integral facts (`epoch_allocs`,
//!   `checkpoint_bytes`, `graph_nodes`);
//! - **metrics** — floating-point observations (`train_loss`, `grad_norm`,
//!   per-task losses), with [`Histogram`] available for aggregation.
//!
//! Sinks:
//!
//! - [`NullSink`] — reports itself disabled, so a [`Trace`] built on it
//!   performs **no clock reads, no virtual calls, and no allocations** in
//!   the hot path (verified by a counting-global-allocator test);
//! - [`MemorySink`] — buffers events in memory for tests and aggregation;
//! - [`JsonlSink`] — streams events as JSON Lines to any writer, using the
//!   hand-rolled serializer in [`json`] (parseable back with
//!   [`json::parse`]);
//! - [`FanoutSink`] — tees one stream into several sinks.
//!
//! Events carry `&'static str` names and plain numbers only — no `String`
//! payloads — so recording an event never allocates. The canonical names
//! used by the GRIMP pipeline live in [`names`].

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod crashpoint;
pub mod fs;
pub mod histogram;
pub mod json;
pub mod replay;
mod sink;

pub use fs::{FaultFs, GrimpFs, IoFaultKind, IoFaultPlan, RealFs};
pub use histogram::Histogram;
pub use replay::{read_jsonl, Replay, ReplayError};
pub use sink::{FanoutSink, JsonlSink, MemorySink};

use std::time::Instant;

/// The four event primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A phase began. `t_ns` is the enter time.
    SpanEnter,
    /// A phase ended. `value` is the phase duration in **seconds**.
    SpanExit,
    /// An integral fact; `value` holds it (exactly, below 2^53).
    Counter,
    /// A floating-point observation.
    Metric,
}

impl EventKind {
    /// Stable lowercase label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter => "counter",
            EventKind::Metric => "metric",
        }
    }

    /// Inverse of [`EventKind::label`].
    pub fn from_label(label: &str) -> Option<EventKind> {
        Some(match label {
            "span_enter" => EventKind::SpanEnter,
            "span_exit" => EventKind::SpanExit,
            "counter" => EventKind::Counter,
            "metric" => EventKind::Metric,
            _ => return None,
        })
    }
}

/// One observation. `Copy`, no heap payload: recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Monotonic nanoseconds since the owning [`Trace`]'s origin.
    pub t_ns: u64,
    /// Which primitive this is.
    pub kind: EventKind,
    /// Static event name (see [`names`] for the pipeline's vocabulary).
    pub name: &'static str,
    /// Discriminator within a name: epoch number, task id, … (0 if unused).
    pub index: u64,
    /// Kind-dependent payload: span duration in seconds for
    /// [`EventKind::SpanExit`], the count for [`EventKind::Counter`], the
    /// observation for [`EventKind::Metric`], 0.0 for enters.
    pub value: f64,
}

/// Receiver of an event stream.
pub trait EventSink {
    /// Whether recording does anything. A [`Trace`] built on a disabled
    /// sink short-circuits before reading clocks or dispatching events.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: Event);

    /// Flush any buffered output, surfacing deferred I/O errors.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The zero-overhead sink: discards everything and reports itself
/// disabled, letting instrumented code compile out the clock reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}
}

/// Token returned by [`Trace::enter`], consumed by [`Trace::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Trace::exit or Trace::exit_with"]
pub struct Span {
    start_ns: u64,
}

/// Borrowed emission handle: a sink plus a monotonic clock origin.
///
/// Construction checks [`EventSink::enabled`] once; on a disabled sink
/// every method is a branch on a `None` and nothing else — no time reads,
/// no virtual dispatch, no allocation.
pub struct Trace<'a> {
    sink: Option<&'a mut dyn EventSink>,
    origin: Instant,
}

impl<'a> Trace<'a> {
    /// A trace emitting into `sink` (no-op if the sink is disabled).
    pub fn new(sink: &'a mut dyn EventSink) -> Trace<'a> {
        let enabled = sink.enabled();
        Trace {
            sink: if enabled { Some(sink) } else { None },
            origin: Instant::now(),
        }
    }

    /// A trace that records nothing (cheaper than `Trace::new(&mut NullSink)`
    /// only in that it needs no sink to borrow).
    pub fn disabled() -> Trace<'static> {
        Trace {
            sink: None,
            origin: Instant::now(),
        }
    }

    /// Whether events are being recorded. Use to skip *computing* expensive
    /// observations, not just emitting them.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span. Emits [`EventKind::SpanEnter`] now.
    pub fn enter(&mut self, name: &'static str, index: u64) -> Span {
        match &mut self.sink {
            Some(sink) => {
                let t_ns = Self::now_ns(self.origin);
                sink.record(Event {
                    t_ns,
                    kind: EventKind::SpanEnter,
                    name,
                    index,
                    value: 0.0,
                });
                Span { start_ns: t_ns }
            }
            None => Span { start_ns: 0 },
        }
    }

    /// Close a span, deriving the duration from the trace clock.
    pub fn exit(&mut self, name: &'static str, index: u64, span: Span) {
        if self.sink.is_some() {
            let seconds = (Self::now_ns(self.origin) - span.start_ns) as f64 * 1e-9;
            self.exit_with(name, index, span, seconds);
        }
    }

    /// Close a span with an externally measured duration, so callers that
    /// already time a phase (e.g. for a report) emit the *same* number
    /// into the trace instead of a slightly different second measurement.
    pub fn exit_with(&mut self, name: &'static str, index: u64, span: Span, seconds: f64) {
        let _ = span;
        if let Some(sink) = &mut self.sink {
            sink.record(Event {
                t_ns: Self::now_ns(self.origin),
                kind: EventKind::SpanExit,
                name,
                index,
                value: seconds,
            });
        }
    }

    /// Record an integral fact.
    pub fn counter(&mut self, name: &'static str, index: u64, value: u64) {
        if let Some(sink) = &mut self.sink {
            sink.record(Event {
                t_ns: Self::now_ns(self.origin),
                kind: EventKind::Counter,
                name,
                index,
                value: value as f64,
            });
        }
    }

    /// Record a floating-point observation.
    pub fn metric(&mut self, name: &'static str, index: u64, value: f64) {
        if let Some(sink) = &mut self.sink {
            sink.record(Event {
                t_ns: Self::now_ns(self.origin),
                kind: EventKind::Metric,
                name,
                index,
                value,
            });
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// SplitMix64: the statelessly seedable 64-bit mixer behind every keyed
/// draw of the stack — neighbor samples, sampled mini-batches, n-gram
/// vectors, IO-retry and reload-poll jitter. A draw keyed this way is a
/// pure function of its key, independent of any RNG stream. Stepping a
/// state `s` is `(splitmix64(s), s + 0x9E37_79B9_7F4A_7C15)`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical event names emitted by the GRIMP pipeline. Indices: `epoch`
/// events use the epoch number, `task_*` events the task (column) id.
pub mod names {
    /// Whole training phase (graph + features + epochs), excludes imputation.
    pub const FIT: &str = "fit";
    /// Fit stage 1 (inside [`FIT`]): the admission-time memory governor.
    pub const ADMIT: &str = "admit";
    /// Fit stage 2: normalization, column tiers, corpus, graph, features,
    /// tape, heads and batches.
    pub const BUILD: &str = "build";
    /// Fit stage 3: checkpoint lock and resume, then the epoch loop.
    pub const TRAIN: &str = "train";
    /// Fit stage 4: drift check, tier demotions, final checkpoint.
    pub const FINALIZE: &str = "finalize";
    /// Table-to-graph construction ([`SpanExit` value][crate::EventKind] in seconds).
    pub const GRAPH_BUILD: &str = "graph_build";
    /// Number of graph nodes (counter, emitted after the build span).
    pub const GRAPH_NODES: &str = "graph_nodes";
    /// Number of graph edges across all typed edge sets (counter).
    pub const GRAPH_EDGES: &str = "graph_edges";
    /// Feature-initialization phase (random / hashed-n-gram / EMBDI).
    pub const FEATURE_INIT: &str = "feature_init";
    /// Feature dimensionality (counter).
    pub const FEATURE_DIM: &str = "feature_dim";
    /// Model construction: tape, GNN, merge MLP, task heads.
    pub const MODEL_BUILD: &str = "model_build";
    /// Trainable scalar parameters on the tape (counter).
    pub const N_WEIGHTS: &str = "n_weights";
    /// Per-task batch construction.
    pub const BATCH_BUILD: &str = "batch_build";
    /// One completed training epoch (index = epoch number). Epochs undone
    /// by divergence rollback close with [`EPOCH_ROLLBACK`] instead.
    pub const EPOCH: &str = "epoch";
    /// An epoch attempt that was rolled back by the divergence guard.
    pub const EPOCH_ROLLBACK: &str = "epoch_rollback";
    /// Forward passes of one epoch (training + validation).
    pub const FORWARD: &str = "forward";
    /// Backward pass of one epoch.
    pub const BACKWARD: &str = "backward";
    /// Optimizer step (clipping + Adam) of one epoch.
    pub const OPTIM: &str = "optim";
    /// End-of-epoch tape reset.
    pub const TAPE_RESET: &str = "tape_reset";
    /// Summed training loss of one epoch (metric, index = epoch).
    pub const TRAIN_LOSS: &str = "train_loss";
    /// Summed validation loss of one epoch (metric, index = epoch).
    pub const VAL_LOSS: &str = "val_loss";
    /// One task's training loss (metric, index = task id, once per epoch).
    pub const TASK_LOSS: &str = "task_loss";
    /// Global L2 gradient norm of one epoch (metric, index = epoch).
    pub const GRAD_NORM: &str = "grad_norm";
    /// Tape nodes visited by the backward sweep (counter, index = epoch).
    pub const TAPE_BACKWARD_NODES: &str = "tape_backward_nodes";
    /// Workspace allocation misses of one completed epoch (counter).
    pub const EPOCH_ALLOCS: &str = "epoch_allocs";
    /// Gradient clipping fired (counter, index = epoch, value = 1).
    pub const GRAD_CLIP: &str = "grad_clip";
    /// Divergence anomaly detected (counter, index = epoch, value =
    /// anomaly kind code: 0 loss, 1 gradient, 2 parameter, 3 + column for
    /// a per-column task-loss divergence).
    pub const ANOMALY: &str = "anomaly";
    /// Rollback recovery consumed (counter, value = recoveries so far).
    pub const RECOVERY: &str = "recovery";
    /// Learning rate in effect after a recovery (metric).
    pub const LR: &str = "lr";
    /// Disk checkpoint write (span, index = epoch).
    pub const CHECKPOINT_SAVE: &str = "checkpoint_save";
    /// Serialized checkpoint size (counter, value = bytes).
    pub const CHECKPOINT_BYTES: &str = "checkpoint_bytes";
    /// Training resumed from a disk checkpoint (counter, index = epoch).
    pub const RESUME: &str = "resume";
    /// Non-fatal checkpoint I/O problem (counter; message in the report).
    pub const IO_ERROR: &str = "io_error";
    /// Early stopping fired (counter, index = epoch).
    pub const EARLY_STOP: &str = "early_stop";
    /// Recovery budget exhausted; run degraded to the baseline imputer.
    pub const DEGRADED: &str = "degraded";
    /// Whole imputation/inference phase (span).
    pub const IMPUTE: &str = "impute";
    /// Missing cells filled for one task (counter, index = task id).
    pub const IMPUTED_CELLS: &str = "imputed_cells";
    /// One column demoted down the degradation ladder mid-training
    /// (counter, index = column id, value = epoch of the demotion).
    pub const COLUMN_DEMOTED: &str = "column_demoted";
    /// Final degradation-ladder tier of one column, emitted at the end of
    /// fit (counter, index = column id, value = tier code: 0 gnn,
    /// 1 baseline, 2 constant).
    pub const COLUMN_TIER: &str = "column_tier";
    /// The wall-clock deadline fired and training stopped cleanly
    /// (counter, index = the epoch reached).
    pub const DEADLINE_HIT: &str = "deadline_hit";
    /// A cooperative shutdown request (SIGINT) stopped training at an
    /// epoch boundary (counter, index = the epoch reached).
    pub const INTERRUPTED: &str = "interrupted";
    /// Estimated pre-allocation memory footprint in bytes (counter).
    pub const MEM_ESTIMATE: &str = "mem_estimate";
    /// One admission-time downscale decision taken to fit the memory
    /// budget (counter, index = rung code: 0 value-node cap, 1 hidden
    /// dims, 2 neighbor-sampled mini-batches; value = the resulting cap /
    /// width / batch_rows).
    pub const DOWNSCALE: &str = "downscale";
    /// Mini-batch size of the neighbor-sampled training path, emitted once
    /// at fit setup when sampling is active (counter, value = batch_rows).
    pub const BATCH_ROWS: &str = "batch_rows";
    /// Per-node neighbor fanout cap of the sampled training path, emitted
    /// once at fit setup when sampling is active (counter, value = fanout).
    pub const FANOUT: &str = "fanout";
    /// Directed edges kept by one epoch's neighbor sample (counter,
    /// index = epoch, value = edge count).
    pub const SAMPLED_EDGES: &str = "sampled_edges";
    /// Node rows the GNN's last layer and the merge computed — the cell
    /// nodes the task heads read, plus at most 3 rows aligning the start
    /// (a graph without cell nodes keeps the RID rows of its last 4-row
    /// group) (counter, index = epoch, 0 for an impute; value = row count).
    pub const GNN_ROWS: &str = "gnn_rows";
    /// Checkpointing disabled for the rest of the run after persistent
    /// IO faults (counter, index = epoch).
    pub const CHECKPOINT_DISABLED: &str = "checkpoint_disabled";
    /// Kernel backend selected for the fit (counter, index = backend code:
    /// 0 serial, 1 parallel; value = thread count).
    pub const BACKEND: &str = "backend";
    /// A stale checkpoint-directory lock left by a dead process was
    /// reclaimed (counter, index = the dead holder's PID, 0 when the lock
    /// file was unreadable or unparseable).
    pub const LOCK_RECLAIMED: &str = "lock_reclaimed";
    /// One HTTP request handled by `grimp serve`, accept to response
    /// (span, index = request id).
    pub const REQUEST: &str = "request";
    /// Seconds one request spent queued before a worker picked it up
    /// (metric, index = request id).
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Final status of one request (counter, index = request id,
    /// value = HTTP status code; 0 when the client vanished before a
    /// response could be written).
    pub const REQUEST_OUTCOME: &str = "request_outcome";
    /// A request was shed because the work queue was full (counter,
    /// index = request id).
    pub const REQUEST_SHED: &str = "request_shed";
    /// A request was refused by the memory-admission governor (counter,
    /// index = request id, value = estimated bytes).
    pub const REQUEST_OVER_BUDGET: &str = "request_over_budget";
    /// A deterministic socket fault fired on a connection (counter,
    /// index = request id, value = fault code — see the serve crate).
    pub const SOCKET_FAULT: &str = "socket_fault";
    /// The serving model was hot-reloaded from a rotated checkpoint
    /// (counter, index = generation, value = checkpoint CRC-32).
    pub const MODEL_RELOADED: &str = "model_reloaded";
    /// Graceful drain started: the listener stopped accepting and
    /// in-flight requests are finishing (counter, value = signal number).
    pub const DRAIN_BEGIN: &str = "drain_begin";
    /// Graceful drain finished (counter, value = 1 clean, 0 when the
    /// drain deadline expired with requests still in flight).
    pub const DRAIN_END: &str = "drain_end";
    /// An append WAL segment was published atomically (counter,
    /// index = rows in the segment, value = serialized bytes).
    pub const WAL_WRITE: &str = "wal_write";
    /// A pending WAL segment was replayed on startup/append (counter,
    /// index = rows recovered, value = 1 intact, 0 torn tail dropped).
    pub const WAL_REPLAY: &str = "wal_replay";
    /// The applied WAL segment was rotated to `grimp.wal.applied`
    /// (counter, value = 1).
    pub const WAL_ROTATE: &str = "wal_rotate";
    /// One append-rows operation end to end: WAL write, fine-tune or
    /// refit, impute, rotation (span, index = rows appended).
    pub const APPEND: &str = "append";
    /// A warm-start fine-tune began on the appended delta (counter,
    /// index = base epoch resumed from, value = target epoch).
    pub const FINETUNE: &str = "finetune";
    /// Post-fine-tune drift check: relative validation-loss regression
    /// against the run's best (metric, value = relative regression).
    pub const DRIFT: &str = "drift";
    /// Drift exceeded the configured band; a full refit was scheduled
    /// (counter, index = epoch, value = 1).
    pub const REFIT_SCHEDULED: &str = "refit_scheduled";
    /// One hot-reload watcher poll tick (counter, index = poll count,
    /// value = jittered sleep in milliseconds).
    pub const RELOAD_POLL: &str = "reload_poll";
    /// A worker caught a handler panic: the request was answered `500`
    /// and only its scratch was dropped — the shared served model is
    /// immutable and stays in service (counter, index = request id,
    /// value = 1).
    pub const WORKER_PANIC: &str = "worker_panic";
    /// A replayed `Idempotency-Key` was answered from the journal instead
    /// of re-appending (counter, index = request id, value = 1).
    pub const IDEM_REPLAY: &str = "idem_replay";

    /// Placeholder name a replayed trace event gets when its recorded name
    /// is not in this vocabulary (a trace from a newer build): the event is
    /// kept, counted in [`crate::replay::Replay::unknown_names`], and never
    /// matches any aggregation.
    pub const UNKNOWN: &str = "(unknown)";

    /// Every name in the vocabulary, for interning replayed traces back
    /// into [`crate::Event`]s (whose names are `&'static str`).
    pub const ALL: &[&str] = &[
        FIT,
        ADMIT,
        BUILD,
        TRAIN,
        FINALIZE,
        GRAPH_BUILD,
        GRAPH_NODES,
        GRAPH_EDGES,
        FEATURE_INIT,
        FEATURE_DIM,
        MODEL_BUILD,
        N_WEIGHTS,
        BATCH_BUILD,
        EPOCH,
        EPOCH_ROLLBACK,
        FORWARD,
        BACKWARD,
        OPTIM,
        TAPE_RESET,
        TRAIN_LOSS,
        VAL_LOSS,
        TASK_LOSS,
        GRAD_NORM,
        TAPE_BACKWARD_NODES,
        EPOCH_ALLOCS,
        GRAD_CLIP,
        ANOMALY,
        RECOVERY,
        LR,
        CHECKPOINT_SAVE,
        CHECKPOINT_BYTES,
        RESUME,
        IO_ERROR,
        EARLY_STOP,
        DEGRADED,
        IMPUTE,
        IMPUTED_CELLS,
        COLUMN_DEMOTED,
        COLUMN_TIER,
        DEADLINE_HIT,
        INTERRUPTED,
        MEM_ESTIMATE,
        DOWNSCALE,
        BATCH_ROWS,
        FANOUT,
        SAMPLED_EDGES,
        GNN_ROWS,
        CHECKPOINT_DISABLED,
        BACKEND,
        LOCK_RECLAIMED,
        REQUEST,
        QUEUE_WAIT,
        REQUEST_OUTCOME,
        REQUEST_SHED,
        REQUEST_OVER_BUDGET,
        SOCKET_FAULT,
        MODEL_RELOADED,
        DRAIN_BEGIN,
        DRAIN_END,
        WAL_WRITE,
        WAL_REPLAY,
        WAL_ROTATE,
        APPEND,
        FINETUNE,
        DRIFT,
        REFIT_SCHEDULED,
        RELOAD_POLL,
        WORKER_PANIC,
        IDEM_REPLAY,
    ];

    /// Intern a replayed name against the vocabulary; `None` when unknown.
    pub fn lookup(name: &str) -> Option<&'static str> {
        ALL.iter().find(|n| **n == name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_roundtrip() {
        for kind in [
            EventKind::SpanEnter,
            EventKind::SpanExit,
            EventKind::Counter,
            EventKind::Metric,
        ] {
            assert_eq!(EventKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(EventKind::from_label("nope"), None);
    }

    #[test]
    fn null_sink_is_disabled_and_trace_skips_it() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        let mut trace = Trace::new(&mut sink);
        assert!(!trace.is_enabled());
        let span = trace.enter(names::EPOCH, 0);
        trace.metric(names::TRAIN_LOSS, 0, 1.0);
        trace.counter(names::EPOCH_ALLOCS, 0, 3);
        trace.exit(names::EPOCH, 0, span);
        trace.flush().expect("null flush");
    }

    #[test]
    fn memory_sink_records_spans_counters_and_metrics() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            assert!(trace.is_enabled());
            let span = trace.enter(names::EPOCH, 7);
            trace.metric(names::TRAIN_LOSS, 7, 0.25);
            trace.counter(names::EPOCH_ALLOCS, 7, 42);
            trace.exit(names::EPOCH, 7, span);
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::SpanEnter);
        assert_eq!(events[3].kind, EventKind::SpanExit);
        assert_eq!(events[3].name, names::EPOCH);
        assert_eq!(events[3].index, 7);
        assert!(events[3].value >= 0.0);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(events[1].value, 0.25);
        assert_eq!(events[2].value, 42.0);
    }

    #[test]
    fn exit_with_preserves_the_caller_measurement() {
        let mut sink = MemorySink::new();
        let mut trace = Trace::new(&mut sink);
        let span = trace.enter(names::FORWARD, 0);
        trace.exit_with(names::FORWARD, 0, span, 0.125);
        assert_eq!(sink.events()[1].value, 0.125);
    }

    #[test]
    fn splitmix64_gives_the_reference_outputs() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::disabled();
        let span = trace.enter(names::FIT, 0);
        trace.exit(names::FIT, 0, span);
        assert!(!trace.is_enabled());
    }
}
