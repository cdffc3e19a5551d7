//! Training reports: a thin run summary ([`TrainReport`]) plus per-epoch
//! [`EpochStats`], both derivable from a recorded observability event
//! stream via [`TrainReport::from_events`].
//!
//! Historically `TrainReport` was a grab-bag of parallel per-epoch vectors
//! (`train_losses`, `val_losses`, `grad_norms`, `epoch_allocs`) that grew
//! a field per PR. Those fields are gone: per-epoch data now lives in one
//! `Vec<EpochStats>`, and the old names survive as accessor methods so
//! benches and experiment code keep reading the same numbers.

use std::fmt;

use grimp_obs::{Event, EventKind};

use crate::fault::TrainAnomaly;

/// Which rung of the per-column degradation ladder imputes a column.
///
/// Every column starts at [`ColumnTier::Gnn`]. Pathological columns
/// (all-missing, single distinct value) are demoted before training;
/// a column whose task loss diverges mid-run is demoted without touching
/// its healthy neighbours; exhausting the rollback budget demotes whatever
/// is left. Demotion only ever steps *down* — a column never climbs back
/// up within a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ColumnTier {
    /// Imputed by the column's trained GNN task head.
    #[default]
    Gnn,
    /// Imputed by the column's mode (categorical) or mean (numerical).
    Baseline,
    /// Imputed by a global constant — `"(unknown)"` / `0.0` — because the
    /// column has no observed values to take a mode or mean from.
    Constant,
}

impl ColumnTier {
    /// Stable numeric code used in `column_tier` trace events.
    pub fn code(self) -> u64 {
        match self {
            ColumnTier::Gnn => 0,
            ColumnTier::Baseline => 1,
            ColumnTier::Constant => 2,
        }
    }

    /// Inverse of [`ColumnTier::code`]; unknown codes clamp to `Constant`
    /// (the most conservative tier).
    pub fn from_code(code: u64) -> Self {
        match code {
            0 => ColumnTier::Gnn,
            1 => ColumnTier::Baseline,
            _ => ColumnTier::Constant,
        }
    }

    /// Lowercase label used in traces and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ColumnTier::Gnn => "gnn",
            ColumnTier::Baseline => "baseline",
            ColumnTier::Constant => "constant",
        }
    }
}

impl fmt::Display for ColumnTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which knob the admission-time memory governor turned when the estimated
/// footprint exceeded `memory_budget_mb` (see [`crate::downscale_to_budget`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DownscaleRung {
    /// Capped (or further halved) the distinct-value nodes kept per
    /// attribute column — the cheapest knob, tried first.
    ValueNodeCap,
    /// Halved the GNN hidden width, merge-layer width, and embedding dim
    /// together — only after the value-node cap bottomed out.
    HiddenDims,
    /// Switched training to neighbor-sampled mini-batches (or further
    /// halved `batch_rows`) — the last rung, taken only when the smallest
    /// full-batch shape still exceeds the budget. The run stays exact at
    /// imputation time; only the per-epoch gradient is estimated from a
    /// sample.
    Sample,
}

impl DownscaleRung {
    /// Stable numeric code used in `downscale` trace events.
    pub fn code(self) -> u64 {
        match self {
            DownscaleRung::ValueNodeCap => 0,
            DownscaleRung::HiddenDims => 1,
            DownscaleRung::Sample => 2,
        }
    }

    /// Inverse of [`DownscaleRung::code`]; unknown codes clamp to
    /// `Sample` (the most drastic rung).
    pub fn from_code(code: u64) -> Self {
        match code {
            0 => DownscaleRung::ValueNodeCap,
            1 => DownscaleRung::HiddenDims,
            _ => DownscaleRung::Sample,
        }
    }

    /// Lowercase label used in traces and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            DownscaleRung::ValueNodeCap => "value_node_cap",
            DownscaleRung::HiddenDims => "hidden_dims",
            DownscaleRung::Sample => "sample",
        }
    }
}

impl fmt::Display for DownscaleRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One admission-time downscale step taken to fit the memory budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DownscaleDecision {
    /// Which knob was turned.
    pub rung: DownscaleRung,
    /// The value the knob was set to (the new per-column value-node cap,
    /// the new GNN hidden width, or the new sampler `batch_rows`).
    pub value: u64,
}

impl fmt::Display for DownscaleDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.rung, self.value)
    }
}

/// Everything measured about one *completed* training epoch. Epoch
/// attempts undone by the divergence guard's rollback are not recorded
/// here (their time still counts in the [`TrainReport`] phase totals).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// Epoch number (resumes continue the count from the checkpoint).
    pub epoch: usize,
    /// Summed training loss over all tasks.
    pub train_loss: f32,
    /// Summed validation loss over all tasks.
    pub val_loss: f32,
    /// Global L2 gradient norm before clipping.
    pub grad_norm: f64,
    /// Workspace allocation misses during the epoch. With the optimized
    /// hot path every epoch after the first reports 0.
    pub allocs: u64,
    /// Wall-clock seconds of the whole epoch.
    pub seconds: f64,
    /// Seconds in the forward passes (training + validation).
    pub forward_s: f64,
    /// Seconds in the backward pass.
    pub backward_s: f64,
    /// Seconds in the optimizer step plus tape reset.
    pub optim_s: f64,
    /// Directed edges kept by the epoch's neighbor sample (0 when training
    /// full-batch — the sampler is off and every edge participates).
    pub sampled_edges: u64,
}

/// Outcome of one training run: a run summary plus per-epoch stats.
///
/// The report is equivalently computable from a recorded event stream —
/// [`TrainReport::from_events`] on the events of a run reproduces the
/// aggregate fields bit-for-bit (free-text payloads such as I/O error
/// messages carry placeholders, since events hold no strings).
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Epochs actually executed (in this process — excludes epochs replayed
    /// from a resumed checkpoint).
    pub epochs_run: usize,
    /// Per-epoch statistics for every completed epoch, in order.
    pub epochs: Vec<EpochStats>,
    /// Whether early stopping fired before `max_epochs`.
    pub early_stopped: bool,
    /// Wall-clock seconds of the fit (or restore) that produced the model;
    /// [`Grimp::fit_impute`](crate::Grimp::fit_impute) adds its one
    /// imputation pass.
    pub seconds: f64,
    /// Seconds in forward passes, including rolled-back epoch attempts.
    pub forward_s: f64,
    /// Seconds in backward passes, including rolled-back epoch attempts.
    pub backward_s: f64,
    /// Seconds in optimizer steps plus tape resets, including rolled-back
    /// epoch attempts.
    pub optim_s: f64,
    /// Scalar parameters actually allocated on the tape.
    pub n_weights: usize,
    /// Number of epochs on which gradient clipping rescaled the gradients.
    pub clip_activations: usize,
    /// Divergences detected by the per-epoch guard, in detection order.
    pub anomalies: Vec<TrainAnomaly>,
    /// Rollback recoveries consumed by this run.
    pub recoveries: usize,
    /// Serialized size of the final training checkpoint, in bytes.
    pub checkpoint_bytes: usize,
    /// Whether the run exhausted `max_recoveries` and fell back to the
    /// mode/mean baseline imputer.
    pub degraded_to_baseline: bool,
    /// Final degradation-ladder tier of every column, in schema order.
    pub column_tiers: Vec<ColumnTier>,
    /// Epoch count restored from a disk checkpoint, when resuming.
    pub resumed_from_epoch: Option<usize>,
    /// Non-fatal checkpoint I/O problems (failed resume or write). Training
    /// continues; the messages are surfaced here for observability.
    pub io_errors: Vec<String>,
    /// Whether training stopped because the wall-clock deadline
    /// (`deadline_secs`) expired before `max_epochs`/`patience` did.
    pub deadline_hit: bool,
    /// Whether training stopped because a shutdown (Ctrl-C) was requested.
    pub interrupted: bool,
    /// The epoch count at which a deadline or interrupt stopped training
    /// (equals the number of epochs whose results were kept).
    pub stopped_at_epoch: Option<usize>,
    /// Admission-time memory-governor decisions, in the order taken.
    /// Empty when the estimated footprint fit `memory_budget_mb` (or no
    /// budget was set).
    pub downscales: Vec<DownscaleDecision>,
    /// Whether checkpoint writing was disabled mid-run after repeated
    /// persistent I/O failures (training continued checkpoint-less).
    pub checkpoints_disabled: bool,
    /// Thread count of the kernel backend the fit ran on (1 for the serial
    /// backend; results are bit-identical across backends by contract).
    pub backend_threads: usize,
    /// Stale checkpoint-directory locks (left by dead processes) reclaimed
    /// while acquiring the directory for this fit.
    pub locks_reclaimed: usize,
    /// Torn (partial) trailing trace lines skipped while replaying a JSONL
    /// trace (see [`TrainReport::from_jsonl`]) — a crash mid-write leaves
    /// exactly one behind. Always 0 for live reports.
    pub torn_trace_lines: usize,
    /// `batch_rows` of the neighbor sampler the run trained with, whether
    /// user-configured or applied by the memory governor's sampling rung.
    /// `None` for full-batch runs.
    pub sampler_batch_rows: Option<usize>,
    /// `fanout` of the neighbor sampler, when sampling was active.
    pub sampler_fanout: Option<usize>,
    /// Relative validation-loss regression measured by the post-fine-tune
    /// drift check (`(last - best) / best`). `None` when no drift check
    /// ran (plain fits, refits).
    pub drift: Option<f64>,
    /// Whether the drift check found the regression beyond the configured
    /// `drift_band`, scheduling a full refit for the next append.
    pub refit_scheduled: bool,
}

impl TrainReport {
    /// Number of anomalies the divergence guard detected.
    pub fn anomalies_detected(&self) -> usize {
        self.anomalies.len()
    }

    /// Per-epoch summed training loss (accessor over [`TrainReport::epochs`];
    /// replaces the former `train_losses` field).
    pub fn train_losses(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.train_loss).collect()
    }

    /// Per-epoch summed validation loss (replaces the former `val_losses`
    /// field).
    pub fn val_losses(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.val_loss).collect()
    }

    /// Global L2 gradient norm per completed epoch (replaces the former
    /// `grad_norms` field).
    pub fn grad_norms(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.grad_norm).collect()
    }

    /// Per-epoch workspace allocation counts (replaces the former
    /// `epoch_allocs` field). With the optimized hot path every entry after
    /// the first is 0.
    pub fn epoch_allocs(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.allocs).collect()
    }

    /// Append the stats of one completed epoch and bump `epochs_run`.
    pub fn push_epoch(&mut self, stats: EpochStats) {
        self.epochs.push(stats);
        self.epochs_run += 1;
    }

    /// Reconstruct a report from a JSONL trace file's text, tolerating the
    /// torn trailing line a crash mid-write leaves behind: the partial
    /// record is skipped and counted in
    /// [`torn_trace_lines`](TrainReport::torn_trace_lines) instead of
    /// failing the replay.
    ///
    /// # Errors
    /// [`grimp_obs::ReplayError`] on a malformed line *before* the trailing
    /// one — that is corruption, not a torn write.
    pub fn from_jsonl(text: &str) -> Result<TrainReport, grimp_obs::ReplayError> {
        let replay = grimp_obs::read_jsonl(text)?;
        let mut report = TrainReport::from_events(&replay.events);
        report.torn_trace_lines = replay.torn_lines;
        Ok(report)
    }

    /// Reconstruct a report from a recorded event stream (see
    /// [`grimp_obs::names`] for the event vocabulary).
    ///
    /// The scan mirrors the emission protocol of the training loop:
    /// forward/backward/optim span exits accumulate into both the run
    /// totals and a pending-attempt buffer; an `epoch` span exit commits
    /// the pending attempt as a completed [`EpochStats`]; an
    /// `epoch_rollback` span exit discards it. Aggregates come out
    /// bit-identical to the live report because the trace carries the very
    /// same measured values, summed in the same order. String payloads
    /// (I/O error messages, anomaly loss values) are not recorded in
    /// events, so those fields hold placeholders.
    pub fn from_events(events: &[Event]) -> TrainReport {
        use grimp_obs::names;

        let mut report = TrainReport::default();
        let mut pending = EpochStats::default();
        let mut att_forward = 0.0f64;
        let mut att_backward = 0.0f64;
        let mut att_optim = 0.0f64;
        for e in events {
            match (e.kind, e.name) {
                (EventKind::SpanExit, names::FORWARD) => {
                    report.forward_s += e.value;
                    att_forward += e.value;
                }
                (EventKind::SpanExit, names::BACKWARD) => {
                    report.backward_s += e.value;
                    att_backward += e.value;
                }
                (EventKind::SpanExit, names::OPTIM) | (EventKind::SpanExit, names::TAPE_RESET) => {
                    report.optim_s += e.value;
                    att_optim += e.value;
                }
                (EventKind::Metric, names::TRAIN_LOSS) => pending.train_loss = e.value as f32,
                (EventKind::Metric, names::VAL_LOSS) => pending.val_loss = e.value as f32,
                (EventKind::Metric, names::GRAD_NORM) => pending.grad_norm = e.value,
                (EventKind::Counter, names::EPOCH_ALLOCS) => pending.allocs = e.value as u64,
                (EventKind::Counter, names::SAMPLED_EDGES) => {
                    pending.sampled_edges = e.value as u64
                }
                (EventKind::Counter, names::BATCH_ROWS) => {
                    report.sampler_batch_rows = Some(e.value as usize)
                }
                (EventKind::Counter, names::FANOUT) => {
                    report.sampler_fanout = Some(e.value as usize)
                }
                (EventKind::SpanExit, names::EPOCH) => {
                    pending.epoch = e.index as usize;
                    pending.seconds = e.value;
                    pending.forward_s = att_forward;
                    pending.backward_s = att_backward;
                    pending.optim_s = att_optim;
                    report.push_epoch(pending);
                    pending = EpochStats::default();
                    (att_forward, att_backward, att_optim) = (0.0, 0.0, 0.0);
                }
                (EventKind::SpanExit, names::EPOCH_ROLLBACK) => {
                    pending = EpochStats::default();
                    (att_forward, att_backward, att_optim) = (0.0, 0.0, 0.0);
                }
                (EventKind::Counter, names::ANOMALY) => {
                    let epoch = e.index as usize;
                    // Codes 0..=2 are the run-level anomalies; 3 + column
                    // encodes a per-column task-loss divergence.
                    report.anomalies.push(match e.value as u64 {
                        0 => TrainAnomaly::NonFiniteLoss {
                            epoch,
                            train: f32::NAN,
                            val: f32::NAN,
                        },
                        1 => TrainAnomaly::NonFiniteGradient {
                            epoch,
                            norm: f64::NAN,
                        },
                        2 => TrainAnomaly::NonFiniteParameter { epoch },
                        code => TrainAnomaly::NonFiniteTaskLoss {
                            epoch,
                            column: (code - 3) as usize,
                        },
                    });
                }
                (EventKind::Counter, names::COLUMN_TIER) => {
                    let column = e.index as usize;
                    if report.column_tiers.len() <= column {
                        report.column_tiers.resize(column + 1, ColumnTier::Gnn);
                    }
                    report.column_tiers[column] = ColumnTier::from_code(e.value as u64);
                }
                (EventKind::Counter, names::RECOVERY) => report.recoveries = e.value as usize,
                (EventKind::Counter, names::GRAD_CLIP) => report.clip_activations += 1,
                (EventKind::Counter, names::N_WEIGHTS) => report.n_weights = e.value as usize,
                (EventKind::Counter, names::CHECKPOINT_BYTES) => {
                    report.checkpoint_bytes = e.value as usize
                }
                (EventKind::Counter, names::RESUME) => {
                    report.resumed_from_epoch = Some(e.index as usize)
                }
                (EventKind::Counter, names::IO_ERROR) => report
                    .io_errors
                    .push("io error (message in the live report only)".to_string()),
                (EventKind::Counter, names::EARLY_STOP) => report.early_stopped = true,
                (EventKind::Counter, names::DEGRADED) => report.degraded_to_baseline = true,
                (EventKind::Counter, names::DEADLINE_HIT) => {
                    report.deadline_hit = true;
                    report.stopped_at_epoch = Some(e.index as usize);
                }
                (EventKind::Counter, names::INTERRUPTED) => {
                    report.interrupted = true;
                    report.stopped_at_epoch = Some(e.index as usize);
                }
                (EventKind::Counter, names::DOWNSCALE) => {
                    report.downscales.push(DownscaleDecision {
                        rung: DownscaleRung::from_code(e.index),
                        value: e.value as u64,
                    });
                }
                (EventKind::Counter, names::CHECKPOINT_DISABLED) => {
                    report.checkpoints_disabled = true;
                }
                (EventKind::Counter, names::BACKEND) => {
                    report.backend_threads = e.value as usize;
                }
                (EventKind::Counter, names::LOCK_RECLAIMED) => {
                    report.locks_reclaimed += 1;
                }
                (EventKind::Metric, names::DRIFT) => report.drift = Some(e.value),
                (EventKind::Counter, names::REFIT_SCHEDULED) => {
                    report.refit_scheduled = true;
                }
                (EventKind::SpanExit, names::FIT) => report.seconds += e.value,
                _ => {}
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_obs::{names, MemorySink, Trace};

    #[test]
    fn accessors_project_the_epoch_stats() {
        let mut report = TrainReport::default();
        report.push_epoch(EpochStats {
            epoch: 0,
            train_loss: 2.0,
            val_loss: 1.5,
            grad_norm: 0.25,
            allocs: 100,
            ..Default::default()
        });
        report.push_epoch(EpochStats {
            epoch: 1,
            train_loss: 1.0,
            val_loss: 0.75,
            grad_norm: 0.125,
            allocs: 0,
            ..Default::default()
        });
        assert_eq!(report.epochs_run, 2);
        assert_eq!(report.train_losses(), vec![2.0, 1.0]);
        assert_eq!(report.val_losses(), vec![1.5, 0.75]);
        assert_eq!(report.grad_norms(), vec![0.25, 0.125]);
        assert_eq!(report.epoch_allocs(), vec![100, 0]);
    }

    #[test]
    fn from_events_reconstructs_epochs_and_discards_rollbacks() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            let fit = trace.enter(names::FIT, 0);
            trace.counter(names::N_WEIGHTS, 0, 500);

            // A rolled-back attempt at epoch 0.
            let ep = trace.enter(names::EPOCH, 0);
            let f = trace.enter(names::FORWARD, 0);
            trace.exit_with(names::FORWARD, 0, f, 0.5);
            let r = trace.enter(names::TAPE_RESET, 0);
            trace.exit_with(names::TAPE_RESET, 0, r, 0.01);
            trace.counter(names::ANOMALY, 0, 0);
            trace.counter(names::RECOVERY, 0, 1);
            trace.exit_with(names::EPOCH_ROLLBACK, 0, ep, 0.6);

            // A completed retry of epoch 0.
            let ep = trace.enter(names::EPOCH, 0);
            let f = trace.enter(names::FORWARD, 0);
            trace.exit_with(names::FORWARD, 0, f, 0.25);
            let b = trace.enter(names::BACKWARD, 0);
            trace.exit_with(names::BACKWARD, 0, b, 0.125);
            let o = trace.enter(names::OPTIM, 0);
            trace.exit_with(names::OPTIM, 0, o, 0.0625);
            let r = trace.enter(names::TAPE_RESET, 0);
            trace.exit_with(names::TAPE_RESET, 0, r, 0.03125);
            trace.metric(names::TRAIN_LOSS, 0, 2.5);
            trace.metric(names::VAL_LOSS, 0, 1.25);
            trace.metric(names::GRAD_NORM, 0, 0.5);
            trace.counter(names::EPOCH_ALLOCS, 0, 7);
            trace.exit_with(names::EPOCH, 0, ep, 0.5);

            trace.counter(names::EARLY_STOP, 1, 1);
            trace.counter(names::CHECKPOINT_BYTES, 0, 4096);
            trace.exit_with(names::FIT, 0, fit, 2.0);
            let imp = trace.enter(names::IMPUTE, 0);
            trace.exit_with(names::IMPUTE, 0, imp, 0.25);
        }
        let report = TrainReport::from_events(sink.events());
        assert_eq!(report.epochs_run, 1);
        assert_eq!(report.epochs.len(), 1);
        let e = report.epochs[0];
        assert_eq!(e.epoch, 0);
        assert_eq!(e.train_loss, 2.5);
        assert_eq!(e.val_loss, 1.25);
        assert_eq!(e.grad_norm, 0.5);
        assert_eq!(e.allocs, 7);
        assert_eq!(e.seconds, 0.5);
        assert_eq!(e.forward_s, 0.25, "rollback forward time not attributed");
        assert_eq!(e.backward_s, 0.125);
        assert_eq!(e.optim_s, 0.0625 + 0.03125);
        // Run totals DO include the rolled-back attempt.
        assert_eq!(report.forward_s, 0.5 + 0.25);
        assert_eq!(report.optim_s, 0.01 + 0.0625 + 0.03125);
        assert_eq!(report.anomalies_detected(), 1);
        assert!(matches!(
            report.anomalies[0],
            TrainAnomaly::NonFiniteLoss { epoch: 0, .. }
        ));
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.n_weights, 500);
        assert_eq!(report.checkpoint_bytes, 4096);
        assert!(report.early_stopped);
        assert_eq!(report.seconds, 2.0, "the fit span alone, not the impute");
        assert!(!report.degraded_to_baseline);
        assert!(report.resumed_from_epoch.is_none());
        assert!(!report.deadline_hit);
        assert!(!report.interrupted);
        assert!(report.stopped_at_epoch.is_none());
        assert!(report.downscales.is_empty());
        assert!(!report.checkpoints_disabled);
    }

    #[test]
    fn from_events_replays_the_governance_counters() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::MEM_ESTIMATE, 0, 1 << 20);
            trace.counter(names::DOWNSCALE, 0, 128); // cap -> 128
            trace.counter(names::DOWNSCALE, 1, 16); // hidden -> 16
            trace.counter(names::CHECKPOINT_DISABLED, 2, 1);
            trace.counter(names::DEADLINE_HIT, 3, 1);
        }
        let report = TrainReport::from_events(sink.events());
        assert!(report.deadline_hit);
        assert!(!report.interrupted);
        assert_eq!(report.stopped_at_epoch, Some(3));
        assert!(report.checkpoints_disabled);
        assert_eq!(
            report.downscales,
            vec![
                DownscaleDecision {
                    rung: DownscaleRung::ValueNodeCap,
                    value: 128,
                },
                DownscaleDecision {
                    rung: DownscaleRung::HiddenDims,
                    value: 16,
                },
            ]
        );
        assert_eq!(report.downscales[0].to_string(), "value_node_cap -> 128");
    }

    #[test]
    fn from_events_replays_backend_and_lock_provenance() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::BACKEND, 1, 4); // parallel, 4 threads
            trace.counter(names::LOCK_RECLAIMED, 12345, 1);
        }
        let report = TrainReport::from_events(sink.events());
        assert_eq!(report.backend_threads, 4);
        assert_eq!(report.locks_reclaimed, 1);

        let fresh = TrainReport::default();
        assert_eq!(fresh.backend_threads, 0);
        assert_eq!(fresh.locks_reclaimed, 0);
    }

    #[test]
    fn from_jsonl_tolerates_a_torn_trailing_line() {
        // Record a two-epoch trace, then simulate a crash mid-write by
        // cutting the final line short: the committed epochs must replay
        // and the partial record must be skipped with a warning counter,
        // not an error.
        let mut sink = grimp_obs::JsonlSink::new(Vec::new());
        {
            let mut trace = Trace::new(&mut sink);
            for epoch in 0..2u64 {
                let span = trace.enter(names::EPOCH, epoch);
                trace.metric(names::TRAIN_LOSS, epoch, 1.0 / (epoch + 1) as f64);
                trace.metric(names::VAL_LOSS, epoch, 2.0);
                trace.exit_with(names::EPOCH, epoch, span, 0.25);
            }
            trace.counter(names::N_WEIGHTS, 0, 500);
        }
        let text = String::from_utf8(sink.into_inner().expect("no io errors")).expect("utf8 trace");

        let clean = TrainReport::from_jsonl(&text).expect("clean trace replays");
        assert_eq!(clean.epochs_run, 2);
        assert_eq!(clean.torn_trace_lines, 0);
        assert_eq!(clean.n_weights, 500);

        let mut torn = text.clone();
        torn.truncate(torn.len() - 15);
        let report = TrainReport::from_jsonl(&torn).expect("torn tail tolerated");
        assert_eq!(report.torn_trace_lines, 1);
        assert_eq!(report.epochs_run, 2, "committed epochs survive the tear");
        assert_eq!(report.n_weights, 0, "the torn record is skipped");

        // Corruption *before* the tail stays a hard error.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"t\":9,\"kind\":\"metr";
        assert!(TrainReport::from_jsonl(&lines.join("\n")).is_err());
    }

    #[test]
    fn downscale_rung_codes_round_trip() {
        for rung in [
            DownscaleRung::ValueNodeCap,
            DownscaleRung::HiddenDims,
            DownscaleRung::Sample,
        ] {
            assert_eq!(DownscaleRung::from_code(rung.code()), rung);
        }
        assert_eq!(DownscaleRung::from_code(99), DownscaleRung::Sample);
    }

    #[test]
    fn from_events_replays_the_sampler_counters() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::BATCH_ROWS, 0, 2048);
            trace.counter(names::FANOUT, 0, 8);
            trace.counter(names::DOWNSCALE, 2, 2048); // sample -> 2048
            for epoch in 0..2u64 {
                let span = trace.enter(names::EPOCH, epoch);
                trace.counter(names::SAMPLED_EDGES, epoch, 100 + epoch);
                trace.exit_with(names::EPOCH, epoch, span, 0.25);
            }
        }
        let report = TrainReport::from_events(sink.events());
        assert_eq!(report.sampler_batch_rows, Some(2048));
        assert_eq!(report.sampler_fanout, Some(8));
        assert_eq!(report.epochs[0].sampled_edges, 100);
        assert_eq!(report.epochs[1].sampled_edges, 101);
        assert_eq!(
            report.downscales,
            vec![DownscaleDecision {
                rung: DownscaleRung::Sample,
                value: 2048,
            }]
        );
        assert_eq!(report.downscales[0].to_string(), "sample -> 2048");

        let fresh = TrainReport::default();
        assert!(fresh.sampler_batch_rows.is_none());
        assert!(fresh.sampler_fanout.is_none());
    }

    #[test]
    fn from_events_replays_the_drift_check() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            trace.metric(names::DRIFT, 4, 0.5);
            trace.counter(names::REFIT_SCHEDULED, 4, 1);
        }
        let report = TrainReport::from_events(sink.events());
        assert_eq!(report.drift, Some(0.5));
        assert!(report.refit_scheduled);

        let fresh = TrainReport::default();
        assert!(fresh.drift.is_none());
        assert!(!fresh.refit_scheduled);
    }

    #[test]
    fn interrupted_counter_records_the_stop_epoch() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::new(&mut sink);
            trace.counter(names::INTERRUPTED, 5, 1);
        }
        let report = TrainReport::from_events(sink.events());
        assert!(report.interrupted);
        assert!(!report.deadline_hit);
        assert_eq!(report.stopped_at_epoch, Some(5));
    }
}
