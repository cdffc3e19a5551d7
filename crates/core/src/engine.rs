//! The training engine: the one epoch loop behind GRIMP, the GNN-MC
//! ablation ([`crate::GnnMc`]) and the FedAvg prototype
//! ([`crate::FederatedGrimp`]).
//!
//! A GRIMP fit runs four stages, each a function with its own span inside
//! [`names::FIT`]:
//!
//! 1. **admit** ([`admit`], [`names::ADMIT`]) — the memory governor walks
//!    the downscale ladder before anything is allocated;
//! 2. **build** ([`names::BUILD`]) — normalization, column tiers, corpus,
//!    graph, features, tape, heads and batches ([`build_encoder`] is the
//!    part every model shares; the heads are each model's own);
//! 3. **train** ([`train`], [`names::TRAIN`]) — the epoch loop of this
//!    module, the only place that runs backward passes and optimizer steps;
//! 4. **finalize** ([`names::FINALIZE`]) — drift check, tier demotions,
//!    the final checkpoint and the fitted model.
//!
//! The train stage owns everything generic about training: the deadline
//! and shutdown checks, the divergence guard with rollback and learning-rate
//! halving, gradient clipping, best-parameter snapshots, early stopping,
//! checkpoint rotation and resume, and per-epoch stats and trace events. A
//! model supplies only an [`Objective`]: a loss hook (forward pass →
//! training-loss nodes plus the validation total) and a before-epoch hook
//! (the sampled-mode refill).

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grimp_gnn::HeteroSage;
use grimp_graph::{build_features, fasttext_features, FeatureSource, NodeFeatures, TableGraph};
use grimp_obs::{names, FaultFs, GrimpFs, RealFs, Trace};
use grimp_table::{Corpus, Normalizer, Table};
use grimp_tensor::{Adam, AdamState, Mlp, Tape, Tensor, Var};

use crate::checkpoint::{TrainCheckpoint, CHECKPOINT_FILE, CHECKPOINT_PREV_FILE};
use crate::config::GrimpConfig;
use crate::error::GrimpError;
use crate::fault::TrainAnomaly;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{FaultKind, FaultPlan};
use crate::governor::{downscale_to_budget, estimate_footprint, DirLock};
use crate::report::{DownscaleDecision, EpochStats, TrainReport};

/// Resumable cursor of the training loop: everything a checkpoint must
/// capture, beyond tensors, to continue bit-exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainState {
    /// Completed epochs.
    pub epoch: usize,
    /// Learning rate in effect (halved by each divergence recovery).
    pub lr: f32,
    /// Best validation loss seen so far (`+inf` before the first epoch).
    pub best_val: f32,
    /// Epochs since `best_val` last improved (early-stopping counter).
    pub since_best: usize,
    /// Divergence recoveries consumed so far.
    pub recoveries: usize,
}

impl TrainState {
    /// Fresh state at epoch 0 with the configured learning rate.
    pub fn new(lr: f32) -> Self {
        TrainState {
            epoch: 0,
            lr,
            best_val: f32::INFINITY,
            since_best: 0,
            recoveries: 0,
        }
    }
}

/// In-memory rollback point: the training state plus parameter and
/// optimizer tensors as of the last good epoch. Buffers are reused across
/// epochs, so re-capturing allocates nothing in steady state.
struct Snapshot {
    state: TrainState,
    params: Vec<Tensor>,
    adam: AdamState,
}

/// What a model plugs into the train stage.
pub(crate) trait Objective {
    /// Before-epoch hook, run inside the epoch span ahead of the forward
    /// pass (sampled mode re-draws its adjacency and mini-batches here).
    /// Returns the epoch's sampled-edge count (0 when not sampling).
    fn before_epoch(&mut self, _epoch: u64, _trace: &mut Trace<'_>) -> u64 {
        0
    }

    /// Loss hook: the forward pass. Pushes the training-loss nodes onto
    /// `losses` (the engine sums and back-propagates them) and returns the
    /// validation total. A hook may drop a diverged task from the objective
    /// instead of pushing it, recording the anomaly in `anomalies`.
    fn losses(
        &mut self,
        tape: &mut Tape,
        epoch: usize,
        trace: &mut Trace<'_>,
        anomalies: &mut Vec<TrainAnomaly>,
        losses: &mut Vec<Var>,
    ) -> f32;
}

/// Products of the admit stage.
pub(crate) struct Admitted {
    /// The configuration after any admission-time downscale.
    pub cfg: GrimpConfig,
    /// Every downscale decision taken, in ladder order.
    pub downscales: Vec<DownscaleDecision>,
}

/// Stage 1, admit: estimate the graph + tape footprint before anything is
/// allocated, and when it exceeds the memory budget walk the downscale
/// ladder (value-node cap, then hidden dims) instead of OOM-ing mid-fit.
/// Every decision lands in the report and the trace.
pub(crate) fn admit(config: &GrimpConfig, dirty: &Table, trace: &mut Trace<'_>) -> Admitted {
    let span = trace.enter(names::ADMIT, 0);
    let mut admitted = Admitted {
        cfg: config.clone(),
        downscales: Vec::new(),
    };
    if let Some(budget_mb) = config.memory_budget_mb {
        let estimate = estimate_footprint(dirty, config);
        trace.counter(names::MEM_ESTIMATE, 0, estimate.total_bytes());
        let (downsized, decisions) = downscale_to_budget(config, dirty, budget_mb);
        for d in &decisions {
            trace.counter(names::DOWNSCALE, d.rung.code(), d.value);
        }
        admitted = Admitted {
            cfg: downsized,
            downscales: decisions,
        };
    }
    trace.exit(names::ADMIT, 0, span);
    admitted
}

/// The part of the build stage every model shares: the normalized table,
/// its self-supervised corpus, the graph without validation edges, and the
/// shared layer and node features registered on the model's tape.
pub(crate) struct Encoder {
    pub normalizer: Normalizer,
    /// Normalized copy of the table.
    pub norm: Table,
    pub corpus: Corpus,
    pub graph: TableGraph,
    pub gnn: HeteroSage,
    pub merge: Mlp,
    /// The node features, registered once before the tape was frozen.
    pub x: Var,
    /// Seed of the inductive FastText features (None for other sources).
    pub ft_seed: Option<u64>,
    /// Number of trainable scalars on the tape.
    pub n_weights: usize,
    /// The build's RNG stream, as the heads left it.
    pub rng: StdRng,
}

/// Build the [`Encoder`] of `table` and its frozen tape, registering the
/// caller's heads right after the shared layer: `heads` sees the normalized
/// table, the graph and the features, and runs inside the model-build span
/// before the features are registered and the tape frozen.
///
/// `prune` edits the corpus before the validation cells are cut out of the
/// graph.
pub(crate) fn build_encoder<H>(
    cfg: &GrimpConfig,
    normalizer: Normalizer,
    table: &Table,
    prune: impl FnOnce(&mut Corpus),
    trace: &mut Trace<'_>,
    heads: impl FnOnce(&mut Tape, &Table, &TableGraph, &NodeFeatures, &mut StdRng) -> H,
) -> (Encoder, Tape, H) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Normalize numericals (paper §3.2); labels and the graph use the
    // normalized copy, outputs are de-normalized at the end.
    let mut norm = table.clone();
    normalizer.apply(&mut norm);

    // Training corpus and validation holdout (§3.3, §3.6).
    let mut corpus = Corpus::build(&norm, cfg.validation_fraction, &mut rng);
    prune(&mut corpus);
    let excluded: Vec<(usize, usize)> = corpus
        .validation_flat()
        .map(|s| (s.row, s.target_col))
        .collect();

    // Graph without validation edges (§3.6) — test cells are already ∅.
    let graph = TableGraph::build_traced(&norm, cfg.graph, &excluded, trace);

    // Feature init. The FastText arm captures its seed so the fitted model
    // can recompute identical features on unseen tables; drawing exactly
    // one u64 keeps the RNG stream identical to `build_features`.
    let feat_span = trace.enter(names::FEATURE_INIT, 0);
    let (mut features, ft_seed) = match cfg.features {
        FeatureSource::FastText => {
            let seed: u64 = rng.gen();
            (fasttext_features(&graph, cfg.feature_dim, seed), Some(seed))
        }
        source => (
            build_features(&graph, &norm, source, cfg.feature_dim, &cfg.embdi, &mut rng),
            None,
        ),
    };
    trace.counter(names::FEATURE_DIM, 0, features.dim as u64);
    trace.exit(names::FEATURE_INIT, 0, feat_span);

    // Shared layer: HeteroGNN + two-linear-layer merge (§3.5), then the
    // caller's heads, then the features as a persistent input that
    // survives every tape reset.
    let model_span = trace.enter(names::MODEL_BUILD, 0);
    let mut tape = Tape::new();
    tape.set_backend(cfg.backend);
    trace.counter(
        names::BACKEND,
        cfg.backend.code(),
        cfg.backend.threads() as u64,
    );
    let gnn = HeteroSage::new(&mut tape, &graph, cfg.feature_dim, cfg.gnn, &mut rng);
    let merge = Mlp::new(
        &mut tape,
        &[cfg.gnn.hidden, cfg.merge_hidden, cfg.embed_dim],
        &mut rng,
    );
    let heads = heads(&mut tape, &norm, &graph, &features, &mut rng);
    let node_matrix = std::mem::take(&mut features.node_matrix);
    let x = tape.input(Tensor::from_vec(
        graph.n_nodes(),
        cfg.feature_dim,
        node_matrix,
    ));
    tape.freeze();
    let n_weights = tape.total_param_elems();
    trace.counter(names::N_WEIGHTS, 0, n_weights as u64);
    trace.exit(names::MODEL_BUILD, 0, model_span);

    let encoder = Encoder {
        normalizer,
        norm,
        corpus,
        graph,
        gnn,
        merge,
        x,
        ft_seed,
        n_weights,
        rng,
    };
    (encoder, tape, heads)
}

/// Consecutive checkpoint-write failures after which the run stops trying
/// (training continues checkpoint-less, with a `checkpoint_disabled` event).
const CHECKPOINT_MAX_STRIKES: usize = 2;

/// The train stage's state: optimizer, loop cursor, best parameters,
/// report, and the checkpoint directory (locked for the trainer's
/// lifetime). A caller may call [`Trainer::run`] repeatedly — FedAvg runs
/// each party's trainer for a few epochs per round.
pub(crate) struct Trainer {
    pub adam: Adam,
    pub state: TrainState,
    /// State of the build's RNG stream. Training draws nothing from it
    /// (every per-epoch draw is keyed), so it is only recorded in, and
    /// restored from, checkpoints.
    pub rng: [u64; 4],
    /// Parameters of the best validation epoch (imputation runs from them).
    pub best_params: Option<Vec<Tensor>>,
    pub report: TrainReport,
    /// All checkpoint-path IO goes through this handle so faults can be
    /// injected deterministically (`GrimpConfig::io_fault`).
    ckfs: Box<dyn GrimpFs>,
    ckpt_path: Option<PathBuf>,
    _dir_lock: Option<DirLock>,
    /// Persistent checkpoint-write failures disable checkpointing for the
    /// rest of the run (training continues checkpoint-less) instead of
    /// hammering a dead disk every epoch. Transient faults are already
    /// retried inside `save_with` and reset the strike counter on success.
    strikes: usize,
    #[cfg(any(test, feature = "fault-injection"))]
    injected: usize,
}

impl Trainer {
    /// Set up the train stage: lock the checkpoint directory and, when
    /// asked to, resume from its checkpoint.
    ///
    /// # Errors
    /// [`GrimpError::LockHeld`] when a live run holds the directory lock.
    pub fn new(
        cfg: &GrimpConfig,
        tape: &mut Tape,
        rng: [u64; 4],
        report: TrainReport,
        fit_start: Instant,
        trace: &mut Trace<'_>,
    ) -> Result<Trainer, GrimpError> {
        let mut trainer = Trainer {
            adam: Adam::new(cfg.lr),
            state: TrainState::new(cfg.lr),
            rng,
            best_params: None,
            report,
            ckfs: match cfg.io_fault {
                Some(plan) => Box::new(FaultFs::new(plan)),
                None => Box::new(RealFs),
            },
            ckpt_path: cfg.checkpoint_dir.as_ref().map(|d| d.join(CHECKPOINT_FILE)),
            _dir_lock: None,
            strikes: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            injected: 0,
        };
        if let Some(dir) = &cfg.checkpoint_dir {
            trainer.lock(dir, cfg.deadline_secs, fit_start, trace)?;
            if cfg.resume {
                trainer.resume(dir, tape, trace);
            }
        }
        Ok(trainer)
    }

    fn io_error(&mut self, message: String, trace: &mut Trace<'_>) {
        self.report.io_errors.push(message);
        trace.counter(names::IO_ERROR, self.report.io_errors.len() as u64, 1);
    }

    /// Create the checkpoint directory and take its exclusive lock, so two
    /// concurrent runs cannot corrupt each other's checkpoint rotation.
    fn lock(
        &mut self,
        dir: &std::path::Path,
        deadline_secs: Option<f64>,
        fit_start: Instant,
        trace: &mut Trace<'_>,
    ) -> Result<(), GrimpError> {
        use grimp_obs::fs::{with_retry_capped, IO_RETRY_ATTEMPTS};
        // Retry backoffs spend real wall-clock time; cap them at whatever
        // is left of the governor deadline so a flaky disk cannot sleep a
        // nearly-expired run past its budget.
        let retry_cap = deadline_secs.map(|d| {
            std::time::Duration::from_secs_f64((d - fit_start.elapsed().as_secs_f64()).max(0.0))
        });
        if let Err(e) = with_retry_capped(IO_RETRY_ATTEMPTS, retry_cap, || {
            self.ckfs.create_dir_all(dir)
        }) {
            self.io_error(
                format!("cannot create checkpoint dir {}: {e}", dir.display()),
                trace,
            );
        }
        let lock_file = dir.join(crate::governor::LOCK_FILE);
        // A held lock is a hard error (the caller picked the directory);
        // any other lock-file IO failure degrades to checkpoint-less
        // training. Transient faults are retried (FaultFs injects them
        // *before* creating the file, and a real EINTR mid-create leaves
        // nothing behind either, so a retry cannot trip over its own lock
        // file).
        let mut reclaimed = false;
        loop {
            match with_retry_capped(IO_RETRY_ATTEMPTS, retry_cap, || {
                DirLock::acquire(self.ckfs.as_mut(), dir)
            }) {
                Ok(lock) => {
                    self._dir_lock = Some(lock);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Stale-lock reclaim: a lock whose recorded holder is
                    // no longer alive (or whose content is unreadable — a
                    // torn write from a crashed run) would otherwise
                    // livelock every future run on this directory. Remove
                    // it, trace the reclaim, and retry once. A live holder
                    // — including this very process — stays a hard error,
                    // and so does losing the race to another run between
                    // the reclaim and the retry (that holder is live by
                    // construction).
                    let owner = DirLock::owner_pid(self.ckfs.as_mut(), dir);
                    if reclaimed || owner.is_some_and(crate::governor::pid_alive) {
                        return Err(GrimpError::LockHeld {
                            path: lock_file,
                            owner_pid: owner,
                        });
                    }
                    let _ = std::fs::remove_file(&lock_file);
                    trace.counter(names::LOCK_RECLAIMED, u64::from(owner.unwrap_or(0)), 1);
                    self.report.locks_reclaimed += 1;
                    reclaimed = true;
                }
                Err(e) => {
                    self.io_error(
                        format!(
                            "cannot lock checkpoint dir {}: {e}; continuing without checkpoints",
                            dir.display()
                        ),
                        trace,
                    );
                    self.ckpt_path = None;
                    // The failed create may have left a half-written lock
                    // file behind (torn write); it was ours, so clean it up.
                    let _ = std::fs::remove_file(&lock_file);
                    return Ok(());
                }
            }
        }
    }

    /// Resume from the directory's checkpoint. A missing file starts a
    /// fresh run; an unreadable or mismatched one is reported and also
    /// starts fresh — resume must never panic. Two-generation fallback: a
    /// truncated or bit-flipped current checkpoint (rejected by its CRC-32
    /// footer) is reported, then the previous good generation is tried
    /// before giving up and restarting from scratch.
    fn resume(&mut self, dir: &std::path::Path, tape: &mut Tape, trace: &mut Trace<'_>) {
        let candidates = [dir.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_PREV_FILE)];
        for path in candidates.iter().filter(|p| p.exists()) {
            match TrainCheckpoint::load(path) {
                Ok(ck) if snapshot_shapes_match(tape, &ck.params) => {
                    tape.restore_param_values(&ck.params);
                    self.adam.import_state(&ck.adam);
                    self.rng = ck.rng;
                    self.state = TrainState {
                        epoch: ck.epoch as usize,
                        lr: ck.lr,
                        best_val: ck.best_val,
                        since_best: ck.since_best as usize,
                        recoveries: ck.recoveries as usize,
                    };
                    self.best_params = ck.best_params;
                    self.report.resumed_from_epoch = Some(self.state.epoch);
                    trace.counter(names::RESUME, self.state.epoch as u64, 1);
                    return;
                }
                Ok(_) => self.io_error(
                    format!(
                        "checkpoint at {} does not match this model's parameter shapes; \
                         restarting from scratch",
                        path.display()
                    ),
                    trace,
                ),
                Err(e) => self.io_error(
                    format!(
                        "failed to resume from {}: {e}; restarting from scratch",
                        path.display()
                    ),
                    trace,
                ),
            }
        }
    }

    /// Train until `cfg.max_epochs` epochs are complete, validation stops
    /// improving for `cfg.patience` epochs, the deadline or a shutdown
    /// request stops the run, or the recovery budget runs out. With
    /// `trainable = false` no epoch runs.
    pub fn run(
        &mut self,
        cfg: &GrimpConfig,
        tape: &mut Tape,
        objective: &mut dyn Objective,
        trainable: bool,
        fit_start: Instant,
        trace: &mut Trace<'_>,
    ) {
        #[cfg(any(test, feature = "fault-injection"))]
        let fault_plan = cfg.fault_injection;
        let mut last_good = Snapshot {
            state: self.state,
            params: tape.snapshot_param_values(),
            adam: self.adam.export_state(),
        };
        let checkpoint_every = cfg.checkpoint_every.max(1);
        let mut train_losses: Vec<Var> = Vec::new();
        while trainable
            && !self.report.degraded_to_baseline
            && self.state.epoch < cfg.max_epochs
            && self.state.since_best < cfg.patience
        {
            // Resource governance, checked at every epoch boundary: a blown
            // wall-clock budget or a shutdown request stops training
            // cleanly — the final checkpoint still runs, and imputation
            // proceeds from whatever epochs completed.
            if let Some(deadline) = cfg.deadline_secs {
                if fit_start.elapsed().as_secs_f64() >= deadline {
                    self.report.deadline_hit = true;
                    self.report.stopped_at_epoch = Some(self.state.epoch);
                    trace.counter(names::DEADLINE_HIT, self.state.epoch as u64, 1);
                    break;
                }
            }
            if let Some(flag) = &cfg.shutdown {
                if flag.is_requested() {
                    self.report.interrupted = true;
                    self.report.stopped_at_epoch = Some(self.state.epoch);
                    trace.counter(names::INTERRUPTED, self.state.epoch as u64, 1);
                    break;
                }
            }
            let epoch_idx = self.state.epoch as u64;
            let misses_before = tape.workspace_stats().misses;
            let epoch_start = Instant::now();
            let epoch_span = trace.enter(names::EPOCH, epoch_idx);
            let sampled_edges = objective.before_epoch(epoch_idx, trace);

            let forward_start = Instant::now();
            let fwd_span = trace.enter(names::FORWARD, epoch_idx);
            train_losses.clear();
            let val_total = objective.losses(
                tape,
                self.state.epoch,
                trace,
                &mut self.report.anomalies,
                &mut train_losses,
            );
            if train_losses.is_empty() {
                tape.reset();
                // Nothing trainable: the attempt produced no epoch. Close
                // the span as a rollback so trace consumers discard it too.
                trace.exit_with(
                    names::EPOCH_ROLLBACK,
                    epoch_idx,
                    epoch_span,
                    epoch_start.elapsed().as_secs_f64(),
                );
                drop(fwd_span);
                break;
            }
            let total = tape.add_n(&train_losses);
            let train_total = tape.value(total).item();
            let fwd_dt = forward_start.elapsed().as_secs_f64();
            self.report.forward_s += fwd_dt;
            trace.exit_with(names::FORWARD, epoch_idx, fwd_span, fwd_dt);

            // Divergence guard: loss finiteness after the forward pass,
            // gradient finiteness (via the global norm) after backward,
            // parameter finiteness after the optimizer step.
            let mut anomaly: Option<TrainAnomaly> = None;
            let mut grad_norm = 0.0f64;
            let mut bwd_dt = 0.0f64;
            let mut opt_dt = 0.0f64;
            if !train_total.is_finite() || !val_total.is_finite() {
                anomaly = Some(TrainAnomaly::NonFiniteLoss {
                    epoch: self.state.epoch,
                    train: train_total,
                    val: val_total,
                });
            } else {
                let backward_start = Instant::now();
                let bwd_span = trace.enter(names::BACKWARD, epoch_idx);
                tape.backward(total);
                bwd_dt = backward_start.elapsed().as_secs_f64();
                self.report.backward_s += bwd_dt;
                trace.exit_with(names::BACKWARD, epoch_idx, bwd_span, bwd_dt);
                if trace.is_enabled() {
                    trace.counter(
                        names::TAPE_BACKWARD_NODES,
                        epoch_idx,
                        tape.last_backward_stats().nodes_visited,
                    );
                }

                #[cfg(any(test, feature = "fault-injection"))]
                self.inject_nan(fault_plan.as_ref(), FaultKind::GradNan, tape);

                grad_norm = tape.global_grad_norm();
                if !grad_norm.is_finite() {
                    anomaly = Some(TrainAnomaly::NonFiniteGradient {
                        epoch: self.state.epoch,
                        norm: grad_norm,
                    });
                } else {
                    if let Some(max) = cfg.max_grad_norm {
                        if grad_norm > f64::from(max) {
                            tape.scale_param_grads((f64::from(max) / grad_norm) as f32);
                            self.report.clip_activations += 1;
                            trace.counter(names::GRAD_CLIP, epoch_idx, 1);
                        }
                    }
                    let optim_start = Instant::now();
                    let opt_span = trace.enter(names::OPTIM, epoch_idx);
                    self.adam.lr = self.state.lr;
                    self.adam.step(tape);
                    opt_dt = optim_start.elapsed().as_secs_f64();
                    self.report.optim_s += opt_dt;
                    trace.exit_with(names::OPTIM, epoch_idx, opt_span, opt_dt);

                    #[cfg(any(test, feature = "fault-injection"))]
                    self.inject_nan(fault_plan.as_ref(), FaultKind::ParamNan, tape);

                    if !tape.params_all_finite() {
                        anomaly = Some(TrainAnomaly::NonFiniteParameter {
                            epoch: self.state.epoch,
                        });
                    }
                }
            }
            let reset_start = Instant::now();
            let reset_span = trace.enter(names::TAPE_RESET, epoch_idx);
            tape.reset();
            let reset_dt = reset_start.elapsed().as_secs_f64();
            self.report.optim_s += reset_dt;
            trace.exit_with(names::TAPE_RESET, epoch_idx, reset_span, reset_dt);

            if let Some(a) = anomaly {
                // Recovery policy: roll back to the last good epoch, halve
                // the learning rate, and retry — up to `max_recoveries`
                // times, after which the run degrades to the baseline.
                trace.counter(names::ANOMALY, epoch_idx, anomaly_code(&a));
                self.report.anomalies.push(a);
                tape.restore_param_values(&last_good.params);
                self.adam.import_state(&last_good.adam);
                let mut st = last_good.state;
                st.lr *= 0.5;
                st.recoveries += 1;
                self.state = st;
                last_good.state = st;
                self.report.recoveries = st.recoveries;
                trace.counter(names::RECOVERY, epoch_idx, st.recoveries as u64);
                trace.metric(names::LR, epoch_idx, f64::from(st.lr));
                trace.exit_with(
                    names::EPOCH_ROLLBACK,
                    epoch_idx,
                    epoch_span,
                    epoch_start.elapsed().as_secs_f64(),
                );
                if st.recoveries > cfg.max_recoveries {
                    self.report.degraded_to_baseline = true;
                    trace.counter(names::DEGRADED, epoch_idx, 1);
                    break;
                }
                continue;
            }

            let allocs = tape.workspace_stats().misses - misses_before;
            let mut stats = EpochStats {
                epoch: self.state.epoch,
                train_loss: train_total,
                val_loss: val_total,
                grad_norm,
                allocs,
                seconds: 0.0,
                forward_s: fwd_dt,
                backward_s: bwd_dt,
                optim_s: opt_dt + reset_dt,
                sampled_edges,
            };
            self.state.epoch += 1;
            if val_total + 1e-5 < self.state.best_val {
                self.state.best_val = val_total;
                self.state.since_best = 0;
                // explicit best-validation checkpoint: imputation runs from
                // these parameters, not from wherever training stopped
                tape.snapshot_param_values_into(self.best_params.get_or_insert_with(Vec::new));
            } else {
                self.state.since_best += 1;
            }
            last_good.state = self.state;
            tape.snapshot_param_values_into(&mut last_good.params);
            self.adam.export_state_into(&mut last_good.adam);

            if self.ckpt_path.is_some()
                && !self.report.checkpoints_disabled
                && self.state.epoch.is_multiple_of(checkpoint_every)
            {
                let ck_span = trace.enter(names::CHECKPOINT_SAVE, epoch_idx);
                match self.save_checkpoint(cfg, tape) {
                    Ok(n) => {
                        self.strikes = 0;
                        self.report.checkpoint_bytes = n;
                        trace.counter(names::CHECKPOINT_BYTES, epoch_idx, n as u64);
                    }
                    Err(e) => {
                        self.io_error(format!("checkpoint write failed: {e}"), trace);
                        self.strikes += 1;
                        if self.strikes >= CHECKPOINT_MAX_STRIKES {
                            self.report.checkpoints_disabled = true;
                            trace.counter(names::CHECKPOINT_DISABLED, epoch_idx, 1);
                        }
                    }
                }
                trace.exit(names::CHECKPOINT_SAVE, epoch_idx, ck_span);
            }
            let epoch_dt = epoch_start.elapsed().as_secs_f64();
            stats.seconds = epoch_dt;
            trace.metric(names::TRAIN_LOSS, epoch_idx, f64::from(train_total));
            trace.metric(names::VAL_LOSS, epoch_idx, f64::from(val_total));
            trace.metric(names::GRAD_NORM, epoch_idx, grad_norm);
            trace.counter(names::EPOCH_ALLOCS, epoch_idx, allocs);
            trace.exit_with(names::EPOCH, epoch_idx, epoch_span, epoch_dt);
            self.report.push_epoch(stats);
        }
        self.report.early_stopped = self.state.since_best >= cfg.patience;
        if self.report.early_stopped {
            trace.counter(names::EARLY_STOP, self.state.epoch as u64, 1);
        }
    }

    /// Poison the first element of the first trainable parameter's
    /// gradient (`GradNan`) or value (`ParamNan`) with `NaN` when the fault
    /// plan says this is the epoch (and its budget is not yet spent).
    #[cfg(any(test, feature = "fault-injection"))]
    fn inject_nan(&mut self, plan: Option<&FaultPlan>, kind: FaultKind, tape: &mut Tape) {
        if !fault_due(plan, kind, self.state.epoch, &mut self.injected) {
            return;
        }
        for i in 0..tape.param_count() {
            let v = Var::from_index(i);
            if !tape.is_trainable(v) {
                continue;
            }
            let target = match kind {
                FaultKind::GradNan => tape.grad_mut(v),
                _ => Some(tape.value_mut(v)),
            };
            if let Some(first) = target.and_then(|t| t.as_mut_slice().first_mut()) {
                *first = f32::NAN;
                return;
            }
        }
    }

    /// The checkpoint of the current training state.
    fn checkpoint(&self, tape: &Tape) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: self.state.epoch as u64,
            lr: self.state.lr,
            recoveries: self.state.recoveries as u32,
            best_val: self.state.best_val,
            since_best: self.state.since_best as u64,
            rng: self.rng,
            params: tape.snapshot_param_values(),
            adam: self.adam.export_state(),
            best_params: self.best_params.clone(),
        }
    }

    /// Write the current checkpoint through the run's (possibly
    /// fault-injected) IO layer, or fail with an injected IO error when the
    /// fault plan poisons checkpoint writes (chaos-harness hook).
    fn save_checkpoint(
        &mut self,
        _cfg: &GrimpConfig,
        tape: &Tape,
    ) -> Result<usize, grimp_tensor::CheckpointError> {
        #[cfg(any(test, feature = "fault-injection"))]
        if fault_due(
            _cfg.fault_injection.as_ref(),
            FaultKind::CheckpointWrite,
            self.state.epoch,
            &mut self.injected,
        ) {
            return Err(grimp_tensor::CheckpointError::Io(std::io::Error::other(
                "injected checkpoint write fault",
            )));
        }
        let ck = self.checkpoint(tape);
        let path = self
            .ckpt_path
            .as_ref()
            .expect("invariant: saving requires a checkpoint path");
        ck.save_with(self.ckfs.as_mut(), path)
    }

    /// The final checkpoint, so resuming a finished run is a no-op. Without
    /// a (working) checkpoint directory only its size is reported.
    pub fn final_checkpoint(&mut self, cfg: &GrimpConfig, tape: &Tape, trace: &mut Trace<'_>) {
        let epoch = self.state.epoch as u64;
        let ck_span = trace.enter(names::CHECKPOINT_SAVE, epoch);
        if self.ckpt_path.is_some() && !self.report.checkpoints_disabled {
            match self.save_checkpoint(cfg, tape) {
                Ok(n) => self.report.checkpoint_bytes = n,
                Err(e) => self.io_error(format!("checkpoint write failed: {e}"), trace),
            }
        } else {
            self.report.checkpoint_bytes = self.checkpoint(tape).to_bytes().len();
        }
        if self.report.checkpoint_bytes > 0 {
            trace.counter(
                names::CHECKPOINT_BYTES,
                epoch,
                self.report.checkpoint_bytes as u64,
            );
        }
        trace.exit(names::CHECKPOINT_SAVE, epoch, ck_span);
    }
}

/// Stage 3, train: set up the [`Trainer`] (checkpoint lock, resume) and run
/// the epoch loop over `objective`, all inside the [`names::TRAIN`] span.
///
/// # Errors
/// [`GrimpError::LockHeld`] when a live run holds the checkpoint lock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train(
    cfg: &GrimpConfig,
    tape: &mut Tape,
    rng: [u64; 4],
    report: TrainReport,
    objective: &mut dyn Objective,
    trainable: bool,
    fit_start: Instant,
    trace: &mut Trace<'_>,
) -> Result<Trainer, GrimpError> {
    let span = trace.enter(names::TRAIN, 0);
    let mut trainer = Trainer::new(cfg, tape, rng, report, fit_start, trace)?;
    trainer.run(cfg, tape, objective, trainable, fit_start, trace);
    trace.exit(names::TRAIN, 0, span);
    Ok(trainer)
}

/// `true` when a checkpoint's parameter tensors line up one-to-one, shape
/// for shape, with the tape's trainable parameters.
pub(crate) fn snapshot_shapes_match(tape: &Tape, params: &[Tensor]) -> bool {
    let current = tape.snapshot_param_values();
    current.len() == params.len()
        && current
            .iter()
            .zip(params)
            .all(|(a, b)| a.shape() == b.shape())
}

/// Stable code of an anomaly kind, used as the `anomaly` counter value.
pub(crate) fn anomaly_code(a: &TrainAnomaly) -> u64 {
    match a {
        TrainAnomaly::NonFiniteLoss { .. } => 0,
        TrainAnomaly::NonFiniteGradient { .. } => 1,
        TrainAnomaly::NonFiniteParameter { .. } => 2,
        TrainAnomaly::NonFiniteTaskLoss { column, .. } => 3 + *column as u64,
    }
}

/// Whether a fault of `kind` fires this epoch; consumes injection budget.
/// A plan names one fault kind, so each hook site may keep its own count.
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn fault_due(
    plan: Option<&FaultPlan>,
    kind: FaultKind,
    epoch: usize,
    injected: &mut usize,
) -> bool {
    let Some(plan) = plan else { return false };
    if plan.kind != kind || plan.at_epoch != epoch || *injected >= plan.times {
        return false;
    }
    *injected += 1;
    true
}
