//! The GRIMP model: shared layer (HeteroGNN + merge) and multi-task heads,
//! trained end-to-end with the dual loss and early stopping (paper §3,
//! Algorithm 1).
//!
//! A fit runs the four stages of the training engine — admit, build,
//! train, finalize — with GRIMP's task heads as the train stage's
//! objective. Training is fault-tolerant: a divergence guard rolls a bad
//! epoch back with a halved learning rate, checkpoints are versioned
//! [`TrainCheckpoint`]s, and a run that exhausts its recovery budget
//! degrades to the mode/mean baseline so the imputation contract still
//! holds.
//!
//! Every phase of a run — graph build, feature init, each epoch's
//! forward/backward/optim sub-phases, per-task losses, checkpoints,
//! recovery, imputation — emits structured events into a
//! [`grimp_obs::EventSink`] (see [`grimp_obs::names`] for the vocabulary).
//! With the default [`NullSink`] the instrumentation compiles down to a
//! branch on a `None`: no clock reads, no allocations. The
//! [`crate::report::TrainReport`] aggregates are the *same* measured
//! numbers that go into the trace, so
//! [`TrainReport::from_events`](crate::report::TrainReport::from_events)
//! on a recorded stream reproduces them bit-for-bit.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use grimp_gnn::{readout_rows, HeteroSage};
use grimp_graph::{fasttext_features, FeatureSource, NeighborSampler, TableGraph};
use grimp_obs::{names, splitmix64, EventSink, NullSink, Trace};
use grimp_table::{ColumnKind, FdSet, Imputer, Normalizer, Table, TrainingSample, Value};
use grimp_tensor::{Mlp, Tape, Tensor, Var};

use crate::checkpoint::TrainCheckpoint;
use crate::config::{CategoricalLoss, GrimpConfig};
use crate::engine::{self, admit, build_encoder, Admitted, Encoder, Objective, Trainer};
use crate::error::GrimpError;
use crate::fault::TrainAnomaly;
use crate::report::{ColumnTier, TrainReport};
use crate::tasks::Task;
use crate::vectors::VectorBatch;
use grimp_graph::NodeFeatures;

/// Categorical fill value of the [`ColumnTier::Constant`] ladder rung —
/// deliberately non-empty, since the CSV layer treats `""` as null.
pub const CONSTANT_FILL_CATEGORICAL: &str = "(unknown)";
/// Numerical fill value of the [`ColumnTier::Constant`] ladder rung.
pub const CONSTANT_FILL_NUMERICAL: f64 = 0.0;

/// The GRIMP imputer (paper §3). Construct with a config, call
/// [`Grimp::fit_impute`] (or the [`Imputer`] trait) on a dirty table.
///
/// For a fit-once/impute-many handle (including imputing *unseen* tables
/// with the inductive FastText features), use [`crate::Pipeline`], which
/// returns a [`FittedModel`].
pub struct Grimp {
    config: GrimpConfig,
    fds: FdSet,
    last_report: Option<TrainReport>,
}

/// Per-task label storage (shared with the loss nodes, hence `Arc`).
enum Labels {
    Cat(Arc<Vec<u32>>),
    Num(Arc<Vec<f32>>),
}

struct TaskBatch {
    batch: VectorBatch,
    labels: Labels,
}

impl Grimp {
    /// A GRIMP model with no FDs.
    pub fn new(config: GrimpConfig) -> Self {
        Grimp {
            config,
            fds: FdSet::empty(),
            last_report: None,
        }
    }

    /// A GRIMP model that exploits the given FDs in its attention `K`
    /// matrices (GRIMP-A of §4.3; pair with
    /// [`crate::config::KStrategy::WeakDiagonalFd`]).
    pub fn with_fds(config: GrimpConfig, fds: FdSet) -> Self {
        Grimp {
            config,
            fds,
            last_report: None,
        }
    }

    /// The report of the most recent [`Grimp::fit_impute`] call.
    pub fn last_report(&self) -> Option<&TrainReport> {
        self.last_report.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &GrimpConfig {
        &self.config
    }

    /// Train on the dirty table (self-supervised — no clean data needed) and
    /// impute all its missing values.
    pub fn fit_impute(&mut self, dirty: &Table) -> Table {
        let mut sink = NullSink;
        self.fit_impute_traced(dirty, &mut sink)
    }

    /// [`Grimp::fit_impute`] with structured events streamed into `sink`.
    ///
    /// Given a valid configuration this entry point cannot fail: the only
    /// fit-time error (a zero-column table) has nothing to impute, so the
    /// input comes back unchanged, and the training-table impute path
    /// cannot fail.
    ///
    /// The report's [`TrainReport::seconds`] covers the fit and the impute.
    ///
    /// # Panics
    /// If `gnn.neighbor_cap` is `Some(0)`, which [`crate::Pipeline::new`]
    /// rejects as [`crate::ConfigError::ZeroNeighborCap`]. This entry point
    /// does not run [`GrimpConfig::validate`] otherwise: it also trains
    /// configurations that only the engine itself may set, such as a
    /// sampled run that resumes.
    pub fn fit_impute_traced(&mut self, dirty: &Table, sink: &mut dyn EventSink) -> Table {
        if self.config.gnn.neighbor_cap == Some(0) {
            panic!("{}", crate::ConfigError::ZeroNeighborCap);
        }
        let fitted = match fit_model(&self.config, &self.fds, dirty, sink) {
            Ok(f) => f,
            Err(_) => return dirty.clone(),
        };
        let start = Instant::now();
        let result = fitted
            .impute_traced(dirty, sink)
            // Unreachable for the training table; kept as a safety net so
            // the Imputer contract survives even a future logic error.
            .unwrap_or_else(|_| baseline_fill(dirty));
        let mut report = fitted.report;
        report.seconds += start.elapsed().as_secs_f64();
        self.last_report = Some(report);
        result
    }
}

/// Variant name shown in experiment output (paper §4.3 naming).
pub(crate) fn variant_name(config: &GrimpConfig) -> &'static str {
    match (config.task_kind, config.features) {
        (crate::config::TaskKind::Linear, _) => "GRIMP-linear",
        (_, FeatureSource::Embdi) => "GRIMP-E",
        (_, FeatureSource::FastText) => "GRIMP-FT",
        (_, FeatureSource::Random) => "GRIMP-rand",
    }
}

/// A trained GRIMP model, ready to impute: the fitted graph, the shared
/// layer and the task heads with their frozen weights, plus everything
/// needed to run inference again — on the training table or (with FastText
/// features) on schema-compatible unseen tables.
///
/// The model is immutable and `Send + Sync`: every call runs its forward
/// pass on a scratch tape of its own, so one model can serve many threads
/// at once (share it behind an `Arc`).
///
/// Produced by [`crate::Pipeline::fit`]; [`Grimp::fit_impute`] is a thin
/// fit-then-impute wrapper over the same machinery.
pub struct FittedModel {
    config: GrimpConfig,
    normalizer: Normalizer,
    /// Normalized copy of the training table.
    norm: Table,
    /// The original dirty training table (detects transductive imputes).
    train_dirty: Table,
    graph: TableGraph,
    /// The GNN, bound to the fitted graph.
    gnn: HeteroSage,
    merge: Mlp,
    tasks: Vec<Task>,
    /// The trainable parameters in registration order, holding the
    /// imputation weights: the best-validation ones when training recorded
    /// them. Each call registers them first on its scratch tape, so the
    /// layers' parameter handles resolve to them.
    params: Vec<Tensor>,
    /// The node features of the fitted graph.
    features: Tensor,
    /// Seed of the inductive FastText features (None for other sources).
    ft_seed: Option<u64>,
    /// Also the source of the degradation flag and the column tiers.
    report: TrainReport,
}

/// One forward pass of the shared layer, on the calling request's own
/// tape: the embeddings of the graph's readout rows (the rows
/// [`VectorBatch::build_readout`] indexes), and the graph they were
/// computed on (`None`: the fitted graph of the training table).
struct Embedded {
    tape: Tape,
    h: Var,
    unseen: Option<(Table, TableGraph)>,
}

impl FittedModel {
    /// The training report. [`TrainReport::seconds`] is the wall time of
    /// the fit (or of the restore) that produced this model.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &GrimpConfig {
        &self.config
    }

    /// Whether training exhausted its recovery budget and imputation runs
    /// the mode/mean baseline instead of the GNN.
    pub fn is_degraded(&self) -> bool {
        self.report.degraded_to_baseline
    }

    /// Degradation-ladder tier of every column, in schema order. Columns at
    /// [`ColumnTier::Gnn`] impute from their trained head; demoted columns
    /// impute from the mode/mean baseline or the global constant.
    pub fn column_tiers(&self) -> &[ColumnTier] {
        &self.report.column_tiers
    }

    /// Impute all missing values of `table`.
    ///
    /// Passing the training table back runs the transductive path of the
    /// paper (one forward pass over the fitted graph). Any *other* table
    /// with the same schema takes the inductive path: its graph is rebuilt,
    /// the seed-deterministic FastText features are recomputed, and the
    /// trained weights are reused.
    ///
    /// Columns demoted down the degradation ladder (see
    /// [`FittedModel::column_tiers`]) fill from their mode/mean or the
    /// global constant instead of a task head; every missing cell is filled
    /// either way.
    ///
    /// # Errors
    /// On an unseen table, [`GrimpError::SchemaMismatch`] when the schema
    /// differs from the training schema. A model fitted without
    /// [`FeatureSource::FastText`] (EMBDI and random features are
    /// transductive — they cannot embed unseen values) does not error on an
    /// unseen table: its GNN-tier columns step down the degradation ladder
    /// to the mode/mean baseline of the new table, so every missing cell is
    /// still filled. Imputing the training table never fails.
    pub fn impute(&self, table: &Table) -> Result<Table, GrimpError> {
        let mut sink = NullSink;
        self.impute_traced(table, &mut sink)
    }

    /// [`FittedModel::impute`] with structured events streamed into `sink`.
    pub fn impute_traced(
        &self,
        table: &Table,
        sink: &mut dyn EventSink,
    ) -> Result<Table, GrimpError> {
        let mut trace = Trace::new(sink);
        let span = trace.enter(names::IMPUTE, 0);
        let outcome = self.impute_table(table, &mut trace);
        trace.exit(names::IMPUTE, 0, span);
        let _ = trace.flush();
        outcome
    }

    /// Average attention weight each task places on each column, measured
    /// over up to `max_samples` observed cells per task of `table` (`None`
    /// entries for linear tasks and for columns without an observed cell).
    ///
    /// High weight of task `j` on column `c` means the model imputes `A_j`
    /// mostly from `A_c` — learned functional dependencies show up here.
    /// Like [`FittedModel::impute`], the training table is profiled over
    /// the fitted graph and any other table over its own rebuilt graph.
    ///
    /// # Errors
    /// On an unseen table, [`GrimpError::SchemaMismatch`] when the schema
    /// differs from the training schema, and
    /// [`GrimpError::InductiveUnsupported`] when the model was fitted
    /// without [`FeatureSource::FastText`] features.
    pub fn attention_profile(
        &self,
        table: &Table,
        max_samples: usize,
    ) -> Result<Vec<Option<Vec<f32>>>, GrimpError> {
        let seen = self.is_training_table(table)?;
        let Some(mut embedded) = self.embed(table, seen, &mut Trace::disabled()) else {
            return Err(GrimpError::InductiveUnsupported);
        };
        let (norm, graph) = match &embedded.unseen {
            Some((norm, graph)) => (norm, graph),
            None => (&self.norm, &self.graph),
        };
        let n_cols = norm.n_columns();
        let mut profiles = Vec::with_capacity(n_cols);
        for (j, task) in self.tasks.iter().enumerate() {
            let samples: Vec<(usize, usize)> = (0..norm.n_rows())
                .filter(|&i| !norm.is_missing(i, j))
                .take(max_samples)
                .map(|i| (i, j))
                .collect();
            if samples.is_empty() {
                profiles.push(None);
                continue;
            }
            let batch = VectorBatch::build_readout(graph, norm, &samples, self.config.embed_dim);
            let tape = &mut embedded.tape;
            let profile = task.attention_alpha(tape, embedded.h, &batch).map(|alpha| {
                let a = tape.value(alpha);
                let mut mean = vec![0.0f32; n_cols];
                for s in 0..batch.n {
                    for (m, &v) in mean.iter_mut().zip(a.row_slice(s)) {
                        *m += v;
                    }
                }
                mean.iter_mut().for_each(|m| *m /= batch.n as f32);
                mean
            });
            profiles.push(profile);
        }
        Ok(profiles)
    }

    /// Whether `table` is the training table (transductive path), or an
    /// unseen table of the training schema.
    fn is_training_table(&self, table: &Table) -> Result<bool, GrimpError> {
        if *table == self.train_dirty {
            return Ok(true);
        }
        if table.schema() != self.train_dirty.schema() {
            return Err(GrimpError::SchemaMismatch {
                expected: format!("{:?}", self.train_dirty.schema()),
                got: format!("{:?}", table.schema()),
            });
        }
        Ok(false)
    }

    /// One forward pass of the shared layer on a fresh scratch tape that
    /// holds the frozen parameters, with the GNN's last layer and the merge
    /// over the readout rows only. The training table runs over the fitted
    /// graph (§3.7); an unseen table gets its own graph, a copy of the GNN
    /// bound to it, and its seed-deterministic FastText features. `None`
    /// when an unseen table cannot be embedded: EMBDI and random features
    /// are transductive.
    fn embed(&self, table: &Table, seen: bool, trace: &mut Trace<'_>) -> Option<Embedded> {
        let (features, rebound, unseen) = if seen {
            (self.features.clone(), None, None)
        } else {
            let ft_seed = self.ft_seed?;
            let mut norm = table.clone();
            self.normalizer.apply(&mut norm);
            let graph = TableGraph::build_traced(&norm, self.config.graph, &[], trace);
            let mut gnn = self.gnn.clone();
            gnn.rebind(&graph);
            let features = fasttext_features(&graph, self.config.feature_dim, ft_seed);
            let x = Tensor::from_vec(
                graph.n_nodes(),
                self.config.feature_dim,
                features.node_matrix,
            );
            (x, Some(gnn), Some((norm, graph)))
        };
        // A backend per call: a parallel backend's pool runs one job at a
        // time, so concurrent calls must not share one.
        let mut tape = Tape::new();
        tape.set_backend(self.config.backend);
        for p in &self.params {
            tape.input(p.clone());
        }
        let x = tape.input(features);
        let graph = unseen.as_ref().map_or(&self.graph, |(_, graph)| graph);
        let rows = readout_rows(graph);
        trace.counter(names::GNN_ROWS, 0, rows.len() as u64);
        let h0 = rebound
            .as_ref()
            .unwrap_or(&self.gnn)
            .forward_rows(&mut tape, x, rows);
        let h = self.merge.forward(&mut tape, h0);
        Some(Embedded { tape, h, unseen })
    }

    /// Fill every missing cell of `table`: GNN-tier columns by per-column
    /// argmax / de-normalized regression over one shared forward pass
    /// (skipped when no column is at the GNN tier), demoted columns from
    /// their ladder tier using `table`'s own statistics. Categorical
    /// predictions on an unseen table are mapped through the training
    /// dictionaries into the table's own dictionaries.
    fn impute_table(&self, table: &Table, trace: &mut Trace<'_>) -> Result<Table, GrimpError> {
        let seen = self.is_training_table(table)?;
        let mut result = table.clone();
        let mut embedded = if self.report.column_tiers.contains(&ColumnTier::Gnn) {
            self.embed(table, seen, trace)
        } else {
            None
        };
        for (j, task) in self.tasks.iter().enumerate() {
            let missing: Vec<(usize, usize)> = (0..table.n_rows())
                .filter(|&i| table.is_missing(i, j))
                .map(|i| (i, j))
                .collect();
            if missing.is_empty() {
                continue;
            }
            match (self.report.column_tiers[j], embedded.as_mut()) {
                (ColumnTier::Gnn, Some(embedded)) => {
                    let (norm, graph) = match &embedded.unseen {
                        Some((norm, graph)) => (norm, graph),
                        None => (&self.norm, &self.graph),
                    };
                    let batch =
                        VectorBatch::build_readout(graph, norm, &missing, self.config.embed_dim);
                    let out = task.forward(&mut embedded.tape, embedded.h, &batch);
                    let out_t = embedded.tape.value(out);
                    match table.schema().column(j).kind {
                        ColumnKind::Categorical => {
                            // GNN-tier categoricals have ≥ 2 dictionary
                            // entries (emptier columns were demoted).
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let best = out_t
                                    .row_slice(s)
                                    .iter()
                                    .enumerate()
                                    .max_by(|a, b| a.1.total_cmp(b.1))
                                    .map(|(k, _)| k)
                                    .expect("non-empty logits row");
                                let code = if seen {
                                    best as u32
                                } else {
                                    result.intern(j, &self.norm.dictionary(j)[best])
                                };
                                result.set(i, j, Value::Cat(code));
                            }
                        }
                        ColumnKind::Numerical => {
                            let fallback = table.mean(j);
                            for (s, &(i, _)) in missing.iter().enumerate() {
                                let z = f64::from(out_t.get(s, 0));
                                let v = finite_or(self.normalizer.inverse(j, z), fallback);
                                result.set(i, j, Value::Num(v));
                            }
                        }
                    }
                }
                // Transductive features cannot embed an unseen table: its
                // GNN-tier columns degrade to the table's own baseline.
                (ColumnTier::Gnn, None) => {
                    fill_column_from_ladder(&mut result, table, j, ColumnTier::Baseline)
                }
                (tier, _) => fill_column_from_ladder(&mut result, table, j, tier),
            }
            trace.counter(names::IMPUTED_CELLS, j as u64, missing.len() as u64);
        }
        Ok(result)
    }
}

/// Fill every missing cell of column `j` of `result` from the ladder tier,
/// with mode/mean statistics taken from `stats` (the table the missing
/// cells came from — `result` starts as its clone, so categorical codes
/// align). Falls through to the constant rung when the baseline statistic
/// does not exist (no observed value at all).
fn fill_column_from_ladder(result: &mut Table, stats: &Table, j: usize, tier: ColumnTier) {
    let missing: Vec<usize> = (0..stats.n_rows())
        .filter(|&i| stats.is_missing(i, j))
        .collect();
    match stats.schema().column(j).kind {
        ColumnKind::Categorical => {
            let code = match tier {
                ColumnTier::Baseline => stats.mode(j),
                _ => None,
            };
            let code = code.unwrap_or_else(|| result.intern(j, CONSTANT_FILL_CATEGORICAL));
            for i in missing {
                result.set(i, j, Value::Cat(code));
            }
        }
        ColumnKind::Numerical => {
            let v = match tier {
                ColumnTier::Baseline => stats.mean(j).unwrap_or(CONSTANT_FILL_NUMERICAL),
                _ => CONSTANT_FILL_NUMERICAL,
            };
            for i in missing {
                result.set(i, j, Value::Num(v));
            }
        }
    }
}

/// `v` when finite, otherwise the fallback statistic (or the global
/// constant when even that does not exist). Guards the de-normalization of
/// GNN regression outputs so an imputed cell is never `NaN`/`±inf`.
fn finite_or(v: f64, fallback: Option<f64>) -> f64 {
    if v.is_finite() {
        v
    } else {
        fallback.unwrap_or(CONSTANT_FILL_NUMERICAL)
    }
}

/// Initial ladder tier of a column, from its observed values alone: zero
/// observed (finite) values → [`ColumnTier::Constant`], exactly one
/// distinct value → the mode/mean [`ColumnTier::Baseline`] (a single-class
/// classifier or zero-variance regressor has nothing to learn), two or
/// more → [`ColumnTier::Gnn`].
fn detect_column_tier(table: &Table, j: usize) -> ColumnTier {
    let distinct = match table.schema().column(j).kind {
        ColumnKind::Categorical => table.column(j).n_distinct(),
        ColumnKind::Numerical => {
            let mut bits: Vec<u64> = (0..table.n_rows())
                .filter_map(|i| table.get(i, j).as_num())
                .filter(|v| v.is_finite())
                .map(f64::to_bits)
                .collect();
            bits.sort_unstable();
            bits.dedup();
            bits.len()
        }
    };
    match distinct {
        0 => ColumnTier::Constant,
        1 => ColumnTier::Baseline,
        _ => ColumnTier::Gnn,
    }
}

/// Train a GRIMP model on the dirty table, emitting structured events into
/// `sink`, and return the fitted inference handle.
///
/// This is the engine behind both [`crate::Pipeline::fit`] and
/// [`Grimp::fit_impute`].
///
/// # Errors
/// [`GrimpError::EmptySchema`] when the table has no columns — there is
/// nothing to impute and no graph to build. Every other pathology (empty
/// columns, degenerate dictionaries, non-finite observations, diverging
/// heads) is absorbed by the per-column degradation ladder instead.
pub(crate) fn fit_model(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    fit_model_delta(config, fds, dirty, None, sink)
}

/// [`fit_model`] with an optional append-delta boundary: when `delta_from`
/// is `Some(base_rows)`, the first `base_rows` rows of `dirty` are the
/// already-trained base table and only the appended tail contributes
/// training samples — a warm-start fine-tune. The model structure (graph,
/// features, tape shapes) is still that of the whole concatenated table:
/// the graph is built over all of it, validation spans the whole table,
/// and a post-loop drift check compares the last validation loss against
/// the run's best, scheduling a full refit in the report when the
/// regression exceeds [`crate::FinetuneConfig::drift_band`].
pub(crate) fn fit_model_delta(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    delta_from: Option<usize>,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    if dirty.n_columns() == 0 {
        return Err(GrimpError::EmptySchema);
    }
    let fit_start = Instant::now();
    let mut trace = Trace::new(sink);
    let fit_span = trace.enter(names::FIT, 0);
    let admitted = admit(config, dirty, &mut trace);
    let mut built = build(admitted, fds, dirty, delta_from, None, &mut trace);
    let trainable = built.net.tiers.contains(&ColumnTier::Gnn);
    let report = std::mem::take(&mut built.report);
    let rng = built.net.enc.rng.state();
    let trainer = engine::train(
        &built.cfg,
        &mut built.tape,
        rng,
        report,
        &mut built.net,
        trainable,
        fit_start,
        &mut trace,
    )?;
    let mut fitted = finalize(built, trainer, dirty, delta_from, &mut trace);
    let fit_dt = fit_start.elapsed().as_secs_f64();
    fitted.report.seconds = fit_dt;
    trace.exit_with(names::FIT, 0, fit_span, fit_dt);
    let _ = trace.flush();
    Ok(fitted)
}

/// Products of GRIMP's build stage, handed to train and finalize by move.
pub(crate) struct Built {
    pub cfg: GrimpConfig,
    pub tape: Tape,
    pub net: TaskNet,
    /// The report as the build leaves it (provenance, weight count).
    pub report: TrainReport,
}

/// GRIMP's model apart from its tape: the encoder and one task head per
/// attribute, with their batches. As the train stage's [`Objective`] it
/// runs one forward pass of the shared layer, then the dual loss (§3.6) of
/// every GNN-tier task; a task whose loss turns non-finite steps down to
/// the baseline tier and leaves the objective while the others train on.
pub(crate) struct TaskNet {
    pub enc: Encoder,
    tasks: Vec<Task>,
    pub tiers: Vec<ColumnTier>,
    train_batches: Vec<Option<TaskBatch>>,
    val_batches: Vec<Option<TaskBatch>>,
    sampled: Option<SampledTraining>,
    /// Key of the sampled mode's per-epoch draws.
    seed: u64,
    categorical_loss: CategoricalLoss,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_plan: Option<crate::fault::FaultPlan>,
    #[cfg(any(test, feature = "fault-injection"))]
    injected: usize,
}

/// Stage 2, build: column tiers, then the shared [`Encoder`] with one task
/// head per attribute, then the per-task batches — all inside the
/// [`names::BUILD`] span.
///
/// A FedAvg party passes the whole `federation` table: its statistics
/// (normalization moments, column tiers) stand in for the securely
/// aggregated ones of a deployment, and attention `Q` starts from a seeded
/// draw instead of the party's own attribute vectors, so every party starts
/// from identical weights.
pub(crate) fn build(
    admitted: Admitted,
    fds: &FdSet,
    dirty: &Table,
    delta_from: Option<usize>,
    federation: Option<&Table>,
    trace: &mut Trace<'_>,
) -> Built {
    let span = trace.enter(names::BUILD, 0);
    let cfg = admitted.cfg;
    let stats = federation.unwrap_or(dirty);
    let normalizer = Normalizer::fit(stats);
    // Per-column degradation ladder: columns that cannot possibly train a
    // task head (no observed value, or a single distinct one) start below
    // the GNN tier and never enter the shared objective.
    let mut tiers: Vec<ColumnTier> = (0..stats.n_columns())
        .map(|j| detect_column_tier(stats, j))
        .collect();
    let prune = |corpus: &mut grimp_table::Corpus| {
        // Demoted columns contribute no samples: their observed cells stay
        // in the graph as context, but their (degenerate) loss is dropped
        // from the objective.
        for (j, tier) in tiers.iter().enumerate() {
            if *tier != ColumnTier::Gnn {
                corpus.train[j].clear();
                corpus.validation[j].clear();
            }
        }
        // Append-delta fine-tune: only the appended tail contributes
        // training samples (the base rows are already learned), but
        // validation spans the whole table so early stopping and the drift
        // check measure quality on everything the model serves.
        if let Some(base_rows) = delta_from {
            for samples in corpus.train.iter_mut() {
                samples.retain(|s| s.row >= base_rows);
            }
        }
    };
    let heads = |tape: &mut Tape,
                 norm: &Table,
                 _: &TableGraph,
                 features: &NodeFeatures,
                 rng: &mut StdRng| {
        let n_cols = norm.n_columns();
        (0..n_cols)
            .map(|j| {
                let out_dim = match norm.schema().column(j).kind {
                    ColumnKind::Categorical => norm.dictionary(j).len().max(1),
                    ColumnKind::Numerical => 1,
                };
                let q_init = federation.is_none().then(|| {
                    attribute_q_init(
                        &features.attribute_matrix,
                        features.dim,
                        n_cols,
                        cfg.embed_dim,
                    )
                });
                Task::new(
                    tape,
                    cfg.task_kind,
                    n_cols,
                    cfg.embed_dim,
                    cfg.merge_hidden,
                    out_dim,
                    j,
                    cfg.k_strategy,
                    fds,
                    q_init,
                    rng,
                )
            })
            .collect::<Vec<Task>>()
    };
    let (mut enc, tape, tasks) = build_encoder(&cfg, normalizer, dirty, prune, trace, heads);

    // Pre-build the per-task batches. Full-batch mode fixes them for the
    // whole run; sampled mode carves a fixed-shape mini-batch per task
    // (refilled in place every epoch) and keeps the full pool around.
    let batch_span = trace.enter(names::BATCH_BUILD, 0);
    let (train_batches, sampled) = match &cfg.sampler {
        Some(s) => {
            let (batches, pools) = build_sampled_task_batches(
                &enc.graph,
                &enc.norm,
                &enc.corpus.train,
                cfg.embed_dim,
                s.batch_rows,
            );
            let st = SampledTraining {
                sampler: NeighborSampler::new(&enc.graph, cfg.seed, s.fanout),
                batch_rows: s.batch_rows,
                pools,
                scratch: Vec::new(),
            };
            trace.counter(names::BATCH_ROWS, 0, s.batch_rows as u64);
            trace.counter(names::FANOUT, 0, s.fanout as u64);
            (batches, Some(st))
        }
        None => (
            build_task_batches(
                &enc.graph,
                &enc.norm,
                &enc.corpus.train,
                cfg.embed_dim,
                cfg.max_train_samples_per_task,
                &mut enc.rng,
            ),
            None,
        ),
    };
    let val_batches = build_task_batches(
        &enc.graph,
        &enc.norm,
        &enc.corpus.validation,
        cfg.embed_dim,
        cfg.sampler.as_ref().map(|s| s.batch_rows),
        &mut enc.rng,
    );
    trace.exit(names::BATCH_BUILD, 0, batch_span);

    // A GNN-tier column can still end up with zero training samples (e.g.
    // every observed cell landed in the validation split): it cannot learn
    // a head either, so it steps down to the baseline tier. Not in delta
    // mode — there an empty batch just means the appended rows brought no
    // new observations for a column whose head is already trained (the
    // resumed checkpoint carries its weights), so it stays on the GNN tier —
    // and not for a FedAvg party, whose heads the other parties train.
    if delta_from.is_none() && federation.is_none() {
        for (j, tb) in train_batches.iter().enumerate() {
            if tiers[j] == ColumnTier::Gnn && tb.is_none() {
                tiers[j] = ColumnTier::Baseline;
            }
        }
    }
    let report = TrainReport {
        n_weights: enc.n_weights,
        downscales: admitted.downscales,
        backend_threads: cfg.backend.threads(),
        sampler_batch_rows: cfg.sampler.as_ref().map(|s| s.batch_rows),
        sampler_fanout: cfg.sampler.as_ref().map(|s| s.fanout),
        ..Default::default()
    };
    trace.exit(names::BUILD, 0, span);
    let net = TaskNet {
        enc,
        tasks,
        tiers,
        train_batches,
        val_batches,
        sampled,
        seed: cfg.seed,
        categorical_loss: cfg.categorical_loss,
        #[cfg(any(test, feature = "fault-injection"))]
        fault_plan: cfg.fault_injection,
        #[cfg(any(test, feature = "fault-injection"))]
        injected: 0,
    };
    Built {
        cfg,
        tape,
        net,
        report,
    }
}

impl Built {
    /// The inference handle over this model, imputing from `params` (the
    /// tape's current values when `None`).
    pub(crate) fn into_fitted(
        self,
        train_dirty: Table,
        params: Option<Vec<Tensor>>,
        mut report: TrainReport,
    ) -> FittedModel {
        let mut tape = self.tape;
        let net = self.net;
        let enc = net.enc;
        let mut gnn = enc.gnn;
        if net.sampled.is_some() {
            // Sampled training leaves the GNN on an epoch's sampled
            // adjacency; imputation aggregates over the full graph.
            gnn.rebind(&enc.graph);
        }
        let params = params.unwrap_or_else(|| tape.snapshot_param_values());
        debug_assert_eq!(
            enc.x,
            Var::from_index(params.len()),
            "the trainable parameters precede the features on the tape"
        );
        report.column_tiers = net.tiers;
        FittedModel {
            config: self.cfg,
            normalizer: enc.normalizer,
            norm: enc.norm,
            train_dirty,
            graph: enc.graph,
            gnn,
            merge: enc.merge,
            tasks: net.tasks,
            params,
            features: std::mem::replace(tape.value_mut(enc.x), Tensor::zeros(0, 0)),
            ft_seed: enc.ft_seed,
            report,
        }
    }
}

impl Objective for TaskNet {
    /// Neighbor-sampled mode: re-draw this epoch's sampled adjacency and
    /// mini-batches before the forward pass. Every draw is a pure function
    /// of (seed, epoch, task) — independent of the training RNG stream — so
    /// resumed and rolled-back epochs re-draw identically.
    fn before_epoch(&mut self, epoch: u64, trace: &mut Trace<'_>) -> u64 {
        let Some(st) = self.sampled.as_mut() else {
            return 0;
        };
        let sampled_edges = st.sampler.sample_epoch(epoch);
        self.enc.gnn.rebind_lists(st.sampler.lists());
        for (j, pool) in st.pools.iter_mut().enumerate() {
            let Some(pool) = pool else { continue };
            if self.tiers[j] != ColumnTier::Gnn {
                continue;
            }
            let Some(tb) = self.train_batches[j].as_mut() else {
                continue;
            };
            pool.refill_epoch(
                self.seed,
                epoch,
                j as u64,
                st.batch_rows,
                &self.enc.graph,
                &self.enc.norm,
                &mut st.scratch,
                tb,
            );
        }
        trace.counter(names::SAMPLED_EDGES, epoch, sampled_edges);
        sampled_edges
    }

    fn losses(
        &mut self,
        tape: &mut Tape,
        epoch: usize,
        trace: &mut Trace<'_>,
        anomalies: &mut Vec<TrainAnomaly>,
        losses: &mut Vec<Var>,
    ) -> f32 {
        // The heads read cell-node rows only, so the GNN's last layer and
        // the merge compute just those.
        let rows = readout_rows(&self.enc.graph);
        trace.counter(names::GNN_ROWS, epoch as u64, rows.len() as u64);
        let h0 = self.enc.gnn.forward_rows(tape, self.enc.x, rows);
        let h = self.enc.merge.forward(tape, h0);
        for (j, (task, tb)) in self.tasks.iter().zip(self.train_batches.iter()).enumerate() {
            if self.tiers[j] != ColumnTier::Gnn {
                continue;
            }
            let Some(tb) = tb else { continue };
            let l = task_loss(tape, task, h, tb, self.categorical_loss);
            #[cfg(any(test, feature = "fault-injection"))]
            inject_task_loss_fault(
                tape,
                l,
                self.fault_plan.as_ref(),
                j,
                epoch,
                &mut self.injected,
            );
            let lv = tape.value(l).item();
            if !lv.is_finite() {
                // Per-column divergence: demote just this column and keep
                // training the others. The poisoned loss node is excluded
                // from the summed objective, so backward never touches it.
                demote_diverged(&mut self.tiers, j, epoch, trace, anomalies);
                continue;
            }
            if trace.is_enabled() {
                trace.metric(names::TASK_LOSS, j as u64, f64::from(lv));
            }
            losses.push(l);
        }
        let mut val_total = 0.0f32;
        for (j, (task, tb)) in self.tasks.iter().zip(&self.val_batches).enumerate() {
            if self.tiers[j] != ColumnTier::Gnn {
                continue;
            }
            let Some(tb) = tb else { continue };
            let l = task_loss(tape, task, h, tb, self.categorical_loss);
            let lv = tape.value(l).item();
            if !lv.is_finite() {
                demote_diverged(&mut self.tiers, j, epoch, trace, anomalies);
                continue;
            }
            val_total += lv;
        }
        val_total
    }
}

/// Step column `j` down to the baseline tier after its task loss diverged.
fn demote_diverged(
    tiers: &mut [ColumnTier],
    j: usize,
    epoch: usize,
    trace: &mut Trace<'_>,
    anomalies: &mut Vec<TrainAnomaly>,
) {
    let a = TrainAnomaly::NonFiniteTaskLoss { epoch, column: j };
    trace.counter(names::ANOMALY, epoch as u64, engine::anomaly_code(&a));
    anomalies.push(a);
    trace.counter(names::COLUMN_DEMOTED, j as u64, epoch as u64);
    tiers[j] = ColumnTier::Baseline;
}

/// Stage 4, finalize: the drift check of an append fine-tune, the tier
/// demotions the run's outcome calls for, and the final checkpoint — all
/// inside the [`names::FINALIZE`] span — then the fitted model.
fn finalize(
    mut built: Built,
    mut trainer: Trainer,
    dirty: &Table,
    delta_from: Option<usize>,
    trace: &mut Trace<'_>,
) -> FittedModel {
    let span = trace.enter(names::FINALIZE, 0);
    let state = trainer.state;
    let report = &mut trainer.report;
    let degraded = report.degraded_to_baseline;
    // Drift trigger (delta mode): when the fine-tuned model's final
    // validation loss regressed beyond the configured band relative to the
    // run's best, the delta has drifted from the base distribution and a
    // full refit is scheduled (recorded here; the incremental driver acts
    // on it at the next append).
    if delta_from.is_some() && !degraded {
        if let Some(last) = report.epochs.last() {
            let best = f64::from(state.best_val);
            let drift = (f64::from(last.val_loss) - best) / best.max(1e-6);
            report.drift = Some(drift);
            trace.metric(names::DRIFT, state.epoch as u64, drift);
            if drift > f64::from(built.cfg.finetune.drift_band) {
                report.refit_scheduled = true;
                trace.counter(names::REFIT_SCHEDULED, state.epoch as u64, 1);
            }
        }
    }
    report.recoveries = state.recoveries;
    // A run-level degradation is the bottom of the ladder for every column
    // that was still training: each steps down to its mode/mean baseline.
    // So does a deadline or interrupt that fired before a single epoch
    // completed (and without a resumed checkpoint): the task heads are
    // still at their random init, and imputing from them would be noise.
    if degraded || ((report.deadline_hit || report.interrupted) && state.epoch == 0) {
        for t in built.net.tiers.iter_mut() {
            if *t == ColumnTier::Gnn {
                *t = ColumnTier::Baseline;
            }
        }
    }
    for (j, t) in built.net.tiers.iter().enumerate() {
        trace.counter(names::COLUMN_TIER, j as u64, t.code());
    }
    // Final checkpoint, so resuming a finished run is a no-op. Skipped
    // when degraded: the surviving state is the rolled-back one and the
    // caller should restart, not resume, such a run.
    if !degraded {
        trainer.final_checkpoint(&built.cfg, &built.tape, trace);
    }
    trace.exit(names::FINALIZE, 0, span);
    built.into_fitted(dirty.clone(), trainer.best_params, trainer.report)
}

/// Rebuild a [`FittedModel`] from a saved [`TrainCheckpoint`] without
/// training: the admit and build stages reconstruct the model *structure*
/// (graph, features, tape, task heads) deterministically from the table
/// and configuration — exactly as a fit builds it, including any
/// admission-time memory downscale — and the checkpoint's weights are
/// restored onto it.
///
/// No checkpoint-directory lock is taken and nothing is written: a serving
/// process can restore from a directory a trainer is actively rotating.
///
/// # Errors
/// [`GrimpError::EmptySchema`] for a zero-column table, or
/// [`GrimpError::Checkpoint`]-shaped corruption when the checkpoint's
/// parameter shapes do not match the rebuilt structure (a checkpoint from
/// a different table or configuration).
pub(crate) fn restore_model(
    config: &GrimpConfig,
    fds: &FdSet,
    dirty: &Table,
    ck: &TrainCheckpoint,
    sink: &mut dyn EventSink,
) -> Result<FittedModel, GrimpError> {
    if dirty.n_columns() == 0 {
        return Err(GrimpError::EmptySchema);
    }
    let start = Instant::now();
    let mut trace = Trace::new(sink);
    let fit_span = trace.enter(names::FIT, 0);
    let admitted = admit(config, dirty, &mut trace);
    let mut built = build(admitted, fds, dirty, None, None, &mut trace);
    let report = std::mem::take(&mut built.report);
    // Imputation runs from the best-validation parameters, falling back to
    // the last epoch's for checkpoints taken before the first improvement.
    let params = ck.best_params.as_ref().unwrap_or(&ck.params);
    let fitted = engine::snapshot_shapes_match(&built.tape, params)
        .then(|| built.into_fitted(dirty.clone(), Some(params.clone()), report));
    let dt = start.elapsed().as_secs_f64();
    trace.exit_with(names::FIT, 0, fit_span, dt);
    let _ = trace.flush();
    let mut fitted = fitted.ok_or_else(|| GrimpError::Checkpoint {
        path: std::path::PathBuf::from("<in-memory checkpoint>"),
        source: grimp_tensor::CheckpointError::Corrupt(
            "parameter shapes do not match this model".to_string(),
        ),
    })?;
    fitted.report.seconds = dt;
    Ok(fitted)
}

/// Mode/mean fallback (safety net of [`Grimp::fit_impute_traced`]): every
/// column fills from its baseline rung — mode or mean, else the global
/// constant — so every missing cell is filled, without exception.
fn baseline_fill(dirty: &Table) -> Table {
    let mut result = dirty.clone();
    for j in 0..dirty.n_columns() {
        fill_column_from_ladder(&mut result, dirty, j, ColumnTier::Baseline);
    }
    result
}

/// Poison task `column`'s loss value with `NaN` when the fault plan says
/// so: a per-column divergence that must demote only that column down the
/// degradation ladder.
#[cfg(any(test, feature = "fault-injection"))]
fn inject_task_loss_fault(
    tape: &mut Tape,
    loss: Var,
    plan: Option<&crate::fault::FaultPlan>,
    column: usize,
    epoch: usize,
    injected: &mut usize,
) {
    use crate::fault::FaultKind;
    if !engine::fault_due(plan, FaultKind::TaskLossNan(column), epoch, injected) {
        return;
    }
    if let Some(first) = tape.value_mut(loss).as_mut_slice().first_mut() {
        *first = f32::NAN;
    }
}

impl Imputer for Grimp {
    fn name(&self) -> &str {
        variant_name(&self.config)
    }

    fn impute(&mut self, dirty: &Table) -> Table {
        self.fit_impute(dirty)
    }
}

/// Tile/truncate pre-trained attribute vectors (`n_cols × feat_dim`) into a
/// `n_cols × embed_dim` initialization for the attention matrix `Q`.
fn attribute_q_init(
    attr_matrix: &[f32],
    feat_dim: usize,
    n_cols: usize,
    embed_dim: usize,
) -> Tensor {
    let mut q = Tensor::zeros(n_cols, embed_dim);
    for c in 0..n_cols {
        let src = &attr_matrix[c * feat_dim..(c + 1) * feat_dim];
        for d in 0..embed_dim {
            q.set(c, d, src[d % feat_dim]);
        }
    }
    q
}

/// Stream tag separating the mini-batch row draws from the neighbor
/// sampler's streams (which chain from the bare `seed ^ epoch`).
const BATCH_STREAM_TAG: u64 = 0x4241_5443_4852_5753; // "BATCHRWS"

/// One task's full training pool in sampled mode: every sample the task
/// owns, kept so each epoch can re-draw a fixed-size mini-batch from it.
/// Only tasks whose pool exceeds `batch_rows` get one — smaller tasks keep
/// their (full) fixed batch and never refill.
struct TaskPool {
    /// `(row, target_col)` of every training sample of this task.
    positions: Vec<(usize, usize)>,
    labels: Labels,
    /// Scratch permutation for the per-epoch partial Fisher–Yates draw.
    perm: Vec<u32>,
}

impl TaskPool {
    /// Draw `k` distinct pool rows for `epoch` and rewrite the task's
    /// fixed-shape batch (gather indices, masks, labels) in place.
    ///
    /// The draw is a partial Fisher–Yates over a *fresh* identity
    /// permutation keyed on `(seed, epoch, task)`: uniform without
    /// replacement, allocation-free after the first epoch, and — because it
    /// never carries state across epochs — bit-identical whether the epoch
    /// is reached by straight training, a divergence rollback, or a resume.
    #[allow(clippy::too_many_arguments)]
    fn refill_epoch(
        &mut self,
        seed: u64,
        epoch: u64,
        task: u64,
        k: usize,
        graph: &TableGraph,
        table: &Table,
        scratch: &mut Vec<(usize, usize)>,
        tb: &mut TaskBatch,
    ) {
        let n = self.positions.len();
        debug_assert!(k <= n);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i as u32;
        }
        let mut state = splitmix64(seed ^ BATCH_STREAM_TAG ^ epoch);
        state = splitmix64(state ^ task);
        for i in 0..k {
            state = splitmix64(state);
            let j = i + (state % (n - i) as u64) as usize;
            self.perm.swap(i, j);
        }
        scratch.clear();
        scratch.extend(self.perm[..k].iter().map(|&i| self.positions[i as usize]));
        tb.batch.refill(graph, table, scratch);
        match (&mut tb.labels, &self.labels) {
            (Labels::Cat(dst), Labels::Cat(src)) => {
                let dst = Arc::get_mut(dst)
                    .expect("refill requires the previous epoch's labels to be released");
                for (slot, &i) in self.perm[..k].iter().enumerate() {
                    dst[slot] = src[i as usize];
                }
            }
            (Labels::Num(dst), Labels::Num(src)) => {
                let dst = Arc::get_mut(dst)
                    .expect("refill requires the previous epoch's labels to be released");
                for (slot, &i) in self.perm[..k].iter().enumerate() {
                    dst[slot] = src[i as usize];
                }
            }
            _ => unreachable!("a column's label kind is fixed"),
        }
    }
}

/// Runtime state of the neighbor-sampled training mode.
struct SampledTraining {
    sampler: NeighborSampler,
    batch_rows: usize,
    /// Parallel to the task list; `None` for tasks that never refill.
    pools: Vec<Option<TaskPool>>,
    /// Reused buffer of the epoch's selected `(row, target_col)` pairs.
    scratch: Vec<(usize, usize)>,
}

/// Sampled-mode counterpart of [`build_task_batches`]: tasks with at most
/// `batch_rows` samples get the same full fixed batch they would get in
/// full-batch mode; larger tasks get a fixed `batch_rows`-sized batch
/// (contents are overwritten by the epoch-0 refill before first use) plus a
/// [`TaskPool`] holding the complete sample pool.
fn build_sampled_task_batches(
    graph: &TableGraph,
    table: &Table,
    per_task: &[Vec<TrainingSample>],
    dim: usize,
    batch_rows: usize,
) -> (Vec<Option<TaskBatch>>, Vec<Option<TaskPool>>) {
    let mut batches = Vec::with_capacity(per_task.len());
    let mut pools = Vec::with_capacity(per_task.len());
    for (j, samples) in per_task.iter().enumerate() {
        let samples: Vec<&TrainingSample> = samples.iter().collect();
        let pooled = samples.len() > batch_rows;
        let fixed = if pooled {
            &samples[..batch_rows]
        } else {
            &samples
        };
        batches.push(task_batch(graph, table, j, fixed, dim));
        pools.push(pooled.then(|| TaskPool {
            perm: (0..samples.len() as u32).collect(),
            positions: samples.iter().map(|s| (s.row, s.target_col)).collect(),
            labels: labels_of(table, j, &samples),
        }));
    }
    (batches, pools)
}

/// The fixed per-task batches of full-batch mode, each task capped at
/// `cap` samples by a shuffled draw.
fn build_task_batches(
    graph: &TableGraph,
    table: &Table,
    per_task: &[Vec<TrainingSample>],
    dim: usize,
    cap: Option<usize>,
    rng: &mut StdRng,
) -> Vec<Option<TaskBatch>> {
    per_task
        .iter()
        .enumerate()
        .map(|(j, samples)| {
            let mut samples: Vec<&TrainingSample> = samples.iter().collect();
            if let Some(cap) = cap {
                if samples.len() > cap {
                    samples.shuffle(rng);
                    samples.truncate(cap);
                }
            }
            task_batch(graph, table, j, &samples, dim)
        })
        .collect()
}

/// Task `j`'s batch over `samples` (`None` when there are none).
fn task_batch(
    graph: &TableGraph,
    table: &Table,
    j: usize,
    samples: &[&TrainingSample],
    dim: usize,
) -> Option<TaskBatch> {
    if samples.is_empty() {
        return None;
    }
    let positions: Vec<(usize, usize)> = samples.iter().map(|s| (s.row, s.target_col)).collect();
    Some(TaskBatch {
        batch: VectorBatch::build_readout(graph, table, &positions, dim),
        labels: labels_of(table, j, samples),
    })
}

/// The labels of task `j`'s samples, in order.
fn labels_of(table: &Table, j: usize, samples: &[&TrainingSample]) -> Labels {
    match table.schema().column(j).kind {
        ColumnKind::Categorical => Labels::Cat(Arc::new(
            samples
                .iter()
                .map(|s| s.label.as_cat().expect("categorical label"))
                .collect(),
        )),
        ColumnKind::Numerical => Labels::Num(Arc::new(
            samples
                .iter()
                .map(|s| s.label.as_num().expect("numerical label") as f32)
                .collect(),
        )),
    }
}

fn task_loss(
    tape: &mut Tape,
    task: &Task,
    h: Var,
    tb: &TaskBatch,
    cat_loss: CategoricalLoss,
) -> Var {
    let out = task.forward(tape, h, &tb.batch);
    match &tb.labels {
        Labels::Cat(targets) => match cat_loss {
            CategoricalLoss::CrossEntropy => tape.softmax_cross_entropy(out, Arc::clone(targets)),
            CategoricalLoss::Focal(gamma) => tape.focal_loss(out, Arc::clone(targets), gamma),
        },
        Labels::Num(targets) => tape.mse_loss(out, Arc::clone(targets)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use grimp_graph::FeatureSource;
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};
    use rand::SeedableRng;

    /// A table where column `b` is a deterministic function of column `a` —
    /// any reasonable imputer should recover blanked `b` cells.
    fn functional_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 4);
            let b = format!("b{}", i % 4);
            let x = format!("{}", (i % 4) as f64 * 10.0);
            t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
        }
        t
    }

    fn tiny_config(kind: TaskKind) -> GrimpConfig {
        GrimpConfig {
            features: FeatureSource::FastText,
            feature_dim: 16,
            gnn: grimp_gnn::GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            merge_hidden: 32,
            embed_dim: 16,
            task_kind: kind,
            max_epochs: 80,
            patience: 15,
            lr: 2e-2,
            seed: 7,
            ..GrimpConfig::paper()
        }
    }

    #[test]
    fn imputation_satisfies_the_contract() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
    }

    #[test]
    #[should_panic(expected = "gnn.neighbor_cap must be at least 1")]
    fn fit_impute_rejects_a_zero_neighbor_cap_before_training() {
        let mut dirty = functional_table(40);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut config = tiny_config(TaskKind::Attention);
        config.gnn.neighbor_cap = Some(0);
        Grimp::new(config).fit_impute(&dirty);
    }

    #[test]
    fn learns_functional_relationship_with_attention() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        // accuracy on categorical cells must beat the 25 % random baseline
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "categorical accuracy too low: {acc}");
        let report = model.last_report().unwrap();
        assert!(report.epochs_run > 0);
        assert_eq!(report.train_losses().len(), report.epochs_run);
        assert_eq!(report.epochs.len(), report.epochs_run);
    }

    #[test]
    fn linear_tasks_also_work() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(3));
        let mut model = Grimp::new(tiny_config(TaskKind::Linear));
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert!(cat_accuracy(&log, &imputed) > 0.5);
    }

    #[test]
    fn numerical_imputations_are_denormalized() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(4));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let imputed = model.fit_impute(&dirty);
        // imputed numericals must be in the vicinity of the column's range
        for i in 0..imputed.n_rows() {
            if dirty.is_missing(i, 2) {
                let v = imputed.get(i, 2).as_num().unwrap();
                assert!(
                    (-30.0..60.0).contains(&v),
                    "imputed numeric {v} out of range"
                );
            }
        }
    }

    #[test]
    fn focal_loss_variant_trains_and_imputes() {
        // the paper's alternative categorical loss (§3.6): same pipeline,
        // focal loss with γ = 2
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(8));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.categorical_loss = crate::config::CategoricalLoss::Focal(2.0);
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert!(
            cat_accuracy(&log, &imputed) > 0.5,
            "focal-loss variant underperforms"
        );
    }

    #[test]
    fn early_stopping_fires_with_zero_patience_budget() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));
        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.patience = 1;
        cfg.max_epochs = 50;
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.epochs_run <= 50);
    }

    /// Accuracy of `imputed` on the categorical cells of an injection log.
    fn cat_accuracy(log: &grimp_table::CorruptionLog, imputed: &Table) -> f64 {
        let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
        let correct = cat
            .iter()
            .filter(|c| imputed.get(c.row, c.col) == c.truth)
            .count();
        correct as f64 / cat.len().max(1) as f64
    }

    #[test]
    fn injected_nan_gradient_is_detected_rolled_back_and_converges() {
        let clean = functional_table(80);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 3,
            times: 1,
            kind: crate::fault::FaultKind::GradNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert_eq!(report.anomalies_detected(), 1, "{:?}", report.anomalies);
        assert!(matches!(
            report.anomalies[0],
            crate::fault::TrainAnomaly::NonFiniteGradient { epoch: 3, .. }
        ));
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded_to_baseline);
        // the recovered run must still reach clean-run accuracy tolerance
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "post-recovery accuracy too low: {acc}");
    }

    #[test]
    fn injected_nan_parameter_is_detected_and_recovered() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(4));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 2,
            times: 1,
            kind: crate::fault::FaultKind::ParamNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(matches!(
            report.anomalies[0],
            crate::fault::TrainAnomaly::NonFiniteParameter { epoch: 2 }
        ));
        assert_eq!(report.recoveries, 1);
        assert!(!report.degraded_to_baseline);
    }

    #[test]
    fn exhausted_recoveries_degrade_to_baseline_and_still_impute_every_cell() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(6));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_recoveries = 2;
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 1,
            times: usize::MAX, // every retry is re-poisoned
            kind: crate::fault::FaultKind::ParamNan,
        });
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.degraded_to_baseline);
        assert_eq!(report.recoveries, 3, "budget of 2 plus the final straw");
        assert_eq!(report.anomalies_detected(), 3);
        // graceful degradation contract: imputed differs only at missing
        // cells and no imputable cell is left missing
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0, "baseline must fill every cell");
    }

    #[test]
    fn recovery_halves_the_learning_rate_each_time() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(9));
        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.max_epochs = 10;
        cfg.max_recoveries = 5;
        cfg.fault_injection = Some(crate::fault::FaultPlan {
            at_epoch: 0,
            times: 2,
            kind: crate::fault::FaultKind::GradNan,
        });
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.recoveries, 2);
        assert_eq!(report.anomalies_detected(), 2);
        assert!(!report.degraded_to_baseline);
        assert!(report.epochs_run > 0, "training resumed after recovery");
    }

    #[test]
    fn gradient_clipping_activates_and_training_still_imputes() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_grad_norm = Some(1e-3); // absurdly tight: clips every epoch
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(report.clip_activations > 0);
        assert_eq!(report.clip_activations, report.epochs_run);
        assert!(report.grad_norms().iter().all(|n| n.is_finite()));
        assert_eq!(report.grad_norms().len(), report.epochs_run);
    }

    #[test]
    fn healthy_runs_report_grad_norms_and_no_anomalies() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(1));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.anomalies_detected(), 0);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.clip_activations, 0, "default threshold never fires");
        assert_eq!(report.grad_norms().len(), report.epochs_run);
        assert!(
            report.checkpoint_bytes > 0,
            "size is reported even w/o disk"
        );
        assert!(!report.degraded_to_baseline);
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(3));
        let dir = std::env::temp_dir().join("grimp-resume-unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 30;
        cfg.patience = 30;

        // uninterrupted reference
        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);

        // phase 1: "killed" after 11 epochs, checkpointing to disk
        let mut phase1 = cfg.clone();
        phase1.max_epochs = 11;
        phase1.checkpoint_dir = Some(dir.clone());
        let _ = Grimp::new(phase1).fit_impute(&dirty);

        // phase 2: resume and finish
        let mut phase2 = cfg.clone();
        phase2.checkpoint_dir = Some(dir.clone());
        phase2.resume = true;
        let mut model = Grimp::new(phase2);
        let resumed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.resumed_from_epoch, Some(11));
        assert_eq!(report.epochs_run, 30 - 11);

        assert_tables_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_reported_and_training_restarts() {
        let clean = functional_table(40);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(7));
        let dir = std::env::temp_dir().join("grimp-corrupt-ckpt-unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(crate::checkpoint::CHECKPOINT_FILE), b"garbage").unwrap();

        let mut cfg = tiny_config(TaskKind::Linear);
        cfg.max_epochs = 5;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = true;
        let mut model = Grimp::new(cfg);
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        let report = model.last_report().unwrap();
        assert!(report.resumed_from_epoch.is_none());
        assert_eq!(report.io_errors.len(), 1, "{:?}", report.io_errors);
        assert!(report.epochs_run > 0, "training restarted from scratch");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cell-by-cell bit-exact comparison (numericals via `f64::to_bits`).
    fn assert_tables_bit_identical(a: &Table, b: &Table) {
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.n_columns(), b.n_columns());
        for i in 0..a.n_rows() {
            for j in 0..a.n_columns() {
                match (a.get(i, j), b.get(i, j)) {
                    (Value::Num(x), Value::Num(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "cell ({i}, {j}): {x} vs {y}")
                    }
                    (x, y) => assert_eq!(x, y, "cell ({i}, {j})"),
                }
            }
        }
    }

    #[test]
    fn sampled_training_fills_every_cell_and_is_deterministic() {
        let clean = functional_table(200);
        let mut dirty = clean.clone();
        let log = inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(21));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 32,
            fanout: 4,
        });
        let mut model = Grimp::new(cfg.clone());
        let imputed = model.fit_impute(&dirty);
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0, "sampled mode must fill every cell");
        let report = model.last_report().unwrap();
        assert_eq!(report.sampler_batch_rows, Some(32));
        assert_eq!(report.sampler_fanout, Some(4));
        assert!(report.epochs.iter().all(|e| e.sampled_edges > 0));
        // the sampled batches still learn the functional dependency
        let acc = cat_accuracy(&log, &imputed);
        assert!(acc > 0.5, "sampled-mode accuracy too low: {acc}");
        // bit-identical across runs with the same seed
        let again = Grimp::new(cfg).fit_impute(&dirty);
        assert_tables_bit_identical(&imputed, &again);
    }

    #[test]
    fn sampled_training_allocates_nothing_after_the_first_epoch() {
        let clean = functional_table(160);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(22));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 12;
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 24,
            fanout: 3,
        });
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert!(report.epochs_run > 2, "need steady-state epochs to measure");
        for e in &report.epochs[1..] {
            assert_eq!(
                e.allocs, 0,
                "epoch {} missed the tape workspace {} times",
                e.epoch, e.allocs
            );
        }
    }

    /// A 16-column table: eight categorical and eight numerical columns,
    /// each a function of the row's group.
    fn wide_table(n: usize) -> Table {
        let names: Vec<String> = (0..16).map(|j| format!("c{j}")).collect();
        let pairs: Vec<(&str, ColumnKind)> = names
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let kind = if j % 2 == 0 {
                    ColumnKind::Categorical
                } else {
                    ColumnKind::Numerical
                };
                (name.as_str(), kind)
            })
            .collect();
        let mut t = Table::empty(Schema::from_pairs(&pairs));
        for i in 0..n {
            let row: Vec<String> = (0..16)
                .map(|j| {
                    let g = (i + j) % 5;
                    if j % 2 == 0 {
                        format!("v{g}")
                    } else {
                        format!("{}", g as f64 * 1.5)
                    }
                })
                .collect();
            let cells: Vec<Option<&str>> = row.iter().map(|s| Some(s.as_str())).collect();
            t.push_str_row(&cells);
        }
        t
    }

    #[test]
    fn wide_tables_allocate_nothing_after_the_first_epoch() {
        // Sixteen task heads put hundreds of same-sized buffers into one
        // epoch; the workspace must keep every one of them for the next.
        let mut dirty = wide_table(40);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(25));
        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 4;
        cfg.patience = 4;
        let mut model = Grimp::new(cfg);
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.epochs_run, 4);
        assert!(
            report.epochs[0].allocs > 0,
            "the first epoch fills the workspace"
        );
        for e in &report.epochs[1..] {
            assert_eq!(
                e.allocs, 0,
                "epoch {} missed the tape workspace {} times",
                e.epoch, e.allocs
            );
        }
    }

    #[test]
    fn full_batch_runs_are_unchanged_by_the_sampler_machinery() {
        // cfg.sampler = None must keep the exact pre-sampler behavior:
        // no sampler provenance in the report, zero sampled edges.
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(23));
        let mut model = Grimp::new(tiny_config(TaskKind::Attention));
        let _ = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.sampler_batch_rows, None);
        assert_eq!(report.sampler_fanout, None);
        assert!(report.epochs.iter().all(|e| e.sampled_edges == 0));
    }

    #[test]
    fn sampled_run_resumes_bit_identically() {
        let clean = functional_table(150);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(24));
        let dir = std::env::temp_dir().join("grimp-sampled-resume-unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = tiny_config(TaskKind::Attention);
        cfg.max_epochs = 20;
        cfg.patience = 20;
        cfg.sampler = Some(crate::config::SamplerConfig {
            batch_rows: 32,
            fanout: 4,
        });

        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);

        // the per-epoch draws are keyed on (seed, epoch), so a run killed
        // mid-way and resumed must re-draw the remaining epochs identically
        let mut phase1 = cfg.clone();
        phase1.max_epochs = 7;
        phase1.checkpoint_dir = Some(dir.clone());
        let _ = Grimp::new(phase1).fit_impute(&dirty);

        // resume is only rejected for *user* configs (validate()); the
        // structure config here mimics the governor-applied path by
        // setting the fields directly
        let mut phase2 = cfg.clone();
        phase2.checkpoint_dir = Some(dir.clone());
        phase2.resume = true;
        let mut model = Grimp::new(phase2);
        let resumed = model.fit_impute(&dirty);
        let report = model.last_report().unwrap();
        assert_eq!(report.resumed_from_epoch, Some(7));

        assert_tables_bit_identical(&reference, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn imputer_trait_names_variants() {
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Attention)).name(),
            "GRIMP-FT"
        );
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Attention).with_features(FeatureSource::Embdi)).name(),
            "GRIMP-E"
        );
        assert_eq!(
            Grimp::new(tiny_config(TaskKind::Linear)).name(),
            "GRIMP-linear"
        );
    }

    #[test]
    fn fitted_model_imputes_the_training_table_like_fit_impute() {
        let clean = functional_table(60);
        let mut dirty = clean.clone();
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(11));
        let cfg = tiny_config(TaskKind::Attention);
        let reference = Grimp::new(cfg.clone()).fit_impute(&dirty);
        let mut sink = NullSink;
        let fitted = fit_model(&cfg, &FdSet::empty(), &dirty, &mut sink).unwrap();
        let via_pipeline = fitted.impute(&dirty).unwrap();
        assert_tables_bit_identical(&reference, &via_pipeline);
        // a second impute of the same table is stable
        let again = fitted.impute(&dirty).unwrap();
        assert_tables_bit_identical(&reference, &again);
    }
}
