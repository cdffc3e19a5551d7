//! GRIMP hyperparameters.

use grimp_gnn::GnnConfig;
use grimp_graph::{EmbdiConfig, FeatureSource, GraphConfig};
use grimp_tensor::BackendKind;

/// Which task-specific head to use (paper §3.5, Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Fully connected layers only — faster, slightly less accurate.
    Linear,
    /// The attention structure of Fig. 6 — the paper's default.
    Attention,
}

/// How the attention selection matrix `K` is built (paper Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KStrategy {
    /// All columns weighted equally.
    Diagonal,
    /// Only the task's own column is attended.
    TargetColumn,
    /// Target column weighted highest, others still considered
    /// (the paper's default).
    WeakDiagonal,
    /// Weak diagonal plus extra weight on columns sharing an FD with the
    /// task's column (GRIMP-A in §4.3).
    WeakDiagonalFd,
}

/// Loss used for categorical tasks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CategoricalLoss {
    /// Standard softmax cross-entropy.
    CrossEntropy,
    /// Focal loss with the given `γ`.
    Focal(f32),
}

/// Neighbor-sampled mini-batch training (the scale path for 100k+-row
/// tables). When set, each epoch trains on one deterministic mini-batch —
/// `batch_rows` samples per task, drawn epoch-indexed from the seed — over
/// a graph whose per-node neighbor lists are capped at `fanout`, so peak
/// task-activation memory scales with the batch instead of the table.
/// `None` (the default) keeps full-batch training, bit-identical to
/// earlier releases.
///
/// The first grouped sub-config of the builder redesign:
/// `GrimpConfig::builder().sampler(SamplerConfig { batch_rows, fanout })`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Training samples drawn per task per epoch (CLI `--batch-rows`).
    /// Tasks with fewer samples use all of them.
    pub batch_rows: usize,
    /// Neighbors kept per node per edge type in the sampled adjacency
    /// (CLI `--fanout`). Nodes with degree at or below the fanout keep
    /// every neighbor.
    pub fanout: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            batch_rows: 4096,
            fanout: 8,
        }
    }
}

impl SamplerConfig {
    /// Field-range checks owned by this sub-config (cross-field checks
    /// against the rest of the configuration live in
    /// [`GrimpConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_rows == 0 {
            return Err(ConfigError::ZeroBatchRows);
        }
        if self.fanout == 0 {
            return Err(ConfigError::ZeroFanout);
        }
        Ok(())
    }
}

/// Warm-start fine-tuning policy for appended rows, grouped for the
/// builder: `GrimpConfig::builder().finetune(FinetuneConfig { .. })`.
///
/// An append replays the WAL delta onto the existing checkpoint and trains
/// at most `epochs` additional epochs (training batches restricted to the
/// appended rows; LR, optimizer moments, and RNG resume from the
/// checkpoint, with the divergence guard and rollback-retry machinery
/// armed exactly as in a full fit). After the fine-tune, a validation-loss
/// regression beyond `drift_band` (relative to the best validation loss)
/// schedules a full refit, recorded in
/// [`crate::TrainReport::refit_scheduled`] and the event trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FinetuneConfig {
    /// Maximum extra epochs a fine-tune may train past the checkpoint it
    /// warm-starts from (CLI `--finetune-epochs`).
    pub epochs: usize,
    /// Relative validation-loss regression band that triggers a scheduled
    /// full refit: drift is flagged when the post-fine-tune validation
    /// loss exceeds `best_val * (1 + drift_band)` (CLI `--drift-band`).
    pub drift_band: f32,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 8,
            drift_band: 0.25,
        }
    }
}

impl FinetuneConfig {
    /// Field-range checks owned by this sub-config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epochs == 0 {
            return Err(ConfigError::ZeroFinetuneEpochs);
        }
        if !(self.drift_band.is_finite() && self.drift_band >= 0.0) {
            return Err(ConfigError::InvalidDriftBand(self.drift_band));
        }
        Ok(())
    }
}

/// Resource-governance bounds, grouped for the builder:
/// `GrimpConfig::builder().limits(ResourceLimits { .. })`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceLimits {
    /// Wall-clock training budget in seconds (`None` disables it); see
    /// [`GrimpConfig::deadline_secs`].
    pub deadline_secs: Option<f64>,
    /// Memory budget in MiB for admission-time downscaling (`None`
    /// disables it); see [`GrimpConfig::memory_budget_mb`].
    pub memory_budget_mb: Option<usize>,
}

impl ResourceLimits {
    /// Field-range checks owned by this sub-config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(deadline) = self.deadline_secs {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(ConfigError::InvalidDeadline(deadline));
            }
        }
        if self.memory_budget_mb == Some(0) {
            return Err(ConfigError::ZeroMemoryBudget);
        }
        Ok(())
    }
}

/// Checkpointing and recovery policy, grouped for the builder:
/// `GrimpConfig::builder().checkpointing(CheckpointPolicy { .. })`.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointPolicy {
    /// Directory for the training checkpoint file; see
    /// [`GrimpConfig::checkpoint_dir`].
    pub dir: Option<std::path::PathBuf>,
    /// Write a checkpoint every this many completed epochs; see
    /// [`GrimpConfig::checkpoint_every`].
    pub every: usize,
    /// Resume from an existing checkpoint in `dir`; see
    /// [`GrimpConfig::resume`].
    pub resume: bool,
    /// Divergence-recovery budget; see [`GrimpConfig::max_recoveries`].
    pub max_recoveries: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            dir: None,
            every: 1,
            resume: false,
            max_recoveries: 2,
        }
    }
}

impl CheckpointPolicy {
    /// Cross-field checks owned by this sub-config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.resume && self.dir.is_none() {
            return Err(ConfigError::ResumeWithoutCheckpointDir);
        }
        Ok(())
    }
}

/// Full configuration of a GRIMP model.
#[derive(Clone, Debug)]
pub struct GrimpConfig {
    /// Pre-trained feature strategy (GRIMP-FT / GRIMP-E / random).
    pub features: FeatureSource,
    /// Pre-trained feature dimensionality.
    pub feature_dim: usize,
    /// Graph construction options.
    pub graph: GraphConfig,
    /// EMBDI stage options (used when `features == Embdi`).
    pub embdi: EmbdiConfig,
    /// GNN shape (`L_GNN` layers × `#P_GNN` units).
    pub gnn: GnnConfig,
    /// Hidden width of the shared merge step (`#P_Lin`).
    pub merge_hidden: usize,
    /// Output width of the shared layer = per-column slot width `D` of the
    /// training vectors.
    pub embed_dim: usize,
    /// Task head kind.
    pub task_kind: TaskKind,
    /// Attention `K` strategy.
    pub k_strategy: KStrategy,
    /// Categorical loss.
    pub categorical_loss: CategoricalLoss,
    /// Maximum training epochs (paper: 300 with early termination).
    pub max_epochs: usize,
    /// Early-stopping patience in epochs on validation loss.
    pub patience: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Fraction of training samples held out for validation (paper: 20 %).
    pub validation_fraction: f64,
    /// Optional cap on training samples per task per epoch, to bound
    /// runtime on large tables. `None` uses everything.
    pub max_train_samples_per_task: Option<usize>,
    /// Neighbor-sampled mini-batch training. `None` (the default) keeps
    /// the full-batch path, bit-identical to earlier releases; `Some`
    /// trains each epoch on one deterministic mini-batch with
    /// fanout-capped adjacencies, bounding peak memory by the batch shape.
    /// The governor's third downscale rung sets this automatically when a
    /// memory budget cannot be met by capping value nodes or shrinking
    /// dims. Incompatible with [`GrimpConfig::resume`] (a sampled run
    /// cannot continue a full-batch checkpoint without silent divergence;
    /// [`GrimpConfig::validate`] rejects the combination).
    pub sampler: Option<SamplerConfig>,
    /// Warm-start fine-tuning policy for appended rows (extra-epoch bound
    /// and the drift band that schedules a full refit). Only consulted by
    /// the append/incremental path; plain fits ignore it.
    pub finetune: FinetuneConfig,
    /// Seed for every stochastic component.
    pub seed: u64,
    /// Kernel execution backend for the training hot path. The parallel
    /// backend is bit-identical to the serial one for any thread count, so
    /// this only changes wall-clock time.
    pub backend: BackendKind,
    /// Global gradient-norm clip threshold. When the L2 norm over all
    /// parameter gradients exceeds it, every gradient is scaled by
    /// `max / norm` before the optimizer step. `None` disables clipping
    /// (the finiteness guard still runs). The default is high enough that a
    /// healthy run is numerically unchanged.
    pub max_grad_norm: Option<f32>,
    /// Divergence-recovery budget: how many times a detected anomaly may
    /// roll training back to the last good epoch (halving the learning rate
    /// each time) before the run degrades to the mode/mean baseline.
    pub max_recoveries: usize,
    /// Write a disk checkpoint every this many completed epochs (only when
    /// [`GrimpConfig::checkpoint_dir`] is set). Values below 1 behave as 1.
    pub checkpoint_every: usize,
    /// Directory for the training checkpoint file. `None` keeps
    /// checkpointing purely in memory (rollback still works; resume does
    /// not).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume from the checkpoint in [`GrimpConfig::checkpoint_dir`] when
    /// one exists. An unreadable or corrupt checkpoint is reported in the
    /// [`crate::TrainReport`] and training restarts from scratch.
    pub resume: bool,
    /// Wall-clock training budget in seconds, measured from the start of
    /// `fit`. Checked at every epoch boundary: when it expires, training
    /// checkpoints, stops cleanly, and imputes with whatever epochs
    /// completed ([`crate::TrainReport::deadline_hit`] records the stop).
    /// `None` disables the deadline.
    pub deadline_secs: Option<f64>,
    /// Memory budget in MiB for the graph + tape footprint, enforced at
    /// admission time: the estimated footprint is computed from node /
    /// edge / parameter counts before anything is allocated, and the model
    /// is downscaled deterministically (value-node cap per attribute, then
    /// hidden-dim halving) until it fits. Every decision is recorded in
    /// [`crate::TrainReport::downscales`] and the event trace. `None`
    /// disables the budget.
    pub memory_budget_mb: Option<usize>,
    /// Cooperative shutdown flag, checked at every epoch boundary. When
    /// requested (e.g. from a SIGINT handler), training checkpoints, stops
    /// cleanly, and imputes from the current state
    /// ([`crate::TrainReport::interrupted`] records the stop). `None`
    /// ignores shutdown requests.
    pub shutdown: Option<crate::ShutdownFlag>,
    /// Deterministic IO fault injection for the durable-write path
    /// (checkpoint save/rotate, lock file). Intended for tests and the
    /// chaos harness; also reachable through the `GRIMP_FAULT_FS`
    /// environment variable in the CLI. `None` uses the real filesystem.
    pub io_fault: Option<grimp_obs::IoFaultPlan>,
    /// Deterministic fault injection for robustness tests: corrupt a chosen
    /// gradient or parameter at a chosen epoch. Compiled only for unit tests
    /// and behind the `fault-injection` cargo feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fault_injection: Option<crate::fault::FaultPlan>,
}

impl Default for GrimpConfig {
    fn default() -> Self {
        GrimpConfig::paper()
    }
}

impl GrimpConfig {
    /// The paper's default configuration: attention tasks with a weak
    /// diagonal `K`, 2×64 GNN, 128-wide merge, 300 epochs with early
    /// termination.
    pub fn paper() -> Self {
        GrimpConfig {
            features: FeatureSource::FastText,
            feature_dim: 32,
            graph: GraphConfig::default(),
            embdi: EmbdiConfig::default(),
            gnn: GnnConfig {
                layers: 2,
                hidden: 64,
                ..Default::default()
            },
            merge_hidden: 128,
            embed_dim: 64,
            task_kind: TaskKind::Attention,
            k_strategy: KStrategy::WeakDiagonal,
            categorical_loss: CategoricalLoss::CrossEntropy,
            max_epochs: 300,
            patience: 10,
            lr: 5e-3,
            validation_fraction: 0.2,
            max_train_samples_per_task: None,
            sampler: None,
            finetune: FinetuneConfig::default(),
            seed: 0,
            backend: BackendKind::Serial,
            max_grad_norm: Some(1e4),
            max_recoveries: 2,
            checkpoint_every: 1,
            checkpoint_dir: None,
            resume: false,
            deadline_secs: None,
            memory_budget_mb: None,
            shutdown: None,
            io_fault: None,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_injection: None,
        }
    }

    /// A reduced configuration used by the experiment harness so the full
    /// 10-dataset × 3-missingness × many-algorithms grid finishes on one
    /// machine. Shapes shrink but the architecture is unchanged.
    pub fn fast() -> Self {
        GrimpConfig {
            feature_dim: 32,
            gnn: GnnConfig {
                layers: 2,
                hidden: 48,
                ..Default::default()
            },
            merge_hidden: 96,
            embed_dim: 48,
            max_epochs: 100,
            patience: 10,
            lr: 1e-2,
            max_train_samples_per_task: Some(1200),
            ..GrimpConfig::paper()
        }
    }

    /// Switch to linear task heads.
    pub fn with_linear_tasks(mut self) -> Self {
        self.task_kind = TaskKind::Linear;
        self
    }

    /// Switch the feature source.
    pub fn with_features(mut self, source: FeatureSource) -> Self {
        self.features = source;
        self
    }

    /// Switch the `K` strategy.
    pub fn with_k_strategy(mut self, k: KStrategy) -> Self {
        self.k_strategy = k;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable disk checkpointing into `dir` (written every
    /// [`GrimpConfig::checkpoint_every`] epochs).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resume from an existing checkpoint in the checkpoint dir.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// A checked builder seeded from [`GrimpConfig::paper`]. Unlike the
    /// `with_*` shortcuts, [`GrimpConfigBuilder::build`] validates field
    /// ranges *and* cross-field consistency (e.g. resume without a
    /// checkpoint dir), returning a [`ConfigError`] instead of failing
    /// deep inside training.
    pub fn builder() -> GrimpConfigBuilder {
        GrimpConfigBuilder {
            config: GrimpConfig::paper(),
        }
    }

    /// The grouped view of this configuration's resource bounds (the
    /// fields `.limits(..)` writes).
    pub fn limits(&self) -> ResourceLimits {
        ResourceLimits {
            deadline_secs: self.deadline_secs,
            memory_budget_mb: self.memory_budget_mb,
        }
    }

    /// The grouped view of this configuration's checkpointing policy (the
    /// fields `.checkpointing(..)` writes).
    pub fn checkpointing(&self) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: self.checkpoint_dir.clone(),
            every: self.checkpoint_every,
            resume: self.resume,
            max_recoveries: self.max_recoveries,
        }
    }

    /// Check the configuration for values that would make training panic,
    /// loop forever, or silently do nothing. [`crate::Pipeline::new`] and
    /// [`GrimpConfigBuilder::build`] run this for you. Sub-config checks
    /// live on the sub-configs themselves ([`SamplerConfig::validate`],
    /// [`ResourceLimits::validate`], [`CheckpointPolicy::validate`]); this
    /// method runs them all plus the cross-section checks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.checkpointing().validate()?;
        for (name, dim) in [
            ("feature_dim", self.feature_dim),
            ("gnn.hidden", self.gnn.hidden),
            ("gnn.layers", self.gnn.layers),
            ("merge_hidden", self.merge_hidden),
            ("embed_dim", self.embed_dim),
        ] {
            if dim == 0 {
                return Err(ConfigError::ZeroDim(name));
            }
        }
        if self.gnn.neighbor_cap == Some(0) {
            return Err(ConfigError::ZeroNeighborCap);
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(ConfigError::NonPositiveLearningRate(self.lr));
        }
        if !(self.validation_fraction.is_finite() && (0.0..1.0).contains(&self.validation_fraction))
        {
            return Err(ConfigError::InvalidValidationFraction(
                self.validation_fraction,
            ));
        }
        if self.max_epochs == 0 {
            return Err(ConfigError::ZeroEpochs);
        }
        if self.patience == 0 {
            return Err(ConfigError::ZeroPatience);
        }
        if let Some(max) = self.max_grad_norm {
            if !(max.is_finite() && max > 0.0) {
                return Err(ConfigError::InvalidGradClip(max));
            }
        }
        if self.max_train_samples_per_task == Some(0) {
            return Err(ConfigError::ZeroSampleCap);
        }
        self.limits().validate()?;
        self.finetune.validate()?;
        if self.backend.threads() == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if let Some(sampler) = self.sampler {
            sampler.validate()?;
            // Cross-section: a sampled run draws different batches and a
            // different validation layout than a full-batch run, so
            // resuming a full-batch checkpoint under sampling would
            // silently diverge. Reject the combination up front.
            if self.resume {
                return Err(ConfigError::SamplerWithResume);
            }
        }
        Ok(())
    }
}

/// Why a [`GrimpConfigBuilder`] (or [`GrimpConfig::validate`]) rejected a
/// configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `resume` is set but there is no `checkpoint_dir` to resume from.
    ResumeWithoutCheckpointDir,
    /// A layer dimension is zero (the field name says which).
    ZeroDim(&'static str),
    /// `gnn.neighbor_cap` is `Some(0)` — every capped adjacency would be
    /// edgeless.
    ZeroNeighborCap,
    /// The learning rate is zero, negative, or non-finite.
    NonPositiveLearningRate(f32),
    /// The validation fraction is outside `[0, 1)` or non-finite.
    InvalidValidationFraction(f64),
    /// `max_epochs` is zero — training would never run.
    ZeroEpochs,
    /// `patience` is zero — training would stop before the first epoch.
    ZeroPatience,
    /// The gradient-clip threshold is zero, negative, or non-finite.
    InvalidGradClip(f32),
    /// The per-task sample cap is zero — every task batch would be empty.
    ZeroSampleCap,
    /// The wall-clock deadline is zero, negative, or non-finite.
    InvalidDeadline(f64),
    /// The memory budget is zero MiB — nothing could ever be admitted.
    ZeroMemoryBudget,
    /// The parallel backend was requested with zero threads.
    ZeroThreads,
    /// The sampler's per-task mini-batch size is zero — every batch would
    /// be empty.
    ZeroBatchRows,
    /// The sampler's neighbor fanout is zero — every sampled adjacency
    /// would be edgeless.
    ZeroFanout,
    /// Sampling was combined with `resume`: a sampled run cannot continue
    /// a full-batch checkpoint without silently diverging from it.
    SamplerWithResume,
    /// The fine-tune epoch bound is zero — an append could never train.
    ZeroFinetuneEpochs,
    /// The drift band is negative or non-finite.
    InvalidDriftBand(f32),
    /// An append path needs a checkpoint directory to log the WAL into and
    /// resume the fine-tune from.
    AppendWithoutCheckpointDir,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ResumeWithoutCheckpointDir => {
                write!(f, "--resume requires --checkpoint-dir DIR")
            }
            ConfigError::ZeroDim(name) => write!(f, "{name} must be at least 1"),
            ConfigError::ZeroNeighborCap => write!(f, "gnn.neighbor_cap must be at least 1"),
            ConfigError::NonPositiveLearningRate(lr) => {
                write!(f, "learning rate must be finite and positive, got {lr}")
            }
            ConfigError::InvalidValidationFraction(v) => {
                write!(f, "validation fraction must be in [0, 1), got {v}")
            }
            ConfigError::ZeroEpochs => write!(f, "max_epochs must be at least 1"),
            ConfigError::ZeroPatience => write!(f, "patience must be at least 1"),
            ConfigError::InvalidGradClip(v) => {
                write!(f, "max_grad_norm must be finite and positive, got {v}")
            }
            ConfigError::ZeroSampleCap => {
                write!(f, "max_train_samples_per_task must be at least 1")
            }
            ConfigError::InvalidDeadline(v) => {
                write!(f, "--deadline must be finite and positive, got {v}")
            }
            ConfigError::ZeroMemoryBudget => {
                write!(f, "--memory-budget-mb must be at least 1")
            }
            ConfigError::ZeroThreads => {
                write!(f, "--threads must be at least 1")
            }
            ConfigError::ZeroBatchRows => {
                write!(f, "--batch-rows must be at least 1")
            }
            ConfigError::ZeroFanout => {
                write!(f, "--fanout must be at least 1")
            }
            ConfigError::SamplerWithResume => {
                write!(
                    f,
                    "--batch-rows/--fanout cannot be combined with --resume: \
                     a sampled run cannot continue a full-batch checkpoint"
                )
            }
            ConfigError::ZeroFinetuneEpochs => {
                write!(f, "--finetune-epochs must be at least 1")
            }
            ConfigError::InvalidDriftBand(v) => {
                write!(f, "--drift-band must be finite and non-negative, got {v}")
            }
            ConfigError::AppendWithoutCheckpointDir => {
                write!(f, "appending rows requires --checkpoint-dir DIR")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Typed, validating builder for [`GrimpConfig`] (start from
/// [`GrimpConfig::builder`]).
///
/// Governance and persistence options are set through grouped
/// sub-configs — [`SamplerConfig`], [`ResourceLimits`],
/// [`CheckpointPolicy`] — rather than one flat setter per field.
///
/// ```
/// use grimp::{GrimpConfig, ResourceLimits, SamplerConfig};
/// let config = GrimpConfig::builder()
///     .seed(7)
///     .max_epochs(50)
///     .learning_rate(1e-2)
///     .sampler(SamplerConfig {
///         batch_rows: 2048,
///         fanout: 8,
///     })
///     .limits(ResourceLimits {
///         memory_budget_mb: Some(512),
///         ..Default::default()
///     })
///     .build()
///     .expect("valid config");
/// assert_eq!(config.seed, 7);
/// assert_eq!(config.sampler.unwrap().batch_rows, 2048);
/// ```
#[derive(Clone, Debug)]
pub struct GrimpConfigBuilder {
    config: GrimpConfig,
}

impl GrimpConfigBuilder {
    /// Start from an existing configuration instead of the paper defaults.
    pub fn from_config(config: GrimpConfig) -> Self {
        GrimpConfigBuilder { config }
    }

    /// Pre-trained feature strategy.
    pub fn features(mut self, source: FeatureSource) -> Self {
        self.config.features = source;
        self
    }

    /// Pre-trained feature dimensionality.
    pub fn feature_dim(mut self, dim: usize) -> Self {
        self.config.feature_dim = dim;
        self
    }

    /// GNN shape.
    pub fn gnn(mut self, gnn: GnnConfig) -> Self {
        self.config.gnn = gnn;
        self
    }

    /// Hidden width of the shared merge step.
    pub fn merge_hidden(mut self, width: usize) -> Self {
        self.config.merge_hidden = width;
        self
    }

    /// Per-column slot width `D` of the training vectors.
    pub fn embed_dim(mut self, dim: usize) -> Self {
        self.config.embed_dim = dim;
        self
    }

    /// Task head kind.
    pub fn task_kind(mut self, kind: TaskKind) -> Self {
        self.config.task_kind = kind;
        self
    }

    /// Attention `K` strategy.
    pub fn k_strategy(mut self, k: KStrategy) -> Self {
        self.config.k_strategy = k;
        self
    }

    /// Categorical loss.
    pub fn categorical_loss(mut self, loss: CategoricalLoss) -> Self {
        self.config.categorical_loss = loss;
        self
    }

    /// Maximum training epochs.
    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.config.max_epochs = epochs;
        self
    }

    /// Early-stopping patience in epochs.
    pub fn patience(mut self, patience: usize) -> Self {
        self.config.patience = patience;
        self
    }

    /// Adam learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.config.lr = lr;
        self
    }

    /// Validation holdout fraction.
    pub fn validation_fraction(mut self, fraction: f64) -> Self {
        self.config.validation_fraction = fraction;
        self
    }

    /// Cap on training samples per task per epoch.
    pub fn max_train_samples_per_task(mut self, cap: Option<usize>) -> Self {
        self.config.max_train_samples_per_task = cap;
        self
    }

    /// Neighbor-sampled mini-batch training (grouped sub-config). The
    /// default configuration trains full-batch; setting a sampler bounds
    /// peak memory by `batch_rows`/`fanout` instead of the table size.
    pub fn sampler(mut self, sampler: SamplerConfig) -> Self {
        self.config.sampler = Some(sampler);
        self
    }

    /// Warm-start fine-tuning policy for appended rows (grouped
    /// sub-config): extra-epoch bound and drift band.
    pub fn finetune(mut self, finetune: FinetuneConfig) -> Self {
        self.config.finetune = finetune;
        self
    }

    /// Resource-governance bounds (grouped sub-config): wall-clock
    /// deadline and admission-time memory budget.
    pub fn limits(mut self, limits: ResourceLimits) -> Self {
        self.config.deadline_secs = limits.deadline_secs;
        self.config.memory_budget_mb = limits.memory_budget_mb;
        self
    }

    /// Checkpointing and recovery policy (grouped sub-config): directory,
    /// cadence, resume, and the divergence-recovery budget.
    pub fn checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.config.checkpoint_dir = policy.dir;
        self.config.checkpoint_every = policy.every;
        self.config.resume = policy.resume;
        self.config.max_recoveries = policy.max_recoveries;
        self
    }

    /// Seed for every stochastic component.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Kernel execution backend for the training hot path (bit-identical
    /// across backends; only wall-clock time changes).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Global gradient-norm clip threshold (`None` disables clipping).
    pub fn max_grad_norm(mut self, max: Option<f32>) -> Self {
        self.config.max_grad_norm = max;
        self
    }

    /// Cooperative shutdown flag checked at epoch boundaries.
    pub fn shutdown(mut self, flag: crate::ShutdownFlag) -> Self {
        self.config.shutdown = Some(flag);
        self
    }

    /// Deterministic IO fault plan for the durable-write path.
    pub fn io_fault(mut self, plan: Option<grimp_obs::IoFaultPlan>) -> Self {
        self.config.io_fault = plan;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<GrimpConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_published_shapes() {
        let c = GrimpConfig::paper();
        assert_eq!(c.gnn.layers, 2);
        assert_eq!(c.gnn.hidden, 64);
        assert_eq!(c.merge_hidden, 128);
        assert_eq!(c.max_epochs, 300);
        assert_eq!(c.task_kind, TaskKind::Attention);
        assert_eq!(c.k_strategy, KStrategy::WeakDiagonal);
        assert!((c.validation_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn robustness_defaults_leave_healthy_runs_unchanged() {
        let c = GrimpConfig::paper();
        assert_eq!(c.max_recoveries, 2);
        assert_eq!(c.checkpoint_every, 1);
        assert!(c.checkpoint_dir.is_none());
        assert!(!c.resume);
        // the default clip threshold must sit far above healthy grad norms
        assert!(c.max_grad_norm.unwrap() >= 1e3);
        assert!(c.fault_injection.is_none());
    }

    #[test]
    fn checkpoint_builders_compose() {
        let c = GrimpConfig::fast()
            .with_checkpoint_dir("/tmp/ck")
            .with_resume(true);
        assert_eq!(
            c.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ck"))
        );
        assert!(c.resume);
    }

    #[test]
    fn builder_accepts_a_sane_config_and_applies_setters() {
        let c = GrimpConfig::builder()
            .seed(9)
            .task_kind(TaskKind::Linear)
            .k_strategy(KStrategy::Diagonal)
            .max_epochs(40)
            .learning_rate(1e-2)
            .checkpointing(CheckpointPolicy {
                dir: Some("/tmp/ck".into()),
                resume: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.task_kind, TaskKind::Linear);
        assert_eq!(c.k_strategy, KStrategy::Diagonal);
        assert_eq!(c.max_epochs, 40);
        assert!(c.resume);
    }

    #[test]
    fn builder_rejects_resume_without_checkpoint_dir() {
        let err = GrimpConfig::builder()
            .checkpointing(CheckpointPolicy {
                resume: true,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ResumeWithoutCheckpointDir);
        assert!(err.to_string().contains("--checkpoint-dir"));
    }

    #[test]
    fn a_zero_neighbor_cap_is_a_config_error() {
        let capped = |cap| GrimpConfig {
            gnn: GnnConfig {
                neighbor_cap: Some(cap),
                ..GnnConfig::default()
            },
            ..GrimpConfig::paper()
        };
        assert_eq!(capped(0).validate(), Err(ConfigError::ZeroNeighborCap));
        assert_eq!(
            GrimpConfig::builder()
                .gnn(capped(0).gnn)
                .build()
                .unwrap_err(),
            ConfigError::ZeroNeighborCap
        );
        assert!(capped(1).validate().is_ok());
    }

    #[test]
    fn builder_rejects_degenerate_values() {
        assert_eq!(
            GrimpConfig::builder().embed_dim(0).build().unwrap_err(),
            ConfigError::ZeroDim("embed_dim")
        );
        assert!(matches!(
            GrimpConfig::builder().learning_rate(0.0).build(),
            Err(ConfigError::NonPositiveLearningRate(_))
        ));
        assert!(matches!(
            GrimpConfig::builder().learning_rate(f32::NAN).build(),
            Err(ConfigError::NonPositiveLearningRate(_))
        ));
        assert!(matches!(
            GrimpConfig::builder().validation_fraction(1.0).build(),
            Err(ConfigError::InvalidValidationFraction(_))
        ));
        assert_eq!(
            GrimpConfig::builder().max_epochs(0).build().unwrap_err(),
            ConfigError::ZeroEpochs
        );
        assert_eq!(
            GrimpConfig::builder().patience(0).build().unwrap_err(),
            ConfigError::ZeroPatience
        );
        assert!(matches!(
            GrimpConfig::builder()
                .max_grad_norm(Some(-1.0))
                .build()
                .unwrap_err(),
            ConfigError::InvalidGradClip(_)
        ));
        assert_eq!(
            GrimpConfig::builder()
                .backend(BackendKind::Parallel { threads: 0 })
                .build()
                .unwrap_err(),
            ConfigError::ZeroThreads
        );
        assert!(GrimpConfig::builder()
            .backend(BackendKind::Parallel { threads: 2 })
            .build()
            .is_ok());
        assert_eq!(
            GrimpConfig::builder()
                .max_train_samples_per_task(Some(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroSampleCap
        );
        assert!(matches!(
            GrimpConfig::builder()
                .limits(ResourceLimits {
                    deadline_secs: Some(0.0),
                    ..Default::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::InvalidDeadline(_)
        ));
        assert!(matches!(
            GrimpConfig::builder()
                .limits(ResourceLimits {
                    deadline_secs: Some(f64::NAN),
                    ..Default::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::InvalidDeadline(_)
        ));
        assert_eq!(
            GrimpConfig::builder()
                .limits(ResourceLimits {
                    memory_budget_mb: Some(0),
                    ..Default::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroMemoryBudget
        );
    }

    #[test]
    fn governance_fields_default_off_and_compose() {
        let c = GrimpConfig::paper();
        assert!(c.deadline_secs.is_none());
        assert!(c.memory_budget_mb.is_none());
        assert!(c.shutdown.is_none());
        assert!(c.io_fault.is_none());

        let flag = crate::ShutdownFlag::new();
        let c = GrimpConfig::builder()
            .limits(ResourceLimits {
                deadline_secs: Some(12.5),
                memory_budget_mb: Some(256),
            })
            .shutdown(flag.clone())
            .build()
            .unwrap();
        assert_eq!(c.deadline_secs, Some(12.5));
        assert_eq!(c.memory_budget_mb, Some(256));
        flag.request();
        assert!(c.shutdown.as_ref().unwrap().is_requested());
    }

    #[test]
    fn sampler_defaults_off_and_validates() {
        assert!(GrimpConfig::paper().sampler.is_none());
        assert!(GrimpConfig::fast().sampler.is_none());

        let d = SamplerConfig::default();
        assert_eq!(d.batch_rows, 4096);
        assert_eq!(d.fanout, 8);
        d.validate().unwrap();

        let c = GrimpConfig::builder()
            .sampler(SamplerConfig {
                batch_rows: 512,
                fanout: 4,
            })
            .build()
            .unwrap();
        assert_eq!(
            c.sampler,
            Some(SamplerConfig {
                batch_rows: 512,
                fanout: 4
            })
        );
    }

    #[test]
    fn sampler_rejects_zero_batch_rows_and_fanout() {
        assert_eq!(
            GrimpConfig::builder()
                .sampler(SamplerConfig {
                    batch_rows: 0,
                    fanout: 8
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroBatchRows
        );
        assert_eq!(
            GrimpConfig::builder()
                .sampler(SamplerConfig {
                    batch_rows: 64,
                    fanout: 0
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroFanout
        );
    }

    #[test]
    fn sampler_combined_with_resume_is_a_typed_error() {
        let err = GrimpConfig::builder()
            .sampler(SamplerConfig::default())
            .checkpointing(CheckpointPolicy {
                dir: Some("/tmp/ck".into()),
                resume: true,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SamplerWithResume);
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn grouped_views_round_trip_the_flat_fields() {
        let c = GrimpConfig::builder()
            .limits(ResourceLimits {
                deadline_secs: Some(2.0),
                memory_budget_mb: Some(128),
            })
            .checkpointing(CheckpointPolicy {
                dir: Some("/tmp/rt".into()),
                every: 3,
                resume: false,
                max_recoveries: 5,
            })
            .build()
            .unwrap();
        assert_eq!(
            c.limits(),
            ResourceLimits {
                deadline_secs: Some(2.0),
                memory_budget_mb: Some(128),
            }
        );
        assert_eq!(
            c.checkpointing(),
            CheckpointPolicy {
                dir: Some("/tmp/rt".into()),
                every: 3,
                resume: false,
                max_recoveries: 5,
            }
        );
    }

    #[test]
    fn from_config_builder_keeps_the_seed_config() {
        let c = GrimpConfigBuilder::from_config(GrimpConfig::fast())
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(c.max_epochs, GrimpConfig::fast().max_epochs);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn default_configs_validate() {
        GrimpConfig::paper().validate().unwrap();
        GrimpConfig::fast().validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = GrimpConfig::fast()
            .with_linear_tasks()
            .with_k_strategy(KStrategy::Diagonal)
            .with_seed(9);
        assert_eq!(c.task_kind, TaskKind::Linear);
        assert_eq!(c.k_strategy, KStrategy::Diagonal);
        assert_eq!(c.seed, 9);
    }
}
