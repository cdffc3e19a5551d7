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
/// earlier releases. Set it as [`GrimpConfig::sampler`].
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
    /// [`GrimpConfig::validate`], which runs these too).
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

/// Warm-start fine-tuning policy for appended rows, set as
/// [`GrimpConfig::finetune`].
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

/// Full configuration of a GRIMP model.
///
/// Every field is public. Write a configuration as a struct literal over
/// one of the two presets, [`GrimpConfig::paper`] or [`GrimpConfig::fast`],
/// and hand it to [`crate::Pipeline::new`], which validates it:
///
/// ```
/// use grimp::{GrimpConfig, Pipeline, SamplerConfig};
///
/// let config = GrimpConfig {
///     seed: 7,
///     max_epochs: 50,
///     lr: 1e-2,
///     sampler: Some(SamplerConfig {
///         batch_rows: 2048,
///         fanout: 8,
///     }),
///     memory_budget_mb: Some(512),
///     ..GrimpConfig::paper()
/// };
/// let pipeline = Pipeline::new(config).expect("valid config");
/// assert_eq!(pipeline.config().sampler.unwrap().batch_rows, 2048);
///
/// let bad = GrimpConfig {
///     max_epochs: 0,
///     ..GrimpConfig::fast()
/// };
/// assert!(Pipeline::new(bad).is_err());
/// ```
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
    /// Directory for the training checkpoint file, written after every
    /// completed epoch. `None` keeps checkpointing purely in memory
    /// (rollback still works; resume does not).
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

    /// Check the configuration for values that would make training panic,
    /// loop forever, or silently do nothing, and for combinations a user
    /// should not set. [`crate::Pipeline::new`] runs this for you. It is
    /// [`GrimpConfig::validate_fit`] plus the cross-section policy checks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_fit()?;
        // Cross-section: a sampled run draws different batches and a
        // different validation layout than a full-batch run, so resuming a
        // full-batch checkpoint under sampling would silently diverge.
        // Reject the combination up front. The fit entry points skip this
        // check: the engine resumes sampled runs of its own.
        if self.sampler.is_some() && self.resume {
            return Err(ConfigError::SamplerWithResume);
        }
        Ok(())
    }

    /// The range checks every fit needs: values that would make training
    /// panic, loop forever, or silently do nothing. The nested sub-configs
    /// check their own fields ([`SamplerConfig::validate`],
    /// [`FinetuneConfig::validate`]); this method runs them too. Every fit
    /// entry point runs it ([`crate::Pipeline::new`] through
    /// [`GrimpConfig::validate`]; [`crate::GnnMc::fit_impute`] and
    /// [`crate::FederatedGrimp::fit_impute`] panic on a failure).
    pub fn validate_fit(&self) -> Result<(), ConfigError> {
        if self.resume && self.checkpoint_dir.is_none() {
            return Err(ConfigError::ResumeWithoutCheckpointDir);
        }
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
        if let Some(deadline) = self.deadline_secs {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(ConfigError::InvalidDeadline(deadline));
            }
        }
        if self.memory_budget_mb == Some(0) {
            return Err(ConfigError::ZeroMemoryBudget);
        }
        self.finetune.validate()?;
        if self.backend.threads() == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if let Some(sampler) = self.sampler {
            sampler.validate()?;
        }
        Ok(())
    }
}

/// Why [`GrimpConfig::validate`] (and so [`crate::Pipeline::new`])
/// rejected a configuration.
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
        assert!(c.checkpoint_dir.is_none());
        assert!(!c.resume);
        // the default clip threshold must sit far above healthy grad norms
        assert!(c.max_grad_norm.unwrap() >= 1e3);
        assert!(c.fault_injection.is_none());
    }

    #[test]
    fn governance_fields_default_off() {
        let c = GrimpConfig::paper();
        assert!(c.deadline_secs.is_none());
        assert!(c.memory_budget_mb.is_none());
        assert!(c.shutdown.is_none());
        assert!(c.io_fault.is_none());
    }

    #[test]
    fn default_configs_validate() {
        GrimpConfig::paper().validate().unwrap();
        GrimpConfig::fast().validate().unwrap();
    }

    #[test]
    fn a_struct_literal_over_a_preset_sets_fields_and_validates() {
        let c = GrimpConfig {
            seed: 9,
            task_kind: TaskKind::Linear,
            k_strategy: KStrategy::Diagonal,
            max_epochs: 40,
            checkpoint_dir: Some("/tmp/ck".into()),
            resume: true,
            backend: BackendKind::Parallel { threads: 2 },
            deadline_secs: Some(12.5),
            memory_budget_mb: Some(256),
            sampler: None,
            ..GrimpConfig::fast()
        };
        c.validate().unwrap();
        assert_eq!(c.max_train_samples_per_task, Some(1200), "fast() preset");
        assert_eq!(c.seed, 9);
        assert!(c.resume);
    }

    /// `fast()` with one field changed.
    fn fast_with(f: impl FnOnce(&mut GrimpConfig)) -> GrimpConfig {
        let mut c = GrimpConfig::fast();
        f(&mut c);
        c
    }

    #[test]
    fn validate_rejects_each_degenerate_value_with_its_typed_error() {
        let sampler = |batch_rows, fanout| Some(SamplerConfig { batch_rows, fanout });
        let cases: Vec<(GrimpConfig, ConfigError)> = vec![
            (
                fast_with(|c| c.resume = true),
                ConfigError::ResumeWithoutCheckpointDir,
            ),
            (
                fast_with(|c| c.embed_dim = 0),
                ConfigError::ZeroDim("embed_dim"),
            ),
            (
                fast_with(|c| c.gnn.layers = 0),
                ConfigError::ZeroDim("gnn.layers"),
            ),
            (
                fast_with(|c| c.gnn.neighbor_cap = Some(0)),
                ConfigError::ZeroNeighborCap,
            ),
            (
                fast_with(|c| c.lr = 0.0),
                ConfigError::NonPositiveLearningRate(0.0),
            ),
            (
                fast_with(|c| c.validation_fraction = 1.0),
                ConfigError::InvalidValidationFraction(1.0),
            ),
            (fast_with(|c| c.max_epochs = 0), ConfigError::ZeroEpochs),
            (fast_with(|c| c.patience = 0), ConfigError::ZeroPatience),
            (
                fast_with(|c| c.max_grad_norm = Some(-1.0)),
                ConfigError::InvalidGradClip(-1.0),
            ),
            (
                fast_with(|c| c.max_train_samples_per_task = Some(0)),
                ConfigError::ZeroSampleCap,
            ),
            (
                fast_with(|c| c.deadline_secs = Some(0.0)),
                ConfigError::InvalidDeadline(0.0),
            ),
            (
                fast_with(|c| c.memory_budget_mb = Some(0)),
                ConfigError::ZeroMemoryBudget,
            ),
            (
                fast_with(|c| c.backend = BackendKind::Parallel { threads: 0 }),
                ConfigError::ZeroThreads,
            ),
            (
                fast_with(|c| c.sampler = sampler(0, 8)),
                ConfigError::ZeroBatchRows,
            ),
            (
                fast_with(|c| c.sampler = sampler(64, 0)),
                ConfigError::ZeroFanout,
            ),
            (
                fast_with(|c| {
                    c.sampler = sampler(64, 8);
                    c.checkpoint_dir = Some("/tmp/ck".into());
                    c.resume = true;
                }),
                ConfigError::SamplerWithResume,
            ),
            (
                fast_with(|c| c.finetune.epochs = 0),
                ConfigError::ZeroFinetuneEpochs,
            ),
            (
                fast_with(|c| c.finetune.drift_band = -0.5),
                ConfigError::InvalidDriftBand(-0.5),
            ),
        ];
        for (config, want) in cases {
            assert_eq!(config.validate(), Err(want.clone()), "{want}");
        }
        // Non-finite values are rejected too (NaN never compares equal).
        assert!(matches!(
            fast_with(|c| c.lr = f32::NAN).validate(),
            Err(ConfigError::NonPositiveLearningRate(_))
        ));
        assert!(matches!(
            fast_with(|c| c.deadline_secs = Some(f64::NAN)).validate(),
            Err(ConfigError::InvalidDeadline(_))
        ));
        assert!(matches!(
            fast_with(|c| c.finetune.drift_band = f32::INFINITY).validate(),
            Err(ConfigError::InvalidDriftBand(_))
        ));
    }

    #[test]
    fn validate_accepts_the_boundary_values() {
        fast_with(|c| c.gnn.neighbor_cap = Some(1))
            .validate()
            .unwrap();
        fast_with(|c| c.backend = BackendKind::Parallel { threads: 1 })
            .validate()
            .unwrap();
        fast_with(|c| c.validation_fraction = 0.0)
            .validate()
            .unwrap();
        fast_with(|c| c.finetune.drift_band = 0.0)
            .validate()
            .unwrap();
        fast_with(|c| c.max_grad_norm = None).validate().unwrap();
    }

    #[test]
    fn only_validate_rejects_a_sampled_resume() {
        // The engine resumes sampled runs of its own, so the fit-time
        // checks accept what the user-facing policy check refuses.
        let c = fast_with(|c| {
            c.sampler = Some(SamplerConfig::default());
            c.checkpoint_dir = Some("/tmp/ck".into());
            c.resume = true;
        });
        c.validate_fit().unwrap();
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::SamplerWithResume);
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn config_errors_name_the_cli_flag() {
        for (err, flag) in [
            (ConfigError::ResumeWithoutCheckpointDir, "--checkpoint-dir"),
            (ConfigError::InvalidDeadline(0.0), "--deadline"),
            (ConfigError::ZeroMemoryBudget, "--memory-budget-mb"),
            (ConfigError::ZeroThreads, "--threads"),
            (ConfigError::ZeroBatchRows, "--batch-rows"),
            (ConfigError::ZeroFanout, "--fanout"),
            (ConfigError::ZeroFinetuneEpochs, "--finetune-epochs"),
            (ConfigError::InvalidDriftBand(-1.0), "--drift-band"),
            (ConfigError::AppendWithoutCheckpointDir, "--checkpoint-dir"),
        ] {
            assert!(err.to_string().contains(flag), "{err}");
        }
    }

    #[test]
    fn sampler_defaults_off_and_validates() {
        assert!(GrimpConfig::paper().sampler.is_none());
        assert!(GrimpConfig::fast().sampler.is_none());

        let d = SamplerConfig::default();
        assert_eq!(d.batch_rows, 4096);
        assert_eq!(d.fanout, 8);
        d.validate().unwrap();
        fast_with(|c| c.sampler = Some(d)).validate().unwrap();
    }
}
