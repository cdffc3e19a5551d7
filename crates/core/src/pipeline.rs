//! The high-level imputation pipeline: validated configuration in, fitted
//! model out.
//!
//! [`Pipeline`] is the one way to fit GRIMP. It validates the configuration
//! up front (returning a [`ConfigError`] instead of panicking
//! mid-training), and [`Pipeline::fit`] returns a [`FittedModel`] that can
//! impute the training table (transductive, paper §3.7) or — with FastText
//! features — schema-compatible unseen tables (inductive). Every fallible
//! step surfaces as a typed [`GrimpError`] — the pipeline never panics on
//! adversarial input. As an [`Imputer`], a pipeline fits and imputes the
//! table it is given in one call, for harnesses that compare imputers.
//!
//! The kernel backend is part of the validated configuration:
//! `GrimpConfig { backend: BackendKind::Parallel { threads }, .. }` runs
//! the hot kernels on the fixed-partition thread pool, with results
//! bit-identical to the default serial backend (see
//! [`grimp_tensor::TensorBackend`]), so checkpoints, traces, and reports
//! carry across backends unchanged.
//!
//! ```
//! use grimp::{GrimpConfig, Pipeline};
//! use grimp_table::{ColumnKind, Schema, Table};
//!
//! let schema = Schema::from_pairs(&[("a", ColumnKind::Categorical)]);
//! let dirty = Table::from_rows(
//!     schema,
//!     &[vec![Some("x")], vec![Some("x")], vec![None]],
//! );
//! let config = GrimpConfig {
//!     max_epochs: 3,
//!     seed: 1,
//!     ..GrimpConfig::paper()
//! };
//! let fitted = Pipeline::new(config)
//!     .expect("validated")
//!     .fit(&dirty)
//!     .expect("non-empty schema");
//! let imputed = fitted.impute(&dirty).expect("training table");
//! assert_eq!(imputed.n_missing(), 0);
//! ```

use grimp_obs::{EventSink, NullSink};
use grimp_table::{FdSet, Imputer, Table};

use crate::checkpoint::TrainCheckpoint;
use crate::config::{ConfigError, GrimpConfig};
use crate::error::GrimpError;
use crate::model::{baseline_fill, fit_model, restore_model, variant_name, FittedModel};

/// A validated, ready-to-fit GRIMP pipeline.
#[derive(Clone, Debug)]
pub struct Pipeline {
    config: GrimpConfig,
    fds: FdSet,
}

impl Pipeline {
    /// Build a pipeline after validating `config` (see
    /// [`GrimpConfig::validate`] for the checks).
    pub fn new(config: GrimpConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Pipeline {
            config,
            fds: FdSet::empty(),
        })
    }

    /// Attach functional dependencies, exploited by the attention `K`
    /// matrices under
    /// [`KStrategy::WeakDiagonalFd`](crate::config::KStrategy::WeakDiagonalFd).
    pub fn with_fds(mut self, fds: FdSet) -> Self {
        self.fds = fds;
        self
    }

    /// The validated configuration.
    pub fn config(&self) -> &GrimpConfig {
        &self.config
    }

    /// Train on the dirty table (self-supervised) and return the fitted
    /// inference handle.
    ///
    /// # Errors
    /// [`GrimpError::EmptySchema`] when the table has no columns. All other
    /// degenerate inputs fit successfully, with pathological columns
    /// stepped down the degradation ladder
    /// (see [`FittedModel::column_tiers`]).
    pub fn fit(&self, dirty: &Table) -> Result<FittedModel, GrimpError> {
        let mut sink = NullSink;
        self.fit_traced(dirty, &mut sink)
    }

    /// [`Pipeline::fit`] with structured events streamed into `sink` (see
    /// [`grimp_obs::names`] for the vocabulary).
    ///
    /// # Errors
    /// Same contract as [`Pipeline::fit`].
    pub fn fit_traced(
        &self,
        dirty: &Table,
        sink: &mut dyn EventSink,
    ) -> Result<FittedModel, GrimpError> {
        fit_model(&self.config, &self.fds, dirty, sink)
    }

    /// Rebuild a [`FittedModel`] from a saved [`TrainCheckpoint`] without
    /// training — the load path of `grimp serve` and the hot-reload hook
    /// behind its checkpoint-generation rotation.
    ///
    /// The model structure is reconstructed deterministically from `dirty`
    /// and this pipeline's configuration (which must match the fit that
    /// wrote the checkpoint), then the checkpoint's weights are restored
    /// onto it. Unlike [`Pipeline::fit`] with `resume`, no
    /// checkpoint-directory lock is taken and nothing is written, so a
    /// server can restore from a directory a trainer is actively rotating.
    ///
    /// # Errors
    /// [`GrimpError::EmptySchema`] for a zero-column table;
    /// [`GrimpError::Checkpoint`] when the checkpoint's parameter shapes
    /// do not match (it was written by a different table or config).
    pub fn restore(&self, dirty: &Table, ck: &TrainCheckpoint) -> Result<FittedModel, GrimpError> {
        let mut sink = NullSink;
        self.restore_traced(dirty, ck, &mut sink)
    }

    /// [`Pipeline::restore`] with structured events streamed into `sink`.
    ///
    /// # Errors
    /// Same contract as [`Pipeline::restore`].
    pub fn restore_traced(
        &self,
        dirty: &Table,
        ck: &TrainCheckpoint,
        sink: &mut dyn EventSink,
    ) -> Result<FittedModel, GrimpError> {
        restore_model(&self.config, &self.fds, dirty, ck, sink)
    }

    /// Append `rows` to an already-fitted `base` table crash-safely: the
    /// rows are made durable in a write-ahead log (`grimp.wal` inside the
    /// checkpoint directory) before any model work, then applied by a
    /// warm-start fine-tune of the base checkpoint (or a full refit when
    /// the rows introduce new dictionary values), the grown table is
    /// imputed, and the log is rotated to `grimp.wal.applied`. Killed at
    /// any point, re-running the same append replays the log and converges
    /// to the bit-identical outcome (see [`crate::incremental`]).
    ///
    /// Calling with empty `rows` replays a pending log, if any — the
    /// recovery entry point after a crash.
    ///
    /// # Errors
    /// [`crate::ConfigError::AppendWithoutCheckpointDir`] (as a config
    /// error) when the pipeline has no checkpoint directory;
    /// [`GrimpError::PendingAppend`] when a pending log holds different
    /// rows than requested; [`GrimpError::Table`] for malformed rows;
    /// [`GrimpError::Io`] when the log cannot be written or rotated.
    pub fn append(
        &self,
        base: &Table,
        rows: &[crate::WalRow],
    ) -> Result<crate::AppendOutcome, GrimpError> {
        let mut sink = NullSink;
        self.append_traced(base, rows, &mut sink)
    }

    /// [`Pipeline::append`] with structured events streamed into `sink`.
    ///
    /// # Errors
    /// Same contract as [`Pipeline::append`].
    pub fn append_traced(
        &self,
        base: &Table,
        rows: &[crate::WalRow],
        sink: &mut dyn EventSink,
    ) -> Result<crate::AppendOutcome, GrimpError> {
        crate::incremental::append_model(&self.config, &self.fds, base, rows, sink)
    }
}

/// GRIMP as a fit-then-impute [`Imputer`], for harnesses that run many
/// imputers side by side: [`Imputer::name`] is the variant name (paper
/// §4.3 naming), and [`Imputer::impute`] fits the pipeline on the dirty
/// table (self-supervised — no clean data needed) and imputes that table.
/// Use [`Pipeline::fit`] to read the training report or to impute other
/// tables with the same model.
impl Imputer for Pipeline {
    fn name(&self) -> &str {
        variant_name(&self.config)
    }

    /// A table the fit rejects comes back unchanged (a zero-column table
    /// has nothing to impute).
    fn impute(&mut self, dirty: &Table) -> Table {
        let fitted = match self.fit(dirty) {
            Ok(f) => f,
            Err(_) => return dirty.clone(),
        };
        fitted
            .impute(dirty)
            // Unreachable for the training table; kept as a safety net so
            // the Imputer contract survives even a future logic error.
            .unwrap_or_else(|_| baseline_fill(dirty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let mut t = Table::empty(schema);
        for i in 0..n {
            let a = format!("a{}", i % 3);
            let b = format!("b{}", i % 3);
            t.push_str_row(&[Some(&a), Some(&b)]);
        }
        t
    }

    fn quick_config() -> GrimpConfig {
        GrimpConfig {
            feature_dim: 8,
            gnn: grimp_gnn::GnnConfig {
                layers: 2,
                hidden: 8,
                ..Default::default()
            },
            merge_hidden: 16,
            embed_dim: 8,
            max_epochs: 15,
            patience: 15,
            lr: 2e-2,
            seed: 5,
            ..GrimpConfig::paper()
        }
    }

    #[test]
    fn pipeline_rejects_invalid_configs_up_front() {
        let bad = GrimpConfig {
            resume: true,
            ..GrimpConfig::fast()
        };
        assert_eq!(
            Pipeline::new(bad).unwrap_err(),
            ConfigError::ResumeWithoutCheckpointDir
        );
        // The policy check `validate_fit` leaves to `validate`.
        let sampled_resume = GrimpConfig {
            sampler: Some(crate::SamplerConfig::default()),
            checkpoint_dir: Some("/tmp/ck".into()),
            resume: true,
            ..GrimpConfig::fast()
        };
        assert_eq!(
            Pipeline::new(sampled_resume).unwrap_err(),
            ConfigError::SamplerWithResume
        );
    }

    #[test]
    fn appending_without_a_checkpoint_dir_is_a_config_error() {
        let base = small_table(9);
        let rows = crate::table_to_wal_rows(&small_table(2));
        match Pipeline::new(quick_config()).unwrap().append(&base, &rows) {
            Err(GrimpError::Config(ConfigError::AppendWithoutCheckpointDir)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("an append needs a checkpoint directory"),
        }
    }

    #[test]
    fn pipeline_names_the_variant() {
        let name = |config| Pipeline::new(config).unwrap().name().to_string();
        assert_eq!(name(GrimpConfig::fast()), "GRIMP-FT");
        let embdi = GrimpConfig {
            features: grimp_graph::FeatureSource::Embdi,
            ..GrimpConfig::fast()
        };
        assert_eq!(name(embdi), "GRIMP-E");
        let linear = GrimpConfig {
            task_kind: crate::TaskKind::Linear,
            ..GrimpConfig::fast()
        };
        assert_eq!(name(linear), "GRIMP-linear");
    }

    #[test]
    fn the_imputer_fits_then_imputes_the_training_table() {
        let mut dirty = small_table(45);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(11));
        let mut pipeline = Pipeline::new(quick_config()).unwrap();
        let fitted = pipeline.fit(&dirty).unwrap();
        let want = fitted.impute(&dirty).unwrap();
        assert_eq!(pipeline.impute(&dirty), want);
        // a second impute of the same table is stable
        assert_eq!(fitted.impute(&dirty).unwrap(), want);
        // a table the fit rejects comes back unchanged
        let empty = Table::empty(Schema::from_pairs(&[]));
        assert_eq!(pipeline.impute(&empty), empty);
    }

    #[test]
    fn fit_then_impute_fills_every_missing_cell() {
        let mut dirty = small_table(45);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let pipeline = Pipeline::new(quick_config()).unwrap();
        let fitted = pipeline.fit(&dirty).unwrap();
        assert!(!fitted.is_degraded());
        assert!(fitted.report().epochs_run > 0);
        let imputed = fitted.impute(&dirty).unwrap();
        check_imputation_contract(&dirty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0);
    }

    #[test]
    fn parallel_backend_pipeline_validates_fits_and_reports_its_threads() {
        let mut dirty = small_table(30);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(4));
        let cfg = GrimpConfig {
            feature_dim: 8,
            merge_hidden: 16,
            embed_dim: 8,
            max_epochs: 3,
            seed: 5,
            backend: grimp_tensor::BackendKind::Parallel { threads: 2 },
            ..GrimpConfig::paper()
        };
        let fitted = Pipeline::new(cfg).unwrap().fit(&dirty).unwrap();
        assert_eq!(fitted.report().backend_threads, 2);
        let imputed = fitted.impute(&dirty).unwrap();
        assert_eq!(imputed.n_missing(), 0);
    }

    #[test]
    fn report_seconds_time_the_fit_and_imputes_leave_them_alone() {
        use grimp_obs::{names, EventKind, MemorySink};
        let span = |sink: &MemorySink, name: &str| -> f64 {
            let mut exits = sink.events().iter();
            exits
                .find(|e| e.kind == EventKind::SpanExit && e.name == name)
                .map_or(0.0, |e| e.value)
        };
        let mut dirty = small_table(30);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(3));

        // A fitted model's report times its fit; imputes leave it alone.
        let mut sink = MemorySink::new();
        let pipeline = Pipeline::new(quick_config()).unwrap();
        let fitted = pipeline.fit_traced(&dirty, &mut sink).unwrap();
        let fit = span(&sink, names::FIT);
        assert_eq!(fitted.report().seconds.to_bits(), fit.to_bits());
        fitted.impute_traced(&dirty, &mut sink).unwrap();
        assert!(span(&sink, names::IMPUTE) > 0.0);
        assert_eq!(fitted.report().seconds.to_bits(), fit.to_bits());
        let replayed = crate::TrainReport::from_events(sink.events());
        assert_eq!(replayed.seconds.to_bits(), fit.to_bits());
    }

    #[test]
    fn restore_rebuilds_an_equivalent_model_from_a_checkpoint() {
        let mut dirty = small_table(45);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        // A finished fit, and one whose shutdown was requested before its
        // first epoch: its final checkpoint holds the initial weights, so
        // the fit and its restore must both impute from the baseline.
        let stopped = crate::ShutdownFlag::new();
        stopped.request();
        for (label, shutdown) in [("finished", None), ("interrupted", Some(stopped))] {
            let dir =
                std::env::temp_dir().join(format!("grimp-restore-{label}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = GrimpConfig {
                checkpoint_dir: Some(dir.clone()),
                shutdown: shutdown.clone(),
                ..quick_config()
            };
            let pipeline = Pipeline::new(cfg).unwrap();
            let fitted = pipeline.fit(&dirty).unwrap();
            assert_eq!(fitted.report().interrupted, shutdown.is_some(), "{label}");
            let want = fitted.impute(&dirty).unwrap();

            let ck = TrainCheckpoint::load(&dir.join(crate::checkpoint::CHECKPOINT_FILE))
                .expect("final checkpoint written");
            let restored = pipeline.restore(&dirty, &ck).expect("restores");
            assert_eq!(restored.report().epochs_run, 0, "restore never trains");
            assert_eq!(restored.column_tiers(), fitted.column_tiers(), "{label}");
            let got = restored.impute(&dirty).unwrap();
            assert_eq!(got, want, "{label}: restored model must impute identically");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn restoring_a_foreign_checkpoint_is_a_typed_error() {
        let mut dirty = small_table(45);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(2));
        let dir = std::env::temp_dir().join(format!("grimp-restore-alien-{}", std::process::id()));
        let cfg = GrimpConfig {
            checkpoint_dir: Some(dir.clone()),
            ..quick_config()
        };
        Pipeline::new(cfg).unwrap().fit(&dirty).unwrap();
        let ck = TrainCheckpoint::load(&dir.join(crate::checkpoint::CHECKPOINT_FILE)).unwrap();

        // A table with wider dictionaries produces different task-head
        // shapes: restore must reject the checkpoint instead of silently
        // misloading it.
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let mut other = Table::empty(schema);
        for i in 0..45 {
            let a = format!("a{}", i % 5);
            let b = format!("b{}", i % 5);
            other.push_str_row(&[Some(&a), Some(&b)]);
        }
        let narrow = Pipeline::new(quick_config()).unwrap();
        match narrow.restore(&other, &ck) {
            Err(GrimpError::Checkpoint { .. }) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("shape-mismatched checkpoint must not restore"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fitting_a_zero_column_table_is_a_typed_error() {
        let dirty = Table::empty(Schema::from_pairs(&[]));
        match Pipeline::new(quick_config()).unwrap().fit(&dirty) {
            Err(GrimpError::EmptySchema) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a zero-column table must not fit"),
        }
    }
}
