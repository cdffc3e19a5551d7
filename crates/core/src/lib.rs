//! # grimp (grimp-core)
//!
//! GRIMP — **G**raph embeddings for **R**elational data **IMP**utation
//! (Cappuzzo, Thirumuruganathan, Papotti; EDBT 2024) — reimplemented in
//! Rust on a from-scratch autodiff/GNN stack.
//!
//! GRIMP imputes missing values in mixed categorical/numerical tables:
//!
//! 1. the table becomes a heterogeneous quasi-bipartite graph
//!    ([`grimp_graph::TableGraph`]);
//! 2. a heterogeneous GraphSAGE ([`grimp_gnn::HeteroSage`]) plus a two-layer
//!    merge step (the *shared layer*) produces cell-value embeddings;
//! 3. one *task* per attribute — multi-class classifier or regressor,
//!    linear or attention-structured ([`Task`]) — imputes that attribute,
//!    trained jointly under hard parameter sharing with a summed dual loss
//!    (cross-entropy/focal + MSE) and early stopping on a 20 % validation
//!    holdout.
//!
//! Training is self-supervised: every non-missing cell yields a training
//! sample with that cell masked, so no clean data is required.
//!
//! ## Quickstart
//!
//! [`Pipeline`] is the one way to fit GRIMP, over a [`GrimpConfig`] written
//! as a struct literal on one of its presets ([`GrimpConfig::paper`],
//! [`GrimpConfig::fast`]):
//!
//! ```
//! use grimp::{GrimpConfig, Pipeline};
//! use grimp_table::csv::read_csv_str;
//!
//! let dirty = read_csv_str("city,country\nParis,France\nRome,\nParis,\n").unwrap();
//! let config = GrimpConfig {
//!     seed: 1,
//!     ..GrimpConfig::fast()
//! };
//! let fitted = Pipeline::new(config).unwrap().fit(&dirty).unwrap();
//! let imputed = fitted.impute(&dirty).unwrap();
//! assert_eq!(imputed.n_missing(), 0);
//! println!("trained {} epochs", fitted.report().epochs_run);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod checkpoint;
pub mod config;
mod engine;
pub mod error;
pub mod fault;
pub mod federated;
pub mod governor;
pub mod incremental;
pub mod mc;
pub mod model;
pub mod params;
pub mod pipeline;
pub mod report;
pub mod tasks;
pub mod tuner;
pub mod vectors;
pub mod wal;

pub use checkpoint::{
    TrainCheckpoint, CHECKPOINT_FILE, CHECKPOINT_MAGIC, CHECKPOINT_PREV_FILE, CHECKPOINT_VERSION,
};
pub use config::{
    CategoricalLoss, ConfigError, FinetuneConfig, GrimpConfig, KStrategy, SamplerConfig, TaskKind,
};
pub use engine::TrainState;
pub use error::{ErrorCategory, GrimpError};
pub use fault::TrainAnomaly;
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{FaultKind, FaultPlan};
pub use federated::{FederatedConfig, FederatedGrimp, FederatedReport};
pub use governor::{
    downscale_to_budget, estimate_footprint, pid_alive, DirLock, FootprintEstimate, ShutdownFlag,
    LOCK_FILE,
};
pub use grimp_tensor::BackendKind;
pub use incremental::{grow_table, table_to_wal_rows, AppendOutcome, AppendPath};
pub use mc::{GlobalDomain, GnnMc};
pub use model::FittedModel;
pub use params::{ParamCounts, ParamFormula};
pub use pipeline::Pipeline;
pub use report::{ColumnTier, DownscaleDecision, DownscaleRung, EpochStats, TrainReport};
pub use tasks::{build_k_matrix, Task};
pub use tuner::{default_candidates, select_config, ProbeResult, TunerConfig};
pub use vectors::VectorBatch;
pub use wal::{WalBase, WalRead, WalRow, WalSegment, WAL_APPLIED_FILE, WAL_FILE};
