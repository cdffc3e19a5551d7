//! # grimp-repro
//!
//! Workspace facade of the GRIMP reproduction (*"Relational Data Imputation
//! with Graph Neural Networks"*, EDBT 2024). Re-exports every member crate
//! and offers a [`prelude`] with the handful of types most programs need.
//!
//! ```
//! use grimp_repro::prelude::*;
//!
//! let dirty = read_csv_str("a,b\nx,1\ny,\nx,1\n").unwrap();
//! let config = GrimpConfigBuilder::from_config(GrimpConfig::fast())
//!     .seed(0)
//!     .build()
//!     .unwrap();
//! let model = Pipeline::new(config).unwrap().fit(&dirty).unwrap();
//! let imputed = model.impute(&dirty).unwrap();
//! assert_eq!(imputed.n_missing(), 0);
//! ```

#![warn(missing_docs)]

pub use grimp;
pub use grimp_baselines as baselines;
pub use grimp_datasets as datasets;
pub use grimp_gnn as gnn;
pub use grimp_graph as graph;
pub use grimp_metrics as metrics;
pub use grimp_obs as obs;
pub use grimp_table as table;
pub use grimp_tensor as tensor;

/// The types most imputation programs need.
pub mod prelude {
    pub use grimp::{
        CheckpointPolicy, ColumnTier, ConfigError, EpochStats, ErrorCategory, FittedModel, Grimp,
        GrimpConfig, GrimpConfigBuilder, GrimpError, KStrategy, Pipeline, ResourceLimits,
        SamplerConfig, TaskKind, TrainReport,
    };
    pub use grimp_metrics::{dataset_stats, evaluate};
    pub use grimp_obs::{EventKind, EventSink, JsonlSink, MemorySink, NullSink};
    pub use grimp_table::csv::{read_csv, read_csv_str, to_csv_string, write_csv};
    pub use grimp_table::{
        inject_mcar, inject_mnar, inject_typos, ColumnKind, FdSet, Imputer, Schema, Table, Value,
    };
}
