//! # grimp-baselines
//!
//! Every comparator of the GRIMP paper's evaluation (§4), implemented from
//! scratch on the workspace's own substrates:
//!
//! | Paper name | Type | Here |
//! |---|---|---|
//! | MISF (MissForest) | iterative random forests | [`MissForest`] |
//! | FUNF (FUNFOREST) | FD-pointed MissForest (§4.3) | [`MissForest::funforest`] |
//! | FD (FD-REPAIR) | minimality repair (§4.3) | [`FdRepair`] |
//! | HOLO (HoloClean/AimNet) | attention discriminative model | [`AimNetLike`] |
//! | DWIG (DataWig) | independent per-attribute models | [`DataWigLike`] |
//! | TURL | masked-cell token predictor | [`TurlSub`] |
//! | EMBDI-MC | EMBDI embeddings + single classifier | [`EmbdiMc`] |
//! | — | classical references | [`MeanMode`], [`KnnImputer`], [`Mice`] |
//! | MIDA \[23\] | denoising autoencoder | [`Mida`] |
//! | GAIN \[54\] | adversarial (LSGAN) imputer | [`Gain`] |
//!
//! The GNN-MC ablation arm lives in `grimp-core` (it shares GRIMP's shared
//! layer). TURL and AimNet are documented substitutions — see DESIGN.md §3.

#![warn(missing_docs)]

pub mod aimnet;
pub mod datawig;
pub mod embdi_mc;
pub mod encoding;
pub mod fd_repair;
pub mod forest;
pub mod gain;
pub mod mice;
pub mod mida;
pub mod missforest;
pub mod simple;
pub mod tree;
pub mod turl;

pub use aimnet::{AimNetConfig, AimNetLike};
pub use datawig::{DataWigConfig, DataWigLike};
pub use embdi_mc::{EmbdiMc, EmbdiMcConfig};
pub use encoding::{mean_mode_fill, FeatCol, FeatureMatrix};
pub use fd_repair::FdRepair;
pub use forest::{ForestConfig, RandomForest};
pub use gain::{Gain, GainConfig};
pub use mice::{Mice, MiceConfig};
pub use mida::{Mida, MidaConfig};
pub use missforest::{MissForest, MissForestConfig};
pub use simple::{KnnImputer, MeanMode};
pub use tree::{DecisionTree, SplitRule, TreeConfig, TreeLabels, TreeTarget};
pub use turl::{TurlConfig, TurlSub};
