//! # grimp-gnn
//!
//! Heterogeneous GraphSAGE message passing over the GRIMP table graph
//! (paper §3.4–3.5, Eq. 1): one mean-aggregator sub-module per
//! (layer, attribute) pair, summed across edge types (`γ`) and passed
//! through ReLU (`σ`). The `W_self` term realizes the paper's self-loops.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod sage;

pub use sage::{readout_rows, GnnConfig, HeteroSage, OperatorAssignment};
