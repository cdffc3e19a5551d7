//! # grimp-graph
//!
//! The graph substrate of the GRIMP reproduction:
//!
//! - [`TableGraph`] — the heterogeneous quasi-bipartite graph of §3.2
//!   (RID nodes + attribute-disambiguated cell nodes, one typed edge set per
//!   attribute, validation/test edges removable);
//! - [`FastTextLike`] — hashed character-n-gram embeddings substituting the
//!   pre-trained FastText features of GRIMP-FT (see DESIGN.md §3);
//! - [`train_embdi`] — EMBDI-style weighted random walks + skip-gram with
//!   negative sampling, including GRIMP's "possible imputation" null edges
//!   (GRIMP-E);
//! - [`build_features`] — the three feature-initialization strategies of
//!   §3.4 behind one API.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod embdi;
pub mod fasttext;
pub mod features;
pub mod hetero;

pub use embdi::{train_embdi, EmbdiConfig, EmbdiEmbeddings};
pub use fasttext::FastTextLike;
pub use features::{
    build_features, build_features_traced, fasttext_features, FeatureSource, NodeFeatures,
};
pub use hetero::{
    format_rounded, value_key, GraphConfig, NeighborSampler, NodeLabel, TableGraph, TypeCsr,
    TypedEdges,
};
