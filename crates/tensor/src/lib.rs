//! # grimp-tensor
//!
//! Dense `f32` tensors with tape-based reverse-mode automatic
//! differentiation — the learning substrate for the GRIMP reproduction.
//!
//! The crate is deliberately small and dependency-light: a [`Tensor`] is a
//! row-major matrix, a [`Tape`] is an arena of operation nodes whose backward
//! rules are match arms (no closures), and the ops cover exactly what the
//! GRIMP architecture needs — dense layers, GraphSAGE neighbor aggregation
//! ([`Tape::scatter_mean`]), embedding lookup ([`Tape::gather_rows`]),
//! batched attention read-out ([`Tape::block_weighted_sum`]) and the dual
//! losses of the multi-task head (softmax cross-entropy / focal loss for
//! categorical tasks, MSE for numerical tasks).
//!
//! ## Example
//!
//! ```
//! use grimp_tensor::{Tape, Tensor, Adam, Mlp};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut tape = Tape::new();
//! let mlp = Mlp::new(&mut tape, &[2, 8, 2], &mut rng);
//! tape.freeze();
//! let mut adam = Adam::new(0.05);
//! for _ in 0..50 {
//!     let x = tape.input(Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]));
//!     let logits = mlp.forward(&mut tape, x);
//!     let loss = tape.softmax_cross_entropy(logits, Arc::new(vec![0, 1, 1, 0]));
//!     tape.backward(loss);
//!     adam.step(&mut tape);
//!     tape.reset();
//! }
//! ```

#![warn(missing_docs)]

mod adjacency;
pub mod backend;
pub mod checkpoint;
pub mod gradcheck;
pub mod init;
mod nn;
mod optim;
mod tape;
mod tensor;
mod workspace;

pub use adjacency::Adjacency;
pub use backend::{make_backend, BackendKind, ParallelBackend, SerialBackend, TensorBackend};
pub use checkpoint::{ByteReader, ByteWriter, CheckpointError};
pub use gradcheck::{check_gradients, GradCheckReport};
pub use nn::{Dense, Mlp};
pub use optim::{Adam, AdamState, Sgd};
pub use tape::{
    block_weighted_sum_into, scatter_mean_into, scatter_weighted_into, softmax_rows,
    softmax_rows_in_place, BackwardStats, Tape, Var,
};
pub use tensor::{Tensor, GEMM_K_BLOCK};
pub use workspace::{Workspace, WorkspaceStats};
