//! ALF: autoencoder-based low-rank filter-sharing (the paper's primary
//! contribution), reproduced in Rust.
//!
//! The crate is organised around the paper's §III:
//!
//! * [`autoencoder`] — the sparse weight autoencoder (`Wenc`, `Wdec`,
//!   trainable mask `M`, clipping, `σae`) with hand-derived gradients
//!   (paper Eq. 3/4/6).
//! * [`block`] — the ALF block: code convolution + optional `σinter` /
//!   `BNinter` + 1×1 expansion layer (paper Eq. 1/2), with the
//!   straight-through estimator routing the task gradient onto `W`
//!   (paper Eq. 5).
//! * [`PruneSchedule`] — the pruning-pressure schedule
//!   `νprune = max(0, 1 − exp(m·(θ − prmax)))`.
//! * [`model`] — CNN models whose convolutions are either standard layers
//!   or ALF blocks (Plain-20, ResNet-20, ResNet-18 in [`models`]).
//! * [`train`] — the two-player training loop: task optimizer vs. per-block
//!   autoencoder optimizers.
//! * [`deploy`] — post-training stripping of zero filters and the matching
//!   expansion-layer channels, producing a dense compressed model.
//! * [`ConvShape`] / [`NetworkCost`] — Params/OPs accounting (the
//!   quantities in Tables II/III); the exact layer geometries of the
//!   comparison architectures live in [`models::geometry`].
//! * [`explore`] — the configuration-space exploration harness behind
//!   Fig. 2a/2b.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoencoder;
pub mod block;
pub mod checkpoint;
pub mod deploy;
pub mod explore;
mod metrics;
pub mod model;
pub mod models;
pub mod qmodel;
pub mod quant;
mod schedule;
pub mod summary;
pub mod train;

pub use autoencoder::WeightAutoencoder;
pub use block::{AlfBlock, AlfBlockConfig};
pub use metrics::{ConvShape, NetworkCost};
pub use model::{CnnModel, ConvKind};
pub use qmodel::QuantizedModel;
pub use quant::QuantError;
pub use schedule::PruneSchedule;
pub use train::{AlfHyper, AlfTrainer, EpochStats, Evaluator, StateSnapshot, TrainReport};

/// Crate-wide result alias.
pub type Result<T> = alf_tensor::Result<T>;
