//! Baseline CNN compression methods the paper compares ALF against
//! (Tables II/III).
//!
//! * [`magnitude`] — Han et al.'s magnitude pruning, both irregular
//!   (weight-level) and structured (filter-level) variants.
//! * [`fpgm`] — He et al.'s *filter pruning via geometric median*
//!   (handcrafted policy), with an exact Weiszfeld geometric-median solver.
//! * [`amc`] — an AMC-style *learned* layer-wise sparsity search. The
//!   original uses a DDPG agent; this reproduction uses the cross-entropy
//!   method over per-layer keep-ratios with an accuracy-vs-OPs reward,
//!   which plays the same role (a learning-based policy requiring a
//!   hand-crafted reward) at tractable scale — see `DESIGN.md`.
//! * [`lcnn`] — Bagherinezhad et al.'s lookup-based CNN: a shared filter
//!   dictionary per layer with 1-sparse lookups.
//!
//! All methods operate on a trained [`alf_core::CnnModel`] with standard
//! convolutions, produce per-layer keep decisions, apply them by *channel
//! silencing* (zeroing filters and the BN affine so the channel output is
//! exactly zero — functionally identical to removal without reshaping),
//! and report [`api::chained_cost`]-style Params/OPs accounting where a
//! pruned layer also shrinks the next layer's input channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amc;
pub mod api;
pub mod fpgm;
pub mod lcnn;
pub mod magnitude;
pub mod sensitivity;

pub use amc::{AmcAgent, AmcConfig};
pub use api::{chained_cost, Policy};
pub use fpgm::geometric_median;
pub use sensitivity::layer_sensitivity;

/// Crate-wide result alias.
pub type Result<T> = alf_tensor::Result<T>;
