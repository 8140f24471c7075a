//! Neural-network building blocks with hand-written backpropagation.
//!
//! This crate supplies everything the ALF training scheme needs from a deep
//! learning framework, implemented from scratch on top of
//! [`alf_tensor`]:
//!
//! * [`layer::Layer`] — the forward/backward/param-visitor contract.
//! * [`ctx::RunCtx`] — the per-run execution context every `forward`/
//!   `backward` call receives: the [`layer::Mode`], the shared scratch
//!   arena all layers draw from, and an optional per-layer profiler.
//! * [`conv::Conv2d`], [`linear::Linear`], [`norm::BatchNorm2d`],
//!   [`activation`] layers and [`pool`] layers.
//! * [`StatExchange`] — the slot-ordered exchange that lets batch norm take
//!   whole-batch statistics over a batch sharded across workers.
//! * [`loss`] — softmax cross-entropy (`Ltask`'s data term) and MSE
//!   (`Lrec`, the autoencoder reconstruction loss).
//! * [`optim::Sgd`] — SGD with momentum and L2 weight decay, the optimizer
//!   used by both players of the two-player game, plus learning-rate
//!   schedules.
//! * [`ste`] — straight-through-estimator primitives (clipped mask gate,
//!   saturating identities) used by the ALF block.
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite to validate every backward pass.
//!
//! The crate deliberately has no autodiff tape: each layer caches what its
//! backward pass needs during `forward`, mirroring how the paper's method is
//! described (explicit gradients, Eq. 5/6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod ctx;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod pool;
mod stats;
pub mod ste;

pub use activation::{Activation, ActivationKind};
pub use conv::Conv2d;
pub use ctx::{Pass, ProfileReport, RunCtx};
pub use layer::{Layer, Mode, Param};
pub use linear::Linear;
pub use loss::{correct_count, mse_loss, softmax_cross_entropy};
pub use norm::BatchNorm2d;
pub use optim::{LrSchedule, Sgd};
pub use stats::{StatExchange, StatLink};

/// Crate-wide result alias; all fallible layer operations yield
/// [`alf_tensor::ShapeError`].
pub type Result<T> = alf_tensor::Result<T>;
