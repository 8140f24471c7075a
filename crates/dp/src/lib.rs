//! Deterministic data-parallel training for the ALF two-player game.
//!
//! [`DpTrainer`] is the *sharded* task-gradient source of the two-player
//! round that `alf_core::AlfTrainer` owns (and embeds one): each
//! minibatch is sharded across N long-lived worker replicas (the
//! prewarmed `(CnnModel, RunCtx)` replica pattern shared with
//! `Evaluator` and `alf-serve`), every worker runs its share of the
//! batch-norm statistics pass and then forward/backward on its shard,
//! and the per-sample gradients are combined with a
//! **fixed-order tree all-reduce** before a single task optimizer step on
//! the master model. The round then runs the per-block autoencoder
//! players block-per-worker.
//!
//! The engine's defining property is that the worker count is *purely a
//! resource knob*: training at 1, 2, 4 or 7 workers produces bitwise
//! identical weights, because
//!
//! * gradients are computed at per-sample granularity (so no float
//!   accumulation ever crosses a shard boundary),
//! * the reduction tree over the per-sample gradient leaves is a pure
//!   function of the batch size ([`allreduce`]), and
//! * batch-norm running statistics are refreshed once per step by a
//!   forward-only *statistics pass* that the workers themselves run,
//!   each over its shard of the clean batch (`alf_nn::Mode::Stats`):
//!   every sample contributes one partial sum per channel, and the
//!   partials are folded in batch-slot order through a shared
//!   `alf_nn::StatExchange`, so the result is bitwise that of one
//!   whole-batch train-mode forward whatever the shard layout. Workers
//!   then normalise with those *frozen* statistics rather than
//!   (shard-layout-dependent) per-shard batch statistics. The master
//!   model runs no forward at all inside a step.
//!
//! The same crate owns **fault tolerance**: [`DpTrainer::checkpoint`]
//! captures everything a run's trajectory depends on — model state, SGD
//! momentum, the `νprune` schedule and the epoch/step/data-seed counters
//! that pin the data order — as a versioned `alf_core::checkpoint` v2
//! blob, and [`DpTrainer::resume`] continues a killed run bitwise
//! identically to one that was never interrupted.
//!
//! See `DESIGN.md` ("Data-parallel training & fault tolerance") for the
//! full determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allreduce;
pub mod codec;
mod trainer;

pub use trainer::{DpConfig, DpTrainer};

/// Crate-wide result alias.
pub type Result<T> = alf_tensor::Result<T>;
