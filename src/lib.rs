//! Facade crate for the ALF reproduction workspace.
//!
//! Re-exports every sub-crate under one root so that examples and
//! integration tests (and downstream users who want the whole stack) can
//! depend on a single crate:
//!
//! * [`tensor`] — dense `f32` tensors and convolution kernels.
//! * [`nn`] — layers, losses and optimizers with manual backprop.
//! * [`data`] — deterministic synthetic vision datasets.
//! * [`core`] — the ALF technique: blocks, two-player training, deployment.
//! * [`baselines`] — magnitude / FPGM / AMC-style / LCNN compression baselines.
//! * [`hwmodel`] — the Eyeriss-like accelerator model with mapping search.
//! * [`serve`] — batched inference serving for deployed models.
//! * [`net`] — network front end over `serve` (`serve::net`): HTTP/1.1,
//!   multi-model routing, `/metrics` exposition.
//! * [`dp`] — deterministic data-parallel training with checkpoint/resume.
//! * [`dist`] — `dp`'s dense/sparse gradient codec under its old path.
//! * [`obs`] — zero-dependency observability: metrics registry, JSONL
//!   event tracing, shared JSON writer.
//!
//! Cross-crate failures unify under the facade [`Error`] (see
//! [`crate::error`]); each sub-crate's own error stays the source of
//! truth.
//!
//! # Quickstart
//!
//! ```no_run
//! use alf::core::models::plain20;
//! use alf::core::train::{AlfHyper, AlfTrainer};
//! use alf::data::SynthVision;
//!
//! # fn main() -> alf::Result<()> {
//! let data = SynthVision::cifar_like(0).with_train_size(512).build()?;
//! let model = plain20(data.num_classes(), 8)?;
//! let mut trainer = AlfTrainer::new(model, AlfHyper::default(), 0)?;
//! let report = trainer.run(&data, 2)?;
//! println!("accuracy {:.1}%", 100.0 * report.final_accuracy());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;

pub use alf_baselines as baselines;
pub use alf_core as core;
pub use alf_data as data;
pub use alf_dp as dp;
/// The gradient codec ([`alf_dp::codec`]) under the path the repo
/// benchmark's `dist.*` probes import it from; they are its only caller.
pub use alf_dp::codec as dist;
pub use alf_hwmodel as hwmodel;
pub use alf_lab as lab;
pub use alf_nn as nn;
pub use alf_obs as obs;
pub use alf_serve as serve;
/// The serving front end ([`alf_serve::net`]) under its own facade path.
pub use alf_serve::net;
pub use alf_tensor as tensor;

pub use error::{Error, Result};
