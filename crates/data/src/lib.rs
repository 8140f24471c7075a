//! Deterministic synthetic vision datasets.
//!
//! The paper evaluates on CIFAR-10 and ImageNet. Neither dataset can be
//! shipped with this reproduction, so this crate synthesises classification
//! problems with the same interface and the properties that matter for the
//! experiments:
//!
//! * multi-class image classification learnable by a small CNN,
//! * controllable difficulty (noise, jitter, class count, resolution),
//! * deterministic generation from a single seed, and
//! * the same `NCHW` tensor layout a real data loader would produce.
//!
//! Each class is defined by a smooth random *template* (a sum of Gaussian
//! blobs per channel); a sample is its class template under a random
//! translation, contrast scaling and additive pixel noise. A CNN must learn
//! translation-tolerant spatial features to separate classes — the same
//! qualitative task as natural-image classification, at tractable scale.
//!
//! See `DESIGN.md` (Substitutions) for the full argument of why this
//! preserves the paper's measured trends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod batcher;
mod dataset;
pub mod plan;
mod synth;

pub use augment::Augment;
pub use batcher::Batches;
pub use dataset::{Dataset, Split};
pub use plan::EpochPlan;
pub use synth::{SynthVision, SynthVisionBuilder};

/// Crate-wide result alias.
pub type Result<T> = alf_tensor::Result<T>;
