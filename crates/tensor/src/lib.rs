//! Dense `f32` tensor library underpinning the ALF reproduction.
//!
//! This crate provides the numerical substrate the rest of the workspace is
//! built on: an owned, row-major, `f32` [`Tensor`] with shape checking, the
//! linear-algebra kernels needed for CNN training (blocked [`ops::matmul`],
//! [`ops::im2col`]/[`ops::col2im`] based convolution), elementwise/reduction helpers,
//! and the weight [`init`] schemes compared in the paper (He, Xavier,
//! uniform-random).
//!
//! # Conventions
//!
//! * Activations are `NCHW`: `[batch, channels, height, width]`.
//! * Convolution weights are `[c_out, c_in, k_h, k_w]` (the paper writes
//!   `K×K×Ci×Co`; only the memory order differs, the math is identical).
//! * All randomness flows through [`rng::Rng`], a small deterministic
//!   SplitMix64 generator, so every experiment in the workspace is exactly
//!   reproducible from a `u64` seed.
//!
//! # Example
//!
//! ```
//! use alf_tensor::{Tensor, ops};
//!
//! # fn main() -> Result<(), alf_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod init;
pub mod ops;
pub mod rng;
mod shape;
mod tensor;

pub use error::ShapeError;
pub use shape::Shape;
pub use tensor::{argmax, Tensor};

/// Convenience result alias for fallible tensor operations.
pub type Result<T, E = ShapeError> = std::result::Result<T, E>;
