//! Unified error type for the facade crate.
//!
//! Each sub-crate keeps its own error as the source of truth
//! ([`alf_tensor::ShapeError`], [`alf_serve::ServeError`],
//! [`alf_hwmodel::MapperError`]); this module only gives callers that work
//! across crate boundaries — the `examples/` and integration tests here, or
//! a downstream binary — one type to `?` into instead of stringifying or
//! boxing at every seam.

use std::fmt;

/// Any error the ALF stack can produce, by origin.
///
/// `#[non_exhaustive]`: future sub-crates may add variants without a
/// breaking change, so downstream matches need a `_` arm.
///
/// # Example
///
/// ```
/// use alf::tensor::{ops, Tensor};
///
/// fn incompatible() -> alf::Result<Tensor> {
///     let a = Tensor::zeros(&[2, 3]);
///     let b = Tensor::zeros(&[4, 5]);
///     Ok(ops::matmul(&a, &b)?)
/// }
///
/// assert!(matches!(incompatible(), Err(alf::Error::Shape(_))));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Tensor shapes incompatible with an operation (most training-time
    /// failures surface as this).
    Shape(alf_tensor::ShapeError),
    /// A checkpoint or weight blob failed validation on load. Carried as
    /// the underlying [`ShapeError`](alf_tensor::ShapeError) whose
    /// operation name is `"checkpoint"`; split out so callers can
    /// distinguish "bad saved state" from "bad model arithmetic".
    Checkpoint(alf_tensor::ShapeError),
    /// Quantization failed — bad bit-width, a non-finite tensor value,
    /// an empty calibration batch, or a model form the int8 engine does
    /// not support. Carries the bit-width/tensor context of the origin.
    Quant(alf_core::quant::QuantError),
    /// The serving engine rejected or failed a request.
    Serve(alf_serve::ServeError),
    /// The network front end failed to start or bind.
    Net(alf_serve::net::NetError),
    /// The accelerator mapper found no feasible mapping.
    Mapper(alf_hwmodel::MapperError),
    /// An I/O failure around the stack — e.g. creating a telemetry
    /// [`FileSink`](alf_obs::events::FileSink) or writing a checkpoint
    /// to disk.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Shape(e) => e.fmt(f),
            Error::Checkpoint(e) => write!(f, "checkpoint: {}", e.detail()),
            Error::Quant(e) => write!(f, "quantize: {e}"),
            Error::Serve(e) => e.fmt(f),
            Error::Net(e) => e.fmt(f),
            Error::Mapper(e) => e.fmt(f),
            Error::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Shape(e) | Error::Checkpoint(e) => Some(e),
            Error::Quant(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Net(e) => Some(e),
            Error::Mapper(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<alf_tensor::ShapeError> for Error {
    /// Routes by origin: the checkpoint codecs in `core` and `dp` report
    /// through [`ShapeError`](alf_tensor::ShapeError) with the operation
    /// name `"checkpoint"`, which lands in [`Error::Checkpoint`]; every
    /// other operation lands in [`Error::Shape`].
    fn from(e: alf_tensor::ShapeError) -> Self {
        if e.op() == "checkpoint" {
            Error::Checkpoint(e)
        } else {
            Error::Shape(e)
        }
    }
}

impl From<alf_core::quant::QuantError> for Error {
    fn from(e: alf_core::quant::QuantError) -> Self {
        Error::Quant(e)
    }
}

impl From<alf_core::deploy::DeployError> for Error {
    /// Splits a deployment failure back into its origin: structural
    /// problems land in [`Error::Shape`], quantization problems keep
    /// their context in [`Error::Quant`].
    fn from(e: alf_core::deploy::DeployError) -> Self {
        match e {
            alf_core::deploy::DeployError::Shape(s) => s.into(),
            alf_core::deploy::DeployError::Quant(q) => Error::Quant(q),
        }
    }
}

impl From<alf_serve::ServeError> for Error {
    fn from(e: alf_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<alf_serve::net::NetError> for Error {
    fn from(e: alf_serve::net::NetError) -> Self {
        Error::Net(e)
    }
}

impl From<alf_hwmodel::MapperError> for Error {
    fn from(e: alf_hwmodel::MapperError) -> Self {
        Error::Mapper(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience alias: `Result` with the facade [`Error`].
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_routes_by_op() {
        let plain: Error = alf_tensor::ShapeError::new("matmul", "2x3 vs 4x5").into();
        assert!(matches!(plain, Error::Shape(_)));
        let ckpt: Error = alf_tensor::ShapeError::new("checkpoint", "bad magic").into();
        assert!(matches!(ckpt, Error::Checkpoint(_)));
        assert_eq!(ckpt.to_string(), "checkpoint: bad magic");
    }

    #[test]
    fn serve_error_converts() {
        let e: Error = alf_serve::ServeError::ShuttingDown.into();
        assert!(matches!(
            e,
            Error::Serve(alf_serve::ServeError::ShuttingDown)
        ));
        assert!(e.to_string().contains("shutting down"));
    }

    #[test]
    fn net_error_converts() {
        let e: Error = alf_serve::net::NetError::BadConfig("no models".to_string()).into();
        assert!(matches!(e, Error::Net(_)));
        assert!(e.to_string().contains("no models"));
    }

    #[test]
    fn quant_error_converts_with_context() {
        let e: Error = alf_core::quant::QuantError::BadBits { bits: 1 }.into();
        assert!(matches!(
            e,
            Error::Quant(alf_core::quant::QuantError::BadBits { bits: 1 })
        ));
        assert!(e.to_string().contains("bit-width 1"));
        let d: Error =
            alf_core::deploy::DeployError::Quant(alf_core::quant::QuantError::EmptyCalibration {
                layer: "input".into(),
            })
            .into();
        assert!(matches!(d, Error::Quant(_)));
        let s: Error =
            alf_core::deploy::DeployError::Shape(alf_tensor::ShapeError::new("deploy", "bad"))
                .into();
        assert!(matches!(s, Error::Shape(_)));
    }

    #[test]
    fn source_chains_to_origin() {
        use std::error::Error as _;
        let e: Error = alf_tensor::ShapeError::new("conv2d", "bad kernel").into();
        let src = e.source().expect("has source");
        assert!(src.to_string().contains("conv2d"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
