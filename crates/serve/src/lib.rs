//! Batched inference serving for deployed ALF models.
//!
//! The paper's deployment story ends with [`alf_core::deploy::Pipeline`]
//! producing a dense `code conv → 1×1 expansion` network; this crate is
//! the runtime that actually serves it. A [`Server`] accepts single-image
//! classification requests on a bounded submission queue and a pool of
//! worker threads pulls batches off it. Batch formation is
//! work-conserving: a free worker takes what is queued at that moment —
//! an even share of it while siblings are free too, up to `max_batch` once
//! they are all busy — and never holds a request back to wait for
//! batch-mates, so a lone request costs one forward and full batches
//! appear exactly when the replicas are saturated. (There is no batching
//! window: on these models a batch of 8 takes ≈ 8× a batch of 1, so a
//! window bought latency and no throughput; DESIGN.md has the numbers.)
//! Each worker owns a long-lived `(model, RunCtx)` [`Replica`],
//! so after warm-up the per-batch arena traffic is zero — the same
//! steady-state contract the training hot loop enforces in
//! `tests/profiling.rs`.
//!
//! [`ServeConfig::precision`] selects the numeric engine per model:
//! [`Precision::F32`] serves the deployed model as-is, while
//! [`Precision::Int8`] (with a calibration batch) has every replica fold
//! batch-norm and lower the model to the fused `i8×i8→i32` engine at
//! start-up — and again after every hot checkpoint swap, reusing the
//! same calibration.
//!
//! ```text
//! submit() ──► bounded queue ──► fair-share pull ──► worker replicas
//!    │              │                                   │
//!    │         Overloaded /                        Prediction per
//!    │         ShuttingDown                        request (Pending)
//!    └── Pending ◄──────────────────────────────────────┘
//! ```
//!
//! Operational features:
//!
//! * **Admission control.** The queue depth is bounded; a submit against a
//!   full queue gets a typed [`ServeError::Overloaded`] rejection instead
//!   of unbounded latency.
//! * **Request deadlines.** [`Server::submit_with_deadline`] attaches an
//!   optional deadline; the batcher drops requests whose deadline passed
//!   while they queued, answering them with [`ServeError::Expired`]
//!   instead of wasting a replica slot on a reply nobody is waiting for.
//! * **Graceful shutdown.** [`Server::shutdown`] stops admissions, drains
//!   every queued and in-flight request, and joins the workers; requests
//!   arriving during the drain are rejected with
//!   [`ServeError::ShuttingDown`] — nothing is silently dropped.
//! * **Hot model swap.** [`Server::swap_checkpoint`] validates a new
//!   checkpoint blob against a staging replica and then lets every worker
//!   reload it *between* batches; requests in flight during the swap are
//!   still answered.
//! * **Observability.** [`Server::stats`] snapshots request counters, a
//!   batch-size histogram and p50/p95/p99 latency from a fixed-bucket
//!   log-scale histogram; the hot path touches only `Instant`.
//! * **Network front end.** [`net`] answers HTTP/1.1 predict, hot-swap
//!   and `/metrics` requests over TCP, one blocking thread per
//!   connection, in front of one [`Server`] per model.
//!
//! # Example
//!
//! ```
//! use alf_core::models::plain20;
//! use alf_serve::{ServeConfig, Server};
//! use alf_tensor::Tensor;
//!
//! # fn main() -> alf_serve::Result<()> {
//! let model = plain20(4, 4).expect("model");
//! let server = Server::start(&model, ServeConfig::new(3, 12, 12))?;
//! let pending = server.submit(Tensor::zeros(&[3, 12, 12]))?;
//! let prediction = pending.wait()?;
//! assert!(prediction.class < 4);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
mod replica;
mod server;
mod stats;

pub use replica::{Prediction, Replica};
pub use server::{Pending, Precision, ServeConfig, Server};
pub use stats::ServerStats;

use std::fmt;

/// Typed serving failures. Rejections ([`ServeError::Overloaded`],
/// [`ServeError::ShuttingDown`]) are part of the protocol — a caller that
/// receives one knows its request was never enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue was full; the request was not admitted.
    Overloaded {
        /// The configured queue bound that was hit.
        queue_depth: usize,
    },
    /// The server is draining (or already stopped); the request was not
    /// admitted.
    ShuttingDown,
    /// The request's deadline passed while it waited in the queue; it was
    /// dropped by the batcher without occupying a replica slot.
    Expired,
    /// The request (or configuration) is malformed — e.g. wrong image
    /// dimensions.
    BadRequest(String),
    /// A hot-swap blob failed validation; the serving model is unchanged.
    BadCheckpoint(String),
    /// A model forward failed while serving a batch.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "submission queue full ({queue_depth} waiting); retry later"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down; request rejected"),
            ServeError::Expired => {
                write!(f, "request deadline expired before a replica picked it up")
            }
            ServeError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServeError::BadCheckpoint(detail) => write!(f, "bad checkpoint: {detail}"),
            ServeError::Internal(detail) => write!(f, "internal serving error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
