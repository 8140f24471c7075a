//! `alf-dist`: multi-process data-parallel training over TCP sockets,
//! bitwise-identical to the single-process [`alf_dp::DpTrainer`].
//!
//! # Design
//!
//! A collective of `world` rank processes trains one model. Every rank
//! holds a **full replica** of the trainer state; only per-sample
//! gradients cross the wire. Each step:
//!
//! 1. Every rank computes gradient leaves for its contiguous batch
//!    shard (`shard_range`), exactly as one `DpTrainer` worker would.
//! 2. Each rank executes the adds of the global stride-doubling tree
//!    ([`alf_dp::allreduce`]) whose operand span fits inside its shard,
//!    and ships the surviving subtree roots to rank 0.
//! 3. Rank 0 executes the boundary-crossing adds in global stride
//!    order and broadcasts the reduced gradient (plus the slot-order
//!    `f64` loss fold as raw bits and the correct count) to all ranks.
//! 4. Every rank replays the identical batch-mean scale, clip, SGD step
//!    and autoencoder move — so all replicas stay in bitwise lockstep.
//!
//! The same floating-point adds happen on the same operand bits in the
//! same dependency order as `tree_reduce_into_first`, so results are
//! **bitwise identical to a single process at any rank count** — gated
//! by `tests/dist.rs`.
//!
//! # Wire format
//!
//! Connections speak the [`frame`] protocol: an `ALFDIST1` preamble per
//! direction, then `u32 len | payload | u32 crc32` frames (the CRC is
//! the workspace-shared [`alf_obs::crc32`]) carrying [`protocol`]
//! messages. Gradients use the [`codec`] sparse/dense per-tensor
//! cutover: when the gated STE zeroes pruned channels' rows, the sparse
//! run-length row encoding (keyed off
//! [`alf_core::CnnModel::param_active_rows`]) elides them losslessly,
//! so bytes-on-wire shrink as mask occupancy falls.
//!
//! Failures are typed [`DistError`]s: a dead or hung peer is
//! [`DistError::RankLost`], a version/architecture mismatch is
//! [`DistError::ProtocolMismatch`], a CRC or length violation is
//! [`DistError::FrameCorrupt`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod launcher;
pub mod net;
pub mod protocol;
pub mod reducer;
pub mod runtime;

pub use codec::{decode_grad, encode_grad, EncodeStats, GradLayout};
pub use error::{DistError, Result};
pub use frame::{FrameStream, WireMetrics, MAGIC, MAX_FRAME};
pub use launcher::{check_exits, ephemeral_addr, Launcher, RankExit};
pub use protocol::{model_fingerprint, Message, PROTOCOL_VERSION};
pub use reducer::{DistConfig, DistReducer};
pub use runtime::{run_rank, write_atomic, RankOutcome, RunOptions, DIE_EXIT_CODE};
