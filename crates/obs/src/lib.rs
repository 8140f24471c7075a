//! `alf-obs` — zero-dependency observability for the ALF workspace.
//!
//! This crate is the telemetry trunk the rest of the workspace hangs off:
//!
//! * [`json`] — the single JSON writer ([`json::JsonWriter`]) and string
//!   escaper ([`json::json_escape`]) for every emitter in the workspace
//!   (profiler reports, server stats, bench reports, event records).
//! * [`metrics`] — a [`MetricsRegistry`] of named atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, shareable across
//!   threads and snapshottable to JSON without stopping the world.
//! * [`events`] — a structured [`EventLog`] producing JSON-lines records
//!   through a pluggable [`TelemetrySink`] (in-memory ring for tests,
//!   buffered file for runs, null sink compiled to near-nothing).
//! * [`runtime`] — the shared `ALF_*_THREADS` worker-count parser
//!   ([`resolve_threads`]).
//! * [`crc`] — the workspace's single CRC-32 ([`crc32`]) for every
//!   checksummed byte format (today the campaign manifest).
//! * [`frame`] — the single `u32 len | payload | u32 crc32` frame codec
//!   the campaign manifest is built from.
//!
//! It deliberately has **no dependencies** (std only) so that every crate
//! in the workspace — including `alf-tensor` at the bottom of the stack —
//! can depend on it without cycles.
//!
//! # Overhead discipline
//!
//! Telemetry must never perturb training. Two rules enforce that:
//!
//! 1. **Off is one branch.** A disabled [`EventLog`] answers `None` from
//!    [`EventLog::event`] before any field is formatted, and registry
//!    handles are plain relaxed atomics.
//! 2. **Collection is read-only.** Emitters observe values the
//!    computation already produced (losses, mask stats, grad norms); they
//!    never reorder or re-run arithmetic, so trained weights are bitwise
//!    identical with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod events;
pub mod frame;
pub mod json;
pub mod metrics;
pub mod runtime;

pub use crc::crc32;
pub use events::{Event, EventLog, FileSink, MemoryHandle, MemorySink, NullSink, TelemetrySink};
pub use json::{json_escape, JsonWriter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSpec, MetricsRegistry, MetricsSnapshot};
pub use runtime::{env_threads, resolve_threads};
