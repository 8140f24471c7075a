//! Length-prefixed CRC framing over a TCP stream.
//!
//! The wire format follows the checkpoint-v2 / campaign-manifest
//! container style: each direction of a connection starts with the
//! 8-byte magic `ALFDIST1`, then carries frames of
//!
//! ```text
//! frame := u32 len | payload (len bytes) | u32 crc32(payload)
//! ```
//!
//! encoded and validated by the workspace's shared [`alf_obs::frame`]
//! codec; this module adds the preamble, the size cap, rank attribution
//! and the wire counters. Framing errors are typed: a bad magic is a
//! [`DistError::ProtocolMismatch`], a CRC or length violation is a
//! [`DistError::FrameCorrupt`], and EOF / an expired read deadline is a
//! [`DistError::RankLost`] naming the peer the stream belongs to.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use alf_obs::frame::{self, FrameError};
use alf_obs::{Counter, Histogram, HistogramSpec, MetricsRegistry};

use crate::error::{DistError, Result};

/// Connection preamble, one per stream direction.
pub const MAGIC: &[u8; 8] = b"ALFDIST1";

/// Frames larger than this are rejected as corruption, not allocated.
pub const MAX_FRAME: u32 = 256 << 20;

/// Shared handles to the `dist.*` metrics: bytes and frames in both
/// directions, gradient payload bytes, sparse-tensor counts, and the
/// reduce round-trip histogram. Registered against a caller-provided
/// [`MetricsRegistry`] (or a private one) so `alf dist` runs can expose
/// wire telemetry through the standard snapshot path.
#[derive(Debug, Clone)]
pub struct WireMetrics {
    /// Frame bytes written (length prefix + payload + CRC).
    pub bytes_tx: Counter,
    /// Frame bytes read.
    pub bytes_rx: Counter,
    /// Frames written.
    pub frames_tx: Counter,
    /// Frames read.
    pub frames_rx: Counter,
    /// Encoded gradient payload bytes shipped (subtree roots up,
    /// reduced broadcast down) — the quantity the occupancy sweep gates.
    pub grad_bytes_tx: Counter,
    /// Tensors that took the sparse row encoding.
    pub tensors_sparse: Counter,
    /// Tensors that took the dense encoding.
    pub tensors_dense: Counter,
    /// End-to-end reduce round-trip, nanoseconds.
    pub reduce_ns: Arc<Histogram>,
}

impl WireMetrics {
    /// Registers (or re-attaches to) the `dist.*` instruments in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        Self {
            bytes_tx: reg.counter("dist.bytes_tx"),
            bytes_rx: reg.counter("dist.bytes_rx"),
            frames_tx: reg.counter("dist.frames_tx"),
            frames_rx: reg.counter("dist.frames_rx"),
            grad_bytes_tx: reg.counter("dist.grad_bytes_tx"),
            tensors_sparse: reg.counter("dist.tensors_sparse"),
            tensors_dense: reg.counter("dist.tensors_dense"),
            reduce_ns: reg.histogram("dist.reduce_ns", HistogramSpec::latency_ns()),
        }
    }

    /// Standalone instruments over a private registry, for callers that
    /// only want [`WireMetrics`] accessors (tests, the bench sweep).
    pub fn standalone() -> Self {
        Self::register(&MetricsRegistry::new())
    }
}

/// One framed stream to a known peer rank.
#[derive(Debug)]
pub struct FrameStream {
    stream: TcpStream,
    peer_rank: u32,
    metrics: WireMetrics,
}

impl FrameStream {
    /// Wraps a configured socket. `peer_rank` names the rank on the far
    /// end for [`DistError::RankLost`] attribution.
    pub fn new(stream: TcpStream, peer_rank: u32, metrics: WireMetrics) -> Self {
        Self {
            stream,
            peer_rank,
            metrics,
        }
    }

    /// The rank on the far end of this stream.
    pub fn peer_rank(&self) -> u32 {
        self.peer_rank
    }

    /// Re-attributes the stream once the peer's rank is learned from
    /// its `HELLO` (accept order is arbitrary, so the master wraps the
    /// socket before it knows who connected).
    pub fn set_peer_rank(&mut self, rank: u32) {
        self.peer_rank = rank;
    }

    /// Writes this direction's `ALFDIST1` preamble.
    pub fn send_magic(&mut self) -> Result<()> {
        self.stream.write_all(MAGIC).map_err(|e| self.lost(&e))?;
        self.metrics.bytes_tx.add(MAGIC.len() as u64);
        Ok(())
    }

    /// Reads and validates the peer's preamble.
    pub fn expect_magic(&mut self) -> Result<()> {
        let mut got = [0u8; 8];
        self.stream
            .read_exact(&mut got)
            .map_err(|e| self.lost(&e))?;
        self.metrics.bytes_rx.add(got.len() as u64);
        if &got != MAGIC {
            return Err(DistError::ProtocolMismatch {
                detail: format!(
                    "bad connection magic {:02x?} from rank {} (expected ALFDIST1)",
                    got, self.peer_rank
                ),
            });
        }
        Ok(())
    }

    /// Writes one `len | payload | crc` frame.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_FRAME as usize {
            return Err(DistError::FrameCorrupt {
                detail: format!(
                    "frame payload of {} bytes exceeds cap {MAX_FRAME}",
                    payload.len()
                ),
            });
        }
        let wire = frame::encode(payload);
        self.stream.write_all(&wire).map_err(|e| self.lost(&e))?;
        self.metrics.bytes_tx.add(wire.len() as u64);
        self.metrics.frames_tx.inc();
        Ok(())
    }

    /// Reads one frame, validating length and CRC, honouring the
    /// socket's read deadline.
    pub fn read_frame(&mut self) -> Result<Vec<u8>> {
        let payload = frame::read_from(&mut self.stream, MAX_FRAME).map_err(|e| match e {
            FrameError::Io(e) => self.lost(&e),
            corrupt => DistError::FrameCorrupt {
                detail: format!("{corrupt} (from rank {})", self.peer_rank),
            },
        })?;
        self.metrics
            .bytes_rx
            .add((payload.len() + frame::OVERHEAD) as u64);
        self.metrics.frames_rx.inc();
        Ok(payload)
    }

    /// Maps a socket-level failure to the typed loss of this peer.
    /// EOF, an expired deadline (`WouldBlock`/`TimedOut`) and any other
    /// mid-frame I/O failure all mean the same thing at the collective
    /// level: this rank can no longer be reduced with.
    fn lost(&self, e: &std::io::Error) -> DistError {
        DistError::RankLost {
            rank: self.peer_rank,
            detail: e.to_string(),
        }
    }
}
