//! Per-connection state machine, driven by the poll loop.
//!
//! Each accepted socket is nonblocking and owned by one [`Connection`].
//! Every [`tick`] makes whatever progress the socket allows and returns —
//! it never blocks, so one poll thread can drive every connection:
//!
//! 1. flush pending response bytes (`WouldBlock` ⇒ try next tick);
//! 2. poll an in-flight prediction ([`Pending::try_wait`]) and serialise
//!    its response when it resolves;
//! 3. otherwise read, feed the incremental parser, and route a completed
//!    request — an [`Outcome::Immediate`] answer is queued at once, an
//!    admitted prediction parks as in-flight.
//!
//! The connection is half-duplex: while a response is being produced or
//! written, already-read pipelined bytes wait in the input buffer and the
//! socket is not read further, bounding per-connection memory. A parse
//! error answers with its typed status and closes after the write
//! (the stream is unsynchronisable after a framing error).
//!
//! [`tick`]: Connection::tick
//! [`Pending::try_wait`]: alf_serve::Pending::try_wait

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use alf_obs::metrics::{Counter, Histogram};
use alf_serve::Pending;

use crate::http::{write_response, HttpLimits, RequestParser};
use crate::quota::QuotaState;
use crate::router::{Outcome, Router};

/// Front-end instruments shared by every connection.
#[derive(Debug, Clone)]
pub(crate) struct NetCounters {
    /// Responses fully serialised into a connection's output buffer.
    pub responses: Counter,
    /// Requests answered with an HTTP parse error.
    pub parse_errors: Counter,
    /// End-to-end admitted-predict latency (submit → response queued), ns.
    pub request_ns: Arc<Histogram>,
}

struct InFlight {
    pending: Pending,
    model: usize,
    started: Instant,
    keep_alive: bool,
}

/// Whether a connection survives its tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// Connection stays registered; `progressed` is true when bytes moved
    /// or a request resolved (the poll loop skips its idle park then).
    Open {
        /// Whether this tick did any work.
        progressed: bool,
    },
    /// Connection is done (peer closed, fatal I/O error, or close-after-
    /// write completed) and must be dropped.
    Closed,
}

/// One accepted socket plus its parser, buffers and in-flight request.
pub(crate) struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    /// Read-but-unparsed bytes (pipelined requests wait here).
    inbuf: Vec<u8>,
    inflight: Option<InFlight>,
    outbuf: Vec<u8>,
    outpos: usize,
    close_after_write: bool,
}

impl Connection {
    /// Wraps an accepted stream; the caller has already set nonblocking.
    pub(crate) fn new(stream: TcpStream, limits: HttpLimits) -> Self {
        Self {
            stream,
            parser: RequestParser::new(limits),
            inbuf: Vec::new(),
            inflight: None,
            outbuf: Vec::new(),
            outpos: 0,
            close_after_write: false,
        }
    }

    /// Advances the connection as far as the socket allows without
    /// blocking. See the module docs for the step order.
    pub(crate) fn tick(
        &mut self,
        router: &Router,
        quota: &mut QuotaState,
        counters: &NetCounters,
    ) -> Tick {
        let mut progressed = false;

        // 1. Flush queued response bytes.
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Tick::Closed,
                Ok(n) => {
                    self.outpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return Tick::Open { progressed };
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Tick::Closed,
            }
        }
        if self.outpos > 0 {
            self.outbuf.clear();
            self.outpos = 0;
        }

        // 2. Poll the in-flight prediction.
        if let Some(inflight) = &self.inflight {
            let Some(result) = inflight.pending.try_wait() else {
                return Tick::Open { progressed };
            };
            let inflight = self.inflight.take().expect("checked above");
            let response = match &result {
                Ok(prediction) => router.render_prediction(inflight.model, prediction),
                Err(e) => router.render_serve_error(e),
            };
            let elapsed = inflight.started.elapsed();
            counters
                .request_ns
                .record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            counters.responses.inc();
            write_response(
                &mut self.outbuf,
                response.status,
                response.reason,
                response.content_type,
                &response.body,
                inflight.keep_alive,
            );
            if !inflight.keep_alive {
                self.close_after_write = true;
            }
            // Loop back through the flush on the next tick.
            return Tick::Open { progressed: true };
        }

        if self.close_after_write {
            // Response fully flushed (step 1 fell through) and nothing in
            // flight: done.
            return Tick::Closed;
        }

        // 3. Parse buffered pipelined bytes before reading more.
        if !self.inbuf.is_empty() {
            match self.dispatch_buffered(router, quota, counters) {
                Some(tick) => return tick,
                None => progressed = true,
            }
        }

        // 4. Read from the socket.
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer closed; anything half-parsed is abandoned.
                Tick::Closed
            }
            Ok(n) => {
                self.inbuf.extend_from_slice(&chunk[..n]);
                match self.dispatch_buffered(router, quota, counters) {
                    Some(tick) => tick,
                    None => Tick::Open { progressed: true },
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                Tick::Open { progressed }
            }
            Err(_) => Tick::Closed,
        }
    }

    /// Feeds buffered bytes to the parser and routes at most one completed
    /// request (half-duplex: the next pipelined request waits for this
    /// response). Returns `Some(tick)` when the tick should end with that
    /// state, `None` when the caller may continue.
    fn dispatch_buffered(
        &mut self,
        router: &Router,
        quota: &mut QuotaState,
        counters: &NetCounters,
    ) -> Option<Tick> {
        match self.parser.feed(&self.inbuf) {
            Ok((consumed, maybe_request)) => {
                self.inbuf.drain(..consumed);
                let request = maybe_request?;
                let keep_alive = request.keep_alive();
                match router.route(&request, quota) {
                    Outcome::Immediate(response) => {
                        counters.responses.inc();
                        write_response(
                            &mut self.outbuf,
                            response.status,
                            response.reason,
                            response.content_type,
                            &response.body,
                            keep_alive,
                        );
                        if !keep_alive {
                            self.close_after_write = true;
                        }
                    }
                    Outcome::InFlight {
                        pending,
                        model,
                        started,
                    } => {
                        self.inflight = Some(InFlight {
                            pending,
                            model,
                            started,
                            keep_alive,
                        });
                    }
                }
                Some(Tick::Open { progressed: true })
            }
            Err(e) => {
                counters.parse_errors.inc();
                let (status, reason) = e.status();
                write_response(
                    &mut self.outbuf,
                    status,
                    reason,
                    "text/plain; charset=utf-8",
                    format!("{e}\n").as_bytes(),
                    false,
                );
                self.close_after_write = true;
                self.inbuf.clear();
                Some(Tick::Open { progressed: true })
            }
        }
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("inflight", &self.inflight.is_some())
            .field("buffered_in", &self.inbuf.len())
            .field("pending_out", &(self.outbuf.len() - self.outpos))
            .field("close_after_write", &self.close_after_write)
            .finish()
    }
}
