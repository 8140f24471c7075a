//! One connection, served start to finish on its own blocking thread.
//!
//! [`serve`] loops: parse what is buffered, read (4 KiB at a time) only
//! when that holds no whole request, route it (which blocks on the
//! prediction if one was admitted), write the response, repeat. The
//! connection is half-duplex: pipelined bytes wait in the buffer until
//! the response ahead of them is written, so per-connection memory stays
//! bounded by the parser limits plus one response. A parse error answers
//! with its typed status and closes (the stream is unsynchronisable after
//! a framing error).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use alf_obs::metrics::Counter;

use super::http::{write_response, HttpLimits, RequestParser};
use super::router::Router;

/// What every connection thread shares.
pub(crate) struct Shared {
    pub router: Arc<Router>,
    pub limits: HttpLimits,
    /// Responses serialised for a connection (counted before the write).
    pub responses: Counter,
    /// Requests answered with an HTTP parse error.
    pub parse_errors: Counter,
    /// Connections whose thread has finished.
    pub closed: Counter,
}

/// Serves `stream` until the peer closes, an I/O error, a parse error or
/// a `connection: close` exchange. Returns without closing the socket.
pub(crate) fn serve(mut stream: &TcpStream, shared: &Shared) {
    let mut parser = RequestParser::new(shared.limits);
    // Read-but-unparsed bytes (pipelined requests wait here).
    let mut inbuf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let request = match parser.feed(&inbuf) {
            Ok((consumed, request)) => {
                inbuf.drain(..consumed);
                request
            }
            Err(e) => {
                shared.parse_errors.inc();
                let (status, reason) = e.status();
                let body = format!("{e}\n");
                out.clear();
                write_response(
                    &mut out,
                    status,
                    reason,
                    "text/plain; charset=utf-8",
                    body.as_bytes(),
                    false,
                );
                let _ = stream.write_all(&out);
                return;
            }
        };
        let Some(request) = request else {
            match stream.read(&mut chunk) {
                Ok(0) => return, // peer closed; a half-parsed request is abandoned
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
            continue;
        };
        let keep_alive = request.keep_alive();
        let response = shared.router.route(&request);
        shared.responses.inc();
        out.clear();
        write_response(
            &mut out,
            response.status,
            response.reason,
            response.content_type,
            &response.body,
            keep_alive,
        );
        if stream.write_all(&out).is_err() || !keep_alive {
            return;
        }
    }
}
