//! A small blocking HTTP/1.1 client for tests and benchmarks.
//!
//! One [`HttpClient`] owns one keep-alive connection; [`request`] writes
//! a request and blocks until the full `content-length`-framed response
//! arrives. Bytes read past the current response (server pipelining never
//! happens here, but short reads split anywhere) carry over to the next
//! call. This is the load-generation side of the `serve_http` benchmark
//! workload and of the socket smoke test — deliberately simple, not a
//! general client.
//!
//! The connection carries **both** a read and a write deadline (a
//! stalled server can block a writer too, once the socket send buffer
//! fills), and an expired deadline surfaces as the typed
//! [`ClientError::Timeout`] rather than a bare `io::Error` the caller
//! has to kind-match.
//!
//! [`request`]: HttpClient::request

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Typed client failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// A socket deadline expired. `during` names the phase ("connect",
    /// "write request", "read response") and `deadline` is the limit
    /// that was exceeded.
    Timeout {
        /// What the client was doing when the deadline hit.
        during: &'static str,
        /// The configured deadline.
        deadline: Duration,
    },
    /// Any other socket-level failure (refused, reset, EOF mid-response).
    Io(io::Error),
    /// The server answered, but not with parseable HTTP/1.1.
    Malformed(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout { during, deadline } => {
                write!(f, "timed out after {deadline:?} while {during}")
            }
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Malformed(detail) => write!(f, "malformed response: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ClientError {
    /// Classifies a raw socket error: deadline expiries (`WouldBlock` on
    /// Unix, `TimedOut` elsewhere) become [`ClientError::Timeout`].
    fn from_io(e: io::Error, during: &'static str, deadline: Duration) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                Self::Timeout { during, deadline }
            }
            _ => Self::Io(e),
        }
    }
}

/// Client result alias.
pub(crate) type ClientResult<T> = std::result::Result<T, ClientError>;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The `content-length`-framed body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A blocking keep-alive connection to an [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    timeout: Duration,
    /// Bytes read past the previous response.
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connects (blocking) with `TCP_NODELAY` and `timeout` as both the
    /// read and the write deadline, so a wedged server fails a test with
    /// a typed [`ClientError::Timeout`] instead of hanging it.
    ///
    /// # Errors
    ///
    /// Connect/configuration failures, classified ([`ClientError`]).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> ClientResult<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ClientError::from_io(e, "connecting", timeout))?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(ClientError::Io)?;
        Ok(Self {
            stream,
            timeout,
            carry: Vec::new(),
        })
    }

    /// `GET target` with no extra headers.
    ///
    /// # Errors
    ///
    /// Same contract as [`HttpClient::request`].
    pub fn get(&mut self, target: &str) -> ClientResult<ClientResponse> {
        self.request("GET", target, &[], &[])
    }

    /// `POST target` with the given extra headers and body.
    ///
    /// # Errors
    ///
    /// Same contract as [`HttpClient::request`].
    pub fn post(
        &mut self,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> ClientResult<ClientResponse> {
        self.request("POST", target, headers, body)
    }

    /// Writes one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when either socket deadline expires,
    /// [`ClientError::Malformed`] for an unparseable response,
    /// [`ClientError::Io`] for everything else (including a server that
    /// closes mid-response).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> ClientResult<ClientResponse> {
        let mut wire = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for (name, value) in headers {
            wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        wire.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(body);
        self.stream
            .write_all(&wire)
            .map_err(|e| ClientError::from_io(e, "writing request", self.timeout))?;
        self.read_response()
    }

    fn read_more(&mut self) -> ClientResult<()> {
        let mut chunk = [0u8; 4096];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| ClientError::from_io(e, "reading response", self.timeout))?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            )));
        }
        self.carry.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> ClientResult<ClientResponse> {
        // Header block: everything up to the first CRLFCRLF.
        let header_end = loop {
            if let Some(pos) = find_double_crlf(&self.carry) {
                break pos;
            }
            self.read_more()?;
        };
        let head = String::from_utf8(self.carry[..header_end].to_vec())
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| bad("empty response head"))?;
        let mut parts = status_line.splitn(3, ' ');
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(bad("malformed status line"));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad("not an HTTP/1.x response"));
        }
        let status: u16 = code.parse().map_err(|_| bad("non-numeric status code"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad("header without colon"))?;
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .ok_or_else(|| bad("response without content-length"))?
            .1
            .parse()
            .map_err(|_| bad("non-numeric content-length"))?;
        let body_start = header_end + 4;
        while self.carry.len() < body_start + length {
            self.read_more()?;
        }
        let body = self.carry[body_start..body_start + length].to_vec();
        self.carry.drain(..body_start + length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

fn bad(detail: &str) -> ClientError {
    ClientError::Malformed(detail.to_string())
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn stalled_server_surfaces_a_typed_timeout() {
        // A listener that accepts (kernel backlog) but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = HttpClient::connect(addr, Duration::from_millis(60)).unwrap();
        let err = client.get("/stalled").unwrap_err();
        assert!(matches!(err, ClientError::Timeout { .. }), "{err}");
        assert!(err.to_string().contains("reading response"), "{err}");
        drop(listener);
    }

    #[test]
    fn both_deadlines_are_installed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = HttpClient::connect(addr, Duration::from_millis(250)).unwrap();
        // The kernel may round the deadline to its timer granularity, so
        // assert presence and ballpark rather than the exact value.
        let near = |d: Option<Duration>| {
            let d = d.expect("deadline installed");
            d >= Duration::from_millis(200) && d <= Duration::from_millis(300)
        };
        assert!(near(client.stream.read_timeout().unwrap()));
        assert!(near(client.stream.write_timeout().unwrap()));
    }
}
