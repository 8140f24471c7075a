//! Incremental HTTP/1.1 request parsing and response serialisation.
//!
//! [`RequestParser`] is a byte-at-a-time state machine: [`feed`] accepts
//! any chunking of the input stream — one byte per call, the whole request
//! at once, or arbitrary splits — and produces the identical [`Request`]
//! and consumed-byte count in every case (the property test in
//! `tests/http_proptest.rs` drives exactly that invariant). It consumes
//! *only* the bytes of the request it returns, so pipelined keep-alive
//! bytes stay in the caller's buffer for the next `feed`.
//!
//! The parser is deliberately small and strict: request line + headers +
//! `content-length`-framed body, HTTP/1.0 and 1.1 only. Every limit
//! (request-line length, cumulative header bytes, header count, body
//! size) is enforced as bytes arrive, so a hostile peer cannot make the
//! parser buffer unboundedly, and every failure is a typed [`HttpError`]
//! carrying its HTTP status — never a panic. `transfer-encoding` is
//! refused with `501` rather than half-supported.
//!
//! [`feed`]: RequestParser::feed

use std::fmt;

/// Size bounds enforced while parsing; all are checked incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Cumulative header-block bound, bytes (sum of header line lengths).
    pub max_header_bytes: usize,
    /// Most headers accepted in one request.
    pub max_headers: usize,
    /// Largest accepted `content-length`, bytes.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    /// 4 KiB request line, 16 KiB of headers, 64 headers, 1 MiB body.
    fn default() -> Self {
        Self {
            max_request_line: 4096,
            max_header_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1 << 20,
        }
    }
}

/// A typed parse failure; [`HttpError::status`] maps it to the HTTP
/// status the connection answers with before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD SP target SP HTTP/x.y`.
    BadRequestLine(String),
    /// The request line exceeded [`HttpLimits::max_request_line`].
    RequestLineTooLong {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// A header line is malformed (missing colon, empty or non-token
    /// name, obs-fold continuation).
    BadHeader(String),
    /// The header block exceeded [`HttpLimits::max_header_bytes`].
    HeaderTooLarge {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// More headers than [`HttpLimits::max_headers`].
    TooManyHeaders {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// `content-length` is non-numeric or repeated with disagreeing
    /// values.
    BadContentLength(String),
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// The configured bound that was hit.
        limit: usize,
    },
    /// The version token is `HTTP/…` but neither 1.0 nor 1.1.
    UnsupportedVersion(String),
    /// A `transfer-encoding` header was present; only
    /// `content-length` framing is implemented.
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The `(status code, reason phrase)` this error is answered with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequestLine(_)
            | HttpError::BadHeader(_)
            | HttpError::BadContentLength(_) => (400, "Bad Request"),
            HttpError::RequestLineTooLong { .. } => (414, "URI Too Long"),
            HttpError::HeaderTooLarge { .. } | HttpError::TooManyHeaders { .. } => {
                (431, "Request Header Fields Too Large")
            }
            HttpError::BodyTooLarge { .. } => (413, "Content Too Large"),
            HttpError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
            HttpError::UnsupportedTransferEncoding => (501, "Not Implemented"),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine(detail) => write!(f, "bad request line: {detail}"),
            HttpError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            HttpError::BadHeader(detail) => write!(f, "bad header: {detail}"),
            HttpError::HeaderTooLarge { limit } => {
                write!(f, "header block exceeds {limit} bytes")
            }
            HttpError::TooManyHeaders { limit } => write!(f, "more than {limit} headers"),
            HttpError::BadContentLength(detail) => write!(f, "bad content-length: {detail}"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version '{v}'"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// The two protocol versions the parser accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0`: connections close unless `connection: keep-alive`.
    Http10,
    /// `HTTP/1.1`: connections persist unless `connection: close`.
    Http11,
}

/// One fully parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target, as sent (path plus optional `?query`).
    pub target: String,
    /// Protocol version.
    pub version: HttpVersion,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The `content-length`-framed body (empty when none was declared).
    pub body: Vec<u8>,
}

impl Request {
    /// First header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target with any `?query` suffix removed.
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }

    /// Whether the connection persists after this exchange: HTTP/1.1
    /// unless `connection: close`, HTTP/1.0 only with
    /// `connection: keep-alive`.
    pub(crate) fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        match self.version {
            HttpVersion::Http11 => !conn.eq_ignore_ascii_case("close"),
            HttpVersion::Http10 => conn.eq_ignore_ascii_case("keep-alive"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    RequestLine,
    Headers,
    Body { remaining: usize },
}

/// Incremental request parser; see the module docs for the contract.
#[derive(Debug)]
pub struct RequestParser {
    limits: HttpLimits,
    state: State,
    line: Vec<u8>,
    header_bytes: usize,
    method: String,
    target: String,
    version: HttpVersion,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    failed: Option<HttpError>,
}

impl RequestParser {
    /// Fresh parser with the given limits.
    pub fn new(limits: HttpLimits) -> Self {
        Self {
            limits,
            state: State::RequestLine,
            line: Vec::new(),
            header_bytes: 0,
            method: String::new(),
            target: String::new(),
            version: HttpVersion::Http11,
            headers: Vec::new(),
            body: Vec::new(),
            failed: None,
        }
    }

    /// True between requests: nothing of a partial request is buffered.
    pub fn is_idle(&self) -> bool {
        self.state == State::RequestLine && self.line.is_empty() && self.failed.is_none()
    }

    /// Feeds bytes in. Returns `(consumed, Some(request))` when a request
    /// completed — `consumed` covers exactly that request's bytes, any
    /// remainder of `input` belongs to the next request — or
    /// `(input.len(), None)` when more bytes are needed. The parser resets
    /// itself after each completed request, so one instance serves a whole
    /// keep-alive connection.
    ///
    /// # Errors
    ///
    /// A typed [`HttpError`]; the parser is poisoned afterwards (every
    /// later call returns the same error) and the connection must close
    /// after answering with [`HttpError::status`].
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.feed_inner(input) {
            Ok(done) => Ok(done),
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    fn feed_inner(&mut self, input: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        let mut consumed = 0;
        while consumed < input.len() {
            match self.state {
                State::RequestLine | State::Headers => {
                    let byte = input[consumed];
                    consumed += 1;
                    if byte == b'\n' {
                        if self.finish_line()? {
                            return Ok((consumed, Some(self.take_request())));
                        }
                    } else {
                        self.push_line_byte(byte)?;
                    }
                }
                State::Body { remaining } => {
                    let take = remaining.min(input.len() - consumed);
                    self.body
                        .extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if remaining == take {
                        return Ok((consumed, Some(self.take_request())));
                    }
                    self.state = State::Body {
                        remaining: remaining - take,
                    };
                }
            }
        }
        Ok((consumed, None))
    }

    fn push_line_byte(&mut self, byte: u8) -> Result<(), HttpError> {
        match self.state {
            State::RequestLine => {
                if self.line.len() >= self.limits.max_request_line {
                    return Err(HttpError::RequestLineTooLong {
                        limit: self.limits.max_request_line,
                    });
                }
            }
            State::Headers => {
                self.header_bytes += 1;
                if self.header_bytes > self.limits.max_header_bytes {
                    return Err(HttpError::HeaderTooLarge {
                        limit: self.limits.max_header_bytes,
                    });
                }
            }
            State::Body { .. } => unreachable!("body bytes never reach the line accumulator"),
        }
        self.line.push(byte);
        Ok(())
    }

    /// Handles one completed line (terminator already consumed, trailing
    /// `\r` stripped here). Returns `true` when the whole request is done.
    fn finish_line(&mut self) -> Result<bool, HttpError> {
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        let line = std::mem::take(&mut self.line);
        match self.state {
            State::RequestLine => {
                // Robustness (RFC 9112 §2.2): skip empty line(s) that
                // precede the request line.
                if line.is_empty() {
                    return Ok(false);
                }
                self.parse_request_line(&line)?;
                self.state = State::Headers;
                Ok(false)
            }
            State::Headers => {
                if line.is_empty() {
                    return self.finish_headers();
                }
                self.parse_header_line(&line)?;
                Ok(false)
            }
            State::Body { .. } => unreachable!("body bytes never reach the line accumulator"),
        }
    }

    fn parse_request_line(&mut self, line: &[u8]) -> Result<(), HttpError> {
        let text = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadRequestLine("not valid UTF-8".to_string()))?;
        let mut parts = text.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
            _ => {
                return Err(HttpError::BadRequestLine(format!(
                    "expected 'METHOD SP target SP version', got {text:?}"
                )))
            }
        };
        if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(HttpError::BadRequestLine(format!(
                "method {method:?} is not an uppercase token"
            )));
        }
        if !target.starts_with('/') {
            return Err(HttpError::BadRequestLine(format!(
                "target {target:?} must start with '/'"
            )));
        }
        self.version = match version {
            "HTTP/1.1" => HttpVersion::Http11,
            "HTTP/1.0" => HttpVersion::Http10,
            v if v.starts_with("HTTP/") => {
                return Err(HttpError::UnsupportedVersion(v.to_string()))
            }
            v => {
                return Err(HttpError::BadRequestLine(format!(
                    "version token {v:?} is not HTTP/x.y"
                )))
            }
        };
        self.method = method.to_string();
        self.target = target.to_string();
        Ok(())
    }

    fn parse_header_line(&mut self, line: &[u8]) -> Result<(), HttpError> {
        if self.headers.len() >= self.limits.max_headers {
            return Err(HttpError::TooManyHeaders {
                limit: self.limits.max_headers,
            });
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadHeader("not valid UTF-8".to_string()))?;
        if text.starts_with(' ') || text.starts_with('\t') {
            return Err(HttpError::BadHeader(
                "obs-fold continuation lines are not supported".to_string(),
            ));
        }
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::BadHeader(format!("no colon in {text:?}")));
        };
        let token = |b: u8| {
            b.is_ascii_alphanumeric()
                || matches!(
                    b,
                    b'!' | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'+'
                        | b'-'
                        | b'.'
                        | b'^'
                        | b'_'
                        | b'`'
                        | b'|'
                        | b'~'
                )
        };
        if name.is_empty() || !name.bytes().all(token) {
            return Err(HttpError::BadHeader(format!(
                "name {name:?} is not a token"
            )));
        }
        self.headers
            .push((name.to_ascii_lowercase(), value.trim().to_string()));
        Ok(())
    }

    /// End of the header block: decide body framing.
    fn finish_headers(&mut self) -> Result<bool, HttpError> {
        if self.headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        let mut lengths = self.headers.iter().filter(|(n, _)| n == "content-length");
        let remaining = match lengths.next() {
            None => 0,
            Some((_, first)) => {
                if lengths.any(|(_, v)| v != first) {
                    return Err(HttpError::BadContentLength(
                        "repeated with disagreeing values".to_string(),
                    ));
                }
                first.parse::<usize>().map_err(|_| {
                    HttpError::BadContentLength(format!("{first:?} is not a number"))
                })?
            }
        };
        if remaining > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                limit: self.limits.max_body_bytes,
            });
        }
        if remaining == 0 {
            return Ok(true);
        }
        self.body.reserve(remaining);
        self.state = State::Body { remaining };
        Ok(false)
    }

    /// Extracts the completed request and resets for the next one.
    fn take_request(&mut self) -> Request {
        let request = Request {
            method: std::mem::take(&mut self.method),
            target: std::mem::take(&mut self.target),
            version: self.version,
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
        };
        self.state = State::RequestLine;
        self.header_bytes = 0;
        self.line.clear();
        request
    }
}

/// Serialises one response (status line, `content-type`,
/// `content-length`, `connection`) followed by `body` into `out`.
/// The only framing the parser on the other side needs is
/// `content-length`, which this always writes.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    use std::io::Write;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing into a Vec<u8> cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        RequestParser::new(HttpLimits::default()).feed(input)
    }

    #[test]
    fn parses_a_get_without_body() {
        let (consumed, req) = parse_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        let req = req.unwrap();
        assert_eq!(consumed, b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n".len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_a_post_with_body_and_keeps_pipelined_bytes() {
        let wire = b"POST /p HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /next";
        let mut parser = RequestParser::new(HttpLimits::default());
        let (consumed, req) = parser.feed(wire).unwrap();
        let req = req.unwrap();
        assert_eq!(req.body, b"abc");
        assert_eq!(&wire[consumed..], b"GET /next");
        assert!(parser.is_idle());
    }

    #[test]
    fn byte_at_a_time_matches_whole_buffer() {
        let wire = b"POST /v1/models/m/predict HTTP/1.1\r\nx-request-id: r0\r\ncontent-length: 4\r\n\r\n\x01\x02\x03\x04";
        let whole = parse_all(wire).unwrap().1.unwrap();
        let mut parser = RequestParser::new(HttpLimits::default());
        let mut bytewise = None;
        for (i, b) in wire.iter().enumerate() {
            let (used, done) = parser.feed(std::slice::from_ref(b)).unwrap();
            assert_eq!(used, 1);
            if let Some(r) = done {
                assert_eq!(i, wire.len() - 1, "completed early");
                bytewise = Some(r);
            }
        }
        assert_eq!(bytewise.unwrap(), whole);
    }

    #[test]
    fn leading_blank_lines_are_skipped() {
        let (_, req) = parse_all(b"\r\n\r\nGET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.unwrap().method, "GET");
    }

    #[test]
    fn http10_defaults_to_close() {
        let (_, req) = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.unwrap().keep_alive());
        let (_, req) = parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.unwrap().keep_alive());
        let (_, req) = parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!req.unwrap().keep_alive());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for wire in [
            &b"GET/ HTTP/1.1\r\n\r\n"[..],
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
        ] {
            let err = parse_all(wire).unwrap_err();
            assert_eq!(err.status().0, 400, "{err} for {wire:?}");
        }
        let err = parse_all(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 505);
    }

    #[test]
    fn oversized_pieces_get_their_own_statuses() {
        let limits = HttpLimits {
            max_request_line: 16,
            max_header_bytes: 32,
            max_headers: 2,
            max_body_bytes: 8,
        };
        let mut p = RequestParser::new(limits);
        let err = p
            .feed(b"GET /aaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status().0, 414);

        let mut p = RequestParser::new(limits);
        let err = p
            .feed(b"GET / HTTP/1.1\r\nh: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n")
            .unwrap_err();
        assert_eq!(err, HttpError::HeaderTooLarge { limit: 32 });
        assert_eq!(err.status().0, 431);

        let mut p = RequestParser::new(limits);
        let err = p
            .feed(b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status().0, 431);

        let mut p = RequestParser::new(limits);
        let err = p
            .feed(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n")
            .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge { limit: 8 });
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn truncated_body_stays_incomplete() {
        let mut parser = RequestParser::new(HttpLimits::default());
        let (consumed, done) = parser
            .feed(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
            .unwrap();
        assert_eq!(
            consumed,
            b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".len()
        );
        assert!(done.is_none());
        assert!(!parser.is_idle());
        let (_, done) = parser.feed(b"defghij").unwrap();
        assert_eq!(done.unwrap().body, b"abcdefghij");
    }

    #[test]
    fn transfer_encoding_is_refused() {
        let err = parse_all(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::UnsupportedTransferEncoding);
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn content_length_disagreement_is_refused() {
        let err = parse_all(b"POST / HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 4\r\n\r\n")
            .unwrap_err();
        assert!(matches!(err, HttpError::BadContentLength(_)));
        let (_, req) =
            parse_all(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok")
                .unwrap();
        assert_eq!(req.unwrap().body, b"ok");
    }

    #[test]
    fn poisoned_parser_keeps_returning_the_error() {
        let mut parser = RequestParser::new(HttpLimits::default());
        let err = parser.feed(b"BROKEN\r\n").unwrap_err();
        assert_eq!(parser.feed(b"GET / HTTP/1.1\r\n\r\n").unwrap_err(), err);
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "text/plain", b"hi", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
