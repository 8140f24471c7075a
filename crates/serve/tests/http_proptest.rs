//! Property tests for the incremental HTTP/1.1 parser: the parse result
//! is invariant under input chunking (one byte at a time, random split
//! points, whole buffer), prefixes of a valid request never error or
//! complete early, malformed and oversized inputs map to their typed
//! statuses, and no input — valid, truncated, or random bytes — panics.

use alf_serve::net::http::{HttpError, HttpLimits, Request, RequestParser};
use proptest::collection::vec;
use proptest::prelude::*;

const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE", "HEAD"];
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._~/";
const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// Builds one syntactically valid request from sampled parts and returns
/// `(wire bytes, expected parse)`.
fn build_request(
    method_index: usize,
    path_indices: &[usize],
    header_value_indices: &[Vec<usize>],
    body: &[u8],
) -> (Vec<u8>, Request) {
    let method = METHODS[method_index % METHODS.len()];
    let path: String = std::iter::once('/')
        .chain(
            path_indices
                .iter()
                .map(|&i| PATH_CHARS[i % PATH_CHARS.len()] as char),
        )
        .collect();
    let mut headers: Vec<(String, String)> = header_value_indices
        .iter()
        .enumerate()
        .map(|(n, indices)| {
            let value: String = indices
                .iter()
                .map(|&i| VALUE_CHARS[i % VALUE_CHARS.len()] as char)
                .collect();
            (format!("x-h{n}"), value)
        })
        .collect();
    let mut wire = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    for (name, value) in &headers {
        wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !body.is_empty() {
        wire.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
        headers.push(("content-length".to_string(), body.len().to_string()));
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    let expected = Request {
        method: method.to_string(),
        target: path,
        version: alf_serve::net::http::HttpVersion::Http11,
        headers,
        body: body.to_vec(),
    };
    (wire, expected)
}

/// Feeds `wire` split at the given sorted cut points; returns the parsed
/// request and total consumed bytes.
fn parse_in_chunks(wire: &[u8], cuts: &[usize]) -> Result<(usize, Option<Request>), HttpError> {
    let mut parser = RequestParser::new(HttpLimits::default());
    let mut total = 0usize;
    let mut request = None;
    let mut start = 0usize;
    let bounds: Vec<usize> = cuts.iter().copied().chain([wire.len()]).collect();
    for end in bounds {
        let chunk = &wire[start..end];
        start = end;
        let mut offset = 0;
        while offset < chunk.len() {
            let (used, done) = parser.feed(&chunk[offset..])?;
            offset += used;
            total += used;
            if let Some(r) = done {
                assert!(request.is_none(), "parser produced two requests");
                request = Some(r);
            }
            if used == 0 {
                break;
            }
        }
    }
    Ok((total, request))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chunking_does_not_change_the_parse(
        method_index in 0usize..5,
        path_indices in vec(0usize..41, 0..12),
        h0 in vec(0usize..62, 0..10),
        h1 in vec(0usize..62, 0..10),
        body in vec(0u8..255, 0..40),
        cut_fractions in vec(0.0f64..1.0, 0..8),
    ) {
        let (wire, expected) = build_request(method_index, &path_indices, &[h0, h1], &body);

        // Whole buffer.
        let (consumed, whole) = parse_in_chunks(&wire, &[]).expect("valid request");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(whole.as_ref(), Some(&expected));

        // One byte at a time.
        let every_byte: Vec<usize> = (1..wire.len()).collect();
        let (consumed, bytewise) = parse_in_chunks(&wire, &every_byte).expect("valid request");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(bytewise.as_ref(), Some(&expected));

        // Random split points.
        let mut cuts: Vec<usize> = cut_fractions
            .iter()
            .map(|f| ((f * wire.len() as f64) as usize).min(wire.len()))
            .collect();
        cuts.sort_unstable();
        let (consumed, random) = parse_in_chunks(&wire, &cuts).expect("valid request");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(random.as_ref(), Some(&expected));
    }

    #[test]
    fn prefixes_stay_incomplete_without_error(
        method_index in 0usize..5,
        path_indices in vec(0usize..41, 0..12),
        h0 in vec(0usize..62, 0..10),
        body in vec(0u8..255, 1..40),
        cut_fraction in 0.0f64..1.0,
    ) {
        let (wire, _) = build_request(method_index, &path_indices, &[h0], &body);
        // A strict prefix of a valid request is always "more bytes
        // needed" — typed incomplete, never an error, never a panic.
        let cut = ((cut_fraction * (wire.len() - 1) as f64) as usize).min(wire.len() - 1);
        let mut parser = RequestParser::new(HttpLimits::default());
        let (consumed, done) = parser.feed(&wire[..cut]).expect("prefix must not error");
        prop_assert_eq!(consumed, cut);
        prop_assert!(done.is_none(), "completed on a strict prefix");
        prop_assert_eq!(parser.is_idle(), cut == 0);
    }

    #[test]
    fn malformed_request_lines_are_400(
        kind in 0usize..4,
        path_indices in vec(0usize..41, 0..8),
    ) {
        let path: String = std::iter::once('/')
            .chain(path_indices.iter().map(|&i| PATH_CHARS[i % PATH_CHARS.len()] as char))
            .collect();
        let wire = match kind {
            0 => format!("get {path} HTTP/1.1\r\n\r\n"),          // lowercase method
            1 => format!("GET{path} HTTP/1.1\r\n\r\n"),           // missing separator
            2 => format!("GET {path} HTTP/1.1 junk\r\n\r\n"),     // four fields
            _ => format!("GET {path} WAT/1.1\r\n\r\n"),           // not HTTP at all
        };
        let err = RequestParser::new(HttpLimits::default())
            .feed(wire.as_bytes())
            .expect_err("malformed request line must fail");
        prop_assert_eq!(err.status().0, 400);
    }

    #[test]
    fn oversized_headers_are_431(extra in 0usize..64, pad in vec(0usize..62, 0..4)) {
        let limits = HttpLimits {
            max_header_bytes: 64,
            ..HttpLimits::default()
        };
        let filler: String = pad
            .iter()
            .map(|&i| VALUE_CHARS[i % VALUE_CHARS.len()] as char)
            .collect();
        // One header always larger than the 64-byte block bound.
        let value = "v".repeat(limits.max_header_bytes + 1 + extra);
        let wire = format!("GET / HTTP/1.1\r\nx-p: {filler}\r\nx-big: {value}\r\n\r\n");
        let err = RequestParser::new(limits)
            .feed(wire.as_bytes())
            .expect_err("oversized header must fail");
        prop_assert_eq!(err, HttpError::HeaderTooLarge { limit: 64 });
        prop_assert_eq!(err.status().0, 431);
    }

    #[test]
    fn random_bytes_never_panic(
        noise in vec(0u8..255, 0..200),
        cut_fractions in vec(0.0f64..1.0, 0..6),
    ) {
        let mut cuts: Vec<usize> = cut_fractions
            .iter()
            .map(|f| ((f * noise.len() as f64) as usize).min(noise.len()))
            .collect();
        cuts.sort_unstable();
        // Any outcome is fine — completing, waiting, or a typed error
        // with a real status — as long as nothing panics.
        if let Err(e) = parse_in_chunks(&noise, &cuts) {
            let (status, _) = e.status();
            prop_assert!((400..=599).contains(&status), "status {status}");
        }
    }
}
