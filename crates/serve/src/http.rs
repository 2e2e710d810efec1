//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`]: just
//! enough protocol for the campaign API — request parsing with a bounded
//! head and body, plain responses, and chunked transfer encoding for row
//! streams.
//!
//! The workspace vendors no HTTP crate, and the API needs exactly four
//! verbs worth of surface, so the layer is hand-rolled and std-only. Each
//! piece of framing exists once: one request writer and one chunk decoder
//! (shared by the test client and [`crate::client`]), one response-head
//! writer (plain responses and row streams, each head in one write), and
//! one chunk framer (the follower poller's).
//!
//! # Hostile-client posture
//!
//! Parsing never trusts the peer: the request line and every header line
//! are read through `read_line_bounded`, which buffers at most the
//! head budget no matter how many bytes arrive without a newline, and the
//! whole request is subject to a wall-clock [`ReadLimits::deadline`] — a
//! client trickling one byte per socket-timeout interval (slow loris)
//! exhausts the deadline, not a worker thread. Failures carry a typed
//! [`HttpError`] so the server can answer `400`/`408`/`413`/`431` with a
//! JSON body instead of silently dropping the connection.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default upper bound on a request head (start line + headers) in bytes.
pub const MAX_HEAD: usize = 16 * 1024;
/// Default upper bound on a request body in bytes — campaign specs are
/// small.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be read — each protocol-level variant maps to
/// the HTTP status the server should answer with; [`HttpError::Io`] means
/// the transport itself died and no response can be delivered.
#[derive(Debug)]
pub enum HttpError {
    /// The request violates the grammar (→ `400 Bad Request`).
    Malformed(String),
    /// The start line + headers exceed the head budget
    /// (→ `431 Request Header Fields Too Large`).
    HeadTooLarge,
    /// `Content-Length` exceeds the body budget
    /// (→ `413 Content Too Large`).
    BodyTooLarge(usize),
    /// The client was too slow delivering the request — a socket read
    /// timed out or the per-request deadline lapsed
    /// (→ `408 Request Timeout`).
    Timeout,
    /// The connection itself failed; there is nobody to answer.
    Io(io::Error),
}

impl HttpError {
    /// The `(status, reason, message)` the server should answer with, or
    /// `None` when the transport is dead.
    pub fn response(&self) -> Option<(u16, &'static str, String)> {
        match self {
            HttpError::Malformed(m) => Some((400, "Bad Request", m.clone())),
            HttpError::HeadTooLarge => Some((
                431,
                "Request Header Fields Too Large",
                "request head exceeds the configured budget".to_string(),
            )),
            HttpError::BodyTooLarge(n) => Some((
                413,
                "Content Too Large",
                format!("body of {n} bytes exceeds the configured budget"),
            )),
            HttpError::Timeout => Some((
                408,
                "Request Timeout",
                "client was too slow delivering the request".to_string(),
            )),
            HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => f.write_str("request head too large"),
            HttpError::BodyTooLarge(n) => write!(f, "request body of {n} bytes too large"),
            HttpError::Timeout => f.write_str("request read timed out"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maps a transport error: socket-timeout kinds become [`HttpError::Timeout`]
/// (answerable), everything else is a dead connection.
fn classify(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Budgets applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct ReadLimits {
    /// Byte budget for the start line + headers.
    pub max_head: usize,
    /// Byte budget for the body (`Content-Length` is rejected above it).
    pub max_body: usize,
    /// Wall-clock budget for the entire request — the slow-loris guard.
    /// `None` disables it (trusted in-process callers only).
    pub deadline: Option<Duration>,
}

impl Default for ReadLimits {
    fn default() -> Self {
        ReadLimits {
            max_head: MAX_HEAD,
            max_body: MAX_BODY,
            deadline: None,
        }
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/campaigns/abc`).
    pub path: String,
    /// The raw query string after `?`, empty when absent.
    pub query: String,
    /// Header map with lower-cased names.
    headers: HashMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from `reader` under `limits`.
    ///
    /// # Errors
    ///
    /// `Ok(None)` on a cleanly closed connection (EOF before any bytes);
    /// a typed [`HttpError`] on malformed, oversized, or too-slow
    /// requests, and on transport failures.
    pub fn read<R: BufRead>(
        reader: &mut R,
        limits: &ReadLimits,
    ) -> Result<Option<Request>, HttpError> {
        let deadline = limits.deadline.map(|d| Instant::now() + d);
        let start = match read_line_bounded(reader, limits.max_head, deadline)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => return Ok(None),
            Some(line) => line,
        };
        let mut parts = start.split_whitespace();
        let (method, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1") => (m, t),
            _ => {
                return Err(HttpError::Malformed(format!(
                    "malformed request line {start:?}"
                )))
            }
        };
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let headers = read_headers(reader, limits.max_head - start.len(), deadline)?;
        let length: usize = match headers.get("content-length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        };
        if length > limits.max_body {
            return Err(HttpError::BodyTooLarge(length));
        }
        let mut body = vec![0; length];
        read_exact_deadline(reader, &mut body, deadline)?;

        Ok(Some(Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
        }))
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The value of one `key=value` pair in the query string, if present
    /// (no percent-decoding — the API's tokens don't need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, buffering at most
/// `limit` bytes of line content and re-checking `deadline` every time
/// the transport hands over bytes — a trickling client burns its deadline,
/// not unbounded memory or time. `Ok(None)` at EOF before any byte.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    limit: usize,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::Timeout);
        }
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify(e)),
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("EOF inside line".into()))
            };
        }
        // Never buffer more than one byte past the budget: that one byte
        // is how "the line continues past the limit" is detected.
        let take = available.len().min(limit + 1 - line.len());
        match available[..take].iter().position(|&b| b == b'\n') {
            Some(i) => {
                line.extend_from_slice(&available[..i]);
                reader.consume(i + 1);
                if line.len() > limit {
                    return Err(HttpError::HeadTooLarge);
                }
                while line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| HttpError::Malformed("line is not UTF-8".into()));
            }
            None => {
                line.extend_from_slice(&available[..take]);
                reader.consume(take);
                if line.len() > limit {
                    return Err(HttpError::HeadTooLarge);
                }
            }
        }
    }
}

/// Reads header lines up to the blank line into a map with lower-cased
/// names, within `budget` bytes in all — requests and responses alike.
fn read_headers<R: BufRead>(
    reader: &mut R,
    budget: usize,
    deadline: Option<Instant>,
) -> Result<HashMap<String, String>, HttpError> {
    let mut headers = HashMap::new();
    let mut used = 0;
    loop {
        let line = read_line_bounded(reader, budget - used, deadline)?
            .ok_or_else(|| HttpError::Malformed("EOF inside headers".into()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        used += line.len();
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("malformed header line {line:?}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// Fills `buf` completely, re-checking `deadline` between transport reads.
fn read_exact_deadline<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < buf.len() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::Timeout);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(HttpError::Malformed("EOF inside body".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(classify(e)),
        }
    }
    Ok(())
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Surfaces an [`HttpError`] as a plain I/O error on the client side (the
/// client retries, it doesn't answer with a status).
fn into_io(e: HttpError) -> io::Error {
    match e {
        HttpError::Io(e) => e,
        e => bad(e.to_string()),
    }
}

/// Client-side line read, bounded like the server's.
fn client_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    read_line_bounded(reader, MAX_HEAD, None).map_err(into_io)
}

/// Renders a response head into one buffer, so it reaches an unbuffered
/// socket in a single write: `Content-Type`, the body's `framing` header
/// (its length, or chunked transfer), `Connection: close`, then `extra`.
pub(crate) fn response_head(
    status: u16,
    reason: &str,
    content_type: &str,
    (framing, value): (&str, &str),
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{framing}: {value}\r\nConnection: close\r\n"
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Writes a complete (non-chunked) response in one write.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let length = ("Content-Length", body.len().to_string());
    let mut response = response_head(
        status,
        reason,
        content_type,
        (length.0, &length.1),
        extra_headers,
    );
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// The zero-length chunk that terminates a chunked body.
pub(crate) const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Frames `data` as one HTTP chunk onto `out` (empty input frames
/// nothing — an empty chunk would terminate the body).
pub(crate) fn frame_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// The one chunk decoder: yields a chunked body's payload bytes as they
/// arrive and reports end of input at the terminating chunk. Chunk-size
/// lines are read under the same bound as every other line, nothing is
/// allocated from a declared size, and any framing fault or early EOF is
/// an error.
pub(crate) struct Dechunked<R> {
    inner: R,
    /// Payload bytes left in the current chunk.
    left: usize,
    /// A chunk was opened, so its closing CRLF precedes the next size.
    opened: bool,
    /// The terminating chunk was read.
    done: bool,
}

impl<R: BufRead> Dechunked<R> {
    pub(crate) fn new(inner: R) -> Self {
        Dechunked {
            inner,
            left: 0,
            opened: false,
            done: false,
        }
    }
}

impl<R: BufRead> BufRead for Dechunked<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.left == 0 && !self.done {
            if self.opened {
                let mut crlf = [0; 2];
                self.inner.read_exact(&mut crlf)?;
                if &crlf != b"\r\n" {
                    return Err(bad("chunk not closed by CRLF".into()));
                }
            }
            let line = client_line(&mut self.inner)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "EOF at chunk boundary")
            })?;
            self.left = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            self.opened = true;
            if self.left == 0 {
                // The trailer section (we send none) ends with a blank line.
                client_line(&mut self.inner)?;
                self.done = true;
            }
        }
        if self.done {
            return Ok(&[]);
        }
        let available = self.inner.fill_buf()?;
        if available.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside chunk",
            ));
        }
        Ok(&available[..available.len().min(self.left)])
    }

    fn consume(&mut self, n: usize) {
        self.inner.consume(n);
        self.left -= n;
    }
}

impl<R: BufRead> Read for Dechunked<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Writes a request with a `Content-Length` body in one write.
pub(crate) fn write_request<W: Write>(
    stream: &mut W,
    method: &str,
    target: &str,
    host: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    stream.flush()
}

/// A parsed client-side response — the test/CI helper's view.
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Header map with lower-cased names.
    pub headers: HashMap<String, String>,
    /// The body, de-chunked when the response used chunked transfer.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// Reads a status line + headers from `reader`.
pub(crate) fn read_response_head<R: BufRead>(
    reader: &mut R,
) -> io::Result<(u16, HashMap<String, String>)> {
    let status_line = client_line(reader)?.ok_or_else(|| bad("no status line".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let headers = read_headers(reader, MAX_HEAD, None).map_err(into_io)?;
    Ok((status, headers))
}

/// Minimal HTTP client for tests and smoke scripts: sends one request to
/// `addr` and reads the full (de-chunked) response.
///
/// # Errors
///
/// Propagates connection and protocol errors.
pub fn client_request(addr: &str, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    write_request(&mut stream.try_clone()?, method, target, addr, body)?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    // Every response closes its connection, so a plain body ends at EOF.
    let mut body = Vec::new();
    if headers.get("transfer-encoding").map(String::as_str) == Some("chunked") {
        Dechunked::new(reader).read_to_end(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn dechunk<R: BufRead>(reader: R) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        Dechunked::new(reader).read_to_end(&mut body)?;
        Ok(body)
    }

    fn parse(raw: &str, limits: &ReadLimits) -> Result<Option<Request>, HttpError> {
        Request::read(&mut Cursor::new(raw.as_bytes().to_vec()), limits)
    }

    #[test]
    fn parses_a_well_formed_request() {
        let req = parse(
            "POST /campaigns?sink=jsonl HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
            &ReadLimits::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.query_param("sink"), Some("jsonl"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn bare_lf_lines_parse_too() {
        let req = parse("GET /healthz HTTP/1.1\nHost: x\n\n", &ReadLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("", &ReadLimits::default()).unwrap().is_none());
    }

    #[test]
    fn garbage_request_lines_are_malformed() {
        for raw in ["BLARG\r\n\r\n", "GET /\r\n\r\n", "GET / SMTP/1.0\r\n\r\n"] {
            let err = parse(raw, &ReadLimits::default()).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}: {err}");
            assert_eq!(err.response().unwrap().0, 400);
        }
    }

    #[test]
    fn oversized_request_lines_are_431_without_unbounded_buffering() {
        let limits = ReadLimits {
            max_head: 64,
            ..ReadLimits::default()
        };
        // No newline at all: the reader must give up after the budget,
        // not buffer the whole stream.
        let raw = format!("GET /{} HTTP/1.1", "a".repeat(1024 * 1024));
        let err = parse(&raw, &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err}");
        assert_eq!(err.response().unwrap().0, 431);
    }

    #[test]
    fn oversized_header_blocks_are_431() {
        let limits = ReadLimits {
            max_head: 128,
            ..ReadLimits::default()
        };
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(512));
        let err = parse(&raw, &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err}");
    }

    #[test]
    fn oversized_declared_bodies_are_413_before_any_body_read() {
        let limits = ReadLimits {
            max_body: 16,
            ..ReadLimits::default()
        };
        let err = parse(
            "POST /campaigns HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            &limits,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(999999)), "{err}");
        assert_eq!(err.response().unwrap().0, 413);
    }

    #[test]
    fn truncated_bodies_and_heads_are_malformed() {
        let err = parse(
            "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            &ReadLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        let err = parse("GET / HTTP/1.1\r\nHost: x", &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn non_utf8_lines_are_malformed() {
        let mut raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
        let err = Request::read(
            &mut Cursor::new(std::mem::take(&mut raw)),
            &ReadLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn an_expired_deadline_times_the_request_out() {
        let limits = ReadLimits {
            deadline: Some(Duration::ZERO),
            ..ReadLimits::default()
        };
        let err = parse("GET / HTTP/1.1\r\n\r\n", &limits).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert_eq!(err.response().unwrap().0, 408);
    }

    #[test]
    fn chunked_bodies_round_trip_through_a_buffer() {
        let mut out = response_head(
            200,
            "OK",
            "text/plain",
            ("Transfer-Encoding", "chunked"),
            &[("X-Tag", "t")],
        );
        frame_chunk(&mut out, b"hello ");
        frame_chunk(&mut out, b""); // no-op, must not terminate
        frame_chunk(&mut out, b"world");
        out.extend_from_slice(LAST_CHUNK);
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("X-Tag: t\r\n"));
        assert!(text.contains("6\r\nhello \r\n"));
        assert!(text.contains("5\r\nworld\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
        let mut reader = Cursor::new(out);
        let (status, headers) = read_response_head(&mut reader).unwrap();
        assert_eq!((status, headers["x-tag"].as_str()), (200, "t"));
        assert_eq!(dechunk(reader).unwrap(), b"hello world");
    }

    #[test]
    fn a_response_is_one_write() {
        /// Counts the `write` calls it receives.
        struct Writes(Vec<u8>, usize);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new(), 0);
        write_response(
            &mut out,
            404,
            "Not Found",
            "text/plain",
            &[("X-A", "1")],
            b"no",
        )
        .unwrap();
        assert_eq!(out.1, 1);
        assert_eq!(
            out.0,
            b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
              Connection: close\r\nX-A: 1\r\n\r\nno"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn framed_payloads_decode_to_their_concatenation(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..6),
        ) {
            let mut framed = Vec::new();
            for payload in &payloads {
                frame_chunk(&mut framed, payload);
            }
            framed.extend_from_slice(LAST_CHUNK);
            let decoded = dechunk(Cursor::new(framed)).unwrap();
            prop_assert_eq!(decoded, payloads.concat());
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_chunk_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
            hexish in prop::collection::vec(
                prop::sample::select(b"0123456789abcdefABCDEF\r\n;x ".to_vec()),
                0..64,
            ),
        ) {
            let _ = dechunk(Cursor::new(bytes));
            let _ = dechunk(Cursor::new(hexish));
        }
    }
}
