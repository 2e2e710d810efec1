//! The benchmark's client side: single-attempt fetches with host-time
//! stamps, and small helpers for the service's JSON endpoints.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dream_serve::http::client_request;
use dream_serve::{fetch_rows, RetryPolicy};

/// One stream attempt, no retries: a refusal or a broken stream is a
/// failure of the request being timed, never hidden inside its latency.
fn single_attempt() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        read_timeout: Duration::from_secs(120),
        ..RetryPolicy::default()
    }
}

/// A completed row stream.
#[derive(Clone, Debug)]
pub struct Fetched {
    /// The artifact's row bytes.
    pub rows: Vec<u8>,
    /// Request start → first complete row (`None` for an empty artifact).
    pub first_row: Option<Duration>,
    /// Request start → last row.
    pub total: Duration,
}

/// Collects rows and stamps the first write. The fetch client writes
/// only whole rows (at their newline), so the first write is the first
/// complete row, not the response head.
struct FirstRowWriter {
    start: Instant,
    first: Option<Duration>,
    rows: Vec<u8>,
}

impl FirstRowWriter {
    /// A writer whose stamps count from `start`.
    fn new(start: Instant) -> FirstRowWriter {
        FirstRowWriter {
            start,
            first: None,
            rows: Vec::new(),
        }
    }

    /// `(first-row stamp, bytes written)`.
    fn finish(self) -> (Option<Duration>, Vec<u8>) {
        (self.first, self.rows)
    }
}

impl Write for FirstRowWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(self.start.elapsed());
        }
        self.rows.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `POST /campaigns` with `spec_json`, streaming every row, one attempt.
///
/// # Errors
///
/// Refusals, HTTP errors and broken streams.
pub fn post_campaign(addr: &str, spec_json: &str) -> io::Result<Fetched> {
    let start = Instant::now();
    let mut out = FirstRowWriter::new(start);
    fetch_rows(addr, "/campaigns", spec_json, &mut out, &single_attempt())?;
    let total = start.elapsed();
    let (first_row, rows) = out.finish();
    Ok(Fetched {
        rows,
        first_row,
        total,
    })
}

/// `GET /campaigns/{id}/rows`, reading the whole body.
///
/// # Errors
///
/// Transport errors and non-200 answers.
pub fn get_rows(addr: &str, id: &str) -> io::Result<Fetched> {
    let start = Instant::now();
    let resp = client_request(addr, "GET", &format!("/campaigns/{id}/rows"), b"")?;
    let total = start.elapsed();
    if resp.status != 200 {
        return Err(io::Error::other(format!(
            "GET rows answered {}",
            resp.status
        )));
    }
    Ok(Fetched {
        rows: resp.body,
        first_row: None,
        total,
    })
}

/// Request start → complete response head of a `POST /campaigns`; the
/// body is then drained and discarded.
///
/// # Errors
///
/// Transport errors and non-200 heads.
pub fn time_to_head(addr: &str, spec_json: &str) -> io::Result<Duration> {
    let start = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = stream.try_clone()?;
    write!(
        writer,
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        spec_json.len()
    )?;
    writer.write_all(spec_json.as_bytes())?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside response head",
            ));
        }
        if line == "\r\n" {
            break;
        }
    }
    let head = start.elapsed();
    if status.split_whitespace().nth(1) != Some("200") {
        return Err(io::Error::other(format!("POST answered {}", status.trim())));
    }
    io::copy(&mut reader, &mut io::sink())?;
    Ok(head)
}

/// `GET path` → body text, requiring status 200.
///
/// # Errors
///
/// Transport errors and non-200 answers.
pub fn get_text(addr: &str, path: &str) -> io::Result<String> {
    let resp = client_request(addr, "GET", path, b"")?;
    if resp.status != 200 {
        return Err(io::Error::other(format!(
            "GET {path} answered {}",
            resp.status
        )));
    }
    Ok(String::from_utf8_lossy(&resp.body).into_owned())
}

/// The number after `"key":` in a flat JSON object.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = text[text.find(&needle)? + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Polls `GET /healthz` until the service answers 200.
///
/// # Errors
///
/// Gives up after about five seconds.
pub fn wait_ready(addr: &str) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client_request(addr, "GET", "/healthz", b"") {
            Ok(resp) if resp.status == 200 => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Ok(resp) => {
                return Err(io::Error::other(format!(
                    "healthz answered {}",
                    resp.status
                )))
            }
            Err(e) => return Err(e),
        }
    }
}

/// Asks the service to drain and leave its accept loop.
pub fn shutdown(addr: &str) {
    let _ = client_request(addr, "POST", "/admin/shutdown", b"").map(|resp| resp.body.len());
}
