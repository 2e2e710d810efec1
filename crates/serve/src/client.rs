//! The retrying campaign client: the CLI-side counterpart of the
//! service's backpressure and crash-safety story.
//!
//! [`fetch_campaign`] POSTs a spec and streams the chunked JSONL response
//! into the caller's writer, surviving everything the transport can throw
//! at it:
//!
//! * **Sheds** (`429` queue-full, `503` draining) sleep out the server's
//!   `Retry-After` and resubmit — backpressure is honored, not fought.
//! * **Transport faults** (refused connects, resets, stalls past the read
//!   timeout, streams truncated mid-chunk) retry with exponential backoff
//!   plus deterministic jitter.
//! * **Interrupted streams resume**: only complete rows are ever written
//!   out, their count is carried across attempts, and each retry skips
//!   that prefix of the (byte-identical, deterministically replayed)
//!   stream — so the assembled output is exactly the artifact, no matter
//!   how many times the connection died.
//!
//! Permanent client errors (`400` malformed spec and friends) fail fast —
//! retrying them would never succeed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::hash::sha256;
use crate::http::{read_response_head, write_request, Dechunked};

/// Retry/backoff knobs of one [`fetch_campaign`] call.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Streams opened before giving up (connects that reach a verdict —
    /// sheds count too).
    pub max_attempts: u32,
    /// First backoff delay; doubles per consecutive transport failure.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Socket read timeout — a stream that stalls longer is treated as
    /// interrupted and retried.
    pub read_timeout: Duration,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// What one completed [`fetch_campaign`] did.
#[derive(Clone, Debug, Default)]
pub struct FetchOutcome {
    /// Complete rows written to the output.
    pub rows: usize,
    /// Streams opened (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts answered with `429`/`503` + `Retry-After`.
    pub throttled: u32,
    /// Rows skipped on retries because an earlier stream already
    /// delivered them — nonzero means a mid-stream resume happened.
    pub resumed_rows: usize,
    /// The last `X-Dream-Cache` header seen (`hit`/`join`/`miss`).
    pub cache: Option<String>,
}

/// How one streaming attempt ended.
enum Attempt {
    /// The chunked body terminated cleanly after `rows` total rows.
    Complete { rows: usize, cache: Option<String> },
    /// The server shed the submission; sleep and resubmit.
    Throttled { retry_after: Option<Duration> },
    /// The stream died mid-flight; `rows_done` complete rows are safely
    /// in the output so far.
    Interrupted { rows_done: usize },
    /// A non-retryable HTTP error (4xx other than 429).
    Fatal { status: u16, body: String },
}

/// POSTs `spec_json` to `http://{addr}/campaigns` and streams the JSONL
/// rows into `out`, retrying per `policy` until the artifact is complete.
///
/// # Errors
///
/// Fails on permanent (4xx) server verdicts, on output-write failures,
/// and when `policy.max_attempts` streams all died.
pub fn fetch_campaign(
    addr: &str,
    spec_json: &str,
    out: &mut dyn Write,
    policy: &RetryPolicy,
) -> io::Result<FetchOutcome> {
    fetch_rows(addr, "/campaigns", spec_json, out, policy)
}

/// [`fetch_campaign`] against an arbitrary row-streaming target — the
/// coordinator uses `"/shards"` to pull shard sub-artifacts from workers
/// over exactly the same retry/resume machinery.
///
/// # Errors
///
/// As for [`fetch_campaign`].
pub fn fetch_rows(
    addr: &str,
    target: &str,
    spec_json: &str,
    out: &mut dyn Write,
    policy: &RetryPolicy,
) -> io::Result<FetchOutcome> {
    let mut outcome = FetchOutcome::default();
    let mut rows_done = 0usize;
    let mut delay = policy.base_delay;
    let mut last_error = String::new();
    while outcome.attempts < policy.max_attempts {
        outcome.attempts += 1;
        match try_stream(addr, target, spec_json, rows_done, out, policy) {
            Ok(Attempt::Complete { rows, cache }) => {
                outcome.rows = rows;
                outcome.resumed_rows = rows_done.min(rows);
                outcome.cache = cache;
                return Ok(outcome);
            }
            Ok(Attempt::Throttled { retry_after }) => {
                outcome.throttled += 1;
                last_error = "server shed the submission (backpressure)".to_string();
                if outcome.attempts >= policy.max_attempts {
                    break;
                }
                // Honor the server's interval when it names one; it knows
                // its queue better than our backoff curve does.
                let wait = retry_after.unwrap_or(delay);
                std::thread::sleep(wait + jitter(wait, outcome.attempts));
            }
            Ok(Attempt::Interrupted { rows_done: done }) => {
                rows_done = rows_done.max(done);
                last_error = "stream interrupted mid-flight".to_string();
                if outcome.attempts >= policy.max_attempts {
                    break;
                }
                std::thread::sleep(delay + jitter(delay, outcome.attempts));
                delay = (delay * 2).min(policy.max_delay);
            }
            Ok(Attempt::Fatal { status, body }) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "server rejected the campaign (HTTP {status}): {}",
                        body.trim()
                    ),
                ));
            }
            Err(e) => {
                // Connect-level failure (refused, unreachable, reset
                // before the status line) — same retry path as a
                // mid-stream interruption.
                last_error = e.to_string();
                if outcome.attempts >= policy.max_attempts {
                    break;
                }
                std::thread::sleep(delay + jitter(delay, outcome.attempts));
                delay = (delay * 2).min(policy.max_delay);
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        format!(
            "campaign fetch gave up after {} attempts ({} throttled): {last_error}",
            outcome.attempts, outcome.throttled
        ),
    ))
}

/// Deterministic jitter in `[0, base/2]`, derived from the attempt number
/// and process id — decorrelates a fleet of retrying clients without a
/// RNG dependency.
fn jitter(base: Duration, attempt: u32) -> Duration {
    let mut salt = [0u8; 8];
    salt[..4].copy_from_slice(&std::process::id().to_le_bytes());
    salt[4..].copy_from_slice(&attempt.to_le_bytes());
    let digest = sha256(&salt);
    let frac = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")) % 1024;
    base.mul_f64(frac as f64 / 2048.0)
}

/// Opens one stream and pumps it: complete rows beyond `rows_done` go to
/// `out` immediately, so even a stream that dies delivered everything it
/// could.
///
/// Output-write failures abort the whole fetch (`Err` from the inner
/// write is not retryable) — they surface as `Fatal` via the `?` below
/// reaching the caller as a hard error.
fn try_stream(
    addr: &str,
    target: &str,
    spec_json: &str,
    rows_done: usize,
    out: &mut dyn Write,
    policy: &RetryPolicy,
) -> io::Result<Attempt> {
    let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("bad address {addr}"))
    })?;
    let stream = TcpStream::connect_timeout(&socket_addr, policy.connect_timeout)?;
    stream.set_read_timeout(Some(policy.read_timeout))?;
    stream.set_write_timeout(Some(policy.read_timeout))?;
    write_request(
        &mut stream.try_clone()?,
        "POST",
        target,
        addr,
        spec_json.as_bytes(),
    )?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    match status {
        200 => {}
        429 | 503 => {
            let retry_after = headers
                .get("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs);
            return Ok(Attempt::Throttled { retry_after });
        }
        _ => {
            let mut body = Vec::new();
            let _ = reader.read_to_end(&mut body);
            return Ok(Attempt::Fatal {
                status,
                body: String::from_utf8_lossy(&body).to_string(),
            });
        }
    }
    if headers.get("transfer-encoding").map(String::as_str) != Some("chunked") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "campaign stream was not chunked",
        ));
    }
    let cache = headers.get("x-dream-cache").cloned();

    // Commit each complete row the moment its newline arrives — a
    // connection cut mid-chunk still leaves every finished row in the
    // output, which is exactly what the next attempt's skip resumes past.
    let mut rows = Dechunked::new(reader);
    let mut seen = 0usize; // complete rows observed in THIS stream
    let mut written = rows_done; // complete rows in the output overall
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match rows.read_until(b'\n', &mut line) {
            Ok(0) => return Ok(Attempt::Complete { rows: seen, cache }),
            Ok(_) if line.ends_with(b"\n") => {
                seen += 1;
                if seen > rows_done {
                    out.write_all(&line)?;
                    written = written.max(seen);
                }
            }
            // A partial row at the terminator (a whole-row streamer never
            // leaves one), a framing fault, or a dead transport.
            _ => return Ok(Attempt::Interrupted { rows_done: written }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_bounded_and_deterministic_per_attempt() {
        let base = Duration::from_millis(200);
        for attempt in 0..32 {
            let j = jitter(base, attempt);
            assert!(j <= base / 2, "attempt {attempt}: {j:?}");
            assert_eq!(j, jitter(base, attempt), "same inputs, same jitter");
        }
    }

    #[test]
    fn default_policy_is_patient_but_finite() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 3);
        assert!(p.base_delay < p.max_delay);
    }
}
