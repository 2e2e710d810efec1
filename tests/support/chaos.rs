//! A fault-injecting TCP proxy for exercising the campaign service's
//! failure paths from real sockets.
//!
//! [`ChaosProxy`] listens on an ephemeral port and forwards each accepted
//! connection to a fixed upstream, applying the next [`Fault`] popped
//! from its queue (connections beyond the queue pass through untouched).
//! Faults model the transport failures the retry layer in
//! `dream_serve::client` must survive:
//!
//! * [`Fault::Refuse`] — accept, then close immediately (connection
//!   reset before any bytes).
//! * [`Fault::CloseAfter`] — forward N upstream-response bytes, then
//!   sever both directions (truncates a chunked stream mid-chunk).
//! * [`Fault::StallAfter`] — forward N response bytes, then go silent
//!   for a duration before severing (exercises read timeouts /
//!   slow-loris handling from the server's perspective in reverse).
//!
//! The proxy is deliberately dumb: it counts raw bytes, not HTTP frames,
//! so a fault can land anywhere — inside a chunk header, mid-row, or
//! between the status line and the body. That arbitrariness is the point.
//!
//! Test support shared by the chaos and sharding suites; each includes it
//! with `#[path = "support/chaos.rs"] mod chaos;` and uses what it needs.

#![allow(dead_code)]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// One scripted misbehavior, applied to a single proxied connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully (the default when the queue is empty).
    None,
    /// Close the client connection immediately, before contacting the
    /// upstream.
    Refuse,
    /// Forward the request, then cut the connection after this many
    /// upstream-response bytes have been relayed.
    CloseAfter(usize),
    /// Forward this many response bytes, stall for the duration, then
    /// cut the connection.
    StallAfter(usize, Duration),
}

/// Handle to a running proxy; dropping it shuts the listener down.
pub struct ChaosProxy {
    addr: SocketAddr,
    faults: Arc<Mutex<VecDeque<Fault>>>,
    stop: Arc<AtomicBool>,
}

impl ChaosProxy {
    /// Starts a proxy on `127.0.0.1:0` forwarding to `upstream`.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn start(upstream: SocketAddr) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let faults: Arc<Mutex<VecDeque<Fault>>> = Arc::new(Mutex::new(VecDeque::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_faults = Arc::clone(&faults);
        let accept_stop = Arc::clone(&stop);
        thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { break };
                let fault = accept_faults
                    .lock()
                    .expect("fault queue poisoned")
                    .pop_front()
                    .unwrap_or(Fault::None);
                thread::spawn(move || {
                    let _ = proxy_connection(client, upstream, fault);
                });
            }
        });
        Ok(ChaosProxy { addr, faults, stop })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queues a fault for the next not-yet-scripted connection.
    pub fn push(&self, fault: Fault) {
        self.faults
            .lock()
            .expect("fault queue poisoned")
            .push_back(fault);
    }

    /// Faults queued but not yet consumed by a connection.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.faults.lock().expect("fault queue poisoned").len()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the thread can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Relays one connection under `fault`.
fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: Fault) -> io::Result<()> {
    if fault == Fault::Refuse {
        let _ = client.shutdown(Shutdown::Both);
        return Ok(());
    }
    let server = TcpStream::connect(upstream)?;

    // Request direction: client -> upstream, forwarded faithfully.
    let mut client_read = client.try_clone()?;
    let mut server_write = server.try_clone()?;
    let up = thread::spawn(move || {
        let _ = pump(&mut client_read, &mut server_write, usize::MAX, None);
        let _ = server_write.shutdown(Shutdown::Write);
    });

    // Response direction: upstream -> client, where faults land.
    let (budget, stall) = match fault {
        Fault::None | Fault::Refuse => (usize::MAX, None),
        Fault::CloseAfter(n) => (n, None),
        Fault::StallAfter(n, pause) => (n, Some(pause)),
    };
    let mut server_read = server.try_clone()?;
    let mut client_write = client.try_clone()?;
    let _ = pump(&mut server_read, &mut client_write, budget, stall);

    // Budget exhausted (or upstream EOF): sever both directions so the
    // client sees a hard cut, not a half-open socket.
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = up.join();
    Ok(())
}

/// Copies up to `budget` bytes from `src` to `dst`; on budget exhaustion
/// optionally sleeps `stall` before returning.
fn pump(
    src: &mut TcpStream,
    dst: &mut TcpStream,
    budget: usize,
    stall: Option<Duration>,
) -> io::Result<usize> {
    let mut remaining = budget;
    let mut total = 0usize;
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        let want = buf.len().min(remaining);
        let n = match src.read(&mut buf[..want]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if dst.write_all(&buf[..n]).is_err() {
            break;
        }
        let _ = dst.flush();
        total += n;
        remaining -= n;
    }
    if remaining == 0 {
        if let Some(pause) = stall {
            thread::sleep(pause);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// One-shot echo upstream: accepts a single connection, reads one
    /// line, writes `payload` back, closes.
    fn echo_upstream(payload: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let addr = listener.local_addr().expect("addr");
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                let mut w = stream;
                let _ = w.write_all(payload);
            }
        });
        addr
    }

    fn round_trip(proxy: &ChaosProxy) -> Vec<u8> {
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect proxy");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(b"hello\n").expect("send");
        let mut got = Vec::new();
        let _ = stream.read_to_end(&mut got);
        got
    }

    #[test]
    fn passthrough_and_truncation_and_refusal() {
        let upstream = echo_upstream(b"0123456789");
        let proxy = ChaosProxy::start(upstream).expect("start proxy");

        // Unscripted connection: full payload.
        assert_eq!(round_trip(&proxy), b"0123456789");

        // Truncated connection: exactly 4 response bytes survive.
        proxy.push(Fault::CloseAfter(4));
        assert_eq!(round_trip(&proxy), b"0123");

        // Refused connection: nothing at all.
        proxy.push(Fault::Refuse);
        assert_eq!(round_trip(&proxy), b"");
        assert_eq!(proxy.pending(), 0);

        // Queue consumed in order; next connection is clean again.
        assert_eq!(round_trip(&proxy), b"0123456789");
    }

    #[test]
    fn stall_delays_the_cut() {
        let upstream = echo_upstream(b"abcdef");
        let proxy = ChaosProxy::start(upstream).expect("start proxy");
        proxy.push(Fault::StallAfter(3, Duration::from_millis(200)));
        let started = std::time::Instant::now();
        let got = round_trip(&proxy);
        assert_eq!(got, b"abc");
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "cut arrived before the stall elapsed"
        );
    }
}
