//! Self-tests of the benchmark's own machinery.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dream_sim::scenario::{registry, CampaignRunner, Scenario};
use perfbench::client::{post_campaign, time_to_head};
use perfbench::digest::{digest, oracle_rows, References};
use perfbench::probe::{probe, PhaseTimes};
use perfbench::stats::{tail, TAIL_BEYOND};
use perfbench::workload::{replay_specs, Workload};

#[test]
fn tail_keeps_at_least_ten_samples_beyond_the_reported_percentile() {
    for n in [1, 10, 11, 12, 50, 100, 999, 1000, 1001, 4000, 24000] {
        // Distinct values in scrambled order.
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        match tail(&xs) {
            None => assert!(n <= TAIL_BEYOND, "n = {n} should report a tail"),
            Some((value, pct, beyond)) => {
                let above = xs.iter().filter(|&&x| x > value).count();
                assert_eq!(above, beyond, "n = {n}");
                assert!(above >= TAIL_BEYOND, "n = {n}: only {above} beyond");
                if n >= 1000 {
                    // Nearest-rank p99 already leaves enough beyond it.
                    let step = 100.0 / n as f64;
                    assert!((99.0..99.0 + step).contains(&pct), "n = {n}: p{pct}");
                } else {
                    // Otherwise the highest percentile that still does.
                    assert_eq!(above, TAIL_BEYOND, "n = {n}: p{pct}");
                }
            }
        }
    }
}

/// A one-shot server that answers any request with a chunked stream
/// whose only row arrives in two chunks, `delay` apart, after a head
/// sent immediately.
fn slow_row_server(delay: Duration) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Consume the whole request so closing sends no reset.
        let mut request = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            let n = stream.read(&mut buf).expect("read request");
            request.extend_from_slice(&buf[..n]);
            let text = String::from_utf8_lossy(&request);
            if let Some(end) = text.find("\r\n\r\n") {
                let length: usize = text[..end]
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map_or(0, |v| v.trim().parse().expect("length"));
                if request.len() >= end + 4 + length {
                    break;
                }
            }
            assert!(n > 0, "client closed mid-request");
        }
        let chunk = |data: &str| format!("{:x}\r\n{data}\r\n", data.len());
        stream
            .write_all(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            )
            .expect("head");
        thread::sleep(delay);
        stream
            .write_all(chunk("{\"row\": ").as_bytes())
            .expect("half row");
        stream.flush().expect("flush");
        thread::sleep(delay);
        stream
            .write_all(chunk("1}\n").as_bytes())
            .expect("rest of row");
        stream.write_all(b"0\r\n\r\n").expect("terminator");
    });
    (addr, handle)
}

#[test]
fn ttfr_stamps_the_first_complete_row_not_the_head() {
    let delay = Duration::from_millis(200);
    let (addr, server) = slow_row_server(delay);
    let head = time_to_head(&addr, "{}").expect("head");
    server.join().expect("server thread");
    assert!(head < delay, "head took {head:?}");

    let (addr, server) = slow_row_server(delay);
    let fetched = post_campaign(&addr, "{}").expect("stream");
    server.join().expect("server thread");
    assert_eq!(fetched.rows, b"{\"row\": 1}\n");
    let first = fetched.first_row.expect("a row arrived");
    assert!(
        first >= 2 * delay,
        "first row stamped at {first:?}, before the row was complete"
    );
}

fn smoke(name: &str) -> Scenario {
    registry::get(name, true).expect("preset")
}

#[test]
fn a_one_byte_tampered_reference_trips_the_digest_gate() {
    let sc = smoke("fig2");
    let rows = oracle_rows(&sc);
    let mut refs = References::default();
    assert_eq!(refs.ensure(std::slice::from_ref(&sc), 1), 1);
    assert!(refs.matches(&sc, &rows));

    // One byte of the stored reference changed.
    let text = refs.render();
    let at = text.find(' ').expect("id/digest separator") + 1;
    let mut bytes = text.into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    let tampered = References::parse(std::str::from_utf8(&bytes).expect("ascii")).expect("parses");
    assert!(!tampered.matches(&sc, &rows));

    // One byte of the delivered rows changed.
    let mut bad = rows.clone();
    bad[0] ^= 1;
    assert_ne!(digest(&bad), digest(&rows));
    assert!(!refs.matches(&sc, &bad));

    // A spec without a reference never passes.
    let mut other = sc.clone();
    other.seed += 1;
    assert!(!refs.matches(&other, &rows));
}

#[test]
fn stored_references_parse() {
    let _ = References::stored();
}

#[test]
fn cold_seeds_are_distinct_and_never_the_warmup_seed() {
    for seed in [0, 1, 2, 7, 0xDEAD_BEEF, u64::MAX] {
        for w in Workload::ALL.into_iter().filter(|w| w.is_cold()) {
            let warmup: HashSet<u64> = w.warmup_specs(seed).iter().map(|s| s.seed).collect();
            assert_eq!(warmup.len(), w.presets().len());
            let mut cold = HashSet::new();
            for r in 0..w.rounds(60) {
                for sc in w.round_specs(seed, r) {
                    assert!(
                        cold.insert(sc.seed),
                        "{}: seed {} repeats",
                        w.name(),
                        sc.seed
                    );
                    assert!(
                        !warmup.contains(&sc.seed),
                        "{}: cold seed is a warm-up seed",
                        w.name()
                    );
                }
            }
        }
        let replay: HashSet<u64> = replay_specs(seed).iter().map(|s| s.seed).collect();
        assert_eq!(replay.len(), registry::names().len());
    }
}

#[test]
fn the_phase_probe_matches_the_engine_and_fails_on_a_perturbed_seed() {
    for name in ["fig4", "noise-sweep", "bank-voltage", "fig2"] {
        let sc = smoke(name);
        let outcome = CampaignRunner::new(sc.clone())
            .threads(2)
            .run_discarding()
            .expect("engine runs");
        let mut times = PhaseTimes::default();
        probe(&sc, &outcome, &mut times).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(times.cells > 0, "{name}: nothing compared");

        let mut perturbed = sc.clone();
        perturbed.seed ^= 1;
        assert!(
            probe(&perturbed, &outcome, &mut PhaseTimes::default()).is_err(),
            "{name}: a perturbed seed still matched the engine"
        );
    }
}
