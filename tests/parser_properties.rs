//! Property tests for every hand-rolled parser on the campaign boundary:
//! the spec JSON reader, the scenario reader on top of it, the sink
//! grammar and the HTTP request reader. None of them may panic on any
//! input — the campaign service feeds them whatever a client sends — and
//! whatever they accept must survive a round trip.

use std::io::Cursor;

use dream_suite::serve::http::{ReadLimits, Request};
use dream_suite::sim::scenario::json::Json;
use dream_suite::sim::scenario::{registry, Scenario, SinkSpec};
use proptest::prelude::*;

/// Text built from `pieces`: arbitrary bytes almost never reach past a
/// parser's first byte, so each grammar also gets inputs spelled in its
/// own tokens.
fn spelled(pieces: &'static [&'static str], len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(pieces.to_vec()), 0..len).prop_map(|p| p.concat())
}

const JSON_PIECES: &[&str] = &[
    "{", "}", "[", "]", ":", ",", " ", "\"", "\"k\"", "\"name\"", "\\", "\\u00e9", "\\ud800",
    "\\n", "u", "0", "1", "-", ".", "e", "+", "9e99", "1e400", "null", "true", "false", "tru",
    "\u{7f}", "\u{1}", "é",
];

const SINK_PIECES: &[&str] = &[
    "table", "csv", "jsonl", ":", ",append", ",", "x", "/", "", " ",
];

const HTTP_PIECES: &[&str] = &[
    "GET ",
    "POST ",
    "/campaigns",
    "?sink=jsonl",
    " HTTP/1.1",
    "\r\n",
    "\n",
    "Host: x",
    "Content-Length: ",
    "4",
    "99999999999999999999",
    ":",
    "body",
    " ",
    "\u{ff}",
];

/// The lossy UTF-8 view of arbitrary bytes, as the service decodes them.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_and_accepted_values_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        spelled in spelled(JSON_PIECES, 24),
    ) {
        for text in [lossy(&bytes), spelled] {
            if let Ok(value) = Json::parse(&text) {
                prop_assert_eq!(Json::parse(&value.pretty()), Ok(value));
            }
        }
    }

    #[test]
    fn scenario_from_json_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        spelled in spelled(JSON_PIECES, 24),
    ) {
        for text in [lossy(&bytes), spelled] {
            if let Ok(sc) = Scenario::from_json(&text) {
                prop_assert_eq!(Scenario::from_json(&sc.to_json()), Ok(sc));
            }
        }
    }

    #[test]
    fn sink_tokens_never_panic_and_accepted_ones_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..32),
        spelled in spelled(SINK_PIECES, 6),
    ) {
        for token in [lossy(&bytes), spelled] {
            if let Ok(sink) = SinkSpec::parse(&token) {
                prop_assert_eq!(SinkSpec::parse(&sink.token()), Ok(sink));
            }
        }
    }

    #[test]
    fn http_request_reads_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        spelled in spelled(HTTP_PIECES, 16),
    ) {
        let limits = ReadLimits { max_head: 256, max_body: 64, deadline: None };
        let _ = Request::read(&mut Cursor::new(bytes), &limits);
        let _ = Request::read(&mut Cursor::new(spelled.into_bytes()), &limits);
    }
}

/// Every preset document, full and smoke, with each top-level field in
/// turn replaced by each value of a hostile pool: the reader never
/// panics, and a document it accepts describes exactly what it says — the
/// parsed scenario round-trips, and its canonical document carries the
/// replacement (an object laid over `fault` or `sink` carries each of its
/// keys). A reader that swaps a mistyped override for the preset's value
/// fails the last check.
#[test]
fn hostile_field_values_are_rejected_or_taken_exactly() {
    let pool = [
        "null", "true", "-1", "0", "0.5", "1e300", "\"x\"", "[]", "{}",
    ]
    .map(|v| Json::parse(v).expect("pool value parses"));
    let mut accepted = 0;
    for name in registry::names() {
        for smoke in [false, true] {
            let preset = registry::get(name, smoke).expect("preset exists");
            let Ok(Json::Obj(fields)) = Json::parse(&preset.to_json()) else {
                panic!("{name}: the canonical document is an object");
            };
            for (i, (key, _)) in fields.iter().enumerate() {
                for value in &pool {
                    let mut doc = fields.clone();
                    doc[i].1 = value.clone();
                    let Ok(sc) = Scenario::from_json(&Json::Obj(doc).pretty()) else {
                        continue;
                    };
                    accepted += 1;
                    let text = sc.to_json();
                    assert_eq!(Scenario::from_json(&text).as_ref(), Ok(&sc), "{name}.{key}");
                    let written = Json::parse(&text).expect("canonical JSON parses");
                    let written = written.get(key).expect("canonical field present");
                    match (key.as_str(), value) {
                        ("fault" | "sink", Json::Obj(over)) => {
                            for (k, v) in over {
                                assert_eq!(written.get(k), Some(v), "{name}.{key}.{k}");
                            }
                        }
                        _ => assert_eq!(written, value, "{name}.{key} = {value:?}"),
                    }
                }
            }
        }
    }
    assert!(accepted > 0, "no mutation was accepted at all");
}
