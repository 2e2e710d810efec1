//! Bit-sliced trial batching is an *optimization*, never a semantic: this
//! suite runs smoke-scale campaigns with batching pinned off and on —
//! across the paper presets, every fault model, every EMT, with and
//! without the address scrambler, at 1 and 4 worker threads — and asserts
//! the streamed sink rows are **byte-identical**.
//!
//! The per-kernel half of the story (each SWAR `decode_batch` pinned
//! against the transpose-and-decode oracle) lives next to the codecs in
//! `dream-core`; this file pins the whole engine path: batch grouping,
//! divergence-driven eviction, scalar replay, stats deltas, and row
//! rendering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use dream_sim::exec::{self, ExecConfig};
use dream_sim::report::JsonlSink;
use dream_sim::scenario::{registry, CampaignRunner, FaultModelSpec, Grid, Scenario};

/// Runs `sc` at a pinned (batch, threads) setting and returns the exact
/// bytes its JSONL sink streamed.
fn jsonl(sc: &Scenario, batch: bool, threads: usize) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .batch(batch)
        .threads(threads)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    String::from_utf8(sink.into_inner()).expect("sinks emit UTF-8")
}

/// The invariant: scalar serial output is the reference, and batching
/// (at 1 and 4 threads) plus scalar-parallel all reproduce it exactly.
fn assert_batch_invariant(sc: &Scenario) {
    let reference = jsonl(sc, false, 1);
    assert!(!reference.is_empty(), "{}: no rows streamed", sc.name);
    assert_eq!(
        reference,
        jsonl(sc, false, 4),
        "{}: scalar output must be thread-count invariant",
        sc.name
    );
    for threads in [1, 4] {
        assert_eq!(
            reference,
            jsonl(sc, true, threads),
            "{}: batched output diverged at {threads} thread(s)",
            sc.name
        );
    }
}

/// A reduced fig4 shape for the axes the presets don't sweep (fault
/// models, scrambler): enough trials to fill multi-lane batches and a
/// voltage deep enough in the faulty region to force evictions.
fn tiny_fig4() -> Scenario {
    let mut sc = registry::get("fig4", true).expect("preset exists");
    sc.window = 512;
    sc.records = 2;
    sc.trials = 6;
    sc.grid = Grid::Voltage(vec![0.55, 0.8]);
    sc
}

#[test]
fn fig2_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("fig2", true).expect("preset exists"));
}

#[test]
fn fig4_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("fig4", true).expect("preset exists"));
}

#[test]
fn ablation_smoke_is_batch_invariant() {
    assert_batch_invariant(&registry::get("ablation", true).expect("preset exists"));
}

#[test]
fn every_fault_model_is_batch_invariant_across_all_emts() {
    let models = [
        FaultModelSpec::Iid,
        FaultModelSpec::Burst { mean_run_len: 8.0 },
        FaultModelSpec::ColumnCorrelated { column_weight: 0.5 },
        FaultModelSpec::PerBankVoltage {
            bank_offsets: FaultModelSpec::bank_ramp(0.05),
        },
    ];
    for model in models {
        let mut sc = tiny_fig4();
        sc.fault.model = model.clone();
        // Sweep every EMT so each codec's batch kernel is exercised end
        // to end under each fault model.
        sc.emts = dream_core::EmtKind::all().to_vec();
        assert_batch_invariant(&sc);
    }
}

#[test]
fn scrambled_campaigns_are_batch_invariant() {
    let mut sc = tiny_fig4();
    sc.scrambler_key = Some(0xA5A5);
    assert_batch_invariant(&sc);
}

/// Runs `sc` batched at a pinned bail-out fraction and returns the exact
/// bytes its JSONL sink streamed.
fn jsonl_bailout(sc: &Scenario, threads: usize, fraction: f64) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    CampaignRunner::new(sc.clone())
        .batch(true)
        .bailout(fraction)
        .threads(threads)
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    String::from_utf8(sink.into_inner()).expect("sinks emit UTF-8")
}

#[test]
fn bailout_threshold_never_changes_rows() {
    // The adaptive bail-out only moves lanes between the "survived the
    // plane pass" and "replayed scalar" buckets — both of which reproduce
    // the scalar trial exactly — so every threshold must stream the same
    // bytes: 0.0 never bails, 0.25 is the shipped default, 1.0 abandons a
    // whole group on its first eviction.
    let tradeoff = registry::get("tradeoff", true).expect("preset exists");
    for sc in [tiny_fig4(), tradeoff] {
        let reference = jsonl(&sc, false, 1);
        assert!(!reference.is_empty(), "{}: no rows streamed", sc.name);
        for fraction in [0.0, 0.25, 1.0] {
            for threads in [1, 4] {
                assert_eq!(
                    reference,
                    jsonl_bailout(&sc, threads, fraction),
                    "{}: bail-out {fraction} diverged at {threads} thread(s)",
                    sc.name
                );
            }
        }
    }
}

/// Two campaigns driven at once from two OS threads keep their own
/// execution settings: each progress callback (which runs on its driving
/// thread) sees exactly its runner's `ExecConfig`, and the two schedules
/// stream the same bytes.
#[test]
fn concurrent_runners_keep_their_own_exec_settings() {
    let sc = registry::get("fig4", true).expect("preset exists");
    let scalar = ExecConfig {
        threads: 1,
        batch: false,
        bailout: exec::DEFAULT_BAILOUT,
    };
    let batched = ExecConfig {
        threads: 2,
        batch: true,
        bailout: 1.0,
    };
    let start = Barrier::new(2);
    let run = |want: ExecConfig| {
        let checks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&checks);
        let mut sink = JsonlSink::new(Vec::new());
        let runner = CampaignRunner::new(sc.clone())
            .threads(want.threads)
            .batch(want.batch)
            .bailout(want.bailout)
            .on_progress(move |_| {
                assert_eq!(
                    exec::config(),
                    want,
                    "progress saw another campaign's settings"
                );
                seen.fetch_add(1, Ordering::SeqCst);
            });
        start.wait();
        runner
            .run(&mut sink)
            .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        assert_eq!(checks.load(Ordering::SeqCst), sc.grid.len());
        String::from_utf8(sink.into_inner()).expect("sinks emit UTF-8")
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(scalar));
        let b = s.spawn(|| run(batched));
        (
            a.join().expect("scalar runner"),
            b.join().expect("batched runner"),
        )
    });
    assert!(!a.is_empty());
    assert_eq!(a, b, "concurrent schedules must stream identical rows");
    // Outside any campaign the environment decides again.
    assert_eq!(exec::config(), ExecConfig::from_env());
}
