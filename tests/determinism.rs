//! The campaign executor's contract: output is bit-identical whatever the
//! worker count, and the flattened trial indexing never makes two trials
//! share a fault seed.

use std::collections::HashSet;
use std::sync::Mutex;

use dream_suite::dsp::AppKind;
use dream_suite::sim::campaign::fault_seed;
use dream_suite::sim::exec::{self, ExecConfig};
use dream_suite::sim::fig4::Fig4Point;
use dream_suite::sim::scenario::{
    registry, CampaignRunner, Grid, InjectionRow, OutcomeData, Scenario,
};
use proptest::prelude::*;

/// Serializes tests that read or write `DREAM_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `DREAM_THREADS` set to `value`, restoring the previous
/// value afterwards.
fn with_env_threads<R>(value: &str, f: impl FnOnce() -> R) -> R {
    let previous = std::env::var(exec::THREADS_ENV).ok();
    std::env::set_var(exec::THREADS_ENV, value);
    let r = f();
    match previous {
        Some(v) => std::env::set_var(exec::THREADS_ENV, v),
        None => std::env::remove_var(exec::THREADS_ENV),
    }
    r
}

fn outcome(sc: &Scenario, threads: usize) -> OutcomeData {
    CampaignRunner::new(sc.clone())
        .threads(threads)
        .run_discarding()
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name))
        .data
}

/// 1 and 4 worker threads must yield the same injection rows down to the
/// last mantissa bit: same rows, same order, exact f64 equality (not
/// approximate).
#[test]
fn fig2_rows_identical_serial_vs_parallel() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let sc = Scenario {
        window: 512,
        records: 2,
        trials: 2,
        apps: vec![AppKind::Dwt, AppKind::CompressedSensing],
        ..registry::get("fig2", false).expect("preset exists")
    };
    let rows = |threads| -> Vec<InjectionRow> {
        match outcome(&sc, threads) {
            OutcomeData::Injection(rows) => rows,
            other => panic!("injection rows expected, got {other:?}"),
        }
    };
    let serial = rows(1);
    let parallel = rows(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.stuck, p.stuck);
        assert_eq!(s.bit, p.bit);
        assert_eq!(
            s.snr_db.to_bits(),
            p.snr_db.to_bits(),
            "{} {:?} bit {}: {} vs {}",
            s.app,
            s.stuck,
            s.bit,
            s.snr_db,
            p.snr_db
        );
    }
}

/// Same contract for the Fig. 4 voltage sweep, including the min/rate
/// fields that fold over runs.
#[test]
fn fig4_points_identical_serial_vs_parallel() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let sc = Scenario {
        window: 512,
        trials: 5,
        grid: Grid::Voltage(vec![0.5, 0.7, 0.9]),
        apps: vec![AppKind::Dwt],
        ..registry::get("fig4", false).expect("preset exists")
    };
    let points = |threads| -> Vec<Fig4Point> {
        match outcome(&sc, threads) {
            OutcomeData::Fig4(points) => points,
            other => panic!("Fig. 4 points expected, got {other:?}"),
        }
    };
    let serial = points(1);
    let parallel = points(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.emt, p.emt);
        assert_eq!(s.voltage.to_bits(), p.voltage.to_bits());
        assert_eq!(s.mean_snr_db.to_bits(), p.mean_snr_db.to_bits(), "{s:?}");
        assert_eq!(s.min_snr_db.to_bits(), p.min_snr_db.to_bits(), "{s:?}");
        assert_eq!(
            s.uncorrectable_rate.to_bits(),
            p.uncorrectable_rate.to_bits()
        );
        assert_eq!(s.corrected_rate.to_bits(), p.corrected_rate.to_bits());
    }
}

/// `ExecConfig::from_env` resolves the worker count through the
/// `DREAM_THREADS` environment variable (CI runs this suite with
/// `DREAM_THREADS=2` to exercise exactly this path), and outside any
/// campaign `exec::config` is that resolution.
#[test]
fn thread_count_honors_environment() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    // Whatever the ambient variable says must be what campaigns get…
    if let Ok(raw) = std::env::var(exec::THREADS_ENV) {
        let expect: usize = raw.trim().parse().expect("DREAM_THREADS is an integer");
        assert_eq!(ExecConfig::from_env().threads, expect);
    }
    // …and an explicit value must round-trip through the resolution path.
    with_env_threads("3", || {
        assert_eq!(ExecConfig::from_env().threads, 3);
        assert_eq!(exec::config().threads, 3);
    });
}

/// The executor preserves trial order regardless of the schedule.
#[test]
fn executor_results_stay_in_trial_order() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let trials: Vec<u64> = (0..503).collect();
    let expect: Vec<u64> = trials.iter().map(|t| t.wrapping_mul(0x9E37)).collect();
    for threads in [1, 2, 4, 7] {
        let got = with_env_threads(&threads.to_string(), || {
            exec::run_trials(&trials, || (), |(), &t, _| t.wrapping_mul(0x9E37))
        });
        assert_eq!(got, expect, "{threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under the flattened trial indexing every (point, run) pair of a
    /// campaign grid still draws a distinct fault seed — no collisions
    /// within a campaign, whatever its base seed.
    #[test]
    fn fault_seed_stays_collision_free_when_flattened(
        base in any::<u64>(),
        points in 1usize..40,
        runs in 1usize..40,
    ) {
        let mut seen = HashSet::new();
        for flat in 0..points * runs {
            // The executor hands workers a flat index; runners derive the
            // (point, run) coordinates exactly like this.
            let seed = fault_seed(base, flat / runs, flat % runs);
            prop_assert!(seen.insert(seed), "collision at flat index {}", flat);
        }
    }

    /// Two campaigns with different base seeds share no seeds on the same
    /// grid (so figures never accidentally correlate their fault draws).
    #[test]
    fn distinct_base_seeds_do_not_collide(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let sa: HashSet<u64> = (0..16).flat_map(|p| (0..16).map(move |r| fault_seed(a, p, r))).collect();
        for p in 0..16 {
            for r in 0..16 {
                prop_assert!(!sa.contains(&fault_seed(b, p, r)));
            }
        }
    }
}
