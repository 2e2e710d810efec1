//! Deterministic parallel execution of campaign trials.
//!
//! Every figure of the paper is a Monte-Carlo campaign: hundreds of
//! independent `(point, run)` trials whose outputs are averaged into curve
//! points. The trials are embarrassingly parallel — each one derives its
//! fault map from [`crate::campaign::fault_seed`] and touches nothing but
//! its own scratch memory — so this module schedules a flattened trial
//! list across `std::thread::scope` workers and merges the results **in
//! trial order**, making the output bit-identical regardless of how many
//! workers ran it.
//!
//! # Determinism contract
//!
//! [`run_trials`] guarantees `result[i]` came from `trials[i]` for every
//! `i`, whatever the thread count. Callers keep that guarantee end to end
//! by (a) deriving all randomness from the trial descriptor (never from a
//! worker-local RNG), and (b) fully re-arming any reused scratch state at
//! the start of each trial (see `ProtectedMemory::reset_with_fault_map`).
//! Aggregations stay bit-identical because floating-point reduction
//! happens *after* the merge, in trial order.
//!
//! # Execution settings
//!
//! Three knobs — worker count, bit-sliced batching, and the batched
//! executor's bail-out fraction — travel together as one [`ExecConfig`].
//! It is resolved once: [`ExecConfig::from_env`] reads `DREAM_THREADS`
//! and `DREAM_BATCH`, a CLI flag may pin a field, and
//! `CampaignRunner::{threads, batch, bailout}` pin the rest. The runner
//! binds the value to its driving thread for the duration of one
//! campaign, so concurrent campaigns on different threads never see each
//! other's settings; [`config`] reads the binding (or the environment when
//! none is set). A thread count of 1 reproduces the historical serial
//! path exactly, worker scratch included.
//!
//! # Cancellation
//!
//! [`run_trials_cancellable`] accepts a [`CancelToken`]; workers stop
//! claiming trials once it fires and the call returns [`Cancelled`]
//! instead of a partial (and therefore non-deterministic-looking) result
//! vector. Because campaigns are deterministic, a cancelled campaign is
//! resumed by re-running it and skipping the rows already emitted.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Environment variable selecting the worker count (`1` = serial).
pub const THREADS_ENV: &str = "DREAM_THREADS";

/// Environment variable toggling bit-sliced trial batching (`1`/`true`/`on`
/// to enable, `0`/`false`/`off` to disable).
pub const BATCH_ENV: &str = "DREAM_BATCH";

/// Default bail-out fraction: below a quarter of the group, the plane
/// passes cost more than scalar replays of the survivors.
pub const DEFAULT_BAILOUT: f64 = 0.25;

/// How one campaign executes. None of the fields can change an output
/// byte: they pick the schedule, never the values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// Worker threads [`run_trials`] fans out to (at least 1).
    pub threads: usize,
    /// Whether the engine runs its bit-sliced batched paths, which are
    /// bit-identical to the scalar paths by the divergence rule
    /// (`dream_core::TrialBatch`).
    pub batch: bool,
    /// Adaptive bail-out fraction of the batched executor (`0.0..=1.0`):
    /// a batch abandons its plane passes once the alive-lane population
    /// drops strictly below this fraction of the group, finishing the
    /// stragglers on the scalar replay path. `0` never bails; `1` bails
    /// on the first eviction.
    pub bailout: f64,
}

impl ExecConfig {
    /// The settings the environment asks for: [`THREADS_ENV`] (default:
    /// available parallelism), [`BATCH_ENV`] (default **on**), and
    /// [`DEFAULT_BAILOUT`]. This is the only place the crate reads the
    /// environment.
    ///
    /// # Panics
    ///
    /// Panics if [`THREADS_ENV`] is not a positive integer or [`BATCH_ENV`]
    /// is not one of `1`/`true`/`on`/`0`/`false`/`off` — a typo silently
    /// running another schedule would make benchmark A/Bs lie.
    pub fn from_env() -> ExecConfig {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) => {
                let n: usize = raw.trim().parse().unwrap_or_else(|_| {
                    panic!("{THREADS_ENV} must be a positive integer, got {raw:?}")
                });
                assert!(n > 0, "{THREADS_ENV} must be at least 1");
                n
            }
            Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let batch = match std::env::var(BATCH_ENV) {
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "1" | "true" | "on" => true,
                "0" | "false" | "off" => false,
                _ => panic!("{BATCH_ENV} must be one of 1/true/on/0/false/off, got {raw:?}"),
            },
            Err(_) => true,
        };
        ExecConfig {
            threads,
            batch,
            bailout: DEFAULT_BAILOUT,
        }
    }
}

thread_local! {
    /// The settings of the campaign this thread is driving, if any.
    static BOUND: Cell<Option<ExecConfig>> = const { Cell::new(None) };
}

/// Runs `f` with `config` bound to this thread (the campaign it drives);
/// the previous binding is restored on exit, panic included.
pub(crate) fn with_config<R>(config: ExecConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BOUND.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(BOUND.with(|c| c.replace(Some(config))));
    f()
}

/// The settings of the campaign this thread is driving, or
/// [`ExecConfig::from_env`] outside any campaign.
pub fn config() -> ExecConfig {
    BOUND.with(Cell::get).unwrap_or_else(ExecConfig::from_env)
}

/// The bail-out fraction campaigns on this thread use
/// ([`config`]`().bailout`).
pub fn batch_bailout() -> f64 {
    config().bailout
}

/// A shared flag requesting cooperative cancellation of a campaign.
///
/// Clones observe the same flag; once [`cancel`](CancelToken::cancel) is
/// called every [`run_trials_cancellable`] holding a clone stops claiming
/// trials and returns [`Cancelled`]. The flag is sticky — there is no
/// un-cancel.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Idempotent and callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The campaign stopped because its [`CancelToken`] fired; any partial
/// results were discarded to preserve the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("campaign cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Runs every trial descriptor through `run`, in parallel, returning the
/// results **in trial order**.
///
/// `scratch` builds one worker-local arena (reused app instances,
/// protected memories, fault-map buffers) per worker thread; `run`
/// executes one trial against that arena. Workers claim trials from a
/// shared atomic cursor, so the schedule load-balances irregular trial
/// costs, while the order-restoring merge keeps the output independent of
/// the schedule.
///
/// The worker count is [`config`]`().threads` on the calling thread. With
/// a count of 1 (or at most one trial) everything
/// runs inline on the caller's thread with a single arena — the exact
/// historical serial path.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn run_trials<T, C, R>(
    trials: &[T],
    scratch: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &T, usize) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    run_trials_cancellable(trials, scratch, run, None)
        .expect("run without a cancel token cannot be cancelled")
}

/// [`run_trials`] with cooperative cancellation: workers poll `cancel`
/// before claiming each trial and stop as soon as it fires, returning
/// [`Cancelled`]. With `cancel: None` the behaviour (and determinism
/// contract) is exactly [`run_trials`].
///
/// # Errors
///
/// Returns [`Cancelled`] if the token fired before all trials completed.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn run_trials_cancellable<T, C, R>(
    trials: &[T],
    scratch: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &T, usize) -> R + Sync,
    cancel: Option<&CancelToken>,
) -> Result<Vec<R>, Cancelled>
where
    T: Sync,
    R: Send,
{
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let workers = config().threads.min(trials.len().max(1));
    if workers <= 1 {
        let mut arena = scratch();
        let mut out = Vec::with_capacity(trials.len());
        for (i, t) in trials.iter().enumerate() {
            if cancelled() {
                return Err(Cancelled);
            }
            out.push(run(&mut arena, t, i));
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut arena = scratch();
                    let mut out = Vec::new();
                    loop {
                        if cancelled() {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= trials.len() {
                            break;
                        }
                        out.push((i, run(&mut arena, &trials[i], i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    if cancelled() {
        return Err(Cancelled);
    }
    // Order-restoring merge: slot every result back at its trial index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(trials.len());
    slots.resize_with(trials.len(), || None);
    for (i, r) in partials.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "trial {i} ran twice");
        slots[i] = Some(r);
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every trial ran exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        with_config(
            ExecConfig {
                threads,
                ..ExecConfig::from_env()
            },
            f,
        )
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let trials: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 5] {
            let got = with_threads(threads, || {
                run_trials(
                    &trials,
                    || 0u64,
                    |_, &t, i| {
                        assert_eq!(t, i);
                        (t * 31) as u64
                    },
                )
            });
            let want: Vec<u64> = trials.iter().map(|&t| (t * 31) as u64).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn scratch_is_worker_local_and_reused() {
        // Each worker's arena counts the trials it served; the total must
        // cover every trial exactly once.
        let trials: Vec<u32> = (0..100).collect();
        let served = with_threads(3, || {
            run_trials(
                &trials,
                || 0usize,
                |count, _, _| {
                    *count += 1;
                    *count
                },
            )
        });
        // Per-trial scratch counters are ≥ 1 and never exceed the trial count.
        assert!(served.iter().all(|&c| (1..=100).contains(&c)));
    }

    #[test]
    fn empty_trial_list_is_fine() {
        let out: Vec<u8> = run_trials(&[] as &[u8], || (), |_, &t, _| t);
        assert!(out.is_empty());
    }

    #[test]
    fn bindings_nest_and_restore() {
        let outer = ExecConfig {
            threads: 2,
            batch: false,
            bailout: 0.5,
        };
        let inner = ExecConfig {
            threads: 5,
            batch: true,
            bailout: 1.0,
        };
        with_config(outer, || {
            assert_eq!(config(), outer);
            with_config(inner, || {
                assert_eq!(config(), inner);
                assert_eq!(batch_bailout(), 1.0);
            });
            assert_eq!(config(), outer, "binding must be restored on exit");
        });
        // Unbound, the environment decides; the test harness sets no
        // bail-out, so the default applies.
        assert_eq!(config().bailout, DEFAULT_BAILOUT);
        assert!(config().threads >= 1);
    }

    #[test]
    fn a_fired_token_cancels_before_any_trial_runs() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        for threads in [1, 3] {
            let err = with_threads(threads, || {
                run_trials_cancellable(
                    &[1u8, 2, 3],
                    || (),
                    |_, &t, _| -> u8 { panic!("trial {t} ran after cancellation") },
                    Some(&token),
                )
            });
            assert_eq!(err, Err(Cancelled), "{threads} threads");
        }
    }

    #[test]
    fn cancelling_midway_stops_the_remaining_trials() {
        use std::sync::atomic::AtomicUsize;
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let trials: Vec<usize> = (0..1000).collect();
        let err = with_threads(1, || {
            run_trials_cancellable(
                &trials,
                || (),
                |_, &t, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if t == 4 {
                        token.cancel();
                    }
                },
                Some(&token),
            )
        });
        assert_eq!(err, Err(Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 5, "serial path stops at once");
    }

    #[test]
    fn no_token_matches_run_trials_exactly() {
        let trials: Vec<usize> = (0..50).collect();
        let plain = with_threads(2, || run_trials(&trials, || (), |_, &t, _| t * 7));
        let cancellable = with_threads(2, || {
            run_trials_cancellable(&trials, || (), |_, &t, _| t * 7, None)
        });
        assert_eq!(cancellable.as_deref(), Ok(plain.as_slice()));
    }
}
