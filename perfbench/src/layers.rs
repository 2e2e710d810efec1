//! The traced run's per-layer measurements, taken from outside the
//! program around calls into each layer's public functions.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dream_serve::{campaign_id, Integrity, Store};
use dream_sim::energy_table::{run_energy_table, EnergyConfig};
use dream_sim::report::{JsonlSink, Sink};
use dream_sim::scenario::{CampaignRunner, Scenario, ScenarioOutcome, ShardPlan};
use dream_sim::telemetry::{self, BatchTelemetry};

use crate::client;
use crate::digest::{digest, References};
use crate::probe::{self, PhaseTimes};
use crate::run::{Artifact, Metric};
use crate::stats::median;
use crate::topology::Topology;
use crate::workload::SHARDS;

/// Engine threads of the offline traced rounds.
const OFFLINE_THREADS: usize = 2;

/// Inputs of the traced measurements.
pub(crate) struct Context<'a> {
    /// The timed specs, one list per round.
    pub(crate) timed: &'a [Vec<Scenario>],
    pub(crate) artifacts: &'a [Artifact],
    pub(crate) topo: &'a Topology,
    pub(crate) refs: &'a References,
    /// Median untraced served round.
    pub(crate) served_round_s: f64,
    /// Successful replay `POST` latencies (s).
    pub(crate) replay_post_s: &'a [f64],
    /// `GET /stats` body at the end of the timed part.
    pub(crate) stats: &'a str,
}

/// What the traced measurements produced.
pub(crate) struct Traced {
    pub(crate) metrics: Vec<Metric>,
    /// Artifacts whose rows differ from the oracle's.
    pub(crate) mismatches: u64,
    pub(crate) probe_error: Option<String>,
}

/// Wraps the JSONL sink, timing every call into it.
struct TimingSink {
    inner: JsonlSink<Vec<u8>>,
    busy_s: f64,
}

impl Sink for TimingSink {
    fn begin(&mut self, headers: &[&str]) -> io::Result<()> {
        let clock = Instant::now();
        let r = self.inner.begin(headers);
        self.busy_s += clock.elapsed().as_secs_f64();
        r
    }

    fn emit(&mut self, rows: &[Vec<String>]) -> io::Result<()> {
        let clock = Instant::now();
        let r = self.inner.emit(rows);
        self.busy_s += clock.elapsed().as_secs_f64();
        r
    }

    fn finish(&mut self) -> io::Result<()> {
        let clock = Instant::now();
        let r = self.inner.finish();
        self.busy_s += clock.elapsed().as_secs_f64();
        r
    }
}

/// One offline campaign run through `CampaignRunner`.
struct OfflineRun {
    outcome: ScenarioOutcome,
    rows: Vec<u8>,
    wall_s: f64,
    cpu_s: f64,
    emit_s: f64,
    /// Host seconds per grid point (progress stamp deltas).
    point_s: Vec<f64>,
    telemetry: BatchTelemetry,
}

fn run_offline(sc: &Scenario, threads: usize) -> OfflineRun {
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&stamps);
    let mut sink = TimingSink {
        inner: JsonlSink::new(Vec::new()),
        busy_s: 0.0,
    };
    let _ = telemetry::take();
    let cpu = cpu_seconds();
    let start = Instant::now();
    let outcome = CampaignRunner::new(sc.clone())
        .threads(threads)
        .on_progress(move |_| recorder.lock().expect("stamp lock").push(Instant::now()))
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("offline run of {}: {e}", sc.name));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    let mut last = start;
    let point_s = stamps
        .lock()
        .expect("stamp lock")
        .iter()
        .map(|&t| {
            let d = t.duration_since(last).as_secs_f64();
            last = t;
            d
        })
        .collect();
    OfflineRun {
        outcome,
        emit_s: sink.busy_s,
        rows: sink.inner.into_inner(),
        wall_s,
        cpu_s,
        point_s,
        telemetry: telemetry::take(),
    }
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`, at the kernel's 100 Hz tick.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Median host seconds of one call of `f`, over `reps` calls each of
/// the `items`.
fn per_call<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|item| {
            let clock = Instant::now();
            for _ in 0..reps {
                f(item);
            }
            clock.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Runs every traced measurement of `ctx`.
pub(crate) fn measure(ctx: &Context) -> Traced {
    let mut mismatches = 0u64;
    let mut check = |sc: &Scenario, rows: &[u8]| {
        if !ctx.refs.matches(sc, rows) {
            eprintln!(
                "perfbench: {} rows differ from the oracle (digest {})",
                sc.name,
                digest(rows)
            );
            mismatches += 1;
        }
    };

    // The workload's rounds, offline through CampaignRunner.
    let mut round_s = Vec::new();
    let (mut wall, mut cpu, mut emit) = (0.0, 0.0, Vec::new());
    let mut points = Vec::new();
    let mut tel = BatchTelemetry::default();
    let mut first_outcomes: Vec<ScenarioOutcome> = Vec::new();
    for (r, specs) in ctx.timed.iter().enumerate() {
        let (mut round, mut round_emit) = (0.0, 0.0);
        for sc in specs {
            let run = run_offline(sc, OFFLINE_THREADS);
            check(sc, &run.rows);
            round += run.wall_s;
            round_emit += run.emit_s;
            wall += run.wall_s;
            cpu += run.cpu_s;
            points.extend(run.point_s);
            tel.lanes += run.telemetry.lanes;
            tel.evicted += run.telemetry.evicted;
            tel.bailed += run.telemetry.bailed;
            tel.clean_replays += run.telemetry.clean_replays;
            tel.traces_recorded += run.telemetry.traces_recorded;
            if r == 0 {
                first_outcomes.push(run.outcome);
            }
        }
        round_s.push(round);
        emit.push(round_emit);
    }
    let offline_round = median(&round_s).unwrap_or(0.0);
    let point_max = points.iter().copied().fold(0.0, f64::max);

    // Shards of the first round, each run offline on one thread; their
    // concatenation must be the serial artifact.
    let first = &ctx.timed[0];
    let plan_s = per_call(first, 20, |sc| {
        std::hint::black_box(ShardPlan::new(sc, SHARDS).expect("valid spec"));
    });
    let (mut slowest, mut mean) = (0.0, 0.0);
    for sc in first {
        let plan = ShardPlan::new(sc, SHARDS).expect("valid spec");
        let mut rows = Vec::new();
        let mut walls = Vec::new();
        for shard in plan.shards() {
            let run = run_offline(&shard.spec, 1);
            rows.extend_from_slice(&run.rows);
            walls.push(run.wall_s);
        }
        check(sc, &rows);
        slowest += walls.iter().copied().fold(0.0, f64::max);
        mean += walls.iter().sum::<f64>() / walls.len() as f64;
    }

    // Phase probe on the first round's draw and injection specs.
    let mut phases = PhaseTimes::default();
    let mut probe_error = None;
    for (sc, outcome) in first.iter().zip(&first_outcomes) {
        if let Err(e) = probe::probe(sc, outcome, &mut phases) {
            probe_error.get_or_insert(e);
        }
    }

    let energy_s = {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let clock = Instant::now();
                std::hint::black_box(run_energy_table(&EnergyConfig::default()));
                clock.elapsed().as_secs_f64()
            })
            .collect();
        median(&times).unwrap_or(0.0)
    };
    let specs: Vec<&Scenario> = ctx.artifacts.iter().map(|a| &a.spec).collect();
    let parse_s = per_call(ctx.artifacts, 20, |a| {
        let sc = Scenario::from_json(&a.json).expect("spec parses");
        sc.validate().expect("spec validates");
        std::hint::black_box(sc);
    });
    let id_s = per_call(&specs, 50, |sc| {
        std::hint::black_box(campaign_id(sc));
    });
    let head_ms: Vec<f64> = (0..20)
        .filter_map(|i| {
            let a = &ctx.artifacts[i % ctx.artifacts.len()];
            client::time_to_head(&ctx.topo.addr, &a.json)
                .ok()
                .map(|d| d.as_secs_f64() * 1e3)
        })
        .collect();
    let verify_s = {
        let clock = Instant::now();
        let store = Store::open(&ctx.topo.store).expect("store opens");
        let ids = store.scan().expect("store scans");
        for (id, _, complete) in ids {
            if complete && store.verify(&id).expect("verify reads") != Integrity::Verified {
                mismatches += 1;
            }
        }
        clock.elapsed().as_secs_f64()
    };

    let stat = |key: &str| client::json_number(ctx.stats, key).unwrap_or(-1.0);
    let frac = |n: u64| n as f64 / tel.lanes.max(1) as f64;
    let metrics = Metric::list(vec![
        ("ecg.record_suite_s", phases.record_suite_s, "s"),
        ("dsp.reference_s", phases.reference_s, "s"),
        ("dsp.raw_trace_s", phases.raw_trace_s, "s"),
        ("dsp.evict_replay_s", phases.evict_replay_s, "s"),
        ("dsp.evict_runs", phases.evict_runs as f64, "count"),
        ("core.derive_trace_s", phases.derive_trace_s, "s"),
        ("core.replay_s", phases.replay_s, "s"),
        ("core.replay_events", phases.replay_events as f64, "count"),
        ("mem.arm_s", phases.arm_s, "s"),
        ("mem.transpose_s", phases.transpose_s, "s"),
        ("probe.cells", phases.cells as f64, "count"),
        ("energy.table_s", energy_s, "s"),
        (
            "exec.cpu_util",
            cpu / (wall * OFFLINE_THREADS as f64),
            "ratio",
        ),
        ("sim.lanes", tel.lanes as f64, "count"),
        ("sim.lane_evict_frac", frac(tel.evicted), "ratio"),
        ("sim.lane_bail_frac", frac(tel.bailed), "ratio"),
        (
            "sim.lane_survival",
            1.0 - frac(tel.evicted + tel.bailed),
            "ratio",
        ),
        ("sim.traces_recorded", tel.traces_recorded as f64, "count"),
        ("sim.clean_replays", tel.clean_replays as f64, "count"),
        ("scenario.point_s_p50", median(&points).unwrap_or(0.0), "s"),
        ("scenario.point_s_max", point_max, "s"),
        ("scenario.parse_s", parse_s, "s"),
        ("shard.plan_s", plan_s, "s"),
        ("shard.imbalance", slowest / mean, "ratio"),
        ("report.emit_s", median(&emit).unwrap_or(0.0), "s"),
        ("serve.id_s", id_s, "s"),
        ("serve.head_ms", median(&head_ms).unwrap_or(0.0), "ms"),
        (
            "serve.stream_ms",
            median(ctx.replay_post_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        ("serve.cold_gap_s", ctx.served_round_s - offline_round, "s"),
        ("serve.shard_gap_s", ctx.served_round_s - slowest, "s"),
        ("store.verify_s", verify_s, "s"),
        ("serve.stats.cache_hits", stat("cache_hits"), "count"),
        ("serve.stats.campaigns_run", stat("campaigns_run"), "count"),
        (
            "serve.stats.trials_executed",
            stat("trials_executed"),
            "count",
        ),
        ("serve.stats.shed", stat("shed"), "count"),
        ("serve.stats.bad_requests", stat("bad_requests"), "count"),
        ("trace.round_s", offline_round, "s"),
        (
            "trace_overhead_frac",
            (offline_round - ctx.served_round_s) / ctx.served_round_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
    ]);
    Traced {
        metrics,
        mismatches,
        probe_error,
    }
}
