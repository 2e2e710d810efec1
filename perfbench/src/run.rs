//! One benchmark run: set-up, warm-up, timed rounds, the replay phase,
//! and (traced runs) the per-layer measurements.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dream_sim::scenario::Scenario;

use crate::client::{self, Fetched};
use crate::digest::{OracleCache, References};
use crate::layers;
use crate::stats::{median, tail};
use crate::topology::{self, Topology};
use crate::workload::{replay_specs, Workload, DEFAULT_SEED, REPLAY_CLIENTS};

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed: every campaign seed derives from it.
    pub seed: u64,
    /// About how long the timed part should last.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Metrics from `(name, value, unit)` triples.
    pub fn list(triples: Vec<(&'static str, f64, &'static str)>) -> Vec<Metric> {
        triples
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect()
    }
}

/// Failure accounting over timed requests.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Timed requests made.
    pub attempted: u64,
    /// Requests refused, broken, errored, or with wrong rows.
    pub failed: u64,
    /// Artifacts (timed or not) whose rows differ from the oracle's.
    pub mismatches: u64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (the untraced view).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics: the replay tail and peak RSS on every run,
    /// every layer's metrics on traced runs.
    pub per_layer: Vec<Metric>,
    /// Failure accounting.
    pub tally: Tally,
    /// Phase-probe mismatch, if any.
    pub probe_error: Option<String>,
    /// Provenance and sample counts, as a JSON object.
    pub meta: String,
}

/// One timed replay request.
struct ReplaySample {
    latency_s: f64,
    first_row_s: Option<f64>,
    trials: usize,
}

/// A timed artifact: its spec, its request body and its store id.
pub(crate) struct Artifact {
    pub(crate) spec: Scenario,
    pub(crate) json: String,
    pub(crate) id: String,
}

impl Artifact {
    fn new(spec: Scenario) -> Artifact {
        Artifact {
            json: spec.to_json(),
            id: dream_serve::campaign_id(&spec),
            spec,
        }
    }
}

/// Runs `opts` with working files under `work`: stores in a per-process
/// directory (removed afterwards) and the oracle cache.
///
/// # Errors
///
/// Set-up failures and failed warm-up requests.
pub fn run(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("perfbench-runs").join(format!(
        "{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let result = run_in(opts, &dir, &work.join("perfbench-oracle"));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Options, dir: &Path, oracle_dir: &Path) -> Result<Outcome, String> {
    let w = opts.workload;
    let rounds = w.rounds(opts.seconds);
    let timed: Vec<Vec<Scenario>> = if w.is_cold() {
        (0..rounds).map(|r| w.round_specs(opts.seed, r)).collect()
    } else {
        vec![replay_specs(opts.seed)]
    };

    // Oracle references, untimed and before anything is timed.
    let mut refs = if opts.seed == DEFAULT_SEED {
        References::stored()
    } else {
        References::default()
    };
    let cache = OracleCache::open(oracle_dir);
    if let Some(cache) = &cache {
        refs.merge(cache.load());
    }
    let oracle_clock = Instant::now();
    let all: Vec<Scenario> = timed.iter().flatten().cloned().collect();
    let oracle_runs = refs.ensure(&all, 2);
    if let (Some(cache), true) = (&cache, oracle_runs > 0) {
        cache.save(&refs);
    }
    let oracle_s = oracle_clock.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    // The oracle is benchmark machinery: restart the peak-RSS watermark
    // so `peak_rss_mb` covers the served program only.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    // Set-up, repeated: fresh store, bind, ready (replay-warm also
    // computes its artifacts and restarts on the store to verify them).
    let setups = if w.is_cold() { 9 } else { 3 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut topo: Option<Topology> = None;
    for k in 0..setups {
        let clock = Instant::now();
        let mut t =
            topology::boot(w, &dir.join(format!("setup{k}"))).map_err(|e| format!("boot: {e}"))?;
        if !w.is_cold() {
            for sc in &timed[0] {
                let fetched = client::post_campaign(&t.addr, &sc.to_json())
                    .map_err(|e| format!("set-up POST {}: {e}", sc.name))?;
                if !refs.matches(sc, &fetched.rows) {
                    tally.mismatches += 1;
                }
            }
            t = topology::restart(t).map_err(|e| format!("restart: {e}"))?;
        }
        setup_s.push(clock.elapsed().as_secs_f64());
        if let Some(old) = topo.replace(t) {
            old.shutdown();
        }
    }
    let topo = topo.expect("at least one set-up");

    let artifacts: Vec<Artifact> = timed.iter().flatten().cloned().map(Artifact::new).collect();

    // Untimed warm-up round, on seeds outside the timed set.
    if w.is_cold() {
        for sc in w.warmup_specs(opts.seed) {
            client::post_campaign(&topo.addr, &sc.to_json())
                .map_err(|e| format!("warm-up POST {}: {e}", sc.name))?;
        }
    } else {
        let warmup = 2 * artifacts.len() * REPLAY_CLIENTS * REPLAY_SEGMENTS;
        replay_phase(&topo.addr, &artifacts, warmup, &refs, &mut Tally::default());
    }

    // Timed cold rounds.
    let mut round_s = Vec::new();
    let mut ttfr_s = Vec::new();
    let mut trials = 0usize;
    let mut trial_time = 0.0;
    if w.is_cold() {
        for round in artifacts.chunks(w.presets().len()) {
            let clock = Instant::now();
            let mut ok = true;
            let mut round_trials = 0;
            for Artifact { spec: sc, json, .. } in round {
                tally.attempted += 1;
                match client::post_campaign(&topo.addr, json) {
                    Ok(f) if refs.matches(sc, &f.rows) => {
                        if let Some(first) = f.first_row {
                            ttfr_s.push(first.as_secs_f64());
                        }
                        round_trials += sc.flatten().len();
                    }
                    Ok(_) => {
                        tally.failed += 1;
                        tally.mismatches += 1;
                        ok = false;
                    }
                    Err(e) => {
                        eprintln!("perfbench: {} failed: {e}", sc.name);
                        tally.failed += 1;
                        ok = false;
                    }
                }
            }
            if ok {
                let wall = clock.elapsed().as_secs_f64();
                round_s.push(wall);
                trials += round_trials;
                trial_time += wall;
            }
        }
    }

    // Replay phase: cache hits over the artifacts just timed.
    let requests = w.replay_requests(opts.seconds);
    let replay = replay_phase(&topo.addr, &artifacts, requests, &refs, &mut tally);
    let latencies: Vec<f64> = replay.samples.iter().map(|s| s.latency_s * 1e3).collect();
    // A metric left without samples (its requests all failed) reads 0;
    // `failed` and `correct` carry the verdict.
    let p50 = median(&latencies).unwrap_or(0.0);
    let tails: Vec<(f64, f64, usize)> = replay
        .segments
        .iter()
        .filter_map(|(l, _)| tail(l))
        .collect();
    let p_tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()).unwrap_or(0.0);
    let p_tail_pct = tails.first().map_or(0.0, |t| t.1);
    // Pooled, not a median over segments: the poller's occasional 25 ms
    // wake-up stalls are rare events, and their cost averages out best
    // over the whole phase.
    let busy_s: f64 = replay.segments.iter().map(|(_, wall)| wall).sum();
    let req_per_s = latencies.len() as f64 / busy_s;
    if !w.is_cold() {
        round_s = replay.pass_s.clone();
        ttfr_s = replay
            .samples
            .iter()
            .filter_map(|s| s.first_row_s)
            .collect();
        trials = replay.samples.iter().map(|s| s.trials).sum();
        trial_time = replay.wall_s;
    }
    let stats = client::get_text(&topo.addr, "/stats").unwrap_or_default();

    let round = median(&round_s).unwrap_or(0.0);
    let end_to_end = Metric::list(vec![
        ("round_s", round, "s"),
        ("ttfr_s", median(&ttfr_s).unwrap_or(0.0), "s"),
        (
            "trials_per_s",
            trials as f64 / trial_time.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("replay_p50_ms", p50, "ms"),
        ("replay_req_per_s", req_per_s, "1/s"),
        ("setup_s", median(&setup_s).expect("set-ups ran"), "s"),
    ]);
    // Printed on every run, but carried as per-layer (unbounded) metrics:
    // the tail flips between the poller's ~2 ms and its 25 ms wake-up
    // backstop, and peak RSS between allocator arena layouts, from run
    // to run of one commit.
    let mut per_layer = Metric::list(vec![
        ("replay_p99_ms", p_tail, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]);
    let mut probe_error = None;
    if opts.trace {
        let traced = layers::measure(&layers::Context {
            timed: &timed,
            artifacts: &artifacts,
            topo: &topo,
            refs: &refs,
            served_round_s: round,
            replay_post_s: &replay.post_s,
            stats: &stats,
        });
        tally.mismatches += traced.mismatches;
        probe_error = traced.probe_error;
        per_layer.extend(traced.metrics);
    }
    topo.shutdown();

    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_commit\": \"{}\", \
         \"nproc\": {}, \"server\": {{\"workers\": {}, \"threads\": {}, \"shards\": {}}}, \
         \"samples\": {{\"setups\": {}, \"rounds\": {}, \"ttfr\": {}, \"replay_requests\": {}, \"replay_ok\": {}, \
         \"replay_tail_percentile\": {:.2}}}, \"oracle_runs\": {}, \"oracle_s\": {:.3}, \
         \"shed\": {}, \"bad_requests\": {}, \"round_values_s\": {:?}, \"ttfr_values_s\": {:?}}}",
        w.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        git_commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        crate::workload::SERVER_WORKERS,
        if w == Workload::Fig4Sharded { 1 } else { crate::workload::SERVER_THREADS },
        if w == Workload::Fig4Sharded { crate::workload::SHARDS } else { 1 },
        setups,
        round_s.len(),
        ttfr_s.len(),
        requests,
        latencies.len(),
        p_tail_pct,
        oracle_runs,
        oracle_s,
        client::json_number(&stats, "shed").unwrap_or(-1.0),
        client::json_number(&stats, "bad_requests").unwrap_or(-1.0),
        if w.is_cold() { &round_s[..] } else { &[] },
        if w.is_cold() { &ttfr_s[..] } else { &[] },
    );
    Ok(Outcome {
        end_to_end,
        per_layer,
        tally,
        probe_error,
        meta,
    })
}

/// What a replay phase measured.
struct Replay {
    samples: Vec<ReplaySample>,
    /// Successful `POST` latencies (s).
    post_s: Vec<f64>,
    /// Wall time of each client's full pass over the artifacts (s).
    pass_s: Vec<f64>,
    /// Per segment: successful request latencies (ms) and wall time (s).
    segments: Vec<(Vec<f64>, f64)>,
    wall_s: f64,
}

/// Consecutive segments of a replay phase; the tail is reported as the
/// median over segments, so one burst of host contention moves one
/// segment, not the run.
pub const REPLAY_SEGMENTS: usize = 5;

/// One client's share of one segment.
#[derive(Default)]
struct ClientSegment {
    samples: Vec<(ReplaySample, bool)>,
    passes: Vec<f64>,
    failed: u64,
    mismatched: u64,
    wall_s: f64,
}

/// `requests` cache-hit requests from [`REPLAY_CLIENTS`] closed-loop
/// clients, alternating `POST /campaigns` and `GET /campaigns/{id}/rows`
/// over `artifacts` in [`REPLAY_SEGMENTS`] barrier-aligned segments;
/// every body is digest-checked.
fn replay_phase(
    addr: &str,
    artifacts: &[Artifact],
    requests: usize,
    refs: &References,
    tally: &mut Tally,
) -> Replay {
    let per_segment = requests / (REPLAY_CLIENTS * REPLAY_SEGMENTS);
    let pass_len = 2 * artifacts.len();
    let barrier = std::sync::Barrier::new(REPLAY_CLIENTS);
    let clock = Instant::now();
    let per_client: Vec<Vec<ClientSegment>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REPLAY_CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut segments = Vec::with_capacity(REPLAY_SEGMENTS);
                    for _ in 0..REPLAY_SEGMENTS {
                        barrier.wait();
                        let mut seg = ClientSegment::default();
                        let start = Instant::now();
                        let mut pass_start = start;
                        for j in 0..per_segment {
                            let a = &artifacts
                                [(j / 2 + c * artifacts.len() / REPLAY_CLIENTS) % artifacts.len()];
                            let post = (j + c) % 2 == 0;
                            let got: std::io::Result<Fetched> = if post {
                                client::post_campaign(addr, &a.json)
                            } else {
                                client::get_rows(addr, &a.id)
                            };
                            match got {
                                Ok(f) if refs.matches(&a.spec, &f.rows) => seg.samples.push((
                                    ReplaySample {
                                        latency_s: f.total.as_secs_f64(),
                                        first_row_s: f.first_row.map(|d| d.as_secs_f64()),
                                        trials: a.spec.flatten().len(),
                                    },
                                    post,
                                )),
                                Ok(_) => {
                                    seg.failed += 1;
                                    seg.mismatched += 1;
                                }
                                Err(e) => {
                                    eprintln!("perfbench: replay of {} failed: {e}", a.spec.name);
                                    seg.failed += 1;
                                }
                            }
                            if (j + 1) % pass_len == 0 {
                                seg.passes.push(pass_start.elapsed().as_secs_f64());
                                pass_start = Instant::now();
                            }
                        }
                        seg.wall_s = start.elapsed().as_secs_f64();
                        segments.push(seg);
                    }
                    segments
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect()
    });
    let mut replay = Replay {
        samples: Vec::new(),
        post_s: Vec::new(),
        pass_s: Vec::new(),
        segments: vec![(Vec::new(), 0.0); REPLAY_SEGMENTS],
        wall_s: clock.elapsed().as_secs_f64(),
    };
    for segments in per_client {
        for (k, seg) in segments.into_iter().enumerate() {
            tally.attempted += per_segment as u64;
            tally.failed += seg.failed;
            tally.mismatches += seg.mismatched;
            let (latencies, wall) = &mut replay.segments[k];
            *wall = f64::max(*wall, seg.wall_s);
            for (s, post) in seg.samples {
                latencies.push(s.latency_s * 1e3);
                if post {
                    replay.post_s.push(s.latency_s);
                }
                replay.samples.push(s);
            }
            replay.pass_s.extend(seg.passes);
        }
    }
    replay
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(PathBuf::from(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(Path::new(".git").join(r)).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}
