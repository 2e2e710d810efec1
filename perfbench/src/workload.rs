//! The four workloads: which specs each sends, with which seeds, on
//! which server topology, and how much work one run measures.

use dream_sim::scenario::{registry, Scenario};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The shipped `fig4` preset, one campaign at a time, on
    /// `workers 1` / `threads 2`.
    Fig4Cold,
    /// One round of [`MIX`] presets, in order, on the same server.
    SweepMixCold,
    /// Cache-hit `POST /campaigns` and `GET /campaigns/{id}/rows`
    /// against every shipped preset at `trials = 1`; no trials run.
    ReplayWarm,
    /// The `fig4-cold` specs and seeds through a `shards 2` coordinator
    /// over two in-process shard workers with one engine thread each.
    Fig4Sharded,
}

/// The presets of one `sweep-mix-cold` round, in submission order.
pub const MIX: [&str; 6] = [
    "fig2",
    "noise-sweep",
    "burst-sweep",
    "bank-voltage",
    "tradeoff",
    "geometry-sweep",
];

/// Seed used when the command line names none; the stored reference
/// digests cover this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Engine threads of the serving process (`threads 2`, as on a 2-core host).
pub const SERVER_THREADS: usize = 2;
/// Campaign workers of the serving process.
pub const SERVER_WORKERS: usize = 1;
/// Shards of the `fig4-sharded` coordinator.
pub const SHARDS: usize = 2;
/// Client threads of every replay phase.
pub const REPLAY_CLIENTS: usize = 2;
/// Replay requests made after the cold rounds of a cold workload.
pub const COLD_REPLAY_REQUESTS: usize = 16000;

// Seed streams: cold campaigns, warm-up campaigns and replay artifacts
// draw from disjoint streams of one workload seed.
const STREAM_COLD: u64 = 0xC01D;
const STREAM_WARMUP: u64 = 0x3A23;
const STREAM_REPLAY: u64 = 0x2E91;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Cold,
        Workload::SweepMixCold,
        Workload::ReplayWarm,
        Workload::Fig4Sharded,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Cold => "fig4-cold",
            Workload::SweepMixCold => "sweep-mix-cold",
            Workload::ReplayWarm => "replay-warm",
            Workload::Fig4Sharded => "fig4-sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether timed requests run campaigns (as opposed to replaying).
    pub fn is_cold(self) -> bool {
        self != Workload::ReplayWarm
    }

    /// Presets of one round.
    pub fn presets(self) -> Vec<&'static str> {
        match self {
            Workload::Fig4Cold | Workload::Fig4Sharded => vec!["fig4"],
            Workload::SweepMixCold => MIX.to_vec(),
            Workload::ReplayWarm => registry::names().to_vec(),
        }
    }

    /// Host seconds one round took at the commit that introduced the
    /// benchmark (2 cores). Fixes the amount of work per run, so every
    /// commit measures the same rounds.
    fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Fig4Cold => 2.0,
            Workload::Fig4Sharded => 2.7,
            Workload::SweepMixCold => 5.0,
            // One pass over every artifact, both request kinds, with
            // the clients' passes overlapping.
            Workload::ReplayWarm => 0.0075,
        }
    }

    /// Timed rounds of a run that should last about `seconds`.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_round_s()).ceil() as usize).max(2)
    }

    /// Requests of the replay phase of a run lasting about `seconds`.
    pub fn replay_requests(self, seconds: u64) -> usize {
        match self {
            Workload::ReplayWarm => self.rounds(seconds) * 2 * registry::names().len(),
            _ => COLD_REPLAY_REQUESTS,
        }
    }

    /// The cold specs of timed round `round`.
    pub fn round_specs(self, seed: u64, round: usize) -> Vec<Scenario> {
        let per_round = self.presets().len();
        self.presets()
            .iter()
            .enumerate()
            .map(|(k, name)| {
                preset(
                    name,
                    derive_seed(seed, STREAM_COLD, (round * per_round + k) as u64),
                )
            })
            .collect()
    }

    /// The specs of the untimed warm-up round.
    pub fn warmup_specs(self, seed: u64) -> Vec<Scenario> {
        self.presets()
            .iter()
            .enumerate()
            .map(|(k, name)| preset(name, derive_seed(seed, STREAM_WARMUP, k as u64)))
            .collect()
    }
}

/// Every shipped preset with `trials` overridden to 1: same row count
/// and columns as the full preset, but cheap to compute in set-up.
pub fn replay_specs(seed: u64) -> Vec<Scenario> {
    registry::names()
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let mut sc = preset(name, derive_seed(seed, STREAM_REPLAY, k as u64));
            sc.trials = 1;
            sc
        })
        .collect()
}

fn preset(name: &str, seed: u64) -> Scenario {
    let mut sc = registry::get(name, false).expect("shipped preset name");
    sc.seed = seed;
    sc
}

/// Campaign seed `index` of `stream` under workload seed `seed`
/// (SplitMix64 over the mixed triple).
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
