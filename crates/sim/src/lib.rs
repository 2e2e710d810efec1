//! Experiment harness: a declarative scenario engine with one thin,
//! row-typed driver per table/figure of the paper.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`scenario`] | the engine: serializable campaign specs, the preset registry, and execution with streaming sinks |
//! | [`fig2`] | Fig. 2 post-processing — the §III compressed-sensing tolerance thresholds over the `fig2` preset's injection rows |
//! | [`fig4`] | Fig. 4a/b/c post-processing — the voltage-curve row type and per-(app, EMT) curve lookup over the `fig4` preset's points |
//! | [`energy_table`] | §VI-B — energy overhead of each EMT vs the unprotected baseline, and the codec area comparison |
//! | [`tradeoff`] | §VI-C — mixed-EMT voltage policy for a given output-degradation tolerance and its energy savings |
//! | [`ablation`] | extensions: protected-bits census, address-scrambling ablation, BER-slope sensitivity, mask-supply ablation |
//! | [`campaign`] | shared plumbing: seed discipline, the storage adapter onto protected memories, SNR capping, geometry/record-suite selection |
//! | [`exec`] | the deterministic parallel trial executor behind every campaign, and its one settings value `ExecConfig` (`DREAM_THREADS`, `DREAM_BATCH`) |
//! | [`telemetry`] | process-wide counters of the batched executor's economics (evictions, bail-outs, clean-pass replays) for the service's `/stats` and the benchmark |
//! | [`report`] | streaming row sinks (ASCII table, CSV, JSONL) for the `dream` CLI |
//!
//! The experiment functions are deterministic: every random choice derives
//! from explicit seeds, and the [`exec`] scheduler merges trial results in
//! trial order, so `cargo run -p dream-bench --bin dream -- run fig4`
//! prints the same series on every machine **at every thread count**.
//!
//! # Example
//!
//! ```
//! use dream_sim::scenario::{registry, CampaignRunner, OutcomeData, Scenario};
//! use dream_dsp::AppKind;
//!
//! // A miniature Fig. 2: one app, 256-sample windows, 2 records.
//! let sc = Scenario {
//!     window: 256,
//!     records: 2,
//!     trials: 2,
//!     apps: vec![AppKind::CompressedSensing],
//!     ..registry::get("fig2", false).expect("preset exists")
//! };
//! let outcome = CampaignRunner::new(sc).run_discarding().expect("campaign runs");
//! let OutcomeData::Injection(rows) = outcome.data else { unreachable!() };
//! assert_eq!(rows.len(), 2 * 16); // stuck-at-0 and stuck-at-1, 16 bit positions
//! let (_sa0, _sa1) = dream_sim::fig2::cs_tolerance(&rows, 35.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod energy_table;
pub mod exec;
pub mod fig2;
pub mod fig4;
pub mod report;
pub mod scenario;
pub mod telemetry;
pub mod tradeoff;
