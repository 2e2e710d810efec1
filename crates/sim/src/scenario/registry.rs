//! Named scenario presets: every paper artifact plus the post-paper
//! sweeps, each in a full-scale and a `--smoke` variant.
//!
//! The five paper presets compile to the exact campaigns the historical
//! per-figure runners executed — `tests/scenario_golden.rs` pins their
//! smoke variants byte for byte against pre-refactor output.

use dream_core::EmtKind;
use dream_dsp::AppKind;
use dream_ecg::Database;
use dream_mem::BerModel;

use super::spec::{FaultModelSpec, Grid, Kind, Scenario, SpecError};

/// Base seed of the Fig. 2 injection campaign (historical constant).
pub const FIG2_SEED: u64 = 0xF162;
/// Base seed of the Fig. 4 voltage campaigns (historical constant).
pub const FIG4_SEED: u64 = 0xF1641;
/// Base seed of the noise sweep.
pub const NOISE_SEED: u64 = 0x0153E;
/// Base seed of the burst fault-model sweep.
pub const BURST_SEED: u64 = 0xB0257;
/// Base seed of the per-bank voltage-domain sweep.
pub const BANK_SEED: u64 = 0xBA2C5;
/// Operating voltage of the noise and geometry sweeps: deep in the faulty
/// region (Fig. 4 shows ~0.6 V is where protection starts to matter).
pub const SWEEP_VOLTAGE: f64 = 0.6;
/// Amplitude of the `bank-voltage` preset's per-bank ΔV ramp (V).
pub const BANK_RAMP_V: f64 = 0.05;

/// The preset names, in `dream list` order.
pub fn names() -> [&'static str; 9] {
    [
        "fig2",
        "fig4",
        "energy",
        "tradeoff",
        "ablation",
        "noise-sweep",
        "geometry-sweep",
        "burst-sweep",
        "bank-voltage",
    ]
}

fn base(name: &str, title: &str, kind: Kind, grid: Grid) -> Scenario {
    Scenario {
        name: name.to_string(),
        title: title.to_string(),
        kind,
        window: 1024,
        records: Database::SUITE_SIZE,
        trials: 1,
        apps: AppKind::all().to_vec(),
        emts: EmtKind::paper_set().to_vec(),
        grid,
        ..Scenario::defaults()
    }
}

/// Builds preset `name` (`smoke` = the reduced CI-scale variant).
///
/// # Errors
///
/// Returns [`SpecError::UnknownScenario`] for names outside [`names`] —
/// callers (the CLI, `extends` resolution, the campaign service) surface
/// it as user error, not a panic.
pub fn get(name: &str, smoke: bool) -> Result<Scenario, SpecError> {
    let sc = match name {
        "fig2" => {
            let mut sc = base(
                "fig2",
                "Fig. 2 — SNR vs stuck-at bit position, unprotected buffers",
                Kind::SnrSweep,
                Grid::BitPosition((0..16).collect()),
            );
            sc.emts = vec![EmtKind::None];
            sc.trials = 8;
            sc.seed = FIG2_SEED;
            if smoke {
                sc.window = 512;
                sc.records = 2;
                sc.trials = 2;
            }
            sc
        }
        "fig4" => {
            let mut sc = base(
                "fig4",
                "Fig. 4 — SNR vs supply voltage under none/DREAM/ECC",
                Kind::SnrSweep,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.trials = 200;
            sc.seed = FIG4_SEED;
            if smoke {
                sc.window = 512;
                sc.trials = 4;
                sc.grid = Grid::Voltage(vec![0.5, 0.6, 0.7, 0.8, 0.9]);
            }
            sc
        }
        "energy" => {
            let mut sc = base(
                "energy",
                "§VI-B — per-voltage energy of one run under each EMT",
                Kind::EnergySweep,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.apps = vec![AppKind::Dwt];
            if smoke {
                sc.window = 512;
            }
            sc
        }
        "tradeoff" => {
            let mut sc = base(
                "tradeoff",
                "§VI-C — minimum voltage and energy savings per EMT (DWT, -1 dB)",
                Kind::Tradeoff,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.apps = vec![AppKind::Dwt];
            sc.trials = 100;
            sc.tolerance_db = Some(1.0);
            sc.seed = FIG4_SEED;
            if smoke {
                sc.window = 512;
                sc.trials = 4;
            }
            sc
        }
        "ablation" => {
            let mut sc = base(
                "ablation",
                "Design-choice ablations: protected bits, scrambler, BER slope, mask rail",
                Kind::Ablation,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.apps = vec![AppKind::Dwt];
            sc.emts = vec![EmtKind::Dream];
            sc.trials = 12;
            sc.ber_slopes = vec![10.0, 13.0, 16.0];
            if smoke {
                sc.window = 512;
                sc.trials = 4;
                sc.ber_slopes = vec![10.0, 16.0];
            }
            sc
        }
        "noise-sweep" => {
            let mut sc = base(
                "noise-sweep",
                "SNR vs input-noise floor at 0.6 V — how signal quality shifts each EMT",
                Kind::SnrSweep,
                Grid::NoiseScale(vec![0.0, 0.5, 1.0, 2.0, 4.0]),
            );
            sc.trials = 50;
            sc.fixed_voltage = SWEEP_VOLTAGE;
            sc.seed = NOISE_SEED;
            if smoke {
                sc.window = 512;
                sc.trials = 2;
                sc.grid = Grid::NoiseScale(vec![0.0, 1.0, 4.0]);
            }
            sc
        }
        "geometry-sweep" => {
            let mut sc = base(
                "geometry-sweep",
                "Energy vs data-memory size at 0.6 V — leakage cost of over-provisioned SRAM",
                Kind::EnergySweep,
                // The DWT footprint at the 1024-sample window is 8192
                // words; the grid sweeps from exactly-fits to the 4x
                // over-provisioned INYU-class array and beyond.
                Grid::MemoryWords(vec![8192, 16384, 32768, 65536]),
            );
            sc.apps = vec![AppKind::Dwt];
            sc.fixed_voltage = SWEEP_VOLTAGE;
            if smoke {
                sc.window = 512;
                sc.grid = Grid::MemoryWords(vec![4096, 16384, 65536]);
            }
            sc
        }
        "burst-sweep" => {
            let mut sc = base(
                "burst-sweep",
                "Fig. 4 sweep under burst faults — geometric run-length clusters (mean 8)",
                Kind::SnrSweep,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.fault.model = FaultModelSpec::Burst { mean_run_len: 8.0 };
            sc.trials = 100;
            sc.seed = BURST_SEED;
            if smoke {
                sc.window = 512;
                sc.trials = 4;
                sc.grid = Grid::Voltage(vec![0.5, 0.6, 0.7, 0.8, 0.9]);
            }
            sc
        }
        "bank-voltage" => {
            let mut sc = base(
                "bank-voltage",
                "Fig. 4 sweep under per-bank voltage-domain drift (±50 mV ramp)",
                Kind::SnrSweep,
                Grid::Voltage(BerModel::paper_voltages()),
            );
            sc.fault.model = FaultModelSpec::PerBankVoltage {
                bank_offsets: FaultModelSpec::bank_ramp(BANK_RAMP_V),
            };
            sc.trials = 100;
            sc.seed = BANK_SEED;
            if smoke {
                sc.window = 512;
                sc.trials = 4;
                sc.grid = Grid::Voltage(vec![0.5, 0.6, 0.7, 0.8, 0.9]);
            }
            sc
        }
        _ => {
            return Err(SpecError::UnknownScenario {
                name: name.to_string(),
            })
        }
    };
    Ok(sc)
}

/// `(name, kind, axis, points, title)` for every preset — the rows behind
/// `dream list`.
pub fn catalog() -> Vec<(String, &'static str, &'static str, usize, String)> {
    names()
        .iter()
        .map(|&name| {
            let sc = get(name, false).expect("registry names are exhaustive");
            (
                sc.name.clone(),
                sc.kind.token(),
                sc.grid.axis_token(),
                sc.grid.len(),
                sc.title.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in names() {
            for smoke in [false, true] {
                let sc = get(name, smoke).expect("preset exists");
                assert_eq!(sc.name, name);
                sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
        let err = get("nope", false).unwrap_err();
        assert!(
            matches!(&err, SpecError::UnknownScenario { name } if name == "nope"),
            "{err}"
        );
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn paper_presets_match_historical_configs() {
        let fig2 = get("fig2", false).unwrap();
        assert_eq!(fig2.seed, FIG2_SEED);
        assert_eq!(fig2.emts, vec![EmtKind::None]);
        assert_eq!(fig2.grid.len(), 32); // 16 bits × 2 polarities
        let fig4 = get("fig4", false).unwrap();
        assert_eq!(fig4.seed, FIG4_SEED);
        assert_eq!(fig4.trials, 200);
        assert_eq!(fig4.grid, Grid::Voltage(BerModel::paper_voltages()));
        let tradeoff = get("tradeoff", false).unwrap();
        assert_eq!(tradeoff.tolerance_db, Some(1.0));
        assert_eq!(tradeoff.apps, vec![AppKind::Dwt]);
    }

    #[test]
    fn catalog_lists_every_preset_once() {
        let cat = catalog();
        assert_eq!(cat.len(), names().len());
        let mut seen: Vec<&str> = cat.iter().map(|(n, ..)| n.as_str()).collect();
        seen.dedup();
        assert_eq!(seen.len(), cat.len());
    }

    #[test]
    fn smoke_variants_are_strictly_smaller() {
        for name in names() {
            let full = get(name, false).unwrap();
            let smoke = get(name, true).unwrap();
            assert!(
                smoke.flatten().len() <= full.flatten().len(),
                "{name}: smoke must not out-scale the full preset"
            );
            assert!(smoke.window <= full.window, "{name}");
        }
    }
}
