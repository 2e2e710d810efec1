//! Experiments E2–E4: Fig. 4 — SNR versus memory supply voltage under the
//! three protection schemes.
//!
//! The sweep is the registry's `fig4` preset, executed by
//! [`crate::scenario::engine`]: for every voltage it draws `trials` random
//! stuck-at maps at the model BER, reuses **the same map** across all EMTs
//! (§V: "all the EMTs are tested reusing the same set of error
//! locations/mappings"), runs every application, and averages the per-run
//! SNRs in dB. This module holds the row type ([`Fig4Point`]) and the
//! curve lookup ([`curve`]) over the resulting outcome.

use dream_core::EmtKind;
use dream_dsp::AppKind;

/// One point of one curve in Fig. 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig4Point {
    /// Application under test.
    pub app: AppKind,
    /// Protection scheme.
    pub emt: EmtKind,
    /// Data-memory supply voltage (V).
    pub voltage: f64,
    /// Mean output SNR over the runs (dB, averaged in dB as the paper
    /// does).
    pub mean_snr_db: f64,
    /// Worst run (dB).
    pub min_snr_db: f64,
    /// Mean fraction of reads the decoder flagged uncorrectable.
    pub uncorrectable_rate: f64,
    /// Mean fraction of reads the decoder corrected.
    pub corrected_rate: f64,
}

/// Looks up the curve of one (app, EMT) pair, sorted by voltage ascending.
pub fn curve(points: &[Fig4Point], app: AppKind, emt: EmtKind) -> Vec<Fig4Point> {
    let mut c: Vec<Fig4Point> = points
        .iter()
        .filter(|p| p.app == app && p.emt == emt)
        .copied()
        .collect();
    c.sort_by(|a, b| a.voltage.partial_cmp(&b.voltage).expect("finite voltages"));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, CampaignRunner, Grid, OutcomeData, Scenario};

    /// A reduced `fig4` preset: DWT only, 4 draws at three voltages.
    fn tiny() -> Vec<Fig4Point> {
        let sc = Scenario {
            window: 512,
            trials: 4,
            grid: Grid::Voltage(vec![0.5, 0.7, 0.9]),
            apps: vec![AppKind::Dwt],
            seed: 11,
            ..registry::get("fig4", false).unwrap()
        };
        match CampaignRunner::new(sc).run_discarding().unwrap().data {
            OutcomeData::Fig4(points) => points,
            other => panic!("Fig. 4 points expected, got {other:?}"),
        }
    }

    #[test]
    fn produces_full_grid() {
        assert_eq!(tiny().len(), 3 * 3);
    }

    #[test]
    fn snr_degrades_as_voltage_drops_unprotected() {
        let points = tiny();
        let c = curve(&points, AppKind::Dwt, EmtKind::None);
        assert!(
            c.first().unwrap().mean_snr_db < c.last().unwrap().mean_snr_db,
            "0.5 V should be worse than 0.9 V: {:?}",
            c.iter().map(|p| p.mean_snr_db).collect::<Vec<_>>()
        );
    }

    #[test]
    fn protection_helps_at_mid_voltages() {
        let points = tiny();
        let none = curve(&points, AppKind::Dwt, EmtKind::None);
        let dream = curve(&points, AppKind::Dwt, EmtKind::Dream);
        let ecc = curve(&points, AppKind::Dwt, EmtKind::EccSecDed);
        // At 0.7 V both protections should beat no protection.
        assert!(dream[1].mean_snr_db >= none[1].mean_snr_db);
        assert!(ecc[1].mean_snr_db >= none[1].mean_snr_db);
    }

    #[test]
    fn determinism() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_snr_db, y.mean_snr_db);
        }
    }

    #[test]
    fn curve_sorts_by_voltage() {
        let points = tiny();
        let c = curve(&points, AppKind::Dwt, EmtKind::Dream);
        assert!(c.windows(2).all(|w| w[0].voltage < w[1].voltage));
    }
}
