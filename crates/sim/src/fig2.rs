//! Experiment E1: Fig. 2 — SNR versus the bit position of an injected
//! permanent error.
//!
//! The sweep is the registry's `fig2` preset, executed by
//! [`crate::scenario::engine`]: "we successively set to '1' and '0' each
//! bit located on the positions 0 to 15 of the 16-bits data buffers"
//! (§III), with no EMT, measuring the output SNR against the
//! double-precision reference. Each injection is a **single stuck-at
//! cell** at a pseudo-random buffer word; forcing bit `b` of *every* word
//! would swamp even LSB positions with error power and is inconsistent
//! with the tolerances the paper reads off the figure. This module holds
//! the row-typed post-processing of the resulting
//! [`InjectionRow`]s.

use dream_core::EmtKind;
use dream_dsp::AppKind;
use dream_mem::StuckAt;

use crate::scenario::InjectionRow;

/// The §III claim for compressed sensing: the highest bit position whose
/// injected fault still leaves the unprotected output above
/// `threshold_db` (35 dB for multi-lead ECG reconstruction, 40 dB for
/// single-lead). Only compressed-sensing rows without protection
/// ([`EmtKind::None`]) count.
///
/// Returns `(stuck_at_0_limit, stuck_at_1_limit)`; `None` means even the
/// LSB violates the threshold.
pub fn cs_tolerance(rows: &[InjectionRow], threshold_db: f64) -> (Option<u32>, Option<u32>) {
    let limit = |stuck: StuckAt| {
        let mut curve: Vec<(u32, f64)> = rows
            .iter()
            .filter(|r| {
                r.app == AppKind::CompressedSensing && r.emt == EmtKind::None && r.stuck == stuck
            })
            .map(|r| (r.bit, r.snr_db))
            .collect();
        curve.sort_by_key(|&(bit, _)| bit);
        // The paper's phrasing is a contiguous range "from 0 to N": walk up
        // from the LSB and stop at the first violating position.
        let mut best = None;
        for (bit, snr) in curve {
            if snr >= threshold_db {
                best = Some(bit);
            } else {
                break;
            }
        }
        best
    };
    (limit(StuckAt::Zero), limit(StuckAt::One))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, CampaignRunner, OutcomeData, Scenario};

    /// A reduced `fig2` preset: 512-sample windows, 2 records, 4 fault
    /// locations per record.
    fn rows_of(apps: Vec<AppKind>) -> Vec<InjectionRow> {
        let sc = Scenario {
            window: 512,
            records: 2,
            trials: 4,
            apps,
            ..registry::get("fig2", false).unwrap()
        };
        match CampaignRunner::new(sc).run_discarding().unwrap().data {
            OutcomeData::Injection(rows) => rows,
            other => panic!("injection rows expected, got {other:?}"),
        }
    }

    fn snr_at(rows: &[InjectionRow], stuck: StuckAt, bit: u32) -> f64 {
        rows.iter()
            .find(|r| r.stuck == stuck && r.bit == bit)
            .unwrap()
            .snr_db
    }

    #[test]
    fn msb_errors_hurt_more_than_lsb() {
        // The headline finding of §III: SNR decreases monotonically-ish as
        // the stuck bit moves toward the MSB.
        let rows = rows_of(vec![AppKind::Dwt]);
        for stuck in [StuckAt::Zero, StuckAt::One] {
            assert!(
                snr_at(&rows, stuck, 1) > snr_at(&rows, stuck, 14) + 20.0,
                "{stuck:?}: LSB {} vs MSB {}",
                snr_at(&rows, stuck, 1),
                snr_at(&rows, stuck, 14)
            );
        }
    }

    #[test]
    fn stuck_at_one_msb_is_milder_for_cs() {
        // §III: mostly-negative samples hide stuck-at-1 MSB faults.
        let rows = rows_of(vec![AppKind::CompressedSensing]);
        for bit in [13u32, 14, 15] {
            assert!(
                snr_at(&rows, StuckAt::One, bit) > snr_at(&rows, StuckAt::Zero, bit),
                "bit {bit}: sa1 {} should beat sa0 {}",
                snr_at(&rows, StuckAt::One, bit),
                snr_at(&rows, StuckAt::Zero, bit)
            );
        }
    }

    #[test]
    fn cs_tolerance_extraction_works() {
        let mk = |bit: u32, stuck: StuckAt, snr: f64| InjectionRow {
            app: AppKind::CompressedSensing,
            emt: EmtKind::None,
            stuck,
            bit,
            snr_db: snr,
        };
        let mut rows: Vec<InjectionRow> = (0..16)
            .map(|b| mk(b, StuckAt::Zero, if b <= 10 { 50.0 } else { 20.0 }))
            .chain((0..16).map(|b| mk(b, StuckAt::One, if b <= 12 { 50.0 } else { 20.0 })))
            .collect();
        // Protected rows never count toward the unprotected tolerance.
        rows.push(InjectionRow {
            emt: EmtKind::Dream,
            ..mk(3, StuckAt::Zero, 20.0)
        });
        let (sa0, sa1) = cs_tolerance(&rows, 35.0);
        assert_eq!(sa0, Some(10));
        assert_eq!(sa1, Some(12));
    }

    #[test]
    fn row_count_is_apps_by_polarity_by_bits() {
        let rows = rows_of(vec![AppKind::Dwt, AppKind::CompressedSensing]);
        assert_eq!(rows.len(), 2 * 2 * 16);
    }
}
