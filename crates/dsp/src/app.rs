//! The application abstraction the experiment harness drives.

use std::fmt;

use crate::{
    CompressedSensing, Dwt, HeartbeatClassifier, MatrixFilter, MorphologicalFilter,
    WaveletDelineation, WordStorage,
};

/// A biomedical application whose data buffers live in an external word
/// memory.
///
/// Implementations must route **every** access to input, intermediate and
/// output buffers through the supplied [`WordStorage`]; register-resident
/// scalars (accumulators, loop state) stay outside. This split is the
/// paper's fault model: permanent errors live in the voltage-scaled data
/// memory, not in the core.
///
/// [`BiomedicalApp::run_reference`] computes the same transformation in
/// double precision — the `x_theo` of the paper's Formula 1.
///
/// Applications are `Send + Sync`: [`BiomedicalApp::run`] takes `&self`
/// (all mutable state lives in the supplied storage), so one instance can
/// serve concurrent campaign workers and worker arenas can hold their own
/// boxed copies.
pub trait BiomedicalApp: Send + Sync {
    /// Display name (matches the paper's figure legends).
    fn name(&self) -> &'static str;

    /// The selector this app instantiates.
    fn kind(&self) -> AppKind;

    /// Number of input samples consumed per run.
    fn input_len(&self) -> usize;

    /// Number of output words produced per run.
    fn output_len(&self) -> usize;

    /// Total data-memory footprint (words) of all buffers.
    fn memory_words(&self) -> usize;

    /// Executes the application with all buffers in `mem`, returning the
    /// output read back *through* `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len()` or `mem` is smaller than
    /// [`BiomedicalApp::memory_words`].
    fn run(&self, input: &[i16], mem: &mut dyn WordStorage) -> Vec<i16>;

    /// Double-precision golden reference (`x_theo` of Formula 1).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len()`.
    fn run_reference(&self, input: &[i16]) -> Vec<f64>;
}

/// Selector for the five applications of §II (plus the §III heartbeat
/// classifier built on top of them).
///
/// [`AppKind::instantiate`] builds each app with the standard parameters
/// used across the reproduction's experiments for a given window size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Discrete wavelet transform (§II-1).
    Dwt,
    /// Matrix filtering (§II-2).
    MatrixFilter,
    /// Compressed sensing (§II-3).
    CompressedSensing,
    /// Morphological filtering (§II-4).
    MorphologicalFilter,
    /// Wavelet delineation (§II-5).
    WaveletDelineation,
    /// Heartbeat classifier (§III; delineation + rule-based classes).
    HeartbeatClassifier,
}

impl AppKind {
    /// The five §II applications, in the paper's presentation order — the
    /// set every paper experiment sweeps.
    pub fn all() -> [AppKind; 5] {
        [
            AppKind::Dwt,
            AppKind::MatrixFilter,
            AppKind::CompressedSensing,
            AppKind::MorphologicalFilter,
            AppKind::WaveletDelineation,
        ]
    }

    /// The paper set plus the heartbeat classifier extension.
    pub fn extended() -> [AppKind; 6] {
        [
            AppKind::Dwt,
            AppKind::MatrixFilter,
            AppKind::CompressedSensing,
            AppKind::MorphologicalFilter,
            AppKind::WaveletDelineation,
            AppKind::HeartbeatClassifier,
        ]
    }

    /// Checks that an `n`-sample window (at the record suite's 360 Hz)
    /// suits this app's structure: the DWT's 4-scale tap spread, the
    /// matrix filter's 32-sample columns, compressed sensing's 50 %
    /// measurement split, the morphological filter's 0.3 s closing
    /// element (twice over), and the one second of signal wavelet
    /// delineation — and the classifier built on it — searches for beats.
    ///
    /// # Errors
    ///
    /// Describes the window the app needs.
    pub fn check_window(self, n: usize) -> Result<(), String> {
        let (fits, needs) = match self {
            AppKind::Dwt => (n > 16, "more than 16 samples"),
            AppKind::MatrixFilter => (n >= 32 && n % 32 == 0, "a multiple of 32 samples"),
            AppKind::CompressedSensing => (n >= 2 && n % 2 == 0, "an even number of samples"),
            AppKind::MorphologicalFilter => (n > 218, "more than 218 samples"),
            AppKind::WaveletDelineation | AppKind::HeartbeatClassifier => {
                (n >= 360, "at least 360 samples")
            }
        };
        match fits {
            true => Ok(()),
            false => Err(format!("{self} needs a window of {needs}, got {n}")),
        }
    }

    /// Builds the application with its standard configuration for an
    /// `n`-sample input window (sampled at the record suite's 360 Hz).
    ///
    /// # Panics
    ///
    /// Panics if `n` fails [`AppKind::check_window`].
    pub fn instantiate(self, n: usize) -> Box<dyn BiomedicalApp> {
        if let Err(e) = self.check_window(n) {
            panic!("{e}");
        }
        match self {
            AppKind::Dwt => Box::new(Dwt::new(n, 4)),
            AppKind::MatrixFilter => Box::new(MatrixFilter::new(32, n / 32, 2)),
            AppKind::CompressedSensing => Box::new(CompressedSensing::new(n, 4, 0xC5C5)),
            AppKind::MorphologicalFilter => Box::new(MorphologicalFilter::new(n, 360.0)),
            AppKind::WaveletDelineation => Box::new(WaveletDelineation::new(n, 360.0)),
            AppKind::HeartbeatClassifier => Box::new(HeartbeatClassifier::new(n, 360.0)),
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppKind::Dwt => "DWT",
            AppKind::MatrixFilter => "Matrix Filtering",
            AppKind::CompressedSensing => "Compressed Sensing",
            AppKind::MorphologicalFilter => "Morphological Filtering",
            AppKind::WaveletDelineation => "Wavelet Delineation",
            AppKind::HeartbeatClassifier => "Heartbeat Classifier",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples_to_f64, snr_db, VecStorage};
    use dream_ecg::Database;

    #[test]
    fn all_apps_instantiate_and_run_on_ecg() {
        let record = Database::record(100, 512);
        for kind in AppKind::all() {
            let app = kind.instantiate(512);
            assert_eq!(app.kind(), kind);
            assert_eq!(app.input_len(), 512);
            let mut mem = VecStorage::new(app.memory_words());
            let out = app.run(&record.samples, &mut mem);
            assert_eq!(out.len(), app.output_len(), "{kind}");
        }
    }

    #[test]
    fn fault_free_runs_sit_near_the_reference() {
        // The dashed "maximum SNR" ceiling of Fig. 4 for every app.
        let record = Database::record(103, 512);
        for kind in AppKind::all() {
            let app = kind.instantiate(512);
            let mut mem = VecStorage::new(app.memory_words());
            let out = app.run(&record.samples, &mut mem);
            let snr = snr_db(&app.run_reference(&record.samples), &samples_to_f64(&out));
            assert!(snr > 40.0, "{kind}: fault-free SNR only {snr:.1} dB");
        }
    }

    #[test]
    fn footprints_fit_the_inyu_memory() {
        // All five apps must fit the 16 K-word (32 kB) shared memory at the
        // standard window size used by the campaigns.
        for kind in AppKind::all() {
            let app = kind.instantiate(1024);
            assert!(
                app.memory_words() <= 16 * 1024,
                "{kind} needs {} words",
                app.memory_words()
            );
        }
    }

    #[test]
    fn window_preconditions_are_tight_and_every_accepted_window_runs() {
        // One sample below each minimum is refused; the minimum itself and
        // the next admissible sizes build and run.
        for (kind, min, step) in [
            (AppKind::Dwt, 17, 1),
            (AppKind::MatrixFilter, 32, 32),
            (AppKind::CompressedSensing, 2, 2),
            (AppKind::MorphologicalFilter, 219, 1),
            (AppKind::WaveletDelineation, 360, 1),
            (AppKind::HeartbeatClassifier, 360, 1),
        ] {
            assert!(kind.check_window(min - 1).is_err(), "{kind} at {}", min - 1);
            for n in [min, min + step, 2 * min.max(256), 1024] {
                kind.check_window(n)
                    .unwrap_or_else(|e| panic!("{kind} at {n}: {e}"));
                let app = kind.instantiate(n);
                let record = Database::record(100, n);
                let mut mem = VecStorage::new(app.memory_words());
                assert_eq!(app.run(&record.samples, &mut mem).len(), app.output_len());
            }
        }
        assert!(AppKind::MatrixFilter.check_window(300).is_err());
        let e = AppKind::WaveletDelineation.check_window(320).unwrap_err();
        assert!(e.contains("360") && e.contains("320"), "{e}");
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(AppKind::Dwt.to_string(), "DWT");
        assert_eq!(AppKind::CompressedSensing.to_string(), "Compressed Sensing");
    }
}
