//! Cross-crate contract tests: the seams between substrates that no single
//! crate's unit tests can see.

use dream_suite::core::{AccessStats, EmtKind, EnergyModelBundle, ProtectedMemory};
use dream_suite::dsp::{AppKind, WordStorage};
use dream_suite::ecg::{Adc, Database, EcgSynth, NoiseModel, Pathology};
use dream_suite::fixed::Q15;
use dream_suite::mem::{AddressScrambler, BerModel, FaultMap, MemGeometry};
use dream_suite::soc::{Crossbar, MemoryPort, SocConfig};

/// The fault map shared across EMTs really is the same physical pattern:
/// the 16-bit view of the 22-bit map equals the raw lanes every codec sees.
#[test]
fn shared_fault_map_views_agree() {
    let geometry = MemGeometry::inyu_data_memory();
    let wide = FaultMap::generate(geometry.words(), 22, 2e-3, 9);
    let narrow = wide.with_width(16);
    for w in (0..geometry.words()).step_by(97) {
        assert_eq!(narrow.stuck_mask(w), wide.stuck_mask(w) & 0xFFFF);
        assert_eq!(narrow.stuck_values(w), wide.stuck_values(w) & 0xFFFF);
    }
    // The ECC view keeps the extra lanes: more cells at risk (§VI-B's
    // flip side of in-array redundancy).
    assert!(wide.fault_count() >= narrow.fault_count());
}

/// `Q15::sign_run` (the DSP-side view) and `Dream::protected_bits` (the
/// codec-side view) describe the same hardware quantity.
#[test]
fn sign_run_and_protected_bits_are_consistent() {
    use dream_suite::core::Dream;
    for raw in [-32768i16, -4097, -1, 0, 1, 255, 4096, 32767] {
        let run = Q15::from_raw(raw).sign_run();
        let protected = Dream::protected_bits(raw);
        assert_eq!(protected, (run + 1).min(16), "raw {raw}");
    }
}

/// The whole ECG chain — synthesizer, noise, ADC — produces samples the
/// memory substrate can hold and DREAM can exploit.
#[test]
fn ecg_chain_feeds_the_memory_model() {
    let mut synth = EcgSynth::new(Pathology::AtrialFibrillation, 360.0, 5);
    let wave = synth.generate_mv(720);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let noisy = NoiseModel::date16().apply(&wave, 360.0, &mut rng);
    let samples = Adc::date16().quantize_all(&noisy);
    let geometry = MemGeometry::new(720 + 16, 16, 16);
    let mut mem = ProtectedMemory::new(EmtKind::Dream, geometry);
    for (i, &s) in samples.iter().enumerate() {
        mem.write(i, s);
    }
    for (i, &s) in samples.iter().enumerate() {
        assert_eq!(mem.read(i), s);
    }
    let stats: AccessStats = mem.stats();
    assert_eq!(stats.writes as usize, samples.len());
}

/// A scrambled faulty memory still round-trips every word (the bijection
/// holds under the fault overlay plumbing).
#[test]
fn scrambler_composes_with_faulty_memory() {
    let geometry = MemGeometry::new(256, 16, 16);
    let mut sram = dream_suite::mem::FaultySram::new(geometry);
    sram.set_scrambler(AddressScrambler::new(256, 0x5CA2));
    for a in 0..256 {
        sram.write(a, a as u32 * 3);
    }
    for a in 0..256 {
        assert_eq!(sram.read(a), a as u32 * 3);
    }
}

/// Ports, traces and the crossbar agree on access counts with the
/// protected memory's own statistics.
#[test]
fn trace_lengths_match_access_stats() {
    let config = SocConfig::inyu();
    let mut mem = ProtectedMemory::new(EmtKind::EccSecDed, config.geometry);
    let record = Database::record(100, 256);
    let app = AppKind::CompressedSensing.instantiate(256);
    let trace = {
        let mut port = MemoryPort::new(&mut mem, config.geometry, 0, app.memory_words(), 1);
        let _ = app.run(&record.samples, &mut port);
        port.into_trace()
    };
    let stats = mem.stats();
    assert_eq!(trace.len() as u64, stats.accesses());
    let xbar = Crossbar::simulate(config.geometry.banks(), &[trace]);
    assert_eq!(
        xbar.bank_accesses.iter().sum::<u64>(),
        stats.accesses(),
        "every traced access must be served exactly once"
    );
}

/// Pricing is monotone across the stack: more accesses cost more energy at
/// every voltage, for every codec.
#[test]
fn energy_monotone_in_access_count() {
    let bundle = EnergyModelBundle::date16();
    for emt in EmtKind::all() {
        let codec = emt.codec();
        let small = AccessStats {
            reads: 100,
            writes: 50,
            ..Default::default()
        };
        let big = AccessStats {
            reads: 1000,
            writes: 500,
            ..Default::default()
        };
        for v in BerModel::paper_voltages() {
            let e_small = bundle.run_energy(&codec, &small, 1024, v, 1e-4);
            let e_big = bundle.run_energy(&codec, &big, 1024, v, 1e-4);
            assert!(e_big.total_pj() > e_small.total_pj(), "{emt} at {v} V");
        }
    }
}

/// `WordStorage` adapters across crates expose identical semantics: the
/// sim adapter and the soc port write the same protected memory state.
#[test]
fn storage_adapters_agree() {
    let geometry = MemGeometry::new(64, 16, 16);
    let map = FaultMap::generate(64, 22, 0.01, 4);

    let mut via_port = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry, &map);
    {
        let mut port = MemoryPort::new(&mut via_port, geometry, 0, 64, 1);
        for i in 0..64 {
            port.write(i, (i as i16) - 32);
        }
    }

    let mut via_sim = ProtectedMemory::with_fault_map(EmtKind::Dream, geometry, &map);
    {
        let mut storage = dream_suite::sim::campaign::ProtectedStorage::new(&mut via_sim);
        for i in 0..64 {
            storage.write(i, (i as i16) - 32);
        }
    }

    for i in 0..64 {
        assert_eq!(via_port.read(i), via_sim.read(i), "word {i}");
    }
}

/// Workspace-wiring smoke test: the `dream-suite` façade must keep
/// re-exporting all eight member crates, and one public item from each must
/// stay reachable through the façade path. If a re-export is dropped from
/// `src/lib.rs` (or a crate is unplugged from the workspace), this fails to
/// compile — which is the point.
#[test]
fn facade_reexports_are_complete() {
    // core — the DREAM technique itself.
    assert_eq!(dream_suite::core::extra_bits_per_word(16), 5);
    // fixed — Q15 arithmetic.
    assert_eq!(dream_suite::fixed::Q15::from_f64(0.5).to_f64(), 0.5);
    // ecg — the synthetic record suite.
    let record = dream_suite::ecg::Database::record(100, 64);
    assert_eq!(record.samples.len(), 64);
    // mem — the voltage/BER characterization.
    let ber = dream_suite::mem::BerModel::date16();
    assert!(ber.ber(0.5) > ber.ber(0.9));
    // energy — the CACTI-like SRAM macro model.
    let sram = dream_suite::energy::SramEnergyModel::date16_main();
    assert!(sram.access_energy_pj(16, 0.9) > 0.0);
    // dsp — the five applications plus the SNR metric (Formula 1).
    assert_eq!(dream_suite::dsp::AppKind::all().len(), 5);
    assert!(dream_suite::dsp::snr_db(&[1.0, -1.0], &[1.0, -1.0]).is_infinite());
    // soc — the INYU platform preset.
    let config = dream_suite::soc::SocConfig::inyu();
    assert_eq!(config.geometry.banks(), 16);
    // sim — the scenario registry and the experiment configuration types.
    let fig2 = dream_suite::sim::scenario::registry::get("fig2", false).expect("preset exists");
    assert_eq!(fig2.window, 1024);
    let energy_cfg = dream_suite::sim::energy_table::EnergyConfig::default();
    assert!(!energy_cfg.voltages.is_empty());
}
