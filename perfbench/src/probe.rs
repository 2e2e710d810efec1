//! The phase probe: recomputes sample grid points of a campaign from
//! the public functions the engine's phases are made of, timing each
//! phase, and checks the cells equal the engine's typed outcome exactly.
//!
//! Draw points (Fig. 4 family and noise sweeps) follow the batched
//! executor's path: record suite, references, one raw trace per (app,
//! record), per-EMT trace derivation, per-lane fault arming and plane
//! transposition, masked trace replay, and scalar replays of evicted or
//! bailed lanes. Injection campaigns probe one (app, EMT) batch.

use std::time::Instant;

use dream_core::{AccessStats, EmtKind, TrialBatch};
use dream_dsp::{samples_to_f64, snr_db, AppKind, BiomedicalApp};
use dream_ecg::Record;
use dream_mem::{
    AddressScrambler, BatchFaultPlanes, BerModel, FaultMap, FaultModel, MemGeometry, StuckAt,
    MAX_LANES,
};
use dream_sim::campaign::{
    banked_geometry, cap_snr, fault_seed, record_suite_with_noise, reference_outputs, CleanTrace,
    EmtMemory, RawTrace,
};
use dream_sim::exec;
use dream_sim::scenario::{Grid, Kind, OutcomeData, Scenario, ScenarioOutcome};

/// Fault-map width of the engine's multi-EMT sweeps: ECC's 22-bit
/// codeword, so one map serves every technique.
const SHARED_MAP_WIDTH: u32 = 22;

/// Host seconds and counts per phase, summed over every probed point.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// `record_suite_with_noise`.
    pub record_suite_s: f64,
    /// `reference_outputs`.
    pub reference_s: f64,
    /// `RawTrace::record` (and direct clean recordings).
    pub raw_trace_s: f64,
    /// `EmtMemory::derive_trace`.
    pub derive_trace_s: f64,
    /// `FaultModelSpec::resolve` + `FaultModel::arm`.
    pub arm_s: f64,
    /// `BatchFaultPlanes::add_lane` / `inject`.
    pub transpose_s: f64,
    /// `EmtMemory::replay_trace`.
    pub replay_s: f64,
    /// Trace events replayed.
    pub replay_events: u64,
    /// `EmtMemory::run_app` on evicted and bailed lanes.
    pub evict_replay_s: f64,
    /// Scalar replays of evicted and bailed lanes.
    pub evict_runs: u64,
    /// Grid points probed.
    pub points: usize,
    /// Cells compared with the engine's outcome.
    pub cells: usize,
}

/// One per-trial observation of an (EMT, app) cell.
#[derive(Clone, Copy)]
struct Cell {
    snr_db: f64,
    uncorrectable: f64,
    corrected: f64,
}

/// Per-(EMT, app) statistics of one draw point: mean snr, min snr,
/// mean uncorrectable rate, mean corrected rate.
type PointStats = Vec<(EmtKind, AppKind, [f64; 4])>;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Indices of the lowest, a middle and the highest grid point.
fn probe_points(len: usize) -> Vec<usize> {
    let mut pts = vec![0, len / 2, len.saturating_sub(1)];
    pts.dedup();
    pts
}

/// Probes `sc` against `outcome` (the engine's result for the same
/// spec). Specs without draw or injection points are skipped.
///
/// # Errors
///
/// Describes the first cell that differs from the engine's.
pub fn probe(sc: &Scenario, outcome: &ScenarioOutcome, t: &mut PhaseTimes) -> Result<(), String> {
    match (&sc.kind, &sc.grid, &outcome.data) {
        (Kind::SnrSweep, Grid::Voltage(vs), OutcomeData::Fig4(points)) => {
            let ber = sc.fault.to_model();
            let clock = Instant::now();
            let records =
                record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale);
            t.record_suite_s += secs(clock);
            let inputs = DrawInputs::prepare(sc, records, t);
            for vi in probe_points(vs.len()) {
                let clock = Instant::now();
                let model = sc.fault.model.resolve(&ber, vs[vi]);
                t.arm_s += secs(clock);
                let got = inputs.point(sc, sc.point_offset + vi, &model, &ber, t);
                let want: PointStats = points
                    .iter()
                    .filter(|p| p.voltage.to_bits() == vs[vi].to_bits())
                    .map(|p| {
                        (
                            p.emt,
                            p.app,
                            [
                                p.mean_snr_db,
                                p.min_snr_db,
                                p.uncorrectable_rate,
                                p.corrected_rate,
                            ],
                        )
                    })
                    .collect();
                compare(&sc.name, &format!("voltage {}", vs[vi]), &got, &want, t)?;
            }
            Ok(())
        }
        (Kind::SnrSweep, Grid::NoiseScale(scales), OutcomeData::Noise(points)) => {
            let ber = sc.fault.to_model();
            for si in probe_points(scales.len()) {
                let clock = Instant::now();
                let records =
                    record_suite_with_noise(sc.window, sc.effective_records(), scales[si]);
                t.record_suite_s += secs(clock);
                let inputs = DrawInputs::prepare(sc, records, t);
                let clock = Instant::now();
                let model = sc.fault.model.resolve(&ber, sc.fixed_voltage);
                t.arm_s += secs(clock);
                let got = inputs.point(sc, sc.point_offset + si, &model, &ber, t);
                let want: PointStats = points
                    .iter()
                    .filter(|p| p.scale.to_bits() == scales[si].to_bits())
                    .map(|p| {
                        (
                            p.emt,
                            p.app,
                            [
                                p.mean_snr_db,
                                p.min_snr_db,
                                p.uncorrectable_rate,
                                p.corrected_rate,
                            ],
                        )
                    })
                    .collect();
                compare(
                    &sc.name,
                    &format!("noise scale {}", scales[si]),
                    &got,
                    &want,
                    t,
                )?;
            }
            Ok(())
        }
        (Kind::SnrSweep, Grid::BitPosition(bits), OutcomeData::Injection(rows)) => {
            let (app, emt) = (sc.apps[0], sc.emts[0]);
            let got = injection_batch(sc, bits, app, emt, t);
            let want: Vec<f64> = rows
                .iter()
                .filter(|r| r.app == app && r.emt == emt)
                .map(|r| r.snr_db)
                .collect();
            t.points += 1;
            if got.len() != want.len() {
                return Err(format!(
                    "{}: {} injection points, engine has {}",
                    sc.name,
                    got.len(),
                    want.len()
                ));
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                t.cells += 1;
                if g.to_bits() != w.to_bits() {
                    return Err(format!(
                        "{}: {app}/{emt} injection point {i}: probe {g} vs engine {w}",
                        sc.name
                    ));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn compare(
    name: &str,
    at: &str,
    got: &PointStats,
    want: &PointStats,
    t: &mut PhaseTimes,
) -> Result<(), String> {
    t.points += 1;
    if got.len() != want.len() {
        return Err(format!(
            "{name} at {at}: {} cells, engine has {}",
            got.len(),
            want.len()
        ));
    }
    for ((ge, ga, g), (we, wa, w)) in got.iter().zip(want) {
        t.cells += 1;
        let same = ge == we && ga == wa && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "{name} at {at}: probe {ge}/{ga} {g:?} vs engine {we}/{wa} {w:?}"
            ));
        }
    }
    Ok(())
}

/// Point-invariant inputs of a draw campaign at one record suite.
struct DrawInputs {
    apps: Vec<Box<dyn BiomedicalApp>>,
    records: Vec<Record>,
    references: Vec<Vec<Vec<f64>>>,
    geometry: MemGeometry,
    /// Clean traces and their capped SNR, `[emt][app][record]`.
    traces: Vec<Vec<Vec<(CleanTrace, f64)>>>,
}

impl DrawInputs {
    fn prepare(sc: &Scenario, records: Vec<Record>, t: &mut PhaseTimes) -> DrawInputs {
        let apps: Vec<Box<dyn BiomedicalApp>> =
            sc.apps.iter().map(|&k| k.instantiate(sc.window)).collect();
        let geometry = banked_geometry(
            apps.iter()
                .map(|a| a.memory_words())
                .max()
                .expect("validated: at least one app"),
        );
        let clock = Instant::now();
        let references: Vec<Vec<Vec<f64>>> = apps
            .iter()
            .map(|app| reference_outputs(&**app, &records))
            .collect();
        t.reference_s += secs(clock);
        // Draws cycle the suite by run index, so only the first `used`
        // records are ever replayed.
        let used = records.len().min(sc.trials.max(1));
        let clock = Instant::now();
        let raws: Vec<Vec<Option<RawTrace>>> = apps
            .iter()
            .map(|app| {
                records[..used]
                    .iter()
                    .map(|r| RawTrace::record(&**app, &r.samples, geometry.words()))
                    .collect()
            })
            .collect();
        t.raw_trace_s += secs(clock);
        let empty = FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH);
        let mut traces = Vec::with_capacity(sc.emts.len());
        for &emt in &sc.emts {
            let mut mem = EmtMemory::new(emt, geometry);
            let mut per_app = Vec::with_capacity(apps.len());
            for (ai, app) in apps.iter().enumerate() {
                let mut per_record = Vec::with_capacity(used);
                for (ri, raw) in raws[ai].iter().enumerate() {
                    let clock = Instant::now();
                    let trace = match raw {
                        Some(raw) => {
                            let trace = mem.derive_trace(raw);
                            t.derive_trace_s += secs(clock);
                            trace
                        }
                        None => {
                            mem.reset_with_fault_map(&empty);
                            let trace = mem.record_trace(&**app, &records[ri].samples);
                            t.raw_trace_s += secs(clock);
                            trace
                        }
                    };
                    let snr = cap_snr(snr_db(&references[ai][ri], &samples_to_f64(trace.output())));
                    per_record.push((trace, snr));
                }
                per_app.push(per_record);
            }
            traces.push(per_app);
        }
        DrawInputs {
            apps,
            records,
            references,
            geometry,
            traces,
        }
    }

    /// The per-(EMT, app) statistics of grid point `point`.
    fn point(
        &self,
        sc: &Scenario,
        point: usize,
        model: &FaultModel,
        ber: &BerModel,
        t: &mut PhaseTimes,
    ) -> PointStats {
        let geometry = self.geometry;
        let n_records = self.records.len();
        let bailout = exec::batch_bailout();
        let mut mems: Vec<EmtMemory> = sc
            .emts
            .iter()
            .map(|&emt| EmtMemory::new(emt, geometry))
            .collect();
        let mut planes = BatchFaultPlanes::new(geometry.words(), SHARED_MAP_WIDTH);
        let mut maps: Vec<FaultMap> = (0..sc.trials.min(MAX_LANES))
            .map(|_| FaultMap::empty(geometry.words(), SHARED_MAP_WIDTH))
            .collect();
        let scrambler = |run: usize| {
            sc.scrambler_key
                .map(|base| AddressScrambler::new(geometry.words(), fault_seed(base, point, run)))
        };
        let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); sc.trials];
        let runs: Vec<usize> = (0..sc.trials).collect();
        for group in runs.chunks(MAX_LANES) {
            planes.clear();
            let mut parts: Vec<(usize, u64)> = Vec::new();
            for (lane, &run) in group.iter().enumerate() {
                let ri = run % n_records;
                match parts.iter_mut().find(|(r, _)| *r == ri) {
                    Some((_, lanes)) => *lanes |= 1 << lane,
                    None => parts.push((ri, 1 << lane)),
                }
                let clock = Instant::now();
                model.arm(
                    &mut maps[lane],
                    &geometry,
                    ber,
                    fault_seed(sc.seed, point, run),
                );
                t.arm_s += secs(clock);
                let clock = Instant::now();
                planes.add_lane(lane, &maps[lane], scrambler(run).as_ref());
                t.transpose_s += secs(clock);
            }
            for (ei, mem) in mems.iter_mut().enumerate() {
                for (ai, app) in self.apps.iter().enumerate() {
                    let mut batch = TrialBatch::with_bailout(group.len(), bailout);
                    let clock = Instant::now();
                    for &(ri, lanes) in &parts {
                        let trace = &self.traces[ei][ai][ri].0;
                        mem.replay_trace(trace, &planes, &mut batch, lanes);
                        t.replay_events += trace.events() as u64;
                    }
                    t.replay_s += secs(clock);
                    for (lane, &run) in group.iter().enumerate() {
                        let ri = run % n_records;
                        let (snr, stats) = if batch.is_alive(lane) {
                            let (trace, snr) = &self.traces[ei][ai][ri];
                            (*snr, batch.lane_stats(lane, &trace.stats()))
                        } else {
                            let clock = Instant::now();
                            mem.reset_with_fault_map(&maps[lane]);
                            if let Some(s) = scrambler(run) {
                                mem.set_scrambler(s);
                            }
                            let out = mem.run_app(&**app, &self.records[ri].samples);
                            t.evict_replay_s += secs(clock);
                            t.evict_runs += 1;
                            let snr =
                                cap_snr(snr_db(&self.references[ai][ri], &samples_to_f64(&out)));
                            (snr, mem.stats())
                        };
                        cells[run].push(cell(snr, stats));
                    }
                }
            }
        }
        aggregate(sc, &cells)
    }
}

fn cell(snr_db: f64, stats: AccessStats) -> Cell {
    let (uncorrectable, corrected) = if stats.reads > 0 {
        (
            stats.uncorrectable_reads as f64 / stats.reads as f64,
            stats.corrected_reads as f64 / stats.reads as f64,
        )
    } else {
        (0.0, 0.0)
    };
    Cell {
        snr_db,
        uncorrectable,
        corrected,
    }
}

/// Reduces per-run cells to per-(EMT, app) statistics in run order (the
/// engine's reduction sequence, so sums round identically).
fn aggregate(sc: &Scenario, cells: &[Vec<Cell>]) -> PointStats {
    let mut out = Vec::new();
    for (ei, &emt) in sc.emts.iter().enumerate() {
        for (ai, &app) in sc.apps.iter().enumerate() {
            let idx = ei * sc.apps.len() + ai;
            let (mut sum, mut min, mut unc, mut cor) = (0.0, f64::INFINITY, 0.0, 0.0);
            for run in cells.iter().take(sc.trials) {
                let c = run[idx];
                sum += c.snr_db;
                min = f64::min(min, c.snr_db);
                unc += c.uncorrectable;
                cor += c.corrected;
            }
            let n = sc.trials as f64;
            out.push((emt, app, [sum / n, min, unc / n, cor / n]));
        }
    }
    out
}

/// Per-(stuck, bit) mean SNR of the (app, EMT) batch of an injection
/// campaign, in the engine's row order.
fn injection_batch(
    sc: &Scenario,
    bits: &[u32],
    app_kind: AppKind,
    emt: EmtKind,
    t: &mut PhaseTimes,
) -> Vec<f64> {
    let clock = Instant::now();
    let records = record_suite_with_noise(sc.window, sc.effective_records(), sc.noise_scale);
    t.record_suite_s += secs(clock);
    let app = app_kind.instantiate(sc.window);
    let clock = Instant::now();
    let references = reference_outputs(&*app, &records);
    t.reference_s += secs(clock);
    let width = if emt == EmtKind::None {
        16
    } else {
        SHARED_MAP_WIDTH
    };
    let words = app.memory_words();
    let geometry = banked_geometry(words);
    let mut mem = EmtMemory::new(emt, geometry);
    let mut map = FaultMap::empty(geometry.words(), width);
    let clock = Instant::now();
    let passes: Vec<(CleanTrace, f64)> = records
        .iter()
        .enumerate()
        .map(|(ri, record)| {
            mem.reset_with_fault_map(&map);
            let trace = mem.record_trace(&*app, &record.samples);
            let snr = cap_snr(snr_db(&references[ri], &samples_to_f64(trace.output())));
            (trace, snr)
        })
        .collect();
    t.raw_trace_s += secs(clock);

    // (stuck, bit, record, trial) in the engine's flattening order.
    let mut trials = Vec::new();
    for stuck in [StuckAt::Zero, StuckAt::One] {
        for &bit in bits {
            for record in 0..records.len() {
                for trial in 0..sc.trials {
                    trials.push((stuck, bit, record, trial));
                }
            }
        }
    }
    let location =
        |record: usize, trial: usize| (fault_seed(sc.seed, record, trial) % words as u64) as usize;
    let bailout = exec::batch_bailout();
    let mut planes = BatchFaultPlanes::new(geometry.words(), width);
    let mut snrs = vec![0.0f64; trials.len()];
    for (ri, (trace, clean_snr)) in passes.iter().enumerate() {
        let lanes: Vec<usize> = (0..trials.len()).filter(|&i| trials[i].2 == ri).collect();
        for group in lanes.chunks(MAX_LANES) {
            planes.clear();
            let clock = Instant::now();
            for (lane, &i) in group.iter().enumerate() {
                let (stuck, bit, record, trial) = trials[i];
                planes.inject(lane, location(record, trial), bit, stuck);
            }
            t.transpose_s += secs(clock);
            let mut batch = TrialBatch::with_bailout(group.len(), bailout);
            let clock = Instant::now();
            mem.replay_trace(trace, &planes, &mut batch, u64::MAX);
            t.replay_s += secs(clock);
            t.replay_events += trace.events() as u64;
            for (lane, &i) in group.iter().enumerate() {
                snrs[i] = if batch.is_alive(lane) {
                    *clean_snr
                } else {
                    let (stuck, bit, record, trial) = trials[i];
                    let clock = Instant::now();
                    map.clear();
                    map.inject(location(record, trial), bit, stuck);
                    mem.reset_with_fault_map(&map);
                    let out = mem.run_app(&*app, &records[record].samples);
                    t.evict_replay_s += secs(clock);
                    t.evict_runs += 1;
                    cap_snr(snr_db(&references[record], &samples_to_f64(&out)))
                };
            }
        }
    }
    let per_point = records.len() * sc.trials;
    snrs.chunks(per_point)
        .map(|point| point.iter().sum::<f64>() / per_point as f64)
        .collect()
}
