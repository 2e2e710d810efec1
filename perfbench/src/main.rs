//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a metric table (`# ` lines), a provenance line, and as its
//! last line one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (end-to-end metrics, or per-layer metrics with `--trace 1`).
//! Exits 1 when any delivered row differs from the oracle or the phase
//! probe disagrees with the engine, 2 on usage or set-up errors.
//!
//! `perfbench --emit-references [--seconds S]` prints the reference
//! digests of every timed campaign under the default seed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::digest::References;
use perfbench::run::{self, Metric, Options};
use perfbench::workload::{replay_specs, Workload, DEFAULT_SEED};

/// Environment overrides that would change what is measured.
const PINNED_ENV: [&str; 3] = ["DREAM_THREADS", "DREAM_BATCH", "DREAM_BATCH_BAILOUT"];

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workload: Workload::Fig4Cold,
        seed: DEFAULT_SEED,
        seconds: 8,
        trace: false,
    };
    let mut emit = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--emit-references" {
            emit = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or(format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                opts.workload =
                    Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?;
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok((opts, emit))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, emit) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; it overrides the measured settings");
        return ExitCode::from(2);
    }
    if emit {
        let mut specs: Vec<_> = Workload::ALL
            .iter()
            .filter(|w| w.is_cold())
            .flat_map(|w| {
                (0..w.rounds(opts.seconds)).flat_map(move |r| w.round_specs(DEFAULT_SEED, r))
            })
            .collect();
        specs.extend(replay_specs(DEFAULT_SEED));
        let mut refs = References::default();
        refs.ensure(&specs, 2);
        print!("{}", refs.render());
        return ExitCode::SUCCESS;
    }

    let work = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let outcome = match run::run(&opts, &work) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let failed_frac = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("# {:<28} {:>16.6} ratio", "failed_frac", failed_frac);
    println!("# meta {}", outcome.meta);
    if let Some(e) = &outcome.probe_error {
        eprintln!("perfbench: phase probe disagrees with the engine: {e}");
    }
    let correct = outcome.tally.mismatches == 0 && outcome.probe_error.is_none();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        json_metrics(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
