//! The declarative scenario spec: one serializable description of a full
//! campaign — sweep axes, fault-model knobs, and sink options — that the
//! engine compiles into flattened trial descriptors.

use dream_core::EmtKind;
use dream_dsp::AppKind;
use dream_mem::{BerModel, FaultModel, StuckAt};

use super::json::Json;

/// Largest `window` (samples per record) a spec may request: 64× the
/// 1 024 every shipped preset uses. Allocation failure aborts the process
/// instead of panicking, so [`Scenario::validate`] refuses oversized
/// specs before any buffer is sized from them.
pub(crate) const MAX_WINDOW: usize = 1 << 16;

/// Largest memory size (16-bit words) a words grid may request: 64× the
/// 65 536 of the largest shipped geometry sweep.
pub(crate) const MAX_MEMORY_WORDS: usize = 1 << 22;

/// Largest flattened trial count ([`Scenario::trial_count`]) a spec may
/// request: at least 64× the largest shipped preset at full scale (fig2's
/// 15 360 injections).
pub(crate) const MAX_TRIAL_COUNT: usize = 1 << 20;

/// What a scenario measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Output-SNR Monte-Carlo sweep (Fig. 2, Fig. 4, noise sweeps).
    SnrSweep,
    /// Energy pricing of fault-free characterization runs (§VI-B,
    /// geometry sweeps).
    EnergySweep,
    /// SNR sweep + energy table + the §VI-C minimum-voltage policy.
    Tradeoff,
    /// The fixed four-study ablation bundle (protected bits, scrambler,
    /// BER slope, mask supply).
    Ablation,
}

impl Kind {
    /// The spec-file token.
    pub fn token(self) -> &'static str {
        match self {
            Kind::SnrSweep => "snr-sweep",
            Kind::EnergySweep => "energy-sweep",
            Kind::Tradeoff => "tradeoff",
            Kind::Ablation => "ablation",
        }
    }

    /// Parses a spec-file token.
    pub fn from_token(token: &str) -> Option<Kind> {
        Some(match token {
            "snr-sweep" => Kind::SnrSweep,
            "energy-sweep" => Kind::EnergySweep,
            "tradeoff" => Kind::Tradeoff,
            "ablation" => Kind::Ablation,
            _ => return None,
        })
    }
}

/// The swept axis of a scenario grid.
#[derive(Clone, Debug, PartialEq)]
pub enum Grid {
    /// Memory supply voltages (V), the Fig. 4 x-axis.
    Voltage(Vec<f64>),
    /// Stuck-at bit positions (both polarities), the Fig. 2 x-axis.
    BitPosition(Vec<u32>),
    /// Input-noise amplitude multipliers (1.0 = the standard suite),
    /// evaluated at [`Scenario::fixed_voltage`].
    NoiseScale(Vec<f64>),
    /// Data-memory sizes in words (16 banks), priced at
    /// [`Scenario::fixed_voltage`].
    MemoryWords(Vec<usize>),
}

impl Grid {
    /// The spec-file token of this axis.
    pub fn axis_token(&self) -> &'static str {
        match self {
            Grid::Voltage(_) => "voltage",
            Grid::BitPosition(_) => "bit",
            Grid::NoiseScale(_) => "noise",
            Grid::MemoryWords(_) => "words",
        }
    }

    /// Number of grid points (bit-position grids count both polarities).
    pub fn len(&self) -> usize {
        match self {
            Grid::Voltage(v) => v.len(),
            Grid::BitPosition(b) => 2 * b.len(),
            Grid::NoiseScale(n) => n.len(),
            Grid::MemoryWords(w) => w.len(),
        }
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The spatial fault distribution of a scenario, in voltage-parametric
/// spec form: the grid supplies the operating voltage per point, and
/// [`FaultModelSpec::resolve`] maps it (through the scenario's
/// [`BerModel`] calibration) to a concrete [`dream_mem::FaultModel`].
#[derive(Clone, Debug, PartialEq, Default)]
pub enum FaultModelSpec {
    /// Independent per-cell failures at the voltage-derived BER — the
    /// paper's §V model, bit-identical to the historical
    /// `FaultMap::regenerate` path.
    #[default]
    Iid,
    /// Geometric run-length clusters along physical word order.
    Burst {
        /// Mean burst length in cells (`>= 1`).
        mean_run_len: f64,
    },
    /// Weak columns: one bit lane per bank carries `column_weight` of the
    /// fault budget, shared across every word the bank serves.
    ColumnCorrelated {
        /// Fraction of the fault budget on the weak columns (`[0, 1]`).
        column_weight: f64,
    },
    /// Per-bank voltage domains: bank `b` drifts `bank_offsets[b % len]`
    /// volts from the grid voltage, and its BER follows the calibration.
    PerBankVoltage {
        /// Per-bank voltage offsets (V), cycled over the bank index.
        bank_offsets: Vec<f64>,
    },
}

impl FaultModelSpec {
    /// The spec-file / CLI token of this model kind.
    pub fn kind_token(&self) -> &'static str {
        match self {
            FaultModelSpec::Iid => "iid",
            FaultModelSpec::Burst { .. } => "burst",
            FaultModelSpec::ColumnCorrelated { .. } => "column",
            FaultModelSpec::PerBankVoltage { .. } => "bank-voltage",
        }
    }

    /// A symmetric per-bank voltage ramp of the given amplitude (V): the
    /// four-step cycle `[-a, -a/3, +a/3, +a]`, tiling any bank count.
    /// The registry's `bank-voltage` preset and the CLI's
    /// `--fault-model bank-voltage[:amplitude]` both use this shape.
    pub fn bank_ramp(amplitude: f64) -> Vec<f64> {
        vec![-amplitude, -amplitude / 3.0, amplitude / 3.0, amplitude]
    }

    /// Resolves this spec at one grid point: `voltage` is the operating
    /// voltage of the point, `ber_model` the scenario's calibration.
    pub fn resolve(&self, ber_model: &BerModel, voltage: f64) -> FaultModel {
        match self {
            FaultModelSpec::Iid => FaultModel::Iid {
                ber: ber_model.ber(voltage),
            },
            FaultModelSpec::Burst { mean_run_len } => FaultModel::Burst {
                ber: ber_model.ber(voltage),
                mean_run_len: *mean_run_len,
            },
            FaultModelSpec::ColumnCorrelated { column_weight } => FaultModel::ColumnCorrelated {
                ber: ber_model.ber(voltage),
                column_weight: *column_weight,
            },
            FaultModelSpec::PerBankVoltage { bank_offsets } => FaultModel::PerBankVoltage {
                nominal_v: voltage,
                bank_offsets: bank_offsets.clone(),
            },
        }
    }

    /// Parameter validation (delegates to the resolved model's checks at
    /// a representative voltage).
    fn validate(&self) -> Result<(), SpecError> {
        self.resolve(&BerModel::date16(), BerModel::NOMINAL_VOLTAGE)
            .validate()
            .map_err(|e| SpecError::value("fault.model", e))
    }

    fn to_json_value(&self) -> Json {
        let mut fields = vec![("kind".into(), Json::Str(self.kind_token().into()))];
        match self {
            FaultModelSpec::Iid => {}
            FaultModelSpec::Burst { mean_run_len } => {
                fields.push(("mean_run_len".into(), Json::Num(*mean_run_len)));
            }
            FaultModelSpec::ColumnCorrelated { column_weight } => {
                fields.push(("column_weight".into(), Json::Num(*column_weight)));
            }
            FaultModelSpec::PerBankVoltage { bank_offsets } => {
                fields.push((
                    "bank_offsets".into(),
                    Json::Arr(bank_offsets.iter().map(|&o| Json::Num(o)).collect()),
                ));
            }
        }
        Json::Obj(fields)
    }

    fn from_json(value: &Json) -> Result<FaultModelSpec, SpecError> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::field("fault.model.kind", "a string model kind"))?;
        let num = |key: &str| {
            value.get(key).and_then(Json::as_f64).ok_or_else(|| {
                SpecError::field(
                    format!("fault.model.{key}"),
                    format!("a number (required by model {kind:?})"),
                )
            })
        };
        Ok(match kind {
            "iid" => FaultModelSpec::Iid,
            "burst" => FaultModelSpec::Burst {
                mean_run_len: num("mean_run_len")?,
            },
            "column" => FaultModelSpec::ColumnCorrelated {
                column_weight: num("column_weight")?,
            },
            "bank-voltage" => FaultModelSpec::PerBankVoltage {
                bank_offsets: value
                    .get("bank_offsets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| {
                        SpecError::field("fault.model.bank_offsets", "an array of numbers")
                    })?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            SpecError::value("fault.model.bank_offsets", "entries must be numbers")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
            other => {
                return Err(SpecError::value(
                    "fault.model.kind",
                    format!("unknown fault model kind {other:?}"),
                ))
            }
        })
    }
}

/// The fault layer of a scenario: the BER-vs-voltage calibration
/// ([`BerModel`] in spec form) plus the spatial [`FaultModelSpec`] that
/// decides *where* the voltage-derived fault budget lands.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Nominal supply voltage (V).
    pub nominal_v: f64,
    /// `log10` BER at nominal.
    pub log10_ber_at_nominal: f64,
    /// Decades of BER per volt of down-scaling.
    pub log10_slope_per_volt: f64,
    /// Spatial fault distribution (defaults to [`FaultModelSpec::Iid`],
    /// the paper's model).
    pub model: FaultModelSpec,
}

impl FaultSpec {
    /// The calibration every paper experiment uses.
    pub fn date16() -> Self {
        Self::from_model(&BerModel::date16())
    }

    /// Captures an existing calibration (with the default i.i.d. model).
    pub fn from_model(model: &BerModel) -> Self {
        FaultSpec {
            nominal_v: model.nominal_v(),
            log10_ber_at_nominal: model.log10_ber_at_nominal(),
            log10_slope_per_volt: model.log10_slope_per_volt(),
            model: FaultModelSpec::Iid,
        }
    }

    /// Instantiates the calibration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid calibration (see [`BerModel::new`]).
    pub fn to_model(&self) -> BerModel {
        BerModel::new(
            self.nominal_v,
            self.log10_ber_at_nominal,
            self.log10_slope_per_volt,
        )
    }
}

/// Output format of a sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SinkFormat {
    /// Aligned ASCII table.
    #[default]
    Table,
    /// RFC-4180 CSV.
    Csv,
    /// JSON Lines.
    Jsonl,
}

impl SinkFormat {
    /// The spec-file / CLI token.
    pub fn token(self) -> &'static str {
        match self {
            SinkFormat::Table => "table",
            SinkFormat::Csv => "csv",
            SinkFormat::Jsonl => "jsonl",
        }
    }

    /// Parses a spec-file / CLI token.
    pub fn from_token(token: &str) -> Option<SinkFormat> {
        Some(match token {
            "table" => SinkFormat::Table,
            "csv" => SinkFormat::Csv,
            "jsonl" => SinkFormat::Jsonl,
            _ => return None,
        })
    }

    /// File extension for `--out` artifacts.
    pub fn extension(self) -> &'static str {
        match self {
            SinkFormat::Table => "txt",
            SinkFormat::Csv => "csv",
            SinkFormat::Jsonl => "jsonl",
        }
    }
}

/// Default sink options baked into a spec (the CLI can override all).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SinkSpec {
    /// Row format.
    pub format: SinkFormat,
    /// Output directory (`None` = stdout).
    pub out: Option<String>,
    /// Append to the output artifact instead of truncating it —
    /// resumable long campaigns. Requires the header-free
    /// [`SinkFormat::Jsonl`] format and an `out` directory.
    pub append: bool,
}

impl SinkSpec {
    /// Parses the consolidated sink grammar shared by the CLI's `--sink`
    /// flag and the campaign service's sink negotiation:
    ///
    /// ```text
    /// table | csv:DIR | jsonl:DIR | jsonl:DIR,append
    /// ```
    ///
    /// i.e. `FORMAT[:DIR][,append]`, where `,append` demands the
    /// header-free `jsonl` format and a directory.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] at path `"sink"` for an unknown format
    /// token, an empty directory, or an inconsistent `,append`.
    pub fn parse(token: &str) -> Result<SinkSpec, SpecError> {
        let (head, append) = match token.strip_suffix(",append") {
            Some(head) => (head, true),
            None => (token, false),
        };
        let (format_token, out) = match head.split_once(':') {
            Some((_, "")) => {
                return Err(SpecError::value(
                    "sink",
                    format!("empty output directory in {token:?}"),
                ))
            }
            Some((fmt, dir)) => (fmt, Some(dir.to_string())),
            None => (head, None),
        };
        let format = SinkFormat::from_token(format_token).ok_or_else(|| {
            SpecError::value(
                "sink",
                format!("unknown sink format {format_token:?} (table|csv|jsonl)"),
            )
        })?;
        if append && (format != SinkFormat::Jsonl || out.is_none()) {
            return Err(SpecError::value(
                "sink",
                format!("\",append\" requires \"jsonl:DIR\", got {token:?}"),
            ));
        }
        Ok(SinkSpec {
            format,
            out,
            append,
        })
    }

    /// The inverse of [`SinkSpec::parse`] — round-trips exactly.
    pub fn token(&self) -> String {
        let mut s = self.format.token().to_string();
        if let Some(out) = &self.out {
            s.push(':');
            s.push_str(out);
        }
        if self.append {
            s.push_str(",append");
        }
        s
    }
}

/// A declarative campaign: every sweep of the paper — and every new
/// workload — is one of these.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry name / artifact stem (`fig4`, `noise-sweep`, …).
    pub name: String,
    /// One-line description for `dream list`.
    pub title: String,
    /// What the campaign measures.
    pub kind: Kind,
    /// Input window length in samples.
    pub window: usize,
    /// Records of the evaluation suite to average over (capped at the
    /// suite size).
    pub records: usize,
    /// Monte-Carlo runs per grid point (fault-map draws, or fault
    /// locations per record for bit-position grids).
    pub trials: usize,
    /// Applications under test.
    pub apps: Vec<AppKind>,
    /// Protection techniques under test.
    pub emts: Vec<EmtKind>,
    /// The swept axis.
    pub grid: Grid,
    /// BER-vs-voltage calibration.
    pub fault: FaultSpec,
    /// Operating voltage for grids that don't sweep voltage (noise,
    /// memory-words).
    pub fixed_voltage: f64,
    /// Input-noise multiplier applied to the record suite (1.0 = the
    /// standard date16 noise; [`Grid::NoiseScale`] sweeps override this
    /// per point).
    pub noise_scale: f64,
    /// When set, re-scrambles logical→physical address mapping per run
    /// with keys derived from this base (the §V "small logic to randomize
    /// the mapping").
    pub scrambler_key: Option<u64>,
    /// Output-degradation tolerance (dB) for the §VI-C policy extraction
    /// ([`Kind::Tradeoff`] only).
    pub tolerance_db: Option<f64>,
    /// BER-slope grid of the ablation bundle's sensitivity study
    /// ([`Kind::Ablation`] only).
    pub ber_slopes: Vec<f64>,
    /// Base seed all per-trial fault seeds derive from.
    pub seed: u64,
    /// Default sink options.
    pub sink: SinkSpec,
    /// Global index of this spec's first grid point within the parent
    /// campaign it was sharded from (0 for unsharded specs). Grid-range
    /// shards of draw families carry their parent-relative offset here so
    /// per-point seeds — `fault_seed(seed, point, run)` — match what the
    /// serial run would have drawn at the same absolute point.
    pub point_offset: usize,
}

/// A spec-level failure: the document (or CLI flag) describing a campaign
/// is wrong, as opposed to the campaign itself failing.
///
/// Every variant is user error — the campaign service maps any
/// `SpecError` to an HTTP 400, never a 500 — and carries enough context
/// (the dotted field path where one exists) to point at the offending
/// part of the document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The document is not syntactically valid JSON.
    Parse {
        /// The underlying parser message (position included).
        message: String,
    },
    /// A required field is missing or has the wrong JSON type.
    Field {
        /// Dotted path of the field (`"fault.model.kind"`).
        path: String,
        /// What the field must hold.
        expected: String,
    },
    /// A field is present and well-typed but holds a rejected value
    /// (unknown token, out-of-range number).
    Value {
        /// Dotted path of the field.
        path: String,
        /// Why the value is rejected.
        message: String,
    },
    /// A registry lookup — CLI target, service preset, or `extends`
    /// clause — named no preset.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
    },
    /// A cross-field consistency rule failed (see [`Scenario::validate`]).
    Constraint {
        /// The violated rule.
        message: String,
    },
}

impl SpecError {
    /// A missing/mistyped-field error at `path`.
    pub fn field(path: impl Into<String>, expected: impl Into<String>) -> SpecError {
        SpecError::Field {
            path: path.into(),
            expected: expected.into(),
        }
    }

    /// A rejected-value error at `path`.
    pub fn value(path: impl Into<String>, message: impl Into<String>) -> SpecError {
        SpecError::Value {
            path: path.into(),
            message: message.into(),
        }
    }

    /// A cross-field constraint violation.
    pub fn constraint(message: impl Into<String>) -> SpecError {
        SpecError::Constraint {
            message: message.into(),
        }
    }

    /// The dotted field path this error points at, when it has one.
    pub fn path(&self) -> Option<&str> {
        match self {
            SpecError::Field { path, .. } | SpecError::Value { path, .. } => Some(path),
            _ => None,
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse { message } => write!(f, "invalid scenario: {message}"),
            SpecError::Field { path, expected } => {
                write!(f, "invalid scenario: field \"{path}\" needs {expected}")
            }
            SpecError::Value { path, message } => {
                write!(f, "invalid scenario: field \"{path}\": {message}")
            }
            SpecError::UnknownScenario { name } => {
                write!(f, "unknown scenario {name:?} (see `dream list`)")
            }
            SpecError::Constraint { message } => write!(f, "invalid scenario: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One flattened trial descriptor — the unit of work the engine hands to
/// [`crate::exec::run_trials`]. Compiling a spec to this list is pure, so
/// round-tripping a scenario through JSON must reproduce it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatTrial {
    /// One single-cell stuck-at injection run (bit-position grids).
    Injection {
        /// Index into [`Scenario::apps`].
        app: usize,
        /// Index into [`Scenario::emts`].
        emt: usize,
        /// Fault polarity.
        stuck: StuckAt,
        /// Stuck bit position.
        bit: u32,
        /// Index into the record suite.
        record: usize,
        /// Fault-location trial within the record.
        trial: usize,
    },
    /// One Monte-Carlo fault-map draw, shared across every EMT and app
    /// (voltage and noise grids; also the dominant ablation campaign).
    Draw {
        /// Grid-point index.
        point: usize,
        /// Run within the point.
        run: usize,
    },
    /// One fault-free characterization run to be priced by the energy
    /// model (energy and memory-words grids).
    Price {
        /// Grid-point index (0 for voltage grids, which share one
        /// characterization per EMT).
        point: usize,
        /// Index into [`Scenario::emts`].
        emt: usize,
    },
}

impl Scenario {
    /// Checks the spec for internal consistency; every entry point of the
    /// engine calls this first.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first problem found.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |m: String| Err(SpecError::constraint(m));
        if self.name.is_empty() {
            return err("name must not be empty".into());
        }
        if self.window < 256 {
            return err(format!(
                "window {} is below the app minimum of 256",
                self.window
            ));
        }
        if self.window > MAX_WINDOW {
            return Err(SpecError::value(
                "window",
                format!("window {} exceeds the maximum of {MAX_WINDOW}", self.window),
            ));
        }
        if self.records == 0 || self.trials == 0 {
            return err("records and trials must be at least 1".into());
        }
        if self.apps.is_empty() {
            return err("at least one app is required".into());
        }
        if self.emts.is_empty() {
            return err("at least one EMT is required".into());
        }
        if self.grid.is_empty() {
            return err("the grid must have at least one point".into());
        }
        if !(self.noise_scale.is_finite() && self.noise_scale >= 0.0) {
            return err(format!(
                "noise_scale {} must be non-negative",
                self.noise_scale
            ));
        }
        self.fault.model.validate()?;
        if self.fault.model != FaultModelSpec::Iid {
            // Only the Monte-Carlo draw families actually sample a fault
            // distribution; rejecting the rest keeps a non-default model
            // from silently doing nothing.
            let draws = matches!(
                (&self.kind, &self.grid),
                (Kind::SnrSweep | Kind::Tradeoff, Grid::Voltage(_))
                    | (Kind::SnrSweep, Grid::NoiseScale(_))
            );
            if !draws {
                return err(format!(
                    "fault model {:?} only applies to Monte-Carlo draw campaigns \
                     (snr-sweep/tradeoff over voltage, snr-sweep over noise); {} over {} \
                     does not draw fault maps",
                    self.fault.model.kind_token(),
                    self.kind.token(),
                    self.grid.axis_token()
                ));
            }
        }
        if self.sink.append {
            if self.sink.format != SinkFormat::Jsonl {
                return err(format!(
                    "append sinks require the header-free jsonl format, got {}",
                    self.sink.format.token()
                ));
            }
            if self.sink.out.is_none() {
                return err("append sinks require an output directory (\"out\")".into());
            }
        }
        match &self.grid {
            Grid::Voltage(vs) => {
                if vs.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
                    return err("voltages must be positive and finite".into());
                }
            }
            Grid::BitPosition(bits) => {
                // Unprotected sweeps inject into the 16-bit data word;
                // protected ones into the shared 22-bit codeword space.
                // The engine sizes its fault maps accordingly, so the
                // admissible bit range depends on the technique set.
                let width = if self.emts.contains(&EmtKind::None) {
                    16
                } else {
                    22
                };
                if let Some(&bad) = bits.iter().find(|&&b| b >= width) {
                    return err(format!(
                        "bit position {bad} is outside the {width}-bit injection space of this technique set"
                    ));
                }
            }
            Grid::NoiseScale(scales) => {
                if scales.iter().any(|s| !(s.is_finite() && *s >= 0.0)) {
                    return err("noise scales must be non-negative and finite".into());
                }
            }
            Grid::MemoryWords(words) => {
                if words.iter().any(|&w| w == 0 || w % 16 != 0) {
                    return err("memory sizes must be positive multiples of 16 words".into());
                }
                if let Some(&w) = words.iter().find(|&&w| w > MAX_MEMORY_WORDS) {
                    return Err(SpecError::value(
                        "grid.values",
                        format!("memory size {w} exceeds the maximum of {MAX_MEMORY_WORDS} words"),
                    ));
                }
            }
        }
        let needs_fixed_voltage = matches!(self.grid, Grid::NoiseScale(_) | Grid::MemoryWords(_));
        if needs_fixed_voltage && !(self.fixed_voltage.is_finite() && self.fixed_voltage > 0.0) {
            return err(format!(
                "fixed_voltage {} must be positive for {} grids",
                self.fixed_voltage,
                self.grid.axis_token()
            ));
        }
        match self.kind {
            Kind::SnrSweep => {
                if matches!(self.grid, Grid::MemoryWords(_)) {
                    return err("snr-sweep does not support the words axis (no fault model ties faults to array size)".into());
                }
            }
            Kind::EnergySweep => {
                if matches!(self.grid, Grid::BitPosition(_) | Grid::NoiseScale(_)) {
                    return err(format!(
                        "energy-sweep requires a voltage or words grid, got {}",
                        self.grid.axis_token()
                    ));
                }
                if !self.emts.contains(&EmtKind::None) {
                    return err("energy sweeps need the unprotected baseline (emt \"none\") to price overheads".into());
                }
                if self.apps.len() != 1 {
                    return err(
                        "energy sweeps price one application at a time (its access pattern sets the table)".into(),
                    );
                }
            }
            Kind::Tradeoff => {
                if !matches!(self.grid, Grid::Voltage(_)) {
                    return err("tradeoff requires a voltage grid".into());
                }
                if self.apps.len() != 1 {
                    return err("tradeoff explores one application at a time".into());
                }
                if !self.emts.contains(&EmtKind::None) {
                    return err("tradeoff needs the unprotected baseline (emt \"none\")".into());
                }
                if let Grid::Voltage(vs) = &self.grid {
                    if !vs.iter().any(|v| (v - self.fault.nominal_v).abs() < 1e-9) {
                        return err(format!(
                            "tradeoff grid must include the nominal voltage {} V (the savings baseline)",
                            self.fault.nominal_v
                        ));
                    }
                }
            }
            Kind::Ablation => {
                if !matches!(self.grid, Grid::Voltage(_)) {
                    return err(
                        "ablation requires a voltage grid (the BER-slope study sweeps it)".into(),
                    );
                }
                if self.ber_slopes.is_empty() {
                    return err("ablation needs at least one BER slope".into());
                }
            }
        }
        match self.trial_count() {
            Some(n) if n <= MAX_TRIAL_COUNT => Ok(()),
            n => err(format!(
                "the campaign compiles to {} trials, above the maximum of {MAX_TRIAL_COUNT}",
                n.map_or("more than usize::MAX".into(), |n| n.to_string())
            )),
        }
    }

    /// The record-suite size this scenario actually averages over.
    pub fn effective_records(&self) -> usize {
        self.records.min(dream_ecg::Database::SUITE_SIZE)
    }

    /// The length of [`Scenario::flatten`], computed with checked
    /// arithmetic and no allocation — `None` when it overflows `usize`.
    /// Progress totals and admission checks use this, so an oversized spec
    /// is refused instead of materialized.
    pub fn trial_count(&self) -> Option<usize> {
        let product = |factors: &[usize]| {
            factors
                .iter()
                .try_fold(1usize, |acc, &f| acc.checked_mul(f))
        };
        let trials = self.trials;
        match (&self.kind, &self.grid) {
            (Kind::SnrSweep, Grid::BitPosition(bits)) => product(&[
                self.apps.len(),
                self.emts.len(),
                2,
                bits.len(),
                self.effective_records(),
                trials,
            ]),
            (Kind::SnrSweep | Kind::Tradeoff, Grid::Voltage(vs)) => {
                let draws = vs.len().checked_mul(trials)?;
                if self.kind == Kind::Tradeoff {
                    draws.checked_add(self.emts.len())
                } else {
                    Some(draws)
                }
            }
            (Kind::SnrSweep, Grid::NoiseScale(scales)) => scales.len().checked_mul(trials),
            (Kind::EnergySweep, Grid::Voltage(_)) => Some(self.emts.len()),
            (Kind::EnergySweep, Grid::MemoryWords(words)) => {
                words.len().checked_mul(self.emts.len())
            }
            (Kind::Ablation, Grid::Voltage(vs)) => {
                let slopes = product(&[self.ber_slopes.len(), vs.len(), trials.min(8)])?;
                trials.checked_mul(2)?.checked_add(slopes)
            }
            _ => Some(0),
        }
    }

    /// Compiles the spec to its flattened trial descriptors, in execution
    /// order. This is the engine's exact work list: `flatten().len()`
    /// (= [`Scenario::trial_count`]) trials run through
    /// [`crate::exec::run_trials`].
    pub fn flatten(&self) -> Vec<FlatTrial> {
        let records = self.effective_records();
        let mut trials = Vec::new();
        match (&self.kind, &self.grid) {
            (Kind::SnrSweep, Grid::BitPosition(bits)) => {
                for app in 0..self.apps.len() {
                    for emt in 0..self.emts.len() {
                        for stuck in [StuckAt::Zero, StuckAt::One] {
                            for &bit in bits {
                                for record in 0..records {
                                    for trial in 0..self.trials {
                                        trials.push(FlatTrial::Injection {
                                            app,
                                            emt,
                                            stuck,
                                            bit,
                                            record,
                                            trial,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            (Kind::SnrSweep | Kind::Tradeoff, Grid::Voltage(vs)) => {
                for point in 0..vs.len() {
                    for run in 0..self.trials {
                        trials.push(FlatTrial::Draw { point, run });
                    }
                }
                if self.kind == Kind::Tradeoff {
                    // The policy also needs the energy table's fault-free
                    // characterizations.
                    for emt in 0..self.emts.len() {
                        trials.push(FlatTrial::Price { point: 0, emt });
                    }
                }
            }
            (Kind::SnrSweep, Grid::NoiseScale(scales)) => {
                for point in 0..scales.len() {
                    for run in 0..self.trials {
                        trials.push(FlatTrial::Draw { point, run });
                    }
                }
            }
            (Kind::EnergySweep, Grid::Voltage(_)) => {
                // Access/cycle counts are voltage-independent: one
                // characterization per EMT prices the whole grid.
                for emt in 0..self.emts.len() {
                    trials.push(FlatTrial::Price { point: 0, emt });
                }
            }
            (Kind::EnergySweep, Grid::MemoryWords(words)) => {
                for point in 0..words.len() {
                    for emt in 0..self.emts.len() {
                        trials.push(FlatTrial::Price { point, emt });
                    }
                }
            }
            (Kind::Ablation, Grid::Voltage(vs)) => {
                // The ablation bundle's dominant campaigns: the scrambler
                // study (fixed + re-scrambled runs) then the BER-slope
                // sensitivity grid.
                for run in 0..2 * self.trials {
                    trials.push(FlatTrial::Draw { point: 0, run });
                }
                let ber_runs = self.trials.min(8);
                for (si, _) in self.ber_slopes.iter().enumerate() {
                    for (vi, _) in vs.iter().enumerate() {
                        for run in 0..ber_runs {
                            trials.push(FlatTrial::Draw {
                                point: 1 + si * vs.len() + vi,
                                run,
                            });
                        }
                    }
                }
            }
            // Every other combination is rejected by `validate`.
            _ => {}
        }
        trials
    }

    /// Serializes to the canonical pretty-printed spec document.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    fn to_json_value(&self) -> Json {
        let grid_values = match &self.grid {
            Grid::Voltage(v) => v.iter().map(|&x| Json::Num(x)).collect(),
            Grid::BitPosition(b) => b.iter().map(|&x| Json::Num(f64::from(x))).collect(),
            Grid::NoiseScale(n) => n.iter().map(|&x| Json::Num(x)).collect(),
            Grid::MemoryWords(w) => w.iter().map(|&x| Json::Num(x as f64)).collect(),
        };
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("kind".into(), Json::Str(self.kind.token().into())),
            ("window".into(), Json::Num(self.window as f64)),
            ("records".into(), Json::Num(self.records as f64)),
            ("trials".into(), Json::Num(self.trials as f64)),
            (
                "apps".into(),
                Json::Arr(
                    self.apps
                        .iter()
                        .map(|&a| Json::Str(app_token(a).into()))
                        .collect(),
                ),
            ),
            (
                "emts".into(),
                Json::Arr(
                    self.emts
                        .iter()
                        .map(|&e| Json::Str(emt_token(e).into()))
                        .collect(),
                ),
            ),
            (
                "grid".into(),
                Json::Obj(vec![
                    ("axis".into(), Json::Str(self.grid.axis_token().into())),
                    ("values".into(), Json::Arr(grid_values)),
                ]),
            ),
            (
                "fault".into(),
                Json::Obj(vec![
                    ("nominal_v".into(), Json::Num(self.fault.nominal_v)),
                    (
                        "log10_ber_at_nominal".into(),
                        Json::Num(self.fault.log10_ber_at_nominal),
                    ),
                    (
                        "log10_slope_per_volt".into(),
                        Json::Num(self.fault.log10_slope_per_volt),
                    ),
                    ("model".into(), self.fault.model.to_json_value()),
                ]),
            ),
            ("fixed_voltage".into(), Json::Num(self.fixed_voltage)),
            ("noise_scale".into(), Json::Num(self.noise_scale)),
            (
                "scrambler_key".into(),
                self.scrambler_key.map_or(Json::Null, u64_json),
            ),
            (
                "tolerance_db".into(),
                self.tolerance_db.map_or(Json::Null, Json::Num),
            ),
            (
                "ber_slopes".into(),
                Json::Arr(self.ber_slopes.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("seed".into(), u64_json(self.seed)),
            (
                "sink".into(),
                Json::Obj(vec![
                    ("format".into(), Json::Str(self.sink.format.token().into())),
                    (
                        "out".into(),
                        self.sink
                            .out
                            .as_ref()
                            .map_or(Json::Null, |o| Json::Str(o.clone())),
                    ),
                    ("append".into(), Json::Bool(self.sink.append)),
                ]),
            ),
        ];
        // Emitted only when nonzero so unsharded specs — every document
        // written before sharding existed — keep byte-identical JSON and
        // therefore byte-identical store hashes.
        if self.point_offset != 0 {
            fields.push(("point_offset".into(), Json::Num(self.point_offset as f64)));
        }
        Json::Obj(fields)
    }

    /// Parses and validates a spec document.
    ///
    /// A document may open with `"extends": "<preset>"` to inherit every
    /// field from the registry's full-scale preset of that name and
    /// override only what it restates — fault-model variants of `fig4`
    /// need not repeat the whole spec. Without `extends`, the structural
    /// fields (`name`, `kind`, `window`, `records`, `trials`, `apps`,
    /// `emts`, `grid`, `seed`) are required, as before.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first malformed or missing
    /// field (JSON syntax errors included).
    pub fn from_json(text: &str) -> Result<Scenario, SpecError> {
        let doc = Json::parse(text).map_err(|e| SpecError::Parse {
            message: e.to_string(),
        })?;

        let base: Option<Scenario> = match doc.get("extends") {
            None => None,
            Some(v) => {
                let preset = v
                    .as_str()
                    .ok_or_else(|| SpecError::field("extends", "the name of a registry preset"))?;
                Some(super::registry::get(preset, false)?)
            }
        };
        // A variant that overrides anything must name itself: artifacts
        // are keyed by name, and a burst variant silently inheriting
        // "fig4" would overwrite the genuine fig4 rows. A bare
        // `{"extends": ...}` (no overrides) is the preset itself, so the
        // inherited name is correct there.
        if base.is_some() && doc.get("name").is_none() {
            if let Json::Obj(fields) = &doc {
                if fields.iter().any(|(k, _)| k != "extends") {
                    return Err(SpecError::constraint(
                        "spec documents that extend a preset and override fields must set \
                         their own \"name\" (artifacts are keyed by it)",
                    ));
                }
            }
        }

        let name = match doc.get("name").and_then(Json::as_str) {
            Some(s) => s.to_string(),
            None => base
                .as_ref()
                .map(|b| b.name.clone())
                .ok_or_else(|| SpecError::field("name", "a string"))?,
        };
        let title = match doc.get("title").and_then(Json::as_str) {
            Some(s) => s.to_string(),
            None => base.as_ref().map(|b| b.title.clone()).unwrap_or_default(),
        };
        let kind = match doc.get("kind").and_then(Json::as_str) {
            Some(token) => Kind::from_token(token)
                .ok_or_else(|| SpecError::value("kind", format!("unknown kind {token:?}")))?,
            None => base
                .as_ref()
                .map(|b| b.kind)
                .ok_or_else(|| SpecError::field("kind", "a string campaign kind"))?,
        };
        let usize_field = |key: &str, inherited: Option<usize>| -> Result<usize, SpecError> {
            match doc.get(key) {
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| SpecError::field(key, "a non-negative integer")),
                None => inherited.ok_or_else(|| SpecError::field(key, "a non-negative integer")),
            }
        };
        let window = usize_field("window", base.as_ref().map(|b| b.window))?;
        let records = usize_field("records", base.as_ref().map(|b| b.records))?;
        let trials = usize_field("trials", base.as_ref().map(|b| b.trials))?;

        let apps = match doc.get("apps") {
            None => base
                .as_ref()
                .map(|b| b.apps.clone())
                .ok_or_else(|| SpecError::field("apps", "an array of app tokens"))?,
            Some(v) => v
                .as_arr()
                .ok_or_else(|| SpecError::field("apps", "an array of app tokens"))?
                .iter()
                .map(|v| {
                    let token = v
                        .as_str()
                        .ok_or_else(|| SpecError::value("apps", "entries must be strings"))?;
                    app_from_token(token)
                        .ok_or_else(|| SpecError::value("apps", format!("unknown app {token:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let emts = match doc.get("emts") {
            None => base
                .as_ref()
                .map(|b| b.emts.clone())
                .ok_or_else(|| SpecError::field("emts", "an array of EMT tokens"))?,
            Some(v) => v
                .as_arr()
                .ok_or_else(|| SpecError::field("emts", "an array of EMT tokens"))?
                .iter()
                .map(|v| {
                    let token = v
                        .as_str()
                        .ok_or_else(|| SpecError::value("emts", "entries must be strings"))?;
                    emt_from_token(token)
                        .ok_or_else(|| SpecError::value("emts", format!("unknown emt {token:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let grid = match doc.get("grid") {
            None => base
                .as_ref()
                .map(|b| b.grid.clone())
                .ok_or_else(|| SpecError::field("grid", "an object with \"axis\"/\"values\""))?,
            Some(grid_obj) => {
                let axis = grid_obj
                    .get("axis")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SpecError::field("grid.axis", "a string axis token"))?;
                let values = grid_obj
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| SpecError::field("grid.values", "an array of numbers"))?;
                let nums = values
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| SpecError::value("grid.values", "must be numbers"))
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                match axis {
                    "voltage" => Grid::Voltage(nums),
                    "noise" => Grid::NoiseScale(nums),
                    "bit" => Grid::BitPosition(
                        nums.iter()
                            .map(|&n| {
                                if n >= 0.0 && n.fract() == 0.0 && n < 32.0 {
                                    Ok(n as u32)
                                } else {
                                    Err(SpecError::value(
                                        "grid.values",
                                        format!("bit position {n} must be a small integer"),
                                    ))
                                }
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    "words" => Grid::MemoryWords(
                        nums.iter()
                            .map(|&n| {
                                if n >= 1.0 && n.fract() == 0.0 {
                                    Ok(n as usize)
                                } else {
                                    Err(SpecError::value(
                                        "grid.values",
                                        format!("memory size {n} must be a positive integer"),
                                    ))
                                }
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    other => {
                        return Err(SpecError::value(
                            "grid.axis",
                            format!("unknown grid axis {other:?}"),
                        ))
                    }
                }
            }
        };

        let fault = match doc.get("fault") {
            None => base
                .as_ref()
                .map(|b| b.fault.clone())
                .unwrap_or_else(FaultSpec::date16),
            Some(obj) => {
                let inherited = base.as_ref().map(|b| b.fault.clone());
                let num = |key: &str, inherited: Option<f64>| -> Result<f64, SpecError> {
                    let missing = || SpecError::field(format!("fault.{key}"), "a number");
                    match obj.get(key) {
                        Some(v) => v.as_f64().ok_or_else(missing),
                        None => inherited.ok_or_else(missing),
                    }
                };
                FaultSpec {
                    nominal_v: num("nominal_v", inherited.as_ref().map(|f| f.nominal_v))?,
                    log10_ber_at_nominal: num(
                        "log10_ber_at_nominal",
                        inherited.as_ref().map(|f| f.log10_ber_at_nominal),
                    )?,
                    log10_slope_per_volt: num(
                        "log10_slope_per_volt",
                        inherited.as_ref().map(|f| f.log10_slope_per_volt),
                    )?,
                    model: match obj.get("model") {
                        Some(m) => FaultModelSpec::from_json(m)?,
                        None => inherited.map(|f| f.model).unwrap_or_default(),
                    },
                }
            }
        };
        let sink = match doc.get("sink") {
            None => base.as_ref().map(|b| b.sink.clone()).unwrap_or_default(),
            Some(obj) => {
                let inherited = base.as_ref().map(|b| b.sink.clone()).unwrap_or_default();
                let format = match obj.get("format").and_then(Json::as_str) {
                    Some(token) => SinkFormat::from_token(token).ok_or_else(|| {
                        SpecError::value("sink.format", format!("unknown sink format {token:?}"))
                    })?,
                    None => inherited.format,
                };
                let out = match obj.get("out") {
                    None => inherited.out,
                    Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| SpecError::field("sink.out", "a string or null"))?
                            .to_string(),
                    ),
                };
                let append = match obj.get("append") {
                    None => inherited.append,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| SpecError::field("sink.append", "a boolean"))?,
                };
                SinkSpec {
                    format,
                    out,
                    append,
                }
            }
        };

        let scenario = Scenario {
            name,
            title,
            kind,
            window,
            records,
            trials,
            apps,
            emts,
            grid,
            fault,
            fixed_voltage: match doc.get("fixed_voltage").and_then(Json::as_f64) {
                Some(v) => v,
                None => base
                    .as_ref()
                    .map_or(BerModel::NOMINAL_VOLTAGE, |b| b.fixed_voltage),
            },
            noise_scale: match doc.get("noise_scale").and_then(Json::as_f64) {
                Some(v) => v,
                None => base.as_ref().map_or(1.0, |b| b.noise_scale),
            },
            scrambler_key: match doc.get("scrambler_key") {
                None => base.as_ref().and_then(|b| b.scrambler_key),
                Some(Json::Null) => None,
                Some(v) => Some(json_u64(v).ok_or_else(|| {
                    SpecError::field("scrambler_key", "an unsigned 64-bit integer or null")
                })?),
            },
            tolerance_db: match doc.get("tolerance_db") {
                None => base.as_ref().and_then(|b| b.tolerance_db),
                Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| SpecError::field("tolerance_db", "a number or null"))?,
                ),
            },
            ber_slopes: match doc.get("ber_slopes").and_then(Json::as_arr) {
                None => base
                    .as_ref()
                    .map(|b| b.ber_slopes.clone())
                    .unwrap_or_default(),
                Some(items) => items
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| SpecError::value("ber_slopes", "must be numbers"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
            seed: match doc.get("seed") {
                Some(v) => json_u64(v)
                    .ok_or_else(|| SpecError::field("seed", "an unsigned 64-bit integer"))?,
                None => base
                    .as_ref()
                    .map(|b| b.seed)
                    .ok_or_else(|| SpecError::field("seed", "an unsigned 64-bit integer"))?,
            },
            sink,
            point_offset: match doc.get("point_offset") {
                None => base.as_ref().map_or(0, |b| b.point_offset),
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| SpecError::field("point_offset", "a non-negative integer"))?,
            },
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

/// Serializes a `u64` losslessly: as a JSON number when `f64` can carry
/// it exactly, as a decimal string otherwise (seeds and scrambler keys
/// routinely use all 64 bits).
fn u64_json(value: u64) -> Json {
    if value <= (1u64 << 53) {
        Json::Num(value as f64)
    } else {
        Json::Str(value.to_string())
    }
}

/// Parses a `u64` from either encoding produced by [`u64_json`].
fn json_u64(value: &Json) -> Option<u64> {
    match value {
        Json::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

/// Spec-file token of an application.
pub fn app_token(app: AppKind) -> &'static str {
    match app {
        AppKind::Dwt => "dwt",
        AppKind::MatrixFilter => "matfilt",
        AppKind::CompressedSensing => "cs",
        AppKind::MorphologicalFilter => "morpho",
        AppKind::WaveletDelineation => "delineate",
        AppKind::HeartbeatClassifier => "classifier",
    }
}

/// Parses an application token.
pub fn app_from_token(token: &str) -> Option<AppKind> {
    Some(match token {
        "dwt" => AppKind::Dwt,
        "matfilt" => AppKind::MatrixFilter,
        "cs" => AppKind::CompressedSensing,
        "morpho" => AppKind::MorphologicalFilter,
        "delineate" => AppKind::WaveletDelineation,
        "classifier" => AppKind::HeartbeatClassifier,
        _ => return None,
    })
}

/// Spec-file token of a protection technique.
pub fn emt_token(emt: EmtKind) -> &'static str {
    match emt {
        EmtKind::None => "none",
        EmtKind::Parity => "parity",
        EmtKind::Dream => "dream",
        EmtKind::EccSecDed => "ecc",
    }
}

/// Parses a protection-technique token.
pub fn emt_from_token(token: &str) -> Option<EmtKind> {
    Some(match token {
        "none" => EmtKind::None,
        "parity" => EmtKind::Parity,
        "dream" => EmtKind::Dream,
        "ecc" => EmtKind::EccSecDed,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;

    #[test]
    fn every_preset_round_trips_through_json() {
        for name in registry::names() {
            for smoke in [false, true] {
                let sc = registry::get(name, smoke).expect("preset exists");
                sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                let parsed =
                    Scenario::from_json(&sc.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(parsed, sc, "{name} smoke={smoke}");
                assert_eq!(parsed.flatten(), sc.flatten(), "{name} smoke={smoke}");
                assert!(!sc.flatten().is_empty(), "{name} compiles to no trials");
            }
        }
    }

    #[test]
    fn trial_count_matches_flatten_and_the_bounds_clear_every_preset() {
        let (mut window, mut words, mut trials) = (0, 0, 0);
        for name in registry::names() {
            for smoke in [false, true] {
                let sc = registry::get(name, smoke).expect("preset exists");
                let count = sc.trial_count();
                assert_eq!(count, Some(sc.flatten().len()), "{name} smoke={smoke}");
                window = window.max(sc.window);
                trials = trials.max(count.unwrap());
                if let Grid::MemoryWords(ws) = &sc.grid {
                    words = ws.iter().fold(words, |m, &w| m.max(w));
                }
            }
        }
        assert!(MAX_WINDOW >= 64 * window, "{MAX_WINDOW} vs {window}");
        assert!(
            MAX_MEMORY_WORDS >= 64 * words,
            "{MAX_MEMORY_WORDS} vs {words}"
        );
        assert!(
            MAX_TRIAL_COUNT >= 64 * trials,
            "{MAX_TRIAL_COUNT} vs {trials}"
        );
    }

    #[test]
    fn oversized_specs_are_typed_errors_not_allocations() {
        // `from_json` validates what it parses.
        let check = |doc: &str| Scenario::from_json(doc).expect_err(doc);
        let huge_window = check(r#"{"extends":"fig2","name":"huge","window":1e10}"#);
        assert_eq!(huge_window.path(), Some("window"), "{huge_window}");
        let many = check(r#"{"extends":"fig4","name":"many","trials":1e13}"#);
        assert!(matches!(many, SpecError::Constraint { .. }), "{many}");
        let overflow = Scenario {
            trials: usize::MAX,
            ..registry::get("fig2", false).unwrap()
        };
        assert_eq!(overflow.trial_count(), None);
        let e = overflow.validate().expect_err("overflowing trial count");
        assert!(e.to_string().contains("usize::MAX"), "{e}");
        let words = check(
            r#"{"extends":"geometry-sweep","name":"big","grid":{"axis":"words","values":[1099511627776]}}"#,
        );
        assert_eq!(words.path(), Some("grid.values"), "{words}");
    }

    #[test]
    fn app_and_emt_tokens_round_trip() {
        for app in AppKind::extended() {
            assert_eq!(app_from_token(app_token(app)), Some(app));
        }
        for emt in EmtKind::all() {
            assert_eq!(emt_from_token(emt_token(emt)), Some(emt));
        }
        assert_eq!(app_from_token("nope"), None);
        assert_eq!(emt_from_token("nope"), None);
    }

    #[test]
    fn fig2_flatten_matches_historical_nested_loop_order() {
        let sc = registry::get("fig2", true).unwrap();
        let flat = sc.flatten();
        // app × emt × polarity × bit × record × trial, all contiguous.
        assert_eq!(flat.len(), sc.apps.len() * 2 * 16 * 2 * 2);
        assert_eq!(
            flat[0],
            FlatTrial::Injection {
                app: 0,
                emt: 0,
                stuck: StuckAt::Zero,
                bit: 0,
                record: 0,
                trial: 0
            }
        );
        assert_eq!(
            flat[1],
            FlatTrial::Injection {
                app: 0,
                emt: 0,
                stuck: StuckAt::Zero,
                bit: 0,
                record: 0,
                trial: 1
            }
        );
        let per_app = 2 * 16 * 2 * 2;
        match flat[per_app] {
            FlatTrial::Injection { app, .. } => assert_eq!(app, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn large_seeds_and_scrambler_keys_survive_the_json_round_trip() {
        // f64 carries only 53 bits; seeds and scrambler keys use 64.
        let mut sc = registry::get("fig4", true).unwrap();
        sc.seed = 0xDEAD_BEEF_CAFE_F00D;
        sc.scrambler_key = Some(u64::MAX - 12345);
        let parsed = Scenario::from_json(&sc.to_json()).unwrap();
        assert_eq!(parsed.seed, sc.seed);
        assert_eq!(parsed.scrambler_key, sc.scrambler_key);
    }

    #[test]
    fn bit_grid_is_bounded_by_the_technique_injection_space() {
        // Unprotected sweeps inject into the 16-bit data word…
        let mut sc = registry::get("fig2", true).unwrap();
        sc.grid = Grid::BitPosition(vec![16]);
        assert!(
            sc.validate().is_err(),
            "bit 16 must be rejected with emt none"
        );
        // …protected-only sweeps reach the full 22-bit codeword.
        sc.emts = vec![EmtKind::EccSecDed];
        sc.grid = Grid::BitPosition(vec![21]);
        sc.validate().expect("bit 21 is valid for ECC-only sweeps");
        sc.grid = Grid::BitPosition(vec![22]);
        assert!(sc.validate().is_err());
    }

    #[test]
    fn energy_sweeps_take_exactly_one_app() {
        let mut sc = registry::get("energy", true).unwrap();
        sc.apps = vec![AppKind::Dwt, AppKind::CompressedSensing];
        let err = sc.validate().unwrap_err();
        assert!(err.to_string().contains("one application"), "{err}");
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let mut sc = registry::get("fig4", true).unwrap();
        sc.apps.clear();
        assert!(sc.validate().is_err());

        let mut sc = registry::get("fig4", true).unwrap();
        sc.grid = Grid::Voltage(vec![]);
        assert!(sc.validate().is_err());

        let mut sc = registry::get("tradeoff", true).unwrap();
        sc.grid = Grid::BitPosition(vec![0, 1]);
        assert!(sc.validate().is_err());

        let mut sc = registry::get("geometry-sweep", true).unwrap();
        sc.grid = Grid::MemoryWords(vec![100]); // not a multiple of 16
        assert!(sc.validate().is_err());

        let mut sc = registry::get("noise-sweep", true).unwrap();
        sc.fixed_voltage = 0.0;
        assert!(sc.validate().is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_field() {
        let err = Scenario::from_json("{}").unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
        let err = Scenario::from_json("not json").unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
        let mut spec = registry::get("fig4", true).unwrap().to_json();
        spec = spec.replace("\"dwt\"", "\"warp-drive\"");
        let err = Scenario::from_json(&spec).unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");
    }

    #[test]
    fn fault_spec_reconstructs_the_date16_model() {
        assert_eq!(FaultSpec::date16().to_model(), BerModel::date16());
    }

    #[test]
    fn spec_errors_carry_the_offending_field_path() {
        let err = Scenario::from_json("{}").unwrap_err();
        assert_eq!(err.path(), Some("name"));
        assert!(matches!(err, SpecError::Field { .. }), "{err:?}");

        let err = Scenario::from_json("not json").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }), "{err:?}");
        assert_eq!(err.path(), None);

        let mut spec = registry::get("fig4", true).unwrap().to_json();
        spec = spec.replace("\"dwt\"", "\"warp-drive\"");
        let err = Scenario::from_json(&spec).unwrap_err();
        assert_eq!(err.path(), Some("apps"));
        assert!(matches!(err, SpecError::Value { .. }), "{err:?}");

        let err = Scenario::from_json(r#"{"extends": "fig9"}"#).unwrap_err();
        assert!(
            matches!(&err, SpecError::UnknownScenario { name } if name == "fig9"),
            "{err:?}"
        );

        let mut sc = registry::get("fig4", true).unwrap();
        sc.apps.clear();
        let err = sc.validate().unwrap_err();
        assert!(matches!(err, SpecError::Constraint { .. }), "{err:?}");
    }

    #[test]
    fn sink_tokens_parse_and_round_trip() {
        for (token, format, out, append) in [
            ("table", SinkFormat::Table, None, false),
            ("csv:results/x", SinkFormat::Csv, Some("results/x"), false),
            ("jsonl:out", SinkFormat::Jsonl, Some("out"), false),
            ("jsonl:out,append", SinkFormat::Jsonl, Some("out"), true),
        ] {
            let sink = SinkSpec::parse(token).unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(sink.format, format, "{token}");
            assert_eq!(sink.out.as_deref(), out, "{token}");
            assert_eq!(sink.append, append, "{token}");
            assert_eq!(sink.token(), token, "round trip");
        }
        for bad in ["parquet", "csv:", "csv:x,append", "jsonl,append", ""] {
            let err = SinkSpec::parse(bad).unwrap_err();
            assert_eq!(err.path(), Some("sink"), "{bad}: {err}");
        }
    }
}
