//! Performance evaluation by simulation.
//!
//! COMDIAC evaluates performance "using predefined equations", but its
//! accuracy relies on sharing the transistor model with the verifying
//! simulator. This crate closes that loop completely: the evaluation
//! builds the amplifier netlist (with whatever parasitics the
//! [`ParasiticMode`] prescribes) and measures every Table-1 quantity on
//! the same simulator used for final verification — DC gain, GBW, phase
//! margin, slew rate, CMRR, offset, output resistance, noise and power.

use crate::feedback::ParasiticMode;
use crate::specs::OtaSpecs;
use losac_obs::Counter;
use losac_sim::ac::{ac_point_on, ac_sweep, ac_sweep_on, log_grid, AcOptions};
use losac_sim::dc::{dc_operating_point, DcError, DcOptions, DcSession, DcSolution};
use losac_sim::interrupt::Interrupted;
use losac_sim::linear::Linearized;
use losac_sim::meas::{bode_summary_of, db};
use losac_sim::netlist::Circuit;
use losac_sim::noise::{integrate_psd, noise_analysis_on};
use losac_sim::tran::{transient, TranError, TranOptions};
use losac_tech::pvt::NOMINAL_TEMP_C;
use losac_tech::{Corner, Scenario, Technology};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Evaluations answered from an [`EvalCache`] without simulating.
static EVAL_CACHE_HIT: Counter = Counter::new("sizing.eval.cache_hit");
/// Evaluations that missed the cache and ran the full pipeline.
static EVAL_CACHE_MISS: Counter = Counter::new("sizing.eval.cache_miss");
/// Lookups whose 64-bit hash matched a stored entry but whose full key
/// bytes did not. Counted as a miss (and re-simulated) — never served as
/// a hit.
static EVAL_CACHE_COLLISION: Counter = Counter::new("sizing.eval.cache_collision");

/// Input drive of a generated amplifier netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputDrive {
    /// Both inputs at the CM bias, offset by ±dv/2, as sources named
    /// `vinp` / `vinn`.
    Differential {
        /// Differential input voltage (V).
        dv: f64,
    },
    /// Unity-gain buffer: the inverting input wired to the output, a step
    /// waveform on `vinp`.
    UnityBuffer {
        /// Initial level (V).
        step_from: f64,
        /// Final level (V).
        step_to: f64,
        /// Step time (s).
        at: f64,
        /// Rise time (s).
        rise: f64,
    },
}

/// The amplifier interface the measurement pipeline characterises is
/// [`Topology`]. This alias keeps the historical name importable: the
/// benchmark package (`perfbench/`) imports `losac_sizing::eval::Amplifier`.
pub use crate::topology::Topology as Amplifier;
use crate::topology::Topology;

/// Everything the paper's Table 1 reports for one sizing case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Performance {
    /// DC (low-frequency) differential gain (dB).
    pub dc_gain_db: f64,
    /// Gain–bandwidth product / unity-gain frequency (Hz).
    pub gbw: f64,
    /// Phase margin (degrees).
    pub phase_margin: f64,
    /// Slew rate (V/s).
    pub slew_rate: f64,
    /// Common-mode rejection ratio (dB) at low frequency.
    pub cmrr_db: f64,
    /// Input-referred offset voltage (V) that centres the output.
    pub offset: f64,
    /// Output resistance (Ω).
    pub output_resistance: f64,
    /// Input-referred integrated noise voltage, 1 Hz to GBW (V rms).
    pub input_noise_rms: f64,
    /// Input-referred thermal (white) noise density (V/√Hz), sampled in
    /// the flat band.
    pub thermal_noise_density: f64,
    /// Input-referred noise density at 1 Hz (V/√Hz) — flicker dominated.
    pub flicker_noise_density: f64,
    /// Quiescent power drawn from the supply (W).
    pub power: f64,
}

impl Performance {
    /// The per-metric worst case of two measurements — the acceptance
    /// row of corner-aware sizing ("meet specs at all corners"): for
    /// metrics with a lower spec limit (gain, GBW, phase margin, slew,
    /// CMRR, output resistance) the smaller value, for cost-like metrics
    /// (offset magnitude, every noise figure, power) the larger. Folding
    /// the evaluations of a scenario set through this yields a row that
    /// meets a specification iff every individual scenario does.
    #[must_use]
    pub fn worst_case(&self, other: &Performance) -> Performance {
        Performance {
            dc_gain_db: self.dc_gain_db.min(other.dc_gain_db),
            gbw: self.gbw.min(other.gbw),
            phase_margin: self.phase_margin.min(other.phase_margin),
            slew_rate: self.slew_rate.min(other.slew_rate),
            cmrr_db: self.cmrr_db.min(other.cmrr_db),
            offset: if self.offset.abs() >= other.offset.abs() {
                self.offset
            } else {
                other.offset
            },
            output_resistance: self.output_resistance.min(other.output_resistance),
            input_noise_rms: self.input_noise_rms.max(other.input_noise_rms),
            thermal_noise_density: self.thermal_noise_density.max(other.thermal_noise_density),
            flicker_noise_density: self.flicker_noise_density.max(other.flicker_noise_density),
            power: self.power.max(other.power),
        }
    }
}

impl fmt::Display for Performance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DC gain            {:8.1} dB", self.dc_gain_db)?;
        writeln!(f, "GBW                {:8.1} MHz", self.gbw / 1e6)?;
        writeln!(f, "Phase margin       {:8.1} deg", self.phase_margin)?;
        writeln!(f, "Slew rate          {:8.1} V/us", self.slew_rate / 1e6)?;
        writeln!(f, "CMRR               {:8.1} dB", self.cmrr_db)?;
        writeln!(f, "Offset             {:8.2} mV", self.offset * 1e3)?;
        writeln!(
            f,
            "Output resistance  {:8.2} MOhm",
            self.output_resistance / 1e6
        )?;
        writeln!(
            f,
            "Input noise        {:8.1} uV",
            self.input_noise_rms * 1e6
        )?;
        writeln!(
            f,
            "Thermal density    {:8.1} nV/rtHz",
            self.thermal_noise_density * 1e9
        )?;
        writeln!(
            f,
            "Flicker @1Hz       {:8.2} uV/rtHz",
            self.flicker_noise_density * 1e6
        )?;
        write!(f, "Power              {:8.2} mW", self.power * 1e3)
    }
}

/// Broad classification of an evaluation failure.
///
/// The batch engine's retry policy keys off this: [`Analysis`] failures
/// are worth another attempt (a perturbed continuation ladder often
/// converges), [`BadNetlist`] never is, and the two interruption kinds
/// mean the budget — not the circuit — ended the evaluation.
///
/// [`Analysis`]: EvalErrorKind::Analysis
/// [`BadNetlist`]: EvalErrorKind::BadNetlist
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// A numerical analysis failed: non-convergence, a singular system,
    /// or an un-measurable response (no unity crossing, buffer never
    /// settled). Potentially transient.
    Analysis,
    /// The generated netlist itself is invalid (bad element values, bad
    /// time range). Permanent — retrying rebuilds the same netlist.
    BadNetlist,
    /// The evaluation was cancelled through the installed
    /// [`losac_sim::interrupt::SimInterrupt`] stop flag.
    Cancelled,
    /// The evaluation ran past the installed deadline.
    TimedOut,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    message: String,
    kind: EvalErrorKind,
}

impl EvalError {
    fn new(m: impl Into<String>) -> Self {
        Self::with_kind(m, EvalErrorKind::Analysis)
    }

    fn with_kind(m: impl Into<String>, kind: EvalErrorKind) -> Self {
        Self {
            message: m.into(),
            kind,
        }
    }

    /// What broad class of failure this is.
    pub fn kind(&self) -> EvalErrorKind {
        self.kind
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation failed: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

fn kind_of_dc(e: &DcError) -> EvalErrorKind {
    match e {
        DcError::BadNetlist(_) => EvalErrorKind::BadNetlist,
        DcError::Interrupted(Interrupted::Cancelled) => EvalErrorKind::Cancelled,
        DcError::Interrupted(Interrupted::TimedOut) => EvalErrorKind::TimedOut,
        _ => EvalErrorKind::Analysis,
    }
}

impl From<DcError> for EvalError {
    fn from(e: DcError) -> Self {
        EvalError::with_kind(e.to_string(), kind_of_dc(&e))
    }
}

impl From<TranError> for EvalError {
    fn from(e: TranError) -> Self {
        EvalError::with_kind(e.to_string(), kind_of_dc(&e.cause))
    }
}

/// Knobs for [`evaluate_with`].
///
/// Every knob is an *optimisation*: flipping any of them changes how the
/// answer is computed, never what it is. The optimised paths are bitwise
/// identical to the plain [`evaluate`] pipeline (enforced by the
/// `sim_equivalence` test suite).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EvalOptions {
    /// Worker threads: fans out AC/noise frequency points and, at `>= 2`,
    /// runs the slew-rate transient concurrently with the small-signal
    /// measurements. `1` is fully serial, `0` means
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Memoise whole evaluations keyed by (amplifier fingerprint,
    /// technology, parasitic mode). `None` (the default) disables
    /// caching; the engine's batch runner shares one cache across a job.
    pub cache: Option<Arc<EvalCache>>,
    /// Pin the linear-solver kernel for this evaluation (including its
    /// worker threads). `None` (the default) inherits the ambient
    /// [`losac_sim::solver_kind`] — sparse unless overridden. Used by the
    /// sparse-vs-dense ablation bench and equivalence tests.
    pub solver: Option<losac_sim::SolverKind>,
    /// Pin the device-model derivative kind for this evaluation
    /// (including its worker threads). `None` (the default) inherits the
    /// ambient [`losac_device::ekv::deriv_kind`] — analytic unless
    /// overridden. Unlike the other knobs this one is *not* bitwise
    /// neutral: finite differences perturb gm/gds/gmb in the last bits
    /// and with them the Newton trajectories, which is why the kind is
    /// part of the cache key and the analytic-vs-FD gate is
    /// tolerance-based (DESIGN §6j). Used by the FD ablation bench.
    pub deriv: Option<losac_device::DerivKind>,
    /// The evaluation scenario: process corner, temperature, supply scale
    /// and optional mismatch draw (see [`losac_tech::Scenario`]). Unlike
    /// the other knobs this changes *what* is measured, not how: the
    /// netlist is built against the corner-derived technology, the
    /// circuit temperature and supply are retargeted, and mismatch
    /// deltas are applied per device. It is therefore part of the cache
    /// key — but only when non-nominal, so legacy cache entries (in
    /// memory and in `LSEC v1` files on disk) keep their exact key bytes
    /// and the nominal scenario stays bitwise identical to the
    /// historical scenario-free path.
    pub scenario: Scenario,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            cache: None,
            solver: None,
            deriv: None,
            scenario: Scenario::nominal(),
        }
    }
}

impl EvalOptions {
    /// A builder starting from [`EvalOptions::default`]. The struct is
    /// `#[non_exhaustive]`, so downstream crates construct it through
    /// this builder (or the `with_*` conveniences) — new knobs are then
    /// non-breaking.
    pub fn builder() -> EvalOptionsBuilder {
        EvalOptionsBuilder::default()
    }

    /// Same options with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same options evaluating through `cache`.
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Same options pinned to `solver` (see [`EvalOptions::solver`]).
    pub fn with_solver(mut self, solver: losac_sim::SolverKind) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Same options pinned to `deriv` (see [`EvalOptions::deriv`]).
    pub fn with_deriv(mut self, deriv: losac_device::DerivKind) -> Self {
        self.deriv = Some(deriv);
        self
    }

    /// Same options evaluating under `scenario` (see
    /// [`EvalOptions::scenario`]).
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// The effective thread count: `0` resolves to the machine's
    /// available parallelism, and explicit counts are clamped to it —
    /// on a 1-CPU container `threads: 4` runs serially instead of
    /// paying thread-spawn overhead for nothing (results are bitwise
    /// identical at any thread count).
    pub fn resolved_threads(&self) -> usize {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if self.threads == 0 {
            available
        } else {
            self.threads.min(available)
        }
    }
}

/// Builder for [`EvalOptions`] (see [`EvalOptions::builder`]).
///
/// `build` is infallible: every knob is an optimisation with a valid
/// default, so there is nothing to validate — unlike
/// `FlowOptionsBuilder`, whose numeric ranges can be inconsistent.
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the EvalOptions"]
pub struct EvalOptionsBuilder {
    opts: EvalOptions,
}

impl EvalOptionsBuilder {
    /// Worker threads (see [`EvalOptions::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Evaluate through `cache` (see [`EvalOptions::cache`]).
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.opts.cache = Some(cache);
        self
    }

    /// Pin the linear-solver kernel (see [`EvalOptions::solver`]).
    pub fn with_solver(mut self, solver: losac_sim::SolverKind) -> Self {
        self.opts.solver = Some(solver);
        self
    }

    /// Pin the device-model derivative kind (see [`EvalOptions::deriv`]).
    pub fn with_deriv(mut self, deriv: losac_device::DerivKind) -> Self {
        self.opts.deriv = Some(deriv);
        self
    }

    /// Evaluate under `scenario` (see [`EvalOptions::scenario`]).
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.opts.scenario = scenario;
        self
    }

    /// The finished options.
    pub fn build(self) -> EvalOptions {
        self.opts
    }
}

/// The full identity of one evaluation: the 64-bit FNV hash used for
/// bucket selection plus the exact byte stream that produced it. The
/// bytes are compared on lookup, so two designs that collide on the hash
/// can never alias each other's [`Performance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EvalKey {
    pub(crate) hash: u64,
    pub(crate) bytes: Box<[u8]>,
}

#[derive(Debug)]
struct CacheEntry {
    bytes: Box<[u8]>,
    perf: Performance,
}

/// A keyed memo of completed evaluations.
///
/// The synthesis loop re-evaluates the same sizing under the same
/// parasitic feedback whenever the outer iteration converges (and the
/// batch engine evaluates identical jobs across workers); this cache
/// returns the stored [`Performance`] instead of re-simulating. Hits and
/// misses are counted on `sizing.eval.cache_hit` / `sizing.eval.cache_miss`.
///
/// Keys quantise every float (see [`FnvHasher::write_f64`]) and store
/// the exact quantised byte stream alongside the hash: a lookup whose
/// hash matches but whose bytes do not is a *collision*, counted on
/// `sizing.eval.cache_collision` and served as a miss. (An earlier
/// version keyed on the bare 64-bit hash and would have returned the
/// colliding design's numbers as a hit.)
///
/// A cache opened with [`EvalCache::persistent`] additionally backs
/// every entry with a content-addressed file (see `persist.rs`):
/// memory misses probe the directory, verified disk entries are served
/// as ordinary hits (plus `sizing.eval.cache_disk_hit`) and lazily
/// re-populate memory, and fresh evaluations are written through with
/// temp-file + atomic rename, so the cache survives the process and is
/// shared across concurrent daemon runs.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, Vec<CacheEntry>>>,
    disk: Option<crate::persist::DiskStore>,
}

impl EvalCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache persisted under `dir` (created if needed), shared across
    /// processes and daemon restarts. Entries are loaded lazily — opening
    /// a warm directory costs nothing until a key is probed.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn persistent(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        Ok(Self {
            map: Mutex::new(HashMap::new()),
            disk: Some(crate::persist::DiskStore::open(dir.into())?),
        })
    }

    /// The backing directory, when the cache is persistent.
    pub fn disk_dir(&self) -> Option<&std::path::Path> {
        self.disk.as_ref().map(|d| d.dir())
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock the map, tolerating poisoning: a worker that panicked while
    /// holding the lock can only have been *reading*, or inserting a
    /// fully-formed entry, so the data is still consistent — and the
    /// cache must keep serving the surviving workers of the batch.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<CacheEntry>>> {
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lookup(&self, key: &EvalKey) -> Option<Performance> {
        let memory_hit = {
            let map = self.lock();
            let bucket = map.get(&key.hash);
            let hit =
                bucket.and_then(|b| b.iter().find(|e| *e.bytes == *key.bytes).map(|e| e.perf));
            if hit.is_none() && bucket.is_some_and(|b| !b.is_empty()) {
                EVAL_CACHE_COLLISION.incr();
            }
            hit
        };
        if let Some(perf) = memory_hit {
            EVAL_CACHE_HIT.incr();
            return Some(perf);
        }
        // Memory miss: probe the disk layer (byte-verified — a corrupt or
        // colliding file is a miss, never a wrong hit) and re-populate
        // memory without writing back to disk.
        if let Some(perf) = self.disk.as_ref().and_then(|d| d.load(key)) {
            EVAL_CACHE_HIT.incr();
            self.insert_memory(key, perf);
            return Some(perf);
        }
        EVAL_CACHE_MISS.incr();
        None
    }

    fn store(&self, key: &EvalKey, perf: Performance) {
        if self.insert_memory(key, perf) {
            if let Some(disk) = &self.disk {
                disk.save(key, &perf);
            }
        }
    }

    /// Insert into the in-memory map only; `true` when the entry was new.
    fn insert_memory(&self, key: &EvalKey, perf: Performance) -> bool {
        let mut map = self.lock();
        let bucket = map.entry(key.hash).or_default();
        if bucket.iter().any(|e| *e.bytes == *key.bytes) {
            return false;
        }
        bucket.push(CacheEntry {
            bytes: key.bytes.clone(),
            perf,
        });
        true
    }
}

/// FNV-1a accumulator used to build [`EvalCache`] keys.
///
/// Floats are quantised before hashing so that values differing only in
/// the last few mantissa bits (float noise from a different summation
/// order upstream) land on the same key. Topologies use this in
/// [`Topology::write_fingerprint`] so quantisation is uniform across the
/// whole key.
///
/// Besides the rolling 64-bit hash, the hasher records every mixed byte;
/// the cache stores that byte stream with each entry and verifies it on
/// lookup, turning a hash collision into a counted miss instead of a
/// wrong answer.
#[derive(Debug, Clone)]
pub struct FnvHasher {
    hash: u64,
    bytes: Vec<u8>,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: Vec::new(),
        }
    }

    #[inline]
    fn mix_byte(&mut self, b: u8) {
        self.hash ^= b as u64;
        self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        self.bytes.push(b);
    }

    /// Mix raw 64 bits.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.mix_byte(b);
        }
    }

    /// Mix a string (length-prefixed, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.mix_byte(b);
        }
    }

    /// Mix a float, quantised by clearing the low 20 mantissa bits
    /// (~2·10⁻¹⁰ relative) and folding `-0.0` onto `+0.0`.
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v == 0.0 { 0 } else { v.to_bits() & !0xF_FFFF };
        self.write_u64(bits);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// The full cache key: hash plus the recorded byte stream.
    pub(crate) fn into_key(self) -> EvalKey {
        EvalKey {
            hash: self.hash,
            bytes: self.bytes.into_boxed_slice(),
        }
    }
}

/// Mix the fingerprint parts every topology shares: the sized-device map
/// (sorted by name, so `HashMap` order cannot perturb the key) and the
/// spec block. Topologies add their bias voltages, currents and passives
/// on top.
pub fn hash_common_fingerprint(
    h: &mut FnvHasher,
    devices: &HashMap<String, crate::ota::folded_cascode::SizedDevice>,
    specs: &OtaSpecs,
) {
    let mut sorted: Vec<_> = devices.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    for (name, d) in sorted {
        h.write_str(name);
        h.write_u64(matches!(d.polarity, losac_tech::Polarity::Pmos) as u64);
        h.write_f64(d.w);
        h.write_f64(d.l);
    }
    h.write_f64(specs.vdd);
    h.write_f64(specs.gbw);
    h.write_f64(specs.phase_margin);
    h.write_f64(specs.c_load);
    h.write_f64(specs.input_cm_range.0);
    h.write_f64(specs.input_cm_range.1);
    h.write_f64(specs.output_range.0);
    h.write_f64(specs.output_range.1);
}

/// Cache key for one evaluation, or `None` when the amplifier does not
/// fingerprint itself.
fn eval_key(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
    scenario: &Scenario,
) -> Option<EvalKey> {
    let mut h = FnvHasher::new();
    h.write_str(ota.topology_name());
    if !ota.write_fingerprint(&mut h) {
        return None;
    }
    hash_technology(&mut h, tech);
    hash_mode(&mut h, mode);
    // The derivative kind perturbs Newton trajectories (unlike the solver
    // kernel, which is bitwise neutral), so an FD ablation run must not
    // serve — or poison — analytic entries through a shared (possibly
    // persistent) cache.
    if losac_device::deriv_kind() == losac_device::DerivKind::FiniteDifference {
        h.write_str("deriv=fd");
    }
    // The scenario is hashed only when non-nominal: the nominal scenario
    // must produce the exact historical key bytes so entries persisted by
    // scenario-unaware versions (LSEC v1 files, warm daemon caches) keep
    // hitting.
    if !scenario.is_nominal() {
        hash_scenario(&mut h, scenario);
    }
    Some(h.into_key())
}

/// Mix a non-nominal scenario into the key: every coordinate that alters
/// the measurement — corner, temperature, supply scale and the mismatch
/// address. The leading marker string keeps the byte stream unambiguous
/// against the optional `deriv=fd` marker.
fn hash_scenario(h: &mut FnvHasher, scenario: &Scenario) {
    h.write_str("scenario");
    h.write_u64(match scenario.pvt.corner {
        Corner::Typical => 0,
        Corner::Slow => 1,
        Corner::Fast => 2,
    });
    h.write_f64(scenario.pvt.temp_c);
    h.write_f64(scenario.pvt.vdd_scale);
    match &scenario.mismatch {
        None => h.write_u64(0),
        Some(m) => {
            h.write_u64(1);
            h.write_u64(m.seed);
            h.write_u64(u64::from(m.sample));
        }
    }
}

/// A scenario prepared for one evaluation: the corner-derived technology
/// plus the netlist patches (temperature, supply retarget, per-device
/// mismatch deltas). Preparing once and reusing it across the pipeline's
/// netlist builds keeps the corner derivation off the per-analysis path
/// and guarantees every testbench of the evaluation sees the same die.
pub(crate) struct ScenarioEnv<'a> {
    tech: Cow<'a, Technology>,
    scenario: Scenario,
}

impl<'a> ScenarioEnv<'a> {
    pub(crate) fn prepare(tech: &'a Technology, scenario: Scenario) -> Self {
        // The Typical corner borrows: no clone, and — crucially for the
        // nominal-identity gate — exactly the caller's technology value.
        let tech = if scenario.pvt.corner == Corner::Typical {
            Cow::Borrowed(tech)
        } else {
            Cow::Owned(scenario.pvt.derive(tech))
        };
        Self { tech, scenario }
    }

    fn nominal(tech: &'a Technology) -> Self {
        Self::prepare(tech, Scenario::nominal())
    }

    /// Build the amplifier netlist under this scenario: corner
    /// technology, then retarget the circuit temperature and supply and
    /// apply the mismatch draw. Every patch is skipped at its nominal
    /// value, so the nominal scenario returns the exact circuit the
    /// plain `ota.netlist` call produces.
    fn netlist(&self, ota: &dyn Topology, mode: &ParasiticMode, drive: InputDrive) -> Circuit {
        let mut c = ota.netlist(&self.tech, mode, drive);
        let pvt = &self.scenario.pvt;
        if pvt.temp_c != NOMINAL_TEMP_C {
            c.set_temperature(pvt.temp_k());
        }
        if pvt.vdd_scale != 1.0 {
            // A topology without a `vdd` source has nothing to scale.
            let _ = c.set_vsource_dc("vdd", ota.specs().vdd * pvt.vdd_scale);
        }
        if let Some(draw) = &self.scenario.mismatch {
            c.for_each_mos_mut(|name, dev| {
                // Unit normals addressed by (seed, sample, device name),
                // scaled by the Pelgrom sigmas of this geometry. The
                // perturbation lands on the model card itself, which the
                // device evaluators key their caches by.
                let mm = losac_device::mismatch::PairMismatch::of(dev);
                let (g_vt, g_beta) = draw.unit_gauss(name);
                *dev = dev.with_mismatch(g_vt * mm.sigma_vt, g_beta * mm.sigma_beta);
            });
        }
        c
    }

    /// The supply rail voltage under this scenario (V). `vdd_scale` is
    /// exactly `1.0` at nominal, and `x * 1.0` is bit-exact for finite
    /// `x`, so nominal power numbers are unchanged.
    fn vdd(&self, ota: &dyn Topology) -> f64 {
        ota.specs().vdd * self.scenario.pvt.vdd_scale
    }
}

/// Mix the full identity of a technology: its name *and* the rendering
/// of every parameter field. An earlier version hashed only the name, so
/// two [`Technology`] values sharing a name but differing in model
/// parameters (a characterisation sweep, a corner variant) keyed to the
/// same cache slot and served each other's numbers.
fn hash_technology(h: &mut FnvHasher, tech: &Technology) {
    h.write_str(tech.name());
    // The Debug rendering covers every field — including ones added after
    // this function was written — at the cost of hashing text. Key
    // construction is once per evaluation; the simulations dwarf it.
    h.write_str(&format!("{tech:?}"));
}

/// Mix the full content of a parasitic mode: the case label separates
/// the four cases, and the layout feedback (when present) is hashed in
/// sorted order so `HashMap` iteration order cannot perturb the key.
fn hash_mode(h: &mut FnvHasher, mode: &ParasiticMode) {
    h.write_str(mode.case_label());
    let Some(fb) = mode.feedback() else { return };
    let mut devices: Vec<_> = fb.devices.iter().collect();
    devices.sort_by(|a, b| a.0.cmp(b.0));
    for (name, d) in devices {
        h.write_str(name);
        h.write_u64(d.folds as u64);
        h.write_u64(d.drawn_w as u64);
        for g in [&d.drain, &d.source] {
            h.write_f64(g.area);
            h.write_f64(g.perimeter);
        }
    }
    let mut nets: Vec<_> = fb.net_caps.iter().collect();
    nets.sort_by(|a, b| a.0.cmp(b.0));
    for (net, &c) in nets {
        h.write_str(net);
        h.write_f64(c);
    }
    let mut coupling: Vec<_> = fb.coupling.iter().collect();
    coupling.sort_by(|a, b| a.0.cmp(b.0));
    for ((a, b), &c) in coupling {
        h.write_str(a);
        h.write_str(b);
        h.write_f64(c);
    }
    let mut wells: Vec<_> = fb.well_caps.iter().collect();
    wells.sort_by(|a, b| a.0.cmp(b.0));
    for (net, &c) in wells {
        h.write_str(net);
        h.write_f64(c);
    }
    h.write_u64(fb.lump_coupling_to_ground as u64);
}

/// Find the differential input voltage that centres the output at the
/// spec's output mid-point, returning it together with the balanced
/// circuit and DC solution.
///
/// # Errors
///
/// Fails when DC analysis fails or the output cannot be centred within
/// ±50 mV of differential input (broken amplifier).
pub fn balance(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
) -> Result<(f64, Circuit, DcSolution), EvalError> {
    balance_env(&ScenarioEnv::nominal(tech), ota, mode)
}

/// [`balance`] under a prepared scenario. The output target and the
/// common-mode bias stay at their *spec* values even when the scenario
/// scales the supply — PVT analysis moves the rails while the testbench
/// holds the design conditions, which is exactly what makes a low-supply
/// corner fail to centre (a real, reportable failure).
fn balance_env(
    env: &ScenarioEnv<'_>,
    ota: &dyn Topology,
    mode: &ParasiticMode,
) -> Result<(f64, Circuit, DcSolution), EvalError> {
    let target = ota.specs().output_mid();
    let mut c = env.netlist(ota, mode, InputDrive::Differential { dv: 0.0 });
    let cm = ota.specs().input_cm_bias();
    let opts = DcOptions::default();

    let set_dv = |c: &mut Circuit, dv: f64| {
        c.set_vsource_dc("vinp", cm + dv / 2.0)
            .expect("vinp exists");
        c.set_vsource_dc("vinn", cm - dv / 2.0)
            .expect("vinn exists");
    };

    // One solver session for the whole bisection: only the input-source
    // values change between the ~60 solves, so the sparse kernel runs its
    // symbolic analysis once and every later solve restamps numbers only.
    let mut session = DcSession::new();
    let mut vout_at = |c: &Circuit, prev: Option<&DcSolution>| -> Result<DcSolution, EvalError> {
        let sol = match prev {
            Some(p) => session.solve_from(c, p, &opts)?,
            None => session.solve(c, &opts)?,
        };
        Ok(sol)
    };

    let (mut lo, mut hi) = (-50e-3, 50e-3);
    set_dv(&mut c, lo);
    let mut sol = vout_at(&c, None)?;
    let v_lo = sol.voltage(&c, "out");
    set_dv(&mut c, hi);
    sol = vout_at(&c, Some(&sol))?;
    let v_hi = sol.voltage(&c, "out");
    if (v_lo - target).signum() == (v_hi - target).signum() {
        return Err(EvalError::new(format!(
            "output cannot be centred: v(out) spans [{v_lo:.3}, {v_hi:.3}] V around ±50 mV input"
        )));
    }
    let rising = v_hi > v_lo;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        set_dv(&mut c, mid);
        sol = vout_at(&c, Some(&sol))?;
        let v = sol.voltage(&c, "out");
        if (v > target) == rising {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let dv = 0.5 * (lo + hi);
    set_dv(&mut c, dv);
    sol = vout_at(&c, Some(&sol))?;
    Ok((dv, c, sol))
}

/// Measure the full Table-1 performance of a sized OTA under the given
/// parasitic mode, with default [`EvalOptions`]: serial, no cache.
///
/// # Errors
///
/// Propagates any analysis failure with context.
pub fn evaluate(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
) -> Result<Performance, EvalError> {
    evaluate_with(ota, tech, mode, &EvalOptions::default())
}

/// [`evaluate`] with explicit performance knobs.
///
/// All knobs preserve the measured numbers bitwise — see [`EvalOptions`].
///
/// # Errors
///
/// Propagates any analysis failure with context.
pub fn evaluate_with(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
    opts: &EvalOptions,
) -> Result<Performance, EvalError> {
    let _span = losac_obs::span("sizing.evaluate");
    // Thread-local override, restored on return; `evaluate_uncached`
    // propagates it into the slew lane, and the sweep fan-out re-installs
    // it on its own workers.
    let _solver = opts.solver.map(losac_sim::install_solver);
    let _deriv = opts.deriv.map(losac_device::install_deriv);
    #[cfg(feature = "failpoints")]
    if let Some(action) = losac_obs::failpoint::hit("sizing.evaluate") {
        return Err(match action {
            losac_obs::failpoint::FailAction::Nan => {
                EvalError::new("injected NaN residual at `sizing.evaluate`")
            }
            _ => EvalError::new("injected failure at `sizing.evaluate`"),
        });
    }
    let key = match &opts.cache {
        Some(_) => eval_key(ota, tech, mode, &opts.scenario),
        None => None,
    };
    if let (Some(cache), Some(key)) = (&opts.cache, &key) {
        if let Some(perf) = cache.lookup(key) {
            return Ok(perf);
        }
    }
    // Latency and LU-work distributions of real (uncached) evaluations;
    // cache hits are excluded (they are counted on `sizing.eval.cache_hit`
    // and would otherwise collapse the latency percentiles to µs). The
    // factorization delta reads a process-global counter, so concurrent
    // evaluations attribute each other's work — same approximation the
    // flow telemetry makes.
    static EVAL_MS: losac_obs::Histogram = losac_obs::Histogram::new("sizing.evaluate.ms");
    static EVAL_FACTS: losac_obs::Histogram =
        losac_obs::Histogram::new("sizing.evaluate.factorizations");
    static MATRIX_FACTS: losac_obs::Counter = losac_obs::Counter::new("sim.matrix.factorizations");
    let begun = std::time::Instant::now();
    let facts_before = MATRIX_FACTS.get();
    let perf = evaluate_uncached(ota, tech, mode, opts)?;
    EVAL_MS.observe_duration(begun.elapsed());
    EVAL_FACTS.observe(MATRIX_FACTS.get().saturating_sub(facts_before) as f64);
    if let (Some(cache), Some(key)) = (&opts.cache, &key) {
        cache.store(key, perf);
    }
    Ok(perf)
}

/// The measurement pipeline behind [`evaluate_with`], after the cache.
///
/// The slew-rate transient uses its own netlist and operating point, so
/// it shares no state with the small-signal measurements; at
/// `threads >= 2` it runs on a scoped thread alongside them — same
/// arithmetic on both lanes, therefore bitwise-identical results.
/// Serially, it runs after them, exactly like the historical pipeline.
fn evaluate_uncached(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
    opts: &EvalOptions,
) -> Result<Performance, EvalError> {
    // One scenario preparation (corner-derived technology) shared by the
    // small-signal and slew lanes: both measure the same die.
    let env = ScenarioEnv::prepare(tech, opts.scenario);
    if opts.resolved_threads() >= 2 {
        // The slew lane must honour the same stop flag / deadline and use
        // the same linear-solver kernel and device-model derivative kind
        // as the calling thread: all three are thread-local, so
        // re-install the caller's on the worker.
        let interrupt = losac_sim::interrupt::current();
        let solver = losac_sim::solver_kind();
        let deriv = losac_device::deriv_kind();
        std::thread::scope(|s| {
            let env_ref = &env;
            let slew = s.spawn(move || {
                let _interrupt = interrupt.map(losac_sim::interrupt::install);
                let _solver = losac_sim::install_solver(solver);
                let _deriv = losac_device::install_deriv(deriv);
                measure_slew_rate_env(env_ref, ota, mode)
            });
            let main = small_signal(&env, ota, mode, opts);
            let slew = slew
                .join()
                .map_err(|_| EvalError::new("slew-rate measurement thread panicked"));
            let mut perf = main?;
            perf.slew_rate = slew??;
            Ok(perf)
        })
    } else {
        let mut perf = small_signal(&env, ota, mode, opts)?;
        perf.slew_rate = measure_slew_rate_env(&env, ota, mode)?;
        Ok(perf)
    }
}

/// Everything except the slew rate: balanced operating point, gain/GBW/
/// phase margin, CMRR, output resistance and noise. Returns a
/// [`Performance`] with `slew_rate` set to NaN for the caller to fill.
///
/// The balanced circuit is linearised once; the differential sweep runs
/// on it directly, and the common-mode and noise analyses restamp only
/// the excitation vector — the `G`/`C` stamps depend on the operating
/// point, not the source values, so the restamped system is the one a
/// fresh `Linearized::build` would produce and every downstream number
/// is bitwise unchanged. The CMRR and output-resistance probes are
/// single-frequency solves at the first point of the sweeps they stand
/// for (`10^(0/ppd) = 1`, so a sweep's first point is exactly
/// `fstart`). The `sim_equivalence` suite recomputes the fresh-sweep
/// pipeline as a test oracle and gates every field on it bit for bit.
fn small_signal(
    env: &ScenarioEnv<'_>,
    ota: &dyn Topology,
    mode: &ParasiticMode,
    opts: &EvalOptions,
) -> Result<Performance, EvalError> {
    let threads = opts.threads;
    // --- balanced operating point (also yields the offset) ----------------
    let (dv, mut c, dc) = balance_env(env, ota, mode)?;
    let offset = dv;
    let power = dc.supply_current(&c, "vdd") * env.vdd(ota);
    let out = c.find_node("out").expect("out node");

    // --- differential AC: gain, GBW, phase margin --------------------------
    c.set_source_ac("vinp", 0.5).expect("vinp");
    c.set_source_ac("vinn", -0.5).expect("vinn");
    let ac_opts = AcOptions {
        fstart: 10.0,
        fstop: 20e9,
        points_per_decade: 24,
        threads,
    };
    let mut lin = Linearized::build(&c, &dc);
    let ac = ac_sweep_on(&lin, &ac_opts).map_err(|e| EvalError::new(e.to_string()))?;
    let summary = bode_summary_of(&ac.freqs, ac.trace(&c, "out").iter());
    let gbw = summary
        .unity_freq
        .ok_or_else(|| EvalError::new("gain never crosses unity — no GBW"))?;
    let phase_margin = summary
        .phase_margin
        .ok_or_else(|| EvalError::new("no phase margin without a unity crossing"))?;
    let adm0 = summary.dc_gain;

    // --- common-mode AC: CMRR ----------------------------------------------
    c.set_source_ac("vinp", 1.0).expect("vinp");
    c.set_source_ac("vinn", 1.0).expect("vinn");
    lin.restamp_excitation(&c);
    let acm0 = ac_point_on(&lin, 10.0).map_err(|e| EvalError::new(e.to_string()))?[out]
        .abs()
        .max(1e-12);
    let cmrr_db = db(adm0 / acm0);

    // --- output resistance ---------------------------------------------------
    let mut c_rout = env.netlist(ota, mode, InputDrive::Differential { dv });
    c_rout.isource_ac("itest", "0", "out", 0.0, 1.0);
    let dc_rout = dc_operating_point(&c_rout, &DcOptions::default())?;
    let lin_rout = Linearized::build(&c_rout, &dc_rout);
    let row = ac_point_on(&lin_rout, 1.0).map_err(|e| EvalError::new(e.to_string()))?;
    let output_resistance = row[c_rout.find_node("out").expect("out node")].abs();

    // --- noise ----------------------------------------------------------------
    c.set_source_ac("vinp", 0.5).expect("vinp");
    c.set_source_ac("vinn", -0.5).expect("vinn");
    lin.restamp_excitation(&c);
    let freqs = log_grid(1.0, gbw.max(1e6), 12);
    let noise =
        noise_analysis_on(&lin, &freqs, out, threads).map_err(|e| EvalError::new(e.to_string()))?;
    let input_noise_rms = integrate_psd(&noise.freqs, &noise.input_psd).sqrt();
    let thermal_noise_density = noise.input_density_at(gbw / 50.0);
    let flicker_noise_density = noise.input_density_at(1.0);

    Ok(Performance {
        dc_gain_db: db(adm0),
        gbw,
        phase_margin,
        slew_rate: f64::NAN,
        cmrr_db,
        offset,
        output_resistance,
        input_noise_rms,
        thermal_noise_density,
        flicker_noise_density,
        power,
    })
}

/// Power-supply rejection ratio at low frequency (dB): the differential
/// gain divided by the supply-to-output gain, both measured at the
/// balanced operating point.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn measure_psrr(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
) -> Result<f64, EvalError> {
    let (_dv, mut c, dc) = balance_env(&ScenarioEnv::nominal(tech), ota, mode)?;
    let opts = AcOptions {
        fstart: 10.0,
        fstop: 1e3,
        points_per_decade: 4,
        threads: 1,
    };
    // Differential gain.
    c.set_source_ac("vinp", 0.5).expect("vinp");
    c.set_source_ac("vinn", -0.5).expect("vinn");
    let adm = ac_sweep(&c, &dc, &opts)
        .map_err(|e| EvalError::new(e.to_string()))?
        .magnitude(&c, "out")[0];
    // Supply gain.
    c.set_source_ac("vinp", 0.0).expect("vinp");
    c.set_source_ac("vinn", 0.0).expect("vinn");
    c.set_source_ac("vdd", 1.0).expect("vdd");
    let avdd = ac_sweep(&c, &dc, &opts)
        .map_err(|e| EvalError::new(e.to_string()))?
        .magnitude(&c, "out")[0]
        .max(1e-12);
    Ok(db(adm / avdd))
}

/// Slew rate from a unity-gain buffer step (V/s), under a prepared
/// scenario.
fn measure_slew_rate_env(
    env: &ScenarioEnv<'_>,
    ota: &dyn Topology,
    mode: &ParasiticMode,
) -> Result<f64, EvalError> {
    let mid = ota.specs().output_mid();
    let step = 0.4;
    // Time scale from the expected slew.
    let sr_est = ota.slew_estimate().max(1e3);
    let t_slew = (2.0 * step) / sr_est;
    let at = 2.0 * t_slew;
    let tstop = at + 8.0 * t_slew;
    let c = env.netlist(
        ota,
        mode,
        InputDrive::UnityBuffer {
            step_from: mid - step,
            step_to: mid + step,
            at,
            rise: t_slew / 100.0,
        },
    );
    let dc = dc_operating_point(&c, &DcOptions::default())?;
    let res = transient(
        &c,
        &dc,
        &TranOptions {
            tstop,
            dt: tstop / 1500.0,
            newton: DcOptions::default(),
        },
    )?;
    let final_v = res.final_value(&c, "out");
    if (final_v - (mid + step)).abs() > 0.2 {
        return Err(EvalError::new(format!(
            "buffer failed to settle: final {final_v:.3} V vs target {:.3} V",
            mid + step
        )));
    }
    // 10 %–90 % convention: immune to the capacitive feed-through spike at
    // the input edge.
    let v10 = mid - step + 0.2 * step;
    let v90 = mid + step - 0.2 * step;
    res.slope_between(&c, "out", v10, v90)
        .ok_or_else(|| EvalError::new("output never crossed the slew measurement levels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ota::folded_cascode::{FoldedCascodeOta, FoldedCascodePlan};

    fn setup() -> (Technology, FoldedCascodeOta) {
        let tech = Technology::cmos06();
        let ota = FoldedCascodePlan::default()
            .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
            .unwrap();
        (tech, ota)
    }

    #[test]
    fn balance_centres_output() {
        let (tech, ota) = setup();
        let (dv, c, sol) = balance(&ota, &tech, &ParasiticMode::None).unwrap();
        let vout = sol.voltage(&c, "out");
        assert!(
            (vout - ota.specs.output_mid()).abs() < 5e-3,
            "vout = {vout:.3}"
        );
        assert!(dv.abs() < 10e-3, "offset {dv:.4} V should be small");
    }

    #[test]
    fn full_evaluation_meets_specs_shape() {
        let (tech, ota) = setup();
        let p = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
        // Shape checks, not absolute numbers (the flow tests Table 1).
        assert!(
            p.dc_gain_db > 50.0 && p.dc_gain_db < 90.0,
            "gain {:.1} dB",
            p.dc_gain_db
        );
        assert!(p.gbw > 30e6 && p.gbw < 200e6, "gbw {:.1} MHz", p.gbw / 1e6);
        assert!(
            p.phase_margin > 45.0 && p.phase_margin < 90.0,
            "pm {:.1}",
            p.phase_margin
        );
        assert!(p.slew_rate > 20e6, "sr {:.1} V/µs", p.slew_rate / 1e6);
        assert!(p.cmrr_db > 60.0, "cmrr {:.1} dB", p.cmrr_db);
        assert!(p.offset.abs() < 5e-3, "offset {:.2} mV", p.offset * 1e3);
        assert!(
            p.output_resistance > 1e5 && p.output_resistance < 1e8,
            "rout {:.2} MΩ",
            p.output_resistance / 1e6
        );
        assert!(
            p.input_noise_rms > 5e-6 && p.input_noise_rms < 1e-3,
            "noise {:.1} µV",
            p.input_noise_rms * 1e6
        );
        assert!(p.thermal_noise_density < 100e-9);
        assert!(p.flicker_noise_density > p.thermal_noise_density);
        assert!(
            p.power > 0.2e-3 && p.power < 20e-3,
            "power {:.2} mW",
            p.power * 1e3
        );
    }

    fn sample_perf(tag: f64) -> Performance {
        Performance {
            dc_gain_db: 60.0 + tag,
            gbw: 50e6,
            phase_margin: 60.0,
            slew_rate: 40e6,
            cmrr_db: 80.0,
            offset: 1e-3,
            output_resistance: 1e6,
            input_noise_rms: 50e-6,
            thermal_noise_density: 10e-9,
            flicker_noise_density: 1e-6,
            power: 1e-3,
        }
    }

    #[test]
    fn hash_collision_is_a_counted_miss_not_a_hit() {
        // Regression: the cache used to key on the bare 64-bit hash, so
        // two designs colliding on it served each other's numbers.
        let cache = EvalCache::new();
        let a = EvalKey {
            hash: 42,
            bytes: b"design-a".to_vec().into_boxed_slice(),
        };
        let b = EvalKey {
            hash: 42,
            bytes: b"design-b".to_vec().into_boxed_slice(),
        };
        cache.store(&a, sample_perf(0.0));
        let collisions_before = EVAL_CACHE_COLLISION.get();
        assert_eq!(
            cache.lookup(&b),
            None,
            "same hash, different key bytes must miss"
        );
        assert_eq!(EVAL_CACHE_COLLISION.get(), collisions_before + 1);
        cache.store(&b, sample_perf(1.0));
        assert_eq!(cache.len(), 2, "both entries live in the same bucket");
        assert_eq!(cache.lookup(&a), Some(sample_perf(0.0)));
        assert_eq!(cache.lookup(&b), Some(sample_perf(1.0)));
        // Re-storing an existing key does not duplicate the entry.
        cache.store(&a, sample_perf(0.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn topologies_with_identical_fingerprints_do_not_alias() {
        // Regression: before the topology-name prefix, two different
        // topologies emitting identical `write_fingerprint` byte streams
        // keyed identically in a shared cache — the second topology was
        // served the first one's numbers.
        #[derive(Debug)]
        struct Twin(&'static str);
        impl Topology for Twin {
            fn topology_name(&self) -> &'static str {
                self.0
            }
            fn specs(&self) -> &OtaSpecs {
                unreachable!("key construction never reads specs")
            }
            fn netlist(
                &self,
                _tech: &Technology,
                _mode: &ParasiticMode,
                _drive: InputDrive,
            ) -> Circuit {
                unreachable!("key construction never builds a netlist")
            }
            fn slew_estimate(&self) -> f64 {
                unreachable!("key construction never estimates slew")
            }
            fn write_fingerprint(&self, h: &mut FnvHasher) -> bool {
                // Both twins emit the *same* byte stream.
                h.write_str("identical-stream");
                h.write_f64(1.25);
                true
            }
            fn devices(&self) -> &HashMap<String, crate::ota::folded_cascode::SizedDevice> {
                unreachable!("key construction never reads devices")
            }
            fn devices_mut(
                &mut self,
            ) -> &mut HashMap<String, crate::ota::folded_cascode::SizedDevice> {
                unreachable!("key construction never reads devices")
            }
            fn layout_spec(&self) -> crate::topology::TopologyLayoutSpec {
                unreachable!("key construction never plans a layout")
            }
            fn supply_current_estimate(&self) -> f64 {
                unreachable!("key construction never estimates supply current")
            }
        }

        let tech = Technology::cmos06();
        let nom = Scenario::nominal();
        let key_a = eval_key(&Twin("topology_a"), &tech, &ParasiticMode::None, &nom).unwrap();
        let key_b = eval_key(&Twin("topology_b"), &tech, &ParasiticMode::None, &nom).unwrap();
        assert_ne!(
            key_a.bytes, key_b.bytes,
            "the topology name must separate the byte streams"
        );
        let cache = EvalCache::new();
        cache.store(&key_a, sample_perf(0.0));
        assert_eq!(
            cache.lookup(&key_b),
            None,
            "a different topology with an identical fingerprint must miss"
        );
        assert_eq!(cache.lookup(&key_a), Some(sample_perf(0.0)));
    }

    #[test]
    fn fingerprint_hash_and_bytes_are_deterministic() {
        let write = |h: &mut FnvHasher| {
            h.write_str("abc");
            h.write_f64(1.5);
            h.write_u64(7);
        };
        let (mut h1, mut h2) = (FnvHasher::new(), FnvHasher::new());
        write(&mut h1);
        write(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        assert_eq!(h1.into_key(), h2.into_key());
        let mut h3 = FnvHasher::new();
        h3.write_str("abd");
        h3.write_f64(1.5);
        h3.write_u64(7);
        let mut h4 = FnvHasher::new();
        write(&mut h4);
        assert_ne!(h3.into_key().bytes, h4.into_key().bytes);
    }

    #[test]
    fn same_name_techs_do_not_share_cache_entries() {
        // Regression: the cache key used to hash only `tech.name()`, so
        // two technologies sharing a name but differing in their model
        // cards keyed identically — the second evaluation was served the
        // first one's numbers.
        let (tech_a, ota) = setup();
        let mut tech_b = tech_a.clone();
        tech_b.nmos.vt0 *= 1.05; // same name, different model card
        let cache = Arc::new(EvalCache::new());
        let opts = EvalOptions::default().with_cache(cache.clone());
        let p_a = evaluate_with(&ota, &tech_a, &ParasiticMode::None, &opts).unwrap();
        let p_b = evaluate_with(&ota, &tech_b, &ParasiticMode::None, &opts).unwrap();
        assert_eq!(cache.len(), 2, "each technology gets its own entry");
        assert_ne!(
            p_a.gbw, p_b.gbw,
            "a different model card must change the measurement"
        );
        // Identical inputs still hit. (The hit counter is process-global,
        // so another test may bump it concurrently: assert growth, not an
        // exact delta.)
        let hits_before = EVAL_CACHE_HIT.get();
        let again = evaluate_with(&ota, &tech_a, &ParasiticMode::None, &opts).unwrap();
        assert_eq!(again, p_a);
        assert!(EVAL_CACHE_HIT.get() > hits_before);
    }

    #[test]
    fn nominal_scenario_key_matches_the_legacy_byte_stream() {
        // The nominal scenario must not leave a trace in the key: entries
        // persisted by scenario-unaware builds (and warm daemon caches)
        // keep hitting only if the byte streams are identical.
        let (tech, ota) = setup();
        let key = eval_key(&ota, &tech, &ParasiticMode::None, &Scenario::nominal()).unwrap();
        let mut h = FnvHasher::new();
        h.write_str(ota.topology_name());
        assert!(ota.write_fingerprint(&mut h));
        hash_technology(&mut h, &tech);
        hash_mode(&mut h, &ParasiticMode::None);
        let legacy = h.into_key();
        assert_eq!(key, legacy, "nominal scenario must be key-invisible");
    }

    /// A fixed layout feedback over `topo`'s devices: every field
    /// `hash_mode` reads is populated, so the `Full` key covers it all.
    fn pinned_full_mode(topo: &dyn crate::topology::Topology) -> ParasiticMode {
        use crate::feedback::{DeviceFeedback, DiffGeom, LayoutFeedback};
        let mut names: Vec<_> = topo.devices().keys().cloned().collect();
        names.sort();
        let mut fb = LayoutFeedback::default();
        for (k, name) in names.into_iter().enumerate() {
            let k = k as f64;
            fb.devices.insert(
                name,
                DeviceFeedback {
                    folds: 2,
                    drawn_w: 10_000 + 200 * k as i64,
                    drain: DiffGeom {
                        area: (1.0 + k) * 1e-12,
                        perimeter: (4.0 + k) * 1e-6,
                    },
                    source: DiffGeom {
                        area: (2.0 + k) * 1e-12,
                        perimeter: (6.0 + k) * 1e-6,
                    },
                },
            );
        }
        fb.net_caps.insert("out".into(), 12e-15);
        fb.net_caps.insert("tail".into(), 7e-15);
        fb.coupling.insert(("out".into(), "tail".into()), 1.5e-15);
        fb.well_caps.insert("vdd".into(), 40e-15);
        ParasiticMode::Full(fb)
    }

    #[test]
    fn builtin_topology_cache_keys_are_pinned() {
        // Persisted LSEC v1 entries and warm daemon caches hit only while
        // the key byte stream of an unchanged design is unchanged. Pin it
        // (FNV hash and length of the bytes) for every built-in topology
        // at the nominal scenario, with and without layout feedback.
        let tech = Technology::cmos06();
        let registry = crate::topology::TopologyRegistry::builtin();
        let expected: [(&str, [(u64, usize); 2]); 3] = [
            (
                "folded_cascode",
                [(0xe70db76ffcd28b08, 2352), (0xd477a6db8ce8289c, 3105)],
            ),
            (
                "telescopic",
                [(0x11e670912557f05c, 2246), (0xdd8d400103b6ab3d, 2881)],
            ),
            (
                "two_stage",
                [(0xb0d1d671ba567143, 2179), (0x860ffe58e5515efd, 2692)],
            ),
        ];
        let got = expected.map(|(name, _)| {
            let plan = registry.get(name).unwrap();
            let topo = plan
                .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
                .unwrap();
            let modes = [ParasiticMode::None, pinned_full_mode(topo.as_ref())];
            let pins = modes.map(|mode| {
                let key = eval_key(topo.as_ref(), &tech, &mode, &Scenario::nominal()).unwrap();
                (key.hash, key.bytes.len())
            });
            (name, pins)
        });
        assert_eq!(got, expected, "built-in cache key bytes changed");
    }

    #[test]
    fn scenarios_discriminate_cache_keys_in_memory_and_on_disk() {
        // Same topology, technology, sizes and mode; two scenarios. Both
        // cache layers must keep the entries apart.
        let (tech, ota) = setup();
        let mode = ParasiticMode::None;
        let key_ss = eval_key(
            &ota,
            &tech,
            &mode,
            &Scenario::corner(losac_tech::Corner::Slow),
        )
        .unwrap();
        let key_hot = eval_key(
            &ota,
            &tech,
            &mode,
            &Scenario::at(losac_tech::Pvt::new(losac_tech::Corner::Slow, 125.0, 1.0)),
        )
        .unwrap();
        let key_mc0 =
            eval_key(&ota, &tech, &mode, &Scenario::nominal().with_mismatch(7, 0)).unwrap();
        let key_mc1 =
            eval_key(&ota, &tech, &mode, &Scenario::nominal().with_mismatch(7, 1)).unwrap();
        let key_nom = eval_key(&ota, &tech, &mode, &Scenario::nominal()).unwrap();
        let keys = [&key_nom, &key_ss, &key_hot, &key_mc0, &key_mc1];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a.bytes, b.bytes, "scenario keys must not alias");
            }
        }

        // In memory: each key owns its slot.
        let cache = EvalCache::new();
        cache.store(&key_nom, sample_perf(0.0));
        cache.store(&key_ss, sample_perf(1.0));
        assert_eq!(cache.lookup(&key_nom), Some(sample_perf(0.0)));
        assert_eq!(cache.lookup(&key_ss), Some(sample_perf(1.0)));
        assert_eq!(cache.lookup(&key_hot), None);

        // On disk (LSEC v1): distinct content-addressed entries that
        // survive a re-open and never serve each other.
        let dir =
            std::env::temp_dir().join(format!("losac-eval-scenario-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = EvalCache::persistent(&dir).unwrap();
        disk.store(&key_nom, sample_perf(0.0));
        disk.store(&key_ss, sample_perf(1.0));
        let reopened = EvalCache::persistent(&dir).unwrap();
        assert_eq!(reopened.lookup(&key_nom), Some(sample_perf(0.0)));
        assert_eq!(reopened.lookup(&key_ss), Some(sample_perf(1.0)));
        assert_eq!(reopened.lookup(&key_mc0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nominal_scenario_is_bitwise_identical_and_scenarios_shift_numbers() {
        let (tech, ota) = setup();
        let base = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
        // The nominal scenario is the identity: exactly the scenario-free
        // numbers, bit for bit.
        let nom = evaluate_with(
            &ota,
            &tech,
            &ParasiticMode::None,
            &EvalOptions::default().with_scenario(Scenario::nominal()),
        )
        .unwrap();
        assert_eq!(base, nom);
        // A slow corner, a hot die and a mismatch draw each move the
        // measurement — and all stay measurable on the paper's example.
        for scenario in [
            Scenario::corner(Corner::Slow),
            Scenario::at(losac_tech::Pvt::new(Corner::Typical, 125.0, 1.0)),
            Scenario::nominal().with_mismatch(7, 0),
        ] {
            let p = evaluate_with(
                &ota,
                &tech,
                &ParasiticMode::None,
                &EvalOptions::default().with_scenario(scenario),
            )
            .unwrap();
            assert_ne!(p, base, "{scenario} must not be the identity");
            assert!(p.gbw > 1e6, "{scenario}: gbw {:.1} MHz", p.gbw / 1e6);
        }
        // A mismatch draw produces a non-trivial offset shift.
        let mc = evaluate_with(
            &ota,
            &tech,
            &ParasiticMode::None,
            &EvalOptions::default().with_scenario(Scenario::nominal().with_mismatch(7, 0)),
        )
        .unwrap();
        assert_ne!(mc.offset, base.offset);
    }

    #[test]
    fn psrr_is_substantial() {
        let (tech, ota) = setup();
        let psrr = measure_psrr(&ota, &tech, &ParasiticMode::None).unwrap();
        assert!(psrr > 30.0, "PSRR = {psrr:.1} dB");
    }

    #[test]
    fn display_formats_all_rows() {
        let (tech, ota) = setup();
        let p = evaluate(&ota, &tech, &ParasiticMode::None).unwrap();
        let text = p.to_string();
        for key in [
            "DC gain",
            "GBW",
            "Phase margin",
            "Slew rate",
            "CMRR",
            "Power",
        ] {
            assert!(text.contains(key), "missing row {key}");
        }
    }
}
