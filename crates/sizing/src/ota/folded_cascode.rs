//! The folded-cascode OTA (the paper's Fig. 4) and its knowledge-based
//! design plan.
//!
//! Topology (PMOS input pair, NMOS folded branch, cascoded PMOS mirror
//! load):
//!
//! ```text
//!   VDD ──┬────────┬──────────┬─────────┐
//!         │mptail  │mp3       │mp4      │
//!         │        a│         b│        │
//!        tail     mp3c        mp4c      │
//!   vinp─┤mp1      │m─────────│──out    │    (m = mirror gate node)
//!   vinn─┤mp2      │mn1c      │mn2c     │
//!         │       f1│        f2│        │
//!         ├── f1 ───┘          │        │
//!         └── f2 ──────────────┘        │
//!        mn5(f1)  mn6(f2)  → GND        │
//! ```
//!
//! The plan follows COMDIAC's procedure (§4 of the paper): fix the
//! effective gate voltages from the range specifications, estimate the
//! currents from the gain–bandwidth product, size widths by monotonic
//! iteration at fixed V_GS − V_TH, then iterate the cascode current until
//! the phase margin is met; every evaluation uses the same EKV model the
//! simulator uses.

use crate::eval::{FnvHasher, InputDrive};
use crate::feedback::{DiffGeom, ParasiticMode};
use crate::specs::OtaSpecs;
use crate::topology::{
    GroupDevice, LayoutModule, MatchedGroup, SingleDevice, Topology, TopologyLayoutSpec,
    TopologyPlan,
};
use losac_device::caps::intrinsic_caps;
use losac_device::ekv::{evaluate, threshold};
use losac_device::folding::{DiffusionGeometry, FoldSpec};
use losac_device::solve::{vgs_for_current, width_for_current, WidthBounds};
use losac_device::Mosfet;
use losac_sim::netlist::{Circuit, DiffGeom as SimDiffGeom, Waveform};
use losac_tech::units::m_to_nm;
use losac_tech::{Polarity, Technology};
use std::collections::HashMap;
use std::fmt;

/// One sized transistor of the OTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizedDevice {
    /// Polarity.
    pub polarity: Polarity,
    /// Channel width (m) — the *synthesised* width; layout feedback may
    /// replace it with the drawn width.
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
}

/// Bias voltages of the OTA (all referred to ground).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasVoltages {
    /// Tail current source gate (VP1 in the paper's figure).
    pub vp1: f64,
    /// Bottom current-sink gates (VP2 in the figure).
    pub vbn: f64,
    /// NMOS cascode gates.
    pub vc1: f64,
    /// PMOS cascode gates.
    pub vc3: f64,
}

/// Branch currents chosen by the plan (A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchCurrents {
    /// Tail current (both input devices together).
    pub i_tail: f64,
    /// Per-side input device current.
    pub i_in: f64,
    /// Cascode (output branch) current.
    pub i_casc: f64,
    /// Bottom sink current (= i_in + i_casc).
    pub i_sink: f64,
}

/// A fully sized folded-cascode OTA.
#[derive(Debug, Clone)]
pub struct FoldedCascodeOta {
    /// Devices by name (`mp1`, `mp2`, `mptail`, `mn5`, `mn6`, `mn1c`,
    /// `mn2c`, `mp3`, `mp4`, `mp3c`, `mp4c`).
    pub devices: HashMap<String, SizedDevice>,
    /// Bias voltages.
    pub bias: BiasVoltages,
    /// Branch currents.
    pub currents: BranchCurrents,
    /// The specs this instance was sized for.
    pub specs: OtaSpecs,
    /// Sizing iterations spent (outer loops).
    pub iterations: usize,
}

/// The device names of the topology, in a stable order.
pub const DEVICE_NAMES: [&str; 11] = [
    "mp1", "mp2", "mptail", "mn5", "mn6", "mn1c", "mn2c", "mp3", "mp4", "mp3c", "mp4c",
];

/// Circuit nets of the topology (excluding the input/bias sources).
pub const SIGNAL_NETS: [&str; 8] = ["tail", "f1", "f2", "m", "a", "b", "out", "vdd"];

/// Sizing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingError {
    message: String,
}

impl SizingError {
    pub(crate) fn new(m: impl Into<String>) -> Self {
        Self { message: m.into() }
    }
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sizing failed: {}", self.message)
    }
}

impl std::error::Error for SizingError {}

/// Tunable knobs of the folded-cascode plan. The defaults reproduce the
/// paper's example; "other specifications … can be controlled by fixing
/// certain transistor lengths or biasing points" (§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldedCascodePlan {
    /// Input-pair channel length (m).
    pub l_in: f64,
    /// Tail source channel length (m).
    pub l_tail: f64,
    /// Bottom sink channel length (m).
    pub l_sink: f64,
    /// NMOS cascode channel length (m).
    pub l_casc_n: f64,
    /// PMOS mirror channel length (m).
    pub l_mirror: f64,
    /// PMOS cascode channel length (m).
    pub l_casc_p: f64,
    /// Saturation margin added on top of each V_Dsat when placing bias
    /// points (V).
    pub sat_margin: f64,
    /// Extra gm budget (×) to absorb estimation error.
    pub gm_margin: f64,
    /// Extra phase-margin target (degrees) over the spec during the
    /// analytic loop (the verification simulates the real thing).
    pub pm_headroom: f64,
}

impl Default for FoldedCascodePlan {
    fn default() -> Self {
        Self {
            l_in: 1.0e-6,
            l_tail: 1.0e-6,
            l_sink: 1.2e-6,
            l_casc_n: 0.8e-6,
            l_mirror: 1.2e-6,
            l_casc_p: 0.8e-6,
            sat_margin: 0.10,
            gm_margin: 1.02,
            pm_headroom: 2.0,
        }
    }
}

impl FoldedCascodePlan {
    /// Size the OTA for `specs` in `tech`, accounting for parasitics per
    /// `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`SizingError`] when the specs are invalid or a device
    /// cannot deliver its target (width bounds, weak-inversion ceiling).
    pub fn size(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<FoldedCascodeOta, SizingError> {
        let _span = losac_obs::span_with(
            "sizing.size",
            vec![losac_obs::f("topology", "folded_cascode")],
        );
        specs.validate().map_err(SizingError::new)?;
        let _ = &tech.nmos;
        let pp = &tech.pmos;
        let vdd = specs.vdd;

        // --- operating-point choices from the range specs ------------------
        // Output low: two stacked NMOS saturations; output high: two PMOS.
        let veff_n = (specs.output_range.0 / 2.0 - 0.02).clamp(0.08, 0.6);
        let veff_p = ((vdd - specs.output_range.1) / 2.0 - 0.02).clamp(0.08, 0.8);
        // Input side: CM_max = VDD − VDsat_tail − |VTP| − Veff_in.
        let headroom = vdd - pp.vt0 - specs.input_cm_range.1;
        if headroom < 0.15 {
            return Err(SizingError::new(format!(
                "input CM high of {} V leaves only {headroom:.2} V for the tail and input pair",
                specs.input_cm_range.1
            )));
        }
        let veff_in = (0.4 * headroom).clamp(0.10, 0.45);
        let veff_tail = (headroom - veff_in - 0.05).clamp(0.10, 0.8);

        // gm/ID of the input device at its effective gate voltage is
        // width-independent: evaluate any reference width.
        let m_ref = Mosfet::new(*pp, 10e-6, self.l_in);
        let op_ref = evaluate(&m_ref, -(pp.vt0 + veff_in), -1.0, 0.0);
        let gm_over_id = op_ref.gm_over_id();
        if gm_over_id <= 0.0 {
            return Err(SizingError::new(
                "input device does not transconduct at this bias",
            ));
        }

        // --- analytic sizing pass, parameterised by the calibration -------
        // `gm_cal` scales the transconductance budget, `k_casc_seed` seeds
        // the cascode-current ratio; both are trimmed by the
        // measurement-based calibration loop below (the paper: "if the
        // resulting GBW is not satisfactory, a new current estimation is
        // calculated and the whole process is repeated").
        let analytic_pass = |gm_cal: f64,
                             k_casc_seed: f64|
         -> Result<
            (HashMap<String, SizedDevice>, BranchCurrents, f64, usize),
            SizingError,
        > {
            let mut c_out_par = parasitic_on(mode, "out"); // routing and well
            let mut k_casc = k_casc_seed;
            let mut sizes: HashMap<String, SizedDevice> = HashMap::new();
            let mut currents = BranchCurrents {
                i_tail: 0.0,
                i_in: 0.0,
                i_casc: 0.0,
                i_sink: 0.0,
            };
            let mut iterations = 0;

            for outer in 0..12 {
                iterations = outer + 1;
                let c_total = specs.c_load + c_out_par + self_loading(&sizes, tech, mode);
                let gm1 =
                    2.0 * std::f64::consts::PI * specs.gbw * c_total * self.gm_margin * gm_cal;
                let i_in = gm1 / gm_over_id;
                let i_tail = 2.0 * i_in;
                let i_casc = k_casc * i_in;
                let i_sink = i_in + i_casc;
                currents = BranchCurrents {
                    i_tail,
                    i_in,
                    i_casc,
                    i_sink,
                };

                // Widths at fixed Veff (monotonic numerical iteration inside
                // the solver). Nominal VDS values put each device near its
                // eventual operating point.
                let bounds = WidthBounds::default();
                let vf = veff_n + self.sat_margin; // fold-node voltage
                let mut size = |name: &str,
                                pol: Polarity,
                                l: f64,
                                veff: f64,
                                i: f64,
                                vds: f64|
                 -> Result<(), SizingError> {
                    let params = tech.mos(pol);
                    let sgn = pol.sign();
                    let vgs = sgn * (threshold(params, 0.0) + veff);
                    let w = width_for_current(params, l, vgs, sgn * vds, 0.0, i, bounds)
                        .map_err(|e| SizingError::new(format!("{name}: {e}")))?;
                    sizes.insert(
                        name.to_owned(),
                        SizedDevice {
                            polarity: pol,
                            w,
                            l,
                        },
                    );
                    Ok(())
                };

                // Matched pairs are sized once and instantiated twice —
                // identical drawn geometry is what the matching constraints
                // in the layout rely on.
                size("mp1", Polarity::Pmos, self.l_in, veff_in, i_in, 0.9)?;
                size(
                    "mptail",
                    Polarity::Pmos,
                    self.l_tail,
                    veff_tail,
                    i_tail,
                    veff_tail + 0.2,
                )?;
                size("mn5", Polarity::Nmos, self.l_sink, veff_n, i_sink, vf)?;
                size(
                    "mn1c",
                    Polarity::Nmos,
                    self.l_casc_n,
                    veff_n,
                    i_casc,
                    veff_n + self.sat_margin,
                )?;
                size(
                    "mp3",
                    Polarity::Pmos,
                    self.l_mirror,
                    veff_p,
                    i_casc,
                    veff_p + 0.1,
                )?;
                size(
                    "mp3c",
                    Polarity::Pmos,
                    self.l_casc_p,
                    veff_p,
                    i_casc,
                    veff_p + self.sat_margin,
                )?;
                for (twin, of) in [
                    ("mp2", "mp1"),
                    ("mn6", "mn5"),
                    ("mn2c", "mn1c"),
                    ("mp4", "mp3"),
                    ("mp4c", "mp3c"),
                ] {
                    let d = sizes[of];
                    sizes.insert(twin.to_owned(), d);
                }

                // --- phase-margin estimate over the non-dominant poles ---------
                let pm = self.estimate_phase_margin(tech, specs, &sizes, &currents, mode);
                let pm_target = specs.phase_margin + self.pm_headroom;
                let c_out_new = parasitic_on(mode, "out");
                let gm1_new = 2.0
                    * std::f64::consts::PI
                    * specs.gbw
                    * (specs.c_load + c_out_new + self_loading(&sizes, tech, mode))
                    * self.gm_margin
                    * gm_cal;
                let gm_converged = (gm1_new - gm1).abs() < 0.01 * gm1;
                if pm < pm_target - 0.25 && k_casc < 4.0 {
                    // Proportional update: continuous in the feedback, so the
                    // layout-sizing loop converges to a fixed point instead of
                    // ping-ponging between quantised cascode currents.
                    let deficit = pm_target - pm;
                    k_casc = (k_casc * (1.0 + (deficit / 40.0).min(0.5))).min(4.0);
                    continue;
                }
                c_out_par = c_out_new;
                if gm_converged {
                    break;
                }
            }
            Ok((sizes, currents, k_casc, iterations))
        };

        // --- calibration loop: measure, trim, repeat -----------------------
        // Measure GBW and phase margin on the actual netlist (with the
        // mode's parasitics) and trim the current budget until both land
        // just above the specification — the numbers the paper's Table 1
        // shows are met this tightly.
        let mut gm_cal = 1.0;
        let mut k_seed = 1.0;
        let mut total_iterations = 0;
        let mut best: Option<FoldedCascodeOta> = None;
        for _round in 0..10 {
            let (sizes, currents, k_final, iterations) = analytic_pass(gm_cal, k_seed)?;
            total_iterations += iterations;
            let bias = self.bias_voltages(tech, specs, &sizes, &currents, veff_n, veff_p)?;
            let ota = FoldedCascodeOta {
                devices: sizes,
                bias,
                currents,
                specs: *specs,
                iterations: total_iterations,
            };
            let Some((fu, pm)) = quick_ac(&ota, tech, mode) else {
                // Measurement failed (should not happen for a sized OTA);
                // keep the analytic result.
                best = Some(ota);
                break;
            };
            // Converge tightly onto 1.015×GBW: a wide acceptance band
            // would let the landing point wander by several percent
            // depending on the entry path, which shows up as a limit
            // cycle in the layout-sizing loop.
            let f_target = 1.015 * specs.gbw;
            let f_ok = (fu / f_target - 1.0).abs() < 0.005;
            // Phase margin above the target is accepted: the folding
            // discipline (even folds, internal drains) keeps the fold-node
            // pole high, and the cascode current must not drop below the
            // input current anyway (slew symmetry), so over-delivery is
            // free.
            let pm_lo = specs.phase_margin;
            let pm_ok = pm >= pm_lo;
            best = Some(ota);
            if f_ok && pm_ok {
                break;
            }
            if !f_ok {
                gm_cal = (gm_cal * f_target / fu).clamp(0.4, 2.5);
            }
            k_seed = if pm < pm_lo {
                (k_final * (1.0 + (pm_lo - pm + 1.0) / 40.0)).min(4.0)
            } else {
                k_final.max(1.0)
            };
        }
        let mut ota = best.expect("calibration ran at least once");
        ota.iterations = total_iterations;
        Ok(ota)
    }

    /// Analytic phase-margin estimate: 90° minus the phase contributions
    /// of the fold-node pole and the mirror pole at the target GBW.
    fn estimate_phase_margin(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        sizes: &HashMap<String, SizedDevice>,
        currents: &BranchCurrents,
        mode: &ParasiticMode,
    ) -> f64 {
        let get = |name: &str| sizes.get(name);
        let (Some(mn1c), Some(mn5), Some(mp1), Some(mp3), Some(mp4)) =
            (get("mn1c"), get("mn5"), get("mp1"), get("mp3"), get("mp4"))
        else {
            return 0.0;
        };

        let op_of = |d: &SizedDevice, veff: f64, i: f64| {
            let params = tech.mos(d.polarity);
            let m = Mosfet::new(*params, d.w, d.l);
            let sgn = d.polarity.sign();
            let vgs = vgs_for_current(&m, sgn * 1.0, 0.0, i, specs.vdd)
                .unwrap_or(sgn * (threshold(params, 0.0) + veff));
            (m, evaluate(&m, vgs, sgn * 1.0, 0.0))
        };

        // Fold-node capacitance: junctions of mn5 and mp1, gate of mn1c.
        let (m_nc, op_nc) = op_of(mn1c, 0.2, currents.i_casc);
        let (m_n5, op_n5) = op_of(mn5, 0.2, currents.i_sink);
        let (m_p1, op_p1) = op_of(mp1, 0.2, currents.i_in);
        let c_fold = junction_of(tech, mode, "mn5", &m_n5, true)
            + junction_of(tech, mode, "mp1", &m_p1, true)
            + junction_of(tech, mode, "mn1c", &m_nc, false)
            + intrinsic_caps(&m_nc, &op_nc).cgs
            + intrinsic_caps(&m_p1, &op_p1).cgd
            + intrinsic_caps(&m_n5, &op_n5).cgd
            + parasitic_on(mode, "f1");
        let p_fold = op_nc.gm / (2.0 * std::f64::consts::PI * c_fold.max(1e-18));

        // Mirror-node capacitance: gates of mp3 and mp4 plus junctions.
        let (m_p3, op_p3) = op_of(mp3, 0.3, currents.i_casc);
        let (m_p4, op_p4) = op_of(mp4, 0.3, currents.i_casc);
        let c_m = intrinsic_caps(&m_p3, &op_p3).gate_total()
            + intrinsic_caps(&m_p4, &op_p4).gate_total()
            + parasitic_on(mode, "m");
        let p_mirror = op_p3.gm / (2.0 * std::f64::consts::PI * c_m.max(1e-18));

        90.0 - (specs.gbw / p_fold).atan().to_degrees() - (specs.gbw / p_mirror).atan().to_degrees()
    }

    fn bias_voltages(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        sizes: &HashMap<String, SizedDevice>,
        currents: &BranchCurrents,
        veff_n: f64,
        veff_p: f64,
    ) -> Result<BiasVoltages, SizingError> {
        let vdd = specs.vdd;
        let vgs_of = |name: &str, i: f64, vds_mag: f64| -> Result<f64, SizingError> {
            let d = sizes
                .get(name)
                .ok_or_else(|| SizingError::new(format!("{name} was never sized")))?;
            let params = tech.mos(d.polarity);
            let m = Mosfet::new(*params, d.w, d.l);
            let sgn = d.polarity.sign();
            vgs_for_current(&m, sgn * vds_mag, 0.0, i, vdd)
                .map_err(|e| SizingError::new(format!("{name}: {e}")))
        };

        // Bottom sinks: source grounded, gate = VGS.
        let vf = veff_n + self.sat_margin;
        let vbn = vgs_of("mn5", currents.i_sink, vf)?;
        // NMOS cascode: source at the fold node voltage.
        let vc1 = vf + vgs_of("mn1c", currents.i_casc, veff_n + self.sat_margin)?;
        // Tail: source at VDD (PMOS vgs is negative).
        let vp1 = vdd + vgs_of("mptail", currents.i_tail, veff_tail_guess(veff_n))?;
        // PMOS cascode: source at node a = VDD − (veff_p + margin).
        let va = vdd - (veff_p + self.sat_margin);
        let vc3 = va + vgs_of("mp3c", currents.i_casc, veff_p + self.sat_margin)?;
        Ok(BiasVoltages { vp1, vbn, vc1, vc3 })
    }
}

/// Nominal tail VDS magnitude used when computing the tail gate bias.
fn veff_tail_guess(veff_n: f64) -> f64 {
    (veff_n + 0.2).max(0.3)
}

/// Quick measurement of (GBW, phase margin) on the sized OTA's own
/// netlist: balance the output, run one AC sweep. Returns `None` when
/// the amplifier cannot be balanced or never crosses unity.
fn quick_ac(ota: &FoldedCascodeOta, tech: &Technology, mode: &ParasiticMode) -> Option<(f64, f64)> {
    use losac_sim::ac::{ac_sweep, AcOptions};
    use losac_sim::meas::bode_summary;
    let (_dv, mut c, dc) = crate::eval::balance(ota, tech, mode).ok()?;
    c.set_source_ac("vinp", 0.5).ok()?;
    c.set_source_ac("vinn", -0.5).ok()?;
    let ac = ac_sweep(
        &c,
        &dc,
        &AcOptions {
            fstart: 100.0,
            fstop: 20e9,
            points_per_decade: 16,
            threads: 1,
        },
    )
    .ok()?;
    let h = ac.node(&c, "out");
    let s = bode_summary(&ac.freqs, &h);
    Some((s.unity_freq?, s.phase_margin?))
}

/// Self-loading of the amplifier output: the junction and overlap
/// capacitances its own cascode drains put on the output node (F). Zero
/// until the devices are sized (first outer iteration).
fn self_loading(
    sizes: &HashMap<String, SizedDevice>,
    tech: &Technology,
    mode: &ParasiticMode,
) -> f64 {
    let mut c = 0.0;
    for name in ["mn2c", "mp4c"] {
        let Some(d) = sizes.get(name) else { continue };
        let m = Mosfet::new(*tech.mos(d.polarity), d.w, d.l);
        c += junction_of(tech, mode, name, &m, true);
        // Gate–drain overlap couples the cascode gate (AC ground) to out.
        c += m.params.cgdo * m.w;
    }
    c
}

/// Lumped routing/coupling/well capacitance the mode attributes to `net`.
/// Shared by every topology's sizing procedure: the extra load the layout
/// feedback puts on a net is what closes the sizing↔layout loop.
pub(crate) fn parasitic_on(mode: &ParasiticMode, net: &str) -> f64 {
    let Some(fb) = mode.feedback() else {
        return 0.0;
    };
    if !mode.includes_routing() {
        return 0.0;
    }
    let mut c = fb.net_caps.get(net).copied().unwrap_or(0.0)
        + fb.well_caps.get(net).copied().unwrap_or(0.0);
    for ((a, b), v) in &fb.coupling {
        if a == net || b == net {
            c += v;
        }
    }
    c
}

/// Zero-bias junction capacitance of a device's drain (`drain = true`) or
/// source under the given parasitic mode.
fn junction_of(
    tech: &Technology,
    mode: &ParasiticMode,
    name: &str,
    m: &Mosfet,
    drain: bool,
) -> f64 {
    let geom = diffusion_geometry(tech, mode, name, m, drain);
    let j = match m.params.polarity {
        Polarity::Nmos => tech.caps.ndiff,
        Polarity::Pmos => tech.caps.pdiff,
    };
    j.capacitance_zero_bias(geom.area, geom.perimeter)
}

/// Diffusion geometry of one terminal under the given parasitic mode.
pub(crate) fn diffusion_geometry(
    tech: &Technology,
    mode: &ParasiticMode,
    name: &str,
    m: &Mosfet,
    drain: bool,
) -> DiffGeom {
    match mode {
        ParasiticMode::None => DiffGeom::default(),
        ParasiticMode::UnfoldedDiffusion => {
            let w_nm = m_to_nm(m.w).max(tech.rules.active_width);
            let g = if drain {
                DiffusionGeometry::drain(w_nm, FoldSpec::UNFOLDED, &tech.rules)
            } else {
                DiffusionGeometry::source(w_nm, FoldSpec::UNFOLDED, &tech.rules)
            };
            DiffGeom {
                area: g.area,
                perimeter: g.perimeter,
            }
        }
        ParasiticMode::DiffusionOnly(fb) | ParasiticMode::Full(fb) => match fb.device(name) {
            Some(d) => {
                if drain {
                    d.drain
                } else {
                    d.source
                }
            }
            None => DiffGeom::default(),
        },
    }
}

/// Add the testbench's input sources for `drive` (after the supply and
/// bias sources) and return the node the inverting input device's gate
/// connects to: `vinn` for a differential drive, `out` for the
/// unity-gain buffer.
pub(crate) fn add_input_drive(
    c: &mut Circuit,
    specs: &OtaSpecs,
    drive: InputDrive,
) -> &'static str {
    let cm = specs.input_cm_bias();
    match drive {
        InputDrive::Differential { dv } => {
            c.vsource("vinp", "vinp", "0", cm + dv / 2.0);
            c.vsource("vinn", "vinn", "0", cm - dv / 2.0);
            "vinn"
        }
        InputDrive::UnityBuffer {
            step_from,
            step_to,
            at,
            rise,
        } => {
            c.vsource_tran(
                "vinp",
                "vinp",
                "0",
                step_from,
                Waveform::Step {
                    level: step_to,
                    at,
                    rise,
                },
            );
            "out"
        }
    }
}

/// Add sized device `name` of `ota` to the netlist between `[d, g, s, b]`,
/// at its drawn width and with the diffusion junctions `mode` prescribes.
pub(crate) fn add_mos(
    c: &mut Circuit,
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
    name: &str,
    [d, g, s, b]: [&str; 4],
) {
    let dev = &ota.devices()[name];
    let m = Mosfet::new(*tech.mos(dev.polarity), ota.drawn_w(mode, name), dev.l);
    let junction = match dev.polarity {
        Polarity::Nmos => tech.caps.ndiff,
        Polarity::Pmos => tech.caps.pdiff,
    };
    let dg = diffusion_geometry(tech, mode, name, &m, true);
    let sg = diffusion_geometry(tech, mode, name, &m, false);
    c.mos(
        name,
        d,
        g,
        s,
        b,
        m,
        junction,
        SimDiffGeom {
            area: dg.area,
            perimeter: dg.perimeter,
        },
        SimDiffGeom {
            area: sg.area,
            perimeter: sg.perimeter,
        },
    );
}

/// Attach the mode's routing, coupling and well parasitics (case 4 only)
/// to the netlist as lumped capacitors, restricted to the topology's
/// `signal_nets` and the two inputs — parasitics on other nets (e.g.
/// bias distribution) attach to nets the testbench drives ideally, where
/// they would be shorted anyway. Shared by every topology's netlist
/// builder; iteration is sorted so the element order (and thus the
/// matrix stamp order) is deterministic.
pub(crate) fn add_routing_caps(c: &mut Circuit, mode: &ParasiticMode, signal_nets: &[&str]) {
    if !mode.includes_routing() {
        return;
    }
    let is_internal = |net: &str| signal_nets.contains(&net) || net == "vinp" || net == "vinn";
    let Some(fb) = mode.feedback() else { return };
    let mut k = 0usize;
    for (net, cap) in sorted(&fb.net_caps) {
        if is_internal(net) && *cap > 0.0 {
            c.capacitor(&format!("cr{k}"), net, "0", *cap);
            k += 1;
        }
    }
    for ((na, nb), cap) in sorted(&fb.coupling) {
        if !(is_internal(na) && is_internal(nb) && *cap > 0.0) {
            continue;
        }
        if fb.lump_coupling_to_ground {
            // The sizing tool's view: one lumped capacitance per net.
            c.capacitor(&format!("cca{k}"), na, "0", *cap);
            c.capacitor(&format!("ccb{k}"), nb, "0", *cap);
        } else {
            c.capacitor(&format!("cc{k}"), na, nb, *cap);
        }
        k += 1;
    }
    for (net, cap) in sorted(&fb.well_caps) {
        if is_internal(net) && *cap > 0.0 {
            c.capacitor(&format!("cw{k}"), net, "0", *cap);
            k += 1;
        }
    }
}

/// Deterministic iteration over a hash map (sorted by key).
fn sorted<K: Ord + Clone, V>(map: &HashMap<K, V>) -> Vec<(&K, &V)> {
    let mut v: Vec<(&K, &V)> = map.iter().collect();
    v.sort_by(|a, b| a.0.cmp(b.0));
    v
}

impl Topology for FoldedCascodeOta {
    fn topology_name(&self) -> &'static str {
        "folded_cascode"
    }

    fn specs(&self) -> &OtaSpecs {
        &self.specs
    }

    /// `drive` sets the testbench around the core:
    /// [`InputDrive::Differential`] puts DC sources on both gates (AC set
    /// separately by the measurement), [`InputDrive::UnityBuffer`] wires
    /// vinn to the output and steps vinp (slew-rate bench).
    fn netlist(&self, tech: &Technology, mode: &ParasiticMode, drive: InputDrive) -> Circuit {
        let mut c = Circuit::new();
        c.vsource("vdd", "vdd", "0", self.specs.vdd);
        c.vsource("vbp1", "vp1", "0", self.bias.vp1);
        c.vsource("vbn0", "vbn", "0", self.bias.vbn);
        c.vsource("vbc1", "vc1", "0", self.bias.vc1);
        c.vsource("vbc3", "vc3", "0", self.bias.vc3);
        let vinn_node = add_input_drive(&mut c, &self.specs, drive);

        let mut mos = |name, pins| add_mos(&mut c, self, tech, mode, name, pins);
        mos("mptail", ["tail", "vp1", "vdd", "vdd"]);
        mos("mp1", ["f1", "vinp", "tail", "vdd"]);
        mos("mp2", ["f2", vinn_node, "tail", "vdd"]);
        mos("mn5", ["f1", "vbn", "0", "0"]);
        mos("mn6", ["f2", "vbn", "0", "0"]);
        mos("mn1c", ["m", "vc1", "f1", "0"]);
        mos("mn2c", ["out", "vc1", "f2", "0"]);
        mos("mp3", ["a", "m", "vdd", "vdd"]);
        mos("mp3c", ["m", "vc3", "a", "vdd"]);
        mos("mp4", ["b", "m", "vdd", "vdd"]);
        mos("mp4c", ["out", "vc3", "b", "vdd"]);

        c.capacitor("cload", "out", "0", self.specs.c_load);
        // Routing, coupling and well parasitics (case 4 only).
        add_routing_caps(&mut c, mode, &SIGNAL_NETS);
        c
    }

    fn slew_estimate(&self) -> f64 {
        self.currents.i_tail / self.specs.c_load.max(1e-15)
    }

    fn write_fingerprint(&self, h: &mut FnvHasher) -> bool {
        crate::eval::hash_common_fingerprint(h, &self.devices, &self.specs);
        for v in [
            self.bias.vp1,
            self.bias.vbn,
            self.bias.vc1,
            self.bias.vc3,
            self.currents.i_tail,
            self.currents.i_in,
            self.currents.i_casc,
            self.currents.i_sink,
        ] {
            h.write_f64(v);
        }
        true
    }

    fn devices(&self) -> &HashMap<String, SizedDevice> {
        &self.devices
    }

    fn devices_mut(&mut self) -> &mut HashMap<String, SizedDevice> {
        &mut self.devices
    }

    fn layout_spec(&self) -> TopologyLayoutSpec {
        let group =
            |name: &str, pol, src: &str, bulk: &str, input, devs: [(&str, &str, &str); 2]| {
                LayoutModule::Group(MatchedGroup {
                    name: name.into(),
                    polarity: pol,
                    source_net: src.into(),
                    bulk_net: bulk.into(),
                    is_input_pair: input,
                    devices: devs
                        .iter()
                        .map(|(n, d, g)| GroupDevice {
                            name: (*n).into(),
                            drain_net: (*d).into(),
                            gate_net: (*g).into(),
                        })
                        .collect(),
                })
            };
        let single = |name: &str, pol, d: &str, g: &str, s: &str, b: &str| {
            LayoutModule::Single(SingleDevice {
                name: name.into(),
                polarity: pol,
                d: d.into(),
                g: g.into(),
                s: s.into(),
                b: b.into(),
            })
        };
        let cur = &self.currents;
        let net_currents: HashMap<String, f64> = [
            ("vdd", cur.i_tail + 2.0 * cur.i_casc),
            ("gnd", 2.0 * cur.i_sink),
            ("tail", cur.i_tail),
            ("f1", cur.i_sink),
            ("f2", cur.i_sink),
            ("m", cur.i_casc),
            ("a", cur.i_casc),
            ("b", cur.i_casc),
            ("out", cur.i_casc),
        ]
        .into_iter()
        .map(|(n, i)| (n.to_owned(), i))
        .collect();
        TopologyLayoutSpec {
            cell_name: "folded_cascode_ota",
            modules: vec![
                group(
                    "pair",
                    Polarity::Pmos,
                    "tail",
                    "vdd",
                    true,
                    [("mp1", "f1", "vinp"), ("mp2", "f2", "vinn")],
                ), // 0
                single("mptail", Polarity::Pmos, "tail", "vp1", "vdd", "vdd"), // 1
                group(
                    "sinks",
                    Polarity::Nmos,
                    "gnd",
                    "gnd",
                    false,
                    [("mn5", "f1", "vbn"), ("mn6", "f2", "vbn")],
                ), // 2
                single("mn1c", Polarity::Nmos, "m", "vc1", "f1", "gnd"),       // 3
                single("mn2c", Polarity::Nmos, "out", "vc1", "f2", "gnd"),     // 4
                group(
                    "mirror",
                    Polarity::Pmos,
                    "vdd",
                    "vdd",
                    false,
                    [("mp3", "a", "m"), ("mp4", "b", "m")],
                ), // 5
                single("mp3c", Polarity::Pmos, "m", "vc3", "a", "vdd"),        // 6
                single("mp4c", Polarity::Pmos, "out", "vc3", "b", "vdd"),      // 7
            ],
            // NMOS rows at the bottom, PMOS rows (shared well region) at
            // the top — the arrangement of the paper's Fig. 5.
            placement_rows: vec![vec![3, 2, 4], vec![6, 5, 7], vec![0, 1]],
            net_currents,
        }
    }

    /// Tail plus both mirror branches.
    fn supply_current_estimate(&self) -> f64 {
        self.currents.i_tail + 2.0 * self.currents.i_casc
    }
}

impl TopologyPlan for FoldedCascodePlan {
    fn topology_name(&self) -> &'static str {
        "folded_cascode"
    }

    fn size_topology(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<Box<dyn Topology>, SizingError> {
        self.size(tech, specs, mode).map(|ota| Box::new(ota) as _)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_sim::dc::{dc_operating_point, DcOptions};

    fn tech() -> Technology {
        Technology::cmos06()
    }

    fn sized() -> FoldedCascodeOta {
        FoldedCascodePlan::default()
            .size(&tech(), &OtaSpecs::paper_example(), &ParasiticMode::None)
            .unwrap()
    }

    #[test]
    fn sizing_produces_all_devices() {
        let ota = sized();
        for name in DEVICE_NAMES {
            let d = &ota.devices[name];
            assert!(
                d.w > 0.8e-6 && d.w < 2e-3,
                "{name}: W = {:.1} µm",
                d.w * 1e6
            );
            assert!(d.l >= 0.6e-6, "{name}: L");
        }
    }

    #[test]
    fn currents_plausible_for_paper_specs() {
        let ota = sized();
        // gm1 = 2π·65 MHz·≥3 pF ≈ 1.2+ mA/V; tail currents land in the
        // hundreds of µA; total power of a few mW like the paper.
        assert!(
            ota.currents.i_tail > 50e-6 && ota.currents.i_tail < 2e-3,
            "i_tail = {:.1} µA",
            ota.currents.i_tail * 1e6
        );
        assert!((ota.currents.i_sink - ota.currents.i_in - ota.currents.i_casc).abs() < 1e-12);
        let power = ota.supply_current_estimate() * 3.3;
        assert!(
            power > 0.5e-3 && power < 10e-3,
            "power = {:.2} mW",
            power * 1e3
        );
    }

    #[test]
    fn matched_pairs_are_identical() {
        let ota = sized();
        assert_eq!(ota.devices["mp1"], ota.devices["mp2"]);
        assert_eq!(ota.devices["mn5"], ota.devices["mn6"]);
        assert_eq!(ota.devices["mp3"], ota.devices["mp4"]);
        assert_eq!(ota.devices["mn1c"], ota.devices["mn2c"]);
        assert_eq!(ota.devices["mp3c"], ota.devices["mp4c"]);
    }

    #[test]
    fn bias_voltages_inside_supply() {
        let ota = sized();
        for (name, v) in [
            ("vp1", ota.bias.vp1),
            ("vbn", ota.bias.vbn),
            ("vc1", ota.bias.vc1),
            ("vc3", ota.bias.vc3),
        ] {
            assert!(v > 0.0 && v < 3.3, "{name} = {v:.3} V outside the rails");
        }
        // Sanity of ordering: NMOS cascode gate above sink gate.
        assert!(ota.bias.vc1 > ota.bias.vbn);
    }

    #[test]
    fn dc_operating_point_all_saturated() {
        let t = tech();
        let ota = sized();
        let c = ota.netlist(
            &t,
            &ParasiticMode::None,
            InputDrive::Differential { dv: 0.0 },
        );
        let sol = dc_operating_point(&c, &DcOptions::default()).unwrap();
        // Every device must conduct a sensible current.
        for name in DEVICE_NAMES {
            let op = sol.mos_op(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(op.id > 1e-6, "{name} conducts {:.2e} A", op.id);
        }
        // The branch currents match the plan within tolerance: the input
        // devices carry about i_in.
        let op1 = sol.mos_op("mp1").unwrap();
        let err = (op1.id - ota.currents.i_in).abs() / ota.currents.i_in;
        assert!(err < 0.35, "mp1 current off by {:.0}%", err * 100.0);
        // Fold nodes biased between the rails.
        for node in ["f1", "f2", "tail", "m", "out"] {
            let v = sol.voltage(&c, node);
            assert!(v > 0.0 && v < 3.3, "{node} = {v:.3} V");
        }
    }

    #[test]
    fn unfolded_mode_has_bigger_junctions() {
        let t = tech();
        let ota = sized();
        let m = Mosfet::new(t.pmos, ota.devices["mp1"].w, ota.devices["mp1"].l);
        let none = diffusion_geometry(&t, &ParasiticMode::None, "mp1", &m, true);
        let unf = diffusion_geometry(&t, &ParasiticMode::UnfoldedDiffusion, "mp1", &m, true);
        assert_eq!(none.area, 0.0);
        assert!(unf.area > 0.0);
    }

    #[test]
    fn impossible_specs_rejected() {
        let mut s = OtaSpecs::paper_example();
        s.input_cm_range.1 = 3.2; // leaves no headroom for PMOS input
        let err = FoldedCascodePlan::default().size(&tech(), &s, &ParasiticMode::None);
        assert!(err.is_err());
    }

    #[test]
    fn netlist_has_load_and_supplies() {
        let t = tech();
        let ota = sized();
        let c = ota.netlist(
            &t,
            &ParasiticMode::None,
            InputDrive::Differential { dv: 0.0 },
        );
        assert!(c.find_node("out").is_some());
        assert!(c.find_node("tail").is_some());
        assert_eq!(c.num_vsources(), 7); // vdd + 4 bias + 2 inputs
    }

    #[test]
    fn sizing_scales_with_load() {
        let t = tech();
        let mut s = OtaSpecs::paper_example();
        let small = FoldedCascodePlan::default()
            .size(&t, &s, &ParasiticMode::None)
            .unwrap();
        s.c_load = 9e-12;
        let big = FoldedCascodePlan::default()
            .size(&t, &s, &ParasiticMode::None)
            .unwrap();
        assert!(
            big.currents.i_tail > 2.0 * small.currents.i_tail,
            "3× load needs ≈3× current: {:.0} µA vs {:.0} µA",
            big.currents.i_tail * 1e6,
            small.currents.i_tail * 1e6
        );
    }
}
