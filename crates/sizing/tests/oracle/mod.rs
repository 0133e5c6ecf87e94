//! The reference evaluation pipeline, recomputed from the public
//! simulator APIs on every test run.
//!
//! [`reference_evaluate`] measures the Table-1 row the way the original
//! serial evaluator did: a fresh `ac_sweep` per analysis (differential,
//! common-mode, output resistance), a fresh `noise_analysis`, and the
//! unity-buffer slew transient — no linearisation reuse, no single-point
//! probes, no thread fan-out, no cache. The production evaluator must
//! reproduce its numbers bit for bit while doing less work, so the
//! oracle is both the bitwise reference of `sim_equivalence` and the
//! factorisation baseline of `eval_cache_counters`.

use losac_sim::ac::{ac_sweep, log_grid, AcOptions};
use losac_sim::dc::{dc_operating_point, DcOptions};
use losac_sim::meas::{bode_summary_of, db};
use losac_sim::noise::{integrate_psd, noise_analysis};
use losac_sim::tran::{transient, TranOptions};
use losac_sizing::eval::{balance, InputDrive, Performance};
use losac_sizing::{ParasiticMode, Topology};
use losac_tech::Technology;

/// Serial sweep options from `fstart` to `fstop`.
fn sweep(fstart: f64, fstop: f64, points_per_decade: usize) -> AcOptions {
    AcOptions {
        fstart,
        fstop,
        points_per_decade,
        threads: 1,
    }
}

/// The full Table-1 row of `ota` at the nominal scenario, measured with
/// one fresh analysis per quantity.
///
/// # Panics
///
/// Panics when any analysis fails: the oracle only runs on designs the
/// production evaluator measures successfully.
pub fn reference_evaluate(
    ota: &dyn Topology,
    tech: &Technology,
    mode: &ParasiticMode,
) -> Performance {
    let (dv, mut c, dc) = balance(ota, tech, mode).expect("oracle: balance");
    let power = dc.supply_current(&c, "vdd") * ota.specs().vdd;

    // Differential gain, GBW and phase margin over the full sweep.
    c.set_source_ac("vinp", 0.5).expect("vinp");
    c.set_source_ac("vinn", -0.5).expect("vinn");
    let ac = ac_sweep(&c, &dc, &sweep(10.0, 20e9, 24)).expect("oracle: differential sweep");
    let summary = bode_summary_of(&ac.freqs, ac.trace(&c, "out").iter());
    let gbw = summary.unity_freq.expect("oracle: unity crossing");
    let phase_margin = summary.phase_margin.expect("oracle: phase margin");
    let adm0 = summary.dc_gain;

    // CMRR from the first point of a common-mode sweep.
    c.set_source_ac("vinp", 1.0).expect("vinp");
    c.set_source_ac("vinn", 1.0).expect("vinn");
    let acm0 = ac_sweep(&c, &dc, &sweep(10.0, 1e3, 4))
        .expect("oracle: common-mode sweep")
        .magnitude(&c, "out")[0]
        .max(1e-12);

    // Output resistance from the first point of a test-current sweep.
    let mut c_rout = ota.netlist(tech, mode, InputDrive::Differential { dv });
    c_rout.isource_ac("itest", "0", "out", 0.0, 1.0);
    let dc_rout = dc_operating_point(&c_rout, &DcOptions::default()).expect("oracle: rout dc");
    let output_resistance = ac_sweep(&c_rout, &dc_rout, &sweep(1.0, 10.0, 2))
        .expect("oracle: rout sweep")
        .magnitude(&c_rout, "out")[0];

    // Input-referred noise on a fresh linearisation.
    c.set_source_ac("vinp", 0.5).expect("vinp");
    c.set_source_ac("vinn", -0.5).expect("vinn");
    let freqs = log_grid(1.0, gbw.max(1e6), 12);
    let noise = noise_analysis(&c, &dc, &freqs, "out").expect("oracle: noise");

    Performance {
        dc_gain_db: db(adm0),
        gbw,
        phase_margin,
        slew_rate: reference_slew_rate(ota, tech, mode),
        cmrr_db: db(adm0 / acm0),
        offset: dv,
        output_resistance,
        input_noise_rms: integrate_psd(&noise.freqs, &noise.input_psd).sqrt(),
        thermal_noise_density: noise.input_density_at(gbw / 50.0),
        flicker_noise_density: noise.input_density_at(1.0),
        power,
    }
}

/// Slew rate (V/s) between the 10 % and 90 % levels of a ±0.4 V
/// unity-buffer step around the output mid-point.
fn reference_slew_rate(ota: &dyn Topology, tech: &Technology, mode: &ParasiticMode) -> f64 {
    let mid = ota.specs().output_mid();
    let step = 0.4;
    let t_slew = (2.0 * step) / ota.slew_estimate().max(1e3);
    let at = 2.0 * t_slew;
    let tstop = at + 8.0 * t_slew;
    let c = ota.netlist(
        tech,
        mode,
        InputDrive::UnityBuffer {
            step_from: mid - step,
            step_to: mid + step,
            at,
            rise: t_slew / 100.0,
        },
    );
    let dc = dc_operating_point(&c, &DcOptions::default()).expect("oracle: buffer dc");
    let res = transient(
        &c,
        &dc,
        &TranOptions {
            tstop,
            dt: tstop / 1500.0,
            newton: DcOptions::default(),
        },
    )
    .expect("oracle: transient");
    let v10 = mid - step + 0.2 * step;
    let v90 = mid + step - 0.2 * step;
    res.slope_between(&c, "out", v10, v90)
        .expect("oracle: slew crossing")
}
