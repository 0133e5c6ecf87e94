//! Traced execution of one Table-1 case, layer by layer.
//!
//! [`traced_case`] performs exactly the public calls `run_case_with`
//! makes — size or run the flow, evaluate, generate the layout, evaluate
//! the extracted netlist — with a span around each, so its outputs are
//! the case's outputs bit for bit. After the case, [`replay_evaluate`]
//! re-runs each evaluation's sub-analyses on the same amplifier and
//! parasitic mode through the simulator's public entry points, timing
//! each; what those replays do not cover stays in
//! `sizing.evaluate.unattributed_ms`.

use crate::ledger::{Ledger, Probe};
use losac_core::{layout_oriented_synthesis, to_feedback, topology_layout_plan, Case, CaseOptions};
use losac_layout::plan::ParasiticReport;
use losac_sim::ac::{ac_point_on, ac_sweep_on, log_grid, AcOptions};
use losac_sim::dc::{dc_operating_point, DcOptions};
use losac_sim::linear::Linearized;
use losac_sim::meas::bode_summary_of;
use losac_sim::noise::noise_analysis_on;
use losac_sim::tran::{transient, TranOptions};
use losac_sizing::eval::{balance, evaluate_with, Amplifier, InputDrive};
use losac_sizing::{ParasiticMode, Performance, Topology, TopologyPlan};
use losac_tech::Technology;
use std::sync::Arc;

/// Outputs of one traced case.
#[derive(Debug)]
pub struct CaseOut {
    /// Sizing tool's belief.
    pub synthesized: Performance,
    /// Extracted-netlist measurement.
    pub extracted: Performance,
    /// Span id of the `core.case` span.
    pub span: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Run `case` as `run_case_with(tech, specs, case, &CaseOptions with plan)`
/// does, recording spans under `parent`, then replay both evaluations.
///
/// # Errors
///
/// The first failing layer's message.
pub fn traced_case(
    lg: &mut Ledger,
    op: u64,
    parent: Option<usize>,
    tech: &Technology,
    specs: &losac_sizing::OtaSpecs,
    case: Case,
    plan: &Arc<dyn TopologyPlan>,
) -> Result<CaseOut, String> {
    let opts = CaseOptions::builder().with_plan(plan.clone()).build();
    let before = Probe::read();
    let span = lg.open(op, parent, "core.case");
    let (ota, synth_mode): (Arc<dyn Topology>, ParasiticMode) = match case {
        Case::NoParasitics | Case::UnfoldedDiffusion => {
            let mode = if case == Case::NoParasitics {
                ParasiticMode::None
            } else {
                ParasiticMode::UnfoldedDiffusion
            };
            let (ota, _) = lg.timed(op, Some(span), "sizing.size", || {
                opts.plan.size_topology(tech, specs, &mode)
            });
            (Arc::from(ota.map_err(err)?), mode)
        }
        _ => {
            let diffusion_only = case == Case::ExactDiffusion;
            let flow = lg.open(op, Some(span), "core.flow");
            let r = layout_oriented_synthesis(
                tech,
                specs,
                opts.plan.as_ref(),
                &opts.flow_options(diffusion_only),
            );
            lg.close(flow);
            let r = r.map_err(err)?;
            // The flow alternates sizing and layout calls, then generates
            // the final layout; lay its own timings out in that order.
            let t = &r.telemetry;
            let mut at = lg.start_us(flow);
            for (i, sizing) in t.sizing_durations.iter().enumerate() {
                at = lg.derived(op, flow, "sizing.size", at, *sizing);
                if let Some(call) = t.layout_call_durations.get(i) {
                    at = lg.derived(op, flow, "layout.parasitics", at, *call);
                }
            }
            lg.derived(op, flow, "layout.generate", at, t.generation_duration);
            lg.flows.push((r.layout_calls, r.converged));
            (r.ota, r.mode)
        }
    };
    let (synthesized, synth_eval) = lg.timed(op, Some(span), "sizing.evaluate", || {
        evaluate_with(ota.as_ref(), tech, &synth_mode, &opts.eval)
    });
    let synthesized = synthesized.map_err(err)?;
    let (generated, _) = lg.timed(op, Some(span), "layout.generate", || {
        let generated =
            topology_layout_plan(tech, ota.as_ref(), &opts.layout).generate(tech, opts.shape)?;
        let report = ParasiticReport {
            devices: generated.devices.clone(),
            net_cap: generated.extraction.net_cap.clone(),
            coupling: generated.extraction.coupling.clone(),
            well_cap: generated.extraction.well_cap.clone(),
            bbox: generated
                .cell
                .bbox()
                .map(|b| (b.width(), b.height()))
                .unwrap_or((0, 0)),
            em_clean: generated.em_clean,
        };
        Ok::<_, losac_layout::plan::PlanError>(ParasiticMode::Full(to_feedback(&report, false)))
    });
    let full = generated.map_err(err)?;
    let (extracted, ext_eval) = lg.timed(op, Some(span), "sizing.evaluate", || {
        evaluate_with(ota.as_ref(), tech, &full, &opts.eval)
    });
    let extracted = extracted.map_err(err)?;
    lg.close(span);
    lg.case_deltas.push(Probe::read().since(&before));

    for (eval_span, mode, perf) in [
        (synth_eval, &synth_mode, &synthesized),
        (ext_eval, &full, &extracted),
    ] {
        replay_evaluate(lg, op, eval_span, ota.as_ref(), tech, mode, perf)?;
    }
    Ok(CaseOut {
        synthesized,
        extracted,
        span,
    })
}

/// Re-run the sub-analyses of one nominal-scenario evaluation with the
/// evaluator's own settings, each in a replay span under `eval_span`.
/// The replay must reproduce the evaluation's offset, GBW and phase
/// margin bit for bit, or it is not the same work and the op fails.
///
/// # Errors
///
/// A failing analysis, or a replay that does not reproduce `perf`.
pub fn replay_evaluate(
    lg: &mut Ledger,
    op: u64,
    eval_span: usize,
    ota: &dyn Amplifier,
    tech: &Technology,
    mode: &ParasiticMode,
    perf: &Performance,
) -> Result<(), String> {
    let replay = |lg: &mut Ledger, name: &'static str| {
        let id = lg.open(op, Some(eval_span), name);
        lg.mark_replay(id);
        id
    };

    let id = replay(lg, "sizing.balance");
    let balanced = balance(ota, tech, mode);
    lg.close(id);
    let (dv, mut c, dc) = balanced.map_err(err)?;

    c.set_source_ac("vinp", 0.5).map_err(err)?;
    c.set_source_ac("vinn", -0.5).map_err(err)?;
    let ac_opts = AcOptions {
        fstart: 10.0,
        fstop: 20e9,
        points_per_decade: 24,
        threads: 1,
    };
    let id = replay(lg, "sim.ac");
    let mut lin = Linearized::build(&c, &dc);
    let ac = ac_sweep_on(&lin, &ac_opts);
    lg.close(id);
    let ac = ac.map_err(err)?;
    let summary = bode_summary_of(&ac.freqs, ac.trace(&c, "out").iter());
    let gbw = summary.unity_freq.ok_or("replay: no unity crossing")?;
    if dv.to_bits() != perf.offset.to_bits()
        || gbw.to_bits() != perf.gbw.to_bits()
        || summary.phase_margin.map(f64::to_bits) != Some(perf.phase_margin.to_bits())
    {
        return Err(format!(
            "replay does not reproduce the evaluation: offset {dv:e} vs {:e}, gbw {gbw:e} vs {:e}",
            perf.offset, perf.gbw
        ));
    }

    c.set_source_ac("vinp", 1.0).map_err(err)?;
    c.set_source_ac("vinn", 1.0).map_err(err)?;
    lin.restamp_excitation(&c);
    let id = replay(lg, "sim.ac_point");
    let cm = ac_point_on(&lin, 10.0);
    lg.close(id);
    cm.map_err(err)?;

    let mut c_rout = ota.netlist(tech, mode, InputDrive::Differential { dv });
    c_rout.isource_ac("itest", "0", "out", 0.0, 1.0);
    let id = replay(lg, "sim.dc_op");
    let dc_rout = dc_operating_point(&c_rout, &DcOptions::default());
    lg.close(id);
    let dc_rout = dc_rout.map_err(err)?;
    let id = replay(lg, "sim.ac_point");
    let rout = ac_point_on(&Linearized::build(&c_rout, &dc_rout), 1.0);
    lg.close(id);
    rout.map_err(err)?;

    c.set_source_ac("vinp", 0.5).map_err(err)?;
    c.set_source_ac("vinn", -0.5).map_err(err)?;
    lin.restamp_excitation(&c);
    let out = c.find_node("out").ok_or("replay: no out node")?;
    let freqs = log_grid(1.0, gbw.max(1e6), 12);
    let id = replay(lg, "sim.noise");
    let noise = noise_analysis_on(&lin, &freqs, out, 1);
    lg.close(id);
    noise.map_err(err)?;

    // The slew-rate testbench: a unity-gain buffer stepped across the
    // output range, as the evaluator builds it.
    let mid = ota.specs().output_mid();
    let step = 0.4;
    let t_slew = (2.0 * step) / ota.slew_estimate().max(1e3);
    let at = 2.0 * t_slew;
    let tstop = at + 8.0 * t_slew;
    let id = replay(lg, "sim.tran");
    let buffer = ota.netlist(
        tech,
        mode,
        InputDrive::UnityBuffer {
            step_from: mid - step,
            step_to: mid + step,
            at,
            rise: t_slew / 100.0,
        },
    );
    let tran = dc_operating_point(&buffer, &DcOptions::default())
        .map_err(err)
        .and_then(|dc| {
            transient(
                &buffer,
                &dc,
                &TranOptions {
                    tstop,
                    dt: tstop / 1500.0,
                    newton: DcOptions::default(),
                },
            )
            .map_err(err)
        });
    lg.close(id);
    tran?;
    Ok(())
}
