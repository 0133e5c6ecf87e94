//! The four sizing cases of the paper's Table 1.
//!
//! Each case sizes the same OTA with a different degree of parasitic
//! awareness, then *verifies* it the way the paper does: generate the
//! layout of the sized circuit, extract all parasitics, and simulate the
//! extracted netlist. "Synthesized" numbers are what the sizing tool
//! believes (its own parasitic model); "extracted" numbers (the paper's
//! values in brackets) come from the extracted netlist.

use crate::flow::{layout_oriented_synthesis, FlowControl, FlowError, FlowOptions};
use crate::layout_gen::{to_feedback, topology_layout_plan, LayoutOptions};
use losac_layout::slicing::ShapeConstraint;
use losac_sizing::eval::{evaluate_with, EvalError, EvalErrorKind, EvalOptions};
use losac_sizing::{
    FoldedCascodePlan, OtaSpecs, ParasiticMode, Performance, Topology, TopologyPlan,
};
use losac_tech::{Scenario, Technology};
use std::fmt;
use std::sync::Arc;

/// Which of Table 1's four sizing strategies to run.
///
/// Marked `#[non_exhaustive]`: future PRs may add strategies (e.g.
/// statistical-corner-aware sizing) without breaking downstream matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Case {
    /// Case 1: sizing with no layout capacitances (neither diffusion nor
    /// routing).
    NoParasitics,
    /// Case 2: diffusion capacitance assuming single transistor folds, no
    /// routing capacitance (no layout information).
    UnfoldedDiffusion,
    /// Case 3: exact diffusion capacitance from the layout loop,
    /// neglecting routing capacitance.
    ExactDiffusion,
    /// Case 4: all layout parasitics considered during synthesis.
    AllParasitics,
}

impl Case {
    /// All four cases in Table-1 order.
    pub const ALL: [Case; 4] = [
        Case::NoParasitics,
        Case::UnfoldedDiffusion,
        Case::ExactDiffusion,
        Case::AllParasitics,
    ];

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Case::NoParasitics => "Case 1",
            Case::UnfoldedDiffusion => "Case 2",
            Case::ExactDiffusion => "Case 3",
            Case::AllParasitics => "Case 4",
        }
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one case: the sized circuit and both performance rows.
#[derive(Debug)]
pub struct CaseResult {
    /// Which case this is.
    pub case: Case,
    /// The sized circuit.
    pub ota: Arc<dyn Topology>,
    /// What the sizing tool believes (Table 1's plain numbers).
    pub synthesized: Performance,
    /// Simulation of the extracted netlist (Table 1's bracketed
    /// numbers).
    pub extracted: Performance,
    /// Layout-tool calls spent (1 for cases 1–2: generation only).
    pub layout_calls: usize,
}

/// Case-run failure.
///
/// Marked `#[non_exhaustive]`: callers outside this crate must keep a
/// wildcard arm so new failure kinds can be added without a breaking
/// change.
#[derive(Debug)]
#[non_exhaustive]
pub enum CaseError {
    /// Flow/sizing/layout failure.
    Flow(FlowError),
    /// Measurement failure.
    Eval(EvalError),
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::Flow(e) => write!(f, "{e}"),
            CaseError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl From<FlowError> for CaseError {
    fn from(e: FlowError) -> Self {
        CaseError::Flow(e)
    }
}

impl From<EvalError> for CaseError {
    fn from(e: EvalError) -> Self {
        // An interrupted evaluation is the run control stopping the case,
        // not a measurement defect: surface it as the matching flow
        // outcome so retry logic never mistakes a budget stop for a
        // transient analysis failure.
        match e.kind() {
            EvalErrorKind::Cancelled => CaseError::Flow(FlowError::Cancelled),
            EvalErrorKind::TimedOut => CaseError::Flow(FlowError::TimedOut),
            _ => CaseError::Eval(e),
        }
    }
}

impl From<losac_sizing::SizingError> for CaseError {
    fn from(e: losac_sizing::SizingError) -> Self {
        CaseError::Flow(FlowError::Sizing(e))
    }
}

impl From<losac_layout::plan::PlanError> for CaseError {
    fn from(e: losac_layout::plan::PlanError) -> Self {
        CaseError::Flow(FlowError::Layout(e))
    }
}

/// All inputs of one case run that `run_case` used to hardwire: the
/// sizing plan, the layout implementation options, the shape constraint
/// and the flow's convergence knobs.
///
/// The default value reproduces the historical `run_case` behaviour
/// exactly (default plan, default layout options, min-area shape, the
/// default flow tolerance and call budget, no cancellation).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CaseOptions {
    /// Topology design plan (any [`TopologyPlan`]; the default is the
    /// paper's folded cascode).
    pub plan: Arc<dyn TopologyPlan>,
    /// Layout implementation options (matching styles, finger target).
    pub layout: LayoutOptions,
    /// Shape constraint, applied both inside the flow loop and to the
    /// final verification layout.
    pub shape: ShapeConstraint,
    /// Convergence tolerance of the sizing↔layout loop (cases 3–4).
    pub tolerance: f64,
    /// Layout-call budget of the sizing↔layout loop (cases 3–4).
    pub max_layout_calls: usize,
    /// Cooperative cancellation / deadline control, checked between the
    /// phases of the run.
    pub control: FlowControl,
    /// Performance knobs for the two `evaluate` calls of the run
    /// (threads, shared evaluation cache, kernels). Every
    /// knob is bitwise-neutral *except* [`EvalOptions::scenario`], which
    /// selects the single PVT/mismatch context both rows are measured
    /// under (nominal by default).
    pub eval: EvalOptions,
    /// Corner-aware acceptance set. Empty (the default) measures both
    /// performance rows under `eval.scenario` alone — the historical
    /// behaviour. Non-empty switches the run to "meet specs at all
    /// corners": each row is evaluated under *every* scenario listed and
    /// folded per metric through [`Performance::worst_case`], so the
    /// reported row meets a specification iff every scenario does.
    pub scenarios: Vec<Scenario>,
}

impl Default for CaseOptions {
    fn default() -> Self {
        let flow = FlowOptions::default();
        Self {
            plan: Arc::new(FoldedCascodePlan::default()),
            layout: flow.layout,
            shape: flow.shape,
            tolerance: flow.tolerance,
            max_layout_calls: flow.max_layout_calls,
            control: FlowControl::default(),
            eval: flow.eval,
            scenarios: Vec::new(),
        }
    }
}

impl CaseOptions {
    /// A builder starting from [`CaseOptions::default`]. The struct is
    /// `#[non_exhaustive]`, so downstream crates construct it through
    /// this builder — new fields are then non-breaking.
    pub fn builder() -> CaseOptionsBuilder {
        CaseOptionsBuilder::default()
    }

    /// The flow options these case options imply.
    pub fn flow_options(&self, diffusion_only: bool) -> FlowOptions {
        FlowOptions {
            shape: self.shape,
            layout: self.layout.clone(),
            tolerance: self.tolerance,
            max_layout_calls: self.max_layout_calls,
            diffusion_only,
            control: self.control.clone(),
            eval: self.eval.clone(),
        }
    }
}

/// Builder for [`CaseOptions`] (see [`CaseOptions::builder`]).
///
/// `build` is infallible: each knob is individually valid and range
/// errors surface from the flow itself (`FlowOptions::validate`), so the
/// builder adds no second validation pass that could drift from it.
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the CaseOptions"]
pub struct CaseOptionsBuilder {
    opts: CaseOptions,
}

impl CaseOptionsBuilder {
    /// Topology design plan (see [`CaseOptions::plan`]).
    pub fn with_plan(mut self, plan: Arc<dyn TopologyPlan>) -> Self {
        self.opts.plan = plan;
        self
    }

    /// Layout implementation options (see [`CaseOptions::layout`]).
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.opts.layout = layout;
        self
    }

    /// Shape constraint (see [`CaseOptions::shape`]).
    pub fn with_shape(mut self, shape: ShapeConstraint) -> Self {
        self.opts.shape = shape;
        self
    }

    /// Convergence tolerance (see [`CaseOptions::tolerance`]).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.opts.tolerance = tolerance;
        self
    }

    /// Layout-call budget (see [`CaseOptions::max_layout_calls`]).
    pub fn with_max_layout_calls(mut self, calls: usize) -> Self {
        self.opts.max_layout_calls = calls;
        self
    }

    /// Cancellation / deadline control (see [`CaseOptions::control`]).
    pub fn with_control(mut self, control: FlowControl) -> Self {
        self.opts.control = control;
        self
    }

    /// Evaluation knobs (see [`CaseOptions::eval`]).
    pub fn with_eval(mut self, eval: EvalOptions) -> Self {
        self.opts.eval = eval;
        self
    }

    /// Corner-aware acceptance set (see [`CaseOptions::scenarios`]).
    pub fn with_scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.opts.scenarios = scenarios.into_iter().collect();
        self
    }

    /// The finished options.
    pub fn build(self) -> CaseOptions {
        self.opts
    }
}

/// Run one Table-1 case with the default options (default plan, default
/// layout options, min-area shape) — a thin wrapper over
/// [`run_case_with`].
///
/// # Errors
///
/// Returns [`CaseError`] when sizing, layout generation or any
/// measurement fails.
pub fn run_case(tech: &Technology, specs: &OtaSpecs, case: Case) -> Result<CaseResult, CaseError> {
    run_case_with(tech, specs, case, &CaseOptions::default())
}

/// Run one Table-1 case with explicit options.
///
/// # Errors
///
/// Returns [`CaseError`] when sizing, layout generation or any
/// measurement fails, and `CaseError::Flow(FlowError::Cancelled /
/// TimedOut)` when the options' [`FlowControl`] stops the run between
/// phases.
pub fn run_case_with(
    tech: &Technology,
    specs: &OtaSpecs,
    case: Case,
    opts: &CaseOptions,
) -> Result<CaseResult, CaseError> {
    opts.control.check()?;
    // Thread the control's stop flag / deadline into every solver on this
    // thread (the flow re-installs the same interrupt, which is
    // idempotent): the two verification evaluations below run outside the
    // flow and must honour the budget too.
    let _sim_interrupt = opts
        .control
        .sim_interrupt()
        .map(losac_sim::interrupt::install);
    let (ota, synth_mode, layout_calls): (Arc<dyn Topology>, ParasiticMode, usize) = match case {
        Case::NoParasitics => {
            let ota = opts.plan.size_topology(tech, specs, &ParasiticMode::None)?;
            (Arc::from(ota), ParasiticMode::None, 1)
        }
        Case::UnfoldedDiffusion => {
            let ota = opts
                .plan
                .size_topology(tech, specs, &ParasiticMode::UnfoldedDiffusion)?;
            (Arc::from(ota), ParasiticMode::UnfoldedDiffusion, 1)
        }
        Case::ExactDiffusion => {
            let r = layout_oriented_synthesis(
                tech,
                specs,
                opts.plan.as_ref(),
                &opts.flow_options(true),
            )?;
            let calls = r.layout_calls;
            (r.ota, r.mode, calls)
        }
        Case::AllParasitics => {
            let r = layout_oriented_synthesis(
                tech,
                specs,
                opts.plan.as_ref(),
                &opts.flow_options(false),
            )?;
            let calls = r.layout_calls;
            (r.ota, r.mode, calls)
        }
    };

    // One measurement under the options' scenario, or — corner-aware
    // acceptance — the per-metric worst case over the scenario set.
    let measure = |mode: &ParasiticMode| -> Result<Performance, CaseError> {
        if opts.scenarios.is_empty() {
            return Ok(evaluate_with(ota.as_ref(), tech, mode, &opts.eval)?);
        }
        let mut worst: Option<Performance> = None;
        for sc in &opts.scenarios {
            let eval = opts.eval.clone().with_scenario(*sc);
            let p = evaluate_with(ota.as_ref(), tech, mode, &eval)?;
            worst = Some(match worst {
                Some(w) => w.worst_case(&p),
                None => p,
            });
        }
        Ok(worst.expect("scenario set checked non-empty"))
    };

    // Synthesized performance: the sizing tool's own belief.
    let synthesized = measure(&synth_mode)?;

    // Extraction step: generate the layout of this sizing, extract all
    // parasitics, simulate (the paper's bracketed values — done with the
    // commercial extractor in the original). Another cooperative stop
    // point first: cases 1–2 have no flow loop, so without this check a
    // cancelled batch would still pay for layout generation.
    opts.control.check()?;
    let lplan = topology_layout_plan(tech, ota.as_ref(), &opts.layout);
    let generated = lplan.generate(tech, opts.shape)?;
    let report = losac_layout::plan::ParasiticReport {
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
    let full = ParasiticMode::Full(to_feedback(&report, false));
    let extracted = measure(&full)?;

    Ok(CaseResult {
        case,
        ota,
        synthesized,
        extracted,
        layout_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Case runs are exercised end-to-end by the integration tests and the
    // table1 binary; here we keep one smoke case to bound runtime.

    #[test]
    fn default_case_options_match_flow_defaults() {
        let o = CaseOptions::default();
        let f = FlowOptions::default();
        assert_eq!(o.shape, f.shape);
        assert_eq!(o.layout, f.layout);
        assert_eq!(o.tolerance, f.tolerance);
        assert_eq!(o.max_layout_calls, f.max_layout_calls);
        let flow = o.flow_options(true);
        assert!(flow.diffusion_only);
        flow.validate().unwrap();
    }

    #[test]
    fn run_case_with_honours_cancellation() {
        use std::sync::atomic::AtomicBool;
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let opts = CaseOptions::builder()
            .with_control(FlowControl::new().with_stop(Arc::new(AtomicBool::new(true))))
            .build();
        // Every case — including the loop-free cases 1–2 — stops before
        // doing any work.
        for case in Case::ALL {
            let r = run_case_with(&tech, &specs, case, &opts);
            assert!(
                matches!(r, Err(CaseError::Flow(FlowError::Cancelled))),
                "{case} did not cancel"
            );
        }
    }

    #[test]
    fn case1_shape() {
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let r = run_case(&tech, &specs, Case::NoParasitics).unwrap();
        // Synthesized meets the GBW target...
        assert!(
            r.synthesized.gbw > 0.95 * specs.gbw,
            "synth gbw {:.1} MHz",
            r.synthesized.gbw / 1e6
        );
        // ...but the extracted netlist falls short: parasitics were
        // ignored (the paper's 58.1 MHz vs 65 MHz spec).
        assert!(
            r.extracted.gbw < r.synthesized.gbw,
            "extracted {:.1} vs synth {:.1} MHz",
            r.extracted.gbw / 1e6,
            r.synthesized.gbw / 1e6
        );
        assert!(r.extracted.phase_margin < r.synthesized.phase_margin);
    }
}
