//! The layout-oriented synthesis flow — the paper's contribution.
//!
//! ```text
//!          spec, technology
//!                │
//!        ┌──── sizing ◄────────────┐
//!        │       │                 │
//!        │   layout tool           │ folding styles, diffusion
//!        │  (parasitic mode)       │ geometry, routing/coupling/well
//!        │       │                 │ capacitance
//!        │       └────────────────►┘
//!        │  (repeat until the parasitics stop changing)
//!        ▼
//!   layout tool (generation mode) → physical layout
//! ```
//!
//! The first sizing assumes one fold per transistor with diffusion
//! capacitance only (exactly the paper's §2); each subsequent iteration
//! feeds the freshly calculated parasitics back into the sizing plan.
//! Convergence is declared when no net's lumped parasitic capacitance
//! moves by more than the tolerance between consecutive layout calls —
//! the paper needed three calls on the example OTA.

use crate::layout_gen::{to_feedback, topology_layout_plan, LayoutOptions};
use crate::telemetry::FlowTelemetry;
use losac_layout::plan::{GeneratedLayout, ParasiticReport};
use losac_layout::slicing::ShapeConstraint;
use losac_obs::f;
use losac_sizing::{EvalOptions, OtaSpecs, ParasiticMode, SizingError, Topology, TopologyPlan};
use losac_tech::Technology;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative run control: an optional stop flag and an optional
/// wall-clock deadline, checked by the flow between layout calls.
///
/// The default control never stops a run. Cancellation is *cooperative*:
/// a phase that is already in progress completes before the flag or
/// deadline is observed, so a run ends at the next phase boundary rather
/// than mid-solve. This is what lets a batch engine abort a whole queue
/// without poisoning any partially-computed state.
#[derive(Debug, Clone, Default)]
pub struct FlowControl {
    stop: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl FlowControl {
    /// Control that never stops the run (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a shared stop flag; the flow returns
    /// [`FlowError::Cancelled`] at the next phase boundary after the flag
    /// is raised.
    #[must_use]
    pub fn with_stop(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Attach an absolute deadline; the flow returns
    /// [`FlowError::TimedOut`] at the next phase boundary past it.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a wall-clock budget counted from now.
    #[must_use]
    pub fn with_budget(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Attach `deadline` only if it is sooner than any deadline already
    /// set — the merge rule for stacking limits from different layers (a
    /// per-job budget under a batch-wide or request-wide deadline).
    #[must_use]
    pub fn with_deadline_earliest(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Time left until the deadline (zero once it has passed); `None`
    /// when no deadline is attached.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the stop flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Whether the deadline has passed.
    pub fn is_past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The shared stop flag, when one is attached.
    pub fn stop_flag(&self) -> Option<Arc<AtomicBool>> {
        self.stop.clone()
    }

    /// The absolute deadline, when one is attached.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The simulator-level interrupt mirroring this control, or `None`
    /// when the control never stops a run. Installing it (see
    /// [`losac_sim::interrupt::install`]) makes the Newton iterations
    /// *inside* a phase observe the same stop flag and deadline the flow
    /// checks between phases, so a hung solve cannot outlive the budget.
    pub fn sim_interrupt(&self) -> Option<losac_sim::interrupt::SimInterrupt> {
        let mut si = losac_sim::interrupt::SimInterrupt::new();
        if let Some(flag) = self.stop_flag() {
            si = si.with_stop(flag);
        }
        if let Some(d) = self.deadline {
            si = si.with_deadline(d);
        }
        si.is_armed().then_some(si)
    }

    /// Check both conditions, cancellation first.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] when the stop flag is raised,
    /// [`FlowError::TimedOut`] when the deadline has passed.
    pub fn check(&self) -> Result<(), FlowError> {
        if self.is_cancelled() {
            return Err(FlowError::Cancelled);
        }
        if self.is_past_deadline() {
            return Err(FlowError::TimedOut);
        }
        Ok(())
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Shape constraint handed to the layout tool.
    pub shape: ShapeConstraint,
    /// Layout implementation options.
    pub layout: LayoutOptions,
    /// Convergence tolerance on the relative change of any net's lumped
    /// parasitic capacitance.
    pub tolerance: f64,
    /// Maximum number of layout-tool calls.
    pub max_layout_calls: usize,
    /// Feed back only diffusion information (Table 1 case 3) instead of
    /// all parasitics (case 4).
    pub diffusion_only: bool,
    /// Cooperative cancellation / deadline control (defaults to "never
    /// stop").
    pub control: FlowControl,
    /// Performance knobs for every `evaluate` the flow's callers run on
    /// its results (threads, shared evaluation cache, kernels). All knobs
    /// are bitwise-neutral; the default is serial with no cache.
    pub eval: EvalOptions,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            shape: ShapeConstraint::MinArea,
            layout: LayoutOptions::default(),
            tolerance: 0.02,
            max_layout_calls: 10,
            diffusion_only: false,
            control: FlowControl::default(),
            eval: EvalOptions::default(),
        }
    }
}

/// Fluent constructor for [`FlowOptions`]; validates on
/// [`build`](FlowOptionsBuilder::build). Obtained from
/// [`FlowOptions::builder`].
///
/// ```
/// use losac_core::flow::FlowOptions;
/// use losac_layout::slicing::ShapeConstraint;
///
/// let opts = FlowOptions::builder()
///     .with_tolerance(0.01)
///     .with_shape(ShapeConstraint::Aspect(1.0))
///     .with_max_layout_calls(6)
///     .build()
///     .unwrap();
/// assert_eq!(opts.max_layout_calls, 6);
/// assert!(FlowOptions::builder().with_tolerance(-1.0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to obtain the validated FlowOptions"]
pub struct FlowOptionsBuilder {
    opts: FlowOptions,
}

impl FlowOptionsBuilder {
    /// Set the convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.opts.tolerance = tolerance;
        self
    }

    /// Set the layout shape constraint.
    pub fn with_shape(mut self, shape: ShapeConstraint) -> Self {
        self.opts.shape = shape;
        self
    }

    /// Set the layout-call budget.
    pub fn with_max_layout_calls(mut self, calls: usize) -> Self {
        self.opts.max_layout_calls = calls;
        self
    }

    /// Feed back only diffusion information (Table 1 case 3).
    pub fn with_diffusion_only(mut self, diffusion_only: bool) -> Self {
        self.opts.diffusion_only = diffusion_only;
        self
    }

    /// Set the layout implementation options.
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.opts.layout = layout;
        self
    }

    /// Set the cancellation / deadline control.
    pub fn with_control(mut self, control: FlowControl) -> Self {
        self.opts.control = control;
        self
    }

    /// Set the evaluation performance knobs.
    pub fn with_eval(mut self, eval: EvalOptions) -> Self {
        self.opts.eval = eval;
        self
    }

    /// Validate and return the options.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidOptions`] under the same conditions as
    /// [`FlowOptions::validate`].
    pub fn build(self) -> Result<FlowOptions, FlowError> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

impl FlowOptions {
    /// Start a fluent builder with the default options.
    pub fn builder() -> FlowOptionsBuilder {
        FlowOptionsBuilder::default()
    }

    /// Check that the options describe a runnable flow.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidOptions`] when the tolerance is not a
    /// positive finite number or the call budget is zero.
    pub fn validate(&self) -> Result<(), FlowError> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(FlowError::InvalidOptions(format!(
                "tolerance must be a positive finite number, got {}",
                self.tolerance
            )));
        }
        if self.max_layout_calls < 1 {
            return Err(FlowError::InvalidOptions(
                "max_layout_calls must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The result of a layout-oriented synthesis run.
#[derive(Debug)]
pub struct FlowResult {
    /// The final sized circuit, behind the object-safe [`Topology`]
    /// interface (evaluation, device map, layout spec, supply current).
    pub ota: Arc<dyn Topology>,
    /// The parasitic mode the final sizing used (carries the feedback).
    pub mode: ParasiticMode,
    /// The physically generated layout (generation mode output).
    pub layout: GeneratedLayout,
    /// The final parasitic report.
    pub report: ParasiticReport,
    /// Number of layout-tool calls before convergence.
    pub layout_calls: usize,
    /// Whether the parasitics converged within the call budget.
    pub converged: bool,
    /// Largest relative parasitic change per iteration (diagnostic).
    pub history: Vec<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: std::time::Duration,
    /// Runtime telemetry: per-phase timings and solver-activity counters.
    pub telemetry: FlowTelemetry,
}

impl FlowResult {
    /// Last observed parasitic change — `None` when the budget allowed a
    /// single layout call, which leaves nothing to compare.
    ///
    /// When [`converged`](FlowResult::converged) is `true` this is the
    /// change that *triggered* convergence, so `converged == true`
    /// implies `final_change() <= tolerance` — including a run that
    /// converged on its very first comparison.
    pub fn final_change(&self) -> Option<f64> {
        self.history.last().copied()
    }
}

/// Flow failure.
///
/// Marked `#[non_exhaustive]`: callers outside this crate must keep a
/// wildcard arm so new variants (as `TimedOut` and `Cancelled` were) can
/// be added without a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// The options were rejected before the flow started.
    InvalidOptions(String),
    /// The sizing plan failed.
    Sizing(SizingError),
    /// The layout tool failed.
    Layout(losac_layout::plan::PlanError),
    /// The run exceeded its wall-clock budget ([`FlowControl`] deadline).
    TimedOut,
    /// The run was cancelled via its [`FlowControl`] stop flag.
    Cancelled,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidOptions(e) => write!(f, "invalid flow options: {e}"),
            FlowError::Sizing(e) => write!(f, "flow failed in sizing: {e}"),
            FlowError::Layout(e) => write!(f, "flow failed in layout: {e}"),
            FlowError::TimedOut => write!(f, "flow exceeded its wall-clock budget"),
            FlowError::Cancelled => write!(f, "flow was cancelled"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SizingError> for FlowError {
    fn from(e: SizingError) -> Self {
        FlowError::Sizing(e)
    }
}

impl From<losac_layout::plan::PlanError> for FlowError {
    fn from(e: losac_layout::plan::PlanError) -> Self {
        FlowError::Layout(e)
    }
}

/// Largest relative change of any device's drain/source diffusion area
/// between two reports. A device present in only one report counts as a
/// full-scale change — checked in both directions, so the measure is
/// symmetric in its arguments.
fn diffusion_change(a: &ParasiticReport, b: &ParasiticReport) -> f64 {
    if b.devices.keys().any(|name| !a.devices.contains_key(name)) {
        return 1.0;
    }
    let mut worst: f64 = 0.0;
    for (name, da) in &a.devices {
        let Some(db) = b.devices.get(name) else {
            return 1.0;
        };
        for (x, y) in [
            (da.drain.area, db.drain.area),
            (da.source.area, db.source.area),
        ] {
            let denom = x.abs().max(y.abs()).max(1e-18);
            worst = worst.max((x - y).abs() / denom);
        }
    }
    worst
}

/// Run the layout-oriented synthesis flow (Fig. 1(b) of the paper).
///
/// # Errors
///
/// Returns [`FlowError`] when sizing or layout generation fails; an
/// unconverged run within the call budget is *not* an error (see
/// [`FlowResult::converged`]).
pub fn layout_oriented_synthesis(
    tech: &Technology,
    specs: &OtaSpecs,
    plan: &dyn TopologyPlan,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    opts.validate()?;
    let start = Instant::now();
    // Mirror the flow control down into the simulator: Newton polls the
    // interrupt every iteration, so a stop or deadline fires inside a
    // solve rather than waiting for the next phase boundary.
    let _sim_interrupt = opts
        .control
        .sim_interrupt()
        .map(losac_sim::interrupt::install);
    let _flow_span = losac_obs::span_with(
        "flow",
        vec![
            f("topology", plan.topology_name()),
            f("tolerance", opts.tolerance),
            f("max_layout_calls", opts.max_layout_calls),
            f("diffusion_only", opts.diffusion_only),
        ],
    );
    let metrics_before = losac_obs::metrics::snapshot();
    let mut telemetry = FlowTelemetry::default();

    // First sizing: one fold per transistor, diffusion capacitance only.
    let mut mode = ParasiticMode::UnfoldedDiffusion;
    let mut history = Vec::new();
    let mut prev_report: Option<ParasiticReport> = None;
    let mut layout_calls = 0;
    let mut converged = false;
    let sizing_start = Instant::now();
    let mut ota: Box<dyn Topology> = plan.size_topology(tech, specs, &mode)?;
    telemetry.sizing_durations.push(sizing_start.elapsed());

    let mut layout_opts = opts.layout.clone();
    while layout_calls < opts.max_layout_calls {
        // Cooperative stop point: between layout calls the run can be
        // cancelled or timed out without leaving partial state behind.
        opts.control.check()?;
        // Call the layout tool in parasitic-calculation mode.
        #[cfg(feature = "failpoints")]
        if losac_obs::failpoint::hit("flow.layout_call").is_some() {
            return Err(FlowError::Layout(
                losac_layout::plan::PlanError::with_message(
                    "injected failure at `flow.layout_call`",
                ),
            ));
        }
        static LAYOUT_CALL_MS: losac_obs::Histogram =
            losac_obs::Histogram::new("flow.layout_call.ms");
        let call_span = losac_obs::span_with("flow.layout_call", vec![f("call", layout_calls + 1)]);
        let call_start = Instant::now();
        let lplan = topology_layout_plan(tech, ota.as_ref(), &layout_opts);
        let report = lplan.calculate_parasitics(tech, opts.shape)?;
        let call_elapsed = call_start.elapsed();
        telemetry.layout_call_durations.push(call_elapsed);
        LAYOUT_CALL_MS.observe_duration(call_elapsed);
        drop(call_span);
        layout_calls += 1;
        let total_folds: u32 = report.devices.values().map(|d| d.folds).sum();
        let total_net_cap: f64 = report.net_cap.values().sum();
        losac_obs::event(
            "flow.folds",
            &[
                f("call", layout_calls),
                f("total_folds", u64::from(total_folds)),
            ],
        );
        losac_obs::event(
            "flow.net_cap",
            &[f("call", layout_calls), f("total_f", total_net_cap)],
        );
        // Freeze the discrete folding decisions after the first call so
        // the loop converges on the continuous quantities (the paper's
        // tool behaves the same way: the layout style is an input option,
        // not something re-decided every call).
        if layout_calls == 1 {
            for (name, d) in &report.devices {
                layout_opts.fold_hints.insert(name.clone(), d.folds);
            }
        }

        if let Some(prev) = &prev_report {
            // Convergence is judged on what the loop actually feeds back:
            // all lumped parasitics in the full flow, the diffusion
            // geometry alone in the diffusion-only variant.
            let change = if opts.diffusion_only {
                diffusion_change(&report, prev)
            } else {
                report.max_relative_change(prev)
            };
            history.push(change);
            losac_obs::event(
                "flow.parasitic_change",
                &[f("call", layout_calls), f("change", change)],
            );
            // Inclusive comparison so the documented invariant
            // `converged == true ⇒ final_change() <= tolerance` holds
            // exactly, with no gap at `change == tolerance`.
            if change <= opts.tolerance {
                prev_report = Some(report);
                converged = true;
                break;
            }
        }

        // Feed the parasitics back and re-size, with relaxation: averaging
        // successive capacitance reports makes the sizing↔layout fixed
        // point a contraction, damping the small limit cycles that the
        // calibration's discrete stopping criterion would otherwise
        // sustain.
        let mut fb = to_feedback(&report, true);
        if let Some(prev_mode) = mode.feedback() {
            for (name, d) in fb.devices.iter_mut() {
                if let Some(p) = prev_mode.devices.get(name) {
                    d.drain.area = 0.5 * (d.drain.area + p.drain.area);
                    d.drain.perimeter = 0.5 * (d.drain.perimeter + p.drain.perimeter);
                    d.source.area = 0.5 * (d.source.area + p.source.area);
                    d.source.perimeter = 0.5 * (d.source.perimeter + p.source.perimeter);
                }
            }
            for (net, c) in fb.net_caps.iter_mut() {
                if let Some(p) = prev_mode.net_caps.get(net) {
                    *c = 0.5 * (*c + p);
                }
            }
            for (k, c) in fb.coupling.iter_mut() {
                if let Some(p) = prev_mode.coupling.get(k) {
                    *c = 0.5 * (*c + p);
                }
            }
            for (net, c) in fb.well_caps.iter_mut() {
                if let Some(p) = prev_mode.well_caps.get(net) {
                    *c = 0.5 * (*c + p);
                }
            }
        }
        mode = if opts.diffusion_only {
            ParasiticMode::DiffusionOnly(fb)
        } else {
            ParasiticMode::Full(fb)
        };
        let sizing_start = Instant::now();
        ota = plan.size_topology(tech, specs, &mode)?;
        telemetry.sizing_durations.push(sizing_start.elapsed());
        prev_report = Some(report);
    }

    // Generation mode: produce the physical layout of the final sizing,
    // with the same frozen folding decisions the loop converged on.
    opts.control.check()?;
    let generation_start = Instant::now();
    let lplan = topology_layout_plan(tech, ota.as_ref(), &layout_opts);
    let layout = lplan.generate(tech, opts.shape)?;
    telemetry.generation_duration = generation_start.elapsed();
    let report = prev_report.expect("validate() guarantees at least one layout call");

    let elapsed = start.elapsed();
    telemetry.total_duration = elapsed;
    telemetry.set_counters(&metrics_before, &losac_obs::metrics::snapshot());
    losac_obs::event(
        "flow.done",
        &[
            f("layout_calls", layout_calls),
            f("converged", converged),
            f("elapsed_ms", elapsed.as_secs_f64() * 1e3),
        ],
    );

    Ok(FlowResult {
        ota: Arc::from(ota),
        mode,
        layout,
        report,
        layout_calls,
        converged,
        history,
        elapsed,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_sizing::FoldedCascodePlan;

    /// Shared scaffolding: run the flow on the paper's folded-cascode
    /// example with the given options (every test used to spell out the
    /// same technology/specs/plan triple inline).
    fn run_with(opts: &FlowOptions) -> Result<FlowResult, FlowError> {
        let tech = Technology::cmos06();
        layout_oriented_synthesis(
            &tech,
            &OtaSpecs::paper_example(),
            &FoldedCascodePlan::default(),
            opts,
        )
    }

    fn run() -> FlowResult {
        run_with(&FlowOptions::default()).unwrap()
    }

    #[test]
    fn flow_converges_in_few_calls() {
        let r = run();
        assert!(r.converged, "history: {:?}", r.history);
        // The paper needed three layout calls on this example.
        assert!(
            (2..=6).contains(&r.layout_calls),
            "layout calls = {} (history {:?})",
            r.layout_calls,
            r.history
        );
        // Convergence history must be decreasing-ish and end small.
        assert!(r.final_change().expect("at least two layout calls") < 0.02);
    }

    #[test]
    fn single_layout_call_budget_is_not_an_error() {
        let r = run_with(&FlowOptions {
            max_layout_calls: 1,
            ..Default::default()
        })
        .unwrap();
        // One call leaves nothing to compare: no history, no convergence
        // claim, and crucially no panic.
        assert_eq!(r.layout_calls, 1);
        assert!(!r.converged);
        assert!(r.history.is_empty());
        assert_eq!(r.final_change(), None);
    }

    #[test]
    fn invalid_options_are_rejected() {
        for bad in [
            FlowOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            FlowOptions {
                tolerance: -0.5,
                ..Default::default()
            },
            FlowOptions {
                tolerance: f64::NAN,
                ..Default::default()
            },
            FlowOptions {
                max_layout_calls: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(run_with(&bad), Err(FlowError::InvalidOptions(_))));
        }
    }

    #[test]
    fn telemetry_matches_run_shape() {
        let r = run();
        let t = &r.telemetry;
        assert_eq!(t.layout_call_durations.len(), r.layout_calls);
        // One initial sizing plus one re-sizing per fed-back report (the
        // converging call feeds nothing back).
        assert_eq!(t.sizing_durations.len(), r.layout_calls);
        assert!(t.generation_duration.as_nanos() > 0);
        assert!(t.total_duration >= t.generation_duration);
        // The run must have exercised the device and matrix solvers.
        assert!(
            t.counter("device.vgs_bisect.calls") > 0,
            "counters: {:?}",
            t.counters
        );
        assert!(
            t.counter("sim.matrix.factorizations") > 0,
            "counters: {:?}",
            t.counters
        );
        assert!(t.counter("layout.generate.calls") >= r.layout_calls as u64 + 1);
        let json = t.to_json();
        assert!(json.contains("\"total_s\""), "{json}");
    }

    #[test]
    fn flow_is_fast() {
        // The paper: "the sizing time for each case including layout
        // calls does not exceed two minutes" on a 1999 workstation. Ours
        // must finish in seconds.
        let r = run();
        assert!(r.elapsed.as_secs() < 60, "took {:?}", r.elapsed);
    }

    #[test]
    fn final_mode_carries_feedback() {
        let r = run();
        assert!(matches!(r.mode, ParasiticMode::Full(_)));
        let fb = r.mode.feedback().unwrap();
        assert_eq!(fb.devices.len(), 11);
        // Final layout agrees with the final feedback folding.
        for (name, d) in &r.layout.devices {
            assert_eq!(d.folds, fb.devices[name].folds, "{name}");
        }
    }

    #[test]
    fn converged_implies_final_change_within_tolerance() {
        // Regression: the invariant must hold whether convergence takes
        // several comparisons (tight tolerance) or is declared on the
        // very first one (loose tolerance).
        for tolerance in [0.02, 0.5] {
            let r = run_with(&FlowOptions {
                tolerance,
                ..Default::default()
            })
            .unwrap();
            assert!(r.converged, "tolerance {tolerance}: {:?}", r.history);
            let last = r
                .final_change()
                .expect("converged runs compared at least once");
            assert!(
                last <= tolerance,
                "tolerance {tolerance}: final_change {last} (history {:?})",
                r.history
            );
        }
        // A loose tolerance converges on the first comparison: exactly
        // one history entry, and it is the converging one.
        let r = run_with(&FlowOptions {
            tolerance: 0.9,
            ..Default::default()
        })
        .unwrap();
        assert!(r.converged);
        assert_eq!(r.history.len(), 1, "history {:?}", r.history);
        assert!(r.final_change().unwrap() <= 0.9);
        // And an unsatisfiable tolerance never claims convergence.
        let r = run_with(&FlowOptions {
            tolerance: 1e-12,
            max_layout_calls: 3,
            ..Default::default()
        })
        .unwrap();
        assert!(!r.converged);
    }

    #[test]
    fn builder_validates_and_builds() {
        let opts = FlowOptions::builder()
            .with_tolerance(0.05)
            .with_shape(ShapeConstraint::Aspect(2.0))
            .with_max_layout_calls(4)
            .with_diffusion_only(true)
            .build()
            .unwrap();
        assert_eq!(opts.tolerance, 0.05);
        assert_eq!(opts.shape, ShapeConstraint::Aspect(2.0));
        assert_eq!(opts.max_layout_calls, 4);
        assert!(opts.diffusion_only);
        assert!(matches!(
            FlowOptions::builder().with_tolerance(f64::NAN).build(),
            Err(FlowError::InvalidOptions(_))
        ));
        assert!(matches!(
            FlowOptions::builder().with_max_layout_calls(0).build(),
            Err(FlowError::InvalidOptions(_))
        ));
    }

    #[test]
    fn raised_stop_flag_cancels_the_run() {
        use std::sync::atomic::AtomicBool;
        let flag = Arc::new(AtomicBool::new(true));
        let r = run_with(&FlowOptions {
            control: FlowControl::new().with_stop(flag),
            ..Default::default()
        });
        assert!(matches!(r, Err(FlowError::Cancelled)));
    }

    #[test]
    fn expired_deadline_times_the_run_out() {
        let r = run_with(&FlowOptions {
            control: FlowControl::new().with_budget(Duration::ZERO),
            ..Default::default()
        });
        assert!(matches!(r, Err(FlowError::TimedOut)));
    }

    #[test]
    fn default_control_never_stops() {
        let c = FlowControl::default();
        assert!(!c.is_cancelled());
        assert!(!c.is_past_deadline());
        c.check().unwrap();
    }

    #[test]
    fn diffusion_only_flow_also_converges() {
        let r = run_with(&FlowOptions {
            diffusion_only: true,
            ..Default::default()
        })
        .unwrap();
        assert!(r.converged);
        assert!(matches!(r.mode, ParasiticMode::DiffusionOnly(_)));
    }
}
