//! # losac-sizing — knowledge-based analog circuit sizing (COMDIAC-style)
//!
//! The circuit-sizing half of the layout-oriented synthesis flow:
//!
//! * [`specs`] — performance specifications;
//! * [`feedback`] — the layout-parasitic feedback types and the four
//!   Table-1 parasitic-awareness modes;
//! * [`ota`] — amplifier topologies with their design plans: the paper's
//!   folded-cascode example and a two-stage Miller OTA (extensibility
//!   demonstration);
//! * [`eval`] — the verification-by-simulation interface: every Table-1
//!   quantity measured on the `losac-sim` simulator, which evaluates the
//!   same EKV model the sizing equations use;
//! * [`statistical`] — Monte-Carlo mismatch (offset) analysis on the
//!   Pelgrom model, quantifying what the layout's matching styles buy;
//! * [`techeval`] — the technology evaluation interface: gm/ID, fT and
//!   intrinsic-gain characterisation of a process;
//! * [`topology`] — the object-safe [`Topology`]/[`TopologyPlan`]
//!   abstraction the synthesis loop, layout planner and batch engine run
//!   on, plus the name → plan [`TopologyRegistry`].
//!
//! ```no_run
//! use losac_sizing::{FoldedCascodePlan, OtaSpecs, ParasiticMode};
//! use losac_sizing::eval::evaluate;
//! use losac_tech::Technology;
//!
//! let tech = Technology::cmos06();
//! let specs = OtaSpecs::paper_example();
//! let ota = FoldedCascodePlan::default().size(&tech, &specs, &ParasiticMode::None)?;
//! let perf = evaluate(&ota, &tech, &ParasiticMode::None)?;
//! println!("{perf}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod blocks;
pub mod eval;
pub mod feedback;
pub mod ota;
mod persist;
pub mod rng;
pub mod specs;
pub mod statistical;
pub mod techeval;
pub mod topology;

pub use eval::{
    evaluate_with, measure_psrr, EvalCache, EvalError, EvalOptions, EvalOptionsBuilder, InputDrive,
    Performance,
};
pub use feedback::{DeviceFeedback, DiffGeom, LayoutFeedback, ParasiticMode};
pub use losac_tech::{MismatchDraw, Pvt, Scenario};
pub use ota::folded_cascode::{
    BiasVoltages, BranchCurrents, FoldedCascodeOta, FoldedCascodePlan, SizedDevice, SizingError,
};
pub use ota::telescopic::telescopic_example_specs;
pub use ota::telescopic::{TelescopicOta, TelescopicPlan};
pub use ota::two_stage::{TwoStageOta, TwoStagePlan};
pub use specs::OtaSpecs;
pub use statistical::{offset_monte_carlo, MatchingStyle, OffsetStatistics};
pub use techeval::{summarize, TechSummary};
pub use topology::{
    GroupDevice, LayoutModule, MatchedGroup, SingleDevice, Topology, TopologyLayoutSpec,
    TopologyPlan, TopologyRegistry,
};
