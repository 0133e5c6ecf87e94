//! `table1_mix`: the paper's Table 1, widened. Grid variants of the three
//! built-in topologies run through all four cases, serially, through
//! `run_case_with` with no evaluation cache. One op is one case run.

use crate::check::case_tokens;
use crate::inputs::{case_number, DesignPoint};
use crate::ledger::{Ledger, Probe};
use crate::replay::traced_case;
use crate::{run_alternating, run_serial, synth_extract_gap, Budget, OpResult};
use losac_core::{run_case_with, Case, CaseOptions};
use losac_sizing::TopologyPlan;
use losac_tech::Technology;
use std::sync::Arc;
use std::time::Instant;

/// Case-3/4 ops whose gaps enter `synth_extract_dev`.
pub const QUALITY_SAMPLES: usize = 96;

/// Reference-table key of one case run.
pub fn key(dp: &DesignPoint, case: Case) -> String {
    format!("{}/case{}", dp.key(), case_number(case))
}

/// The inputs of a `table1_mix` run, made in set-up.
pub struct Table1 {
    tech: Arc<Technology>,
    plans: Vec<Arc<dyn TopologyPlan>>,
    ops: Vec<(DesignPoint, Case)>,
}

impl Table1 {
    /// Technology, topology plans and the seeded op list.
    pub fn setup(seed: u64, rounds: usize) -> Table1 {
        let registry = losac_sizing::TopologyRegistry::builtin();
        Table1 {
            tech: Arc::new(Technology::cmos06()),
            plans: crate::inputs::plans(&registry),
            ops: crate::inputs::table1_ops(seed, rounds),
        }
    }

    fn input(&self, seq: usize) -> (DesignPoint, Case, &Arc<dyn TopologyPlan>) {
        let (dp, case) = self.ops[seq % self.ops.len()];
        (dp, case, &self.plans[dp.topo])
    }

    /// One untraced op.
    pub fn op(&self, seq: usize) -> OpResult {
        let (dp, case, plan) = self.input(seq);
        let specs = dp.specs(plan.as_ref());
        let opts = CaseOptions::builder().with_plan(plan.clone()).build();
        let t0 = Instant::now();
        let r = run_case_with(&self.tech, &specs, case, &opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        OpResult::from_case(
            seq,
            ms,
            key(&dp, case),
            case,
            r.map(|r| (r.synthesized, r.extracted)),
        )
    }

    /// One traced op: the same case decomposed into spans, then replays.
    pub fn op_traced(&self, seq: usize, lg: &mut Ledger) -> OpResult {
        let (dp, case, plan) = self.input(seq);
        let specs = dp.specs(plan.as_ref());
        let before = Probe::read();
        let r = traced_case(lg, seq as u64, None, &self.tech, &specs, case, plan);
        let (ms, out) = match r {
            Ok(c) => {
                let ms = lg.spans[c.span].dur_us / 1e3;
                (ms, Ok((c.synthesized, c.extracted)))
            }
            Err(e) => (0.0, Err(e)),
        };
        lg.op_deltas.push(Probe::read().since(&before));
        lg.traced_ms.push(ms);
        OpResult::from_case(seq, ms, key(&dp, case), case, out)
    }

    /// Serial untraced ops until the budget is spent.
    pub fn run(&self, budget: &Budget) -> Vec<OpResult> {
        run_serial(budget, |seq| self.op(seq))
    }

    /// Untraced and traced ops, alternating, until the budget is spent.
    pub fn run_traced(&self, budget: &Budget, lg: &mut Ledger) -> Vec<OpResult> {
        run_alternating(
            budget,
            lg,
            |seq| self.op(seq),
            |seq, lg| self.op_traced(seq, lg),
        )
    }
}

impl OpResult {
    fn from_case<E: std::fmt::Display>(
        seq: usize,
        ms: f64,
        key: String,
        case: Case,
        r: Result<(losac_sizing::Performance, losac_sizing::Performance), E>,
    ) -> OpResult {
        let gaps = match &r {
            Ok((s, e)) if matches!(case, Case::ExactDiffusion | Case::AllParasitics) => {
                vec![synth_extract_gap(s, e)]
            }
            _ => Vec::new(),
        };
        OpResult {
            seq,
            ms,
            output: r
                .map(|(s, e)| vec![(key, case_tokens(&s, &e))])
                .map_err(|e| e.to_string()),
            gaps,
        }
    }
}
