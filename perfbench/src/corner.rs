//! `corner_sweep`: each op is one folded-cascode design point run as one
//! `Engine::run_batch` over case 4 × {tt, ss, ff} × {−40, 27, 125} °C,
//! timed until its yield/Cpk result. Every job re-runs the nominal flow,
//! then evaluates the sized circuit under its scenario.

use crate::check::{case_tokens, Token};
use crate::inputs::DesignPoint;
use crate::ledger::{Ledger, Probe};
use crate::replay::traced_case;
use crate::{run_alternating, run_serial, synth_extract_gap, Budget, OpResult};
use losac_core::Case;
use losac_engine::{BatchResult, Engine, EngineOptions, SweepBuilder, SynthesisJob};
use losac_sizing::TopologyPlan;
use losac_tech::{Corner, Technology};
use std::sync::Arc;
use std::time::Instant;

/// Analysis temperatures of the sweep (°C).
pub const TEMPS_C: [f64; 3] = [-40.0, 27.0, 125.0];
/// Process corners of the sweep.
pub const CORNERS: [Corner; 3] = [Corner::Typical, Corner::Slow, Corner::Fast];

/// Design points whose nominal-job gap enters `synth_extract_dev`.
pub const QUALITY_SAMPLES: usize = 32;

/// The inputs of a `corner_sweep` run, made in set-up.
pub struct CornerSweep {
    tech: Arc<Technology>,
    plan: Arc<dyn TopologyPlan>,
    points: Vec<DesignPoint>,
}

/// The nine scenario jobs of one design point.
pub fn jobs(
    tech: &Arc<Technology>,
    plan: &dyn TopologyPlan,
    dp: &DesignPoint,
) -> Vec<SynthesisJob> {
    SweepBuilder::new(tech.clone(), dp.specs(plan))
        .over_cases([Case::AllParasitics])
        .corners(CORNERS)
        .temperatures(TEMPS_C)
        .build()
}

/// Output rows of one design point's batch: the yield/Cpk row under the
/// design point's key, and each job's status and Performance rows under
/// the job's scenario.
pub fn outputs(
    dp: &DesignPoint,
    jobs: &[SynthesisJob],
    batch: &BatchResult,
) -> Result<Vec<(String, Vec<Token>)>, String> {
    let [y] = batch.telemetry.design_points.as_slice() else {
        return Err(format!(
            "{}: expected one design point, got {}",
            dp.key(),
            batch.telemetry.design_points.len()
        ));
    };
    let num = |v: f64| Token::Num(v);
    let mut rows = vec![(
        format!("{}/yield", dp.key()),
        vec![
            num(y.scenarios as f64),
            num(y.measured as f64),
            num(y.passed as f64),
            num(y.gbw.mean),
            num(y.gbw.sigma),
            num(y.gbw.worst),
            num(y.phase_margin.mean),
            num(y.phase_margin.sigma),
            num(y.phase_margin.worst),
            y.cpk.map_or(Token::Word("none".into()), num),
        ],
    )];
    for (job, outcome) in jobs.iter().zip(&batch.outcomes) {
        let mut t = vec![Token::Word(outcome.status().to_owned())];
        if let Some(r) = outcome.result() {
            t.extend(case_tokens(&r.synthesized, &r.extracted));
        }
        rows.push((format!("{}/{}", dp.key(), job.scenario.label()), t));
    }
    Ok(rows)
}

impl CornerSweep {
    /// Technology, plan and the seeded design points.
    pub fn setup(seed: u64, n: usize) -> CornerSweep {
        let registry = losac_sizing::TopologyRegistry::builtin();
        CornerSweep {
            tech: Arc::new(Technology::cmos06()),
            plan: crate::inputs::plans(&registry).swap_remove(0),
            points: crate::inputs::corner_points(seed, n),
        }
    }

    fn point(&self, seq: usize) -> DesignPoint {
        self.points[seq % self.points.len()]
    }

    fn batch(&self, seq: usize, workers: usize) -> (Vec<SynthesisJob>, BatchResult, f64) {
        let t0 = Instant::now();
        let jobs = jobs(&self.tech, self.plan.as_ref(), &self.point(seq));
        let batch = Engine::new(EngineOptions::with_workers(workers)).run_batch(jobs.clone());
        (jobs, batch, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// One untraced op at `workers` engine workers.
    pub fn op(&self, seq: usize, workers: usize) -> OpResult {
        let (jobs, batch, ms) = self.batch(seq, workers);
        result(seq, ms, &self.point(seq), &jobs, &batch)
    }

    /// One traced op at one worker, then a replay of its nominal job
    /// decomposed into layer spans.
    pub fn op_traced(&self, seq: usize, lg: &mut Ledger) -> OpResult {
        let dp = self.point(seq);
        let before = Probe::read();
        let root = lg.open(seq as u64, None, "engine.run_batch");
        let (jobs, batch, _) = self.batch(seq, 1);
        let ms = lg.close(root);
        lg.op_deltas.push(Probe::read().since(&before));
        lg.traced_ms.push(ms);
        let t = &batch.telemetry;
        lg.engine.utilization.push(t.utilization());
        lg.engine.job_ms.merge(&t.job_ms);
        lg.engine.retries += t.retries;
        lg.engine.degraded += t.degraded as u64;
        lg.engine.layout_calls.extend(
            batch
                .outcomes
                .iter()
                .filter_map(|o| o.result())
                .map(|r| r.layout_calls as f64),
        );
        let mut r = result(seq, ms, &dp, &jobs, &batch);
        if let Err(e) = self.replay_nominal(seq, root, &dp, &jobs, &batch, lg) {
            r.output = Err(e);
        }
        r
    }

    fn replay_nominal(
        &self,
        seq: usize,
        root: usize,
        dp: &DesignPoint,
        jobs: &[SynthesisJob],
        batch: &BatchResult,
        lg: &mut Ledger,
    ) -> Result<(), String> {
        let i = jobs
            .iter()
            .position(|j| j.scenario.is_nominal())
            .ok_or("no nominal job in the sweep")?;
        let job = batch.outcomes[i]
            .result()
            .ok_or("nominal job produced no result")?;
        let c = traced_case(
            lg,
            seq as u64,
            Some(root),
            &self.tech,
            &dp.specs(self.plan.as_ref()),
            Case::AllParasitics,
            &self.plan,
        )?;
        lg.mark_replay(c.span);
        if case_tokens(&c.synthesized, &c.extracted)
            != case_tokens(&job.synthesized, &job.extracted)
        {
            return Err(format!(
                "{}: traced replay differs from the engine's nominal job",
                dp.key()
            ));
        }
        Ok(())
    }

    /// Serial untraced ops at `workers` workers until the budget is spent.
    pub fn run(&self, budget: &Budget, workers: usize) -> Vec<OpResult> {
        run_serial(budget, |seq| self.op(seq, workers))
    }

    /// Untraced and traced ops at one worker, alternating.
    pub fn run_traced(&self, budget: &Budget, lg: &mut Ledger) -> Vec<OpResult> {
        run_alternating(
            budget,
            lg,
            |seq| self.op(seq, 1),
            |seq, lg| self.op_traced(seq, lg),
        )
    }
}

fn result(
    seq: usize,
    ms: f64,
    dp: &DesignPoint,
    jobs: &[SynthesisJob],
    batch: &BatchResult,
) -> OpResult {
    let gaps = jobs
        .iter()
        .position(|j| j.scenario.is_nominal())
        .and_then(|i| batch.outcomes[i].result())
        .map(|r| synth_extract_gap(&r.synthesized, &r.extracted))
        .into_iter()
        .collect();
    OpResult {
        seq,
        ms,
        output: outputs(dp, jobs, batch),
        gaps,
    }
}
