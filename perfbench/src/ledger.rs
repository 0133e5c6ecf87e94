//! The traced run's span ledger and the per-layer metrics derived from it.
//!
//! A [`Span`] is a timed interval around one call into a layer, recorded
//! by the benchmark around the layer's public function. Every span
//! carries the id of the op it belongs to and the id of its parent span.
//! Three kinds exist:
//!
//! * *timed* spans, measured around a call the benchmark makes;
//! * *derived* spans, read from `FlowResult::telemetry` durations (the
//!   flow's sizing and layout calls happen inside one public call);
//! * *replay* spans, measured by re-running an evaluation's
//!   sub-analyses on the same amplifier and parasitic mode after the op
//!   (see `replay.rs`); their parent is the evaluation they explain.
//!
//! Counters are the program's own `losac_obs` counters, read before and
//! after each call. The traced run is serial, so the deltas belong to
//! the call alone. Spans stay in memory and are written out when the run
//! ends.

use crate::stats;
use losac_obs::{Counter, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::time::Instant;

/// `losac_obs` counters the ledger reads.
static HANDLES: [Counter; 13] = [
    Counter::new("sim.dc.newton_iters"),
    Counter::new("sim.dc.solves"),
    Counter::new("sim.dc.failures"),
    Counter::new("sim.matrix.factorizations"),
    Counter::new("sim.matrix.numeric_refactors"),
    Counter::new("sim.matrix.symbolic_analyses"),
    Counter::new("sim.matrix.sparse_fallbacks"),
    Counter::new("device.model.evals"),
    Counter::new("device.vgs_bisect.iters"),
    Counter::new("device.gm_bisect.iters"),
    Counter::new("layout.drc.violations"),
    Counter::new("sizing.eval.cache_hit"),
    Counter::new("sizing.eval.cache_miss"),
];

/// The evaluator's own latency histogram: its count is the number of
/// uncached evaluations, its sum their milliseconds.
static EVAL_MS: Histogram = Histogram::new("sizing.evaluate.ms");

fn idx(name: &str) -> usize {
    HANDLES
        .iter()
        .position(|c| c.name() == name)
        .expect("counter is listed in HANDLES")
}

/// Counter totals (or deltas) at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probe {
    /// Values of the counters the ledger reads, in order.
    pub counters: [u64; 13],
    /// Uncached evaluations.
    pub evals: u64,
    /// Milliseconds spent in uncached evaluations.
    pub eval_ms: f64,
}

impl Probe {
    /// Current totals.
    pub fn read() -> Probe {
        let h = EVAL_MS.snapshot();
        Probe {
            counters: std::array::from_fn(|i| HANDLES[i].get()),
            evals: h.count,
            eval_ms: h.sum,
        }
    }

    /// Totals accumulated since `before`.
    pub fn since(&self, before: &Probe) -> Probe {
        Probe {
            counters: std::array::from_fn(|i| self.counters[i].saturating_sub(before.counters[i])),
            evals: self.evals.saturating_sub(before.evals),
            eval_ms: self.eval_ms - before.eval_ms,
        }
    }

    /// One counter by name.
    pub fn get(&self, name: &str) -> u64 {
        self.counters[idx(name)]
    }

    fn add(&mut self, other: &Probe) {
        for i in 0..self.counters.len() {
            self.counters[i] += other.counters[i];
        }
        self.evals += other.evals;
        self.eval_ms += other.eval_ms;
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the span in the ledger.
    pub id: usize,
    /// Parent span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Layer function the span times.
    pub name: &'static str,
    /// Start, microseconds since the ledger was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Read from program telemetry rather than timed by the benchmark.
    pub derived: bool,
    /// Measured by replaying sub-analyses after the op.
    pub replay: bool,
}

/// One engine batch (corner_sweep) or served request (serve_repeat).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Worker utilisation of each batch.
    pub utilization: Vec<f64>,
    /// Merged per-job latency distribution.
    pub job_ms: HistogramSnapshot,
    /// Retries over all batches.
    pub retries: u64,
    /// Degraded jobs over all batches.
    pub degraded: u64,
    /// Layout calls of every job that produced a result.
    pub layout_calls: Vec<f64>,
}

/// Request-level numbers of the serving layer.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Request latency minus the engine's wall time, per request (ms).
    pub wait_ms: Vec<f64>,
    /// The engine's wall time per request (ms), from the result frame.
    pub engine_ms: Vec<f64>,
    /// Error frames received.
    pub errors: u64,
}

/// Spans, counter deltas and layer-specific figures of one traced run.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    /// Every span, in the order opened.
    pub spans: Vec<Span>,
    /// Counter deltas over each op's root span.
    pub op_deltas: Vec<Probe>,
    /// Counter deltas over each decomposed case (`core.case` span).
    pub case_deltas: Vec<Probe>,
    /// `(layout calls, converged)` of each flow.
    pub flows: Vec<(usize, bool)>,
    /// Engine batch figures.
    pub engine: EngineStats,
    /// Serving-layer figures.
    pub serve: ServeStats,
    /// Root-span durations of untraced ops (ms), for the overhead ratio.
    pub untraced_ms: Vec<f64>,
    /// Root-span durations of traced ops (ms).
    pub traced_ms: Vec<f64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            op_deltas: Vec::new(),
            case_deltas: Vec::new(),
            flows: Vec::new(),
            engine: EngineStats::default(),
            serve: ServeStats::default(),
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
        }
    }
}

impl Ledger {
    fn us_since_epoch(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Ledger::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.us_since_epoch(Instant::now());
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_us,
            dur_us: 0.0,
            derived: false,
            replay: false,
        });
        id
    }

    /// Close span `id`; returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.us_since_epoch(Instant::now());
        let s = &mut self.spans[id];
        s.dur_us = now - s.start_us;
        s.dur_us / 1e3
    }

    /// Time `f` as a child span of `parent`.
    pub fn timed<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Record a span whose duration the program measured.
    pub fn derived(
        &mut self,
        op: u64,
        parent: usize,
        name: &'static str,
        start_us: f64,
        dur: std::time::Duration,
    ) -> f64 {
        let id = self.spans.len();
        let dur_us = dur.as_secs_f64() * 1e6;
        self.spans.push(Span {
            op,
            id,
            parent: Some(parent),
            name,
            start_us,
            dur_us,
            derived: true,
            replay: false,
        });
        start_us + dur_us
    }

    /// Mark span `id` as a replay.
    pub fn mark_replay(&mut self, id: usize) {
        self.spans[id].replay = true;
    }

    /// Start time of span `id` (µs since the ledger's epoch).
    pub fn start_us(&self, id: usize) -> f64 {
        self.spans[id].start_us
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self.named(name).map(|s| s.dur_us / 1e3).collect();
        stats::mean(&durs)
    }

    fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Self time (ms) of each span named `name`: its duration minus the
    /// durations of its children of the given kind (replay or not).
    fn self_ms(&self, name: &str, replay_children: bool) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if s.replay == replay_children {
                    child_us[p] += s.dur_us;
                }
            }
        }
        self.named(name)
            .map(|s| (s.dur_us - child_us[s.id]) / 1e3)
            .collect()
    }

    /// Every per-layer metric, as `(name, value, unit)`.
    ///
    /// `*.ms` is the mean duration of one call of that layer function;
    /// `*.calls` is calls per op (per decomposed case for the sizing and
    /// layout rows). The `sim.*` and `device.model.evals` counts are per
    /// uncached evaluation, counted over whole ops; the sub-analysis
    /// times are per replayed evaluation. A layer the workload never
    /// reaches reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.op_deltas.len().max(1) as f64;
        let mut op_total = Probe::default();
        for d in &self.op_deltas {
            op_total.add(d);
        }
        let mut case_total = Probe::default();
        for d in &self.case_deltas {
            case_total.add(d);
        }
        let cases = self.count("core.case");
        let per_case = |n: f64| if cases == 0 { 0.0 } else { n / cases as f64 };
        let size_calls = self.count("sizing.size");
        let per_size = |name: &str| {
            if size_calls == 0 {
                0.0
            } else {
                case_total.get(name) as f64 / size_calls as f64
            }
        };
        let evals = op_total.evals as f64;
        let per_eval = |name: &str| {
            if evals == 0.0 {
                0.0
            } else {
                op_total.get(name) as f64 / evals
            }
        };
        // Evaluations that were replayed, and their self time outside
        // the replays.
        let replayed: std::collections::HashSet<usize> = self
            .spans
            .iter()
            .filter(|c| c.replay && c.name != "core.case")
            .filter_map(|c| c.parent)
            .collect();
        let per_replay = |name: &str| {
            if replayed.is_empty() {
                0.0
            } else {
                self.named(name).map(|s| s.dur_us / 1e3).sum::<f64>() / replayed.len() as f64
            }
        };
        let eval_unattributed: Vec<f64> = self
            .named("sizing.evaluate")
            .zip(self.self_ms("sizing.evaluate", true))
            .filter(|(s, _)| replayed.contains(&s.id))
            .map(|(_, v)| v)
            .collect();
        let flows = self.flows.len();
        let flow_calls: Vec<f64> = self.flows.iter().map(|f| f.0 as f64).collect();
        let converged = self.flows.iter().filter(|f| f.1).count();
        let hits = op_total.get("sizing.eval.cache_hit") as f64;
        let misses = op_total.get("sizing.eval.cache_miss") as f64;
        let overhead = {
            let u = stats::median(&self.untraced_ms);
            if u > 0.0 {
                stats::median(&self.traced_ms) / u - 1.0
            } else {
                0.0
            }
        };
        let e = &self.engine;
        let s = &self.serve;
        vec![
            ("core.case.ms", self.mean_ms("core.case"), "ms"),
            ("core.flow.ms", self.mean_ms("core.flow"), "ms"),
            ("core.flow.layout_calls", stats::mean(&flow_calls), "count"),
            (
                "core.flow.converged_frac",
                if flows == 0 {
                    0.0
                } else {
                    converged as f64 / flows as f64
                },
                "frac",
            ),
            (
                "core.case.unattributed_ms",
                stats::mean(&self.self_ms("core.case", false)),
                "ms",
            ),
            ("sizing.size.ms", self.mean_ms("sizing.size"), "ms"),
            ("sizing.size.calls", per_case(size_calls as f64), "count"),
            (
                "device.vgs_bisect.iters",
                per_size("device.vgs_bisect.iters"),
                "count",
            ),
            (
                "device.gm_bisect.iters",
                per_size("device.gm_bisect.iters"),
                "count",
            ),
            (
                "layout.parasitics.ms",
                self.mean_ms("layout.parasitics"),
                "ms",
            ),
            (
                "layout.parasitics.calls",
                per_case(self.count("layout.parasitics") as f64),
                "count",
            ),
            ("layout.generate.ms", self.mean_ms("layout.generate"), "ms"),
            (
                "layout.drc.violations",
                per_case(case_total.get("layout.drc.violations") as f64),
                "count",
            ),
            (
                "sizing.evaluate.ms",
                if evals == 0.0 {
                    0.0
                } else {
                    op_total.eval_ms / evals
                },
                "ms",
            ),
            ("sizing.evaluate.calls", evals / ops, "count"),
            ("sizing.balance.ms", per_replay("sizing.balance"), "ms"),
            (
                "sizing.evaluate.unattributed_ms",
                stats::mean(&eval_unattributed),
                "ms",
            ),
            ("sim.ac.ms", per_replay("sim.ac"), "ms"),
            ("sim.ac_point.ms", per_replay("sim.ac_point"), "ms"),
            ("sim.dc_op.ms", per_replay("sim.dc_op"), "ms"),
            ("sim.noise.ms", per_replay("sim.noise"), "ms"),
            ("sim.tran.ms", per_replay("sim.tran"), "ms"),
            (
                "sim.dc.newton_iters",
                per_eval("sim.dc.newton_iters"),
                "count",
            ),
            ("sim.dc.solves", per_eval("sim.dc.solves"), "count"),
            ("sim.dc.failures", per_eval("sim.dc.failures"), "count"),
            (
                "sim.matrix.factorizations",
                per_eval("sim.matrix.factorizations"),
                "count",
            ),
            (
                "sim.matrix.numeric_refactors",
                per_eval("sim.matrix.numeric_refactors"),
                "count",
            ),
            (
                "sim.matrix.symbolic_analyses",
                per_eval("sim.matrix.symbolic_analyses"),
                "count",
            ),
            (
                "sim.matrix.sparse_fallbacks",
                per_eval("sim.matrix.sparse_fallbacks"),
                "count",
            ),
            (
                "device.model.evals",
                per_eval("device.model.evals"),
                "count",
            ),
            ("engine.utilization", stats::mean(&e.utilization), "frac"),
            ("engine.job.ms_p50", e.job_ms.p50(), "ms"),
            ("engine.retries", e.retries as f64 / ops, "count"),
            ("engine.degraded", e.degraded as f64 / ops, "count"),
            (
                "engine.layout_calls_per_job",
                stats::mean(&e.layout_calls),
                "count",
            ),
            ("sizing.cache.hits", hits / ops, "count"),
            ("sizing.cache.misses", misses / ops, "count"),
            (
                "sizing.cache.hit_frac",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "frac",
            ),
            ("serve.wait_ms", stats::mean(&s.wait_ms), "ms"),
            ("serve.engine_ms", stats::mean(&s.engine_ms), "ms"),
            ("serve.errors", s.errors as f64, "count"),
            ("obs.trace_overhead_frac", overhead, "frac"),
        ]
    }

    /// The spans as JSON lines, after one header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"derived\":{},\"replay\":{}}}",
                s.op, s.id, s.name, s.start_us, s.dur_us, s.derived, s.replay
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut l = Ledger::default();
        let root = l.open(0, None, "core.case");
        let t = l.start_us(root);
        l.derived(
            0,
            root,
            "sizing.size",
            t,
            std::time::Duration::from_millis(2),
        );
        l.spans[root].dur_us = 5000.0;
        let selfs = l.self_ms("core.case", false);
        assert!((selfs[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn every_metric_is_named_once() {
        let l = Ledger::default();
        let m = l.per_layer();
        let names: std::collections::HashSet<_> = m.iter().map(|r| r.0).collect();
        assert_eq!(names.len(), m.len());
        assert_eq!(m.len(), 42);
    }
}
