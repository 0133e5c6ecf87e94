//! The losac benchmark: three seeded workloads driven through the public
//! API, end-to-end metrics with output checks, and a serial traced run
//! that breaks each op down through the layers it crosses.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the layer each metric belongs to.

pub mod check;
pub mod corner;
pub mod host;
pub mod inputs;
pub mod ledger;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod table1;

use check::Token;
use losac_sizing::Performance;
use std::time::Instant;

/// How many ops a run may issue: it stops at whichever limit comes first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// No op is issued at or after this instant.
    pub until: Instant,
    /// No more than this many ops are issued.
    pub max_ops: usize,
}

impl Budget {
    /// Whether op number `issued` (0-based) may still start.
    pub fn allows(&self, issued: usize) -> bool {
        issued < self.max_ops && Instant::now() < self.until
    }

    /// A budget of exactly `n` ops, for tests.
    pub fn ops(n: usize) -> Budget {
        Budget {
            until: Instant::now() + std::time::Duration::from_secs(24 * 3600),
            max_ops: n,
        }
    }
}

/// Ops `0, 1, 2, …` through `op`, one after another, until the budget is
/// spent; a [`host::sample`] precedes each.
pub fn run_serial(budget: &Budget, mut op: impl FnMut(usize) -> OpResult) -> Vec<OpResult> {
    (0..)
        .map_while(|seq| {
            budget.allows(seq).then(|| {
                host::sample();
                op(seq)
            })
        })
        .collect()
}

/// Each op once untraced through `plain`, then once traced on the same
/// input through `traced`, until the budget is spent. The untraced
/// latencies go to the ledger, for `obs.trace_overhead_frac`.
pub fn run_alternating(
    budget: &Budget,
    lg: &mut ledger::Ledger,
    mut plain: impl FnMut(usize) -> OpResult,
    mut traced: impl FnMut(usize, &mut ledger::Ledger) -> OpResult,
) -> Vec<OpResult> {
    let mut out = Vec::new();
    for seq in (0..).take_while(|&seq| budget.allows(seq)) {
        let p = plain(seq);
        lg.untraced_ms.push(p.ms);
        out.push(p);
        out.push(traced(seq, lg));
    }
    out
}

/// One completed op.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Position of the op's input in the workload's seeded sequence.
    pub seq: usize,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Output rows keyed for the reference table, or the op's error.
    pub output: Result<Vec<(String, Vec<Token>)>, String>,
    /// Largest relative synthesized-vs-extracted gap of gain, GBW and
    /// phase margin, per job the workload's quality metric covers.
    pub gaps: Vec<f64>,
}

/// Largest relative gap between synthesized and extracted DC gain, GBW
/// and phase margin — the paper's quality claim for cases 3 and 4.
pub fn synth_extract_gap(synth: &Performance, extracted: &Performance) -> f64 {
    [
        (synth.dc_gain_db, extracted.dc_gain_db),
        (synth.gbw, extracted.gbw),
        (synth.phase_margin, extracted.phase_margin),
    ]
    .iter()
    .map(|(s, e)| ((e - s) / s).abs())
    .fold(0.0, f64::max)
}

/// `synth_extract_dev` of a run: the 90th percentile (nearest rank) of
/// the first `samples` gaps, taken in sequence order and, within an op,
/// in job order. Counting a fixed number of gaps makes the figure depend
/// on the seed and not on how many ops a run's time allows; the 90th
/// percentile stands for "the largest gap" without letting the one or
/// two extreme grid points a sample may or may not hold swing it.
pub fn synth_extract_dev(ops: &[OpResult], samples: usize) -> f64 {
    let mut by_seq: Vec<&OpResult> = ops.iter().filter(|o| !o.gaps.is_empty()).collect();
    by_seq.sort_by_key(|o| o.seq);
    by_seq.dedup_by_key(|o| o.seq);
    let gaps: Vec<f64> = by_seq
        .iter()
        .flat_map(|o| o.gaps.iter().copied())
        .take(samples)
        .collect();
    stats::percentile(&gaps, 0.9)
}

/// Directory of the reference tables stored with the benchmark.
pub fn reference_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference")
}

/// Load reference table `file` (`cases.tsv` or `corner.tsv`).
///
/// # Errors
///
/// When the table cannot be read.
pub fn reference(file: &str) -> Result<check::Table, String> {
    let path = reference_dir().join(file);
    check::Table::load(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Check every op's output rows against `table`, then against `extra`;
/// returns one message per failed op, in op order.
pub fn failures(
    table: &check::Table,
    ops: &[OpResult],
    extra: impl Fn(&OpResult) -> Result<(), String>,
) -> Vec<String> {
    ops.iter()
        .filter_map(|op| {
            op.output
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|rows| rows.iter().try_for_each(|(key, t)| table.check(key, t)))
                .and_then(|()| extra(op))
                .err()
                .map(|e| format!("op {}: {e}", op.seq))
        })
        .collect()
}

/// Peak resident set of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
