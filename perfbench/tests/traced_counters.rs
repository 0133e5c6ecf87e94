//! Two traced runs of the same ops read identical program counters: the
//! traced run is serial, so every counter delta belongs to its op alone.

use losac_perfbench::corner::CornerSweep;
use losac_perfbench::ledger::Ledger;
use losac_perfbench::table1::Table1;
use losac_perfbench::Budget;

type Counts = Vec<([u64; 13], u64)>;

fn counts(lg: &Ledger) -> Counts {
    lg.op_deltas
        .iter()
        .chain(&lg.case_deltas)
        .map(|p| (p.counters, p.evals))
        .collect()
}

fn traced_run() -> (Counts, Vec<(usize, bool)>, Counts) {
    // The first four table1_mix ops are one folded-cascode point through
    // cases 1-4.
    let mut t1 = Ledger::default();
    let ops = Table1::setup(5, 1).run_traced(&Budget::ops(4), &mut t1);
    assert!(ops.iter().all(|o| o.output.is_ok()), "{ops:?}");
    let mut cs = Ledger::default();
    let ops = CornerSweep::setup(5, 1).run_traced(&Budget::ops(1), &mut cs);
    assert!(ops.iter().all(|o| o.output.is_ok()), "{ops:?}");
    (counts(&t1), t1.flows, counts(&cs))
}

#[test]
fn two_traced_runs_give_identical_counters() {
    let first = traced_run();
    let second = traced_run();
    assert!(first.0.iter().any(|c| c.1 > 0), "no evaluations counted");
    assert_eq!(first, second);
}
