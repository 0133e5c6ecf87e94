//! Every workload passes its output checks on a seed that was not used
//! while the benchmark was written.

use losac_perfbench::corner::CornerSweep;
use losac_perfbench::serve::{verify_offline, Daemon, ServeRepeat};
use losac_perfbench::table1::Table1;
use losac_perfbench::{failures, reference, Budget};

const HELD_OUT: u64 = 20_261_017;

#[test]
fn table1_mix_passes_its_checks() {
    let ops = Table1::setup(HELD_OUT, 1).run(&Budget::ops(12));
    assert_eq!(ops.len(), 12);
    let failed = failures(&reference("cases.tsv").unwrap(), &ops, |_| Ok(()));
    assert!(failed.is_empty(), "{failed:?}");
}

#[test]
fn corner_sweep_passes_its_checks() {
    let ops = CornerSweep::setup(HELD_OUT, 1).run(&Budget::ops(1), 2);
    assert_eq!(ops.len(), 1);
    let failed = failures(&reference("corner.tsv").unwrap(), &ops, |_| Ok(()));
    assert!(failed.is_empty(), "{failed:?}");
}

#[test]
fn serve_repeat_matches_the_reference_and_an_offline_batch() {
    let requests = 8;
    let workload = ServeRepeat::setup(HELD_OUT, requests);
    let mut daemon = Daemon::start(2, 2).unwrap();
    let (ops, served) = workload.run(&mut daemon, &Budget::ops(requests));
    daemon.stop().unwrap();
    assert_eq!(ops.len(), requests);
    let bad = verify_offline(workload.plans(), &served);
    assert!(bad.is_empty(), "{bad:?}");
    let failed = failures(&reference("cases.tsv").unwrap(), &ops, |_| Ok(()));
    assert!(failed.is_empty(), "{failed:?}");
}
