//! A corner_sweep design point's yield/Cpk and job rows are bitwise equal
//! at one and two engine workers.

use losac_perfbench::corner::CornerSweep;

fn rendered(r: &losac_perfbench::OpResult) -> Vec<(String, Vec<String>)> {
    r.output
        .as_ref()
        .expect("design point ran")
        .iter()
        .map(|(k, t)| (k.clone(), t.iter().map(|t| t.render()).collect()))
        .collect()
}

#[test]
fn yield_and_cpk_are_bitwise_equal_at_one_and_two_workers() {
    let sweep = CornerSweep::setup(3, 2);
    for seq in 0..2 {
        let one = sweep.op(seq, 1);
        let two = sweep.op(seq, 2);
        assert_eq!(rendered(&one), rendered(&two), "design point {seq}");
        assert!(rendered(&one)[0].0.ends_with("/yield"));
    }
}
