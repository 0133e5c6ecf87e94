//! Counter-level gates for the evaluation cache and linearisation reuse.
//!
//! Kept as a **single test in its own binary**: the `losac-obs` counters
//! are process-global, so factorisation deltas would race against sibling
//! tests running in the same process.

mod oracle;

use losac_obs::metrics::snapshot;
use losac_sizing::eval::{evaluate_with, EvalCache, EvalOptions};
use losac_sizing::{FoldedCascodePlan, OtaSpecs, ParasiticMode};
use losac_tech::Technology;
use std::sync::Arc;

fn counter_delta<R>(name: &str, f: impl FnOnce() -> R) -> (R, u64) {
    let before = snapshot();
    let out = f();
    let delta = snapshot()
        .counters_since(&before)
        .get(name)
        .copied()
        .unwrap_or(0);
    (out, delta)
}

#[test]
fn reuse_and_cache_cut_matrix_factorisations() {
    let tech = Technology::cmos06();
    let ota = FoldedCascodePlan::default()
        .size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None)
        .expect("sizing");
    let mode = ParasiticMode::None;
    const FACTS: &str = "sim.matrix.factorizations";

    // Linearisation reuse replaces the single-point CM and Rout sweeps
    // with one factorisation each; the full evaluation must therefore
    // factorise strictly fewer matrices than the fresh-sweep oracle.
    let (_, oracle_facts) = counter_delta(FACTS, || oracle::reference_evaluate(&ota, &tech, &mode));
    let (_, reuse_facts) = counter_delta(FACTS, || {
        evaluate_with(&ota, &tech, &mode, &EvalOptions::default()).expect("reuse")
    });
    assert!(oracle_facts > 0, "the oracle must factorise");
    assert!(
        reuse_facts < oracle_facts,
        "reuse did not save factorisations ({reuse_facts} vs {oracle_facts})"
    );

    // A cache hit answers from the table: zero simulator work, and the
    // hit/miss counters record exactly one of each.
    let cache = Arc::new(EvalCache::new());
    let opts = EvalOptions::default().with_cache(cache.clone());
    let (_, miss) = counter_delta("sizing.eval.cache_miss", || {
        evaluate_with(&ota, &tech, &mode, &opts).expect("first")
    });
    assert_eq!(miss, 1);
    let before = snapshot();
    evaluate_with(&ota, &tech, &mode, &opts).expect("second");
    let since = snapshot().counters_since(&before);
    assert_eq!(since.get("sizing.eval.cache_hit").copied(), Some(1));
    assert_eq!(
        since.get(FACTS).copied().unwrap_or(0),
        0,
        "a cache hit must not run the simulator"
    );

    // Byte-verified keys: in normal operation (no engineered 64-bit hash
    // collisions) the collision counter must never move — a nonzero value
    // would mean distinct designs land in one hash bucket and are told
    // apart only by the byte check, i.e. the fingerprint hash degraded.
    // Exercise several distinct keys (two parasitic modes on top of the
    // evaluations above) and require zero collisions throughout.
    let before = snapshot();
    for m in [ParasiticMode::None, ParasiticMode::UnfoldedDiffusion] {
        evaluate_with(&ota, &tech, &m, &opts).expect("mode sweep");
    }
    let since = snapshot().counters_since(&before);
    assert_eq!(
        since
            .get("sizing.eval.cache_collision")
            .copied()
            .unwrap_or(0),
        0,
        "distinct eval keys must occupy distinct hash buckets"
    );
}
