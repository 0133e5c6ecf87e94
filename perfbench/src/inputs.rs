//! Seeded workload inputs.
//!
//! Every input is a *design point*: one built-in topology's
//! `example_specs()` with its GBW and load capacitance scaled and its
//! phase margin shifted by one step of a fixed grid. The grid keeps the
//! set of possible inputs finite, so the expected output of every input
//! can be stored with the benchmark (`reference/`) and checked, whatever
//! seed a run is given. The seed only chooses which points run, and in
//! which order, through `losac_tech::rng::Xorshift128Plus`.

use losac_core::Case;
use losac_sizing::{OtaSpecs, TopologyPlan, TopologyRegistry};
use losac_tech::rng::Xorshift128Plus;

/// Built-in topologies, in registry-name form.
pub const TOPOLOGIES: [&str; 3] = ["folded_cascode", "telescopic", "two_stage"];
/// GBW scale factors applied to the topology's example GBW.
pub const GBW_FACTORS: [f64; 5] = [0.88, 0.94, 1.0, 1.06, 1.12];
/// Load-capacitance scale factors applied to the example C_L.
pub const CL_FACTORS: [f64; 5] = [0.8, 0.9, 1.0, 1.1, 1.2];
/// Phase-margin offsets (degrees) added to the example PM.
pub const PM_OFFSETS: [f64; 5] = [-4.0, -2.0, 0.0, 2.0, 4.0];
/// Grid points per topology.
pub const POINTS_PER_TOPOLOGY: usize = GBW_FACTORS.len() * CL_FACTORS.len() * PM_OFFSETS.len();

/// `serve_repeat` requests per block: each block of
/// [`SERVE_BLOCK`] requests holds [`SERVE_REPEATS_PER_BLOCK`] repeats of
/// earlier design points at seeded positions, so every prefix of whole
/// blocks repeats exactly 40 %. The share stays away from one half so
/// that the latency median falls inside the fresh-request mode instead of
/// on the edge between the two modes.
pub const SERVE_BLOCK: usize = 5;
/// Repeated design points in each block of [`SERVE_BLOCK`] requests.
pub const SERVE_REPEATS_PER_BLOCK: usize = 2;
/// Most `serve_repeat` requests: the fresh ones among them use up 360 of
/// the 375 grid points, so no request past the share has to repeat.
pub const SERVE_MAX_REQUESTS: usize = 600;
const _: () = assert!(
    SERVE_MAX_REQUESTS / SERVE_BLOCK * (SERVE_BLOCK - SERVE_REPEATS_PER_BLOCK)
        <= TOPOLOGIES.len() * POINTS_PER_TOPOLOGY
);

/// One grid point of one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignPoint {
    /// Index into [`TOPOLOGIES`].
    pub topo: usize,
    /// Index into the grid of this topology, `0..POINTS_PER_TOPOLOGY`.
    pub point: usize,
}

impl DesignPoint {
    /// Stable text key, used in the reference tables.
    pub fn key(&self) -> String {
        let (g, c, p) = self.axes();
        format!("{}/g{g}c{c}p{p}", TOPOLOGIES[self.topo])
    }

    fn axes(&self) -> (usize, usize, usize) {
        let p = self.point % PM_OFFSETS.len();
        let c = (self.point / PM_OFFSETS.len()) % CL_FACTORS.len();
        let g = self.point / (PM_OFFSETS.len() * CL_FACTORS.len());
        (g, c, p)
    }

    /// The specification of this point.
    pub fn specs(&self, plan: &dyn TopologyPlan) -> OtaSpecs {
        let (g, c, p) = self.axes();
        let mut s = plan.example_specs();
        s.gbw *= GBW_FACTORS[g];
        s.c_load *= CL_FACTORS[c];
        s.phase_margin += PM_OFFSETS[p];
        s
    }

    /// The grid's centre: the topology's example specification itself.
    pub fn example(topo: usize) -> DesignPoint {
        DesignPoint {
            topo,
            point: POINTS_PER_TOPOLOGY / 2,
        }
    }

    /// Every point of the grid, topology-major.
    pub fn all() -> Vec<DesignPoint> {
        (0..TOPOLOGIES.len())
            .flat_map(|topo| (0..POINTS_PER_TOPOLOGY).map(move |point| DesignPoint { topo, point }))
            .collect()
    }
}

/// The sizing plans of [`TOPOLOGIES`], resolved once.
pub fn plans(registry: &TopologyRegistry) -> Vec<std::sync::Arc<dyn TopologyPlan>> {
    TOPOLOGIES
        .iter()
        .map(|name| registry.get(name).expect("built-in topology is registered"))
        .collect()
}

/// Case number 1–4 of a [`Case`].
pub fn case_number(case: Case) -> u8 {
    match case {
        Case::NoParasitics => 1,
        Case::UnfoldedDiffusion => 2,
        Case::ExactDiffusion => 3,
        _ => 4,
    }
}

fn rng(seed: u64, salt: u64) -> Xorshift128Plus {
    Xorshift128Plus::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn below(rng: &mut Xorshift128Plus, n: usize) -> usize {
    (rng.next_f64() * n as f64) as usize % n
}

/// A seeded permutation of `0..n`.
fn permutation(r: &mut Xorshift128Plus, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, below(r, i + 1));
    }
    p
}

/// Grid points of one topology in a balanced seeded order. Point `i`
/// takes GBW level `b`, C_L level `b + a` and PM level `b + 2a + k`
/// (mod 5), with `b = i % 5`, `a = i / 5 % 5` and `k = i / 25`, each axis
/// relabelled by a seeded permutation and the walk started at a seeded
/// multiple of five. Every five consecutive points hold each level of each axis
/// once, and every 125 consecutive points are the whole grid, so runs of
/// any seed sample the same mix of design points.
fn balanced(r: &mut Xorshift128Plus, n: usize) -> Vec<usize> {
    let (pg, pc, pp) = (permutation(r, 5), permutation(r, 5), permutation(r, 5));
    let start = 5 * below(r, POINTS_PER_TOPOLOGY / 5);
    (start..start + n)
        .map(|i| {
            let (b, a, k) = (i % 5, i / 5 % 5, i / 25 % 5);
            let (g, c, p) = (pg[b], pc[(b + a) % 5], pp[(b + 2 * a + k) % 5]);
            (g * CL_FACTORS.len() + c) * PM_OFFSETS.len() + p
        })
        .collect()
}

/// `table1_mix`: rounds of twelve ops. Each round takes the next point of
/// each topology's balanced order and runs it through all four cases, so
/// every prefix of whole rounds holds the three topologies and four cases
/// in equal shares.
pub fn table1_ops(seed: u64, rounds: usize) -> Vec<(DesignPoint, Case)> {
    let mut r = rng(seed, 1);
    let orders: Vec<Vec<usize>> = (0..TOPOLOGIES.len())
        .map(|_| balanced(&mut r, rounds))
        .collect();
    let mut ops = Vec::with_capacity(rounds * 12);
    for round in 0..rounds {
        for (topo, order) in orders.iter().enumerate() {
            let dp = DesignPoint {
                topo,
                point: order[round],
            };
            ops.extend(Case::ALL.iter().map(|&case| (dp, case)));
        }
    }
    ops
}

/// `corner_sweep`: folded-cascode grid points in balanced order.
pub fn corner_points(seed: u64, n: usize) -> Vec<DesignPoint> {
    balanced(&mut rng(seed, 2), n)
        .into_iter()
        .map(|point| DesignPoint { topo: 0, point })
        .collect()
}

/// `serve_repeat`: `n` requests (at most [`SERVE_MAX_REQUESTS`]). Fresh
/// requests take the grid points of every topology in a seeded order;
/// in each block of [`SERVE_BLOCK`] requests, [`SERVE_REPEATS_PER_BLOCK`]
/// seeded positions (never a block's first) repeat a seeded earlier
/// request's point instead.
pub fn serve_points(seed: u64, n: usize) -> Vec<DesignPoint> {
    assert!(
        n <= SERVE_MAX_REQUESTS,
        "{n} requests need more fresh grid points than exist"
    );
    let mut r = rng(seed, 3);
    let all = DesignPoint::all();
    let mut fresh = permutation(&mut r, all.len()).into_iter().map(|i| all[i]);
    let mut out: Vec<DesignPoint> = Vec::with_capacity(n);
    while out.len() < n {
        let slots = permutation(&mut r, SERVE_BLOCK - 1);
        for pos in 0..SERVE_BLOCK {
            let repeat = pos > 0 && slots[pos - 1] < SERVE_REPEATS_PER_BLOCK;
            let dp = if repeat {
                out[below(&mut r, out.len())]
            } else {
                fresh.next().expect("SERVE_MAX_REQUESTS fits the grid")
            };
            out.push(dp);
        }
    }
    out.truncate(n);
    out
}

/// Share of `points` that repeat an earlier point of the list.
pub fn repeat_share(points: &[DesignPoint]) -> f64 {
    let distinct = points
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    (points.len() - distinct) as f64 / points.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(table1_ops(7, 3), table1_ops(7, 3));
        assert_ne!(table1_ops(7, 3), table1_ops(8, 3));
        assert_eq!(serve_points(7, 50), serve_points(7, 50));
    }

    #[test]
    fn rounds_are_balanced() {
        let ops = table1_ops(3, 5);
        assert_eq!(ops.len(), 60);
        for topo in 0..3 {
            assert_eq!(ops.iter().filter(|(d, _)| d.topo == topo).count(), 20);
        }
    }

    #[test]
    fn serve_repeats_two_in_five() {
        for seed in [11, 12] {
            let pts = serve_points(seed, SERVE_MAX_REQUESTS);
            for blocks in [1, 7, SERVE_MAX_REQUESTS / SERVE_BLOCK] {
                assert_eq!(repeat_share(&pts[..blocks * SERVE_BLOCK]), 0.4);
            }
        }
    }

    #[test]
    fn balanced_order_covers_levels_and_grid() {
        let mut r = rng(9, 0);
        let order = balanced(&mut r, 2 * POINTS_PER_TOPOLOGY);
        for block in order.chunks(5) {
            let levels = |f: fn(&DesignPoint) -> usize| {
                block
                    .iter()
                    .map(|&point| f(&DesignPoint { topo: 0, point }))
                    .collect::<HashSet<_>>()
                    .len()
            };
            assert_eq!(levels(|d| d.axes().0), 5);
            assert_eq!(levels(|d| d.axes().1), 5);
            assert_eq!(levels(|d| d.axes().2), 5);
        }
        let whole: HashSet<_> = order[17..17 + POINTS_PER_TOPOLOGY].iter().collect();
        assert_eq!(whole.len(), POINTS_PER_TOPOLOGY);
    }

    #[test]
    fn keys_are_distinct() {
        let all = DesignPoint::all();
        let keys: HashSet<_> = all.iter().map(DesignPoint::key).collect();
        assert_eq!(keys.len(), all.len());
    }
}
