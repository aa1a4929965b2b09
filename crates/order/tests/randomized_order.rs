//! Randomized tests on the internals of the level-structure algorithms and
//! invariants that every ordering algorithm must keep on random graphs.
//!
//! Formerly `proptest` properties; now seeded loops over the in-tree PRNG
//! so the workspace builds without registry access.

use se_order::{cuthill_mckee, order, Algorithm};
use se_prng::SmallRng;
use sparsemat::envelope::{envelope_stats, frontwidth_stats, is_adjacency_ordering};
use sparsemat::SymmetricPattern;

/// Random connected graph on 2..=35 vertices: random edges plus a random
/// spanning path threaded through all vertices.
fn connected_graph(rng: &mut SmallRng) -> SymmetricPattern {
    let n = rng.gen_range(2..=35usize);
    let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..3 * n + 1))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut spine: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut spine);
    for w in spine.windows(2) {
        edges.push((w[0], w[1]));
    }
    SymmetricPattern::from_edges(n, &edges).expect("edges in range")
}

/// Cuthill–McKee is an adjacency ordering on every connected graph
/// (§2.4: "The Cuthill-McKee ordering is an adjacency ordering").
#[test]
fn cm_is_adjacency_ordering() {
    let mut rng = SmallRng::seed_from_u64(0x0D01);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        assert!(is_adjacency_ordering(&g, &cuthill_mckee(&g)));
    }
}

/// Sloan numbers only preactive/active vertices, which sit within distance
/// 2 of the numbered set — so every vertex after the first is at graph
/// distance ≤ 2 from an earlier one.
#[test]
fn sloan_is_within_distance_two() {
    let mut rng = SmallRng::seed_from_u64(0x0D02);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let o = order(&g, Algorithm::Sloan).unwrap();
        let pos = o.perm.positions();
        for k in 1..g.n() {
            let v = o.perm.new_to_old(k);
            let near = g.neighbors(v).iter().any(|&u| pos[u] < k)
                || g.neighbors(v)
                    .iter()
                    .any(|&u| g.neighbors(u).iter().any(|&w| pos[w] < k));
            assert!(
                near,
                "vertex {v} at position {k} is isolated from earlier ones"
            );
        }
    }
}

/// RCM bandwidth equals CM bandwidth (reversal preserves |σu − σv|), and
/// RCM envelope ≤ CM envelope (Liu–Sherman).
#[test]
fn rcm_dominates_cm() {
    let mut rng = SmallRng::seed_from_u64(0x0D03);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let cm = envelope_stats(&g, &cuthill_mckee(&g));
        let rcm = order(&g, Algorithm::Rcm).unwrap();
        assert_eq!(cm.bandwidth, rcm.stats.bandwidth);
        assert!(
            rcm.stats.envelope_size <= cm.envelope_size,
            "rcm {} > cm {}",
            rcm.stats.envelope_size,
            cm.envelope_size
        );
    }
}

/// The GPS/GK pair never leaves a vertex un-numbered and their envelope
/// statistics are internally consistent with frontwidths.
#[test]
fn gps_gk_internally_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x0D04);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        for alg in [Algorithm::Gps, Algorithm::Gk] {
            let o = order(&g, alg).unwrap();
            let fw = frontwidth_stats(&g, &o.perm);
            let stats = envelope_stats(&g, &o.perm);
            let mean_from_env = stats.envelope_size as f64 / g.n() as f64;
            assert!((fw.mean - mean_from_env).abs() < 1e-9);
        }
    }
}

/// Every algorithm's bandwidth lower bound: for any ordering, bw ≥ ⌈Δ/2⌉
/// on a connected graph.
#[test]
fn bandwidth_respects_degree_bound() {
    let mut rng = SmallRng::seed_from_u64(0x0D06);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let delta = g.max_degree() as u64;
        for alg in Algorithm::paper_set() {
            let o = order(&g, alg).unwrap();
            assert!(
                o.stats.bandwidth >= delta.div_ceil(2),
                "{:?}: bw {} < ceil(Δ/2) = {}",
                alg,
                o.stats.bandwidth,
                delta.div_ceil(2)
            );
        }
    }
}

/// Envelope size is bounded below by n − #components (every vertex after
/// the first in a component has width ≥ 1) and above by n·bandwidth.
#[test]
fn envelope_sandwich() {
    let mut rng = SmallRng::seed_from_u64(0x0D07);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        for alg in Algorithm::paper_set() {
            let o = order(&g, alg).unwrap();
            let n = g.n() as u64;
            assert!(o.stats.envelope_size >= n - 1);
            assert!(o.stats.envelope_size <= n * o.stats.bandwidth.max(1));
        }
    }
}

/// The fill-reducing orderings are valid permutations on irregular graphs.
#[test]
fn fill_reducing_orderings_are_valid() {
    for seed in [1u64, 2, 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = (0..79).map(|i| (i, i + 1)).collect();
        for _ in 0..60 {
            let a = rng.gen_range(0..80usize);
            let b = rng.gen_range(0..80usize);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let g = SymmetricPattern::from_edges(80, &edges).unwrap();
        for alg in [Algorithm::MinDegree, Algorithm::SpectralNd] {
            let o = order(&g, alg).unwrap();
            let mut seen = [false; 80];
            for k in 0..80 {
                let v = o.perm.new_to_old(k);
                assert!(!seen[v], "{alg:?} repeats {v}");
                seen[v] = true;
            }
        }
    }
}
