//! Brute-force optimality oracle: on tiny graphs, enumerate all n!
//! orderings, find the true minimum envelope, and check where each
//! heuristic lands. Every heuristic must be ≥ optimal (trivially) and the
//! good ones must be *near* optimal on these instances.

use se_order::{order, Algorithm};
use sparsemat::envelope::envelope_size;
use sparsemat::{Permutation, SymmetricPattern};

/// Exhaustive minimum envelope over all orderings (n ≤ 9 or it explodes).
fn brute_force_min_envelope(g: &SymmetricPattern) -> u64 {
    let n = g.n();
    assert!(n <= 9, "brute force limited to tiny graphs");
    let mut order: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let eval = |ord: &[usize]| -> u64 {
        let p = Permutation::from_new_to_old(ord.to_vec()).unwrap();
        envelope_size(g, &p)
    };
    best = best.min(eval(&order));
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                order.swap(0, i);
            } else {
                order.swap(c[i], i);
            }
            best = best.min(eval(&order));
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best
}

fn tiny_graphs() -> Vec<(&'static str, SymmetricPattern)> {
    vec![
        (
            "path7",
            SymmetricPattern::from_edges(7, &(0..6).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap(),
        ),
        (
            "cycle8",
            SymmetricPattern::from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>())
                .unwrap(),
        ),
        (
            "star8",
            SymmetricPattern::from_edges(8, &(1..8).map(|i| (0, i)).collect::<Vec<_>>()).unwrap(),
        ),
        (
            "grid3x3",
            SymmetricPattern::from_edges(
                9,
                &[
                    (0, 1),
                    (1, 2),
                    (3, 4),
                    (4, 5),
                    (6, 7),
                    (7, 8),
                    (0, 3),
                    (3, 6),
                    (1, 4),
                    (4, 7),
                    (2, 5),
                    (5, 8),
                ],
            )
            .unwrap(),
        ),
        (
            "wheel7",
            SymmetricPattern::from_edges(
                7,
                &(1..7)
                    .map(|i| (0, i))
                    .chain((1..7).map(|i| (i, if i == 6 { 1 } else { i + 1 })))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        ),
        (
            "binary_tree",
            SymmetricPattern::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
                .unwrap(),
        ),
        (
            "irregular8",
            SymmetricPattern::from_edges(
                8,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (0, 4),
                    (2, 6),
                    (1, 5),
                ],
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn every_heuristic_is_lower_bounded_by_brute_force() {
    for (name, g) in tiny_graphs() {
        let opt = brute_force_min_envelope(&g);
        for alg in [
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Spectral,
            Algorithm::Sloan,
            Algorithm::HybridSloanSpectral,
        ] {
            let o = order(&g, alg).unwrap();
            assert!(
                o.stats.envelope_size >= opt,
                "{name}/{alg:?}: heuristic {} below optimum {opt}?!",
                o.stats.envelope_size
            );
        }
    }
}

#[test]
fn best_heuristic_is_near_optimal_on_tiny_graphs() {
    // The *best of the six heuristics* should be within 35% of optimal on
    // every tiny instance (usually it is exactly optimal).
    for (name, g) in tiny_graphs() {
        let opt = brute_force_min_envelope(&g);
        let best = [
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Spectral,
            Algorithm::Sloan,
            Algorithm::HybridSloanSpectral,
        ]
        .iter()
        .map(|&alg| order(&g, alg).unwrap().stats.envelope_size)
        .min()
        .unwrap();
        assert!(
            best as f64 <= 1.35 * opt as f64,
            "{name}: best heuristic {best} vs optimum {opt}"
        );
    }
}

#[test]
fn path_and_star_optima_are_known() {
    // The path's optimal envelope is n−1; the star's is n−1 as well (the
    // center placed anywhere forces every vertex after it to reach back).
    let (_, path) = &tiny_graphs()[0];
    assert_eq!(brute_force_min_envelope(path), 6);
    let (_, star) = &tiny_graphs()[2];
    assert_eq!(brute_force_min_envelope(star), 7);
}
