//! The spectral envelope-reduction ordering — Algorithm 1 of the paper.
//!
//! 1. Form the Laplacian of the matrix's adjacency graph.
//! 2. Compute a second Laplacian eigenvector (multilevel solver of §3).
//! 3. Sort the components of the eigenvector in nondecreasing order *and*
//!    in nonincreasing order; keep whichever permutation yields the smaller
//!    envelope.
//!
//! Theorem 2.3 justifies the sort: the permutation vector induced by sorting
//! is a closest (2-norm) permutation vector to the eigenvector.

use crate::Result;
use se_eigen::multilevel::{fiedler, fiedler_lanczos};
use se_eigen::SolverOpts;
use se_graph::bfs::{connected_components, induced_subgraph};
use se_trace::Tracer;
use sparsemat::envelope::envelope_size;
use sparsemat::{Permutation, SymmetricPattern};

/// Computes the spectral ordering of `g`. Disconnected graphs are handled
/// per component (components numbered consecutively by smallest vertex).
///
/// `force_lanczos` is rung 2 of the degradation ladder: skip the multilevel
/// scheme and solve each component directly with Lanczos (slower; also the
/// validation reference).
pub fn spectral_ordering(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Permutation> {
    let mut sp = solver.trace.span("spectral");
    let comps = connected_components(g);
    sp.attr("components", comps.members.len() as f64);
    let mut order = Vec::with_capacity(g.n());
    for members in &comps.members {
        let (sub, map) = induced_subgraph(g, members);
        let local = spectral_component(&sub, solver, force_lanczos)?;
        order.extend(local.into_iter().map(|l| map[l]));
    }
    Ok(Permutation::from_new_to_old(order).expect("component orders form a permutation"))
}

/// Algorithm 1 on one connected component; returns the local visit order.
fn spectral_component(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Vec<usize>> {
    let n = g.n();
    if n <= 2 {
        return Ok((0..n).collect());
    }
    let x = fiedler_vector(g, solver, force_lanczos)?;
    Ok(order_by_vector_traced(g, &x, &solver.trace))
}

/// Step 2 of Algorithm 1 on a connected graph of more than two vertices:
/// its Fiedler vector, by the multilevel scheme or (`force_lanczos`)
/// directly by Lanczos. Shared by every multilevel-backed ordering so all of
/// them honour rung 2 of the degradation ladder.
pub(crate) fn fiedler_vector(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Vec<f64>> {
    let fr = if force_lanczos {
        fiedler_lanczos(g, &solver.lanczos_options())?
    } else {
        fiedler(g, solver)?
    };
    Ok(fr.vector)
}

/// Step 3 of Algorithm 1 in isolation: sort `values` nondecreasingly and
/// nonincreasingly, evaluate both envelopes, return the better visit order.
/// Exposed so callers with a precomputed Fiedler vector can reuse it.
pub fn order_by_vector(g: &SymmetricPattern, values: &[f64]) -> Vec<usize> {
    order_by_vector_traced(g, values, &Tracer::disabled())
}

/// [`order_by_vector`] recording `sort` and `envelope_eval` spans (the
/// latter with both candidate envelope sizes) into `trace`.
pub fn order_by_vector_traced(g: &SymmetricPattern, values: &[f64], trace: &Tracer) -> Vec<usize> {
    let (asc, desc) = {
        let _sort_sp = trace.span("sort");
        let asc = Permutation::sorting(values);
        let desc = asc.reversed();
        (asc, desc)
    };
    let mut sp = trace.span("envelope_eval");
    let e_asc = envelope_size(g, &asc);
    let e_desc = envelope_size(g, &desc);
    sp.attr("envelope_asc", e_asc as f64);
    sp.attr("envelope_desc", e_desc as f64);
    if e_desc < e_asc {
        desc.order().to_vec()
    } else {
        asc.order().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::envelope::envelope_stats;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    fn grid(nx: usize, ny: usize) -> SymmetricPattern {
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < ny {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        SymmetricPattern::from_edges(nx * ny, &edges).unwrap()
    }

    #[test]
    fn spectral_recovers_path_order() {
        // The Fiedler vector of a path is monotone, so the spectral ordering
        // is exactly the natural (optimal) one.
        let g = path(50);
        let p = spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        let s = envelope_stats(&g, &p);
        assert_eq!(s.envelope_size, 49);
        assert_eq!(s.bandwidth, 1);
    }

    #[test]
    fn spectral_recovers_scrambled_path() {
        let g = path(60);
        let scramble =
            Permutation::from_new_to_old((0..60).map(|i| (i * 23) % 60).collect()).unwrap();
        let shuffled = g.permute(&scramble).unwrap();
        let p = spectral_ordering(&shuffled, &SolverOpts::default(), false).unwrap();
        assert_eq!(envelope_stats(&shuffled, &p).envelope_size, 59);
    }

    #[test]
    fn spectral_orders_grid_along_long_axis() {
        let g = grid(20, 6);
        let p = spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        let s = envelope_stats(&g, &p);
        // Ordering along the long axis gives envelope ≈ 6 per row.
        assert!(
            s.envelope_size <= 120 * 9,
            "envelope {} too large",
            s.envelope_size
        );
        // The first and last ordered vertices should be at opposite ends of
        // the long axis.
        let first_col = p.new_to_old(0) % 20;
        let last_col = p.new_to_old(119) % 20;
        assert!(
            (first_col < 4 && last_col >= 16) || (first_col >= 16 && last_col < 4),
            "first col {first_col}, last col {last_col}"
        );
    }

    #[test]
    fn spectral_handles_disconnected_graphs() {
        let mut edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        edges.extend((10..19).map(|i| (i, i + 1)));
        let g = SymmetricPattern::from_edges(20, &edges).unwrap();
        let p = spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        let s = envelope_stats(&g, &p);
        assert_eq!(s.envelope_size, 18);
    }

    #[test]
    fn tiny_components_are_fine() {
        let g = SymmetricPattern::from_edges(4, &[(0, 1)]).unwrap();
        let p = spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn force_lanczos_matches_multilevel_quality() {
        let g = grid(15, 8);
        let ml = spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        let lz = spectral_ordering(&g, &SolverOpts::default(), true).unwrap();
        let s_ml = envelope_stats(&g, &ml).envelope_size;
        let s_lz = envelope_stats(&g, &lz).envelope_size;
        let ratio = s_ml as f64 / s_lz as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "multilevel {} vs lanczos {}",
            s_ml,
            s_lz
        );
    }

    #[test]
    fn order_by_vector_picks_better_direction() {
        // On a star with precomputed "fake Fiedler" values, both directions
        // are evaluated; just verify the result is one of the two sorts.
        let g = SymmetricPattern::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let vals = [0.5, -1.0, -0.2, 0.3, 1.0];
        let order = order_by_vector(&g, &vals);
        let asc = Permutation::sorting(&vals);
        let desc = asc.reversed();
        assert!(order == asc.order() || order == desc.order());
    }

    #[test]
    fn theorem_2_3_closest_permutation() {
        // The centred permutation vector induced by sorting the Fiedler
        // vector is at least as close (2-norm) to the scaled eigenvector as
        // 500 random permutations — a statistical check of Theorem 2.3.
        let g = grid(6, 4);
        let n = 24;
        let fr = fiedler_lanczos(&g, &Default::default()).unwrap();
        // Scale the unit eigenvector to the permutation-vector norm ℓ.
        let ell: f64 = Permutation::identity(n)
            .centered_vector()
            .iter()
            .map(|x| x * x)
            .sum();
        let x: Vec<f64> = fr.vector.iter().map(|v| v * ell.sqrt()).collect();
        let dist = |p: &Permutation| -> f64 {
            p.centered_vector()
                .iter()
                .zip(&x)
                .map(|(a, b)| (a - b).powi(2))
                .sum()
        };
        let sorted = Permutation::sorting(&x);
        let d_sorted = dist(&sorted);
        let mut state = 12345u64;
        for _ in 0..500 {
            // Fisher–Yates with an LCG.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let p = Permutation::from_new_to_old(order).unwrap();
            assert!(
                d_sorted <= dist(&p) + 1e-9,
                "random permutation closer than sorted one"
            );
        }
    }
}
