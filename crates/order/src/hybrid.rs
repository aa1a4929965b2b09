//! Spectral/local hybrid ordering.
//!
//! §4 of the paper: "A possibility is to make limited use of a local
//! reordering strategy based on the adjacency structure to improve the
//! envelope parameters obtained from the spectral method." This module
//! implements that future-work idea in the form later developed by
//! Kumfert & Pothen (BIT 1997): run **Sloan's algorithm** with the global
//! distance term replaced by the **Fiedler vector** — the spectral order
//! provides the global direction, Sloan's priority provides the local
//! front-size control.

use crate::sloan::{sloan_core, SloanWeights};
use crate::spectral::fiedler_vector;
use crate::Result;
use se_eigen::SolverOpts;
use se_graph::bfs::{bfs, connected_components, induced_subgraph};
use sparsemat::{Permutation, SymmetricPattern};

/// Fiedler-guided Sloan ordering. `force_lanczos` is rung 2 of the
/// degradation ladder, as in [`crate::spectral_ordering`].
pub fn hybrid_sloan_spectral(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Permutation> {
    let comps = connected_components(g);
    let mut order = Vec::with_capacity(g.n());
    for members in &comps.members {
        let (sub, map) = induced_subgraph(g, members);
        let local = hybrid_component(&sub, solver, force_lanczos)?;
        order.extend(local.into_iter().map(|l| map[l]));
    }
    Ok(Permutation::from_new_to_old(order).expect("component orders form a permutation"))
}

fn hybrid_component(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Vec<usize>> {
    let n = g.n();
    if n <= 2 {
        return Ok((0..n).collect());
    }
    let x = &fiedler_vector(g, solver, force_lanczos)?;

    // The start vertex is the extreme of the Fiedler vector; the global
    // priority decreases away from it. Scale the vector to the magnitude of
    // a BFS distance so Sloan's default weights keep their intended balance.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let start = (0..n)
        .min_by(|&a, &b| x[a].partial_cmp(&x[b]).unwrap_or(std::cmp::Ordering::Equal))
        .expect("nonempty component");
    let ecc = bfs(g, start).eccentricity().max(1) as f64;
    // global(v) = ecc · (hi − x_v)/span: maximal at the start end, ~BFS scale.
    let global: Vec<f64> = x.iter().map(|&v| ecc * (hi - v) / span).collect();

    let order = sloan_core(g, &global, start, &SloanWeights::default());
    Ok(crate::gps::pick_better_direction(g, order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral::spectral_ordering;
    use sparsemat::envelope::envelope_stats;

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
    fn hybrid_on_path_is_optimal() {
        let g = SymmetricPattern::from_edges(20, &(0..19).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let p = hybrid_sloan_spectral(&g, &SolverOpts::default(), false).unwrap();
        assert_eq!(envelope_stats(&g, &p).envelope_size, 19);
    }

    #[test]
    fn hybrid_is_valid_permutation() {
        let g = grid(12, 7);
        let p = hybrid_sloan_spectral(&g, &SolverOpts::default(), false).unwrap();
        let mut seen = [false; 84];
        for k in 0..84 {
            seen[p.new_to_old(k)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hybrid_competitive_with_pure_spectral() {
        // The local refinement should never be much worse than the pure
        // sort, and often better.
        let g = grid(18, 11);
        let opts = SolverOpts::default();
        let spec = spectral_ordering(&g, &opts, false).unwrap();
        let hyb = hybrid_sloan_spectral(&g, &opts, false).unwrap();
        let e_spec = envelope_stats(&g, &spec).envelope_size;
        let e_hyb = envelope_stats(&g, &hyb).envelope_size;
        assert!(
            (e_hyb as f64) <= 1.2 * e_spec as f64,
            "hybrid {e_hyb} vs spectral {e_spec}"
        );
    }

    #[test]
    fn hybrid_handles_disconnected() {
        let g = SymmetricPattern::from_edges(8, &[(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)]).unwrap();
        let p = hybrid_sloan_spectral(&g, &SolverOpts::default(), false).unwrap();
        assert_eq!(p.len(), 8);
    }
}
