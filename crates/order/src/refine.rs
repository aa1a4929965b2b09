//! Local exchange refinement of an ordering.
//!
//! §4 of the paper: *"A possibility is to make limited use of a local
//! reordering strategy based on the adjacency structure to improve the
//! envelope parameters obtained from the spectral method."* This module
//! implements the simplest such strategy: greedy adjacent-transposition
//! hill climbing — sweep the ordering, swapping neighboring positions
//! whenever that strictly shrinks the envelope, until a sweep makes no
//! progress (or a sweep budget is exhausted).
//!
//! Each candidate swap is evaluated *exactly* but *locally*: only the two
//! swapped vertices and their later-placed neighbors can change row width,
//! so a sweep costs `O(Σ deg²)` rather than `O(n·Esize)`.

use sparsemat::{Permutation, SymmetricPattern};

/// Greedy adjacent-exchange refinement. Returns the refined permutation
/// and the number of swaps applied. The envelope never increases.
pub fn exchange_refine(
    g: &SymmetricPattern,
    perm: &Permutation,
    max_sweeps: usize,
) -> (Permutation, usize) {
    let n = g.n();
    assert_eq!(perm.len(), n, "permutation/pattern size mismatch");
    let mut pos: Vec<usize> = perm.positions().to_vec();
    let mut at: Vec<usize> = perm.order().to_vec();
    let mut swaps = 0usize;

    // Row width of w under `pos`.
    let width = |w: usize, pos: &[usize]| -> i64 {
        let pw = pos[w];
        let mut r = 0i64;
        for &u in g.neighbors(w) {
            if pos[u] < pw {
                r = r.max((pw - pos[u]) as i64);
            }
        }
        r
    };

    for _ in 0..max_sweeps {
        let mut improved = false;
        for k in 0..n.saturating_sub(1) {
            let u = at[k];
            let v = at[k + 1];
            // Affected rows: u, v, and neighbors of either placed after k+1.
            let mut affected: Vec<usize> = vec![u, v];
            for &w in g.neighbors(u).iter().chain(g.neighbors(v)) {
                if pos[w] > k + 1 {
                    affected.push(w);
                }
            }
            affected.sort_unstable();
            affected.dedup();
            let before: i64 = affected.iter().map(|&w| width(w, &pos)).sum();
            // Tentatively swap.
            pos[u] = k + 1;
            pos[v] = k;
            let after: i64 = affected.iter().map(|&w| width(w, &pos)).sum();
            if after < before {
                at[k] = v;
                at[k + 1] = u;
                swaps += 1;
                improved = true;
            } else {
                pos[u] = k;
                pos[v] = k + 1;
            }
        }
        if !improved {
            break;
        }
    }
    (
        Permutation::from_new_to_old(at).expect("swaps preserve permutation"),
        swaps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::envelope::envelope_size;

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
    fn refinement_never_hurts() {
        let g = grid(9, 7);
        for seed in [1u64, 7, 42] {
            let p0 = meshgen_scramble(g.n(), seed);
            let e0 = envelope_size(&g, &p0);
            let (p1, _) = exchange_refine(&g, &p0, 10);
            let e1 = envelope_size(&g, &p1);
            assert!(e1 <= e0, "refinement increased envelope: {e0} -> {e1}");
        }
    }

    /// Local copy of meshgen::scramble to avoid a dev-dependency cycle.
    fn meshgen_scramble(n: usize, seed: u64) -> Permutation {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        Permutation::from_new_to_old(order).unwrap()
    }

    #[test]
    fn optimal_ordering_is_fixed_point() {
        // A path in natural order has minimal envelope; no swap can help.
        let g = SymmetricPattern::from_edges(8, &(0..7).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let id = Permutation::identity(8);
        let (p, swaps) = exchange_refine(&g, &id, 5);
        assert_eq!(swaps, 0);
        assert_eq!(p, id);
    }

    #[test]
    fn fixes_a_single_transposition() {
        // Swap two adjacent vertices of a path: refinement must undo it.
        let g = SymmetricPattern::from_edges(6, &(0..5).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let bad = Permutation::from_new_to_old(vec![0, 2, 1, 3, 4, 5]).unwrap();
        let e_bad = envelope_size(&g, &bad);
        let (p, swaps) = exchange_refine(&g, &bad, 5);
        assert!(swaps >= 1);
        assert!(envelope_size(&g, &p) < e_bad);
        assert_eq!(envelope_size(&g, &p), 5);
    }

    #[test]
    fn refinement_improves_spectral_on_grid() {
        let g = grid(12, 8);
        let spec = crate::spectral::spectral_ordering(&g, &Default::default(), false).unwrap();
        let e_spec = envelope_size(&g, &spec);
        let (p, _) = exchange_refine(&g, &spec, 20);
        let e_ref = envelope_size(&g, &p);
        assert!(e_ref <= e_spec);
    }

    #[test]
    fn result_is_valid_permutation() {
        let g = grid(6, 6);
        let p0 = meshgen_scramble(36, 3);
        let (p, _) = exchange_refine(&g, &p0, 8);
        let mut seen = [false; 36];
        for k in 0..36 {
            let v = p.new_to_old(k);
            assert!(!seen[v]);
            seen[v] = true;
        }
    }
}
