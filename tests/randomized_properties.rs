//! Randomized tests over random graphs: every ordering algorithm must
//! produce valid permutations; the envelope metrics must satisfy their
//! algebraic identities and the paper's Theorem 2.1 inequalities; the
//! envelope Cholesky must solve what it factors.
//!
//! Formerly `proptest` properties; now seeded loops over the in-tree PRNG
//! so the workspace builds without registry access.

use se_prng::SmallRng;
use spectral_envelope_repro::envelope::EnvelopeMatrix;
use spectral_envelope_repro::order::{order, Algorithm};
use spectral_envelope_repro::sparsemat::envelope::{
    bandwidth, envelope_size, envelope_stats, frontwidths, p_sum, row_widths,
};
use spectral_envelope_repro::sparsemat::{Permutation, SymmetricPattern};

/// A random graph on 2..=40 vertices with random edges, made connected by
/// threading a random spanning path through all vertices.
fn connected_graph(rng: &mut SmallRng) -> SymmetricPattern {
    let n = rng.gen_range(2..=40usize);
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

/// An arbitrary (possibly disconnected) graph.
fn any_graph(rng: &mut SmallRng) -> SymmetricPattern {
    let n = rng.gen_range(1..=40usize);
    let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n + 1))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    SymmetricPattern::from_edges(n, &edges).expect("in range")
}

/// Every algorithm returns a valid permutation on any graph.
#[test]
fn orderings_are_valid_permutations() {
    let mut rng = SmallRng::seed_from_u64(0xA001);
    for _ in 0..64 {
        let g = any_graph(&mut rng);
        for alg in [
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Sloan,
            Algorithm::Spectral,
            Algorithm::HybridSloanSpectral,
        ] {
            let o = order(&g, alg).unwrap();
            let mut seen = vec![false; g.n()];
            for k in 0..g.n() {
                let v = o.perm.new_to_old(k);
                assert!(!seen[v], "{alg:?} repeats vertex {v}");
                seen[v] = true;
            }
        }
    }
}

/// Σ frontwidths == envelope size, and row widths reproduce all stats.
#[test]
fn envelope_identities() {
    let mut rng = SmallRng::seed_from_u64(0xA002);
    for seed in 0..64u64 {
        let g = any_graph(&mut rng);
        let perm = meshgen::scramble(g.n(), seed);
        let stats = envelope_stats(&g, &perm);
        let fw = frontwidths(&g, &perm);
        assert_eq!(fw.iter().sum::<u64>(), stats.envelope_size);
        let rw = row_widths(&g, &perm);
        assert_eq!(rw.iter().sum::<u64>(), stats.envelope_size);
        assert_eq!(rw.iter().map(|r| r * r).sum::<u64>(), stats.envelope_work);
        assert_eq!(rw.iter().copied().max().unwrap_or(0), stats.bandwidth);
        assert_eq!(envelope_size(&g, &perm), stats.envelope_size);
        assert_eq!(bandwidth(&g, &perm), stats.bandwidth);
        // p-sums at p = 1, 2 match the dedicated counters.
        assert!((p_sum(&g, &perm, 1.0) - stats.one_sum as f64).abs() < 1e-9);
        assert!((p_sum(&g, &perm, 2.0) - stats.two_sum_sq as f64).abs() < 1e-9);
    }
}

/// Theorem 2.1's per-ordering inequalities:
/// Esize ≤ σ₁ ≤ Δ·Esize and Ework ≤ σ₂² ≤ Δ·Ework.
#[test]
fn theorem_2_1_inequalities() {
    let mut rng = SmallRng::seed_from_u64(0xA003);
    for seed in 0..64u64 {
        let g = any_graph(&mut rng);
        if g.num_edges() == 0 {
            continue;
        }
        let perm = meshgen::scramble(g.n(), seed);
        let s = envelope_stats(&g, &perm);
        let delta = g.max_degree() as u64;
        assert!(s.envelope_size <= s.one_sum);
        assert!(s.one_sum <= delta * s.envelope_size);
        assert!(s.envelope_work <= s.two_sum_sq);
        assert!(s.two_sum_sq <= delta * s.envelope_work);
    }
}

/// Permutation round trips: PᵀAP under a permutation then its inverse is
/// the original pattern.
#[test]
fn permute_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xA004);
    for seed in 0..64u64 {
        let g = any_graph(&mut rng);
        let perm = meshgen::scramble(g.n(), seed);
        let there = g.permute(&perm).unwrap();
        let back = there.permute(&perm.inverse()).unwrap();
        assert_eq!(back, g);
    }
}

/// Envelope statistics are invariants of the *pair* (pattern, ordering):
/// computing on (PᵀAP, id) equals computing on (A, P).
#[test]
fn stats_commute_with_permutation() {
    let mut rng = SmallRng::seed_from_u64(0xA005);
    for seed in 0..64u64 {
        let g = any_graph(&mut rng);
        let perm = meshgen::scramble(g.n(), seed);
        let permuted = g.permute(&perm).unwrap();
        let s1 = envelope_stats(&permuted, &Permutation::identity(g.n()));
        let s2 = envelope_stats(&g, &perm);
        assert_eq!(s1, s2);
    }
}

/// The envelope Cholesky factors and solves every connected SPD shifted
/// Laplacian, under an arbitrary ordering.
#[test]
fn envelope_cholesky_solves() {
    let mut rng = SmallRng::seed_from_u64(0xA006);
    for seed in 0..64u64 {
        let g = connected_graph(&mut rng);
        let perm = meshgen::scramble(g.n(), seed);
        let a = g.spd_matrix(1.0);
        let pa = a.permute_symmetric(&perm).unwrap();
        let mut env = EnvelopeMatrix::from_csr(&pa).unwrap();
        env.factorize().unwrap();
        let x_true: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.61).cos()).collect();
        let b = pa.matvec_alloc(&x_true);
        let x = env.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6, "{} vs {}", xi, ti);
        }
    }
}

/// The Fiedler vector of a connected random graph: λ₂ > 0, unit norm,
/// orthogonal to constants, and the residual is small.
#[test]
fn fiedler_properties_on_random_graphs() {
    use spectral_envelope_repro::eigen::multilevel::fiedler;
    use spectral_envelope_repro::eigen::SolverOpts;
    let mut rng = SmallRng::seed_from_u64(0xA007);
    for _ in 0..64 {
        let g = connected_graph(&mut rng);
        if g.n() < 3 {
            continue;
        }
        let f = fiedler(&g, &SolverOpts::default()).unwrap();
        assert!(f.lambda2 > 0.0, "λ₂ = {}", f.lambda2);
        let s: f64 = f.vector.iter().sum();
        assert!(s.abs() < 1e-6, "sum {}", s);
        let nrm: f64 = f.vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-8);
        assert!(f.residual < 1e-4, "residual {}", f.residual);
    }
}

/// Sorting is the closest permutation (Theorem 2.3), tested against random
/// alternatives: for any vector x and any permutation q,
/// ‖p_sorted − x‖ ≤ ‖q − x‖ where the permutations are the centred vectors
/// of §2.3.
#[test]
fn theorem_2_3_sorted_is_closest() {
    let mut rng = SmallRng::seed_from_u64(0xA008);
    for seed in 0..64u64 {
        let n = rng.gen_range(2..20usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let sorted = Permutation::sorting(&xs);
        let random = meshgen::scramble(n, seed);
        let dist = |p: &Permutation| -> f64 {
            p.centered_vector()
                .iter()
                .zip(&xs)
                .map(|(a, b)| (a - b).powi(2))
                .sum()
        };
        assert!(dist(&sorted) <= dist(&random) + 1e-9);
    }
}

/// GK/GPS/RCM never crash on graphs with isolated vertices and their
/// orderings keep components contiguous blocks.
#[test]
fn components_stay_contiguous() {
    use spectral_envelope_repro::graph::bfs::connected_components;
    let mut rng = SmallRng::seed_from_u64(0xA009);
    for _ in 0..64 {
        let g = any_graph(&mut rng);
        let comps = connected_components(&g);
        for alg in Algorithm::paper_set() {
            let o = order(&g, alg).unwrap();
            // Vertices of each component occupy a contiguous position range.
            for members in &comps.members {
                let mut positions: Vec<usize> =
                    members.iter().map(|&v| o.perm.old_to_new(v)).collect();
                positions.sort_unstable();
                for w in positions.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "{:?} splits a component", alg);
                }
            }
        }
    }
}
