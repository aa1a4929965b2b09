//! Cross-crate integration tests: the full pipeline from mesh generation
//! through ordering to envelope factorization and solve.

use spectral_envelope_repro::envelope::EnvelopeMatrix;
use spectral_envelope_repro::order::{order, Algorithm};
use spectral_envelope_repro::sparsemat::envelope::{envelope_stats, frontwidths};
use spectral_envelope_repro::sparsemat::Permutation;
use spectral_envelope_repro::spectral_env::{
    fiedler_vector, reorder, reorder_factor_solve, report::compare_orderings,
};

#[test]
fn spectral_pipeline_on_airfoil_mesh() {
    let g = meshgen::annulus_tri(14, 40, 9); // n = 560
    let scrambled = g.permute(&meshgen::scramble(g.n(), 3)).unwrap();
    let a = scrambled.spd_matrix(1.0);

    let r = reorder(&a, Algorithm::Spectral).unwrap();
    let before = envelope_stats(&scrambled, &Permutation::identity(scrambled.n()));
    assert!(
        r.ordering.stats.envelope_size * 3 < before.envelope_size,
        "spectral should cut the scrambled envelope by far more than 3x: {} vs {}",
        r.ordering.stats.envelope_size,
        before.envelope_size
    );

    // Factor the reordered matrix and check the solve end to end.
    let mut env = EnvelopeMatrix::from_csr(&r.matrix).unwrap();
    env.factorize().unwrap();
    let ones = vec![1.0; a.nrows()];
    let b = r.matrix.matvec_alloc(&ones);
    let x = env.solve(&b).unwrap();
    for xi in x {
        assert!((xi - 1.0).abs() < 1e-8);
    }
}

#[test]
fn every_algorithm_survives_every_small_standin() {
    for name in ["POW9", "CAN1072", "BLKHOLE", "DWT2680", "SSTMODEL"] {
        let s = meshgen::standin(name).unwrap();
        for alg in [
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Spectral,
            Algorithm::Sloan,
            Algorithm::HybridSloanSpectral,
        ] {
            let o = order(&s.pattern, alg).unwrap_or_else(|e| panic!("{name}/{alg:?}: {e}"));
            assert_eq!(o.perm.len(), s.pattern.n(), "{name}/{alg:?}");
            // Sanity: the envelope statistic is consistent with frontwidths.
            let fw = frontwidths(&s.pattern, &o.perm);
            assert_eq!(
                fw.iter().sum::<u64>(),
                o.stats.envelope_size,
                "{name}/{alg:?}: frontwidth identity broken"
            );
        }
    }
}

#[test]
fn solve_through_facade_with_all_algorithms() {
    let g = meshgen::grid2d(13, 11);
    let a = g.spd_matrix(0.6);
    let x_true: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let b = a.matvec_alloc(&x_true);
    for alg in Algorithm::paper_set() {
        let (x, env) = reorder_factor_solve(&a, &b, alg).unwrap();
        assert!(env.is_factorized());
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{alg:?}");
        }
    }
}

#[test]
fn fiedler_vector_matches_lambda2_on_known_mesh() {
    // grid2d(nx, ny): λ₂ = 2 − 2cos(π/max(nx, ny)).
    let g = meshgen::grid2d(24, 10);
    let a = g.spd_matrix(1.0);
    let f = fiedler_vector(&a).unwrap();
    let exact = 2.0 - 2.0 * (std::f64::consts::PI / 24.0).cos();
    assert!(
        (f.lambda2 - exact).abs() < 1e-6,
        "λ₂ = {} vs exact {exact}",
        f.lambda2
    );
}

#[test]
fn comparison_is_deterministic() {
    let s = meshgen::standin("BLKHOLE").unwrap();
    let c1 = compare_orderings(&s.pattern, &Algorithm::paper_set()).unwrap();
    let c2 = compare_orderings(&s.pattern, &Algorithm::paper_set()).unwrap();
    for (r1, r2) in c1.rows.iter().zip(&c2.rows) {
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.perm, r2.perm);
        assert_eq!(r1.rank, r2.rank);
    }
}

#[test]
fn degenerate_sizes_are_handled() {
    use spectral_envelope_repro::sparsemat::SymmetricPattern;
    // n = 0 and n = 1 through every algorithm.
    for n in [0usize, 1] {
        let g = SymmetricPattern::from_edges(n, &[]).unwrap();
        for alg in [
            Algorithm::Identity,
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Spectral,
            Algorithm::Sloan,
            Algorithm::HybridSloanSpectral,
            Algorithm::MinDegree,
            Algorithm::SpectralNd,
        ] {
            let o = order(&g, alg).unwrap_or_else(|e| panic!("n={n}, {alg:?}: {e}"));
            assert_eq!(o.perm.len(), n);
            assert_eq!(o.stats.envelope_size, 0);
        }
    }
    // An edgeless graph with several vertices.
    let g = SymmetricPattern::from_edges(5, &[]).unwrap();
    for alg in Algorithm::paper_set() {
        let o = order(&g, alg).unwrap();
        assert_eq!(o.stats.envelope_size, 0);
        assert_eq!(o.stats.bandwidth, 0);
    }
}

#[test]
fn disconnected_matrix_full_pipeline() {
    // Two separate meshes in one matrix.
    let g1 = meshgen::grid2d(8, 4);
    let mut edges: Vec<(usize, usize)> = g1.edges().collect();
    let off = g1.n();
    for (u, v) in meshgen::grid2d(5, 5).edges() {
        edges.push((u + off, v + off));
    }
    let g =
        spectral_envelope_repro::sparsemat::SymmetricPattern::from_edges(off + 25, &edges).unwrap();
    for alg in Algorithm::paper_set() {
        let o = order(&g, alg).unwrap();
        assert_eq!(o.perm.len(), 57);
    }
    let a = g.spd_matrix(0.5);
    let b = vec![1.0; 57];
    let (x, _) = reorder_factor_solve(&a, &b, Algorithm::Spectral).unwrap();
    let r = a.matvec_alloc(&x);
    for (ri, bi) in r.iter().zip(&b) {
        assert!((ri - bi).abs() < 1e-8);
    }
}
