//! Randomized cross-validation of the eigensolver stack: the dense
//! Householder+QL decomposition is the oracle; Lanczos, MINRES and the
//! multilevel Fiedler solver must agree with it on random inputs.
//!
//! Formerly `proptest` properties; now seeded loops over the in-tree PRNG
//! so the workspace builds without registry access.

use se_eigen::dense::DenseSym;
use se_eigen::lanczos::{lanczos_smallest, LanczosOptions};
use se_eigen::minres::{minres, MinresOptions};
use se_eigen::op::{constant_unit_vector, CsrOp, LaplacianOp};
use se_eigen::tridiag::eigh_tridiag;
use se_prng::SmallRng;
use sparsemat::{CooMatrix, CsrMatrix, SymmetricPattern};

/// Random connected graph: random edges + a random spanning path.
fn connected_graph(rng: &mut SmallRng) -> SymmetricPattern {
    let n = rng.gen_range(3..=24usize);
    let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n + 1))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let mut spine: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut spine);
    for w in spine.windows(2) {
        edges.push((w[0], w[1]));
    }
    SymmetricPattern::from_edges(n, &edges).expect("edges in range")
}

/// Random symmetric matrix with small integer-ish entries.
fn symmetric_matrix(rng: &mut SmallRng) -> CsrMatrix {
    let n = rng.gen_range(2..=14usize);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..rng.gen_range(0..2 * n + 1) {
        let r = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        let v = rng.gen_range(0..=12u64) as f64 / 2.0 - 3.0;
        coo.push(r, c, v).unwrap();
        if r != c {
            coo.push(c, r, v).unwrap();
        }
    }
    coo.to_csr()
}

/// Lanczos λ₂ on a connected graph equals the dense oracle's second
/// smallest Laplacian eigenvalue.
#[test]
fn lanczos_matches_dense_lambda2() {
    let mut rng = SmallRng::seed_from_u64(0xE101);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let dense = DenseSym::from_csr(&g.laplacian()).unwrap();
        let full = dense.eigh().unwrap();
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(g.n())];
        let lz = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).unwrap();
        assert!(
            (lz.values[0] - full.values[1]).abs() < 1e-7 * (1.0 + full.values[1]),
            "Lanczos {} vs dense {}",
            lz.values[0],
            full.values[1]
        );
    }
}

/// The multilevel solver agrees with the dense oracle too (small graphs
/// route straight to Lanczos, so this exercises the fallback path).
#[test]
fn multilevel_fiedler_matches_dense() {
    use se_eigen::multilevel::fiedler;
    use se_eigen::SolverOpts;
    let mut rng = SmallRng::seed_from_u64(0xE102);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let dense = DenseSym::from_csr(&g.laplacian()).unwrap();
        let full = dense.eigh().unwrap();
        let f = fiedler(&g, &SolverOpts::default()).unwrap();
        assert!(
            (f.lambda2 - full.values[1]).abs() < 1e-6 * (1.0 + full.values[1]),
            "multilevel {} vs dense {}",
            f.lambda2,
            full.values[1]
        );
    }
}

/// Dense eigendecomposition reconstructs the matrix: A = V Λ Vᵀ.
#[test]
fn dense_reconstructs_matrix() {
    let mut rng = SmallRng::seed_from_u64(0xE103);
    for _ in 0..48 {
        let a = symmetric_matrix(&mut rng);
        let n = a.nrows();
        let m = DenseSym::from_csr(&a).unwrap();
        let eig = m.eigh().unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += eig.values[k] * eig.vectors[k][i] * eig.vectors[k][j];
                }
                let aij = a.get(i, j).unwrap_or(0.0);
                assert!((s - aij).abs() < 1e-8, "A[{i}][{j}] = {aij} vs {s}");
            }
        }
    }
}

/// MINRES solves random SPD (shifted Laplacian) systems.
#[test]
fn minres_solves_spd() {
    let mut rng = SmallRng::seed_from_u64(0xE104);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let a = g.spd_matrix(0.5);
        let op = CsrOp::new(&a);
        let n = g.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let b = a.matvec_alloc(&x_true);
        let out = minres(
            &op,
            &b,
            &MinresOptions {
                max_iter: 10 * n,
                rtol: 1e-12,
                ..Default::default()
            },
        );
        assert!(out.converged, "residual {}", out.residual_norm);
        for (xi, ti) in out.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6, "{} vs {}", xi, ti);
        }
    }
}

/// Tridiagonal QL matches the dense solver on tridiagonal matrices.
#[test]
fn tridiag_matches_dense() {
    let mut rng = SmallRng::seed_from_u64(0xE105);
    for _ in 0..48 {
        let n = rng.gen_range(2..12usize);
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let e: Vec<f64> = (0..n - 1)
            .map(|i| ((i * 7 % 5) as f64) / 2.0 - 1.0)
            .collect();
        let tri = eigh_tridiag(&d, &e).unwrap();
        // Build the dense equivalent.
        let mut full = vec![0.0; n * n];
        for i in 0..n {
            full[i * n + i] = d[i];
            if i + 1 < n {
                full[i * n + i + 1] = e[i];
                full[(i + 1) * n + i] = e[i];
            }
        }
        let dense = DenseSym::new(n, full, 0.0).unwrap().eigh().unwrap();
        for (a, b) in tri.values.iter().zip(&dense.values) {
            assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }
}

/// λ₂ of a connected graph is positive and at most the vertex connectivity
/// bound n/(n−1)·min_degree (Fiedler).
#[test]
fn lambda2_respects_fiedler_bounds() {
    use se_eigen::multilevel::fiedler_lanczos;
    let mut rng = SmallRng::seed_from_u64(0xE106);
    for _ in 0..48 {
        let g = connected_graph(&mut rng);
        let f = fiedler_lanczos(&g, &LanczosOptions::default()).unwrap();
        assert!(f.lambda2 > 1e-10, "λ₂ = {}", f.lambda2);
        let min_deg = (0..g.n()).map(|v| g.degree(v)).min().unwrap() as f64;
        let n = g.n() as f64;
        assert!(
            f.lambda2 <= n / (n - 1.0) * min_deg + 1e-8,
            "λ₂ = {} exceeds Fiedler bound {}",
            f.lambda2,
            n / (n - 1.0) * min_deg
        );
    }
}
