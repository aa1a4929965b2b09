//! Lanczos iteration with full reorthogonalization and subspace deflation.
//!
//! This is the "standard algorithm for computing a few eigenvalues and
//! eigenvectors of large sparse symmetric matrices" (§3 of the paper),
//! used directly on small graphs and on the coarsest graph of the
//! multilevel scheme. Full reorthogonalization keeps the Krylov basis
//! numerically orthogonal — expensive in general, but the bases here are
//! short (the multilevel method only runs Lanczos on ~100-vertex graphs).

use crate::op::{norm, SymOp};
use crate::solver_opts::{
    DEFAULT_LANCZOS_CHECK_EVERY, DEFAULT_LANCZOS_MAX_ITER, DEFAULT_LANCZOS_SEED,
    DEFAULT_LANCZOS_TOL,
};
use crate::tridiag::eigh_tridiag;
use crate::{EigenError, Result};
use se_faults::{sites, Budget, FaultPlane};
use se_prng::SmallRng;
use se_trace::Tracer;
use sparsemat::par::det_dot;

/// Options controlling the Lanczos iteration.
#[derive(Debug, Clone)]
pub struct LanczosOptions {
    /// Maximum Krylov subspace dimension.
    pub max_iter: usize,
    /// Relative residual tolerance (scaled by the operator norm bound).
    pub tol: f64,
    /// Seed for the random start vector (deterministic by default).
    pub seed: u64,
    /// How often (in steps) to test convergence.
    pub check_every: usize,
    /// Span recorder; disabled by default. Records a `lanczos` span with
    /// the problem size, step and matvec counts.
    pub trace: Tracer,
    /// Cooperative budget checked at the top of every Lanczos step; an
    /// exhausted budget aborts with [`EigenError::Budget`] within one step.
    pub budget: Budget,
    /// Fault plane: the [`sites::LANCZOS_CONVERGE`] site forces a
    /// non-convergence report.
    pub faults: FaultPlane,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: DEFAULT_LANCZOS_MAX_ITER,
            tol: DEFAULT_LANCZOS_TOL,
            seed: DEFAULT_LANCZOS_SEED,
            check_every: DEFAULT_LANCZOS_CHECK_EVERY,
            trace: Tracer::disabled(),
            budget: Budget::unlimited(),
            faults: FaultPlane::disabled(),
        }
    }
}

/// Converged eigenpairs, smallest first.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Eigenvalues in ascending order (`k` of them).
    pub values: Vec<f64>,
    /// Corresponding unit eigenvectors, orthogonal to the deflation basis.
    pub vectors: Vec<Vec<f64>>,
    /// Number of Lanczos steps performed.
    pub iterations: usize,
}

/// Orthogonalizes `w` against `basis` (classical Gram–Schmidt, one pass).
/// The projection coefficients use the fixed-grid chunked [`det_dot`].
fn orthogonalize(w: &mut [f64], basis: &[Vec<f64>]) {
    for u in basis {
        let c = det_dot(u, w);
        for (wi, ui) in w.iter_mut().zip(u) {
            *wi -= c * ui;
        }
    }
}

/// Computes the `k` smallest eigenpairs of `op` restricted to the orthogonal
/// complement of the (orthonormal) `deflate` basis.
///
/// For a connected graph's Laplacian with `deflate = [1/√n]`, the smallest
/// returned eigenpair is `(λ₂, Fiedler vector)`.
pub fn lanczos_smallest<Op: SymOp>(
    op: &Op,
    deflate: &[Vec<f64>],
    k: usize,
    opts: &LanczosOptions,
) -> Result<LanczosResult> {
    let mut sp = opts.trace.span("lanczos");
    sp.attr("n", op.n() as f64);
    let r = lanczos_inner(op, deflate, k, opts);
    match &r {
        Ok(res) => {
            sp.attr("iterations", res.iterations as f64);
            // One operator application per Lanczos step.
            sp.attr("matvecs", res.iterations as f64);
        }
        // A budget abort is bounded by one iteration: the trace records it
        // so tests (and operators) can see where the solve stopped.
        Err(EigenError::Budget { .. }) => sp.attr("budget_abort", 1.0),
        Err(_) => {}
    }
    r
}

fn lanczos_inner<Op: SymOp>(
    op: &Op,
    deflate: &[Vec<f64>],
    k: usize,
    opts: &LanczosOptions,
) -> Result<LanczosResult> {
    let n = op.n();
    let free_dim = n.saturating_sub(deflate.len());
    if k == 0 || free_dim < k {
        return Err(EigenError::TooSmall { n });
    }
    let kdim = opts.max_iter.min(free_dim);
    if opts.faults.should_fail(sites::LANCZOS_CONVERGE) {
        return Err(EigenError::NoConvergence {
            what: "Lanczos (injected fault)",
            iters: 0,
        });
    }
    let scale = op.norm_bound();
    let mut rng = SmallRng::seed_from_u64(opts.seed);

    // Random start vector in the deflated subspace.
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    orthogonalize(&mut v, deflate);
    let mut nv = norm(&v);
    while nv < 1e-12 {
        for vi in v.iter_mut() {
            *vi = rng.gen::<f64>() - 0.5;
        }
        orthogonalize(&mut v, deflate);
        nv = norm(&v);
    }
    for vi in v.iter_mut() {
        *vi /= nv;
    }

    let mut basis: Vec<Vec<f64>> = vec![v];
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut w = vec![0.0; n];
    let breakdown = 1e-13 * scale.max(1.0);

    let finish = |alpha: &[f64],
                  beta: &[f64],
                  basis: &[Vec<f64>],
                  deflate: &[Vec<f64>],
                  steps: usize|
     -> Result<LanczosResult> {
        let m = alpha.len();
        let eig = eigh_tridiag(alpha, &beta[..m.saturating_sub(1)])?;
        let kk = k.min(m);
        let mut values = Vec::with_capacity(kk);
        let mut vectors = Vec::with_capacity(kk);
        for i in 0..kk {
            values.push(eig.values[i]);
            let s = &eig.vectors[i];
            let mut x = vec![0.0; n];
            for (j, bj) in basis.iter().take(m).enumerate() {
                let c = s[j];
                for (xi, bij) in x.iter_mut().zip(bj) {
                    *xi += c * bij;
                }
            }
            orthogonalize(&mut x, deflate);
            let nx = norm(&x);
            if nx < 1e-14 {
                return Err(EigenError::Numerical(
                    "Ritz vector vanished after deflation".into(),
                ));
            }
            for xi in x.iter_mut() {
                *xi /= nx;
            }
            vectors.push(x);
        }
        if values.len() < k {
            return Err(EigenError::NoConvergence {
                what: "Lanczos (Krylov space exhausted)",
                iters: steps,
            });
        }
        Ok(LanczosResult {
            values,
            vectors,
            iterations: steps,
        })
    };

    for j in 0..kdim {
        if let Err(cause) = opts.budget.check() {
            return Err(EigenError::Budget {
                stage: "lanczos",
                cause,
            });
        }
        op.apply(&basis[j], &mut w);
        opts.budget.charge_matvecs(1);
        let a_j = det_dot(&basis[j], &w);
        alpha.push(a_j);
        // Three-term recurrence, then full reorthogonalization (twice —
        // "twice is enough", Parlett).
        for (wi, vi) in w.iter_mut().zip(&basis[j]) {
            *wi -= a_j * vi;
        }
        if j > 0 {
            let b = beta[j - 1];
            for (wi, vi) in w.iter_mut().zip(&basis[j - 1]) {
                *wi -= b * vi;
            }
        }
        orthogonalize(&mut w, deflate);
        orthogonalize(&mut w, &basis);
        orthogonalize(&mut w, deflate);
        orthogonalize(&mut w, &basis);

        let b_j = norm(&w);
        let steps = j + 1;
        if b_j <= breakdown {
            // Invariant subspace found: the Ritz pairs are (numerically)
            // exact. If it already contains k directions we are done.
            return finish(&alpha, &beta, &basis, deflate, steps);
        }
        beta.push(b_j);

        // Periodic convergence test on the k smallest Ritz pairs:
        // residual norm = |β_j · s_m(i)|.
        let last_step = steps == kdim;
        if steps >= k && (steps % opts.check_every == 0 || last_step) {
            let eig = eigh_tridiag(&alpha, &beta[..steps - 1])?;
            let m = steps;
            let converged = (0..k.min(m)).all(|i| {
                let s_last = eig.vectors[i][m - 1];
                (b_j * s_last).abs() <= opts.tol * scale
            });
            if converged && m >= k {
                return finish(&alpha, &beta, &basis, deflate, steps);
            }
            if last_step {
                // Out of budget: if we used the whole deflated space the
                // answer is exact anyway; otherwise report non-convergence.
                if kdim == free_dim {
                    return finish(&alpha, &beta, &basis, deflate, steps);
                }
                return Err(EigenError::NoConvergence {
                    what: "Lanczos",
                    iters: steps,
                });
            }
        }

        let next: Vec<f64> = w.iter().map(|&x| x / b_j).collect();
        basis.push(next);
    }
    // kdim == 0 can't happen (free_dim >= k >= 1).
    Err(EigenError::NoConvergence {
        what: "Lanczos",
        iters: kdim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{constant_unit_vector, CsrOp, LaplacianOp};
    use sparsemat::{CsrMatrix, SymmetricPattern};

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    fn cycle(n: usize) -> SymmetricPattern {
        let mut e: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        e.push((n - 1, 0));
        SymmetricPattern::from_edges(n, &e).unwrap()
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

    fn path_lambda2(n: usize) -> f64 {
        2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos()
    }

    #[test]
    fn diagonal_matrix_smallest() {
        let a = CsrMatrix::from_entries(4, &[(0, 0, 4.0), (1, 1, 1.0), (2, 2, 3.0), (3, 3, 2.0)])
            .unwrap();
        let op = CsrOp::new(&a);
        let r = lanczos_smallest(&op, &[], 2, &LanczosOptions::default()).unwrap();
        assert!((r.values[0] - 1.0).abs() < 1e-9);
        assert!((r.values[1] - 2.0).abs() < 1e-9);
        assert!(r.vectors[0][1].abs() > 0.99);
    }

    #[test]
    fn path_fiedler_value() {
        let n = 30;
        let g = path(n);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(n)];
        let r = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).unwrap();
        assert!(
            (r.values[0] - path_lambda2(n)).abs() < 1e-8,
            "{}",
            r.values[0]
        );
        // The Fiedler vector of a path is monotone: cos(kπ(i+1/2)/n).
        let v = &r.vectors[0];
        let increasing = v.windows(2).all(|w| w[1] >= w[0]);
        let decreasing = v.windows(2).all(|w| w[1] <= w[0]);
        assert!(
            increasing || decreasing,
            "path Fiedler vector must be monotone"
        );
    }

    #[test]
    fn grid_fiedler_value() {
        let (nx, ny) = (8, 5);
        let g = grid(nx, ny);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(nx * ny)];
        let r = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).unwrap();
        let exact = path_lambda2(nx).min(path_lambda2(ny));
        assert!((r.values[0] - exact).abs() < 1e-8);
    }

    #[test]
    fn cycle_degenerate_lambda2() {
        let n = 12;
        let g = cycle(n);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(n)];
        let r = lanczos_smallest(&lop, &deflate, 2, &LanczosOptions::default()).unwrap();
        let exact = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        let lam3 = 2.0 - 2.0 * (4.0 * std::f64::consts::PI / n as f64).cos();
        // λ₂ has multiplicity 2 on a cycle. A single Krylov sequence sees one
        // vector per eigenspace in exact arithmetic, so the second Ritz value
        // is either the degenerate copy (via roundoff) or the next distinct
        // eigenvalue — both are correct behaviour.
        assert!((r.values[0] - exact).abs() < 1e-8);
        assert!(
            (r.values[1] - exact).abs() < 1e-6 || (r.values[1] - lam3).abs() < 1e-6,
            "λ = {}",
            r.values[1]
        );
    }

    #[test]
    fn complete_graph_lambda2_is_n() {
        let n = 9;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        let g = SymmetricPattern::from_edges(n, &edges).unwrap();
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(n)];
        let r = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).unwrap();
        assert!((r.values[0] - n as f64).abs() < 1e-8);
    }

    #[test]
    fn eigenvector_residual_is_small() {
        let g = grid(6, 6);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(36)];
        let r = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).unwrap();
        let v = &r.vectors[0];
        let av = lop.apply_alloc(v);
        let res: f64 = av
            .iter()
            .zip(v)
            .map(|(a, x)| (a - r.values[0] * x).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-7, "residual {res}");
        // Orthogonal to constants.
        let s: f64 = v.iter().sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn k_zero_is_error() {
        let g = path(5);
        let lop = LaplacianOp::new(&g);
        assert!(matches!(
            lanczos_smallest(&lop, &[], 0, &LanczosOptions::default()),
            Err(EigenError::TooSmall { .. })
        ));
    }

    #[test]
    fn k_exceeding_deflated_dim_is_error() {
        let g = path(3);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(3)];
        assert!(matches!(
            lanczos_smallest(&lop, &deflate, 3, &LanczosOptions::default()),
            Err(EigenError::TooSmall { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(5, 4);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(20)];
        let o = LanczosOptions::default();
        let r1 = lanczos_smallest(&lop, &deflate, 1, &o).unwrap();
        let r2 = lanczos_smallest(&lop, &deflate, 1, &o).unwrap();
        assert_eq!(r1.values[0].to_bits(), r2.values[0].to_bits());
    }

    #[test]
    fn small_max_iter_reports_no_convergence() {
        let g = grid(12, 12);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(144)];
        let opts = LanczosOptions {
            max_iter: 3,
            tol: 1e-14,
            ..Default::default()
        };
        assert!(matches!(
            lanczos_smallest(&lop, &deflate, 1, &opts),
            Err(EigenError::NoConvergence { .. })
        ));
    }

    #[test]
    fn full_krylov_space_is_exact() {
        // With max_iter >= free dimension, Lanczos is a full decomposition.
        let n = 8;
        let g = path(n);
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(n)];
        let opts = LanczosOptions {
            max_iter: n,
            ..Default::default()
        };
        let r = lanczos_smallest(&lop, &deflate, 3, &opts).unwrap();
        for (k, &v) in r.values.iter().enumerate() {
            let exact = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / n as f64).cos();
            assert!((v - exact).abs() < 1e-9, "λ_{k}: {v} vs {exact}");
        }
    }
}
