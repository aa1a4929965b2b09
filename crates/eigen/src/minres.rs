//! MINRES (Paige & Saunders) for symmetric, possibly indefinite systems.
//!
//! Rayleigh Quotient Iteration solves `(Q − ρI) y = x` with `ρ` close to an
//! eigenvalue — a symmetric *indefinite*, nearly singular system. MINRES is
//! the canonical Krylov method for exactly this situation: it minimises the
//! residual over the Krylov space and degrades gracefully near singularity
//! (the iterate grows along the eigenvector direction, which is precisely
//! what RQI exploits).

use crate::op::{norm, SymOp};
use crate::solver_opts::{DEFAULT_MINRES_MAX_ITER, DEFAULT_MINRES_RTOL};
use se_faults::Budget;
use sparsemat::par::det_dot;

/// Options for [`minres`].
#[derive(Debug, Clone)]
pub struct MinresOptions {
    /// Maximum iterations.
    pub max_iter: usize,
    /// Relative residual tolerance: stop when `‖r‖ ≤ rtol · ‖b‖`.
    pub rtol: f64,
    /// Cooperative budget checked once per iteration. An exhausted budget
    /// breaks out with the best iterate so far (`converged == false`).
    pub budget: Budget,
}

impl Default for MinresOptions {
    fn default() -> Self {
        MinresOptions {
            max_iter: DEFAULT_MINRES_MAX_ITER,
            rtol: DEFAULT_MINRES_RTOL,
            budget: Budget::unlimited(),
        }
    }
}

/// The outcome of a MINRES solve.
#[derive(Debug, Clone)]
pub struct MinresOutcome {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Estimated final residual norm `‖b − Ax‖`.
    pub residual_norm: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Solves `A x = b` for symmetric `A` starting from `x₀ = 0`, on the
/// calling thread. Every vector lives in a buffer allocated before the first
/// iteration; the steps rotate them instead of allocating.
pub fn minres<Op: SymOp>(op: &Op, b: &[f64], opts: &MinresOptions) -> MinresOutcome {
    let n = op.n();
    assert_eq!(b.len(), n, "minres: rhs length mismatch");
    let mut x = vec![0.0; n];

    let beta1 = norm(b);
    if beta1 == 0.0 {
        return MinresOutcome {
            x,
            residual_norm: 0.0,
            iterations: 0,
            converged: true,
        };
    }

    // Lanczos vectors.
    let mut r1 = b.to_vec();
    let mut r2 = b.to_vec();
    let mut y = b.to_vec();

    let mut oldb = 0.0f64;
    let mut beta = beta1;
    let mut dbar = 0.0f64;
    let mut epsln = 0.0f64;
    let mut phibar = beta1;
    let mut cs = -1.0f64;
    let mut sn = 0.0f64;

    let mut w = vec![0.0; n];
    let mut w1 = vec![0.0; n];
    let mut w2 = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut iterations = 0usize;
    let mut converged = false;

    for itn in 1..=opts.max_iter {
        if opts.budget.check().is_err() {
            break; // cooperative abort: keep the best iterate so far
        }
        iterations = itn;
        let s = 1.0 / beta;
        for (vi, yi) in v.iter_mut().zip(&y) {
            *vi = s * yi;
        }
        // `y` is spent once `v` holds it scaled, so the product overwrites it.
        op.apply(&v, &mut y);
        opts.budget.charge_matvecs(1);
        if itn >= 2 {
            let c = beta / oldb;
            for (yi, ri) in y.iter_mut().zip(&r1) {
                *yi -= c * ri;
            }
        }
        let alfa = det_dot(&v, &y);
        let c = alfa / beta;
        for (yi, ri) in y.iter_mut().zip(&r2) {
            *yi -= c * ri;
        }
        std::mem::swap(&mut r1, &mut r2);
        r2.copy_from_slice(&y);
        oldb = beta;
        beta = norm(&y);

        // Apply the previous rotation.
        let oldeps = epsln;
        let delta = cs * dbar + sn * alfa;
        let gbar = sn * dbar - cs * alfa;
        epsln = sn * beta;
        dbar = -cs * beta;

        // Compute the next rotation.
        let gamma = (gbar * gbar + beta * beta).sqrt().max(f64::EPSILON);
        cs = gbar / gamma;
        sn = beta / gamma;
        let phi = cs * phibar;
        phibar *= sn;

        // Update the solution.
        let denom = 1.0 / gamma;
        // Rotate (w1, w2, w) ← (w2, w, w1): the old `w1` becomes scratch for
        // the new `w`, which the loop overwrites in full.
        std::mem::swap(&mut w1, &mut w2);
        std::mem::swap(&mut w2, &mut w);
        for i in 0..n {
            w[i] = (v[i] - oldeps * w1[i] - delta * w2[i]) * denom;
        }
        for (xi, wi) in x.iter_mut().zip(&w) {
            *xi += phi * wi;
        }

        if phibar <= opts.rtol * beta1 {
            converged = true;
            break;
        }
        if beta <= f64::EPSILON * beta1 {
            // Exact solution found (Krylov space is invariant).
            converged = phibar <= opts.rtol * beta1 * 10.0;
            break;
        }
    }

    MinresOutcome {
        x,
        residual_norm: phibar,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{constant_unit_vector, CsrOp, DeflatedOp, LaplacianOp, ShiftedOp};
    use sparsemat::{CsrMatrix, SymmetricPattern};

    fn dotv(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn residual<Op: SymOp>(op: &Op, x: &[f64], b: &[f64]) -> f64 {
        let ax = op.apply_alloc(x);
        ax.iter()
            .zip(b)
            .map(|(a, bb)| (a - bb).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn identity_system() {
        let a = CsrMatrix::identity(5);
        let op = CsrOp::new(&a);
        let b = vec![1.0, -2.0, 3.0, 0.0, 5.0];
        let out = minres(&op, &b, &MinresOptions::default());
        assert!(out.converged);
        for (xi, bi) in out.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn spd_tridiagonal_system() {
        let a = CsrMatrix::from_entries(
            4,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
                (2, 3, -1.0),
                (3, 2, -1.0),
                (3, 3, 2.0),
            ],
        )
        .unwrap();
        let op = CsrOp::new(&a);
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let out = minres(&op, &b, &MinresOptions::default());
        assert!(out.converged);
        assert!(residual(&op, &out.x, &b) < 1e-8);
    }

    #[test]
    fn indefinite_system() {
        // diag(2, -1, 3, -4): symmetric indefinite — CG would fail, MINRES not.
        let a = CsrMatrix::from_entries(4, &[(0, 0, 2.0), (1, 1, -1.0), (2, 2, 3.0), (3, 3, -4.0)])
            .unwrap();
        let op = CsrOp::new(&a);
        let b = vec![2.0, 1.0, -3.0, 8.0];
        let out = minres(&op, &b, &MinresOptions::default());
        assert!(out.converged);
        assert_eq!(
            out.x
                .iter()
                .map(|v| (v * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
            vec![1.0, -1.0, -1.0, -2.0]
        );
    }

    #[test]
    fn zero_rhs() {
        let a = CsrMatrix::identity(3);
        let op = CsrOp::new(&a);
        let out = minres(&op, &[0.0; 3], &MinresOptions::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.x, vec![0.0; 3]);
    }

    #[test]
    fn shifted_laplacian_near_singular() {
        // (L − ρI) y = x with ρ near λ₂ — the RQI inner system. MINRES must
        // not blow up; the solution should be rich in the Fiedler direction.
        let n = 16;
        let g =
            SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let lop = LaplacianOp::new(&g);
        let deflate = vec![constant_unit_vector(n)];
        let dop = DeflatedOp::new(&lop, &deflate);
        let lambda2 = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        let rho = lambda2 * 1.01;
        let shifted = ShiftedOp::new(&dop, rho);
        // RHS: anything orthogonal to 1.
        let mut b: Vec<f64> = (0..n).map(|i| i as f64 - (n as f64 - 1.0) / 2.0).collect();
        let nb = dotv(&b, &b).sqrt();
        for bi in b.iter_mut() {
            *bi /= nb;
        }
        let out = minres(
            &shifted,
            &b,
            &MinresOptions {
                max_iter: 100,
                rtol: 1e-6,
                ..Default::default()
            },
        );
        // Solution must be finite and large (near-singular system).
        assert!(out.x.iter().all(|v| v.is_finite()));
        let nx = dotv(&out.x, &out.x).sqrt();
        assert!(nx > 1.0, "solution norm {nx} should be amplified");
        // It should align strongly with the Fiedler vector cos(kπ(i+1/2)/n).
        let fied: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) / n as f64).cos())
            .collect();
        let nf = dotv(&fied, &fied).sqrt();
        let cosang = dotv(&out.x, &fied).abs() / (nx * nf);
        assert!(cosang > 0.9, "cos angle {cosang}");
    }

    #[test]
    fn iteration_cap_respected() {
        let n = 64;
        let g =
            SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let lop = LaplacianOp::new(&g);
        let a = lop.pattern().spd_matrix(1e-6);
        let op = CsrOp::new(&a);
        // A non-eigenvector RHS: e_0 (the all-ones vector would be an exact
        // eigenvector of L + εI and converge in one step).
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let out = minres(
            &op,
            &b,
            &MinresOptions {
                max_iter: 5,
                rtol: 1e-14,
                ..Default::default()
            },
        );
        assert_eq!(out.iterations, 5);
        assert!(!out.converged);
    }

    #[test]
    fn converges_in_at_most_n_iterations_exactly() {
        // MINRES is a Krylov method: exact in at most n steps.
        let a = CsrMatrix::from_entries(
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (2, 0, 2.0),
                (1, 1, -3.0),
                (2, 2, 0.5),
            ],
        )
        .unwrap();
        let op = CsrOp::new(&a);
        let b = vec![1.0, 1.0, 1.0];
        let out = minres(&op, &b, &MinresOptions::default());
        assert!(out.converged);
        assert!(out.iterations <= 4);
        assert!(residual(&op, &out.x, &b) < 1e-8);
    }
}
