//! Rayleigh Quotient Iteration (RQI).
//!
//! The refinement step of the multilevel scheme (§3): given a good
//! approximate eigenvector (interpolated from the coarse level), RQI's cubic
//! convergence "usually requires only one or perhaps two iterations to
//! obtain an acceptable result". Each step solves the shifted system
//! `(Q − ρI) y = x` with MINRES in the subspace orthogonal to the constant
//! vector.

use crate::minres::{minres, MinresOptions};
use crate::op::{norm, DeflatedOp, LaplacianOp, ShiftedOp, SymOp};
use crate::solver_opts::{
    DEFAULT_RQI_INNER_MAX_ITER, DEFAULT_RQI_INNER_RTOL, DEFAULT_RQI_MAX_OUTER, DEFAULT_RQI_TOL,
};
use se_faults::{sites, Budget, FaultPlane};
use se_trace::Tracer;

/// Options for [`rayleigh_quotient_iteration`].
#[derive(Debug, Clone)]
pub struct RqiOptions {
    /// Maximum outer RQI steps.
    pub max_outer: usize,
    /// Eigen-residual tolerance, relative to the operator norm bound.
    pub tol: f64,
    /// Inner MINRES iteration cap per outer step.
    pub inner_max_iter: usize,
    /// Inner MINRES relative tolerance (loose — we only need a direction).
    pub inner_rtol: f64,
    /// Span recorder; disabled by default. Records an `rqi` span with outer
    /// and (summed) inner MINRES iteration counts, the Laplacian matvecs
    /// they cost (`matvecs`: one residual product per outer step plus one
    /// per inner iteration) and the final residual.
    pub trace: Tracer,
    /// Cooperative budget checked at every outer-step boundary (and inside
    /// the inner MINRES solves); an exhausted budget stops refinement and
    /// returns the best pair found so far.
    pub budget: Budget,
    /// Fault plane: the [`sites::RQI_CONVERGE`] site forces an unconverged
    /// result.
    pub faults: FaultPlane,
}

impl Default for RqiOptions {
    fn default() -> Self {
        RqiOptions {
            max_outer: DEFAULT_RQI_MAX_OUTER,
            tol: DEFAULT_RQI_TOL,
            inner_max_iter: DEFAULT_RQI_INNER_MAX_ITER,
            inner_rtol: DEFAULT_RQI_INNER_RTOL,
            trace: Tracer::disabled(),
            budget: Budget::unlimited(),
            faults: FaultPlane::disabled(),
        }
    }
}

/// Result of an RQI run.
#[derive(Debug, Clone)]
pub struct RqiResult {
    /// Converged (or best) Rayleigh quotient — the eigenvalue estimate.
    pub lambda: f64,
    /// Unit eigenvector estimate, orthogonal to the constant vector.
    pub vector: Vec<f64>,
    /// Final eigen-residual `‖Qx − λx‖`.
    pub residual: f64,
    /// Outer iterations performed.
    pub outer_iterations: usize,
    /// Whether `residual ≤ tol · ‖Q‖`-bound.
    pub converged: bool,
}

fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 {
        for xi in x.iter_mut() {
            *xi /= n;
        }
    }
    n
}

/// Refines `x0` toward an eigenvector of the Laplacian of `lap`'s pattern,
/// staying orthogonal to the constant vector. Converges (cubically) to the
/// eigenvalue nearest the initial Rayleigh quotient — for a good initial
/// vector, that is `λ₂`.
pub fn rayleigh_quotient_iteration(
    lap: &LaplacianOp<'_>,
    x0: &[f64],
    opts: &RqiOptions,
) -> RqiResult {
    let n = lap.n();
    assert_eq!(x0.len(), n, "rqi: start vector length mismatch");
    let mut sp = opts.trace.span("rqi");
    sp.attr("n", n as f64);
    if opts.faults.should_fail(sites::RQI_CONVERGE) {
        sp.attr("outer_iterations", 0.0);
        sp.attr("converged", 0.0);
        return RqiResult {
            lambda: f64::NAN,
            vector: vec![0.0; n],
            residual: f64::INFINITY,
            outer_iterations: 0,
            converged: false,
        };
    }
    let ones = crate::op::constant_unit_vector(n);
    let deflate = vec![ones];
    let dop = DeflatedOp::new(lap, &deflate);

    let mut x = x0.to_vec();
    let x0_norm = norm(&x);
    dop.project(&mut x);
    // A start vector (numerically) inside the deflated subspace carries no
    // usable direction — projection leaves only roundoff.
    if normalize(&mut x) <= 1e-12 * x0_norm.max(1.0) {
        // Degenerate start: return a failure with a zero vector; callers
        // (the multilevel driver) fall back to Lanczos.
        sp.attr("outer_iterations", 0.0);
        sp.attr("converged", 0.0);
        return RqiResult {
            lambda: f64::NAN,
            vector: x,
            residual: f64::INFINITY,
            outer_iterations: 0,
            converged: false,
        };
    }

    let scale = lap.norm_bound();
    let mut best_res = f64::INFINITY;
    let mut best_x = x.clone();
    // The start vector's quotient is both the fallback λ and the first
    // step's shift.
    let mut rho = lap.rayleigh_quotient(&x);
    let mut best_lambda = rho;
    let mut qx = vec![0.0; n];
    let mut outer = 0usize;

    for _ in 0..opts.max_outer {
        if opts.budget.check().is_err() {
            sp.attr("budget_abort", 1.0);
            break; // cooperative abort: keep the best pair so far
        }
        outer += 1;
        if outer > 1 {
            rho = lap.rayleigh_quotient(&x);
        }
        // Residual of the current pair.
        lap.apply(&x, &mut qx);
        opts.budget.charge_matvecs(1);
        sp.add("matvecs", 1.0);
        let res: f64 = qx
            .iter()
            .zip(&x)
            .map(|(a, b)| (a - rho * b).powi(2))
            .sum::<f64>()
            .sqrt();
        if res < best_res {
            best_res = res;
            best_x.copy_from_slice(&x);
            best_lambda = rho;
        }
        if res <= opts.tol * scale {
            sp.attr("outer_iterations", outer as f64);
            sp.attr("residual", res);
            sp.attr("converged", 1.0);
            return RqiResult {
                lambda: rho,
                vector: x,
                residual: res,
                outer_iterations: outer,
                converged: true,
            };
        }
        // Inner solve (Q − ρI) y = x in 1⊥.
        let shifted = ShiftedOp::new(&dop, rho);
        let out = minres(
            &shifted,
            &x,
            &MinresOptions {
                max_iter: opts.inner_max_iter,
                rtol: opts.inner_rtol,
                budget: opts.budget.clone(),
            },
        );
        // One operator application per MINRES iteration.
        sp.add("inner_iterations", out.iterations as f64);
        sp.add("matvecs", out.iterations as f64);
        let mut y = out.x;
        dop.project(&mut y);
        if normalize(&mut y) < 1e-300 || y.iter().any(|v| !v.is_finite()) {
            break; // inner solve collapsed; keep the best pair we have
        }
        x = y;
    }

    let lambda = best_lambda;
    let converged = best_res <= opts.tol * scale;
    sp.attr("outer_iterations", outer as f64);
    sp.attr("residual", best_res);
    sp.attr("converged", f64::from(converged));
    RqiResult {
        lambda,
        vector: best_x,
        residual: best_res,
        outer_iterations: outer,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::SymmetricPattern;

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

    fn path_fiedler(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) / n as f64).cos())
            .collect()
    }

    #[test]
    fn refines_perturbed_fiedler_vector_on_path() {
        let n = 40;
        let g = path(n);
        let lap = LaplacianOp::new(&g);
        let mut x0 = path_fiedler(n);
        // Perturb by 10%.
        for (i, xi) in x0.iter_mut().enumerate() {
            *xi += 0.1 * ((i * 37 % 11) as f64 / 11.0 - 0.5);
        }
        let r = rayleigh_quotient_iteration(&lap, &x0, &RqiOptions::default());
        assert!(r.converged, "residual {}", r.residual);
        let exact = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!((r.lambda - exact).abs() < 1e-8, "{} vs {exact}", r.lambda);
        assert!(r.outer_iterations <= 6);
    }

    #[test]
    fn exact_eigenvector_converges_immediately() {
        let n = 24;
        let g = path(n);
        let lap = LaplacianOp::new(&g);
        let x0 = path_fiedler(n);
        let r = rayleigh_quotient_iteration(&lap, &x0, &RqiOptions::default());
        assert!(r.converged);
        assert_eq!(r.outer_iterations, 1);
    }

    #[test]
    fn result_is_orthogonal_to_ones_and_unit() {
        let g = grid(7, 5);
        let lap = LaplacianOp::new(&g);
        let x0: Vec<f64> = (0..35).map(|i| (i % 7) as f64 - 3.0).collect();
        let r = rayleigh_quotient_iteration(&lap, &x0, &RqiOptions::default());
        let s: f64 = r.vector.iter().sum();
        assert!(s.abs() < 1e-8, "sum {s}");
        let nrm: f64 = r.vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-10);
    }

    #[test]
    fn converges_to_lambda2_from_smooth_start_on_grid() {
        let (nx, ny) = (9, 4);
        let g = grid(nx, ny);
        let lap = LaplacianOp::new(&g);
        // Smooth start varying along the long axis — close to the Fiedler
        // direction.
        let x0: Vec<f64> = (0..nx * ny)
            .map(|v| {
                let x = (v % nx) as f64;
                (std::f64::consts::PI * (x + 0.5) / nx as f64).cos()
            })
            .collect();
        let r = rayleigh_quotient_iteration(&lap, &x0, &RqiOptions::default());
        assert!(r.converged);
        let exact = 2.0 - 2.0 * (std::f64::consts::PI / nx as f64).cos();
        assert!((r.lambda - exact).abs() < 1e-8, "{} vs {exact}", r.lambda);
    }

    #[test]
    fn degenerate_start_vector_fails_gracefully() {
        let g = path(6);
        let lap = LaplacianOp::new(&g);
        // The constant vector projects to zero.
        let r = rayleigh_quotient_iteration(&lap, &[1.0; 6], &RqiOptions::default());
        assert!(!r.converged);
        assert!(r.residual.is_infinite());
    }

    #[test]
    fn bad_start_still_returns_an_eigenpair() {
        // A start vector closer to a higher eigenvector: RQI converges to
        // *some* eigenpair — that's its contract.
        let n = 20;
        let g = path(n);
        let lap = LaplacianOp::new(&g);
        // Highly oscillatory start ~ the largest eigenvector.
        let x0: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = rayleigh_quotient_iteration(&lap, &x0, &RqiOptions::default());
        assert!(r.converged);
        // The limit is an eigenvalue of the path Laplacian.
        let is_eig = (0..n).any(|k| {
            let lam = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / n as f64).cos();
            (r.lambda - lam).abs() < 1e-6
        });
        assert!(is_eig, "lambda {} is not an eigenvalue", r.lambda);
    }
}
