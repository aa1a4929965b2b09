//! TraceMin-Fiedler: block trace minimization for the Fiedler vector.
//!
//! The multilevel Lanczos/RQI pipeline in `se-eigen` runs on the calling
//! thread: its per-step matvecs and dot products are too fine to gain from
//! a pool. This crate implements the coarse-grained strategy of
//! Manguoglu's TraceMin-Fiedler algorithm (see PAPERS.md): minimize the
//! trace of `Xᵀ·L·X` over `s`-dimensional subspaces with orthonormal basis
//! `X` (`s ≈ 2–8`). Each outer iteration performs a Rayleigh–Ritz
//! projection onto the current subspace and then refines every basis column
//! with an *independent* shifted-Laplacian MINRES solve — `s` coarse-grained
//! jobs with irregular, data-dependent costs, run as the `s` tasks of one
//! [`TaskPool::run_tasks`] region.
//!
//! By the Courant–Fischer trace theorem, the minimum of `tr(XᵀLX)` over
//! orthonormal `X ⊥ 1` is `λ₂ + ⋯ + λ_{s+1}`, attained on the span of the
//! corresponding eigenvectors — so the first Ritz column converges to the
//! Fiedler vector, and the extra columns buy the (λ_j+σ)/(λ_{s+1}+σ)
//! convergence factor that makes the block method robust on graphs with
//! clustered low eigenvalues.
//!
//! # Determinism
//!
//! Results are **bit-identical at every thread count**. Three invariants
//! deliver this:
//!
//! 1. every reduction uses the fixed-grid chunked forms of
//!    [`sparsemat::par`] ([`det_dot`], [`det_sum`]);
//! 2. the Ritz step and Gram–Schmidt run on the calling thread, and each
//!    inner MINRES runs serially on the thread that claimed its task, so a
//!    column's solution depends only on its right-hand side, never on
//!    scheduling;
//! 3. columns map to region task indices by their fixed position `j`, and
//!    each task writes only its own [`OnceLock`] slot — the blocking
//!    region call orders every write before the (serial) Gram–Schmidt pass.
//!
//! Parallel speedup therefore comes purely from running the `s` column
//! solves concurrently, never from reassociating floating-point sums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

use se_eigen::op::constant_unit_vector;
use se_eigen::{
    minres, CsrOp, DeflatedOp, EigenError, MinresOptions, MinresOutcome, Result, SymOp,
};
use se_faults::{sites, Budget, FaultPlane};
use se_prng::SmallRng;
use se_trace::Tracer;
use sparsemat::par::{det_dot, det_sum, TaskPool};
use sparsemat::SymmetricPattern;

/// Default number of basis columns. Two would suffice for a simple Fiedler
/// pair; four gives the block method its clustered-eigenvalue robustness at
/// modest extra cost and keeps four inner solves in flight per iteration.
pub const DEFAULT_BLOCK_SIZE: usize = 4;

/// Default cap on outer (Rayleigh–Ritz) iterations.
pub const DEFAULT_MAX_OUTER: usize = 60;

/// Default eigen-residual tolerance, relative to the operator norm bound —
/// the same accuracy regime as the multilevel solver
/// ([`se_eigen::solver_opts::DEFAULT_FIEDLER_TOL`]).
pub const DEFAULT_TOL: f64 = 1e-8;

/// Default iteration cap for each inner MINRES solve.
pub const DEFAULT_INNER_MAX_ITER: usize = 300;

/// Default *floor* for the inner MINRES relative residual tolerance; the
/// outer loop loosens the actual per-iteration tolerance adaptively (inexact
/// TraceMin: early iterations only need a direction, not an accurate solve).
pub const DEFAULT_INNER_RTOL: f64 = 1e-8;

/// Default seed for the deterministic random start basis, shared with the
/// Lanczos start vector ([`se_eigen::solver_opts::DEFAULT_LANCZOS_SEED`]).
/// The `tracemin` ordering runs with it, so changing it changes `tracemin`
/// permutations, which the service caches and spills under keys that carry
/// no ordering epoch.
pub const DEFAULT_SEED: u64 = se_eigen::solver_opts::DEFAULT_LANCZOS_SEED;

/// Cap for the adaptively loosened inner tolerance.
const INNER_RTOL_CAP: f64 = 1e-2;

/// Fraction of the current outer residual the inner solves target.
const INNER_RTOL_FACTOR: f64 = 0.05;

/// Relative diagonal shift `σ = SHIFT_REL · ‖L‖` making the deflated
/// operator positive definite on `1⊥` even in floating point. The shift is
/// subtracted back out of the reported eigenvalue.
const SHIFT_REL: f64 = 1e-6;

/// Options for [`tracemin_fiedler`]. Mirrors the shape of the other solver
/// option structs in `se-eigen`: numeric knobs plus the pool, tracer, budget
/// and fault plane.
#[derive(Debug, Clone)]
pub struct TraceminOptions {
    /// Basis columns `s`, clamped to `2..=8` and to `n − 1`
    /// ([`DEFAULT_BLOCK_SIZE`]).
    pub block_size: usize,
    /// Outer-iteration cap ([`DEFAULT_MAX_OUTER`]).
    pub max_outer: usize,
    /// Eigen-residual tolerance relative to the operator norm bound
    /// ([`DEFAULT_TOL`]).
    pub tol: f64,
    /// Per-column inner MINRES iteration cap ([`DEFAULT_INNER_MAX_ITER`]).
    pub inner_max_iter: usize,
    /// Floor for the adaptive inner MINRES tolerance
    /// ([`DEFAULT_INNER_RTOL`]).
    pub inner_rtol: f64,
    /// Start-basis seed ([`DEFAULT_SEED`]).
    pub seed: u64,
    /// Pool that runs the per-column inner solves as the tasks of one region
    /// per outer iteration. Serial by default; results are bit-identical for
    /// every thread count.
    pub pool: TaskPool,
    /// Span recorder: one `tracemin` root span plus a `tracemin_iter` span
    /// per outer iteration. Disabled by default.
    pub trace: Tracer,
    /// Cooperative budget, checked at every outer-iteration boundary and
    /// (inside MINRES) at every inner-iteration boundary.
    pub budget: Budget,
    /// Fault-injection plane: sites
    /// [`tracemin.outer.converge`](sites::TRACEMIN_OUTER_CONVERGE),
    /// [`tracemin.inner.converge`](sites::TRACEMIN_INNER_CONVERGE) and
    /// [`eigen.budget.deadline`](sites::BUDGET_DEADLINE) (checked at every
    /// outer-iteration boundary).
    pub faults: FaultPlane,
}

impl Default for TraceminOptions {
    fn default() -> Self {
        TraceminOptions {
            block_size: DEFAULT_BLOCK_SIZE,
            max_outer: DEFAULT_MAX_OUTER,
            tol: DEFAULT_TOL,
            inner_max_iter: DEFAULT_INNER_MAX_ITER,
            inner_rtol: DEFAULT_INNER_RTOL,
            seed: DEFAULT_SEED,
            pool: TaskPool::serial(),
            trace: Tracer::disabled(),
            budget: Budget::unlimited(),
            faults: FaultPlane::disabled(),
        }
    }
}

/// The converged output of [`tracemin_fiedler`].
#[derive(Debug, Clone)]
pub struct TraceminResult {
    /// The algebraic connectivity `λ₂` (smallest nonzero Laplacian
    /// eigenvalue), with the internal shift subtracted back out.
    pub lambda2: f64,
    /// The unit Fiedler vector, sign-fixed by [`sign_fix`].
    pub vector: Vec<f64>,
    /// Outer (Rayleigh–Ritz) iterations performed.
    pub outer_iterations: usize,
    /// Total MINRES iterations summed over every inner column solve.
    pub inner_matvecs: u64,
    /// Final eigen-residual `‖L·x − λ₂·x‖`.
    pub residual: f64,
}

/// Fixes the sign of an eigenvector deterministically: the **lowest-index**
/// entry whose magnitude is within 10% of the maximum is made non-negative.
///
/// Anchoring on the exact argmax would be fragile — on near-symmetric graphs
/// the vector's two extremes have magnitudes equal to within rounding, and
/// two different solvers can disagree about which is (barely) larger. The
/// 10% band makes the anchor a stable *set* membership question, and taking
/// its lowest index keeps the rule deterministic. Both tracemin and the
/// cross-check tests against the multilevel solver apply this rule, so
/// "same direction" is a plain vector comparison.
pub fn sign_fix(v: &mut [f64]) {
    let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let Some(anchor) = v.iter().position(|x| x.abs() >= 0.9 * max) else {
        return;
    };
    if v[anchor] < 0.0 {
        for x in v.iter_mut() {
            *x = -*x;
        }
    }
}

/// Subtracts the mean from `col` — projection onto `1⊥`, the deflation of
/// the Laplacian's constant null vector. Uses the deterministic chunked sum.
fn deflate_constant(col: &mut [f64]) {
    let mean = det_sum(col) / col.len() as f64;
    for x in col.iter_mut() {
        *x -= mean;
    }
}

/// Euclidean norm from the deterministic chunked dot product.
fn norm(x: &[f64]) -> f64 {
    det_dot(x, x).sqrt()
}

/// Fills `col` from the deterministic PRNG stream for `(seed, tag)`.
fn random_column(col: &mut [f64], seed: u64, tag: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for x in col.iter_mut() {
        *x = rng.gen::<f64>() - 0.5;
    }
}

/// Orthonormalizes `cols` in place against the constant vector and each
/// other (modified Gram–Schmidt, with one re-pass when cancellation eats
/// more than half a column's norm). A column that collapses to (numerical)
/// zero is reseeded deterministically from `(seed, outer_iter, column)`; if
/// it collapses again the basis is genuinely rank-deficient and the solve
/// reports [`EigenError::Numerical`].
fn orthonormalize(cols: &mut [Vec<f64>], seed: u64, outer_iter: usize) -> Result<()> {
    let ncols = cols.len();
    for j in 0..ncols {
        for attempt in 0..2 {
            let (done, rest) = cols.split_at_mut(j);
            let col = &mut rest[0][..];
            deflate_constant(col);
            let scale = norm(col);
            let mut nrm = scale;
            // MGS against the already-orthonormal columns; repeat once if
            // cancellation was severe ("twice is enough").
            for _pass in 0..2 {
                for prev in done.iter() {
                    let c = det_dot(prev, col);
                    for (x, p) in col.iter_mut().zip(prev.iter()) {
                        *x -= c * p;
                    }
                }
                nrm = norm(col);
                if nrm > 0.5 * scale {
                    break;
                }
            }
            if nrm > 1e-10 * scale.max(f64::MIN_POSITIVE) {
                let inv = 1.0 / nrm;
                for x in col.iter_mut() {
                    *x *= inv;
                }
                break;
            }
            if attempt == 1 {
                return Err(EigenError::Numerical(format!(
                    "tracemin basis rank-deficient at column {j} (iteration {outer_iter})"
                )));
            }
            random_column(
                &mut rest[0],
                seed,
                0xC01u64 ^ ((outer_iter as u64) << 16) ^ j as u64,
            );
        }
    }
    Ok(())
}

/// Computes the Fiedler pair `(λ₂, x₂)` of the Laplacian of `g` by block
/// trace minimization. See the crate docs for the algorithm and the
/// determinism contract.
///
/// # Errors
/// [`EigenError::TooSmall`] for `n < 2`, [`EigenError::Disconnected`] when
/// `g` has more than one component, [`EigenError::NoConvergence`] when the
/// outer-iteration cap is exhausted (or a `tracemin.*.converge` fault
/// fires), [`EigenError::Budget`] on deadline/cancel/matvec-cap exhaustion,
/// and [`EigenError::Numerical`] on basis breakdown.
pub fn tracemin_fiedler(g: &SymmetricPattern, opts: &TraceminOptions) -> Result<TraceminResult> {
    let n = g.n();
    if n < 2 {
        return Err(EigenError::TooSmall { n });
    }
    if se_graph::bfs::connected_components(g).members.len() > 1 {
        return Err(EigenError::Disconnected);
    }

    let pool = &opts.pool;
    let s = opts.block_size.clamp(2, 8).min(n - 1).max(1);

    let mut span = opts.trace.span("tracemin");
    span.attr("n", n as f64);
    span.attr("block", s as f64);
    let stats0 = pool.stats();

    // L + σI as explicit CSR: degree diagonal plus the tiny shift, −1 off
    // the diagonal. The deflation of the constant vector handles the
    // nullspace; the shift keeps the operator safely positive definite on
    // 1⊥ in floating point.
    let lap_norm_bound = 2.0
        * (0..n)
            .map(|v| g.degree(v) as f64)
            .fold(0.0, f64::max)
            .max(0.5);
    let sigma = SHIFT_REL * lap_norm_bound;
    let a_csr = g.to_csr_with(|v| g.degree(v) as f64 + sigma, -1.0);
    let csr_op = CsrOp::new(&a_csr);
    let basis = [constant_unit_vector(n)];
    let a_op = DeflatedOp::new(&csr_op, &basis);
    let nb = a_op.norm_bound();

    // Deterministic random start basis, orthonormalized in 1⊥.
    let mut x: Vec<Vec<f64>> = (0..s)
        .map(|j| {
            let mut col = vec![0.0; n];
            random_column(&mut col, opts.seed, j as u64);
            col
        })
        .collect();
    orthonormalize(&mut x, opts.seed, 0)?;

    let mut inner_matvecs: u64 = 0;

    for k in 0..opts.max_outer {
        if opts.faults.should_fail(sites::BUDGET_DEADLINE) {
            opts.budget.expire();
        }
        if let Err(cause) = opts.budget.check() {
            span.attr("budget_abort", 1.0);
            span.attr("iterations", k as f64);
            span.attr("matvecs", inner_matvecs as f64);
            return Err(EigenError::Budget {
                stage: "tracemin",
                cause,
            });
        }
        let mut iter_span = opts.trace.span_at("tracemin_iter", k);

        // --- Rayleigh–Ritz on span(X) -----------------------------------
        // W = A·X, H = XᵀW (s×s, computed for i ≤ j and mirrored), then the
        // dense eigenproblem of H rotates X and W into Ritz order.
        let mut w: Vec<Vec<f64>> = Vec::with_capacity(s);
        for xj in &x {
            let mut wj = vec![0.0; n];
            a_op.apply(xj, &mut wj);
            opts.budget.charge_matvecs(1);
            w.push(wj);
        }
        let mut h = vec![0.0; s * s];
        for i in 0..s {
            for j in i..s {
                let v = det_dot(&x[i], &w[j]);
                h[i * s + j] = v;
                h[j * s + i] = v;
            }
        }
        let eig = se_eigen::DenseSym::new(s, h, 1e-8)?.eigh()?;
        let rotate = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> {
            (0..s)
                .map(|j| {
                    let mut out = vec![0.0; n];
                    for (m, col) in cols.iter().enumerate() {
                        let c = eig.vectors[j][m];
                        if c != 0.0 {
                            for (o, v) in out.iter_mut().zip(col.iter()) {
                                *o += c * v;
                            }
                        }
                    }
                    out
                })
                .collect()
        };
        x = rotate(&x);
        w = rotate(&w);
        let theta = eig.values[0];

        // Eigen-residual of the leading Ritz pair. Since X ⊥ 1, the shift
        // cancels: ‖A·x − θx‖ = ‖L·x − (θ−σ)x‖.
        let mut resid = vec![0.0; n];
        for ((r, wv), xv) in resid.iter_mut().zip(&w[0]).zip(&x[0]) {
            *r = wv - theta * xv;
        }
        let res = norm(&resid);
        iter_span.attr("ritz_residual", res);
        iter_span.attr("ritz_value", theta - sigma);

        if res <= opts.tol * nb && !opts.faults.should_fail(sites::TRACEMIN_OUTER_CONVERGE) {
            let mut vector = std::mem::take(&mut x[0]);
            sign_fix(&mut vector);
            drop(iter_span);
            span.attr("iterations", (k + 1) as f64);
            span.attr("matvecs", inner_matvecs as f64);
            let stats1 = pool.stats();
            span.attr("pool_steals", (stats1.steals - stats0.steals) as f64);
            return Ok(TraceminResult {
                lambda2: theta - sigma,
                vector,
                outer_iterations: k + 1,
                inner_matvecs,
                residual: res,
            });
        }

        if opts.faults.should_fail(sites::TRACEMIN_INNER_CONVERGE) {
            return Err(EigenError::NoConvergence {
                what: "tracemin-inner",
                iters: k,
            });
        }

        // --- Inner solves: one independent MINRES per column ------------
        // Inexact TraceMin: the columns only need enough accuracy to beat
        // the current outer residual, so the tolerance tightens as the
        // outer loop converges (deterministic — derived from `res`, which
        // is itself thread-count-invariant).
        let rel_res = res / nb;
        let inner_rtol = (INNER_RTOL_FACTOR * rel_res)
            .max(opts.inner_rtol)
            .min(INNER_RTOL_CAP.max(opts.inner_rtol));
        let inner_opts = MinresOptions {
            max_iter: opts.inner_max_iter,
            rtol: inner_rtol,
            budget: opts.budget.clone(),
        };
        let outcomes: Vec<OnceLock<MinresOutcome>> = (0..s).map(|_| OnceLock::new()).collect();
        // Fixed column→task-index assignment: task j solves column j and
        // fills slot j, whichever thread claims it.
        pool.run_tasks(s, |j| {
            let _ = outcomes[j].set(minres(&a_op, &x[j], &inner_opts));
        });
        if let Err(cause) = opts.budget.check() {
            span.attr("budget_abort", 1.0);
            span.attr("iterations", k as f64);
            span.attr("matvecs", inner_matvecs as f64);
            return Err(EigenError::Budget {
                stage: "tracemin",
                cause,
            });
        }

        let mut iter_inner: u64 = 0;
        let solved: Vec<Vec<f64>> = outcomes
            .into_iter()
            .enumerate()
            .map(|(j, cell)| {
                let out = cell
                    .into_inner()
                    .unwrap_or_else(|| panic!("tracemin: inner solve {j} produced no outcome"));
                iter_inner += out.iterations as u64;
                out.x
            })
            .collect();
        inner_matvecs += iter_inner;
        iter_span.attr("inner_matvecs", iter_inner as f64);
        iter_span.attr("inner_rtol", inner_rtol);

        // The next basis is the orthonormalized solve results (inverse
        // iteration on the block).
        x = solved;
        orthonormalize(&mut x, opts.seed, k + 1)?;
    }

    span.attr("iterations", opts.max_outer as f64);
    span.attr("matvecs", inner_matvecs as f64);
    Err(EigenError::NoConvergence {
        what: "tracemin",
        iters: opts.max_outer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_eigen::LaplacianOp;

    fn solve(g: &SymmetricPattern, opts: &TraceminOptions) -> TraceminResult {
        tracemin_fiedler(g, opts).expect("tracemin should converge")
    }

    #[test]
    fn path_lambda2_matches_closed_form() {
        let n = 32;
        let g = meshgen::path(n);
        let r = solve(&g, &TraceminOptions::default());
        let exact = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!(
            (r.lambda2 - exact).abs() <= 1e-6 * exact,
            "lambda2 {} vs exact {exact}",
            r.lambda2
        );
    }

    #[test]
    fn grid_eigen_residual_is_small() {
        let g = meshgen::grid2d(24, 17);
        let r = solve(&g, &TraceminOptions::default());
        let lop = LaplacianOp::new(&g);
        let lx = lop.apply_alloc(&r.vector);
        let res: f64 = lx
            .iter()
            .zip(&r.vector)
            .map(|(a, b)| (a - r.lambda2 * b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(res <= 1e-6 * lop.norm_bound(), "residual {res}");
        // The vector is unit and orthogonal to the constant.
        let nrm: f64 = r.vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-10);
        let mean: f64 = r.vector.iter().sum::<f64>() / r.vector.len() as f64;
        assert!(mean.abs() < 1e-10);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = meshgen::grid2d(30, 11);
        let base = solve(&g, &TraceminOptions::default());
        for threads in [2, 4, 8] {
            let opts = TraceminOptions {
                pool: TaskPool::new(threads),
                ..TraceminOptions::default()
            };
            let r = solve(&g, &opts);
            assert_eq!(r.lambda2.to_bits(), base.lambda2.to_bits(), "{threads}t");
            assert_eq!(r.outer_iterations, base.outer_iterations, "{threads}t");
            assert_eq!(r.inner_matvecs, base.inner_matvecs, "{threads}t");
            for (a, b) in r.vector.iter().zip(&base.vector) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn rejects_tiny_and_disconnected() {
        let g1 = SymmetricPattern::from_edges(1, &[]).unwrap();
        assert!(matches!(
            tracemin_fiedler(&g1, &TraceminOptions::default()),
            Err(EigenError::TooSmall { n: 1 })
        ));
        let g2 = SymmetricPattern::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            tracemin_fiedler(&g2, &TraceminOptions::default()),
            Err(EigenError::Disconnected)
        ));
    }

    #[test]
    fn outer_fault_forces_nonconvergence() {
        let faults = FaultPlane::seeded(7);
        faults.arm(sites::TRACEMIN_OUTER_CONVERGE);
        let opts = TraceminOptions {
            faults,
            max_outer: 8,
            ..TraceminOptions::default()
        };
        match tracemin_fiedler(&meshgen::grid2d(10, 9), &opts) {
            Err(EigenError::NoConvergence { what, iters }) => {
                assert_eq!(what, "tracemin");
                assert_eq!(iters, 8);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn inner_fault_reports_inner_stage() {
        let faults = FaultPlane::seeded(7);
        faults.arm(sites::TRACEMIN_INNER_CONVERGE);
        let opts = TraceminOptions {
            faults,
            ..TraceminOptions::default()
        };
        match tracemin_fiedler(&meshgen::grid2d(10, 9), &opts) {
            Err(EigenError::NoConvergence { what, .. }) => assert_eq!(what, "tracemin-inner"),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn budget_matvec_cap_aborts() {
        let opts = TraceminOptions {
            budget: Budget::new(None, Some(8)),
            ..TraceminOptions::default()
        };
        match tracemin_fiedler(&meshgen::grid2d(20, 20), &opts) {
            Err(EigenError::Budget { stage, .. }) => assert_eq!(stage, "tracemin"),
            other => panic!("expected Budget abort, got {other:?}"),
        }
    }

    #[test]
    fn trace_spans_record_iterations() {
        let trace = Tracer::enabled();
        let opts = TraceminOptions {
            trace: trace.clone(),
            ..TraceminOptions::default()
        };
        let r = solve(&meshgen::grid2d(12, 12), &opts);
        let root = trace.finish().expect("a recorded trace");
        assert_eq!(root.name, "tracemin");
        let iters = root
            .children
            .iter()
            .filter(|c| c.name == "tracemin_iter")
            .count();
        assert_eq!(iters, r.outer_iterations);
        assert_eq!(root.attr("iterations"), Some(r.outer_iterations as f64));
    }

    #[test]
    fn sign_fix_is_idempotent_and_orients_largest_entry() {
        let mut v = vec![0.3, -0.9, 0.2];
        sign_fix(&mut v);
        assert_eq!(v, vec![-0.3, 0.9, -0.2]);
        let copy = v.clone();
        sign_fix(&mut v);
        assert_eq!(v, copy);
    }
}
