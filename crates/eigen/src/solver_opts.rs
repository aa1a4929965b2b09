//! The one solver configuration: [`SolverOpts`].
//!
//! Every Fiedler-backed path — [`crate::multilevel::fiedler`], the
//! orderings in `se-order`, the `spectral-env` facade, the CLI and
//! `spectral-orderd` — takes a [`SolverOpts`]. It carries what callers
//! actually set: the multilevel shape (`coarsest_size`, `smooth_steps`,
//! `galerkin`), the shared tracer, budget and fault plane, and the thread
//! count or injected pool of TraceMin-Fiedler. Tolerances, iteration caps and
//! seeds are the named constants below; nothing in the product tunes them.
//!
//! The per-solver option structs ([`LanczosOptions`], [`RqiOptions`],
//! [`crate::minres::MinresOptions`]) remain the solver-level API for callers
//! that run one solver directly with other values;
//! [`SolverOpts::lanczos_options`] and [`SolverOpts::rqi_options`] build them
//! from the constants.

use crate::lanczos::LanczosOptions;
use crate::rqi::RqiOptions;
use se_faults::{Budget, FaultPlane};
use se_trace::Tracer;
use sparsemat::par::TaskPool;

/// Eigen-residual tolerance of the multilevel Fiedler solver, relative to
/// the Laplacian norm bound (the paper's accuracy regime: orderings are
/// insensitive to the trailing digits of the Fiedler vector).
pub const DEFAULT_FIEDLER_TOL: f64 = 1e-8;

/// Coarsest-graph size at which the multilevel scheme stops contracting and
/// solves directly with Lanczos (§3 of the paper uses ~100 vertices).
pub const DEFAULT_COARSEST_SIZE: usize = 100;

/// Jacobi-style smoothing passes applied after each interpolation.
pub const DEFAULT_SMOOTH_STEPS: usize = 2;

/// Maximum Krylov dimension for Lanczos.
pub const DEFAULT_LANCZOS_MAX_ITER: usize = 300;

/// Relative Ritz-residual tolerance for Lanczos convergence.
pub const DEFAULT_LANCZOS_TOL: f64 = 1e-10;

/// Seed of the deterministic random Lanczos start vector.
pub const DEFAULT_LANCZOS_SEED: u64 = 0x5EED_CAFE;

/// How often (in Lanczos steps) the convergence test runs.
pub const DEFAULT_LANCZOS_CHECK_EVERY: usize = 5;

/// Maximum outer Rayleigh-quotient-iteration steps per hierarchy level.
pub const DEFAULT_RQI_MAX_OUTER: usize = 12;

/// RQI eigen-residual tolerance (relative to the operator norm bound) when
/// RQI is used standalone; [`SolverOpts::rqi_options`] uses
/// [`DEFAULT_FIEDLER_TOL`] instead so refinement matches the outer target.
pub const DEFAULT_RQI_TOL: f64 = 1e-10;

/// Iteration cap of the MINRES solve *inside* an RQI step. Deliberately
/// lower than [`DEFAULT_MINRES_MAX_ITER`]: RQI only needs a direction, not
/// an accurate solve.
pub const DEFAULT_RQI_INNER_MAX_ITER: usize = 300;

/// Relative residual tolerance of the MINRES solve inside an RQI step
/// (loose, for the same reason).
pub const DEFAULT_RQI_INNER_RTOL: f64 = 1e-8;

/// Iteration cap for standalone MINRES solves.
pub const DEFAULT_MINRES_MAX_ITER: usize = 500;

/// Relative residual tolerance for standalone MINRES solves.
pub const DEFAULT_MINRES_RTOL: f64 = 1e-10;

/// The one solver configuration every Fiedler-backed path takes.
///
/// This is what the `spectral-env` facade, the `spectral-order` CLI
/// (`--threads`) and the `spectral-orderd` service (`"threads"` request
/// field) construct, and what [`crate::multilevel::fiedler`] and the
/// `se-order` orderings consume directly.
///
/// The multilevel solver behind SPECTRAL, hybrid, refined and nd runs on the
/// calling thread: `threads` and `pool` size TraceMin-Fiedler's pool only.
/// Results are **bit-identical for every `threads` value** — the pool's
/// reductions use a fixed chunk order (see [`sparsemat::par`]) — so the
/// thread count is purely a wall-clock knob.
///
/// ```
/// use se_eigen::multilevel::fiedler;
/// use se_eigen::SolverOpts;
/// use sparsemat::SymmetricPattern;
///
/// let g = SymmetricPattern::from_edges(200, &(0..199).map(|i| (i, i + 1)).collect::<Vec<_>>())
///     .unwrap();
/// let opts = SolverOpts { coarsest_size: 50, ..SolverOpts::default() };
/// let f = fiedler(&g, &opts).unwrap();
/// assert!(f.levels >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct SolverOpts {
    /// TraceMin-Fiedler's solver threads: `1` = serial (the default), `0` =
    /// all available cores, `n > 1` = a pool of `n`. The multilevel solver
    /// ignores it.
    pub threads: usize,
    /// Multilevel coarsest-graph size ([`DEFAULT_COARSEST_SIZE`]).
    pub coarsest_size: usize,
    /// Post-interpolation smoothing passes ([`DEFAULT_SMOOTH_STEPS`]).
    pub smooth_steps: usize,
    /// Solve the coarsest eigenproblem on the **mass-scaled Galerkin**
    /// coarse operator — the consistent restriction of the fine problem,
    /// `PᵀLP x = λ PᵀP x`, solved in the symmetrically scaled standard form
    /// (as in Barnard–Simon's weighted contraction). Helpful on strongly
    /// graded meshes; on expander-like graphs with weak spectral gaps the
    /// consistent coarse Fiedler vector can correspond to a different fine
    /// eigenvector and mislead the refinement, so the default is the plain
    /// unweighted coarse Laplacian (`false`).
    pub galerkin: bool,
    /// Span recorder threaded through every pipeline stage. Disabled by
    /// default; an enabled tracer never changes numerical results.
    pub trace: Tracer,
    /// Cooperative deadline/cancel/matvec-cap token, checked at every stage
    /// boundary and solver iteration. [`Budget::unlimited`] (the default) is
    /// a strict no-op.
    pub budget: Budget,
    /// Deterministic fault-injection plane threaded through every stage.
    /// [`FaultPlane::disabled`] (the default) is a strict no-op; solver
    /// results are bit-identical with a disabled plane.
    pub faults: FaultPlane,
    /// An existing pool for TraceMin-Fiedler to run on instead of building a
    /// fresh one from `threads`. `None` (the default) builds one per
    /// ordering (see [`SolverOpts::pool`]). Long-lived hosts (the
    /// `spectral-orderd` engine) set this from a per-thread-count pool cache
    /// so concurrent TraceMin solves share workers and their regions overlap
    /// instead of each request paying thread spawn/join. Results are
    /// bit-identical either way. The multilevel solver never touches it.
    pub pool: Option<TaskPool>,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            threads: 1,
            coarsest_size: DEFAULT_COARSEST_SIZE,
            smooth_steps: DEFAULT_SMOOTH_STEPS,
            galerkin: false,
            trace: Tracer::disabled(),
            budget: Budget::unlimited(),
            faults: FaultPlane::disabled(),
            pool: None,
        }
    }
}

impl SolverOpts {
    /// Defaults with a given thread count — the common CLI/service case.
    pub fn with_threads(threads: usize) -> Self {
        SolverOpts {
            threads,
            ..SolverOpts::default()
        }
    }

    /// Defaults with an externally owned pool (e.g. from a pool cache); the
    /// `threads` field is set to the pool's count for reporting only.
    pub fn with_pool(pool: TaskPool) -> Self {
        SolverOpts {
            threads: pool.threads(),
            pool: Some(pool),
            ..SolverOpts::default()
        }
    }

    /// The pool this configuration asks for: the injected [`SolverOpts::pool`]
    /// if set, otherwise a freshly built one. Serial unless the effective
    /// thread count exceeds 1.
    pub fn pool(&self) -> TaskPool {
        self.pool
            .clone()
            .unwrap_or_else(|| TaskPool::new(self.threads))
    }

    /// [`LanczosOptions`] from the `DEFAULT_LANCZOS_*` constants, sharing
    /// this configuration's tracer, budget and fault plane.
    pub fn lanczos_options(&self) -> LanczosOptions {
        LanczosOptions {
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
            ..LanczosOptions::default()
        }
    }

    /// [`RqiOptions`] from the `DEFAULT_RQI_*` constants, with the
    /// multilevel target [`DEFAULT_FIEDLER_TOL`] as the eigen-residual
    /// tolerance, sharing this configuration's tracer, budget and fault
    /// plane.
    pub fn rqi_options(&self) -> RqiOptions {
        RqiOptions {
            tol: DEFAULT_FIEDLER_TOL,
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
            ..RqiOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_per_solver_defaults() {
        let s = SolverOpts::default();
        let (lz, lz0) = (s.lanczos_options(), LanczosOptions::default());
        assert_eq!(lz.max_iter, DEFAULT_LANCZOS_MAX_ITER);
        assert_eq!(lz.max_iter, lz0.max_iter);
        assert_eq!(lz.tol, lz0.tol);
        assert_eq!(lz.seed, DEFAULT_LANCZOS_SEED);
        assert_eq!(lz.check_every, lz0.check_every);
        let (rqi, rqi0) = (s.rqi_options(), RqiOptions::default());
        assert_eq!(rqi.max_outer, rqi0.max_outer);
        assert_eq!(rqi.tol, DEFAULT_FIEDLER_TOL);
        assert_eq!(rqi.inner_max_iter, DEFAULT_RQI_INNER_MAX_ITER);
        assert_eq!(rqi.inner_rtol, DEFAULT_RQI_INNER_RTOL);
        assert_eq!(s.coarsest_size, DEFAULT_COARSEST_SIZE);
        assert_eq!(s.smooth_steps, DEFAULT_SMOOTH_STEPS);
        assert!(!s.galerkin);
    }

    #[test]
    fn serial_by_default() {
        assert_eq!(SolverOpts::default().pool().threads(), 1);
        assert!(!SolverOpts::default().pool().is_parallel());
    }

    #[test]
    fn injected_pool_is_reused_not_rebuilt() {
        let external = TaskPool::new(2);
        let s = SolverOpts::with_pool(external.clone());
        assert_eq!(s.threads, external.threads());
        assert_eq!(s.pool().threads(), external.threads());
        if external.is_parallel() {
            // A region run through the configuration's pool shows up in the
            // injected pool's stats — proof it shares workers instead of
            // spawning anew.
            let before = external.stats().regions;
            let v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
            let _ = s.pool().dot(&v, &v);
            assert_eq!(external.stats().regions, before + 1);
        }
    }
}
