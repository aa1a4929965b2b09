//! The one-stop solver configuration: [`SolverOpts`].
//!
//! Historically every solver carried its own options struct
//! ([`LanczosOptions`], [`RqiOptions`], [`crate::minres::MinresOptions`],
//! [`FiedlerOptions`]) and several tolerance/iteration-cap defaults were
//! duplicated as bare literals across them. This module hoists every such
//! knob into named, documented constants, and wraps the handful that callers
//! actually tune — plus the thread count — into a single flat [`SolverOpts`]
//! struct that the facade (`spectral-env`), the CLI and `spectral-orderd`
//! all share.
//!
//! The fine-grained option structs remain the solver-level API;
//! [`SolverOpts::fiedler_options`] expands into them, wiring one shared
//! [`TaskPool`] through every stage.

use crate::lanczos::LanczosOptions;
use crate::multilevel::FiedlerOptions;
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
/// RQI is used standalone; the multilevel driver overrides it with
/// [`DEFAULT_FIEDLER_TOL`] so refinement matches the outer target.
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

/// Flat, user-facing solver configuration.
///
/// This is what the `spectral-env` facade, the `spectral-order` CLI
/// (`--threads`) and the `spectral-orderd` service (`"threads"` request
/// field) construct; [`SolverOpts::fiedler_options`] expands it into the
/// per-solver option structs with one shared [`TaskPool`].
///
/// Results are **bit-identical for every `threads` value** — the pool's
/// reductions use a fixed chunk order (see [`sparsemat::par`]) — so the
/// thread count is purely a wall-clock knob.
///
/// ```
/// use se_eigen::SolverOpts;
///
/// let opts = SolverOpts { threads: 4, ..SolverOpts::default() };
/// let fo = opts.fiedler_options();
/// assert_eq!(fo.coarsest_size, se_eigen::solver_opts::DEFAULT_COARSEST_SIZE);
/// ```
#[derive(Debug, Clone)]
pub struct SolverOpts {
    /// Total solver threads: `1` = serial (the default), `0` = all available
    /// cores, `n > 1` = a pool of `n`.
    pub threads: usize,
    /// Fiedler eigen-residual tolerance ([`DEFAULT_FIEDLER_TOL`]).
    pub tol: f64,
    /// Lanczos Krylov-dimension cap ([`DEFAULT_LANCZOS_MAX_ITER`]).
    pub lanczos_max_iter: usize,
    /// RQI outer-step cap per level ([`DEFAULT_RQI_MAX_OUTER`]).
    pub rqi_max_outer: usize,
    /// MINRES cap inside each RQI step ([`DEFAULT_RQI_INNER_MAX_ITER`]).
    pub inner_max_iter: usize,
    /// MINRES relative tolerance inside RQI ([`DEFAULT_RQI_INNER_RTOL`]).
    pub inner_rtol: f64,
    /// Multilevel coarsest-graph size ([`DEFAULT_COARSEST_SIZE`]).
    pub coarsest_size: usize,
    /// Post-interpolation smoothing passes ([`DEFAULT_SMOOTH_STEPS`]).
    pub smooth_steps: usize,
    /// Lanczos start-vector seed ([`DEFAULT_LANCZOS_SEED`]).
    pub seed: u64,
    /// Span recorder threaded through every pipeline stage. Disabled by
    /// default; an enabled tracer never changes numerical results.
    pub trace: Tracer,
    /// Cooperative deadline/cancel/matvec-cap token, checked at every
    /// solver iteration boundary. [`Budget::unlimited`] (the default) is a
    /// strict no-op.
    pub budget: Budget,
    /// Deterministic fault-injection plane threaded through every stage.
    /// [`FaultPlane::disabled`] (the default) is a strict no-op; solver
    /// results are bit-identical with a disabled plane.
    pub faults: FaultPlane,
    /// An existing pool to run on instead of building a fresh one from
    /// `threads`. `None` (the default) keeps the old behaviour —
    /// [`SolverOpts::pool`] spawns workers per call. Long-lived hosts (the
    /// `spectral-orderd` engine) set this from a per-thread-count pool cache
    /// so concurrent solves share workers and their regions overlap instead
    /// of each request paying thread spawn/join. Results are bit-identical
    /// either way.
    pub pool: Option<TaskPool>,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            threads: 1,
            tol: DEFAULT_FIEDLER_TOL,
            lanczos_max_iter: DEFAULT_LANCZOS_MAX_ITER,
            rqi_max_outer: DEFAULT_RQI_MAX_OUTER,
            inner_max_iter: DEFAULT_RQI_INNER_MAX_ITER,
            inner_rtol: DEFAULT_RQI_INNER_RTOL,
            coarsest_size: DEFAULT_COARSEST_SIZE,
            smooth_steps: DEFAULT_SMOOTH_STEPS,
            seed: DEFAULT_LANCZOS_SEED,
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

    /// Expands into [`LanczosOptions`] sharing the given pool.
    pub fn lanczos_options(&self, pool: &TaskPool) -> LanczosOptions {
        LanczosOptions {
            max_iter: self.lanczos_max_iter,
            tol: DEFAULT_LANCZOS_TOL,
            seed: self.seed,
            check_every: DEFAULT_LANCZOS_CHECK_EVERY,
            pool: pool.clone(),
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Expands into [`RqiOptions`] sharing the given pool.
    pub fn rqi_options(&self, pool: &TaskPool) -> RqiOptions {
        RqiOptions {
            max_outer: self.rqi_max_outer,
            tol: self.tol,
            inner_max_iter: self.inner_max_iter,
            inner_rtol: self.inner_rtol,
            pool: pool.clone(),
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Expands into the full multilevel [`FiedlerOptions`], creating one
    /// [`TaskPool`] shared by every stage (coarsening, Lanczos, RQI/MINRES,
    /// smoothing).
    pub fn fiedler_options(&self) -> FiedlerOptions {
        let pool = self.pool();
        FiedlerOptions {
            coarsest_size: self.coarsest_size,
            tol: self.tol,
            smooth_steps: self.smooth_steps,
            galerkin: false,
            lanczos: self.lanczos_options(&pool),
            rqi: self.rqi_options(&pool),
            pool,
            trace: self.trace.clone(),
            budget: self.budget.clone(),
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_per_solver_defaults() {
        let s = SolverOpts::default();
        let fo = s.fiedler_options();
        let base = FiedlerOptions::default();
        assert_eq!(fo.coarsest_size, base.coarsest_size);
        assert_eq!(fo.tol, base.tol);
        assert_eq!(fo.smooth_steps, base.smooth_steps);
        assert_eq!(fo.lanczos.max_iter, base.lanczos.max_iter);
        assert_eq!(fo.lanczos.tol, base.lanczos.tol);
        assert_eq!(fo.lanczos.seed, base.lanczos.seed);
        assert_eq!(fo.rqi.max_outer, base.rqi.max_outer);
        assert_eq!(fo.rqi.tol, base.rqi.tol);
        assert_eq!(fo.rqi.inner_max_iter, base.rqi.inner_max_iter);
        assert_eq!(fo.rqi.inner_rtol, base.rqi.inner_rtol);
    }

    #[test]
    fn serial_by_default() {
        assert_eq!(SolverOpts::default().pool().threads(), 1);
        assert!(!SolverOpts::default().fiedler_options().pool.is_parallel());
    }

    #[test]
    fn stages_share_one_pool() {
        let fo = SolverOpts::with_threads(4).fiedler_options();
        // All stages report the same thread count (clones of one pool).
        assert_eq!(fo.pool.threads(), fo.lanczos.pool.threads());
        assert_eq!(fo.pool.threads(), fo.rqi.pool.threads());
    }

    #[test]
    fn injected_pool_is_reused_not_rebuilt() {
        let external = TaskPool::new(2);
        let s = SolverOpts::with_pool(external.clone());
        assert_eq!(s.threads, external.threads());
        assert_eq!(s.pool().threads(), external.threads());
        let fo = s.fiedler_options();
        assert_eq!(fo.pool.threads(), external.threads());
        if external.is_parallel() {
            // Regions run through the injected pool show up in its stats —
            // proof the expansion shares workers instead of spawning anew.
            let before = external.stats().regions;
            let v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
            let _ = fo.pool.dot(&v, &v);
            assert_eq!(external.stats().regions, before + 1);
        }
    }
}
