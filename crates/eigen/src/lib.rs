//! Hand-rolled symmetric eigensolvers for the spectral envelope-reduction
//! algorithm.
//!
//! The paper's Algorithm 1 needs one eigenvector — a **second Laplacian
//! eigenvector** (Fiedler vector) — of a large sparse graph Laplacian. No
//! mature sparse eigensolver crate is assumed; everything is built here:
//!
//! * [`op`] — the [`op::SymOp`] operator abstraction (Laplacian, shifted and
//!   deflated operators),
//! * [`dense`] — dense symmetric eigensolver (Householder + QL), the
//!   reference oracle,
//! * [`tridiag`] — dense symmetric *tridiagonal* eigensolver (implicit-shift
//!   QL with eigenvectors, EISPACK `tql2` style),
//! * [`lanczos`] — Lanczos with full reorthogonalization and null-space
//!   deflation,
//! * [`mod@minres`] — MINRES for symmetric (indefinite) shifted systems,
//! * [`rqi`] — Rayleigh Quotient Iteration refinement,
//! * [`multilevel`] — the Barnard–Simon multilevel Fiedler solver of §3
//!   (contract → interpolate → refine).
//!
//! Every solver here runs on the calling thread, so SPECTRAL, hybrid and
//! nd solve on the thread that asked. [`SolverOpts::threads`]
//! and [`SolverOpts::pool`] size TraceMin-Fiedler (`se-tracemin`) only,
//! which runs its inner solves on several threads at once. Reductions use
//! the fixed-grid chunked forms of [`sparsemat::par`], so results are
//! bit-identical for every thread count either way.
//!
//! ```
//! use sparsemat::SymmetricPattern;
//! use se_eigen::multilevel::fiedler;
//! use se_eigen::SolverOpts;
//!
//! // λ₂ of the path P₁₀ is 2 − 2cos(π/10).
//! let g = SymmetricPattern::from_edges(10, &(0..9).map(|i| (i, i+1)).collect::<Vec<_>>()).unwrap();
//! let f = fiedler(&g, &SolverOpts::default()).unwrap();
//! let exact = 2.0 - 2.0 * (std::f64::consts::PI / 10.0).cos();
//! assert!((f.lambda2 - exact).abs() < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod lanczos;
pub mod minres;
pub mod multilevel;
pub mod op;
pub mod rqi;
pub mod solver_opts;
pub mod tridiag;

pub use dense::{DenseEigen, DenseSym};
pub use lanczos::{lanczos_smallest, LanczosOptions, LanczosResult};
pub use minres::{minres, MinresOptions, MinresOutcome};
pub use multilevel::{fiedler, fiedler_lanczos, FiedlerResult};
pub use op::{CsrOp, DeflatedOp, LaplacianOp, ShiftedOp, SymOp};
pub use rqi::{rayleigh_quotient_iteration, RqiOptions, RqiResult};
pub use solver_opts::SolverOpts;

/// Errors produced by the eigensolvers.
#[derive(Debug, Clone, PartialEq)]
pub enum EigenError {
    /// The iteration did not converge within its budget.
    NoConvergence {
        /// Which solver gave up (e.g. `"lanczos"`, `"rqi"`).
        what: &'static str,
        /// The iteration budget it exhausted.
        iters: usize,
    },
    /// The input graph must be connected for a Fiedler vector to exist.
    Disconnected,
    /// The problem is too small (e.g. Fiedler vector of a 1-vertex graph).
    TooSmall {
        /// The offending problem size.
        n: usize,
    },
    /// An internal invariant failed (a bug or pathological input).
    Numerical(String),
    /// The cooperative [`se_faults::Budget`] aborted the solve at an
    /// iteration boundary (deadline, cancellation, or matvec cap).
    Budget {
        /// The pipeline stage that observed the exhausted budget.
        stage: &'static str,
        /// What ran out.
        cause: se_faults::Exceeded,
    },
    /// A deterministic fault injected through [`se_faults::FaultPlane`]
    /// fired at `site` (chaos testing only; never on a disabled plane).
    Fault {
        /// The fault site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::NoConvergence { what, iters } => {
                write!(f, "{what} did not converge in {iters} iterations")
            }
            EigenError::Disconnected => write!(f, "graph is disconnected"),
            EigenError::TooSmall { n } => write!(f, "problem too small (n = {n})"),
            EigenError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            EigenError::Budget { stage, cause } => {
                write!(f, "solve aborted in {stage}: budget exceeded ({cause})")
            }
            EigenError::Fault { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for EigenError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EigenError>;
