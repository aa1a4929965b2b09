//! # spectral-env — spectral envelope reduction of sparse matrices
//!
//! A faithful reproduction of Barnard, Pothen & Simon, *"A Spectral
//! Algorithm for Envelope Reduction of Sparse Matrices"* (Supercomputing
//! '93): reorder a sparse symmetric matrix by sorting the entries of a
//! second Laplacian eigenvector (Fiedler vector), computed with a
//! multilevel contract–interpolate–refine scheme, and compare against the
//! classical RCM, GPS and GK orderings.
//!
//! ## Quickstart
//!
//! ```
//! use spectral_env::{reorder, Algorithm};
//! use sparsemat::CsrMatrix;
//!
//! // A 1-D Laplacian with a scrambled ordering.
//! let a = CsrMatrix::from_entries(4, &[
//!     (0, 0, 2.0), (0, 3, -1.0), (3, 0, -1.0), (3, 3, 2.0),
//!     (1, 1, 2.0), (1, 3, -1.0), (3, 1, -1.0),
//!     (2, 2, 2.0), (0, 2, -1.0), (2, 0, -1.0),
//! ]).unwrap();
//!
//! let result = reorder(&a, Algorithm::Spectral).unwrap();
//! // The spectral ordering recovers the chain 2–0–3–1: bandwidth 1.
//! assert_eq!(result.ordering.stats.bandwidth, 1);
//! assert_eq!(result.ordering.stats.envelope_size, 3);
//! let b = &result.matrix; // PᵀAP, ready for envelope factorization
//! assert_eq!(b.nrows(), 4);
//! ```
//!
//! ## Crate map
//!
//! * [`sparsemat`] — CSR/COO matrices, envelope metrics, MatrixMarket &
//!   Harwell–Boeing I/O, spy plots,
//! * [`se_graph`] — BFS, level structures, pseudo-peripheral vertices,
//!   coarsening,
//! * [`se_eigen`] — tridiagonal QL, Lanczos, MINRES, RQI, multilevel
//!   Fiedler solver,
//! * [`se_order`] — SPECTRAL, RCM, GPS, GK, Sloan, hybrid orderings,
//! * [`se_envelope`] — envelope (skyline) Cholesky factorization.

#![forbid(unsafe_code)]

// Compile and run the top-level README's Rust blocks as doc-tests of this
// crate, so the README can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub mod report;

pub use report::{compare_orderings, Comparison, ComparisonRow};

pub use se_eigen::multilevel::{fiedler, FiedlerResult};
pub use se_eigen::SolverOpts;
pub use se_envelope::EnvelopeMatrix;
pub use se_faults::{Budget, FaultPlane};
pub use se_order::{Algorithm, LadderOutcome, OrderError, Ordering};
pub use se_trace::{SpanNode, Tracer};
pub use sparsemat::{CooMatrix, CsrMatrix, Permutation, SymmetricPattern};

/// Errors from the façade API.
#[derive(Debug)]
pub enum Error {
    /// The matrix could not be interpreted (shape/symmetry).
    Sparse(sparsemat::SparseError),
    /// An ordering algorithm failed.
    Order(se_order::OrderError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Sparse(e) => write!(f, "{e}"),
            Error::Order(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<sparsemat::SparseError> for Error {
    fn from(e: sparsemat::SparseError) -> Self {
        Error::Sparse(e)
    }
}

impl From<se_order::OrderError> for Error {
    fn from(e: se_order::OrderError) -> Self {
        Error::Order(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// The outcome of [`reorder`]: the permuted matrix and the ordering that
/// produced it.
#[derive(Debug, Clone)]
pub struct Reordered {
    /// `PᵀAP`.
    pub matrix: CsrMatrix,
    /// The ordering (permutation + envelope statistics of the pattern).
    pub ordering: Ordering,
}

/// Reorders a structurally symmetric matrix with the chosen algorithm and
/// returns the permuted matrix together with the ordering.
///
/// For matrices with an unsymmetric pattern, symmetrize first
/// ([`CsrMatrix::symmetrize`]), order the symmetrized pattern, and apply the
/// permutation to the original matrix.
pub fn reorder(a: &CsrMatrix, alg: Algorithm) -> Result<Reordered> {
    reorder_with(a, alg, &SolverOpts::default())
}

/// [`reorder`] with an explicit solver configuration — the multilevel shape,
/// the tracer, budget and fault plane, and `threads`: with `threads != 1`
/// TRACEMIN's inner solves run on up to that many threads per outer step
/// (the multilevel algorithms always solve on the calling thread). Results are
/// bit-identical for every thread count.
pub fn reorder_with(a: &CsrMatrix, alg: Algorithm, solver: &SolverOpts) -> Result<Reordered> {
    let pattern = a.pattern()?;
    let ordering = se_order::order_with(&pattern, alg, solver)?;
    let matrix = a.permute_symmetric(&ordering.perm)?;
    Ok(Reordered { matrix, ordering })
}

/// Orders a bare sparsity pattern (no values needed).
pub fn reorder_pattern(g: &SymmetricPattern, alg: Algorithm) -> Result<Ordering> {
    Ok(se_order::order(g, alg)?)
}

/// [`reorder_pattern`] with an explicit solver configuration (see
/// [`reorder_with`]).
pub fn reorder_pattern_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<Ordering> {
    Ok(se_order::order_with(g, alg, solver)?)
}

/// Orders a pattern through **supervariable compression**: vertices with
/// identical closed neighborhoods (multi-DOF nodes of structural matrices,
/// like the BCSSTK* family) are merged, the quotient graph is ordered with
/// `alg`, and the result expanded. Returns the ordering and the compression
/// ratio (`n / n_supervariables`; 1.0 = nothing merged).
///
/// For a `d`-DOF model this runs the ordering on a graph `d×` smaller at
/// (typically) indistinguishable envelope quality.
pub fn reorder_pattern_compressed(g: &SymmetricPattern, alg: Algorithm) -> Result<(Ordering, f64)> {
    reorder_pattern_compressed_with(g, alg, &SolverOpts::default())
}

/// [`reorder_pattern_compressed`] with an explicit solver configuration
/// (see [`reorder_with`]).
pub fn reorder_pattern_compressed_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<(Ordering, f64)> {
    Ok(se_order::order_compressed_with(g, alg, solver)?)
}

/// [`reorder_pattern_with`] through the **graceful-degradation ladder**:
/// when the requested eigensolver-backed algorithm cannot finish
/// (non-convergence, exhausted [`Budget`], injected fault), falls back to
/// Lanczos-only and then to RCM instead of failing, and reports which rung
/// ran and why in the returned [`LadderOutcome`]. With a healthy solve the
/// result is bit-identical to [`reorder_pattern_with`].
pub fn reorder_pattern_degraded_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<LadderOutcome> {
    Ok(se_order::order_degraded_with(g, alg, solver)?)
}

/// [`reorder_pattern_compressed_with`] through the graceful-degradation
/// ladder (see [`reorder_pattern_degraded_with`]); the outcome carries the
/// compression ratio.
pub fn reorder_pattern_compressed_degraded_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<LadderOutcome> {
    Ok(se_order::order_compressed_degraded_with(g, alg, solver)?)
}

/// Computes the Fiedler vector of a matrix's adjacency graph with the
/// multilevel solver — the core primitive of the spectral algorithm,
/// exposed for users who want the raw eigenvector (e.g. for partitioning).
pub fn fiedler_vector(a: &CsrMatrix) -> Result<FiedlerResult> {
    fiedler_vector_with(a, &SolverOpts::default())
}

/// [`fiedler_vector`] with an explicit solver configuration (see
/// [`reorder_with`]).
pub fn fiedler_vector_with(a: &CsrMatrix, solver: &SolverOpts) -> Result<FiedlerResult> {
    let pattern = a.pattern()?;
    fiedler(&pattern, solver).map_err(|e| Error::Order(se_order::OrderError::Eigen(e)))
}

/// End-to-end solve: reorder with `alg`, envelope-factorize `PᵀAP`, solve,
/// and permute the solution back to the original numbering. `a` must be
/// symmetric positive definite.
pub fn reorder_factor_solve(
    a: &CsrMatrix,
    b: &[f64],
    alg: Algorithm,
) -> Result<(Vec<f64>, se_envelope::EnvelopeMatrix)> {
    let r = reorder(a, alg)?;
    let mut env = EnvelopeMatrix::from_csr(&r.matrix).map_err(|e| match e {
        se_envelope::EnvelopeError::Sparse(s) => Error::Sparse(s),
        other => Error::Order(se_order::OrderError::Internal(other.to_string())),
    })?;
    env.factorize()
        .map_err(|e| Error::Order(se_order::OrderError::Internal(e.to_string())))?;
    // Permute rhs into the new ordering, solve, permute back.
    let pb = r.ordering.perm.apply(b)?;
    let px = env
        .solve(&pb)
        .map_err(|e| Error::Order(se_order::OrderError::Internal(e.to_string())))?;
    let mut x = vec![0.0; b.len()];
    for (k, &v) in r.ordering.perm.order().iter().enumerate() {
        x[v] = px[k];
    }
    Ok((x, env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshgen::{annulus_tri, grid2d};

    #[test]
    fn reorder_spectral_on_grid() {
        let g = grid2d(12, 5);
        let a = g.spd_matrix(0.5);
        let r = reorder(&a, Algorithm::Spectral).unwrap();
        assert!(r.ordering.stats.envelope_size < 60 * 8);
        assert_eq!(r.matrix.nnz(), a.nnz());
        // The permuted matrix is still symmetric.
        assert!(r.matrix.is_symmetric(1e-12));
    }

    #[test]
    fn reorder_rejects_unsymmetric() {
        let a = CsrMatrix::from_entries(2, &[(0, 1, 1.0)]).unwrap();
        assert!(matches!(
            reorder(&a, Algorithm::Rcm),
            Err(Error::Sparse(sparsemat::SparseError::NotSymmetric))
        ));
    }

    #[test]
    fn fiedler_vector_of_mesh() {
        let g = annulus_tri(8, 20, 3);
        let a = g.spd_matrix(1.0);
        let f = fiedler_vector(&a).unwrap();
        assert!(f.lambda2 > 0.0);
        assert_eq!(f.vector.len(), 160);
    }

    #[test]
    fn reorder_factor_solve_roundtrip() {
        let g = grid2d(9, 7);
        let a = g.spd_matrix(0.8);
        let x_true: Vec<f64> = (0..63).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = a.matvec_alloc(&x_true);
        for alg in [Algorithm::Spectral, Algorithm::Rcm, Algorithm::Gps] {
            let (x, env) = reorder_factor_solve(&a, &b, alg).unwrap();
            assert!(env.is_factorized());
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-8, "{alg:?}: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn compressed_ordering_on_block_matrix() {
        // A 5-DOF structural pattern: compression should find ratio 5 and
        // produce an envelope close to the direct ordering's.
        let base = meshgen::grid2d(12, 8);
        let g = meshgen::block_expand(&base, 5);
        let (compressed, ratio) = reorder_pattern_compressed(&g, Algorithm::Rcm).unwrap();
        assert!((ratio - 5.0).abs() < 1e-9, "ratio {ratio}");
        let direct = reorder_pattern(&g, Algorithm::Rcm).unwrap();
        let (ec, ed) = (
            compressed.stats.envelope_size as f64,
            direct.stats.envelope_size as f64,
        );
        assert!(ec <= 1.10 * ed, "compressed envelope {ec} vs direct {ed}");
    }

    #[test]
    fn reorder_pattern_matches_reorder() {
        let g = grid2d(8, 8);
        let a = g.spd_matrix(1.0);
        let o1 = reorder_pattern(&g, Algorithm::Rcm).unwrap();
        let o2 = reorder(&a, Algorithm::Rcm).unwrap();
        assert_eq!(o1.perm, o2.ordering.perm);
    }
}
