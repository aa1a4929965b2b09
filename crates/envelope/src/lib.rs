//! Envelope (skyline / profile / variable-band) Cholesky factorization,
//! plus the iterative-side application the paper motivates in §1:
//! incomplete Cholesky ([`ic`]) and preconditioned conjugate gradients
//! ([`mod@pcg`]).
//!
//! This is the numerical substrate behind Table 4.4 of the paper: the
//! SPARSPAK-style envelope factorization whose running time scales with
//! `Σ rᵢ²` — quadratically in the envelope — so that a better reordering
//! (smaller envelope) directly buys factorization time.
//!
//! Storage: row `i` keeps the contiguous coefficients from its first
//! nonzero column `fᵢ` through the diagonal. A key classical fact makes the
//! scheme exact: the Cholesky factor's envelope equals the matrix's
//! envelope (no fill outside it), so [`EnvelopeMatrix::factorize`] is a
//! complete `A = LLᵀ` factorization.
//!
//! ```
//! use sparsemat::SymmetricPattern;
//! use se_envelope::EnvelopeMatrix;
//!
//! let g = SymmetricPattern::from_edges(4, &[(0,1),(1,2),(2,3)]).unwrap();
//! let a = g.spd_matrix(1.0); // shifted Laplacian, SPD
//! let b = a.matvec_alloc(&[1.0, 2.0, 3.0, 4.0]);
//! let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
//! env.factorize().unwrap();
//! let x = env.solve(&b).unwrap();
//! assert!((x[2] - 3.0).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]

pub mod ic;
pub mod pcg;
pub mod symbolic;

pub use ic::IncompleteCholesky;
pub use pcg::{pcg, PcgOptions, PcgOutcome};

use sparsemat::{CsrMatrix, Permutation, SparseError};

/// Errors from envelope factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvelopeError {
    /// Construction failed (non-square / non-symmetric input).
    Sparse(SparseError),
    /// A nonpositive pivot was met at the given row: the matrix is not
    /// positive definite.
    NotPositiveDefinite { row: usize, pivot: f64 },
    /// The matrix is not in the state the operation requires (solve before
    /// factorize, or factorize twice).
    NotFactorized,
    /// Dimension mismatch in a solve.
    DimensionMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Sparse(e) => write!(f, "{e}"),
            EnvelopeError::NotPositiveDefinite { row, pivot } => {
                write!(
                    f,
                    "matrix not positive definite (pivot {pivot} at row {row})"
                )
            }
            EnvelopeError::NotFactorized => write!(f, "matrix not in factorizable/solvable state"),
            EnvelopeError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<SparseError> for EnvelopeError {
    fn from(e: SparseError) -> Self {
        EnvelopeError::Sparse(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EnvelopeError>;

/// Which factorization an [`EnvelopeMatrix`] currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorState {
    /// Raw matrix coefficients.
    Unfactored,
    /// `A = LLᵀ` (Cholesky; diagonal of the storage holds `L`'s diagonal).
    Cholesky,
    /// `A = LDLᵀ` (unit-lower `L` off the diagonal, `D` on the diagonal).
    Ldlt,
}

/// A symmetric matrix in envelope (skyline) storage, factorizable in place.
#[derive(Debug, Clone)]
pub struct EnvelopeMatrix {
    n: usize,
    /// First stored column of each row (`fᵢ ≤ i`).
    first: Vec<usize>,
    /// `row_start[i]..row_start[i+1]` indexes `data` for row `i`
    /// (columns `first[i]..=i`).
    row_start: Vec<usize>,
    /// Envelope coefficients, rows concatenated.
    data: Vec<f64>,
    state: FactorState,
}

impl EnvelopeMatrix {
    /// Builds envelope storage from a square CSR matrix (the lower triangle
    /// and diagonal are read; the upper triangle is assumed symmetric).
    pub fn from_csr(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(EnvelopeError::Sparse(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            }));
        }
        let n = a.nrows();
        let mut first = Vec::with_capacity(n);
        for i in 0..n {
            let fi = a.row_cols(i).first().copied().unwrap_or(i).min(i);
            first.push(fi);
        }
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        for i in 0..n {
            row_start.push(row_start[i] + (i - first[i] + 1));
        }
        let mut data = vec![0.0; row_start[n]];
        for i in 0..n {
            for (&c, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                if c <= i {
                    data[row_start[i] + (c - first[i])] = v;
                }
            }
        }
        Ok(EnvelopeMatrix {
            n,
            first,
            row_start,
            data,
            state: FactorState::Unfactored,
        })
    }

    /// Convenience: permutes `a` symmetrically by `perm`, then builds the
    /// envelope storage of `PᵀAP`.
    pub fn from_csr_permuted(a: &CsrMatrix, perm: &Permutation) -> Result<Self> {
        let p = a.permute_symmetric(perm)?;
        EnvelopeMatrix::from_csr(&p)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored envelope entries (including diagonals) —
    /// `Esize + n` in the paper's notation.
    pub fn stored_entries(&self) -> usize {
        self.data.len()
    }

    /// The envelope size `Σ rᵢ` (excluding diagonals), matching
    /// `sparsemat::envelope::envelope_size`.
    pub fn envelope_size(&self) -> u64 {
        (self.data.len() - self.n) as u64
    }

    /// Entry `(i, j)` with `j ≤ i`; zero outside the envelope.
    pub fn get_lower(&self, i: usize, j: usize) -> f64 {
        if j > i || j < self.first[i] {
            0.0
        } else {
            self.data[self.row_start[i] + (j - self.first[i])]
        }
    }

    /// Whether a factorization ([`factorize`](Self::factorize) or
    /// [`factorize_ldlt`](Self::factorize_ldlt)) has completed.
    pub fn is_factorized(&self) -> bool {
        self.state != FactorState::Unfactored
    }

    /// In-place Cholesky `A = LLᵀ` (Jennings' active-row scheme). Returns
    /// the number of floating-point multiply–adds performed, which is
    /// bounded by the paper's `½ Σ rᵢ(rᵢ+3)` estimate.
    pub fn factorize(&mut self) -> Result<u64> {
        if self.state != FactorState::Unfactored {
            return Err(EnvelopeError::NotFactorized);
        }
        let n = self.n;
        let mut flops = 0u64;
        for i in 0..n {
            let fi = self.first[i];
            // Off-diagonal entries of row i.
            for j in fi..i {
                let fj = self.first[j];
                let lo = fi.max(fj);
                let mut sum = self.data[self.row_start[i] + (j - fi)];
                // sum -= dot(L[i, lo..j], L[j, lo..j])
                let ri = self.row_start[i] + (lo - fi);
                let rj = self.row_start[j] + (lo - fj);
                let len = j - lo;
                for k in 0..len {
                    sum -= self.data[ri + k] * self.data[rj + k];
                }
                flops += len as u64 + 1;
                let djj = self.data[self.row_start[j] + (j - fj)];
                self.data[self.row_start[i] + (j - fi)] = sum / djj;
            }
            // Diagonal pivot.
            let mut d = self.data[self.row_start[i] + (i - fi)];
            for k in fi..i {
                let lik = self.data[self.row_start[i] + (k - fi)];
                d -= lik * lik;
            }
            flops += (i - fi) as u64;
            if d <= 0.0 || !d.is_finite() {
                return Err(EnvelopeError::NotPositiveDefinite { row: i, pivot: d });
            }
            self.data[self.row_start[i] + (i - fi)] = d.sqrt();
        }
        self.state = FactorState::Cholesky;
        Ok(flops)
    }

    /// In-place `A = LDLᵀ` factorization (no pivoting): works for positive
    /// definite *and* nonsingular symmetric indefinite matrices whose
    /// leading minors are nonzero. Returns the multiply–add count.
    pub fn factorize_ldlt(&mut self) -> Result<u64> {
        if self.state != FactorState::Unfactored {
            return Err(EnvelopeError::NotFactorized);
        }
        let n = self.n;
        let mut flops = 0u64;
        for i in 0..n {
            let fi = self.first[i];
            // L(i, j) for j < i; data temporarily holds L(i,j)·D(j) until
            // scaled.
            for j in fi..i {
                let fj = self.first[j];
                let lo = fi.max(fj);
                let mut sum = self.data[self.row_start[i] + (j - fi)];
                let len = j - lo;
                let ri = self.row_start[i] + (lo - fi);
                let rj = self.row_start[j] + (lo - fj);
                for k in 0..len {
                    // L(i,k)·D(k)·L(j,k): stored L entries are already
                    // scaled by 1/D, so multiply by D(k) explicitly.
                    let dk = self.data[self.row_start[lo + k] + (lo + k - self.first[lo + k])];
                    sum -= self.data[ri + k] * self.data[rj + k] * dk;
                }
                flops += 2 * len as u64 + 1;
                let djj = self.data[self.row_start[j] + (j - fj)];
                if djj == 0.0 || !djj.is_finite() {
                    return Err(EnvelopeError::NotPositiveDefinite { row: j, pivot: djj });
                }
                self.data[self.row_start[i] + (j - fi)] = sum / djj;
            }
            // Diagonal pivot D(i).
            let mut d = self.data[self.row_start[i] + (i - fi)];
            for k in fi..i {
                let lik = self.data[self.row_start[i] + (k - fi)];
                let dk = self.data[self.row_start[k] + (k - self.first[k])];
                d -= lik * lik * dk;
            }
            flops += 2 * (i - fi) as u64;
            if d == 0.0 || !d.is_finite() {
                return Err(EnvelopeError::NotPositiveDefinite { row: i, pivot: d });
            }
            self.data[self.row_start[i] + (i - fi)] = d;
        }
        self.state = FactorState::Ldlt;
        Ok(flops)
    }

    /// The inertia `(n_negative, n_positive)` of the matrix, read off the
    /// `D` of a completed LDLᵀ factorization (Sylvester's law of inertia:
    /// congruence preserves sign counts). Requires
    /// [`factorize_ldlt`](Self::factorize_ldlt) first.
    pub fn inertia(&self) -> Result<(usize, usize)> {
        if self.state != FactorState::Ldlt {
            return Err(EnvelopeError::NotFactorized);
        }
        let mut neg = 0usize;
        let mut pos = 0usize;
        for i in 0..self.n {
            let d = self.data[self.row_start[i] + (i - self.first[i])];
            if d < 0.0 {
                neg += 1;
            } else {
                pos += 1;
            }
        }
        Ok((neg, pos))
    }

    /// Solves `A x = b` using the computed factor (`L y = b`, `Lᵀ x = y`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(EnvelopeError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        match self.state {
            FactorState::Unfactored => Err(EnvelopeError::NotFactorized),
            FactorState::Cholesky => Ok(self.solve_cholesky(b)),
            FactorState::Ldlt => Ok(self.solve_ldlt(b)),
        }
    }

    fn solve_cholesky(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        // Forward: L y = b.
        for i in 0..self.n {
            let fi = self.first[i];
            let base = self.row_start[i];
            let mut s = x[i];
            for (k, j) in (fi..i).enumerate() {
                s -= self.data[base + k] * x[j];
            }
            x[i] = s / self.data[base + (i - fi)];
        }
        // Backward: Lᵀ x = y (saxpy column sweep over L's rows).
        for i in (0..self.n).rev() {
            let fi = self.first[i];
            let base = self.row_start[i];
            x[i] /= self.data[base + (i - fi)];
            let xi = x[i];
            for (k, j) in (fi..i).enumerate() {
                x[j] -= self.data[base + k] * xi;
            }
        }
        x
    }

    #[allow(clippy::needless_range_loop)] // skyline sweeps index x, first and row_start together
    fn solve_ldlt(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        // Forward: L y = b (unit diagonal).
        for i in 0..self.n {
            let fi = self.first[i];
            let base = self.row_start[i];
            let mut s = x[i];
            for (k, j) in (fi..i).enumerate() {
                s -= self.data[base + k] * x[j];
            }
            x[i] = s;
        }
        // Diagonal: z = D⁻¹ y.
        for i in 0..self.n {
            let fi = self.first[i];
            x[i] /= self.data[self.row_start[i] + (i - fi)];
        }
        // Backward: Lᵀ x = z.
        for i in (0..self.n).rev() {
            let fi = self.first[i];
            let base = self.row_start[i];
            let xi = x[i];
            for (k, j) in (fi..i).enumerate() {
                x[j] -= self.data[base + k] * xi;
            }
        }
        x
    }

    /// Reconstructs the dense `L Lᵀ` product (test/diagnostic helper; only
    /// sensible for small matrices).
    #[allow(clippy::needless_range_loop)] // dense triangular accumulation
    pub fn reconstruct_dense(&self) -> Result<Vec<Vec<f64>>> {
        if self.state != FactorState::Cholesky {
            return Err(EnvelopeError::NotFactorized);
        }
        let n = self.n;
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += self.get_lower(i, k) * self.get_lower(j, k);
                }
                out[i][j] = s;
                out[j][i] = s;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::SymmetricPattern;

    fn spd_path(n: usize, shift: f64) -> CsrMatrix {
        let g =
            SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        g.spd_matrix(shift)
    }

    #[test]
    fn construction_records_envelope() {
        let a = spd_path(5, 1.0);
        let env = EnvelopeMatrix::from_csr(&a).unwrap();
        assert_eq!(env.n(), 5);
        assert_eq!(env.envelope_size(), 4);
        assert_eq!(env.stored_entries(), 9);
        assert_eq!(env.get_lower(2, 1), -1.0);
        assert_eq!(env.get_lower(2, 0), 0.0);
    }

    #[test]
    fn factor_and_reconstruct_small() {
        let a = spd_path(6, 0.7);
        let dense_a = a.to_dense();
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize().unwrap();
        let recon = env.reconstruct_dense().unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (recon[i][j] - dense_a[i][j]).abs() < 1e-12,
                    "mismatch at ({i},{j}): {} vs {}",
                    recon[i][j],
                    dense_a[i][j]
                );
            }
        }
    }

    #[test]
    fn factor_exactness_with_interior_zeros() {
        // A matrix with explicit zeros inside the envelope: row 3 reaches
        // back to column 0, spanning structurally-zero entries (3,1), (3,2).
        let a = CsrMatrix::from_entries(
            4,
            &[
                (0, 0, 4.0),
                (1, 1, 4.0),
                (2, 2, 4.0),
                (3, 3, 4.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
            ],
        )
        .unwrap();
        let dense_a = a.to_dense();
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize().unwrap();
        let recon = env.reconstruct_dense().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((recon[i][j] - dense_a[i][j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let n = 40;
        let a = spd_path(n, 0.3);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.matvec_alloc(&x_true);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize().unwrap();
        let x = env.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        // A Laplacian is singular — zero pivot at the last row of each
        // component.
        let g = SymmetricPattern::from_edges(4, &(0..3).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        let l = g.laplacian();
        let mut env = EnvelopeMatrix::from_csr(&l).unwrap();
        match env.factorize() {
            Err(EnvelopeError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn solve_before_factorize_is_error() {
        let a = spd_path(3, 1.0);
        let env = EnvelopeMatrix::from_csr(&a).unwrap();
        assert!(matches!(
            env.solve(&[1.0; 3]),
            Err(EnvelopeError::NotFactorized)
        ));
    }

    #[test]
    fn double_factorize_is_error() {
        let a = spd_path(3, 1.0);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize().unwrap();
        assert!(env.factorize().is_err());
    }

    #[test]
    fn solve_wrong_length_is_error() {
        let a = spd_path(3, 1.0);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize().unwrap();
        assert!(matches!(
            env.solve(&[1.0; 2]),
            Err(EnvelopeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn flop_count_respects_paper_bound() {
        // flops ≤ ½ Σ rᵢ(rᵢ + 3) + n (the +n covers the diagonal sqrt ops).
        let g = SymmetricPattern::from_edges(
            30,
            &(0..29)
                .map(|i| (i, i + 1))
                .chain((0..25).map(|i| (i, i + 5)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let a = g.spd_matrix(1.0);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        let perm = Permutation::identity(30);
        let widths = sparsemat::envelope::row_widths(&g, &perm);
        let bound: u64 = widths.iter().map(|&r| r * (r + 3)).sum::<u64>() / 2 + 30;
        let flops = env.factorize().unwrap();
        assert!(flops <= bound, "flops {flops} > bound {bound}");
    }

    #[test]
    fn permuted_construction_matches_manual_permute() {
        let a = spd_path(8, 0.5);
        let perm = Permutation::from_new_to_old(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let env1 = EnvelopeMatrix::from_csr_permuted(&a, &perm).unwrap();
        let pa = a.permute_symmetric(&perm).unwrap();
        let env2 = EnvelopeMatrix::from_csr(&pa).unwrap();
        assert_eq!(env1.stored_entries(), env2.stored_entries());
    }

    #[test]
    fn bigger_envelope_means_more_flops() {
        // The quadratic-behaviour claim of Table 4.4 in miniature: the same
        // matrix under a bad ordering costs more flops to factor.
        let n = 64;
        let a = spd_path(n, 0.4);
        let mut env_good = EnvelopeMatrix::from_csr(&a).unwrap();
        let f_good = env_good.factorize().unwrap();
        let scramble =
            Permutation::from_new_to_old((0..n).map(|i| (i * 27) % n).collect()).unwrap();
        let mut env_bad = EnvelopeMatrix::from_csr_permuted(&a, &scramble).unwrap();
        let f_bad = env_bad.factorize().unwrap();
        assert!(
            f_bad > 5 * f_good,
            "bad ordering flops {f_bad} vs good {f_good}"
        );
    }

    #[test]
    fn ldlt_solves_spd_system() {
        let n = 30;
        let a = spd_path(n, 0.9);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let b = a.matvec_alloc(&x_true);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize_ldlt().unwrap();
        let x = env.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn ldlt_solves_indefinite_system() {
        // A symmetric indefinite matrix Cholesky rejects but LDLT handles:
        // [[1, 2], [2, 1]] has eigenvalues 3 and -1.
        let a = CsrMatrix::from_entries(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)])
            .unwrap();
        let mut chol = EnvelopeMatrix::from_csr(&a).unwrap();
        assert!(matches!(
            chol.factorize(),
            Err(EnvelopeError::NotPositiveDefinite { .. })
        ));
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize_ldlt().unwrap();
        // Solve A x = [5, 4]: x = (A⁻¹ b); A⁻¹ = 1/(-3)·[[1, -2], [-2, 1]].
        let x = env.solve(&[5.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12, "{}", x[0]);
        assert!((x[1] - 2.0).abs() < 1e-12, "{}", x[1]);
    }

    #[test]
    fn ldlt_matches_cholesky_on_spd() {
        let g = SymmetricPattern::from_edges(
            20,
            &(0..19)
                .map(|i| (i, i + 1))
                .chain((0..16).map(|i| (i, i + 4)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let a = g.spd_matrix(0.7);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut chol = EnvelopeMatrix::from_csr(&a).unwrap();
        chol.factorize().unwrap();
        let mut ldlt = EnvelopeMatrix::from_csr(&a).unwrap();
        ldlt.factorize_ldlt().unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = ldlt.solve(&b).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn inertia_matches_dense_eigenvalue_signs() {
        // An indefinite symmetric matrix: inertia from LDLT must equal the
        // eigenvalue sign counts (Sylvester).
        let a = CsrMatrix::from_entries(
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 3.0),
                (1, 0, 3.0),
                (1, 1, 1.0),
                (2, 2, -2.0),
                (2, 3, 0.5),
                (3, 2, 0.5),
                (3, 3, 4.0),
            ],
        )
        .unwrap();
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        env.factorize_ldlt().unwrap();
        let (neg, pos) = env.inertia().unwrap();
        // Block [[1,3],[3,1]]: eigenvalues 4, −2 (one each).
        // Block [[−2,0.5],[0.5,4]]: det = −8.25 < 0 -> one of each sign.
        assert_eq!((neg, pos), (2, 2));
    }

    #[test]
    fn inertia_requires_ldlt() {
        let a = spd_path(3, 1.0);
        let mut env = EnvelopeMatrix::from_csr(&a).unwrap();
        assert!(env.inertia().is_err());
        env.factorize().unwrap();
        assert!(env.inertia().is_err()); // Cholesky state, not LDLT
        let mut env2 = EnvelopeMatrix::from_csr(&a).unwrap();
        env2.factorize_ldlt().unwrap();
        assert_eq!(env2.inertia().unwrap(), (0, 3));
    }

    #[test]
    fn ldlt_rejects_singular() {
        let g = SymmetricPattern::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let l = g.laplacian(); // singular
        let mut env = EnvelopeMatrix::from_csr(&l).unwrap();
        assert!(env.factorize_ldlt().is_err());
    }

    #[test]
    fn rectangular_matrix_rejected() {
        let a = sparsemat::CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(EnvelopeMatrix::from_csr(&a).is_err());
    }
}
