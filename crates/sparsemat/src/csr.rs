//! Compressed sparse row matrices and the arithmetic kernels the paper's
//! spectral method is built from (matvec, dot products, axpy).

use crate::{CooMatrix, Permutation, Result, SparseError, SymmetricPattern};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Invariants (enforced by every constructor):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, nondecreasing,
/// * `col_idx.len() == values.len() == row_ptr[nrows]`,
/// * within each row, column indices are strictly increasing (sorted, no
///   duplicates) and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::Parse(format!(
                "row_ptr length {} != nrows+1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::Parse("row_ptr[0] != 0".into()));
        }
        if col_idx.len() != values.len() || col_idx.len() != row_ptr[nrows] {
            return Err(SparseError::Parse(format!(
                "col_idx/values length mismatch: {} cols, {} vals, row_ptr end {}",
                col_idx.len(),
                values.len(),
                row_ptr[nrows]
            )));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::Parse(format!("row_ptr decreases at row {r}")));
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Parse(format!(
                        "row {r} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: last,
                        bound: ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a square CSR matrix from an edge/entry list (convenience).
    pub fn from_entries(n: usize, entries: &[(usize, usize, f64)]) -> Result<Self> {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in entries {
            coo.push(r, c, v)?;
        }
        Ok(coo.to_csr())
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (structure stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`.
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Looks up entry `(r, c)`; `None` if structurally zero.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let cols = self.row_cols(r);
        cols.binary_search(&c)
            .ok()
            .map(|k| self.values[self.row_ptr[r] + k])
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r))
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut cnt = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            cnt[c + 1] += 1;
        }
        for i in 0..self.ncols {
            cnt[i + 1] += cnt[i];
        }
        let mut next = cnt.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = self.values[k];
                next[c] += 1;
            }
        }
        // Rows of the transpose are produced in increasing original-row
        // order, hence already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: cnt,
            col_idx,
            values,
        }
    }

    /// Whether the matrix is structurally symmetric (pattern only).
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// Whether the matrix is numerically symmetric to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if self.row_ptr != t.row_ptr || self.col_idx != t.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// Returns `A + Aᵀ` structurally: values are `(a_ij + a_ji) / 2` where
    /// both exist, else the single stored value. Used to symmetrize matrices
    /// read from general-format files before envelope analysis.
    pub fn symmetrize(&self) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let t = self.transpose();
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, 2 * self.nnz());
        for (r, c, v) in self.iter() {
            let mirrored = t.get(r, c);
            let val = match mirrored {
                Some(w) => (v + w) / 2.0,
                None => v,
            };
            coo.push(r, c, val)?;
            if mirrored.is_none() {
                coo.push(c, r, val)?;
            }
        }
        Ok(coo.to_csr())
    }

    /// Dense `y = A x` (sequential).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// Dense `y = A x` on a [`crate::par::TaskPool`], the kernel behind the
    /// eigensolver's hot loops.
    ///
    /// Rows are split into fixed-width chunks (independent of thread count)
    /// and distributed by work-stealing; each chunk owns a disjoint slice of
    /// `y`, and every `y[r]` is accumulated serially over row `r`'s entries,
    /// so the result is bit-identical to [`CsrMatrix::matvec`] at every
    /// thread count. On a serial pool this *is* the sequential kernel.
    pub fn matvec_pooled(
        &self,
        x: &[f64],
        y: &mut [f64],
        pool: &crate::par::TaskPool,
        chunk: usize,
    ) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        pool.for_each_chunk_mut(y, chunk.max(1), |r0, yb| {
            for (i, yr) in yb.iter_mut().enumerate() {
                let r = r0 + i;
                let mut acc = 0.0;
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                *yr = acc;
            }
        });
    }

    /// Allocating matvec convenience.
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec(x, &mut y);
        y
    }

    /// Symmetric permutation `PᵀAP`: entry `(i, j)` of the result equals
    /// `A[perm.new_to_old(i)][perm.new_to_old(j)]`.
    pub fn permute_symmetric(&self, perm: &Permutation) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if perm.len() != self.nrows {
            return Err(SparseError::DimensionMismatch(format!(
                "permutation length {} != matrix order {}",
                perm.len(),
                self.nrows
            )));
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(perm.old_to_new(r), perm.old_to_new(c), v)?;
        }
        Ok(coo.to_csr())
    }

    /// The symmetric sparsity pattern (adjacency structure) of this matrix.
    ///
    /// Fails with [`SparseError::NotSymmetric`] if the pattern is not
    /// symmetric; use [`CsrMatrix::symmetrize`] first for general matrices.
    pub fn pattern(&self) -> Result<SymmetricPattern> {
        SymmetricPattern::from_csr(self)
    }

    /// The structure of `A + Aᵀ` without its diagonal: equal to
    /// `self.symmetrize()?.pattern()`, without forming the symmetrized
    /// matrix.
    pub fn symmetrized_pattern(&self) -> Result<SymmetricPattern> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let edges: Vec<(usize, usize)> = self.iter().map(|(r, c, _)| (r, c)).collect();
        SymmetricPattern::from_edges(self.nrows, &edges)
    }

    /// Extracts the strict lower triangle (row > col).
    pub fn lower_triangle(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz() / 2 + 1);
        for (r, c, v) in self.iter() {
            if r > c {
                coo.push(r, c, v).expect("in-bounds");
            }
        }
        coo.to_csr()
    }

    /// Returns `A + shift * I` (square matrices only).
    pub fn shift_diagonal(&self, shift: f64) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz() + self.nrows);
        for (r, c, v) in self.iter() {
            coo.push(r, c, v)?;
        }
        for i in 0..self.nrows {
            coo.push(i, i, shift)?;
        }
        Ok(coo.to_csr())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Converts to a dense row-major `Vec<Vec<f64>>` (testing/small matrices).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, c, v) in self.iter() {
            dense[r][c] = v;
        }
        dense
    }
}

/// Dot product of two vectors.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a vector in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_entries(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn raw_parts_validation_rejects_bad_row_ptr() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn raw_parts_validation_rejects_unsorted_row() {
        let err = CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn raw_parts_validation_rejects_col_out_of_bounds() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec_alloc(&x), x);
    }

    #[test]
    fn matvec_tridiagonal() {
        let a = example();
        let y = a.matvec_alloc(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn matvec_pooled_bit_identical_to_serial() {
        // A banded matrix large enough that the pooled kernel goes parallel.
        let n = 9000;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.5 + (i % 7) as f64));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0 - (i % 3) as f64 * 0.25));
                entries.push((i + 1, i, -1.0 - (i % 3) as f64 * 0.25));
            }
        }
        let a = CsrMatrix::from_entries(n, &entries).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let mut y_ref = vec![0.0; n];
        a.matvec(&x, &mut y_ref);
        for threads in [1, 2, 4, 8] {
            let pool = crate::par::TaskPool::new(threads);
            let mut y = vec![0.0; n];
            a.matvec_pooled(&x, &mut y, &pool, 512);
            let same = y
                .iter()
                .zip(&y_ref)
                .all(|(p, q)| p.to_bits() == q.to_bits());
            assert!(same, "pooled matvec differs at {threads} threads");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = example();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_rectangular() {
        let a = CsrMatrix::from_raw_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
            .unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(0, 0), Some(1.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(1, 1), Some(3.0));
    }

    #[test]
    fn symmetry_checks() {
        let a = example();
        assert!(a.is_structurally_symmetric());
        assert!(a.is_symmetric(0.0));
        let b = CsrMatrix::from_entries(2, &[(0, 1, 1.0)]).unwrap();
        assert!(!b.is_structurally_symmetric());
    }

    #[test]
    fn symmetrize_general() {
        let b = CsrMatrix::from_entries(2, &[(0, 1, 4.0), (1, 1, 1.0)]).unwrap();
        let s = b.symmetrize().unwrap();
        assert!(s.is_structurally_symmetric());
        assert_eq!(s.get(0, 1), Some(4.0));
        assert_eq!(s.get(1, 0), Some(4.0));
    }

    #[test]
    fn symmetrize_averages_both_triangles() {
        let b = CsrMatrix::from_entries(2, &[(0, 1, 4.0), (1, 0, 2.0)]).unwrap();
        let s = b.symmetrize().unwrap();
        assert_eq!(s.get(0, 1), Some(3.0));
        assert_eq!(s.get(1, 0), Some(3.0));
    }

    #[test]
    fn permute_symmetric_reversal() {
        let a = example();
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = a.permute_symmetric(&p).unwrap();
        // Reversing a symmetric tridiagonal matrix keeps it tridiagonal.
        assert_eq!(b.get(0, 0), Some(2.0));
        assert_eq!(b.get(0, 1), Some(-1.0));
        assert_eq!(b.get(0, 2), None);
        assert!(b.is_symmetric(0.0));
    }

    #[test]
    fn lower_triangle_strict() {
        let a = example();
        let l = a.lower_triangle();
        assert_eq!(l.nnz(), 2);
        assert_eq!(l.get(1, 0), Some(-1.0));
        assert_eq!(l.get(2, 1), Some(-1.0));
        assert_eq!(l.get(0, 0), None);
    }

    #[test]
    fn shift_diagonal_adds() {
        let a = example();
        let b = a.shift_diagonal(1.5).unwrap();
        assert_eq!(b.get(0, 0), Some(3.5));
        assert_eq!(b.get(0, 1), Some(-1.0));
    }

    #[test]
    fn vector_kernels() {
        let a = [1.0, 2.0, 3.0];
        let mut b = vec![1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &b), 6.0);
        axpy(2.0, &a, &mut b);
        assert_eq!(b, vec![3.0, 5.0, 7.0]);
        scale(0.5, &mut b);
        assert_eq!(b, vec![1.5, 2.5, 3.5]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn to_dense_roundtrip() {
        let a = example();
        let d = a.to_dense();
        assert_eq!(d[0], vec![2.0, -1.0, 0.0]);
        assert_eq!(d[1], vec![-1.0, 2.0, -1.0]);
    }
}
