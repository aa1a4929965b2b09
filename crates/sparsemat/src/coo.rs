//! Coordinate-format (triplet) sparse matrix builder.

use crate::{CsrMatrix, Result, SparseError};

/// A sparse matrix in coordinate (triplet) format.
///
/// `CooMatrix` is the mutable builder: push entries in any order (duplicates
/// are summed on conversion) and then convert to [`CsrMatrix`] for
/// computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
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

    /// Number of stored entries (before duplicate summing).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Stored triplets, in insertion order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Adds `value` at `(row, col)`. Duplicates are summed on conversion.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows {
            return Err(SparseError::IndexOutOfBounds {
                index: row,
                bound: self.nrows,
            });
        }
        if col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: col,
                bound: self.ncols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Adds `value` at `(row, col)` and, if off-diagonal, also at `(col, row)`.
    ///
    /// This is the natural way to assemble a symmetric matrix from its lower
    /// (or upper) triangle, as stored by the Harwell–Boeing and MatrixMarket
    /// symmetric formats.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Converts to CSR, summing duplicate entries and sorting each row by
    /// column index. Entries that sum to exactly zero are *kept* (structural
    /// nonzeros matter for envelope analysis).
    ///
    /// # Panics
    ///
    /// If the row pointer array (`nrows + 1` entries) cannot be allocated;
    /// the file readers use the fallible form instead.
    pub fn to_csr(&self) -> CsrMatrix {
        self.try_to_csr().expect("COO row count fits in memory")
    }

    /// [`CooMatrix::to_csr`] for a row count read from an untrusted file
    /// header: an unallocatable row pointer array is an error.
    pub(crate) fn try_to_csr(&self) -> Result<CsrMatrix> {
        // Counting sort by row, then sort each row slice by column.
        let mut row_counts = crate::zeroed_ptr_array(self.nrows)?;
        for &(r, _, _) in &self.entries {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut col_idx = vec![0usize; self.entries.len()];
        let mut values = vec![0f64; self.entries.len()];
        let mut next = crate::zeroed_ptr_array(self.nrows)?;
        next.copy_from_slice(&row_counts);
        for &(r, c, v) in &self.entries {
            let slot = next[r];
            col_idx[slot] = c;
            values[slot] = v;
            next[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_ptr = crate::zeroed_ptr_array(self.nrows)?;
        let mut out_cols: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for k in row_counts[r]..row_counts[r + 1] {
                scratch.push((col_idx[k], values[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_cols.len();
        }
        Ok(
            CsrMatrix::from_raw_parts(self.nrows, self.ncols, out_ptr, out_cols, out_vals)
                .expect("COO conversion produced valid CSR"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn push_out_of_bounds_row() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { index: 2, bound: 2 })
        ));
    }

    #[test]
    fn push_out_of_bounds_col() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(
            coo.push(0, 5, 1.0),
            Err(SparseError::IndexOutOfBounds { index: 5, bound: 2 })
        ));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(3.5));
        assert_eq!(csr.get(1, 1), Some(-1.0));
        assert_eq!(csr.get(1, 0), None);
    }

    #[test]
    fn rows_sorted_by_column() {
        let mut coo = CooMatrix::new(1, 5);
        coo.push(0, 4, 4.0).unwrap();
        coo.push(0, 0, 0.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row_cols(0), &[0, 2, 4]);
    }

    #[test]
    fn push_sym_mirrors_off_diagonals() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(2, 0, 7.0).unwrap();
        coo.push_sym(1, 1, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(2, 0), Some(7.0));
        assert_eq!(csr.get(0, 2), Some(7.0));
        assert_eq!(csr.get(1, 1), Some(5.0));
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn structural_zero_is_kept() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), Some(0.0));
    }
}
