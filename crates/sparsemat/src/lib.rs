//! Sparse-matrix substrate for the spectral envelope-reduction reproduction.
//!
//! This crate provides everything the ordering algorithms and eigensolvers
//! need to know about sparse symmetric matrices:
//!
//! * [`CooMatrix`] — a coordinate-format builder,
//! * [`CsrMatrix`] — compressed sparse row storage with arithmetic kernels,
//! * [`SymmetricPattern`] — the structure (adjacency) of a symmetric matrix,
//! * [`Permutation`] — symmetric permutations `PᵀAP` and their composition,
//! * [`envelope`] — the envelope/bandwidth/1-sum/2-sum metrics of §2.1 of
//!   Barnard–Pothen–Simon (SC'93),
//! * [`io`] — MatrixMarket and Harwell–Boeing readers/writers,
//! * [`spy`] — ASCII/PGM spy plots (Figures 4.1–4.5 of the paper).
//!
//! All indices are 0-based in memory; the file formats use 1-based indices.
//!
//! ```
//! use sparsemat::{CsrMatrix, Permutation};
//! use sparsemat::envelope::envelope_stats;
//!
//! // The 3x3 chain 0-1-2 as an SPD matrix.
//! let a = CsrMatrix::from_entries(3, &[
//!     (0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0),
//!     (0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0),
//! ]).unwrap();
//! let pattern = a.pattern().unwrap();
//! let stats = envelope_stats(&pattern, &Permutation::identity(3));
//! assert_eq!(stats.envelope_size, 2);
//! assert_eq!(stats.bandwidth, 1);
//! ```

#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod envelope;
pub mod io;
pub mod par;
pub mod pattern;
pub mod perm;
pub mod spy;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use envelope::EnvelopeStats;
pub use pattern::SymmetricPattern;
pub use perm::Permutation;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An index exceeded the matrix dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension it had to stay below.
        bound: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Row count of the offending matrix.
        nrows: usize,
        /// Column count of the offending matrix.
        ncols: usize,
    },
    /// The operation requires a structurally symmetric matrix.
    NotSymmetric,
    /// A permutation vector was not a permutation of `0..n`.
    InvalidPermutation(String),
    /// A file could not be parsed.
    Parse(String),
    /// An I/O error, stringified (so the error type stays `Clone + Eq`).
    Io(String),
    /// Dimension mismatch between operands.
    DimensionMismatch(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (dimension {bound})")
            }
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is not square ({nrows}x{ncols})")
            }
            SparseError::NotSymmetric => write!(f, "matrix is not structurally symmetric"),
            SparseError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "io error: {msg}"),
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;

/// A zeroed pointer array of length `n + 1` (CSR `row_ptr` / `xadj`) for a
/// dimension `n` that may come from an untrusted file header: a size that
/// overflows, or that the allocator refuses, is an error rather than a
/// process abort.
pub(crate) fn zeroed_ptr_array(n: usize) -> Result<Vec<usize>> {
    let too_large = || SparseError::Parse(format!("dimension {n} is too large"));
    let len = n.checked_add(1).ok_or_else(too_large)?;
    let mut ptr = Vec::new();
    ptr.try_reserve_exact(len).map_err(|_| too_large())?;
    ptr.resize(len, 0);
    Ok(ptr)
}
