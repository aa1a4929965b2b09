//! Sparse-matrix file I/O.
//!
//! Three formats are supported so that the *original* paper matrices
//! (Boeing–Harwell BCSSTK*, NASA meshes) can be dropped into the benchmark
//! harness when available:
//!
//! * [`matrix_market`] — the NIST MatrixMarket coordinate format,
//! * [`harwell_boeing`] — the Harwell–Boeing (RSA/PSA/RUA) fixed-column
//!   Fortran format used by the original collection,
//! * [`chaco`] — the Chaco/METIS graph format (structure only).
//!
//! Orderings need only the structure, so each format has a pattern reader
//! that yields the [`SymmetricPattern`](crate::SymmetricPattern) of
//! `A + Aᵀ` without its diagonal, all through the one builder
//! [`SymmetricPattern::from_edges`](crate::SymmetricPattern::from_edges):
//!
//! * [`read_matrix_market_pattern`] parses entries straight into edges,
//!   with no values kept and no intermediate matrix;
//! * [`read_chaco`] reads adjacency lists, which are a pattern already;
//! * Harwell–Boeing files are read as a [`CsrMatrix`](crate::CsrMatrix)
//!   and reduced with
//!   [`CsrMatrix::symmetrized_pattern`](crate::CsrMatrix::symmetrized_pattern).
//!
//! Every reader parses from a `&str` (the path variants read the file
//! first) and bounds what it preallocates by the input's length, so a
//! header that declares absurd sizes yields an error, not an abort.

pub mod chaco;
pub mod harwell_boeing;
pub mod matrix_market;

pub use chaco::{read_chaco, read_chaco_str, write_chaco, write_chaco_string};
pub use harwell_boeing::{read_harwell_boeing, read_harwell_boeing_str};
pub use matrix_market::{
    read_matrix_market, read_matrix_market_pattern, read_matrix_market_pattern_str,
    read_matrix_market_str, write_matrix_market, write_matrix_market_string,
};
