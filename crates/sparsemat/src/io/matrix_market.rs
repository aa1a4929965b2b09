//! MatrixMarket coordinate-format reader/writer.
//!
//! Supports `matrix coordinate {real|integer|pattern} {general|symmetric|
//! skew-symmetric}`. Pattern entries get value 1.0; symmetric files are
//! expanded to full storage on read (the representation used everywhere in
//! this workspace).
//!
//! One line scanner validates a file and feeds either of two sinks: the
//! [`CsrMatrix`] reader ([`read_matrix_market`]) and the structure-only
//! [`SymmetricPattern`] reader ([`read_matrix_market_pattern`]), which
//! skips the values, the intermediate COO and the symmetrize round trip.

use crate::{CooMatrix, CsrMatrix, Result, SparseError, SymmetricPattern};
use std::io::Write;
use std::path::Path;
use std::str::{Lines, SplitWhitespace};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a MatrixMarket file from a path.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CsrMatrix> {
    read_matrix_market_str(&std::fs::read_to_string(path)?)
}

/// Reads a MatrixMarket matrix from an in-memory string.
pub fn read_matrix_market_str(s: &str) -> Result<CsrMatrix> {
    let scan = Scanner::new(s)?;
    let (symmetry, nrows, ncols) = (scan.symmetry, scan.nrows, scan.ncols);
    let mirrored = usize::from(symmetry != Symmetry::General) + 1;
    let mut coo = CooMatrix::with_capacity(nrows, ncols, mirrored * scan.capacity());
    scan.for_each_entry(|r, c, v| {
        coo.push(r, c, v)?;
        if r != c {
            match symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => coo.push(c, r, v)?,
                Symmetry::SkewSymmetric => coo.push(c, r, -v)?,
            }
        }
        Ok(())
    })?;
    coo.try_to_csr()
}

/// Reads the structure of a MatrixMarket file from a path (see
/// [`read_matrix_market_pattern_str`]).
pub fn read_matrix_market_pattern(path: impl AsRef<Path>) -> Result<SymmetricPattern> {
    read_matrix_market_pattern_str(&std::fs::read_to_string(path)?)
}

/// Reads the structure of a MatrixMarket matrix straight into a
/// [`SymmetricPattern`]: the pattern of `A + Aᵀ` without its diagonal.
///
/// Equal, pattern and error alike, to
/// `read_matrix_market_str(s)?.symmetrize()?.pattern()`, with one
/// exception: a non-square file whose row count is too large for a row
/// pointer array (`nrows + 1` overflows or cannot be allocated) is
/// [`SparseError::NotSquare`] here, where the CSR route fails first with
/// "dimension … is too large". Values are still checked to parse, but
/// never stored.
pub fn read_matrix_market_pattern_str(s: &str) -> Result<SymmetricPattern> {
    let scan = Scanner::new(s)?;
    let (nrows, ncols) = (scan.nrows, scan.ncols);
    let mut edges = Vec::with_capacity(scan.capacity());
    scan.for_each_entry(|r, c, _| {
        edges.push((r, c));
        Ok(())
    })?;
    if nrows != ncols {
        return Err(SparseError::NotSquare { nrows, ncols });
    }
    SymmetricPattern::from_edges(nrows, &edges)
}

/// The validated header and size line of a MatrixMarket file, positioned
/// at the line after the size line.
struct Scanner<'a> {
    field: Field,
    symmetry: Symmetry,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Length of the whole input: no file holds more entries than bytes.
    len: usize,
    lines: Lines<'a>,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Result<Scanner<'a>> {
        let mut lines = s.lines();
        let header = lines
            .next()
            .ok_or_else(|| SparseError::Parse("empty file".into()))?;
        let header_lc = header.to_ascii_lowercase();
        let tokens: Vec<&str> = header_lc.split_whitespace().collect();
        if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") {
            return Err(SparseError::Parse(format!(
                "not a MatrixMarket header: {header}"
            )));
        }
        if tokens[1] != "matrix" || tokens[2] != "coordinate" {
            return Err(SparseError::Parse(format!(
                "only 'matrix coordinate' supported, got '{} {}'",
                tokens[1], tokens[2]
            )));
        }
        let field = match tokens[3] {
            "real" => Field::Real,
            "integer" => Field::Integer,
            "pattern" => Field::Pattern,
            other => {
                return Err(SparseError::Parse(format!(
                    "unsupported field type '{other}' (complex not supported)"
                )))
            }
        };
        let symmetry = match tokens[4] {
            "general" => Symmetry::General,
            "symmetric" => Symmetry::Symmetric,
            "skew-symmetric" => Symmetry::SkewSymmetric,
            other => {
                return Err(SparseError::Parse(format!(
                    "unsupported symmetry '{other}' (hermitian not supported)"
                )))
            }
        };

        // Skip comments, find size line.
        let dims: Vec<usize> = lines
            .by_ref()
            .find_map(content_tokens)
            .ok_or_else(|| SparseError::Parse("missing size line".into()))?
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|e| SparseError::Parse(format!("bad size token '{t}': {e}")))
            })
            .collect::<Result<_>>()?;
        if dims.len() != 3 {
            return Err(SparseError::Parse(format!(
                "size line must have 3 fields, got {}",
                dims.len()
            )));
        }
        Ok(Scanner {
            field,
            symmetry,
            nrows: dims[0],
            ncols: dims[1],
            nnz: dims[2],
            len: s.len(),
            lines,
        })
    }

    /// Entry capacity to reserve: the declared count, but never more than
    /// the input could hold, so a hostile header cannot force a huge
    /// allocation.
    fn capacity(&self) -> usize {
        self.nnz.min(self.len)
    }

    /// Validates every entry line and hands each stored entry to `sink` as
    /// 0-based `(row, col, value)`, in file order. For (skew-)symmetric
    /// files the mirrored position is bounds-checked here too, so a sink
    /// may mirror without failing.
    fn for_each_entry(self, mut sink: impl FnMut(usize, usize, f64) -> Result<()>) -> Result<()> {
        let (nrows, ncols, nnz) = (self.nrows, self.ncols, self.nnz);
        let mut seen = 0usize;
        for mut it in self.lines.filter_map(content_tokens) {
            let r: usize = it
                .next()
                .ok_or_else(|| SparseError::Parse("missing row index".into()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad row index: {e}")))?;
            let c: usize = it
                .next()
                .ok_or_else(|| SparseError::Parse("missing column index".into()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad column index: {e}")))?;
            if r == 0 || c == 0 || r > nrows || c > ncols {
                return Err(SparseError::Parse(format!(
                    "entry ({r},{c}) outside 1..{nrows} x 1..{ncols}"
                )));
            }
            let v = match self.field {
                Field::Pattern => 1.0,
                Field::Real | Field::Integer => it
                    .next()
                    .ok_or_else(|| SparseError::Parse("missing value".into()))?
                    .parse::<f64>()
                    .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?,
            };
            let (r0, c0) = (r - 1, c - 1);
            if self.symmetry != Symmetry::General && r0 != c0 {
                // The mirror of an in-range entry leaves a non-square matrix.
                if c0 >= nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c0,
                        bound: nrows,
                    });
                }
                if r0 >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: r0,
                        bound: ncols,
                    });
                }
            }
            sink(r0, c0, v)?;
            seen += 1;
        }
        if seen != nnz {
            return Err(SparseError::Parse(format!(
                "header declares {nnz} entries, file has {seen}"
            )));
        }
        Ok(())
    }
}

/// The tokens of `line`, or `None` for a blank or `%` comment line.
fn content_tokens(line: &str) -> Option<SplitWhitespace<'_>> {
    let line = line.trim_start();
    (!line.is_empty() && !line.starts_with('%')).then(|| line.split_whitespace())
}

/// Writes `a` in MatrixMarket coordinate format. If `a` is numerically
/// symmetric, only the lower triangle is written with `symmetric` tagging.
pub fn write_matrix_market(path: impl AsRef<Path>, a: &CsrMatrix) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    let s = write_matrix_market_string(a);
    file.write_all(s.as_bytes())?;
    Ok(())
}

/// Renders `a` as a MatrixMarket string (see [`write_matrix_market`]).
pub fn write_matrix_market_string(a: &CsrMatrix) -> String {
    let symmetric = a.is_symmetric(1e-14);
    let mut out = String::new();
    if symmetric {
        out.push_str("%%MatrixMarket matrix coordinate real symmetric\n");
        let nnz = a.iter().filter(|&(r, c, _)| r >= c).count();
        out.push_str(&format!("{} {} {}\n", a.nrows(), a.ncols(), nnz));
        for (r, c, v) in a.iter() {
            if r >= c {
                out.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v));
            }
        }
    } else {
        out.push_str("%%MatrixMarket matrix coordinate real general\n");
        out.push_str(&format!("{} {} {}\n", a.nrows(), a.ncols(), a.nnz()));
        for (r, c, v) in a.iter() {
            out.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let s = "%%MatrixMarket matrix coordinate real general\n\
                 % a comment\n\
                 2 3 3\n\
                 1 1 1.5\n\
                 2 3 -2.0\n\
                 1 2 4\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.get(0, 0), Some(1.5));
        assert_eq!(a.get(1, 2), Some(-2.0));
        assert_eq!(a.get(0, 1), Some(4.0));
    }

    #[test]
    fn parse_symmetric_expands() {
        let s = "%%MatrixMarket matrix coordinate real symmetric\n\
                 3 3 3\n\
                 1 1 2.0\n\
                 2 1 -1.0\n\
                 3 3 2.0\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(0, 1), Some(-1.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.nnz(), 4);
    }

    #[test]
    fn parse_pattern() {
        let s = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                 2 2 2\n\
                 1 1\n\
                 2 1\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(1, 0), Some(1.0));
        assert_eq!(a.get(0, 1), Some(1.0));
    }

    #[test]
    fn parse_skew_symmetric() {
        let s = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                 2 2 1\n\
                 2 1 3.0\n";
        let a = read_matrix_market_str(s).unwrap();
        assert_eq!(a.get(1, 0), Some(3.0));
        assert_eq!(a.get(0, 1), Some(-3.0));
    }

    #[test]
    fn reject_bad_header() {
        assert!(read_matrix_market_str("garbage\n1 1 0\n").is_err());
    }

    #[test]
    fn reject_complex() {
        let s = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn reject_wrong_count() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn reject_out_of_range_entry() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market_str(s).is_err());
    }

    #[test]
    fn roundtrip_symmetric() {
        let a = CsrMatrix::from_entries(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let s = write_matrix_market_string(&a);
        assert!(s.contains("symmetric"));
        let b = read_matrix_market_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_general() {
        let a = CsrMatrix::from_entries(2, &[(0, 1, 3.25), (1, 1, -0.5)]).unwrap();
        let s = write_matrix_market_string(&a);
        assert!(s.contains("general"));
        let b = read_matrix_market_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let a = CsrMatrix::identity(4);
        let dir = std::env::temp_dir().join("sparsemat_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id4.mtx");
        write_matrix_market(&path, &a).unwrap();
        let b = read_matrix_market(&path).unwrap();
        assert_eq!(a, b);
    }
}
