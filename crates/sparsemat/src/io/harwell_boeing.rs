//! Harwell–Boeing (HB) format reader/writer.
//!
//! The matrices evaluated in the paper (BCSSTK13/29/…, CAN1072, DWT2680, …)
//! were distributed in this fixed-column Fortran format. The reader handles
//! assembled real and pattern matrices (`RSA`, `RUA`, `RZA`, `PSA`, `PUA`,
//! `RRA`) with arbitrary `I`/`E`/`D`/`F`/`G` edit descriptors; elemental and
//! complex matrices are rejected with a clear error. Symmetric/skew files
//! are expanded to full storage.

use crate::{CooMatrix, CsrMatrix, Result, SparseError};
use std::io::Write;
use std::path::Path;

/// A parsed Fortran edit descriptor like `(16I5)` or `(1P3E25.16)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FortranFormat {
    /// Fields per line.
    per_line: usize,
    /// Character width of each field.
    width: usize,
}

impl FortranFormat {
    /// Parses strings like `(16I5)`, `(10I8)`, `(3E26.16)`, `(1P,4D20.12)`,
    /// `(1P3E25.16E3)`, `(8F10.2)`.
    fn parse(s: &str) -> Result<FortranFormat> {
        let t = s.trim().trim_start_matches('(').trim_end_matches(')');
        // Strip scale factor prefix like "1P" or "0P," (possibly followed by
        // a comma).
        let mut rest = t;
        if let Some(pidx) = rest.find(['P', 'p']) {
            let head = &rest[..pidx];
            if !head.is_empty() && head.chars().all(|c| c.is_ascii_digit() || c == '-') {
                rest = rest[pidx + 1..].trim_start_matches(',');
            }
        }
        let rest = rest.trim();
        // rest should now be like "16I5" or "3E26.16" or "3E25.16E3".
        let letter_pos = rest
            .find(['I', 'i', 'E', 'e', 'D', 'd', 'F', 'f', 'G', 'g'])
            .ok_or_else(|| SparseError::Parse(format!("unrecognised Fortran format '{s}'")))?;
        let count_str = &rest[..letter_pos];
        let per_line: usize = if count_str.is_empty() {
            1
        } else {
            count_str
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad repeat in format '{s}': {e}")))?
        };
        let after = &rest[letter_pos + 1..];
        let width_end = after
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(after.len());
        let width: usize = after[..width_end]
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad width in format '{s}': {e}")))?;
        if per_line == 0 || width == 0 {
            return Err(SparseError::Parse(format!("degenerate format '{s}'")));
        }
        Ok(FortranFormat { per_line, width })
    }
}

/// Reads fixed-width fields from `lines`, producing `count` parsed tokens.
/// `max_fields` bounds the preallocation (no input holds more fields than
/// bytes), so a hostile header count cannot force a huge allocation.
fn read_fixed<T: std::str::FromStr>(
    lines: &mut std::str::Lines<'_>,
    fmt: FortranFormat,
    count: usize,
    max_fields: usize,
    what: &str,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(count.min(max_fields));
    while out.len() < count {
        let line = lines
            .next()
            .ok_or_else(|| SparseError::Parse(format!("unexpected EOF reading {what}")))?;
        let bytes = line.as_bytes();
        for k in 0..fmt.per_line {
            if out.len() >= count {
                break;
            }
            let start = k * fmt.width;
            if start >= bytes.len() {
                break;
            }
            let end = ((k + 1) * fmt.width).min(bytes.len());
            let field = std::str::from_utf8(&bytes[start..end])
                .map_err(|_| SparseError::Parse(format!("non-UTF8 data in {what}")))?
                .trim()
                .replace(['D', 'd'], "E");
            if field.is_empty() {
                continue;
            }
            let v: T = field
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad {what} field '{field}'")))?;
            out.push(v);
        }
    }
    Ok(out)
}

/// Reads a Harwell–Boeing file from a path.
pub fn read_harwell_boeing(path: impl AsRef<Path>) -> Result<CsrMatrix> {
    read_harwell_boeing_str(&std::fs::read_to_string(path)?)
}

/// Reads a Harwell–Boeing matrix from an in-memory string.
pub fn read_harwell_boeing_str(s: &str) -> Result<CsrMatrix> {
    let mut lines = s.lines();
    let _title = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty HB file".into()))?;
    let counts_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing HB line 2".into()))?;
    let counts: Vec<i64> = counts_line
        .split_whitespace()
        .map(|t| {
            t.parse::<i64>()
                .map_err(|e| SparseError::Parse(format!("bad HB count '{t}': {e}")))
        })
        .collect::<Result<_>>()?;
    if counts.len() < 4 {
        return Err(SparseError::Parse(
            "HB line 2 must have at least 4 card counts".into(),
        ));
    }
    let rhscrd = if counts.len() >= 5 { counts[4] } else { 0 };

    let type_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing HB line 3".into()))?;
    if type_line.len() < 3 {
        return Err(SparseError::Parse("HB line 3 too short".into()));
    }
    let mxtype: String = type_line.chars().take(3).collect::<String>().to_uppercase();
    let mx = mxtype.as_bytes();
    let value_kind = mx[0]; // R / P / C
    let symmetry = mx[1]; // S / U / H / Z / R
    let assembled = mx[2]; // A / E
    if value_kind == b'C' {
        return Err(SparseError::Parse(
            "complex HB matrices not supported".into(),
        ));
    }
    if assembled != b'A' {
        return Err(SparseError::Parse(
            "elemental (unassembled) HB matrices not supported".into(),
        ));
    }
    let dims: Vec<usize> = type_line
        .get(3..)
        .unwrap_or_default()
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(format!("bad HB dimension '{t}': {e}")))
        })
        .collect::<Result<_>>()?;
    if dims.len() < 3 {
        return Err(SparseError::Parse(
            "HB line 3 needs NROW NCOL NNZERO".into(),
        ));
    }
    let (nrow, ncol, nnzero) = (dims[0], dims[1], dims[2]);

    let fmt_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing HB line 4".into()))?;
    // PTRFMT: cols 1-16, INDFMT: 17-32, VALFMT: 33-52 (fixed columns), but we
    // tolerate whitespace-separated format specs as well.
    let fixed = |range: std::ops::Range<usize>| {
        fmt_line.get(range).map(str::to_string).ok_or_else(|| {
            SparseError::Parse("HB line 4 splits a character at a format column".into())
        })
    };
    let (ptrfmt_s, indfmt_s, valfmt_s) = if fmt_line.len() >= 33 {
        (
            fixed(0..16)?,
            fixed(16..32)?,
            fixed(32..fmt_line.len().min(52))?,
        )
    } else {
        let toks: Vec<&str> = fmt_line.split_whitespace().collect();
        if toks.len() < 2 {
            return Err(SparseError::Parse(
                "HB line 4 needs at least 2 formats".into(),
            ));
        }
        (
            toks[0].to_string(),
            toks[1].to_string(),
            toks.get(2).copied().unwrap_or("(3E26.16)").to_string(),
        )
    };
    let ptrfmt = FortranFormat::parse(&ptrfmt_s)?;
    let indfmt = FortranFormat::parse(&indfmt_s)?;

    if rhscrd > 0 {
        // Skip the RHS descriptor line; we don't read right-hand sides.
        lines
            .next()
            .ok_or_else(|| SparseError::Parse("missing HB line 5".into()))?;
    }

    let ncol_ptrs = ncol
        .checked_add(1)
        .ok_or_else(|| SparseError::Parse(format!("dimension {ncol} is too large")))?;
    let max_fields = s.len();
    let colptr: Vec<usize> =
        read_fixed(&mut lines, ptrfmt, ncol_ptrs, max_fields, "column pointers")?;
    let rowind: Vec<usize> = read_fixed(&mut lines, indfmt, nnzero, max_fields, "row indices")?;
    let values: Vec<f64> = if value_kind == b'P' {
        vec![1.0; nnzero]
    } else {
        let valfmt = FortranFormat::parse(&valfmt_s)?;
        read_fixed(&mut lines, valfmt, nnzero, max_fields, "values")?
    };

    if colptr[0] != 1 || colptr[ncol] != nnzero + 1 {
        return Err(SparseError::Parse(format!(
            "bad HB column pointers: first {}, last {}, expected 1 and {}",
            colptr[0],
            colptr[ncol],
            nnzero + 1
        )));
    }
    // With the ends pinned, non-decreasing pointers stay inside
    // 1..=nnzero+1, so every column's range indexes `rowind` safely.
    if let Some(j) = colptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(SparseError::Parse(format!(
            "HB column pointers decrease at column {}: {} > {}",
            j + 1,
            colptr[j],
            colptr[j + 1]
        )));
    }

    let mut coo = CooMatrix::with_capacity(nrow, ncol, 2 * nnzero);
    for j in 0..ncol {
        for k in (colptr[j] - 1)..(colptr[j + 1] - 1) {
            let i = rowind[k];
            if i == 0 || i > nrow {
                return Err(SparseError::Parse(format!(
                    "HB row index {i} outside 1..{nrow}"
                )));
            }
            let (r, c, v) = (i - 1, j, values[k]);
            coo.push(r, c, v)?;
            match symmetry {
                b'S' | b'H' if r != c => {
                    coo.push(c, r, v)?;
                }
                b'Z' if r != c => {
                    coo.push(c, r, -v)?;
                }
                _ => {}
            }
        }
    }
    coo.try_to_csr()
}

/// Writes `a` as an assembled Harwell–Boeing file (`RSA` when numerically
/// symmetric — storing the lower triangle — else `RUA`).
pub fn write_harwell_boeing(path: impl AsRef<Path>, a: &CsrMatrix, key: &str) -> Result<()> {
    let s = write_harwell_boeing_string(a, key);
    std::fs::File::create(path)?.write_all(s.as_bytes())?;
    Ok(())
}

/// Renders `a` as a Harwell–Boeing string (see [`write_harwell_boeing`]).
pub fn write_harwell_boeing_string(a: &CsrMatrix, key: &str) -> String {
    let symmetric = a.is_symmetric(1e-14);
    // Column-oriented storage: the CSC of A is the CSR of Aᵀ; for symmetric
    // matrices we store the lower triangle of each column, which is the
    // upper-triangle rows of Aᵀ = A — i.e. entries (r, c) with r >= c.
    let t = a.transpose();
    let keep = |col: usize, row: usize| !symmetric || row >= col;
    let mut colptr: Vec<usize> = Vec::with_capacity(a.ncols() + 1);
    let mut rowind: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    colptr.push(1);
    for c in 0..t.nrows() {
        for (&r, &v) in t.row_cols(c).iter().zip(t.row_vals(c)) {
            if keep(c, r) {
                rowind.push(r + 1);
                vals.push(v);
            }
        }
        colptr.push(rowind.len() + 1);
    }
    let nnzero = rowind.len();

    let int_width = |maxv: usize| (maxv.max(1) as f64).log10().floor() as usize + 2;
    let pw = int_width(nnzero + 1);
    let iw = int_width(a.nrows());
    let ptr_per = (80 / pw).max(1);
    let ind_per = (80 / iw).max(1);
    let val_per = 3usize;
    let vw = 26usize;

    let fmt_ints = |data: &[usize], per: usize, w: usize| -> String {
        let mut s = String::new();
        for chunk in data.chunks(per) {
            for &v in chunk {
                s.push_str(&format!("{v:>w$}"));
            }
            s.push('\n');
        }
        s
    };
    let mut val_lines = String::new();
    for chunk in vals.chunks(val_per) {
        for &v in chunk {
            val_lines.push_str(&format!("{v:>vw$.16E}"));
        }
        val_lines.push('\n');
    }

    let ptr_lines = fmt_ints(&colptr, ptr_per, pw);
    let ind_lines = fmt_ints(&rowind, ind_per, iw);
    let ptrcrd = ptr_lines.lines().count();
    let indcrd = ind_lines.lines().count();
    let valcrd = val_lines.lines().count();
    let totcrd = ptrcrd + indcrd + valcrd;
    let mxtype = if symmetric { "RSA" } else { "RUA" };

    let mut out = String::new();
    out.push_str(&format!(
        "{:<72}{:<8}\n",
        "Written by sparsemat (spectral envelope reproduction)", key
    ));
    out.push_str(&format!(
        "{totcrd:>14}{ptrcrd:>14}{indcrd:>14}{valcrd:>14}{:>14}\n",
        0
    ));
    out.push_str(&format!(
        "{mxtype:<3}{:>11}{:>14}{:>14}{:>14}{:>14}\n",
        "",
        a.nrows(),
        a.ncols(),
        nnzero,
        0
    ));
    out.push_str(&format!(
        "{:<16}{:<16}{:<20}{:<20}\n",
        format!("({ptr_per}I{pw})"),
        format!("({ind_per}I{iw})"),
        format!("(1P{val_per}E{vw}.16)"),
        ""
    ));
    out.push_str(&ptr_lines);
    out.push_str(&ind_lines);
    out.push_str(&val_lines);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fortran_format_parsing() {
        assert_eq!(
            FortranFormat::parse("(16I5)").unwrap(),
            FortranFormat {
                per_line: 16,
                width: 5
            }
        );
        assert_eq!(
            FortranFormat::parse("(3E26.16)").unwrap(),
            FortranFormat {
                per_line: 3,
                width: 26
            }
        );
        assert_eq!(
            FortranFormat::parse("(1P3E25.16E3)").unwrap(),
            FortranFormat {
                per_line: 3,
                width: 25
            }
        );
        assert_eq!(
            FortranFormat::parse(" (1P,4D20.12) ").unwrap(),
            FortranFormat {
                per_line: 4,
                width: 20
            }
        );
        assert_eq!(
            FortranFormat::parse("(I8)").unwrap(),
            FortranFormat {
                per_line: 1,
                width: 8
            }
        );
        assert!(FortranFormat::parse("(XYZ)").is_err());
    }

    /// A tiny hand-written RSA file: the 3x3 tridiagonal [2 -1; -1 2 -1; -1 2].
    fn tiny_rsa() -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<72}{:<8}\n", "tiny symmetric test", "TINY"));
        s.push_str(&format!("{:>14}{:>14}{:>14}{:>14}{:>14}\n", 4, 1, 1, 2, 0));
        s.push_str(&format!(
            "{:<3}{:>11}{:>14}{:>14}{:>14}{:>14}\n",
            "RSA", "", 3, 3, 5, 0
        ));
        s.push_str(&format!(
            "{:<16}{:<16}{:<20}{:<20}\n",
            "(16I5)", "(16I5)", "(3E26.16)", ""
        ));
        // colptr: 1 3 5 6
        s.push_str("    1    3    5    6\n");
        // rowind: col0 -> rows 1,2; col1 -> rows 2,3; col2 -> row 3
        s.push_str("    1    2    2    3    3\n");
        // values: 2 -1 2 -1 2
        s.push_str(&format!(
            "{:>26.16E}{:>26.16E}{:>26.16E}\n{:>26.16E}{:>26.16E}\n",
            2.0, -1.0, 2.0, -1.0, 2.0
        ));
        s
    }

    #[test]
    fn parse_tiny_rsa() {
        let a = read_harwell_boeing_str(&tiny_rsa()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 7); // expanded
        assert_eq!(a.get(0, 0), Some(2.0));
        assert_eq!(a.get(0, 1), Some(-1.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert_eq!(a.get(2, 1), Some(-1.0));
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn parse_pattern_psa() {
        let mut s = String::new();
        s.push_str(&format!("{:<72}{:<8}\n", "pattern test", "PAT"));
        s.push_str(&format!("{:>14}{:>14}{:>14}{:>14}\n", 2, 1, 1, 0));
        s.push_str(&format!(
            "{:<3}{:>11}{:>14}{:>14}{:>14}{:>14}\n",
            "PSA", "", 2, 2, 3, 0
        ));
        s.push_str(&format!(
            "{:<16}{:<16}{:<20}{:<20}\n",
            "(16I5)", "(16I5)", "", ""
        ));
        s.push_str("    1    3    4\n");
        s.push_str("    1    2    2\n");
        let a = read_harwell_boeing_str(&s).unwrap();
        assert_eq!(a.get(0, 0), Some(1.0));
        assert_eq!(a.get(1, 0), Some(1.0));
        assert_eq!(a.get(0, 1), Some(1.0));
        assert_eq!(a.get(1, 1), Some(1.0));
    }

    #[test]
    fn reject_complex_and_elemental() {
        let mut s = tiny_rsa();
        s = s.replacen("RSA", "CSA", 1);
        assert!(read_harwell_boeing_str(&s).is_err());
        let mut s2 = tiny_rsa();
        s2 = s2.replacen("RSA", "RSE", 1);
        assert!(read_harwell_boeing_str(&s2).is_err());
    }

    #[test]
    fn d_exponents_are_parsed() {
        let mut s = tiny_rsa();
        s = s.replace('E', "D");
        // The header keyword lines don't contain E's that matter; values do.
        let a = read_harwell_boeing_str(&s).unwrap();
        assert_eq!(a.get(0, 0), Some(2.0));
    }

    #[test]
    fn roundtrip_symmetric() {
        let a = CsrMatrix::from_entries(
            4,
            &[
                (0, 0, 4.0),
                (1, 1, 4.0),
                (2, 2, 4.0),
                (3, 3, 4.0),
                (1, 0, -1.25),
                (0, 1, -1.25),
                (3, 1, 0.5),
                (1, 3, 0.5),
            ],
        )
        .unwrap();
        let s = write_harwell_boeing_string(&a, "RT1");
        let b = read_harwell_boeing_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_unsymmetric() {
        let a = CsrMatrix::from_entries(3, &[(0, 2, 1.5), (1, 0, 2.0), (2, 2, -3.0)]).unwrap();
        let s = write_harwell_boeing_string(&a, "RT2");
        assert!(s.contains("RUA"));
        let b = read_harwell_boeing_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let a = CsrMatrix::identity(3);
        let dir = std::env::temp_dir().join("sparsemat_hb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id3.rsa");
        write_harwell_boeing(&path, &a, "ID3").unwrap();
        let b = read_harwell_boeing(&path).unwrap();
        assert_eq!(a, b);
    }
}
