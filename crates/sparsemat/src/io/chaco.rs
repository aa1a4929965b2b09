//! Chaco / METIS graph format reader/writer.
//!
//! The format of the mesh-partitioning world this paper's eigensolver came
//! from (Barnard–Simon's multilevel recursive spectral bisection shipped in
//! Chaco-adjacent tooling). Line 1: `n m [fmt]`; then one line per vertex
//! listing its (1-based) neighbors. `fmt` is `1`/`10`/`11` when edge and/or
//! vertex weights are present; weights are parsed and skipped (only the
//! structure matters for envelope reduction).

use crate::{Result, SparseError, SymmetricPattern};
use std::io::Write;
use std::path::Path;

/// Reads a Chaco/METIS graph file from a path.
pub fn read_chaco(path: impl AsRef<Path>) -> Result<SymmetricPattern> {
    read_chaco_str(&std::fs::read_to_string(path)?)
}

/// Reads a Chaco/METIS graph from an in-memory string.
pub fn read_chaco_str(s: &str) -> Result<SymmetricPattern> {
    let mut lines = s.lines();
    // Header, skipping % comments.
    let header = lines
        .by_ref()
        .map(str::trim)
        .find(|t| !t.is_empty() && !t.starts_with('%'))
        .ok_or_else(|| SparseError::Parse("empty chaco file".into()))?;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 2 {
        return Err(SparseError::Parse(
            "chaco header needs at least 'n m'".into(),
        ));
    }
    let n: usize = head[0]
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad vertex count: {e}")))?;
    let m: usize = head[1]
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad edge count: {e}")))?;
    let fmt = head.get(2).copied().unwrap_or("0");
    let has_vweights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_eweights = fmt.ends_with('1');
    // Optional 4th header token: number of vertex weights per vertex.
    let ncon: usize = if has_vweights {
        head.get(3).and_then(|t| t.parse().ok()).unwrap_or(1)
    } else {
        0
    };

    // At most one neighbor per input byte, whatever the header claims.
    let mut edges = Vec::with_capacity(m.saturating_mul(2).min(s.len()));
    let mut v = 0usize;
    for line in lines {
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if v >= n {
            if t.is_empty() {
                continue;
            }
            return Err(SparseError::Parse(format!(
                "more than {n} vertex lines in chaco file"
            )));
        }
        let mut toks = t.split_whitespace();
        // Skip vertex weights.
        for _ in 0..ncon {
            toks.next()
                .ok_or_else(|| SparseError::Parse(format!("vertex {v}: missing weight")))?;
        }
        while let Some(tok) = toks.next() {
            let u: usize = tok.parse().map_err(|e| {
                SparseError::Parse(format!("vertex {v}: bad neighbor '{tok}': {e}"))
            })?;
            if u == 0 || u > n {
                return Err(SparseError::Parse(format!(
                    "vertex {v}: neighbor {u} outside 1..{n}"
                )));
            }
            if has_eweights {
                toks.next().ok_or_else(|| {
                    SparseError::Parse(format!("vertex {v}: missing edge weight"))
                })?;
            }
            edges.push((v, u - 1));
        }
        v += 1;
    }
    if v != n {
        return Err(SparseError::Parse(format!(
            "chaco file has {v} vertex lines, header says {n}"
        )));
    }
    let g = SymmetricPattern::from_edges(n, &edges)?;
    if g.num_edges() != m {
        // Tolerate, but only slightly: many files in the wild miscount.
        // Strictly symmetric inputs should match exactly.
        if g.num_edges().abs_diff(m) > m / 10 + 1 {
            return Err(SparseError::Parse(format!(
                "edge count mismatch: header {m}, file {}",
                g.num_edges()
            )));
        }
    }
    Ok(g)
}

/// Writes a pattern in Chaco/METIS format.
pub fn write_chaco(path: impl AsRef<Path>, g: &SymmetricPattern) -> Result<()> {
    std::fs::File::create(path)?.write_all(write_chaco_string(g).as_bytes())?;
    Ok(())
}

/// Renders a pattern as a Chaco/METIS format string.
pub fn write_chaco_string(g: &SymmetricPattern) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} {}\n", g.n(), g.num_edges()));
    for v in 0..g.n() {
        let mut first = true;
        for &u in g.neighbors(v) {
            if !first {
                out.push(' ');
            }
            out.push_str(&(u + 1).to_string());
            first = false;
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_graph() {
        // Path 1-2-3 plus edge 1-3: triangle.
        let s = "3 3\n2 3\n1 3\n1 2\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn parse_with_comments_and_blank_tail() {
        let s = "% a comment\n2 1\n2\n1\n\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_edge_weights_skipped() {
        let s = "3 2 1\n2 7\n1 7 3 9\n2 9\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn parse_vertex_and_edge_weights() {
        // fmt 11: each vertex line starts with a vertex weight, edges carry
        // weights too.
        let s = "2 1 11\n5 2 4\n3 1 4\n";
        let g = read_chaco_str(s).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn reject_neighbor_out_of_range() {
        assert!(read_chaco_str("2 1\n3\n1\n").is_err());
    }

    #[test]
    fn reject_wrong_vertex_count() {
        assert!(read_chaco_str("3 1\n2\n1\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let g = SymmetricPattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
            .unwrap();
        let s = write_chaco_string(&g);
        let h = read_chaco_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_with_isolated_vertex() {
        let g = SymmetricPattern::from_edges(4, &[(0, 1)]).unwrap();
        let s = write_chaco_string(&g);
        let h = read_chaco_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn file_roundtrip() {
        let g = SymmetricPattern::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let dir = std::env::temp_dir().join("sparsemat_chaco_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.graph");
        write_chaco(&path, &g).unwrap();
        assert_eq!(read_chaco(&path).unwrap(), g);
    }
}
