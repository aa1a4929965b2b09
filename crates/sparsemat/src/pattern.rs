//! The sparsity pattern (adjacency structure) of a symmetric matrix.
//!
//! Every ordering algorithm in this reproduction consumes only the
//! *structure* of the matrix — the diagonal is assumed nonzero (as in §2.1
//! of the paper) and self-loops are never stored.

use crate::{CsrMatrix, Permutation, Result, SparseError};

/// The off-diagonal structure of an `n x n` structurally symmetric matrix,
/// i.e. the adjacency lists of its graph.
///
/// Invariants:
/// * symmetric: `j ∈ adj(i)` iff `i ∈ adj(j)`,
/// * no self-loops,
/// * each adjacency list is sorted and duplicate-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricPattern {
    n: usize,
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl SymmetricPattern {
    /// Builds the pattern from a structurally symmetric [`CsrMatrix`],
    /// dropping the diagonal.
    pub fn from_csr(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if !a.is_structurally_symmetric() {
            return Err(SparseError::NotSymmetric);
        }
        let n = a.nrows();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(a.nnz());
        xadj.push(0);
        for r in 0..n {
            for &c in a.row_cols(r) {
                if c != r {
                    adjncy.push(c);
                }
            }
            xadj.push(adjncy.len());
        }
        Ok(SymmetricPattern { n, xadj, adjncy })
    }

    /// Builds the pattern from an undirected edge list. Self-loops are
    /// ignored, duplicate edges are merged.
    ///
    /// A counting sort straight into CSR: count degrees, prefix-sum them
    /// into row starts, scatter both directions of every edge, then sort
    /// and deduplicate each row in place.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut xadj = crate::zeroed_ptr_array(n)?;
        for &(u, v) in edges {
            if u >= n {
                return Err(SparseError::IndexOutOfBounds { index: u, bound: n });
            }
            if v >= n {
                return Err(SparseError::IndexOutOfBounds { index: v, bound: n });
            }
            if u != v {
                xadj[u + 1] += 1;
                xadj[v + 1] += 1;
            }
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        // Scatter with `xadj[v]` as row v's cursor; afterwards each cursor
        // sits on the next row's start, so shifting right restores starts.
        let mut adjncy = vec![0usize; xadj[n]];
        for &(u, v) in edges {
            if u != v {
                adjncy[xadj[u]] = v;
                xadj[u] += 1;
                adjncy[xadj[v]] = u;
                xadj[v] += 1;
            }
        }
        xadj.copy_within(0..n, 1);
        xadj[0] = 0;
        // Sort and dedup each row, compacting towards the front.
        let mut len = 0;
        for v in 0..n {
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            xadj[v] = len;
            adjncy[lo..hi].sort_unstable();
            for k in lo..hi {
                let u = adjncy[k];
                if len == xadj[v] || adjncy[len - 1] != u {
                    adjncy[len] = u;
                    len += 1;
                }
            }
        }
        xadj[n] = len;
        // Duplicates (an edge listed from both ends) leave slack; drop it.
        adjncy.truncate(len);
        adjncy.shrink_to_fit();
        Ok(SymmetricPattern { n, xadj, adjncy })
    }

    /// Builds directly from CSR-style adjacency arrays (validated).
    pub fn from_adjacency(n: usize, xadj: Vec<usize>, adjncy: Vec<usize>) -> Result<Self> {
        if xadj.len() != n + 1 || xadj[0] != 0 || *xadj.last().unwrap() != adjncy.len() {
            return Err(SparseError::Parse("malformed xadj".into()));
        }
        for v in 0..n {
            if xadj[v] > xadj[v + 1] {
                return Err(SparseError::Parse(format!("xadj decreases at {v}")));
            }
            let list = &adjncy[xadj[v]..xadj[v + 1]];
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Parse(format!(
                        "adjacency of {v} not strictly increasing"
                    )));
                }
            }
            for &u in list {
                if u >= n {
                    return Err(SparseError::IndexOutOfBounds { index: u, bound: n });
                }
                if u == v {
                    return Err(SparseError::Parse(format!("self-loop at {v}")));
                }
            }
        }
        let pat = SymmetricPattern { n, xadj, adjncy };
        // Verify symmetry.
        for v in 0..n {
            for &u in pat.neighbors(v) {
                if pat.neighbors(u).binary_search(&v).is_err() {
                    return Err(SparseError::NotSymmetric);
                }
            }
        }
        Ok(pat)
    }

    /// Matrix order / number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored adjacency entries (= 2 × number of edges).
    pub fn adjacency_len(&self) -> usize {
        self.adjncy.len()
    }

    /// Number of undirected edges (off-diagonal nonzeros / 2).
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of nonzeros of the matrix including the (assumed nonzero)
    /// diagonal — what the paper's tables call "nonzeros" is the lower
    /// triangle of this: `num_edges() + n()`.
    pub fn nnz_lower_with_diagonal(&self) -> usize {
        self.num_edges() + self.n
    }

    /// Neighbors of vertex `v` (sorted).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Maximum vertex degree (the paper's `Δ`).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Raw adjacency pointer array.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    pub fn adjncy(&self) -> &[usize] {
        &self.adjncy
    }

    /// Iterates undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Whether `u` and `v` are adjacent.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The pattern of `PᵀAP`: vertex at new position `k` is old vertex
    /// `perm.new_to_old(k)`.
    pub fn permute(&self, perm: &Permutation) -> Result<SymmetricPattern> {
        if perm.len() != self.n {
            return Err(SparseError::DimensionMismatch(format!(
                "permutation length {} != pattern order {}",
                perm.len(),
                self.n
            )));
        }
        let mut xadj = Vec::with_capacity(self.n + 1);
        let mut adjncy = Vec::with_capacity(self.adjncy.len());
        xadj.push(0);
        let mut row: Vec<usize> = Vec::new();
        for k in 0..self.n {
            let old = perm.new_to_old(k);
            row.clear();
            row.extend(self.neighbors(old).iter().map(|&w| perm.old_to_new(w)));
            row.sort_unstable();
            adjncy.extend_from_slice(&row);
            xadj.push(adjncy.len());
        }
        Ok(SymmetricPattern {
            n: self.n,
            xadj,
            adjncy,
        })
    }

    /// Materialises a CSR matrix with this pattern: off-diagonals are
    /// `off_diag`, diagonals `diag`. With `diag = degree + shift`, this
    /// produces shifted-Laplacian SPD test matrices.
    pub fn to_csr_with(&self, diag: impl Fn(usize) -> f64, off_diag: f64) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.adjncy.len() + self.n);
        let mut values = Vec::with_capacity(self.adjncy.len() + self.n);
        row_ptr.push(0);
        for v in 0..self.n {
            let mut inserted_diag = false;
            for &w in self.neighbors(v) {
                if !inserted_diag && w > v {
                    col_idx.push(v);
                    values.push(diag(v));
                    inserted_diag = true;
                }
                col_idx.push(w);
                values.push(off_diag);
            }
            if !inserted_diag {
                col_idx.push(v);
                values.push(diag(v));
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_parts(self.n, self.n, row_ptr, col_idx, values)
            .expect("pattern produces valid CSR")
    }

    /// The graph Laplacian `Q = D − B` of this pattern as an explicit CSR
    /// matrix (§2.2 of the paper).
    pub fn laplacian(&self) -> CsrMatrix {
        self.to_csr_with(|v| self.degree(v) as f64, -1.0)
    }

    /// A shifted Laplacian `Q + shift·I`, SPD for `shift > 0`; the standard
    /// synthetic SPD matrix used in factorization experiments.
    pub fn spd_matrix(&self, shift: f64) -> CsrMatrix {
        self.to_csr_with(|v| self.degree(v) as f64 + shift, -1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        SymmetricPattern::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn from_edges_dedup_and_self_loop() {
        let p = SymmetricPattern::from_edges(3, &[(0, 1), (1, 0), (2, 2), (1, 2)]).unwrap();
        assert_eq!(p.num_edges(), 2);
        assert_eq!(p.neighbors(1), &[0, 2]);
        assert_eq!(p.degree(2), 1);
    }

    #[test]
    fn from_edges_out_of_bounds() {
        assert!(SymmetricPattern::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn from_csr_drops_diagonal() {
        let a = CsrMatrix::from_entries(2, &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)])
            .unwrap();
        let p = a.pattern().unwrap();
        assert_eq!(p.num_edges(), 1);
        assert_eq!(p.neighbors(0), &[1]);
    }

    #[test]
    fn from_csr_rejects_asymmetric() {
        let a = CsrMatrix::from_entries(2, &[(0, 1, 1.0)]).unwrap();
        assert!(matches!(a.pattern(), Err(SparseError::NotSymmetric)));
    }

    #[test]
    fn from_adjacency_rejects_asymmetric() {
        // 0 -> 1 but not 1 -> 0.
        let r = SymmetricPattern::from_adjacency(2, vec![0, 1, 1], vec![1]);
        assert!(matches!(r, Err(SparseError::NotSymmetric)));
    }

    #[test]
    fn edge_iteration() {
        let p = path(4);
        let edges: Vec<_> = p.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(p.has_edge(1, 2));
        assert!(!p.has_edge(0, 3));
    }

    #[test]
    fn degree_and_max_degree() {
        let p = SymmetricPattern::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(p.max_degree(), 3);
        assert_eq!(p.degree(0), 3);
        assert_eq!(p.degree(3), 1);
    }

    #[test]
    fn permute_reversal_of_path() {
        let p = path(3);
        let rev = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let q = p.permute(&rev).unwrap();
        // A reversed path is still a path.
        assert_eq!(q.neighbors(0), &[1]);
        assert_eq!(q.neighbors(1), &[0, 2]);
    }

    #[test]
    fn laplacian_row_sums_are_zero() {
        let p = path(5);
        let l = p.laplacian();
        let ones = vec![1.0; 5];
        let y = l.matvec_alloc(&ones);
        for yi in y {
            assert_eq!(yi, 0.0);
        }
    }

    #[test]
    fn laplacian_diagonal_is_degree() {
        let p = SymmetricPattern::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let l = p.laplacian();
        assert_eq!(l.get(0, 0), Some(3.0));
        assert_eq!(l.get(3, 3), Some(1.0));
        assert_eq!(l.get(0, 1), Some(-1.0));
    }

    #[test]
    fn spd_matrix_is_shifted_laplacian() {
        let p = path(3);
        let a = p.spd_matrix(0.5);
        assert_eq!(a.get(0, 0), Some(1.5));
        assert_eq!(a.get(1, 1), Some(2.5));
    }

    #[test]
    fn isolated_vertex_allowed() {
        let p = SymmetricPattern::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(p.degree(2), 0);
        let l = p.laplacian();
        assert_eq!(l.get(2, 2), Some(0.0));
    }

    #[test]
    fn nnz_lower_with_diagonal_matches_paper_convention() {
        // BARTH4 in the paper: 23,492 "nonzeros" (lower+diag) and
        // nz = 34,946 plotted entries: 2*23492 - 2*6019 + 6019... the
        // convention here: plotted = 2*edges + n.
        let p = path(4);
        assert_eq!(p.nnz_lower_with_diagonal(), 3 + 4);
    }
}
