//! Symmetric linear operators.
//!
//! Every iterative solver in this crate consumes a [`SymOp`] — a symmetric
//! `n x n` operator presented only through matrix–vector products. This is
//! precisely the paper's point (§1): the spectral algorithm is built from
//! matvecs, dot products and axpys.
//!
//! The multilevel solver applies every operator on the calling thread.
//! Only TraceMin-Fiedler (`se-tracemin`) farms matvecs out to a
//! [`TaskPool`], through [`SymOp::apply_pooled`] on [`CsrOp`] and
//! [`DeflatedOp`].

use sparsemat::par::TaskPool;
use sparsemat::{CsrMatrix, SymmetricPattern};

/// Row-chunk width for pooled matvecs: rows are claimed from the pool in
/// spans of this many. Each output row is written by exactly one thread, so
/// pooled matvecs are bitwise identical to serial ones.
const ROW_CHUNK: usize = 512;

/// A symmetric linear operator on `ℝⁿ`.
///
/// Operators must be [`Sync`]: the iterative solvers share them by reference
/// across the worker threads of a [`TaskPool`].
pub trait SymOp: Sync {
    /// Operator dimension.
    fn n(&self) -> usize;

    /// `y = A x`. `x.len() == y.len() == self.n()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// `y = A x`, with row spans farmed out to `pool`. The default simply
    /// runs [`SymOp::apply`] serially; [`CsrOp`] overrides it.
    /// Implementations must be **deterministic**: the result may not depend
    /// on the pool's thread count.
    fn apply_pooled(&self, x: &[f64], y: &mut [f64], pool: &TaskPool) {
        let _ = pool;
        self.apply(x, y);
    }

    /// Allocating convenience.
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n()];
        self.apply(x, &mut y);
        y
    }

    /// A cheap upper bound on the spectral radius, used to scale convergence
    /// tolerances. Defaults to the Gershgorin-free value 1.0; concrete
    /// operators should override.
    fn norm_bound(&self) -> f64 {
        1.0
    }
}

/// A symmetric CSR matrix as an operator. The caller promises symmetry; the
/// constructor checks squareness and structural symmetry.
pub struct CsrOp<'a> {
    a: &'a CsrMatrix,
}

impl<'a> CsrOp<'a> {
    /// Wraps a square, structurally symmetric matrix.
    ///
    /// # Panics
    /// If `a` is not square (symmetry of values is the caller's contract).
    pub fn new(a: &'a CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "CsrOp requires a square matrix");
        CsrOp { a }
    }
}

impl SymOp for CsrOp<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.matvec(x, y);
    }

    fn apply_pooled(&self, x: &[f64], y: &mut [f64], pool: &TaskPool) {
        self.a.matvec_pooled(x, y, pool, ROW_CHUNK);
    }

    fn norm_bound(&self) -> f64 {
        // Gershgorin: max row sum of absolute values.
        (0..self.a.nrows())
            .map(|r| self.a.row_vals(r).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
            .max(1.0)
    }
}

/// The graph Laplacian `Q = D − B` applied directly from the adjacency
/// structure — no explicit matrix is formed.
///
/// [`LaplacianOp::new`] lays the rows out once, grouped by degree: a stable
/// counting sort puts the vertices in `rows` by ascending degree (ascending
/// index within a degree), `cols` holds each grouped row's neighbours
/// copied row after row in the pattern's adjacency order, and `groups`
/// records each degree with the end of its run in `rows`. [`SymOp::apply`]
/// walks a group four rows at a time: four independent accumulators with
/// the same trip count, so their chains overlap in the pipeline. `rows` and
/// `cols` hold `u32` indices, which halves the index bytes the kernel
/// streams; [`LaplacianOp::new`] asserts that `n` fits.
///
/// Row `v` still starts from `deg(v)·x[v]` (the group's degree `d as f64`,
/// the same value as `g.degree(v) as f64`) and subtracts the same neighbours
/// in the same order as a plain row-by-row loop, and no row reads another's
/// result. Only the order in which rows are visited changes, so `y` is
/// bit-identical to the row loop for every input.
pub struct LaplacianOp<'a> {
    g: &'a SymmetricPattern,
    rows: Vec<u32>,
    cols: Vec<u32>,
    groups: Vec<(usize, usize)>,
}

impl<'a> LaplacianOp<'a> {
    /// Builds the Laplacian operator of a pattern, in O(n + nnz).
    ///
    /// # Panics
    /// If `g` has more than `u32::MAX` vertices.
    pub fn new(g: &'a SymmetricPattern) -> Self {
        let n = g.n();
        assert!(
            u32::try_from(n).is_ok(),
            "LaplacianOp: {n} vertices exceed u32 indices"
        );
        // Stable counting sort by degree: `start[d]` is where degree `d`'s
        // run begins in `rows`, then its fill cursor.
        let mut start = vec![0usize; g.max_degree() + 2];
        for v in 0..n {
            start[g.degree(v) + 1] += 1;
        }
        for d in 1..start.len() {
            start[d] += start[d - 1];
        }
        let groups = (0..start.len() - 1)
            .filter(|&d| start[d + 1] > start[d])
            .map(|d| (d, start[d + 1]))
            .collect();
        let mut rows = vec![0u32; n];
        for v in 0..n {
            let slot = &mut start[g.degree(v)];
            rows[*slot] = v as u32;
            *slot += 1;
        }
        let mut cols = Vec::with_capacity(g.adjacency_len());
        for &v in &rows {
            cols.extend(g.neighbors(v as usize).iter().map(|&u| u as u32));
        }
        LaplacianOp {
            g,
            rows,
            cols,
            groups,
        }
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &SymmetricPattern {
        self.g
    }

    /// The Rayleigh quotient `xᵀQx / xᵀx`, computed edge-wise as
    /// `Σ_{(u,v)∈E} (x_u − x_v)² / xᵀx` — exact and nonnegative by
    /// construction (this is the 2-sum objective of §2.3).
    pub fn rayleigh_quotient(&self, x: &[f64]) -> f64 {
        let num: f64 = self
            .g
            .edges()
            .map(|(u, v)| {
                let d = x[u] - x[v];
                d * d
            })
            .sum();
        let den: f64 = x.iter().map(|v| v * v).sum();
        num / den
    }
}

impl SymOp for LaplacianOp<'_> {
    fn n(&self) -> usize {
        self.g.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.g.n());
        assert_eq!(y.len(), self.g.n());
        let (mut begin, mut cols) = (0, &self.cols[..]);
        for &(d, end) in &self.groups {
            let deg = d as f64;
            let mut quads = self.rows[begin..end].chunks_exact(4);
            for q in quads.by_ref() {
                let (c0, rest) = cols.split_at(d);
                let (c1, rest) = rest.split_at(d);
                let (c2, rest) = rest.split_at(d);
                let (c3, rest) = rest.split_at(d);
                cols = rest;
                let [v0, v1, v2, v3] = [q[0], q[1], q[2], q[3]].map(|v| v as usize);
                let mut a0 = deg * x[v0];
                let mut a1 = deg * x[v1];
                let mut a2 = deg * x[v2];
                let mut a3 = deg * x[v3];
                for (((&u0, &u1), &u2), &u3) in c0.iter().zip(c1).zip(c2).zip(c3) {
                    a0 -= x[u0 as usize];
                    a1 -= x[u1 as usize];
                    a2 -= x[u2 as usize];
                    a3 -= x[u3 as usize];
                }
                y[v0] = a0;
                y[v1] = a1;
                y[v2] = a2;
                y[v3] = a3;
            }
            for &v in quads.remainder() {
                let v = v as usize;
                let (c, rest) = cols.split_at(d);
                cols = rest;
                let mut acc = deg * x[v];
                for &u in c {
                    acc -= x[u as usize];
                }
                y[v] = acc;
            }
            begin = end;
        }
    }

    fn norm_bound(&self) -> f64 {
        // λ_max(Q) ≤ 2·Δ; the last group holds the largest degree.
        let max_degree = self.groups.last().map_or(0, |&(d, _)| d);
        2.0 * (max_degree as f64).max(0.5)
    }
}

/// The **weighted** graph Laplacian of a symmetric matrix: edge weights
/// `w(u,v) = |a_uv|`, `L = diag(Σ_v w(u,v)) − W`. For matrices whose
/// magnitudes carry geometry (e.g. anisotropic stiffness), the weighted
/// Fiedler vector can order better than the purely structural one.
pub struct WeightedLaplacianOp {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    weights: Vec<f64>,
    wdeg: Vec<f64>,
}

impl WeightedLaplacianOp {
    /// Builds from a structurally symmetric matrix; off-diagonal magnitudes
    /// become edge weights (diagonal values are ignored; zero off-diagonals
    /// contribute nothing).
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        assert_eq!(
            a.nrows(),
            a.ncols(),
            "weighted Laplacian needs square matrix"
        );
        let n = a.nrows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        let mut wdeg = vec![0.0f64; n];
        row_ptr.push(0);
        for (r, wd) in wdeg.iter_mut().enumerate() {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                if c != r && v != 0.0 {
                    col_idx.push(c);
                    weights.push(v.abs());
                    *wd += v.abs();
                }
            }
            row_ptr.push(col_idx.len());
        }
        WeightedLaplacianOp {
            n,
            row_ptr,
            col_idx,
            weights,
            wdeg,
        }
    }

    /// Weighted degree of vertex `v`.
    pub fn weighted_degree(&self, v: usize) -> f64 {
        self.wdeg[v]
    }
}

impl SymOp for WeightedLaplacianOp {
    fn n(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for v in 0..self.n {
            let mut acc = self.wdeg[v] * x[v];
            for k in self.row_ptr[v]..self.row_ptr[v + 1] {
                acc -= self.weights[k] * x[self.col_idx[k]];
            }
            y[v] = acc;
        }
    }

    fn norm_bound(&self) -> f64 {
        2.0 * self.wdeg.iter().copied().fold(0.0, f64::max).max(0.5)
    }
}

/// `A − shift·I` as an operator (for RQI / MINRES shifted solves).
pub struct ShiftedOp<'a, Op: SymOp> {
    op: &'a Op,
    shift: f64,
}

impl<'a, Op: SymOp> ShiftedOp<'a, Op> {
    /// Wraps `op − shift·I`.
    pub fn new(op: &'a Op, shift: f64) -> Self {
        ShiftedOp { op, shift }
    }
}

impl<Op: SymOp> SymOp for ShiftedOp<'_, Op> {
    fn n(&self) -> usize {
        self.op.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.op.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi -= self.shift * xi;
        }
    }

    fn norm_bound(&self) -> f64 {
        self.op.norm_bound() + self.shift.abs()
    }
}

/// `P A P` where `P = I − Σ uᵢuᵢᵀ` projects out an orthonormal basis
/// `{uᵢ}` — used to deflate the Laplacian's constant null vector so that
/// iterative solvers operate in `1⊥`.
pub struct DeflatedOp<'a, Op: SymOp> {
    op: &'a Op,
    basis: &'a [Vec<f64>],
}

impl<'a, Op: SymOp> DeflatedOp<'a, Op> {
    /// Wraps `op` deflated against an *orthonormal* basis.
    pub fn new(op: &'a Op, basis: &'a [Vec<f64>]) -> Self {
        for u in basis {
            assert_eq!(u.len(), op.n(), "deflation vector length mismatch");
        }
        DeflatedOp { op, basis }
    }

    /// Projects `x` onto the orthogonal complement of the basis, in place.
    /// Uses the deterministic chunked dot product, so
    /// [`DeflatedOp::project_pooled`] produces identical bits.
    pub fn project(&self, x: &mut [f64]) {
        project_against(self.basis, x);
    }

    /// `xp = P x` in one pass per basis vector, with no copy: the first
    /// coefficient `c = uᵀx` is taken from `x` itself, and `xp` is written
    /// as `x − c·u`. Bit-identical to copying `x` and calling
    /// [`DeflatedOp::project`].
    fn project_into(&self, x: &[f64], xp: &mut [f64]) {
        let Some((u, rest)) = self.basis.split_first() else {
            xp.copy_from_slice(x);
            return;
        };
        let c = sparsemat::par::det_dot(u, x);
        for ((pi, xi), ui) in xp.iter_mut().zip(x).zip(u) {
            *pi = xi - c * ui;
        }
        project_against(rest, xp);
    }

    /// [`DeflatedOp::project`] with the coefficient dot products farmed out
    /// to `pool`. Bit-identical to the serial version for any thread count.
    pub fn project_pooled(&self, x: &mut [f64], pool: &TaskPool) {
        for u in self.basis {
            let c = pool.dot(u, x);
            for (xi, ui) in x.iter_mut().zip(u) {
                *xi -= c * ui;
            }
        }
    }
}

impl<Op: SymOp> SymOp for DeflatedOp<'_, Op> {
    fn n(&self) -> usize {
        self.op.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        with_scratch(x.len(), |xp| {
            self.project_into(x, xp);
            self.op.apply(xp, y);
        });
        self.project(y);
    }

    fn apply_pooled(&self, x: &[f64], y: &mut [f64], pool: &TaskPool) {
        with_scratch(x.len(), |xp| {
            xp.copy_from_slice(x);
            self.project_pooled(xp, pool);
            self.op.apply_pooled(xp, y, pool);
        });
        self.project_pooled(y, pool);
    }

    fn norm_bound(&self) -> f64 {
        self.op.norm_bound()
    }
}

/// `x ← x − Σ (uᵀx)·u` over `basis`, one vector after another.
fn project_against(basis: &[Vec<f64>], x: &mut [f64]) {
    for u in basis {
        let c = sparsemat::par::det_dot(u, x);
        for (xi, ui) in x.iter_mut().zip(u) {
            *xi -= c * ui;
        }
    }
}

thread_local! {
    /// [`DeflatedOp`]'s projected copy of its input, kept per thread so an
    /// inner MINRES matvec does not allocate. Per thread keeps the operator
    /// `Sync` for TraceMin's pooled tasks.
    static SCRATCH: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's scratch buffer, sized to `n`. Its contents are
/// stale; `f` overwrites all of it. The buffer is taken out for the call,
/// so a nested call allocates instead of aliasing it.
fn with_scratch(n: usize, f: impl FnOnce(&mut [f64])) {
    let mut xp = SCRATCH.take();
    xp.resize(n, 0.0);
    f(&mut xp);
    SCRATCH.set(xp);
}

/// Euclidean norm from the fixed-grid chunked [`sparsemat::par::det_dot`]:
/// the same bits as [`TaskPool::norm`] at every thread count.
pub(crate) fn norm(x: &[f64]) -> f64 {
    sparsemat::par::det_dot(x, x).sqrt()
}

/// Returns the normalised constant vector `1/√n`, the Laplacian's null
/// vector for a connected graph.
pub fn constant_unit_vector(n: usize) -> Vec<f64> {
    vec![1.0 / (n as f64).sqrt(); n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn laplacian_op_matches_explicit_matrix() {
        let g = path(6);
        let lop = LaplacianOp::new(&g);
        let lmat = g.laplacian();
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let y1 = lop.apply_alloc(&x);
        let y2 = lmat.matvec_alloc(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    /// The row-by-row loop the grouped kernel replaced: the bit oracle.
    fn row_loop(g: &SymmetricPattern, x: &[f64]) -> Vec<f64> {
        (0..g.n())
            .map(|v| {
                let mut acc = g.degree(v) as f64 * x[v];
                for &u in g.neighbors(v) {
                    acc -= x[u];
                }
                acc
            })
            .collect()
    }

    /// Mixed signs and magnitudes, signed zeros and subnormals.
    fn awkward_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = se_prng::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
                sign * match rng.gen_range(0..6u32) {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE * rng.gen::<f64>(),
                    2 => 1e300 * rng.gen::<f64>(),
                    3 => 1e-300 * rng.gen::<f64>(),
                    _ => rng.gen::<f64>() - 0.5,
                }
            })
            .collect()
    }

    fn clique_edges(first: usize, m: usize) -> Vec<(usize, usize)> {
        (first..first + m)
            .flat_map(|u| (u + 1..first + m).map(move |v| (u, v)))
            .collect()
    }

    fn assert_matches_row_loop(g: &SymmetricPattern) {
        let lop = LaplacianOp::new(g);
        for seed in 0..4 {
            let x = awkward_vector(g.n(), seed);
            let want: Vec<u64> = row_loop(g, &x).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = lop.apply_alloc(&x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "n = {}, seed {seed}", g.n());
        }
    }

    #[test]
    fn grouped_kernel_is_bit_identical_to_the_row_loop() {
        let star: Vec<(usize, usize)> = (1..9).map(|v| (0, v)).collect();
        // Disjoint cliques K5..K8: degree groups of 5, 6, 7 and 8 rows, so
        // every remainder 0–3 of the four-row walk occurs.
        let mut cliques = Vec::new();
        let mut first = 0;
        for m in 5..=8 {
            cliques.extend(clique_edges(first, m));
            first += m;
        }
        let cliques = SymmetricPattern::from_edges(first, &cliques).unwrap();
        let groups = LaplacianOp::new(&cliques).groups;
        assert_eq!(groups, [(4, 5), (5, 11), (6, 18), (7, 26)]);
        for g in [
            SymmetricPattern::from_edges(0, &[]).unwrap(),
            SymmetricPattern::from_edges(1, &[]).unwrap(),
            // Four isolated vertices beside one edge: a degree-0 group.
            SymmetricPattern::from_edges(6, &[(1, 4)]).unwrap(),
            SymmetricPattern::from_edges(9, &star).unwrap(),
            path(11),
            cliques,
        ] {
            assert_matches_row_loop(&g);
        }
    }

    #[test]
    fn grouped_kernel_matches_the_row_loop_on_a_relabelled_random_graph() {
        let n = 300;
        let mut rng = se_prng::SmallRng::seed_from_u64(17);
        let edges: Vec<(usize, usize)> = (0..900)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let g = SymmetricPattern::from_edges(n, &edges).unwrap();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let perm = sparsemat::Permutation::from_new_to_old(order).unwrap();
        let relabelled = g.permute(&perm).unwrap();
        for g in [g, relabelled] {
            let lop = LaplacianOp::new(&g);
            assert!(lop.groups.len() > 4, "degrees vary");
            assert_eq!(lop.cols.len(), g.adjacency_len());
            assert_matches_row_loop(&g);
        }
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = path(5);
        let lop = LaplacianOp::new(&g);
        let y = lop.apply_alloc(&[3.0; 5]);
        for v in y {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn rayleigh_quotient_of_eigvec_is_eigval() {
        // P_2 Laplacian [[1,-1],[-1,1]] has eigenpair (2, [1,-1]).
        let g = path(2);
        let lop = LaplacianOp::new(&g);
        let rq = lop.rayleigh_quotient(&[1.0, -1.0]);
        assert!((rq - 2.0).abs() < 1e-15);
    }

    #[test]
    fn shifted_op_shifts() {
        let g = path(3);
        let lop = LaplacianOp::new(&g);
        let sh = ShiftedOp::new(&lop, 1.0);
        let x = [1.0, 0.0, 0.0];
        let y = sh.apply_alloc(&x);
        // L[0] row: [1,-1,0], minus shift -> [0,-1,0].
        assert!((y[0] - 0.0).abs() < 1e-15);
        assert!((y[1] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn deflated_op_output_is_orthogonal_to_basis() {
        let g = path(7);
        let lop = LaplacianOp::new(&g);
        let basis = vec![constant_unit_vector(7)];
        let dop = DeflatedOp::new(&lop, &basis);
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let y = dop.apply_alloc(&x);
        let dot: f64 = y.iter().zip(&basis[0]).map(|(a, b)| a * b).sum();
        assert!(dot.abs() < 1e-12);
    }

    #[test]
    fn csr_op_norm_bound_is_gershgorin() {
        let a = CsrMatrix::from_entries(2, &[(0, 0, 3.0), (0, 1, -2.0), (1, 0, -2.0), (1, 1, 1.0)])
            .unwrap();
        let op = CsrOp::new(&a);
        assert_eq!(op.norm_bound(), 5.0);
    }

    #[test]
    fn laplacian_norm_bound_dominates_lambda_max() {
        // P_2: λ_max = 2, Δ = 1, bound = 2.
        let g = path(2);
        let lop = LaplacianOp::new(&g);
        assert!(lop.norm_bound() >= 2.0);
    }

    #[test]
    fn weighted_laplacian_with_unit_weights_matches_unweighted() {
        let g = path(8);
        let a = g.to_csr_with(|v| g.degree(v) as f64, -1.0);
        let wop = WeightedLaplacianOp::from_matrix(&a);
        let lop = LaplacianOp::new(&g);
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.9).cos()).collect();
        let y1 = wop.apply_alloc(&x);
        let y2 = lop.apply_alloc(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn weighted_laplacian_annihilates_constants() {
        let a = CsrMatrix::from_entries(
            3,
            &[
                (0, 1, -5.0),
                (1, 0, -5.0),
                (1, 2, 0.25),
                (2, 1, 0.25),
                (0, 0, 9.0),
            ],
        )
        .unwrap();
        let wop = WeightedLaplacianOp::from_matrix(&a);
        assert_eq!(wop.weighted_degree(1), 5.25);
        let y = wop.apply_alloc(&[2.0; 3]);
        for v in y {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn deflated_project_pooled_matches_serial_bitwise() {
        let n = 8192;
        let g = path(n);
        let lop = LaplacianOp::new(&g);
        let basis = vec![constant_unit_vector(n)];
        let dop = DeflatedOp::new(&lop, &basis);
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos() + 0.1).collect();
        let mut serial = x0.clone();
        dop.project(&mut serial);
        let pool = TaskPool::new(4);
        let mut pooled = x0;
        dop.project_pooled(&mut pooled, &pool);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn constant_unit_vector_is_unit() {
        let u = constant_unit_vector(9);
        let norm: f64 = u.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-14);
    }
}
