//! Graph contraction for the multilevel Fiedler solver (§3 of the paper).
//!
//! Following Barnard & Simon (RNR-92-033), a coarse graph is built by
//! 1. choosing a **maximal independent set** of vertices as the coarse
//!    vertex set,
//! 2. **growing domains** from those vertices breadth-first until every fine
//!    vertex belongs to exactly one domain,
//! 3. adding a coarse edge whenever two domains touch (an edge of the fine
//!    graph crosses them).

use se_faults::{sites, Budget, FaultPlane};
use se_trace::Tracer;
use sparsemat::par::TaskPool;
use sparsemat::SymmetricPattern;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Marker for "unassigned".
const UNSET: usize = usize::MAX;

/// Computes a maximal independent set, greedily in ascending vertex order.
///
/// The result is *independent* (no two members adjacent) and *maximal*
/// (every non-member has a member neighbor). Deterministic.
pub fn maximal_independent_set(g: &SymmetricPattern) -> Vec<usize> {
    let n = g.n();
    let mut state = vec![0u8; n]; // 0 undecided, 1 in MIS, 2 excluded
    let mut mis = Vec::new();
    for v in 0..n {
        if state[v] == 0 {
            state[v] = 1;
            mis.push(v);
            for &u in g.neighbors(v) {
                if state[u] == 0 {
                    state[u] = 2;
                }
            }
        }
    }
    mis
}

/// [`maximal_independent_set`] computed with a round-based parallel
/// algorithm (Luby-style, with the vertex index as priority) that returns
/// **exactly** the serial greedy set for every graph and thread count.
///
/// Each round scans the still-undecided vertices in parallel; `v` is
/// selected iff every undecided neighbor has a larger index. Selected
/// vertices are independent by construction (of two adjacent undecided
/// vertices only the smaller can be selected), and an induction over vertex
/// indices shows the fixpoint equals the ascending greedy set: the smallest
/// undecided vertex is always selected, and a vertex is excluded only by a
/// neighbor that the greedy scan would also have placed in the set first.
///
/// Worst case (a path labeled in descending order) needs `O(n)` rounds, but
/// each round only touches the shrinking undecided frontier; on mesh-like
/// graphs with locality-friendly labelings a handful of rounds suffice.
pub fn maximal_independent_set_with(g: &SymmetricPattern, pool: &TaskPool) -> Vec<usize> {
    if !pool.is_parallel() {
        return maximal_independent_set(g);
    }
    let n = g.n();
    let mut state = vec![0u8; n]; // 0 undecided, 1 in MIS, 2 excluded
    let mut undecided: Vec<usize> = (0..n).collect();
    let mut selected: Vec<u8> = Vec::new();
    while !undecided.is_empty() {
        // Select phase: read-only on `state`, one flag slot per candidate.
        selected.clear();
        selected.resize(undecided.len(), 0);
        {
            let state_read: &[u8] = &state;
            let undecided_read: &[usize] = &undecided;
            pool.for_each_chunk_mut(&mut selected, 256, |i0, flags| {
                for (i, flag) in flags.iter_mut().enumerate() {
                    let v = undecided_read[i0 + i];
                    let wins = g.neighbors(v).iter().all(|&u| state_read[u] != 0 || u > v);
                    *flag = u8::from(wins);
                }
            });
        }
        // Apply phase: winners form an independent set, so marking them and
        // excluding their neighbors never conflicts. Serial and in index
        // order — cheap relative to the scans.
        for (i, &v) in undecided.iter().enumerate() {
            if selected[i] == 1 {
                state[v] = 1;
                for &u in g.neighbors(v) {
                    if state[u] == 0 {
                        state[u] = 2;
                    }
                }
            }
        }
        undecided.retain(|&v| state[v] == 0);
    }
    (0..n).filter(|&v| state[v] == 1).collect()
}

/// One level of graph contraction.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The contracted graph; vertex `c` corresponds to domain `c`.
    pub coarse: SymmetricPattern,
    /// `fine_to_coarse[v]` = coarse vertex (domain) of fine vertex `v`.
    pub fine_to_coarse: Vec<usize>,
    /// The fine vertex seeding each domain (the MIS member).
    pub seeds: Vec<usize>,
}

/// Contracts `g` one level: domains are grown breadth-first from a maximal
/// independent set; coarse edges connect touching domains.
///
/// For a connected fine graph the coarse graph is connected. The coarse
/// graph is strictly smaller whenever `g` has at least one edge.
pub fn contract(g: &SymmetricPattern) -> Contraction {
    contract_with(g, &TaskPool::serial())
}

/// [`contract`] with the maximal-independent-set selection and the
/// coarse-edge construction farmed out to `pool`. Produces exactly the same
/// contraction as the serial version for every thread count: the parallel
/// MIS equals the greedy one ([`maximal_independent_set_with`]), domain
/// growing stays serial (its queue order is the tie-breaker), and coarse
/// edges are collected per vertex chunk and concatenated in chunk order.
pub fn contract_with(g: &SymmetricPattern, pool: &TaskPool) -> Contraction {
    let n = g.n();
    let seeds = maximal_independent_set_with(g, pool);
    let mut domain = vec![UNSET; n];
    let mut queue = VecDeque::new();
    for (c, &s) in seeds.iter().enumerate() {
        domain[s] = c;
        queue.push_back(s);
    }
    // Multi-source BFS: each vertex joins the domain that reaches it first
    // (ties broken by queue order, hence by seed index — deterministic).
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if domain[u] == UNSET {
                domain[u] = domain[v];
                queue.push_back(u);
            }
        }
    }
    debug_assert!(domain.iter().all(|&d| d != UNSET), "domains must cover");

    let coarse_edges = collect_crossing_edges(g, &domain, pool);
    let coarse = SymmetricPattern::from_edges(seeds.len(), &coarse_edges)
        .expect("domain indices are in range");
    Contraction {
        coarse,
        fine_to_coarse: domain,
        seeds,
    }
}

/// Collects one `(min, max)` coarse edge per fine edge crossing two domains,
/// in exactly the order `g.edges()` yields them: vertex chunks are scanned
/// as one region (inline below [`sparsemat::par::PAR_MIN`] vertices or on a
/// serial pool), each chunk into its own buffer, and the buffers are joined
/// in chunk order. Which thread scans a chunk never changes which vertices
/// it scans or where its buffer sits, so the concatenation is
/// byte-identical to the serial scan.
fn collect_crossing_edges(
    g: &SymmetricPattern,
    domain: &[usize],
    pool: &TaskPool,
) -> Vec<(usize, usize)> {
    const CHUNK: usize = 1024;
    let n = g.n();
    let buffers: Vec<OnceLock<Vec<(usize, usize)>>> =
        (0..n.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect();
    pool.run_chunks(n, CHUNK, |s, e| {
        let mut out = Vec::new();
        for u in s..e {
            let du = domain[u];
            for &v in g.neighbors(u) {
                if v > u {
                    let dv = domain[v];
                    if du != dv {
                        out.push((du.min(dv), du.max(dv)));
                    }
                }
            }
        }
        let _ = buffers[s / CHUNK].set(out);
    });
    let buffers: Vec<Vec<(usize, usize)>> = buffers
        .into_iter()
        .map(|b| b.into_inner().expect("every chunk was scanned"))
        .collect();
    buffers.concat()
}

impl Contraction {
    /// The Galerkin coarse Laplacian `Lc = Pᵀ L P`, where `P` is the
    /// piecewise-constant prolongation over domains and `L` the *unweighted*
    /// Laplacian of the fine graph. Off-diagonal `(c, d)` equals minus the
    /// number of fine edges crossing domains `c`–`d`; each diagonal is the
    /// number of fine edges leaving the domain, so rows sum to zero and the
    /// constant vector stays the null vector.
    ///
    /// This is the edge-weighted coarse operator of Barnard–Simon's
    /// multilevel scheme; compare the unweighted
    /// [`SymmetricPattern::laplacian`] of [`Contraction::coarse`].
    pub fn galerkin_laplacian(&self, fine: &SymmetricPattern) -> sparsemat::CsrMatrix {
        let nc = self.coarse.n();
        let mut coo = sparsemat::CooMatrix::with_capacity(nc, nc, 4 * fine.num_edges());
        for (u, v) in fine.edges() {
            let (cu, cv) = (self.fine_to_coarse[u], self.fine_to_coarse[v]);
            if cu != cv {
                coo.push(cu, cv, -1.0).expect("in range");
                coo.push(cv, cu, -1.0).expect("in range");
                coo.push(cu, cu, 1.0).expect("in range");
                coo.push(cv, cv, 1.0).expect("in range");
            }
        }
        coo.to_csr()
    }
}

/// A full coarsening hierarchy, finest graph first.
#[derive(Debug)]
pub struct CoarsenLevels {
    /// `levels[0]` contracts the original graph; `levels[k]` contracts
    /// `levels[k-1].coarse`.
    pub levels: Vec<Contraction>,
}

impl CoarsenLevels {
    /// Repeatedly contracts `g` until the coarse graph has at most
    /// `target_n` vertices (the paper uses ~100) or contraction stalls.
    pub fn build(g: &SymmetricPattern, target_n: usize) -> CoarsenLevels {
        CoarsenLevels::build_with(g, target_n, &TaskPool::serial())
    }

    /// [`CoarsenLevels::build`] with each contraction farmed out to `pool`
    /// (see [`contract_with`]). The hierarchy is identical to the serial one
    /// for every thread count.
    pub fn build_with(g: &SymmetricPattern, target_n: usize, pool: &TaskPool) -> CoarsenLevels {
        CoarsenLevels::build_traced(g, target_n, pool, &Tracer::disabled())
    }

    /// [`CoarsenLevels::build_with`] recording a `coarsen` span with one
    /// `contract` child per level (fine/coarse sizes and seed counts) into
    /// `trace`. The hierarchy itself is unaffected by tracing.
    pub fn build_traced(
        g: &SymmetricPattern,
        target_n: usize,
        pool: &TaskPool,
        trace: &Tracer,
    ) -> CoarsenLevels {
        CoarsenLevels::build_guarded(
            g,
            target_n,
            pool,
            trace,
            &Budget::unlimited(),
            &FaultPlane::disabled(),
        )
    }

    /// [`CoarsenLevels::build_traced`] under a cooperative [`Budget`] and a
    /// [`FaultPlane`]. An exhausted budget stops contracting early — a
    /// shallower hierarchy is still a valid hierarchy, so this degrades
    /// rather than fails. The [`sites::COARSEN_STAGNATE`] fault site forces
    /// the stagnation break (as if contraction stopped making progress),
    /// which callers must already handle.
    pub fn build_guarded(
        g: &SymmetricPattern,
        target_n: usize,
        pool: &TaskPool,
        trace: &Tracer,
        budget: &Budget,
        faults: &FaultPlane,
    ) -> CoarsenLevels {
        let mut sp = trace.span("coarsen");
        sp.attr("n", g.n() as f64);
        let mut levels = Vec::new();
        let mut current = g.clone();
        while current.n() > target_n.max(1) {
            if budget.check().is_err() {
                sp.attr("budget_abort", 1.0);
                break; // shallower hierarchy; the solver copes
            }
            if faults.should_fail(sites::COARSEN_STAGNATE) {
                break; // injected stagnation
            }
            let mut lvl = trace.span_at("contract", levels.len());
            lvl.attr("n_fine", current.n() as f64);
            let c = contract_with(&current, pool);
            if c.coarse.n() >= current.n() {
                break; // no edges left to contract (e.g. edgeless graph)
            }
            lvl.attr("n_coarse", c.coarse.n() as f64);
            lvl.attr("seeds", c.seeds.len() as f64);
            let next = c.coarse.clone();
            levels.push(c);
            current = next;
        }
        sp.attr("levels", levels.len() as f64);
        CoarsenLevels { levels }
    }

    /// The coarsest graph (or a clone of `g` if no contraction happened —
    /// callers should use the original in that case).
    pub fn coarsest(&self) -> Option<&SymmetricPattern> {
        self.levels.last().map(|c| &c.coarse)
    }

    /// Number of contraction levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::connected_components;

    fn grid(nx: usize, ny: usize) -> SymmetricPattern {
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < ny {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        SymmetricPattern::from_edges(nx * ny, &edges).unwrap()
    }

    fn assert_mis_valid(g: &SymmetricPattern, mis: &[usize]) {
        let in_mis: std::collections::HashSet<usize> = mis.iter().copied().collect();
        // Independent:
        for &v in mis {
            for &u in g.neighbors(v) {
                assert!(!in_mis.contains(&u), "adjacent MIS members {v},{u}");
            }
        }
        // Maximal:
        for v in 0..g.n() {
            if !in_mis.contains(&v) {
                assert!(
                    g.neighbors(v).iter().any(|u| in_mis.contains(u)),
                    "vertex {v} could be added"
                );
            }
        }
    }

    #[test]
    fn mis_on_grid_is_valid() {
        let g = grid(7, 5);
        let mis = maximal_independent_set(&g);
        assert_mis_valid(&g, &mis);
        assert!(mis.len() < g.n());
        assert!(!mis.is_empty());
    }

    #[test]
    fn mis_on_edgeless_graph_is_everything() {
        let g = SymmetricPattern::from_edges(4, &[]).unwrap();
        assert_eq!(maximal_independent_set(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mis_on_complete_graph_is_single_vertex() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j));
            }
        }
        let g = SymmetricPattern::from_edges(5, &edges).unwrap();
        assert_eq!(maximal_independent_set(&g).len(), 1);
    }

    #[test]
    fn contraction_covers_all_vertices() {
        let g = grid(8, 8);
        let c = contract(&g);
        assert_eq!(c.fine_to_coarse.len(), 64);
        for &d in &c.fine_to_coarse {
            assert!(d < c.coarse.n());
        }
        // Every domain is nonempty (each seed maps to its own domain).
        for (ci, &s) in c.seeds.iter().enumerate() {
            assert_eq!(c.fine_to_coarse[s], ci);
        }
    }

    #[test]
    fn contraction_shrinks() {
        let g = grid(10, 10);
        let c = contract(&g);
        assert!(c.coarse.n() < g.n());
        assert!(c.coarse.n() >= 1);
    }

    #[test]
    fn contraction_preserves_connectivity() {
        let g = grid(9, 6);
        assert!(connected_components(&g).is_connected());
        let c = contract(&g);
        assert!(
            connected_components(&c.coarse).is_connected(),
            "coarse graph disconnected"
        );
    }

    #[test]
    fn contraction_of_disconnected_graph_keeps_components() {
        let g = SymmetricPattern::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let c = contract(&g);
        let fine_c = connected_components(&g);
        let coarse_c = connected_components(&c.coarse);
        assert_eq!(coarse_c.count(), fine_c.count());
    }

    #[test]
    fn galerkin_laplacian_rows_sum_to_zero() {
        let g = grid(8, 6);
        let c = contract(&g);
        let lc = c.galerkin_laplacian(&g);
        assert_eq!(lc.nrows(), c.coarse.n());
        let ones = vec![1.0; lc.nrows()];
        for v in lc.matvec_alloc(&ones) {
            assert_eq!(v, 0.0);
        }
        // Off-diagonal support matches the coarse pattern's edges.
        for (a, b) in c.coarse.edges() {
            let w = lc.get(a, b).unwrap_or(0.0);
            assert!(w <= -1.0, "coarse edge ({a},{b}) has weight {w}");
        }
    }

    #[test]
    fn galerkin_diagonal_counts_boundary_edges() {
        // Two domains joined by exactly 3 edges -> diagonal 3 each.
        let g = SymmetricPattern::from_edges(
            6,
            &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
        )
        .unwrap();
        // Hand-build a contraction with domains {0,1,2} and {3,4,5}.
        let c = Contraction {
            coarse: SymmetricPattern::from_edges(2, &[(0, 1)]).unwrap(),
            fine_to_coarse: vec![0, 0, 0, 1, 1, 1],
            seeds: vec![0, 3],
        };
        let lc = c.galerkin_laplacian(&g);
        assert_eq!(lc.get(0, 0), Some(3.0));
        assert_eq!(lc.get(0, 1), Some(-3.0));
        assert_eq!(lc.get(1, 1), Some(3.0));
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = grid(20, 20);
        let h = CoarsenLevels::build(&g, 30);
        assert!(h.depth() >= 1);
        let coarsest = h.coarsest().unwrap();
        assert!(coarsest.n() <= 30, "coarsest has {} vertices", coarsest.n());
        assert!(connected_components(coarsest).is_connected());
    }

    #[test]
    fn hierarchy_on_small_graph_is_empty() {
        let g = grid(3, 3);
        let h = CoarsenLevels::build(&g, 100);
        assert_eq!(h.depth(), 0);
        assert!(h.coarsest().is_none());
    }

    #[test]
    fn parallel_mis_matches_greedy() {
        // 5600 vertices: crosses the pool's PAR_MIN threshold, so the select
        // phase really runs on workers.
        let g = grid(80, 70);
        let serial = maximal_independent_set(&g);
        for threads in [2, 4, 8] {
            let pool = TaskPool::new(threads);
            assert_eq!(maximal_independent_set_with(&g, &pool), serial);
        }
    }

    #[test]
    fn parallel_contract_matches_serial() {
        let g = grid(80, 70);
        let base = contract(&g);
        for threads in [2, 4] {
            let pool = TaskPool::new(threads);
            let c = contract_with(&g, &pool);
            assert_eq!(c.seeds, base.seeds);
            assert_eq!(c.fine_to_coarse, base.fine_to_coarse);
            assert_eq!(c.coarse.n(), base.coarse.n());
            let ea: Vec<_> = base.coarse.edges().collect();
            let eb: Vec<_> = c.coarse.edges().collect();
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn parallel_hierarchy_matches_serial() {
        let g = grid(75, 75);
        let a = CoarsenLevels::build(&g, 50);
        let b = CoarsenLevels::build_with(&g, 50, &TaskPool::new(4));
        assert_eq!(a.depth(), b.depth());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.seeds, y.seeds);
            assert_eq!(x.fine_to_coarse, y.fine_to_coarse);
        }
    }

    #[test]
    fn hierarchy_consistent_mappings() {
        let g = grid(15, 15);
        let h = CoarsenLevels::build(&g, 20);
        let mut n_prev = g.n();
        for lvl in &h.levels {
            assert_eq!(lvl.fine_to_coarse.len(), n_prev);
            n_prev = lvl.coarse.n();
        }
    }
}
