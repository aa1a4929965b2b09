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
use sparsemat::SymmetricPattern;
use std::collections::VecDeque;

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
    let n = g.n();
    let seeds = maximal_independent_set(g);
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

    // One `(min, max)` coarse edge per fine edge crossing two domains, in
    // `g.edges()` order.
    let coarse_edges: Vec<(usize, usize)> = g
        .edges()
        .filter_map(|(u, v)| {
            let (du, dv) = (domain[u], domain[v]);
            (du != dv).then_some((du.min(dv), du.max(dv)))
        })
        .collect();
    let coarse = SymmetricPattern::from_edges(seeds.len(), &coarse_edges)
        .expect("domain indices are in range");
    Contraction {
        coarse,
        fine_to_coarse: domain,
        seeds,
    }
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
        CoarsenLevels::build_traced(g, target_n, &Tracer::disabled())
    }

    /// [`CoarsenLevels::build`] recording a `coarsen` span with one
    /// `contract` child per level (fine/coarse sizes and seed counts) into
    /// `trace`. The hierarchy itself is unaffected by tracing.
    pub fn build_traced(g: &SymmetricPattern, target_n: usize, trace: &Tracer) -> CoarsenLevels {
        CoarsenLevels::build_guarded(
            g,
            target_n,
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
            let c = contract(&current);
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
