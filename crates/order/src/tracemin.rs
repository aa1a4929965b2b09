//! Spectral ordering with the TraceMin-Fiedler eigensolver.
//!
//! Identical to [`crate::spectral`] except for step 2 of Algorithm 1: the
//! Fiedler vector comes from `se-tracemin`'s block trace minimization (whose
//! per-column inner solves run as the tasks of one region on the shared
//! [`TaskPool`]) instead of the multilevel
//! Lanczos/RQI pipeline. Step 3 — sorting the eigenvector both ways and
//! keeping the smaller envelope — is shared code, so the two orderings are
//! directly comparable: same graph, same sort, different eigensolver.

use crate::spectral::order_by_vector_traced;
use crate::Result;
use se_eigen::SolverOpts;
use se_graph::bfs::{connected_components, induced_subgraph};
use se_tracemin::{tracemin_fiedler, TraceminOptions};
use sparsemat::par::TaskPool;
use sparsemat::{Permutation, SymmetricPattern};

/// [`TraceminOptions`] on `pool`: the shape of
/// [`SolverOpts::lanczos_options`] plus the pool. Every numeric field keeps
/// its `se-tracemin` default; the tracer, budget and fault plane come from
/// `solver`.
pub fn tracemin_options(solver: &SolverOpts, pool: &TaskPool) -> TraceminOptions {
    TraceminOptions {
        pool: pool.clone(),
        trace: solver.trace.clone(),
        budget: solver.budget.clone(),
        faults: solver.faults.clone(),
        ..TraceminOptions::default()
    }
}

/// Computes the TraceMin-backed spectral ordering of `g`. Disconnected
/// graphs are handled per component (components numbered consecutively by
/// smallest vertex), matching every other ordering in this crate.
///
/// `force_lanczos` is rung 2 of the degradation ladder: skip tracemin and
/// solve the eigenproblem directly with Lanczos on the calling thread,
/// exactly like the other eigensolver-backed algorithms.
pub fn tracemin_ordering(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Permutation> {
    let pool = solver.pool();
    let mut sp = solver.trace.span("tracemin_order");
    let comps = connected_components(g);
    sp.attr("components", comps.members.len() as f64);
    let mut order = Vec::with_capacity(g.n());
    for members in &comps.members {
        let (sub, map) = induced_subgraph(g, members);
        let local = tracemin_component(&sub, solver, &pool, force_lanczos)?;
        order.extend(local.into_iter().map(|l| map[l]));
    }
    Ok(Permutation::from_new_to_old(order).expect("component orders form a permutation"))
}

/// One connected component; returns the local visit order.
fn tracemin_component(
    g: &SymmetricPattern,
    solver: &SolverOpts,
    pool: &TaskPool,
    force_lanczos: bool,
) -> Result<Vec<usize>> {
    let n = g.n();
    if n <= 2 {
        return Ok((0..n).collect());
    }
    let vector = if force_lanczos {
        se_eigen::multilevel::fiedler_lanczos(g, &solver.lanczos_options())?.vector
    } else {
        tracemin_fiedler(g, &tracemin_options(solver, pool))?.vector
    };
    Ok(order_by_vector_traced(g, &vector, &solver.trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::envelope::envelope_stats;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn tracemin_recovers_path_order() {
        let g = path(50);
        let p = tracemin_ordering(&g, &SolverOpts::default(), false).unwrap();
        let s = envelope_stats(&g, &p);
        assert_eq!(s.envelope_size, 49);
        assert_eq!(s.bandwidth, 1);
    }

    #[test]
    fn tracemin_handles_disconnected_graphs() {
        let mut edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        edges.extend((10..19).map(|i| (i, i + 1)));
        let g = SymmetricPattern::from_edges(20, &edges).unwrap();
        let p = tracemin_ordering(&g, &SolverOpts::default(), false).unwrap();
        assert_eq!(envelope_stats(&g, &p).envelope_size, 18);
    }

    #[test]
    fn envelope_close_to_multilevel_spectral() {
        let g = meshgen::grid2d(20, 9);
        let tm = tracemin_ordering(&g, &SolverOpts::default(), false).unwrap();
        let sp = crate::spectral_ordering(&g, &SolverOpts::default(), false).unwrap();
        let e_tm = envelope_stats(&g, &tm).envelope_size as f64;
        let e_sp = envelope_stats(&g, &sp).envelope_size as f64;
        assert!(
            (e_tm - e_sp).abs() <= 0.05 * e_sp,
            "tracemin {e_tm} vs spectral {e_sp}"
        );
    }

    #[test]
    fn shipped_options_are_the_tracemin_defaults() {
        let shipped = tracemin_options(&SolverOpts::default(), &TaskPool::serial());
        let base = TraceminOptions::default();
        assert_eq!(shipped.block_size, base.block_size);
        assert_eq!(shipped.max_outer, base.max_outer);
        assert_eq!(shipped.tol, base.tol);
        assert_eq!(shipped.inner_max_iter, base.inner_max_iter);
        assert_eq!(shipped.inner_rtol, base.inner_rtol);
        assert_eq!(shipped.seed, base.seed);
    }

    #[test]
    fn force_lanczos_rung_works() {
        let g = path(40);
        let p = tracemin_ordering(&g, &SolverOpts::default(), true).unwrap();
        assert_eq!(envelope_stats(&g, &p).bandwidth, 1);
    }
}
