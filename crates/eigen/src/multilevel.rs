//! The multilevel Fiedler-vector solver of §3 (Barnard & Simon).
//!
//! Three elements on top of Lanczos:
//!
//! * **Contraction** — a hierarchy of smaller graphs built from maximal
//!   independent sets and domain growing ([`se_graph::coarsen`]),
//! * **Interpolation** — the coarse eigenvector is prolonged to the finer
//!   graph (each fine vertex takes its domain's value) and smoothed by
//!   local averaging,
//! * **Refinement** — Rayleigh Quotient Iteration polishes the interpolant;
//!   its cubic convergence usually needs only one or two steps per level.
//!
//! The coarsest graph (≤ `coarsest_size` vertices, paper uses ~100) is
//! solved directly by Lanczos.

use crate::lanczos::{lanczos_smallest, LanczosOptions};
use crate::op::{constant_unit_vector, LaplacianOp, SymOp};
use crate::rqi::{rayleigh_quotient_iteration, RqiOptions};
use crate::solver_opts::{DEFAULT_COARSEST_SIZE, DEFAULT_FIEDLER_TOL, DEFAULT_SMOOTH_STEPS};
use crate::{EigenError, Result};
use se_faults::{sites, Budget, FaultPlane};
use se_graph::bfs::connected_components;
use se_graph::coarsen::CoarsenLevels;
use se_trace::{Tracer, WorkerCounter};
use sparsemat::par::TaskPool;
use sparsemat::SymmetricPattern;

/// Options for the multilevel Fiedler solver.
#[derive(Debug, Clone)]
pub struct FiedlerOptions {
    /// Stop coarsening below this many vertices (paper: ~100).
    pub coarsest_size: usize,
    /// Eigen-residual tolerance relative to the Laplacian norm bound.
    pub tol: f64,
    /// Local-averaging smoothing passes after each interpolation.
    pub smooth_steps: usize,
    /// Solve the coarsest eigenproblem on the **mass-scaled Galerkin**
    /// coarse operator — the consistent restriction of the fine problem,
    /// `PᵀLP x = λ PᵀP x`, solved in the symmetrically scaled standard form
    /// (as in Barnard–Simon's weighted contraction). Helpful on strongly
    /// graded meshes; on expander-like graphs with weak spectral gaps the
    /// consistent coarse Fiedler vector can correspond to a different fine
    /// eigenvector and mislead the refinement, so the default is the plain
    /// unweighted coarse Laplacian (`false`).
    pub galerkin: bool,
    /// Lanczos options for the coarsest solve (and the dense fallback).
    pub lanczos: LanczosOptions,
    /// RQI options for per-level refinement.
    pub rqi: RqiOptions,
    /// Pool shared by **every** stage — coarsening, the coarsest Lanczos
    /// solve, interpolation, smoothing and RQI/MINRES refinement. Inside
    /// [`fiedler`] this pool overrides the pools on `lanczos` and `rqi`, so
    /// setting it is the single thread knob. Results are bit-identical for
    /// every thread count; default is serial. Build via
    /// [`crate::SolverOpts`] to configure a thread count in one place.
    pub pool: TaskPool,
    /// Span recorder threaded through every stage. Like `pool`, inside
    /// [`fiedler`] this tracer overrides the tracers on `lanczos` and `rqi`.
    /// Disabled by default; tracing never changes numerical results.
    pub trace: Tracer,
    /// Cooperative budget checked at every stage boundary — before the
    /// hierarchy build, before the coarsest solve, and at the top of every
    /// refinement level — plus inside Lanczos/RQI/MINRES iterations. Like
    /// `pool`, inside [`fiedler`] this budget overrides the budgets on
    /// `lanczos` and `rqi`. [`Budget::unlimited`] (the default) is a strict
    /// no-op.
    pub budget: Budget,
    /// Deterministic fault plane; like `pool`, inside [`fiedler`] it
    /// overrides the planes on `lanczos` and `rqi`. The
    /// [`sites::ALLOC_BUDGET`] site simulates an allocation-budget breach
    /// before the hierarchy is built, and [`sites::BUDGET_DEADLINE`] a
    /// deadline passing after it is built.
    pub faults: FaultPlane,
}

impl Default for FiedlerOptions {
    fn default() -> Self {
        FiedlerOptions {
            coarsest_size: DEFAULT_COARSEST_SIZE,
            tol: DEFAULT_FIEDLER_TOL,
            smooth_steps: DEFAULT_SMOOTH_STEPS,
            galerkin: false,
            lanczos: LanczosOptions::default(),
            rqi: RqiOptions {
                tol: DEFAULT_FIEDLER_TOL,
                ..Default::default()
            },
            pool: TaskPool::serial(),
            trace: Tracer::disabled(),
            budget: Budget::unlimited(),
            faults: FaultPlane::disabled(),
        }
    }
}

/// Projects a (weighted) Laplacian through a piecewise-constant domain map:
/// `Lc(c, d) = Σ_{u∈c, v∈d} L(u, v)`. Row sums (hence the constant null
/// vector) are preserved exactly.
fn galerkin_project(l: &sparsemat::CsrMatrix, map: &[usize], nc: usize) -> sparsemat::CsrMatrix {
    let mut coo = sparsemat::CooMatrix::with_capacity(nc, nc, l.nnz());
    for (u, v, w) in l.iter() {
        coo.push(map[u], map[v], w).expect("domain index in range");
    }
    coo.to_csr()
}

/// A computed Fiedler pair.
#[derive(Debug, Clone)]
pub struct FiedlerResult {
    /// The second-smallest Laplacian eigenvalue `λ₂` (algebraic
    /// connectivity) — or, if RQI locked onto a nearby interior eigenvalue,
    /// that eigenvalue; either way [`FiedlerResult::vector`] is a small-`λ`
    /// Laplacian eigenvector suitable for spectral ordering.
    pub lambda2: f64,
    /// The unit Fiedler vector, orthogonal to the constant vector.
    pub vector: Vec<f64>,
    /// Coarsening levels used (0 = direct Lanczos).
    pub levels: usize,
    /// Final eigen-residual norm.
    pub residual: f64,
}

/// Computes the Fiedler pair by Lanczos directly (no multilevel). Exact but
/// slow on large graphs; the reference the multilevel method is tested
/// against.
pub fn fiedler_lanczos(g: &SymmetricPattern, opts: &LanczosOptions) -> Result<FiedlerResult> {
    check_connected(g)?;
    let lap = LaplacianOp::new(g);
    let deflate = vec![constant_unit_vector(g.n())];
    let r = lanczos_smallest(&lap, &deflate, 1, opts)?;
    let v = r.vectors.into_iter().next().expect("k = 1");
    let lam = r.values[0];
    let residual = eigen_residual(&lap, &v, lam);
    Ok(FiedlerResult {
        lambda2: lam,
        vector: v,
        levels: 0,
        residual,
    })
}

/// Computes the Fiedler pair with the multilevel method of §3. Falls back to
/// plain Lanczos when the graph is already small, and — should refinement
/// stall — restarts the finest level with Lanczos so a valid pair is always
/// returned for a connected graph.
pub fn fiedler(g: &SymmetricPattern, opts: &FiedlerOptions) -> Result<FiedlerResult> {
    check_connected(g)?;
    let pool = &opts.pool;
    let trace = &opts.trace;
    let mut sp = trace.span("fiedler");
    sp.attr("n", g.n() as f64);
    // Scheduler-health deltas for this solve. Unlike the WorkerCounter
    // drains (which are thread-count invariant), steal/park tallies describe
    // the *schedule* and legitimately vary run to run; they are recorded as
    // span attrs, never asserted invariant.
    let pool_stats0 = pool.stats();
    // One pool (and one tracer) drives every stage: propagate both into the
    // sub-options.
    let mut lanczos_opts = opts.lanczos.clone();
    lanczos_opts.pool = pool.clone();
    lanczos_opts.trace = trace.clone();
    lanczos_opts.budget = opts.budget.clone();
    lanczos_opts.faults = opts.faults.clone();
    let mut rqi_opts = opts.rqi.clone();
    rqi_opts.pool = pool.clone();
    rqi_opts.trace = trace.clone();
    rqi_opts.budget = opts.budget.clone();
    rqi_opts.faults = opts.faults.clone();
    if g.n() <= opts.coarsest_size.max(2) {
        sp.attr("levels", 0.0);
        return fiedler_lanczos(g, &lanczos_opts);
    }
    if opts.faults.should_fail(sites::ALLOC_BUDGET) {
        return Err(EigenError::Fault {
            site: sites::ALLOC_BUDGET,
        });
    }
    if let Err(cause) = opts.budget.check() {
        return Err(EigenError::Budget {
            stage: "multilevel",
            cause,
        });
    }
    let hierarchy = CoarsenLevels::build_guarded(
        g,
        opts.coarsest_size,
        pool,
        trace,
        &opts.budget,
        &opts.faults,
    );
    if hierarchy.depth() == 0 {
        sp.attr("levels", 0.0);
        return fiedler_lanczos(g, &lanczos_opts);
    }
    sp.attr("levels", hierarchy.depth() as f64);

    // Solve on the coarsest graph with Lanczos — on the **mass-scaled
    // Galerkin** operator when requested, else on the contracted graph's
    // unweighted Laplacian. The consistent coarse problem is generalized,
    // `PᵀLP x = λ PᵀP x` with `PᵀP = diag(domain sizes)`; we solve the
    // symmetrically scaled standard form `D^{-1/2} PᵀLP D^{-1/2} y = λ y`
    // and map back `x = D^{-1/2} y` (null vector `D^{1/2}·1`).
    if opts.faults.should_fail(sites::BUDGET_DEADLINE) {
        opts.budget.expire();
    }
    if let Err(cause) = opts.budget.check() {
        sp.attr("budget_abort", 1.0);
        return Err(EigenError::Budget {
            stage: "multilevel",
            cause,
        });
    }
    let mut coarsest_sp = trace.span("coarsest_solve");
    coarsest_sp.attr(
        "n",
        hierarchy.coarsest().map_or(g.n(), SymmetricPattern::n) as f64,
    );
    let mut x = if opts.galerkin {
        let mut lc = g.laplacian();
        let mut sizes = vec![1.0f64; g.n()];
        for lvl in &hierarchy.levels {
            lc = galerkin_project(&lc, &lvl.fine_to_coarse, lvl.coarse.n());
            let mut next = vec![0.0f64; lvl.coarse.n()];
            for (v, &c) in lvl.fine_to_coarse.iter().enumerate() {
                next[c] += sizes[v];
            }
            sizes = next;
        }
        let nc = lc.nrows();
        let half: Vec<f64> = sizes.iter().map(|&d| d.sqrt()).collect();
        // Scale L_c symmetrically by D^{-1/2} in place.
        {
            let row_ptr: Vec<usize> = lc.row_ptr().to_vec();
            let col_idx: Vec<usize> = lc.col_idx().to_vec();
            let vals = lc.values_mut();
            for r in 0..nc {
                for k in row_ptr[r]..row_ptr[r + 1] {
                    vals[k] /= half[r] * half[col_idx[k]];
                }
            }
        }
        let op = crate::op::CsrOp::new(&lc);
        // Null vector of the scaled operator: D^{1/2}·1, normalized.
        let total: f64 = sizes.iter().sum();
        let null: Vec<f64> = half.iter().map(|&h| h / total.sqrt()).collect();
        let deflate = vec![null];
        let r = lanczos_smallest(&op, &deflate, 1, &lanczos_opts)?;
        let y = r.vectors.into_iter().next().expect("k = 1");
        // Back to the coarse vertex basis.
        y.iter().zip(&half).map(|(yi, h)| yi / h).collect()
    } else {
        let coarsest = hierarchy.coarsest().expect("depth >= 1");
        fiedler_lanczos(coarsest, &lanczos_opts)?.vector
    };
    drop(coarsest_sp);

    // Walk back up: levels[k] maps (graph at level k) -> (graph at k+1).
    // The graph at level k is `g` for k = 0 else levels[k-1].coarse.
    for k in (0..hierarchy.depth()).rev() {
        if let Err(cause) = opts.budget.check() {
            sp.attr("budget_abort", 1.0);
            return Err(EigenError::Budget {
                stage: "multilevel",
                cause,
            });
        }
        let mut level_sp = trace.span_at("level", k);
        let fine: &SymmetricPattern = if k == 0 {
            g
        } else {
            &hierarchy.levels[k - 1].coarse
        };
        let map = &hierarchy.levels[k].fine_to_coarse;
        level_sp.attr("n", map.len() as f64);
        // Interpolate: each fine vertex takes its domain's coarse value.
        let mut xf = vec![0.0f64; map.len()];
        {
            let _interp_sp = trace.span("interpolate");
            let x = &x;
            pool.for_each_chunk_mut(&mut xf, 1024, |v0, xb| {
                for (i, xv) in xb.iter_mut().enumerate() {
                    *xv = x[map[v0 + i]];
                }
            });
        }
        {
            let mut smooth_sp = trace.span("smooth");
            smooth_sp.attr("steps", opts.smooth_steps as f64);
            let updates = trace.worker_counter();
            smooth(fine, &mut xf, opts.smooth_steps, pool, &updates);
            smooth_sp.merge_counter("updates", &updates);
        }
        let lap = LaplacianOp::new(fine);
        let rq_before = lap.rayleigh_quotient(&xf);
        let refined = rayleigh_quotient_iteration(&lap, &xf, &rqi_opts);
        // RQI converges to the eigenvalue *nearest* the starting Rayleigh
        // quotient — with a good interpolant that is λ₂, and the quotient
        // can only drop. If it rose, RQI locked onto an interior eigenpair
        // (weak spectral gap); the smoothed interpolant is the better
        // ordering direction, so keep it.
        let ok = refined.vector.iter().all(|v| v.is_finite())
            && refined.residual.is_finite()
            && lap.rayleigh_quotient(&refined.vector) <= rq_before * (1.0 + 1e-9) + 1e-14;
        level_sp.attr("rqi_accepted", f64::from(ok));
        x = if ok { refined.vector } else { xf };
    }

    // Quality check at the finest level; fall back to Lanczos if RQI
    // wandered (e.g. converged onto λ₃ with a bad interpolant) or stalled.
    // The fallback itself is best-effort: if Lanczos cannot converge within
    // its budget either, the multilevel vector is still a usable ordering
    // direction, so return it rather than failing the whole computation.
    let lap = LaplacianOp::new(g);
    let lam = lap.rayleigh_quotient(&x);
    let residual = eigen_residual(&lap, &x, lam);
    sp.attr("residual", residual);
    let pool_stats = pool.stats();
    sp.attr(
        "pool_steals",
        (pool_stats.steals - pool_stats0.steals) as f64,
    );
    sp.attr("pool_parks", (pool_stats.parks - pool_stats0.parks) as f64);
    let acceptable = residual <= opts.tol.max(1e-6) * lap.norm_bound() * 10.0;
    if !acceptable {
        if let Ok(fallback) = fiedler_lanczos(g, &lanczos_opts) {
            if fallback.residual < residual {
                return Ok(FiedlerResult {
                    levels: hierarchy.depth(),
                    ..fallback
                });
            }
        }
    }
    Ok(FiedlerResult {
        lambda2: lam,
        vector: x,
        levels: hierarchy.depth(),
        residual,
    })
}

/// Computes the Fiedler pair of the **weighted** Laplacian of a symmetric
/// matrix (edge weights `|a_uv|`), by Lanczos with deflation. The adjacency
/// structure must be connected. Useful when the matrix's magnitudes carry
/// geometric information the structural ordering should respect.
pub fn fiedler_weighted(a: &sparsemat::CsrMatrix, opts: &LanczosOptions) -> Result<FiedlerResult> {
    let g = a
        .pattern()
        .map_err(|e| EigenError::Numerical(format!("matrix not symmetric: {e}")))?;
    check_connected(&g)?;
    let wop = crate::op::WeightedLaplacianOp::from_matrix(a);
    let deflate = vec![constant_unit_vector(g.n())];
    let r = lanczos_smallest(&wop, &deflate, 1, opts)?;
    let v = r.vectors.into_iter().next().expect("k = 1");
    let lam = r.values[0];
    // Residual relative to the weighted operator.
    let av = wop.apply_alloc(&v);
    let residual = av
        .iter()
        .zip(&v)
        .map(|(x, y)| (x - lam * y).powi(2))
        .sum::<f64>()
        .sqrt();
    Ok(FiedlerResult {
        lambda2: lam,
        vector: v,
        levels: 0,
        residual,
    })
}

fn check_connected(g: &SymmetricPattern) -> Result<()> {
    if g.n() < 2 {
        return Err(EigenError::TooSmall { n: g.n() });
    }
    if !connected_components(g).is_connected() {
        return Err(EigenError::Disconnected);
    }
    Ok(())
}

fn eigen_residual(lap: &LaplacianOp<'_>, x: &[f64], lam: f64) -> f64 {
    let qx = lap.apply_alloc(x);
    let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if nx == 0.0 {
        return f64::INFINITY;
    }
    qx.iter()
        .zip(x)
        .map(|(a, b)| (a - lam * b).powi(2))
        .sum::<f64>()
        .sqrt()
        / nx
}

/// Weighted-Jacobi-style smoothing: each vertex moves halfway toward its
/// neighborhood average. Damps the high-frequency error the injection
/// interpolation introduces, then re-centres against the constant vector.
///
/// Each output entry depends only on the previous iterate, so the vertex
/// loop farms out to the pool row-chunk-wise; the recentring mean and the
/// normalisation use the deterministic chunked reductions. Bit-identical
/// for every thread count.
///
/// `updates` counts vertex updates without locking: each worker adds its
/// chunk length into a striped counter (stripe picked by chunk index) that
/// the caller drains once after the region — counts are thread-count
/// invariant because the chunk decomposition is.
fn smooth(
    g: &SymmetricPattern,
    x: &mut [f64],
    steps: usize,
    pool: &TaskPool,
    updates: &WorkerCounter,
) {
    let n = g.n();
    let mut y = vec![0.0; n];
    for _ in 0..steps {
        {
            let x_read: &[f64] = x;
            pool.for_each_chunk_mut(&mut y, 512, |v0, yb| {
                updates.add(v0 / 512, yb.len() as u64);
                for (i, yv) in yb.iter_mut().enumerate() {
                    let v = v0 + i;
                    let deg = g.degree(v);
                    if deg == 0 {
                        *yv = x_read[v];
                        continue;
                    }
                    let avg: f64 =
                        g.neighbors(v).iter().map(|&u| x_read[u]).sum::<f64>() / deg as f64;
                    *yv = 0.5 * x_read[v] + 0.5 * avg;
                }
            });
        }
        x.copy_from_slice(&y);
    }
    // Re-centre and normalise.
    let mean = pool.sum(x) / n as f64;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
    let nrm = pool.norm(x);
    if nrm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= nrm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

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

    fn path_lambda2(n: usize) -> f64 {
        2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos()
    }

    #[test]
    fn parallel_fiedler_bitwise_equals_serial() {
        // Large enough that the pool's chunked paths genuinely engage:
        // every thread count must produce the exact same bits.
        let g = grid(90, 80);
        let base = fiedler(&g, &FiedlerOptions::default()).unwrap();
        for threads in [2, 4, 8] {
            let opts = crate::SolverOpts::with_threads(threads).fiedler_options();
            let r = fiedler(&g, &opts).unwrap();
            assert_eq!(
                r.lambda2.to_bits(),
                base.lambda2.to_bits(),
                "{threads} threads"
            );
            assert_eq!(r.levels, base.levels);
            for (a, b) in r.vector.iter().zip(&base.vector) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn small_graph_uses_direct_lanczos() {
        let g = path(20);
        let r = fiedler(&g, &FiedlerOptions::default()).unwrap();
        assert_eq!(r.levels, 0);
        assert!((r.lambda2 - path_lambda2(20)).abs() < 1e-7);
    }

    #[test]
    fn multilevel_on_long_path() {
        let n = 600;
        let g = path(n);
        let opts = FiedlerOptions {
            coarsest_size: 50,
            ..Default::default()
        };
        let r = fiedler(&g, &opts).unwrap();
        assert!(r.levels >= 1, "expected actual coarsening");
        assert!(
            (r.lambda2 - path_lambda2(n)).abs() < 1e-6,
            "λ₂ = {} vs {}",
            r.lambda2,
            path_lambda2(n)
        );
        // Monotone (up to sign) along the path.
        let v = &r.vector;
        let inc = v.windows(2).filter(|w| w[1] >= w[0]).count();
        let frac = inc as f64 / (n - 1) as f64;
        assert!(
            !(0.01..=0.99).contains(&frac),
            "path Fiedler vector should be monotone, frac = {frac}"
        );
    }

    #[test]
    fn multilevel_on_grid_matches_exact() {
        let (nx, ny) = (40, 25);
        let g = grid(nx, ny);
        let opts = FiedlerOptions {
            coarsest_size: 80,
            ..Default::default()
        };
        let r = fiedler(&g, &opts).unwrap();
        let exact = path_lambda2(nx).min(path_lambda2(ny));
        assert!(
            (r.lambda2 - exact).abs() < 1e-6,
            "λ₂ = {} vs {exact}",
            r.lambda2
        );
        assert!(r.residual < 1e-5);
    }

    #[test]
    fn multilevel_matches_direct_lanczos() {
        let g = grid(30, 10);
        let ml = fiedler(
            &g,
            &FiedlerOptions {
                coarsest_size: 40,
                ..Default::default()
            },
        )
        .unwrap();
        let direct = fiedler_lanczos(&g, &LanczosOptions::default()).unwrap();
        assert!(
            (ml.lambda2 - direct.lambda2).abs() < 1e-6,
            "{} vs {}",
            ml.lambda2,
            direct.lambda2
        );
    }

    #[test]
    fn vector_is_unit_and_centered() {
        let g = grid(25, 12);
        let r = fiedler(
            &g,
            &FiedlerOptions {
                coarsest_size: 60,
                ..Default::default()
            },
        )
        .unwrap();
        let s: f64 = r.vector.iter().sum();
        assert!(s.abs() < 1e-6, "sum {s}");
        let nrm: f64 = r.vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-8);
    }

    #[test]
    fn disconnected_graph_is_error() {
        let g = SymmetricPattern::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            fiedler(&g, &FiedlerOptions::default()),
            Err(EigenError::Disconnected)
        ));
        assert!(matches!(
            fiedler_lanczos(&g, &LanczosOptions::default()),
            Err(EigenError::Disconnected)
        ));
    }

    #[test]
    fn tiny_graph_is_error() {
        let g = SymmetricPattern::from_edges(1, &[]).unwrap();
        assert!(matches!(
            fiedler(&g, &FiedlerOptions::default()),
            Err(EigenError::TooSmall { .. })
        ));
    }

    #[test]
    fn two_vertex_graph() {
        let g = path(2);
        let r = fiedler(&g, &FiedlerOptions::default()).unwrap();
        assert!((r.lambda2 - 2.0).abs() < 1e-10);
    }

    #[test]
    fn weighted_fiedler_with_unit_weights_matches_structural() {
        let g = grid(12, 7);
        let a = g.to_csr_with(|v| g.degree(v) as f64, -1.0);
        let w = fiedler_weighted(&a, &Default::default()).unwrap();
        let s = fiedler_lanczos(&g, &Default::default()).unwrap();
        assert!(
            (w.lambda2 - s.lambda2).abs() < 1e-7,
            "{} vs {}",
            w.lambda2,
            s.lambda2
        );
    }

    #[test]
    fn weighted_fiedler_follows_weights_not_structure() {
        // A path with one very weak link in the middle: the weighted Fiedler
        // vector should jump across the weak edge (it is the natural cut),
        // with near-constant values on each side.
        let n = 12;
        let g = path(n);
        let mut entries = Vec::new();
        for (u, v) in g.edges() {
            let w = if u == 5 { 1e-3 } else { 1.0 };
            entries.push((u, v, -w));
            entries.push((v, u, -w));
        }
        for v in 0..n {
            entries.push((v, v, 2.0));
        }
        let a = sparsemat::CsrMatrix::from_entries(n, &entries).unwrap();
        let w = fiedler_weighted(&a, &Default::default()).unwrap();
        // λ₂ of the weighted Laplacian is tiny (dominated by the weak edge).
        assert!(w.lambda2 < 1e-3, "λ₂ = {}", w.lambda2);
        // The vector separates the halves by sign.
        let left: f64 = w.vector[..6].iter().sum::<f64>() / 6.0;
        let right: f64 = w.vector[6..].iter().sum::<f64>() / 6.0;
        assert!(
            left * right < 0.0,
            "halves not separated: {left} vs {right}"
        );
    }

    #[test]
    fn galerkin_and_unweighted_agree_on_lambda2() {
        let g = grid(35, 20);
        let base = FiedlerOptions {
            coarsest_size: 60,
            ..Default::default()
        };
        let with = fiedler(
            &g,
            &FiedlerOptions {
                galerkin: true,
                ..base.clone()
            },
        )
        .unwrap();
        let without = fiedler(
            &g,
            &FiedlerOptions {
                galerkin: false,
                ..base
            },
        )
        .unwrap();
        assert!(
            (with.lambda2 - without.lambda2).abs() < 1e-6,
            "{} vs {}",
            with.lambda2,
            without.lambda2
        );
    }

    #[test]
    fn fiedler_sign_separates_grid_halves() {
        // Theorem 2.5 consequence: on a long grid, the positive/negative
        // parts of the Fiedler vector split the long axis into two connected
        // halves.
        let (nx, ny) = (30, 6);
        let g = grid(nx, ny);
        let r = fiedler(
            &g,
            &FiedlerOptions {
                coarsest_size: 50,
                ..Default::default()
            },
        )
        .unwrap();
        // Vertices in the same column should get (almost always) the same
        // sign: check columns 0 and nx-1 have opposite signs.
        let col = |x: usize| -> f64 { (0..ny).map(|y| r.vector[y * nx + x]).sum::<f64>() };
        assert!(
            col(0) * col(nx - 1) < 0.0,
            "ends of the long axis must have opposite Fiedler signs"
        );
    }
}
