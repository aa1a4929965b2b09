//! Determinism and accuracy suite for the TraceMin-Fiedler pipeline
//! (`se-tracemin` + `alg:"tracemin"`).
//!
//! The same contract as `tests/parallel_determinism.rs`, for the second
//! eigensolver: permutations and eigenvectors must be **bit-identical at
//! every thread count**, because each per-column inner MINRES solve runs
//! serially (a column's bits depend only on its right-hand side), the
//! column→region-task assignment is fixed, and every reduction uses the
//! pool's fixed chunk grid. On top of that, the eigensolver must agree with
//! the multilevel Lanczos/RQI pipeline it complements: same eigenvalue, same
//! sign-fixed direction, comparable envelope quality.
//!
//! Threads 2/4/8 (plus `SE_STRESS_THREADS`) run on real worker threads in
//! every build; each thread loop asserts that its pool is parallel, so the
//! suite can never pass by comparing serial runs with serial runs.

use spectral_envelope_repro::eigen::{LaplacianOp, SolverOpts, SymOp};
use spectral_envelope_repro::graph::bfs::{connected_components, induced_subgraph};
use spectral_envelope_repro::order::{order_with, Algorithm};
use spectral_envelope_repro::sparsemat::par::TaskPool;
use spectral_envelope_repro::sparsemat::SymmetricPattern;
use spectral_envelope_repro::tracemin::{sign_fix, tracemin_fiedler, TraceminOptions};

// Stand-ins with a well-separated λ₂: on graphs whose two smallest nonzero
// Laplacian eigenvalues are nearly degenerate (e.g. the BLKHOLE/SKIRT
// stand-ins) the two eigensolvers legitimately land on different members of
// the cluster, so a vector cross-check would compare incomparables.
const MATRICES: [&str; 3] = ["CAN1072", "DWT2680", "SSTMODEL"];
const THREADS: [usize; 3] = [2, 4, 8];

/// CI's `stress` job sets `SE_STRESS_THREADS` to push every thread-count
/// loop far past the host's core count (heavy oversubscription = maximal
/// steal/park traffic, which the results must not show).
fn stress_threads() -> Option<usize> {
    std::env::var("SE_STRESS_THREADS").ok()?.parse().ok()
}

/// A thread count of 2 or more must build a pool with real workers.
fn assert_parallel(t: usize) {
    assert!(
        t < 2 || SolverOpts::with_threads(t).pool().is_parallel(),
        "{t} threads built a serial pool"
    );
}

/// The largest connected component of a stand-in (the eigensolvers require
/// connectivity; the ordering layer handles components itself).
fn largest_component(g: &SymmetricPattern) -> SymmetricPattern {
    let comps = connected_components(g);
    let members = comps
        .members
        .iter()
        .max_by_key(|m| m.len())
        .expect("nonempty graph");
    induced_subgraph(g, members).0
}

#[test]
fn tracemin_ordering_is_thread_count_invariant() {
    for name in MATRICES {
        let s = meshgen::standin(name).expect("known stand-in");
        let g = &s.pattern;
        let serial = order_with(g, Algorithm::TraceMin, &SolverOpts::default())
            .unwrap_or_else(|e| panic!("{name}: serial tracemin ordering failed: {e}"));
        for t in THREADS.into_iter().chain(stress_threads()) {
            assert_parallel(t);
            let solver = SolverOpts::with_threads(t);
            let par = order_with(g, Algorithm::TraceMin, &solver)
                .unwrap_or_else(|e| panic!("{name}: {t}-thread tracemin ordering failed: {e}"));
            assert_eq!(
                par.perm.order(),
                serial.perm.order(),
                "{name}: permutation diverged at {t} threads"
            );
            assert_eq!(
                par.stats, serial.stats,
                "{name}: stats diverged at {t} threads"
            );
        }
    }
}

#[test]
fn tracemin_vector_is_bitwise_thread_count_invariant() {
    // Stronger than the permutation check: eigenvalue, eigenvector and even
    // the iteration/matvec counts must be bit-identical, digit for digit.
    for name in MATRICES {
        let g = largest_component(&meshgen::standin(name).unwrap().pattern);
        let serial = tracemin_fiedler(&g, &TraceminOptions::default())
            .unwrap_or_else(|e| panic!("{name}: serial tracemin failed: {e}"));
        for t in THREADS.into_iter().chain(stress_threads()) {
            assert_parallel(t);
            let opts = TraceminOptions {
                pool: TaskPool::new(t),
                ..TraceminOptions::default()
            };
            let par = tracemin_fiedler(&g, &opts)
                .unwrap_or_else(|e| panic!("{name}: {t}-thread tracemin failed: {e}"));
            assert_eq!(
                par.lambda2.to_bits(),
                serial.lambda2.to_bits(),
                "{name}: lambda2 diverged at {t} threads"
            );
            assert_eq!(par.outer_iterations, serial.outer_iterations, "{name}");
            assert_eq!(par.inner_matvecs, serial.inner_matvecs, "{name}");
            for (i, (x, y)) in par.vector.iter().zip(&serial.vector).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name}: {t} threads, component {i}"
                );
            }
        }
    }
}

#[test]
fn tracemin_matches_the_multilevel_fiedler_solver() {
    // The two eigensolvers approach the same eigenproblem from opposite
    // ends (block trace minimization vs multilevel Lanczos/RQI); their
    // answers must agree: same λ₂, same sign-fixed direction, and an
    // eigen-residual inside the solver tolerance regime.
    use spectral_envelope_repro::eigen::multilevel::fiedler;
    for name in MATRICES {
        let g = largest_component(&meshgen::standin(name).unwrap().pattern);
        let tm = tracemin_fiedler(&g, &TraceminOptions::default())
            .unwrap_or_else(|e| panic!("{name}: tracemin failed: {e}"));
        let ml = fiedler(&g, &SolverOpts::default())
            .unwrap_or_else(|e| panic!("{name}: multilevel failed: {e}"));

        let rel = (tm.lambda2 - ml.lambda2).abs() / ml.lambda2.max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-4,
            "{name}: lambda2 {} vs multilevel {}",
            tm.lambda2,
            ml.lambda2
        );

        // Same sign-fixed direction: after applying the same deterministic
        // orientation rule to both unit vectors, their dot is +1 − ε.
        let mut ml_vec = ml.vector.clone();
        sign_fix(&mut ml_vec);
        let dot: f64 = tm.vector.iter().zip(&ml_vec).map(|(a, b)| a * b).sum();
        assert!(
            dot > 0.999,
            "{name}: sign-fixed vectors disagree (dot {dot})"
        );

        // Residual tolerance on the tracemin vector against the true
        // Laplacian (not the solver's internal shifted operator).
        let lop = LaplacianOp::new(&g);
        let lx = lop.apply_alloc(&tm.vector);
        let res: f64 = lx
            .iter()
            .zip(&tm.vector)
            .map(|(a, b)| (a - tm.lambda2 * b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            res <= 1e-6 * lop.norm_bound(),
            "{name}: residual {res} too large"
        );
    }
}

#[test]
fn tracemin_envelope_is_close_to_spectral() {
    // The acceptance bar from the wire contract: envelope stats within 5%
    // of the multilevel spectral ordering on the standard stand-ins.
    for name in MATRICES {
        let g = &meshgen::standin(name).unwrap().pattern;
        let tm = order_with(g, Algorithm::TraceMin, &SolverOpts::default()).unwrap();
        let sp = order_with(g, Algorithm::Spectral, &SolverOpts::default()).unwrap();
        let (e_tm, e_sp) = (tm.stats.envelope_size as f64, sp.stats.envelope_size as f64);
        assert!(
            (e_tm - e_sp).abs() <= 0.05 * e_sp,
            "{name}: tracemin envelope {e_tm} vs spectral {e_sp}"
        );
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same seed, same pool: running twice must give the same answer — the
    // solver has no hidden global state.
    let s = meshgen::standin("POW9").unwrap();
    let solver = SolverOpts::with_threads(4);
    let a = order_with(&s.pattern, Algorithm::TraceMin, &solver).unwrap();
    let b = order_with(&s.pattern, Algorithm::TraceMin, &solver).unwrap();
    assert_eq!(a.perm.order(), b.perm.order());
}
