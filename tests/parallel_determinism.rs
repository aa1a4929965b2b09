//! Seeded determinism suite: every Fiedler-backed ordering must produce the
//! **same permutation** as the serial one — not merely the same envelope —
//! on every graph, for every thread count.
//!
//! This is the contract that lets `spectral-orderd` ignore the thread count
//! in its cache key and lets benchmark runs be compared bit-for-bit. The
//! multilevel solver behind SPECTRAL, hybrid, refined and nd runs on the
//! calling thread, so it holds there by construction (and
//! `multilevel_solve_submits_no_region` pins that the pool stays idle).
//! TraceMin-Fiedler does run its inner solves on several threads; it keeps
//! the contract because each inner solve runs serially on one thread and
//! every floating-point reduction uses a fixed chunk order independent of
//! thread count (see `sparsemat::par`).
//!
//! Every build starts real helper threads for a thread count of 2 or more;
//! each thread loop asserts that its pool is parallel, so the suite can
//! never pass by comparing serial runs with serial runs.

use spectral_envelope_repro::eigen::SolverOpts;
use spectral_envelope_repro::order::{order_with, Algorithm, Ordering};
use spectral_envelope_repro::spectral_env::{fiedler_vector, fiedler_vector_with};

const MATRICES: [&str; 5] = ["CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL"];
const THREADS: [usize; 3] = [2, 4, 8];

/// CI's `stress` job sets `SE_STRESS_THREADS` to push every thread-count
/// loop far past the host's core count (heavy oversubscription = maximal
/// scheduling nondeterminism, which the results must not show).
fn stress_threads() -> Option<usize> {
    std::env::var("SE_STRESS_THREADS").ok()?.parse().ok()
}

/// A thread count of 2 or more must build a pool that starts helpers.
fn assert_parallel(t: usize) {
    assert!(
        t < 2 || SolverOpts::with_threads(t).pool().is_parallel(),
        "{t} threads built a serial pool"
    );
}

#[test]
fn spectral_ordering_is_thread_count_invariant() {
    for name in MATRICES {
        let s = meshgen::standin(name).expect("known stand-in");
        let g = &s.pattern;
        let serial = order_with(g, Algorithm::Spectral, &SolverOpts::default())
            .unwrap_or_else(|e| panic!("{name}: serial ordering failed: {e}"));
        for t in THREADS.into_iter().chain(stress_threads()) {
            assert_parallel(t);
            let solver = SolverOpts::with_threads(t);
            let par = order_with(g, Algorithm::Spectral, &solver)
                .unwrap_or_else(|e| panic!("{name}: {t}-thread ordering failed: {e}"));
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
fn fiedler_vector_is_bitwise_thread_count_invariant() {
    // Stronger than the permutation check: the eigenvector itself must be
    // bit-identical, digit for digit.
    let s = meshgen::standin("DWT2680").unwrap();
    let a = s.pattern.spd_matrix(0.5);
    let serial = fiedler_vector(&a).unwrap();
    for t in THREADS.into_iter().chain(stress_threads()) {
        assert_parallel(t);
        let par = fiedler_vector_with(&a, &SolverOpts::with_threads(t)).unwrap();
        assert_eq!(
            par.lambda2.to_bits(),
            serial.lambda2.to_bits(),
            "{t} threads"
        );
        assert_eq!(par.vector.len(), serial.vector.len());
        for (i, (x, y)) in par.vector.iter().zip(&serial.vector).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{t} threads, component {i}");
        }
    }
}

/// Thread counts for the overlapping-region tests; `1` exercises the serial
/// inline path of the pool.
const OVERLAP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// One write-once slot per task, so tasks running on any thread can hand
/// back their block without sharing a mutable buffer.
struct OnceSlots(Vec<std::sync::OnceLock<Vec<f64>>>);

impl OnceSlots {
    fn new(n: usize) -> Self {
        OnceSlots((0..n).map(|_| std::sync::OnceLock::new()).collect())
    }

    fn set(&self, i: usize, block: Vec<f64>) {
        self.0[i].set(block).expect("each task runs once");
    }

    /// The blocks in task order, as one vector.
    fn concat(self) -> Vec<f64> {
        self.0
            .into_iter()
            .flat_map(|b| b.into_inner().expect("every task ran"))
            .collect()
    }
}

/// Runs `a` and `b` on two threads that start together, so the regions
/// they run on clones of one pool are in flight at the same time.
fn overlapped<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let ha = s.spawn(|| {
            start.wait();
            a()
        });
        let hb = s.spawn(|| {
            start.wait();
            b()
        });
        (ha.join().unwrap(), hb.join().unwrap())
    })
}

/// Two independent regions in flight concurrently on one pool must produce
/// the same bytes as running their bodies serially — for every thread
/// count. Each region does the pipeline's actual reduction pattern, one
/// task per chunk: an elementwise transform plus a fixed-grid partial-sum
/// array folded serially, so this asserts the bit-reproducibility contract
/// under real region overlap, not just under a single blocking region.
#[test]
fn overlapping_regions_are_bit_identical() {
    use spectral_envelope_repro::prng::SplitMix64;
    use spectral_envelope_repro::sparsemat::par::TaskPool;
    use std::sync::OnceLock;

    const N: usize = 60_000;
    const CHUNK: usize = 1024;
    let mut rng = SplitMix64::seed_from_u64(0x0E11_1A95);
    let x1: Vec<f64> = (0..N)
        .map(|_| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();
    let x2: Vec<f64> = (0..N)
        .map(|_| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();

    // Transforms the chunk starting at `lo` into `y` and stores its partial
    // sum in the chunk's slot.
    let transform = |x: &[f64], lo: usize, y: &mut [f64], part: &[OnceLock<f64>]| {
        let mut acc = 0.0f64;
        for (yi, &xi) in y.iter_mut().zip(&x[lo..]) {
            let v = (xi * 3.5 - 1.0).mul_add(xi, 0.25);
            *yi = v;
            acc += v * xi;
        }
        part[lo / CHUNK].set(acc).unwrap();
    };
    let nchunks = N.div_ceil(CHUNK);
    let slots = || -> Vec<OnceLock<f64>> { (0..nchunks).map(|_| OnceLock::new()).collect() };
    let fold = |parts: &[OnceLock<f64>]| parts.iter().fold(0.0f64, |a, p| a + p.get().unwrap());

    // Serial reference.
    let (mut y1s, p1s) = (vec![0.0; N], slots());
    let (mut y2s, p2s) = (vec![0.0; N], slots());
    for c in 0..nchunks {
        let (lo, hi) = (c * CHUNK, ((c + 1) * CHUNK).min(N));
        transform(&x1, lo, &mut y1s[lo..hi], &p1s);
        transform(&x2, lo, &mut y2s[lo..hi], &p2s);
    }
    let (d1s, d2s) = (fold(&p1s), fold(&p2s));

    for t in OVERLAP_THREADS.into_iter().chain(stress_threads()) {
        assert_parallel(t);
        let pool = TaskPool::new(t);
        let region = |x: &[f64]| {
            let (blocks, p) = (OnceSlots::new(nchunks), slots());
            pool.run_tasks(nchunks, |c| {
                let lo = c * CHUNK;
                let mut block = vec![0.0; CHUNK.min(N - lo)];
                transform(x, lo, &mut block, &p);
                blocks.set(c, block);
            });
            (blocks.concat(), p)
        };
        let ((y1, p1), (y2, p2)) = overlapped(|| region(&x1), || region(&x2));
        for i in 0..N {
            assert_eq!(y1[i].to_bits(), y1s[i].to_bits(), "{t} threads, y1[{i}]");
            assert_eq!(y2[i].to_bits(), y2s[i].to_bits(), "{t} threads, y2[{i}]");
        }
        assert_eq!(fold(&p1).to_bits(), d1s.to_bits(), "{t} threads, region 1");
        assert_eq!(fold(&p2).to_bits(), d2s.to_bits(), "{t} threads, region 2");
    }
}

/// Two whole solves running concurrently on clones of one injected pool
/// must each match the serial permutation exactly. TraceMin is the case
/// whose regions really overlap; SPECTRAL shares the configuration but
/// solves on its own thread.
#[test]
fn concurrent_solves_on_a_shared_pool_stay_bit_identical() {
    use spectral_envelope_repro::sparsemat::par::TaskPool;

    let ga = meshgen::standin("CAN1072").unwrap().pattern;
    let gb = meshgen::standin("DWT2680").unwrap().pattern;
    for alg in [Algorithm::TraceMin, Algorithm::Spectral] {
        let serial_a = order_with(&ga, alg, &SolverOpts::default()).unwrap();
        let serial_b = order_with(&gb, alg, &SolverOpts::default()).unwrap();

        let pool = TaskPool::new(4);
        let solve = |g| {
            let solver = SolverOpts {
                pool: Some(pool.clone()),
                ..SolverOpts::default()
            };
            order_with(g, alg, &solver).unwrap()
        };
        let (pa, pb) = overlapped(|| solve(&ga), || solve(&gb));
        assert_eq!(
            pa.perm.order(),
            serial_a.perm.order(),
            "{alg:?}: CAN1072 diverged"
        );
        assert_eq!(
            pb.perm.order(),
            serial_b.perm.order(),
            "{alg:?}: DWT2680 diverged"
        );
    }
}

/// The multilevel solve and every ordering built on it run on the calling
/// thread: with a 2-thread pool injected, the pool sees no region and the
/// results equal the serial bits. TraceMin on the same pool does submit
/// regions, so the `threads` setting stays live where it pays.
#[test]
fn multilevel_solve_submits_no_region() {
    use spectral_envelope_repro::eigen::multilevel::fiedler;
    use spectral_envelope_repro::graph::bfs::{connected_components, induced_subgraph};
    use spectral_envelope_repro::sparsemat::par::TaskPool;

    let g = meshgen::standin("BARTH4").unwrap().pattern;
    let comps = connected_components(&g);
    let largest = comps.members.iter().max_by_key(|m| m.len()).unwrap();
    let (sub, _) = induced_subgraph(&g, largest);

    let pool = TaskPool::new(2);
    assert!(pool.is_parallel(), "2 threads built a serial pool");
    let pooled = SolverOpts {
        pool: Some(pool.clone()),
        ..SolverOpts::default()
    };
    let before = pool.stats().regions;

    let serial = fiedler(&sub, &SolverOpts::default()).unwrap();
    let par = fiedler(&sub, &pooled).unwrap();
    assert_eq!(par.lambda2.to_bits(), serial.lambda2.to_bits());
    assert_eq!(par.vector.len(), serial.vector.len());
    for (i, (x, y)) in par.vector.iter().zip(&serial.vector).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "Fiedler component {i}");
    }
    assert_eq!(pool.stats().regions, before, "fiedler submitted a region");

    let same = |a: &Ordering, b: &Ordering| a.perm.order() == b.perm.order() && a.stats == b.stats;
    for alg in [
        Algorithm::Spectral,
        Algorithm::HybridSloanSpectral,
        Algorithm::SpectralNd,
    ] {
        let serial = order_with(&g, alg, &SolverOpts::default()).unwrap();
        let par = order_with(&g, alg, &pooled).unwrap();
        assert!(same(&par, &serial), "{alg:?}: ordering diverged");
        assert_eq!(pool.stats().regions, before, "{alg:?} submitted a region");
    }

    let serial = order_with(&g, Algorithm::TraceMin, &SolverOpts::default()).unwrap();
    let par = order_with(&g, Algorithm::TraceMin, &pooled).unwrap();
    assert!(same(&par, &serial), "TraceMin: ordering diverged");
    assert!(
        pool.stats().regions > before,
        "TraceMin must run its inner solves on the injected pool"
    );
}

/// Wildly irregular seeded per-task costs (up to ~3 orders of magnitude
/// apart), in two overlapping regions, mix which thread claims each task
/// and reorder completion, yet the fixed task→chunk assignment keeps
/// results byte-identical across thread counts.
#[test]
fn seeded_irregular_chunk_costs_stay_deterministic() {
    use spectral_envelope_repro::prng::SplitMix64;
    use spectral_envelope_repro::sparsemat::par::TaskPool;

    const N: usize = 20_000;
    const CHUNK: usize = 64;
    let cost = |i: usize| {
        let mut r = SplitMix64::seed_from_u64(0xC057 ^ i as u64);
        (r.next_u64() % 1000) as usize + 1
    };
    let work = |i: usize| -> f64 {
        let mut acc = i as f64;
        for k in 0..cost(i) {
            acc = (acc * 1.000_000_1).mul_add(1.0, k as f64 * 1e-9);
        }
        acc
    };

    let serial: Vec<f64> = (0..N).map(work).collect();
    for t in OVERLAP_THREADS.into_iter().chain(stress_threads()) {
        assert_parallel(t);
        let pool = TaskPool::new(t);
        let region = || {
            let blocks = OnceSlots::new(N.div_ceil(CHUNK));
            pool.run_tasks(N.div_ceil(CHUNK), |c| {
                let lo = c * CHUNK;
                blocks.set(c, (lo..(lo + CHUNK).min(N)).map(work).collect());
            });
            blocks.concat()
        };
        let (out1, out2) = overlapped(region, region);
        for i in 0..N {
            assert_eq!(out1[i].to_bits(), serial[i].to_bits(), "{t} threads, [{i}]");
            assert_eq!(out2[i].to_bits(), serial[i].to_bits(), "{t} threads, [{i}]");
        }
    }
}

/// A panic in one region must not poison a concurrently outstanding
/// sibling region or the pool itself: the sibling completes in full, the
/// panic surfaces at the panicking region's call after every other task of
/// its region ran, and the pool still runs regions afterwards.
#[test]
fn panic_in_one_region_does_not_poison_the_other() {
    use spectral_envelope_repro::sparsemat::par::TaskPool;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    const N: usize = 100;
    let pool = TaskPool::new(4);
    let hits = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
    let (good, bad) = (hits(N), hits(64));
    let ((), caught) = overlapped(
        || {
            pool.run_tasks(N, |i| {
                good[i].fetch_add(1, Relaxed);
            })
        },
        || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_tasks(64, |i| {
                    if i == 33 {
                        panic!("injected region failure");
                    }
                    bad[i].fetch_add(1, Relaxed);
                });
            }))
        },
    );
    assert!(caught.is_err(), "the injected panic must surface");
    assert!(
        good.iter().all(|h| h.load(Relaxed) == 1),
        "sibling region must have completed in full"
    );
    let ran = |i: usize| bad[i].load(Relaxed);
    assert!((0..64).all(|i| ran(i) == usize::from(i != 33)));

    // The pool survives: a post-panic region runs every task once.
    let after = hits(N);
    pool.run_tasks(N, |i| {
        after[i].fetch_add(1, Relaxed);
    });
    assert!(after.iter().all(|h| h.load(Relaxed) == 1));
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same seed, same pool: running twice must give the same answer — the
    // solver has no hidden global state.
    let s = meshgen::standin("POW9").unwrap();
    let solver = SolverOpts::with_threads(4);
    let a = order_with(&s.pattern, Algorithm::Spectral, &solver).unwrap();
    let b = order_with(&s.pattern, Algorithm::Spectral, &solver).unwrap();
    assert_eq!(a.perm.order(), b.perm.order());
}
