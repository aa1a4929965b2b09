//! Seeded determinism suite: the parallel multilevel Fiedler pipeline must
//! produce the **same permutation** as the serial one — not merely the same
//! envelope — on every graph, for every thread count.
//!
//! This is the contract that lets `spectral-orderd` ignore the thread count
//! in its cache key and lets benchmark runs be compared bit-for-bit. It
//! holds because every floating-point reduction in the pipeline uses a
//! fixed chunk order independent of thread count (see `sparsemat::par`),
//! and the combinatorial stages (MIS selection, domain growth, coarse-edge
//! collection) are proven order-identical to their serial forms.
//!
//! Every build spawns real worker threads for a thread count of 2 or more;
//! each thread loop asserts that its pool is parallel, so the suite can
//! never pass by comparing serial runs with serial runs.

use spectral_envelope_repro::eigen::SolverOpts;
use spectral_envelope_repro::order::{order_with, Algorithm};
use spectral_envelope_repro::spectral_env::{fiedler_vector, fiedler_vector_with};

const MATRICES: [&str; 5] = ["CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL"];
const THREADS: [usize; 3] = [2, 4, 8];

/// CI's `stress` job sets `SE_STRESS_THREADS` to push every thread-count
/// loop far past the host's core count (heavy oversubscription = maximal
/// scheduling nondeterminism, which the results must not show).
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
/// inline path of `Scope::spawn_*`.
const OVERLAP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Two independent regions in flight concurrently on one pool must produce
/// the same bytes as running their bodies serially — for every thread
/// count. Each region does the pipeline's actual reduction pattern: an
/// elementwise transform plus a fixed-grid partial-sum array folded
/// serially, so this asserts the bit-reproducibility contract under real
/// region overlap, not just under a single blocking region.
#[test]
#[allow(clippy::needless_range_loop)] // indexed loop mirrors the chunk math
fn overlapping_regions_are_bit_identical() {
    use spectral_envelope_repro::prng::SplitMix64;
    use spectral_envelope_repro::sparsemat::par::{slice_sender, TaskPool};

    const N: usize = 60_000;
    const CHUNK: usize = 1024;
    let mut rng = SplitMix64::seed_from_u64(0x0E11_1A95);
    let x1: Vec<f64> = (0..N)
        .map(|_| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();
    let x2: Vec<f64> = (0..N)
        .map(|_| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        .collect();

    let transform = |x: &[f64], lo: usize, hi: usize, y: *mut f64, part: *mut f64| {
        let mut acc = 0.0f64;
        for i in lo..hi {
            let v = (x[i] * 3.5 - 1.0).mul_add(x[i], 0.25);
            unsafe { *y.add(i) = v };
            acc += v * x[i];
        }
        unsafe { *part.add(lo / CHUNK) = acc };
    };
    let nchunks = N.div_ceil(CHUNK);
    let fold = |parts: &[f64]| parts.iter().fold(0.0f64, |a, &p| a + p);

    // Serial reference.
    let (mut y1s, mut p1s) = (vec![0.0; N], vec![0.0; nchunks]);
    let (mut y2s, mut p2s) = (vec![0.0; N], vec![0.0; nchunks]);
    for c in 0..nchunks {
        let (lo, hi) = (c * CHUNK, ((c + 1) * CHUNK).min(N));
        transform(&x1, lo, hi, y1s.as_mut_ptr(), p1s.as_mut_ptr());
        transform(&x2, lo, hi, y2s.as_mut_ptr(), p2s.as_mut_ptr());
    }
    let (d1s, d2s) = (fold(&p1s), fold(&p2s));

    for t in OVERLAP_THREADS.into_iter().chain(stress_threads()) {
        assert_parallel(t);
        let pool = TaskPool::new(t);
        let (mut y1, mut p1) = (vec![0.0; N], vec![0.0; nchunks]);
        let (mut y2, mut p2) = (vec![0.0; N], vec![0.0; nchunks]);
        pool.scope(|s| {
            s.spawn_chunks(N, CHUNK, {
                let (y, p) = (slice_sender(&mut y1), slice_sender(&mut p1));
                let x1 = &x1;
                move |lo, hi| transform(x1, lo, hi, y.get(), p.get())
            });
            s.spawn_chunks(N, CHUNK, {
                let (y, p) = (slice_sender(&mut y2), slice_sender(&mut p2));
                let x2 = &x2;
                move |lo, hi| transform(x2, lo, hi, y.get(), p.get())
            });
        });
        for i in 0..N {
            assert_eq!(y1[i].to_bits(), y1s[i].to_bits(), "{t} threads, y1[{i}]");
            assert_eq!(y2[i].to_bits(), y2s[i].to_bits(), "{t} threads, y2[{i}]");
        }
        assert_eq!(fold(&p1).to_bits(), d1s.to_bits(), "{t} threads, region 1");
        assert_eq!(fold(&p2).to_bits(), d2s.to_bits(), "{t} threads, region 2");
    }
}

/// The engine-style overlap: two whole spectral solves running concurrently
/// on one shared injected pool (as `spectral-orderd`'s per-thread-count
/// pool cache arranges for concurrent requests) must each match the serial
/// permutation exactly.
#[test]
fn concurrent_solves_on_a_shared_pool_stay_bit_identical() {
    use spectral_envelope_repro::sparsemat::par::TaskPool;

    let ga = meshgen::standin("CAN1072").unwrap().pattern;
    let gb = meshgen::standin("DWT2680").unwrap().pattern;
    let serial_a = order_with(&ga, Algorithm::Spectral, &SolverOpts::default()).unwrap();
    let serial_b = order_with(&gb, Algorithm::Spectral, &SolverOpts::default()).unwrap();

    let pool = TaskPool::new(4);
    let (pa, pb) = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            let solver = SolverOpts::with_pool(pool.clone());
            order_with(&ga, Algorithm::Spectral, &solver).unwrap()
        });
        let hb = s.spawn(|| {
            let solver = SolverOpts::with_pool(pool.clone());
            order_with(&gb, Algorithm::Spectral, &solver).unwrap()
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(pa.perm.order(), serial_a.perm.order(), "CAN1072 diverged");
    assert_eq!(pb.perm.order(), serial_b.perm.order(), "DWT2680 diverged");
}

/// Wildly irregular seeded per-chunk costs (up to ~3 orders of magnitude
/// apart) mix which thread claims each chunk and reorder completion, yet
/// the fixed chunk grid
/// keeps results byte-identical across thread counts.
#[test]
fn seeded_irregular_chunk_costs_stay_deterministic() {
    use spectral_envelope_repro::prng::SplitMix64;
    use spectral_envelope_repro::sparsemat::par::{slice_sender, TaskPool};

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
        let mut out = vec![0.0f64; N];
        pool.scope(|s| {
            s.spawn_chunks(N, CHUNK, {
                let o = slice_sender(&mut out);
                move |lo, hi| {
                    for i in lo..hi {
                        unsafe { *o.get().add(i) = work(i) };
                    }
                }
            });
        });
        for i in 0..N {
            assert_eq!(out[i].to_bits(), serial[i].to_bits(), "{t} threads, [{i}]");
        }
    }
}

/// A panic in one region must not poison a concurrently outstanding
/// sibling region or the pool itself: the sibling completes in full, the
/// panic surfaces at the scope boundary, and the pool still computes
/// bit-correct reductions afterwards.
#[test]
fn panic_in_one_region_does_not_poison_the_other() {
    use spectral_envelope_repro::sparsemat::par::{det_dot, slice_sender, TaskPool};

    const N: usize = 50_000;
    let pool = TaskPool::new(4);
    let mut good = vec![0u8; N];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn_chunks(N, 512, {
                let g = slice_sender(&mut good);
                move |lo, hi| {
                    for i in lo..hi {
                        unsafe { *g.get().add(i) = 1 };
                    }
                }
            });
            s.spawn_tasks(64, |i| {
                if i == 33 {
                    panic!("injected region failure");
                }
            });
        });
    }));
    assert!(caught.is_err(), "the injected panic must surface");
    assert!(
        good.iter().all(|&b| b == 1),
        "sibling region must have completed in full"
    );

    // The pool survives: a post-panic reduction still matches serial bits.
    let v: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    assert_eq!(pool.dot(&v, &v).to_bits(), det_dot(&v, &v).to_bits());
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
