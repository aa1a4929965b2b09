//! Deterministic reductions and the task fan-out of TraceMin-Fiedler.
//!
//! The workspace deliberately carries no external dependencies, so its
//! parallel primitive is written here on `std` alone instead of rayon. The
//! module holds two things:
//!
//! 1. **Bit-reproducible reductions.** Floating-point addition is not
//!    associative, so the last bits of a sum depend on the order of its
//!    additions. Every reduction in the workspace therefore uses one fixed
//!    association, which [`det_fold`] implements: span `k` covers
//!    `k·DET_CHUNK..(k+1)·DET_CHUNK` (the last one shorter), its terms are
//!    added in index order starting from `-0.0`, and the span sums are
//!    added in span order to a total that starts from `0.0`. Only this
//!    order of additions fixes the bits; when each addition happens does
//!    not. So [`det_fold`] runs the add chains of four (then two) spans side
//!    by side, which hides the add latency that bounds a single chain, and
//!    still returns the bits of the chunk-by-chunk loop.
//!
//! 2. **A scoped task fan-out.** [`TaskPool::run_tasks`] runs `body(i)` for
//!    every `i in 0..ntasks` on the calling thread plus at most
//!    `min(threads, ntasks) − 1` helpers started inside
//!    [`std::thread::scope`]. Every thread claims the next index from one
//!    shared counter, so each task runs exactly once, and the call returns
//!    when all have finished. The unit is coarse: TraceMin runs one whole
//!    inner MINRES solve per task, hundreds of matvecs, next to which
//!    starting a thread is cheap. A [`TaskPool`] is only a thread count and
//!    shared counters: building one starts nothing.
//!
//! Which thread runs a task never changes what the task computes, and the
//! reductions inside a task are the serial fixed-grid ones, so results are
//! bitwise identical for every thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed span width (in elements) of every deterministic reduction (see
/// [`det_fold`]). It is part of the association, so changing it changes the
/// bits of every reduction.
pub const DET_CHUNK: usize = 1024;

/// The number of threads the host offers (`std::thread::available_parallelism`,
/// clamped so degenerate containers still report one).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `Σ term(i)` over `0..n` on the fixed [`DET_CHUNK`] grid: each span is
/// summed in index order starting from `-0.0` (the identity of
/// `Iterator::sum` for `f64`), and the span sums are added in span order to
/// a total that starts from `0.0`. This is the association every reduction
/// in the workspace shares (see the module docs).
///
/// A span's sum is one add chain, bound by add latency. The loop therefore
/// walks four full spans side by side, then two, then the rest one at a
/// time: the lanes are independent chains that overlap in the pipeline, and
/// each lane still adds its own span's terms in index order, so no sum is
/// reassociated and no bit moves.
///
/// `term` is called exactly once per index, though not in index order (the
/// lanes interleave), so it may update element `i` of a vector it owns, as
/// MINRES does to fuse an axpy into the dot product that follows it.
#[inline]
pub fn det_fold(n: usize, mut term: impl FnMut(usize) -> f64) -> f64 {
    const C: usize = DET_CHUNK;
    let mut total = 0.0;
    let mut s = 0;
    while n - s >= 4 * C {
        let (mut a0, mut a1, mut a2, mut a3) = (-0.0, -0.0, -0.0, -0.0);
        for i in s..s + C {
            a0 += term(i);
            a1 += term(i + C);
            a2 += term(i + 2 * C);
            a3 += term(i + 3 * C);
        }
        total += a0;
        total += a1;
        total += a2;
        total += a3;
        s += 4 * C;
    }
    if n - s >= 2 * C {
        let (mut a0, mut a1) = (-0.0, -0.0);
        for i in s..s + C {
            a0 += term(i);
            a1 += term(i + C);
        }
        total += a0;
        total += a1;
        s += 2 * C;
    }
    while s < n {
        let e = (s + C).min(n);
        let mut a = -0.0;
        for i in s..e {
            a += term(i);
        }
        total += a;
        s = e;
    }
    total
}

/// Deterministic chunked dot product: `Σ aᵢbᵢ` by [`det_fold`].
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "det_dot: length mismatch");
    det_fold(a.len(), |i| a[i] * b[i])
}

/// Deterministic chunked sum by [`det_fold`] — same grid, same guarantee.
pub fn det_sum(a: &[f64]) -> f64 {
    det_fold(a.len(), |i| a[i])
}

/// Cumulative counters of one pool and its clones, from [`TaskPool::stats`].
///
/// Relaxed atomics: they order nothing. The serial pool reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Regions that ran on more than one thread (one per such
    /// [`TaskPool::run_tasks`] call).
    pub regions: u64,
    /// Tasks those regions ran.
    pub chunks: u64,
    /// Tasks a helper ran; the calling thread ran the rest of `chunks`.
    pub steals: u64,
    /// Always 0: a helper exits when its region runs out of tasks, so no
    /// thread ever waits for work.
    pub parks: u64,
}

#[derive(Debug, Default)]
struct Counters {
    regions: AtomicU64,
    chunks: AtomicU64,
    steals: AtomicU64,
}

/// A thread count for [`TaskPool::run_tasks`], plus counters that its
/// clones share.
///
/// Building or cloning a pool starts no thread: each region starts its own
/// helpers and joins them before it returns. The default value is the
/// serial pool.
///
/// ```
/// use sparsemat::par::TaskPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = TaskPool::new(4);
/// let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
/// pool.run_tasks(6, |i| {
///     hits[i].fetch_add(1, Ordering::Relaxed);
/// });
/// assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
/// assert_eq!(pool.stats().chunks, 6);
/// ```
#[derive(Clone, Debug)]
pub struct TaskPool {
    threads: usize,
    counters: Arc<Counters>,
}

impl Default for TaskPool {
    fn default() -> Self {
        TaskPool::serial()
    }
}

impl TaskPool {
    /// The serial pool: every region runs inline on the caller.
    pub fn serial() -> TaskPool {
        TaskPool::new(1)
    }

    /// A pool of `threads` threads, the caller counted as one; `0` means
    /// [`available_threads`]. Nothing starts until a region runs, and a
    /// region of `n` tasks starts at most `n − 1` helpers whatever
    /// `threads` is.
    pub fn new(threads: usize) -> TaskPool {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        TaskPool {
            threads,
            counters: Arc::default(),
        }
    }

    /// Total threads a region may use, caller included (1 for the serial
    /// pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a region of several tasks runs on more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// The cumulative counters of this pool and its clones.
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            regions: c.regions.load(Ordering::Relaxed),
            chunks: c.chunks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: 0,
        }
    }

    /// Runs `body(i)` for every `i in 0..ntasks`, each exactly once, and
    /// returns when all have finished.
    ///
    /// On the serial pool, or for a single task, the tasks run inline in
    /// index order and a panic unwinds straight out. Otherwise the caller
    /// and `min(threads, ntasks) − 1` scoped helpers claim indices from one
    /// counter. A panicking task is caught so that every other task still
    /// runs, and the first panic caught resumes on the caller once all
    /// threads have finished. A helper the OS refuses to start leaves its
    /// share to the others.
    pub fn run_tasks<F: Fn(usize) + Sync>(&self, ntasks: usize, body: F) {
        let threads = self.threads.min(ntasks);
        if threads <= 1 {
            (0..ntasks).for_each(body);
            return;
        }
        let next = AtomicUsize::new(0);
        let panic = Mutex::new(None);
        // Claims and runs tasks until none is left; returns how many it ran.
        let claim = || {
            let mut ran = 0;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ntasks {
                    return ran;
                }
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                    let mut slot = panic.lock().expect("nothing panics holding the slot");
                    slot.get_or_insert(p);
                }
                ran += 1;
            }
        };
        let c = &self.counters;
        std::thread::scope(|s| {
            for _ in 1..threads {
                let _ = std::thread::Builder::new()
                    .name("se-task".into())
                    .spawn_scoped(s, || c.steals.fetch_add(claim(), Ordering::Relaxed));
            }
            claim();
        });
        c.regions.fetch_add(1, Ordering::Relaxed);
        c.chunks.fetch_add(ntasks as u64, Ordering::Relaxed);
        if let Some(p) = panic.into_inner().expect("nothing panics holding the slot") {
            resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    /// The chunk-by-chunk loop [`det_fold`] replaced: the bit oracle.
    fn det_total(n: usize, part: impl Fn(usize, usize) -> f64) -> f64 {
        let mut total = 0.0;
        let mut i = 0;
        while i < n {
            let e = (i + DET_CHUNK).min(n);
            total += part(i, e);
            i = e;
        }
        total
    }

    fn chunk_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn chunk_sum(a: &[f64]) -> f64 {
        a.iter().sum()
    }

    /// Signed zeros, subnormals, ±1e300 and ordinary values, with one span
    /// of all `-0.0` when `n` reaches two spans and, if `infinite`, a few
    /// ±∞ (rare, so most totals stay finite).
    fn awkward_vec(n: usize, seed: u64, infinite: bool) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut v: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
                let frac = (state >> 11) as f64 / (1u64 << 53) as f64;
                sign * match (state >> 1) % 16 {
                    0 => 0.0,
                    1 => f64::MIN_POSITIVE * frac,
                    2 => 1e300 * frac,
                    3 if infinite && (state >> 5).is_multiple_of(64) => f64::INFINITY,
                    _ => frac - 0.5,
                }
            })
            .collect();
        if n >= 2 * DET_CHUNK {
            v[DET_CHUNK..2 * DET_CHUNK].fill(-0.0);
        }
        v
    }

    #[test]
    fn fold_keeps_the_chunk_by_chunk_bits_on_every_lane_path() {
        let c = DET_CHUNK;
        let lengths = [
            0,
            1,
            c - 1,
            c,
            c + 1,
            2 * c - 1,
            2 * c,
            3 * c + 1,
            4 * c,
            5 * c + 7,
            9 * c,
            100_003,
        ];
        for n in lengths {
            for seed in 1..=3 {
                for infinite in [false, true] {
                    let a = awkward_vec(n, seed, infinite);
                    let b = awkward_vec(n, seed + 10, infinite);
                    let dot = det_total(n, |s, e| chunk_dot(&a[s..e], &b[s..e])).to_bits();
                    let sum = det_total(n, |s, e| chunk_sum(&a[s..e])).to_bits();
                    let case = format!("n = {n}, seed {seed}, infinite {infinite}");
                    assert_eq!(det_fold(n, |i| a[i] * b[i]).to_bits(), dot, "{case}");
                    assert_eq!(det_dot(&a, &b).to_bits(), dot, "{case}");
                    assert_eq!(det_sum(&a).to_bits(), sum, "{case}");
                }
            }
        }
        // An all -0.0 input: every span sums to -0.0 from the -0.0 identity,
        // and the total's 0.0 start makes the result +0.0.
        for n in [1, c, 4 * c + 3] {
            let z = vec![-0.0; n];
            let want = det_total(n, |s, e| chunk_sum(&z[s..e])).to_bits();
            assert_eq!(want, 0.0f64.to_bits());
            assert_eq!(det_sum(&z).to_bits(), want, "n = {n}");
        }
    }

    #[test]
    fn fold_visits_every_index_once() {
        for n in [0, 5, DET_CHUNK, 7 * DET_CHUNK + 9] {
            let mut hits = vec![0u8; n];
            let total = det_fold(n, |i| {
                hits[i] += 1;
                1.0
            });
            assert_eq!(total, n as f64);
            assert!(hits.iter().all(|&h| h == 1), "n = {n}");
        }
    }

    #[test]
    fn dot_matches_plain_sum_closely() {
        // Chunked summation is a reordering; it must agree with the naive
        // sum to (tight) floating-point accuracy.
        let a: Vec<f64> = (0..30_000)
            .map(|i| (i as f64 * 0.17).sin() + 0.25)
            .collect();
        let naive: f64 = a.iter().map(|x| x * x).sum();
        let chunked = det_dot(&a, &a);
        assert!((naive - chunked).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn serial_pool_reports_one_thread() {
        assert_eq!(TaskPool::serial().threads(), 1);
        assert!(!TaskPool::serial().is_parallel());
        assert_eq!(TaskPool::default().threads(), 1);
        assert_eq!(TaskPool::new(1).threads(), 1);
        assert!(TaskPool::new(0).threads() >= 1);
    }

    #[test]
    fn new_records_the_thread_count() {
        assert_eq!(TaskPool::new(3).threads(), 3);
        assert!(TaskPool::new(3).is_parallel());
        assert_eq!(TaskPool::new(3).stats(), PoolStats::default());
    }

    /// The thread count is an upper bound, not a number of threads to
    /// start: a region of four tasks runs on at most four threads however
    /// many the pool allows, so `TaskPool::new(usize::MAX)` is harmless.
    #[test]
    fn a_region_starts_no_more_threads_than_it_has_tasks() {
        let pool = TaskPool::new(usize::MAX);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let ids = Mutex::new(HashSet::new());
        pool.run_tasks(4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let ids = ids.into_inner().unwrap();
        assert!((1..=4).contains(&ids.len()), "{} threads", ids.len());
        let s = pool.stats();
        assert_eq!((s.regions, s.chunks, s.parks), (1, 4, 0));
        // The helpers may drain the counter before the caller claims, so
        // they can run all four tasks.
        assert!(s.steals <= s.chunks);
    }

    #[test]
    fn run_tasks_runs_every_index_once_and_surfaces_panics() {
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            let before = pool.stats();
            pool.run_tasks(64, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{threads} threads"
            );
            let regions = pool.stats().regions - before.regions;
            assert_eq!(regions, u64::from(pool.is_parallel()), "{threads} threads");

            // A panicking task surfaces at the call, and the pool stays
            // usable. A parallel region still runs every other task; inline,
            // the panic unwinds straight out of the loop.
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run_tasks(32, |i| {
                    if i == 5 {
                        panic!("task five failed");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            let payload = caught.expect_err("the panic must surface");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task five failed"));
            let expect_ran = if pool.is_parallel() { 31 } else { 5 };
            assert_eq!(ran.load(Ordering::Relaxed), expect_ran, "{threads} threads");
            let after = AtomicUsize::new(0);
            pool.run_tasks(16, |_| {
                after.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(after.load(Ordering::Relaxed), 16, "{threads} threads");
        }
    }

    #[test]
    fn clones_share_counters_across_concurrent_regions() {
        let pool = TaskPool::new(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = pool.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        p.run_tasks(5, |_| {});
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!((s.regions, s.chunks, s.parks), (40, 200, 0));
        assert!(s.steals <= s.chunks);
        // The serial pool counts nothing.
        let serial = TaskPool::serial();
        serial.run_tasks(5, |_| {});
        assert_eq!(serial.stats(), PoolStats::default());
    }

    #[test]
    fn irregular_task_costs_stay_deterministic() {
        // Seeded, wildly uneven per-task work: which thread claims which
        // task varies from run to run, but the output must not care.
        let ntasks = 200;
        let mut reference = Vec::new();
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            let slots: Vec<OnceLock<u64>> = (0..ntasks).map(|_| OnceLock::new()).collect();
            pool.run_tasks(ntasks, |i| {
                // xorshift-seeded spin proportional to a pseudo-random cost.
                let mut s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let mut acc = 0u64;
                for k in 0..(s % 97) * 500 {
                    acc = acc.wrapping_add(k ^ s);
                }
                slots[i].set(std::hint::black_box(acc) ^ i as u64).unwrap();
            });
            let out: Vec<u64> = slots.into_iter().map(|c| c.into_inner().unwrap()).collect();
            if reference.is_empty() {
                reference = out;
            } else {
                assert_eq!(out, reference, "{threads} threads");
            }
        }
    }
}
