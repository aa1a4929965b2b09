//! Chunk-claiming task pool and deterministic parallel reductions.
//!
//! The workspace deliberately carries no external dependencies, so the
//! parallel kernels are expressed through this std-only module instead of
//! rayon. Two design constraints shape everything here:
//!
//! 1. **Reuse and sharing** — a matvec inside Lanczos runs thousands of
//!    times per ordering; spawning OS threads per call would cost more than
//!    the work. [`TaskPool`] therefore keeps a set of persistent workers. A
//!    parallel *region* — one blocking [`TaskPool::run_chunks`] or
//!    [`TaskPool::run_tasks`] call — is its own region object holding a
//!    claim counter, a completion count and a panic slot, and any helping
//!    thread claims the region's next unclaimed task with one atomic
//!    increment. There is no global region lock: **regions submitted by
//!    different threads sharing one pool are outstanding concurrently**, and
//!    workers drain whatever is runnable. A panic inside a region body is
//!    captured in that region, every chunk still runs, and the panic resumes
//!    on the thread that submitted the region — other in-flight regions and
//!    the pool itself are unaffected.
//!
//! 2. **Bit-reproducibility** — floating-point addition is not associative,
//!    so a naive parallel dot product would return different last bits from
//!    run to run and thread count to thread count. Every reduction here uses
//!    a *fixed* chunk width ([`DET_CHUNK`], independent of the number of
//!    threads): per-chunk partials are computed serially within the chunk
//!    and then combined serially **in chunk order**. Scheduling changes
//!    *which thread* computes a chunk, never *which elements* form a chunk
//!    or the order partials are combined, so for any input `TaskPool::dot`
//!    returns the same bits on 1, 2, 4 or 8 threads — and the same bits as
//!    [`det_dot`].
//!
//!    The association contract, which [`det_fold`] implements for every
//!    serial reduction: span `k` covers `k·DET_CHUNK..(k+1)·DET_CHUNK`
//!    (the last one shorter), its terms are added in index order starting
//!    from `-0.0`, and the span sums are added in span order to a total
//!    that starts from `0.0`. Only this order of additions fixes the bits;
//!    when each addition happens does not. So [`det_fold`] runs the add
//!    chains of four (then two) spans side by side, which hides the add
//!    latency that bounds a single chain, and still returns the bits of the
//!    chunk-by-chunk loop.
//!
//! A one-thread pool ([`TaskPool::serial`], or [`TaskPool::new`] with
//! `threads <= 1`) spawns nothing and runs every operation inline; by the
//! chunking argument above its results are identical too.
//!
//! # Scheduling protocol
//!
//! * Submitting a region appends it to the pool's one queue (a mutex-guarded
//!   `VecDeque`) and wakes up to one parked worker per task.
//! * A worker takes the front region that still has unclaimed tasks, claims
//!   task `i = next.fetch_add(1)` until `i >= ntasks`, and drops exhausted
//!   regions from the front. With none left it parks on the queue condvar.
//!   The parked count is read and written under the queue mutex, so a
//!   submission can never miss a worker going to sleep.
//! * The submitting thread claims tasks of *its own* region directly — it
//!   never waits on a worker that is busy elsewhere — then blocks on the
//!   region's completion condvar until the chunks workers claimed have
//!   finished. Every region call returns only once its region has drained.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Fixed chunk width (in elements) for deterministic reductions.
///
/// Partial sums are formed over consecutive spans of this many elements and
/// combined in span order. The value is a compromise: small enough that a
/// large vector yields enough chunks to balance across workers, large enough
/// that the per-chunk bookkeeping is negligible next to the arithmetic.
pub const DET_CHUNK: usize = 1024;

/// Minimum problem size (in elements) before a pool goes parallel.
///
/// Below this, the condvar round trip to wake the workers costs more than
/// the loop itself; the pool runs the region inline on the caller. This is a
/// pure performance threshold — results are bitwise identical either way.
pub const PAR_MIN: usize = 4096;

/// The number of worker threads to use (`std::thread::available_parallelism`,
/// clamped so degenerate containers still report one).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Deterministic serial reductions (the pool's partials use the same grid).
// ---------------------------------------------------------------------------

#[inline]
fn chunk_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn chunk_sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// `Σ term(i)` over `0..n` on the fixed [`DET_CHUNK`] grid: each span is
/// summed in index order starting from `-0.0` (the identity of
/// `Iterator::sum` for `f64`), and the span sums are added in span order to
/// a total that starts from `0.0`. This is the association every reduction
/// in this module shares, so the result is bit-identical to [`TaskPool::dot`]
/// and [`TaskPool::sum`] partials folded serially.
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
///
/// [`TaskPool::dot`] returns exactly these bits for every thread count.
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "det_dot: length mismatch");
    det_fold(a.len(), |i| a[i] * b[i])
}

/// Deterministic chunked sum by [`det_fold`] — same grid, same guarantee.
pub fn det_sum(a: &[f64]) -> f64 {
    det_fold(a.len(), |i| a[i])
}

// ---------------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------------

/// A type-erased region body: `call(ctx, i)` invokes the caller's closure on
/// task index `i`. The pointer refers into the stack frame of the submitting
/// thread, which stays blocked until the region drains — so the pointee
/// strictly outlives every use.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: the context pointer is only dereferenced while the blocked
// submitter keeps the closure alive, and the closure is `Sync` (enforced by
// the submission bounds), so shared calls from several threads are fine.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Per-region state. One of these exists per outstanding parallel region,
/// so regions are fully independent — a panic or a slow chunk in one region
/// never blocks another.
struct RegionCore {
    job: Job,
    ntasks: usize,
    /// The next unclaimed task index; `fetch_add` hands each index to
    /// exactly one thread. The region is exhausted once this reaches
    /// `ntasks` (its last chunks may still be running).
    next: AtomicUsize,
    /// Task indices not yet finished. The region is complete when this hits
    /// zero; the final decrement wakes `done_cv`.
    remaining: AtomicUsize,
    /// First panic payload captured from any chunk of this region;
    /// re-raised on the thread that submitted the region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

impl RegionCore {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.ntasks
    }

    /// Claims and runs one task; `false` once every task has been claimed.
    /// A panic is captured into the region, and `remaining` drains exactly
    /// once per task either way. `worker` marks a pool worker running a
    /// region another thread submitted, which the `steals` counter tallies.
    fn run_one(&self, stats: &CoreStats, worker: bool) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.ntasks {
            return false;
        }
        let job = self.job;
        // SAFETY: see `Job` — ctx outlives the region, body is Sync.
        let panic = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.ctx, i) })).err();
        if let Some(p) = panic {
            self.panic.lock().unwrap().get_or_insert(p);
        }
        stats.chunks.fetch_add(1, Ordering::Relaxed);
        if worker {
            stats.steals.fetch_add(1, Ordering::Relaxed);
        }
        // The final decrement must take the done lock before notifying so a
        // submitter between its `remaining` check and `wait` can't miss it.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(self.done.lock().unwrap());
            self.done_cv.notify_all();
        }
        true
    }
}

/// Scheduler-health counters, monotone over the pool's lifetime. All
/// relaxed: they order nothing.
#[derive(Default)]
struct CoreStats {
    regions: AtomicU64,
    chunks: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

/// Everything the queue mutex guards.
struct Queue {
    /// Submitted regions in submission order; exhausted ones are dropped
    /// from the front by whoever next looks.
    regions: VecDeque<Arc<RegionCore>>,
    /// Workers waiting on `Core::work_cv` right now.
    parked: usize,
    shutdown: bool,
}

impl Queue {
    /// Drops exhausted regions from the front and returns the first region
    /// that still has unclaimed tasks.
    fn front(&mut self) -> Option<&Arc<RegionCore>> {
        while self.regions.front().is_some_and(|r| r.exhausted()) {
            self.regions.pop_front();
        }
        self.regions.front()
    }
}

struct Core {
    queue: Mutex<Queue>,
    work_cv: Condvar,
    stats: CoreStats,
}

thread_local! {
    /// Set inside pool workers, and on any thread for the duration of its
    /// participation in a region, so nested parallel regions degrade to
    /// serial inline execution instead of deadlocking a worker on itself.
    static IN_POOL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII restore for the nesting flag (survives panics in region bodies).
struct FlagGuard(bool);
impl Drop for FlagGuard {
    fn drop(&mut self) {
        IN_POOL_REGION.with(|g| g.set(self.0));
    }
}

fn worker_loop(core: Arc<Core>) {
    IN_POOL_REGION.with(|f| f.set(true));
    let mut q = core.queue.lock().unwrap();
    loop {
        if let Some(region) = q.front().cloned() {
            drop(q);
            while region.run_one(&core.stats, true) {}
            q = core.queue.lock().unwrap();
            continue;
        }
        if q.shutdown {
            return;
        }
        q.parked += 1;
        core.stats.parks.fetch_add(1, Ordering::Relaxed);
        q = core.work_cv.wait(q).unwrap();
        q.parked -= 1;
    }
}

struct PoolHandle {
    core: Arc<Core>,
    /// Worker thread count, excluding participating callers.
    extra: usize,
    workers: Vec<JoinHandle<()>>,
}

impl PoolHandle {
    /// Submits a region over `ntasks` indices and joins it: queues it, wakes
    /// up to `ntasks` parked workers, runs tasks of it on the calling thread
    /// until all are claimed, then blocks until the region fully drains.
    /// Re-raises the region's captured panic, if any.
    fn run<F: Fn(usize) + Sync>(&self, ntasks: usize, f: &F) {
        unsafe fn shim<F: Fn(usize) + Sync>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` was produced from `&F` below and is still live.
            unsafe { (*(ctx as *const F))(i) }
        }
        self.core.stats.regions.fetch_add(1, Ordering::Relaxed);
        let region = Arc::new(RegionCore {
            job: Job {
                call: shim::<F>,
                ctx: f as *const F as *const (),
            },
            ntasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(ntasks),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let mut q = self.core.queue.lock().unwrap();
        // Prune exhausted regions here too, so the queue stays short while
        // every worker is busy and submitters finish their own regions.
        q.front();
        q.regions.push_back(Arc::clone(&region));
        for _ in 0..q.parked.min(ntasks) {
            self.core.work_cv.notify_one();
        }
        drop(q);

        {
            let _flag = FlagGuard(IN_POOL_REGION.with(|g| g.replace(true)));
            while region.run_one(&self.core.stats, false) {}
        }
        let mut g = region.done.lock().unwrap();
        while region.remaining.load(Ordering::Acquire) != 0 {
            g = region.done_cv.wait(g).unwrap();
        }
        drop(g);
        let panic = region.panic.lock().unwrap().take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.core.queue.lock().unwrap().shutdown = true;
        self.core.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Public pool type.
// ---------------------------------------------------------------------------

/// Monotone scheduler-health counters for one pool, from [`TaskPool::stats`].
///
/// All counters are cumulative since pool creation and approximate under
/// concurrency (relaxed atomics — they order nothing). The serial pool
/// reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions submitted (one per `run_chunks` or `run_tasks` call
    /// that did not run inline).
    pub regions: u64,
    /// Chunks executed across all regions.
    pub chunks: u64,
    /// Chunks that a pool worker ran for a region another thread
    /// submitted; the rest of `chunks` ran on the submitting thread itself.
    pub steals: u64,
    /// Times a worker went to sleep on the condvar (idle transitions).
    pub parks: u64,
}

/// A reusable fork-join pool with chunk-claiming scheduling and
/// deterministic reductions.
///
/// Cloning is cheap (an [`Arc`] bump) and clones share the same workers, so
/// a pool can be embedded in solver option structs and passed down a call
/// tree. The default value is the serial pool.
///
/// Every region call blocks until its region has drained. Concurrent use
/// is safe **and concurrent**: each region has its own claim counter and
/// completion state, so regions issued from several threads at once are all
/// outstanding together, their chunks spread across the workers. A panic
/// inside a region body propagates to the thread that submitted that
/// region; other regions and the pool are unaffected.
///
/// Worker threads are joined when the last clone is dropped.
///
/// ```
/// use sparsemat::par::TaskPool;
///
/// let pool = TaskPool::new(4);
/// let x: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
/// // Same bits as TaskPool::serial().dot(&x, &x), whatever the thread count.
/// assert_eq!(pool.dot(&x, &x), TaskPool::serial().dot(&x, &x));
/// ```
#[derive(Clone, Default)]
pub struct TaskPool {
    inner: Option<Arc<PoolHandle>>,
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl TaskPool {
    /// The serial pool: every operation runs inline on the caller.
    pub fn serial() -> TaskPool {
        TaskPool { inner: None }
    }

    /// Creates a pool targeting `threads` total threads (the caller counts
    /// as one; `threads - 1` workers are spawned). `0` means "use
    /// [`available_threads`]". Clamps to serial when `threads <= 1`.
    pub fn new(threads: usize) -> TaskPool {
        let want = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        if want <= 1 {
            return TaskPool::serial();
        }
        let extra = want - 1;
        let core = Arc::new(Core {
            queue: Mutex::new(Queue {
                regions: VecDeque::new(),
                parked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            stats: CoreStats::default(),
        });
        let workers = (0..extra)
            .map(|i| {
                let c = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("se-pool-{i}"))
                    .spawn(move || worker_loop(c))
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool {
            inner: Some(Arc::new(PoolHandle {
                core,
                extra,
                workers,
            })),
        }
    }

    /// Total threads this pool uses, caller included (1 for the serial pool).
    pub fn threads(&self) -> usize {
        self.inner.as_ref().map_or(1, |h| h.extra + 1)
    }

    /// Whether operations may actually run on more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.inner.is_some()
    }

    /// Cumulative scheduler counters (zeros for the serial pool).
    pub fn stats(&self) -> PoolStats {
        self.inner.as_ref().map_or(PoolStats::default(), |h| {
            let s = &h.core.stats;
            PoolStats {
                regions: s.regions.load(Ordering::Relaxed),
                chunks: s.chunks.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                parks: s.parks.load(Ordering::Relaxed),
            }
        })
    }

    /// Workers currently parked on the idle condvar — a point-in-time gauge
    /// between 0 and `threads() - 1`. 0 for the serial pool.
    pub fn parked_workers(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |h| h.core.queue.lock().unwrap().parked)
    }

    /// Runs `body(start, end)` over consecutive ranges `[start, end)` of
    /// width `chunk` covering `0..len`. Ranges are disjoint and cover `len`
    /// exactly once; each is executed by exactly one thread. Small inputs
    /// (`len < PAR_MIN`) run inline.
    pub fn run_chunks<F: Fn(usize, usize) + Sync>(&self, len: usize, chunk: usize, body: F) {
        let chunk = chunk.max(1);
        self.run_indexed(len.div_ceil(chunk), len >= PAR_MIN, |c| {
            let s = c * chunk;
            body(s, (s + chunk).min(len));
        });
    }

    /// Runs `body(i)` for every `i in 0..ntasks`, one task per index, and
    /// returns once all have finished. There is **no** size threshold —
    /// each index is meant to be substantial work (a whole inner solve, a
    /// buffer to fill) — and each runs exactly once on exactly one thread.
    pub fn run_tasks<F: Fn(usize) + Sync>(&self, ntasks: usize, body: F) {
        self.run_indexed(ntasks, true, body);
    }

    /// The one place that decides inline versus pooled: `runner` runs
    /// inline over `0..ntasks` on the serial pool, for a single task, when
    /// the input is not `big_enough`, or when nested inside another region;
    /// otherwise the region is submitted and joined.
    fn run_indexed<F: Fn(usize) + Sync>(&self, ntasks: usize, big_enough: bool, runner: F) {
        let parallel = self
            .inner
            .as_ref()
            .filter(|_| big_enough && ntasks > 1 && !IN_POOL_REGION.with(|f| f.get()));
        match parallel {
            Some(h) => h.run(ntasks, &runner),
            None => (0..ntasks).for_each(runner),
        }
    }

    /// Splits `data` into consecutive chunks of width `chunk` and runs
    /// `body(offset, sub_slice)` on each from some thread. Chunks are
    /// disjoint, so `body` needs no synchronisation.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        let base = slice_sender(data);
        self.run_chunks(len, chunk, move |s, e| {
            // SAFETY: `run_chunks` hands out disjoint [s, e) ranges within
            // `len`, and `data` outlives the (blocking) region.
            let sub = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            body(s, sub);
        });
    }

    /// Deterministic dot product — the same bits as [`det_dot`] for every
    /// thread count (see the module docs for why).
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        self.pooled_total(a.len(), |s, e| chunk_dot(&a[s..e], &b[s..e]))
    }

    /// Deterministic sum — the same bits as [`det_sum`] for every thread
    /// count.
    pub fn sum(&self, a: &[f64]) -> f64 {
        self.pooled_total(a.len(), |s, e| chunk_sum(&a[s..e]))
    }

    /// Euclidean norm via the deterministic [`TaskPool::dot`].
    pub fn norm(&self, a: &[f64]) -> f64 {
        self.dot(a, a).sqrt()
    }

    /// The pooled [`det_fold`]: per-chunk partials land in one slot each
    /// and are folded serially in chunk order from `0.0`, so the bits match
    /// it exactly.
    fn pooled_total<F: Fn(usize, usize) -> f64 + Sync>(&self, n: usize, part: F) -> f64 {
        if n <= DET_CHUNK {
            // One chunk (or none: an empty span sums to -0.0, and the total's
            // 0.0 start turns that into 0.0); no slot array needed.
            return 0.0 + part(0, n);
        }
        let mut partials = vec![0.0f64; n.div_ceil(DET_CHUNK)];
        let slots = slice_sender(&mut partials);
        self.run_chunks(n, DET_CHUNK, move |s, e| {
            // SAFETY: one slot per chunk index; chunk indices are executed
            // by exactly one thread and `partials` outlives the region.
            unsafe { *slots.get().add(s / DET_CHUNK) = part(s, e) };
        });
        partials.iter().fold(0.0, |total, p| total + p)
    }
}

/// Wraps a mutable slice's base pointer so the chunk bodies of
/// [`TaskPool::for_each_chunk_mut`] and `pooled_total` can write disjoint
/// index ranges of it from several threads.
///
/// # Safety contract
/// Each chunk must write only indices it exclusively owns, and the slice
/// must outlive the region (guaranteed: every region call blocks until its
/// region drains).
fn slice_sender<T: Send>(data: &mut [T]) -> SliceSender<T> {
    SliceSender(data.as_mut_ptr())
}

/// See [`slice_sender`].
struct SliceSender<T>(*mut T);

impl<T> SliceSender<T> {
    /// The base pointer; index with `.add(i)` for exclusively-owned `i`.
    /// An accessor rather than a field access, so closures capture the whole
    /// `Send + Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SliceSender<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SliceSender<T> {}

// SAFETY: every use writes through disjoint index ranges (one chunk index is
// executed by exactly one thread), and the owner outlives the region.
unsafe impl<T: Send> Send for SliceSender<T> {}
unsafe impl<T: Send> Sync for SliceSender<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_vec(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * f).sin() + 0.25).collect()
    }

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
        let pool = TaskPool::new(2);
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
                    assert_eq!(pool.dot(&a, &b).to_bits(), dot, "{case}");
                    assert_eq!(pool.sum(&a).to_bits(), sum, "{case}");
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
            assert_eq!(pool.sum(&z).to_bits(), want, "n = {n}");
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
    fn pool_chunks_cover_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            let mut v = vec![0u64; 50_000];
            pool.for_each_chunk_mut(&mut v, 333, |start, block| {
                for (i, x) in block.iter_mut().enumerate() {
                    *x += (start + i) as u64 + 1;
                }
            });
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i as u64 + 1, "at {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn dot_bit_identical_across_thread_counts() {
        let a = test_vec(100_003, 0.37);
        let b = test_vec(100_003, 0.61);
        let reference = det_dot(&a, &b);
        for threads in [1, 2, 3, 4, 8] {
            let pool = TaskPool::new(threads);
            assert_eq!(
                pool.dot(&a, &b).to_bits(),
                reference.to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sum_bit_identical_across_thread_counts() {
        let a = test_vec(77_777, 0.13);
        let reference = det_sum(&a);
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            assert_eq!(pool.sum(&a).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn dot_matches_plain_sum_closely() {
        // Chunked summation is a reordering; it must agree with the naive
        // sum to (tight) floating-point accuracy.
        let a = test_vec(30_000, 0.17);
        let naive: f64 = a.iter().map(|x| x * x).sum();
        let chunked = det_dot(&a, &a);
        assert!((naive - chunked).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn pool_is_reusable_many_times() {
        let pool = TaskPool::new(4);
        let a = test_vec(20_000, 0.29);
        let first = pool.dot(&a, &a);
        for _ in 0..100 {
            assert_eq!(pool.dot(&a, &a).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn clones_share_workers() {
        let pool = TaskPool::new(4);
        let clone = pool.clone();
        assert_eq!(pool.threads(), clone.threads());
        let a = test_vec(10_000, 0.41);
        assert_eq!(pool.dot(&a, &a).to_bits(), clone.dot(&a, &a).to_bits());
    }

    #[test]
    fn serial_pool_reports_one_thread() {
        assert_eq!(TaskPool::serial().threads(), 1);
        assert!(!TaskPool::serial().is_parallel());
        assert_eq!(TaskPool::default().threads(), 1);
    }

    #[test]
    fn new_spawns_requested_threads() {
        assert_eq!(TaskPool::new(3).threads(), 3);
        assert!(TaskPool::new(3).is_parallel());
    }

    #[test]
    fn nested_regions_degrade_to_serial() {
        // A body that itself calls into the pool must not deadlock.
        let pool = TaskPool::new(4);
        let inner = pool.clone();
        let a = test_vec(8192, 0.3);
        let expected = det_dot(&a, &a);
        let hits = AtomicUsize::new(0);
        pool.run_chunks(8192, 512, |_, _| {
            let d = inner.dot(&a, &a);
            assert_eq!(d.to_bits(), expected.to_bits());
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn concurrent_regions_on_shared_pool() {
        // Several threads hammering clones of one pool now run their regions
        // genuinely concurrently; each must still see exact bits.
        let pool = TaskPool::new(4);
        let a = test_vec(50_000, 0.23);
        let expected = det_dot(&a, &a).to_bits();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = pool.clone();
                let a = &a;
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(p.dot(a, a).to_bits(), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_region_propagates_and_pool_survives() {
        let pool = TaskPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_chunks(20_000, 256, |s, _| {
                if s == 0 {
                    panic!("chunk failed");
                }
            });
        }));
        assert!(caught.is_err(), "region panic must reach the caller");
        // The pool must stay fully usable: workers alive, caller's nesting
        // flag restored (so this region still goes parallel), bits intact.
        let a = test_vec(20_000, 0.19);
        assert_eq!(pool.dot(&a, &a).to_bits(), det_dot(&a, &a).to_bits());
        let hits = AtomicUsize::new(0);
        pool.run_chunks(20_000, 256, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 20_000usize.div_ceil(256));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = TaskPool::new(4);
        assert_eq!(pool.dot(&[], &[]), 0.0);
        assert_eq!(pool.sum(&[]), 0.0);
        assert_eq!(pool.dot(&[2.0], &[3.0]), 6.0);
        let mut v: Vec<u8> = Vec::new();
        pool.for_each_chunk_mut(&mut v, 16, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn run_tasks_runs_every_index_once_and_surfaces_panics() {
        // No size threshold: even 64 trivial tasks form a region on a
        // parallel pool, and the serial pool runs them inline.
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
            // usable. A pooled region still runs every other task; inline,
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
            assert!(caught.is_err(), "{threads} threads: panic must surface");
            let expect_ran = if pool.is_parallel() { 31 } else { 5 };
            assert_eq!(ran.load(Ordering::Relaxed), expect_ran, "{threads} threads");
            let a = test_vec(20_000, 0.31);
            assert_eq!(pool.dot(&a, &a).to_bits(), det_dot(&a, &a).to_bits());
        }
    }

    #[test]
    fn stats_count_regions_and_chunks() {
        let pool = TaskPool::new(4);
        let before = pool.stats();
        let a = test_vec(40_960, 0.2);
        let _ = pool.dot(&a, &a);
        let after = pool.stats();
        if pool.is_parallel() {
            assert_eq!(after.regions, before.regions + 1);
            assert_eq!(after.chunks, before.chunks + 40);
        } else {
            assert_eq!(after, PoolStats::default());
        }
        assert!(pool.parked_workers() < pool.threads().max(1));
    }

    #[test]
    fn joiner_finishes_its_region_while_the_only_worker_is_stuck() {
        use std::sync::atomic::AtomicBool;
        let pool = TaskPool::new(2);
        let started = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let done_b = AtomicUsize::new(0);
        // Let the worker park first, so region A's submission must wake it.
        while pool.parked_workers() == 0 {
            std::thread::yield_now();
        }
        std::thread::scope(|s| {
            // Region A: both tasks spin until region B's last task releases
            // them. Its submitter claims one and the pool's one worker the
            // other, so once both started, every pool thread is stuck in A.
            let a = s.spawn(|| {
                pool.run_tasks(2, |_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                });
            });
            while started.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            pool.run_tasks(64, |i| {
                done_b.fetch_add(1, Ordering::SeqCst);
                if i == 63 {
                    release.store(true, Ordering::SeqCst);
                }
            });
            assert_eq!(done_b.load(Ordering::SeqCst), 64, "B complete at its join");
            a.join().unwrap();
        });
        assert!(release.load(Ordering::SeqCst));
        // Every chunk is counted once; steals are the worker's share of them.
        let before = pool.stats();
        pool.run_chunks(40 * DET_CHUNK, DET_CHUNK, |_, _| {});
        let after = pool.stats();
        assert_eq!(after.regions - before.regions, 1);
        assert_eq!(after.chunks - before.chunks, 40);
        assert!(after.steals - before.steals <= 40);
    }

    #[test]
    fn irregular_chunk_costs_stay_deterministic() {
        // Seeded, wildly uneven per-chunk work: which thread claims which
        // chunk varies from run to run, but the output must not care.
        let n = 60_000;
        let mut reference = Vec::new();
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            let mut out = vec![0u64; n];
            pool.for_each_chunk_mut(&mut out, 256, |start, block| {
                // xorshift-seeded spin proportional to a pseudo-random cost.
                let mut s = (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let spin = (s % 97) * 50;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k ^ s);
                }
                std::hint::black_box(acc);
                for (i, x) in block.iter_mut().enumerate() {
                    *x = (start + i) as u64 ^ s;
                }
            });
            if reference.is_empty() {
                reference = out;
            } else {
                assert_eq!(out, reference, "{threads} threads");
            }
        }
    }
}
