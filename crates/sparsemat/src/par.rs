//! Chunk-claiming task pool and deterministic parallel reductions.
//!
//! The workspace deliberately carries no external dependencies, so the
//! parallel kernels are expressed through this std-only module instead of
//! rayon. Two design constraints shape everything here:
//!
//! 1. **Reuse and overlap** — a matvec inside Lanczos runs thousands of
//!    times per ordering; spawning OS threads per call would cost more than
//!    the work. [`TaskPool`] therefore keeps a set of persistent workers. A
//!    parallel *region* — one `run_chunks` call or one scope spawn — is its
//!    own region object holding a claim counter, a completion count and a
//!    panic slot, and any helping thread claims the region's next unclaimed
//!    task with one atomic increment. There is no global region lock:
//!    **independent regions from different threads (or from one thread, via
//!    [`TaskPool::scope`]) are outstanding concurrently**, and workers drain
//!    whatever is runnable. A panic inside a region body is captured in that
//!    region, every chunk still runs, and the panic resumes on the thread
//!    that joins the region — other in-flight regions and the pool itself
//!    are unaffected.
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
//! * Joining a thread (a blocking caller, [`RegionHandle::join`] or the end
//!   of a scope) claims tasks of *its own* region directly — it never waits
//!   on a worker that is busy elsewhere — then blocks on the region's
//!   completion condvar until the chunks workers claimed have finished.

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
// Deterministic serial reference reductions (also used by the pool itself).
// ---------------------------------------------------------------------------

#[inline]
fn chunk_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn chunk_sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// `Σ part(s, e)` over the [`DET_CHUNK`] grid of `0..n`, in chunk order.
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

/// Deterministic chunked dot product: `Σ aᵢbᵢ` accumulated per
/// [`DET_CHUNK`]-wide span, spans combined in order.
///
/// [`TaskPool::dot`] returns exactly these bits for every thread count.
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "det_dot: length mismatch");
    det_total(a.len(), |s, e| chunk_dot(&a[s..e], &b[s..e]))
}

/// Deterministic chunked sum, the [`det_dot`] of a vector with all-ones —
/// same chunking, same guarantee.
pub fn det_sum(a: &[f64]) -> f64 {
    det_total(a.len(), |s, e| chunk_sum(&a[s..e]))
}

// ---------------------------------------------------------------------------
// Pool internals.
// ---------------------------------------------------------------------------

/// A type-erased region body: `call(ctx, i)` invokes the caller's closure on
/// task index `i`. The pointer refers either to the stack frame of a blocking
/// submission (which stays blocked until the region drains) or to a boxed
/// closure owned by a [`Scope`] (dropped only after every region joined) —
/// so the pointee strictly outlives every use.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: the context pointer is only dereferenced while the owning
// submission (blocking call or scope) keeps the closure alive, and the
// closure is `Sync` (enforced by the submission bounds), so shared calls
// from several threads are fine.
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
    /// re-raised on the thread that joins the region.
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
        // joiner between its `remaining` check and `wait` can't miss it.
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

impl Core {
    /// Runs tasks of `region` on the calling thread until all are claimed,
    /// then blocks until the region fully drains. Re-raises the region's
    /// captured panic, if any.
    fn join_region(&self, region: &RegionCore) {
        {
            let _flag = FlagGuard(IN_POOL_REGION.with(|g| g.replace(true)));
            while region.run_one(&self.stats, false) {}
        }
        let mut g = region.done.lock().unwrap();
        while region.remaining.load(Ordering::Acquire) != 0 {
            g = region.done_cv.wait(g).unwrap();
        }
        drop(g);
        if let Some(p) = region.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
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
    /// Builds a region over `ntasks` indices, queues it and wakes up to
    /// `ntasks` parked workers.
    fn submit<F: Fn(usize) + Sync>(&self, ntasks: usize, f: &F) -> Arc<RegionCore> {
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
        // every worker is busy and joiners finish their own regions.
        q.front();
        q.regions.push_back(Arc::clone(&region));
        for _ in 0..q.parked.min(ntasks) {
            self.core.work_cv.notify_one();
        }
        region
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
    /// Parallel regions submitted (one per `run_chunks` call or spawn).
    pub regions: u64,
    /// Chunks executed across all regions.
    pub chunks: u64,
    /// Chunks that a pool worker ran for a region another thread
    /// submitted; the rest of `chunks` ran on the joining thread itself.
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
/// Concurrent use is safe **and concurrent**: each region has its own
/// claim counter and completion state, so regions issued from several
/// threads at once are all outstanding together, their chunks spread across
/// the workers. Use [`TaskPool::scope`] to overlap several regions from a
/// single thread. A panic inside a region body propagates to the thread
/// that joins that region; other regions and the pool are unaffected.
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
        let nchunks = len.div_ceil(chunk);
        let runner = move |c: usize| {
            let s = c * chunk;
            body(s, (s + chunk).min(len));
        };
        let parallel = self
            .inner
            .as_ref()
            .filter(|_| len >= PAR_MIN && nchunks > 1 && !IN_POOL_REGION.with(|f| f.get()));
        match parallel {
            Some(h) => h.core.join_region(&h.submit(nchunks, &runner)),
            None => (0..nchunks).for_each(runner),
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

    /// Opens a scope in which **multiple independent regions may be
    /// outstanding concurrently** from this one thread, spread across the
    /// same workers. Every region spawned inside is complete when `scope`
    /// returns (the caller helps drain them), so bodies may borrow from the
    /// enclosing stack frame.
    ///
    /// On the serial pool — or when called from inside another region — each
    /// spawn simply runs inline at the spawn site, preserving exact
    /// semantics and bit-identical results.
    ///
    /// If a spawned body panics, the panic is re-raised here (or at that
    /// region's [`RegionHandle::join`]) after *all* regions have drained;
    /// other regions run to completion unaffected.
    ///
    /// ```
    /// use sparsemat::par::TaskPool;
    /// let pool = TaskPool::new(4);
    /// let (mut a, mut b) = (vec![0u32; 5000], vec![0u32; 5000]);
    /// pool.scope(|s| {
    ///     s.spawn_chunks(5000, 256, {
    ///         let a = sparsemat::par::slice_sender(&mut a);
    ///         move |lo, hi| {
    ///             for i in lo..hi {
    ///                 unsafe { *a.get().add(i) = i as u32 }
    ///             }
    ///         }
    ///     });
    ///     s.spawn_chunks(5000, 256, {
    ///         let b = sparsemat::par::slice_sender(&mut b);
    ///         move |lo, hi| {
    ///             for i in lo..hi {
    ///                 unsafe { *b.get().add(i) = (i * 2) as u32 }
    ///             }
    ///         }
    ///     });
    /// });
    /// assert!(a.iter().enumerate().all(|(i, &v)| v as usize == i));
    /// assert!(b.iter().enumerate().all(|(i, &v)| v as usize == i * 2));
    /// ```
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            regions: std::cell::RefCell::new(Vec::new()),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join every outstanding region — also on the panic path, so bodies
        // borrowing the enclosing frame are done before we unwind past it.
        let regions = scope.regions.into_inner();
        let mut region_panic = None;
        if let Some(h) = &self.inner {
            for sr in &regions {
                let p = catch_unwind(AssertUnwindSafe(|| h.core.join_region(&sr.region))).err();
                if region_panic.is_none() {
                    region_panic = p;
                }
            }
        }
        drop(regions);
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some(p) = region_panic {
                    resume_unwind(p);
                }
                r
            }
        }
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

    /// The pooled [`det_total`]: per-chunk partials land in one slot each
    /// and are folded serially in chunk order, so the bits match it exactly.
    fn pooled_total<F: Fn(usize, usize) -> f64 + Sync>(&self, n: usize, part: F) -> f64 {
        if self.inner.is_none() || n < PAR_MIN {
            return det_total(n, part);
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

// ---------------------------------------------------------------------------
// Overlapping-region scope.
// ---------------------------------------------------------------------------

/// Keeps a spawned region's boxed closure alive until the scope joins it.
trait KeepAlive {}
impl<T: ?Sized> KeepAlive for T {}

struct ScopeRegion<'env> {
    region: Arc<RegionCore>,
    /// Owns the closure the region's `Job::ctx` points into.
    _keep: Box<dyn KeepAlive + Send + Sync + 'env>,
}

/// Spawn surface handed to the closure of [`TaskPool::scope`]. Regions
/// spawned here run concurrently with each other and with the caller's
/// continued execution; all are joined before `scope` returns.
pub struct Scope<'pool, 'env> {
    pool: &'pool TaskPool,
    regions: std::cell::RefCell<Vec<ScopeRegion<'env>>>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

/// Handle to one spawned region. [`RegionHandle::join`] blocks until that
/// region completes (helping to run its chunks) and re-raises its panic;
/// dropping the handle is fine — the scope joins every region on exit.
pub struct RegionHandle {
    target: Option<(Arc<Core>, Arc<RegionCore>)>,
}

impl RegionHandle {
    /// Waits for this region (claiming its unclaimed chunks on the calling
    /// thread), then re-raises the first panic captured in it, if any.
    /// Idempotent; a no-op for inline-executed (serial/nested) spawns.
    pub fn join(&self) {
        if let Some((core, region)) = &self.target {
            core.join_region(region);
        }
    }
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Like [`TaskPool::run_chunks`], but returns immediately with the
    /// region in flight (unless it runs inline — serial pool, small input,
    /// or nested inside another region). The chunk decomposition is the
    /// same fixed grid, so results are bit-identical to the blocking form.
    pub fn spawn_chunks<F>(&self, len: usize, chunk: usize, body: F) -> RegionHandle
    where
        F: Fn(usize, usize) + Sync + Send + 'env,
    {
        let chunk = chunk.max(1);
        let nchunks = len.div_ceil(chunk);
        let runner = move |c: usize| {
            let s = c * chunk;
            body(s, (s + chunk).min(len));
        };
        self.spawn_indexed(nchunks, len >= PAR_MIN, runner)
    }

    /// Runs `body(i)` for every `i in 0..ntasks`, one task per index, with
    /// the region in flight when this returns. There is **no** size
    /// threshold — each index is meant to be substantial work (a whole
    /// inner solve, a buffer to fill) — and each runs exactly once on
    /// exactly one thread (same inline fallbacks as [`Scope::spawn_chunks`]).
    pub fn spawn_tasks<F>(&self, ntasks: usize, body: F) -> RegionHandle
    where
        F: Fn(usize) + Sync + Send + 'env,
    {
        self.spawn_indexed(ntasks, true, body)
    }

    fn spawn_indexed<F>(&self, ntasks: usize, big_enough: bool, runner: F) -> RegionHandle
    where
        F: Fn(usize) + Sync + Send + 'env,
    {
        let parallel = self
            .pool
            .inner
            .as_ref()
            .filter(|_| big_enough && ntasks > 1 && !IN_POOL_REGION.with(|f| f.get()));
        let Some(h) = parallel else {
            (0..ntasks).for_each(runner);
            return RegionHandle { target: None };
        };
        let boxed = Box::new(runner);
        let region = h.submit(ntasks, &*boxed);
        self.regions.borrow_mut().push(ScopeRegion {
            region: Arc::clone(&region),
            _keep: boxed,
        });
        RegionHandle {
            target: Some((Arc::clone(&h.core), region)),
        }
    }
}

/// Wraps a mutable slice's base pointer so chunk bodies — in [`Scope`]
/// spawns and in the pool's own helpers — can write disjoint index ranges
/// of it from several threads, without each caller re-deriving the
/// `Send`/`Sync` wrapper.
///
/// # Safety contract
/// Each chunk must write only indices it exclusively owns, and the slice
/// must outlive the region (guaranteed for a blocking call, and for a scope
/// spawn when the slice borrows from the frame around `scope`, which joins
/// every region before returning).
pub fn slice_sender<T: Send>(data: &mut [T]) -> SliceSender<T> {
    SliceSender(data.as_mut_ptr())
}

/// See [`slice_sender`].
pub struct SliceSender<T>(*mut T);

impl<T> SliceSender<T> {
    /// The base pointer; index with `.add(i)` for exclusively-owned `i`.
    /// An accessor rather than a public field, so closures capture the whole
    /// `Send + Sync` wrapper, not the bare raw pointer.
    pub fn get(&self) -> *mut T {
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
    fn scope_overlapping_regions_cover_both() {
        for threads in [1, 2, 4, 8] {
            let pool = TaskPool::new(threads);
            let mut a = vec![0u64; 30_000];
            let mut b = vec![0u64; 30_000];
            pool.scope(|s| {
                let pa = slice_sender(&mut a);
                s.spawn_chunks(30_000, 512, move |lo, hi| {
                    for i in lo..hi {
                        // SAFETY: disjoint chunk ranges, `a` outlives scope.
                        unsafe { *pa.get().add(i) = i as u64 + 1 };
                    }
                });
                let pb = slice_sender(&mut b);
                s.spawn_chunks(30_000, 512, move |lo, hi| {
                    for i in lo..hi {
                        // SAFETY: as above for `b`.
                        unsafe { *pb.get().add(i) = (i as u64) * 3 };
                    }
                });
            });
            for i in 0..30_000 {
                assert_eq!(a[i], i as u64 + 1, "{threads} threads");
                assert_eq!(b[i], (i as u64) * 3, "{threads} threads");
            }
        }
    }

    #[test]
    fn scope_handle_join_is_idempotent_and_early() {
        let pool = TaskPool::new(4);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            let h = s.spawn_tasks(64, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            h.join();
            assert_eq!(total.load(Ordering::Relaxed), 64);
            h.join(); // idempotent
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_panic_in_one_region_does_not_poison_the_other() {
        let pool = TaskPool::new(4);
        let mut good = vec![0u8; 10_000];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let pg = slice_sender(&mut good);
                s.spawn_chunks(10_000, 128, move |lo, hi| {
                    for i in lo..hi {
                        // SAFETY: disjoint chunk ranges, outlives scope.
                        unsafe { *pg.get().add(i) = 7 };
                    }
                });
                s.spawn_tasks(32, |i| {
                    if i == 5 {
                        panic!("region two failed");
                    }
                });
            });
        }));
        assert!(caught.is_err(), "spawned region panic must surface");
        assert!(good.iter().all(|&x| x == 7), "healthy region completed");
        // Pool fully usable afterwards.
        let a = test_vec(20_000, 0.31);
        assert_eq!(pool.dot(&a, &a).to_bits(), det_dot(&a, &a).to_bits());
    }

    #[test]
    fn scope_spawn_runs_inline_on_serial_pool() {
        let pool = TaskPool::serial();
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            let h = s.spawn_tasks(10, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            // Inline: already complete at the spawn site.
            assert_eq!(hits.load(Ordering::Relaxed), 10);
            h.join();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
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
        let started = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let done_b = AtomicUsize::new(0);
        // Let the worker park first, so region A's submission must wake it.
        while pool.parked_workers() == 0 {
            std::thread::yield_now();
        }
        pool.scope(|s| {
            // Region A: task 0 spins until region B's last task releases it.
            // Only the worker can claim it before the scope ends, so once
            // `started` is set the pool's one worker is stuck in A.
            s.spawn_tasks(2, |i| {
                if i == 0 {
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                }
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let h_b = s.spawn_tasks(64, |i| {
                done_b.fetch_add(1, Ordering::SeqCst);
                if i == 63 {
                    release.store(true, Ordering::SeqCst);
                }
            });
            h_b.join();
            assert_eq!(done_b.load(Ordering::SeqCst), 64, "B complete at its join");
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
