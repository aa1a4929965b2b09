//! The engine layer: everything below the wire.
//!
//! Owns the [`WorkerPool`], the [`ShardedOrderingCache`], the [`Metrics`]
//! and the shutdown state. Sessions call [`Engine::submit_order_with`] /
//! [`Engine::stats_snapshot`] / [`Engine::begin_shutdown`] and never touch
//! sockets; the reactor never touches orderings. A submitted order never
//! blocks its session: the outcome arrives through a completion callback
//! on the worker thread, and the session enforces the wall-clock timeout.

use crate::cache::ShardedOrderingCache;
use crate::membership::Transition;
use crate::mesh::{Mesh, MeshTuning};
use crate::metrics::{Gauges, MeshGauges, Metrics};
use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{
    ErrorResponse, MatrixFormat, MatrixSource, OrderRequest, OrderResponse, PermPayload,
};
use crate::server::Config;
use se_faults::{lock_unpoisoned, sites, Budget, FaultPlane};
use se_trace::{SpanEvent, Tracer};
use sparsemat::pattern::SymmetricPattern;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering as AtOrd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The result of one ORDER execution, as sessions see it.
pub type OrderOutcome = Result<OrderResponse, ErrorResponse>;

/// One progress notification from a running ORDER, produced on the worker
/// thread as se-trace spans close. The session layer adds the request id
/// and puts it on the wire as a `PROGRESS` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressUpdate {
    /// The span that just closed (`"lanczos"`, `"coarsest_solve"`,
    /// `"level[k]"`, `"rqi"`, `"degrade"`).
    pub stage: String,
    /// Monotone best-effort completion estimate in `[0, 100]`.
    pub percent: f64,
    /// Wall-clock µs since the request started executing.
    pub micros: u64,
    /// Cumulative matrix–vector products across eigensolver spans, once
    /// any span has reported them.
    pub matvecs: Option<u64>,
}

/// Where progress updates go: called on the worker thread, so it must be
/// cheap and non-blocking (the reactor sessions post to an inbox).
pub type ProgressSink = Arc<dyn Fn(ProgressUpdate) + Send + Sync>;

/// Minimum gap between emitted progress updates (the first one is free).
/// Keeps a deep multigrid hierarchy from flooding the connection.
const PROGRESS_THROTTLE: Duration = Duration::from_millis(10);

/// The compute core of the service: worker pool + sharded cache + metrics +
/// shutdown choreography, with no knowledge of sockets or framing.
pub struct Engine {
    /// `None` once a SHUTDOWN has taken the pool for draining.
    pool: Mutex<Option<WorkerPool>>,
    cache: ShardedOrderingCache,
    metrics: Metrics,
    /// Set once the drain finished and the SHUTDOWN ack went out;
    /// [`crate::ServerHandle::join`] waits on it so the process outlives
    /// the ack.
    shutdown_complete: (Mutex<bool>, Condvar),
    default_timeout: Duration,
    solver_threads: usize,
    log_requests: bool,
    /// Budgets of the id'd ORDER requests now queued or running. One
    /// mutex guards registration, CANCEL and the job's final check, so a
    /// cancel either flips the budget of a pending job (which then
    /// observes it) or finds the id gone and reports nothing pending.
    pending: Mutex<HashMap<u64, Budget>>,
    /// Deterministic fault-injection plane shared by every worker
    /// ([`FaultPlane::disabled`] in production).
    faults: FaultPlane,
    /// The listener's bound address — a plain node's name in PING answers.
    addr: SocketAddr,
    /// The consistent-hash peer mesh, present when `Config::peers` is
    /// non-empty. Owns the live ring, the member table, the hint log and
    /// the per-peer connection pools.
    mesh: Option<Mesh>,
    /// Stop signal for the mesh heartbeat thread
    /// ([`Engine::start_mesh_tasks`]); flipped by
    /// [`Engine::begin_shutdown`].
    mesh_stop: Arc<(Mutex<bool>, Condvar)>,
    /// Set once the startup JOIN announcement and WARM pull have finished
    /// (immediately for a node without a mesh). Lets tests — and operators
    /// scripting a rolling restart — distinguish "listening" from "warmed
    /// up": before this flips, a WARM exchange may still be in flight.
    mesh_warmed: AtomicBool,
}

impl Engine {
    /// Builds the engine from the server configuration and the already-bound
    /// listener address. Fails only when a cache directory is configured and
    /// cannot be created.
    pub fn new(cfg: &Config, addr: SocketAddr) -> std::io::Result<Engine> {
        let mut cache = match &cfg.cache_dir {
            Some(dir) => ShardedOrderingCache::open_budgeted(
                cfg.cache_budget_bytes,
                cfg.cache_shards,
                dir,
                cfg.cache_dir_budget,
            )?,
            None => ShardedOrderingCache::new(cfg.cache_budget_bytes, cfg.cache_shards),
        };
        cache.set_faults(cfg.faults.clone());
        let mesh = if cfg.peers.is_empty() {
            None
        } else {
            Some(Mesh::new(
                &cfg.peers,
                cfg.replicas,
                addr,
                cfg.faults.clone(),
                MeshTuning::from_config(cfg),
            ))
        };
        Ok(Engine {
            pool: Mutex::new(Some(WorkerPool::new(cfg.workers, cfg.queue_capacity))),
            cache,
            metrics: Metrics::new(),
            shutdown_complete: (Mutex::new(false), Condvar::new()),
            default_timeout: Duration::from_millis(cfg.default_timeout_ms),
            solver_threads: cfg.solver_threads,
            log_requests: cfg.log_requests,
            pending: Mutex::new(HashMap::new()),
            faults: cfg.faults.clone(),
            addr,
            mesh,
            mesh_stop: Arc::new((Mutex::new(false), Condvar::new())),
            mesh_warmed: AtomicBool::new(false),
        })
    }

    /// The peer mesh, when this node was configured with `Config::peers`.
    pub fn mesh(&self) -> Option<&Mesh> {
        self.mesh.as_ref()
    }

    /// The engine's fault-injection plane (shared with every worker).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// The live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The ordering cache (exposed for tests and the composition root).
    pub fn cache(&self) -> &ShardedOrderingCache {
        &self.cache
    }

    /// Marks the drain as finished so [`Engine::wait_shutdown_complete`]
    /// returns.
    pub fn mark_shutdown_complete(&self) {
        *self.shutdown_complete.0.lock().unwrap() = true;
        self.shutdown_complete.1.notify_all();
    }

    /// Blocks until [`Engine::mark_shutdown_complete`] has run.
    pub fn wait_shutdown_complete(&self) {
        let mut done = self.shutdown_complete.0.lock().unwrap();
        while !*done {
            done = self.shutdown_complete.1.wait(done).unwrap();
        }
    }

    /// Stops accepting work, drains the pool, and returns how many jobs the
    /// pool completed over its lifetime. Idempotent: later calls return 0.
    pub fn begin_shutdown(self: &Arc<Self>) -> u64 {
        // Stop the mesh heartbeat thread before tearing anything down so a
        // half-shut node never PINGs peers or replays hints mid-drain.
        {
            let (stop, cvar) = &*self.mesh_stop;
            *lock_unpoisoned(stop) = true;
            cvar.notify_all();
        }
        let pool = lock_unpoisoned(&self.pool).take();
        let Some(pool) = pool else {
            return 0;
        };
        let completed = pool.shutdown_drain();
        // Announce the departure so peers reassign this node's key range
        // immediately instead of waiting out the suspicion window. Happens
        // once (the pool guard above) and before the handoff, so the
        // entries ship to the range's *new* owners.
        if let Some(mesh) = &self.mesh {
            mesh.announce_leave();
        }
        // Mesh drain: with a spill directory configured, ship every spill
        // file to its key's owner on the ring *without* this node, so a
        // rolling restart loses no cached work. Runs after the pool drain
        // (no more writers touch the directory) and, because the pool is
        // taken exactly once, only on the first SHUTDOWN.
        if let (Some(mesh), Some(dir)) = (&self.mesh, self.cache.dir()) {
            let entries = crate::persist::load_all(dir);
            if !entries.is_empty() {
                let total = entries.len();
                let shipped = mesh.handoff(entries, &self.metrics);
                if self.log_requests {
                    eprintln!("[spectral-orderd] op=handoff shipped={shipped} of={total}");
                }
            }
        }
        completed
    }

    /// The engine state STATS and METRICS report next to the counters.
    fn gauges(&self) -> Gauges {
        let (queue_depth, active_jobs) = match lock_unpoisoned(&self.pool).as_ref() {
            Some(p) => (p.queue_depth(), p.active()),
            None => (0, 0),
        };
        Gauges {
            queue_depth,
            active_jobs,
            shards: self.cache.shard_stats(),
            persistent: self.cache.dir().is_some(),
            mesh: self.mesh.as_ref().map(|m| MeshGauges {
                peers: m.size(),
                replicas: m.replicas(),
                self_name: m.self_name().to_string(),
                members: m.members().snapshot(),
                hints_queued: m.hints_queued(),
            }),
        }
    }

    /// The STATS snapshot ([`Metrics::snapshot`]).
    pub fn stats_snapshot(&self) -> crate::json::Json {
        self.metrics.snapshot(&self.gauges())
    }

    /// Cancels the in-flight ORDER with client-assigned `id`. Returns
    /// whether the id was still pending: a queued job is dropped before it
    /// computes, a running one aborts at its next budget check (or
    /// finishes) and its response is replaced by an error line. Cancelling
    /// an unknown (or already completed) id is a no-op reporting `false`.
    pub fn cancel(&self, id: u64) -> bool {
        match lock_unpoisoned(&self.pending).get(&id) {
            Some(budget) => {
                budget.cancel();
                true
            }
            None => false,
        }
    }

    /// Submits one ordering job without blocking: `done` runs on the worker
    /// thread when the outcome is ready, and `progress` (when given)
    /// receives [`ProgressUpdate`]s while the solve runs. Returns the
    /// request's effective wall-clock timeout so the caller can arm its own
    /// deadline — *nothing* here enforces it; the session answers the
    /// timeout itself and drops the late completion when it eventually
    /// arrives.
    pub fn submit_order_with(
        self: &Arc<Self>,
        req: OrderRequest,
        progress: Option<ProgressSink>,
        done: Box<dyn FnOnce(OrderOutcome) + Send>,
    ) -> Result<Duration, ErrorResponse> {
        self.metrics.inc(&self.metrics.orders);
        let timeout = req
            .timeout_ms
            .map_or(self.default_timeout, Duration::from_millis);
        // The solver gets a slightly earlier deadline than the session's
        // wall-clock timeout: the reserved slice pays for queueing and
        // response encoding, so a solve that would blow the timeout instead
        // aborts cooperatively and degrades to a cheaper rung in time to
        // still answer.
        let budget = Budget::new(Some(solver_deadline(timeout)), None);
        let job_engine = Arc::clone(self);
        if let Some(id) = req.id {
            lock_unpoisoned(&self.pending).insert(id, budget.clone());
        }
        let done = DoneGuard {
            done: Some(done),
            armed: false,
            pending: req.id.map(|id| (id, budget.clone())),
            engine: Arc::clone(self),
        };
        let submit = {
            let guard = lock_unpoisoned(&self.pool);
            match guard.as_ref() {
                Some(pool) => pool.try_submit(Box::new(move || {
                    let mut done = done;
                    // From here on the submitter is answered even if the
                    // job panics (the guard fires on unwind).
                    done.armed = true;
                    // A queued job whose id was cancelled is dropped before
                    // it computes; one cancelled mid-run aborts or finishes
                    // but its response is suppressed. Both paths answer the
                    // submitter with the same error line.
                    let out = (!budget.is_cancelled())
                        .then(|| job_engine.execute_order(&req, &budget, progress.as_ref()));
                    let outcome = match out {
                        Some(out) if !done.unregister() => out,
                        _ => {
                            job_engine.metrics.inc(&job_engine.metrics.cancelled);
                            Err(ErrorResponse::fatal("request cancelled"))
                        }
                    };
                    done.complete(outcome);
                })),
                None => Err(SubmitError::ShuttingDown),
            }
        };
        match submit {
            Ok(()) => Ok(timeout),
            Err(SubmitError::QueueFull) => {
                self.metrics.inc(&self.metrics.queue_rejections);
                Err(ErrorResponse::retriable("queue full, retry later"))
            }
            Err(SubmitError::ShuttingDown) => {
                self.metrics.inc(&self.metrics.errors);
                Err(ErrorResponse::fatal("server is shutting down"))
            }
        }
    }

    /// Worker-side execution: consult the payload alias, then the mesh's
    /// route memo, else parse, consult the cache, order, record metrics.
    /// A hit returns the cache's pre-encoded payload
    /// ([`PermPayload::Cached`]) so the session writes the stored bytes
    /// without re-encoding; a miss inserts and reuses the freshly encoded
    /// payload the same way. The ordering runs through the
    /// graceful-degradation ladder under `budget`, so an exhausted
    /// deadline, a CANCEL or an injected solver fault yields a valid
    /// (degraded) permutation instead of an error whenever possible.
    fn execute_order(
        &self,
        req: &OrderRequest,
        budget: &Budget,
        progress: Option<&ProgressSink>,
    ) -> OrderOutcome {
        let t0 = Instant::now();
        // Chaos site: a worker thread dying mid-request. The pool catches
        // the panic (the submitter sees "worker dropped the request"), and
        // every shared lock recovers from the poisoning.
        if self.faults.should_fail(sites::WORKER_PANIC) {
            panic!("injected worker panic ({})", sites::WORKER_PANIC);
        }
        // An exact resend of a payload whose entry is present answers
        // here, before the payload is parsed; the entry's shape guard
        // supplies `n` and `nnz`.
        let alias = self.payload_alias(req);
        if let Some(hit) = alias.as_ref().and_then(|a| self.cache.get_alias(a)) {
            return self.finish(req, t0, self.hit_response(req, hit));
        }
        // Mesh: an exact resend of a payload this node already forwarded
        // is forwarded again under its remembered key, without parsing or
        // keying it, while the live ring still routes that key elsewhere.
        // If every peer fails, the request computes locally below without
        // a second forward round. `hop` marks a request that already
        // crossed the mesh once; it is never forwarded again.
        let mut forwarder = self.mesh.as_ref().filter(|_| !req.hop);
        if let (Some(mesh), Some(alias)) = (forwarder, &alias) {
            if let Some(key) = mesh.remembered_route(alias).filter(|&k| !mesh.owns(k)) {
                if let Some(resp) = mesh.forward(key, req, &self.metrics) {
                    return self.relay(req, t0, resp);
                }
                forwarder = None;
            }
        }
        let g = match load_pattern(&req.source) {
            Ok(g) => g,
            Err(e) => {
                self.metrics.inc(&self.metrics.errors);
                return Err(e);
            }
        };
        let key = crate::cache::pattern_key(&g, req.alg, req.compressed);
        // A traced request bypasses the cache lookup — its span tree must
        // describe an actual computation — but the computed ordering is
        // still inserted below for future untraced hits. The trace subtree
        // itself is never cached.
        let cached = if req.trace {
            None
        } else {
            self.cache.get_keyed(key, &g)
        };
        if let Some(hit) = cached {
            if let Some(alias) = alias {
                self.cache.add_alias(alias, key);
            }
            return self.finish(req, t0, self.hit_response(req, hit));
        }
        // Mesh: a local miss for a key another node is responsible for
        // forwards to the owner (then its replicas) and relays the peer's
        // response unchanged — degraded marker, trace and all. A `hop`
        // request's receiver answers strictly locally, so disagreeing ring
        // views cost at most one wasted computation, never a loop. When
        // every candidate peer is unreachable the request falls through to
        // local computation: the mesh degrades to independent nodes
        // instead of erroring.
        if let Some(mesh) = forwarder.filter(|m| !m.owns(key)) {
            if let Some(resp) = mesh.forward(key, req, &self.metrics) {
                if let Some(alias) = alias {
                    mesh.remember_route(alias, key);
                }
                return self.relay(req, t0, resp);
            }
        }
        self.metrics.inc(&self.metrics.cache_misses);
        // Clamp the client-supplied thread count to the machine's actual
        // parallelism: `0` keeps its "all cores" meaning, anything else is
        // capped so a hostile request can't make the server spawn an
        // unbounded number of OS threads. (Decode already rejects values
        // above `MAX_REQUEST_THREADS` as malformed.)
        let threads = match req.threads.unwrap_or(self.solver_threads) {
            0 => 0,
            t => t.min(sparsemat::par::available_threads()),
        };
        // Only TraceMin reads the count: each of its outer steps starts at
        // most `threads − 1` helpers for its inner solves and joins them
        // before the next. Every other algorithm solves on this worker
        // thread.
        let mut solver = se_order::SolverOpts::with_threads(threads);
        // Every computed ordering runs under an enabled tracer: its span
        // tree feeds the per-stage histograms METRICS exposes and, when the
        // request asked, the response's trace field. An enabled tracer
        // never changes numerical results; a progress-observing one only
        // adds a sink call per span close.
        let tracer = match progress {
            Some(sink) => Tracer::enabled_with_observer(progress_observer(Arc::clone(sink), t0)),
            None => Tracer::enabled(),
        };
        solver.trace = tracer.clone();
        solver.budget = budget.clone();
        solver.faults = self.faults.clone();
        let computed = if req.compressed {
            se_order::order_compressed_degraded_with(&g, req.alg, &solver)
        } else {
            se_order::order_degraded_with(&g, req.alg, &solver)
        };
        let outcome = match computed {
            Ok(v) => v,
            Err(e) => {
                self.metrics.inc(&self.metrics.errors);
                return Err(ErrorResponse::fatal(format!(
                    "{} ordering failed: {e}",
                    req.alg.name()
                )));
            }
        };
        if let Some(reason) = &outcome.degraded {
            self.metrics.degraded_orders.inc(reason);
        }
        if let Some(stage) = outcome.budget_abort_stage {
            self.metrics.budget_aborts.inc(stage);
        }
        let o = outcome.ordering;
        let ratio = req.compressed.then_some(outcome.compression_ratio);
        // Cache clean results always. Among degraded ones, only
        // `not_converged` is a deterministic property of the matrix worth
        // remembering; deadline/cancel/fault degradations are transient
        // and must be recomputed next time.
        let cacheable = match outcome.degraded.as_deref() {
            None | Some("not_converged") => true,
            Some(_) => false,
        };
        let payload = if cacheable {
            let payload = self.cache.insert_keyed(
                key,
                &g,
                o.perm.order(),
                crate::cache::OrderingMeta {
                    stats: o.stats,
                    compression_ratio: ratio,
                    degraded: outcome.degraded.as_deref(),
                },
            );
            if let Some(alias) = alias {
                self.cache.add_alias(alias, key);
            }
            payload
        } else {
            Arc::new(crate::proto::EncodedPerm::new(o.perm.order().to_vec()))
        };
        // Mesh: the key's owner pushes a freshly computed cacheable entry
        // (in the spill byte layout) to its ring successors, so replicas
        // answer future reads for the key from their own cache without
        // forwarding. Best-effort and gated on ownership — a node that
        // computed locally only because a forward failed does not spray
        // copies around the ring.
        if cacheable {
            if let Some(mesh) = &self.mesh {
                if mesh.is_owner(key) {
                    mesh.replicate(
                        &crate::persist::PersistedEntry {
                            key,
                            n: g.n(),
                            adjacency_len: g.adjacency_len(),
                            stats: o.stats,
                            compression_ratio: ratio,
                            degraded: outcome.degraded.clone(),
                            perm: o.perm.order().to_vec(),
                        },
                        &self.metrics,
                    );
                }
            }
        }
        let root = tracer.finish();
        if let Some(root) = &root {
            for name in root.stage_names() {
                self.metrics
                    .stage_latency
                    .record(name, root.stage_micros(name));
            }
        }
        let trace = if req.trace {
            root.map(|r| Arc::<str>::from(r.render_json()))
        } else {
            None
        };
        let resp = OrderResponse {
            // A degraded response names the algorithm that actually
            // produced the permutation (e.g. RCM on rung 3).
            alg: o.algorithm.name().to_string(),
            n: g.n(),
            nnz: g.nnz_lower_with_diagonal(),
            stats: o.stats,
            perm: req.include_perm.then_some(PermPayload::Cached(payload)),
            cache_hit: false,
            micros: 0,
            compression_ratio: ratio,
            degraded: outcome.degraded,
            trace,
        };
        self.finish(req, t0, resp)
    }

    /// The alias an inline, untraced request is looked up and recorded
    /// under. `None` — no digest computed — for a path request (the file
    /// may change under the same name), a traced one (it bypasses the
    /// cache lookup) and whenever the cache budget is 0.
    fn payload_alias(&self, req: &OrderRequest) -> Option<crate::cache::PayloadAlias> {
        match &req.source {
            MatrixSource::Inline { format, payload } if !req.trace && self.cache.is_enabled() => {
                Some(crate::cache::PayloadAlias::of(
                    *format,
                    req.alg,
                    req.compressed,
                    payload.as_bytes(),
                ))
            }
            _ => None,
        }
    }

    /// A cache hit's response (before [`Engine::finish`] stamps `micros`),
    /// counting it. The entry's shape guard is the pattern's: `n`, and
    /// `nnz = edges + n` from its adjacency length.
    fn hit_response(&self, req: &OrderRequest, hit: crate::cache::CacheHit) -> OrderResponse {
        self.metrics.inc(&self.metrics.cache_hits);
        OrderResponse {
            alg: req.alg.name().to_string(),
            n: hit.n,
            nnz: hit.adjacency_len / 2 + hit.n,
            stats: hit.stats,
            perm: req.include_perm.then_some(PermPayload::Cached(hit.payload)),
            cache_hit: true,
            micros: 0,
            compression_ratio: hit.compression_ratio,
            degraded: hit.degraded.map(|r| r.to_string()),
            trace: None,
        }
    }

    /// The tail every locally answered ORDER shares: stamps `micros`,
    /// records the latency histogram and writes the request log line.
    fn finish(&self, req: &OrderRequest, t0: Instant, mut resp: OrderResponse) -> OrderOutcome {
        resp.micros = t0.elapsed().as_micros() as u64;
        let cache = if resp.cache_hit { "hit" } else { "miss" };
        self.record(req, &resp, cache, resp.micros);
        Ok(resp)
    }

    /// The tail of a forwarded ORDER: the owner's response is relayed
    /// unchanged, its `micros` included, while this node's latency
    /// histogram and request log take this node's own elapsed time.
    fn relay(&self, req: &OrderRequest, t0: Instant, resp: OrderResponse) -> OrderOutcome {
        self.record(req, &resp, "forward", t0.elapsed().as_micros() as u64);
        Ok(resp)
    }

    /// Records one answered ORDER in the latency histogram and the
    /// request log line.
    fn record(&self, req: &OrderRequest, resp: &OrderResponse, cache: &str, micros: u64) {
        self.metrics.latency.record(req.alg.name(), micros);
        if self.log_requests {
            eprintln!(
                "[spectral-orderd] op=order id={} alg={} n={} nnz={} cache={cache} micros={micros}",
                req.id.map_or_else(|| "-".to_string(), |i| i.to_string()),
                req.alg.name(),
                resp.n,
                resp.nnz,
            );
        }
    }

    /// The METRICS exposition ([`Metrics::render_prometheus`]).
    pub fn metrics_text(&self) -> String {
        self.metrics.render_prometheus(&self.gauges())
    }

    /// Whether a REPLICATE push from source address `src` is accepted.
    /// Only mesh members take pushes at all, and only from addresses the
    /// configured peers resolve to ([`Mesh::replicate_allowed`]) — a
    /// replicated entry is served as an authoritative answer, so an open
    /// REPLICATE would let anyone who can reach the port silently poison
    /// the cache with a wrong permutation under someone else's key.
    pub fn replicate_allowed(&self, src: Option<std::net::IpAddr>) -> bool {
        self.mesh.as_ref().is_some_and(|m| m.replicate_allowed(src))
    }

    /// Applies a `REPLICATE` push from a peer: validates the entry bytes
    /// exactly like a spill file read back from disk
    /// ([`crate::persist::load_from`]) and inserts the entry into the
    /// local cache — spilling it to this node's own cache directory too,
    /// when one is configured. Returns whether the entry was stored
    /// (`false` when it exceeds the per-shard budget; malformed bytes are
    /// a fatal error). Callers gate on [`Engine::replicate_allowed`]
    /// first; this method only validates the bytes.
    pub fn apply_replicate(&self, bytes: &[u8]) -> Result<bool, ErrorResponse> {
        let entry = crate::persist::load_from(bytes)
            .map_err(|e| ErrorResponse::fatal(format!("bad REPLICATE entry: {e}")))?;
        let stored = self.cache.insert_persisted(entry);
        if stored {
            self.metrics.inc(&self.metrics.peer_entries_received);
        }
        Ok(stored)
    }

    /// Spawns the mesh background thread: announce this node to its peers
    /// (JOIN), warm its key range from live members, then run the
    /// heartbeat / suspicion / hint-replay / anti-entropy loop until
    /// [`Engine::begin_shutdown`] flips the stop signal. A no-op without
    /// a mesh, so a plain single node spawns nothing.
    pub fn start_mesh_tasks(self: &Arc<Self>, cfg: &Config) {
        if self.mesh.is_none() {
            return;
        }
        let engine = Arc::clone(self);
        let heartbeat = Duration::from_millis(cfg.peer_heartbeat_ms.max(10));
        let antientropy_every = cfg.antientropy_every;
        std::thread::Builder::new()
            .name("mesh-heartbeat".to_string())
            .spawn(move || engine.mesh_loop(heartbeat, antientropy_every))
            .expect("spawn mesh heartbeat thread");
    }

    /// Whether the startup membership sequence — JOIN announcement plus
    /// the bulk WARM pull of this node's key range — has finished.
    /// Trivially `true` without a mesh. Until it flips, a WARM exchange
    /// may still be in flight, so exact-count assertions (and rolling
    /// restart scripts waiting for a node to be warm) should poll this
    /// first.
    pub fn mesh_warmed(&self) -> bool {
        self.mesh.is_none() || self.mesh_warmed.load(AtOrd::SeqCst)
    }

    /// Body of the `mesh-heartbeat` thread.
    fn mesh_loop(self: Arc<Self>, heartbeat: Duration, antientropy_every: u32) {
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        // (Re)join: announce to every configured member and bulk-pull the
        // entries this node's key range is responsible for, so a restarted
        // node serves warm instead of recomputing its whole range.
        let (admitted_by, transitions) = mesh.announce();
        self.count_transitions(&transitions);
        let mut warmed = 0usize;
        for entry in mesh.pull_warm() {
            if self.cache.insert_persisted(entry) {
                warmed += 1;
                self.metrics.inc(&self.metrics.peer_entries_received);
            }
        }
        if self.log_requests {
            eprintln!("[spectral-orderd] op=mesh_join admitted_by={admitted_by} warmed={warmed}");
        }
        self.mesh_warmed.store(true, AtOrd::SeqCst);
        // Deterministic per-node jitter de-phases the members' heartbeats
        // so a mesh started by one script doesn't PING in lockstep.
        let seed = mesh
            .self_name()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        let span = (heartbeat.as_millis() as u64 / 4).max(1);
        let mut round: u64 = 0;
        let mut sync_cursor: usize = 0;
        loop {
            round += 1;
            let wait = heartbeat + Duration::from_millis(jitter_ms(seed, round, span));
            let (stop, cvar) = &*self.mesh_stop;
            let guard = lock_unpoisoned(stop);
            let (guard, _) = cvar.wait_timeout(guard, wait).unwrap();
            let stopped = *guard;
            drop(guard);
            if stopped {
                break;
            }
            let transitions = mesh.heartbeat_round();
            self.count_transitions(&transitions);
            // Hints parked for a peer drain as soon as it is routable
            // again (Rejoining counts — that is the whole point).
            for peer in mesh.peers_with_hints() {
                if mesh.members().routable(&peer) {
                    let delivered = mesh.replay_hints(&peer, &self.metrics);
                    if delivered > 0 && self.log_requests {
                        eprintln!(
                            "[spectral-orderd] op=hint_replay peer={peer} delivered={delivered}"
                        );
                    }
                }
            }
            if antientropy_every > 0 && round.is_multiple_of(u64::from(antientropy_every)) {
                let live: Vec<String> = mesh
                    .members()
                    .snapshot()
                    .into_iter()
                    .filter(|(_, s)| s.routable())
                    .map(|(n, _)| n)
                    .collect();
                if !live.is_empty() {
                    let peer = live[sync_cursor % live.len()].clone();
                    sync_cursor += 1;
                    let repaired = self.antientropy_with(&peer);
                    if repaired > 0 && self.log_requests {
                        eprintln!(
                            "[spectral-orderd] op=antientropy peer={peer} repaired={repaired}"
                        );
                    }
                }
            }
        }
    }

    /// Counts (and with `--log-requests`, logs) failure-detector
    /// transitions in `se_peer_transitions_total`.
    fn count_transitions(&self, transitions: &[Transition]) {
        for (peer, from, to) in transitions {
            self.metrics
                .peer_transitions
                .inc(&format!("{}:{}", from.as_str(), to.as_str()));
            if self.log_requests {
                eprintln!(
                    "[spectral-orderd] op=peer_state peer={peer} from={} to={}",
                    from.as_str(),
                    to.as_str()
                );
            }
        }
    }

    /// Answers a peer's PING. The ack doubles as passive liveness
    /// evidence: hearing from a peer refreshes its entry in the member
    /// table exactly like an answered heartbeat of our own.
    pub fn handle_ping(&self, from: &str) -> crate::proto::Response {
        if let Some(mesh) = &self.mesh {
            if let Some(t) = mesh.members().record_ack(from) {
                self.count_transitions(std::slice::from_ref(&t));
            }
            crate::proto::Response::Pong {
                from: mesh.self_name().to_string(),
            }
        } else {
            // A plain single node still answers PING (harmless, and it
            // lets operators probe liveness uniformly); it just has no
            // member table to refresh.
            crate::proto::Response::Pong {
                from: self.addr.to_string(),
            }
        }
    }

    /// Admits a (re)joining node announced over JOIN: marks it `Alive`,
    /// puts it (back) on the ring, records its source address in the
    /// REPLICATE allowlist, and answers with this node's member view.
    pub fn handle_join(
        &self,
        from: &str,
        src: Option<std::net::IpAddr>,
    ) -> Result<crate::proto::Response, ErrorResponse> {
        let Some(mesh) = &self.mesh else {
            return Err(ErrorResponse::fatal(
                "JOIN refused: this node is not a mesh member",
            ));
        };
        if self.faults.should_fail(sites::PEER_JOIN_REJECT) {
            return Err(ErrorResponse::retriable(
                "JOIN refused (injected fault), retry",
            ));
        }
        let (new_member, transition) = mesh.admit(from, src);
        if let Some(t) = transition {
            self.count_transitions(std::slice::from_ref(&t));
        }
        if self.log_requests {
            eprintln!("[spectral-orderd] op=join peer={from} new={new_member}");
        }
        let mut members = mesh.members().names();
        members.push(mesh.self_name().to_string());
        members.sort();
        members.dedup();
        Ok(crate::proto::Response::JoinOk { members })
    }

    /// Handles a peer's LEAVE announcement: marks it `Dead` and takes it
    /// off the ring immediately, so its key range is reassigned without
    /// waiting out the suspicion window. Member-gated like REPLICATE — a
    /// stranger must not be able to evict ring members.
    pub fn handle_leave(
        &self,
        from: &str,
        src: Option<std::net::IpAddr>,
    ) -> Result<crate::proto::Response, ErrorResponse> {
        let Some(mesh) = &self.mesh else {
            return Err(ErrorResponse::fatal(
                "LEAVE refused: this node is not a mesh member",
            ));
        };
        if !mesh.replicate_allowed(src) {
            return Err(ErrorResponse::fatal(
                "LEAVE refused: sender is not a configured mesh peer",
            ));
        }
        if let Some(t) = mesh.depart(from) {
            self.count_transitions(std::slice::from_ref(&t));
        }
        if self.log_requests {
            eprintln!("[spectral-orderd] op=leave peer={from}");
        }
        Ok(crate::proto::Response::LeaveOk)
    }

    /// Answers a joining peer's WARM pull with the encoded cache entries
    /// whose replica set includes it, capped at `WARM_BATCH_CAP` entries
    /// (anti-entropy repairs whatever a truncated warm-up missed).
    pub fn handle_warm(
        &self,
        from: &str,
        src: Option<std::net::IpAddr>,
    ) -> Result<crate::proto::Response, ErrorResponse> {
        let Some(mesh) = &self.mesh else {
            return Err(ErrorResponse::fatal(
                "WARM refused: this node is not a mesh member",
            ));
        };
        if !mesh.replicate_allowed(src) {
            return Err(ErrorResponse::fatal(
                "WARM refused: sender is not a configured mesh peer",
            ));
        }
        if let Some(t) = mesh.members().record_ack(from) {
            self.count_transitions(std::slice::from_ref(&t));
        }
        let mut entries = Vec::new();
        for key in self.cache.keys() {
            if mesh.replica_names(key).iter().any(|n| n == from) {
                if let Some(entry) = self.cache.export(key) {
                    entries.push(crate::persist::encode_entry(&entry));
                    if entries.len() >= WARM_BATCH_CAP {
                        break;
                    }
                }
            }
        }
        Ok(crate::proto::Response::WarmOk { entries })
    }

    /// Answers a peer's anti-entropy SYNC: compares its per-shard digests
    /// of the shared replica range against this node's own, and returns
    /// the divergent shard indices plus this node's keys in them, so the
    /// sender can push exactly the entries this node is missing.
    pub fn handle_sync(
        &self,
        from: &str,
        digests: &[u64],
        src: Option<std::net::IpAddr>,
    ) -> Result<crate::proto::Response, ErrorResponse> {
        let Some(mesh) = &self.mesh else {
            return Err(ErrorResponse::fatal(
                "SYNC refused: this node is not a mesh member",
            ));
        };
        if !mesh.replicate_allowed(src) {
            return Err(ErrorResponse::fatal(
                "SYNC refused: sender is not a configured mesh peer",
            ));
        }
        if let Some(t) = mesh.members().record_ack(from) {
            self.count_transitions(std::slice::from_ref(&t));
        }
        let (mine_digests, mine_keys) = self.shared_range_digests(from);
        let shards: Vec<usize> = if digests.len() != mine_digests.len() {
            // Incomparable digests (shard-count mismatch across versions):
            // offer everything and let the key lists sort it out.
            (0..mine_digests.len()).collect()
        } else {
            (0..mine_digests.len())
                .filter(|&i| digests[i] != mine_digests[i])
                .collect()
        };
        let keys: Vec<u64> = mine_keys
            .into_iter()
            .filter(|&k| shards.binary_search(&self.cache.shard_index(k)).is_ok())
            .collect();
        Ok(crate::proto::Response::SyncOk { shards, keys })
    }

    /// One anti-entropy exchange with `peer`: compare per-shard digests
    /// of the shared replica range over SYNC, then push every entry the
    /// peer's divergent shards are missing (plain REPLICATE via
    /// [`Mesh::push_entry`]). Returns how many entries were pushed.
    /// Repairs flow one way per exchange; the peer's own periodic
    /// exchange covers the other direction.
    pub fn antientropy_with(&self, peer: &str) -> usize {
        let Some(mesh) = &self.mesh else {
            return 0;
        };
        let (digests, mine) = self.shared_range_digests(peer);
        let Ok((shards, peer_keys)) = mesh.try_sync(peer, &digests) else {
            return 0;
        };
        if shards.is_empty() {
            return 0;
        }
        let theirs: HashSet<u64> = peer_keys.into_iter().collect();
        let mut repaired = 0;
        for key in mine {
            if !shards.contains(&self.cache.shard_index(key)) || theirs.contains(&key) {
                continue;
            }
            let Some(entry) = self.cache.export(key) else {
                continue;
            };
            let bytes = crate::persist::encode_entry(&entry);
            if mesh.push_entry(peer, &bytes).is_ok() {
                repaired += 1;
                self.metrics.inc(&self.metrics.antientropy_repairs);
            }
        }
        repaired
    }

    /// Per-shard FNV-1a digests over this node's cached keys restricted
    /// to the replica range it shares with `peer` — keys whose *natural*
    /// (unfiltered) replica set contains both nodes — plus those keys
    /// themselves, sorted ascending. Both sides of a SYNC restrict the
    /// same way, so with agreeing ring views the digests match exactly
    /// when the shared range is in sync.
    fn shared_range_digests(&self, peer: &str) -> (Vec<u64>, Vec<u64>) {
        let Some(mesh) = &self.mesh else {
            return (Vec::new(), Vec::new());
        };
        let me = mesh.self_name();
        let mut keys = Vec::new();
        for key in self.cache.keys() {
            let reps = mesh.replica_names(key);
            if reps.iter().any(|n| n == me) && reps.iter().any(|n| n == peer) {
                keys.push(key);
            }
        }
        let mut hashers: Vec<crate::cache::Fnv1a> = (0..self.cache.shard_count())
            .map(|_| crate::cache::Fnv1a::new())
            .collect();
        for &key in &keys {
            hashers[self.cache.shard_index(key)].write_u64(key);
        }
        (hashers.into_iter().map(|h| h.finish()).collect(), keys)
    }
}

/// Upper bound on entries one WARM response ships. A joining node warms
/// up in one bulk pull; the cap bounds the response size, and the
/// periodic anti-entropy exchange repairs whatever a truncated warm-up
/// missed.
const WARM_BATCH_CAP: usize = 256;

/// splitmix64 over `(seed, round)`, reduced to `[0, span)` — the
/// deterministic heartbeat jitter (no RNG state, reproducible per node).
fn jitter_ms(seed: u64, round: u64, span: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z % span.max(1)
}

/// Guarantees the submitter of an async order is answered exactly once.
///
/// Disarmed while the job is merely queued (a synchronous rejection answers
/// through [`Engine::submit_order_with`]'s error return instead); armed the
/// moment the job starts executing. A panic mid-execution unwinds through
/// the never-invoked callback, and the guard's drop turns that into a
/// `worker dropped the request` error — the session would otherwise wait
/// out the full request timeout. Whichever way the job ends — completed,
/// panicked, rejected or dropped unrun — the guard also drops the request's
/// pending CANCEL registration.
struct DoneGuard {
    done: Option<Box<dyn FnOnce(OrderOutcome) + Send>>,
    armed: bool,
    /// The request's id and budget while it is registered as pending.
    pending: Option<(u64, Budget)>,
    engine: Arc<Engine>,
}

impl DoneGuard {
    /// Drops the pending registration (once) and reports whether a CANCEL
    /// reached the request first. Both happen under the engine's pending
    /// lock, which CANCEL also holds while it flips a budget.
    fn unregister(&mut self) -> bool {
        let Some((id, budget)) = self.pending.take() else {
            return false;
        };
        let mut pending = lock_unpoisoned(&self.engine.pending);
        pending.remove(&id);
        budget.is_cancelled()
    }

    /// Answers with the job's real outcome (the normal path).
    fn complete(mut self, outcome: OrderOutcome) {
        if let Some(done) = self.done.take() {
            done(outcome);
        }
    }
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.unregister();
        if !self.armed {
            return;
        }
        if let Some(done) = self.done.take() {
            self.engine.metrics.inc(&self.engine.metrics.errors);
            done(Err(ErrorResponse::fatal("worker dropped the request")));
        }
    }
}

/// The solver-budget deadline carved out of a request's wall-clock
/// timeout: an eighth of the timeout (clamped to 50–500 ms, and never more
/// than half the timeout) is reserved for queueing and response encoding.
/// The session still enforces the full timeout, so sub-reserve timeouts
/// answer `request timed out` when it expires.
fn solver_deadline(timeout: Duration) -> Duration {
    let reserve = (timeout / 8)
        .clamp(Duration::from_millis(50), Duration::from_millis(500))
        .min(timeout / 2);
    timeout - reserve
}

/// Builds the se-trace span observer that turns span closes into
/// [`ProgressUpdate`]s on `sink`.
///
/// The percent heuristic follows the spectral pipeline's shape: the
/// Lanczos run on the coarsest graph is the opening ~20%, the coarsest
/// solve lands at 25%, and the multigrid refinement sweep spans 25→95 —
/// each closing `level[k]` span reports `25 + 70·done/(done+k)`, since `k`
/// counts the levels still to refine. A closing `rqi` span means the
/// final polish finished (98%); `degrade` keeps the last estimate but
/// names the rung switch. Estimates are clamped monotone, and updates are
/// throttled to one per [`PROGRESS_THROTTLE`] (the first is free) except
/// for `degrade`, which always surfaces.
fn progress_observer(sink: ProgressSink, t0: Instant) -> se_trace::SpanObserver {
    struct ObserverState {
        last_emit: Option<Instant>,
        last_percent: f64,
        levels_done: usize,
        matvecs: u64,
        saw_matvecs: bool,
    }
    let state = Mutex::new(ObserverState {
        last_emit: None,
        last_percent: 0.0,
        levels_done: 0,
        matvecs: 0,
        saw_matvecs: false,
    });
    Arc::new(move |ev: &SpanEvent| {
        let mut st = lock_unpoisoned(&state);
        if let Some((_, v)) = ev.attrs.iter().find(|(k, _)| *k == "matvecs") {
            st.matvecs += *v as u64;
            st.saw_matvecs = true;
        }
        let percent = match ev.name {
            "lanczos" => 20.0,
            "coarsest_solve" => 25.0,
            "level" => {
                st.levels_done += 1;
                let remaining = ev.index.unwrap_or(0);
                25.0 + 70.0 * st.levels_done as f64 / (st.levels_done + remaining) as f64
            }
            "rqi" => 98.0,
            "degrade" => st.last_percent,
            _ => return,
        };
        let percent = percent.max(st.last_percent).min(100.0);
        st.last_percent = percent;
        let now = Instant::now();
        let throttled = st
            .last_emit
            .is_some_and(|at| now.duration_since(at) < PROGRESS_THROTTLE);
        if throttled && ev.name != "degrade" {
            return;
        }
        st.last_emit = Some(now);
        let stage = match ev.index {
            Some(i) => format!("{}[{i}]", ev.name),
            None => ev.name.to_string(),
        };
        let update = ProgressUpdate {
            stage,
            percent,
            micros: t0.elapsed().as_micros() as u64,
            matvecs: st.saw_matvecs.then_some(st.matvecs),
        };
        drop(st);
        sink(update);
    })
}

/// Loads the matrix pattern from an ORDER request's source: the structure
/// of `A + Aᵀ` without its diagonal, whatever the format.
fn load_pattern(source: &MatrixSource) -> Result<SymmetricPattern, ErrorResponse> {
    use sparsemat::io;
    let loaded = match source {
        MatrixSource::Inline { format, payload } => match format {
            MatrixFormat::MatrixMarket => io::read_matrix_market_pattern_str(payload),
            MatrixFormat::Chaco => io::read_chaco_str(payload),
            MatrixFormat::HarwellBoeing => {
                io::read_harwell_boeing_str(payload).and_then(|m| m.symmetrized_pattern())
            }
        },
        MatrixSource::Path(path) => match MatrixFormat::from_path(path) {
            MatrixFormat::MatrixMarket => io::read_matrix_market_pattern(path),
            MatrixFormat::Chaco => io::read_chaco(path),
            MatrixFormat::HarwellBoeing => {
                io::read_harwell_boeing(path).and_then(|m| m.symmetrized_pattern())
            }
        },
    };
    loaded.map_err(|e| ErrorResponse::fatal(format!("cannot read matrix: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_order::Algorithm;

    fn test_engine() -> Arc<Engine> {
        let cfg = Config::default();
        Arc::new(Engine::new(&cfg, "127.0.0.1:0".parse().unwrap()).unwrap())
    }

    /// A TraceMin miss builds its pool from the clamped request thread
    /// count; the answer does not depend on it.
    #[test]
    fn tracemin_misses_are_bit_identical_across_thread_counts() {
        let n = 60;
        let mut mtx = format!(
            "%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {}\n",
            n - 1
        );
        for i in 1..n {
            mtx.push_str(&format!("{} {i}\n", i + 1));
        }
        let perm = |threads| {
            let mut req = OrderRequest::inline_mtx(Algorithm::TraceMin, mtx.clone());
            req.threads = Some(threads);
            // A fresh engine per count keeps every request a miss.
            let resp = test_engine()
                .execute_order(&req, &Budget::unlimited(), None)
                .expect("order succeeds");
            assert!(!resp.cache_hit);
            resp.perm.expect("perm requested").order().to_vec()
        };
        let serial = perm(1);
        for threads in [0, 2, 4] {
            assert_eq!(perm(threads), serial, "{threads} threads");
        }
    }
}
