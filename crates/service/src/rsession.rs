//! The session layer: the pipelined, multiplexed protocol loop.
//!
//! One [`Session`] per connection, driven by `se-reactor` callbacks on the
//! owning event-loop thread — decode and dispatch happen on the reactor,
//! compute on the engine's worker pool, and completions come back through
//! [`se_reactor::Handle::post`] as [`SessionMsg`]s. Reading never blocks
//! on a running solve, so a client may pipeline requests back-to-back on
//! one connection. The per-client-IP [`RateLimiter`] charged for ORDER and
//! BATCH lives here too.
//!
//! # Response ordering
//!
//! Protocol v1 promises responses *in request order*, so every response is
//! staged under its request sequence number and released strictly in
//! sequence — a pipelined v1 client observes exactly the bytes a strict
//! request→response loop would have produced. A `HELLO` negotiating
//! protocol v2 ends the ordered prefix: responses from the ack onward are
//! released the moment they are ready, tagged with the client-assigned
//! `"id"` when the request carried one, and unsolicited `PROGRESS` frames
//! may interleave between responses for orders that opted in. The
//! negotiated level never decreases on a connection.
//!
//! # Timeouts
//!
//! The engine does not enforce wall-clock timeouts (it cannot block the
//! loop); the session arms the connection's reactor deadline with the
//! nearest in-flight expiry, answers `request timed out` itself, and drops
//! the late completion when it eventually arrives.

use crate::engine::{Engine, OrderOutcome, ProgressSink, ProgressUpdate};
use crate::frame::FrameMode;
use crate::metrics::Metrics;
use crate::proto::{
    decode_request, encode_response_tagged, ErrorResponse, OrderRequest, ProgressFrame, Request,
    Response,
};
use se_faults::lock_unpoisoned;
use se_reactor::{ConnCtx, Handle, Handler, Token};
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Highest protocol level this session negotiates.
pub const PROTO_VERSION: u32 = 2;

/// A token bucket per client IP: `rate` tokens replenish per second up to
/// `burst`, and the session layer charges one token per ORDER (one per
/// BATCH member). A client that runs dry gets a fatal `rate limited` error
/// line instead of service.
///
/// Buckets are keyed by peer IP so reconnecting does not reset the meter.
/// The table is bounded: when it grows past `RateLimiter::MAX_CLIENTS`,
/// buckets that have fully replenished (i.e. idle clients) are dropped.
pub struct RateLimiter {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
}

struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl RateLimiter {
    /// Idle-bucket eviction threshold for the per-IP table.
    const MAX_CLIENTS: usize = 4096;

    /// A limiter replenishing `rate` tokens per second per client IP, with
    /// bucket capacity `burst`. Both are clamped to at least 1.
    pub fn new(rate: u64, burst: u64) -> Self {
        RateLimiter {
            rate: rate.max(1) as f64,
            burst: burst.max(1) as f64,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Charges `cost` tokens against `peer`'s bucket, replenishing it
    /// first. Returns whether the request is allowed.
    pub fn allow(&self, peer: IpAddr, cost: u64) -> bool {
        let now = Instant::now();
        let mut buckets = lock_unpoisoned(&self.buckets);
        if buckets.len() >= Self::MAX_CLIENTS && !buckets.contains_key(&peer) {
            // Drop replenished (idle) buckets; a full bucket carries no
            // information beyond its default state.
            let (rate, burst) = (self.rate, self.burst);
            buckets.retain(|_, b| {
                (b.tokens + now.duration_since(b.last).as_secs_f64() * rate) < burst
            });
        }
        let b = buckets.entry(peer).or_insert(TokenBucket {
            tokens: self.burst,
            last: now,
        });
        b.tokens =
            (b.tokens + now.duration_since(b.last).as_secs_f64() * self.rate).min(self.burst);
        b.last = now;
        if b.tokens >= cost as f64 {
            b.tokens -= cost as f64;
            true
        } else {
            false
        }
    }
}

/// Events posted to a session from outside its event loop: worker-pool
/// completions, progress updates, and the shutdown drain.
pub enum SessionMsg {
    /// An ORDER submitted under request sequence `seq` finished.
    Order {
        /// The request's sequence number on this connection.
        seq: u64,
        /// The order's result.
        outcome: OrderOutcome,
    },
    /// One member of the BATCH staged under `batch` finished.
    BatchMember {
        /// The BATCH request's sequence number.
        batch: u64,
        /// Index of the member within the batch.
        slot: usize,
        /// The member's result.
        outcome: OrderOutcome,
    },
    /// A progress update from the solve running for `seq`.
    Progress {
        /// The ORDER's sequence number.
        seq: u64,
        /// The update, as produced on the worker thread.
        update: ProgressUpdate,
    },
    /// The SHUTDOWN drain issued at `seq` finished; ack and stop.
    ShutdownReady {
        /// The SHUTDOWN request's sequence number.
        seq: u64,
        /// Jobs the pool completed over its lifetime.
        drained: u64,
    },
}

/// Per-in-flight-ORDER bookkeeping, keyed by request sequence.
struct Inflight {
    /// The id the response line is tagged with (v2 requests that carried
    /// one); `None` leaves the response untagged.
    wire_id: Option<u64>,
    /// Frame mode at submission time — a later HELLO must not re-encode an
    /// already-submitted response.
    mode: FrameMode,
    /// When the session answers `request timed out` on its own.
    deadline: Instant,
    /// Whether PROGRESS frames for this order go on the wire.
    progress: bool,
}

/// An in-flight BATCH: filled slot by slot as members complete.
struct BatchState {
    slots: Vec<Option<OrderOutcome>>,
    remaining: usize,
    mode: FrameMode,
    deadline: Instant,
}

/// One connection's protocol state, driven by the reactor.
pub struct Session {
    engine: Arc<Engine>,
    limiter: Option<Arc<RateLimiter>>,
    peer: Option<IpAddr>,
    token: Token,
    handle: Handle<SessionMsg>,
    /// Negotiated frame mode for responses encoded from now on.
    mode: FrameMode,
    /// Negotiated protocol level (starts at 1; never decreases).
    proto: u32,
    /// Sequence number assigned to the next request line.
    next_seq: u64,
    /// Next sequence the strict-order release gate is waiting for.
    release_next: u64,
    /// First sequence exempt from strict ordering (the v2 HELLO ack);
    /// `u64::MAX` while the connection is v1.
    strict_until: u64,
    /// Responses rendered but not yet released, by sequence.
    staged: BTreeMap<u64, Vec<u8>>,
    /// In-flight ORDERs by sequence.
    inflight: HashMap<u64, Inflight>,
    /// In-flight BATCHes by sequence.
    batches: HashMap<u64, BatchState>,
    /// A SHUTDOWN drain is running; if the connection dies before the ack,
    /// `on_close` still stops the reactor.
    shutdown_pending: bool,
}

impl Session {
    /// Builds the session for one accepted connection (the reactor
    /// factory).
    pub fn new(
        engine: Arc<Engine>,
        limiter: Option<Arc<RateLimiter>>,
        token: Token,
        peer: Option<IpAddr>,
        handle: Handle<SessionMsg>,
    ) -> Session {
        let m = engine.metrics();
        m.inc(&m.connections);
        m.inc(&m.open_connections);
        Session {
            engine,
            limiter,
            peer,
            token,
            handle,
            mode: FrameMode::default(),
            proto: 1,
            next_seq: 0,
            release_next: 0,
            strict_until: u64::MAX,
            staged: BTreeMap::new(),
            inflight: HashMap::new(),
            batches: HashMap::new(),
            shutdown_pending: false,
        }
    }

    fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// Charges `cost` tokens for this connection's peer; no limiter (or no
    /// peer address) always allows.
    fn allow(&self, cost: u64) -> bool {
        match (&self.limiter, self.peer) {
            (Some(limiter), Some(peer)) => limiter.allow(peer, cost),
            _ => true,
        }
    }

    /// Stages the rendered response for `seq` and releases everything the
    /// ordering rules permit: strictly in sequence up to `strict_until`,
    /// immediately afterwards.
    fn ready(&mut self, ctx: &mut ConnCtx<'_>, seq: u64, bytes: Vec<u8>) {
        self.staged.insert(seq, bytes);
        while self.release_next < self.strict_until {
            match self.staged.remove(&self.release_next) {
                Some(b) => {
                    ctx.send(b);
                    self.release_next += 1;
                }
                // The gate sequence is still computing; everything stays
                // staged so a v1 client sees responses in request order.
                None => return,
            }
        }
        // Past the ordered prefix (v2): ship everything ready, tagged.
        for (_seq, b) in std::mem::take(&mut self.staged) {
            ctx.send(b);
        }
    }

    /// Re-arms the connection's reactor deadline to the nearest in-flight
    /// expiry (or clears it).
    fn arm_deadline(&self, ctx: &mut ConnCtx<'_>) {
        let next = self
            .inflight
            .values()
            .map(|i| i.deadline)
            .chain(self.batches.values().map(|b| b.deadline))
            .min();
        ctx.set_deadline(next);
    }

    /// Submits one ORDER to the pool; errors are answered inline.
    fn submit(&mut self, ctx: &mut ConnCtx<'_>, seq: u64, req: OrderRequest) {
        let wire_id = if self.proto >= 2 { req.id } else { None };
        if !self.allow(1) {
            self.metrics().inc(&self.metrics().rate_limited);
            let resp = Response::Error(ErrorResponse::fatal("rate limited"));
            let bytes = render(&resp, self.mode, wire_id);
            return self.ready(ctx, seq, bytes);
        }
        let wants_progress = self.proto >= 2 && req.progress && req.id.is_some();
        let progress: Option<ProgressSink> = wants_progress.then(|| {
            let handle = self.handle.clone();
            let token = self.token;
            Arc::new(move |update: ProgressUpdate| {
                handle.post(token, SessionMsg::Progress { seq, update });
            }) as ProgressSink
        });
        let done = {
            let handle = self.handle.clone();
            let token = self.token;
            Box::new(move |outcome: OrderOutcome| {
                handle.post(token, SessionMsg::Order { seq, outcome });
            })
        };
        match self.engine.submit_order_with(req, progress, done) {
            Ok(timeout) => {
                self.metrics().inc(&self.metrics().inflight_requests);
                self.inflight.insert(
                    seq,
                    Inflight {
                        wire_id,
                        mode: self.mode,
                        deadline: Instant::now() + timeout,
                        progress: wants_progress,
                    },
                );
                self.arm_deadline(ctx);
            }
            Err(e) => {
                let bytes = render(&Response::Error(e), self.mode, wire_id);
                self.ready(ctx, seq, bytes);
            }
        }
    }

    /// Submits every BATCH member to the pool at once; the aggregate
    /// response goes out when the last slot fills (or the deadline fires).
    fn submit_batch(&mut self, ctx: &mut ConnCtx<'_>, seq: u64, reqs: Vec<OrderRequest>) {
        if !self.allow(reqs.len() as u64) {
            self.metrics().inc(&self.metrics().rate_limited);
            let resp = Response::Error(ErrorResponse::fatal("rate limited"));
            let bytes = render(&resp, self.mode, None);
            return self.ready(ctx, seq, bytes);
        }
        self.metrics().inc(&self.metrics().batches);
        let n = reqs.len();
        let mut slots: Vec<Option<OrderOutcome>> = (0..n).map(|_| None).collect();
        let mut remaining = n;
        let mut max_timeout = Duration::ZERO;
        for (slot, req) in reqs.into_iter().enumerate() {
            let handle = self.handle.clone();
            let token = self.token;
            let done = Box::new(move |outcome: OrderOutcome| {
                handle.post(
                    token,
                    SessionMsg::BatchMember {
                        batch: seq,
                        slot,
                        outcome,
                    },
                );
            });
            match self.engine.submit_order_with(req, None, done) {
                Ok(timeout) => {
                    self.metrics().inc(&self.metrics().inflight_requests);
                    max_timeout = max_timeout.max(timeout);
                }
                Err(e) => {
                    slots[slot] = Some(Err(e));
                    remaining -= 1;
                }
            }
        }
        if remaining == 0 {
            let outcomes = slots.into_iter().map(|s| s.expect("slot filled")).collect();
            let bytes = render(&Response::Batch(outcomes), self.mode, None);
            return self.ready(ctx, seq, bytes);
        }
        self.batches.insert(
            seq,
            BatchState {
                slots,
                remaining,
                mode: self.mode,
                deadline: Instant::now() + max_timeout,
            },
        );
        self.arm_deadline(ctx);
    }

    /// Starts the SHUTDOWN drain. Draining the pool blocks, so it runs on
    /// its own thread and the ack comes back as a
    /// [`SessionMsg::ShutdownReady`]. Completions of this connection's own
    /// in-flight orders post before the drain finishes, so their responses
    /// precede the ack.
    fn shutdown(&mut self, ctx: &mut ConnCtx<'_>, seq: u64) {
        self.shutdown_pending = true;
        let engine = Arc::clone(&self.engine);
        let handle = self.handle.clone();
        let token = self.token;
        let spawned = std::thread::Builder::new()
            .name("orderd-drain".to_string())
            .spawn(move || {
                let drained = engine.begin_shutdown();
                engine.mark_shutdown_complete();
                handle.post(token, SessionMsg::ShutdownReady { seq, drained });
            });
        if spawned.is_err() {
            // No thread to drain on; answer and stop directly.
            let drained = self.engine.begin_shutdown();
            self.engine.mark_shutdown_complete();
            let resp = Response::ShutdownOk { drained };
            let bytes = render(&resp, self.mode, None);
            self.ready(ctx, seq, bytes);
            ctx.close_after_flush();
            self.handle.stop();
        }
    }
}

impl Handler<SessionMsg> for Session {
    fn on_line(&mut self, ctx: &mut ConnCtx<'_>, line: String) {
        if line.trim().is_empty() {
            return;
        }
        self.metrics().inc(&self.metrics().requests);
        let seq = self.next_seq;
        self.next_seq += 1;
        // ORDER, BATCH and SHUTDOWN answer later, from the worker pool or
        // the drain thread. Everything else is cheap and answered inline:
        // in-memory work plus at most one spill write (REPLICATE); WARM
        // reads the cache but never computes.
        let answer = match decode_request(&line) {
            Err(e) => Err(ErrorResponse::fatal(e.to_string())),
            Ok(Request::Order(req)) => return self.submit(ctx, seq, req),
            Ok(Request::Batch(reqs)) => return self.submit_batch(ctx, seq, reqs),
            Ok(Request::Shutdown) => return self.shutdown(ctx, seq),
            Ok(Request::Hello { frames, proto }) => {
                self.mode = frames;
                // The level never decreases: a later HELLO asking for less
                // re-acks what was already negotiated.
                let negotiated = proto.min(PROTO_VERSION).max(self.proto);
                if self.proto < 2 && negotiated >= 2 {
                    // The ordered prefix ends here: this ack and everything
                    // after it release as soon as they are ready.
                    self.strict_until = seq;
                }
                self.proto = negotiated;
                Ok(Response::Hello {
                    frames,
                    proto: negotiated,
                })
            }
            Ok(Request::Stats) => Ok(Response::Stats(self.engine.stats_snapshot())),
            Ok(Request::Cancel { id }) => Ok(Response::CancelOk {
                pending: self.engine.cancel(id),
            }),
            Ok(Request::Metrics) => Ok(Response::Metrics(self.engine.metrics_text())),
            // A peer pushing a cache entry (mesh replication or drain
            // handoff). Accepted only from configured mesh peers — entries
            // are served as authoritative answers, so an open REPLICATE
            // would be a silent cache-poisoning vector.
            Ok(Request::Replicate { entry }) => {
                if self.engine.replicate_allowed(self.peer) {
                    self.engine
                        .apply_replicate(&entry)
                        .map(|stored| Response::ReplicateOk { stored })
                } else {
                    Err(ErrorResponse::fatal(
                        "REPLICATE refused: sender is not a configured mesh peer",
                    ))
                }
            }
            // Membership traffic: PING and JOIN are open; LEAVE / SYNC /
            // WARM are member-gated inside the engine handlers.
            Ok(Request::Ping { from }) => Ok(self.engine.handle_ping(&from)),
            Ok(Request::Join { from }) => self.engine.handle_join(&from, self.peer),
            Ok(Request::Leave { from }) => self.engine.handle_leave(&from, self.peer),
            Ok(Request::Sync { from, digests }) => {
                self.engine.handle_sync(&from, &digests, self.peer)
            }
            Ok(Request::Warm { from }) => self.engine.handle_warm(&from, self.peer),
        };
        let resp = answer.unwrap_or_else(|e| {
            self.metrics().inc(&self.metrics().errors);
            Response::Error(e)
        });
        let bytes = render(&resp, self.mode, None);
        self.ready(ctx, seq, bytes);
    }

    fn on_message(&mut self, ctx: &mut ConnCtx<'_>, msg: SessionMsg) {
        match msg {
            SessionMsg::Order { seq, outcome } => {
                // A sequence no longer in flight already got its timeout
                // error; the late completion is dropped.
                let Some(info) = self.inflight.remove(&seq) else {
                    return;
                };
                self.metrics().dec(&self.metrics().inflight_requests);
                let resp = match outcome {
                    Ok(r) => Response::Order(r),
                    Err(e) => Response::Error(e),
                };
                let bytes = render(&resp, info.mode, info.wire_id);
                self.arm_deadline(ctx);
                self.ready(ctx, seq, bytes);
            }
            SessionMsg::BatchMember {
                batch,
                slot,
                outcome,
            } => {
                let Some(st) = self.batches.get_mut(&batch) else {
                    return;
                };
                if st.slots.get(slot).is_none_or(|s| s.is_some()) {
                    return;
                }
                st.slots[slot] = Some(outcome);
                st.remaining -= 1;
                self.metrics().dec(&self.metrics().inflight_requests);
                if self.batches.get(&batch).is_some_and(|b| b.remaining == 0) {
                    let st = self.batches.remove(&batch).expect("batch present");
                    let outcomes = st
                        .slots
                        .into_iter()
                        .map(|s| s.expect("slot filled"))
                        .collect();
                    let bytes = render(&Response::Batch(outcomes), st.mode, None);
                    self.arm_deadline(ctx);
                    self.ready(ctx, batch, bytes);
                }
            }
            SessionMsg::Progress { seq, update } => {
                let Some(info) = self.inflight.get(&seq) else {
                    return;
                };
                let (true, Some(id)) = (info.progress, info.wire_id) else {
                    return;
                };
                let frame = ProgressFrame {
                    id,
                    stage: update.stage,
                    percent: update.percent,
                    micros: update.micros,
                    matvecs: update.matvecs,
                };
                let bytes = render(&Response::Progress(frame), self.mode, None);
                self.metrics().inc(&self.metrics().progress_frames);
                // Progress frames only exist on v2 and interleave freely:
                // straight to the write queue, never staged.
                ctx.send(bytes);
            }
            SessionMsg::ShutdownReady { seq, drained } => {
                self.shutdown_pending = false;
                let resp = Response::ShutdownOk { drained };
                let bytes = render(&resp, self.mode, None);
                self.ready(ctx, seq, bytes);
                ctx.close_after_flush();
                self.handle.stop();
            }
        }
    }

    fn on_deadline(&mut self, ctx: &mut ConnCtx<'_>, now: Instant) {
        let expired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, i)| i.deadline <= now)
            .map(|(s, _)| *s)
            .collect();
        for seq in expired {
            let info = self.inflight.remove(&seq).expect("expired order present");
            self.metrics().inc(&self.metrics().timeouts);
            self.metrics().dec(&self.metrics().inflight_requests);
            let resp = Response::Error(ErrorResponse::retriable("request timed out"));
            let bytes = render(&resp, info.mode, info.wire_id);
            self.ready(ctx, seq, bytes);
        }
        let expired: Vec<u64> = self
            .batches
            .iter()
            .filter(|(_, b)| b.deadline <= now)
            .map(|(s, _)| *s)
            .collect();
        for seq in expired {
            let mut st = self.batches.remove(&seq).expect("expired batch present");
            for slot in st.slots.iter_mut() {
                if slot.is_none() {
                    self.metrics().inc(&self.metrics().timeouts);
                    self.metrics().dec(&self.metrics().inflight_requests);
                    *slot = Some(Err(ErrorResponse::retriable("request timed out")));
                }
            }
            let outcomes = st
                .slots
                .into_iter()
                .map(|s| s.expect("slot filled"))
                .collect();
            let bytes = render(&Response::Batch(outcomes), st.mode, None);
            self.ready(ctx, seq, bytes);
        }
        self.arm_deadline(ctx);
    }

    fn on_close(&mut self) {
        let m = self.metrics();
        m.dec(&m.open_connections);
        for _ in 0..self.inflight.len() {
            m.dec(&m.inflight_requests);
        }
        for b in self.batches.values() {
            for _ in 0..b.remaining {
                m.dec(&m.inflight_requests);
            }
        }
        // The shutdown initiator died before its ack: the drain still runs
        // to completion, but the reactor must stop regardless.
        if self.shutdown_pending {
            self.handle.stop();
        }
    }
}

/// Renders one response as the exact wire bytes — the JSON line, its
/// newline, and any binary frames — so the reactor writes it with a single
/// syscall when the socket allows.
fn render(resp: &Response, mode: FrameMode, id: Option<u64>) -> Vec<u8> {
    let (line, frames) = encode_response_tagged(resp, mode, id);
    let frame_bytes: usize = frames.iter().map(|f| f.bytes().len()).sum();
    let mut out = Vec::with_capacity(line.len() + 1 + frame_bytes);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    for f in &frames {
        out.extend_from_slice(f.bytes());
    }
    out
}
