//! `se-service` — `spectral-orderd`, a persistent ordering service.
//!
//! Computing an envelope-reducing ordering is expensive relative to using
//! one, and in iterative workflows (mesh refinement loops, repeated solves,
//! parameter sweeps) the same sparsity pattern is ordered again and again.
//! This crate turns the ordering pipeline into a small daemon, layered as
//! **transport / session / engine**:
//!
//! * **transport** — the `se-reactor` `poll(2)` event loop: a handful of
//!   threads multiplex every connection, enforce the connection limit
//!   (excess connections get one retriable `server busy` line), and move
//!   line/frame bytes with backpressure-aware write queues;
//! * **session** — the per-connection protocol state machine
//!   ([`rsession`]): decode a request line, dispatch, encode the response
//!   under the connection's negotiated frame mode (`HELLO` opts into
//!   binary permutation frames, [`frame`]) and protocol level (v2
//!   pipelines id-tagged out-of-order responses and streams PROGRESS
//!   frames);
//! * **engine** ([`engine`]) — the compute core: a bounded worker pool
//!   ([`pool`]) with explicit backpressure and graceful drain, live metrics
//!   ([`metrics`]), and the sharded content-addressed ordering cache
//!   ([`cache`]) storing pre-encoded responses, optionally spilled to disk
//!   ([`persist`]) so a restarted server keeps serving hits;
//! * [`server`] is the thin composition root wiring the three together, and
//!   [`client::Client`] the blocking client used by `spectral-order client`
//!   and the test harness — serially ([`Client::order`]) or pipelined over
//!   protocol v2 ([`Client::order_many`], bounded in-flight window,
//!   optional progress callback, [`ClientPool`] for connection reuse).
//!
//! The wire protocol ([`proto`]) is newline-delimited JSON — commands
//! `HELLO`, `ORDER`, `BATCH`, `STATS`, `METRICS`, `CANCEL`, `SHUTDOWN` —
//! with optional length-prefixed binary permutation frames after HELLO
//! negotiation. Responses are bit-identical in content across both frame
//! modes and any shard count. `ORDER` accepts `"trace":true` to return the
//! hierarchical span tree of the computation (`se_trace`), `METRICS`
//! exposes the counters and per-stage latency histograms as Prometheus
//! text, and `CANCEL` revokes a queued or *running* request by
//! client-assigned id (running solves observe the flipped [`Budget`] at
//! their next iteration boundary). Everything is built on `std` alone
//! (`std::net`, threads, channels); the JSON layer ([`json`]) is
//! hand-rolled so the service adds no external dependencies to the
//! workspace.
//!
//! # Robustness
//!
//! The service degrades instead of failing wherever it can:
//!
//! * every ORDER runs under a cooperative deadline [`Budget`] derived from
//!   its timeout, checked at solver iteration boundaries;
//! * when the spectral pipeline cannot finish (non-convergence, exhausted
//!   budget, injected fault), the engine walks a degradation ladder —
//!   spectral → Lanczos-only → RCM — and still returns a valid
//!   permutation, marked `"degraded"` with a machine-readable reason and
//!   counted in `se_degraded_orders_total{reason=...}`;
//! * a deterministic fault-injection plane ([`FaultPlane`], disabled by
//!   default and bit-transparent when disabled) drives the chaos test
//!   suite through the full stack, including spill-file corruption and
//!   torn writes;
//! * per-client-IP token-bucket rate limiting ([`RateLimiter`],
//!   `Config::rate_limit`), socket I/O timeouts against slow-loris clients
//!   (`Config::io_timeout_ms`), and a decorrelated-jitter client retry
//!   helper ([`client::order_with_retry`]) round out the edges.
//!
//! # Mesh
//!
//! Several daemons can pool their caches into one keyspace: started with
//! `--peers host:port,...`, each node places the peer addresses plus its
//! own bound address on a consistent-hash ring with virtual nodes
//! ([`ring`]) over the cache key space. An ORDER that misses locally for
//! a key another node owns is forwarded to that owner over the
//! protocol-v2 binary-frame client and the response relayed unchanged
//! ([`mesh`]); owners push freshly computed entries to their
//! `--replicas − 1` ring successors (spill-file byte layout over a
//! `REPLICATE` command) for read fan-out, and a draining node ships its
//! spill files to the keys' new owners on SHUTDOWN. When a peer is
//! unreachable the node computes the answer itself — a mesh member never
//! returns a hard error because of another member.
//!
//! The mesh is *self-healing*: members heartbeat each other with
//! `PING`/`ACK` over the existing peer connections and run each peer
//! through a suspicion state machine ([`membership`],
//! `Alive → Suspect → Dead → Rejoining`), routing around suspect and dead
//! owners to the next live ring successor. A (re)starting node announces
//! itself with `JOIN`, is admitted by any live member, and warms its key
//! range from its predecessors (`WARM`, bulk entry transfer in the spill
//! byte layout). Replica pushes that cannot be delivered park in a
//! bounded on-disk hint log ([`hints`]) and replay when the target
//! returns, and a periodic anti-entropy digest exchange (`SYNC`, per-shard
//! FNV digests) repairs replicas that diverged anyway. Peer states,
//! transitions, hint depth, and repair counts are all visible in `STATS`
//! and `METRICS`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod frame;
pub mod hints;
pub mod json;
pub mod membership;
pub mod mesh;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod proto;
pub mod ring;
pub mod rsession;
pub mod server;

pub use client::{order_with_retry, Client, ClientError, ClientPool, RetryPolicy};
pub use frame::FrameMode;
pub use ring::HashRing;
pub use rsession::{RateLimiter, PROTO_VERSION};
pub use se_faults::{sites, Budget, FaultPlane};
pub use server::{serve, Config, ServerHandle};
