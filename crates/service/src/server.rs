//! Composition root of the `spectral-orderd` TCP server.
//!
//! Wires the three layers together: the `se-reactor` event loops accept
//! sockets and enforce the connection limit, [`crate::rsession`] speaks
//! the protocol per connection, and [`crate::engine`] computes orderings
//! on a bounded worker pool behind the sharded (optionally persistent)
//! cache. This module only holds the configuration and the handle that
//! ties their lifetimes together.

use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::rsession::{RateLimiter, Session, SessionMsg};
use se_faults::FaultPlane;
use se_reactor::ReactorGroup;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads computing orderings.
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Byte budget of the content-addressed ordering cache, split evenly
    /// across its shards.
    pub cache_budget_bytes: usize,
    /// Key-range shards of the ordering cache (≥ 1); more shards means less
    /// lock contention between concurrent requests.
    pub cache_shards: usize,
    /// Spill directory for cache persistence; `None` keeps the cache purely
    /// in memory. Entries in the directory are reloaded at startup.
    pub cache_dir: Option<PathBuf>,
    /// On-disk byte budget for the spill directory; `None` leaves the
    /// directory bounded only by the in-memory budget's evictions. When
    /// set, inserting a spill file deletes the oldest files first until the
    /// directory fits the budget again.
    pub cache_dir_budget: Option<u64>,
    /// Maximum simultaneously connected clients; connections beyond the
    /// limit get one retriable `server busy` error line and are closed.
    pub max_conns: usize,
    /// Default per-request wall-clock timeout (ms); requests may override.
    pub default_timeout_ms: u64,
    /// Default solver threads per ordering job (`0` = all cores); requests
    /// may override with their `"threads"` field. Orderings are bit-identical
    /// for every value, so this only affects wall-clock time — which is why
    /// the cache key deliberately ignores it. Effective only with the
    /// `parallel` feature; otherwise every job runs serially.
    pub solver_threads: usize,
    /// Emit one log line per completed ORDER (id, algorithm, n/nnz, cache
    /// hit/miss, total µs) on stderr.
    pub log_requests: bool,
    /// Deterministic fault-injection plane threaded through the engine,
    /// the solvers and the spill writer. [`FaultPlane::disabled`] (the
    /// default) is a strict no-op: responses are bit-identical to a build
    /// without the plane.
    pub faults: FaultPlane,
    /// Per-client token-bucket rate limit as `(requests_per_second,
    /// burst)`; `None` disables limiting. ORDER costs one token, BATCH one
    /// per member; a client that runs dry gets a fatal `rate limited`
    /// error line.
    pub rate_limit: Option<(u64, u64)>,
    /// Per-connection socket read/write timeout (ms); `None` waits
    /// forever. Bounds how long a slow-loris client can pin a connection
    /// slot while trickling bytes.
    pub io_timeout_ms: Option<u64>,
    /// Event-loop threads for the reactor transport (clamped to ≥ 1). Each
    /// loop multiplexes its share of the connections with `poll(2)`, so
    /// even one thread serves thousands of idle keep-alive connections.
    pub reactor_threads: usize,
    /// Mesh peers as `host:port` strings (`--peers`). Empty (the default)
    /// runs a plain single node. When non-empty, this node joins a
    /// consistent-hash ring ([`crate::ring`]) together with the peers and
    /// its own bound address, forwards ORDER requests for keys another
    /// peer owns, and replicates its own hot entries to successors. Every
    /// member must be started with the same textual addresses (each
    /// omitting or including itself — the node's own bound address is
    /// always added) or the ring views will disagree. Because the bound
    /// address *is* the node's ring identity, a mesh member must bind the
    /// routable address its peers list — [`serve`] refuses `--peers`
    /// combined with an unspecified bind address (`0.0.0.0`/`[::]`).
    pub peers: Vec<String>,
    /// Mesh replication factor: entries this node owns are pushed to the
    /// `replicas - 1` ring successors after the owner (so `1`, the
    /// default, keeps a single copy and `2` means owner + one replica).
    /// Clamped to ≥ 1; ignored without peers.
    pub replicas: usize,
    /// Dial deadline for one peer connection, ms
    /// (`--peer-dial-timeout-ms`, default 250). Bounds how long a
    /// blackholed peer can stall a forward, a replication push or a
    /// heartbeat before the mesh moves on.
    pub peer_dial_timeout_ms: u64,
    /// Socket read/write deadline on peer connections, ms
    /// (`--peer-io-timeout-ms`, default 2000). Wider than the dial
    /// deadline so a forwarded cache *miss* has time to compute at the
    /// owner; also the deadline on heartbeat and membership exchanges.
    pub peer_io_timeout_ms: u64,
    /// Failure-detector heartbeat period, ms (`--peer-heartbeat-ms`,
    /// default 1000). Each round PINGs every known member with seeded
    /// jitter; suspicion windows are measured against the acks.
    pub peer_heartbeat_ms: u64,
    /// Silence before an `Alive` member turns `Suspect`, ms
    /// (`--peer-suspect-after-ms`, default 3000 — three missed
    /// heartbeats at the default period).
    pub peer_suspect_after_ms: u64,
    /// Silence before a `Suspect` member turns `Dead`, ms
    /// (`--peer-dead-after-ms`, default 10000). Clamped to at least the
    /// suspect window.
    pub peer_dead_after_ms: u64,
    /// Run the anti-entropy digest exchange every N heartbeat rounds
    /// (default 8); 0 disables anti-entropy.
    pub antientropy_every: u32,
    /// Hinted-handoff queue depth per unreachable peer (default 512);
    /// past the cap the oldest hint is dropped and counted.
    pub hint_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
            queue_capacity: 64,
            cache_budget_bytes: 32 << 20,
            cache_shards: 8,
            cache_dir: None,
            cache_dir_budget: None,
            max_conns: 1024,
            default_timeout_ms: 30_000,
            solver_threads: 1,
            log_requests: false,
            faults: FaultPlane::disabled(),
            rate_limit: None,
            io_timeout_ms: None,
            reactor_threads: 1,
            peers: Vec::new(),
            replicas: 1,
            peer_dial_timeout_ms: 250,
            peer_io_timeout_ms: 2_000,
            peer_heartbeat_ms: 1_000,
            peer_suspect_after_ms: 3_000,
            peer_dead_after_ms: 10_000,
            antientropy_every: 8,
            hint_cap: crate::hints::DEFAULT_HINT_CAP,
        }
    }
}

/// A running server; dropping the handle does not stop it — send SHUTDOWN.
pub struct ServerHandle {
    engine: Arc<Engine>,
    addr: SocketAddr,
    group: ReactorGroup<SessionMsg>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics (shared with the server).
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The engine (shared with the server; exposed for tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Blocks until the server has stopped: the event loops exited after
    /// SHUTDOWN and the drain finished with its ack sent.
    pub fn join(self) {
        self.group.join();
        self.engine.wait_shutdown_complete();
    }
}

/// Binds `cfg.addr`, builds the engine (loading any persisted cache), and
/// starts serving on the `se-reactor` event loops.
pub fn serve(cfg: Config) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // A mesh member's ring identity is its textual bound address, which
    // its peers must be able to list verbatim. An unspecified bind
    // (0.0.0.0 / [::]) can never appear in anyone's --peers, so the node
    // would join as a phantom member, ring views would disagree, and it
    // could forward to itself over the network. Refuse outright.
    if !cfg.peers.is_empty() && addr.ip().is_unspecified() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "--peers requires a routable --addr: this node would join the ring as \
                 \"{addr}\", which no peer can list; bind the address the peers know it by"
            ),
        ));
    }
    let engine = Arc::new(Engine::new(&cfg, addr)?);
    // With a mesh configured, announce/warm/heartbeat in the background;
    // a plain single node spawns nothing.
    engine.start_mesh_tasks(&cfg);
    let rate = cfg
        .rate_limit
        .map(|(rps, burst)| Arc::new(RateLimiter::new(rps, burst)));
    let rcfg = se_reactor::ReactorConfig {
        threads: cfg.reactor_threads.max(1),
        max_conns: cfg.max_conns.max(1),
        io_timeout: cfg.io_timeout_ms.map(Duration::from_millis),
        busy_line: busy_line(),
        wakeups: Some(Arc::clone(&engine.metrics().reactor_wakeups)),
        rejects: Some(Arc::clone(&engine.metrics().busy_rejections)),
        ..se_reactor::ReactorConfig::default()
    };
    let factory_engine = Arc::clone(&engine);
    let group = se_reactor::start(listener, rcfg, move |token, peer, handle| {
        Session::new(
            Arc::clone(&factory_engine),
            rate.clone(),
            token,
            peer,
            handle,
        )
    })?;
    Ok(ServerHandle {
        engine,
        addr,
        group,
    })
}

/// The wire bytes an over-cap connection receives before being dropped: one
/// retriable `server busy` error line.
fn busy_line() -> Vec<u8> {
    use crate::proto::{encode_response, ErrorResponse, Response};
    let resp = Response::Error(ErrorResponse::retriable(
        "server busy: connection limit reached, retry later",
    ));
    let mut bytes = encode_response(&resp).into_bytes();
    bytes.push(b'\n');
    bytes
}
