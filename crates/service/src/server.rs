//! Composition root of the `spectral-orderd` TCP server.
//!
//! Wires the three layers together: the `se-reactor` event loops accept
//! sockets and enforce the connection limit, [`crate::rsession`] speaks
//! the protocol per connection, and [`crate::engine`] computes orderings
//! on a bounded worker pool behind the sharded (optionally persistent)
//! cache. This module only holds the configuration, the daemon flag
//! parser that builds it ([`Config::from_args`], shared by
//! `spectral-orderd` and `spectral-order serve`), and the handle that ties
//! the layers' lifetimes together.

use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::rsession::{RateLimiter, Session, SessionMsg};
use se_faults::FaultPlane;
use se_reactor::ReactorGroup;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
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
    /// may override with their `"threads"` field, and the engine clamps
    /// either to the core count. Only TraceMin reads it: each outer step
    /// starts at most `threads − 1` helpers for its inner solves and joins
    /// them before the next, so the daemon holds no solver threads between
    /// jobs. Orderings are bit-identical for every value, so this only
    /// affects wall-clock time — which is why the cache key deliberately
    /// ignores it.
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

/// Bind address of a daemon started without `--addr`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7654";

/// The daemon's flag reference, printed by `spectral-orderd --help` and
/// `spectral-order serve --help`.
pub const DAEMON_FLAGS: &str =
    "  --addr HOST:PORT    bind address (default 127.0.0.1:7654; port 0 = ephemeral)
  --workers N         worker threads (default: min(cores, 8))
  --queue N           bounded job-queue capacity (default 64)
  --cache-mb N        ordering-cache budget in MiB (default 32, 0 disables)
  --shards N          cache shard count (default 8)
  --cache-dir PATH    persist the cache to PATH (reloaded at startup)
  --cache-dir-budget BYTES
                      bound the spill directory; the oldest entries are
                      deleted first (default: unbounded)
  --max-conns N       connection limit; excess clients get a retriable
                      \"server busy\" error (default 1024)
  --timeout-ms N      default per-request wall-clock timeout (default 30000)
  --threads N         default solver threads per ordering job (default 1,
                      0 = all cores); results are bit-identical for every N
  --log-requests      print one line per completed request to stderr
  --rate-limit RPS[:BURST]
                      per-client-IP token-bucket limit; clients over the
                      limit get a fatal \"rate limited\" error (default: off;
                      BURST defaults to 2*RPS)
  --io-timeout MS     per-connection socket read/write timeout, bounding
                      slow-loris clients (default: off)
  --reactor-threads N event-loop threads of the poll-based reactor (default 1)
  --peers HOST:PORT,...
                      join a consistent-hash mesh with these peers; every
                      member must be started with the same textual
                      addresses (default: single node)
  --replicas N        mesh replication factor: entries this node owns are
                      pushed to N-1 ring successors (default 1)
  --peer-dial-timeout-ms N
                      dial deadline for one peer connection (default 250)
  --peer-io-timeout-ms N
                      read/write deadline on peer connections, including
                      heartbeats and membership exchanges (default 2000)
  --peer-heartbeat-ms N
                      failure-detector heartbeat period (default 1000)
  --peer-suspect-after-ms N
                      silence before a member turns Suspect (default 3000)
  --peer-dead-after-ms N
                      silence before a Suspect member turns Dead and is
                      routed around (default 10000)
  --antientropy-every N
                      run the anti-entropy digest exchange every N
                      heartbeat rounds (default 8; 0 disables)
  --hint-cap N        hinted-handoff queue depth per unreachable peer;
                      past the cap the oldest hint is dropped (default 512)
  --help, -h          print this text and exit
";

/// Why [`Config::from_args`] returned no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h`: print [`DAEMON_FLAGS`] and exit successfully.
    Help,
    /// An unknown flag, a missing value, or a value that is not a number
    /// in the flag's range.
    Invalid(String),
}

fn parse_num<T: FromStr>(flag: &str, v: &str) -> Result<T, ArgsError> {
    v.parse()
        .map_err(|_| ArgsError::Invalid(format!("{flag}: '{v}' is not a number in range")))
}

fn parse_positive<T: FromStr + Default + PartialEq>(flag: &str, v: &str) -> Result<T, ArgsError> {
    let n = parse_num(flag, v)?;
    if n == T::default() {
        return Err(ArgsError::Invalid(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses `RPS` or `RPS:BURST`; a missing burst defaults to `2 * RPS`.
fn parse_rate_limit(v: &str) -> Option<(u64, u64)> {
    let (rps, burst) = match v.split_once(':') {
        Some((r, b)) => (r.parse().ok()?, b.parse().ok()?),
        None => {
            let r: u64 = v.parse().ok()?;
            (r, r.saturating_mul(2))
        }
    };
    (rps > 0 && burst > 0).then_some((rps, burst))
}

impl Config {
    /// Parses daemon flags (see [`DAEMON_FLAGS`]) over the defaults, with
    /// the bind address defaulting to [`DEFAULT_ADDR`]. Counts that must be
    /// positive reject 0, and a value that does not fit its field (a
    /// `--cache-mb` whose byte count overflows, an `--antientropy-every`
    /// past `u32::MAX`) is rejected rather than wrapped.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Config, ArgsError> {
        let mut cfg = Config {
            addr: DEFAULT_ADDR.to_string(),
            ..Config::default()
        };
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
            };
            match flag {
                "--help" | "-h" => return Err(ArgsError::Help),
                "--log-requests" => cfg.log_requests = true,
                "--addr" => cfg.addr = value()?.to_string(),
                "--workers" => cfg.workers = parse_positive(flag, value()?)?,
                "--queue" => cfg.queue_capacity = parse_positive(flag, value()?)?,
                "--cache-mb" => {
                    let mb: usize = parse_num(flag, value()?)?;
                    cfg.cache_budget_bytes = mb.checked_mul(1 << 20).ok_or_else(|| {
                        ArgsError::Invalid(format!("{flag}: {mb} MiB overflows a byte count"))
                    })?;
                }
                "--shards" => cfg.cache_shards = parse_positive(flag, value()?)?,
                "--cache-dir" => cfg.cache_dir = Some(value()?.into()),
                "--cache-dir-budget" => cfg.cache_dir_budget = Some(parse_num(flag, value()?)?),
                "--max-conns" => cfg.max_conns = parse_positive(flag, value()?)?,
                "--timeout-ms" => cfg.default_timeout_ms = parse_positive(flag, value()?)?,
                "--threads" => cfg.solver_threads = parse_num(flag, value()?)?,
                "--rate-limit" => {
                    let v = value()?;
                    cfg.rate_limit = Some(parse_rate_limit(v).ok_or_else(|| {
                        ArgsError::Invalid(format!(
                            "{flag}: '{v}' is not RPS[:BURST] with both > 0"
                        ))
                    })?);
                }
                "--io-timeout" => cfg.io_timeout_ms = Some(parse_positive(flag, value()?)?),
                "--reactor-threads" => cfg.reactor_threads = parse_positive(flag, value()?)?,
                "--peers" => {
                    let v = value()?;
                    if v.split(',').any(str::is_empty) {
                        return Err(ArgsError::Invalid(format!(
                            "{flag}: '{v}' has an empty peer address"
                        )));
                    }
                    cfg.peers = v.split(',').map(str::to_string).collect();
                }
                "--replicas" => cfg.replicas = parse_positive(flag, value()?)?,
                "--peer-dial-timeout-ms" => {
                    cfg.peer_dial_timeout_ms = parse_positive(flag, value()?)?
                }
                "--peer-io-timeout-ms" => cfg.peer_io_timeout_ms = parse_positive(flag, value()?)?,
                "--peer-heartbeat-ms" => cfg.peer_heartbeat_ms = parse_positive(flag, value()?)?,
                "--peer-suspect-after-ms" => {
                    cfg.peer_suspect_after_ms = parse_positive(flag, value()?)?
                }
                "--peer-dead-after-ms" => cfg.peer_dead_after_ms = parse_positive(flag, value()?)?,
                "--antientropy-every" => cfg.antientropy_every = parse_num(flag, value()?)?,
                "--hint-cap" => cfg.hint_cap = parse_positive(flag, value()?)?,
                _ => return Err(ArgsError::Invalid(format!("unknown flag '{flag}'"))),
            }
        }
        Ok(cfg)
    }
}

/// The daemon's `main`: parses `args` with [`Config::from_args`], serves
/// until a client sends SHUTDOWN, and returns the exit status (2 for a
/// usage error). `prog` names the entry point in usage and error lines.
pub fn run_daemon<S: AsRef<str>>(prog: &str, args: &[S]) -> ExitCode {
    let cfg = match Config::from_args(args) {
        Ok(cfg) => cfg,
        Err(ArgsError::Help) => {
            print!("usage: {prog} [options]\n{DAEMON_FLAGS}");
            return ExitCode::SUCCESS;
        }
        Err(ArgsError::Invalid(msg)) => {
            eprintln!("{prog}: {msg} (`{prog} --help` lists the flags)");
            return ExitCode::from(2);
        }
    };
    let workers = cfg.workers;
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{prog}: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} ({} workers)", handle.local_addr(), workers);
    handle.join();
    eprintln!("{prog}: drained and stopped");
    ExitCode::SUCCESS
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, ArgsError> {
        Config::from_args(args)
    }

    fn invalid(args: &[&str]) -> bool {
        matches!(parse(args), Err(ArgsError::Invalid(_)))
    }

    #[test]
    fn no_flags_give_the_defaults_on_the_default_address() {
        let cfg = parse(&[]).unwrap();
        let def = Config::default();
        assert_eq!(cfg.addr, DEFAULT_ADDR);
        assert_eq!(cfg.solver_threads, 1);
        assert_eq!(cfg.cache_budget_bytes, def.cache_budget_bytes);
        assert_eq!(cfg.antientropy_every, def.antientropy_every);
        assert!(!cfg.log_requests);
        assert!(cfg.peers.is_empty());
    }

    #[test]
    fn every_flag_sets_its_field() {
        let cfg = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "9",
            "--cache-mb",
            "5",
            "--shards",
            "2",
            "--cache-dir",
            "spill",
            "--cache-dir-budget",
            "4096",
            "--max-conns",
            "7",
            "--timeout-ms",
            "1500",
            "--threads",
            "2",
            "--log-requests",
            "--rate-limit",
            "10:15",
            "--io-timeout",
            "800",
            "--reactor-threads",
            "4",
            "--peers",
            "10.0.0.1:7654,10.0.0.2:7654",
            "--replicas",
            "2",
            "--peer-dial-timeout-ms",
            "11",
            "--peer-io-timeout-ms",
            "12",
            "--peer-heartbeat-ms",
            "13",
            "--peer-suspect-after-ms",
            "14",
            "--peer-dead-after-ms",
            "15",
            "--antientropy-every",
            "0",
            "--hint-cap",
            "16",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 9);
        assert_eq!(cfg.cache_budget_bytes, 5 << 20);
        assert_eq!(cfg.cache_shards, 2);
        assert_eq!(cfg.cache_dir, Some(PathBuf::from("spill")));
        assert_eq!(cfg.cache_dir_budget, Some(4096));
        assert_eq!(cfg.max_conns, 7);
        assert_eq!(cfg.default_timeout_ms, 1500);
        assert_eq!(cfg.solver_threads, 2);
        assert!(cfg.log_requests);
        assert_eq!(cfg.rate_limit, Some((10, 15)));
        assert_eq!(cfg.io_timeout_ms, Some(800));
        assert_eq!(cfg.reactor_threads, 4);
        assert_eq!(cfg.peers, ["10.0.0.1:7654", "10.0.0.2:7654"]);
        assert_eq!(cfg.replicas, 2);
        assert_eq!(cfg.peer_dial_timeout_ms, 11);
        assert_eq!(cfg.peer_io_timeout_ms, 12);
        assert_eq!(cfg.peer_heartbeat_ms, 13);
        assert_eq!(cfg.peer_suspect_after_ms, 14);
        assert_eq!(cfg.peer_dead_after_ms, 15);
        assert_eq!(cfg.antientropy_every, 0);
        assert_eq!(cfg.hint_cap, 16);
    }

    #[test]
    fn zero_is_accepted_only_where_it_means_something() {
        let cfg = parse(&[
            "--cache-mb",
            "0",
            "--threads",
            "0",
            "--cache-dir-budget",
            "0",
        ])
        .unwrap();
        assert_eq!(cfg.cache_budget_bytes, 0);
        assert_eq!(cfg.solver_threads, 0);
        assert_eq!(cfg.cache_dir_budget, Some(0));
        for flag in [
            "--workers",
            "--queue",
            "--shards",
            "--max-conns",
            "--timeout-ms",
            "--io-timeout",
            "--reactor-threads",
            "--replicas",
            "--peer-dial-timeout-ms",
            "--peer-io-timeout-ms",
            "--peer-heartbeat-ms",
            "--peer-suspect-after-ms",
            "--peer-dead-after-ms",
            "--hint-cap",
        ] {
            assert!(invalid(&[flag, "0"]), "{flag} 0 must be rejected");
        }
        assert!(invalid(&["--rate-limit", "0"]));
        assert!(invalid(&["--rate-limit", "5:0"]));
    }

    #[test]
    fn garbage_missing_and_unknown_are_rejected() {
        assert!(invalid(&["--workers", "many"]));
        assert!(invalid(&["--workers", "-1"]));
        assert!(invalid(&["--threads", "2.5"]));
        assert!(invalid(&["--cache-dir-budget", "lots"]));
        assert!(invalid(&["--rate-limit", "5:x"]));
        assert!(invalid(&["--peers", ""]));
        assert!(invalid(&["--peers", "10.0.0.1:7654,,10.0.0.2:7654"]));
        assert!(invalid(&["--peers", "10.0.0.1:7654,"]));
        assert!(invalid(&["--addr"]));
        assert!(invalid(&["--hint-cap"]));
        assert!(invalid(&["--frobnicate", "1"]));
        assert!(invalid(&["127.0.0.1:7654"]));
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(
            parse(&["--workers", "2", "-h"]).unwrap_err(),
            ArgsError::Help
        );
    }

    #[test]
    fn values_that_would_wrap_are_rejected() {
        // 2^44 MiB is 2^64 bytes: `v << 20` would wrap to 0 and silently
        // disable the cache.
        assert!(invalid(&["--cache-mb", "17592186044416"]));
        assert_eq!(
            parse(&["--cache-mb", "17592186044415"])
                .unwrap()
                .cache_budget_bytes,
            17592186044415 << 20
        );
        // 2^32 would truncate to 0 and silently disable anti-entropy.
        assert!(invalid(&["--antientropy-every", "4294967296"]));
        assert_eq!(
            parse(&["--antientropy-every", "4294967295"])
                .unwrap()
                .antientropy_every,
            u32::MAX
        );
        assert!(invalid(&["--workers", "18446744073709551616"]));
    }

    #[test]
    fn rate_limit_burst_defaults_to_twice_the_rate() {
        assert_eq!(
            parse(&["--rate-limit", "7"]).unwrap().rate_limit,
            Some((7, 14))
        );
    }
}
