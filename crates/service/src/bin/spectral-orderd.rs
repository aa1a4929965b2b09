//! `spectral-orderd` — the persistent ordering daemon.
//!
//! ```text
//! spectral-orderd [options]
//!   --addr HOST:PORT    bind address (default 127.0.0.1:7654; port 0 = ephemeral)
//!   --workers N         worker threads (default: min(cores, 8))
//!   --queue N           bounded job-queue capacity (default 64)
//!   --cache-mb N        ordering-cache budget in MiB (default 32, 0 disables)
//!   --shards N          cache shard count (default 8)
//!   --cache-dir PATH    persist the cache to PATH (reloaded at startup)
//!   --max-conns N       connection limit; excess clients get a retriable
//!                       "server busy" error (default 1024)
//!   --timeout-ms N      default per-request wall-clock timeout (default 30000)
//!   --rate-limit RPS[:BURST]
//!                       per-client-IP token-bucket limit; clients over the
//!                       limit get a fatal "rate limited" error (default: off;
//!                       BURST defaults to 2*RPS)
//!   --io-timeout MS     per-connection socket read/write timeout, bounding
//!                       slow-loris clients (default: off)
//!   --reactor-threads N event-loop threads for the poll-based reactor
//!                       transport (default 1)
//!   --peers HOST:PORT,...
//!                       join a consistent-hash mesh with these peers: a
//!                       local cache miss for a key another node owns is
//!                       forwarded there and the response relayed; every
//!                       member must be started with the same textual
//!                       addresses (default: single node)
//!   --replicas N        mesh replication factor; entries this node owns
//!                       are pushed to N-1 ring successors (default 1,
//!                       meaningful only with --peers)
//!   --peer-dial-timeout-ms N
//!                       dial deadline for one peer connection (default 250)
//!   --peer-io-timeout-ms N
//!                       read/write deadline on peer connections, including
//!                       heartbeats and membership exchanges (default 2000)
//!   --peer-heartbeat-ms N
//!                       failure-detector heartbeat period (default 1000)
//!   --peer-suspect-after-ms N
//!                       silence before a member turns Suspect (default 3000)
//!   --peer-dead-after-ms N
//!                       silence before a Suspect member turns Dead and is
//!                       routed around (default 10000)
//!   --antientropy-every N
//!                       run the anti-entropy digest exchange every N
//!                       heartbeat rounds (default 8; 0 disables)
//!   --hint-cap N        hinted-handoff queue depth per unreachable peer;
//!                       past the cap the oldest hint is dropped (default 512)
//! ```
//!
//! The daemon prints `listening on ADDR` once ready and exits after a
//! client sends `SHUTDOWN` (in-flight and queued work finishes first).

use se_service::Config;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spectral-orderd [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache-mb N] [--shards N] [--cache-dir PATH] [--max-conns N] \
         [--timeout-ms N] [--rate-limit RPS[:BURST]] [--io-timeout MS] \
         [--reactor-threads N] [--peers HOST:PORT,...] [--replicas N] \
         [--peer-dial-timeout-ms N] [--peer-io-timeout-ms N] \
         [--peer-heartbeat-ms N] [--peer-suspect-after-ms N] \
         [--peer-dead-after-ms N] [--antientropy-every N] [--hint-cap N]"
    );
    ExitCode::from(2)
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

fn main() -> ExitCode {
    let mut cfg = Config {
        addr: "127.0.0.1:7654".to_string(),
        ..Config::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| -> Option<usize> {
            it.next().and_then(|v| v.parse().ok())
        };
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => cfg.addr = v,
                None => return usage(),
            },
            "--workers" => match num(&mut it) {
                Some(v) if v > 0 => cfg.workers = v,
                _ => return usage(),
            },
            "--queue" => match num(&mut it) {
                Some(v) if v > 0 => cfg.queue_capacity = v,
                _ => return usage(),
            },
            "--cache-mb" => match num(&mut it) {
                Some(v) => cfg.cache_budget_bytes = v << 20,
                None => return usage(),
            },
            "--shards" => match num(&mut it) {
                Some(v) if v > 0 => cfg.cache_shards = v,
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(v) => cfg.cache_dir = Some(v.into()),
                None => return usage(),
            },
            "--max-conns" => match num(&mut it) {
                Some(v) if v > 0 => cfg.max_conns = v,
                _ => return usage(),
            },
            "--timeout-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.default_timeout_ms = v as u64,
                _ => return usage(),
            },
            "--rate-limit" => match it.next().as_deref().and_then(parse_rate_limit) {
                Some(limit) => cfg.rate_limit = Some(limit),
                None => return usage(),
            },
            "--io-timeout" => match num(&mut it) {
                Some(v) if v > 0 => cfg.io_timeout_ms = Some(v as u64),
                _ => return usage(),
            },
            "--reactor-threads" => match num(&mut it) {
                Some(v) if v > 0 => cfg.reactor_threads = v,
                _ => return usage(),
            },
            "--peers" => match it.next() {
                Some(v) if !v.is_empty() => {
                    cfg.peers = v.split(',').map(str::to_string).collect();
                }
                _ => return usage(),
            },
            "--replicas" => match num(&mut it) {
                Some(v) if v > 0 => cfg.replicas = v,
                _ => return usage(),
            },
            "--peer-dial-timeout-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.peer_dial_timeout_ms = v as u64,
                _ => return usage(),
            },
            "--peer-io-timeout-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.peer_io_timeout_ms = v as u64,
                _ => return usage(),
            },
            "--peer-heartbeat-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.peer_heartbeat_ms = v as u64,
                _ => return usage(),
            },
            "--peer-suspect-after-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.peer_suspect_after_ms = v as u64,
                _ => return usage(),
            },
            "--peer-dead-after-ms" => match num(&mut it) {
                Some(v) if v > 0 => cfg.peer_dead_after_ms = v as u64,
                _ => return usage(),
            },
            "--antientropy-every" => match num(&mut it) {
                Some(v) => cfg.antientropy_every = v as u32,
                None => return usage(),
            },
            "--hint-cap" => match num(&mut it) {
                Some(v) if v > 0 => cfg.hint_cap = v,
                _ => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let workers = cfg.workers;
    let handle = match se_service::serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("spectral-orderd: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {} ({} workers)", handle.local_addr(), workers);
    handle.join();
    eprintln!("spectral-orderd: drained and stopped");
    ExitCode::SUCCESS
}
