//! Peer mesh: consistent-hash forwarding, replication and self-healing
//! membership between daemons.
//!
//! With `--peers` configured, every node places the peer addresses plus
//! its own bound address on one consistent-hash ring ([`crate::ring`])
//! over the cache key space ([`crate::cache::pattern_key`]). Ownership is
//! a pure function of the address list, so the nodes coordinate through
//! nothing but their identical configuration:
//!
//! * **forward** — an ORDER that misses the local cache and whose key
//!   belongs to another node is re-sent to the owner (then, on failure, to
//!   each replica successor) over the protocol-v2 binary-frame client,
//!   and the peer's response — `degraded`, `trace` and all — is relayed
//!   unchanged. Forwarded requests carry `"hop":true` and are answered
//!   strictly locally by the receiver, so disagreeing ring views can cost
//!   an extra computation but never a forwarding loop. If every candidate
//!   peer is unreachable the node simply computes the answer itself —
//!   the mesh degrades to independent single nodes, it never errors.
//! * **replicate** — after the owner computes a cacheable entry, it
//!   pushes the entry (in the spill-file byte layout,
//!   [`crate::persist::encode_entry`]) to the next `replicas - 1` ring
//!   successors via `REPLICATE`, best-effort. Replicas answer reads for
//!   the key from their own cache without forwarding — read fan-out.
//! * **handoff** — a draining node ([`crate::engine::Engine::begin_shutdown`])
//!   walks each spill file's successor list on the ring without itself
//!   and ships the entry to the first live taker; entries nobody could
//!   take are parked as hints instead of dropped.
//!
//! Unlike the static mesh this grew out of, the member list is **live**:
//!
//! * every node heartbeats every known member (`PING` over the same
//!   pooled peer connections, [`Mesh::heartbeat_round`]) and runs the
//!   acks through the suspicion state machine of [`crate::membership`] —
//!   `Alive → Suspect → Dead → Rejoining`. Routing ([`Mesh::owns`],
//!   [`Mesh::forward`]) skips members that are not
//!   [routable](crate::membership::PeerState::routable), so survivors
//!   adopt a dead peer's key range until it returns;
//! * a (re)starting node announces itself with `JOIN`
//!   ([`Mesh::announce`]), learns the admitting member's view of the
//!   mesh, and pulls the cached entries it now owns from its peers
//!   (`WARM`, [`Mesh::pull_warm`]). `LEAVE` departs cleanly; a crash is
//!   discovered by the suspicion windows instead;
//! * a replication or handoff push that cannot be delivered parks in a
//!   bounded, disk-backed hint log ([`crate::hints`]) keyed by the target
//!   and replays as ordinary `REPLICATE`s when the target is routable
//!   again ([`Mesh::replay_hints`]);
//! * periodic anti-entropy (`SYNC`, driven by the engine's heartbeat
//!   loop) exchanges per-shard digests of the key ranges two nodes share
//!   and re-pushes whatever a replica is missing — the backstop for
//!   dropped hints and missed windows.
//!
//! The fault plane gates every direction: [`sites::PEER_PARTITION`] makes
//! forward attempts fail as if the peer were unreachable,
//! [`sites::PEER_REPLICATE`] drops replication pushes,
//! [`sites::PEER_HEARTBEAT_DROP`] suppresses outgoing heartbeats and
//! [`sites::PEER_HINT_CORRUPT`] flips bits in stored hints — the chaos
//! suite drives the self-healing proof through them.

use crate::client::{Client, ClientError, ClientPool, RetryPolicy};
use crate::frame::FrameMode;
use crate::hints::HintLog;
use crate::membership::{Clock, MemberTable, Transition};
use crate::metrics::Metrics;
use crate::persist::{self, PersistedEntry};
use crate::proto::{OrderRequest, OrderResponse};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::server::Config;
use se_faults::{lock_unpoisoned, sites, FaultPlane};
use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle connections parked per peer.
const MESH_MAX_IDLE: usize = 2;

/// The retry policy for one forward attempt against one peer. Much
/// tighter than the client-facing default: a dead peer must fail fast so
/// the node falls back to computing locally, not the seconds a
/// human-facing client can afford to wait out. Only cheap failures
/// (refused, reset) are retried at all — a dial or read *timeout*
/// already cost its full window and is not retriable, so the worst-case
/// stall per candidate peer is one window, not `attempts × window`.
fn mesh_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: 0x5e_3e_5b,
    }
}

/// First resolved address of a `host:port` member name, best-effort.
fn resolve_ip(name: &str) -> Option<IpAddr> {
    name.to_socket_addrs().ok()?.next().map(|a| a.ip())
}

/// Everything about a mesh that operators tune; bundled so [`Mesh::new`]
/// does not take nine positional arguments. Built from the daemon
/// [`Config`] by [`MeshTuning::from_config`].
#[derive(Debug, Clone)]
pub struct MeshTuning {
    /// Dial deadline for one peer connection (`--peer-dial-timeout-ms`).
    /// A *refused* dial fails in microseconds, but a blackholed peer (a
    /// real partition drops packets instead of refusing) would otherwise
    /// hang the dial for the OS TCP timeout — minutes on Linux. On the
    /// mesh's local segment a healthy dial completes in single-digit
    /// milliseconds, so a few hundred is already generous.
    pub dial_timeout: Duration,
    /// Socket read/write deadline on peer connections
    /// (`--peer-io-timeout-ms`). Bounds a peer that accepts and then
    /// stalls mid-exchange. Deliberately wider than the dial deadline: a
    /// forwarded *hit* answers in milliseconds, but a forwarded miss
    /// computes at the owner, and cutting that off too eagerly turns
    /// every large-matrix forward into a double compute. The same
    /// deadline bounds heartbeat exchanges.
    pub io_timeout: Duration,
    /// Silence before an `Alive` member turns `Suspect`
    /// (`--peer-suspect-after-ms`).
    pub suspect_after_ms: u64,
    /// Silence before a `Suspect` member turns `Dead`
    /// (`--peer-dead-after-ms`).
    pub dead_after_ms: u64,
    /// Hints queued per unreachable peer before the oldest is dropped.
    pub hint_cap: usize,
    /// Cache directory whose `hints/` subdirectory mirrors the hint
    /// queues to disk; `None` keeps hints in memory only.
    pub hint_dir: Option<PathBuf>,
    /// Time source for the suspicion windows — [`Clock::manual`] in
    /// tests, [`Clock::system`] everywhere else.
    pub clock: Clock,
}

impl MeshTuning {
    /// The tuning `cfg`'s `peer_*`, `hint_cap` and `cache_dir` fields ask
    /// for, on the system clock. The dead window is clamped to at least
    /// the suspect window: a member cannot be declared dead before it
    /// could have been suspected.
    pub fn from_config(cfg: &Config) -> MeshTuning {
        MeshTuning {
            dial_timeout: Duration::from_millis(cfg.peer_dial_timeout_ms),
            io_timeout: Duration::from_millis(cfg.peer_io_timeout_ms),
            suspect_after_ms: cfg.peer_suspect_after_ms,
            dead_after_ms: cfg.peer_dead_after_ms.max(cfg.peer_suspect_after_ms),
            hint_cap: cfg.hint_cap,
            hint_dir: cfg.cache_dir.clone(),
            clock: Clock::system(),
        }
    }
}

/// This node's view of the peer mesh: the live ring, the member table,
/// its own name, the hint log, and a pool of protocol-v2 connections per
/// peer.
pub struct Mesh {
    /// The consistent-hash ring over the *known* member names (live or
    /// not — liveness filtering happens at routing time, so a flapping
    /// peer does not reshuffle ownership of every key it never touched).
    /// Mutated only by JOIN/LEAVE admissions.
    ring: Mutex<HashRing>,
    self_name: String,
    replicas: usize,
    /// peer address → connection pool, built lazily on first contact.
    /// The outer map lock and each pool lock are held only for map/list
    /// operations — never across a dial or a roundtrip — so one slow
    /// peer cannot serialize traffic to every other peer behind it.
    pools: Mutex<HashMap<String, Arc<Mutex<ClientPool>>>>,
    /// Liveness view of every known peer; also the REPLICATE source
    /// allowlist ([`Mesh::replicate_allowed`]).
    members: MemberTable,
    /// Undeliverable replication/handoff pushes, keyed by target.
    hints: HintLog,
    dial_timeout: Duration,
    io_timeout: Duration,
    retry: RetryPolicy,
    faults: FaultPlane,
}

impl Mesh {
    /// Builds the mesh view from the configured peer list and this node's
    /// bound address. The ring holds `peers ∪ {addr}` (textual addresses,
    /// deduplicated), so a peers list that includes the node itself is
    /// harmless. `replicas` is clamped to ≥ 1. Peer names are resolved
    /// once, best-effort, to seed the REPLICATE source allowlist; members
    /// admitted later bring their own source address with their JOIN.
    pub fn new(
        peers: &[String],
        replicas: usize,
        addr: SocketAddr,
        faults: FaultPlane,
        tuning: MeshTuning,
    ) -> Mesh {
        let self_name = addr.to_string();
        let mut nodes = peers.to_vec();
        nodes.push(self_name.clone());
        // Only the *peers* are members: every legitimate REPLICATE
        // (fan-out, drain handoff, hint replay) originates at another
        // member, never at this node itself — and including the local IP
        // would blanket-allow every local process on loopback
        // deployments.
        let peer_names: Vec<String> = peers.iter().filter(|p| **p != self_name).cloned().collect();
        let peer_ips: HashMap<String, IpAddr> = peer_names
            .iter()
            .filter_map(|p| Some((p.clone(), resolve_ip(p)?)))
            .collect();
        Mesh {
            ring: Mutex::new(HashRing::new(&nodes, DEFAULT_VNODES)),
            self_name,
            replicas: replicas.max(1),
            pools: Mutex::new(HashMap::new()),
            members: MemberTable::new(
                &peer_names,
                &peer_ips,
                tuning.clock,
                tuning.suspect_after_ms,
                tuning.dead_after_ms,
            ),
            hints: HintLog::new(tuning.hint_dir.as_deref(), tuning.hint_cap, faults.clone()),
            dial_timeout: tuning.dial_timeout,
            io_timeout: tuning.io_timeout,
            retry: mesh_retry_policy(),
            faults,
        }
    }

    /// Nodes currently on the ring (known members + this node).
    pub fn size(&self) -> usize {
        lock_unpoisoned(&self.ring).len()
    }

    /// This node's ring name (its bound address).
    pub fn self_name(&self) -> &str {
        &self.self_name
    }

    /// The configured replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// A snapshot of the ring (exposed so tests and tools can compute
    /// ownership; owned because the live ring mutates under JOIN/LEAVE).
    pub fn ring(&self) -> HashRing {
        lock_unpoisoned(&self.ring).clone()
    }

    /// The member table (liveness view of every known peer).
    pub fn members(&self) -> &MemberTable {
        &self.members
    }

    /// The key's successor list with every non-routable member skipped
    /// (this node always counts as routable), truncated to `limit`.
    /// This is *the* routing primitive: a dead owner's range falls to
    /// its next live successor everywhere, consistently.
    fn live_route(&self, key: u64, limit: usize) -> Vec<String> {
        let ring = lock_unpoisoned(&self.ring);
        ring.replicas(key, ring.len())
            .into_iter()
            .filter(|n| *n == self.self_name || self.members.routable(n))
            .take(limit)
            .map(str::to_string)
            .collect()
    }

    /// The key's *natural* replica set — ring successors with no
    /// liveness filtering. Hint targets and the anti-entropy range
    /// restriction use this: both sides of a digest exchange must agree
    /// on the shared range regardless of who currently suspects whom.
    pub fn replica_names(&self, key: u64) -> Vec<String> {
        lock_unpoisoned(&self.ring)
            .replicas(key, self.replicas)
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Whether this node is in the live replica set of `key` — the owner
    /// or one of its successors after routing around non-routable
    /// members. Keys this node is responsible for are answered locally;
    /// everything else forwards on a miss.
    pub fn owns(&self, key: u64) -> bool {
        self.live_route(key, self.replicas)
            .contains(&self.self_name)
    }

    /// Whether this node is the live *owner* of `key` (the replication
    /// source). While the natural owner is suspect or dead, its next
    /// live successor holds this role.
    pub fn is_owner(&self, key: u64) -> bool {
        self.live_route(key, 1).first() == Some(&self.self_name)
    }

    /// Whether a REPLICATE push from source address `src` is accepted:
    /// the source IP must belong to a known mesh member (configured, or
    /// admitted by JOIN — the allowlist tracks the live member table).
    /// Ports are not compared — a peer's push arrives from an ephemeral
    /// port, not its listen port. This is a trust boundary against
    /// *accidental* wrong-answer injection (a stray client poisoning the
    /// cache with a well-formed entry under someone else's key), not
    /// cryptographic peer authentication — the mesh port must still be
    /// firewalled to the mesh segment (see OPERATIONS.md). `None` (no
    /// source address available) is refused.
    pub fn replicate_allowed(&self, src: Option<IpAddr>) -> bool {
        src.is_some_and(|ip| self.members.allows_ip(ip))
    }

    /// Total hints currently queued (the `se_hints_queued` gauge).
    pub fn hints_queued(&self) -> u64 {
        self.hints.queued()
    }

    /// Peers with queued hints, sorted.
    pub fn peers_with_hints(&self) -> Vec<String> {
        self.hints.peers_with_hints()
    }

    /// Forwards `req` for `key` to the live owning peer, falling back
    /// through the key's live replica successors; returns the first
    /// response, relayed verbatim. `None` means every candidate was
    /// unreachable (counted in `peer_forward_failures`) and the caller
    /// should answer locally.
    pub fn forward(
        &self,
        key: u64,
        req: &OrderRequest,
        metrics: &Metrics,
    ) -> Option<OrderResponse> {
        let t0 = Instant::now();
        let mut hopped = req.clone();
        // One hop only: the receiver answers locally no matter what its
        // own ring says. Progress streaming and cancel ids are
        // connection-local concepts and do not survive the hop.
        hopped.hop = true;
        hopped.id = None;
        hopped.progress = false;
        let candidates: Vec<String> = self
            .live_route(key, self.replicas)
            .into_iter()
            .filter(|n| *n != self.self_name)
            .collect();
        for peer in &candidates {
            match self.try_order(peer, &hopped) {
                Ok(resp) => {
                    metrics.inc(&metrics.peer_forwards);
                    metrics
                        .stage_latency
                        .record("peer_forward", t0.elapsed().as_micros() as u64);
                    return Some(resp);
                }
                Err(_) => continue,
            }
        }
        metrics.inc(&metrics.peer_forward_failures);
        None
    }

    /// Pushes a freshly computed cacheable entry to the `replicas - 1`
    /// *natural* ring successors after this node. Call only when this
    /// node owns `entry.key`; a no-op with a replication factor of 1.
    /// Best-effort, but no longer lossy: a push to a non-routable or
    /// unreachable successor parks as a hint for that peer instead of
    /// vanishing, and replays when the peer returns.
    pub fn replicate(&self, entry: &PersistedEntry, metrics: &Metrics) {
        if self.replicas <= 1 {
            return;
        }
        let bytes = persist::encode_entry(entry);
        let targets: Vec<String> = {
            let ring = lock_unpoisoned(&self.ring);
            ring.replicas(entry.key, self.replicas)
                .into_iter()
                .filter(|n| *n != self.self_name)
                .map(str::to_string)
                .collect()
        };
        for peer in targets {
            let delivered = !self.faults.should_fail(sites::PEER_REPLICATE)
                && self.members.routable(&peer)
                && self.try_replicate(&peer, &bytes).is_ok();
            if delivered {
                metrics.inc(&metrics.peer_replications);
            } else {
                metrics.inc(&metrics.peer_replication_failures);
                self.queue_hint(&peer, entry.key, bytes.clone(), metrics);
            }
        }
    }

    /// Ships every entry to its new home on the ring without this node —
    /// the drain path of a graceful shutdown. Each entry walks the key's
    /// *live* successor list and lands at the first taker; entries with
    /// no reachable taker park as hints toward the key's natural next
    /// owner instead of being dropped with the warm cache. Returns how
    /// many entries a peer accepted.
    pub fn handoff(&self, entries: Vec<PersistedEntry>, metrics: &Metrics) -> usize {
        let mut shipped = 0usize;
        for entry in entries {
            let bytes = persist::encode_entry(&entry);
            let candidates: Vec<String> = self
                .live_route(entry.key, self.size())
                .into_iter()
                .filter(|n| *n != self.self_name)
                .collect();
            let mut delivered = false;
            for peer in &candidates {
                match self.try_replicate(peer, &bytes) {
                    Ok(_) => {
                        shipped += 1;
                        metrics.inc(&metrics.peer_replications);
                        delivered = true;
                        break;
                    }
                    Err(_) => metrics.inc(&metrics.peer_replication_failures),
                }
            }
            if !delivered {
                let fallback = {
                    let ring = lock_unpoisoned(&self.ring);
                    ring.owner_excluding(entry.key, &self.self_name)
                        .map(str::to_string)
                };
                if let Some(peer) = fallback {
                    self.queue_hint(&peer, entry.key, bytes, metrics);
                }
            }
        }
        shipped
    }

    /// Queues a hint and counts any overflow drop.
    fn queue_hint(&self, peer: &str, key: u64, bytes: Vec<u8>, metrics: &Metrics) {
        for _ in 0..self.hints.queue(peer, key, bytes) {
            metrics.inc(&metrics.hints_dropped);
        }
    }

    /// Replays every hint queued for `peer` as ordinary REPLICATEs.
    /// Corrupt hints are dropped at validation ([`crate::hints`]);
    /// deliveries that fail again re-queue for the next window. Returns
    /// how many hints were delivered.
    pub fn replay_hints(&self, peer: &str, metrics: &Metrics) -> usize {
        let (hints, invalid) = self.hints.take(peer);
        for _ in 0..invalid {
            metrics.inc(&metrics.hints_dropped);
        }
        let mut replayed = 0usize;
        for (key, bytes) in hints {
            let delivered = !self.faults.should_fail(sites::PEER_REPLICATE)
                && self.try_replicate(peer, &bytes).is_ok();
            if delivered {
                replayed += 1;
                metrics.inc(&metrics.hints_replayed);
                metrics.inc(&metrics.peer_replications);
            } else {
                metrics.inc(&metrics.peer_replication_failures);
                self.queue_hint(peer, key, bytes, metrics);
            }
        }
        replayed
    }

    /// One failure-detector round: PING every known member (dead ones
    /// too — that is how a silent restart is discovered), record acks,
    /// then advance the suspicion clock. Returns every state transition
    /// that fired, for the caller to count and to trigger hint replays.
    /// [`sites::PEER_HEARTBEAT_DROP`] suppresses outgoing pings (the
    /// peer then suspects *us*); an armed [`sites::PEER_PARTITION`]
    /// fails them like any other traffic.
    pub fn heartbeat_round(&self) -> Vec<Transition> {
        let mut transitions = Vec::new();
        for peer in self.members.names() {
            if self.faults.should_fail(sites::PEER_HEARTBEAT_DROP)
                || self.faults.should_fail(sites::PEER_PARTITION)
            {
                continue;
            }
            let acked = self
                .checkout(&peer)
                .and_then(|mut client| {
                    let responder = client.ping(&self.self_name)?;
                    self.checkin(&peer, client);
                    Ok(responder)
                })
                .is_ok();
            if acked {
                transitions.extend(self.members.record_ack(&peer));
            }
        }
        transitions.extend(self.members.tick());
        transitions
    }

    /// Announces this node to every known member with JOIN and merges
    /// each admitting member's view of the mesh into this one. Returns
    /// `(members that admitted us, transitions observed)`.
    pub fn announce(&self) -> (usize, Vec<Transition>) {
        let mut admitted_by = 0usize;
        let mut transitions = Vec::new();
        for peer in self.members.names() {
            if self.faults.should_fail(sites::PEER_PARTITION) {
                continue;
            }
            let outcome = self.checkout(&peer).and_then(|mut client| {
                let members = client.join(&self.self_name)?;
                self.checkin(&peer, client);
                Ok(members)
            });
            let Ok(learned) = outcome else { continue };
            admitted_by += 1;
            // A completed JOIN exchange is proof of life for the admitter.
            transitions.extend(self.members.record_ack(&peer));
            for name in learned {
                if name != self.self_name && self.members.state(&name).is_none() {
                    let (_, t) = self.admit(&name, None);
                    transitions.extend(t);
                }
            }
        }
        (admitted_by, transitions)
    }

    /// Tells every routable member this node is leaving (the drain
    /// path). Best-effort; a member that misses the announcement
    /// discovers the departure through its suspicion windows instead.
    pub fn announce_leave(&self) {
        for peer in self.members.names() {
            if !self.members.routable(&peer) {
                continue;
            }
            let _ = self.checkout(&peer).and_then(|mut client| {
                client.leave(&self.self_name)?;
                self.checkin(&peer, client);
                Ok(())
            });
        }
    }

    /// Pulls the cached entries this node now owns from every routable
    /// member (`WARM`) — the warm-up phase of a (re)join. Entries arrive
    /// in the spill byte layout and are decoded here; the caller inserts
    /// them into its cache.
    pub fn pull_warm(&self) -> Vec<PersistedEntry> {
        let mut out = Vec::new();
        for peer in self.members.names() {
            if !self.members.routable(&peer) {
                continue;
            }
            let pulled = self.checkout(&peer).and_then(|mut client| {
                let entries = client.warm(&self.self_name)?;
                self.checkin(&peer, client);
                Ok(entries)
            });
            let Ok(entries) = pulled else { continue };
            for bytes in entries {
                if let Ok(entry) = persist::load_from(&bytes[..]) {
                    out.push(entry);
                }
            }
        }
        out
    }

    /// Admits `peer` into the member table and onto the ring (a received
    /// JOIN, or a member learned from one). `ip` is the announcement's
    /// source address when known; otherwise the name is resolved
    /// best-effort. Returns `(newly_known, transition)`.
    pub fn admit(&self, peer: &str, ip: Option<IpAddr>) -> (bool, Option<Transition>) {
        if peer == self.self_name {
            return (false, None);
        }
        let (new, transition) = self.members.admit(peer, ip.or_else(|| resolve_ip(peer)));
        lock_unpoisoned(&self.ring).add(peer);
        (new, transition)
    }

    /// Marks `peer` departed (a received LEAVE): immediately `Dead` in
    /// the member table and off the ring, so its range reassigns now
    /// rather than a suspicion window later. The member stays known —
    /// still heartbeated, still on the allowlist — so a later restart is
    /// discovered and re-admitted.
    pub fn depart(&self, peer: &str) -> Option<Transition> {
        let transition = self.members.depart(peer);
        lock_unpoisoned(&self.ring).remove(peer);
        transition
    }

    /// One anti-entropy digest exchange against `peer`: sends this
    /// node's per-shard `digests` and returns the mismatching shard
    /// indices plus the keys the peer holds there.
    pub fn try_sync(
        &self,
        peer: &str,
        digests: &[u64],
    ) -> Result<(Vec<usize>, Vec<u64>), ClientError> {
        let mut client = self.checkout(peer)?;
        let answer = client.sync(&self.self_name, digests)?;
        self.checkin(peer, client);
        Ok(answer)
    }

    /// Pushes one already-encoded entry to `peer` (anti-entropy repair
    /// delivery). Returns whether the peer stored it.
    pub fn push_entry(&self, peer: &str, bytes: &[u8]) -> Result<bool, ClientError> {
        self.try_replicate(peer, bytes)
    }

    /// One ORDER against one peer, retried under the mesh policy while
    /// the failure is retriable. A simulated partition
    /// ([`sites::PEER_PARTITION`]) fails each attempt before it dials.
    fn try_order(&self, peer: &str, req: &OrderRequest) -> Result<OrderResponse, ClientError> {
        let delays = self.retry.delays();
        let mut attempt = 0usize;
        loop {
            let result = if self.faults.should_fail(sites::PEER_PARTITION) {
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    format!("injected partition toward {peer}"),
                )))
            } else {
                self.checkout(peer).and_then(|mut client| {
                    let resp = client.order(req.clone())?;
                    self.checkin(peer, client);
                    Ok(resp)
                })
            };
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retriable() && attempt < delays.len() => {
                    std::thread::sleep(delays[attempt]);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One REPLICATE push against one peer (single attempt — replication
    /// is best-effort by design; what fails becomes a hint).
    fn try_replicate(&self, peer: &str, bytes: &[u8]) -> Result<bool, ClientError> {
        let mut client = self.checkout(peer)?;
        let stored = client.replicate(bytes)?;
        self.checkin(peer, client);
        Ok(stored)
    }

    /// An idle pooled connection to `peer`, or a freshly dialed one. No
    /// lock is ever held across the dial (or the name resolution a cold
    /// pool needs): the map lock covers only the lookup/insert, the pool
    /// lock only the idle-list pop, and the dial itself — bounded by the
    /// configured dial timeout — runs lock-free, so one unreachable peer
    /// cannot block forwards and replications to every other peer.
    fn checkout(&self, peer: &str) -> Result<Client, ClientError> {
        let pool = {
            let pools = lock_unpoisoned(&self.pools);
            pools.get(peer).map(Arc::clone)
        };
        let pool = match pool {
            Some(pool) => pool,
            None => {
                // Resolve the peer name with no lock held, then publish
                // the pool (first inserter wins a racing build).
                let fresh = ClientPool::new(peer, FrameMode::Binary, MESH_MAX_IDLE)?
                    .with_timeouts(self.dial_timeout, self.io_timeout);
                let mut pools = lock_unpoisoned(&self.pools);
                Arc::clone(
                    pools
                        .entry(peer.to_string())
                        .or_insert_with(|| Arc::new(Mutex::new(fresh))),
                )
            }
        };
        let dialer = {
            let mut pool = lock_unpoisoned(&pool);
            match pool.pop_idle() {
                Some(client) => return Ok(client),
                None => pool.dialer(),
            }
        };
        dialer.dial()
    }

    /// Parks a connection that completed its roundtrip cleanly. Failed
    /// connections are simply dropped — the next checkout redials.
    fn checkin(&self, peer: &str, client: Client) {
        let pool = {
            let pools = lock_unpoisoned(&self.pools);
            pools.get(peer).map(Arc::clone)
        };
        if let Some(pool) = pool {
            lock_unpoisoned(&pool).put(client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PeerState;
    use se_faults::FaultPlane;
    use sparsemat::envelope::EnvelopeStats;
    use std::sync::atomic::Ordering;

    fn mesh(replicas: usize) -> Mesh {
        Mesh::new(
            &["10.0.0.1:7878".to_string(), "10.0.0.2:7878".to_string()],
            replicas,
            "10.0.0.3:7878".parse().unwrap(),
            FaultPlane::disabled(),
            MeshTuning::from_config(&Config::default()),
        )
    }

    fn entry(key: u64) -> PersistedEntry {
        PersistedEntry {
            key,
            n: 3,
            adjacency_len: 2,
            stats: EnvelopeStats {
                envelope_size: 1,
                bandwidth: 1,
                envelope_work: 2,
                one_sum: 3,
                two_sum_sq: 4,
            },
            compression_ratio: None,
            degraded: None,
            perm: vec![0, 1, 2],
        }
    }

    #[test]
    fn ring_contains_self_and_ownership_partitions() {
        let m = mesh(1);
        assert_eq!(m.size(), 3);
        assert_eq!(m.self_name(), "10.0.0.3:7878");
        let owned = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .filter(|&k| m.owns(k))
            .count();
        assert!(owned > 1_000 && owned < 9_000, "owned {owned} of 10000");
        // With replicas = ring size, every node is responsible for
        // everything.
        let all = mesh(3);
        assert!((0..1_000u64).all(|k| all.owns(k)));
    }

    #[test]
    fn owner_and_replica_responsibility_agree_with_the_ring() {
        let m = mesh(2);
        let ring = m.ring();
        for key in (0..5_000u64).map(|i| i.wrapping_mul(0x517cc1b727220a95)) {
            let reps = ring.replicas(key, 2);
            assert_eq!(m.owns(key), reps.contains(&m.self_name()));
            assert_eq!(m.is_owner(key), reps[0] == m.self_name());
        }
    }

    #[test]
    fn dead_members_are_routed_around_and_their_range_adopted() {
        let m = mesh(1);
        // Mark both peers dead (suspicion outcome, not LEAVE — they stay
        // on the ring). Every key now falls to the only live node: self.
        m.members().depart("10.0.0.1:7878");
        m.members().depart("10.0.0.2:7878");
        assert!((0..1_000u64).all(|k| m.owns(k) && m.is_owner(k)));
        // Readmission restores the original partitioning.
        m.admit("10.0.0.1:7878", None);
        m.admit("10.0.0.2:7878", None);
        assert_eq!(m.members().state("10.0.0.1:7878"), Some(PeerState::Alive));
        let owned = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .filter(|&k| m.owns(k))
            .count();
        assert!(owned < 9_000, "dead-range adoption must be reversible");
    }

    #[test]
    fn leave_reassigns_the_range_immediately() {
        let m = mesh(1);
        let ring = m.ring();
        let key = (0..)
            .map(|i: u64| i.wrapping_mul(0x9e3779b97f4a7c15))
            .find(|&k| ring.owner(k) == "10.0.0.1:7878")
            .unwrap();
        assert!(!m.owns(key));
        let t = m.depart("10.0.0.1:7878");
        assert_eq!(
            t,
            Some((
                "10.0.0.1:7878".to_string(),
                PeerState::Alive,
                PeerState::Dead
            ))
        );
        assert_eq!(m.size(), 2, "LEAVE takes the member off the ring");
        // The departed name no longer owns anything; someone live does.
        let ring = m.ring();
        assert_ne!(ring.owner(key), "10.0.0.1:7878");
    }

    #[test]
    fn replicate_to_unroutable_members_parks_hints() {
        let m = mesh(3);
        m.members().depart("10.0.0.1:7878");
        m.members().depart("10.0.0.2:7878");
        let metrics = Metrics::new();
        m.replicate(&entry(42), &metrics);
        // Both natural successors were dead: two hints, no deliveries.
        assert_eq!(m.hints_queued(), 2);
        assert_eq!(
            m.peers_with_hints(),
            vec!["10.0.0.1:7878".to_string(), "10.0.0.2:7878".to_string()]
        );
    }

    #[test]
    fn handoff_with_no_live_taker_parks_a_hint_for_the_next_owner() {
        let m = mesh(1);
        m.members().depart("10.0.0.1:7878");
        m.members().depart("10.0.0.2:7878");
        let metrics = Metrics::new();
        let shipped = m.handoff(vec![entry(7)], &metrics);
        assert_eq!(shipped, 0);
        assert_eq!(m.hints_queued(), 1, "the entry parks instead of dropping");
        let expect = m
            .ring()
            .owner_excluding(7, m.self_name())
            .unwrap()
            .to_string();
        assert_eq!(m.peers_with_hints(), vec![expect]);
    }

    #[test]
    fn replicate_allowed_only_for_member_source_ips() {
        let m = mesh(2);
        // Only the configured peers may push entries.
        assert!(m.replicate_allowed("10.0.0.1".parse().ok()));
        assert!(m.replicate_allowed("10.0.0.2".parse().ok()));
        // Anyone else — this node's own address (no legitimate flow
        // replicates to self), strangers, or an unknown-source
        // connection — is refused, ports notwithstanding.
        assert!(!m.replicate_allowed("10.0.0.3".parse().ok()));
        assert!(!m.replicate_allowed("10.0.0.4".parse().ok()));
        assert!(!m.replicate_allowed("127.0.0.1".parse().ok()));
        assert!(!m.replicate_allowed(None));
        // A JOIN-admitted member's source address becomes allowed, and a
        // departed member keeps its entry (hint replay may precede its
        // JOIN after a restart).
        m.admit("10.0.0.9:7878", "10.0.0.9".parse().ok());
        assert!(m.replicate_allowed("10.0.0.9".parse().ok()));
        m.depart("10.0.0.9:7878");
        assert!(m.replicate_allowed("10.0.0.9".parse().ok()));
    }

    #[test]
    fn forward_with_no_reachable_peer_reports_failure() {
        // Ports 1/2 on loopback refuse immediately; forward must return
        // None (fall back to local compute) and count the failure.
        let m = Mesh::new(
            &["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            2,
            "127.0.0.1:3".parse().unwrap(),
            FaultPlane::disabled(),
            MeshTuning::from_config(&Config::default()),
        );
        let metrics = Metrics::new();
        let req = OrderRequest::inline_mtx(se_order::Algorithm::Rcm, "x");
        let key = 42u64;
        if !m.owns(key) {
            assert!(m.forward(key, &req, &metrics).is_none());
            assert_eq!(metrics.peer_forward_failures.load(Ordering::Relaxed), 1);
        }
    }
}
