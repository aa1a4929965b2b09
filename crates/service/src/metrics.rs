//! Live service metrics: atomic counters, keyed counter tables and latency
//! histogram tables, snapshotted as JSON by the STATS command and rendered
//! as Prometheus text by METRICS. Every family either surface shows — the
//! counters, the keyed tables, the histograms and the engine's gauges — is
//! declared once in [`FAMILIES`], which both renderers walk.

use crate::cache::ShardStats;
use crate::json::Json;
use crate::membership::PeerState;
use se_faults::lock_unpoisoned;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two microsecond buckets: bucket `i` counts latencies
/// in `[2^i, 2^(i+1))` µs, with bucket 0 covering `[0, 2)` and the last
/// bucket open-ended. 30 buckets reach ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 30;

/// A latency histogram with power-of-two µs buckets.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, micros: u64) {
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_micros += micros;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw bucket counts (bucket `i` counts `[2^i, 2^(i+1))` µs, the
    /// last bucket open-ended) — what the Prometheus exposition renders as
    /// cumulative `_bucket` lines.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Sum of every recorded observation in µs.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q <= 1) in µs: the
    /// upper edge of the bucket containing the quantile rank.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        self.max_micros
    }

    fn to_json(&self) -> Json {
        let mean = if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        };
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("mean_us", Json::Num(mean)),
            ("p50_us", Json::Num(self.quantile_micros(0.50) as f64)),
            ("p99_us", Json::Num(self.quantile_micros(0.99) as f64)),
            ("max_us", Json::Num(self.max_micros as f64)),
        ])
    }
}

/// Rows of `T` keyed by a label value (a degradation reason, an algorithm
/// name, a `from:to` transition), behind one lock.
#[derive(Debug, Default)]
pub struct Table<T>(Mutex<Vec<(String, T)>>);

/// Counters keyed by a label value.
pub type KeyedCounter = Table<u64>;

/// Latency histograms keyed by a label value.
pub type HistogramTable = Table<Histogram>;

impl<T: Default + Clone> Table<T> {
    /// Applies `f` to `key`'s row under one lock, adding a default row
    /// first when `key` is new — the only case that allocates.
    fn update(&self, key: &str, f: impl FnOnce(&mut T)) {
        let mut rows = lock_unpoisoned(&self.0);
        match rows.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => f(v),
            None => {
                let mut v = T::default();
                f(&mut v);
                rows.push((key.to_string(), v));
            }
        }
    }

    /// `f` of `key`'s row, or `R::default()` when `key` has no row.
    fn read<R: Default>(&self, key: &str, f: impl FnOnce(&T) -> R) -> R {
        lock_unpoisoned(&self.0)
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(R::default, |(_, v)| f(v))
    }

    /// Every row, sorted by key.
    pub fn rows(&self) -> Vec<(String, T)> {
        let mut rows = lock_unpoisoned(&self.0).clone();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

impl Table<u64> {
    /// Counts one event under `key`.
    pub fn inc(&self, key: &str) {
        self.update(key, |v| *v += 1);
    }

    /// Events counted under `key`.
    pub fn get(&self, key: &str) -> u64 {
        self.read(key, |v| *v)
    }
}

impl Table<Histogram> {
    /// Records one observation under `key`.
    pub fn record(&self, key: &str, micros: u64) {
        self.update(key, |h| h.record(micros));
    }

    /// Observations recorded under `key`.
    pub fn count(&self, key: &str) -> u64 {
        self.read(key, Histogram::count)
    }
}

/// All counters the service exposes through STATS and METRICS, each
/// declared as a family in [`FAMILIES`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Request lines received (any command).
    pub requests: AtomicU64,
    /// Individual ORDER executions (batch members count individually).
    pub orders: AtomicU64,
    /// BATCH commands received.
    pub batches: AtomicU64,
    /// Orderings served from the cache.
    pub cache_hits: AtomicU64,
    /// Orderings computed because the cache missed.
    pub cache_misses: AtomicU64,
    /// Submissions rejected with queue-full backpressure.
    pub queue_rejections: AtomicU64,
    /// Requests that exceeded their wall-clock timeout.
    pub timeouts: AtomicU64,
    /// Requests that failed (parse errors, bad input, I/O).
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections turned away at the limit with a retriable busy error.
    /// `Arc` so the reactor transport can bump it from its accept path.
    pub busy_rejections: Arc<AtomicU64>,
    /// ORDER requests whose response was suppressed by a CANCEL (dropped
    /// while queued or finished-but-discarded).
    pub cancelled: AtomicU64,
    /// Requests rejected by per-client rate limiting.
    pub rate_limited: AtomicU64,
    /// `PROGRESS` frames put on the wire (v2 connections that opted in).
    pub progress_frames: AtomicU64,
    /// Reactor event-loop wakeups (poll returns). Shared with the reactor
    /// as an `Arc` so the event loops can bump it without seeing `Metrics`.
    pub reactor_wakeups: Arc<AtomicU64>,
    /// Currently open client connections (gauge).
    pub open_connections: AtomicU64,
    /// ORDER/BATCH-member requests currently submitted but unanswered
    /// (gauge).
    pub inflight_requests: AtomicU64,
    /// ORDER requests forwarded to the mesh peer owning their key and
    /// answered from the peer's response.
    pub peer_forwards: AtomicU64,
    /// Forward attempts that exhausted every candidate peer (the request
    /// then fell back to local computation).
    pub peer_forward_failures: AtomicU64,
    /// Cache entries pushed to successor peers for read fan-out.
    pub peer_replications: AtomicU64,
    /// Replication pushes that failed (peer down, partition, injected
    /// fault) — best-effort, never an error for the client.
    pub peer_replication_failures: AtomicU64,
    /// Cache entries received from peers via REPLICATE (replication or
    /// drain handoff) and stored locally.
    pub peer_entries_received: AtomicU64,
    /// Queued hints delivered to their returned target peer.
    pub hints_replayed: AtomicU64,
    /// Hints dropped — queue overflow (oldest first) or corruption
    /// detected at replay validation.
    pub hints_dropped: AtomicU64,
    /// Entries re-pushed to a diverged replica by the anti-entropy
    /// digest exchange.
    pub antientropy_repairs: AtomicU64,
    /// Peer suspicion-state transitions, keyed `from:to` (lowercase
    /// [`PeerState`] names).
    pub peer_transitions: KeyedCounter,
    /// Degraded ORDER responses by machine-readable reason
    /// (`not_converged`, `deadline`, `cancelled`, `matvec_cap`,
    /// `numerical`, `fault:<site>`).
    pub degraded_orders: KeyedCounter,
    /// Solver budget aborts by the stage that observed exhaustion.
    pub budget_aborts: KeyedCounter,
    /// End-to-end ORDER latency by algorithm name.
    pub latency: HistogramTable,
    /// Per-request time spent in each pipeline stage (summed over the span
    /// subtree), harvested from the tracer on every computed (cache-miss)
    /// ordering, plus `peer_forward` hops.
    pub stage_latency: HistogramTable,
}

/// Engine state that is not a counter, sampled when a surface renders.
#[derive(Debug, Default)]
pub struct Gauges {
    /// Jobs waiting in the worker pool queue.
    pub queue_depth: usize,
    /// Jobs executing on pool workers.
    pub active_jobs: usize,
    /// Per-shard cache counters, in shard order.
    pub shards: Vec<ShardStats>,
    /// Whether the cache spills to disk.
    pub persistent: bool,
    /// Scheduler health of the engine's cached solver pools (`None`
    /// outside an engine).
    pub solver_pool: Option<PoolHealth>,
    /// The peer mesh (`None` unless peers are configured).
    pub mesh: Option<MeshGauges>,
}

/// Scheduler health summed over the engine's cached work-stealing pools.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolHealth {
    /// Pools alive in the per-thread-count cache.
    pub cached: usize,
    /// Tasks stolen across worker deques (cumulative).
    pub steals: u64,
    /// Worker idle transitions (cumulative).
    pub parks: u64,
    /// Workers parked right now.
    pub parked_workers: usize,
}

/// The mesh's shape and liveness view.
#[derive(Debug, Clone)]
pub struct MeshGauges {
    /// Nodes on the ring (peers + this node).
    pub peers: usize,
    /// The configured replication factor.
    pub replicas: usize,
    /// This node's ring name.
    pub self_name: String,
    /// Every known peer and its failure-detector state, sorted.
    pub members: Vec<(String, PeerState)>,
    /// Hints parked for unreachable peers.
    pub hints_queued: u64,
}

/// How a family moves, which fixes its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only grows.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// Power-of-two µs latency buckets.
    Histogram,
}

impl Kind {
    /// The Prometheus `# TYPE` name.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One family's live value, as both renderers read it.
enum Sample {
    Num(u64),
    /// `true`/`false` in STATS, `1`/`0` in METRICS.
    Flag(bool),
    Text(String),
    Keyed(Vec<(String, u64)>),
    Histograms(Vec<(String, Histogram)>),
    /// One value per cache shard, in shard order.
    PerShard(Vec<u64>),
    Members(Vec<(String, PeerState)>),
}

/// One family of [`FAMILIES`]: where it appears on each surface and how
/// to read it.
pub struct Family {
    /// The STATS key. A dotted path nests it in an object
    /// (`solver_pool.steals`); a per-shard family's path ends in
    /// `<array>.<field>`, its field in every element of the shard array.
    /// Empty: the family is not in STATS.
    pub stats: &'static str,
    /// The Prometheus family name. Empty: the family is not in METRICS.
    pub prom: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
    /// The Prometheus label names. A two-label keyed family splits each
    /// STATS key at its last `:` (`alive:suspect`).
    pub labels: &'static [&'static str],
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// The family's block in the METRICS exposition (see [`FAMILIES`]).
    block: u8,
    /// The live value; `None` leaves the family off both surfaces.
    read: fn(&Metrics, &Gauges) -> Option<Sample>,
}

/// One [`FAMILIES`] row: `block Kind "stats.key" => "prom_name" [labels]
/// "help", read`. The short form `Counter field "help"` (or `Gauge`) reads
/// a scalar [`Metrics`] field, under the field's name in STATS and
/// `se_<field>_total` (counter, block 0) or `se_<field>` (gauge, block 2)
/// in METRICS.
macro_rules! family {
    (Counter $field:ident $help:literal) => {
        family!(@ 0 Counter $field concat!("se_", stringify!($field), "_total"), $help)
    };
    (Gauge $field:ident $help:literal) => {
        family!(@ 2 Gauge $field concat!("se_", stringify!($field)), $help)
    };
    (@ $block:literal $kind:ident $field:ident $prom:expr, $help:literal) => {
        family!($block $kind (stringify!($field)) => ($prom) [] $help,
            |m, _| Some(Sample::Num(m.$field.load(Ordering::Relaxed))))
    };
    ($block:literal $kind:ident $stats:tt => $prom:tt $labels:tt $help:literal, $read:expr) => {
        Family {
            stats: $stats,
            prom: $prom,
            kind: Kind::$kind,
            labels: &$labels,
            help: $help,
            block: $block,
            read: $read,
        }
    };
}

/// A per-shard family's values, in shard order.
fn per_shard(g: &Gauges, field: fn(&ShardStats) -> u64) -> Option<Sample> {
    Some(Sample::PerShard(g.shards.iter().map(field).collect()))
}

/// Every family STATS or METRICS exposes, declared once, in STATS order.
/// A family reads `None` — and is left off both surfaces — when the engine
/// part it reports is absent (no solver pools, no mesh). METRICS renders
/// the families with a Prometheus name by ascending block, in table order
/// within a block: 0 the counters, 1 the worker-pool load, 2 the other
/// gauges and the histograms, 3 the solver-pool cache size and the mesh
/// gauges, 4 the per-peer state. The blocks only reproduce the exposition
/// order the service has always had, which `tests/golden.rs` pins byte
/// for byte.
pub const FAMILIES: &[Family] = &[
    family!(Counter requests "Request lines received (any command)."),
    family!(Counter orders "Individual ORDER executions (batch members count individually)."),
    family!(Counter batches "BATCH commands received."),
    family!(Counter cache_hits "Orderings served from the cache."),
    family!(Counter cache_misses "Orderings computed because the cache missed."),
    family!(Counter queue_rejections "Submissions rejected with queue-full backpressure."),
    family!(Counter timeouts "Requests that exceeded their wall-clock timeout."),
    family!(Counter errors "Requests that failed (parse errors, bad input, I/O)."),
    family!(Counter connections "Connections accepted."),
    family!(Counter busy_rejections "Connections turned away at the connection limit."),
    family!(Counter cancelled "ORDER requests whose response was suppressed by a CANCEL."),
    family!(Counter rate_limited "Requests rejected by per-client rate limiting."),
    family!(Counter progress_frames "PROGRESS frames put on the wire."),
    family!(Counter reactor_wakeups "Reactor event-loop wakeups (poll returns)."),
    family!(Gauge open_connections "Currently open client connections."),
    family!(Gauge inflight_requests "Requests submitted to the engine but not yet answered."),
    family!(Counter peer_forwards "ORDER requests forwarded to the owning mesh peer."),
    family!(Counter peer_forward_failures "Forwards that exhausted every candidate peer and fell back to local compute."),
    family!(Counter peer_replications "Cache entries pushed to successor peers."),
    family!(Counter peer_replication_failures "Best-effort replication pushes that failed."),
    family!(Counter peer_entries_received "Cache entries received from peers via REPLICATE."),
    family!(Counter hints_replayed "Queued handoff hints delivered to their returned target peer."),
    family!(Counter hints_dropped "Hints dropped by queue overflow or replay-time corruption."),
    family!(Counter antientropy_repairs "Entries re-pushed to a diverged replica by anti-entropy."),
    family!(0 Counter "peer_transitions" => "se_peer_transitions_total" ["from", "to"]
        "Peer suspicion-state transitions observed by the failure detector.",
        |m, _| Some(Sample::Keyed(m.peer_transitions.rows()))),
    family!(0 Counter "degraded_orders" => "se_degraded_orders_total" ["reason"]
        "Degraded ORDER responses by machine-readable reason.",
        |m, _| Some(Sample::Keyed(m.degraded_orders.rows()))),
    family!(0 Counter "budget_aborts" => "se_budget_aborts_total" ["stage"]
        "Solver budget aborts by the stage that observed exhaustion.",
        |m, _| Some(Sample::Keyed(m.budget_aborts.rows()))),
    family!(1 Gauge "queue_depth" => "se_queue_depth" [] "Jobs waiting in the worker pool queue.",
        |_, g| Some(Sample::Num(g.queue_depth as u64))),
    family!(1 Gauge "active_jobs" => "se_active_jobs" [] "Jobs currently executing on pool workers.",
        |_, g| Some(Sample::Num(g.active_jobs as u64))),
    // STATS only: METRICS reports the total per shard (`se_cache_shard_entries`).
    family!(2 Gauge "cached_orderings" => "" [] "",
        |_, g| Some(Sample::Num(g.shards.iter().map(|s| s.entries as u64).sum()))),
    family!(2 Gauge "cache.shard_count" => "" [] "",
        |_, g| Some(Sample::Num(g.shards.len() as u64))),
    family!(2 Gauge "cache.bytes" => "" [] "",
        |_, g| Some(Sample::Num(g.shards.iter().map(|s| s.bytes as u64).sum()))),
    family!(2 Gauge "cache.persistent" => "se_cache_persistent" []
        "Whether the ordering cache spills to disk (1) or not (0).",
        |_, g| Some(Sample::Flag(g.persistent))),
    family!(2 Gauge "cache.shards.entries" => "se_cache_shard_entries" ["shard"]
        "Cached orderings per cache shard.",
        |_, g| per_shard(g, |s| s.entries as u64)),
    family!(2 Gauge "cache.shards.bytes" => "se_cache_shard_bytes" ["shard"]
        "Bytes charged against each shard's budget.",
        |_, g| per_shard(g, |s| s.bytes as u64)),
    family!(2 Gauge "cache.shards.hits" => "se_cache_shard_hits" ["shard"]
        "Lookups answered per cache shard.",
        |_, g| per_shard(g, |s| s.hits)),
    family!(2 Gauge "cache.shards.misses" => "se_cache_shard_misses" ["shard"]
        "Lookups each cache shard could not answer.",
        |_, g| per_shard(g, |s| s.misses)),
    family!(2 Histogram "latency_us_by_algorithm" => "se_order_latency_microseconds" ["alg"]
        "End-to-end ORDER latency by algorithm.",
        |m, _| Some(Sample::Histograms(m.latency.rows()))),
    // METRICS only.
    family!(2 Histogram "" => "se_stage_latency_microseconds" ["stage"]
        "Per-request solver time by pipeline stage (span subtree sums).",
        |m, _| Some(Sample::Histograms(m.stage_latency.rows()))),
    family!(3 Gauge "solver_pool.cached" => "se_pool_cached" []
        "Solver pools alive in the per-thread-count cache.",
        |_, g| g.solver_pool.map(|p| Sample::Num(p.cached as u64))),
    family!(2 Counter "solver_pool.steals" => "se_pool_steals_total" []
        "Tasks stolen across solver-pool worker deques.",
        |_, g| g.solver_pool.map(|p| Sample::Num(p.steals))),
    family!(2 Counter "solver_pool.parks" => "se_pool_parks_total" []
        "Solver-pool worker idle transitions (condvar parks).",
        |_, g| g.solver_pool.map(|p| Sample::Num(p.parks))),
    family!(2 Gauge "solver_pool.parked_workers" => "se_pool_parked_workers" []
        "Solver-pool workers currently parked.",
        |_, g| g.solver_pool.map(|p| Sample::Num(p.parked_workers as u64))),
    family!(3 Gauge "mesh.peers" => "se_peer_mesh_size" []
        "Nodes on the consistent-hash ring (peers + this node).",
        |_, g| g.mesh.as_ref().map(|m| Sample::Num(m.peers as u64))),
    family!(3 Gauge "mesh.replicas" => "se_peer_replication_factor" []
        "Configured mesh replication factor.",
        |_, g| g.mesh.as_ref().map(|m| Sample::Num(m.replicas as u64))),
    // STATS only.
    family!(3 Gauge "mesh.self" => "" [] "",
        |_, g| g.mesh.as_ref().map(|m| Sample::Text(m.self_name.clone()))),
    family!(4 Gauge "mesh.members" => "se_peer_state" ["peer", "state"]
        "Failure-detector verdict per peer (0=alive, 1=suspect, 2=dead, 3=rejoining).",
        |_, g| g.mesh.as_ref().map(|m| Sample::Members(m.members.clone()))),
    family!(3 Gauge "mesh.hints_queued" => "se_hints_queued" []
        "Handoff hints currently parked for unreachable peers.",
        |_, g| g.mesh.as_ref().map(|m| Sample::Num(m.hints_queued))),
];

/// `pairs[key]`, inserted as `init()` when missing.
fn entry<'j>(
    pairs: &'j mut Vec<(String, Json)>,
    key: &str,
    init: impl FnOnce() -> Json,
) -> &'j mut Json {
    let at = match pairs.iter().position(|(k, _)| k == key) {
        Some(at) => at,
        None => {
            pairs.push((key.to_string(), init()));
            pairs.len() - 1
        }
    };
    &mut pairs[at].1
}

/// The object at dotted `path` under `pairs`, created on first use.
fn object_at<'j>(
    mut pairs: &'j mut Vec<(String, Json)>,
    path: &str,
) -> &'j mut Vec<(String, Json)> {
    for key in path.split('.').filter(|k| !k.is_empty()) {
        pairs = match entry(pairs, key, || Json::Obj(Vec::new())) {
            Json::Obj(inner) => inner,
            other => unreachable!("STATS path {path} crosses a non-object: {other:?}"),
        };
    }
    pairs
}

/// `a="x",b="y"` for label names `[a, b]` and key `x:y`. The key splits at
/// its last `:`, since a peer name (`host:port`) has one of its own.
fn label_list(names: &[&str], key: &str) -> String {
    let values = match names {
        [_, _] => {
            let (a, b) = key.rsplit_once(':').unwrap_or((key, ""));
            vec![a, b]
        }
        _ => vec![key],
    };
    let pairs: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(n, v)| format!("{n}=\"{v}\""))
        .collect();
    pairs.join(",")
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Bumps a counter by one.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating at zero).
    pub fn dec(&self, gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Snapshot as the STATS JSON object: every [`FAMILIES`] entry with a
    /// STATS key, in table order, nested along its dotted path.
    pub fn snapshot(&self, gauges: &Gauges) -> Json {
        let mut root = Vec::new();
        for f in FAMILIES.iter().filter(|f| !f.stats.is_empty()) {
            let Some(sample) = (f.read)(self, gauges) else {
                continue;
            };
            let (parent, key) = f.stats.rsplit_once('.').unwrap_or(("", f.stats));
            let value = match sample {
                Sample::PerShard(values) => {
                    let (group, array) = parent.rsplit_once('.').unwrap_or(("", parent));
                    let init = || Json::Arr(vec![Json::Obj(Vec::new()); values.len()]);
                    if let Json::Arr(items) = entry(object_at(&mut root, group), array, init) {
                        for (item, v) in items.iter_mut().zip(values) {
                            if let Json::Obj(fields) = item {
                                fields.push((key.to_string(), Json::Num(v as f64)));
                            }
                        }
                    }
                    continue;
                }
                Sample::Num(v) => Json::Num(v as f64),
                Sample::Flag(b) => Json::Bool(b),
                Sample::Text(s) => Json::Str(s),
                Sample::Keyed(rows) => Json::Obj(
                    rows.into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64)))
                        .collect(),
                ),
                Sample::Histograms(rows) => {
                    Json::Obj(rows.into_iter().map(|(k, h)| (k, h.to_json())).collect())
                }
                Sample::Members(members) => Json::Arr(
                    members
                        .into_iter()
                        .map(|(name, state)| {
                            Json::obj(vec![
                                ("name", Json::Str(name)),
                                ("state", Json::Str(state.as_str().to_string())),
                            ])
                        })
                        .collect(),
                ),
            };
            object_at(&mut root, parent).push((key.to_string(), value));
        }
        Json::Obj(root)
    }

    /// Renders the metrics in the Prometheus text exposition format
    /// (version 0.0.4): every [`FAMILIES`] entry with a Prometheus name,
    /// in exposition-block order, each under `# HELP`/`# TYPE` headers.
    /// Counters and gauges are single or labelled samples, histograms
    /// cumulative `_bucket{le="…"}` series with `_sum` and `_count`.
    pub fn render_prometheus(&self, gauges: &Gauges) -> String {
        let mut families: Vec<&Family> = FAMILIES.iter().filter(|f| !f.prom.is_empty()).collect();
        families.sort_by_key(|f| f.block);
        let mut out = String::new();
        for f in families {
            let Some(sample) = (f.read)(self, gauges) else {
                continue;
            };
            let name = f.prom;
            let _ = writeln!(out, "# HELP {name} {}", f.help);
            let _ = writeln!(out, "# TYPE {name} {}", f.kind.prometheus_type());
            // (label key, value) rows; the key is empty for an unlabelled family.
            let rows: Vec<(String, u64)> = match sample {
                Sample::Num(v) => vec![(String::new(), v)],
                Sample::Flag(b) => vec![(String::new(), u64::from(b))],
                Sample::Text(_) => Vec::new(),
                Sample::Keyed(rows) => rows,
                Sample::PerShard(values) => values
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i.to_string(), v))
                    .collect(),
                Sample::Members(members) => members
                    .into_iter()
                    .map(|(peer, state)| (format!("{peer}:{}", state.as_str()), state.code()))
                    .collect(),
                Sample::Histograms(rows) => {
                    for (k, h) in rows {
                        let l = label_list(f.labels, &k);
                        let mut cumulative = 0u64;
                        for (i, &c) in h.buckets().iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                            cumulative += c;
                            let le = 1u64 << (i + 1);
                            let _ = writeln!(out, "{name}_bucket{{{l},le=\"{le}\"}} {cumulative}");
                        }
                        let _ = writeln!(out, "{name}_bucket{{{l},le=\"+Inf\"}} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{{{l}}} {}", h.sum_micros());
                        let _ = writeln!(out, "{name}_count{{{l}}} {}", h.count());
                    }
                    continue;
                }
            };
            for (k, v) in rows {
                if f.labels.is_empty() {
                    let _ = writeln!(out, "{name} {v}");
                } else {
                    let _ = writeln!(out, "{name}{{{}}} {v}", label_list(f.labels, &k));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        for micros in [0, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[9], 1); // 1000 in [512, 1024)
        assert_eq!(h.buckets[19], 1); // 1e6 in [2^19, 2^20)
    }

    #[test]
    fn quantile_is_monotone_upper_bound() {
        let mut h = Histogram::default();
        for i in 0..100 {
            h.record(i * 10);
        }
        let p50 = h.quantile_micros(0.5);
        let p99 = h.quantile_micros(0.99);
        assert!(p50 <= p99);
        assert!(
            p50 >= 495,
            "upper bound must not undershoot the median: {p50}"
        );
        assert_eq!(Histogram::default().quantile_micros(0.5), 0);
    }

    #[test]
    fn snapshot_contains_every_counter() {
        let m = Metrics::new();
        m.inc(&m.requests);
        m.inc(&m.cache_hits);
        m.latency.record("RCM", 100);
        m.latency.record("RCM", 200);
        m.latency.record("SPECTRAL", 5000);
        let shards = vec![
            crate::cache::ShardStats {
                entries: 1,
                bytes: 640,
                hits: 4,
                misses: 2,
            },
            crate::cache::ShardStats::default(),
        ];
        let snap = m.snapshot(&Gauges {
            queue_depth: 3,
            active_jobs: 2,
            shards,
            persistent: true,
            ..Gauges::default()
        });
        assert_eq!(snap.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(snap.get("active_jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(snap.get("cached_orderings").and_then(Json::as_u64), Some(1));
        let cache = snap.get("cache").expect("cache object");
        assert_eq!(cache.get("shard_count").and_then(Json::as_u64), Some(2));
        assert_eq!(cache.get("bytes").and_then(Json::as_u64), Some(640));
        assert_eq!(cache.get("persistent"), Some(&Json::Bool(true)));
        let Some(Json::Arr(shard_arr)) = cache.get("shards") else {
            panic!("shards array");
        };
        assert_eq!(shard_arr.len(), 2);
        assert_eq!(shard_arr[0].get("hits").and_then(Json::as_u64), Some(4));
        assert_eq!(shard_arr[1].get("misses").and_then(Json::as_u64), Some(0));
        let by_alg = snap.get("latency_us_by_algorithm").expect("latency table");
        let rcm = by_alg.get("RCM").expect("RCM histogram");
        assert_eq!(rcm.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            by_alg
                .get("SPECTRAL")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(m.latency.count("RCM"), 2);
    }

    #[test]
    fn degradation_and_rate_limit_counters_surface_everywhere() {
        let m = Metrics::new();
        m.inc(&m.rate_limited);
        m.degraded_orders.inc("not_converged");
        m.degraded_orders.inc("not_converged");
        m.degraded_orders.inc("deadline");
        m.budget_aborts.inc("lanczos");
        assert_eq!(m.degraded_orders.get("not_converged"), 2);
        assert_eq!(m.degraded_orders.get("unknown"), 0);
        assert_eq!(m.budget_aborts.get("lanczos"), 1);
        let snap = m.snapshot(&Gauges::default());
        assert_eq!(snap.get("rate_limited").and_then(Json::as_u64), Some(1));
        let degraded = snap.get("degraded_orders").expect("degraded table");
        assert_eq!(
            degraded.get("not_converged").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(degraded.get("deadline").and_then(Json::as_u64), Some(1));
        assert_eq!(
            snap.get("budget_aborts")
                .and_then(|t| t.get("lanczos"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let text = m.render_prometheus(&Gauges::default());
        assert!(text.contains("se_rate_limited_total 1"));
        assert!(text.contains("se_degraded_orders_total{reason=\"not_converged\"} 2"));
        assert!(text.contains("se_budget_aborts_total{stage=\"lanczos\"} 1"));
    }

    #[test]
    fn peer_counters_surface_in_snapshot_and_prometheus() {
        let m = Metrics::new();
        m.inc(&m.peer_forwards);
        m.inc(&m.peer_forward_failures);
        m.inc(&m.peer_replications);
        m.inc(&m.peer_replications);
        m.inc(&m.peer_replication_failures);
        m.inc(&m.peer_entries_received);
        let snap = m.snapshot(&Gauges::default());
        assert_eq!(snap.get("peer_forwards").and_then(Json::as_u64), Some(1));
        assert_eq!(
            snap.get("peer_forward_failures").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("peer_replications").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            snap.get("peer_replication_failures").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("peer_entries_received").and_then(Json::as_u64),
            Some(1)
        );
        let text = m.render_prometheus(&Gauges::default());
        assert!(text.contains("se_peer_forwards_total 1"));
        assert!(text.contains("se_peer_forward_failures_total 1"));
        assert!(text.contains("se_peer_replications_total 2"));
        assert!(text.contains("se_peer_replication_failures_total 1"));
        assert!(text.contains("se_peer_entries_received_total 1"));
        // A non-mesh node reports zeros, not missing keys.
        let solo = Metrics::new().snapshot(&Gauges::default());
        assert_eq!(solo.get("peer_forwards").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn self_healing_counters_surface_in_snapshot_and_prometheus() {
        let m = Metrics::new();
        m.inc(&m.hints_replayed);
        m.inc(&m.hints_dropped);
        m.inc(&m.antientropy_repairs);
        m.peer_transitions.inc("alive:suspect");
        m.peer_transitions.inc("alive:suspect");
        m.peer_transitions.inc("suspect:dead");
        assert_eq!(m.peer_transitions.get("alive:suspect"), 2);
        assert_eq!(m.peer_transitions.get("dead:rejoining"), 0);

        let snap = m.snapshot(&Gauges::default());
        assert_eq!(snap.get("hints_replayed").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("hints_dropped").and_then(Json::as_u64), Some(1));
        assert_eq!(
            snap.get("antientropy_repairs").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("peer_transitions")
                .and_then(|t| t.get("alive:suspect"))
                .and_then(Json::as_u64),
            Some(2)
        );

        let text = m.render_prometheus(&Gauges::default());
        assert!(text.contains("se_hints_replayed_total 1"));
        assert!(text.contains("se_hints_dropped_total 1"));
        assert!(text.contains("se_antientropy_repairs_total 1"));
        assert!(text.contains("se_peer_transitions_total{from=\"alive\",to=\"suspect\"} 2"));
        assert!(text.contains("se_peer_transitions_total{from=\"suspect\",to=\"dead\"} 1"));
    }
}
