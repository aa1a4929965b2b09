//! Live service metrics: atomic counters plus per-algorithm latency
//! histograms, snapshotted as JSON by the STATS command and rendered as
//! Prometheus text by METRICS. Every scalar series is declared once in
//! [`SERIES`], which both surfaces read.

use crate::json::Json;
use se_faults::lock_unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two microsecond buckets: bucket `i` counts latencies
/// in `[2^i, 2^(i+1))` µs, with bucket 0 covering `[0, 2)` and the last
/// bucket open-ended. 30 buckets reach ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 30;

/// A latency histogram with power-of-two µs buckets.
#[derive(Debug, Default)]
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

/// All counters the service exposes through STATS and METRICS. The scalar
/// fields are declared as series in [`SERIES`]; the keyed tables and
/// histograms are rendered by hand.
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
    /// state names) — rendered as the two-label
    /// `se_peer_transitions_total{from=,to=}` family.
    peer_transitions: Mutex<Vec<(String, u64)>>,
    /// Degraded ORDER responses by machine-readable reason
    /// (`not_converged`, `deadline`, `cancelled`, `matvec_cap`,
    /// `numerical`, `fault:<site>`).
    degraded_orders: Mutex<Vec<(String, u64)>>,
    /// Solver budget aborts by the stage that observed exhaustion.
    budget_aborts: Mutex<Vec<(String, u64)>>,
    /// name() → latency histogram, one per algorithm seen.
    latency: Mutex<Vec<(String, Histogram)>>,
    /// Pipeline stage name → histogram of per-request time spent in that
    /// stage (summed over the span subtree), harvested from the tracer on
    /// every computed (cache-miss) ordering.
    stage_latency: Mutex<Vec<(String, Histogram)>>,
}

/// How a scalar series moves, which fixes its Prometheus name and type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Only grows; exposed as `se_<key>_total`.
    Counter,
    /// A point-in-time value; exposed as `se_<key>`.
    Gauge,
}

impl SeriesKind {
    /// The Prometheus `# TYPE` name.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One scalar series of [`Metrics`]: its STATS key (the field's name),
/// kind, Prometheus help text, and the field holding its value.
pub struct Series {
    /// The STATS key, identical to the [`Metrics`] field name.
    pub key: &'static str,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    field: fn(&Metrics) -> &AtomicU64,
}

impl Series {
    /// The Prometheus series name: `se_<key>_total` for a counter,
    /// `se_<key>` for a gauge.
    pub fn prometheus_name(&self) -> String {
        match self.kind {
            SeriesKind::Counter => format!("se_{}_total", self.key),
            SeriesKind::Gauge => format!("se_{}", self.key),
        }
    }

    /// The series' current value in `m`.
    pub(crate) fn value(&self, m: &Metrics) -> u64 {
        (self.field)(m).load(Ordering::Relaxed)
    }
}

macro_rules! scalar_series {
    ($($kind:ident $field:ident $help:literal,)*) => {
        /// Every scalar series, declared once, in STATS key order: both
        /// [`Metrics::snapshot`] and [`Metrics::render_prometheus`] read
        /// this list, so the two surfaces cannot drift apart.
        pub const SERIES: &[Series] = &[$(Series {
            key: stringify!($field),
            kind: SeriesKind::$kind,
            help: $help,
            field: |m| &m.$field,
        },)*];
    };
}

scalar_series! {
    Counter requests "Request lines received (any command).",
    Counter orders "Individual ORDER executions (batch members count individually).",
    Counter batches "BATCH commands received.",
    Counter cache_hits "Orderings served from the cache.",
    Counter cache_misses "Orderings computed because the cache missed.",
    Counter queue_rejections "Submissions rejected with queue-full backpressure.",
    Counter timeouts "Requests that exceeded their wall-clock timeout.",
    Counter errors "Requests that failed (parse errors, bad input, I/O).",
    Counter connections "Connections accepted.",
    Counter busy_rejections "Connections turned away at the connection limit.",
    Counter cancelled "ORDER requests whose response was suppressed by a CANCEL.",
    Counter rate_limited "Requests rejected by per-client rate limiting.",
    Counter progress_frames "PROGRESS frames put on the wire.",
    Counter reactor_wakeups "Reactor event-loop wakeups (poll returns).",
    Gauge open_connections "Currently open client connections.",
    Gauge inflight_requests "Requests submitted to the engine but not yet answered.",
    Counter peer_forwards "ORDER requests forwarded to the owning mesh peer.",
    Counter peer_forward_failures "Forwards that exhausted every candidate peer and fell back to local compute.",
    Counter peer_replications "Cache entries pushed to successor peers.",
    Counter peer_replication_failures "Best-effort replication pushes that failed.",
    Counter peer_entries_received "Cache entries received from peers via REPLICATE.",
    Counter hints_replayed "Queued handoff hints delivered to their returned target peer.",
    Counter hints_dropped "Hints dropped by queue overflow or replay-time corruption.",
    Counter antientropy_repairs "Entries re-pushed to a diverged replica by anti-entropy.",
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

    /// Records a completed ordering's latency under its algorithm name.
    pub fn record_latency(&self, alg_name: &str, micros: u64) {
        Self::record_keyed(&self.latency, alg_name, micros);
    }

    /// Records the per-request time one pipeline stage took (the subtree
    /// sum for that stage name from the request's span trace).
    pub fn record_stage_latency(&self, stage: &str, micros: u64) {
        Self::record_keyed(&self.stage_latency, stage, micros);
    }

    fn record_keyed(table: &Mutex<Vec<(String, Histogram)>>, key: &str, micros: u64) {
        let mut table = lock_unpoisoned(table);
        match table.iter_mut().find(|(name, _)| name == key) {
            Some((_, h)) => h.record(micros),
            None => {
                let mut h = Histogram::default();
                h.record(micros);
                table.push((key.to_string(), h));
            }
        }
    }

    /// Counts one degraded ORDER response under its machine-readable
    /// reason.
    pub fn inc_degraded(&self, reason: &str) {
        Self::bump_keyed(&self.degraded_orders, reason);
    }

    /// Counts one budget-driven solver abort under the stage that observed
    /// the exhausted budget.
    pub fn inc_budget_abort(&self, stage: &str) {
        Self::bump_keyed(&self.budget_aborts, stage);
    }

    /// Counts one peer suspicion-state transition
    /// ([`crate::membership::PeerState`] names, e.g. `alive` → `suspect`).
    pub fn inc_peer_transition(&self, from: &str, to: &str) {
        Self::bump_keyed(&self.peer_transitions, &format!("{from}:{to}"));
    }

    /// Transitions counted for the `from` → `to` edge.
    pub fn peer_transition_count(&self, from: &str, to: &str) -> u64 {
        Self::keyed_value(&self.peer_transitions, &format!("{from}:{to}"))
    }

    /// Degraded responses counted for `reason`.
    pub fn degraded_count(&self, reason: &str) -> u64 {
        Self::keyed_value(&self.degraded_orders, reason)
    }

    /// Budget aborts counted for `stage`.
    pub fn budget_abort_count(&self, stage: &str) -> u64 {
        Self::keyed_value(&self.budget_aborts, stage)
    }

    fn bump_keyed(table: &Mutex<Vec<(String, u64)>>, key: &str) {
        let mut table = lock_unpoisoned(table);
        match table.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v += 1,
            None => table.push((key.to_string(), 1)),
        }
    }

    fn keyed_value(table: &Mutex<Vec<(String, u64)>>, key: &str) -> u64 {
        lock_unpoisoned(table)
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Total recorded latency observations for `alg_name`.
    pub fn latency_count(&self, alg_name: &str) -> u64 {
        lock_unpoisoned(&self.latency)
            .iter()
            .find(|(name, _)| name == alg_name)
            .map_or(0, |(_, h)| h.count())
    }

    /// Total recorded per-stage observations for `stage`.
    pub fn stage_latency_count(&self, stage: &str) -> u64 {
        lock_unpoisoned(&self.stage_latency)
            .iter()
            .find(|(name, _)| name == stage)
            .map_or(0, |(_, h)| h.count())
    }

    /// Snapshot as the STATS JSON object. `queue_depth`/`active` come from
    /// the pool; `cache` holds the sharded cache's per-shard counters. The
    /// legacy `cached_orderings` total stays at the top level; the `cache`
    /// object adds `shards` (an array, one object per shard, in shard
    /// order), total bytes, and whether persistence is on.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        active: usize,
        cache: &[crate::cache::ShardStats],
        persistent: bool,
    ) -> Json {
        let keyed_json = |table: &Mutex<Vec<(String, u64)>>| {
            let mut rows: Vec<(String, Json)> = lock_unpoisoned(table)
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(rows)
        };
        let table = lock_unpoisoned(&self.latency);
        let mut latency: Vec<(String, Json)> = table
            .iter()
            .map(|(name, h)| (name.clone(), h.to_json()))
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        let shard_json = |s: &crate::cache::ShardStats| {
            Json::obj(vec![
                ("entries", Json::Num(s.entries as f64)),
                ("bytes", Json::Num(s.bytes as f64)),
                ("hits", Json::Num(s.hits as f64)),
                ("misses", Json::Num(s.misses as f64)),
            ])
        };
        let cached_entries: usize = cache.iter().map(|s| s.entries).sum();
        let cache_obj = Json::obj(vec![
            ("shard_count", Json::Num(cache.len() as f64)),
            (
                "bytes",
                Json::Num(cache.iter().map(|s| s.bytes).sum::<usize>() as f64),
            ),
            ("persistent", Json::Bool(persistent)),
            ("shards", Json::Arr(cache.iter().map(shard_json).collect())),
        ]);
        let mut pairs: Vec<(&str, Json)> = SERIES
            .iter()
            .map(|s| (s.key, Json::Num(s.value(self) as f64)))
            .collect();
        pairs.extend([
            ("peer_transitions", keyed_json(&self.peer_transitions)),
            ("degraded_orders", keyed_json(&self.degraded_orders)),
            ("budget_aborts", keyed_json(&self.budget_aborts)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("active_jobs", Json::Num(active as f64)),
            ("cached_orderings", Json::Num(cached_entries as f64)),
            ("cache", cache_obj),
            ("latency_us_by_algorithm", Json::Obj(latency)),
        ]);
        Json::obj(pairs)
    }

    /// Renders the metrics in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, counters and gauges as
    /// single samples, histograms as cumulative `_bucket{le="…"}` series
    /// with `_sum` and `_count`. Latency histograms are labelled by
    /// algorithm, per-stage solver-time histograms by pipeline stage, cache
    /// gauges by shard.
    pub fn render_prometheus(
        &self,
        queue_depth: usize,
        active: usize,
        cache: &[crate::cache::ShardStats],
        persistent: bool,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let scalar = |out: &mut String, name: &str, help: &str, kind: SeriesKind, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", kind.prometheus_type());
            let _ = writeln!(out, "{name} {v}");
        };
        let declared = |out: &mut String, kind: SeriesKind| {
            for s in SERIES.iter().filter(|s| s.kind == kind) {
                scalar(out, &s.prometheus_name(), s.help, kind, s.value(self));
            }
        };
        declared(&mut out, SeriesKind::Counter);

        // Transition rows are keyed "from:to"; split into the two labels.
        {
            let name = "se_peer_transitions_total";
            let _ = writeln!(
                out,
                "# HELP {name} Peer suspicion-state transitions observed by the failure detector."
            );
            let _ = writeln!(out, "# TYPE {name} counter");
            let mut rows = lock_unpoisoned(&self.peer_transitions).clone();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for (edge, v) in rows {
                let (from, to) = edge.split_once(':').unwrap_or((edge.as_str(), ""));
                let _ = writeln!(out, "{name}{{from=\"{from}\",to=\"{to}\"}} {v}");
            }
        }

        let mut labeled_counter =
            |name: &str, help: &str, label: &str, table: &Mutex<Vec<(String, u64)>>| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                let mut rows = lock_unpoisoned(table).clone();
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                for (k, v) in rows {
                    let _ = writeln!(out, "{name}{{{label}=\"{k}\"}} {v}");
                }
            };
        labeled_counter(
            "se_degraded_orders_total",
            "Degraded ORDER responses by machine-readable reason.",
            "reason",
            &self.degraded_orders,
        );
        labeled_counter(
            "se_budget_aborts_total",
            "Solver budget aborts by the stage that observed exhaustion.",
            "stage",
            &self.budget_aborts,
        );

        scalar(
            &mut out,
            "se_queue_depth",
            "Jobs waiting in the worker pool queue.",
            SeriesKind::Gauge,
            queue_depth as u64,
        );
        scalar(
            &mut out,
            "se_active_jobs",
            "Jobs currently executing on pool workers.",
            SeriesKind::Gauge,
            active as u64,
        );
        declared(&mut out, SeriesKind::Gauge);
        scalar(
            &mut out,
            "se_cache_persistent",
            "Whether the ordering cache spills to disk (1) or not (0).",
            SeriesKind::Gauge,
            u64::from(persistent),
        );

        type ShardField = fn(&crate::cache::ShardStats) -> f64;
        let shard_fields: [(&str, &str, ShardField); 4] = [
            (
                "se_cache_shard_entries",
                "Cached orderings per cache shard.",
                |s| s.entries as f64,
            ),
            (
                "se_cache_shard_bytes",
                "Bytes charged against each shard's budget.",
                |s| s.bytes as f64,
            ),
            (
                "se_cache_shard_hits",
                "Lookups answered per cache shard.",
                |s| s.hits as f64,
            ),
            (
                "se_cache_shard_misses",
                "Lookups each cache shard could not answer.",
                |s| s.misses as f64,
            ),
        ];
        for (metric, help, value) in shard_fields {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (i, s) in cache.iter().enumerate() {
                let _ = writeln!(out, "{metric}{{shard=\"{i}\"}} {}", value(s));
            }
        }

        let histogram_family = |out: &mut String,
                                metric: &str,
                                help: &str,
                                label: &str,
                                table: &[(String, Histogram)]| {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} histogram");
            for (key, h) in table {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets().iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                    cumulative += c;
                    let le = 1u64 << (i + 1);
                    let _ = writeln!(
                        out,
                        "{metric}_bucket{{{label}=\"{key}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "{metric}_bucket{{{label}=\"{key}\",le=\"+Inf\"}} {}",
                    h.count()
                );
                let _ = writeln!(out, "{metric}_sum{{{label}=\"{key}\"}} {}", h.sum_micros());
                let _ = writeln!(out, "{metric}_count{{{label}=\"{key}\"}} {}", h.count());
            }
        };
        let sorted = |table: &Mutex<Vec<(String, Histogram)>>| {
            let table = lock_unpoisoned(table);
            let mut rows: Vec<(String, Histogram)> = table
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        Histogram {
                            buckets: h.buckets,
                            count: h.count,
                            sum_micros: h.sum_micros,
                            max_micros: h.max_micros,
                        },
                    )
                })
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        histogram_family(
            &mut out,
            "se_order_latency_microseconds",
            "End-to-end ORDER latency by algorithm.",
            "alg",
            &sorted(&self.latency),
        );
        histogram_family(
            &mut out,
            "se_stage_latency_microseconds",
            "Per-request solver time by pipeline stage (span subtree sums).",
            "stage",
            &sorted(&self.stage_latency),
        );
        out
    }
}

/// The STATS fragment for the engine's solver pool cache — scheduler health
/// of the shared work-stealing pools (`steals`/`parks` cumulative, `parked`
/// a point-in-time gauge, `cached` the live pool count). The engine appends
/// this under the `"solver_pool"` key.
pub fn solver_pool_json(cached: usize, steals: u64, parks: u64, parked: usize) -> Json {
    Json::Obj(vec![
        ("cached".to_string(), Json::Num(cached as f64)),
        ("steals".to_string(), Json::Num(steals as f64)),
        ("parks".to_string(), Json::Num(parks as f64)),
        ("parked_workers".to_string(), Json::Num(parked as f64)),
    ])
}

/// The METRICS fragment for the engine's solver pool cache, in Prometheus
/// text exposition format. `se_pool_steals_total` rising with flat
/// `se_orders_total` means chunk costs are irregular (stealing is doing real
/// balancing); `se_pool_parked_workers` pinned at the pool size means the
/// pools are idle.
pub fn render_solver_pool_prometheus(
    cached: usize,
    steals: u64,
    parks: u64,
    parked: usize,
) -> String {
    format!(
        "# HELP se_pool_steals_total Tasks stolen across solver-pool worker deques.\n\
         # TYPE se_pool_steals_total counter\n\
         se_pool_steals_total {steals}\n\
         # HELP se_pool_parks_total Solver-pool worker idle transitions (condvar parks).\n\
         # TYPE se_pool_parks_total counter\n\
         se_pool_parks_total {parks}\n\
         # HELP se_pool_parked_workers Solver-pool workers currently parked.\n\
         # TYPE se_pool_parked_workers gauge\n\
         se_pool_parked_workers {parked}\n\
         # HELP se_pool_cached Solver pools alive in the per-thread-count cache.\n\
         # TYPE se_pool_cached gauge\n\
         se_pool_cached {cached}\n"
    )
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
        m.record_latency("RCM", 100);
        m.record_latency("RCM", 200);
        m.record_latency("SPECTRAL", 5000);
        let shards = vec![
            crate::cache::ShardStats {
                entries: 1,
                bytes: 640,
                hits: 4,
                misses: 2,
            },
            crate::cache::ShardStats::default(),
        ];
        let snap = m.snapshot(3, 2, &shards, true);
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
        assert_eq!(m.latency_count("RCM"), 2);
    }

    #[test]
    fn degradation_and_rate_limit_counters_surface_everywhere() {
        let m = Metrics::new();
        m.inc(&m.rate_limited);
        m.inc_degraded("not_converged");
        m.inc_degraded("not_converged");
        m.inc_degraded("deadline");
        m.inc_budget_abort("lanczos");
        assert_eq!(m.degraded_count("not_converged"), 2);
        assert_eq!(m.degraded_count("unknown"), 0);
        assert_eq!(m.budget_abort_count("lanczos"), 1);
        let snap = m.snapshot(0, 0, &[], false);
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
        let text = m.render_prometheus(0, 0, &[], false);
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
        let snap = m.snapshot(0, 0, &[], false);
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
        let text = m.render_prometheus(0, 0, &[], false);
        assert!(text.contains("se_peer_forwards_total 1"));
        assert!(text.contains("se_peer_forward_failures_total 1"));
        assert!(text.contains("se_peer_replications_total 2"));
        assert!(text.contains("se_peer_replication_failures_total 1"));
        assert!(text.contains("se_peer_entries_received_total 1"));
        // A non-mesh node reports zeros, not missing keys.
        let solo = Metrics::new().snapshot(0, 0, &[], false);
        assert_eq!(solo.get("peer_forwards").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn self_healing_counters_surface_in_snapshot_and_prometheus() {
        let m = Metrics::new();
        m.inc(&m.hints_replayed);
        m.inc(&m.hints_dropped);
        m.inc(&m.antientropy_repairs);
        m.inc_peer_transition("alive", "suspect");
        m.inc_peer_transition("alive", "suspect");
        m.inc_peer_transition("suspect", "dead");
        assert_eq!(m.peer_transition_count("alive", "suspect"), 2);
        assert_eq!(m.peer_transition_count("dead", "rejoining"), 0);

        let snap = m.snapshot(0, 0, &[], false);
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

        let text = m.render_prometheus(0, 0, &[], false);
        assert!(text.contains("se_hints_replayed_total 1"));
        assert!(text.contains("se_hints_dropped_total 1"));
        assert!(text.contains("se_antientropy_repairs_total 1"));
        assert!(text.contains("se_peer_transitions_total{from=\"alive\",to=\"suspect\"} 2"));
        assert!(text.contains("se_peer_transitions_total{from=\"suspect\",to=\"dead\"} 1"));
    }
}
