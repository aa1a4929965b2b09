//! The traced run: per-layer timings taken from the benchmark's own code
//! by calling each layer's public functions on the exact request bytes of
//! every distinct input, next to wire requests for the same inputs whose
//! responses report the engine's own server-side time. Nothing inside the
//! program is instrumented; the program's existing span tree is read from
//! the tracer the benchmark passes in.

use crate::cluster::counter;
use crate::inputs::Plan;
use crate::run::{solver_threads, Kind, Session, Window};
use crate::stats;
use crate::wire::{permutation, Answer};
use se_order::{Algorithm, SolverOpts};
use se_service::cache::{pattern_key, OrderingMeta, ShardedOrderingCache};
use se_service::json::Json;
use se_service::proto::{
    decode_request, decode_response, encode_response_tagged, MatrixFormat, MatrixSource,
    OrderResponse, PermPayload, Request, Response,
};
use se_service::{Config, FrameMode};
use se_trace::Tracer;
use sparsemat::envelope::envelope_stats;
use sparsemat::par::TaskPool;
use sparsemat::SymmetricPattern;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Span-tree stages reported as per-layer metrics: `(span name, metric)`.
const STAGES: [(&str, &str); 7] = [
    ("fiedler", "eigen.fiedler_us"),
    ("coarsen", "graph.coarsen_us"),
    ("coarsest_solve", "eigen.coarsest_solve_us"),
    ("interpolate", "eigen.interpolate_us"),
    ("smooth", "eigen.smooth_us"),
    ("rqi", "eigen.rqi_us"),
    ("sort", "order.sort_us"),
];

/// Timed repetitions per distinct input.
fn reps(kind: Kind) -> usize {
    match kind {
        Kind::ColdSpectral => 3,
        Kind::HitReplay => 15,
        Kind::MeshChurn => 10,
    }
}

/// Per-input samples of every layer metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    fn median(&self, metric: &str) -> Option<f64> {
        self.0.get(metric).and_then(|v| stats::median(v))
    }
}

/// Runs `f`, returning its result and its wall time in µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The traced run's results: the per-layer metrics, any answer that
/// disagreed with its warm-up answer while they were taken, and notes on
/// how the server's time was attributed.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// Times every layer on every distinct input of `plan`, `reps` times, and
/// folds in the STATS counters of the untraced window that preceded it
/// (`before`/`after` are per-node snapshots around that window).
pub fn traced(
    kind: Kind,
    cfg: &Config,
    plan: &Plan,
    s: &mut Session,
    w: &Window,
    before: &[Json],
    after: &[Json],
) -> std::io::Result<Traced> {
    let pool = TaskPool::new(solver_threads());
    let cache = ShardedOrderingCache::new(cfg.cache_budget_bytes, cfg.cache_shards);
    let mode = if kind.binary() {
        FrameMode::Binary
    } else {
        FrameMode::Ndjson
    };
    let mut failures = Vec::new();
    let mut per_input: Vec<Samples> = Vec::with_capacity(plan.inputs.len());
    for (i, input) in plan.inputs.iter().enumerate() {
        let warm_perm = permutation(&s.warm[i]).map_err(std::io::Error::other)?;
        let mut m = Samples::default();
        for rep in 0..reps(kind) {
            let id = (kind.window() > 1).then_some(rep as u64);
            let line = input.line(id);
            // The server's view: roundtrip and the engine's own `micros`.
            let (a, rtt) = match kind {
                Kind::MeshChurn => {
                    let (owner, other) = (s.owner[i], 1 - s.owner[i]);
                    // Make the key resident (and most recent) at its owner.
                    s.conns[owner].roundtrip(&line)?;
                    let (local, local_rtt) = timed(|| s.conns[owner].roundtrip(&line));
                    let (fwd, fwd_rtt) = timed(|| s.conns[other].roundtrip(&line));
                    let fwd = fwd?;
                    if !fwd.same_answer(&s.canon[i]) {
                        failures.push(format!(
                            "{}: forwarded answer differs from the owner's",
                            input.base
                        ));
                    }
                    m.push("mesh.forward_hop_us", fwd_rtt - local_rtt);
                    (local?, local_rtt)
                }
                _ => {
                    let (a, rtt) = timed(|| s.conns[0].roundtrip(&line));
                    (a?, rtt)
                }
            };
            if !a.same_answer(&s.canon[i]) {
                failures.push(format!(
                    "{}: traced-phase answer differs from the warm-up",
                    input.base
                ));
            }
            let micros = a.micros().unwrap_or(0) as f64;
            m.push("engine.server_us", micros);
            m.push("wire.rtt_minus_server_us", rtt - micros);
            layer_times(
                kind, plan.alg, &line, &warm_perm, &s.warm[i], &cache, &pool, mode, id, &mut m,
            );
        }
        per_input.push(m);
    }
    let mean_of = |metric: &str| {
        let medians: Vec<f64> = per_input.iter().filter_map(|m| m.median(metric)).collect();
        stats::mean(&medians).unwrap_or(0.0)
    };
    let per_layer = &crate::spec::spec().per_layer;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for metric in per_layer.iter().map(|m| m.name.as_str()) {
        out.insert(metric, mean_of(metric));
    }
    out.insert(
        "transport.overhead_us",
        mean_of("wire.rtt_minus_server_us")
            - mean_of("proto.decode_request_us")
            - mean_of("proto.encode_response_us"),
    );
    out.insert(
        "engine.server_untraced_us",
        untraced_server_us(kind, plan, w),
    );
    let engine_side = mean_of("sparsemat.io.parse_us")
        + mean_of("sparsemat.pattern.build_us")
        + mean_of("cache.get_us")
        + match kind {
            Kind::ColdSpectral => mean_of("order.total_us") + mean_of("cache.insert_us"),
            _ => 0.0,
        };
    let server = mean_of("engine.server_us");
    // Layer timings that add up to more than the server's own time
    // (a negative share) are as wrong as ones that leave time out.
    let unattributed = (server - engine_side) / server;
    out.insert("unattributed_share", unattributed.abs());
    // The 0.10 target is set for the single-node workloads only.
    let target = match (kind, unattributed.abs() < 0.10) {
        (Kind::MeshChurn, _) => "",
        (_, true) => " (target |share| < 0.10: met)",
        (_, false) => " (target |share| < 0.10: NOT met)",
    };
    let mut notes = vec![format!(
        "unattributed_share {unattributed:+.4} of engine.server_us {server:.1} us{target}"
    )];
    if kind == Kind::ColdSpectral {
        notes.push(format!(
            "order.total_us {:.1} untraced (attributed), {:.1} traced; server-side solve \
             within engine.server_us {server:.1}",
            mean_of("order.total_us"),
            mean_of("order.traced_total_us")
        ));
    }
    let delta = |name: &str| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| counter(a, name) - counter(b, name))
            .sum()
    };
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    out.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
    // Every counted miss computes and inserts; the entries that did not
    // stay were evicted. A zero budget stores nothing, so evicts nothing.
    let evictions = match cfg.cache_budget_bytes {
        0 => 0.0,
        _ => misses - delta("cached_orderings"),
    };
    out.insert("cache.evictions", evictions);
    out.insert("pool.queue_rejections", delta("queue_rejections"));
    out.insert("mesh.forwards", delta("peer_forwards"));
    out.insert("mesh.forward_failures", delta("peer_forward_failures"));
    let mut metrics = Vec::with_capacity(per_layer.len());
    for m in per_layer {
        match out.get(m.name.as_str()) {
            Some(&v) => metrics.push((m.name.as_str(), v)),
            None => failures.push(format!("per-layer metric {} is not measured", m.name)),
        }
    }
    Ok(Traced {
        metrics,
        failures,
        notes,
    })
}

/// The engine's `micros` during the untraced window, on the same kind of
/// request the traced phase sends (on the mesh: owner-local cache hits).
fn untraced_server_us(kind: Kind, plan: &Plan, w: &Window) -> f64 {
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); plan.inputs.len()];
    for s in w.samples.iter().filter(|s| s.ok) {
        if kind != Kind::MeshChurn || (s.to_owner && s.cache_hit) {
            per_input[s.input].push(s.micros as f64);
        }
    }
    let medians: Vec<f64> = per_input.iter().filter_map(|v| stats::median(v)).collect();
    stats::mean(&medians).unwrap_or(0.0)
}

/// One repetition of the in-process layer timings for one input.
#[allow(clippy::too_many_arguments)]
fn layer_times(
    kind: Kind,
    alg: Algorithm,
    line: &[u8],
    warm_perm: &[usize],
    warm: &Answer,
    cache: &ShardedOrderingCache,
    pool: &TaskPool,
    mode: FrameMode,
    id: Option<u64>,
    m: &mut Samples,
) {
    let text = std::str::from_utf8(line).expect("request lines are UTF-8");
    let (req, us) = timed(|| decode_request(text.trim_end()).expect("request decodes"));
    m.push("proto.decode_request_us", us);
    let Request::Order(req) = req else {
        unreachable!("workloads send ORDER lines")
    };
    let MatrixSource::Inline { format, payload } = &req.source else {
        unreachable!("workloads send inline payloads")
    };
    let g: SymmetricPattern = match format {
        // Chaco parses straight to the pattern: building it is part of parse.
        MatrixFormat::Chaco => {
            let (g, us) = timed(|| sparsemat::io::read_chaco_str(payload).expect("chaco parses"));
            m.push("sparsemat.io.parse_us", us);
            g
        }
        _ => {
            let (csr, us) = timed(|| {
                sparsemat::io::read_matrix_market_str(payload).expect("MatrixMarket parses")
            });
            m.push("sparsemat.io.parse_us", us);
            let (g, us) = timed(|| {
                csr.symmetrize()
                    .and_then(|s| s.pattern())
                    .expect("symmetric pattern")
            });
            m.push("sparsemat.pattern.build_us", us);
            g
        }
    };
    let (_, us) = timed(|| pattern_key(&g, alg, false));
    m.push("cache.key_us", us);
    let resp = match decode_response(std::str::from_utf8(&warm.line).expect("UTF-8 answer")) {
        Ok(Response::Order(r)) => r,
        _ => unreachable!("warm-up answers were checked"),
    };
    let meta = OrderingMeta {
        stats: resp.stats,
        compression_ratio: None,
        degraded: None,
    };
    // The insert the engine makes after computing (on a zero budget it
    // still encodes the permutation, then declines to store it), then the
    // lookup a request makes first — a hit wherever the workload's cache
    // holds the key.
    let (payload, us) = timed(|| cache.insert(&g, alg, false, warm_perm, meta));
    m.push("cache.insert_us", us);
    let (_, us) = timed(|| cache.get(&g, alg, false));
    m.push("cache.get_us", us);
    let response = Response::Order(OrderResponse {
        perm: Some(PermPayload::Cached(Arc::clone(&payload))),
        cache_hit: kind != Kind::ColdSpectral,
        ..resp
    });
    let (_, us) = timed(|| encode_response_tagged(&response, mode, id));
    m.push("proto.encode_response_us", us);
    if kind == Kind::HitReplay {
        return;
    }
    // The compute path of a miss, on a benchmark-owned pool, untraced as
    // the server runs it.
    let mut solver = SolverOpts::with_threads(solver_threads());
    solver.pool = Some(pool.clone());
    let p0 = pool.stats();
    let (outcome, us) = timed(|| se_order::order_degraded_with(&g, alg, &solver).expect("orders"));
    m.push("order.total_us", us);
    let p1 = pool.stats();
    let perm = outcome.ordering.perm;
    let (_, us) = timed(|| envelope_stats(&g, &perm));
    m.push("sparsemat.envelope.stats_us", us);
    if kind != Kind::ColdSpectral {
        return;
    }
    m.push("sparsemat.par.regions", (p1.regions - p0.regions) as f64);
    m.push("sparsemat.par.chunks", (p1.chunks - p0.chunks) as f64);
    m.push("sparsemat.par.steals", (p1.steals - p0.steals) as f64);
    m.push("sparsemat.par.parks", (p1.parks - p0.parks) as f64);
    // The stage split comes from a second, traced solve.
    solver.trace = Tracer::enabled();
    let (_, us) = timed(|| se_order::order_degraded_with(&g, alg, &solver).expect("orders"));
    m.push("order.traced_total_us", us);
    if let Some(root) = solver.trace.finish() {
        for (span, metric) in STAGES {
            m.push(metric, root.stage_micros(span) as f64);
        }
    }
    let (_, us) = timed(|| se_graph::bfs::connected_components(&g));
    m.push("graph.components_us", us);
}
