//! Golden wire bytes: the exact text the service puts on the wire, pinned
//! inline.
//!
//! Three layers are pinned: every [`Response`] variant through
//! [`encode_response_tagged`] (NDJSON and binary frame mode, untagged and
//! protocol-v2 tagged); the STATS object and the Prometheus exposition of
//! fresh [`Metrics`] and of an engine with a mesh and every family
//! populated; and a protocol-v1 conversation with a live server on a
//! fixed graph, with the timing field `micros` masked. Any change to
//! these bytes is a wire-protocol change and must show up here as a diff.
//! A parity check also walks [`FAMILIES`] to keep STATS and METRICS
//! listing the same series.

use se_order::Algorithm;
use se_service::cache::OrderingMeta;
use se_service::engine::Engine;
use se_service::json::Json;
use se_service::metrics::{Family, Gauges, Kind, Metrics, FAMILIES};
use se_service::proto::{
    encode_response_tagged, EncodedPerm, ErrorResponse, OrderRequest, OrderResponse, PermPayload,
    ProgressFrame, Response,
};
use se_service::{serve, Client, Config, FrameMode};
use sparsemat::envelope::EnvelopeStats;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One encoded response as text: the JSON line, then one `#frame <hex>`
/// line per binary frame that follows it on the wire.
fn wire(resp: &Response, mode: FrameMode, id: Option<u64>) -> String {
    let (line, frames) = encode_response_tagged(resp, mode, id);
    let mut out = line;
    for f in &frames {
        out.push_str("\n#frame ");
        out.push_str(&hex(f.bytes()));
    }
    out
}

fn stats() -> EnvelopeStats {
    EnvelopeStats {
        envelope_size: 3,
        envelope_work: 5,
        bandwidth: 2,
        one_sum: 4,
        two_sum_sq: 6,
    }
}

/// A plain ORDER body: every optional field absent.
fn plain_order() -> OrderResponse {
    OrderResponse {
        alg: "RCM".to_string(),
        n: 3,
        nnz: 5,
        stats: stats(),
        perm: Some(PermPayload::Plain(vec![2, 0, 1])),
        cache_hit: false,
        micros: 42,
        compression_ratio: None,
        degraded: None,
        trace: None,
    }
}

/// An ORDER body with every optional field present and the permutation
/// served from the cache's pre-encoded copy.
fn full_order() -> OrderResponse {
    OrderResponse {
        alg: "SPECTRAL".to_string(),
        perm: Some(PermPayload::Cached(Arc::new(EncodedPerm::new(vec![
            1, 2, 0,
        ])))),
        cache_hit: true,
        compression_ratio: Some(1.5),
        degraded: Some("deadline".to_string()),
        trace: Some(r#"{"name":"order","micros":7}"#.into()),
        ..plain_order()
    }
}

/// Variants without a permutation: identical bytes in both frame modes.
#[test]
fn frameless_responses_encode_to_pinned_bytes() {
    let cases: Vec<(Response, &str, &str)> = vec![
        (
            Response::Hello {
                frames: FrameMode::Binary,
                proto: 2,
            },
            r#"{"ok":true,"hello":true,"frames":"binary","proto":2}"#,
            r#"{"ok":true,"id":9,"hello":true,"frames":"binary","proto":2}"#,
        ),
        (
            Response::Stats(se_service::json::Json::obj(vec![(
                "requests",
                se_service::json::Json::Num(3.0),
            )])),
            r#"{"ok":true,"stats":{"requests":3}}"#,
            r#"{"ok":true,"id":9,"stats":{"requests":3}}"#,
        ),
        (
            Response::Metrics("# TYPE se_x counter\nse_x 1\n".to_string()),
            r##"{"ok":true,"metrics":"# TYPE se_x counter\nse_x 1\n"}"##,
            r##"{"ok":true,"id":9,"metrics":"# TYPE se_x counter\nse_x 1\n"}"##,
        ),
        (
            Response::CancelOk { pending: true },
            r#"{"ok":true,"cancelled":true,"pending":true}"#,
            r#"{"ok":true,"id":9,"cancelled":true,"pending":true}"#,
        ),
        (
            Response::ShutdownOk { drained: 12 },
            r#"{"ok":true,"shutdown":true,"drained":12}"#,
            r#"{"ok":true,"id":9,"shutdown":true,"drained":12}"#,
        ),
        (
            Response::Progress(ProgressFrame {
                id: 4,
                stage: "level[2]".to_string(),
                percent: 62.5,
                micros: 1500,
                matvecs: Some(88),
            }),
            r#"{"ok":true,"progress":true,"id":4,"stage":"level[2]","percent":62.5,"micros":1500,"matvecs":88}"#,
            r#"{"ok":true,"id":9,"progress":true,"id":4,"stage":"level[2]","percent":62.5,"micros":1500,"matvecs":88}"#,
        ),
        (
            Response::Progress(ProgressFrame {
                id: 4,
                stage: "lanczos".to_string(),
                percent: 20.0,
                micros: 10,
                matvecs: None,
            }),
            r#"{"ok":true,"progress":true,"id":4,"stage":"lanczos","percent":20,"micros":10}"#,
            r#"{"ok":true,"id":9,"progress":true,"id":4,"stage":"lanczos","percent":20,"micros":10}"#,
        ),
        (
            Response::ReplicateOk { stored: false },
            r#"{"ok":true,"replicated":true,"stored":false}"#,
            r#"{"ok":true,"id":9,"replicated":true,"stored":false}"#,
        ),
        (
            Response::Pong {
                from: "127.0.0.1:7001".to_string(),
            },
            r#"{"ok":true,"pong":true,"from":"127.0.0.1:7001"}"#,
            r#"{"ok":true,"id":9,"pong":true,"from":"127.0.0.1:7001"}"#,
        ),
        (
            Response::JoinOk {
                members: vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()],
            },
            r#"{"ok":true,"joined":true,"members":["127.0.0.1:7001","127.0.0.1:7002"]}"#,
            r#"{"ok":true,"id":9,"joined":true,"members":["127.0.0.1:7001","127.0.0.1:7002"]}"#,
        ),
        (
            Response::LeaveOk,
            r#"{"ok":true,"left":true}"#,
            r#"{"ok":true,"id":9,"left":true}"#,
        ),
        (
            Response::SyncOk {
                shards: vec![0, 5],
                keys: vec![1, 0xdead_beef_0000_0001],
            },
            r#"{"ok":true,"sync":true,"shards":[0,5],"keys":"0000000000000001deadbeef00000001"}"#,
            r#"{"ok":true,"id":9,"sync":true,"shards":[0,5],"keys":"0000000000000001deadbeef00000001"}"#,
        ),
        (
            Response::WarmOk {
                entries: vec![b"SOCF".to_vec(), vec![0, 255]],
            },
            r#"{"ok":true,"warm":true,"entries":["534f4346","00ff"]}"#,
            r#"{"ok":true,"id":9,"warm":true,"entries":["534f4346","00ff"]}"#,
        ),
        (
            Response::Error(ErrorResponse::fatal("rate limited")),
            r#"{"ok":false,"error":"rate limited","retriable":false}"#,
            r#"{"ok":false,"id":9,"error":"rate limited","retriable":false}"#,
        ),
        (
            Response::Error(ErrorResponse::retriable("queue full, retry later")),
            r#"{"ok":false,"error":"queue full, retry later","retriable":true}"#,
            r#"{"ok":false,"id":9,"error":"queue full, retry later","retriable":true}"#,
        ),
    ];
    for (resp, untagged, tagged) in &cases {
        for mode in [FrameMode::Ndjson, FrameMode::Binary] {
            assert_eq!(wire(resp, mode, None), *untagged, "{resp:?} {mode:?}");
            assert_eq!(wire(resp, mode, Some(9)), *tagged, "{resp:?} {mode:?}");
        }
    }
}

/// ORDER and BATCH: the permutation is an inline array in NDJSON mode and
/// a `"perm_frame":true` marker plus one binary frame in binary mode.
#[test]
fn order_and_batch_responses_encode_to_pinned_bytes() {
    let batch = Response::Batch(vec![
        Ok(plain_order()),
        Err(ErrorResponse::retriable("request timed out")),
        Ok(full_order()),
        Ok(OrderResponse {
            perm: None,
            ..plain_order()
        }),
    ]);
    let cases: Vec<(Response, [&str; 4])> = vec![
        (
            Response::Order(plain_order()),
            [
                r#"{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm":[2,0,1]}"#,
                r#"{"ok":true,"id":9,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm":[2,0,1]}"#,
                concat!(
                    r#"{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm_frame":true}"#,
                    "\n#frame 534f504d010400000300000000000000020000000000000001000000",
                ),
                concat!(
                    r#"{"ok":true,"id":9,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm_frame":true}"#,
                    "\n#frame 534f504d010400000300000000000000020000000000000001000000",
                ),
            ],
        ),
        (
            Response::Order(full_order()),
            [
                r#"{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm":[1,2,0]}"#,
                r#"{"ok":true,"id":9,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm":[1,2,0]}"#,
                concat!(
                    r#"{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm_frame":true}"#,
                    "\n#frame 534f504d010400000300000000000000010000000200000000000000",
                ),
                concat!(
                    r#"{"ok":true,"id":9,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm_frame":true}"#,
                    "\n#frame 534f504d010400000300000000000000010000000200000000000000",
                ),
            ],
        ),
        (
            batch,
            [
                r#"{"ok":true,"responses":[{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm":[2,0,1]},{"ok":false,"error":"request timed out","retriable":true},{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm":[1,2,0]},{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42}]}"#,
                r#"{"ok":true,"id":9,"responses":[{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm":[2,0,1]},{"ok":false,"error":"request timed out","retriable":true},{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm":[1,2,0]},{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42}]}"#,
                concat!(
                    r#"{"ok":true,"responses":[{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm_frame":true},{"ok":false,"error":"request timed out","retriable":true},{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm_frame":true},{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42}]}"#,
                    "\n#frame 534f504d010400000300000000000000020000000000000001000000",
                    "\n#frame 534f504d010400000300000000000000010000000200000000000000",
                ),
                concat!(
                    r#"{"ok":true,"id":9,"responses":[{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42,"perm_frame":true},{"ok":false,"error":"request timed out","retriable":true},{"ok":true,"alg":"SPECTRAL","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":true,"micros":42,"compression_ratio":1.5,"degraded":true,"degraded_reason":"deadline","trace":{"name":"order","micros":7},"perm_frame":true},{"ok":true,"alg":"RCM","n":3,"nnz":5,"stats":{"envelope":3,"bandwidth":2,"envelope_work":5,"one_sum":4,"two_sum_sq":6},"cache_hit":false,"micros":42}]}"#,
                    "\n#frame 534f504d010400000300000000000000020000000000000001000000",
                    "\n#frame 534f504d010400000300000000000000010000000200000000000000",
                ),
            ],
        ),
    ];
    for (resp, [nd, nd_tagged, bin, bin_tagged]) in &cases {
        assert_eq!(wire(resp, FrameMode::Ndjson, None), *nd, "{resp:?}");
        assert_eq!(
            wire(resp, FrameMode::Ndjson, Some(9)),
            *nd_tagged,
            "{resp:?}"
        );
        assert_eq!(wire(resp, FrameMode::Binary, None), *bin, "{resp:?}");
        assert_eq!(
            wire(resp, FrameMode::Binary, Some(9)),
            *bin_tagged,
            "{resp:?}"
        );
    }
}

/// The STATS object of a fresh server's metrics, key order included.
#[test]
fn fresh_stats_snapshot_is_pinned() {
    let text = Metrics::new()
        .snapshot(&Gauges::default())
        .to_string_compact();
    assert_eq!(
        text,
        r#"{"requests":0,"orders":0,"batches":0,"cache_hits":0,"cache_misses":0,"queue_rejections":0,"timeouts":0,"errors":0,"connections":0,"busy_rejections":0,"cancelled":0,"rate_limited":0,"progress_frames":0,"reactor_wakeups":0,"open_connections":0,"inflight_requests":0,"peer_forwards":0,"peer_forward_failures":0,"peer_replications":0,"peer_replication_failures":0,"peer_entries_received":0,"hints_replayed":0,"hints_dropped":0,"antientropy_repairs":0,"peer_transitions":{},"degraded_orders":{},"budget_aborts":{},"queue_depth":0,"active_jobs":0,"cached_orderings":0,"cache":{"shard_count":0,"bytes":0,"persistent":false,"shards":[]},"latency_us_by_algorithm":{}}"#
    );
}

/// The Prometheus exposition of a fresh server's metrics, series order,
/// help text and types included.
#[test]
fn fresh_prometheus_exposition_is_pinned() {
    let text = Metrics::new().render_prometheus(&Gauges::default());
    assert_eq!(text, FRESH_PROMETHEUS);
}

/// Every scalar series set to a distinct value, so a field reported under
/// the wrong key (or the wrong Prometheus name) changes the pinned text.
#[test]
fn scalar_series_report_their_own_fields() {
    let m = Metrics::new();
    let fields: [&std::sync::atomic::AtomicU64; 24] = [
        &m.requests,
        &m.orders,
        &m.batches,
        &m.cache_hits,
        &m.cache_misses,
        &m.queue_rejections,
        &m.timeouts,
        &m.errors,
        &m.connections,
        &*m.busy_rejections,
        &m.cancelled,
        &m.rate_limited,
        &m.progress_frames,
        &*m.reactor_wakeups,
        &m.open_connections,
        &m.inflight_requests,
        &m.peer_forwards,
        &m.peer_forward_failures,
        &m.peer_replications,
        &m.peer_replication_failures,
        &m.peer_entries_received,
        &m.hints_replayed,
        &m.hints_dropped,
        &m.antientropy_repairs,
    ];
    for (i, f) in fields.iter().enumerate() {
        f.store(i as u64 + 1, std::sync::atomic::Ordering::Relaxed);
    }
    let stats = m.snapshot(&Gauges::default()).to_string_compact();
    assert!(
        stats.starts_with(concat!(
            r#"{"requests":1,"orders":2,"batches":3,"cache_hits":4,"cache_misses":5,"queue_rejections":6,"timeouts":7,"errors":8,"connections":9,"busy_rejections":10,"cancelled":11,"rate_limited":12,"progress_frames":13,"reactor_wakeups":14,"open_connections":15,"inflight_requests":16,"peer_forwards":17,"peer_forward_failures":18,"peer_replications":19,"peer_replication_failures":20,"peer_entries_received":21,"hints_replayed":22,"hints_dropped":23,"antientropy_repairs":24,"#,
            r#""peer_transitions":{},"#
        )),
        "{stats}"
    );
    let text = m.render_prometheus(&Gauges::default());
    let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        samples.join("\n"),
        "se_requests_total 1
se_orders_total 2
se_batches_total 3
se_cache_hits_total 4
se_cache_misses_total 5
se_queue_rejections_total 6
se_timeouts_total 7
se_errors_total 8
se_connections_total 9
se_busy_rejections_total 10
se_cancelled_total 11
se_rate_limited_total 12
se_progress_frames_total 13
se_reactor_wakeups_total 14
se_peer_forwards_total 17
se_peer_forward_failures_total 18
se_peer_replications_total 19
se_peer_replication_failures_total 20
se_peer_entries_received_total 21
se_hints_replayed_total 22
se_hints_dropped_total 23
se_antientropy_repairs_total 24
se_queue_depth 0
se_active_jobs 0
se_open_connections 15
se_inflight_requests 16
se_cache_persistent 0"
    );
}

/// The STATS value at a family's dotted path. A per-shard family's path
/// ends in `<array>.<field>`; it resolves through the first shard.
fn stats_at<'a>(stats: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(stats, |v, key| match v {
        Json::Arr(items) => items.first()?.get(key),
        _ => v.get(key),
    })
}

/// The declared family a METRICS sample line belongs to: its name up to
/// the labels, less `_bucket`/`_sum`/`_count` for a histogram.
fn family_of(sample: &str) -> Option<&'static Family> {
    let name = sample.split(['{', ' ']).next()?;
    FAMILIES.iter().find(|f| {
        !f.prom.is_empty()
            && (f.prom == name
                || f.kind == Kind::Histogram
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|s| name.strip_suffix(s) == Some(f.prom)))
    })
}

/// STATS and METRICS agree with [`FAMILIES`] and with each other: every
/// family shows on both of its surfaces or on neither (the mesh families
/// only with a mesh, every other family always), under its declared
/// Prometheus type; every METRICS sample belongs to a declared family with
/// a STATS value unless it is declared METRICS-only; and every top-level
/// STATS number has a METRICS sample unless it is declared STATS-only.
fn assert_surfaces_agree(stats: &Json, text: &str, mesh: bool) {
    let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    for f in FAMILIES {
        let expected = mesh || !f.stats.starts_with("mesh.");
        if !f.stats.is_empty() {
            assert_eq!(
                stats_at(stats, f.stats).is_some(),
                expected,
                "STATS {}",
                f.stats
            );
        }
        if !f.prom.is_empty() {
            let type_line = format!("# TYPE {} {}\n", f.prom, f.kind.prometheus_type());
            assert_eq!(text.contains(&type_line), expected, "`{type_line}`");
        }
    }
    for sample in &samples {
        let f = family_of(sample).unwrap_or_else(|| panic!("undeclared sample `{sample}`"));
        assert!(
            f.stats.is_empty() || stats_at(stats, f.stats).is_some(),
            "METRICS sample `{sample}` has no STATS value at {}",
            f.stats
        );
    }
    let Json::Obj(pairs) = stats else {
        panic!("STATS must be an object: {stats:?}");
    };
    for (key, _) in pairs.iter().filter(|(_, v)| v.as_u64().is_some()) {
        let f = FAMILIES
            .iter()
            .find(|f| f.stats == key)
            .unwrap_or_else(|| panic!("STATS key {key} is not declared"));
        assert!(
            f.prom.is_empty()
                || samples
                    .iter()
                    .any(|s| family_of(s).is_some_and(|g| std::ptr::eq(f, g))),
            "STATS key {key} has no METRICS sample"
        );
    }
}

/// STATS and METRICS expose the same series, walked from [`FAMILIES`]: on
/// a live server that has served one ORDER, and on an engine with a mesh
/// and a row in every keyed family and histogram table.
#[test]
fn stats_and_metrics_expose_the_same_scalar_series() {
    let handle = serve(Config::default()).expect("bind ephemeral port");
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let mtx = "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n";
    c.order(OrderRequest::inline_mtx(se_order::Algorithm::Rcm, mtx))
        .expect("one ORDER");
    assert_surfaces_agree(&c.stats().unwrap(), &c.metrics().unwrap(), false);
    c.shutdown().unwrap();
    handle.join();

    let engine = populated_engine();
    assert_surfaces_agree(&engine.stats_snapshot(), &engine.metrics_text(), true);
}

/// An engine with one configured peer (no dial: `Engine::new` never
/// connects), two cache shards, and a row in every keyed family and
/// histogram table.
fn populated_engine() -> Engine {
    let cfg = Config {
        workers: 1,
        cache_shards: 2,
        peers: vec!["127.0.0.1:7001".to_string()],
        replicas: 2,
        ..Config::default()
    };
    let engine = Engine::new(&cfg, "127.0.0.1:7000".parse().unwrap()).expect("engine");
    let m = engine.metrics();
    m.inc(&m.orders);
    m.inc(&m.cache_hits);
    m.peer_transitions.inc("alive:suspect");
    m.peer_transitions.inc("alive:suspect");
    m.peer_transitions.inc("suspect:dead");
    m.degraded_orders.inc("deadline");
    m.degraded_orders.inc("not_converged");
    m.degraded_orders.inc("not_converged");
    m.budget_aborts.inc("lanczos");
    m.latency.record("SPECTRAL", 250_000);
    m.latency.record("RCM", 100);
    m.latency.record("RCM", 3_000);
    m.stage_latency.record("fiedler", 1_500);
    let (g, miss) = (meshgen::path(5), meshgen::path(6));
    let meta = OrderingMeta {
        stats: stats(),
        compression_ratio: None,
        degraded: None,
    };
    let cache = engine.cache();
    cache.insert(&g, Algorithm::Rcm, false, &[4, 3, 2, 1, 0], meta);
    assert!(cache.get(&g, Algorithm::Rcm, false).is_some());
    assert!(cache.get(&miss, Algorithm::Rcm, false).is_none());
    engine
}

/// The STATS object and METRICS text of [`populated_engine`], byte for
/// byte: every keyed family, histogram, shard gauge, and the solver-pool
/// and mesh fragments.
#[test]
fn populated_engine_surfaces_are_pinned() {
    let engine = populated_engine();
    assert_eq!(engine.stats_snapshot().to_string_compact(), POPULATED_STATS);
    assert_eq!(engine.metrics_text(), POPULATED_PROMETHEUS);
}

const POPULATED_STATS: &str = r#"{"requests":0,"orders":1,"batches":0,"cache_hits":1,"cache_misses":0,"queue_rejections":0,"timeouts":0,"errors":0,"connections":0,"busy_rejections":0,"cancelled":0,"rate_limited":0,"progress_frames":0,"reactor_wakeups":0,"open_connections":0,"inflight_requests":0,"peer_forwards":0,"peer_forward_failures":0,"peer_replications":0,"peer_replication_failures":0,"peer_entries_received":0,"hints_replayed":0,"hints_dropped":0,"antientropy_repairs":0,"peer_transitions":{"alive:suspect":2,"suspect:dead":1},"degraded_orders":{"deadline":1,"not_converged":2},"budget_aborts":{"lanczos":1},"queue_depth":0,"active_jobs":0,"cached_orderings":1,"cache":{"shard_count":2,"bytes":247,"persistent":false,"shards":[{"entries":1,"bytes":247,"hits":1,"misses":0},{"entries":0,"bytes":0,"hits":0,"misses":1}]},"latency_us_by_algorithm":{"RCM":{"count":2,"mean_us":1550,"p50_us":128,"p99_us":4096,"max_us":3000},"SPECTRAL":{"count":1,"mean_us":250000,"p50_us":262144,"p99_us":262144,"max_us":250000}},"solver_pool":{"cached":0,"steals":0,"parks":0,"parked_workers":0},"mesh":{"peers":2,"replicas":2,"self":"127.0.0.1:7000","members":[{"name":"127.0.0.1:7001","state":"alive"}],"hints_queued":0}}"#;

const POPULATED_PROMETHEUS: &str = r#"# HELP se_requests_total Request lines received (any command).
# TYPE se_requests_total counter
se_requests_total 0
# HELP se_orders_total Individual ORDER executions (batch members count individually).
# TYPE se_orders_total counter
se_orders_total 1
# HELP se_batches_total BATCH commands received.
# TYPE se_batches_total counter
se_batches_total 0
# HELP se_cache_hits_total Orderings served from the cache.
# TYPE se_cache_hits_total counter
se_cache_hits_total 1
# HELP se_cache_misses_total Orderings computed because the cache missed.
# TYPE se_cache_misses_total counter
se_cache_misses_total 0
# HELP se_queue_rejections_total Submissions rejected with queue-full backpressure.
# TYPE se_queue_rejections_total counter
se_queue_rejections_total 0
# HELP se_timeouts_total Requests that exceeded their wall-clock timeout.
# TYPE se_timeouts_total counter
se_timeouts_total 0
# HELP se_errors_total Requests that failed (parse errors, bad input, I/O).
# TYPE se_errors_total counter
se_errors_total 0
# HELP se_connections_total Connections accepted.
# TYPE se_connections_total counter
se_connections_total 0
# HELP se_busy_rejections_total Connections turned away at the connection limit.
# TYPE se_busy_rejections_total counter
se_busy_rejections_total 0
# HELP se_cancelled_total ORDER requests whose response was suppressed by a CANCEL.
# TYPE se_cancelled_total counter
se_cancelled_total 0
# HELP se_rate_limited_total Requests rejected by per-client rate limiting.
# TYPE se_rate_limited_total counter
se_rate_limited_total 0
# HELP se_progress_frames_total PROGRESS frames put on the wire.
# TYPE se_progress_frames_total counter
se_progress_frames_total 0
# HELP se_reactor_wakeups_total Reactor event-loop wakeups (poll returns).
# TYPE se_reactor_wakeups_total counter
se_reactor_wakeups_total 0
# HELP se_peer_forwards_total ORDER requests forwarded to the owning mesh peer.
# TYPE se_peer_forwards_total counter
se_peer_forwards_total 0
# HELP se_peer_forward_failures_total Forwards that exhausted every candidate peer and fell back to local compute.
# TYPE se_peer_forward_failures_total counter
se_peer_forward_failures_total 0
# HELP se_peer_replications_total Cache entries pushed to successor peers.
# TYPE se_peer_replications_total counter
se_peer_replications_total 0
# HELP se_peer_replication_failures_total Best-effort replication pushes that failed.
# TYPE se_peer_replication_failures_total counter
se_peer_replication_failures_total 0
# HELP se_peer_entries_received_total Cache entries received from peers via REPLICATE.
# TYPE se_peer_entries_received_total counter
se_peer_entries_received_total 0
# HELP se_hints_replayed_total Queued handoff hints delivered to their returned target peer.
# TYPE se_hints_replayed_total counter
se_hints_replayed_total 0
# HELP se_hints_dropped_total Hints dropped by queue overflow or replay-time corruption.
# TYPE se_hints_dropped_total counter
se_hints_dropped_total 0
# HELP se_antientropy_repairs_total Entries re-pushed to a diverged replica by anti-entropy.
# TYPE se_antientropy_repairs_total counter
se_antientropy_repairs_total 0
# HELP se_peer_transitions_total Peer suspicion-state transitions observed by the failure detector.
# TYPE se_peer_transitions_total counter
se_peer_transitions_total{from="alive",to="suspect"} 2
se_peer_transitions_total{from="suspect",to="dead"} 1
# HELP se_degraded_orders_total Degraded ORDER responses by machine-readable reason.
# TYPE se_degraded_orders_total counter
se_degraded_orders_total{reason="deadline"} 1
se_degraded_orders_total{reason="not_converged"} 2
# HELP se_budget_aborts_total Solver budget aborts by the stage that observed exhaustion.
# TYPE se_budget_aborts_total counter
se_budget_aborts_total{stage="lanczos"} 1
# HELP se_queue_depth Jobs waiting in the worker pool queue.
# TYPE se_queue_depth gauge
se_queue_depth 0
# HELP se_active_jobs Jobs currently executing on pool workers.
# TYPE se_active_jobs gauge
se_active_jobs 0
# HELP se_open_connections Currently open client connections.
# TYPE se_open_connections gauge
se_open_connections 0
# HELP se_inflight_requests Requests submitted to the engine but not yet answered.
# TYPE se_inflight_requests gauge
se_inflight_requests 0
# HELP se_cache_persistent Whether the ordering cache spills to disk (1) or not (0).
# TYPE se_cache_persistent gauge
se_cache_persistent 0
# HELP se_cache_shard_entries Cached orderings per cache shard.
# TYPE se_cache_shard_entries gauge
se_cache_shard_entries{shard="0"} 1
se_cache_shard_entries{shard="1"} 0
# HELP se_cache_shard_bytes Bytes charged against each shard's budget.
# TYPE se_cache_shard_bytes gauge
se_cache_shard_bytes{shard="0"} 247
se_cache_shard_bytes{shard="1"} 0
# HELP se_cache_shard_hits Lookups answered per cache shard.
# TYPE se_cache_shard_hits gauge
se_cache_shard_hits{shard="0"} 1
se_cache_shard_hits{shard="1"} 0
# HELP se_cache_shard_misses Lookups each cache shard could not answer.
# TYPE se_cache_shard_misses gauge
se_cache_shard_misses{shard="0"} 0
se_cache_shard_misses{shard="1"} 1
# HELP se_order_latency_microseconds End-to-end ORDER latency by algorithm.
# TYPE se_order_latency_microseconds histogram
se_order_latency_microseconds_bucket{alg="RCM",le="2"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="4"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="8"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="16"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="32"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="64"} 0
se_order_latency_microseconds_bucket{alg="RCM",le="128"} 1
se_order_latency_microseconds_bucket{alg="RCM",le="256"} 1
se_order_latency_microseconds_bucket{alg="RCM",le="512"} 1
se_order_latency_microseconds_bucket{alg="RCM",le="1024"} 1
se_order_latency_microseconds_bucket{alg="RCM",le="2048"} 1
se_order_latency_microseconds_bucket{alg="RCM",le="4096"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="8192"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="16384"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="32768"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="65536"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="131072"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="262144"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="524288"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="1048576"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="2097152"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="4194304"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="8388608"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="16777216"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="33554432"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="67108864"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="134217728"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="268435456"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="536870912"} 2
se_order_latency_microseconds_bucket{alg="RCM",le="+Inf"} 2
se_order_latency_microseconds_sum{alg="RCM"} 3100
se_order_latency_microseconds_count{alg="RCM"} 2
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="2"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="4"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="8"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="16"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="32"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="64"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="128"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="256"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="512"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="1024"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="2048"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="4096"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="8192"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="16384"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="32768"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="65536"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="131072"} 0
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="262144"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="524288"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="1048576"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="2097152"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="4194304"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="8388608"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="16777216"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="33554432"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="67108864"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="134217728"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="268435456"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="536870912"} 1
se_order_latency_microseconds_bucket{alg="SPECTRAL",le="+Inf"} 1
se_order_latency_microseconds_sum{alg="SPECTRAL"} 250000
se_order_latency_microseconds_count{alg="SPECTRAL"} 1
# HELP se_stage_latency_microseconds Per-request solver time by pipeline stage (span subtree sums).
# TYPE se_stage_latency_microseconds histogram
se_stage_latency_microseconds_bucket{stage="fiedler",le="2"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="4"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="8"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="16"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="32"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="64"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="128"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="256"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="512"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="1024"} 0
se_stage_latency_microseconds_bucket{stage="fiedler",le="2048"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="4096"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="8192"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="16384"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="32768"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="65536"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="131072"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="262144"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="524288"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="1048576"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="2097152"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="4194304"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="8388608"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="16777216"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="33554432"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="67108864"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="134217728"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="268435456"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="536870912"} 1
se_stage_latency_microseconds_bucket{stage="fiedler",le="+Inf"} 1
se_stage_latency_microseconds_sum{stage="fiedler"} 1500
se_stage_latency_microseconds_count{stage="fiedler"} 1
# HELP se_pool_steals_total Tasks stolen across solver-pool worker deques.
# TYPE se_pool_steals_total counter
se_pool_steals_total 0
# HELP se_pool_parks_total Solver-pool worker idle transitions (condvar parks).
# TYPE se_pool_parks_total counter
se_pool_parks_total 0
# HELP se_pool_parked_workers Solver-pool workers currently parked.
# TYPE se_pool_parked_workers gauge
se_pool_parked_workers 0
# HELP se_pool_cached Solver pools alive in the per-thread-count cache.
# TYPE se_pool_cached gauge
se_pool_cached 0
# HELP se_peer_mesh_size Nodes on the consistent-hash ring (peers + this node).
# TYPE se_peer_mesh_size gauge
se_peer_mesh_size 2
# HELP se_peer_replication_factor Configured mesh replication factor.
# TYPE se_peer_replication_factor gauge
se_peer_replication_factor 2
# HELP se_hints_queued Handoff hints currently parked for unreachable peers.
# TYPE se_hints_queued gauge
se_hints_queued 0
# HELP se_peer_state Failure-detector verdict per peer (0=alive, 1=suspect, 2=dead, 3=rejoining).
# TYPE se_peer_state gauge
se_peer_state{peer="127.0.0.1:7001",state="alive"} 0
"#;

/// A fixed 3×3 grid graph in Chaco format (1-based adjacency lists),
/// escaped for use as a JSON string value.
const GRID: &str = r"9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";

fn order_fields(alg: &str) -> String {
    format!(r#""cmd":"ORDER","alg":"{alg}","format":"chaco","payload":"{GRID}""#)
}

/// Replaces the value of every `"micros":` key with 0 — the only field of
/// these responses that depends on timing.
fn mask_micros(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(r#""micros":"#) {
        let value = at + r#""micros":"#.len();
        out.push_str(&rest[..value]);
        out.push('0');
        rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A raw protocol-v1 connection that records exactly what comes back.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        Raw {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line and returns the response in the [`wire`]
    /// text form, `micros` masked: the line, then every binary frame
    /// announced by a `"perm_frame":true` marker.
    fn ask(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("write request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let line = line.strip_suffix('\n').expect("a whole response line");
        let mut out = mask_micros(line);
        for _ in line.matches(r#""perm_frame":true"#) {
            let mut header = [0u8; 16];
            self.reader.read_exact(&mut header).expect("frame header");
            let n = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
            let mut body = vec![0u8; n * header[5] as usize];
            self.reader.read_exact(&mut body).expect("frame body");
            out.push_str("\n#frame ");
            out.push_str(&hex(&header));
            out.push_str(&hex(&body));
        }
        out
    }
}

/// A protocol-v1 conversation with a live server: HELLO, a computed ORDER
/// and its cache hit, a BATCH, CANCEL, decode errors, a binary-frame ORDER
/// and SHUTDOWN, each answered with pinned bytes.
#[test]
fn live_v1_conversation_is_pinned() {
    let handle = serve(Config {
        workers: 1,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut c = Raw::connect(handle.local_addr());
    let rcm = order_fields("rcm");
    let gps = order_fields("gps");
    let conversation: Vec<(String, &str)> = vec![
        (
            r#"{"cmd":"HELLO","frames":"ndjson"}"#.to_string(),
            r#"{"ok":true,"hello":true,"frames":"ndjson","proto":1}"#,
        ),
        (
            format!("{{{rcm}}}"),
            r#"{"ok":true,"alg":"RCM","n":9,"nnz":21,"stats":{"envelope":19,"bandwidth":3,"envelope_work":49,"one_sum":26,"two_sum_sq":62},"cache_hit":false,"micros":0,"perm":[8,7,5,6,4,2,3,1,0]}"#,
        ),
        (
            format!("{{{rcm}}}"),
            r#"{"ok":true,"alg":"RCM","n":9,"nnz":21,"stats":{"envelope":19,"bandwidth":3,"envelope_work":49,"one_sum":26,"two_sum_sq":62},"cache_hit":true,"micros":0,"perm":[8,7,5,6,4,2,3,1,0]}"#,
        ),
        (
            format!(r#"{{"cmd":"BATCH","requests":[{{{rcm}}},{{{gps}}}]}}"#),
            r#"{"ok":true,"responses":[{"ok":true,"alg":"RCM","n":9,"nnz":21,"stats":{"envelope":19,"bandwidth":3,"envelope_work":49,"one_sum":26,"two_sum_sq":62},"cache_hit":true,"micros":0,"perm":[8,7,5,6,4,2,3,1,0]},{"ok":true,"alg":"GPS","n":9,"nnz":21,"stats":{"envelope":19,"bandwidth":3,"envelope_work":49,"one_sum":26,"two_sum_sq":62},"cache_hit":false,"micros":0,"perm":[0,1,3,2,4,6,5,7,8]}]}"#,
        ),
        (
            r#"{"cmd":"CANCEL","id":7}"#.to_string(),
            r#"{"ok":true,"cancelled":true,"pending":false}"#,
        ),
        (
            "this is not json".to_string(),
            r#"{"ok":false,"error":"json error at byte 0: expected 'true'","retriable":false}"#,
        ),
        (
            r#"{"cmd":"FROB"}"#.to_string(),
            r#"{"ok":false,"error":"bad request: unknown cmd 'FROB'","retriable":false}"#,
        ),
        (
            r#"{"cmd":"HELLO","frames":"binary"}"#.to_string(),
            r#"{"ok":true,"hello":true,"frames":"binary","proto":1}"#,
        ),
        (
            format!("{{{rcm}}}"),
            concat!(
                r#"{"ok":true,"alg":"RCM","n":9,"nnz":21,"stats":{"envelope":19,"bandwidth":3,"envelope_work":49,"one_sum":26,"two_sum_sq":62},"cache_hit":true,"micros":0,"perm_frame":true}"#,
                "\n#frame 534f504d010400000900000000000000",
                "080000000700000005000000060000000400000002000000030000000100000000000000",
            ),
        ),
        (
            r#"{"cmd":"SHUTDOWN"}"#.to_string(),
            r#"{"ok":true,"shutdown":true,"drained":5}"#,
        ),
    ];
    for (request, expected) in &conversation {
        assert_eq!(c.ask(request), *expected, "{request}");
    }
    handle.join();
}

const FRESH_PROMETHEUS: &str = r#"# HELP se_requests_total Request lines received (any command).
# TYPE se_requests_total counter
se_requests_total 0
# HELP se_orders_total Individual ORDER executions (batch members count individually).
# TYPE se_orders_total counter
se_orders_total 0
# HELP se_batches_total BATCH commands received.
# TYPE se_batches_total counter
se_batches_total 0
# HELP se_cache_hits_total Orderings served from the cache.
# TYPE se_cache_hits_total counter
se_cache_hits_total 0
# HELP se_cache_misses_total Orderings computed because the cache missed.
# TYPE se_cache_misses_total counter
se_cache_misses_total 0
# HELP se_queue_rejections_total Submissions rejected with queue-full backpressure.
# TYPE se_queue_rejections_total counter
se_queue_rejections_total 0
# HELP se_timeouts_total Requests that exceeded their wall-clock timeout.
# TYPE se_timeouts_total counter
se_timeouts_total 0
# HELP se_errors_total Requests that failed (parse errors, bad input, I/O).
# TYPE se_errors_total counter
se_errors_total 0
# HELP se_connections_total Connections accepted.
# TYPE se_connections_total counter
se_connections_total 0
# HELP se_busy_rejections_total Connections turned away at the connection limit.
# TYPE se_busy_rejections_total counter
se_busy_rejections_total 0
# HELP se_cancelled_total ORDER requests whose response was suppressed by a CANCEL.
# TYPE se_cancelled_total counter
se_cancelled_total 0
# HELP se_rate_limited_total Requests rejected by per-client rate limiting.
# TYPE se_rate_limited_total counter
se_rate_limited_total 0
# HELP se_progress_frames_total PROGRESS frames put on the wire.
# TYPE se_progress_frames_total counter
se_progress_frames_total 0
# HELP se_reactor_wakeups_total Reactor event-loop wakeups (poll returns).
# TYPE se_reactor_wakeups_total counter
se_reactor_wakeups_total 0
# HELP se_peer_forwards_total ORDER requests forwarded to the owning mesh peer.
# TYPE se_peer_forwards_total counter
se_peer_forwards_total 0
# HELP se_peer_forward_failures_total Forwards that exhausted every candidate peer and fell back to local compute.
# TYPE se_peer_forward_failures_total counter
se_peer_forward_failures_total 0
# HELP se_peer_replications_total Cache entries pushed to successor peers.
# TYPE se_peer_replications_total counter
se_peer_replications_total 0
# HELP se_peer_replication_failures_total Best-effort replication pushes that failed.
# TYPE se_peer_replication_failures_total counter
se_peer_replication_failures_total 0
# HELP se_peer_entries_received_total Cache entries received from peers via REPLICATE.
# TYPE se_peer_entries_received_total counter
se_peer_entries_received_total 0
# HELP se_hints_replayed_total Queued handoff hints delivered to their returned target peer.
# TYPE se_hints_replayed_total counter
se_hints_replayed_total 0
# HELP se_hints_dropped_total Hints dropped by queue overflow or replay-time corruption.
# TYPE se_hints_dropped_total counter
se_hints_dropped_total 0
# HELP se_antientropy_repairs_total Entries re-pushed to a diverged replica by anti-entropy.
# TYPE se_antientropy_repairs_total counter
se_antientropy_repairs_total 0
# HELP se_peer_transitions_total Peer suspicion-state transitions observed by the failure detector.
# TYPE se_peer_transitions_total counter
# HELP se_degraded_orders_total Degraded ORDER responses by machine-readable reason.
# TYPE se_degraded_orders_total counter
# HELP se_budget_aborts_total Solver budget aborts by the stage that observed exhaustion.
# TYPE se_budget_aborts_total counter
# HELP se_queue_depth Jobs waiting in the worker pool queue.
# TYPE se_queue_depth gauge
se_queue_depth 0
# HELP se_active_jobs Jobs currently executing on pool workers.
# TYPE se_active_jobs gauge
se_active_jobs 0
# HELP se_open_connections Currently open client connections.
# TYPE se_open_connections gauge
se_open_connections 0
# HELP se_inflight_requests Requests submitted to the engine but not yet answered.
# TYPE se_inflight_requests gauge
se_inflight_requests 0
# HELP se_cache_persistent Whether the ordering cache spills to disk (1) or not (0).
# TYPE se_cache_persistent gauge
se_cache_persistent 0
# HELP se_cache_shard_entries Cached orderings per cache shard.
# TYPE se_cache_shard_entries gauge
# HELP se_cache_shard_bytes Bytes charged against each shard's budget.
# TYPE se_cache_shard_bytes gauge
# HELP se_cache_shard_hits Lookups answered per cache shard.
# TYPE se_cache_shard_hits gauge
# HELP se_cache_shard_misses Lookups each cache shard could not answer.
# TYPE se_cache_shard_misses gauge
# HELP se_order_latency_microseconds End-to-end ORDER latency by algorithm.
# TYPE se_order_latency_microseconds histogram
# HELP se_stage_latency_microseconds Per-request solver time by pipeline stage (span subtree sums).
# TYPE se_stage_latency_microseconds histogram
"#;
