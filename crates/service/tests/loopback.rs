//! Loopback acceptance tests: a real `spectral-orderd` server on an
//! ephemeral port, driven through the blocking [`se_service::Client`].
//!
//! This is the ISSUE's acceptance demo in executable form: same matrix
//! twice → second response is a cache hit; a 16-request batch all arrives;
//! STATS reports request/hit/queue-depth counters and per-algorithm
//! latency; queue overload yields a retriable error; SHUTDOWN drains
//! in-flight work before acking.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest, Request, Response};
use se_service::{serve, Client, Config};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::io::{BufRead, BufReader, Write};

fn chaco_request(g: &SymmetricPattern, alg: se_order::Algorithm) -> OrderRequest {
    inline_request(MatrixFormat::Chaco, write_chaco_string(g), alg)
}

fn inline_request(format: MatrixFormat, payload: String, alg: se_order::Algorithm) -> OrderRequest {
    OrderRequest {
        alg,
        source: MatrixSource::Inline { format, payload },
        timeout_ms: None,
        include_perm: true,
        threads: None,
        compressed: false,
        trace: false,
        id: None,
        progress: false,
        hop: false,
    }
}

fn start(cfg: Config) -> (se_service::ServerHandle, std::net::SocketAddr) {
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.local_addr();
    (handle, addr)
}

fn assert_valid_perm(perm: &[usize], n: usize) {
    assert_eq!(perm.len(), n);
    let mut seen = vec![false; n];
    for &v in perm {
        assert!(v < n && !seen[v], "not a permutation: {perm:?}");
        seen[v] = true;
    }
}

#[test]
fn order_roundtrip_with_cache_hit_and_stats() {
    let (handle, addr) = start(Config::default());
    let mut client = Client::connect(addr).unwrap();
    let g = meshgen::grid2d(12, 12);

    let first = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert_eq!(first.alg, "RCM");
    assert_eq!(first.n, g.n());
    assert_eq!(first.nnz, g.nnz_lower_with_diagonal());
    assert!(!first.cache_hit, "first request must compute");
    assert_valid_perm(first.perm.as_ref().unwrap().order(), g.n());

    // Same pattern + algorithm again: served from the cache, bit-identical.
    let second = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(
        second.cache_hit,
        "second identical request must hit the cache"
    );
    assert_eq!(second.perm, first.perm);
    assert_eq!(second.stats, first.stats);

    // A different algorithm on the same pattern is a different cache key.
    let third = client
        .order(chaco_request(&g, se_order::Algorithm::Sloan))
        .unwrap();
    assert!(!third.cache_hit);

    let stats = client.stats().unwrap();
    let num = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats.{k}"))
    };
    assert_eq!(num("cache_hits"), 1);
    assert_eq!(num("cache_misses"), 2);
    assert_eq!(num("orders"), 3);
    assert!(num("requests") >= 4, "three ORDERs plus this STATS");
    assert_eq!(num("queue_rejections"), 0);
    let _ = num("queue_depth");
    let _ = num("active_jobs");
    assert_eq!(num("cached_orderings"), 2);
    let by_alg = stats.get("latency_us_by_algorithm").expect("latency table");
    assert_eq!(
        by_alg
            .get("RCM")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        by_alg
            .get("SLOAN")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(1)
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn sixteen_request_batch_all_arrive_in_order() {
    let (handle, addr) = start(Config::default());
    let mut client = Client::connect(addr).unwrap();

    // 16 distinct matrices so every slot is a real computation.
    let graphs: Vec<SymmetricPattern> = (0..16).map(|i| meshgen::grid2d(4 + i, 5)).collect();
    let reqs: Vec<OrderRequest> = graphs
        .iter()
        .map(|g| chaco_request(g, se_order::Algorithm::Rcm))
        .collect();
    let responses = client.order_batch(reqs).unwrap();

    assert_eq!(responses.len(), 16, "every batch slot must arrive");
    for (i, (resp, g)) in responses.iter().zip(&graphs).enumerate() {
        let r = resp
            .as_ref()
            .unwrap_or_else(|e| panic!("slot {i} failed: {}", e.error));
        assert_eq!(r.n, g.n(), "slot {i} out of order");
        assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("orders").and_then(Json::as_u64), Some(16));
    assert_eq!(stats.get("batches").and_then(Json::as_u64), Some(1));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn concurrent_clients_share_the_cache() {
    let (handle, addr) = start(Config::default());
    let g = meshgen::annulus_tri(8, 40, 0xC0FFEE);
    let payload = write_chaco_string(&g);

    // Warm the cache once so every concurrent request below can hit.
    let warm = Client::connect(addr)
        .unwrap()
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!warm.cache_hit);

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let req = OrderRequest {
                    alg: se_order::Algorithm::Rcm,
                    source: MatrixSource::Inline {
                        format: MatrixFormat::Chaco,
                        payload,
                    },
                    timeout_ms: None,
                    include_perm: true,
                    threads: None,
                    compressed: false,
                    trace: false,
                    id: None,
                    progress: false,
                    hop: false,
                };
                client.order(req).unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // All eight agree with the warm-up ordering and each other.
    for r in &responses {
        assert!(
            r.cache_hit,
            "warm cache must serve every concurrent request"
        );
        assert_eq!(r.perm, warm.perm);
        assert_eq!(r.stats, warm.stats);
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(8));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn queue_overload_yields_retriable_backpressure_errors() {
    // One worker, queue of one: a batch of four slow orderings can keep at
    // most two (one running + one queued); the rest must be rejected with a
    // retriable error rather than blocking the connection.
    let (handle, addr) = start(Config {
        workers: 1,
        queue_capacity: 1,
        ..Config::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let g = meshgen::annulus_tri(16, 75, 0xBEEF); // n ≈ 1.2k: slow enough
    let reqs: Vec<OrderRequest> = (0..4)
        .map(|_| chaco_request(&g, se_order::Algorithm::Spectral))
        .collect();
    let responses = client.order_batch(reqs).unwrap();

    let ok = responses.iter().filter(|r| r.is_ok()).count();
    let rejected: Vec<_> = responses.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(ok >= 1, "the running job must succeed");
    assert!(!rejected.is_empty(), "queue of 1 cannot absorb 4 slow jobs");
    for e in &rejected {
        assert!(e.retriable, "backpressure must be retriable: {}", e.error);
        assert!(e.error.contains("queue full"), "got: {}", e.error);
    }

    let stats = client.stats().unwrap();
    let rej = stats
        .get("queue_rejections")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(rej as usize, rejected.len());

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn per_request_timeout_is_enforced() {
    let (handle, addr) = start(Config::default());
    let mut client = Client::connect(addr).unwrap();

    let g = meshgen::annulus_tri(16, 75, 0xFEED);
    let mut req = chaco_request(&g, se_order::Algorithm::Spectral);
    req.timeout_ms = Some(1); // a 1.2k-vertex spectral ordering takes longer
    let err = client.order(req).unwrap_err();
    match err {
        se_service::ClientError::Server(e) => {
            assert!(e.retriable);
            assert!(e.error.contains("timed out"), "got: {}", e.error);
        }
        other => panic!("expected a server timeout error, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("timeouts").and_then(Json::as_u64), Some(1));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let (handle, addr) = start(Config {
        workers: 1,
        queue_capacity: 16,
        ..Config::default()
    });

    // A batch of three moderately slow jobs on one connection...
    let batch_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let g = meshgen::annulus_tri(12, 60, 0xD1CE);
        let reqs: Vec<OrderRequest> = (0..3)
            .map(|_| chaco_request(&g, se_order::Algorithm::Spectral))
            .collect();
        client.order_batch(reqs).unwrap()
    });
    // ...and a SHUTDOWN racing it from another connection. The drain must
    // let the queued jobs finish before the ack.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut control = Client::connect(addr).unwrap();
    let drained = control.shutdown().unwrap();

    let responses = batch_thread.join().unwrap();
    let ok = responses.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 3, "queued work must survive a graceful shutdown");
    assert!(
        drained >= 1,
        "the ack reports how much work the drain finished"
    );

    handle.join();
}

#[test]
fn malformed_lines_get_errors_but_the_connection_survives() {
    let (handle, addr) = start(Config::default());
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    for bad in [
        "this is not json",
        r#"{"cmd":"NOPE"}"#,
        r#"{"cmd":"ORDER","alg":"wat","payload":"x"}"#,
    ] {
        writeln!(writer, "{bad}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let v = se_service::json::parse(line.trim()).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "for {bad}"
        );
    }

    // A bad matrix payload is an error too, but a typed one.
    let req = Request::Order(OrderRequest {
        alg: se_order::Algorithm::Rcm,
        source: MatrixSource::Inline {
            format: MatrixFormat::MatrixMarket,
            payload: "definitely not a matrix".into(),
        },
        timeout_ms: None,
        include_perm: true,
        threads: None,
        compressed: false,
        trace: false,
        id: None,
        progress: false,
        hop: false,
    });
    writeln!(writer, "{}", se_service::proto::encode_request(&req)).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match se_service::proto::decode_response(line.trim()).unwrap() {
        Response::Error(e) => assert!(!e.retriable),
        other => panic!("expected an error response, got {other:?}"),
    }

    // The same connection still serves valid requests afterwards.
    let g = meshgen::grid2d(6, 6);
    writeln!(
        writer,
        "{}",
        se_service::proto::encode_request(&Request::Order(chaco_request(
            &g,
            se_order::Algorithm::Rcm
        )))
    )
    .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match se_service::proto::decode_response(line.trim()).unwrap() {
        Response::Order(r) => assert_eq!(r.n, g.n()),
        other => panic!("expected an order response, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn hostile_declared_sizes_get_errors_and_the_server_survives() {
    let (handle, addr) = start(Config::default());
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // Each payload is a few bytes but declares a count whose allocation
    // overflows the address space, so it fails whatever the host's
    // overcommit policy. The first used to abort the whole daemon.
    for (format, payload) in [
        (MatrixFormat::Chaco, "2 10000000000\n2\n1\n"),
        (MatrixFormat::Chaco, "2 576460752303423488\n2\n1\n"),
        (
            MatrixFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate real general\n2 2 9000000000000000000\n1 2 1.0\n",
        ),
        (
            MatrixFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate real general\n\
             18446744073709551615 18446744073709551615 1\n1 2 1.0\n",
        ),
        (
            MatrixFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate real general\n\
             2305843009213693952 2305843009213693952 1\n1 2 1.0\n",
        ),
    ] {
        let req = inline_request(format, payload.into(), se_order::Algorithm::Rcm);
        match client.order(req) {
            Err(se_service::ClientError::Server(e)) => {
                assert!(
                    e.error.starts_with("cannot read matrix: "),
                    "{payload:?}: {}",
                    e.error
                );
                assert!(!e.retriable, "{payload:?}");
            }
            other => panic!("{payload:?}: expected a matrix error, got {other:?}"),
        }
        // The same server still answers a valid ORDER.
        let g = meshgen::grid2d(5, 5);
        let ok = client
            .order(chaco_request(&g, se_order::Algorithm::Rcm))
            .unwrap();
        assert_eq!(ok.n, g.n());
    }
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn one_graph_in_three_formats_shares_one_cache_entry() {
    use sparsemat::io::harwell_boeing::write_harwell_boeing_string;
    use sparsemat::io::write_matrix_market_string;
    let g = meshgen::grid2d(7, 9);
    let a = g.spd_matrix(1.0);
    let payloads = [
        (MatrixFormat::Chaco, write_chaco_string(&g)),
        (MatrixFormat::MatrixMarket, write_matrix_market_string(&a)),
        (
            MatrixFormat::HarwellBoeing,
            write_harwell_boeing_string(&a, "GRID"),
        ),
    ];
    // The three readers build one pattern, hence one cache key.
    let key =
        |g: &SymmetricPattern| se_service::cache::pattern_key(g, se_order::Algorithm::Rcm, false);
    let patterns = [
        sparsemat::io::read_chaco_str(&payloads[0].1).unwrap(),
        sparsemat::io::read_matrix_market_pattern_str(&payloads[1].1).unwrap(),
        sparsemat::io::read_harwell_boeing_str(&payloads[2].1)
            .and_then(|m| m.symmetrized_pattern())
            .unwrap(),
    ];
    for p in &patterns {
        assert_eq!(p, &g);
        assert_eq!(key(p), key(&g));
    }

    // Over the wire: the first format computes, the other two hit.
    let (handle, addr) = start(Config::default());
    let mut client = Client::connect(addr).unwrap();
    let mut perms = Vec::new();
    for (i, (format, payload)) in payloads.iter().enumerate() {
        let req = inline_request(*format, payload.clone(), se_order::Algorithm::Rcm);
        let r = client.order(req).unwrap();
        assert_eq!(r.cache_hit, i > 0, "{format:?}");
        perms.push(format!("{:?}", r.perm));
    }
    assert!(perms.iter().all(|p| p == &perms[0]));
    client.shutdown().unwrap();
    handle.join();
}
