//! Chaos acceptance tests: deterministic fault injection, cooperative
//! deadlines/CANCEL, the degradation ladder, rate limiting, slow-loris
//! hardening and worker-panic recovery — all against a real loopback
//! `spectral-orderd` server.
//!
//! Every fault here is driven by a seeded [`FaultPlane`], so each failure
//! is reproducible bit-for-bit; and with the plane disabled the service is
//! proven bit-identical across solver thread counts.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest};
use se_service::{serve, sites, Client, ClientError, Config, FaultPlane};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::io::{Read, Write};
use std::time::Duration;

fn chaco_request(g: &SymmetricPattern, alg: se_order::Algorithm) -> OrderRequest {
    OrderRequest {
        alg,
        source: MatrixSource::Inline {
            format: MatrixFormat::Chaco,
            payload: write_chaco_string(g),
        },
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

fn assert_valid_perm(perm: &[usize], n: usize) {
    assert_eq!(perm.len(), n);
    let mut seen = vec![false; n];
    for &v in perm {
        assert!(v < n && !seen[v], "not a permutation");
        seen[v] = true;
    }
}

/// Forced RQI/Lanczos non-convergence: the service still answers with a
/// *valid* permutation — RCM, rung 3 of the ladder — marked
/// `"degraded":true` with reason `not_converged`, the degradation shows up
/// in STATS and the Prometheus exposition, and (because non-convergence is
/// a deterministic matrix property) the degraded entry is cached.
#[test]
fn forced_non_convergence_degrades_to_a_valid_rcm_permutation() {
    let faults = FaultPlane::seeded(42);
    faults.arm(sites::LANCZOS_CONVERGE);
    faults.arm(sites::RQI_CONVERGE);
    let handle = serve(Config {
        faults,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(14, 11);

    let r = client
        .order(chaco_request(&g, se_order::Algorithm::Spectral))
        .unwrap();
    assert_eq!(r.alg, "RCM", "rung 3 must have produced the result");
    assert_eq!(r.degraded.as_deref(), Some("not_converged"));
    assert!(!r.cache_hit);
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());

    // The degraded permutation is exactly what a direct RCM run produces.
    let direct = se_order::order(&g, se_order::Algorithm::Rcm).unwrap();
    assert_eq!(r.perm.as_ref().unwrap().order(), direct.perm.order());

    // not_converged is cacheable: the identical request hits, and the hit
    // still carries the degradation marker.
    let hit = client
        .order(chaco_request(&g, se_order::Algorithm::Spectral))
        .unwrap();
    assert!(hit.cache_hit);
    assert_eq!(hit.degraded.as_deref(), Some("not_converged"));
    assert_eq!(hit.perm, r.perm);

    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("degraded_orders")
            .and_then(|t| t.get("not_converged"))
            .and_then(Json::as_u64),
        Some(1),
        "stats must count the degradation once (the hit is not a recompute)"
    );
    let text = client.metrics().unwrap();
    assert!(
        text.contains(r#"se_degraded_orders_total{reason="not_converged"} 1"#),
        "prometheus exposition missing the degraded counter:\n{text}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// An expired deadline aborts a *running* spectral solve at an iteration
/// boundary (the trace records `budget_abort` on the aborted span) and the
/// ladder still returns a valid RCM permutation with reason `deadline`.
/// The seeded [`sites::BUDGET_DEADLINE`] site expires the request's budget
/// once the multilevel hierarchy is built, so the abort lands mid-solve
/// however fast the host is; the real deadline is far away.
#[test]
fn expired_deadline_aborts_mid_solve_and_degrades() {
    let faults = FaultPlane::seeded(7);
    faults.arm_times(sites::BUDGET_DEADLINE, 1);
    let handle = serve(Config {
        cache_budget_bytes: 0, // force the compute path
        faults: faults.clone(),
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Large enough for a multilevel hierarchy, so the budget expires
    // between coarsening and the coarsest solve.
    let g = meshgen::grid2d(60, 60);
    let mut req = chaco_request(&g, se_order::Algorithm::Spectral);
    req.timeout_ms = Some(60_000);
    req.trace = true;
    let r = client.order(req).unwrap();
    assert_eq!(r.alg, "RCM");
    assert_eq!(r.degraded.as_deref(), Some("deadline"));
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    let trace = r.trace.as_deref().expect("traced request");
    assert!(
        trace.contains(r#""budget_abort":1"#),
        "the aborted span must record the budget abort: {trace}"
    );
    assert!(
        trace.contains(r#""rung":3"#),
        "the ladder must record which rung answered: {trace}"
    );
    assert_eq!(faults.fired(sites::BUDGET_DEADLINE), 1);

    let stats = client.stats().unwrap();
    let aborts = stats.get("budget_aborts").expect("budget_aborts table");
    let total: u64 = match aborts {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("budget_aborts must be a keyed table, got {other:?}"),
    };
    assert!(total >= 1, "an abort stage must be counted");
    let text = client.metrics().unwrap();
    assert!(
        text.contains("se_budget_aborts_total{stage="),
        "prometheus exposition missing the abort counter:\n{text}"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// CANCEL reaches into a solve that is already *running*: the shared
/// budget's cancel flag aborts it at the next iteration boundary (counted
/// in `budget_aborts`) instead of letting it compute to completion, and
/// the submitter gets the fatal cancellation error.
#[test]
fn cancel_aborts_a_running_solve_at_an_iteration_boundary() {
    let handle = serve(Config {
        cache_budget_bytes: 0,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();

    let order_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let g = meshgen::grid2d(150, 150);
        let mut req = chaco_request(&g, se_order::Algorithm::Spectral);
        req.id = Some(9);
        client.order(req)
    });
    // Wait until the worker has started computing — the cache-miss counter
    // ticks right before the solve begins — so the cancel provably reaches
    // a *running* solve, not one still queued (a queued job is dropped
    // before it computes and would never count a budget abort).
    let mut control = Client::connect(addr).unwrap();
    let t0 = std::time::Instant::now();
    loop {
        let stats = control.stats().unwrap();
        if stats.get("cache_misses").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the order never reached the solver"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Inside the solve now (it runs for seconds); flip its budget.
    std::thread::sleep(Duration::from_millis(100));
    assert!(control.cancel(9).unwrap(), "id 9 must still be in flight");

    let err = order_thread.join().unwrap().expect_err("must be cancelled");
    match err {
        ClientError::Server(e) => {
            assert!(!e.retriable, "a cancellation is final");
            assert!(e.error.contains("cancelled"), "got: {}", e.error);
        }
        other => panic!("expected the cancellation error, got {other}"),
    }

    let stats = control.stats().unwrap();
    assert_eq!(stats.get("cancelled").and_then(Json::as_u64), Some(1));
    // The running solve observed the flipped budget mid-flight — it did
    // not run to completion.
    let aborts = stats.get("budget_aborts").expect("budget_aborts table");
    let total: u64 = match aborts {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("budget_aborts must be a keyed table, got {other:?}"),
    };
    assert!(total >= 1, "the cancel must abort the solver cooperatively");

    control.shutdown().unwrap();
    handle.join();
}

/// With the fault plane disabled and no deadline pressure, permutations
/// are bit-identical across solver thread counts and identical to the
/// direct library path — the robustness layer is a strict no-op.
#[test]
fn disabled_fault_plane_is_bit_identical_across_thread_counts() {
    let handle = serve(Config {
        cache_budget_bytes: 0, // recompute every request
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::annulus_tri(8, 40, 0xA11CE);

    let reference = se_order::order(&g, se_order::Algorithm::Spectral).unwrap();
    for threads in [1usize, 2, 4] {
        let mut req = chaco_request(&g, se_order::Algorithm::Spectral);
        req.threads = Some(threads);
        let r = client.order(req).unwrap();
        assert!(r.degraded.is_none(), "healthy solve must not degrade");
        assert_eq!(r.alg, "SPECTRAL");
        assert_eq!(
            r.perm.as_ref().unwrap().order(),
            reference.perm.order(),
            "threads={threads} must be bit-identical to the library path"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

/// A client over its token-bucket rate gets the fatal `rate limited` error
/// (and the counter ticks), but the connection survives and serves again
/// once the bucket replenishes.
#[test]
fn rate_limited_client_gets_fatal_error_then_recovers() {
    let handle = serve(Config {
        rate_limit: Some((2, 1)), // 2 tokens/s, burst 1
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(8, 8);

    let first = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!first.cache_hit);

    // The burst is spent; the immediate follow-up is refused.
    let err = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert!(!e.retriable, "rate limiting is fatal, not retriable");
            assert!(e.error.contains("rate limited"), "got: {}", e.error);
        }
        other => panic!("expected the rate-limit error, got {other}"),
    }

    // Same connection, after the bucket replenishes (2/s ⇒ ~500 ms/token).
    std::thread::sleep(Duration::from_millis(700));
    let again = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(again.cache_hit, "the earlier result is still cached");

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rate_limited").and_then(Json::as_u64), Some(1));
    let text = client.metrics().unwrap();
    assert!(text.contains("se_rate_limited_total 1"), "got:\n{text}");

    client.shutdown().unwrap();
    handle.join();
}

/// On a protocol-v2 connection the `rate limited` answer carries the
/// request's id, so a pipelined client fails that one slot and keeps every
/// other answer instead of losing the whole pipeline.
#[test]
fn rate_limited_pipelined_order_fails_only_its_own_slot() {
    let handle = serve(Config {
        rate_limit: Some((1, 1)), // 1 token/s, burst 1
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(8, 8);

    let reqs = (0..4)
        .map(|_| chaco_request(&g, se_order::Algorithm::Rcm))
        .collect();
    let results = client
        .order_many(reqs, 4, None)
        .expect("a rate-limited slot must not fail the pipeline");
    assert_eq!(results.len(), 4);
    let mut limited = 0;
    for slot in &results {
        match slot {
            Ok(r) => assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n()),
            Err(e) => {
                assert!(!e.retriable, "rate limiting is fatal, not retriable");
                assert!(e.error.contains("rate limited"), "got: {}", e.error);
                limited += 1;
            }
        }
    }
    assert!(
        limited >= 1,
        "the burst of 1 cannot cover 4 pipelined orders"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// A slow-loris client — half a request line, then silence — is
/// disconnected by the socket I/O deadline instead of pinning its session
/// thread forever, and the server keeps serving everyone else.
#[test]
fn stalling_client_is_disconnected_by_the_io_timeout() {
    let handle = serve(Config {
        io_timeout_ms: Some(200),
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();

    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half an ORDER line, never finished.
    stalled.write_all(br#"{"cmd":"ORDER","alg":"#).unwrap();
    stalled.flush().unwrap();
    let mut buf = [0u8; 64];
    // The server must give up on us and close; EOF (or a reset) arrives
    // well before our own 10 s guard.
    let t0 = std::time::Instant::now();
    match stalled.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected disconnection, got {n} bytes"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "disconnect must come from the io timeout, not our read guard"
    );

    // The daemon is unharmed.
    let mut client = Client::connect(addr).unwrap();
    let g = meshgen::grid2d(7, 7);
    let r = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    client.shutdown().unwrap();
    handle.join();
}

/// A worker panic (injected at the `service.worker.panic` site) costs only
/// the one request: the submitter gets a fatal error, no lock stays
/// poisoned, and the very next request on the same daemon succeeds.
#[test]
fn worker_panic_fails_one_request_and_the_daemon_recovers() {
    let faults = FaultPlane::seeded(7);
    faults.arm_times(sites::WORKER_PANIC, 1);
    let handle = serve(Config {
        faults,
        workers: 1, // the panicking worker is the only worker
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(9, 9);

    let err = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert!(e.error.contains("worker dropped"), "got: {}", e.error)
        }
        other => panic!("expected the dropped-request error, got {other}"),
    }

    // Same daemon, same (sole) worker thread: fully functional.
    let r = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!r.cache_hit, "the panicked request must not have cached");
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("orders").and_then(Json::as_u64), Some(2));

    client.shutdown().unwrap();
    handle.join();
}

/// A job that panics still drops its pending CANCEL registration: once the
/// submitter has its `worker dropped` error, cancelling the same id finds
/// nothing pending.
#[test]
fn worker_panic_unregisters_the_pending_id() {
    let faults = FaultPlane::seeded(7);
    faults.arm_times(sites::WORKER_PANIC, 1);
    let handle = serve(Config {
        faults,
        workers: 1,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(9, 9);

    let mut req = chaco_request(&g, se_order::Algorithm::Rcm);
    req.id = Some(21);
    let err = client.order(req).unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert!(e.error.contains("worker dropped"), "got: {}", e.error)
        }
        other => panic!("expected the dropped-request error, got {other}"),
    }
    assert!(
        !client.cancel(21).unwrap(),
        "a panicked job must not stay pending"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// The client retry helper rides out transient `server busy` rejections:
/// with the connection limit exhausted, a direct order fails retriable,
/// while `order_with_retry` keeps re-dialling until a slot frees up.
#[test]
fn order_with_retry_rides_out_busy_rejections() {
    let handle = serve(Config {
        max_conns: 1,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();
    let g = meshgen::grid2d(10, 10);

    // Occupy the single slot...
    let hog = Client::connect(addr).unwrap();
    // ...so a plain connect+order is rejected as busy (retriable).
    let direct = Client::connect(addr)
        .and_then(|mut c| c.order(chaco_request(&g, se_order::Algorithm::Rcm)));
    match direct.expect_err("the slot is taken") {
        ClientError::Server(e) => assert!(e.retriable, "busy must be retriable"),
        ClientError::Io(_) => {} // the reject can also surface as EOF/reset
        other => panic!("expected busy/io, got {other}"),
    }

    // Free the slot mid-retry.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(hog);
    });
    let policy = se_service::RetryPolicy {
        max_attempts: 20,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(200),
        seed: 3,
    };
    let r = se_service::order_with_retry(
        addr,
        se_service::FrameMode::Binary,
        &chaco_request(&g, se_order::Algorithm::Rcm),
        &policy,
    )
    .expect("retry must eventually land");
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    release.join().unwrap();

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// Forced `tracemin.outer.converge` non-convergence (with Lanczos also
/// armed so the rung-2 retry fails too): `alg:"tracemin"` walks the ladder
/// to a *bit-exact* RCM permutation with `degraded_reason` on the wire —
/// the new eigensolver sits on exactly the same degradation path as the
/// multilevel one.
#[test]
fn forced_tracemin_non_convergence_degrades_to_a_valid_rcm_permutation() {
    let faults = FaultPlane::seeded(42);
    faults.arm(sites::TRACEMIN_OUTER_CONVERGE);
    faults.arm(sites::LANCZOS_CONVERGE); // kill rung 2 as well
    let handle = serve(Config {
        faults,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::grid2d(14, 11);

    let r = client
        .order(chaco_request(&g, se_order::Algorithm::TraceMin))
        .unwrap();
    assert_eq!(r.alg, "RCM", "rung 3 must have produced the result");
    assert_eq!(r.degraded.as_deref(), Some("not_converged"));
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());

    // The degraded permutation is exactly what a direct RCM run produces.
    let direct = se_order::order(&g, se_order::Algorithm::Rcm).unwrap();
    assert_eq!(r.perm.as_ref().unwrap().order(), direct.perm.order());

    client.shutdown().unwrap();
    handle.join();
}

/// A mid-solve deadline aborts a running tracemin solve at an outer
/// iteration boundary (the trace records `budget_abort` on the `tracemin`
/// span) and the ladder still answers with a valid RCM permutation, reason
/// `deadline`. The seeded [`sites::BUDGET_DEADLINE`] site expires the
/// request's budget at the first outer-loop check, so the abort lands
/// mid-solve however fast the host is; the real deadline is far away.
#[test]
fn tracemin_deadline_walks_the_ladder_to_rcm() {
    let faults = FaultPlane::seeded(7);
    faults.arm_times(sites::BUDGET_DEADLINE, 1);
    let handle = serve(Config {
        cache_budget_bytes: 0, // force the compute path
        faults: faults.clone(),
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let g = meshgen::grid2d(60, 60);
    let mut req = chaco_request(&g, se_order::Algorithm::TraceMin);
    req.timeout_ms = Some(60_000);
    req.trace = true;
    let r = client.order(req).unwrap();
    assert_eq!(r.alg, "RCM");
    assert_eq!(r.degraded.as_deref(), Some("deadline"));
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    let trace = r.trace.as_deref().expect("traced request");
    let tracemin_attrs = trace
        .split(r#""name":"tracemin","#)
        .nth(1)
        .and_then(|span| span.split(r#""children""#).next())
        .unwrap_or_else(|| panic!("the tracemin span must be recorded: {trace}"));
    assert!(
        tracemin_attrs.contains(r#""budget_abort":1"#),
        "the tracemin span must record the budget abort: {trace}"
    );
    assert!(
        trace.contains(r#""rung":3"#),
        "the ladder must record which rung answered: {trace}"
    );
    assert_eq!(faults.fired(sites::BUDGET_DEADLINE), 1);

    let stats = client.stats().unwrap();
    let aborts = stats.get("budget_aborts").expect("budget_aborts table");
    let total: u64 = match aborts {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("budget_aborts must be a keyed table, got {other:?}"),
    };
    assert!(total >= 1, "an abort stage must be counted");

    client.shutdown().unwrap();
    handle.join();
}

/// CANCEL reaches into a *running* tracemin solve: the shared budget's
/// cancel flag aborts it at the next iteration boundary instead of letting
/// the block iteration run to completion.
#[test]
fn cancel_aborts_a_running_tracemin_solve_at_an_iteration_boundary() {
    let handle = serve(Config {
        cache_budget_bytes: 0,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();

    let order_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let g = meshgen::grid2d(150, 150);
        let mut req = chaco_request(&g, se_order::Algorithm::TraceMin);
        req.id = Some(9);
        client.order(req)
    });
    // Wait until the worker is provably computing (the cache-miss counter
    // ticks right before the solve starts), then cancel mid-flight.
    let mut control = Client::connect(addr).unwrap();
    let t0 = std::time::Instant::now();
    loop {
        let stats = control.stats().unwrap();
        if stats.get("cache_misses").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the order never reached the solver"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(control.cancel(9).unwrap(), "id 9 must still be in flight");

    let err = order_thread.join().unwrap().expect_err("must be cancelled");
    match err {
        ClientError::Server(e) => {
            assert!(!e.retriable, "a cancellation is final");
            assert!(e.error.contains("cancelled"), "got: {}", e.error);
        }
        other => panic!("expected the cancellation error, got {other}"),
    }

    let stats = control.stats().unwrap();
    assert_eq!(stats.get("cancelled").and_then(Json::as_u64), Some(1));
    let aborts = stats.get("budget_aborts").expect("budget_aborts table");
    let total: u64 = match aborts {
        Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("budget_aborts must be a keyed table, got {other:?}"),
    };
    assert!(total >= 1, "the cancel must abort the solver cooperatively");

    control.shutdown().unwrap();
    handle.join();
}

/// The wire acceptance contract for `alg:"tracemin"`: a valid permutation
/// whose envelope is within 5% of `alg:"spectral"`, bit-identical across
/// solver thread counts — and, because of that, served from one cache entry
/// regardless of the requested thread count.
#[test]
fn tracemin_over_the_wire_is_thread_invariant_and_close_to_spectral() {
    let handle = serve(Config::default()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let g = meshgen::standin("CAN1072").unwrap().pattern;

    let spectral = client
        .order(chaco_request(&g, se_order::Algorithm::Spectral))
        .unwrap();
    let mut req = chaco_request(&g, se_order::Algorithm::TraceMin);
    req.threads = Some(1);
    let base = client.order(req).unwrap();
    assert_eq!(base.alg, "TRACEMIN");
    assert!(base.degraded.is_none(), "healthy solve must not degrade");
    assert!(!base.cache_hit);
    assert_valid_perm(base.perm.as_ref().unwrap().order(), g.n());

    let (e_tm, e_sp) = (
        base.stats.envelope_size as f64,
        spectral.stats.envelope_size as f64,
    );
    assert!(
        (e_tm - e_sp).abs() <= 0.05 * e_sp,
        "tracemin envelope {e_tm} vs spectral {e_sp}"
    );

    // The thread count is not part of the cache key: requests at other
    // thread counts are *hits* on the threads=1 entry, which is only sound
    // because the permutation is bit-identical at every thread count.
    for threads in [2usize, 4, 8] {
        let mut req = chaco_request(&g, se_order::Algorithm::TraceMin);
        req.threads = Some(threads);
        let r = client.order(req).unwrap();
        assert!(r.cache_hit, "threads={threads} must hit the cached entry");
        assert_eq!(r.perm, base.perm, "threads={threads} diverged");
    }

    client.shutdown().unwrap();
    handle.join();
}
