//! Reactor-transport acceptance tests: protocol v2 pipelining on the
//! poll-based event loop.
//!
//! Covers what pipelining on one connection must provide: out-of-order
//! completion of id-tagged responses on one connection, unsolicited PROGRESS frames interleaved with pending
//! ORDERs, CANCEL of a pipelined in-flight id on the same connection,
//! and many idle keep-alive connections served by a bounded thread count.

use se_service::proto::{
    decode_tagged_response, encode_request, MatrixFormat, MatrixSource, OrderRequest,
    ProgressFrame, Request, Response,
};
use se_service::{serve, Client, Config, FrameMode};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;

fn chaco_request(g: &SymmetricPattern, alg: se_order::Algorithm, id: Option<u64>) -> OrderRequest {
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
        id,
        progress: false,
        hop: false,
    }
}

fn start(cfg: Config) -> (se_service::ServerHandle, std::net::SocketAddr) {
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.local_addr();
    (handle, addr)
}

/// A raw protocol-v2 connection: line-level access so tests can observe
/// the actual arrival order of responses (the [`Client`] re-orders).
struct RawV2 {
    writer: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
    line: String,
}

impl RawV2 {
    fn connect(addr: std::net::SocketAddr) -> RawV2 {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut conn = RawV2 {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
        };
        conn.send(&Request::Hello {
            frames: FrameMode::Ndjson,
            proto: 2,
        });
        match conn.recv() {
            (None, Response::Hello { proto: 2, .. }) => conn,
            other => panic!("expected a v2 HELLO ack, got {other:?}"),
        }
    }

    fn send(&mut self, req: &Request) {
        writeln!(self.writer, "{}", encode_request(req)).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> (Option<u64>, Response) {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        decode_tagged_response(self.line.trim()).unwrap()
    }

    /// Receives until a non-PROGRESS response arrives, counting the
    /// progress frames skipped on the way.
    fn recv_skipping_progress(&mut self, progress_seen: &mut usize) -> (Option<u64>, Response) {
        loop {
            match self.recv() {
                (_, Response::Progress(_)) => *progress_seen += 1,
                other => return other,
            }
        }
    }
}

/// A fast cache hit pipelined behind a slow uncached solve on the same
/// connection must complete first — the id tag, not arrival order,
/// correlates responses.
#[test]
fn pipelined_cache_hit_overtakes_slow_order() {
    let (handle, addr) = start(Config {
        workers: 2,
        ..Config::default()
    });
    let fast = meshgen::grid2d(10, 10);
    // Big enough that the spectral solve takes hundreds of ms even on a
    // fast machine — the cache hit's overtaking window must be generous.
    let slow = meshgen::annulus_tri(150, 400, 0xACE); // n = 60k

    // Warm the cache so the fast request is a pure lookup.
    let warm = Client::connect(addr)
        .unwrap()
        .order(chaco_request(&fast, se_order::Algorithm::Rcm, None))
        .unwrap();
    assert!(!warm.cache_hit);

    let mut conn = RawV2::connect(addr);
    conn.send(&Request::Order(chaco_request(
        &slow,
        se_order::Algorithm::Spectral,
        Some(1),
    )));
    conn.send(&Request::Order(chaco_request(
        &fast,
        se_order::Algorithm::Rcm,
        Some(2),
    )));

    let (first_id, first) = conn.recv();
    let (second_id, second) = conn.recv();
    assert_eq!(first_id, Some(2), "the cache hit must overtake: {first:?}");
    assert_eq!(second_id, Some(1));
    match (&first, &second) {
        (Response::Order(hit), Response::Order(solved)) => {
            assert!(hit.cache_hit);
            assert_eq!(hit.perm, warm.perm);
            assert!(!solved.cache_hit);
            assert_eq!(solved.n, slow.n());
        }
        other => panic!("expected two ORDER responses, got {other:?}"),
    }

    let mut control = Client::connect(addr).unwrap();
    control.shutdown().unwrap();
    handle.join();
}

/// An ORDER opting into progress streams PROGRESS frames while another
/// pipelined ORDER completes on the same connection; the frames carry the
/// opted-in id and a monotone percent, and the server counts them.
#[test]
fn progress_frames_interleave_with_pipelined_orders() {
    let (handle, addr) = start(Config {
        workers: 2,
        ..Config::default()
    });
    let slow = meshgen::annulus_tri(16, 75, 0xBEAD);
    let fast = meshgen::grid2d(9, 9);

    let mut client = Client::connect(addr).unwrap();
    let reqs = vec![
        chaco_request(&slow, se_order::Algorithm::Spectral, Some(10)),
        chaco_request(&fast, se_order::Algorithm::Rcm, Some(11)),
    ];
    let mut frames: Vec<ProgressFrame> = Vec::new();
    let mut on_progress = |p: &ProgressFrame| frames.push(p.clone());
    let results = client.order_many(reqs, 2, Some(&mut on_progress)).unwrap();

    assert_eq!(results.len(), 2);
    let slow_resp = results[0].as_ref().expect("slow order succeeds");
    let fast_resp = results[1].as_ref().expect("fast order succeeds");
    assert_eq!(slow_resp.n, slow.n());
    assert_eq!(fast_resp.n, fast.n());

    assert!(!frames.is_empty(), "an uncached spectral solve must report");
    let mut last = 0.0_f64;
    for f in &frames {
        assert_eq!(f.id, 10, "only the opted-in order may stream progress");
        assert!(!f.stage.is_empty());
        assert!((0.0..=100.0).contains(&f.percent), "got {}", f.percent);
        assert!(f.percent >= last, "progress must be monotone");
        last = f.percent;
    }
    assert!(
        handle.metrics().progress_frames.load(Ordering::Relaxed) >= frames.len() as u64,
        "se_progress_frames_total must count every frame"
    );
    let text = client.metrics().unwrap();
    assert!(text.contains("se_progress_frames_total"), "missing counter");

    client.shutdown().unwrap();
    handle.join();
}

/// CANCEL of a pipelined in-flight id on the SAME connection: the ack
/// releases immediately (out of order, past the still-pending ORDERs) and
/// the cancelled queued order errors instead of computing.
#[test]
fn cancel_of_pipelined_inflight_id_on_same_connection() {
    let (handle, addr) = start(Config {
        workers: 1, // the blocker pins the only worker, so id 7 stays queued
        ..Config::default()
    });
    // The blocker must pin the worker until the CANCEL line is read and
    // acked, so it has to be genuinely slow, not merely uncached.
    let blocker = meshgen::annulus_tri(100, 300, 0xCAB); // n = 30k
    let victim = meshgen::grid2d(20, 20);

    let mut conn = RawV2::connect(addr);
    conn.send(&Request::Order(chaco_request(
        &blocker,
        se_order::Algorithm::Spectral,
        Some(6),
    )));
    conn.send(&Request::Order(chaco_request(
        &victim,
        se_order::Algorithm::Rcm,
        Some(7),
    )));
    conn.send(&Request::Cancel { id: 7 });

    // The inline CANCEL ack must not wait behind the two pending ORDERs.
    let mut progress_seen = 0;
    match conn.recv_skipping_progress(&mut progress_seen) {
        (None, Response::CancelOk { pending }) => {
            assert!(pending, "id 7 was queued, so the cancel must land")
        }
        other => panic!("expected the CANCEL ack first, got {other:?}"),
    }

    let mut by_id = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, resp) = conn.recv_skipping_progress(&mut progress_seen);
        by_id.insert(id.expect("ORDER responses are tagged"), resp);
    }
    match by_id.remove(&6) {
        Some(Response::Order(r)) => assert_eq!(r.n, blocker.n()),
        other => panic!("expected id 6 to complete, got {other:?}"),
    }
    match by_id.remove(&7) {
        Some(Response::Error(e)) => {
            assert!(e.error.contains("cancelled"), "got: {}", e.error)
        }
        other => panic!("expected id 7 cancelled, got {other:?}"),
    }

    let mut control = Client::connect(addr).unwrap();
    control.shutdown().unwrap();
    handle.join();
}

/// 1024 idle keep-alive connections are served without 1024 threads: the
/// reactor multiplexes them onto its event loops, and the
/// `se_open_connections` gauge tracks them.
#[test]
fn thousand_idle_connections_bounded_threads() {
    let (handle, addr) = start(Config {
        workers: 1,
        max_conns: 1100,
        ..Config::default()
    });

    const IDLE: usize = 1024;
    let mut conns = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => conns.push(s),
            Err(e) => panic!("connect {i} failed: {e}"),
        }
    }

    // Accepts are asynchronous; wait for the gauge to observe all of them.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let open = handle.metrics().open_connections.load(Ordering::Relaxed);
        if open >= IDLE as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {open}/{IDLE} connections accepted in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // One more connection still gets service while the 1024 sit idle.
    let mut client = Client::connect(addr).unwrap();
    let g = meshgen::grid2d(8, 8);
    let r = client
        .order(chaco_request(&g, se_order::Algorithm::Rcm, None))
        .unwrap();
    assert_eq!(r.n, g.n());

    // The whole process — reactor loops, workers, test harness — must be
    // nowhere near thread-per-connection territory.
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let threads: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status");
    assert!(
        threads < 128,
        "{IDLE} idle connections must not cost {threads} threads"
    );

    drop(conns);
    client.shutdown().unwrap();
    handle.join();
}
