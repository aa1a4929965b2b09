//! Mesh acceptance tests: several real `spectral-orderd` nodes on loopback
//! ports sharing one consistent-hash keyspace.
//!
//! This is ISSUE 7's acceptance demo in executable form: a 3-node mesh
//! serves a remote-owned key bit-identically to a single node (forwarded
//! on the first miss, relayed from the owner's cache afterwards);
//! replication gives ring successors local hits; STATS/METRICS surface
//! the mesh; and a draining node ships its spill files to the keys' new
//! owner so the entries survive its shutdown.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest};
use se_service::{serve, Client, Config, ServerHandle};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::net::TcpListener;

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

/// Reserves `n` distinct loopback addresses: bind ephemeral listeners,
/// record their ports, drop the listeners just before the nodes re-bind
/// them for real. Every mesh member needs the full address list *before*
/// any member starts, so ephemeral self-assignment cannot work here.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Starts one node per address, each configured with the *other*
/// addresses as peers (the node's own bound address joins the ring
/// automatically).
fn start_mesh(
    addrs: &[String],
    replicas: usize,
    mut tweak: impl FnMut(usize, &mut Config),
) -> Vec<ServerHandle> {
    let handles = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.clone())
                .collect();
            let mut cfg = Config {
                addr: addr.clone(),
                peers,
                replicas,
                // This suite exercises the synchronous mesh paths with
                // exact counter assertions; park the background healing
                // (heartbeats, hint replay, anti-entropy) far beyond any
                // test's lifetime so it cannot perturb the counts. The
                // membership suite owns the background machinery.
                peer_heartbeat_ms: 600_000,
                antientropy_every: 0,
                ..Config::default()
            };
            tweak(i, &mut cfg);
            serve(cfg).expect("bind reserved mesh port")
        })
        .collect::<Vec<_>>();
    // Wait out every node's startup JOIN + WARM pull: a WARM response
    // landing mid-test would deliver entries outside the synchronous
    // paths this suite pins down with exact counts.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handles.iter().all(|h| h.engine().mesh_warmed()) {
        assert!(
            std::time::Instant::now() < deadline,
            "mesh startup warm-up did not finish"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    handles
}

/// Probes grid graphs until one's cache key is owned by `node` (all ring
/// views agree, so any handle's mesh works as the oracle).
fn graph_owned_by(handle: &ServerHandle, node: &str) -> (SymmetricPattern, u64) {
    let mesh = handle.engine().mesh().expect("node is in a mesh");
    for w in 8..200 {
        let g = meshgen::grid2d(w, 7);
        let key = se_service::cache::pattern_key(&g, se_order::Algorithm::Rcm, false);
        if mesh.ring().owner(key) == node {
            return (g, key);
        }
    }
    panic!("no probe graph owned by {node}");
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Cache lookups counted as misses, summed over the shards.
fn shard_misses(stats: &Json) -> u64 {
    stats
        .get("cache")
        .and_then(|c| c.get("shards"))
        .and_then(Json::as_arr)
        .expect("per-shard table")
        .iter()
        .map(|s| {
            s.get("misses")
                .and_then(Json::as_u64)
                .expect("shard misses")
        })
        .sum()
}

/// ORDERs `alg` recorded in the latency histogram.
fn latency_count(stats: &Json, alg: &str) -> u64 {
    stats
        .get("latency_us_by_algorithm")
        .and_then(|t| t.get(alg))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The headline acceptance test: a key owned by a remote node is served
/// through any member bit-identically to a standalone server — forwarded
/// and computed at the owner on the first ask, relayed from the owner's
/// cache afterwards — and STATS surfaces both the mesh shape and the
/// forward counters.
#[test]
fn three_node_mesh_serves_remote_owned_keys_bit_identically() {
    let addrs = reserve_addrs(3);
    let handles = start_mesh(&addrs, 1, |_, _| {});
    let (g, key) = graph_owned_by(&handles[0], &addrs[2]);
    assert!(!handles[0].engine().mesh().unwrap().owns(key));

    // The ground truth: the same request against a plain single node.
    let reference = {
        let solo = serve(Config::default()).expect("bind ephemeral port");
        let mut c = Client::connect(solo.local_addr()).unwrap();
        c.order(chaco_request(&g, se_order::Algorithm::Rcm))
            .unwrap()
    };
    assert_valid_perm(reference.perm.as_ref().unwrap().order(), g.n());

    // Ask a non-owner: the request forwards to the owner, which computes.
    let mut c0 = Client::connect(handles[0].local_addr()).unwrap();
    let first = c0
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!first.cache_hit, "the owner computed this fresh");
    assert_eq!(first.perm, reference.perm, "forwarded ≠ standalone");
    assert_eq!(first.stats, reference.stats);
    assert_eq!(first.alg, reference.alg);
    assert_eq!((first.n, first.nnz), (reference.n, reference.nnz));

    // Ask the *other* non-owner: forwards again, now a cache hit at the
    // owner, relayed hit-marker and all.
    let mut c1 = Client::connect(handles[1].local_addr()).unwrap();
    let relayed = c1
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(relayed.cache_hit, "the owner's cache answered");
    assert_eq!(relayed.perm, reference.perm);
    assert_eq!(relayed.stats, reference.stats);

    // Ask the owner directly: a plain local hit, no mesh involved.
    let mut c2 = Client::connect(handles[2].local_addr()).unwrap();
    let local = c2
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(local.cache_hit);
    assert_eq!(local.perm, reference.perm);

    // STATS: the forwarders counted their hop, the owner forwarded
    // nothing, and every node reports the mesh shape.
    let s0 = c0.stats().unwrap();
    assert_eq!(counter(&s0, "peer_forwards"), 1);
    assert_eq!(counter(&s0, "peer_forward_failures"), 0);
    let s2 = c2.stats().unwrap();
    assert_eq!(counter(&s2, "peer_forwards"), 0);
    let mesh = s0.get("mesh").expect("mesh object in STATS");
    assert_eq!(mesh.get("peers").and_then(Json::as_u64), Some(3));
    assert_eq!(mesh.get("replicas").and_then(Json::as_u64), Some(1));
    assert_eq!(
        mesh.get("self").and_then(Json::as_str),
        Some(addrs[0].as_str())
    );

    // METRICS: the mesh gauges and forward counters are exposed.
    let text = c0.metrics().unwrap();
    assert!(text.contains("se_peer_mesh_size 3"));
    assert!(text.contains("se_peer_replication_factor 1"));
    assert!(text.contains("se_peer_forwards_total 1"));
}

/// A non-owner parses and keys a payload only the first time it forwards
/// it: its route memo sends every exact resend straight to the owner. The
/// first ask counts one shard miss, the next `K` count `K` forwards and no
/// miss, every forwarded ORDER lands in the non-owner's latency histogram,
/// and every answer is the owner-local one bit for bit.
#[test]
fn exact_resends_to_a_non_owner_forward_without_a_local_lookup() {
    const K: u64 = 4;
    let addrs = reserve_addrs(2);
    let handles = start_mesh(&addrs, 1, |_, _| {});
    let (g, _) = graph_owned_by(&handles[0], &addrs[1]);
    let req = || chaco_request(&g, se_order::Algorithm::Rcm);

    // The ground truth: the owner computes and then answers from its cache.
    let mut owner = Client::connect(handles[1].local_addr()).unwrap();
    owner.order(req()).unwrap();
    let mut reference = owner.order(req()).unwrap();
    assert!(reference.cache_hit);
    reference.micros = 0;

    let mut c = Client::connect(handles[0].local_addr()).unwrap();
    let mut last = c.stats().unwrap();
    for i in 0..=K {
        let mut r = c.order(req()).unwrap();
        r.micros = 0;
        assert_eq!(r, reference, "resend {i} ≠ the owner-local answer");
        let now = c.stats().unwrap();
        let misses = shard_misses(&now) - shard_misses(&last);
        assert_eq!(misses, u64::from(i == 0), "shard misses on resend {i}");
        assert_eq!(
            counter(&now, "peer_forwards") - counter(&last, "peer_forwards"),
            1
        );
        assert_eq!(latency_count(&now, "RCM") - latency_count(&last, "RCM"), 1);
        last = now;
    }
    assert_eq!(counter(&last, "peer_forwards"), K + 1);
    assert_eq!(counter(&last, "peer_forward_failures"), 0);
    assert_eq!(counter(&last, "cache_misses"), 0, "nothing computed here");
}

/// With `--replicas 2` the owner pushes each freshly computed entry to
/// its ring successor, which then answers reads for the key from its own
/// cache — no forward hop — while nodes outside the replica set still
/// relay.
#[test]
fn replication_gives_ring_successors_local_hits() {
    let addrs = reserve_addrs(3);
    let handles = start_mesh(&addrs, 2, |_, _| {});
    let (g, key) = graph_owned_by(&handles[0], &addrs[0]);
    let replica_set: Vec<String> = handles[0]
        .engine()
        .mesh()
        .unwrap()
        .ring()
        .replicas(key, 2)
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(replica_set[0], addrs[0]);
    let successor = replica_set[1].clone();
    let successor_idx = addrs.iter().position(|a| *a == successor).unwrap();
    let outside_idx = (0..3)
        .find(|i| addrs[*i] != addrs[0] && addrs[*i] != successor)
        .unwrap();

    // Compute at the owner; the entry is pushed to the successor inline.
    let mut owner = Client::connect(handles[0].local_addr()).unwrap();
    let computed = owner
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!computed.cache_hit);
    let owner_stats = owner.stats().unwrap();
    assert_eq!(counter(&owner_stats, "peer_replications"), 1);
    assert_eq!(counter(&owner_stats, "peer_replication_failures"), 0);

    // The successor answers from its own cache: a hit with zero forwards.
    let mut succ = Client::connect(handles[successor_idx].local_addr()).unwrap();
    let from_replica = succ
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(from_replica.cache_hit, "replica must hit locally");
    assert_eq!(from_replica.perm, computed.perm);
    assert_eq!(from_replica.stats, computed.stats);
    let succ_stats = succ.stats().unwrap();
    assert_eq!(counter(&succ_stats, "peer_entries_received"), 1);
    assert_eq!(counter(&succ_stats, "peer_forwards"), 0);

    // A node outside the replica set still forwards and relays the hit.
    let mut outside = Client::connect(handles[outside_idx].local_addr()).unwrap();
    let relayed = outside
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(relayed.cache_hit);
    assert_eq!(relayed.perm, computed.perm);
    assert_eq!(counter(&outside.stats().unwrap(), "peer_forwards"), 1);
}

/// A draining node ships its spill files to the keys' owner on the ring
/// without itself before acking SHUTDOWN, so cached work survives a
/// rolling restart: the surviving node answers the drained node's key as
/// a local cache hit.
#[test]
fn shutdown_drain_hands_spill_files_to_the_successor() {
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("se-mesh-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
    let addrs = reserve_addrs(2);
    let dirs = [temp_dir("drain-0"), temp_dir("drain-1")];
    let handles = start_mesh(&addrs, 1, |i, cfg| {
        cfg.cache_dir = Some(dirs[i].clone());
    });
    let (g, _) = graph_owned_by(&handles[0], &addrs[0]);

    let mut owner = Client::connect(handles[0].local_addr()).unwrap();
    let computed = owner
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!computed.cache_hit);

    // SHUTDOWN acks only after the drain — and the drain's handoff — ran.
    owner.shutdown().expect("clean drain");

    let mut survivor = Client::connect(handles[1].local_addr()).unwrap();
    let inherited = survivor
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(inherited.cache_hit, "handed-off entry must hit");
    assert_eq!(inherited.perm, computed.perm);
    assert_eq!(inherited.stats, computed.stats);
    assert_eq!(inherited.degraded, computed.degraded);
    let s = survivor.stats().unwrap();
    assert_eq!(counter(&s, "peer_entries_received"), 1);

    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// REPLICATE is peer-to-peer only: a replicated entry is served as an
/// authoritative answer, so pushes are accepted solely from source IPs
/// the configured peers resolve to — a plain client (or a non-mesh node)
/// gets a fatal refusal and nothing is stored.
#[test]
fn replicate_is_refused_from_non_peer_sources() {
    // A mesh member whose peers live on another segment: our loopback
    // connection is not a peer source, however well-formed the bytes.
    let meshed = serve(Config {
        peers: vec!["10.255.255.1:7878".to_string()],
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(meshed.local_addr()).unwrap();
    let err = c.replicate(b"SOCF-not-even-validated").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("REPLICATE refused"), "got: {msg}");
    assert_eq!(
        counter(&c.stats().unwrap(), "peer_entries_received"),
        0,
        "nothing stored"
    );

    // A node outside any mesh accepts no pushes at all.
    let solo = serve(Config::default()).expect("bind ephemeral port");
    let mut c = Client::connect(solo.local_addr()).unwrap();
    let err = c.replicate(b"SOCF-whatever").unwrap_err();
    assert!(err.to_string().contains("REPLICATE refused"), "got: {err}");
}

/// A mesh member's ring identity is its textual bound address, which its
/// peers must be able to list verbatim — so `--peers` with an unspecified
/// bind address (`0.0.0.0`) is a configuration error, refused at startup
/// instead of joining the ring as a phantom member.
#[test]
fn mesh_refuses_unspecified_bind_address() {
    let err = match serve(Config {
        addr: "0.0.0.0:0".to_string(),
        peers: vec!["127.0.0.1:7878".to_string()],
        ..Config::default()
    }) {
        Err(e) => e,
        Ok(_) => panic!("phantom ring identity must be refused"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("routable"), "got: {err}");
}
