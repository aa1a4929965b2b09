//! Peer-mesh chaos tests: dead peers, injected partitions, and dropped
//! replication pushes against real loopback nodes.
//!
//! The mesh's contract under failure is the same graceful-degradation
//! promise the single node makes: a member with a question it cannot
//! forward answers it *itself* — possibly degraded down the spectral →
//! Lanczos-only → RCM ladder — and never turns a peer failure into a
//! hard error. Partitions are driven deterministically through the
//! seeded [`FaultPlane`] ([`sites::PEER_PARTITION`],
//! [`sites::PEER_REPLICATE`]); the killed-peer test uses a real
//! SHUTDOWN so the refused TCP connection exercises the genuine retry
//! path.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest};
use se_service::{serve, sites, Client, Config, FaultPlane, ServerHandle};
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

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

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

/// Probes grid graphs until one's cache key — for the algorithm the test
/// will actually request, since the key hashes the algorithm too — is
/// owned by `node`.
fn graph_owned_by(handle: &ServerHandle, node: &str, alg: se_order::Algorithm) -> SymmetricPattern {
    let mesh = handle.engine().mesh().expect("node is in a mesh");
    for w in 8..200 {
        let g = meshgen::grid2d(w, 7);
        let key = se_service::cache::pattern_key(&g, alg, false);
        if mesh.ring().owner(key) == node {
            return g;
        }
    }
    panic!("no probe graph owned by {node}");
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Kill the owner of a key (real SHUTDOWN, so its port refuses), then ask
/// a survivor: the departing node's LEAVE announcement took it off the
/// ring, so the survivor now *owns* the key outright and computes it
/// locally — no forward attempt, no error line. (Fail-fast forwarding at
/// an unreachable peer that did NOT get to say LEAVE is covered by the
/// partition test below and the membership suite's SIGKILL test.)
#[test]
fn killed_owner_is_answered_locally_by_survivors() {
    let addrs = reserve_addrs(3);
    let handles = start_mesh(&addrs, 1, |_, _| {});
    // A key the doomed node owns whose post-LEAVE owner is the survivor
    // we will query — otherwise the query node would (correctly) forward
    // to the other survivor instead of answering itself.
    let ring = handles[0].engine().mesh().unwrap().ring();
    let g = (8..400)
        .map(|w| meshgen::grid2d(w, 7))
        .find(|g| {
            let key = se_service::cache::pattern_key(g, se_order::Algorithm::Rcm, false);
            ring.owner(key) == addrs[2]
                && ring.owner_excluding(key, &addrs[2]) == Some(addrs[0].as_str())
        })
        .expect("a probe graph owned by the victim with the queried survivor next");

    // Take the owner down for real.
    Client::connect(handles[2].local_addr())
        .unwrap()
        .shutdown()
        .expect("owner drains cleanly");

    let mut survivor = Client::connect(handles[0].local_addr()).unwrap();
    let r = survivor
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .expect("a dead peer must never surface as an error");
    assert!(!r.cache_hit, "computed locally as the fallback");
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    assert!(
        r.degraded.is_none(),
        "a healthy local solve is not degraded"
    );

    // LEAVE removed the dead owner from the live ring, so the survivor
    // served the key as its own — it never even tried to forward.
    let s = survivor.stats().unwrap();
    assert_eq!(counter(&s, "peer_forwards"), 0);
    assert_eq!(counter(&s, "peer_forward_failures"), 0);
    let mesh0 = handles[0].engine().mesh().unwrap();
    assert!(
        !mesh0.ring().contains(&addrs[2]),
        "a graceful departure reshapes the ring"
    );

    // The locally computed fallback entry serves later asks as plain hits.
    let again = survivor
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.perm, r.perm);
}

/// An injected partition ([`sites::PEER_PARTITION`]) fails every forward
/// attempt before it dials; the behavior must be exactly the dead-peer
/// path — answer locally — and deterministic in the seed.
#[test]
fn injected_partition_degrades_to_local_compute() {
    let addrs = reserve_addrs(2);
    let faults = FaultPlane::seeded(7);
    faults.arm(sites::PEER_PARTITION);
    let plane = faults.clone();
    let handles = start_mesh(&addrs, 1, |i, cfg| {
        if i == 0 {
            cfg.faults = plane.clone();
        }
    });
    let g = graph_owned_by(&handles[0], &addrs[1], se_order::Algorithm::Rcm);

    let mut c = Client::connect(handles[0].local_addr()).unwrap();
    let r = c
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .expect("a partitioned peer must never surface as an error");
    assert!(!r.cache_hit);
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    assert!(
        faults.fired(sites::PEER_PARTITION) >= 1,
        "the site drove it"
    );

    let s = c.stats().unwrap();
    assert_eq!(counter(&s, "peer_forwards"), 0);
    assert_eq!(counter(&s, "peer_forward_failures"), 1);

    // The unpartitioned peer never saw an ORDER (its only request is
    // this STATS).
    let other = Client::connect(handles[1].local_addr())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(counter(&other, "orders"), 0);
}

/// A resend whose remembered route fails answers locally after exactly
/// one forward round: the route memo's forward fails, and the parse path
/// behind it computes without forwarding a second time. The answer still
/// carries the owner's bits.
#[test]
fn partitioned_route_memo_forward_answers_locally_in_one_round() {
    let addrs = reserve_addrs(2);
    let faults = FaultPlane::seeded(11);
    let plane = faults.clone();
    let handles = start_mesh(&addrs, 1, |i, cfg| {
        if i == 0 {
            cfg.faults = plane.clone();
        }
    });
    let alg = se_order::Algorithm::Rcm;
    let g = graph_owned_by(&handles[0], &addrs[1], alg);
    // A second remote-owned payload the memo never sees, to measure what
    // one forward round fires.
    let other = (8..400)
        .map(|w| meshgen::grid2d(w, 9))
        .find(|h| {
            let key = se_service::cache::pattern_key(h, alg, false);
            handles[0].engine().mesh().unwrap().ring().owner(key) == addrs[1]
        })
        .expect("a second probe graph owned by the peer");

    let mut c = Client::connect(handles[0].local_addr()).unwrap();
    let primed = c.order(chaco_request(&g, alg)).unwrap();
    assert_eq!(counter(&c.stats().unwrap(), "peer_forwards"), 1);

    faults.arm(sites::PEER_PARTITION);
    c.order(chaco_request(&other, alg)).unwrap();
    let one_round = faults.fired(sites::PEER_PARTITION);
    assert!(one_round >= 1, "the parse path's round hit the site");
    let failures = counter(&c.stats().unwrap(), "peer_forward_failures");

    let r = c
        .order(chaco_request(&g, alg))
        .expect("a partitioned peer must never surface as an error");
    assert_eq!(
        faults.fired(sites::PEER_PARTITION),
        2 * one_round,
        "the memo's failed forward is the resend's only round"
    );
    assert!(!r.cache_hit, "computed locally");
    assert_eq!(r.perm, primed.perm, "the owner's bits");
    assert_eq!((r.stats, r.n, r.nnz), (primed.stats, primed.n, primed.nnz));
    let s = c.stats().unwrap();
    assert_eq!(counter(&s, "peer_forwards"), 1);
    assert_eq!(counter(&s, "peer_forward_failures"), failures + 1);
    // The owner saw only the priming ORDER.
    let owner = Client::connect(handles[1].local_addr())
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(counter(&owner, "orders"), 1);
}

/// A peer failure composes with the solver's own degradation ladder: the
/// owner is dead *and* the survivor's eigensolvers are forced to
/// non-convergence, yet the answer is still a valid permutation — RCM,
/// rung 3, marked degraded — exactly the single-node chaos contract.
#[test]
fn dead_peer_plus_solver_faults_walk_the_ladder_not_error() {
    let addrs = reserve_addrs(2);
    let faults = FaultPlane::seeded(42);
    faults.arm(sites::LANCZOS_CONVERGE);
    faults.arm(sites::RQI_CONVERGE);
    let plane = faults.clone();
    let handles = start_mesh(&addrs, 1, |i, cfg| {
        if i == 0 {
            cfg.faults = plane.clone();
        }
    });
    let g = graph_owned_by(&handles[0], &addrs[1], se_order::Algorithm::Spectral);

    Client::connect(handles[1].local_addr())
        .unwrap()
        .shutdown()
        .expect("owner drains cleanly");

    let mut c = Client::connect(handles[0].local_addr()).unwrap();
    let r = c
        .order(chaco_request(&g, se_order::Algorithm::Spectral))
        .expect("degrade, never error");
    assert_eq!(r.alg, "RCM", "rung 3 produced the fallback answer");
    assert_eq!(r.degraded.as_deref(), Some("not_converged"));
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    // The owner's LEAVE already reshaped the ring, so the survivor owned
    // the key and walked its own ladder without a forward attempt.
    assert_eq!(counter(&c.stats().unwrap(), "peer_forward_failures"), 0);
}

/// [`sites::PEER_REPLICATE`] drops replication pushes before the wire:
/// the owner's response is unaffected (replication is best-effort), the
/// failure is counted, and the successor never receives the entry — so
/// its next ask for the key forwards instead of hitting locally.
#[test]
fn dropped_replication_is_counted_and_leaves_the_successor_empty() {
    let addrs = reserve_addrs(2);
    let faults = FaultPlane::seeded(3);
    faults.arm(sites::PEER_REPLICATE);
    let plane = faults.clone();
    let handles = start_mesh(&addrs, 2, |i, cfg| {
        if i == 0 {
            cfg.faults = plane.clone();
        }
    });
    // Both nodes are in every key's replica set (2 replicas, 2 nodes);
    // pick a key node 0 *owns* so it is the replication source.
    let g = graph_owned_by(&handles[0], &addrs[0], se_order::Algorithm::Rcm);

    let mut owner = Client::connect(handles[0].local_addr()).unwrap();
    let r = owner
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .expect("a dropped push must not affect the response");
    assert!(!r.cache_hit);
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    assert!(faults.fired(sites::PEER_REPLICATE) >= 1);

    let s = owner.stats().unwrap();
    assert_eq!(counter(&s, "peer_replications"), 0);
    assert_eq!(counter(&s, "peer_replication_failures"), 1);
    // The dropped push parked as a hint toward the successor, waiting
    // for a heartbeat round that this suite deliberately never runs.
    assert_eq!(handles[0].engine().mesh().unwrap().hints_queued(), 1);

    // The successor never got the entry: it misses, and (being a replica
    // itself) computes locally rather than forwarding.
    let mut succ = Client::connect(handles[1].local_addr()).unwrap();
    let miss = succ
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert!(!miss.cache_hit, "the dropped entry must not have arrived");
    assert_eq!(miss.perm, r.perm, "recomputed bit-identically");
    assert_eq!(counter(&succ.stats().unwrap(), "peer_entries_received"), 0);
}
