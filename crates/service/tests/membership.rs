//! Self-healing mesh tests: failure detection, live membership, hinted
//! handoff, anti-entropy warm-up and peer flapping, against real loopback
//! nodes with aggressively small suspicion windows.
//!
//! The contract under churn is the same graceful-degradation promise the
//! static mesh makes — no client-visible fatal error, bit-identical
//! permutations — plus the self-healing additions: a silent member is
//! marked `Suspect` then `Dead` and routed around, a SHUTDOWN announces
//! LEAVE so the range moves immediately, writes toward an unreachable
//! replica park as hints, and a restarted member JOINs, warms its range
//! and has the hints replayed to it.

use se_service::json::Json;
use se_service::proto::{MatrixFormat, MatrixSource, OrderRequest};
use se_service::{serve, Client, Config, ServerHandle};
use sparsemat::io::write_chaco_string;
use sparsemat::pattern::SymmetricPattern;
use std::net::TcpListener;
use std::time::{Duration, Instant};

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

/// Millisecond windows small enough that a whole
/// silence → Suspect → Dead → rejoin cycle fits in a test, but wide
/// enough (≥ several heartbeats) not to flap on a loaded CI runner.
fn fast_detector(cfg: &mut Config) {
    cfg.peer_heartbeat_ms = 100;
    cfg.peer_suspect_after_ms = 400;
    cfg.peer_dead_after_ms = 900;
    cfg.antientropy_every = 4;
}

/// Starts one mesh member with the fast failure detector. `peers` lists
/// every OTHER member's address.
fn start_member(addr: &str, peers: Vec<String>, replicas: usize) -> ServerHandle {
    let mut cfg = Config {
        addr: addr.to_string(),
        peers,
        replicas,
        ..Config::default()
    };
    fast_detector(&mut cfg);
    serve(cfg).expect("bind reserved mesh port")
}

/// Starts every member and returns once each has finished its startup
/// JOIN announcement (`mesh_warmed`), so no startup JOIN is still in
/// flight when a test reshapes the ring — a late one re-admits a member
/// the test has just announced as departed.
fn start_mesh(addrs: &[String], replicas: usize) -> Vec<ServerHandle> {
    let handles: Vec<ServerHandle> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.clone())
                .collect();
            start_member(addr, peers, replicas)
        })
        .collect();
    wait_for(10, "every member's startup JOIN", || {
        handles.iter().all(|h| h.engine().mesh_warmed())
    });
    handles
}

/// Probes grid graphs until one's cache key — for the algorithm the test
/// will actually request — is owned by `node` on the *natural* ring.
fn graph_owned_by(handle: &ServerHandle, node: &str, alg: se_order::Algorithm) -> SymmetricPattern {
    let mesh = handle.engine().mesh().expect("node is in a mesh");
    let ring = mesh.ring();
    for w in 8..200 {
        let g = meshgen::grid2d(w, 7);
        let key = se_service::cache::pattern_key(&g, alg, false);
        if ring.owner(key) == node {
            return g;
        }
    }
    panic!("no probe graph owned by {node}");
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Sum of every `from:to` cell in the STATS `peer_transitions` object.
fn transition_total(stats: &Json) -> u64 {
    match stats.get("peer_transitions") {
        Some(Json::Obj(rows)) => rows.iter().map(|(_, v)| v.as_u64().unwrap_or(0)).sum(),
        _ => 0,
    }
}

/// Polls `probe` (every 25 ms, up to `secs` seconds) until it returns
/// true; panics with `what` otherwise.
fn wait_for(secs: u64, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// PING answers from anyone; JOIN/LEAVE reshape the ring live: after a
/// member announces LEAVE its range belongs to the survivor immediately
/// (no suspicion wait), and a JOIN puts it back.
#[test]
fn ping_join_leave_reshape_the_ring_live() {
    let addrs = reserve_addrs(2);
    let handles = start_mesh(&addrs, 1);

    let mut c = Client::connect(handles[0].local_addr()).unwrap();
    let pong = c.ping("probe").expect("PING is open to anyone");
    assert_eq!(pong, addrs[0], "the pong names the responder");

    // A key node 1 owns while both are on the ring…
    let g = graph_owned_by(&handles[0], &addrs[1], se_order::Algorithm::Rcm);

    // …then announce node 1's departure to node 0 (loopback source
    // passes the member gate): the key moves to node 0 at once.
    c.leave(&addrs[1]).expect("LEAVE from a member source");
    let mesh0 = handles[0].engine().mesh().unwrap();
    assert!(
        !mesh0.ring().contains(&addrs[1]),
        "a departed member leaves the ring immediately"
    );
    let r = c
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .unwrap();
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());
    assert_eq!(
        counter(&c.stats().unwrap(), "peer_forward_failures"),
        0,
        "nothing was forwarded at a dead member"
    );

    // JOIN admits it straight back; the ack teaches the joiner the
    // admitter's member list.
    let members = c.join(&addrs[1]).expect("JOIN re-admits");
    assert!(members.contains(&addrs[0]) && members.contains(&addrs[1]));
    assert!(mesh0.ring().contains(&addrs[1]), "back on the ring");
}

/// A configured member that never starts is exactly a crashed one: the
/// failure detector walks it Alive → Suspect → Dead on real clocks, the
/// transitions are counted, its state is visible in METRICS, and its key
/// range is served by the survivors without a single error line.
#[test]
fn silent_member_goes_suspect_then_dead_and_is_routed_around() {
    let addrs = reserve_addrs(3);
    // Only start nodes 0 and 1; addrs[2] stays a reserved, closed port.
    let peers0 = vec![addrs[1].clone(), addrs[2].clone()];
    let peers1 = vec![addrs[0].clone(), addrs[2].clone()];
    let h0 = start_member(&addrs[0], peers0, 1);
    let _h1 = start_member(&addrs[1], peers1, 1);

    use se_service::membership::PeerState;
    let mesh0 = h0.engine().mesh().unwrap();
    wait_for(10, "the silent member to be suspected", || {
        mesh0.members().state(&addrs[2]) == Some(PeerState::Suspect)
            || mesh0.members().state(&addrs[2]) == Some(PeerState::Dead)
    });
    wait_for(10, "the silent member to be declared dead", || {
        mesh0.members().state(&addrs[2]) == Some(PeerState::Dead)
    });
    // The live peer stayed alive through the same detector.
    assert_eq!(mesh0.members().state(&addrs[1]), Some(PeerState::Alive));

    // Its range is adopted: a key the dead member owns on the natural
    // ring is answered locally, with no forward attempted at it.
    let g = graph_owned_by(&h0, &addrs[2], se_order::Algorithm::Rcm);
    let mut c = Client::connect(h0.local_addr()).unwrap();
    let r = c
        .order(chaco_request(&g, se_order::Algorithm::Rcm))
        .expect("a dead member's range must not error");
    assert_valid_perm(r.perm.as_ref().unwrap().order(), g.n());

    let s = c.stats().unwrap();
    assert!(
        transition_total(&s) >= 2,
        "alive->suspect and suspect->dead were counted"
    );
    let text = c.metrics().unwrap();
    assert!(
        text.contains(&format!(
            "se_peer_state{{peer=\"{}\",state=\"dead\"}} 2",
            addrs[2]
        )),
        "METRICS names the dead peer"
    );
    assert!(text.contains("se_peer_transitions_total{from=\"alive\",to=\"suspect\"}"));
    assert!(text.contains("se_hints_queued"));
}

/// The full acceptance loop against a genuine crash: SIGKILL a member
/// (run as a child `spectral-orderd` process, so there is no LEAVE and
/// no drain), watch the survivors walk it through the suspicion windows
/// and park a replicated write as a hint, then restart it and verify it
/// JOINs, has the hint log replayed to it, warms its range, and serves a
/// key it owned pre-kill as a local cache hit.
#[test]
fn sigkilled_member_rejoins_replays_hints_and_serves_its_old_range_warm() {
    let addrs = reserve_addrs(3);
    // Nodes 0 and 1 in-process (their internals are inspectable); the
    // victim is a real child process we can SIGKILL mid-life.
    let peers0 = vec![addrs[1].clone(), addrs[2].clone()];
    let peers1 = vec![addrs[0].clone(), addrs[2].clone()];
    let handles = [
        start_member(&addrs[0], peers0, 2),
        start_member(&addrs[1], peers1, 2),
    ];
    let spawn_victim = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_spectral-orderd"))
            .args([
                "--addr",
                &addrs[2],
                "--peers",
                &format!("{},{}", addrs[0], addrs[1]),
                "--replicas",
                "2",
                "--peer-heartbeat-ms",
                "100",
                "--peer-suspect-after-ms",
                "400",
                "--peer-dead-after-ms",
                "900",
                "--antientropy-every",
                "4",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn the victim daemon")
    };
    let mut victim = spawn_victim();
    let victim_addr: std::net::SocketAddr = addrs[2].parse().unwrap();
    wait_for(15, "the victim daemon to serve", || {
        Client::connect(victim_addr).is_ok_and(|mut c| c.ping("probe").is_ok())
    });

    // A key the victim owns, computed on it pre-kill: it lands in the
    // victim's cache and replicates to its ring successor.
    let g_pre = graph_owned_by(&handles[0], &addrs[2], se_order::Algorithm::Rcm);
    let pre = Client::connect(victim_addr)
        .unwrap()
        .order(chaco_request(&g_pre, se_order::Algorithm::Rcm))
        .expect("healthy pre-kill order");

    // SIGKILL: no LEAVE, no drain — the survivors only see silence.
    victim.kill().expect("SIGKILL the victim");
    victim.wait().expect("reap the victim");

    use se_service::membership::PeerState;
    let mesh0 = handles[0].engine().mesh().unwrap();
    wait_for(10, "survivors to mark the killed member dead", || {
        mesh0.members().state(&addrs[2]) == Some(PeerState::Dead)
    });
    // A crashed (unlike a departed) member stays on the ring: it is
    // expected back, so writes toward it park as hints.
    assert!(mesh0.ring().contains(&addrs[2]));

    // A write whose natural replica set includes the dead member parks a
    // hint instead of being dropped: order a *different* key the victim
    // owns, on a survivor that now adopts its range.
    // Only the *live owner* replicates (a node that merely computed as a
    // live replica does not spray copies), so probe for a key the dead
    // node owns whose next natural successor — the live owner while it
    // is down — is node 0, where the order will be sent.
    let g_down = {
        let ring = mesh0.ring();
        let mut found = None;
        for w in 8..400 {
            let g = meshgen::grid2d(w, 9);
            let key = se_service::cache::pattern_key(&g, se_order::Algorithm::Rcm, false);
            let natural = ring.replicas(key, 2);
            if natural.first() == Some(&addrs[2].as_str())
                && natural.get(1) == Some(&addrs[0].as_str())
            {
                found = Some(g);
                break;
            }
        }
        found.expect("a probe graph owned by the dead node with node 0 next")
    };
    let mut survivor = Client::connect(handles[0].local_addr()).unwrap();
    let down = survivor
        .order(chaco_request(&g_down, se_order::Algorithm::Rcm))
        .expect("the dead member's range is served by survivors");
    assert_valid_perm(down.perm.as_ref().unwrap().order(), g_down.n());
    // The replica push toward the dead owner parked as a hint on
    // whichever live node computed it.
    wait_for(10, "a hint to park for the dead member", || {
        handles
            .iter()
            .any(|h| h.engine().mesh().unwrap().hints_queued() > 0)
    });

    // Restart node 2 on the same address: it announces JOIN, pulls its
    // range warm, and the survivors replay the parked hints to it.
    let peers2 = vec![addrs[0].clone(), addrs[1].clone()];
    let h2 = start_member(&addrs[2], peers2, 2);
    wait_for(10, "survivors to re-admit the restarted member", || {
        mesh0.members().state(&addrs[2]) == Some(PeerState::Alive)
    });
    wait_for(10, "the hint log to drain", || {
        handles
            .iter()
            .all(|h| h.engine().mesh().unwrap().hints_queued() == 0)
    });
    let replayed: u64 = handles
        .iter()
        .map(|h| {
            counter(
                &Client::connect(h.local_addr()).unwrap().stats().unwrap(),
                "hints_replayed",
            )
        })
        .sum();
    assert!(replayed >= 1, "the parked hint was replayed, not dropped");

    // Keys it owned pre-kill are local cache hits on the rejoined node:
    // the hinted entry and (via warm-up or anti-entropy) the pre-kill
    // entry too.
    let mut rejoined = Client::connect(h2.local_addr()).unwrap();
    wait_for(10, "the hinted key to be warm on the rejoined node", || {
        rejoined
            .order(chaco_request(&g_down, se_order::Algorithm::Rcm))
            .is_ok_and(|r| r.cache_hit)
    });
    let again = rejoined
        .order(chaco_request(&g_down, se_order::Algorithm::Rcm))
        .unwrap();
    assert_eq!(
        again.perm.as_ref().unwrap().order(),
        down.perm.as_ref().unwrap().order(),
        "the replayed entry is bit-identical to the survivor's answer"
    );
    wait_for(
        15,
        "the pre-kill key to be warm again on the rejoined node",
        || {
            rejoined
                .order(chaco_request(&g_pre, se_order::Algorithm::Rcm))
                .is_ok_and(|r| {
                    r.cache_hit
                        && r.perm.as_ref().unwrap().order() == pre.perm.as_ref().unwrap().order()
                })
        },
    );
    Client::connect(h2.local_addr()).unwrap().shutdown().ok();
    h2.join();
}

/// Peer flapping: kill and restart the owner of a hot key in a loop
/// while a client hammers the survivor. Every response must be a valid,
/// bit-identical permutation — never a fatal error — and the survivor's
/// transition counter only grows.
#[test]
fn flapping_owner_under_load_stays_error_free_and_bit_identical() {
    let addrs = reserve_addrs(2);
    let mut handles = start_mesh(&addrs, 1);
    let mut flapper = handles.pop().unwrap();
    let h0 = handles.pop().unwrap();

    // Reference permutations from an isolated single node.
    let solo = serve(Config::default()).unwrap();
    let graphs: Vec<SymmetricPattern> = vec![
        graph_owned_by(&h0, &addrs[0], se_order::Algorithm::Rcm),
        graph_owned_by(&h0, &addrs[1], se_order::Algorithm::Rcm),
        meshgen::grid2d(13, 11),
    ];
    let mut solo_client = Client::connect(solo.local_addr()).unwrap();
    let reference: Vec<Vec<usize>> = graphs
        .iter()
        .map(|g| {
            solo_client
                .order(chaco_request(g, se_order::Algorithm::Rcm))
                .unwrap()
                .perm
                .unwrap()
                .order()
                .to_vec()
        })
        .collect();
    solo_client.shutdown().unwrap();
    solo.join();

    // Client load against the stable node, on its own thread.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = {
        let stop = std::sync::Arc::clone(&stop);
        let addr = h0.local_addr();
        let graphs = graphs.clone();
        std::thread::spawn(move || -> Result<u64, String> {
            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                for (i, g) in graphs.iter().enumerate() {
                    let r = c
                        .order(chaco_request(g, se_order::Algorithm::Rcm))
                        .map_err(|e| format!("client-visible failure on graph {i}: {e}"))?;
                    let perm = r.perm.as_ref().ok_or("missing perm")?.order();
                    let mut seen = vec![false; g.n()];
                    for &v in perm {
                        if v >= g.n() || seen[v] {
                            return Err(format!("graph {i}: not a permutation"));
                        }
                        seen[v] = true;
                    }
                    served += 1;
                }
            }
            Ok(served)
        })
    };

    // Flap the owner: graceful kill, wait for the survivor to notice,
    // restart, wait for readmission — twice.
    use se_service::membership::PeerState;
    let mesh0 = h0.engine().mesh().unwrap();
    let mut transition_marks = vec![transition_total(
        &Client::connect(h0.local_addr()).unwrap().stats().unwrap(),
    )];
    for _ in 0..2 {
        Client::connect(flapper.local_addr())
            .unwrap()
            .shutdown()
            .expect("flapper drains cleanly");
        flapper.join();
        wait_for(10, "the survivor to mark the flapper dead", || {
            mesh0.members().state(&addrs[1]) == Some(PeerState::Dead)
        });
        flapper = start_member(&addrs[1], vec![addrs[0].clone()], 1);
        wait_for(10, "the survivor to re-admit the flapper", || {
            mesh0.members().state(&addrs[1]) == Some(PeerState::Alive)
        });
        transition_marks.push(transition_total(
            &Client::connect(h0.local_addr()).unwrap().stats().unwrap(),
        ));
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let served = load
        .join()
        .expect("load thread must not panic")
        .expect("zero client-visible fatal errors under flapping");
    assert!(served >= 3, "the load loop made progress");

    // The transition counter is monotone and actually moved: each flap
    // records at least the dead + alive edges.
    assert!(
        transition_marks.windows(2).all(|w| w[1] >= w[0]),
        "se_peer_transitions_total never decreases"
    );
    assert!(
        *transition_marks.last().unwrap() >= transition_marks[0] + 4,
        "both flaps were observed by the failure detector"
    );

    // Bit-identity with the single-node reference, after the dust
    // settles.
    let mut c = Client::connect(h0.local_addr()).unwrap();
    for (g, want) in graphs.iter().zip(&reference) {
        let got = c.order(chaco_request(g, se_order::Algorithm::Rcm)).unwrap();
        assert_eq!(
            got.perm.as_ref().unwrap().order(),
            want.as_slice(),
            "mesh answers match the single-node reference bit for bit"
        );
    }
}
