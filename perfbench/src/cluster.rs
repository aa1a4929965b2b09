//! Starting and stopping `spectral-orderd` in-process for one workload:
//! one node, or a two-node mesh whose readiness is awaited on events
//! (`Engine::mesh_warmed` and both members `alive` in STATS) instead of
//! fixed sleeps.

use crate::wire::Conn;
use se_service::json::Json;
use se_service::{serve, Config, ServerHandle};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Longest any readiness wait may take before set-up is declared failed.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// Readiness poll period: far below the set-up times it could distort.
const POLL: Duration = Duration::from_micros(100);

/// The running node(s) of one set-up.
pub struct Cluster {
    pub nodes: Vec<ServerHandle>,
}

impl Cluster {
    /// One node with `cfg` on an ephemeral loopback port.
    pub fn single(cfg: Config) -> std::io::Result<Cluster> {
        Ok(Cluster {
            nodes: vec![serve(cfg)?],
        })
    }

    /// Two mesh members named `names`, built from `base`, each listing the
    /// other. Node 1 starts first and finishes its (failing) JOIN towards
    /// node 0 before node 0 exists, so the start-up exchange takes the same
    /// path every time; node 0 then joins node 1.
    pub fn mesh_pair(base: &Config, names: &[String; 2]) -> std::io::Result<Cluster> {
        let cfg = |me: usize| Config {
            addr: names[me].clone(),
            peers: vec![names[1 - me].clone()],
            ..base.clone()
        };
        let second = serve(cfg(1))?;
        wait_for(|| second.engine().mesh_warmed(), "node 1 warmed")?;
        let first = serve(cfg(0))?;
        let cluster = Cluster {
            nodes: vec![first, second],
        };
        wait_for(
            || {
                cluster.nodes.iter().all(|n| {
                    n.engine().mesh_warmed() && all_members_alive(&n.engine().stats_snapshot())
                })
            },
            "both members alive",
        )?;
        Ok(cluster)
    }

    pub fn addr(&self, node: usize) -> SocketAddr {
        self.nodes[node].local_addr()
    }

    /// The index of the node owning `key` (mesh) or 0 (single node).
    pub fn owner(&self, key: u64) -> usize {
        let owners: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].engine().mesh().is_none_or(|m| m.owns(key)))
            .collect();
        assert_eq!(owners.len(), 1, "replicas = 1 gives every key one owner");
        owners[0]
    }

    /// One STATS snapshot per node, read in-process.
    pub fn stats(&self) -> Vec<Json> {
        self.nodes
            .iter()
            .map(|n| n.engine().stats_snapshot())
            .collect()
    }

    /// SHUTDOWN over the wire, node by node, and joins every server.
    pub fn stop(self) -> std::io::Result<()> {
        for node in self.nodes {
            Conn::open(node.local_addr(), false)?.roundtrip(b"{\"cmd\":\"SHUTDOWN\"}\n")?;
            node.join();
        }
        Ok(())
    }
}

/// First port of the fixed loopback address pairs tried for the mesh.
const MESH_PORT_BASE: u16 = 47_311;

/// The two mesh member names: the first fixed loopback port pair that is
/// free. Fixed names give a fixed hash ring, so a seed fixes which node
/// owns which key (the ring hashes names, ports included); only if those
/// ports are taken does a later pair — and another ring — get used.
pub fn mesh_names() -> std::io::Result<[String; 2]> {
    let mut last = None;
    for pair in 0..16u16 {
        let ports = [MESH_PORT_BASE + 2 * pair, MESH_PORT_BASE + 2 * pair + 1];
        let bound: std::io::Result<Vec<TcpListener>> = ports
            .iter()
            .map(|p| TcpListener::bind(("127.0.0.1", *p)))
            .collect();
        match bound {
            Ok(_) => return Ok(ports.map(|p| format!("127.0.0.1:{p}"))),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one pair was tried"))
}

fn all_members_alive(stats: &Json) -> bool {
    stats
        .get("mesh")
        .and_then(|m| m.get("members"))
        .and_then(Json::as_arr)
        .is_some_and(|ms| {
            !ms.is_empty()
                && ms
                    .iter()
                    .all(|m| m.get("state").and_then(Json::as_str) == Some("alive"))
        })
}

/// Polls every [`POLL`] until `ready` holds; errors after [`READY_TIMEOUT`].
fn wait_for(mut ready: impl FnMut() -> bool, what: &str) -> std::io::Result<()> {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() > READY_TIMEOUT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("set-up never saw: {what}"),
            ));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Reads an integer counter from a STATS snapshot (0 when absent).
pub fn counter(stats: &Json, name: &str) -> f64 {
    stats.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}
