//! Parallel scaling report for TraceMin-Fiedler, the one solver that runs
//! on more than one thread.
//!
//! Orders the largest stand-ins with `alg:"tracemin"` at 1/2/4/max solver
//! threads (`max` = the host's core count, deduplicated against the fixed
//! counts), verifies every run produces the **bit-identical** permutation,
//! and writes machine-readable measurements to `BENCH_parallel.json`. Each
//! run injects its own [`TaskPool`] so the pool's counters — regions run
//! on several threads, tasks, tasks a helper ran — land in the report next
//! to the timing they explain. TraceMin's per-column inner MINRES solves
//! are the tasks of one region per outer iteration; the report records
//! outer iterations, summed inner MINRES iterations, wall-µs and the pool
//! tallies per thread count.
//!
//! The multilevel solver behind SPECTRAL has no sweep here: it runs on the
//! calling thread, so every thread count would measure the same serial
//! solve.
//!
//! Honest by construction: the output is stamped with the host core count,
//! the build profile and the git commit, since speedup is bounded by
//! physical cores (on a 1-core container every thread count measures the
//! same serial work plus thread start-up, and the steal tallies show how
//! much work the helpers actually took).
//!
//! Run with `cargo run -p se-bench --release --bin parallel_report`.

use se_order::{order_with, Algorithm, SolverOpts};
use se_trace::{SpanNode, Tracer};
use sparsemat::par::{available_threads, PoolStats, TaskPool};
use std::fmt::Write as _;
use std::time::Instant;

const MATRICES: [&str; 3] = ["BARTH4", "SHUTTLE", "SKIRT"];
const REPS: usize = 2;

/// Sum an attribute over every span named `name` in the tree (a stand-in
/// with several connected components runs one solve — one span — each).
fn sum_attr(node: &SpanNode, name: &str, attr: &str) -> f64 {
    let own = if node.name == name {
        node.attr(attr).unwrap_or(0.0)
    } else {
        0.0
    };
    own + node
        .children
        .iter()
        .map(|c| sum_attr(c, name, attr))
        .sum::<f64>()
}

fn main() {
    let cores = available_threads();
    // 1/2/4/max, with `max` deduplicated against the fixed counts so a
    // 4-core (or 1-core) host doesn't measure the same pool twice.
    let mut threads: Vec<usize> = vec![1, 2, 4];
    if !threads.contains(&cores) {
        threads.push(cores);
    }
    println!("==== TraceMin-Fiedler: serial vs scoped inner-solve fan-out ====");
    println!("host cores: {cores}\n");

    let mut blocks = Vec::new();
    for name in MATRICES {
        let s = meshgen::standin(name).expect("known stand-in");
        let g = &s.pattern;
        println!(
            "--- {} · tracemin (n = {}, nnz = {}) ---",
            s.name,
            g.n(),
            s.nnz()
        );
        println!(
            "  {:>7} {:>12} {:>8} {:>7} {:>9} {:>8} {:>10}",
            "threads", "best (µs)", "speedup", "outer", "inner-it", "steals", "identical"
        );

        let mut rows = Vec::new();
        let mut serial_perm: Option<Vec<usize>> = None;
        let mut serial_micros = 0u128;
        for &t in &threads {
            let pool = TaskPool::new(t);
            let trace = Tracer::enabled();
            let solver = SolverOpts {
                trace: trace.clone(),
                pool: Some(pool.clone()),
                ..SolverOpts::default()
            };
            let mut best = u128::MAX;
            let mut perm = Vec::new();
            let mut tallies = PoolStats::default();
            let (mut outer, mut inner) = (0u64, 0u64);
            for _ in 0..REPS {
                let before = pool.stats();
                let t0 = Instant::now();
                let o = order_with(g, Algorithm::TraceMin, &solver).expect("ordering runs");
                let micros = t0.elapsed().as_micros();
                let after = pool.stats();
                // The solver's own spans carry the iteration counters; they
                // are deterministic, so any rep's values are THE values.
                let root = trace.finish().expect("traced run");
                outer = sum_attr(&root, "tracemin", "iterations") as u64;
                inner = sum_attr(&root, "tracemin", "matvecs") as u64;
                if micros < best {
                    best = micros;
                    tallies = PoolStats {
                        regions: after.regions - before.regions,
                        chunks: after.chunks - before.chunks,
                        steals: after.steals - before.steals,
                        ..PoolStats::default()
                    };
                }
                perm = o.perm.order().to_vec();
            }
            let identical = match &serial_perm {
                None => {
                    serial_perm = Some(perm);
                    serial_micros = best;
                    true
                }
                Some(p) => *p == perm,
            };
            assert!(
                identical,
                "{name}: {t}-thread tracemin permutation diverged from serial"
            );
            let speedup = serial_micros as f64 / best as f64;
            println!(
                "  {:>7} {:>12} {:>8.2} {:>7} {:>9} {:>8} {:>10}",
                t, best, speedup, outer, inner, tallies.steals, identical
            );
            rows.push(format!(
                "{{\"threads\":{t},\"wall_micros\":{best},\"speedup\":{speedup:.3},\
                 \"outer_iters\":{outer},\"inner_matvecs\":{inner},\
                 \"regions\":{},\"chunks\":{},\"steals\":{},\
                 \"identical\":{identical}}}",
                tallies.regions, tallies.chunks, tallies.steals
            ));
        }
        blocks.push(format!(
            "{{\"matrix\":\"{}\",\"n\":{},\"nnz\":{},\"runs\":[{}]}}",
            s.name,
            g.n(),
            s.nnz(),
            rows.join(",")
        ));
        println!();
    }

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"cores\": {cores},\n  \"profile\": \"{profile}\",\n  \
         \"commit\": \"{}\",\n  \
         \"note\": \"alg:tracemin per matrix and solver thread count. speedup is \
         serial wall_micros / best wall_micros; bounded by physical cores — on a 1-core \
         host all thread counts measure the same serial work, and `identical` shows \
         results are bit-reproducible regardless. outer_iters/inner_matvecs are summed \
         over connected components and must not vary with thread count. \
         regions/chunks/steals are the pool's own counters for the best rep \
         (regions = outer steps whose inner solves ran on several threads, chunks = \
         inner solves they ran, steals = inner solves a helper thread ran, the \
         solving thread ran the rest). the multilevel solver behind alg:spectral runs on \
         the calling thread and has no sweep\",\n  \
         \"tracemin\": [\n    {}\n  ]\n}}\n",
        git_commit(),
        blocks.join(",\n    ")
    );
    let path = "BENCH_parallel.json";
    std::fs::write(path, &out).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}

/// The checked-out commit (`git rev-parse HEAD`); `unknown` outside a git
/// checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
