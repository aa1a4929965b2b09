//! Parallel scaling report — serial vs pooled multilevel Fiedler
//! solver, plus the TraceMin-Fiedler comparator.
//!
//! Orders the largest stand-ins with the SPECTRAL algorithm at 1/2/4/max
//! solver threads (`max` = the host's core count, deduplicated against the
//! fixed counts), verifies every run produces the **bit-identical**
//! permutation, and writes machine-readable measurements to
//! `BENCH_parallel.json`. Each run injects its own [`TaskPool`] so the
//! scheduler's own counters — regions submitted, chunks executed, steals,
//! worker parks — land in the report next to the timing they explain.
//!
//! A second sweep runs `alg:"tracemin"` over the same matrices and thread
//! counts: its per-column inner MINRES solves are coarse concurrent regions
//! (a very different load shape from the multilevel solver's fine-grained
//! chunked reductions), so its steal/park tallies characterize how the
//! chunk-claiming scheduler absorbs irregular region-level work. The
//! `tracemin` block records outer iterations, summed inner MINRES
//! iterations, wall-µs and the pool tallies per thread count.
//!
//! Honest by construction: the host core count is recorded in the output,
//! since speedup is bounded by physical cores (on a 1-core container every
//! thread count measures the same serial work plus pool overhead, and the
//! steal/park tallies show how much scheduling actually happened).
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
    println!("==== Parallel multilevel Fiedler: serial vs chunk-claiming pool ====");
    println!("host cores: {cores}\n");

    let mut blocks = Vec::new();
    for name in MATRICES {
        let s = meshgen::standin(name).expect("known stand-in");
        let g = &s.pattern;
        println!("--- {} (n = {}, nnz = {}) ---", s.name, g.n(), s.nnz());
        println!(
            "  {:>7} {:>10} {:>8} {:>9} {:>8} {:>8} {:>10}",
            "threads", "best (s)", "speedup", "regions", "steals", "parks", "identical"
        );

        let mut rows = Vec::new();
        let mut serial_perm: Option<Vec<usize>> = None;
        let mut serial_secs = 0.0f64;
        for &t in &threads {
            let pool = TaskPool::new(t);
            let solver = SolverOpts::with_pool(pool.clone());
            let mut best = f64::INFINITY;
            let mut perm = Vec::new();
            let mut tallies = PoolStats::default();
            for _ in 0..REPS {
                let before = pool.stats();
                let t0 = Instant::now();
                let o = order_with(g, Algorithm::Spectral, &solver).expect("ordering runs");
                let secs = t0.elapsed().as_secs_f64();
                let after = pool.stats();
                if secs < best {
                    best = secs;
                    tallies = PoolStats {
                        regions: after.regions - before.regions,
                        chunks: after.chunks - before.chunks,
                        steals: after.steals - before.steals,
                        parks: after.parks - before.parks,
                    };
                }
                perm = o.perm.order().to_vec();
            }
            let identical = match &serial_perm {
                None => {
                    serial_perm = Some(perm);
                    serial_secs = best;
                    true
                }
                Some(p) => *p == perm,
            };
            assert!(
                identical,
                "{name}: {t}-thread permutation diverged from serial"
            );
            let speedup = serial_secs / best;
            println!(
                "  {:>7} {:>10.4} {:>8.2} {:>9} {:>8} {:>8} {:>10}",
                t, best, speedup, tallies.regions, tallies.steals, tallies.parks, identical
            );
            rows.push(format!(
                "{{\"threads\":{t},\"seconds\":{best:.6},\"speedup\":{speedup:.3},\
                 \"regions\":{},\"chunks\":{},\"steals\":{},\"parks\":{},\
                 \"identical\":{identical}}}",
                tallies.regions, tallies.chunks, tallies.steals, tallies.parks
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

    // --- TraceMin-Fiedler: the coarse-region comparator -------------------
    let mut tm_blocks = Vec::new();
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
            "  {:>7} {:>12} {:>8} {:>7} {:>9} {:>8} {:>8} {:>10}",
            "threads", "best (µs)", "speedup", "outer", "inner-it", "steals", "parks", "identical"
        );

        let mut rows = Vec::new();
        let mut serial_perm: Option<Vec<usize>> = None;
        let mut serial_micros = 0u128;
        for &t in &threads {
            let pool = TaskPool::new(t);
            let trace = Tracer::enabled();
            let solver = SolverOpts {
                trace: trace.clone(),
                ..SolverOpts::with_pool(pool.clone())
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
                        parks: after.parks - before.parks,
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
                "  {:>7} {:>12} {:>8.2} {:>7} {:>9} {:>8} {:>8} {:>10}",
                t, best, speedup, outer, inner, tallies.steals, tallies.parks, identical
            );
            rows.push(format!(
                "{{\"threads\":{t},\"wall_micros\":{best},\"speedup\":{speedup:.3},\
                 \"outer_iters\":{outer},\"inner_matvecs\":{inner},\
                 \"regions\":{},\"chunks\":{},\"steals\":{},\"parks\":{},\
                 \"identical\":{identical}}}",
                tallies.regions, tallies.chunks, tallies.steals, tallies.parks
            ));
        }
        tm_blocks.push(format!(
            "{{\"matrix\":\"{}\",\"n\":{},\"nnz\":{},\"runs\":[{}]}}",
            s.name,
            g.n(),
            s.nnz(),
            rows.join(",")
        ));
        println!();
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"cores\": {cores},\n  \
         \"note\": \"speedup is serial_seconds / best_seconds per matrix; bounded by \
         physical cores — on a 1-core host all thread counts measure the same serial \
         work, and `identical` shows results are bit-reproducible regardless. \
         regions/chunks/steals/parks are the chunk-claiming pool's own counters for \
         the best rep (steals = chunks a pool worker ran for a region the solving \
         thread submitted, the solving thread ran the rest; parks = \
         times a worker slept for lack of work). the tracemin block sweeps \
         alg:tracemin over the same grid: outer_iters/inner_matvecs are summed over \
         connected components and must not vary with thread count\",\n  \
         \"results\": [\n    {}\n  ],\n  \
         \"tracemin\": [\n    {}\n  ]\n}}\n",
        blocks.join(",\n    "),
        tm_blocks.join(",\n    ")
    );
    let path = "BENCH_parallel.json";
    std::fs::write(path, &out).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}
