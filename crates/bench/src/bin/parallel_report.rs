//! Parallel scaling report for TraceMin-Fiedler, the one solver that runs
//! on more than one thread: its per-column inner MINRES solves are the
//! tasks of one region per outer step.
//!
//! Orders the largest stand-ins with `alg:"tracemin"` at 1/2/4/max solver
//! threads (`max` = the host's core count, deduplicated), asserts that
//! every run gives the serial permutation bit for bit, and writes
//! `BENCH_parallel.json`, stamped with the host core count, build profile
//! and commit (speedup is bounded by physical cores). Each cell runs
//! [`REPS`] times and reports the median wall time with the minimum and
//! maximum beside it, since one run on a shared host can be off by a third,
//! plus outer/inner iterations and the median rep's [`TaskPool`] counters.
//! The multilevel solver behind SPECTRAL runs on the calling thread and has
//! no sweep.
//!
//! Run with `cargo run -p se-bench --release --bin parallel_report`.

use se_bench::num;
use se_order::{order_with, Algorithm, SolverOpts};
use se_service::json::Json;
use se_trace::{SpanNode, Tracer};
use sparsemat::par::{available_threads, TaskPool};
use std::time::Instant;

const MATRICES: [&str; 3] = ["BARTH4", "SHUTTLE", "SKIRT"];
const REPS: usize = 5;

/// Sum an attribute over every span named `name` in the tree (a stand-in
/// with several connected components runs one solve — one span — each).
fn sum_attr(node: &SpanNode, name: &str, attr: &str) -> u64 {
    let own = node.attr(attr).filter(|_| node.name == name).unwrap_or(0.0) as u64;
    own + node
        .children
        .iter()
        .map(|c| sum_attr(c, name, attr))
        .sum::<u64>()
}

fn main() {
    let cores = available_threads();
    // 1/2/4/max, with `max` deduplicated against the fixed counts so a
    // 4-core (or 1-core) host doesn't measure the same pool twice.
    let mut threads: Vec<usize> = vec![1, 2, 4];
    if !threads.contains(&cores) {
        threads.push(cores);
    }
    println!("TraceMin-Fiedler on {cores} cores, median (min–max) of {REPS} reps per cell");
    let mut blocks = Vec::new();
    for name in MATRICES {
        let s = meshgen::standin(name).expect("known stand-in");
        let g = &s.pattern;
        let mut rows = Vec::new();
        let (mut serial_perm, mut serial_micros) = (None, None);
        for &t in &threads {
            let pool = TaskPool::new(t);
            let trace = Tracer::enabled();
            let solver = SolverOpts {
                trace: trace.clone(),
                pool: Some(pool.clone()),
                ..SolverOpts::default()
            };
            // Per rep: wall µs and the pool's regions/chunks/steals.
            let mut reps: Vec<(u64, [u64; 3])> = Vec::with_capacity(REPS);
            let (mut outer, mut inner) = (0, 0);
            for _ in 0..REPS {
                let before = pool.stats();
                let t0 = Instant::now();
                let o = order_with(g, Algorithm::TraceMin, &solver).expect("ordering runs");
                let micros = t0.elapsed().as_micros() as u64;
                let after = pool.stats();
                // The solver's own spans carry the iteration counters; they
                // are deterministic, so any rep's values are THE values.
                let root = trace.finish().expect("traced run");
                outer = sum_attr(&root, "tracemin", "iterations");
                inner = sum_attr(&root, "tracemin", "matvecs");
                let tallies = [
                    after.regions - before.regions,
                    after.chunks - before.chunks,
                    after.steals - before.steals,
                ];
                reps.push((micros, tallies));
                let perm = o.perm.order().to_vec();
                let first = serial_perm.get_or_insert_with(|| perm.clone());
                assert!(*first == perm, "{name}: {t}-thread permutation diverged");
            }
            reps.sort_by_key(|&(micros, _)| micros);
            let (median, [regions, chunks, steals]) = reps[REPS / 2];
            let (min, max) = (reps[0].0, reps[REPS - 1].0);
            let base = *serial_micros.get_or_insert(median);
            let speedup = (1e3 * base as f64 / median as f64).round() / 1e3;
            println!(
                "  {name} {t} threads: {median} µs ({min}–{max}), speedup {speedup:.2}, \
                 {outer} outer / {inner} inner its, {steals} steals"
            );
            let counts = [
                ("threads", t as u64),
                ("wall_micros_median", median),
                ("wall_micros_min", min),
                ("wall_micros_max", max),
                ("outer_iters", outer),
                ("inner_matvecs", inner),
                ("regions", regions),
                ("chunks", chunks),
                ("steals", steals),
            ];
            let mut row: Vec<(&str, Json)> = counts.map(|(k, v)| (k, num(v))).to_vec();
            row.insert(4, ("speedup", Json::Num(speedup)));
            rows.push(Json::obj(row));
        }
        blocks.push(Json::obj(vec![
            ("matrix", Json::Str(s.name.into())),
            ("n", num(g.n() as u64)),
            ("nnz", num(s.nnz() as u64)),
            ("runs", Json::Arr(rows)),
        ]));
    }
    let note = format!(
        "alg:tracemin per matrix and solver thread count, {REPS} reps per cell; every rep \
         gave the serial permutation (asserted). wall_micros_median/min/max are over the \
         reps, speedup is the 1-thread median over this median. outer_iters/inner_matvecs \
         are summed over connected components. regions/chunks/steals are the pool's \
         counters for the median rep: outer steps whose inner solves ran on several \
         threads, the inner solves they ran, and those a helper thread ran"
    );
    let mut fields = se_bench::stamp();
    fields.extend([("note", Json::Str(note)), ("tracemin", Json::Arr(blocks))]);
    se_bench::write_report("BENCH_parallel.json", fields).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}
