//! Supervariable compression study: ordering the BCSSTK-class multi-DOF
//! stand-ins directly vs through the quotient graph of indistinguishable
//! vertices. Production ordering codes compress first; this report measures
//! what compression buys on each row (time and envelope), and its summary
//! states only ranges over the measured rows.

use se_order::{order, order_compressed_with, Algorithm, SolverOpts};
use std::time::Instant;

fn main() {
    println!("==== Supervariable compression: direct vs quotient ordering ====\n");
    println!(
        "  {:<9} {:>7} {:>6} | {:>12} {:>9} | {:>12} {:>9} {:>7}",
        "Matrix", "n", "ratio", "direct env", "t (s)", "compr. env", "t (s)", "speedup"
    );
    let cap = se_bench::max_n().unwrap_or(50_000);
    // (speedup, compressed envelope / direct envelope) per measured row.
    let mut measured: Vec<(f64, f64)> = Vec::new();
    for name in ["BCSSTK13", "BCSSTK29", "BCSSTK33", "SKIRT", "FLAP"] {
        let s = meshgen::standin(name).expect("standin exists");
        if s.pattern.n() > cap {
            println!("  {name}: skipped (SE_MAX_N)");
            continue;
        }
        for alg in [Algorithm::Rcm, Algorithm::Spectral] {
            let t0 = Instant::now();
            let direct = order(&s.pattern, alg).expect("ordering runs");
            let t_direct = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let (comp, ratio) = order_compressed_with(&s.pattern, alg, &SolverOpts::default())
                .expect("ordering runs");
            let t_comp = t1.elapsed().as_secs_f64();
            let speedup = t_direct / t_comp.max(1e-9);
            let (e_direct, e_comp) = (direct.stats.envelope_size, comp.stats.envelope_size);
            measured.push((speedup, e_comp as f64 / e_direct as f64));
            println!(
                "  {:<9} {:>7} {:>6.2} | {:>12} {:>9.3} | {:>12} {:>9.3} {:>6.1}x  ({})",
                name,
                s.pattern.n(),
                ratio,
                e_direct,
                t_direct,
                e_comp,
                t_comp,
                speedup,
                alg.name(),
            );
        }
        println!();
    }
    if measured.is_empty() {
        println!("No stand-in was measured (SE_MAX_N).");
        return;
    }
    let range = |f: fn(&(f64, f64)) -> f64| {
        measured
            .iter()
            .map(f)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            })
    };
    let (s_lo, s_hi) = range(|m| m.0);
    let (e_lo, e_hi) = range(|m| m.1);
    let same = measured.iter().filter(|m| m.1 == 1.0).count();
    println!(
        "Over {} rows: speedup {s_lo:.1}x-{s_hi:.1}x; compressed / direct envelope \
         {e_lo:.3}-{e_hi:.3}, identical on {same} of {}.",
        measured.len(),
        measured.len()
    );
}
