//! Theorem 2.2 report: eigenvalue lower bounds on the minimum envelope
//! size/work versus the envelopes the algorithms actually achieve.
//!
//! `Esize_min ≥ λ₂(n²−1)/(2√6·Δ)` and `Ework_min ≥ λ₂(n²−1)/(12·Δ)`.
//! The achieved envelope of *any* ordering must sit above the bound; how
//! far above indicates how much room the heuristics leave.

use se_eigen::multilevel::fiedler;
use se_eigen::SolverOpts;
use sparsemat::envelope::theorem_2_2_lower_bounds;
use spectral_env::report::{compare_orderings, group_digits};
use spectral_env::Algorithm;

fn main() {
    println!("==== Theorem 2.2 lower bounds vs achieved envelopes ====\n");
    println!(
        "  {:<9} {:>10} {:>5} {:>14} {:>14} {:>7} | {:>14} {:>7}",
        "Matrix", "lambda2", "maxD", "Esize bound", "best Esize", "ratio", "Ework bound", "ratio"
    );
    let cap = se_bench::max_n().unwrap_or(20_000);
    for name in [
        "POW9", "CAN1072", "BLKHOLE", "DWT2680", "SSTMODEL", "BARTH4", "SHUTTLE",
    ] {
        let s = meshgen::standin(name).expect("standin exists");
        if s.pattern.n() > cap {
            println!("  {name}: skipped (SE_MAX_N)");
            continue;
        }
        // The bounds assume a connected graph; our mesh stand-ins are.
        let fr = match fiedler(&s.pattern, &SolverOpts::default()) {
            Ok(f) => f,
            Err(e) => {
                println!("  {name}: fiedler failed — {e}");
                continue;
            }
        };
        let n = s.pattern.n();
        let delta = s.pattern.max_degree();
        let (esize_lb, ework_lb) = theorem_2_2_lower_bounds(fr.lambda2, n, delta);
        let c = compare_orderings(&s.pattern, &Algorithm::paper_set()).expect("orderings succeed");
        let best = c.best();
        let esize = best.stats.envelope_size as f64;
        let ework = best.stats.envelope_work as f64;
        println!(
            "  {:<9} {:>10.3e} {:>5} {:>14} {:>14} {:>7.1} | {:>14} {:>7.1}",
            name,
            fr.lambda2,
            delta,
            group_digits(esize_lb as u64),
            group_digits(best.stats.envelope_size),
            esize / esize_lb.max(1.0),
            group_digits(ework_lb as u64),
            ework / ework_lb.max(1.0),
        );
        assert!(
            esize + 1e-9 >= esize_lb,
            "{name}: achieved envelope below the theoretical lower bound!"
        );
    }
    println!("\nEvery achieved envelope must exceed its bound (asserted).");
    println!("Ratios of O(1..100) mean the bound is informative for these meshes.");
}
