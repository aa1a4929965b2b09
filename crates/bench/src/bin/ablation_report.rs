//! Ablations over the spectral algorithm's design choices:
//!
//! 1. coarsest-graph size of the multilevel scheme (paper §3 uses ~100),
//! 2. smoothing passes after interpolation,
//! 3. Galerkin (edge-weighted) vs unweighted coarse operator,
//! 4. sorting both directions (Algorithm 1 step 3) vs ascending only,
//! 5. local post-refinement: pure SPECTRAL vs the Fiedler–Sloan hybrid vs
//!    plain Sloan (the paper's §4 future work), with GK for scale.

use se_eigen::multilevel::fiedler;
use se_eigen::SolverOpts;
use se_order::spectral::order_by_vector;
use se_order::{order, Algorithm};
use sparsemat::envelope::envelope_size;
use sparsemat::Permutation;
use std::time::Instant;

fn main() {
    let g = meshgen::graded_annulus_tri(6_019, 400, 0.96, 0xAB1A);
    println!(
        "==== Ablations on a BARTH4-class graded airfoil mesh (n = {}, edges = {}) ====\n",
        g.n(),
        g.num_edges()
    );

    // Reference λ₂ from a generous direct Lanczos run.
    let reference = se_eigen::multilevel::fiedler_lanczos(
        &g,
        &se_eigen::lanczos::LanczosOptions {
            max_iter: 2000,
            tol: 1e-12,
            ..Default::default()
        },
    )
    .expect("connected")
    .lambda2;
    println!("reference λ₂ (direct Lanczos): {reference:.6e}\n");

    println!("--- 1. coarsest_size sweep (multilevel §3) ---");
    println!(
        "  {:>6} {:>12} {:>10} {:>12} {:>12}",
        "size", "λ₂", "|Δλ₂|/λ₂", "time (s)", "envelope"
    );
    for size in [25, 50, 100, 200, 400] {
        let opts = SolverOpts {
            coarsest_size: size,
            ..Default::default()
        };
        let t0 = Instant::now();
        let f = fiedler(&g, &opts).expect("connected");
        let secs = t0.elapsed().as_secs_f64();
        let perm = Permutation::from_new_to_old(order_by_vector(&g, &f.vector)).unwrap();
        println!(
            "  {:>6} {:>12.4e} {:>10.2e} {:>12.3} {:>12}",
            size,
            f.lambda2,
            (f.lambda2 - reference).abs() / reference,
            secs,
            envelope_size(&g, &perm)
        );
    }

    println!("\n--- 2. smoothing passes after interpolation ---");
    println!(
        "  {:>6} {:>12} {:>10} {:>12}",
        "steps", "λ₂", "|Δλ₂|/λ₂", "time (s)"
    );
    for steps in [0, 1, 2, 4] {
        let opts = SolverOpts {
            smooth_steps: steps,
            ..Default::default()
        };
        let t0 = Instant::now();
        let f = fiedler(&g, &opts).expect("connected");
        println!(
            "  {:>6} {:>12.4e} {:>10.2e} {:>12.3}",
            steps,
            f.lambda2,
            (f.lambda2 - reference).abs() / reference,
            t0.elapsed().as_secs_f64()
        );
    }

    println!("\n--- 3. Galerkin (weighted) vs unweighted coarse operator ---");
    for galerkin in [true, false] {
        let opts = SolverOpts {
            galerkin,
            ..Default::default()
        };
        let t0 = Instant::now();
        let f = fiedler(&g, &opts).expect("connected");
        let perm = Permutation::from_new_to_old(order_by_vector(&g, &f.vector)).unwrap();
        println!(
            "  galerkin = {:<5}  λ₂ = {:.6e}  (err {:.2e}, {:.3}s, envelope {})",
            galerkin,
            f.lambda2,
            (f.lambda2 - reference).abs() / reference,
            t0.elapsed().as_secs_f64(),
            envelope_size(&g, &perm)
        );
    }

    println!("\n--- 4. sort direction (Algorithm 1 step 3) ---");
    let f = fiedler(&g, &SolverOpts::default()).expect("connected");
    let asc = Permutation::sorting(&f.vector);
    let desc = asc.reversed();
    let (e_asc, e_desc) = (envelope_size(&g, &asc), envelope_size(&g, &desc));
    println!(
        "  ascending: {e_asc}   nonincreasing: {e_desc}   best-of-both: {}",
        e_asc.min(e_desc)
    );
    println!("  (the paper's step 3 evaluates both and keeps the smaller)");

    println!("\n--- 5. local refinement on top of the spectral order (§4 future work) ---");
    println!("  {:<12} {:>12} {:>10}", "variant", "envelope", "time (s)");
    for alg in [
        Algorithm::Spectral,
        Algorithm::HybridSloanSpectral,
        Algorithm::Sloan,
        Algorithm::Gk,
    ] {
        let t0 = Instant::now();
        let o = order(&g, alg).expect("ordering runs");
        println!(
            "  {:<12} {:>12} {:>10.3}",
            alg.name(),
            o.stats.envelope_size,
            t0.elapsed().as_secs_f64()
        );
    }
}
