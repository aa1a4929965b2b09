//! A tour of the eigensolver stack: three different routes to the same
//! Fiedler pair, with accuracy and timing side by side.
//!
//! * dense Householder+QL — the `O(n³)` oracle,
//! * Lanczos with full reorthogonalization — the paper's "standard
//!   algorithm" (§3),
//! * the multilevel scheme — the paper's contribution for making the
//!   computation fast at scale.
//!
//! Run: `cargo run --release --example eigensolver_tour`

use spectral_envelope_repro::eigen::dense::DenseSym;
use spectral_envelope_repro::eigen::lanczos::{lanczos_smallest, LanczosOptions};
use spectral_envelope_repro::eigen::multilevel::fiedler;
use spectral_envelope_repro::eigen::op::{constant_unit_vector, LaplacianOp};
use spectral_envelope_repro::eigen::SolverOpts;
use std::time::Instant;

fn main() {
    // Small mesh: every solver, including the dense oracle.
    let small = meshgen::graded_annulus_tri(600, 80, 0.93, 0x70);
    println!(
        "small mesh: n = {}, edges = {}",
        small.n(),
        small.num_edges()
    );
    let dense = DenseSym::from_csr(&small.laplacian()).expect("densifiable");
    let t0 = Instant::now();
    let full = dense.eigh().expect("dense decomposition");
    let oracle = full.values[1];
    println!(
        "  dense oracle  λ₂ = {oracle:.6e}  ({:.3}s)\n",
        t0.elapsed().as_secs_f64()
    );

    let lop = LaplacianOp::new(&small);
    let deflate = vec![constant_unit_vector(small.n())];

    let t0 = Instant::now();
    let lz = lanczos_smallest(&lop, &deflate, 1, &LanczosOptions::default()).expect("ok");
    println!(
        "  lanczos       λ₂ = {:.6e}  err {:.1e}  {} steps   ({:.3}s)",
        lz.values[0],
        (lz.values[0] - oracle).abs(),
        lz.iterations,
        t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let ml = fiedler(&small, &SolverOpts::default()).expect("ok");
    println!(
        "  multilevel    λ₂ = {:.6e}  err {:.1e}  {} levels  ({:.3}s)",
        ml.lambda2,
        (ml.lambda2 - oracle).abs(),
        ml.levels,
        t0.elapsed().as_secs_f64()
    );

    // Large mesh: the multilevel scheme alone — the scale at which it earns
    // its keep.
    let big = meshgen::graded_annulus_tri(60_000, 2_600, 0.97, 0x71);
    println!("\nlarge mesh: n = {}, edges = {}", big.n(), big.num_edges());
    let t0 = Instant::now();
    let ml = fiedler(&big, &SolverOpts::default()).expect("ok");
    println!(
        "  multilevel    λ₂ = {:.6e}  {} levels  ({:.3}s)",
        ml.lambda2,
        ml.levels,
        t0.elapsed().as_secs_f64()
    );
}
