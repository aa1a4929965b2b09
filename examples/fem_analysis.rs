//! End-to-end finite-element analysis — the paper's motivating workload
//! (§1: frontal/envelope methods are "the method of choice ... in many
//! structural engineering applications"). Assembles a real P1 stiffness
//! system on an annular mesh (geometry included, not just topology),
//! reorders it, and solves with the envelope Cholesky.
//!
//! Run: `cargo run --release --example fem_analysis`

use spectral_envelope_repro::envelope::EnvelopeMatrix;
use spectral_envelope_repro::order::{order, Algorithm};
use std::time::Instant;

fn main() {
    // A ring structure meshed with ~4.8k linear triangles.
    let mesh = meshgen::TriMesh::annulus(20, 120, 1.0, 4.0, 0xFE0);
    let n = mesh.n();
    println!(
        "FE model: {} nodes, {} triangles, annulus r ∈ [1, 4]",
        n,
        mesh.triangles.len()
    );

    // Implicit-dynamics-style system: K + σM (SPD).
    let a = mesh.shifted_stiffness(5.0);
    println!("assembled K + 5M: nnz = {}\n", a.nnz());

    // Manufactured load: the exact displacement is a smooth field.
    let u_true: Vec<f64> = mesh
        .coords
        .iter()
        .map(|&(x, y)| (0.7 * x).sin() + 0.4 * y * y / 16.0)
        .collect();
    let f = a.matvec_alloc(&u_true);

    let g = a.pattern().expect("assembled matrix is symmetric");
    println!(
        "  {:<10} {:>10} {:>14} {:>11} {:>12}",
        "ordering", "envelope", "factor flops", "factor (s)", "max |err|"
    );
    for alg in [
        Algorithm::Spectral,
        Algorithm::HybridSloanSpectral,
        Algorithm::Gk,
        Algorithm::Rcm,
    ] {
        let ordering = order(&g, alg).expect("ordering runs");
        let mut env = EnvelopeMatrix::from_csr_permuted(&a, &ordering.perm).expect("symmetric");
        let t0 = Instant::now();
        let flops = env.factorize().expect("K + σM is SPD");
        let secs = t0.elapsed().as_secs_f64();
        let pf = ordering.perm.apply(&f).expect("length matches");
        let pu = env.solve(&pf).expect("factorized");
        // Undo the permutation and compare to the manufactured field.
        let mut u = vec![0.0; n];
        for (k, &v) in ordering.perm.order().iter().enumerate() {
            u[v] = pu[k];
        }
        let err = u
            .iter()
            .zip(&u_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "  {:<10} {:>10} {:>14} {:>11.4} {:>12.2e}",
            alg.name(),
            ordering.stats.envelope_size,
            flops,
            secs,
            err
        );
    }
    println!("\nSame exact solve under every ordering (errors at rounding level);");
    println!("what the ordering buys is storage and factorization work.");
}
