//! Ordering as a preconditioner preorder — §1 of the paper:
//! *"The RCM ordering has been found to be an effective preordering in
//! computing incomplete factorization preconditioners for preconditioned
//! conjugate gradients methods."*
//!
//! IC(0) keeps only the entries inside the matrix's own pattern, so the
//! quality of the dropped fill — and hence the PCG iteration count —
//! depends on the ordering. This example measures it.
//!
//! Run: `cargo run --release --example preconditioning`

use spectral_envelope_repro::envelope::{pcg, IncompleteCholesky, PcgOptions};
use spectral_envelope_repro::order::{order, Algorithm};

fn main() {
    // An ill-conditioned diffusion-like system on a graded airfoil mesh,
    // presented in a scrambled "mesh generator" ordering.
    let mesh = meshgen::graded_annulus_tri(5_000, 320, 0.955, 0x9C6);
    let g = mesh
        .permute(&meshgen::scramble(mesh.n(), 0xF00D))
        .expect("valid permutation");
    let a = g.spd_matrix(1e-3);
    let n = a.nrows();
    println!(
        "system: n = {n}, nnz = {}, shift 1e-3 (ill-conditioned)\n",
        a.nnz()
    );

    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 29 % 23) as f64) / 23.0 - 0.5)
        .collect();
    let opts = PcgOptions {
        max_iter: 4000,
        rtol: 1e-8,
    };

    // Plain CG baseline (ordering-independent).
    let plain = pcg(&a, &b, None, &opts);
    println!(
        "plain CG (no preconditioner):     {:>5} iterations (converged: {})",
        plain.iterations, plain.converged
    );

    println!("\nIC(0)-PCG under different preorderings:");
    println!(
        "  {:<10} {:>10} {:>12} {:>10}",
        "ordering", "envelope", "iterations", "converged"
    );
    for alg in [
        Algorithm::Identity,
        Algorithm::Rcm,
        Algorithm::Gps,
        Algorithm::Gk,
        Algorithm::Sloan,
        Algorithm::Spectral,
        Algorithm::HybridSloanSpectral,
    ] {
        let ordering = order(&g, alg).expect("ordering runs");
        let pa = a
            .permute_symmetric(&ordering.perm)
            .expect("permutation matches");
        let pb = ordering.perm.apply(&b).expect("length matches");
        let ic = IncompleteCholesky::robust(&pa).expect("IC(0) succeeds");
        let out = pcg(&pa, &pb, Some(&ic), &opts);
        println!(
            "  {:<10} {:>10} {:>12} {:>10}",
            alg.name(),
            ordering.stats.envelope_size,
            out.iterations,
            out.converged
        );
    }
    println!("\nExpected shape (Duff–Meurant): banded/envelope-reducing preorders");
    println!("(RCM, GK, SPECTRAL, …) need noticeably fewer IC-PCG iterations than");
    println!("the scrambled original ordering, and all far fewer than plain CG.");
}
