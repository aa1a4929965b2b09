//! One-minute end-to-end self check of every subsystem — run after a
//! build to confirm the reproduction is healthy on this machine:
//!
//! ```sh
//! cargo run -p se-bench --release --bin selfcheck
//! ```
//!
//! Exits nonzero on the first failed check.

use se_envelope::{EnvelopeMatrix, IncompleteCholesky, PcgOptions};
use se_order::{order, order_compressed_with, Algorithm, SolverOpts};
use spectral_env::report::compare_orderings;

fn check(name: &str, ok: bool, detail: String) -> bool {
    println!(
        "  [{}] {name}{}",
        if ok { "ok" } else { "FAIL" },
        if detail.is_empty() {
            String::new()
        } else {
            format!(" — {detail}")
        }
    );
    ok
}

fn main() -> std::process::ExitCode {
    println!("spectral-envelope selfcheck\n");
    let mut all = true;

    // 1. Eigensolver: λ₂ of a known mesh.
    let g = meshgen::grid2d(32, 20);
    let f = se_eigen::multilevel::fiedler(&g, &Default::default()).expect("connected mesh");
    let exact = 2.0 - 2.0 * (std::f64::consts::PI / 32.0).cos();
    all &= check(
        "multilevel Fiedler λ₂ on 32x20 grid",
        (f.lambda2 - exact).abs() < 1e-6,
        format!("λ₂ = {:.6e}, exact {:.6e}", f.lambda2, exact),
    );

    // 2. Orderings: the paper quartet on a graded airfoil mesh.
    let mesh = meshgen::graded_annulus_tri(3_000, 250, 0.95, 1);
    let cmp = compare_orderings(&mesh, &Algorithm::paper_set()).expect("orderings run");
    let spectral_best = cmp.rows[0].rank <= 2;
    all &= check(
        "SPECTRAL competitive on graded airfoil mesh",
        spectral_best,
        format!(
            "ranks: {:?}",
            cmp.rows
                .iter()
                .map(|r| (r.algorithm.name(), r.rank))
                .collect::<Vec<_>>()
        ),
    );

    // 3. Envelope Cholesky: factor + solve.
    let a = mesh.spd_matrix(0.5);
    let ordering = order(&mesh, Algorithm::Spectral).expect("ordering");
    let mut env = EnvelopeMatrix::from_csr_permuted(&a, &ordering.perm).expect("symmetric");
    env.factorize().expect("SPD");
    let ones = vec![1.0; a.nrows()];
    let pa = a.permute_symmetric(&ordering.perm).expect("permutable");
    let b = pa.matvec_alloc(&ones);
    let x = env.solve(&b).expect("factorized");
    let max_err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    all &= check(
        "envelope Cholesky solve",
        max_err < 1e-8,
        format!("max error {max_err:.2e}"),
    );

    // 4. IC(0)-PCG.
    let ic = IncompleteCholesky::robust(&pa).expect("IC succeeds");
    let out = se_envelope::pcg(&pa, &b, Some(&ic), &PcgOptions::default());
    all &= check(
        "IC(0)-PCG",
        out.converged,
        format!("{} iterations", out.iterations),
    );

    // 5. I/O round trips.
    let mm = sparsemat::io::matrix_market::write_matrix_market_string(&a);
    let back = sparsemat::io::matrix_market::read_matrix_market_str(&mm).expect("parse");
    all &= check("MatrixMarket round trip", back == a, String::new());
    let hb = sparsemat::io::harwell_boeing::write_harwell_boeing_string(&a, "SELF");
    let back = sparsemat::io::harwell_boeing::read_harwell_boeing_str(&hb).expect("parse");
    all &= check("Harwell-Boeing round trip", back == a, String::new());

    // 6. Compression on a multi-DOF pattern.
    let block = meshgen::block_expand(&meshgen::grid2d(10, 10), 4);
    let (o, ratio) =
        order_compressed_with(&block, Algorithm::Rcm, &SolverOpts::default()).expect("compress");
    all &= check(
        "supervariable compression",
        (ratio - 4.0).abs() < 1e-9 && o.perm.len() == block.n(),
        format!("ratio {ratio:.2}"),
    );

    println!();
    if all {
        println!("all checks passed");
        std::process::ExitCode::SUCCESS
    } else {
        println!("SELFCHECK FAILED");
        std::process::ExitCode::FAILURE
    }
}
