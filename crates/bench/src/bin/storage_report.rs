//! Storage study — §1 of the paper: *"it has long been known that general
//! sparse methods are considerably more efficient with respect to storage
//! [than envelope methods]"* (George–Liu; Ashcraft et al.), yet envelope
//! schemes remain the standard in structural-analysis packages, which is
//! why envelope-reducing orderings matter.
//!
//! For each stand-in: envelope storage (`Esize + n`) under the envelope
//! orderings vs the general-sparse factor size `|L|` (with fill) under the
//! same orderings and under minimum degree.

use se_envelope::symbolic::factor_size;
use se_order::{order, Algorithm};
use spectral_env::report::group_digits;

fn main() {
    println!("==== Envelope vs general sparse storage (paper §1) ====\n");
    println!(
        "  {:<9} {:<10} {:>14} {:>14} {:>8}",
        "Matrix", "ordering", "envelope sto.", "|L| (sparse)", "ratio"
    );
    let cap = se_bench::max_n().unwrap_or(10_000);
    for name in [
        "POW9", "CAN1072", "BLKHOLE", "DWT2680", "SSTMODEL", "BARTH4",
    ] {
        let s = meshgen::standin(name).expect("standin exists");
        if s.pattern.n() > cap {
            println!("  {name}: skipped (SE_MAX_N)");
            continue;
        }
        let n = s.pattern.n() as u64;
        for alg in [
            Algorithm::Spectral,
            Algorithm::Rcm,
            Algorithm::MinDegree,
            Algorithm::SpectralNd,
        ] {
            let o = order(&s.pattern, alg).expect("ordering runs");
            let env_storage = o.stats.envelope_size + n;
            let lnz = factor_size(&s.pattern, &o.perm);
            println!(
                "  {:<9} {:<10} {:>14} {:>14} {:>8.2}",
                name,
                alg.name(),
                group_digits(env_storage),
                group_digits(lnz),
                env_storage as f64 / lnz as f64
            );
        }
        println!();
    }
    println!("Shape (paper §1): |L| ≤ envelope storage for every ordering; minimum");
    println!("degree and spectral nested dissection minimise |L| but have no useful");
    println!("envelope — the general sparse route needs less memory, while envelope");
    println!("schemes keep the simpler data structure the packages rely on.");
}
