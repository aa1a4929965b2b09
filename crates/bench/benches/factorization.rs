//! Bench: envelope Cholesky under SPECTRAL vs RCM orderings — Table 4.4's
//! claim that smaller envelopes buy factorization time.

use meshgen::annulus_tri;
use se_bench::harness::Runner;
use se_envelope::EnvelopeMatrix;
use se_order::{order, Algorithm};

fn main() {
    let runner = Runner::new("envelope_cholesky");
    let g = annulus_tri(24, 100, 0xFAC7); // n = 2400, BARTH4-class mesh
    let a = g.spd_matrix(1.0);
    for alg in [
        Algorithm::Spectral,
        Algorithm::Rcm,
        Algorithm::Gps,
        Algorithm::Gk,
    ] {
        let ordering = order(&g, alg).expect("ordering succeeds");
        let pa = a.permute_symmetric(&ordering.perm).expect("permutable");
        let name = format!("{}/env={}", alg.name(), ordering.stats.envelope_size);
        runner.bench(&name, || {
            let mut env = EnvelopeMatrix::from_csr(&pa).expect("symmetric");
            env.factorize().expect("SPD")
        });
    }
}
