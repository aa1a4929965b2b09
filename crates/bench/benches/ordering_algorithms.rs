//! Bench: ordering time per algorithm across mesh sizes — the "Run time"
//! column of Tables 4.1–4.3 in micro-benchmark form, including the paper's
//! observation that the spectral ordering costs more to compute than the
//! local-search algorithms.

use meshgen::annulus_tri;
use se_bench::harness::Runner;
use se_order::{order, Algorithm};

fn main() {
    let runner = Runner::new("ordering");
    for (label, rings, per_ring) in [("n~1.2k", 16, 75), ("n~4.8k", 32, 150)] {
        let g = annulus_tri(rings, per_ring, 0xBEEF);
        for alg in [
            Algorithm::Rcm,
            Algorithm::Gps,
            Algorithm::Gk,
            Algorithm::Sloan,
            Algorithm::Spectral,
            Algorithm::HybridSloanSpectral,
        ] {
            runner.bench(&format!("{}/{label}", alg.name()), || {
                order(&g, alg).expect("ordering succeeds")
            });
        }
    }
}
