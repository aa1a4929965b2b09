//! Bench: the multilevel Fiedler solver of §3 versus plain Lanczos — the
//! speedup that makes the spectral ordering practical.

use meshgen::grid2d;
use se_bench::harness::Runner;
use se_eigen::lanczos::LanczosOptions;
use se_eigen::multilevel::{fiedler, fiedler_lanczos};
use se_eigen::SolverOpts;

fn main() {
    let runner = Runner::new("fiedler");
    for (label, nx, ny) in [
        ("n=1024", 32, 32),
        ("n=4096", 64, 64),
        ("n=16384", 128, 128),
    ] {
        let g = grid2d(nx, ny);
        runner.bench(&format!("multilevel/{label}"), || {
            fiedler(&g, &SolverOpts::default()).expect("connected")
        });
        // Plain Lanczos gets slow quickly; skip the largest size.
        if nx <= 64 {
            runner.bench(&format!("lanczos/{label}"), || {
                fiedler_lanczos(
                    &g,
                    &LanczosOptions {
                        max_iter: 600,
                        ..Default::default()
                    },
                )
                .expect("connected")
            });
        }
    }
}
