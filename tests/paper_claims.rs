//! Shape-level checks of the paper's headline claims, on meshes small
//! enough for CI, and the checks that keep EXPERIMENTS.md's tables equal to
//! the committed quality ledger (`BENCH_quality.json`) and the ledger equal
//! to what the code computes.

use se_bench::quality::{self, int, list, text};
use spectral_envelope_repro::envelope::EnvelopeMatrix;
use spectral_envelope_repro::order::{cuthill_mckee, order, Algorithm};
use spectral_envelope_repro::service::json::{self, Json};
use spectral_envelope_repro::sparsemat::envelope::theorem_2_2_lower_bounds;
use spectral_envelope_repro::spectral_env::report::compare_orderings;

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn ledger() -> Json {
    json::parse(&repo_file(quality::LEDGER)).expect("the ledger parses")
}

/// EXPERIMENTS.md's generated sections are the render of the committed
/// ledger. After changing either, rerun `quality_report`.
#[test]
fn experiments_md_is_the_render_of_the_ledger() {
    let doc = repo_file(quality::DOC);
    for (name, body) in quality::render(&ledger()) {
        let spliced = quality::splice(&doc, &[(name, body)]).expect("the section's markers");
        assert!(
            spliced == doc,
            "section `{name}` of {} differs from the render of {}; rerun \
             `cargo run -p se-bench --release --bin quality_report`",
            quality::DOC,
            quality::LEDGER
        );
    }
}

/// Recomputes the rows of `names` at `seeds` and checks them against the
/// committed ledger, exactly, and against the Theorem 2.2 lower bounds at
/// the dense λ₂ where one is recorded. The recorded λ₂ has seven
/// significant digits, so it is scaled by 1 − 1e-6 to stay below the true
/// value. The bound is checked with the dense λ₂ rather than the solver's:
/// at the generated labelling the solver returns λ₃ on CAN1072 and POW9,
/// and a bound at λ₃ is not a bound.
fn check_ledger_rows(names: &[&str], seeds: std::ops::Range<u64>) {
    let ledger = ledger();
    let rows = list(&ledger, "rows");
    for &name in names {
        let s = meshgen::standin(name).expect("known stand-in");
        let lambda2 = quality::dense_lambda2(name).map(|l| l * (1.0 - 1e-6));
        let (esize_lb, ework_lb) = lambda2.map_or((0.0, 0.0), |l| {
            theorem_2_2_lower_bounds(l, s.pattern.n(), s.pattern.max_degree())
        });
        for seed in seeds.clone() {
            let c = compare_orderings(&quality::labelled(&s, seed), &Algorithm::paper_set())
                .expect("orderings run");
            let committed = quality::seed_rows(rows, name, seed);
            assert_eq!(
                committed.len(),
                4,
                "{name} seed {seed}: the ledger lacks its rows"
            );
            for (r, j) in c.rows.iter().zip(committed) {
                let alg = r.algorithm.name();
                assert_eq!(alg, text(j, "alg"), "{name} seed {seed}: row order");
                let st = &r.stats;
                assert_eq!(
                    [
                        st.envelope_size,
                        st.bandwidth,
                        st.envelope_work,
                        r.rank as u64
                    ],
                    ["envelope", "bandwidth", "ework", "rank"].map(|k| int(j, k)),
                    "{name} seed {seed} {alg}: (envelope, bandwidth, Ework, rank) \
                     recomputed vs {}",
                    quality::LEDGER
                );
                assert!(
                    st.envelope_size as f64 >= esize_lb && st.envelope_work as f64 >= ework_lb,
                    "{name} seed {seed} {alg}: Esize {} / Ework {} below the Theorem 2.2 \
                     bounds {esize_lb:.0} / {ework_lb:.0}",
                    st.envelope_size,
                    st.envelope_work
                );
            }
        }
    }
}

/// The six small stand-ins (n ≤ 3,350) at their generated labelling.
#[test]
fn small_standin_rows_match_the_ledger_and_theorem_2_2() {
    let names = [
        "BCSSTK13", "CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL",
    ];
    check_ledger_rows(&names, 0..1);
}

/// Every stand-in with n ≤ 13,000 at every labelling of the ledger. Run
/// in release: `cargo test --release --test paper_claims -- --ignored`.
#[test]
#[ignore = "minutes in a debug build; run in release"]
fn every_standin_up_to_13000_matches_the_ledger_at_every_seed() {
    let ledger = ledger();
    let names: Vec<&str> = list(&ledger, "standins")
        .iter()
        .filter(|s| int(s, "n") <= 13_000)
        .map(|s| text(s, "matrix"))
        .collect();
    check_ledger_rows(&names, 0..quality::SEEDS);
}

/// §4 / Table 4.3 (BARTH4): on unstructured airfoil meshes, the spectral
/// ordering has a clearly smaller envelope than RCM/GPS/GK — even though
/// its bandwidth is larger.
#[test]
fn spectral_wins_envelope_on_airfoil_class() {
    // Graded irregular O-mesh — the BARTH4 structure class. (On perfectly
    // uniform annuli all the algorithms are near-optimal and the ranking is
    // a coin toss; the paper's wins come from graded, irregular meshes.)
    let g = meshgen::graded_annulus_tri(1_540, 160, 0.94, 0xA1);
    let c = compare_orderings(&g, &Algorithm::paper_set()).unwrap();
    let spectral = &c.rows[0];
    let rcm = &c.rows[3];
    assert_eq!(spectral.algorithm, Algorithm::Spectral);
    assert!(
        spectral.rank <= 2,
        "spectral rank {} (envelope {})",
        spectral.rank,
        spectral.stats.envelope_size
    );
    assert!(
        (rcm.stats.envelope_size as f64) >= 1.1 * spectral.stats.envelope_size as f64,
        "spectral {} vs rcm {}",
        spectral.stats.envelope_size,
        rcm.stats.envelope_size
    );
}

/// §4: "the bandwidths of the spectral reorderings are often much greater
/// than those of the other reorderings" and "the GPS algorithm is much more
/// effective than the spectral algorithm in reducing the bandwidth".
#[test]
fn gps_beats_spectral_on_bandwidth() {
    let g = meshgen::annulus_tri(28, 55, 0xA2);
    let c = compare_orderings(&g, &Algorithm::paper_set()).unwrap();
    let spectral = &c.rows[0];
    let gps = &c.rows[2];
    assert_eq!(gps.algorithm, Algorithm::Gps);
    assert!(
        gps.stats.bandwidth <= spectral.stats.bandwidth,
        "gps bw {} vs spectral bw {}",
        gps.stats.bandwidth,
        spectral.stats.bandwidth
    );
}

/// §4 / Table 4.4: factorization work scales ~quadratically with envelope,
/// so a 2x envelope reduction should buy ~3-4x fewer flops.
#[test]
fn factorization_work_tracks_envelope_quadratically() {
    let g = meshgen::annulus_tri(20, 50, 0xA3); // n = 1000
    let a = g.spd_matrix(1.0);
    let mut results: Vec<(u64, u64)> = Vec::new(); // (envelope, flops)
    for alg in [Algorithm::Spectral, Algorithm::Rcm] {
        let o = order(&g, alg).unwrap();
        let mut env = EnvelopeMatrix::from_csr_permuted(&a, &o.perm).unwrap();
        let flops = env.factorize().unwrap();
        results.push((o.stats.envelope_size, flops));
    }
    let (env_s, flops_s) = results[0];
    let (env_r, flops_r) = results[1];
    if env_r > env_s {
        let env_ratio = env_r as f64 / env_s as f64;
        let flop_ratio = flops_r as f64 / flops_s as f64;
        // Superlinear: flops grow faster than the envelope itself.
        assert!(
            flop_ratio > env_ratio * 0.9,
            "flops ratio {flop_ratio:.2} vs envelope ratio {env_ratio:.2}"
        );
    }
}

/// §4: "the spectral algorithm clearly outperforms the others on the larger
/// problems" — check the trend across two sizes of the same mesh family.
#[test]
fn spectral_advantage_grows_with_size() {
    let ratio_at = |n: usize, inner: usize| -> f64 {
        let g = meshgen::graded_annulus_tri(n, inner, 0.94, 0xA4);
        let c = compare_orderings(&g, &Algorithm::paper_set()).unwrap();
        c.rows[3].stats.envelope_size as f64 / c.rows[0].stats.envelope_size as f64
    };
    let small = ratio_at(400, 60);
    let large = ratio_at(3_000, 250);
    assert!(
        large >= small * 0.85,
        "advantage should not collapse with size: small {small:.2}, large {large:.2}"
    );
    assert!(large > 1.0, "spectral should beat RCM at the larger size");
}

/// §4: run-time ordering — RCM is the cheapest, the spectral ordering the
/// most expensive of the four (it pays for global eigen-information).
#[test]
fn run_time_ordering_matches_paper() {
    let g = meshgen::annulus_tri(30, 70, 0xA5); // n = 2100
    let c = compare_orderings(&g, &Algorithm::paper_set()).unwrap();
    let secs: Vec<f64> = c.rows.iter().map(|r| r.seconds).collect();
    // SPECTRAL (index 0) slower than RCM (index 3) by a clear margin.
    assert!(
        secs[0] > secs[3],
        "spectral {} should cost more than rcm {}",
        secs[0],
        secs[3]
    );
}

/// Theorem 2.5 flavor: the spectral ordering is nearly an adjacency
/// ordering — quantify by the fraction of vertices adjacent to an earlier
/// one (1.0 = true adjacency ordering; RCM-from-CM is also not one, but the
/// spectral order should be close on a connected mesh).
#[test]
fn spectral_order_is_nearly_adjacency() {
    let g = meshgen::annulus_tri(16, 40, 0xA6);
    let o = order(&g, Algorithm::Spectral).unwrap();
    let pos = o.perm.positions();
    let mut adjacent = 0usize;
    for k in 1..g.n() {
        let v = o.perm.new_to_old(k);
        if g.neighbors(v).iter().any(|&u| pos[u] < k) {
            adjacent += 1;
        }
    }
    let frac = adjacent as f64 / (g.n() - 1) as f64;
    assert!(frac > 0.9, "adjacency fraction {frac:.3}");
}

/// §1's preconditioning motivation: envelope-reducing preorders improve
/// IC(0)-PCG over a scrambled ordering (Duff–Meurant).
#[test]
fn envelope_orderings_improve_ic_pcg() {
    use spectral_envelope_repro::envelope::{pcg, IncompleteCholesky, PcgOptions};
    let mesh = meshgen::graded_annulus_tri(1_500, 150, 0.94, 0x1C0);
    let g = mesh.permute(&meshgen::scramble(mesh.n(), 0xBAD)).unwrap();
    let a = g.spd_matrix(1e-2);
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 13) as f64) / 13.0).collect();
    let opts = PcgOptions {
        max_iter: 2000,
        rtol: 1e-8,
    };
    let iters = |alg: Algorithm| -> usize {
        let o = order(&g, alg).unwrap();
        let pa = a.permute_symmetric(&o.perm).unwrap();
        let pb = o.perm.apply(&b).unwrap();
        let ic = IncompleteCholesky::robust(&pa).unwrap();
        let out = pcg(&pa, &pb, Some(&ic), &opts);
        assert!(out.converged, "{alg:?} did not converge");
        out.iterations
    };
    let scrambled = iters(Algorithm::Identity);
    let rcm = iters(Algorithm::Rcm);
    let spectral = iters(Algorithm::Spectral);
    assert!(
        rcm < scrambled && spectral < scrambled,
        "banded preorders should beat scrambled: scrambled {scrambled}, rcm {rcm}, spectral {spectral}"
    );
}

/// The Cuthill–McKee ordering *is* an adjacency ordering (§2.4's example).
#[test]
fn cm_is_adjacency_ordering_but_rcm_is_not_necessarily() {
    use spectral_envelope_repro::sparsemat::envelope::is_adjacency_ordering;
    let g = meshgen::annulus_tri(12, 30, 0xA7);
    assert!(is_adjacency_ordering(&g, &cuthill_mckee(&g)));
}
