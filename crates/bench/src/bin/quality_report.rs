//! Regenerates Tables 4.1–4.4, the stand-in sizes and the Theorem 2.2
//! bounds as one ledger (see `se_bench::quality`): every stand-in × the
//! paper's four orderings × eight labellings, Table 4.4's factorizations
//! of the seed-0 SPECTRAL and RCM permutations, and the λ the multilevel
//! solver returns at seed 0. Writes `BENCH_quality.json`, prints the
//! rendered markdown and rewrites EXPERIMENTS.md's generated sections.
//! Run it from the repository root, after committing so the stamp names
//! the measured code; `SE_MAX_N=<n>` skips the stand-ins larger than `n`:
//!
//! ```sh
//! cargo run -p se-bench --release --bin quality_report
//! ```

use meshgen::Standin;
use se_bench::quality::{self, DOC, LEDGER, SEEDS};
use se_bench::{num, paper};
use se_eigen::{multilevel::fiedler, SolverOpts};
use se_envelope::EnvelopeMatrix;
use se_service::json::{self, Json};
use sparsemat::envelope::theorem_2_2_lower_bounds;
use spectral_env::report::{compare_orderings, Comparison};
use spectral_env::Algorithm;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cap = se_bench::max_n();
    let (mut standins, mut rows, mut factor) = (Vec::new(), Vec::new(), Vec::new());
    for name in meshgen::standins::ALL_NAMES {
        let s = meshgen::standin(name).expect("known stand-in");
        let mut entry = describe(&s);
        if cap.is_some_and(|cap| s.pattern.n() > cap) {
            eprintln!("{name}: skipped, n = {} is over SE_MAX_N", s.pattern.n());
            entry.push(("skipped", Json::Bool(true)));
            standins.push(Json::obj(entry));
            continue;
        }
        let mut best = (u64::MAX, u64::MAX);
        for seed in 0..SEEDS {
            let t0 = Instant::now();
            let c = compare_orderings(&quality::labelled(&s, seed), &Algorithm::paper_set())?;
            for r in &c.rows {
                best = (
                    best.0.min(r.stats.envelope_size),
                    best.1.min(r.stats.envelope_work),
                );
            }
            rows.extend(quality::rows(name, seed, &c));
            if seed == 0 {
                factor.extend(factor_rows(&s, &c));
            }
            eprintln!("{name} seed {seed}: {:.2} s", t0.elapsed().as_secs_f64());
        }
        entry.extend(bounds(&s, best));
        standins.push(Json::obj(entry));
    }
    let mut fields = se_bench::stamp();
    fields.extend([
        ("max_n", cap.map_or(Json::Null, |c| num(c as u64))),
        ("standins", Json::Arr(standins)),
        ("rows", Json::Arr(rows)),
        ("factor", Json::Arr(factor)),
    ]);
    se_bench::write_report(LEDGER, fields)?;
    // Render what was written, so the document is the render of the file.
    let sections = quality::render(&json::parse(&std::fs::read_to_string(LEDGER)?)?);
    for (name, body) in &sections {
        println!("## {name}\n\n{body}");
    }
    let doc = quality::splice(&std::fs::read_to_string(DOC)?, &sections)?;
    std::fs::write(DOC, doc)?;
    eprintln!("wrote {LEDGER} and the generated sections of {DOC}");
    Ok(())
}

/// The stand-in's sizes, class and the paper's reference row.
fn describe(s: &Standin) -> Vec<(&'static str, Json)> {
    let p = paper::reference(s.name).expect("every stand-in has a paper row");
    let whole = |v: [u64; 4]| Json::Arr(v.map(num).to_vec());
    let paper = Json::obj(vec![
        ("envelope", whole(p.envelope)),
        ("bandwidth", whole(p.bandwidth)),
        ("seconds", Json::Arr(p.seconds.map(Json::Num).to_vec())),
    ]);
    vec![
        ("matrix", Json::Str(s.name.into())),
        ("table", Json::Str(format!("4.{}", s.table as u8 + 1))),
        ("n", num(s.pattern.n() as u64)),
        ("nnz", num(s.nnz() as u64)),
        ("paper_n", num(s.paper_n as u64)),
        ("paper_nnz", num(s.paper_nnz as u64)),
        ("class", Json::Str(s.class.into())),
        ("paper", paper),
    ]
}

/// Table 4.4: envelope Cholesky of the SPD-shifted stand-in under the
/// seed-0 SPECTRAL and RCM permutations (rows 0 and 3 of the paper set),
/// for the matrices the paper factored.
fn factor_rows(s: &Standin, c: &Comparison) -> Vec<Json> {
    let Some(p) = paper::PAPER_FACTOR_ROWS.iter().find(|p| p.name == s.name) else {
        return Vec::new();
    };
    let a = s.pattern.spd_matrix(1.0);
    let factored = |(row, (paper_envelope, paper_seconds)): (usize, (u64, f64))| {
        let row = &c.rows[row];
        let mut env = EnvelopeMatrix::from_csr_permuted(&a, &row.perm).expect("symmetric");
        let t0 = Instant::now();
        let flops = env.factorize().expect("shifted Laplacian is SPD");
        let seconds = t0.elapsed().as_secs_f64();
        Json::obj(vec![
            ("matrix", Json::Str(s.name.into())),
            ("alg", Json::Str(row.algorithm.name().into())),
            ("envelope", num(row.stats.envelope_size)),
            ("ework", num(row.stats.envelope_work)),
            ("flops", num(flops)),
            ("seconds", Json::Num((seconds * 1e4).round() / 1e4)),
            ("paper_envelope", num(paper_envelope)),
            ("paper_seconds", Json::Num(paper_seconds)),
        ])
    };
    [(0, p.spectral), (3, p.rcm)]
        .into_iter()
        .map(factored)
        .collect()
}

/// Δ, the λ the multilevel solver returns at seed 0, the dense λ₂ where
/// recorded, the best envelope and Ework of any row, and their ratios to
/// the Theorem 2.2 lower bounds at the returned λ. The solver needs a
/// connected graph; on one that is not, the λ and the ratios are null.
fn bounds(s: &Standin, (esize, ework): (u64, u64)) -> Vec<(&'static str, Json)> {
    let delta = s.pattern.max_degree();
    let lambda = fiedler(&s.pattern, &SolverOpts::default())
        .ok()
        .map(|f| f.lambda2);
    let lb = lambda.map(|l| theorem_2_2_lower_bounds(l, s.pattern.n(), delta));
    let or_null = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let ratio = |best: u64, bound: f64| (100.0 * best as f64 / bound).round() / 100.0;
    vec![
        ("max_degree", num(delta as u64)),
        ("lambda_returned", or_null(lambda)),
        ("lambda2_dense", or_null(quality::dense_lambda2(s.name))),
        ("best_envelope", num(esize)),
        ("best_ework", num(ework)),
        ("esize_ratio", or_null(lb.map(|(e, _)| ratio(esize, e)))),
        ("ework_ratio", or_null(lb.map(|(_, w)| ratio(ework, w)))),
    ]
}
