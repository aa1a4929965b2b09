//! The quality ledger behind Tables 4.1–4.4 and the Theorem 2.2 bounds.
//!
//! `quality_report` writes [`LEDGER`], one JSON object: the stamp, `max_n`
//! (the `SE_MAX_N` cap or null) and three arrays. `standins` holds each
//! stand-in's table, sizes, class and paper row, `skipped` when over the
//! cap, and otherwise Δ, `lambda_returned` (the λ `multilevel::fiedler`
//! returns at seed 0, not always λ₂), `lambda2_dense` where known, and the
//! best envelope and Ework of any row with their ratios to the Theorem 2.2
//! bounds at `lambda_returned`. `rows` holds, per stand-in × [`SEEDS`]
//! labellings (seed 0 as generated, then [`meshgen::scramble`]) × algorithm,
//! the envelope, bandwidth, Ework, seconds and rank. `factor` holds Table
//! 4.4's flops and seconds. [`render`] turns it into [`DOC`]'s generated
//! sections and [`splice`] writes them between their markers.

use crate::num;
use meshgen::Standin;
use se_service::json::Json;
use sparsemat::SymmetricPattern;
use spectral_env::report::{group_digits as digits, Comparison, ComparisonRow};
use spectral_env::Algorithm;
use std::fmt::Write as _;

/// The ledger file, relative to the repository root.
pub const LEDGER: &str = "BENCH_quality.json";

/// The document whose marked sections are rendered from the ledger.
pub const DOC: &str = "EXPERIMENTS.md";

/// Labellings per stand-in: seed 0 (as generated) and seeds 1–7.
pub const SEEDS: u64 = 8;

/// λ₂ of six small stand-ins' Laplacians from the dense eigensolver
/// (`DenseSym::eigh`), to seven significant digits. λ₂ does not depend on
/// the labelling. BCSSTK13's is a multiple eigenvalue.
pub const DENSE_LAMBDA2: [(&str, f64); 6] = [
    ("BCSSTK13", 1.926109e-2),
    ("CAN1072", 2.685721e-2),
    ("POW9", 5.512816e-3),
    ("BLKHOLE", 3.165834e-3),
    ("DWT2680", 6.484230e-3),
    ("SSTMODEL", 3.985202e-3),
];

/// The dense λ₂ of stand-in `name`, if recorded.
pub fn dense_lambda2(name: &str) -> Option<f64> {
    DENSE_LAMBDA2.iter().find(|e| e.0 == name).map(|e| e.1)
}

/// The stand-in's pattern relabelled by `scramble(n, seed)`, or as
/// generated when `seed` is 0.
pub fn labelled(s: &Standin, seed: u64) -> SymmetricPattern {
    match seed {
        0 => s.pattern.clone(),
        _ => s
            .pattern
            .permute(&meshgen::scramble(s.pattern.n(), seed))
            .expect("a permutation"),
    }
}

/// The ledger rows of one comparison, in its algorithm order.
pub fn rows(name: &str, seed: u64, c: &Comparison) -> Vec<Json> {
    let row = |r: &ComparisonRow| {
        Json::obj(vec![
            ("matrix", Json::Str(name.into())),
            ("seed", num(seed)),
            ("alg", Json::Str(r.algorithm.name().into())),
            ("envelope", num(r.stats.envelope_size)),
            ("bandwidth", num(r.stats.bandwidth)),
            ("ework", num(r.stats.envelope_work)),
            ("seconds", Json::Num((r.seconds * 1e4).round() / 1e4)),
            ("rank", num(r.rank as u64)),
        ])
    };
    c.rows.iter().map(row).collect()
}

/// Field `key` of a ledger entry as a number; panics naming the key.
pub fn real(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).expect(key)
}

/// Field `key` of a ledger entry as a whole number.
pub fn int(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).expect(key)
}

/// Field `key` of a ledger entry as a string.
pub fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).expect(key)
}

/// Field `key` of a ledger entry as an array.
pub fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).expect(key)
}

/// The rows of `matrix` at `seed`, in `Algorithm::paper_set()` order.
pub fn seed_rows<'a>(rows: &'a [Json], matrix: &str, seed: u64) -> Vec<&'a Json> {
    let own = |r: &&Json| text(r, "matrix") == matrix && int(r, "seed") == seed;
    rows.iter().filter(own).collect()
}

/// Field `key` of each of `rows`.
fn column(rows: &[&Json], key: &str) -> Vec<f64> {
    rows.iter().map(|r| real(r, key)).collect()
}

/// Field `key` of a stand-in's paper row.
fn paper(s: &Json, key: &str) -> Vec<f64> {
    let row = s.get("paper").expect("paper");
    list(row, key).iter().filter_map(Json::as_f64).collect()
}

/// Index of the first smallest value: the winner under the rank rule
/// (ties go to the algorithm listed first).
fn winner(v: &[f64]) -> usize {
    (0..v.len()).fold(0, |best, i| if v[i] < v[best] { i } else { best })
}

/// The name of entry `i` of the paper set (SPECTRAL, GK, GPS, RCM).
fn name_of(i: usize) -> &'static str {
    Algorithm::paper_set()[i].name()
}

fn whole(x: f64) -> String {
    digits(x as u64)
}

fn slashed(v: &[f64], cell: fn(f64) -> String) -> String {
    v.iter().map(|&x| cell(x)).collect::<Vec<_>>().join(" / ")
}

/// A markdown table: the header and rule lines, then one line per row.
fn table(head: &str, rows: impl Iterator<Item = Vec<String>>) -> String {
    let rows: Vec<String> = rows.map(|r| format!("| {} |\n", r.join(" | "))).collect();
    format!("{head}\n{}", rows.concat())
}

const SIZES: &str = "| Matrix | Table | n | paper n | nnz | paper nnz | Δnnz | structure class |
|---|---|---|---|---|---|---|---|";
const RESULTS: &str = "| Matrix | SPECTRAL | GK | GPS | RCM | winner (paper) | RCM / SPECTRAL (paper) | SPECTRAL, seeds 0–7 | bandwidth S / GK / GPS / RCM (paper) | seconds S / GK / GPS / RCM |
|---|---|---|---|---|---|---|---|---|---|";
const FACTOR: &str = "| Matrix | ordering | envelope | Ework | flops | factor time (s) | paper envelope | paper time (s) |
|---|---|---|---|---|---|---|---|";
const BOUNDS: &str = "| Matrix | n | Δ | λ returned | dense λ₂ | best Esize | ratio to bound | best Ework | ratio to bound |
|---|---|---|---|---|---|---|---|---|";

/// The markdown of every generated section of [`DOC`], by marker name.
pub fn render(ledger: &Json) -> Vec<(&'static str, String)> {
    let standins = list(ledger, "standins");
    let rows = list(ledger, "rows");
    vec![
        ("headline", headline(ledger, standins, rows)),
        ("sizes", sizes(standins)),
        ("table_4_1", results(standins, rows, "4.1")),
        ("table_4_2", results(standins, rows, "4.2")),
        ("table_4_3", results(standins, rows, "4.3")),
        ("table_4_4", factor(list(ledger, "factor"))),
        ("bounds", bounds(standins)),
    ]
}

fn measured(standins: &[Json]) -> impl Iterator<Item = &Json> {
    standins.iter().filter(|s| s.get("skipped").is_none())
}

fn headline(ledger: &Json, standins: &[Json], rows: &[Json]) -> String {
    let scope = match ledger.get("max_n").and_then(Json::as_u64) {
        None => "every stand-in (no `SE_MAX_N` cap)".to_string(),
        Some(cap) => format!("the stand-ins with n ≤ {} (`SE_MAX_N`)", digits(cap)),
    };
    let seed0: Vec<(&Json, Vec<&Json>)> = measured(standins)
        .map(|s| (s, seed_rows(rows, text(s, "matrix"), 0)))
        .collect();
    let total = seed0.len();
    let count =
        |holds: &dyn Fn(&Json, &[&Json]) -> bool| seed0.iter().filter(|(s, r)| holds(s, r)).count();
    // Whether entry `i` of `v` is a smallest one (ties count).
    let least = |v: &[f64], i: usize| v[i] <= v[winner(v)];
    let negated = |v: Vec<f64>| v.iter().map(|x| -x).collect::<Vec<_>>();
    let wins = count(&|_, r| least(&column(r, "envelope"), 0));
    let paper_wins = count(&|s, _| least(&paper(s, "envelope"), 0));
    let agree = count(&|s, r| winner(&column(r, "envelope")) == winner(&paper(s, "envelope")));
    let gps = count(&|_, r| least(&column(r, "bandwidth"), 2));
    let wider = count(&|_, r| real(r[0], "bandwidth") > real(r[2], "bandwidth"));
    let slowest = count(&|_, r| least(&negated(column(r, "seconds")), 0));
    let fastest = count(&|_, r| least(&column(r, "seconds"), 3));
    let spectral_first = |r: &&Json| text(r, "alg") == name_of(0) && int(r, "rank") == 1;
    let all_wins = rows.iter().filter(spectral_first).count();
    let commit = text(ledger, "commit");
    format!(
        "Ledger `{LEDGER}`: {} build on {} cores, commit `{}`, {scope}.\n\n\
         - **SPECTRAL rank 1 in {wins} of {total}** stand-ins at the generated labelling \
         (paper: {paper_wins} of {total}), and in {all_wins} of {} stand-in × labelling \
         pairs (seeds 0–{}).\n\
         - The seed-0 winner is the paper's winner in {agree} of {total} rows.\n\
         - GPS has the smallest bandwidth of the four in {gps} of {total} rows (ties \
         count), and SPECTRAL's bandwidth exceeds GPS's in {wider} of {total}.\n\
         - SPECTRAL takes the longest to order in {slowest} of {total} rows, and RCM the \
         shortest in {fastest} of {total}.\n",
        text(ledger, "profile"),
        int(ledger, "cores"),
        &commit[..commit.len().min(10)],
        rows.len() / 4,
        SEEDS - 1,
    )
}

fn sizes(standins: &[Json]) -> String {
    let row = |s: &Json| {
        let [n, paper_n, nnz, paper_nnz] = ["n", "paper_n", "nnz", "paper_nnz"].map(|k| real(s, k));
        let mut cells = vec![text(s, "matrix").into(), text(s, "table").into()];
        cells.extend([n, paper_n, nnz, paper_nnz].map(whole));
        cells.push(format!("{:+.1}%", 100.0 * (nnz / paper_nnz - 1.0)));
        cells.push(text(s, "class").into());
        cells
    };
    table(SIZES, standins.iter().map(row))
        + "\n(nnz is the paper's convention: lower triangle including the diagonal.)\n"
}

fn results(standins: &[Json], rows: &[Json], id: &str) -> String {
    let row = |s: &Json| {
        let name = text(s, "matrix");
        if s.get("skipped").is_some() {
            let n = whole(real(s, "n"));
            return vec![name.into(), format!("skipped: n = {n} is over `SE_MAX_N`")];
        }
        let r = seed_rows(rows, name, 0);
        let (env, paper_env) = (column(&r, "envelope"), paper(s, "envelope"));
        let won = winner(&env);
        let mut cells = vec![name.to_string()];
        cells.extend(env.iter().enumerate().map(|(i, &e)| match i == won {
            true => format!("**{}**", whole(e)),
            false => whole(e),
        }));
        let seeds = rows
            .iter()
            .filter(|r| text(r, "matrix") == name && text(r, "alg") == name_of(0));
        let spectral: Vec<f64> = seeds.map(|r| real(r, "envelope")).collect();
        let lo = spectral.iter().copied().fold(f64::MAX, f64::min);
        let hi = spectral.iter().copied().fold(f64::MIN, f64::max);
        let bandwidth = slashed(&column(&r, "bandwidth"), whole);
        let (ratio, paper_ratio) = (env[3] / env[0], paper_env[3] / paper_env[0]);
        cells.extend([
            format!("{} ({})", name_of(won), name_of(winner(&paper_env))),
            format!("{ratio:.2} ({paper_ratio:.2})"),
            format!("{}–{}", whole(lo), whole(hi)),
            format!("{bandwidth} ({})", slashed(&paper(s, "bandwidth"), whole)),
            slashed(&column(&r, "seconds"), |t| format!("{t:.4}")),
        ]);
        cells
    };
    let own = standins.iter().filter(|s| text(s, "table") == id);
    table(RESULTS, own.map(row))
}

fn factor(factor: &[Json]) -> String {
    if factor.is_empty() {
        return "(none measured: every Table 4.4 matrix is over `SE_MAX_N`)\n".to_string();
    }
    let row = |f: &Json| {
        let mut cells = vec![text(f, "matrix").to_string(), text(f, "alg").to_string()];
        cells.extend(["envelope", "ework"].map(|k| whole(real(f, k))));
        cells.push(format!("{:.3e}", real(f, "flops")));
        cells.push(format!("{:.4}", real(f, "seconds")));
        cells.push(whole(real(f, "paper_envelope")));
        cells.push(real(f, "paper_seconds").to_string());
        cells
    };
    let mut out = table(FACTOR, factor.iter().map(row)) + "\n";
    for pair in factor.chunks(2) {
        let over = |k: &str| format!("{:.2}×", real(&pair[1], k) / real(&pair[0], k));
        let [env, flops, time] = ["envelope", "flops", "seconds"].map(over);
        let [paper_env, paper_time] = ["paper_envelope", "paper_seconds"].map(over);
        let name = text(&pair[0], "matrix");
        let _ = writeln!(out, "- {name}: RCM / SPECTRAL envelope {env}, flops {flops}, factor time {time} (paper: envelope {paper_env}, time {paper_time}).");
    }
    out
}

fn bounds(standins: &[Json]) -> String {
    let row = |s: &Json| {
        let shown = |key: &str, cell: fn(f64) -> String| {
            s.get(key)
                .and_then(Json::as_f64)
                .map_or("—".to_string(), cell)
        };
        let [n, delta] = ["n", "max_degree"].map(|k| whole(real(s, k)));
        let mut cells = vec![text(s, "matrix").to_string(), n, delta];
        cells
            .extend(["lambda_returned", "lambda2_dense"].map(|k| shown(k, |l| format!("{l:.6e}"))));
        cells.push(whole(real(s, "best_envelope")));
        cells.push(shown("esize_ratio", |r| format!("{r:.1}")));
        cells.push(whole(real(s, "best_ework")));
        cells.push(shown("ework_ratio", |r| format!("{r:.1}")));
        cells
    };
    table(BOUNDS, measured(standins).map(row))
}

/// Replaces the body of each marked section of `doc` — the lines between
/// `<!-- BEGIN quality_report:NAME -->` and `<!-- END quality_report:NAME
/// -->` — with the rendered markdown.
pub fn splice(doc: &str, sections: &[(&str, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, body) in sections {
        let begin = format!("<!-- BEGIN quality_report:{name} -->\n");
        let end = format!("<!-- END quality_report:{name} -->");
        let missing = |marker: &str| format!("{DOC} lacks the marker `{}`", marker.trim_end());
        let start = out.find(&begin).ok_or_else(|| missing(&begin))? + begin.len();
        let stop = start + out[start..].find(&end).ok_or_else(|| missing(&end))?;
        out.replace_range(start..stop, body);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_replaces_only_the_marked_bodies() {
        let doc =
            "intro\n<!-- BEGIN quality_report:a -->\nold\n<!-- END quality_report:a -->\nrest\n";
        let out = splice(doc, &[("a", "new\n".to_string())]).unwrap();
        assert_eq!(
            out,
            "intro\n<!-- BEGIN quality_report:a -->\nnew\n<!-- END quality_report:a -->\nrest\n"
        );
        assert!(splice(doc, &[("b", String::new())]).is_err());
    }

    #[test]
    fn winner_breaks_ties_toward_the_earlier_algorithm() {
        assert_eq!(winner(&[5.0, 3.0, 3.0, 4.0]), 1);
        assert_eq!(winner(&[2.0, 3.0, 3.0, 2.0]), 0);
    }
}
