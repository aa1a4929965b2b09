//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p se-bench --release --bin <name>`):
//!
//! * `table_4_1` — Boeing–Harwell structural matrices (envelope, bandwidth,
//!   run time, rank for SPECTRAL/GK/GPS/RCM),
//! * `table_4_2` — Boeing–Harwell miscellaneous matrices,
//! * `table_4_3` — NASA matrices,
//! * `table_4_4` — envelope factorization times (SPECTRAL vs RCM),
//! * `figures_4_x` — spy plots of BARTH4 under all orderings (Figs 4.1–4.5),
//! * `bounds_report` — Theorem 2.2 eigenvalue bounds vs achieved envelopes,
//! * `size_report` — stand-in sizes vs the paper's matrices,
//! * `parallel_report` — serial vs threaded TraceMin-Fiedler; verifies
//!   bit-identical permutations and writes `BENCH_parallel.json`.
//!
//! Each table binary prints, next to our measurements, the paper's reported
//! numbers and the win/loss pattern, so shape-level agreement can be read
//! off directly. Set `SE_MAX_N=<n>` to skip stand-ins larger than `n`
//! (useful for quick smoke runs).

#![forbid(unsafe_code)]

pub mod harness;
pub mod paper;

use meshgen::Standin;
use spectral_env::report::{compare_orderings, group_digits, Comparison};
use spectral_env::Algorithm;

/// The environment variable capping matrix order in table runs.
pub const MAX_N_ENV: &str = "SE_MAX_N";

/// When set, `run_table` appends machine-readable CSV rows
/// (`matrix,algorithm,n,nnz,envelope,bandwidth,seconds,rank`) to this path.
pub const CSV_ENV: &str = "SE_CSV";

/// Returns the `SE_MAX_N` cap, if set and parseable.
pub fn max_n() -> Option<usize> {
    std::env::var(MAX_N_ENV).ok().and_then(|s| s.parse().ok())
}

/// Runs the four paper algorithms on a stand-in and renders a table block
/// in the layout of Tables 4.1–4.3, with the paper's numbers alongside.
pub fn run_standin_block(s: &Standin) -> Result<String, spectral_env::Error> {
    let comparison = compare_orderings(&s.pattern, &Algorithm::paper_set())?;
    Ok(format_block(s, &comparison))
}

/// Formats one matrix block: measured envelope/bandwidth/time/rank plus the
/// paper's reference values and ranks.
pub fn format_block(s: &Standin, c: &Comparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{}  [{}]\n  stand-in: {} equations, {} nonzeros   (paper: {}, {})\n",
        s.name,
        s.class,
        group_digits(c.n as u64),
        group_digits(c.nnz as u64),
        group_digits(s.paper_n as u64),
        group_digits(s.paper_nnz as u64),
    ));
    out.push_str(&format!(
        "  {:<9} {:>14} {:>9} {:>8} {:>4}   | {:>14} {:>9} {:>4}\n",
        "Algorithm", "Envelope", "Bandw.", "Time(s)", "Rank", "paper Env", "paper Bw", "pRk"
    ));
    let paper = paper::reference(s.name);
    for (i, row) in c.rows.iter().enumerate() {
        let (p_env, p_bw, p_rank) = match &paper {
            Some(p) => (
                group_digits(p.envelope[i]),
                group_digits(p.bandwidth[i]),
                p.rank_by_envelope(i).to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        out.push_str(&format!(
            "  {:<9} {:>14} {:>9} {:>8.2} {:>4}   | {:>14} {:>9} {:>4}\n",
            row.algorithm.name(),
            group_digits(row.stats.envelope_size),
            group_digits(row.stats.bandwidth),
            row.seconds,
            row.rank,
            p_env,
            p_bw,
            p_rank,
        ));
    }
    // Shape summary: does SPECTRAL win here as (or unlike) in the paper?
    if let Some(p) = &paper {
        let we_win = c.rows[0].rank == 1;
        let paper_wins = p.rank_by_envelope(0) == 1;
        let spectral_vs_rcm =
            c.rows[3].stats.envelope_size as f64 / c.rows[0].stats.envelope_size.max(1) as f64;
        let paper_ratio = p.envelope[3] as f64 / p.envelope[0] as f64;
        out.push_str(&format!(
            "  shape: SPECTRAL best here: {we_win} (paper: {paper_wins}); RCM/SPECTRAL envelope ratio {spectral_vs_rcm:.2} (paper {paper_ratio:.2})\n",
        ));
    }
    out
}

/// Runs every stand-in of a table, respecting `SE_MAX_N`, and prints blocks.
pub fn run_table(table: meshgen::TableId, title: &str) {
    println!("==== {title} ====");
    println!("(algorithms: SPECTRAL, GK, GPS, RCM; rank 1 = smallest envelope)\n");
    let cap = max_n();
    for s in meshgen::all_standins(table) {
        if let Some(cap) = cap {
            if s.pattern.n() > cap {
                println!(
                    "{}: skipped (n = {} > SE_MAX_N = {cap})\n",
                    s.name,
                    s.pattern.n()
                );
                continue;
            }
        }
        match compare_orderings(&s.pattern, &Algorithm::paper_set()) {
            Ok(c) => {
                println!("{}", format_block(&s, &c));
                if let Ok(path) = std::env::var(CSV_ENV) {
                    if let Err(e) = append_csv(&path, &s, &c) {
                        eprintln!("(csv write failed: {e})");
                    }
                }
            }
            Err(e) => println!("{}: FAILED — {e}\n", s.name),
        }
    }
}

/// Appends one CSV row per algorithm for a finished comparison. Writes a
/// header if the file does not exist yet.
pub fn append_csv(path: &str, s: &Standin, c: &Comparison) -> std::io::Result<()> {
    use std::io::Write;
    let exists = std::path::Path::new(path).exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if !exists {
        writeln!(f, "matrix,algorithm,n,nnz,envelope,bandwidth,seconds,rank")?;
    }
    for row in &c.rows {
        writeln!(
            f,
            "{},{},{},{},{},{},{:.4},{}",
            s.name,
            row.algorithm.name(),
            c.n,
            c.nnz,
            row.stats.envelope_size,
            row.stats.bandwidth,
            row.seconds,
            row.rank
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_runs_on_a_small_standin() {
        let s = meshgen::standin("POW9").unwrap();
        let block = run_standin_block(&s).unwrap();
        assert!(block.contains("POW9"));
        assert!(block.contains("SPECTRAL"));
        assert!(block.contains("paper Env"));
    }

    #[test]
    fn max_n_parses() {
        // Not set in the test environment unless exported.
        let _ = max_n();
    }

    #[test]
    fn csv_export_writes_rows() {
        let s = meshgen::standin("POW9").unwrap();
        let c = compare_orderings(&s.pattern, &Algorithm::paper_set()).unwrap();
        let dir = std::env::temp_dir().join("se_bench_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.csv");
        let _ = std::fs::remove_file(&path);
        append_csv(path.to_str().unwrap(), &s, &c).unwrap();
        append_csv(path.to_str().unwrap(), &s, &c).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 2 * 4, "header + 8 rows");
        assert!(lines[0].starts_with("matrix,algorithm"));
        assert!(lines[1].starts_with("POW9,SPECTRAL"));
    }
}
