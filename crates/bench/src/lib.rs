//! Benchmark harness regenerating every table and figure of the paper.
//! Run a binary with `cargo run -p se-bench --release --bin <name>`:
//! `quality_report` (Tables 4.1–4.4 and the Theorem 2.2 bounds as the ledger
//! `BENCH_quality.json`, see [`quality`]), `figures_4_x` (Figs 4.1–4.5),
//! `parallel_report` (TraceMin threads vs wall clock), the studies
//! `scaling_report`, `storage_report`, `compression_report` and
//! `ablation_report`, and `selfcheck`. Set `SE_MAX_N=<n>` to skip
//! stand-ins larger than `n`.

#![forbid(unsafe_code)]

pub mod harness;
pub mod paper;
pub mod quality;

use se_service::json::Json;

/// The environment variable capping matrix order in table runs.
pub const MAX_N_ENV: &str = "SE_MAX_N";

/// Returns the `SE_MAX_N` cap, if set and parseable.
pub fn max_n() -> Option<usize> {
    std::env::var(MAX_N_ENV).ok().and_then(|s| s.parse().ok())
}

/// A whole number as a JSON number.
pub fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// The stamp every committed `BENCH_*.json` opens with: the host's core
/// count, the build profile and the checked-out commit (`git rev-parse
/// HEAD`, `unknown` outside a git checkout).
pub fn stamp() -> Vec<(&'static str, Json)> {
    let profile = ["release", "debug"][usize::from(cfg!(debug_assertions))];
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("cores", num(sparsemat::par::available_threads() as u64)),
        ("profile", Json::Str(profile.into())),
        ("commit", Json::Str(commit)),
    ]
}

/// Writes a report object to `path`, one field per line and one line per
/// element of an array field, so a diff of the file shows which rows moved.
pub fn write_report(path: &str, fields: Vec<(&str, Json)>) -> std::io::Result<()> {
    let field = |(key, value): (&str, Json)| {
        let value = match value {
            Json::Arr(items) if !items.is_empty() => {
                let items: Vec<String> = items.iter().map(Json::to_string_compact).collect();
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
            v => v.to_string_compact(),
        };
        format!("  {}: {value}", Json::Str(key.into()).to_string_compact())
    };
    let lines: Vec<String> = fields.into_iter().map(field).collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_n_parses() {
        // Not set in the test environment unless exported.
        let _ = max_n();
    }

    #[test]
    fn reports_parse_back_with_one_array_element_per_line() {
        let path =
            std::env::temp_dir().join(format!("se_bench_report_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let rows = Json::Arr(vec![
            Json::Num(1.0),
            Json::obj(vec![("a", Json::Bool(true))]),
        ]);
        let mut fields = stamp();
        fields.push(("rows", rows.clone()));
        write_report(path, fields).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert!(text.contains("\n    {\"a\":true}\n"), "{text}");
        let back = se_service::json::parse(&text).unwrap();
        assert_eq!(back.get("rows"), Some(&rows));
        assert!(back.get("commit").and_then(Json::as_str).is_some());
    }
}
