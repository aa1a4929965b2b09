//! Before/after comparison of two sets of saved runs (`perfbench diff
//! BEFORE AFTER`). Each side is a directory of files (or one file), each
//! holding the standard output of one untraced run. Runs are grouped by
//! the workload named in their stamp line and paired in file-name order.
//!
//! For every workload × end-to-end metric it prints both sides' median and
//! quartiles, the share of pairs the change won (ties count for neither)
//! and a verdict:
//! * `unresolved` — the parent's own run-to-run spread (interquartile
//!   distance over median) is wider than the metric's bound, unless every
//!   run of the change beats every run of the parent;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `better` — the change won at least nine tenths of the pairs and the
//!   medians differ by more than the parent's interquartile distance;
//! * `same` otherwise.

use crate::spec::{spec, Better, Metric};
use crate::stats;
use se_service::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One parsed run: its workload, its metric values and the host's CPU
/// steal share during its window.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub metrics: BTreeMap<String, f64>,
    pub steal: Option<f64>,
}

/// Parses the standard output of one run.
pub fn parse_run(text: &str) -> Result<RunRecord, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let stamp = lines
        .iter()
        .find_map(|l| json::parse(l).ok().filter(|j| j.get("stamp").is_some()))
        .ok_or("no stamp line")?;
    let stamp = stamp.get("stamp").ok_or("stamp line without stamp")?;
    let workload = stamp
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("stamp without workload")?
        .to_string();
    let steal = stamp.get("host_steal_share").and_then(Json::as_f64);
    let last = json::parse(lines.last().ok_or("empty output")?).map_err(|e| format!("{e:?}"))?;
    let metrics = match last.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("last line has no metrics".to_string()),
    };
    Ok(RunRecord {
        workload,
        metrics,
        steal,
    })
}

fn files(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    out.retain(|p| p.is_file());
    out.sort();
    Ok(out)
}

fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    files(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// The comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub before: (f64, f64, f64),
    pub after: (f64, f64, f64),
    pub wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// Whether `a` is better than `b` under `better`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Compares the runs of one metric. Needs at least two runs per side.
pub fn compare(metric: &Metric, before: &[f64], after: &[f64]) -> Option<Row> {
    let b = stats::quartiles(before)?;
    let a = stats::quartiles(after)?;
    let (b_med, a_med) = (stats::median(before)?, stats::median(after)?);
    let bound = metric.bound.unwrap_or(0.0);
    let pairs = before.len().min(after.len());
    let wins = (0..pairs)
        .filter(|&i| beats(metric.better, after[i], before[i]))
        .count();
    let dominates = after
        .iter()
        .all(|&x| before.iter().all(|&y| beats(metric.better, x, y)));
    let worse_by = match metric.better {
        Better::Lower => (a_med - b_med) / b_med.abs(),
        Better::Higher => (b_med - a_med) / b_med.abs(),
    };
    let spread = stats::spread(before).unwrap_or(0.0);
    let verdict = if spread > bound && !dominates {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if (wins as f64) >= 0.9 * pairs as f64 && (a_med - b_med).abs() > b.2 - b.0 {
        "better"
    } else {
        "same"
    };
    Some(Row {
        before: (b.0, b_med, b.2),
        after: (a.0, a_med, a.2),
        wins,
        pairs,
        verdict,
    })
}

/// `perfbench diff BEFORE AFTER`: prints the table; exits non-zero when
/// any metric got worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [before, after] = args else {
        return Err(
            "usage: perfbench diff BEFORE AFTER (directories or files of saved run output)".into(),
        );
    };
    let (before, after) = (load(Path::new(before))?, load(Path::new(after))?);
    let mut workloads: Vec<&str> = before.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    println!(
        "{:<14} {:<18} {:>32} {:>32} {:>7} verdict",
        "workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "wins"
    );
    for wl in workloads {
        let side = |runs: &[RunRecord], m: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == wl)
                .filter_map(|r| r.metrics.get(m).copied())
                .collect()
        };
        // A host whose co-tenants took more CPU on one side moves every
        // timing on that side; show it next to the verdicts.
        let steal = |runs: &[RunRecord]| -> String {
            let v: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == wl)
                .filter_map(|r| r.steal)
                .collect();
            stats::median(&v).map_or("n/a".to_string(), |m| format!("{:.1}%", m * 100.0))
        };
        println!(
            "{wl:<14} host steal median: before {}, after {}",
            steal(&before),
            steal(&after)
        );
        for metric in &spec().end_to_end {
            let (b, a) = (side(&before, &metric.name), side(&after, &metric.name));
            let Some(row) = compare(metric, &b, &a) else {
                println!("{wl:<14} {:<18} needs two runs on each side", metric.name);
                continue;
            };
            regressed |= row.verdict == "worse";
            let fmt = |(q1, m, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            println!(
                "{wl:<14} {:<18} {:>32} {:>32} {:>3}/{:<3} {} ({}, bound {})",
                metric.name,
                fmt(row.before),
                fmt(row.after),
                row.wins,
                row.pairs,
                row.verdict,
                metric.unit,
                metric.bound.unwrap_or(0.0),
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn verdicts_follow_the_rules() {
        let p50 = end_to_end("order_p50_ms").unwrap();
        let before = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = before.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = before.iter().map(|x| x * 1.5).collect();
        assert_eq!(compare(p50, &before, &faster).unwrap().verdict, "better");
        assert_eq!(compare(p50, &before, &slower).unwrap().verdict, "worse");
        assert_eq!(compare(p50, &before, &before).unwrap().verdict, "same");
        let row = compare(p50, &before, &faster).unwrap();
        assert_eq!((row.wins, row.pairs), (10, 10));
        // A parent spread wider than the bound leaves the metric unresolved…
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let slightly: Vec<f64> = noisy.iter().map(|x| x * 0.97).collect();
        assert_eq!(
            compare(p50, &noisy, &slightly).unwrap().verdict,
            "unresolved"
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(
            compare(p50, &noisy, &[1.0, 2.0, 3.0]).unwrap().verdict,
            "better"
        );
        // Throughput is better when higher.
        let tput = end_to_end("orders_per_s").unwrap();
        assert_eq!(compare(tput, &before, &slower).unwrap().verdict, "better");
        assert!(compare(tput, &[1.0], &[1.0]).is_none());
    }

    #[test]
    fn parses_saved_run_output() {
        let text = "perfbench hit_replay seed=3\n  orders_per_s 100 1/s\n\
                    {\"stamp\":{\"workload\":\"hit_replay\",\"seed\":3,\"host_steal_share\":0.5}}\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"orders_per_s\":{\"value\":101.5,\"unit\":\"1/s\"}}}\n";
        let r = parse_run(text).unwrap();
        assert_eq!(r.workload, "hit_replay");
        assert_eq!(r.metrics.get("orders_per_s"), Some(&101.5));
        assert_eq!(r.steal, Some(0.5));
        assert!(parse_run("{\"correct\":true}\n").is_err());
    }
}
