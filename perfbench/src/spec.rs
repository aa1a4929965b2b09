//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root (compiled in, so there is one copy of it): the workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics of the traced run.

use se_service::json::{self, Json};
use std::sync::OnceLock;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for the
    /// unbounded per-layer metrics).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures, passed to every run as `--seconds`.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// Reported by every untraced run (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Reported by every traced run (`--trace 1`); a layer that a
    /// workload's requests never reach reports 0.
    pub per_layer: Vec<Metric>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The benchmark's contract, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    spec().end_to_end.iter().find(|m| m.name == name)
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key} entry without {f}"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("better must be lower or higher, not {other}")),
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("{e:?}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads list")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload without name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("no run_seconds")?,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_every_workload_runs() {
        let s = spec();
        assert!(s.run_seconds > 0);
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        for w in &s.workloads {
            assert!(
                crate::run::Kind::from_name(w).is_some(),
                "{w} has no driver"
            );
        }
    }
}
