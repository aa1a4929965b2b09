//! `perfbench` — the end-to-end and per-layer benchmark of `spectral-orderd`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench diff BEFORE AFTER
//! ```
//!
//! A run starts the daemon in-process (`se_service::serve`), drives one
//! closed-loop workload over loopback from this process, checks every
//! answer, and prints a summary, a stamp line and — as its last line — one
//! JSON result. `--trace 1` adds the per-layer timings and prints those
//! metrics instead of the end-to-end ones. See `perfbench/README.md`.

mod cluster;
mod diff;
mod inputs;
mod layers;
mod procfs;
mod run;
mod spec;
mod stats;
mod wire;

use run::Kind;
use se_service::json::Json;
use std::process::ExitCode;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: spec::spec().run_seconds as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if Kind::from_name(&opts.workload).is_none() {
        let names = spec::spec().workloads.join(", ");
        return Err(format!("--workload must be one of {names}"));
    }
    Ok(opts)
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// A JSON number with all its digits (non-finite values, which only a
/// failed run can produce, become a huge finite number).
fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { f64::MAX })
}

fn str_json(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![("value", num(value)), ("unit", str_json(unit))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn execute(opts: &Opts) -> std::io::Result<bool> {
    let kind = Kind::from_name(&opts.workload).expect("validated workload");
    let mesh = match kind {
        Kind::MeshChurn => Some(cluster::mesh_names()?),
        _ => None,
    };
    // Inputs are generated and encoded before any clock starts.
    let plan = inputs::plan(kind, opts.seed, mesh.as_ref());
    let (cfg, changed) = run::config(kind, &plan);
    let setups = if opts.trace { 1 } else { run::setups(kind) };
    let mut setup_s = Vec::with_capacity(setups);
    let mut failures: Vec<String> = Vec::new();
    let mut previous: Option<Vec<wire::Answer>> = None;
    let mut session = None;
    for k in 0..setups {
        let (s, secs) = run::set_up(kind, &cfg, &plan, mesh.as_ref())?;
        setup_s.push(secs);
        if previous.as_ref().is_some_and(|p| *p != s.canon) {
            failures.push("a restarted daemon answered a warm-up request differently".to_string());
        }
        if k + 1 < setups {
            previous = Some(s.canon.clone());
            run::tear_down(s)?;
        } else {
            session = Some(s);
        }
    }
    let mut s = session.expect("at least one set-up");
    let before = s.cluster.stats();
    let w = run::timed_window(kind, &plan, &mut s, opts.seconds)?;
    let after = s.cluster.stats();
    let checked = run::check(&plan, &s, &w);
    failures.extend(checked.failures);
    let traced = match opts.trace {
        true => Some(layers::traced(
            kind, &cfg, &plan, &mut s, &w, &before, &after,
        )?),
        false => None,
    };
    run::tear_down(s)?;

    if let Some(t) = &traced {
        failures.extend(t.failures.iter().cloned());
    }
    // The window counts its own errors and mismatches; every other failed
    // check counts once more.
    let failed = w.failed() + failures.len();
    let e2e = run::end_to_end(&setup_s, &w, checked.envelope_ratio, failed);
    let attempted = w.samples.len();
    println!(
        "perfbench {} seed={} trace={} window={:.2}s orders={} (beyond p95: {}, highest supported percentile: {})",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        w.wall_s,
        attempted,
        stats::beyond(attempted, 95.0),
        stats::highest_supported(attempted).map_or("none".to_string(), |p| format!("p{p}")),
    );
    for (name, value) in &e2e {
        let unit = spec::end_to_end(name).map_or("", |m| m.unit.as_str());
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!(
        "  setup_s samples: {:?}; failed_share {:.6}, degraded_share {:.6}",
        setup_s,
        1.0 - e2e[7].1,
        1.0 - e2e[8].1
    );
    println!(
        "  host CPU steal during the window: {:.1}%",
        w.host_steal * 100.0
    );
    if let Some(t) = &traced {
        for (name, value) in &t.metrics {
            println!("  {name:<28} {value:>14.3}");
        }
        let get = |n: &str| t.metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        println!(
            "  tracing overhead: engine.server_us traced {:.1} vs untraced {:.1}",
            get("engine.server_us"),
            get("engine.server_untraced_us")
        );
        for note in &t.notes {
            println!("  {note}");
        }
    }
    for f in checked.defects.iter().chain(&failures) {
        println!("  CHECK FAILED: {f}");
    }
    if let Some(e) = &w.first_error {
        println!("  first error answer: {e}");
    }
    let correct = failed == 0;
    let config = changed
        .iter()
        .map(|(k, v)| (k.to_string(), str_json(v.clone())))
        .collect();
    let stamp = Json::obj(vec![
        ("workload", str_json(opts.workload.clone())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("orders", Json::Num(attempted as f64)),
        ("window_s", num(w.wall_s)),
        ("host_steal_share", num(w.host_steal)),
        ("setups", Json::Num(setup_s.len() as f64)),
        ("nproc", Json::Num(run::solver_threads() as f64)),
        (
            "parallel",
            Json::Bool(sparsemat::par::TaskPool::new(2).is_parallel()),
        ),
        (
            "profile",
            str_json(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("solver_threads", Json::Num(cfg.solver_threads as f64)),
        ("config", Json::Obj(config)),
        ("git_commit", str_json(git_commit())),
    ]);
    println!("{}", Json::obj(vec![("stamp", stamp)]).to_string_compact());
    let (list, values) = match &traced {
        Some(t) => (&spec::spec().per_layer, &t.metrics),
        None => (&spec::spec().end_to_end, &e2e),
    };
    let metrics: Vec<(&str, f64, &str)> = list
        .iter()
        .filter_map(|m| {
            let v = values.iter().find(|v| v.0 == m.name)?.1;
            Some((m.name.as_str(), v, m.unit.as_str()))
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return match diff::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench diff: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
