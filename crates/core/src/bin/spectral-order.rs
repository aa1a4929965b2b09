//! `spectral-order` — command-line envelope reduction.
//!
//! ```text
//! spectral-order <matrix.{mtx,rsa,rua,graph}> [options]
//!   --alg <spectral|rcm|gps|gk|sloan|hybrid|refined|mindeg|nd|cm>
//!                      ordering (default spectral)
//!   --threads <N>      solver threads for tracemin (0 = all cores; the
//!                      other algorithms solve on one thread; results are
//!                      bit-identical for every N)
//!   --compare          run all paper algorithms and print the table
//!   --compressed       order via supervariable compression (multi-DOF models)
//!   --metrics          print the full metric set (work, sums, frontwidths)
//!   --json             print the result as one JSON line (service wire format)
//!   --trace            print the hierarchical span tree of the pipeline
//!                      (per-level coarsen/Lanczos/RQI timings, iteration
//!                      counts) to stderr after the result
//!   --trace-json       print the same span tree as one JSON line on stdout
//!   --out <file.mtx>   write the permuted matrix
//!   --perm <file.txt>  write the permutation (1-based, one per line)
//!   --spy <file.pgm>   write a spy plot of the reordered matrix
//!
//! spectral-order serve [options]
//!   run the spectral-orderd ordering daemon in the foreground; it takes
//!   the same flags as `spectral-orderd` (`spectral-order serve --help`).
//!
//! spectral-order client --addr HOST:PORT <matrix>... [--alg NAME] [--no-perm]
//!                      [--threads N] [--compressed] [--binary] [--trace]
//!                      [--id N] [--retry N] [--pipeline N] [--progress]
//! spectral-order client --addr HOST:PORT --stats
//! spectral-order client --addr HOST:PORT --metrics-text
//! spectral-order client --addr HOST:PORT --cancel ID
//! spectral-order client --addr HOST:PORT --shutdown
//!   talk to a running daemon: one file sends ORDER, several send one
//!   pipelined BATCH; responses are printed as JSON lines. `--binary`
//!   negotiates binary permutation frames for the transfer (the printed
//!   JSON is identical either way). `--trace` asks the daemon to return the
//!   span tree inside each response; `--id` assigns client ids (consecutive
//!   for a batch) so a second connection can `--cancel` them.
//!   `--metrics-text` prints the Prometheus-style METRICS exposition.
//!   `--retry N` (single ORDER only) retries retriable failures — server
//!   busy, connection refused/reset — up to N attempts on fresh
//!   connections with decorrelated-jitter backoff; fatal errors (bad
//!   input, rate limited) never retry, and CANCEL is never retried.
//!   `--pipeline N` sends the files as individual ORDERs over one
//!   protocol-v2 connection with up to N in flight (responses print in
//!   request order); `--progress` (implies pipelining) subscribes to the
//!   daemon's PROGRESS frames and prints them to stderr as they stream.
//! ```
//!
//! Input format by extension: `.mtx` MatrixMarket, `.graph` Chaco/METIS
//! (pattern only), anything else Harwell–Boeing. Unsymmetric inputs are
//! symmetrized structurally for the ordering; the permuted matrix keeps the
//! original values.

use se_service::proto::{
    self, encode_response, MatrixFormat, MatrixSource, OrderRequest, OrderResponse, Response,
};
use spectral_env::report::compare_orderings;
use spectral_env::{Algorithm, CsrMatrix, SolverOpts};
use std::process::ExitCode;
use std::time::Instant;

/// Parses `--alg`, reporting the accepted vocabulary (shared with the wire
/// decoder — one table in `se_service::proto`) on failure.
fn parse_alg(s: &str) -> Option<Algorithm> {
    let alg = proto::parse_algorithm(s);
    if alg.is_none() {
        eprintln!(
            "unknown algorithm '{s}' (expected one of: {})",
            proto::algorithm_names()
        );
    }
    alg
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spectral-order <matrix.{{mtx,rsa,rua,graph}}> [--alg NAME] [--threads N] \
         [--compare] [--compressed] [--metrics] [--json] [--trace] [--trace-json] \
         [--out FILE.mtx] [--perm FILE.txt] [--spy FILE.pgm]\n\
         \x20      spectral-order serve [options]   (flags: spectral-order serve --help)\n\
         \x20      spectral-order client --addr HOST:PORT (<matrix>... [--alg NAME] [--no-perm] \
         [--threads N] [--compressed] [--binary] [--trace] [--id N] [--retry N] \
         [--pipeline N] [--progress] | --stats | --metrics-text | --cancel ID | --shutdown)\n\
         \x20      --alg NAME: one of {}",
        proto::algorithm_names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return se_service::server::run_daemon("spectral-order serve", &args[1..]),
        Some("client") => return client_main(&args[1..]),
        _ => {}
    }
    let mut input: Option<String> = None;
    let mut alg = Algorithm::Spectral;
    let mut threads = 1usize;
    let mut compare = false;
    let mut compressed = false;
    let mut metrics = false;
    let mut json = false;
    let mut trace = false;
    let mut trace_json = false;
    let mut out: Option<String> = None;
    let mut perm_out: Option<String> = None;
    let mut spy_out: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--alg" => match it.next().as_deref().and_then(parse_alg) {
                Some(x) => alg = x,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threads = t,
                None => return usage(),
            },
            "--compare" => compare = true,
            "--compressed" => compressed = true,
            "--metrics" => metrics = true,
            "--json" => json = true,
            "--trace" => trace = true,
            "--trace-json" => trace_json = true,
            "--out" => out = it.next(),
            "--perm" => perm_out = it.next(),
            "--spy" => spy_out = it.next(),
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ if input.is_none() && !a.starts_with('-') => input = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = input else { return usage() };

    let a: CsrMatrix = if path.ends_with(".mtx") {
        match sparsemat::io::read_matrix_market(&path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if path.ends_with(".graph") {
        match sparsemat::io::read_chaco(&path) {
            Ok(g) => g.to_csr_with(|v| g.degree(v) as f64 + 1.0, -1.0),
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match sparsemat::io::read_harwell_boeing(&path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if !json {
        eprintln!(
            "read {path}: {} x {}, {} nonzeros",
            a.nrows(),
            a.ncols(),
            a.nnz()
        );
    }

    let sym = match a.symmetrize() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot symmetrize: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = sym.pattern().expect("symmetrized pattern is symmetric");

    if compare {
        match compare_orderings(&g, &Algorithm::paper_set()) {
            Ok(c) => println!("{}", c.format_table(&format!("Orderings of {path}"))),
            Err(e) => {
                eprintln!("comparison failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let t0 = Instant::now();
    let tracer = if trace || trace_json {
        spectral_env::Tracer::enabled()
    } else {
        spectral_env::Tracer::disabled()
    };
    let mut solver = SolverOpts::with_threads(threads);
    solver.trace = tracer.clone();
    // Order through the degradation ladder: a misbehaving eigensolver
    // falls back (spectral → Lanczos-only → RCM) instead of failing, and
    // the fallback is reported. A healthy run is bit-identical to the
    // direct path.
    let outcome = if compressed {
        match spectral_env::reorder_pattern_compressed_degraded_with(&g, alg, &solver) {
            Ok(o) => {
                eprintln!(
                    "supervariable compression ratio: {:.2}",
                    o.compression_ratio
                );
                o
            }
            Err(e) => {
                eprintln!("{} (compressed) ordering failed: {e}", alg.name());
                return ExitCode::FAILURE;
            }
        }
    } else {
        match spectral_env::reorder_pattern_degraded_with(&g, alg, &solver) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{} ordering failed: {e}", alg.name());
                return ExitCode::FAILURE;
            }
        }
    };
    let compression_ratio = compressed.then_some(outcome.compression_ratio);
    let ordering = outcome.ordering;
    if let Some(reason) = &outcome.degraded {
        eprintln!(
            "warning: {} degraded to {} ({reason})",
            alg.name(),
            ordering.algorithm.name()
        );
    }
    let span_root = tracer.finish();
    if json {
        // Same record the service emits for ORDER — one tool, one schema.
        let resp = Response::Order(OrderResponse {
            alg: ordering.algorithm.name().to_string(),
            n: g.n(),
            nnz: g.nnz_lower_with_diagonal(),
            stats: ordering.stats,
            perm: Some(ordering.perm.order().to_vec().into()),
            cache_hit: false,
            micros: t0.elapsed().as_micros() as u64,
            compression_ratio,
            degraded: outcome.degraded,
            trace: span_root.as_ref().map(|r| r.render_json().into()),
        });
        println!("{}", encode_response(&resp));
    } else {
        println!(
            "{}: envelope = {}, bandwidth = {}, 1-sum = {}, work = {}",
            ordering.algorithm.name(),
            ordering.stats.envelope_size,
            ordering.stats.bandwidth,
            ordering.stats.one_sum,
            ordering.stats.envelope_work
        );
    }
    if metrics {
        let fw = sparsemat::envelope::frontwidth_stats(&g, &ordering.perm);
        println!(
            "  2-sum = {:.4e}, frontwidth max/mean/rms = {}/{:.1}/{:.1}",
            ordering.stats.two_sum(),
            fw.max,
            fw.mean,
            fw.rms
        );
        println!(
            "  storage: envelope = {} entries, factor |L| = {} entries",
            ordering.stats.envelope_size + g.n() as u64,
            se_envelope::symbolic::factor_size(&g, &ordering.perm),
        );
    }
    if let Some(root) = &span_root {
        if trace {
            eprint!("{}", root.render_text());
        }
        if trace_json && !json {
            println!("{}", root.render_json());
        }
    }

    if let Some(p) = perm_out {
        let mut s = String::new();
        for k in 0..ordering.perm.len() {
            s.push_str(&format!("{}\n", ordering.perm.new_to_old(k) + 1));
        }
        if let Err(e) = std::fs::write(&p, s) {
            eprintln!("cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote permutation to {p}");
    }
    if let Some(o) = out {
        let permuted = a
            .permute_symmetric(&ordering.perm)
            .expect("permutation matches matrix");
        if let Err(e) = sparsemat::io::write_matrix_market(&o, &permuted) {
            eprintln!("cannot write {o}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote permuted matrix to {o}");
    }
    if let Some(s) = spy_out {
        let grid = sparsemat::spy::SpyGrid::new(&g, &ordering.perm, 512).expect("spy");
        if let Err(e) = grid.write_pgm(&s) {
            eprintln!("cannot write {s}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote spy plot to {s}");
    }
    ExitCode::SUCCESS
}

/// `spectral-order client` — talk to a running daemon.
fn client_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut alg = Algorithm::Spectral;
    let mut threads: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();
    let mut include_perm = true;
    let mut compressed = false;
    let mut binary = false;
    let mut stats = false;
    let mut shutdown = false;
    let mut trace = false;
    let mut base_id: Option<u64> = None;
    let mut cancel_id: Option<u64> = None;
    let mut metrics_text = false;
    let mut retry: Option<u32> = None;
    let mut pipeline: Option<usize> = None;
    let mut progress = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return usage(),
            },
            "--alg" => match it.next().map(String::as_str).and_then(parse_alg) {
                Some(x) => alg = x,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threads = Some(t),
                None => return usage(),
            },
            "--no-perm" => include_perm = false,
            "--compressed" => compressed = true,
            "--binary" => binary = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--trace" => trace = true,
            "--id" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => base_id = Some(v),
                None => return usage(),
            },
            "--cancel" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => cancel_id = Some(v),
                None => return usage(),
            },
            "--metrics-text" => metrics_text = true,
            "--retry" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(v) if v > 0 => retry = Some(v),
                _ => return usage(),
            },
            "--pipeline" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v > 0 => pipeline = Some(v),
                _ => return usage(),
            },
            "--progress" => progress = true,
            _ if !a.starts_with('-') => files.push(a.clone()),
            _ => return usage(),
        }
    }
    let Some(addr) = addr else { return usage() };

    let mut client = match se_service::Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if binary {
        if let Err(e) = client.hello(se_service::FrameMode::Binary) {
            eprintln!("client: HELLO failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if metrics_text {
        return match client.metrics() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(id) = cancel_id {
        return match client.cancel(id) {
            Ok(pending) => {
                eprintln!(
                    "cancelled id {id} ({})",
                    if pending {
                        "was pending"
                    } else {
                        "not pending"
                    }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if stats {
        return match client.stats() {
            Ok(s) => {
                println!("{}", s.to_string_compact());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if shutdown {
        return match client.shutdown() {
            Ok(drained) => {
                eprintln!("server drained {drained} jobs and stopped");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if files.is_empty() {
        return usage();
    }

    // Payloads travel inline so the daemon needs no shared filesystem.
    let mut reqs = Vec::with_capacity(files.len());
    for (k, path) in files.iter().enumerate() {
        let payload = match std::fs::read_to_string(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("client: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        reqs.push(OrderRequest {
            alg,
            source: MatrixSource::Inline {
                format: MatrixFormat::from_path(path),
                payload,
            },
            timeout_ms: None,
            include_perm,
            threads,
            compressed,
            trace,
            // Consecutive ids from the base, so every batch slot stays
            // individually cancellable.
            id: base_id.map(|b| b + k as u64),
            progress,
            hop: false,
        });
    }

    if pipeline.is_some() || progress {
        // Protocol v2: individual ORDERs multiplexed over one connection,
        // responses re-ordered client-side, PROGRESS streamed to stderr.
        let window = pipeline.unwrap_or(1).max(1);
        let mut on_progress = |p: &se_service::proto::ProgressFrame| {
            let matvecs = p
                .matvecs
                .map(|m| format!(" matvecs={m}"))
                .unwrap_or_default();
            eprintln!(
                "progress id={} stage={} {:.0}% {}us{matvecs}",
                p.id, p.stage, p.percent, p.micros
            );
        };
        let cb: Option<&mut dyn FnMut(&se_service::proto::ProgressFrame)> = if progress {
            Some(&mut on_progress)
        } else {
            None
        };
        return match client.order_many(reqs, window, cb) {
            Ok(rs) => {
                let ok = rs.iter().all(Result::is_ok);
                for r in rs {
                    match r {
                        Ok(r) => println!("{}", encode_response(&Response::Order(r))),
                        Err(e) => println!("{}", encode_response(&Response::Error(e))),
                    }
                }
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if reqs.len() == 1 {
        let req = reqs.remove(0);
        // `--retry` reconnects per attempt (a busy server closes the
        // socket at accept time), so it bypasses the already-open
        // connection and dials fresh through the retry helper.
        let result = match retry {
            Some(attempts) => {
                let policy = se_service::RetryPolicy {
                    max_attempts: attempts,
                    ..Default::default()
                };
                let mode = if binary {
                    se_service::FrameMode::Binary
                } else {
                    se_service::FrameMode::Ndjson
                };
                se_service::order_with_retry(&addr, mode, &req, &policy)
            }
            None => client.order(req),
        };
        match result {
            Ok(r) => {
                println!("{}", encode_response(&Response::Order(r)));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match client.order_batch(reqs) {
            Ok(rs) => {
                let ok = rs.iter().all(Result::is_ok);
                println!("{}", encode_response(&Response::Batch(rs)));
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("client: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
