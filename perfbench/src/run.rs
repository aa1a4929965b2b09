//! One untraced run of a workload: repeated set-ups (timed), the closed
//! timed window, and the answer checks that follow it.

use crate::cluster::Cluster;
use crate::inputs::{line_tail, Input, Plan, Step};
use crate::wire::{permutation, Answer, Conn};
use crate::{procfs, stats};
use se_order::Algorithm;
use se_reactor::poll::{poll_sources, Interest, PollSource};
use se_service::cache::{OrderingMeta, ShardedOrderingCache};
use se_service::proto::{decode_response, Response};
use se_service::Config;
use sparsemat::envelope::envelope_stats;
use sparsemat::Permutation;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Set-ups per run: `setup_s` is their median and the last one serves
/// the timed window. `cold_spectral`'s set-up solves every input once
/// (seconds); the others take a fraction of a second, so more of them
/// cost little.
pub fn setups(kind: Kind) -> usize {
    match kind {
        Kind::ColdSpectral => 3,
        _ => 5,
    }
}

/// In-flight requests on `hit_replay`'s pipelined connection.
pub const HIT_WINDOW: usize = 4;
/// In-flight requests on each of `mesh_churn`'s two connections. Two
/// stall the mesh: every worker of both nodes can end up blocked
/// forwarding to the other node until the peer I/O timeout fires.
pub const MESH_WINDOW: usize = 1;
/// Divergent answers kept for the post-window checks and the report.
const KEEP_DIVERGENT: usize = 16;

/// How a workload drives the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdSpectral,
    HitReplay,
    MeshChurn,
}

impl Kind {
    /// Every workload's name: the only place names map to drivers.
    pub const ALL: [(&'static str, Kind); 3] = [
        ("cold_spectral", Kind::ColdSpectral),
        ("hit_replay", Kind::HitReplay),
        ("mesh_churn", Kind::MeshChurn),
    ];

    pub fn from_name(name: &str) -> Option<Kind> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }

    /// Binary permutation frames + protocol v2 (everything but the v1
    /// NDJSON `cold_spectral` connection).
    pub fn binary(self) -> bool {
        self != Kind::ColdSpectral
    }

    /// Requests in flight per connection.
    pub fn window(self) -> usize {
        match self {
            Kind::ColdSpectral => 1,
            Kind::HitReplay => HIT_WINDOW,
            Kind::MeshChurn => MESH_WINDOW,
        }
    }
}

/// Solver threads every workload configures: one per core.
pub fn solver_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The daemon configuration of a workload (for a mesh, the fields both
/// members share) and, for the result stamp, the `Config` fields that
/// shape the workload.
pub fn config(kind: Kind, plan: &Plan) -> (Config, Vec<(&'static str, String)>) {
    let mut cfg = Config {
        solver_threads: solver_threads(),
        ..Config::default()
    };
    match kind {
        Kind::ColdSpectral => cfg.cache_budget_bytes = 0,
        Kind::HitReplay => {}
        Kind::MeshChurn => {
            // One shard, so the LRU spans every key a node owns, sized to
            // hold half of them (each node owns half the keys by design).
            cfg.cache_shards = 1;
            cfg.cache_budget_bytes = entry_bytes(plan) / 4;
        }
    }
    let changed = vec![
        ("solver_threads", cfg.solver_threads.to_string()),
        ("cache_budget_bytes", cfg.cache_budget_bytes.to_string()),
        ("cache_shards", cfg.cache_shards.to_string()),
        ("workers", cfg.workers.to_string()),
        ("reactor_threads", cfg.reactor_threads.to_string()),
        (
            "mesh_members",
            if kind == Kind::MeshChurn { "2" } else { "0" }.to_string(),
        ),
        ("replicas", cfg.replicas.to_string()),
        ("window", kind.window().to_string()),
    ];
    (cfg, changed)
}

/// Bytes the cache charges for every input's ordering together.
fn entry_bytes(plan: &Plan) -> usize {
    let cache = ShardedOrderingCache::new(usize::MAX / 2, 1);
    for input in &plan.inputs {
        let o = se_order::order(&input.pattern, plan.alg).expect("stand-ins order");
        let meta = OrderingMeta {
            stats: o.stats,
            compression_ratio: None,
            degraded: None,
        };
        cache.insert(&input.pattern, plan.alg, false, o.perm.order(), meta);
    }
    cache.used_bytes()
}

/// One set-up: the running node(s), the client connections (one per
/// node) and each input's warm-up answer, plus which node owns it.
pub struct Session {
    pub cluster: Cluster,
    pub conns: Vec<Conn>,
    pub warm: Vec<Answer>,
    /// `warm` without per-request fields: what every later answer to the
    /// same input must equal.
    pub canon: Vec<Answer>,
    pub owner: Vec<usize>,
}

/// Starts the node(s), connects, and sends one untimed ORDER per
/// distinct input (to its owner, as many in flight as the timed window
/// keeps). Returns the session and its duration — one `setup_s` sample.
pub fn set_up(
    kind: Kind,
    cfg: &Config,
    plan: &Plan,
    mesh: Option<&[String; 2]>,
) -> std::io::Result<(Session, f64)> {
    let t0 = Instant::now();
    let cluster = match mesh {
        Some(names) => Cluster::mesh_pair(cfg, names)?,
        None => Cluster::single(cfg.clone())?,
    };
    let mut conns = (0..cluster.nodes.len())
        .map(|i| Conn::open(cluster.addr(i), kind.binary()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let owner: Vec<usize> = plan.inputs.iter().map(|i| cluster.owner(i.key)).collect();
    let mut warm = vec![Answer::default(); plan.inputs.len()];
    let mut steps = (0..plan.inputs.len()).map(|input| {
        let step = Step {
            input,
            to_owner: true,
        };
        (owner[input], step)
    });
    drive(
        &mut conns,
        kind.window(),
        plan,
        |_| steps.next(),
        |step, _, a| warm[step.input] = a.clone(),
    )?;
    let secs = t0.elapsed().as_secs_f64();
    let canon = warm.iter().map(Answer::canonical).collect();
    Ok((
        Session {
            cluster,
            conns,
            warm,
            canon,
            owner,
        },
        secs,
    ))
}

/// Closes the session's connections and stops its node(s).
pub fn tear_down(s: Session) -> std::io::Result<()> {
    drop(s.conns);
    s.cluster.stop()
}

/// Sends the steps `next` yields (given the count sent so far; `None`
/// ends the stream), each to its node, keeping at most `window` requests
/// in flight per connection, and hands every answer to `done` with its
/// roundtrip time. With a window above 1 requests carry ids and answers
/// may come back in any order; a step whose connection is full waits
/// until that connection answers one.
fn drive(
    conns: &mut [Conn],
    window: usize,
    plan: &Plan,
    mut next: impl FnMut(usize) -> Option<(usize, Step)>,
    mut done: impl FnMut(Step, Duration, &Answer),
) -> std::io::Result<usize> {
    let mut inflight: Vec<HashMap<u64, (Instant, Step)>> = vec![HashMap::new(); conns.len()];
    let mut waiting: Option<(usize, Step)> = None;
    let mut answer = Answer::default();
    let mut sent = 0usize;
    loop {
        loop {
            if waiting.is_none() {
                waiting = next(sent);
            }
            let Some((node, step)) = waiting else { break };
            if inflight[node].len() >= window {
                break;
            }
            let id = sent as u64;
            let tail = line_tail((window > 1).then_some(id));
            inflight[node].insert(id, (Instant::now(), step));
            conns[node].send_parts(&plan.inputs[step.input].body, &tail)?;
            sent += 1;
            waiting = None;
        }
        let busy: Vec<usize> = (0..conns.len())
            .filter(|&c| !inflight[c].is_empty())
            .collect();
        if busy.is_empty() {
            return Ok(sent);
        }
        let node = ready(conns, &busy)?;
        conns[node].recv(&mut answer)?;
        let id = match window {
            1 => inflight[node].keys().next().copied(),
            _ => answer.id(),
        };
        let (t, step) = id
            .and_then(|id| inflight[node].remove(&id))
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "untagged response: {}",
                        String::from_utf8_lossy(&answer.line)
                    ),
                )
            })?;
        done(step, t.elapsed(), &answer);
    }
}

/// One of the `busy` connections with an answer to read: one whose
/// buffer already holds bytes, else the first one `poll(2)` reports
/// readable.
fn ready(conns: &[Conn], busy: &[usize]) -> std::io::Result<usize> {
    if let [only] = busy {
        return Ok(*only);
    }
    if let Some(&c) = busy.iter().find(|&&c| conns[c].has_buffered()) {
        return Ok(c);
    }
    let sources: Vec<(PollSource<'_>, Interest)> = busy
        .iter()
        .map(|&c| {
            (
                PollSource::Tcp(conns[c].stream()),
                Interest {
                    read: true,
                    write: false,
                },
            )
        })
        .collect();
    let mut readiness = Vec::new();
    loop {
        poll_sources(&sources, &mut readiness, None)?;
        if let Some(i) = readiness.iter().position(|r| r.read || r.closed) {
            return Ok(busy[i]);
        }
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub input: usize,
    /// Sent to the key's owner (always true off the mesh).
    pub to_owner: bool,
    pub latency_s: f64,
    pub micros: u64,
    pub cache_hit: bool,
    pub ok: bool,
}

/// Everything the timed window observed.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Process CPU seconds spent during the window.
    pub cpu_s: f64,
    /// Share of the host's CPU time its hypervisor withheld during the
    /// window (interference from outside the guest).
    pub host_steal: f64,
    pub errors: usize,
    pub first_error: Option<String>,
    pub degraded: usize,
    /// Answers whose canonical bytes differ from the input's warm-up
    /// answer, and a few of them kept for the report.
    pub mismatches: usize,
    pub divergent: Vec<(usize, Answer)>,
    /// The process's peak resident set when the window closed, MiB.
    pub peak_rss_mib: f64,
}

impl Window {
    fn record(&mut self, canon: &[Answer], step: Step, latency: Duration, a: &Answer) {
        let ok = a.ok();
        if !ok {
            self.errors += 1;
            self.first_error
                .get_or_insert_with(|| String::from_utf8_lossy(&a.line).into_owned());
        } else {
            if a.degraded() {
                self.degraded += 1;
            }
            if !a.same_answer(&canon[step.input]) {
                self.mismatches += 1;
                if self.divergent.len() < KEEP_DIVERGENT {
                    self.divergent.push((step.input, a.clone()));
                }
            }
        }
        self.samples.push(Sample {
            input: step.input,
            to_owner: step.to_owner,
            latency_s: latency.as_secs_f64(),
            micros: a.micros().unwrap_or(0),
            cache_hit: a.cache_hit(),
            ok,
        });
    }

    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.errors + self.mismatches
    }
}

/// Samples needed before a run may end: enough for ten above the p95.
pub fn min_samples() -> usize {
    stats::min_samples_for(95.0)
}

/// Runs the closed-loop timed window: at least `seconds` and at least
/// [`min_samples`] requests, ending on a pass boundary where the stream
/// has passes. Streams wrap, so every run replays the same sequence.
pub fn timed_window(
    kind: Kind,
    plan: &Plan,
    s: &mut Session,
    seconds: f64,
) -> std::io::Result<Window> {
    let mut w = Window {
        samples: Vec::with_capacity(4096),
        ..Window::default()
    };
    let len = plan.stream.len();
    let owner = &s.owner;
    let (cpu0, steal0) = (procfs::cpu_seconds()?, procfs::host_steal()?);
    let start = Instant::now();
    let next = |sent: usize| {
        let whole = plan.pass_len.is_none_or(|p| sent.is_multiple_of(p));
        if whole && sent >= min_samples() && start.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        // On the mesh the step's coin sends it to its key's owner or to
        // the other node.
        let step = plan.stream[sent % len];
        let node = match step.to_owner {
            true => owner[step.input],
            false => 1 - owner[step.input],
        };
        Some((node, step))
    };
    drive(
        &mut s.conns,
        kind.window(),
        plan,
        next,
        |step, latency, a| w.record(&s.canon, step, latency, a),
    )?;
    w.wall_s = start.elapsed().as_secs_f64();
    let (cpu1, steal1) = (procfs::cpu_seconds()?, procfs::host_steal()?);
    w.cpu_s = cpu1 - cpu0;
    w.host_steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    w.peak_rss_mib = procfs::peak_rss_mib()?;
    Ok(w)
}

/// The post-window check of one answer against its input: a valid
/// permutation of `0..n` whose reported `n`, `nnz` and envelope
/// statistics equal those recomputed here. Returns the envelope size.
pub fn check_answer(input: &Input, a: &Answer) -> Result<u64, String> {
    if !a.ok() {
        return Err(format!(
            "error answer: {}",
            String::from_utf8_lossy(&a.line)
        ));
    }
    let perm = permutation(a)?;
    let n = input.pattern.n();
    if perm.len() != n {
        return Err(format!("permutation of length {} for n = {n}", perm.len()));
    }
    let perm = Permutation::from_new_to_old(perm).map_err(|e| format!("not a permutation: {e}"))?;
    let line = std::str::from_utf8(&a.line).map_err(|e| e.to_string())?;
    let resp = match decode_response(line).map_err(|e| e.to_string())? {
        Response::Order(r) => r,
        _ => return Err("not an ORDER response".to_string()),
    };
    if resp.n != n || resp.nnz != input.pattern.nnz_lower_with_diagonal() {
        return Err(format!(
            "reported n/nnz {}/{} disagree with the input",
            resp.n, resp.nnz
        ));
    }
    let stats = envelope_stats(&input.pattern, &perm);
    if resp.stats != stats {
        return Err(format!(
            "reported stats {:?} != recomputed {stats:?}",
            resp.stats
        ));
    }
    Ok(stats.envelope_size)
}

/// What the checks found, and the envelope ratio they measured.
pub struct Checked {
    /// Failed checks of warm-up answers, one per answer.
    pub failures: Vec<String>,
    /// What the window's divergent answers were (already counted in
    /// [`Window::mismatches`]).
    pub defects: Vec<String>,
    pub envelope_ratio: f64,
}

/// Checks every warm-up answer and every divergent answer, and computes
/// `envelope_ratio`: per input, the mean over its answers of the answer's
/// envelope over the envelope RCM reaches on the input's base stand-in
/// (its original labelling, so the reference does not move with the
/// seed); then the mean over inputs. Answers equal to the warm-up answer
/// share its envelope, so only distinct answers are recomputed.
pub fn check(plan: &Plan, s: &Session, w: &Window) -> Checked {
    let mut failures = Vec::new();
    let mut defects = Vec::new();
    let mut warm_env = Vec::with_capacity(plan.inputs.len());
    for (input, a) in plan.inputs.iter().zip(&s.warm) {
        match check_answer(input, a) {
            Ok(env) => warm_env.push(Some(env as f64)),
            Err(e) => {
                failures.push(format!("{} warm-up: {e}", input.base));
                warm_env.push(None);
            }
        }
    }
    let mut count = vec![0usize; plan.inputs.len()];
    let mut sum = vec![0.0f64; plan.inputs.len()];
    for sample in w.samples.iter().filter(|s| s.ok) {
        count[sample.input] += 1;
        sum[sample.input] += warm_env[sample.input].unwrap_or(0.0);
    }
    for (i, a) in &w.divergent {
        let input = &plan.inputs[*i];
        let detail = match check_answer(input, a) {
            Ok(env) => {
                // Replace the warm-up envelope assumed above for this answer.
                sum[*i] += env as f64 - warm_env[*i].unwrap_or(0.0);
                format!("a valid ordering with envelope {env}, not the warm-up's")
            }
            Err(e) => e,
        };
        defects.push(format!(
            "{}: the same request got a different answer ({detail}) — a program defect",
            input.base
        ));
    }
    if w.mismatches > w.divergent.len() {
        defects.push(format!(
            "{} more divergent answers not kept",
            w.mismatches - w.divergent.len()
        ));
    }
    let mut rcm_envelope: HashMap<&str, f64> = HashMap::new();
    for input in &plan.inputs {
        rcm_envelope.entry(input.base).or_insert_with(|| {
            let base = crate::inputs::standin(input.base);
            se_order::order(&base, Algorithm::Rcm)
                .expect("RCM orders every stand-in")
                .stats
                .envelope_size as f64
        });
    }
    let ratios: Vec<f64> = plan
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let rcm = rcm_envelope[input.base];
            let mean_env = match count[i] {
                0 => warm_env[i].unwrap_or(0.0),
                c => sum[i] / c as f64,
            };
            mean_env / rcm
        })
        .collect();
    Checked {
        failures,
        defects,
        envelope_ratio: stats::mean(&ratios).unwrap_or(0.0),
    }
}

/// A run's end-to-end metric values by name; `failed` counts every failed
/// attempt or check of the run.
pub fn end_to_end(
    setup_s: &[f64],
    w: &Window,
    envelope_ratio: f64,
    failed: usize,
) -> Vec<(&'static str, f64)> {
    let mut lat: Vec<f64> = w
        .samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let attempted = w.samples.len().max(1) as f64;
    let completed = w.completed().max(1) as f64;
    vec![
        ("setup_s", stats::median(setup_s).unwrap_or(0.0)),
        ("orders_per_s", completed / w.wall_s),
        ("order_p50_ms", stats::percentile(&lat, 50.0).unwrap_or(0.0)),
        ("order_p95_ms", stats::percentile(&lat, 95.0).unwrap_or(0.0)),
        ("cpu_ms_per_order", w.cpu_s * 1e3 / completed),
        ("peak_rss_mb", w.peak_rss_mib),
        ("envelope_ratio", envelope_ratio),
        ("ok_share", 1.0 - failed as f64 / attempted),
        ("undegraded_share", 1.0 - w.degraded as f64 / completed),
    ]
}
