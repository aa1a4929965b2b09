//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request line. Commands:
//!
//! * `HELLO` — negotiate the connection's frame mode (NDJSON or binary),
//! * `ORDER` — order one matrix (inline payload or server-side path),
//! * `BATCH` — a pipelined vector of ORDER requests answered in one line,
//! * `STATS` — live metrics snapshot,
//! * `CANCEL` — cancel a queued/running ORDER by its client-assigned id,
//! * `METRICS` — Prometheus-style text exposition of the server's metrics,
//! * `SHUTDOWN` — graceful drain; the server finishes queued work first.
//!
//! ```text
//! → {"cmd":"ORDER","alg":"spectral","format":"mtx","payload":"%%MatrixMarket..."}
//! ← {"ok":true,"alg":"SPECTRAL","n":24,"nnz":80,"stats":{...},"perm":[...],"cache_hit":false,"micros":412}
//! ```
//!
//! The `stats` object serializes [`sparsemat::envelope::EnvelopeStats`] —
//! the same record the `spectral-order` CLI prints with `--json`, so the
//! service and the CLI emit identical stat records.
//!
//! After a `HELLO` negotiating `"frames":"binary"`, responses carrying a
//! permutation replace `"perm":[…]` with `"perm_frame":true` and append one
//! binary frame per marker after the line (see [`crate::frame`]). Every
//! response is bit-identical in content across both modes.

use crate::frame::{encode_perm_frame, encode_perm_json, FrameMode};
use crate::json::{parse, write_escaped, Json, JsonError};
use se_order::Algorithm;
use sparsemat::envelope::EnvelopeStats;
use std::sync::Arc;

/// Where the matrix of an ORDER request comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// The file content travels inline in the request.
    Inline {
        /// Payload format.
        format: MatrixFormat,
        /// The complete file text.
        payload: String,
    },
    /// A path readable by the *server* process.
    Path(String),
}

/// Supported matrix file formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixFormat {
    /// MatrixMarket coordinate format (`.mtx`).
    MatrixMarket,
    /// Chaco/METIS graph format (`.graph`; pattern only).
    Chaco,
    /// Harwell–Boeing (`.rsa`/`.rua`).
    HarwellBoeing,
}

impl MatrixFormat {
    /// The wire name (`"mtx"`, `"graph"`, `"hb"`).
    pub fn wire_name(self) -> &'static str {
        match self {
            MatrixFormat::MatrixMarket => "mtx",
            MatrixFormat::Chaco => "graph",
            MatrixFormat::HarwellBoeing => "hb",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "mtx" | "matrixmarket" => MatrixFormat::MatrixMarket,
            "graph" | "chaco" => MatrixFormat::Chaco,
            "hb" | "rsa" | "rua" => MatrixFormat::HarwellBoeing,
            _ => return None,
        })
    }

    /// Guesses the format from a file path, the CLI's extension convention.
    pub fn from_path(path: &str) -> Self {
        if path.ends_with(".mtx") {
            MatrixFormat::MatrixMarket
        } else if path.ends_with(".graph") {
            MatrixFormat::Chaco
        } else {
            MatrixFormat::HarwellBoeing
        }
    }
}

/// The one algorithm vocabulary: `(wire/CLI name, algorithm)` pairs, in the
/// order error messages and usage strings enumerate them. Everything that
/// names an algorithm — wire decode ([`parse_algorithm`]), wire encode
/// ([`algorithm_wire_name`]), the CLI's `--alg` parser and its usage text,
/// and the "unknown algorithm" error — derives from this table, so a new
/// algorithm added here is automatically accepted and advertised everywhere.
pub const ALGORITHMS: &[(&str, Algorithm)] = &[
    ("spectral", Algorithm::Spectral),
    ("tracemin", Algorithm::TraceMin),
    ("rcm", Algorithm::Rcm),
    ("cm", Algorithm::CuthillMckee),
    ("gps", Algorithm::Gps),
    ("gk", Algorithm::Gk),
    ("sloan", Algorithm::Sloan),
    ("hybrid", Algorithm::HybridSloanSpectral),
    ("refined", Algorithm::SpectralRefined),
    ("mindeg", Algorithm::MinDegree),
    ("nd", Algorithm::SpectralNd),
    ("identity", Algorithm::Identity),
];

/// Parses the CLI/wire algorithm name (shared by `spectral-order` and the
/// service so both accept the same vocabulary — see [`ALGORITHMS`]).
pub fn parse_algorithm(s: &str) -> Option<Algorithm> {
    let lower = s.to_ascii_lowercase();
    ALGORITHMS
        .iter()
        .find(|(name, _)| *name == lower)
        .map(|&(_, alg)| alg)
}

/// The wire/CLI name of `alg` — the reverse of [`parse_algorithm`]. Distinct
/// from [`Algorithm::name`] (the paper's uppercase table labels, which are
/// not all parseable wire names, e.g. `SPECTRAL+X`).
pub fn algorithm_wire_name(alg: Algorithm) -> &'static str {
    ALGORITHMS
        .iter()
        .find(|&&(_, a)| a == alg)
        .map(|&(name, _)| name)
        .expect("every Algorithm variant has a row in ALGORITHMS")
}

/// The accepted algorithm names, comma-joined — for usage strings and the
/// "unknown algorithm" error.
pub fn algorithm_names() -> String {
    ALGORITHMS
        .iter()
        .map(|&(name, _)| name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// One ordering request.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderRequest {
    /// Ordering algorithm.
    pub alg: Algorithm,
    /// Matrix source.
    pub source: MatrixSource,
    /// Per-request wall-clock timeout override (ms).
    pub timeout_ms: Option<u64>,
    /// Include the permutation vector in the response (default true).
    pub include_perm: bool,
    /// Solver threads for the eigensolver-backed algorithms (`0` = all
    /// cores); `None` uses the server's configured default. Orderings are
    /// bit-identical for every value, so this never affects results — or
    /// cache keys — only wall-clock time. Decoding rejects values above
    /// [`MAX_REQUEST_THREADS`], and the server additionally clamps to the
    /// machine's core count before spawning anything.
    pub threads: Option<usize>,
    /// Order through supervariable compression: indistinguishable vertices
    /// are merged, the quotient graph is ordered, and the result expanded
    /// (see `se_order::order_compressed_with`). Changes the resulting
    /// permutation, so — unlike `threads` — it **is** part of the cache key.
    pub compressed: bool,
    /// Record a hierarchical span trace of the pipeline and return it as a
    /// `trace` subtree in the response. Traced requests always recompute
    /// (the cache is bypassed on lookup, though the resulting ordering is
    /// still inserted) and the trace itself is never cached.
    pub trace: bool,
    /// Optional client-assigned request id. On protocol v1 connections it
    /// is echoed nowhere but usable as the target of a later `CANCEL`
    /// command (typically from a second connection); on v2 connections it
    /// additionally tags the response line (`"id":N`) so pipelined
    /// requests may complete out of order. Ids are only tracked for CANCEL
    /// while the request is queued or running; reusing an id after
    /// completion is harmless.
    pub id: Option<u64>,
    /// Stream unsolicited `PROGRESS` lines for this request while it runs.
    /// Honoured only on protocol v2 connections with an `id` set —
    /// interleaving would corrupt v1's strict request→response sequencing,
    /// so v1 sessions ignore the flag.
    pub progress: bool,
    /// This request was forwarded by a mesh peer (one hop). A hopped
    /// request is answered entirely locally — it is never forwarded
    /// again, so two nodes with momentarily disagreeing ring views cannot
    /// bounce a request between each other. Replication is orthogonal and
    /// gated on *ownership*: an owner that computes a hopped request
    /// still pushes the entry to its successors (that is the main
    /// replication path), while a non-owner never replicates. Encoded on
    /// the wire only when set, so non-mesh request bytes are unchanged.
    pub hop: bool,
}

/// Upper bound accepted for the wire `threads` field.
///
/// The executing server clamps the value to its own core count anyway; this
/// decode-time cap exists so an absurd request (`"threads": 1000000`) is
/// reported as malformed instead of being treated as a scheduling hint.
pub const MAX_REQUEST_THREADS: usize = 512;

impl OrderRequest {
    /// A request ordering an inline MatrixMarket payload.
    pub fn inline_mtx(alg: Algorithm, payload: impl Into<String>) -> Self {
        OrderRequest {
            alg,
            source: MatrixSource::Inline {
                format: MatrixFormat::MatrixMarket,
                payload: payload.into(),
            },
            timeout_ms: None,
            include_perm: true,
            threads: None,
            compressed: false,
            trace: false,
            id: None,
            progress: false,
            hop: false,
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Negotiate the connection's frame mode and protocol level.
    Hello {
        /// Requested framing for subsequent responses.
        frames: FrameMode,
        /// Requested protocol level: `1` (strict request→response) or `2`
        /// (pipelined, id-tagged responses, PROGRESS frames). Encoded on
        /// the wire only when ≥ 2, so v1 request bytes are unchanged.
        proto: u32,
    },
    /// Order one matrix.
    Order(OrderRequest),
    /// Order several matrices, pipelined through the worker pool.
    Batch(Vec<OrderRequest>),
    /// Metrics snapshot.
    Stats,
    /// Cancel a previously submitted ORDER by its client-assigned `id`.
    /// Queued requests are dropped; running ones finish but their response
    /// is suppressed (the submitter gets an error line instead).
    Cancel {
        /// The `id` of the ORDER request to cancel.
        id: u64,
    },
    /// Prometheus-style text exposition of the server's metrics.
    Metrics,
    /// Mesh replication push: one cache entry in the spill-file layout
    /// ([`crate::persist`]), shipped by the key's owner to a successor (or
    /// by a draining node to the new owner). The receiver validates the
    /// bytes exactly like a spill file read from disk and answers
    /// [`Response::ReplicateOk`]. Never sent by ordinary clients.
    Replicate {
        /// The entry, encoded by [`crate::persist::encode_entry`].
        entry: Vec<u8>,
    },
    /// Failure-detector heartbeat between mesh members: the sender names
    /// itself so the receiver can record a passive liveness proof, and the
    /// [`Response::Pong`] ack is the sender's own evidence. Multiplexed
    /// over the ordinary peer connections — no separate heartbeat port.
    Ping {
        /// The sender's ring name (its bound address).
        from: String,
    },
    /// Membership announcement: a (re)starting member asks to be admitted
    /// to the ring. Any live member may admit it; the ack returns the
    /// admitter's member list so the joiner learns names it was not
    /// configured with. Never sent by ordinary clients.
    Join {
        /// The joiner's ring name (its bound address).
        from: String,
    },
    /// Membership departure: a draining member announces it is leaving, so
    /// peers mark it dead immediately instead of waiting out the suspicion
    /// window. Accepted only from mesh member addresses.
    Leave {
        /// The leaver's ring name.
        from: String,
    },
    /// Anti-entropy digest exchange: the sender's per-cache-shard FNV
    /// summaries of the keys both it and the receiver replicate. The
    /// receiver answers with the shards whose digests disagree plus its
    /// own keys there ([`Response::SyncOk`]); the sender then repairs the
    /// difference with ordinary `REPLICATE` pushes. Accepted only from
    /// mesh member addresses.
    Sync {
        /// The sender's ring name.
        from: String,
        /// One FNV-1a digest per cache shard, over the sorted keys of the
        /// shared replica range (see `OPERATIONS.md`).
        digests: Vec<u64>,
    },
    /// Warm-up request from a joining member: the receiver bulk-returns
    /// the cache entries (spill-file layout) whose keys the joiner now
    /// owns, so the joiner serves hits before its first client asks.
    /// Accepted only from mesh member addresses.
    Warm {
        /// The joiner's ring name.
        from: String,
    },
    /// Graceful drain and exit.
    Shutdown,
}

/// A permutation rendered once in every wire encoding, shared by the cache
/// and response paths via `Arc` — cache hits reuse these bytes instead of
/// re-encoding the permutation per response.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPerm {
    perm: Vec<usize>,
    json: Arc<str>,
    frame: Vec<u8>,
}

impl EncodedPerm {
    /// Renders both encodings of `perm` (NDJSON array text + binary frame).
    pub fn new(perm: Vec<usize>) -> Self {
        let json: Arc<str> = encode_perm_json(&perm).into();
        let frame = encode_perm_frame(&perm);
        EncodedPerm { perm, json, frame }
    }

    /// The permutation itself (new position → old index).
    pub fn order(&self) -> &[usize] {
        &self.perm
    }

    /// The pre-rendered NDJSON array text `[p0,p1,…]`.
    pub fn json(&self) -> &Arc<str> {
        &self.json
    }

    /// The pre-rendered binary frame (header + payload).
    pub fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// Total heap bytes this record holds (permutation + both encodings) —
    /// what the cache charges against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        self.perm.len() * std::mem::size_of::<usize>() + self.json.len() + self.frame.len()
    }
}

/// The permutation payload of an ORDER response.
///
/// Equality compares the permutation *content*, so a served-from-cache
/// response equals a freshly computed one.
#[derive(Debug, Clone)]
pub enum PermPayload {
    /// An explicit vector — what client-side decoding always produces.
    Plain(Vec<usize>),
    /// A cache-resident pre-encoded permutation (server fast path).
    Cached(Arc<EncodedPerm>),
    /// Decode-side marker: the line said `"perm_frame":true` and the
    /// permutation follows as a binary frame ([`crate::Client`] replaces
    /// this with [`PermPayload::Plain`] after reading the frame). Carries no
    /// data; [`PermPayload::order`] returns an empty slice.
    Framed,
}

impl PermPayload {
    /// The permutation, new position → old index (empty for
    /// [`PermPayload::Framed`]).
    pub fn order(&self) -> &[usize] {
        match self {
            PermPayload::Plain(p) => p,
            PermPayload::Cached(e) => e.order(),
            PermPayload::Framed => &[],
        }
    }
}

impl PartialEq for PermPayload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PermPayload::Framed, PermPayload::Framed) => true,
            (PermPayload::Framed, _) | (_, PermPayload::Framed) => false,
            _ => self.order() == other.order(),
        }
    }
}

impl From<Vec<usize>> for PermPayload {
    fn from(v: Vec<usize>) -> Self {
        PermPayload::Plain(v)
    }
}

/// A successful ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderResponse {
    /// Algorithm name (`Algorithm::name()` form, e.g. `"SPECTRAL"`).
    pub alg: String,
    /// Matrix order.
    pub n: usize,
    /// Nonzeros in the paper's convention (lower triangle + diagonal).
    pub nnz: usize,
    /// Envelope statistics of the ordering.
    pub stats: EnvelopeStats,
    /// The permutation, new position → old index (0-based); omitted when
    /// the request set `include_perm: false`.
    pub perm: Option<PermPayload>,
    /// Whether the ordering came from the content-addressed cache.
    pub cache_hit: bool,
    /// Server-side wall-clock time for this request (µs).
    pub micros: u64,
    /// Supervariable compression ratio (`n / n_supervariables`); present
    /// only when the request set `compressed: true`.
    pub compression_ratio: Option<f64>,
    /// `Some(reason)` when the degradation ladder produced the result with
    /// a fallback rung instead of the requested algorithm. The reason is
    /// machine-readable (`"not_converged"`, `"deadline"`, `"cancelled"`,
    /// `"matvec_cap"`, `"numerical"` or `"fault:<site>"`); on the wire it
    /// appears as `"degraded":true,"degraded_reason":"…"` and both keys are
    /// omitted entirely on the (common) non-degraded path, keeping those
    /// response bytes unchanged.
    pub degraded: Option<String>,
    /// Pre-rendered compact JSON of the span tree (`se_trace::SpanNode`
    /// rendered with `render_json`); present only when the request set
    /// `trace: true`. Spliced verbatim into the response line and never
    /// cached. Decoding re-renders the subtree, so the text may differ in
    /// float formatting while describing the identical tree.
    pub trace: Option<Arc<str>>,
}

/// An error outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorResponse {
    /// Human-readable description.
    pub error: String,
    /// Whether retrying later can succeed (queue-full / timeout).
    pub retriable: bool,
}

impl ErrorResponse {
    /// A non-retriable error.
    pub fn fatal(msg: impl Into<String>) -> Self {
        ErrorResponse {
            error: msg.into(),
            retriable: false,
        }
    }

    /// A retriable error (backpressure, timeout).
    pub fn retriable(msg: impl Into<String>) -> Self {
        ErrorResponse {
            error: msg.into(),
            retriable: true,
        }
    }
}

/// An unsolicited server→client progress notification (protocol v2 only):
/// the ORDER identified by `id` is still running and has just passed
/// `stage`. Interleaved between response lines; never sent on v1
/// connections and never counted as a response.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressFrame {
    /// The client-assigned id of the running ORDER.
    pub id: u64,
    /// Pipeline stage that just completed (se-trace span vocabulary:
    /// `"lanczos"`, `"coarsest_solve"`, `"level[k]"`, `"rqi"`, …).
    pub stage: String,
    /// Monotone best-effort completion estimate in `[0, 100]`.
    pub percent: f64,
    /// Wall-clock µs spent on the request so far.
    pub micros: u64,
    /// Cumulative matrix–vector products, when the stage reports them.
    pub matvecs: Option<u64>,
}

/// Any response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// HELLO acknowledged; `frames` is the mode now in effect.
    Hello {
        /// The negotiated frame mode (echoes the accepted request).
        frames: FrameMode,
        /// The negotiated protocol level (the server answers with
        /// `min(requested, supported)`, never more than it was asked for).
        proto: u32,
    },
    /// ORDER result.
    Order(OrderResponse),
    /// BATCH result, one slot per sub-request, order preserved.
    Batch(Vec<Result<OrderResponse, ErrorResponse>>),
    /// STATS snapshot (opaque JSON, schema documented in `metrics`).
    Stats(Json),
    /// METRICS result: Prometheus-style text exposition.
    Metrics(String),
    /// CANCEL acknowledged.
    CancelOk {
        /// Whether the id was still pending (queued or running) when the
        /// cancel landed; `false` means there was nothing to cancel.
        pending: bool,
    },
    /// SHUTDOWN acknowledged; `drained` jobs finished before the ack.
    ShutdownOk {
        /// Jobs completed during the drain.
        drained: u64,
    },
    /// Unsolicited progress for a running ORDER (protocol v2).
    Progress(ProgressFrame),
    /// REPLICATE acknowledged.
    ReplicateOk {
        /// Whether the entry was stored (`false` when it exceeds the
        /// receiver's per-shard budget and was dropped — harmless, the
        /// owner still has it).
        stored: bool,
    },
    /// PING acknowledged — the liveness proof the failure detector feeds
    /// on.
    Pong {
        /// The responder's ring name (empty outside a mesh).
        from: String,
    },
    /// JOIN acknowledged: the joiner is admitted.
    JoinOk {
        /// The admitter's current member list (including itself), so the
        /// joiner learns members it was not configured with.
        members: Vec<String>,
    },
    /// LEAVE acknowledged.
    LeaveOk,
    /// SYNC answer: where the replicas diverge.
    SyncOk {
        /// Cache shards whose digest disagreed with the sender's.
        shards: Vec<usize>,
        /// The responder's keys in those shards (within the shared
        /// replica range) — the sender pushes whatever it holds that is
        /// missing here.
        keys: Vec<u64>,
    },
    /// WARM answer: bulk entry transfer for a joiner's warm-up.
    WarmOk {
        /// Cache entries in the spill-file layout
        /// ([`crate::persist::encode_entry`]), bounded by the responder.
        entries: Vec<Vec<u8>>,
    },
    /// Request failed.
    Error(ErrorResponse),
}

/// Errors turning a line into a [`Request`]/[`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// Not valid JSON.
    Json(JsonError),
    /// Valid JSON, invalid protocol shape.
    Shape(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "{e}"),
            ProtoError::Shape(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn shape(msg: impl Into<String>) -> ProtoError {
    ProtoError::Shape(msg.into())
}

/// Lowercase hex of `bytes` — how a REPLICATE entry travels inside its
/// JSON line (the payload is raw spill-format bytes, not UTF-8).
fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// A `u64` list (digests, cache keys) as one hex string — 16 chars per
/// value, big-endian, no separators. Far denser on the wire than a JSON
/// number array, and immune to the f64 precision loss 64-bit keys would
/// suffer inside JSON numbers.
fn hex_u64s(values: &[u64]) -> String {
    let mut s = String::with_capacity(values.len() * 16);
    for v in values {
        s.push_str(&format!("{v:016x}"));
    }
    s
}

fn u64s_from_hex(s: &str) -> Option<Vec<u64>> {
    if !s.len().is_multiple_of(16) {
        return None;
    }
    (0..s.len())
        .step_by(16)
        .map(|i| u64::from_str_radix(s.get(i..i + 16)?, 16).ok())
        .collect()
}

// ---------------------------------------------------------------- encoding

/// Serializes [`EnvelopeStats`] — shared by service responses and the CLI's
/// `--json` mode so both emit the identical record.
pub fn stats_to_json(s: &EnvelopeStats) -> Json {
    Json::obj(vec![
        ("envelope", Json::Num(s.envelope_size as f64)),
        ("bandwidth", Json::Num(s.bandwidth as f64)),
        ("envelope_work", Json::Num(s.envelope_work as f64)),
        ("one_sum", Json::Num(s.one_sum as f64)),
        ("two_sum_sq", Json::Num(s.two_sum_sq as f64)),
    ])
}

/// Parses the output of [`stats_to_json`].
pub fn stats_from_json(v: &Json) -> Result<EnvelopeStats, ProtoError> {
    let f = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| shape(format!("stats.{k}")))
    };
    Ok(EnvelopeStats {
        envelope_size: f("envelope")?,
        bandwidth: f("bandwidth")?,
        envelope_work: f("envelope_work")?,
        one_sum: f("one_sum")?,
        two_sum_sq: f("two_sum_sq")?,
    })
}

/// A binary frame scheduled to follow a response line (binary mode only).
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// Frame bytes rendered for this response alone.
    Owned(Vec<u8>),
    /// Frame bytes shared with the ordering cache (zero-copy hit path).
    Cached(Arc<EncodedPerm>),
}

impl FramePayload {
    /// The complete frame bytes to put on the wire.
    pub fn bytes(&self) -> &[u8] {
        match self {
            FramePayload::Owned(b) => b,
            FramePayload::Cached(e) => e.frame(),
        }
    }
}

/// Serializes an [`OrderResponse`] body (without the `ok` flag); in binary
/// mode the permutation is replaced by a `"perm_frame":true` marker and its
/// frame is pushed onto `frames`.
fn order_body_to_json(r: &OrderResponse, mode: FrameMode, frames: &mut Vec<FramePayload>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("alg", Json::Str(r.alg.clone())),
        ("n", Json::Num(r.n as f64)),
        ("nnz", Json::Num(r.nnz as f64)),
        ("stats", stats_to_json(&r.stats)),
        ("cache_hit", Json::Bool(r.cache_hit)),
        ("micros", Json::Num(r.micros as f64)),
    ];
    if let Some(ratio) = r.compression_ratio {
        pairs.push(("compression_ratio", Json::Num(ratio)));
    }
    if let Some(reason) = &r.degraded {
        pairs.push(("degraded", Json::Bool(true)));
        pairs.push(("degraded_reason", Json::Str(reason.clone())));
    }
    if let Some(trace) = &r.trace {
        pairs.push(("trace", Json::Raw(Arc::clone(trace))));
    }
    match (&r.perm, mode) {
        (None, _) | (Some(PermPayload::Framed), _) => {}
        (Some(p), FrameMode::Ndjson) => {
            let raw = match p {
                PermPayload::Cached(e) => Json::Raw(Arc::clone(e.json())),
                other => Json::Raw(encode_perm_json(other.order()).into()),
            };
            pairs.push(("perm", raw));
        }
        (Some(p), FrameMode::Binary) => {
            pairs.push(("perm_frame", Json::Bool(true)));
            frames.push(match p {
                PermPayload::Cached(e) => FramePayload::Cached(Arc::clone(e)),
                other => FramePayload::Owned(encode_perm_frame(other.order())),
            });
        }
    }
    Json::obj(pairs)
}

/// Serializes an [`OrderResponse`] body in NDJSON mode (the CLI's `--json`
/// output and the default wire form).
pub fn order_response_to_json(r: &OrderResponse) -> Json {
    order_body_to_json(r, FrameMode::Ndjson, &mut Vec::new())
}

fn order_response_from_json(v: &Json) -> Result<OrderResponse, ProtoError> {
    let perm = match (v.get("perm"), v.get("perm_frame").and_then(Json::as_bool)) {
        (Some(_), Some(true)) => return Err(shape("a body cannot carry both perm and perm_frame")),
        (None, Some(true)) => Some(PermPayload::Framed),
        (None, _) => None,
        (Some(arr), _) => {
            let items = arr.as_arr().ok_or_else(|| shape("perm must be an array"))?;
            Some(PermPayload::Plain(
                items
                    .iter()
                    .map(|x| x.as_u64().map(|u| u as usize))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| shape("perm entries must be integers"))?,
            ))
        }
    };
    Ok(OrderResponse {
        alg: v
            .get("alg")
            .and_then(Json::as_str)
            .ok_or_else(|| shape("missing alg"))?
            .to_string(),
        n: v.get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| shape("missing n"))? as usize,
        nnz: v
            .get("nnz")
            .and_then(Json::as_u64)
            .ok_or_else(|| shape("missing nnz"))? as usize,
        stats: stats_from_json(v.get("stats").ok_or_else(|| shape("missing stats"))?)?,
        perm,
        cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
        micros: v.get("micros").and_then(Json::as_u64).unwrap_or(0),
        compression_ratio: v.get("compression_ratio").and_then(Json::as_f64),
        degraded: match v.get("degraded").and_then(Json::as_bool) {
            Some(true) => Some(
                v.get("degraded_reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            ),
            _ => None,
        },
        trace: v.get("trace").map(|t| t.to_string_compact().into()),
    })
}

fn error_to_json(e: &ErrorResponse) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(e.error.clone())),
        ("retriable", Json::Bool(e.retriable)),
    ])
}

/// Serializes a [`Response`] to its NDJSON wire line (no trailing newline).
pub fn encode_response(r: &Response) -> String {
    encode_response_framed(r, FrameMode::Ndjson).0
}

/// Serializes a [`Response`] under the given frame mode: the header line
/// (no trailing newline) plus the binary frames to send after it, in order.
/// In NDJSON mode the frame list is always empty.
pub fn encode_response_framed(r: &Response, mode: FrameMode) -> (String, Vec<FramePayload>) {
    encode_response_tagged(r, mode, None)
}

/// [`encode_response_framed`] with an optional protocol-v2 response tag:
/// when `id` is given, `"id":N` is spliced in right after `"ok"` so
/// pipelined clients can match out-of-order completions. With `id: None`
/// the bytes are identical to the v1 encoding.
pub fn encode_response_tagged(
    r: &Response,
    mode: FrameMode,
    id: Option<u64>,
) -> (String, Vec<FramePayload>) {
    let mut frames = Vec::new();
    let v = response_to_json(r, mode, &mut frames);
    let v = match (id, v) {
        (Some(id), Json::Obj(mut pairs)) => {
            pairs.insert(pairs.len().min(1), ("id".to_string(), Json::Num(id as f64)));
            Json::Obj(pairs)
        }
        (_, v) => v,
    };
    (v.to_string_compact(), frames)
}

fn response_to_json(r: &Response, mode: FrameMode, frames: &mut Vec<FramePayload>) -> Json {
    match r {
        Response::Hello {
            frames: mode,
            proto,
        } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("hello", Json::Bool(true)),
            ("frames", Json::Str(mode.wire_name().to_string())),
            ("proto", Json::Num(*proto as f64)),
        ]),
        Response::Order(o) => order_body_to_json(o, mode, frames),
        Response::Batch(items) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "responses",
                Json::Arr(
                    items
                        .iter()
                        .map(|item| match item {
                            Ok(o) => order_body_to_json(o, mode, frames),
                            Err(e) => error_to_json(e),
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Stats(s) => Json::obj(vec![("ok", Json::Bool(true)), ("stats", s.clone())]),
        Response::Metrics(text) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("metrics", Json::Str(text.clone())),
        ]),
        Response::CancelOk { pending } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("cancelled", Json::Bool(true)),
            ("pending", Json::Bool(*pending)),
        ]),
        Response::ShutdownOk { drained } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("shutdown", Json::Bool(true)),
            ("drained", Json::Num(*drained as f64)),
        ]),
        Response::ReplicateOk { stored } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("replicated", Json::Bool(true)),
            ("stored", Json::Bool(*stored)),
        ]),
        Response::Pong { from } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
            ("from", Json::Str(from.clone())),
        ]),
        Response::JoinOk { members } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("joined", Json::Bool(true)),
            (
                "members",
                Json::Arr(members.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
        ]),
        Response::LeaveOk => Json::obj(vec![("ok", Json::Bool(true)), ("left", Json::Bool(true))]),
        Response::SyncOk { shards, keys } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("sync", Json::Bool(true)),
            (
                "shards",
                Json::Arr(shards.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("keys", Json::Str(hex_u64s(keys))),
        ]),
        Response::WarmOk { entries } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("warm", Json::Bool(true)),
            (
                "entries",
                Json::Arr(entries.iter().map(|e| Json::Str(hex_encode(e))).collect()),
            ),
        ]),
        Response::Progress(p) => {
            let mut pairs = vec![
                ("ok", Json::Bool(true)),
                ("progress", Json::Bool(true)),
                ("id", Json::Num(p.id as f64)),
                ("stage", Json::Str(p.stage.clone())),
                ("percent", Json::Num(p.percent)),
                ("micros", Json::Num(p.micros as f64)),
            ];
            if let Some(m) = p.matvecs {
                pairs.push(("matvecs", Json::Num(m as f64)));
            }
            Json::obj(pairs)
        }
        Response::Error(e) => error_to_json(e),
    }
}

/// Parses a response line.
pub fn decode_response(line: &str) -> Result<Response, ProtoError> {
    let v = parse(line).map_err(ProtoError::Json)?;
    response_from_json(&v)
}

/// Parses a response line from a protocol-v2 connection, returning the
/// `"id"` tag (when present) alongside the response. PROGRESS lines carry
/// their id inside the frame as well; untagged lines (HELLO acks, inline
/// control responses on v1) return `None`.
pub fn decode_tagged_response(line: &str) -> Result<(Option<u64>, Response), ProtoError> {
    let v = parse(line).map_err(ProtoError::Json)?;
    let id = v.get("id").and_then(Json::as_u64);
    Ok((id, response_from_json(&v)?))
}

fn response_from_json(v: &Json) -> Result<Response, ProtoError> {
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| shape("missing ok"))?;
    if !ok {
        return Ok(Response::Error(ErrorResponse {
            error: v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string(),
            retriable: v.get("retriable").and_then(Json::as_bool).unwrap_or(false),
        }));
    }
    if v.get("progress").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::Progress(ProgressFrame {
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| shape("PROGRESS needs an id"))?,
            stage: v
                .get("stage")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            percent: v.get("percent").and_then(Json::as_f64).unwrap_or(0.0),
            micros: v.get("micros").and_then(Json::as_u64).unwrap_or(0),
            matvecs: v.get("matvecs").and_then(Json::as_u64),
        }));
    }
    if v.get("hello").and_then(Json::as_bool) == Some(true) {
        let name = v
            .get("frames")
            .and_then(Json::as_str)
            .ok_or_else(|| shape("HELLO ack needs a frames field"))?;
        let frames =
            FrameMode::from_wire(name).ok_or_else(|| shape(format!("unknown frames '{name}'")))?;
        let proto = v.get("proto").and_then(Json::as_u64).unwrap_or(1) as u32;
        return Ok(Response::Hello { frames, proto });
    }
    if let Some(items) = v.get("responses").and_then(Json::as_arr) {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            if item.get("ok").and_then(Json::as_bool) == Some(true) {
                out.push(Ok(order_response_from_json(item)?));
            } else {
                out.push(Err(ErrorResponse {
                    error: item
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                        .to_string(),
                    retriable: item
                        .get("retriable")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                }));
            }
        }
        return Ok(Response::Batch(out));
    }
    if v.get("shutdown").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::ShutdownOk {
            drained: v.get("drained").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    if v.get("cancelled").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::CancelOk {
            pending: v.get("pending").and_then(Json::as_bool).unwrap_or(false),
        });
    }
    if v.get("replicated").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::ReplicateOk {
            stored: v.get("stored").and_then(Json::as_bool).unwrap_or(false),
        });
    }
    if v.get("pong").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::Pong {
            from: v
                .get("from")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        });
    }
    if v.get("joined").and_then(Json::as_bool) == Some(true) {
        let members = v
            .get("members")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape("JOIN ack needs a members array"))?
            .iter()
            .map(|m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| shape("members must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Response::JoinOk { members });
    }
    if v.get("left").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::LeaveOk);
    }
    if v.get("sync").and_then(Json::as_bool) == Some(true) {
        let shards = v
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape("SYNC ack needs a shards array"))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| shape("shards must be integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let keys = v
            .get("keys")
            .and_then(Json::as_str)
            .and_then(u64s_from_hex)
            .ok_or_else(|| shape("SYNC ack needs hex keys"))?;
        return Ok(Response::SyncOk { shards, keys });
    }
    if v.get("warm").and_then(Json::as_bool) == Some(true) {
        let entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape("WARM ack needs an entries array"))?
            .iter()
            .map(|e| {
                e.as_str()
                    .and_then(hex_decode)
                    .ok_or_else(|| shape("entries must be hex strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Response::WarmOk { entries });
    }
    if let Some(text) = v.get("metrics").and_then(Json::as_str) {
        return Ok(Response::Metrics(text.to_string()));
    }
    if let Some(s) = v.get("stats") {
        // An ORDER response also carries "stats"; disambiguate by "alg".
        if v.get("alg").is_none() {
            return Ok(Response::Stats(s.clone()));
        }
    }
    Ok(Response::Order(order_response_from_json(v)?))
}

/// Appends an ORDER request object to `out`. The payload is escaped
/// straight from the request: it is never cloned into a [`Json`] value.
fn write_order(out: &mut String, o: &OrderRequest) {
    fn key(out: &mut String, k: &str) {
        out.push(',');
        write_escaped(out, k);
        out.push(':');
    }
    out.push_str(r#"{"cmd":"ORDER""#);
    key(out, "alg");
    write_escaped(out, algorithm_wire_name(o.alg));
    match &o.source {
        MatrixSource::Inline { format, payload } => {
            key(out, "format");
            write_escaped(out, format.wire_name());
            key(out, "payload");
            write_escaped(out, payload);
        }
        MatrixSource::Path(p) => {
            key(out, "path");
            write_escaped(out, p);
        }
    }
    let optional = [
        ("timeout_ms", o.timeout_ms.map(|t| Json::Num(t as f64))),
        (
            "include_perm",
            (!o.include_perm).then_some(Json::Bool(false)),
        ),
        ("threads", o.threads.map(|t| Json::Num(t as f64))),
        ("compressed", o.compressed.then_some(Json::Bool(true))),
        ("trace", o.trace.then_some(Json::Bool(true))),
        ("id", o.id.map(|id| Json::Num(id as f64))),
        ("progress", o.progress.then_some(Json::Bool(true))),
        ("hop", o.hop.then_some(Json::Bool(true))),
    ];
    for (k, v) in optional {
        if let Some(v) = v {
            key(out, k);
            v.write(out);
        }
    }
    out.push('}');
}

/// Serializes a [`Request`] to its wire line (no trailing newline).
pub fn encode_request(r: &Request) -> String {
    let v = match r {
        Request::Order(o) => {
            let mut out = String::new();
            write_order(&mut out, o);
            return out;
        }
        Request::Batch(items) => {
            let mut out = String::from(r#"{"cmd":"BATCH","requests":["#);
            for (i, o) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_order(&mut out, o);
            }
            out.push_str("]}");
            return out;
        }
        Request::Hello { frames, proto } => {
            let mut pairs = vec![
                ("cmd", Json::Str("HELLO".to_string())),
                ("frames", Json::Str(frames.wire_name().to_string())),
            ];
            // Encoded only when asking for more than v1, so the bytes a
            // v1 client puts on the wire are unchanged.
            if *proto >= 2 {
                pairs.push(("proto", Json::Num(*proto as f64)));
            }
            Json::obj(pairs)
        }
        Request::Stats => Json::obj(vec![("cmd", Json::Str("STATS".to_string()))]),
        Request::Cancel { id } => Json::obj(vec![
            ("cmd", Json::Str("CANCEL".to_string())),
            ("id", Json::Num(*id as f64)),
        ]),
        Request::Metrics => Json::obj(vec![("cmd", Json::Str("METRICS".to_string()))]),
        Request::Replicate { entry } => Json::obj(vec![
            ("cmd", Json::Str("REPLICATE".to_string())),
            ("entry", Json::Str(hex_encode(entry))),
        ]),
        Request::Ping { from } => Json::obj(vec![
            ("cmd", Json::Str("PING".to_string())),
            ("from", Json::Str(from.clone())),
        ]),
        Request::Join { from } => Json::obj(vec![
            ("cmd", Json::Str("JOIN".to_string())),
            ("from", Json::Str(from.clone())),
        ]),
        Request::Leave { from } => Json::obj(vec![
            ("cmd", Json::Str("LEAVE".to_string())),
            ("from", Json::Str(from.clone())),
        ]),
        Request::Sync { from, digests } => Json::obj(vec![
            ("cmd", Json::Str("SYNC".to_string())),
            ("from", Json::Str(from.clone())),
            ("digests", Json::Str(hex_u64s(digests))),
        ]),
        Request::Warm { from } => Json::obj(vec![
            ("cmd", Json::Str("WARM".to_string())),
            ("from", Json::Str(from.clone())),
        ]),
        Request::Shutdown => Json::obj(vec![("cmd", Json::Str("SHUTDOWN".to_string()))]),
    };
    v.to_string_compact()
}

/// Builds an ORDER request from its parsed object, moving the payload
/// string out instead of copying it.
fn order_request_from_json(mut v: Json) -> Result<OrderRequest, ProtoError> {
    let alg_name = v.get("alg").and_then(Json::as_str).unwrap_or("spectral");
    let alg = parse_algorithm(alg_name).ok_or_else(|| {
        shape(format!(
            "unknown algorithm '{alg_name}' (expected one of: {})",
            algorithm_names()
        ))
    })?;
    let source = match (v.get("payload").is_some(), v.get("path")) {
        (true, None) => {
            let Some(Json::Str(mut payload)) = v.take("payload") else {
                return Err(shape("payload must be a string"));
            };
            // The decoder grew the string by doubling: return the slack,
            // so a queued or forwarded request holds only its payload.
            payload.shrink_to_fit();
            let format = match v.get("format") {
                Some(f) => {
                    let name = f.as_str().ok_or_else(|| shape("format must be a string"))?;
                    MatrixFormat::from_wire(name)
                        .ok_or_else(|| shape(format!("unknown format '{name}'")))?
                }
                None => MatrixFormat::MatrixMarket,
            };
            MatrixSource::Inline { format, payload }
        }
        (false, Some(path)) => MatrixSource::Path(
            path.as_str()
                .ok_or_else(|| shape("path must be a string"))?
                .to_string(),
        ),
        (true, Some(_)) => return Err(shape("give either payload or path, not both")),
        (false, None) => return Err(shape("ORDER needs a payload or a path")),
    };
    let timeout_ms = match v.get("timeout_ms") {
        None => None,
        Some(t) => Some(
            t.as_u64()
                .ok_or_else(|| shape("timeout_ms must be an integer"))?,
        ),
    };
    let threads = match v.get("threads") {
        None => None,
        Some(t) => {
            let t = t
                .as_u64()
                .ok_or_else(|| shape("threads must be an integer"))?;
            if t > MAX_REQUEST_THREADS as u64 {
                return Err(shape(format!(
                    "threads must be at most {MAX_REQUEST_THREADS}"
                )));
            }
            Some(t as usize)
        }
    };
    let id = match v.get("id") {
        None => None,
        Some(i) => Some(i.as_u64().ok_or_else(|| shape("id must be an integer"))?),
    };
    Ok(OrderRequest {
        alg,
        source,
        timeout_ms,
        include_perm: v
            .get("include_perm")
            .and_then(Json::as_bool)
            .unwrap_or(true),
        threads,
        compressed: v.get("compressed").and_then(Json::as_bool).unwrap_or(false),
        trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
        id,
        progress: v.get("progress").and_then(Json::as_bool).unwrap_or(false),
        hop: v.get("hop").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// Parses a request line.
pub fn decode_request(line: &str) -> Result<Request, ProtoError> {
    let mut v = parse(line).map_err(ProtoError::Json)?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| shape("missing cmd"))?;
    match cmd.to_ascii_uppercase().as_str() {
        "HELLO" => {
            let frames = match v.get("frames") {
                None => FrameMode::Ndjson,
                Some(f) => {
                    let name = f.as_str().ok_or_else(|| shape("frames must be a string"))?;
                    FrameMode::from_wire(name)
                        .ok_or_else(|| shape(format!("unknown frames '{name}'")))?
                }
            };
            let proto = match v.get("proto") {
                None => 1,
                Some(p) => {
                    let p = p
                        .as_u64()
                        .ok_or_else(|| shape("proto must be an integer"))?;
                    if p == 0 {
                        return Err(shape("proto must be at least 1"));
                    }
                    p.min(u32::MAX as u64) as u32
                }
            };
            Ok(Request::Hello { frames, proto })
        }
        "ORDER" => Ok(Request::Order(order_request_from_json(v)?)),
        "BATCH" => {
            let Some(Json::Arr(items)) = v.take("requests") else {
                return Err(shape("BATCH needs a requests array"));
            };
            if items.is_empty() {
                return Err(shape("BATCH must contain at least one request"));
            }
            items
                .into_iter()
                .map(order_request_from_json)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::Batch)
        }
        "STATS" => Ok(Request::Stats),
        "CANCEL" => {
            let id = v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| shape("CANCEL needs an integer id"))?;
            Ok(Request::Cancel { id })
        }
        "METRICS" => Ok(Request::Metrics),
        "REPLICATE" => {
            let entry = v
                .get("entry")
                .and_then(Json::as_str)
                .ok_or_else(|| shape("REPLICATE needs a hex entry string"))?;
            Ok(Request::Replicate {
                entry: hex_decode(entry).ok_or_else(|| shape("entry is not valid hex"))?,
            })
        }
        "PING" | "JOIN" | "LEAVE" | "WARM" => {
            let from = v
                .get("from")
                .and_then(Json::as_str)
                .ok_or_else(|| shape(format!("{cmd} needs a from address")))?
                .to_string();
            Ok(match cmd.to_ascii_uppercase().as_str() {
                "PING" => Request::Ping { from },
                "JOIN" => Request::Join { from },
                "LEAVE" => Request::Leave { from },
                _ => Request::Warm { from },
            })
        }
        "SYNC" => {
            let from = v
                .get("from")
                .and_then(Json::as_str)
                .ok_or_else(|| shape("SYNC needs a from address"))?
                .to_string();
            let digests = v
                .get("digests")
                .and_then(Json::as_str)
                .and_then(u64s_from_hex)
                .ok_or_else(|| shape("SYNC needs a hex digests string"))?;
            Ok(Request::Sync { from, digests })
        }
        "SHUTDOWN" => Ok(Request::Shutdown),
        other => Err(shape(format!("unknown cmd '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> EnvelopeStats {
        EnvelopeStats {
            envelope_size: 10,
            envelope_work: 40,
            bandwidth: 3,
            one_sum: 15,
            two_sum_sq: 55,
        }
    }

    #[test]
    fn order_request_roundtrip() {
        let req = Request::Order(OrderRequest {
            alg: Algorithm::Rcm,
            source: MatrixSource::Inline {
                format: MatrixFormat::MatrixMarket,
                payload:
                    "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 2 1.0\n"
                        .into(),
            },
            timeout_ms: Some(1500),
            include_perm: false,
            threads: Some(4),
            compressed: true,
            trace: true,
            id: Some(77),
            progress: true,
            hop: false,
        });
        let line = encode_request(&req);
        assert!(!line.contains('\n'));
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn hop_flag_roundtrips_and_defaults_off() {
        // Non-mesh request bytes are unchanged: hop only appears when set.
        let mut o = OrderRequest::inline_mtx(Algorithm::Rcm, "x");
        assert!(!encode_request(&Request::Order(o.clone())).contains("hop"));
        o.hop = true;
        let line = encode_request(&Request::Order(o.clone()));
        assert!(line.contains(r#""hop":true"#));
        assert_eq!(decode_request(&line).unwrap(), Request::Order(o));
        match decode_request(r#"{"cmd":"ORDER","path":"/m.mtx"}"#).unwrap() {
            Request::Order(o) => assert!(!o.hop),
            other => panic!("expected ORDER, got {other:?}"),
        }
    }

    #[test]
    fn replicate_roundtrips_and_rejects_bad_hex() {
        let req = Request::Replicate {
            entry: vec![0x00, 0xff, 0x53, 0x4f, 0x43, 0x46],
        };
        let line = encode_request(&req);
        assert!(line.contains(r#""cmd":"REPLICATE""#));
        assert!(line.contains("00ff534f4346"));
        assert_eq!(decode_request(&line).unwrap(), req);
        for bad in [
            r#"{"cmd":"REPLICATE"}"#,
            r#"{"cmd":"REPLICATE","entry":"abc"}"#,
            r#"{"cmd":"REPLICATE","entry":"zz"}"#,
        ] {
            assert!(decode_request(bad).is_err(), "should reject {bad}");
        }
        for stored in [true, false] {
            let resp = Response::ReplicateOk { stored };
            let line = encode_response(&resp);
            assert!(line.contains(r#""replicated":true"#));
            assert_eq!(decode_response(&line).unwrap(), resp);
        }
    }

    #[test]
    fn membership_commands_roundtrip() {
        let from = "10.0.0.1:7878".to_string();
        for req in [
            Request::Ping { from: from.clone() },
            Request::Join { from: from.clone() },
            Request::Leave { from: from.clone() },
            Request::Warm { from: from.clone() },
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        // All four carry a sender; a missing one is a shape error.
        for cmd in ["PING", "JOIN", "LEAVE", "WARM"] {
            assert!(decode_request(&format!(r#"{{"cmd":"{cmd}"}}"#)).is_err());
        }

        let resp = Response::Pong { from: from.clone() };
        let line = encode_response(&resp);
        assert!(line.contains(r#""pong":true"#));
        assert_eq!(decode_response(&line).unwrap(), resp);

        let resp = Response::JoinOk {
            members: vec!["a:1".into(), "b:2".into()],
        };
        let line = encode_response(&resp);
        assert!(line.contains(r#""joined":true"#));
        assert_eq!(decode_response(&line).unwrap(), resp);

        let resp = Response::LeaveOk;
        let line = encode_response(&resp);
        assert!(line.contains(r#""left":true"#));
        assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn sync_and_warm_roundtrip_with_hex_u64_lists() {
        // u64 digests above 2^53 must survive the JSON hop bit-exactly,
        // which is why they travel as hex strings rather than numbers.
        let big = u64::MAX - 3;
        let req = Request::Sync {
            from: "10.0.0.1:7878".into(),
            digests: vec![0, 1, big],
        };
        let line = encode_request(&req);
        assert!(line.contains(r#""cmd":"SYNC""#));
        assert_eq!(decode_request(&line).unwrap(), req);
        assert!(decode_request(r#"{"cmd":"SYNC","from":"a:1"}"#).is_err());
        assert!(decode_request(r#"{"cmd":"SYNC","from":"a:1","digests":"123"}"#).is_err());

        let resp = Response::SyncOk {
            shards: vec![0, 5, 11],
            keys: vec![big, 42],
        };
        let line = encode_response(&resp);
        assert!(line.contains(r#""sync":true"#));
        assert_eq!(decode_response(&line).unwrap(), resp);

        let entry = crate::persist::encode_entry(&crate::persist::PersistedEntry {
            key: 0xfeed,
            n: 3,
            adjacency_len: 2,
            stats: sparsemat::envelope::EnvelopeStats {
                envelope_size: 1,
                bandwidth: 1,
                envelope_work: 2,
                one_sum: 3,
                two_sum_sq: 4,
            },
            compression_ratio: None,
            degraded: None,
            perm: vec![0, 1, 2],
        });
        let resp = Response::WarmOk {
            entries: vec![entry.clone(), entry],
        };
        let line = encode_response(&resp);
        assert!(line.contains(r#""warm":true"#));
        assert_eq!(decode_response(&line).unwrap(), resp);
        // An empty warm answer (nothing owned) is legal.
        let empty = Response::WarmOk { entries: vec![] };
        assert_eq!(decode_response(&encode_response(&empty)).unwrap(), empty);
    }

    #[test]
    fn hello_roundtrip_and_defaults() {
        for frames in [FrameMode::Ndjson, FrameMode::Binary] {
            for proto in [1, 2] {
                let req = Request::Hello { frames, proto };
                assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
                let resp = Response::Hello { frames, proto };
                assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
            }
        }
        // frames defaults to ndjson, proto to 1; unknowns are shape errors.
        assert_eq!(
            decode_request(r#"{"cmd":"HELLO"}"#).unwrap(),
            Request::Hello {
                frames: FrameMode::Ndjson,
                proto: 1,
            }
        );
        assert!(decode_request(r#"{"cmd":"HELLO","frames":"smoke"}"#).is_err());
        assert!(decode_request(r#"{"cmd":"HELLO","proto":0}"#).is_err());
        // A v1 HELLO encodes without a proto key — bytes unchanged from
        // pre-v2 clients — while v2 asks explicitly.
        let v1 = encode_request(&Request::Hello {
            frames: FrameMode::Ndjson,
            proto: 1,
        });
        assert!(!v1.contains("proto"));
        let v2 = encode_request(&Request::Hello {
            frames: FrameMode::Ndjson,
            proto: 2,
        });
        assert!(v2.contains(r#""proto":2"#));
    }

    #[test]
    fn progress_frame_roundtrips() {
        let with_matvecs = Response::Progress(ProgressFrame {
            id: 9,
            stage: "lanczos".into(),
            percent: 20.0,
            micros: 1500,
            matvecs: Some(64),
        });
        let line = encode_response(&with_matvecs);
        assert!(line.contains(r#""progress":true"#));
        assert_eq!(decode_response(&line).unwrap(), with_matvecs);
        // The id also surfaces through the tagged decoder.
        let (id, resp) = decode_tagged_response(&line).unwrap();
        assert_eq!(id, Some(9));
        assert_eq!(resp, with_matvecs);
        let without = Response::Progress(ProgressFrame {
            id: 3,
            stage: "level[2]".into(),
            percent: 60.5,
            micros: 88,
            matvecs: None,
        });
        let line = encode_response(&without);
        assert!(!line.contains("matvecs"));
        assert_eq!(decode_response(&line).unwrap(), without);
        // Progress without an id is malformed.
        assert!(decode_response(r#"{"ok":true,"progress":true,"stage":"x"}"#).is_err());
    }

    #[test]
    fn tagged_encoding_splices_id_after_ok() {
        let resp = Response::Order(OrderResponse {
            alg: "RCM".into(),
            n: 3,
            nnz: 5,
            stats: sample_stats(),
            perm: Some(vec![2, 0, 1].into()),
            cache_hit: false,
            micros: 7,
            compression_ratio: None,
            degraded: None,
            trace: None,
        });
        let (tagged, _) = encode_response_tagged(&resp, FrameMode::Ndjson, Some(41));
        assert!(tagged.starts_with(r#"{"ok":true,"id":41,"#), "got {tagged}");
        let (id, decoded) = decode_tagged_response(&tagged).unwrap();
        assert_eq!(id, Some(41));
        assert_eq!(decoded, resp);
        // Untagged encoding is byte-identical to the v1 encoder.
        let (untagged, _) = encode_response_tagged(&resp, FrameMode::Ndjson, None);
        assert_eq!(untagged, encode_response(&resp));
        // Errors are taggable too — a pipelined failure must still name
        // the request it answers.
        let err = Response::Error(ErrorResponse::retriable("queue full"));
        let (line, _) = encode_response_tagged(&err, FrameMode::Ndjson, Some(5));
        assert!(line.starts_with(r#"{"ok":false,"id":5,"#), "got {line}");
        let (id, decoded) = decode_tagged_response(&line).unwrap();
        assert_eq!(id, Some(5));
        assert_eq!(decoded, err);
    }

    #[test]
    fn compressed_defaults_to_false() {
        match decode_request(r#"{"cmd":"ORDER","path":"/m.mtx"}"#).unwrap() {
            Request::Order(o) => assert!(!o.compressed),
            other => panic!("expected ORDER, got {other:?}"),
        }
        match decode_request(r#"{"cmd":"ORDER","path":"/m.mtx","compressed":true}"#).unwrap() {
            Request::Order(o) => assert!(o.compressed),
            other => panic!("expected ORDER, got {other:?}"),
        }
    }

    #[test]
    fn absurd_threads_rejected_at_decode() {
        let ok = format!(r#"{{"cmd":"ORDER","path":"/m.mtx","threads":{MAX_REQUEST_THREADS}}}"#);
        assert!(decode_request(&ok).is_ok());
        let too_big = format!(
            r#"{{"cmd":"ORDER","path":"/m.mtx","threads":{}}}"#,
            MAX_REQUEST_THREADS + 1
        );
        assert!(decode_request(&too_big).is_err());
        assert!(decode_request(r#"{"cmd":"ORDER","path":"/m.mtx","threads":1000000}"#).is_err());
    }

    #[test]
    fn batch_request_roundtrip() {
        let one = OrderRequest {
            alg: Algorithm::Spectral,
            source: MatrixSource::Path("/data/m.mtx".into()),
            timeout_ms: None,
            include_perm: true,
            threads: None,
            compressed: false,
            trace: false,
            id: None,
            progress: false,
            hop: false,
        };
        let req = Request::Batch(vec![one.clone(), one]);
        let line = encode_request(&req);
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn control_requests_roundtrip() {
        for r in [
            Request::Stats,
            Request::Metrics,
            Request::Cancel { id: 42 },
            Request::Shutdown,
        ] {
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }
        assert!(decode_request(r#"{"cmd":"CANCEL"}"#).is_err());
        assert!(decode_request(r#"{"cmd":"CANCEL","id":"seven"}"#).is_err());
    }

    #[test]
    fn trace_and_id_default_off() {
        match decode_request(r#"{"cmd":"ORDER","path":"/m.mtx"}"#).unwrap() {
            Request::Order(o) => {
                assert!(!o.trace);
                assert_eq!(o.id, None);
            }
            other => panic!("expected ORDER, got {other:?}"),
        }
        match decode_request(r#"{"cmd":"ORDER","path":"/m.mtx","trace":true,"id":9}"#).unwrap() {
            Request::Order(o) => {
                assert!(o.trace);
                assert_eq!(o.id, Some(9));
            }
            other => panic!("expected ORDER, got {other:?}"),
        }
        // An untraced response line carries no trace field at all.
        let resp = Response::Order(OrderResponse {
            alg: "RCM".into(),
            n: 2,
            nnz: 3,
            stats: sample_stats(),
            perm: None,
            cache_hit: false,
            micros: 1,
            compression_ratio: None,
            degraded: None,
            trace: None,
        });
        assert!(!encode_response(&resp).contains("trace"));
    }

    #[test]
    fn traced_response_splices_and_survives_roundtrip() {
        let tree =
            r#"{"name":"order","wall_micros":12,"children":[{"name":"stats","wall_micros":3}]}"#;
        let resp = Response::Order(OrderResponse {
            alg: "SPECTRAL".into(),
            n: 4,
            nnz: 10,
            stats: sample_stats(),
            perm: Some(vec![2, 0, 3, 1].into()),
            cache_hit: false,
            micros: 512,
            compression_ratio: None,
            degraded: None,
            trace: Some(tree.into()),
        });
        let line = encode_response(&resp);
        assert!(line.contains(r#""trace":{"name":"order""#));
        match decode_response(&line).unwrap() {
            Response::Order(o) => {
                let t = o.trace.expect("trace subtree");
                // Decoding re-renders the subtree; it stays an object with
                // the same structure.
                assert!(t.contains(r#""name":"order""#));
                assert!(t.contains(r#""name":"stats""#));
            }
            other => panic!("expected ORDER, got {other:?}"),
        }
    }

    #[test]
    fn metrics_and_cancel_responses_roundtrip() {
        let m =
            Response::Metrics("# HELP se_requests_total requests\nse_requests_total 3\n".into());
        assert_eq!(decode_response(&encode_response(&m)).unwrap(), m);
        for pending in [true, false] {
            let c = Response::CancelOk { pending };
            assert_eq!(decode_response(&encode_response(&c)).unwrap(), c);
        }
    }

    #[test]
    fn order_response_roundtrip() {
        let resp = Response::Order(OrderResponse {
            alg: "SPECTRAL".into(),
            n: 4,
            nnz: 10,
            stats: sample_stats(),
            perm: Some(vec![2, 0, 3, 1].into()),
            cache_hit: true,
            micros: 512,
            compression_ratio: Some(2.5),
            degraded: None,
            trace: None,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn degraded_response_roundtrips_and_clean_lines_omit_it() {
        let clean = OrderResponse {
            alg: "SPECTRAL".into(),
            n: 4,
            nnz: 10,
            stats: sample_stats(),
            perm: Some(vec![2, 0, 3, 1].into()),
            cache_hit: false,
            micros: 512,
            compression_ratio: None,
            degraded: None,
            trace: None,
        };
        assert!(!encode_response(&Response::Order(clean.clone())).contains("degraded"));
        let deg = Response::Order(OrderResponse {
            alg: "RCM".into(),
            degraded: Some("not_converged".into()),
            ..clean
        });
        let line = encode_response(&deg);
        assert!(line.contains(r#""degraded":true"#));
        assert!(line.contains(r#""degraded_reason":"not_converged""#));
        assert_eq!(decode_response(&line).unwrap(), deg);
    }

    #[test]
    fn cached_and_plain_perms_encode_identically() {
        let perm = vec![3usize, 1, 0, 2];
        let plain = OrderResponse {
            alg: "RCM".into(),
            n: 4,
            nnz: 7,
            stats: sample_stats(),
            perm: Some(PermPayload::Plain(perm.clone())),
            cache_hit: false,
            micros: 9,
            compression_ratio: None,
            degraded: None,
            trace: None,
        };
        let cached = OrderResponse {
            perm: Some(PermPayload::Cached(Arc::new(EncodedPerm::new(perm)))),
            cache_hit: true,
            ..plain.clone()
        };
        // NDJSON: identical except the cache_hit flag itself.
        let a = encode_response(&Response::Order(plain.clone()));
        let b = encode_response(&Response::Order(cached.clone()));
        assert_eq!(
            a.replace("\"cache_hit\":false", ""),
            b.replace("\"cache_hit\":true", "")
        );
        // Binary: same marker line shape, byte-identical frames.
        let (la, fa) = encode_response_framed(&Response::Order(plain), FrameMode::Binary);
        let (lb, fb) = encode_response_framed(&Response::Order(cached), FrameMode::Binary);
        assert!(la.contains("\"perm_frame\":true") && lb.contains("\"perm_frame\":true"));
        assert_eq!(fa.len(), 1);
        assert_eq!(fa[0].bytes(), fb[0].bytes());
        // PermPayload equality is content equality across variants.
        assert_eq!(
            PermPayload::Plain(vec![1, 0]),
            PermPayload::Cached(Arc::new(EncodedPerm::new(vec![1, 0])))
        );
    }

    #[test]
    fn framed_responses_decode_to_the_framed_marker() {
        let resp = Response::Order(OrderResponse {
            alg: "RCM".into(),
            n: 3,
            nnz: 5,
            stats: sample_stats(),
            perm: Some(vec![2, 0, 1].into()),
            cache_hit: false,
            micros: 11,
            compression_ratio: None,
            degraded: None,
            trace: None,
        });
        let (line, frames) = encode_response_framed(&resp, FrameMode::Binary);
        assert_eq!(frames.len(), 1);
        match decode_response(&line).unwrap() {
            Response::Order(o) => assert_eq!(o.perm, Some(PermPayload::Framed)),
            other => panic!("expected ORDER, got {other:?}"),
        }
        // A line claiming both representations is rejected.
        let both = line.replace(
            "\"perm_frame\":true",
            "\"perm_frame\":true,\"perm\":[2,0,1]",
        );
        assert!(decode_response(&both).is_err());
    }

    #[test]
    fn batch_response_roundtrip_with_mixed_outcomes() {
        let resp = Response::Batch(vec![
            Ok(OrderResponse {
                alg: "RCM".into(),
                n: 3,
                nnz: 5,
                stats: sample_stats(),
                perm: None,
                cache_hit: false,
                micros: 88,
                compression_ratio: None,
                degraded: None,
                trace: None,
            }),
            Err(ErrorResponse::retriable("queue full")),
        ]);
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn stats_and_shutdown_responses_roundtrip() {
        let s = Response::Stats(Json::obj(vec![("requests", Json::Num(7.0))]));
        assert_eq!(decode_response(&encode_response(&s)).unwrap(), s);
        let d = Response::ShutdownOk { drained: 3 };
        assert_eq!(decode_response(&encode_response(&d)).unwrap(), d);
    }

    #[test]
    fn error_response_roundtrip() {
        let e = Response::Error(ErrorResponse::fatal("parse error: bad header"));
        assert_eq!(decode_response(&encode_response(&e)).unwrap(), e);
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            "{}",
            r#"{"cmd":"NOPE"}"#,
            r#"{"cmd":"ORDER"}"#,
            r#"{"cmd":"ORDER","alg":"wat","payload":"x"}"#,
            r#"{"cmd":"ORDER","payload":"x","path":"y"}"#,
            r#"{"cmd":"BATCH"}"#,
            r#"{"cmd":"BATCH","requests":[]}"#,
            "not json",
        ] {
            assert!(decode_request(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn algorithm_vocabulary_matches_cli() {
        for (name, alg) in [
            ("spectral", Algorithm::Spectral),
            ("tracemin", Algorithm::TraceMin),
            ("rcm", Algorithm::Rcm),
            ("cm", Algorithm::CuthillMckee),
            ("gps", Algorithm::Gps),
            ("gk", Algorithm::Gk),
            ("sloan", Algorithm::Sloan),
            ("hybrid", Algorithm::HybridSloanSpectral),
            ("refined", Algorithm::SpectralRefined),
            ("mindeg", Algorithm::MinDegree),
            ("nd", Algorithm::SpectralNd),
        ] {
            assert_eq!(parse_algorithm(name), Some(alg));
        }
        assert_eq!(parse_algorithm("bogus"), None);
    }

    #[test]
    fn every_algorithm_roundtrips_through_the_wire_name() {
        // encode → decode must be the identity for every table row; this
        // also pins the encode path to the table (Algorithm::name() produces
        // labels like SPECTRAL+X that do not parse).
        for &(name, alg) in ALGORITHMS {
            assert_eq!(parse_algorithm(algorithm_wire_name(alg)), Some(alg));
            assert_eq!(algorithm_wire_name(alg), name);
            let req = Request::Order(OrderRequest::inline_mtx(alg, "stub"));
            let line = encode_request(&req);
            match decode_request(&line).expect("encoded request decodes") {
                Request::Order(o) => assert_eq!(o.alg, alg, "{name}"),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_algorithm_error_enumerates_the_vocabulary() {
        let err = decode_request(r#"{"cmd":"ORDER","alg":"bogus","path":"x.mtx"}"#).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm 'bogus'"), "{msg}");
        for &(name, _) in ALGORITHMS {
            assert!(msg.contains(name), "missing {name} in: {msg}");
        }
    }
}
