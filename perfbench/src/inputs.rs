//! Seeded inputs and request streams.
//!
//! The seed picks each input's vertex relabelling, the request order and
//! (on `mesh_churn`) the owner/non-owner routing coin — never the amount
//! of work: every seed orders the same stand-in matrices, with the same
//! `(n, nnz)` multiset, in the same number of requests per pass. Request
//! lines are encoded here, once, before any clock starts.

use crate::run::Kind;
use se_order::Algorithm;
use se_prng::SmallRng;
use se_service::cache::pattern_key;
use se_service::proto::{encode_request, MatrixFormat, MatrixSource, OrderRequest, Request};
use se_service::ring::{HashRing, DEFAULT_VNODES};
use sparsemat::{Permutation, SymmetricPattern};

/// One distinct request of a workload.
pub struct Input {
    /// Paper name of the stand-in this input relabels.
    pub base: &'static str,
    /// The pattern the server derives from the payload (parsed in-process
    /// from the exact request bytes, the same way the engine loads it).
    pub pattern: SymmetricPattern,
    /// The ORDER line without its closing `}`, so a pipelining client can
    /// splice a request id in without re-encoding the payload.
    pub body: Vec<u8>,
    /// The server's cache key for this request.
    pub key: u64,
}

impl Input {
    /// The complete request line (`\n`-terminated), optionally id-tagged.
    pub fn line(&self, id: Option<u64>) -> Vec<u8> {
        let mut line = self.body.clone();
        line.extend_from_slice(&line_tail(id));
        line
    }
}

/// The bytes that close a request line: an optional `"id"` field, the
/// object's `}` and the newline.
pub fn line_tail(id: Option<u64>) -> Vec<u8> {
    match id {
        Some(id) => format!(",\"id\":{id}}}\n").into_bytes(),
        None => b"}\n".to_vec(),
    }
}

/// One request of the stream: which input, and on `mesh_churn` whether it
/// goes to the key's owner (`true`) or to the other node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub input: usize,
    pub to_owner: bool,
}

/// A workload's inputs and its request stream.
pub struct Plan {
    pub alg: Algorithm,
    pub inputs: Vec<Input>,
    pub stream: Vec<Step>,
    /// Requests per pass; a run measures whole passes so that every input
    /// is requested as often as its weight says. `None` for streams
    /// without passes.
    pub pass_len: Option<usize>,
}

/// Stand-ins of `cold_spectral`, with how often each is requested per
/// pass of 32. Each percentile is placed inside the samples of an input
/// whose solve time barely moves with the labelling: in cost order
/// BCSSTK13 and DWT2680 take positions 1–14, so the median falls among
/// SSTMODEL's (15–24); SKIRT and BARTH4, whose times move by up to 2×
/// between labellings, are 1 in 32 each, so the p95 falls among the
/// slowest SHUTTLE samples, not in theirs.
pub const COLD_BASES: [(&str, usize); 6] = [
    ("BCSSTK13", 7),
    ("DWT2680", 7),
    ("SSTMODEL", 10),
    ("BARTH4", 1),
    ("SHUTTLE", 6),
    ("SKIRT", 1),
];
/// Relabellings of each `cold_spectral` base; pass `k` sends copy
/// `k mod COLD_COPIES` of every base, and a run measures whole cycles of
/// `COLD_COPIES` passes. The multilevel solver's work varies with the
/// labelling (BARTH4 takes 95–240 ms, SKIRT 190–570 ms across
/// relabellings on a 2-core host), so a run averages over several
/// relabellings rather than letting one seed's draw set its numbers.
pub const COLD_COPIES: usize = 4;
/// Stand-ins of `hit_replay` (n from 1 072 to 12 598).
pub const HIT_BASES: [&str; 8] = [
    "CAN1072", "POW9", "BCSSTK13", "DWT2680", "SSTMODEL", "BARTH4", "SHUTTLE", "SKIRT",
];
/// Stand-ins of `mesh_churn` (n from 1 072 to 3 350), each relabelled
/// [`MESH_COPIES`] times (half owned by each mesh node).
pub const MESH_BASES: [&str; 6] = [
    "CAN1072", "POW9", "BCSSTK13", "BLKHOLE", "DWT2680", "SSTMODEL",
];
pub const MESH_COPIES: usize = 8;

const COLD_CYCLES: usize = 8;
const HIT_PASSES: usize = 256;
const MESH_STREAM_LEN: usize = 8192;
/// Zipf exponent of the `mesh_churn` popularity ranking.
const MESH_ZIPF: f64 = 0.8;

/// Derives an independent stream seed for `(seed, purpose, index)`.
pub fn derive(seed: u64, purpose: u64, index: u64) -> u64 {
    let mut z = seed
        ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const RELABEL: u64 = 1;
const ORDER: u64 = 2;
const ROUTE: u64 = 3;

/// A seeded vertex relabelling of `g`.
pub fn relabel(g: &SymmetricPattern, seed: u64) -> SymmetricPattern {
    let mut order: Vec<usize> = (0..g.n()).collect();
    SmallRng::seed_from_u64(seed).shuffle(&mut order);
    let perm = Permutation::from_new_to_old(order).expect("a shuffle is a permutation");
    g.permute(&perm)
        .expect("permutation matches the pattern order")
}

/// Builds the stand-in for a paper matrix name.
pub fn standin(name: &str) -> SymmetricPattern {
    meshgen::standins::standin(name)
        .unwrap_or_else(|| panic!("unknown stand-in {name}"))
        .pattern
}

/// Renders `g` as an inline payload: Chaco (pattern only) or MatrixMarket
/// with values (a shifted Laplacian, so the server parses real numbers).
pub fn payload(g: &SymmetricPattern, format: MatrixFormat) -> String {
    match format {
        MatrixFormat::Chaco => sparsemat::io::write_chaco_string(g),
        MatrixFormat::MatrixMarket => {
            let a = g.to_csr_with(|v| g.degree(v) as f64 + 1.0, -1.0);
            sparsemat::io::write_matrix_market_string(&a)
        }
        MatrixFormat::HarwellBoeing => unreachable!("no workload sends Harwell-Boeing"),
    }
}

/// Parses a payload the way the engine does (`load_pattern`): Chaco
/// straight to a pattern; MatrixMarket to CSR, symmetrized, then pattern.
pub fn parse_payload(text: &str, format: MatrixFormat) -> SymmetricPattern {
    match format {
        MatrixFormat::Chaco => sparsemat::io::read_chaco_str(text).expect("chaco payload parses"),
        _ => sparsemat::io::read_matrix_market_str(text)
            .and_then(|m| m.symmetrize())
            .and_then(|s| s.pattern())
            .expect("MatrixMarket payload parses"),
    }
}

/// Encodes relabelling `index` of `g` as an ORDER line.
fn encode_input(
    seed: u64,
    index: u64,
    name: &'static str,
    g: &SymmetricPattern,
    format: MatrixFormat,
    alg: Algorithm,
) -> Input {
    let text = payload(&relabel(g, derive(seed, RELABEL, index)), format);
    let pattern = parse_payload(&text, format);
    let mut req = OrderRequest::inline_mtx(alg, String::new());
    req.source = MatrixSource::Inline {
        format,
        payload: text,
    };
    let mut body = encode_request(&Request::Order(req)).into_bytes();
    assert_eq!(body.pop(), Some(b'}'), "an ORDER line is a JSON object");
    Input {
        base: name,
        key: pattern_key(&pattern, alg, false),
        pattern,
        body,
    }
}

/// One seeded relabelling of each base, encoded.
pub fn build_inputs(
    seed: u64,
    bases: &[(&'static str, SymmetricPattern)],
    format: MatrixFormat,
    alg: Algorithm,
) -> Vec<Input> {
    bases
        .iter()
        .enumerate()
        .map(|(i, (name, g))| encode_input(seed, i as u64, name, g, format, alg))
        .collect()
}

/// `passes` seeded shuffles of `pass`, concatenated.
fn shuffled_passes(seed: u64, pass: &[usize], passes: usize) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, ORDER, 0));
    let mut stream = Vec::with_capacity(pass.len() * passes);
    for _ in 0..passes {
        let mut p = pass.to_vec();
        rng.shuffle(&mut p);
        stream.extend(p.into_iter().map(|input| Step {
            input,
            to_owner: true,
        }));
    }
    stream
}

/// A skewed stream: Zipf(`MESH_ZIPF`) draws over the popularity ranking
/// `ranked` (most popular first), each with a fair owner/non-owner coin.
fn skewed_stream(seed: u64, ranked: &[usize], len: usize) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, ORDER, 1));
    let weights: Vec<f64> = (1..=ranked.len())
        .map(|r| (r as f64).powf(-MESH_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut coin = SmallRng::seed_from_u64(derive(seed, ROUTE, 0));
    (0..len)
        .map(|_| {
            let mut u = rng.gen_range(0.0..total);
            let mut rank = 0;
            while rank + 1 < ranked.len() && u >= weights[rank] {
                u -= weights[rank];
                rank += 1;
            }
            Step {
                input: ranked[rank],
                to_owner: coin.gen::<bool>(),
            }
        })
        .collect()
}

fn named(names: &[&'static str]) -> Vec<(&'static str, SymmetricPattern)> {
    names.iter().map(|&n| (n, standin(n))).collect()
}

/// The `cold_spectral` plan: `copies` relabellings of each base (input
/// `c · bases + b` is copy `c` of base `b`), base `b` requested
/// `weights[b]` times per pass.
pub fn cold_plan(
    seed: u64,
    bases: &[(&'static str, SymmetricPattern)],
    weights: &[usize],
    copies: usize,
) -> Plan {
    let alg = Algorithm::Spectral;
    let inputs: Vec<Input> = (0..copies * bases.len())
        .map(|i| {
            let (name, g) = &bases[i % bases.len()];
            encode_input(seed, i as u64, name, g, MatrixFormat::Chaco, alg)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(derive(seed, ORDER, 0));
    let mut stream = Vec::new();
    for k in 0..COLD_CYCLES * copies {
        let first = (k % copies) * bases.len();
        let mut pass: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(b, &w)| std::iter::repeat_n(first + b, w))
            .collect();
        rng.shuffle(&mut pass);
        stream.extend(pass.into_iter().map(|input| Step {
            input,
            to_owner: true,
        }));
    }
    Plan {
        alg,
        pass_len: Some(weights.iter().sum::<usize>() * copies),
        stream,
        inputs,
    }
}

/// The `hit_replay` plan over the given bases. Its requests ask for RCM:
/// after warm-up every answer is a cache hit, whose cost does not depend
/// on the algorithm that filled the entry, and an RCM warm-up keeps the
/// multilevel solver's labelling-dependent cost out of `setup_s`.
pub fn hit_plan(seed: u64, bases: &[(&'static str, SymmetricPattern)]) -> Plan {
    let inputs = build_inputs(seed, bases, MatrixFormat::MatrixMarket, Algorithm::Rcm);
    let pass: Vec<usize> = (0..inputs.len()).collect();
    Plan {
        alg: Algorithm::Rcm,
        stream: shuffled_passes(seed, &pass, HIT_PASSES),
        pass_len: Some(pass.len()),
        inputs,
    }
}

/// The `mesh_churn` plan over the given bases for the two-node mesh
/// `names`: `2 × half` relabellings of each base, `half` of them owned by
/// each node (relabellings are drawn in seeded order and kept while their
/// owner still has room). Popularity rank `r` goes to base `r mod b`, owner
/// `(r / b) mod 2`, so every seed spreads the same sizes over the same
/// ranks and nodes: the seed moves keys and draws, never the work.
pub fn mesh_plan(
    seed: u64,
    bases: &[(&'static str, SymmetricPattern)],
    half: usize,
    names: &[String; 2],
) -> Plan {
    let ring = HashRing::new(names, DEFAULT_VNODES);
    let alg = Algorithm::Rcm;
    let mut inputs = Vec::with_capacity(bases.len() * 2 * half);
    // by_owner[node][base] = indices of that base's inputs the node owns.
    let mut by_owner = vec![vec![Vec::new(); bases.len()]; 2];
    let mut attempt = 0u64;
    for (b, (name, g)) in bases.iter().enumerate() {
        while by_owner[0][b].len() < half || by_owner[1][b].len() < half {
            let input = encode_input(seed, attempt, name, g, MatrixFormat::Chaco, alg);
            attempt += 1;
            let node = usize::from(ring.owner(input.key) == names[1]);
            if by_owner[node][b].len() < half {
                by_owner[node][b].push(inputs.len());
                inputs.push(input);
            }
        }
    }
    let ranked: Vec<usize> = (0..inputs.len())
        .map(|r| {
            let b = r % bases.len();
            let node = (r / bases.len()) % 2;
            by_owner[node][b][r / (2 * bases.len())]
        })
        .collect();
    Plan {
        alg,
        stream: skewed_stream(seed, &ranked, MESH_STREAM_LEN),
        pass_len: None,
        inputs,
    }
}

/// The plan of a workload over the real stand-ins (`mesh` names the two
/// mesh members of `mesh_churn`).
pub fn plan(kind: Kind, seed: u64, mesh: Option<&[String; 2]>) -> Plan {
    match (kind, mesh) {
        (Kind::ColdSpectral, _) => {
            let names: Vec<&'static str> = COLD_BASES.iter().map(|b| b.0).collect();
            let weights: Vec<usize> = COLD_BASES.iter().map(|b| b.1).collect();
            cold_plan(seed, &named(&names), &weights, COLD_COPIES)
        }
        (Kind::HitReplay, _) => hit_plan(seed, &named(&HIT_BASES)),
        (Kind::MeshChurn, Some(names)) => {
            mesh_plan(seed, &named(&MESH_BASES), MESH_COPIES / 2, names)
        }
        (Kind::MeshChurn, None) => panic!("mesh_churn needs the mesh member names"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> [String; 2] {
        ["127.0.0.1:40001".to_string(), "127.0.0.1:40002".to_string()]
    }

    fn small_bases() -> Vec<(&'static str, SymmetricPattern)> {
        vec![
            ("CAN1072", standin("CAN1072")),
            ("POW9", standin("POW9")),
            ("GRID", meshgen::grid2d(12, 9)),
        ]
    }

    /// Every byte the client would send, in stream order, plus the routing
    /// plan — what "the same request stream" means.
    fn wire_bytes(p: &Plan) -> (Vec<u8>, Vec<bool>) {
        let mut bytes = Vec::new();
        for (i, s) in p.stream.iter().enumerate() {
            bytes.extend(p.inputs[s.input].line(Some(i as u64)));
        }
        (bytes, p.stream.iter().map(|s| s.to_owner).collect())
    }

    fn keys(p: &Plan) -> Vec<u64> {
        p.inputs.iter().map(|i| i.key).collect()
    }

    fn sizes(p: &Plan) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = p
            .inputs
            .iter()
            .map(|i| (i.pattern.n(), i.pattern.nnz_lower_with_diagonal()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_routing_plan() {
        let bases = small_bases();
        for make in [
            |s, b: &[(&'static str, SymmetricPattern)]| cold_plan(s, b, &[1, 2, 1], 2),
            |s, b: &[(&'static str, SymmetricPattern)]| hit_plan(s, b),
            |s, b: &[(&'static str, SymmetricPattern)]| mesh_plan(s, b, 2, &names()),
        ] {
            let (a, b) = (make(7, &bases), make(7, &bases));
            assert_eq!(wire_bytes(&a), wire_bytes(&b));
            assert_eq!(keys(&a), keys(&b));
        }
        // The mesh coin is fair-ish and mixes both routes.
        let m = mesh_plan(7, &bases, 2, &names());
        let owners = m.stream.iter().filter(|s| s.to_owner).count();
        assert!(owners > m.stream.len() / 3 && owners < 2 * m.stream.len() / 3);
    }

    #[test]
    fn another_seed_gives_disjoint_keys_over_the_same_sizes() {
        let bases = small_bases();
        let (a, b) = (
            mesh_plan(1, &bases, 2, &names()),
            mesh_plan(2, &bases, 2, &names()),
        );
        assert_eq!(sizes(&a), sizes(&b));
        let ka = keys(&a);
        assert!(keys(&b).iter().all(|k| !ka.contains(k)));
        // Keys are distinct within one seed too: every copy is its own key.
        let mut sorted = ka.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ka.len());
        // Same amount of work per pass, whatever the seed.
        let (c1, c2) = (
            cold_plan(1, &bases, &[1, 2, 1], 2),
            cold_plan(2, &bases, &[1, 2, 1], 2),
        );
        assert_eq!(c1.stream.len(), c2.stream.len());
        assert_ne!(wire_bytes(&c1).0, wire_bytes(&c2).0);
    }

    #[test]
    fn mesh_ownership_and_popularity_are_balanced_for_every_seed() {
        let bases = small_bases();
        let ring = HashRing::new(&names(), DEFAULT_VNODES);
        for seed in [1, 2, 3] {
            let p = mesh_plan(seed, &bases, 2, &names());
            assert_eq!(p.inputs.len(), 12);
            for (base, _) in &bases {
                for name in names() {
                    let owned = p
                        .inputs
                        .iter()
                        .filter(|i| i.base == *base && ring.owner(i.key) == name)
                        .count();
                    assert_eq!(owned, 2, "seed {seed} base {base} node {name}");
                }
            }
        }
    }

    #[test]
    fn passes_request_every_input_equally_often() {
        let bases = small_bases();
        let p = hit_plan(3, &bases);
        let len = p.pass_len.unwrap();
        for pass in p.stream.chunks(len) {
            let mut ids: Vec<usize> = pass.iter().map(|s| s.input).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..bases.len()).collect::<Vec<_>>());
        }
        let c = cold_plan(3, &bases, &[1, 2, 1], 2);
        // A measured unit is a whole cycle: both copies' passes of 4.
        assert_eq!(c.pass_len, Some(8));
        for (k, pass) in c.stream.chunks(4).enumerate() {
            // Pass k sends copy k mod 2 of every base, the second one twice.
            let first = (k % 2) * bases.len();
            let mut ids: Vec<usize> = pass.iter().map(|s| s.input).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![first, first + 1, first + 1, first + 2]);
        }
    }

    #[test]
    fn payloads_round_trip_to_the_relabelled_pattern() {
        let g = meshgen::grid2d(7, 5);
        for format in [MatrixFormat::Chaco, MatrixFormat::MatrixMarket] {
            let r = relabel(&g, 11);
            let parsed = parse_payload(&payload(&r, format), format);
            assert_eq!(parsed.xadj(), r.xadj());
            assert_eq!(parsed.adjncy(), r.adjncy());
        }
        let input = &build_inputs(5, &[("GRID", g)], MatrixFormat::Chaco, Algorithm::Rcm)[0];
        let line = String::from_utf8(input.line(Some(42))).unwrap();
        match se_service::proto::decode_request(line.trim_end()).unwrap() {
            Request::Order(o) => {
                assert_eq!(o.id, Some(42));
                assert_eq!(o.alg, Algorithm::Rcm);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
