//! The payload alias: an exact resend of an inline payload whose entry is
//! cached is answered without parsing it, and must be indistinguishable
//! from the full-path hit it replaces — same bytes (bar `micros`), same
//! counters — while evictions, malformed payloads, traced and path
//! requests and a disabled cache never get an answer through it.

use se_order::Algorithm;
use se_prng::SmallRng;
use se_service::json::Json;
use se_service::proto::{encode_request, MatrixFormat, MatrixSource, OrderRequest, Request};
use se_service::{serve, Client, Config, ServerHandle};
use sparsemat::pattern::SymmetricPattern;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn request(source: MatrixSource, alg: Algorithm) -> OrderRequest {
    OrderRequest {
        alg,
        source,
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

fn inline(format: MatrixFormat, payload: String) -> OrderRequest {
    request(MatrixSource::Inline { format, payload }, Algorithm::Rcm)
}

fn line(req: &OrderRequest) -> String {
    encode_request(&Request::Order(req.clone()))
}

/// Replaces the value of every `"micros":` key with 0 — the only field of
/// a hit that depends on timing.
fn mask_micros(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(r#""micros":"#) {
        let value = at + r#""micros":"#.len();
        out.push_str(&rest[..value]);
        out.push('0');
        rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A raw protocol-v1 connection that returns exactly what comes back.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr, binary: bool) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut raw = Raw {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        };
        if binary {
            let ack = raw.ask(r#"{"cmd":"HELLO","frames":"binary"}"#);
            assert!(ack.contains(r#""frames":"binary""#), "{ack}");
        }
        raw
    }

    /// Sends one request line; returns the response line with `micros`
    /// masked, followed by the raw bytes of any announced binary frame.
    fn ask(&mut self, request: &str) -> String {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("write request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let mut out = mask_micros(line.trim_end_matches('\n'));
        if line.contains(r#""perm_frame":true"#) {
            let mut header = [0u8; 16];
            self.reader.read_exact(&mut header).expect("frame header");
            let n = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
            let mut body = vec![0u8; n * header[5] as usize];
            self.reader.read_exact(&mut body).expect("frame body");
            out.push_str(&format!("\n#frame {header:?} {body:?}"));
        }
        out
    }
}

fn stats(handle: &ServerHandle) -> Json {
    Client::connect(handle.local_addr())
        .and_then(|mut c| c.stats())
        .expect("STATS")
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).expect(name)
}

fn shard_hits(stats: &Json) -> u64 {
    stats
        .get("cache")
        .and_then(|c| c.get("shards"))
        .and_then(Json::as_arr)
        .expect("per-shard table")
        .iter()
        .map(|s| s.get("hits").and_then(Json::as_u64).expect("shard hits"))
        .sum()
}

fn shut_down(handle: ServerHandle) {
    Client::connect(handle.local_addr())
        .and_then(|mut c| c.shutdown())
        .expect("SHUTDOWN");
    handle.join();
}

fn temp_file(tag: &str, ext: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("se-alias-{tag}-{}.{ext}", std::process::id()));
    std::fs::write(&path, text).expect("write temp matrix");
    path.to_string_lossy().into_owned()
}

/// MatrixMarket text of `g` as a shifted Laplacian scaled by `scale`.
fn matrix_market(g: &SymmetricPattern, scale: f64) -> String {
    let a = g.to_csr_with(|v| scale * (g.degree(v) as f64 + 1.0), -scale);
    sparsemat::io::write_matrix_market_string(&a)
}

/// Every spelling of `g` the corpus sends: three formats, and within them
/// texts that differ only in comments, whitespace or values.
fn spellings(g: &SymmetricPattern, rng: &mut SmallRng) -> Vec<(MatrixFormat, String)> {
    let mm = matrix_market(g, 1.0);
    let (header, body) = mm.split_once('\n').expect("a header line");
    let comment = format!("{header}\n% spelling {}\n{body}", rng.next_u64());
    let spaced: String = body
        .lines()
        .map(|l| {
            let sep = if rng.next_u64().is_multiple_of(2) {
                "  "
            } else {
                "\t"
            };
            format!("{} \n", l.replace(' ', sep))
        })
        .collect();
    let chaco = sparsemat::io::write_chaco_string(g);
    let a = g.to_csr_with(|v| g.degree(v) as f64 + 1.0, -1.0);
    vec![
        (MatrixFormat::MatrixMarket, mm.clone()),
        (MatrixFormat::MatrixMarket, comment),
        (MatrixFormat::MatrixMarket, format!("{header}\n{spaced}")),
        (
            MatrixFormat::MatrixMarket,
            matrix_market(g, 0.5 + (rng.next_u64() % 7) as f64),
        ),
        (MatrixFormat::Chaco, chaco.clone()),
        (MatrixFormat::Chaco, format!("% spelling\n{chaco}")),
        (
            MatrixFormat::HarwellBoeing,
            sparsemat::io::harwell_boeing::write_harwell_boeing_string(&a, "ALIAS1"),
        ),
        (
            MatrixFormat::HarwellBoeing,
            sparsemat::io::harwell_boeing::write_harwell_boeing_string(&a, "ALIAS2"),
        ),
    ]
}

/// The differential check: over a seeded corpus, every inline spelling
/// sent three times answers byte for byte like the full-path hit of a
/// `path` request for the same pattern (which never aliases), in both
/// frame modes; STATS counts exactly one hit per hit, per shard too.
#[test]
fn resent_payloads_answer_exactly_like_the_full_path_hit() {
    for binary in [false, true] {
        let handle = serve(Config::default()).expect("bind");
        let mut raw = Raw::connect(handle.local_addr(), binary);
        let mut rng = SmallRng::seed_from_u64(16);
        let mut hits = 0u64;
        for case in 0..4 {
            let g = meshgen::random_geometric(60 + (rng.next_u64() % 120) as usize, 0.2, case);
            let path = temp_file(&format!("{binary}-{case}"), "mtx", &matrix_market(&g, 1.0));
            let by_path = line(&request(MatrixSource::Path(path.clone()), Algorithm::Rcm));
            let miss = raw.ask(&by_path);
            assert!(miss.contains(r#""cache_hit":false"#), "{miss}");
            let reference = raw.ask(&by_path);
            assert_eq!(
                reference,
                miss.replace(r#""cache_hit":false"#, r#""cache_hit":true"#)
            );
            hits += 1;
            for (format, payload) in spellings(&g, &mut rng) {
                let req = line(&inline(format, payload));
                for send in 0..3 {
                    let before = stats(&handle);
                    assert_eq!(raw.ask(&req), reference, "{format:?} send {send}");
                    let after = stats(&handle);
                    assert_eq!(
                        counter(&after, "cache_hits"),
                        counter(&before, "cache_hits") + 1
                    );
                    assert_eq!(shard_hits(&after), shard_hits(&before) + 1);
                    assert_eq!(
                        counter(&after, "cache_misses"),
                        counter(&before, "cache_misses")
                    );
                    hits += 1;
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
        let s = stats(&handle);
        assert_eq!(counter(&s, "cache_hits"), hits);
        assert_eq!(counter(&s, "cache_misses"), 4);
        assert!(
            handle.engine().cache().alias_count() > 0,
            "aliases recorded"
        );

        // The first inline request of a fresh pattern is a miss; its
        // resends (alias hits) equal the path request's full-path hit.
        let g = meshgen::grid2d(9, 13);
        let payload = matrix_market(&g, 2.0);
        let req = line(&inline(MatrixFormat::MatrixMarket, payload.clone()));
        let miss = raw.ask(&req);
        let resends = [raw.ask(&req), raw.ask(&req)];
        let path = temp_file(&format!("{binary}-fresh"), "mtx", &payload);
        let by_path = raw.ask(&line(&request(
            MatrixSource::Path(path.clone()),
            Algorithm::Rcm,
        )));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            by_path,
            miss.replace(r#""cache_hit":false"#, r#""cache_hit":true"#)
        );
        assert_eq!(resends, [by_path.clone(), by_path]);

        // `compressed` is part of the alias: the same payload compressed
        // is its own entry, then its own alias hits.
        let mut compressed = inline(MatrixFormat::MatrixMarket, payload);
        compressed.compressed = true;
        let compressed = line(&compressed);
        let first = raw.ask(&compressed);
        assert!(first.contains(r#""cache_hit":false"#), "{first}");
        assert!(first.contains("compression_ratio"), "{first}");
        let hit = first.replace(r#""cache_hit":false"#, r#""cache_hit":true"#);
        assert_eq!(
            [raw.ask(&compressed), raw.ask(&compressed)],
            [hit.clone(), hit]
        );
        shut_down(handle);
    }
}

/// With room for one entry, A then B evicts A (and A's alias); the third
/// request, A again, is recomputed — not answered through a dangling
/// alias — and still equals the first answer.
#[test]
fn an_evicted_entry_is_recomputed_not_served_through_a_dangling_alias() {
    // Two patterns with the same vertex count cost the same bytes.
    let (a, b) = (meshgen::grid2d(10, 10), meshgen::grid2d(5, 20));
    let (req_a, req_b) = (
        line(&inline(
            MatrixFormat::Chaco,
            sparsemat::io::write_chaco_string(&a),
        )),
        line(&inline(
            MatrixFormat::Chaco,
            sparsemat::io::write_chaco_string(&b),
        )),
    );
    let probe = serve(Config::default()).expect("bind");
    Raw::connect(probe.local_addr(), false).ask(&req_a);
    let entry_bytes = probe.engine().cache().used_bytes();
    shut_down(probe);

    let handle = serve(Config {
        cache_budget_bytes: entry_bytes * 3 / 2,
        cache_shards: 1,
        ..Config::default()
    })
    .expect("bind");
    let mut raw = Raw::connect(handle.local_addr(), false);
    let first = raw.ask(&req_a);
    assert_eq!(handle.engine().cache().alias_count(), 1);
    assert!(raw.ask(&req_b).contains(r#""cache_hit":false"#));
    assert_eq!(
        handle.engine().cache().alias_count(),
        1,
        "A's alias left with A"
    );
    let again = raw.ask(&req_a);
    assert_eq!(again, first, "recomputed, bit-identical");
    let s = stats(&handle);
    assert_eq!(
        (counter(&s, "cache_hits"), counter(&s, "cache_misses")),
        (0, 3)
    );
    assert_eq!(handle.engine().cache().len(), 1);
    shut_down(handle);
}

/// Ten spellings of one pattern leave at most four aliases, the newest.
#[test]
fn ten_spellings_of_one_pattern_keep_at_most_four_aliases() {
    let handle = serve(Config::default()).expect("bind");
    let mut raw = Raw::connect(handle.local_addr(), false);
    let g = meshgen::grid2d(8, 11);
    let mm = matrix_market(&g, 1.0);
    let (header, body) = mm.split_once('\n').unwrap();
    let reqs: Vec<String> = (0..10)
        .map(|i| {
            let text = format!("{header}\n% spelling {i}\n{body}");
            line(&inline(MatrixFormat::MatrixMarket, text))
        })
        .collect();
    let reference = raw
        .ask(&reqs[0])
        .replace(r#""cache_hit":false"#, r#""cache_hit":true"#);
    for req in &reqs[1..] {
        assert_eq!(raw.ask(req), reference);
    }
    let cache = handle.engine().cache();
    assert_eq!(
        cache.alias_count(),
        se_service::cache::MAX_ALIASES_PER_ENTRY
    );
    for req in reqs.iter().rev() {
        assert_eq!(raw.ask(req), reference, "every spelling still hits");
    }
    assert_eq!(
        cache.alias_count(),
        se_service::cache::MAX_ALIASES_PER_ENTRY
    );
    shut_down(handle);
}

/// What never goes through the alias: a malformed payload (the same error
/// both times), `trace:true` and `path` requests, and every request to a
/// server whose cache budget is 0.
#[test]
fn malformed_traced_path_and_uncached_requests_bypass_the_alias() {
    let handle = serve(Config::default()).expect("bind");
    let mut raw = Raw::connect(handle.local_addr(), false);
    let cache = handle.engine().cache();
    let bad = line(&inline(
        MatrixFormat::MatrixMarket,
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 x 1.0\n".to_string(),
    ));
    let error = raw.ask(&bad);
    assert!(error.contains(r#""ok":false"#), "{error}");
    assert_eq!(raw.ask(&bad), error);
    assert_eq!(counter(&stats(&handle), "errors"), 2);

    let g = meshgen::grid2d(7, 9);
    let mut traced = inline(MatrixFormat::Chaco, sparsemat::io::write_chaco_string(&g));
    traced.trace = true;
    for _ in 0..3 {
        let r = raw.ask(&line(&traced));
        assert!(
            r.contains(r#""cache_hit":false"#) && r.contains(r#""trace":"#),
            "{r}"
        );
    }
    assert_eq!(cache.alias_count(), 0, "traced requests never alias");

    let path = temp_file("bypass", "mtx", &matrix_market(&g, 1.0));
    let by_path = line(&request(MatrixSource::Path(path.clone()), Algorithm::Rcm));
    for _ in 0..3 {
        assert!(raw.ask(&by_path).contains(r#""cache_hit":true"#));
    }
    std::fs::remove_file(&path).unwrap();
    assert_eq!(cache.alias_count(), 0, "path requests never alias");
    shut_down(handle);

    let uncached = serve(Config {
        cache_budget_bytes: 0,
        ..Config::default()
    })
    .expect("bind");
    let mut raw = Raw::connect(uncached.local_addr(), false);
    let req = line(&inline(
        MatrixFormat::Chaco,
        sparsemat::io::write_chaco_string(&g),
    ));
    let first = raw.ask(&req);
    for _ in 0..2 {
        assert_eq!(raw.ask(&req), first);
    }
    assert!(first.contains(r#""cache_hit":false"#));
    assert_eq!(uncached.engine().cache().alias_count(), 0);
    assert_eq!(counter(&stats(&uncached), "cache_misses"), 3);
    shut_down(uncached);
}
