//! Robustness fuzzing for the file-format parsers: arbitrary input must
//! produce `Err(..)`, never a panic, and near-valid inputs with small
//! corruptions must be rejected cleanly.
//!
//! Driven by the in-tree deterministic PRNG (seeded loops) so runs are
//! reproducible and the workspace needs no registry access.

use se_prng::SmallRng;
use sparsemat::io::chaco::read_chaco_str;
use sparsemat::io::harwell_boeing::read_harwell_boeing_str;
use sparsemat::io::matrix_market::{read_matrix_market_str, write_matrix_market_string};
use sparsemat::CsrMatrix;

/// A random string of printable ASCII plus occasional newlines/controls.
fn noise(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| match rng.gen_range(0..20u32) {
            0 => '\n',
            1 => '\t',
            _ => char::from(rng.gen_range(0x20..=0x7Eu32) as u8),
        })
        .collect()
}

#[test]
fn arbitrary_text_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xF022);
    for _ in 0..256 {
        let s = noise(&mut rng, 300);
        let _ = read_matrix_market_str(&s);
        let _ = read_harwell_boeing_str(&s);
        let _ = read_chaco_str(&s);
    }
}

#[test]
fn line_noise_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xF023);
    for _ in 0..256 {
        let lines: Vec<String> = (0..rng.gen_range(0..20usize))
            .map(|_| noise(&mut rng, 40).replace('\n', " "))
            .collect();
        let s = lines.join("\n");
        let _ = read_matrix_market_str(&s);
        let _ = read_harwell_boeing_str(&s);
        let _ = read_chaco_str(&s);
    }
}

/// A valid MatrixMarket file with one corrupted byte is either parsed (the
/// corruption hit whitespace/comment) or cleanly rejected.
#[test]
fn corrupted_matrix_market_no_panic() {
    let mut rng = SmallRng::seed_from_u64(0xF024);
    for seed in 0..256u64 {
        // Build a small valid file deterministically from the seed.
        let n = 3 + (seed % 4) as usize;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.0 + i as f64));
        }
        entries.push((0, n - 1, -1.0));
        entries.push((n - 1, 0, -1.0));
        let a = CsrMatrix::from_entries(n, &entries).unwrap();
        let mut text = write_matrix_market_string(&a).into_bytes();
        let pos = rng.gen_range(0..text.len());
        text[pos] = (rng.gen::<u64>() & 0xFF) as u8;
        let corrupted = String::from_utf8_lossy(&text).to_string();
        let _ = read_matrix_market_str(&corrupted);
    }
}

/// Truncations of a valid Harwell–Boeing file never panic.
#[test]
fn truncated_harwell_boeing_no_panic() {
    use sparsemat::io::harwell_boeing::write_harwell_boeing_string;
    let a = CsrMatrix::from_entries(
        4,
        &[
            (0, 0, 2.0),
            (1, 1, 2.0),
            (2, 2, 2.0),
            (3, 3, 2.0),
            (1, 0, -1.0),
            (0, 1, -1.0),
        ],
    )
    .unwrap();
    let s = write_harwell_boeing_string(&a, "TRNC");
    for cut in 0..s.len() {
        let _ = read_harwell_boeing_str(&s[..cut]);
    }
}

/// Chaco files with random numeric noise after a valid header.
#[test]
fn chaco_numeric_noise_no_panic() {
    let mut rng = SmallRng::seed_from_u64(0xF025);
    for _ in 0..256 {
        let n = rng.gen_range(1..8usize);
        let body: Vec<Vec<usize>> = (0..rng.gen_range(0..8usize))
            .map(|_| {
                (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(0..12usize))
                    .collect()
            })
            .collect();
        let m = body.iter().map(|l| l.len()).sum::<usize>() / 2;
        let mut s = format!("{n} {m}\n");
        for line in &body {
            s.push_str(
                &line
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            s.push('\n');
        }
        let _ = read_chaco_str(&s);
    }
}

/// A valid 3×3 symmetric Harwell–Boeing file (five stored lower-triangle
/// entries, column pointers `1 3 5 6`).
fn small_harwell_boeing() -> String {
    use sparsemat::io::harwell_boeing::write_harwell_boeing_string;
    let a = CsrMatrix::from_entries(
        3,
        &[
            (0, 0, 2.0),
            (1, 1, 2.0),
            (2, 2, 2.0),
            (1, 0, -1.0),
            (0, 1, -1.0),
            (2, 1, -1.0),
            (1, 2, -1.0),
        ],
    )
    .unwrap();
    write_harwell_boeing_string(&a, "HB3")
}

/// A valid Harwell–Boeing file with one corrupted byte is either parsed or
/// cleanly rejected.
#[test]
fn corrupted_harwell_boeing_no_panic() {
    let valid = small_harwell_boeing().into_bytes();
    let mut rng = SmallRng::seed_from_u64(0xF026);
    for _ in 0..1024 {
        let mut text = valid.clone();
        let pos = rng.gen_range(0..text.len());
        text[pos] = (rng.gen::<u64>() & 0xFF) as u8;
        let _ = read_harwell_boeing_str(&String::from_utf8_lossy(&text));
    }
}

/// Column pointers that leave `1..=nnzero+1` or decrease, and a multi-byte
/// character across a fixed-column boundary of the format line, are
/// rejected instead of panicking.
#[test]
fn hostile_harwell_boeing_pointers_and_format_line_are_rejected() {
    let valid = small_harwell_boeing();
    let ptr_line = valid.lines().nth(4).unwrap();
    assert_eq!(
        ptr_line.split_whitespace().collect::<Vec<_>>(),
        ["1", "3", "5", "6"]
    );
    let fmt_line = valid.lines().nth(3).unwrap();
    assert!(fmt_line.len() >= 33 && fmt_line.is_char_boundary(15));
    let with_ptrs = |ptrs: &str| valid.replacen(ptr_line, ptrs, 1);
    let split_char = valid.replacen(
        fmt_line,
        &format!("{}é{}", &fmt_line[..15], &fmt_line[16..]),
        1,
    );
    for (what, text) in [
        ("pointer past nnzero + 1", with_ptrs(" 1 9 5 6")),
        ("zero pointer", with_ptrs(" 1 0 5 6")),
        ("decreasing pointers", with_ptrs(" 1 5 3 6")),
        ("character across byte 16", split_char),
    ] {
        assert!(read_harwell_boeing_str(&text).is_err(), "{what}: {text}");
    }
}
