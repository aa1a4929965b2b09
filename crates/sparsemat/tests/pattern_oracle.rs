//! Differential oracle for the direct MatrixMarket pattern reader.
//!
//! `read_matrix_market_pattern_str(s)` must equal the long way round,
//! `read_matrix_market_str(s)?.symmetrize()?.pattern()`: the same
//! `xadj`/`adjncy` when both succeed, the same error text when both fail.
//! Three seeded corpora drive it — valid files over every field × symmetry
//! combination, one-byte corruptions of those, and whitespace/sign/special
//! value variants — and one graph written in all three formats must load
//! to one pattern.

use se_prng::SmallRng;
use sparsemat::io::{
    read_chaco_str, read_harwell_boeing_str, read_matrix_market_pattern_str, read_matrix_market_str,
};
use sparsemat::{CsrMatrix, Result, SymmetricPattern};

const FIELDS: [&str; 3] = ["real", "integer", "pattern"];
const SYMMETRIES: [&str; 3] = ["general", "symmetric", "skew-symmetric"];

fn via_csr(s: &str) -> Result<SymmetricPattern> {
    read_matrix_market_str(s)
        .and_then(|m| m.symmetrize())
        .and_then(|m| m.pattern())
}

/// Asserts both readers agree on `s`; returns whether they accepted it.
fn assert_agree(s: &str) -> bool {
    match (read_matrix_market_pattern_str(s), via_csr(s)) {
        (Ok(direct), Ok(long)) => {
            assert_eq!(direct.n(), long.n(), "n differs for {s:?}");
            assert_eq!(direct.xadj(), long.xadj(), "xadj differs for {s:?}");
            assert_eq!(direct.adjncy(), long.adjncy(), "adjncy differs for {s:?}");
            true
        }
        (Err(direct), Err(long)) => {
            assert_eq!(
                direct.to_string(),
                long.to_string(),
                "errors differ for {s:?}"
            );
            false
        }
        (direct, long) => panic!("readers disagree on {s:?}: {direct:?} vs {long:?}"),
    }
}

/// One seeded MatrixMarket file. Shapes cover square, non-square, `n = 0`
/// and diagonal-only matrices; entries land anywhere in range (so
/// symmetric files may name upper-triangle positions), repeat, and carry
/// explicit zeros.
fn random_file(rng: &mut SmallRng, field: &str, symmetry: &str) -> String {
    let nrows = rng.gen_range(0..7usize);
    let ncols = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..7usize),
        _ => nrows,
    };
    let diagonal_only = rng.gen_range(0..5u32) == 0;
    let mut entries = Vec::new();
    if nrows > 0 && ncols > 0 {
        for _ in 0..rng.gen_range(0..12usize) {
            let r = rng.gen_range(1..=nrows);
            let c = if diagonal_only && r <= ncols {
                r
            } else {
                rng.gen_range(1..=ncols)
            };
            entries.push((r, c));
            if rng.gen_range(0..6u32) == 0 {
                entries.push((r, c)); // a duplicate
            }
        }
    }
    let mut s = format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n");
    if rng.gen_range(0..3u32) == 0 {
        s.push_str("% a comment line\n\n");
    }
    s.push_str(&format!("{nrows} {ncols} {}\n", entries.len()));
    for (r, c) in entries {
        let value = match (field, rng.gen_range(0..4u32)) {
            ("pattern", _) => String::new(),
            (_, 0) => " 0".into(), // an explicit zero
            ("integer", _) => format!(" {}", rng.gen_range(0..20u32) as i64 - 10),
            _ => format!(" {:.3e}", rng.gen::<f64>() * 8.0 - 4.0),
        };
        s.push_str(&format!("{r} {c}{value}\n"));
    }
    s
}

#[test]
fn valid_files_agree_over_every_field_and_symmetry() {
    let mut rng = SmallRng::seed_from_u64(0x0AC1);
    let (mut accepted, mut rejected) = (0, 0);
    for field in FIELDS {
        for symmetry in SYMMETRIES {
            for _ in 0..150 {
                let s = random_file(&mut rng, field, symmetry);
                if assert_agree(&s) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    // Non-square shapes are rejected (NotSquare, or an out-of-range mirror
    // for symmetric files); the rest must load.
    assert!(accepted > 800, "only {accepted} files accepted");
    assert!(rejected > 100, "only {rejected} files rejected");
}

#[test]
fn fixed_edge_cases_agree() {
    for s in [
        // n = 0.
        "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        // Diagonal only: an edgeless pattern.
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 2\n3 3\n",
        // Skew-symmetric with an explicit zero and a duplicate.
        "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 3\n2 1 0\n3 1 1.5\n3 1 -1.5\n",
        // Non-square general: NotSquare from both.
        "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 3 1.0\n",
        // Non-square symmetric: the mirror of (1,3) is out of range.
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
        "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
        // Truncated and over-long bodies.
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 0\n1 2 1.0\n",
        // Unsupported kinds.
        "%%MatrixMarket matrix array real general\n2 2\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
        "",
        "%%MatrixMarket matrix coordinate real general\n% no size line\n",
    ] {
        assert_agree(s);
    }
}

/// The one documented divergence: a non-square file too large for a row
/// pointer array is `NotSquare` on the direct route, while the CSR route
/// fails first building its row pointers.
#[test]
fn huge_non_square_is_not_square_on_the_direct_route() {
    let s = "%%MatrixMarket matrix coordinate real general\n18446744073709551615 1 0\n";
    assert_eq!(
        read_matrix_market_pattern_str(s).unwrap_err().to_string(),
        "matrix is not square (18446744073709551615x1)"
    );
    assert_eq!(
        via_csr(s).unwrap_err().to_string(),
        "parse error: dimension 18446744073709551615 is too large"
    );
}

#[test]
fn one_byte_corruptions_agree() {
    let mut rng = SmallRng::seed_from_u64(0x0AC2);
    let (mut accepted, mut rejected) = (0, 0);
    for round in 0..1500 {
        let field = FIELDS[round % 3];
        let symmetry = SYMMETRIES[(round / 3) % 3];
        let mut bytes = random_file(&mut rng, field, symmetry).into_bytes();
        let pos = rng.gen_range(0..bytes.len());
        // Half the time an arbitrary byte, else one that keeps the file
        // near-valid (a digit, a separator, a sign, a comment mark).
        let near_valid = b"0123456789 \n\t%+-.e";
        bytes[pos] = if rng.gen_range(0..2u32) == 0 {
            (rng.gen::<u64>() & 0xFF) as u8
        } else {
            near_valid[rng.gen_range(0..near_valid.len())]
        };
        let s = String::from_utf8_lossy(&bytes).to_string();
        if assert_agree(&s) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}

#[test]
fn whitespace_signs_and_special_values_agree() {
    // Unicode whitespace (vertical tab, form feed, NBSP, NEL, em space,
    // line separator, ideographic space) separates tokens but never lines.
    const SEPARATORS: [&str; 9] = [
        " ", "\t", "\u{0B}", "\u{0C}", "\u{A0}", "\u{85}", "\u{2003}", "\u{2028}", "\u{3000}",
    ];
    const ENDINGS: [&str; 3] = ["\n", "\r\n", "\r\r\n"];
    const VALUES: [&str; 10] = [
        "inf", "-inf", "+inf", "infinity", "NaN", "nan", "-0.0", "+1.5e3", "1e400", "0x1",
    ];
    const INDICES: [&str; 4] = ["{}", "+{}", "0{}", "++{}"];
    let mut rng = SmallRng::seed_from_u64(0x0AC3);
    let pick = |rng: &mut SmallRng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..1500 {
        let n = rng.gen_range(1..6usize);
        let symmetry = pick(&mut rng, &SYMMETRIES);
        let nnz = rng.gen_range(0..8usize);
        let end = pick(&mut rng, &ENDINGS);
        let mut s = format!("%%MatrixMarket matrix coordinate real {symmetry}{end}");
        let sep = pick(&mut rng, &SEPARATORS);
        s.push_str(&format!("{n}{sep}{n}{sep}{nnz}{end}"));
        for _ in 0..nnz {
            let sep = pick(&mut rng, &SEPARATORS);
            let index = |rng: &mut SmallRng| {
                let i = rng.gen_range(1..=n).to_string();
                pick(rng, &INDICES).replace("{}", &i)
            };
            let (r, c) = (index(&mut rng), index(&mut rng));
            let v = if rng.gen_range(0..2u32) == 0 {
                pick(&mut rng, &VALUES).to_string()
            } else {
                format!("{}", rng.gen_range(0..9u32))
            };
            let lead = if rng.gen_range(0..4u32) == 0 { sep } else { "" };
            s.push_str(&format!("{lead}{r}{sep}{c}{sep}{v}{lead}{end}"));
        }
        if assert_agree(&s) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}

#[test]
fn one_graph_in_three_formats_loads_to_one_pattern() {
    use sparsemat::io::harwell_boeing::write_harwell_boeing_string;
    use sparsemat::io::{write_chaco_string, write_matrix_market_string};
    let mut rng = SmallRng::seed_from_u64(0x0AC4);
    for _ in 0..40 {
        let n = rng.gen_range(1..30usize);
        let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..3 * n))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let g = SymmetricPattern::from_edges(n, &edges).unwrap();
        let a: CsrMatrix = g.spd_matrix(1.0);
        let from_mm = read_matrix_market_pattern_str(&write_matrix_market_string(&a)).unwrap();
        let from_chaco = read_chaco_str(&write_chaco_string(&g)).unwrap();
        let from_hb = read_harwell_boeing_str(&write_harwell_boeing_string(&a, "G"))
            .and_then(|m| m.symmetrized_pattern())
            .unwrap();
        assert_eq!(from_mm, g);
        assert_eq!(from_chaco, g);
        assert_eq!(from_hb, g);
    }
}
