//! Pins the exact bits of the multilevel Fiedler solve and of the SPECTRAL
//! permutation built on it.
//!
//! Each case hashes (FNV-1a, 64-bit) the bits of `λ₂` followed by every
//! component of the Fiedler vector from [`se_eigen::multilevel::fiedler`],
//! and separately every index of the SPECTRAL permutation. The digests were
//! recorded on x86-64 Linux. A change that only reorganises arithmetic
//! without reordering it (a faster matvec, a cheaper buffer) must leave
//! them untouched. A change that is meant to alter the solve, such as a new
//! ordering epoch or a different stopping rule, updates the digests here
//! and says in CHANGES.md why they moved.

use meshgen::{scramble, standin};
use se_eigen::{multilevel, SolverOpts};
use sparsemat::SymmetricPattern;

/// 64-bit FNV-1a over a stream of `u64` words, little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The stand-in `name`, relabelled by the seeded scramble `seed`, or as
/// generated when `seed` is 0.
fn input(name: &str, seed: u64) -> SymmetricPattern {
    let g = standin(name).expect("known stand-in").pattern;
    if seed == 0 {
        return g;
    }
    g.permute(&scramble(g.n(), seed))
        .expect("scramble fits the pattern")
}

/// `(fiedler digest, permutation digest)` of one input.
fn digests(g: &SymmetricPattern) -> (u64, u64) {
    let opts = SolverOpts::default();
    let fr = multilevel::fiedler(g, &opts).expect("multilevel solve");
    let mut h = Fnv::new();
    h.word(fr.lambda2.to_bits());
    for v in &fr.vector {
        h.word(v.to_bits());
    }
    let perm = se_order::spectral::spectral_ordering(g, &opts, false).expect("spectral ordering");
    let mut p = Fnv::new();
    for &i in perm.order() {
        p.word(i as u64);
    }
    (h.0, p.0)
}

/// Asserts both digests of one input, printing the pinned line to paste
/// when they moved.
fn check(name: &str, seed: u64, fiedler: u64, perm: u64) {
    let got = digests(&input(name, seed));
    assert_eq!(
        got,
        (fiedler, perm),
        "digests moved: check(\"{name}\", {seed}, {:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn can1072_bits_are_pinned() {
    check("CAN1072", 0, 0xcbd9705c05633ecb, 0x4e567105f97ed625);
}

#[test]
fn can1072_relabelled_bits_are_pinned() {
    check("CAN1072", 7, 0xd9972d5f5c0b05da, 0xc92509eed860a411);
}

#[test]
fn pow9_bits_are_pinned() {
    check("POW9", 0, 0x2a037a03949760ca, 0xf1c9525dd3881624);
}

#[test]
fn pow9_relabelled_bits_are_pinned() {
    check("POW9", 7, 0x5db0c697a4b0bd2f, 0x36e13344d432eff0);
}

#[test]
fn bcsstk13_bits_are_pinned() {
    check("BCSSTK13", 0, 0xaaabb832e785bb35, 0x8388ad3fe0dbd3a5);
}

#[test]
fn bcsstk13_relabelled_bits_are_pinned() {
    check("BCSSTK13", 7, 0x2f2207c28aeb89a0, 0x7cbca96b3b6d05a9);
}

// SHUTTLE's Fiedler vector holds only 132 distinct values over 9,240
// vertices, so its permutation is the one a change of tie order would move.
#[test]
fn shuttle_bits_are_pinned() {
    check("SHUTTLE", 0, 0xc7c5eea7a3a342cd, 0x2e87511c855e6ead);
}

#[test]
fn shuttle_relabelled_bits_are_pinned() {
    check("SHUTTLE", 1, 0xd75112f87ed1c76d, 0x3580b28e3eebbafd);
}
