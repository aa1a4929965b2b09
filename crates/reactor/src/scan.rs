//! Word-at-a-time byte search (SWAR: SIMD within a register).
//!
//! Request lines carry inline matrix payloads of megabytes, and every
//! pass over them on the reactor thread — finding the line's `\n`, finding
//! the end of each run of plain bytes in a JSON string, finding the next
//! byte to escape when writing one — is a search for the first byte of a
//! small class. [`find`] runs that search eight bytes per step: the caller
//! describes the class as a function from a little-endian 64-bit word to a
//! lane mask built from [`lanes_below`] and [`lanes_eq`], and the lowest
//! flagged lane is the answer. Safe Rust only; no `unsafe`, no intrinsics.
//!
//! ```
//! use se_reactor::scan::{find, lanes_eq};
//!
//! let line = b"{\"cmd\":\"STATS\"}\nnext";
//! assert_eq!(find(line, |w| lanes_eq(w, b'\n')), Some(15));
//! assert_eq!(find(b"no newline", |w| lanes_eq(w, b'\n')), None);
//! ```

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// `b` repeated in all eight byte lanes.
const fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// The high bit of every byte lane of `w` whose value is below `n`
/// (`n ≤ 0x80`).
///
/// Exact up to and including the lowest flagged lane: a lane above a
/// matching one may be flagged spuriously (the subtraction's borrow runs
/// upward), but no lane below the first match ever is. That is all
/// [`find`] needs, and it holds for the OR of several such masks too.
pub const fn lanes_below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(splat(n)) & !w & HI
}

/// The high bit of every byte lane of `w` equal to `b`, with the same
/// lowest-lane exactness as [`lanes_below`].
pub const fn lanes_eq(w: u64, b: u8) -> u64 {
    lanes_below(w ^ splat(b), 1)
}

/// Index of the first byte of `bytes` whose lane `flags` marks, or `None`.
///
/// `flags` maps a little-endian word of eight input bytes to a mask with
/// the high bit set in each matching lane, exact up to its lowest set bit
/// (any OR of [`lanes_below`] / [`lanes_eq`] masks). A short tail is
/// zero-padded and the padding lanes are masked off, so `flags` may match
/// the zero byte.
#[inline]
pub fn find(bytes: &[u8], flags: impl Fn(u64) -> u64) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let m = flags(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        if m != 0 {
            return Some(base + (m.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    let tail = words.remainder();
    if tail.is_empty() {
        return None;
    }
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    let m = flags(u64::from_le_bytes(word)) & (u64::MAX >> (64 - 8 * tail.len()));
    (m != 0).then(|| base + (m.trailing_zeros() / 8) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte value at every position of words with every fill, for a
    /// class that matches zero (the tail padding) and one that does not.
    #[test]
    fn find_matches_a_bytewise_search() {
        type Class = (fn(u64) -> u64, fn(u8) -> bool);
        let classes: [Class; 3] = [
            (|w| lanes_eq(w, b'\n'), |b| b == b'\n'),
            (
                |w| lanes_eq(w, b'"') | lanes_eq(w, b'\\') | lanes_below(w, 0x20),
                |b| b == b'"' || b == b'\\' || b < 0x20,
            ),
            (|w| lanes_below(w, 0x80), |b| b < 0x80),
        ];
        for (flags, pred) in classes {
            for fill in [b'a', 0x00, 0x1F, 0x21, 0x7F, 0x80, 0xFF] {
                for len in 0..20 {
                    for at in 0..=len {
                        for probe in 0..=255u8 {
                            let mut v = vec![fill; len];
                            if at < len {
                                v[at] = probe;
                            }
                            let want = v.iter().position(|&b| pred(b));
                            assert_eq!(find(&v, flags), want, "fill {fill} len {len} at {at}");
                        }
                    }
                }
            }
        }
    }
}
