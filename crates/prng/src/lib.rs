//! Std-only deterministic pseudo-random numbers for the workspace.
//!
//! The crates in this repository only ever need *reproducible* randomness —
//! seeded start vectors for Lanczos and TraceMin, scrambled test matrices,
//! random meshes — so a tiny in-tree generator removes the workspace's only
//! hard external dependency (`rand`) and keeps every build fully offline.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — the canonical 64-bit state-mixing generator; used for
//!   seeding and anywhere a few cheap values are enough,
//! * [`SmallRng`] — xoshiro256\*\* (Blackman–Vigna), seeded from a `u64`
//!   through splitmix64 exactly as `rand`'s `SmallRng` used to be on 64-bit
//!   targets.
//!
//! The API intentionally mirrors the subset of `rand` the workspace used
//! (`seed_from_u64`, `gen`, `gen_range`, plus a `shuffle` helper), so call
//! sites read identically:
//!
//! ```
//! use se_prng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let x: f64 = rng.gen();            // uniform in [0, 1)
//! let b: bool = rng.gen();           // fair coin
//! let k = rng.gen_range(0..10usize); // uniform in 0..10
//! assert!((0.0..1.0).contains(&x));
//! assert!(k < 10);
//! let _ = b;
//! ```

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Sebastiano Vigna's splitmix64: one multiply-xorshift round per output.
/// Passes BigCrush; ideal for seeding and light-duty streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — the workspace's general-purpose small fast generator.
///
/// 256 bits of state, period `2²⁵⁶ − 1`, seeded via [`SplitMix64`] so that
/// any `u64` seed (including 0) yields a well-mixed state.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a `u64` seed (splitmix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        SmallRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample of type `T` (`f64` in `[0, 1)`, fair `bool`, or a
    /// full-range integer).
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from a (half-open or inclusive) integer range.
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` (> 0) with Lemire-style rejection to
    /// avoid modulo bias.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection zone: the largest multiple of `bound` that fits in u64.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.gen_range(0..=i);
            data.swap(i, j);
        }
    }
}

/// Types [`SmallRng::gen`] can produce.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn sample(rng: &mut SmallRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for bool {
    fn sample(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for u64 {
    fn sample(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut SmallRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from Vigna's splitmix64.c.
        let mut sm = SplitMix64::seed_from_u64(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_hits_all_and_stays_in_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[r.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..500 {
            let v = r.gen_range(5..=9u64);
            assert!((5..=9).contains(&v));
        }
        for _ in 0..500 {
            let v = r.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "seed 11 left identity (astronomically unlikely)"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(0);
        let _ = r.gen_range(3..3usize);
    }
}
