//! The paper's reported results (Tables 4.1–4.4), embedded as reference
//! data so the quality ledger holds paper-vs-measured side by side.
//!
//! Row order everywhere: `SPECTRAL, GK, GPS, RCM` — the order used in the
//! paper's tables and by `Algorithm::paper_set()`.

/// One matrix's reference results from Tables 4.1–4.3.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Matrix name.
    pub name: &'static str,
    /// Envelope sizes in SPECTRAL/GK/GPS/RCM order.
    pub envelope: [u64; 4],
    /// Bandwidths in the same order.
    pub bandwidth: [u64; 4],
    /// Ordering run times (seconds, 33 MHz SGI IP7) in the same order.
    pub seconds: [f64; 4],
}

#[rustfmt::skip]
const fn row(name: &'static str, envelope: [u64; 4], bandwidth: [u64; 4], seconds: [f64; 4]) -> PaperRow {
    PaperRow { name, envelope, bandwidth, seconds }
}

/// Reference data for all 18 matrices: name, envelopes, bandwidths, times.
#[rustfmt::skip]
pub const PAPER_ROWS: [PaperRow; 18] = [
    // ---- Table 4.1: Boeing–Harwell structural ----
    row("BCSSTK13", [64_486, 58_542, 57_501, 56_299], [455, 223, 145, 198], [3.92, 0.64, 0.57, 0.08]),
    row("BCSSTK29", [3_067_004, 6_948_091, 7_040_998, 7_374_140], [882, 1_505, 869, 914], [31.95, 9.53, 5.29, 2.37]),
    row("BCSSTK30", [9_135_742, 15_686_968, 23_242_990, 23_242_990], [4_769, 16_947, 2_515, 2_512], [78.18, 78.10, 61.65, 6.32]),
    row("BCSSTK31", [19_574_992, 22_330_987, 23_416_579, 23_641_124], [4_763, 1_880, 1_104, 1_176], [55.06, 22.05, 9.12, 4.69]),
    row("BCSSTK32", [27_614_531, 49_457_764, 50_067_390, 52_170_122], [13_792, 3_761, 2_339, 2_390], [92.09, 102.44, 79.48, 7.83]),
    row("BCSSTK33", [3_788_702, 3_571_395, 3_717_032, 3_799_285], [1_199, 932, 519, 749], [31.01, 5.20, 3.22, 1.82]),
    // ---- Table 4.2: Boeing–Harwell miscellaneous ----
    row("CAN1072", [55_228, 48_538, 74_067, 56_361], [301, 234, 159, 175], [0.51, 0.20, 0.13, 0.05]),
    row("POW9", [29_149, 64_788, 69_446, 79_260], [264, 201, 116, 133], [0.45, 0.14, 0.10, 0.05]),
    row("BLKHOLE", [120_767, 169_219, 173_243, 171_437], [426, 134, 106, 105], [0.56, 0.17, 0.12, 0.07]),
    row("DWT2680", [93_907, 96_591, 101_769, 102_983], [142, 92, 65, 69], [0.78, 0.28, 0.19, 0.11]),
    row("SSTMODEL", [86_635, 104_562, 110_936, 105_421], [228, 125, 83, 88], [2.21, 0.28, 0.17, 0.10]),
    // ---- Table 4.3: NASA ----
    row("BARTH4", [345_623, 658_181, 669_239, 725_950], [593, 280, 213, 215], [1.60, 0.54, 0.33, 0.21]),
    row("SHUTTLE", [566_496, 531_420, 531_422, 567_887], [631, 92, 92, 150], [2.59, 1.12, 0.93, 0.32]),
    row("SKIRT", [688_924, 1_013_423, 1_039_544, 1_068_993], [1_021, 425, 309, 314], [5.14, 3.20, 2.46, 0.82]),
    row("PWT", [5_101_527, 5_520_603, 5_638_855, 5_652_184], [1_627, 450, 340, 340], [13.62, 29.65, 28.27, 1.67]),
    row("BODY", [6_706_747, 10_526_446, 10_658_164, 11_470_411], [2_496, 1_081, 667, 756], [26.60, 13.60, 8.42, 2.23]),
    row("FLAP", [10_471_456, 12_367_171, 12_339_642, 12_598_705], [1_784, 1_019, 743, 874], [45.90, 24.96, 19.08, 4.19]),
    row("IN3C", [425_232_466, 519_316_395, 526_302_263, 581_700_745], [9_504, 3_780, 2_473, 2_746], [117.83, 56.97, 26.28, 12.88]),
];

/// Looks up the paper's reference row for a matrix.
pub fn reference(name: &str) -> Option<PaperRow> {
    PAPER_ROWS.iter().find(|r| r.name == name).copied()
}

/// Table 4.4 — envelope factorization times (SPARSPAK routine, SGI).
#[derive(Debug, Clone, Copy)]
pub struct PaperFactorRow {
    /// Matrix name.
    pub name: &'static str,
    /// (envelope, seconds) for the SPECTRAL ordering.
    pub spectral: (u64, f64),
    /// (envelope, seconds) for the RCM ordering.
    pub rcm: (u64, f64),
}

/// Table 4.4 reference data.
#[rustfmt::skip]
pub const PAPER_FACTOR_ROWS: [PaperFactorRow; 3] = [
    PaperFactorRow { name: "BCSSTK29", spectral: (3_067_004, 257.0), rcm: (7_374_140, 1_677.0) },
    PaperFactorRow { name: "BCSSTK33", spectral: (3_788_702, 670.0), rcm: (3_799_285, 685.0) },
    PaperFactorRow { name: "BARTH4", spectral: (345_623, 8.19), rcm: (725_950, 35.17) },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The rank (1 = best) of algorithm `i` by envelope size, matching the
    /// paper's "Rank" column (ties share positions arbitrarily as printed).
    fn rank_by_envelope(r: &PaperRow, i: usize) -> usize {
        let e = r.envelope;
        1 + (0..4)
            .filter(|&j| e[j] < e[i] || (e[j] == e[i] && j < i))
            .count()
    }

    #[test]
    fn all_18_matrices_present() {
        assert_eq!(PAPER_ROWS.len(), 18);
        assert!(reference("BARTH4").is_some());
        assert!(reference("NOPE").is_none());
    }

    #[test]
    fn paper_spectral_wins_14_of_18() {
        // "The spectral algorithm finds the reordering with the smallest
        // envelope in 14 out of 18 cases" (§4).
        let wins = PAPER_ROWS
            .iter()
            .filter(|r| rank_by_envelope(r, 0) == 1)
            .count();
        assert_eq!(wins, 14);
    }

    #[test]
    fn rank_computation_matches_paper_examples() {
        // BCSSTK13: ranks 4,3,2,1 in SPECTRAL/GK/GPS/RCM order.
        let r = reference("BCSSTK13").unwrap();
        assert_eq!([0, 1, 2, 3].map(|i| rank_by_envelope(&r, i)), [4, 3, 2, 1]);
        // BARTH4: 1,2,3,4.
        let b = reference("BARTH4").unwrap();
        assert_eq!([0, 1, 2, 3].map(|i| rank_by_envelope(&b, i)), [1, 2, 3, 4]);
    }

    #[test]
    fn gps_bandwidth_usually_beats_gk() {
        // "Generally the GPS algorithm yields a lower bandwidth" — check the
        // tendency holds in the reference data.
        let gps_wins = PAPER_ROWS
            .iter()
            .filter(|r| r.bandwidth[2] <= r.bandwidth[1])
            .count();
        assert!(gps_wins >= 15, "gps bandwidth wins: {gps_wins}");
    }
}
