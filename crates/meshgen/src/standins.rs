//! Synthetic stand-ins for the 18 test matrices of the paper's evaluation
//! (Tables 4.1–4.3), matched in order, nonzero count and structure class.
//!
//! Paper values ("equations" and "nonzeros", the latter counting the lower
//! triangle including the diagonal) are recorded alongside each stand-in so
//! the harness can report how close the synthetic matrix is.

use crate::basic::{grid2d, grid2d_9point};
use crate::fem::{annulus_tri, block_expand, cylinder_shell_9point, graded_annulus_tri};
use crate::random::{power_grid, random_geometric, random_geometric_3d};
use sparsemat::SymmetricPattern;

/// Which paper table a matrix belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableId {
    /// Table 4.1 — Boeing–Harwell structural analysis.
    BhStructural,
    /// Table 4.2 — Boeing–Harwell miscellaneous.
    BhMisc,
    /// Table 4.3 — NASA.
    Nasa,
}

/// A named synthetic stand-in for one paper test matrix.
pub struct Standin {
    /// Paper matrix name (e.g. `"BCSSTK29"`).
    pub name: &'static str,
    /// Table the matrix appears in.
    pub table: TableId,
    /// Order reported in the paper.
    pub paper_n: usize,
    /// Nonzeros reported in the paper (lower triangle + diagonal).
    pub paper_nnz: usize,
    /// One-line description of the structure class being mimicked.
    pub class: &'static str,
    /// The synthetic pattern.
    pub pattern: SymmetricPattern,
}

impl Standin {
    /// Nonzeros of the synthetic pattern in the paper's convention
    /// (lower triangle including diagonal).
    pub fn nnz(&self) -> usize {
        self.pattern.nnz_lower_with_diagonal()
    }
}

/// Builds the stand-in for a paper matrix by name (case-insensitive).
/// Returns `None` for unknown names.
pub fn standin(name: &str) -> Option<Standin> {
    let upper = name.to_ascii_uppercase();
    let make = |name: &'static str,
                table: TableId,
                paper_n: usize,
                paper_nnz: usize,
                class: &'static str,
                pattern: SymmetricPattern| {
        Some(Standin {
            name,
            table,
            paper_n,
            paper_nnz,
            class,
            pattern,
        })
    };
    match upper.as_str() {
        // ------ Table 4.1: Boeing–Harwell structural analysis ------
        "BCSSTK13" => make(
            "BCSSTK13",
            TableId::BhStructural,
            2_003,
            11_973,
            "2-D fluid-flow stiffness: 5-pt grid, 2 dof/node",
            block_expand(&grid2d(32, 32), 2),
        ),
        "BCSSTK29" => make(
            "BCSSTK29",
            TableId::BhStructural,
            13_992,
            316_740,
            "shell model (767 bulkhead): 9-pt quad mesh, 5 dof/node",
            block_expand(&grid2d_9point(53, 53), 5),
        ),
        "BCSSTK30" => make(
            "BCSSTK30",
            TableId::BhStructural,
            28_924,
            1_036_208,
            "3-D solid (off-shore platform): irregular tetra cloud, 3 dof/node",
            block_expand(&random_geometric_3d(9_642, 0.0815, 0x30_30), 3),
        ),
        "BCSSTK31" => make(
            "BCSSTK31",
            TableId::BhStructural,
            35_588,
            608_502,
            "3-D solid (automobile component): irregular tetra cloud, 4 dof/node",
            block_expand(&random_geometric_3d(8_897, 0.0599, 0x31_31), 4),
        ),
        "BCSSTK32" => make(
            "BCSSTK32",
            TableId::BhStructural,
            44_609,
            1_029_655,
            "shell+solid (automobile chassis): 9-pt quad mesh, 5 dof/node",
            block_expand(&grid2d_9point(95, 94), 5),
        ),
        "BCSSTK33" => make(
            "BCSSTK33",
            TableId::BhStructural,
            8_738,
            300_321,
            "solid element model (pin boss): 9-pt mesh, 7 dof/node",
            block_expand(&grid2d_9point(36, 35), 7),
        ),
        // ------ Table 4.2: Boeing–Harwell miscellaneous ------
        "CAN1072" => make(
            "CAN1072",
            TableId::BhMisc,
            1_072,
            6_758,
            "scattered structural pattern (Cannes): random geometric graph",
            random_geometric(1_072, 0.058, 0xCA11),
        ),
        "POW9" => make(
            "POW9",
            TableId::BhMisc,
            1_723,
            4_117,
            "power transmission network: local tree + chords",
            power_grid(1_723, 672, 0x90E9),
        ),
        "BLKHOLE" => make(
            "BLKHOLE",
            TableId::BhMisc,
            2_132,
            8_502,
            "mesh around a hole: graded triangulated annulus",
            graded_annulus_tri(2_132, 200, 0.95, 0xB1A0),
        ),
        "DWT2680" => make(
            "DWT2680",
            TableId::BhMisc,
            2_680,
            13_853,
            "ship hull surface (DTMB): 9-pt quad mesh",
            grid2d_9point(67, 40),
        ),
        "SSTMODEL" => make(
            "SSTMODEL",
            TableId::BhMisc,
            3_345,
            13_047,
            "supersonic transport frame: triangulated fuselage tube",
            annulus_tri(67, 50, 0x5517),
        ),
        // ------ Table 4.3: NASA ------
        "BARTH4" => make(
            "BARTH4",
            TableId::Nasa,
            6_019,
            23_492,
            "2-D airfoil CFD triangulation: graded irregular O-mesh",
            graded_annulus_tri(6_019, 400, 0.96, 0xBA27),
        ),
        "SHUTTLE" => make(
            "SHUTTLE",
            TableId::Nasa,
            9_205,
            45_966,
            "orbiter surface model: 9-pt quad shell",
            cylinder_shell_9point(132, 70),
        ),
        "SKIRT" => make(
            "SKIRT",
            TableId::Nasa,
            12_598,
            104_559,
            "rocket aft skirt: graded triangulated shell, 2 dof/node",
            block_expand(&graded_annulus_tri(6_299, 350, 0.96, 0x5C12), 2),
        ),
        "PWT" => make(
            "PWT",
            TableId::Nasa,
            36_519,
            181_313,
            "pressurised wind tunnel: graded triangulated surface",
            graded_annulus_tri(36_519, 900, 0.98, 0x9717),
        ),
        "BODY" => make(
            "BODY",
            TableId::Nasa,
            45_087,
            208_821,
            "automobile body surface: random geometric panels",
            random_geometric(45_087, 0.0081, 0xB0D7),
        ),
        "FLAP" => make(
            "FLAP",
            TableId::Nasa,
            51_537,
            531_157,
            "wing flap, 3-D: graded triangulated shell, 2 dof/node",
            block_expand(&graded_annulus_tri(25_769, 900, 0.975, 0xF1A9), 2),
        ),
        "IN3C" => make(
            "IN3C",
            TableId::Nasa,
            262_620,
            1_026_888,
            "large CFD triangulation: graded irregular O-mesh",
            graded_annulus_tri(262_620, 5_000, 0.985, 0x143C),
        ),
        _ => None,
    }
}

/// Names of all 18 test matrices in paper (table, row) order.
pub const ALL_NAMES: [&str; 18] = [
    "BCSSTK13", "BCSSTK29", "BCSSTK30", "BCSSTK31", "BCSSTK32", "BCSSTK33", // 4.1
    "CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL", // 4.2
    "BARTH4", "SHUTTLE", "SKIRT", "PWT", "BODY", "FLAP", "IN3C", // 4.3
];

/// Builds all stand-ins for one table.
pub fn all_standins(table: TableId) -> Vec<Standin> {
    ALL_NAMES
        .iter()
        .filter_map(|name| standin(name))
        .filter(|s| s.table == table)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_graph::bfs::connected_components;

    #[test]
    fn every_standin_exists_and_matches_table() {
        for name in ALL_NAMES {
            let s = standin(name).unwrap_or_else(|| panic!("missing standin {name}"));
            assert_eq!(s.name, name);
        }
        assert_eq!(all_standins(TableId::BhStructural).len(), 6);
        assert_eq!(all_standins(TableId::BhMisc).len(), 5);
        assert_eq!(all_standins(TableId::Nasa).len(), 7);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(standin("NOT_A_MATRIX").is_none());
    }

    #[test]
    fn case_insensitive_lookup() {
        assert!(standin("barth4").is_some());
    }

    #[test]
    fn small_standins_match_paper_sizes() {
        // Orders within 5%, nonzeros within 40% (structure class match, not
        // exact replication). Only the small/medium ones here to keep test
        // time down; every stand-in's sizes are listed against the paper's
        // in the quality ledger (`quality_report` in the bench harness).
        for name in [
            "BCSSTK13", "CAN1072", "POW9", "BLKHOLE", "DWT2680", "SSTMODEL", "BARTH4",
        ] {
            let s = standin(name).unwrap();
            let n = s.pattern.n() as f64;
            let pn = s.paper_n as f64;
            assert!(
                (n - pn).abs() / pn < 0.05,
                "{name}: n {} vs paper {}",
                s.pattern.n(),
                s.paper_n
            );
            let nnz = s.nnz() as f64;
            let pnnz = s.paper_nnz as f64;
            assert!(
                (nnz - pnnz).abs() / pnnz < 0.40,
                "{name}: nnz {} vs paper {}",
                s.nnz(),
                s.paper_nnz
            );
        }
    }

    #[test]
    fn mesh_standins_are_connected() {
        for name in ["BCSSTK13", "BLKHOLE", "DWT2680", "BARTH4", "SSTMODEL"] {
            let s = standin(name).unwrap();
            assert!(
                connected_components(&s.pattern).is_connected(),
                "{name} disconnected"
            );
        }
    }

    #[test]
    fn barth4_plot_count_matches_figure_label() {
        // Figure 4.5 labels BARTH4 with "nz = 40965" = 2·edges + n (the
        // off-diagonal-only count 34946 appears in Fig 4.1). Ours plots the
        // same quantity and should land in the same range.
        let s = standin("BARTH4").unwrap();
        let plotted = 2 * s.pattern.num_edges() + s.pattern.n();
        assert!(
            (36_000..45_000).contains(&plotted),
            "plotted entries {plotted}"
        );
    }
}
