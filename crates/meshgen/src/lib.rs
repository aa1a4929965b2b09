//! Deterministic synthetic mesh/matrix generators.
//!
//! The paper evaluates on Boeing–Harwell and NASA matrices that are not
//! redistributable here. Every ordering algorithm under test consumes only
//! the adjacency *structure*, so this crate generates matrices of matched
//! order, nonzero count and **structure class** (2-D triangulations around
//! holes, 3-D solids, shells, multi-DOF structural frames, power networks)
//! to stand in for each test matrix — see `DESIGN.md` §4 for the
//! substitution argument and [`standins`] for the per-matrix mapping.
//!
//! All generators are deterministic (seeded) so experiments reproduce
//! bit-for-bit.
//!
//! ```
//! // The BARTH4 stand-in matches the paper's matrix in order and nnz class.
//! let s = meshgen::standin("BARTH4").unwrap();
//! assert_eq!(s.paper_n, 6_019);
//! assert!((s.pattern.n() as i64 - 6_019i64).abs() < 10);
//! ```

#![forbid(unsafe_code)]

pub mod basic;
pub mod fe_mesh;
pub mod fem;
pub mod random;
pub mod standins;

pub use basic::{complete, cycle, grid2d, grid2d_9point, grid3d, path, star};
pub use fe_mesh::TriMesh;
pub use fem::{
    annulus_tri, block_expand, cylinder_shell, cylinder_shell_9point, graded_annulus_tri,
    layered_prism,
};
pub use random::{power_grid, random_geometric, random_geometric_3d, scramble};
pub use standins::{all_standins, standin, Standin, TableId};
