//! Graph algorithms over sparse-matrix adjacency structures.
//!
//! The graph of a symmetric matrix *is* its [`sparsemat::SymmetricPattern`];
//! this crate layers the combinatorial machinery used by the ordering
//! algorithms and the multilevel eigensolver on top of it:
//!
//! * [`mod@bfs`] — breadth-first search and connected components,
//! * [`level`] — rooted level structures and pseudo-peripheral vertices
//!   (the substrate of RCM/GPS/GK),
//! * [`coarsen`] — maximal independent sets and graph contraction (the
//!   substrate of the Barnard–Simon multilevel Fiedler solver),
//! * [`mod@compress`] — supervariable (indistinguishable-vertex) compression
//!   for multi-DOF structural matrices.
//!
//! ```
//! use sparsemat::SymmetricPattern;
//! use se_graph::{bfs, level};
//!
//! let g = SymmetricPattern::from_edges(5, &[(0,1),(1,2),(2,3),(3,4)]).unwrap();
//! let b = bfs::bfs(&g, 0);
//! assert_eq!(b.eccentricity(), 4);
//! let (peripheral, ls) = level::pseudo_peripheral(&g, 2);
//! assert!(peripheral == 0 || peripheral == 4);
//! assert_eq!(ls.height(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod coarsen;
pub mod compress;
pub mod level;

pub use bfs::{bfs, connected_components, Bfs, Components};
pub use coarsen::{contract, maximal_independent_set, CoarsenLevels, Contraction};
pub use compress::{compress, compressed_ordering, Compression};
pub use level::{
    pseudo_diameter, pseudo_peripheral, rooted_level_structure, LevelStructure, PseudoDiameter,
};

/// Marker value meaning "vertex not reached".
pub const UNREACHED: usize = usize::MAX;
