//! Workspace façade crate: re-exports the whole reproduction so that the
//! root `examples/` and `tests/` can use a single dependency. Library users
//! should depend on the individual crates (most importantly `spectral-env`).

#![forbid(unsafe_code)]

pub use meshgen;
pub use se_eigen as eigen;
pub use se_envelope as envelope;
pub use se_graph as graph;
pub use se_order as order;
pub use se_prng as prng;
pub use se_service as service;
pub use se_tracemin as tracemin;
pub use sparsemat;
pub use spectral_env;
