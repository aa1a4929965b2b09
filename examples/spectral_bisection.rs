//! Spectral graph bisection — the sibling application the paper grew out
//! of (§1 cites Pothen–Simon–Liou's spectral nested dissection and the
//! Barnard–Simon multilevel bisection). The same Fiedler vector that orders
//! the matrix splits the mesh: vertices with component below the median go
//! to one half.
//!
//! Also demonstrates Fiedler's Theorem 2.5 empirically: both sign-halves
//! induce connected subgraphs.
//!
//! Run: `cargo run --release --example spectral_bisection`

use spectral_envelope_repro::eigen::multilevel::fiedler;
use spectral_envelope_repro::eigen::SolverOpts;
use spectral_envelope_repro::graph::bfs::{connected_components, induced_subgraph};

fn main() {
    // A wing-like graded mesh.
    let g = meshgen::graded_annulus_tri(4_000, 260, 0.95, 0x15EC);
    println!("mesh: {} vertices, {} edges", g.n(), g.num_edges());

    let f = fiedler(&g, &SolverOpts::default()).expect("mesh is connected");
    println!("λ₂ (algebraic connectivity) = {:.6e}", f.lambda2);

    // Split at the median component for a balanced bisection.
    let mut vals: Vec<f64> = f.vector.clone();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = vals[g.n() / 2];
    let part_a: Vec<usize> = (0..g.n()).filter(|&v| f.vector[v] < median).collect();
    let part_b: Vec<usize> = (0..g.n()).filter(|&v| f.vector[v] >= median).collect();

    let cut = g
        .edges()
        .filter(|&(u, v)| (f.vector[u] < median) != (f.vector[v] < median))
        .count();
    println!(
        "bisection: |A| = {}, |B| = {}, cut edges = {} ({:.2}% of edges)",
        part_a.len(),
        part_b.len(),
        cut,
        100.0 * cut as f64 / g.num_edges() as f64
    );

    // Theorem 2.5 (Fiedler): the vertices with eigenvector value above any
    // threshold induce a connected subgraph (and symmetrically below).
    for (name, part) in [
        ("A (below median)", &part_a),
        ("B (at/above median)", &part_b),
    ] {
        let (sub, _) = induced_subgraph(&g, part);
        let comps = connected_components(&sub);
        println!("part {name}: {} connected component(s)", comps.count());
    }

    // Balance + low cut = a good partition for parallel matvec: each half
    // keeps ~half the work with few cross-processor edges.
    assert!(part_a.len().abs_diff(part_b.len()) <= 1 + g.n() / 10);
    println!("\nThe identical eigenvector sorted end-to-end is the paper's envelope");
    println!("ordering; thresholded at the median it is a mesh partitioner.");
}
