//! Integration tests for the se-trace pipeline instrumentation: the span
//! tree has a stable, meaningful shape for a fixed input; a disabled
//! tracer changes nothing about the numerical results; and aggregated
//! counters are invariant under the solver thread count (they describe the
//! algorithm, not the schedule).

use se_trace::SpanNode;
use spectral_env::{reorder_pattern_with, Algorithm, SolverOpts, Tracer};

/// A mesh big enough that the multilevel path runs (coarsen levels,
/// Lanczos on the coarsest graph, RQI refinement per level).
fn mesh() -> sparsemat::SymmetricPattern {
    meshgen::grid2d(40, 30)
}

fn traced_opts(threads: usize) -> (SolverOpts, Tracer) {
    let tracer = Tracer::enabled();
    let mut opts = SolverOpts::with_threads(threads);
    opts.trace = tracer.clone();
    (opts, tracer)
}

#[test]
fn span_tree_shape_is_stable_for_a_fixed_input() {
    let g = mesh();
    let shapes: Vec<String> = (0..2)
        .map(|_| {
            let (opts, tracer) = traced_opts(1);
            reorder_pattern_with(&g, Algorithm::Spectral, &opts).expect("ordering");
            tracer.finish().expect("a recorded root span").shape()
        })
        .collect();
    assert_eq!(shapes[0], shapes[1], "the tree shape must be deterministic");
    assert!(shapes[0].starts_with("order\n"), "got:\n{}", shapes[0]);
    for stage in [
        "spectral",
        "fiedler",
        "coarsen",
        "contract[0]",
        "coarsest_solve",
        "lanczos",
        "level[0]",
        "interpolate",
        "smooth",
        "rqi",
        "sort",
        "envelope_eval",
    ] {
        assert!(
            shapes[0].contains(stage),
            "missing {stage} in:\n{}",
            shapes[0]
        );
    }
}

#[test]
fn stage_totals_are_bounded_by_the_root() {
    let g = mesh();
    let (opts, tracer) = traced_opts(1);
    reorder_pattern_with(&g, Algorithm::Spectral, &opts).expect("ordering");
    let root = tracer.finish().expect("root span");
    // Every aggregated stage is a subtree of the root, so its total wall
    // time cannot exceed the root's (modulo clock granularity).
    for name in root.stage_names() {
        assert!(
            root.stage_micros(name) <= root.wall_micros + 1,
            "stage {name} exceeds the root wall time"
        );
    }
    assert!(
        root.attr("n").is_some(),
        "the root records the problem size"
    );
    assert!(root.attr_total("matvecs") >= 1.0, "Lanczos counts matvecs");
}

/// Every span named `name` in the subtree, pre-order.
fn spans_named<'a>(node: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
    if node.name == name {
        out.push(node);
    }
    for c in &node.children {
        spans_named(c, name, out);
    }
}

#[test]
fn rqi_spans_count_one_matvec_per_outer_and_inner_iteration() {
    let g = mesh();
    let (opts, tracer) = traced_opts(1);
    reorder_pattern_with(&g, Algorithm::Spectral, &opts).expect("ordering");
    let root = tracer.finish().expect("root span");
    let mut rqi = Vec::new();
    spans_named(&root, "rqi", &mut rqi);
    assert!(!rqi.is_empty(), "the multilevel solve refines with RQI");
    for sp in rqi {
        let outer = sp.attr("outer_iterations").expect("outer_iterations");
        let inner = sp.attr("inner_iterations").unwrap_or(0.0);
        assert!(outer >= 1.0, "RQI ran no outer step: {:?}", sp.attrs);
        assert_eq!(
            sp.attr("matvecs"),
            Some(inner + outer),
            "rqi span attrs: {:?}",
            sp.attrs
        );
    }
}

#[test]
fn disabled_tracer_leaves_results_bit_identical() {
    let g = mesh();
    let plain = reorder_pattern_with(&g, Algorithm::Spectral, &SolverOpts::with_threads(1))
        .expect("untraced ordering");
    let (opts, tracer) = traced_opts(1);
    let traced = reorder_pattern_with(&g, Algorithm::Spectral, &opts).expect("traced ordering");
    assert_eq!(
        plain.perm.order(),
        traced.perm.order(),
        "tracing must not perturb the permutation"
    );
    assert_eq!(plain.stats, traced.stats);
    assert!(tracer.finish().is_some());
    assert!(
        Tracer::disabled().finish().is_none(),
        "a disabled tracer records nothing"
    );
}

#[test]
fn counters_are_thread_count_invariant() {
    // SPECTRAL solves on the calling thread whatever `threads` says;
    // TraceMin runs its inner solves on a pool of that many threads.
    let g = mesh();
    for alg in [Algorithm::Spectral, Algorithm::TraceMin] {
        let mut baseline: Option<(Vec<usize>, String, f64, f64, f64)> = None;
        for threads in [1usize, 2, 4] {
            let (opts, tracer) = traced_opts(threads);
            let ordering = reorder_pattern_with(&g, alg, &opts).expect("ordering");
            let root = tracer.finish().expect("root span");
            let perm = ordering.perm.order().to_vec();
            let shape = root.shape();
            let updates = root.attr_total("updates");
            let matvecs = root.attr_total("matvecs");
            let inner = root.attr_total("inner_iterations");
            match &baseline {
                None => baseline = Some((perm, shape, updates, matvecs, inner)),
                Some((p, s, u, m, i)) => {
                    assert_eq!(
                        &perm, p,
                        "{alg:?}: {threads} threads changed the permutation"
                    );
                    assert_eq!(
                        &shape, s,
                        "{alg:?}: {threads} threads changed the tree shape"
                    );
                    assert_eq!(
                        updates, *u,
                        "{alg:?}: {threads} threads changed smoothing updates"
                    );
                    assert_eq!(
                        matvecs, *m,
                        "{alg:?}: {threads} threads changed the matvec count"
                    );
                    assert_eq!(
                        inner, *i,
                        "{alg:?}: {threads} threads changed RQI inner iterations"
                    );
                }
            }
        }
    }
}
