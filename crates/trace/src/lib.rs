//! Hierarchical span recording for the spectral ordering pipeline.
//!
//! The multilevel solve (coarsen → Lanczos → per-level RQI refinement) is a
//! tree of stages, and the questions worth asking about it are tree-shaped:
//! *which level* ate the time, *how many* MINRES iterations did level 3's
//! RQI need, what did the sort-and-evaluate step cost relative to the
//! eigensolve? This crate records exactly that: a [`Tracer`] hands out RAII
//! [`SpanGuard`]s that measure wall-time and collect numeric attributes
//! (iteration counts, matvecs, residual norms, coarsening ratios) into a
//! [`SpanNode`] tree, rendered as an indented text table or compact JSON.
//!
//! # Design constraints
//!
//! * **Disabled means free.** [`Tracer::disabled`] is the default
//!   everywhere. Its guards are a `None` branch — no clock read, no
//!   allocation, no lock — so threading a tracer through every options
//!   struct costs nothing on the production path.
//! * **No lock on the matvec path.** Span open/close and attribute writes
//!   happen on the orchestrating thread only (a `Mutex` there is
//!   uncontended and cold); nothing is counted inside a `TaskPool` region.
//! * **Thread-count invariance.** Attributes count algorithmic work
//!   (iterations, matvecs, vertex updates), never the schedule, so traced
//!   totals are identical for 1, 2, … threads — the same invariant the
//!   solver itself keeps for floating point.
//!
//! # Example
//!
//! ```
//! use se_trace::Tracer;
//!
//! let tracer = Tracer::enabled();
//! {
//!     let mut root = tracer.span("order");
//!     {
//!         let mut s = tracer.span_at("level", 0);
//!         s.attr("iterations", 7.0);
//!     }
//!     root.attr("n", 100.0);
//! }
//! let tree = tracer.finish().expect("enabled tracer records a tree");
//! assert_eq!(tree.name, "order");
//! assert_eq!(tree.children[0].index, Some(0));
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span: a named, timed stage with numeric attributes and
/// nested children, in the order they were opened.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Stage name (static so call sites stay allocation-free).
    pub name: &'static str,
    /// Optional instance index, e.g. the multilevel hierarchy level.
    pub index: Option<usize>,
    /// Wall-clock duration of the span in microseconds.
    pub wall_micros: u64,
    /// Numeric attributes in attachment order (iterations, matvecs, …).
    pub attrs: Vec<(&'static str, f64)>,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Looks up an attribute by name (first match).
    pub fn attr(&self, name: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }

    /// Sums `wall_micros` over every span in the subtree whose name is
    /// `name` (the per-stage totals the service exports as histograms).
    pub fn stage_micros(&self, name: &str) -> u64 {
        let own = if self.name == name {
            self.wall_micros
        } else {
            0
        };
        own + self
            .children
            .iter()
            .map(|c| c.stage_micros(name))
            .sum::<u64>()
    }

    /// Sums the attribute `name` over the whole subtree — the aggregate
    /// iteration/matvec counts the thread-invariance tests compare.
    pub fn attr_total(&self, name: &str) -> f64 {
        self.attr(name).unwrap_or(0.0)
            + self
                .children
                .iter()
                .map(|c| c.attr_total(name))
                .sum::<f64>()
    }

    /// Every distinct span name in the subtree, in first-visit (pre-order)
    /// order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        self.collect_names(&mut names);
        names
    }

    fn collect_names(&self, names: &mut Vec<&'static str>) {
        if !names.contains(&self.name) {
            names.push(self.name);
        }
        for c in &self.children {
            c.collect_names(names);
        }
    }

    /// The tree shape only — `name[index]` pre-order lines with depth
    /// markers, no timings. Stable across runs for a fixed seed, which makes
    /// it the thing tests snapshot.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.shape_into(&mut out, 0);
        out
    }

    fn shape_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        if let Some(i) = self.index {
            let _ = write!(out, "[{i}]");
        }
        out.push('\n');
        for c in &self.children {
            c.shape_into(out, depth + 1);
        }
    }

    /// Renders the tree as indented human-readable text: one line per span
    /// with its wall time and attributes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_text_into(&mut out, 0);
        out
    }

    fn render_text_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = match self.index {
            Some(i) => format!("{}[{i}]", self.name),
            None => self.name.to_string(),
        };
        let _ = write!(
            out,
            "{label:<24} {:>10.1} ms",
            self.wall_micros as f64 / 1000.0
        );
        for (k, v) in &self.attrs {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "  {k}={}", *v as i64);
            } else {
                let _ = write!(out, "  {k}={v:.3e}");
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_text_into(out, depth + 1);
        }
    }

    /// Renders the tree as a compact single-line JSON object:
    /// `{"name":…,"index":…,"wall_us":…,"attrs":{…},"children":[…]}`
    /// (`index` omitted when absent). The output is plain ASCII JSON with
    /// no raw newlines, so it can be spliced verbatim into an NDJSON
    /// response line.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.render_json_into(&mut out);
        out
    }

    fn render_json_into(&self, out: &mut String) {
        // Names are static identifiers chosen by this workspace; they never
        // contain characters needing JSON escapes.
        let _ = write!(out, "{{\"name\":\"{}\"", self.name);
        if let Some(i) = self.index {
            let _ = write!(out, ",\"index\":{i}");
        }
        let _ = write!(out, ",\"wall_us\":{}", self.wall_micros);
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if v.is_finite() {
                let _ = write!(out, "\"{k}\":{v}");
            } else {
                let _ = write!(out, "\"{k}\":null");
            }
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.render_json_into(out);
        }
        out.push_str("]}");
    }
}

/// One closed span, as seen by a [`Tracer`] observer: the node's own data
/// (no children) plus its depth in the open-span stack at close time.
///
/// Observers fire on every span close, in close order — innermost first —
/// which is exactly the order a progress consumer wants: the deepest stages
/// finish earliest and each close narrows the remaining work. The event
/// carries no references into the recorder, so observers may do anything
/// except re-enter the tracer (they are invoked outside its lock, so even
/// re-entry merely risks odd trees, never deadlock).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Stage name of the closed span.
    pub name: &'static str,
    /// Optional instance index (e.g. the multilevel hierarchy level).
    pub index: Option<usize>,
    /// Wall-clock duration of the span in microseconds.
    pub wall_micros: u64,
    /// Number of spans still open above this one (0 for a root).
    pub depth: usize,
    /// The span's numeric attributes at close time.
    pub attrs: Vec<(&'static str, f64)>,
}

/// The observer callback type: invoked on every span close.
pub type SpanObserver = Arc<dyn Fn(&SpanEvent) + Send + Sync>;

/// Recorder state: the open-span stack plus finished roots.
#[derive(Debug, Default)]
struct State {
    /// Spans opened but not yet closed, outermost first. Children attach to
    /// the last element when they close.
    open: Vec<SpanNode>,
    /// Completed top-level spans.
    roots: Vec<SpanNode>,
}

struct TracerInner {
    state: Mutex<State>,
    /// Fired (outside the state lock) on every span close.
    observer: Option<SpanObserver>,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerInner")
            .field("state", &self.state)
            .field("observer", &self.observer.as_ref().map(|_| "Fn"))
            .finish()
    }
}

/// A hierarchical span recorder.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same tree, which is
/// how one tracer threads through several options structs. The disabled
/// tracer is a `None` and records nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                state: Mutex::new(State::default()),
                observer: None,
            })),
        }
    }

    /// A recording tracer that additionally invokes `observer` on every
    /// span close (innermost spans first, since they close first). This is
    /// how the service streams PROGRESS frames: the solver's own span
    /// closes become live stage-completion events without the solver
    /// knowing anything about wires. The observer runs on the closing
    /// thread, outside the recorder lock, and never changes what gets
    /// recorded.
    pub fn enabled_with_observer(observer: SpanObserver) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                state: Mutex::new(State::default()),
                observer: Some(observer),
            })),
        }
    }

    /// The no-op tracer (also the `Default`): guards skip the clock read,
    /// attribute pushes and the lock entirely.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes (and records) when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    /// Opens an indexed span (e.g. `span_at("level", k)` per hierarchy
    /// level).
    pub fn span_at(&self, name: &'static str, index: usize) -> SpanGuard<'_> {
        self.open(name, Some(index))
    }

    fn open(&self, name: &'static str, index: Option<usize>) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                live: None,
                attrs: Vec::new(),
            };
        };
        inner.state.lock().unwrap().open.push(SpanNode {
            name,
            index,
            wall_micros: 0,
            attrs: Vec::new(),
            children: Vec::new(),
        });
        SpanGuard {
            live: Some((inner, Instant::now())),
            attrs: Vec::new(),
        }
    }

    /// Takes the recorded tree, or `None` for a disabled tracer or when
    /// nothing was recorded. Clears the recorder, so a tracer can be
    /// reused across requests.
    ///
    /// When several top-level spans completed — one logical request that
    /// ran in phases, e.g. a failed solve followed by a degradation-ladder
    /// fallback — the later roots become trailing children of the first,
    /// so the request still renders as a single coherent tree.
    ///
    /// Spans still open when this is called are dropped (a guard leaked
    /// across `finish` would otherwise attach to the wrong tree).
    pub fn finish(&self) -> Option<SpanNode> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.state.lock().unwrap();
        state.open.clear();
        let mut roots = std::mem::take(&mut state.roots).into_iter();
        let mut first = roots.next()?;
        first.children.extend(roots);
        Some(first)
    }
}

/// RAII guard for one open span. Records the span into the tree when
/// dropped; attributes attached through it are stored on the span.
///
/// Guards must drop in reverse open order (ordinary lexical scoping); the
/// recorder is tolerant of violations — a span closing while a later span
/// is still open adopts it as a child rather than corrupting the tree.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    /// Recorder plus span start time; `None` for the disabled tracer.
    live: Option<(&'a TracerInner, Instant)>,
    /// Attributes staged locally (no lock until close).
    attrs: Vec<(&'static str, f64)>,
}

impl SpanGuard<'_> {
    /// Attaches a numeric attribute (last write wins on duplicate names at
    /// read time via [`SpanNode::attr`]'s first-match rule — call sites use
    /// distinct names).
    pub fn attr(&mut self, name: &'static str, value: f64) {
        if self.live.is_some() {
            self.attrs.push((name, value));
        }
    }

    /// Adds `value` to an attribute, creating it at zero — a convenience
    /// for orchestrator-side tallies (iteration counts, matvecs).
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.live.is_some() {
            match self.attrs.iter_mut().find(|(k, _)| *k == name) {
                Some((_, v)) => *v += value,
                None => self.attrs.push((name, value)),
            }
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((inner, start)) = self.live.take() else {
            return;
        };
        let micros = start.elapsed().as_micros() as u64;
        let event = {
            let mut state = inner.state.lock().unwrap();
            let Some(mut node) = state.open.pop() else {
                return; // finish() ran while this guard was open
            };
            node.wall_micros = micros;
            node.attrs.append(&mut self.attrs);
            let event = inner.observer.as_ref().map(|_| SpanEvent {
                name: node.name,
                index: node.index,
                wall_micros: node.wall_micros,
                depth: state.open.len(),
                attrs: node.attrs.clone(),
            });
            match state.open.last_mut() {
                Some(parent) => parent.children.push(node),
                None => state.roots.push(node),
            }
            event
        };
        // Outside the lock: an observer that blocks (or re-enters the
        // tracer) cannot deadlock the recorder.
        if let (Some(obs), Some(event)) = (&inner.observer, event) {
            obs(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut g = t.span("root");
            g.attr("x", 1.0);
            let _child = t.span_at("child", 3);
        }
        assert!(!t.is_enabled());
        assert!(t.finish().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn tree_shape_and_attrs() {
        let t = Tracer::enabled();
        {
            let mut root = t.span("order");
            root.attr("n", 10.0);
            {
                let mut a = t.span_at("level", 1);
                a.add("iters", 3.0);
                a.add("iters", 4.0);
            }
            {
                let _b = t.span("sort");
            }
        }
        let tree = t.finish().unwrap();
        assert_eq!(tree.name, "order");
        assert_eq!(tree.attr("n"), Some(10.0));
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "level");
        assert_eq!(tree.children[0].index, Some(1));
        assert_eq!(tree.children[0].attr("iters"), Some(7.0));
        assert_eq!(tree.children[1].name, "sort");
        assert_eq!(tree.shape(), "order\n  level[1]\n  sort\n");
        // finish() cleared the recorder.
        assert!(t.finish().is_none());
    }

    #[test]
    fn nested_spans_nest() {
        let t = Tracer::enabled();
        {
            let _a = t.span("a");
            let _b = t.span("b");
            let _c = t.span("c");
        }
        let tree = t.finish().unwrap();
        assert_eq!(tree.shape(), "a\n  b\n    c\n");
    }

    #[test]
    fn later_roots_fold_into_the_first() {
        // A request that runs in phases (failed solve, then a fallback)
        // closes several top-level spans; finish() must still hand back
        // one coherent tree, not silently drop the later phases.
        let t = Tracer::enabled();
        {
            let _a = t.span("solve");
        }
        {
            let mut d = t.span("degrade");
            d.attr("rung", 3.0);
            let _inner = t.span("solve");
        }
        let tree = t.finish().unwrap();
        assert_eq!(tree.shape(), "solve\n  degrade\n    solve\n");
        assert_eq!(tree.children[0].attr("rung"), Some(3.0));
    }

    #[test]
    fn clones_share_the_tree() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        {
            let _root = t.span("root");
            let _sub = t2.span("sub");
        }
        let tree = t2.finish().unwrap();
        assert_eq!(tree.shape(), "root\n  sub\n");
    }

    #[test]
    fn aggregation_helpers() {
        let t = Tracer::enabled();
        {
            let mut root = t.span("order");
            root.attr("matvecs", 1.0);
            {
                let mut a = t.span_at("rqi", 0);
                a.attr("matvecs", 5.0);
            }
            {
                let mut b = t.span_at("rqi", 1);
                b.attr("matvecs", 7.0);
            }
        }
        let tree = t.finish().unwrap();
        assert_eq!(tree.attr_total("matvecs"), 13.0);
        assert_eq!(tree.stage_names(), vec!["order", "rqi"]);
        let rqi_us = tree.stage_micros("rqi");
        assert!(rqi_us <= tree.wall_micros + 1);
    }

    #[test]
    fn observer_sees_every_close_in_close_order() {
        let events: Arc<Mutex<Vec<SpanEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let t = Tracer::enabled_with_observer(Arc::new(move |e: &SpanEvent| {
            sink.lock().unwrap().push(e.clone());
        }));
        {
            let mut root = t.span("order");
            root.attr("n", 9.0);
            {
                let mut lvl = t.span_at("level", 2);
                lvl.attr("matvecs", 17.0);
            }
            let _s = t.span("stats");
        }
        let seen = events.lock().unwrap().clone();
        assert_eq!(
            seen.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["level", "stats", "order"],
            "closes fire innermost-first"
        );
        assert_eq!(seen[0].index, Some(2));
        assert_eq!(seen[0].depth, 1);
        assert_eq!(seen[0].attrs, vec![("matvecs", 17.0)]);
        assert_eq!(seen[2].depth, 0);
        assert_eq!(seen[2].attrs, vec![("n", 9.0)]);
        // Observation does not change what is recorded.
        let tree = t.finish().unwrap();
        assert_eq!(tree.shape(), "order\n  level[2]\n  stats\n");
    }

    #[test]
    fn render_text_is_indented() {
        let t = Tracer::enabled();
        {
            let mut root = t.span("order");
            root.attr("n", 100.0);
            let _c = t.span_at("level", 2);
        }
        let text = t.finish().unwrap().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("order"));
        assert!(lines[0].contains("n=100"));
        assert!(lines[1].starts_with("  level[2]"));
        assert!(lines[1].contains("ms"));
    }

    #[test]
    fn render_json_is_single_line_and_wellformed() {
        let t = Tracer::enabled();
        {
            let mut root = t.span("order");
            root.attr("ratio", 1.5);
            let _c = t.span_at("level", 0);
        }
        let json = t.finish().unwrap().render_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"name\":\"order\""));
        assert!(json.contains("\"ratio\":1.5"));
        assert!(json.contains("\"index\":0"));
        assert!(json.contains("\"children\":[{\"name\":\"level\""));
        // Balanced braces/brackets — a cheap well-formedness check that
        // doesn't need a parser in this std-only crate.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn finish_drops_open_spans() {
        let t = Tracer::enabled();
        let g = t.span("stale");
        assert!(t.finish().is_none());
        drop(g); // must not panic or attach anywhere
        assert!(t.finish().is_none());
    }

    #[test]
    fn out_of_order_drop_adopts_children() {
        let t = Tracer::enabled();
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // closes the innermost open span ("b"'s slot) as "a"…
        drop(b);
        // …the recorder still produces one coherent tree, not a panic.
        let tree = t.finish().unwrap();
        assert_eq!(tree.children.len(), 1);
    }
}
