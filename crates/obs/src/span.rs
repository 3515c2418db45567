//! Hierarchical spans: per-query causal trees with wall-clock extents.
//!
//! A [`Span`] is one named interval of work with a parent link, so a query's
//! phases (candidates → local inference per pair → global K-GRI → refine)
//! form a tree rooted at the query span. Spans are collected per query into
//! a [`SpanCollector`] and shipped inside the query's
//! [`TraceRecord`](crate::TraceRecord), which keeps the hot path free of any
//! global span storage: the only cross-query state is the id allocator, one
//! relaxed `fetch_add` per span.
//!
//! Span ids are process-unique (a single atomic counter starting at 1, with
//! 0 reserved as "no span"), which is what lets a histogram **exemplar**
//! ([`Histogram::observe_with_exemplar`](crate::Histogram::observe_with_exemplar))
//! point from a latency bucket back into the trace ring.
//!
//! Capturing a span costs two clock reads (start/finish) plus one mutex push
//! into the collector, so collection is **sampled**: a [`SpanSampler`]
//! admits 1-in-N queries, and the engine synthesizes a tree from its
//! already-measured phase timings for slow queries that missed the sample
//! (see [`synthetic_tree`]) — no extra clock reads on the unsampled path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide span id allocator. Ids start at 1; 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (never 0).
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide trace id allocator. Ids start at 1; 0 means "untraced".
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique trace id (never 0). One relaxed
/// `fetch_add`, no clock reads — minting a trace id is as cheap as minting
/// a span id, and the single shared counter makes collisions across
/// concurrent batches impossible by construction (pinned by the router's
/// trace-propagation proptests).
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The propagated identity of one distributed query: which trace the work
/// belongs to and which span fathered it.
///
/// The sharded router mints one context per query at the routing decision
/// ([`TraceContext::mint`]) and threads it through delegation, pinned
/// scatter batches and the router-side splice; each stage derives its
/// children with [`TraceContext::child`], so every span of a cross-shard
/// query lands in one stitched tree under one trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The query-unique trace id (never 0 for a minted context).
    pub trace_id: u64,
    /// The span id the next stage should parent under (0 = tree root).
    pub parent_span: u64,
}

impl TraceContext {
    /// Mints a fresh root context: a new trace id, parented at the root.
    #[must_use]
    pub fn mint() -> Self {
        TraceContext {
            trace_id: next_trace_id(),
            parent_span: 0,
        }
    }

    /// The same trace, re-parented under `span` — hand this to the next
    /// stage (a shard, the splice) so its spans nest correctly.
    #[must_use]
    pub fn child(self, span: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: span,
        }
    }
}

/// One attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer payload (counts, sizes).
    Int(i64),
    /// Float payload (scores, seconds).
    Float(f64),
    /// Text payload (modes, outcomes).
    Text(String),
}

impl AttrValue {
    /// This value as one JSON token.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Int(v) => v.to_string(),
            AttrValue::Float(v) => crate::export::fmt_f64(*v),
            AttrValue::Text(s) => format!("\"{}\"", crate::export::escape_json(s)),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_string())
    }
}

/// One finished span: a named wall-clock interval inside a query, with a
/// parent link (0 = root) and optional key-value attributes.
///
/// `start_s` is the offset from the owning collector's origin (the moment
/// the query's root span opened), so a whole tree is self-contained and
/// needs no absolute timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for the tree root.
    pub parent: u64,
    /// Phase name (`query`, `candidates`, `local`, `pair`, `global`,
    /// `refine`, …).
    pub name: String,
    /// Start offset in seconds from the collector origin.
    pub start_s: f64,
    /// Wall-clock extent in seconds.
    pub duration_s: f64,
    /// Key-value attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl Span {
    /// This span as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"duration_s\":{}",
            self.id,
            self.parent,
            crate::export::escape_json(&self.name),
            crate::export::fmt_f64(self.start_s),
            crate::export::fmt_f64(self.duration_s),
        );
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{}",
                    crate::export::escape_json(k),
                    v.to_json()
                ));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Collects the spans of one query into a tree.
///
/// The collector is `Sync`: concurrent pair workers can open child guards
/// against the same collector (each finished span takes the internal mutex
/// once, on close). Dropping the collector drops its spans — the engine
/// moves them into the query's `TraceRecord` via [`SpanCollector::into_spans`].
#[derive(Debug)]
pub struct SpanCollector {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// An empty collector; its origin (the zero of every `start_s`) is
    /// pinned to the moment of construction.
    #[must_use]
    pub fn new() -> Self {
        SpanCollector {
            origin: crate::clock::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens the root span (parent 0).
    pub fn root(&self, name: &str) -> SpanGuard<'_> {
        self.guard(name, 0)
    }

    /// Opens a child span under `parent` (a span id from a live guard).
    pub fn child(&self, parent: u64, name: &str) -> SpanGuard<'_> {
        self.guard(name, parent)
    }

    fn guard(&self, name: &str, parent: u64) -> SpanGuard<'_> {
        let start = crate::clock::now();
        SpanGuard {
            collector: self,
            id: next_span_id(),
            parent,
            name: name.to_string(),
            start,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            attrs: Vec::new(),
            armed: true,
        }
    }

    /// Appends an externally built span (used for synthetic trees).
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span collector").push(span);
    }

    /// Records a zero-duration marker span — a **span event** — under
    /// `parent`: shard health flips, reroutes, degraded/rejected outcomes.
    /// One clock read (the event's position on the trace timeline); returns
    /// the event's span id.
    pub fn event(&self, parent: u64, name: &str, attrs: Vec<(String, AttrValue)>) -> u64 {
        let id = next_span_id();
        let start_s = crate::clock::now()
            .duration_since(self.origin)
            .as_secs_f64();
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            start_s,
            duration_s: 0.0,
            attrs,
        });
        id
    }

    /// Number of finished spans collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span collector").len()
    }

    /// True when no span has finished yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the collector, returning its spans sorted by
    /// `(start_s, id)` — parents precede their children, concurrent
    /// siblings tie-break on allocation order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span collector");
        spans.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then_with(|| a.id.cmp(&b.id))
        });
        spans
    }
}

/// An open span: records itself into the collector when finished (or
/// dropped), RAII-style. Costs one clock read on open and one on close.
#[must_use = "a dropped-immediately guard records a ~0s span"]
#[derive(Debug)]
pub struct SpanGuard<'c> {
    collector: &'c SpanCollector,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
    start_s: f64,
    attrs: Vec<(String, AttrValue)>,
    armed: bool,
}

impl SpanGuard<'_> {
    /// This span's id — hand it to children and to histogram exemplars.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a key-value attribute.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        self.attrs.push((key.to_string(), value.into()));
    }

    /// Closes the span now and returns its duration in seconds.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let duration_s = crate::clock::now().duration_since(self.start).as_secs_f64();
        self.armed = false;
        self.collector.record(Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_s: self.start_s,
            duration_s,
            attrs: std::mem::take(&mut self.attrs),
        });
        duration_s
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.close();
        }
    }
}

/// Deterministic 1-in-N admission: query `k` is sampled iff `k % every == 0`
/// (with `every == 0` disabling sampling entirely). One relaxed `fetch_add`
/// per decision; no clock reads.
#[derive(Debug)]
pub struct SpanSampler {
    every: u64,
    counter: AtomicU64,
}

impl SpanSampler {
    /// A sampler admitting one query in `every` (0 admits none).
    #[must_use]
    pub fn new(every: u64) -> Self {
        SpanSampler {
            every,
            counter: AtomicU64::new(0),
        }
    }

    /// The configured period.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Draws the next admission decision.
    #[must_use]
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }
}

/// Builds a complete query span tree from already-measured phase durations:
/// a root named `root_name` spanning `total_s`, with one child per
/// `(name, duration_s)` phase laid out back-to-back from the root's start.
///
/// This is how a slow query that missed the 1-in-N sample still ships a
/// full causal tree — the phase durations were measured anyway for the
/// phase histograms, so synthesis costs id allocations only, **zero**
/// additional clock reads. Synthesized spans carry the attr
/// `synthetic: 1`.
///
/// Returns `(root_id, spans)`.
#[must_use]
pub fn synthetic_tree(root_name: &str, total_s: f64, phases: &[(&str, f64)]) -> (u64, Vec<Span>) {
    let root_id = next_span_id();
    let mut spans = Vec::with_capacity(phases.len() + 1);
    spans.push(Span {
        id: root_id,
        parent: 0,
        name: root_name.to_string(),
        start_s: 0.0,
        duration_s: total_s,
        attrs: vec![("synthetic".to_string(), AttrValue::Int(1))],
    });
    let mut at = 0.0;
    for (name, dur) in phases {
        spans.push(Span {
            id: next_span_id(),
            parent: root_id,
            name: (*name).to_string(),
            start_s: at,
            duration_s: *dur,
            attrs: vec![("synthetic".to_string(), AttrValue::Int(1))],
        });
        at += dur;
    }
    (root_id, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn trace_ids_are_unique_and_contexts_reparent() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert!(a.trace_id != 0 && b.trace_id != 0 && a.trace_id != b.trace_id);
        assert_eq!(a.parent_span, 0);
        let c = a.child(17);
        assert_eq!(c.trace_id, a.trace_id);
        assert_eq!(c.parent_span, 17);
    }

    #[test]
    fn events_are_zero_duration_marker_spans() {
        let c = SpanCollector::new();
        let root = c.root("query");
        let root_id = root.id();
        let ev = c.event(
            root_id,
            "reroute",
            vec![("from".to_string(), AttrValue::Int(2))],
        );
        let _ = root.finish();
        let spans = c.into_spans();
        let event = spans.iter().find(|s| s.id == ev).expect("event recorded");
        assert_eq!(event.parent, root_id);
        assert_eq!(event.duration_s, 0.0);
        assert_eq!(event.name, "reroute");
        assert_eq!(event.attrs[0].0, "from");
    }

    #[test]
    fn guard_tree_records_parent_links_and_ordering() {
        let c = SpanCollector::new();
        let root = c.root("query");
        let root_id = root.id();
        {
            let mut child = c.child(root_id, "local");
            child.attr("pairs", 4usize);
            let grand = c.child(child.id(), "pair");
            let _ = grand.finish();
            let _ = child.finish();
        }
        let _ = root.finish();
        let spans = c.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].name, "local");
        assert_eq!(spans[1].parent, root_id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(
            spans[1].attrs,
            vec![("pairs".to_string(), AttrValue::Int(4))]
        );
        // Children start at or after their parent and fit inside it
        // (same-clock reads, so exact inequalities hold).
        assert!(spans[1].start_s >= spans[0].start_s);
        assert!(spans[1].duration_s <= spans[0].duration_s);
    }

    #[test]
    fn dropping_a_guard_records_it() {
        let c = SpanCollector::new();
        {
            let _root = c.root("query");
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn sampler_admits_one_in_n() {
        let s = SpanSampler::new(4);
        let admitted: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(
            admitted,
            vec![true, false, false, false, true, false, false, false]
        );
        let off = SpanSampler::new(0);
        assert!((0..10).all(|_| !off.sample()));
    }

    #[test]
    fn synthetic_tree_is_complete_and_flagged() {
        let (root_id, spans) = synthetic_tree("query", 1.0, &[("candidates", 0.1), ("local", 0.7)]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, root_id);
        assert!(spans.iter().skip(1).all(|s| s.parent == root_id));
        assert!((spans[2].start_s - 0.1).abs() < 1e-12);
        assert!(spans.iter().all(|s| s
            .attrs
            .contains(&("synthetic".to_string(), AttrValue::Int(1)))));
        let phase_sum: f64 = spans.iter().skip(1).map(|s| s.duration_s).sum();
        assert!((phase_sum - 0.8).abs() < 1e-12);
    }

    #[test]
    fn span_json_shape() {
        let s = Span {
            id: 3,
            parent: 1,
            name: "local".to_string(),
            start_s: 0.5,
            duration_s: 0.25,
            attrs: vec![
                ("pairs".to_string(), AttrValue::Int(4)),
                ("mode".to_string(), AttrValue::Text("tgi".to_string())),
            ],
        };
        assert_eq!(
            s.to_json(),
            "{\"id\":3,\"parent\":1,\"name\":\"local\",\"start_s\":0.5,\
             \"duration_s\":0.25,\"attrs\":{\"pairs\":4,\"mode\":\"tgi\"}}"
        );
        let bare = Span {
            id: 1,
            parent: 0,
            name: "query".to_string(),
            start_s: 0.0,
            duration_s: 1.0,
            attrs: Vec::new(),
        };
        assert!(!bare.to_json().contains("attrs"));
    }
}
