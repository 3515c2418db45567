//! **hris-obs** — zero-dependency observability for the HRIS serving stack.
//!
//! The pipeline's three online phases (local inference → global inference →
//! refinement) are only tunable when their runtime cost is visible, so this
//! crate provides the smallest toolkit that makes the hot path introspectable
//! without perturbing it:
//!
//! * [`MetricsRegistry`] — a thread-safe registry of named metrics backed by
//!   plain atomics: monotonic [`Counter`]s, [`Gauge`]s, fixed-bucket
//!   [`Histogram`]s, and [`PairedCounter`]s (a hit/miss pair packed into one
//!   atomic word so a snapshot of the pair is always mutually consistent).
//! * [`PhaseTimer`] — an RAII wall-clock timer that records into a histogram
//!   when dropped; one `Instant::now()` on start and one on stop.
//! * [`TraceRecord`] / [`TraceRing`] — the one opt-in per-query record
//!   (phase durations, candidate counts, cache outcomes, route score, a
//!   slow-query flag and, when explain is on, the pre-rendered audit
//!   document) and the bounded log that keeps it, keyed by trace id.
//! * [`MetricsSnapshot`] — a point-in-time copy of the registry that renders
//!   to Prometheus text exposition format or JSON.
//! * [`Span`] / [`SpanCollector`] — sampled per-query span trees (phase
//!   hierarchy with wall-clock extents and attrs) shipped inside
//!   [`TraceRecord`]s; histogram buckets can carry **exemplar** span ids
//!   ([`Histogram::observe_with_exemplar`]) linking a latency bucket to a
//!   concrete trace.
//! * [`SlidingHistogram`] — a ring of fixed-bucket time epochs merged on
//!   read, for rolling-window quantiles and rates.
//! * [`serve`] — a zero-dependency blocking HTTP server exposing
//!   `/metrics`, `/healthz`, `/varz`, and `/debug/traces`, `/debug/slow`
//!   and `/debug/explain/<trace_id>` from one [`TraceRing`], plus mountable
//!   prefix handlers for router-level debug endpoints (`/debug/shards`).
//! * [`TraceContext`] / [`TraceAssembler`] — distributed-trace propagation:
//!   a router mints a process-unique trace id at its routing decision,
//!   threads it through delegation and scatter batches, and stitches every
//!   stage's spans into one validated tree.
//! * [`clock`] — the counted monotonic clock every instrumented code path
//!   reads through, making the zero-clock-read disabled-path contract
//!   test-enforceable.
//!
//! # Consistency model
//!
//! Every metric is updated with `Ordering::Relaxed` atomics: each individual
//! counter, gauge, bucket and sum is exact, but a snapshot taken while
//! writers are active may observe *different* metrics at slightly different
//! instants. The two exceptions are deliberate:
//!
//! * a [`PairedCounter`] packs its hit and miss counts into one `AtomicU64`
//!   (32 bits each), so the `(hits, misses)` tuple read by
//!   [`PairedCounter::get`] always corresponds to one single program state —
//!   `hits + misses` is exactly the number of lookups issued before the
//!   load;
//! * a [`Histogram`] snapshot reads `count` last, so `count` is always ≥ the
//!   sum of the bucket counts read before it (never the reverse).
//!
//! Snapshots of a *quiescent* registry (no concurrent writers) are exact.
//!
//! # Overhead
//!
//! Disabled instrumentation must cost nothing: every consumer in this
//! workspace gates metric updates on an `Option` that is `None` by default,
//! so the disabled path executes zero atomic operations and zero clock
//! reads. Enabled, the per-query cost is a handful of relaxed atomic
//! read-modify-writes and four `Instant` pairs — see DESIGN.md §5d for the
//! measured budget.

#![warn(missing_docs)]

pub mod admission;
mod assemble;
pub mod clock;
pub mod export;
mod histogram;
mod registry;
pub mod serve;
mod sliding;
mod span;
mod timer;
mod trace;

pub use admission::{Admission, AdmissionGate, AdmissionPermit};
pub use assemble::{AssembleError, TraceAssembler};
pub use export::MetricsSnapshot;
pub use histogram::{Histogram, HistogramSnapshot, DEFAULT_TIME_BOUNDS, FINE_TIME_BOUNDS};
pub use registry::{Counter, Gauge, MetricsRegistry, PairedCounter, SnapshotEntry, SnapshotValue};
pub use serve::{Health, MetricsServer, ServeState};
pub use sliding::SlidingHistogram;
pub use span::{
    next_span_id, next_trace_id, synthetic_tree, AttrValue, Span, SpanCollector, SpanGuard,
    SpanSampler, TraceContext,
};
pub use timer::PhaseTimer;
pub use trace::{TraceRecord, TraceRing};
