//! The serving engine's core: scheduling, the candidate memo, the
//! shortest-path fallback and instrumentation behind
//! [`EngineHandle`](crate::handle::EngineHandle).
//!
//! [`Hris`](crate::Hris) answers one query on one thread. The engine serves
//! the same three-phase pipeline as a throughput-oriented front end:
//!
//! * **Pair fan-out** — phases 1–2 of a query (reference search + local
//!   inference per consecutive point pair) are independent per pair; a
//!   single query with at least `PAIR_FANOUT_MIN_PAIRS` (8) pairs fans them
//!   out on the thread pool and hands the results to K-GRI in query order.
//!   Shorter queries run their pairs on the calling thread, where fork/join
//!   overhead would exceed the work.
//! * **Batch fan-out** — a batch spreads whole queries across the pool;
//!   each query's pairs then run in sequence, so the pool is never
//!   oversubscribed by nested fan-out.
//! * **Candidate memo** — per-point candidate edges memoised by the *exact
//!   bit pattern* of the position, shared by all pairs and all queries,
//!   bounded by a wholesale flush at `CAND_MEMO_CAP` entries. The
//!   shortest-path fallback goes straight to the network's
//!   [`SpOracle`](hris_roadnet::SpOracle), which memoises whole trees.
//! * **Observability** — with [`ObsOptions::enabled`](crate::ObsOptions)
//!   the engine records per-phase wall time, queue depth, worker occupancy,
//!   cache hit/miss pairs and rolling-window latency quantiles on an
//!   [`hris_obs`] registry ([`EngineObs`]); sampled queries additionally
//!   carry a structured span tree whose ids surface as histogram
//!   exemplars. Disabled (the default) the hot path performs no clock
//!   reads and no atomic updates beyond the cache counters that predate
//!   instrumentation.
//! * **Query log** — with tracing or explain on, every query (served,
//!   repaired, degraded, rejected or shed) files exactly one
//!   [`TraceRecord`] in one bounded [`TraceRing`]
//!   ([`EngineConfig::query_log`]): timings and cache tallies when
//!   tracing, the rendered [`QueryAudit`] when explaining.
//!
//! The load-bearing invariant: **scheduling, caching and instrumentation
//! never change any result.** Pair workers only read shared state, the memo
//! is keyed exactly (no tolerance collisions), and memoised values are
//! stored verbatim — so a fanned-out query, a batch and the plain
//! [`Hris`](crate::Hris) pipeline return byte-identical routes and scores, with or without
//! metrics enabled. `tests/engine_determinism.rs` and
//! `tests/engine_observability.rs` pin this down.

use crate::audit::QueryAudit;
use crate::global::GlobalRoute;
use crate::local::{LocalInferenceResult, LocalStats};
use crate::params::{EngineConfig, HrisParams, ObsOptions};
use crate::pipeline::{degenerate_local, infer_pair, DegenerateQuery};
use crate::scoring::{LearnedScorer, PaperScorer, RerankModel, RouteScorer, ScoringCtx};
use hris_obs::{
    clock, synthetic_tree, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
    PairedCounter, SlidingHistogram, Span, SpanCollector, SpanGuard, SpanSampler, TraceRecord,
    TraceRing, DEFAULT_TIME_BOUNDS,
};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{CostModel, MemoCounters, RoadNetwork, Route, SegmentId};
use hris_traj::{sanitize_points, PointRepairs, Trajectory, TrajectoryArchive};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

/// Pair count from which a single query (or a router sub-query) fans its
/// pairs out on the thread pool. Below it the pairs run on the calling
/// thread: the fork/join overhead exceeds the work of a few pairs (the e2e
/// benchmark measured a 0.98× *slowdown* for fan-out on 3-pair queries).
pub(crate) const PAIR_FANOUT_MIN_PAIRS: usize = 8;

/// Bound on memoised candidate lists before a wholesale flush. A pinned
/// handle never changes epoch, so without a bound the memo would grow with
/// every distinct query position for the life of the process.
pub(crate) const CAND_MEMO_CAP: usize = 1 << 16;

/// Why the engine refused to answer a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The query had no observations at all.
    EmptyQuery,
    /// Sanitization removed every observation (all points were garbage).
    NoUsablePoints,
    /// Sharded serving only: every shard holding the query's data is
    /// unhealthy (corrupt archive or stale snapshot), and no healthy shard
    /// can stand in.
    ShardUnavailable,
    /// Admission control shed the query: every execution slot and the
    /// whole waiting room were occupied. The caller should back off and
    /// retry — the 429 of this API.
    Overloaded,
}

/// Per-query disposition of the engine's validation/degradation layer.
///
/// The ladder, from best to worst:
/// * [`QueryOutcome::Ok`] — the input satisfied the engine's contract and
///   took the normal pipeline unchanged (byte-identical to a validation-off
///   engine).
/// * [`QueryOutcome::Repaired`] — the input violated the contract but
///   sanitization fixed it (dropped garbage points, re-sorted timestamps,
///   removed duplicate records); the repaired query then answered normally.
/// * [`QueryOutcome::Degraded`] — repaired as above, *and* at least one
///   point pair needed the degradation chain (forced TGI → forced NNI →
///   shortest path) to produce a route. The answer is a best effort.
/// * [`QueryOutcome::Rejected`] — nothing usable remained; the result is
///   empty and [`RejectReason`] says why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// Valid input, normal pipeline.
    Ok,
    /// Input repaired, then answered through the normal pipeline.
    Repaired {
        /// What sanitization did.
        repairs: PointRepairs,
    },
    /// Input repaired and answered only via the fallback chain.
    Degraded {
        /// What sanitization did.
        repairs: PointRepairs,
        /// Point pairs that needed a fallback beyond the primary algorithm.
        pairs_fell_back: usize,
    },
    /// No answer; the result is empty.
    Rejected {
        /// Why the query could not be answered.
        reason: RejectReason,
    },
}

impl QueryOutcome {
    /// Stable lower-case label (metrics, reports).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Repaired { .. } => "repaired",
            QueryOutcome::Degraded { .. } => "degraded",
            QueryOutcome::Rejected { .. } => "rejected",
        }
    }

    /// `true` for [`QueryOutcome::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, QueryOutcome::Ok)
    }
}

// The derive stand-in handles unit-only enums; QueryOutcome carries payloads,
// so its JSON form — a tagged object `{"outcome": <label>, ...payload}` — is
// written out by hand.
impl Serialize for QueryOutcome {
    fn to_json_value(&self) -> serde::Value {
        let mut obj = vec![(
            "outcome".to_string(),
            serde::Value::Str(self.label().to_string()),
        )];
        match self {
            QueryOutcome::Ok => {}
            QueryOutcome::Repaired { repairs } => {
                obj.push(("repairs".to_string(), repairs.to_json_value()));
            }
            QueryOutcome::Degraded {
                repairs,
                pairs_fell_back,
            } => {
                obj.push(("repairs".to_string(), repairs.to_json_value()));
                obj.push((
                    "pairs_fell_back".to_string(),
                    serde::Value::Int(*pairs_fell_back as i64),
                ));
            }
            QueryOutcome::Rejected { reason } => {
                obj.push(("reason".to_string(), reason.to_json_value()));
            }
        }
        serde::Value::Obj(obj)
    }
}

impl Deserialize for QueryOutcome {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let tag = v
            .get("outcome")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::DeError::msg("QueryOutcome: missing `outcome` tag"))?;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError::msg(format!("QueryOutcome: missing `{name}`")))
        };
        match tag {
            "ok" => Ok(QueryOutcome::Ok),
            "repaired" => Ok(QueryOutcome::Repaired {
                repairs: PointRepairs::from_json_value(field("repairs")?)?,
            }),
            "degraded" => Ok(QueryOutcome::Degraded {
                repairs: PointRepairs::from_json_value(field("repairs")?)?,
                pairs_fell_back: usize::from_json_value(field("pairs_fell_back")?)?,
            }),
            "rejected" => Ok(QueryOutcome::Rejected {
                reason: RejectReason::from_json_value(field("reason")?)?,
            }),
            other => Err(serde::DeError::msg(format!(
                "QueryOutcome: unknown tag `{other}`"
            ))),
        }
    }
}

/// One query's answer plus its [`QueryOutcome`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Top-K global routes (empty when rejected or nothing was inferable).
    pub globals: Vec<GlobalRoute>,
    /// Per-pair local statistics.
    pub stats: Vec<LocalStats>,
    /// How the validation/degradation layer handled the query.
    pub outcome: QueryOutcome,
}

/// Exact-position key: the bit patterns of a point's coordinates. Two query
/// points share a memo entry only when they are bit-identical, so the memo
/// cannot perturb results.
type CandKey = (u64, u64);

/// Exact position → its candidate edges.
type CandMemo = HashMap<CandKey, Arc<Vec<CandidateEdge>>>;

/// Hit/miss counters of the engine's shortest-path fallback and candidate
/// memo.
///
/// # Consistency model
///
/// Each `(hits, misses)` pair is read from **one** atomic load of a packed
/// [`PairedCounter`], so within a pair the numbers are mutually consistent
/// even while a batch is in flight: `sp_hits + sp_misses` is exactly the
/// number of shortest-path fallbacks issued before the snapshot, and
/// likewise for the candidate memo. Across the two pairs (and relative to
/// any registry metrics) no ordering is guaranteed — the two loads happen
/// at slightly different instants.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCacheStats {
    /// Shortest-path fallbacks answered from the oracle's precomputed state.
    pub sp_hits: u64,
    /// Shortest-path fallbacks that ran Dijkstra.
    pub sp_misses: u64,
    /// Candidate-edge lookups answered from the memo.
    pub candidate_hits: u64,
    /// Candidate-edge lookups computed fresh.
    pub candidate_misses: u64,
}

/// Per-query cache outcome tally, shared by the pair workers of one traced
/// query (they run on several threads when the query's pairs fan out).
#[derive(Default)]
pub(crate) struct CacheTally {
    sp_hits: AtomicU64,
    sp_misses: AtomicU64,
    cand_hits: AtomicU64,
    cand_misses: AtomicU64,
}

impl CacheTally {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// Phases 1–2 of one query plus the numbers the instrumentation wants.
pub(crate) struct LocalRun {
    pub(crate) locals: Vec<LocalInferenceResult>,
    /// Candidate edges summed over all query points.
    candidates_total: usize,
    /// Wall seconds of the candidate-lookup loop (0 when untimed).
    candidates_s: f64,
    /// Wall seconds of the per-pair inference loop (0 when untimed).
    local_s: f64,
    /// Span ids of the candidates/local phase spans (0 when unsampled).
    candidates_span: u64,
    local_span: u64,
}

/// The span tree of one sampled query, plus the phase span ids the
/// histograms stamp as exemplars.
struct SpanCapture {
    root: u64,
    candidates: u64,
    local: u64,
    global: u64,
    refine: u64,
    spans: Vec<Span>,
}

/// Rolling-window latency state: one [`SlidingHistogram`] per phase plus
/// the end-to-end query time, all on 30-second epochs so 1m and 5m reads
/// merge 2 and 10 epochs respectively.
struct LatencyWindows {
    query: SlidingHistogram,
    candidates: SlidingHistogram,
    local: SlidingHistogram,
    global: SlidingHistogram,
    refine: SlidingHistogram,
}

impl LatencyWindows {
    /// 30 s × 11 slots = a 330 s horizon, comfortably covering the 5 m
    /// window even mid-epoch.
    fn new() -> Self {
        let mk = || SlidingHistogram::new(&DEFAULT_TIME_BOUNDS, 30.0, 11);
        LatencyWindows {
            query: mk(),
            candidates: mk(),
            local: mk(),
            global: mk(),
            refine: mk(),
        }
    }
}

/// The engine's live instrumentation: metric handles on a shared
/// [`MetricsRegistry`]. The per-query records live in the engine's query
/// log ([`EngineHandle::trace_ring`](crate::EngineHandle::trace_ring)).
///
/// All metric names are prefixed `hris_engine_` and form a stable contract
/// (see DESIGN.md §5d for the catalog). The registry may be shared with
/// other components — handles are registered get-or-create.
pub struct EngineObs {
    registry: Arc<MetricsRegistry>,
    queries: Counter,
    batches: Counter,
    slow_queries: Counter,
    traces_dropped: Counter,
    repaired: Counter,
    degraded: Counter,
    rejected: Counter,
    points_dropped: Counter,
    phase_candidates: Histogram,
    phase_local: Histogram,
    phase_global: Histogram,
    phase_refine: Histogram,
    query_seconds: Histogram,
    batch_seconds: Histogram,
    queue_depth: Gauge,
    workers_busy: Gauge,
    slo_good: Counter,
    slo_breach: Counter,
    shed: Counter,
    rerank_queries: Counter,
    rerank_routes: Counter,
    rerank_reordered: Counter,
    rerank_seconds: Histogram,
    slow_threshold_s: f64,
    span_sampler: SpanSampler,
    windows: LatencyWindows,
}

impl EngineObs {
    fn new(
        registry: Arc<MetricsRegistry>,
        opts: &ObsOptions,
        sp_lookups: PairedCounter,
        cand_memo: &MemoCounters,
    ) -> Self {
        let phase = |name: &str| {
            registry.histogram_with_labels(
                "hris_engine_phase_seconds",
                "Wall seconds per pipeline phase, per query.",
                &DEFAULT_TIME_BOUNDS,
                &[("phase", name)],
            )
        };
        let _ = registry.register_paired(
            "hris_engine_sp_cache",
            "Shortest-path fallback lookups (hit = answered from the oracle's \
             precomputed state, miss = ran Dijkstra).",
            sp_lookups,
        );
        let _ = registry.register_paired(
            "hris_engine_candidate_memo",
            "Candidate-edge memo lookups.",
            cand_memo.lookups.clone(),
        );
        let _ = registry.register_gauge(
            "hris_engine_candidate_memo_entries",
            "Query positions currently held by the candidate-edge memo.",
            cand_memo.entries.clone(),
        );
        let _ = registry.register_counter(
            "hris_engine_candidate_memo_flushes_total",
            "Wholesale flushes of the candidate-edge memo at its capacity bound.",
            cand_memo.flushes.clone(),
        );
        EngineObs {
            queries: registry.counter("hris_engine_queries_total", "Queries served."),
            batches: registry.counter("hris_engine_batches_total", "Batches served."),
            slow_queries: registry.counter(
                "hris_engine_slow_queries_total",
                "Queries slower than the configured slow-query threshold.",
            ),
            traces_dropped: registry.counter(
                "hris_engine_traces_dropped_total",
                "Per-query records (traces and audits) evicted from the bounded query log.",
            ),
            repaired: registry.counter(
                "hris_engine_repaired_total",
                "Queries whose input needed sanitization before answering.",
            ),
            degraded: registry.counter(
                "hris_engine_degraded_total",
                "Repaired queries that also needed the degradation chain.",
            ),
            rejected: registry.counter(
                "hris_engine_rejected_total",
                "Queries rejected because no usable input remained.",
            ),
            points_dropped: registry.counter(
                "hris_engine_points_dropped_total",
                "Query points discarded by input sanitization.",
            ),
            phase_candidates: phase("candidates"),
            phase_local: phase("local"),
            phase_global: phase("global"),
            phase_refine: phase("refine"),
            query_seconds: registry.histogram(
                "hris_engine_query_seconds",
                "End-to-end wall seconds per query.",
                &DEFAULT_TIME_BOUNDS,
            ),
            batch_seconds: registry.histogram(
                "hris_engine_batch_seconds",
                "Wall seconds per infer_batch_detailed call.",
                &DEFAULT_TIME_BOUNDS,
            ),
            queue_depth: registry.gauge(
                "hris_engine_queue_depth",
                "Queries of the current batch not yet picked up by a worker.",
            ),
            workers_busy: registry.gauge(
                "hris_engine_workers_busy",
                "Workers currently inside a query.",
            ),
            slo_good: registry.counter(
                "hris_engine_slo_good_total",
                "Queries answered within the slow-query SLO threshold.",
            ),
            slo_breach: registry.counter(
                "hris_engine_slo_breach_total",
                "Queries breaching the slow-query SLO threshold (burn counter).",
            ),
            shed: registry.counter(
                "hris_engine_shed_total",
                "Queries shed by admission control (waiting room full).",
            ),
            // Registered whether or not re-ranking is configured, so the
            // exported metric set does not depend on the rerank option.
            rerank_queries: registry.counter(
                "hris_rerank_queries_total",
                "Queries whose top-K output went through the learned re-ranker.",
            ),
            rerank_routes: registry.counter(
                "hris_rerank_routes_total",
                "Candidate global routes scored by the learned re-ranker.",
            ),
            rerank_reordered: registry.counter(
                "hris_rerank_reordered_total",
                "Re-ranked queries whose top-1 route changed from the paper order.",
            ),
            rerank_seconds: registry.histogram(
                "hris_rerank_seconds",
                "Wall seconds spent re-ranking per query (refine phase).",
                &DEFAULT_TIME_BOUNDS,
            ),
            slow_threshold_s: opts.slow_query_threshold_s,
            span_sampler: SpanSampler::new(opts.span_sample_every),
            windows: LatencyWindows::new(),
            registry,
        }
    }

    /// The registry all engine metrics live on.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Convenience for `registry().snapshot()`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The configured slow-query threshold, seconds.
    #[must_use]
    pub fn slow_query_threshold_s(&self) -> f64 {
        self.slow_threshold_s
    }

    /// Rolling-window latency summary as a JSON object: end-to-end rate and
    /// p50/p95/p99 over the last 1 m and 5 m, plus per-phase 1 m p95s.
    /// Quantiles are `null` until the window has at least one sample.
    #[must_use]
    pub fn rolling_latency_json(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "null".to_string(), |x| format!("{x}"))
        }
        let win = |w: f64| {
            let q = &self.windows.query;
            format!(
                "{{\"rate_per_s\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                q.rate(w),
                opt(q.quantile(0.50, w)),
                opt(q.quantile(0.95, w)),
                opt(q.quantile(0.99, w)),
            )
        };
        let phase =
            |h: &SlidingHistogram| format!("{{\"p95_1m\":{}}}", opt(h.quantile(0.95, 60.0)));
        format!(
            "{{\"window_1m\":{},\"window_5m\":{},\"phases\":{{\"candidates\":{},\"local\":{},\"global\":{},\"refine\":{}}}}}",
            win(60.0),
            win(300.0),
            phase(&self.windows.candidates),
            phase(&self.windows.local),
            phase(&self.windows.global),
            phase(&self.windows.refine),
        )
    }

    /// Whether this query should carry a live span tree. False whenever
    /// sampling is disabled (`span_sample_every == 0`).
    fn sample_spans(&self) -> bool {
        self.span_sampler.sample()
    }

    /// Records one finished query's aggregate metrics and returns whether
    /// it was slow. A sampled query's span capture stamps the phase
    /// histograms with exemplar span ids.
    fn record_query(
        &self,
        run: &LocalRun,
        global_s: f64,
        refine_s: f64,
        total_s: f64,
        capture: Option<&SpanCapture>,
    ) -> bool {
        self.queries.inc();
        match capture {
            Some(cap) => {
                self.phase_candidates
                    .observe_with_exemplar(run.candidates_s, cap.candidates);
                self.phase_local
                    .observe_with_exemplar(run.local_s, cap.local);
                self.phase_global
                    .observe_with_exemplar(global_s, cap.global);
                self.phase_refine
                    .observe_with_exemplar(refine_s, cap.refine);
                self.query_seconds.observe_with_exemplar(total_s, cap.root);
            }
            None => {
                self.phase_candidates.observe(run.candidates_s);
                self.phase_local.observe(run.local_s);
                self.phase_global.observe(global_s);
                self.phase_refine.observe(refine_s);
                self.query_seconds.observe(total_s);
            }
        }
        self.windows.query.observe(total_s);
        self.windows.candidates.observe(run.candidates_s);
        self.windows.local.observe(run.local_s);
        self.windows.global.observe(global_s);
        self.windows.refine.observe(refine_s);
        let slow = total_s > self.slow_threshold_s;
        if slow {
            self.slow_queries.inc();
            self.slo_breach.inc();
        } else {
            self.slo_good.inc();
        }
        slow
    }

    /// Records a non-clean [`QueryOutcome`]. Clean queries are counted by
    /// [`EngineObs::record_query`] on the normal pipeline path; the repair
    /// and reject paths bypass that path, so this bumps `queries` for them.
    fn record_outcome(&self, outcome: &QueryOutcome) {
        match outcome {
            QueryOutcome::Ok => {}
            QueryOutcome::Repaired { repairs } => {
                self.queries.inc();
                self.repaired.inc();
                self.points_dropped.add(repairs.points_dropped() as u64);
            }
            QueryOutcome::Degraded { repairs, .. } => {
                self.queries.inc();
                self.repaired.inc();
                self.degraded.inc();
                self.points_dropped.add(repairs.points_dropped() as u64);
            }
            QueryOutcome::Rejected { .. } => {
                self.queries.inc();
                self.rejected.inc();
            }
        }
    }

    /// Records an admission-control shed. A shed query is a served-badly
    /// query, not an invisible one: it counts as a query, a rejection,
    /// an SLO breach (burn), and a shed. The SLO partition stays exact —
    /// every counted query lands in exactly one of `slo_good_total` /
    /// `slo_breach_total`.
    pub(crate) fn record_shed(&self) {
        self.queries.inc();
        self.rejected.inc();
        self.slo_breach.inc();
        self.shed.inc();
    }
}

/// The immutable data one query is answered against: road network,
/// archive and parameters. `Copy`, so pair workers capture it by value.
///
/// The [`EngineHandle`](crate::handle::EngineHandle) builds one per query
/// from whichever [`ArchiveSnapshot`](hris_traj::ArchiveSnapshot) epoch it
/// is on.
#[derive(Clone, Copy)]
pub(crate) struct EngineCtx<'e> {
    pub(crate) net: &'e RoadNetwork,
    pub(crate) archive: &'e TrajectoryArchive,
    pub(crate) params: &'e HrisParams,
}

/// The cache, configuration and instrumentation state of the
/// [`EngineHandle`](crate::handle::EngineHandle).
///
/// Every inference method takes an [`EngineCtx`] naming the data to serve
/// against instead of borrowing it at construction, which is what lets the
/// handle re-point at a new archive epoch without rebuilding its caches'
/// hit/miss history.
pub(crate) struct EngineCore {
    cfg: EngineConfig,
    cand_memo: RwLock<CandMemo>,
    cand_counters: MemoCounters,
    /// Shortest-path fallbacks: hit = answered from the oracle's
    /// precomputed state, miss = ran Dijkstra.
    sp_lookups: PairedCounter,
    obs: Option<EngineObs>,
    /// The query log ([`EngineConfig::query_log`]), present iff tracing or
    /// explain is on — the `Option` is the zero-overhead gate for the
    /// disabled path.
    traces: Option<TraceRing>,
}

impl EngineCore {
    pub(crate) fn build(cfg: EngineConfig, registry: Option<Arc<MetricsRegistry>>) -> Self {
        let cand_counters = MemoCounters::default();
        let sp_lookups = PairedCounter::new();
        let obs = registry.map(|r| EngineObs::new(r, &cfg.obs, sp_lookups.clone(), &cand_counters));
        let traces = cfg.query_log();
        EngineCore {
            cfg,
            cand_memo: RwLock::new(HashMap::new()),
            cand_counters,
            sp_lookups,
            obs,
            traces,
        }
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The re-ranking model to apply, if any. Enabled options without a
    /// model (only constructible by hand — the builder validates) behave
    /// as disabled rather than guessing.
    fn rerank_model(&self) -> Option<&RerankModel> {
        if self.cfg.rerank.enabled {
            self.cfg.rerank.model.as_ref()
        } else {
            None
        }
    }

    /// Phase 3 through the configured scorer: the paper's K-GRI DP, plus
    /// the learned re-rank of its top-K output when
    /// [`EngineConfig::rerank`] is enabled. With re-ranking off this is
    /// byte-identical to the reference [`Hris`](crate::Hris) pipeline.
    fn score_globals(
        &self,
        ctx: EngineCtx<'_>,
        locals: &[LocalInferenceResult],
        k: usize,
    ) -> Vec<GlobalRoute> {
        let paper = PaperScorer::from_params(ctx.params);
        let sctx = ScoringCtx::new(ctx.net, locals, k);
        match self.rerank_model() {
            None => paper.top_k(&sctx),
            Some(model) => LearnedScorer::new(paper, model).top_k(&sctx),
        }
    }

    /// Registers the network-level memos on the engine's registry: the
    /// shortest-path oracle as `hris_sp_oracle_{hits,misses}_total` (probes
    /// answered from precomputed state vs. probes that ran Dijkstra) plus
    /// its one-off preprocessing cost as
    /// `hris_sp_oracle_preprocessing_micros`, and the λ-neighborhood memo as
    /// `hris_lambda_memo_{hits,misses}_total`, `hris_lambda_memo_entries`
    /// and `hris_lambda_memo_flushes_total`. No-op when observability is
    /// off — the oracle then stays lazily built.
    pub(crate) fn register_oracle_metrics(&self, net: &RoadNetwork) {
        let Some(obs) = &self.obs else { return };
        let registry = obs.registry();
        let oracle = net.sp_oracle();
        let _ = registry.register_paired(
            "hris_sp_oracle",
            "Shortest-path oracle probes (hit = answered from precomputed state).",
            oracle.lookup_counters(),
        );
        registry
            .gauge(
                "hris_sp_oracle_preprocessing_micros",
                "One-off CSR/SCC/reachability preprocessing cost of the shortest-path oracle.",
            )
            .set((oracle.preprocessing_seconds() * 1e6) as i64);
        let lambda = net.lambda_memo_counters();
        let _ = registry.register_paired(
            "hris_lambda_memo",
            "Lambda-neighborhood memo lookups (hit = answered from the memo).",
            lambda.lookups.clone(),
        );
        let _ = registry.register_gauge(
            "hris_lambda_memo_entries",
            "Lambda-neighborhoods currently held by the network's memo.",
            lambda.entries.clone(),
        );
        let _ = registry.register_counter(
            "hris_lambda_memo_flushes_total",
            "Wholesale flushes of the lambda-neighborhood memo at its capacity bound.",
            lambda.flushes.clone(),
        );
    }

    /// Publishes the size of `archive`'s projection column as the gauges
    /// `hris_archive_projection_{points,rows,bytes}`. No-op when
    /// observability is off.
    pub(crate) fn record_projection(&self, archive: &TrajectoryArchive) {
        let Some(obs) = &self.obs else { return };
        let stats = archive.projection_stats();
        let registry = obs.registry();
        for (name, help, value) in [
            (
                "hris_archive_projection_points",
                "Archive points with candidate-segment rows in the served snapshot.",
                stats.points,
            ),
            (
                "hris_archive_projection_rows",
                "Archive trips with candidate-segment rows in the served snapshot.",
                stats.rows,
            ),
            (
                "hris_archive_projection_bytes",
                "Heap bytes of the served snapshot's projection column.",
                stats.bytes,
            ),
        ] {
            registry.gauge(name, help).set(value as i64);
        }
    }

    pub(crate) fn observability(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// The query log, when tracing or explain is on.
    pub(crate) fn trace_ring(&self) -> Option<&TraceRing> {
        self.traces.as_ref()
    }

    /// Mints a process-unique trace id when the query log is kept; 0 (the
    /// "untraced" id) otherwise, so the fully disabled path performs not
    /// even the atomic increment.
    pub(crate) fn mint_trace_id(&self) -> u64 {
        if self.traces.is_some() {
            hris_obs::next_trace_id()
        } else {
            0
        }
    }

    /// Files one query's record in the query log (a no-op without one).
    /// The record takes the log's next query id; with explain on, `audit`
    /// is built, stamped with the same id and rendered into the record.
    /// An eviction counts on `hris_engine_traces_dropped_total`.
    fn log_query(&self, mut rec: TraceRecord, audit: impl FnOnce() -> QueryAudit) {
        let Some(log) = &self.traces else { return };
        rec.query_id = log.next_query_id();
        if self.cfg.explain.enabled {
            let mut audit = audit();
            audit.query_id = rec.query_id;
            rec.audit = Some(audit.to_json());
        }
        if log.push(rec) {
            if let Some(obs) = &self.obs {
                obs.traces_dropped.inc();
            }
        }
    }

    /// The audit of an answered query: candidate counts per point (a
    /// re-probe of the per-position memo, so filling an audit does not
    /// perturb the inference it explains), local routes per pair, and the
    /// top returned routes explained.
    fn answered_audit(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        trace_id: u64,
        locals: &[LocalInferenceResult],
        k: usize,
        globals: &[GlobalRoute],
    ) -> QueryAudit {
        let rerank = self.rerank_model();
        let mut audit = QueryAudit {
            trace_id,
            points: query.len(),
            pairs: query.len().saturating_sub(1),
            outcome: "served".to_string(),
            candidates_per_point: query
                .points
                .iter()
                .map(|p| self.candidates(ctx, p.pos, None).len())
                .collect(),
            local_routes_per_pair: locals.iter().map(|l| l.routes.len()).collect(),
            scorer: if rerank.is_some() { "learned" } else { "paper" }.to_string(),
            ..QueryAudit::default()
        };
        audit.explain_routes(
            &ScoringCtx::new(ctx.net, locals, k),
            globals,
            self.cfg.explain.top_k_routes,
            ctx.params,
            rerank,
        );
        audit
    }

    /// Records an admission-control shed: counted on the registry, filed
    /// in the query log with a routes-free audit.
    pub(crate) fn record_shed(&self, points: usize, trace_id: u64) {
        if let Some(obs) = &self.obs {
            obs.record_shed();
        }
        self.log_query(untimed_record(trace_id, points, &[]), || {
            QueryAudit::event_only(
                trace_id,
                points,
                "shed",
                "admission: waiting room full, query shed".to_string(),
            )
        });
    }

    pub(crate) fn cache_stats(&self) -> EngineCacheStats {
        let (sp_hits, sp_misses) = self.sp_lookups.get();
        let (candidate_hits, candidate_misses) = self.cand_counters.lookups.get();
        EngineCacheStats {
            sp_hits,
            sp_misses,
            candidate_hits,
            candidate_misses,
        }
    }

    /// Drops every entry of the candidate memo, keeping its cumulative
    /// hit/miss counters. The owned handle calls this when it adopts a new
    /// archive epoch.
    ///
    /// Strictly speaking the memo is epoch-proof by construction — it keys
    /// on exact query coordinates against the immutable road network, so it
    /// never holds archive-derived data. Invalidating anyway keeps the
    /// contract simple ("a new epoch starts with cold caches") and
    /// future-proofs the day a cache does become archive-dependent.
    pub(crate) fn invalidate_caches(&self) {
        self.memo_write().clear();
        self.cand_counters.entries.set(0);
    }

    /// The candidate memo for writing. Every update leaves the map holding
    /// only exact candidate lists (an insert or a clear either happened or
    /// did not), so a panic elsewhere while the lock was held cannot leave
    /// it invalid: a poisoned lock is recovered instead of failing every
    /// later query.
    fn memo_write(&self) -> RwLockWriteGuard<'_, CandMemo> {
        self.cand_memo
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`EngineHandle::infer_batch_detailed`](crate::EngineHandle::infer_batch_detailed)
    /// with the data named explicitly: with more than one query, queries fan
    /// out across the pool and each runs its pairs in sequence.
    pub(crate) fn infer_batch_detailed(
        &self,
        ctx: EngineCtx<'_>,
        queries: &[Trajectory],
        k: usize,
    ) -> Vec<QueryResult> {
        let batch_timer = self.obs.as_ref().map(|obs| {
            obs.batches.inc();
            obs.queue_depth.set(queries.len() as i64);
            clock::now()
        });
        let run_one = |q: &Trajectory, pairs_fan_out: bool| {
            if let Some(obs) = &self.obs {
                obs.queue_depth.dec();
                obs.workers_busy.inc();
            }
            let out = self.infer_query_traced(ctx, q, k, pairs_fan_out, self.mint_trace_id());
            if let Some(obs) = &self.obs {
                obs.workers_busy.dec();
            }
            out
        };
        let result = if queries.len() > 1 {
            // One level of fan-out only: queries go to the pool, each
            // query's pairs run sequentially inside their worker.
            queries.par_iter().map(|q| run_one(q, false)).collect()
        } else {
            queries.iter().map(|q| run_one(q, true)).collect()
        };
        if let (Some(obs), Some(t0)) = (&self.obs, batch_timer) {
            obs.batch_seconds
                .observe(clock::now().duration_since(t0).as_secs_f64());
        }
        result
    }

    /// The validation screen. Clean queries (the overwhelming majority)
    /// take *exactly* the pre-validation code path — byte-identical results,
    /// pinned by `tests/engine_robustness.rs`. Dirty queries are repaired
    /// (sanitized, re-sorted, deduplicated) and answered through the
    /// degradation chain; unusable queries are rejected instead of panicking.
    ///
    /// The query runs under a caller-minted trace id — the delegation seam
    /// of distributed tracing: a sharded router mints one id at its routing
    /// decision and threads it here, so the shard's record joins the
    /// router's stitched tree. `pairs_fan_out` lets the query fan
    /// its pairs out once it has [`PAIR_FANOUT_MIN_PAIRS`] of them; a batch
    /// worker passes `false`.
    pub(crate) fn infer_query_traced(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        k: usize,
        pairs_fan_out: bool,
        trace_id: u64,
    ) -> QueryResult {
        if !self.cfg.validation.enabled {
            let (globals, stats) = self.infer_detailed(ctx, query, k, pairs_fan_out, trace_id);
            return QueryResult {
                globals,
                stats,
                outcome: QueryOutcome::Ok,
            };
        }
        if query.is_empty() {
            // Same observable behaviour as the unvalidated engine (empty
            // output), but reported as a rejection so callers can tell an
            // empty answer from an empty question.
            return self.reject(query, trace_id, RejectReason::EmptyQuery);
        }
        if self.cfg.validation.limits.is_clean(query) {
            let (globals, stats) = self.infer_detailed(ctx, query, k, pairs_fan_out, trace_id);
            return QueryResult {
                globals,
                stats,
                outcome: QueryOutcome::Ok,
            };
        }
        let mut pts = query.points.clone();
        let repairs = sanitize_points(&mut pts, &self.cfg.validation.limits);
        if pts.is_empty() {
            return self.reject(query, trace_id, RejectReason::NoUsablePoints);
        }
        // Sanitization guarantees finite, ordered points, so the validating
        // constructor cannot panic here.
        let repaired = Trajectory::new(query.id, pts);
        let (globals, stats, pairs_fell_back, locals) =
            self.infer_repaired(ctx, &repaired, k, pairs_fan_out);
        let outcome = if pairs_fell_back > 0 {
            QueryOutcome::Degraded {
                repairs,
                pairs_fell_back,
            }
        } else {
            QueryOutcome::Repaired { repairs }
        };
        if let Some(obs) = &self.obs {
            obs.record_outcome(&outcome);
        }
        self.log_query(untimed_record(trace_id, repaired.len(), &globals), || {
            let mut audit = self.answered_audit(ctx, &repaired, trace_id, &locals, k, &globals);
            audit.outcome = outcome.label().to_string();
            audit.push_event(format!(
                "repair: sanitization dropped {} of {} points",
                repairs.points_dropped(),
                query.len()
            ));
            if pairs_fell_back > 0 {
                audit.push_event(format!(
                    "degraded: {pairs_fell_back} pairs fell back along the repair chain"
                ));
            }
            audit
        });
        QueryResult {
            globals,
            stats,
            outcome,
        }
    }

    fn reject(&self, query: &Trajectory, trace_id: u64, reason: RejectReason) -> QueryResult {
        let outcome = QueryOutcome::Rejected { reason };
        if let Some(obs) = &self.obs {
            obs.record_outcome(&outcome);
        }
        self.log_query(untimed_record(trace_id, query.len(), &[]), || {
            QueryAudit::event_only(
                trace_id,
                query.len(),
                "rejected",
                format!("rejected: {reason:?}"),
            )
        });
        QueryResult {
            globals: Vec::new(),
            stats: Vec::new(),
            outcome,
        }
    }

    /// Phases 1–3 for a repaired query. Unlike the clean path this runs each
    /// pair through the whole degradation chain of [`infer_pair`] — primary
    /// algorithm, then (when [`ValidationOptions::algorithm_fallback`] is
    /// set) forced TGI and NNI, then the shortest-path fallback — and reports
    /// how many pairs needed a fallback.
    ///
    /// [`ValidationOptions::algorithm_fallback`]: crate::params::ValidationOptions
    fn infer_repaired(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        k: usize,
        pairs_fan_out: bool,
    ) -> (
        Vec<GlobalRoute>,
        Vec<LocalStats>,
        usize,
        Vec<LocalInferenceResult>,
    ) {
        let EngineCtx { net, params, .. } = ctx;
        // Locals ride back out so the explain layer can attribute route
        // scores without re-running inference.
        let finish = |locals: Vec<LocalInferenceResult>, fell_back: usize| {
            let stats = locals.iter().map(|l| l.stats.clone()).collect();
            let globals = self.score_globals(ctx, &locals, k);
            (globals, stats, fell_back, locals)
        };
        match degenerate_local(net, query) {
            DegenerateQuery::Empty => return finish(Vec::new(), 0),
            DegenerateQuery::Single(result) => return finish(vec![result], 0),
            DegenerateQuery::No => {}
        }
        let cands: Vec<Arc<Vec<CandidateEdge>>> = query
            .points
            .iter()
            .map(|p| self.candidates(ctx, p.pos, None))
            .collect();
        let pair_indices: Vec<usize> = (0..query.len() - 1).collect();
        let work = |i: usize| {
            infer_pair(
                net,
                ctx.archive,
                params,
                query.points[i],
                query.points[i + 1],
                &cands[i],
                &cands[i + 1],
                &|a, b| self.sp_fallback(net, a, b, None),
                self.cfg.validation.algorithm_fallback,
            )
        };
        let results: Vec<(LocalInferenceResult, bool)> =
            if fans_out(pairs_fan_out, pair_indices.len()) {
                pair_indices.par_iter().map(|&i| work(i)).collect()
            } else {
                pair_indices.into_iter().map(work).collect()
            };
        let fell_back = results.iter().filter(|(_, fb)| *fb).count();
        let locals = results.into_iter().map(|(l, _)| l).collect();
        finish(locals, fell_back)
    }

    fn infer_detailed(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        k: usize,
        pairs_fan_out: bool,
        trace_id: u64,
    ) -> (Vec<GlobalRoute>, Vec<LocalStats>) {
        let params = ctx.params;
        let Some(obs) = &self.obs else {
            // Uninstrumented fast path: no clocks, no tallies, no spans.
            let run = self.local_inference_run(ctx, query, pairs_fan_out, None, false, None);
            let stats = run.locals.iter().map(|l| l.stats.clone()).collect();
            let globals = self.score_globals(ctx, &run.locals, k);
            let rec = TraceRecord {
                candidates: run.candidates_total,
                ..untimed_record(trace_id, query.len(), &globals)
            };
            self.log_query(rec, || {
                self.answered_audit(ctx, query, trace_id, &run.locals, k, &globals)
            });
            return (globals, stats);
        };

        // Span trees are sampled: most queries pay only the phase timers
        // below, a sampled query additionally opens RAII guards per phase.
        let collector = obs.sample_spans().then(SpanCollector::new);
        let mut root_guard = collector.as_ref().map(|c| c.root("query"));
        let root_id = root_guard.as_ref().map_or(0, SpanGuard::id);
        if let Some(g) = root_guard.as_mut() {
            g.attr("points", query.len());
            g.attr("pairs", query.len().saturating_sub(1));
        }
        let spanctx = collector.as_ref().map(|c| (c, root_id));

        let t_query = clock::now();
        let tally = self.traces.is_some().then(CacheTally::default);
        let run =
            self.local_inference_run(ctx, query, pairs_fan_out, tally.as_ref(), true, spanctx);

        let mut global_guard = spanctx.map(|(c, root)| c.child(root, "global"));
        let global_span_id = global_guard.as_ref().map_or(0, SpanGuard::id);
        let paper = PaperScorer::from_params(params);
        let sctx = ScoringCtx::new(ctx.net, &run.locals, k);
        let t_global = clock::now();
        let mut globals = paper.top_k(&sctx);
        let global_s = clock::now().duration_since(t_global).as_secs_f64();
        if let Some(g) = global_guard.as_mut() {
            g.attr("routes", globals.len());
        }
        let _ = global_guard.map(SpanGuard::finish);

        let mut refine_guard = spanctx.map(|(c, root)| c.child(root, "refine"));
        let refine_span_id = refine_guard.as_ref().map_or(0, SpanGuard::id);
        let t_refine = clock::now();
        // Learned re-ranking lives in the refine phase: the DP output is
        // the raw material, the model only permutes it.
        if let Some(model) = self.rerank_model() {
            let t_rerank = clock::now();
            let outcome = LearnedScorer::new(paper, model).rerank_in_place(&sctx, &mut globals);
            obs.rerank_seconds
                .observe(clock::now().duration_since(t_rerank).as_secs_f64());
            obs.rerank_queries.inc();
            obs.rerank_routes.add(outcome.rescored as u64);
            if outcome.top1_changed {
                obs.rerank_reordered.inc();
            }
            if let Some(g) = refine_guard.as_mut() {
                g.attr("reranked", outcome.rescored);
            }
        }
        let stats: Vec<LocalStats> = run.locals.iter().map(|l| l.stats.clone()).collect();
        let refine_s = clock::now().duration_since(t_refine).as_secs_f64();
        let _ = refine_guard.map(SpanGuard::finish);

        let total_s = clock::now().duration_since(t_query).as_secs_f64();
        let _ = root_guard.map(SpanGuard::finish);
        let capture = collector.map(|c| SpanCapture {
            root: root_id,
            candidates: run.candidates_span,
            local: run.local_span,
            global: global_span_id,
            refine: refine_span_id,
            spans: c.into_spans(),
        });
        let slow = obs.record_query(&run, global_s, refine_s, total_s, capture.as_ref());
        if let Some(tally) = tally {
            // A slow unsampled query gets a synthetic tree rebuilt from the
            // phase timings already measured (zero extra clock reads), so
            // every slow record carries a complete causal tree.
            let (root_span, spans) = match capture {
                Some(cap) => (cap.root, cap.spans),
                None if slow => synthetic_tree(
                    "query",
                    total_s,
                    &[
                        ("candidates", run.candidates_s),
                        ("local", run.local_s),
                        ("global", global_s),
                        ("refine", refine_s),
                    ],
                ),
                None => (0, Vec::new()),
            };
            let rec = TraceRecord {
                candidates: run.candidates_total,
                candidates_s: run.candidates_s,
                local_s: run.local_s,
                global_s,
                refine_s,
                total_s,
                sp_hits: tally.sp_hits.load(Ordering::Relaxed),
                sp_misses: tally.sp_misses.load(Ordering::Relaxed),
                cand_hits: tally.cand_hits.load(Ordering::Relaxed),
                cand_misses: tally.cand_misses.load(Ordering::Relaxed),
                slow,
                root_span,
                spans,
                ..untimed_record(trace_id, query.len(), &globals)
            };
            self.log_query(rec, || {
                self.answered_audit(ctx, query, trace_id, &run.locals, k, &globals)
            });
        }
        (globals, stats)
    }

    /// Phases 1–2 with optional wall-clock timing (`timed`), optional
    /// per-query cache attribution (`tally`) and optional span capture
    /// (`spans` = collector + root span id). Untimed calls perform zero
    /// clock reads. `pairs_fan_out` as in [`EngineCore::infer_query_traced`].
    pub(crate) fn local_inference_run(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        pairs_fan_out: bool,
        tally: Option<&CacheTally>,
        timed: bool,
        spans: Option<(&SpanCollector, u64)>,
    ) -> LocalRun {
        let net = ctx.net;
        match degenerate_local(net, query) {
            DegenerateQuery::Empty => {
                return LocalRun {
                    locals: Vec::new(),
                    candidates_total: 0,
                    candidates_s: 0.0,
                    local_s: 0.0,
                    candidates_span: 0,
                    local_span: 0,
                }
            }
            DegenerateQuery::Single(result) => {
                return LocalRun {
                    locals: vec![result],
                    candidates_total: 0,
                    candidates_s: 0.0,
                    local_s: 0.0,
                    candidates_span: 0,
                    local_span: 0,
                }
            }
            DegenerateQuery::No => {}
        }
        // Candidates once per point (shared by the two adjoining pairs),
        // through the cross-query memo.
        let mut cand_guard = spans.map(|(c, root)| c.child(root, "candidates"));
        let candidates_span = cand_guard.as_ref().map_or(0, SpanGuard::id);
        let t_cands = timed.then(clock::now);
        let cands: Vec<Arc<Vec<CandidateEdge>>> = query
            .points
            .iter()
            .map(|p| self.candidates(ctx, p.pos, tally))
            .collect();
        let candidates_s = t_cands.map_or(0.0, |t| clock::now().duration_since(t).as_secs_f64());
        let candidates_total = cands.iter().map(|c| c.len()).sum();
        if let Some(g) = cand_guard.as_mut() {
            g.attr("edges", candidates_total);
        }
        let _ = cand_guard.map(SpanGuard::finish);

        let local_guard = spans.map(|(c, root)| c.child(root, "local"));
        let local_span = local_guard.as_ref().map_or(0, SpanGuard::id);
        let pair_indices: Vec<usize> = (0..query.len() - 1).collect();
        let work = |i: usize| {
            // Per-pair child spans capture the local TGI/NNI inference for
            // each consecutive point pair; the guard's drop records it.
            let mut pair_guard = spans.map(|(c, _)| c.child(local_span, "pair"));
            if let Some(g) = pair_guard.as_mut() {
                g.attr("index", i);
            }
            infer_pair(
                net,
                ctx.archive,
                ctx.params,
                query.points[i],
                query.points[i + 1],
                &cands[i],
                &cands[i + 1],
                &|a, b| self.sp_fallback(net, a, b, tally),
                false,
            )
            .0
        };
        let t_local = timed.then(clock::now);
        let locals = if fans_out(pairs_fan_out, pair_indices.len()) {
            pair_indices.par_iter().map(|&i| work(i)).collect()
        } else {
            pair_indices.into_iter().map(work).collect()
        };
        let local_s = t_local.map_or(0.0, |t| clock::now().duration_since(t).as_secs_f64());
        let _ = local_guard.map(SpanGuard::finish);
        LocalRun {
            locals,
            candidates_total,
            candidates_s,
            local_s,
            candidates_span,
            local_span,
        }
    }

    /// Candidate edges of a point, memoised by exact position. At
    /// [`CAND_MEMO_CAP`] entries the memo is flushed wholesale before the
    /// next insert.
    fn candidates(
        &self,
        ctx: EngineCtx<'_>,
        p: hris_geo::Point,
        tally: Option<&CacheTally>,
    ) -> Arc<Vec<CandidateEdge>> {
        let key: CandKey = (p.x.to_bits(), p.y.to_bits());
        let hit = self
            .cand_memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        if let Some(hit) = hit {
            self.cand_counters.lookups.hit();
            if let Some(t) = tally {
                CacheTally::bump(&t.cand_hits);
            }
            return hit;
        }
        self.cand_counters.lookups.miss();
        if let Some(t) = tally {
            CacheTally::bump(&t.cand_misses);
        }
        let fresh = Arc::new(crate::pipeline::query_candidates(ctx.net, ctx.params, p));
        let mut memo = self.memo_write();
        if memo.len() >= CAND_MEMO_CAP {
            memo.clear();
            self.cand_counters.flushes.inc();
        }
        // A racing writer may have inserted the same key meanwhile; both
        // computed the same value, so either entry is correct.
        memo.entry(key).or_insert_with(|| Arc::clone(&fresh));
        self.cand_counters.entries.set(memo.len() as i64);
        fresh
    }

    /// Shortest-path fallback through the network's
    /// [`SpOracle`](hris_roadnet::SpOracle): answered from its precomputed
    /// state (reachability, cached trees) when possible — a hit — otherwise
    /// by running Dijkstra — a miss. Inlined (rather than calling a shared
    /// helper) so a traced query can attribute the hit/miss to itself.
    fn sp_fallback(
        &self,
        net: &RoadNetwork,
        a: SegmentId,
        b: SegmentId,
        tally: Option<&CacheTally>,
    ) -> Option<Route> {
        let oracle = net.sp_oracle();
        if let Some(answer) = oracle.route_between_cached(a, b, CostModel::Distance) {
            self.sp_lookups.hit();
            if let Some(t) = tally {
                CacheTally::bump(&t.sp_hits);
            }
            return answer;
        }
        self.sp_lookups.miss();
        if let Some(t) = tally {
            CacheTally::bump(&t.sp_misses);
        }
        oracle.route_between(a, b, CostModel::Distance)
    }
}

/// The record of one query before timings: identity, sizes and the top
/// route's score. `query_id` is left for the log to assign.
fn untimed_record(trace_id: u64, points: usize, globals: &[GlobalRoute]) -> TraceRecord {
    TraceRecord {
        trace_id,
        points,
        pairs: points.saturating_sub(1),
        routes: globals.len(),
        top_log_score: globals.first().map(|g| g.log_score),
        ..TraceRecord::default()
    }
}

/// Whether a query with `pairs` point pairs fans them out on the pool:
/// only when its caller allows it and it has at least
/// [`PAIR_FANOUT_MIN_PAIRS`] pairs. Scheduling never changes results, so
/// this is a pure throughput decision.
fn fans_out(allowed: bool, pairs: usize) -> bool {
    allowed && pairs >= PAIR_FANOUT_MIN_PAIRS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::EngineHandle;
    use crate::params::HrisParams;
    use crate::pipeline::Hris;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{TrajId, TrajectoryArchive};

    fn sparse_setup() -> (Arc<RoadNetwork>, Vec<Trajectory>) {
        // Empty archive → every pair takes the shortest-path fallback, so
        // the fallback counters see traffic deterministically.
        let net = Arc::new(generator::generate(&NetworkConfig::small(5)));
        let mk = |id: u32, x0: f64| {
            Trajectory::new(
                TrajId(id),
                (0..4)
                    .map(|k| {
                        hris_traj::GpsPoint::new(
                            hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                            k as f64 * 120.0,
                        )
                    })
                    .collect(),
            )
        };
        let queries = vec![mk(0, 0.0), mk(1, 0.0), mk(2, 200.0)];
        (net, queries)
    }

    fn handle(net: &Arc<RoadNetwork>, cfg: EngineConfig) -> EngineHandle {
        EngineHandle::with_config(
            Arc::clone(net),
            TrajectoryArchive::empty(),
            HrisParams::default(),
            cfg,
        )
    }

    #[test]
    fn repeated_queries_hit_the_oracle_and_the_memo() {
        let (net, queries) = sparse_setup();
        let engine = handle(&net, EngineConfig::default());
        for q in &queries {
            let _ = engine.infer_query(q, 2);
        }
        let stats = engine.cache_stats();
        // Every pair fell back to a shortest path, and each fallback counts
        // exactly once on the engine's pair.
        let pairs: u64 = queries.iter().map(|q| q.len() as u64 - 1).sum();
        assert_eq!(stats.sp_hits + stats.sp_misses, pairs, "{stats:?}");
        // Queries 0 and 1 are identical: the second one's fallbacks are
        // answered from the trees the first one made the oracle build.
        assert!(
            stats.sp_misses > 0,
            "first fallbacks run Dijkstra: {stats:?}"
        );
        assert!(stats.sp_hits > 0, "repeats must hit the oracle: {stats:?}");
        assert!(
            stats.candidate_hits > 0,
            "expected memo hits, got {stats:?}"
        );
    }

    #[test]
    fn candidate_memo_stays_bounded_past_its_cap() {
        let (net, queries) = sparse_setup();
        let engine = handle(
            &net,
            EngineConfig::builder().observability(true).build().unwrap(),
        );
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let before: Vec<_> = queries.iter().map(|q| engine.infer_query(q, 2)).collect();
        // Flood the memo with distinct positions, one past the cap.
        let snap = engine.current_snapshot();
        let ctx = EngineCtx {
            net: &net,
            archive: snap.archive(),
            params: engine.params(),
        };
        let core = engine.core();
        for i in 0..=CAND_MEMO_CAP {
            let p = hris_geo::Point::new((i % 256) as f64 * 7.0, (i / 256) as f64 * 7.0 + 0.5);
            let got = core.candidates(ctx, p, None);
            assert_eq!(
                *got,
                crate::pipeline::query_candidates(&net, engine.params(), p)
            );
        }
        let entries = core.cand_memo.read().unwrap().len();
        assert!(entries <= CAND_MEMO_CAP, "memo grew to {entries}");
        let obs_snap = engine.observability().unwrap().snapshot();
        assert_eq!(
            obs_snap.gauge("hris_engine_candidate_memo_entries"),
            Some(entries as i64)
        );
        assert!(
            obs_snap
                .counter("hris_engine_candidate_memo_flushes_total")
                .is_some_and(|n| n >= 1),
            "the flood must flush the memo"
        );
        // Answers after the flush equal the reference pipeline's and the
        // answers served before it.
        for (q, was) in queries.iter().zip(&before) {
            let now = engine.infer_query(q, 2);
            let (want, _) = hris.infer_routes_detailed(q, 2);
            assert_eq!(now.globals.len(), want.len());
            assert_eq!(now.globals.len(), was.globals.len());
            for ((a, b), c) in now.globals.iter().zip(&want).zip(&was.globals) {
                assert_eq!(a.route, b.route);
                assert_eq!(a.route, c.route);
                assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
                assert_eq!(a.local_indices, b.local_indices);
            }
        }
        assert!(core.cand_memo.read().unwrap().len() <= CAND_MEMO_CAP);
    }

    #[test]
    fn candidate_memo_survives_a_poisoned_lock() {
        let (net, queries) = sparse_setup();
        let engine = handle(&net, EngineConfig::default());
        let want = engine.infer_query(&queries[0], 2);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = engine.core().cand_memo.write().expect("not yet poisoned");
            panic!("query panicked while holding the memo lock");
        }));
        assert!(poisoned.is_err());
        assert!(engine.core().cand_memo.is_poisoned());
        for q in &queries {
            let _ = engine.infer_query(q, 2);
        }
        let got = engine.infer_query(&queries[0], 2);
        assert_eq!(got.globals.len(), want.globals.len());
        for (a, b) in got.globals.iter().zip(&want.globals) {
            assert_eq!(a.route, b.route);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
    }

    #[test]
    fn degenerate_queries_match_hris() {
        let (net, _) = sparse_setup();
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let engine = handle(&net, EngineConfig::default());

        let empty = Trajectory::new(TrajId(0), vec![]);
        assert!(engine.infer_query(&empty, 3).globals.is_empty());

        let single = Trajectory::new(
            TrajId(0),
            vec![hris_traj::GpsPoint::new(
                hris_geo::Point::new(80.0, 90.0),
                0.0,
            )],
        );
        let ours = engine.infer_query(&single, 3).globals;
        let theirs = hris.infer_routes(&single, 3);
        assert_eq!(ours.len(), theirs.len());
        assert_eq!(ours[0].route, theirs[0].route);
    }

    #[test]
    fn observability_off_by_default_and_on_when_asked() {
        let (net, queries) = sparse_setup();
        let plain = handle(&net, EngineConfig::default());
        assert!(plain.observability().is_none());
        assert!(plain.trace_ring().is_none(), "the default keeps no log");

        let observed = handle(
            &net,
            EngineConfig::builder().observability(true).build().unwrap(),
        );
        let _ = observed.infer_batch_detailed(&queries, 2);
        let obs = observed.observability().expect("instrumentation on");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("hris_engine_queries_total"),
            Some(queries.len() as u64)
        );
        assert_eq!(snap.counter("hris_engine_batches_total"), Some(1));
        let log = observed.trace_ring().expect("tracing keeps a log");
        assert_eq!(log.snapshot().len(), queries.len());
    }
}
