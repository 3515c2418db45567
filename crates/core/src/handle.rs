//! The serving engine: an owned, lifetime-free handle over epoch-versioned
//! archives.
//!
//! [`Hris`](crate::Hris) borrows its road network for its whole lifetime,
//! which is the right shape for the paper-literal reference pipeline but
//! the wrong one for a service: a borrowed engine cannot be moved into a
//! spawned thread, an async task, or a shard map, and it can never follow a
//! live archive. The [`EngineHandle`] here owns its data —
//! `Arc<RoadNetwork>` plus an archive *source* (a pinned [`ArchiveSnapshot`]
//! or a live [`SnapshotReader`]) — so it is `Send + Sync + 'static` and
//! clone-free to share behind an `Arc`.
//!
//! # Epochs and caches
//!
//! A handle on a live source re-reads the published snapshot at each query
//! (one `RwLock` read + `Arc` clone). When it observes a new epoch it
//! invalidates the engine caches once, then serves the query against the
//! new snapshot. Queries already in flight keep the `Arc` of the snapshot
//! they started with — ingestion never changes an answer mid-query, and a
//! batch is answered entirely against the single epoch it started on.
//!
//! # Archive projection
//!
//! Construction projects every point of the served archive onto the
//! network once (see [`TrajectoryArchive::project`]). Epochs of one writer
//! share their trips' rows, so on a new epoch only the trips appended since
//! the last one are projected; evicted trips take their rows with them.

use crate::engine::{
    EngineCacheStats, EngineCore, EngineCtx, EngineObs, QueryOutcome, QueryResult, RejectReason,
};
use crate::local::LocalInferenceResult;
use crate::params::{EngineConfig, HrisParams};
use hris_obs::{
    Admission, AdmissionGate, Health, MetricsRegistry, MetricsServer, ServeState, SpanCollector,
    TraceRing,
};
use hris_roadnet::RoadNetwork;
use hris_traj::{ArchiveSnapshot, SnapshotReader, TrajectoryArchive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a handle gets its archive from.
enum ArchiveSource {
    /// One pinned epoch; the handle never changes data underneath you.
    Fixed(Arc<ArchiveSnapshot>),
    /// Follow an [`ArchiveWriter`](hris_traj::ArchiveWriter)'s published
    /// epochs.
    Live(SnapshotReader),
}

/// An owned HRIS serving handle: `Send + Sync + 'static`.
///
/// Construction takes `Arc<RoadNetwork>` plus either a plain archive
/// (pinned as a one-off snapshot), an existing [`ArchiveSnapshot`], or a
/// [`SnapshotReader`] to serve live ingestion. All query methods take
/// `&self`; wrap the handle in an `Arc` to share it across threads or
/// tasks.
///
/// # Which entrypoint should I call?
///
/// [`EngineHandle::infer_query`] answers one query,
/// [`EngineHandle::infer_batch_detailed`] a batch. A single query with at
/// least eight point pairs fans its pairs out on the thread pool; a batch
/// fans its queries out and runs each query's pairs in sequence. Either
/// way the answer is byte-identical to the reference [`Hris`](crate::Hris)
/// pipeline's for valid input.
pub struct EngineHandle {
    net: Arc<RoadNetwork>,
    params: HrisParams,
    source: ArchiveSource,
    core: EngineCore,
    /// Epoch of the snapshot the caches were last (in)validated for.
    cached_epoch: AtomicU64,
    /// Archive points this handle has projected onto `net`.
    projected_points: AtomicU64,
    /// Bounded admission gate; `None` when `cfg.admission` is disabled
    /// (the zero-cost default: queries never touch a lock they don't
    /// need).
    gate: Option<AdmissionGate>,
}

impl EngineHandle {
    /// Handle over a fixed archive with the default configuration. The
    /// archive is pinned as epoch 0 of a standalone snapshot.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, archive: TrajectoryArchive, params: HrisParams) -> Self {
        EngineHandle::with_config(net, archive, params, EngineConfig::default())
    }

    /// [`EngineHandle::new`] with an explicit configuration.
    #[must_use]
    pub fn with_config(
        net: Arc<RoadNetwork>,
        archive: TrajectoryArchive,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        Self::from_snapshot(net, Arc::new(ArchiveSnapshot::new(0, archive)), params, cfg)
    }

    /// Handle pinned to one already-published snapshot. Useful to freeze an
    /// epoch for reproducible evaluation while ingestion continues
    /// elsewhere.
    #[must_use]
    pub fn from_snapshot(
        net: Arc<RoadNetwork>,
        snapshot: Arc<ArchiveSnapshot>,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        Self::build(net, params, ArchiveSource::Fixed(snapshot), cfg, None)
    }

    /// Handle following a live [`SnapshotReader`]: each query is served
    /// against the latest published epoch, with caches invalidated on
    /// epoch change.
    #[must_use]
    pub fn live(
        net: Arc<RoadNetwork>,
        reader: SnapshotReader,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        Self::build(net, params, ArchiveSource::Live(reader), cfg, None)
    }

    /// [`EngineHandle::from_snapshot`] instrumented onto a caller-owned
    /// registry (implies `cfg.obs.enabled`). This is the construction shape
    /// of a shard engine behind a router: each shard pins (or follows) its
    /// own archive and owns its own registry, and the router federates the
    /// per-shard registries under a `shard` label (see
    /// [`MetricsSnapshot::with_labels`](hris_obs::MetricsSnapshot)).
    #[must_use]
    pub fn from_snapshot_with_registry(
        net: Arc<RoadNetwork>,
        snapshot: Arc<ArchiveSnapshot>,
        params: HrisParams,
        mut cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        cfg.obs.enabled = true;
        Self::build(
            net,
            params,
            ArchiveSource::Fixed(snapshot),
            cfg,
            Some(registry),
        )
    }

    /// [`EngineHandle::live`] instrumented onto a caller-owned registry
    /// (implies `cfg.obs.enabled`), so engine and ingest metrics can share
    /// one exporter.
    #[must_use]
    pub fn live_with_registry(
        net: Arc<RoadNetwork>,
        reader: SnapshotReader,
        params: HrisParams,
        mut cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        cfg.obs.enabled = true;
        Self::build(
            net,
            params,
            ArchiveSource::Live(reader),
            cfg,
            Some(registry),
        )
    }

    fn build(
        net: Arc<RoadNetwork>,
        params: HrisParams,
        source: ArchiveSource,
        cfg: EngineConfig,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        let registry =
            registry.or_else(|| cfg.obs.enabled.then(|| Arc::new(MetricsRegistry::new())));
        let gate = cfg
            .admission
            .enabled
            .then(|| AdmissionGate::new(cfg.admission.max_inflight, cfg.admission.max_queued));
        let core = EngineCore::build(cfg, registry);
        core.register_oracle_metrics(&net);
        let snapshot = match &source {
            ArchiveSource::Fixed(snap) => Arc::clone(snap),
            ArchiveSource::Live(reader) => reader.latest(),
        };
        let handle = EngineHandle {
            net,
            params,
            source,
            core,
            cached_epoch: AtomicU64::new(snapshot.epoch()),
            projected_points: AtomicU64::new(0),
            gate,
        };
        handle.project(snapshot.archive());
        handle
    }

    /// Projects the trips of `archive` that have no rows yet, and publishes
    /// the column's size when observability is on.
    fn project(&self, archive: &TrajectoryArchive) {
        let projected = archive.project(&self.net, self.params.candidate_eps_m);
        self.projected_points
            .fetch_add(projected as u64, Ordering::Relaxed);
        self.core.record_projection(archive);
    }

    /// Archive points this handle has projected onto its network: every
    /// point of the archive at construction, then only the trips each new
    /// epoch appended. Points whose rows another engine (or an earlier
    /// epoch) already filled do not count.
    #[must_use]
    pub fn projected_points(&self) -> u64 {
        self.projected_points.load(Ordering::Relaxed)
    }

    /// The snapshot the next query would be served against. On a live
    /// source this re-reads the slot and performs the same epoch-change
    /// cache invalidation a query would.
    #[must_use]
    pub fn current_snapshot(&self) -> Arc<ArchiveSnapshot> {
        match &self.source {
            ArchiveSource::Fixed(snap) => Arc::clone(snap),
            ArchiveSource::Live(reader) => {
                let snap = reader.latest();
                let prev = self.cached_epoch.swap(snap.epoch(), Ordering::AcqRel);
                if prev != snap.epoch() {
                    // Two racing queries may both observe the change and
                    // both invalidate; clearing twice is harmless (and the
                    // caches hold no archive-derived data anyway — see
                    // `EngineCore::invalidate_caches`). Projection fills
                    // each trip's cell once, so racing callers never
                    // project a point twice; a query that reaches a trip
                    // before its rows are in projects that trip's points
                    // itself.
                    self.core.invalidate_caches();
                    self.project(snap.archive());
                }
                snap
            }
        }
    }

    /// The epoch the handle last served (or would serve next, after a
    /// [`EngineHandle::current_snapshot`] call).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cached_epoch.load(Ordering::Acquire)
    }

    /// The shared road network.
    #[must_use]
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The active parameters.
    #[must_use]
    pub fn params(&self) -> &HrisParams {
        &self.params
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        self.core.config()
    }

    /// The handle's instrumentation, when enabled.
    #[must_use]
    pub fn observability(&self) -> Option<&EngineObs> {
        self.core.observability()
    }

    /// The engine's query log — one [`TraceRecord`](hris_obs::TraceRecord)
    /// per query, carrying timings when tracing and the rendered
    /// [`QueryAudit`](crate::QueryAudit) when explaining — or `None` when
    /// neither is on ([`EngineConfig::query_log`]). The returned handle
    /// shares storage with the engine's log, so a router can pull a
    /// shard-side audit by trace id.
    #[must_use]
    pub fn trace_ring(&self) -> Option<TraceRing> {
        self.core.trace_ring().cloned()
    }

    /// Current cache counters (cumulative across epochs — invalidation
    /// drops entries, not history).
    #[must_use]
    pub fn cache_stats(&self) -> EngineCacheStats {
        self.core.cache_stats()
    }

    /// The handle's admission gate, when admission control is enabled.
    /// Exposes live queue-depth/shed numbers to harnesses and the varz
    /// endpoint.
    #[must_use]
    pub fn admission_gate(&self) -> Option<&AdmissionGate> {
        self.gate.as_ref()
    }

    /// Builds the empty result an admission shed returns, counting and
    /// logging the shed query on the way out.
    fn shed_result(&self, points: usize, trace_id: u64) -> QueryResult {
        self.core.record_shed(points, trace_id);
        QueryResult {
            globals: Vec::new(),
            stats: Vec::new(),
            outcome: QueryOutcome::Rejected {
                reason: RejectReason::Overloaded,
            },
        }
    }

    /// One query through the validation screen against the current epoch:
    /// answer plus its [`QueryOutcome`].
    ///
    /// With admission control enabled the query first passes the gate:
    /// it may wait in the bounded waiting room, and when that is full
    /// too it is shed immediately with
    /// [`RejectReason::Overloaded`](crate::RejectReason).
    ///
    /// **This is the single-query entrypoint.**
    #[must_use]
    pub fn infer_query(&self, query: &hris_traj::Trajectory, k: usize) -> QueryResult {
        self.infer_query_with_trace(query, k, self.core.mint_trace_id())
    }

    /// [`EngineHandle::infer_query`] under a caller-minted trace id — the
    /// delegation seam of distributed tracing. A sharded router mints one
    /// trace id at its routing decision and threads it here so the shard's
    /// [`TraceRecord`](hris_obs::TraceRecord) and [`QueryAudit`](crate::QueryAudit)
    /// carry the router's identity instead of minting their own; the router
    /// then stitches them into one tree. Passing `trace_id = 0` records the
    /// query as untraced.
    ///
    /// An admission shed still files a record (with a `"shed"` audit) under
    /// the given id.
    #[must_use]
    pub fn infer_query_with_trace(
        &self,
        query: &hris_traj::Trajectory,
        k: usize,
        trace_id: u64,
    ) -> QueryResult {
        let _permit = match self.gate.as_ref().map(AdmissionGate::admit) {
            Some(Admission::Shed) => return self.shed_result(query.len(), trace_id),
            Some(Admission::Admitted(p)) => Some(p),
            None => None,
        };
        let snap = self.current_snapshot();
        self.core
            .infer_query_traced(self.ctx(&snap), query, k, trace_id)
    }

    /// Every query of a batch against **one** epoch: the snapshot is read
    /// once at batch start, so a batch's answers are mutually consistent
    /// even while ingestion publishes mid-batch.
    ///
    /// With admission control enabled the whole batch takes **one**
    /// permit — a batch is admitted or shed as a unit, never half-shed
    /// (a shed returns one `Rejected{Overloaded}` result per query).
    ///
    /// **This is the batch entrypoint.**
    #[must_use]
    pub fn infer_batch_detailed(
        &self,
        queries: &[hris_traj::Trajectory],
        k: usize,
    ) -> Vec<QueryResult> {
        let _permit = match self.gate.as_ref().map(AdmissionGate::admit) {
            Some(Admission::Shed) => {
                return queries
                    .iter()
                    .map(|q| self.shed_result(q.len(), self.core.mint_trace_id()))
                    .collect();
            }
            Some(Admission::Admitted(p)) => Some(p),
            None => None,
        };
        let snap = self.current_snapshot();
        self.core.infer_batch_detailed(self.ctx(&snap), queries, k)
    }

    /// Phases 1–2 of several sub-queries against **one** pinned snapshot,
    /// plus the epoch they were answered against — the entrypoint of a
    /// scatter-gather router. A router whose query revisits a shard (an
    /// A–B–A pair assignment) calls this once per shard, so every sub-query
    /// of one routed query observes the same epoch even while ingestion
    /// publishes concurrently; the epoch is its proof of snapshot isolation.
    ///
    /// Under a router-owned span collector (`spans` = collector + the
    /// router's per-shard span id), each sub-query's `"candidates"` and
    /// `"local"` phase spans (plus per-pair children) are recorded into the
    /// router's collector, so one cross-shard query stitches into a single
    /// tree with one clock origin. `spans = None` is byte-identical to the
    /// traced call.
    #[must_use]
    pub fn local_inference_pinned(
        &self,
        queries: &[hris_traj::Trajectory],
        spans: Option<(&SpanCollector, u64)>,
    ) -> (Vec<Vec<LocalInferenceResult>>, u64) {
        let snap = self.current_snapshot();
        let locals = queries
            .iter()
            .map(|q| {
                self.core
                    .local_inference_run(self.ctx(&snap), q, false, None, false, spans)
                    .locals
            })
            .collect();
        (locals, snap.epoch())
    }

    /// Whether this handle follows a live [`SnapshotReader`] (`true`) or is
    /// pinned to a fixed snapshot (`false`). Staleness watchdogs only make
    /// sense for live sources — a fixed snapshot ages by construction.
    #[must_use]
    pub fn is_live(&self) -> bool {
        matches!(self.source, ArchiveSource::Live(_))
    }

    /// Seconds since the snapshot the next query would serve against was
    /// published. On a live source this tracks publisher health; on a fixed
    /// source it grows monotonically since the pin.
    #[must_use]
    pub fn snapshot_age_seconds(&self) -> f64 {
        self.current_snapshot().age_seconds()
    }

    /// Starts the zero-dependency telemetry server for this handle on
    /// `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// The server exposes `/metrics` (Prometheus text), `/healthz` (flips
    /// unhealthy when [`EngineHandle::snapshot_age_seconds`] exceeds
    /// [`ObsOptions::staleness_bound_s`](crate::ObsOptions)), `/varz`
    /// (JSON metrics + rolling latency windows), and `/debug/traces`,
    /// `/debug/slow` and `/debug/explain/<trace_id>` from the query log
    /// ([`EngineHandle::trace_ring`]). Each `/metrics` scrape refreshes the
    /// `hris_snapshot_age_seconds` watchdog gauge first.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when observability is disabled on this handle;
    /// otherwise whatever binding the listener returns.
    pub fn serve_metrics(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        let Some(obs) = self.core.observability() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "observability is disabled; enable it (EngineConfig::builder().observability(true)) \
                 or construct the handle with live_with_registry before serving telemetry",
            ));
        };
        let registry = Arc::clone(obs.registry());
        let bound = self.config().obs.staleness_bound_s;
        let age_gauge = registry.gauge(
            "hris_snapshot_age_seconds",
            "Seconds since the served archive snapshot was published (staleness watchdog).",
        );
        let on_scrape = Arc::clone(self);
        let on_health = Arc::clone(self);
        let on_varz = Arc::clone(self);
        let mut state = ServeState::new(Arc::clone(&registry))
            .pre_scrape(move || {
                // The gauge is integral; health checks below use the exact
                // float so sub-second staleness bounds stay testable.
                age_gauge.set(on_scrape.snapshot_age_seconds().round() as i64);
            })
            .health_check("snapshot_freshness", move || {
                let age = on_health.snapshot_age_seconds();
                if age <= bound {
                    Health::Ok
                } else {
                    Health::Unhealthy(format!(
                        "snapshot is {age:.1}s old (staleness bound {bound}s)"
                    ))
                }
            })
            .varz_section("engine_latency", move || {
                on_varz
                    .observability()
                    .map_or_else(|| "null".to_string(), EngineObs::rolling_latency_json)
            });
        if let Some(log) = self.trace_ring() {
            state = state.with_traces(log);
        }
        if let Some(gate) = &self.gate {
            let inflight_gauge = registry.gauge(
                "hris_admission_inflight",
                "Queries currently holding an admission execution slot.",
            );
            let queued_gauge = registry.gauge(
                "hris_admission_queued",
                "Queries currently waiting for an admission slot (bounded).",
            );
            let watermark_gauge = registry.gauge(
                "hris_admission_queued_high_watermark",
                "Highest waiting-room occupancy observed since startup.",
            );
            let on_gate_scrape = gate.clone();
            let on_gate_health = gate.clone();
            let on_gate_varz = gate.clone();
            state = state
                .pre_scrape(move || {
                    inflight_gauge.set(on_gate_scrape.inflight() as i64);
                    queued_gauge.set(on_gate_scrape.queued() as i64);
                    watermark_gauge.set(on_gate_scrape.queued_high_watermark() as i64);
                })
                .health_check("admission_pressure", move || {
                    if on_gate_health.saturated() {
                        Health::Unhealthy(format!(
                            "admission waiting room saturated ({} inflight, {} queued)",
                            on_gate_health.inflight(),
                            on_gate_health.queued()
                        ))
                    } else {
                        Health::Ok
                    }
                })
                .varz_section("admission", move || {
                    format!(
                        "{{\"inflight\":{},\"queued\":{},\"max_inflight\":{},\"max_queued\":{},\
                         \"queued_high_watermark\":{},\"shed_total\":{}}}",
                        on_gate_varz.inflight(),
                        on_gate_varz.queued(),
                        on_gate_varz.max_inflight(),
                        on_gate_varz.max_queued(),
                        on_gate_varz.queued_high_watermark(),
                        on_gate_varz.shed_total()
                    )
                });
        }
        state.serve(addr)
    }

    fn ctx<'e>(&'e self, snap: &'e ArchiveSnapshot) -> EngineCtx<'e> {
        EngineCtx {
            net: &self.net,
            archive: snap.archive(),
            params: &self.params,
        }
    }

    #[cfg(test)]
    pub(crate) fn core(&self) -> &EngineCore {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{ArchiveWriter, GpsPoint, TrajId, Trajectory};

    fn net() -> Arc<RoadNetwork> {
        Arc::new(generator::generate(&NetworkConfig::small(5)))
    }

    fn query(x0: f64) -> Trajectory {
        Trajectory::new(
            TrajId(0),
            (0..4)
                .map(|k| {
                    GpsPoint::new(
                        hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                        k as f64 * 120.0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn handle_is_send_sync_static() {
        fn assert_owned<T: Send + Sync + 'static>() {}
        assert_owned::<EngineHandle>();
        assert_owned::<Arc<EngineHandle>>();
    }

    fn assert_identical(kind: &str, got: &[crate::GlobalRoute], want: &[crate::GlobalRoute]) {
        assert_eq!(got.len(), want.len(), "{kind}: route count");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.route, b.route, "{kind}: route {i}");
            assert_eq!(
                a.log_score.to_bits(),
                b.log_score.to_bits(),
                "{kind}: score bits {i}"
            );
            assert_eq!(a.local_indices, b.local_indices, "{kind}: indices {i}");
        }
    }

    #[test]
    fn handle_matches_hris() {
        let net = net();
        let hris = crate::Hris::new(
            &net,
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        );
        let handle = EngineHandle::new(
            Arc::clone(&net),
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        );
        let q = query(0.0);
        let (want, stats) = hris.infer_routes_detailed(&q, 2);
        let owned = handle.infer_query(&q, 2);
        assert_identical("handle", &owned.globals, &want);
        assert_eq!(owned.stats.len(), stats.len());
        assert_eq!(owned.outcome, QueryOutcome::Ok);
    }

    /// Every query with two or more pairs fans them out: a 2-pair and a
    /// 5-pair query through `infer_query`, the same queries inside a batch
    /// (where their pair fan-out runs inline) and the reference pipeline
    /// agree to the bit, and so does the router's sequential entry point.
    #[test]
    fn fanned_out_query_matches_batch_and_hris() {
        use hris_traj::{resample_to_interval, SimConfig, Simulator};
        let net = Arc::new(generator::generate(&NetworkConfig::small(8)));
        let mut sim = Simulator::new(
            &net,
            SimConfig {
                num_trips: 250,
                num_od_patterns: 10,
                min_trip_dist_m: 800.0,
                seed: 13,
                ..SimConfig::default()
            },
        );
        let (archive, routes) = sim.generate_archive();
        let longest = routes
            .iter()
            .max_by(|a, b| a.length(&net).total_cmp(&b.length(&net)))
            .unwrap();
        let pts = hris_traj::simulator::drive_route(&net, longest, 0.0, 20.0, 0.8).unwrap();
        let span = pts[pts.len() - 1].t - pts[0].t;
        let drive = Trajectory::new(TrajId(0), pts);
        let queries: Vec<Trajectory> = [2usize, 5]
            .iter()
            .map(|&pairs| {
                let q = resample_to_interval(&drive, span / pairs as f64);
                let q = Trajectory::new(q.id, q.points[..=pairs].to_vec());
                assert_eq!(q.len() - 1, pairs, "a {pairs}-pair query");
                q
            })
            .collect();
        let hris = crate::Hris::new(&net, archive.clone(), crate::HrisParams::default());
        let handle = EngineHandle::new(Arc::clone(&net), archive, crate::HrisParams::default());
        let k = 3;
        let mut batch_input = vec![query(0.0)];
        batch_input.extend(queries.iter().cloned());
        let batch = handle.infer_batch_detailed(&batch_input, k);
        let (pinned, epoch) = handle.local_inference_pinned(&queries, None);
        assert_eq!(epoch, 0);
        for (i, q) in queries.iter().enumerate() {
            let (want, want_stats) = hris.infer_routes_detailed(q, k);
            assert!(!want.is_empty());
            let single = handle.infer_query(q, k);
            assert_identical("fanned-out query", &single.globals, &want);
            assert_eq!(single.stats.len(), want_stats.len());
            assert_identical("batch member", &batch[i + 1].globals, &want);
            assert_eq!(batch[i + 1].stats.len(), want_stats.len());
            let reference = hris.local_inference(q);
            assert_eq!(pinned[i].len(), reference.len());
            for (a, b) in pinned[i].iter().zip(&reference) {
                assert_eq!(a.routes, b.routes);
            }
        }
    }

    #[test]
    fn handle_can_move_into_a_thread() {
        let handle = Arc::new(EngineHandle::new(
            net(),
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        ));
        let h = Arc::clone(&handle);
        let out = std::thread::spawn(move || h.infer_query(&query(0.0), 1))
            .join()
            .expect("worker thread");
        assert_eq!(
            out.globals.len(),
            handle.infer_query(&query(0.0), 1).globals.len()
        );
    }

    #[test]
    fn live_handle_follows_epochs() {
        let net = net();
        let mut writer = ArchiveWriter::new(TrajectoryArchive::empty());
        let handle = EngineHandle::live(
            Arc::clone(&net),
            writer.reader(),
            crate::HrisParams::default(),
            EngineConfig::default(),
        );
        assert_eq!(handle.epoch(), 0);
        let before = handle.infer_query(&query(0.0), 1).globals;

        writer.append(query(0.0)).unwrap();
        writer.publish();
        let _ = handle.infer_query(&query(0.0), 1);
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.current_snapshot().num_trajectories(), 1);
        assert!(!before.is_empty());
    }

    #[test]
    fn fixed_handle_ignores_later_publishes() {
        let net = net();
        let mut writer = ArchiveWriter::new(TrajectoryArchive::empty());
        let frozen = writer.snapshot();
        let handle = EngineHandle::from_snapshot(
            Arc::clone(&net),
            frozen,
            crate::HrisParams::default(),
            EngineConfig::default(),
        );
        writer.append(query(0.0)).unwrap();
        writer.publish();
        let _ = handle.infer_query(&query(0.0), 1);
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.current_snapshot().num_trajectories(), 0);
    }
}
