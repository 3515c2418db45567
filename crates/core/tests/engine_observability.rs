//! Integration tests of the engine's observability layer: metric/trace
//! accounting must be exact where the workload is deterministic (counts,
//! cache tallies) and internally consistent where it is not (wall times).

use hris::{EngineConfig, EngineHandle, Hris, HrisParams, ObsOptions};
use hris_obs::MetricsRegistry;
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{resample_to_interval, ArchiveSnapshot, SimConfig, Simulator, TrajId, Trajectory};
use std::sync::Arc;

fn scenario() -> (Hris<'static>, Vec<Trajectory>) {
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(21))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 200,
            num_od_patterns: 8,
            min_trip_dist_m: 800.0,
            seed: 7,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 3).take(3).enumerate() {
        let pts = hris_traj::simulator::drive_route(net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    (Hris::new(net, archive, HrisParams::default()), queries)
}

/// The serving engine over `hris`'s network (cloned, identity kept),
/// archive and parameters.
fn serving(hris: &Hris<'_>, cfg: EngineConfig) -> EngineHandle {
    EngineHandle::with_config(
        Arc::new(hris.network().clone()),
        hris.archive().clone(),
        hris.params().clone(),
        cfg,
    )
}

#[test]
fn query_and_batch_counters_are_exact() {
    let (hris, queries) = scenario();
    let engine = serving(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let _ = engine.infer_batch_detailed(&queries, 2);
    let _ = engine.infer_batch_detailed(&queries, 2);
    let _ = engine.infer_query(&queries[0], 2);

    let snap = engine.observability().unwrap().snapshot();
    let served = (2 * queries.len() + 1) as u64;
    assert_eq!(snap.counter("hris_engine_queries_total"), Some(served));
    assert_eq!(snap.counter("hris_engine_batches_total"), Some(2));
    // Phase histograms saw every query exactly once each.
    for phase in ["candidates", "local", "global", "refine"] {
        let h = snap
            .histogram("hris_engine_phase_seconds", &[("phase", phase)])
            .unwrap_or_else(|| panic!("phase histogram `{phase}` missing"));
        assert_eq!(h.count, served, "phase `{phase}` count");
    }
    let q = snap.histogram("hris_engine_query_seconds", &[]).unwrap();
    assert_eq!(q.count, served);
    // Gauges are back to idle after the batches drained.
    assert_eq!(snap.gauge("hris_engine_queue_depth"), Some(0));
    assert_eq!(snap.gauge("hris_engine_workers_busy"), Some(0));
}

#[test]
fn sp_oracle_metrics_are_registered_and_live() {
    let (hris, queries) = scenario();
    let engine = serving(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    // Registered at engine construction, before any query runs.
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(snap.counter("hris_sp_oracle_hits_total"), Some(0));
    assert_eq!(snap.counter("hris_sp_oracle_misses_total"), Some(0));
    let micros = snap
        .gauge("hris_sp_oracle_preprocessing_micros")
        .expect("preprocessing gauge registered");
    assert!(micros >= 0);

    // The registered pair is live: oracle traffic moves the exported
    // counters without re-registration.
    let _ = engine.infer_batch_detailed(&queries, 2);
    let oracle = engine.network().sp_oracle();
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(
        snap.counter("hris_sp_oracle_hits_total"),
        Some(oracle.hits())
    );
    assert_eq!(
        snap.counter("hris_sp_oracle_misses_total"),
        Some(oracle.misses())
    );
}

#[test]
fn traces_attribute_cache_traffic_exactly() {
    let (hris, queries) = scenario();
    let engine = serving(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let _ = engine.infer_batch_detailed(&queries, 2);

    let obs = engine.observability().unwrap();
    let traces = engine.trace_ring().expect("tracing is on").snapshot();
    assert_eq!(traces.len(), queries.len());
    for (t, q) in traces.iter().zip(&queries) {
        assert_eq!(t.points, q.len());
        assert_eq!(t.pairs, q.len().saturating_sub(1));
        assert!(t.total_s >= 0.0);
        // Phase times never exceed the query total.
        let phases = t.candidates_s + t.local_s + t.global_s + t.refine_s;
        assert!(
            phases <= t.total_s * 1.001,
            "phases {phases} > total {}",
            t.total_s
        );
        // One candidate lookup per query point.
        assert_eq!(t.cand_hits + t.cand_misses, q.len() as u64);
    }
    // Query ids are the engine's own monotonic sequence.
    let ids: Vec<u64> = traces.iter().map(|t| t.query_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate query ids: {ids:?}");

    // The per-query tallies sum exactly to the global cache counters.
    let stats = engine.cache_stats();
    let sp: u64 = traces.iter().map(|t| t.sp_hits + t.sp_misses).sum();
    let cand: u64 = traces.iter().map(|t| t.cand_hits + t.cand_misses).sum();
    assert_eq!(sp, stats.sp_hits + stats.sp_misses);
    assert_eq!(cand, stats.candidate_hits + stats.candidate_misses);
    // And the registry exports the same pairs.
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("hris_engine_sp_cache_hits_total"),
        Some(stats.sp_hits)
    );
    assert_eq!(
        snap.counter("hris_engine_candidate_memo_misses_total"),
        Some(stats.candidate_misses)
    );
}

#[test]
fn slow_query_threshold_flags_and_counts() {
    let (hris, queries) = scenario();
    // A zero threshold makes every real query "slow".
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            slow_query_threshold_s: 0.0,
            ..ObsOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = serving(&hris, cfg);
    let _ = engine.infer_batch_detailed(&queries, 2);
    let obs = engine.observability().unwrap();
    let traces = engine.trace_ring().expect("tracing is on").snapshot();
    assert!(traces.iter().all(|t| t.slow));
    assert_eq!(
        obs.snapshot().counter("hris_engine_slow_queries_total"),
        Some(queries.len() as u64)
    );
    assert_eq!(obs.slow_query_threshold_s(), 0.0);
}

#[test]
fn trace_ring_evicts_oldest_and_counts_drops() {
    let (hris, queries) = scenario();
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            trace_capacity: 2,
            ..ObsOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = serving(&hris, cfg);
    // 3 queries, one after another, into a 2-slot ring.
    for q in &queries {
        let _ = engine.infer_query(q, 2);
    }
    let obs = engine.observability().unwrap();
    let log = engine.trace_ring().expect("tracing is on");
    let traces = log.snapshot();
    assert_eq!(traces.len(), 2);
    assert_eq!(log.dropped(), 1);
    // Sequential queries → the two *newest* survive.
    assert_eq!(traces[0].query_id, 1);
    assert_eq!(traces[1].query_id, 2);
    assert_eq!(
        obs.snapshot().counter("hris_engine_traces_dropped_total"),
        Some(1)
    );
    // Draining empties the ring but keeps the metrics.
    assert_eq!(log.drain().len(), 2);
    assert!(log.snapshot().is_empty());
    assert_eq!(
        obs.snapshot().counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
}

#[test]
fn zero_trace_capacity_keeps_aggregates_only() {
    let (hris, queries) = scenario();
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            trace_capacity: 0,
            ..ObsOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = serving(&hris, cfg);
    let _ = engine.infer_batch_detailed(&queries, 2);
    let obs = engine.observability().unwrap();
    assert!(engine.trace_ring().is_none(), "no record is kept");
    assert_eq!(
        obs.snapshot().counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
}

#[test]
fn sampled_queries_carry_complete_span_trees() {
    let (hris, queries) = scenario();
    // A vanishing threshold marks every query slow; 1-in-1 sampling gives
    // every trace a *live* (non-synthetic) tree.
    let cfg = EngineConfig::builder()
        .observability(true)
        .span_sampling(1)
        .slow_query_threshold_s(1e-12)
        .build()
        .unwrap();
    let engine = serving(&hris, cfg);
    let _ = engine.infer_batch_detailed(&queries, 2);

    let obs = engine.observability().unwrap();
    let traces = engine.trace_ring().expect("tracing is on").snapshot();
    assert_eq!(traces.len(), queries.len());
    for t in &traces {
        assert!(t.slow);
        assert_ne!(t.root_span, 0, "sampled trace must name its root span");
        let root = t
            .spans
            .iter()
            .find(|s| s.id == t.root_span)
            .expect("root span present in tree");
        assert_eq!(root.name, "query");
        assert_eq!(root.parent, 0);
        // Every span's parent resolves within the same tree.
        let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
        for s in &t.spans {
            assert!(
                s.parent == 0 || ids.contains(&s.parent),
                "span `{}` has dangling parent {}",
                s.name,
                s.parent
            );
        }
        // The four pipeline phases hang off the root and account for at
        // least 90% of the query span's wall time.
        let mut phase_total = 0.0;
        for phase in ["candidates", "local", "global", "refine"] {
            let s = t
                .spans
                .iter()
                .find(|s| s.name == phase && s.parent == t.root_span)
                .unwrap_or_else(|| panic!("phase span `{phase}` missing"));
            phase_total += s.duration_s;
        }
        assert!(
            phase_total >= 0.90 * root.duration_s,
            "phase spans cover {phase_total}s of a {}s query",
            root.duration_s
        );
        // Per-pair children live under the `local` phase.
        let local_id = t
            .spans
            .iter()
            .find(|s| s.name == "local")
            .map(|s| s.id)
            .unwrap();
        let pair_spans = t.spans.iter().filter(|s| s.parent == local_id).count();
        assert_eq!(pair_spans, t.pairs, "one pair span per consecutive pair");
    }

    // Exemplars: the query-latency histogram remembers span ids, and each
    // one resolves to a span actually retained in the trace ring.
    let snap = obs.snapshot();
    let h = snap.histogram("hris_engine_query_seconds", &[]).unwrap();
    let ring_spans: std::collections::HashSet<u64> = traces
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.id))
        .collect();
    let exemplars: Vec<u64> = h.exemplars.iter().flatten().copied().collect();
    assert!(!exemplars.is_empty(), "expected at least one exemplar");
    assert!(
        exemplars.iter().any(|id| ring_spans.contains(id)),
        "no exemplar resolves into the trace ring: {exemplars:?}"
    );
}

#[test]
fn slow_unsampled_queries_get_synthetic_trees() {
    let (hris, queries) = scenario();
    // Sampling off entirely — but every query is slow, so the engine must
    // reconstruct a tree from the phase timings it already measured.
    let cfg = EngineConfig::builder()
        .observability(true)
        .span_sampling(0)
        .slow_query_threshold_s(1e-12)
        .build()
        .unwrap();
    let engine = serving(&hris, cfg);
    let _ = engine.infer_batch_detailed(&queries, 2);

    let obs = engine.observability().unwrap();
    for t in &engine.trace_ring().expect("tracing is on").snapshot() {
        assert!(t.slow);
        assert_ne!(t.root_span, 0);
        assert_eq!(t.spans.len(), 5, "root + four phases");
        assert!(
            t.spans
                .iter()
                .all(|s| s.attrs.iter().any(|(k, _)| k == "synthetic")),
            "synthetic trees must be labelled as such"
        );
        let root = t.spans.iter().find(|s| s.id == t.root_span).unwrap();
        assert_eq!(root.duration_s, t.total_s);
    }
    // Sampling off ⇒ no exemplars anywhere.
    let snap = obs.snapshot();
    let h = snap.histogram("hris_engine_query_seconds", &[]).unwrap();
    assert!(h.exemplars.iter().all(Option::is_none));
}

#[test]
fn slo_burn_counters_partition_the_queries() {
    let (hris, queries) = scenario();
    // An unreachable threshold: every query lands on the good side.
    let engine = serving(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .slow_query_threshold_s(1e9)
            .build()
            .unwrap(),
    );
    let _ = engine.infer_batch_detailed(&queries, 2);
    let snap = engine.observability().unwrap().snapshot();
    let n = queries.len() as u64;
    assert_eq!(snap.counter("hris_engine_slo_good_total"), Some(n));
    assert_eq!(snap.counter("hris_engine_slo_breach_total"), Some(0));

    // And the inverse: a vanishing threshold burns the whole budget.
    let engine = serving(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .slow_query_threshold_s(1e-12)
            .build()
            .unwrap(),
    );
    let _ = engine.infer_batch_detailed(&queries, 2);
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(snap.counter("hris_engine_slo_good_total"), Some(0));
    assert_eq!(snap.counter("hris_engine_slo_breach_total"), Some(n));
}

#[test]
fn rolling_latency_windows_see_the_workload() {
    let (hris, queries) = scenario();
    let engine = serving(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let _ = engine.infer_batch_detailed(&queries, 2);
    let obs = engine.observability().unwrap();
    let json = obs.rolling_latency_json();
    // Just-served queries are inside the 1m window: a positive rate and a
    // real p95 (not null).
    assert!(json.starts_with("{\"window_1m\":{\"rate_per_s\":"));
    assert!(!json.contains("\"p95\":null"), "fresh samples: {json}");
    for phase in ["candidates", "local", "global", "refine"] {
        assert!(json.contains(&format!("\"{phase}\":{{\"p95_1m\":")));
    }
}

#[test]
fn shared_registry_collects_engine_metrics() {
    let (hris, queries) = scenario();
    let registry = Arc::new(MetricsRegistry::new());
    // A caller-owned metric lives alongside the engine's.
    let own = registry.counter("my_harness_runs_total", "Harness runs.");
    own.inc();
    let engine = EngineHandle::from_snapshot_with_registry(
        Arc::new(hris.network().clone()),
        Arc::new(ArchiveSnapshot::new(0, hris.archive().clone())),
        hris.params().clone(),
        EngineConfig::default(),
        registry.clone(),
    );
    assert!(engine.config().obs.enabled, "with_registry implies obs");
    let _ = engine.infer_batch_detailed(&queries, 2);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("my_harness_runs_total"), Some(1));
    assert_eq!(
        snap.counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
    // The exported text carries both families.
    let text = snap.to_prometheus();
    assert!(text.contains("my_harness_runs_total 1"));
    assert!(text.contains("# TYPE hris_engine_phase_seconds histogram"));
}
