//! The explain layer is an observer, not a participant: with tracing and
//! explain enabled, the engine's answers must be **byte-identical** — same
//! routes, same score bits, same outcomes — to the default disabled
//! configuration, and the audit documents must describe exactly what was
//! returned (ranks in order, score components matching the routes,
//! attribution arithmetic matching the configured rerank model). Each
//! query files exactly one record in the engine's one query log, and the
//! record and its audit share one `query_id`.

use hris::{EngineConfig, EngineHandle, HrisParams, QueryOutcome, QueryResult, RerankModel};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use std::sync::Arc;

fn net() -> RoadNetwork {
    generator::generate(&NetworkConfig::small(5))
}

fn serving(net: &Arc<RoadNetwork>, archive: &TrajectoryArchive, cfg: EngineConfig) -> EngineHandle {
    EngineHandle::with_config(Arc::clone(net), archive.clone(), HrisParams::default(), cfg)
}

fn archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 80,
            num_od_patterns: 6,
            min_trip_dist_m: 400.0,
            seed: 11,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

fn queries() -> Vec<Trajectory> {
    (0..5)
        .map(|qi| {
            Trajectory::new(
                TrajId(100 + qi),
                (0..4)
                    .map(|i| {
                        GpsPoint::new(
                            Point::new(
                                250.0 + qi as f64 * 280.0 + i as f64 * 380.0,
                                140.0 + i as f64 * 70.0,
                            ),
                            i as f64 * 120.0,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn assert_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.outcome, b.outcome, "{ctx}: outcome");
    assert_eq!(a.globals.len(), b.globals.len(), "{ctx}: top-K length");
    for (i, (ga, gb)) in a.globals.iter().zip(&b.globals).enumerate() {
        assert_eq!(ga.route, gb.route, "{ctx}: route {i}");
        assert_eq!(
            ga.log_score.to_bits(),
            gb.log_score.to_bits(),
            "{ctx}: score bits {i}"
        );
        assert_eq!(ga.local_indices, gb.local_indices, "{ctx}: assignment {i}");
    }
}

#[test]
fn explain_and_tracing_leave_outputs_byte_identical() {
    let net = Arc::new(net());
    let archive = archive(&net);

    let plain = serving(&net, &archive, EngineConfig::default());
    let explained = serving(
        &net,
        &archive,
        EngineConfig::builder()
            .observability(true)
            .explain(true)
            .trace_capacity(32)
            .build()
            .expect("static engine configuration"),
    );

    for (qi, q) in queries().iter().enumerate() {
        let want = plain.infer_query(q, 3);
        let got = explained.infer_query(q, 3);
        assert_identical(&got, &want, &format!("query {qi}"));
    }
    // Every served query logged once with its audit, under a fresh trace
    // id each.
    let records = explained.trace_ring().expect("explain is on").snapshot();
    assert_eq!(records.len(), queries().len());
    for rec in &records {
        let audit = rec.audit.as_deref().expect("explain renders an audit");
        assert!(audit.starts_with(&format!("{{\"trace_id\":{},", rec.trace_id)));
    }
    let mut ids: Vec<u64> = records.iter().map(|a| a.trace_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), records.len(), "one distinct trace id per record");
}

/// The audit JSON of a record, parsed.
fn audit_of(rec: &hris_obs::TraceRecord) -> serde_json::Value {
    serde_json::from_str(rec.audit.as_deref().expect("explain renders an audit"))
        .expect("valid audit json")
}

#[test]
fn every_outcome_files_one_record_whose_audit_shares_its_query_id() {
    let net = Arc::new(net());
    let archive = archive(&net);
    // Explain without observability: the log still exists, its records
    // carry no timings.
    let engine = serving(
        &net,
        &archive,
        EngineConfig::builder()
            .explain(true)
            .admission(1, 0)
            .build()
            .expect("static engine configuration"),
    );
    assert!(engine.observability().is_none());

    let served = queries()[0].clone();
    let mut dirty = queries()[1].clone();
    dirty.points[1].pos = Point::new(f64::NAN, 0.0);
    let empty = Trajectory::new(TrajId(9), Vec::new());
    assert!(engine.infer_query(&served, 3).outcome.is_ok());
    assert!(matches!(
        engine.infer_query(&dirty, 3).outcome,
        QueryOutcome::Repaired { .. } | QueryOutcome::Degraded { .. }
    ));
    assert!(matches!(
        engine.infer_query(&empty, 3).outcome,
        QueryOutcome::Rejected { .. }
    ));
    let gate = engine.admission_gate().expect("gate configured");
    let permit = match gate.admit() {
        hris_obs::Admission::Admitted(p) => p,
        hris_obs::Admission::Shed => panic!("idle gate must admit"),
    };
    assert!(matches!(
        engine.infer_query(&served, 3).outcome,
        QueryOutcome::Rejected { .. }
    ));
    drop(permit);

    let records = engine.trace_ring().expect("explain keeps a log").snapshot();
    let ids: Vec<u64> = records.iter().map(|r| r.query_id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3], "one sequence, from 0, one id each");
    let outcomes: Vec<String> = records
        .iter()
        .map(|rec| {
            let audit = audit_of(rec);
            assert_eq!(
                audit.get("query_id").and_then(|v| v.as_u64()),
                Some(rec.query_id),
                "the audit's query_id is its record's"
            );
            assert_eq!(
                audit.get("trace_id").and_then(|v| v.as_u64()),
                Some(rec.trace_id)
            );
            assert!(rec.trace_id > 0, "explain mints trace ids");
            assert_eq!(rec.total_s, 0.0, "no observability, no timings");
            audit
                .get("outcome")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(outcomes[0], "served");
    assert!(outcomes[1] == "repaired" || outcomes[1] == "degraded");
    assert_eq!(outcomes[2], "rejected");
    assert_eq!(outcomes[3], "shed");
    assert_eq!(records[0].points, served.len());
    assert_eq!(records[2].points, 0);
}

#[test]
fn evicted_records_count_on_the_dropped_metric() {
    let net = Arc::new(net());
    let archive = archive(&net);
    let engine = serving(
        &net,
        &archive,
        EngineConfig::builder()
            .observability(true)
            .explain(true)
            .trace_capacity(2)
            .build()
            .expect("static engine configuration"),
    );
    let _ = engine.infer_query(&queries()[0], 3);
    let _ = engine.infer_query(&Trajectory::new(TrajId(9), Vec::new()), 3);
    let _ = engine.infer_query(&queries()[1], 3);
    let log = engine.trace_ring().expect("tracing is on");
    assert_eq!(log.dropped(), 1);
    let snap = engine.observability().expect("obs on").snapshot();
    assert_eq!(snap.counter("hris_engine_traces_dropped_total"), Some(1));
    let kept: Vec<u64> = log.snapshot().iter().map(|r| r.query_id).collect();
    assert_eq!(kept, vec![1, 2], "the rejected query's record survives");
}

#[test]
fn audit_documents_describe_the_returned_routes() {
    let net = Arc::new(net());
    let archive = archive(&net);
    let engine = serving(
        &net,
        &archive,
        EngineConfig::builder()
            .explain(true)
            .explain_top_k(2)
            .build()
            .expect("static engine configuration"),
    );

    let q = &queries()[0];
    let result = engine.infer_query(q, 3);
    assert!(!result.globals.is_empty(), "workload query must serve");
    let rec = engine
        .trace_ring()
        .expect("explain is on")
        .snapshot()
        .pop()
        .expect("served query logged");

    let v = audit_of(&rec);
    assert_eq!(v.get("outcome").and_then(|o| o.as_str()), Some("served"));
    assert_eq!(
        v.get("points").and_then(|p| p.as_u64()),
        Some(q.points.len() as u64)
    );
    let routes = v
        .get("routes")
        .and_then(|r| r.as_array())
        .expect("routes array");
    // Capped at explain_top_k = 2, ranks in order, scores matching the
    // returned routes bit-for-bit (JSON roundtrips f64 exactly via the
    // shortest-roundtrip formatter).
    assert_eq!(routes.len(), result.globals.len().min(2));
    for (rank, (route, global)) in routes.iter().zip(&result.globals).enumerate() {
        assert_eq!(
            route.get("rank").and_then(|r| r.as_u64()),
            Some(rank as u64)
        );
        let score = route
            .get("log_score")
            .and_then(|s| s.as_f64())
            .expect("numeric log_score");
        assert_eq!(score.to_bits(), global.log_score.to_bits());
        assert_eq!(
            route.get("segments").and_then(|s| s.as_u64()),
            Some(global.route.len() as u64)
        );
        assert!(route.get("features").is_some());
        // No rerank model configured: explained score and attributions
        // are null.
        assert!(route
            .get("rerank_score")
            .is_some_and(serde_json::Value::is_null));
    }
}

#[test]
fn rerank_attributions_follow_the_configured_model() {
    let net = Arc::new(net());
    let archive = archive(&net);
    // A deterministic hand-built model (no training run needed): nonzero
    // weights so attributions are visible.
    let mut model = RerankModel::zeroed();
    for (i, w) in model.weights.iter_mut().enumerate() {
        *w = 0.1 * (i as f64 + 1.0);
    }
    for s in model.scales.iter_mut() {
        *s = 2.0;
    }

    let engine = serving(
        &net,
        &archive,
        EngineConfig::builder()
            .rerank(model.clone())
            .explain(true)
            .build()
            .expect("static engine configuration"),
    );
    let q = &queries()[1];
    let result = engine.infer_query(q, 3);
    assert!(!result.globals.is_empty());
    let rec = engine
        .trace_ring()
        .expect("explain is on")
        .snapshot()
        .pop()
        .expect("served query logged");
    let v = audit_of(&rec);
    assert_eq!(v.get("scorer").and_then(|s| s.as_str()), Some("learned"));
    let routes = v.get("routes").and_then(|r| r.as_array()).unwrap();
    for route in routes {
        assert!(
            route
                .get("rerank_score")
                .is_some_and(|s| s.as_f64().is_some()),
            "learned scorer explains its score"
        );
        let attrs = route
            .get("attributions")
            .and_then(|a| a.as_obj())
            .expect("attribution object");
        assert_eq!(
            attrs.len(),
            model.weights.len(),
            "one attribution per feature"
        );
    }
}
