//! Dirty-data robustness of the [`EngineHandle`]: the seeded fault corpus
//! must never panic, every query must yield a [`QueryOutcome`], clean
//! inputs must stay byte-identical to the validation-off engine (and the
//! plain [`Hris`] pipeline), and the outcome counters must account exactly.

use hris::{
    EngineConfig, EngineHandle, GlobalRoute, Hris, HrisParams, QueryOutcome, RejectReason,
    ScoredRoute,
};
use hris_geo::Point;
use hris_obs::MetricsRegistry;
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{
    fault_corpus, resample_to_interval, ArchiveSnapshot, FaultKind, GpsPoint, SimConfig, Simulator,
    TrajId, Trajectory,
};
use std::sync::Arc;

/// A seeded scenario with archive data, plus clean on-map queries for the
/// injector to corrupt.
fn scenario() -> (Hris<'static>, Vec<Trajectory>) {
    // Leak the network so `Hris<'static>` can borrow it; fine in a test.
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(8))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 250,
            num_od_patterns: 10,
            min_trip_dist_m: 800.0,
            seed: 13,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 4).take(4).enumerate() {
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

fn scored(globals: Vec<GlobalRoute>) -> Vec<ScoredRoute> {
    globals
        .into_iter()
        .map(|g| ScoredRoute {
            route: g.route,
            log_score: g.log_score,
        })
        .collect()
}

fn outcomes(results: &[hris::QueryResult]) -> Vec<&'static str> {
    results.iter().map(|r| r.outcome.label()).collect()
}

#[test]
fn hundred_case_fault_corpus_never_panics_and_is_deterministic() {
    let (hris, clean) = scenario();
    let engine = serving(&hris, EngineConfig::default());

    // 100 cases cycle all 8 fault kinds — every kind represented.
    let corpus = fault_corpus(42, &clean, 100);
    let kinds: std::collections::HashSet<_> = corpus.iter().map(|(k, _)| *k).collect();
    assert_eq!(kinds.len(), FaultKind::ALL.len());

    let queries: Vec<Trajectory> = corpus.iter().map(|(_, t)| t.clone()).collect();
    let results = engine.infer_batch_detailed(&queries, 3);
    assert_eq!(results.len(), 100, "every query yields a QueryResult");

    // Rejections are exactly the queries with nothing usable; everything
    // else produced a verdict without panicking.
    for ((kind, _), r) in corpus.iter().zip(&results) {
        if *kind == FaultKind::Empty {
            assert_eq!(
                r.outcome,
                QueryOutcome::Rejected {
                    reason: RejectReason::EmptyQuery
                },
                "empty inputs must be rejected"
            );
            assert!(r.globals.is_empty());
        }
        if matches!(r.outcome, QueryOutcome::Rejected { .. }) {
            assert!(r.globals.is_empty() && r.stats.is_empty());
        }
    }

    // Fixed seed → identical outcomes and identical routes on a re-run.
    let corpus2 = fault_corpus(42, &clean, 100);
    let queries2: Vec<Trajectory> = corpus2.into_iter().map(|(_, t)| t).collect();
    let results2 = engine.infer_batch_detailed(&queries2, 3);
    assert_eq!(outcomes(&results), outcomes(&results2));
    for (a, b) in results.iter().zip(&results2) {
        assert_eq!(a.globals.len(), b.globals.len());
        for (x, y) in a.globals.iter().zip(&b.globals) {
            assert_eq!(x.route, y.route);
            assert!(x.log_score == y.log_score);
        }
    }
}

#[test]
fn clean_inputs_are_byte_identical_across_validation_settings() {
    let (hris, clean) = scenario();
    let validated = serving(&hris, EngineConfig::default());
    assert!(validated.config().validation.enabled);
    let unvalidated = serving(&hris, EngineConfig::unvalidated());

    for q in &clean {
        let with: Vec<ScoredRoute> = scored(validated.infer_query(q, 3).globals);
        let without: Vec<ScoredRoute> = scored(unvalidated.infer_query(q, 3).globals);
        let plain: Vec<ScoredRoute> = hris.infer_routes(q, 3);
        assert_eq!(with.len(), without.len());
        assert_eq!(with.len(), plain.len());
        for ((a, b), c) in with.iter().zip(&without).zip(&plain) {
            assert_eq!(a.route, b.route, "validation screen changed a route");
            assert!(
                a.log_score == b.log_score,
                "validation screen moved a score"
            );
            assert_eq!(a.route, c.route, "engine diverged from plain Hris");
            assert!(a.log_score == c.log_score);
        }
        // And the screen classified them as clean.
        assert_eq!(validated.infer_query(q, 3).outcome, QueryOutcome::Ok);
    }
}

#[test]
fn per_fault_outcomes_follow_the_repair_ladder() {
    let (hris, clean) = scenario();
    let engine = serving(&hris, EngineConfig::default());
    let base = &clean[0];

    // NaN coordinates: repaired (the poisoned point is dropped), never Ok.
    let mut pts = base.points.clone();
    pts[1].pos = Point::new(f64::NAN, pts[1].pos.y);
    let nan_query = Trajectory::from_unchecked(TrajId(90), pts);
    let r = engine.infer_query(&nan_query, 3);
    match r.outcome {
        QueryOutcome::Repaired { repairs } | QueryOutcome::Degraded { repairs, .. } => {
            assert_eq!(repairs.dropped_non_finite, 1);
        }
        other => panic!("NaN query must be repaired, got {other:?}"),
    }

    // Out-of-order timestamps: repaired by re-sorting, no point dropped.
    let mut pts = base.points.clone();
    let n = pts.len();
    pts.swap(1, n - 2);
    let scrambled = Trajectory::from_unchecked(TrajId(91), pts);
    let r = engine.infer_query(&scrambled, 3);
    match r.outcome {
        QueryOutcome::Repaired { repairs } | QueryOutcome::Degraded { repairs, .. } => {
            assert!(repairs.sorted);
            assert_eq!(repairs.points_dropped(), 0);
        }
        other => panic!("scrambled query must be repaired, got {other:?}"),
    }
    // Re-sorting restores the clean point set, so the answer matches the
    // clean query's byte for byte.
    let want = engine.infer_query(base, 3);
    assert_eq!(r.globals.len(), want.globals.len());
    for (a, b) in r.globals.iter().zip(&want.globals) {
        assert_eq!(a.route, b.route);
        assert!(a.log_score == b.log_score);
    }

    // All-garbage input: rejected with NoUsablePoints.
    let garbage = Trajectory::from_unchecked(
        TrajId(92),
        vec![
            GpsPoint::new(Point::new(f64::NAN, 0.0), 0.0),
            GpsPoint::new(Point::new(5.0e8, 0.0), 10.0),
        ],
    );
    assert_eq!(
        engine.infer_query(&garbage, 3).outcome,
        QueryOutcome::Rejected {
            reason: RejectReason::NoUsablePoints
        }
    );

    // Empty input: rejected with EmptyQuery.
    assert_eq!(
        engine
            .infer_query(&Trajectory::new(TrajId(93), vec![]), 3)
            .outcome,
        QueryOutcome::Rejected {
            reason: RejectReason::EmptyQuery
        }
    );

    // Duplicate timestamps at different positions are valid data, not
    // corruption — the screen must pass them through untouched.
    let mut pts = base.points.clone();
    let t0 = pts[0].t;
    pts.insert(
        1,
        GpsPoint::new(Point::new(pts[0].pos.x + 5.0, pts[0].pos.y), t0),
    );
    let dup = Trajectory::new(TrajId(94), pts);
    assert_eq!(engine.infer_query(&dup, 3).outcome, QueryOutcome::Ok);
}

#[test]
fn outcome_counters_account_exactly() {
    let (hris, clean) = scenario();
    let registry = Arc::new(MetricsRegistry::new());
    let engine = EngineHandle::from_snapshot_with_registry(
        Arc::new(hris.network().clone()),
        Arc::new(ArchiveSnapshot::new(0, hris.archive().clone())),
        hris.params().clone(),
        EngineConfig::default(),
        Arc::clone(&registry),
    );

    let corpus = fault_corpus(7, &clean, 32);
    let queries: Vec<Trajectory> = corpus.into_iter().map(|(_, t)| t).collect();
    let results = engine.infer_batch_detailed(&queries, 3);

    let count = |label: &str| {
        results
            .iter()
            .filter(|r| r.outcome.label() == label)
            .count() as u64
    };
    let dropped: u64 = results
        .iter()
        .map(|r| match r.outcome {
            QueryOutcome::Repaired { repairs } | QueryOutcome::Degraded { repairs, .. } => {
                repairs.points_dropped() as u64
            }
            _ => 0,
        })
        .sum();

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("hris_engine_queries_total"),
        Some(queries.len() as u64),
        "every query counted exactly once"
    );
    assert_eq!(
        snap.counter("hris_engine_repaired_total"),
        Some(count("repaired") + count("degraded")),
        "degraded queries are repaired queries too"
    );
    assert_eq!(
        snap.counter("hris_engine_degraded_total"),
        Some(count("degraded"))
    );
    assert_eq!(
        snap.counter("hris_engine_rejected_total"),
        Some(count("rejected"))
    );
    assert_eq!(
        snap.counter("hris_engine_points_dropped_total"),
        Some(dropped)
    );
    // 32 cases cycle 8 kinds 4× — the 4 injected empties alone guarantee
    // rejection traffic.
    assert!(count("rejected") >= 4);
}

#[test]
fn outcome_json_round_trips() {
    let (hris, clean) = scenario();
    let engine = serving(&hris, EngineConfig::default());
    let corpus = fault_corpus(3, &clean, 16);
    for (_, q) in &corpus {
        let outcome = engine.infer_query(q, 2).outcome;
        let json = serde_json::to_string(&outcome).unwrap();
        let back: QueryOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome, "round-trip of {json}");
    }
}
