//! The engine's core invariant: scheduling and caching never change any
//! inferred route or score. Single queries, batches and instrumented runs
//! of the [`EngineHandle`] must return results byte-identical to the plain
//! sequential [`Hris`] pipeline.

use hris::{EngineConfig, EngineHandle, GlobalRoute, Hris, HrisParams, ScoredRoute};
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId, Trajectory};
use std::sync::Arc;

/// A seeded scenario with enough archive data that queries exercise both the
/// reference-driven path and the shortest-path fallback.
fn scenario() -> (hris_roadnet::RoadNetwork, Hris<'static>, Vec<Trajectory>) {
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
    // Duplicate a query so the batch revisits identical positions and the
    // caches get real hit traffic.
    let dup = queries[0].clone();
    queries.push(dup);
    let hris = Hris::new(net, archive, HrisParams::default());
    (net.clone(), hris, queries)
}

/// The serving engine over the same network (a clone keeps the network's
/// identity, so the archive's projection rows still apply), archive and
/// parameters as `hris`.
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

fn assert_same(kind: &str, a: &[ScoredRoute], b: &[ScoredRoute]) {
    assert_eq!(a.len(), b.len(), "{kind}: route count differs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.route, y.route, "{kind}: route {i} differs");
        assert!(
            x.log_score == y.log_score,
            "{kind}: score {i} differs ({} vs {})",
            x.log_score,
            y.log_score,
        );
    }
}

#[test]
fn single_queries_and_batches_match_sequential_hris() {
    let (_net, hris, queries) = scenario();
    let k = 3;

    let baseline: Vec<Vec<ScoredRoute>> = queries.iter().map(|q| hris.infer_routes(q, k)).collect();

    // One query at a time.
    let single = serving(&hris, EngineConfig::default());
    for (q, want) in queries.iter().zip(&baseline) {
        assert_same(
            "single query",
            &scored(single.infer_query(q, k).globals),
            want,
        );
    }

    // Batch fan-out over a fresh memo.
    let batch = serving(&hris, EngineConfig::default());
    let got = batch.infer_batch_detailed(&queries, k);
    assert_eq!(got.len(), baseline.len());
    for (i, (g, want)) in got.into_iter().zip(&baseline).enumerate() {
        assert_same(&format!("batch query {i}"), &scored(g.globals), want);
    }

    // The duplicated query plus shared positions must have produced real
    // cache traffic — and none of it changed a single byte above.
    let stats = batch.cache_stats();
    assert!(
        stats.candidate_hits > 0,
        "expected candidate memo hits, got {stats:?}"
    );
}

/// S1 — determinism under a saturated memo: a second pass served almost
/// entirely from the candidate memo, with and without instrumentation,
/// must still return routes byte-identical to the sequential [`Hris`]
/// pipeline. Memoisation changes only *when* work is done, never what it
/// computes.
#[test]
fn saturated_memo_does_not_change_results() {
    let (_net, hris, queries) = scenario();
    let k = 3;

    let baseline: Vec<Vec<ScoredRoute>> = queries.iter().map(|q| hris.infer_routes(q, k)).collect();

    let warm = serving(&hris, EngineConfig::default());
    // Two passes: the second runs against a memo already saturated with
    // every position of the workload, so it is served almost entirely from
    // cache — and must still match.
    for pass in 0..2 {
        let got = warm.infer_batch_detailed(&queries, k);
        for (i, (g, want)) in got.into_iter().zip(&baseline).enumerate() {
            assert_same(
                &format!("warm pass {pass} query {i}"),
                &scored(g.globals),
                want,
            );
        }
    }
    let stats = warm.cache_stats();
    assert!(
        stats.candidate_hits > 0,
        "pass 2 must hit the saturated memo, got {stats:?}"
    );

    // Same workload with full instrumentation and tracing on: metrics must
    // not move a byte either.
    let observed = serving(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let got = observed.infer_batch_detailed(&queries, k);
    for (i, (g, want)) in got.into_iter().zip(&baseline).enumerate() {
        assert_same(&format!("observed query {i}"), &scored(g.globals), want);
    }

    // Span capture at 1-in-1 (every query carries a live span tree) is the
    // heaviest instrumentation the engine has; still not a byte of drift.
    let spanned = serving(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .span_sampling(1)
            .build()
            .unwrap(),
    );
    let got = spanned.infer_batch_detailed(&queries, k);
    for (i, (g, want)) in got.into_iter().zip(&baseline).enumerate() {
        assert_same(&format!("spanned query {i}"), &scored(g.globals), want);
    }
    let traces = spanned.trace_ring().expect("tracing is on").snapshot();
    assert!(
        traces.iter().all(|t| !t.spans.is_empty()),
        "1-in-1 sampling must attach a span tree to every trace"
    );
}

#[test]
fn detailed_outputs_match_hris() {
    let (_net, hris, queries) = scenario();
    let k = 2;
    let engine = serving(&hris, EngineConfig::default());
    for q in &queries {
        let (g_hris, s_hris) = hris.infer_routes_detailed(q, k);
        let r = engine.infer_query(q, k);
        assert_eq!(g_hris.len(), r.globals.len());
        for (a, b) in g_hris.iter().zip(&r.globals) {
            assert_eq!(a.route, b.route);
            assert!(a.log_score == b.log_score);
            assert_eq!(a.local_indices, b.local_indices);
        }
        assert_eq!(s_hris.len(), r.stats.len());
    }
}
