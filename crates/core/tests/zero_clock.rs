//! The zero-overhead-when-disabled contract, enforced at the clock.
//!
//! Every timestamp the observability layer takes goes through the counted
//! clock [`hris_obs::clock`]. With observability *and* explain disabled
//! (the default configuration), a query must perform **zero** clock reads —
//! not "cheap" instrumentation, *none*: no timers, no span capture, no
//! trace-id mint, no audit rendering.
//!
//! This file is a dedicated test binary on purpose: the read counter is
//! process-global, so no test here may construct an instrumented engine.

use hris::{EngineConfig, EngineHandle, HrisParams, QueryOutcome};
use hris_geo::Point;
use hris_obs::clock;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use std::sync::Arc;

fn net() -> RoadNetwork {
    generator::generate(&NetworkConfig::small(5))
}

fn archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 60,
            num_od_patterns: 5,
            min_trip_dist_m: 400.0,
            seed: 7,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

fn query(x0: f64, n: usize) -> Trajectory {
    Trajectory::new(
        TrajId(1),
        (0..n)
            .map(|i| {
                GpsPoint::new(
                    Point::new(x0 + i as f64 * 400.0, 150.0 + i as f64 * 60.0),
                    i as f64 * 120.0,
                )
            })
            .collect(),
    )
}

#[test]
fn disabled_engine_reads_the_clock_zero_times() {
    let net = Arc::new(net());
    let archive = archive(&net);
    // The default configuration: observability off, explain off.
    let engine = EngineHandle::with_config(
        Arc::clone(&net),
        archive,
        HrisParams::default(),
        EngineConfig::default(),
    );
    let queries: Vec<Trajectory> = (0..4).map(|i| query(200.0 + i as f64 * 300.0, 4)).collect();

    let before = clock::reads();
    for q in &queries {
        let r = engine.infer_query(q, 2);
        assert!(!matches!(r.outcome, QueryOutcome::Rejected { .. }));
    }
    // A query long enough to fan its pairs out on the pool.
    let _ = engine.infer_query(&query(200.0, 10), 2);
    let _ = engine.infer_batch_detailed(&queries, 2);
    // Degradation paths too: a dirty-but-repairable query and a rejected one.
    let mut dirty = query(500.0, 4);
    dirty.points[2].pos = Point::new(f64::NAN, 0.0);
    let _ = engine.infer_query(&dirty, 2);
    let _ = engine.infer_query(&Trajectory::new(TrajId(2), Vec::new()), 2);
    assert_eq!(
        clock::reads() - before,
        0,
        "a disabled engine must never read the clock"
    );
}

#[test]
fn disabled_live_handle_reads_the_clock_zero_times() {
    let net = Arc::new(net());
    let archive = archive(&net);
    let handle = EngineHandle::with_config(
        Arc::clone(&net),
        archive,
        HrisParams::default(),
        EngineConfig::default(),
    );
    let queries: Vec<Trajectory> = (0..3).map(|i| query(300.0 + i as f64 * 250.0, 4)).collect();

    let before = clock::reads();
    for q in &queries {
        let _ = handle.infer_query(q, 2);
    }
    let _ = handle.infer_batch_detailed(&queries, 2);
    assert_eq!(
        clock::reads() - before,
        0,
        "a disabled handle must never read the clock"
    );
}
