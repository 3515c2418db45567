//! What a live handle projects: the whole archive once at construction,
//! then on each epoch only the trips appended since the last one. Evicted
//! trips take their rows with them, and the answers stay those of a fresh
//! `Hris` over the final epoch.

use hris::{EngineConfig, EngineHandle, Hris, HrisParams, LocalAlgorithm};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{
    resample_to_interval, ArchiveWriter, IngestOptions, SimConfig, Simulator, TrajId, Trajectory,
    TrajectoryArchive,
};
use std::sync::Arc;

const WINDOW: usize = 40;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig::small(5)))
}

fn trips(net: &RoadNetwork) -> Vec<Trajectory> {
    Simulator::new(
        net,
        SimConfig {
            num_trips: 70,
            num_od_patterns: 6,
            min_trip_dist_m: 400.0,
            seed: 17,
            ..SimConfig::default()
        },
    )
    .generate_archive()
    .0
    .trajectories()
    .to_vec()
}

/// Low-rate queries cut from archive trips.
fn queries(archive: &TrajectoryArchive) -> Vec<Trajectory> {
    archive
        .trajectories()
        .iter()
        .step_by(7)
        .map(|t| resample_to_interval(t, 120.0))
        .filter(|q| q.len() >= 2)
        .collect()
}

#[test]
fn epochs_project_only_appended_trips_and_answer_like_hris() {
    let net = net();
    let mut all = trips(&net);
    let appended = all.split_off(WINDOW);
    let initial = TrajectoryArchive::new(all);
    let initial_points = initial.num_points() as u64;
    let mut writer = ArchiveWriter::with_options(
        initial,
        IngestOptions {
            retain_max_trajectories: Some(WINDOW),
            ..IngestOptions::default()
        },
    );
    let params = HrisParams::default();
    let handle = EngineHandle::live(
        Arc::clone(&net),
        writer.reader(),
        params.clone(),
        EngineConfig::default(),
    );
    assert_eq!(handle.projected_points(), initial_points);

    for (round, batch) in appended.chunks(10).enumerate() {
        let before = handle.projected_points();
        let points_before = writer.report().points_appended;
        for trip in batch {
            writer.append(trip.clone()).expect("clean simulated trip");
        }
        let snap = writer.publish();
        let appended_points = (writer.report().points_appended - points_before) as u64;
        assert!(appended_points > 0);
        // The first query of the epoch projects the new trips, and only them.
        let q = queries(snap.archive()).remove(0);
        let _ = handle.infer_query(&q, 3);
        assert_eq!(handle.epoch(), snap.epoch(), "round {round}");
        assert_eq!(
            handle.projected_points() - before,
            appended_points,
            "round {round}: projected the window, not just the new trips"
        );
        // The evicted trips' rows left with them: the served column covers
        // exactly the window.
        let stats = snap.archive().projection_stats();
        assert_eq!(snap.num_trajectories(), WINDOW);
        assert_eq!(stats.rows, WINDOW);
        assert_eq!(stats.points, snap.archive().num_points());
    }

    let last = handle.current_snapshot();
    let hris = Hris::new(&net, last.archive().clone(), params);
    for q in queries(last.archive()) {
        let served = handle.infer_query(&q, 3);
        let (expected, _) = hris.infer_routes_detailed(&q, 3);
        assert_eq!(served.globals.len(), expected.len());
        for (a, b) in served.globals.iter().zip(&expected) {
            assert_eq!(a.route, b.route);
            assert_eq!(a.local_indices, b.local_indices);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
    }
}

#[test]
fn projection_and_lambda_memo_are_exported() {
    let net = net();
    let archive = TrajectoryArchive::new(trips(&net));
    let cfg = EngineConfig::builder()
        .observability(true)
        .build()
        .expect("valid config");
    let params = HrisParams {
        local_algorithm: LocalAlgorithm::Tgi,
        ..HrisParams::default()
    };
    let handle = EngineHandle::from_snapshot(
        Arc::clone(&net),
        Arc::new(hris_traj::ArchiveSnapshot::new(0, archive.clone())),
        params,
        cfg,
    );
    for q in queries(&archive) {
        let _ = handle.infer_query(&q, 3);
    }
    let snap = handle
        .observability()
        .expect("observability on")
        .registry()
        .snapshot();
    let stats = archive.projection_stats();
    assert_eq!(stats.points, archive.num_points());
    assert_eq!(
        snap.gauge("hris_archive_projection_points"),
        Some(stats.points as i64)
    );
    assert_eq!(
        snap.gauge("hris_archive_projection_rows"),
        Some(archive.num_trajectories() as i64)
    );
    assert_eq!(
        snap.gauge("hris_archive_projection_bytes"),
        Some(stats.bytes as i64)
    );
    let lambda = net.lambda_memo_counters();
    let (hits, misses) = lambda.lookups.get();
    assert!(misses > 0, "TGI ran and filled the λ memo");
    assert_eq!(snap.counter("hris_lambda_memo_hits_total"), Some(hits));
    assert_eq!(snap.counter("hris_lambda_memo_misses_total"), Some(misses));
    assert_eq!(
        snap.gauge("hris_lambda_memo_entries"),
        Some(lambda.entries.get())
    );
    assert_eq!(snap.counter("hris_lambda_memo_flushes_total"), Some(0));
    // Rows are shared with the caller's archive, not copied.
    assert!(std::ptr::eq(
        archive.trip_projection(TrajId(0)).expect("projected"),
        handle
            .current_snapshot()
            .archive()
            .trip_projection(TrajId(0))
            .expect("projected")
    ));
}
