//! Differential tests of the archive's projection column: every row must
//! hold exactly the segments `RoadNetwork::candidate_edges` returns for its
//! point, after bulk construction, incremental appends and evictions, and
//! in the shard archives `partition_archive` cuts from a projected parent.

use hris_geo::{BBox, Point};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork, SegmentId};
use hris_traj::{
    partition_archive, GpsPoint, TrajId, Trajectory, TrajectoryArchive, TripProjection,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

/// Candidate radii the engine might run with, down to ones most points
/// miss entirely.
const EPS: [f64; 4] = [3.0, 15.0, 40.0, 120.0];

fn net() -> &'static RoadNetwork {
    static NET: OnceLock<RoadNetwork> = OnceLock::new();
    NET.get_or_init(|| generator::generate(&NetworkConfig::small(21)))
}

/// Trips of random points over the network's bounding box, inflated so
/// some points fall off the map.
fn trips(max_trips: usize) -> impl Strategy<Value = Vec<Trajectory>> {
    prop::collection::vec(
        prop::collection::vec((-0.1..1.1f64, -0.1..1.1f64), 1..10),
        0..max_trips,
    )
    .prop_map(|trips| {
        let bbox = net().bbox();
        trips
            .into_iter()
            .map(|fracs| {
                let points = fracs
                    .into_iter()
                    .enumerate()
                    .map(|(k, (fx, fy))| {
                        let p = Point::new(
                            bbox.min.x + fx * (bbox.max.x - bbox.min.x),
                            bbox.min.y + fy * (bbox.max.y - bbox.min.y),
                        );
                        GpsPoint::new(p, k as f64 * 30.0)
                    })
                    .collect();
                Trajectory::new(TrajId(0), points)
            })
            .collect()
    })
}

fn sorted(mut segs: Vec<SegmentId>) -> Vec<SegmentId> {
    segs.sort_unstable();
    segs
}

/// Every trip of `archive` is projected, and each row is the segment set of
/// `candidate_edges` for its point.
fn assert_rows_match(archive: &TrajectoryArchive, eps: f64) -> Result<(), TestCaseError> {
    for trip in archive.trajectories() {
        let proj = archive.trip_projection(trip.id);
        prop_assert!(proj.is_some(), "trip {:?} has no rows", trip.id);
        let proj = proj.expect("checked above");
        prop_assert_eq!(proj.num_points(), trip.points.len());
        for (k, p) in trip.points.iter().enumerate() {
            let expected: Vec<SegmentId> = net()
                .candidate_edges(p.pos, eps)
                .iter()
                .map(|c| c.segment)
                .collect();
            prop_assert_eq!(sorted(proj.row(k).to_vec()), sorted(expected));
        }
    }
    let stats = archive.projection_stats();
    prop_assert_eq!(stats.rows, archive.num_trajectories());
    prop_assert_eq!(stats.points, archive.num_points());
    Ok(())
}

fn points(trips: &[Trajectory]) -> usize {
    trips.iter().map(Trajectory::len).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rows_match_candidate_edges_through_appends_and_evictions(
        initial in trips(6),
        appended in trips(5),
        evict in 0..12usize,
        eps_idx in 0..EPS.len(),
    ) {
        let eps = EPS[eps_idx];
        let mut archive = TrajectoryArchive::new(initial.clone());
        prop_assert_eq!(archive.project(net(), eps), points(&initial));
        prop_assert_eq!(archive.project(net(), eps), 0);
        assert_rows_match(&archive, eps)?;

        for t in &appended {
            archive.append_trajectory(t.clone());
        }
        archive.evict_front(evict);
        // Only the appended trips that survived eviction are new.
        let evicted_appended = evict.saturating_sub(initial.len()).min(appended.len());
        prop_assert_eq!(
            archive.project(net(), eps),
            points(&appended[evicted_appended..])
        );
        assert_rows_match(&archive, eps)?;
    }

    #[test]
    fn shard_archives_share_the_parents_rows(
        trips in trips(12),
        eps_idx in 0..EPS.len(),
        margin in 0.0..400.0f64,
    ) {
        let eps = EPS[eps_idx];
        let parent = TrajectoryArchive::new(trips);
        parent.project(net(), eps);
        let b = net().bbox();
        let mid = Point::new((b.min.x + b.max.x) / 2.0, (b.min.y + b.max.y) / 2.0);
        let cores = [
            BBox::new(b.min, mid),
            BBox::new(Point::new(mid.x, b.min.y), Point::new(b.max.x, mid.y)),
            BBox::new(Point::new(b.min.x, mid.y), Point::new(mid.x, b.max.y)),
            BBox::new(mid, b.max),
        ];
        let part = partition_archive(&parent, &cores, margin);
        for (shard, ids) in part.shards.iter().zip(&part.id_maps) {
            // Everything was projected through the parent.
            prop_assert_eq!(shard.project(net(), eps), 0);
            for (local, &parent_id) in ids.iter().enumerate() {
                let row = shard.trip_projection(TrajId(local as u32));
                let parent_row = parent.trip_projection(parent_id);
                prop_assert!(row.is_some() && parent_row.is_some());
                prop_assert!(std::ptr::eq(
                    row.expect("checked"),
                    parent_row.expect("checked")
                ));
                let fresh = TripProjection::project(
                    net(),
                    eps,
                    &shard.trajectory(TrajId(local as u32)).points,
                );
                prop_assert_eq!(row.expect("checked"), &fresh);
            }
            assert_rows_match(shard, eps)?;
        }
    }
}

#[test]
fn rows_are_shared_by_clones_and_read_back_unchanged() {
    // 5 m from the start of a segment: inside a 15 m radius.
    let start = net().segments()[0].geometry.start();
    let p = Point::new(start.x + 3.0, start.y + 4.0);
    let archive = TrajectoryArchive::new(vec![Trajectory::new(
        TrajId(0),
        vec![GpsPoint::new(p, 0.0), GpsPoint::new(p, 30.0)],
    )]);
    let clone = archive.clone();
    assert!(clone.trip_projection(TrajId(0)).is_none());
    assert_eq!(archive.project(net(), 15.0), 2);
    // The clone sees the rows filled through the original, and projecting
    // it again does no work.
    assert_eq!(clone.project(net(), 15.0), 0);
    let rows = clone.trip_projection(TrajId(0)).expect("projected");
    let expected: Vec<SegmentId> = net()
        .candidate_edges(p, 15.0)
        .iter()
        .map(|c| c.segment)
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(rows.row(0), expected.as_slice());
    assert_eq!(rows.row(1), expected.as_slice());
    assert!(std::ptr::eq(
        rows,
        archive.trip_projection(TrajId(0)).expect("projected")
    ));
    // A run over both points reads both rows.
    let run = archive.projected_run(TrajId(0), 0..2);
    assert_eq!(run.len(), 2);
    assert_eq!(
        run.segments(rows.key()).map(<[SegmentId]>::len),
        Some(2 * expected.len())
    );
    // The column counts towards the archive's footprint.
    let bare = TrajectoryArchive::new(archive.trajectories().to_vec());
    assert!(archive.memory_footprint() >= bare.memory_footprint() + rows.heap_bytes());
}
