//! `RefEdgeIndex::build` gathers reference rows from the archive's
//! projection column when the archive was projected for the same network
//! and radius, and projects points itself otherwise. Both paths must build
//! the index `RefEdgeIndex::from_pairs` builds from the raw candidate
//! edges, for simple and spliced references alike.

use hris::local::RefEdgeIndex;
use hris::reference::{search_references, RefSearchConfig, ReferenceSet};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork, SegmentId};
use hris_traj::{ProjectionKey, SimConfig, Simulator, TrajId, TrajectoryArchive};
use proptest::prelude::*;
use std::sync::OnceLock;

const EPS: f64 = 40.0;

struct World {
    net: RoadNetwork,
    archive: TrajectoryArchive,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let net = generator::generate(&NetworkConfig::small(8));
        let archive = Simulator::new(
            &net,
            SimConfig {
                num_trips: 60,
                num_od_patterns: 5,
                min_trip_dist_m: 400.0,
                seed: 3,
                ..SimConfig::default()
            },
        )
        .generate_archive()
        .0;
        archive.project(&net, EPS);
        World { net, archive }
    })
}

/// The index built straight from every reference point's candidate edges.
fn index_from_candidates(net: &RoadNetwork, refs: &ReferenceSet, eps: f64) -> RefEdgeIndex {
    let mut pairs: Vec<(SegmentId, usize)> = Vec::new();
    for (ri, r) in refs.refs.iter().enumerate() {
        for p in &r.points {
            for c in net.candidate_edges(p.pos, eps) {
                pairs.push((c.segment, ri));
            }
        }
    }
    RefEdgeIndex::from_pairs(pairs)
}

/// The references of a pair from a point of one archive trip to a point of
/// another, with splicing forced on so spliced references (two runs)
/// occur.
fn refs_between(from: (usize, usize), to: (usize, usize), splice: bool) -> ReferenceSet {
    let w = world();
    let point = |(trip, k): (usize, usize)| {
        let t = w.archive.trajectory(TrajId(trip as u32));
        t.points[k % t.len()]
    };
    let (qi, qj) = (point(from), point(to));
    let cfg = RefSearchConfig {
        splice_when_simple_below: if splice { usize::MAX } else { 64 },
        ..RefSearchConfig::new(300.0, if splice { 200.0 } else { 0.0 })
    };
    search_references(&w.archive, qi.pos, qj.pos, 900.0, w.net.max_speed(), &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gathered_rows_match_projection_and_from_pairs(
        from in (0..60usize, 0..40usize),
        to in (0..60usize, 0..40usize),
        splice in 0..2u8,
    ) {
        let w = world();
        let refs = refs_between(from, to, splice == 1);
        let key = ProjectionKey::new(&w.net, EPS);
        for r in &refs.refs {
            // Every reference carries rows covering exactly its points.
            prop_assert!(!r.runs.is_empty());
            prop_assert_eq!(r.runs.iter().map(|run| run.len()).sum::<usize>(), r.points.len());
            prop_assert!(r.runs.iter().all(|run| run.segments(key).is_some()));
        }
        let gathered = RefEdgeIndex::build(&w.net, &refs, EPS);
        let mut bare = refs.clone();
        for r in &mut bare.refs {
            r.runs.clear();
        }
        let projected = RefEdgeIndex::build(&w.net, &bare, EPS);
        prop_assert_eq!(&gathered, &projected);
        prop_assert_eq!(&projected, &index_from_candidates(&w.net, &refs, EPS));
    }

    #[test]
    fn mismatched_radius_or_network_falls_back(
        from in (0..60usize, 0..40usize),
        to in (0..60usize, 0..40usize),
        eps in 5.0..90.0f64,
    ) {
        let w = world();
        let refs = refs_between(from, to, true);
        // Rows were computed for EPS; another radius must not read them.
        prop_assert_eq!(
            RefEdgeIndex::build(&w.net, &refs, eps),
            index_from_candidates(&w.net, &refs, eps)
        );
        // A network rebuilt from the same ground truth is another network.
        let twin = RoadNetwork::from_json(&w.net.to_json()).expect("round trip");
        prop_assert_ne!(
            ProjectionKey::new(&twin, EPS),
            ProjectionKey::new(&w.net, EPS)
        );
        prop_assert_eq!(
            RefEdgeIndex::build(&twin, &refs, EPS),
            index_from_candidates(&twin, &refs, EPS)
        );
    }
}

#[test]
fn unprojected_archive_falls_back() {
    let w = world();
    let fresh = TrajectoryArchive::new(w.archive.trajectories().to_vec());
    let t = fresh.trajectory(TrajId(0));
    let (qi, qj) = (t.points[0], t.points[t.len() - 1]);
    let refs = search_references(
        &fresh,
        qi.pos,
        qj.pos,
        (qj.t - qi.t).max(60.0),
        w.net.max_speed(),
        &RefSearchConfig::new(300.0, 200.0),
    );
    assert!(!refs.is_empty());
    let key = ProjectionKey::new(&w.net, EPS);
    assert!(refs.refs[0]
        .runs
        .iter()
        .all(|run| run.segments(key).is_none()));
    assert_eq!(
        RefEdgeIndex::build(&w.net, &refs, EPS),
        index_from_candidates(&w.net, &refs, EPS)
    );
}
