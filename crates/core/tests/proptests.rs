//! Property-based tests for the HRIS core: reference-search postconditions
//! (Definitions 6–7), popularity-scoring bounds, and K-GRI vs the
//! brute-force oracle on randomly generated local-route universes.

use hris::local::{route_popularity, LocalInferenceResult, LocalStats, RefEdgeIndex};
use hris::reference::{search_references, RefKind, RefSearchConfig, RefTrajectory, ReferenceSet};
use hris::{PaperScorer, PopularityModel, RouteScorer, ScoringCtx};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, Route, SegmentId};
use hris_traj::{GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------- helpers

fn test_net() -> hris_roadnet::RoadNetwork {
    generator::generate(&NetworkConfig {
        blocks_x: 4,
        blocks_y: 4,
        removal_frac: 0.0,
        oneway_frac: 0.0,
        jitter_frac: 0.0,
        curve_frac: 0.0,
        ..NetworkConfig::small(3)
    })
}

/// Strategy: a random time-ordered trajectory inside a 4 km box.
fn trajectory(max_pts: usize) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec(
        (0.0..4_000.0f64, 0.0..4_000.0f64, 1.0..120.0f64),
        2..max_pts,
    )
    .prop_map(|steps| {
        let mut t = 0.0;
        let pts = steps
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                GpsPoint::new(Point::new(x, y), t)
            })
            .collect();
        Trajectory::new(TrajId(0), pts)
    })
}

/// Strategy: a universe of local-inference results with synthetic coverage.
/// Produces `pairs` pairs each holding 1..=4 single-segment routes.
fn locals_strategy() -> impl Strategy<Value = Vec<LocalInferenceResult>> {
    let pair = prop::collection::vec(
        (
            0u32..40,                               // segment id
            prop::collection::vec(0usize..6, 0..5), // covering refs
            prop::collection::vec(0u32..10, 1..3),  // source traj ids
        ),
        1..5,
    );
    prop::collection::vec(pair, 1..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|routes| {
                let mut pairs_list: Vec<(SegmentId, usize)> = Vec::new();
                let mut refs: Vec<RefTrajectory> = Vec::new();
                let mut route_list = Vec::new();
                for (seg, cover, sources) in routes {
                    let seg = SegmentId(seg);
                    for &r in &cover {
                        while refs.len() <= r {
                            refs.push(RefTrajectory {
                                kind: RefKind::Simple,
                                sources: sources.iter().map(|&s| TrajId(s)).collect(),
                                points: vec![GpsPoint::new(Point::ORIGIN, 0.0)],
                                runs: Vec::new(),
                            });
                        }
                        pairs_list.push((seg, r));
                    }
                    route_list.push(Route::new(vec![seg]));
                }
                LocalInferenceResult {
                    routes: route_list,
                    edge_index: RefEdgeIndex::from_pairs(pairs_list),
                    refs: ReferenceSet { refs },
                    stats: LocalStats::default(),
                }
            })
            .collect()
    })
}

// ------------------------------------------------------------------ tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every simple reference returned by the search satisfies the letter
    /// of Definition 6: endpoints within φ, direction preserved, and each
    /// point inside the speed-feasible ellipse.
    #[test]
    fn simple_references_satisfy_definition_6(
        trajs in prop::collection::vec(trajectory(12), 1..8),
        qx in 500.0..3_500.0f64,
        qy in 500.0..3_500.0f64,
        dx in -2_000.0..2_000.0f64,
        dy in -2_000.0..2_000.0f64,
        dt in 30.0..900.0f64,
        phi in 50.0..800.0f64,
    ) {
        let archive = TrajectoryArchive::new(trajs);
        let qi = Point::new(qx, qy);
        let qj = Point::new(qx + dx, qy + dy);
        let v_max = 25.0;
        let cfg = RefSearchConfig {
            splice_when_simple_below: 0, // simple only
            ..RefSearchConfig::new(phi, 0.0)
        };
        let refs = search_references(&archive, qi, qj, dt, v_max, &cfg);
        let budget = dt * v_max;
        for r in &refs.refs {
            prop_assert_eq!(r.kind, RefKind::Simple);
            prop_assert!(!r.points.is_empty());
            // Conditions 1–2 (nearest points within φ).
            prop_assert!(r.points[0].pos.dist(qi) <= phi + 1e-9);
            prop_assert!(r.points.last().unwrap().pos.dist(qj) <= phi + 1e-9);
            // Condition 3 (speed feasibility) for every point.
            for p in &r.points {
                prop_assert!(p.pos.dist(qi) + p.pos.dist(qj) <= budget + 1e-9);
            }
            // Time order preserved (direction requirement).
            prop_assert!(r.points.windows(2).all(|w| w[0].t <= w[1].t));
        }
    }

    /// Spliced references also satisfy Definition 6's conditions and are
    /// stitched at a pair within the splicing threshold.
    #[test]
    fn spliced_references_satisfy_definition_7(
        trajs in prop::collection::vec(trajectory(10), 2..8),
        dt in 100.0..900.0f64,
        eps in 50.0..500.0f64,
    ) {
        let archive = TrajectoryArchive::new(trajs);
        let qi = Point::new(800.0, 2_000.0);
        let qj = Point::new(3_200.0, 2_000.0);
        let cfg = RefSearchConfig {
            splice_when_simple_below: usize::MAX,
            ..RefSearchConfig::new(600.0, eps)
        };
        let refs = search_references(&archive, qi, qj, dt, 25.0, &cfg);
        let budget = dt * 25.0;
        for r in refs.refs.iter().filter(|r| r.kind == RefKind::Spliced) {
            prop_assert_eq!(r.sources.len(), 2);
            prop_assert_ne!(r.sources[0], r.sources[1]);
            prop_assert!(r.points.len() >= 2);
            for p in &r.points {
                prop_assert!(p.pos.dist(qi) + p.pos.dist(qj) <= budget + 1e-9);
            }
            // Some consecutive pair must be the splice joint (≤ eps apart);
            // all genuine same-trajectory steps have arbitrary spacing, so
            // we check that at least one admissible joint exists.
            let has_joint = r
                .points
                .windows(2)
                .any(|w| w[0].pos.dist(w[1].pos) <= eps + 1e-9);
            prop_assert!(has_joint);
        }
    }

    /// The per-pair cap really caps, keeping the nearest-endpoint refs.
    #[test]
    fn reference_cap_is_respected(
        trajs in prop::collection::vec(trajectory(10), 1..12),
        cap in 1usize..6,
    ) {
        let archive = TrajectoryArchive::new(trajs);
        let cfg = RefSearchConfig {
            max_refs: cap,
            splice_when_simple_below: usize::MAX,
            ..RefSearchConfig::new(1_500.0, 200.0)
        };
        let refs = search_references(
            &archive,
            Point::new(1_000.0, 1_000.0),
            Point::new(3_000.0, 3_000.0),
            600.0,
            25.0,
            &cfg,
        );
        prop_assert!(refs.len() <= cap);
    }

    /// Popularity is non-negative, zero without coverage, and increases
    /// with added coverage on the same route.
    #[test]
    fn popularity_bounds_and_monotonicity(
        cover_a in prop::collection::vec(0usize..8, 0..6),
        cover_b in prop::collection::vec(0usize..8, 0..6),
    ) {
        let seg = SegmentId(0);
        let route = Route::new(vec![seg]);
        let mk = |cover: &[usize]| RefEdgeIndex::from_pairs(cover.iter().map(|&r| (seg, r)));
        let fa = route_popularity(&route, &mk(&cover_a), 0.05);
        let fb = route_popularity(&route, &mk(&cover_b), 0.05);
        prop_assert!(fa >= 0.0 && fb >= 0.0);
        if cover_a.is_empty() {
            prop_assert_eq!(fa, 0.0);
        }
        let ca: HashSet<usize> = cover_a.iter().copied().collect();
        let cb: HashSet<usize> = cover_b.iter().copied().collect();
        if ca.is_superset(&cb) && !cb.is_empty() {
            prop_assert!(fa >= fb - 1e-12);
        }
    }

    /// K-GRI agrees with the brute-force oracle on random universes, for
    /// every K.
    #[test]
    fn kgri_equals_brute_force(locals in locals_strategy(), k in 1usize..6) {
        let net = test_net();
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);
        let sctx = ScoringCtx::new(&net, &locals, k);
        let dp = scorer.top_k(&sctx);
        let bf = scorer.top_k_brute_force(&sctx);
        prop_assert_eq!(dp.len(), bf.len());
        for (d, b) in dp.iter().zip(bf.iter()) {
            prop_assert!((d.log_score - b.log_score).abs() < 1e-9,
                "dp {} vs bf {}", d.log_score, b.log_score);
        }
        // Non-increasing scores.
        for w in dp.windows(2) {
            prop_assert!(w[0].log_score >= w[1].log_score - 1e-12);
        }
        // Output size bound: min(k, total combinations).
        let combos: usize = locals.iter().map(|l| l.routes.len()).product();
        prop_assert_eq!(dp.len(), k.min(combos));
    }

    /// Every K-GRI result indexes a real local route in every pair.
    #[test]
    fn kgri_indices_are_valid(locals in locals_strategy(), k in 1usize..4) {
        let net = test_net();
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);
        for g in scorer.top_k(&ScoringCtx::new(&net, &locals, k)) {
            prop_assert_eq!(g.local_indices.len(), locals.len());
            for (i, &j) in g.local_indices.iter().enumerate() {
                prop_assert!(j < locals[i].routes.len());
            }
        }
    }
}
