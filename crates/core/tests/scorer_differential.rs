//! Differential guarantees of the `RouteScorer` seam.
//!
//! - [`hris::PaperScorer`]'s K-GRI dynamic program must agree with its
//!   brute-force oracle on real local-inference output, for both popularity
//!   models.
//! - With re-ranking off (the default) the engine must match the plain
//!   [`Hris`] pipeline byte for byte, and an all-zero [`RerankModel`] must
//!   be a byte-identical no-op (stable sort on an all-tie).
//! - An adversarial model must actually reorder — re-ranking is a
//!   permutation of the paper's top-K, never a rescoring.
//! - Feature extraction must be finite, deterministic, and invariant under
//!   power-of-two coordinate scaling where claimed.

use hris::local::{LocalInferenceResult, LocalStats, RefEdgeIndex};
use hris::reference::{RefKind, RefTrajectory, ReferenceSet};
use hris::{
    extract_features, EngineConfig, EngineHandle, GlobalRoute, Hris, HrisParams, LearnedScorer,
    PaperScorer, PopularityModel, RerankModel, RouteScorer, ScoredRoute, ScoringCtx,
};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadClass, RoadNetwork, Route, SegmentId};
use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId, Trajectory};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------- fixtures

/// Seeded simulator scenario: network, pipeline, low-rate queries.
fn scenario() -> (&'static RoadNetwork, Hris<'static>, Vec<Trajectory>) {
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(8))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 250,
            num_od_patterns: 10,
            min_trip_dist_m: 800.0,
            seed: 29,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 5).take(5).enumerate() {
        let pts = hris_traj::simulator::drive_route(net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    let hris = Hris::new(net, archive, HrisParams::default());
    (net, hris, queries)
}

fn assert_scored_bitwise(kind: &str, a: &[ScoredRoute], b: &[ScoredRoute]) {
    assert_eq!(a.len(), b.len(), "{kind}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.route, y.route, "{kind}: route {i}");
        assert_eq!(
            x.log_score.to_bits(),
            y.log_score.to_bits(),
            "{kind}: score bits {i}"
        );
    }
}

// ------------------------------------------------------------------ tests

/// The K-GRI dynamic program agrees with the brute-force enumeration on
/// real local-inference output, for both popularity models: the same
/// number of routes and the same scores, rank by rank.
#[test]
fn paper_scorer_dp_matches_brute_force() {
    let (net, hris, queries) = scenario();
    for q in &queries {
        let locals = hris.local_inference(q);
        let n = locals.len().min(5);
        let slice = &locals[..n];
        for model in [PopularityModel::ScaleFree, PopularityModel::PaperLiteral] {
            for k in [1usize, 3, 8] {
                let scorer = PaperScorer::new(0.05, model);
                let sctx = ScoringCtx::new(net, slice, k);
                let dp = scorer.top_k(&sctx);
                let bf = scorer.top_k_brute_force(&sctx);
                assert_eq!(dp.len(), bf.len(), "k={k} {model:?}: length");
                for (i, (d, b)) in dp.iter().zip(&bf).enumerate() {
                    assert!(
                        (d.log_score - b.log_score).abs() < 1e-9,
                        "k={k} {model:?} rank {i}: {} vs {}",
                        d.log_score,
                        b.log_score
                    );
                }
            }
        }
    }
}

/// Re-ranking off (the default) and an all-zero model are both
/// byte-identical to the plain sequential pipeline — across the engine's
/// fast path and its instrumented path.
#[test]
fn default_off_and_zero_model_are_byte_identical() {
    let (_net, hris, queries) = scenario();
    let k = 4;
    let baseline: Vec<Vec<ScoredRoute>> = queries.iter().map(|q| hris.infer_routes(q, k)).collect();

    let serving = |cfg: EngineConfig| {
        EngineHandle::with_config(
            Arc::new(hris.network().clone()),
            hris.archive().clone(),
            hris.params().clone(),
            cfg,
        )
    };
    let routes = |engine: &EngineHandle, q: &Trajectory| -> Vec<ScoredRoute> {
        engine
            .infer_query(q, k)
            .globals
            .into_iter()
            .map(|g| ScoredRoute {
                route: g.route,
                log_score: g.log_score,
            })
            .collect()
    };
    let default_cfg = serving(EngineConfig::default());
    let zero = serving(
        EngineConfig::builder()
            .rerank(RerankModel::zeroed())
            .build()
            .unwrap(),
    );
    let zero_observed = serving(
        EngineConfig::builder()
            .rerank(RerankModel::zeroed())
            .observability(true)
            .build()
            .unwrap(),
    );
    for (q, want) in queries.iter().zip(&baseline) {
        assert_scored_bitwise("default off", &routes(&default_cfg, q), want);
        assert_scored_bitwise("zero model", &routes(&zero, q), want);
        assert_scored_bitwise("zero model observed", &routes(&zero_observed, q), want);
    }
}

/// An adversarial model (strong negative weight on the paper's own
/// `log_score`) must reorder at least one top-K list — and every re-ranked
/// list must be a permutation of the paper list with `log_score` fields
/// untouched.
#[test]
fn adversarial_model_permutes_without_rescoring() {
    let (net, hris, queries) = scenario();
    let k = 6;
    // Small negative weight on log_score (the last feature): inverts the
    // paper order without saturating the sigmoid into an all-tie.
    let mut weights = vec![0.0; hris::scoring::NUM_FEATURES];
    *weights.last_mut().unwrap() = -0.02;
    let model = RerankModel::from_weights(weights, 0.0);
    let paper = PaperScorer::from_params(&HrisParams::default());

    let mut reordered_any = false;
    for q in &queries {
        let locals = hris.local_inference(q);
        let sctx = ScoringCtx::new(net, &locals, k);
        let want = paper.top_k(&sctx);
        let got = LearnedScorer::new(paper, &model).top_k(&sctx);
        assert_eq!(got.len(), want.len());

        // Same multiset of (route, score-bits): a permutation, not a rescore.
        let key = |g: &GlobalRoute| {
            (
                g.route.segments().to_vec(),
                g.log_score.to_bits(),
                g.local_indices.clone(),
            )
        };
        let mut a: Vec<_> = want.iter().map(key).collect();
        let mut b: Vec<_> = got.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "re-ranking must permute the paper top-K");

        // With distinct paper scores, -8·log_score inverts the order.
        let distinct = want
            .windows(2)
            .all(|w| w[0].log_score.to_bits() != w[1].log_score.to_bits());
        if distinct && want.len() > 1 {
            let inverted: Vec<_> = want.iter().rev().map(key).collect();
            let got_keys: Vec<_> = got.iter().map(key).collect();
            assert_eq!(got_keys, inverted, "negative log_score weight inverts");
        }
        if got.iter().map(key).ne(want.iter().map(key)) {
            reordered_any = true;
        }
    }
    assert!(
        reordered_any,
        "adversarial model never reordered any of {} queries",
        queries.len()
    );
}

/// A trained model travels losslessly through the engine-config JSON —
/// weights, bias, and standardization statistics all round-trip.
#[test]
fn rerank_config_round_trips_through_serde() {
    let mut weights = vec![0.25, -0.5, 1.5, 0.0, -2.0, 0.75, 3.0, -0.125];
    weights[3] = 1e-9;
    let mut model = RerankModel::from_weights(weights, 0.375);
    model.means = (0..hris::scoring::NUM_FEATURES)
        .map(|i| i as f64 * 0.1)
        .collect();
    model.scales = (0..hris::scoring::NUM_FEATURES)
        .map(|i| 1.0 + i as f64)
        .collect();
    assert!(model.is_valid());

    let cfg = EngineConfig::builder()
        .rerank(model.clone())
        .build()
        .unwrap();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: EngineConfig = serde_json::from_str(&json).unwrap();
    assert!(back.rerank.enabled);
    assert_eq!(back.rerank.model.as_ref(), Some(&model));

    // Default stays default: no rerank block surprises.
    let default_json = serde_json::to_string(&EngineConfig::default()).unwrap();
    let default_back: EngineConfig = serde_json::from_str(&default_json).unwrap();
    assert!(!default_back.rerank.enabled);
    assert!(default_back.rerank.model.is_none());
}

// ----------------------------------------------- feature-invariant tests

/// Universe of synthetic local-inference results (mirrors the K-GRI
/// proptest universe: single-segment routes, random coverage and sources).
fn locals_strategy() -> impl Strategy<Value = Vec<LocalInferenceResult>> {
    let pair = prop::collection::vec(
        (
            0u32..40,
            prop::collection::vec(0usize..6, 0..5),
            prop::collection::vec(0u32..10, 1..3),
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
                                points: vec![hris_traj::GpsPoint::new(Point::ORIGIN, 0.0)],
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

fn small_net() -> RoadNetwork {
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

/// A manual zigzag corridor: `steps` unit moves (±x / ±y alternating by
/// `turns` mask), every coordinate multiplied by `scale`. Returns the net
/// and one local-inference result whose single route walks the corridor.
fn zigzag(
    steps: &[(f64, f64)],
    cover: &[usize],
    scale: f64,
) -> (RoadNetwork, LocalInferenceResult) {
    let mut b = RoadNetwork::builder();
    let mut x = 1_000.0;
    let mut y = 1_000.0;
    let mut prev = b.add_node(Point::new(x * scale, y * scale));
    let mut segs = Vec::new();
    for &(dx, dy) in steps {
        x += dx;
        y += dy;
        let next = b.add_node(Point::new(x * scale, y * scale));
        segs.push(b.add_straight_segment(prev, next, 13.9, RoadClass::Residential));
        prev = next;
    }
    let net = b.build();
    let route = Route::new(segs);
    let mut pairs_list = Vec::new();
    let mut refs = Vec::new();
    for &r in cover {
        while refs.len() <= r {
            refs.push(RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![TrajId(refs.len() as u32)],
                points: vec![hris_traj::GpsPoint::new(Point::ORIGIN, 0.0)],
                runs: Vec::new(),
            });
        }
        for &s in route.segments() {
            pairs_list.push((s, r));
        }
    }
    let local = LocalInferenceResult {
        routes: vec![route],
        edge_index: RefEdgeIndex::from_pairs(pairs_list),
        refs: ReferenceSet { refs },
        stats: LocalStats::default(),
    };
    (net, local)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every feature of every top-K candidate is finite on arbitrary
    /// synthetic universes, and extraction is bitwise deterministic across
    /// repeated calls.
    #[test]
    fn features_are_finite_and_deterministic(locals in locals_strategy(), k in 1usize..6) {
        let net = small_net();
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);
        let sctx = ScoringCtx::new(&net, &locals, k);
        for g in scorer.top_k(&sctx) {
            let f1 = extract_features(&sctx, &g, 0.05, PopularityModel::ScaleFree);
            let f2 = extract_features(&sctx, &g, 0.05, PopularityModel::ScaleFree);
            for (name, v) in hris::scoring::FEATURE_NAMES.iter().zip(f1.to_array()) {
                prop_assert!(v.is_finite(), "{name} = {v} not finite");
            }
            let bits1: Vec<u64> = f1.to_array().iter().map(|v| v.to_bits()).collect();
            let bits2: Vec<u64> = f2.to_array().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits1, bits2, "extraction must be deterministic");
        }
    }

    /// Scaling every coordinate by a power of two moves no feature bit:
    /// turn counting is dot/cross-based (no trig), support and popularity
    /// are counts, and the residual/ratio features divide two quantities
    /// that scale by exactly the same power of two.
    #[test]
    fn features_are_invariant_under_power_of_two_scaling(
        dirs in prop::collection::vec((0usize..4, 60.0..400.0f64), 2..9),
        cover in prop::collection::vec(0usize..5, 0..4),
        exp in 1u32..4,
    ) {
        let steps: Vec<(f64, f64)> = dirs
            .iter()
            .map(|&(d, m)| match d {
                0 => (m, 0.0),
                1 => (0.0, m),
                2 => (m, m),
                _ => (m, -m),
            })
            .collect();
        let scale = f64::from(2u32.pow(exp));
        let (net1, local1) = zigzag(&steps, &cover, 1.0);
        let (net2, local2) = zigzag(&steps, &cover, scale);
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);

        let locals1 = [local1];
        let locals2 = [local2];
        let sctx1 = ScoringCtx::new(&net1, &locals1, 1);
        let sctx2 = ScoringCtx::new(&net2, &locals2, 1);
        let g1 = scorer.top_k(&sctx1);
        let g2 = scorer.top_k(&sctx2);
        prop_assert_eq!(g1.len(), 1);
        prop_assert_eq!(g2.len(), 1);

        let f1 = extract_features(&sctx1, &g1[0], 0.05, PopularityModel::ScaleFree);
        let f2 = extract_features(&sctx2, &g2[0], 0.05, PopularityModel::ScaleFree);
        for ((name, a), b) in hris::scoring::FEATURE_NAMES
            .iter()
            .zip(f1.to_array())
            .zip(f2.to_array())
        {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} drifted under ×{} scaling: {} vs {}",
                name, scale, a, b
            );
        }
    }

    /// A zero model re-ranks any random universe into exactly the paper
    /// order (all-tie + stable sort), bit for bit.
    #[test]
    fn zero_model_is_identity_on_random_universes(locals in locals_strategy(), k in 1usize..6) {
        let net = small_net();
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);
        let model = RerankModel::zeroed();
        let sctx = ScoringCtx::new(&net, &locals, k);
        let want = scorer.top_k(&sctx);
        let got = LearnedScorer::new(scorer, &model).top_k(&sctx);
        prop_assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(&w.route, &g.route);
            prop_assert_eq!(w.log_score.to_bits(), g.log_score.to_bits());
            prop_assert_eq!(&w.local_indices, &g.local_indices);
        }
    }
}
