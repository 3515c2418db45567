//! Differential battery: a deliberately naive shortest-path oracle against
//! the production Dijkstra and A* implementations, over randomly generated
//! networks.
//!
//! The oracle below shares nothing with `shortest.rs` but the cost model —
//! no binary heap, no early exit, no heuristic — so an agreement across
//! thousands of random (network, source, target) triples is strong evidence
//! both optimized implementations are exact.

use hris_roadnet::shortest::{
    astar_path, route_between_segments, shortest_costs_from, shortest_path,
};
use hris_roadnet::{
    generator, CostModel, NetworkConfig, NodeId, RoadNetwork, ScratchBuffers, SegmentId, SpOracle,
};
use proptest::prelude::*;

/// Textbook O(V²) single-source Dijkstra: linear-scan extraction, no heap,
/// no early exit. Returns the full distance vector.
fn naive_dijkstra(net: &RoadNetwork, source: NodeId, model: CostModel) -> Vec<f64> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[source.index()] = 0.0;
    for _ in 0..n {
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for v in 0..n {
            if !done[v] && dist[v] < best {
                best = dist[v];
                u = v;
            }
        }
        if u == usize::MAX {
            break;
        }
        done[u] = true;
        for &sid in net.out_segments(NodeId(u as u32)) {
            let seg = net.segment(sid);
            let v = seg.to.index();
            let nd = dist[u] + model.cost(seg);
            if nd < dist[v] {
                dist[v] = nd;
            }
        }
    }
    dist
}

fn small_net(seed: u64, removal: f64, oneway: f64) -> RoadNetwork {
    generator::generate(&NetworkConfig {
        blocks_x: 4,
        blocks_y: 4,
        block_m: 180.0,
        removal_frac: removal,
        oneway_frac: oneway,
        ..NetworkConfig::small(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dijkstra_matches_naive_oracle(
        seed in 0u64..50,
        removal in 0.0..0.25f64,
        oneway in 0.0..0.4f64,
        s in 0u32..64,
    ) {
        let net = small_net(seed, removal, oneway);
        let n = net.num_nodes() as u32;
        let s = NodeId(s % n);
        for model in [CostModel::Distance, CostModel::Time] {
            let want = naive_dijkstra(&net, s, model);
            for t in 0..n {
                match shortest_path(&net, s, NodeId(t), model) {
                    Some(p) => {
                        prop_assert!(
                            (p.cost - want[t as usize]).abs() < 1e-6,
                            "s={s:?} t={t} model={model:?}: {} vs oracle {}",
                            p.cost,
                            want[t as usize]
                        );
                        // The reported cost is consistent with the path's
                        // own segments.
                        let derived: f64 = p
                            .segments
                            .iter()
                            .map(|&sid| model.cost(net.segment(sid)))
                            .sum();
                        prop_assert!((derived - p.cost).abs() < 1e-6);
                        prop_assert_eq!(*p.nodes.first().unwrap(), s);
                        prop_assert_eq!(*p.nodes.last().unwrap(), NodeId(t));
                    }
                    None => prop_assert!(
                        want[t as usize].is_infinite(),
                        "dijkstra says unreachable, oracle found {}",
                        want[t as usize]
                    ),
                }
            }
        }
    }

    #[test]
    fn astar_matches_naive_oracle(
        seed in 50u64..100,
        removal in 0.0..0.25f64,
        oneway in 0.0..0.4f64,
        s in 0u32..64,
    ) {
        let net = small_net(seed, removal, oneway);
        let n = net.num_nodes() as u32;
        let s = NodeId(s % n);
        for model in [CostModel::Distance, CostModel::Time] {
            let want = naive_dijkstra(&net, s, model);
            for t in 0..n {
                match astar_path(&net, s, NodeId(t), model) {
                    Some(p) => {
                        prop_assert!(
                            (p.cost - want[t as usize]).abs() < 1e-6,
                            "s={s:?} t={t} model={model:?}: {} vs oracle {}",
                            p.cost,
                            want[t as usize]
                        );
                        let derived: f64 = p
                            .segments
                            .iter()
                            .map(|&sid| model.cost(net.segment(sid)))
                            .sum();
                        prop_assert!((derived - p.cost).abs() < 1e-6);
                        prop_assert_eq!(*p.nodes.first().unwrap(), s);
                        prop_assert_eq!(*p.nodes.last().unwrap(), NodeId(t));
                    }
                    None => prop_assert!(want[t as usize].is_infinite()),
                }
            }
        }
    }

    /// The precomputed oracle's full shortest-path trees agree with the
    /// naive O(V²) Dijkstra from every source of a random network, and its
    /// segment-level routes agree with the classic per-pair search —
    /// including the unreachable cases answered by the reachability matrix.
    #[test]
    fn sp_oracle_matches_naive_oracle(
        seed in 100u64..150,
        removal in 0.0..0.25f64,
        oneway in 0.0..0.4f64,
    ) {
        let net = small_net(seed, removal, oneway);
        let oracle = SpOracle::build(&net);
        let n = net.num_nodes() as u32;
        for model in [CostModel::Distance, CostModel::Time] {
            for s in 0..n {
                let s = NodeId(s);
                let want = naive_dijkstra(&net, s, model);
                let spt = oracle.spt(s, model);
                for (t, &w) in want.iter().enumerate() {
                    let g = spt.dist_to(NodeId(t as u32));
                    if g.is_finite() || w.is_finite() {
                        prop_assert!((g - w).abs() < 1e-6, "s={s:?} t={t}: {g} vs {w}");
                    }
                    // The reach matrix must agree with the distances.
                    prop_assert_eq!(
                        oracle.reachable(s, NodeId(t as u32)),
                        w.is_finite(),
                        "reachability disagrees at s={:?} t={}", s, t
                    );
                }
            }
        }
        // Segment-level routes: byte-identical to the classic search.
        let m = net.num_segments() as u32;
        for (r, s) in (0..m).zip((0..m).rev()) {
            let (r, s) = (SegmentId(r), SegmentId(s));
            for model in [CostModel::Distance, CostModel::Time] {
                let got = oracle.route_between(r, s, model);
                let want = route_between_segments(&net, r, s, model);
                prop_assert_eq!(&got, &want, "route {:?}->{:?} {:?}", r, s, model);
                // Right after the full search the answer comes from the
                // oracle's precomputed state alone (the engine's fallback
                // hit path), negatives included, and it is the same route.
                let cached = oracle.route_between_cached(r, s, model);
                prop_assert_eq!(
                    cached.as_ref(),
                    Some(&want),
                    "cached route {:?}->{:?} {:?}",
                    r,
                    s,
                    model
                );
            }
        }
    }

    /// Reusing one `ScratchBuffers` across many point-to-point queries is
    /// indistinguishable from allocating fresh buffers per query: epoch
    /// stamping must make stale state invisible.
    #[test]
    fn scratch_reuse_matches_fresh_allocation(
        seed in 150u64..200,
        removal in 0.0..0.25f64,
        oneway in 0.0..0.4f64,
        pairs in prop::collection::vec((0u32..4096, 0u32..4096), 1..24),
    ) {
        let net = small_net(seed, removal, oneway);
        let oracle = SpOracle::build(&net);
        let n = net.num_nodes() as u32;
        let mut reused = ScratchBuffers::for_network(&net);
        for (a, b) in pairs {
            let (s, t) = (NodeId(a % n), NodeId(b % n));
            for model in [CostModel::Distance, CostModel::Time] {
                let mut fresh = ScratchBuffers::for_network(&net);
                let got = oracle.point_to_point(s, t, model, &mut reused);
                let want = oracle.point_to_point(s, t, model, &mut fresh);
                prop_assert_eq!(&got, &want, "{:?}->{:?} {:?}", s, t, model);
                // And both agree with the classic early-exit Dijkstra.
                let classic = shortest_path(&net, s, t, model);
                prop_assert_eq!(&got, &classic);
            }
        }
    }

    #[test]
    fn all_costs_match_naive_oracle(
        seed in 0u64..40,
        oneway in 0.0..0.4f64,
        s in 0u32..64,
    ) {
        let net = small_net(seed, 0.15, oneway);
        let s = NodeId(s % net.num_nodes() as u32);
        for model in [CostModel::Distance, CostModel::Time] {
            let got = shortest_costs_from(&net, s, model);
            let want = naive_dijkstra(&net, s, model);
            prop_assert_eq!(got.len(), want.len());
            for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                if g.is_finite() || w.is_finite() {
                    prop_assert!((g - w).abs() < 1e-6, "node {v}: {g} vs {w}");
                }
            }
        }
    }
}
