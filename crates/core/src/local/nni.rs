//! Nearest-Neighbor based Inference — Algorithm 2 of the paper.
//!
//! Starting from `q_i`, repeatedly transfer to up to `k₂` constrained
//! nearest reference points until `q_{i+1}` is reached. A candidate next
//! point `p` (seen from current point `c`) is admissible when:
//!
//! 1. it does not move away from the destination by more than the remaining
//!    tolerance `α` — `d(p, q_{i+1}) − α > d(c, q_{i+1})` rejects it
//!    (line 9); whenever we do move away, the deviation is deducted from
//!    `α` (line 20), so runs that keep heading backwards die out;
//! 2. it does not force a detour: `(d(c, p) + d(p, q_{i+1})) / d(c, q_{i+1})
//!    > β` rejects it (line 11).
//!
//! If `q_{i+1}` itself is admissible, it preempts all other candidates
//! (lines 13–16).
//!
//! **Sharing common substructures** (Figure 5): expanding a point means one
//! constrained-kNN search. With sharing enabled, expansions are memoised in
//! a *transit graph* so every point is searched at most once; without it,
//! every recursion-tree visit pays the search again (the paper's Figure 13b
//! ablation). Either way the set of enumerated `q_i → q_{i+1}` paths is the
//! same; each path's point trace is map-matched into a physical route.

use crate::local::{CandidateSoA, LocalStats};
use crate::params::HrisParams;
use crate::reference::ReferenceSet;
use hris_geo::{BBox, Point};
use hris_mapmatch::reconstruct_route;
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{FxHashSet, RoadNetwork, Route};
use hris_rtree::{RTree, Spatial};

/// A reference point in the NNI point cloud.
#[derive(Debug, Clone, Copy)]
struct NniPoint {
    pos: Point,
    /// Index into the flat point list (the terminal gets the last index).
    id: usize,
}

impl Spatial for NniPoint {
    fn bbox(&self) -> BBox {
        BBox::from_point(self.pos)
    }
}

/// Runs NNI for one query pair. Returns candidate local routes and stats.
#[must_use]
pub fn nni(
    net: &RoadNetwork,
    refs: &ReferenceSet,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    params: &HrisParams,
) -> (Vec<Route>, LocalStats) {
    let mut stats = LocalStats {
        algorithm: "NNI",
        ..LocalStats::default()
    };
    let (Some(qi), Some(qj)) = (
        qi_cands.first().map(|c| c.closest),
        qj_cands.first().map(|c| c.closest),
    ) else {
        return (Vec::new(), stats);
    };

    // Flat point cloud: all reference points, then the terminal q_{i+1}.
    let mut cloud: Vec<Point> = refs
        .refs
        .iter()
        .flat_map(|r| r.points.iter().map(|p| p.pos))
        .collect();
    let terminal_id = cloud.len();
    cloud.push(qj);
    let tree = RTree::bulk_load(
        cloud
            .iter()
            .enumerate()
            .map(|(id, &pos)| NniPoint { pos, id })
            .collect(),
    );

    let d_qi_qj = qi.dist(qj);

    // Batch distance kernel: every admissibility test needs d(p, q_{i+1});
    // one linear SoA sweep precomputes them for the whole cloud instead of
    // re-deriving the same distance on every expansion that touches `p`.
    let soa = CandidateSoA::from_points(cloud.iter().copied());
    let d_to_qj: Vec<f64> = soa.dists_to(qj);

    // Expansion: constrained kNN of `from` (start node uses q_i itself).
    // α is *telescoped*: the remaining tolerance at a node depends only on
    // how much closer/further the node is than q_i, which makes expansions
    // node-local and therefore shareable across branches (the transit-graph
    // optimisation requires branch-independent expansions).
    let expand = |from: Point, searches: &mut usize| -> Vec<usize> {
        *searches += 1;
        let d_c = from.dist(qj);
        let alpha_left = (params.alpha_m - (d_c - d_qi_qj).max(0.0)).max(0.0);
        let mut nn = Vec::new();
        for n in tree.nearest_iter(from, |p, q| p.pos.dist(q)) {
            if nn.len() >= params.k2.max(1) {
                break;
            }
            let p = n.item;
            if p.pos.dist(from) < 1e-9 {
                continue; // the point itself (or a duplicate observation)
            }
            let d_p = d_to_qj[p.id];
            // Line 9: tolerated backward movement.
            if d_p - alpha_left > d_c {
                continue;
            }
            // Line 11: detour ratio.
            if d_c > 1e-9 && (from.dist(p.pos) + d_p) / d_c > params.beta {
                continue;
            }
            if p.id == terminal_id {
                // Lines 13–16: destination reached — it preempts everything.
                return vec![terminal_id];
            }
            nn.push(p.id);
        }
        nn
    };

    // DFS path enumeration with (optionally) memoised expansions. Node ids
    // are dense cloud indices, so the memo is a flat successor arena — spans
    // into one shared vector — instead of a hash map of cloned `Vec`s.
    let mut memo_spans: Vec<Option<(u32, u32)>> = vec![None; cloud.len()];
    let mut memo_flat: Vec<usize> = Vec::new();
    let mut paths: Vec<Vec<usize>> = Vec::new();
    // Start pseudo-node: usize::MAX denotes q_i.
    let start = usize::MAX;
    let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, Vec::new())];
    // Bounded work: sparse clouds whose walks cannot reach the destination
    // would otherwise burn the whole recursion tree discovering nothing.
    let mut expansions_budget = 2_000usize.max(cloud.len() * 4);

    while let Some((node, path)) = stack.pop() {
        if paths.len() >= params.nni_max_paths.max(1) || expansions_budget == 0 {
            break;
        }
        let pos = if node == start { qi } else { cloud[node] };
        let fresh: Vec<usize>;
        let succs: &[usize] = if params.nni_share_substructures && node != start {
            let (lo, hi) = match memo_spans[node] {
                Some(span) => span,
                None => {
                    let s = expand(pos, &mut stats.knn_searches);
                    let lo = memo_flat.len() as u32;
                    memo_flat.extend_from_slice(&s);
                    let span = (lo, memo_flat.len() as u32);
                    memo_spans[node] = Some(span);
                    span
                }
            };
            &memo_flat[lo as usize..hi as usize]
        } else {
            fresh = expand(pos, &mut stats.knn_searches);
            &fresh
        };
        expansions_budget -= 1;
        for &next in succs {
            if next == terminal_id {
                paths.push(path.clone());
                continue;
            }
            if path.contains(&next) {
                continue; // loopless traces
            }
            let mut np = path.clone();
            np.push(next);
            stack.push((next, np));
        }
    }

    // Build physical routes from each dense trace. The trace points are
    // genuine on-road GPS observations spaced a couple hundred metres
    // apart, so nearest-candidate matching with shortest-path bridging
    // ("the map-matching techniques, whose accuracy is higher as there are
    // more intermediate points", Section III-B.2) recovers the route at a
    // fraction of a full probabilistic matcher's cost.
    let mut routes = Vec::new();
    let mut seen_matched: FxHashSet<Vec<hris_roadnet::SegmentId>> = FxHashSet::default();
    // Nearest-segment matching is a pure function of the (fixed) cloud
    // point, and distinct traces revisit the same points constantly —
    // memoise per cloud id, and match the shared endpoints exactly once.
    let qi_match = net.nearest_segment(qi);
    let mut nearest_memo: Vec<Option<Option<CandidateEdge>>> = vec![None; cloud.len()];
    for path in &paths {
        let mut matched: Vec<CandidateEdge> = Vec::with_capacity(path.len() + 2);
        if let Some(c) = qi_match {
            matched.push(c);
        }
        for &id in path.iter().chain(std::iter::once(&terminal_id)) {
            let c = *nearest_memo[id].get_or_insert_with(|| net.nearest_segment(cloud[id]));
            if let Some(c) = c {
                if matched.last().map(|m| m.segment) != Some(c.segment) {
                    matched.push(c);
                }
            }
        }
        if matched.is_empty() {
            continue;
        }
        // Distinct traces can collapse to the same matched-edge sequence;
        // reconstruct each sequence only once.
        if !seen_matched.insert(matched.iter().map(|m| m.segment).collect()) {
            continue;
        }
        routes.push(reconstruct_route(net, &matched));
    }
    (routes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory};
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{GpsPoint, TrajId};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(4)
        })
    }

    fn corridor_refs(net: &RoadNetwork, count: u32, x_to: f64) -> ReferenceSet {
        let refs = (0..count)
            .map(|id| {
                let points = (0..10)
                    .map(|k| {
                        let x = x_to * (k as f64 + 0.5) / 10.0;
                        let snapped = net.nearest_segment(Point::new(x, 0.0)).unwrap().closest;
                        GpsPoint::new(snapped, k as f64 * 25.0)
                    })
                    .collect();
                RefTrajectory {
                    kind: RefKind::Simple,
                    sources: vec![TrajId(id)],
                    points,
                    runs: Vec::new(),
                }
            })
            .collect();
        ReferenceSet { refs }
    }

    fn run(net: &RoadNetwork, params: &HrisParams) -> (Vec<Route>, LocalStats) {
        let refs = corridor_refs(net, 3, 800.0);
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(800.0, 0.0), 80.0);
        nni(net, &refs, &qi, &qj, params)
    }

    #[test]
    fn finds_route_along_corridor() {
        let net = net();
        let (routes, stats) = run(&net, &HrisParams::default());
        assert!(!routes.is_empty(), "NNI should reach the destination");
        assert!(stats.knn_searches > 0);
        for r in &routes {
            assert!(r.is_connected(&net));
        }
    }

    #[test]
    fn sharing_reduces_knn_searches() {
        let net = net();
        let shared = run(
            &net,
            &HrisParams {
                nni_share_substructures: true,
                ..HrisParams::default()
            },
        )
        .1;
        let plain = run(
            &net,
            &HrisParams {
                nni_share_substructures: false,
                ..HrisParams::default()
            },
        )
        .1;
        assert!(
            shared.knn_searches <= plain.knn_searches,
            "sharing must not increase searches ({} vs {})",
            shared.knn_searches,
            plain.knn_searches
        );
    }

    #[test]
    fn no_references_yields_no_routes() {
        let net = net();
        let refs = ReferenceSet::default();
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(5000.0, 5000.0), 80.0);
        let (routes, _) = nni(&net, &refs, &qi, &qj, &HrisParams::default());
        // Only the terminal is in the cloud; it is too far for β from q_i.
        assert!(routes.is_empty());
    }

    #[test]
    fn adjacent_points_connect_directly() {
        let net = net();
        // q_i and q_j one block apart with no references: the terminal
        // itself is an admissible nearest neighbour → direct route.
        let refs = ReferenceSet::default();
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(200.0, 0.0), 80.0);
        let (routes, _) = nni(&net, &refs, &qi, &qj, &HrisParams::default());
        assert!(!routes.is_empty());
    }

    #[test]
    fn empty_candidates_handled() {
        let net = net();
        let refs = corridor_refs(&net, 2, 500.0);
        let (routes, _) = nni(&net, &refs, &[], &[], &HrisParams::default());
        assert!(routes.is_empty());
    }

    #[test]
    fn beta_one_forbids_detours() {
        let net = net();
        // β = 1.0 admits only points exactly on the straight line; the grid
        // corridor deviates, so expect far fewer (possibly zero) routes.
        let strict = run(
            &net,
            &HrisParams {
                beta: 1.0001,
                ..HrisParams::default()
            },
        )
        .0;
        let loose = run(
            &net,
            &HrisParams {
                beta: 2.0,
                ..HrisParams::default()
            },
        )
        .0;
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn paths_are_capped() {
        let net = net();
        let (routes, _) = run(
            &net,
            &HrisParams {
                nni_max_paths: 2,
                ..HrisParams::default()
            },
        );
        assert!(routes.len() <= 2);
    }
}
