//! Local route inference (Section III-B): given the references `C_i` of a
//! query pair, infer the candidate local routes `ℛ_i`.
//!
//! Two algorithms — [`tgi`](crate::local::tgi::tgi) (traverse graph,
//! Algorithm 1) and [`nni`](crate::local::nni::nni) (constrained nearest
//! neighbours, Algorithm 2) — plus the density-switched hybrid
//! ([`infer_local_routes`]).

pub mod nni;
pub mod tgi;

use crate::params::{HrisParams, HybridPolarity, LocalAlgorithm};
use crate::reference::ReferenceSet;
use crate::scratch::{Lease, SparseTable};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{RoadNetwork, Route, SegmentId};
use hris_traj::ProjectionKey;
use std::cell::Cell;
use std::collections::HashSet;

thread_local! {
    /// Segment → local slot table of [`RefEdgeIndex::build`].
    static SEGMENT_SLOTS: Cell<SparseTable<u32>> = Cell::default();
}

/// Per-pair instrumentation (drives the ablation figures 11b–13b).
#[derive(Debug, Clone, Default)]
pub struct LocalStats {
    /// Which algorithm actually ran ("TGI" / "NNI").
    pub algorithm: &'static str,
    /// Constrained-kNN searches performed (NNI; Figure 5's cost measure).
    pub knn_searches: usize,
    /// Traverse-graph node count (TGI).
    pub traverse_nodes: usize,
    /// Traverse-graph links before reduction (TGI).
    pub traverse_edges_initial: usize,
    /// Traverse-graph links after reduction (TGI; equal to initial when
    /// reduction is disabled).
    pub traverse_edges_final: usize,
    /// Links added by the strong-connectivity augmentation (TGI).
    pub augmentation_links: usize,
    /// Reference-point density ρ (points/km²) the hybrid switch saw.
    pub density: f64,
}

/// A local route with no scoring attached (scoring happens globally).
pub type LocalRoute = Route;

/// The outcome of local inference for one query pair.
#[derive(Debug, Clone)]
pub struct LocalInferenceResult {
    /// Candidate local routes `ℛ_i` (deduplicated).
    pub routes: Vec<LocalRoute>,
    /// Which references travel on which road segment (for scoring).
    pub edge_index: RefEdgeIndex,
    /// The reference set this inference consumed.
    pub refs: ReferenceSet,
    /// Instrumentation.
    pub stats: LocalStats,
}

/// Maps road segments to the references traversing them.
///
/// A reference *travels by* segment `r` when `r` is a candidate edge of one
/// of its points (Definition 9). This index is built once per pair and
/// drives both the traverse graph and the popularity function.
///
/// Stored in compressed-sparse-row form — sorted segment keys with one flat,
/// sorted run of covering-reference indices per segment — instead of a
/// `HashMap<SegmentId, HashSet<usize>>`: the popularity kernel probes it per
/// route segment inside a sort comparator, so lookups must be cache-friendly
/// and hash-free, and iteration order is deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefEdgeIndex {
    /// Sorted distinct covered segments (the traverse-edge set `TE`).
    segs: Vec<SegmentId>,
    /// `offsets[i]..offsets[i + 1]` indexes `refs` for `segs[i]`.
    offsets: Vec<u32>,
    /// Sorted covering-reference indices, grouped per segment.
    refs: Vec<u32>,
    /// Exclusive upper bound on reference indices (sizes union bitsets).
    num_refs: usize,
}

impl RefEdgeIndex {
    /// Builds the index from the candidate edges of every reference point
    /// within `eps` metres. A reference drawn from an archive projected for
    /// `(net, eps)` gathers its points' rows from the archive's projection
    /// column; any other reference (synthetic, or from an archive projected
    /// for another network or radius) projects its points with
    /// [`RoadNetwork::candidate_edges`].
    #[must_use]
    pub fn build(net: &RoadNetwork, refs: &ReferenceSet, eps: f64) -> Self {
        let key = ProjectionKey::new(net, eps);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (ri, r) in refs.refs.iter().enumerate() {
            let ri = u32::try_from(ri).expect("reference index fits u32");
            let start = pairs.len();
            let mut gathered = !r.runs.is_empty();
            for run in &r.runs {
                let Some(segs) = run.segments(key) else {
                    gathered = false;
                    break;
                };
                pairs.extend(segs.iter().map(|s| (s.0, ri)));
            }
            if !gathered {
                pairs.truncate(start);
                for p in &r.points {
                    for cand in net.candidate_edges(p.pos, eps) {
                        pairs.push((cand.segment.0, ri));
                    }
                }
            }
        }
        // Counting sort over the segments this pair covers. Each segment
        // gets a local slot in first-seen order from a per-thread table
        // (sized to the network once, reset sparsely), and the slots are
        // ordered by segment id. The loop above emits reference indices in
        // ascending order, so a stable scatter leaves every per-segment
        // bucket sorted — same `(seg, ref)` order `from_pairs` produces,
        // without the comparison sort over all pairs.
        let mut local = Lease::take(&SEGMENT_SLOTS, net.num_segments());
        let mut distinct: Vec<SegmentId> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let slot_of: Vec<u32> = pairs
            .iter()
            .map(|&(seg, _)| {
                let mut slot = local.get(seg as usize);
                if slot == u32::MAX {
                    slot = distinct.len() as u32;
                    local.set(seg as usize, slot);
                    distinct.push(SegmentId(seg));
                    counts.push(0);
                }
                counts[slot as usize] += 1;
                slot
            })
            .collect();
        drop(local);
        let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
        order.sort_unstable_by_key(|&slot| distinct[slot as usize]);
        let mut starts = vec![0u32; distinct.len()];
        let mut total = 0u32;
        for &slot in &order {
            starts[slot as usize] = total;
            total += counts[slot as usize];
        }
        let mut cursor = starts.clone();
        let mut bucketed: Vec<u32> = vec![0; pairs.len()];
        for (&(_, ri), &slot) in pairs.iter().zip(&slot_of) {
            let c = &mut cursor[slot as usize];
            bucketed[*c as usize] = ri;
            *c += 1;
        }
        let mut segs: Vec<SegmentId> = Vec::with_capacity(distinct.len());
        let mut offsets: Vec<u32> = Vec::with_capacity(distinct.len() + 1);
        let mut out_refs: Vec<u32> = Vec::new();
        let mut num_refs = 0usize;
        for &slot in &order {
            let lo = starts[slot as usize] as usize;
            let hi = lo + counts[slot as usize] as usize;
            segs.push(distinct[slot as usize]);
            offsets.push(out_refs.len() as u32);
            let start = out_refs.len();
            for &r in &bucketed[lo..hi] {
                if out_refs.len() > start && out_refs[out_refs.len() - 1] == r {
                    continue;
                }
                out_refs.push(r);
                num_refs = num_refs.max(r as usize + 1);
            }
        }
        if !segs.is_empty() {
            offsets.push(out_refs.len() as u32);
        }
        RefEdgeIndex {
            segs,
            offsets,
            refs: out_refs,
            num_refs,
        }
    }

    /// Builds the index from raw `(segment, reference index)` coverage
    /// pairs (duplicates welcome) — the synthetic-coverage entry point for
    /// tests and ablations.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (SegmentId, usize)>) -> Self {
        // Each pair packs into one u64 key — `(segment, ref)` tuple order
        // and `(segment << 32) | ref` numeric order coincide, and sorting
        // plain u64s is markedly cheaper than sorting tuples.
        let mut keys: Vec<u64> = pairs
            .into_iter()
            .map(|(s, r)| {
                (u64::from(s.0) << 32)
                    | u64::from(u32::try_from(r).expect("reference index fits u32"))
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut segs: Vec<SegmentId> = Vec::new();
        let mut offsets = Vec::new();
        let mut refs = Vec::with_capacity(keys.len());
        let mut num_refs = 0usize;
        for key in keys {
            let (seg, r) = (SegmentId((key >> 32) as u32), key as u32);
            if segs.last() != Some(&seg) {
                segs.push(seg);
                offsets.push(refs.len() as u32);
            }
            refs.push(r);
            num_refs = num_refs.max(r as usize + 1);
        }
        offsets.push(refs.len() as u32);
        if segs.is_empty() {
            offsets.clear();
        }
        RefEdgeIndex {
            segs,
            offsets,
            refs,
            num_refs,
        }
    }

    /// References covering segment `r` (`C_i(r)` as a sorted slice of
    /// indices into `ReferenceSet::refs`), empty when none.
    #[must_use]
    pub fn refs_on(&self, seg: SegmentId) -> &[u32] {
        match self.segs.binary_search(&seg) {
            Ok(i) => &self.refs[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of references covering segment `r` (`|C_i(r)|`).
    #[must_use]
    pub fn covering_count(&self, seg: SegmentId) -> usize {
        self.refs_on(seg).len()
    }

    /// Union of references covering any segment of `route` (`C_i(R)`),
    /// as sorted distinct indices.
    #[must_use]
    pub fn refs_on_route(&self, route: &Route) -> Vec<usize> {
        let mut words = vec![0u64; self.num_refs.div_ceil(64)];
        for seg in route.segments() {
            for &r in self.refs_on(*seg) {
                words[r as usize / 64] |= 1 << (r % 64);
            }
        }
        let mut out = Vec::new();
        for (w, &bits) in words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// All traversed segments (the traverse-edge set `TE`), sorted.
    #[must_use]
    pub fn traverse_edges(&self) -> &[SegmentId] {
        &self.segs
    }

    /// `true` when no segment is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

/// Flat structure-of-arrays layout for candidate points: parallel
/// coordinate/offset/segment arrays feeding cache-friendly batch distance
/// kernels (the NNI admissibility tests evaluate distances to the same
/// anchor for every point of the cloud — one linear sweep over two `f64`
/// arrays instead of a pointer-chase per point).
#[derive(Debug, Clone, Default)]
pub struct CandidateSoA {
    /// X coordinates.
    pub xs: Vec<f64>,
    /// Y coordinates.
    pub ys: Vec<f64>,
    /// Arc-length offsets (metres from segment start); empty for bare
    /// point clouds.
    pub offsets: Vec<f64>,
    /// Segment ids; empty for bare point clouds.
    pub segment_ids: Vec<SegmentId>,
}

impl CandidateSoA {
    /// SoA view of candidate edges (projection points + offsets + segments).
    #[must_use]
    pub fn from_edges(cands: &[CandidateEdge]) -> Self {
        CandidateSoA {
            xs: cands.iter().map(|c| c.closest.x).collect(),
            ys: cands.iter().map(|c| c.closest.y).collect(),
            offsets: cands.iter().map(|c| c.offset).collect(),
            segment_ids: cands.iter().map(|c| c.segment).collect(),
        }
    }

    /// SoA view of a bare point cloud.
    #[must_use]
    pub fn from_points(points: impl IntoIterator<Item = hris_geo::Point>) -> Self {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for p in points {
            xs.push(p.x);
            ys.push(p.y);
        }
        CandidateSoA {
            xs,
            ys,
            offsets: Vec::new(),
            segment_ids: Vec::new(),
        }
    }

    /// Number of candidate points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when the layout holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Batch distance kernel: Euclidean distance from every point to `q`,
    /// bit-identical to `Point::dist` per element (same subtractions, same
    /// fused sum, same square root).
    #[must_use]
    pub fn dists_to(&self, q: hris_geo::Point) -> Vec<f64> {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(&x, &y)| hris_geo::Point::new(x, y).dist(q))
            .collect()
    }
}

/// Local-route popularity `f(R)` — Equation 1 with a normalised entropy.
///
/// The paper's raw entropy `Σ −x(r)·log x(r)` grows like `ln m` with the
/// number of covered segments `m`, so comparing routes of different lengths
/// systematically favours the longest one (harmless in the paper, where all
/// candidates of a pair are near-direct; decisive at our denser enumeration
/// scale — see DESIGN.md). We therefore use the *evenness* `entropy / ln m`
/// (∈ [0, 1], the paper's "uniformness of the distribution" reading, made
/// scale-free):
///
/// `f(R) = support(R) · (evenness + floor)`, where `support` is the mean
/// per-segment reference count `Σ_r |C_i(r)| / |R|` — again the scale-free
/// counterpart of the paper's `|⋃_r C_i(r)|`, which (like the raw entropy)
/// grows monotonically as segments are appended.
///
/// Reference support still dominates; evenness still prefers sustained
/// coverage over a single busy intersection (Figure 6); segments that no
/// reference travels drag the mean down, so routes straying off the
/// historical corridors lose; the floor keeps single-segment routes
/// (evenness defined as 1) and fully-concentrated distributions rankable.
///
/// This is the scoring kernel shared by route selection here and by the
/// global score in [`crate::global`].
#[must_use]
pub fn route_popularity(route: &Route, idx: &RefEdgeIndex, entropy_floor: f64) -> f64 {
    route_popularity_with(
        route,
        idx,
        entropy_floor,
        crate::params::PopularityModel::ScaleFree,
    )
}

/// [`route_popularity`] with an explicit [`PopularityModel`] — the ablation
/// entry point (`PaperLiteral` evaluates Equation 1 verbatim).
///
/// [`PopularityModel`]: crate::params::PopularityModel
#[must_use]
pub fn route_popularity_with(
    route: &Route,
    idx: &RefEdgeIndex,
    entropy_floor: f64,
    model: crate::params::PopularityModel,
) -> f64 {
    let union = idx.refs_on_route(route);
    if union.is_empty() {
        return 0.0;
    }
    let covered: Vec<usize> = route
        .segments()
        .iter()
        .map(|s| idx.covering_count(*s))
        .filter(|&c| c > 0)
        .collect();
    let total: usize = covered.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut entropy = 0.0;
    for &c in &covered {
        let x = c as f64 / total as f64;
        entropy -= x * x.ln();
    }
    match model {
        crate::params::PopularityModel::PaperLiteral => {
            // Equation 1 verbatim (floor still applied so single-segment
            // routes stay rankable in the multiplicative global score).
            union.len() as f64 * (entropy + entropy_floor)
        }
        crate::params::PopularityModel::ScaleFree => {
            let evenness = if covered.len() < 2 {
                1.0
            } else {
                entropy / (covered.len() as f64).ln()
            };
            let support = total as f64 / route.len() as f64;
            support * (evenness + entropy_floor)
        }
    }
}

/// Runs local inference for one pair, dispatching per
/// [`HrisParams::local_algorithm`] (the hybrid uses the reference-point
/// density and `τ`, Section III-B.3).
#[must_use]
pub fn infer_local_routes(
    net: &RoadNetwork,
    refs: ReferenceSet,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    params: &HrisParams,
) -> LocalInferenceResult {
    let edge_index = RefEdgeIndex::build(net, &refs, params.candidate_eps_m);
    let density = refs.density_per_km2();

    let use_tgi = match params.local_algorithm {
        LocalAlgorithm::Tgi => true,
        LocalAlgorithm::Nni => false,
        LocalAlgorithm::Hybrid => match params.hybrid_polarity {
            // Figure 10: TGI overtakes NNI once density exceeds τ.
            HybridPolarity::Fig10 => density >= params.tau_per_km2,
            HybridPolarity::PaperText => density < params.tau_per_km2,
        },
    };

    let (mut routes, mut stats) = if use_tgi {
        tgi::tgi(net, &edge_index, qi_cands, qj_cands, params)
    } else {
        nni::nni(net, &refs, qi_cands, qj_cands, params)
    };
    stats.density = density;

    // The plain shortest-path routes between the endpoint candidates are
    // always candidates too — the "null hypothesis" the history must beat.
    // They also anchor the detour-plausibility bound.
    let oracle = net.sp_oracle();
    let mut sp_len = f64::INFINITY;
    for a in qi_cands.iter().take(2) {
        for b in qj_cands.iter().take(2) {
            if let Some(sp) =
                oracle.route_between(a.segment, b.segment, hris_roadnet::CostModel::Distance)
            {
                sp_len = sp_len.min(sp.length(net));
                routes.push(sp);
            }
        }
    }

    // Deduplicate (after loop excision — graph projection can bridge via
    // backtracking), then keep the `max_local_routes` most *popular*
    // candidates — K-GRI ranks by popularity anyway, so the cap must not
    // discard the routes the history supports best.
    let routes = routes.into_iter().map(|r| r.without_loops(net)).collect();
    let mut routes = dedup_routes(routes, net, usize::MAX);
    // Plausibility bound: drop candidates detouring far beyond the shortest
    // network path between the pair's candidate edges.
    if sp_len.is_finite() {
        let bound = sp_len * params.max_detour_ratio.max(1.0);
        routes.retain(|r| r.length(net) <= bound);
    }
    // Precompute each route's popularity once: the previous in-comparator
    // evaluation recomputed the full scoring kernel O(n log n) times and
    // dominated the per-pair profile. The stable sort over identical key
    // values yields exactly the order the comparator-driven sort produced.
    let mut keyed: Vec<(f64, Route)> = routes
        .into_iter()
        .map(|r| {
            let f = route_popularity_with(
                &r,
                &edge_index,
                params.entropy_floor,
                params.popularity_model,
            );
            (f, r)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut routes: Vec<Route> = keyed.into_iter().map(|(_, r)| r).collect();
    routes.truncate(params.max_local_routes.max(1));

    LocalInferenceResult {
        routes,
        edge_index,
        refs,
        stats,
    }
}

/// Deduplicates routes and keeps connected ones, capping the count.
#[must_use]
pub fn dedup_routes(routes: Vec<Route>, net: &RoadNetwork, cap: usize) -> Vec<Route> {
    let mut seen: HashSet<Vec<SegmentId>> = HashSet::new();
    let mut out = Vec::new();
    for r in routes {
        if r.is_empty() || !r.is_connected(net) {
            continue;
        }
        if seen.insert(r.segments().to_vec()) {
            out.push(r);
            if out.len() >= cap.max(1) {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory};
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{GpsPoint, TrajId};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(1)
        })
    }

    /// A reference walking from x=a to x=b, zig-zagging between two rows so
    /// the point cloud has a two-dimensional bounding box (finite density).
    fn make_ref(net: &RoadNetwork, a: f64, b: f64, id: u32) -> RefTrajectory {
        let n = 8;
        let points = (0..n)
            .map(|k| {
                let x = a + (b - a) * k as f64 / (n - 1) as f64;
                let y = if k % 2 == 0 { 0.0 } else { 200.0 };
                // Place points on the nearest road to keep candidates rich.
                let snapped = net.nearest_segment(Point::new(x, y)).unwrap().closest;
                GpsPoint::new(snapped, k as f64 * 30.0)
            })
            .collect();
        RefTrajectory {
            kind: RefKind::Simple,
            sources: vec![TrajId(id)],
            points,
            runs: Vec::new(),
        }
    }

    #[test]
    fn edge_index_links_refs_to_segments() {
        let net = net();
        let refs = ReferenceSet {
            refs: vec![make_ref(&net, 0.0, 800.0, 0), make_ref(&net, 0.0, 800.0, 1)],
        };
        let idx = RefEdgeIndex::build(&net, &refs, 40.0);
        assert!(!idx.is_empty());
        // Segments near the corridor should carry both references.
        let covered_by_both = idx
            .traverse_edges()
            .iter()
            .filter(|&&s| idx.covering_count(s) == 2)
            .count();
        assert!(covered_by_both > 0);
        // Union over any covered route equals {0, 1} somewhere.
        assert!(!idx.traverse_edges().is_empty());
        // CSR build matches the raw-pairs constructor and the uncached
        // candidate lookup.
        let mut pairs = Vec::new();
        for (ri, r) in refs.refs.iter().enumerate() {
            for p in &r.points {
                for cand in net.candidate_edges(p.pos, 40.0) {
                    pairs.push((cand.segment, ri));
                }
            }
        }
        assert_eq!(idx, RefEdgeIndex::from_pairs(pairs));
    }

    #[test]
    fn dedup_removes_duplicates_and_disconnected() {
        let net = net();
        let r = net.segments()[0].id;
        let s = net.next_segments(r)[0];
        let good = Route::new(vec![r, s]);
        let dup = Route::new(vec![r, s]);
        // A disconnected route: two random segments that don't touch.
        let far = net
            .segments()
            .iter()
            .find(|x| x.from != net.segment(r).to && x.id != r)
            .unwrap()
            .id;
        let bad = Route::new(vec![r, far]);
        let out = dedup_routes(vec![good.clone(), dup, bad, Route::empty()], &net, 10);
        assert_eq!(out, vec![good]);
    }

    #[test]
    fn dedup_caps_count() {
        let net = net();
        let routes: Vec<Route> = net
            .segments()
            .iter()
            .take(30)
            .map(|s| Route::new(vec![s.id]))
            .collect();
        assert_eq!(dedup_routes(routes, &net, 5).len(), 5);
    }

    #[test]
    fn hybrid_dispatch_uses_density() {
        let net = net();
        // Dense reference cloud → Fig10 polarity picks TGI.
        let refs = ReferenceSet {
            refs: (0..30).map(|i| make_ref(&net, 0.0, 600.0, i)).collect(),
        };
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(600.0, 0.0), 80.0);
        let params = HrisParams {
            tau_per_km2: 1.0, // anything is "dense"
            ..HrisParams::default()
        };
        let res = infer_local_routes(&net, refs.clone(), &qi, &qj, &params);
        assert_eq!(res.stats.algorithm, "TGI");

        let params = HrisParams {
            tau_per_km2: f64::INFINITY, // nothing is dense
            ..HrisParams::default()
        };
        let res = infer_local_routes(&net, refs, &qi, &qj, &params);
        assert_eq!(res.stats.algorithm, "NNI");
    }
}
