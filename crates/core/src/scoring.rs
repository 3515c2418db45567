//! Route scoring behind a unified [`RouteScorer`] API, plus the learned
//! re-ranking layer over K-GRI.
//!
//! The paper scores global routes with hand-set popularity and
//! transition-confidence functions ([`crate::global`]). This module puts
//! that scoring behind a trait so callers — the engine, the sharded
//! router's seam splice, the eval harness — all go through one seam:
//!
//! - [`PaperScorer`] runs the paper's K-GRI dynamic program (and its
//!   brute-force oracle); it *is* the paper.
//! - [`LearnedScorer`] wraps a [`PaperScorer`] and re-ranks its top-K
//!   output with a plain-SGD logistic model ([`RerankModel`]) over
//!   per-candidate-route features ([`RouteFeatures`]) — route shape, how
//!   well the historical archive supports it, and how far it strays from
//!   the shortest path. Related work (Feature Engineering for Map
//!   Matching, arXiv 1409.0797; CRF route-preference mining, arXiv
//!   1410.4461) shows route choice is learnable from exactly such
//!   features.
//!
//! The re-ranker never touches the K-GRI dynamic program: it permutes the
//! final top-K list (stable sort, so learned-score ties keep the paper
//! order). A zero model is therefore a byte-identical no-op, and with
//! re-ranking disabled the [`PaperScorer`] path is the only code that
//! runs.

use crate::global::{
    brute_force_top_k_impl, k_gri_impl, log_transition_confidence_sorted, route_traj_ids_sorted,
    GlobalRoute,
};
use crate::local::LocalInferenceResult;
use crate::params::{HrisParams, PopularityModel, RerankOptions};
use hris_roadnet::{CostModel, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Borrowed inputs of one global-inference scoring pass: the network, the
/// per-pair local inference results, and how many global routes to return.
#[derive(Clone, Copy)]
pub struct ScoringCtx<'a> {
    /// The road network (shared by every shard in a sharded deployment, so
    /// network-derived features agree across the seam splice).
    pub net: &'a RoadNetwork,
    /// One local-inference result per consecutive query-point pair.
    pub locals: &'a [LocalInferenceResult],
    /// How many global routes to return.
    pub k: usize,
}

impl<'a> ScoringCtx<'a> {
    /// Bundles the inputs of one scoring pass.
    #[must_use]
    pub fn new(net: &'a RoadNetwork, locals: &'a [LocalInferenceResult], k: usize) -> Self {
        ScoringCtx { net, locals, k }
    }
}

/// Global route scoring: turn per-pair local routes into ranked global
/// routes. Implementations must be deterministic — same context, same
/// output, bit for bit — because the engine's determinism and
/// shard-equivalence suites compare results across execution modes and
/// shard counts.
pub trait RouteScorer {
    /// A short stable name for diagnostics.
    fn name(&self) -> &'static str;

    /// Top-K global routes via the efficient path (the K-GRI dynamic
    /// program for the paper scorer).
    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute>;

    /// Top-K via exhaustive enumeration — the `O(mⁿ)` oracle used for
    /// Figure 14b and as a test oracle. Must rank identically to
    /// [`RouteScorer::top_k`].
    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute>;
}

/// The paper's scoring, exactly: popularity `f` (Equation 1) and
/// transition confidence `g` (Equation 2) threaded by the K-GRI dynamic
/// program (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperScorer {
    /// Entropy floor keeping single-segment routes rankable (see
    /// [`crate::local::route_popularity`]).
    pub entropy_floor: f64,
    /// Which form of Equation 1 scores local-route popularity.
    pub model: PopularityModel,
}

impl PaperScorer {
    /// A paper scorer with explicit knobs.
    #[must_use]
    pub fn new(entropy_floor: f64, model: PopularityModel) -> Self {
        PaperScorer {
            entropy_floor,
            model,
        }
    }

    /// The scorer the given parameter set implies.
    #[must_use]
    pub fn from_params(params: &HrisParams) -> Self {
        PaperScorer {
            entropy_floor: params.entropy_floor,
            model: params.popularity_model,
        }
    }
}

impl RouteScorer for PaperScorer {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        k_gri_impl(ctx.net, ctx.locals, ctx.k, self.entropy_floor, self.model)
    }

    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        brute_force_top_k_impl(ctx.net, ctx.locals, ctx.k, self.entropy_floor, self.model)
    }
}

/// Number of features in a [`RouteFeatures`] vector.
pub const NUM_FEATURES: usize = 8;

/// Feature names, in [`RouteFeatures::to_array`] order.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "turn_count",
    "mean_pair_popularity",
    "min_pair_popularity",
    "transition_sum",
    "travel_time_residual",
    "length_ratio",
    "support_density",
    "log_score",
];

/// Per-candidate-route features the re-ranker scores. All values are
/// finite for any input (guards below replace degenerate divisions), and
/// extraction is a pure sequential function of the context — deterministic
/// regardless of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteFeatures {
    /// Sharp direction changes (> 45°) between consecutive segments of the
    /// stitched route. Invariant under uniform coordinate scaling.
    pub turn_count: f64,
    /// Mean popularity `f(Rᵢ)` across the chosen local routes.
    pub mean_pair_popularity: f64,
    /// Minimum popularity across the chosen local routes — one unsupported
    /// pair should be able to sink a candidate.
    pub min_pair_popularity: f64,
    /// `Σ ln g(Rᵢ, Rᵢ₊₁)` over consecutive chosen pairs (0 for a
    /// single-pair query); in `[−(n−1), 0]`.
    pub transition_sum: f64,
    /// `(route travel time − shortest-path travel time) / shortest-path
    /// travel time` between the route's first and last segment via the
    /// `SpOracle`; 0 when no shortest path exists.
    pub travel_time_residual: f64,
    /// Route length over the shortest-path distance between its first and
    /// last segment; 1 when no shortest path exists.
    pub length_ratio: f64,
    /// Distinct historical trajectories supporting the route
    /// (`route_traj_ids` union across pairs) per route segment.
    pub support_density: f64,
    /// The paper's own `ln s(R)` — the learned model sees what K-GRI saw.
    pub log_score: f64,
}

impl RouteFeatures {
    /// The features as a fixed-size array, [`FEATURE_NAMES`] order.
    #[must_use]
    pub fn to_array(&self) -> [f64; NUM_FEATURES] {
        [
            self.turn_count,
            self.mean_pair_popularity,
            self.min_pair_popularity,
            self.transition_sum,
            self.travel_time_residual,
            self.length_ratio,
            self.support_density,
            self.log_score,
        ]
    }
}

/// `0.0` for non-finite values — features must never poison the sigmoid.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Extracts the re-ranking features of one candidate global route.
///
/// `entropy_floor` and `model` must match the scorer that produced the
/// candidate, so the popularity features line up with the DP's own `f`.
#[must_use]
pub fn extract_features(
    ctx: &ScoringCtx<'_>,
    candidate: &GlobalRoute,
    entropy_floor: f64,
    model: PopularityModel,
) -> RouteFeatures {
    let net = ctx.net;

    // Popularity of each chosen local route, exactly as `precompute` sees
    // it (before the ln/floor used by the DP).
    let mut pop_sum = 0.0;
    let mut pop_min = f64::INFINITY;
    let mut n_pairs = 0usize;
    for (i, &j) in candidate.local_indices.iter().enumerate() {
        let Some(local) = ctx.locals.get(i) else {
            break;
        };
        let Some(route) = local.routes.get(j) else {
            continue;
        };
        let f = crate::local::route_popularity_with(route, &local.edge_index, entropy_floor, model);
        pop_sum += f;
        pop_min = pop_min.min(f);
        n_pairs += 1;
    }
    let mean_pop = if n_pairs == 0 {
        0.0
    } else {
        pop_sum / n_pairs as f64
    };
    let min_pop = if n_pairs == 0 { 0.0 } else { pop_min };

    // Transition-confidence sum and archive support across chosen pairs.
    let ids: Vec<Vec<_>> = candidate
        .local_indices
        .iter()
        .enumerate()
        .filter_map(|(i, &j)| {
            let local = ctx.locals.get(i)?;
            let route = local.routes.get(j)?;
            Some(route_traj_ids_sorted(route, local))
        })
        .collect();
    let transition_sum: f64 = ids
        .windows(2)
        .map(|w| log_transition_confidence_sorted(&w[0], &w[1]))
        .sum();
    let mut support: Vec<_> = ids.into_iter().flatten().collect();
    support.sort_unstable();
    support.dedup();
    let support_density = if candidate.route.is_empty() {
        0.0
    } else {
        support.len() as f64 / candidate.route.len() as f64
    };

    // Sharp turns along the stitched route: consecutive segment heading
    // vectors at an angle above 45°, detected with dot/cross products only
    // (no trigonometry — exact under power-of-two coordinate scaling).
    let mut turn_count = 0.0;
    let segs = candidate.route.segments();
    for w in segs.windows(2) {
        let (a, b) = (net.segment(w[0]), net.segment(w[1]));
        let (pa, qa) = (net.node(a.from), net.node(a.to));
        let (pb, qb) = (net.node(b.from), net.node(b.to));
        let (ux, uy) = (qa.x - pa.x, qa.y - pa.y);
        let (vx, vy) = (qb.x - pb.x, qb.y - pb.y);
        if (ux == 0.0 && uy == 0.0) || (vx == 0.0 && vy == 0.0) {
            continue;
        }
        let dot = ux * vx + uy * vy;
        let cross = ux * vy - uy * vx;
        // angle > 45° ⇔ cos < √2/2 ⇔ |cross| > dot (or dot ≤ 0).
        if dot <= 0.0 || cross.abs() > dot {
            turn_count += 1.0;
        }
    }

    // Shortest-path residuals between the route's own endpoints.
    let mut travel_time_residual = 0.0;
    let mut length_ratio = 1.0;
    if let (Some(&first), Some(&last)) = (segs.first(), segs.last()) {
        if first != last {
            let oracle = net.sp_oracle();
            if let Some(sp_t) = oracle.route_cost_between(first, last, CostModel::Time) {
                if sp_t > 0.0 {
                    travel_time_residual =
                        finite_or_zero((candidate.route.travel_time(net) - sp_t) / sp_t);
                }
            }
            if let Some(sp_d) = oracle.route_cost_between(first, last, CostModel::Distance) {
                if sp_d > 0.0 {
                    let r = candidate.route.length(net) / sp_d;
                    length_ratio = if r.is_finite() { r } else { 1.0 };
                }
            }
        }
    }

    RouteFeatures {
        turn_count,
        mean_pair_popularity: finite_or_zero(mean_pop),
        min_pair_popularity: finite_or_zero(min_pop),
        transition_sum: finite_or_zero(transition_sum),
        travel_time_residual,
        length_ratio,
        support_density: finite_or_zero(support_density),
        log_score: finite_or_zero(candidate.log_score),
    }
}

/// Logistic re-ranking model: standardized features, linear weights, a
/// bias, and a sigmoid. Learned offline by [`train_logistic`] on
/// simulator-fleet ground truth; serialized through the vendored serde so
/// trained weights travel as plain JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankModel {
    /// One weight per feature, [`FEATURE_NAMES`] order.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
    /// Per-feature standardization means (from the training set).
    pub means: Vec<f64>,
    /// Per-feature standardization scales; must be positive.
    pub scales: Vec<f64>,
}

impl RerankModel {
    /// The all-zero model: every route scores 0.5, the stable re-sort
    /// keeps the paper order, re-ranking is a byte-identical no-op.
    #[must_use]
    pub fn zeroed() -> Self {
        RerankModel {
            weights: vec![0.0; NUM_FEATURES],
            bias: 0.0,
            means: vec![0.0; NUM_FEATURES],
            scales: vec![1.0; NUM_FEATURES],
        }
    }

    /// A model from raw weights and bias (no standardization).
    ///
    /// # Panics
    /// Panics when `weights` is not [`NUM_FEATURES`] long.
    #[must_use]
    pub fn from_weights(weights: Vec<f64>, bias: f64) -> Self {
        assert_eq!(weights.len(), NUM_FEATURES, "one weight per feature");
        RerankModel {
            weights,
            bias,
            means: vec![0.0; NUM_FEATURES],
            scales: vec![1.0; NUM_FEATURES],
        }
    }

    /// Structural validity: correct dimensions, finite parameters,
    /// positive scales. Checked by `EngineConfigBuilder::build`.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.weights.len() == NUM_FEATURES
            && self.means.len() == NUM_FEATURES
            && self.scales.len() == NUM_FEATURES
            && self.weights.iter().all(|w| w.is_finite())
            && self.bias.is_finite()
            && self.means.iter().all(|m| m.is_finite())
            && self.scales.iter().all(|s| s.is_finite() && *s > 0.0)
    }

    /// `σ(w · standardize(x) + b)` ∈ (0, 1).
    #[must_use]
    pub fn score(&self, features: &RouteFeatures) -> f64 {
        let x = features.to_array();
        let mut z = self.bias;
        for (i, &xi) in x.iter().enumerate() {
            z += self.weights[i] * (xi - self.means[i]) / self.scales[i];
        }
        sigmoid(z)
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Plain-SGD training knobs for [`train_logistic`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed — training is deterministic for a fixed seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            epochs: 40,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 42,
        }
    }
}

/// Trains a logistic re-ranker with plain SGD (no dependencies beyond the
/// standard library). Features are standardized to zero mean / unit
/// variance over the training set; the statistics are stored in the model
/// so inference standardizes identically. Deterministic for a fixed
/// [`SgdConfig::seed`].
#[must_use]
pub fn train_logistic(samples: &[(RouteFeatures, bool)], cfg: &SgdConfig) -> RerankModel {
    if samples.is_empty() {
        return RerankModel::zeroed();
    }
    let n = samples.len() as f64;
    let xs: Vec<[f64; NUM_FEATURES]> = samples.iter().map(|(f, _)| f.to_array()).collect();
    let mut means = [0.0f64; NUM_FEATURES];
    for x in &xs {
        for i in 0..NUM_FEATURES {
            means[i] += x[i];
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut scales = [0.0f64; NUM_FEATURES];
    for x in &xs {
        for i in 0..NUM_FEATURES {
            let d = x[i] - means[i];
            scales[i] += d * d;
        }
    }
    for s in &mut scales {
        *s = (*s / n).sqrt();
        // Constant features carry no signal; a unit scale keeps their
        // standardized value at a harmless 0.
        if !s.is_finite() || *s <= 1e-12 {
            *s = 1.0;
        }
    }
    let std: Vec<[f64; NUM_FEATURES]> = xs
        .iter()
        .map(|x| {
            let mut z = [0.0; NUM_FEATURES];
            for i in 0..NUM_FEATURES {
                z[i] = (x[i] - means[i]) / scales[i];
            }
            z
        })
        .collect();

    let mut w = [0.0f64; NUM_FEATURES];
    let mut b = 0.0f64;
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = cfg.seed | 1; // xorshift64* must not start at 0
    for _ in 0..cfg.epochs {
        // Fisher–Yates with a tiny deterministic xorshift64* generator.
        for i in (1..order.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for &idx in &order {
            let x = &std[idx];
            let y = if samples[idx].1 { 1.0 } else { 0.0 };
            let mut z = b;
            for i in 0..NUM_FEATURES {
                z += w[i] * x[i];
            }
            let err = sigmoid(z) - y;
            for i in 0..NUM_FEATURES {
                w[i] -= cfg.learning_rate * (err * x[i] + cfg.l2 * w[i]);
            }
            b -= cfg.learning_rate * err;
        }
    }
    RerankModel {
        weights: w.to_vec(),
        bias: b,
        means: means.to_vec(),
        scales: scales.to_vec(),
    }
}

/// What one re-ranking pass did — feeds the `hris_rerank_*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerankOutcome {
    /// Candidate routes scored by the model.
    pub rescored: usize,
    /// Whether the top-1 route changed relative to the paper order.
    pub top1_changed: bool,
}

/// [`PaperScorer`] plus a logistic re-rank of its top-K output.
///
/// The DP arithmetic is untouched; the learned model only permutes the
/// final list (stable sort on the learned score, descending), so ties —
/// including the all-tie produced by a zero model — preserve the paper
/// order exactly.
#[derive(Debug, Clone, Copy)]
pub struct LearnedScorer<'m> {
    paper: PaperScorer,
    model: &'m RerankModel,
}

impl<'m> LearnedScorer<'m> {
    /// Wraps a paper scorer with a learned re-ranking model.
    #[must_use]
    pub fn new(paper: PaperScorer, model: &'m RerankModel) -> Self {
        LearnedScorer { paper, model }
    }

    /// The wrapped paper scorer.
    #[must_use]
    pub fn paper(&self) -> &PaperScorer {
        &self.paper
    }

    /// The re-ranking model.
    #[must_use]
    pub fn model(&self) -> &RerankModel {
        self.model
    }

    /// Re-ranks an already-scored top-K list in place. `log_score` fields
    /// keep the honest paper scores; only the order changes.
    pub fn rerank_in_place(
        &self,
        ctx: &ScoringCtx<'_>,
        globals: &mut Vec<GlobalRoute>,
    ) -> RerankOutcome {
        if globals.len() < 2 {
            return RerankOutcome {
                rescored: globals.len(),
                top1_changed: false,
            };
        }
        let scores: Vec<f64> = globals
            .iter()
            .map(|g| {
                self.model.score(&extract_features(
                    ctx,
                    g,
                    self.paper.entropy_floor,
                    self.paper.model,
                ))
            })
            .collect();
        let mut order: Vec<usize> = (0..globals.len()).collect();
        // Stable: equal learned scores keep the paper (DP) order.
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        let top1_changed = order[0] != 0;
        let rescored = globals.len();
        if order.iter().enumerate().any(|(pos, &src)| pos != src) {
            let mut reordered: Vec<GlobalRoute> =
                order.iter().map(|&src| globals[src].clone()).collect();
            std::mem::swap(globals, &mut reordered);
        }
        RerankOutcome {
            rescored,
            top1_changed,
        }
    }
}

impl RouteScorer for LearnedScorer<'_> {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        let mut globals = self.paper.top_k(ctx);
        let _ = self.rerank_in_place(ctx, &mut globals);
        globals
    }

    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        let mut globals = self.paper.top_k_brute_force(ctx);
        let _ = self.rerank_in_place(ctx, &mut globals);
        globals
    }
}

/// The scorer a parameter set plus [`RerankOptions`] imply — the single
/// construction seam shared by the engine and the sharded router, so a
/// sharded deployment can never splice with a different scorer than its
/// shards (or than a single engine under the same config).
#[derive(Debug, Clone, Copy)]
pub enum ConfiguredScorer<'m> {
    /// Re-ranking off (the default): the paper scorer alone.
    Paper(PaperScorer),
    /// Re-ranking on: paper scorer + learned re-rank.
    Learned(LearnedScorer<'m>),
}

impl RouteScorer for ConfiguredScorer<'_> {
    fn name(&self) -> &'static str {
        match self {
            ConfiguredScorer::Paper(s) => s.name(),
            ConfiguredScorer::Learned(s) => s.name(),
        }
    }

    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        match self {
            ConfiguredScorer::Paper(s) => s.top_k(ctx),
            ConfiguredScorer::Learned(s) => s.top_k(ctx),
        }
    }

    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        match self {
            ConfiguredScorer::Paper(s) => s.top_k_brute_force(ctx),
            ConfiguredScorer::Learned(s) => s.top_k_brute_force(ctx),
        }
    }
}

/// Builds the scorer implied by `params` + `rerank`. Enabled options
/// without a model (only constructible by hand — the builder validates)
/// fall back to the paper scorer rather than guessing.
#[must_use]
pub fn configured_scorer<'m>(
    params: &HrisParams,
    rerank: &'m RerankOptions,
) -> ConfiguredScorer<'m> {
    let paper = PaperScorer::from_params(params);
    match (rerank.enabled, rerank.model.as_ref()) {
        (true, Some(model)) => ConfiguredScorer::Learned(LearnedScorer::new(paper, model)),
        _ => ConfiguredScorer::Paper(paper),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(log_score: f64) -> RouteFeatures {
        RouteFeatures {
            turn_count: 2.0,
            mean_pair_popularity: 1.5,
            min_pair_popularity: 0.5,
            transition_sum: -0.25,
            travel_time_residual: 0.1,
            length_ratio: 1.2,
            support_density: 3.0,
            log_score,
        }
    }

    #[test]
    fn sigmoid_bounds_and_monotonicity() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(50.0) > 0.999);
        assert!(sigmoid(-50.0) < 0.001);
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }

    #[test]
    fn zeroed_model_scores_half_everywhere() {
        let m = RerankModel::zeroed();
        assert!(m.is_valid());
        assert_eq!(m.score(&features(0.0)), 0.5);
        assert_eq!(m.score(&features(-7.0)), 0.5);
    }

    #[test]
    fn model_validity_rejects_bad_shapes_and_values() {
        let mut m = RerankModel::zeroed();
        m.weights.pop();
        assert!(!m.is_valid());
        let mut m = RerankModel::zeroed();
        m.bias = f64::NAN;
        assert!(!m.is_valid());
        let mut m = RerankModel::zeroed();
        m.scales[0] = 0.0;
        assert!(!m.is_valid());
        let mut m = RerankModel::zeroed();
        m.weights[3] = f64::INFINITY;
        assert!(!m.is_valid());
    }

    #[test]
    fn training_separates_a_linearly_separable_set() {
        // Positives have higher log_score; everything else constant.
        let samples: Vec<(RouteFeatures, bool)> = (0..40)
            .map(|i| {
                let pos = i % 2 == 0;
                let ls = if pos { -1.0 } else { -5.0 };
                (features(ls + (i as f64) * 1e-3), pos)
            })
            .collect();
        let model = train_logistic(&samples, &SgdConfig::default());
        assert!(model.is_valid());
        let hi = model.score(&features(-1.0));
        let lo = model.score(&features(-5.0));
        assert!(hi > 0.5, "positive class must score above ½, got {hi}");
        assert!(lo < 0.5, "negative class must score below ½, got {lo}");
    }

    #[test]
    fn training_is_deterministic() {
        let samples: Vec<(RouteFeatures, bool)> =
            (0..20).map(|i| (features(i as f64), i % 3 == 0)).collect();
        let a = train_logistic(&samples, &SgdConfig::default());
        let b = train_logistic(&samples, &SgdConfig::default());
        assert_eq!(a, b);
        let c = train_logistic(
            &samples,
            &SgdConfig {
                seed: 7,
                ..SgdConfig::default()
            },
        );
        // A different shuffle seed is allowed to land elsewhere; the point
        // is that each seed is reproducible.
        let c2 = train_logistic(
            &samples,
            &SgdConfig {
                seed: 7,
                ..SgdConfig::default()
            },
        );
        assert_eq!(c, c2);
    }

    #[test]
    fn empty_training_set_yields_noop_model() {
        let model = train_logistic(&[], &SgdConfig::default());
        assert_eq!(model, RerankModel::zeroed());
    }

    #[test]
    fn model_serde_round_trip() {
        let samples: Vec<(RouteFeatures, bool)> =
            (0..12).map(|i| (features(i as f64), i % 2 == 0)).collect();
        let model = train_logistic(&samples, &SgdConfig::default());
        let json = serde_json::to_string(&model).unwrap();
        let back: RerankModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
}
