//! HRIS parameters (Table II of the paper).

use hris_obs::TraceRing;
use hris_traj::SanitizeLimits;
use serde::{Deserialize, Serialize};

/// Which local-inference algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LocalAlgorithm {
    /// Traverse-graph based inference (Algorithm 1).
    Tgi,
    /// Nearest-neighbor based inference (Algorithm 2).
    Nni,
    /// Density-switched hybrid (Section III-B.3).
    #[default]
    Hybrid,
}

/// Which algorithm the hybrid picks below the density threshold `τ`.
///
/// The paper's prose says "if the density is lower than τ, TGI is selected",
/// but its own Figure 10 shows NNI *winning* at low density and TGI at high
/// density, and the surrounding discussion ("the performance of TGI and NNI
/// switch when ρ is about 200/km², therefore we can set τ = 200/km² so the
/// hybrid always adopts the better approach") only makes sense with the
/// Figure-10 polarity. We default to Figure 10 and expose both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HybridPolarity {
    /// Low density → NNI, high density → TGI (consistent with Figure 10).
    #[default]
    Fig10,
    /// Low density → TGI, high density → NNI (the prose reading).
    PaperText,
}

/// Which form of Equation 1 scores local-route popularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PopularityModel {
    /// Scale-free variant: mean per-segment support × entropy evenness
    /// (deviation D1 in EXPERIMENTS.md; robust when candidate routes of a
    /// pair differ in length).
    #[default]
    ScaleFree,
    /// The paper's literal Equation 1: `|⋃_r C_i(r)| · Σ −x(r)·log x(r)`.
    /// Exposed for the ablation experiment; biased toward longer routes
    /// when candidates differ in length.
    PaperLiteral,
}

/// All tunables of HRIS, with Table II defaults.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HrisParams {
    /// Reference search radius `φ`, metres (Table II: 500 m).
    pub phi_m: f64,
    /// Splicing distance threshold `e` for spliced references, metres.
    pub splice_eps_m: f64,
    /// Spliced references are only constructed when fewer simple references
    /// than this were found (the paper motivates splicing for sparse areas).
    pub splice_when_simple_below: usize,
    /// Per-pair cap on references, keeping the ones closest to the query
    /// points (Figure 9's "irrelevant trajectories" observation).
    pub max_refs_per_pair: usize,
    /// Candidate-edge radius `ε` (Definition 5), metres.
    pub candidate_eps_m: f64,
    /// Maximum candidate edges per query point used as KSP endpoints.
    pub max_query_candidates: usize,
    /// Hybrid density threshold `τ`, reference points per km²
    /// (Table II: 200/km²).
    pub tau_per_km2: f64,
    /// Which way the hybrid switches at `τ`.
    pub hybrid_polarity: HybridPolarity,
    /// Which local algorithm to run (Hybrid reproduces the paper's system).
    pub local_algorithm: LocalAlgorithm,
    /// λ-neighborhood radius in hops (Table II: 4).
    pub lambda: usize,
    /// `k₁` — K of the K-shortest-path search in TGI (Table II: 5).
    pub k1: usize,
    /// Popularity discount `γ` of traverse-graph link weights:
    /// `w(u→v) = chain_dist · (1 + γ / (1 + |C_i(v)|))`.
    ///
    /// The paper leaves the traverse-graph weights unspecified ("top-K
    /// shortest paths on this traverse graph") and relies on sparse Beijing
    /// coverage to make the graph selective. At our denser simulated scale
    /// a pure-distance weight collapses TGI into plain shortest paths, so
    /// the discount realises the paper's stated intuition — "heavily
    /// traversed but longer" beats "shortest but untravelled" — directly in
    /// the weight. Set to 0.0 for the paper-literal distance weighting.
    pub tgi_popularity_weight: f64,
    /// Whether TGI applies transitive graph reduction (Figure 11b ablation).
    pub tgi_use_reduction: bool,
    /// `k₂` — constrained-kNN fan-out in NNI (Table II: 4).
    pub k2: usize,
    /// `α` — NNI's away-from-destination tolerance, metres (Table II: 500 m).
    pub alpha_m: f64,
    /// `β` — NNI's detour-ratio tolerance (Table II: 1.5).
    pub beta: f64,
    /// Whether NNI shares common substructures via the transit graph
    /// (Figure 13b ablation).
    pub nni_share_substructures: bool,
    /// Cap on enumerated NNI transit-graph paths per pair.
    pub nni_max_paths: usize,
    /// Cap on local routes kept per pair (bounds the K-GRI DP width).
    pub max_local_routes: usize,
    /// Plausibility bound on local routes: a candidate longer than
    /// `max_detour_ratio ×` the shortest network path between the pair's
    /// candidate edges is discarded.
    ///
    /// Equation 1's popularity grows with segment count (entropy over more
    /// terms), so without this bound the scoring systematically prefers the
    /// longest wandering candidate. The paper's Beijing setting masks the
    /// bias because its candidate routes are all near-direct; our denser
    /// enumeration surfaces it, hence the explicit bound (see DESIGN.md).
    pub max_detour_ratio: f64,
    /// `k₃` — K of the global top-K route inference (Table II default used
    /// in the accuracy experiments; the paper computes accuracy on top-1).
    pub k3: usize,
    /// Small additive entropy floor so single-segment local routes do not
    /// zero out the multiplicative global score (see `local::route_popularity`).
    pub entropy_floor: f64,
    /// Which popularity formula scores local routes (ablation knob).
    pub popularity_model: PopularityModel,
    /// Time-of-day tolerance for reference search, seconds (`None`
    /// disables). The paper's future-work extension: references observed at
    /// an incompatible time of day are ignored, so diurnal travel patterns
    /// (morning vs evening flows) inform the inference.
    pub temporal_tolerance_s: Option<f64>,
}

impl Default for HrisParams {
    fn default() -> Self {
        HrisParams {
            phi_m: 500.0,
            splice_eps_m: 150.0,
            splice_when_simple_below: 64,
            max_refs_per_pair: 512,
            candidate_eps_m: 60.0,
            max_query_candidates: 3,
            tau_per_km2: 200.0,
            hybrid_polarity: HybridPolarity::default(),
            local_algorithm: LocalAlgorithm::default(),
            lambda: 4,
            k1: 5,
            tgi_popularity_weight: 1.0,
            tgi_use_reduction: true,
            k2: 4,
            alpha_m: 500.0,
            beta: 1.5,
            nni_share_substructures: true,
            nni_max_paths: 16,
            max_local_routes: 12,
            max_detour_ratio: 1.6,
            k3: 2,
            entropy_floor: 0.05,
            popularity_model: PopularityModel::default(),
            temporal_tolerance_s: None,
        }
    }
}

/// Observability knobs of the [`EngineHandle`](crate::handle::EngineHandle).
///
/// Disabled (the default), the engine performs **zero** clock reads and zero
/// metric updates on the hot path; enabled, it records per-phase wall times,
/// queue/worker gauges and cache counters on a
/// [`MetricsRegistry`](hris_obs::MetricsRegistry), plus one timed
/// [`TraceRecord`](hris_obs::TraceRecord) per query in the engine's query
/// log ([`EngineConfig::query_log`]). Like the rest of [`EngineConfig`],
/// none of these options may change any inferred route — they only spend a
/// little time on visibility.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsOptions {
    /// Master switch for engine instrumentation.
    pub enabled: bool,
    /// How many per-query [`TraceRecord`](hris_obs::TraceRecord)s the query
    /// log retains (oldest dropped first) — the one retention bound for
    /// traces and audits alike. `0` disables tracing while keeping the
    /// aggregate metrics, and is refused when explain is on.
    pub trace_capacity: usize,
    /// Queries slower than this wall time (seconds) are flagged `slow` in
    /// their trace and counted on `hris_engine_slow_queries_total`.
    pub slow_query_threshold_s: f64,
    /// Span-tree sampling period: one query in `span_sample_every` captures
    /// a live span tree (hierarchical phase spans with exemplar links into
    /// the latency histograms). `0` disables live capture. Slow queries
    /// that miss the sample still get a tree, synthesized from the phase
    /// timings already measured for the histograms — zero extra clock
    /// reads.
    pub span_sample_every: u64,
    /// `/healthz` staleness bound: a live engine whose newest archive
    /// snapshot is older than this many seconds reports its ingest check
    /// unhealthy (and `hris_snapshot_age_seconds` shows the age).
    pub staleness_bound_s: f64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: false,
            trace_capacity: 256,
            slow_query_threshold_s: 1.0,
            span_sample_every: 16,
            staleness_bound_s: 300.0,
        }
    }
}

/// Input-validation and graceful-degradation knobs of the
/// [`EngineHandle`](crate::handle::EngineHandle).
///
/// Validation is a *screen*, not a rewrite: a query that satisfies the
/// engine's input contract (finite, in-range, time-ordered points) takes
/// exactly the unvalidated code path and returns byte-identical results —
/// pinned by `tests/engine_robustness.rs`. Only contract-violating queries
/// enter the repair/degradation path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationOptions {
    /// Master switch. Off, the engine trusts its inputs like the plain
    /// [`Hris`](crate::Hris) pipeline does (hostile inputs may misbehave).
    pub enabled: bool,
    /// Magnitude limits separating "far away" from "corrupt".
    pub limits: SanitizeLimits,
    /// On the repair path, retry a pair whose local inference came up empty
    /// with TGI then NNI explicitly before the shortest-path fallback.
    pub algorithm_fallback: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            enabled: true,
            limits: SanitizeLimits::default(),
            algorithm_fallback: true,
        }
    }
}

/// Admission-control policy for the owned serving fronts
/// ([`EngineHandle`](crate::handle::EngineHandle) and the sharded router).
///
/// Off by default: the engine then behaves exactly as before this option
/// existed — every request runs, none shed. Enabled, at most
/// `max_inflight` queries execute concurrently, up to `max_queued` more
/// wait in a bounded waiting room, and anything beyond that is shed
/// immediately with `Rejected{Overloaded}` (counted in
/// `hris_engine_shed_total` and the SLO burn counters). Batches are
/// admitted as a unit — one permit per `infer_batch_detailed` call — so a batch
/// is never half-shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionOptions {
    /// Master switch; off means unbounded (pre-admission behaviour).
    pub enabled: bool,
    /// Concurrent requests allowed to execute. Must be ≥ 1 when enabled
    /// (validated at build time).
    pub max_inflight: usize,
    /// Requests allowed to wait for an execution slot; `0` sheds as soon
    /// as all slots are busy.
    pub max_queued: usize,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            enabled: false,
            max_inflight: 64,
            max_queued: 256,
        }
    }
}

/// Learned re-ranking of the K-GRI top-K output
/// ([`LearnedScorer`](crate::scoring::LearnedScorer)).
///
/// Off by default: the engine then scores with
/// [`PaperScorer`](crate::scoring::PaperScorer) alone and behaves exactly
/// as before this option existed, byte for byte. Enabled, the refine
/// phase re-orders the top-K list by the logistic model's score (stable —
/// ties keep the paper order); `log_score` fields keep the honest paper
/// scores. The sharded router applies the same options at its seam
/// splice, so sharded and single-engine outputs stay identical.
///
/// Enabling requires a [`RerankModel`](crate::scoring::RerankModel);
/// [`EngineConfigBuilder::rerank`] sets both and
/// [`EngineConfigBuilder::build`] validates the model's shape and
/// finiteness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RerankOptions {
    /// Master switch; off means pure paper scoring (the default).
    pub enabled: bool,
    /// The learned weights. Required when `enabled` (validated at build
    /// time); ignored otherwise.
    pub model: Option<crate::scoring::RerankModel>,
}

/// Opt-in explain/audit capture for the
/// [`EngineHandle`](crate::handle::EngineHandle) and the sharded router.
///
/// Off by default: the engine then performs zero extra work per query —
/// the disabled path stays byte-identical to the pre-explain engine and
/// keeps the zero-clock-read guarantee (both test-enforced). Enabled, each
/// query's record in the query log ([`EngineConfig::query_log`])
/// additionally carries a structured [`QueryAudit`](crate::QueryAudit) —
/// candidate counts per point, the top-K routes with their paper score
/// components, the rerank feature vector with per-feature attributions, and
/// any fallback/repair/shed events — as
/// [`TraceRecord::audit`](hris_obs::TraceRecord), served from
/// `/debug/explain/<trace_id>` and exportable via
/// `experiments --audit-out`. The log keeps
/// [`ObsOptions::trace_capacity`] records, which must be ≥ 1 (validated at
/// build time). Explain does not need observability: without it the
/// records carry counts and the audit, but no timings and no clock reads.
/// Like observability, explain may never change an inferred route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplainOptions {
    /// Master switch; off means no audits and no per-query overhead.
    pub enabled: bool,
    /// How many of the returned routes get a full per-route explanation
    /// (score components + rerank attributions) in each audit.
    pub top_k_routes: usize,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            enabled: false,
            top_k_routes: 3,
        }
    }
}

/// Serving options of the [`EngineHandle`](crate::handle::EngineHandle);
/// separate from [`HrisParams`] because none of them may change any
/// inferred route *for valid inputs* — they switch on visibility, load
/// shedding and re-ranking, plus the dirty-input screen of
/// [`ValidationOptions`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Runtime observability (off by default; zero overhead when off).
    pub obs: ObsOptions,
    /// Input validation and degraded-mode handling (on by default; clean
    /// inputs are unaffected byte for byte).
    pub validation: ValidationOptions,
    /// Admission control / load shedding (off by default; zero cost and
    /// zero behaviour change when off).
    pub admission: AdmissionOptions,
    /// Learned re-ranking of the top-K output (off by default; the paper
    /// scorer alone, byte-identical to the pre-rerank engine).
    pub rerank: RerankOptions,
    /// Per-query explain/audit capture (off by default; zero overhead and
    /// byte-identical outputs when off).
    pub explain: ExplainOptions,
}

impl EngineConfig {
    /// A builder over the default configuration, with validation at
    /// [`EngineConfigBuilder::build`]. This is the preferred way to
    /// construct a non-default configuration.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// A new, empty query log for a front serving this configuration: the
    /// one bounded [`TraceRing`] its per-query records (timings when
    /// tracing, audits when explaining) go into. Present iff tracing
    /// (`obs.enabled` with a nonzero `obs.trace_capacity`) or explain is
    /// on; `None` is the zero-overhead gate of the disabled path.
    #[must_use]
    pub fn query_log(&self) -> Option<TraceRing> {
        let tracing = self.obs.enabled && self.obs.trace_capacity > 0;
        (tracing || self.explain.enabled).then(|| TraceRing::new(self.obs.trace_capacity))
    }

    /// The default configuration with input validation switched off
    /// (trust-the-caller mode; the pre-robustness contract).
    #[must_use]
    pub fn unvalidated() -> Self {
        EngineConfig {
            validation: ValidationOptions {
                enabled: false,
                ..ValidationOptions::default()
            },
            ..EngineConfig::default()
        }
    }
}

/// Why [`EngineConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The slow-query threshold must be a positive, finite number of
    /// seconds; the offending value is carried along.
    NonPositiveSlowQueryThreshold(f64),
    /// The ingest staleness bound must be a positive, finite number of
    /// seconds; the offending value is carried along.
    NonPositiveStalenessBound(f64),
    /// Admission control was enabled with `max_inflight == 0` — a gate
    /// nobody can enter would shed every request.
    ZeroAdmissionSlots,
    /// Re-ranking was enabled without a model to rank with.
    RerankWithoutModel,
    /// Explain was enabled with `obs.trace_capacity == 0` — a query log
    /// that keeps nothing would silently drop every audit.
    ZeroAuditCapacity,
    /// The supplied re-ranking model is structurally invalid: wrong
    /// dimensions, non-finite parameters, or non-positive scales.
    InvalidRerankModel,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveSlowQueryThreshold(v) => write!(
                f,
                "slow_query_threshold_s must be positive and finite, got {v}"
            ),
            ConfigError::NonPositiveStalenessBound(v) => {
                write!(f, "staleness_bound_s must be positive and finite, got {v}")
            }
            ConfigError::ZeroAdmissionSlots => {
                f.write_str("admission control needs max_inflight >= 1")
            }
            ConfigError::RerankWithoutModel => {
                f.write_str("re-ranking needs a model (pass one to rerank())")
            }
            ConfigError::ZeroAuditCapacity => {
                f.write_str("explain needs trace_capacity >= 1 to retain any audit")
            }
            ConfigError::InvalidRerankModel => f.write_str(
                "re-ranking model is invalid: expect NUM_FEATURES weights/means/scales, \
                 all finite, scales positive",
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`EngineConfig`], created by
/// [`EngineConfig::builder`]. Starts from the default configuration;
/// every setter is chainable and [`EngineConfigBuilder::build`] rejects
/// nonsensical combinations instead of silently misbehaving at runtime.
///
/// ```
/// use hris::params::EngineConfig;
///
/// let cfg = EngineConfig::builder()
///     .observability(true)
///     .slow_query_threshold_s(0.5)
///     .build()
///     .expect("valid configuration");
/// assert!(cfg.obs.enabled);
///
/// assert!(EngineConfig::builder().slow_query_threshold_s(0.0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Master switch for engine instrumentation.
    #[must_use]
    pub fn observability(mut self, on: bool) -> Self {
        self.cfg.obs.enabled = on;
        self
    }

    /// How many per-query records the query log retains, for traces and
    /// audits alike (`0` keeps aggregate metrics but disables tracing, and
    /// is refused with explain on).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.cfg.obs.trace_capacity = capacity;
        self
    }

    /// Wall-time threshold (seconds) above which a query is flagged slow.
    /// Must be positive and finite; validated at build time.
    #[must_use]
    pub fn slow_query_threshold_s(mut self, seconds: f64) -> Self {
        self.cfg.obs.slow_query_threshold_s = seconds;
        self
    }

    /// Span-tree sampling period: one query in `every` captures a live
    /// span tree (`0` disables live capture; slow queries always get a
    /// synthesized tree).
    #[must_use]
    pub fn span_sampling(mut self, every: u64) -> Self {
        self.cfg.obs.span_sample_every = every;
        self
    }

    /// `/healthz` ingest staleness bound in seconds. Must be positive and
    /// finite; validated at build time.
    #[must_use]
    pub fn staleness_bound_s(mut self, seconds: f64) -> Self {
        self.cfg.obs.staleness_bound_s = seconds;
        self
    }

    /// Master switch for input validation / graceful degradation.
    #[must_use]
    pub fn validation(mut self, on: bool) -> Self {
        self.cfg.validation.enabled = on;
        self
    }

    /// On the repair path, whether to retry empty pairs with TGI/NNI forced
    /// before the shortest-path fallback.
    #[must_use]
    pub fn algorithm_fallback(mut self, on: bool) -> Self {
        self.cfg.validation.algorithm_fallback = on;
        self
    }

    /// Magnitude limits separating "far away" from "corrupt" input.
    #[must_use]
    pub fn sanitize_limits(mut self, limits: SanitizeLimits) -> Self {
        self.cfg.validation.limits = limits;
        self
    }

    /// Enables admission control with the given execution-slot and
    /// waiting-room bounds. `max_inflight` must be ≥ 1 (validated at
    /// build time); `max_queued` of 0 sheds the moment all slots are
    /// busy.
    #[must_use]
    pub fn admission(mut self, max_inflight: usize, max_queued: usize) -> Self {
        self.cfg.admission = AdmissionOptions {
            enabled: true,
            max_inflight,
            max_queued,
        };
        self
    }

    /// Disables admission control (the default: never shed).
    #[must_use]
    pub fn without_admission(mut self) -> Self {
        self.cfg.admission.enabled = false;
        self
    }

    /// Enables learned re-ranking of the top-K output with the given
    /// model. The model's shape and finiteness are validated at build
    /// time.
    #[must_use]
    pub fn rerank(mut self, model: crate::scoring::RerankModel) -> Self {
        self.cfg.rerank = RerankOptions {
            enabled: true,
            model: Some(model),
        };
        self
    }

    /// Disables learned re-ranking (the default: paper scoring alone).
    #[must_use]
    pub fn without_rerank(mut self) -> Self {
        self.cfg.rerank.enabled = false;
        self
    }

    /// Master switch for per-query explain/audit capture. The audits share
    /// the query log's [`trace_capacity`](Self::trace_capacity) bound,
    /// which must then be ≥ 1 (validated at build time).
    #[must_use]
    pub fn explain(mut self, on: bool) -> Self {
        self.cfg.explain.enabled = on;
        self
    }

    /// How many returned routes get a full per-route explanation in each
    /// audit.
    #[must_use]
    pub fn explain_top_k(mut self, routes: usize) -> Self {
        self.cfg.explain.top_k_routes = routes;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// The first [`ConfigError`] the configuration violates, e.g.
    /// [`ConfigError::NonPositiveSlowQueryThreshold`] when the slow-query
    /// threshold is zero, negative, or non-finite.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let threshold = self.cfg.obs.slow_query_threshold_s;
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(ConfigError::NonPositiveSlowQueryThreshold(threshold));
        }
        let staleness = self.cfg.obs.staleness_bound_s;
        if !(staleness.is_finite() && staleness > 0.0) {
            return Err(ConfigError::NonPositiveStalenessBound(staleness));
        }
        if self.cfg.admission.enabled && self.cfg.admission.max_inflight == 0 {
            return Err(ConfigError::ZeroAdmissionSlots);
        }
        if self.cfg.rerank.enabled {
            match &self.cfg.rerank.model {
                None => return Err(ConfigError::RerankWithoutModel),
                Some(model) if !model.is_valid() => return Err(ConfigError::InvalidRerankModel),
                Some(_) => {}
            }
        }
        if self.cfg.explain.enabled && self.cfg.obs.trace_capacity == 0 {
            return Err(ConfigError::ZeroAuditCapacity);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let p = HrisParams::default();
        assert_eq!(p.phi_m, 500.0);
        assert_eq!(p.tau_per_km2, 200.0);
        assert_eq!(p.lambda, 4);
        assert_eq!(p.k1, 5);
        assert_eq!(p.k2, 4);
        assert_eq!(p.alpha_m, 500.0);
        assert_eq!(p.beta, 1.5);
    }

    #[test]
    fn builder_accepts_valid_configurations() {
        let cfg = EngineConfig::builder()
            .observability(true)
            .trace_capacity(16)
            .slow_query_threshold_s(0.25)
            .span_sampling(4)
            .staleness_bound_s(30.0)
            .validation(true)
            .algorithm_fallback(false)
            .build()
            .expect("valid configuration");
        assert!(cfg.obs.enabled);
        assert_eq!(cfg.obs.trace_capacity, 16);
        assert_eq!(cfg.obs.slow_query_threshold_s, 0.25);
        assert_eq!(cfg.obs.span_sample_every, 4);
        assert_eq!(cfg.obs.staleness_bound_s, 30.0);
        assert!(!cfg.validation.algorithm_fallback);
        // The untouched builder yields exactly the default configuration.
        let built = EngineConfig::builder().build().unwrap();
        assert_eq!(
            serde_json::to_string(&built).unwrap(),
            serde_json::to_string(&EngineConfig::default()).unwrap()
        );
    }

    #[test]
    fn builder_rejects_bad_slow_query_threshold() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = EngineConfig::builder()
                .slow_query_threshold_s(bad)
                .build()
                .expect_err("threshold must be rejected");
            assert!(matches!(err, ConfigError::NonPositiveSlowQueryThreshold(_)));
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn builder_rejects_bad_staleness_bound() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = EngineConfig::builder()
                .staleness_bound_s(bad)
                .build()
                .expect_err("staleness bound must be rejected");
            assert!(matches!(err, ConfigError::NonPositiveStalenessBound(_)));
            assert!(!err.to_string().is_empty());
        }
        // Span sampling accepts any period, 0 meaning "live capture off".
        let cfg = EngineConfig::builder().span_sampling(0).build().unwrap();
        assert_eq!(cfg.obs.span_sample_every, 0);
    }

    #[test]
    fn builder_validates_rerank_model() {
        use crate::scoring::RerankModel;
        let cfg = EngineConfig::builder()
            .rerank(RerankModel::zeroed())
            .build()
            .expect("zeroed model is structurally valid");
        assert!(cfg.rerank.enabled);
        assert!(cfg.rerank.model.is_some());

        let mut bad = RerankModel::zeroed();
        bad.weights[0] = f64::NAN;
        let err = EngineConfig::builder()
            .rerank(bad)
            .build()
            .expect_err("non-finite weights must be rejected");
        assert_eq!(err, ConfigError::InvalidRerankModel);
        assert!(!err.to_string().is_empty());

        let mut short = RerankModel::zeroed();
        short.weights.pop();
        assert_eq!(
            EngineConfig::builder().rerank(short).build().unwrap_err(),
            ConfigError::InvalidRerankModel
        );

        // Enabling then disabling wins.
        let mut zero_scale = RerankModel::zeroed();
        zero_scale.scales[0] = 0.0;
        let cfg = EngineConfig::builder()
            .rerank(zero_scale)
            .without_rerank()
            .build()
            .expect("disabled re-ranking skips model validation");
        assert!(!cfg.rerank.enabled);
    }

    #[test]
    fn builder_validates_explain_options() {
        let cfg = EngineConfig::builder()
            .explain(true)
            .trace_capacity(64)
            .explain_top_k(5)
            .build()
            .expect("valid explain configuration");
        assert!(cfg.explain.enabled);
        assert_eq!(cfg.explain.top_k_routes, 5);
        let log = cfg.query_log().expect("explain keeps a query log");
        assert_eq!(log.capacity(), 64);
        assert_eq!(
            EngineConfig::builder()
                .explain(true)
                .trace_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroAuditCapacity
        );
        assert!(!ConfigError::ZeroAuditCapacity.to_string().is_empty());
        let cfg = EngineConfig::builder()
            .explain(true)
            .trace_capacity(0)
            .explain(false)
            .build()
            .expect("disabled explain skips capacity validation");
        assert!(!cfg.explain.enabled);
    }

    #[test]
    fn query_log_exists_iff_tracing_or_explain_is_on() {
        let log = |obs: bool, capacity: usize, explain: bool| {
            let mut cfg = EngineConfig::default();
            cfg.obs.enabled = obs;
            cfg.obs.trace_capacity = capacity;
            cfg.explain.enabled = explain;
            cfg.query_log().map(|r| r.capacity())
        };
        assert_eq!(log(false, 256, false), None, "the default keeps no log");
        assert_eq!(log(true, 0, false), None, "aggregates only");
        assert_eq!(log(true, 8, false), Some(8));
        assert_eq!(log(false, 8, true), Some(8), "explain without obs");
        assert_eq!(log(true, 8, true), Some(8), "one log for both");
    }

    #[test]
    fn serde_roundtrip() {
        let p = HrisParams {
            k1: 9,
            local_algorithm: LocalAlgorithm::Tgi,
            ..HrisParams::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let q: HrisParams = serde_json::from_str(&json).unwrap();
        assert_eq!(q.k1, 9);
        assert_eq!(q.local_algorithm, LocalAlgorithm::Tgi);
    }
}
