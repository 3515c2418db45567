//! The explain/audit document schema: *why* a query returned what it did.
//!
//! Aggregate metrics say how the engine is doing; a [`QueryAudit`] says what
//! one specific query saw — how many candidate edges each point matched, how
//! many local routes each pair produced, the top-K global routes with the
//! paper's own score and the re-ranker's feature vector and per-feature
//! weight·feature attributions, and any fallback/repair/shed events along
//! the way. Audits are opt-in ([`ExplainOptions`](crate::params::ExplainOptions)),
//! rendered once to JSON, and carried in the query's own
//! [`TraceRecord::audit`](hris_obs::TraceRecord) in the engine's or
//! router's one query log, where `/debug/explain/<trace_id>` and
//! `experiments --audit-out` find them.
//!
//! The schema lives here (not in `hris-obs`) because it is defined by the
//! paper's pipeline: score components are Equation 1/2 quantities and the
//! feature vector is [`FEATURE_NAMES`] order.

use crate::global::GlobalRoute;
use crate::params::{HrisParams, PopularityModel};
use crate::scoring::{extract_features, RerankModel, RouteFeatures, ScoringCtx, FEATURE_NAMES};

/// JSON string escaping for event text (feature names are static and safe).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite f64 as a JSON number, non-finite as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `[f64]` zipped with [`FEATURE_NAMES`] as one JSON object.
fn feature_object(values: &[f64]) -> String {
    let body = FEATURE_NAMES
        .iter()
        .zip(values)
        .map(|(name, &v)| format!("\"{name}\":{}", json_f64(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

/// One returned route, explained: the paper's score, the route's shape, and
/// — when a re-ranking model is configured — the feature vector the model
/// saw plus each feature's contribution `wᵢ·(xᵢ−μᵢ)/σᵢ` to the logit.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteExplanation {
    /// Position in the returned list (0 = top-1).
    pub rank: usize,
    /// The paper's `ln s(R)` (Equations 1 and 2 through K-GRI).
    pub log_score: f64,
    /// Road segments on the stitched route.
    pub segments: usize,
    /// Route length in metres.
    pub length_m: f64,
    /// Which local route was chosen for each query pair.
    pub local_indices: Vec<usize>,
    /// The re-ranking feature vector ([`FEATURE_NAMES`] order).
    pub features: RouteFeatures,
    /// The logistic model's score, when re-ranking is configured.
    pub rerank_score: Option<f64>,
    /// Per-feature logit contributions (parallel to [`FEATURE_NAMES`]),
    /// when re-ranking is configured.
    pub attributions: Option<Vec<f64>>,
}

impl RouteExplanation {
    /// Explains one candidate: extracts its features (with the same
    /// popularity knobs the scorer used, so the components line up with
    /// the DP's own `f`) and, given a model, scores and attributes it.
    #[must_use]
    pub fn explain(
        ctx: &ScoringCtx<'_>,
        candidate: &GlobalRoute,
        rank: usize,
        entropy_floor: f64,
        model: PopularityModel,
        rerank: Option<&RerankModel>,
    ) -> Self {
        let features = extract_features(ctx, candidate, entropy_floor, model);
        let (rerank_score, attributions) = match rerank {
            Some(m) => {
                let x = features.to_array();
                let attrs = (0..x.len())
                    .map(|i| m.weights[i] * (x[i] - m.means[i]) / m.scales[i])
                    .collect();
                (Some(m.score(&features)), Some(attrs))
            }
            None => (None, None),
        };
        RouteExplanation {
            rank,
            log_score: candidate.log_score,
            segments: candidate.route.len(),
            length_m: candidate.route.length(ctx.net),
            local_indices: candidate.local_indices.clone(),
            features,
            rerank_score,
            attributions,
        }
    }

    /// This explanation as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let indices = self
            .local_indices
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let rerank = match self.rerank_score {
            Some(s) => json_f64(s),
            None => "null".to_string(),
        };
        let attributions = match &self.attributions {
            Some(a) => feature_object(a),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"rank\":{},\"log_score\":{},\"segments\":{},\"length_m\":{},",
                "\"local_indices\":[{}],\"features\":{},",
                "\"rerank_score\":{},\"attributions\":{}}}"
            ),
            self.rank,
            json_f64(self.log_score),
            self.segments,
            json_f64(self.length_m),
            indices,
            feature_object(&self.features.to_array()),
            rerank,
            attributions,
        )
    }
}

/// The audit document of one query: identity, per-stage counts, the
/// explained top-K routes, and every noteworthy event on the way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryAudit {
    /// The trace id tying this audit to its span tree and trace record.
    pub trace_id: u64,
    /// The `query_id` of the log record carrying this audit.
    pub query_id: u64,
    /// Query points.
    pub points: usize,
    /// Consecutive point pairs inferred.
    pub pairs: usize,
    /// How the query ended: `"served"`, `"repaired"`, `"degraded"`,
    /// `"rejected"` or `"shed"` (details in `events`).
    pub outcome: String,
    /// Candidate edges matched per query point, in point order.
    pub candidates_per_point: Vec<usize>,
    /// Local routes produced per pair, in pair order.
    pub local_routes_per_pair: Vec<usize>,
    /// Which scorer ranked the routes (`"paper"` or `"learned"`).
    pub scorer: String,
    /// The explained routes, best first (capped at
    /// [`ExplainOptions::top_k_routes`](crate::params::ExplainOptions)).
    pub routes: Vec<RouteExplanation>,
    /// Fallback / repair / reroute / shed events, in order of occurrence.
    pub events: Vec<String>,
}

impl QueryAudit {
    /// The audit of a query that never reached inference — shed at the
    /// gate or rejected by validation: identity, sizes, the outcome and
    /// the one event saying why, no routes.
    #[must_use]
    pub fn event_only(trace_id: u64, points: usize, outcome: &str, event: String) -> Self {
        QueryAudit {
            trace_id,
            points,
            pairs: points.saturating_sub(1),
            outcome: outcome.to_string(),
            scorer: "none".to_string(),
            events: vec![event],
            ..QueryAudit::default()
        }
    }

    /// Appends one event line.
    pub fn push_event(&mut self, event: impl Into<String>) {
        self.events.push(event.into());
    }

    /// Explains the first `top_k` returned routes into
    /// [`QueryAudit::routes`]: paper score components and feature vector,
    /// extracted with the popularity knobs the scorer used, plus — given
    /// the configured `rerank` model — the model's score and per-feature
    /// attributions.
    pub fn explain_routes(
        &mut self,
        sctx: &ScoringCtx<'_>,
        globals: &[GlobalRoute],
        top_k: usize,
        params: &HrisParams,
        rerank: Option<&RerankModel>,
    ) {
        self.routes = globals
            .iter()
            .take(top_k)
            .enumerate()
            .map(|(rank, g)| {
                RouteExplanation::explain(
                    sctx,
                    g,
                    rank,
                    params.entropy_floor,
                    params.popularity_model,
                    rerank,
                )
            })
            .collect();
    }

    /// This audit as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts = |v: &[usize]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let routes = self
            .routes
            .iter()
            .map(RouteExplanation::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let events = self
            .events
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"trace_id\":{},\"query_id\":{},\"points\":{},\"pairs\":{},",
                "\"outcome\":\"{}\",\"candidates_per_point\":[{}],",
                "\"local_routes_per_pair\":[{}],\"scorer\":\"{}\",",
                "\"routes\":[{}],\"events\":[{}]}}"
            ),
            self.trace_id,
            self.query_id,
            self.points,
            self.pairs,
            escape(&self.outcome),
            counts(&self.candidates_per_point),
            counts(&self.local_routes_per_pair),
            escape(&self.scorer),
            routes,
            events,
        )
    }

    /// A rendered audit refiled under another log's `query_id` — how a
    /// router's record carries the audit a shard wrote under the shard's
    /// sequence. `json` must come from [`QueryAudit::to_json`], whose
    /// `query_id` is the second key; anything else is returned unchanged.
    #[must_use]
    pub fn refile(json: &str, query_id: u64) -> String {
        const KEY: &str = ",\"query_id\":";
        let Some(at) = json.find(KEY).map(|i| i + KEY.len()) else {
            return json.to_string();
        };
        let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
        format!("{}{query_id}{}", &json[..at], &json[at + digits..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_json_shape_and_escaping() {
        let mut audit = QueryAudit {
            trace_id: 7,
            query_id: 3,
            points: 4,
            pairs: 3,
            outcome: "served".to_string(),
            candidates_per_point: vec![2, 3, 1, 2],
            local_routes_per_pair: vec![5, 4, 6],
            scorer: "paper".to_string(),
            ..QueryAudit::default()
        };
        audit.push_event("repair: pair 1 fell back to \"shortest path\"");
        let j = audit.to_json();
        assert!(j.starts_with("{\"trace_id\":7,\"query_id\":3,"));
        assert!(j.contains("\"candidates_per_point\":[2,3,1,2]"));
        assert!(j.contains("\"local_routes_per_pair\":[5,4,6]"));
        assert!(j.contains("fell back to \\\"shortest path\\\""));
        assert!(j.contains("\"routes\":[]"));
        assert!(serde_json::from_str::<serde_json::Value>(&j).is_ok());
        assert!(j.contains("\"outcome\":\"served\""));
    }

    #[test]
    fn event_only_audits_carry_no_routes() {
        let audit = QueryAudit::event_only(9, 4, "shed", "admission: full".to_string());
        assert_eq!((audit.points, audit.pairs), (4, 3));
        assert_eq!(audit.scorer, "none");
        assert_eq!(audit.events, vec!["admission: full".to_string()]);
        assert!(audit.routes.is_empty());
        assert_eq!(
            QueryAudit::event_only(1, 0, "rejected", String::new()).pairs,
            0
        );
    }

    #[test]
    fn refile_replaces_only_the_query_id() {
        let mut audit = QueryAudit::event_only(12, 2, "rejected", "x".to_string());
        audit.query_id = 345;
        let refiled = QueryAudit::refile(&audit.to_json(), 7);
        audit.query_id = 7;
        assert_eq!(refiled, audit.to_json());
        assert_eq!(QueryAudit::refile("{}", 7), "{}");
    }

    #[test]
    fn route_explanation_renders_features_and_null_rerank() {
        let expl = RouteExplanation {
            rank: 0,
            log_score: -2.5,
            segments: 9,
            length_m: 1234.5,
            local_indices: vec![0, 2],
            features: RouteFeatures {
                turn_count: 1.0,
                mean_pair_popularity: 3.0,
                min_pair_popularity: 2.0,
                transition_sum: -0.5,
                travel_time_residual: 0.1,
                length_ratio: 1.2,
                support_density: 0.4,
                log_score: -2.5,
            },
            rerank_score: None,
            attributions: None,
        };
        let j = expl.to_json();
        assert!(j.contains("\"rank\":0"));
        assert!(j.contains("\"local_indices\":[0,2]"));
        assert!(j.contains("\"features\":{\"turn_count\":1,"));
        assert!(j.contains("\"rerank_score\":null"));
        assert!(j.contains("\"attributions\":null"));
        assert!(serde_json::from_str::<serde_json::Value>(&j).is_ok());
    }

    #[test]
    fn attributions_follow_the_model_arithmetic() {
        let features = RouteFeatures {
            turn_count: 2.0,
            mean_pair_popularity: 0.0,
            min_pair_popularity: 0.0,
            transition_sum: 0.0,
            travel_time_residual: 0.0,
            length_ratio: 1.0,
            support_density: 0.0,
            log_score: 0.0,
        };
        let mut model = RerankModel::zeroed();
        model.weights[0] = 0.5; // turn_count
        model.means[0] = 1.0;
        model.scales[0] = 2.0;
        let x = features.to_array();
        let contribution = model.weights[0] * (x[0] - model.means[0]) / model.scales[0];
        assert!((contribution - 0.25).abs() < 1e-12);
        // The same arithmetic the explain constructor applies per feature.
        let attrs: Vec<f64> = (0..x.len())
            .map(|i| model.weights[i] * (x[i] - model.means[i]) / model.scales[i])
            .collect();
        assert_eq!(attrs[0], contribution);
        assert!(attrs[1..].iter().all(|&a| a == 0.0));
    }
}
