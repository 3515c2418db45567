//! Evaluation runners: matcher/HRIS accuracy and running time over a
//! scenario's query workload.
//!
//! Accuracy evaluations run the reference [`Hris`] pipeline: queries are
//! resampled up front and fanned out across the thread pool, and
//! `mean_time_s` is the wall time of the whole workload divided by the
//! query count — per-query cost as a batch consumer actually pays it.
//! Baseline matchers fan out across queries with the same thread pool. The
//! observed and audit runs go through the [`EngineHandle`], whose answers
//! are byte-identical to `Hris`'s.

use crate::metrics::accuracy_al;
use crate::scenario::Scenario;
use hris::local::LocalStats;
use hris::prelude::*;
use hris_mapmatch::MapMatcher;
use hris_obs::{MetricsSnapshot, TraceRecord};
use hris_traj::{resample_to_interval, Trajectory, TrajectoryArchive};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The engine's four pipeline phases, in execution order.
pub const PHASES: [&str; 4] = ["candidates", "local", "global", "refine"];

/// Aggregated outcome of one evaluation sweep cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOutcome {
    /// Mean `A_L` accuracy over queries.
    pub mean_accuracy: f64,
    /// Mean per-query wall time, seconds.
    pub mean_time_s: f64,
    /// Number of evaluated queries.
    pub queries: usize,
    /// Mean reference-point density observed by local inference (ρ, per
    /// km²); 0 for baseline matchers.
    pub mean_density: f64,
    /// Mean constrained-kNN searches per query (NNI instrumentation).
    pub mean_knn_searches: f64,
}

/// Evaluates a baseline map matcher at the given sampling interval.
#[must_use]
pub fn evaluate_matcher<M: MapMatcher + Sync>(
    scenario: &Scenario,
    matcher: &M,
    interval_s: f64,
) -> EvalOutcome {
    let results: Vec<(f64, f64, f64, f64)> = scenario
        .queries
        .par_iter()
        .map(|q| {
            let query = resample_to_interval(&q.dense, interval_s);
            let t0 = Instant::now();
            let matched = matcher.match_trajectory(&scenario.net, &query);
            let dt = t0.elapsed().as_secs_f64();
            let acc = matched
                .map(|m| accuracy_al(&q.truth, &m.route, &scenario.net))
                .unwrap_or(0.0);
            (acc, dt, 0.0, 0.0)
        })
        .collect();
    aggregate(&results)
}

/// Resamples every query of the scenario to the evaluation interval.
fn resampled(scenario: &Scenario, interval_s: f64) -> Vec<Trajectory> {
    scenario
        .queries
        .iter()
        .map(|q| resample_to_interval(&q.dense, interval_s))
        .collect()
}

/// Evaluates HRIS (top-1 accuracy, Section IV-C protocol) at the given
/// sampling interval under `params`, optionally over a thinned archive.
#[must_use]
pub fn evaluate_hris(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    archive_override: Option<&TrajectoryArchive>,
) -> EvalOutcome {
    let archive = archive_override.unwrap_or(&scenario.archive);
    let hris = Hris::new(&scenario.net, archive.clone(), params.clone());
    let queries = resampled(scenario, interval_s);

    let t0 = Instant::now();
    let detailed: Vec<(Vec<GlobalRoute>, Vec<LocalStats>)> = queries
        .par_iter()
        .map(|q| hris.infer_routes_detailed(q, params.k3.max(1)))
        .collect();
    let per_query_s = t0.elapsed().as_secs_f64() / queries.len().max(1) as f64;
    score_top1(scenario, &detailed, per_query_s)
}

/// Top-1 accuracy, density and kNN work of each query's answer, aggregated.
fn score_top1(
    scenario: &Scenario,
    detailed: &[(Vec<GlobalRoute>, Vec<LocalStats>)],
    per_query_s: f64,
) -> EvalOutcome {
    let results: Vec<(f64, f64, f64, f64)> = detailed
        .iter()
        .zip(&scenario.queries)
        .map(|((globals, stats), q)| {
            let acc = globals
                .first()
                .map(|g| accuracy_al(&q.truth, &g.route, &scenario.net))
                .unwrap_or(0.0);
            let density = mean(stats.iter().map(|s| s.density).filter(|d| d.is_finite()));
            let knn = stats.iter().map(|s| s.knn_searches).sum::<usize>() as f64;
            (acc, per_query_s, density, knn)
        })
        .collect();
    aggregate(&results)
}

/// The serving engine over the scenario's network (a clone keeps the
/// network's identity, so the archive's projection rows still apply).
fn serving(
    scenario: &Scenario,
    archive: &TrajectoryArchive,
    params: &HrisParams,
    cfg: EngineConfig,
) -> EngineHandle {
    EngineHandle::with_config(
        Arc::new(scenario.net.clone()),
        archive.clone(),
        params.clone(),
        cfg,
    )
}

/// Observability artifacts of one instrumented evaluation run: the final
/// registry snapshot, the retained per-query traces, and the measured batch
/// wall time the phase sums should account for.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Registry state at the end of the run.
    pub snapshot: MetricsSnapshot,
    /// Per-query records, oldest first (bounded by the query log).
    pub traces: Vec<TraceRecord>,
    /// Records evicted from the query log during the run.
    pub traces_dropped: u64,
    /// Wall seconds of the whole batch, measured outside the engine.
    pub wall_s: f64,
}

impl ObsReport {
    /// Summed wall seconds recorded for one pipeline phase (see [`PHASES`]).
    #[must_use]
    pub fn phase_sum(&self, phase: &str) -> f64 {
        self.snapshot
            .histogram_sum("hris_engine_phase_seconds", &[("phase", phase)])
            .unwrap_or(0.0)
    }

    /// `(phase, summed seconds)` for all four phases, in execution order.
    #[must_use]
    pub fn phase_sums(&self) -> Vec<(&'static str, f64)> {
        PHASES.iter().map(|p| (*p, self.phase_sum(p))).collect()
    }

    /// Human-readable end-of-run summary: phase budget against wall time,
    /// cache hit rates, slow queries and trace-ring pressure.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Observability — phase budget ==");
        let mut phase_total = 0.0;
        for (phase, s) in self.phase_sums() {
            phase_total += s;
            let pct = if self.wall_s > 0.0 {
                100.0 * s / self.wall_s
            } else {
                0.0
            };
            let _ = writeln!(out, "{phase:>12} {s:>12.4}s {pct:>6.1}%");
        }
        let _ = writeln!(
            out,
            "{:>12} {:>12.4}s {:>6.1}%  (wall {:.4}s)",
            "phases",
            phase_total,
            if self.wall_s > 0.0 {
                100.0 * phase_total / self.wall_s
            } else {
                0.0
            },
            self.wall_s
        );
        let rate = |base: &str| -> String {
            let hits = self
                .snapshot
                .counter(&format!("{base}_hits_total"))
                .unwrap_or(0);
            let misses = self
                .snapshot
                .counter(&format!("{base}_misses_total"))
                .unwrap_or(0);
            let total = hits + misses;
            if total == 0 {
                format!("{hits}/{total}")
            } else {
                format!(
                    "{hits}/{total} ({:.1}%)",
                    100.0 * hits as f64 / total as f64
                )
            }
        };
        let _ = writeln!(
            out,
            "   sp cache hits {}   candidate memo hits {}",
            rate("hris_engine_sp_cache"),
            rate("hris_engine_candidate_memo")
        );
        let _ = writeln!(
            out,
            "   queries {}   slow {}   traces kept {} dropped {}",
            self.snapshot
                .counter("hris_engine_queries_total")
                .unwrap_or(0),
            self.snapshot
                .counter("hris_engine_slow_queries_total")
                .unwrap_or(0),
            self.traces.len(),
            self.traces_dropped
        );
        let _ = writeln!(
            out,
            "   slo good {} breach {}   span trees on {}/{} traces",
            self.snapshot
                .counter("hris_engine_slo_good_total")
                .unwrap_or(0),
            self.snapshot
                .counter("hris_engine_slo_breach_total")
                .unwrap_or(0),
            self.traces.iter().filter(|t| !t.spans.is_empty()).count(),
            self.traces.len()
        );
        out
    }

    /// The whole report as one JSON document:
    /// `{"wall_s": ..., "registry": {"metrics": [...]}, "traces": [...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let traces: Vec<String> = self.traces.iter().map(TraceRecord::to_json).collect();
        format!(
            "{{\"wall_s\":{},\"traces_dropped\":{},\"registry\":{},\"traces\":[{}]}}",
            self.wall_s,
            self.traces_dropped,
            self.snapshot.to_json(),
            traces.join(",")
        )
    }
}

/// [`evaluate_hris`] with engine instrumentation: runs the same workload on
/// an observed engine and returns the usual outcome plus an [`ObsReport`].
///
/// The instrumented engine answers the queries one at a time so the
/// per-phase wall times sum to the run's wall time on any host — the report
/// is an attribution profile, not a throughput benchmark. Results are
/// byte-identical either way.
#[must_use]
pub fn evaluate_hris_observed(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    archive_override: Option<&TrajectoryArchive>,
) -> (EvalOutcome, ObsReport) {
    let archive = archive_override.unwrap_or(&scenario.archive);
    let cfg = EngineConfig::builder()
        .observability(true)
        .build()
        .expect("static engine configuration");
    let engine = serving(scenario, archive, params, cfg);
    let queries = resampled(scenario, interval_s);

    let t0 = Instant::now();
    let detailed: Vec<(Vec<GlobalRoute>, Vec<LocalStats>)> = queries
        .iter()
        .map(|q| {
            let r = engine.infer_query(q, params.k3.max(1));
            (r.globals, r.stats)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let per_query_s = wall_s / queries.len().max(1) as f64;

    let obs = engine.observability().expect("instrumented engine");
    let log = engine.trace_ring().expect("tracing keeps a query log");
    let report = ObsReport {
        snapshot: obs.snapshot(),
        traces: log.snapshot(),
        traces_dropped: log.dropped(),
        wall_s,
    };
    (score_top1(scenario, &detailed, per_query_s), report)
}

/// Runs the base workload on an explain-enabled engine and returns the
/// audit documents drained from its query log — one rendered JSON object
/// per query, carrying its trace id (the `experiments --audit-out` pass).
///
/// The log is sized to the workload so no record is evicted, and the
/// engine answers the queries one at a time so audit order matches query
/// order.
#[must_use]
pub fn audit_hris(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    top_k_routes: usize,
) -> Vec<String> {
    let cfg = EngineConfig::builder()
        .explain(true)
        .trace_capacity(scenario.queries.len().max(1))
        .explain_top_k(top_k_routes)
        .build()
        .expect("static engine configuration");
    let engine = serving(scenario, &scenario.archive, params, cfg);
    for q in &resampled(scenario, interval_s) {
        let _ = engine.infer_query(q, params.k3.max(1));
    }
    let log = engine.trace_ring().expect("explain keeps a query log");
    log.drain().into_iter().filter_map(|r| r.audit).collect()
}

/// Per-query top-k accuracies for Figure 14a: returns `(avg, max)` accuracy
/// over each query's top-`k` routes, averaged across queries.
#[must_use]
pub fn evaluate_hris_topk(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    k: usize,
) -> (f64, f64) {
    let hris = Hris::new(&scenario.net, scenario.archive.clone(), params.clone());
    let queries = resampled(scenario, interval_s);
    let batches: Vec<Vec<ScoredRoute>> = queries
        .par_iter()
        .map(|q| hris.infer_routes(q, k.max(1)))
        .collect();

    let results: Vec<(f64, f64)> = batches
        .into_iter()
        .zip(&scenario.queries)
        .map(|(routes, q)| {
            if routes.is_empty() {
                return (0.0, 0.0);
            }
            let accs: Vec<f64> = routes
                .iter()
                .map(|r| accuracy_al(&q.truth, &r.route, &scenario.net))
                .collect();
            let avg = mean(accs.iter().copied());
            let max = accs.iter().copied().fold(0.0, f64::max);
            (avg, max)
        })
        .collect();
    let avg = mean(results.iter().map(|r| r.0));
    let max = mean(results.iter().map(|r| r.1));
    (avg, max)
}

fn aggregate(results: &[(f64, f64, f64, f64)]) -> EvalOutcome {
    EvalOutcome {
        mean_accuracy: mean(results.iter().map(|r| r.0)),
        mean_time_s: mean(results.iter().map(|r| r.1)),
        queries: results.len(),
        mean_density: mean(results.iter().map(|r| r.2).filter(|d| *d > 0.0)),
        mean_knn_searches: mean(results.iter().map(|r| r.3)),
    }
}

fn mean<I: Iterator<Item = f64>>(iter: I) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in iter {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hris_mapmatch::StMatcher;

    fn scenario() -> Scenario {
        let mut cfg = ScenarioConfig::quick(11);
        cfg.sim.num_trips = 250;
        cfg.num_queries = 3;
        Scenario::build(cfg)
    }

    #[test]
    fn matcher_evaluation_produces_sane_numbers() {
        let s = scenario();
        let out = evaluate_matcher(&s, &StMatcher::default(), 60.0);
        assert_eq!(out.queries, 3);
        assert!((0.0..=1.0).contains(&out.mean_accuracy));
        assert!(out.mean_time_s >= 0.0);
        // A 60 s interval on clean-ish data should match most of the route.
        assert!(out.mean_accuracy > 0.3, "got {}", out.mean_accuracy);
    }

    #[test]
    fn hris_evaluation_produces_sane_numbers() {
        let s = scenario();
        let out = evaluate_hris(&s, &HrisParams::default(), 180.0, None);
        assert_eq!(out.queries, 3);
        assert!((0.0..=1.0).contains(&out.mean_accuracy));
        assert!(out.mean_accuracy > 0.3, "got {}", out.mean_accuracy);
    }

    #[test]
    fn topk_max_at_least_avg() {
        let s = scenario();
        let (avg, max) = evaluate_hris_topk(&s, &HrisParams::default(), 180.0, 3);
        assert!(max >= avg - 1e-9);
        assert!((0.0..=1.0).contains(&max));
    }

    #[test]
    fn observed_evaluation_matches_plain_and_accounts_wall_time() {
        let s = scenario();
        let params = HrisParams::default();
        let plain = evaluate_hris(&s, &params, 180.0, None);
        let (out, report) = evaluate_hris_observed(&s, &params, 180.0, None);
        // Instrumentation must not move accuracy at all.
        assert!(
            (out.mean_accuracy - plain.mean_accuracy).abs() < 1e-12,
            "observed accuracy {} vs plain {}",
            out.mean_accuracy,
            plain.mean_accuracy
        );
        assert_eq!(report.traces.len(), 3);
        assert_eq!(
            report.snapshot.counter("hris_engine_queries_total"),
            Some(3)
        );
        // Sequential run: the four phases account for (nearly) all the wall.
        let phase_total: f64 = report.phase_sums().iter().map(|(_, s)| s).sum();
        assert!(
            phase_total <= report.wall_s * 1.001,
            "phases {phase_total} exceed wall {}",
            report.wall_s
        );
        assert!(
            phase_total >= report.wall_s * 0.9,
            "phases {phase_total} account for <90% of wall {}",
            report.wall_s
        );
        // The JSON report is machine-readable.
        let parsed: serde_json::Value =
            serde_json::from_str(&report.to_json()).expect("ObsReport::to_json parses");
        assert!(parsed["wall_s"].as_f64().unwrap() > 0.0);
        assert_eq!(parsed["traces"].as_array().unwrap().len(), 3);
        assert!(report.summary().contains("phase budget"));
    }

    #[test]
    fn thinned_archive_evaluation_runs() {
        let s = scenario();
        let thin = s.thinned_archive(0.3);
        let out = evaluate_hris(&s, &HrisParams::default(), 180.0, Some(&thin));
        assert_eq!(out.queries, 3);
    }

    #[test]
    fn parallel_evaluation_matches_plain_hris() {
        // Fanning the workload out across the pool must not move accuracy
        // at all — same routes, same scores, same A_L.
        let s = scenario();
        let params = HrisParams::default();
        let hris = Hris::new(&s.net, s.archive.clone(), params.clone());
        let out = evaluate_hris(&s, &params, 180.0, None);
        let direct: Vec<f64> = s
            .queries
            .iter()
            .map(|q| {
                let query = resample_to_interval(&q.dense, 180.0);
                hris.infer_routes(&query, params.k3.max(1))
                    .first()
                    .map(|r| accuracy_al(&q.truth, &r.route, &s.net))
                    .unwrap_or(0.0)
            })
            .collect();
        let want = mean(direct.into_iter());
        assert!(
            (out.mean_accuracy - want).abs() < 1e-12,
            "engine path changed accuracy: {} vs {}",
            out.mean_accuracy,
            want
        );
    }
}
