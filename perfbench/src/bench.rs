//! The two kinds of run: end-to-end (tracing off) and traced.

use crate::heap;
use crate::inputs::{Inputs, Workload, K};
use crate::live::{run_writer, IngestRun};
use crate::probe::Probe;
use crate::report::{median, quantile, Report};
use crate::serve::{
    nproc, parallel_map, params, routed_all, same_answer, setup, single_engine, Engine, Served,
};
use crate::trace::{Counters, Replay, SpanLog};
use hris::{EngineCacheStats, Hris, QueryOutcome, QueryResult};
use hris_eval::metrics::accuracy_al;
use hris_roadnet::{RoadNetwork, Route};
use hris_router::RouteKind;
use hris_traj::{ArchiveSnapshot, ArchiveWriter, Trajectory};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of the measured window given to single-client latency chunks; batch
/// passes get the rest.
const LATENCY_SHARE: f64 = 0.6;

/// Queries per single-client latency chunk.
const LATENCY_CHUNK: usize = 20;

/// Queries per batch pass; passes take consecutive slices of the distinct
/// queries. A third of the set keeps several passes in every run, so batch
/// time is sampled across the run like latency, even on `metro`.
const BATCH_SLICE: usize = 100;

/// Latency samples the single-client phase collects at least, so that the
/// 95th percentile has 10 samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 200;

fn rejected(r: &QueryResult) -> bool {
    matches!(r.outcome, QueryOutcome::Rejected { .. })
}

/// Checks `answers` against the reference pipeline (`Hris`) over `archive`,
/// counting each query in phase `check`.
fn check_against_reference(
    report: &mut Report,
    net: &RoadNetwork,
    archive: &ArchiveSnapshot,
    queries: &[Trajectory],
    answers: &[QueryResult],
) {
    let hris = Hris::new(net, archive.archive().clone(), params());
    let reference = parallel_map(queries, |q| hris.infer_routes_detailed(q, K).0);
    let mut mismatched = 0;
    for (want, got) in reference.iter().zip(answers) {
        let ok = same_answer(want, &got.globals);
        mismatched += usize::from(!ok);
        report.query("check", ok);
    }
    if mismatched > 0 {
        report.failures.push(format!(
            "{mismatched} answers differ from the Hris reference pipeline"
        ));
    }
}

/// Mean A_L of each query's top-1 route against its ground truth.
fn accuracy(net: &RoadNetwork, truths: &[Route], answers: &[QueryResult]) -> f64 {
    let sum: f64 = answers
        .iter()
        .zip(truths)
        .map(|(a, truth)| {
            a.globals
                .first()
                .map_or(0.0, |g| accuracy_al(truth, &g.route, net))
        })
        .sum();
    sum / answers.len().max(1) as f64
}

/// Runs the `live` writer on its own thread while `client` runs, then stops
/// and joins it.
fn with_writer<R>(
    writer: Option<&mut ArchiveWriter>,
    inputs: &Inputs,
    window: usize,
    client: impl FnOnce() -> R,
) -> (R, Option<IngestRun>) {
    let Some(writer) = writer else {
        return (client(), None);
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| run_writer(writer, &inputs.stream, window, &stop));
        let out = client();
        stop.store(true, Ordering::SeqCst);
        let ingest = handle.join().expect("live writer panicked");
        (out, Some(ingest))
    })
}

/// Records the `live` ingest checks.
fn check_ingest(report: &mut Report, ingest: &IngestRun) {
    report.check(
        "ingest",
        ingest.epochs > 0,
        "the live writer published no epoch",
    );
    report.check(
        "ingest",
        ingest.epochs_monotone,
        "published epochs were not consecutive",
    );
    report.check(
        "ingest",
        ingest.window_held,
        "a published snapshot broke the sliding-window size",
    );
}

/// Latency samples and batch passes of one measured window.
#[derive(Default)]
struct Window {
    /// Single-client latency of each query, in ms, in the order sent; scaled
    /// to the reference host speed once its round is finished.
    latency_ms: Vec<f64>,
    /// Samples of `latency_ms` already scaled.
    scaled: usize,
    /// Wall seconds spent in latency chunks.
    latency_s: f64,
    /// Queries answered by batch passes.
    batch_queries: usize,
    /// Wall seconds spent in batch passes in the current round.
    round_batch_s: f64,
    /// Wall seconds spent in batch passes in finished rounds, scaled.
    scaled_batch_s: f64,
    /// Wall seconds spent in batch passes, unscaled.
    batch_s: f64,
    /// The host-speed probe, sampled before every latency chunk and batch
    /// pass.
    probe: Probe,
    /// Per-phase accounting of the window.
    report: Report,
}

impl Window {
    /// Runs one block of the window on `engine` for at least `seconds`,
    /// alternating single-client latency chunks with batch passes so that
    /// latency chunks take [`LATENCY_SHARE`] of the busy time; the `last`
    /// block also runs until the window holds [`MIN_LATENCY_SAMPLES`]
    /// latency samples and one batch pass. Every answer is checked as it
    /// arrives: not rejected, and, where the archive is pinned,
    /// byte-identical to the set-up pass.
    fn block(
        &mut self,
        inputs: &Inputs,
        engine: &Engine,
        cold: &[QueryResult],
        seconds: f64,
        last: bool,
    ) {
        let live = inputs.workload == Workload::Live;
        let n = inputs.queries.len();
        let budget = Duration::from_secs_f64(seconds);
        let mut last_epoch = 0;
        let t0 = Instant::now();
        loop {
            let over = t0.elapsed() >= budget;
            let enough_latency = self.latency_ms.len() >= MIN_LATENCY_SAMPLES;
            if over && (!last || (enough_latency && self.batch_queries > 0)) {
                break;
            }
            let latency_turn = if over {
                !enough_latency
            } else {
                self.latency_s <= LATENCY_SHARE * (self.latency_s + self.batch_s)
            };
            self.probe.sample();
            let tc = Instant::now();
            if latency_turn {
                for _ in 0..LATENCY_CHUNK {
                    let i = self.latency_ms.len() % n;
                    let t = Instant::now();
                    let r = engine.infer_query(&inputs.queries[i]);
                    self.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let ok = match engine.handle().filter(|_| live) {
                        Some(h) => {
                            let epoch = h.epoch();
                            let monotone = epoch >= last_epoch;
                            last_epoch = epoch;
                            monotone && !rejected(&r)
                        }
                        None => !rejected(&r) && same_answer(&r.globals, &cold[i].globals),
                    };
                    self.report.query("latency", ok);
                }
                self.latency_s += tc.elapsed().as_secs_f64();
            } else {
                let start = self.batch_queries % n;
                let end = (start + BATCH_SLICE).min(n);
                let answers = engine.infer_all(&inputs.queries[start..end]);
                let pass_s = tc.elapsed().as_secs_f64();
                self.batch_s += pass_s;
                self.round_batch_s += pass_s;
                self.batch_queries += answers.len();
                for (r, c) in answers.iter().zip(&cold[start..]) {
                    let ok = !rejected(r) && (live || same_answer(&r.globals, &c.globals));
                    self.report.query("batch", ok);
                }
            }
        }
    }

    /// Ends a round: scales the round's latency samples and batch time to
    /// the reference host speed and returns the factor used.
    fn finish_round(&mut self) -> f64 {
        let scale = self.probe.finish_round();
        for ms in &mut self.latency_ms[self.scaled..] {
            *ms *= scale;
        }
        self.scaled = self.latency_ms.len();
        self.scaled_batch_s += self.round_batch_s * scale;
        self.round_batch_s = 0.0;
        scale
    }
}

/// The end-to-end run: `SETUP_REPS` rounds of a set-up followed by a block
/// of the measured window on the engine just built, then the answer checks
/// on the last engine. Spreading the window over the whole run averages the
/// host's slow and fast spells into every metric; the host-speed probe,
/// sampled around each set-up and through each block, scales each round's
/// timings to the reference host speed (see [`crate::probe`]).
#[must_use]
pub fn run_e2e(inputs: &Inputs, seconds: f64) -> Report {
    let mut report = Report::default();
    let n = inputs.queries.len();
    let mut window = Window::default();
    let mut setup_s = Vec::new();
    let mut ingests = Vec::new();
    let mut first_cold: Option<Vec<QueryResult>> = None;
    let mut last = None;
    let mut scales = Vec::new();
    let heap_base = heap::reset_peak();
    for round in 0..SETUP_REPS {
        drop(last.take());
        window.probe.sample();
        let (mut served, times) = setup(inputs);
        window.probe.sample();
        let first = first_cold.get_or_insert_with(|| served.cold_answers.clone());
        for (r, f) in served.cold_answers.iter().zip(first.iter()) {
            report.query("setup", !rejected(r) && same_answer(&r.globals, &f.globals));
        }
        let engine = &served.engine;
        let cold = &served.cold_answers;
        let ((), ingest) =
            with_writer(served.writer.as_mut(), inputs, inputs.archive_trips, || {
                window.block(
                    inputs,
                    engine,
                    cold,
                    seconds / SETUP_REPS as f64,
                    round + 1 == SETUP_REPS,
                );
            });
        let scale = window.finish_round();
        setup_s.push(times.total_s() * scale);
        scales.push(scale);
        ingests.extend(ingest);
        last = Some(served);
    }
    let served = last.expect("at least one set-up");
    let cold = &served.cold_answers;
    let heap_mb = heap::peak_bytes().saturating_sub(heap_base) as f64 / (1024.0 * 1024.0);
    report.phases.extend(window.report.phases);

    match inputs.workload {
        Workload::City | Workload::Metro => {
            check_against_reference(
                &mut report,
                &served.net,
                &served.archive,
                &inputs.queries,
                cold,
            );
        }
        Workload::CitySharded => {
            let router = served
                .engine
                .sharded()
                .expect("city-sharded serves a router");
            let single = single_engine(&served.net, &served.archive);
            let single_answers = single.infer_batch_detailed(&inputs.queries, K);
            check_against_reference(
                &mut report,
                &served.net,
                &served.archive,
                &inputs.queries,
                &single_answers,
            );
            let routed = routed_all(router, &inputs.queries);
            let mut identical = 0;
            for ((r, trace), (s, c)) in routed.iter().zip(single_answers.iter().zip(cold)) {
                let same_as_single = same_answer(&r.globals, &s.globals);
                identical += usize::from(same_as_single);
                let delegated = matches!(trace.kind, RouteKind::Single(_));
                let ok = !rejected(r)
                    && same_answer(&r.globals, &c.globals)
                    && (!delegated || same_as_single);
                report.query("check", ok);
            }
            report.notes.push(format!(
                "router answers byte-identical to the single engine: {identical} of {n}"
            ));
        }
        Workload::Live => {
            for ingest in &ingests {
                check_ingest(&mut report, ingest);
            }
            let h = served.engine.handle().expect("live serves one handle");
            check_against_reference(
                &mut report,
                &served.net,
                &served.archive,
                &inputs.queries,
                cold,
            );
            let last_epoch = h.current_snapshot();
            let answers = h.infer_batch_detailed(&inputs.queries, K);
            check_against_reference(
                &mut report,
                &served.net,
                &last_epoch,
                &inputs.queries,
                &answers,
            );
            let mut fresh: Vec<f64> = ingests
                .iter()
                .flat_map(|i| i.freshness_s.iter().map(|s| s * 1e3))
                .collect();
            report.notes.push(format!(
                "live writer: {} epochs, {} trips appended, freshness p95 {:.3} ms",
                ingests.iter().map(|i| i.epochs).sum::<usize>(),
                ingests.iter().map(|i| i.trips_appended).sum::<usize>(),
                quantile(&mut fresh, 0.95)
            ));
        }
    }

    let accuracy = accuracy(&served.net, &inputs.truths, cold);
    let mut lat = window.latency_ms;
    let scales: Vec<String> = scales.iter().map(|s| format!("{s:.3}")).collect();
    report.notes.push(format!(
        "workload {}: {} distinct queries, {} latency samples, {} set-ups, nproc {}",
        inputs.workload.name(),
        n,
        lat.len(),
        SETUP_REPS,
        nproc()
    ));
    report.notes.push(format!(
        "timings scaled to the reference host speed by round: {} (unscaled batch qps {:.3})",
        scales.join(" "),
        window.batch_queries as f64 / window.batch_s
    ));
    report.timing("setup_s", median(&mut setup_s), "s");
    report.timing("latency_p50_ms", quantile(&mut lat, 0.50), "ms");
    report.timing("latency_p95_ms", quantile(&mut lat, 0.95), "ms");
    report.timing(
        "batch_qps",
        window.batch_queries as f64 / window.scaled_batch_s,
        "1/s",
    );
    report.count("accuracy_al", accuracy, "ratio");
    report.timing("heap_peak_mb", heap_mb, "MB");
    report
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The engine layer seen through its entry points, tracing off.
struct EngineLayer {
    /// Answers of a sequential single-client pass.
    answers: Vec<QueryResult>,
    /// Queries per second of that pass.
    seq_qps: f64,
    /// Queries per second of one pass with `nproc()` workers.
    batch_qps: f64,
    /// Cache counters after the set-up, sequential and batch passes
    /// (summed over shards behind a router).
    cache: EngineCacheStats,
}

/// A sequential then a batch pass through the engine, each answer checked
/// against the set-up pass.
fn engine_layer(inputs: &Inputs, served: &Served, report: &mut Report) -> EngineLayer {
    let n = inputs.queries.len() as f64;
    let t0 = Instant::now();
    let answers: Vec<QueryResult> = inputs
        .queries
        .iter()
        .map(|q| served.engine.infer_query(q))
        .collect();
    let seq_qps = n / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let batch = served.engine.infer_all(&inputs.queries);
    let batch_qps = n / t0.elapsed().as_secs_f64();
    for (r, c) in answers
        .iter()
        .chain(&batch)
        .zip(served.cold_answers.iter().cycle())
    {
        report.query(
            "engine",
            !rejected(r) && same_answer(&r.globals, &c.globals),
        );
    }
    let cache = match &served.engine {
        Engine::Single(h) | Engine::Live(h) => h.cache_stats(),
        Engine::Sharded(s) => (0..s.num_shards()).map(|i| s.shard(i).cache_stats()).fold(
            EngineCacheStats::default(),
            |a, b| EngineCacheStats {
                sp_hits: a.sp_hits + b.sp_hits,
                sp_misses: a.sp_misses + b.sp_misses,
                candidate_hits: a.candidate_hits + b.candidate_hits,
                candidate_misses: a.candidate_misses + b.candidate_misses,
            },
        ),
    };
    EngineLayer {
        answers,
        seq_qps,
        batch_qps,
        cache,
    }
}

/// The router layer: a sequential routed pass against a single engine over
/// the unpartitioned archive.
#[derive(Default)]
struct RouterLayer {
    /// Mean wall milliseconds of `ShardedEngine::infer_query_traced`.
    ms_per_query: f64,
    /// Queries split across shards.
    scatter: usize,
    /// Shards touched, summed over queries.
    fan_out: usize,
    /// Seam splices, summed over queries.
    splices: usize,
    /// Queries answered byte-identically to the single engine.
    identical: usize,
    /// Stored copies per trajectory.
    replication: f64,
}

/// Runs the router layer on `city-sharded`; returns it with the single
/// engine's answers, which the replay must reproduce.
fn router_layer(
    inputs: &Inputs,
    served: &Served,
    report: &mut Report,
) -> Option<(RouterLayer, Vec<QueryResult>)> {
    let router = served.engine.sharded()?;
    let single = single_engine(&served.net, &served.archive);
    let single_answers = single.infer_batch_detailed(&inputs.queries, K);
    let mut layer = RouterLayer {
        replication: router.replication_factor(),
        ..RouterLayer::default()
    };
    let t0 = Instant::now();
    for (q, s) in inputs.queries.iter().zip(&single_answers) {
        let (r, trace) = router.infer_query_traced(q, K);
        let same = same_answer(&r.globals, &s.globals);
        let delegated = matches!(trace.kind, RouteKind::Single(_));
        layer.scatter += usize::from(trace.kind == RouteKind::Scatter);
        layer.fan_out += trace.epochs.len();
        layer.splices += trace.splice_points.len();
        layer.identical += usize::from(same);
        report.query("router", !rejected(&r) && (!delegated || same));
    }
    layer.ms_per_query = t0.elapsed().as_secs_f64() * 1e3 / inputs.queries.len() as f64;
    Some((layer, single_answers))
}

/// Runs the paced writer beside one closed-loop client for `seconds`, on
/// `live`.
fn ingest_layer(
    inputs: &Inputs,
    served: &mut Served,
    seconds: f64,
    report: &mut Report,
) -> Option<IngestRun> {
    if inputs.workload != Workload::Live {
        return None;
    }
    let engine = &served.engine;
    let (client, ingest) =
        with_writer(served.writer.as_mut(), inputs, inputs.archive_trips, || {
            let mut client = Report::default();
            let t0 = Instant::now();
            for q in inputs.queries.iter().cycle() {
                if t0.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let r = engine.infer_query(q);
                client.query("ingest", !rejected(&r));
            }
            client
        });
    report.phases.extend(client.phases);
    let ingest = ingest.expect("live runs a writer");
    check_ingest(report, &ingest);
    Some(ingest)
}

/// The outside-in replay and what it measured.
struct ReplayLayer {
    /// Spans of the measured parent pass and the children pass.
    log: SpanLog,
    /// Work counts of the measured parent pass and the children pass.
    counts: Counters,
    /// Mean wall milliseconds of the reference pipeline (`Hris`), untraced.
    untraced_ms: f64,
    /// Shortest-path trees the replay network's oracle holds at the end.
    cached_trees: usize,
}

/// Queries between a parent replay and the children replay of the same
/// query. Far enough that the children do not find the network's memos
/// primed by their own parent a moment earlier (on `metro` the projection
/// memo is cleared several times in between); near enough that parent and
/// children see the same host load.
const CHILDREN_LAG: usize = 50;

/// Replays every query on a fresh network, so that every cache the replay
/// touches starts from the same state on every run: a warm-up pass, the
/// untraced reference pipeline, then the measured parent pass (each answer
/// compared with `reference`) with each query's children replayed
/// [`CHILDREN_LAG`] queries later.
fn replay_layer(
    inputs: &Inputs,
    served: &Served,
    reference: &[QueryResult],
    report: &mut Report,
) -> ReplayLayer {
    let net = Arc::new(inputs.net.clone());
    let archive = served.archive.archive();
    let p = params();
    let replay = Replay {
        net: &net,
        archive,
        params: &p,
    };
    let qid = |i: usize| u32::try_from(i).expect("query index fits u32");
    let (mut warm_log, mut warm_counts) = (SpanLog::default(), Counters::default());
    for (i, q) in inputs.queries.iter().enumerate() {
        let _ = replay.query(q, qid(i), &mut warm_log, &mut warm_counts);
    }
    let hris = Hris::new(&net, archive.clone(), p.clone());
    let t0 = Instant::now();
    for q in &inputs.queries {
        std::hint::black_box(hris.infer_routes_detailed(q, K));
    }
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3 / inputs.queries.len() as f64;

    let (mut log, mut counts) = (SpanLog::default(), Counters::default());
    let queries = &inputs.queries;
    let mut algorithms = Vec::with_capacity(queries.len());
    for ((i, q), want) in queries.iter().enumerate().zip(reference) {
        let (answer, pairs) = replay.query(q, qid(i), &mut log, &mut counts);
        report.query("replay", same_answer(&answer, &want.globals));
        algorithms.push(pairs);
        if let Some(j) = i.checked_sub(CHILDREN_LAG) {
            replay.children(&queries[j], qid(j), &algorithms[j], &mut log, &mut counts);
        }
    }
    let tail = queries.len().saturating_sub(CHILDREN_LAG);
    for (j, (q, pairs)) in queries.iter().zip(&algorithms).enumerate().skip(tail) {
        replay.children(q, qid(j), pairs, &mut log, &mut counts);
    }
    ReplayLayer {
        log,
        counts,
        untraced_ms,
        cached_trees: net.sp_oracle().cached_trees(),
    }
}

/// The traced run: one set-up, the engine layer, the router or ingest layer
/// where the workload has one, and the outside-in replay. Returns the
/// per-layer report and the replay's spans.
#[must_use]
pub fn run_traced(inputs: &Inputs, seconds: f64) -> (Report, SpanLog) {
    let mut report = Report::default();
    let n = inputs.queries.len() as f64;
    let (mut served, times) = setup(inputs);
    for r in &served.cold_answers {
        report.query("setup", !rejected(r));
    }
    let engine = engine_layer(inputs, &served, &mut report);
    let (router, reference) = match router_layer(inputs, &served, &mut report) {
        Some((router, single_answers)) => (router, single_answers),
        None => (RouterLayer::default(), engine.answers),
    };
    let ingest = ingest_layer(inputs, &mut served, seconds, &mut report).unwrap_or_default();
    let replay = replay_layer(inputs, &served, &reference, &mut report);

    let self_ns = replay.log.self_ns();
    let layer = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let children = layer("core.local.index") + layer("core.local.tgi") + layer("core.local.nni");
    let finish = layer("core.local") - children;
    let traced_ms = replay.log.total_ns().get("query").copied().unwrap_or(0) as f64 / 1e6 / n;
    let shares = [
        ("roadnet.candidates", layer("roadnet.candidates")),
        ("core.reference", layer("core.reference")),
        ("core.local.index", layer("core.local.index")),
        ("core.local.tgi", layer("core.local.tgi")),
        ("core.local.nni", layer("core.local.nni")),
        ("core.local.finish", finish),
        ("roadnet.oracle.fallback", layer("roadnet.oracle.fallback")),
        ("core.global", layer("core.global")),
        ("query (unattributed)", layer("query")),
    ];
    let total: f64 = shares.iter().map(|(_, v)| v.max(0.0)).sum();
    report.notes.push(format!(
        "layer self time per query over {n} queries, workload {}, nproc {}, {} spans \
         (core.local.finish = core.local minus its children, timed in a separate replay):",
        inputs.workload.name(),
        nproc(),
        replay.log.spans().len()
    ));
    for (name, v) in shares {
        let share = 100.0 * v.max(0.0) / total.max(f64::MIN_POSITIVE);
        report
            .notes
            .push(format!("  {name:<24} {v:>9.3} ms  {share:>5.1}%"));
    }

    let c = &replay.counts;
    let pairs = c.pairs.max(1) as f64;
    let per_query = |v: usize| v as f64 / n;
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let epochs = ingest.append_s.len().max(1) as f64;
    let cache = engine.cache;
    for (name, value, unit) in [
        ("traj.archive.decode_s", times.decode_s, "s"),
        ("setup.build_s", times.build_s, "s"),
        ("setup.cold_pass_s", times.cold_pass_s, "s"),
    ] {
        report.timing(name, value, unit);
    }
    for (name, value, unit) in [
        ("traj.archive.points", inputs.archive_points as f64, "count"),
        (
            "roadnet.oracle.hit_ratio",
            ratio(c.oracle_hits, c.oracle_hits + c.oracle_misses),
            "ratio",
        ),
        (
            "roadnet.oracle.cached_trees",
            replay.cached_trees as f64,
            "count",
        ),
        (
            "roadnet.lambda.tgi_node_segments",
            c.tgi_node_segments.len() as f64,
            "count",
        ),
    ] {
        report.count(name, value, unit);
    }
    report.timing(
        "roadnet.candidates.ms_per_query",
        layer("roadnet.candidates"),
        "ms",
    );
    report.timing("core.reference.ms_per_query", layer("core.reference"), "ms");
    report.count(
        "core.reference.refs_per_pair",
        c.refs as f64 / pairs,
        "refs/pair",
    );
    report.count(
        "core.reference.points_per_pair",
        c.ref_points as f64 / pairs,
        "points/pair",
    );
    report.timing(
        "core.local.index.ms_per_query",
        layer("core.local.index"),
        "ms",
    );
    report.count(
        "core.local.index.traverse_edges_per_pair",
        c.traverse_edges as f64 / c.local_pairs.max(1) as f64,
        "edges/pair",
    );
    report.timing("core.local.tgi.ms_per_query", layer("core.local.tgi"), "ms");
    for (name, value) in [
        ("core.local.tgi.pairs", c.tgi_pairs),
        ("core.local.tgi.traverse_nodes", c.tgi_nodes),
        ("core.local.tgi.links_initial", c.tgi_links_initial),
        ("core.local.tgi.links_final", c.tgi_links_final),
        (
            "core.local.tgi.augmentation_links",
            c.tgi_augmentation_links,
        ),
    ] {
        report.count(name, value as f64, "count");
    }
    report.timing("core.local.nni.ms_per_query", layer("core.local.nni"), "ms");
    report.count("core.local.nni.pairs", c.nni_pairs as f64, "count");
    report.count(
        "core.local.nni.knn_searches",
        c.nni_knn_searches as f64,
        "count",
    );
    report.timing("core.local.finish.ms_per_query", finish, "ms");
    report.count(
        "core.local.kept_ratio",
        ratio(c.routes_kept, c.routes_proposed),
        "ratio",
    );
    report.count(
        "core.local.fallback_pairs",
        c.fallback_pairs as f64,
        "count",
    );
    report.timing("core.global.ms_per_query", layer("core.global"), "ms");
    let lookups = cache.candidate_hits + cache.candidate_misses;
    report.count(
        "core.engine.candidate_hit_ratio",
        ratio(cache.candidate_hits, lookups),
        "ratio",
    );
    report.count(
        "core.engine.sp_fallback_hits",
        cache.sp_hits as f64,
        "count",
    );
    report.count(
        "core.engine.sp_fallback_misses",
        cache.sp_misses as f64,
        "count",
    );
    let efficiency = engine.batch_qps / (nproc() as f64 * engine.seq_qps);
    report.timing("core.engine.parallel_efficiency", efficiency, "ratio");
    report.timing("router.infer_ms_per_query", router.ms_per_query, "ms");
    for (name, value, unit) in [
        ("router.scatter_share", per_query(router.scatter), "ratio"),
        ("router.fan_out", per_query(router.fan_out), "shards/query"),
        (
            "router.splices_per_query",
            per_query(router.splices),
            "splices/query",
        ),
        ("router.replication_factor", router.replication, "ratio"),
        (
            "router.identical_share",
            per_query(router.identical),
            "ratio",
        ),
    ] {
        report.count(name, value, unit);
    }
    for (name, value, unit) in [
        (
            "traj.ingest.append_ms_per_epoch",
            ingest.append_s.iter().fold(0.0, |a, s| a + s) * 1e3 / epochs,
            "ms",
        ),
        (
            "traj.ingest.publish_ms_p50",
            quantile(&mut ms(&ingest.publish_s), 0.5),
            "ms",
        ),
        (
            "traj.ingest.late_ms_p95",
            quantile(&mut ms(&ingest.late_s), 0.95),
            "ms",
        ),
        (
            "traj.ingest.freshness_p95_ms",
            quantile(&mut ms(&ingest.freshness_s), 0.95),
            "ms",
        ),
        (
            "traj.ingest.trips_appended",
            ingest.trips_appended as f64,
            "count",
        ),
        (
            "traj.ingest.trips_evicted",
            ingest.trips_evicted as f64,
            "count",
        ),
        ("traj.ingest.epochs", ingest.epochs as f64, "count"),
        ("trace.traced_ms_per_query", traced_ms, "ms"),
        ("trace.untraced_ms_per_query", replay.untraced_ms, "ms"),
        (
            "trace.overhead_ratio",
            traced_ms / replay.untraced_ms - 1.0,
            "ratio",
        ),
    ] {
        report.timing(name, value, unit);
    }
    (report, replay.log)
}
