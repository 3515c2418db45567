//! End-to-end query throughput over the standard bench scenario, three
//! ways: `sequential` is the plain `Hris` pipeline one query at a time,
//! `pair_parallel` the [`EngineHandle`] one query at a time through
//! `infer_query` (pairs fan out on queries long enough), and `batch` the
//! handle's `infer_batch_detailed` fanning queries out with a shared memo.
//!
//! Besides the criterion timings, the bench measures queries/sec for each
//! mode directly (checking along the way that every mode returns results
//! identical to sequential `Hris`) and writes the numbers to
//! `BENCH_e2e.json` at the workspace root so the baseline is versioned. Two
//! further measured modes isolate the instrumentation cost: `batch_observed`
//! is the batch engine with metrics + tracing on but span capture off, and
//! `batch_spans` adds the default 1-in-16 span sampling — their qps against
//! plain `batch` bound the observability and span overheads respectively,
//! and the observed engine's phase histograms are reported as a per-query
//! breakdown.
//!
//! An `ingest_throughput` section measures the live path: the back half of
//! the archive streams through an [`ArchiveWriter`] (publishing an epoch per
//! chunk) while a live [`EngineHandle`] serves query batches concurrently.
//!
//! A `sharded` section routes a partition-respecting workload through a 2×2
//! [`ShardedEngine`] — after checking every answer byte-identical to the
//! single-shard engine — and records per-shard qps, the scatter fan-out
//! ratio and the seam splice count.
//!
//! A `capacity` section (PR-8) measures the columnar snapshot's storage
//! diet on a city-scale archive and the admission-controlled soak numbers.

// The vendored `serde_json::json!` recurses once per key; the capacity
// report pushes the default limit.
#![recursion_limit = "256"]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hris::prelude::*;
use hris_bench::{bench_scenario, resampled_queries};
use hris_router::{RouteKind, ShardPlan, ShardedEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const K: usize = 2;

fn assert_identical(label: &str, got: &[Vec<ScoredRoute>], want: &[Vec<ScoredRoute>]) {
    assert_eq!(got.len(), want.len(), "{label}: query count");
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{label}: top-K size of query {qi}");
        for (a, b) in g.iter().zip(w) {
            assert!(
                a.route == b.route && a.log_score == b.log_score,
                "{label}: query {qi} diverged from sequential output"
            );
        }
    }
}

/// Wall-clock queries/sec of `run` over `rounds` repetitions of the workload.
fn qps<F: FnMut() -> Vec<Vec<ScoredRoute>>>(n_queries: usize, rounds: usize, mut run: F) -> f64 {
    let _ = run(); // warm-up (also warms the engine caches where present)
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(run());
    }
    (n_queries * rounds) as f64 / t0.elapsed().as_secs_f64()
}

/// Per-round queries/sec samples of `run` (one warm-up, then `rounds` timed
/// rounds of `reps` workload repetitions each). The per-round spread bounds
/// the measurement noise, which the overhead comparisons carry as a ±.
fn qps_samples<F: FnMut() -> Vec<Vec<ScoredRoute>>>(
    n_queries: usize,
    rounds: usize,
    reps: usize,
    mut run: F,
) -> Vec<f64> {
    let _ = run(); // warm-up (also warms the engine caches where present)
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                black_box(run());
            }
            (n_queries * reps) as f64 / t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn half_range(xs: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo <= hi {
        (hi - lo) / 2.0
    } else {
        0.0
    }
}

/// Overhead `1 − mean(a)/mean(b)` with a ± bound propagated from each
/// side's per-round half-range. An overhead whose magnitude is inside the
/// bound is indistinguishable from zero on this host.
fn overhead_with_noise(a: &[f64], b: &[f64]) -> (f64, f64) {
    let (ma, mb) = (mean(a), mean(b));
    let ratio = ma / mb;
    let noise = ratio * (half_range(a) / ma + half_range(b) / mb);
    (1.0 - ratio, noise)
}

/// Numbers from the ingest-while-querying run.
struct IngestNumbers {
    trajectories_per_sec: f64,
    points_per_sec: f64,
    epochs_published: usize,
    concurrent_batch_qps: f64,
}

/// Streams the back half of the archive through an [`ArchiveWriter`] (one
/// publish per chunk) while a live [`EngineHandle`] answers query batches
/// on another thread, and measures both sides' throughput.
fn measure_ingest(
    s: &hris_eval::scenario::Scenario,
    queries: &[hris_traj::Trajectory],
) -> IngestNumbers {
    const CHUNK: usize = 25;
    let (seed_archive, stream) = s.ingestion_split(0.5);
    let mut writer = ArchiveWriter::new(seed_archive);
    let live = Arc::new(EngineHandle::live(
        Arc::new(s.net.clone()),
        writer.reader(),
        HrisParams::default(),
        EngineConfig::default(),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        let queries = queries.to_vec();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut answered = 0usize;
            while !stop.load(Ordering::Acquire) || answered == 0 {
                answered += black_box(live.infer_batch_detailed(&queries, K)).len();
            }
            answered as f64 / t0.elapsed().as_secs_f64()
        })
    };

    let stream_points: usize = stream.iter().map(|t| t.len()).sum();
    let t0 = Instant::now();
    let mut epochs = 0usize;
    for chunk in stream.chunks(CHUNK) {
        writer.append_batch(chunk.to_vec());
        writer.publish();
        epochs += 1;
    }
    let ingest_s = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let concurrent_batch_qps = query_thread.join().expect("query thread");

    // The stream is clean simulator output: nothing may be quarantined, and
    // the final epoch must hold the whole archive.
    assert_eq!(writer.report().trajectories_quarantined, 0);
    let last = writer.snapshot();
    assert_eq!(last.num_trajectories(), s.archive.num_trajectories());

    IngestNumbers {
        trajectories_per_sec: stream.len() as f64 / ingest_s,
        points_per_sec: stream_points as f64 / ingest_s,
        epochs_published: epochs,
        concurrent_batch_qps,
    }
}

/// Numbers from the sharded scatter-gather run.
struct ShardedNumbers {
    grid: (usize, usize),
    margin_m: f64,
    replication_factor: f64,
    per_shard_qps: Vec<f64>,
    sharded_qps: f64,
    fan_out_ratio: f64,
    scatter_queries: usize,
    splices_total: usize,
    workload_queries: usize,
}

/// A deterministic `n`-point walk starting at `(x, y)` with per-hop step
/// `(dx, dy)` and a small seeded wobble — no RNG state to thread around.
fn walk(id: u32, x: f64, y: f64, dx: f64, dy: f64, n: usize, seed: u64) -> hris_traj::Trajectory {
    use hris_traj::{GpsPoint, TrajId};
    hris_traj::Trajectory::new(
        TrajId(id),
        (0..n)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64 * 0x2545_F491_4F6C_DD1D);
                let wob = ((h >> 33) % 200) as f64 - 100.0;
                GpsPoint::new(
                    hris_geo::Point::new(x + i as f64 * dx + wob, y + i as f64 * dy - wob * 0.5),
                    i as f64 * 120.0,
                )
            })
            .collect(),
    )
}

/// Routes a partition-respecting workload (in-core walks per shard plus
/// seam-straddling walks within the margin slack) through a 2×2
/// [`ShardedEngine`], proves every answer byte-identical to the single-shard
/// engine, and measures throughput and fan-out.
fn measure_sharded(s: &hris_eval::scenario::Scenario, rounds: usize) -> ShardedNumbers {
    let net = Arc::new(s.net.clone());
    let phi = HrisParams::default().phi_m;
    // φ + 900 m of slack: seam pairs stepping ≤ 900 m stay
    // partition-respecting, so even scattered answers are byte-identical.
    let plan = ShardPlan::grid(&net, 2, 2, phi + 900.0);
    let num_shards = plan.num_shards();
    let sharded = ShardedEngine::build(
        Arc::clone(&net),
        &s.archive,
        HrisParams::default(),
        EngineConfig::default(),
        plan,
    );
    let single = EngineHandle::new(Arc::clone(&net), s.archive.clone(), HrisParams::default());

    // Six walks per shard clustered around the core center — far enough
    // from every seam that the φ-bbox fits only the home region, so the
    // router must delegate to that shard — plus six seam walks crossing the
    // vertical seam in 700 m steps.
    let mut per_shard: Vec<Vec<hris_traj::Trajectory>> = Vec::new();
    for sh in 0..num_shards {
        let c = sharded.plan().core(sh);
        per_shard.push(
            (0..6u32)
                .map(|q| {
                    walk(
                        q,
                        c.center().x - 400.0 + q as f64 * 120.0,
                        c.center().y - 300.0 + q as f64 * 100.0,
                        90.0,
                        70.0,
                        5,
                        sh as u64 * 101 + q as u64,
                    )
                })
                .collect(),
        );
    }
    let seam_x = sharded.plan().core(0).max.x;
    let seam: Vec<hris_traj::Trajectory> = (0..6u32)
        .map(|q| {
            let cy = sharded.plan().core(0).center().y + q as f64 * 250.0;
            walk(
                100 + q,
                seam_x - 1_050.0,
                cy,
                700.0,
                40.0,
                4,
                900 + q as u64,
            )
        })
        .collect();

    // Correctness gate before any timing: the sharded engine must reproduce
    // the single-shard engine byte-for-byte on this workload, and the
    // routing must be what the workload was built to exercise.
    let mut dispatches = 0usize;
    let mut scatter_queries = 0usize;
    let mut splices_total = 0usize;
    let mut check = |q: &hris_traj::Trajectory, want_single: Option<usize>| {
        let (got, trace) = sharded.infer_query_traced(q, K);
        let want = single.infer_query(q, K);
        assert_eq!(got.outcome, want.outcome, "sharded outcome parity");
        assert_eq!(got.globals.len(), want.globals.len());
        for (a, b) in got.globals.iter().zip(&want.globals) {
            assert!(
                a.route == b.route && a.log_score.to_bits() == b.log_score.to_bits(),
                "sharded answer diverged from single-shard"
            );
        }
        match trace.kind {
            RouteKind::Single(sh) => {
                if let Some(w) = want_single {
                    assert_eq!(sh, w, "in-core query routed to its own shard");
                }
                dispatches += 1;
            }
            RouteKind::Scatter => {
                let touched: std::collections::HashSet<usize> =
                    trace.pair_shards.iter().copied().collect();
                dispatches += touched.len();
                scatter_queries += 1;
                splices_total += trace.splice_points.len();
            }
            RouteKind::Rejected => panic!("bench workload must not be rejected"),
        }
    };
    for (sh, qs) in per_shard.iter().enumerate() {
        for q in qs {
            check(q, Some(sh));
        }
    }
    for q in &seam {
        check(q, None);
    }
    assert!(scatter_queries > 0, "seam workload must scatter");

    let workload_queries = per_shard.iter().map(Vec::len).sum::<usize>() + seam.len();
    let per_shard_qps: Vec<f64> = per_shard
        .iter()
        .map(|qs| {
            qps(qs.len(), rounds, || {
                qs.iter()
                    .map(|q| {
                        let r = sharded.infer_query(q, K);
                        r.globals
                            .into_iter()
                            .map(|g| ScoredRoute {
                                route: g.route,
                                log_score: g.log_score,
                            })
                            .collect()
                    })
                    .collect()
            })
        })
        .collect();
    let all: Vec<&hris_traj::Trajectory> = per_shard.iter().flatten().chain(seam.iter()).collect();
    let sharded_qps = qps(all.len(), rounds, || {
        all.iter()
            .map(|q| {
                let r = sharded.infer_query(q, K);
                r.globals
                    .into_iter()
                    .map(|g| ScoredRoute {
                        route: g.route,
                        log_score: g.log_score,
                    })
                    .collect()
            })
            .collect()
    });

    ShardedNumbers {
        grid: sharded.plan().grid_dims(),
        margin_m: sharded.plan().margin_m(),
        replication_factor: sharded.replication_factor(),
        per_shard_qps,
        sharded_qps,
        fan_out_ratio: dispatches as f64 / workload_queries as f64,
        scatter_queries,
        splices_total,
        workload_queries,
    }
}

/// Numbers from the storage-diet + soak capacity run.
struct CapacityNumbers {
    trips: usize,
    points: usize,
    materialized_bytes: usize,
    flat_bytes: usize,
    columnar_bytes: usize,
    encode_s: f64,
    decode_s: f64,
    soak: hris_eval::SoakReport,
}

/// Measures the columnar snapshot's storage diet on a city-scale synthetic
/// archive (10× the bench fleet, coordinates quantized to mm and
/// timestamps to ms — the precision GPS hardware actually delivers, and
/// what lets the FIXED column path engage), proves the decode
/// bit-identical, then runs a short warm → overload → recover soak against
/// a gated live handle for the shed-accounting numbers.
fn measure_capacity(
    s: &hris_eval::scenario::Scenario,
    queries: &[hris_traj::Trajectory],
) -> CapacityNumbers {
    use hris_traj::{encode_snapshot, ColumnarSnapshot, SimConfig, Simulator};

    let mut sim = Simulator::new(
        &s.net,
        SimConfig {
            num_trips: 8_000,
            num_od_patterns: 60,
            min_trip_dist_m: 2_000.0,
            seed: 4_242,
            ..SimConfig::default()
        },
    );
    let (raw, _) = sim.generate_archive();
    let trips: Vec<hris_traj::Trajectory> = raw
        .trajectories()
        .iter()
        .map(|t| {
            let q = |v: f64| (v * 1_000.0).round() / 1_000.0;
            hris_traj::Trajectory::new(
                t.id,
                t.points
                    .iter()
                    .map(|p| {
                        hris_traj::GpsPoint::new(
                            hris_geo::Point::new(q(p.pos.x), q(p.pos.y)),
                            q(p.t),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let archive = TrajectoryArchive::new(trips);

    let materialized_bytes = archive.memory_footprint();
    let flat_bytes = archive.to_bytes().len();
    let t0 = Instant::now();
    let blob = encode_snapshot(&archive, 1);
    let encode_s = t0.elapsed().as_secs_f64();
    let columnar_bytes = blob.len();
    let t0 = Instant::now();
    let decoded = ColumnarSnapshot::open(blob)
        .expect("open capacity snapshot")
        .decode_archive()
        .expect("decode capacity snapshot");
    let decode_s = t0.elapsed().as_secs_f64();

    // Correctness gate before the numbers count: bit-identical decode.
    assert_eq!(decoded.num_trajectories(), archive.num_trajectories());
    assert_eq!(decoded.num_points(), archive.num_points());
    for (a, b) in decoded.trajectories().iter().zip(archive.trajectories()) {
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert!(
                pa.t.to_bits() == pb.t.to_bits()
                    && pa.pos.x.to_bits() == pb.pos.x.to_bits()
                    && pa.pos.y.to_bits() == pb.pos.y.to_bits(),
                "columnar decode diverged from the source archive"
            );
        }
    }
    assert!(
        materialized_bytes as f64 / columnar_bytes as f64 >= 2.0,
        "columnar snapshot must at least halve resident archive bytes: \
         {materialized_bytes} materialized vs {columnar_bytes} columnar"
    );

    // Replay soak against the bench scenario's engine with a small gate.
    let cfg = EngineConfig::builder()
        .observability(true)
        .admission(2, 8)
        .build()
        .expect("static engine configuration");
    let handle = Arc::new(EngineHandle::with_config(
        Arc::new(s.net.clone()),
        s.archive.clone(),
        HrisParams::default(),
        cfg,
    ));
    let soak = hris_eval::run_soak(
        &handle,
        queries,
        &hris_eval::SoakConfig {
            warm_qps: 10.0,
            warm_s: 0.5,
            overload_qps: 500.0,
            overload_s: 1.5,
            recover_timeout_s: 15.0,
            k: K,
        },
    );
    assert!(soak.overload.shed > 0, "overload burst must shed");
    assert!(
        soak.queued_high_watermark <= soak.max_queued,
        "waiting room exceeded its bound"
    );

    CapacityNumbers {
        trips: archive.num_trajectories(),
        points: archive.num_points(),
        materialized_bytes,
        flat_bytes,
        columnar_bytes,
        encode_s,
        decode_s,
        soak,
    }
}

/// The scored routes of each answer, in query order.
fn scored(results: Vec<QueryResult>) -> Vec<Vec<ScoredRoute>> {
    results
        .into_iter()
        .map(|r| {
            r.globals
                .into_iter()
                .map(|g| ScoredRoute {
                    route: g.route,
                    log_score: g.log_score,
                })
                .collect()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let s = bench_scenario();
    let queries = resampled_queries(&s, 180.0);
    // One network for the reference pipeline and every engine, so the
    // oracle numbers below cover the whole run.
    let net = Arc::new(s.net.clone());
    let hris = Hris::new(&net, s.archive.clone(), HrisParams::default());
    let engine = |cfg: EngineConfig| {
        EngineHandle::with_config(
            Arc::clone(&net),
            s.archive.clone(),
            HrisParams::default(),
            cfg,
        )
    };

    // Ground truth: the plain sequential pipeline.
    let baseline: Vec<Vec<ScoredRoute>> = queries.iter().map(|q| hris.infer_routes(q, K)).collect();

    let pair_parallel = engine(EngineConfig::default());
    let batch = engine(EngineConfig::default());
    // Two instrumented engines: `observed` is metrics + tracing with span
    // capture switched off (the cheap steady-state config), `spans` adds the
    // default 1-in-16 span sampling on top so the delta isolates span cost.
    let observed = engine(
        EngineConfig::builder()
            .observability(true)
            .span_sampling(0)
            .build()
            .expect("static engine configuration"),
    );
    let spans = engine(
        EngineConfig::builder()
            .observability(true)
            .build()
            .expect("static engine configuration"),
    );

    let run_seq =
        || -> Vec<Vec<ScoredRoute>> { queries.iter().map(|q| hris.infer_routes(q, K)).collect() };
    let run_pair = || -> Vec<Vec<ScoredRoute>> {
        scored(
            queries
                .iter()
                .map(|q| pair_parallel.infer_query(q, K))
                .collect(),
        )
    };
    let run_batch = || -> Vec<Vec<ScoredRoute>> { scored(batch.infer_batch_detailed(&queries, K)) };
    let run_observed =
        || -> Vec<Vec<ScoredRoute>> { scored(observed.infer_batch_detailed(&queries, K)) };
    let run_spans = || -> Vec<Vec<ScoredRoute>> { scored(spans.infer_batch_detailed(&queries, K)) };

    // Correctness gate before any timing: every mode — instrumented or not —
    // must reproduce the sequential pipeline byte-for-byte.
    assert_identical("sequential Hris", &run_seq(), &baseline);
    assert_identical("single-query engine", &run_pair(), &baseline);
    assert_identical("batch engine", &run_batch(), &baseline);
    assert_identical("observed batch engine", &run_observed(), &baseline);
    assert_identical("span-sampling batch engine", &run_spans(), &baseline);

    let rounds = 3;
    let qps_seq = qps(queries.len(), rounds, run_seq);
    let qps_pair = qps(queries.len(), rounds, run_pair);
    // The instrumentation overheads are far smaller than the 3-round sweep's
    // round-to-round noise (a 4-query round is ~15 ms; the old numbers even
    // went negative). The three compared modes get 10 rounds of 5 workload
    // repetitions each, and every overhead carries the propagated per-round
    // spread as a ± bound.
    let (oh_rounds, oh_reps) = (10, 25);
    let batch_samples = qps_samples(queries.len(), oh_rounds, oh_reps, run_batch);
    let observed_samples = qps_samples(queries.len(), oh_rounds, oh_reps, run_observed);
    let spans_samples = qps_samples(queries.len(), oh_rounds, oh_reps, run_spans);
    let qps_batch = mean(&batch_samples);
    let qps_observed = mean(&observed_samples);
    let qps_spans = mean(&spans_samples);
    let (obs_overhead, obs_noise) = overhead_with_noise(&observed_samples, &batch_samples);
    let (span_overhead, span_noise) = overhead_with_noise(&spans_samples, &batch_samples);

    // Per-phase seconds per query, from the observed engine's histograms.
    let obs_snapshot = observed
        .observability()
        .expect("observed engine")
        .snapshot();
    let obs_queries = obs_snapshot
        .counter("hris_engine_queries_total")
        .unwrap_or(0)
        .max(1) as f64;
    let phase_breakdown: Vec<(&str, f64)> = ["candidates", "local", "global", "refine"]
        .iter()
        .map(|phase| {
            let sum = obs_snapshot
                .histogram_sum("hris_engine_phase_seconds", &[("phase", phase)])
                .unwrap_or(0.0);
            (*phase, sum / obs_queries)
        })
        .collect();

    // Learned re-ranking: off is the default (already proven byte-identical
    // to sequential `Hris` above — re-ranking never ran); on pays feature
    // extraction + model scoring per candidate, and may only permute each
    // query's top-K.
    let rr_cfg = hris_eval::TrainConfig {
        interval_s: 180.0,
        max_trips: 40,
        ..hris_eval::TrainConfig::default()
    };
    let rr_pairs = hris_eval::training_pairs(&s, &HrisParams::default(), &rr_cfg);
    let rr_model = hris::train_logistic(&rr_pairs, &rr_cfg.sgd);
    let rerank_engine = engine(
        EngineConfig::builder()
            .rerank(rr_model)
            .build()
            .expect("static engine configuration"),
    );
    let run_rerank =
        || -> Vec<Vec<ScoredRoute>> { scored(rerank_engine.infer_batch_detailed(&queries, K)) };
    let rerank_results = run_rerank();
    let mut rerank_reordered = 0usize;
    for (qi, (g, w)) in rerank_results.iter().zip(&baseline).enumerate() {
        let key = |r: &ScoredRoute| (r.route.segments().to_vec(), r.log_score.to_bits());
        let mut a: Vec<_> = g.iter().map(key).collect();
        let mut b: Vec<_> = w.iter().map(key).collect();
        if a != b {
            rerank_reordered += 1;
        }
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "rerank must permute query {qi}'s top-K, not rescore it"
        );
    }
    let rerank_samples = qps_samples(queries.len(), oh_rounds, oh_reps, run_rerank);
    let qps_rerank_on = mean(&rerank_samples);
    let (rerank_overhead, rerank_noise) = overhead_with_noise(&rerank_samples, &batch_samples);

    let ingest = measure_ingest(&s, &queries);
    let sharded = measure_sharded(&s, rounds);
    let capacity = measure_capacity(&s, &queries);

    // Shortest-path-oracle economics: one-off preprocessing cost, cache
    // behaviour over the run, and the sequential qps movement against the
    // recorded PR-5 baseline (the pre-oracle hot path on this workload).
    const QPS_SEQUENTIAL_PR5: f64 = 70.261_814_197_632_66;
    let oracle = net.sp_oracle();

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let report = serde_json::json!({
        "bench": "e2e_throughput",
        "scenario": {
            "queries": queries.len(),
            "interval_s": 180.0,
            "k": K,
            "rounds": rounds,
            "overhead_rounds": oh_rounds,
            "overhead_reps": oh_reps,
        },
        "threads": threads,
        "queries_per_sec": {
            "sequential": qps_seq,
            "pair_parallel": qps_pair,
            "batch": qps_batch,
            "batch_observed": qps_observed,
            "batch_spans": qps_spans,
        },
        "speedup_over_sequential": {
            "pair_parallel": qps_pair / qps_seq,
            "batch": qps_batch / qps_seq,
        },
        "observability_overhead": obs_overhead,
        "observability_overhead_noise": obs_noise,
        "span_overhead": span_overhead,
        "span_overhead_noise": span_noise,
        "ingest_throughput": {
            "trajectories_per_sec": ingest.trajectories_per_sec,
            "points_per_sec": ingest.points_per_sec,
            "epochs_published": ingest.epochs_published,
            "concurrent_batch_qps": ingest.concurrent_batch_qps,
        },
        "phase_seconds_per_query": {
            "candidates": phase_breakdown[0].1,
            "local": phase_breakdown[1].1,
            "global": phase_breakdown[2].1,
            "refine": phase_breakdown[3].1,
        },
        "oracle": {
            "preprocessing_s": oracle.preprocessing_seconds(),
            "spt_hits": oracle.hits(),
            "spt_misses": oracle.misses(),
            "cached_trees": oracle.cached_trees(),
            "qps_sequential_before": QPS_SEQUENTIAL_PR5,
            "qps_sequential_after": qps_seq,
            "sequential_speedup": qps_seq / QPS_SEQUENTIAL_PR5,
        },
        "outputs_identical_to_sequential": true,
        "rerank": {
            "train_pairs": rr_pairs.len(),
            "qps_off": qps_batch,
            "qps_on": qps_rerank_on,
            "overhead": rerank_overhead,
            "overhead_noise": rerank_noise,
            "queries_reordered": rerank_reordered,
            "outputs_identical_when_off": true,
            "on_is_permutation_of_off": true,
        },
        "sharded": {
            "grid": format!("{}x{}", sharded.grid.0, sharded.grid.1),
            "margin_m": sharded.margin_m,
            "replication_factor": sharded.replication_factor,
            "workload_queries": sharded.workload_queries,
            "per_shard_qps": sharded.per_shard_qps,
            "sharded_qps": sharded.sharded_qps,
            "fan_out_ratio": sharded.fan_out_ratio,
            "scatter_queries": sharded.scatter_queries,
            "splices_total": sharded.splices_total,
            "outputs_identical_to_single_shard": true,
        },
        "capacity": {
            "archive": {
                "trips": capacity.trips,
                "points": capacity.points,
            },
            "storage": {
                "materialized_bytes": capacity.materialized_bytes,
                "flat_bytes": capacity.flat_bytes,
                "columnar_bytes": capacity.columnar_bytes,
                "reduction_vs_materialized":
                    capacity.materialized_bytes as f64 / capacity.columnar_bytes as f64,
                "reduction_vs_flat":
                    capacity.flat_bytes as f64 / capacity.columnar_bytes as f64,
                "columnar_bytes_per_point":
                    capacity.columnar_bytes as f64 / capacity.points as f64,
                "encode_s": capacity.encode_s,
                "decode_s": capacity.decode_s,
                "decode_byte_identical": true,
            },
            "soak": {
                "warm_qps_offered": capacity.soak.warm.achieved_qps,
                "warm_shed": capacity.soak.warm.shed,
                "overload_offered": capacity.soak.overload.offered,
                "overload_shed": capacity.soak.overload.shed,
                "overload_shed_rate": capacity.soak.overload.shed_rate(),
                "shed_total": capacity.soak.shed_total,
                "queued_high_watermark": capacity.soak.queued_high_watermark,
                "max_queued": capacity.soak.max_queued,
                "saw_unhealthy_under_overload": capacity.soak.saw_unhealthy_under_overload,
                "recovery_s": capacity.soak.recovery_s,
                "resident_growth_bytes": capacity.soak.resident_growth_bytes(),
            },
        },
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("write BENCH_e2e.json");
    println!(
        "e2e qps ({threads} thread(s)): sequential {qps_seq:.2}, \
         pair-parallel {qps_pair:.2}, batch {qps_batch:.2}, \
         batch+obs {qps_observed:.2} ({:.2}% ± {:.2}% overhead), \
         batch+spans {qps_spans:.2} ({:.2}% ± {:.2}% overhead)",
        100.0 * obs_overhead,
        100.0 * obs_noise,
        100.0 * span_overhead,
        100.0 * span_noise
    );
    println!(
        "rerank: {:.2} qps on vs {:.2} qps off ({:.2}% ± {:.2}% overhead), \
         {} pairs trained, {}/{} queries reordered",
        qps_rerank_on,
        qps_batch,
        100.0 * rerank_overhead,
        100.0 * rerank_noise,
        rr_pairs.len(),
        rerank_reordered,
        queries.len()
    );
    print!("phase seconds/query:");
    for (phase, s) in &phase_breakdown {
        print!(" {phase} {s:.5}");
    }
    println!();
    println!(
        "ingest: {:.1} traj/s ({:.0} points/s) over {} epochs, \
         {:.2} qps served concurrently",
        ingest.trajectories_per_sec,
        ingest.points_per_sec,
        ingest.epochs_published,
        ingest.concurrent_batch_qps
    );
    println!(
        "sharded {}x{} (margin {:.0} m, replication {:.2}x): {:.2} qps, \
         fan-out {:.2}, {} scatter queries / {} splices, per-shard {:?}",
        sharded.grid.0,
        sharded.grid.1,
        sharded.margin_m,
        sharded.replication_factor,
        sharded.sharded_qps,
        sharded.fan_out_ratio,
        sharded.scatter_queries,
        sharded.splices_total,
        sharded
            .per_shard_qps
            .iter()
            .map(|q| (q * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    println!(
        "capacity: {} trips / {} points; {:.1} MiB materialized -> {:.1} MiB columnar \
         ({:.2}x; flat {:.2}x), {:.3} B/point; soak shed {}/{} ({:.0}%), \
         watermark {}/{}, recovery {:?}s",
        capacity.trips,
        capacity.points,
        capacity.materialized_bytes as f64 / (1024.0 * 1024.0),
        capacity.columnar_bytes as f64 / (1024.0 * 1024.0),
        capacity.materialized_bytes as f64 / capacity.columnar_bytes as f64,
        capacity.flat_bytes as f64 / capacity.columnar_bytes as f64,
        capacity.columnar_bytes as f64 / capacity.points as f64,
        capacity.soak.overload.shed,
        capacity.soak.overload.offered,
        100.0 * capacity.soak.overload.shed_rate(),
        capacity.soak.queued_high_watermark,
        capacity.soak.max_queued,
        capacity.soak.recovery_s,
    );

    let mut g = c.benchmark_group("e2e_throughput");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(hris.infer_routes(q, K));
            }
        });
    });
    g.bench_function("pair_parallel", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(pair_parallel.infer_query(q, K));
            }
        });
    });
    g.bench_function("batch", |b| {
        b.iter(|| black_box(batch.infer_batch_detailed(&queries, K)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
