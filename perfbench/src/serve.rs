//! Building an engine from the generated inputs, and driving it through
//! its public entry points.

use crate::inputs::{Inputs, Workload, K};
use hris::{EngineConfig, EngineHandle, GlobalRoute, HrisParams, QueryResult};
use hris_roadnet::RoadNetwork;
use hris_router::{RouteTrace, ShardPlan, ShardedEngine};
use hris_traj::{ArchiveSnapshot, ArchiveWriter, ColumnarSnapshot, IngestOptions, Trajectory};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for the batch entry point and the concurrent clients.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The parameters every workload serves with (the paper's defaults).
#[must_use]
pub fn params() -> HrisParams {
    HrisParams::default()
}

/// The engine a workload serves with.
pub enum Engine {
    /// One engine over a pinned snapshot (`city`, `metro`).
    Single(EngineHandle),
    /// A 2×2 grid of shard engines behind the router (`city-sharded`).
    Sharded(ShardedEngine),
    /// One engine following a live writer (`live`).
    Live(EngineHandle),
}

impl Engine {
    /// One query through the canonical single-query entry point.
    #[must_use]
    pub fn infer_query(&self, query: &Trajectory) -> QueryResult {
        match self {
            Engine::Single(h) | Engine::Live(h) => h.infer_query(query, K),
            Engine::Sharded(s) => s.infer_query(query, K),
        }
    }

    /// Every query, answered with `nproc()` workers: the canonical batch
    /// entry point on a single engine; on the router, which has none,
    /// `nproc()` closed-loop clients sharing the queries.
    #[must_use]
    pub fn infer_all(&self, queries: &[Trajectory]) -> Vec<QueryResult> {
        match self {
            Engine::Single(h) | Engine::Live(h) => h.infer_batch_detailed(queries, K),
            Engine::Sharded(s) => parallel_map(queries, |q| s.infer_query(q, K)),
        }
    }

    /// The router, on `city-sharded`.
    #[must_use]
    pub fn sharded(&self) -> Option<&ShardedEngine> {
        match self {
            Engine::Sharded(s) => Some(s),
            Engine::Single(_) | Engine::Live(_) => None,
        }
    }

    /// The single-engine handle, on every workload but `city-sharded`.
    #[must_use]
    pub fn handle(&self) -> Option<&EngineHandle> {
        match self {
            Engine::Single(h) | Engine::Live(h) => Some(h),
            Engine::Sharded(_) => None,
        }
    }
}

/// A served workload: the engine plus what it was built over.
pub struct Served {
    /// The engine.
    pub engine: Engine,
    /// Its road network (its caches warmed by the set-up pass).
    pub net: Arc<RoadNetwork>,
    /// The archive the engine was built over (epoch 0 on `live`).
    pub archive: Arc<ArchiveSnapshot>,
    /// The writer publishing epochs to the engine, on `live`.
    pub writer: Option<ArchiveWriter>,
    /// Answers of the set-up pass, one per query.
    pub cold_answers: Vec<QueryResult>,
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Archive bytes → archive.
    pub decode_s: f64,
    /// Engine or router construction plus shortest-path oracle
    /// preprocessing.
    pub build_s: f64,
    /// The first pass over the distinct queries, with `nproc()` workers.
    pub cold_pass_s: f64,
}

impl SetupTimes {
    /// The whole set-up, inputs to warm engine.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.decode_s + self.build_s + self.cold_pass_s
    }
}

/// Builds the workload's engine from its inputs and warms it with one pass
/// over the distinct queries. The network is cloned first (untimed), so
/// every set-up starts from cold network caches.
#[must_use]
pub fn setup(inputs: &Inputs) -> (Served, SetupTimes) {
    let net = Arc::new(inputs.net.clone());
    let bytes = inputs.archive_bytes.clone();

    let t0 = Instant::now();
    let archive = ColumnarSnapshot::open(bytes)
        .and_then(|s| s.decode_archive())
        .expect("generated archive bytes decode");
    let decode_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut writer = None;
    let cfg = EngineConfig::default();
    let (engine, archive) = match inputs.workload {
        Workload::City | Workload::Metro => {
            let snap = Arc::new(ArchiveSnapshot::new(0, archive));
            let h = EngineHandle::from_snapshot(Arc::clone(&net), Arc::clone(&snap), params(), cfg);
            (Engine::Single(h), snap)
        }
        Workload::CitySharded => {
            let plan = ShardPlan::grid(&net, 2, 2, params().phi_m);
            let router = ShardedEngine::build(Arc::clone(&net), &archive, params(), cfg, plan);
            (
                Engine::Sharded(router),
                Arc::new(ArchiveSnapshot::new(0, archive)),
            )
        }
        Workload::Live => {
            let opts = IngestOptions {
                retain_max_trajectories: Some(archive.num_trajectories()),
                ..IngestOptions::default()
            };
            let w = ArchiveWriter::with_options(archive, opts);
            let h = EngineHandle::live(Arc::clone(&net), w.reader(), params(), cfg);
            let snap = w.snapshot();
            writer = Some(w);
            (Engine::Live(h), snap)
        }
    };
    let _ = net.sp_oracle();
    let build_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let cold_answers = engine.infer_all(&inputs.queries);
    let cold_pass_s = t2.elapsed().as_secs_f64();

    let served = Served {
        engine,
        net,
        archive,
        writer,
        cold_answers,
    };
    let times = SetupTimes {
        decode_s,
        build_s,
        cold_pass_s,
    };
    (served, times)
}

/// A single engine over `archive` on `net`, for comparisons.
#[must_use]
pub fn single_engine(net: &Arc<RoadNetwork>, archive: &Arc<ArchiveSnapshot>) -> EngineHandle {
    EngineHandle::from_snapshot(
        Arc::clone(net),
        Arc::clone(archive),
        params(),
        EngineConfig::default(),
    )
}

/// The router's answer and dispatch record for every query, with
/// `nproc()` clients.
#[must_use]
pub fn routed_all(
    router: &ShardedEngine,
    queries: &[Trajectory],
) -> Vec<(QueryResult, RouteTrace)> {
    parallel_map(queries, |q| router.infer_query_traced(q, K))
}

/// `f` over every item with `nproc()` threads pulling items from a shared
/// cursor (closed-loop clients); results in item order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Whether two top-K answers are byte-identical: same routes, same local
/// route choices, same `log_score` bits.
#[must_use]
pub fn same_answer(a: &[GlobalRoute], b: &[GlobalRoute]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.route == y.route
                && x.local_indices == y.local_indices
                && x.log_score.to_bits() == y.log_score.to_bits()
        })
}
