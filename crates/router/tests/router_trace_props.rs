//! Property suite for the distributed tracing layer.
//!
//! Two invariants the stitched span trees must hold under *any* workload:
//!
//! * **Completeness** — every traced query (delegated, scattered, rerouted,
//!   rejected) yields exactly one span tree with one `query` root, every
//!   parent resolvable, a shard span for every shard the dispatch touched,
//!   and — for scatter queries — the `splice` span parented under the root.
//! * **Identity** — trace ids are process-unique: concurrent batches across
//!   multiple router instances never mint the same id, and every recorded
//!   trace/audit pair joins on it.

use hris::{EngineConfig, HrisParams};
use hris_geo::Point;
use hris_obs::{Span, TraceRecord};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{RouteKind, ShardPlan, ShardedEngine};
use hris_traj::{GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        seed: 19,
        ..NetworkConfig::default()
    }))
}

/// A random-walk archive spread over the network bounds.
fn random_archive(net: &RoadNetwork, trips: usize, seed: u64) -> TrajectoryArchive {
    let b = net.bbox();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..trips {
        let n = rng.gen_range(2..10);
        let mut x: f64 = rng.gen_range(b.min.x..b.max.x);
        let mut y: f64 = rng.gen_range(b.min.y..b.max.y);
        let mut t = rng.gen_range(0.0..86_400.0);
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            pts.push(GpsPoint::new(Point::new(x, y), t));
            x = (x + rng.gen_range(-500.0..500.0f64)).clamp(b.min.x, b.max.x);
            y = (y + rng.gen_range(-500.0..500.0f64)).clamp(b.min.y, b.max.y);
            t += rng.gen_range(30.0..240.0);
        }
        out.push(Trajectory::new(TrajId(0), pts));
    }
    TrajectoryArchive::new(out)
}

/// A random-walk query over the whole network: free to land in-core
/// (delegated) or across seams (scattered) — the property must hold for
/// whatever dispatch shape it draws.
fn random_query(net: &RoadNetwork, seed: u64, n_pts: usize) -> Trajectory {
    let b = net.bbox();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let mut x: f64 = rng.gen_range(b.min.x..b.max.x);
    let mut y: f64 = rng.gen_range(b.min.y..b.max.y);
    let mut t = 0.0;
    let pts = (0..n_pts)
        .map(|_| {
            let p = GpsPoint::new(Point::new(x, y), t);
            x = (x + rng.gen_range(-900.0..900.0f64)).clamp(b.min.x, b.max.x);
            y = (y + rng.gen_range(-900.0..900.0f64)).clamp(b.min.y, b.max.y);
            t += rng.gen_range(60.0..180.0);
            p
        })
        .collect();
    Trajectory::new(TrajId(6_000_000 + seed as u32), pts)
}

fn traced_engine(
    net: &Arc<RoadNetwork>,
    archive: &TrajectoryArchive,
    nx: usize,
    ny: usize,
) -> Arc<ShardedEngine> {
    let params = HrisParams::default();
    let plan = ShardPlan::grid(net, nx, ny, params.phi_m + 900.0);
    let cfg = EngineConfig::builder()
        .observability(true)
        .explain(true)
        .trace_capacity(64)
        .build()
        .expect("static engine configuration");
    Arc::new(ShardedEngine::build(
        Arc::clone(net),
        archive,
        params,
        cfg,
        plan,
    ))
}

/// The completeness property of one stitched tree.
fn check_complete(rec: &TraceRecord, kind: &RouteKind) -> Result<(), TestCaseError> {
    let spans = &rec.spans;
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    prop_assert_eq!(roots.len(), 1, "exactly one root");
    prop_assert_eq!(roots[0].name.as_str(), "query");
    prop_assert_eq!(roots[0].id, rec.root_span);
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    prop_assert_eq!(ids.len(), spans.len(), "span ids unique within a tree");
    for s in spans {
        prop_assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "unresolvable parent {} of {}",
            s.parent,
            s.name
        );
    }
    let shard_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "shard").collect();
    match kind {
        RouteKind::Single(_) => {
            prop_assert_eq!(shard_spans.len(), 1, "delegation touches one shard");
        }
        RouteKind::Scatter => {
            // One shard span per *distinct* touched shard, and the splice
            // parented under the root.
            prop_assert!(!shard_spans.is_empty());
            let splices: Vec<&Span> = spans.iter().filter(|s| s.name == "splice").collect();
            prop_assert_eq!(splices.len(), 1, "scatter queries splice once");
            prop_assert_eq!(splices[0].parent, roots[0].id, "splice hangs off the root");
        }
        RouteKind::Rejected => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary workloads over arbitrary grids: every query's stitched
    /// tree is complete and records exactly the shards the dispatch
    /// reports having touched.
    #[test]
    fn every_query_yields_one_complete_stitched_tree(
        nx in 1usize..4,
        ny in 1usize..3,
        arch_seed in 0u64..20,
        q_seed in 0u64..1_000,
        n_pts in 2usize..7,
    ) {
        let net = net();
        let archive = random_archive(&net, 30, arch_seed);
        let engine = traced_engine(&net, &archive, nx, ny);
        let ring = engine.trace_ring().expect("tracing is on");

        for qi in 0..3u64 {
            let q = random_query(&net, q_seed.wrapping_add(qi * 7_919), n_pts);
            let (_, route) = engine.infer_query_traced(&q, 2);
            let rec = ring.snapshot().pop().expect("every query records a trace");
            check_complete(&rec, &route.kind)?;

            // The shard spans name exactly the shards the dispatch touched.
            let touched: HashSet<i64> = match &route.kind {
                RouteKind::Single(s) => [*s as i64].into_iter().collect(),
                RouteKind::Scatter => route.epochs.iter().map(|&(s, _)| s as i64).collect(),
                RouteKind::Rejected => HashSet::new(),
            };
            let seen: HashSet<i64> = rec
                .spans
                .iter()
                .filter(|s| s.name == "shard")
                .filter_map(|s| {
                    s.attrs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                        ("shard", hris_obs::AttrValue::Int(i)) => Some(*i),
                        _ => None,
                    })
                })
                .collect();
            prop_assert_eq!(seen, touched, "shard spans cover the touched shards");
        }
    }

    /// Concurrent batches across two independent routers: every recorded
    /// trace carries a distinct id and its own query's audit.
    #[test]
    fn trace_ids_never_collide_across_concurrent_batches(
        arch_seed in 0u64..10,
        q_seed in 0u64..500,
    ) {
        let net = net();
        let archive = random_archive(&net, 25, arch_seed);
        let engines = [
            traced_engine(&net, &archive, 2, 1),
            traced_engine(&net, &archive, 1, 2),
        ];

        const THREADS: usize = 4;
        const PER_THREAD: usize = 5;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let engine = Arc::clone(&engines[t % engines.len()]);
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let q = random_query(&net, q_seed + (t * PER_THREAD + i) as u64, 4);
                    let _ = engine.infer_query_traced(&q, 2);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker thread");
        }

        let mut all_ids = Vec::new();
        for engine in &engines {
            let recs = engine.trace_ring().expect("tracing is on").snapshot();
            for rec in &recs {
                prop_assert!(rec.trace_id > 0, "traced queries mint nonzero ids");
                all_ids.push(rec.trace_id);
            }
            // Every record carries its query's audit, filed under the
            // record's own trace and query ids.
            for rec in &recs {
                let audit = rec.audit.as_deref().expect("explain is on");
                let identity = format!(
                    "{{\"trace_id\":{},\"query_id\":{},",
                    rec.trace_id, rec.query_id
                );
                prop_assert!(audit.starts_with(&identity), "{}", audit);
            }
        }
        prop_assert_eq!(all_ids.len(), THREADS * PER_THREAD, "every query recorded");
        let distinct: HashSet<u64> = all_ids.iter().copied().collect();
        prop_assert_eq!(distinct.len(), all_ids.len(), "trace ids are unique");
    }
}
