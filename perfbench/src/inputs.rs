//! Workloads and the seeded inputs they run on.
//!
//! Every input is a pure function of the workload and the seed: the road
//! network, the archive (handed to the program as columnar snapshot bytes,
//! the form a server loads it in), the `live` writer's trip stream, and the
//! distinct queries with their ground-truth routes. The program under test
//! receives only these generated values.
//!
//! The city of a workload — its road network, its travel-demand model (the
//! origin–destination patterns trips follow) and the routes its queries
//! drive — comes from the fixed [`CITY_SEED`]; the seed draws the archive's
//! trips from that demand model and the queries' speeds and GPS noise.
//! Across generated cities, and across query routes drawn anew, the cost of
//! a query moves by 20–45%, which would drown every bound the benchmark can
//! set.

use bytes::Bytes;
use hris_eval::scenario::{QueryCase, Scenario, ScenarioConfig};
use hris_roadnet::{generator, RoadNetwork, Route};
use hris_traj::simulator::drive_route;
use hris_traj::{
    add_gps_noise, resample_to_interval, ArchiveSnapshot, Simulator, TrajId, Trajectory,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Distinct queries per workload. Drawn from the scenario's own demand
/// model, so no workload degenerates into a replay of a few cached keys.
pub const DISTINCT_QUERIES: usize = 300;

/// Routes asked for per query.
pub const K: usize = 2;

/// Seed of every workload's road network, travel-demand model and query
/// routes.
pub const CITY_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quick-scale city; the archive fits the projection memo.
    City,
    /// Full-scale city; the archive overflows the projection memo.
    Metro,
    /// The `City` inputs served by a 2×2 sharded router.
    CitySharded,
    /// Quick-scale city over a live, paced sliding-window archive.
    Live,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::City,
        Workload::Metro,
        Workload::CitySharded,
        Workload::Live,
    ];

    /// The workload named `name`, as given on the command line.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::Metro => "metro",
            Workload::CitySharded => "city-sharded",
            Workload::Live => "live",
        }
    }

    /// The scenario this workload's city is generated from, and the
    /// sampling interval its queries are resampled to, in seconds.
    #[must_use]
    pub fn scenario(self) -> (ScenarioConfig, f64) {
        let (mut cfg, interval_s) = match self {
            Workload::Metro => (ScenarioConfig::full(CITY_SEED), 360.0),
            Workload::City | Workload::CitySharded | Workload::Live => {
                (ScenarioConfig::quick(CITY_SEED), 180.0)
            }
        };
        cfg.num_queries = DISTINCT_QUERIES;
        (cfg, interval_s)
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    /// Which workload these inputs serve.
    pub workload: Workload,
    /// The road network as generated. Its lazily built caches are empty;
    /// every set-up clones it, so every engine starts cold.
    pub net: RoadNetwork,
    /// The archive the engine is built from, as columnar snapshot bytes.
    /// On `live` this is the sliding window's initial content.
    pub archive_bytes: Bytes,
    /// Trajectories in `archive_bytes`.
    pub archive_trips: usize,
    /// Points in `archive_bytes`.
    pub archive_points: usize,
    /// Trips the `live` writer replays, in arrival order (empty otherwise).
    pub stream: Vec<Trajectory>,
    /// Distinct queries, already resampled.
    pub queries: Vec<Trajectory>,
    /// Ground-truth route of each query.
    pub truths: Vec<Route>,
}

impl Inputs {
    /// The inputs of `workload` for `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let (cfg, interval_s) = workload.scenario();
        Inputs::from_config(workload, cfg, interval_s, seed)
    }

    /// The inputs of `workload` for `seed` over an explicit scenario (tests
    /// shrink it).
    #[must_use]
    pub fn from_config(
        workload: Workload,
        cfg: ScenarioConfig,
        interval_s: f64,
        seed: u64,
    ) -> Inputs {
        let scenario = draw_scenario(cfg, seed);
        let (archive, stream) = if workload == Workload::Live {
            scenario.ingestion_split(0.5)
        } else {
            (scenario.archive.clone(), Vec::new())
        };
        let (queries, truths) = scenario
            .queries
            .iter()
            .map(|q| (resample_to_interval(&q.dense, interval_s), q.truth.clone()))
            .unzip();
        Inputs {
            workload,
            archive_trips: archive.num_trajectories(),
            archive_points: archive.num_points(),
            archive_bytes: ArchiveSnapshot::new(0, archive).to_columnar(),
            net: scenario.net,
            stream,
            queries,
            truths,
        }
    }
}

/// [`Scenario::build`] with the draws split between the city and the seed.
/// The network, the demand model and the query routes come from `cfg`'s own
/// seeds; the simulator's random stream is then re-seeded from `seed` to
/// draw the archive trips, and each query route is driven at a seeded speed
/// with seeded GPS noise.
fn draw_scenario(cfg: ScenarioConfig, seed: u64) -> Scenario {
    let net = generator::generate(&cfg.net);
    let (archive, archive_truth, queries) = {
        let mut sim = Simulator::new(&net, cfg.sim.clone());
        // Twice the routes needed: a route the seeded speed cannot drive
        // into a trajectory is skipped, and every seed must still get
        // `num_queries` queries.
        let mut routes = Vec::new();
        let mut guard = 0usize;
        while routes.len() < 2 * cfg.num_queries && guard < cfg.num_queries * 400 {
            guard += 1;
            let Some(trip) = sim.generate_trips_n(1).into_iter().next() else {
                break;
            };
            let len = trip.route.length(&net);
            if len >= cfg.query_len_m.0 && len <= cfg.query_len_m.1 {
                routes.push(trip);
            }
        }
        *sim.rng() = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_A5A5);
        let (archive, archive_truth) = sim.generate_archive();
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let mut queries = Vec::with_capacity(cfg.num_queries);
        for trip in routes {
            if queries.len() == cfg.num_queries {
                break;
            }
            let speed_factor = rng.gen_range(0.6..0.9);
            let Some(points) = drive_route(
                &net,
                &trip.route,
                trip.depart_t,
                cfg.query_interval_s,
                speed_factor,
            ) else {
                continue;
            };
            let dense = Trajectory::new(TrajId(queries.len() as u32), points);
            let noisy = add_gps_noise(&dense, cfg.query_noise_m, &mut rng);
            queries.push(QueryCase {
                dense: noisy,
                truth: trip.route,
            });
        }
        (archive, archive_truth, queries)
    };
    Scenario {
        net,
        archive,
        archive_truth,
        queries,
        config: cfg,
    }
}
