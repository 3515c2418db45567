//! The traced run's work counts repeat exactly for the same seed, on every
//! workload (over a shrunken city, so the test stays quick).

use hris_eval::scenario::ScenarioConfig;
use hris_perfbench::bench::run_traced;
use hris_perfbench::inputs::{Inputs, Workload};
use hris_roadnet::NetworkConfig;

fn small_inputs(workload: Workload, seed: u64) -> Inputs {
    let mut cfg = ScenarioConfig::quick(3);
    cfg.net = NetworkConfig {
        blocks_x: 14,
        blocks_y: 14,
        block_m: 300.0,
        arterial_every: 6,
        seed: 0x51,
        ..NetworkConfig::default()
    };
    cfg.sim.num_trips = 240;
    cfg.sim.num_od_patterns = 12;
    cfg.sim.min_trip_dist_m = 1_500.0;
    cfg.num_queries = 6;
    cfg.query_len_m = (2_000.0, 4_000.0);
    Inputs::from_config(workload, cfg, 60.0, seed)
}

/// Name and bit pattern of every exact count of one traced run.
fn exact_counts(workload: Workload, seed: u64) -> Vec<(&'static str, u64)> {
    let (report, log) = run_traced(&small_inputs(workload, seed), 0.3);
    assert!(report.correct(), "{}", report.summary());
    assert!(!log.spans().is_empty());
    report
        .metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_equal_counts() {
    for workload in [
        Workload::City,
        Workload::Metro,
        Workload::CitySharded,
        Workload::Live,
    ] {
        let first = exact_counts(workload, 7);
        assert!(first.len() > 20, "{}: too few counts", workload.name());
        assert_eq!(first, exact_counts(workload, 7), "{}", workload.name());
    }
}

#[test]
fn another_seed_draws_other_inputs() {
    let a = small_inputs(Workload::City, 7);
    let b = small_inputs(Workload::City, 8);
    assert_eq!(a.net.num_segments(), b.net.num_segments());
    assert_ne!(
        a.queries
            .iter()
            .map(|q| q.points.clone())
            .collect::<Vec<_>>(),
        b.queries
            .iter()
            .map(|q| q.points.clone())
            .collect::<Vec<_>>()
    );
}
