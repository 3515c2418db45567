//! Ad-hoc hot-path profiler: runs the e2e bench workload in a loop so
//! `perf`/instrumentation can see where local inference spends its time.

use hris::prelude::*;
use hris_bench::{bench_scenario, resampled_queries};
use std::time::Instant;

fn main() {
    let s = bench_scenario();
    let queries = resampled_queries(&s, 180.0);
    let hris = Hris::new(&s.net, s.archive.clone(), HrisParams::default());
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let t0 = Instant::now();
    let mut n = 0usize;
    for _ in 0..rounds {
        for q in &queries {
            n += hris.infer_routes(q, 2).len();
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{} query runs in {:.3}s => {:.1} qps (checksum {n})",
        rounds * queries.len(),
        dt,
        (rounds * queries.len()) as f64 / dt
    );
}
