//! Router-level `/metrics` parity and structure golden.
//!
//! Two contracts of the federated scrape surface:
//!
//! * **Parity** — the live server's `/metrics` body is byte-identical to
//!   [`hris_obs::export::prometheus_text`] over
//!   [`ShardedEngine::metrics_snapshot`]: federation happens in the
//!   snapshot, not in the serving path.
//! * **Structure** — the set of series (names, label sets — including the
//!   per-shard `shard` labels — and `# HELP`/`# TYPE` headers) over a
//!   pinned workload is deterministic and matches a golden file. Values
//!   are scrubbed (wall-clock sums and gauges are host-dependent); the
//!   *shape* of the scrape surface is the API under test.
//!
//! To bless an intentional change:
//!
//! ```text
//! BLESS=1 cargo test -p hris-router --test router_metrics_golden
//! ```

use hris::{EngineConfig, HrisParams};
use hris_geo::Point;
use hris_obs::export::prometheus_text;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{ShardPlan, ShardedEngine};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const GOLDEN: &str = "tests/golden/router_metrics_structure.txt";

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        seed: 19,
        ..NetworkConfig::default()
    }))
}

fn sim_archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 60,
            num_od_patterns: 7,
            min_trip_dist_m: 400.0,
            seed: 12,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

/// A pinned workload covering every router path that registers series:
/// delegation to both shards, a scatter across the seam, and a rejection.
fn run_workload(engine: &ShardedEngine, net: &RoadNetwork) {
    for s in 0..engine.num_shards() {
        let c = engine.plan().core(s).center();
        let q = Trajectory::new(
            TrajId(10 + s as u32),
            (0..4)
                .map(|i| {
                    GpsPoint::new(
                        Point::new(c.x - 300.0 + i as f64 * 150.0, c.y + i as f64 * 80.0),
                        i as f64 * 90.0,
                    )
                })
                .collect(),
        );
        let _ = engine.infer_query(&q, 2);
    }
    let seam_x = engine.plan().core(0).max.x;
    let y = net.bbox().center().y;
    let scatter = Trajectory::new(
        TrajId(20),
        [-1_400.0, -700.0, 700.0, 1_400.0]
            .iter()
            .enumerate()
            .map(|(i, dx)| {
                GpsPoint::new(
                    Point::new(seam_x + dx, y + i as f64 * 40.0),
                    i as f64 * 120.0,
                )
            })
            .collect(),
    );
    let _ = engine.infer_query(&scatter, 2);
    let _ = engine.infer_query(&Trajectory::new(TrajId(30), Vec::new()), 2);
}

/// Minimal HTTP/1.1 GET over a plain socket: status code + body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The scrape body with every sample value scrubbed to `V`: `# HELP` and
/// `# TYPE` lines verbatim, sample lines keep `name{labels}` only.
fn structure_of(scrape: &str) -> String {
    let mut out = String::new();
    for line in scrape.lines() {
        if line.starts_with('#') || line.is_empty() {
            out.push_str(line);
        } else {
            let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
            out.push_str(series);
            out.push_str(" V");
        }
        out.push('\n');
    }
    out
}

#[test]
fn federated_scrape_is_parity_with_the_snapshot_and_structurally_pinned() {
    let net = net();
    let archive = sim_archive(&net);
    let params = HrisParams::default();
    let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
    let engine = Arc::new(ShardedEngine::build(
        Arc::clone(&net),
        &archive,
        params,
        EngineConfig::builder()
            .observability(true)
            .build()
            .expect("static engine configuration"),
        plan,
    ));
    run_workload(&engine, &net);

    // Parity: the endpoint renders exactly the federated snapshot.
    let server = engine.serve_metrics("127.0.0.1:0").expect("bind");
    let (code, body) = http_get(server.addr(), "/metrics");
    assert_eq!(code, 200);
    assert_eq!(
        body,
        prometheus_text(&engine.metrics_snapshot()),
        "/metrics must be byte-identical to the federated snapshot"
    );
    server.shutdown();

    // Shard labels are actually present before we pin the shape.
    assert!(body.contains("shard=\"0\""));
    assert!(body.contains("shard=\"1\""));

    // Structure golden: series names + label sets, values scrubbed.
    let got = structure_of(&body);
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var("BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(golden_path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&golden_path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing {GOLDEN}; run `BLESS=1 cargo test -p hris-router --test router_metrics_golden` once"
        )
    });
    if got != want {
        let got_set: std::collections::BTreeSet<&str> = got.lines().collect();
        let want_set: std::collections::BTreeSet<&str> = want.lines().collect();
        let added: Vec<&&str> = got_set.difference(&want_set).collect();
        let removed: Vec<&&str> = want_set.difference(&got_set).collect();
        panic!(
            "federated scrape structure changed.\n\nadded ({}):\n{}\n\nremoved ({}):\n{}\n\n\
             If intentional, regenerate with \
             `BLESS=1 cargo test -p hris-router --test router_metrics_golden` \
             and commit the golden file.",
            added.len(),
            added
                .iter()
                .map(|s| format!("  {s}"))
                .collect::<Vec<_>>()
                .join("\n"),
            removed.len(),
            removed
                .iter()
                .map(|s| format!("  {s}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}
