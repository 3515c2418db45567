//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [FIGURE ...] [--full] [--seed N] [--out DIR] [--metrics-out FILE]
//!             [--audit-out FILE]
//!
//! FIGURE: table2 fig8a fig8b fig9a fig9b fig10a fig10b fig11a fig11b
//!         fig12a fig12b fig13a fig13b fig14a fig14b ablation temporal
//!         freespace rerank all   (default: all)
//! --full : paper-scale scenario (~25 km city, thousands of trips);
//!          default is the laptop-quick scenario.
//! --out  : also write each figure's CSV into DIR.
//! --metrics-out : run an instrumented pass of the base workload, print the
//!          phase/cache summary, and write the full metrics + trace JSON
//!          (registry snapshot and per-query TraceRecords) to FILE.
//! --audit-out : run an explain-enabled pass of the base workload and write
//!          every query's audit document (candidate counts, top-K routes
//!          with score components and rerank attributions, events) to FILE
//!          as one JSON array.
//! ```
//!
//! Run with `cargo run --release -p hris-eval --bin experiments -- all`.

use hris_eval::experiments as ex;
use hris_eval::scenario::{Scenario, ScenarioConfig};
use hris_eval::table::Table;
use std::collections::BTreeSet;

struct Args {
    figures: BTreeSet<String>,
    full: bool,
    seed: u64,
    out: Option<String>,
    metrics_out: Option<String>,
    audit_out: Option<String>,
}

fn parse_args() -> Args {
    let mut figures = BTreeSet::new();
    let mut full = false;
    let mut seed = 42u64;
    let mut out = None;
    let mut metrics_out = None;
    let mut audit_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => out = Some(it.next().expect("--out needs a directory")),
            "--metrics-out" => {
                metrics_out = Some(it.next().expect("--metrics-out needs a file path"));
            }
            "--audit-out" => {
                audit_out = Some(it.next().expect("--audit-out needs a file path"));
            }
            other => {
                figures.insert(other.to_string());
            }
        }
    }
    if figures.is_empty() {
        figures.insert("all".to_string());
    }
    Args {
        figures,
        full,
        seed,
        out,
        metrics_out,
        audit_out,
    }
}

fn main() {
    let args = parse_args();
    let want = |name: &str| args.figures.contains("all") || args.figures.contains(name);

    let mut outputs: Vec<Table> = Vec::new();

    if want("table2") {
        println!("{}", ex::table2());
    }

    // Base scenario: queries around the default length.
    let needs_base = [
        "fig8a",
        "fig9a",
        "fig9b",
        "fig10a",
        "fig10b",
        "fig11a",
        "fig11b",
        "fig12a",
        "fig12b",
        "fig13a",
        "fig13b",
        "fig14a",
        "fig14b",
        "ablation",
        "freespace",
        "rerank",
    ]
    .iter()
    .any(|f| want(f))
        || args.metrics_out.is_some()
        || args.audit_out.is_some();

    let base: Option<Scenario> = if needs_base {
        let cfg = if args.full {
            ScenarioConfig::full(args.seed)
        } else {
            ScenarioConfig::quick(args.seed)
        };
        eprintln!(
            "building base scenario (full={}, seed={}) ...",
            args.full, args.seed
        );
        let s = Scenario::build(cfg);
        eprintln!(
            "  net: {} nodes / {} segments; archive: {} trips / {} points; {} queries",
            s.net.num_nodes(),
            s.net.num_segments(),
            s.archive.num_trajectories(),
            s.archive.num_points(),
            s.queries.len()
        );
        Some(s)
    } else {
        None
    };

    if let Some(s) = &base {
        if want("fig8a") {
            run(&mut outputs, || ex::fig8a(s));
        }
        if want("fig9a") || want("fig9b") {
            let (a, b) = ex::fig9(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig10a") || want("fig10b") {
            let (a, b) = ex::fig10(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig11a") || want("fig11b") {
            let (a, b) = ex::fig11(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig12a") || want("fig12b") {
            let (a, b) = ex::fig12(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig13a") || want("fig13b") {
            let (a, b) = ex::fig13(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig14a") {
            run(&mut outputs, || ex::fig14a(s));
        }
        if want("fig14b") {
            run(&mut outputs, || ex::fig14b(s));
        }
        if want("ablation") {
            run(&mut outputs, || ex::ablation(s));
        }
        if want("freespace") {
            run(&mut outputs, || ex::freespace(s));
        }
        if want("rerank") {
            run(&mut outputs, || ex::rerank_uplift(s));
        }
    }

    // The temporal extension needs a diurnal-demand scenario.
    if want("temporal") {
        let mut cfg = if args.full {
            ScenarioConfig::full(args.seed ^ 2)
        } else {
            ScenarioConfig::quick(args.seed ^ 2)
        };
        cfg.sim.diurnal_peaks = true;
        eprintln!("building diurnal scenario for the temporal extension ...");
        let s = Scenario::build(cfg);
        run(&mut outputs, || ex::temporal(&s));
    }

    // Figure 8b needs a wide query-length spread.
    if want("fig8b") {
        let (mut cfg, buckets): (ScenarioConfig, Vec<f64>) = if args.full {
            let mut c = ScenarioConfig::full(args.seed ^ 1);
            c.query_len_m = (8_000.0, 32_000.0);
            c.num_queries = 50;
            (c, vec![10.0, 15.0, 20.0, 25.0, 30.0])
        } else {
            let mut c = ScenarioConfig::quick(args.seed ^ 1);
            c.query_len_m = (2_000.0, 8_000.0);
            c.num_queries = 30;
            (c, vec![2.5, 3.5, 4.5, 5.5, 6.5])
        };
        cfg.sim.min_trip_dist_m = cfg.query_len_m.0 * 0.6;
        eprintln!("building wide-length scenario for fig8b ...");
        let s = Scenario::build(cfg);
        eprintln!("  {} queries", s.queries.len());
        run(&mut outputs, || ex::fig8b(&s, &buckets));
    }

    // Instrumented pass: same base workload, observed engine, sequential so
    // phase times attribute the wall time exactly.
    if let Some(path) = &args.metrics_out {
        let s = base
            .as_ref()
            .expect("metrics pass builds the base scenario");
        let interval_s = 180.0;
        eprintln!("running instrumented pass (interval {interval_s}s) ...");
        let (outcome, report) =
            hris_eval::evaluate_hris_observed(s, &hris::HrisParams::default(), interval_s, None);
        println!("{}", report.summary());
        println!(
            "   accuracy {:.4}   mean query time {:.4}s",
            outcome.mean_accuracy, outcome.mean_time_s
        );
        eprintln!("running robustness pass (100-case fault corpus) ...");
        let rob = hris_eval::evaluate_robustness(s, &hris::HrisParams::default(), args.seed, 100);
        println!("{}", rob.summary());
        eprintln!("running rerank uplift pass (fleet-trained model) ...");
        let rr = hris_eval::train_and_evaluate(
            s,
            &hris::HrisParams::default(),
            &hris_eval::TrainConfig {
                interval_s,
                ..hris_eval::TrainConfig::default()
            },
        );
        println!("{}", rr.summary());
        // Same top-level keys as before, plus the robustness/rerank blocks.
        let obs_json = report.to_json();
        let combined = format!(
            "{},\"robustness\":{},\"rerank\":{}}}",
            obs_json.trim_end_matches('}'),
            rob.to_json(),
            rr.to_json()
        );
        std::fs::write(path, combined).expect("write metrics json");
        eprintln!("wrote {path}");
    }

    // Explain pass: same base workload through an explain-enabled engine;
    // every query's audit document lands in FILE as one JSON array.
    if let Some(path) = &args.audit_out {
        let s = base.as_ref().expect("audit pass builds the base scenario");
        eprintln!("running explain-enabled audit pass ...");
        let audits = hris_eval::audit_hris(s, &hris::HrisParams::default(), 180.0, 3);
        std::fs::write(path, format!("[{}]", audits.join(","))).expect("write audit json");
        eprintln!("wrote {path} ({} audit records)", audits.len());
    }

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        for t in &outputs {
            let name = t.id.to_lowercase().replace(' ', "_");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

fn run<F: FnOnce() -> Table>(outputs: &mut Vec<Table>, f: F) {
    let t = f();
    report(outputs, t);
}

fn report(outputs: &mut Vec<Table>, t: Table) {
    println!("{t}");
    outputs.push(t);
}
