//! End-to-end raw-speed driver: generate an R-MAT graph, persist it as a
//! checksummed `HGS2` shard store, reopen it (memory-mapped by default),
//! load it through the streaming loader, reconstruct the CSR and run
//! fixed-iteration PageRank — printing a per-phase breakdown and
//! self-checking the result (no skipped input, converged run, total rank
//! ≈ 1). This is the PR measurement harness for the 100M+-edge regime:
//! `--scale 23` locally, `--smoke` (scale 16) in the perf-smoke CI job.
//!
//! Takes its own flags (not [`hourglass_bench::Cli`], which rejects
//! unknown arguments like `--scale`):
//!
//! ```text
//! perf_e2e [--scale N] [--ef N] [--workers K] [--iters N] [--seed N]
//!          [--format text|binary|binary-mmap] [--pin] [--sequential]
//!          [--trace PATH] [--json PATH] [--profile-json PATH]
//!          [--metrics PATH] [--bench-report PATH] [--smoke]
//! ```
//!
//! `--bench-report PATH` writes the standardized `bench_report` JSON
//! (schema `hourglass-bench-report/v1`, see `results/README.md`) that
//! `hourglass bench-diff` compares against the checked-in baseline.

use hourglass_bench::MetricsHandle;
use hourglass_engine::apps::PageRank;
use hourglass_engine::loaders::{reload_graph, stream_load, Datastore, StoreFormat};
use hourglass_engine::{BspEngine, EngineConfig};
use hourglass_graph::generators::{self, RmatParams};
use hourglass_metrics as hm;
use hourglass_obs as obs;
use hourglass_partition::hash::HashPartitioner;
use hourglass_partition::Partitioner;
use std::time::Instant;

struct Args {
    scale: u32,
    ef: usize,
    workers: u32,
    iters: usize,
    seed: u64,
    format: StoreFormat,
    parallel: bool,
    trace: Option<String>,
    json: Option<String>,
    profile_json: Option<String>,
    metrics: Option<String>,
    bench_report: Option<String>,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: 16,
        ef: 12,
        workers: 4,
        iters: 10,
        seed: 42,
        format: StoreFormat::BinaryMapped,
        parallel: true,
        trace: None,
        json: None,
        profile_json: None,
        metrics: None,
        bench_report: None,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                a.scale = num(&argv, i, "--scale");
            }
            "--ef" => {
                i += 1;
                a.ef = num(&argv, i, "--ef");
            }
            "--workers" => {
                i += 1;
                a.workers = num(&argv, i, "--workers");
            }
            "--iters" => {
                i += 1;
                a.iters = num(&argv, i, "--iters");
            }
            "--seed" => {
                i += 1;
                a.seed = num(&argv, i, "--seed");
            }
            "--format" => {
                i += 1;
                a.format = match argv.get(i).map(String::as_str) {
                    Some("text") => StoreFormat::Text,
                    Some("binary") => StoreFormat::Binary,
                    Some("binary-mmap") => StoreFormat::BinaryMapped,
                    other => die(&format!(
                        "--format needs text|binary|binary-mmap, got {other:?}"
                    )),
                };
            }
            "--pin" => hourglass_exec::pin::force_enable(),
            "--sequential" => a.parallel = false,
            "--trace" => {
                i += 1;
                a.trace = Some(
                    argv.get(i)
                        .unwrap_or_else(|| die("--trace needs a path"))
                        .clone(),
                );
            }
            "--json" => {
                i += 1;
                a.json = Some(
                    argv.get(i)
                        .unwrap_or_else(|| die("--json needs a path"))
                        .clone(),
                );
            }
            "--profile-json" => {
                i += 1;
                a.profile_json = Some(
                    argv.get(i)
                        .unwrap_or_else(|| die("--profile-json needs a path"))
                        .clone(),
                );
            }
            "--metrics" => {
                i += 1;
                a.metrics = Some(
                    argv.get(i)
                        .unwrap_or_else(|| die("--metrics needs a path"))
                        .clone(),
                );
            }
            "--bench-report" => {
                i += 1;
                a.bench_report = Some(
                    argv.get(i)
                        .unwrap_or_else(|| die("--bench-report needs a path"))
                        .clone(),
                );
            }
            "--smoke" => {
                a.smoke = true;
                a.scale = a.scale.min(16);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: perf_e2e [--scale N] [--ef N] [--workers K] [--iters N] \
                     [--seed N] [--format text|binary|binary-mmap] [--pin] \
                     [--sequential] [--trace PATH] [--json PATH] \
                     [--profile-json PATH] [--metrics PATH] \
                     [--bench-report PATH] [--smoke]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    a
}

fn num<T: std::str::FromStr>(argv: &[String], i: usize, flag: &str) -> T {
    argv.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a numeric value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let a = parse_args();
    println!(
        "== perf_e2e: scale {} ef {} ({} format, {} workers, {} iterations) ==",
        a.scale, a.ef, a.format, a.workers, a.iters
    );
    let session = obs::TraceSession::start();
    let metrics = MetricsHandle::new(a.metrics.clone());
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let timed = |name: &'static str, phases: &mut Vec<(&str, f64)>, f: &mut dyn FnMut()| {
        let t = Instant::now();
        {
            let _s = obs::span(name, "perf_e2e");
            f();
        }
        let secs = t.elapsed().as_secs_f64();
        println!("  {name:<12} {secs:>9.3}s");
        phases.push((name, secs));
    };

    // Phase 1: synthesize the input graph.
    let mut g_opt = None;
    timed("generate", &mut phases, &mut || {
        g_opt =
            Some(generators::rmat(a.scale, a.ef, RmatParams::SOCIAL, a.seed).expect("generate"));
    });
    let g = g_opt.expect("generated");
    println!(
        "  graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Phase 2: persist + reopen the datastore in the requested format.
    let store_path =
        std::env::temp_dir().join(format!("perf-e2e-{}-s{}.hgs2", std::process::id(), a.scale));
    let mut store_opt = None;
    timed("store", &mut phases, &mut || {
        store_opt = Some(match a.format {
            StoreFormat::Text => Datastore::text_flat(&g),
            StoreFormat::Binary => Datastore::binary_flat(&g),
            StoreFormat::BinaryMapped => {
                Datastore::mapped_flat(&g, &store_path).expect("mapped store")
            }
        });
    });
    let store = store_opt.expect("store built");

    // Phase 3: distributed load (parse + route + slab build).
    let part = HashPartitioner.partition(&g, a.workers).expect("partition");
    let mut loaded = None;
    timed("load", &mut phases, &mut || {
        loaded = Some(stream_load(&store, &part));
    });
    let (slabs, stats) = loaded.expect("loaded");
    assert_eq!(stats.lines_skipped, 0, "a well-formed store loads fully");
    println!(
        "  load: {} bytes parsed, {} arcs exchanged, 0 skipped",
        stats.bytes_parsed, stats.arcs_exchanged
    );

    // Phase 4: reconstruct the CSR the engine computes on.
    let mut reloaded = None;
    timed("reload", &mut phases, &mut || {
        reloaded = Some(reload_graph(&slabs, g.num_vertices(), g.is_directed()).expect("reload"));
    });
    let rg = reloaded.expect("reloaded");
    assert_eq!(rg.num_edges(), g.num_edges(), "lossless load");

    // Phase 5: compute.
    let config = EngineConfig {
        parallel: a.parallel,
        ..EngineConfig::default()
    };
    let mut outcome = None;
    timed("compute", &mut phases, &mut || {
        let mut e =
            BspEngine::new(PageRank::fixed(a.iters), &rg, part.clone(), config).expect("engine");
        let report = e.run().expect("run");
        outcome = Some((report, e.into_values()));
    });
    let (report, values) = outcome.expect("computed");
    assert!(report.converged, "fixed-iteration PageRank must converge");
    let total_rank: f64 = values.iter().sum();
    assert!(
        (total_rank - 1.0).abs() < 1e-6,
        "rank mass conserved (got {total_rank})"
    );
    println!(
        "  compute: {} supersteps, {} messages ({} remote), Σrank = {total_rank:.9}",
        report.supersteps, report.total_messages, report.remote_messages
    );

    if let Some(snapshot) = metrics.finish() {
        // The load and compute phases above must have folded the loader
        // and engine families into the exported snapshot.
        assert!(snapshot.family_total("hourglass_loader_loads_total") > 0.0);
        assert_eq!(
            snapshot.family_total("hourglass_engine_supersteps_total"),
            report.supersteps as f64,
            "metrics registry disagrees with the engine report"
        );
    }

    let trace = session.finish();
    if let Some(path) = &a.trace {
        let file = std::fs::File::create(path).expect("create trace file");
        let mut w = std::io::BufWriter::new(file);
        obs::chrome::write_chrome_trace(&trace, &mut w).expect("write trace");
        println!(
            "chrome trace written to {path} ({} records)",
            trace.spans.len()
        );
    }
    if let Some(path) = &a.profile_json {
        let json = obs::profile::ProfileSummary::from_trace(&trace).to_json();
        std::fs::write(path, json).expect("write profile json");
        println!("profile json written to {path}");
    }
    println!("{}", obs::profile::profile_report(&trace, 12));

    if let Some(path) = &a.bench_report {
        let mut r = hm::bench_report::BenchReport::new("perf_e2e");
        r.config("scale", a.scale);
        r.config("ef", a.ef);
        r.config("workers", a.workers);
        r.config("iters", a.iters);
        r.config("seed", a.seed);
        r.config("format", a.format.to_string());
        r.config("parallel", a.parallel);
        for (name, secs) in &phases {
            r.phase(name, *secs);
        }
        r.counter("vertices", g.num_vertices() as f64);
        r.counter("edges", g.num_edges() as f64);
        r.counter("bytes_parsed", stats.bytes_parsed as f64);
        r.counter("arcs_exchanged", stats.arcs_exchanged as f64);
        r.counter("supersteps", report.supersteps as f64);
        r.counter("total_messages", report.total_messages as f64);
        std::fs::write(path, r.to_json()).expect("write bench report");
        println!("bench report written to {path}");
    }

    if let Some(path) = &a.json {
        let doc = serde_json::json!({
            "scale": a.scale,
            "ef": a.ef,
            "workers": a.workers,
            "iters": a.iters,
            "format": a.format.to_string(),
            "parallel": a.parallel,
            "pinned": hourglass_exec::pin::enabled(),
            "vertices": g.num_vertices(),
            "edges": g.num_edges(),
            "phases": phases.iter().map(|(n, s)| serde_json::json!({"phase": n, "seconds": s})).collect::<Vec<_>>(),
            "bytes_parsed": stats.bytes_parsed,
            "arcs_exchanged": stats.arcs_exchanged,
            "lines_skipped": stats.lines_skipped,
            "supersteps": report.supersteps,
            "total_messages": report.total_messages,
            "remote_messages": report.remote_messages,
            "compute_wall_seconds": report.wall_seconds,
            "total_rank": total_rank,
        });
        std::fs::write(path, serde_json::to_string_pretty(&doc).expect("json"))
            .expect("write json");
        println!("json written to {path}");
    }

    std::fs::remove_file(&store_path).ok();
    if a.smoke {
        println!(
            "perf_e2e smoke passed: lossless load, converged in {} supersteps",
            report.supersteps
        );
    }
}
