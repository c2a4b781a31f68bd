//! The four workloads, and the steps the graph workloads share: writing a
//! shard store, loading it back into a deployment graph, and running a
//! vertex program on it. Each step is one call into a layer, timed and
//! spanned through the [`Recorder`].

pub mod evict_resume;
pub mod frontier_sssp;
pub mod pagerank_rmat;
pub mod provision_sweep;

use crate::spans::{p50_p99, Recorder};
use crate::spec::WORKERS;
use hourglass_engine::loaders::{reload_graph, stream_load, Datastore, LoadStats};
use hourglass_engine::{BspEngine, EngineConfig, ExecutionReport, VertexProgram};
use hourglass_graph::io_binary::{decode_arcs_into, ShardedArcs, ARC_BYTES};
use hourglass_graph::io_mmap::MappedShards;
use hourglass_graph::Graph;
use hourglass_partition::Partitioning;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A graph persisted as a flat shard store, with what a load needs to
/// know about it.
pub struct StoredGraph {
    /// The `HGS2` file.
    pub path: PathBuf,
    /// Owner of every vertex ([`WORKERS`] parts).
    pub part: Partitioning,
    /// Vertices of the graph.
    pub num_vertices: usize,
    /// Edges of the graph (every generated graph is undirected).
    pub num_edges: usize,
}

/// Writes `sharded` to `path` (`ShardedArcs::write_to`, checksums
/// included), flushes, and samples `graph.shard_write_mbs`.
pub fn write_store(sharded: &ShardedArcs, path: &Path, rec: &mut Recorder) {
    let ((), secs) = rec.time("graph", "shard_write", || {
        let file = std::fs::File::create(path).expect("create the store file");
        let mut w = std::io::BufWriter::new(file);
        sharded.write_to(&mut w).expect("write the store");
        w.flush().expect("flush the store");
    });
    rec.sample(
        "graph.shard_write_mbs",
        sharded.serialized_size() as f64 / secs / 1e6,
    );
}

/// Hash-partitions `g` over [`WORKERS`] and persists it as a flat store.
pub fn store_flat(g: &Graph, path: PathBuf, rec: &mut Recorder) -> StoredGraph {
    use hourglass_partition::hash::HashPartitioner;
    use hourglass_partition::Partitioner;
    let (sharded, _) = rec.time("graph", "shard_build", || ShardedArcs::flat_from_graph(g));
    write_store(&sharded, &path, rec);
    let (part, secs) = rec.time("partition", "hash", || {
        HashPartitioner
            .partition(g, WORKERS)
            .expect("hash partition")
    });
    rec.sample("partition.hash_s", secs);
    let (cut, _) = rec.time("partition", "edge_cut", || {
        hourglass_partition::quality::edge_cut_fraction(g, &part)
    });
    rec.sample("partition.edge_cut_pct", 100.0 * cut);
    StoredGraph {
        path,
        part,
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
    }
}

/// Open the mapped store → `stream_load` → `reload_graph`: the deployment
/// graph, the load's accounting, and whether nothing was lost on the way.
pub fn load_graph(job: &StoredGraph, rec: &mut Recorder) -> (Graph, LoadStats, bool) {
    let (store, secs) = rec.time("graph", "mmap_open", || {
        Datastore::mapped_from_path(&job.path).expect("open the store")
    });
    rec.sample("graph.mmap_open_s", secs);
    let ((slabs, stats), secs) = rec.time("engine.loaders", "stream_load", || {
        stream_load(&store, &job.part)
    });
    let arcs = (store.byte_size() / ARC_BYTES) as f64;
    rec.sample("engine.loaders.stream_load_arcs_per_s", arcs / secs);
    rec.sample("engine.loaders.bytes_parsed", stats.bytes_parsed as f64);
    rec.sample("engine.loaders.arcs_exchanged", stats.arcs_exchanged as f64);
    let (graph, secs) = rec.time("engine.loaders", "reload_graph", || {
        reload_graph(&slabs, job.num_vertices, false).expect("reload")
    });
    rec.sample("engine.loaders.reload_graph_s", secs);
    let lossless = stats.lines_skipped == 0 && graph.num_edges() == job.num_edges;
    (graph, stats, lossless)
}

/// `BspEngine::new` → `run` → `into_values`, sampling the `engine.bsp.*`
/// metrics a finished run yields.
pub fn run_program<P: VertexProgram>(
    program: P,
    graph: &Graph,
    part: &Partitioning,
    rec: &mut Recorder,
) -> (Vec<P::Value>, ExecutionReport) {
    let (mut engine, secs) = rec.time("engine.bsp", "new", || {
        BspEngine::new(program, graph, part.clone(), EngineConfig::default()).expect("engine")
    });
    rec.sample("engine.bsp.new_s", secs);
    let (report, secs) = rec.time("engine.bsp", "run", || engine.run().expect("run"));
    sample_run(&report, secs, graph.num_vertices(), rec);
    let (values, _) = rec.time("engine.bsp", "into_values", || engine.into_values());
    (values, report)
}

/// Samples the `engine.bsp.*` metrics of one finished run of `secs` wall
/// seconds over `n` vertices.
pub fn sample_run(report: &ExecutionReport, secs: f64, n: usize, rec: &mut Recorder) {
    let m = &report.metrics;
    let msgs = report.total_messages as f64;
    let active: u64 = m.steps().iter().map(|s| s.active_vertices).sum();
    rec.sample("engine.bsp.compute_s", m.total_worker_seconds());
    rec.sample("engine.bsp.deliver_s", m.total_delivery_seconds());
    rec.sample("engine.bsp.barrier_wait_s", m.total_barrier_wait_seconds());
    rec.sample("engine.bsp.critical_path_s", m.critical_path_seconds());
    rec.sample("engine.bsp.ns_per_msg", secs * 1e9 / msgs);
    rec.sample("engine.bsp.msgs_per_s", msgs / secs);
    rec.sample(
        "engine.bsp.scan_efficiency",
        active as f64 / (n as f64 * report.supersteps as f64),
    );
    rec.sample("engine.bsp.remote_msg_frac", m.remote_fraction());
    rec.sample("engine.bsp.supersteps", report.supersteps as f64);
    rec.sample("engine.bsp.total_messages", msgs);
}

/// Probe: the program once more, superstep by superstep through `step`,
/// timing each from outside (`engine.bsp.superstep_p50_us`/`_p99_us`), and
/// once with `parallel: false` against the threaded run
/// (`engine.bsp.seq_compute_s`, `engine.bsp.par_speedup`).
pub fn probe_engine<P: VertexProgram + Clone>(
    program: &P,
    graph: &Graph,
    part: &Partitioning,
    rec: &mut Recorder,
) {
    let mut engine = BspEngine::new(
        program.clone(),
        graph,
        part.clone(),
        EngineConfig::default(),
    )
    .expect("engine");
    let mut step_us = Vec::new();
    let t_par = Instant::now();
    loop {
        let t0 = Instant::now();
        let done = engine.step().expect("step");
        step_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if done {
            break;
        }
    }
    let par = t_par.elapsed().as_secs_f64();
    let (p50, p99) = p50_p99(&mut step_us);
    rec.sample("engine.bsp.superstep_p50_us", p50);
    rec.sample("engine.bsp.superstep_p99_us", p99);

    let config = EngineConfig {
        parallel: false,
        ..EngineConfig::default()
    };
    let mut engine = BspEngine::new(program.clone(), graph, part.clone(), config).expect("engine");
    let t0 = Instant::now();
    engine.run().expect("sequential run");
    let seq = t0.elapsed().as_secs_f64();
    rec.sample("engine.bsp.seq_compute_s", seq);
    rec.sample("engine.bsp.par_speedup", seq / par);
}

/// Probe: `MappedShards::verify_all` over the store file
/// (`graph.verify_gbs`) and `decode_arcs_into` over its whole payload
/// (`graph.decode_arcs_per_s`).
pub fn probe_store(path: &Path, rec: &mut Recorder) {
    let mapped = MappedShards::open(path).expect("open the store");
    let bytes = mapped.payload_bytes() as f64;
    let t0 = Instant::now();
    mapped.verify_all().expect("verify");
    rec.sample("graph.verify_gbs", bytes / t0.elapsed().as_secs_f64() / 1e9);
    let mut arcs = Vec::with_capacity(mapped.num_arcs() as usize);
    let t0 = Instant::now();
    decode_arcs_into(mapped.payload(), &mut arcs);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(arcs.len() as u64, mapped.num_arcs());
    rec.sample("graph.decode_arcs_per_s", arcs.len() as f64 / secs);
}

/// Probe: runs `op` with an `hourglass-obs` trace session installed, then
/// with an `hourglass-metrics` session, and samples what each costs over
/// the plain `answer_s` (`obs.on_cost_pct`, `obs.spans`,
/// `metrics.on_cost_pct`). `op` returns the seconds of its operation; the
/// samples it records itself are dropped, so that the layer metrics stay
/// those of runs with telemetry off.
pub fn probe_telemetry(
    answer_s: f64,
    rec: &mut Recorder,
    mut op: impl FnMut(&mut Recorder) -> f64,
) {
    let was_tracing = rec.tracing();
    rec.set_tracing(false);
    let kept = rec.samples().len();
    let session = hourglass_obs::TraceSession::start();
    let obs_secs = op(rec);
    let trace = session.finish();
    let session = hourglass_metrics::MetricsSession::start();
    let metrics_secs = op(rec);
    let snapshot = session.finish();
    assert!(
        !snapshot.series.is_empty(),
        "the metrics session saw the run"
    );
    rec.truncate_samples(kept);
    rec.set_tracing(was_tracing);
    rec.sample("obs.on_cost_pct", 100.0 * (obs_secs - answer_s) / answer_s);
    rec.sample("obs.spans", trace.spans.len() as f64);
    rec.sample(
        "metrics.on_cost_pct",
        100.0 * (metrics_secs - answer_s) / answer_s,
    );
}
