//! `pagerank_rmat`: ingest-to-answer on a skewed graph with every vertex
//! active and every message combined — compute and delivery dominate.
//!
//! Operation: open the mapped store → `stream_load` → `reload_graph` →
//! `BspEngine::new(PageRank::fixed(6))` → `run` → ranks. Work is the
//! run's `total_messages`.

use super::StoredGraph;
use super::{load_graph, probe_engine, probe_store, probe_telemetry, run_program, store_flat};
use crate::oracle;
use crate::spans::{Recorder, BENCH_LAYER};
use crate::spec::rmat::{EDGE_FACTOR, PAGERANK_ITERATIONS, SCALE};
use crate::{RepResult, Workload};
use hourglass_engine::apps::PageRank;
use hourglass_graph::generators::{self, RmatParams};
use std::path::Path;
use std::time::Instant;

/// Largest rank error against the dense oracle a repetition may show.
/// Ranks are ≈ 4e-6; the engine and the oracle only differ in summation
/// order.
pub const RANK_TOLERANCE: f64 = 1e-12;

/// The workload's inputs.
pub struct PagerankRmat {
    job: StoredGraph,
    oracle: Vec<f64>,
}

impl PagerankRmat {
    /// The ranks every repetition is checked against (the harness tests
    /// corrupt one to see the failure reported).
    pub fn oracle_mut(&mut self) -> &mut [f64] {
        &mut self.oracle
    }

    fn operation(&self, rec: &mut Recorder) -> (RepResult, Vec<f64>) {
        let root = rec.begin(BENCH_LAYER, "rep");
        let t0 = Instant::now();
        let (graph, _stats, lossless) = load_graph(&self.job, rec);
        let program = PageRank::fixed(PAGERANK_ITERATIONS);
        let (ranks, report) = run_program(program, &graph, &self.job.part, rec);
        let total: f64 = ranks.iter().sum();
        let seconds = t0.elapsed().as_secs_f64();
        rec.end(root);
        let ok = lossless && report.converged && (total - 1.0).abs() < 1e-6;
        let result = RepResult {
            seconds,
            work: report.total_messages as f64,
            ok,
            counters: vec![
                ("edges", self.job.num_edges as f64),
                ("supersteps", report.supersteps as f64),
                ("total_messages", report.total_messages as f64),
                ("remote_messages", report.remote_messages as f64),
            ],
            ..RepResult::default()
        };
        (result, ranks)
    }
}

impl Workload for PagerankRmat {
    const NAME: &'static str = "pagerank_rmat";

    fn setup(seed: u64, dir: &Path, rec: &mut Recorder) -> Self {
        let (g, secs) = rec.time("graph", "rmat_gen", || {
            generators::rmat(SCALE, EDGE_FACTOR, RmatParams::SOCIAL, seed).expect("generate")
        });
        rec.sample("graph.rmat_gen_s", secs);
        let job = store_flat(&g, dir.join("pagerank_rmat.hgs2"), rec);
        let (oracle, _) = rec.time(BENCH_LAYER, "oracle", || {
            oracle::pagerank(&g, PAGERANK_ITERATIONS)
        });
        PagerankRmat { job, oracle }
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepResult {
        let (mut result, ranks) = self.operation(rec);
        result.ok &= oracle::max_abs_diff(&ranks, &self.oracle) < RANK_TOLERANCE;
        result
    }

    fn probes(&mut self, rec: &mut Recorder, answer_s: f64) {
        probe_store(&self.job.path, rec);
        let mut quiet = Recorder::untraced();
        let (graph, _, _) = load_graph(&self.job, &mut quiet);
        let program = PageRank::fixed(PAGERANK_ITERATIONS);
        probe_engine(&program, &graph, &self.job.part, rec);
        drop(graph);
        probe_telemetry(answer_s, rec, |rec| self.operation(rec).0.seconds);
    }
}
