//! `frontier_sssp`: the same engine used the opposite way — hundreds of
//! supersteps with a few thousand active vertices each, so a repetition is
//! per-superstep fixed cost (halt scan, fork/join, barrier, transpose),
//! not message traffic.
//!
//! Operation: open the mapped store → `stream_load` → `reload_graph` →
//! `BspEngine::new(Sssp)` → `run` → distances. Work is the vertices
//! scanned: `n × supersteps`.

use super::{load_graph, probe_engine, run_program, store_flat, StoredGraph};
use crate::oracle;
use crate::spans::{Recorder, BENCH_LAYER};
use crate::spec::ws::{BETA, K, SETUP_SEEDS, SHAPE_SEED, VERTICES};
use crate::spec::WORKERS;
use crate::{RepResult, Workload};
use hourglass_engine::apps::Sssp;
use hourglass_graph::generators;
use hourglass_graph::{GraphBuilder, VertexId};
use std::path::Path;
use std::time::Instant;

/// Rounds of the `exec.fork_join_us` probe.
const FORK_JOIN_ROUNDS: usize = 1000;

/// The workload's inputs.
pub struct FrontierSssp {
    job: StoredGraph,
    source: VertexId,
    oracle: Vec<u32>,
}

impl Workload for FrontierSssp {
    const NAME: &'static str = "frontier_sssp";

    fn setup(seed: u64, dir: &Path, rec: &mut Recorder) -> Self {
        // The ring's shape is fixed and the seed relabels it (see
        // `spec::ws::SHAPE_SEED`): the diameter of a sparse small-world
        // ring moves by ±10% from one shape to the next, which would make
        // `answer_s` a property of the seed and not of the program.
        let (ring, _) = rec.time("graph", "watts_strogatz", || {
            generators::watts_strogatz(VERTICES, K, BETA, SHAPE_SEED).expect("generate")
        });
        let mut kept = None;
        for i in (0..SETUP_SEEDS).rev() {
            let ((g, source), _) = rec.time("graph", "relabel", || {
                let label = oracle::permutation(VERTICES, seed.wrapping_add(i));
                let mut b = GraphBuilder::undirected(VERTICES);
                b.reserve(ring.num_edges());
                b.extend_edges(
                    ring.edges()
                        .map(|(u, v)| (label[u as usize], label[v as usize])),
                );
                (b.build().expect("relabel"), label[0])
            });
            let job = store_flat(&g, dir.join("frontier_sssp.hgs2"), rec);
            let (oracle, _) = rec.time(BENCH_LAYER, "oracle", || oracle::bfs_distances(&g, source));
            kept = Some(FrontierSssp {
                job,
                source,
                oracle,
            });
        }
        kept.expect("SETUP_SEEDS is at least 1")
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepResult {
        let root = rec.begin(BENCH_LAYER, "rep");
        let t0 = Instant::now();
        let (graph, _stats, lossless) = load_graph(&self.job, rec);
        let program = Sssp {
            source: self.source,
        };
        let (dist, report) = run_program(program, &graph, &self.job.part, rec);
        let seconds = t0.elapsed().as_secs_f64();
        rec.end(root);
        let ok = lossless && report.converged && oracle::sssp_matches_bfs(&dist, &self.oracle);
        RepResult {
            seconds,
            work: (self.job.num_vertices * report.supersteps) as f64,
            ok,
            counters: vec![
                ("edges", self.job.num_edges as f64),
                ("supersteps", report.supersteps as f64),
                ("total_messages", report.total_messages as f64),
                ("remote_messages", report.remote_messages as f64),
            ],
            ..RepResult::default()
        }
    }

    fn probes(&mut self, rec: &mut Recorder, _answer_s: f64) {
        let mut quiet = Recorder::untraced();
        let (graph, _, _) = load_graph(&self.job, &mut quiet);
        let program = Sssp {
            source: self.source,
        };
        probe_engine(&program, &graph, &self.job.part, rec);

        // k empty tasks per round: what one fork/join costs the engine at
        // every superstep, whatever the tasks do.
        let t0 = Instant::now();
        for _ in 0..FORK_JOIN_ROUNDS {
            let tasks: Vec<_> = (0..WORKERS).map(|i| move || i).collect();
            std::hint::black_box(hourglass_exec::fork_join(true, tasks));
        }
        rec.sample(
            "exec.fork_join_us",
            t0.elapsed().as_secs_f64() * 1e6 / FORK_JOIN_ROUNDS as f64,
        );
    }
}
