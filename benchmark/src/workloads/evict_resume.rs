//! `evict_resume`: the paper's §6 path. A PageRank job on a
//! micro-partitioned store is evicted again and again; each repetition is
//! one recovery cycle, so checkpoint decode/encode, shard loading and slab
//! building dominate and the engine's message path runs one superstep.
//!
//! Operation, starting from nothing in memory and a checkpoint in the
//! `DirStore`: `cluster_micro_partitions` → `micro_load` → `reload_graph`
//! → `BspEngine::new` + `restore_latest` → one `step` →
//! `checkpoint_state` + `save_epoch` → a rebalance that rehomes 8 of the
//! 64 micro-partitions (`ClusteringDelta::between` + `delta_load`) →
//! `reload_graph`; then everything in memory is dropped (the eviction).
//! Cycles alternate between two clusterings. Work is the checkpoint bytes
//! restored plus the store bytes read.

use super::{probe_store, write_store};
use crate::oracle;
use crate::spans::{Recorder, BENCH_LAYER};
use crate::spec::rmat::{
    CLUSTER_SEEDS, EDGE_FACTOR, EVICT_ITERATIONS, EVICT_WARM_STEPS, MICROS, MOVED_MICROS, SCALE,
};
use crate::spec::WORKERS;
use crate::{RepResult, Workload};
use hourglass_engine::apps::PageRank;
use hourglass_engine::loaders::{delta_load, micro_load, reload_graph, Datastore, LoadedWorker};
use hourglass_engine::recovery::{epoch_key, restore_latest, save_epoch};
use hourglass_engine::{BspEngine, CheckpointStore, DirStore, EngineConfig};
use hourglass_faults::RetryPolicy;
use hourglass_graph::generators::{self, RmatParams};
use hourglass_graph::io_binary::{ShardedArcs, ARC_BYTES};
use hourglass_graph::Graph;
use hourglass_partition::cluster::{cluster_micro_partitions, Clustering, ClusteringDelta};
use hourglass_partition::hash::HashPartitioner;
use hourglass_partition::micro::{MicroPartitioner, MicroPartitioning};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Key prefix of the job's checkpoint epochs.
const PREFIX: &str = "evict-resume";
/// Largest rank error against the dense oracle the finished job may show.
const RANK_TOLERANCE: f64 = 1e-12;

/// The workload's inputs and the little that survives an eviction.
pub struct EvictResume {
    mp: MicroPartitioning,
    store: Datastore,
    store_path: PathBuf,
    ckpt: DirStore,
    ckpt_dir: PathBuf,
    num_vertices: usize,
    num_edges: usize,
    oracle: Vec<f64>,
    /// The superstep the job executes next; also its newest epoch.
    epoch: usize,
    cycle: usize,
}

fn program() -> PageRank {
    PageRank::fixed(EVICT_ITERATIONS)
}

impl EvictResume {
    fn cluster(&self, cycle: usize) -> Clustering {
        cluster_micro_partitions(&self.mp, WORKERS, CLUSTER_SEEDS[cycle % 2]).expect("cluster")
    }

    fn load(&self, c: &Clustering) -> (Vec<LoadedWorker>, hourglass_engine::loaders::LoadStats) {
        micro_load(&self.store, self.mp.micro(), c.micro_to_macro(), WORKERS).expect("micro load")
    }

    fn reload(&self, slabs: &[LoadedWorker]) -> Graph {
        reload_graph(slabs, self.num_vertices, false).expect("reload")
    }

    fn new_engine<'g>(&self, graph: &'g Graph, c: &Clustering) -> BspEngine<'g, PageRank> {
        let part = c.vertex_partitioning().clone();
        BspEngine::new(program(), graph, part, EngineConfig::default()).expect("engine")
    }

    fn checkpoint_bytes(&self, epoch: usize) -> u64 {
        std::fs::metadata(self.ckpt_dir.join(epoch_key(PREFIX, epoch)))
            .expect("the epoch's blob")
            .len()
    }

    /// A same-worker-count rebalance of `base` moving [`MOVED_MICROS`]
    /// micro-partitions whose stored bytes are as near as possible to
    /// their share of the store. Hash buckets of a power-law graph are
    /// skewed, and a real rebalancer sizes a migration by bytes: this
    /// takes the window over the size-sorted buckets closest to
    /// `moved / micros` of all bytes (as `benches/reconfig.rs` does).
    fn rebalanced(&self, base: &Clustering) -> Clustering {
        let moved = MOVED_MICROS as usize;
        let mut by_size: Vec<(usize, u32)> = (0..MICROS)
            .map(|m| (self.store.bucket_byte_len(m), m))
            .collect();
        by_size.sort_unstable();
        let total: usize = by_size.iter().map(|&(s, _)| s).sum();
        let target = total * moved / MICROS as usize;
        let window_bytes =
            |i: usize| -> usize { by_size[i..i + moved].iter().map(|&(s, _)| s).sum() };
        let first = (0..=MICROS as usize - moved)
            .min_by_key(|&i| window_bytes(i).abs_diff(target))
            .expect("at least one window");
        let mut map = base.micro_to_macro().to_vec();
        for &(_, m) in &by_size[first..first + moved] {
            map[m as usize] = (map[m as usize] + 1) % WORKERS;
        }
        Clustering::from_micro_to_macro(&self.mp, map, WORKERS).expect("clustering")
    }
}

impl Workload for EvictResume {
    const NAME: &'static str = "evict_resume";

    fn setup(seed: u64, dir: &Path, rec: &mut Recorder) -> Self {
        let (g, secs) = rec.time("graph", "rmat_gen", || {
            generators::rmat(SCALE, EDGE_FACTOR, RmatParams::SOCIAL, seed).expect("generate")
        });
        rec.sample("graph.rmat_gen_s", secs);
        let (mp, secs) = rec.time("partition", "micro", || {
            MicroPartitioner::new(HashPartitioner, MICROS)
                .run(&g)
                .expect("micro-partition")
        });
        rec.sample("partition.micro_s", secs);
        let (sharded, _) = rec.time("graph", "shard_build", || {
            ShardedArcs::from_graph_buckets(&g, mp.micro().assignment(), MICROS).expect("shards")
        });
        let store_path = dir.join("evict_resume.hgs2");
        write_store(&sharded, &store_path, rec);
        drop(sharded);
        let store = Datastore::mapped_from_path(&store_path).expect("open the store");
        let ckpt_dir = dir.join("evict_resume.ckpt");
        // A directory left by an earlier set-up of this run holds epochs
        // of a job further along.
        std::fs::remove_dir_all(&ckpt_dir).ok();
        let mut this = EvictResume {
            mp,
            store,
            store_path,
            ckpt: DirStore::open(&ckpt_dir).expect("open the checkpoint store"),
            ckpt_dir,
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            oracle: Vec::new(),
            epoch: EVICT_WARM_STEPS,
            cycle: 0,
        };

        // The job's first deployment: load, run the warm supersteps and
        // leave a checkpoint behind for the first eviction to recover.
        let span = rec.begin(BENCH_LAYER, "first_deployment");
        {
            let c = this.cluster(0);
            let (slabs, _) = this.load(&c);
            let graph = this.reload(&slabs);
            let mut engine = this.new_engine(&graph, &c);
            for _ in 0..EVICT_WARM_STEPS {
                engine.step().expect("step");
            }
            let snapshot = engine.checkpoint_state();
            let retry = RetryPolicy::default();
            save_epoch::<PageRank>(&this.ckpt, PREFIX, this.epoch, &snapshot, &retry)
                .expect("save the first epoch");
        }
        rec.end(span);

        let (oracle, _) = rec.time(BENCH_LAYER, "oracle", || {
            oracle::pagerank(&g, EVICT_ITERATIONS)
        });
        this.oracle = oracle;
        this
    }

    fn max_reps(&self) -> usize {
        // Supersteps 0..=EVICT_ITERATIONS; one is left for `finish`.
        EVICT_ITERATIONS - EVICT_WARM_STEPS
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepResult {
        let retry = RetryPolicy::default();
        let store_bytes = self.store.byte_size() as f64;
        let root = rec.begin(BENCH_LAYER, "rep");
        let t0 = Instant::now();

        let (c, secs) = rec.time("partition", "cluster", || self.cluster(self.cycle));
        rec.sample("partition.cluster_ms", secs * 1e3);
        let ((slabs, stats), secs) = rec.time("engine.loaders", "micro_load", || self.load(&c));
        rec.sample(
            "engine.loaders.micro_load_arcs_per_s",
            store_bytes / ARC_BYTES as f64 / secs,
        );
        rec.sample("engine.loaders.bytes_parsed", stats.bytes_parsed as f64);
        rec.sample("engine.loaders.arcs_exchanged", stats.arcs_exchanged as f64);
        let (graph, secs) = rec.time("engine.loaders", "reload_graph", || self.reload(&slabs));
        rec.sample("engine.loaders.reload_graph_s", secs);

        let (mut engine, secs) = rec.time("engine.bsp", "new", || self.new_engine(&graph, &c));
        rec.sample("engine.bsp.new_s", secs);
        let restored_bytes = self.checkpoint_bytes(self.epoch) as f64;
        let (found, secs) = rec.time("engine.checkpoint", "restore_latest", || {
            restore_latest(&mut engine, &self.ckpt, PREFIX, self.epoch, &retry).expect("restore")
        });
        rec.sample("engine.checkpoint.restore_s", secs);
        rec.sample("engine.checkpoint.restore_mbs", restored_bytes / secs / 1e6);
        let resumed_at = found.map(|(epoch, _)| epoch);

        let (_, secs) = rec.time("engine.bsp", "step", || engine.step().expect("step"));
        let step = *engine.metrics().steps().last().expect("one superstep ran");
        rec.sample("engine.bsp.compute_s", step.total_worker_seconds);
        rec.sample("engine.bsp.deliver_s", step.delivery_seconds);
        rec.sample("engine.bsp.barrier_wait_s", step.barrier_wait_seconds);
        rec.sample("engine.bsp.critical_path_s", step.max_worker_seconds);
        rec.sample("engine.bsp.ns_per_msg", secs * 1e9 / step.messages as f64);
        rec.sample("engine.bsp.msgs_per_s", step.messages as f64 / secs);
        rec.sample("engine.bsp.total_messages", step.messages as f64);
        rec.sample("engine.bsp.supersteps", 1.0);

        let next_epoch = engine.superstep();
        let (snapshot, secs) = rec.time("engine.checkpoint", "checkpoint_state", || {
            engine.checkpoint_state()
        });
        rec.sample("engine.checkpoint.snapshot_s", secs);
        let (_, secs) = rec.time("engine.checkpoint", "save_epoch", || {
            save_epoch::<PageRank>(&self.ckpt, PREFIX, next_epoch, &snapshot, &retry).expect("save")
        });
        drop(snapshot);
        let saved_bytes = self.checkpoint_bytes(next_epoch) as f64;
        rec.sample("engine.checkpoint.save_s", secs);
        rec.sample("engine.checkpoint.save_mbs", saved_bytes / secs / 1e6);
        rec.sample("engine.checkpoint.bytes", saved_bytes);

        let target = self.rebalanced(&c);
        let (delta, secs) = rec.time("partition", "delta_plan", || {
            ClusteringDelta::between(&self.mp, &c, &target).expect("delta")
        });
        rec.sample("partition.delta_plan_us", secs * 1e6);
        let ((moved_slabs, delta_stats), secs) = rec.time("engine.loaders", "delta_load", || {
            delta_load(
                &self.store,
                self.mp.micro(),
                &delta,
                target.micro_to_macro(),
                slabs,
            )
            .expect("delta load")
        });
        rec.sample("engine.loaders.delta_load_s", secs);
        rec.sample(
            "engine.loaders.delta_read_frac",
            delta_stats.bytes_parsed as f64 / store_bytes,
        );
        let (moved_graph, secs) = rec.time("engine.loaders", "reload_graph", || {
            self.reload(&moved_slabs)
        });
        rec.sample("engine.loaders.reload_graph_s", secs);

        let seconds = t0.elapsed().as_secs_f64();
        rec.end(root);
        drop(engine);

        let ok = resumed_at == Some(self.epoch)
            && next_epoch == self.epoch + 1
            && delta.moved().len() == MOVED_MICROS as usize
            && graph.num_edges() == self.num_edges
            && moved_graph.num_edges() == self.num_edges
            && moved_slabs == self.load(&target).0;
        self.ckpt
            .delete(&epoch_key(PREFIX, self.epoch))
            .expect("drop the superseded epoch");
        self.epoch = next_epoch;
        self.cycle += 1;
        RepResult {
            seconds,
            work: restored_bytes + (stats.bytes_parsed + delta_stats.bytes_parsed) as f64,
            ok,
            counters: vec![
                ("edges", self.num_edges as f64),
                ("store_bytes", store_bytes),
                ("micro_load_bytes_parsed", stats.bytes_parsed as f64),
                ("delta_moved_micros", delta.moved().len() as f64),
                ("step_messages", step.messages as f64),
            ],
            ..RepResult::default()
        }
    }

    fn finish(&mut self, _rec: &mut Recorder) -> Option<bool> {
        let c = self.cluster(self.cycle);
        let (slabs, _) = self.load(&c);
        let graph = self.reload(&slabs);
        let mut engine = self.new_engine(&graph, &c);
        let found = restore_latest(
            &mut engine,
            &self.ckpt,
            PREFIX,
            self.epoch,
            &RetryPolicy::default(),
        )
        .expect("restore");
        let report = engine.run().expect("run the remainder");
        let ranks = engine.into_values();
        Some(
            found.map(|(epoch, _)| epoch) == Some(self.epoch)
                && report.converged
                && report.supersteps == EVICT_ITERATIONS + 1
                && oracle::max_abs_diff(&ranks, &self.oracle) < RANK_TOLERANCE,
        )
    }

    fn probes(&mut self, rec: &mut Recorder, _answer_s: f64) {
        probe_store(&self.store_path, rec);
    }
}
