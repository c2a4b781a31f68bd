//! The benchmark's fixed vocabulary: workload names, metric names and
//! units, and every size constant. `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two equal.

/// Workers and threads everywhere: partitions, clusterings, sweep fan-out.
pub const WORKERS: u32 = 2;
/// Fewest timed repetitions a run reports on, however short `--seconds`.
pub const MIN_REPS: usize = 3;
/// `bench.rep_spread` above this prints a noisy-host warning.
pub const REP_SPREAD_WARN: f64 = 0.25;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "pagerank_rmat",
    "frontier_sssp",
    "evict_resume",
    "provision_sweep",
];

/// Sizes of `pagerank_rmat` and `evict_resume`.
pub mod rmat {
    /// R-MAT scale: 2²⁰ = 1 048 576 vertices.
    pub const SCALE: u32 = 20;
    /// Edge factor: 12 · 2²⁰ insertions, ≈ 11.9 M distinct edges.
    pub const EDGE_FACTOR: usize = 12;
    /// Rank updates of `pagerank_rmat`.
    pub const PAGERANK_ITERATIONS: usize = 6;
    /// Micro-partitions of `evict_resume`.
    pub const MICROS: u32 = 64;
    /// Micro-partitions the rebalance at the end of a cycle rehomes.
    pub const MOVED_MICROS: u32 = 8;
    /// Rank updates of the job `evict_resume` interrupts: room for 7
    /// eviction cycles, the warm-up among them.
    pub const EVICT_ITERATIONS: usize = 10;
    /// Supersteps the job has run before its first eviction.
    pub const EVICT_WARM_STEPS: usize = 3;
    /// Seeds of the two clusterings the cycles alternate between.
    pub const CLUSTER_SEEDS: [u64; 2] = [1, 2];
}

/// Sizes of `frontier_sssp`.
pub mod ws {
    /// Vertices of the Watts–Strogatz ring.
    pub const VERTICES: usize = 1_000_000;
    /// Lattice neighbours on each side.
    pub const K: usize = 3;
    /// Rewiring probability: ≈ 1 800 shortcuts among 3 M edges.
    pub const BETA: f64 = 0.0006;
    /// Relabelled copies set-up builds, for consecutive seeds (one takes
    /// ≈ 0.7 s, too short to time to a tenth); the run keeps the first.
    pub const SETUP_SEEDS: u64 = 4;
    /// Seed of the ring's shape. The run seed relabels the vertices and
    /// moves the source with them, so every seed walks the same number of
    /// supersteps over a differently laid-out graph.
    pub const SHAPE_SEED: u64 = 7;
}

/// Sizes of `provision_sweep`.
pub mod sweep {
    /// Seed of the first world of every kind; the others follow it.
    pub const WORLD_SEED: u64 = 1;
    /// Worlds built per scenario kind in set-up (consecutive seeds).
    pub const SETUP_SEEDS: u64 = 24;
    /// Monte-Carlo runs per (job, slack, strategy) cell of the grid.
    pub const GRID_RUNS: usize = 60;
    /// Slack levels of the grid, percent.
    pub const SLACKS: [f64; 10] = [10., 20., 30., 40., 50., 60., 70., 80., 90., 100.];
    /// Tenants of the fleet workload, each with [`FLEET_RECURRENCES`] jobs.
    pub const FLEET_TENANTS: usize = 2000;
    /// Jobs per tenant.
    pub const FLEET_RECURRENCES: usize = 3;
    /// Fleets per scenario kind (consecutive seeds from `WORLD_SEED`).
    pub const FLEET_SEEDS: u64 = 4;
}

/// `(name, unit)` of the end-to-end metrics, reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("answer_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Bits of the third field of [`PER_LAYER`]: `pagerank_rmat`,
/// `frontier_sssp`, `evict_resume`, `provision_sweep`, the three graph
/// workloads, all four.
const P: u8 = 1;
const F: u8 = 2;
const E: u8 = 4;
const S: u8 = 8;
const GRAPHS: u8 = P | F | E;
const ALL: u8 = GRAPHS | S;

/// `(name, unit, taken on)` of the per-layer metrics of the traced run.
/// The third field says which workloads take the metric, one bit per entry
/// of [`WORKLOADS`]; a traced run checks that it sampled exactly those.
pub const PER_LAYER: [(&str, &str, u8); 67] = [
    ("graph.rmat_gen_s", "s", P | E),
    ("graph.shard_write_mbs", "MB/s", GRAPHS),
    ("graph.mmap_open_s", "s", P | F),
    ("graph.verify_gbs", "GB/s", P | E),
    ("graph.decode_arcs_per_s", "1/s", P | E),
    ("partition.hash_s", "s", P | F),
    ("partition.micro_s", "s", E),
    ("partition.cluster_ms", "ms", E),
    ("partition.delta_plan_us", "us", E),
    ("partition.edge_cut_pct", "%", P | F),
    ("engine.loaders.stream_load_arcs_per_s", "1/s", P | F),
    ("engine.loaders.micro_load_arcs_per_s", "1/s", E),
    ("engine.loaders.delta_load_s", "s", E),
    ("engine.loaders.delta_read_frac", "ratio", E),
    ("engine.loaders.reload_graph_s", "s", GRAPHS),
    ("engine.loaders.bytes_parsed", "B", GRAPHS),
    ("engine.loaders.arcs_exchanged", "count", GRAPHS),
    ("engine.bsp.new_s", "s", GRAPHS),
    ("engine.bsp.compute_s", "s", GRAPHS),
    ("engine.bsp.deliver_s", "s", GRAPHS),
    ("engine.bsp.barrier_wait_s", "s", GRAPHS),
    ("engine.bsp.critical_path_s", "s", GRAPHS),
    ("engine.bsp.ns_per_msg", "ns", GRAPHS),
    ("engine.bsp.msgs_per_s", "1/s", GRAPHS),
    ("engine.bsp.superstep_p50_us", "us", P | F),
    ("engine.bsp.superstep_p99_us", "us", P | F),
    ("engine.bsp.scan_efficiency", "ratio", P | F),
    ("engine.bsp.remote_msg_frac", "ratio", P | F),
    ("engine.bsp.seq_compute_s", "s", P | F),
    ("engine.bsp.par_speedup", "x", P | F),
    ("engine.bsp.supersteps", "count", GRAPHS),
    ("engine.bsp.total_messages", "count", GRAPHS),
    ("engine.checkpoint.snapshot_s", "s", E),
    ("engine.checkpoint.save_s", "s", E),
    ("engine.checkpoint.save_mbs", "MB/s", E),
    ("engine.checkpoint.bytes", "B", E),
    ("engine.checkpoint.restore_s", "s", E),
    ("engine.checkpoint.restore_mbs", "MB/s", E),
    ("exec.fork_join_us", "us", F),
    ("cloud.market_gen_s", "s", S),
    ("cloud.eviction_fit_s", "s", S),
    ("cloud.cdf_lookups_per_s", "1/s", S),
    ("core.ec_approx_us", "us", S),
    ("core.ec_exact_ms", "ms", S),
    ("core.decide_p50_us", "us", S),
    ("core.decide_p99_us", "us", S),
    ("core.decisions_per_s", "1/s", S),
    ("sim.grid_s", "s", S),
    ("sim.fleet_s", "s", S),
    ("sim.run_job_us", "us", S),
    ("sim.jobs_per_s", "1/s", S),
    ("sim.events_per_s", "1/s", S),
    ("sim.sweep_par_speedup", "x", S),
    ("sim.fleet_events_per_s", "1/s", S),
    ("sim.decides", "count", S),
    ("sim.evictions", "count", S),
    ("sim.billed_dollars", "usd", S),
    ("sim.cost_vs_ondemand", "ratio", S),
    ("sim.missed_deadlines", "count", S),
    ("obs.on_cost_pct", "%", P | S),
    ("obs.spans", "count", P | S),
    ("metrics.on_cost_pct", "%", P | S),
    ("host.nproc", "count", ALL),
    ("host.stream_triad_gbs", "GB/s", ALL),
    ("host.cpu_s_per_rep", "s", ALL),
    ("bench.rep_spread", "ratio", ALL),
    ("bench.trace_overhead_pct", "%", ALL),
];
