//! Integration: the complete fast-reload story across crates.
//!
//! dataset → offline micro-partitioning → BSP execution → checkpoint to a
//! durable store → "eviction" → recluster for a different worker count →
//! restore → identical results.

use hourglass::engine::apps::{coloring_is_proper, GraphColoring, PageRank};
use hourglass::engine::checkpoint::{CheckpointStore, MemoryStore};
use hourglass::engine::loaders::{loaded_adjacency, micro_load, reload_graph, Datastore};
use hourglass::engine::{BspEngine, EngineConfig};
use hourglass::graph::datasets::Dataset;
use hourglass::partition::cluster::cluster_micro_partitions;
use hourglass::partition::micro::{num_micro_partitions, MicroPartitioner};
use hourglass::partition::multilevel::Multilevel;
use hourglass::partition::quality::edge_cut_fraction;

#[test]
fn eviction_recovery_preserves_results() {
    let graph = Dataset::Orkut.generate_tiny(7).expect("dataset");
    let m = num_micro_partitions(&[16, 8, 4], 64).expect("micro count");
    assert_eq!(m, 64);
    let micro = MicroPartitioner::new(Multilevel::new(), m)
        .run(&graph)
        .expect("micro-partition");

    // Deploy on 8 workers, run half the job, checkpoint.
    let c8 = cluster_micro_partitions(&micro, 8, 1).expect("cluster");
    let program = PageRank::fixed(12);
    let mut engine = BspEngine::new(
        program,
        &graph,
        c8.vertex_partitioning().clone(),
        EngineConfig::default(),
    )
    .expect("engine");
    for _ in 0..6 {
        engine.step().expect("step");
    }
    let store = MemoryStore::new();
    let snapshot = engine.checkpoint_state();
    let mut blob = Vec::new();
    snapshot.encode(&mut blob);
    store.put("ckpt-superstep-6", &blob).expect("put");

    // Reference: finish on the original deployment.
    engine.run().expect("run");
    let reference = engine.into_values();

    // "Eviction": recover on 4 workers from the durable checkpoint.
    let c4 = cluster_micro_partitions(&micro, 4, 1).expect("cluster");
    let mut recovered = BspEngine::new(
        PageRank::fixed(12),
        &graph,
        c4.vertex_partitioning().clone(),
        EngineConfig::default(),
    )
    .expect("engine");
    let blob = store
        .get("ckpt-superstep-6")
        .expect("get")
        .expect("checkpoint exists");
    let ckpt = recovered.decode_checkpoint(&blob).expect("decode");
    // Binary all the way: the ranks come back to the bit.
    let bits = |ranks: &[f64]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ckpt.values), bits(&snapshot.values));
    recovered.restore_state(ckpt).expect("restore");
    assert_eq!(recovered.superstep(), 6);
    recovered.run().expect("run");
    let after = recovered.into_values();

    // Synchronous BSP: results must be bit-identical across deployments
    // aside from float summation order; PageRank message sums are combined
    // in delivery order, so allow a tiny tolerance.
    let max_diff = reference
        .iter()
        .zip(&after)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "recovery drifted by {max_diff}");
}

#[test]
fn micro_loading_feeds_the_engine_consistently() {
    let graph = Dataset::Wiki.generate_tiny(3).expect("dataset");
    let micro = MicroPartitioner::new(Multilevel::new(), 16)
        .run(&graph)
        .expect("micro-partition");
    let text = Datastore::text_micro(&graph, micro.micro()).expect("store");
    let binary = Datastore::binary_micro(&graph, micro.micro()).expect("store");

    for k in [2u32, 4, 8] {
        let clustering = cluster_micro_partitions(&micro, k, 5).expect("cluster");
        for store in [&text, &binary] {
            let (workers, stats) =
                micro_load(store, micro.micro(), clustering.micro_to_macro(), k).expect("load");
            assert_eq!(stats.arcs_exchanged, 0, "micro loading never shuffles");
            assert_eq!(stats.lines_skipped, 0, "well-formed stores parse fully");
            let loaded_arcs: usize = workers.iter().map(|w| w.num_arcs()).sum();
            assert_eq!(loaded_arcs, graph.num_directed_edges());
        }
    }
}

#[test]
fn binary_reload_roundtrips_into_the_engine() {
    // The full fast-reload deployment path on the binary store: sharded
    // datastore → exchange-free micro load → reload_graph → BSP run, with
    // results identical to running on the original in-memory graph.
    let graph = Dataset::Wiki.generate_tiny(9).expect("dataset");
    let micro = MicroPartitioner::new(Multilevel::new(), 16)
        .run(&graph)
        .expect("micro-partition");
    let store = Datastore::binary_micro(&graph, micro.micro()).expect("store");
    let clustering = cluster_micro_partitions(&micro, 4, 1).expect("cluster");
    let (workers, stats) =
        micro_load(&store, micro.micro(), clustering.micro_to_macro(), 4).expect("load");
    assert_eq!(stats.lines_skipped, 0);

    // The loaded slabs reconstruct the graph exactly...
    let reloaded =
        reload_graph(&workers, graph.num_vertices(), graph.is_directed()).expect("reload");
    assert_eq!(reloaded, graph, "reloaded CSR must match the original");
    assert_eq!(
        loaded_adjacency(&workers).len(),
        (0..graph.num_vertices() as u32)
            .filter(|&v| graph.degree(v) > 0)
            .count()
    );

    // ...so a run over the reloaded graph is bit-identical to one over
    // the original.
    let run = |g: &hourglass::graph::Graph| {
        let mut engine = BspEngine::new(
            PageRank::fixed(8),
            g,
            clustering.vertex_partitioning().clone(),
            EngineConfig::default(),
        )
        .expect("engine");
        engine.run().expect("run");
        engine.into_values()
    };
    assert_eq!(run(&graph), run(&reloaded));
}

#[test]
fn coloring_survives_reclustering() {
    let graph = Dataset::HumanGene.generate_tiny(11).expect("dataset");
    let micro = MicroPartitioner::new(Multilevel::new(), 16)
        .run(&graph)
        .expect("micro-partition");
    for k in [2u32, 4, 16] {
        let c = cluster_micro_partitions(&micro, k, 2).expect("cluster");
        let mut engine = BspEngine::new(
            GraphColoring::default(),
            &graph,
            c.vertex_partitioning().clone(),
            EngineConfig::default(),
        )
        .expect("engine");
        engine.run().expect("run");
        let colors = engine.into_values();
        assert!(
            coloring_is_proper(&graph, &colors),
            "improper coloring at k={k}"
        );
    }
}

#[test]
fn clustering_quality_stays_below_random() {
    let graph = Dataset::Hollywood.generate_tiny(5).expect("dataset");
    let micro = MicroPartitioner::new(Multilevel::new(), 64)
        .run(&graph)
        .expect("micro-partition");
    for k in [2u32, 4, 8, 16, 32] {
        let c = cluster_micro_partitions(&micro, k, 3).expect("cluster");
        let cut = edge_cut_fraction(&graph, c.vertex_partitioning());
        let random = 1.0 - 1.0 / k as f64;
        assert!(
            cut < 0.9 * random,
            "k={k}: clustered cut {cut:.3} not below random {random:.3}"
        );
    }
}
