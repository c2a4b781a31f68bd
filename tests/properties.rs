//! Property-based tests on the workspace's core invariants.

use hourglass::cloud::eviction::EvictionModel;
use hourglass::cloud::{tracegen, InstanceType, PriceTrace};
use hourglass::core::checkpoint::daly_interval;
use hourglass::graph::generators;
use hourglass::partition::cluster::cluster_micro_partitions;
use hourglass::partition::fennel::Fennel;
use hourglass::partition::hash::{HashPartitioner, RandomPartitioner};
use hourglass::partition::micro::{quotient_graph, MicroPartitioner};
use hourglass::partition::multilevel::Multilevel;
use hourglass::partition::quality::{edge_cut, edge_cut_fraction};
use hourglass::partition::{Balance, Partitioner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every partitioner assigns every vertex to exactly one in-range
    /// partition, with an edge-cut fraction in [0, 1].
    #[test]
    fn partitioners_produce_total_in_range_assignments(
        scale in 6u32..9,
        edge_factor in 4usize..10,
        k in 2u32..9,
        seed in 0u64..50,
    ) {
        let g = generators::rmat(scale, edge_factor, generators::RmatParams::SOCIAL, seed)
            .expect("generate");
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(HashPartitioner),
            Box::new(RandomPartitioner { seed }),
            Box::new(Fennel::new()),
            Box::new(Multilevel::with_seed(seed)),
        ];
        for p in &partitioners {
            let part = p.partition(&g, k).expect("partition");
            prop_assert_eq!(part.num_vertices(), g.num_vertices());
            prop_assert!(part.assignment().iter().all(|&a| a < k));
            let cut = edge_cut_fraction(&g, &part);
            prop_assert!((0.0..=1.0).contains(&cut), "{} cut {}", p.name(), cut);
            prop_assert!(edge_cut(&g, &part) <= g.num_edges() as u64);
        }
    }

    /// The quotient graph conserves vertex weight and counts exactly the
    /// cut arcs; clustering it yields a finer-or-equal cut than random.
    #[test]
    fn quotient_graph_conserves_mass(
        scale in 6u32..9,
        seed in 0u64..30,
        m in 8u32..33,
    ) {
        let g = generators::rmat(scale, 8, generators::RmatParams::WEB, seed).expect("generate");
        let micro = HashPartitioner.partition(&g, m).expect("partition");
        let q = quotient_graph(&g, &micro, Balance::Vertices).expect("quotient");
        prop_assert_eq!(q.num_vertices(), m as usize);
        prop_assert_eq!(q.total_vertex_weight(), g.num_vertices() as u64);
        prop_assert_eq!(q.total_arc_weight(), 2 * edge_cut(&g, &micro));
    }

    /// Clustering micro-partitions routes every vertex through its micro
    /// assignment (the parallel-recovery property).
    #[test]
    fn clustering_composes_with_micro_assignment(
        seed in 0u64..20,
        k in prop::sample::select(vec![2u32, 4, 8, 16]),
    ) {
        let g = generators::rmat(8, 8, generators::RmatParams::SOCIAL, seed).expect("generate");
        let mp = MicroPartitioner::new(Multilevel::with_seed(seed), 16)
            .run(&g)
            .expect("micro");
        let c = cluster_micro_partitions(&mp, k, seed).expect("cluster");
        for v in 0..g.num_vertices() as u32 {
            let micro = mp.micro().part_of(v);
            prop_assert_eq!(
                c.vertex_partitioning().part_of(v),
                c.micro_to_macro()[micro as usize]
            );
        }
    }

    /// Eviction CDFs are monotone, bounded and consistent with MTTF.
    #[test]
    fn eviction_cdf_is_monotone(seed in 0u64..30) {
        let cfg = tracegen::TraceGenConfig::default();
        let trace = tracegen::generate_trace(InstanceType::R44xlarge, &cfg, seed)
            .expect("trace");
        let bid = InstanceType::R44xlarge.on_demand_price();
        let m = EvictionModel::from_trace(&trace, bid, 12.0 * 3600.0, 400, seed)
            .expect("model");
        let mut last = 0.0;
        for i in 0..50 {
            let u = i as f64 * 1000.0;
            let c = m.cdf(u);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= last);
            last = c;
        }
        prop_assert!(m.mttf() > 0.0);
        prop_assert!(m.mttf() <= 12.0 * 3600.0 + 1.0);
    }

    /// Price traces bill exactly the price integral: splitting an interval
    /// anywhere never changes the total.
    #[test]
    fn billing_is_additive(
        seed in 0u64..30,
        a in 0.0f64..100_000.0,
        len in 100.0f64..50_000.0,
        frac in 0.01f64..0.99,
    ) {
        let cfg = tracegen::TraceGenConfig { days: 3.0, ..Default::default() };
        let trace = tracegen::generate_trace(InstanceType::R42xlarge, &cfg, seed)
            .expect("trace");
        let b = (a + len).min(trace.horizon());
        let a = a.min(b);
        let mid = a + (b - a) * frac;
        let whole = trace.cost_between(a, b).expect("cost");
        let split = trace.cost_between(a, mid).expect("cost")
            + trace.cost_between(mid, b).expect("cost");
        prop_assert!((whole - split).abs() < 1e-9);
        prop_assert!(whole >= 0.0);
    }

    /// Daly's interval is monotone in both arguments and bounded below by
    /// the save time.
    #[test]
    fn daly_interval_properties(
        t_save in 1.0f64..1000.0,
        mttf in 10.0f64..1e6,
    ) {
        let t = daly_interval(t_save, mttf);
        prop_assert!(t >= t_save);
        prop_assert!(t >= daly_interval(t_save, mttf / 2.0) || mttf < 2.0 * t_save);
        prop_assert!(daly_interval(t_save * 2.0, mttf) >= t);
    }

    /// Crossing searches on synthetic traces are consistent with point
    /// lookups: the price strictly exceeds the threshold at the crossing.
    #[test]
    fn crossing_search_is_sound(seed in 0u64..20, threshold in 0.1f64..3.0) {
        let prices: Vec<f64> = (0..200)
            .map(|i| ((i as f64 * 0.7 + seed as f64).sin() + 1.2).abs())
            .collect();
        let trace = PriceTrace::new(60.0, prices).expect("trace");
        if let Some(t) = trace.next_crossing_above(0.0, threshold) {
            prop_assert!(trace.price_at(t).expect("in range") > threshold);
            // No earlier sample crosses.
            let mut s = 0.0;
            while s < t {
                prop_assert!(trace.price_at(s).expect("in range") <= threshold);
                s += 60.0;
            }
        } else {
            for i in 0..200 {
                prop_assert!(trace.price_at(i as f64 * 60.0).expect("in range") <= threshold);
            }
        }
    }
}

// --- engine properties (self-contained: engine + graph + partition only) ---
mod engine_properties {
    use hourglass::engine::apps::{
        coloring_is_proper, Bfs, ColorState, GraphColoring, PageRank, Sssp, Wcc,
    };
    use hourglass::engine::{BspEngine, ComputeContext, EngineConfig, VertexProgram};
    use hourglass::graph::{generators, Graph, GraphBuilder, VertexId};
    use hourglass::partition::hash::HashPartitioner;
    use hourglass::partition::Partitioner;
    use proptest::prelude::*;

    /// Floods the max vertex id for one hop, then halts. Max is
    /// order-insensitive and exact, so results must be identical across
    /// every worker count and execution mode (shared with the fault
    /// properties below, where exactness makes corruption detectable).
    #[derive(Clone)]
    pub(crate) struct MaxId;

    impl VertexProgram for MaxId {
        type Value = u32;
        type Message = u32;

        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
            if ctx.superstep == 0 {
                let me = *ctx.value_ref();
                ctx.send_to_neighbors(me);
            } else if let Some(&best) = messages.iter().max() {
                if best > *ctx.value_ref() {
                    *ctx.value() = best;
                }
            }
            ctx.vote_to_halt();
        }

        fn combiner(&self) -> Option<fn(&u32, &u32) -> u32> {
            Some(|a, b| *a.max(b))
        }
    }

    fn engine_on<P: VertexProgram>(
        program: P,
        g: &Graph,
        k: u32,
        parallel: bool,
    ) -> BspEngine<'_, P> {
        let p = HashPartitioner.partition(g, k).expect("partition");
        let config = EngineConfig {
            parallel,
            ..EngineConfig::default()
        };
        BspEngine::new(program, g, p, config).expect("engine")
    }

    fn run_values<P: VertexProgram>(
        program: P,
        g: &Graph,
        k: u32,
        parallel: bool,
    ) -> Vec<P::Value> {
        let mut e = engine_on(program, g, k, parallel);
        e.run().expect("run");
        e.into_values()
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
    }

    // --- the engine against a Pregel loop that shares none of its code ---

    /// A wave of `ttl` hops out of `source`. Every vertex votes to halt in
    /// every superstep and is woken again each time the wave washes back
    /// over it; without a combiner the value (messages ever received)
    /// depends on every single delivery.
    struct Ripple {
        source: VertexId,
        ttl: u32,
    }

    impl VertexProgram for Ripple {
        type Value = u32;
        type Message = u32;

        fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
            0
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, mail: &[u32]) {
            *ctx.value() += mail.len() as u32;
            if ctx.superstep == 0 && ctx.vertex == self.source {
                ctx.send_to_neighbors(self.ttl);
            } else if let Some(&hops) = mail.iter().max().filter(|&&hops| hops > 0) {
                ctx.send_to_neighbors(hops - 1);
            }
            ctx.vote_to_halt();
        }
    }

    /// What a run produced, whoever ran it.
    #[derive(Debug, PartialEq)]
    struct Outcome<V> {
        values: Vec<V>,
        supersteps: usize,
        messages: u64,
        /// Vertices that computed, per superstep.
        active: Vec<u64>,
    }

    /// What a vertex of the naive loop sees besides its value and mail.
    struct Cx<'a, M> {
        g: &'a Graph,
        superstep: usize,
        v: VertexId,
        out: &'a mut Vec<(VertexId, M)>,
        /// The one sum aggregate: last superstep's total, this one's so far.
        prev_sum: f64,
        next_sum: &'a mut f64,
    }

    impl<M: Clone> Cx<'_, M> {
        fn starts_at(&self, source: VertexId) -> bool {
            self.superstep == 0 && self.v == source
        }

        fn send_all(&mut self, m: M) {
            for &t in self.g.neighbors(self.v) {
                self.out.push((t, m.clone()));
            }
        }
    }

    /// Pregel by the book: state in global vertex order, every vertex
    /// examined in every superstep, every message appended uncombined to its
    /// target's next inbox. `compute` returns the vote to halt.
    fn naive_pregel<V, M: Clone>(
        g: &Graph,
        init: impl Fn(VertexId) -> V,
        compute: impl Fn(&mut Cx<'_, M>, &mut V, &[M]) -> bool,
    ) -> Outcome<V> {
        let n = g.num_vertices();
        let mut values: Vec<V> = (0..n as VertexId).map(init).collect();
        let mut halted = vec![false; n];
        let mut inbox: Vec<Vec<M>> = vec![Vec::new(); n];
        let (mut messages, mut active, mut prev_sum) = (0, Vec::new(), 0.0);
        while (0..n).any(|v| !halted[v] || !inbox[v].is_empty()) {
            let mut next: Vec<Vec<M>> = vec![Vec::new(); n];
            let (mut ran, mut next_sum, mut out) = (0, 0.0, Vec::new());
            for v in 0..n {
                if halted[v] && inbox[v].is_empty() {
                    continue;
                }
                ran += 1;
                let mut cx = Cx {
                    g,
                    superstep: active.len(),
                    v: v as VertexId,
                    out: &mut out,
                    prev_sum,
                    next_sum: &mut next_sum,
                };
                halted[v] = compute(&mut cx, &mut values[v], &inbox[v]);
                messages += out.len() as u64;
                for (t, m) in out.drain(..) {
                    next[t as usize].push(m);
                }
            }
            (inbox, prev_sum) = (next, next_sum);
            active.push(ran);
        }
        Outcome {
            values,
            supersteps: active.len(),
            messages,
            active,
        }
    }

    fn engine_outcome<P: VertexProgram>(
        program: P,
        g: &Graph,
        k: u32,
        parallel: bool,
    ) -> Outcome<P::Value> {
        let mut e = engine_on(program, g, k, parallel);
        let report = e.run().expect("run");
        let steps = report.metrics.steps();
        Outcome {
            supersteps: report.supersteps,
            messages: report.total_messages,
            active: steps.iter().map(|s| s.active_vertices).collect(),
            values: e.into_values(),
        }
    }

    /// Textbook queue BFS: hop counts from `source`, ∞ where unreachable.
    fn queue_bfs(g: &Graph, source: VertexId) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; g.num_vertices()];
        dist[source as usize] = 0.0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &t in g.neighbors(v) {
                if dist[t as usize].is_infinite() {
                    dist[t as usize] = dist[v as usize] + 1.0;
                    queue.push_back(t);
                }
            }
        }
        dist
    }

    /// `GraphColoring`'s round priority (SplitMix64 over seed, vertex and
    /// round). The coloring is defined by it, so the naive program has to
    /// draw the same numbers.
    fn coloring_priority(seed: u64, v: VertexId, round: usize) -> u64 {
        let mut x = seed
            .wrapping_add((v as u64) << 32)
            .wrapping_add(round as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A small R-MAT with what the generator strips put back: every fifth
    /// edge twice, a self-loop on every seventh vertex. A vertex then sends
    /// to the same target more than once in one `send_to_neighbors`, and to
    /// itself.
    fn rmat_multigraph() -> Graph {
        let simple = generators::rmat(6, 8, generators::RmatParams::SOCIAL, 11).expect("rmat");
        let mut b = GraphBuilder::undirected(simple.num_vertices())
            .with_self_loops()
            .with_duplicates();
        for (i, (u, v)) in simple.edges().enumerate() {
            b.add_edge(u, v);
            if i % 5 == 0 {
                b.add_edge(u, v);
            }
        }
        for v in (0..simple.num_vertices() as VertexId).step_by(7) {
            b.add_edge(v, v);
        }
        let g = b.build().expect("multigraph");
        let repeats = |v: VertexId| g.neighbors(v).windows(2).any(|pair| pair[0] == pair[1]);
        assert!(g.neighbors(0).contains(&0) && (0..g.num_vertices() as VertexId).any(repeats));
        g
    }

    /// The fold order of a combined cell is fixed — per sender in send
    /// order, then across senders in worker order — so threading changes no
    /// bit of a run: not of an f64 rank, not of a counter.
    #[test]
    fn threading_changes_no_bit_of_a_folding_run() {
        fn check<P: VertexProgram + Clone>(program: P, g: &Graph, bits: fn(&P::Value) -> u64) {
            for k in [1u32, 2, 3, 8] {
                let run = |parallel| {
                    let mut e = engine_on(program.clone(), g, k, parallel);
                    let report = e.run().expect("run");
                    let steps = report.metrics.steps();
                    (
                        e.values().iter().map(bits).collect::<Vec<_>>(),
                        report.supersteps,
                        report.total_messages,
                        report.remote_messages,
                        steps.iter().map(|s| s.active_vertices).collect::<Vec<_>>(),
                    )
                };
                assert_eq!(run(false), run(true), "{} at k={k}", program.name());
            }
        }
        let g = rmat_multigraph();
        let source = g.num_vertices() as VertexId / 3;
        check(PageRank::fixed(6), &g, |r| r.to_bits());
        check(Sssp { source }, &g, |d| d.to_bits());
        check(Wcc, &g, |&l| l as u64);
        check(Bfs { source }, &g, |&l| l as u64);
        check(MaxId, &g, |&m| m as u64);
    }

    /// Values, superstep count, messages sent and the active-vertex count of
    /// every superstep agree with the naive loop, at every worker count and
    /// in both execution modes: frontier programs that sleep and are woken
    /// by mail (Sssp, Bfs, Wcc, MaxId, Ripple), one without a combiner that
    /// stays awake until decided (GraphColoring), one that never sleeps
    /// until its last superstep (PageRank). Min, max and integer folds are
    /// exact in any order; PageRank's f64 sum is held to 1e-12.
    #[test]
    fn engine_agrees_with_a_naive_pregel_loop() {
        let mut path = GraphBuilder::undirected(37);
        for v in 1..37 {
            path.add_edge(v - 1, v);
        }
        let graphs = [
            path.build().expect("path"),
            generators::watts_strogatz(150, 4, 0.05, 3).expect("ring"),
            generators::rmat(6, 8, generators::RmatParams::SOCIAL, 11).expect("rmat"),
            rmat_multigraph(),
        ];
        for g in &graphs {
            let n = g.num_vertices() as f64;
            let source = g.num_vertices() as VertexId / 3;
            let (ttl, iterations) = (5, 6);
            let sssp = naive_pregel(
                g,
                |v| if v == source { 0.0 } else { f64::INFINITY },
                |cx, dist: &mut f64, mail: &[f64]| {
                    let best = mail.iter().copied().fold(f64::INFINITY, f64::min);
                    if best < *dist || cx.starts_at(source) {
                        *dist = dist.min(best);
                        cx.send_all(*dist + 1.0);
                    }
                    true
                },
            );
            assert_eq!(sssp.values, queue_bfs(g, source));
            let bfs = naive_pregel(
                g,
                |v| if v == source { 0 } else { u32::MAX },
                |cx, level: &mut u32, mail: &[u32]| {
                    let best = mail.iter().copied().min().unwrap_or(u32::MAX);
                    if best < *level || cx.starts_at(source) {
                        *level = (*level).min(best);
                        cx.send_all(level.saturating_add(1));
                    }
                    true
                },
            );
            let wcc = naive_pregel(
                g,
                |v| v,
                |cx, label: &mut u32, mail: &[u32]| {
                    let low = mail.iter().copied().min().unwrap_or(u32::MAX);
                    if cx.superstep == 0 || low < *label {
                        *label = (*label).min(low);
                        cx.send_all(*label);
                    }
                    true
                },
            );
            let max_id = naive_pregel(
                g,
                |v| v,
                |cx, best: &mut u32, mail: &[u32]| {
                    if cx.superstep == 0 {
                        cx.send_all(*best);
                    }
                    *best = mail.iter().copied().fold(*best, u32::max);
                    true
                },
            );
            let ripple = naive_pregel(
                g,
                |_| 0,
                |cx, received: &mut u32, mail: &[u32]| {
                    *received += mail.len() as u32;
                    match mail.iter().max() {
                        _ if cx.starts_at(source) => cx.send_all(ttl),
                        Some(&hops) if hops > 0 => cx.send_all(hops - 1),
                        _ => {}
                    }
                    true
                },
            );
            // A vertex with a self-loop hears its own priority and is never
            // the strict minimum: the coloring is defined on loop-free graphs.
            let loop_free = (0..g.num_vertices() as VertexId).all(|v| !g.neighbors(v).contains(&v));
            let seed = GraphColoring::default().seed;
            let color =
                |cx: &mut Cx<'_, (u64, u32)>, state: &mut ColorState, mail: &[(u64, u32)]| {
                    if state.is_colored() {
                        return true;
                    }
                    if cx.superstep > 0 {
                        let round = cx.superstep - 1;
                        let mine = (coloring_priority(seed, cx.v, round), cx.v);
                        if mail.iter().all(|&theirs| mine < theirs) {
                            state.color = round as u32;
                            return true;
                        }
                    }
                    cx.send_all((coloring_priority(seed, cx.v, cx.superstep), cx.v));
                    false
                };
            let coloring =
                loop_free.then(|| naive_pregel(g, |_| ColorState { color: u32::MAX }, color));
            if let Some(coloring) = &coloring {
                assert!(coloring_is_proper(g, &coloring.values));
            }
            let pagerank = naive_pregel(
                g,
                |_| 1.0 / n,
                |cx, rank: &mut f64, mail: &[f64]| {
                    if cx.superstep > 0 {
                        let sum: f64 = mail.iter().sum();
                        *rank = 0.15 / n + 0.85 * (sum + cx.prev_sum / n);
                    }
                    let degree = cx.g.degree(cx.v);
                    if cx.superstep == iterations {
                        return true;
                    } else if degree > 0 {
                        cx.send_all(*rank / degree as f64);
                    } else {
                        *cx.next_sum += *rank;
                    }
                    false
                },
            );
            assert_eq!(
                pagerank.active,
                vec![g.num_vertices() as u64; iterations + 1]
            );

            for k in [1u32, 2, 3, 8] {
                for parallel in [false, true] {
                    let at = format!("n={n} k={k} parallel={parallel}");
                    assert_eq!(
                        engine_outcome(Sssp { source }, g, k, parallel),
                        sssp,
                        "{at}"
                    );
                    assert_eq!(engine_outcome(Bfs { source }, g, k, parallel), bfs, "{at}");
                    assert_eq!(engine_outcome(Wcc, g, k, parallel), wcc, "{at}");
                    assert_eq!(engine_outcome(MaxId, g, k, parallel), max_id, "{at}");
                    let program = Ripple { source, ttl };
                    assert_eq!(engine_outcome(program, g, k, parallel), ripple, "{at}");
                    if let Some(coloring) = &coloring {
                        let program = GraphColoring::default();
                        assert_eq!(&engine_outcome(program, g, k, parallel), coloring, "{at}");
                    }
                    // Rank sums fold in a different order at every k, so the
                    // values agree to rounding; the counts agree exactly.
                    let mut got = engine_outcome(PageRank::fixed(iterations), g, k, parallel);
                    assert!(max_abs_diff(&got.values, &pagerank.values) < 1e-12, "{at}");
                    got.values.clone_from(&pagerank.values);
                    assert_eq!(got, pagerank, "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The engine computes the same answer at every worker count, in
        /// both execution modes, as the single-worker sequential reference:
        /// exactly for integer programs (MaxId, GraphColoring), and within
        /// 1e-9 for PageRank (summation order shifts across partitionings).
        #[test]
        fn engine_matches_sequential_reference(
            scale in 6u32..9,
            seed in 0u64..20,
            k in prop::sample::select(vec![1u32, 2, 4, 8]),
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");

            let max_ref = run_values(MaxId, &g, 1, false);
            prop_assert_eq!(&run_values(MaxId, &g, k, false), &max_ref);
            prop_assert_eq!(&run_values(MaxId, &g, k, true), &max_ref);

            let pr_ref = run_values(PageRank::fixed(10), &g, 1, false);
            let pr_seq = run_values(PageRank::fixed(10), &g, k, false);
            let pr_par = run_values(PageRank::fixed(10), &g, k, true);
            prop_assert_eq!(&pr_seq, &pr_par, "threading must not change results");
            prop_assert!(max_abs_diff(&pr_ref, &pr_seq) < 1e-9);

            let gc_seq = run_values(GraphColoring::default(), &g, k, false);
            let gc_par = run_values(GraphColoring::default(), &g, k, true);
            prop_assert_eq!(&gc_seq, &gc_par, "threading must not change results");
            prop_assert!(coloring_is_proper(&g, &gc_seq));
        }

        /// Checkpointing at an arbitrary superstep and restoring onto an
        /// arbitrary (possibly different) worker count finishes with the
        /// same answer as the uninterrupted run.
        #[test]
        fn engine_checkpoint_restore_preserves_results(
            seed in 0u64..20,
            k_from in prop::sample::select(vec![1u32, 2, 4, 8]),
            k_to in prop::sample::select(vec![1u32, 2, 4, 8]),
            cut in 0usize..6,
        ) {
            let g = generators::rmat(7, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");

            // PageRank: interrupt after `cut` supersteps, resume on k_to.
            let mut a = engine_on(PageRank::fixed(8), &g, k_from, true);
            for _ in 0..cut {
                if a.step().expect("step") {
                    break;
                }
            }
            let ckpt = a.checkpoint_state();
            a.run().expect("finish original");
            let mut b = engine_on(PageRank::fixed(8), &g, k_to, true);
            b.restore_state(ckpt).expect("restore");
            b.run().expect("finish restored");
            prop_assert!(max_abs_diff(&a.values(), &b.values()) < 1e-9);

            // MaxId: exact equality across the same interruption.
            let mut a = engine_on(MaxId, &g, k_from, true);
            for _ in 0..cut {
                if a.step().expect("step") {
                    break;
                }
            }
            let ckpt = a.checkpoint_state();
            a.run().expect("finish original");
            let mut b = engine_on(MaxId, &g, k_to, true);
            b.restore_state(ckpt).expect("restore");
            b.run().expect("finish restored");
            prop_assert_eq!(a.values(), b.values());
        }
    }
}

mod loader_properties {
    use hourglass::engine::loaders::{
        hash_load, loaded_adjacency, micro_load, reload_graph, stream_load, Datastore,
    };
    use hourglass::graph::io_binary::ShardedArcs;
    use hourglass::graph::io_mmap::MappedShards;
    use hourglass::graph::{generators, Graph};
    use hourglass::partition::hash::HashPartitioner;
    use hourglass::partition::Partitioner;
    use proptest::prelude::*;

    fn expected_adjacency(g: &Graph) -> Vec<(u32, Vec<u32>)> {
        (0..g.num_vertices() as u32)
            .filter(|&v| g.degree(v) > 0)
            .map(|v| (v, g.neighbors(v).to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every loader × store-format combination loads bit-identical
        /// adjacency on random R-MAT graphs at every paper worker count,
        /// and the binary micro path reconstructs the exact input CSR.
        #[test]
        fn loaders_agree_across_stores_and_strategies(
            scale in 6u32..9,
            seed in 0u64..20,
            k in prop::sample::select(vec![1u32, 2, 4, 8]),
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let p = HashPartitioner.partition(&g, k).expect("partition");
            let micro = HashPartitioner.partition(&g, 16).expect("micro");
            // k always divides 16, so round-robin is a valid clustering.
            let micro_to_worker: Vec<u32> = (0..16).map(|m| m % k).collect();
            let expect = expected_adjacency(&g);

            for store in [Datastore::text_flat(&g), Datastore::binary_flat(&g)] {
                let (sw, ss) = stream_load(&store, &p);
                prop_assert_eq!(&loaded_adjacency(&sw), &expect);
                prop_assert_eq!(ss.lines_skipped, 0);
                let (hw, hs) = hash_load(&store, &p);
                prop_assert_eq!(&loaded_adjacency(&hw), &expect);
                prop_assert_eq!(hs.lines_skipped, 0);
            }
            for store in [
                Datastore::text_micro(&g, &micro).expect("store"),
                Datastore::binary_micro(&g, &micro).expect("store"),
            ] {
                let (mw, ms) = micro_load(&store, &micro, &micro_to_worker, k).expect("load");
                prop_assert_eq!(&loaded_adjacency(&mw), &expect);
                prop_assert_eq!(ms.arcs_exchanged, 0, "micro loading never shuffles");
                prop_assert_eq!(ms.lines_skipped, 0);
                let reloaded = reload_graph(&mw, g.num_vertices(), g.is_directed())
                    .expect("reload");
                prop_assert_eq!(&reloaded, &g);
            }
        }

        /// The sharded binary store serializes and deserializes losslessly,
        /// and the deserialized copy loads the same adjacency as the text
        /// baseline built from the same graph.
        #[test]
        fn binary_store_roundtrips(scale in 6u32..9, seed in 0u64..20) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let micro = HashPartitioner.partition(&g, 16).expect("micro");
            let sharded = ShardedArcs::from_graph_buckets(&g, micro.assignment(), 16)
                .expect("shard");
            let mut buf = Vec::new();
            sharded.write_to(&mut buf).expect("write");
            prop_assert_eq!(buf.len() as u64, sharded.serialized_size());
            let read = ShardedArcs::read_from(&buf[..]).expect("read");
            prop_assert_eq!(&read, &sharded);

            let micro_to_worker: Vec<u32> = (0..16).map(|m| m % 4).collect();
            let text = Datastore::text_micro(&g, &micro).expect("store");
            let (tw, _) = micro_load(&text, &micro, &micro_to_worker, 4).expect("load");
            let (bw, _) =
                micro_load(&Datastore::Binary(read), &micro, &micro_to_worker, 4).expect("load");
            prop_assert_eq!(loaded_adjacency(&tw), loaded_adjacency(&bw));
        }

        /// The memory-mapped HGS2 store is bit-identical to the in-memory
        /// binary store through all three loaders at every paper worker
        /// count: same slabs, same stats, same reconstructed CSR.
        #[test]
        fn mapped_store_matches_in_memory_across_loaders(
            scale in 6u32..9,
            seed in 0u64..20,
            k in prop::sample::select(vec![1u32, 2, 4, 8]),
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let p = HashPartitioner.partition(&g, k).expect("partition");
            let micro = HashPartitioner.partition(&g, 16).expect("micro");
            let micro_to_worker: Vec<u32> = (0..16).map(|m| m % k).collect();

            let dir = std::env::temp_dir();
            let tag = format!(
                "hg-props-{}-{:?}-{scale}-{seed}-{k}",
                std::process::id(),
                std::thread::current().id()
            );
            let flat_path = dir.join(format!("{tag}-flat.hgs2"));
            let micro_path = dir.join(format!("{tag}-micro.hgs2"));

            let bin_flat = Datastore::binary_flat(&g);
            let map_flat = Datastore::mapped_flat(&g, &flat_path).expect("mapped flat");
            let (sw, ss) = stream_load(&bin_flat, &p);
            let (mw, ms) = stream_load(&map_flat, &p);
            prop_assert_eq!(&mw, &sw, "stream slabs");
            prop_assert_eq!(&ms, &ss, "stream stats");
            let (hw, hs) = hash_load(&bin_flat, &p);
            let (hmw, hms) = hash_load(&map_flat, &p);
            prop_assert_eq!(&hmw, &hw, "hash slabs");
            prop_assert_eq!(&hms, &hs, "hash stats");

            let bin_micro = Datastore::binary_micro(&g, &micro).expect("store");
            let map_micro =
                Datastore::mapped_micro(&g, &micro, &micro_path).expect("mapped micro");
            let (bw, bs) = micro_load(&bin_micro, &micro, &micro_to_worker, k).expect("load");
            let (qw, qs) = micro_load(&map_micro, &micro, &micro_to_worker, k).expect("load");
            prop_assert_eq!(&qw, &bw, "micro slabs");
            prop_assert_eq!(&qs, &bs, "micro stats");
            let reloaded =
                reload_graph(&qw, g.num_vertices(), g.is_directed()).expect("reload");
            prop_assert_eq!(&reloaded, &g);

            std::fs::remove_file(&flat_path).ok();
            std::fs::remove_file(&micro_path).ok();
        }

        /// The HGS2 per-bucket CRC trailer localizes payload corruption:
        /// flipping any payload byte leaves the (metadata-checksummed) open
        /// succeeding but fails `verify_all`, and the failing bucket is
        /// exactly the one whose arc range covers the flipped byte.
        #[test]
        fn mapped_store_localizes_payload_corruption(
            scale in 6u32..8,
            seed in 0u64..20,
            offset_sel in 0u64..u64::MAX,
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let micro = HashPartitioner.partition(&g, 16).expect("micro");
            let sharded = ShardedArcs::from_graph_buckets(&g, micro.assignment(), 16)
                .expect("shard");
            prop_assert!(sharded.payload_bytes() > 0, "R-MAT graphs always have arcs");

            let path = std::env::temp_dir().join(format!(
                "hg-props-crc-{}-{:?}-{scale}-{seed}.hgs2",
                std::process::id(),
                std::thread::current().id()
            ));
            let mut bytes = Vec::new();
            sharded.write_to(&mut bytes).expect("serialize");
            // HGS2 layout: 20-byte header, 16 u64 bucket counts, payload.
            let payload_off = 20 + 8 * sharded.num_buckets() as usize;
            let flip = offset_sel as usize % sharded.payload_bytes();
            bytes[payload_off + flip] ^= 0x5A;
            std::fs::write(&path, &bytes).expect("write corrupted store");

            let mapped = MappedShards::open(&path).expect("metadata is intact");
            prop_assert!(mapped.verify_all().is_err(), "corruption must be caught");
            let mut cut = 0u64;
            for b in 0..sharded.num_buckets() {
                let len = 8 * sharded.bucket_len(b);
                let hit = (cut..cut + len).contains(&(flip as u64));
                prop_assert_eq!(
                    mapped.verify_bucket(b).is_err(),
                    hit,
                    "bucket {} (flip at payload byte {})",
                    b,
                    flip
                );
                cut += len;
            }

            std::fs::remove_file(&path).ok();
        }
    }
}
mod fault_properties {
    use super::engine_properties::MaxId;
    use hourglass::engine::apps::PageRank;
    use hourglass::engine::recovery::{restore_latest, save_epoch};
    use hourglass::engine::{
        BspEngine, CheckpointStore, EngineConfig, EngineError, FaultyStore, MemoryStore,
        VertexProgram,
    };
    use hourglass::faults::{FaultKind, FaultPlan, IoKind, RetryPolicy, Site, Trigger};
    use hourglass::graph::{generators, Graph};
    use hourglass::partition::hash::HashPartitioner;
    use hourglass::partition::Partitioner;
    use proptest::prelude::*;

    fn engine_on<P: VertexProgram>(program: P, g: &Graph) -> BspEngine<'_, P> {
        let p = HashPartitioner.partition(g, 4).expect("partition");
        BspEngine::new(program, g, p, EngineConfig::default()).expect("engine")
    }

    /// One checkpoint-and-recover cycle against a (possibly faulty)
    /// store: step `cut` times saving an epoch after each step, then
    /// restore the newest epoch into a fresh engine and finish. Every
    /// store failure surfaces as the typed error this returns.
    fn faulted_run(
        g: &Graph,
        store: &dyn CheckpointStore,
        retry: &RetryPolicy,
        cut: usize,
    ) -> Result<Vec<u32>, EngineError> {
        let mut a = engine_on(MaxId, g);
        let mut epochs = 0usize;
        for _ in 0..cut {
            if a.step()? {
                break;
            }
            save_epoch::<MaxId>(store, "job", epochs, &a.checkpoint_state(), retry)?;
            epochs += 1;
        }
        let mut b = engine_on(MaxId, g);
        if epochs > 0 {
            restore_latest(&mut b, store, "job", epochs - 1, retry)?
                .ok_or_else(|| EngineError::Checkpoint("saved epochs vanished".into()))?;
        }
        b.run()?;
        Ok(b.into_values())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Recovering through a randomly faulty checkpoint store either
        /// reproduces the fault-free answer bit for bit or fails with a
        /// typed error — never a panic, never a silently wrong answer —
        /// and two identically seeded attempts agree on which.
        #[test]
        fn faulted_recovery_is_bit_identical_or_typed_error(
            scale in 6u32..8,
            seed in 0u64..20,
            cut in 1usize..4,
            put_per_mille in 0u32..500,
            get_every in 1u64..6,
            flip_budget in 0u32..4,
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let reference = {
                let mut e = engine_on(MaxId, &g);
                e.run().expect("fault-free run");
                e.into_values()
            };

            let plan = FaultPlan::new(seed ^ 0xFA)
                .rule(
                    Site::StorePut,
                    Trigger::Ratio { per_mille: put_per_mille },
                    FaultKind::Io(IoKind::TimedOut),
                )
                .rule_budgeted(
                    Site::StoreGet,
                    Trigger::EveryNth { every: get_every, phase: 0 },
                    FaultKind::BitFlip { offset: 11 },
                    flip_budget,
                );
            let retry = RetryPolicy::from_plan(&plan);
            let r1 = faulted_run(
                &g,
                &FaultyStore::new(MemoryStore::new(), plan.injector()),
                &retry,
                cut,
            );
            let r2 = faulted_run(
                &g,
                &FaultyStore::new(MemoryStore::new(), plan.injector()),
                &retry,
                cut,
            );
            match (r1, r2) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a, &b, "same plan, same outcome");
                    prop_assert_eq!(&a, &reference, "recovery changed the answer");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "identically seeded attempts diverged: ok={} vs ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }

        /// A torn write on the *final* checkpoint leaves earlier epochs
        /// intact: restore degrades to epoch N−1 (exactly one fallback)
        /// and the resumed run still reaches the fault-free answer.
        #[test]
        fn torn_final_checkpoint_recovers_previous_epoch(
            scale in 6u32..8,
            seed in 0u64..20,
            epochs in 2usize..5,
            fraction in 0.05f64..0.95,
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let plan = FaultPlan::new(seed).rule_budgeted(
                Site::StorePut,
                Trigger::OnCall((epochs - 1) as u64),
                FaultKind::TornWrite { fraction },
                1,
            );
            let store = FaultyStore::new(MemoryStore::new(), plan.injector());
            // No retries on save: the torn blob must stay the newest
            // epoch (a retry would immediately repair it).
            let once = RetryPolicy {
                attempts: 1,
                ..RetryPolicy::default()
            };

            let mut e = engine_on(PageRank::fixed(8), &g);
            for epoch in 0..epochs {
                e.step().expect("step");
                let saved =
                    save_epoch::<PageRank>(&store, "job", epoch, &e.checkpoint_state(), &once);
                if epoch + 1 == epochs {
                    prop_assert!(saved.is_err(), "the final save must tear");
                } else {
                    saved.expect("clean save");
                }
            }

            let mut b = engine_on(PageRank::fixed(8), &g);
            let (epoch, stats) =
                restore_latest(&mut b, &store, "job", epochs - 1, &RetryPolicy::default())
                    .expect("restore degrades instead of failing")
                    .expect("earlier epochs exist");
            prop_assert_eq!(epoch, epochs - 2, "must fall back exactly one epoch");
            prop_assert_eq!(stats.fallback_epochs, 1);
            b.run().expect("resumed run finishes");

            let mut r = engine_on(PageRank::fixed(8), &g);
            r.run().expect("fault-free run");
            let worst = r
                .values()
                .iter()
                .zip(b.values().iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            prop_assert!(worst < 1e-9, "recovered run diverged by {}", worst);
        }
    }
}
mod delta_migration_properties {
    use super::engine_properties::MaxId;
    use hourglass::engine::loaders::{
        delta_load, delta_load_faulty, micro_load, reload_graph, Datastore, ReloadFaults,
    };
    use hourglass::engine::{BspEngine, EngineConfig};
    use hourglass::faults::{FaultKind, FaultPlan, IoKind, Site, Trigger};
    use hourglass::graph::generators;
    use hourglass::partition::cluster::{cluster_micro_partitions, ClusteringDelta};
    use hourglass::partition::micro::MicroPartitioner;
    use hourglass::partition::multilevel::Multilevel;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Elastic reconfiguration by delta migration is indistinguishable
        /// from tearing the deployment down: on random R-MAT graphs and
        /// random re-clusterings (same or different worker counts), the
        /// delta-migrated worker slabs are bit-identical to a full micro
        /// reload, and vertex state carried through the resize matches a
        /// checkpoint-save/restore cycle exactly.
        #[test]
        fn delta_migration_matches_full_reload_and_checkpoint_restore(
            scale in 6u32..8,
            seed in 0u64..20,
            k_from in prop::sample::select(vec![1u32, 2, 4, 8]),
            k_to in prop::sample::select(vec![1u32, 2, 4, 8]),
            cut in 0usize..4,
        ) {
            let g = generators::rmat(scale, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let mp = MicroPartitioner::new(Multilevel::with_seed(seed), 16)
                .run(&g)
                .expect("micro");
            // Different clustering seeds so even k_from == k_to produces
            // genuine moves.
            let from = cluster_micro_partitions(&mp, k_from, seed).expect("cluster");
            let to = cluster_micro_partitions(&mp, k_to, seed ^ 0x5A).expect("cluster");
            let delta = ClusteringDelta::between(&mp, &from, &to).expect("delta");

            for store in [
                Datastore::binary_micro(&g, mp.micro()).expect("store"),
                Datastore::text_micro(&g, mp.micro()).expect("store"),
            ] {
                let (old, _) = micro_load(&store, mp.micro(), from.micro_to_macro(), k_from)
                    .expect("old load");
                let (dw, ds) = delta_load(&store, mp.micro(), &delta, to.micro_to_macro(), old)
                    .expect("delta load");
                let (fw, _) = micro_load(&store, mp.micro(), to.micro_to_macro(), k_to)
                    .expect("full load");
                prop_assert_eq!(&dw, &fw, "delta slabs must be bit-identical to a full reload");
                if delta.is_empty() {
                    prop_assert_eq!(ds.bytes_parsed, 0, "an empty delta reads nothing");
                }
                let reloaded = reload_graph(&dw, g.num_vertices(), g.is_directed())
                    .expect("reload");
                prop_assert_eq!(&reloaded, &g);
            }

            // Vertex state (values, halt flags, superstep) carried through
            // the resize matches a checkpoint-save/restore cycle exactly.
            let config = EngineConfig::default();
            let mut a = BspEngine::new(MaxId, &g, from.vertex_partitioning().clone(), config)
                .expect("engine");
            for _ in 0..cut {
                if a.step().expect("step") {
                    break;
                }
            }
            let mut adopted =
                BspEngine::new(MaxId, &g, to.vertex_partitioning().clone(), config)
                    .expect("engine");
            adopted.adopt_state_from(&a).expect("adopt");
            let mut restored =
                BspEngine::new(MaxId, &g, to.vertex_partitioning().clone(), config)
                    .expect("engine");
            restored.restore_state(a.checkpoint_state()).expect("restore");
            prop_assert_eq!(adopted.values(), restored.values());
            adopted.run().expect("finish adopted");
            restored.run().expect("finish restored");
            a.run().expect("finish original");
            prop_assert_eq!(adopted.values(), restored.values());
            prop_assert_eq!(adopted.values(), a.values());
        }

        /// Under a flaky shard store a delta migration either succeeds with
        /// the exact full-reload slabs (transient faults retried away) or
        /// fails with a typed error — and the full-reload fallback then
        /// rebuilds the correct graph. Never corruption, never a panic.
        #[test]
        fn faulted_delta_migration_falls_back_without_corruption(
            seed in 0u64..20,
            per_mille in 0u32..1000,
            k_to in prop::sample::select(vec![2u32, 4, 8]),
        ) {
            let g = generators::rmat(6, 8, generators::RmatParams::SOCIAL, seed)
                .expect("generate");
            let mp = MicroPartitioner::new(Multilevel::with_seed(seed), 16)
                .run(&g)
                .expect("micro");
            let from = cluster_micro_partitions(&mp, 4, seed).expect("cluster");
            let to = cluster_micro_partitions(&mp, k_to, seed ^ 0x5A).expect("cluster");
            let delta = ClusteringDelta::between(&mp, &from, &to).expect("delta");
            let store = Datastore::binary_micro(&g, mp.micro()).expect("store");
            let (old, _) = micro_load(&store, mp.micro(), from.micro_to_macro(), 4)
                .expect("old load");
            let (fw, _) = micro_load(&store, mp.micro(), to.micro_to_macro(), k_to)
                .expect("full load");

            let plan = FaultPlan::new(seed ^ 0xDE).rule(
                Site::ShardRead,
                Trigger::Ratio { per_mille },
                FaultKind::Io(IoKind::TimedOut),
            );
            let faults = ReloadFaults::from_plan(&plan);
            match delta_load_faulty(
                &store,
                mp.micro(),
                &delta,
                to.micro_to_macro(),
                old,
                Some(&faults),
            ) {
                Ok((dw, _)) => {
                    prop_assert_eq!(&dw, &fw, "degraded delta must still be exact");
                }
                Err(e) => {
                    // Typed error only; the caller's fallback path is a
                    // full reload, which must rebuild the graph intact.
                    let msg = e.to_string();
                    prop_assert!(msg.contains("unreadable"), "unexpected error: {}", msg);
                    let (dw, _) = micro_load(&store, mp.micro(), to.micro_to_macro(), k_to)
                        .expect("fallback load");
                    let reloaded = reload_graph(&dw, g.num_vertices(), g.is_directed())
                        .expect("reload");
                    prop_assert_eq!(&reloaded, &g);
                }
            }
        }
    }
}
// --- end engine properties ---

// --- eviction-process properties (every implementation, one contract) ---
mod eviction_process_properties {
    use hourglass::cloud::eviction::{
        BathtubModel, DynEviction, EvictionModel, LifetimeCapped, WeibullPhase,
    };
    use hourglass::cloud::{fit, tracegen, InstanceType};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One instance of every [`EvictionProcess`] implementation, all
    /// derived from the same synthetic trace so their scales agree:
    /// the empirical crossing CDF, a lifetime-capped composition over it,
    /// the bathtub fitted to its samples, and a hand-built bathtub.
    fn all_processes(seed: u64) -> Vec<(&'static str, DynEviction)> {
        let cfg = tracegen::TraceGenConfig::default();
        let trace = tracegen::generate_trace(InstanceType::R44xlarge, &cfg, seed).expect("trace");
        let bid = InstanceType::R44xlarge.on_demand_price();
        let window = 12.0 * 3600.0;
        let empirical: DynEviction =
            Arc::new(EvictionModel::from_trace(&trace, bid, window, 400, seed).expect("model"));
        let capped: DynEviction =
            Arc::new(LifetimeCapped::new(empirical.clone(), 4.0 * 3600.0).expect("capped"));
        let fitted: DynEviction =
            Arc::new(fit::fit_bathtub(&trace, bid, window, 400, seed).expect("fit"));
        let synthetic: DynEviction = Arc::new(
            BathtubModel::new(
                vec![
                    WeibullPhase {
                        start: 0.0,
                        shape: 0.6,
                        scale: 30_000.0,
                    },
                    WeibullPhase {
                        start: 3_600.0,
                        shape: 1.0,
                        scale: 50_000.0,
                    },
                    WeibullPhase {
                        start: 6.0 * 3_600.0,
                        shape: 2.0,
                        scale: 40_000.0,
                    },
                ],
                window,
            )
            .expect("bathtub"),
        );
        vec![
            ("empirical", empirical),
            ("capped", capped),
            ("fitted-bathtub", fitted),
            ("synthetic-bathtub", synthetic),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every CDF is a distribution function: F(0) = 0, monotone
        /// non-decreasing, bounded by 1 over the whole window.
        #[test]
        fn cdfs_are_distributions(seed in 0u64..12) {
            for (name, m) in all_processes(seed) {
                prop_assert_eq!(m.cdf(0.0), 0.0, "{}", name);
                let w = m.window();
                let mut last = 0.0;
                for i in 0..=60 {
                    let t = w * i as f64 / 60.0;
                    let c = m.cdf(t);
                    prop_assert!((0.0..=1.0).contains(&c), "{} cdf({})={}", name, t, c);
                    prop_assert!(c + 1e-12 >= last, "{} cdf not monotone at {}", name, t);
                    last = c;
                }
            }
        }

        /// `prob_between` is non-negative and partitions the window: the
        /// slices of any regular grid sum back to `cdf(window)`.
        #[test]
        fn prob_between_partitions_the_window(seed in 0u64..12, slices in 2usize..9) {
            for (name, m) in all_processes(seed) {
                let w = m.window();
                let mut sum = 0.0;
                for i in 0..slices {
                    let a = w * i as f64 / slices as f64;
                    let b = w * (i + 1) as f64 / slices as f64;
                    let p = m.prob_between(a, b);
                    prop_assert!(p >= -1e-12, "{} prob_between({},{})={}", name, a, b, p);
                    sum += p;
                }
                prop_assert!(
                    (sum - m.cdf(w)).abs() < 1e-9,
                    "{}: slices sum to {} but cdf(window) is {}",
                    name, sum, m.cdf(w)
                );
            }
        }

        /// MTTF is finite, positive and censoring-consistent: survival is
        /// non-increasing, so `window·S(window) ≤ MTTF ≤ window`.
        #[test]
        fn mttf_is_finite_and_censoring_consistent(seed in 0u64..12) {
            for (name, m) in all_processes(seed) {
                let w = m.window();
                let mttf = m.mttf();
                prop_assert!(mttf.is_finite() && mttf > 0.0, "{} mttf {}", name, mttf);
                prop_assert!(mttf <= w + 1.0, "{} mttf {} beyond window {}", name, mttf, w);
                let floor = w * (1.0 - m.cdf(w));
                prop_assert!(
                    mttf + w * 1e-3 >= floor,
                    "{} mttf {} below censoring floor {}",
                    name, mttf, floor
                );
            }
        }

        /// Conditional sampling respects the process: a drawn eviction
        /// never precedes the uptime or overshoots the window, and a
        /// censored draw (None) only happens when surviving the whole
        /// window has positive probability.
        #[test]
        fn sampling_respects_uptime_and_window(
            seed in 0u64..12,
            uptime_frac in 0.0f64..0.9,
            u in 0.0f64..1.0,
        ) {
            for (name, m) in all_processes(seed) {
                let w = m.window();
                let uptime = w * uptime_frac;
                match m.sample_next_eviction(uptime, u) {
                    Some(t) => {
                        prop_assert!(t >= uptime - 1e-9, "{} sampled {} before uptime {}", name, t, uptime);
                        prop_assert!(t <= w + 1e-6, "{} sampled {} beyond window {}", name, t, w);
                    }
                    None => prop_assert!(
                        m.cdf(w) < 1.0,
                        "{}: censored draw although cdf(window) = 1",
                        name
                    ),
                }
            }
        }
    }
}
// --- end eviction-process properties ---

// --- scenario determinism: parallel sweeps == sequential, per scenario ---
mod scenario_determinism {
    use hourglass::sim::{Experiment, ScenarioKind, VecSink};

    /// Under every cell of the scenario matrix — including the sampled
    /// bathtub ground truth and the crunch-perturbed market — the parallel
    /// sweep must replay the exact event stream of the sequential one.
    #[test]
    fn parallel_sweeps_are_bit_identical_under_every_scenario() {
        use hourglass::sim::job::{PaperJob, ReloadMode};
        use hourglass::sim::Scenario;

        let job = PaperJob::PageRank
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        for kind in ScenarioKind::ALL {
            let scenario = Scenario::build(kind, 11, 24.0 * 3600.0, 300).expect("scenario");
            let setup = scenario.setup();
            let strategy = hourglass::core::strategies::HourglassStrategy::new();
            let run = |parallel: bool| {
                let mut exp = Experiment::new(6, 23);
                if !parallel {
                    exp = exp.sequential();
                }
                let mut sink = VecSink::new();
                let summary = exp
                    .run_observed(&setup, &job, &strategy, &mut sink)
                    .expect("sweep");
                (summary, sink.events)
            };
            let (par, par_events) = run(true);
            let (seq, seq_events) = run(false);
            assert_eq!(
                par.mean_cost.to_bits(),
                seq.mean_cost.to_bits(),
                "{}: parallel cost diverged",
                kind.name()
            );
            assert_eq!(par.missed_pct.to_bits(), seq.missed_pct.to_bits());
            assert_eq!(
                par_events,
                seq_events,
                "{}: parallel event stream diverged from sequential",
                kind.name()
            );
        }
    }
}
// --- end scenario determinism ---

// --- metrics determinism: metered sweeps == unmetered, seq == par ---
mod metrics_determinism {
    use hourglass::metrics as hm;
    use hourglass::sim::job::{PaperJob, ReloadMode};
    use hourglass::sim::{
        derive_eviction_models, sweep_jobs, MetricsBridge, SimulationSetup, TeeSink, VecSink,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Sequential and parallel metered sweeps fold bit-identical
        /// deterministic metric snapshots, and metering changes neither
        /// the outcomes nor the event stream relative to an unmetered
        /// sweep of the same runs.
        #[test]
        fn metered_sweeps_fold_identical_deterministic_snapshots(
            seed in 0u64..12,
            runs in 4usize..10,
        ) {
            let market = hourglass::cloud::tracegen::simulation_market(seed).expect("market");
            let history = hourglass::cloud::tracegen::history_market(seed).expect("market");
            let models = derive_eviction_models(&history, 86_400.0, 300, 5).expect("models");
            let setup = SimulationSetup::new(&market, &models);
            let job = PaperJob::PageRank
                .description(60.0, ReloadMode::Fast)
                .expect("job");
            let strategy = hourglass::core::strategies::HourglassStrategy::new();
            let starts: Vec<f64> = (0..runs).map(|i| i as f64 * 110_000.0).collect();

            // Unmetered reference.
            let mut plain_sink = VecSink::new();
            let plain = sweep_jobs(&setup, &job, &strategy, &starts, true, &mut plain_sink)
                .expect("plain");

            let mut metered = Vec::new();
            for parallel in [false, true] {
                let session = hm::MetricsSession::start();
                let mut bridge = MetricsBridge::new("hourglass");
                let mut events = VecSink::new();
                let mut tee = TeeSink { first: &mut events, second: &mut bridge };
                let out = sweep_jobs(&setup, &job, &strategy, &starts, parallel, &mut tee)
                    .expect("metered");
                // Metering must not perturb outcomes or the event stream.
                prop_assert_eq!(out.len(), plain.len());
                for (a, b) in out.iter().zip(&plain) {
                    prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                    prop_assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
                }
                prop_assert_eq!(&events.events, &plain_sink.events);
                metered.push(session.finish());
            }
            prop_assert!(
                metered[0].deterministic().bit_eq(&metered[1].deterministic()),
                "sequential and parallel metric snapshots diverged"
            );
            let labels = [("strategy", "hourglass")];
            prop_assert_eq!(
                metered[0].scalar("hourglass_sim_runs_total", &labels),
                runs as f64
            );
        }
    }
}
// --- end metrics determinism ---

// --- fleet invariants: billing, capacity, preemption, determinism ---
mod fleet_properties {
    use hourglass::core::strategies::HourglassStrategy;
    use hourglass::sim::job::{PaperJob, ReloadMode};
    use hourglass::sim::{
        derive_eviction_models, run_fleet_observed, sweep_fleet, EventAggregate, FleetConfig,
        FleetJob, FleetWorkload, SacrificePolicy, ScenarioKind, SimEvent, SimulationSetup,
        TaggedVecSink,
    };
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn fixture(
        seed: u64,
    ) -> (
        hourglass::cloud::Market,
        Vec<(
            hourglass::cloud::InstanceType,
            hourglass::cloud::DynEviction,
        )>,
    ) {
        let market = hourglass::cloud::tracegen::simulation_market(seed).expect("market");
        let history = hourglass::cloud::tracegen::history_market(seed).expect("market");
        let models = derive_eviction_models(&history, 86_400.0, 300, 5).expect("models");
        (market, models)
    }

    /// Largest transient worker count across a catalog: a capacity cap at
    /// this value admits any single deployment but forbids all overlap.
    fn max_transient_workers(workload: &FleetWorkload) -> usize {
        workload
            .catalog
            .iter()
            .flat_map(|j| j.configs.iter())
            .filter(|p| p.config.is_transient())
            .map(|p| p.config.num_workers as usize)
            .max()
            .expect("catalog has a transient config")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Per-tenant billed dollars folded from the tagged event stream
        /// agree bit-for-bit with each `TenantOutcome`, and the tenant
        /// ledger sums exactly to the fleet ledger.
        #[test]
        fn tenant_billing_sums_to_the_fleet_ledger(
            seed in 0u64..10,
            tenants in 1usize..5,
            recurrences in 1usize..4,
            share in 0u8..2,
            capped in 0u8..2,
            pol in 0usize..3,
        ) {
            let (market, models) = fixture(seed);
            let setup = SimulationSetup::new(&market, &models);
            let strategy = HourglassStrategy::new();
            let workload =
                FleetWorkload::canned_recurring(tenants, recurrences).expect("workload");
            let config = FleetConfig {
                policy: SacrificePolicy::ALL[pol],
                capacity: (capped == 1).then(|| max_transient_workers(&workload)),
                share: share == 1,
            };
            let mut sink = TaggedVecSink::new();
            let fleet = run_fleet_observed(&setup, &workload, &strategy, &config, 0, &mut sink)
                .expect("fleet");
            let mut sum = 0.0f64;
            for t in &fleet.tenants {
                sum += t.billed;
            }
            prop_assert_eq!(sum.to_bits(), fleet.ledger_total.to_bits());
            let agg = EventAggregate::from_tagged_events(&sink.events);
            for t in &fleet.tenants {
                let ta = agg.tenants.get(&t.tenant).expect("tenant in aggregate");
                prop_assert_eq!(
                    ta.billed_dollars.to_bits(),
                    t.billed.to_bits(),
                    "tenant {}: stream fold diverged from the scheduler ledger",
                    t.tenant
                );
                prop_assert_eq!(ta.runs as usize, t.jobs.len());
            }
            prop_assert_eq!(
                agg.tenants.values().map(|t| t.preemptions as usize).sum::<usize>(),
                fleet.preemptions
            );
        }

        /// Under a capacity cap, the transient tenures reconstructed from
        /// the tagged event stream never overlap beyond the cap at any
        /// simulated instant, and every `Preempt` names a victim holding a
        /// live transient deployment at that moment.
        #[test]
        fn capped_fleets_never_double_book_an_instance(
            seed in 0u64..8,
            tenants in 2usize..6,
            gap in 1u64..6,
            pol in 0usize..3,
        ) {
            let (market, models) = fixture(seed);
            let setup = SimulationSetup::new(&market, &models);
            let strategy = HourglassStrategy::new();
            let job = PaperJob::PageRank
                .description(80.0, ReloadMode::Fast)
                .expect("job");
            let workload = FleetWorkload {
                catalog: vec![job],
                arrivals: (0..tenants)
                    .map(|t| FleetJob {
                        tenant: t as u32,
                        arrival: 50_000.0 + t as f64 * gap as f64 * 1_000.0,
                        job: 0,
                    })
                    .collect(),
            };
            let cap = max_transient_workers(&workload);
            let config = FleetConfig {
                policy: SacrificePolicy::ALL[pol],
                capacity: Some(cap),
                share: false,
            };
            let mut sink = TaggedVecSink::new();
            run_fleet_observed(&setup, &workload, &strategy, &config, 0, &mut sink)
                .expect("fleet");

            // One job per tenant, so the tenant id identifies the actor and
            // per-tenant held state can be replayed from the stream alone.
            let workers_of = |pick: usize| {
                let c = &workload.catalog[0].configs[pick].config;
                c.is_transient().then_some(c.num_workers as usize)
            };
            let mut held: BTreeMap<u32, usize> = BTreeMap::new();
            // Signed worker deltas at simulated instants; releases sort
            // before grants at equal times, matching the ledger's view of
            // an atomic switch.
            let mut deltas: Vec<(f64, i64)> = Vec::new();
            for (_, tenant, event) in &sink.events {
                let tn = tenant.expect("fleet events carry a tenant tag");
                match event {
                    SimEvent::Acquire {
                        t, pick, released, ..
                    } => {
                        if let Some(w) = released.and_then(workers_of) {
                            deltas.push((*t, -(w as i64)));
                        }
                        match workers_of(*pick) {
                            Some(w) => {
                                deltas.push((*t, w as i64));
                                held.insert(tn, w);
                            }
                            None => {
                                held.remove(&tn);
                            }
                        }
                    }
                    SimEvent::Evict { t, pick, .. } => {
                        if let Some(w) = workers_of(*pick) {
                            deltas.push((*t, -(w as i64)));
                        }
                        held.remove(&tn);
                    }
                    SimEvent::Complete { t, .. } => {
                        if let Some(w) = held.remove(&tn) {
                            deltas.push((*t, -(w as i64)));
                        }
                    }
                    SimEvent::Preempt { victim, .. } => {
                        prop_assert!(
                            held.contains_key(victim),
                            "preempted tenant {} held no transient deployment",
                            victim
                        );
                    }
                    _ => {}
                }
            }
            deltas.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite sim times")
                    .then(a.1.cmp(&b.1))
            });
            let mut in_use = 0i64;
            for (t, d) in deltas {
                in_use += d;
                prop_assert!(in_use >= 0, "negative occupancy at t={t}");
                prop_assert!(
                    in_use <= cap as i64,
                    "double-booked at t={t}: {in_use} workers live under a cap of {cap}"
                );
            }
        }

        /// Parallel fleet sweeps replay the sequential event stream and
        /// outcomes bit-for-bit under every scenario kind.
        #[test]
        fn fleet_sweeps_are_bit_identical_in_parallel(
            seed in 0u64..12,
            kind_idx in 0usize..4,
        ) {
            let kind = ScenarioKind::ALL[kind_idx];
            let seeds = [seed, seed + 17];
            let workload = FleetWorkload::canned_recurring(2, 2).expect("workload");
            let strategy = HourglassStrategy::new();
            let config = FleetConfig::default();
            let run = |parallel: bool| {
                let mut sink = TaggedVecSink::new();
                let out = sweep_fleet(
                    kind, &seeds, &workload, &strategy, &config, 250, parallel, &mut sink,
                )
                .expect("sweep");
                (out, sink.events)
            };
            let (seq, seq_events) = run(false);
            let (par, par_events) = run(true);
            prop_assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                prop_assert_eq!(a.ledger_total.to_bits(), b.ledger_total.to_bits());
                prop_assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
                prop_assert_eq!(a.runs, b.runs);
                prop_assert_eq!(a.missed, b.missed);
                prop_assert_eq!(a.rejected, b.rejected);
                prop_assert_eq!(a.preemptions, b.preemptions);
                prop_assert_eq!(a.share_hits, b.share_hits);
            }
            prop_assert_eq!(
                seq_events,
                par_events,
                "{}: parallel fleet stream diverged from sequential",
                kind.name()
            );
        }
    }
}
// --- end fleet invariants ---
