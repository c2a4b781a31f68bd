//! The paper's graph applications (§8.1) plus a few standard extras.
//!
//! - [`PageRank`] — relevance estimation [9], fixed iteration count
//!   (the paper runs 30);
//! - [`Sssp`] — single-source shortest paths;
//! - [`GraphColoring`] — greedy coloring following the independent-set
//!   approach of Salihoglu & Widom [31];
//! - [`Wcc`], [`Bfs`], [`DegreeCount`] — standard auxiliary programs used
//!   by tests and examples.

use crate::checkpoint::Codec;
use crate::program::{ComputeContext, VertexProgram};
use crate::Result;
use hourglass_graph::{Graph, VertexId};

// ---------------------------------------------------------------------------
// PageRank.
// ---------------------------------------------------------------------------

/// PageRank with damping 0.85, a fixed iteration budget and an optional
/// early-convergence tolerance.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Maximum number of rank-update iterations (the paper uses 30).
    pub iterations: usize,
    /// Stop early once the total rank change `Σ|Δ|` of a superstep drops
    /// below this value (None = always run the full budget).
    pub tolerance: Option<f64>,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            iterations: 30,
            tolerance: None,
        }
    }
}

impl PageRank {
    /// Fixed-iteration PageRank (the paper's configuration).
    pub fn fixed(iterations: usize) -> Self {
        PageRank {
            iterations,
            tolerance: None,
        }
    }

    /// Convergence-based PageRank: stops when `Σ|Δ| < tolerance`.
    pub fn converging(tolerance: f64, max_iterations: usize) -> Self {
        PageRank {
            iterations: max_iterations,
            tolerance: Some(tolerance),
        }
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Message = f64;

    fn init(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices().max(1) as f64
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, f64, f64>, messages: &[f64]) {
        let n = ctx.graph.num_vertices() as f64;
        let mut converged = false;
        if ctx.superstep > 0 {
            // Dangling (degree-0) vertices cannot forward their rank;
            // their aggregated mass is redistributed uniformly, keeping
            // total rank at 1 (the standard dangling-node correction).
            let dangling = ctx.prev_aggregates.sum("dangling");
            let sum: f64 = messages.iter().sum();
            let old = *ctx.value_ref();
            *ctx.value() = 0.15 / n + 0.85 * (sum + dangling / n);
            let delta = (*ctx.value_ref() - old).abs();
            ctx.aggregate_sum("delta", delta);
            if let Some(tol) = self.tolerance {
                // The previous superstep's total change is visible to all
                // vertices; when it fell below tolerance, stop uniformly.
                converged = ctx.superstep > 1 && ctx.prev_aggregates.sum("delta") < tol;
            }
        }
        if !converged && ctx.superstep < self.iterations {
            let d = ctx.degree();
            if d > 0 {
                let share = *ctx.value_ref() / d as f64;
                ctx.send_to_neighbors(share);
            } else {
                let mass = *ctx.value_ref();
                ctx.aggregate_sum("dangling", mass);
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combiner(&self) -> Option<fn(&f64, &f64) -> f64> {
        Some(|a, b| a + b)
    }

    fn name(&self) -> &'static str {
        "PageRank"
    }
}

// ---------------------------------------------------------------------------
// Single-source shortest paths.
// ---------------------------------------------------------------------------

/// SSSP from a source vertex over unit-weight edges.
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    /// The source vertex.
    pub source: VertexId,
}

impl VertexProgram for Sssp {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, f64, f64>, messages: &[f64]) {
        let incoming = messages.iter().copied().fold(f64::INFINITY, f64::min);
        let candidate = if ctx.superstep == 0 && ctx.vertex == self.source {
            0.0
        } else {
            incoming
        };
        if candidate < *ctx.value_ref() || (ctx.superstep == 0 && ctx.vertex == self.source) {
            if candidate < *ctx.value_ref() {
                *ctx.value() = candidate;
            }
            let next = *ctx.value_ref() + 1.0;
            ctx.send_to_neighbors(next);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&f64, &f64) -> f64> {
        Some(|a, b| a.min(*b))
    }

    fn name(&self) -> &'static str {
        "SSSP"
    }
}

// ---------------------------------------------------------------------------
// Greedy graph coloring.
// ---------------------------------------------------------------------------

/// Per-vertex coloring state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorState {
    /// Assigned color, `u32::MAX` while undecided.
    pub color: u32,
}

impl Codec for ColorState {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.color.put(out);
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        Ok(ColorState {
            color: u32::get(input)?,
        })
    }
}

impl ColorState {
    /// Whether a color has been assigned.
    pub fn is_colored(&self) -> bool {
        self.color != u32::MAX
    }
}

/// Greedy graph coloring via rounds of independent sets (Salihoglu &
/// Widom [31]): in round `r`, every still-uncolored vertex draws a
/// deterministic pseudo-random priority; local priority minima join the
/// round's independent set and take color `r`. Adjacent vertices can never
/// join the same round's set, so the coloring is proper.
#[derive(Debug, Clone, Copy)]
pub struct GraphColoring {
    /// Seed for the per-round priorities.
    pub seed: u64,
}

impl Default for GraphColoring {
    fn default() -> Self {
        GraphColoring { seed: 0xC0105 }
    }
}

impl GraphColoring {
    fn priority(&self, v: VertexId, round: usize) -> u64 {
        // SplitMix64 over (seed, vertex, round): deterministic and
        // uncorrelated between rounds.
        let mut x = self
            .seed
            .wrapping_add((v as u64) << 32)
            .wrapping_add(round as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl VertexProgram for GraphColoring {
    type Value = ColorState;
    /// `(priority, vertex)` of an uncolored neighbor.
    type Message = (u64, u32);

    fn init(&self, _v: VertexId, _g: &Graph) -> ColorState {
        ColorState { color: u32::MAX }
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, ColorState, (u64, u32)>,
        messages: &[(u64, u32)],
    ) {
        if ctx.value_ref().is_colored() {
            ctx.vote_to_halt();
            return;
        }
        // Decide round `superstep − 1` based on last superstep's
        // priorities: local minima (with id tie-break) take the color.
        if ctx.superstep > 0 {
            let round = ctx.superstep - 1;
            let mine = (self.priority(ctx.vertex, round), ctx.vertex);
            let is_min = messages.iter().all(|&(p, v)| mine < (p, v));
            if is_min {
                ctx.value().color = round as u32;
                ctx.vote_to_halt();
                return;
            }
        }
        // Still uncolored: advertise this round's priority.
        let p = self.priority(ctx.vertex, ctx.superstep);
        let me = ctx.vertex;
        ctx.send_to_neighbors((p, me));
    }

    fn name(&self) -> &'static str {
        "GraphColoring"
    }
}

// ---------------------------------------------------------------------------
// Auxiliary programs.
// ---------------------------------------------------------------------------

/// Weakly connected components by min-label propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wcc;

impl VertexProgram for Wcc {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
        let best = messages
            .iter()
            .copied()
            .min()
            .unwrap_or(u32::MAX)
            .min(*ctx.value_ref());
        if ctx.superstep == 0 || best < *ctx.value_ref() {
            *ctx.value() = best.min(*ctx.value_ref());
            let label = *ctx.value_ref();
            ctx.send_to_neighbors(label);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&u32, &u32) -> u32> {
        Some(|a, b| *a.min(b))
    }

    fn name(&self) -> &'static str {
        "WCC"
    }
}

/// BFS levels from a source (`u32::MAX` = unreachable).
#[derive(Debug, Clone, Copy)]
pub struct Bfs {
    /// The source vertex.
    pub source: VertexId,
}

impl VertexProgram for Bfs {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
        let candidate = if ctx.superstep == 0 && ctx.vertex == self.source {
            0
        } else {
            messages.iter().copied().min().unwrap_or(u32::MAX)
        };
        if candidate < *ctx.value_ref() || (ctx.superstep == 0 && ctx.vertex == self.source) {
            if candidate < *ctx.value_ref() {
                *ctx.value() = candidate;
            }
            let next = ctx.value_ref().saturating_add(1);
            ctx.send_to_neighbors(next);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&u32, &u32) -> u32> {
        Some(|a, b| *a.min(b))
    }

    fn name(&self) -> &'static str {
        "BFS"
    }
}

/// Records each vertex's degree (single superstep; smoke-test program).
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeCount;

impl VertexProgram for DegreeCount {
    type Value = u32;
    type Message = u32;

    fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
        0
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, _messages: &[u32]) {
        *ctx.value() = ctx.degree() as u32;
        ctx.vote_to_halt();
    }

    fn name(&self) -> &'static str {
        "Degree"
    }
}

/// Validates a coloring: no edge may connect equal colors and every vertex
/// must be colored.
pub fn coloring_is_proper(g: &Graph, colors: &[ColorState]) -> bool {
    if colors.len() != g.num_vertices() {
        return false;
    }
    if colors.iter().any(|c| !c.is_colored()) {
        return false;
    }
    g.edges()
        .all(|(u, v)| u == v || colors[u as usize].color != colors[v as usize].color)
}

/// Number of distinct colors used.
pub fn color_count(colors: &[ColorState]) -> usize {
    let mut seen: Vec<u32> = colors.iter().map(|c| c.color).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BspEngine, EngineConfig};
    use hourglass_graph::{generators, stats, GraphBuilder};
    use hourglass_partition::{hash::HashPartitioner, Partitioner};

    fn run<P: VertexProgram>(program: P, g: &Graph, k: u32) -> Vec<P::Value> {
        let p = HashPartitioner.partition(g, k).expect("partition");
        let mut e = BspEngine::new(program, g, p, EngineConfig::default()).expect("engine");
        e.run().expect("run");
        e.into_values()
    }

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::undirected(n);
        for i in 0..n as u32 - 1 {
            b.add_edge(i, i + 1);
        }
        b.build().expect("build")
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 2).expect("gen");
        let ranks = run(PageRank::fixed(20), &g, 4);
        let total: f64 = ranks.iter().sum();
        // Dangling (degree-0) vertices leak rank; R-MAT has few. Allow 5%.
        assert!((total - 1.0).abs() < 0.05, "rank mass {total}");
        assert!(ranks.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn pagerank_hubs_rank_higher() {
        // Star: the center must outrank every leaf.
        let mut b = GraphBuilder::undirected(11);
        for v in 1..11 {
            b.add_edge(0, v);
        }
        let g = b.build().expect("build");
        let ranks = run(PageRank::fixed(30), &g, 2);
        for v in 1..11 {
            assert!(ranks[0] > ranks[v]);
        }
    }

    #[test]
    fn sssp_on_path() {
        let g = path(6);
        let dist = run(Sssp { source: 0 }, &g, 3);
        for (v, &d) in dist.iter().enumerate() {
            assert_eq!(d, v as f64, "distance of vertex {v}");
        }
    }

    #[test]
    fn sssp_unreachable_stays_infinite() {
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1);
        // 2-3 disconnected from source 0.
        b.add_edge(2, 3);
        let g = b.build().expect("build");
        let dist = run(Sssp { source: 0 }, &g, 2);
        assert_eq!(dist[1], 1.0);
        assert!(dist[2].is_infinite() && dist[3].is_infinite());
    }

    #[test]
    fn coloring_proper_on_rmat() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 7).expect("gen");
        let colors = run(GraphColoring::default(), &g, 4);
        assert!(coloring_is_proper(&g, &colors));
        let max_deg = (0..g.num_vertices())
            .map(|v| g.degree(v as u32))
            .max()
            .expect("non-empty");
        assert!(
            color_count(&colors) <= max_deg + 1,
            "greedy bound violated: {} colors, max degree {max_deg}",
            color_count(&colors)
        );
    }

    #[test]
    fn coloring_of_clique_uses_n_colors() {
        let mut b = GraphBuilder::undirected(6);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_edge(i, j);
            }
        }
        let g = b.build().expect("build");
        let colors = run(GraphColoring::default(), &g, 2);
        assert!(coloring_is_proper(&g, &colors));
        assert_eq!(color_count(&colors), 6);
    }

    #[test]
    fn coloring_of_edgeless_graph_is_single_color() {
        let g = GraphBuilder::undirected(10).build().expect("build");
        let colors = run(GraphColoring::default(), &g, 2);
        assert!(coloring_is_proper(&g, &colors));
        assert_eq!(color_count(&colors), 1);
    }

    #[test]
    fn wcc_matches_union_find() {
        let g = generators::erdos_renyi(400, 500, 11).expect("gen");
        let labels = run(Wcc, &g, 4);
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), stats::connected_components(&g));
        // Labels constant within an edge.
        for (u, v) in g.edges() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path(5);
        let levels = run(Bfs { source: 2 }, &g, 2);
        assert_eq!(levels, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn degree_program() {
        let g = path(4);
        let degs = run(DegreeCount, &g, 2);
        assert_eq!(degs, vec![1, 2, 2, 1]);
    }

    #[test]
    fn converging_pagerank_stops_early_with_same_answer() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 2).expect("gen");
        let p = hourglass_partition::hash::HashPartitioner
            .partition(&g, 2)
            .expect("partition");
        let mut full = crate::engine::BspEngine::new(
            PageRank::fixed(60),
            &g,
            p.clone(),
            crate::engine::EngineConfig::default(),
        )
        .expect("engine");
        let full_report = full.run().expect("run");
        let mut conv = crate::engine::BspEngine::new(
            PageRank::converging(1e-7, 60),
            &g,
            p,
            crate::engine::EngineConfig::default(),
        )
        .expect("engine");
        let conv_report = conv.run().expect("run");
        assert!(
            conv_report.supersteps < full_report.supersteps,
            "convergence should stop early: {} vs {}",
            conv_report.supersteps,
            full_report.supersteps
        );
        let max_diff = full
            .values()
            .iter()
            .zip(conv.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-5, "ranks drifted by {max_diff}");
    }

    #[test]
    fn coloring_validator_rejects_bad_colorings() {
        let g = path(3);
        let all_same = vec![ColorState { color: 0 }; 3];
        assert!(!coloring_is_proper(&g, &all_same));
        let incomplete = vec![
            ColorState { color: 0 },
            ColorState { color: u32::MAX },
            ColorState { color: 0 },
        ];
        assert!(!coloring_is_proper(&g, &incomplete));
        let ok = vec![
            ColorState { color: 0 },
            ColorState { color: 1 },
            ColorState { color: 0 },
        ];
        assert!(coloring_is_proper(&g, &ok));
        assert!(!coloring_is_proper(&g, &ok[..2]));
    }
}

// ---------------------------------------------------------------------------
// Extended applications (beyond the paper's three benchmarks).
// ---------------------------------------------------------------------------

/// Per-vertex triangle count: each vertex learns its neighbors' adjacency
/// and counts closed wedges. Two supersteps; message volume is O(Σ d²),
/// so use on moderate-degree graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TriangleCount;

impl VertexProgram for TriangleCount {
    type Value = u64;
    /// `(sender, sender's adjacency list)`.
    type Message = (u32, Vec<u32>);

    fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
        0
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, u64, (u32, Vec<u32>)>,
        messages: &[(u32, Vec<u32>)],
    ) {
        if ctx.superstep == 0 {
            // Send the adjacency to neighbors with a *smaller* id.
            let mine: Vec<u32> = ctx.neighbors().to_vec();
            let me = ctx.vertex;
            for i in 0..ctx.neighbors().len() {
                let n = ctx.neighbors()[i];
                if n < me {
                    ctx.send(n, (me, mine.clone()));
                }
            }
        } else {
            // Count, for each higher neighbor u, the common neighbors w
            // with w > u: triangle {v, u, w} (v < u < w) is then counted
            // exactly once, at its smallest vertex v.
            let mine = ctx.neighbors();
            let mut count = 0u64;
            for (sender, adj) in messages {
                for w in adj {
                    if *w > *sender && mine.binary_search(w).is_ok() {
                        count += 1;
                    }
                }
            }
            *ctx.value() = count;
        }
        ctx.vote_to_halt();
    }

    fn name(&self) -> &'static str {
        "TriangleCount"
    }
}

/// Sums the per-vertex triangle counts produced by [`TriangleCount`] into
/// the global triangle count.
pub fn total_triangles(per_vertex: &[u64]) -> u64 {
    per_vertex.iter().sum()
}

/// k-core decomposition flavor: iteratively deactivate vertices with
/// fewer than `k` live neighbors; the surviving vertices form the k-core.
#[derive(Debug, Clone, Copy)]
pub struct KCore {
    /// The core order.
    pub k: u32,
}

/// State of a vertex in the k-core computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreState {
    /// Whether the vertex is still in the candidate core.
    pub alive: bool,
    /// Number of dead neighbors observed so far.
    pub dead_neighbors: u32,
}

impl Codec for CoreState {
    const MIN_BYTES: usize = bool::MIN_BYTES + u32::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.alive.put(out);
        self.dead_neighbors.put(out);
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        Ok(CoreState {
            alive: bool::get(input)?,
            dead_neighbors: u32::get(input)?,
        })
    }
}

impl VertexProgram for KCore {
    type Value = CoreState;
    /// "I died" notification.
    type Message = u8;

    fn init(&self, _v: VertexId, _g: &Graph) -> CoreState {
        CoreState {
            alive: true,
            dead_neighbors: 0,
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, CoreState, u8>, messages: &[u8]) {
        if !ctx.value_ref().alive {
            ctx.vote_to_halt();
            return;
        }
        ctx.value().dead_neighbors += messages.len() as u32;
        let live_degree = ctx.degree() as u32 - ctx.value_ref().dead_neighbors;
        if live_degree < self.k {
            ctx.value().alive = false;
            ctx.send_to_neighbors(1);
        }
        ctx.vote_to_halt();
    }

    fn name(&self) -> &'static str {
        "KCore"
    }
}

/// Label-propagation community detection: every vertex adopts the most
/// frequent label among its neighbors, for a fixed number of rounds
/// (deterministic tie-break on the smaller label).
#[derive(Debug, Clone, Copy)]
pub struct LabelPropagation {
    /// Rounds to run (label propagation rarely needs more than ~10).
    pub rounds: usize,
}

impl VertexProgram for LabelPropagation {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
        if ctx.superstep > 0 {
            // Adopt the most frequent incoming label (ties → smallest).
            let mut labels: Vec<u32> = messages.to_vec();
            labels.sort_unstable();
            let mut best = *ctx.value_ref();
            let mut best_count = 0usize;
            let mut i = 0;
            while i < labels.len() {
                let mut j = i;
                while j < labels.len() && labels[j] == labels[i] {
                    j += 1;
                }
                let count = j - i;
                if count > best_count || (count == best_count && labels[i] < best) {
                    best = labels[i];
                    best_count = count;
                }
                i = j;
            }
            *ctx.value() = best;
        }
        if ctx.superstep < self.rounds {
            let label = *ctx.value_ref();
            ctx.send_to_neighbors(label);
        } else {
            ctx.vote_to_halt();
        }
    }

    fn name(&self) -> &'static str {
        "LabelPropagation"
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::engine::{BspEngine, EngineConfig};
    use hourglass_graph::{generators, GraphBuilder};
    use hourglass_partition::{hash::HashPartitioner, Partitioner};

    fn run<P: VertexProgram>(program: P, g: &Graph, k: u32) -> Vec<P::Value> {
        let p = HashPartitioner.partition(g, k).expect("partition");
        let mut e = BspEngine::new(program, g, p, EngineConfig::default()).expect("engine");
        e.run().expect("run");
        e.into_values()
    }

    #[test]
    fn triangles_of_a_triangle() {
        let mut b = GraphBuilder::undirected(3);
        b.extend_edges([(0, 1), (1, 2), (0, 2)]);
        let g = b.build().expect("build");
        let counts = run(TriangleCount, &g, 2);
        assert_eq!(total_triangles(&counts), 1);
    }

    #[test]
    fn triangles_of_k4() {
        // K4 has 4 triangles.
        let mut b = GraphBuilder::undirected(4);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
            }
        }
        let g = b.build().expect("build");
        let counts = run(TriangleCount, &g, 2);
        assert_eq!(total_triangles(&counts), 4);
    }

    #[test]
    fn triangles_of_triangle_free_graph() {
        // Even cycles are triangle-free.
        let mut b = GraphBuilder::undirected(6);
        for i in 0..6u32 {
            b.add_edge(i, (i + 1) % 6);
        }
        let g = b.build().expect("build");
        let counts = run(TriangleCount, &g, 3);
        assert_eq!(total_triangles(&counts), 0);
    }

    #[test]
    fn kcore_peels_tails() {
        // Triangle (a 2-core) with a pendant path attached.
        let mut b = GraphBuilder::undirected(5);
        b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let g = b.build().expect("build");
        let states = run(KCore { k: 2 }, &g, 2);
        assert!(states[0].alive && states[1].alive && states[2].alive);
        assert!(!states[3].alive && !states[4].alive);
    }

    #[test]
    fn kcore_zero_keeps_everything() {
        let g = generators::erdos_renyi(50, 100, 1).expect("gen");
        let states = run(KCore { k: 0 }, &g, 2);
        assert!(states.iter().all(|s| s.alive));
    }

    #[test]
    fn label_propagation_finds_communities() {
        // Two dense communities joined by one bridge.
        let g = generators::community(2, 32, 0.5, 1, 3).expect("gen");
        let labels = run(LabelPropagation { rounds: 8 }, &g, 2);
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= 6,
            "two communities should collapse to few labels, got {}",
            distinct.len()
        );
    }
}
