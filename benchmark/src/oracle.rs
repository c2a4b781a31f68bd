//! Reference answers the workloads are checked against. They share no
//! code with the engine: both walk the CSR directly, on one thread.

use hourglass_graph::{Graph, VertexId};

/// Distance of an unreachable vertex in [`bfs_distances`].
pub const UNREACHED: u32 = u32::MAX;

/// Dense power-iteration PageRank with damping 0.85: `iterations` rank
/// updates from the uniform vector, the rank of degree-0 vertices spread
/// uniformly (so total rank stays 1).
pub fn pagerank(g: &Graph, iterations: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut share = vec![0.0; n];
    for _ in 0..iterations {
        let mut dangling = 0.0;
        for v in 0..n {
            let d = g.degree(v as VertexId);
            if d == 0 {
                dangling += rank[v];
                share[v] = 0.0;
            } else {
                share[v] = rank[v] / d as f64;
            }
        }
        for (v, r) in rank.iter_mut().enumerate() {
            let sum: f64 = g
                .neighbors(v as VertexId)
                .iter()
                .map(|&u| share[u as usize])
                .sum();
            *r = 0.15 / nf + 0.85 * (sum + dangling / nf);
        }
    }
    rank
}

/// Textbook queue BFS: hop distance from `source`, [`UNREACHED`] where
/// there is no path.
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = dist[u as usize] + 1;
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Largest `|a[i] − b[i]|`; infinite when the lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Whether the engine's SSSP values equal the BFS hop distances exactly
/// (an unreachable vertex keeps the engine's infinite initial value).
pub fn sssp_matches_bfs(values: &[f64], bfs: &[u32]) -> bool {
    values.len() == bfs.len()
        && values.iter().zip(bfs).all(|(&v, &d)| {
            if d == UNREACHED {
                v == f64::INFINITY
            } else {
                v == d as f64
            }
        })
}

/// The splitmix64 generator: the benchmark's own source of seeded
/// choices, so that it depends on nothing outside the workspace.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`, `bound > 0` (the bias is below 2⁻³² for the
    /// bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A seeded uniform permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SplitMix64(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use hourglass_engine::apps::{PageRank, Sssp};
    use hourglass_engine::{BspEngine, EngineConfig};
    use hourglass_graph::generators::{self, RmatParams};
    use hourglass_partition::hash::HashPartitioner;
    use hourglass_partition::Partitioner;

    #[test]
    fn dense_pagerank_agrees_with_the_engine_at_scale_10() {
        let g = generators::rmat(10, 12, RmatParams::SOCIAL, 3).expect("generate");
        let part = HashPartitioner.partition(&g, 2).expect("partition");
        let mut e =
            BspEngine::new(PageRank::fixed(6), &g, part, EngineConfig::default()).expect("engine");
        e.run().expect("run");
        let ranks = e.into_values();
        let oracle = pagerank(&g, 6);
        assert!((oracle.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(max_abs_diff(&ranks, &oracle) < 1e-12);
    }

    #[test]
    fn bfs_agrees_with_the_engine_at_scale_10() {
        let g = generators::rmat(10, 12, RmatParams::SOCIAL, 4).expect("generate");
        let part = HashPartitioner.partition(&g, 2).expect("partition");
        let mut e =
            BspEngine::new(Sssp { source: 0 }, &g, part, EngineConfig::default()).expect("engine");
        e.run().expect("run");
        let dist = e.into_values();
        let bfs = bfs_distances(&g, 0);
        assert!(bfs.contains(&UNREACHED), "R-MAT leaves isolated vertices");
        assert!(sssp_matches_bfs(&dist, &bfs));
        let mut wrong = dist.clone();
        wrong[1] += 1.0;
        assert!(!sssp_matches_bfs(&wrong, &bfs));
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(1000, 5);
        let mut seen = vec![false; 1000];
        for &v in &p {
            assert!(!std::mem::replace(&mut seen[v as usize], true));
        }
        assert_eq!(p, permutation(1000, 5));
        assert_ne!(p, permutation(1000, 6));
    }
}
