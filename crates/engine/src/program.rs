//! The vertex-program abstraction ("think like a vertex", Pregel [27]).

use crate::checkpoint::{malformed, Codec};
use crate::Result;
use hourglass_graph::{Graph, VertexId};
use std::collections::HashMap;

/// Global aggregates exchanged between supersteps.
///
/// Two merge semantics are provided, keyed by name: sums and maxima. The
/// values written during superstep `s` are visible to every vertex during
/// superstep `s + 1` (and to the master between supersteps), matching
/// Pregel aggregator semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregates {
    sums: HashMap<String, f64>,
    maxs: HashMap<String, f64>,
}

impl Aggregates {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` into the sum-aggregate `name`.
    pub fn add_sum(&mut self, name: &str, v: f64) {
        // Hit first: PageRank calls this once per vertex per superstep, and
        // `entry` would allocate the key every time.
        if let Some(sum) = self.sums.get_mut(name) {
            *sum += v;
        } else {
            self.sums.insert(name.to_string(), 0.0 + v);
        }
    }

    /// Merges `v` into the max-aggregate `name`.
    pub fn add_max(&mut self, name: &str, v: f64) {
        if let Some(max) = self.maxs.get_mut(name) {
            if v > *max {
                *max = v;
            }
        } else {
            // −∞ then compare: NaN leaves −∞, as it did through `entry`.
            self.maxs.insert(name.to_string(), f64::NEG_INFINITY.max(v));
        }
    }

    /// Reads the sum-aggregate `name` (0 when never written).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Reads the max-aggregate `name` (−∞ when never written).
    pub fn max(&self, name: &str) -> f64 {
        self.maxs.get(name).copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// Merges another set into this one (worker → master reduction).
    pub fn merge(&mut self, other: &Aggregates) {
        for (k, v) in &other.sums {
            *self.sums.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.maxs {
            let e = self.maxs.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            if *v > *e {
                *e = *v;
            }
        }
    }
}

/// Sums, then maxima; each a count and its `(name, value)` entries in
/// ascending name order, so equal sets encode to equal bytes whatever order
/// their maps iterate in.
impl Codec for Aggregates {
    const MIN_BYTES: usize = 2 * <Vec<(String, f64)>>::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        for map in [&self.sums, &self.maxs] {
            let mut entries: Vec<(&String, &f64)> = map.iter().collect();
            entries.sort_unstable_by_key(|&(name, _)| name);
            (entries.len() as u64).put(out);
            for (name, v) in entries {
                name.put(out);
                v.put(out);
            }
        }
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        let mut map = || -> Result<HashMap<String, f64>> {
            let entries = <Vec<(String, f64)>>::get(input)?;
            if let Some(pair) = entries.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
                return Err(malformed(format_args!(
                    "aggregate {:?} is not after {:?}",
                    pair[1].0, pair[0].0
                )));
            }
            Ok(entries.into_iter().collect())
        };
        Ok(Aggregates {
            sums: map()?,
            maxs: map()?,
        })
    }
}

/// Packed routing word for one vertex: destination worker in the high 32
/// bits, slot within that worker's slabs in the low 32. One cache line
/// read at send time resolves both, and delivery needs no lookup at all.
pub(crate) fn pack_route(worker: u32, slot: u32) -> u64 {
    ((worker as u64) << 32) | slot as u64
}

/// Builds the packed vertex → (worker, slot) routing table from per-worker
/// member lists.
pub(crate) fn build_routes(num_vertices: usize, members: &[Vec<VertexId>]) -> Vec<u64> {
    let mut route = vec![0u64; num_vertices];
    for (worker, ws) in members.iter().enumerate() {
        for (slot, &v) in ws.iter().enumerate() {
            route[v as usize] = pack_route(worker as u32, slot as u32);
        }
    }
    route
}

/// A program's message combiner: a total, associative, commutative fold.
pub type Combiner<M> = fn(&M, &M) -> M;

/// One worker's outgoing mail for a superstep. Which kind a run uses is a
/// property of the program — whether it declares a combiner — and never
/// changes during the run.
pub(crate) enum Outbox<M> {
    /// The program has a combiner: at most one message per target vertex.
    Folded(FoldedOutbox<M>),
    /// No combiner: one bucket per destination worker holding
    /// `(destination slot, message)` in send order.
    Buckets(Vec<Vec<(u32, M)>>),
}

/// A sender's folded mailbox: one cell per *global* vertex id, so that a
/// send is a presence-bit test and an update of `vals[target]` — the route
/// table (8 B per vertex, past the L2 and the TLB's reach on a large graph)
/// is read once per touched target, not once per message.
pub(crate) struct FoldedOutbox<M> {
    pub(crate) combine: Combiner<M>,
    /// The fold of this superstep's messages to vertex `v`, where
    /// `present` says so. Empty until the worker's first send, then one
    /// cell per vertex of the graph.
    pub(crate) vals: Vec<M>,
    /// One bit per global vertex id.
    pub(crate) present: Vec<u64>,
    /// Per destination worker, `(vertex, destination slot)` of every target
    /// in first-send order: what delivery walks, and what
    /// [`Outbox::reset`] walks to clear `present`.
    pub(crate) touched: Vec<Vec<(VertexId, u32)>>,
}

impl<M: Clone> Outbox<M> {
    /// An empty outbox of one of `workers` senders over `num_vertices`
    /// vertices.
    pub(crate) fn new(combiner: Option<Combiner<M>>, num_vertices: usize, workers: usize) -> Self {
        match combiner {
            Some(combine) => Outbox::Folded(FoldedOutbox {
                combine,
                vals: Vec::new(),
                present: vec![0; num_vertices.div_ceil(64)],
                touched: vec![Vec::new(); workers],
            }),
            None => Outbox::Buckets(vec![Vec::new(); workers]),
        }
    }

    /// Forgets the mail of the last superstep, at a cost proportional to
    /// the targets it touched.
    pub(crate) fn reset(&mut self) {
        match self {
            Outbox::Folded(f) => {
                for list in &mut f.touched {
                    for &(v, _) in list.iter() {
                        f.present[v as usize / 64] &= !(1 << (v % 64));
                    }
                    list.clear();
                }
            }
            // Delivery drained them in the `step` that filled them.
            Outbox::Buckets(_) => {}
        }
    }

    /// Sends `msg` to each of `targets`, in order.
    fn send_all(&mut self, route: &[u64], targets: &[VertexId], msg: &M) {
        match self {
            Outbox::Folded(f) => {
                if f.vals.is_empty() && !targets.is_empty() {
                    f.vals.resize(route.len(), msg.clone());
                }
                // Slices and the fn pointer in locals: one loop over the
                // slab with nothing reloaded through `f` per message.
                let (vals, present, combine) = (&mut f.vals[..], &mut f.present[..], f.combine);
                for &target in targets {
                    let t = target as usize;
                    let (word, bit) = (t / 64, 1u64 << (t % 64));
                    if present[word] & bit != 0 {
                        vals[t] = combine(&vals[t], msg);
                    } else {
                        present[word] |= bit;
                        vals[t] = msg.clone();
                        let r = route[t];
                        f.touched[(r >> 32) as usize].push((target, r as u32));
                    }
                }
            }
            Outbox::Buckets(buckets) => {
                for &target in targets {
                    let r = route[target as usize];
                    buckets[(r >> 32) as usize].push((r as u32, msg.clone()));
                }
            }
        }
    }
}

/// Everything a vertex sees during `compute`: its state, the graph, the
/// previous superstep's aggregates, and sinks for messages and halting.
///
/// Messages are routed as they are sent, into the worker's [`Outbox`]: a
/// program with a combiner folds each message into the cell of its target
/// vertex (per sender in send order — ascending slot, then adjacency
/// order); a program without one appends `(destination slot, message)` to
/// the bucket of the target's worker.
pub struct ComputeContext<'a, V, M> {
    /// The vertex being computed.
    pub vertex: VertexId,
    /// Current superstep number (0-based).
    pub superstep: usize,
    /// The shared immutable graph.
    pub graph: &'a Graph,
    /// Aggregates written during the previous superstep.
    pub prev_aggregates: &'a Aggregates,
    pub(crate) value: &'a mut V,
    pub(crate) halted: &'a mut bool,
    pub(crate) outbox: &'a mut Outbox<M>,
    /// Packed vertex → (worker, slot) routing table.
    pub(crate) route: &'a [u64],
    /// The worker computing this vertex.
    pub(crate) self_worker: u32,
    /// How many of this vertex's neighbors live on another worker.
    pub(crate) remote_degree: u32,
    /// Logical messages emitted (counted before combining).
    pub(crate) sent: &'a mut u64,
    /// Logical messages addressed to another worker.
    pub(crate) remote: &'a mut u64,
    pub(crate) next_aggregates: &'a mut Aggregates,
}

impl<'a, V, M: Clone> ComputeContext<'a, V, M> {
    /// The vertex's mutable value.
    pub fn value(&mut self) -> &mut V {
        self.value
    }

    /// Read-only access to the vertex's value.
    pub fn value_ref(&self) -> &V {
        self.value
    }

    /// The vertex's out-neighbors.
    pub fn neighbors(&self) -> &'a [VertexId] {
        self.graph.neighbors(self.vertex)
    }

    /// Out-degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.vertex)
    }

    /// Sends `msg` to `target`, to be delivered next superstep.
    pub fn send(&mut self, target: VertexId, msg: M) {
        *self.sent += 1;
        let dest = (self.route[target as usize] >> 32) as u32;
        *self.remote += u64::from(dest != self.self_worker);
        self.outbox
            .send_all(self.route, std::slice::from_ref(&target), &msg);
    }

    /// Sends `msg` to every neighbor.
    ///
    /// The engine's hottest send path: one pass over the adjacency list,
    /// with the remote count taken from the vertex's precomputed remote
    /// degree instead of an owner lookup per neighbor.
    pub fn send_to_neighbors(&mut self, msg: M) {
        let neighbors = self.neighbors();
        *self.sent += neighbors.len() as u64;
        *self.remote += u64::from(self.remote_degree);
        self.outbox.send_all(self.route, neighbors, &msg);
    }

    /// Votes to halt; the vertex is reactivated by incoming messages.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Contributes to a sum aggregate visible next superstep.
    pub fn aggregate_sum(&mut self, name: &str, v: f64) {
        self.next_aggregates.add_sum(name, v);
    }

    /// Contributes to a max aggregate visible next superstep.
    pub fn aggregate_max(&mut self, name: &str, v: f64) {
        self.next_aggregates.add_max(name, v);
    }
}

/// A vertex-centric program.
///
/// `Value` is the per-vertex state; `Message` is what vertices exchange.
/// Both have a wire form ([`Codec`]) so the engine can checkpoint mid-run.
pub trait VertexProgram: Send + Sync {
    /// Per-vertex state.
    type Value: Clone + Send + Sync + Codec;
    /// Inter-vertex message.
    type Message: Clone + Send + Sync + Codec;

    /// Initial value of `vertex` (superstep 0 sees these).
    fn init(&self, vertex: VertexId, graph: &Graph) -> Self::Value;

    /// The per-superstep vertex kernel.
    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, Self::Value, Self::Message>,
        messages: &[Self::Message],
    );

    /// Optional message combiner (Pregel combiners). A program that
    /// declares one never sees more than one message per vertex and
    /// superstep, and the engine keeps its mail in flat per-vertex cells
    /// instead of lists. The fold order is fixed — per sender in send
    /// order, then across senders in worker order — so results do not
    /// depend on threading.
    fn combiner(&self) -> Option<Combiner<Self::Message>> {
        None
    }

    /// Human-readable program name.
    fn name(&self) -> &'static str {
        "vertex-program"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_and_max() {
        let mut a = Aggregates::new();
        a.add_sum("x", 1.0);
        a.add_sum("x", 2.0);
        a.add_max("m", 5.0);
        a.add_max("m", 3.0);
        assert_eq!(a.sum("x"), 3.0);
        assert_eq!(a.max("m"), 5.0);
        assert_eq!(a.sum("missing"), 0.0);
        assert_eq!(a.max("missing"), f64::NEG_INFINITY);
    }

    #[test]
    fn aggregates_merge() {
        let mut a = Aggregates::new();
        a.add_sum("x", 1.0);
        a.add_max("m", 1.0);
        let mut b = Aggregates::new();
        b.add_sum("x", 2.0);
        b.add_max("m", 9.0);
        a.merge(&b);
        assert_eq!(a.sum("x"), 3.0);
        assert_eq!(a.max("m"), 9.0);
    }

    #[test]
    fn routes_pack_and_unpack() {
        // Workers 0 and 1 own the even and odd vertices respectively.
        let members = vec![vec![0u32, 2], vec![1, 3]];
        let route = build_routes(4, &members);
        assert_eq!(route[0], pack_route(0, 0));
        assert_eq!(route[2], pack_route(0, 1));
        assert_eq!(route[1], pack_route(1, 0));
        assert_eq!(route[3], pack_route(1, 1));
    }

    #[test]
    fn aggregates_keep_the_entry_arithmetic() {
        // What `entry(name.to_string()).or_insert(..)` computed, allocation
        // and all: the lookup-first path must agree to the bit.
        let old_sum = |vs: &[f64]| {
            let mut m: HashMap<String, f64> = HashMap::new();
            for &v in vs {
                *m.entry("x".to_string()).or_insert(0.0) += v;
            }
            m["x"].to_bits()
        };
        let old_max = |vs: &[f64]| {
            let mut m: HashMap<String, f64> = HashMap::new();
            for &v in vs {
                let e = m.entry("x".to_string()).or_insert(f64::NEG_INFINITY);
                if v > *e {
                    *e = v;
                }
            }
            m["x"].to_bits()
        };
        let samples = [0.0, -0.0, 1.5, f64::NAN, f64::NEG_INFINITY];
        for first in samples {
            for later in samples {
                for vs in [&[first][..], &[first, later]] {
                    let mut a = Aggregates::new();
                    for &v in vs {
                        a.add_sum("x", v);
                        a.add_max("x", v);
                    }
                    assert_eq!(a.sum("x").to_bits(), old_sum(vs), "sum of {vs:?}");
                    assert_eq!(a.max("x").to_bits(), old_max(vs), "max of {vs:?}");
                }
            }
        }
    }

    /// Vertex 0 of the path 0–1 on worker 0 of two (worker 0 owns {0, 2} at
    /// slots 0 and 1, worker 1 owns {1, 3}) sends 7 → 2, 3 → 1, 9 → 1,
    /// 1 → 3 and then 5 to its neighbor; returns `(sent, remote)`.
    fn send_from_vertex_0(outbox: &mut Outbox<u32>) -> (u64, u64) {
        let mut graph_builder = hourglass_graph::GraphBuilder::undirected(4);
        graph_builder.add_edge(0, 1);
        let graph = graph_builder.build().expect("build");
        let route = build_routes(4, &[vec![0, 2], vec![1, 3]]);
        let mut value = 0u32;
        let mut halted = false;
        let mut next_aggregates = Aggregates::new();
        let (mut sent, mut remote) = (0u64, 0u64);
        let prev = Aggregates::new();
        let mut ctx: ComputeContext<'_, u32, u32> = ComputeContext {
            vertex: 0,
            superstep: 0,
            graph: &graph,
            prev_aggregates: &prev,
            value: &mut value,
            halted: &mut halted,
            outbox,
            route: &route,
            self_worker: 0,
            remote_degree: 1,
            sent: &mut sent,
            remote: &mut remote,
            next_aggregates: &mut next_aggregates,
        };
        ctx.send(2, 7); // local → worker 0 slot 1
        ctx.send(1, 3); // remote → worker 1 slot 0
        ctx.send(1, 9); // remote, same target
        ctx.send(3, 1); // remote → worker 1 slot 1
        ctx.send_to_neighbors(5); // vertex 1 again, counted by remote degree
        (sent, remote)
    }

    #[test]
    fn bucket_sends_route_and_count() {
        let mut outbox = Outbox::new(None, 4, 2);
        let counts = send_from_vertex_0(&mut outbox);
        assert_eq!(counts, (5, 4), "logical sends; those that left worker 0");
        let Outbox::Buckets(buckets) = &outbox else {
            panic!("no combiner, so buckets");
        };
        assert_eq!(buckets[0], vec![(1, 7)]);
        assert_eq!(buckets[1], vec![(0, 3), (0, 9), (1, 1), (0, 5)]);
    }

    #[test]
    fn folded_sends_keep_one_cell_per_target() {
        let mut outbox = Outbox::new(Some(|a: &u32, b: &u32| *a.max(b)), 4, 2);
        let Outbox::Folded(f) = &outbox else {
            panic!("a combiner, so folded");
        };
        assert!(f.vals.is_empty(), "no slab before the first send");
        let counts = send_from_vertex_0(&mut outbox);
        assert_eq!(counts, (5, 4), "counted before folding");
        let Outbox::Folded(f) = &outbox else {
            unreachable!()
        };
        // One route lookup per touched target, in first-send order.
        assert_eq!(f.touched, [vec![(2, 1)], vec![(1, 0), (3, 1)]]);
        assert_eq!(f.present, [0b1110]);
        assert_eq!(f.vals[1..], [9, 7, 1]);

        outbox.reset();
        let Outbox::Folded(f) = &outbox else {
            unreachable!()
        };
        assert_eq!(f.present, [0]);
        assert!(f.touched.iter().all(Vec::is_empty));
    }
}
