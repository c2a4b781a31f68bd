//! The BSP master: superstep orchestration, message delivery, halting.
//!
//! State is laid out worker-major and stays put for the whole run: vertex
//! values and halt flags live in one slab per worker, indexed by a
//! `(worker, slot)` pair derived once from the partitioning. Each
//! superstep the workers operate on `&mut` disjoint slabs — nothing is
//! cloned in or out. Compute empties every inbox cell it reads, so
//! delivery refills the same inboxes after the join.
//!
//! Mail comes in two kinds, chosen by whether the program declares a
//! combiner. With one, mailboxes are *folded*: every sender keeps one
//! combined message per target vertex (a slab indexed by global vertex id,
//! a presence bitmap and, per destination worker, the list of targets in
//! first-send order), every receiver one per slot, and delivery for a
//! destination walks the senders' lists in worker order through a shared
//! borrow — nothing is transposed, nothing allocated per vertex, and the
//! cost follows the touched targets. A cell folds per sender in send order
//! (ascending slot, then adjacency order), then across senders in worker
//! order. Without a combiner, messages are bucketed per destination worker
//! at send time, the exchange is a matrix transpose of pointer swaps, and
//! inbox cells are lists.
//!
//! Which vertices run is one bit per slot, double-buffered: a superstep
//! walks the set bits of the current bitmap in slot order and builds the
//! next one (a vertex that stayed awake, a cell that got its first
//! message), so its cost follows the frontier, not the slab, and
//! termination is "no word set".

use crate::metrics::{RunMetrics, SuperstepMetrics};
use crate::program::{Aggregates, Combiner, ComputeContext, Outbox, VertexProgram};
use crate::{EngineError, Result};
use hourglass_exec::{fork_join, Pool};
use hourglass_graph::{Graph, VertexId};
use hourglass_obs as obs;
use hourglass_partition::Partitioning;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Hard cap on supersteps (a convergence backstop).
    pub max_supersteps: usize,
    /// Execute the workers of a superstep in parallel, one partition per
    /// thread, instead of one after the other on the calling thread. With
    /// two or more workers the engine then owns a [`Pool`] of `k − 1`
    /// threads from `new` until it is dropped (the calling thread is the
    /// `k`-th), so a superstep hands its tasks over and spawns nothing.
    /// Results are identical; only wall time differs.
    pub parallel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_supersteps: 10_000,
            parallel: true,
        }
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Whether every vertex halted with no pending messages.
    pub converged: bool,
    /// Total messages sent: logical sends, counted before combining.
    pub total_messages: u64,
    /// Messages whose source and target lived on different workers.
    pub remote_messages: u64,
    /// Wall-clock seconds of the compute phase.
    pub wall_seconds: f64,
    /// Per-superstep detail.
    pub metrics: RunMetrics,
}

/// Engine state written by [`BspEngine::checkpoint_state`]; its wire form is
/// the `HGC1` payload of [`crate::checkpoint`].
///
/// Everything is stored in global vertex order, independent of the worker
/// count that produced it — that is what lets a checkpoint written on `k`
/// workers restore onto `k'` workers (the fast-reload scenario, §6.2) — and
/// flat: slabs and bitmaps, no heap cell per vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint<V, M> {
    /// Superstep the engine will execute next.
    pub superstep: usize,
    /// Per-vertex values, in global vertex order.
    pub values: Vec<V>,
    /// Bit `v` (of word `v / 64`) is set when vertex `v` has voted to halt.
    pub halted: Vec<u64>,
    /// Per-vertex inboxes for the next superstep.
    pub mail: Mail<M>,
    /// Aggregates produced by the last executed superstep.
    pub prev_aggregates: Aggregates,
}

/// The pending mail of a checkpoint: a presence bitmap and the cells of the
/// vertices that have mail, concatenated in ascending vertex order.
#[derive(Debug, Clone, PartialEq)]
pub struct Mail<M> {
    /// Bit `v` (of word `v / 64`) is set when vertex `v` has mail.
    pub has: Vec<u64>,
    /// The messages of those vertices, cell after cell.
    pub msgs: Vec<M>,
    /// The length of each of those cells, none of them 0. `None` when every
    /// cell holds exactly one message: what a program with a combiner
    /// writes.
    pub counts: Option<Vec<u32>>,
}

impl<M> Mail<M> {
    /// `(vertex, cell)` of every vertex with mail, in ascending order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &[M])> {
        let mut rest = &self.msgs[..];
        set_bits(&self.has).enumerate().map(move |(i, v)| {
            let len = self.counts.as_ref().map_or(1, |c| c[i] as usize);
            let (cell, tail) = rest.split_at(len);
            rest = tail;
            (v, cell)
        })
    }

    /// Whether bitmap, counts and messages describe the same cells over
    /// `n` vertices.
    fn is_consistent(&self, n: usize) -> bool {
        let cells = self.has.iter().map(|w| w.count_ones() as usize).sum();
        is_bitmap_of(&self.has, n)
            && match &self.counts {
                None => self.msgs.len() == cells,
                Some(counts) => {
                    counts.len() == cells
                        && !counts.contains(&0)
                        && counts.iter().map(|&c| c as u64).sum::<u64>() == self.msgs.len() as u64
                }
            }
    }
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i * 64 + bit
            })
        })
    })
}

/// Whether `words` is a bitmap over exactly `n` positions: the right word
/// count, no bit at or past `n`.
pub(crate) fn is_bitmap_of(words: &[u64], n: usize) -> bool {
    words.len() == n.div_ceil(64) && (n.is_multiple_of(64) || words[n / 64] >> (n % 64) == 0)
}

/// One outgoing bucket: slot-addressed messages for a single destination
/// worker.
type Bucket<M> = Vec<(u32, M)>;

/// One worker's incoming mail; the kind matches the run's [`Outbox`]es.
#[derive(Clone)]
enum Inbox<M> {
    /// At most one folded message per slot: `vals[slot]` is mail exactly
    /// when bit `slot` of `has` is set. `vals` is empty until the worker's
    /// first delivery, then covers every bit of `has`.
    Folded {
        combine: Combiner<M>,
        vals: Vec<M>,
        has: Vec<u64>,
    },
    /// A list per slot, in delivery order.
    Lists(Vec<Vec<M>>),
}

impl<M: Clone> Inbox<M> {
    fn new(combiner: Option<Combiner<M>>, slots: usize) -> Self {
        match combiner {
            Some(combine) => Inbox::Folded {
                combine,
                vals: Vec::new(),
                has: vec![0; slots.div_ceil(64)],
            },
            None => Inbox::Lists(vec![Vec::new(); slots]),
        }
    }

    /// The messages waiting for `slot`.
    fn mail(&self, slot: usize) -> &[M] {
        match self {
            Inbox::Folded { vals, has, .. } if has[slot / 64] >> (slot % 64) & 1 == 1 => {
                std::slice::from_ref(&vals[slot])
            }
            Inbox::Folded { .. } => &[],
            Inbox::Lists(cells) => &cells[slot],
        }
    }

    /// Adds `msg` to the cell of `slot`; `true` when the cell was empty.
    fn put(&mut self, slot: usize, msg: M) -> bool {
        match self {
            Inbox::Folded { combine, vals, has } => {
                let (word, bit) = (slot / 64, 1u64 << (slot % 64));
                let empty = has[word] & bit == 0;
                if empty {
                    if vals.is_empty() {
                        vals.resize(has.len() * 64, msg.clone());
                    }
                    has[word] |= bit;
                    vals[slot] = msg;
                } else {
                    vals[slot] = combine(&vals[slot], &msg);
                }
                empty
            }
            Inbox::Lists(cells) => {
                cells[slot].push(msg);
                cells[slot].len() == 1
            }
        }
    }

    /// Empties the cell of `slot` (list cells keep their capacity).
    fn clear(&mut self, slot: usize) {
        match self {
            Inbox::Folded { has, .. } => has[slot / 64] &= !(1 << (slot % 64)),
            Inbox::Lists(cells) => cells[slot].clear(),
        }
    }

    fn clear_all(&mut self) {
        match self {
            Inbox::Folded { has, .. } => has.fill(0),
            Inbox::Lists(cells) => cells.iter_mut().for_each(Vec::clear),
        }
    }
}

/// A Pregel-style synchronous engine over a shared immutable graph.
pub struct BspEngine<'g, P: VertexProgram> {
    program: P,
    graph: &'g Graph,
    partitioning: Partitioning,
    config: EngineConfig,
    /// Per-worker vertex lists (fixed for the run).
    members: Vec<Vec<VertexId>>,
    /// Packed global vertex id → (worker, slot) routing table; one read
    /// resolves both destination worker and inbox slot.
    route: Vec<u64>,
    /// Worker-major vertex values: `values[worker][slot]`.
    values: Vec<Vec<P::Value>>,
    /// Worker-major halt flags.
    halted: Vec<Vec<bool>>,
    /// Neighbors of `members[worker][slot]` owned by another worker: what a
    /// `send_to_neighbors` adds to the remote-message count. Derived from
    /// graph and partitioning, so never checkpointed.
    remote_degree: Vec<Vec<u32>>,
    /// Per-worker inboxes: read and emptied by compute, refilled by
    /// delivery.
    inbox: Vec<Inbox<P::Message>>,
    /// Vertices that run this superstep, one bit per slot
    /// (`active[worker][slot / 64] >> (slot % 64)`). Between steps a bit is
    /// set exactly when the vertex has not voted to halt or has mail:
    /// derived from `halted` and `inbox`, so never checkpointed.
    active: Vec<Vec<u64>>,
    /// The bitmap compute and delivery fill for the next superstep; swapped
    /// with `active` at the barrier. All zero between steps: the kernel
    /// clears each word of `active` as it consumes it.
    active_next: Vec<Vec<u64>>,
    /// Per-source outgoing mail. Folded outboxes keep a superstep's mail
    /// until their worker's next compute resets them.
    outboxes: Vec<Outbox<P::Message>>,
    /// Transposed buckets awaiting delivery: `delivery[dest][src]`. The
    /// cells ping-pong with the bucket outboxes via `mem::swap`, so bucket
    /// capacity is reused across supersteps; unused by folded mail.
    delivery: Vec<Vec<Bucket<P::Message>>>,
    superstep: usize,
    prev_aggregates: Aggregates,
    metrics: RunMetrics,
    /// The threads both phases of a superstep run on; `None` for a
    /// sequential engine, which creates no thread.
    pool: Option<Pool>,
}

/// What one worker reports back from a superstep's compute phase.
struct WorkerOut {
    aggregates: Aggregates,
    active: u64,
    sent: u64,
    remote: u64,
    compute_seconds: f64,
    /// Tracing tick at which the worker finished compute (0 when no
    /// collector is installed); lets the master synthesize per-worker
    /// barrier-wait spans from here to the slowest worker's finish.
    end_ns: u64,
}

impl<'g, P: VertexProgram> BspEngine<'g, P> {
    /// Creates an engine; vertex values are initialized via
    /// [`VertexProgram::init`] and every vertex starts active.
    pub fn new(
        program: P,
        graph: &'g Graph,
        partitioning: Partitioning,
        config: EngineConfig,
    ) -> Result<Self> {
        if partitioning.num_vertices() != graph.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "partitioning covers {} vertices, graph has {}",
                partitioning.num_vertices(),
                graph.num_vertices()
            )));
        }
        let members = partitioning.members();
        let route = crate::program::build_routes(graph.num_vertices(), &members);
        let w = members.len();
        let values = members
            .iter()
            .map(|ws| ws.iter().map(|&v| program.init(v, graph)).collect())
            .collect();
        let halted = members.iter().map(|ws| vec![false; ws.len()]).collect();
        let combiner = program.combiner();
        let n = graph.num_vertices();
        let remote_degree = members
            .iter()
            .map(|ws| {
                // One bit per vertex, "is it this worker's": an O(edges)
                // pass of random reads that stay in cache, where the owner
                // table (4 B per vertex) would not.
                let mut mine = vec![0u64; n.div_ceil(64)];
                for &v in ws {
                    mine[v as usize / 64] |= 1 << (v % 64);
                }
                let is_remote = |&&t: &&VertexId| mine[t as usize / 64] >> (t % 64) & 1 == 0;
                ws.iter()
                    .map(|&v| graph.neighbors(v).iter().filter(is_remote).count() as u32)
                    .collect()
            })
            .collect();
        let empty_bitmaps = || -> Vec<Vec<u64>> {
            members
                .iter()
                .map(|ws| vec![0; ws.len().div_ceil(64)])
                .collect()
        };
        let mut engine = BspEngine {
            program,
            graph,
            config,
            values,
            halted,
            remote_degree,
            inbox: members
                .iter()
                .map(|ws| Inbox::new(combiner, ws.len()))
                .collect(),
            active: empty_bitmaps(),
            active_next: empty_bitmaps(),
            outboxes: (0..w).map(|_| Outbox::new(combiner, n, w)).collect(),
            delivery: vec![vec![Vec::new(); w]; w],
            members,
            route,
            partitioning,
            superstep: 0,
            prev_aggregates: Aggregates::new(),
            metrics: RunMetrics::default(),
            pool: (config.parallel && w >= 2).then(|| Pool::new(w)),
        };
        engine.rebuild_active();
        Ok(engine)
    }

    /// Derives `active` from `halted` and `inbox`. The only O(n) pass over
    /// the bitmap's inputs: construction and state loads call it, `step`
    /// maintains the bits incrementally.
    fn rebuild_active(&mut self) {
        for ((bits, hs), inbox) in self.active.iter_mut().zip(&self.halted).zip(&self.inbox) {
            bits.fill(0);
            for (slot, &h) in hs.iter().enumerate() {
                if !h || !inbox.mail(slot).is_empty() {
                    bits[slot / 64] |= 1 << (slot % 64);
                }
            }
        }
    }

    /// The superstep the engine will execute next.
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// The partitioning the engine was built with.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Per-vertex values gathered into global vertex order (the engine
    /// stores them worker-major, so this clones; call once per run, not
    /// per superstep).
    pub fn values(&self) -> Vec<P::Value> {
        self.route
            .iter()
            .map(|&r| self.values[(r >> 32) as usize][r as u32 as usize].clone())
            .collect()
    }

    /// Consumes the engine, returning the per-vertex values in global
    /// vertex order (no clones).
    pub fn into_values(self) -> Vec<P::Value> {
        // Everything else the engine holds — mail slabs, route table, pool —
        // goes before the output is built, not after: with a pool the
        // calling thread owns the last worker's lazily sized slabs, and an
        // output stacked on top of them grew its heap for good (measured:
        // `frontier_sssp/peak_rss_mib` 194 → 200).
        let (members, values, n) = {
            let engine = self;
            (engine.members, engine.values, engine.graph.num_vertices())
        };
        let mut out: Vec<Option<P::Value>> = (0..n).map(|_| None).collect();
        for (ws, vals) in members.iter().zip(values) {
            for (&v, val) in ws.iter().zip(vals) {
                out[v as usize] = Some(val);
            }
        }
        out.into_iter()
            .map(|v| v.expect("every vertex belongs to a worker"))
            .collect()
    }

    /// Aggregates produced by the most recent superstep.
    pub fn aggregates(&self) -> &Aggregates {
        &self.prev_aggregates
    }

    /// Per-superstep metrics recorded so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Whether every vertex has halted and no messages are pending.
    pub fn is_done(&self) -> bool {
        self.active.iter().all(|bits| bits.iter().all(|&w| w == 0))
    }

    /// Executes one superstep; returns `true` when the computation is done.
    pub fn step(&mut self) -> Result<bool> {
        if self.is_done() {
            return Ok(true);
        }
        let w = self.members.len();
        let _step_span = obs::span("superstep", "engine")
            .arg("superstep", self.superstep as u64)
            .arg("workers", w as u64);

        // Compute phase: one task per worker, each owning its slab of
        // values/halt flags, its inbox (emptied in place) and its outbox.
        // The sequential path runs the same closures in worker order, so
        // both paths are behaviorally identical.
        let program = &self.program;
        let graph = self.graph;
        let prev = &self.prev_aggregates;
        let superstep = self.superstep;
        let route = &self.route;
        let tasks: Vec<_> = self
            .members
            .iter()
            .zip(self.values.iter_mut())
            .zip(self.halted.iter_mut())
            .zip(&self.remote_degree)
            .zip(self.inbox.iter_mut())
            .zip(self.active.iter_mut())
            .zip(self.active_next.iter_mut())
            .zip(self.outboxes.iter_mut())
            .enumerate()
            .map(
                |(worker, (((((((ws, vals), hs), rd), inbox), active), active_next), outbox))| {
                    move || {
                        run_worker_slab::<P>(
                            worker as u32,
                            ws,
                            vals,
                            hs,
                            rd,
                            inbox,
                            active,
                            active_next,
                            outbox,
                            program,
                            graph,
                            prev,
                            superstep,
                            route,
                        )
                    }
                },
            )
            .collect();
        let outs = run_phase(&mut self.pool, tasks);

        // The barrier wait is implicit in the join above: every worker
        // idles from its own finish until the slowest one's. Reconstruct
        // it per worker from the recorded end ticks.
        if obs::enabled() {
            let max_end = outs.iter().map(|o| o.end_ns).max().unwrap_or(0);
            for (worker, out) in outs.iter().enumerate() {
                if out.end_ns > 0 && max_end > out.end_ns {
                    obs::record(obs::SpanRecord {
                        name: "barrier_wait",
                        cat: "engine",
                        track: worker as u32,
                        start_ns: out.end_ns,
                        end_ns: max_end,
                        kind: obs::RecordKind::Span,
                        args: obs::Args::new(),
                    });
                }
            }
        }

        // Exchange phase: bucket outboxes are transposed with pointer swaps
        // (outboxes[src][dest] ↔ delivery[dest][src]), folded ones are read
        // in place; then every destination takes its mail from the sources
        // in worker order, in parallel, into the inboxes compute emptied.
        let t_delivery = Instant::now();
        if program.combiner().is_none() {
            let _transpose_span = obs::span("transpose", "engine");
            for (src, outbox) in self.outboxes.iter_mut().enumerate() {
                let Outbox::Buckets(buckets) = outbox else {
                    continue;
                };
                for (dest, bucket) in buckets.iter_mut().enumerate() {
                    std::mem::swap(bucket, &mut self.delivery[dest][src]);
                }
            }
        }
        let outboxes = &self.outboxes;
        let delivery_tasks: Vec<_> = self
            .delivery
            .iter_mut()
            .zip(self.inbox.iter_mut())
            .zip(self.active_next.iter_mut())
            .enumerate()
            .map(|(dest, ((rows, inbox), active_next))| {
                move || {
                    let span = obs::span("deliver", "engine")
                        .arg("worker", dest as u64)
                        .arg("superstep", superstep as u64);
                    let touched = deliver_worker(dest, outboxes, rows, inbox, active_next);
                    drop(span.arg("touched", touched));
                }
            })
            .collect();
        run_phase(&mut self.pool, delivery_tasks);

        // Barrier: the bitmap compute and delivery filled becomes current.
        std::mem::swap(&mut self.active, &mut self.active_next);
        let delivery_seconds = t_delivery.elapsed().as_secs_f64();

        let mut next_aggregates = Aggregates::new();
        let mut active = 0u64;
        let mut total_messages = 0u64;
        let mut remote_messages = 0u64;
        let mut max_worker_seconds = 0.0f64;
        let mut total_worker_seconds = 0.0f64;
        for out in &outs {
            active += out.active;
            total_messages += out.sent;
            remote_messages += out.remote;
            max_worker_seconds = max_worker_seconds.max(out.compute_seconds);
            total_worker_seconds += out.compute_seconds;
            next_aggregates.merge(&out.aggregates);
        }
        // Aggregate CPU lost to compute skew: each worker idles at the
        // barrier for the gap between its own compute time and the max.
        let barrier_wait_seconds = outs
            .iter()
            .map(|o| max_worker_seconds - o.compute_seconds)
            .sum::<f64>()
            .max(0.0);
        obs::counter("messages", "engine", total_messages);
        let step_metrics = SuperstepMetrics {
            superstep: self.superstep,
            active_vertices: active,
            messages: total_messages,
            remote_messages,
            max_worker_seconds,
            total_worker_seconds,
            delivery_seconds,
            barrier_wait_seconds,
        };
        crate::metrics::record_superstep(&step_metrics);
        self.metrics.push(step_metrics);
        self.prev_aggregates = next_aggregates;
        self.superstep += 1;
        Ok(self.is_done())
    }

    /// Runs to completion (or the superstep cap).
    pub fn run(&mut self) -> Result<ExecutionReport> {
        let t0 = Instant::now();
        let mut converged = self.is_done();
        while !converged && self.superstep < self.config.max_supersteps {
            converged = self.step()?;
        }
        if !converged {
            return Err(EngineError::DidNotConverge {
                max_supersteps: self.config.max_supersteps,
            });
        }
        Ok(ExecutionReport {
            supersteps: self.superstep,
            converged,
            total_messages: self.metrics.total_messages(),
            remote_messages: self.metrics.total_remote_messages(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            metrics: self.metrics.clone(),
        })
    }

    /// Captures the engine state for checkpointing, gathered into global
    /// vertex order so the checkpoint is portable across worker counts.
    pub fn checkpoint_state(&self) -> EngineCheckpoint<P::Value, P::Message> {
        let _span = obs::span("checkpoint_save", "ckpt")
            .arg("superstep", self.superstep as u64)
            .arg("vertices", self.graph.num_vertices() as u64);
        let n = self.graph.num_vertices();
        let mut values = Vec::with_capacity(n);
        let mut halted = vec![0u64; n.div_ceil(64)];
        let mut mail = Mail {
            has: vec![0u64; n.div_ceil(64)],
            msgs: Vec::new(),
            counts: self.program.combiner().is_none().then(Vec::new),
        };
        for (v, &r) in self.route.iter().enumerate() {
            let (w, s) = ((r >> 32) as usize, r as u32 as usize);
            values.push(self.values[w][s].clone());
            halted[v / 64] |= u64::from(self.halted[w][s]) << (v % 64);
            let cell = self.inbox[w].mail(s);
            if !cell.is_empty() {
                mail.has[v / 64] |= 1 << (v % 64);
                mail.msgs.extend_from_slice(cell);
                if let Some(counts) = &mut mail.counts {
                    counts.push(u32::try_from(cell.len()).expect("a cell of under 2^32 messages"));
                }
            }
        }
        EngineCheckpoint {
            superstep: self.superstep,
            values,
            halted,
            mail,
            prev_aggregates: self.prev_aggregates.clone(),
        }
    }

    /// Decodes an `HGC1` payload into a checkpoint this engine can restore:
    /// one over its graph's vertex count, with the mail kind its program
    /// writes.
    pub fn decode_checkpoint(
        &self,
        payload: &[u8],
    ) -> Result<EngineCheckpoint<P::Value, P::Message>> {
        let folded = self.program.combiner().is_some();
        EngineCheckpoint::decode(payload, self.graph.num_vertices(), folded)
    }

    /// Restores engine state from a checkpoint (graph and partitioning must
    /// match the original run; the partitioning may differ in worker count
    /// — that is exactly the fast-reload scenario). A cell of several
    /// messages restores, under a combiner, as their fold.
    pub fn restore_state(&mut self, ckpt: EngineCheckpoint<P::Value, P::Message>) -> Result<()> {
        let _span = obs::span("checkpoint_restore", "ckpt")
            .arg("superstep", ckpt.superstep as u64)
            .arg("vertices", ckpt.values.len() as u64);
        let n = self.graph.num_vertices();
        if ckpt.values.len() != n {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint covers {} vertices, graph has {n}",
                ckpt.values.len()
            )));
        }
        if !is_bitmap_of(&ckpt.halted, n) || !ckpt.mail.is_consistent(n) {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint bitmaps and mail do not describe {n} vertices"
            )));
        }
        self.superstep = ckpt.superstep;
        self.clear_mail();
        let scatter = |v: usize| {
            let r = self.route[v];
            ((r >> 32) as usize, r as u32 as usize)
        };
        for (v, val) in ckpt.values.into_iter().enumerate() {
            let (w, s) = scatter(v);
            self.values[w][s] = val;
            self.halted[w][s] = ckpt.halted[v / 64] >> (v % 64) & 1 == 1;
        }
        for (v, cell) in ckpt.mail.cells() {
            let (w, s) = scatter(v);
            for msg in cell {
                self.inbox[w].put(s, msg.clone());
            }
        }
        self.prev_aggregates = ckpt.prev_aggregates;
        self.finish_state_load();
        Ok(())
    }

    /// Drops the mail of the pre-load execution before a state load fills
    /// the inboxes: what was delivered, and what folded outboxes still hold
    /// of their last superstep (bucket mail never outlives its `step`).
    fn clear_mail(&mut self) {
        self.inbox.iter_mut().for_each(Inbox::clear_all);
        self.outboxes.iter_mut().for_each(Outbox::reset);
    }

    /// The common tail of [`Self::restore_state`] and
    /// [`Self::adopt_state_from`], once `halted` and `inbox` hold the loaded
    /// state.
    fn finish_state_load(&mut self) {
        // Re-derive who runs next from the loaded halt flags and mail…
        self.rebuild_active();
        // …and drop the metrics of supersteps the resumed run will
        // re-execute, so totals are not double-counted.
        self.metrics.truncate_to_superstep(self.superstep);
    }

    /// Adopts the execution state of another engine over the same graph —
    /// the state carry-through of a delta migration: vertex values, halt
    /// flags and pending inboxes move with their vertices instead of being
    /// re-derived from a durable checkpoint. Workers whose member list is
    /// unchanged take the old slabs wholesale; everyone else gathers
    /// per-vertex through the old routing table. The result is
    /// bit-identical to [`Self::checkpoint_state`] on `old` followed by
    /// [`Self::restore_state`] on `self`, without materializing the
    /// global-order checkpoint.
    pub fn adopt_state_from(&mut self, old: &Self) -> Result<()> {
        let n = self.graph.num_vertices();
        if old.graph.num_vertices() != n {
            return Err(EngineError::Checkpoint(format!(
                "adopting state for {} vertices onto a graph with {n}",
                old.graph.num_vertices()
            )));
        }
        let _span = obs::span("delta_adopt", "engine")
            .arg("superstep", old.superstep as u64)
            .arg("vertices", n as u64);
        self.superstep = old.superstep;
        self.prev_aggregates = old.prev_aggregates.clone();
        self.clear_mail();
        for w in 0..self.members.len() {
            if old.members.get(w).is_some_and(|m| *m == self.members[w]) {
                // Same vertex list in the same order: the slabs line up
                // slot for slot.
                self.values[w].clone_from(&old.values[w]);
                self.halted[w].clone_from(&old.halted[w]);
                self.inbox[w].clone_from(&old.inbox[w]);
            } else {
                for (slot, &v) in self.members[w].iter().enumerate() {
                    let r = old.route[v as usize];
                    let (ow, os) = ((r >> 32) as usize, r as u32 as usize);
                    self.values[w][slot] = old.values[ow][os].clone();
                    self.halted[w][slot] = old.halted[ow][os];
                    for msg in old.inbox[ow].mail(os) {
                        self.inbox[w].put(slot, msg.clone());
                    }
                }
            }
        }
        self.finish_state_load();
        Ok(())
    }
}

/// Runs one phase's per-worker tasks: on the engine's pool when it has one,
/// else in worker order on the calling thread. Results in worker order.
fn run_phase<R, F>(pool: &mut Option<Pool>, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    match pool {
        Some(pool) => pool.fork_join(tasks),
        None => fork_join(false, tasks),
    }
}

/// The worker kernel: computes one superstep for the vertices of a single
/// worker whose bit is set in `active`, operating on the worker's own slabs
/// (`vals[slot]`, `halted[slot]`, `remote_degree[slot]` and the inbox cells
/// aligned with `worker_vertices`) and marking in `active_next` those that
/// did not vote to halt. Every cell read is emptied, which leaves the whole
/// inbox empty for delivery.
#[allow(clippy::too_many_arguments)]
fn run_worker_slab<P: VertexProgram>(
    self_worker: u32,
    worker_vertices: &[VertexId],
    vals: &mut [P::Value],
    halted: &mut [bool],
    remote_degree: &[u32],
    inbox: &mut Inbox<P::Message>,
    active: &mut [u64],
    active_next: &mut [u64],
    outbox: &mut Outbox<P::Message>,
    program: &P,
    graph: &Graph,
    prev_aggregates: &Aggregates,
    superstep: usize,
    route: &[u64],
) -> WorkerOut {
    let t0 = Instant::now();
    let span = obs::span("compute", "engine")
        .arg("worker", self_worker as u64)
        .arg("superstep", superstep as u64)
        .arg("vertices", worker_vertices.len() as u64);
    let mut aggregates = Aggregates::new();
    let mut ran = 0u64;
    let mut sent = 0u64;
    let mut remote = 0u64;
    // Delivery has read last superstep's mail.
    outbox.reset();
    // Ascending words, ascending bits within a word: the same slot order a
    // scan of the whole slab would visit, so outbox contents and aggregate
    // fold order do not depend on how the frontier was found. Taking the
    // word leaves this bitmap zeroed for its turn as the next one.
    for (word_index, word) in active.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let slot = word_index * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            halted[slot] = false;
            ran += 1;
            let mut ctx = ComputeContext {
                vertex: worker_vertices[slot],
                superstep,
                graph,
                prev_aggregates,
                value: &mut vals[slot],
                halted: &mut halted[slot],
                outbox,
                route,
                self_worker,
                remote_degree: remote_degree[slot],
                sent: &mut sent,
                remote: &mut remote,
                next_aggregates: &mut aggregates,
            };
            program.compute(&mut ctx, inbox.mail(slot));
            inbox.clear(slot);
            if !halted[slot] {
                active_next[slot / 64] |= 1 << (slot % 64);
            }
        }
    }
    // Frontier size per worker per superstep: the trace shows its skew.
    drop(span.arg("active", ran));
    WorkerOut {
        aggregates,
        active: ran,
        sent,
        remote,
        compute_seconds: t0.elapsed().as_secs_f64(),
        end_ns: obs::now_ns_if_enabled(),
    }
}

/// Delivers one destination worker's mail into its inbox, source by source
/// in worker order: a folded outbox's first-touch list for `dest`, read in
/// place, or the bucket `rows[src]` the transpose handed over, drained. A
/// cell's first message marks its vertex active for the next superstep.
/// Returns the entries walked.
fn deliver_worker<M: Clone>(
    dest: usize,
    outboxes: &[Outbox<M>],
    rows: &mut [Bucket<M>],
    inbox: &mut Inbox<M>,
    active_next: &mut [u64],
) -> u64 {
    let mut touched = 0;
    let mut put = |slot: u32, msg: M| {
        touched += 1;
        if inbox.put(slot as usize, msg) {
            active_next[slot as usize / 64] |= 1 << (slot % 64);
        }
    };
    for (outbox, row) in outboxes.iter().zip(rows) {
        match outbox {
            Outbox::Folded(f) => {
                for &(v, slot) in &f.touched[dest] {
                    put(slot, f.vals[v as usize].clone());
                }
            }
            Outbox::Buckets(_) => row.drain(..).for_each(|(slot, msg)| put(slot, msg)),
        }
    }
    touched
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hourglass_graph::generators;
    use hourglass_partition::{hash::HashPartitioner, Partitioner};

    /// Toy program: every vertex floods its id once, then records the max
    /// id it heard and halts.
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
            } else {
                let best = messages.iter().copied().max().unwrap_or(0);
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

    pub(crate) fn ring(n: usize) -> Graph {
        let mut b = hourglass_graph::GraphBuilder::undirected(n);
        for i in 0..n as u32 {
            b.add_edge(i, (i + 1) % n as u32);
        }
        b.build().expect("build")
    }

    fn engine_on<'g>(g: &'g Graph, k: u32, parallel: bool) -> BspEngine<'g, MaxId> {
        let p = HashPartitioner.partition(g, k).expect("partition");
        BspEngine::new(
            MaxId,
            g,
            p,
            EngineConfig {
                parallel,
                ..EngineConfig::default()
            },
        )
        .expect("engine")
    }

    #[test]
    fn max_id_one_hop() {
        let g = ring(8);
        let mut e = engine_on(&g, 2, false);
        let report = e.run().expect("run");
        assert!(report.converged);
        assert_eq!(report.supersteps, 2);
        // Vertex 0 hears from 1 and 7 → 7.
        assert_eq!(e.values()[0], 7);
        assert_eq!(e.values()[3], 4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::erdos_renyi(300, 900, 5).expect("gen");
        let mut seq = engine_on(&g, 4, false);
        let mut par = engine_on(&g, 4, true);
        seq.run().expect("run");
        par.run().expect("run");
        assert_eq!(seq.values(), par.values());
    }

    #[test]
    fn combiner_reduces_messages() {
        // A star: all leaves message the center in superstep 0.
        let mut b = hourglass_graph::GraphBuilder::undirected(64);
        for v in 1..64 {
            b.add_edge(0, v);
        }
        let g = b.build().expect("build");
        let p = HashPartitioner.partition(&g, 1).expect("partition");
        let mut e = BspEngine::new(MaxId, &g, p, EngineConfig::default()).expect("engine");
        e.run().expect("run");
        // With a single worker and a max-combiner, the center's inbox never
        // held more than one message; it ends with the max leaf id.
        assert_eq!(e.values()[0], 63);
    }

    #[test]
    fn remote_messages_counted() {
        let g = ring(8);
        let mut e = engine_on(&g, 4, false);
        let report = e.run().expect("run");
        // Hash partitioning of a ring: most edges cross workers.
        assert!(report.remote_messages > 0);
        assert!(report.remote_messages <= report.total_messages);
    }

    #[test]
    fn worker_timings_recorded() {
        let g = ring(64);
        let mut e = engine_on(&g, 4, false);
        let report = e.run().expect("run");
        for s in report.metrics.steps() {
            assert!(s.max_worker_seconds >= 0.0);
            assert!(s.total_worker_seconds >= s.max_worker_seconds);
            assert!(s.delivery_seconds >= 0.0);
            assert!(s.barrier_wait_seconds >= 0.0);
            // The wait is bounded by aggregate skew: (w − 1) · max.
            assert!(s.barrier_wait_seconds <= 4.0 * s.max_worker_seconds);
        }
        assert!(report.metrics.critical_path_seconds() <= report.wall_seconds);
    }

    #[test]
    fn traced_run_produces_phase_spans() {
        let g = generators::erdos_renyi(300, 900, 5).expect("gen");
        let session = hourglass_obs::TraceSession::start();
        let mut e = engine_on(&g, 4, true);
        let report = e.run().expect("run");
        let trace = session.finish();
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == "superstep" && s.track == hourglass_obs::TRACK_MAIN));
        // Per-worker compute spans carry the fork-join task's track.
        for w in 0..4u32 {
            assert!(
                trace
                    .spans
                    .iter()
                    .any(|s| s.name == "compute" && s.track == w),
                "missing compute span for worker {w}"
            );
        }
        // Folded mail is read in place: nothing to transpose.
        assert!(!trace.spans.iter().any(|s| s.name == "transpose"));
        let arg = |s: &obs::SpanRecord, key: &str| {
            let found = s.args.pairs().iter().find(|(k, _)| *k == key);
            found.map(|&(_, v)| v)
        };
        let steps = report.metrics.steps();
        for (i, step) in steps.iter().enumerate() {
            // Each compute span carries its worker's frontier size; per
            // superstep they add up to the recorded active-vertex count.
            let superstep = Some(step.superstep as u64);
            let sum_of = |name: &str, key: &str| -> u64 {
                let spans = trace.spans.iter();
                spans
                    .filter(|s| s.name == name && arg(s, "superstep") == superstep)
                    .map(|s| arg(s, key).expect("the span carries the arg"))
                    .sum()
            };
            assert_eq!(
                sum_of("compute", "active"),
                step.active_vertices,
                "at {superstep:?}"
            );
            // Each deliver span carries the first-touch entries it walked: at
            // most one per sender and target. MaxId halts everywhere, so the
            // targets are exactly the vertices that run next.
            let targets = steps.get(i + 1).map_or(0, |next| next.active_vertices);
            let touched = sum_of("deliver", "touched");
            assert!(
                targets <= touched && touched <= 4 * targets,
                "at {superstep:?}"
            );
        }
        // Compute span time is consistent with the recorded metric.
        let compute_total = trace.total_seconds("compute");
        let metric_total = report.metrics.total_worker_seconds();
        assert!(
            (compute_total - metric_total).abs() <= 0.5 * metric_total.max(1e-3),
            "span total {compute_total} vs metric {metric_total}"
        );

        // A program without a combiner exchanges buckets through the
        // transpose, once per superstep.
        let session = hourglass_obs::TraceSession::start();
        let mut e = program_on(crate::apps::GraphColoring::default(), &g, 4);
        let report = e.run().expect("run");
        let trace = session.finish();
        let transposes = trace.spans.iter().filter(|s| s.name == "transpose");
        assert_eq!(transposes.count(), report.supersteps);

        // Tracing must not leak into the next session.
        let empty = hourglass_obs::TraceSession::start().finish();
        assert!(empty.spans.is_empty());
    }

    #[test]
    fn traced_results_match_untraced() {
        let g = generators::erdos_renyi(200, 600, 7).expect("gen");
        let mut plain = engine_on(&g, 4, true);
        plain.run().expect("run");
        let session = hourglass_obs::TraceSession::start();
        let mut traced = engine_on(&g, 4, true);
        traced.run().expect("run");
        drop(session.finish());
        assert_eq!(plain.values(), traced.values());
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let g = generators::erdos_renyi(100, 300, 9).expect("gen");
        let p = HashPartitioner.partition(&g, 2).expect("partition");
        // Run one superstep, checkpoint, run to completion.
        let mut a = BspEngine::new(MaxId, &g, p.clone(), EngineConfig::default()).expect("engine");
        a.step().expect("step");
        let ckpt = a.checkpoint_state();
        let mut bytes = Vec::new();
        ckpt.encode(&mut bytes);
        a.run().expect("run");

        // Restore into a *different* worker count (fast-reload scenario).
        let p8 = HashPartitioner.partition(&g, 8).expect("partition");
        let mut b = BspEngine::new(MaxId, &g, p8, EngineConfig::default()).expect("engine");
        let restored = b.decode_checkpoint(&bytes).expect("decode");
        assert_eq!(restored, ckpt);
        b.restore_state(restored).expect("restore");
        assert_eq!(b.superstep(), 1);
        b.run().expect("run");
        assert_eq!(a.values(), b.values(), "recovery must not change results");
    }

    #[test]
    fn adopt_state_matches_checkpoint_restore() {
        let g = generators::erdos_renyi(100, 300, 9).expect("gen");
        let p2 = HashPartitioner.partition(&g, 2).expect("partition");
        let mut a = BspEngine::new(MaxId, &g, p2.clone(), EngineConfig::default()).expect("engine");
        a.step().expect("step");

        for k in [1u32, 2, 8] {
            let pk = HashPartitioner.partition(&g, k).expect("partition");
            // Path 1: durable checkpoint + restore.
            let mut via_ckpt =
                BspEngine::new(MaxId, &g, pk.clone(), EngineConfig::default()).expect("engine");
            via_ckpt
                .restore_state(a.checkpoint_state())
                .expect("restore");
            // Path 2: direct adoption (the delta-migration carry-through).
            let mut via_adopt =
                BspEngine::new(MaxId, &g, pk, EngineConfig::default()).expect("engine");
            via_adopt.adopt_state_from(&a).expect("adopt");

            assert_eq!(via_adopt.superstep(), via_ckpt.superstep());
            assert_eq!(via_adopt.values(), via_ckpt.values(), "k={k}");
            via_ckpt.run().expect("run");
            via_adopt.run().expect("run");
            assert_eq!(via_adopt.values(), via_ckpt.values(), "k={k} after run");
        }
    }

    #[test]
    fn adopt_state_rejects_mismatched_graph() {
        let g1 = ring(8);
        let g2 = ring(9);
        let p1 = HashPartitioner.partition(&g1, 2).expect("partition");
        let p2 = HashPartitioner.partition(&g2, 2).expect("partition");
        let a = BspEngine::new(MaxId, &g1, p1, EngineConfig::default()).expect("engine");
        let mut b = BspEngine::new(MaxId, &g2, p2, EngineConfig::default()).expect("engine");
        assert!(b.adopt_state_from(&a).is_err());
    }

    #[test]
    fn two_engines_with_live_pools_step_side_by_side() {
        let g = generators::erdos_renyi(100, 300, 9).expect("gen");
        let mut whole = program_on(MaxId, &g, 1);
        whole.run().expect("run");

        let mut a = program_on(MaxId, &g, 2);
        a.step().expect("step");
        // A different k, restored while `a` and its pool are alive.
        let mut b = program_on(MaxId, &g, 3);
        b.restore_state(a.checkpoint_state()).expect("restore");
        assert!(a.pool.is_some() && b.pool.is_some());
        while !(a.is_done() && b.is_done()) {
            a.step().expect("step");
            b.step().expect("step");
        }
        assert_eq!(a.values(), whole.values());
        assert_eq!(b.values(), whole.values());
        assert_eq!(a.superstep(), b.superstep());
    }

    /// [`MaxId`] that notes which threads ran `compute`.
    #[derive(Default)]
    struct Spy {
        seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl VertexProgram for Spy {
        type Value = u32;
        type Message = u32;

        fn init(&self, v: VertexId, g: &Graph) -> u32 {
            MaxId.init(v, g)
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
            let me = std::thread::current().id();
            self.seen
                .lock()
                .expect("no panic under the lock")
                .insert(me);
            MaxId.compute(ctx, messages);
        }

        fn combiner(&self) -> Option<fn(&u32, &u32) -> u32> {
            MaxId.combiner()
        }
    }

    #[test]
    fn a_sequential_engine_creates_no_thread() {
        let g = ring(64);
        let me = std::thread::current().id();
        for (k, parallel, threads) in [(4u32, false, 1), (1, true, 1), (4, true, 4)] {
            let p = HashPartitioner.partition(&g, k).expect("partition");
            let config = EngineConfig {
                parallel,
                ..EngineConfig::default()
            };
            let mut e = BspEngine::new(Spy::default(), &g, p, config).expect("engine");
            assert_eq!(e.pool.is_some(), threads > 1, "k {k} parallel {parallel}");
            e.run().expect("run");
            let seen = e.program.seen.lock().expect("lock");
            // The caller is always one of them: it runs the last worker.
            assert!(seen.contains(&me), "k {k} parallel {parallel}");
            assert_eq!(seen.len(), threads, "k {k} parallel {parallel}");
        }
    }

    /// Between steps the derived state agrees with what it is derived from:
    /// an active bit is set exactly when the vertex is awake or has mail, no
    /// bit lies past the slab, the next bitmap is blank; a folded inbox has
    /// a bit per cell holding mail and a slab under every bit; a folded
    /// outbox lists, under the right destination and slot, exactly the
    /// targets whose presence bit is set.
    fn assert_active_invariant<P: VertexProgram>(e: &BspEngine<'_, P>) {
        for w in 0..e.members.len() {
            let mut expected = 0;
            let mut with_mail = 0;
            for slot in 0..e.members[w].len() {
                let bit = e.active[w][slot / 64] >> (slot % 64) & 1 == 1;
                let mail = e.inbox[w].mail(slot);
                let runs = !e.halted[w][slot] || !mail.is_empty();
                assert_eq!(bit, runs, "worker {w} slot {slot}");
                expected += u32::from(runs);
                with_mail += u32::from(!mail.is_empty());
            }
            let set: u32 = e.active[w].iter().map(|x| x.count_ones()).sum();
            assert_eq!(set, expected, "worker {w} has bits past its slab");
            assert!(e.active_next[w].iter().all(|&x| x == 0), "worker {w}");
            if let Inbox::Folded { vals, has, .. } = &e.inbox[w] {
                let set: u32 = has.iter().map(|x| x.count_ones()).sum();
                assert_eq!(set, with_mail, "worker {w} has mail past its slab");
                assert!(with_mail == 0 || vals.len() >= e.members[w].len());
            }
            if let Outbox::Folded(f) = &e.outboxes[w] {
                let set: usize = f.present.iter().map(|x| x.count_ones() as usize).sum();
                let listed: usize = f.touched.iter().map(Vec::len).sum();
                assert_eq!(set, listed, "sender {w}: a bit per listed target");
                assert!(listed == 0 || f.vals.len() == e.route.len());
                for (dest, list) in f.touched.iter().enumerate() {
                    for &(v, slot) in list {
                        assert_eq!(f.present[v as usize / 64] >> (v % 64) & 1, 1);
                        let route = crate::program::pack_route(dest as u32, slot);
                        assert_eq!(e.route[v as usize], route, "sender {w} target {v}");
                    }
                }
            }
        }
    }

    /// Steps to completion, checking the invariant before and after every
    /// superstep; returns the `active_vertices` sequence of those steps.
    fn run_checked<P: VertexProgram>(e: &mut BspEngine<'_, P>) -> Vec<u64> {
        let first = e.metrics().steps().len();
        assert_active_invariant(e);
        while !e.is_done() {
            e.step().expect("step");
            assert_active_invariant(e);
        }
        let steps = &e.metrics().steps()[first..];
        steps.iter().map(|s| s.active_vertices).collect()
    }

    pub(crate) fn program_on<P: VertexProgram>(program: P, g: &Graph, k: u32) -> BspEngine<'_, P> {
        let p = HashPartitioner.partition(g, k).expect("partition");
        BspEngine::new(program, g, p, EngineConfig::default()).expect("engine")
    }

    fn sssp_on(g: &Graph, k: u32) -> BspEngine<'_, crate::apps::Sssp> {
        program_on(crate::apps::Sssp { source: 7 }, g, k)
    }

    #[test]
    fn sparse_phase_checkpoint_resumes_the_same_frontier_on_another_k() {
        // SSSP on a ring: 150 supersteps whose frontier is the two wavefront
        // vertices plus the two behind them that their messages wake.
        let g = ring(300);
        let mut whole = sssp_on(&g, 2);
        let frontier = run_checked(&mut whole);
        assert!(frontier.len() > 100 && frontier[1..].iter().all(|&a| a <= 4));

        let cut = 40;
        let mut a = sssp_on(&g, 2);
        for _ in 0..cut {
            a.step().expect("step");
        }
        for k in [1u32, 2, 3, 5] {
            let mut restored = sssp_on(&g, k);
            restored
                .restore_state(a.checkpoint_state())
                .expect("restore");
            let mut adopted = sssp_on(&g, k);
            adopted.adopt_state_from(&a).expect("adopt");
            for mut e in [restored, adopted] {
                assert_eq!(run_checked(&mut e), frontier[cut..], "k={k}");
                assert_eq!(e.values(), whole.values(), "k={k}");
            }
        }
    }

    #[test]
    fn finished_checkpoint_restores_as_done() {
        let g = ring(100);
        let mut a = sssp_on(&g, 2);
        let report = a.run().expect("run");
        // A fresh engine is born with every vertex active; the load must
        // clear that, not only add to it.
        let mut b = sssp_on(&g, 3);
        assert!(!b.is_done());
        b.restore_state(a.checkpoint_state()).expect("restore");
        assert_active_invariant(&b);
        assert!(b.is_done());
        assert_eq!(b.run().expect("run").supersteps, report.supersteps);
        assert_eq!(b.values(), a.values());
    }

    fn wcc_on(g: &Graph, k: u32) -> BspEngine<'_, crate::apps::Wcc> {
        program_on(crate::apps::Wcc, g, k)
    }

    #[test]
    fn dense_phase_checkpoint_resumes_on_another_k() {
        // Min-label propagation over duplicate edges and self-loops: the
        // first supersteps touch every cell of every mailbox.
        let g = generators::rmat(7, 8, generators::RmatParams::SOCIAL, 3).expect("gen");
        let mut whole = wcc_on(&g, 2);
        let frontier = run_checked(&mut whole);
        assert!(frontier.len() > 3 && frontier[1] > 64);

        let cut = 2;
        let mut a = wcc_on(&g, 2);
        for _ in 0..cut {
            a.step().expect("step");
        }
        for k in [1u32, 2, 3, 5] {
            let mut restored = wcc_on(&g, k);
            restored
                .restore_state(a.checkpoint_state())
                .expect("restore");
            let mut adopted = wcc_on(&g, k);
            adopted.adopt_state_from(&a).expect("adopt");
            for mut e in [restored, adopted] {
                assert_eq!(run_checked(&mut e), frontier[cut..], "k={k}");
                assert_eq!(e.values(), whole.values(), "k={k}");
            }
        }
    }

    #[test]
    fn restore_onto_a_stepped_engine_leaves_nothing_stale() {
        let g = generators::rmat(7, 8, generators::RmatParams::SOCIAL, 3).expect("gen");
        let mut a = wcc_on(&g, 3);
        a.step().expect("step");
        let ckpt = a.checkpoint_state();

        // `used` has gone two supersteps further: its outboxes hold the mail
        // of superstep 2, its inboxes that of superstep 3.
        let mut used = wcc_on(&g, 3);
        for _ in 0..3 {
            used.step().expect("step");
        }
        used.restore_state(ckpt.clone()).expect("restore");
        assert_active_invariant(&used);
        let mut fresh = wcc_on(&g, 3);
        fresh.restore_state(ckpt).expect("restore");
        // And the same through adoption, onto an engine that has stepped.
        let mut adopted = wcc_on(&g, 3);
        adopted.step().expect("step");
        adopted.step().expect("step");
        adopted.adopt_state_from(&a).expect("adopt");
        assert_active_invariant(&adopted);

        fresh.step().expect("step");
        for mut e in [used, adopted] {
            e.step().expect("step");
            assert_active_invariant(&e);
            assert_eq!(e.values(), fresh.values());
            let (got, want) = (e.metrics().steps(), fresh.metrics().steps());
            let counts = |s: &SuperstepMetrics| (s.active_vertices, s.messages, s.remote_messages);
            assert_eq!(got.last().map(counts), want.last().map(counts));
            let mail = |e: &BspEngine<'_, crate::apps::Wcc>| e.checkpoint_state().mail;
            assert_eq!(mail(&e), mail(&fresh));
        }
    }

    #[test]
    fn a_checkpoint_cell_of_two_messages_restores_as_their_fold() {
        let g = ring(8);
        let mut a = engine_on(&g, 2, false);
        a.step().expect("step");
        let mut ckpt = a.checkpoint_state();
        assert_eq!(ckpt.mail.has, [0xFF]);
        assert_eq!(ckpt.mail.counts, None);
        // What an engine with list cells could have written: three messages
        // for vertex 0, none for vertex 5, one for everyone else.
        ckpt.mail.has = vec![0xFF & !(1 << 5)];
        ckpt.mail.msgs.remove(5);
        ckpt.mail.msgs.splice(0..1, [2, 50, 7]);
        ckpt.mail.counts = Some(vec![3, 1, 1, 1, 1, 1, 1]);
        let mut b = engine_on(&g, 3, false);
        b.restore_state(ckpt.clone()).expect("restore");
        assert_active_invariant(&b);
        let mail = b.checkpoint_state().mail;
        assert_eq!(mail.counts, None);
        let cells: Vec<_> = mail.cells().collect();
        assert_eq!(cells[0], (0, &[50][..]));
        assert!(cells.iter().all(|&(v, _)| v != 5));
        b.run().expect("run");
        assert_eq!(b.values()[0], 50);
        assert_eq!(b.values()[5], 5, "vertex 5 lost its mail and keeps its id");

        // Counts, bitmap and messages that disagree are refused whole.
        let mut short = ckpt.clone();
        short.mail.msgs.pop();
        let mut empty_cell = ckpt.clone();
        empty_cell.mail.counts = Some(vec![4, 0, 1, 1, 1, 1, 1]);
        let mut past_n = ckpt.clone();
        past_n.halted[0] |= 1 << 8;
        for bad in [short, empty_cell, past_n] {
            let mut c = engine_on(&g, 3, false);
            assert!(matches!(
                c.restore_state(bad),
                Err(EngineError::Checkpoint(_))
            ));
        }
    }

    #[test]
    fn remote_degree_counts_what_single_sends_count() {
        /// MaxId's first superstep, one `send` per neighbor.
        struct SendEach;
        impl VertexProgram for SendEach {
            type Value = u32;
            type Message = u32;
            fn init(&self, v: VertexId, _: &Graph) -> u32 {
                v
            }
            fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, _m: &[u32]) {
                if ctx.superstep == 0 {
                    for &t in ctx.neighbors() {
                        ctx.send(t, ctx.vertex);
                    }
                }
                ctx.vote_to_halt();
            }
            fn combiner(&self) -> Option<fn(&u32, &u32) -> u32> {
                Some(|a, b| *a.max(b))
            }
        }
        let g = generators::rmat(7, 8, generators::RmatParams::SOCIAL, 3).expect("gen");
        for k in [1u32, 2, 3, 8] {
            let mut each = program_on(SendEach, &g, k);
            each.step().expect("step");
            let mut all = engine_on(&g, k, false);
            all.step().expect("step");
            let by_degree: u64 = all.remote_degree.iter().flatten().map(|&d| d as u64).sum();
            let (each, all) = (&each.metrics().steps()[0], &all.metrics().steps()[0]);
            assert_eq!(all.messages, 2 * g.num_edges() as u64, "k={k}");
            assert_eq!(all.remote_messages, by_degree, "k={k}");
            assert_eq!(each.remote_messages, by_degree, "k={k}");
            assert_eq!(each.messages, all.messages, "k={k}");
        }
    }

    #[test]
    fn bitmap_tail_words_and_empty_workers() {
        // Slab lengths on both sides of a word boundary, and more workers
        // than vertices (k > n leaves some with no slab at all).
        for (n, k) in [
            (5usize, 8u32),
            (64, 1),
            (65, 1),
            (130, 1),
            (130, 3),
            (200, 8),
        ] {
            let g = ring(n);
            let p =
                Partitioning::new((0..n as u32).map(|v| v % k).collect(), k).expect("partition");
            let mut e = BspEngine::new(MaxId, &g, p, EngineConfig::default()).expect("engine");
            let frontier = run_checked(&mut e);
            assert_eq!(frontier, [n as u64, n as u64], "n={n} k={k}");
            // Slabs come with the first send, or the first delivery.
            for (w, ws) in e.members.iter().enumerate() {
                let Outbox::Folded(f) = &e.outboxes[w] else {
                    panic!("MaxId has a combiner");
                };
                let Inbox::Folded { vals, .. } = &e.inbox[w] else {
                    panic!("MaxId has a combiner");
                };
                assert_eq!(
                    f.vals.len(),
                    if ws.is_empty() { 0 } else { n },
                    "n={n} k={k}"
                );
                assert_eq!(vals.is_empty(), ws.is_empty(), "n={n} k={k}");
            }
            for (v, &got) in e.values().iter().enumerate() {
                let (prev, next) = ((v + n - 1) % n, (v + 1) % n);
                assert_eq!(got as usize, v.max(prev).max(next), "n={n} k={k} v={v}");
            }
        }
    }

    #[test]
    fn awake_vertices_run_again_without_mail() {
        /// Counts its value down to zero, one per superstep, silently.
        struct Countdown;
        impl VertexProgram for Countdown {
            type Value = u32;
            type Message = u32;
            fn init(&self, v: VertexId, _: &Graph) -> u32 {
                v % 4
            }
            fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, _m: &[u32]) {
                match *ctx.value_ref() {
                    0 => ctx.vote_to_halt(),
                    left => *ctx.value() = left - 1,
                }
            }
        }
        let g = ring(200);
        let p = HashPartitioner.partition(&g, 3).expect("partition");
        let mut e = BspEngine::new(Countdown, &g, p, EngineConfig::default()).expect("engine");
        assert_eq!(run_checked(&mut e), [200, 150, 100, 50]);
        assert!(e.values().iter().all(|&left| left == 0));
    }

    #[test]
    fn restore_truncates_stale_metrics() {
        let g = generators::erdos_renyi(100, 300, 9).expect("gen");
        let p = HashPartitioner.partition(&g, 2).expect("partition");
        let mut e = BspEngine::new(MaxId, &g, p, EngineConfig::default()).expect("engine");
        e.step().expect("step");
        let ckpt = e.checkpoint_state();
        let full = e.run().expect("run");

        // Rewind the same engine and resume: the report must match a
        // straight run, not double-count the re-executed supersteps.
        e.restore_state(ckpt).expect("restore");
        assert_eq!(
            e.metrics().steps().len(),
            1,
            "metrics rewound to superstep 1"
        );
        let resumed = e.run().expect("run");
        assert_eq!(resumed.supersteps, full.supersteps);
        assert_eq!(resumed.total_messages, full.total_messages);
        assert_eq!(resumed.metrics.steps().len(), full.metrics.steps().len());
    }

    #[test]
    fn report_converged_is_computed() {
        let g = ring(8);
        let mut e = engine_on(&g, 2, false);
        let report = e.run().expect("run");
        assert!(report.converged);
        assert!(e.is_done());
        // Running an already-converged engine reports convergence without
        // executing more supersteps.
        let again = e.run().expect("run");
        assert!(again.converged);
        assert_eq!(again.supersteps, report.supersteps);
    }

    #[test]
    fn restore_rejects_mismatched_graph() {
        let g1 = ring(8);
        let g2 = ring(9);
        let p1 = HashPartitioner.partition(&g1, 2).expect("partition");
        let p2 = HashPartitioner.partition(&g2, 2).expect("partition");
        let a = BspEngine::new(MaxId, &g1, p1, EngineConfig::default()).expect("engine");
        let ckpt = a.checkpoint_state();
        let mut b = BspEngine::new(MaxId, &g2, p2, EngineConfig::default()).expect("engine");
        assert!(b.restore_state(ckpt).is_err());
    }

    #[test]
    fn engine_rejects_mismatched_partitioning() {
        let g = ring(8);
        let p = HashPartitioner.partition(&ring(4), 2).expect("partition");
        assert!(BspEngine::new(MaxId, &g, p, EngineConfig::default()).is_err());
    }

    #[test]
    fn superstep_cap_errors() {
        /// Never halts.
        struct Forever;
        impl VertexProgram for Forever {
            type Value = u8;
            type Message = u8;
            fn init(&self, _: VertexId, _: &Graph) -> u8 {
                0
            }
            fn compute(&self, ctx: &mut ComputeContext<'_, u8, u8>, _m: &[u8]) {
                ctx.send_to_neighbors(0);
            }
        }
        let g = ring(4);
        let p = HashPartitioner.partition(&g, 1).expect("partition");
        let mut e = BspEngine::new(
            Forever,
            &g,
            p,
            EngineConfig {
                max_supersteps: 5,
                parallel: false,
            },
        )
        .expect("engine");
        assert!(matches!(
            e.run(),
            Err(EngineError::DidNotConverge { max_supersteps: 5 })
        ));
    }
}
