//! Graph loading strategies (§6.1/§8.3.1): stream, hash and micro loading.
//!
//! Three layers:
//!
//! - **[`Datastore`]** — the at-rest layout the loaders read. Two physical
//!   formats behind one abstraction: the text edge list ([`EdgeListStore`],
//!   the comparison baseline) and the sharded binary store
//!   ([`ShardedArcs`], `HGS2`) whose buckets are contiguous blocks of
//!   little-endian `u32` arc pairs decoded from byte slices with zero
//!   copies. Either layout is bucketed per micro-partition (the offline
//!   fast-reload layout: "graph data remains partitioned in the same way
//!   across different configurations", §6.2); a single bucket is the flat
//!   layout.
//! - **Physical loaders** ([`stream_load`], [`hash_load`], [`micro_load`])
//!   parse a datastore into per-worker adjacency slabs, with the hash
//!   loader's cross-worker shuffle and the micro loader's exchange-free
//!   parallel reads faithfully reproduced (and measured by the Criterion
//!   benches). Adjacency assembly is a two-pass counting sort into a
//!   CSR-shaped offsets+neighbors slab per worker — the vertex-id space is
//!   dense, so per-worker slots are derived from the [`Partitioning`] once
//!   and every arc is scattered straight into place; no tree maps, no
//!   per-vertex allocation. [`reload_graph`] merges the slabs back into a
//!   [`Graph`] — the deployment step that hands a (re)loaded graph to the
//!   engine.
//! - **[`LoaderCostModel`]** converts dataset sizes and machine counts
//!   into loading *seconds* at paper scale, calibrated per [`StoreFormat`]
//!   so the relative behaviour of the three strategies matches Figure 6
//!   (stream grows with the dataset and suffers a centralized-memory
//!   penalty; hash pays the network at small clusters; micro scales with
//!   `1/k`).

use crate::{EngineError, Result};
use hourglass_exec::{par_map, par_map_when};
use hourglass_faults::{FaultInjector, FaultKind, FaultPlan, Op, RetryPolicy, Site};
use hourglass_graph::io_binary::{
    decode_arcs, decode_arcs_into, max_arc_id, ShardedArcs, ARC_BYTES,
};
use hourglass_graph::io_mmap::MappedShards;
use hourglass_graph::{Graph, VertexId};
use hourglass_metrics as hm;
use hourglass_obs as obs;
use hourglass_partition::cluster::ClusteringDelta;
use hourglass_partition::Partitioning;
use std::fmt;

/// The three loading strategies of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoaderKind {
    /// Master reads and parses the whole dataset, then distributes
    /// (stream-based partitioners force this centralization, §6.1).
    Stream,
    /// Workers read chunks in parallel, then shuffle entities to their
    /// owners over the network.
    Hash,
    /// Workers read exactly their own micro-partitions: parallel and
    /// exchange-free (the Hourglass fast reload, §6.2).
    Micro,
}

impl fmt::Display for LoaderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoaderKind::Stream => f.write_str("Stream Loader"),
            LoaderKind::Hash => f.write_str("Hash Loader"),
            LoaderKind::Micro => f.write_str("Micro Loader"),
        }
    }
}

/// Physical at-rest format of a [`Datastore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreFormat {
    /// `u v\n` text lines (the SNAP-style baseline).
    Text,
    /// Sharded little-endian binary arc pairs (`HGS2`), read through
    /// buffered IO into a heap slab.
    Binary,
    /// The same binary layout served from a memory-mapped file: bucket
    /// reads are page-cache slices, so loading pays no copy and no
    /// up-front payload checksum pass.
    BinaryMapped,
}

impl fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFormat::Text => f.write_str("text"),
            StoreFormat::Binary => f.write_str("binary"),
            StoreFormat::BinaryMapped => f.write_str("binary-mmap"),
        }
    }
}

// ---------------------------------------------------------------------------
// Modeled loading times (paper-scale reproduction of Figure 6).
// ---------------------------------------------------------------------------

/// Analytical loading-time model.
#[derive(Debug, Clone, Copy)]
pub struct LoaderCostModel {
    /// Per-machine bandwidth reading the external datastore, bytes/s.
    pub datastore_bandwidth: f64,
    /// Per-machine network bandwidth for shuffles, bytes/s.
    pub network_bandwidth: f64,
    /// Per-machine parse throughput, bytes/s.
    pub parse_rate: f64,
    /// In-memory entity size per raw input byte (parsed vertex/edge objects
    /// shipped during a shuffle are larger than their text form).
    pub expansion_factor: f64,
    /// Bytes a single machine can hold/parse before centralized loading
    /// degrades (GC/memory pressure on the master).
    pub master_capacity: f64,
    /// Fixed coordination overhead, seconds.
    pub fixed_overhead: f64,
}

impl LoaderCostModel {
    /// Calibration used for the Figure 6 reproduction: S3-class datastore
    /// reads, 2016 EC2 NICs, Java-like parse rates on Giraph over *text*
    /// edge lists (these set the *ratios* Figure 6 reports; absolute
    /// numbers are secondary).
    pub fn aws_2016() -> Self {
        LoaderCostModel {
            datastore_bandwidth: 90.0e6,
            network_bandwidth: 280.0e6,
            parse_rate: 45.0e6,
            expansion_factor: 4.0,
            master_capacity: 3.0e9,
            fixed_overhead: 8.0,
        }
    }

    /// The same machine calibration, adjusted for the datastore format:
    /// the binary store decodes at memory bandwidth rather than text-parse
    /// speed, and its fixed-width arcs expand less when shipped in parsed
    /// form (8 input bytes become one in-memory arc, vs ~14 text bytes
    /// becoming the same arc). The mapped variant additionally drops the
    /// read-into-heap copy and the up-front checksum pass: bucket bytes
    /// come straight out of the page cache (local-NVMe-class effective
    /// bandwidth rather than S3-class), decode is the only touch of each
    /// byte, and the open costs metadata only (lower fixed overhead).
    pub fn aws_2016_for(format: StoreFormat) -> Self {
        match format {
            StoreFormat::Text => Self::aws_2016(),
            StoreFormat::Binary => LoaderCostModel {
                parse_rate: 1.2e9,
                expansion_factor: 2.0,
                ..Self::aws_2016()
            },
            StoreFormat::BinaryMapped => LoaderCostModel {
                datastore_bandwidth: 400.0e6,
                parse_rate: 2.4e9,
                expansion_factor: 2.0,
                fixed_overhead: 6.0,
                ..Self::aws_2016()
            },
        }
    }

    /// Modeled loading time in seconds for `bytes` of edge-list data on
    /// `machines` workers.
    pub fn time(&self, kind: LoaderKind, bytes: f64, machines: u32) -> Result<f64> {
        if machines == 0 {
            return Err(EngineError::InvalidConfig(
                "need at least one machine".into(),
            ));
        }
        if bytes < 0.0 || bytes.is_nan() {
            return Err(EngineError::InvalidConfig(format!(
                "bytes must be non-negative, got {bytes}"
            )));
        }
        let k = machines as f64;
        let t = match kind {
            LoaderKind::Stream => {
                // The master reads and parses everything; centralized
                // in-memory construction degrades past its capacity; the
                // parsed entities are then pushed to the workers.
                let pressure = 1.0 + bytes / self.master_capacity;
                let read = bytes / self.datastore_bandwidth;
                let parse = bytes / self.parse_rate * pressure;
                let distribute =
                    bytes * self.expansion_factor * (k - 1.0) / k / self.network_bandwidth;
                read + parse + distribute
            }
            LoaderKind::Hash => {
                // Parallel chunk reads, then an all-to-all shuffle of the
                // (1 − 1/k) fraction of entities that landed on the wrong
                // worker, paid in expanded form on every NIC.
                let chunk = bytes / k;
                let read = chunk / self.datastore_bandwidth;
                let parse = chunk / self.parse_rate;
                let misplaced = chunk * (1.0 - 1.0 / k);
                let shuffle = misplaced * self.expansion_factor / self.network_bandwidth
                    + misplaced / self.parse_rate;
                read + parse + shuffle
            }
            LoaderKind::Micro => {
                // Workers read exactly their own micro-partitions.
                let chunk = bytes / k;
                chunk / self.datastore_bandwidth + chunk / self.parse_rate
            }
        };
        Ok(t + self.fixed_overhead)
    }
}

// ---------------------------------------------------------------------------
// Datastores.
// ---------------------------------------------------------------------------

/// Appends the decimal digits of `x` without any per-arc heap allocation.
fn push_u32(s: &mut String, mut x: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ascii"));
}

/// A text edge-list datastore: buckets of `u v\n` lines. One bucket is the
/// flat layout; one bucket per micro-partition is the fast-reload layout
/// (bucket `m` holds the arcs whose source lives in micro-partition `m`,
/// so each undirected edge appears in both endpoints' buckets).
///
/// Kept as the measured comparison baseline for the binary store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeListStore {
    buckets: Vec<String>,
}

impl EdgeListStore {
    /// Builds a flat (single-bucket) store from a graph in one pass, with
    /// integer formatting into a pre-sized buffer (no per-arc `String`).
    pub fn flat_from_graph(g: &Graph) -> Self {
        let mut flat = String::with_capacity(g.num_directed_edges() * 14);
        for (u, v, _) in g.arcs() {
            push_u32(&mut flat, u);
            flat.push(' ');
            push_u32(&mut flat, v);
            flat.push('\n');
        }
        EdgeListStore {
            buckets: vec![flat],
        }
    }

    /// Builds a store bucketed by `micro` (the fast-reload layout)
    /// directly — single pass over the arcs, no intermediate flat copy.
    pub fn micro_from_graph(g: &Graph, micro: &Partitioning) -> Result<Self> {
        if micro.num_vertices() != g.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "micro partitioning covers {} vertices, graph has {}",
                micro.num_vertices(),
                g.num_vertices()
            )));
        }
        let counts = hourglass_partition::micro::micro_arc_counts(g, micro)
            .map_err(EngineError::Partition)?;
        let mut buckets: Vec<String> = counts
            .iter()
            .map(|&c| String::with_capacity(c as usize * 14))
            .collect();
        for u in 0..g.num_vertices() as VertexId {
            let bucket = &mut buckets[micro.part_of(u) as usize];
            for &v in g.neighbors(u) {
                push_u32(bucket, u);
                bucket.push(' ');
                push_u32(bucket, v);
                bucket.push('\n');
            }
        }
        Ok(EdgeListStore { buckets })
    }

    /// Wraps externally produced buckets (whole lines per bucket).
    pub fn from_buckets(buckets: Vec<String>) -> Result<Self> {
        if buckets.is_empty() {
            return Err(EngineError::InvalidConfig(
                "a text store needs at least one bucket".into(),
            ));
        }
        Ok(EdgeListStore { buckets })
    }

    /// The per-bucket text blocks.
    pub fn buckets(&self) -> &[String] {
        &self.buckets
    }

    /// Number of buckets (1 = flat layout).
    pub fn num_buckets(&self) -> u32 {
        self.buckets.len() as u32
    }

    /// Total size of the stored text in bytes.
    pub fn byte_size(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }
}

/// The datastore a loader reads: either the text baseline or the sharded
/// binary layout, behind one dispatch point so every loader runs over both.
#[derive(Debug, Clone, PartialEq)]
pub enum Datastore {
    /// Text edge-list buckets.
    Text(EdgeListStore),
    /// Sharded binary arc buckets (`HGS2` on disk), decoded zero-copy.
    Binary(ShardedArcs),
    /// The sharded binary layout memory-mapped from its `HGS2` file:
    /// bucket bytes are page-cache slices, so a (re)load copies nothing
    /// and graphs larger than RAM stay loadable. Shared behind an `Arc`
    /// so cloning a store handle never remaps or copies the file.
    Mapped(std::sync::Arc<MappedShards>),
}

impl From<EdgeListStore> for Datastore {
    fn from(s: EdgeListStore) -> Self {
        Datastore::Text(s)
    }
}

impl From<ShardedArcs> for Datastore {
    fn from(s: ShardedArcs) -> Self {
        Datastore::Binary(s)
    }
}

impl From<MappedShards> for Datastore {
    fn from(s: MappedShards) -> Self {
        Datastore::Mapped(std::sync::Arc::new(s))
    }
}

impl Datastore {
    /// Flat text store from a graph.
    pub fn text_flat(g: &Graph) -> Self {
        Datastore::Text(EdgeListStore::flat_from_graph(g))
    }

    /// Micro-bucketed text store from a graph.
    pub fn text_micro(g: &Graph, micro: &Partitioning) -> Result<Self> {
        Ok(Datastore::Text(EdgeListStore::micro_from_graph(g, micro)?))
    }

    /// Flat binary store from a graph.
    pub fn binary_flat(g: &Graph) -> Self {
        Datastore::Binary(ShardedArcs::flat_from_graph(g))
    }

    /// Micro-bucketed binary store from a graph: one shard per
    /// micro-partition, each a contiguous block of LE arc pairs.
    pub fn binary_micro(g: &Graph, micro: &Partitioning) -> Result<Self> {
        if micro.num_vertices() != g.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "micro partitioning covers {} vertices, graph has {}",
                micro.num_vertices(),
                g.num_vertices()
            )));
        }
        let sharded = ShardedArcs::from_graph_buckets(g, micro.assignment(), micro.num_parts())
            .map_err(|e| EngineError::InvalidConfig(format!("sharded store: {e}")))?;
        Ok(Datastore::Binary(sharded))
    }

    /// Opens the `HGS2` file at `path` as a memory-mapped store.
    pub fn mapped_from_path<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        let m = MappedShards::open(path)
            .map_err(|e| EngineError::InvalidConfig(format!("mapped store: {e}")))?;
        Ok(Datastore::from(m))
    }

    /// Writes the flat binary store for `g` to `path` (`HGS2`) and reopens
    /// it memory-mapped.
    pub fn mapped_flat<P: AsRef<std::path::Path>>(g: &Graph, path: P) -> Result<Self> {
        Self::write_and_map(ShardedArcs::flat_from_graph(g), path)
    }

    /// Writes the micro-bucketed binary store for `g` to `path` (`HGS2`)
    /// and reopens it memory-mapped — the on-disk fast-reload layout.
    pub fn mapped_micro<P: AsRef<std::path::Path>>(
        g: &Graph,
        micro: &Partitioning,
        path: P,
    ) -> Result<Self> {
        if micro.num_vertices() != g.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "micro partitioning covers {} vertices, graph has {}",
                micro.num_vertices(),
                g.num_vertices()
            )));
        }
        let sharded = ShardedArcs::from_graph_buckets(g, micro.assignment(), micro.num_parts())
            .map_err(|e| EngineError::InvalidConfig(format!("sharded store: {e}")))?;
        Self::write_and_map(sharded, path)
    }

    fn write_and_map<P: AsRef<std::path::Path>>(sharded: ShardedArcs, path: P) -> Result<Self> {
        let write = || -> std::io::Result<()> {
            let file = std::fs::File::create(path.as_ref())?;
            let mut w = std::io::BufWriter::new(file);
            sharded
                .write_to(&mut w)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            use std::io::Write;
            w.flush()
        };
        write().map_err(|e| EngineError::InvalidConfig(format!("store write: {e}")))?;
        Self::mapped_from_path(path)
    }

    /// Physical format of this store.
    pub fn format(&self) -> StoreFormat {
        match self {
            Datastore::Text(_) => StoreFormat::Text,
            Datastore::Binary(_) => StoreFormat::Binary,
            Datastore::Mapped(_) => StoreFormat::BinaryMapped,
        }
    }

    /// Number of buckets (1 = flat layout).
    pub fn num_buckets(&self) -> u32 {
        match self {
            Datastore::Text(s) => s.num_buckets(),
            Datastore::Binary(s) => s.num_buckets(),
            Datastore::Mapped(s) => s.num_buckets(),
        }
    }

    /// Stored size in bytes (text: all lines; binary: the arc payload).
    pub fn byte_size(&self) -> usize {
        match self {
            Datastore::Text(s) => s.byte_size(),
            Datastore::Binary(s) => s.payload_bytes(),
            Datastore::Mapped(s) => s.payload_bytes(),
        }
    }

    /// Stored size of one micro-partition bucket in bytes. Hash buckets
    /// over a power-law graph are heavily skewed (a hub-dominated bucket
    /// can hold an order of magnitude more arcs than the median), so
    /// reconfiguration planners size migrations by this, not by bucket
    /// count.
    pub fn bucket_byte_len(&self, b: u32) -> usize {
        match self {
            Datastore::Text(s) => s.buckets[b as usize].len(),
            Datastore::Binary(s) => s.bucket_bytes(b).len(),
            Datastore::Mapped(s) => s.bucket_bytes(b).len(),
        }
    }

    /// Raw encoded arc bytes of bucket `b` for the two binary-format
    /// variants (`None` on a text store) — the shared zero-copy read unit
    /// both the heap-backed and the mapped layout expose, so every loader
    /// takes one code path over both.
    pub fn arc_bucket_bytes(&self, b: u32) -> Option<&[u8]> {
        match self {
            Datastore::Text(_) => None,
            Datastore::Binary(s) => Some(s.bucket_bytes(b)),
            Datastore::Mapped(s) => Some(s.bucket_bytes(b)),
        }
    }

    /// Vertex-count header of the two binary-format variants (`None` on a
    /// text store, which carries no header to validate).
    fn binary_num_vertices(&self) -> Option<u32> {
        match self {
            Datastore::Text(_) => None,
            Datastore::Binary(s) => Some(s.num_vertices()),
            Datastore::Mapped(s) => Some(s.num_vertices()),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing and chunking.
// ---------------------------------------------------------------------------

/// Parses `u v` text lines into `out`. Blank lines and `#` comments are
/// part of the format and skipped silently; unparseable lines and arcs
/// referencing vertices `>= n` are dropped and *counted*.
fn parse_text_arcs(out: &mut Vec<(VertexId, VertexId)>, text: &str, n: u32) -> u64 {
    let mut skipped = 0u64;
    for l in text.lines() {
        if l.is_empty() || l.starts_with('#') || l.trim().is_empty() {
            continue;
        }
        let mut it = l.split_whitespace();
        let parsed = (|| {
            let u: u32 = it.next()?.parse().ok()?;
            let v: u32 = it.next()?.parse().ok()?;
            (u < n && v < n).then_some((u, v))
        })();
        match parsed {
            Some(arc) => out.push(arc),
            None => skipped += 1,
        }
    }
    skipped
}

/// Decodes LE arc pairs into `out`, dropping and counting arcs that
/// reference vertices `>= n` (corrupt or foreign entries).
///
/// The common case — a well-formed store where every id is in range — is
/// detected with one vectorized [`max_arc_id`] scan and then decoded
/// through the unfiltered [`decode_arcs_into`] bulk path; only a slice
/// that actually contains foreign ids pays the per-pair range check.
fn decode_bin_arcs(out: &mut Vec<(VertexId, VertexId)>, bytes: &[u8], n: u32) -> u64 {
    match max_arc_id(bytes) {
        None => 0,
        Some(max) if max < n => {
            decode_arcs_into(bytes, out);
            0
        }
        Some(_) => {
            let mut skipped = 0u64;
            out.reserve(bytes.len() / ARC_BYTES);
            for (u, v) in decode_arcs(bytes) {
                if u < n && v < n {
                    out.push((u, v));
                } else {
                    skipped += 1;
                }
            }
            skipped
        }
    }
}

/// Splits the store's bucket concatenation into `k` record-aligned chunks,
/// each a list of byte-range slices `(bucket, start, end)`. Records never
/// span buckets, so alignment happens within a bucket: text chunks end at
/// a newline, binary chunks at an arc-pair boundary.
fn chunk_ranges(store: &Datastore, k: usize) -> Vec<Vec<(u32, usize, usize)>> {
    let b = store.num_buckets() as usize;
    let lens: Vec<usize> = (0..b as u32).map(|i| store.bucket_byte_len(i)).collect();
    let total: usize = lens.iter().sum();
    // (bucket, offset) cut points, monotone, first = start, last = end.
    let mut cuts: Vec<(usize, usize)> = Vec::with_capacity(k + 1);
    cuts.push((0, 0));
    for i in 1..k {
        let mut target = total * i / k;
        // Locate the bucket containing the global offset `target`.
        let mut bucket = 0usize;
        while bucket < b && target >= lens[bucket] {
            target -= lens[bucket];
            bucket += 1;
        }
        let cut = if bucket >= b {
            (b, 0)
        } else {
            // Align forward to the next record boundary inside the bucket.
            let aligned = match store {
                Datastore::Text(s) => s.buckets[bucket][target..]
                    .find('\n')
                    .map(|p| target + p + 1)
                    .unwrap_or(lens[bucket]),
                Datastore::Binary(_) | Datastore::Mapped(_) => {
                    target.div_ceil(ARC_BYTES) * ARC_BYTES
                }
            };
            if aligned >= lens[bucket] {
                (bucket + 1, 0)
            } else {
                (bucket, aligned)
            }
        };
        cuts.push(cut.max(*cuts.last().expect("non-empty")));
    }
    cuts.push((b, 0));

    cuts.windows(2)
        .map(|w| {
            let ((b0, o0), (b1, o1)) = (w[0], w[1]);
            let mut slices = Vec::new();
            let mut push = |bucket: usize, start: usize, end: usize| {
                if start < end {
                    slices.push((bucket as u32, start, end));
                }
            };
            if b0 == b1 {
                push(b0, o0, o1);
            } else {
                if b0 < b {
                    push(b0, o0, lens[b0]);
                }
                for (mid, &len) in lens.iter().enumerate().take(b1.min(b)).skip(b0 + 1) {
                    push(mid, 0, len);
                }
                if b1 < b {
                    push(b1, 0, o1);
                }
            }
            slices
        })
        .collect()
}

/// Parses one chunk (a list of byte ranges) into arcs + skip count.
fn parse_chunk(
    store: &Datastore,
    ranges: &[(u32, usize, usize)],
    n: u32,
) -> (Vec<(VertexId, VertexId)>, u64) {
    let bytes: usize = ranges.iter().map(|&(_, s, e)| e - s).sum();
    let _span = obs::span("decode", "loader").arg("bytes", bytes as u64);
    let mut arcs = Vec::new();
    let mut skipped = 0u64;
    for &(bucket, start, end) in ranges {
        skipped += match store {
            Datastore::Text(s) => {
                parse_text_arcs(&mut arcs, &s.buckets[bucket as usize][start..end], n)
            }
            _ => decode_bin_arcs(
                &mut arcs,
                &store.arc_bucket_bytes(bucket).expect("binary store")[start..end],
                n,
            ),
        };
    }
    (arcs, skipped)
}

// ---------------------------------------------------------------------------
// Counting-sort assembly.
// ---------------------------------------------------------------------------

/// One worker's loaded state: its owned (active) vertices and their
/// adjacency, as a CSR-shaped offsets+neighbors slab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedWorker {
    /// Worker id.
    pub worker: u32,
    /// Owned vertices with at least one out-neighbor, ascending.
    vertices: Vec<VertexId>,
    /// `offsets[i]..offsets[i + 1]` indexes `neighbors` for `vertices[i]`.
    offsets: Vec<usize>,
    /// Concatenated out-neighbor lists, each sorted.
    neighbors: Vec<VertexId>,
}

impl LoadedWorker {
    /// Number of (active) vertices this worker loaded.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of loaded arcs (adjacency entries).
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// The loaded vertices, ascending.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Iterates `(vertex, out-neighbors)` in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, &self.neighbors[self.offsets[i]..self.offsets[i + 1]]))
    }
}

/// Per-worker slot layout derived from the vertex ownership once per load:
/// the id space is dense `u32`, so each worker's owned vertices map to a
/// contiguous slot range and arcs counting-sort straight into place.
struct AssemblyPlan {
    owner: Vec<u32>,
    slot_of: Vec<u32>,
    verts: Vec<Vec<VertexId>>,
}

impl AssemblyPlan {
    fn new(num_workers: u32, owner: Vec<u32>) -> Self {
        let _span = obs::span("plan", "loader")
            .arg("workers", num_workers as u64)
            .arg("vertices", owner.len() as u64);
        let mut counts = vec![0usize; num_workers as usize];
        for &w in &owner {
            counts[w as usize] += 1;
        }
        let mut verts: Vec<Vec<VertexId>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut slot_of = vec![0u32; owner.len()];
        for (v, &w) in owner.iter().enumerate() {
            slot_of[v] = verts[w as usize].len() as u32;
            verts[w as usize].push(v as VertexId);
        }
        AssemblyPlan {
            owner,
            slot_of,
            verts,
        }
    }

    fn from_partitioning(p: &Partitioning) -> Self {
        Self::new(p.num_parts(), p.assignment().to_vec())
    }

    fn num_workers(&self) -> u32 {
        self.verts.len() as u32
    }
}

/// Borrowed arc source for one worker's assembly: routed parsed pairs, or
/// raw binary bucket slices iterated in place (the zero-copy micro path —
/// the counting and scatter passes both decode straight off the bytes).
enum WorkerArcs<'a> {
    Owned(Vec<(VertexId, VertexId)>),
    Bytes(Vec<&'a [u8]>),
}

/// Arc pairs bulk-decoded per block on the byte-backed assembly path:
/// large enough to amortize the block loop, small enough (64 KB of decoded
/// pairs) that the scatter reads the decoded block back out of cache.
const DECODE_BLOCK_ARCS: usize = 8192;

impl WorkerArcs<'_> {
    fn for_each(&self, mut f: impl FnMut(VertexId, VertexId)) {
        match self {
            WorkerArcs::Owned(arcs) => {
                for &(u, v) in arcs {
                    f(u, v);
                }
            }
            WorkerArcs::Bytes(slices) => {
                // Bulk path: decode a block of pairs with the vectorized
                // decoder, then run the (random-access) consumer over the
                // cache-resident block — instead of interleaving per-pair
                // byte decoding with the consumer's scattered writes.
                let mut block: Vec<(VertexId, VertexId)> = Vec::with_capacity(DECODE_BLOCK_ARCS);
                for s in slices {
                    for chunk in s.chunks(DECODE_BLOCK_ARCS * ARC_BYTES) {
                        block.clear();
                        decode_arcs_into(chunk, &mut block);
                        for &(u, v) in &block {
                            f(u, v);
                        }
                    }
                }
            }
        }
    }
}

/// Builds one worker's CSR slab by two-pass counting sort: count degrees
/// per slot, prefix-sum into offsets, scatter neighbors into place. Arcs
/// that are out of range or routed to the wrong worker are dropped and
/// counted (they can only come from a corrupt store or bucket map).
fn assemble_worker(w: u32, arcs: &WorkerArcs<'_>, plan: &AssemblyPlan) -> (LoadedWorker, u64) {
    let _span = obs::span("assemble", "loader").arg("worker", w as u64);
    let my = &plan.verts[w as usize];
    let n = plan.owner.len() as u32;
    let mut deg = vec![0u32; my.len()];
    let mut dropped = 0u64;
    arcs.for_each(|u, v| {
        if u < n && v < n && plan.owner[u as usize] == w {
            deg[plan.slot_of[u as usize] as usize] += 1;
        } else {
            dropped += 1;
        }
    });
    let mut slot_off = Vec::with_capacity(my.len() + 1);
    let mut acc = 0usize;
    slot_off.push(0);
    for &d in &deg {
        acc += d as usize;
        slot_off.push(acc);
    }
    let mut neighbors = vec![0 as VertexId; acc];
    let mut cursor = slot_off.clone();
    arcs.for_each(|u, v| {
        if u < n && v < n && plan.owner[u as usize] == w {
            let s = plan.slot_of[u as usize] as usize;
            neighbors[cursor[s]] = v;
            cursor[s] += 1;
        }
    });
    // Compact to active vertices; our stores emit every vertex's arcs in
    // ascending target order, so the sort below is a no-op check unless
    // the store was produced externally.
    let active = deg.iter().filter(|&&d| d > 0).count();
    let mut vertices = Vec::with_capacity(active);
    let mut offsets = Vec::with_capacity(active + 1);
    offsets.push(0);
    for (s, &d) in deg.iter().enumerate() {
        if d == 0 {
            continue;
        }
        vertices.push(my[s]);
        let seg = &mut neighbors[slot_off[s]..slot_off[s + 1]];
        if seg.windows(2).any(|p| p[0] > p[1]) {
            seg.sort_unstable();
        }
        offsets.push(slot_off[s + 1]);
    }
    (
        LoadedWorker {
            worker: w,
            vertices,
            offsets,
            neighbors,
        },
        dropped,
    )
}

/// Routes encoded binary chunks straight into per-worker arc vectors:
/// a counting pass and a scatter pass, both decoding in place off the
/// mapped/owned bucket bytes. This replaces the old full-load pipeline of
/// decode-into-one-big-`Vec` + copy-into-per-worker-`Vec`s — the arcs are
/// materialized exactly once, in their destination vectors.
///
/// `chunks` pairs each byte slice with the worker that "parses" it (the
/// master for stream loading, the chunk's reader for hash loading), which
/// is what the exchange accounting is relative to. Returns the per-worker
/// arcs plus `(skipped, exchanged)`.
fn route_bin_chunks(
    chunks: &[(u32, &[u8])],
    plan: &AssemblyPlan,
    n: u32,
) -> (Vec<WorkerArcs<'static>>, u64, u64) {
    let total_arcs: usize = chunks.iter().map(|&(_, s)| s.len() / ARC_BYTES).sum();
    let total_bytes = total_arcs * ARC_BYTES;
    let _span = obs::span("route", "loader").arg("arcs", total_arcs as u64);
    let decode_span = obs::span("decode", "loader").arg("bytes", total_bytes as u64);
    let mut counts = vec![0usize; plan.num_workers() as usize];
    let mut skipped = 0u64;
    let mut exchanged = 0u64;
    // Counting pass: validity is one vectorized max-scan per chunk; a
    // clean chunk then counts owners off the source words alone.
    for &(parser, bytes) in chunks {
        if max_arc_id(bytes).is_none_or(|max| max < n) {
            for pair in bytes.chunks_exact(ARC_BYTES) {
                let u = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
                let w = plan.owner[u as usize];
                counts[w as usize] += 1;
                exchanged += u64::from(w != parser);
            }
        } else {
            for (u, v) in decode_arcs(bytes) {
                if u < n && v < n {
                    let w = plan.owner[u as usize];
                    counts[w as usize] += 1;
                    exchanged += u64::from(w != parser);
                } else {
                    skipped += 1;
                }
            }
        }
    }
    drop(decode_span);
    // Scatter pass: exact capacities, every arc decoded into its final
    // destination vector.
    let mut per: Vec<Vec<(VertexId, VertexId)>> =
        counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for &(_, bytes) in chunks {
        for (u, v) in decode_arcs(bytes) {
            if u < n && v < n {
                per[plan.owner[u as usize] as usize].push((u, v));
            }
        }
    }
    (
        per.into_iter().map(WorkerArcs::Owned).collect(),
        skipped,
        exchanged,
    )
}

/// Routes parsed arcs to their owning workers by counting sort (exact
/// per-worker capacity, one scatter pass).
fn route_by_owner(arcs: &[(VertexId, VertexId)], plan: &AssemblyPlan) -> Vec<WorkerArcs<'static>> {
    let _span = obs::span("route", "loader").arg("arcs", arcs.len() as u64);
    let mut counts = vec![0usize; plan.num_workers() as usize];
    for &(u, _) in arcs {
        counts[plan.owner[u as usize] as usize] += 1;
    }
    let mut per: Vec<Vec<(VertexId, VertexId)>> =
        counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for &(u, v) in arcs {
        per[plan.owner[u as usize] as usize].push((u, v));
    }
    per.into_iter().map(WorkerArcs::Owned).collect()
}

/// Assembles every worker's slab in parallel.
fn assemble_all(plan: &AssemblyPlan, per_worker: Vec<WorkerArcs<'_>>) -> (Vec<LoadedWorker>, u64) {
    let indexed: Vec<(u32, WorkerArcs<'_>)> = per_worker
        .into_iter()
        .enumerate()
        .map(|(w, a)| (w as u32, a))
        .collect();
    let built = par_map(&indexed, |(w, arcs)| assemble_worker(*w, arcs, plan));
    let mut dropped = 0u64;
    let mut workers = Vec::with_capacity(built.len());
    for (lw, d) in built {
        dropped += d;
        workers.push(lw);
    }
    (workers, dropped)
}

/// Accounting of a physical load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadStats {
    /// Raw bytes parsed across machines.
    pub bytes_parsed: u64,
    /// Arcs that had to move between the parsing worker and the owning
    /// worker (the shuffle volume; zero for micro loading).
    pub arcs_exchanged: u64,
    /// Input records dropped instead of loaded: unparseable text lines,
    /// arcs referencing out-of-range vertices, or arcs found in a bucket
    /// routed to the wrong worker. Zero on a well-formed store; the figure
    /// binaries assert this.
    pub lines_skipped: u64,
    /// Transient shard-read faults retried away (fault-aware loads only).
    pub retries: u64,
    /// Accounted retry/delay backoff in nanoseconds. Never slept here —
    /// the simulation bills it to its own clock.
    pub backoff_ns: u64,
}

impl LoadStats {
    /// Field-wise sum — the accounting of two load attempts that both
    /// happened (e.g. an aborted binary load plus its text fallback).
    pub fn merged(self, other: LoadStats) -> LoadStats {
        LoadStats {
            bytes_parsed: self.bytes_parsed + other.bytes_parsed,
            arcs_exchanged: self.arcs_exchanged + other.arcs_exchanged,
            lines_skipped: self.lines_skipped + other.lines_skipped,
            retries: self.retries + other.retries,
            backoff_ns: self.backoff_ns + other.backoff_ns,
        }
    }
}

/// Physical loads performed, by loader strategy.
pub static M_LOADS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_loads_total",
    help: "Physical graph loads performed.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Raw store bytes parsed, by loader strategy.
pub static M_BYTES_PARSED: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_bytes_parsed_total",
    help: "Raw store bytes parsed by the loaders.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Arcs shuffled between parsing and owning workers.
pub static M_ARCS_EXCHANGED: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_arcs_exchanged_total",
    help: "Arcs moved between the parsing worker and the owning worker.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Input records dropped instead of loaded.
pub static M_RECORDS_SKIPPED: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_records_skipped_total",
    help: "Input records dropped instead of loaded.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Transient shard-read faults retried away.
pub static M_LOAD_RETRIES: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_retries_total",
    help: "Transient shard-read faults retried away during loading.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};
/// Accounted retry-backoff seconds (simulated, not slept).
pub static M_LOAD_BACKOFF_SECONDS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_loader_backoff_seconds_total",
    help: "Accounted (simulated) retry-backoff seconds during loading.",
    kind: hm::MetricKind::Counter,
    buckets: &[],
    nondeterministic: false,
};

/// Folds one physical load's accounting into the metrics registry,
/// labelled by loader strategy. Every quantity here is derived from the
/// input bytes — deterministic across schedulers.
fn record_load(loader: &'static str, stats: &LoadStats) {
    if !hm::enabled() {
        return;
    }
    let labels: &[(&str, &str)] = &[("loader", loader)];
    hm::add(&M_LOADS, labels, 1);
    hm::add(&M_BYTES_PARSED, labels, stats.bytes_parsed);
    hm::add(&M_ARCS_EXCHANGED, labels, stats.arcs_exchanged);
    hm::add(&M_RECORDS_SKIPPED, labels, stats.lines_skipped);
    hm::add(&M_LOAD_RETRIES, labels, stats.retries);
    hm::addf(
        &M_LOAD_BACKOFF_SECONDS,
        labels,
        stats.backoff_ns as f64 / 1e9,
    );
}

// ---------------------------------------------------------------------------
// Physical loaders.
// ---------------------------------------------------------------------------

/// Stream loading: one machine parses everything, then entities are handed
/// to their owners.
pub fn stream_load(
    store: &Datastore,
    partitioning: &Partitioning,
) -> (Vec<LoadedWorker>, LoadStats) {
    let _span = obs::span("stream_load", "loader")
        .arg("bytes", store.byte_size() as u64)
        .arg("workers", partitioning.num_parts() as u64);
    let n = partitioning.num_vertices() as u32;
    let plan = AssemblyPlan::from_partitioning(partitioning);
    let (per_worker, skipped, exchanged) = match store {
        Datastore::Text(_) => {
            // The master reads every bucket in order: one sequential parse.
            let mut arcs = Vec::new();
            let mut skipped = 0u64;
            for b in 0..store.num_buckets() {
                let len = store.bucket_byte_len(b);
                let (mut a, s) = parse_chunk(store, &[(b, 0, len)], n);
                arcs.append(&mut a);
                skipped += s;
            }
            let exchanged = arcs
                .iter()
                .filter(|&&(u, _)| plan.owner[u as usize] != 0)
                .count() as u64;
            let per_worker = route_by_owner(&arcs, &plan);
            (per_worker, skipped, exchanged)
        }
        _ => {
            // Binary: the master's sequential parse routes straight off
            // the bucket bytes — no intermediate all-arcs vector.
            let chunks: Vec<(u32, &[u8])> = (0..store.num_buckets())
                .map(|b| (0, store.arc_bucket_bytes(b).expect("binary store")))
                .collect();
            route_bin_chunks(&chunks, &plan, n)
        }
    };
    let (workers, dropped) = assemble_all(&plan, per_worker);
    let stats = LoadStats {
        bytes_parsed: store.byte_size() as u64,
        arcs_exchanged: exchanged,
        lines_skipped: skipped + dropped,
        ..LoadStats::default()
    };
    record_load("stream", &stats);
    (workers, stats)
}

/// Hash loading: the store is split into `k` record-aligned chunks, each
/// parsed by one worker in parallel; arcs are then shuffled to their
/// owners.
pub fn hash_load(store: &Datastore, partitioning: &Partitioning) -> (Vec<LoadedWorker>, LoadStats) {
    let _span = obs::span("hash_load", "loader")
        .arg("bytes", store.byte_size() as u64)
        .arg("workers", partitioning.num_parts() as u64);
    let n = partitioning.num_vertices() as u32;
    let k = partitioning.num_parts() as usize;
    let plan = AssemblyPlan::from_partitioning(partitioning);
    let chunks = chunk_ranges(store, k);
    let (per_worker, skipped, exchanged) = match store {
        Datastore::Text(_) => {
            let parsed: Vec<(Vec<(VertexId, VertexId)>, u64)> =
                par_map(&chunks, |ranges| parse_chunk(store, ranges, n));
            let mut exchanged = 0u64;
            let mut skipped = 0u64;
            let mut all = Vec::with_capacity(parsed.iter().map(|(a, _)| a.len()).sum());
            for (parser, (arcs, s)) in parsed.into_iter().enumerate() {
                skipped += s;
                for &(u, _) in &arcs {
                    if plan.owner[u as usize] as usize != parser {
                        exchanged += 1;
                    }
                }
                all.extend(arcs);
            }
            let per_worker = route_by_owner(&all, &plan);
            (per_worker, skipped, exchanged)
        }
        _ => {
            // Binary: each parser's record-aligned byte ranges route
            // straight into the per-worker vectors — the shuffle is the
            // scatter itself, with no concatenated intermediate vector.
            let flat: Vec<(u32, &[u8])> = chunks
                .iter()
                .enumerate()
                .flat_map(|(parser, ranges)| {
                    ranges.iter().map(move |&(bucket, start, end)| {
                        let bytes = store.arc_bucket_bytes(bucket).expect("binary store");
                        (parser as u32, &bytes[start..end])
                    })
                })
                .collect();
            route_bin_chunks(&flat, &plan, n)
        }
    };
    let (workers, dropped) = assemble_all(&plan, per_worker);
    let stats = LoadStats {
        bytes_parsed: store.byte_size() as u64,
        arcs_exchanged: exchanged,
        lines_skipped: skipped + dropped,
        ..LoadStats::default()
    };
    record_load("hash", &stats);
    (workers, stats)
}

/// Micro loading: each worker reads exactly the buckets of the
/// micro-partitions assigned to it — parallel, with **zero** exchange
/// (parallel recovery, §6.2). On a binary store each bucket is consumed
/// as a raw byte slice: the counting and scatter passes decode arcs in
/// place, copying nothing.
pub fn micro_load(
    store: &Datastore,
    micro: &Partitioning,
    micro_to_worker: &[u32],
    num_workers: u32,
) -> Result<(Vec<LoadedWorker>, LoadStats)> {
    micro_load_faulty(store, micro, micro_to_worker, num_workers, None)
}

/// Fault-injection context for the resilient (re)load path: the shared
/// [`FaultInjector`] consulted at [`Site::ShardRead`] plus the retry
/// bound/backoff applied to faulted bucket reads.
pub struct ReloadFaults {
    /// Shared injector — per-site call counters live here, so one
    /// `ReloadFaults` must span one logical reload.
    pub injector: std::sync::Arc<FaultInjector>,
    /// Bounded retries with deterministic backoff.
    pub retry: RetryPolicy,
}

impl ReloadFaults {
    /// Faults drawn from `plan` with its retry policy.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        ReloadFaults {
            injector: std::sync::Arc::new(plan.injector()),
            retry: RetryPolicy::from_plan(plan),
        }
    }

    /// Per-run variant for sweeps: same plan, run-decorrelated stream.
    pub fn for_run(plan: &FaultPlan, run: u32) -> Self {
        ReloadFaults {
            injector: std::sync::Arc::new(plan.injector_for_run(run)),
            retry: RetryPolicy::from_plan(plan),
        }
    }
}

/// Deterministic fault pre-pass over a set of shard reads: consults
/// [`Site::ShardRead`] once per listed bucket, in the given order,
/// retry-accounting every injected fault. Returns `(retries, backoff_ns)`
/// on success. A bucket still unreadable after [`RetryPolicy::attempts`]
/// tries aborts with the typed error *plus* the accounting spent so far —
/// the final failed try is itself counted as a consumed retry, so a caller
/// that merges this into a fallback attempt's stats sees every try that
/// actually happened.
fn shard_fault_prepass(
    store: &Datastore,
    buckets: &[u32],
    faults: Option<&ReloadFaults>,
) -> std::result::Result<(u64, u64), (EngineError, LoadStats)> {
    let mut retries = 0u64;
    let mut backoff_ns = 0u64;
    if let Some(f) = faults {
        for &b in buckets {
            let len = store.bucket_byte_len(b) as u64;
            let mut attempt: u32 = 0;
            loop {
                match f.injector.next(Site::ShardRead, Op::len(len)) {
                    None => break,
                    Some(FaultKind::Delay { ns }) => {
                        backoff_ns += ns;
                        break;
                    }
                    Some(_) => {
                        attempt += 1;
                        if attempt >= f.retry.attempts {
                            retries += 1;
                            return Err((
                                EngineError::ShardRead {
                                    bucket: b,
                                    attempts: attempt,
                                },
                                LoadStats {
                                    retries,
                                    backoff_ns,
                                    ..LoadStats::default()
                                },
                            ));
                        }
                        retries += 1;
                        backoff_ns += f.retry.backoff_ns(attempt - 1);
                    }
                }
            }
        }
    }
    Ok((retries, backoff_ns))
}

/// [`micro_load`] with an optional fault plan applied to the shard reads.
///
/// Fault decisions are drawn in a **sequential pre-pass** over buckets in
/// global bucket order, before the parallel read phase — parallel worker
/// scheduling therefore never perturbs which bucket a rule hits, keeping
/// the outcome a pure function of the plan. Every injected fault at this
/// seam surfaces as a *detected* read failure (`HGS2` bucket checksums
/// turn bit flips and torn reads into verification errors), so the
/// uniform response is retry-with-backoff; a bucket still unreadable
/// after [`RetryPolicy::attempts`] tries yields a typed
/// [`EngineError::ShardRead`] — never a silently short graph.
pub fn micro_load_faulty(
    store: &Datastore,
    micro: &Partitioning,
    micro_to_worker: &[u32],
    num_workers: u32,
    faults: Option<&ReloadFaults>,
) -> Result<(Vec<LoadedWorker>, LoadStats)> {
    micro_load_faulty_impl(store, micro, micro_to_worker, num_workers, faults)
        .map_err(|(e, _partial)| e)
}

/// The body of [`micro_load_faulty`]; the error side carries the
/// [`LoadStats`] accounted before the load aborted (retries spent and
/// backoff accrued on every bucket up to and including the one that
/// exhausted its attempts), so resilient callers can merge the aborted
/// attempt into the fallback attempt's accounting instead of dropping it.
fn micro_load_faulty_impl(
    store: &Datastore,
    micro: &Partitioning,
    micro_to_worker: &[u32],
    num_workers: u32,
    faults: Option<&ReloadFaults>,
) -> std::result::Result<(Vec<LoadedWorker>, LoadStats), (EngineError, LoadStats)> {
    let _span = obs::span("micro_load", "loader")
        .arg("bytes", store.byte_size() as u64)
        .arg("workers", num_workers as u64)
        .arg("micros", micro.num_parts() as u64);
    let invalid = |m: String| (EngineError::InvalidConfig(m), LoadStats::default());
    let buckets = store.num_buckets();
    if buckets < 2 && micro.num_parts() >= 2 {
        return Err(invalid("store has no micro-partition buckets".into()));
    }
    if micro_to_worker.len() != buckets as usize || buckets != micro.num_parts() {
        return Err(invalid(format!(
            "micro map covers {} micros, store has {} buckets",
            micro_to_worker.len(),
            buckets
        )));
    }
    if let Some(&bad) = micro_to_worker.iter().find(|&&w| w >= num_workers) {
        return Err(invalid(format!(
            "micro map references worker {bad} of {num_workers}"
        )));
    }
    if let Some(nv) = store.binary_num_vertices() {
        if nv as usize != micro.num_vertices() {
            return Err(invalid(format!(
                "binary store indexes {nv} vertices, micro partitioning has {}",
                micro.num_vertices()
            )));
        }
    }
    // Deterministic fault pre-pass: one consult loop per bucket, in
    // global bucket order, independent of worker scheduling.
    let all_buckets: Vec<u32> = (0..buckets).collect();
    let (fault_retries, fault_backoff_ns) = shard_fault_prepass(store, &all_buckets, faults)?;

    let n = micro.num_vertices() as u32;
    // Ownership = micro assignment composed with the micro→worker map.
    let owner: Vec<u32> = micro
        .assignment()
        .iter()
        .map(|&m| micro_to_worker[m as usize])
        .collect();
    let plan = AssemblyPlan::new(num_workers, owner);

    // Group buckets per worker (each worker reads exactly its shards).
    let mut per_worker_buckets: Vec<Vec<u32>> = (0..num_workers).map(|_| Vec::new()).collect();
    for (m, &w) in micro_to_worker.iter().enumerate() {
        per_worker_buckets[w as usize].push(m as u32);
    }

    let indexed: Vec<(u32, &[u32])> = per_worker_buckets
        .iter()
        .enumerate()
        .map(|(w, bs)| (w as u32, bs.as_slice()))
        .collect();
    let built: Vec<(LoadedWorker, u64, u64)> = par_map(&indexed, |&(w, bucket_ids)| {
        let bytes: u64 = bucket_ids
            .iter()
            .map(|&b| store.bucket_byte_len(b) as u64)
            .sum();
        let (arcs, parse_skipped) = {
            let _span = obs::span("shard_read", "loader")
                .arg("worker", w as u64)
                .arg("bytes", bytes)
                .arg("shards", bucket_ids.len() as u64);
            match store {
                Datastore::Text(s) => {
                    let mut out = Vec::new();
                    let mut skipped = 0u64;
                    for &b in bucket_ids {
                        skipped += parse_text_arcs(&mut out, &s.buckets()[b as usize], n);
                    }
                    (WorkerArcs::Owned(out), skipped)
                }
                _ => (
                    WorkerArcs::Bytes(
                        bucket_ids
                            .iter()
                            .map(|&b| store.arc_bucket_bytes(b).expect("binary store"))
                            .collect(),
                    ),
                    0,
                ),
            }
        };
        let (lw, dropped) = assemble_worker(w, &arcs, &plan);
        (lw, parse_skipped + dropped, bytes)
    });

    let mut workers = Vec::with_capacity(built.len());
    let mut skipped = 0u64;
    let mut bytes = 0u64;
    for (lw, s, b) in built {
        workers.push(lw);
        skipped += s;
        bytes += b;
    }
    let stats = LoadStats {
        bytes_parsed: bytes,
        arcs_exchanged: 0,
        lines_skipped: skipped,
        retries: fault_retries,
        backoff_ns: fault_backoff_ns,
    };
    record_load("micro", &stats);
    Ok((workers, stats))
}

/// Merges the retained slice of an old worker slab with the freshly
/// assembled gained vertices into one CSR slab. The two vertex sets are
/// disjoint — a vertex's micro-partition either stayed with the worker or
/// moved in from elsewhere — so this is a two-pointer merge of sorted runs
/// with no store IO at all.
fn merge_retained(
    w: u32,
    old: Option<&LoadedWorker>,
    keep: impl Fn(VertexId) -> bool,
    fresh: LoadedWorker,
) -> LoadedWorker {
    let Some(old) = old else {
        return fresh;
    };
    let (retained_verts, retained_arcs) = {
        let mut verts = 0usize;
        let mut arcs = 0usize;
        for (i, &v) in old.vertices.iter().enumerate() {
            if keep(v) {
                verts += 1;
                arcs += old.offsets[i + 1] - old.offsets[i];
            }
        }
        (verts, arcs)
    };
    if retained_verts == 0 {
        return fresh;
    }
    let mut vertices = Vec::with_capacity(retained_verts + fresh.vertices.len());
    let mut offsets = Vec::with_capacity(retained_verts + fresh.vertices.len() + 1);
    let mut neighbors: Vec<VertexId> = Vec::with_capacity(retained_arcs + fresh.neighbors.len());
    offsets.push(0);
    let emit_fresh = |j: usize, neighbors: &mut Vec<VertexId>, offsets: &mut Vec<usize>| {
        neighbors.extend_from_slice(&fresh.neighbors[fresh.offsets[j]..fresh.offsets[j + 1]]);
        offsets.push(neighbors.len());
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.vertices.len() {
        if !keep(old.vertices[i]) {
            i += 1;
            continue;
        }
        while j < fresh.vertices.len() && fresh.vertices[j] < old.vertices[i] {
            vertices.push(fresh.vertices[j]);
            emit_fresh(j, &mut neighbors, &mut offsets);
            j += 1;
        }
        // Maximal run of consecutive retained vertices with no fresh vertex
        // interleaved: their neighbor slices are adjacent in the old CSR
        // slab, so the whole run's arcs move in one bulk copy.
        let fence = fresh.vertices.get(j).copied().unwrap_or(VertexId::MAX);
        let mut end = i + 1;
        while end < old.vertices.len() && old.vertices[end] < fence && keep(old.vertices[end]) {
            end += 1;
        }
        let arc_base = neighbors.len();
        let run_start = old.offsets[i];
        neighbors.extend_from_slice(&old.neighbors[run_start..old.offsets[end]]);
        vertices.extend_from_slice(&old.vertices[i..end]);
        offsets.extend((i + 1..=end).map(|t| arc_base + (old.offsets[t] - run_start)));
        i = end;
    }
    while j < fresh.vertices.len() {
        vertices.push(fresh.vertices[j]);
        emit_fresh(j, &mut neighbors, &mut offsets);
        j += 1;
    }
    LoadedWorker {
        worker: w,
        vertices,
        offsets,
        neighbors,
    }
}

/// Delta migration (the O(delta) reconfiguration path, §6.2 extended):
/// transitions loaded worker slabs from one clustering to another by
/// re-reading **only the moved micro-partitions' buckets** and rebuilding
/// **only the affected workers' CSR slabs**. Unchanged workers — those
/// that neither gained nor lost a micro-partition — keep their slabs
/// untouched (they are moved through, not copied, parsed or re-read).
///
/// `micro_to_worker` is the **new** clustering's micro→worker map;
/// `old_workers` are the slabs of the previous deployment, consumed by the
/// migration. Store IO is proportional to
/// [`ClusteringDelta::moved_fraction`], which is what lets the EC model
/// price a voluntary reconfiguration far below a full reload.
pub fn delta_load(
    store: &Datastore,
    micro: &Partitioning,
    delta: &ClusteringDelta,
    micro_to_worker: &[u32],
    old_workers: Vec<LoadedWorker>,
) -> Result<(Vec<LoadedWorker>, LoadStats)> {
    delta_load_faulty(store, micro, delta, micro_to_worker, old_workers, None)
}

/// [`delta_load`] with an optional fault plan applied to the shard reads.
///
/// Only the *moved* buckets are read, so only they consult the injector —
/// in global bucket order, same as [`micro_load_faulty`]. A moved bucket
/// that exhausts its retries yields the typed [`EngineError::ShardRead`];
/// callers fall back to a full reload (the old slabs are gone, but the
/// store still holds everything).
pub fn delta_load_faulty(
    store: &Datastore,
    micro: &Partitioning,
    delta: &ClusteringDelta,
    micro_to_worker: &[u32],
    old_workers: Vec<LoadedWorker>,
    faults: Option<&ReloadFaults>,
) -> Result<(Vec<LoadedWorker>, LoadStats)> {
    let k_to = delta.to_workers();
    let k_from = delta.from_workers();
    let buckets = store.num_buckets();
    if buckets != micro.num_parts() || buckets != delta.num_micro() {
        return Err(EngineError::InvalidConfig(format!(
            "delta covers {} micros, store has {} buckets, partitioning {}",
            delta.num_micro(),
            buckets,
            micro.num_parts()
        )));
    }
    if micro_to_worker.len() != buckets as usize {
        return Err(EngineError::InvalidConfig(format!(
            "micro map covers {} micros, store has {buckets} buckets",
            micro_to_worker.len()
        )));
    }
    if let Some(&bad) = micro_to_worker.iter().find(|&&w| w >= k_to) {
        return Err(EngineError::InvalidConfig(format!(
            "micro map references worker {bad} of {k_to}"
        )));
    }
    if old_workers.len() != k_from as usize {
        return Err(EngineError::InvalidConfig(format!(
            "migration from {} workers got {} old slabs",
            k_from,
            old_workers.len()
        )));
    }
    for (w, lw) in old_workers.iter().enumerate() {
        if lw.worker != w as u32 {
            return Err(EngineError::InvalidConfig(format!(
                "old slab {w} carries worker id {}",
                lw.worker
            )));
        }
    }
    for mv in delta.moved() {
        if micro_to_worker[mv.micro as usize] != mv.to {
            return Err(EngineError::InvalidConfig(format!(
                "delta moves micro {} to worker {}, map says {}",
                mv.micro, mv.to, micro_to_worker[mv.micro as usize]
            )));
        }
    }
    if let Some(nv) = store.binary_num_vertices() {
        if nv as usize != micro.num_vertices() {
            return Err(EngineError::InvalidConfig(format!(
                "binary store indexes {nv} vertices, micro partitioning has {}",
                micro.num_vertices()
            )));
        }
    }

    /// Below this many moved bytes the rebuild runs on the calling thread:
    /// an OS thread spawn costs tens of microseconds, which dwarfs the
    /// decode+merge of a handful of micro-partition buckets and would
    /// erase the delta path's advantage over a full reload.
    const DELTA_PARALLEL_MIN_BYTES: u64 = 8 << 20;

    let moved_bytes: u64 = delta
        .moved()
        .iter()
        .map(|mv| store.bucket_byte_len(mv.micro) as u64)
        .sum();
    let _span = obs::span("delta_load", "loader")
        .arg("moved", delta.moved().len() as u64)
        .arg("micros", buckets as u64)
        .arg("bytes", moved_bytes);

    // Plan: which workers rebuild, and which buckets each one gains.
    let (gained, affected) = {
        let _plan_span = obs::span("delta_plan", "loader")
            .arg("moved", delta.moved().len() as u64)
            .arg("workers", k_to as u64);
        let mut gained: Vec<Vec<u32>> = (0..k_to).map(|_| Vec::new()).collect();
        let mut affected = vec![false; k_to.max(k_from) as usize];
        for mv in delta.moved() {
            gained[mv.to as usize].push(mv.micro);
            affected[mv.to as usize] = true;
            affected[mv.from as usize] = true;
        }
        (gained, affected)
    };

    // Fault pre-pass over the moved buckets only — the unmoved ones are
    // never read, so they cannot fault.
    let moved_ids: Vec<u32> = delta.moved().iter().map(|mv| mv.micro).collect();
    let (fault_retries, fault_backoff_ns) =
        shard_fault_prepass(store, &moved_ids, faults).map_err(|(e, _)| e)?;

    let n = micro.num_vertices() as u32;
    let owner: Vec<u32> = micro
        .assignment()
        .iter()
        .map(|&m| micro_to_worker[m as usize])
        .collect();
    let plan = AssemblyPlan::new(k_to, owner);

    let mut old_slots: Vec<Option<LoadedWorker>> = old_workers.into_iter().map(Some).collect();
    let mut gained = gained;
    let rebuild: Vec<(u32, Vec<u32>, Option<LoadedWorker>)> = (0..k_to)
        .filter(|&w| affected[w as usize])
        .map(|w| {
            let old = old_slots.get_mut(w as usize).and_then(|slot| slot.take());
            (w, std::mem::take(&mut gained[w as usize]), old)
        })
        .collect();

    // One thread per rebuilt worker only pays off when there is real
    // decode work to hide; a small delta rebuilds on the calling thread
    // (the spawn alone costs more than shipping a few buckets).
    let parallel = moved_bytes >= DELTA_PARALLEL_MIN_BYTES;
    let built: Vec<(LoadedWorker, u64, u64)> =
        par_map_when(parallel, &rebuild, |(w, bucket_ids, old)| {
            let w = *w;
            let bytes: u64 = bucket_ids
                .iter()
                .map(|&b| store.bucket_byte_len(b) as u64)
                .sum();
            // Ship: read exactly the gained buckets (bucket m holds the arcs
            // whose source lives in micro m, so every arc here belongs to w).
            let (arcs, parse_skipped) = {
                let _span = obs::span("delta_ship", "loader")
                    .arg("worker", w as u64)
                    .arg("bytes", bytes)
                    .arg("shards", bucket_ids.len() as u64);
                match store {
                    Datastore::Text(s) => {
                        let mut out = Vec::new();
                        let mut skipped = 0u64;
                        for &b in bucket_ids {
                            skipped += parse_text_arcs(&mut out, &s.buckets()[b as usize], n);
                        }
                        (WorkerArcs::Owned(out), skipped)
                    }
                    _ => (
                        WorkerArcs::Bytes(
                            bucket_ids
                                .iter()
                                .map(|&b| store.arc_bucket_bytes(b).expect("binary store"))
                                .collect(),
                        ),
                        0,
                    ),
                }
            };
            // A worker that only loses micros gains no arcs; skip the
            // counting-sort entirely instead of running it over zero input.
            let (fresh, dropped) = if bucket_ids.is_empty() {
                (
                    LoadedWorker {
                        worker: w,
                        vertices: Vec::new(),
                        offsets: vec![0],
                        neighbors: Vec::new(),
                    },
                    0,
                )
            } else {
                assemble_worker(w, &arcs, &plan)
            };
            let gained_arcs = fresh.num_arcs() as u64;
            // Assemble: splice the retained slices of the old slab (no IO)
            // with the freshly decoded gained vertices.
            let merged = {
                let _span = obs::span("delta_assemble", "loader")
                    .arg("worker", w as u64)
                    .arg("gained_arcs", gained_arcs);
                merge_retained(w, old.as_ref(), |v| plan.owner[v as usize] == w, fresh)
            };
            (merged, parse_skipped + dropped, gained_arcs)
        });

    let mut rebuilt: Vec<Option<LoadedWorker>> = (0..k_to).map(|_| None).collect();
    let mut skipped = 0u64;
    let mut arcs_exchanged = 0u64;
    for (lw, s, a) in built {
        skipped += s;
        arcs_exchanged += a;
        let slot = lw.worker as usize;
        rebuilt[slot] = Some(lw);
    }
    let mut workers = Vec::with_capacity(k_to as usize);
    for w in 0..k_to as usize {
        let lw = if affected[w] {
            rebuilt[w].take().expect("affected worker was rebuilt")
        } else if w < old_slots.len() {
            // Unchanged: the previous deployment's slab moves through
            // untouched — no read, no parse, no copy.
            old_slots[w]
                .take()
                .expect("unchanged worker keeps its slab")
        } else {
            // A new worker that owns no micro-partitions at all.
            LoadedWorker {
                worker: w as u32,
                vertices: Vec::new(),
                offsets: vec![0],
                neighbors: Vec::new(),
            }
        };
        workers.push(lw);
    }
    let stats = LoadStats {
        bytes_parsed: moved_bytes,
        arcs_exchanged,
        lines_skipped: skipped,
        retries: fault_retries,
        backoff_ns: fault_backoff_ns,
    };
    record_load("delta", &stats);
    Ok((workers, stats))
}

/// Reloads the deployment graph from the binary fast-reload store,
/// degrading to text-store re-assembly when shards stay unreadable.
///
/// The happy path is [`micro_load_faulty`] over `binary` followed by
/// [`reload_graph`]. When a shard read exhausts its retries, the loader
/// emits a `degraded_reload` instant and falls back to the authoritative
/// text store (`text_fallback`), re-assembling the same per-worker slabs
/// the slow way; the returned flag reports whether the reload degraded.
/// With no fallback store available the typed error propagates.
pub fn reload_graph_resilient(
    binary: &Datastore,
    text_fallback: Option<&Datastore>,
    micro: &Partitioning,
    micro_to_worker: &[u32],
    num_workers: u32,
    directed: bool,
    faults: Option<&ReloadFaults>,
) -> Result<(Graph, LoadStats, bool)> {
    match micro_load_faulty_impl(binary, micro, micro_to_worker, num_workers, faults) {
        Ok((workers, stats)) => {
            let g = reload_graph(&workers, micro.num_vertices(), directed)?;
            Ok((g, stats, false))
        }
        Err((EngineError::ShardRead { bucket, attempts }, binary_stats)) => {
            let text = match text_fallback {
                Some(t) => t,
                None => return Err(EngineError::ShardRead { bucket, attempts }),
            };
            let mut args = obs::Args::new();
            args.push("bucket", bucket as u64);
            args.push("attempts", attempts as u64);
            obs::instant("degraded_reload", "loader", args);
            let (workers, text_stats) = micro_load(text, micro, micro_to_worker, num_workers)?;
            // Both attempts happened; account both — the aborted binary
            // attempt's retries and backoff plus the fallback's own stats.
            let stats = binary_stats.merged(text_stats);
            let g = reload_graph(&workers, micro.num_vertices(), directed)?;
            Ok((g, stats, true))
        }
        Err((e, _partial)) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Deployment.
// ---------------------------------------------------------------------------

/// Merges loaded worker slabs into the deployment-wide in-memory [`Graph`]
/// the engine executes on — the last step of the (re)load path. The CSR
/// arrays are assembled by the same counting-sort scheme: per-vertex
/// degrees from the slabs, prefix-sum, then each worker's neighbor block
/// is copied into place.
pub fn reload_graph(
    workers: &[LoadedWorker],
    num_vertices: usize,
    directed: bool,
) -> Result<Graph> {
    let _span = obs::span("reload_graph", "loader")
        .arg("workers", workers.len() as u64)
        .arg("vertices", num_vertices as u64);
    let mut degree = vec![0usize; num_vertices];
    // Worker vertex lists must tile the id space: a duplicated or
    // out-of-range vertex would silently double-count degrees and corrupt
    // the rebuilt CSR, so both are a typed error instead.
    let mut owner_seen = vec![false; num_vertices];
    for w in workers {
        for (i, &v) in w.vertices.iter().enumerate() {
            let vi = v as usize;
            if vi >= num_vertices || owner_seen[vi] {
                return Err(EngineError::SlabConflict {
                    vertex: v,
                    worker: w.worker,
                });
            }
            owner_seen[vi] = true;
            degree[vi] += w.offsets[i + 1] - w.offsets[i];
        }
    }
    let mut offsets = Vec::with_capacity(num_vertices + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        offsets.push(acc);
    }
    let mut targets = vec![0 as VertexId; acc];
    for w in workers {
        for (i, &v) in w.vertices.iter().enumerate() {
            let src = &w.neighbors[w.offsets[i]..w.offsets[i + 1]];
            let dst = offsets[v as usize];
            targets[dst..dst + src.len()].copy_from_slice(src);
        }
    }
    Graph::from_csr(offsets, targets, None, None, directed)
        .map_err(|e| EngineError::InvalidConfig(format!("reloaded graph: {e}")))
}

/// Merges loaded workers back into a global adjacency check-sum view (test
/// helper exposed for integration tests).
pub fn loaded_adjacency(workers: &[LoadedWorker]) -> Vec<(VertexId, Vec<VertexId>)> {
    let mut all: Vec<(VertexId, Vec<VertexId>)> = workers
        .iter()
        .flat_map(|w| w.iter().map(|(v, ns)| (v, ns.to_vec())))
        .collect();
    all.sort_by_key(|(v, _)| *v);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use hourglass_graph::generators;
    use hourglass_partition::cluster::cluster_micro_partitions;
    use hourglass_partition::micro::MicroPartitioner;
    use hourglass_partition::multilevel::Multilevel;
    use hourglass_partition::{hash::HashPartitioner, Partitioner};

    fn fixture() -> (Graph, Partitioning) {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 3).expect("gen");
        let p = HashPartitioner.partition(&g, 4).expect("partition");
        (g, p)
    }

    fn expected_adjacency(g: &Graph) -> Vec<(VertexId, Vec<VertexId>)> {
        (0..g.num_vertices() as u32)
            .filter(|&v| g.degree(v) > 0)
            .map(|v| (v, g.neighbors(v).to_vec()))
            .collect()
    }

    #[test]
    fn stream_and_hash_agree_with_graph_on_both_formats() {
        let (g, p) = fixture();
        let expect = expected_adjacency(&g);
        for store in [Datastore::text_flat(&g), Datastore::binary_flat(&g)] {
            let (sw, ss) = stream_load(&store, &p);
            let (hw, hs) = hash_load(&store, &p);
            assert_eq!(loaded_adjacency(&sw), expect, "{} stream", store.format());
            assert_eq!(loaded_adjacency(&hw), expect, "{} hash", store.format());
            assert_eq!(ss.bytes_parsed, store.byte_size() as u64);
            assert_eq!(hs.bytes_parsed, store.byte_size() as u64);
            assert_eq!(ss.lines_skipped, 0);
            assert_eq!(hs.lines_skipped, 0);
            assert!(hs.arcs_exchanged > 0, "hash loading must shuffle");
        }
    }

    #[test]
    fn micro_load_is_exchange_free_and_correct_on_both_formats() {
        let (g, _) = fixture();
        let mp = MicroPartitioner::new(Multilevel::new(), 16)
            .run(&g)
            .expect("micro");
        let clustering = cluster_micro_partitions(&mp, 4, 1).expect("cluster");
        for store in [
            Datastore::text_micro(&g, mp.micro()).expect("store"),
            Datastore::binary_micro(&g, mp.micro()).expect("store"),
        ] {
            let (mw, ms) =
                micro_load(&store, mp.micro(), clustering.micro_to_macro(), 4).expect("load");
            assert_eq!(ms.arcs_exchanged, 0);
            assert_eq!(ms.lines_skipped, 0);
            assert_eq!(loaded_adjacency(&mw), expected_adjacency(&g));
            // Ownership respects the clustering.
            for w in &mw {
                for (v, _) in w.iter() {
                    let micro = mp.micro().part_of(v);
                    assert_eq!(clustering.micro_to_macro()[micro as usize], w.worker);
                }
            }
        }
    }

    #[test]
    fn text_and_binary_loads_are_bit_identical() {
        let (g, p) = fixture();
        let text = Datastore::text_flat(&g);
        let bin = Datastore::binary_flat(&g);
        assert_eq!(
            loaded_adjacency(&stream_load(&text, &p).0),
            loaded_adjacency(&stream_load(&bin, &p).0)
        );
        assert_eq!(
            loaded_adjacency(&hash_load(&text, &p).0),
            loaded_adjacency(&hash_load(&bin, &p).0)
        );
        assert!(bin.byte_size() < text.byte_size() * 2, "sanity");
    }

    fn tmp_store_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hourglass-loaders-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn mapped_store_loads_identically_to_in_memory_binary() {
        let (g, p) = fixture();
        let bin = Datastore::binary_flat(&g);
        let path = tmp_store_path("flat");
        let mapped = Datastore::mapped_flat(&g, &path).expect("mapped");
        assert_eq!(mapped.format(), StoreFormat::BinaryMapped);
        assert_eq!(mapped.byte_size(), bin.byte_size());
        let (sw, ss) = stream_load(&bin, &p);
        let (mw, ms) = stream_load(&mapped, &p);
        assert_eq!(sw, mw, "stream slabs bit-identical");
        assert_eq!(ss, ms);
        let (hw, hs) = hash_load(&bin, &p);
        let (hmw, hms) = hash_load(&mapped, &p);
        assert_eq!(hw, hmw, "hash slabs bit-identical");
        assert_eq!(hs, hms);
        std::fs::remove_file(&path).ok();

        let mp = MicroPartitioner::new(Multilevel::new(), 16)
            .run(&g)
            .expect("micro");
        let c = cluster_micro_partitions(&mp, 4, 1).expect("cluster");
        let micro_bin = Datastore::binary_micro(&g, mp.micro()).expect("store");
        let path = tmp_store_path("micro");
        let micro_mapped = Datastore::mapped_micro(&g, mp.micro(), &path).expect("mapped");
        let (bw, bs) = micro_load(&micro_bin, mp.micro(), c.micro_to_macro(), 4).expect("load");
        let (mw, ms) = micro_load(&micro_mapped, mp.micro(), c.micro_to_macro(), 4).expect("load");
        assert_eq!(bw, mw, "micro slabs bit-identical");
        assert_eq!(bs, ms);
        assert_eq!(reload_graph(&mw, g.num_vertices(), false).expect("csr"), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_load_takes_the_mapped_path() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let path = tmp_store_path("delta");
        let mapped = Datastore::mapped_micro(&g, mp.micro(), &path).expect("mapped");
        let mut new_map = map.clone();
        new_map[3] = (new_map[3] + 1) % 4;
        new_map[11] = (new_map[11] + 2) % 4;
        let from = Clustering::from_micro_to_macro(&mp, map.clone(), 4).expect("clustering");
        let to = Clustering::from_micro_to_macro(&mp, new_map.clone(), 4).expect("clustering");
        let delta = ClusteringDelta::between(&mp, &from, &to).expect("delta");
        let (old_bin, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        let (old_mapped, _) = micro_load(&mapped, mp.micro(), &map, 4).expect("load");
        assert_eq!(old_bin, old_mapped);
        let (dbin, sbin) =
            delta_load(&bin, mp.micro(), &delta, &new_map, old_bin).expect("delta bin");
        let (dmap, smap) =
            delta_load(&mapped, mp.micro(), &delta, &new_map, old_mapped).expect("delta mapped");
        assert_eq!(dbin, dmap, "delta over mapped store bit-identical");
        assert_eq!(sbin, smap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_store_open_rejects_corruption() {
        let (g, _) = fixture();
        let path = tmp_store_path("corrupt");
        let _ = Datastore::mapped_flat(&g, &path).expect("mapped");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[5] ^= 1; // vertex-count header byte: metadata CRC trips
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(Datastore::mapped_from_path(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn micro_load_validates_inputs() {
        let (g, p) = fixture();
        for flat in [Datastore::text_flat(&g), Datastore::binary_flat(&g)] {
            assert!(micro_load(&flat, &p, &[0; 4], 4).is_err(), "no buckets");
        }
        let mp = MicroPartitioner::new(HashPartitioner, 16)
            .run(&g)
            .expect("micro");
        for store in [
            Datastore::text_micro(&g, mp.micro()).expect("store"),
            Datastore::binary_micro(&g, mp.micro()).expect("store"),
        ] {
            assert!(
                micro_load(&store, mp.micro(), &[0; 3], 4).is_err(),
                "bad map len"
            );
            assert!(
                micro_load(&store, mp.micro(), &[9; 16], 4).is_err(),
                "worker out of range"
            );
        }
    }

    #[test]
    fn malformed_text_lines_are_counted_not_loaded() {
        let store = Datastore::Text(
            EdgeListStore::from_buckets(vec![
                "0 1\n# comment\n\n1 0\nnot a line\n2 0\n9999999 3\n0 zzz\n".to_string(),
            ])
            .expect("store"),
        );
        let p = Partitioning::new(vec![0, 0, 1, 1], 2).expect("partitioning");
        let (workers, stats) = stream_load(&store, &p);
        // "9999999 3" (out of range) + "not a line" + "0 zzz" are skipped;
        // comments and blanks are format, not errors.
        assert_eq!(stats.lines_skipped, 3);
        let adj = loaded_adjacency(&workers);
        assert_eq!(adj, vec![(0, vec![1]), (1, vec![0]), (2, vec![0])]);
        let (_, hstats) = hash_load(&store, &p);
        assert_eq!(hstats.lines_skipped, 3);
    }

    #[test]
    fn reload_graph_roundtrips_through_every_loader() {
        let (g, p) = fixture();
        let store = Datastore::binary_flat(&g);
        let (sw, _) = stream_load(&store, &p);
        assert_eq!(reload_graph(&sw, g.num_vertices(), false).expect("csr"), g);
        let (hw, _) = hash_load(&store, &p);
        assert_eq!(reload_graph(&hw, g.num_vertices(), false).expect("csr"), g);
        let mp = MicroPartitioner::new(HashPartitioner, 16)
            .run(&g)
            .expect("micro");
        let c = cluster_micro_partitions(&mp, 4, 1).expect("cluster");
        let micro_store = Datastore::binary_micro(&g, mp.micro()).expect("store");
        let (mw, _) = micro_load(&micro_store, mp.micro(), c.micro_to_macro(), 4).expect("load");
        assert_eq!(reload_graph(&mw, g.num_vertices(), false).expect("csr"), g);
    }

    #[test]
    fn modeled_micro_fastest_and_scales() {
        let m = LoaderCostModel::aws_2016();
        let bytes = 24.0e9; // Twitter at paper scale.
        for &k in &[2u32, 4, 8, 16] {
            let s = m.time(LoaderKind::Stream, bytes, k).expect("time");
            let h = m.time(LoaderKind::Hash, bytes, k).expect("time");
            let mi = m.time(LoaderKind::Micro, bytes, k).expect("time");
            assert!(mi < h && mi < s, "micro must win at k={k}: {mi} {h} {s}");
        }
        let m4 = m.time(LoaderKind::Micro, bytes, 4).expect("time");
        let m16 = m.time(LoaderKind::Micro, bytes, 16).expect("time");
        assert!(m16 < m4 / 2.0, "micro must scale with k");
    }

    #[test]
    fn modeled_stream_flat_in_k_grows_with_bytes() {
        let m = LoaderCostModel::aws_2016();
        let s2 = m.time(LoaderKind::Stream, 1.0e9, 2).expect("time");
        let s16 = m.time(LoaderKind::Stream, 1.0e9, 16).expect("time");
        assert!((s16 - s2).abs() / s2 < 0.2, "stream ~flat in k");
        let big = m.time(LoaderKind::Stream, 8.0e9, 4).expect("time");
        let small = m.time(LoaderKind::Stream, 1.0e9, 4).expect("time");
        assert!(big > 6.0 * small, "stream superlinear in bytes");
    }

    #[test]
    fn modeled_gap_grows_with_dataset() {
        // Paper: micro is 11× faster than stream on Orkut but ~80× on
        // Twitter. Check the ratio is increasing in dataset size.
        let m = LoaderCostModel::aws_2016();
        let ratio = |bytes: f64| {
            let s = m.time(LoaderKind::Stream, bytes, 8).expect("time");
            let mi = m.time(LoaderKind::Micro, bytes, 8).expect("time");
            s / mi
        };
        assert!(ratio(24.0e9) > 2.0 * ratio(1.8e9));
    }

    #[test]
    fn modeled_binary_calibration_parses_faster() {
        let text = LoaderCostModel::aws_2016_for(StoreFormat::Text);
        let bin = LoaderCostModel::aws_2016_for(StoreFormat::Binary);
        let mapped = LoaderCostModel::aws_2016_for(StoreFormat::BinaryMapped);
        for kind in [LoaderKind::Stream, LoaderKind::Hash, LoaderKind::Micro] {
            let t = text.time(kind, 4.0e9, 8).expect("time");
            let b = bin.time(kind, 4.0e9, 8).expect("time");
            let m = mapped.time(kind, 4.0e9, 8).expect("time");
            assert!(
                b < t,
                "{kind}: binary {b} must beat text {t} at equal bytes"
            );
            assert!(
                m < b,
                "{kind}: mapped {m} must beat buffered binary {b} at equal bytes"
            );
        }
    }

    #[test]
    fn model_validates() {
        let m = LoaderCostModel::aws_2016();
        assert!(m.time(LoaderKind::Micro, 1e9, 0).is_err());
        assert!(m.time(LoaderKind::Micro, f64::NAN, 2).is_err());
    }

    // --- fault-aware reload path ---

    use hourglass_faults::{IoKind, Trigger};

    fn micro_fixture(
        g: &Graph,
    ) -> (
        hourglass_partition::micro::MicroPartitioning,
        Vec<u32>,
        Datastore,
        Datastore,
    ) {
        let mp = MicroPartitioner::new(Multilevel::new(), 16)
            .run(g)
            .expect("micro");
        let c = cluster_micro_partitions(&mp, 4, 1).expect("cluster");
        let bin = Datastore::binary_micro(g, mp.micro()).expect("store");
        let text = Datastore::text_micro(g, mp.micro()).expect("store");
        let map = c.micro_to_macro().to_vec();
        (mp, map, bin, text)
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_fault_free_load() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let (plain, ps) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        let faults = ReloadFaults::from_plan(&FaultPlan::new(42));
        let (faulted, fs) =
            micro_load_faulty(&bin, mp.micro(), &map, 4, Some(&faults)).expect("load");
        assert_eq!(loaded_adjacency(&plain), loaded_adjacency(&faulted));
        assert_eq!(ps, fs);
        assert_eq!(fs.retries, 0);
    }

    #[test]
    fn transient_shard_faults_are_retried_to_the_same_graph() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let expect = {
            let (w, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
            loaded_adjacency(&w)
        };
        // Two one-shot transient failures on distinct shard reads.
        let plan = FaultPlan::new(7)
            .rule_budgeted(
                Site::ShardRead,
                Trigger::OnCall(0),
                FaultKind::Io(IoKind::TimedOut),
                1,
            )
            .rule_budgeted(
                Site::ShardRead,
                Trigger::OnCall(5),
                FaultKind::Io(IoKind::ConnectionReset),
                1,
            );
        let faults = ReloadFaults::from_plan(&plan);
        let (w, stats) = micro_load_faulty(&bin, mp.micro(), &map, 4, Some(&faults)).expect("load");
        assert_eq!(
            loaded_adjacency(&w),
            expect,
            "retried load must be identical"
        );
        assert_eq!(stats.retries, 2);
        assert!(stats.backoff_ns > 0, "retries must account backoff");
    }

    #[test]
    fn exhausted_shard_retries_are_a_typed_error_never_a_short_graph() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let plan = FaultPlan::new(3).rule(
            Site::ShardRead,
            Trigger::Ratio { per_mille: 1000 },
            FaultKind::Io(IoKind::TimedOut),
        );
        let faults = ReloadFaults::from_plan(&plan);
        let err = micro_load_faulty(&bin, mp.micro(), &map, 4, Some(&faults))
            .expect_err("permanent faults must not load");
        assert!(matches!(err, EngineError::ShardRead { .. }), "{err}");
    }

    #[test]
    fn faulted_loads_are_deterministic_across_repeats() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let plan = FaultPlan::io_flaky(99);
        let run = |p: &FaultPlan| {
            let f = ReloadFaults::from_plan(p);
            micro_load_faulty(&bin, mp.micro(), &map, 4, Some(&f))
                .map(|(w, s)| (loaded_adjacency(&w), s))
        };
        match (run(&plan), run(&plan)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (
                Err(EngineError::ShardRead { bucket: a, .. }),
                Err(EngineError::ShardRead { bucket: b, .. }),
            ) => assert_eq!(a, b),
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn resilient_reload_degrades_to_text_store() {
        let (g, _) = fixture();
        let (mp, map, bin, text) = micro_fixture(&g);
        let plan = FaultPlan::new(3).rule(
            Site::ShardRead,
            Trigger::Ratio { per_mille: 1000 },
            FaultKind::Io(IoKind::TimedOut),
        );
        let faults = ReloadFaults::from_plan(&plan);
        let (got, stats, degraded) =
            reload_graph_resilient(&bin, Some(&text), mp.micro(), &map, 4, false, Some(&faults))
                .expect("fallback reload");
        assert!(degraded, "must report the degradation");
        assert!(stats.retries > 0);
        assert_eq!(got, g, "text re-assembly must rebuild the same graph");

        // Without a fallback store the typed error propagates.
        let faults = ReloadFaults::from_plan(&plan);
        let err = reload_graph_resilient(&bin, None, mp.micro(), &map, 4, false, Some(&faults))
            .expect_err("no fallback");
        assert!(matches!(err, EngineError::ShardRead { .. }));
    }

    #[test]
    fn resilient_reload_clean_path_is_not_degraded() {
        let (g, _) = fixture();
        let (mp, map, bin, text) = micro_fixture(&g);
        let (got, stats, degraded) =
            reload_graph_resilient(&bin, Some(&text), mp.micro(), &map, 4, false, None)
                .expect("reload");
        assert!(!degraded);
        assert_eq!(stats.retries, 0);
        assert_eq!(got, g);
    }

    #[test]
    fn degraded_reload_accounts_both_attempts() {
        // Regression: the text-fallback path used to fold only
        // `attempts - 1` into retries and drop the aborted binary
        // attempt's backoff entirely.
        let (g, _) = fixture();
        let (mp, map, bin, text) = micro_fixture(&g);
        let plan = FaultPlan::new(3).rule(
            Site::ShardRead,
            Trigger::Ratio { per_mille: 1000 },
            FaultKind::Io(IoKind::TimedOut),
        );
        let faults = ReloadFaults::from_plan(&plan);
        let (got, stats, degraded) =
            reload_graph_resilient(&bin, Some(&text), mp.micro(), &map, 4, false, Some(&faults))
                .expect("fallback reload");
        assert!(degraded);
        assert_eq!(got, g);
        // Bucket 0 exhausts: attempts − 1 retried tries plus the final
        // failed one, each pre-final try with its deterministic backoff.
        let attempts = faults.retry.attempts;
        assert_eq!(stats.retries, attempts as u64);
        let expected_backoff: u64 = (0..attempts - 1).map(|i| faults.retry.backoff_ns(i)).sum();
        assert_eq!(stats.backoff_ns, expected_backoff);
        // The aborted binary attempt read no payload; the fallback parsed
        // the whole text store.
        assert_eq!(stats.bytes_parsed, text.byte_size() as u64);
    }

    #[test]
    fn reload_graph_rejects_overlapping_or_out_of_range_slabs() {
        let w0 = LoadedWorker {
            worker: 0,
            vertices: vec![0, 1],
            offsets: vec![0, 1, 2],
            neighbors: vec![1, 0],
        };
        let dup = LoadedWorker {
            worker: 1,
            vertices: vec![1],
            offsets: vec![0, 1],
            neighbors: vec![0],
        };
        assert!(matches!(
            reload_graph(&[w0.clone(), dup], 4, true),
            Err(EngineError::SlabConflict {
                vertex: 1,
                worker: 1
            })
        ));
        let oob = LoadedWorker {
            worker: 1,
            vertices: vec![9],
            offsets: vec![0, 1],
            neighbors: vec![0],
        };
        assert!(matches!(
            reload_graph(&[w0, oob], 4, true),
            Err(EngineError::SlabConflict {
                vertex: 9,
                worker: 1
            })
        ));
    }

    // --- delta migration ---

    use hourglass_partition::cluster::Clustering;

    #[test]
    fn delta_load_matches_full_micro_load_on_both_formats() {
        let (g, _) = fixture();
        let (mp, map, bin, text) = micro_fixture(&g);
        for store in [&bin, &text] {
            let (old_workers, _) = micro_load(store, mp.micro(), &map, 4).expect("load");
            let mut new_map = map.clone();
            new_map[3] = (new_map[3] + 1) % 4;
            new_map[11] = (new_map[11] + 2) % 4;
            let from = Clustering::from_micro_to_macro(&mp, map.clone(), 4).expect("clustering");
            let to = Clustering::from_micro_to_macro(&mp, new_map.clone(), 4).expect("clustering");
            let delta = ClusteringDelta::between(&mp, &from, &to).expect("delta");
            let (dw, ds) =
                delta_load(store, mp.micro(), &delta, &new_map, old_workers).expect("delta");
            let (fw, fs) = micro_load(store, mp.micro(), &new_map, 4).expect("load");
            assert_eq!(dw, fw, "{}: slabs must be bit-identical", store.format());
            assert_eq!(reload_graph(&dw, g.num_vertices(), false).expect("csr"), g);
            // IO is proportional to the moved buckets, not the graph.
            let moved_bytes: u64 = delta
                .moved()
                .iter()
                .map(|mv| store.bucket_byte_len(mv.micro) as u64)
                .sum();
            assert_eq!(ds.bytes_parsed, moved_bytes);
            assert!(ds.bytes_parsed < fs.bytes_parsed / 2, "{ds:?} vs {fs:?}");
        }
    }

    #[test]
    fn delta_load_across_worker_counts() {
        let (g, _) = fixture();
        let (mp, _, bin, _) = micro_fixture(&g);
        let c4 = cluster_micro_partitions(&mp, 4, 1).expect("cluster");
        let c8 = cluster_micro_partitions(&mp, 8, 1).expect("cluster");
        for (from, to) in [(&c4, &c8), (&c8, &c4)] {
            let k_from = from.vertex_partitioning().num_parts();
            let k_to = to.vertex_partitioning().num_parts();
            let (old_workers, _) =
                micro_load(&bin, mp.micro(), from.micro_to_macro(), k_from).expect("load");
            let delta = ClusteringDelta::between(&mp, from, to).expect("delta");
            let (dw, _) = delta_load(&bin, mp.micro(), &delta, to.micro_to_macro(), old_workers)
                .expect("delta");
            let (fw, _) = micro_load(&bin, mp.micro(), to.micro_to_macro(), k_to).expect("load");
            assert_eq!(dw, fw, "{k_from}→{k_to}");
            assert_eq!(reload_graph(&dw, g.num_vertices(), false).expect("csr"), g);
        }
    }

    #[test]
    fn empty_delta_is_a_free_identity_even_under_permanent_faults() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let (old_workers, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        let expect = old_workers.clone();
        let c = Clustering::from_micro_to_macro(&mp, map.clone(), 4).expect("clustering");
        let delta = ClusteringDelta::between(&mp, &c, &c).expect("delta");
        // Permanent faults on every shard read: an empty delta reads
        // nothing, so nothing can fault.
        let plan = FaultPlan::new(3).rule(
            Site::ShardRead,
            Trigger::Ratio { per_mille: 1000 },
            FaultKind::Io(IoKind::TimedOut),
        );
        let faults = ReloadFaults::from_plan(&plan);
        let (dw, ds) =
            delta_load_faulty(&bin, mp.micro(), &delta, &map, old_workers, Some(&faults))
                .expect("delta");
        assert_eq!(dw, expect);
        assert_eq!(ds, LoadStats::default());
    }

    #[test]
    fn faulted_delta_retries_then_falls_back_to_full_reload() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let mut new_map = map.clone();
        new_map[0] = (new_map[0] + 1) % 4;
        new_map[7] = (new_map[7] + 3) % 4;
        let from = Clustering::from_micro_to_macro(&mp, map.clone(), 4).expect("clustering");
        let to = Clustering::from_micro_to_macro(&mp, new_map.clone(), 4).expect("clustering");
        let delta = ClusteringDelta::between(&mp, &from, &to).expect("delta");

        // A single transient fault on the first moved-bucket read is
        // retried away and the result is bit-identical.
        let (old_workers, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        let plan = FaultPlan::new(7).rule_budgeted(
            Site::ShardRead,
            Trigger::OnCall(0),
            FaultKind::Io(IoKind::TimedOut),
            1,
        );
        let faults = ReloadFaults::from_plan(&plan);
        let (dw, ds) = delta_load_faulty(
            &bin,
            mp.micro(),
            &delta,
            &new_map,
            old_workers,
            Some(&faults),
        )
        .expect("delta");
        let (fw, _) = micro_load(&bin, mp.micro(), &new_map, 4).expect("load");
        assert_eq!(dw, fw);
        assert_eq!(ds.retries, 1);
        assert!(ds.backoff_ns > 0);

        // Permanent faults exhaust into the typed error; the caller falls
        // back to a full reload of the new clustering without corruption.
        let (old_workers, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        let plan = FaultPlan::new(3).rule(
            Site::ShardRead,
            Trigger::Ratio { per_mille: 1000 },
            FaultKind::Io(IoKind::TimedOut),
        );
        let faults = ReloadFaults::from_plan(&plan);
        let err = delta_load_faulty(
            &bin,
            mp.micro(),
            &delta,
            &new_map,
            old_workers,
            Some(&faults),
        )
        .expect_err("permanent faults must not delta-load");
        assert!(matches!(err, EngineError::ShardRead { .. }), "{err}");
        let (fallback, _) = micro_load(&bin, mp.micro(), &new_map, 4).expect("fallback");
        assert_eq!(
            reload_graph(&fallback, g.num_vertices(), false).expect("csr"),
            g
        );
    }

    #[test]
    fn delta_load_validates_inputs() {
        let (g, _) = fixture();
        let (mp, map, bin, _) = micro_fixture(&g);
        let c = Clustering::from_micro_to_macro(&mp, map.clone(), 4).expect("clustering");
        let delta = ClusteringDelta::between(&mp, &c, &c).expect("delta");
        let (old_workers, _) = micro_load(&bin, mp.micro(), &map, 4).expect("load");
        // Map length mismatch.
        assert!(delta_load(&bin, mp.micro(), &delta, &map[..3], old_workers.clone()).is_err());
        // Wrong number of old slabs.
        assert!(delta_load(&bin, mp.micro(), &delta, &map, old_workers[..2].to_vec()).is_err());
        // Map disagrees with the delta's destination.
        let mut new_map = map.clone();
        new_map[5] = (new_map[5] + 1) % 4;
        let to = Clustering::from_micro_to_macro(&mp, new_map, 4).expect("clustering");
        let d2 = ClusteringDelta::between(&mp, &c, &to).expect("delta");
        assert!(delta_load(&bin, mp.micro(), &d2, &map, old_workers).is_err());
    }
}
