//! Compact binary edge-list formats (flat `HGG1` and sharded `HGS2`).
//!
//! Text edge lists (the SNAP format of [`crate::io`]) parse at tens of
//! MB/s; the loading-phase experiments want a faster at-rest layout too.
//! Both formats store a small header plus little-endian `u32` arc pairs —
//! ~2× smaller than text at realistic (7+ digit) vertex-id widths and
//! decodable at memory bandwidth.
//!
//! `HGG1` is a whole-graph snapshot (logical edges, rebuilt through the
//! [`GraphBuilder`]):
//!
//! ```text
//! magic   "HGG1"                  (4 bytes)
//! flags   u32 LE, bit 0 = directed
//! n       u32 LE, vertex count
//! m       u64 LE, arc count
//! arcs    m × (u32 LE, u32 LE)
//! ```
//!
//! `HGS2` ([`ShardedArcs`]) is the sharded *datastore* layout backing the
//! fast-reload loaders (§6.2): the arc list is grouped into buckets (one
//! per micro-partition; a single bucket is the flat layout) and each bucket
//! is one contiguous block of arc pairs, so a worker can read exactly its
//! buckets and decode them from raw byte slices with zero copies. Version 2
//! appends a CRC32C trailer (per-bucket payload checksums plus a metadata
//! checksum over everything else) so torn writes and bit flips are detected
//! at read time instead of silently decoded — any single-bit corruption of
//! an `HGS2` file is rejected:
//!
//! ```text
//! magic   "HGS2"                  (4 bytes)
//! n       u32 LE, vertex count
//! b       u32 LE, bucket count
//! m       u64 LE, total arc count
//! counts  b × u64 LE, arcs per bucket
//! arcs    m × (u32 LE, u32 LE), bucket-major
//! crcs    b × u32 LE, CRC32C per bucket payload
//! meta    u32 LE, CRC32C over magic+header+counts+crcs
//! ```
//!
//! An `HGS1` magic (the same layout without the two trailer sections) is
//! rejected like any other unknown magic: a file that carries no checksums
//! would verify vacuously.

use crate::builder::GraphBuilder;
use crate::crc32c::crc32c;
use crate::csr::{Graph, VertexId};
use crate::{GraphError, Result};
use hourglass_obs as obs;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"HGG1";
const SHARD_MAGIC_V2: &[u8; 4] = b"HGS2";

/// Bytes per serialized arc pair.
pub const ARC_BYTES: usize = 8;

/// Serializes a graph in the binary format (every stored arc is written;
/// undirected graphs round-trip exactly).
pub fn write_binary<W: Write>(graph: &Graph, mut w: W) -> Result<()> {
    let _span = obs::span("write_binary", "io").arg("vertices", graph.num_vertices() as u64);
    w.write_all(MAGIC)?;
    let flags: u32 = u32::from(graph.is_directed());
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(graph.num_vertices() as u32).to_le_bytes())?;
    let arcs: u64 = if graph.is_directed() {
        graph.num_directed_edges() as u64
    } else {
        graph.num_edges() as u64
    };
    w.write_all(&arcs.to_le_bytes())?;
    let mut buf = Vec::with_capacity(8 * 1024);
    for (u, v) in graph.edges() {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 8 * 1024 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Deserializes a graph written by [`write_binary`].
pub fn read_binary<R: Read>(mut r: R) -> Result<Graph> {
    let _span = obs::span("read_binary", "io");
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("bad magic {magic:?}, expected {MAGIC:?}"),
        });
    }
    let flags = read_u32(&mut r)?;
    if flags > 1 {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("unknown flags {flags:#x}"),
        });
    }
    let directed = flags & 1 == 1;
    let n = read_u32(&mut r)? as usize;
    let mut m_bytes = [0u8; 8];
    r.read_exact(&mut m_bytes)?;
    let m = u64::from_le_bytes(m_bytes);
    let mut b = if directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    b.reserve(m as usize);
    // Chunked decode: pull large blocks and split them into pairs, instead
    // of one 8-byte read_exact syscall-shaped call per arc.
    let mut remaining = (m as usize)
        .checked_mul(ARC_BYTES)
        .ok_or_else(|| GraphError::Parse {
            line: 0,
            message: format!("arc count {m} overflows payload size"),
        })?;
    let mut buf = vec![0u8; (64 * 1024).min(remaining.max(1))];
    let mut decoded = 0u64;
    while remaining > 0 {
        let want = buf.len().min(remaining);
        r.read_exact(&mut buf[..want])
            .map_err(|e| GraphError::Parse {
                line: decoded as usize,
                message: format!("truncated arc {decoded} of {m}: {e}"),
            })?;
        for pair in buf[..want].chunks_exact(ARC_BYTES) {
            let u = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
            let v = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            b.add_edge(u, v);
        }
        decoded += (want / ARC_BYTES) as u64;
        remaining -= want;
    }
    b.build()
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Decodes a bucket's raw byte slice into `(source, target)` arc pairs.
///
/// The slice must come from a [`ShardedArcs`] bucket (length a multiple of
/// [`ARC_BYTES`]); any trailing partial pair is ignored. This is the
/// zero-copy read path of the sharded datastore: no intermediate buffer,
/// just LE decoding straight off the mapped/owned bytes.
#[inline]
pub fn decode_arcs(bytes: &[u8]) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
    bytes.chunks_exact(ARC_BYTES).map(|pair| {
        (
            u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]),
            u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]),
        )
    })
}

/// Bulk-decodes a bucket's raw bytes, appending every `(source, target)`
/// pair to `out`.
///
/// This is the hot-path counterpart of [`decode_arcs`]: capacity is
/// reserved up front and the pairs are appended through a `chunks_exact`
/// exact-length extend, so the loop body carries no per-arc capacity or
/// bounds checks and autovectorizes. Trailing partial pairs are ignored,
/// matching the iterator.
#[inline]
pub fn decode_arcs_into(bytes: &[u8], out: &mut Vec<(VertexId, VertexId)>) {
    out.reserve(bytes.len() / ARC_BYTES);
    out.extend(bytes.chunks_exact(ARC_BYTES).map(|pair| {
        (
            u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]),
            u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]),
        )
    }));
}

/// Largest vertex id appearing in an encoded arc slice (source or target),
/// or `None` for an empty slice.
///
/// A branch-free max-reduction over the raw `u32` words: loaders use it as
/// a cheap validity pre-scan so the common all-in-range case can take the
/// unfiltered [`decode_arcs_into`] bulk path instead of a per-pair range
/// check.
#[inline]
pub fn max_arc_id(bytes: &[u8]) -> Option<u32> {
    let words = &bytes[..bytes.len() / ARC_BYTES * ARC_BYTES];
    words
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .reduce(u32::max)
}

/// A sharded binary arc store (`HGS2`): the at-rest layout of the
/// fast-reload datastore.
///
/// Arcs (both directions of every undirected edge, so adjacency can be
/// assembled locally) are grouped into `b` buckets; bucket `i` is the
/// contiguous byte range holding the arcs whose *source* vertex lives in
/// micro-partition `i`. A single bucket is the flat layout used by the
/// stream and hash loaders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedArcs {
    num_vertices: u32,
    /// Exclusive prefix ends, in arcs: bucket `i` spans
    /// `arc_ends[i-1]..arc_ends[i]` (with `arc_ends[-1] = 0`).
    arc_ends: Vec<u64>,
    /// Bucket-major LE arc pairs, `ARC_BYTES` each.
    payload: Vec<u8>,
}

impl ShardedArcs {
    /// Builds a sharded store from a graph and a per-vertex bucket
    /// assignment (`bucket_of[v] < num_buckets`); arcs land in their
    /// source's bucket. Two passes over the graph: a counting pass sizing
    /// every bucket exactly (per-vertex degree, `O(n)`), then a scatter
    /// pass writing each arc once — no intermediate per-arc allocation.
    pub fn from_graph_buckets(g: &Graph, bucket_of: &[u32], num_buckets: u32) -> Result<Self> {
        let _span = obs::span("shard_store_build", "io")
            .arg("vertices", g.num_vertices() as u64)
            .arg("buckets", num_buckets as u64);
        if bucket_of.len() != g.num_vertices() {
            return Err(GraphError::InvalidParameter(format!(
                "bucket assignment covers {} vertices, graph has {}",
                bucket_of.len(),
                g.num_vertices()
            )));
        }
        if num_buckets == 0 {
            return Err(GraphError::InvalidParameter(
                "need at least one bucket".into(),
            ));
        }
        if let Some(&bad) = bucket_of.iter().find(|&&b| b >= num_buckets) {
            return Err(GraphError::InvalidParameter(format!(
                "bucket {bad} out of range for {num_buckets} buckets"
            )));
        }
        // Counting pass: shard sizes from vertex degrees.
        let mut counts = vec![0u64; num_buckets as usize];
        for v in 0..g.num_vertices() {
            counts[bucket_of[v] as usize] += g.degree(v as VertexId) as u64;
        }
        let mut arc_ends = Vec::with_capacity(num_buckets as usize);
        let mut acc = 0u64;
        for &c in &counts {
            acc += c;
            arc_ends.push(acc);
        }
        // Scatter pass: per-bucket byte cursors into one payload slab.
        let mut payload = vec![0u8; acc as usize * ARC_BYTES];
        let mut cursor: Vec<usize> = std::iter::once(0)
            .chain(arc_ends.iter().map(|&e| e as usize * ARC_BYTES))
            .take(num_buckets as usize)
            .collect();
        for u in 0..g.num_vertices() {
            let c = &mut cursor[bucket_of[u] as usize];
            let ub = (u as u32).to_le_bytes();
            for &v in g.neighbors(u as VertexId) {
                payload[*c..*c + 4].copy_from_slice(&ub);
                payload[*c + 4..*c + 8].copy_from_slice(&v.to_le_bytes());
                *c += ARC_BYTES;
            }
        }
        Ok(ShardedArcs {
            num_vertices: g.num_vertices() as u32,
            arc_ends,
            payload,
        })
    }

    /// Builds the single-bucket (flat) layout.
    pub fn flat_from_graph(g: &Graph) -> Self {
        Self::from_graph_buckets(g, &vec![0; g.num_vertices()], 1)
            .expect("single-bucket construction cannot fail")
    }

    /// Number of vertices the arc ids index into.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> u32 {
        self.arc_ends.len() as u32
    }

    /// Total number of arcs across all buckets.
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.arc_ends.last().copied().unwrap_or(0)
    }

    /// Raw byte slice of bucket `b` — the zero-copy read unit.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn bucket_bytes(&self, b: u32) -> &[u8] {
        let start = if b == 0 {
            0
        } else {
            self.arc_ends[b as usize - 1] as usize * ARC_BYTES
        };
        let end = self.arc_ends[b as usize] as usize * ARC_BYTES;
        &self.payload[start..end]
    }

    /// Number of arcs in bucket `b`.
    #[inline]
    pub fn bucket_len(&self, b: u32) -> u64 {
        let start = if b == 0 {
            0
        } else {
            self.arc_ends[b as usize - 1]
        };
        self.arc_ends[b as usize] - start
    }

    /// The whole bucket-major payload.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload size in bytes (what the loaders account as "read").
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// On-disk size in bytes of the `HGS2` layout written by
    /// [`ShardedArcs::write_to`], header and checksum trailer included.
    pub fn serialized_size(&self) -> u64 {
        let buckets = self.arc_ends.len() as u64;
        4 + 4 + 4 + 8 + 8 * buckets + self.payload.len() as u64 + 4 * buckets + 4
    }

    /// The magic + header + counts section.
    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + 8 * self.arc_ends.len());
        out.extend_from_slice(SHARD_MAGIC_V2);
        out.extend_from_slice(&self.num_vertices.to_le_bytes());
        out.extend_from_slice(&(self.arc_ends.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.num_arcs().to_le_bytes());
        let mut prev = 0u64;
        for &end in &self.arc_ends {
            out.extend_from_slice(&(end - prev).to_le_bytes());
            prev = end;
        }
        out
    }

    /// Serializes in the checksummed `HGS2` layout.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<()> {
        let _span = obs::span("shard_store_write", "io").arg("bytes", self.serialized_size());
        let header = self.header_bytes();
        w.write_all(&header)?;
        w.write_all(&self.payload)?;
        let mut meta = header;
        for b in 0..self.num_buckets() {
            let crc = crc32c(self.bucket_bytes(b)).to_le_bytes();
            w.write_all(&crc)?;
            meta.extend_from_slice(&crc);
        }
        w.write_all(&crc32c(&meta).to_le_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Deserializes a sharded store, verifying every checksum (any
    /// single-bit corruption is rejected).
    pub fn read_from<R: Read>(mut r: R) -> Result<Self> {
        let _span = obs::span("shard_store_read", "io");
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != SHARD_MAGIC_V2 {
            return Err(GraphError::Parse {
                line: 0,
                message: format!("bad magic {magic:?}, expected {SHARD_MAGIC_V2:?}"),
            });
        }
        let num_vertices = read_u32(&mut r)?;
        let b = read_u32(&mut r)? as usize;
        let mut m_bytes = [0u8; 8];
        r.read_exact(&mut m_bytes)?;
        let m = u64::from_le_bytes(m_bytes);
        // `b` is unverified until the trailer checks out: a flipped high
        // bit must not turn into a multi-gigabyte reservation.
        let mut arc_ends = Vec::with_capacity(b.min(1 << 16));
        let mut acc = 0u64;
        for _ in 0..b {
            r.read_exact(&mut m_bytes)?;
            acc = acc
                .checked_add(u64::from_le_bytes(m_bytes))
                .ok_or_else(|| GraphError::Parse {
                    line: 0,
                    message: "bucket counts overflow".into(),
                })?;
            arc_ends.push(acc);
        }
        if acc != m {
            return Err(GraphError::Parse {
                line: 0,
                message: format!("bucket counts sum to {acc}, header says {m} arcs"),
            });
        }
        let payload_len = (m as usize)
            .checked_mul(ARC_BYTES)
            .ok_or_else(|| GraphError::Parse {
                line: 0,
                message: format!("arc count {m} overflows payload size"),
            })?;
        let mut payload = vec![0u8; payload_len];
        r.read_exact(&mut payload).map_err(|e| GraphError::Parse {
            line: 0,
            message: format!("truncated payload ({m} arcs expected): {e}"),
        })?;
        let store = ShardedArcs {
            num_vertices,
            arc_ends,
            payload,
        };
        store.verify_trailer(&mut r)?;
        Ok(store)
    }

    /// Reads and verifies the `HGS2` checksum trailer against the already
    /// parsed header, counts and payload.
    fn verify_trailer<R: Read>(&self, r: &mut R) -> Result<()> {
        let mut meta = self.header_bytes();
        let mut crc_bytes = [0u8; 4];
        for b in 0..self.num_buckets() {
            r.read_exact(&mut crc_bytes)
                .map_err(|e| GraphError::Parse {
                    line: 0,
                    message: format!("truncated bucket-checksum trailer: {e}"),
                })?;
            let want = u32::from_le_bytes(crc_bytes);
            let got = crc32c(self.bucket_bytes(b));
            if got != want {
                return Err(GraphError::Parse {
                    line: 0,
                    message: format!(
                        "bucket {b} checksum mismatch: stored {want:#010x}, computed {got:#010x}"
                    ),
                });
            }
            meta.extend_from_slice(&crc_bytes);
        }
        r.read_exact(&mut crc_bytes)
            .map_err(|e| GraphError::Parse {
                line: 0,
                message: format!("truncated metadata checksum: {e}"),
            })?;
        let want = u32::from_le_bytes(crc_bytes);
        let got = crc32c(&meta);
        if got != want {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "metadata checksum mismatch: stored {want:#010x}, computed {got:#010x}"
                ),
            });
        }
        Ok(())
    }
}

/// Size in bytes a graph occupies in this format.
pub fn binary_size(graph: &Graph) -> u64 {
    let arcs = if graph.is_directed() {
        graph.num_directed_edges() as u64
    } else {
        graph.num_edges() as u64
    };
    4 + 4 + 4 + 8 + 8 * arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::io;

    #[test]
    fn roundtrip_undirected() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 4).expect("gen");
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).expect("write");
        assert_eq!(buf.len() as u64, binary_size(&g));
        let g2 = read_binary(&buf[..]).expect("read");
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_directed() {
        let text = "0 1\n1 0\n2 0\n";
        let g = io::read_edge_list(text.as_bytes(), true).expect("read");
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).expect("write");
        let g2 = read_binary(&buf[..]).expect("read");
        assert_eq!(g, g2);
        assert!(g2.is_directed());
    }

    #[test]
    fn smaller_than_text_at_realistic_id_widths() {
        // Binary wins once ids reach the 7+ digit range of real crawls
        // (tiny graphs with 1-3 digit ids can be denser as text).
        let mut b = crate::GraphBuilder::undirected(2_000_000);
        for i in 0..500u32 {
            b.add_edge(1_000_000 + i, 1_000_001 + i);
        }
        let g = b.build().expect("build");
        let text_size = io::edge_list_byte_size(&g);
        assert!(
            binary_size(&g) < text_size,
            "binary {} should beat text {}",
            binary_size(&g),
            text_size
        );
    }

    #[test]
    fn rejects_corruption() {
        let g = generators::erdos_renyi(20, 40, 1).expect("gen");
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).expect("write");
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_binary(&bad[..]).is_err());
        // Truncated arcs.
        let truncated = &buf[..buf.len() - 3];
        assert!(read_binary(truncated).is_err());
        // Unknown flags.
        let mut bad = buf.clone();
        bad[4] = 0xFF;
        assert!(read_binary(&bad[..]).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = crate::GraphBuilder::undirected(5).build().expect("build");
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).expect("write");
        let g2 = read_binary(&buf[..]).expect("read");
        assert_eq!(g2.num_vertices(), 5);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn sharded_buckets_cover_all_arcs_by_source() {
        let g = generators::rmat(8, 8, generators::RmatParams::SOCIAL, 2).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 7).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 7).expect("shard");
        assert_eq!(s.num_buckets(), 7);
        assert_eq!(s.num_arcs(), g.num_directed_edges() as u64);
        assert_eq!(s.payload_bytes(), g.num_directed_edges() * ARC_BYTES);
        let mut total = 0u64;
        for b in 0..7 {
            for (u, v) in decode_arcs(s.bucket_bytes(b)) {
                assert_eq!(u % 7, b, "arc in wrong bucket");
                assert!(g.neighbors(u).contains(&v));
                total += 1;
            }
            assert_eq!(
                s.bucket_len(b),
                s.bucket_bytes(b).len() as u64 / ARC_BYTES as u64
            );
        }
        assert_eq!(total, s.num_arcs());
    }

    #[test]
    fn sharded_flat_is_single_bucket_in_arc_order() {
        let g = generators::erdos_renyi(30, 60, 3).expect("gen");
        let s = ShardedArcs::flat_from_graph(&g);
        assert_eq!(s.num_buckets(), 1);
        let decoded: Vec<_> = decode_arcs(s.bucket_bytes(0)).collect();
        let expected: Vec<_> = g.arcs().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn sharded_roundtrip() {
        let g = generators::rmat(8, 6, generators::RmatParams::WEB, 5).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 4).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 4).expect("shard");
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("write");
        assert_eq!(buf.len() as u64, s.serialized_size());
        let s2 = ShardedArcs::read_from(&buf[..]).expect("read");
        assert_eq!(s, s2);
    }

    #[test]
    fn sharded_rejects_corruption() {
        let g = generators::erdos_renyi(20, 40, 1).expect("gen");
        let s = ShardedArcs::flat_from_graph(&g);
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("write");
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ShardedArcs::read_from(&bad[..]).is_err(), "bad magic");
        let truncated = &buf[..buf.len() - 5];
        assert!(
            ShardedArcs::read_from(truncated).is_err(),
            "truncated payload"
        );
        // Bucket counts disagreeing with the total arc count.
        let mut bad = buf.clone();
        bad[20] ^= 1; // first bucket count LSB (after the 20-byte header)
        assert!(ShardedArcs::read_from(&bad[..]).is_err(), "count mismatch");
    }

    #[test]
    fn sharded_v1_files_are_rejected() {
        // A well-formed trailer-less v1 store: 0 arcs in 0 buckets over 3
        // vertices. Only the magic is wrong for today's reader.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"HGS1");
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(v1.len(), 20);
        match ShardedArcs::read_from(&v1[..]) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("bad magic"), "{message}")
            }
            other => panic!("v1 must fail on its magic, got {other:?}"),
        }
    }

    #[test]
    fn sharded_v2_every_single_bit_flip_is_detected() {
        let g = generators::erdos_renyi(12, 18, 7).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 3).expect("shard");
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("write");
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                ShardedArcs::read_from(&bad[..]).is_err(),
                "bit flip at {bit} (byte {}) went undetected",
                bit / 8
            );
        }
    }

    #[test]
    fn sharded_v2_rejects_truncated_trailer() {
        let g = generators::erdos_renyi(10, 15, 2).expect("gen");
        let s = ShardedArcs::flat_from_graph(&g);
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("write");
        // Cut inside the metadata checksum and inside the bucket checksums.
        assert!(ShardedArcs::read_from(&buf[..buf.len() - 2]).is_err());
        assert!(ShardedArcs::read_from(&buf[..buf.len() - 6]).is_err());
    }

    #[test]
    fn bulk_decode_matches_iterator() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 11).expect("gen");
        let s = ShardedArcs::flat_from_graph(&g);
        let bytes = s.bucket_bytes(0);
        let via_iter: Vec<_> = decode_arcs(bytes).collect();
        let mut via_bulk = Vec::new();
        decode_arcs_into(bytes, &mut via_bulk);
        assert_eq!(via_iter, via_bulk);
        // Appends without clearing, and ignores a trailing partial pair.
        decode_arcs_into(&bytes[..bytes.len().min(8) + 3], &mut via_bulk);
        assert_eq!(via_bulk.len(), via_iter.len() + 1.min(via_iter.len()));
        let mut empty = Vec::new();
        decode_arcs_into(&[], &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn max_arc_id_scans_both_endpoints() {
        assert_eq!(max_arc_id(&[]), None);
        let mut buf = Vec::new();
        for (u, v) in [(3u32, 9u32), (7, 2), (5, 5)] {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(max_arc_id(&buf), Some(9));
        // A trailing partial pair is excluded from the scan, like decode.
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(max_arc_id(&buf), Some(9));
    }

    #[test]
    fn sharded_validates_inputs() {
        let g = generators::erdos_renyi(10, 20, 1).expect("gen");
        assert!(ShardedArcs::from_graph_buckets(&g, &[0; 5], 1).is_err());
        assert!(ShardedArcs::from_graph_buckets(&g, &[0; 10], 0).is_err());
        assert!(ShardedArcs::from_graph_buckets(&g, &[7; 10], 4).is_err());
    }

    #[test]
    fn sharded_empty_graph() {
        let g = crate::GraphBuilder::undirected(3).build().expect("build");
        let s = ShardedArcs::flat_from_graph(&g);
        assert_eq!(s.num_arcs(), 0);
        let mut buf = Vec::new();
        s.write_to(&mut buf).expect("write");
        let s2 = ShardedArcs::read_from(&buf[..]).expect("read");
        assert_eq!(s, s2);
    }
}
