//! Memory-mapped backing for the sharded arc store (`HGS2`).
//!
//! [`MappedShards`] is the zero-copy sibling of
//! [`ShardedArcs`](crate::io_binary::ShardedArcs): instead of reading the
//! whole store into a heap slab, the file is mapped and `bucket_bytes`
//! returns a slice straight into the page cache. Opening costs one
//! metadata checksum over the header/counts/CRC sections (a few KB);
//! payload bytes are only faulted in when a loader actually decodes them,
//! so graphs larger than RAM stay loadable and a warm-cache reload runs at
//! memory bandwidth instead of copy bandwidth.
//!
//! Integrity semantics differ deliberately from the buffered reader:
//! `ShardedArcs::read_from` checksums every bucket up front (it touches
//! every byte anyway while copying); the mapped store verifies the
//! metadata eagerly and the bucket payloads lazily through
//! [`MappedShards::verify_bucket`] / [`MappedShards::verify_all`], so the
//! open stays O(header) and callers that need end-to-end payload
//! verification (fault-injection reload paths) opt in per bucket.
//!
//! The `mmap` cargo feature (default on) selects the real `memmap2`
//! mapping; without it the same API is served by a buffered read into an
//! owned buffer, so non-mmap targets and dependency-free builds keep
//! working. The offline verify harness supplies a vendored `memmap2` stub
//! implementing the mapping via raw syscalls, so measurements made under
//! the harness exercise the true page-cache path.

use crate::crc32c::{crc32c, crc32c_append};
use crate::io_binary::{ShardedArcs, ARC_BYTES};
use crate::{GraphError, Result};
use hourglass_obs as obs;
use std::path::Path;

const SHARD_MAGIC_V2: &[u8; 4] = b"HGS2";
const HEADER_BYTES: usize = 4 + 4 + 4 + 8;

#[cfg(feature = "mmap")]
mod backing {
    use std::fs::File;
    use std::io;

    /// Page-cache-backed bytes of an open store file.
    pub(super) struct Backing(memmap2::Mmap);

    /// Human-readable backing kind, surfaced in traces.
    pub(super) const KIND: &str = "mmap";

    impl Backing {
        pub(super) fn load(file: &File) -> io::Result<Self> {
            // SAFETY: the mapping is read-only and store files are
            // write-once: nothing in this workspace mutates an HGS file
            // after it is published. Concurrent external mutation is
            // outside the supported contract (the buffered reader has the
            // same torn-read caveat, just with a smaller window).
            #[allow(unsafe_code)]
            let map = unsafe { memmap2::Mmap::map(file)? };
            Ok(Backing(map))
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            &self.0
        }
    }
}

#[cfg(not(feature = "mmap"))]
mod backing {
    use std::fs::File;
    use std::io::{self, Read};

    /// Buffered fallback: the whole file read into an owned buffer. Same
    /// API as the mapped backing, minus the page-cache economics.
    pub(super) struct Backing(Vec<u8>);

    /// Human-readable backing kind, surfaced in traces.
    pub(super) const KIND: &str = "buffered";

    impl Backing {
        pub(super) fn load(file: &File) -> io::Result<Self> {
            let mut buf = Vec::new();
            let mut file = file;
            file.read_to_end(&mut buf)?;
            Ok(Backing(buf))
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            &self.0
        }
    }
}

/// A sharded arc store served directly from a mapped `HGS2` file.
///
/// Mirrors the read-side API of [`ShardedArcs`]; `bucket_bytes` is a slice
/// of the mapping rather than of a heap slab.
pub struct MappedShards {
    data: backing::Backing,
    num_vertices: u32,
    /// Exclusive prefix ends, in arcs (same convention as `ShardedArcs`).
    arc_ends: Vec<u64>,
    /// Byte offset of the bucket-major payload within the file.
    payload_off: usize,
    /// Byte offset of the per-bucket CRC section.
    crc_off: usize,
}

impl MappedShards {
    /// Opens and maps a sharded store file.
    ///
    /// The header, bucket counts and the metadata checksum are validated
    /// eagerly; bucket payloads are not touched. The file
    /// length must match the layout exactly.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = std::fs::File::open(path.as_ref())?;
        let data = backing::Backing::load(&file)?;
        let _span = obs::span("shard_store_map", "io")
            .arg("bytes", data.as_slice().len() as u64)
            .arg("mapped", u64::from(backing::KIND == "mmap"));
        Self::parse(data)
    }

    fn parse(data: backing::Backing) -> Result<Self> {
        let bytes = data.as_slice();
        let fail = |message: String| GraphError::Parse { line: 0, message };
        if bytes.len() < HEADER_BYTES {
            return Err(fail(format!("file too short for header: {}", bytes.len())));
        }
        if &bytes[..4] != SHARD_MAGIC_V2 {
            return Err(fail(format!(
                "bad magic {:?}, expected {SHARD_MAGIC_V2:?}",
                &bytes[..4]
            )));
        }
        let num_vertices = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let b = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let m = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload_off = HEADER_BYTES
            .checked_add(
                b.checked_mul(8)
                    .ok_or_else(|| fail("bucket count overflow".into()))?,
            )
            .ok_or_else(|| fail("bucket count overflow".into()))?;
        if bytes.len() < payload_off {
            return Err(fail(format!("file too short for {b} bucket counts")));
        }
        let mut arc_ends = Vec::with_capacity(b);
        let mut acc = 0u64;
        for count in bytes[HEADER_BYTES..payload_off].chunks_exact(8) {
            acc = acc
                .checked_add(u64::from_le_bytes(count.try_into().expect("8 bytes")))
                .ok_or_else(|| fail("bucket counts overflow".into()))?;
            arc_ends.push(acc);
        }
        if acc != m {
            return Err(fail(format!(
                "bucket counts sum to {acc}, header says {m} arcs"
            )));
        }
        let payload_len = (m as usize)
            .checked_mul(ARC_BYTES)
            .ok_or_else(|| fail(format!("arc count {m} overflows payload size")))?;
        let trailer_len = 4 * b + 4;
        let want = payload_off
            .checked_add(payload_len)
            .and_then(|x| x.checked_add(trailer_len))
            .ok_or_else(|| fail(format!("arc count {m} overflows payload size")))?;
        if bytes.len() != want {
            return Err(fail(format!(
                "file is {} bytes, layout says {want} ({m} arcs, {b} buckets)",
                bytes.len()
            )));
        }
        let crc_off = payload_off + payload_len;
        // Metadata checksum covers magic+header+counts+bucket-crcs — the
        // same byte stream the writer hashed, but streamed over the
        // mapping instead of reassembled.
        let got = crc32c_append(
            crc32c(&bytes[..payload_off]),
            &bytes[crc_off..crc_off + 4 * b],
        );
        let want = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if got != want {
            return Err(fail(format!(
                "metadata checksum mismatch: stored {want:#010x}, computed {got:#010x}"
            )));
        }
        Ok(MappedShards {
            data,
            num_vertices,
            arc_ends,
            payload_off,
            crc_off,
        })
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

    /// Raw byte slice of bucket `b` — a window into the page cache (or the
    /// owned fallback buffer).
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
        &self.data.as_slice()[self.payload_off + start..self.payload_off + end]
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
        &self.data.as_slice()
            [self.payload_off..self.payload_off + self.num_arcs() as usize * ARC_BYTES]
    }

    /// Payload size in bytes (what the loaders account as "read").
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.num_arcs() as usize * ARC_BYTES
    }

    /// Verifies bucket `b`'s payload against its stored CRC32C.
    ///
    /// Faults the bucket in and checksums it — the lazy counterpart of the
    /// up-front verification `ShardedArcs::read_from` performs.
    pub fn verify_bucket(&self, b: u32) -> Result<()> {
        let at = self.crc_off + b as usize * 4;
        let want = u32::from_le_bytes(
            self.data.as_slice()[at..at + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let got = crc32c(self.bucket_bytes(b));
        if got != want {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "bucket {b} checksum mismatch: stored {want:#010x}, computed {got:#010x}"
                ),
            });
        }
        Ok(())
    }

    /// Verifies every bucket payload (full-file integrity check).
    pub fn verify_all(&self) -> Result<()> {
        for b in 0..self.num_buckets() {
            self.verify_bucket(b)?;
        }
        Ok(())
    }

    /// Copies the mapped store into an owned [`ShardedArcs`] (tools/tests).
    pub fn to_sharded(&self) -> Result<ShardedArcs> {
        let mut buf = Vec::with_capacity(self.payload_bytes() + 64);
        let owned = ShardedArcsView(self);
        owned.write_v2(&mut buf)?;
        ShardedArcs::read_from(&buf[..])
    }
}

/// Serialization shim so `to_sharded` reuses the canonical reader instead
/// of poking at `ShardedArcs` internals.
struct ShardedArcsView<'a>(&'a MappedShards);

impl ShardedArcsView<'_> {
    fn write_v2(&self, out: &mut Vec<u8>) -> Result<()> {
        let s = self.0;
        out.extend_from_slice(SHARD_MAGIC_V2);
        out.extend_from_slice(&s.num_vertices.to_le_bytes());
        out.extend_from_slice(&s.num_buckets().to_le_bytes());
        out.extend_from_slice(&s.num_arcs().to_le_bytes());
        let mut prev = 0u64;
        for &end in &s.arc_ends {
            out.extend_from_slice(&(end - prev).to_le_bytes());
            prev = end;
        }
        out.extend_from_slice(s.payload());
        let header_end = out.len() - s.payload_bytes();
        let mut crcs = Vec::with_capacity(4 * s.arc_ends.len());
        for b in 0..s.num_buckets() {
            crcs.extend_from_slice(&crc32c(s.bucket_bytes(b)).to_le_bytes());
        }
        out.extend_from_slice(&crcs);
        let meta = crc32c_append(crc32c(&out[..header_end]), &crcs);
        out.extend_from_slice(&meta.to_le_bytes());
        Ok(())
    }
}

impl std::fmt::Debug for MappedShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedShards")
            .field("backing", &backing::KIND)
            .field("num_vertices", &self.num_vertices)
            .field("num_buckets", &self.num_buckets())
            .field("num_arcs", &self.num_arcs())
            .finish()
    }
}

impl PartialEq<ShardedArcs> for MappedShards {
    fn eq(&self, other: &ShardedArcs) -> bool {
        self.num_vertices == other.num_vertices()
            && self.num_buckets() == other.num_buckets()
            && (0..self.num_buckets()).all(|b| self.bucket_len(b) == other.bucket_len(b))
            && self.payload() == other.payload()
    }
}

impl PartialEq for MappedShards {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.arc_ends == other.arc_ends
            && self.payload() == other.payload()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::Write;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hourglass-io-mmap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    fn write_store(s: &ShardedArcs, tag: &str) -> std::path::PathBuf {
        let path = tmp_path(tag);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
        s.write_to(&mut f).expect("write");
        f.flush().expect("flush");
        path
    }

    #[test]
    fn mapped_matches_owned_store() {
        let g = generators::rmat(9, 8, generators::RmatParams::SOCIAL, 21).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 5).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 5).expect("shard");
        let path = write_store(&s, "match");
        let m = MappedShards::open(&path).expect("open");
        assert_eq!(m.num_vertices(), s.num_vertices());
        assert_eq!(m.num_buckets(), s.num_buckets());
        assert_eq!(m.num_arcs(), s.num_arcs());
        assert_eq!(m.payload_bytes(), s.payload_bytes());
        for b in 0..s.num_buckets() {
            assert_eq!(m.bucket_bytes(b), s.bucket_bytes(b));
            assert_eq!(m.bucket_len(b), s.bucket_len(b));
        }
        assert!(m == s, "PartialEq<ShardedArcs>");
        m.verify_all().expect("payload checksums hold");
        assert_eq!(m.to_sharded().expect("roundtrip"), s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_rejects_legacy_v1() {
        // A well-formed trailer-less v1 store (0 arcs, 0 buckets): the
        // length matches its layout, so only the magic can reject it.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"HGS1");
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(v1.len(), HEADER_BYTES);
        let path = tmp_path("v1");
        std::fs::write(&path, &v1).expect("write v1");
        match MappedShards::open(&path) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("bad magic"), "{message}")
            }
            other => panic!("v1 must fail on its magic, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_metadata_corruption_eagerly() {
        let g = generators::erdos_renyi(20, 40, 7).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 3).expect("shard");
        let path = write_store(&s, "meta");
        let good = std::fs::read(&path).expect("read back");
        // Flip a bucket-count byte: caught by the metadata CRC at open.
        let mut bad = good.clone();
        bad[HEADER_BYTES] ^= 1;
        std::fs::write(&path, &bad).expect("rewrite");
        assert!(MappedShards::open(&path).is_err(), "count corruption");
        // Truncate: caught by the exact-length check.
        std::fs::write(&path, &good[..good.len() - 1]).expect("rewrite");
        assert!(MappedShards::open(&path).is_err(), "truncation");
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).expect("rewrite");
        assert!(MappedShards::open(&path).is_err(), "bad magic");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_is_caught_lazily() {
        let g = generators::erdos_renyi(25, 50, 9).expect("gen");
        let buckets: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 4).collect();
        let s = ShardedArcs::from_graph_buckets(&g, &buckets, 4).expect("shard");
        let path = write_store(&s, "payload");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Find a non-empty bucket and flip one payload byte inside it.
        let b = (0..4)
            .find(|&b| s.bucket_len(b) > 0)
            .expect("non-empty bucket");
        let bucket_start = (0..b).map(|i| s.bucket_bytes(i).len()).sum::<usize>();
        let off = HEADER_BYTES + 8 * 4 + bucket_start;
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        // Open succeeds: payload is outside the eager metadata check.
        let m = MappedShards::open(&path).expect("open");
        assert!(m.verify_bucket(b).is_err(), "corrupt bucket detected");
        assert!(m.verify_all().is_err());
        // Sibling buckets still verify.
        for other in (0..4).filter(|&o| o != b) {
            m.verify_bucket(other).expect("untouched bucket");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_maps() {
        let g = crate::GraphBuilder::undirected(3).build().expect("build");
        let s = ShardedArcs::flat_from_graph(&g);
        let path = write_store(&s, "empty");
        let m = MappedShards::open(&path).expect("open");
        assert_eq!(m.num_arcs(), 0);
        assert_eq!(m.bucket_bytes(0), &[] as &[u8]);
        assert!(m == s);
        std::fs::remove_file(&path).ok();
    }
}
