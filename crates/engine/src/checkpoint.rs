//! Durable checkpoint stores (the S3 stand-in) and the checkpoint wire
//! format.
//!
//! The paper modifies Giraph to write checkpoints to Amazon S3 rather than
//! the cluster filesystem, "allowing a recovery from a full system failure
//! that may occur due to evictions" (§7). [`CheckpointStore`] abstracts
//! that durable external store; [`MemoryStore`] keeps blobs in RAM (for
//! tests and simulations), [`DirStore`] writes them to a directory with
//! crash-atomic puts (unique temp file + fsync + rename), and
//! [`FaultyStore`] wraps any store with a deterministic
//! [`hourglass_faults::FaultPlan`] so recovery paths can be tested against
//! injected I/O errors, torn writes and bit flips.
//!
//! Checkpoint payloads themselves are CRC32C-framed
//! ([`put_framed`]/[`get_framed`]): a torn or bit-flipped blob is detected
//! at read time instead of decoded into garbage.
//!
//! The payload inside the frame is `HGC1`, the one wire form of an
//! [`EngineCheckpoint`]; all integers and floats little-endian, bitmaps as
//! `⌈n/64⌉` `u64` words with bit `v % 64` of word `v / 64` for vertex `v`:
//!
//! ```text
//! magic      "HGC1"                                    (4 bytes)
//! superstep  u64, the superstep the engine executes next
//! n          u64, vertex count
//! mail kind  u8: 0 = one message per cell (the program has a combiner),
//!                1 = counted lists (it has none)
//! values     n records, vertex order                   ([`Codec`] of Value)
//! halted     bitmap: the vertex has voted to halt
//! has mail   bitmap: the vertex has a non-empty cell
//! counts     kind 1 only: u32 per set bit of `has mail`, each ≥ 1
//! messages   one record per set bit (kind 0) or Σ counts records (kind 1),
//!            cell after cell in vertex order           ([`Codec`] of Message)
//! sums       u64 count, then (name: u64 length + UTF-8 bytes, f64) entries
//!            in strictly ascending name order
//! maxs       likewise
//! ```
//!
//! Equal engine states encode to equal bytes. [`EngineCheckpoint::decode`]
//! checks every count against the bytes that remain before allocating for
//! it and refuses whatever [`EngineCheckpoint::encode`] cannot have written.

use crate::engine::{is_bitmap_of, EngineCheckpoint, Mail};
use crate::program::Aggregates;
use crate::{EngineError, Result};
use hourglass_faults::{FaultInjector, FaultKind, Op, Site};
use hourglass_graph::crc32c::{frame, unframe_vec};
use hourglass_obs as obs;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A durable key→blob store surviving full-cluster failures.
pub trait CheckpointStore: Send + Sync {
    /// Persists `data` under `key`, replacing any previous blob.
    fn put(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Fetches the blob stored under `key`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;

    /// Removes `key` (idempotent).
    fn delete(&self, key: &str) -> Result<()>;

    /// Lists all stored keys.
    fn keys(&self) -> Result<Vec<String>>;
}

/// In-memory store for tests and simulation.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes stored (used by save-time cost models).
    pub fn total_bytes(&self) -> usize {
        self.lock().values().map(|v| v.len()).sum()
    }

    /// Locks the map, recovering a poisoned lock: every critical section
    /// is a single whole-value `HashMap` operation, so a panic elsewhere
    /// on a thread holding the guard cannot leave the map torn.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Vec<u8>>> {
        self.blobs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CheckpointStore for MemoryStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let _span = obs::span("ckpt_put", "ckpt").arg("bytes", data.len() as u64);
        self.lock().insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let _span = obs::span("ckpt_get", "ckpt");
        Ok(self.lock().get(key).cloned())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.lock().remove(key);
        Ok(())
    }

    fn keys(&self) -> Result<Vec<String>> {
        let mut keys: Vec<String> = self.lock().keys().cloned().collect();
        keys.sort();
        Ok(keys)
    }
}

/// Temp-file write granularity: small enough that a mid-put crash
/// injected between chunk writes leaves a visibly partial temp file.
const DIR_WRITE_CHUNK: usize = 4096;

/// Filesystem-backed store; each key maps to one file under the root.
///
/// Puts are crash-atomic: data lands in a uniquely named dot-prefixed
/// temp file (dot-prefixed names are not valid keys, so temp files can
/// never collide with stored blobs — the old `key.tmp` scheme could), is
/// fsynced, and is renamed over the final key; the directory is fsynced
/// after the rename. A crash at any point leaves either the old blob or
/// the new one under the key, never a partial write.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
    tmp_seq: AtomicU64,
    faults: Option<Arc<FaultInjector>>,
}

impl DirStore {
    /// Creates (if needed) and opens a directory-backed store.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| EngineError::Checkpoint(format!("create {root:?}: {e}")))?;
        Ok(DirStore {
            root,
            tmp_seq: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Injects `faults` into the chunked temp-file write
    /// ([`Site::DirWrite`]): an `Io` fault kills the put mid-write —
    /// exactly the crash the atomic rename protects against.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    fn path_of(&self, key: &str) -> Result<PathBuf> {
        if key.is_empty() || key.contains('/') || key.contains("..") || key.starts_with('.') {
            return Err(EngineError::Checkpoint(format!(
                "invalid checkpoint key {key:?}"
            )));
        }
        Ok(self.root.join(key))
    }

    /// Writes `data` to `file` in chunks, consulting the fault injector
    /// before each chunk so a plan can crash the put mid-way.
    fn write_chunked(&self, file: &mut std::fs::File, data: &[u8]) -> std::io::Result<()> {
        let mut written = 0usize;
        for chunk in data.chunks(DIR_WRITE_CHUNK) {
            if let Some(inj) = &self.faults {
                match inj.next(Site::DirWrite, Op::at(written as u64, chunk.len() as u64)) {
                    Some(FaultKind::Io(k)) => return Err(k.to_error()),
                    Some(FaultKind::TornWrite { fraction }) => {
                        let keep = (chunk.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
                        file.write_all(&chunk[..keep])?;
                        return Err(std::io::Error::other("injected fault: torn dir write"));
                    }
                    Some(FaultKind::BitFlip { offset }) => {
                        let mut corrupt = chunk.to_vec();
                        hourglass_faults::flip_bit(&mut corrupt, offset);
                        file.write_all(&corrupt)?;
                        written += chunk.len();
                        continue;
                    }
                    Some(FaultKind::Delay { .. }) | None => {}
                }
            }
            file.write_all(chunk)?;
            written += chunk.len();
        }
        Ok(())
    }
}

impl CheckpointStore for DirStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let _span = obs::span("ckpt_put", "ckpt").arg("bytes", data.len() as u64);
        let path = self.path_of(key)?;
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            self.write_chunked(&mut file, data)?;
            file.sync_all()?;
            Ok(())
        };
        if let Err(e) = write() {
            // A failed put must leave no temp debris — and, thanks to the
            // rename below never having happened, the old blob intact.
            std::fs::remove_file(&tmp).ok();
            return Err(EngineError::Checkpoint(format!("write {tmp:?}: {e}")));
        }
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            EngineError::Checkpoint(format!("rename {path:?}: {e}"))
        })?;
        // Persist the rename itself (directory metadata).
        if let Ok(dir) = std::fs::File::open(&self.root) {
            dir.sync_all().ok();
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let _span = obs::span("ckpt_get", "ckpt");
        let path = self.path_of(key)?;
        match std::fs::read(&path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(EngineError::Checkpoint(format!("read {path:?}: {e}"))),
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        let path = self.path_of(key)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(EngineError::Checkpoint(format!("delete {path:?}: {e}"))),
        }
    }

    fn keys(&self) -> Result<Vec<String>> {
        let mut keys = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| EngineError::Checkpoint(format!("list {:?}: {e}", self.root)))?;
        for entry in entries {
            let entry = entry.map_err(|e| EngineError::Checkpoint(format!("list entry: {e}")))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with('.') {
                    keys.push(name.to_string());
                }
            }
        }
        keys.sort();
        Ok(keys)
    }
}

/// A [`CheckpointStore`] wrapper injecting a deterministic
/// [`hourglass_faults::FaultPlan`] into every operation.
///
/// The wrapper models a *non-atomic* remote store: a torn put commits the
/// partial prefix under the key and then fails, a bit-flipped get returns
/// silently corrupted bytes (the framing layer's checksum is what catches
/// it), an `Io` fault fails the call cleanly before any state changes.
pub struct FaultyStore<S> {
    inner: S,
    injector: Arc<FaultInjector>,
}

impl<S: CheckpointStore> FaultyStore<S> {
    /// Wraps `inner`, consulting `injector` on every operation.
    pub fn new(inner: S, injector: FaultInjector) -> Self {
        FaultyStore {
            inner,
            injector: Arc::new(injector),
        }
    }

    /// Wraps `inner` with a shared injector (so a [`DirStore`]'s
    /// `DirWrite` site can draw from the same schedule).
    pub fn with_shared(inner: S, injector: Arc<FaultInjector>) -> Self {
        FaultyStore { inner, injector }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The injector driving this wrapper.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl<S: CheckpointStore> CheckpointStore for FaultyStore<S> {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        match self
            .injector
            .next(Site::StorePut, Op::len(data.len() as u64))
        {
            Some(FaultKind::Io(k)) => Err(EngineError::Checkpoint(format!(
                "put {key:?}: {}",
                k.to_error()
            ))),
            Some(FaultKind::TornWrite { fraction }) => {
                let keep = (data.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
                self.inner.put(key, &data[..keep])?;
                Err(EngineError::Checkpoint(format!(
                    "put {key:?}: torn write after {keep} of {} bytes",
                    data.len()
                )))
            }
            Some(FaultKind::BitFlip { offset }) => {
                let mut corrupt = data.to_vec();
                hourglass_faults::flip_bit(&mut corrupt, offset);
                self.inner.put(key, &corrupt)
            }
            Some(FaultKind::Delay { .. }) | None => self.inner.put(key, data),
        }
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        let data = self.inner.get(key)?;
        let len = data.as_ref().map_or(0, |d| d.len() as u64);
        match self.injector.next(Site::StoreGet, Op::len(len)) {
            Some(FaultKind::Io(k)) => Err(EngineError::Checkpoint(format!(
                "get {key:?}: {}",
                k.to_error()
            ))),
            Some(FaultKind::TornWrite { fraction }) => Ok(data.map(|d| {
                let keep = (d.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
                d[..keep].to_vec()
            })),
            Some(FaultKind::BitFlip { offset }) => Ok(data.map(|mut d| {
                hourglass_faults::flip_bit(&mut d, offset);
                d
            })),
            Some(FaultKind::Delay { .. }) | None => Ok(data),
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        match self.injector.next(Site::StoreDelete, Op::none()) {
            Some(FaultKind::Io(k)) => Err(EngineError::Checkpoint(format!(
                "delete {key:?}: {}",
                k.to_error()
            ))),
            _ => self.inner.delete(key),
        }
    }

    fn keys(&self) -> Result<Vec<String>> {
        self.inner.keys()
    }
}

/// Stores `payload` under `key` wrapped in a CRC32C frame, so torn writes
/// and bit flips are detected by [`get_framed`] instead of decoded.
pub fn put_framed(store: &dyn CheckpointStore, key: &str, payload: &[u8]) -> Result<()> {
    store.put(key, &frame(payload))
}

/// Fetches and verifies a framed blob, returning its payload. A missing
/// key is `Ok(None)`; a present-but-corrupt blob (bad magic, length
/// mismatch, checksum mismatch) is an [`EngineError::Checkpoint`].
pub fn get_framed(store: &dyn CheckpointStore, key: &str) -> Result<Option<Vec<u8>>> {
    match store.get(key)? {
        None => Ok(None),
        Some(blob) => unframe_vec(blob)
            .map(Some)
            .map_err(|e| EngineError::Checkpoint(format!("corrupt checkpoint {key:?}: {e}"))),
    }
}

/// A value's wire form inside a checkpoint: fixed field order,
/// little-endian, no padding, no self-description.
pub trait Codec: Sized {
    /// The fewest bytes any value encodes to, at least 1: a decoder bounds
    /// a count read from its input by the bytes that remain divided by
    /// this, before it allocates.
    const MIN_BYTES: usize;

    /// Appends the value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value off the front of `input` and advances it past the
    /// bytes read.
    fn get(input: &mut &[u8]) -> Result<Self>;
}

/// The typed error of a payload no encoder wrote.
pub(crate) fn malformed(what: impl std::fmt::Display) -> EngineError {
    EngineError::Checkpoint(format!("malformed checkpoint payload: {what}"))
}

/// The next `len` bytes of `input`.
fn take<'a>(input: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    let (head, tail) = input
        .split_at_checked(len)
        .ok_or_else(|| malformed(format_args!("{len} bytes wanted, {} left", input.len())))?;
    *input = tail;
    Ok(head)
}

macro_rules! codec_le_bytes {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(input: &mut &[u8]) -> Result<Self> {
                let (head, tail) = input
                    .split_first_chunk()
                    .ok_or_else(|| malformed(concat!("truncated ", stringify!($t))))?;
                *input = tail;
                Ok(<$t>::from_le_bytes(*head))
            }
        }
    )*};
}
codec_le_bytes!(u8, u32, u64, f32, f64);

impl Codec for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        match u8::get(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format_args!("bool byte {b:#04x}"))),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        Ok((A::get(input)?, B::get(input)?))
    }
}

/// A `u64` count, then the items.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        self.iter().for_each(|item| item.put(out));
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        let count = u64::get(input)?;
        get_seq(input, count)
    }
}

/// A `u64` byte length, then UTF-8.
impl Codec for String {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(input: &mut &[u8]) -> Result<Self> {
        let len = u64::get(input)?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let bytes = take(input, len)?;
        let text = std::str::from_utf8(bytes).map_err(|e| malformed(format_args!("name: {e}")))?;
        Ok(text.to_string())
    }
}

/// `count` values off the front of `input`; the count is checked against
/// the bytes that remain before anything is allocated for it.
fn get_seq<T: Codec>(input: &mut &[u8], count: u64) -> Result<Vec<T>> {
    const { assert!(T::MIN_BYTES > 0) };
    if count > (input.len() / T::MIN_BYTES) as u64 {
        return Err(malformed(format_args!(
            "{count} records of {} or more bytes in {} bytes",
            T::MIN_BYTES,
            input.len()
        )));
    }
    let mut items = Vec::with_capacity(count as usize);
    for _ in 0..count {
        items.push(T::get(input)?);
    }
    Ok(items)
}

/// A bitmap over `n` positions.
fn get_bitmap(input: &mut &[u8], n: usize) -> Result<Vec<u64>> {
    let words = get_seq::<u64>(input, n.div_ceil(64) as u64)?;
    if !is_bitmap_of(&words, n) {
        return Err(malformed(format_args!("a bitmap bit at or past {n}")));
    }
    Ok(words)
}

/// Magic prefix of an encoded [`EngineCheckpoint`].
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"HGC1";

/// Mail kind byte: every cell holds one message ([`Mail::counts`] is `None`).
const MAIL_FOLDED: u8 = 0;
/// Mail kind byte: cells are counted lists.
const MAIL_LISTS: u8 = 1;

impl<V: Codec, M: Codec> EngineCheckpoint<V, M> {
    /// What [`Self::encode`] appends when values and messages are of fixed
    /// size (their least otherwise), with room for a few aggregates.
    pub(crate) fn encoded_len_hint(&self) -> usize {
        let counts = self.mail.counts.as_ref().map_or(0, Vec::len);
        CHECKPOINT_MAGIC.len()
            + 2 * u64::MIN_BYTES
            + 1
            + self.values.len() * V::MIN_BYTES
            + (self.halted.len() + self.mail.has.len()) * u64::MIN_BYTES
            + counts * u32::MIN_BYTES
            + self.mail.msgs.len() * M::MIN_BYTES
            + 256
    }

    /// Appends the checkpoint's `HGC1` payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(CHECKPOINT_MAGIC);
        (self.superstep as u64).put(out);
        (self.values.len() as u64).put(out);
        out.push(match self.mail.counts {
            None => MAIL_FOLDED,
            Some(_) => MAIL_LISTS,
        });
        self.values.iter().for_each(|v| v.put(out));
        let bitmaps = self.halted.iter().chain(&self.mail.has);
        bitmaps.for_each(|word| word.put(out));
        let counts = self.mail.counts.iter().flatten();
        counts.for_each(|count| count.put(out));
        self.mail.msgs.iter().for_each(|msg| msg.put(out));
        self.prev_aggregates.put(out);
    }

    /// Decodes an `HGC1` payload written for a graph of `num_vertices`
    /// vertices by a program with (`folded`) or without a combiner; any
    /// other payload is a typed [`EngineError::Checkpoint`].
    pub fn decode(payload: &[u8], num_vertices: usize, folded: bool) -> Result<Self> {
        let input = &mut &*payload;
        let magic = take(input, CHECKPOINT_MAGIC.len())?;
        if magic != CHECKPOINT_MAGIC {
            return Err(malformed(format_args!("magic {magic:?}")));
        }
        let superstep = u64::get(input)?;
        let superstep = usize::try_from(superstep)
            .map_err(|_| malformed(format_args!("superstep {superstep}")))?;
        let n = u64::get(input)?;
        if n != num_vertices as u64 {
            return Err(EngineError::Checkpoint(format!(
                "checkpoint covers {n} vertices, graph has {num_vertices}"
            )));
        }
        let kind = u8::get(input)?;
        if kind != if folded { MAIL_FOLDED } else { MAIL_LISTS } {
            return Err(malformed(format_args!(
                "mail kind {kind} for a program {} a combiner",
                if folded { "with" } else { "without" }
            )));
        }
        let values = get_seq(input, n)?;
        let halted = get_bitmap(input, num_vertices)?;
        let has = get_bitmap(input, num_vertices)?;
        let cells: u64 = has.iter().map(|word| u64::from(word.count_ones())).sum();
        let counts = if folded {
            None
        } else {
            Some(get_seq::<u32>(input, cells)?)
        };
        let total = match &counts {
            None => cells,
            Some(counts) if counts.contains(&0) => {
                return Err(malformed("an empty cell marked as holding mail"));
            }
            Some(counts) => counts.iter().map(|&count| u64::from(count)).sum(),
        };
        let msgs = get_seq(input, total)?;
        let prev_aggregates = Aggregates::get(input)?;
        if !input.is_empty() {
            return Err(malformed(format_args!("{} trailing bytes", input.len())));
        }
        Ok(EngineCheckpoint {
            superstep,
            values,
            halted,
            mail: Mail { has, msgs, counts },
            prev_aggregates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{ColorState, CoreState, GraphColoring, PageRank};
    use crate::engine::tests::{program_on, ring, MaxId};
    use hourglass_faults::{FaultPlan, IoKind, Trigger};

    fn encoded<V: Codec, M: Codec>(ckpt: &EngineCheckpoint<V, M>) -> Vec<u8> {
        let mut bytes = Vec::new();
        ckpt.encode(&mut bytes);
        bytes
    }

    /// `value` survives the wire, reads back exactly its own bytes, and
    /// every strict prefix of them is refused.
    fn check_codec<T: Codec + PartialEq + std::fmt::Debug>(value: T, wire_len: usize) {
        let mut bytes = Vec::new();
        value.put(&mut bytes);
        assert_eq!(bytes.len(), wire_len, "{value:?}");
        assert!(bytes.len() >= T::MIN_BYTES, "{value:?}");
        bytes.extend_from_slice(b"rest");
        let input = &mut &bytes[..];
        assert_eq!(T::get(input).expect("decode"), value);
        assert_eq!(*input, b"rest");
        for cut in 0..wire_len {
            assert!(
                T::get(&mut &bytes[..cut]).is_err(),
                "{value:?} cut at {cut}"
            );
        }
    }

    #[test]
    fn codec_round_trips_every_type() {
        check_codec(0xA5u8, 1);
        check_codec(0xDEAD_BEEFu32, 4);
        check_codec(u64::MAX - 1, 8);
        check_codec(-1.5f32, 4);
        check_codec(true, 1);
        check_codec(false, 1);
        check_codec((7u64, 9u32), 12);
        check_codec(Vec::<u32>::new(), 8);
        check_codec(vec![1u32, 2, 3], 20);
        check_codec((5u32, vec![6u32, 7]), 20);
        check_codec("dangling".to_string(), 16);
        check_codec(ColorState { color: u32::MAX }, 4);
        let core = CoreState {
            alive: true,
            dead_neighbors: 3,
        };
        check_codec(core, 5);
        // Floats travel as their bits: −0.0, subnormals, infinities, NaN
        // payloads.
        for bits in [
            0u64,
            1 << 63,
            1,
            f64::INFINITY.to_bits(),
            0x7FF8_0000_0000_BEEF,
        ] {
            let mut bytes = Vec::new();
            f64::from_bits(bits).put(&mut bytes);
            assert_eq!(bytes, bits.to_le_bytes());
            assert_eq!(f64::get(&mut &bytes[..]).expect("decode").to_bits(), bits);
        }
        assert!(bool::get(&mut &[2u8][..]).is_err());
        // A count the remaining bytes cannot hold is refused before any
        // allocation is sized by it.
        let mut huge = Vec::new();
        (u64::MAX / 2).put(&mut huge);
        huge.extend_from_slice(&[0; 64]);
        assert!(<Vec<u32>>::get(&mut &huge[..]).is_err());
        assert!(<Vec<(u32, Vec<u32>)>>::get(&mut &huge[..]).is_err());
        assert!(String::get(&mut &huge[..]).is_err());
    }

    /// The MaxId checkpoint of an 8-vertex ring after one superstep, with
    /// three aggregates added out of name order.
    fn ring_checkpoint() -> EngineCheckpoint<u32, u32> {
        let g = ring(8);
        let mut e = program_on(MaxId, &g, 2);
        e.step().expect("step");
        let mut ckpt = e.checkpoint_state();
        ckpt.prev_aggregates.add_sum("delta", 0.5);
        ckpt.prev_aggregates.add_sum("dangling", 0.25);
        ckpt.prev_aggregates.add_max("m", 2.0);
        ckpt
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_bytes_pin_the_hgc1_layout() {
        #[rustfmt::skip]
        let want = concat!(
            "48474331",                         // "HGC1"
            "0100000000000000",                 // superstep 1
            "0800000000000000",                 // n = 8
            "00",                               // one message per cell
            // values: every vertex still holds its own id
            "0000000001000000020000000300000004000000050000000600000007000000",
            "ff00000000000000",                 // all eight have halted
            "ff00000000000000",                 // all eight have mail
            // messages: the larger of the two neighbors' ids
            "0700000002000000030000000400000005000000060000000700000006000000",
            "0200000000000000",                 // two sums, by name
            "080000000000000064616e676c696e67", // "dangling"
            "000000000000d03f",                 // 0.25
            "050000000000000064656c7461",       // "delta"
            "000000000000e03f",                 // 0.5
            "0100000000000000",                 // one max
            "01000000000000006d",               // "m"
            "0000000000000040",                 // 2.0
        );
        let ckpt = ring_checkpoint();
        let bytes = encoded(&ckpt);
        assert_eq!(hex(&bytes), want);
        let back = EngineCheckpoint::<u32, u32>::decode(&bytes, 8, true).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn list_mail_writes_counts_per_cell() {
        // GraphColoring has no combiner: after one superstep every vertex
        // of the ring holds the priorities of both neighbors.
        let g = ring(8);
        let mut e = program_on(GraphColoring::default(), &g, 3);
        e.step().expect("step");
        let ckpt = e.checkpoint_state();
        assert_eq!(ckpt.mail.counts, Some(vec![2; 8]));
        let bytes = encoded(&ckpt);
        let header = 4 + 8 + 8 + 1;
        assert_eq!(bytes[header - 1], MAIL_LISTS);
        // values, two bitmaps, eight counts, sixteen (u64, u32) messages,
        // two empty aggregate maps.
        assert_eq!(bytes.len(), header + 8 * 4 + 16 + 8 * 4 + 16 * 12 + 16);
        assert_eq!(e.decode_checkpoint(&bytes).expect("decode"), ckpt);
    }

    #[test]
    fn engines_in_the_same_state_write_identical_checkpoint_bytes() {
        // A path with an isolated vertex: PageRank writes two sums
        // ("delta", "dangling") into maps whose iteration order differs
        // from one `HashMap` to the next.
        let mut b = hourglass_graph::GraphBuilder::undirected(40);
        for v in 0..38 {
            b.add_edge(v, v + 1);
        }
        let g = b.build().expect("build");
        let blob_of_a_fresh_engine = || {
            let mut e = program_on(PageRank::fixed(10), &g, 3);
            for _ in 0..3 {
                e.step().expect("step");
            }
            let ckpt = e.checkpoint_state();
            assert!(ckpt.prev_aggregates.sum("dangling") > 0.0);
            assert!(ckpt.prev_aggregates.sum("delta") > 0.0);
            encoded(&ckpt)
        };
        let first = blob_of_a_fresh_engine();
        for _ in 0..8 {
            assert_eq!(hex(&blob_of_a_fresh_engine()), hex(&first));
        }
    }

    #[test]
    fn checkpoint_decoder_refuses_what_no_encoder_wrote() {
        let ckpt = ring_checkpoint();
        let good = encoded(&ckpt);
        let decode = |bytes: &[u8]| EngineCheckpoint::<u32, u32>::decode(bytes, 8, true);
        decode(&good).expect("the unmodified payload");
        let refused = |what: &str, bytes: &[u8]| {
            let err = decode(bytes).expect_err(what);
            assert!(matches!(err, EngineError::Checkpoint(_)), "{what}: {err}");
        };
        for cut in 0..good.len() {
            refused("a strict prefix", &good[..cut]);
        }
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let (n_at, kind_at, values_at) = (12, 20, 21);
        let (halted_at, has_at, msgs_at) = (values_at + 32, values_at + 40, values_at + 48);
        let sums_at = msgs_at + 32;
        refused("another magic", &patched(0, b"HGC2"));
        refused("n of another graph", &patched(n_at, &9u64.to_le_bytes()));
        refused(
            "n beyond the payload",
            &patched(n_at, &(1u64 << 60).to_le_bytes()),
        );
        refused("list mail for a combiner", &patched(kind_at, &[MAIL_LISTS]));
        refused("an unknown mail kind", &patched(kind_at, &[7]));
        refused("a halted bit past n", &patched(halted_at + 1, &[1]));
        refused("a mail bit past n", &patched(has_at + 7, &[0x80]));
        // One more or one fewer cell than messages.
        refused("fewer cells than messages", &patched(has_at, &[0x7F]));
        refused(
            "a huge sum count",
            &patched(sums_at, &u64::MAX.to_le_bytes()),
        );
        refused(
            "a huge name length",
            &patched(sums_at + 8, &u64::MAX.to_le_bytes()),
        );
        refused("a name that is not UTF-8", &patched(sums_at + 16, &[0xFF]));
        // "dbngling" < "delta" still; "eangling" sorts after it.
        decode(&patched(sums_at + 17, b"b")).expect("still ascending");
        refused("names out of order", &patched(sums_at + 16, b"e"));
        refused("a repeated name", &{
            let mut bytes = good[..sums_at + 8].to_vec();
            for _ in 0..2 {
                "delta".to_string().put(&mut bytes);
                0.5f64.put(&mut bytes);
            }
            0u64.put(&mut bytes);
            bytes
        });
        let mut longer = good.clone();
        longer.push(0);
        refused("a trailing byte", &longer);

        // The same payload read for a program without a combiner, and a
        // list payload with an empty or an overflowing cell.
        let as_lists = |bytes: &[u8]| EngineCheckpoint::<u32, u32>::decode(bytes, 8, false);
        assert!(as_lists(&good).is_err(), "folded mail without a combiner");
        let mut lists = ckpt.clone();
        lists.mail.counts = Some(vec![1; 8]);
        let good_lists = encoded(&lists);
        assert_eq!(as_lists(&good_lists).expect("decode"), lists);
        let counts_at = msgs_at;
        for (what, count) in [("an empty cell", 0u32), ("a cell past the end", u32::MAX)] {
            let mut bytes = good_lists.clone();
            bytes[counts_at..counts_at + 4].copy_from_slice(&count.to_le_bytes());
            assert!(as_lists(&bytes).is_err(), "{what}");
        }
    }

    /// Shared contract suite: every store implementation (and every
    /// fault-free wrapped variant) must pass it unchanged.
    fn exercise(store: &dyn CheckpointStore) {
        assert_eq!(store.get("a").expect("get"), None);
        store.put("a", b"hello").expect("put");
        store.put("b", b"world").expect("put");
        assert_eq!(store.get("a").expect("get").as_deref(), Some(&b"hello"[..]));
        assert_eq!(store.keys().expect("keys"), vec!["a", "b"]);
        store.put("a", b"rewritten").expect("put");
        assert_eq!(
            store.get("a").expect("get").as_deref(),
            Some(&b"rewritten"[..])
        );
        store.delete("a").expect("delete");
        store.delete("a").expect("idempotent delete");
        assert_eq!(store.get("a").expect("get"), None);
        assert_eq!(store.keys().expect("keys"), vec!["b"]);
        store.delete("b").expect("cleanup");
        // Framed round-trip through the same store.
        put_framed(store, "framed", b"checkpoint payload").expect("framed put");
        assert_eq!(
            get_framed(store, "framed").expect("framed get").as_deref(),
            Some(&b"checkpoint payload"[..])
        );
        assert_eq!(get_framed(store, "absent").expect("framed miss"), None);
        store.delete("framed").expect("cleanup");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hourglass-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_store_contract() {
        let s = MemoryStore::new();
        exercise(&s);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn memory_store_survives_a_panic_under_its_lock() {
        let s = MemoryStore::new();
        s.put("a", b"before").expect("put");
        let holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.blobs.lock().expect("first lock");
                    panic!("holder dies with the store locked");
                })
                .join()
        });
        assert!(holder.is_err());
        assert!(s.blobs.is_poisoned());
        assert_eq!(s.get("a").expect("get").as_deref(), Some(&b"before"[..]));
        s.put("b", b"after").expect("put");
        assert_eq!(s.keys().expect("keys"), vec!["a", "b"]);
        assert_eq!(s.total_bytes(), 11);
        s.delete("a").expect("delete");
    }

    #[test]
    fn dir_store_contract() {
        let dir = temp_dir("contract");
        let s = DirStore::open(&dir).expect("open");
        exercise(&s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulty_store_with_empty_plan_meets_contract() {
        exercise(&FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(7).injector(),
        ));
        let dir = temp_dir("faulty-contract");
        exercise(&FaultyStore::new(
            DirStore::open(&dir).expect("open"),
            FaultPlan::new(7).injector(),
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_store_rejects_path_traversal() {
        let dir = temp_dir("traversal");
        let s = DirStore::open(&dir).expect("open");
        assert!(s.put("../evil", b"x").is_err());
        assert!(s.put("a/b", b"x").is_err());
        assert!(s.put("", b"x").is_err());
        assert!(s.put(".hidden", b"x").is_err(), "dot keys are reserved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_store_colliding_temp_names_fixed() {
        // The old scheme derived one temp name per *extension-stripped*
        // key ("a" and "a.bin" both wrote "a.tmp") and hid `*.tmp` keys
        // from keys(). Unique dot-prefixed temps fix both.
        let dir = temp_dir("collide");
        let s = DirStore::open(&dir).expect("open");
        s.put("a", b"one").expect("put");
        s.put("a.bin", b"two").expect("put");
        s.put("a.tmp", b"three").expect("put");
        assert_eq!(s.get("a").expect("get").as_deref(), Some(&b"one"[..]));
        assert_eq!(s.get("a.bin").expect("get").as_deref(), Some(&b"two"[..]));
        assert_eq!(s.keys().expect("keys"), vec!["a", "a.bin", "a.tmp"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_after_failed_put_returns_old_value() {
        // Io fault on the second put: the first blob must survive intact.
        let plan = FaultPlan::new(1).rule_budgeted(
            Site::StorePut,
            Trigger::OnCall(1),
            FaultKind::Io(IoKind::TimedOut),
            1,
        );
        let store = FaultyStore::new(MemoryStore::new(), plan.injector());
        store.put("k", b"old").expect("first put");
        assert!(store.put("k", b"new").is_err(), "injected put failure");
        assert_eq!(store.get("k").expect("get").as_deref(), Some(&b"old"[..]));
        assert_eq!(store.keys().expect("keys"), vec!["k"]);
    }

    #[test]
    fn keys_after_torn_write_list_the_partial_blob() {
        // A torn put over a NON-atomic store commits the prefix: the key
        // is listed, the raw value is partial, and the framing layer is
        // what rejects it.
        let plan = FaultPlan::new(2).rule_budgeted(
            Site::StorePut,
            Trigger::OnCall(0),
            FaultKind::TornWrite { fraction: 0.5 },
            1,
        );
        let store = FaultyStore::new(MemoryStore::new(), plan.injector());
        assert!(put_framed(&store, "k", b"full payload bytes").is_err());
        assert_eq!(store.keys().expect("keys"), vec!["k"]);
        let raw = store.get("k").expect("raw get").expect("partial blob");
        assert!(raw.len() < frame(b"full payload bytes").len());
        assert!(
            get_framed(&store, "k").is_err(),
            "framing must reject the torn blob"
        );
    }

    #[test]
    fn dir_store_put_killed_mid_write_preserves_old_value() {
        // Regression for the crash-atomicity fix: a put killed between
        // chunk writes (via the DirWrite fault site) must leave the old
        // blob under the key and no temp debris.
        let plan = FaultPlan::new(3).rule_budgeted(
            Site::DirWrite,
            Trigger::AtByte(DIR_WRITE_CHUNK as u64 + 1),
            FaultKind::Io(IoKind::Other),
            1,
        );
        let inj = Arc::new(plan.injector());
        let dir = temp_dir("crash");
        let s = DirStore::open(&dir).expect("open").with_faults(inj);
        s.put("ckpt", b"old value").expect("seed put");
        let big = vec![0xABu8; DIR_WRITE_CHUNK * 3];
        assert!(s.put("ckpt", &big).is_err(), "injected mid-write crash");
        assert_eq!(
            s.get("ckpt").expect("get").as_deref(),
            Some(&b"old value"[..])
        );
        assert_eq!(s.keys().expect("keys"), vec!["ckpt"]);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .collect();
        assert!(leftovers.is_empty(), "temp debris left: {leftovers:?}");
        // The store keeps working after the failed put.
        s.put("ckpt", &big).expect("retry succeeds");
        assert_eq!(s.get("ckpt").expect("get").as_deref(), Some(&big[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_checkpoint_every_single_bit_flip_is_detected() {
        let store = MemoryStore::new();
        put_framed(&store, "ckpt", b"superstep 7 state").expect("put");
        let blob = store.get("ckpt").expect("get").expect("blob");
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            store.put("ckpt", &bad).expect("put corrupted");
            assert!(
                get_framed(&store, "ckpt").is_err(),
                "bit flip at {bit} went undetected"
            );
        }
    }

    #[test]
    fn faulty_store_bitflip_get_is_caught_by_framing() {
        let plan = FaultPlan::new(4).rule_budgeted(
            Site::StoreGet,
            Trigger::OnCall(0),
            FaultKind::BitFlip { offset: 101 },
            1,
        );
        let store = FaultyStore::new(MemoryStore::new(), plan.injector());
        put_framed(&store, "k", b"payload that must not silently corrupt").expect("put");
        assert!(get_framed(&store, "k").is_err(), "flip must be detected");
        // Budget exhausted: the retry reads clean data.
        assert_eq!(
            get_framed(&store, "k").expect("clean get").as_deref(),
            Some(&b"payload that must not silently corrupt"[..])
        );
    }
}
