//! Durable checkpoint stores (the S3 stand-in).
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
//! at read time instead of deserialized into garbage.

use crate::{EngineError, Result};
use hourglass_faults::{FaultInjector, FaultKind, Op, Site};
use hourglass_graph::crc32c::{frame, unframe};
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

/// Fetches and verifies a framed blob. A missing key is `Ok(None)`; a
/// present-but-corrupt blob (bad magic, length mismatch, checksum
/// mismatch) is an [`EngineError::Checkpoint`].
pub fn get_framed(store: &dyn CheckpointStore, key: &str) -> Result<Option<Vec<u8>>> {
    match store.get(key)? {
        None => Ok(None),
        Some(blob) => unframe(&blob)
            .map(|payload| Some(payload.to_vec()))
            .map_err(|e| EngineError::Checkpoint(format!("corrupt checkpoint {key:?}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hourglass_faults::{FaultPlan, IoKind, Trigger};

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
