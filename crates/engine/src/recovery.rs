//! Epoch-based checkpoint save/restore with retries and graceful
//! degradation.
//!
//! The engine's [`crate::engine::BspEngine::checkpoint_state`] produces a
//! portable state snapshot; this module decides how snapshots live in a
//! [`CheckpointStore`] so a deployment can survive the store misbehaving:
//!
//! - every epoch is written under its own key ([`epoch_key`]) inside a
//!   CRC32C frame, through a bounded [`RetryPolicy`];
//! - restore scans epochs newest-first: a corrupt or unreadable latest
//!   checkpoint *degrades* to the previous valid epoch (emitting a
//!   `ckpt_fallback` span) instead of failing the run — only when every
//!   present epoch is corrupt does the restore return a typed error.

use crate::checkpoint::{get_framed, CheckpointStore};
use crate::engine::{BspEngine, EngineCheckpoint};
use crate::program::VertexProgram;
use crate::{EngineError, Result};
use hourglass_faults::RetryPolicy;
use hourglass_graph::crc32c::{frame_with, FRAME_OVERHEAD};
use hourglass_obs as obs;

/// The store key of checkpoint epoch `epoch` under `prefix`.
pub fn epoch_key(prefix: &str, epoch: usize) -> String {
    format!("{prefix}-e{epoch:06}")
}

fn fallback_args(epoch: usize) -> obs::Args {
    let mut args = obs::Args::new();
    args.push("epoch", epoch as u64);
    args
}

/// What a recovery-path operation cost, for billing and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Failed attempts retried away across all store operations.
    pub retries: u32,
    /// Accounted retry backoff, nanoseconds (never slept here; callers
    /// bill it to their own clock).
    pub backoff_ns: u64,
    /// Epochs skipped because their blob was corrupt or unreadable.
    pub fallback_epochs: u32,
}

/// Encodes and stores one checkpoint epoch, framed and retried. The `HGC1`
/// payload is encoded straight into its frame: one blob-sized buffer.
pub fn save_epoch<P: VertexProgram>(
    store: &dyn CheckpointStore,
    prefix: &str,
    epoch: usize,
    ckpt: &EngineCheckpoint<P::Value, P::Message>,
    retry: &RetryPolicy,
) -> Result<RecoveryStats> {
    let key = epoch_key(prefix, epoch);
    let blob = frame_with(ckpt.encoded_len_hint(), |out| ckpt.encode(out));
    let _span = obs::span("ckpt_save_epoch", "ckpt")
        .arg("epoch", epoch as u64)
        .arg("bytes", (blob.len() - FRAME_OVERHEAD) as u64);
    let (res, stats) = retry.run(|_| store.put(&key, &blob));
    res?;
    Ok(RecoveryStats {
        retries: stats.attempts - 1,
        backoff_ns: stats.backoff_ns,
        ..RecoveryStats::default()
    })
}

/// The payload of the newest valid epoch at or below `max_epoch`, with
/// the stats of getting it.
///
/// Corrupt or persistently unreadable epochs are skipped (each emits a
/// `ckpt_fallback` span and counts in
/// [`RecoveryStats::fallback_epochs`]). Returns `Ok(None)` when no epoch
/// exists at all, and a typed [`EngineError::Checkpoint`] when epochs
/// exist but every one of them is corrupt.
pub fn load_latest(
    store: &dyn CheckpointStore,
    prefix: &str,
    max_epoch: usize,
    retry: &RetryPolicy,
) -> Result<Option<(usize, Vec<u8>, RecoveryStats)>> {
    let mut stats = RecoveryStats::default();
    let mut saw_corrupt = false;
    for epoch in (0..=max_epoch).rev() {
        let key = epoch_key(prefix, epoch);
        let (res, attempt) = retry.run(|_| get_framed(store, &key));
        stats.retries += attempt.attempts - 1;
        stats.backoff_ns += attempt.backoff_ns;
        match res {
            Ok(Some(payload)) => return Ok(Some((epoch, payload, stats))),
            Ok(None) => {}
            Err(e) => {
                saw_corrupt = true;
                stats.fallback_epochs += 1;
                obs::instant("ckpt_fallback", "ckpt", fallback_args(epoch));
                let _ = e;
            }
        }
    }
    if saw_corrupt {
        return Err(EngineError::Checkpoint(format!(
            "no valid checkpoint epoch under {prefix:?}: all {} present epochs corrupt",
            stats.fallback_epochs
        )));
    }
    Ok(None)
}

/// Restores the engine from the newest valid epoch at or below
/// `max_epoch`, degrading past corrupt epochs (including blobs whose
/// frame verifies but whose payload is not a checkpoint of this job).
///
/// Returns the epoch restored and the recovery stats, `Ok(None)` when no
/// epoch exists, or a typed error when every present epoch is unusable.
pub fn restore_latest<P: VertexProgram>(
    engine: &mut BspEngine<'_, P>,
    store: &dyn CheckpointStore,
    prefix: &str,
    max_epoch: usize,
    retry: &RetryPolicy,
) -> Result<Option<(usize, RecoveryStats)>> {
    let mut stats = RecoveryStats::default();
    let mut saw_corrupt = false;
    let mut epoch = max_epoch;
    loop {
        match load_latest(store, prefix, epoch, retry) {
            Ok(Some((found, payload, inner))) => {
                stats.retries += inner.retries;
                stats.backoff_ns += inner.backoff_ns;
                stats.fallback_epochs += inner.fallback_epochs;
                match engine.decode_checkpoint(&payload) {
                    Ok(ckpt) => {
                        drop(payload);
                        engine.restore_state(ckpt)?;
                        return Ok(Some((found, stats)));
                    }
                    Err(_) => {
                        // Framed-but-undecodable: degrade past it too.
                        saw_corrupt = true;
                        stats.fallback_epochs += 1;
                        obs::instant("ckpt_fallback", "ckpt", fallback_args(found));
                        if found == 0 {
                            break;
                        }
                        epoch = found - 1;
                    }
                }
            }
            Ok(None) => {
                if saw_corrupt {
                    break;
                }
                return Ok(None);
            }
            Err(e) => {
                if saw_corrupt {
                    break;
                }
                return Err(e);
            }
        }
    }
    Err(EngineError::Checkpoint(format!(
        "no usable checkpoint epoch under {prefix:?}: {} epochs skipped",
        stats.fallback_epochs
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryStore;
    use crate::engine::{BspEngine, EngineConfig};
    use crate::program::{ComputeContext, VertexProgram};
    use hourglass_graph::generators;
    use hourglass_partition::hash::HashPartitioner;
    use hourglass_partition::Partitioner;

    struct MaxId;
    impl VertexProgram for MaxId {
        type Value = u32;
        type Message = u32;

        fn init(&self, v: hourglass_graph::VertexId, _g: &hourglass_graph::Graph) -> u32 {
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
    }

    fn engine_fixture(g: &hourglass_graph::Graph) -> BspEngine<'_, MaxId> {
        let p = HashPartitioner.partition(g, 4).expect("partition");
        BspEngine::new(MaxId, g, p, EngineConfig::default()).expect("engine")
    }

    #[test]
    fn epoch_keys_sort_lexicographically() {
        let a = epoch_key("run", 9);
        let b = epoch_key("run", 10);
        let c = epoch_key("run", 123_456);
        assert!(a < b && b < c);
    }

    #[test]
    fn save_then_restore_latest_round_trips() {
        let g = generators::erdos_renyi(40, 80, 11).expect("gen");
        let store = MemoryStore::new();
        let retry = RetryPolicy::default();

        let mut engine = engine_fixture(&g);
        engine.step().expect("step");
        let ckpt = engine.checkpoint_state();
        let expect_values = ckpt.values.clone();
        save_epoch::<MaxId>(&store, "run", 0, &ckpt, &retry).expect("save");
        engine.step().expect("step");
        save_epoch::<MaxId>(&store, "run", 1, &engine.checkpoint_state(), &retry).expect("save");

        let mut fresh = engine_fixture(&g);
        let (epoch, stats) = restore_latest(&mut fresh, &store, "run", 10, &retry)
            .expect("restore")
            .expect("found");
        assert_eq!(epoch, 1);
        assert_eq!(stats, RecoveryStats::default());

        // And the earlier epoch is still reachable directly.
        let (found, payload, _) = load_latest(&store, "run", 0, &retry)
            .expect("load")
            .expect("found");
        assert_eq!(found, 0);
        let old = fresh.decode_checkpoint(&payload).expect("decode");
        assert_eq!(old.values, expect_values);
    }

    /// Runs `program` for `cut` supersteps on every k_from, saves, restores
    /// onto every k_to and finishes: the restored engine holds the snapshot
    /// to the bit, and ends where the uninterrupted run ends.
    fn round_trip_across_k<P: VertexProgram + Copy>(
        program: P,
        g: &hourglass_graph::Graph,
        cut: usize,
        same: impl Fn(&P::Value, &P::Value) -> bool,
    ) {
        let engine = |k: u32| {
            let p = HashPartitioner.partition(g, k).expect("partition");
            BspEngine::new(program, g, p, EngineConfig::default()).expect("engine")
        };
        let encoded = |e: &BspEngine<'_, P>| {
            let mut bytes = Vec::new();
            e.checkpoint_state().encode(&mut bytes);
            bytes
        };
        let retry = RetryPolicy::default();
        let name = program.name();
        let mut whole = engine(1);
        whole.run().expect("run");
        let want = whole.into_values();
        for k_from in [1u32, 2, 4, 8] {
            let mut a = engine(k_from);
            for _ in 0..cut {
                a.step().expect("step");
            }
            let store = MemoryStore::new();
            let snapshot = a.checkpoint_state();
            save_epoch::<P>(&store, name, cut, &snapshot, &retry).expect("save");
            for k_to in [1u32, 2, 4, 8] {
                let at = format!("{name} {k_from} -> {k_to}");
                let mut b = engine(k_to);
                let found = restore_latest(&mut b, &store, name, cut, &retry).expect("restore");
                assert_eq!(found, Some((cut, RecoveryStats::default())), "{at}");
                assert_eq!(b.superstep(), a.superstep(), "{at}");
                // Equal bytes: values, flags, mail and aggregates came back
                // bit for bit, floats included.
                assert!(encoded(&b) == encoded(&a), "{at}: restored state differs");
                b.run().expect("run");
                let got = b.into_values();
                assert!(
                    got.len() == want.len() && got.iter().zip(&want).all(|(x, y)| same(x, y)),
                    "{at}: final values differ"
                );
            }
        }
    }

    #[test]
    fn every_program_round_trips_a_checkpoint_across_worker_counts() {
        use crate::apps::*;
        let g = generators::rmat(7, 8, generators::RmatParams::SOCIAL, 3).expect("gen");
        // Sums fold in an order that depends on k; everything else is exact.
        round_trip_across_k(PageRank::fixed(8), &g, 3, |a, b| (a - b).abs() < 1e-12);
        round_trip_across_k(Sssp { source: 7 }, &g, 2, |a, b| a.to_bits() == b.to_bits());
        round_trip_across_k(GraphColoring::default(), &g, 2, |a, b| a == b);
        round_trip_across_k(Wcc, &g, 2, |a, b| a == b);
        round_trip_across_k(Bfs { source: 7 }, &g, 2, |a, b| a == b);
        round_trip_across_k(DegreeCount, &g, 1, |a, b| a == b);
        round_trip_across_k(TriangleCount, &g, 1, |a, b| a == b);
        round_trip_across_k(KCore { k: 3 }, &g, 2, |a, b| a == b);
        round_trip_across_k(LabelPropagation { rounds: 5 }, &g, 3, |a, b| a == b);
    }

    #[test]
    fn corrupt_latest_epoch_falls_back_to_previous() {
        let g = generators::erdos_renyi(30, 60, 5).expect("gen");
        let store = MemoryStore::new();
        let retry = RetryPolicy::default();

        let mut engine = engine_fixture(&g);
        engine.step().expect("step");
        save_epoch::<MaxId>(&store, "run", 0, &engine.checkpoint_state(), &retry).expect("save");
        engine.step().expect("step");
        save_epoch::<MaxId>(&store, "run", 1, &engine.checkpoint_state(), &retry).expect("save");

        // Tear the final checkpoint: cut the framed blob in half.
        let blob = store.get(&epoch_key("run", 1)).expect("get").expect("blob");
        store
            .put(&epoch_key("run", 1), &blob[..blob.len() / 2])
            .expect("corrupt");

        let mut fresh = engine_fixture(&g);
        let (epoch, stats) = restore_latest(&mut fresh, &store, "run", 1, &retry)
            .expect("restore")
            .expect("found");
        assert_eq!(epoch, 0, "must degrade to epoch N-1");
        assert_eq!(stats.fallback_epochs, 1);
    }

    #[test]
    fn all_epochs_corrupt_is_a_typed_error() {
        let g = generators::erdos_renyi(20, 40, 3).expect("gen");
        let store = MemoryStore::new();
        let retry = RetryPolicy::default();
        let mut engine = engine_fixture(&g);
        engine.step().expect("step");
        save_epoch::<MaxId>(&store, "run", 0, &engine.checkpoint_state(), &retry).expect("save");
        store
            .put(&epoch_key("run", 0), b"garbage")
            .expect("corrupt");

        let mut fresh = engine_fixture(&g);
        let err = restore_latest(&mut fresh, &store, "run", 3, &retry).expect_err("typed error");
        assert!(matches!(err, EngineError::Checkpoint(_)));
    }

    #[test]
    fn no_epochs_at_all_is_none() {
        let g = generators::erdos_renyi(20, 40, 3).expect("gen");
        let store = MemoryStore::new();
        let mut engine = engine_fixture(&g);
        let got = restore_latest(&mut engine, &store, "run", 5, &RetryPolicy::default())
            .expect("restore");
        assert!(got.is_none());
    }

    #[test]
    fn framed_but_undecodable_payload_degrades() {
        let g = generators::erdos_renyi(20, 40, 3).expect("gen");
        let store = MemoryStore::new();
        let retry = RetryPolicy::default();
        let mut engine = engine_fixture(&g);
        engine.step().expect("step");
        save_epoch::<MaxId>(&store, "run", 0, &engine.checkpoint_state(), &retry).expect("save");
        // Epoch 1 has a *valid frame* around a payload that is not a
        // checkpoint: the restore must degrade past it, not error.
        crate::checkpoint::put_framed(&store, &epoch_key("run", 1), b"not a checkpoint")
            .expect("put");

        let mut fresh = engine_fixture(&g);
        let (epoch, stats) = restore_latest(&mut fresh, &store, "run", 1, &retry)
            .expect("restore")
            .expect("found");
        assert_eq!(epoch, 0);
        assert_eq!(stats.fallback_epochs, 1);
    }
}
