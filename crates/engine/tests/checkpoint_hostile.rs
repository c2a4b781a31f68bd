//! Hostile `HGC1` payloads: seeded mutations of valid checkpoints, each
//! re-framed so the CRC passes and the decoder is all that stands between
//! the bytes and the engine. The outcome is a typed error or a checkpoint
//! that restores and runs — never a panic, never an allocation sized by a
//! number the payload made up.
//!
//! This binary holds one test on purpose: the allocator below counts every
//! thread of the process.

use hourglass_engine::apps::{GraphColoring, PageRank, TriangleCount};
use hourglass_engine::recovery::{restore_latest, save_epoch};
use hourglass_engine::{
    get_framed, put_framed, BspEngine, EngineConfig, EngineError, MemoryStore, VertexProgram,
};
use hourglass_faults::RetryPolicy;
use hourglass_graph::{generators, Graph};
use hourglass_partition::{hash::HashPartitioner, Partitioner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, remembering the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is handed to `System` with the arguments it came with,
// so `System`'s guarantees are this allocator's; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Requests up to this size are not the payload's doing.
const SMALL: usize = 1024;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// One mutation of `payload`: a flipped bit, a rewritten byte, a count-like
/// word overwritten with a boundary value, a cut, an extension, a removed or
/// a repeated range. Offsets lean towards the header, where the counts are.
fn mutate(payload: &[u8], rng: &mut SplitMix) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    let at = if rng.below(4) == 0 {
        rng.below(payload.len().min(32))
    } else {
        rng.below(payload.len())
    };
    match rng.below(8) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes[at] = rng.next() as u8,
        2 | 3 => {
            let words = [0, 1, 7, 1 << 31, 1 << 32, 1 << 40, u64::MAX / 2, u64::MAX];
            let word = match rng.below(words.len() + 2) {
                i if i < words.len() => words[i],
                // A plausible count: near the payload's own size.
                _ => rng.below(2 * payload.len()) as u64,
            };
            let width = [4, 8][rng.below(2)].min(bytes.len() - at);
            bytes[at..at + width].copy_from_slice(&word.to_le_bytes()[..width]);
        }
        4 => bytes.truncate(at),
        5 => bytes.extend((0..1 + rng.below(16)).map(|_| rng.next() as u8)),
        6 => drop(bytes.drain(at..(at + 1 + rng.below(64)).min(payload.len()))),
        _ => {
            let end = (at + 1 + rng.below(64)).min(payload.len());
            let again = bytes[at..end].to_vec();
            bytes.splice(at..at, again);
        }
    }
    bytes
}

/// Checkpoints `program` after `cut` supersteps on `g` and restores
/// `mutations` mutated copies of the payload. `blowup` is how many bytes of
/// memory the decoder may ask for, in one request, per byte of blob (on top
/// of [`SMALL`], which covers error messages and map tables).
fn sweep<P: VertexProgram + Copy>(
    program: P,
    g: &Graph,
    cut: usize,
    mutations: usize,
    blowup: usize,
) {
    let name = program.name();
    let engine = || {
        let p = HashPartitioner.partition(g, 3).expect("partition");
        let config = EngineConfig {
            max_supersteps: cut + 2,
            parallel: false,
        };
        BspEngine::new(program, g, p, config).expect("engine")
    };
    let retry = RetryPolicy::default();
    let store = MemoryStore::new();
    let mut source = engine();
    for _ in 0..cut {
        source.step().expect("step");
    }
    save_epoch::<P>(&store, name, 0, &source.checkpoint_state(), &retry).expect("save");
    let payload = get_framed(&store, &format!("{name}-e000000"))
        .expect("read back")
        .expect("the epoch just saved");

    // The engine under attack has restored once already: its slabs exist,
    // so what a restore allocates from here on is the decoder's doing.
    let mut target = engine();
    restore_latest(&mut target, &store, name, 0, &retry)
        .expect("restore")
        .expect("found");

    let mut rng = SplitMix(0x4847_4331 ^ payload.len() as u64);
    let (mut restored, mut refused) = (0, 0);
    for i in 0..mutations {
        let bad = mutate(&payload, &mut rng);
        put_framed(&store, &format!("{name}-e000000"), &bad).expect("put");
        let limit = blowup * (bad.len() + 16) + SMALL;
        LARGEST.store(0, Relaxed);
        let outcome = restore_latest(&mut target, &store, name, 0, &retry);
        let largest = LARGEST.load(Relaxed);
        assert!(
            largest <= limit,
            "{name} mutation {i}: one allocation of {largest} bytes for a blob of {}",
            bad.len()
        );
        match outcome {
            Ok(Some((0, _))) => {
                restored += 1;
                // Strict both ways: what decodes is what an encoder writes.
                let mut again = Vec::new();
                target.checkpoint_state().encode(&mut again);
                assert!(
                    again == bad,
                    "{name} mutation {i}: accepted a second spelling"
                );
                // And the state is one the engine can execute.
                match target.run() {
                    Ok(_) | Err(EngineError::DidNotConverge { .. }) => {}
                    Err(e) => panic!("{name} mutation {i}: restored, then {e}"),
                }
            }
            Err(EngineError::Checkpoint(_)) => refused += 1,
            other => panic!("{name} mutation {i}: {other:?}"),
        }
    }
    // Both outcomes occur: flips inside values restore, broken counts do not.
    assert!(
        restored > mutations / 20,
        "{name}: only {restored} restored"
    );
    assert!(refused > mutations / 4, "{name}: only {refused} refused");
}

#[test]
fn checkpoint_mutations_are_refused_or_restored_never_trusted() {
    let g = generators::erdos_renyi(64, 160, 5).expect("gen");
    sweep(PageRank::fixed(20), &g, 3, 2500, 2);
    sweep(GraphColoring::default(), &g, 2, 2500, 2);
    sweep(TriangleCount, &g, 1, 2500, 3);
}
