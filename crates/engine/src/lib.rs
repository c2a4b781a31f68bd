//! A Pregel-style BSP graph-processing engine (the Giraph stand-in).
//!
//! The paper's prototype runs a modified Apache Giraph; we build the same
//! class of engine from scratch: vertex-centric programs executed in
//! synchronous supersteps by a set of workers, with message passing,
//! combiners, aggregators, checkpoint/restore to a durable store, and the
//! three graph-loading strategies contrasted in §6/§8.3.1 (stream, hash
//! and micro loading).
//!
//! The engine executes workers as threads over a shared immutable graph;
//! partition ownership decides which messages are "remote" (they cross
//! workers and are tallied separately, since the paper's partition-quality
//! metric §8.3.3 estimates exactly this traffic).
//!
//! Loading reads a [`loaders::Datastore`] — the text edge-list baseline or
//! the sharded binary (`HGS2`, checksummed) layout whose micro-partition
//! buckets decode zero-copy — and [`loaders::reload_graph`] turns the
//! loaded per-worker slabs back into the in-memory graph a deployment
//! executes on. Checkpoint recovery and degraded reloads under injected
//! faults live in [`recovery`] and [`loaders::reload_graph_resilient`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod checkpoint;
pub mod engine;
pub mod loaders;
pub mod metrics;
pub mod program;
pub mod recovery;

/// The deterministic fault-injection layer the stores and loaders accept
/// plans from (re-exported so downstream crates need no extra dependency).
pub use hourglass_faults as faults;

pub use checkpoint::{get_framed, put_framed, CheckpointStore, DirStore, FaultyStore, MemoryStore};
pub use engine::{BspEngine, EngineConfig, ExecutionReport};
pub use loaders::{Datastore, StoreFormat};
pub use program::{Combiner, ComputeContext, VertexProgram};

use std::fmt;

/// Errors produced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Configuration was invalid for the given graph/partitioning.
    InvalidConfig(String),
    /// Checkpoint serialization or IO failed.
    Checkpoint(String),
    /// A partitioning error bubbled up.
    Partition(hourglass_partition::PartitionError),
    /// A datastore shard stayed unreadable after every retry.
    ShardRead {
        /// The bucket whose read kept failing.
        bucket: u32,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// The program exceeded the superstep limit without halting.
    DidNotConverge {
        /// The limit that was hit.
        max_supersteps: usize,
    },
    /// Worker slabs handed to [`loaders::reload_graph`] were inconsistent:
    /// a vertex was out of range for the deployment graph or owned by more
    /// than one worker (a corrupt store or a bad micro→worker map would
    /// otherwise silently corrupt the rebuilt CSR).
    SlabConflict {
        /// The offending vertex id.
        vertex: u32,
        /// The worker whose slab triggered the conflict.
        worker: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(m) => write!(f, "invalid engine config: {m}"),
            EngineError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            EngineError::Partition(e) => write!(f, "partition error: {e}"),
            EngineError::ShardRead { bucket, attempts } => {
                write!(
                    f,
                    "shard bucket {bucket} unreadable after {attempts} attempts"
                )
            }
            EngineError::DidNotConverge { max_supersteps } => {
                write!(f, "program did not halt within {max_supersteps} supersteps")
            }
            EngineError::SlabConflict { vertex, worker } => {
                write!(
                    f,
                    "worker {worker} slab conflicts on vertex {vertex}: duplicated or out of range"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<hourglass_partition::PartitionError> for EngineError {
    fn from(e: hourglass_partition::PartitionError) -> Self {
        EngineError::Partition(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
