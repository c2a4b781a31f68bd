//! Shared fork-join helpers for parallel sections across the workspace.
//!
//! Every parallel region in the engine (superstep compute, message
//! delivery, loader parsing) and in the simulator (Monte-Carlo sweeps) is
//! a fork-join over disjoint per-task state. Centralizing the thread
//! plumbing keeps the sequential and threaded paths literally the same
//! closures, which is what makes "parallel matches sequential" a
//! structural guarantee rather than a test-enforced one.
//!
//! There are two primitives, and which one is right depends on how often
//! the caller forks:
//!
//! - [`fork_join`] (and [`par_map`] / [`par_map_when`] on top of it) spawns
//!   one scoped thread per task and joins them. A spawn-and-join costs
//!   ≈ 0.1 ms, which is nothing to a caller that forks once over seconds of
//!   work: the loaders and the simulator's sweeps. Short-lived threads also
//!   hand their heap back at every join.
//! - [`Pool`] keeps `k − 1` workers parked between rounds and hands a round
//!   over in about a microsecond. It is for a caller that forks thousands
//!   of times over the same `k`: the BSP engine, twice per superstep, where
//!   a sparse superstep is shorter than a spawn.
//!
//! The split is measured, not assumed (EXPERIMENTS.md, "A persistent worker
//! pool"): the pool made an 830-superstep SSSP 1.39× faster, while routing
//! the simulator's sweeps through parked workers grew their peak RSS from
//! 90 to 130 MiB (a parked thread keeps its heap) at no gain in time. So
//! there is no process-wide pool, and a caller picks by its shape, not by
//! a flag.
//!
//! The fork-join seam is also the observability merge point: every task
//! body, on the sequential path, on a scoped thread or on a pool worker,
//! runs inside one bracket (`run_task`) of `hourglass_obs` and
//! `hourglass_metrics` task scopes, and the spans and metric shards a task
//! recorded are handed back to the caller in task-submission order — a
//! traced (or metered) parallel run collects the same span stream and the
//! same metric snapshot as a sequential one.

// `deny` rather than `forbid`: the crate has two audited `unsafe` sites,
// each under a scoped allow with a SAFETY argument — the affinity syscalls
// in `pin`, and the borrow erasure that lets `Pool` workers run a caller's
// tasks.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pin;
mod pool;

pub use pool::Pool;

use hourglass_metrics as metrics;
use hourglass_obs as obs;

/// A task's result with the telemetry it recorded.
type TaskOut<R> = (R, metrics::TaskShard, obs::TaskSpans);

/// The bracket every task runs in, whatever thread it is on: task `i`
/// records its spans on track `i` and its metrics in a fresh shard, and
/// both come back with the result. `pinned` is for threads that exist to
/// run task `i`; the calling thread is never pinned.
fn run_task<R>(i: usize, pinned: bool, task: impl FnOnce() -> R) -> TaskOut<R> {
    if pinned {
        pin::pin_task_thread(i);
    }
    let scope = obs::task_begin(i as u32);
    let mscope = metrics::task_begin();
    let r = task();
    (r, metrics::task_end(mscope), obs::task_end(scope))
}

/// Hands a finished task's telemetry to the calling thread. Join points
/// call this in task order.
fn merge_task<R>((r, shard, spans): TaskOut<R>) -> R {
    metrics::merge_task(shard);
    obs::merge_task(spans);
    r
}

/// Runs `tasks` to completion and returns their results in task order.
///
/// With `parallel` set (and more than one task) each task runs on its own
/// scoped thread; otherwise they run in order on the calling thread. A
/// panicking task propagates the panic either way.
///
/// When an `hourglass-obs` collector is installed, task `i` records its
/// spans on track `i` and the caller merges all task spans in task order
/// after the join.
pub fn fork_join<R, F>(parallel: bool, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let tasks = tasks.into_iter().enumerate();
    if !parallel || tasks.len() < 2 {
        return tasks
            .map(|(i, t)| merge_task(run_task(i, false, t)))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .map(|(i, t)| scope.spawn(move || run_task(i, true, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| merge_task(h.join().expect("worker thread panicked")))
            .collect()
    })
}

/// Maps `f` over `items` on one scoped thread per item, preserving order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_when(true, items, f)
}

/// [`par_map`] with an explicit parallelism switch: callers whose
/// per-item work can be smaller than a thread spawn (tens of
/// microseconds) pass `parallel = false` to run on the calling thread.
pub fn par_map_when<T, R, F>(parallel: bool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let f = &f;
    fork_join(parallel, items.iter().map(|item| move || f(item)).collect())
}

/// Splits `0..len` into at most `max_tasks` contiguous ranges of nearly
/// equal size (the first `len % tasks` ranges get one extra element).
/// Used to chunk a sweep's independent runs over a bounded thread pool
/// instead of spawning one thread per run.
pub fn chunk_ranges(len: usize, max_tasks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let tasks = max_tasks.clamp(1, len);
    let base = len / tasks;
    let extra = len % tasks;
    let mut out = Vec::with_capacity(tasks);
    let mut start = 0;
    for i in 0..tasks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three ways a round of tasks can run; they must be
    /// indistinguishable from the results and the telemetry.
    enum Path {
        Sequential,
        Scoped,
        Pooled(Pool),
    }

    impl Path {
        fn all(k: usize) -> [Path; 3] {
            [Path::Sequential, Path::Scoped, Path::Pooled(Pool::new(k))]
        }

        fn run<R, F>(&mut self, tasks: Vec<F>) -> Vec<R>
        where
            R: Send,
            F: FnOnce() -> R + Send,
        {
            match self {
                Path::Sequential => fork_join(false, tasks),
                Path::Scoped => fork_join(true, tasks),
                Path::Pooled(pool) => pool.fork_join(tasks),
            }
        }
    }

    #[test]
    fn every_path_preserves_order() {
        for mut path in Path::all(8) {
            let tasks: Vec<_> = (0..8).map(|i| move || i * i).collect();
            assert_eq!(path.run(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
        }
    }

    #[test]
    #[should_panic(expected = "task 1 failed")]
    fn fork_join_propagates_a_task_panic_sequential() {
        let tasks: Vec<_> = (0..3)
            .map(|i| move || assert!(i != 1, "task {i} failed"))
            .collect();
        fork_join(false, tasks);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn fork_join_propagates_a_task_panic_threaded() {
        let tasks: Vec<_> = (0..3)
            .map(|i| move || assert!(i != 1, "task {i} failed"))
            .collect();
        fork_join(true, tasks);
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..16).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(par_map(&items, |x| x + 1), expect);
    }

    #[test]
    fn every_path_mutates_disjoint_slices() {
        for mut path in Path::all(3) {
            let mut data = vec![0u64; 6];
            let tasks: Vec<_> = data
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    move || {
                        for c in chunk.iter_mut() {
                            *c = i as u64 + 1;
                        }
                    }
                })
                .collect();
            path.run(tasks);
            assert_eq!(data, vec![1, 1, 2, 2, 3, 3]);
        }
    }

    #[test]
    fn every_path_merges_task_spans_in_task_order() {
        // The merged span stream must be identical on all three paths:
        // track = task index, task-submission order.
        for (which, mut path) in Path::all(4).into_iter().enumerate() {
            let session = obs::TraceSession::start();
            let tasks: Vec<_> = (0..4u64)
                .map(|i| {
                    move || {
                        let _s = obs::span("task", "test").arg("i", i);
                        i
                    }
                })
                .collect();
            let out = path.run(tasks);
            assert_eq!(out, vec![0, 1, 2, 3]);
            let trace = session.finish();
            let order: Vec<(u32, u64)> = trace
                .spans
                .iter()
                .map(|s| (s.track, s.args.pairs()[0].1))
                .collect();
            assert_eq!(order, vec![(0, 0), (1, 1), (2, 2), (3, 3)], "path {which}");
        }
    }

    #[test]
    fn every_path_merges_metric_shards_identically() {
        static EVENTS: metrics::FamilyDesc = metrics::FamilyDesc {
            name: "exec_test_events_total",
            help: "Per-task events.",
            kind: metrics::MetricKind::Counter,
            buckets: &[],
            nondeterministic: false,
        };
        static SECONDS: metrics::FamilyDesc = metrics::FamilyDesc {
            name: "exec_test_seconds_total",
            help: "Per-task fractional work.",
            kind: metrics::MetricKind::Counter,
            buckets: &[],
            nondeterministic: false,
        };
        let mut snaps = Vec::new();
        for mut path in Path::all(6) {
            let session = metrics::MetricsSession::start();
            let tasks: Vec<_> = (0..6u64)
                .map(|i| {
                    move || {
                        metrics::add(&EVENTS, &[], i);
                        // Non-commutative f64 sums must still match:
                        // merges happen in submission order on every path.
                        metrics::addf(&SECONDS, &[], 0.1 * (i as f64) + 1e-13);
                    }
                })
                .collect();
            path.run(tasks);
            snaps.push(session.finish());
        }
        for snap in &snaps[1..] {
            assert!(
                snaps[0].bit_eq(snap),
                "a threaded metric snapshot must be bit-identical to the sequential one"
            );
        }
        assert_eq!(snaps[0].scalar("exec_test_events_total", &[]), 15.0);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for tasks in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, tasks);
                let mut covered = 0;
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    covered += r.len();
                    next = r.end;
                }
                assert_eq!(covered, len, "len {len} tasks {tasks}");
                assert!(ranges.len() <= tasks.max(1));
            }
        }
    }
}
