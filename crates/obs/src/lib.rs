//! Lightweight cross-layer tracing: spans, instants and counters recorded
//! into thread-local buffers and merged deterministically at fork-join
//! points.
//!
//! The design follows three constraints that rule out the usual tracing
//! stacks:
//!
//! 1. **Zero cost when off.** The engine's superstep kernels run in tight
//!    loops; with no collector installed every entry point is a single
//!    relaxed atomic load followed by an early return — no allocation, no
//!    thread-local access, no clock read. The `no_alloc` integration test
//!    enforces this with a counting global allocator.
//! 2. **Deterministic merges.** Spans recorded on worker threads are
//!    drained at the `hourglass-exec` join points ([`task_begin`] /
//!    [`task_end`] / [`merge_task`]) and appended to the *caller's* buffer
//!    in task-submission order, so a parallel run collects the same span
//!    multiset as a sequential one and the final buffer order is a
//!    function of the fork-join structure, not the scheduler.
//! 3. **One timeline.** All spans share one process-wide monotonic clock
//!    (nanosecond ticks since first use). Simulated-time spans (from the
//!    provisioning simulator) live on reserved tracks
//!    ([`SIM_TRACK_BASE`]…) where the "tick" is simulated nanoseconds;
//!    the Chrome exporter renders them as a second process so wall-clock
//!    and simulated timelines never interleave on one track.
//!
//! A trace session is process-global and exclusive: [`TraceSession::start`]
//! installs the collector (serializing against other sessions),
//! [`TraceSession::finish`] uninstalls it and returns the [`Trace`].
//! Buffers tagged with a stale session epoch are discarded lazily, so a
//! thread that outlives a session cannot leak spans into the next one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod profile;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Track id of spans recorded outside any fork-join task (the master /
/// main thread).
pub const TRACK_MAIN: u32 = u32::MAX;

/// First track id of the simulated-time range: spans on tracks at or above
/// this are timestamped in *simulated* nanoseconds (one track per
/// simulation run) and rendered as a separate process by the exporter.
pub const SIM_TRACK_BASE: u32 = 0x4000_0000;

/// The simulated-timeline track for Monte-Carlo run `run`.
pub fn sim_track(run: u32) -> u32 {
    SIM_TRACK_BASE + (run % (TRACK_MAIN - SIM_TRACK_BASE - 1))
}

/// Whether `track` lies in the simulated-time range.
pub fn is_sim_track(track: u32) -> bool {
    (SIM_TRACK_BASE..TRACK_MAIN).contains(&track)
}

/// Maximum `(key, value)` argument pairs per record (fixed-size so records
/// are `Copy` and recording never allocates per argument).
pub const MAX_ARGS: usize = 4;

/// Fixed-capacity argument list of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Args {
    pairs: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl Args {
    /// An empty argument list.
    pub fn new() -> Args {
        Args {
            pairs: [("", 0); MAX_ARGS],
            len: 0,
        }
    }

    /// Appends a pair; silently drops it when the list is full.
    pub fn push(&mut self, key: &'static str, value: u64) {
        if (self.len as usize) < MAX_ARGS {
            self.pairs[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// The recorded pairs.
    pub fn pairs(&self) -> &[(&'static str, u64)] {
        &self.pairs[..self.len as usize]
    }
}

/// What a [`SpanRecord`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration (`start_ns..end_ns`).
    Span,
    /// A point event (`start_ns == end_ns`).
    Instant,
    /// A sampled counter value (stored in the first argument).
    Counter,
}

/// One recorded span, instant or counter sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"compute"`).
    pub name: &'static str,
    /// Category / layer (e.g. `"engine"`, `"loader"`, `"sim"`).
    pub cat: &'static str,
    /// Track the span belongs to: a fork-join task index (worker id),
    /// [`TRACK_MAIN`], or a simulated-time track.
    pub track: u32,
    /// Start tick, nanoseconds on the session clock (simulated ns on sim
    /// tracks).
    pub start_ns: u64,
    /// End tick.
    pub end_ns: u64,
    /// Record kind.
    pub kind: RecordKind,
    /// Attached arguments.
    pub args: Args,
}

impl SpanRecord {
    /// Span duration in seconds (zero for instants/counters).
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A finished trace: every record collected by one session.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The collected records, in deterministic merge order.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Records whose category equals `cat`.
    pub fn in_category(&self, cat: &str) -> impl Iterator<Item = &SpanRecord> + '_ {
        let cat = cat.to_string();
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Total seconds of all `Span` records named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == RecordKind::Span && s.name == name)
            .map(|s| s.seconds())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Global session state.
// ---------------------------------------------------------------------------

/// Current session epoch; 0 = no collector installed. Every entry point
/// loads this first and bails out on 0 — that relaxed load is the entire
/// disabled-path cost.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Monotonic epoch allocator (epoch 0 is reserved for "disabled").
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
/// Serializes sessions: held for the whole lifetime of a [`TraceSession`].
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Process-wide clock origin; first use pins tick 0.
static CLOCK: OnceLock<Instant> = OnceLock::new();

fn clock_origin() -> Instant {
    *CLOCK.get_or_init(Instant::now)
}

/// Nanoseconds on the session clock. Reading the clock is always allowed
/// (it does not require an installed collector).
pub fn now_ns() -> u64 {
    clock_origin().elapsed().as_nanos() as u64
}

/// [`now_ns`] when a collector is installed, else 0 — for callers that
/// thread end ticks through data structures and want the disabled path
/// clock-free.
pub fn now_ns_if_enabled() -> u64 {
    if enabled() {
        now_ns()
    } else {
        0
    }
}

/// Whether a collector is installed.
#[inline]
pub fn enabled() -> bool {
    EPOCH.load(Ordering::Relaxed) != 0
}

struct Local {
    epoch: u64,
    track: u32,
    spans: Vec<SpanRecord>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { epoch: 0, track: TRACK_MAIN, spans: Vec::new() })
    };
}

/// Runs `f` on this thread's buffer after discarding records from a stale
/// session.
fn with_local<R>(epoch: u64, f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.epoch != epoch {
            l.spans.clear();
            l.epoch = epoch;
            l.track = TRACK_MAIN;
        }
        f(&mut l)
    })
}

// ---------------------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------------------

/// An in-flight span; records itself on drop. Obtained from [`span`].
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    epoch: u64,
    args: Args,
}

/// Opens a span on the current thread's track. With no collector
/// installed this is a relaxed load and an early return.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return Span { live: None };
    }
    Span {
        live: Some(LiveSpan {
            name,
            cat,
            start_ns: now_ns(),
            epoch,
            args: Args::new(),
        }),
    }
}

impl Span {
    /// Attaches an argument (no-op when the span is disabled).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(live) = &mut self.live {
            live.args.push(key, value);
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            // The session may have finished mid-span; drop the record
            // rather than leak it into a later session.
            if EPOCH.load(Ordering::Relaxed) != live.epoch {
                return;
            }
            let end_ns = now_ns();
            with_local(live.epoch, |l| {
                let track = l.track;
                l.spans.push(SpanRecord {
                    name: live.name,
                    cat: live.cat,
                    track,
                    start_ns: live.start_ns,
                    end_ns,
                    kind: RecordKind::Span,
                    args: live.args,
                });
            });
        }
    }
}

/// Records a point event on the current thread's track.
pub fn instant(name: &'static str, cat: &'static str, args: Args) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    let t = now_ns();
    with_local(epoch, |l| {
        let track = l.track;
        l.spans.push(SpanRecord {
            name,
            cat,
            track,
            start_ns: t,
            end_ns: t,
            kind: RecordKind::Instant,
            args,
        });
    });
}

/// Samples a counter value on the current thread's track.
pub fn counter(name: &'static str, cat: &'static str, value: u64) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    let t = now_ns();
    let mut args = Args::new();
    args.push("value", value);
    with_local(epoch, |l| {
        let track = l.track;
        l.spans.push(SpanRecord {
            name,
            cat,
            track,
            start_ns: t,
            end_ns: t,
            kind: RecordKind::Counter,
            args,
        });
    });
}

/// Records a fully specified record (explicit track and ticks) on the
/// current thread's buffer. Used for synthesized spans — barrier waits
/// reconstructed by the master from worker end ticks, and simulated-time
/// spans emitted by the sim bridge.
pub fn record(rec: SpanRecord) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    with_local(epoch, |l| l.spans.push(rec));
}

// ---------------------------------------------------------------------------
// Fork-join task hooks.
// ---------------------------------------------------------------------------

/// Token returned by [`task_begin`]; closed by [`task_end`].
#[must_use = "a task scope must be closed with task_end"]
pub struct TaskScope {
    state: Option<TaskState>,
}

struct TaskState {
    epoch: u64,
    prev_track: u32,
    mark: usize,
}

/// Spans drained from one finished task, ready to [`merge_task`] into the
/// joining thread's buffer. Empty (and allocation-free) when tracing is
/// disabled.
#[derive(Debug, Default)]
pub struct TaskSpans(Vec<SpanRecord>);

impl TaskSpans {
    /// An empty batch.
    pub fn empty() -> TaskSpans {
        TaskSpans(Vec::new())
    }

    /// Whether the batch holds no spans.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Marks the start of fork-join task `track` on the current thread:
/// subsequent spans carry that track id until [`task_end`]. Called by
/// `hourglass_exec` for every task, whether it runs on the calling thread, a
/// scoped thread or a pool worker.
pub fn task_begin(track: u32) -> TaskScope {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return TaskScope { state: None };
    }
    with_local(epoch, |l| {
        let prev_track = l.track;
        l.track = track;
        TaskScope {
            state: Some(TaskState {
                epoch,
                prev_track,
                mark: l.spans.len(),
            }),
        }
    })
}

/// Closes a task scope, restoring the previous track and draining the
/// spans the task recorded (in recording order).
pub fn task_end(scope: TaskScope) -> TaskSpans {
    let Some(st) = scope.state else {
        return TaskSpans::empty();
    };
    if EPOCH.load(Ordering::Relaxed) != st.epoch {
        return TaskSpans::empty();
    }
    with_local(st.epoch, |l| {
        l.track = st.prev_track;
        if l.spans.len() < st.mark {
            // The buffer was reset mid-task (stale epoch); nothing to drain.
            return TaskSpans::empty();
        }
        TaskSpans(l.spans.split_off(st.mark))
    })
}

/// Appends one task's drained spans to the current thread's buffer. Join
/// points call this in task-submission order, which is what makes the
/// merged buffer order deterministic.
pub fn merge_task(spans: TaskSpans) {
    if spans.is_empty() {
        return;
    }
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    with_local(epoch, |l| l.spans.extend(spans.0));
}

// ---------------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------------

/// An installed collector. Exactly one session exists at a time
/// process-wide; a second [`TraceSession::start`] blocks until the first
/// finishes. Record on the same thread that finishes the session (fork-join
/// joins funnel worker spans back to it).
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
    epoch: u64,
}

impl TraceSession {
    /// Installs the collector and returns the session handle.
    pub fn start() -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        // Pin the clock before enabling so no recorder races the origin.
        clock_origin();
        EPOCH.store(epoch, Ordering::Relaxed);
        TraceSession {
            _guard: guard,
            epoch,
        }
    }

    /// Uninstalls the collector and returns everything recorded on (or
    /// merged into) the calling thread.
    pub fn finish(self) -> Trace {
        EPOCH.store(0, Ordering::Relaxed);
        let spans = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.epoch == self.epoch {
                std::mem::take(&mut l.spans)
            } else {
                Vec::new()
            }
        });
        Trace { spans }
    }
}

/// Runs `f` while guaranteeing **no** collector is installed — serialized
/// against concurrent sessions in the same process. Lets tests probe the
/// disabled path without racing a session started by another test thread.
pub fn with_tracing_disabled<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    debug_assert!(!enabled());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_record_nothing() {
        with_tracing_disabled(|| {
            let s = span("a", "t").arg("k", 1);
            drop(s);
            instant("i", "t", Args::new());
            counter("c", "t", 7);
            let scope = task_begin(3);
            let spans = task_end(scope);
            assert!(spans.is_empty());
            merge_task(spans);
        });
        // A session started afterwards must not see any of it.
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn session_collects_spans_and_instants() {
        let session = TraceSession::start();
        {
            let _s = span("outer", "test").arg("x", 9);
            instant("tick", "test", Args::new());
            counter("gauge", "test", 42);
        }
        let trace = session.finish();
        assert_eq!(trace.spans.len(), 3);
        // Drop order: instant, counter, then the span (recorded at drop).
        assert_eq!(trace.spans[0].name, "tick");
        assert_eq!(trace.spans[0].kind, RecordKind::Instant);
        assert_eq!(trace.spans[1].name, "gauge");
        assert_eq!(trace.spans[1].args.pairs(), &[("value", 42)]);
        let outer = &trace.spans[2];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.track, TRACK_MAIN);
        assert!(outer.end_ns >= outer.start_ns);
        assert_eq!(outer.args.pairs(), &[("x", 9)]);
    }

    #[test]
    fn task_scopes_tag_tracks_and_merge_in_order() {
        let session = TraceSession::start();
        // Simulate a sequential fork-join of three tasks.
        for i in 0..3u32 {
            let scope = task_begin(i);
            let _s = span("work", "test").arg("task", i as u64);
            drop(_s);
            merge_task(task_end(scope));
        }
        let _tail = span("after", "test");
        drop(_tail);
        let trace = session.finish();
        let tracks: Vec<u32> = trace.spans.iter().map(|s| s.track).collect();
        assert_eq!(tracks, vec![0, 1, 2, TRACK_MAIN]);
    }

    #[test]
    fn threaded_tasks_merge_deterministically() {
        let session = TraceSession::start();
        let batches: Vec<TaskSpans> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    scope.spawn(move || {
                        let ts = task_begin(i);
                        let _s = span("task", "test").arg("i", i as u64);
                        drop(_s);
                        task_end(ts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for b in batches {
            merge_task(b);
        }
        let trace = session.finish();
        let order: Vec<u64> = trace.spans.iter().map(|s| s.args.pairs()[0].1).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "merge follows submission order");
    }

    #[test]
    fn stale_session_spans_are_discarded() {
        let session = TraceSession::start();
        let leaked = span("leaked", "test");
        let trace = session.finish();
        assert!(trace.spans.is_empty());
        drop(leaked); // Session over: must not record anywhere.
        let session = TraceSession::start();
        let trace = session.finish();
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn sim_tracks_are_reserved() {
        assert!(is_sim_track(sim_track(0)));
        assert!(is_sim_track(sim_track(1_000_000)));
        assert!(!is_sim_track(TRACK_MAIN));
        assert!(!is_sim_track(0));
        assert!(sim_track(5) != TRACK_MAIN);
    }

    #[test]
    fn args_cap_silently() {
        let mut a = Args::new();
        for i in 0..(MAX_ARGS as u64 + 3) {
            a.push("k", i);
        }
        assert_eq!(a.pairs().len(), MAX_ARGS);
    }

    #[test]
    fn record_seconds() {
        let r = SpanRecord {
            name: "x",
            cat: "t",
            track: 0,
            start_ns: 1_000,
            end_ns: 501_000,
            kind: RecordKind::Span,
            args: Args::new(),
        };
        assert!((r.seconds() - 0.0005).abs() < 1e-12);
    }
}
