//! Low-overhead metrics registry: counters, gauges and fixed-bucket
//! histograms recorded into thread-local shards and merged
//! deterministically at fork-join points.
//!
//! The registry follows the same three constraints as `hourglass-obs`
//! tracing (the two share the epoch-gated session idiom):
//!
//! 1. **Zero cost when off.** With no collector installed every entry
//!    point is a single relaxed atomic load followed by an early return —
//!    no allocation, no thread-local access, no clock read. The
//!    `no_alloc` integration test enforces this with a counting global
//!    allocator.
//! 2. **Deterministic merges.** Updates made on worker threads accumulate
//!    in per-task shards drained at the `hourglass-exec` join points
//!    ([`task_begin`] / [`task_end`] / [`merge_task`]) and folded into the
//!    *caller's* shard in task-submission order. Counter and histogram
//!    sums are therefore reduced in the same order on the sequential and
//!    the threaded path, so a snapshot — including its `f64` bit patterns
//!    — is a function of the fork-join structure, not the scheduler.
//! 3. **Determinism is declared, not assumed.** Every metric family
//!    carries a `nondeterministic` flag. Families derived from simulated
//!    time or logical counts must stay bit-identical across runs and
//!    schedulers; wall-clock timings (decision-loop latency, superstep
//!    worker seconds) are segregated into flagged families so determinism
//!    tests can compare [`Snapshot::deterministic`] views exactly.
//!
//! A metrics session is process-global and exclusive:
//! [`MetricsSession::start`] installs the collector (serializing against
//! other sessions), [`MetricsSession::finish`] uninstalls it and returns
//! the [`Snapshot`]. Shards tagged with a stale session epoch are
//! discarded lazily, so a thread that outlives a session cannot leak
//! samples into the next one.
//!
//! Export goes two ways: [`prom`] writes (and parses back) the Prometheus
//! text exposition format; [`json`] writes deterministic sorted-key JSON
//! snapshots. [`bench_report`] builds on the same conventions for the
//! perf-regression gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_report;
pub mod json;
pub mod prom;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Families.
// ---------------------------------------------------------------------------

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing sum.
    Counter,
    /// A last-write-wins level.
    Gauge,
    /// A fixed-bucket distribution (bucket upper bounds in
    /// [`FamilyDesc::buckets`], plus an implicit `+Inf` overflow bucket).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Static descriptor of a metric family. Instrumented crates declare one
/// `static` per family and pass it by reference to the entry points; the
/// registry never needs a registration step, so declaring a family costs
/// nothing until a sample lands in a live session.
#[derive(Debug)]
pub struct FamilyDesc {
    /// Exposition name (`[a-zA-Z_:][a-zA-Z0-9_:]*`), e.g.
    /// `hourglass_engine_messages_total`.
    pub name: &'static str,
    /// One-line help string.
    pub help: &'static str,
    /// Family kind.
    pub kind: MetricKind,
    /// Histogram bucket upper bounds, strictly increasing; empty for
    /// counters and gauges.
    pub buckets: &'static [f64],
    /// Whether samples derive from wall clocks (or other scheduler-
    /// dependent sources). Deterministic families must be bit-identical
    /// across sequential and parallel execution; nondeterministic ones
    /// are excluded from [`Snapshot::deterministic`].
    pub nondeterministic: bool,
}

/// Exponential seconds buckets (1 µs … ~65 s) for wall-clock and
/// simulated-duration histograms.
pub const SECONDS_BUCKETS: &[f64] = &[
    1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1.0, 4.0, 16.0, 64.0,
];

/// Coarse buckets for deadline slack in simulated seconds (negative =
/// missed; the paper's deadlines are hours long).
pub const SLACK_BUCKETS: &[f64] = &[
    -3600.0,
    -600.0,
    0.0,
    60.0,
    600.0,
    3600.0,
    4.0 * 3600.0,
    24.0 * 3600.0,
];

// ---------------------------------------------------------------------------
// Series values.
// ---------------------------------------------------------------------------

/// The accumulated value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotonic sum. Integer increments stay exact below 2^53.
    Counter(f64),
    /// Last written level.
    Gauge(f64),
    /// Per-bucket observation counts (`buckets.len() + 1` entries, the
    /// last being the `+Inf` overflow) and the sum of observations.
    Histogram {
        /// Non-cumulative per-bucket counts.
        counts: Vec<u64>,
        /// Sum of all observed values.
        sum: f64,
    },
}

impl Value {
    fn zero(desc: &FamilyDesc) -> Value {
        match desc.kind {
            MetricKind::Counter => Value::Counter(0.0),
            MetricKind::Gauge => Value::Gauge(0.0),
            MetricKind::Histogram => Value::Histogram {
                counts: vec![0; desc.buckets.len() + 1],
                sum: 0.0,
            },
        }
    }

    /// Folds `src` into `self` (sum for counters, last-write-wins for
    /// gauges, element-wise for histograms). Join points call this in
    /// task-submission order, which is what keeps `f64` sums
    /// bit-deterministic.
    fn merge(&mut self, src: &Value) {
        match (self, src) {
            (Value::Counter(d), Value::Counter(s)) => *d += *s,
            (Value::Gauge(d), Value::Gauge(s)) => *d = *s,
            (Value::Histogram { counts: d, sum: ds }, Value::Histogram { counts: s, sum: ss }) => {
                for (a, b) in d.iter_mut().zip(s) {
                    *a += *b;
                }
                *ds += *ss;
            }
            _ => debug_assert!(false, "merging mismatched metric kinds"),
        }
    }

    /// Total observation count of a histogram (0 for other kinds).
    pub fn count(&self) -> u64 {
        match self {
            Value::Histogram { counts, .. } => counts.iter().sum(),
            _ => 0,
        }
    }

    /// The scalar value of a counter or gauge (histogram: the sum).
    pub fn scalar(&self) -> f64 {
        match self {
            Value::Counter(v) | Value::Gauge(v) => *v,
            Value::Histogram { sum, .. } => *sum,
        }
    }
}

type LabelSet = Vec<(&'static str, String)>;
type SeriesKey = (&'static str, LabelSet);

#[derive(Debug)]
struct Series {
    desc: &'static FamilyDesc,
    value: Value,
}

type Shard = BTreeMap<SeriesKey, Series>;

// ---------------------------------------------------------------------------
// Global session state.
// ---------------------------------------------------------------------------

/// Current session epoch; 0 = no collector installed. Every entry point
/// loads this first and bails out on 0 — that relaxed load is the entire
/// disabled-path cost.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Monotonic epoch allocator (epoch 0 is reserved for "disabled").
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
/// Serializes sessions: held for the whole lifetime of a
/// [`MetricsSession`].
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Whether a collector is installed. Call sites that must build dynamic
/// label values (allocating) gate on this first.
#[inline]
pub fn enabled() -> bool {
    EPOCH.load(Ordering::Relaxed) != 0
}

struct Local {
    epoch: u64,
    /// Open [`task_begin`] scopes on this thread. While nonzero, the
    /// current shard belongs to the innermost task, not the session.
    depth: u32,
    shard: Shard,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { epoch: 0, depth: 0, shard: BTreeMap::new() })
    };
}

/// Runs `f` on this thread's shard after discarding samples (and scope
/// bookkeeping) from a stale session.
fn with_local<R>(epoch: u64, f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.epoch != epoch {
            l.shard.clear();
            l.depth = 0;
            l.epoch = epoch;
        }
        f(&mut l)
    })
}

// ---------------------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------------------

fn upsert(
    family: &'static FamilyDesc,
    labels: &[(&'static str, &str)],
    f: impl FnOnce(&mut Value),
) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    with_local(epoch, |l| {
        // Label-set construction allocates, which is fine: this line is
        // only reached with a live collector.
        let key: SeriesKey = (
            family.name,
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        );
        let series = l.shard.entry(key).or_insert_with(|| Series {
            desc: family,
            value: Value::zero(family),
        });
        f(&mut series.value)
    })
}

/// Adds `v` to a counter series. With no collector installed this is a
/// relaxed load and an early return.
pub fn add(family: &'static FamilyDesc, labels: &[(&'static str, &str)], v: u64) {
    debug_assert!(family.kind == MetricKind::Counter);
    upsert(family, labels, |val| {
        if let Value::Counter(c) = val {
            *c += v as f64;
        }
    });
}

/// Adds a fractional amount (seconds, dollars) to a counter series.
pub fn addf(family: &'static FamilyDesc, labels: &[(&'static str, &str)], v: f64) {
    debug_assert!(family.kind == MetricKind::Counter);
    upsert(family, labels, |val| {
        if let Value::Counter(c) = val {
            *c += v;
        }
    });
}

/// Sets a gauge series (last write wins; merges keep the task's value).
pub fn set(family: &'static FamilyDesc, labels: &[(&'static str, &str)], v: f64) {
    debug_assert!(family.kind == MetricKind::Gauge);
    upsert(family, labels, |val| {
        if let Value::Gauge(g) = val {
            *g = v;
        }
    });
}

/// Records one observation into a histogram series.
pub fn observe(family: &'static FamilyDesc, labels: &[(&'static str, &str)], v: f64) {
    debug_assert!(family.kind == MetricKind::Histogram);
    upsert(family, labels, |val| {
        if let Value::Histogram { counts, sum } = val {
            let idx = family
                .buckets
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(family.buckets.len());
            counts[idx] += 1;
            *sum += v;
        }
    });
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
    saved: Shard,
}

/// The shard one finished task accumulated, ready to [`merge_task`] into
/// the joining thread's shard. Empty (and allocation-free) when metrics
/// are disabled.
#[derive(Debug, Default)]
pub struct TaskShard {
    epoch: u64,
    shard: Shard,
}

impl TaskShard {
    /// An empty batch.
    pub fn empty() -> TaskShard {
        TaskShard::default()
    }

    /// Whether the batch holds no series.
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }
}

/// Marks the start of a fork-join task on the current thread: subsequent
/// samples accumulate in a fresh shard until [`task_end`]. Called by
/// `hourglass_exec` for every task, whether it runs on the calling thread, a
/// scoped thread or a pool worker.
pub fn task_begin() -> TaskScope {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return TaskScope { state: None };
    }
    with_local(epoch, |l| {
        l.depth += 1;
        TaskScope {
            state: Some(TaskState {
                epoch,
                saved: std::mem::take(&mut l.shard),
            }),
        }
    })
}

/// Closes a task scope, restoring the thread's previous shard and
/// draining the task's accumulated samples.
pub fn task_end(scope: TaskScope) -> TaskShard {
    let Some(st) = scope.state else {
        return TaskShard::empty();
    };
    if EPOCH.load(Ordering::Relaxed) != st.epoch {
        return TaskShard::empty();
    }
    with_local(st.epoch, |l| {
        l.depth = l.depth.saturating_sub(1);
        TaskShard {
            epoch: st.epoch,
            shard: std::mem::replace(&mut l.shard, st.saved),
        }
    })
}

/// Folds one task's drained shard into the current thread's shard. Join
/// points call this in task-submission order, which is what makes the
/// merged `f64` sums deterministic.
pub fn merge_task(task: TaskShard) {
    if task.is_empty() {
        return;
    }
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 || epoch != task.epoch {
        return;
    }
    with_local(epoch, |l| {
        for (key, series) in task.shard {
            match l.shard.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(series);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().value.merge(&series.value);
                }
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One series of a finished snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Family name.
    pub name: &'static str,
    /// Family help string.
    pub help: &'static str,
    /// Family kind.
    pub kind: MetricKind,
    /// Whether the family is wall-clock derived.
    pub nondeterministic: bool,
    /// Histogram bucket bounds (empty otherwise).
    pub buckets: &'static [f64],
    /// Label pairs, in call-site order (label order is part of series
    /// identity; each family should use one consistent order).
    pub labels: Vec<(&'static str, String)>,
    /// Accumulated value.
    pub value: Value,
}

/// A finished metrics snapshot: every series collected by one session,
/// sorted by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The collected series, in deterministic sorted order.
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// The subset of series whose family is deterministic — the view
    /// bit-identity tests compare.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            series: self
                .series
                .iter()
                .filter(|s| !s.nondeterministic)
                .cloned()
                .collect(),
        }
    }

    /// Looks up one series by family name and exact label pairs.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
        })
    }

    /// The scalar value of a counter/gauge series, 0.0 when absent.
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.get(name, labels).map_or(0.0, |s| s.value.scalar())
    }

    /// Sum of the scalar values of every series in a family (counters
    /// across all label sets).
    pub fn family_total(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value.scalar())
            .sum()
    }

    /// Bit-exact equality, including `f64` payloads (`PartialEq` treats
    /// `0.0 == -0.0`; determinism tests want stricter).
    pub fn bit_eq(&self, other: &Snapshot) -> bool {
        fn bits(v: &Value) -> (u64, Vec<u64>, u64) {
            match v {
                Value::Counter(c) => (c.to_bits(), Vec::new(), 0),
                Value::Gauge(g) => (g.to_bits(), Vec::new(), 1),
                Value::Histogram { counts, sum } => (sum.to_bits(), counts.clone(), 2),
            }
        }
        self.series.len() == other.series.len()
            && self.series.iter().zip(&other.series).all(|(a, b)| {
                a.name == b.name && a.labels == b.labels && bits(&a.value) == bits(&b.value)
            })
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prom(&self) -> String {
        prom::write(self)
    }

    /// Renders the snapshot as deterministic sorted-key JSON.
    pub fn to_json(&self) -> String {
        json::write(self)
    }
}

// ---------------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------------

/// An installed collector. Exactly one session exists at a time
/// process-wide; a second [`MetricsSession::start`] blocks until the
/// first finishes. Record on the same thread that finishes the session
/// (fork-join joins funnel worker shards back to it).
pub struct MetricsSession {
    _guard: MutexGuard<'static, ()>,
    epoch: u64,
}

impl MetricsSession {
    /// Installs the collector and returns the session handle.
    pub fn start() -> MetricsSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        EPOCH.store(epoch, Ordering::Relaxed);
        MetricsSession {
            _guard: guard,
            epoch,
        }
    }

    /// Uninstalls the collector and returns everything recorded on (or
    /// merged into) the calling thread as a sorted snapshot.
    pub fn finish(self) -> Snapshot {
        EPOCH.store(0, Ordering::Relaxed);
        let shard = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.epoch == self.epoch && l.depth == 0 {
                std::mem::take(&mut l.shard)
            } else {
                // Either another session's leftovers or a still-open task
                // scope: the current shard belongs to that task, not us.
                l.shard.clear();
                Shard::new()
            }
        });
        Snapshot {
            series: shard
                .into_iter()
                .map(|((name, labels), s)| SeriesSnapshot {
                    name,
                    help: s.desc.help,
                    kind: s.desc.kind,
                    nondeterministic: s.desc.nondeterministic,
                    buckets: s.desc.buckets,
                    labels,
                    value: s.value,
                })
                .collect(),
        }
    }
}

/// Runs `f` while guaranteeing **no** collector is installed — serialized
/// against concurrent sessions in the same process. Lets tests probe the
/// disabled path without racing a session started by another test thread.
pub fn with_metrics_disabled<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    debug_assert!(!enabled());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: FamilyDesc = FamilyDesc {
        name: "test_events_total",
        help: "Test events.",
        kind: MetricKind::Counter,
        buckets: &[],
        nondeterministic: false,
    };
    static TEST_GAUGE: FamilyDesc = FamilyDesc {
        name: "test_level",
        help: "Test level.",
        kind: MetricKind::Gauge,
        buckets: &[],
        nondeterministic: false,
    };
    static TEST_HIST: FamilyDesc = FamilyDesc {
        name: "test_seconds",
        help: "Test duration.",
        kind: MetricKind::Histogram,
        buckets: &[0.1, 1.0, 10.0],
        nondeterministic: false,
    };
    static TEST_WALL: FamilyDesc = FamilyDesc {
        name: "test_wall_seconds",
        help: "Wall-clock family.",
        kind: MetricKind::Counter,
        buckets: &[],
        nondeterministic: true,
    };

    #[test]
    fn disabled_paths_record_nothing() {
        with_metrics_disabled(|| {
            add(&TEST_COUNTER, &[], 3);
            addf(&TEST_COUNTER, &[("k", "v")], 0.5);
            set(&TEST_GAUGE, &[], 7.0);
            observe(&TEST_HIST, &[], 0.2);
            let scope = task_begin();
            let shard = task_end(scope);
            assert!(shard.is_empty());
            merge_task(shard);
        });
        let session = MetricsSession::start();
        let snap = session.finish();
        assert!(snap.series.is_empty());
    }

    #[test]
    fn session_collects_and_sorts_series() {
        let session = MetricsSession::start();
        add(&TEST_COUNTER, &[("kind", "b")], 2);
        add(&TEST_COUNTER, &[("kind", "a")], 1);
        add(&TEST_COUNTER, &[("kind", "a")], 4);
        set(&TEST_GAUGE, &[], 1.0);
        set(&TEST_GAUGE, &[], 9.0);
        observe(&TEST_HIST, &[], 0.05);
        observe(&TEST_HIST, &[], 0.5);
        observe(&TEST_HIST, &[], 99.0);
        let snap = session.finish();
        assert_eq!(snap.series.len(), 4);
        // Sorted by (name, labels).
        assert_eq!(snap.series[0].labels, vec![("kind", "a".to_string())]);
        assert_eq!(snap.series[0].value, Value::Counter(5.0));
        assert_eq!(snap.series[1].value, Value::Counter(2.0));
        assert_eq!(snap.scalar("test_level", &[]), 9.0);
        let h = snap.get("test_seconds", &[]).expect("histogram series");
        assert_eq!(
            h.value,
            Value::Histogram {
                counts: vec![1, 1, 0, 1],
                sum: 0.05 + 0.5 + 99.0,
            }
        );
        assert_eq!(h.value.count(), 3);
        assert_eq!(snap.family_total("test_events_total"), 7.0);
    }

    #[test]
    fn task_shards_merge_in_submission_order() {
        // Same fold on the sequential and the threaded path: gauges keep
        // the last-submitted task's value, counters sum.
        let mut snaps = Vec::new();
        for threaded in [false, true] {
            let session = MetricsSession::start();
            add(&TEST_COUNTER, &[], 100);
            if threaded {
                let shards: Vec<TaskShard> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..4u64)
                        .map(|i| {
                            scope.spawn(move || {
                                let ts = task_begin();
                                add(&TEST_COUNTER, &[], i);
                                set(&TEST_GAUGE, &[], i as f64);
                                observe(&TEST_HIST, &[], i as f64);
                                task_end(ts)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("join"))
                        .collect()
                });
                for s in shards {
                    merge_task(s);
                }
            } else {
                for i in 0..4u64 {
                    let ts = task_begin();
                    add(&TEST_COUNTER, &[], i);
                    set(&TEST_GAUGE, &[], i as f64);
                    observe(&TEST_HIST, &[], i as f64);
                    merge_task(task_end(ts));
                }
            }
            snaps.push(session.finish());
        }
        assert!(snaps[0].bit_eq(&snaps[1]));
        assert_eq!(snaps[0].scalar("test_events_total", &[]), 106.0);
        assert_eq!(snaps[0].scalar("test_level", &[]), 3.0);
    }

    #[test]
    fn stale_session_samples_are_discarded() {
        let session = MetricsSession::start();
        let scope = task_begin();
        add(&TEST_COUNTER, &[], 1);
        let snap = session.finish();
        assert!(
            snap.series.is_empty(),
            "open task shard stays with the task"
        );
        // Closing the scope after the session ended must not leak.
        let shard = task_end(scope);
        assert!(shard.is_empty());
        let session = MetricsSession::start();
        merge_task(shard);
        let snap = session.finish();
        assert!(snap.series.is_empty());
    }

    #[test]
    fn nested_task_scopes_fold_inward() {
        let session = MetricsSession::start();
        let outer = task_begin();
        add(&TEST_COUNTER, &[], 1);
        let inner = task_begin();
        add(&TEST_COUNTER, &[], 10);
        merge_task(task_end(inner));
        add(&TEST_COUNTER, &[], 100);
        merge_task(task_end(outer));
        let snap = session.finish();
        assert_eq!(snap.scalar("test_events_total", &[]), 111.0);
    }

    #[test]
    fn deterministic_view_filters_flagged_families() {
        let session = MetricsSession::start();
        add(&TEST_COUNTER, &[], 1);
        addf(&TEST_WALL, &[], 0.123);
        let snap = session.finish();
        assert_eq!(snap.series.len(), 2);
        let det = snap.deterministic();
        assert_eq!(det.series.len(), 1);
        assert_eq!(det.series[0].name, "test_events_total");
    }

    #[test]
    fn histogram_overflow_bucket_catches_everything_above() {
        let session = MetricsSession::start();
        observe(&TEST_HIST, &[], f64::INFINITY);
        observe(&TEST_HIST, &[], 10.0); // boundary is inclusive
        let snap = session.finish();
        let h = snap.get("test_seconds", &[]).expect("series");
        match &h.value {
            Value::Histogram { counts, .. } => assert_eq!(counts, &vec![0, 0, 1, 1]),
            v => panic!("unexpected value {v:?}"),
        }
    }
}
