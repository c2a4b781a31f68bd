//! The benchmark's own span recorder.
//!
//! One span is recorded per call from the benchmark into a layer of the
//! program: name, layer, start, end, parent and the repetition it belongs
//! to. Spans live in a buffer allocated before the first repetition and
//! are written out once, when the run ends. The recorder also collects the
//! per-layer metric samples the workloads derive from those calls; a
//! metric's reported value is the median of its samples.
//!
//! Every call into a layer is made from the benchmark's single driving
//! thread (the layers fork internally), so open spans form a stack.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Repetition id of spans recorded outside the timed repetitions: set-up
/// and the final check.
pub const OUTSIDE_REPS: u32 = u32::MAX;
/// The layer of the spans the benchmark opens around its own code; what
/// they do not spend in a child is the untraced remainder.
pub const BENCH_LAYER: &str = "bench";

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The module the call went into (`engine.bsp`, `sim`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The repetition the span belongs to, or [`OUTSIDE_REPS`].
    pub rep: u32,
}

/// Span and sample collector handed to set-up and to every repetition.
pub struct Recorder {
    spans_on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    samples: Vec<(&'static str, f64)>,
}

/// Handle of an open span, closed by [`Recorder::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    /// A recorder that keeps samples but no spans (the untraced run).
    pub fn untraced() -> Recorder {
        Recorder::new(false, 0)
    }

    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn traced(capacity: usize) -> Recorder {
        Recorder::new(true, capacity)
    }

    fn new(spans_on: bool, capacity: usize) -> Recorder {
        Recorder {
            spans_on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            rep: OUTSIDE_REPS,
            samples: Vec::with_capacity(1024),
        }
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.spans_on
    }

    /// Switches span recording, so that one run can interleave traced and
    /// untraced repetitions and report the difference.
    pub fn set_tracing(&mut self, on: bool) {
        assert!(self.open.is_empty(), "spans open across a tracing switch");
        self.spans_on = on;
    }

    /// Tags the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses further calls.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.spans_on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            rep: self.rep,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs one call into `layer` under a span and returns its result with
    /// the wall seconds it took (measured whether or not spans are kept).
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.begin(layer, name);
        let t0 = Instant::now();
        let out = call();
        let secs = t0.elapsed().as_secs_f64();
        self.end(span);
        (out, secs)
    }

    /// Records one sample of the per-layer metric `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// Every sample recorded so far.
    pub fn samples(&self) -> &[(&'static str, f64)] {
        &self.samples
    }

    /// Forgets every sample after the first `len` (the warm-up's).
    pub fn truncate_samples(&mut self, len: usize) {
        self.samples.truncate(len);
    }

    /// Every closed span recorded so far.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// The median of the samples of each metric.
pub fn sample_medians(samples: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(name, v) in samples {
        by_name.entry(name).or_default().push(v);
    }
    by_name
        .into_iter()
        .map(|(name, mut vs)| (name, median(&mut vs)))
        .collect()
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("a measured value is not NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// The median and the 99th percentile (nearest rank) of `values`.
pub fn p50_p99(values: &mut [f64]) -> (f64, f64) {
    let p50 = median(values);
    let p99 = values[((values.len() - 1) as f64 * 0.99).round() as usize];
    (p50, p99)
}

/// Self time of every span, nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Overlapping or touching
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(reach, s.end_ns);
                covered += end - start;
                reach = end;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self seconds per layer over the spans of the repetitions `keep` admits.
pub fn layer_self_seconds(
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        if keep(s.rep) {
            *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
        }
    }
    out
}

/// Writes the spans as one JSON document: an array under `"spans"` whose
/// entries carry `id`, `parent` (`null` for a root), `rep` (`"outside"` for
/// set-up and the final check), `layer`, `name`, `start_ns`, `end_ns` and `self_ns`.
pub fn write_trace_json(workload: &str, spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    let selfs = self_times_ns(spans);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = match s.parent {
            NO_PARENT => "null".to_string(),
            p => p.to_string(),
        };
        let rep = match s.rep {
            OUTSIDE_REPS => "\"outside\"".to_string(),
            r => r.to_string(),
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "  {{\"id\": {i}, \"parent\": {parent}, \"rep\": {rep}, \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{comma}",
            s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root 0..100 > child 10..60 > grandchild 20..30.
        let spans = [span(0, 100, NO_PARENT), span(10, 60, 0), span(20, 30, 1)];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_of_adjacent_children() {
        let spans = [span(0, 100, NO_PARENT), span(10, 40, 0), span(40, 70, 0)];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn self_time_with_zero_length_children() {
        let spans = [span(0, 100, NO_PARENT), span(50, 50, 0), span(100, 100, 0)];
        assert_eq!(self_times_ns(&spans), vec![100, 0, 0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [span(0, 100, NO_PARENT), span(10, 50, 0), span(30, 70, 0)];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn layer_self_seconds_sum_to_the_roots() {
        let mut rec = Recorder::traced(8);
        rec.set_rep(0);
        let root = rec.begin(BENCH_LAYER, "rep");
        rec.time("a", "x", || std::hint::black_box(1 + 1));
        let inner = rec.begin("b", "y");
        rec.time("a", "z", || ());
        rec.end(inner);
        rec.end(root);
        let spans = rec.spans();
        let total: f64 = layer_self_seconds(spans, |_| true).values().sum();
        let root_secs = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        assert!((total - root_secs).abs() < 1e-12);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[2].parent, 0);
    }

    #[test]
    fn untraced_recorder_keeps_samples_only() {
        let mut rec = Recorder::untraced();
        let (v, secs) = rec.time("a", "x", || 7);
        rec.sample("m", 3.0);
        rec.sample("m", 1.0);
        rec.sample("m", 2.0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
        assert_eq!(sample_medians(rec.samples())["m"], 2.0);
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_is_the_nearest_rank() {
        let mut values: Vec<f64> = (0..=200).rev().map(f64::from).collect();
        assert_eq!(p50_p99(&mut values), (100.0, 198.0));
        assert_eq!(p50_p99(&mut [5.0]), (5.0, 5.0));
    }
}
