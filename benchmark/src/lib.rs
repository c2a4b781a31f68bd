//! The Hourglass benchmark: four workloads, four end-to-end metrics, and a
//! traced pass that attributes time to the layers underneath.
//!
//! Everything here measures the program **from outside**: `Instant` around
//! calls into the public functions of the `hourglass-*` crates, plus the
//! public fields of the reports those calls return. Nothing in `crates/`
//! is edited or re-instrumented. `README.md` next to this package explains
//! the workloads, the metrics and how they are expected to interact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod oracle;
pub mod spans;
pub mod spec;
pub mod workloads;

use hourglass_metrics::json;
use spans::{median, Recorder, BENCH_LAYER, OUTSIDE_REPS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed of the input generators.
    pub seed: u64,
    /// Length of the measuring window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, in any order.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: cannot read {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !spec::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (known: {})",
                spec::WORKLOADS.join(", ")
            ));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one repetition of a workload's operation reports.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    /// Wall seconds of the operation; the output check is not in it.
    pub seconds: f64,
    /// The workload's exact work count for this repetition.
    pub work: f64,
    /// Whether the operation's output passed its check.
    pub ok: bool,
    /// Further operations attempted inside the repetition (the simulated
    /// jobs of `provision_sweep`).
    pub sub_ops: u64,
    /// How many of [`Self::sub_ops`] failed.
    pub sub_ops_failed: u64,
    /// Deterministic counts; equal in every repetition of a seed.
    pub counters: Vec<(&'static str, f64)>,
}

/// One workload: inputs built from a seed, then one operation repeated.
pub trait Workload: Sized {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Builds every input of the operation from `seed`, keeping files
    /// under `dir`. Timed from outside as `setup_s`.
    fn setup(seed: u64, dir: &Path, rec: &mut Recorder) -> Self;

    /// Runs the operation once and checks its output.
    fn rep(&mut self, rec: &mut Recorder) -> RepResult;

    /// Most repetitions the inputs allow (warm-up included).
    fn max_reps(&self) -> usize {
        usize::MAX
    }

    /// A last check once every repetition has run; `None` for no check.
    fn finish(&mut self, _rec: &mut Recorder) -> Option<bool> {
        None
    }

    /// Traced run only: measures the layer metrics no repetition yields,
    /// recording them as samples. `answer_s` is the traced run's.
    fn probes(&mut self, _rec: &mut Recorder, _answer_s: f64) {}
}

/// The result of one run, ready to print.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted (repetitions, final check, sub-operations).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// `(name, value, unit)` of the reported metrics, in spec order;
    /// `None` for a per-layer metric this workload does not take.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Deterministic counters of the first timed repetition.
    pub counters: Vec<(&'static str, f64)>,
    /// `(max − min) ÷ median` of the timed repetitions.
    pub rep_spread: f64,
    /// Seconds of each timed repetition behind `answer_s`, in run order.
    pub rep_seconds: Vec<f64>,
    /// CPU seconds (user + system, all threads) of the same repetitions:
    /// a slow repetition that used no more CPU waited for the host.
    pub rep_cpu_seconds: Vec<f64>,
    /// Traced run: `(layer, share of answer_s)` by self time.
    pub layer_shares: Vec<(&'static str, f64)>,
}

/// A scratch directory under `benchmark/out/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out>/tmp-<pid>`.
    pub fn create(out: &Path) -> std::io::Result<ScratchDir> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs workload `W` as `args` asks and writes `<out>/<workload>.trace.json`
/// for a traced run.
pub fn run<W: Workload>(args: &Args, out: &Path) -> Report {
    let scratch = ScratchDir::create(out).expect("create scratch directory under benchmark/out");
    let mut rec = if args.trace {
        Recorder::traced(1 << 16)
    } else {
        Recorder::untraced()
    };

    let span = rec.begin(BENCH_LAYER, "setup");
    let t0 = Instant::now();
    let mut w = W::setup(args.seed, scratch.path(), &mut rec);
    let setup_s = t0.elapsed().as_secs_f64();
    rec.end(span);

    // One discarded warm-up repetition: page cache, allocator, lazy statics.
    let kept_samples = rec.samples().len();
    rec.set_tracing(false);
    let mut reps_left = w.max_reps().saturating_sub(1);
    let warm = w.rep(&mut rec);
    rec.truncate_samples(kept_samples);
    let counters = warm.counters;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut timed: Vec<f64> = Vec::new();
    let mut timed_plain: Vec<f64> = Vec::new();
    let mut works: Vec<f64> = Vec::new();
    let mut timed_cpu: Vec<f64> = Vec::new();
    // The traced run spends half the window on repetitions, alternating
    // spans on and off, and the other half on the probes.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // A traced run needs one repetition of either kind.
    let min_reps = if args.trace { 2 } else { spec::MIN_REPS };
    let started = Instant::now();
    let mut n = 0usize;
    while reps_left > 0 && (n < min_reps || started.elapsed().as_secs_f64() < window) {
        let traced_rep = args.trace && n.is_multiple_of(2);
        rec.set_tracing(traced_rep);
        rec.set_rep(n as u32);
        let rep_cpu0 = host::cpu_seconds();
        let r = w.rep(&mut rec);
        let rep_cpu = host::cpu_seconds() - rep_cpu0;
        n += 1;
        reps_left -= 1;
        attempted += 1 + r.sub_ops;
        let same_counts = r.counters == counters;
        if !same_counts {
            eprintln!("repetition {n}: counters differ from the warm-up's");
        }
        failed += u64::from(!(r.ok && same_counts)) + r.sub_ops_failed;
        if args.trace && !traced_rep {
            timed_plain.push(r.seconds);
        } else {
            timed.push(r.seconds);
            timed_cpu.push(rep_cpu);
        }
        works.push(r.work);
    }
    rec.set_tracing(args.trace);
    rec.set_rep(OUTSIDE_REPS);
    if let Some(ok) = w.finish(&mut rec) {
        attempted += 1;
        failed += u64::from(!ok);
    }
    assert!(
        !timed.is_empty(),
        "{}: no repetition fit its inputs",
        W::NAME
    );

    let fastest = timed.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = timed.iter().copied().fold(0.0, f64::max);
    let answer_s = median(&mut timed.clone());
    let rep_spread = (slowest - fastest) / answer_s;
    let work = median(&mut works);

    let report = |attempted, failed, metrics, layer_shares| Report {
        workload: W::NAME,
        attempted,
        failed,
        metrics,
        counters,
        rep_spread,
        rep_seconds: timed.clone(),
        rep_cpu_seconds: timed_cpu.clone(),
        layer_shares,
    };

    if !args.trace {
        let values = [setup_s, answer_s, work / answer_s, host::peak_rss_mib()];
        let metrics = spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, Some(v), unit))
            .collect();
        return report(attempted, failed, metrics, Vec::new());
    }

    // Layer shares of the traced repetitions, and the closure check: the
    // layers' self times plus the benchmark's own remainder are the
    // repetitions' wall time.
    let traced_total: f64 = timed.iter().sum();
    let selfs = spans::layer_self_seconds(rec.spans(), |rep| rep != OUTSIDE_REPS);
    let self_total: f64 = selfs.values().sum();
    attempted += 1;
    if (self_total - traced_total).abs() > 0.02 * traced_total {
        eprintln!("trace does not close: spans {self_total:.4}s vs repetitions {traced_total:.4}s");
        failed += 1;
    }
    let layer_shares = selfs
        .iter()
        .map(|(&layer, &secs)| (layer, secs / traced_total))
        .collect();

    w.probes(&mut rec, answer_s);
    rec.sample("host.nproc", host::nproc() as f64);
    rec.sample(
        "host.stream_triad_gbs",
        host::stream_triad_gbs(spec::WORKERS as usize),
    );
    rec.sample("host.cpu_s_per_rep", median(&mut timed_cpu.clone()));
    rec.sample("bench.rep_spread", rep_spread);
    let plain = median(&mut timed_plain);
    rec.sample(
        "bench.trace_overhead_pct",
        100.0 * (answer_s - plain) / plain,
    );

    // The run must have sampled exactly the metrics `spec::PER_LAYER` says
    // this workload takes: a metric lost or gained without notice would
    // read as a change of the program.
    let medians: BTreeMap<&str, f64> = spans::sample_medians(rec.samples());
    let bit = 1u8
        << spec::WORKLOADS
            .iter()
            .position(|w| *w == W::NAME)
            .expect("the workload is one of spec::WORKLOADS");
    attempted += 1;
    let expected = |name: &str| {
        spec::PER_LAYER
            .iter()
            .any(|&(n, _, taken_on)| n == name && taken_on & bit != 0)
    };
    let strays: Vec<&str> = medians.keys().copied().filter(|n| !expected(n)).collect();
    let missing: Vec<&str> = spec::PER_LAYER
        .iter()
        .filter(|&&(n, _, taken_on)| taken_on & bit != 0 && !medians.contains_key(n))
        .map(|&(n, _, _)| n)
        .collect();
    if !(strays.is_empty() && missing.is_empty()) {
        eprintln!("per-layer metrics: not expected {strays:?}, not sampled {missing:?}");
        failed += 1;
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, medians.get(name).copied(), unit))
        .collect();

    let trace_path = out.join(format!("{}.trace.json", W::NAME));
    spans::write_trace_json(W::NAME, rec.spans(), &trace_path).expect("write the span file");
    report(attempted, failed, metrics, layer_shares)
}

/// The human-readable part of the output: every metric by name with its
/// unit, the failure counts, the noise gauge and the counters.
pub fn render_text(report: &Report, args: &Args) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} seed {} ({}, {} timed repetitions, k = {} of {} cores) ==",
        report.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.rep_seconds.len(),
        spec::WORKERS,
        host::nproc(),
    );
    for (name, value, unit) in &report.metrics {
        let _ = match value {
            Some(value) => writeln!(s, "{name:<40} {value:>18.6} {unit}"),
            None => writeln!(s, "{name:<40} {:>18}", "not taken here"),
        };
    }
    let _ = writeln!(s, "{:<40} {:>18}", "ops_attempted", report.attempted);
    let _ = writeln!(s, "{:<40} {:>18}", "ops_failed", report.failed);
    let _ = writeln!(s, "{:<40} {:>18.6}", "bench.rep_spread", report.rep_spread);
    let reps: Vec<String> = report
        .rep_seconds
        .iter()
        .map(|t| format!("{t:.3}"))
        .collect();
    let _ = writeln!(s, "repetitions, s: {}", reps.join(" "));
    let cpu: Vec<String> = report
        .rep_cpu_seconds
        .iter()
        .map(|t| format!("{t:.2}"))
        .collect();
    let _ = writeln!(s, "their cpu time, s: {}", cpu.join(" "));
    if report.rep_spread > spec::REP_SPREAD_WARN {
        let _ = writeln!(
            s,
            "warning: repetitions spread {:.0}% around their median (over {:.0}%): noisy host",
            100.0 * report.rep_spread,
            100.0 * spec::REP_SPREAD_WARN
        );
    }
    for (layer, share) in &report.layer_shares {
        let _ = writeln!(s, "share of answer_s: {layer:<22} {:>6.2} %", 100.0 * share);
    }
    let _ = writeln!(s, "counters {}", counters_json(&report.counters));
    s
}

/// The counters as one JSON object on one line.
pub fn counters_json(counters: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json::escape(k), json::fmt_f64(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of the output: the result object the driver reads. Its
/// contract wants a number for every per-layer metric of `BENCHMARK.json`
/// from every workload, so a metric the workload does not take (`None`;
/// which those are is fixed in `spec::PER_LAYER`) is written as 0.
pub fn render_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::fmt_f64(value.unwrap_or(0.0)),
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs the workload `args` names.
pub fn run_named(args: &Args, out: &Path) -> Report {
    use workloads::{evict_resume, frontier_sssp, pagerank_rmat, provision_sweep};
    match args.workload.as_str() {
        pagerank_rmat::PagerankRmat::NAME => run::<pagerank_rmat::PagerankRmat>(args, out),
        frontier_sssp::FrontierSssp::NAME => run::<frontier_sssp::FrontierSssp>(args, out),
        evict_resume::EvictResume::NAME => run::<evict_resume::EvictResume>(args, out),
        provision_sweep::ProvisionSweep::NAME => run::<provision_sweep::ProvisionSweep>(args, out),
        other => unreachable!("Args::parse admitted workload {other:?}"),
    }
}
