//! Tests of the harness itself: the metric vocabulary against
//! `BENCHMARK.json`, the command line, the result line, and that a wrong
//! answer is reported as a failed operation.

use hourglass_benchmark::spans::Recorder;
use hourglass_benchmark::workloads::pagerank_rmat::PagerankRmat;
use hourglass_benchmark::{
    render_result, render_text, run, spec, Args, RepResult, Report, Workload,
};
use hourglass_metrics::json::{self, JsonValue};
use std::path::Path;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{key} entry has a string {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// `^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`
fn is_name(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `^[A-Za-z0-9_/%.-]{1,16}$`
fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    let per_layer = spec::PER_LAYER.iter().map(|&(n, u, _)| (n, u));
    for (name, unit) in spec::END_TO_END.iter().copied().chain(per_layer) {
        assert!(is_name(name), "metric name {name:?}");
        assert!(is_unit(unit), "unit {unit:?}");
        assert!(seen.insert(name), "metric {name:?} is listed twice");
    }
    for w in spec::WORKLOADS {
        assert!(is_name(w), "workload name {w:?}");
        assert!(seen.insert(w), "{w:?} names a workload and a metric");
    }
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let doc = benchmark_json();
    assert_eq!(
        names_and_units(&doc, "end_to_end"),
        owned(&spec::END_TO_END)
    );
    let per_layer: Vec<(&str, &str)> = spec::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&per_layer));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads is an array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn command_line_is_parsed_and_checked() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let args = Args::parse(&argv(
        "--seed 9 --trace 1 --workload evict_resume --seconds 2.5",
    ))
    .expect("valid");
    assert_eq!(
        args,
        Args {
            workload: "evict_resume".into(),
            seed: 9,
            seconds: 2.5,
            trace: true,
        }
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload evict_resume --seed 1 --seconds 1",
        "--workload evict_resume --seed 1 --seconds 0 --trace 0",
        "--workload evict_resume --seed -1 --seconds 1 --trace 0",
        "--workload evict_resume --seed 1 --seconds 1 --trace yes",
        "--workload evict_resume --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload evict_resume --seed",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad:?} must be refused");
    }
}

/// `pagerank_rmat` whose first timed repetition is checked against a
/// corrupted rank vector.
struct CorruptOnce {
    inner: PagerankRmat,
    reps: usize,
}

impl Workload for CorruptOnce {
    const NAME: &'static str = "pagerank_rmat";

    fn setup(seed: u64, dir: &Path, rec: &mut Recorder) -> Self {
        CorruptOnce {
            inner: PagerankRmat::setup(seed, dir, rec),
            reps: 0,
        }
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepResult {
        self.reps += 1;
        // Repetition 1 is the warm-up; 2 is the first timed one.
        let corrupt = self.reps == 2;
        if corrupt {
            self.inner.oracle_mut()[0] += 1e-3;
        }
        let result = self.inner.rep(rec);
        if corrupt {
            self.inner.oracle_mut()[0] -= 1e-3;
        }
        result
    }
}

#[test]
fn a_corrupted_rank_vector_is_one_failed_operation() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
    std::fs::create_dir_all(&out).expect("test directory");
    let args = Args {
        workload: "pagerank_rmat".into(),
        seed: 3,
        seconds: 0.1,
        trace: false,
    };
    let report = run::<CorruptOnce>(&args, &out);
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(report.attempted, spec::MIN_REPS as u64);
    assert_eq!(report.failed, 1);

    let line = render_result(&report);
    let doc = json::parse(&line).expect("the result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(line.starts_with("{\"correct\": false, "));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(1.0));
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = spec::END_TO_END.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for (name, m) in metrics {
        let v = m.get("value").and_then(JsonValue::as_f64).expect("value");
        assert!(v > 0.0, "{name} is never 0");
    }
}

#[test]
fn every_per_layer_metric_is_taken_by_some_workload() {
    for (name, _, taken_on) in spec::PER_LAYER {
        assert!(taken_on != 0, "{name} is taken by no workload");
        assert!(taken_on < 1 << spec::WORKLOADS.len(), "{name}: stray bit");
    }
}

#[test]
fn a_metric_the_workload_does_not_take_reads_as_such() {
    let report = Report {
        workload: "provision_sweep",
        attempted: 1,
        failed: 0,
        metrics: vec![
            ("sim.grid_s", Some(1.5), "s"),
            ("graph.rmat_gen_s", None, "s"),
        ],
        counters: Vec::new(),
        rep_spread: 0.0,
        rep_seconds: vec![1.5],
        rep_cpu_seconds: vec![2.9],
        layer_shares: Vec::new(),
    };
    let args = Args {
        workload: "provision_sweep".into(),
        seed: 1,
        seconds: 1.0,
        trace: true,
    };
    let text = render_text(&report, &args);
    let row = text
        .lines()
        .find(|l| l.starts_with("graph.rmat_gen_s"))
        .expect("the metric has a row");
    assert!(row.ends_with("not taken here"), "{row:?}");
    // The result object carries every name with a number (the contract).
    let doc = json::parse(&render_result(&report)).expect("JSON");
    let value = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
    };
    assert_eq!(value("sim.grid_s"), Some(1.5));
    assert_eq!(value("graph.rmat_gen_s"), Some(0.0));
}
