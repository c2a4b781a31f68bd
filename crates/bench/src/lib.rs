//! Shared scaffolding for the figure/table reproduction binaries.
//!
//! Every binary accepts:
//!
//! - `--seed <u64>`   — master seed (default 42); market traces, eviction
//!   statistics and start-point sampling all derive from it;
//! - `--runs <n>`     — Monte-Carlo runs per (job, slack, strategy) cell
//!   (default varies per figure; the paper uses ~2000);
//! - `--quick`        — shrink everything for a fast smoke run;
//! - `--json <path>`  — additionally dump machine-readable results;
//! - `--smoke`        — tiny self-checking sweep for CI (binaries that
//!   support it; others treat it as `--quick`);
//! - `--events <path>`— stream the decision-event log (JSONL) to a file;
//! - `--trace <path>` — record a cross-layer trace (engine, loaders,
//!   partitioner, decision loop) and export it as Chrome Trace Event JSON;
//! - `--profile`      — print a per-phase time breakdown after the run;
//! - `--profile-json <path>` — export the per-phase self-time profile as
//!   deterministic JSON;
//! - `--metrics <path>` — collect cross-layer metrics for the run and
//!   export them (`.json` → sorted-key JSON, anything else → Prometheus
//!   text exposition);
//! - `--bench-report <path>` — emit a standardized `bench_report` JSON
//!   (schema `hourglass-bench-report/v1`, see `results/README.md`) for
//!   `hourglass bench-diff` regression gating (binaries that measure);
//! - `--fault-plan <name>` — inject a canned deterministic fault plan
//!   (`io-flaky`, `torn-writes` or `bitflip`, seeded from `--seed`) into
//!   the simulated checkpoint/reload I/O paths (binaries that simulate;
//!   others ignore it);
//! - `--tenants <n>` — tenant count for the fleet binaries (others
//!   ignore it);
//! - `--policy <name>` — fleet sacrifice policy (`ec-weighted`,
//!   `deadline-slack` or `strict-priority`; fleet binaries honor it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hourglass_cloud::{DynEviction, InstanceType, Market};
use hourglass_metrics as hm;
use hourglass_obs as obs;
use hourglass_sim::{LifetimeGroundTruth, Scenario, ScenarioKind};

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Master seed.
    pub seed: u64,
    /// Monte-Carlo runs per cell (None = figure default).
    pub runs: Option<usize>,
    /// Quick smoke mode.
    pub quick: bool,
    /// Self-checking CI smoke mode (tiny sweep + consistency assertions).
    pub smoke: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL decision-event log path.
    pub events: Option<String>,
    /// Optional Chrome-trace output path.
    pub trace: Option<String>,
    /// Print a per-phase profile after the run.
    pub profile: bool,
    /// Optional JSON export path for the self-time profile
    /// (`--profile-json`).
    pub profile_json: Option<String>,
    /// Optional metrics export path (`--metrics`; `.json` → sorted-key
    /// JSON, anything else → Prometheus text exposition).
    pub metrics: Option<String>,
    /// Optional `bench_report` JSON output path (`--bench-report`).
    pub bench_report: Option<String>,
    /// Name of a canned fault plan to inject (`--fault-plan`).
    pub fault_plan: Option<String>,
    /// Pin fork-join workers to cores (`--pin`, or `HOURGLASS_PIN=1`).
    pub pin: bool,
    /// Market scenario to replay (`--scenario crossing|capped|bathtub|
    /// crunch|all`; binaries that simulate honor it, others ignore it).
    pub scenario: Option<String>,
    /// Tenant count for fleet binaries (`--tenants`; others ignore it).
    pub tenants: Option<usize>,
    /// Fleet sacrifice policy (`--policy ec-weighted|deadline-slack|
    /// strict-priority`; fleet binaries honor it, others ignore it).
    pub policy: Option<String>,
}

impl Cli {
    /// The flag defaults every binary starts from (seed 42, everything
    /// else off).
    pub fn defaults() -> Cli {
        Cli {
            seed: 42,
            runs: None,
            quick: false,
            smoke: false,
            json: None,
            events: None,
            trace: None,
            profile: false,
            profile_json: None,
            metrics: None,
            bench_report: None,
            fault_plan: None,
            pin: false,
            scenario: None,
            tenants: None,
            policy: None,
        }
    }

    /// Parses `std::env::args()`; exits with a usage message on error.
    pub fn parse() -> Cli {
        let mut cli = Cli::defaults();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    i += 1;
                    cli.seed = parse_or_die(&args, i, "--seed");
                }
                "--runs" => {
                    i += 1;
                    cli.runs = Some(parse_or_die(&args, i, "--runs"));
                }
                "--quick" => cli.quick = true,
                "--smoke" => {
                    cli.smoke = true;
                    cli.quick = true;
                }
                "--json" => {
                    i += 1;
                    cli.json = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--json needs a path"))
                            .clone(),
                    );
                }
                "--events" => {
                    i += 1;
                    cli.events = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--events needs a path"))
                            .clone(),
                    );
                }
                "--trace" => {
                    i += 1;
                    cli.trace = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--trace needs a path"))
                            .clone(),
                    );
                }
                "--profile" => cli.profile = true,
                "--profile-json" => {
                    i += 1;
                    cli.profile_json = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--profile-json needs a path"))
                            .clone(),
                    );
                }
                "--metrics" => {
                    i += 1;
                    cli.metrics = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--metrics needs a path"))
                            .clone(),
                    );
                }
                "--bench-report" => {
                    i += 1;
                    cli.bench_report = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--bench-report needs a path"))
                            .clone(),
                    );
                }
                "--pin" => {
                    cli.pin = true;
                    hourglass_exec::pin::force_enable();
                }
                "--fault-plan" => {
                    i += 1;
                    cli.fault_plan = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--fault-plan needs a plan name"))
                            .clone(),
                    );
                }
                "--scenario" => {
                    i += 1;
                    cli.scenario = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--scenario needs a scenario name"))
                            .clone(),
                    );
                }
                "--tenants" => {
                    i += 1;
                    cli.tenants = Some(parse_or_die(&args, i, "--tenants"));
                }
                "--policy" => {
                    i += 1;
                    cli.policy = Some(
                        args.get(i)
                            .unwrap_or_else(|| die("--policy needs a policy name"))
                            .clone(),
                    );
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <bin> [--seed N] [--runs N] [--quick] [--smoke] \
                         [--json PATH] [--events PATH] [--trace PATH] [--profile] \
                         [--profile-json PATH] [--metrics PATH] \
                         [--bench-report PATH] [--pin] \
                         [--fault-plan io-flaky|torn-writes|bitflip] \
                         [--scenario crossing|capped|bathtub|crunch|all] \
                         [--tenants N] \
                         [--policy ec-weighted|deadline-slack|strict-priority]"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        cli
    }

    /// Effective run count given a figure default.
    pub fn runs_or(&self, default: usize) -> usize {
        let n = self.runs.unwrap_or(default);
        if self.quick {
            n.min(25)
        } else {
            n
        }
    }

    /// Writes the JSON artifact when `--json` was given.
    pub fn maybe_write_json(&self, contents: &str) {
        if let Some(path) = &self.json {
            if let Err(e) = std::fs::write(path, contents) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("json written to {path}");
            }
        }
    }

    /// Resolves `--scenario` into the matrix cells to run: `None` means
    /// the paper baseline, `all` the full matrix; exits on unknown names.
    pub fn scenario_kinds(&self) -> Vec<ScenarioKind> {
        match self.scenario.as_deref() {
            None => vec![ScenarioKind::Crossing],
            Some("all") => ScenarioKind::ALL.to_vec(),
            Some(name) => vec![ScenarioKind::parse(name).unwrap_or_else(|| {
                die(&format!(
                    "unknown scenario {name:?} (known: crossing, capped, bathtub, crunch, all)"
                ))
            })],
        }
    }

    /// Resolves `--policy` into a [`hourglass_sim::SacrificePolicy`]
    /// (default EC-weighted); exits on unknown names.
    pub fn resolve_policy(&self) -> hourglass_sim::SacrificePolicy {
        match self.policy.as_deref() {
            None => hourglass_sim::SacrificePolicy::EcWeighted,
            Some(name) => hourglass_sim::SacrificePolicy::parse(name).unwrap_or_else(|| {
                die(&format!(
                    "unknown policy {name:?} (known: ec-weighted, deadline-slack, strict-priority)"
                ))
            }),
        }
    }

    /// Resolves `--fault-plan` into a seeded [`hourglass_sim::FaultPlan`];
    /// exits with the list of known plans on an unknown name.
    pub fn resolve_fault_plan(&self) -> Option<hourglass_sim::FaultPlan> {
        self.fault_plan.as_ref().map(|name| {
            hourglass_sim::FaultPlan::by_name(name, self.seed).unwrap_or_else(|| {
                die(&format!(
                    "unknown fault plan {name:?} (known: io-flaky, torn-writes, bitflip)"
                ))
            })
        })
    }

    /// Starts a tracing session when `--trace` or `--profile` was given.
    /// Call [`TraceHandle::finish`] once the measured work is done.
    pub fn trace_handle(&self) -> TraceHandle {
        self.trace_handle_with(false)
    }

    /// Like [`Cli::trace_handle`], but `force` starts a session even
    /// without `--trace`/`--profile` (for binaries that derive other
    /// outputs — e.g. phase histograms — from the trace).
    pub fn trace_handle_with(&self, force: bool) -> TraceHandle {
        TraceHandle {
            session: (force || self.trace.is_some() || self.profile || self.profile_json.is_some())
                .then(obs::TraceSession::start),
            path: self.trace.clone(),
            profile: self.profile,
            profile_json: self.profile_json.clone(),
        }
    }

    /// Starts a metrics session when `--metrics` was given. Call
    /// [`MetricsHandle::finish`] once the measured work is done.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle::new(self.metrics.clone())
    }

    /// Writes the `bench_report` artifact when `--bench-report` was given.
    pub fn maybe_write_bench_report(&self, report: &hm::bench_report::BenchReport) {
        if let Some(path) = &self.bench_report {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("bench report written to {path}");
            }
        }
    }
}

/// An optional metrics session tied to a figure binary's (or an embedding
/// harness's) lifetime: collects the cross-layer registry families and
/// exports the snapshot on [`MetricsHandle::finish`].
pub struct MetricsHandle {
    session: Option<hm::MetricsSession>,
    path: Option<String>,
}

impl MetricsHandle {
    /// Starts a session when `path` is set. A `.json` suffix selects the
    /// deterministic sorted-key JSON export; anything else the Prometheus
    /// text exposition.
    pub fn new(path: Option<String>) -> MetricsHandle {
        MetricsHandle {
            session: path.is_some().then(hm::MetricsSession::start),
            path,
        }
    }

    /// Starts a collecting session with no export path (embedding
    /// harnesses read the returned [`hm::Snapshot`] directly).
    pub fn collecting() -> MetricsHandle {
        MetricsHandle {
            session: Some(hm::MetricsSession::start()),
            path: None,
        }
    }

    /// Whether a session is collecting.
    pub fn active(&self) -> bool {
        self.session.is_some()
    }

    /// Ends the session, exports the snapshot (validating the Prometheus
    /// exposition by parse-back before writing), and returns it (None when
    /// inactive).
    pub fn finish(self) -> Option<hm::Snapshot> {
        let snapshot = self.session?.finish();
        if let Some(path) = &self.path {
            let (text, what) = if path.ends_with(".json") {
                (snapshot.to_json(), "metrics json")
            } else {
                let text = snapshot.to_prom();
                if let Err(e) = hm::prom::validate(&text) {
                    eprintln!("warning: generated exposition failed validation: {e}");
                }
                (text, "metrics exposition")
            };
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!(
                    "{what} written to {path} ({} series)",
                    snapshot.series.len()
                );
            }
        }
        Some(snapshot)
    }
}

/// An optional tracing session tied to a figure binary's lifetime.
pub struct TraceHandle {
    session: Option<obs::TraceSession>,
    path: Option<String>,
    profile: bool,
    profile_json: Option<String>,
}

impl TraceHandle {
    /// Whether a session is recording.
    pub fn active(&self) -> bool {
        self.session.is_some()
    }

    /// Ends the session, exporting the Chrome trace and/or printing the
    /// profile report; returns the collected trace (None when inactive).
    pub fn finish(self) -> Option<obs::Trace> {
        let trace = self.session?.finish();
        if let Some(path) = &self.path {
            match std::fs::File::create(path) {
                Ok(file) => {
                    let mut w = std::io::BufWriter::new(file);
                    match obs::chrome::write_chrome_trace(&trace, &mut w) {
                        Ok(()) => eprintln!(
                            "chrome trace written to {path} ({} records)",
                            trace.spans.len()
                        ),
                        Err(e) => eprintln!("warning: could not write {path}: {e}"),
                    }
                }
                Err(e) => eprintln!("warning: could not create {path}: {e}"),
            }
        }
        if self.profile {
            println!("{}", obs::profile::profile_report(&trace, 20));
        }
        if let Some(path) = &self.profile_json {
            let json = obs::profile::ProfileSummary::from_trace(&trace).to_json();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("profile json written to {path}");
            }
        }
        Some(trace)
    }
}

fn parse_or_die<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a numeric value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The simulation world every provisioning experiment replays: the
/// "November" market plus eviction statistics derived from the independent
/// "October" market (§8.1 methodology).
pub struct World {
    /// The scenario-matrix cell this world replays.
    pub scenario: ScenarioKind,
    /// The simulation market.
    pub market: Market,
    /// Per-instance-type eviction processes strategies see.
    pub eviction_models: Vec<(InstanceType, DynEviction)>,
    /// Ground-truth lifetime overlay the runner enforces.
    pub lifetime: Option<LifetimeGroundTruth>,
}

impl World {
    /// Builds the paper-baseline (crossing) world for a master seed.
    pub fn build(seed: u64) -> World {
        World::build_scenario(ScenarioKind::Crossing, seed)
    }

    /// Builds one cell of the scenario matrix for a master seed.
    pub fn build_scenario(kind: ScenarioKind, seed: u64) -> World {
        let s = Scenario::build_default(kind, seed)
            .expect("scenario construction cannot fail on generated traces");
        World {
            scenario: kind,
            market: s.market,
            eviction_models: s.models,
            lifetime: s.lifetime,
        }
    }

    /// A [`hourglass_sim::SimulationSetup`] view of this world, with the
    /// scenario's ground-truth lifetime applied.
    pub fn setup(&self) -> hourglass_sim::runner::SimulationSetup<'_> {
        let mut setup =
            hourglass_sim::runner::SimulationSetup::new(&self.market, &self.eviction_models);
        if let Some(lifetime) = self.lifetime {
            setup = setup.with_lifetime(lifetime);
        }
        setup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_resolution() {
        let mut cli = Cli {
            seed: 7,
            fault_plan: Some("io-flaky".into()),
            ..Cli::defaults()
        };
        let _plan = cli.resolve_fault_plan().expect("known plan resolves");
        cli.fault_plan = None;
        assert!(cli.resolve_fault_plan().is_none());
    }

    #[test]
    fn metrics_handle_exports_both_formats() {
        let dir = std::env::temp_dir().join(format!("hg_metrics_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        static TEST_FAMILY: hm::FamilyDesc = hm::FamilyDesc {
            name: "bench_handle_test_total",
            help: "MetricsHandle export test.",
            kind: hm::MetricKind::Counter,
            buckets: &[],
            nondeterministic: false,
        };
        for (file, is_json) in [("m.prom", false), ("m.json", true)] {
            let path = dir.join(file);
            let handle = MetricsHandle::new(Some(path.to_string_lossy().into_owned()));
            assert!(handle.active());
            hm::add(&TEST_FAMILY, &[], 3);
            let snapshot = handle.finish().expect("active handle yields a snapshot");
            assert_eq!(snapshot.scalar("bench_handle_test_total", &[]), 3.0);
            let text = std::fs::read_to_string(&path).expect("export written");
            if is_json {
                hm::json::parse(&text).expect("valid json");
                hm::json::validate_snapshot(&text).expect("schema-valid");
            } else {
                hm::prom::validate(&text).expect("spec-compliant exposition");
            }
        }
        // No path → no session: the registry stays disabled.
        let inert = MetricsHandle::new(None);
        assert!(!inert.active());
        assert!(inert.finish().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_builds() {
        let w = World::build(1);
        assert_eq!(w.scenario, ScenarioKind::Crossing);
        assert!(w.lifetime.is_none());
        assert_eq!(w.eviction_models.len(), 4);
        assert!(w.market.horizon() > 20.0 * 86_400.0);
    }

    #[test]
    fn scenario_flag_resolution() {
        let mut cli = Cli {
            seed: 7,
            ..Cli::defaults()
        };
        assert_eq!(cli.scenario_kinds(), vec![ScenarioKind::Crossing]);
        cli.scenario = Some("bathtub".into());
        assert_eq!(cli.scenario_kinds(), vec![ScenarioKind::Bathtub]);
        cli.scenario = Some("all".into());
        assert_eq!(cli.scenario_kinds(), ScenarioKind::ALL.to_vec());
    }
}
