//! `provision_sweep`: no graph at all — the provisioning half of the
//! system. `core::expected_cost`, the eviction-CDF look-ups of `cloud` and
//! both event loops of `sim` do all the work, so engine and loader changes
//! must leave it flat.
//!
//! Operation: (a) the Figure-5 grid on a crossing world — `PaperJob::ALL`
//! × slack 10..100% × `figure5_roster()` through
//! `Experiment::run_observed` (parallel sweep), then (b) `sweep_fleet`
//! over all four `ScenarioKind`s with `HourglassStrategy` and the default
//! `FleetConfig`. Work is the simulated jobs: grid runs plus fleet
//! arrivals.
//!
//! The worlds are fixed (`spec::sweep::WORLD_SEED`) and the run seed picks
//! the start instant of every grid run; the fleets do not depend on it.
//! What a world costs to simulate moves by ±15% from one market to the
//! next, and the size of a fleet's event stream, which decides peak
//! memory, by more; thousands of start instants in one world average out.
//!
//! A job of a deadline-safe strategy that misses its deadline is a failed
//! operation, except in the crunch world: its evictions are correlated
//! across instance types, which the fitted eviction model the strategy
//! decides by does not describe, so Hourglass promises nothing there and
//! misses a few deadlines of a fleet on most seeds. Those fleets are run
//! and timed like the others and their misses are reported
//! (`crunch_fleet_misses`, and in `sim.missed_deadlines`), not failed.

use super::probe_telemetry;
use crate::spans::{p50_p99, Recorder, BENCH_LAYER};
use crate::spec::sweep::{
    FLEET_RECURRENCES, FLEET_SEEDS, FLEET_TENANTS, GRID_RUNS, SETUP_SEEDS, SLACKS, WORLD_SEED,
};
use crate::{RepResult, Workload};
use hourglass_cloud::tracegen;
use hourglass_core::expected_cost::{expected_cost_approx, expected_cost_exact, EcParams};
use hourglass_core::strategies::{figure5_roster, BoxedStrategy, HourglassStrategy};
use hourglass_core::{DecisionContext, Strategy};
use hourglass_sim::job::{JobDescription, PaperJob, ReloadMode};
use hourglass_sim::runner::build_decision_candidates;
use hourglass_sim::scenario::{DEFAULT_SAMPLES, DEFAULT_WINDOW};
use hourglass_sim::{
    derive_eviction_models_with, run_fleet_observed, run_job_observed, sweep_fleet, sweep_jobs,
    EventAggregate, EventSink, EvictionModelKind, Experiment, FleetConfig, FleetWorkload, NullSink,
    Scenario, ScenarioKind, SimEvent,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs of the cell the parallel-against-sequential checks and probes use.
const PROBE_RUNS: usize = 200;
/// Slack levels of the SSSP rows the Figure-9 pair is timed on: the ones
/// whose exact EC takes long enough to time and still finishes (≈ 0.5 ms,
/// 12 ms and 0.3 s; every PageRank and GC row but one runs out of any
/// budget a probe can afford, as in the paper).
const FIG9_SLACKS: [f64; 3] = [80.0, 90.0, 100.0];
/// Wall-clock budget of one exact EC evaluation.
const EXACT_BUDGET: Duration = Duration::from_secs(5);

/// The workload's inputs.
pub struct ProvisionSweep {
    seed: u64,
    world: Scenario,
    /// `(job, slack %, description)` of the 3 × 10 grid rows.
    jobs: Vec<(PaperJob, f64, JobDescription)>,
    roster: Vec<BoxedStrategy>,
    fleet: FleetWorkload,
}

/// What one pass of the operation produced.
struct Pass {
    seconds: f64,
    grid_seconds: f64,
    fleet_seconds: f64,
    grid_jobs: u64,
    fleet_jobs: u64,
    safe_misses: u64,
    crunch_misses: u64,
    hourglass_cost: f64,
    grid: EventAggregate,
    fleets: EventAggregate,
}

/// Whether `strategy` promises to meet every deadline.
fn deadline_safe(strategy: &dyn Strategy) -> bool {
    let name = strategy.name();
    name == "Hourglass" || name.ends_with("+DP")
}

/// Counts events and nothing else.
#[derive(Default)]
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn record(&mut self, _run: u32, _event: &SimEvent) {
        self.0 += 1;
    }
}

impl ProvisionSweep {
    fn fleet_seeds(&self) -> Vec<u64> {
        (0..FLEET_SEEDS).map(|i| WORLD_SEED + i).collect()
    }

    fn operation(&self, rec: &mut Recorder) -> Pass {
        let setup = self.world.setup();
        let root = rec.begin(BENCH_LAYER, "rep");
        let t0 = Instant::now();

        let mut grid = EventAggregate::new();
        let mut grid_jobs = 0u64;
        let mut safe_misses = 0u64;
        let mut hourglass_costs = Vec::new();
        let ((), grid_seconds) = rec.time("sim", "grid", || {
            for (_, slack, job) in &self.jobs {
                for strategy in &self.roster {
                    let summary = Experiment::new(GRID_RUNS, self.seed ^ (*slack as u64))
                        .run_observed(&setup, job, strategy.as_ref(), &mut grid)
                        .expect("grid cell");
                    grid_jobs += summary.runs as u64;
                    if deadline_safe(strategy.as_ref()) {
                        let missed = summary.missed_pct * summary.runs as f64 / 100.0;
                        safe_misses += missed.round() as u64;
                    }
                    if strategy.name() == "Hourglass" {
                        hourglass_costs.push(summary.normalized_cost);
                    }
                }
            }
        });

        let mut fleets = EventAggregate::new();
        let mut fleet_jobs = 0u64;
        let mut crunch_misses = 0u64;
        let strategy = HourglassStrategy::new();
        let seeds = self.fleet_seeds();
        let ((), fleet_seconds) = rec.time("sim", "fleet", || {
            for kind in ScenarioKind::ALL {
                let outcomes = sweep_fleet(
                    kind,
                    &seeds,
                    &self.fleet,
                    &strategy,
                    &FleetConfig::default(),
                    DEFAULT_SAMPLES,
                    true,
                    &mut fleets,
                )
                .expect("fleet sweep");
                for o in &outcomes {
                    fleet_jobs += o.runs as u64;
                    if kind == ScenarioKind::Crunch {
                        crunch_misses += o.missed as u64;
                    } else {
                        safe_misses += o.missed as u64;
                    }
                }
            }
        });

        let seconds = t0.elapsed().as_secs_f64();
        rec.end(root);
        rec.sample("sim.grid_s", grid_seconds);
        rec.sample("sim.fleet_s", fleet_seconds);
        rec.sample("sim.jobs_per_s", (grid_jobs + fleet_jobs) as f64 / seconds);
        let hourglass_cost = hourglass_costs.iter().sum::<f64>() / hourglass_costs.len() as f64;
        Pass {
            seconds,
            grid_seconds,
            fleet_seconds,
            grid_jobs,
            fleet_jobs,
            safe_misses,
            crunch_misses,
            hourglass_cost,
            grid,
            fleets,
        }
    }

    /// The `(PageRank, 50 %)` row and its start points: the one cell the
    /// sequential spot-check and the sweep probes replay.
    fn probe_cell(&self) -> (&JobDescription, Vec<f64>) {
        let (_, slack, job) = self
            .jobs
            .iter()
            .find(|(kind, slack, _)| *kind == PaperJob::PageRank && *slack == 50.0)
            .expect("the grid has a PageRank 50 % row");
        let starts = Experiment::new(PROBE_RUNS, self.seed ^ (*slack as u64))
            .start_points(&self.world.setup(), job);
        (job, starts)
    }

    /// Parallel and sequential sweeps of the probe cell, bit for bit.
    fn parallel_matches_sequential(&self) -> bool {
        let setup = self.world.setup();
        let (job, starts) = self.probe_cell();
        let strategy = HourglassStrategy::new();
        let sweep = |parallel| {
            sweep_jobs(&setup, job, &strategy, &starts, parallel, &mut NullSink).expect("sweep")
        };
        let bits = |o: &hourglass_sim::JobOutcome| {
            (
                o.cost.to_bits(),
                o.online_cost.to_bits(),
                o.finish_time.to_bits(),
                o.missed_deadline,
                o.evictions,
                o.deployments,
                o.completed,
            )
        };
        let (par, seq) = (sweep(true), sweep(false));
        par.len() == starts.len() && par.iter().map(bits).eq(seq.iter().map(bits))
    }
}

impl Workload for ProvisionSweep {
    const NAME: &'static str = "provision_sweep";

    fn setup(seed: u64, _dir: &Path, rec: &mut Recorder) -> Self {
        // One world builds in ≈ 20 ms, which no shared host times to a
        // tenth: set-up builds every kind for SETUP_SEEDS consecutive
        // seeds and keeps the first crossing world.
        let (world, _) = rec.time("sim", "scenario_build", || {
            let mut kept = None;
            for kind in ScenarioKind::ALL {
                for i in 0..SETUP_SEEDS {
                    let s = Scenario::build_default(kind, WORLD_SEED + i).expect("scenario");
                    if kind == ScenarioKind::Crossing && i == 0 {
                        kept = Some(s);
                    }
                }
            }
            kept.expect("the first crossing world")
        });
        let (jobs, _) = rec.time("sim", "job_descriptions", || {
            let mut jobs = Vec::new();
            for kind in PaperJob::ALL {
                for slack in SLACKS {
                    let job = kind.description(slack, ReloadMode::Fast).expect("job");
                    jobs.push((kind, slack, job));
                }
            }
            jobs
        });
        let (fleet, _) = rec.time("sim", "fleet_workload", || {
            FleetWorkload::canned_recurring(FLEET_TENANTS, FLEET_RECURRENCES).expect("fleet")
        });
        ProvisionSweep {
            seed,
            world,
            jobs,
            roster: figure5_roster(),
            fleet,
        }
    }

    fn rep(&mut self, rec: &mut Recorder) -> RepResult {
        let pass = self.operation(rec);
        let billed = pass.grid.billed_dollars + pass.fleets.billed_dollars;
        rec.sample(
            "sim.decides",
            (pass.grid.decides + pass.fleets.decides) as f64,
        );
        rec.sample(
            "sim.evictions",
            (pass.grid.evictions + pass.fleets.evictions) as f64,
        );
        rec.sample("sim.billed_dollars", billed);
        rec.sample("sim.cost_vs_ondemand", pass.hourglass_cost);
        rec.sample(
            "sim.missed_deadlines",
            (pass.safe_misses + pass.crunch_misses) as f64,
        );
        let jobs = pass.grid_jobs + pass.fleet_jobs;
        let ok = pass.grid.runs == pass.grid_jobs
            && pass.fleets.runs == pass.fleet_jobs
            && pass.grid_seconds + pass.fleet_seconds <= pass.seconds
            && self.parallel_matches_sequential();
        RepResult {
            seconds: pass.seconds,
            work: jobs as f64,
            ok,
            sub_ops: jobs,
            sub_ops_failed: pass.safe_misses,
            counters: vec![
                ("grid_jobs", pass.grid_jobs as f64),
                ("fleet_jobs", pass.fleet_jobs as f64),
                ("grid_decides", pass.grid.decides as f64),
                ("grid_evictions", pass.grid.evictions as f64),
                ("grid_billed_dollars", pass.grid.billed_dollars),
                ("fleet_decides", pass.fleets.decides as f64),
                ("fleet_evictions", pass.fleets.evictions as f64),
                ("fleet_billed_dollars", pass.fleets.billed_dollars),
                ("safe_strategy_misses", pass.safe_misses as f64),
                ("crunch_fleet_misses", pass.crunch_misses as f64),
            ],
        }
    }

    fn probes(&mut self, rec: &mut Recorder, answer_s: f64) {
        let setup = self.world.setup();

        // cloud: trace generation, the eviction fit of each model family,
        // and CDF look-ups on the fitted model of the first instance type.
        let (_, secs) = rec.time("cloud", "market_gen", || {
            tracegen::simulation_market(self.seed).expect("market")
        });
        rec.sample("cloud.market_gen_s", secs);
        for kind in [
            EvictionModelKind::Crossing,
            EvictionModelKind::Capped {
                cap: hourglass_sim::scenario::DEFAULT_CAP_SECONDS,
            },
            EvictionModelKind::Bathtub,
        ] {
            let (_, secs) = rec.time("cloud", "eviction_fit", || {
                derive_eviction_models_with(
                    &self.world.history,
                    DEFAULT_WINDOW,
                    DEFAULT_SAMPLES,
                    self.seed,
                    kind,
                )
                .expect("fit")
            });
            rec.sample("cloud.eviction_fit_s", secs);
        }
        let model = &self.world.models[0].1;
        let lookups = 2_000_000u32;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for i in 0..lookups {
            acc += model.cdf(DEFAULT_WINDOW * f64::from(i) / f64::from(lookups));
        }
        std::hint::black_box(acc);
        rec.sample(
            "cloud.cdf_lookups_per_s",
            f64::from(lookups) / t0.elapsed().as_secs_f64(),
        );

        // core: the Figure-9 pair on the decision at job start of the
        // FIG9_SLACKS rows (the metric is the median of the three), then
        // `decide` at four stages of every grid row.
        let candidates: Vec<_> = self
            .jobs
            .iter()
            .map(|(_, _, job)| {
                build_decision_candidates(&setup, job, 3600.0, false).expect("candidates")
            })
            .collect();
        let context = |i: usize, done: f64| -> DecisionContext<'_> {
            let job = &self.jobs[i].2;
            DecisionContext {
                now: 0.8 * done * job.deadline,
                deadline: job.deadline,
                work_left: 1.0 - done,
                t_boot: job.t_boot,
                candidates: &candidates[i],
                current: None,
                save_retry_factor: 0.0,
            }
        };
        for i in 0..self.jobs.len() {
            let (kind, slack, _) = &self.jobs[i];
            if *kind != PaperJob::Sssp || !FIG9_SLACKS.contains(slack) {
                continue;
            }
            let ctx = context(i, 0.0);
            let (_, secs) = rec.time("core", "ec_approx", || {
                expected_cost_approx(&ctx, &EcParams::default()).expect("approximate EC")
            });
            rec.sample("core.ec_approx_us", secs * 1e6);
            let (_, secs) = rec.time("core", "ec_exact", || {
                expected_cost_exact(&ctx, 1.0, Some(EXACT_BUDGET)).expect("exact EC in budget")
            });
            rec.sample("core.ec_exact_ms", secs * 1e3);
        }
        let strategy = HourglassStrategy::new();
        let mut decide_us = Vec::new();
        let t0 = Instant::now();
        for _ in 0..5 {
            for i in 0..self.jobs.len() {
                for done in [0.0, 0.25, 0.5, 0.75] {
                    let ctx = context(i, done);
                    let t = Instant::now();
                    std::hint::black_box(strategy.decide(&ctx).expect("decide"));
                    decide_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        rec.sample(
            "core.decisions_per_s",
            decide_us.len() as f64 / t0.elapsed().as_secs_f64(),
        );
        let (p50, p99) = p50_p99(&mut decide_us);
        rec.sample("core.decide_p50_us", p50);
        rec.sample("core.decide_p99_us", p99);

        // sim: one job at a time into a counting sink, the same cell
        // swept on two threads, and one fleet into a counting sink.
        let (job, starts) = self.probe_cell();
        let mut sink = CountingSink::default();
        let t0 = Instant::now();
        for (i, &start) in starts.iter().enumerate() {
            run_job_observed(&setup, job, &strategy, start, i as u32, &mut sink).expect("job");
        }
        let seq = t0.elapsed().as_secs_f64();
        rec.sample("sim.run_job_us", seq * 1e6 / starts.len() as f64);
        rec.sample("sim.events_per_s", sink.0 as f64 / seq);
        let t0 = Instant::now();
        sweep_jobs(&setup, job, &strategy, &starts, true, &mut NullSink).expect("sweep");
        rec.sample("sim.sweep_par_speedup", seq / t0.elapsed().as_secs_f64());
        let mut sink = CountingSink::default();
        let t0 = Instant::now();
        run_fleet_observed(
            &setup,
            &self.fleet,
            &strategy,
            &FleetConfig::default(),
            0,
            &mut sink,
        )
        .expect("fleet");
        rec.sample(
            "sim.fleet_events_per_s",
            sink.0 as f64 / t0.elapsed().as_secs_f64(),
        );

        probe_telemetry(answer_s, rec, |rec| self.operation(rec).seconds);
    }
}
