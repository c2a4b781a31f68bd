//! The job execution event loop (§4): decide → (re)deploy → fast-load →
//! execute → checkpoint → repeat, with evictions driven by the price trace.

use crate::events::{EventSink, NullSink, Phase, SimEvent};
use crate::job::JobDescription;
use crate::{Result, SimError};
use hourglass_cloud::billing::CostLedger;
use hourglass_cloud::eviction::{self, DynEviction, EvictionModel, LifetimeCapped};
use hourglass_cloud::{fit, InstanceType, Market, ResourceClass};
use hourglass_core::{Candidate, CurrentDeployment, DecisionContext, Strategy};
use hourglass_faults::{FaultHook, FaultPlan, Site};
use hourglass_metrics as hm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock strategy-decision latency. Real elapsed time on whatever
/// machine ran the decision — explicitly nondeterministic, excluded from
/// the bit-compared deterministic snapshot view.
pub static M_DECIDE_WALL_SECONDS: hm::FamilyDesc = hm::FamilyDesc {
    name: "hourglass_sim_decide_wall_seconds",
    help: "Wall-clock strategy decision latency (nondeterministic).",
    kind: hm::MetricKind::Histogram,
    buckets: hm::SECONDS_BUCKETS,
    nondeterministic: true,
};

/// Ground-truth lifetime process overlaid on the price-crossing evictions:
/// a transient deployment dies at `min(price crossing, lifetime)`.
///
/// The *model* strategies see (in [`SimulationSetup::eviction_models`]) and
/// the ground truth the runner enforces are configured separately, so
/// scenario sweeps can study model/world mismatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeGroundTruth {
    /// Every transient deployment is revoked after exactly `seconds` of
    /// uptime (hard platform cap, 24 h-style).
    Cap {
        /// The cap in seconds.
        seconds: f64,
    },
    /// Each deployment's lifetime is drawn from the instance type's
    /// configured eviction process (inverse-CDF, seeded deterministically
    /// per `(seed, run, deployment)` so parallel sweeps stay bit-identical
    /// to sequential).
    Sampled {
        /// Scenario-level seed for the per-deployment draws.
        seed: u64,
    },
}

/// Shared simulation inputs: the replayed market and the historical
/// eviction statistics strategies are allowed to see.
pub struct SimulationSetup<'a> {
    /// The price trace being replayed (the paper's November trace).
    pub market: &'a Market,
    /// Eviction processes per instance type, derived from the historical
    /// trace (the paper's October trace). Trait objects: empirical
    /// price-crossing, lifetime-capped, bathtub — anything implementing
    /// [`hourglass_cloud::EvictionProcess`].
    pub eviction_models: &'a [(InstanceType, DynEviction)],
    /// Safety cap on simulated events per job.
    pub max_events: usize,
    /// Eviction warning lead time in seconds (§9 extension): when the
    /// provider warns at least `t_save` before reclaiming, the engine
    /// checkpoints the progress made up to the warning instead of losing
    /// the whole interval. AWS's real warning is 120 s; 0 disables it.
    pub eviction_warning: f64,
    /// Overrides Daly's checkpoint interval with a fixed value (ablation
    /// hook; `None` = the paper's `√(2·t_save·MTTF)`).
    pub checkpoint_interval_override: Option<f64>,
    /// Deterministic fault plan injected into the modeled I/O: shard
    /// reads during (re)loads and checkpoint puts. Each run draws its own
    /// reproducible fault stream (`FaultHook::for_run`), so sweeps stay
    /// bit-identical between sequential and parallel execution. `None`
    /// models reliable storage.
    pub fault_plan: Option<FaultPlan>,
    /// Ground-truth lifetime process the runner *enforces* on transient
    /// deployments, independently of the models strategies *see*. `None`
    /// means price crossings are the only eviction cause (the paper's
    /// world).
    pub lifetime: Option<LifetimeGroundTruth>,
    /// The never-evicting model every on-demand candidate shares (built
    /// once here, not once per candidate per decision).
    reliable: DynEviction,
}

impl<'a> SimulationSetup<'a> {
    /// Creates a setup with the default event cap.
    pub fn new(market: &'a Market, eviction_models: &'a [(InstanceType, DynEviction)]) -> Self {
        SimulationSetup {
            market,
            eviction_models,
            max_events: 100_000,
            eviction_warning: 0.0,
            checkpoint_interval_override: None,
            fault_plan: None,
            lifetime: None,
            reliable: Arc::new(eviction::reliable()),
        }
    }

    /// Enables the §9 eviction-warning extension with the given lead time.
    pub fn with_eviction_warning(mut self, seconds: f64) -> Self {
        self.eviction_warning = seconds;
        self
    }

    /// Injects a deterministic fault plan into the modeled I/O.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overlays a ground-truth lifetime process on transient deployments.
    pub fn with_lifetime(mut self, lifetime: LifetimeGroundTruth) -> Self {
        self.lifetime = Some(lifetime);
        self
    }

    fn eviction_model(&self, ty: InstanceType) -> Result<&DynEviction> {
        self.eviction_models
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, m)| m)
            .ok_or_else(|| SimError::InvalidParameter(format!("no eviction model for {ty}")))
    }

    /// Absolute instant the deployment acquired at `acquire_at` dies from
    /// the ground-truth lifetime process (infinity when only price
    /// crossings can evict it). `salt` decorrelates draws across fleet
    /// tenants sharing one run index; the single-job runner passes 0,
    /// which leaves the historical mix untouched.
    fn lifetime_dies_at(
        &self,
        ty: InstanceType,
        acquire_at: f64,
        run: u32,
        deployment: usize,
        salt: u64,
    ) -> Result<f64> {
        match self.lifetime {
            None => Ok(f64::INFINITY),
            Some(LifetimeGroundTruth::Cap { seconds }) => Ok(acquire_at + seconds),
            Some(LifetimeGroundTruth::Sampled { seed }) => {
                let model = self.eviction_model(ty)?;
                // Hash-mix (seed, run, deployment) so every deployment draws
                // an independent lifetime, yet the draw depends only on
                // values fixed at acquisition — parallel sweeps replay the
                // identical stream.
                let mix = seed
                    ^ (run as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (deployment as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                    ^ salt;
                let mut rng = StdRng::seed_from_u64(mix);
                let u: f64 = rng.gen();
                Ok(match model.sample_next_eviction(0.0, u) {
                    Some(life) => acquire_at + life,
                    None => f64::INFINITY,
                })
            }
        }
    }
}

/// Model-selection knob for [`derive_eviction_models_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionModelKind {
    /// Empirical price-crossing CDF sampled from the historical trace
    /// (the paper's §7 model).
    Crossing,
    /// The crossing model composed with a hard lifetime cap.
    Capped {
        /// The cap in seconds (e.g. 24 h for GCE-style preemptibles).
        cap: f64,
    },
    /// Piecewise-Weibull bathtub hazard fitted to the crossing samples.
    Bathtub,
}

/// Builds the per-instance-type eviction models from a historical market,
/// bidding the on-demand price (§7).
pub fn derive_eviction_models(
    history: &Market,
    window: f64,
    samples: usize,
    seed: u64,
) -> Result<Vec<(InstanceType, DynEviction)>> {
    derive_eviction_models_with(history, window, samples, seed, EvictionModelKind::Crossing)
}

/// [`derive_eviction_models`] with an explicit model family: the empirical
/// crossing CDF, the crossing CDF under a hard lifetime cap, or a bathtub
/// hazard fitted to the same samples.
pub fn derive_eviction_models_with(
    history: &Market,
    window: f64,
    samples: usize,
    seed: u64,
    kind: EvictionModelKind,
) -> Result<Vec<(InstanceType, DynEviction)>> {
    let mut out = Vec::new();
    for ty in history.instance_types() {
        let trace = history.trace(ty)?;
        let bid = ty.on_demand_price();
        let model: DynEviction = match kind {
            EvictionModelKind::Crossing => Arc::new(EvictionModel::from_trace(
                trace, bid, window, samples, seed,
            )?),
            EvictionModelKind::Capped { cap } => {
                let base: DynEviction = Arc::new(EvictionModel::from_trace(
                    trace, bid, window, samples, seed,
                )?);
                Arc::new(LifetimeCapped::new(base, cap)?)
            }
            EvictionModelKind::Bathtub => {
                Arc::new(fit::fit_bathtub(trace, bid, window, samples, seed)?)
            }
        };
        out.push((ty, model));
    }
    Ok(out)
}

/// The outcome of one simulated job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Total dollars: online billing plus the offline phase.
    pub cost: f64,
    /// Online dollars only.
    pub online_cost: f64,
    /// Completion time relative to job start, seconds.
    pub finish_time: f64,
    /// True when the job finished after its deadline.
    pub missed_deadline: bool,
    /// Evictions suffered.
    pub evictions: usize,
    /// Deployments acquired (including the first).
    pub deployments: usize,
    /// False when the simulation hit the trace horizon before finishing
    /// (counted as a missed deadline).
    pub completed: bool,
}

/// What the job currently holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Held {
    /// Index into `job.configs`.
    pub(crate) idx: usize,
    /// Absolute acquisition time.
    pub(crate) acquired: f64,
    /// Absolute instant the ground-truth lifetime process revokes this
    /// deployment (infinity when only price crossings apply).
    pub(crate) dies_at: f64,
}

/// Arbitration hook a [`JobActor`] consults right before committing a
/// transient acquisition, so a fleet scheduler can enforce a shared
/// capacity cap. On-demand deployments (the last-resort configuration)
/// are never capacity-constrained.
pub(crate) trait CapacityControl {
    /// Asks to deploy `workers` transient machines at absolute time `t`,
    /// releasing `releasing` transient machines of the currently held
    /// deployment at the same instant. `None` grants the request;
    /// `Some(until)` defers it — the actor waits (holding its current
    /// deployment idle, billed) until `until` and re-decides.
    fn request_transient(&mut self, t: f64, workers: usize, releasing: usize) -> Option<f64>;
}

/// Grants every request: the single-job runner's control, equivalent to
/// an unbounded fleet.
pub(crate) struct UnlimitedCapacity;

impl CapacityControl for UnlimitedCapacity {
    fn request_transient(&mut self, _t: f64, _workers: usize, _releasing: usize) -> Option<f64> {
        None
    }
}

/// The single-job decision loop rehosted as a steppable event-queue
/// actor. One [`JobActor::step`] call executes exactly one iteration of
/// the legacy `run_job_observed` loop — decide → maybe (re)deploy → one
/// compute chunk — emitting the identical events in the identical order
/// and performing the identical f64 operations, so the legacy driver
/// below and the fleet scheduler replay bit-identical runs. The actor's
/// clock `t` only moves forward at step boundaries, and every billed
/// interval ends at or before the clock, so a fleet can interleave many
/// actors in ascending-clock order without ever rolling one back.
pub(crate) struct JobActor<'a> {
    setup: &'a SimulationSetup<'a>,
    job: &'a JobDescription,
    strategy: &'a dyn Strategy,
    start: f64,
    run: u32,
    horizon: f64,
    t: f64,
    w: f64,
    ledger: CostLedger,
    held: Option<Held>,
    first_load_done: bool,
    evictions: usize,
    deployments: usize,
    events: usize,
    force_lrc: bool,
    last_stuck_pick: Option<usize>,
    billed: f64,
    hook: Option<FaultHook>,
    save_retry_factor: f64,
    lifetime_salt: u64,
    outcome: Option<JobOutcome>,
}

impl<'a> JobActor<'a> {
    /// Creates an actor for one job starting at absolute trace time
    /// `start`, with events stamped with run index `run`.
    pub(crate) fn new(
        setup: &'a SimulationSetup<'a>,
        job: &'a JobDescription,
        strategy: &'a dyn Strategy,
        start: f64,
        run: u32,
    ) -> Result<Self> {
        if start < 0.0 || start >= setup.market.horizon() {
            return Err(SimError::InvalidParameter(format!(
                "start {start} outside market horizon"
            )));
        }
        // Fault state: one run-keyed hook per job, so interleaved sweep
        // runs draw independent but individually reproducible fault
        // streams.
        let hook = setup
            .fault_plan
            .as_ref()
            .map(|p| FaultHook::for_run(p, run));
        // Flaky checkpoint stores stretch expected save time; strategies
        // see it as the retry-tail inflation factor p/(1−p).
        let save_retry_factor = setup
            .fault_plan
            .as_ref()
            .map(|p| p.retry_factor(Site::StorePut))
            .unwrap_or(0.0);
        Ok(JobActor {
            setup,
            job,
            strategy,
            start,
            run,
            horizon: setup.market.horizon(),
            t: start,
            w: 1.0,
            ledger: CostLedger::new(),
            held: None,
            first_load_done: false,
            evictions: 0,
            deployments: 0,
            events: 0,
            force_lrc: false,
            last_stuck_pick: None,
            billed: 0.0,
            hook,
            save_retry_factor,
            lifetime_salt: 0,
            outcome: None,
        })
    }

    /// Seeds the actor with warm state shared from an earlier job of the
    /// same tenant: `held` hands over a still-live deployment (boot and
    /// load skipped when the first decision re-picks it), and
    /// `shards_cached` marks the tenant's clustered shards as already in
    /// the datastore, so even a cold acquire pays the reload path instead
    /// of the first text-store ingest.
    pub(crate) fn with_warm_state(mut self, held: Option<Held>, shards_cached: bool) -> Self {
        self.held = held;
        if shards_cached || self.held.is_some() {
            self.first_load_done = true;
        }
        self
    }

    /// Decorrelates ground-truth lifetime draws across fleet tenants
    /// sharing one run index (0 = the legacy single-job stream).
    pub(crate) fn with_lifetime_salt(mut self, salt: u64) -> Self {
        self.lifetime_salt = salt;
        self
    }

    /// The actor's simulation clock (absolute trace time).
    pub(crate) fn now(&self) -> f64 {
        self.t
    }

    /// Work fraction remaining.
    pub(crate) fn work_left(&self) -> f64 {
        self.w
    }

    /// The held deployment, if any.
    pub(crate) fn held(&self) -> Option<Held> {
        self.held
    }

    /// Consumes the actor, returning the outcome of a finished run.
    pub(crate) fn into_outcome(self) -> JobOutcome {
        self.outcome.expect("actor stepped to completion")
    }

    fn emit(&self, sink: &mut dyn EventSink, event: SimEvent) {
        sink.record(self.run, &event);
    }

    fn finish(&mut self, outcome: JobOutcome, sink: &mut dyn EventSink) {
        self.emit(
            sink,
            SimEvent::Complete {
                t: self.t,
                work_left: self.w,
                billed: self.billed,
                finish_seconds: outcome.finish_time,
                deadline: self.job.deadline,
                cost: outcome.cost,
                online_cost: outcome.online_cost,
                missed_deadline: outcome.missed_deadline,
                completed: outcome.completed,
                evictions: outcome.evictions,
                deployments: outcome.deployments,
            },
        );
        self.outcome = Some(outcome);
    }

    /// Forcibly releases the held deployment at the actor's current clock
    /// — the fleet scheduler sacrificing `victim`'s deployment to another
    /// tenant. Billing needs no adjustment: every interval is billed
    /// through the clock by the step that advanced it. The next step
    /// re-decides and redeploys (or bails to the last resort).
    pub(crate) fn revoke(&mut self, victim: u32, sink: &mut dyn EventSink) {
        let Some(h) = self.held.take() else { return };
        self.emit(
            sink,
            SimEvent::Preempt {
                t: self.t,
                work_left: self.w,
                billed: self.billed,
                victim,
                pick: h.idx,
            },
        );
        self.evictions += 1;
        self.emit(
            sink,
            SimEvent::Evict {
                t: self.t,
                work_left: self.w,
                billed: self.billed,
                pick: h.idx,
                phase: Phase::Preempted,
            },
        );
    }

    /// Bills a warm deployment handed over by the fleet across the idle
    /// gap `[from, start)`, evicting it (warmth lost, shard cache kept)
    /// if its market crosses the bid or its lifetime ends mid-gap.
    pub(crate) fn bill_idle_handoff(&mut self, from: f64, sink: &mut dyn EventSink) -> Result<()> {
        self.wait_on_held(from, self.start, sink)
    }

    /// Executes one iteration of the decision loop. Returns `true` when
    /// the run finished (the outcome is stored and a
    /// [`SimEvent::Complete`] was emitted).
    pub(crate) fn step(
        &mut self,
        sink: &mut dyn EventSink,
        ctrl: &mut dyn CapacityControl,
    ) -> Result<bool> {
        if self.outcome.is_some() {
            return Ok(true);
        }
        self.events += 1;
        if self.events > self.setup.max_events {
            return Err(SimError::RunawayJob {
                events: self.events,
            });
        }
        if self.w <= 1e-9 {
            let finish_time = self.t - self.start;
            let outcome = JobOutcome {
                cost: self.ledger.total() + self.job.offline_cost,
                online_cost: self.ledger.total(),
                finish_time,
                missed_deadline: finish_time > self.job.deadline + 1e-6,
                evictions: self.evictions,
                deployments: self.deployments,
                completed: true,
            };
            self.finish(outcome, sink);
            return Ok(true);
        }
        if self.t >= self.horizon {
            // Ran off the end of the trace: report as incomplete.
            let outcome = JobOutcome {
                cost: self.ledger.total() + self.job.offline_cost,
                online_cost: self.ledger.total(),
                finish_time: self.t - self.start,
                missed_deadline: true,
                evictions: self.evictions,
                deployments: self.deployments,
                completed: false,
            };
            self.finish(outcome, sink);
            return Ok(true);
        }

        // Decision point.
        let candidates = build_candidates(
            self.setup,
            self.job,
            self.t,
            self.first_load_done,
            self.held.map(|h| h.idx),
        )?;
        let ctx = DecisionContext {
            now: self.t - self.start,
            deadline: self.job.deadline,
            work_left: self.w,
            t_boot: self.job.t_boot,
            candidates: &candidates,
            current: self.held.map(|h| CurrentDeployment {
                index: h.idx,
                uptime: self.t - h.acquired,
            }),
            save_retry_factor: self.save_retry_factor,
        };
        // Wall-clock decision latency is telemetry, not simulation state:
        // it goes straight into a nondeterministic metrics family and
        // never touches the (bit-compared) event stream.
        let decide_started = hm::enabled().then(Instant::now);
        let (pick, forced) = if self.force_lrc {
            self.force_lrc = false;
            (self.job.lrc()?, true)
        } else {
            (self.strategy.decide(&ctx)?.pick, false)
        };
        if let Some(started) = decide_started {
            hm::observe(&M_DECIDE_WALL_SECONDS, &[], started.elapsed().as_secs_f64());
        }
        let perf = self.job.configs[pick];
        let bid = perf.config.on_demand_rate() / perf.config.num_workers as f64;

        // (Re)deploy if the pick differs from the held deployment.
        let continuing = matches!(self.held, Some(h) if h.idx == pick);
        self.emit(
            sink,
            SimEvent::Decide {
                t: self.t,
                work_left: self.w,
                billed: self.billed,
                pick,
                continuation: continuing,
                forced,
                slack: self.job.deadline - (self.t - self.start),
            },
        );
        if !continuing {
            let mut acquire_at = self.t;
            if perf.config.is_transient() {
                // Spot requests are fulfilled when the market clears at or
                // below the bid. While the request is pending, the held
                // deployment (if any) stays up — idle, but billed — so a
                // strategy that re-picks it once the spike passes continues
                // where it left off instead of paying a fresh boot + load.
                let trace = self.setup.market.trace(perf.config.instance_type)?;
                match trace.next_at_or_below(self.t, bid) {
                    Some(ta) if ta <= self.t + 1e-9 => acquire_at = self.t,
                    Some(ta) => {
                        // Market is in a spike: wait in bounded steps,
                        // re-deciding each time so deadline-aware
                        // strategies can bail to the lrc as slack burns.
                        let resume_at = ta.min(self.t + 300.0);
                        self.emit(
                            sink,
                            SimEvent::SpikeWait {
                                t: self.t,
                                work_left: self.w,
                                billed: self.billed,
                                pick,
                                resume_at,
                                held: self.held.map(|h| h.idx),
                            },
                        );
                        self.wait_on_held(self.t, resume_at, sink)?;
                        self.t = resume_at;
                        return Ok(false);
                    }
                    None => {
                        // Market never returns within the trace: fall back
                        // to the last-resort configuration.
                        let resume_at = self.t + 60.0;
                        self.emit(
                            sink,
                            SimEvent::SpikeWait {
                                t: self.t,
                                work_left: self.w,
                                billed: self.billed,
                                pick,
                                resume_at,
                                held: self.held.map(|h| h.idx),
                            },
                        );
                        self.wait_on_held(self.t, resume_at, sink)?;
                        self.t = resume_at;
                        self.force_lrc = true;
                        return Ok(false);
                    }
                }
                // Fleet seam: the market clears, but the shared fleet may
                // be out of machines. A deferred request behaves exactly
                // like a spike wait — the held deployment idles, billed —
                // so capacity pressure burns slack the same way price
                // spikes do and deadline-aware strategies bail in time.
                let releasing = match self.held {
                    Some(h) if self.job.configs[h.idx].config.is_transient() => {
                        self.job.configs[h.idx].config.num_workers as usize
                    }
                    _ => 0,
                };
                if let Some(until) =
                    ctrl.request_transient(acquire_at, perf.config.num_workers as usize, releasing)
                {
                    self.emit(
                        sink,
                        SimEvent::SpikeWait {
                            t: self.t,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            resume_at: until,
                            held: self.held.map(|h| h.idx),
                        },
                    );
                    self.wait_on_held(self.t, until, sink)?;
                    self.t = until;
                    return Ok(false);
                }
            }
            // The replacement is available now: only at this point is the
            // old deployment released (it was billed through `t` by the
            // compute/wait intervals that got us here).
            let released = self.held.take().map(|h| h.idx);
            self.deployments += 1;
            let dies_at = if perf.config.is_transient() {
                self.setup.lifetime_dies_at(
                    perf.config.instance_type,
                    acquire_at,
                    self.run,
                    self.deployments,
                    self.lifetime_salt,
                )?
            } else {
                f64::INFINITY
            };
            let full_load = if self.first_load_done {
                perf.t_load_reload
            } else {
                perf.t_load_first
            };
            // A voluntary switch away from a still-live deployment is a
            // delta migration: only the rehomed micro-partitions are
            // re-shipped (§6.2). Recovery after an eviction (`released`
            // is `None`) pays the full reload from the datastore.
            let migration = released.filter(|_| self.first_load_done).map(|from| {
                let fraction = crate::job::delta_reload_fraction(&self.job.configs[from], &perf);
                (from, fraction, fraction * perf.t_load_reload)
            });
            let load_time = migration.map(|(_, _, d)| d).unwrap_or(full_load);
            let mut setup_time = self.job.t_boot + load_time;
            // Fault seam: the (re)load's datastore reads. A fast reload
            // consults the shard-read site; the first load, the text
            // store. Transient faults stretch the setup by their retry
            // backoff; a fast reload whose shards stay unreadable falls
            // back to re-assembling from the text store (the full first
            // load, again) — wasted setup an eviction can land inside.
            let mut load_degraded: Option<(u32, bool, f64)> = None;
            if let Some(hook) = self.hook.as_ref() {
                let site = if self.first_load_done {
                    Site::ShardRead
                } else {
                    Site::StoreGet
                };
                let c = hook.consult(site);
                if c.retries > 0 || c.torn.is_some() || c.delay_ns > 0 || c.exhausted {
                    let mut extra = c.delay_ns as f64 / 1e9;
                    let mut fallback = false;
                    if c.exhausted || c.torn.is_some() {
                        // Fast path abandoned: pay the slow load on top of
                        // the partial attempt (first loads re-read the
                        // store wholesale).
                        extra += perf.t_load_first;
                        fallback = true;
                    }
                    setup_time += extra;
                    load_degraded = Some((c.retries, fallback, extra));
                }
            }
            self.emit(
                sink,
                SimEvent::Acquire {
                    t: acquire_at,
                    work_left: self.w,
                    billed: self.billed,
                    pick,
                    setup_seconds: setup_time,
                    first_load: !self.first_load_done,
                    released,
                },
            );
            if let Some((from, fraction, delta_seconds)) = migration {
                self.emit(
                    sink,
                    SimEvent::Migrate {
                        t: acquire_at,
                        work_left: self.w,
                        billed: self.billed,
                        pick,
                        from,
                        moved_fraction: fraction,
                        delta_seconds,
                        full_seconds: perf.t_load_reload,
                    },
                );
            }
            if let Some((retries, fallback, wasted)) = load_degraded {
                self.emit(
                    sink,
                    SimEvent::Degraded {
                        t: acquire_at,
                        work_left: self.w,
                        billed: self.billed,
                        pick,
                        retries,
                        fallback,
                        wasted_seconds: wasted,
                    },
                );
            }
            let setup_end = acquire_at + setup_time;
            if perf.config.is_transient() {
                let trace = self.setup.market.trace(perf.config.instance_type)?;
                let te = match trace.next_crossing_above(acquire_at, bid) {
                    Some(c) => c.min(dies_at),
                    None => dies_at,
                };
                if te < setup_end && te < self.horizon {
                    // Evicted while booting/loading: no progress.
                    self.bill(&perf, pick, acquire_at, te, sink)?;
                    self.evictions += 1;
                    self.emit(
                        sink,
                        SimEvent::Evict {
                            t: te,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            phase: Phase::Setup,
                        },
                    );
                    self.t = te;
                    return Ok(false);
                }
            }
            if setup_end >= self.horizon {
                self.bill(&perf, pick, acquire_at, self.horizon, sink)?;
                self.t = self.horizon;
                return Ok(false);
            }
            self.bill(&perf, pick, acquire_at, setup_end, sink)?;
            self.held = Some(Held {
                idx: pick,
                acquired: acquire_at,
                dies_at,
            });
            self.first_load_done = true;
            self.t = setup_end;
        }

        // Compute phase.
        if !perf.config.is_transient() {
            // On-demand: run to completion (checkpointing disabled), then
            // store the output.
            let end = self.t + self.w * perf.t_exec + perf.t_save;
            let end_clamped = end.min(self.horizon);
            self.bill(&perf, pick, self.t, end_clamped, sink)?;
            if end > self.horizon {
                self.t = self.horizon;
                return Ok(false);
            }
            self.t = end;
            self.w = 0.0;
            return Ok(false);
        }

        // Transient: one checkpointed chunk.
        let h = self
            .held
            .expect("transient compute requires a held deployment");
        let eviction_model = self.setup.eviction_model(perf.config.instance_type)?;
        let t_ckpt = self.setup.checkpoint_interval_override.unwrap_or_else(|| {
            hourglass_core::checkpoint::daly_interval(perf.t_save, eviction_model.mttf())
        });
        // When the deployment continued, `t` has not moved since the
        // decision; reuse the candidate set instead of rebuilding.
        let candidates2 = if continuing {
            candidates
        } else {
            build_candidates(
                self.setup,
                self.job,
                self.t,
                self.first_load_done,
                Some(h.idx),
            )?
        };
        let ctx2 = DecisionContext {
            now: self.t - self.start,
            deadline: self.job.deadline,
            work_left: self.w,
            t_boot: self.job.t_boot,
            candidates: &candidates2,
            current: Some(CurrentDeployment {
                index: h.idx,
                uptime: self.t - h.acquired,
            }),
            save_retry_factor: self.save_retry_factor,
        };
        let mut chunk = (self.w * perf.t_exec).min(t_ckpt);
        if let Some(limit) = self.strategy.chunk_limit(&ctx2, pick) {
            chunk = chunk.min(limit);
        }
        if chunk <= 0.0 {
            // The strategy's own chunk bound says no safe progress is
            // possible here; it must pick something else on the next
            // decision. Guard against livelock on a repeated unsafe pick.
            if self.last_stuck_pick == Some(pick) {
                self.force_lrc = true;
            }
            self.last_stuck_pick = Some(pick);
            return Ok(false);
        }
        self.last_stuck_pick = None;
        let interval_end = self.t + chunk + perf.t_save;
        let trace = self.setup.market.trace(perf.config.instance_type)?;
        let eviction_time = match trace.next_crossing_above(self.t, bid) {
            Some(c) => c.min(h.dies_at),
            None => h.dies_at,
        };
        let evicted_at = (eviction_time < interval_end.min(self.horizon)).then_some(eviction_time);
        match evicted_at {
            Some(te) => {
                // §9 extension: a warning of at least t_save lets the
                // engine keep computing and still checkpoint right before
                // the reclaim, so only the final t_save of the interval's
                // progress is lost (without a warning the whole interval
                // is).
                if self.setup.eviction_warning >= perf.t_save {
                    let computed = (te - perf.t_save - self.t).clamp(0.0, chunk);
                    self.w = (self.w - computed / perf.t_exec).max(0.0);
                }
                self.bill(&perf, pick, self.t, te, sink)?;
                self.evictions += 1;
                self.held = None;
                self.emit(
                    sink,
                    SimEvent::Evict {
                        t: te,
                        work_left: self.w,
                        billed: self.billed,
                        pick,
                        phase: Phase::Compute,
                    },
                );
                self.t = te;
            }
            None => {
                // Fault seam: the checkpoint put. Transient failures are
                // retried (the save stretches by their backoff); a torn
                // write models a reclaim landing mid-save (the chunk's
                // progress is lost with the uncommitted epoch); exhausted
                // retries lose the checkpoint but keep the deployment.
                let consult = self.hook.as_ref().map(|h| h.consult(Site::StorePut));
                if let Some(fraction) = consult.as_ref().and_then(|c| c.torn) {
                    let te = (self.t + chunk + fraction * perf.t_save).min(self.horizon);
                    self.bill(&perf, pick, self.t, te, sink)?;
                    self.evictions += 1;
                    self.held = None;
                    self.emit(
                        sink,
                        SimEvent::Degraded {
                            t: te,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            retries: consult.map(|c| c.retries).unwrap_or(0),
                            fallback: true,
                            wasted_seconds: te - self.t,
                        },
                    );
                    self.emit(
                        sink,
                        SimEvent::Evict {
                            t: te,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            phase: Phase::Compute,
                        },
                    );
                    self.t = te;
                    return Ok(false);
                }
                let save_extra = consult
                    .as_ref()
                    .map(|c| c.delay_ns as f64 / 1e9)
                    .unwrap_or(0.0);
                let interval_end = interval_end + save_extra;
                if interval_end >= self.horizon {
                    self.bill(&perf, pick, self.t, self.horizon, sink)?;
                    self.t = self.horizon;
                    return Ok(false);
                }
                self.bill(&perf, pick, self.t, interval_end, sink)?;
                let checkpoint_lost = consult.as_ref().map(|c| c.exhausted).unwrap_or(false);
                if checkpoint_lost {
                    // Every put attempt failed: the interval is billed but
                    // its progress never committed.
                    self.emit(
                        sink,
                        SimEvent::Degraded {
                            t: interval_end,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            retries: consult.map(|c| c.retries).unwrap_or(0),
                            fallback: true,
                            wasted_seconds: interval_end - self.t,
                        },
                    );
                    self.t = interval_end;
                    return Ok(false);
                }
                self.w = (self.w - chunk / perf.t_exec).max(0.0);
                if let Some(c) = consult.filter(|c| c.retries > 0 || c.delay_ns > 0) {
                    self.emit(
                        sink,
                        SimEvent::Degraded {
                            t: interval_end,
                            work_left: self.w,
                            billed: self.billed,
                            pick,
                            retries: c.retries,
                            fallback: false,
                            wasted_seconds: save_extra,
                        },
                    );
                }
                self.emit(
                    sink,
                    SimEvent::Checkpoint {
                        t: interval_end,
                        work_left: self.w,
                        billed: self.billed,
                        pick,
                        chunk_seconds: chunk,
                    },
                );
                self.t = interval_end;
            }
        }
        Ok(false)
    }

    /// Bills the held deployment while it sits idle through a wait on
    /// `[from, until)`, evicting it if its own market crosses the bid
    /// first.
    fn wait_on_held(&mut self, from: f64, until: f64, sink: &mut dyn EventSink) -> Result<()> {
        let Some(h) = self.held else { return Ok(()) };
        let perf = self.job.configs[h.idx];
        let until = until.min(self.horizon);
        if until <= from {
            return Ok(());
        }
        if perf.config.is_transient() {
            let bid = perf.config.on_demand_rate() / perf.config.num_workers as f64;
            let trace = self.setup.market.trace(perf.config.instance_type)?;
            let eviction_time = match trace.next_crossing_above(from, bid) {
                Some(c) => c.min(h.dies_at),
                None => h.dies_at,
            };
            if let Some(te) = (eviction_time < until).then_some(eviction_time) {
                // The idle deployment is reclaimed mid-wait. Nothing beyond
                // the last checkpoint is lost (`w` already reflects it).
                self.bill(&perf, h.idx, from, te, sink)?;
                self.evictions += 1;
                self.held = None;
                self.emit(
                    sink,
                    SimEvent::Evict {
                        t: te,
                        work_left: self.w,
                        billed: self.billed,
                        pick: h.idx,
                        phase: Phase::Wait,
                    },
                );
                return Ok(());
            }
        }
        self.bill(&perf, h.idx, from, until, sink)?;
        Ok(())
    }

    fn bill(
        &mut self,
        perf: &crate::job::ConfigPerf,
        pick: usize,
        from: f64,
        to: f64,
        sink: &mut dyn EventSink,
    ) -> Result<()> {
        if to > from {
            let cost = self
                .ledger
                .bill(self.setup.market, &perf.config, from, to)?;
            self.billed += cost;
            self.emit(
                sink,
                SimEvent::Bill {
                    t: from,
                    to,
                    work_left: self.w,
                    billed: self.billed,
                    pick,
                    cost,
                },
            );
        }
        Ok(())
    }
}

/// Runs one job to completion over the market trace, starting at absolute
/// trace time `start`.
pub fn run_job(
    setup: &SimulationSetup<'_>,
    job: &JobDescription,
    strategy: &dyn Strategy,
    start: f64,
) -> Result<JobOutcome> {
    run_job_observed(setup, job, strategy, start, 0, &mut NullSink)
}

/// [`run_job`] with every decision-loop transition reported to `sink`,
/// stamped with run index `run` (sweeps use it to keep interleaved runs
/// apart; standalone callers can pass 0). A thin driver over
/// [`JobActor`]: it steps the actor to completion with unlimited
/// capacity, which is the exact legacy single-job loop.
pub fn run_job_observed(
    setup: &SimulationSetup<'_>,
    job: &JobDescription,
    strategy: &dyn Strategy,
    start: f64,
    run: u32,
    sink: &mut dyn EventSink,
) -> Result<JobOutcome> {
    let mut actor = JobActor::new(setup, job, strategy, start, run)?;
    let mut ctrl = UnlimitedCapacity;
    while !actor.step(sink, &mut ctrl)? {}
    Ok(actor.into_outcome())
}

/// Builds the candidate set a strategy would see at absolute trace time
/// `t` (exposed for the Figure 9 decision-time experiment and for custom
/// drivers).
pub fn build_decision_candidates(
    setup: &SimulationSetup<'_>,
    job: &JobDescription,
    t: f64,
    first_load_done: bool,
) -> Result<Vec<Candidate>> {
    build_candidates(setup, job, t, first_load_done, None)
}

fn build_candidates(
    setup: &SimulationSetup<'_>,
    job: &JobDescription,
    t: f64,
    first_load_done: bool,
    held_idx: Option<usize>,
) -> Result<Vec<Candidate>> {
    job.configs
        .iter()
        .map(|perf| {
            let price_rate = match perf.config.class {
                ResourceClass::OnDemand => perf.config.on_demand_rate(),
                ResourceClass::Transient => {
                    // The true market price: during a spike this exceeds
                    // the on-demand rate, which correctly makes the
                    // (currently unavailable) market unattractive.
                    let trace = setup.market.trace(perf.config.instance_type)?;
                    trace.price_at(t.min(trace.horizon() - 1.0))? * perf.config.num_workers as f64
                }
            };
            let eviction: DynEviction = match perf.config.class {
                ResourceClass::OnDemand => setup.reliable.clone(),
                ResourceClass::Transient => {
                    setup.eviction_model(perf.config.instance_type)?.clone()
                }
            };
            let t_load = if first_load_done {
                perf.t_load_reload
            } else {
                perf.t_load_first
            };
            // While a deployment is held, a switch to this candidate ships
            // only the rehomed micro-partitions; `effective_load` charges
            // this instead of `t_load` when the context carries a current
            // deployment.
            let t_load_delta = match held_idx {
                Some(h) if first_load_done => {
                    crate::job::delta_reload_fraction(&job.configs[h], perf) * perf.t_load_reload
                }
                _ => t_load,
            };
            Ok(Candidate {
                config: perf.config,
                t_exec: perf.t_exec,
                t_load,
                t_load_delta,
                t_save: perf.t_save,
                price_rate,
                eviction,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{PaperJob, ReloadMode};
    use hourglass_cloud::tracegen;
    use hourglass_core::strategies::{
        DeadlineProtected, EagerStrategy, HourglassStrategy, OnDemandStrategy,
    };

    struct Fixture {
        market: hourglass_cloud::Market,
        models: Vec<(InstanceType, DynEviction)>,
    }

    fn fixture(seed: u64) -> Fixture {
        let market = tracegen::simulation_market(seed).expect("market");
        let history = tracegen::history_market(seed).expect("market");
        let models = derive_eviction_models(&history, 24.0 * 3600.0, 500, 17).expect("models");
        Fixture { market, models }
    }

    #[test]
    fn on_demand_run_matches_baseline_shape() {
        let f = fixture(1);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::PageRank
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        let out = run_job(&setup, &job, &OnDemandStrategy, 0.0).expect("run");
        assert!(out.completed);
        assert!(!out.missed_deadline);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.deployments, 1);
        // Cost close to the baseline (the run additionally bills boot
        // time, the baseline does not).
        let baseline = job.on_demand_baseline_cost().expect("baseline");
        assert!(
            out.online_cost >= baseline && out.online_cost < baseline * 1.2,
            "online {} vs baseline {baseline}",
            out.online_cost
        );
    }

    #[test]
    fn hourglass_never_misses_across_starts() {
        let f = fixture(2);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::GraphColoring
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        let strategy = HourglassStrategy::new();
        let horizon = f.market.horizon();
        let mut starts = Vec::new();
        let mut s = 0.0;
        while s < horizon - 3.0 * job.deadline {
            starts.push(s);
            s += horizon / 24.0;
        }
        for &start in &starts {
            let out = run_job(&setup, &job, &strategy, start).expect("run");
            assert!(
                out.completed && !out.missed_deadline,
                "Hourglass missed at start {start}: finish {} vs deadline {}",
                out.finish_time,
                job.deadline
            );
        }
    }

    #[test]
    fn hourglass_cheaper_than_on_demand_on_average() {
        let f = fixture(3);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::GraphColoring
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        let hg = HourglassStrategy::new();
        let mut hg_total = 0.0;
        let mut od_total = 0.0;
        for i in 0..8 {
            let start = i as f64 * 2.0 * 86_400.0;
            hg_total += run_job(&setup, &job, &hg, start).expect("run").online_cost;
            od_total += run_job(&setup, &job, &OnDemandStrategy, start)
                .expect("run")
                .online_cost;
        }
        assert!(
            hg_total < 0.8 * od_total,
            "Hourglass {hg_total:.2} should significantly undercut on-demand {od_total:.2}"
        );
    }

    #[test]
    fn eager_misses_deadlines_sometimes() {
        let f = fixture(4);
        let setup = SimulationSetup::new(&f.market, &f.models);
        // Tight slack makes the eager strategy's obliviousness visible.
        let job = PaperJob::GraphColoring
            .description(20.0, ReloadMode::Fast)
            .expect("job");
        let mut missed = 0;
        let mut runs = 0;
        for i in 0..12 {
            let start = i as f64 * 2.0 * 86_400.0;
            if start >= f.market.horizon() - 3.0 * job.deadline {
                break;
            }
            let out = run_job(&setup, &job, &EagerStrategy, start).expect("run");
            runs += 1;
            if out.missed_deadline {
                missed += 1;
            }
        }
        assert!(runs > 5);
        assert!(
            missed > 0,
            "eager should miss at least one deadline out of {runs} tight runs"
        );
    }

    #[test]
    fn dp_wrapper_rescues_eager() {
        let f = fixture(5);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::GraphColoring
            .description(30.0, ReloadMode::Fast)
            .expect("job");
        let strategy = DeadlineProtected::new(EagerStrategy);
        for i in 0..10 {
            let start = i as f64 * 2.3 * 86_400.0;
            if start >= f.market.horizon() - 3.0 * job.deadline {
                break;
            }
            let out = run_job(&setup, &job, &strategy, start).expect("run");
            assert!(
                !out.missed_deadline,
                "SpotOn+DP missed at start {start}: finish {}",
                out.finish_time
            );
        }
    }

    #[test]
    fn rejects_bad_start() {
        let f = fixture(6);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::Sssp
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        assert!(run_job(&setup, &job, &OnDemandStrategy, -5.0).is_err());
        assert!(run_job(&setup, &job, &OnDemandStrategy, 1e12).is_err());
    }

    mod spike_wait {
        use super::*;
        use crate::events::VecSink;
        use crate::job::ConfigPerf;
        use hourglass_cloud::config::DeploymentConfig;
        use hourglass_cloud::PriceTrace;
        use hourglass_core::Decision;
        use std::sync::atomic::{AtomicUsize, Ordering};

        const STEP: f64 = 60.0;
        const POINTS: usize = 2000;
        /// First instant config B's market drops back below its bid.
        const B_RECOVERS: f64 = 20_040.0;

        /// Synthetic market: config A's type (r4.2xlarge) cheap throughout
        /// except an optional mid-trace spike; config B's type (r4.4xlarge)
        /// spiked until [`B_RECOVERS`]; everything else flat and cheap.
        fn market(a_spike: Option<(f64, f64)>) -> Market {
            let traces = InstanceType::ALL
                .iter()
                .map(|&ty| {
                    let prices: Vec<f64> = (0..POINTS)
                        .map(|i| {
                            let t = i as f64 * STEP;
                            match ty {
                                InstanceType::R44xlarge if t < B_RECOVERS => 10.0,
                                InstanceType::R44xlarge => 0.2,
                                InstanceType::R42xlarge => match a_spike {
                                    Some((from, to)) if t >= from && t < to => 1.0,
                                    _ => 0.1,
                                },
                                _ => 0.1,
                            }
                        })
                        .collect();
                    (ty, PriceTrace::new(STEP, prices).expect("trace"))
                })
                .collect();
            Market::new(traces).expect("market")
        }

        fn reliable_models() -> Vec<(InstanceType, DynEviction)> {
            InstanceType::ALL
                .iter()
                .map(|&ty| (ty, Arc::new(eviction::reliable()) as DynEviction))
                .collect()
        }

        fn perf(config: DeploymentConfig, t_exec: f64) -> ConfigPerf {
            ConfigPerf {
                config,
                t_exec,
                t_load_first: 100.0,
                t_load_reload: 100.0,
                t_save: 10.0,
            }
        }

        /// Configs: 0 = A (spot r4.2xlarge), 1 = B (spot r4.4xlarge),
        /// 2 = lrc (on-demand r4.8xlarge).
        fn job() -> JobDescription {
            JobDescription {
                name: "spike-wait".into(),
                deadline: 20_000.0,
                t_boot: 60.0,
                configs: vec![
                    perf(
                        DeploymentConfig::new(InstanceType::R42xlarge, 4, ResourceClass::Transient),
                        4000.0,
                    ),
                    perf(
                        DeploymentConfig::new(InstanceType::R44xlarge, 4, ResourceClass::Transient),
                        2000.0,
                    ),
                    perf(
                        DeploymentConfig::new(InstanceType::R48xlarge, 2, ResourceClass::OnDemand),
                        1000.0,
                    ),
                ],
                offline_cost: 0.0,
            }
        }

        /// Picks B on its `tempted_call`-th decision, A otherwise: one
        /// doomed attempt to switch into B's spiked market.
        struct TemptedByB {
            calls: AtomicUsize,
            tempted_call: usize,
        }

        impl Strategy for TemptedByB {
            fn name(&self) -> String {
                "tempted-by-b".into()
            }

            fn decide(&self, _ctx: &DecisionContext<'_>) -> hourglass_core::Result<Decision> {
                let n = self.calls.fetch_add(1, Ordering::SeqCst);
                Ok(Decision {
                    pick: if n == self.tempted_call { 1 } else { 0 },
                })
            }
        }

        /// The regression this guards: the runner used to drop the held
        /// deployment *before* the replacement's spot request was
        /// fulfilled, so re-picking the old configuration after a spike
        /// wait was treated as a fresh deployment and paid boot + reload
        /// again. With the fix the deployment is kept (idle, billed)
        /// through the wait and the re-pick continues it.
        #[test]
        fn repick_after_spike_wait_continues_held_deployment() {
            let market = market(None);
            let models = reliable_models();
            let mut setup = SimulationSetup::new(&market, &models);
            setup.checkpoint_interval_override = Some(500.0);
            let strategy = TemptedByB {
                calls: AtomicUsize::new(0),
                tempted_call: 1,
            };
            let mut sink = VecSink::new();
            let out = run_job_observed(&setup, &job(), &strategy, 0.0, 0, &mut sink).expect("run");

            // One acquisition, kept across the wait: no second boot+load.
            assert!(out.completed && !out.missed_deadline);
            assert_eq!(out.deployments, 1, "re-pick must not redeploy");
            assert_eq!(out.evictions, 0);
            // Timeline: setup [0,160), chunk to 670, one 300 s wait step
            // for B, then 7 more 510 s chunks on the continued deployment.
            // The old code re-deployed at 970 and finished 160 s later.
            assert!(
                (out.finish_time - 4540.0).abs() < 1.0,
                "finish {} should be 4540 (re-deploying would give 4700)",
                out.finish_time
            );

            let acquires: Vec<_> = sink
                .events
                .iter()
                .filter_map(|(_, e)| match e {
                    SimEvent::Acquire { t, first_load, .. } => Some((*t, *first_load)),
                    _ => None,
                })
                .collect();
            assert_eq!(acquires, vec![(0.0, true)]);
            let waits: Vec<_> = sink
                .events
                .iter()
                .filter_map(|(_, e)| match e {
                    SimEvent::SpikeWait { t, pick, held, .. } => Some((*t, *pick, *held)),
                    _ => None,
                })
                .collect();
            assert_eq!(waits, vec![(670.0, 1, Some(0))]);
            // The decision right after the wait continues the held config.
            let post_wait_decide = sink
                .events
                .iter()
                .find_map(|(_, e)| match e {
                    SimEvent::Decide {
                        t, continuation, ..
                    } if *t > 670.0 => Some(*continuation),
                    _ => None,
                })
                .expect("decision after the wait");
            assert!(post_wait_decide, "re-pick must continue, not redeploy");
            // The wait interval itself is billed: the held machines sit
            // idle but allocated over [670, 970).
            assert!(sink.events.iter().any(|(_, e)| matches!(
                e,
                SimEvent::Bill { t, to, .. } if *t == 670.0 && *to == 970.0
            )));
        }

        /// The held deployment is *not* immortal during a wait: if its own
        /// market crosses the bid while idle, it is evicted (billed to the
        /// eviction instant) and the post-wait re-pick redeploys afresh.
        #[test]
        fn held_deployment_can_be_evicted_during_wait() {
            // A spikes over [720, 1200): inside the wait window [670, 970).
            let market = market(Some((720.0, 1200.0)));
            let models = reliable_models();
            let mut setup = SimulationSetup::new(&market, &models);
            setup.checkpoint_interval_override = Some(500.0);
            let strategy = TemptedByB {
                calls: AtomicUsize::new(0),
                tempted_call: 1,
            };
            let mut sink = VecSink::new();
            let out = run_job_observed(&setup, &job(), &strategy, 0.0, 0, &mut sink).expect("run");

            assert!(out.completed && !out.missed_deadline);
            assert_eq!(out.evictions, 1, "idle eviction must be counted");
            assert_eq!(out.deployments, 2, "post-wait re-pick must redeploy");
            let wait_evicts: Vec<_> = sink
                .events
                .iter()
                .filter_map(|(_, e)| match e {
                    SimEvent::Evict { t, pick, phase, .. } if *phase == Phase::Wait => {
                        Some((*t, *pick))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(wait_evicts, vec![(720.0, 0)]);
            // Billed only up to the idle eviction, not the full wait.
            assert!(sink.events.iter().any(|(_, e)| matches!(
                e,
                SimEvent::Bill { t, to, .. } if *t == 670.0 && *to == 720.0
            )));
        }

        /// With a lifetime-cap ground truth, a deployment whose market
        /// never crosses its bid is still revoked — exactly at the cap.
        #[test]
        fn lifetime_cap_ground_truth_evicts_at_cap() {
            let market = market(None);
            let models = reliable_models();
            let mut setup = SimulationSetup::new(&market, &models)
                .with_lifetime(LifetimeGroundTruth::Cap { seconds: 1000.0 });
            setup.checkpoint_interval_override = Some(500.0);
            let strategy = TemptedByB {
                calls: AtomicUsize::new(0),
                tempted_call: usize::MAX,
            };
            let mut sink = VecSink::new();
            let out = run_job_observed(&setup, &job(), &strategy, 0.0, 0, &mut sink).expect("run");
            assert!(out.completed);
            assert!(out.evictions >= 1, "cap must revoke the deployment");
            assert!(out.deployments >= 2, "revocation must force a redeploy");
            let first_evict = sink
                .events
                .iter()
                .find_map(|(_, e)| match e {
                    SimEvent::Evict { t, .. } => Some(*t),
                    _ => None,
                })
                .expect("evict event");
            assert!(
                (first_evict - 1000.0).abs() < 1e-9,
                "first revocation at {first_evict}, expected the 1000 s cap"
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic_and_report_degradations() {
        use crate::events::VecSink;
        let f = fixture(8);
        let setup =
            SimulationSetup::new(&f.market, &f.models).with_fault_plan(FaultPlan::io_flaky(1234));
        let job = PaperJob::GraphColoring
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        let strategy = HourglassStrategy::new();

        let mut degraded_total = 0usize;
        for i in 0..6 {
            let start = i as f64 * 2.0 * 86_400.0;
            let run_once = || {
                let mut sink = VecSink::new();
                let out = run_job_observed(&setup, &job, &strategy, start, i, &mut sink)
                    .expect("faulted run");
                (out, sink.events)
            };
            let (a, ea) = run_once();
            let (b, eb) = run_once();
            // Same seed + same plan → bit-identical outcome and stream.
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
            assert_eq!(ea, eb);
            // ≤10% transient I/O must never cost Hourglass its deadline.
            assert!(a.completed && !a.missed_deadline, "missed at start {start}");
            degraded_total += ea
                .iter()
                .filter(|(_, e)| matches!(e, SimEvent::Degraded { .. }))
                .count();
        }
        assert!(
            degraded_total > 0,
            "io-flaky plan should degrade at least one operation across 6 runs"
        );
    }

    #[test]
    fn torn_checkpoint_write_is_a_mid_save_eviction() {
        use crate::events::VecSink;
        let f = fixture(9);
        let plain = SimulationSetup::new(&f.market, &f.models);
        let torn =
            SimulationSetup::new(&f.market, &f.models).with_fault_plan(FaultPlan::torn_writes(7));
        let job = PaperJob::GraphColoring
            .description(50.0, ReloadMode::Fast)
            .expect("job");
        let strategy = HourglassStrategy::new();

        let mut saw_torn_eviction = false;
        for i in 0..6 {
            let start = i as f64 * 2.0 * 86_400.0;
            let base = run_job(&plain, &job, &strategy, start).expect("plain run");
            let mut sink = VecSink::new();
            let out =
                run_job_observed(&torn, &job, &strategy, start, i, &mut sink).expect("torn run");
            assert!(out.completed, "torn writes must not wedge the run");
            // Every torn checkpoint is surfaced as a fallback degradation
            // immediately followed by a compute-phase eviction.
            let events = &sink.events;
            for (i, (_, e)) in events.iter().enumerate() {
                if let SimEvent::Degraded {
                    fallback: true,
                    wasted_seconds,
                    ..
                } = e
                {
                    if matches!(
                        events.get(i + 1),
                        Some((
                            _,
                            SimEvent::Evict {
                                phase: Phase::Compute,
                                ..
                            }
                        ))
                    ) {
                        saw_torn_eviction = true;
                        assert!(*wasted_seconds > 0.0);
                    }
                }
            }
            // The faulted run can only do worse or equal on evictions.
            assert!(out.evictions >= base.evictions);
        }
        assert!(
            saw_torn_eviction,
            "every-7th-put torn writes should hit at least one checkpoint"
        );
    }

    #[test]
    fn costs_are_positive_and_ledger_consistent() {
        let f = fixture(7);
        let setup = SimulationSetup::new(&f.market, &f.models);
        let job = PaperJob::PageRank
            .description(80.0, ReloadMode::Fast)
            .expect("job");
        let out = run_job(&setup, &job, &HourglassStrategy::new(), 86_400.0).expect("run");
        assert!(out.online_cost > 0.0);
        assert!(out.cost >= out.online_cost);
        assert!(out.finish_time > 0.0);
    }
}
