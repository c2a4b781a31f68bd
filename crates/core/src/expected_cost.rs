//! Expected cost of finishing a job: `EC(t, w)` (§5.2) and its fast
//! approximation (§5.3).
//!
//! The exact formulation computes, for every transient candidate, the
//! integral of follow-up costs over all possible eviction instants — with
//! every follow-up itself a fresh minimization over all candidates. The
//! paper shows (Figure 9) this is intractable online for realistic slacks;
//! Hourglass instead approximates it with two simplifications:
//!
//! 1. *success* follow-ups recurse only on the **same** configuration
//!    (empirically, reconfigurations not caused by evictions are rare);
//! 2. *failure* follow-ups are evaluated only at the configuration's MTTF
//!    instead of at every instant of the compute interval.
//!
//! Both estimators share the cost conventions of §5.2: on-demand
//! candidates cost `cost_c · (w · t_exec^c + t_save^c)`; machines are also
//! billed for their setup time (boot + load), which the simulator bills in
//! reality as well; infeasible candidates cost `∞`.

use crate::model::{Candidate, CurrentDeployment, DecisionContext};
use crate::{CoreError, Result};
use std::time::{Duration, Instant};

/// Tuning of the fast approximation.
#[derive(Debug, Clone, Copy)]
pub struct EcParams {
    /// Memoization granularity on the time axis (seconds).
    pub time_bucket: f64,
    /// Memoization granularity on the work axis (fraction).
    pub work_bucket: f64,
    /// Failure look-ahead depth: how many nested evictions are modeled
    /// with a full re-decision before the follow-up collapses to the
    /// last-resort cost. Success chains (same-configuration continuations,
    /// §5.3) are never depth-limited.
    pub max_depth: usize,
}

impl Default for EcParams {
    fn default() -> Self {
        EcParams {
            time_bucket: 60.0,
            work_bucket: 0.01,
            max_depth: 2,
        }
    }
}

/// Result of an EC evaluation: the best candidate (if any candidate is
/// feasible) and the associated expected cost in dollars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcEstimate {
    /// Index of the minimizing candidate.
    pub best: Option<usize>,
    /// `EC(t, w)` in dollars (`f64::INFINITY` when nothing is feasible).
    pub cost: f64,
}

const EPS_WORK: f64 = 1e-9;

/// The key spaces of the memo. They are distinct values of one field, so
/// an extreme uptime or time bucket can never collide with another space
/// (an early packed-tuple encoding reused `u32::MAX`/`u32::MAX − 1` as
/// sentinels, which a large enough bucketed uptime could alias).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum KeySpace {
    /// `EC(t, w)`: the all-candidates minimum.
    #[default]
    All,
    /// `EC(t, w)|c` for a fresh deployment of `cand` with nothing held
    /// (job start or eviction recovery): the full `t_load` is paid.
    FreshEvicted,
    /// `EC(t, w)|c` for a switch to `cand` away from a still-held
    /// deployment, priced at `t_load_delta`. The same `(t, w)` state
    /// reached through an eviction pays the full `t_load` — were the two
    /// one space, the root minimization (delta pricing) and the
    /// failure-branch recursion (full-reload pricing) would share a row.
    FreshHeld,
    /// `EC(t, w)|c` continuing `cand` at a bucketed uptime.
    Continuation,
}

/// Memoization key of the approximation: every field is compared in full,
/// none is folded into another. The failure-look-ahead `depth` is part of
/// it because values computed near the depth limit collapse their
/// follow-ups to the last-resort cost: a row written at depth `d` is
/// pessimistic relative to the same `(t, w)` state at depth `d − 1` and
/// must never be served to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MemoKey {
    /// Bucketed `now`.
    t: u64,
    /// Bucketed `work_left`.
    w: u64,
    /// Bucketed deployment uptime (`Continuation` only, else 0).
    uptime: u64,
    /// Candidate index (0 for `All`).
    cand: usize,
    /// Failure-look-ahead depth the value was computed at.
    depth: u32,
    space: KeySpace,
}

impl MemoKey {
    /// One Fx-style multiply-xor pass over the key's five words. The
    /// table indexes by the *high* bits, where the multiplications have
    /// pushed every word's entropy.
    #[inline]
    fn hash(&self) -> u64 {
        const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;
        let words = [
            self.t,
            self.w,
            self.uptime,
            self.cand as u64,
            u64::from(self.depth) << 8 | self.space as u64,
        ];
        words.iter().fold(0u64, |h, &word| {
            (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
        })
    }
}

/// Buckets a validated non-negative finite quantity. `validate` rejects
/// negative and non-finite inputs, so the saturating float→int cast can
/// only ever clamp astronomically large (but well-defined) values to
/// `u64::MAX` — never fold distinct states onto bucket 0.
#[inline]
fn bucket(v: f64, size: f64) -> u64 {
    (v / size) as u64
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: MemoKey,
    value: f64,
    /// The slot is live iff this equals the table's stamp (never 0, which
    /// is what a vacant slot starts with).
    stamp: u32,
}

/// Flat open-addressing (linear probing) table with a generation stamp:
/// the recursion misses on ≈ 99.7% of its look-ups and then inserts, so
/// what counts is one hash per look-up (shared by the `get` and the
/// `insert` that follows it), a miss that reads one slot, and a reset that
/// does not touch the slots.
#[derive(Debug)]
struct MemoTable {
    /// Power-of-two length, at most half of it live.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: a hash's high bits are its home slot.
    shift: u32,
    stamp: u32,
    live: usize,
}

impl MemoTable {
    const MIN_SLOTS: usize = 64;

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        MemoTable {
            slots: vec![Slot::default(); slots],
            shift: 64 - slots.trailing_zeros(),
            stamp: 1,
            live: 0,
        }
    }

    /// Forgets every entry in O(1); the slots are rewritten only when the
    /// stamp wraps (once per 2³² decisions).
    fn reset(&mut self) {
        self.live = 0;
        if self.stamp == u32::MAX {
            self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    #[inline]
    fn get(&self, hash: u64, key: &MemoKey) -> Option<f64> {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            let slot = &self.slots[at];
            if slot.stamp != self.stamp {
                return None;
            }
            if slot.key == *key {
                return Some(slot.value);
            }
            at = (at + 1) & mask;
        }
    }

    /// Writes `value` under `key`, replacing the value of a live row with
    /// the same key (`HashMap::insert` semantics: a success chain short
    /// enough to stay inside one bucket writes its row twice, and the
    /// outer — last — value is the one later look-ups are served).
    #[inline]
    fn insert(&mut self, hash: u64, key: MemoKey, value: f64) {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[at];
            if slot.stamp != self.stamp {
                *slot = Slot {
                    key,
                    value,
                    stamp: self.stamp,
                };
                self.live += 1;
                if self.live * 2 > self.slots.len() {
                    self.grow();
                }
                return;
            }
            if slot.key == key {
                slot.value = value;
                return;
            }
            at = (at + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let mut grown = MemoTable::with_slots(self.slots.len() * 2);
        grown.stamp = self.stamp;
        for slot in self.slots.iter().filter(|slot| slot.stamp == self.stamp) {
            grown.insert(slot.key.hash(), slot.key, slot.value);
        }
        *self = grown;
    }
}

/// What the recursion reads of one candidate, copied out once per
/// decision so a node touches one 64-byte row instead of the `Candidate`,
/// its `Arc<dyn EvictionProcess>` (`mttf`) and a `sqrt` (Daly).
#[derive(Debug, Clone, Copy)]
struct CandidateRow {
    transient: bool,
    t_exec: f64,
    t_load: f64,
    t_load_delta: f64,
    t_save: f64,
    /// `price_rate / 3600`: dollars per second.
    rate: f64,
    /// `Candidate::checkpoint_interval()`.
    t_ckpt: f64,
    mttf: f64,
}

/// The last-resort configuration of one decision.
#[derive(Debug, Clone, Copy)]
struct LastResort {
    index: usize,
    /// `Candidate::t_fixed(t_boot)`.
    t_fixed: f64,
    t_exec: f64,
}

/// Reusable memoization arena for the §5.3 approximation.
///
/// Memoized values are only meaningful for a single decision (candidate
/// prices and eviction models change between decisions), so every
/// [`expected_cost_approx_in`] call forgets them — by bumping a generation
/// stamp, which leaves the table's allocation and its slots untouched. The
/// arena also owns the buffer of the per-decision candidate table, so a
/// memo carried across the decisions of one simulated run allocates
/// nothing once it has grown to the largest decision it has seen.
#[derive(Debug)]
pub struct EcMemo {
    table: MemoTable,
    rows: Vec<CandidateRow>,
}

impl Default for EcMemo {
    fn default() -> Self {
        EcMemo {
            table: MemoTable::with_slots(MemoTable::MIN_SLOTS),
            rows: Vec::new(),
        }
    }
}

impl EcMemo {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized entries (after a call: the states explored by
    /// the last decision).
    pub fn len(&self) -> usize {
        self.table.live
    }

    /// True when no entries are memoized.
    pub fn is_empty(&self) -> bool {
        self.table.live == 0
    }
}

/// Computes `EC(t, w)` with the §5.3 approximation; returns the minimizing
/// candidate. Runs in milliseconds for realistic problem sizes (Figure 9).
///
/// Allocates a fresh memo table per call; decision loops should hold an
/// [`EcMemo`] and call [`expected_cost_approx_in`] instead.
pub fn expected_cost_approx(ctx: &DecisionContext<'_>, params: &EcParams) -> Result<EcEstimate> {
    let mut memo = EcMemo::new();
    expected_cost_approx_in(ctx, params, &mut memo)
}

/// [`expected_cost_approx`] evaluated in a caller-provided memo arena.
///
/// The arena's entries are forgotten on entry (memoized values never
/// survive a change of candidate prices) but it keeps its allocations,
/// which is what makes a per-run arena measurably faster than a fresh one
/// per decision.
pub fn expected_cost_approx_in(
    ctx: &DecisionContext<'_>,
    params: &EcParams,
    memo: &mut EcMemo,
) -> Result<EcEstimate> {
    validate(ctx, params.time_bucket)?;
    memo.table.reset();
    let (mut eval, state) = Evaluator::prepare(ctx, params, memo);
    let mut best = EcEstimate {
        best: None,
        cost: f64::INFINITY,
    };
    for i in 0..ctx.candidates.len() {
        let cost = eval.cost_of(state, i, 0, None);
        if cost < best.cost {
            best = EcEstimate {
                best: Some(i),
                cost,
            };
        }
    }
    Ok(best)
}

/// `EC(t, w)|c` for one candidate under the §5.3 approximation (exposed
/// for decision explanation and custom strategies).
pub fn expected_cost_of_candidate(
    ctx: &DecisionContext<'_>,
    i: usize,
    params: &EcParams,
) -> Result<f64> {
    validate(ctx, params.time_bucket)?;
    if i >= ctx.candidates.len() {
        return Err(CoreError::InvalidParameter(format!(
            "candidate index {i} out of range ({} candidates)",
            ctx.candidates.len()
        )));
    }
    let mut memo = EcMemo::new();
    Ok(approx_cost_of(ctx, i, params, &mut memo, 0))
}

/// `EC(t, w)|c` under the approximation, at failure-look-ahead `depth`,
/// in a memo that is *not* reset: rows written by earlier calls for the
/// same candidate set are served.
fn approx_cost_of(
    ctx: &DecisionContext<'_>,
    i: usize,
    params: &EcParams,
    memo: &mut EcMemo,
    depth: u32,
) -> f64 {
    let (mut eval, state) = Evaluator::prepare(ctx, params, memo);
    eval.cost_of(state, i, depth, None)
}

/// The part of a [`DecisionContext`] the recursion changes from node to
/// node; everything else sits in the [`Evaluator`].
#[derive(Debug, Clone, Copy)]
struct State {
    now: f64,
    work_left: f64,
    current: Option<CurrentDeployment>,
}

impl State {
    /// Uptime of the held deployment if it is candidate `i` — selecting
    /// `i` is then a continuation (`DecisionContext::is_continuation`).
    #[inline]
    fn continued_uptime(&self, i: usize) -> Option<f64> {
        match self.current {
            Some(cur) if cur.index == i => Some(cur.uptime),
            _ => None,
        }
    }
}

/// The §5.3 recursion over one decision's prepared table.
///
/// **Bit-identity rule.** `slack`, `useful`, `setup` (`t_boot +
/// effective_load`) and `on_demand_feasible` below repeat the
/// floating-point operations of `DecisionContext::{slack, useful,
/// effective_load, on_demand_feasible}` in `model.rs`, in the same
/// order, on the same values, so every estimate equals — bit for bit —
/// what the recursion written against those methods returns (the test
/// module keeps that one as the oracle). Change both or neither.
struct Evaluator<'a> {
    candidates: &'a [Candidate],
    rows: &'a [CandidateRow],
    table: &'a mut MemoTable,
    deadline: f64,
    t_boot: f64,
    /// `None` when the candidate set holds no on-demand configuration.
    lrc: Option<LastResort>,
    time_bucket: f64,
    work_bucket: f64,
    max_depth: u32,
}

impl<'a> Evaluator<'a> {
    /// Builds the decision's table in `memo`'s buffer and splits `ctx`
    /// into the evaluator's constants and the root state.
    fn prepare(
        ctx: &DecisionContext<'a>,
        params: &EcParams,
        memo: &'a mut EcMemo,
    ) -> (Self, State) {
        let EcMemo { table, rows } = memo;
        rows.clear();
        rows.extend(ctx.candidates.iter().map(|c| CandidateRow {
            transient: c.is_transient(),
            t_exec: c.t_exec,
            t_load: c.t_load,
            t_load_delta: c.t_load_delta,
            t_save: c.t_save,
            rate: c.price_rate / 3600.0,
            t_ckpt: c.checkpoint_interval(),
            mttf: c.eviction.mttf(),
        }));
        let lrc = ctx.lrc_index().ok().map(|index| {
            let c = &ctx.candidates[index];
            LastResort {
                index,
                t_fixed: c.t_fixed(ctx.t_boot),
                t_exec: c.t_exec,
            }
        });
        let eval = Evaluator {
            candidates: ctx.candidates,
            rows,
            table,
            deadline: ctx.deadline,
            t_boot: ctx.t_boot,
            lrc,
            time_bucket: params.time_bucket,
            work_bucket: params.work_bucket,
            // A look-ahead 2³² evictions deep cannot be reached, so the
            // clamp changes no result; it lets the key hold the depth in
            // 32 bits without aliasing.
            max_depth: u32::try_from(params.max_depth).unwrap_or(u32::MAX),
        };
        let state = State {
            now: ctx.now,
            work_left: ctx.work_left,
            current: ctx.current,
        };
        (eval, state)
    }

    /// Boot plus `DecisionContext::effective_load` charged for deploying
    /// `i`: nothing for a continuation, the delta reload while another
    /// deployment is still held, the full load otherwise.
    #[inline]
    fn setup(&self, s: &State, i: usize) -> f64 {
        if s.continued_uptime(i).is_some() {
            0.0
        } else if s.current.is_some() {
            self.t_boot + self.rows[i].t_load_delta
        } else {
            self.t_boot + self.rows[i].t_load
        }
    }

    /// `DecisionContext::slack`; `None` without a last resort.
    #[inline]
    fn slack(&self, s: &State) -> Option<f64> {
        let lrc = self.lrc?;
        Some(self.deadline - s.now - lrc.t_fixed - s.work_left * lrc.t_exec)
    }

    /// `DecisionContext::useful`.
    #[inline]
    fn useful(&self, s: &State, i: usize) -> Option<f64> {
        let row = &self.rows[i];
        let burn = if s.continued_uptime(i).is_some() {
            row.t_save
        } else {
            self.setup(s, i) + row.t_save
        };
        let slack = self.slack(s)?;
        Some((s.work_left * row.t_exec).min(slack - burn).min(row.t_ckpt))
    }

    /// `DecisionContext::on_demand_feasible`.
    #[inline]
    fn on_demand_feasible(&self, s: &State, i: usize) -> bool {
        let row = &self.rows[i];
        s.now + self.setup(s, i) + s.work_left * row.t_exec + row.t_save <= self.deadline
    }

    /// Cost of running the rest of the job on on-demand candidate `i`
    /// (third branch of EC), `∞` if that misses the deadline.
    #[inline]
    fn on_demand_cost(&self, s: &State, i: usize) -> f64 {
        if self.on_demand_feasible(s, i) {
            let row = &self.rows[i];
            row.rate * (s.work_left * row.t_exec + row.t_save)
        } else {
            f64::INFINITY
        }
    }

    /// Cost of finishing on the last-resort configuration, or `∞` if even
    /// that fails the deadline.
    fn lrc_cost(&self, s: &State) -> f64 {
        if s.work_left <= EPS_WORK {
            return 0.0;
        }
        match self.lrc {
            Some(lrc) => self.on_demand_cost(s, lrc.index),
            None => f64::INFINITY,
        }
    }

    /// `EC(t, w)` over all candidates with full re-decision, used for the
    /// failure follow-ups.
    fn ec_all(&mut self, s: State, depth: u32) -> f64 {
        if s.work_left <= EPS_WORK {
            return 0.0;
        }
        if depth >= self.max_depth {
            return self.lrc_cost(&s);
        }
        let key = MemoKey {
            t: bucket(s.now, self.time_bucket),
            w: bucket(s.work_left, self.work_bucket),
            uptime: 0,
            cand: 0,
            depth,
            space: KeySpace::All,
        };
        let hash = key.hash();
        if let Some(c) = self.table.get(hash, &key) {
            return c;
        }
        let mut best = f64::INFINITY;
        for i in 0..self.rows.len() {
            let c = self.cost_of(s, i, depth, None);
            if c < best {
                best = c;
            }
        }
        // The row cannot have been entered while it was computed: `cost_of`
        // reaches `ec_all` only through a failure branch, which is one
        // level deeper, and `depth` is part of the key. (So nothing could
        // ever read a placeholder written before the loop, and none is.)
        debug_assert!(self.table.get(hash, &key).is_none());
        self.table.insert(hash, key, best);
        best
    }

    /// `EC(t, w)|c`, memoized. `f_uptime` is `F(uptime)` of the deployment
    /// `s` holds, when the caller has just computed it and `i` continues
    /// that deployment.
    fn cost_of(&mut self, s: State, i: usize, depth: u32, f_uptime: Option<f64>) -> f64 {
        if s.work_left <= EPS_WORK {
            return 0.0;
        }
        if depth >= self.max_depth {
            return self.lrc_cost(&s);
        }
        let (space, uptime) = match s.continued_uptime(i) {
            Some(uptime) => (KeySpace::Continuation, bucket(uptime, self.time_bucket)),
            None if s.current.is_some() => (KeySpace::FreshHeld, 0),
            None => (KeySpace::FreshEvicted, 0),
        };
        let key = MemoKey {
            t: bucket(s.now, self.time_bucket),
            w: bucket(s.work_left, self.work_bucket),
            uptime,
            cand: i,
            depth,
            space,
        };
        let hash = key.hash();
        if let Some(cached) = self.table.get(hash, &key) {
            return cached;
        }
        let result = if self.rows[i].transient {
            self.transient_cost(s, i, depth, f_uptime)
        } else {
            self.on_demand_cost(&s, i)
        };
        self.table.insert(hash, key, result);
        result
    }

    /// Fourth branch of EC: one checkpointed interval on transient
    /// candidate `i`, then the success and failure follow-ups.
    fn transient_cost(&mut self, s: State, i: usize, depth: u32, f_uptime: Option<f64>) -> f64 {
        let row = &self.rows[i];
        let Some(useful) = self.useful(&s, i) else {
            return f64::INFINITY;
        };
        if useful <= 0.0 {
            // Second branch: selecting c would compromise the deadline.
            return f64::INFINITY;
        }
        // `setup` prices a switch away from a still-held deployment as a
        // delta migration (`t_load_delta`) instead of a full reload.
        let setup = self.setup(&s, i);
        let t_int = useful + row.t_save;
        let wall = setup + t_int;
        let u0 = s.continued_uptime(i).unwrap_or(0.0);
        let eviction = &self.candidates[i].eviction;
        let f0 = f_uptime.unwrap_or_else(|| eviction.cdf(u0));
        let f1 = eviction.cdf(u0 + wall);
        let p_fail = if f0 >= 1.0 {
            1.0
        } else {
            ((f1 - f0) / (1.0 - f0)).clamp(0.0, 1.0)
        };
        let progress = useful / row.t_exec;

        // Success: checkpoint lands; §5.3 keeps the same configuration.
        let mut total = 0.0;
        if p_fail < 1.0 {
            let next = State {
                now: s.now + wall,
                work_left: (s.work_left - progress).max(0.0),
                current: Some(CurrentDeployment {
                    index: i,
                    uptime: u0 + wall,
                }),
            };
            // Success chains do not consume failure-look-ahead depth. The
            // next step conditions on `F(u0 + wall)`: the value in hand.
            let mut follow = self.cost_of(next, i, depth, Some(f1));
            if !follow.is_finite() {
                // The same configuration is no longer selectable (slack or
                // work exhausted): finish on the last-resort configuration.
                follow = self.lrc_cost(&next);
            }
            if !follow.is_finite() {
                return f64::INFINITY;
            }
            total += (1.0 - p_fail) * (row.rate * wall + follow);
        }

        // Failure: evaluated at the MTTF only (§5.3); all progress since the
        // last checkpoint is lost, and the follow-up re-decides over all
        // candidates.
        if p_fail > 0.0 {
            let x = (row.mttf - u0).clamp(1.0, wall);
            let next = State {
                now: s.now + x,
                work_left: s.work_left,
                current: None,
            };
            let follow = if depth + 1 >= self.max_depth {
                self.lrc_cost(&next)
            } else {
                self.ec_all(next, depth + 1)
            };
            if !follow.is_finite() {
                return f64::INFINITY;
            }
            total += p_fail * (row.rate * x + follow);
        }
        total
    }
}

/// Exact `EC(t, w)` (§5.2): the failure follow-up is integrated over every
/// possible eviction instant with time step `dx`, and *every* follow-up —
/// success included — re-minimizes over all candidates.
///
/// `budget` bounds wall-clock time; the paper could not obtain a single
/// decision within an hour for long jobs, and neither can we — callers get
/// [`CoreError::Infeasible`] on timeout (reported as DNF in Figure 9).
pub fn expected_cost_exact(
    ctx: &DecisionContext<'_>,
    dx: f64,
    budget: Option<Duration>,
) -> Result<EcEstimate> {
    validate(ctx, dx)?;
    let deadline = budget.map(|b| Instant::now() + b);
    let mut best = EcEstimate {
        best: None,
        cost: f64::INFINITY,
    };
    for i in 0..ctx.candidates.len() {
        let cost = exact_cost_of(ctx, i, dx, &deadline)?;
        if cost < best.cost {
            best = EcEstimate {
                best: Some(i),
                cost,
            };
        }
    }
    Ok(best)
}

fn exact_ec_all(ctx: &DecisionContext<'_>, dx: f64, deadline: &Option<Instant>) -> Result<f64> {
    if ctx.work_left <= EPS_WORK {
        return Ok(0.0);
    }
    check_budget(deadline)?;
    let mut best = f64::INFINITY;
    for i in 0..ctx.candidates.len() {
        let c = exact_cost_of(ctx, i, dx, deadline)?;
        if c < best {
            best = c;
        }
    }
    Ok(best)
}

fn exact_cost_of(
    ctx: &DecisionContext<'_>,
    i: usize,
    dx: f64,
    deadline: &Option<Instant>,
) -> Result<f64> {
    if ctx.work_left <= EPS_WORK {
        return Ok(0.0);
    }
    check_budget(deadline)?;
    let c = &ctx.candidates[i];
    if !c.is_transient() {
        return Ok(if ctx.on_demand_feasible(i) {
            c.price_rate / 3600.0 * (ctx.work_left * c.t_exec + c.t_save)
        } else {
            f64::INFINITY
        });
    }
    let useful = match ctx.useful(i) {
        Ok(u) => u,
        Err(_) => return Ok(f64::INFINITY),
    };
    if useful <= 0.0 {
        return Ok(f64::INFINITY);
    }
    let continuation = ctx.is_continuation(i);
    // Same delta-aware setup as the approximation: a voluntary switch from
    // a held deployment ships only the moved micro-partitions.
    let setup = if continuation {
        0.0
    } else {
        ctx.t_boot + ctx.effective_load(i)
    };
    let t_int = useful + c.t_save;
    let wall = setup + t_int;
    let u0 = if continuation {
        ctx.current.map(|cur| cur.uptime).unwrap_or(0.0)
    } else {
        0.0
    };
    let f0 = c.eviction.cdf(u0);
    if f0 >= 1.0 {
        return Ok(f64::INFINITY);
    }
    let rate = c.price_rate / 3600.0;
    let progress = useful / c.t_exec;

    let mut total = 0.0;
    // Failure integral: eviction at each instant x of the wall interval.
    let mut x = dx.min(wall);
    loop {
        let p =
            (c.eviction.cdf(u0 + x) - c.eviction.cdf(u0 + (x - dx).max(0.0))).max(0.0) / (1.0 - f0);
        if p > 0.0 {
            let next = ctx.at(ctx.now + x, ctx.work_left, None);
            let follow = exact_ec_all(&next, dx, deadline)?;
            if !follow.is_finite() {
                return Ok(f64::INFINITY);
            }
            total += p * (rate * x + follow);
        }
        if x >= wall {
            break;
        }
        x = (x + dx).min(wall);
    }
    // Success branch: full re-decision (exact formulation).
    let p_fail = ((c.eviction.cdf(u0 + wall) - f0) / (1.0 - f0)).clamp(0.0, 1.0);
    if p_fail < 1.0 {
        let next = ctx.at(
            ctx.now + wall,
            (ctx.work_left - progress).max(0.0),
            Some(CurrentDeployment {
                index: i,
                uptime: u0 + wall,
            }),
        );
        let follow = exact_ec_all(&next, dx, deadline)?;
        if !follow.is_finite() {
            return Ok(f64::INFINITY);
        }
        total += (1.0 - p_fail) * (rate * wall + follow);
    }
    Ok(total)
}

fn check_budget(deadline: &Option<Instant>) -> Result<()> {
    if let Some(d) = deadline {
        if Instant::now() > *d {
            return Err(CoreError::Infeasible(
                "exact EC computation exceeded its time budget".into(),
            ));
        }
    }
    Ok(())
}

fn validate(ctx: &DecisionContext<'_>, step: f64) -> Result<()> {
    if ctx.candidates.is_empty() {
        return Err(CoreError::InvalidParameter("no candidates".into()));
    }
    if step.is_nan() || step <= 0.0 {
        return Err(CoreError::InvalidParameter(format!(
            "time step must be positive, got {step}"
        )));
    }
    if !(0.0..=1.0 + 1e-9).contains(&ctx.work_left) {
        return Err(CoreError::InvalidParameter(format!(
            "work_left must be in [0,1], got {}",
            ctx.work_left
        )));
    }
    // The memo buckets states with a saturating float→int cast, which is
    // only injective-enough for finite non-negative inputs: a negative
    // `now` would silently alias bucket 0 (the old packed-tuple bug).
    // Reject everything outside the modeled domain instead.
    if !ctx.now.is_finite() || ctx.now < 0.0 {
        return Err(CoreError::InvalidParameter(format!(
            "now must be finite and non-negative, got {}",
            ctx.now
        )));
    }
    if !ctx.deadline.is_finite() {
        return Err(CoreError::InvalidParameter(format!(
            "deadline must be finite, got {}",
            ctx.deadline
        )));
    }
    if !ctx.t_boot.is_finite() || ctx.t_boot < 0.0 {
        return Err(CoreError::InvalidParameter(format!(
            "t_boot must be finite and non-negative, got {}",
            ctx.t_boot
        )));
    }
    if let Some(cur) = ctx.current {
        if !cur.uptime.is_finite() || cur.uptime < 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "current uptime must be finite and non-negative, got {}",
                cur.uptime
            )));
        }
        if cur.index >= ctx.candidates.len() {
            return Err(CoreError::InvalidParameter(format!(
                "current deployment index {} out of range ({} candidates)",
                cur.index,
                ctx.candidates.len()
            )));
        }
    }
    Ok(())
}

/// The §5.3 recursion as first written: against the `DecisionContext`
/// methods, one context clone per node, a `HashMap` memo. Kept as the
/// oracle the table-driven [`Evaluator`] must equal bit for bit.
#[cfg(test)]
mod reference {
    use super::{bucket, EcEstimate, EcParams, EPS_WORK};
    use crate::model::{CurrentDeployment, DecisionContext};
    use std::collections::HashMap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub(super) enum MemoKey {
        All {
            t: u64,
            w: u64,
            depth: usize,
        },
        Fresh {
            cand: usize,
            t: u64,
            w: u64,
            depth: usize,
            delta: bool,
        },
        Continuation {
            cand: usize,
            uptime: u64,
            t: u64,
            w: u64,
            depth: usize,
        },
    }

    pub(super) type Memo = HashMap<MemoKey, f64>;

    /// `expected_cost_approx_in` without the validation.
    pub(super) fn expected_cost(
        ctx: &DecisionContext<'_>,
        params: &EcParams,
        memo: &mut Memo,
    ) -> EcEstimate {
        memo.clear();
        let mut best = EcEstimate {
            best: None,
            cost: f64::INFINITY,
        };
        for i in 0..ctx.candidates.len() {
            let cost = approx_cost_of(ctx, i, params, memo, 0);
            if cost < best.cost {
                best = EcEstimate {
                    best: Some(i),
                    cost,
                };
            }
        }
        best
    }

    fn approx_ec_all(
        ctx: &DecisionContext<'_>,
        params: &EcParams,
        memo: &mut Memo,
        depth: usize,
    ) -> f64 {
        if ctx.work_left <= EPS_WORK {
            return 0.0;
        }
        if depth >= params.max_depth {
            return lrc_cost(ctx);
        }
        let key = MemoKey::All {
            t: bucket(ctx.now, params.time_bucket),
            w: bucket(ctx.work_left, params.work_bucket),
            depth,
        };
        if let Some(&c) = memo.get(&key) {
            return c;
        }
        // Seed with the lrc cost to keep recursion bounded even while the memo
        // entry is being computed (re-entrancy through the failure branch).
        memo.insert(key, lrc_cost(ctx));
        let mut best = f64::INFINITY;
        for i in 0..ctx.candidates.len() {
            let c = approx_cost_of(ctx, i, params, memo, depth);
            if c < best {
                best = c;
            }
        }
        memo.insert(key, best);
        best
    }

    pub(super) fn approx_cost_of(
        ctx: &DecisionContext<'_>,
        i: usize,
        params: &EcParams,
        memo: &mut Memo,
        depth: usize,
    ) -> f64 {
        if ctx.work_left <= EPS_WORK {
            return 0.0;
        }
        if depth >= params.max_depth {
            return lrc_cost(ctx);
        }
        let t = bucket(ctx.now, params.time_bucket);
        let w = bucket(ctx.work_left, params.work_bucket);
        let key = if ctx.is_continuation(i) {
            let uptime = ctx.current.map(|cur| cur.uptime).unwrap_or(0.0);
            MemoKey::Continuation {
                cand: i,
                uptime: bucket(uptime, params.time_bucket),
                t,
                w,
                depth,
            }
        } else {
            MemoKey::Fresh {
                cand: i,
                t,
                w,
                depth,
                delta: ctx.current.is_some(),
            }
        };
        if let Some(&cached) = memo.get(&key) {
            return cached;
        }
        let result = approx_cost_of_uncached(ctx, i, params, memo, depth);
        memo.insert(key, result);
        result
    }

    fn approx_cost_of_uncached(
        ctx: &DecisionContext<'_>,
        i: usize,
        params: &EcParams,
        memo: &mut Memo,
        depth: usize,
    ) -> f64 {
        let c = &ctx.candidates[i];
        if !c.is_transient() {
            // Third branch of EC: on-demand.
            return if ctx.on_demand_feasible(i) {
                c.price_rate / 3600.0 * (ctx.work_left * c.t_exec + c.t_save)
            } else {
                f64::INFINITY
            };
        }
        // Fourth branch: transient.
        let useful = match ctx.useful(i) {
            Ok(u) => u,
            Err(_) => return f64::INFINITY,
        };
        if useful <= 0.0 {
            // Second branch: selecting c would compromise the deadline.
            return f64::INFINITY;
        }
        let continuation = ctx.is_continuation(i);
        let setup = if continuation {
            0.0
        } else {
            ctx.t_boot + ctx.effective_load(i)
        };
        let t_int = useful + c.t_save;
        let wall = setup + t_int;
        let u0 = if continuation {
            ctx.current.map(|cur| cur.uptime).unwrap_or(0.0)
        } else {
            0.0
        };
        let f0 = c.eviction.cdf(u0);
        let f1 = c.eviction.cdf(u0 + wall);
        let p_fail = if f0 >= 1.0 {
            1.0
        } else {
            ((f1 - f0) / (1.0 - f0)).clamp(0.0, 1.0)
        };
        let rate = c.price_rate / 3600.0;
        let progress = useful / c.t_exec;

        let mut total = 0.0;
        if p_fail < 1.0 {
            let next = ctx.at(
                ctx.now + wall,
                (ctx.work_left - progress).max(0.0),
                Some(CurrentDeployment {
                    index: i,
                    uptime: u0 + wall,
                }),
            );
            let mut follow = approx_cost_of(&next, i, params, memo, depth);
            if !follow.is_finite() {
                follow = lrc_cost(&next);
            }
            if !follow.is_finite() {
                return f64::INFINITY;
            }
            total += (1.0 - p_fail) * (rate * wall + follow);
        }

        if p_fail > 0.0 {
            let mttf = c.eviction.mttf();
            let x = (mttf - u0).clamp(1.0, wall);
            let next = ctx.at(ctx.now + x, ctx.work_left, None);
            let follow = if depth + 1 >= params.max_depth {
                lrc_cost(&next)
            } else {
                approx_ec_all(&next, params, memo, depth + 1)
            };
            if !follow.is_finite() {
                return f64::INFINITY;
            }
            total += p_fail * (rate * x + follow);
        }
        total
    }

    fn lrc_cost(ctx: &DecisionContext<'_>) -> f64 {
        if ctx.work_left <= EPS_WORK {
            return 0.0;
        }
        let Ok(lrc) = ctx.lrc_index() else {
            return f64::INFINITY;
        };
        if ctx.on_demand_feasible(lrc) {
            let c = &ctx.candidates[lrc];
            c.price_rate / 3600.0 * (ctx.work_left * c.t_exec + c.t_save)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testkit::{candidates, context};
    use hourglass_cloud::config::paper_configurations;
    use hourglass_cloud::{
        eviction, fit, tracegen, DynEviction, EvictionModel, InstanceType, LifetimeCapped,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn zero_work_costs_nothing() {
        let cands = candidates();
        let mut ctx = context(&cands);
        ctx.work_left = 0.0;
        let e = expected_cost_approx(&ctx, &EcParams::default()).expect("ec");
        assert_eq!(e.cost, 0.0);
    }

    #[test]
    fn prefers_cheap_transient_with_ample_slack() {
        let cands = candidates();
        let ctx = context(&cands);
        let e = expected_cost_approx(&ctx, &EcParams::default()).expect("ec");
        let best = e.best.expect("feasible");
        assert!(
            cands[best].is_transient(),
            "with 2 h slack the spot candidates should win, got {best}"
        );
        // And the expected cost must undercut the pure on-demand cost.
        let od = cands[0].price_rate / 3600.0 * (cands[0].t_exec + cands[0].t_save);
        assert!(e.cost < od, "EC {} should be below on-demand {od}", e.cost);
    }

    #[test]
    fn falls_back_to_lrc_when_slack_gone() {
        let cands = candidates();
        let mut ctx = context(&cands);
        // Leave exactly the lrc execution time plus fixed costs: no slack.
        ctx.now = ctx.deadline - (cands[0].t_exec + cands[0].t_fixed(ctx.t_boot));
        let e = expected_cost_approx(&ctx, &EcParams::default()).expect("ec");
        assert_eq!(e.best, Some(0), "only the lrc remains viable");
    }

    #[test]
    fn infinite_when_nothing_feasible() {
        let cands = candidates();
        let mut ctx = context(&cands);
        ctx.now = ctx.deadline - 60.0; // One minute to deadline.
        let e = expected_cost_approx(&ctx, &EcParams::default()).expect("ec");
        assert_eq!(e.best, None);
        assert!(e.cost.is_infinite());
    }

    #[test]
    fn approx_close_to_exact_on_small_problem() {
        // Shrink the problem so the exact recursion is tractable: a
        // 6-minute job with a 3-minute slack.
        let mut cands = candidates();
        for c in &mut cands {
            c.t_exec /= 40.0;
            c.t_load /= 40.0;
            c.t_save /= 40.0;
        }
        let mut ctx = context(&cands);
        ctx.deadline /= 40.0;
        ctx.t_boot /= 40.0;
        let exact = expected_cost_exact(&ctx, 30.0, Some(Duration::from_secs(30))).expect("exact");
        let approx = expected_cost_approx(&ctx, &EcParams::default()).expect("approx");
        assert!(exact.cost.is_finite() && approx.cost.is_finite());
        let dfo = (approx.cost - exact.cost).abs() / exact.cost;
        // The paper reports ~3% average error; allow a loose 35% here since
        // this synthetic scenario is tiny and bucketing effects loom larger.
        assert!(dfo < 0.35, "approximation drifted {dfo:.3} from exact");
    }

    #[test]
    fn exact_times_out_gracefully() {
        let cands = candidates();
        let ctx = context(&cands);
        // A 1-second step over a 4-hour job must blow any tiny budget.
        let r = expected_cost_exact(&ctx, 1.0, Some(Duration::from_millis(5)));
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_bad_input() {
        let cands = candidates();
        let mut ctx = context(&cands);
        ctx.work_left = 1.5;
        assert!(expected_cost_approx(&ctx, &EcParams::default()).is_err());
        ctx.work_left = 0.5;
        assert!(expected_cost_exact(&ctx, 0.0, None).is_err());
        let empty: Vec<crate::Candidate> = Vec::new();
        let ctx2 = crate::DecisionContext {
            now: 0.0,
            deadline: 100.0,
            work_left: 1.0,
            t_boot: 0.0,
            candidates: &empty,
            current: None,
            save_retry_factor: 0.0,
        };
        assert!(expected_cost_approx(&ctx2, &EcParams::default()).is_err());
    }

    #[test]
    fn continuation_cheaper_than_fresh() {
        let cands = candidates();
        let base = context(&cands);
        let fresh = base.at(3600.0, 0.6, None);
        let cont = base.at(
            3600.0,
            0.6,
            Some(CurrentDeployment {
                index: 2,
                uptime: 3600.0,
            }),
        );
        let mut memo = EcMemo::new();
        let p = EcParams::default();
        let cf = approx_cost_of(&fresh, 2, &p, &mut memo, 0);
        let mut memo2 = EcMemo::new();
        let cc = approx_cost_of(&cont, 2, &p, &mut memo2, 0);
        assert!(
            cc <= cf + 1e-9,
            "continuing ({cc}) must not cost more than redeploying ({cf})"
        );
    }

    #[test]
    fn validation_rejects_out_of_domain_time_state() {
        let cands = candidates();
        let p = EcParams::default();
        // Negative `now` used to saturate to memo bucket 0 silently.
        let mut ctx = context(&cands);
        ctx.now = -3600.0;
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.now = f64::NAN;
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.now = 0.0;
        ctx.t_boot = -1.0;
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.t_boot = 120.0;
        ctx.deadline = f64::INFINITY;
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.deadline = 6.0 * 3600.0;
        ctx.current = Some(CurrentDeployment {
            index: 2,
            uptime: -5.0,
        });
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.current = Some(CurrentDeployment {
            index: 99,
            uptime: 0.0,
        });
        assert!(expected_cost_approx(&ctx, &p).is_err());
        ctx.current = None;
        assert!(expected_cost_approx(&ctx, &p).is_ok());
    }

    #[test]
    fn extreme_uptime_no_longer_aliases_fresh_sentinel() {
        // Under the packed-tuple keys, a continuation whose bucketed
        // uptime hit u32::MAX − 1 collided with the "fresh deployment"
        // sentinel row. The enum key spaces cannot alias: a continuation
        // at an astronomical uptime and a fresh evaluation of the same
        // candidate must still memoize (and report) independently.
        let cands = candidates();
        let base = context(&cands);
        let huge_uptime = (u32::MAX as f64 - 1.0) * EcParams::default().time_bucket;
        let cont = base.at(
            0.0,
            1.0,
            Some(CurrentDeployment {
                index: 2,
                uptime: huge_uptime,
            }),
        );
        let p = EcParams::default();
        let fresh = base.at(0.0, 1.0, None);
        let mut clean = EcMemo::new();
        let cf_clean = approx_cost_of(&fresh, 2, &p, &mut clean, 0);
        // Evaluate the continuation first, then the fresh deployment in
        // the SAME memo: under the old sentinel scheme the continuation
        // row aliased the fresh row and poisoned this second lookup.
        // The continuation's failure branch also recurses at this very
        // (t, w) bucket with a deeper look-ahead (its huge uptime clamps
        // the MTTF offset to one second), so this additionally exercises
        // the depth field of the key: a shallow-look-ahead Fresh row from
        // that recursion must not be served to the depth-0 lookup.
        let mut shared = EcMemo::new();
        let cc = approx_cost_of(&cont, 2, &p, &mut shared, 0);
        let cf = approx_cost_of(&fresh, 2, &p, &mut shared, 0);
        assert_eq!(
            cf, cf_clean,
            "fresh evaluation poisoned by the continuation row (cont {cc})"
        );
        assert_ne!(cc, cf, "the two states must memoize independently");
    }

    #[test]
    fn held_deployment_switch_does_not_alias_evicted_state() {
        // Switching candidates while a deployment is still held ships only
        // the moved micro-partitions (t_load_delta); reaching the very same
        // (t, w) state through an eviction pays the full reload. The two
        // states must price differently AND must not share a Fresh memo row
        // when evaluated in the same arena.
        let cands = candidates();
        let base = context(&cands);
        let holding = base.at(
            1800.0,
            0.7,
            Some(CurrentDeployment {
                index: 3,
                uptime: 1800.0,
            }),
        );
        let evicted = base.at(1800.0, 0.7, None);
        let p = EcParams::default();
        let mut clean = EcMemo::new();
        let switch_clean = approx_cost_of(&holding, 2, &p, &mut clean, 0);
        let mut clean2 = EcMemo::new();
        let fresh_clean = approx_cost_of(&evicted, 2, &p, &mut clean2, 0);
        assert!(
            switch_clean < fresh_clean,
            "delta-priced switch ({switch_clean}) must undercut a full \
             reload after eviction ({fresh_clean})"
        );
        // Same arena, evaluation order holding → evicted: without the
        // `delta` key bit the second lookup would be served the cheaper
        // delta-priced row.
        let mut shared = EcMemo::new();
        let switch_shared = approx_cost_of(&holding, 2, &p, &mut shared, 0);
        let fresh_shared = approx_cost_of(&evicted, 2, &p, &mut shared, 0);
        assert_eq!(switch_shared, switch_clean);
        assert_eq!(
            fresh_shared, fresh_clean,
            "evicted-state evaluation poisoned by the held-state memo row"
        );
    }

    #[test]
    fn arena_reuse_matches_fresh_table() {
        let cands = candidates();
        let base = context(&cands);
        let p = EcParams::default();
        let mut memo = EcMemo::new();
        // Re-using one arena across a sequence of decisions (different
        // clock/work states, as in one simulated run) must be
        // bit-identical to allocating a fresh table per decision.
        for step in 0..6 {
            let ctx = base.at(step as f64 * 900.0, 1.0 - step as f64 * 0.12, None);
            let fresh = expected_cost_approx(&ctx, &p).expect("fresh");
            let reused = expected_cost_approx_in(&ctx, &p, &mut memo).expect("arena");
            assert_eq!(fresh, reused, "diverged at step {step}");
            assert!(!memo.is_empty());
        }
    }

    #[test]
    fn approx_is_fast() {
        let cands = candidates();
        let ctx = context(&cands);
        let t0 = Instant::now();
        for _ in 0..10 {
            expected_cost_approx(&ctx, &EcParams::default()).expect("ec");
        }
        let per_decision = t0.elapsed() / 10;
        assert!(
            per_decision < Duration::from_millis(100),
            "approximation took {per_decision:?} per decision"
        );
    }

    /// The eviction-model families the simulator's scenarios fit.
    #[derive(Debug, Clone, Copy)]
    enum ModelKind {
        Crossing,
        Capped,
        Bathtub,
    }

    /// The paper's 18 configurations, priced and modelled the way
    /// `hourglass_sim::runner::build_decision_candidates` does it (that
    /// crate depends on this one, so the set is assembled here from the
    /// same `hourglass-cloud` parts): market price × workers, one eviction
    /// process per instance type fitted on the history market, one shared
    /// reliable model for the on-demand half, sublinear `t_exec` scaling.
    fn paper_candidates(kind: ModelKind, lrc_exec: f64, at: f64) -> Vec<Candidate> {
        let market = tracegen::simulation_market(7).expect("market");
        let history = tracegen::history_market(7).expect("history");
        let (window, samples, seed) = (24.0 * 3600.0, 400, 17);
        let models: Vec<(InstanceType, DynEviction)> = InstanceType::PAPER
            .iter()
            .map(|&ty| {
                let trace = history.trace(ty).expect("trace");
                let bid = ty.on_demand_price();
                let crossing =
                    || EvictionModel::from_trace(trace, bid, window, samples, seed).expect("fit");
                let model: DynEviction = match kind {
                    ModelKind::Crossing => Arc::new(crossing()),
                    ModelKind::Capped => Arc::new(
                        LifetimeCapped::new(Arc::new(crossing()), 6.0 * 3600.0).expect("cap"),
                    ),
                    ModelKind::Bathtub => {
                        Arc::new(fit::fit_bathtub(trace, bid, window, samples, seed).expect("fit"))
                    }
                };
                (ty, model)
            })
            .collect();
        let reliable: DynEviction = Arc::new(eviction::reliable());
        let configs = paper_configurations();
        let max_vcpus = configs
            .iter()
            .map(|c| c.total_vcpus())
            .max()
            .expect("configs") as f64;
        configs
            .into_iter()
            .map(|config| {
                let workers = f64::from(config.num_workers);
                let t_load = 1500.0 / workers + 20.0;
                let transient = config.is_transient();
                Candidate {
                    config,
                    t_exec: lrc_exec * (max_vcpus / f64::from(config.total_vcpus())).powf(0.33),
                    t_load,
                    t_load_delta: 0.3 * t_load,
                    t_save: 400.0 / workers + 10.0,
                    price_rate: if transient {
                        let trace = market.trace(config.instance_type).expect("trace");
                        trace.price_at(at).expect("price") * workers
                    } else {
                        config.on_demand_rate()
                    },
                    eviction: if transient {
                        let (_, model) = models
                            .iter()
                            .find(|(ty, _)| *ty == config.instance_type)
                            .expect("model");
                        model.clone()
                    } else {
                        reliable.clone()
                    },
                }
            })
            .collect()
    }

    /// Seeded decision states over `cands`: job start, evicted, holding a
    /// deployment (every candidate is then evaluated as a continuation or
    /// as a delta-priced switch), work from all of it down to `EPS_WORK`,
    /// clocks up to and past the deadline.
    fn random_contexts<'a>(
        cands: &'a [Candidate],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<DecisionContext<'a>> {
        let base = context(cands);
        let lrc = &cands[base.lrc_index().expect("lrc")];
        let t_boot = 60.0;
        (0..n)
            .map(|_| {
                let slack = rng.gen_range(0.0..1.2);
                let deadline = lrc.t_fixed(t_boot) + lrc.t_exec * (1.0 + slack);
                let work_left = match rng.gen_range(0..4u32) {
                    0 => 1.0,
                    1 => 10f64.powi(-rng.gen_range(1..10i32)),
                    _ => rng.gen_range(0.0..1.0),
                };
                let now = match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    // Roughly on schedule.
                    1 => (1.0 - work_left) * deadline * rng.gen_range(0.5..1.0),
                    _ => rng.gen_range(0.0..1.1) * deadline,
                };
                let current = rng.gen_bool(0.6).then(|| CurrentDeployment {
                    index: rng.gen_range(0..cands.len()),
                    uptime: match rng.gen_range(0..3u32) {
                        0 => 0.0,
                        1 => rng.gen_range(0.0..3600.0),
                        _ => rng.gen_range(0.0..30.0 * 3600.0),
                    },
                });
                DecisionContext {
                    now,
                    deadline,
                    work_left,
                    t_boot,
                    candidates: cands,
                    current,
                    save_retry_factor: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn table_evaluator_equals_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EED_EC53);
        let mut sets = vec![(candidates(), 1500)];
        for kind in [ModelKind::Crossing, ModelKind::Capped, ModelKind::Bathtub] {
            // SSSP-, PageRank- and GC-sized jobs: chains of 1, a few and
            // dozens of checkpoint intervals.
            for (lrc_exec, n) in [(180.0, 700), (1200.0, 500), (4.0 * 3600.0, 150)] {
                let at = rng.gen_range(0.0..20.0 * 86_400.0);
                sets.push((paper_candidates(kind, lrc_exec, at), n));
            }
        }
        let mut memo = EcMemo::new();
        let mut oracle = reference::Memo::new();
        let (mut checked, mut feasible, mut rows) = (0, 0, 0);
        for (cands, n) in &sets {
            let long_chains = cands.len() > 4 && cands[0].t_exec > 3600.0;
            for ctx in random_contexts(cands, *n, &mut rng) {
                let params = EcParams {
                    // Depth 3 on the GC-sized sets is minutes of debug-build
                    // recursion; the shorter jobs cover it.
                    max_depth: rng.gen_range(1..if long_chains { 3 } else { 4 }),
                    ..EcParams::default()
                };
                let want = reference::expected_cost(&ctx, &params, &mut oracle);
                let got = expected_cost_approx_in(&ctx, &params, &mut memo).expect("valid");
                assert_eq!(
                    (got.cost.to_bits(), got.best),
                    (want.cost.to_bits(), want.best),
                    "{got:?} != {want:?} at now={} w={} current={:?} deadline={} depth={}",
                    ctx.now,
                    ctx.work_left,
                    ctx.current,
                    ctx.deadline,
                    params.max_depth,
                );
                assert_eq!(memo.len(), oracle.len(), "memoized states differ");
                checked += 1;
                feasible += usize::from(want.best.is_some());
                rows += oracle.len();
            }
        }
        assert!(checked >= 5000, "only {checked} contexts");
        // The sweep must not be vacuous: most states are decidable and the
        // recursion does run (≫ one row per candidate).
        assert!(feasible * 2 > checked, "{feasible} of {checked} feasible");
        assert!(rows > 100 * checked, "{rows} rows over {checked} contexts");
    }

    #[test]
    fn memo_table_behaves_like_a_hash_map() {
        // Keys from a small domain so look-ups hit, rows are overwritten
        // and probe chains form; resets and growth in between.
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut table = MemoTable::with_slots(MemoTable::MIN_SLOTS);
        let mut map = std::collections::HashMap::new();
        let spaces = [
            KeySpace::All,
            KeySpace::FreshEvicted,
            KeySpace::FreshHeld,
            KeySpace::Continuation,
        ];
        for op in 0..60_000 {
            let key = MemoKey {
                t: rng.gen_range(0..12u64),
                w: rng.gen_range(0..6u64),
                uptime: rng.gen_range(0..3u64) * (u64::MAX / 2),
                cand: rng.gen_range(0..4usize),
                depth: rng.gen_range(0..3u32),
                space: spaces[rng.gen_range(0..4usize)],
            };
            let id = (
                key.t,
                key.w,
                key.uptime,
                key.cand,
                key.depth,
                key.space as u8,
            );
            if rng.gen_bool(0.5) {
                assert_eq!(table.get(key.hash(), &key), map.get(&id).copied());
            } else {
                table.insert(key.hash(), key, f64::from(op));
                map.insert(id, f64::from(op));
            }
            assert_eq!(table.live, map.len());
            if rng.gen_range(0..4000u32) == 0 {
                table.reset();
                map.clear();
            }
        }
        assert!(table.slots.len() > MemoTable::MIN_SLOTS, "never grew");
    }

    #[test]
    fn memo_survives_stamp_wraparound_and_growth() {
        let cands = candidates();
        let base = context(&cands);
        let p = EcParams::default();
        let mut memo = EcMemo::new();
        memo.table.stamp = u32::MAX - 2;
        let slots = memo.table.slots.len();
        for step in 0..6 {
            let ctx = base.at(step as f64 * 900.0, 1.0 - step as f64 * 0.12, None);
            let fresh = expected_cost_approx(&ctx, &p).expect("fresh");
            let reused = expected_cost_approx_in(&ctx, &p, &mut memo).expect("arena");
            assert_eq!(fresh, reused, "diverged at step {step}");
            assert!(memo.table.stamp >= 1, "stamp 0 marks vacant slots");
            let live = memo
                .table
                .slots
                .iter()
                .filter(|slot| slot.stamp == memo.table.stamp)
                .count();
            assert_eq!(live, memo.len(), "stale rows resurfaced at step {step}");
        }
        assert!(memo.table.stamp < 10, "the stamp wrapped");
        assert!(memo.table.slots.len() > slots, "the table grew");
        assert!(memo.len() * 2 <= memo.table.slots.len());
    }
}
