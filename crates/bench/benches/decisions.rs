//! Criterion benchmark of sustained decision throughput: a simulated
//! run's decision loop re-evaluates `EC(t, w)` every chunk, so what
//! matters is not one cold call (see `expected_cost` bench) but
//! decisions/second across a *sequence* of calls. Compares the fresh
//! memo-per-decision path ([`expected_cost_approx`]) against the
//! reused memo arena ([`expected_cost_approx_in`]) that
//! `HourglassStrategy` holds across the decisions of one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hourglass_bench::World;
use hourglass_core::expected_cost::{
    expected_cost_approx, expected_cost_approx_in, EcMemo, EcParams,
};
use hourglass_core::DecisionContext;
use hourglass_sim::job::{PaperJob, ReloadMode};
use hourglass_sim::runner::build_decision_candidates;

/// Decision points of one synthetic run: the job advances a chunk between
/// decisions, so `now` grows and `work_left` shrinks — exactly the state
/// trajectory the runner's decision loop walks.
const DECISIONS_PER_RUN: usize = 8;

fn decision_points(deadline: f64) -> Vec<(f64, f64)> {
    (0..DECISIONS_PER_RUN)
        .map(|i| {
            let frac = i as f64 / DECISIONS_PER_RUN as f64;
            (0.4 * deadline * frac, 1.0 - 0.9 * frac)
        })
        .collect()
}

fn bench_decision_loop(c: &mut Criterion) {
    let world = World::build(42);
    let setup = world.setup();
    let params = EcParams::default();
    let mut group = c.benchmark_group("decision_loop");
    group.sample_size(20);
    for job_kind in PaperJob::ALL {
        let job = job_kind
            .description(50.0, ReloadMode::Fast)
            .expect("job construction");
        let candidates =
            build_decision_candidates(&setup, &job, 3600.0, false).expect("candidates");
        let points = decision_points(job.deadline);
        let contexts: Vec<DecisionContext<'_>> = points
            .iter()
            .map(|&(now, work_left)| DecisionContext {
                now,
                deadline: job.deadline,
                work_left,
                t_boot: job.t_boot,
                candidates: &candidates,
                current: None,
                save_retry_factor: 0.0,
            })
            .collect();
        group.throughput(Throughput::Elements(contexts.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("fresh_memo", job_kind.name()),
            &contexts,
            |b, ctxs| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for ctx in ctxs {
                        acc += expected_cost_approx(ctx, &params).expect("ec").cost;
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("memo_arena", job_kind.name()),
            &contexts,
            |b, ctxs| {
                b.iter(|| {
                    let mut memo = EcMemo::new();
                    let mut acc = 0.0;
                    for ctx in ctxs {
                        acc += expected_cost_approx_in(ctx, &params, &mut memo)
                            .expect("ec")
                            .cost;
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decision_loop);
criterion_main!(benches);
