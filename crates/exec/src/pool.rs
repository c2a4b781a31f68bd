//! The persistent fork-join pool: workers parked between rounds.

use crate::{merge_task, run_task, TaskOut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::sync::Mutex;
#[cfg(test)]
use std::sync::{
    atomic::{AtomicUsize, Ordering},
    Arc,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiting thread polls its channel before it parks.
///
/// Measured on the 2-vCPU reference guest: a round of two empty tasks costs
/// 1.5–2 µs when polling catches both hand-offs and ≈ 45 µs when both sides
/// park (two futex wakes across vCPUs); a scoped-thread round costs
/// ≈ 100 µs. `frontier_sssp/answer_s` against the bound: 5 µs 0.71–0.77 s,
/// 20 µs 0.70–0.74 s, 50 µs 0.63–0.69 s, 200 µs 0.65–0.69 s, 1 ms
/// 0.63–0.69 s — the curve is flat from here. It is a bound on time, not on
/// iterations, because of the one placement polling cannot win: waiter and
/// worker on the same core. There every wait runs to the bound, a round
/// costs 2 × `SPIN` = 100 µs, and that is what a round cost before the pool
/// existed.
const SPIN: Duration = Duration::from_micros(50);

/// A task with its borrows erased, as a worker receives it.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a task left behind: its bracketed result, or its panic payload.
type Outcome<R> = std::thread::Result<TaskOut<R>>;

/// `k − 1` worker threads that live as long as the pool and sleep between
/// rounds, for callers that fork and join thousands of times over the same
/// `k` (the BSP engine: twice per superstep). A round costs two channel
/// hand-offs per worker, not two thread spawns.
///
/// Dropping the pool shuts the workers down and joins them.
///
/// The channels are bounded, which here means preallocated: no send
/// allocates. An unbounded channel allocates a block every 31 messages on
/// the sending thread and frees it on the receiving one, and such a block,
/// parked in the other thread's allocator cache, pins the heap region
/// around it — with unbounded channels `frontier_sssp/peak_rss_mib` crept
/// from 194 to 206 over a run's repetitions.
pub struct Pool {
    /// One channel per worker: task `i` always runs on worker `i`. At most
    /// one job per worker is in flight, so a send never blocks.
    jobs: Vec<SyncSender<Job>>,
    /// Completion signals, one `()` per finished job, with a slot for every
    /// worker. Pool-owned, so a worker's send touches nothing that belongs
    /// to a `fork_join` frame.
    done: Receiver<()>,
    workers: Vec<JoinHandle<()>>,
    /// Whether waiting threads poll before parking: only when every thread
    /// of the pool can have a core of its own.
    spin: bool,
    /// Worker threads that have not exited yet.
    #[cfg(test)]
    live: Arc<AtomicUsize>,
}

impl Pool {
    /// A pool for rounds of `k` tasks: spawns `k − 1` workers (none for
    /// `k ≤ 1`); the calling thread is the `k`-th.
    pub fn new(k: usize) -> Pool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin = k <= cores;
        let workers = k.saturating_sub(1);
        let (done_tx, done) = sync_channel(workers);
        #[cfg(test)]
        let live = Arc::new(AtomicUsize::new(workers));
        let (jobs, workers) = (0..workers)
            .map(|i| {
                let (tx, rx) = sync_channel::<Job>(1);
                let done_tx = done_tx.clone();
                #[cfg(test)]
                let live = live.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("hourglass-pool-{i}"))
                    .spawn(move || {
                        while let Ok(job) = recv_spinning(&rx, spin) {
                            job();
                            // The job is consumed: nothing borrowed from the
                            // submitting frame is alive on this thread now.
                            let _ = done_tx.send(());
                        }
                        #[cfg(test)]
                        live.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn pool worker");
                (tx, handle)
            })
            .unzip();
        Pool {
            jobs,
            done,
            workers,
            spin,
            #[cfg(test)]
            live,
        }
    }

    /// Runs `tasks` to completion and returns their results in task order,
    /// like [`crate::fork_join`]: task `i` runs on worker `i` while workers
    /// last, the remaining tasks (the last one, for a round of `k`) on the
    /// calling thread, in order. Spans and metric shards merge in
    /// submission order, so the collected telemetry is that of a sequential
    /// run.
    ///
    /// A panicking task does not stop the others; once all have finished
    /// the panic is reported as `"worker thread panicked"` and the pool
    /// stays usable.
    pub fn fork_join<R, F>(&mut self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let offloaded = tasks.len().saturating_sub(1).min(self.jobs.len());
        // Declared before the guard, so they outlive its wait.
        let cells: Vec<Mutex<Option<Outcome<R>>>> =
            (0..offloaded).map(|_| Mutex::new(None)).collect();
        let mut tasks = tasks.into_iter().enumerate();
        let mut outstanding = Outstanding {
            done: &self.done,
            spin: self.spin,
            jobs: 0,
        };
        for (((i, task), cell), tx) in tasks.by_ref().take(offloaded).zip(&cells).zip(&self.jobs) {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let out = run_caught(i, true, task);
                *cell.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
            // SAFETY: the transmute only erases the lifetime of the job's
            // borrows (the task's captures and `cell`); both types are the
            // same fat `Box`. The job may therefore not outlive this call,
            // and it does not:
            // 1. `outstanding` counts every job sent and its `Drop` blocks
            //    until that many completion signals have arrived, so this
            //    function neither returns nor unwinds — not on a panic in
            //    the caller's own tasks below, not on one anywhere else in
            //    this frame — while a worker still holds a job. A job that
            //    could not be sent comes back in the error and is dropped
            //    here.
            // 2. A worker signals only after `job()` has returned, i.e.
            //    after the closure, the task and everything they captured
            //    have been consumed; the signal itself goes through
            //    `self.done`, which the pool owns, so a worker that is still
            //    inside `send` when this frame is gone touches none of it.
            // 3. A job cannot unwind past that signal: the task runs under
            //    `catch_unwind`, and the store after it cannot panic.
            #[allow(unsafe_code)]
            let job: Job = unsafe { std::mem::transmute(job) };
            if tx.send(job).is_ok() {
                outstanding.jobs += 1;
            }
        }
        let own: Vec<Outcome<R>> = tasks.map(|(i, task)| run_caught(i, false, task)).collect();
        drop(outstanding);

        let offloaded = cells.into_iter().map(|cell| {
            cell.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("a pool worker exited with a job in hand")
        });
        offloaded
            .chain(own)
            .map(|out| merge_task(out.expect("worker thread panicked")))
            .collect()
    }
}

/// Runs task `i` inside the shared bracket, catching its panic.
fn run_caught<R, F: FnOnce() -> R>(i: usize, pinned: bool, task: F) -> Outcome<R> {
    catch_unwind(AssertUnwindSafe(|| run_task(i, pinned, task)))
}

impl Drop for Pool {
    fn drop(&mut self) {
        // A closed channel is the shutdown message.
        self.jobs.clear();
        for worker in self.workers.drain(..) {
            // Workers catch task panics, so a failed join has nothing to
            // report that `fork_join` did not; never panic in `drop`.
            let _ = worker.join();
        }
    }
}

/// The jobs of one round that workers still hold. Dropping it waits for
/// them: the borrow erasure in [`Pool::fork_join`] is sound because this
/// runs on every way out of that function.
struct Outstanding<'a> {
    done: &'a Receiver<()>,
    spin: bool,
    jobs: usize,
}

impl Drop for Outstanding<'_> {
    fn drop(&mut self) {
        for _ in 0..self.jobs {
            // Every sender gone means every worker thread has exited:
            // nobody is left to hold a job.
            if recv_spinning(self.done, self.spin).is_err() {
                break;
            }
        }
    }
}

/// `rx.recv()`, polling for [`SPIN`] first when `spin` is set: a hand-off
/// that arrives while the receiver polls costs no wake-up.
fn recv_spinning<T>(rx: &Receiver<T>, spin: bool) -> Result<T, RecvError> {
    if spin {
        let t0 = Instant::now();
        loop {
            match rx.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            if t0.elapsed() >= SPIN {
                break;
            }
            std::hint::spin_loop();
        }
    }
    rx.recv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// One round of `k` tasks, each adding 1 to every element of its own
    /// chunk of `data`.
    fn bump_chunks(pool: &mut Pool, data: &mut [u64], k: usize) {
        let chunk = data.len() / k;
        let tasks: Vec<_> = data
            .chunks_mut(chunk)
            .map(|chunk| move || chunk.iter_mut().for_each(|c| *c += 1))
            .collect();
        pool.fork_join(tasks);
    }

    #[test]
    fn ten_thousand_back_to_back_rounds_lose_no_hand_off() {
        // k = 8 oversubscribes any small host: the parking path. k = 2 and
        // 3 poll where there are cores for it.
        const ROUNDS: u64 = 10_000;
        for k in [2, 3, 8] {
            let mut pool = Pool::new(k);
            let mut data = vec![0u64; 4 * k];
            for _ in 0..ROUNDS {
                bump_chunks(&mut pool, &mut data, k);
            }
            assert!(data.iter().all(|&c| c == ROUNDS), "k = {k}: {data:?}");
        }
    }

    #[test]
    fn rounds_smaller_and_larger_than_the_pool_run_every_task_once() {
        let mut pool = Pool::new(3);
        for n in [0usize, 1, 2, 3, 4, 7] {
            let tasks: Vec<_> = (0..n).map(|i| move || i).collect();
            assert_eq!(pool.fork_join(tasks), (0..n).collect::<Vec<_>>());
        }
        let mut inline = Pool::new(1);
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
        assert_eq!(inline.fork_join(tasks), vec![caller; 3]);
    }

    #[test]
    fn a_task_panic_waits_for_the_other_tasks_and_leaves_the_pool_usable() {
        const K: usize = 3;
        let mut pool = Pool::new(K);
        // Slot 0 runs on a worker, slot K - 1 on the calling thread.
        for bad in [0, K - 1] {
            let panicking = AtomicBool::new(false);
            let finished: Vec<AtomicBool> = (0..K).map(|_| AtomicBool::new(false)).collect();
            let tasks: Vec<_> = (0..K)
                .map(|i| {
                    let (panicking, finished) = (&panicking, &finished);
                    move || {
                        if i == bad {
                            panicking.store(true, Ordering::SeqCst);
                            panic!("task {i} failed");
                        }
                        // Outlive the panic: a join that gave up at the
                        // first failure would return before the flag is set.
                        while !panicking.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        for _ in 0..200 {
                            std::thread::yield_now();
                        }
                        finished[i].store(true, Ordering::SeqCst);
                    }
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| pool.fork_join(tasks)))
                .expect_err("the panic propagates");
            let msg = err.downcast_ref::<String>().expect("an expect message");
            assert!(msg.starts_with("worker thread panicked"), "{msg}");
            for (i, done) in finished.iter().enumerate() {
                assert_eq!(done.load(Ordering::SeqCst), i != bad, "bad {bad}, task {i}");
            }
            let tasks: Vec<_> = (0..K).map(|i| move || i).collect();
            assert_eq!(
                pool.fork_join(tasks),
                vec![0, 1, 2],
                "round after the panic"
            );
        }
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let mut pool = Pool::new(4);
        let live = pool.live.clone();
        assert_eq!(live.load(Ordering::SeqCst), 3);
        let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
        assert_eq!(pool.fork_join(tasks), vec![0, 1, 2, 3]);
        drop(pool);
        assert_eq!(live.load(Ordering::SeqCst), 0);
        assert_eq!(Pool::new(1).live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn two_pools_driven_from_two_threads_do_not_interfere() {
        const ROUNDS: u64 = 2_000;
        let drivers: Vec<_> = [2usize, 3]
            .into_iter()
            .map(|k| {
                std::thread::spawn(move || {
                    let mut pool = Pool::new(k);
                    let mut data = vec![0u64; 2 * k];
                    for _ in 0..ROUNDS {
                        bump_chunks(&mut pool, &mut data, k);
                    }
                    data
                })
            })
            .collect();
        let sums: Vec<Vec<u64>> = drivers
            .into_iter()
            .map(|d| d.join().expect("driver"))
            .collect();
        assert_eq!(sums, vec![vec![ROUNDS; 4], vec![ROUNDS; 6]]);
    }

    #[test]
    fn pool_hand_off_is_microseconds() {
        // What a superstep pays twice: a round of k = 2 empty tasks.
        const ROUNDS: usize = 1_000;
        let mut pool = Pool::new(2);
        let round = |pool: &mut Pool| {
            let tasks: Vec<_> = (0..2).map(|i| move || i).collect();
            std::hint::black_box(pool.fork_join(tasks));
        };
        round(&mut pool);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            round(&mut pool);
        }
        let pooled = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            let tasks: Vec<_> = (0..2).map(|i| move || i).collect();
            std::hint::black_box(crate::fork_join(true, tasks));
        }
        let scoped = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
        println!(
            "pool hand-off: mean {pooled:.2} us per round of 2 (scoped threads: {scoped:.2} us)"
        );
    }
}
