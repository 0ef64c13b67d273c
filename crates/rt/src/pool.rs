//! The Phi thread pool: real host threads, modeled card placement.

use crossbeam::channel;
use parking_lot::Mutex;
use phi_simd::count::{self, OpCounts};
use phi_simd::{CostModel, KncMachine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Thread-to-core placement policy (KMP_AFFINITY-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffinityPolicy {
    /// Fill each core's four contexts before moving to the next core.
    Compact,
    /// One context per core first, wrapping around (a.k.a. balanced).
    Scatter,
}

/// Result of a [`PhiPool::run_batch`] run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Tasks executed.
    pub tasks: usize,
    /// Modeled threads the batch ran with.
    pub threads: u32,
    /// Placement policy used.
    pub policy: AffinityPolicy,
    /// Host wall-clock for the whole batch.
    pub wall_seconds: f64,
    /// Summed operation counts over all workers.
    pub total_counts: OpCounts,
    /// Per-op counts (total / tasks).
    pub tasks_f: f64,
    /// Host wall-clock per task, in seconds (same order as the results).
    pub task_seconds: Vec<f64>,
}

impl BatchReport {
    /// Mean operation counts per task.
    pub fn counts_per_task(&self) -> OpCounts {
        // OpCounts is integral; divide each class.
        let mut out = OpCounts::zero();
        for class in phi_simd::OpClass::ALL {
            out.set(
                class,
                (self.total_counts.get(class) as f64 / self.tasks_f) as u64,
            );
        }
        out
    }

    /// Modeled card throughput (tasks/second) for this batch under the
    /// given cost model: the per-task issue cycles divided into the
    /// aggregate issue rate of the placement.
    pub fn modeled_throughput(&self, model: &CostModel) -> f64 {
        let per_task = model.issue_cycles(&self.counts_per_task());
        model.machine().throughput(
            per_task,
            self.threads,
            matches!(self.policy, AffinityPolicy::Scatter),
        )
    }

    /// Host-measured throughput (tasks/second).
    pub fn host_throughput(&self) -> f64 {
        self.tasks as f64 / self.wall_seconds.max(1e-12)
    }

    /// Latency distribution of the individual tasks (host seconds).
    pub fn latency_summary(&self) -> crate::stats::Summary {
        crate::stats::Summary::of(&self.task_seconds)
    }
}

/// A pool of workers standing in for the card's hardware thread contexts.
///
/// Work runs on real host threads (capped by the host, oversubscription is
/// fine — the modeled numbers come from instruction counts, not host
/// scheduling), and each worker accumulates its `phi-simd` operation
/// counts so batches can be converted to modeled card time.
pub struct PhiPool {
    threads: u32,
    policy: AffinityPolicy,
    machine: KncMachine,
}

impl PhiPool {
    /// A pool modeling `threads` hardware contexts of the default card.
    pub fn new(threads: u32, policy: AffinityPolicy) -> Self {
        Self::with_machine(threads, policy, KncMachine::phi_5110p())
    }

    /// A pool over an explicit machine description.
    pub fn with_machine(threads: u32, policy: AffinityPolicy, machine: KncMachine) -> Self {
        assert!(threads >= 1, "need at least one thread");
        PhiPool {
            threads: threads.min(machine.total_threads()),
            policy,
            machine,
        }
    }

    /// Modeled thread count.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The machine being modeled.
    pub fn machine(&self) -> &KncMachine {
        &self.machine
    }

    /// Run `tasks` invocations of `f` (receiving the task index) across the
    /// pool, returning all results in task order plus a [`BatchReport`].
    ///
    /// Host threads are capped at the host's parallelism; the *modeled*
    /// thread count is what enters the throughput model.
    pub fn run_batch<T, F>(&self, tasks: usize, f: F) -> (Vec<T>, BatchReport)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        assert!(tasks > 0, "empty batch");
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(self.threads as usize)
            .min(tasks);

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
        let task_times: Mutex<Vec<f64>> = Mutex::new(vec![0.0; tasks]);
        let counts = Mutex::new(OpCounts::zero());
        let started = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..host_threads {
                scope.spawn(|| {
                    count::reset();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = {
                            let _span = phi_trace::span(phi_trace::Scope::PoolTask);
                            f(i)
                        };
                        let dt = t0.elapsed().as_secs_f64();
                        results.lock()[i] = Some(out);
                        task_times.lock()[i] = dt;
                    }
                    let mine = count::snapshot();
                    counts.lock().accumulate(&mine);
                });
            }
        });

        let wall = started.elapsed().as_secs_f64();
        let outs: Vec<T> = results
            .into_inner()
            .into_iter()
            .map(|o| o.expect("every task index visited"))
            .collect();
        let report = BatchReport {
            tasks,
            threads: self.threads,
            policy: self.policy,
            wall_seconds: wall,
            total_counts: counts.into_inner(),
            tasks_f: tasks as f64,
            task_seconds: task_times.into_inner(),
        };
        (outs, report)
    }
}

/// A persistent fire-and-forget worker pool for `'static` jobs (the shape
/// of a long-running server dispatching handshakes).
///
/// Workers survive panicking jobs: a panic is caught, counted, and the
/// worker moves on to the next job (a crashed handshake must not take the
/// listener down).
pub struct JobPool {
    tx: Option<channel::Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<std::thread::JoinHandle<OpCounts>>,
    drained: Arc<Mutex<OpCounts>>,
    panics: Arc<std::sync::atomic::AtomicU64>,
}

impl JobPool {
    /// Spawn `workers` host threads pulling jobs from a shared queue.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        let (tx, rx) = channel::unbounded::<Box<dyn FnOnce() + Send>>();
        let drained = Arc::new(Mutex::new(OpCounts::zero()));
        let panics = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let drained = Arc::clone(&drained);
                let panics = Arc::clone(&panics);
                std::thread::spawn(move || {
                    count::reset();
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not kill the worker.
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        if outcome.is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                            if phi_trace::is_enabled() {
                                phi_trace::registry().counter_add("pool.jobs.panicked", 1);
                            }
                        }
                    }
                    let mine = count::snapshot();
                    drained.lock().accumulate(&mine);
                    mine
                })
            })
            .collect();
        JobPool {
            tx: Some(tx),
            workers: handles,
            drained,
            panics,
        }
    }

    /// Number of jobs that panicked so far.
    pub fn panicked_jobs(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Enqueue a job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool not shut down")
            .send(Box::new(job))
            .expect("workers alive");
    }

    /// Close the queue, join the workers, and return the summed counts.
    pub fn shutdown(mut self) -> OpCounts {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        *self.drained.lock()
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count::{record, OpClass};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_batch_preserves_order() {
        let pool = PhiPool::new(8, AffinityPolicy::Compact);
        let (out, report) = pool.run_batch(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(report.tasks, 100);
        assert_eq!(report.threads, 8);
    }

    #[test]
    fn run_batch_executes_each_task_once() {
        let pool = PhiPool::new(16, AffinityPolicy::Scatter);
        let hits = AtomicU64::new(0);
        let (_, _) = pool.run_batch(500, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn counts_aggregate_across_workers() {
        let pool = PhiPool::new(4, AffinityPolicy::Compact);
        let (_, report) = pool.run_batch(64, |_| {
            record(OpClass::VMul, 10);
        });
        assert_eq!(report.total_counts.get(OpClass::VMul), 640);
        assert_eq!(report.counts_per_task().get(OpClass::VMul), 10);
    }

    #[test]
    fn modeled_throughput_scales_with_threads() {
        let model = CostModel::knc();
        let mk = |threads| {
            let pool = PhiPool::new(threads, AffinityPolicy::Compact);
            let (_, r) = pool.run_batch(32, |_| record(OpClass::VMul, 1000));
            r.modeled_throughput(&model)
        };
        let t4 = mk(4);
        let t64 = mk(64);
        let t240 = mk(240);
        assert!(t64 > t4 * 10.0, "t64 {t64} vs t4 {t4}");
        assert!(t240 > t64 * 2.0, "t240 {t240} vs t64 {t64}");
    }

    #[test]
    fn scatter_beats_compact_mid_range() {
        let model = CostModel::knc();
        let run = |policy| {
            let pool = PhiPool::new(60, policy);
            let (_, r) = pool.run_batch(16, |_| record(OpClass::VMul, 500));
            r.modeled_throughput(&model)
        };
        assert!(run(AffinityPolicy::Scatter) > run(AffinityPolicy::Compact));
    }

    #[test]
    fn thread_count_clamped_to_machine() {
        let pool = PhiPool::new(100_000, AffinityPolicy::Compact);
        assert_eq!(pool.threads(), 240);
    }

    #[test]
    fn job_pool_runs_everything() {
        let pool = JobPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let h = Arc::clone(&hits);
            pool.submit(move || {
                h.fetch_add(1, Ordering::Relaxed);
                record(OpClass::SAlu, 3);
            });
        }
        let counts = pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        assert_eq!(counts.get(OpClass::SAlu), 600);
    }

    #[test]
    fn host_throughput_positive() {
        let pool = PhiPool::new(2, AffinityPolicy::Compact);
        let (_, r) = pool.run_batch(10, |i| i);
        assert!(r.host_throughput() > 0.0);
        assert!(r.wall_seconds >= 0.0);
    }

    #[test]
    fn per_task_latencies_recorded() {
        let pool = PhiPool::new(4, AffinityPolicy::Compact);
        let (_, r) = pool.run_batch(25, |i| {
            // Unequal work so the distribution is non-degenerate.
            let mut acc = 0u64;
            for k in 0..(i as u64 * 1000) {
                acc = acc.wrapping_add(k);
            }
            acc
        });
        assert_eq!(r.task_seconds.len(), 25);
        assert!(r.task_seconds.iter().all(|&t| t >= 0.0));
        let s = r.latency_summary();
        assert_eq!(s.count, 25);
        assert!(s.max >= s.p50 && s.p50 >= s.min);
    }
}

#[cfg(test)]
mod failure_injection_tests {
    use super::*;
    use phi_simd::count::{record, OpClass};
    use std::sync::atomic::AtomicU64;

    /// Serializes the tests that panic pool jobs: `pool.jobs.panicked`
    /// lives in the process-global registry, so a panicking job of one
    /// test would otherwise land in another test's counter delta.
    static PANICKING_JOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        PANICKING_JOBS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let _serial = serial();
        let pool = JobPool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..40 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                if i % 4 == 0 {
                    panic!("injected failure {i}");
                }
                done.fetch_add(1, Ordering::Relaxed);
                record(OpClass::SAlu, 1);
            });
        }
        let counts = pool.shutdown();
        assert_eq!(
            done.load(Ordering::Relaxed),
            30,
            "non-panicking jobs all ran"
        );
        assert_eq!(counts.get(OpClass::SAlu), 30);
    }

    #[test]
    fn panicked_jobs_counted_and_published() {
        // Deterministic count: a 1-worker pool serializes the jobs, and
        // drop joins the worker before the counters are read.
        let _serial = serial();
        phi_trace::enable();
        let before = phi_trace::registry().counter("pool.jobs.panicked");
        let pool = JobPool::new(1);
        for i in 0..6 {
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("injected {i}");
                }
            });
        }
        // Fence: a 1-worker pool runs jobs in order, so once the fence
        // job has signalled, every earlier job (and its panic) is done.
        let (tx, rx) = crossbeam::channel::unbounded::<()>();
        pool.submit(move || tx.send(()).unwrap());
        rx.recv().unwrap();
        assert_eq!(pool.panicked_jobs(), 3, "three of six jobs panicked");
        let _ = pool.shutdown();
        let after = phi_trace::registry().counter("pool.jobs.panicked");
        phi_trace::disable();
        assert_eq!(after - before, 3);
    }

    #[test]
    fn panic_counter_reports() {
        let _serial = serial();
        let pool = JobPool::new(1);
        pool.submit(|| panic!("boom"));
        pool.submit(|| {});
        // Drain by submitting a fence job and waiting via shutdown.
        let p = Arc::new(AtomicU64::new(0));
        {
            let p = Arc::clone(&p);
            pool.submit(move || {
                p.store(1, Ordering::Relaxed);
            });
        }
        let panics_seen = pool.panicked_jobs(); // racy snapshot, just must not crash
        let _ = panics_seen;
        drop(pool);
        assert_eq!(p.load(Ordering::Relaxed), 1);
    }
}
