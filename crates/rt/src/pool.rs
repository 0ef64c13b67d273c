//! The Phi thread pool: real host threads, modeled card placement.

use parking_lot::Mutex;
use phi_simd::count::{self, OpCounts};
use phi_simd::{CostModel, KncMachine};
use std::sync::atomic::{AtomicUsize, Ordering};
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
