//! The Phi thread pool: real host threads, summed modeled op counts.

use parking_lot::Mutex;
use phi_simd::count::{self, OpCounts};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Result of a [`PhiPool::run_batch`] run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Tasks executed.
    pub tasks: usize,
    /// Host wall-clock for the whole batch.
    pub wall_seconds: f64,
    /// Summed operation counts over all workers.
    pub total_counts: OpCounts,
}

impl BatchReport {
    /// Mean operation counts per task.
    pub fn counts_per_task(&self) -> OpCounts {
        // OpCounts is integral; divide each class.
        let mut out = OpCounts::zero();
        for class in phi_simd::OpClass::ALL {
            out.set(
                class,
                (self.total_counts.get(class) as f64 / self.tasks as f64) as u64,
            );
        }
        out
    }

    /// Host-measured throughput (tasks/second).
    pub fn host_throughput(&self) -> f64 {
        self.tasks as f64 / self.wall_seconds.max(1e-12)
    }
}

/// A pool of workers standing in for the card's hardware thread contexts.
///
/// Work runs on real host threads, at most `threads` of them and never
/// more than the host's parallelism, and each worker accumulates its
/// `phi-simd` operation counts, so a batch's summed counts can be priced
/// on the KNC cost model.
pub struct PhiPool {
    threads: u32,
}

impl PhiPool {
    /// A pool of at most `threads` workers.
    pub fn new(threads: u32) -> Self {
        assert!(threads >= 1, "need at least one thread");
        PhiPool { threads }
    }

    /// Run `tasks` invocations of `f` (receiving the task index) across the
    /// pool, returning all results in task order plus a [`BatchReport`].
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
                        let out = {
                            let _span = phi_trace::span(phi_trace::Scope::PoolTask);
                            f(i)
                        };
                        results.lock()[i] = Some(out);
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
            wall_seconds: wall,
            total_counts: counts.into_inner(),
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
        let pool = PhiPool::new(8);
        let (out, report) = pool.run_batch(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(report.tasks, 100);
    }

    #[test]
    fn run_batch_executes_each_task_once() {
        let pool = PhiPool::new(16);
        let hits = AtomicU64::new(0);
        let (_, _) = pool.run_batch(500, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn counts_aggregate_across_workers() {
        let pool = PhiPool::new(4);
        let (_, report) = pool.run_batch(64, |_| {
            record(OpClass::VMul, 10);
        });
        assert_eq!(report.total_counts.get(OpClass::VMul), 640);
        assert_eq!(report.counts_per_task().get(OpClass::VMul), 10);
    }

    #[test]
    fn host_throughput_positive() {
        let pool = PhiPool::new(2);
        let (_, r) = pool.run_batch(10, |i| i);
        assert!(r.host_throughput() > 0.0);
        assert!(r.wall_seconds >= 0.0);
    }
}
