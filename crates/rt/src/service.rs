//! Deadline-driven batch aggregation: the collector that turns a
//! stream of independent requests into full-width batch passes.
//!
//! The PhiOpenSSL batch engine only pays off when all sixteen lanes carry
//! live work, but server requests arrive one at a time. [`Collector`]
//! supplies the missing piece: requests are
//! [`submit`](Collector::submit)ted individually and parked; a batch is
//! due as soon as it fills ([`FlushReason::Full`]) or as soon as the
//! oldest parked request has waited `max_wait`
//! ([`FlushReason::Deadline`]) — so latency is bounded by configuration,
//! not by traffic. A bounded queue pushes back on overload:
//! [`submit`](Collector::submit) fails fast with
//! [`SubmitError::QueueFull`] instead of letting latency grow without
//! bound.
//!
//! The collector is a pure state machine over an abstract clock (`f64`
//! seconds): deterministic, single-threaded, and directly drivable by
//! tests and by the virtual-clock load simulation of experiment E14. The
//! threaded service around it is
//! [`FleetScheduler`](crate::fleet::FleetScheduler): each card worker
//! owns one collector, watches its deadline, and executes its flushes.

use std::collections::VecDeque;
use std::fmt;

/// Lane width of the batch CRT engine; a full flush carries this many ops.
pub const BATCH_WIDTH: usize = 16;

/// Tunables of the batch service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Lanes per batch pass (flush fires when this many are parked).
    pub width: usize,
    /// Longest a request may wait for lane-mates, in seconds.
    pub max_wait: f64,
    /// High-water mark: submissions beyond this many parked requests are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_cap: usize,
}

impl Default for ServiceConfig {
    /// Full engine width, 2 ms deadline, four batches of headroom.
    fn default() -> Self {
        ServiceConfig {
            width: BATCH_WIDTH,
            max_wait: 2e-3,
            queue_cap: 4 * BATCH_WIDTH,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) {
        assert!(self.width >= 1, "batch width must be at least 1");
        assert!(self.max_wait >= 0.0, "max_wait must be non-negative");
        assert!(
            self.queue_cap >= self.width,
            "queue capacity below batch width could never fill a batch"
        );
    }
}

/// Receipt for one submitted request, unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why a request could not be (or was not) served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its high-water mark; retry after a flush drains it.
    QueueFull {
        /// Parked requests at the time of rejection.
        depth: usize,
    },
    /// The service is shutting down and admits no new work.
    ServiceShutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "service queue full ({depth} requests parked)")
            }
            SubmitError::ServiceShutdown => {
                write!(f, "batch service shut down")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// What triggered a batch flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// All lanes filled.
    Full,
    /// The oldest parked request reached `max_wait`.
    Deadline,
    /// Service shutdown drained the remainder.
    Drain,
}

/// One parked request inside a [`Collector`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pending<T> {
    /// The receipt handed back at submission.
    pub ticket: Ticket,
    /// The caller's request value.
    pub payload: T,
    /// Clock reading at submission (collector-clock seconds).
    pub submitted_at: f64,
}

/// A batch taken from the collector, ready for execution.
#[derive(Debug, Clone)]
pub struct Batch<T> {
    /// What triggered the flush.
    pub reason: FlushReason,
    /// The batched requests, oldest first (1..=width of them).
    pub entries: Vec<Pending<T>>,
    /// Clock reading when the batch was taken.
    pub taken_at: f64,
    /// Requests still parked after this batch left.
    pub depth_after: usize,
}

impl<T> Batch<T> {
    /// Live lanes in this batch.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Seconds the oldest request in the batch waited.
    pub fn oldest_wait(&self) -> f64 {
        self.entries
            .first()
            .map(|p| self.taken_at - p.submitted_at)
            .unwrap_or(0.0)
    }
}

/// The pure aggregation state machine: parks requests, decides when a
/// batch is due, and hands batches out — against a caller-supplied clock
/// (monotone `f64` seconds), so tests and simulations run on virtual time.
#[derive(Debug)]
pub struct Collector<T> {
    config: ServiceConfig,
    queue: VecDeque<Pending<T>>,
    next_ticket: u64,
    rejected: u64,
}

impl<T> Collector<T> {
    /// An empty collector. Panics on a nonsensical configuration
    /// (zero width, negative wait, capacity below width).
    pub fn new(config: ServiceConfig) -> Self {
        config.validate();
        Collector {
            config,
            queue: VecDeque::new(),
            next_ticket: 0,
            rejected: 0,
        }
    }

    /// The configuration this collector runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Park a request at clock reading `now`; fails fast when the queue
    /// is at its high-water mark.
    pub fn submit(&mut self, payload: T, now: f64) -> Result<Ticket, SubmitError> {
        if self.queue.len() >= self.config.queue_cap {
            self.rejected += 1;
            if phi_trace::is_enabled() {
                phi_trace::registry().counter_add("service.rejected", 1);
            }
            return Err(SubmitError::QueueFull {
                depth: self.queue.len(),
            });
        }
        if phi_trace::is_enabled() {
            phi_trace::registry().counter_add("service.submitted", 1);
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.queue.push_back(Pending {
            ticket,
            payload,
            submitted_at: now,
        });
        Ok(ticket)
    }

    /// Parked request count.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Submissions rejected for backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Clock reading at which the oldest parked request must flush, if
    /// anything is parked.
    pub fn next_deadline(&self) -> Option<f64> {
        self.queue
            .front()
            .map(|p| p.submitted_at + self.config.max_wait)
    }

    /// Whether a batch is due at clock reading `now`, and why.
    pub fn ready(&self, now: f64) -> Option<FlushReason> {
        if self.queue.len() >= self.config.width {
            return Some(FlushReason::Full);
        }
        match self.next_deadline() {
            Some(deadline) if now >= deadline => Some(FlushReason::Deadline),
            _ => None,
        }
    }

    /// Put already-admitted requests back at the head of the queue, in
    /// their original order — the cancellation path of a flush whose
    /// deadline expired mid-retry. Requeued entries keep their original
    /// `submitted_at`, so they stay first in deadline order, and they
    /// bypass the high-water mark: admission was already granted once.
    pub fn requeue_front(&mut self, entries: Vec<Pending<T>>) {
        if phi_trace::is_enabled() && !entries.is_empty() {
            phi_trace::registry().counter_add("service.requeued", entries.len() as u64);
        }
        for p in entries.into_iter().rev() {
            self.queue.push_front(p);
        }
    }

    /// Remove and return up to `n` of the *newest* parked requests — the
    /// work-stealing donor path of the fleet scheduler. The oldest
    /// requests keep their place (and therefore their deadline); returned
    /// entries are in arrival order, keeping their tickets and stamps.
    pub fn steal_back(&mut self, n: usize) -> Vec<Pending<T>> {
        let take = n.min(self.queue.len());
        let stolen: Vec<Pending<T>> = self.queue.split_off(self.queue.len() - take).into();
        if phi_trace::is_enabled() && !stolen.is_empty() {
            phi_trace::registry().counter_add("service.stolen", stolen.len() as u64);
        }
        stolen
    }

    /// Append already-admitted requests taken from another collector
    /// (the work-stealing/migration receiver path), keeping their tickets
    /// and arrival stamps. Bypasses the high-water mark: admission was
    /// granted by the donor.
    pub fn adopt(&mut self, entries: Vec<Pending<T>>) {
        if phi_trace::is_enabled() && !entries.is_empty() {
            phi_trace::registry().counter_add("service.adopted", entries.len() as u64);
        }
        self.queue.extend(entries);
    }

    /// Remove and return the oldest `width`-or-fewer requests as a batch.
    /// Panics if nothing is parked — callers gate on [`Collector::ready`]
    /// or [`Collector::is_empty`].
    pub fn take_batch(&mut self, reason: FlushReason, now: f64) -> Batch<T> {
        assert!(!self.queue.is_empty(), "take_batch on an empty collector");
        let take = self.queue.len().min(self.config.width);
        let entries: Vec<Pending<T>> = self.queue.drain(..take).collect();
        if phi_trace::is_enabled() {
            let reg = phi_trace::registry();
            reg.counter_add("service.flush.count", 1);
            let by = match reason {
                FlushReason::Full => "service.flush.full",
                FlushReason::Deadline => "service.flush.deadline",
                FlushReason::Drain => "service.flush.drain",
            };
            reg.counter_add(by, 1);
            reg.counter_add("service.ops", entries.len() as u64);
            reg.observe(
                "service.occupancy",
                entries.len() as f64 / self.config.width as f64,
            );
        }
        Batch {
            reason,
            entries,
            taken_at: now,
            depth_after: self.queue.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(width: usize, max_wait: f64, queue_cap: usize) -> ServiceConfig {
        ServiceConfig {
            width,
            max_wait,
            queue_cap,
        }
    }

    #[test]
    fn collector_flushes_when_full() {
        let mut c = Collector::new(config(4, 1.0, 16));
        for i in 0..3 {
            c.submit(i, 0.0).unwrap();
            assert_eq!(c.ready(0.0), None);
        }
        c.submit(3, 0.0).unwrap();
        assert_eq!(c.ready(0.0), Some(FlushReason::Full));
        let batch = c.take_batch(FlushReason::Full, 0.0);
        assert_eq!(batch.occupancy(), 4);
        assert_eq!(batch.depth_after, 0);
        assert!(c.is_empty());
        let payloads: Vec<i32> = batch.entries.iter().map(|p| p.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn collector_flushes_on_deadline() {
        let mut c = Collector::new(config(16, 0.5, 64));
        c.submit("a", 1.0).unwrap();
        assert_eq!(c.ready(1.49), None);
        assert_eq!(c.next_deadline(), Some(1.5));
        assert_eq!(c.ready(1.5), Some(FlushReason::Deadline));
        let batch = c.take_batch(FlushReason::Deadline, 1.6);
        assert_eq!(batch.occupancy(), 1);
        assert!((batch.oldest_wait() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn collector_backpressure_counts_rejects() {
        let mut c = Collector::new(config(2, 1.0, 2));
        c.submit(0, 0.0).unwrap();
        c.submit(1, 0.0).unwrap();
        assert_eq!(
            c.submit(2, 0.0).unwrap_err(),
            SubmitError::QueueFull { depth: 2 }
        );
        assert_eq!(c.rejected(), 1);
        // A flush drains the queue; submissions flow again.
        c.take_batch(FlushReason::Full, 0.0);
        assert!(c.submit(3, 0.0).is_ok());
    }

    #[test]
    fn collector_tickets_are_unique_and_ordered() {
        let mut c = Collector::new(config(4, 1.0, 4));
        let t0 = c.submit("x", 0.0).unwrap();
        let t1 = c.submit("y", 0.0).unwrap();
        assert!(t1 > t0);
        // Rejection must not consume a ticket id.
        for _ in 0..2 {
            c.submit("z", 0.0).unwrap();
        }
        let _ = c.submit("w", 0.0).unwrap_err();
        c.take_batch(FlushReason::Full, 0.0);
        let t_next = c.submit("v", 0.0).unwrap();
        assert_eq!(t_next.0, t1.0 + 3);
    }

    #[test]
    fn oversized_queue_drains_in_width_sized_batches() {
        let mut c = Collector::new(config(4, 1.0, 16));
        for i in 0..10 {
            c.submit(i, 0.0).unwrap();
        }
        let b1 = c.take_batch(FlushReason::Full, 0.0);
        assert_eq!(b1.occupancy(), 4);
        assert_eq!(b1.depth_after, 6);
        let b2 = c.take_batch(FlushReason::Full, 0.0);
        assert_eq!(b2.occupancy(), 4);
        let b3 = c.take_batch(FlushReason::Drain, 0.0);
        assert_eq!(b3.occupancy(), 2);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "queue capacity below batch width")]
    fn nonsensical_config_is_rejected() {
        Collector::<u8>::new(config(16, 1.0, 8));
    }

    #[test]
    fn collector_requeue_front_restores_order() {
        let mut c = Collector::new(config(4, 1.0, 4));
        for i in 0..4 {
            c.submit(i, 0.0).unwrap();
        }
        let batch = c.take_batch(FlushReason::Full, 0.5);
        assert!(c.is_empty());
        // Requeue bypasses the high-water mark and restores arrival order.
        c.requeue_front(batch.entries);
        assert_eq!(c.depth(), 4);
        let again = c.take_batch(FlushReason::Full, 1.0);
        let payloads: Vec<i32> = again.entries.iter().map(|p| p.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3]);
        // Tickets and submission stamps survive the round trip.
        assert_eq!(again.entries[0].ticket, Ticket(0));
        assert_eq!(again.entries[0].submitted_at, 0.0);
    }

    #[test]
    fn collector_requeue_interleaves_before_new_arrivals() {
        let mut c = Collector::new(config(4, 1.0, 16));
        c.submit("old", 0.0).unwrap();
        let batch = c.take_batch(FlushReason::Deadline, 2.0);
        c.submit("new", 3.0).unwrap();
        c.requeue_front(batch.entries);
        let drained = c.take_batch(FlushReason::Drain, 4.0);
        let order: Vec<&str> = drained.entries.iter().map(|p| p.payload).collect();
        assert_eq!(order, vec!["old", "new"], "requeued work goes first");
    }
}
