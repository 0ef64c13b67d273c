//! The flush ladder of the offload path: deadline-enforced, retrying,
//! breaker-gated batch execution with host-fallback degradation.
//!
//! Every card worker of [`FleetScheduler`](crate::fleet::FleetScheduler)
//! takes its batches from a work-conserving
//! [`Collector`](crate::service::Collector) and executes each flush
//! through one fault-aware loop:
//!
//! 1. **Breaker gate** — a [`CircuitBreaker`] tracks card health on the
//!    card's modeled virtual clock. While it is open, flushes skip the
//!    card entirely and degrade to the host-scalar fallback; once the
//!    cooldown elapses, half-open probes let a recovered card earn its
//!    traffic back.
//! 2. **Fault consultation** — each card attempt asks the configured
//!    [`FaultSource`] (if any) whether it faults. Batch-wide faults
//!    (PCIe corruption/timeout, card reset) fail every lane; lane-granular
//!    faults (core hang, ECC) poison only the affected lanes, and their
//!    batch-mates complete on the same attempt.
//! 3. **Retry with backoff** — poisoned lanes are retried under a capped
//!    exponential [`BackoffPolicy`], all in modeled time, so chaos runs
//!    replay deterministically from the injector seed.
//! 4. **Deadline enforcement** — each flush has a modeled time budget
//!    ([`ResilienceConfig::flush_deadline_s`]); when retrying would blow
//!    it, the flush is cancelled and its live lanes are requeued at the
//!    head of the queue (at most [`ResilienceConfig::max_requeues`] times
//!    per request, never while draining — so shutdown always terminates).
//! 5. **Exactly-once resolution** — every admitted request resolves
//!    exactly once: on the card, on the host fallback, or with a typed
//!    [`OffloadError`]. No hangs, no lost tickets, no double answers.
//! 6. **Verified release** — with [`IntegrityHooks`] attached
//!    ([`CardSetup::with_integrity`](crate::fleet::CardSetup::with_integrity)),
//!    no card result reaches a caller before the host's release check
//!    passes. A failed check walks the graded degradation ladder: re-run
//!    the lane once on-card, quarantine the physical lane
//!    ([`crate::verify::LaneQuarantine`]), escalate repeated
//!    quarantines to the breaker, and finally resolve off-card (host
//!    fallback or [`OffloadError::IntegrityFailure`]). This is the
//!    countermeasure to *silent* faults
//!    ([`phi_faults::FaultKind::is_silent`]), which corrupt results
//!    while the attempt reports success — undetectable by steps 1–4.
//!
//! With no fault source and a closed breaker a flush is one measured
//! `card_fn` invocation; the resilience machinery costs one `Option`
//! check per flush and never records modeled operations of its own, and
//! on a card without a verify hook verification costs nothing.

use crate::service::{Pending, ServiceConfig};
use crate::verify::{IntegrityHooks, LaneQuarantine, QuarantineConfig};
use phi_faults::{
    BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, FaultKind, FaultSource,
};
use phi_simd::cost::CostModel;
use phi_simd::count;
use std::fmt;
use std::sync::mpsc;

/// Tunables of the flush ladder, over and above the collector's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Collector tunables (width, queue cap).
    pub service: ServiceConfig,
    /// Modeled-time budget per flush: attempts, fault penalties and
    /// backoff must fit inside it or the flush is cancelled and its live
    /// lanes requeued.
    pub flush_deadline_s: f64,
    /// Modeled seconds one faulted card attempt wastes (the DMA that
    /// timed out or delivered garbage still occupied the link).
    pub fault_cost_s: f64,
    /// Times one request may be requeued by deadline cancellations
    /// before it is forcibly resolved (host fallback or typed error).
    pub max_requeues: u32,
    /// Retry pacing for faulted attempts.
    pub backoff: BackoffPolicy,
    /// Card-health breaker tunables.
    pub breaker: BreakerConfig,
    /// Lane-quarantine ladder tunables (only consulted when a card
    /// carries a verify hook).
    pub quarantine: QuarantineConfig,
}

impl Default for ResilienceConfig {
    /// Default collector, a 50 ms flush budget, 500 µs per faulted
    /// attempt, two requeues, default backoff, breaker and quarantine.
    fn default() -> Self {
        ResilienceConfig {
            service: ServiceConfig::default(),
            flush_deadline_s: 50e-3,
            fault_cost_s: 500e-6,
            max_requeues: 2,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            quarantine: QuarantineConfig::default(),
        }
    }
}

impl ResilienceConfig {
    pub(crate) fn validate(&self) {
        assert!(
            self.flush_deadline_s > 0.0,
            "flush deadline must be positive"
        );
        assert!(self.fault_cost_s >= 0.0, "fault cost must be non-negative");
        self.backoff.validate();
        self.quarantine.validate();
    }
}

/// Why a request left the offload service without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadError {
    /// Every retry of the request's batch faulted and no host fallback
    /// is configured.
    Faulted {
        /// The fault observed on the final attempt.
        kind: FaultKind,
        /// Card attempts made before giving up.
        attempts: u32,
    },
    /// The request was requeued by deadline cancellations until its
    /// requeue budget ran out, and no host fallback is configured.
    DeadlineExceeded {
        /// Times the request was requeued before being resolved.
        requeues: u32,
    },
    /// The breaker is open (card distrusted) and no host fallback is
    /// configured.
    CardOffline,
    /// The request's card results failed host-side verification past
    /// the on-card re-run budget and no host fallback is configured.
    /// The unverified results were never released.
    IntegrityFailure {
        /// Verification rejections the request accumulated.
        rejections: u32,
    },
    /// The service never answered this ticket: its flush was poisoned
    /// by a panicking card closure, or the service was torn down.
    ServiceShutdown,
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::Faulted { kind, attempts } => {
                write!(f, "offload faulted after {attempts} attempts: {kind}")
            }
            OffloadError::DeadlineExceeded { requeues } => {
                write!(f, "offload deadline exceeded after {requeues} requeues")
            }
            OffloadError::CardOffline => write!(f, "card offline (breaker open), no fallback"),
            OffloadError::IntegrityFailure { rejections } => {
                write!(
                    f,
                    "result failed verification {rejections} times, no fallback"
                )
            }
            OffloadError::ServiceShutdown => write!(f, "offload service shut down"),
        }
    }
}

impl std::error::Error for OffloadError {}

/// The host-scalar fallback executor: one request at a time, no card.
pub type HostFn<T, R> = Box<dyn Fn(&T) -> R + Send>;

/// A request travelling through a card's collector and flush loop.
pub(crate) struct RJob<T, R> {
    pub(crate) payload: T,
    pub(crate) reply: mpsc::Sender<Result<R, OffloadError>>,
    /// Times a deadline cancellation has already put this job back.
    pub(crate) requeues: u32,
}

/// A pending offload result: redeem with [`ResilientHandle::wait`].
#[derive(Debug)]
pub struct ResilientHandle<R> {
    rx: mpsc::Receiver<Result<R, OffloadError>>,
}

impl<R> ResilientHandle<R> {
    /// Assemble a handle around a request's reply channel.
    pub(crate) fn new(rx: mpsc::Receiver<Result<R, OffloadError>>) -> Self {
        ResilientHandle { rx }
    }

    /// Block until the request resolves — on the card, on the host
    /// fallback, or with a typed error. A poisoned flush or a torn-down
    /// service maps to [`OffloadError::ServiceShutdown`]; this never
    /// panics and never hangs (shutdown drains, and drained flushes never
    /// requeue).
    pub fn wait(self) -> Result<R, OffloadError> {
        match self.rx.recv() {
            Ok(resolution) => resolution,
            Err(_) => Err(OffloadError::ServiceShutdown),
        }
    }
}

/// Everything one flush did, merged into the report under the state lock.
pub(crate) struct FlushStats<T, R> {
    pub(crate) card_completed: usize,
    pub(crate) card_modeled_s: f64,
    pub(crate) host_completed: usize,
    pub(crate) host_modeled_s: f64,
    pub(crate) errored: usize,
    pub(crate) faults: u64,
    pub(crate) retries: u64,
    pub(crate) verified: u64,
    pub(crate) verify_failures: u64,
    pub(crate) verify_reruns: u64,
    pub(crate) verify_modeled_s: f64,
    pub(crate) deadline_cancelled: bool,
    pub(crate) degraded: bool,
    pub(crate) requeued: Vec<Pending<RJob<T, R>>>,
}

impl<T, R> FlushStats<T, R> {
    pub(crate) fn new() -> Self {
        FlushStats {
            card_completed: 0,
            card_modeled_s: 0.0,
            host_completed: 0,
            host_modeled_s: 0.0,
            errored: 0,
            faults: 0,
            retries: 0,
            verified: 0,
            verify_failures: 0,
            verify_reruns: 0,
            verify_modeled_s: 0.0,
            deadline_cancelled: false,
            degraded: false,
            requeued: Vec::new(),
        }
    }

    /// Entries of the flush this record has settled so far: resolved on
    /// the card or the host, errored, or handed back for requeueing.
    pub(crate) fn settled(&self) -> usize {
        self.card_completed + self.host_completed + self.errored + self.requeued.len()
    }
}

/// Resolve `indices` (into `entries`) on the host fallback, or with
/// `error` when no fallback exists.
#[allow(clippy::too_many_arguments)]
fn resolve_off_card<T, R>(
    entries: &mut [Option<Pending<RJob<T, R>>>],
    indices: &[usize],
    host_fn: Option<&(dyn Fn(&T) -> R + Send)>,
    error: OffloadError,
    cost: &CostModel,
    vnow: &mut f64,
    stats: &mut FlushStats<T, R>,
) {
    for &i in indices {
        let job = entries[i].as_ref().expect("lane resolved twice");
        match host_fn {
            Some(host) => {
                let (r, ops) = count::measure(|| {
                    let _span = phi_trace::span(phi_trace::Scope::HostFallback);
                    host(&job.payload.payload)
                });
                let modeled = cost.single_thread_seconds(&ops);
                *vnow += modeled;
                stats.host_modeled_s += modeled;
                stats.host_completed += 1;
                let _ = job.payload.reply.send(Ok(r));
            }
            None => {
                stats.errored += 1;
                let _ = job.payload.reply.send(Err(error));
            }
        }
        entries[i] = None;
    }
}

/// Release one card pass's completed lanes through the (optional)
/// verification gate, priced on the modeled cycle channel under
/// [`phi_trace::Scope::Verify`].
///
/// `done` holds the completed entry indices, `phys` the physical lane
/// each ran on (parallel to `done`; consulted only when a verify hook
/// exists). Passing lanes resolve `Ok` and clear their lane's strikes;
/// failing lanes take a strike (possibly quarantining the lane, possibly
/// escalating to the breaker as a hard fault) and are returned so the
/// caller can walk the rest of the degradation ladder. Without a verify
/// hook every result is released unchecked at zero cost — including
/// silently corrupted ones, which is exactly the leak the hook closes.
#[allow(clippy::too_many_arguments)]
fn release_lanes<T, R>(
    entries: &mut [Option<Pending<RJob<T, R>>>],
    done: &[usize],
    phys: &[usize],
    results: Vec<R>,
    integrity: Option<&IntegrityHooks<T, R>>,
    quarantine: &mut LaneQuarantine,
    breaker: &mut CircuitBreaker,
    vfails: &mut [u32],
    cost: &CostModel,
    vnow: &mut f64,
    stats: &mut FlushStats<T, R>,
) -> Vec<usize>
where
    T: Send + Clone,
    R: Send,
{
    let Some(check) = integrity.and_then(|h| h.verify.as_ref()) else {
        for (&i, r) in done.iter().zip(results) {
            let job = entries[i].take().expect("completed lane live");
            let _ = job.payload.reply.send(Ok(r));
            stats.card_completed += 1;
        }
        return Vec::new();
    };
    debug_assert_eq!(done.len(), phys.len());
    // One batch-shaped check for the whole pass: the hook sees every
    // (payload, result) pair together, so an RSA checker can judge the
    // flush in masked 16-lane vector passes instead of per-result
    // scalar exponentiations.
    let pairs: Vec<(&T, &R)> = done
        .iter()
        .zip(&results)
        .map(|(&i, r)| {
            let job = entries[i].as_ref().expect("completed lane live");
            (&job.payload.payload, r)
        })
        .collect();
    let (verdicts, ops) = count::measure(|| {
        let _span = phi_trace::span(phi_trace::Scope::Verify);
        check(&pairs)
    });
    drop(pairs);
    debug_assert_eq!(verdicts.len(), done.len(), "one verdict per released lane");
    let modeled = cost.single_thread_seconds(&ops);
    *vnow += modeled;
    stats.verify_modeled_s += modeled;
    stats.verified += done.len() as u64;
    let mut failed: Vec<usize> = Vec::new();
    for (p, (r, ok)) in results.into_iter().zip(verdicts).enumerate() {
        let i = done[p];
        if ok {
            let job = entries[i].take().expect("completed lane live");
            let _ = job.payload.reply.send(Ok(r));
            stats.card_completed += 1;
            quarantine.record_pass(phys[p]);
        } else {
            // The unverified result is dropped, never released.
            vfails[i] += 1;
            stats.verify_failures += 1;
            if quarantine.record_failure(phys[p]).escalate {
                breaker.record_hard_fault(*vnow);
            }
            failed.push(i);
        }
    }
    failed
}

/// Execute one flush through the breaker/fault/retry/deadline loop
/// (plus, with integrity hooks, the verify-on-release ladder), recording
/// what happened into `stats`. Consumes `entries`; every entry is either
/// resolved through its reply channel or returned in
/// `FlushStats::requeued`. If `card_fn` panics, the entries `stats` has
/// not settled are dropped with the unwinding frame, so their waiters see
/// [`OffloadError::ServiceShutdown`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_flush<T, R, F>(
    config: &ResilienceConfig,
    cost: &CostModel,
    card_fn: &F,
    host_fn: Option<&(dyn Fn(&T) -> R + Send)>,
    faults: Option<&dyn FaultSource>,
    integrity: Option<&IntegrityHooks<T, R>>,
    breaker: &mut CircuitBreaker,
    quarantine: &mut LaneQuarantine,
    vnow: &mut f64,
    entries: Vec<Pending<RJob<T, R>>>,
    draining: bool,
    stats: &mut FlushStats<T, R>,
) where
    T: Send + Clone,
    R: Send,
    F: Fn(&[T]) -> Vec<R>,
{
    let mut entries: Vec<Option<Pending<RJob<T, R>>>> = entries.into_iter().map(Some).collect();
    let mut pending: Vec<usize> = (0..entries.len()).collect();
    let verifying = integrity.is_some_and(IntegrityHooks::is_verified);
    let mut vfails: Vec<u32> = vec![0; entries.len()];

    // Breaker gate: an open breaker sends the whole flush to the host.
    if !breaker.allow(*vnow) {
        stats.degraded = true;
        resolve_off_card(
            &mut entries,
            &pending,
            host_fn,
            OffloadError::CardOffline,
            cost,
            vnow,
            stats,
        );
        return;
    }

    if verifying {
        // Advance the quarantine clock and mask quarantined lanes out:
        // a batch wider than the card's usable lanes requeues its
        // newest overflow entries (tickets and stamps intact).
        quarantine.begin_flush();
        let usable = quarantine.usable_lanes().len();
        if pending.len() > usable {
            let overflow = pending.split_off(usable);
            for i in overflow {
                let entry = entries[i].take().expect("pending lane live");
                stats.requeued.push(entry);
            }
        }
    }

    let vstart = *vnow;
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        // Physical lanes carrying this attempt, parallel to `pending`
        // (quarantine attribution; only maintained when verifying).
        let phys: Vec<usize> = if verifying {
            let usable = quarantine.usable_lanes();
            if pending.len() > usable.len() {
                // Mid-flush quarantines narrowed the card below the
                // re-run set: the bottom of the ladder takes the rest.
                let overflow = pending.split_off(usable.len());
                let rejections = quarantine.config().max_reruns + 1;
                resolve_off_card(
                    &mut entries,
                    &overflow,
                    host_fn,
                    OffloadError::IntegrityFailure { rejections },
                    cost,
                    vnow,
                    stats,
                );
            }
            usable.into_iter().take(pending.len()).collect()
        } else {
            Vec::new()
        };
        let fault = faults.and_then(|f| f.next_fault(pending.len()));
        // Silent faults ride the clean-attempt shape: the card reports
        // success, pays no fault penalty and never touches the breaker —
        // only the corrupted results betray them, and only to a verify
        // hook.
        let silent = fault.filter(|k| k.is_silent());
        match fault.filter(|k| !k.is_silent()) {
            None => {
                // Clean-shaped card attempt over the still-pending lanes
                // (possibly silently corrupted).
                let payloads: Vec<T> = pending
                    .iter()
                    .map(|&i| {
                        entries[i]
                            .as_ref()
                            .expect("pending lane live")
                            .payload
                            .payload
                            .clone()
                    })
                    .collect();
                let scope = if attempts == 1 {
                    phi_trace::Scope::ServiceFlush
                } else {
                    phi_trace::Scope::FlushRetry
                };
                let (mut results, ops) = count::measure(|| {
                    let _span = phi_trace::span(scope);
                    card_fn(&payloads)
                });
                assert_eq!(
                    results.len(),
                    payloads.len(),
                    "card closure must return one result per payload"
                );
                let modeled = cost.single_thread_seconds(&ops);
                *vnow += modeled;
                stats.card_modeled_s += modeled;
                if let (Some(kind), Some(hooks)) = (silent, integrity) {
                    for p in kind.affected_lanes(results.len()) {
                        results[p] = (hooks.corrupt)(&payloads[p], &results[p]);
                    }
                }
                let done = std::mem::take(&mut pending);
                let failed = release_lanes(
                    &mut entries,
                    &done,
                    &phys,
                    results,
                    integrity,
                    quarantine,
                    breaker,
                    &mut vfails,
                    cost,
                    vnow,
                    stats,
                );
                if failed.is_empty() {
                    breaker.record_success(*vnow);
                    return;
                }
                // Graded ladder: failed lanes inside their re-run budget
                // go around for one more card pass; the rest resolve
                // off-card (host fallback, inside the trust boundary).
                let max_reruns = quarantine.config().max_reruns;
                let (rerun, offcard): (Vec<usize>, Vec<usize>) =
                    failed.into_iter().partition(|&i| vfails[i] <= max_reruns);
                if !offcard.is_empty() {
                    resolve_off_card(
                        &mut entries,
                        &offcard,
                        host_fn,
                        OffloadError::IntegrityFailure {
                            rejections: max_reruns + 1,
                        },
                        cost,
                        vnow,
                        stats,
                    );
                }
                if rerun.is_empty() {
                    return;
                }
                stats.verify_reruns += rerun.len() as u64;
                pending = rerun;
                // A quarantine escalation may have tripped the breaker:
                // degrade the re-run set instead of re-trusting the card.
                if breaker.state(*vnow) == BreakerState::Open {
                    stats.degraded = true;
                    resolve_off_card(
                        &mut entries,
                        &pending,
                        host_fn,
                        OffloadError::CardOffline,
                        cost,
                        vnow,
                        stats,
                    );
                    return;
                }
            }
            Some(kind) => {
                stats.faults += 1;
                *vnow += config.fault_cost_s;
                if kind.is_hard() {
                    breaker.record_hard_fault(*vnow);
                } else {
                    breaker.record_fault(*vnow);
                }
                if !kind.is_batch_wide() {
                    // Lane-granular fault: the unaffected batch-mates
                    // complete on this very attempt; only the poisoned
                    // lanes go around again.
                    let affected = kind.affected_lanes(pending.len());
                    let positions: Vec<usize> = (0..pending.len())
                        .filter(|p| !affected.contains(p))
                        .collect();
                    let survivors: Vec<usize> = positions.iter().map(|&p| pending[p]).collect();
                    let mut next: Vec<usize> = affected.into_iter().map(|p| pending[p]).collect();
                    if !survivors.is_empty() {
                        let payloads: Vec<T> = survivors
                            .iter()
                            .map(|&i| {
                                entries[i]
                                    .as_ref()
                                    .expect("survivor live")
                                    .payload
                                    .payload
                                    .clone()
                            })
                            .collect();
                        let (results, ops) = count::measure(|| {
                            let _span = phi_trace::span(phi_trace::Scope::ServiceFlush);
                            card_fn(&payloads)
                        });
                        assert_eq!(results.len(), payloads.len());
                        let modeled = cost.single_thread_seconds(&ops);
                        *vnow += modeled;
                        stats.card_modeled_s += modeled;
                        let sphys: Vec<usize> = if verifying {
                            positions.iter().map(|&p| phys[p]).collect()
                        } else {
                            Vec::new()
                        };
                        let failed = release_lanes(
                            &mut entries,
                            &survivors,
                            &sphys,
                            results,
                            integrity,
                            quarantine,
                            breaker,
                            &mut vfails,
                            cost,
                            vnow,
                            stats,
                        );
                        if !failed.is_empty() {
                            let max_reruns = quarantine.config().max_reruns;
                            let (rerun, offcard): (Vec<usize>, Vec<usize>) =
                                failed.into_iter().partition(|&i| vfails[i] <= max_reruns);
                            if !offcard.is_empty() {
                                resolve_off_card(
                                    &mut entries,
                                    &offcard,
                                    host_fn,
                                    OffloadError::IntegrityFailure {
                                        rejections: max_reruns + 1,
                                    },
                                    cost,
                                    vnow,
                                    stats,
                                );
                            }
                            if !rerun.is_empty() {
                                stats.verify_reruns += rerun.len() as u64;
                                // Failed survivors go around with the
                                // poisoned lanes, in lane order.
                                next.extend(rerun);
                                next.sort_unstable();
                            }
                        }
                    }
                    pending = next;
                }
                if pending.is_empty() {
                    return;
                }
                // A tripped breaker (reset, or this fault crossing the
                // threshold; a faulted probe re-opens too) degrades the
                // remaining lanes immediately.
                if breaker.state(*vnow) == BreakerState::Open {
                    stats.degraded = true;
                    resolve_off_card(
                        &mut entries,
                        &pending,
                        host_fn,
                        OffloadError::CardOffline,
                        cost,
                        vnow,
                        stats,
                    );
                    return;
                }
                if attempts > config.backoff.max_retries {
                    // Retry ladder exhausted inside one flush.
                    resolve_off_card(
                        &mut entries,
                        &pending,
                        host_fn,
                        OffloadError::Faulted { kind, attempts },
                        cost,
                        vnow,
                        stats,
                    );
                    return;
                }
                let delay = config.backoff.delay(attempts);
                if *vnow - vstart + delay > config.flush_deadline_s {
                    // Deadline: cancel the flush. Live lanes requeue
                    // (keeping their tickets and arrival stamps) unless
                    // we are draining or their requeue budget is spent.
                    stats.deadline_cancelled = true;
                    let mut forced: Vec<usize> = Vec::new();
                    for &i in &pending {
                        let job = entries[i].as_mut().expect("pending lane live");
                        if draining || job.payload.requeues >= config.max_requeues {
                            forced.push(i);
                        } else {
                            job.payload.requeues += 1;
                            let entry = entries[i].take().expect("pending lane live");
                            stats.requeued.push(entry);
                        }
                    }
                    let requeues = config.max_requeues;
                    resolve_off_card(
                        &mut entries,
                        &forced,
                        host_fn,
                        OffloadError::DeadlineExceeded { requeues },
                        cost,
                        vnow,
                        stats,
                    );
                    return;
                }
                *vnow += delay;
                stats.retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{CardSetup, FleetConfig, FleetScheduler};
    use crate::stats::ResilienceReport;
    use phi_faults::{FaultInjector, FaultRates, FaultScript};
    use std::sync::Arc;

    fn config(width: usize, queue_cap: usize) -> ResilienceConfig {
        ResilienceConfig {
            service: ServiceConfig { width, queue_cap },
            ..ResilienceConfig::default()
        }
    }

    fn doubler(xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|x| x * 2).collect()
    }

    /// A one-card fleet whose card doubles, with an optional doubling
    /// host fallback: the flush ladder in isolation.
    fn one_card(
        cfg: ResilienceConfig,
        host: bool,
        faults: Option<Arc<dyn FaultSource>>,
        integrity: Option<IntegrityHooks<u64, u64>>,
    ) -> FleetScheduler<u64, u64> {
        let setup = CardSetup {
            card_fn: Box::new(doubler),
            host_fn: host.then(|| Box::new(|x: &u64| x * 2) as HostFn<u64, u64>),
            faults,
            integrity,
        };
        FleetScheduler::new(FleetConfig::default(), cfg, vec![setup])
    }

    fn shutdown(service: FleetScheduler<u64, u64>) -> ResilienceReport {
        service.shutdown().merged()
    }

    /// Park `xs` at once, so an idle card flushes them together.
    fn burst<const N: usize>(
        service: &FleetScheduler<u64, u64>,
        xs: [u64; N],
    ) -> [ResilientHandle<u64>; N] {
        let handles = service.submit_many_keyed(None, xs.to_vec()).unwrap();
        handles.try_into().unwrap()
    }

    /// Redeem a handle, giving up after a few seconds, so a dead card
    /// worker fails a test instead of hanging it.
    fn wait_bounded(h: ResilientHandle<u64>) -> Option<Result<u64, OffloadError>> {
        match h.rx.recv_timeout(std::time::Duration::from_secs(3)) {
            Ok(resolution) => Some(resolution),
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(OffloadError::ServiceShutdown)),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        }
    }

    #[test]
    fn panicking_card_poisons_only_its_flush() {
        let setup = CardSetup::new(|xs: &[u64]| {
            if xs.contains(&13) {
                panic!("injected poison");
            }
            doubler(xs)
        });
        let service = FleetScheduler::new(FleetConfig::default(), config(2, 16), vec![setup]);
        // This pair flushes together and poisons its flush.
        let [a, b] = burst(&service, [13, 1]);
        assert_eq!(wait_bounded(a), Some(Err(OffloadError::ServiceShutdown)));
        assert_eq!(wait_bounded(b), Some(Err(OffloadError::ServiceShutdown)));
        // The card survived: a clean pair still completes.
        let [c, d] = burst(&service, [2, 3]);
        let (c, d) = (wait_bounded(c), wait_bounded(d));
        let report = shutdown(service);
        assert_eq!(c, Some(Ok(4)), "the card worker died with its flush");
        assert_eq!(d, Some(Ok(6)));
        assert_eq!(report.service.poisoned_jobs, 2);
        assert_eq!(report.service.ops(), 2, "only the clean flush completed");
    }

    #[test]
    fn soft_fault_retries_and_completes_on_card() {
        // One timeout, then a healthy card: the batch must complete on
        // the card after a single retry.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::PcieTimeout)]));
        let service = one_card(config(4, 64), true, Some(script), None);
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.service.ops(), 4, "all lanes completed on card");
        assert_eq!(report.host_fallback_ops, 0);
    }

    #[test]
    fn lane_fault_spares_the_batch_mates() {
        // An ECC fault on one lane: the other lanes complete on the
        // faulted attempt; the poisoned lane completes on the retry.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::EccLaneFault {
                lane: 2,
            })]));
        let service = one_card(config(4, 64), true, Some(script), None);
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.service.ops(), 4);
        // Two card passes happened (3 survivors + 1 retried lane), but
        // exactly one fault and one retry were recorded.
        assert_eq!(report.retries, 1);
    }

    #[test]
    fn card_reset_trips_the_breaker_and_degrades() {
        // A card reset on every attempt: batch 1 trips the breaker (hard
        // fault) and degrades to the host; later batches skip the card
        // outright while the breaker is open.
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::repeat(FaultKind::CardReset, 64));
        let mut cfg = config(4, 64);
        cfg.breaker.cooldown_s = 1e9; // never recovers inside the test
        let service = one_card(cfg, true, Some(script), None);
        let handles: Vec<_> = (0..8).map(|i| service.submit(i).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2), "host fallback is correct");
        }
        let report = shutdown(service);
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_state, BreakerState::Open);
        assert_eq!(report.host_fallback_ops, 8);
        assert_eq!(report.service.ops(), 0, "nothing completed on card");
        assert!(report.degraded_flushes >= 1);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        // Reset on the first attempt, then a healthy card. Zero cooldown
        // means the very next flush probes; after `probe_successes`
        // clean probes the breaker closes again.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::CardReset)]));
        let mut cfg = config(1, 64);
        cfg.breaker.cooldown_s = 0.0;
        cfg.breaker.probe_successes = 2;
        let service = one_card(cfg, true, Some(script), None);
        for i in 0..4u64 {
            assert_eq!(service.call_keyed(None, i).unwrap(), Ok(i * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_recoveries, 1);
        assert_eq!(report.breaker_state, BreakerState::Closed);
        // Every request completed (card retry or probe), none errored.
        assert_eq!(report.host_fallback_ops + report.service.ops() as u64, 4);
        assert_eq!(report.errored_ops, 0);
    }

    #[test]
    fn no_fallback_yields_typed_errors() {
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::repeat(FaultKind::PcieTimeout, 64));
        let mut cfg = config(2, 64);
        cfg.breaker.trip_threshold = u32::MAX; // isolate the retry-exhaustion path
        let service = one_card(cfg, false, Some(script), None);
        let a = service.submit(1).unwrap();
        let b = service.submit(2).unwrap();
        match a.wait() {
            Err(OffloadError::Faulted { kind, attempts }) => {
                assert_eq!(kind, FaultKind::PcieTimeout);
                assert!(attempts > 1);
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        assert!(b.wait().is_err());
        let report = shutdown(service);
        assert_eq!(report.errored_ops, 2);
        assert_eq!(report.resolved_ops(), 2);
    }

    #[test]
    fn shutdown_drain_terminates_under_total_fault_rate() {
        // 100% batch-wide faults, and 32 requests parked behind a first
        // flush whose host fallback is held until shutdown has begun:
        // they resolve via the drain path, which must not requeue (else
        // shutdown would never terminate).
        let inj: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(
            9,
            FaultRates {
                pcie_timeout: 1.0,
                ..FaultRates::none()
            },
        ));
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(Some((entered_tx, release_rx)));
        let host = move |x: &u64| {
            let held = gate.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some((entered, release)) = held {
                let _ = entered.send(());
                let _ = release.recv();
            }
            x * 2
        };
        let mut cfg = config(16, 64);
        cfg.breaker.cooldown_s = 0.0;
        let setup = CardSetup::new(doubler).with_host(host).with_faults(inj);
        let service = FleetScheduler::new(FleetConfig::default(), cfg, vec![setup]);
        let first = service.submit(100).unwrap();
        entered_rx.recv().unwrap();
        let handles: Vec<_> = (0..32).map(|i| service.submit(i).unwrap()).collect();
        service.begin_shutdown();
        release_tx.send(()).unwrap();
        let report = shutdown(service);
        assert_eq!(report.resolved_ops(), 33);
        assert!(
            report.service.flushes.is_empty(),
            "every card attempt faulted"
        );
        assert_eq!(first.wait(), Ok(200));
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
    }

    #[test]
    fn deadline_cancellation_requeues_then_resolves() {
        // Zero flush budget and permanent faults: the first attempt of
        // every flush blows the deadline, lanes requeue up to the cap,
        // then resolve on the host. The request must still complete.
        let inj: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(
            5,
            FaultRates {
                pcie_corruption: 1.0,
                ..FaultRates::none()
            },
        ));
        let mut cfg = config(2, 64);
        cfg.flush_deadline_s = 1e-9; // any fault penalty blows it
        cfg.max_requeues = 2;
        cfg.breaker.trip_threshold = u32::MAX; // isolate the deadline path
        let service = one_card(cfg, true, Some(inj), None);
        let h = service.submit(21).unwrap();
        assert_eq!(h.wait(), Ok(42));
        let report = shutdown(service);
        assert!(report.deadline_cancellations >= 1);
        assert_eq!(report.requeues, 2, "requeued to the cap, then forced");
        assert_eq!(report.host_fallback_ops, 1);
    }

    // ---- verified offload -------------------------------------------

    /// Doubler-typed hooks: corruption adds one (so the result is off by
    /// one), verification checks the doubling contract.
    fn doubler_hooks() -> IntegrityHooks<u64, u64> {
        IntegrityHooks::verified(|_, r| r + 1, |x, r| *r == x * 2)
    }

    fn verified_service(
        cfg: ResilienceConfig,
        faults: Option<Arc<dyn FaultSource>>,
    ) -> FleetScheduler<u64, u64> {
        one_card(cfg, true, faults, Some(doubler_hooks()))
    }

    #[test]
    fn verified_clean_path_checks_everything_and_rejects_nothing() {
        let service = verified_service(config(4, 64), None);
        let handles: Vec<_> = (0..8).map(|i| service.submit(i).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.verified_ops, 8, "every released result was checked");
        assert_eq!(report.verify_failures, 0, "honest results never rejected");
        assert_eq!(report.verify_reruns, 0);
        assert_eq!(report.lane_quarantines, 0);
        // A u64 check records no counted big-number ops, so its modeled
        // price is zero here; the RSA layer's tests pin the real (~17
        // Montgomery multiplications) verification cost.
        assert_eq!(report.verify_modeled_seconds, 0.0);
    }

    #[test]
    fn silent_lane_flip_is_caught_and_rerun_on_card() {
        // One silent flip on lane 2, then a clean card: the corrupted
        // result is rejected, the lane re-runs once, and the caller gets
        // the correct value. Nothing touches the detected-fault ledger.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::SilentLaneFlip {
                lane: 2,
            })]));
        let service = verified_service(config(4, 64), Some(script));
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2), "no corrupted result escapes");
        }
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 0, "silent faults are unobservable");
        assert_eq!(report.retries, 0, "verify re-runs are not backoff retries");
        assert_eq!(report.verify_failures, 1);
        assert_eq!(report.verify_reruns, 1);
        assert_eq!(report.host_fallback_ops, 0, "re-run resolved it on-card");
        assert_eq!(report.service.ops(), 4);
    }

    #[test]
    fn silent_batch_corruption_reruns_every_lane() {
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![Some(
            FaultKind::SilentBatchCorruption,
        )]));
        let service = verified_service(config(4, 64), Some(script));
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.verify_failures, 4);
        assert_eq!(report.verify_reruns, 4);
        assert_eq!(report.host_fallback_ops, 0);
    }

    #[test]
    fn unverified_service_releases_silently_corrupted_results() {
        // The leak the verify hook closes: corrupt-only hooks model the
        // silent fault but no check runs, so the wrong value reaches the
        // caller — the Bellcore scenario.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::SilentLaneFlip {
                lane: 1,
            })]));
        let service = one_card(
            config(4, 64),
            true,
            Some(script),
            Some(IntegrityHooks::corrupt_only(|_, r| r + 1)),
        );
        let handles = burst(&service, [0, 1, 2, 3]);
        let results: Vec<u64> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(results, vec![0, 3, 4, 6], "lane 1 leaked 2*1 + 1");
        let report = shutdown(service);
        assert_eq!(report.verified_ops, 0, "nothing was checked");
        assert_eq!(report.verify_failures, 0);
    }

    #[test]
    fn persistent_corruption_quarantines_the_lane_and_falls_back() {
        // Silent flips on lane 1 on every attempt: the re-run budget
        // (1) is spent, the request resolves on the host, and repeat
        // offenses quarantine the physical lane out of future batches.
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::repeat(
            FaultKind::SilentLaneFlip { lane: 1 },
            64,
        ));
        let service = verified_service(config(4, 64), Some(script));
        let mut quarantined = false;
        for round in 0..4u64 {
            let handles = burst(&service, [0, 1, 2, 3].map(|i| round * 4 + i));
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.wait(),
                    Ok((round * 4 + i as u64) * 2),
                    "every result correct, wherever it resolved"
                );
            }
            if service.report().merged().quarantined_lanes > 0 {
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "repeat verify failures must quarantine a lane");
        let report = shutdown(service);
        assert!(report.verify_failures >= 2);
        assert!(report.host_fallback_ops >= 1, "re-run budget exhausted");
        assert!(report.lane_quarantines >= 1);
        assert_eq!(report.faults_seen, 0, "still invisible to fault ledger");
    }

    #[test]
    fn verify_failure_without_host_is_a_typed_error() {
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::repeat(FaultKind::SilentBatchCorruption, 64));
        let service = one_card(config(2, 64), false, Some(script), Some(doubler_hooks()));
        let h = service.submit(5).unwrap();
        let err = h.wait().unwrap_err();
        assert_eq!(err, OffloadError::IntegrityFailure { rejections: 2 });
        let report = shutdown(service);
        assert_eq!(report.errored_ops, 1);
        assert_eq!(report.verify_failures, 2, "initial attempt + one re-run");
    }

    #[test]
    fn detected_fault_survivors_still_get_verified() {
        // An ECC fault on lane 0 plus a silent flip on the same attempt
        // cannot happen in one draw, so stage them: ECC first (survivors
        // verify clean), then a silent flip on the retry.
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![
            Some(FaultKind::EccLaneFault { lane: 0 }),
            Some(FaultKind::SilentLaneFlip { lane: 0 }),
        ]));
        let service = verified_service(config(4, 64), Some(script));
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 1, "the ECC fault");
        assert_eq!(report.verify_failures, 1, "the silent flip on the retry");
        // 3 survivors + the retried lane twice (flip, then clean re-run).
        assert_eq!(report.verified_ops, 5);
        assert_eq!(report.service.ops(), 4);
    }

    #[test]
    fn verified_mode_is_cycle_identical_when_absent() {
        // Two cards without hooks must produce identical virtual clocks —
        // verification must cost nothing when off.
        let run = || {
            let service = one_card(config(4, 64), true, None, None);
            let handles: Vec<_> = (0..8).map(|i| service.submit(i).unwrap()).collect();
            handles.into_iter().for_each(|h| {
                h.wait().unwrap();
            });
            shutdown(service).modeled_virtual_seconds
        };
        assert_eq!(run(), run());
    }
}
