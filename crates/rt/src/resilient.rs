//! The flush ladder of the offload path: deadline-enforced, retrying,
//! breaker-gated batch execution with host-fallback degradation.
//!
//! Every card worker of [`FleetScheduler`](crate::fleet::FleetScheduler)
//! takes its batches from a work-conserving
//! [`Collector`](crate::service::Collector) and hands each flush to its
//! card's ladder, a crate-private `Card` that owns the card's closures
//! and hooks, its cost model, its breaker, its lane quarantine and its
//! modeled virtual clock. The ladder runs every card attempt of a flush
//! through one step:
//!
//! 1. **Breaker gate** — a [`CircuitBreaker`] tracks card health on the
//!    card's modeled virtual clock. While it is open, flushes skip the
//!    card entirely and degrade to the host-scalar fallback; once the
//!    cooldown elapses, half-open probes let a recovered card earn its
//!    traffic back.
//! 2. **Fault consultation** — each card attempt asks the configured
//!    [`FaultSource`](phi_faults::FaultSource) (if any) whether it
//!    faults. A detected fault is recorded before anything runs, and the
//!    lanes it poisons ([`FaultKind::affected_lanes`]: every lane for a
//!    PCIe fault or card reset, a group for a core hang, one lane for an
//!    ECC event) go around again; their batch-mates run on the same
//!    attempt.
//! 3. **Retry with backoff** — only a detected fault spends the retry
//!    budget: poisoned lanes are retried under a capped exponential
//!    [`BackoffPolicy`], all in modeled time, so chaos runs replay
//!    deterministically from the injector seed.
//! 4. **Deadline enforcement** — each flush has a modeled time budget
//!    ([`ResilienceConfig::flush_deadline_s`]); when retrying would blow
//!    it, the flush is cancelled and its live lanes are requeued at the
//!    head of the queue (at most [`ResilienceConfig::max_requeues`] times
//!    per request, never while draining — so shutdown always terminates).
//! 5. **Exactly-once resolution** — every admitted request resolves
//!    exactly once: on the card, on the host fallback, or with a typed
//!    [`OffloadError`] that carries the request's own requeue or
//!    rejection count. No hangs, no lost requests, no double answers.
//! 6. **Verified release** — with
//!    [`IntegrityHooks`](crate::verify::IntegrityHooks) attached
//!    ([`CardSetup::with_integrity`]), no card result reaches a caller
//!    before the host's release check passes. A failed check walks the
//!    graded degradation ladder: re-run the lane once on-card (with the
//!    attempt's poisoned lanes, in lane order, spending no retry budget
//!    and no backoff), quarantine the physical lane
//!    ([`crate::verify::LaneQuarantine`]), escalate repeated quarantines
//!    to the breaker, and finally resolve off-card (host fallback or
//!    [`OffloadError::IntegrityFailure`]; a lane that a quarantine pushes
//!    off the narrowed card before any check saw it reports the detected
//!    fault that sent it around, [`OffloadError::Faulted`]). This is the
//!    countermeasure to *silent* faults ([`FaultKind::is_silent`]), which
//!    corrupt results while the attempt reports success — undetectable
//!    by steps 1–4.
//!
//! The breaker counts a success only after an attempt with no detected
//! fault and no failed check. With no fault source and a closed breaker
//! a flush is one measured `card_fn` invocation; the resilience
//! machinery never records modeled operations of its own, and on a card
//! without a verify hook verification costs nothing.

use crate::fleet::CardSetup;
use crate::service::{Pending, ServiceConfig};
use crate::stats::ResilienceReport;
use crate::verify::{LaneQuarantine, QuarantineConfig};
use phi_faults::{BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, FaultKind};
use phi_simd::cost::CostModel;
use phi_simd::count;
use phi_trace::Scope;
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
    /// The request's card attempts faulted and no host fallback is
    /// configured: every retry of its batch, or the attempts before a
    /// mid-flush lane quarantine narrowed the card past it.
    Faulted {
        /// The detected fault of the request's final attempt.
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
    /// The service never answered this request: its flush was poisoned
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

/// What one flush did: its counters, as a report the card worker merges
/// into the card's; the lanes its card passes released and the modeled
/// seconds those passes took, for the flush's record; and the entries
/// it hands back for requeueing.
pub(crate) struct FlushStats<T, R> {
    pub(crate) report: ResilienceReport,
    pub(crate) card_ops: usize,
    pub(crate) card_modeled_s: f64,
    pub(crate) requeued: Vec<Pending<RJob<T, R>>>,
}

impl<T, R> FlushStats<T, R> {
    pub(crate) fn new() -> Self {
        FlushStats {
            report: ResilienceReport::default(),
            card_ops: 0,
            card_modeled_s: 0.0,
            requeued: Vec::new(),
        }
    }

    /// Entries of the flush this record has settled so far: resolved on
    /// the card or the host, errored, or handed back for requeueing.
    pub(crate) fn settled(&self) -> usize {
        self.card_ops
            + (self.report.host_fallback_ops + self.report.errored_ops) as usize
            + self.requeued.len()
    }
}

/// The entries of the flush in progress, each until it settles, the
/// release-check rejections each has drawn in this flush, and the last
/// detected fault that poisoned each.
struct Lanes<T, R> {
    entries: Vec<Option<Pending<RJob<T, R>>>>,
    rejections: Vec<u32>,
    poisoned_by: Vec<Option<FaultKind>>,
}

impl<T, R> Lanes<T, R> {
    fn job(&self, i: usize) -> &RJob<T, R> {
        &self.entries[i]
            .as_ref()
            .expect("lane already settled")
            .payload
    }

    fn take(&mut self, i: usize) -> Pending<RJob<T, R>> {
        self.entries[i].take().expect("lane already settled")
    }

    fn resolve(&mut self, i: usize, resolution: Result<R, OffloadError>) {
        let _ = self.take(i).payload.reply.send(resolution);
    }

    /// The error of lane `i` leaving the card on the verification
    /// ladder after `attempts` card attempts: the rejections it drew, or,
    /// for a lane no check ever saw, the detected fault that sent it
    /// around.
    fn ladder_error(&self, i: usize, attempts: u32) -> OffloadError {
        match (self.rejections[i], self.poisoned_by[i]) {
            (0, Some(kind)) => OffloadError::Faulted { kind, attempts },
            (rejections, _) => OffloadError::IntegrityFailure { rejections },
        }
    }
}

/// One card's flush ladder: the card's closures and hooks, the ladder's
/// tunables and the card's cost model, plus the state only its worker
/// thread drives, outside the fleet's state lock — the breaker, the lane
/// quarantine and the modeled virtual clock.
pub(crate) struct Card<T, R> {
    setup: CardSetup<T, R>,
    config: ResilienceConfig,
    cost: CostModel,
    breaker: CircuitBreaker,
    quarantine: LaneQuarantine,
    vnow: f64,
}

impl<T: Clone, R> Card<T, R> {
    pub(crate) fn new(setup: CardSetup<T, R>, config: ResilienceConfig, cost: CostModel) -> Self {
        Card {
            setup,
            breaker: CircuitBreaker::new(config.breaker),
            quarantine: LaneQuarantine::new(config.service.width, config.quarantine),
            vnow: 0.0,
            config,
            cost,
        }
    }

    /// Whether the breaker lets the card take work (closed or probing).
    pub(crate) fn online(&self) -> bool {
        self.breaker.state(self.vnow) != BreakerState::Open
    }

    /// Copy the card's breaker, quarantine and clock state into its
    /// report.
    pub(crate) fn report_state(&self, report: &mut ResilienceReport) {
        report.lane_quarantines = self.quarantine.quarantines();
        report.lane_readmissions = self.quarantine.readmissions();
        report.integrity_escalations = self.quarantine.escalations();
        report.quarantined_lanes = self.quarantine.quarantined() as u64;
        report.breaker_trips = self.breaker.trips();
        report.breaker_recoveries = self.breaker.recoveries();
        report.breaker_state = self.breaker.state(self.vnow);
        report.modeled_virtual_seconds = self.vnow;
    }

    /// Execute one flush through the ladder, recording what it did into
    /// `stats`. Consumes `entries`; every entry is either resolved
    /// through its reply channel or returned in `stats.requeued`. If the
    /// card closure panics, the entries `stats` has not settled are
    /// dropped with the unwinding frame, so their waiters see
    /// [`OffloadError::ServiceShutdown`].
    pub(crate) fn flush(
        &mut self,
        entries: Vec<Pending<RJob<T, R>>>,
        draining: bool,
        stats: &mut FlushStats<T, R>,
    ) {
        let mut lanes = Lanes {
            rejections: vec![0; entries.len()],
            poisoned_by: vec![None; entries.len()],
            entries: entries.into_iter().map(Some).collect(),
        };
        let mut pending: Vec<usize> = (0..lanes.entries.len()).collect();

        // Breaker gate: an open breaker sends the whole flush to the host.
        if !self.breaker.allow(self.vnow) {
            self.degrade(&mut lanes, &pending, stats);
            return;
        }
        // Advance the quarantine clock and mask quarantined lanes out: a
        // batch wider than the card's usable lanes requeues its newest
        // overflow entries (arrival stamps intact). A card without a
        // verify hook never quarantines a lane.
        self.quarantine.begin_flush();
        let usable = self.quarantine.usable_lanes().len();
        for i in pending.split_off(usable.min(pending.len())) {
            stats.requeued.push(lanes.take(i));
        }

        let vstart = self.vnow;
        // Card attempts, and the detected faults among them: only the
        // latter spend the retry budget and pace the backoff.
        let (mut attempts, mut faults): (u32, u32) = (0, 0);
        loop {
            attempts += 1;
            // Physical lanes carrying this attempt, by position. Mid-flush
            // quarantines may have narrowed the card below the pending
            // set: the bottom of the ladder takes the rest.
            let mut phys = self.quarantine.usable_lanes();
            if pending.len() > phys.len() {
                let overflow = pending.split_off(phys.len());
                let made = attempts - 1;
                self.off_card(&mut lanes, &overflow, |l, i| l.ladder_error(i, made), stats);
            }
            phys.truncate(pending.len());

            let fault = self
                .setup
                .faults
                .as_ref()
                .and_then(|f| f.next_fault(pending.len()));
            // Silent faults ride the clean-attempt shape: the card reports
            // success, pays no fault penalty and never touches the
            // breaker — only the corrupted results betray them, and only
            // to a verify hook.
            let detected = fault.filter(|k| !k.is_silent());
            let poisoned = match detected {
                Some(kind) => {
                    faults += 1;
                    stats.report.faults_seen += 1;
                    self.vnow += self.config.fault_cost_s;
                    if kind.is_hard() {
                        self.breaker.record_hard_fault(self.vnow);
                    } else {
                        self.breaker.record_fault(self.vnow);
                    }
                    kind.affected_lanes(pending.len())
                }
                None => Vec::new(),
            };
            // Poisoned lanes go around again; the rest run once, as
            // (entry, physical lane) pairs.
            let mut next = Vec::new();
            let mut run = Vec::new();
            for (p, (&i, &lane)) in pending.iter().zip(&phys).enumerate() {
                if poisoned.contains(&p) {
                    lanes.poisoned_by[i] = detected;
                    next.push(i);
                } else {
                    run.push((i, lane));
                }
            }
            if !run.is_empty() {
                let scope = if detected.is_none() && attempts > 1 {
                    Scope::FlushRetry
                } else {
                    Scope::ServiceFlush
                };
                let silent = fault.filter(|k| k.is_silent());
                let failed = self.run(&mut lanes, &run, scope, silent, stats);
                if detected.is_none() && failed.is_empty() {
                    self.breaker.record_success(self.vnow);
                }
                // Graded ladder: a failed lane inside its re-run budget
                // goes around for one more card pass; the rest resolve
                // off-card (host fallback, inside the trust boundary).
                let max_reruns = self.config.quarantine.max_reruns;
                let (rerun, offcard): (Vec<usize>, Vec<usize>) = failed
                    .into_iter()
                    .partition(|&i| lanes.rejections[i] <= max_reruns);
                self.off_card(
                    &mut lanes,
                    &offcard,
                    |l, i| l.ladder_error(i, attempts),
                    stats,
                );
                stats.report.verify_reruns += rerun.len() as u64;
                next.extend(rerun);
                next.sort_unstable();
            }
            pending = next;
            if pending.is_empty() {
                return;
            }
            // A tripped breaker (reset, a fault crossing the threshold, a
            // faulted probe, or a quarantine escalation) degrades the
            // remaining lanes immediately.
            if !self.online() {
                self.degrade(&mut lanes, &pending, stats);
                return;
            }
            // Verification re-runs spend no retry budget and no backoff.
            let Some(kind) = detected else { continue };
            if faults > self.config.backoff.max_retries {
                // Retry ladder exhausted inside one flush.
                let error = OffloadError::Faulted { kind, attempts };
                self.off_card(&mut lanes, &pending, |_, _| error, stats);
                return;
            }
            let delay = self.config.backoff.delay(faults);
            if self.vnow - vstart + delay > self.config.flush_deadline_s {
                // Deadline: cancel the flush. Live lanes requeue (keeping
                // their arrival stamps) unless the card is draining or
                // their requeue budget is spent.
                stats.report.deadline_cancellations = 1;
                let max_requeues = self.config.max_requeues;
                let (forced, requeue): (Vec<usize>, Vec<usize>) = pending
                    .into_iter()
                    .partition(|&i| draining || lanes.job(i).requeues >= max_requeues);
                for i in requeue {
                    let mut entry = lanes.take(i);
                    entry.payload.requeues += 1;
                    stats.requeued.push(entry);
                }
                let deadline = |l: &Lanes<T, R>, i| OffloadError::DeadlineExceeded {
                    requeues: l.job(i).requeues,
                };
                self.off_card(&mut lanes, &forced, deadline, stats);
                return;
            }
            self.vnow += delay;
            stats.report.retries += 1;
        }
    }

    /// Run `run`'s (entry, physical lane) pairs once on the card, priced
    /// under `scope`, apply a silent fault's corruption, and release the
    /// results through the verify gate, priced on the modeled cycle
    /// channel under [`Scope::Verify`]. Passing lanes resolve `Ok` and
    /// clear their physical lane's strikes; failing lanes take a
    /// rejection and a strike (possibly quarantining the lane, possibly
    /// escalating to the breaker as a hard fault) and are returned.
    /// Without a verify hook every result is released unchecked at zero
    /// cost — including silently corrupted ones, which is exactly the
    /// leak the hook closes.
    fn run(
        &mut self,
        lanes: &mut Lanes<T, R>,
        run: &[(usize, usize)],
        scope: Scope,
        silent: Option<FaultKind>,
        stats: &mut FlushStats<T, R>,
    ) -> Vec<usize> {
        let payloads: Vec<T> = run
            .iter()
            .map(|&(i, _)| lanes.job(i).payload.clone())
            .collect();
        let (mut results, ops) = count::measure(|| {
            let _span = phi_trace::span(scope);
            (self.setup.card_fn)(&payloads)
        });
        assert_eq!(
            results.len(),
            payloads.len(),
            "card closure must return one result per payload"
        );
        let modeled = self.cost.single_thread_seconds(&ops);
        self.vnow += modeled;
        stats.card_modeled_s += modeled;
        if let (Some(kind), Some(hooks)) = (silent, &self.setup.integrity) {
            for p in kind.affected_lanes(results.len()) {
                results[p] = (hooks.corrupt)(&payloads[p], &results[p]);
            }
        }
        let Some(check) = self
            .setup
            .integrity
            .as_ref()
            .and_then(|h| h.verify.as_ref())
        else {
            for (&(i, _), r) in run.iter().zip(results) {
                lanes.resolve(i, Ok(r));
                stats.card_ops += 1;
            }
            return Vec::new();
        };
        // One batch-shaped check for the whole pass: the hook sees every
        // (payload, result) pair together, so an RSA checker can judge the
        // flush in masked 16-lane vector passes instead of per-result
        // scalar exponentiations.
        let pairs: Vec<(&T, &R)> = payloads.iter().zip(&results).collect();
        let (verdicts, ops) = count::measure(|| {
            let _span = phi_trace::span(Scope::Verify);
            check(&pairs)
        });
        drop(pairs);
        debug_assert_eq!(verdicts.len(), run.len(), "one verdict per released lane");
        let modeled = self.cost.single_thread_seconds(&ops);
        self.vnow += modeled;
        stats.report.verify_modeled_seconds += modeled;
        stats.report.verified_ops += run.len() as u64;
        let mut failed = Vec::new();
        for ((&(i, lane), r), ok) in run.iter().zip(results).zip(verdicts) {
            if ok {
                lanes.resolve(i, Ok(r));
                stats.card_ops += 1;
                self.quarantine.record_pass(lane);
            } else {
                // The unverified result is dropped, never released.
                lanes.rejections[i] += 1;
                stats.report.verify_failures += 1;
                if self.quarantine.record_failure(lane).escalate {
                    self.breaker.record_hard_fault(self.vnow);
                }
                failed.push(i);
            }
        }
        failed
    }

    /// The breaker is open: send `which` to the host, or, with no
    /// fallback, fail it with [`OffloadError::CardOffline`].
    fn degrade(&mut self, lanes: &mut Lanes<T, R>, which: &[usize], stats: &mut FlushStats<T, R>) {
        stats.report.degraded_flushes = 1;
        self.off_card(lanes, which, |_, _| OffloadError::CardOffline, stats);
    }

    /// Resolve `which` off the card: on the host fallback, or, with no
    /// fallback, with the error `error` builds from the flush's lanes and
    /// each lane's index.
    fn off_card(
        &mut self,
        lanes: &mut Lanes<T, R>,
        which: &[usize],
        error: impl Fn(&Lanes<T, R>, usize) -> OffloadError,
        stats: &mut FlushStats<T, R>,
    ) {
        for &i in which {
            let resolution = match &self.setup.host_fn {
                Some(host) => {
                    let (r, ops) = count::measure(|| {
                        let _span = phi_trace::span(Scope::HostFallback);
                        host(&lanes.job(i).payload)
                    });
                    let modeled = self.cost.single_thread_seconds(&ops);
                    self.vnow += modeled;
                    stats.report.host_modeled_seconds += modeled;
                    stats.report.host_fallback_ops += 1;
                    Ok(r)
                }
                None => {
                    stats.report.errored_ops += 1;
                    Err(error(lanes, i))
                }
            };
            lanes.resolve(i, resolution);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetScheduler};
    use crate::verify::IntegrityHooks;
    use phi_faults::{FaultInjector, FaultRates, FaultScript, FaultSource};
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

    #[test]
    fn drained_deadline_error_reports_the_requests_own_requeues() {
        // The first flush holds the card while a second request parks
        // behind it; the second request's only flush is then the
        // shutdown drain, which faults past the budget and may not
        // requeue. Its error counts the requeues it had: none.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![None, Some(FaultKind::PcieTimeout)]));
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(Some((entered_tx, release_rx)));
        let card = move |xs: &[u64]| {
            let held = gate.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some((entered, release)) = held {
                let _ = entered.send(());
                let _ = release.recv();
            }
            doubler(xs)
        };
        let mut cfg = config(2, 64);
        cfg.flush_deadline_s = 1e-9;
        let setup = CardSetup::new(card).with_faults(script);
        let service = FleetScheduler::new(FleetConfig::default(), cfg, vec![setup]);
        let first = service.submit(1).unwrap();
        entered_rx.recv().unwrap();
        let drained = service.submit(2).unwrap();
        service.begin_shutdown();
        release_tx.send(()).unwrap();
        let report = shutdown(service);
        assert_eq!(first.wait(), Ok(2));
        assert_eq!(
            drained.wait(),
            Err(OffloadError::DeadlineExceeded { requeues: 0 })
        );
        assert_eq!(report.requeues, 0);
        assert_eq!(report.errored_ops, 1);
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
    fn quarantine_overflow_error_reports_the_requests_own_rejections() {
        // Both lanes of a width-2 card fail their check once: lane 0 is
        // quarantined at its first strike, so the re-run set no longer
        // fits and the second request leaves the card after one
        // rejection, not the re-run budget's two.
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![Some(
            FaultKind::SilentBatchCorruption,
        )]));
        let mut cfg = config(2, 64);
        cfg.quarantine.strike_threshold = 1;
        cfg.quarantine.escalate_threshold = 0;
        let service = one_card(cfg, false, Some(script), Some(doubler_hooks()));
        let [a, b] = burst(&service, [5, 6]);
        assert_eq!(a.wait(), Ok(10));
        assert_eq!(
            b.wait(),
            Err(OffloadError::IntegrityFailure { rejections: 1 })
        );
        let report = shutdown(service);
        assert_eq!(report.lane_quarantines, 1);
        assert_eq!(report.errored_ops, 1);
        assert_eq!(report.verify_failures, 2);
    }

    #[test]
    fn verification_reruns_spend_no_retry_budget() {
        // A silent flip sends the only lane around for a check re-run;
        // then every attempt times out. The re-run is not a retry: the
        // flush still gets the full budget of three retries (four
        // detected faults) before giving up, on its fifth card attempt.
        let mut script = vec![Some(FaultKind::SilentLaneFlip { lane: 0 })];
        script.extend([Some(FaultKind::PcieTimeout); 8]);
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(script));
        let mut cfg = config(1, 64);
        cfg.breaker.trip_threshold = u32::MAX; // isolate the retry-exhaustion path
        let service = one_card(cfg, false, Some(script), Some(doubler_hooks()));
        let h = service.submit(5).unwrap();
        assert_eq!(
            h.wait(),
            Err(OffloadError::Faulted {
                kind: FaultKind::PcieTimeout,
                attempts: 5
            })
        );
        let report = shutdown(service);
        assert_eq!(report.verify_reruns, 1);
        assert_eq!(report.retries, 3);
        assert_eq!(report.faults_seen, 4);
    }

    #[test]
    fn lane_pushed_off_a_narrowed_card_reports_its_fault() {
        // An ECC fault poisons lane 1 (payload 6) while payload 5 fails
        // its check on lane 0, whose first strike quarantines it. The
        // re-run set no longer fits the one usable lane, so payload 6,
        // never checked, leaves the card with the fault that sent it
        // around rather than an integrity failure.
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::new(vec![Some(FaultKind::EccLaneFault {
                lane: 1,
            })]));
        let wrong_once = std::sync::atomic::AtomicBool::new(true);
        let card = move |xs: &[u64]| {
            xs.iter()
                .map(|&x| {
                    let wrong =
                        x == 5 && wrong_once.swap(false, std::sync::atomic::Ordering::Relaxed);
                    x * 2 + u64::from(wrong)
                })
                .collect()
        };
        let mut cfg = config(2, 64);
        cfg.quarantine.strike_threshold = 1;
        cfg.quarantine.escalate_threshold = 0;
        let setup = CardSetup::new(card)
            .with_faults(script)
            .with_integrity(doubler_hooks());
        let service = FleetScheduler::new(FleetConfig::default(), cfg, vec![setup]);
        let [a, b] = burst(&service, [5, 6]);
        assert_eq!(a.wait(), Ok(10));
        assert_eq!(
            b.wait(),
            Err(OffloadError::Faulted {
                kind: FaultKind::EccLaneFault { lane: 1 },
                attempts: 1
            })
        );
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.verify_failures, 1);
        assert_eq!(report.lane_quarantines, 1);
        assert_eq!(report.errored_ops, 1);
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
    fn lane_fault_survivors_that_fail_their_check_rerun_in_lane_order() {
        // An ECC fault poisons lane 2; among the survivors, payload 1
        // comes back wrong and fails its check. Both go around again in
        // lane order, [1, 2], so the silent flip on the retry's first
        // lane hits payload 1 a second time and sends it to the host.
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![
            Some(FaultKind::EccLaneFault { lane: 2 }),
            Some(FaultKind::SilentLaneFlip { lane: 0 }),
        ]));
        let wrong_once = std::sync::atomic::AtomicBool::new(true);
        let card = move |xs: &[u64]| {
            xs.iter()
                .map(|&x| {
                    let wrong =
                        x == 1 && wrong_once.swap(false, std::sync::atomic::Ordering::Relaxed);
                    x * 2 + u64::from(wrong)
                })
                .collect()
        };
        let setup = CardSetup::new(card)
            .with_host(|x: &u64| x * 2)
            .with_faults(script)
            .with_integrity(doubler_hooks());
        let service = FleetScheduler::new(FleetConfig::default(), config(4, 64), vec![setup]);
        let handles = burst(&service, [0, 1, 2, 3]);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = shutdown(service);
        assert_eq!(report.faults_seen, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.verify_failures, 2);
        assert_eq!(report.verify_reruns, 1);
        assert_eq!(report.host_fallback_ops, 1);
        assert_eq!(report.service.ops(), 3);
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
