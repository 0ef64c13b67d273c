//! The offload service: N modeled KNC cards (N ≥ 1) behind one
//! submit-from-anywhere façade with key-affinity routing, work stealing,
//! and per-card fault isolation.
//!
//! The paper's deployment offloads to a single Xeon Phi 5110P; real
//! hosts pack several. This module is the one threaded offload worker of
//! the crate, and it is card-count-agnostic:
//!
//! * [`FleetRouter`] — the pure routing state machine. Given a key
//!   fingerprint (a modulus hash), the per-card queue depths and the
//!   per-card online flags, it picks a card under a [`RoutingPolicy`]:
//!   **Affinity** pins each key to the card that already holds its cached
//!   Montgomery session (cold keys land on the least-loaded card and
//!   stick), **RoundRobin** ignores keys, **Random** draws from a seeded
//!   generator. Deterministic and clockless, so simulations and
//!   proptests drive it directly — the same split as [`Collector`] vs
//!   the card workers that own one.
//! * [`FleetScheduler`] — the threaded wrapper: one worker thread per
//!   card, each owning its own [`Collector`], [`CircuitBreaker`],
//!   modeled virtual clock and [`CostModel`] instance
//!   ([`CostModel::knc_fleet`]), executing every flush through the flush
//!   ladder of [`crate::resilient`] and folding it into the card's
//!   [`ResilienceReport`]. A panicking card closure poisons only its own
//!   flush: the flush's unresolved tickets resolve to
//!   [`OffloadError::ServiceShutdown`], are counted in
//!   [`ServiceReport::poisoned_jobs`](crate::stats::ServiceReport::poisoned_jobs),
//!   and the card keeps serving.
//!
//! Two cross-card mechanisms keep a multi-card fleet balanced and
//! available:
//!
//! * **Work stealing** — an idle card pulls the *newest* parked requests
//!   from the most-loaded card once the imbalance crosses
//!   [`FleetConfig::steal_threshold`]. Stolen entries keep their tickets
//!   and arrival stamps, so exactly-once resolution and arrival ordering
//!   survive the move.
//! * **Graceful capacity loss** — when a card's breaker trips open, its
//!   parked lanes migrate wholesale (reply channels intact) onto the
//!   surviving online cards and the router stops targeting it. The
//!   tripped card earns its traffic back by stealing: host-fallback work
//!   advances its virtual clock through the breaker cooldown, the next
//!   flush probes half-open, and a clean probe ladder puts it back
//!   online. With no online survivor the parked lanes stay where they
//!   are; no migration happens while draining, so shutdown always
//!   terminates.
//!
//! Every card worker is work-conserving: whenever its card is idle and
//! anything is parked it takes a batch of up to `width` lanes at once,
//! so requests that arrive during a flush form the next batch and none
//! waits on a timer. A caller that needs a burst to share flushes parks
//! it whole with [`FleetScheduler::submit_many_keyed`].

use crate::resilient::{
    run_flush, FlushStats, HostFn, OffloadError, RJob, ResilienceConfig, ResilientHandle,
};
use crate::service::{Collector, FlushReason, SubmitError};
use crate::stats::{FlushRecord, ResilienceReport};
use crate::verify::{IntegrityHooks, LaneQuarantine};
use phi_faults::{BreakerState, CircuitBreaker, FaultSource};
use phi_simd::cost::CostModel;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// How the fleet router picks a card for a new submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Pin each key fingerprint to the card that already serves it (its
    /// Montgomery session is warm there); cold keys land on the
    /// least-loaded card and stick. Keyless requests go least-loaded.
    Affinity,
    /// Rotate over the online cards, ignoring keys.
    RoundRobin,
    /// Pick uniformly among the online cards from a seeded generator.
    Random,
}

/// Fleet-level tunables. `cards = 1` is the single-card deployment of
/// the paper: no stealing partner, no migration target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Modeled KNC cards behind the scheduler.
    pub cards: usize,
    /// Card-selection policy for new submissions.
    pub routing: RoutingPolicy,
    /// Queue-depth imbalance (victim depth minus thief depth) at which an
    /// idle card steals work from the most-loaded card.
    pub steal_threshold: usize,
    /// Seed for the [`RoutingPolicy::Random`] draw (unused otherwise).
    pub seed: u64,
}

impl Default for FleetConfig {
    /// One card, affinity routing, steal at an 8-deep imbalance.
    fn default() -> Self {
        FleetConfig {
            cards: 1,
            routing: RoutingPolicy::Affinity,
            steal_threshold: 8,
            seed: 0x0F1EE7,
        }
    }
}

impl FleetConfig {
    fn validate(&self) {
        assert!(self.cards >= 1, "a fleet needs at least one card");
        assert!(self.steal_threshold >= 1, "steal threshold must be >= 1");
    }
}

/// FNV-1a fingerprint of a routing key (RSA callers hash the modulus
/// bytes): the identity the affinity map pins to a card.
pub fn key_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pure routing state machine: no clock, no threads, no locks.
///
/// Holds the key→card affinity map, the round-robin cursor and the
/// seeded random state; callers feed it the observable fleet state
/// (queue depths, online flags) at each decision point, so the
/// virtual-clock simulations of E19 and the fleet proptests exercise the
/// exact production routing code.
#[derive(Debug)]
pub struct FleetRouter {
    config: FleetConfig,
    /// Key fingerprint → home card, insertion-ordered (the map is small:
    /// one entry per distinct modulus the fleet has seen).
    affinity: Vec<(u64, usize)>,
    rr: usize,
    rng: u64,
    affinity_hits: u64,
    affinity_misses: u64,
}

impl FleetRouter {
    /// A fresh router for the given fleet shape.
    pub fn new(config: FleetConfig) -> Self {
        config.validate();
        FleetRouter {
            config,
            affinity: Vec::new(),
            rr: 0,
            rng: config.seed,
            affinity_hits: 0,
            affinity_misses: 0,
        }
    }

    /// The configuration this router runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Keyed submissions that found their key already homed on an
    /// eligible card (the warm-session path).
    pub fn affinity_hits(&self) -> u64 {
        self.affinity_hits
    }

    /// Keyed submissions that had to (re-)home their key — cold keys,
    /// or keys whose home card was offline.
    pub fn affinity_misses(&self) -> u64 {
        self.affinity_misses
    }

    /// The current home card of a key, if any.
    pub fn home_of(&self, key: u64) -> Option<usize> {
        self.affinity
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, c)| c)
    }

    /// Pick the card for a submission. `depths[c]` is card `c`'s parked
    /// queue depth and `online[c]` its breaker-closed flag; when every
    /// card is offline all of them count as eligible again (degrading on
    /// some card beats rejecting, just as a one-card fleet keeps routing
    /// to its only card).
    pub fn route(&mut self, key: Option<u64>, depths: &[usize], online: &[bool]) -> usize {
        debug_assert_eq!(depths.len(), self.config.cards);
        debug_assert_eq!(online.len(), self.config.cards);
        let any_online = online.iter().any(|&o| o);
        let eligible = |c: usize| !any_online || online[c];
        match self.config.routing {
            RoutingPolicy::Affinity => {
                let Some(k) = key else {
                    return least_loaded(depths, eligible);
                };
                if let Some(c) = self.home_of(k) {
                    if eligible(c) {
                        self.affinity_hits += 1;
                        return c;
                    }
                }
                // Cold key, or its home card is offline: re-home on the
                // least-loaded eligible card.
                let c = least_loaded(depths, eligible);
                self.affinity_misses += 1;
                match self.affinity.iter_mut().find(|e| e.0 == k) {
                    Some(entry) => entry.1 = c,
                    None => self.affinity.push((k, c)),
                }
                c
            }
            RoutingPolicy::RoundRobin => {
                for _ in 0..self.config.cards {
                    let c = self.rr % self.config.cards;
                    self.rr += 1;
                    if eligible(c) {
                        return c;
                    }
                }
                0
            }
            RoutingPolicy::Random => {
                let live: Vec<usize> = (0..self.config.cards).filter(|&c| eligible(c)).collect();
                let draw = splitmix64(&mut self.rng) as usize % live.len();
                live[draw]
            }
        }
    }

    /// Pick a card for `thief` to steal from: the deepest queue whose
    /// depth exceeds the thief's by at least the steal threshold
    /// (ties break toward the lowest card index). `None` when the fleet
    /// is balanced.
    pub fn steal_victim(&self, thief: usize, depths: &[usize]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (c, &d) in depths.iter().enumerate() {
            if c == thief || d < depths[thief] + self.config.steal_threshold {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => d > depths[b],
            };
            if better {
                best = Some(c);
            }
        }
        best
    }
}

/// The card a submission routed to `primary` lands on: the primary first,
/// then the other cards by ascending depth — a full home card sheds to
/// the emptiest queue before rejecting. `None` when every card is at the
/// high-water mark `cap`.
fn spill_target(primary: usize, depths: &[usize], cap: usize) -> Option<usize> {
    let mut order: Vec<usize> = (0..depths.len()).filter(|&c| c != primary).collect();
    order.sort_by_key(|&c| depths[c]);
    order.insert(0, primary);
    order.into_iter().find(|&c| depths[c] < cap)
}

fn least_loaded(depths: &[usize], eligible: impl Fn(usize) -> bool) -> usize {
    let mut best = 0usize;
    let mut best_depth = usize::MAX;
    for (c, &d) in depths.iter().enumerate() {
        if eligible(c) && d < best_depth {
            best = c;
            best_depth = d;
        }
    }
    best
}

/// A card's batch executor: one result per payload, in order.
pub type CardFn<T, R> = Box<dyn Fn(&[T]) -> Vec<R> + Send>;

/// Per-card wiring for [`FleetScheduler::new`]: the card's batch
/// executor (its own engine, and therefore its own Montgomery-session
/// cache), its host-scalar fallback and its fault schedule.
pub struct CardSetup<T, R> {
    /// The batch executor for this card: one result per payload, in
    /// order.
    pub card_fn: CardFn<T, R>,
    /// Host-scalar fallback; `None` turns degradation into typed errors.
    pub host_fn: Option<HostFn<T, R>>,
    /// This card's fault schedule; `None` is a healthy card.
    pub faults: Option<Arc<dyn FaultSource>>,
    /// Result-integrity hooks (corruption model + optional verify-on-
    /// release check); `None` releases card results unchecked.
    pub integrity: Option<IntegrityHooks<T, R>>,
}

impl<T, R> CardSetup<T, R> {
    /// A healthy card with no host fallback.
    pub fn new(card_fn: impl Fn(&[T]) -> Vec<R> + Send + 'static) -> Self {
        CardSetup {
            card_fn: Box::new(card_fn),
            host_fn: None,
            faults: None,
            integrity: None,
        }
    }

    /// Attach a host-scalar fallback.
    pub fn with_host(mut self, host_fn: impl Fn(&T) -> R + Send + 'static) -> Self {
        self.host_fn = Some(Box::new(host_fn));
        self
    }

    /// Attach a fault schedule.
    pub fn with_faults(mut self, faults: Arc<dyn FaultSource>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach result-integrity hooks (see
    /// [`IntegrityHooks`]). With a verify
    /// hook present this card's flushes walk the verified-release ladder:
    /// check → re-run → lane quarantine → breaker escalation → host.
    pub fn with_integrity(mut self, integrity: IntegrityHooks<T, R>) -> Self {
        self.integrity = Some(integrity);
        self
    }
}

/// Aggregated fleet telemetry: one [`ResilienceReport`] per card plus
/// the cross-card ledger (steals, migrations, affinity hit rate).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-card resilience telemetry, indexed by card.
    pub cards: Vec<ResilienceReport>,
    /// Requests moved between queues by work stealing.
    pub steals: u64,
    /// Requests migrated off a tripped card onto survivors.
    pub migrations: u64,
    /// Keyed submissions routed to their key's warm home card.
    pub affinity_hits: u64,
    /// Keyed submissions that had to (re-)home their key.
    pub affinity_misses: u64,
}

impl FleetReport {
    /// Roll every per-card report into one fleet-wide
    /// [`ResilienceReport`] via [`ResilienceReport::merge`].
    pub fn merged(&self) -> ResilienceReport {
        let mut out = ResilienceReport::default();
        for card in &self.cards {
            out.merge(card);
        }
        out
    }

    /// Requests resolved anywhere in the fleet.
    pub fn resolved_ops(&self) -> u64 {
        self.cards.iter().map(ResilienceReport::resolved_ops).sum()
    }

    /// Fraction of keyed submissions that hit their warm home card
    /// (0 when no keyed submissions were routed).
    pub fn affinity_hit_rate(&self) -> f64 {
        let total = self.affinity_hits + self.affinity_misses;
        if total == 0 {
            0.0
        } else {
            self.affinity_hits as f64 / total as f64
        }
    }
}

struct CardSlot<T, R> {
    collector: Collector<RJob<T, R>>,
    report: ResilienceReport,
    online: bool,
}

struct FleetState<T, R> {
    cards: Vec<CardSlot<T, R>>,
    router: FleetRouter,
    steals: u64,
    migrations: u64,
    shutdown: bool,
}

struct FleetShared<T, R> {
    state: Mutex<FleetState<T, R>>,
    /// One wake channel per card worker (all on the one state mutex).
    wakes: Vec<Condvar>,
    epoch: Instant,
}

impl<T, R> FleetState<T, R> {
    /// Route one submission for `key` and pick the card it parks on: the
    /// routed card, or the emptiest other card when that one is full.
    /// `Err(primary)` when every card is at its high-water mark.
    fn place(&mut self, key: Option<u64>) -> Result<usize, usize> {
        let depths: Vec<usize> = self.cards.iter().map(|c| c.collector.depth()).collect();
        let online: Vec<bool> = self.cards.iter().map(|c| c.online).collect();
        let primary = self.router.route(key, &depths, &online);
        let cap = self.cards[primary].collector.config().queue_cap;
        spill_target(primary, &depths, cap).ok_or(primary)
    }
}

impl<T, R> FleetShared<T, R> {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

fn lock<'a, T, R>(m: &'a Mutex<FleetState<T, R>>) -> std::sync::MutexGuard<'a, FleetState<T, R>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The N-card scheduler: routes submissions by key affinity, steals for
/// balance, and isolates faults per card. See the module docs for the
/// architecture. Every admitted request resolves exactly once — on a
/// card, on the host fallback, or with a typed [`OffloadError`] — and
/// shutdown drains every parked request first.
pub struct FleetScheduler<T: Send + Clone + 'static, R: Send + 'static> {
    shared: Arc<FleetShared<T, R>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<T: Send + Clone + 'static, R: Send + 'static> FleetScheduler<T, R> {
    /// Start a fleet of `setups.len()` cards (must equal
    /// `fleet.cards`). Every card shares the resilience tunables but
    /// owns its executor, fault schedule, breaker, virtual clock and
    /// [`CostModel`] instance.
    pub fn new(
        fleet: FleetConfig,
        resilience: ResilienceConfig,
        setups: Vec<CardSetup<T, R>>,
    ) -> Self {
        fleet.validate();
        resilience.validate();
        assert_eq!(
            setups.len(),
            fleet.cards,
            "one CardSetup per configured card"
        );
        let models = CostModel::knc_fleet(fleet.cards);
        let shared = Arc::new(FleetShared {
            state: Mutex::new(FleetState {
                cards: (0..fleet.cards)
                    .map(|_| CardSlot {
                        collector: Collector::new(resilience.service),
                        report: ResilienceReport::default(),
                        online: true,
                    })
                    .collect(),
                router: FleetRouter::new(fleet),
                steals: 0,
                migrations: 0,
                shutdown: false,
            }),
            wakes: (0..fleet.cards).map(|_| Condvar::new()).collect(),
            epoch: Instant::now(),
        });
        let workers = setups
            .into_iter()
            .zip(models)
            .enumerate()
            .map(|(card, (setup, cost))| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("phi-fleet-card-{card}"))
                    .spawn(move || fleet_worker(shared, card, resilience, cost, setup))
                    .expect("spawn fleet card worker")
            })
            .collect();
        FleetScheduler { shared, workers }
    }

    /// Submit a keyed request: `key` is the routing fingerprint (see
    /// [`key_fingerprint`]); `None` routes by load alone. Fails fast
    /// with [`SubmitError::QueueFull`] only when *every* eligible card
    /// is at its high-water mark (a full home card spills to the least
    /// loaded one first).
    pub fn submit_keyed(
        &self,
        key: Option<u64>,
        payload: T,
    ) -> Result<ResilientHandle<R>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        let now = self.shared.now();
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(SubmitError::ServiceShutdown);
        }
        // Everything full: submit to the primary anyway so the rejection
        // is accounted exactly like the single-card path.
        let card = state.place(key).unwrap_or_else(|primary| primary);
        let ticket = state.cards[card].collector.submit(
            RJob {
                payload,
                reply,
                requeues: 0,
            },
            now,
        )?;
        drop(state);
        self.shared.wakes[card].notify_one();
        Ok(ResilientHandle::from_parts(ticket, rx))
    }

    /// Submit a burst of keyed requests at once, all or nothing.
    ///
    /// The whole burst is parked under one state lock, each payload
    /// routed as [`submit_keyed`](Self::submit_keyed) routes it with the
    /// burst's earlier payloads already parked, and every card the burst
    /// touched is woken once afterwards. An idle card therefore sees the
    /// burst whole and flushes its `min(burst, width)` oldest lanes
    /// together, where a loop of single submissions would lose its first
    /// lane to an immediate flush.
    ///
    /// A full card spills to the others, so the burst fits exactly when
    /// the fleet's free slots, Σ max(cap − depth, 0), cover it. When they
    /// do not, the call fails with [`SubmitError::QueueFull`]: nothing is
    /// parked, nothing is routed, and the whole burst counts as rejected
    /// on the least-loaded card.
    pub fn submit_many_keyed(
        &self,
        key: Option<u64>,
        payloads: Vec<T>,
    ) -> Result<Vec<ResilientHandle<R>>, SubmitError> {
        let now = self.shared.now();
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return Err(SubmitError::ServiceShutdown);
        }
        // Every card runs the one service config, so shares one cap.
        let cap = state.cards[0].collector.config().queue_cap;
        let depths: Vec<usize> = state.cards.iter().map(|c| c.collector.depth()).collect();
        let free: usize = depths.iter().map(|&d| cap.saturating_sub(d)).sum();
        if payloads.len() > free {
            let card = least_loaded(&depths, |_| true);
            return Err(state.cards[card].collector.reject(payloads.len()));
        }
        let mut touched = vec![false; state.cards.len()];
        let handles = payloads
            .into_iter()
            .map(|payload| {
                let card = state.place(key).expect("the burst fits the free slots");
                let (reply, rx) = mpsc::channel();
                let job = RJob {
                    payload,
                    reply,
                    requeues: 0,
                };
                let ticket = state.cards[card]
                    .collector
                    .submit(job, now)
                    .expect("the burst fits the free slots");
                touched[card] = true;
                ResilientHandle::from_parts(ticket, rx)
            })
            .collect();
        drop(state);
        for (card, _) in touched.iter().enumerate().filter(|&(_, &t)| t) {
            self.shared.wakes[card].notify_one();
        }
        Ok(handles)
    }

    /// Submit an unkeyed request (routed by load/policy alone).
    pub fn submit(&self, payload: T) -> Result<ResilientHandle<R>, SubmitError> {
        self.submit_keyed(None, payload)
    }

    /// Submit keyed and block. The outer error is admission, the inner
    /// one execution.
    pub fn call_keyed(
        &self,
        key: Option<u64>,
        payload: T,
    ) -> Result<Result<R, OffloadError>, SubmitError> {
        Ok(self.submit_keyed(key, payload)?.wait())
    }

    /// Cards in the fleet.
    pub fn cards(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the fleet telemetry so far.
    pub fn report(&self) -> FleetReport {
        let state = lock(&self.shared.state);
        self.build_report(&state)
    }

    /// Stop accepting work, drain every card (drained flushes resolve
    /// instead of requeueing or migrating, so this terminates), and
    /// return the final telemetry.
    pub fn shutdown(mut self) -> FleetReport {
        self.stop_workers();
        let state = lock(&self.shared.state);
        self.build_report(&state)
    }

    fn build_report(&self, state: &FleetState<T, R>) -> FleetReport {
        FleetReport {
            cards: state
                .cards
                .iter()
                .map(|c| {
                    let mut report = c.report.clone();
                    report.service.rejected = c.collector.rejected();
                    report
                })
                .collect(),
            steals: state.steals,
            migrations: state.migrations,
            affinity_hits: state.router.affinity_hits(),
            affinity_misses: state.router.affinity_misses(),
        }
    }

    /// Stop admitting work and wake every card to drain its queue,
    /// without waiting for the workers.
    pub(crate) fn begin_shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        for wake in &self.shared.wakes {
            wake.notify_all();
        }
    }

    fn stop_workers(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            worker.join().expect("fleet card worker panicked");
        }
    }
}

impl<T: Send + Clone + 'static, R: Send + 'static> Drop for FleetScheduler<T, R> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn fleet_worker<T, R>(
    shared: Arc<FleetShared<T, R>>,
    card: usize,
    config: ResilienceConfig,
    cost: CostModel,
    setup: CardSetup<T, R>,
) where
    T: Send + Clone,
    R: Send,
{
    // Metrics published from this thread (all the service/resilient
    // counters inside the flush machinery) carry this card's label.
    phi_trace::set_card(Some(card));
    let CardSetup {
        card_fn,
        host_fn,
        faults,
        integrity,
    } = setup;
    // Breaker, lane quarantine and virtual clock are worker-local:
    // flushes run outside the state lock, and only this thread drives
    // them.
    let mut breaker = CircuitBreaker::new(config.breaker);
    let mut quarantine = LaneQuarantine::new(config.service.width, config.quarantine);
    let mut vnow: f64 = 0.0;
    let mut state = lock(&shared.state);
    loop {
        let now = shared.now();
        // Work-conserving: an idle card takes whatever is parked.
        let mut due = state.cards[card].collector.ready();

        // Work stealing: idle and not shutting down, pull the newest
        // entries from the most-loaded card once the imbalance crosses
        // the threshold. A tripped card steals too — the stolen work
        // advances its virtual clock through the breaker cooldown (via
        // host fallback), which is how it earns its way back online.
        if due.is_none() && !state.shutdown {
            let depths: Vec<usize> = state.cards.iter().map(|c| c.collector.depth()).collect();
            if let Some(victim) = state.router.steal_victim(card, &depths) {
                let take = (depths[victim] - depths[card]) / 2;
                let stolen = state.cards[victim].collector.steal_back(take);
                if !stolen.is_empty() {
                    state.steals += stolen.len() as u64;
                    if phi_trace::is_enabled() {
                        phi_trace::registry().counter_add("fleet.steals", stolen.len() as u64);
                    }
                    state.cards[card].collector.adopt(stolen);
                    due = state.cards[card].collector.ready();
                }
            }
        }

        if let Some(due) = due {
            // Shutdown drains: a partial batch taken now is the drain.
            let draining = state.shutdown;
            let reason = match due {
                FlushReason::Deadline if draining => FlushReason::Drain,
                reason => reason,
            };
            let batch = state.cards[card].collector.take_batch(reason, now);
            drop(state);

            let oldest_wait = batch.oldest_wait();
            let depth_after = batch.depth_after;
            let occupancy = batch.occupancy();
            let mut stats = FlushStats::new();
            let wall_start = Instant::now();
            // A panicking card closure poisons this flush only: the
            // entries it had not settled are dropped with the unwinding
            // frame (their waiters see ServiceShutdown), and the worker
            // lives on to serve the next flush.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_flush(
                    &config,
                    &cost,
                    &card_fn,
                    host_fn.as_deref(),
                    faults.as_deref(),
                    integrity.as_ref(),
                    &mut breaker,
                    &mut quarantine,
                    &mut vnow,
                    batch.entries,
                    draining,
                    &mut stats,
                )
            }));
            let wall_seconds = wall_start.elapsed().as_secs_f64();
            let poisoned = match outcome {
                Ok(()) => 0,
                Err(_) => (occupancy - stats.settled()) as u64,
            };
            if poisoned > 0 && phi_trace::is_enabled() {
                phi_trace::registry().counter_add("service.poisoned_jobs", poisoned);
            }

            state = lock(&shared.state);
            let card_online = breaker.state(vnow) != BreakerState::Open;
            let width = state.cards[card].collector.config().width;
            let slot = &mut state.cards[card];
            if stats.card_completed > 0 {
                slot.report.service.flushes.push(FlushRecord {
                    reason,
                    occupancy: stats.card_completed,
                    width,
                    queue_depth_after: depth_after,
                    oldest_wait,
                    modeled_seconds: stats.card_modeled_s,
                    wall_seconds,
                });
            }
            slot.report.service.poisoned_jobs += poisoned;
            slot.report.faults_seen += stats.faults;
            slot.report.retries += stats.retries;
            slot.report.host_fallback_ops += stats.host_completed as u64;
            slot.report.host_modeled_seconds += stats.host_modeled_s;
            slot.report.errored_ops += stats.errored as u64;
            if stats.deadline_cancelled {
                slot.report.deadline_cancellations += 1;
            }
            if stats.degraded {
                slot.report.degraded_flushes += 1;
            }
            slot.report.verified_ops += stats.verified;
            slot.report.verify_failures += stats.verify_failures;
            slot.report.verify_reruns += stats.verify_reruns;
            slot.report.verify_modeled_seconds += stats.verify_modeled_s;
            slot.report.lane_quarantines = quarantine.quarantines();
            slot.report.lane_readmissions = quarantine.readmissions();
            slot.report.integrity_escalations = quarantine.escalations();
            slot.report.quarantined_lanes = quarantine.quarantined() as u64;
            slot.report.breaker_trips = breaker.trips();
            slot.report.breaker_recoveries = breaker.recoveries();
            slot.report.breaker_state = breaker.state(vnow);
            slot.report.modeled_virtual_seconds = vnow;
            slot.online = card_online;

            let mut leftovers = stats.requeued;
            let survivors: Vec<usize> = if card_online || state.shutdown {
                Vec::new()
            } else {
                state
                    .cards
                    .iter()
                    .enumerate()
                    .filter(|&(c, slot)| c != card && slot.online)
                    .map(|(c, _)| c)
                    .collect()
            };
            if !survivors.is_empty() {
                // The breaker just tripped (or stayed) open: move this
                // card's parked lanes — and any deadline-requeued ones —
                // onto the surviving online cards. Entries move wholesale
                // (tickets, stamps and reply channels intact), so
                // exactly-once resolution is preserved. Skipped during
                // shutdown so draining terminates locally.
                let depth = state.cards[card].collector.depth();
                let mut moving = state.cards[card].collector.steal_back(depth);
                moving.append(&mut leftovers);
                if !moving.is_empty() {
                    let moved = moving.len() as u64;
                    state.migrations += moved;
                    if phi_trace::is_enabled() {
                        phi_trace::registry().counter_add("fleet.migrations", moved);
                    }
                    for (i, entry) in moving.into_iter().enumerate() {
                        let target = survivors[i % survivors.len()];
                        state.cards[target].collector.adopt(vec![entry]);
                    }
                    for &target in &survivors {
                        shared.wakes[target].notify_one();
                    }
                }
            }
            if !leftovers.is_empty() {
                // Deadline-cancelled lanes with nowhere else to go: back
                // onto this card's queue, ahead of the parked work.
                state.cards[card].report.requeues += leftovers.len() as u64;
                state.cards[card].collector.requeue_front(leftovers);
            }
            continue;
        }
        if state.shutdown {
            return;
        }
        // Idle: wake on submit/steal/migration/shutdown, and poll
        // periodically so this card can notice a stealable imbalance even
        // when nothing is routed to it.
        state = shared.wakes[card]
            .wait_timeout(state, std::time::Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use phi_faults::{FaultInjector, FaultKind, FaultRates, FaultScript};

    fn config(width: usize, queue_cap: usize) -> ResilienceConfig {
        ResilienceConfig {
            service: ServiceConfig { width, queue_cap },
            ..ResilienceConfig::default()
        }
    }

    fn fleet(cards: usize, routing: RoutingPolicy) -> FleetConfig {
        FleetConfig {
            cards,
            routing,
            ..FleetConfig::default()
        }
    }

    fn doubler_setup(n: usize) -> Vec<CardSetup<u64, u64>> {
        (0..n)
            .map(|_| {
                CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x * 2).collect())
                    .with_host(|x: &u64| x * 2)
            })
            .collect()
    }

    /// `n` doubling cards whose first flush blocks inside the card until
    /// the returned sender releases it; the receiver hears each card
    /// enter that flush. Work submitted meanwhile stays parked.
    fn gated_setup(
        n: usize,
    ) -> (
        Vec<CardSetup<u64, u64>>,
        mpsc::Receiver<()>,
        mpsc::Sender<()>,
    ) {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let setups = (0..n)
            .map(|_| {
                let (entered, release) = (entered_tx.clone(), Arc::clone(&release_rx));
                let gate = Mutex::new(true);
                CardSetup::new(move |xs: &[u64]| {
                    if std::mem::take(&mut *gate.lock().unwrap()) {
                        let _ = entered.send(());
                        let _ = release.lock().unwrap().recv();
                    }
                    xs.iter().map(|x| x * 2).collect()
                })
            })
            .collect();
        (setups, entered_rx, release_tx)
    }

    #[test]
    fn fingerprint_is_stable_and_spreads() {
        let a = key_fingerprint(b"modulus-a");
        assert_eq!(a, key_fingerprint(b"modulus-a"));
        assert_ne!(a, key_fingerprint(b"modulus-b"));
    }

    #[test]
    fn router_affinity_pins_and_rehomes() {
        let mut router = FleetRouter::new(fleet(3, RoutingPolicy::Affinity));
        let depths = [5, 0, 7];
        let online = [true, true, true];
        // Cold key lands on the least-loaded card and sticks there even
        // when that card later has the deepest queue.
        assert_eq!(router.route(Some(42), &depths, &online), 1);
        assert_eq!(router.route(Some(42), &[0, 9, 0], &online), 1);
        assert_eq!(router.affinity_hits(), 1);
        assert_eq!(router.affinity_misses(), 1);
        // Home card offline: the key re-homes and sticks to its new home.
        assert_eq!(router.route(Some(42), &depths, &[true, false, true]), 0);
        assert_eq!(router.home_of(42), Some(0));
        assert_eq!(router.route(Some(42), &[9, 0, 0], &online), 0);
    }

    #[test]
    fn router_round_robin_skips_offline() {
        let mut router = FleetRouter::new(fleet(3, RoutingPolicy::RoundRobin));
        let depths = [0, 0, 0];
        assert_eq!(router.route(None, &depths, &[true, true, true]), 0);
        assert_eq!(router.route(None, &depths, &[true, true, true]), 1);
        assert_eq!(router.route(None, &depths, &[true, false, true]), 2);
        assert_eq!(router.route(None, &depths, &[true, false, true]), 0);
    }

    #[test]
    fn router_random_is_seeded_and_in_range() {
        let draw = |seed| {
            let mut router = FleetRouter::new(FleetConfig {
                seed,
                ..fleet(4, RoutingPolicy::Random)
            });
            (0..32)
                .map(|_| router.route(None, &[0; 4], &[true; 4]))
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same route sequence");
        assert_ne!(a, draw(8), "different seed diverges");
        assert!(a.iter().all(|&c| c < 4));
        // All-offline fleets still route (degrade-on-card beats reject).
        let mut router = FleetRouter::new(fleet(2, RoutingPolicy::Random));
        let c = router.route(None, &[0, 0], &[false, false]);
        assert!(c < 2);
    }

    #[test]
    fn router_steal_victim_respects_threshold() {
        let router = FleetRouter::new(FleetConfig {
            steal_threshold: 4,
            ..fleet(3, RoutingPolicy::Affinity)
        });
        assert_eq!(router.steal_victim(0, &[0, 3, 0]), None, "below threshold");
        assert_eq!(router.steal_victim(0, &[0, 4, 9]), Some(2), "deepest wins");
        assert_eq!(router.steal_victim(2, &[5, 5, 9]), None, "thief not behind");
    }

    #[test]
    fn single_card_fleet_runs_full_batches() {
        let scheduler = FleetScheduler::new(
            fleet(1, RoutingPolicy::Affinity),
            config(4, 64),
            doubler_setup(1),
        );
        let handles = scheduler.submit_many_keyed(None, (0..8).collect()).unwrap();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = scheduler.shutdown();
        assert_eq!(report.cards.len(), 1);
        assert_eq!(report.resolved_ops(), 8);
        assert_eq!(report.steals, 0);
        assert_eq!(report.migrations, 0);
        let card = &report.cards[0];
        assert_eq!(card.service.flushes_by(FlushReason::Full), 2);
        assert_eq!(card.service.rejected, 0);
        assert_eq!(card.faults_seen, 0);
        assert_eq!(card.host_fallback_ops, 0);
        assert_eq!(card.breaker_state, BreakerState::Closed);
        for f in &card.service.flushes {
            assert_eq!((f.occupancy, f.width), (4, 4));
            assert!(f.wall_seconds >= 0.0 && f.oldest_wait >= 0.0);
        }
    }

    #[test]
    fn idle_card_flushes_a_partial_batch_at_once() {
        // Nothing else will ever arrive: the lone submission completes
        // because an idle card flushes whatever is parked, as a partial
        // batch.
        let scheduler = FleetScheduler::new(
            fleet(1, RoutingPolicy::Affinity),
            config(16, 64),
            doubler_setup(1),
        );
        assert_eq!(scheduler.call_keyed(None, 21).unwrap(), Ok(42));
        let report = scheduler.shutdown().merged();
        assert_eq!(report.service.ops(), 1);
        assert_eq!(report.service.flushes_by(FlushReason::Deadline), 1);
        assert_eq!(report.service.flushes[0].occupancy, 1);
    }

    #[test]
    fn burst_admission_is_all_or_nothing() {
        // The card is held inside its first flush, so the queue only
        // grows: a burst that does not fit parks nothing.
        let cap = 4usize;
        let (setups, entered, release) = gated_setup(1);
        let scheduler =
            FleetScheduler::new(fleet(1, RoutingPolicy::Affinity), config(4, cap), setups);
        let first = scheduler.submit(0).unwrap();
        entered.recv().unwrap();
        let parked = scheduler.submit_many_keyed(None, vec![1, 2, 3]).unwrap();
        match scheduler.submit_many_keyed(None, vec![4, 5]).map(|_| ()) {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 3),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let last = scheduler.submit_many_keyed(None, vec![6]).unwrap();
        assert!(scheduler
            .submit_many_keyed(None, Vec::new())
            .unwrap()
            .is_empty());
        release.send(()).unwrap();
        assert_eq!(first.wait(), Ok(0));
        for (h, x) in parked.into_iter().chain(last).zip([1, 2, 3, 6]) {
            assert_eq!(h.wait(), Ok(x * 2));
        }
        let report = scheduler.shutdown();
        let card = &report.cards[0];
        assert_eq!(card.service.rejected, 2, "each payload of the burst");
        assert_eq!(card.resolved_ops(), 5, "the rejected burst parked nothing");
        // The four parked requests left as one full batch.
        assert_eq!(card.service.flushes_by(FlushReason::Full), 1);
    }

    #[test]
    fn burst_fits_exactly_when_the_fleet_has_the_free_slots() {
        // Both cards are held inside their first flush, each with room
        // for 4: a burst of 9 is refused without routing anything, a
        // burst of 8 fills both queues.
        let (setups, entered, release) = gated_setup(2);
        let scheduler =
            FleetScheduler::new(fleet(2, RoutingPolicy::Affinity), config(4, 4), setups);
        let first = scheduler.submit_many_keyed(None, vec![0, 1]).unwrap();
        entered.recv().unwrap();
        entered.recv().unwrap();
        let key = key_fingerprint(b"burst-key");
        match scheduler
            .submit_many_keyed(Some(key), (0..9).collect())
            .map(|_| ())
        {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 0),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let burst = scheduler
            .submit_many_keyed(Some(key), (2..10).collect())
            .unwrap();
        assert!(matches!(
            scheduler.submit(10),
            Err(SubmitError::QueueFull { depth: 4 })
        ));
        release.send(()).unwrap();
        release.send(()).unwrap();
        for (h, x) in first.into_iter().chain(burst).zip(0..10) {
            assert_eq!(h.wait(), Ok(x * 2));
        }
        let report = scheduler.shutdown();
        assert_eq!(
            (report.affinity_misses, report.affinity_hits),
            (1, 7),
            "the refused burst routed nothing"
        );
        let rejected: Vec<u64> = report.cards.iter().map(|c| c.service.rejected).collect();
        assert_eq!(rejected, [10, 0], "both refusals on the least-loaded card");
        assert_eq!(report.resolved_ops(), 10);
    }

    #[test]
    fn burst_routes_and_spills_like_single_submissions() {
        // A keyed burst homes its key on the least-loaded card, fills it
        // to the high-water mark, then spills to the other card.
        let scheduler = FleetScheduler::new(
            fleet(2, RoutingPolicy::Affinity),
            config(4, 4),
            doubler_setup(2),
        );
        let key = key_fingerprint(b"burst-key");
        let handles = scheduler
            .submit_many_keyed(Some(key), (0..6).collect())
            .unwrap();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = scheduler.shutdown();
        assert_eq!((report.affinity_misses, report.affinity_hits), (1, 5));
        assert_eq!(report.steals, 0);
        assert_eq!(report.cards[0].resolved_ops(), 4);
        assert_eq!(report.cards[1].resolved_ops(), 2);
    }

    #[test]
    fn breaker_trip_without_survivor_requeues_nothing() {
        // One card whose first attempt resets it for good, and a host
        // fallback that holds the degraded flush until four more
        // requests are parked behind it. With no online card to migrate
        // to, the parked requests simply stay queued: no flush cancelled
        // them, so none of them is a requeue.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((entered_tx, release_rx)));
        let setups = vec![
            CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x * 2).collect())
                .with_host(move |x: &u64| {
                    let held = gate.lock().unwrap_or_else(|e| e.into_inner()).take();
                    if let Some((entered, release)) = held {
                        let _ = entered.send(());
                        let _ = release.recv();
                    }
                    x * 2
                })
                .with_faults(Arc::new(FaultScript::new(vec![Some(FaultKind::CardReset)]))),
        ];
        let mut cfg = config(2, 64);
        cfg.breaker.cooldown_s = 1e9;
        let scheduler = FleetScheduler::new(fleet(1, RoutingPolicy::Affinity), cfg, setups);
        let mut handles = scheduler.submit_many_keyed(None, vec![0, 1]).unwrap();
        entered_rx.recv().unwrap(); // the degraded flush is on the host
        handles.extend((2..6).map(|i| scheduler.submit(i).unwrap()));
        release_tx.send(()).unwrap();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = scheduler.shutdown();
        let card = &report.cards[0];
        assert_eq!(card.breaker_trips, 1);
        assert_eq!(card.host_fallback_ops, 6);
        assert_eq!(card.requeues, 0, "parked work is not requeued work");
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn keyed_submissions_stick_to_one_card() {
        let scheduler = FleetScheduler::new(
            fleet(4, RoutingPolicy::Affinity),
            config(4, 64),
            doubler_setup(4),
        );
        let key = key_fingerprint(b"tenant-key");
        let handles: Vec<_> = (0..32)
            .map(|i| scheduler.submit_keyed(Some(key), i).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        let report = scheduler.shutdown();
        assert_eq!(report.affinity_misses, 1, "one cold miss homes the key");
        assert_eq!(report.affinity_hits, 31);
        // All card-path work happened on a single card unless stealing
        // rebalanced a backlog (both are conservation-preserving).
        assert_eq!(report.resolved_ops(), 32);
    }

    #[test]
    fn every_request_resolves_exactly_once_under_fleet_chaos() {
        let setups: Vec<CardSetup<u64, u64>> = (0..3)
            .map(|c| {
                CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x * 2).collect())
                    .with_host(|x: &u64| x * 2)
                    .with_faults(Arc::new(FaultInjector::new(
                        0xF1EE7 + c as u64,
                        FaultRates::uniform(0.3),
                    )) as Arc<dyn FaultSource>)
            })
            .collect();
        let mut cfg = config(4, 256);
        cfg.breaker.cooldown_s = 0.0;
        let scheduler = FleetScheduler::new(fleet(3, RoutingPolicy::RoundRobin), cfg, setups);
        let handles: Vec<_> = (0..300).map(|i| scheduler.submit(i).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2), "request {i}");
        }
        let report = scheduler.shutdown();
        assert_eq!(report.resolved_ops(), 300);
        let merged = report.merged();
        assert_eq!(merged.errored_ops, 0, "host fallback absorbs all faults");
        assert!(merged.faults_seen > 0, "a 30% schedule must fault");
    }

    #[test]
    fn tripped_card_migrates_queue_to_survivors() {
        // Card 0 resets on every attempt and never cools down; cards 1–2
        // are healthy. Everything routed at card 0 must still resolve
        // correctly (host fallback or migration to a survivor).
        let setups: Vec<CardSetup<u64, u64>> = (0..3)
            .map(|c| {
                let base = CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x * 2).collect())
                    .with_host(|x: &u64| x * 2);
                if c == 0 {
                    base.with_faults(Arc::new(FaultScript::repeat(FaultKind::CardReset, 1024))
                        as Arc<dyn FaultSource>)
                } else {
                    base
                }
            })
            .collect();
        let mut cfg = config(4, 256);
        cfg.breaker.cooldown_s = 1e9;
        let scheduler = FleetScheduler::new(fleet(3, RoutingPolicy::RoundRobin), cfg, setups);
        let handles: Vec<_> = (0..120).map(|i| scheduler.submit(i).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2), "request {i}");
        }
        let report = scheduler.shutdown();
        assert_eq!(report.resolved_ops(), 120);
        assert!(report.cards[0].breaker_trips >= 1, "card 0 tripped");
        assert_eq!(report.merged().errored_ops, 0);
    }

    #[test]
    fn shutdown_drains_every_card() {
        // Both cards are held inside their first flush while 24 requests
        // park behind them; shutdown begins before the cards let go, so
        // the parked work leaves as one drain flush per card.
        let (setups, entered, release) = gated_setup(2);
        let scheduler =
            FleetScheduler::new(fleet(2, RoutingPolicy::RoundRobin), config(16, 64), setups);
        let gates: Vec<_> = (100..102).map(|i| scheduler.submit(i).unwrap()).collect();
        entered.recv().unwrap();
        entered.recv().unwrap();
        let handles: Vec<_> = (0..24).map(|i| scheduler.submit(i).unwrap()).collect();
        scheduler.begin_shutdown();
        release.send(()).unwrap();
        release.send(()).unwrap();
        let report = scheduler.shutdown();
        assert_eq!(report.resolved_ops(), 26, "drain resolves parked work");
        assert_eq!(report.merged().service.flushes_by(FlushReason::Drain), 2);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 * 2));
        }
        for (h, x) in gates.into_iter().zip(100..) {
            assert_eq!(h.wait(), Ok(x * 2));
        }
    }

    #[test]
    fn dropped_fleet_drains_instead_of_stranding_tickets() {
        // A ticket that outlives its scheduler still resolves: dropping
        // the scheduler drains the queues exactly like `shutdown`.
        let (setups, entered, release) = gated_setup(1);
        let scheduler =
            FleetScheduler::new(fleet(1, RoutingPolicy::Affinity), config(16, 64), setups);
        let gate = scheduler.submit(1).unwrap();
        entered.recv().unwrap();
        let h = scheduler.submit(9).unwrap();
        scheduler.begin_shutdown();
        release.send(()).unwrap();
        drop(scheduler);
        assert_eq!(gate.wait(), Ok(2));
        assert_eq!(h.wait(), Ok(18));
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let scheduler: FleetScheduler<u64, u64> = FleetScheduler::new(
            fleet(2, RoutingPolicy::Affinity),
            config(4, 64),
            doubler_setup(2),
        );
        lock(&scheduler.shared.state).shutdown = true;
        assert!(matches!(
            scheduler.submit(1).map(|_| ()),
            Err(SubmitError::ServiceShutdown)
        ));
        lock(&scheduler.shared.state).shutdown = false;
    }

    #[test]
    fn full_fleet_rejects_with_queue_full() {
        // A 1-card fleet whose card blocks mid-flush until released: with
        // the worker pinned inside `card_fn`, the queue fills to its
        // high-water mark deterministically and the next submission must
        // bounce with `QueueFull` exactly like the single-card service.
        let cap = 4usize;
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let setups = vec![CardSetup::new(move |xs: &[u64]| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
            xs.iter().map(|x| x * 2).collect()
        })];
        let scheduler =
            FleetScheduler::new(fleet(1, RoutingPolicy::Affinity), config(1, cap), setups);
        let first = scheduler.submit(0).unwrap();
        entered_rx.recv().unwrap(); // the worker is inside the flush, queue empty
        let parked: Vec<_> = (1..=cap as u64)
            .map(|i| scheduler.submit(i).unwrap())
            .collect();
        match scheduler.submit(99).map(|_| ()) {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, cap),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        for _ in 0..(cap + 2) {
            let _ = release_tx.send(());
        }
        assert_eq!(first.wait(), Ok(0));
        for (i, h) in parked.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok((i as u64 + 1) * 2));
        }
        let report = scheduler.shutdown();
        assert_eq!(report.cards[0].service.rejected, 1);
    }

    #[test]
    fn fleet_report_merges_into_one() {
        let scheduler = FleetScheduler::new(
            fleet(2, RoutingPolicy::RoundRobin),
            config(2, 64),
            doubler_setup(2),
        );
        for i in 0..8u64 {
            assert_eq!(scheduler.call_keyed(None, i).unwrap(), Ok(i * 2));
        }
        let report = scheduler.shutdown();
        let merged = report.merged();
        assert_eq!(merged.resolved_ops(), 8);
        assert_eq!(
            merged.modeled_virtual_seconds,
            report
                .cards
                .iter()
                .map(|c| c.modeled_virtual_seconds)
                .fold(0.0, f64::max),
            "fleet virtual time is the slowest card's clock"
        );
    }
}
