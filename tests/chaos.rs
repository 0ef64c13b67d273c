//! Chaos suite for the fault-injected offload path: under scripted and
//! randomized card-fault schedules, every request must complete
//! correctly or fail with a typed error — no hangs, no lost tickets, no
//! wrong plaintexts — and the breaker must trip to host fallback and
//! earn its way back through half-open probes.
//!
//! The randomized schedules honour `CHAOS_SEED` (decimal or 0x-hex) so a
//! CI failure is reproducible from the seed printed on stderr.

use phi_mont::MpssBaseline;
use phiopenssl_suite::core_lib::{FleetConfig, PhiConfig, RoutingPolicy};
use phiopenssl_suite::faults::{
    correlated_reset_scripts, BreakerConfig, BreakerState, FaultInjector, FaultKind, FaultRates,
    FaultScript, FaultSource,
};
use phiopenssl_suite::rsa::key::RsaPrivateKey;
use phiopenssl_suite::rsa::{RsaBatchService, RsaOps};
use phiopenssl_suite::rt::service::ServiceConfig;
use phiopenssl_suite::rt::{
    CardSetup, FleetScheduler, OffloadError, ResilienceConfig, ResilienceReport,
};
use phiopenssl_suite::ssl::drive_concurrent_fleet;
use phiopenssl_suite::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn test_key() -> RsaPrivateKey {
    RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xC8A05), 256).unwrap()
}

/// The fault schedule seed: `CHAOS_SEED` from the environment when set
/// (the CI chaos-smoke job passes a random one), a fixed default
/// otherwise. Printed so a failing run can be replayed.
fn chaos_seed(default: u64) -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(default);
    eprintln!("chaos seed: {seed} (replay with CHAOS_SEED={seed})");
    seed
}

/// The offload service on one card (the default fleet shape) with an
/// optional fault schedule for that card.
fn one_card(
    key: &RsaPrivateKey,
    phi: &PhiConfig,
    config: ResilienceConfig,
    faults: Option<Arc<dyn FaultSource>>,
) -> RsaBatchService {
    RsaBatchService::new_fleet(key, phi, config, vec![faults]).unwrap()
}

/// The verify-on-release configuration of [`one_card`].
fn verified() -> PhiConfig {
    PhiConfig::builder().verified().build()
}

fn unshare(service: Arc<RsaBatchService>) -> RsaBatchService {
    Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"))
}

fn quick_config() -> ResilienceConfig {
    ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    }
}

/// A card reset mid-stream must trip the breaker immediately, push the
/// affected batch to the host fallback, and — once the cooldown elapses
/// on the modeled clock — recover through half-open probes so later
/// batches run on the card again.
#[test]
fn card_reset_mid_batch_trips_breaker_then_recovers() {
    let key = test_key();
    // Second flush eats a hard fault; everything after is clean. A zero
    // cooldown opens the probe window on the modeled clock right away,
    // and one good probe closes the breaker.
    let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![
        None,
        Some(FaultKind::CardReset),
        None,
        None,
        None,
    ]));
    let config = ResilienceConfig {
        breaker: BreakerConfig {
            trip_threshold: 3,
            cooldown_s: 0.0,
            probe_successes: 1,
        },
        ..quick_config()
    };
    let service = one_card(&key, &PhiConfig::default(), config, Some(script));
    let ops = RsaOps::new(Box::new(MpssBaseline));
    for i in 1u64..=5 {
        let m = phiopenssl_suite::bigint::BigUint::from(i * 1_000_003);
        let c = ops.public_op(key.public(), &m).unwrap();
        assert_eq!(service.call(c).unwrap(), m, "request {i} answered wrong");
    }
    let report = service.shutdown_fleet().merged();
    assert_eq!(report.errored_ops, 0, "fallback leaves no errors");
    assert_eq!(report.resolved_ops(), 5, "every request resolved");
    assert!(
        report.breaker_trips >= 1,
        "card reset must trip the breaker"
    );
    assert!(
        report.breaker_recoveries >= 1,
        "clean probes must close the breaker again"
    );
    assert_eq!(report.breaker_state, BreakerState::Closed);
    assert!(
        report.service.ops() >= 1,
        "post-recovery batches run on the card"
    );
}

/// With the breaker locked open (huge cooldown), every batch after the
/// trip degrades to the host: answers stay correct, the card sees no
/// further flushes, and the degradation is visible in the report.
#[test]
fn open_breaker_degrades_whole_batches_to_host() {
    let key = test_key();
    let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(vec![Some(FaultKind::CardReset)]));
    let config = ResilienceConfig {
        breaker: BreakerConfig {
            trip_threshold: 1,
            cooldown_s: 1e9,
            probe_successes: 1,
        },
        ..quick_config()
    };
    let service = one_card(&key, &PhiConfig::default(), config, Some(script));
    let ops = RsaOps::new(Box::new(MpssBaseline));
    for i in 1u64..=6 {
        let m = phiopenssl_suite::bigint::BigUint::from(i * 31_337);
        let c = ops.public_op(key.public(), &m).unwrap();
        assert_eq!(service.call(c).unwrap(), m);
    }
    let report = service.shutdown_fleet().merged();
    assert_eq!(report.errored_ops, 0);
    assert_eq!(report.resolved_ops(), 6);
    assert_eq!(report.breaker_state, BreakerState::Open);
    assert!(report.degraded_flushes >= 1, "open breaker sheds batches");
    assert!(report.host_fallback_ops >= 5, "host absorbs the load");
}

/// The conservation invariant under a randomized schedule: many threads,
/// many requests, a seeded fault injector — every submitted request
/// comes back exactly once with the correct plaintext.
#[test]
fn randomized_fault_schedule_resolves_every_request_exactly_once() {
    let seed = chaos_seed(0xFA17_5EED);
    let key = test_key();
    let faults: Arc<dyn FaultSource> =
        Arc::new(FaultInjector::new(seed, FaultRates::uniform(0.25)));
    let service = Arc::new(one_card(
        &key,
        &PhiConfig::default(),
        quick_config(),
        Some(faults),
    ));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let key = key.clone();
            std::thread::spawn(move || {
                let plain = RsaOps::new(Box::new(MpssBaseline));
                for i in 0..PER_THREAD {
                    let m = phiopenssl_suite::bigint::BigUint::from(t * 1_000_003 + i + 1);
                    let c = plain.public_op(key.public(), &m).unwrap();
                    match service.call(c) {
                        Ok(got) => assert_eq!(got, m, "seed {seed}: wrong plaintext"),
                        Err(e) => panic!("seed {seed}: request errored: {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let report = unshare(service).shutdown_fleet().merged();
    assert_eq!(
        report.resolved_ops(),
        THREADS * PER_THREAD,
        "seed {seed}: conservation violated"
    );
    assert_eq!(
        report.errored_ops, 0,
        "seed {seed}: host fallback covers all"
    );
}

/// Full-stack chaos: concurrent TLS handshakes with a faulty card. Every
/// handshake must still succeed — faults cost retries and host work,
/// never a failed connection.
#[test]
fn handshakes_survive_card_chaos_end_to_end() {
    let seed = chaos_seed(0xD00_C8A0);
    let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0x55C8), 512).unwrap();
    let faults: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(seed, FaultRates::uniform(0.4)));
    let (ok, _pool, fleet) = drive_concurrent_fleet(
        &key,
        || RsaOps::new(Box::new(MpssBaseline)),
        8,
        4,
        &PhiConfig::default(),
        quick_config(),
        vec![Some(faults)],
    )
    .unwrap();
    let report = fleet.merged();
    assert_eq!(ok, 8, "seed {seed}: a handshake failed under chaos");
    assert_eq!(report.errored_ops, 0, "seed {seed}");
    assert_eq!(report.resolved_ops(), 8, "seed {seed}");
}

/// The degradation path must be invisible in the answers: a service
/// whose card faults on every attempt (pure host-fallback operation)
/// returns plaintexts bit-identical to a healthy card-path service and
/// to the sequential scalar oracle, for the same ciphertext stream.
#[test]
fn host_fallback_answers_are_bit_identical_to_the_card_path() {
    let seed = chaos_seed(0xB17_1DE4);
    let key = test_key();
    let phi = PhiConfig::default();
    let card = one_card(&key, &phi, quick_config(), None);
    let faults: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(seed, FaultRates::uniform(1.0)));
    let host = one_card(&key, &phi, quick_config(), Some(faults));
    let ops = RsaOps::new(Box::new(MpssBaseline));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF_10AD);
    for i in 0..24u64 {
        let m = phiopenssl_suite::bigint::BigUint::random_below(&mut rng, key.public().n());
        let c = ops.public_op(key.public(), &m).unwrap();
        let via_card = card.call(c.clone()).unwrap();
        let via_host = host.call(c.clone()).unwrap();
        let via_oracle = ops.private_op(&key, &c).unwrap();
        assert_eq!(via_card, via_host, "seed {seed}: request {i} split paths");
        assert_eq!(via_card, via_oracle, "seed {seed}: request {i} vs oracle");
        assert_eq!(via_card, m, "seed {seed}: request {i} wrong plaintext");
    }
    let card_report = card.shutdown_fleet().merged();
    let host_report = host.shutdown_fleet().merged();
    assert_eq!(
        card_report.host_fallback_ops, 0,
        "healthy card never falls back"
    );
    assert_eq!(
        host_report.host_fallback_ops, 24,
        "a card faulting on every attempt resolves everything on the host"
    );
    assert_eq!(host_report.errored_ops, 0);
}

/// The fleet correlated-failure drill (the CI chaos-smoke shape): a
/// seed-chosen subset of a 3-card fleet eats a burst of whole-card
/// resets while concurrent submitters keep the queues loaded. Tripped
/// cards migrate their queued work to survivors; every request must
/// still resolve exactly once with the right plaintext.
#[test]
fn fleet_correlated_card_resets_resolve_every_request_exactly_once() {
    let seed = chaos_seed(0xF1EE_7D11);
    let key = test_key();
    const CARDS: usize = 3;
    // Two of the three cards reset on flushes 2..=4 (one clean flush,
    // then a burst of three hard faults), chosen by the seed.
    let scripts = correlated_reset_scripts(seed, CARDS, 2, 1, 3);
    let faults: Vec<Option<Arc<dyn FaultSource>>> = scripts
        .into_iter()
        .map(|s| Some(Arc::new(s) as Arc<dyn FaultSource>))
        .collect();
    let phi = PhiConfig::builder()
        .fleet(FleetConfig {
            cards: CARDS,
            // Round-robin spreads the one-key load over every card, so
            // the affected cards are guaranteed to be under load when
            // their reset burst fires (affinity would pin the whole
            // stream to one home card and could miss the drill).
            routing: RoutingPolicy::RoundRobin,
            ..FleetConfig::default()
        })
        .expect("valid fleet shape")
        .build();
    let service = Arc::new(RsaBatchService::new_fleet(&key, &phi, quick_config(), faults).unwrap());
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let key = key.clone();
            std::thread::spawn(move || {
                let plain = RsaOps::new(Box::new(MpssBaseline));
                for i in 0..PER_THREAD {
                    let m = phiopenssl_suite::bigint::BigUint::from(t * 7_654_321 + i + 1);
                    let c = plain.public_op(key.public(), &m).unwrap();
                    match service.call(c) {
                        Ok(got) => assert_eq!(got, m, "seed {seed}: wrong plaintext"),
                        Err(e) => panic!("seed {seed}: request errored: {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let report = unshare(service).shutdown_fleet();
    assert_eq!(report.cards.len(), CARDS);
    assert_eq!(
        report.resolved_ops(),
        THREADS * PER_THREAD,
        "seed {seed}: conservation violated"
    );
    assert_eq!(
        report.merged().errored_ops,
        0,
        "seed {seed}: host fallback covers every degraded lane"
    );
    assert!(
        report.merged().faults_seen >= 1,
        "seed {seed}: the reset burst must have fired"
    );
}

/// The fleet's blessed-config identity claim, checked to the bit *and*
/// the modeled cycle: a one-card fleet fed deterministic full-width
/// batches — including a scripted whole-card reset — answers like the
/// sequential oracle and reproduces, field for field, the report the
/// retired single-card resilient service produced under the identical
/// fault script. The pinned values are that service's; the modeled
/// virtual clock is compared bit for bit, on the engine the card runs
/// (its batch ladders take the committed tuning-table point).
#[test]
fn single_card_fleet_is_bit_and_cycle_identical_to_resilient() {
    let key = test_key();
    // Each round of 4 submissions is parked at once, so it is exactly
    // one occupancy-4 flush: the flush composition is deterministic.
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        breaker: BreakerConfig {
            trip_threshold: 3,
            cooldown_s: 0.0,
            probe_successes: 1,
        },
        ..ResilienceConfig::default()
    };
    let schedule = FaultScript::new(vec![
        None,
        Some(FaultKind::CardReset),
        None,
        None,
        None,
        None,
    ]);
    // The pinned clock is a modeled-channel figure: name the backend
    // rather than rely on the default.
    let phi = PhiConfig::builder()
        .backend(Backend::ModeledKnc)
        .expect("the model runs anywhere")
        .build();
    let fleet = one_card(&key, &phi, config, Some(Arc::new(schedule)));
    let ops = RsaOps::new(Box::new(MpssBaseline));
    for round in 0..3u64 {
        let batch: Vec<_> = (0..4u64)
            .map(|lane| {
                let m = phiopenssl_suite::bigint::BigUint::from(round * 1_000_003 + lane + 1);
                let c = ops.public_op(key.public(), &m).unwrap();
                (m, c)
            })
            .collect();
        let tickets = fleet
            .submit_many(batch.iter().map(|(_, c)| c.clone()).collect())
            .unwrap();
        for ((m, c), t) in batch.iter().zip(tickets) {
            let got = t.wait().unwrap();
            assert_eq!(&got, m, "round {round}: wrong plaintext");
            assert_eq!(
                got,
                ops.private_op(&key, c).unwrap(),
                "round {round}: split from the sequential oracle"
            );
        }
    }
    let one_card = fleet.shutdown_fleet().merged();
    assert_eq!(one_card.service.ops(), 12);
    assert_eq!(one_card.service.flush_count(), 3);
    assert_eq!(one_card.faults_seen, 1);
    assert_eq!(one_card.host_fallback_ops, 0);
    assert_eq!(one_card.breaker_trips, 1);
    assert_eq!(one_card.breaker_recoveries, 1);
    assert_eq!(one_card.breaker_state, BreakerState::Closed);
    assert_eq!(one_card.requeues, 0);
    assert_eq!(one_card.degraded_flushes, 0);
    assert_eq!(one_card.errored_ops, 0);
    assert_eq!(
        one_card.modeled_virtual_seconds.to_bits(),
        1.642_358_974_358_974_6e-3_f64.to_bits(),
        "cards = 1 must be cycle-identical, not just bit-identical"
    );
}

/// One point of the silent-fault sweep: four threads push 32 requests
/// through the verified one-card service while the card silently
/// corrupts lanes at `rate` (schedule seed `seed ^ point`). Every answer
/// must be the right plaintext, every request must resolve, and every
/// release must be accounted for: `verified_ops` counts every check,
/// rejected ones included, so a released card result is a check that
/// passed (`verified_ops - verify_failures`) and the rest of the
/// requests resolved on the host.
fn silent_sweep_point(seed: u64, point: u64, rate: f64) -> ResilienceReport {
    let key = test_key();
    let faults: Option<Arc<dyn FaultSource>> = if rate > 0.0 {
        Some(Arc::new(FaultInjector::new(
            seed ^ point,
            FaultRates::silent(rate),
        )))
    } else {
        None
    };
    let service = Arc::new(one_card(&key, &verified(), quick_config(), faults));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 8;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let key = key.clone();
            std::thread::spawn(move || {
                let plain = RsaOps::new(Box::new(MpssBaseline));
                for i in 0..PER_THREAD {
                    let m = phiopenssl_suite::bigint::BigUint::from(t * 2_718_281 + i + 1);
                    let c = plain.public_op(key.public(), &m).unwrap();
                    match service.call(c) {
                        Ok(got) => {
                            assert_eq!(got, m, "seed {seed} rate {rate}: corrupted release")
                        }
                        Err(e) => panic!("seed {seed} rate {rate}: request errored: {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let report = unshare(service).shutdown_fleet().merged();
    assert_eq!(
        report.resolved_ops(),
        THREADS * PER_THREAD,
        "seed {seed} rate {rate}: conservation violated"
    );
    assert_eq!(report.errored_ops, 0, "seed {seed} rate {rate}");
    assert_eq!(
        report.faults_seen, 0,
        "seed {seed} rate {rate}: silent faults must stay invisible"
    );
    assert_eq!(
        report.verified_ops - report.verify_failures + report.host_fallback_ops,
        report.resolved_ops(),
        "seed {seed} rate {rate}: every card release passed a check, the rest went to the host"
    );
    report
}

/// The silent-corruption drill (the CI chaos-smoke shape): a seeded
/// sweep over silent-fault rates from zero up through well past the
/// 10⁻² design point. At every rate the verified service must release
/// *zero* corrupted plaintexts and conserve every request — silent
/// faults are invisible to the detected-fault machinery, so only the
/// verify-on-release check stands between the corruption and the
/// caller.
#[test]
fn silent_fault_sweep_releases_zero_corrupted_results() {
    let seed = chaos_seed(0x51_1E27);
    for (point, rate) in [0.0, 1e-3, 1e-2, 0.25].into_iter().enumerate() {
        silent_sweep_point(seed, point as u64, rate);
    }
}

/// The sweep's 25% point at a fixed seed whose schedule corrupts lanes:
/// the committed default seed draws no rejection there, so without this
/// case the committed run never walks the verify ladder.
#[test]
fn silent_fault_sweep_at_seed_2_rejects_and_recovers() {
    let report = silent_sweep_point(2, 3, 0.25);
    assert!(
        report.verify_failures > 0,
        "seed 2 at 25% must draw rejections"
    );
}

/// Mixed chaos — detected faults (retries, breaker, host fallback) and
/// silent corruption (verify-on-release ladder) interleaved under one
/// seeded schedule. Both reaction paths share the flush loop; neither
/// may lose, duplicate, or corrupt a request.
#[test]
fn mixed_detected_and_silent_chaos_conserves_every_request() {
    let seed = chaos_seed(0x3_1415);
    let key = test_key();
    let mut rates = FaultRates::uniform(0.2);
    rates.silent_lane = 0.15;
    rates.silent_batch = 0.05;
    let faults: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(seed, rates));
    let service = Arc::new(one_card(&key, &verified(), quick_config(), Some(faults)));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let key = key.clone();
            std::thread::spawn(move || {
                let plain = RsaOps::new(Box::new(MpssBaseline));
                for i in 0..PER_THREAD {
                    let m = phiopenssl_suite::bigint::BigUint::from(t * 1_299_709 + i + 1);
                    let c = plain.public_op(key.public(), &m).unwrap();
                    match service.call(c) {
                        Ok(got) => assert_eq!(got, m, "seed {seed}: wrong plaintext"),
                        Err(e) => panic!("seed {seed}: request errored: {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let report = unshare(service).shutdown_fleet().merged();
    assert_eq!(
        report.resolved_ops(),
        THREADS * PER_THREAD,
        "seed {seed}: conservation violated"
    );
    assert_eq!(report.errored_ops, 0, "seed {seed}");
    assert!(report.faults_seen > 0, "seed {seed}: detected faults fired");
}

/// Seed-replayability of the silent-fault drill: two verified services
/// fed the identical deterministic batch stream under the same seeded
/// injector must agree on every integrity counter — the property that
/// makes a CI chaos failure reproducible from its printed seed.
#[test]
fn silent_fault_chaos_replays_bit_for_bit() {
    let seed = chaos_seed(0x2E7_A11);
    let key = test_key();
    // Each round is parked at once as one full-width flush, which makes
    // the flush composition deterministic (same shape as the fleet
    // identity test).
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    let run = || {
        let faults: Arc<dyn FaultSource> =
            Arc::new(FaultInjector::new(seed, FaultRates::silent(0.5)));
        let service = one_card(&key, &verified(), config, Some(faults));
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for round in 0..4u64 {
            let batch: Vec<_> = (0..4u64)
                .map(|lane| {
                    let m = phiopenssl_suite::bigint::BigUint::from(round * 1_000_003 + lane + 1);
                    let c = ops.public_op(key.public(), &m).unwrap();
                    (m, c)
                })
                .collect();
            let tickets = service
                .submit_many(batch.iter().map(|(_, c)| c.clone()).collect())
                .unwrap();
            for ((m, _), t) in batch.iter().zip(tickets) {
                assert_eq!(&t.wait().unwrap(), m, "seed {seed}: round {round}");
            }
        }
        service.shutdown_fleet().merged()
    };
    let a = run();
    let b = run();
    assert_eq!(a.verified_ops, b.verified_ops, "seed {seed}");
    assert_eq!(a.verify_failures, b.verify_failures, "seed {seed}");
    assert_eq!(a.verify_reruns, b.verify_reruns, "seed {seed}");
    assert_eq!(a.lane_quarantines, b.lane_quarantines, "seed {seed}");
    assert_eq!(a.host_fallback_ops, b.host_fallback_ops, "seed {seed}");
    assert_eq!(
        a.modeled_virtual_seconds, b.modeled_virtual_seconds,
        "seed {seed}: replay must be cycle-identical, not just bit-identical"
    );
    assert!(
        a.verify_failures > 0,
        "seed {seed}: a 50% schedule corrupts"
    );
}

/// Without a host fallback the service must not hang or lose tickets:
/// a card that faults on every attempt yields a typed error per request,
/// promptly.
#[test]
fn faulted_card_without_fallback_errors_rather_than_hangs() {
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    let script: Arc<dyn FaultSource> =
        Arc::new(FaultScript::repeat(FaultKind::PcieTimeout, 10_000));
    let card = CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x + 1).collect()).with_faults(script);
    let service = FleetScheduler::new(FleetConfig::default(), config, vec![card]);
    let handles: Vec<_> = (0..12u64)
        .map(|i| service.submit(i).expect("queue has room"))
        .collect();
    for h in handles {
        match h.wait() {
            Ok(v) => panic!("no lane can succeed on an always-faulting card, got {v}"),
            Err(
                OffloadError::Faulted { .. }
                | OffloadError::DeadlineExceeded { .. }
                | OffloadError::CardOffline,
            ) => {}
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    let report = service.shutdown().merged();
    assert_eq!(report.errored_ops, 12, "all twelve requests errored");
    assert_eq!(report.resolved_ops(), 12, "…and none were lost");
}
