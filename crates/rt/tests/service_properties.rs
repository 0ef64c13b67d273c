//! Property tests for the deadline-driven batch collector: under any
//! arrival schedule, every accepted ticket is delivered in exactly one
//! flushed batch — nothing lost, nothing duplicated — and no flush
//! violates the width bound or fires before it is due. The offload
//! service (a one-card fleet) extends the invariant to fault schedules:
//! whatever the injected faults, deadline budget and fallback
//! configuration, every submitted request resolves exactly once.

use phi_bigint::BigUint;
use phi_faults::{FaultKind, FaultScript, FaultSource};
use phi_rt::service::{Collector, FlushReason, ServiceConfig, SubmitError, Ticket};
use phi_rt::{CardSetup, FleetConfig, FleetScheduler, ResilienceConfig};
use phiopenssl::{BatchCrtEngine, CrtKey};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Drive a collector through an arrival schedule on a virtual clock.
///
/// `gaps_us` are inter-arrival times in microseconds. Between arrivals the
/// driver flushes whatever the collector says is due (checking at the
/// flush deadline itself when it falls inside a gap, as the worker's
/// condvar timeout does), and drains the remainder at the end.
type Flush = (FlushReason, Vec<Ticket>, f64);

fn run_schedule(config: ServiceConfig, gaps_us: &[u32]) -> (Vec<Ticket>, Vec<Flush>, u64) {
    let mut collector: Collector<u64> = Collector::new(config);
    let mut accepted = Vec::new();
    let mut flushes: Vec<Flush> = Vec::new();
    let mut now = 0.0f64;
    for (i, &gap) in gaps_us.iter().enumerate() {
        // Advance virtual time, firing any deadline that expires en route.
        let target = now + gap as f64 * 1e-6;
        while let Some(deadline) = collector.next_deadline() {
            if deadline > target {
                break;
            }
            now = deadline.max(now);
            if let Some(reason) = collector.ready(now) {
                let batch = collector.take_batch(reason, now);
                flushes.push((
                    reason,
                    batch.entries.iter().map(|p| p.ticket).collect(),
                    now,
                ));
            }
        }
        now = target;
        match collector.submit(i as u64, now) {
            Ok(ticket) => accepted.push(ticket),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(e) => panic!("collector can only reject for backpressure: {e}"),
        }
        // Width-triggered flush is checked immediately, like the worker.
        while let Some(reason) = collector.ready(now) {
            let batch = collector.take_batch(reason, now);
            flushes.push((
                reason,
                batch.entries.iter().map(|p| p.ticket).collect(),
                now,
            ));
        }
    }
    while !collector.is_empty() {
        let reason = collector.ready(now).unwrap_or(FlushReason::Drain);
        let batch = collector.take_batch(reason, now);
        flushes.push((
            reason,
            batch.entries.iter().map(|p| p.ticket).collect(),
            now,
        ));
    }
    (accepted, flushes, collector.rejected())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_ticket_lost_or_duplicated(
        gaps_us in proptest::collection::vec(0u32..3000, 1..200),
        width in 1usize..=16,
        max_wait_us in 1u32..5000,
        cap_batches in 1usize..=4,
    ) {
        let config = ServiceConfig {
            width,
            max_wait: max_wait_us as f64 * 1e-6,
            queue_cap: width * cap_batches,
        };
        let (accepted, flushes, rejected) = run_schedule(config, &gaps_us);

        // Conservation: the flushed tickets are exactly the accepted
        // tickets, each exactly once, in submission order.
        let delivered: Vec<Ticket> = flushes.iter().flat_map(|(_, t, _)| t.clone()).collect();
        prop_assert_eq!(&delivered, &accepted, "delivery must preserve order");
        let unique: HashSet<Ticket> = delivered.iter().copied().collect();
        prop_assert_eq!(unique.len(), delivered.len(), "duplicated ticket");
        prop_assert_eq!(
            accepted.len() + rejected as usize,
            gaps_us.len(),
            "every submission either accepted or rejected"
        );

        // Every flush respects the width bound and its stated trigger.
        for (reason, tickets, _at) in &flushes {
            prop_assert!(!tickets.is_empty(), "empty flush");
            prop_assert!(tickets.len() <= width, "flush wider than engine");
            if *reason == FlushReason::Full {
                prop_assert_eq!(tickets.len(), width, "Full flush not full");
            }
        }
    }

    #[test]
    fn deadline_bounds_every_wait(
        gaps_us in proptest::collection::vec(0u32..2000, 1..120),
        max_wait_us in 10u32..2000,
    ) {
        let config = ServiceConfig {
            width: 16,
            max_wait: max_wait_us as f64 * 1e-6,
            queue_cap: 64,
        };
        let mut collector: Collector<u64> = Collector::new(config);
        let mut now = 0.0f64;
        for (i, &gap) in gaps_us.iter().enumerate() {
            let target = now + gap as f64 * 1e-6;
            while let Some(deadline) = collector.next_deadline() {
                if deadline > target {
                    break;
                }
                now = deadline.max(now);
                if let Some(reason) = collector.ready(now) {
                    let batch = collector.take_batch(reason, now);
                    // The driver flushes at the deadline, so no request in
                    // the batch waited longer than max_wait (plus float fuzz).
                    prop_assert!(
                        batch.oldest_wait() <= config.max_wait + 1e-12,
                        "oldest waited {} > max_wait {}",
                        batch.oldest_wait(),
                        config.max_wait
                    );
                }
            }
            now = target;
            let _ = collector.submit(i as u64, now);
            while let Some(reason) = collector.ready(now) {
                collector.take_batch(reason, now);
            }
        }
    }
}

/// Decode a generated byte into a fault-schedule step: codes 0–4 name
/// the five KNC fault kinds, everything else is a clean attempt, giving
/// each scheduled flush attempt a 5/12 fault probability.
fn fault_from_code(code: u8) -> Option<FaultKind> {
    match code {
        0 => Some(FaultKind::PcieCorruption),
        1 => Some(FaultKind::PcieTimeout),
        2 => Some(FaultKind::CoreHang { group: 1 }),
        3 => Some(FaultKind::CardReset),
        4 => Some(FaultKind::EccLaneFault { lane: 2 }),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once resolution under ANY injected fault schedule: every
    /// submitted request comes back — on the card, through the host
    /// fallback, or as a typed error — and the final report accounts for
    /// each one exactly once. No hangs (the test would never finish),
    /// no lost tickets, no wrong results.
    #[test]
    fn one_card_fleet_conserves_requests_under_any_fault_schedule(
        codes in proptest::collection::vec(0u8..12, 0..60),
        n_requests in 1u64..40,
        width in 1usize..=8,
        knobs in 0u8..4,
    ) {
        let tight_deadline = knobs & 1 != 0;
        let with_host = knobs & 2 != 0;
        let config = ResilienceConfig {
            service: ServiceConfig {
                width,
                max_wait: 50e-6,
                queue_cap: 64,
            },
            // A sub-backoff deadline cancels every faulted flush, forcing
            // the requeue path; the loose one lets retries run in place.
            flush_deadline_s: if tight_deadline { 1e-9 } else { 50e-3 },
            ..ResilienceConfig::default()
        };
        let schedule: Vec<Option<FaultKind>> = codes.iter().map(|&c| fault_from_code(c)).collect();
        let script: Arc<dyn FaultSource> = Arc::new(FaultScript::new(schedule));
        let mut card = CardSetup::new(|xs: &[u64]| xs.iter().map(|x| x + 1).collect())
            .with_faults(script);
        if with_host {
            card = card.with_host(|x: &u64| x + 1);
        }
        let service = FleetScheduler::new(FleetConfig::default(), config, vec![card]);
        let handles: Vec<_> = (0..n_requests)
            .map(|i| service.submit(i).expect("queue_cap exceeds request count"))
            .collect();
        let mut ok = 0u64;
        let mut errored = 0u64;
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                Ok(v) => {
                    prop_assert_eq!(v, i as u64 + 1, "wrong result for request {}", i);
                    ok += 1;
                }
                Err(e) => {
                    prop_assert!(!with_host, "host fallback never errors, got {}", e);
                    errored += 1;
                }
            }
        }
        let report = service.shutdown().merged();
        prop_assert_eq!(ok + errored, n_requests, "every wait() returned exactly once");
        prop_assert_eq!(report.resolved_ops(), n_requests, "report conservation");
        prop_assert_eq!(report.errored_ops, errored);
        prop_assert_eq!(
            report.service.ops() as u64 + report.host_fallback_ops,
            ok,
            "successes split between card and host"
        );
    }
}

/// A small deterministic RSA key for the masked-batch property: the
/// 128-bit corpus primes (p, q) with `e = 65537`; `d` is recomputed so
/// the test does not embed it.
fn test_crt_key() -> CrtKey {
    let p = BigUint::from_hex("dfd0d464475f8fd90798e39eeb031769").unwrap();
    let q = BigUint::from_hex("d9e1019d1dd98169e3d2c9eaa25655e3").unwrap();
    let one = BigUint::one();
    let phi = (&p - &one).mul_ref(&(&q - &one));
    let d = BigUint::from(65537u64).mod_inverse(&phi).unwrap();
    CrtKey::new(&p, &q, &d).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Masked-partial-batch equivalence end to end through the service
    /// machinery: a width-16 service whose batch function is the masked
    /// CRT engine, flushed with only `k` active lanes (the drain after
    /// `k < 16` submissions), must answer each request exactly as `k`
    /// independent single-lane calls of the same engine do. The dead
    /// lanes the mask pads in must be invisible in every answer.
    #[test]
    fn masked_partial_flush_matches_single_submissions(
        ms in proptest::collection::vec(1u64..u64::MAX, 1..=16),
    ) {
        let crt = test_crt_key();
        let engine = BatchCrtEngine::new(&crt).unwrap();
        let single = BatchCrtEngine::new(&crt).unwrap();
        let n = crt.modulus().clone();
        let e = BigUint::from(65537u64);
        let config = ResilienceConfig {
            service: ServiceConfig {
                width: 16,
                // Far beyond the test's real runtime: the flush that
                // carries k < 16 requests is the shutdown drain, so the
                // batch genuinely runs with dead lanes masked in.
                max_wait: 10.0,
                queue_cap: 64,
            },
            ..ResilienceConfig::default()
        };
        let card = CardSetup::new(move |cts: &[BigUint]| engine.private_op_masked(cts));
        let service = FleetScheduler::new(FleetConfig::default(), config, vec![card]);
        let cts: Vec<BigUint> = ms
            .iter()
            .map(|&m| BigUint::from(m).mod_exp(&e, &n))
            .collect();
        let handles: Vec<_> = cts
            .iter()
            .map(|c| service.submit(c.clone()).expect("queue has room"))
            .collect();
        // Shutdown first: the drain is the flush that runs the partial
        // batch (the 10 s deadline never fires), and it resolves every
        // handle before returning.
        let k = ms.len();
        let report = service.shutdown().merged();
        prop_assert_eq!(report.resolved_ops(), k as u64);
        prop_assert_eq!(report.errored_ops, 0);
        for (i, (h, c)) in handles.into_iter().zip(&cts).enumerate() {
            let got = h.wait().expect("healthy card resolves every lane");
            prop_assert_eq!(
                &got,
                &single.private_op_single(c),
                "lane {} of a {}-lane flush diverged from the single path",
                i,
                k
            );
            prop_assert_eq!(got, BigUint::from(ms[i]), "lane {} wrong plaintext", i);
        }
    }
}
