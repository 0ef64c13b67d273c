//! Property tests for the work-conserving batch collector: under any
//! arrival schedule, a batch is due whenever something is parked, every
//! batch takes the `min(depth, width)` oldest parked requests, and every
//! accepted request is delivered in exactly one flushed batch — nothing
//! lost, nothing duplicated. The offload service (a one-card fleet)
//! extends the invariant to fault schedules: whatever the injected
//! faults, deadline budget and fallback configuration, every submitted
//! request resolves exactly once.

use phi_bigint::BigUint;
use phi_faults::{FaultKind, FaultScript, FaultSource};
use phi_rt::service::{Collector, FlushReason, ServiceConfig, SubmitError};
use phi_rt::{CardSetup, FleetConfig, FleetScheduler, ResilienceConfig};
use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// One flushed batch: its reason, its requests (each identified by its
/// distinct payload), the depth it was taken from, and the wait of its
/// oldest request.
struct Flush {
    reason: FlushReason,
    requests: Vec<u64>,
    depth: usize,
    oldest_wait: f64,
}

/// A single virtual-clock server over a collector, behaving like a card
/// worker: whenever it is free and anything is parked it takes a batch,
/// and every flush takes `flush_s` seconds.
struct Server {
    collector: Collector<u64>,
    free_at: f64,
    flush_s: f64,
    flushes: Vec<Flush>,
}

impl Server {
    /// Take batches from `now` on while the server comes free no later
    /// than `until`.
    fn serve(&mut self, now: f64, until: f64) {
        while let Some(reason) = self.collector.ready() {
            let at = self.free_at.max(now);
            if at > until {
                break;
            }
            let depth = self.collector.depth();
            let batch = self.collector.take_batch(reason, at);
            self.flushes.push(Flush {
                reason,
                requests: batch.entries.iter().map(|p| p.payload).collect(),
                depth,
                oldest_wait: batch.oldest_wait(),
            });
            self.free_at = at + self.flush_s;
        }
    }
}

/// Drive a collector through an arrival schedule on a virtual clock, the
/// way a card worker does (see [`Server`]). `gaps_us` are inter-arrival
/// times in microseconds; after the last arrival the server keeps
/// flushing until the queue is empty.
fn run_schedule(
    config: ServiceConfig,
    gaps_us: &[u32],
    flush_us: u32,
) -> (Vec<u64>, Vec<Flush>, u64) {
    let mut server = Server {
        collector: Collector::new(config),
        free_at: 0.0,
        flush_s: flush_us as f64 * 1e-6,
        flushes: Vec::new(),
    };
    let mut accepted = Vec::new();
    let mut now = 0.0f64;
    for (i, &gap) in gaps_us.iter().enumerate() {
        let target = now + gap as f64 * 1e-6;
        server.serve(now, target);
        now = target;
        match server.collector.submit(i as u64, now) {
            Ok(()) => accepted.push(i as u64),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(e) => panic!("collector can only reject for backpressure: {e}"),
        }
        server.serve(now, now);
        // A batch is due whenever anything is parked, and nothing parked
        // is left waiting on an idle server.
        let parked = !server.collector.is_empty();
        assert_eq!(server.collector.ready().is_some(), parked);
        assert!(
            !parked || server.free_at > now,
            "work parked on an idle server"
        );
    }
    server.serve(now, f64::INFINITY);
    assert!(server.collector.is_empty());
    let rejected = server.collector.rejected();
    (accepted, server.flushes, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_request_lost_or_duplicated(
        gaps_us in proptest::collection::vec(0u32..3000, 1..200),
        width in 1usize..=16,
        flush_us in 0u32..5000,
        cap_batches in 1usize..=4,
    ) {
        let config = ServiceConfig {
            width,
            queue_cap: width * cap_batches,
        };
        let (accepted, flushes, rejected) = run_schedule(config, &gaps_us, flush_us);

        // Conservation: the flushed requests are exactly the accepted
        // requests, each exactly once, in submission order — so every
        // batch took the oldest parked requests.
        let delivered: Vec<u64> = flushes.iter().flat_map(|f| f.requests.clone()).collect();
        prop_assert_eq!(&delivered, &accepted, "delivery must preserve order");
        let unique: HashSet<u64> = delivered.iter().copied().collect();
        prop_assert_eq!(unique.len(), delivered.len(), "duplicated request");
        prop_assert_eq!(
            accepted.len() + rejected as usize,
            gaps_us.len(),
            "every submission either accepted or rejected"
        );

        // Every batch takes min(depth, width) requests, and says why.
        for f in &flushes {
            prop_assert_eq!(f.requests.len(), f.depth.min(width), "batch size");
            let full = f.requests.len() == width;
            let want = if full { FlushReason::Full } else { FlushReason::Deadline };
            prop_assert_eq!(f.reason, want);
        }
    }

    #[test]
    fn an_idle_server_takes_each_request_on_arrival(
        gaps_us in proptest::collection::vec(0u32..2000, 1..120),
        width in 1usize..=16,
    ) {
        // Flushes that take no time keep the server idle at every
        // arrival: each request is due the moment it is parked, so it
        // leaves alone and waits for nothing.
        let config = ServiceConfig { width, queue_cap: 64 };
        let (accepted, flushes, rejected) = run_schedule(config, &gaps_us, 0);
        prop_assert_eq!(rejected, 0);
        prop_assert_eq!(flushes.len(), accepted.len());
        for f in &flushes {
            prop_assert_eq!(f.requests.len(), 1);
            prop_assert_eq!(f.oldest_wait, 0.0);
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
    /// no lost requests, no wrong results.
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
    /// CRT engine, flushed with only `k` active lanes (`k` requests
    /// parked at once on an idle card), must answer each request exactly
    /// as `k` independent single-lane calls of the same engine do. The
    /// dead lanes the mask pads in must be invisible in every answer.
    #[test]
    fn masked_partial_flush_matches_single_submissions(
        ms in proptest::collection::vec(1u64..u64::MAX, 1..=16),
    ) {
        let crt = test_crt_key();
        let engine = BatchCrtEngine::with_config(&crt, &PhiConfig::default()).unwrap();
        let single = BatchCrtEngine::with_config(&crt, &PhiConfig::default()).unwrap();
        let n = crt.modulus().clone();
        let e = BigUint::from(65537u64);
        let config = ResilienceConfig {
            service: ServiceConfig {
                width: 16,
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
        // Parked at once, the k requests leave as one k-lane flush.
        let handles = service
            .submit_many_keyed(None, cts.clone())
            .expect("queue has room");
        let k = ms.len();
        let report = service.shutdown().merged();
        prop_assert_eq!(report.resolved_ops(), k as u64);
        prop_assert_eq!(report.errored_ops, 0);
        prop_assert_eq!(report.service.flush_count(), 1);
        prop_assert_eq!(report.service.flushes[0].occupancy, k);
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
