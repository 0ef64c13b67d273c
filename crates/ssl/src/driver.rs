//! In-memory handshake drivers: one-shot and multi-threaded throughput.

use crate::error::SslError;
use crate::handshake::{Client, Server};
use crate::record::Record;
use phi_faults::FaultSource;
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::{RsaBatchService, RsaOps};
use phi_rt::{AffinityPolicy, BatchReport, FleetReport, PhiPool, ResilienceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Result of a completed handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeOutcome {
    /// The shared master secret both sides agreed on.
    pub master_secret: Vec<u8>,
    /// Round trips taken (record flights exchanged).
    pub flights: usize,
}

/// Run a handshake like [`drive_handshake`], but on failure also return
/// the fatal alert the failing side would have sent to its peer.
pub fn drive_handshake_with_alerts<R: Rng + ?Sized>(
    rng: &mut R,
    server: &mut Server,
    client: &mut Client,
) -> Result<HandshakeOutcome, (SslError, crate::alert::Alert)> {
    drive_handshake(rng, server, client).map_err(|e| {
        let alert = crate::alert::Alert::for_error(&e);
        (e, alert)
    })
}

/// Run one full client↔server handshake over an in-memory pipe.
pub fn drive_handshake<R: Rng + ?Sized>(
    rng: &mut R,
    server: &mut Server,
    client: &mut Client,
) -> Result<HandshakeOutcome, SslError> {
    let _span = phi_trace::span(phi_trace::Scope::Handshake);
    let mut to_server: Vec<Record> = vec![client.start()?];
    let mut to_client: Vec<Record> = Vec::new();
    let mut flights = 0;
    while !(server.is_established() && client.is_established()) {
        flights += 1;
        if flights > 8 {
            return Err(SslError::UnexpectedMessage {
                state: "driver",
                got: 0,
            });
        }
        for rec in std::mem::take(&mut to_server) {
            to_client.extend(server.process(&rec)?);
        }
        for rec in std::mem::take(&mut to_client) {
            to_server.extend(client.process(rng, &rec)?);
        }
    }
    debug_assert_eq!(server.master_secret(), client.master_secret());
    if phi_trace::is_enabled() {
        let reg = phi_trace::registry();
        reg.counter_add("ssl.handshakes", 1);
        reg.counter_add("ssl.flights", flights as u64);
    }
    Ok(HandshakeOutcome {
        master_secret: server.master_secret().to_vec(),
        flights,
    })
}

/// Run `count` independent handshakes across a [`PhiPool`], each task
/// building its own server/client pair over backends produced by
/// `make_ops` (so any library can be plugged in). Returns the pool's
/// batch report for modeled-throughput analysis.
pub fn handshake_throughput<F>(
    key: &RsaPrivateKey,
    make_ops: F,
    count: usize,
    threads: u32,
    policy: AffinityPolicy,
) -> (usize, BatchReport)
where
    F: Fn() -> RsaOps + Sync,
{
    let pool = PhiPool::new(threads, policy);
    let (oks, report) = pool.run_batch(count, |i| {
        let mut rng = StdRng::seed_from_u64(0x5511 + i as u64);
        let mut server = Server::new(&mut rng, key.clone(), make_ops());
        let mut client = Client::new(&mut rng, make_ops());
        drive_handshake(&mut rng, &mut server, &mut client).is_ok()
    });
    let successes = oks.iter().filter(|&&ok| ok).count();
    (successes, report)
}

/// Run `count` concurrent handshakes like [`handshake_throughput`], but
/// with every server private operation routed through ONE shared
/// [`RsaBatchService`] for the key.
///
/// This is the paper's server deployment shape: many connections, one
/// private key, and card-side batch engines aggregating the RSA
/// decryptions into 16-lane passes. Concurrent handshakes land in the
/// same collection window and ride the same batch. Server private
/// operations are keyed by the key's modulus fingerprint and routed to
/// the card holding its warm Montgomery sessions; `phi.fleet` sets the
/// card count (one by default), `phi.verified` turns on
/// verify-on-release, and `config` sets the batch width, the deadline
/// and the fault-handling ladder. Under backpressure, or when the offload
/// gives up, a connection degrades to its own sequential CRT, so the
/// handshake success count is unaffected by load or faults.
///
/// `faults` holds one optional schedule per card (shorter vectors leave
/// the remaining cards healthy), so single-card chaos runs and correlated
/// multi-card failure drills are one call.
///
/// Returns `(successes, pool_report, fleet_report)`; the fleet report
/// carries per-card telemetry (flushes, faults, host fallback,
/// verification) plus the cross-card ledger (steals, migrations,
/// affinity hit rate).
#[allow(clippy::too_many_arguments)]
pub fn drive_concurrent_fleet<F>(
    key: &RsaPrivateKey,
    make_ops: F,
    count: usize,
    threads: u32,
    policy: AffinityPolicy,
    phi: &phiopenssl::PhiConfig,
    config: ResilienceConfig,
    faults: Vec<Option<Arc<dyn FaultSource>>>,
) -> Result<(usize, BatchReport, FleetReport), SslError>
where
    F: Fn() -> RsaOps + Sync,
{
    let service = Arc::new(RsaBatchService::new_fleet(key, phi, config, faults)?);
    let pool = PhiPool::new(threads, policy);
    let (oks, report) = pool.run_batch(count, |i| {
        let mut rng = StdRng::seed_from_u64(0xF1EE + i as u64);
        let server_ops = make_ops().with_service(Arc::clone(&service));
        let mut server = Server::new(&mut rng, key.clone(), server_ops);
        let mut client = Client::new(&mut rng, make_ops());
        drive_handshake(&mut rng, &mut server, &mut client).is_ok()
    });
    let successes = oks.iter().filter(|&&ok| ok).count();
    let fleet_report = Arc::try_unwrap(service)
        .unwrap_or_else(|_| unreachable!("pool tasks joined, no other holders"))
        .shutdown_fleet();
    Ok((successes, report, fleet_report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_mont::{Libcrypto, MpssBaseline, OpensslBaseline};
    use phi_rt::service::ServiceConfig;
    use phiopenssl::PhiLibrary;

    fn key() -> RsaPrivateKey {
        RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xD01), 512).unwrap()
    }

    #[test]
    fn drive_handshake_completes_in_three_flights() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut server = Server::new(&mut rng, key(), RsaOps::new(Box::new(MpssBaseline)));
        let mut client = Client::new(&mut rng, RsaOps::new(Box::new(MpssBaseline)));
        let outcome = drive_handshake(&mut rng, &mut server, &mut client).unwrap();
        assert_eq!(outcome.master_secret.len(), 48);
        assert!(outcome.flights <= 3, "took {} flights", outcome.flights);
    }

    #[test]
    fn all_three_backends_interoperate() {
        // Server on each backend, client always on the baseline: the
        // libraries must be wire-compatible.
        let makers: Vec<Box<dyn Fn() -> Box<dyn Libcrypto>>> = vec![
            Box::new(|| Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>),
            Box::new(|| Box::new(MpssBaseline)),
            Box::new(|| Box::new(OpensslBaseline)),
        ];
        for make in makers {
            let mut rng = StdRng::seed_from_u64(11);
            let mut server = Server::new(&mut rng, key(), RsaOps::new(make()));
            let mut client = Client::new(&mut rng, RsaOps::new(Box::new(MpssBaseline)));
            let outcome = drive_handshake(&mut rng, &mut server, &mut client).unwrap();
            assert_eq!(outcome.master_secret.len(), 48);
        }
    }

    #[test]
    fn throughput_driver_counts_successes() {
        let k = key();
        let (ok, report) = handshake_throughput(
            &k,
            || RsaOps::new(Box::new(MpssBaseline)),
            8,
            4,
            AffinityPolicy::Compact,
        );
        assert_eq!(ok, 8);
        assert_eq!(report.tasks, 8);
        // Handshakes burn scalar multiplies on this backend.
        assert!(report.total_counts.get(phi_simd::OpClass::SMul64) > 0);
    }

    fn small_batches() -> ResilienceConfig {
        ResilienceConfig {
            service: ServiceConfig {
                width: 4,
                queue_cap: 16,
            },
            ..ResilienceConfig::default()
        }
    }

    fn cards(n: usize) -> phiopenssl::PhiConfigBuilder {
        phiopenssl::PhiConfig::builder()
            .fleet(phiopenssl::FleetConfig {
                cards: n,
                ..phiopenssl::FleetConfig::default()
            })
            .unwrap()
    }

    /// Run eight handshakes through `drive_concurrent_fleet` with
    /// baseline-library connections.
    fn drive(
        phi: &phiopenssl::PhiConfig,
        faults: Vec<Option<Arc<dyn FaultSource>>>,
    ) -> (usize, FleetReport) {
        let (ok, _pool_report, fleet) = drive_concurrent_fleet(
            &key(),
            || RsaOps::new(Box::new(MpssBaseline)),
            8,
            4,
            AffinityPolicy::Compact,
            phi,
            small_batches(),
            faults,
        )
        .unwrap();
        (ok, fleet)
    }

    /// The driver runs the shared card engine on the requested backend;
    /// handshakes must succeed identically on the native tier (skipped
    /// where the host has no AVX2).
    #[test]
    fn fleet_driver_honors_phi_config_backend() {
        if !phiopenssl::CpuFeatures::detect().avx2 {
            return;
        }
        let phi = cards(1)
            .backend(phiopenssl::Backend::NativeX86)
            .expect("AVX2 detected")
            .build();
        let (ok, fleet) = drive(&phi, Vec::new());
        assert_eq!(ok, 8);
        assert_eq!(fleet.merged().service.ops(), 8);
    }

    #[test]
    fn fleet_driver_serves_every_handshake_across_cards() {
        let (ok, fleet) = drive(&cards(2).build(), Vec::new());
        assert_eq!(ok, 8);
        assert_eq!(fleet.cards.len(), 2);
        assert_eq!(
            fleet.affinity_hits + fleet.affinity_misses,
            8,
            "every server op was keyed by the modulus fingerprint"
        );
        // Each handshake performs exactly one server private op (the
        // premaster decryption), all served on the healthy cards.
        let merged = fleet.merged();
        assert_eq!(merged.service.ops(), 8, "one private op per handshake");
        assert_eq!(merged.faults_seen, 0);
        assert_eq!(merged.host_fallback_ops, 0);
        assert_eq!(merged.errored_ops, 0);
        for flush in &merged.service.flushes {
            assert!(flush.occupancy >= 1 && flush.occupancy <= 4);
        }
    }

    #[test]
    fn fleet_driver_survives_a_faulted_card() {
        use phi_faults::{FaultInjector, FaultRates};
        let faults: Vec<Option<Arc<dyn FaultSource>>> = vec![Some(Arc::new(FaultInjector::new(
            0xCA4D,
            FaultRates::uniform(0.8),
        )))];
        let (ok, fleet) = drive(&cards(2).build(), faults);
        assert_eq!(ok, 8, "a faulted card never fails a handshake");
        assert_eq!(fleet.resolved_ops(), 8);
        assert_eq!(fleet.merged().errored_ops, 0);
    }

    #[test]
    fn verified_driver_completes_handshakes_under_silent_faults() {
        use phi_faults::{FaultInjector, FaultRates};
        let faults: Vec<Option<Arc<dyn FaultSource>>> = vec![Some(Arc::new(FaultInjector::new(
            0x51137,
            FaultRates::silent(0.4),
        )))];
        let (ok, fleet) = drive(&cards(1).verified().build(), faults);
        // Every handshake succeeds: a corrupted premaster secret would
        // break key derivation, so success here means nothing corrupted
        // was released.
        assert_eq!(ok, 8);
        let report = fleet.merged();
        assert_eq!(report.errored_ops, 0);
        assert_eq!(report.faults_seen, 0, "silent faults are undetectable");
        assert!(report.verified_ops > 0);
        assert!(report.verify_failures > 0, "a 40% schedule must corrupt");
    }
}

#[cfg(test)]
mod alert_tests {
    use super::*;
    use crate::alert::AlertDescription;
    use crate::msg::HandshakeMsg;
    use crate::record::Record;
    use phi_mont::MpssBaseline;

    #[test]
    fn failed_handshake_maps_to_an_alert() {
        let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xA1E), 512).unwrap();
        let mut rng = StdRng::seed_from_u64(40);
        let mut server = Server::new(&mut rng, key, RsaOps::new(Box::new(MpssBaseline)));
        // Offer only an unsupported cipher: the server must fail with a
        // handshake_failure alert.
        let bad_hello = Record::handshake(
            HandshakeMsg::ClientHello {
                random: [0; 32],
                session_id: vec![],
                ciphers: vec![0x1301],
            }
            .encode(),
        );
        let err = server.process(&bad_hello).unwrap_err();
        let alert = crate::alert::Alert::for_error(&err);
        assert_eq!(alert.description, AlertDescription::HandshakeFailure);
    }

    #[test]
    fn drive_with_alerts_succeeds_silently() {
        let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xA1F), 512).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut server = Server::new(&mut rng, key, RsaOps::new(Box::new(MpssBaseline)));
        let mut client = Client::new(&mut rng, RsaOps::new(Box::new(MpssBaseline)));
        assert!(drive_handshake_with_alerts(&mut rng, &mut server, &mut client).is_ok());
    }
}
