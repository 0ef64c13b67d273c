//! Workspace-level property tests: random keys and messages through the
//! whole stack, all backends agreeing with each other and the oracle.

use phi_bigint::BigUint;
use phi_faults::{FaultKind, FaultScript, FaultSource};
use phi_mont::{Libcrypto, MpssBaseline, OpensslBaseline};
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::{RsaBatchService, RsaOps};
use phi_rt::service::ServiceConfig;
use phi_rt::ResilienceConfig;
use phiopenssl::{PhiConfig, PhiLibrary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A small cache of keys so proptest cases don't regenerate them.
fn key_for(seed: u8) -> RsaPrivateKey {
    RsaPrivateKey::generate(&mut StdRng::seed_from_u64(1000 + seed as u64 % 4), 256).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn private_op_agrees_across_backends(seed in 0u8..4, c_seed in any::<u64>()) {
        let key = key_for(seed);
        let c = &BigUint::from(c_seed) % key.public().n();
        let want = c.mod_exp(key.d(), key.public().n());
        for lib in [
            Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>,
            Box::new(MpssBaseline),
            Box::new(OpensslBaseline),
        ] {
            let name = lib.name();
            let ops = RsaOps::new(lib);
            prop_assert_eq!(&ops.private_op(&key, &c).unwrap(), &want, "{}", name);
        }
    }

    #[test]
    fn sign_verify_roundtrip_random_messages(seed in 0u8..4, msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let key = key_for(seed);
        let ops = RsaOps::new(Box::new(PhiLibrary::default()));
        // 256-bit keys are too small for SHA-256 PKCS#1 v1.5 (needs 62
        // bytes) — use the raw ops with a reduced representative instead.
        let m = &BigUint::from_bytes_be(&msg) % key.public().n();
        let sig = ops.private_op(&key, &m).unwrap();
        prop_assert_eq!(ops.public_op(key.public(), &sig).unwrap(), m);
    }

    #[test]
    fn vector_engine_matches_oracle_on_random_moduli(
        limbs in proptest::collection::vec(any::<u64>(), 1..5),
        base in any::<u64>(),
        exp in any::<u64>(),
    ) {
        let mut v = limbs;
        v[0] |= 1;
        let n = BigUint::from_limbs(v);
        prop_assume!(!n.is_one());
        let lib = PhiLibrary::default();
        let got = lib.mod_exp(&BigUint::from(base), &BigUint::from(exp), &n).unwrap();
        prop_assert_eq!(got, BigUint::from(base).mod_exp(&BigUint::from(exp), &n));
    }

    /// Verification soundness, accepting half: the verify-on-release
    /// predicate (the cheap public-exponent check `m^e ≡ c (mod n)`)
    /// never rejects an honest result, whichever backend — and therefore
    /// whichever Montgomery kernel: the vectorized library, CIOS over
    /// 64-bit limbs (MPSS profile), or CIOS over 32-bit half-words
    /// (`BN_LLONG` profile) — computed it. And because `e` is coprime to
    /// `λ(n)`, e-th powers are injective mod a squarefree `n`, so any
    /// flipped residue is *always* rejected.
    #[test]
    fn verify_predicate_accepts_honest_and_rejects_flipped(seed in 0u8..4, c_seed in any::<u64>()) {
        let key = key_for(seed);
        let n = key.public().n();
        let c = &BigUint::from(c_seed) % n;
        let check = OpensslBaseline.with_modulus(n).unwrap();
        for lib in [
            Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>,
            Box::new(MpssBaseline),
            Box::new(OpensslBaseline),
        ] {
            let name = lib.name();
            let m = RsaOps::new(lib).private_op(&key, &c).unwrap();
            prop_assert_eq!(
                check.mod_exp(&m, key.public().e()), c.clone(),
                "honest result rejected: {}", name
            );
            let flipped = &(&m + 1u64) % n;
            prop_assert_ne!(
                check.mod_exp(&flipped, key.public().e()), c.clone(),
                "flipped result accepted: {}", name
            );
        }
    }

    #[test]
    fn hash_prf_deterministic_across_threads(secret in proptest::collection::vec(any::<u8>(), 1..64)) {
        // The PRF must be pure — same inputs from different threads agree.
        let a = phi_hash::prf::prf_tls12(&secret, b"label", b"seed", 32);
        let secret2 = secret.clone();
        let b = std::thread::spawn(move || {
            phi_hash::prf::prf_tls12(&secret2, b"label", b"seed", 32)
        })
        .join()
        .unwrap();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Service-level soundness, accepting half: a verified batch service
    /// never rejects honest work at any occupancy from a lone straggler
    /// to a full 16-wide flush — every plaintext is released after its
    /// check, with zero verification failures and zero host fallbacks.
    #[test]
    fn verified_service_accepts_honest_batches_at_any_occupancy(
        seed in 0u8..4,
        occupancy in 1usize..17,
    ) {
        let key = key_for(seed);
        let config = ResilienceConfig {
            service: ServiceConfig { width: 16, max_wait: 10.0, queue_cap: 64 },
            ..ResilienceConfig::default()
        };
        let phi = PhiConfig::builder().verified().build();
        let service = RsaBatchService::new_fleet(&key, &phi, config, Vec::new()).unwrap();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let batch: Vec<_> = (0..occupancy as u64)
            .map(|i| {
                let m = &BigUint::from(0xA11CE + i) % key.public().n();
                let c = ops.public_op(key.public(), &m).unwrap();
                (m, c)
            })
            .collect();
        let tickets: Vec<_> = batch
            .iter()
            .map(|(_, c)| service.submit(c.clone()).unwrap())
            .collect();
        for ((m, _), t) in batch.iter().zip(tickets) {
            prop_assert_eq!(&t.wait().unwrap(), m);
        }
        let report = service.shutdown_fleet().merged();
        prop_assert_eq!(report.verified_ops, occupancy as u64);
        prop_assert_eq!(report.verify_failures, 0);
        prop_assert_eq!(report.host_fallback_ops, 0);
    }

    /// Service-level soundness, rejecting half: a silent lane flip
    /// injected on *any* lane at *any* occupancy is caught before
    /// release — the caller still gets the right plaintext through the
    /// rerun/quarantine/fallback ladder, the detected-fault counters stay
    /// at zero (the fault really was silent), and at least one
    /// verification failure is recorded (the flip really was caught).
    #[test]
    fn every_injected_silent_flip_is_caught(
        seed in 0u8..4,
        lane in 0usize..16,
        occupancy in 1usize..5,
    ) {
        let key = key_for(seed);
        let script: Arc<dyn FaultSource> =
            Arc::new(FaultScript::repeat(FaultKind::SilentLaneFlip { lane }, 64));
        let config = ResilienceConfig {
            service: ServiceConfig { width: 4, max_wait: 10.0, queue_cap: 64 },
            ..ResilienceConfig::default()
        };
        let phi = PhiConfig::builder().verified().build();
        let service = RsaBatchService::new_fleet(&key, &phi, config, vec![Some(script)]).unwrap();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let batch: Vec<_> = (0..occupancy as u64)
            .map(|i| {
                let m = &BigUint::from(0xF11B + i) % key.public().n();
                let c = ops.public_op(key.public(), &m).unwrap();
                (m, c)
            })
            .collect();
        let tickets: Vec<_> = batch
            .iter()
            .map(|(_, c)| service.submit(c.clone()).unwrap())
            .collect();
        for ((m, _), t) in batch.iter().zip(tickets) {
            prop_assert_eq!(&t.wait().unwrap(), m, "lane {} occupancy {}", lane, occupancy);
        }
        let report = service.shutdown_fleet().merged();
        prop_assert!(
            report.verify_failures > 0,
            "flip on lane {} at occupancy {} escaped", lane, occupancy
        );
        prop_assert_eq!(report.faults_seen, 0);
        prop_assert_eq!(report.errored_ops, 0);
    }
}
