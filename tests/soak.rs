//! A deterministic soak test: a mixed workload (encrypt, decrypt, sign,
//! verify, handshake, resume) randomly interleaved across all backends,
//! checking every invariant along the way. Shapes the stack the way a
//! long-running server would.

use phi_bigint::BigUint;
use phi_mont::{MpssBaseline, OpensslBaseline};
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::RsaOps;
use phi_ssl::{drive_handshake, Client, Server, SessionCache};
use phiopenssl::PhiLibrary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds per soak run: a PR-scale 60 by default, cranked up by the
/// nightly CI job via `SOAK_ROUNDS` (the generator is seeded, so any
/// round count replays bit-for-bit).
fn soak_rounds() -> usize {
    std::env::var("SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn make_ops(which: usize) -> RsaOps {
    match which % 3 {
        0 => RsaOps::new(Box::new(PhiLibrary::default())),
        1 => RsaOps::new(Box::new(MpssBaseline)),
        _ => RsaOps::new(Box::new(OpensslBaseline)),
    }
}

#[test]
fn mixed_workload_soak() {
    let mut rng = StdRng::seed_from_u64(0x50AC);
    let keys: Vec<RsaPrivateKey> = (0..3)
        .map(|i| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xAA + i), 512).unwrap())
        .collect();
    let cache = SessionCache::new(8);
    let mut sessions: Vec<(usize, phi_ssl::Session)> = Vec::new();

    for round in 0..soak_rounds() {
        let ki = rng.gen_range(0..keys.len());
        let key = &keys[ki];
        let ops = make_ops(rng.gen_range(0..3));
        match rng.gen_range(0..5) {
            0 => {
                // Encrypt with one backend, decrypt with another.
                let msg: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
                let ct = ops.encrypt_pkcs1v15(&mut rng, key.public(), &msg).unwrap();
                let dec = make_ops(rng.gen_range(0..3));
                assert_eq!(
                    dec.decrypt_pkcs1v15(key, &ct).unwrap(),
                    msg,
                    "round {round}"
                );
            }
            1 => {
                // Raw op round trip with random residue.
                let m = &BigUint::from(rng.gen::<u64>()) % key.public().n();
                let c = ops.public_op(key.public(), &m).unwrap();
                assert_eq!(ops.private_op(key, &c).unwrap(), m, "round {round}");
            }
            2 => {
                // Full handshake (stores a session).
                let mut server = Server::with_cache(&mut rng, key.clone(), ops, cache.clone());
                let co = make_ops(rng.gen_range(0..3));
                let mut client = Client::new(&mut rng, co);
                drive_handshake(&mut rng, &mut server, &mut client)
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
                if let Some(s) = client.session() {
                    sessions.push((ki, s));
                }
            }
            3 => {
                // Resume an earlier session against the matching key.
                if let Some((ski, session)) = sessions.pop() {
                    let mut server =
                        Server::with_cache(&mut rng, keys[ski].clone(), ops, cache.clone());
                    let mut client = Client::with_resumption(&mut rng, make_ops(0), session);
                    let outcome = drive_handshake(&mut rng, &mut server, &mut client)
                        .unwrap_or_else(|e| panic!("round {round}: {e}"));
                    assert_eq!(outcome.master_secret.len(), 48);
                    assert!(server.is_resumed(), "round {round}: expected resumption");
                }
            }
            _ => {
                // Sign with the vector backend, verify with a scalar one.
                let msg: Vec<u8> = (0..rng.gen_range(1..60)).map(|_| rng.gen()).collect();
                let sig = ops.sign_pkcs1v15_sha256(key, &msg).unwrap();
                let which = rng.gen_range(0..3);
                let ver = make_ops(which);
                ver.verify_pkcs1v15_sha256(key.public(), &msg, &sig)
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
                // And a corrupted signature must fail.
                let mut bad = sig.clone();
                let i = rng.gen_range(0..bad.len());
                bad[i] ^= 0x01;
                assert!(
                    ver.verify_pkcs1v15_sha256(key.public(), &msg, &bad)
                        .is_err(),
                    "round {round}: corrupted signature accepted"
                );
            }
        }
    }
}

#[test]
fn batch_engine_soak() {
    // The batched CRT engine against the generic path over many batches.
    use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig};
    let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0x50B), 512).unwrap();
    let crt = CrtKey::from_components(key.p(), key.q(), key.dp(), key.dq(), key.qinv()).unwrap();
    let engine = BatchCrtEngine::with_config(&crt, &PhiConfig::default()).unwrap();
    let ops = RsaOps::new(Box::new(MpssBaseline));
    let mut rng = StdRng::seed_from_u64(0x50C);
    let cts: Vec<BigUint> = (0..35)
        .map(|_| &BigUint::from(rng.gen::<u64>()) % key.public().n())
        .collect();
    let batched = engine.private_op_many(&cts);
    for (i, c) in cts.iter().enumerate() {
        assert_eq!(batched[i], ops.private_op(&key, c).unwrap(), "index {i}");
    }
}
