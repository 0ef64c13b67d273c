//! Cross-crate integration tests: the full stack from bignum substrate to
//! SSL handshake, exercised through every library backend.

use phi_bigint::BigUint;
use phi_mont::{Libcrypto, MpssBaseline, OpensslBaseline};
use phi_rsa::blinding::Blinding;
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::RsaOps;
use phi_ssl::{drive_handshake, Client, Server};
use phiopenssl::{PhiConfig, PhiLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_libs() -> Vec<(&'static str, Box<dyn Libcrypto>)> {
    vec![
        ("phi", Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>),
        (
            "phi-ct",
            Box::new(PhiLibrary::with_config(
                PhiConfig::builder().constant_time().build(),
            )),
        ),
        ("mpss", Box::new(MpssBaseline)),
        ("openssl", Box::new(OpensslBaseline)),
    ]
}

fn test_key(bits: u32, seed: u64) -> RsaPrivateKey {
    RsaPrivateKey::generate(&mut StdRng::seed_from_u64(seed), bits).unwrap()
}

#[test]
fn pkcs1v15_roundtrip_every_backend() {
    let key = test_key(512, 1);
    let mut rng = StdRng::seed_from_u64(11);
    for (name, lib) in all_libs() {
        let ops = RsaOps::new(lib);
        let msg = format!("backend {name}");
        let ct = ops
            .encrypt_pkcs1v15(&mut rng, key.public(), msg.as_bytes())
            .unwrap();
        assert_eq!(
            ops.decrypt_pkcs1v15(&key, &ct).unwrap(),
            msg.as_bytes(),
            "{name}"
        );
    }
}

#[test]
fn cross_backend_interop_encrypt_with_one_decrypt_with_another() {
    // Ciphertexts are library-independent — any pair must interoperate.
    let key = test_key(512, 2);
    let mut rng = StdRng::seed_from_u64(12);
    let msg = b"interop";
    let mut cts = Vec::new();
    for (name, lib) in all_libs() {
        let ops = RsaOps::new(lib);
        cts.push((
            name,
            ops.encrypt_pkcs1v15(&mut rng, key.public(), msg).unwrap(),
        ));
    }
    for (dec_name, lib) in all_libs() {
        let ops = RsaOps::new(lib);
        for (enc_name, ct) in &cts {
            assert_eq!(
                ops.decrypt_pkcs1v15(&key, ct).unwrap(),
                msg,
                "enc {enc_name} -> dec {dec_name}"
            );
        }
    }
}

#[test]
fn signatures_verify_across_backends() {
    let key = test_key(768, 3);
    let msg = b"signed once, verified everywhere";
    let phi_sig = RsaOps::new(Box::new(PhiLibrary::default()))
        .sign_pkcs1v15_sha256(&key, msg)
        .unwrap();
    for (name, lib) in all_libs() {
        let ops = RsaOps::new(lib);
        ops.verify_pkcs1v15_sha256(key.public(), msg, &phi_sig)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(ops
            .verify_pkcs1v15_sha256(key.public(), b"other", &phi_sig)
            .is_err());
    }
}

#[test]
fn oaep_and_pss_through_the_vector_backend() {
    let key = test_key(768, 4);
    let mut rng = StdRng::seed_from_u64(13);
    let ops = RsaOps::new(Box::new(PhiLibrary::default()));

    let ct = ops
        .encrypt_oaep(&mut rng, key.public(), b"oaep msg", b"ctx")
        .unwrap();
    assert_eq!(ops.decrypt_oaep(&key, &ct, b"ctx").unwrap(), b"oaep msg");
    assert!(ops.decrypt_oaep(&key, &ct, b"wrong").is_err());

    let sig = ops.sign_pss_sha256(&mut rng, &key, b"pss msg").unwrap();
    ops.verify_pss_sha256(key.public(), b"pss msg", &sig)
        .unwrap();
    assert!(ops
        .verify_pss_sha256(key.public(), b"tampered", &sig)
        .is_err());
}

#[test]
fn blinded_private_op_consistent_on_vector_backend() {
    let key = test_key(512, 5);
    let ops = RsaOps::new(Box::new(PhiLibrary::default()));
    let mut rng = StdRng::seed_from_u64(14);
    let mut blinding = Blinding::new(&mut rng, key.public().n(), key.public().e());
    let m = BigUint::from(0xC0FFEEu64);
    let c = ops.public_op(key.public(), &m).unwrap();
    for _ in 0..3 {
        let got = ops
            .private_op_blinded(&mut rng, &key, &mut blinding, &c)
            .unwrap();
        assert_eq!(got, m);
    }
}

#[test]
fn der_exported_key_works_in_another_backend() {
    let key = test_key(512, 6);
    let der = phi_rsa::der::encode_private_key(&key);
    let restored = phi_rsa::der::decode_private_key(&der).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let ct = RsaOps::new(Box::new(MpssBaseline))
        .encrypt_pkcs1v15(&mut rng, key.public(), b"der")
        .unwrap();
    let pt = RsaOps::new(Box::new(PhiLibrary::default()))
        .decrypt_pkcs1v15(&restored, &ct)
        .unwrap();
    assert_eq!(pt, b"der");
}

#[test]
fn handshake_with_every_server_backend() {
    let key = test_key(512, 7);
    for (name, _) in all_libs() {
        let make = || RsaOps::new(all_libs().into_iter().find(|(n, _)| *n == name).unwrap().1);
        let mut rng = StdRng::seed_from_u64(16);
        let mut server = Server::new(&mut rng, key.clone(), make());
        let mut client = Client::new(&mut rng, RsaOps::new(Box::new(MpssBaseline)));
        let outcome = drive_handshake(&mut rng, &mut server, &mut client)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.master_secret.len(), 48, "{name}");
    }
}

#[test]
fn crt_key_and_generic_crt_agree() {
    // phiopenssl::CrtKey (native vector CRT) vs RsaOps generic CRT.
    let key = test_key(512, 8);
    let crt = phiopenssl::CrtKey::from_components(key.p(), key.q(), key.dp(), key.dq(), key.qinv())
        .unwrap();
    let ops = RsaOps::new(Box::new(PhiLibrary::default()));
    let c = &BigUint::from(0xDEAD_BEEF_1234u64) % key.public().n();
    assert_eq!(
        crt.private_op(&c, 5, phiopenssl::TableLookup::Direct),
        ops.private_op(&key, &c).unwrap()
    );
}

#[test]
fn modeled_costs_ordering_holds_end_to_end() {
    // The structural claim: for a fixed RSA op, Phi < MPSS < OpenSSL in
    // modeled cycles.
    use phi_simd::{count, CostModel};
    let key = test_key(768, 9);
    let c = &BigUint::from(123456789u64) % key.public().n();
    let model = CostModel::knc();
    let mut cycles = Vec::new();
    for (name, lib) in [
        ("phi", Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>),
        ("mpss", Box::new(MpssBaseline)),
        ("openssl", Box::new(OpensslBaseline)),
    ] {
        let ops = RsaOps::new(lib);
        count::reset();
        let (_, d) = count::measure(|| ops.private_op(&key, &c).unwrap());
        cycles.push((name, model.issue_cycles(&d)));
    }
    assert!(cycles[0].1 < cycles[1].1, "phi !< mpss: {cycles:?}");
    assert!(cycles[1].1 < cycles[2].1, "mpss !< openssl: {cycles:?}");
}

#[test]
fn application_data_flows_after_handshake() {
    // Handshake, then both sides derive record keys and exchange protected
    // application data end to end.
    use phi_ssl::record::ContentType;
    let key = test_key(512, 10);
    let mut rng = StdRng::seed_from_u64(17);
    let mut server = Server::new(
        &mut rng,
        key.clone(),
        RsaOps::new(Box::new(PhiLibrary::default())),
    );
    let mut client = Client::new(&mut rng, RsaOps::new(Box::new(MpssBaseline)));
    drive_handshake(&mut rng, &mut server, &mut client).unwrap();

    let mut ck = client.connection_keys();
    let mut sk = server.connection_keys();

    // Client -> server.
    let rec = ck
        .client_write
        .seal(&mut rng, ContentType::ApplicationData, b"GET / HTTP/1.1");
    assert_eq!(sk.client_write.open(&rec).unwrap(), b"GET / HTTP/1.1");
    // Server -> client.
    let rec = sk
        .server_write
        .seal(&mut rng, ContentType::ApplicationData, b"200 OK");
    assert_eq!(ck.server_write.open(&rec).unwrap(), b"200 OK");
    // Tampering is caught.
    let mut rec = ck
        .client_write
        .seal(&mut rng, ContentType::ApplicationData, b"again");
    rec.payload[20] ^= 1;
    assert!(sk.client_write.open(&rec).is_err());
}
