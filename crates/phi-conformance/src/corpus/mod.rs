//! The embedded known-answer corpus.
//!
//! Three vector families live here:
//!
//! * **Hash vectors** ([`sha1_vectors`], [`mgf1_vectors`]) — published
//!   FIPS 180 SHA-1 digests and the pyca/cryptography MGF1 vectors.
//! * **Padding structure vectors** — EMSA-PKCS1-v1_5 encodings built on
//!   the published SHA-256 digest of `"abc"` and the RFC 8017 DigestInfo
//!   prefix.
//! * **RSA vectors** ([`rsa_data`]) — deterministic keys at 1024, 2048
//!   and 4096 bits (primes embedded as hex; regenerate with
//!   `cargo run --release -p phi-conformance --example gen_corpus`)
//!   with frozen sign / OAEP / PKCS#1 v1.5 / raw-RSADP answers computed
//!   once by the scalar oracle. Every library profile — vectorized and
//!   both scalar baselines — must reproduce them bit-for-bit.
//!
//! Randomized paddings are made deterministic by embedding the random
//! bytes themselves (the OAEP seed, the PKCS#1 v1.5 padding string) and
//! replaying them through [`ReplayRng`], so encrypt-direction answers
//! are exact byte comparisons, not just roundtrips.

pub mod mgf1_vectors;
pub mod rsa_data;
pub mod sha1_vectors;

use crate::report::{dump, Divergence};
use phi_bigint::BigUint;
use phi_hash::mgf1::mgf1;
use phi_hash::sha1::Sha1;
use phi_hash::sha2::Sha256;
use phi_hash::{to_hex, Digest};
use phi_mont::{Libcrypto, MpssBaseline, OpensslBaseline};
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::ops::RsaOps;
use phi_rsa::padding::pkcs1v15;
use phiopenssl::engine::SINGLE_OP_MAX_LIVE;
use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig, PhiLibrary};
use rand::RngCore;

/// A KAT message, either literal bytes or a repeated byte (so the
/// million-`a` FIPS vector does not bloat the binary).
#[derive(Debug, Clone, Copy)]
pub enum KatMsg {
    /// The message itself.
    Bytes(&'static [u8]),
    /// `count` copies of `byte`.
    Repeat(u8, usize),
}

impl KatMsg {
    /// The message as a byte vector.
    pub fn materialize(&self) -> Vec<u8> {
        match *self {
            KatMsg::Bytes(b) => b.to_vec(),
            KatMsg::Repeat(byte, count) => vec![byte; count],
        }
    }

    /// A short printable form for divergence reports.
    pub fn describe(&self) -> String {
        match *self {
            KatMsg::Bytes(b) => format!("{:?}", String::from_utf8_lossy(b)),
            KatMsg::Repeat(byte, count) => format!("{count}×{byte:#04x}"),
        }
    }
}

/// Which hash instantiates an MGF1 vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgfHash {
    /// MGF1-SHA1 (the RFC 8017 default parameterization).
    Sha1,
    /// MGF1-SHA256 (the suite's OAEP default).
    Sha256,
}

/// One published MGF1 vector: `mgf1::<hash>(seed, len) == out` (hex).
#[derive(Debug, Clone, Copy)]
pub struct Mgf1Kat {
    /// Hash function the mask is built from.
    pub hash: MgfHash,
    /// MGF1 seed input.
    pub seed: &'static [u8],
    /// Requested mask length in bytes.
    pub len: usize,
    /// Expected mask, lowercase hex.
    pub out: &'static str,
}

/// One published SHA-1 vector.
#[derive(Debug, Clone, Copy)]
pub struct Sha1Kat {
    /// The input message.
    pub msg: KatMsg,
    /// Expected digest, lowercase hex.
    pub digest: &'static str,
}

/// A deterministic corpus key: primes embedded as hex, `e = 65537`.
#[derive(Debug, Clone, Copy)]
pub struct RsaKatKey {
    /// Modulus size in bits.
    pub bits: u32,
    /// First prime, hex.
    pub p: &'static str,
    /// Second prime, hex.
    pub q: &'static str,
}

impl RsaKatKey {
    /// Materialize the private key (CRT components recomputed).
    pub fn key(&self) -> RsaPrivateKey {
        let p = BigUint::from_hex(self.p).expect("corpus prime p");
        let q = BigUint::from_hex(self.q).expect("corpus prime q");
        let e = BigUint::from(phi_rsa::DEFAULT_PUBLIC_EXPONENT);
        let key = RsaPrivateKey::from_primes(&p, &q, &e).expect("corpus key");
        assert_eq!(key.public().bits(), self.bits, "corpus key width drifted");
        key
    }
}

/// A frozen PKCS#1 v1.5 / SHA-256 signature.
#[derive(Debug, Clone, Copy)]
pub struct SignKat {
    /// Key size in bits (selects the corpus key).
    pub bits: u32,
    /// Message being signed.
    pub msg: &'static [u8],
    /// Expected signature, hex, `k` bytes.
    pub sig: &'static str,
}

/// A frozen OAEP (SHA-256) encryption: the random seed is embedded, so
/// the ciphertext is an exact byte answer.
#[derive(Debug, Clone, Copy)]
pub struct OaepKat {
    /// Key size in bits.
    pub bits: u32,
    /// Plaintext.
    pub msg: &'static [u8],
    /// OAEP label.
    pub label: &'static [u8],
    /// The 32 seed bytes the encoder drew, hex.
    pub seed: &'static str,
    /// Expected ciphertext, hex, `k` bytes.
    pub ct: &'static str,
}

/// A frozen PKCS#1 v1.5 encryption with its padding string embedded.
#[derive(Debug, Clone, Copy)]
pub struct Pkcs1EncKat {
    /// Key size in bits.
    pub bits: u32,
    /// Plaintext.
    pub msg: &'static [u8],
    /// The nonzero padding-string bytes the encoder drew, hex.
    pub ps: &'static str,
    /// Expected ciphertext, hex, `k` bytes.
    pub ct: &'static str,
}

/// A frozen raw `RSAEP`/`RSADP` pair: `c = m^e mod n`, `m = c^d mod n`.
#[derive(Debug, Clone, Copy)]
pub struct RawKat {
    /// Key size in bits.
    pub bits: u32,
    /// Plaintext residue, hex.
    pub m: &'static str,
    /// Ciphertext residue, hex.
    pub c: &'static str,
}

/// An RNG that replays embedded bytes verbatim.
///
/// `fill_bytes` hands out the stream bytes unchanged and `next_u64`
/// consumes exactly one byte (its value in the low 8 bits), which is
/// what `Rng::gen::<u8>()` reads — so both the OAEP seed draw and the
/// PKCS#1 v1.5 per-byte padding loop consume one embedded byte per
/// output byte. Panics if a consumer asks for more bytes than the
/// corpus embedded: that means the padding code changed shape and the
/// vector needs regenerating.
#[derive(Debug, Clone)]
pub struct ReplayRng {
    bytes: Vec<u8>,
    pos: usize,
}

impl ReplayRng {
    /// Replay the given bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        ReplayRng { bytes, pos: 0 }
    }

    /// Replay bytes given as hex.
    pub fn from_hex(hex: &str) -> Self {
        ReplayRng::new(hex_bytes(hex))
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(
            self.pos + n <= self.bytes.len(),
            "ReplayRng exhausted: asked for {n} with {} left — regenerate the corpus",
            self.bytes.len() - self.pos
        );
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        out
    }
}

impl RngCore for ReplayRng {
    fn next_u64(&mut self) -> u64 {
        self.take(1)[0] as u64
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let src = self.take(dest.len());
        dest.copy_from_slice(src);
    }
}

/// Decode lowercase/uppercase hex into bytes (leading zeros preserved,
/// unlike a round-trip through [`BigUint`]).
pub fn hex_bytes(s: &str) -> Vec<u8> {
    assert!(s.len() % 2 == 0, "odd hex length in corpus literal");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("corpus hex"))
        .collect()
}

fn kat_divergence(kernel: &'static str, case: u64, detail: String) -> Divergence {
    Divergence {
        kernel,
        seed: 0,
        case,
        detail,
    }
}

/// Check every SHA-1 vector against [`phi_hash::sha1`].
pub fn verify_sha1() -> Vec<Divergence> {
    let mut out = Vec::new();
    for (i, kat) in sha1_vectors::SHA1_VECTORS.iter().enumerate() {
        let got = to_hex(&Sha1::digest(&kat.msg.materialize()));
        if got != kat.digest {
            out.push(kat_divergence(
                "kat-sha1",
                i as u64,
                format!("msg={} got={got} want={}", kat.msg.describe(), kat.digest),
            ));
        }
    }
    out
}

/// Check every MGF1 vector against [`phi_hash::mgf1`].
pub fn verify_mgf1() -> Vec<Divergence> {
    let mut out = Vec::new();
    for (i, kat) in mgf1_vectors::MGF1_VECTORS.iter().enumerate() {
        let got = match kat.hash {
            MgfHash::Sha1 => to_hex(&mgf1::<Sha1>(kat.seed, kat.len)),
            MgfHash::Sha256 => to_hex(&mgf1::<Sha256>(kat.seed, kat.len)),
        };
        if got != kat.out {
            out.push(kat_divergence(
                "kat-mgf1",
                i as u64,
                format!(
                    "hash={:?} seed={:?} len={} got={got} want={}",
                    kat.hash,
                    String::from_utf8_lossy(kat.seed),
                    kat.len,
                    kat.out
                ),
            ));
        }
    }
    out
}

/// Published SHA-256 digest of `"abc"` (FIPS 180-2 appendix B.1), the
/// anchor for the EMSA-PKCS1-v1_5 structure vectors.
const SHA256_ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

/// Structural KATs for `rsa::padding::pkcs1v15`: the EMSA encoding is
/// `00 01 FF…FF 00 ‖ DigestInfo ‖ SHA-256(msg)` with the RFC 8017
/// DigestInfo prefix, checked against the published digest of `"abc"`;
/// the EME encoding replays an embedded padding string and must
/// reproduce `00 02 PS 00 M` exactly and round-trip through the
/// decoder.
pub fn verify_pkcs1v15_encoding() -> Vec<Divergence> {
    let mut out = Vec::new();
    // RFC 8017 §9.2 note 1: DigestInfo prefix for SHA-256.
    let digest_info = "3031300d060960864801650304020105000420";
    let k = 128usize;
    let em = pkcs1v15::pad_sign_sha256(b"abc", k).expect("encode fits a 1024-bit key");
    let want = format!(
        "0001{}00{digest_info}{SHA256_ABC}",
        "ff".repeat(k - 3 - 19 - 32)
    );
    if to_hex(&em) != want {
        out.push(kat_divergence(
            "kat-pkcs1v15-encode",
            0,
            format!("EMSA(abc,k=128) got={} want={want}", to_hex(&em)),
        ));
    }
    if pkcs1v15::verify_sign_sha256(b"abc", &em).is_err() {
        out.push(kat_divergence(
            "kat-pkcs1v15-encode",
            1,
            "EMSA re-verification of its own encoding failed".into(),
        ));
    }
    // EME: replayed nonzero PS must appear verbatim between the header
    // and the 00 separator.
    let ps = "0102030405060708090a0b";
    let msg = b"kat";
    let mut rng = ReplayRng::from_hex(ps);
    let em = pkcs1v15::pad_encrypt(&mut rng, msg, 3 + 11 + msg.len()).expect("encode fits");
    let want = format!("0002{ps}00{}", to_hex(msg));
    if to_hex(&em) != want {
        out.push(kat_divergence(
            "kat-pkcs1v15-encode",
            2,
            format!("EME got={} want={want}", to_hex(&em)),
        ));
    }
    match pkcs1v15::unpad_encrypt(&em) {
        Ok(back) if back == msg => {}
        other => out.push(kat_divergence(
            "kat-pkcs1v15-encode",
            3,
            format!("EME decode gave {other:?}, want Ok({msg:?})"),
        )),
    }
    out
}

/// The three library profiles every RSA answer must agree across.
fn libraries() -> Vec<Box<dyn Libcrypto>> {
    vec![
        Box::new(PhiLibrary::default()),
        Box::new(MpssBaseline),
        Box::new(OpensslBaseline),
    ]
}

/// The vectorized batch engine for a corpus key.
fn engine_for(key: &RsaPrivateKey) -> BatchCrtEngine {
    let crt = CrtKey::from_components(key.p(), key.q(), key.dp(), key.dq(), key.qinv())
        .expect("corpus key builds a CRT context");
    BatchCrtEngine::with_config(&crt, &PhiConfig::default())
        .expect("corpus key builds a batch engine")
}

/// Run every RSA known-answer vector for keys up to `max_bits` through
/// all three library profiles plus the batch CRT engine. `max_bits`
/// bounds the runtime: the smoke profile stops at 2048, the full run
/// covers 4096, and the debug-mode crate tests stop at 1024.
pub fn verify_rsa(max_bits: u32) -> Vec<Divergence> {
    let mut out = Vec::new();
    for kat_key in rsa_data::KAT_KEYS.iter().filter(|k| k.bits <= max_bits) {
        let key = kat_key.key();
        let engine = engine_for(&key);
        let k = key.public().size_bytes();
        for lib_box in libraries() {
            let name = lib_box.name();
            let ops = RsaOps::new(lib_box);

            for (i, kat) in sign_kats_for(kat_key.bits).enumerate() {
                let sig = match ops.sign_pkcs1v15_sha256(&key, kat.msg) {
                    Ok(sig) => sig,
                    Err(e) => {
                        out.push(kat_divergence(
                            "kat-sign",
                            i as u64,
                            format!("[{name} {}b] sign errored: {e}", kat.bits),
                        ));
                        continue;
                    }
                };
                if to_hex(&sig) != kat.sig {
                    out.push(kat_divergence(
                        "kat-sign",
                        i as u64,
                        format!(
                            "[{name} {}b] msg={:?} got={} want={}",
                            kat.bits,
                            String::from_utf8_lossy(kat.msg),
                            to_hex(&sig),
                            kat.sig
                        ),
                    ));
                }
                if ops
                    .verify_pkcs1v15_sha256(key.public(), kat.msg, &hex_bytes(kat.sig))
                    .is_err()
                {
                    out.push(kat_divergence(
                        "kat-sign",
                        i as u64,
                        format!("[{name} {}b] frozen signature failed to verify", kat.bits),
                    ));
                }
            }

            for (i, kat) in oaep_kats_for(kat_key.bits).enumerate() {
                let mut rng = ReplayRng::from_hex(kat.seed);
                match ops.encrypt_oaep(&mut rng, key.public(), kat.msg, kat.label) {
                    Ok(ct) if to_hex(&ct) == kat.ct => {}
                    Ok(ct) => out.push(kat_divergence(
                        "kat-oaep",
                        i as u64,
                        format!(
                            "[{name} {}b] encrypt got={} want={}",
                            kat.bits,
                            to_hex(&ct),
                            kat.ct
                        ),
                    )),
                    Err(e) => out.push(kat_divergence(
                        "kat-oaep",
                        i as u64,
                        format!("[{name} {}b] encrypt errored: {e}", kat.bits),
                    )),
                }
                match ops.decrypt_oaep(&key, &hex_bytes(kat.ct), kat.label) {
                    Ok(m) if m == kat.msg => {}
                    other => out.push(kat_divergence(
                        "kat-oaep",
                        i as u64,
                        format!(
                            "[{name} {}b] decrypt gave {other:?}, want Ok({:?})",
                            kat.bits, kat.msg
                        ),
                    )),
                }
            }

            for (i, kat) in pkcs1_enc_kats_for(kat_key.bits).enumerate() {
                let mut rng = ReplayRng::from_hex(kat.ps);
                match ops.encrypt_pkcs1v15(&mut rng, key.public(), kat.msg) {
                    Ok(ct) if to_hex(&ct) == kat.ct => {}
                    Ok(ct) => out.push(kat_divergence(
                        "kat-pkcs1v15",
                        i as u64,
                        format!(
                            "[{name} {}b] encrypt got={} want={}",
                            kat.bits,
                            to_hex(&ct),
                            kat.ct
                        ),
                    )),
                    Err(e) => out.push(kat_divergence(
                        "kat-pkcs1v15",
                        i as u64,
                        format!("[{name} {}b] encrypt errored: {e}", kat.bits),
                    )),
                }
                match ops.decrypt_pkcs1v15(&key, &hex_bytes(kat.ct)) {
                    Ok(m) if m == kat.msg => {}
                    other => out.push(kat_divergence(
                        "kat-pkcs1v15",
                        i as u64,
                        format!(
                            "[{name} {}b] decrypt gave {other:?}, want Ok({:?})",
                            kat.bits, kat.msg
                        ),
                    )),
                }
            }

            for (i, kat) in raw_kats_for(kat_key.bits).enumerate() {
                let m = BigUint::from_hex(kat.m).expect("corpus m");
                let c = BigUint::from_hex(kat.c).expect("corpus c");
                match ops.public_op(key.public(), &m) {
                    Ok(got) if got == c => {}
                    other => out.push(kat_divergence(
                        "kat-raw",
                        i as u64,
                        format!("[{name} {}b] RSAEP gave {other:?}", kat.bits),
                    )),
                }
                match ops.private_op(&key, &c) {
                    Ok(got) if got == m => {}
                    other => out.push(kat_divergence(
                        "kat-raw",
                        i as u64,
                        format!("[{name} {}b] RSADP gave {other:?}", kat.bits),
                    )),
                }
            }
        }

        // The batch CRT engine answers the raw vectors too — through the
        // single-lane path and through a padded pass (the fewest live
        // lanes that still take one). `k` keeps the byte width handy for
        // operand dumps.
        for (i, kat) in raw_kats_for(kat_key.bits).enumerate() {
            let m = BigUint::from_hex(kat.m).expect("corpus m");
            let c = BigUint::from_hex(kat.c).expect("corpus c");
            let single = engine.private_op_single(&c);
            let masked = engine.private_op_masked(&vec![c.clone(); SINGLE_OP_MAX_LIVE + 1]);
            if single != m || masked.iter().any(|lane| *lane != m) {
                out.push(kat_divergence(
                    "kat-raw",
                    i as u64,
                    format!(
                        "[BatchCrtEngine {}b/{}B] {}",
                        kat.bits,
                        k,
                        dump(&[("single", &single), ("masked0", &masked[0]), ("want", &m)])
                    ),
                ));
            }
        }
    }
    out
}

fn sign_kats_for(bits: u32) -> impl Iterator<Item = &'static SignKat> {
    rsa_data::SIGN_KATS.iter().filter(move |k| k.bits == bits)
}

fn oaep_kats_for(bits: u32) -> impl Iterator<Item = &'static OaepKat> {
    rsa_data::OAEP_KATS.iter().filter(move |k| k.bits == bits)
}

fn pkcs1_enc_kats_for(bits: u32) -> impl Iterator<Item = &'static Pkcs1EncKat> {
    rsa_data::PKCS1_ENC_KATS
        .iter()
        .filter(move |k| k.bits == bits)
}

fn raw_kats_for(bits: u32) -> impl Iterator<Item = &'static RawKat> {
    rsa_data::RAW_KATS.iter().filter(move |k| k.bits == bits)
}

/// Total number of embedded vectors (hash + padding + RSA families).
pub fn corpus_len() -> usize {
    sha1_vectors::SHA1_VECTORS.len()
        + mgf1_vectors::MGF1_VECTORS.len()
        + 4 // EMSA/EME structural vectors
        + rsa_data::SIGN_KATS.len()
        + rsa_data::OAEP_KATS.len()
        + rsa_data::PKCS1_ENC_KATS.len()
        + rsa_data::RAW_KATS.len()
}

/// Run the hash and padding families (cheap, key-size independent).
pub fn verify_hashes_and_padding() -> Vec<Divergence> {
    let mut out = verify_sha1();
    out.extend(verify_mgf1());
    out.extend(verify_pkcs1v15_encoding());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_rng_hands_back_the_stream() {
        let mut rng = ReplayRng::from_hex("0102030405060708090a");
        let mut buf = [0u8; 4];
        rng.fill_bytes(&mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 5);
        let mut rest = [0u8; 5];
        rng.fill_bytes(&mut rest);
        assert_eq!(rest, [6, 7, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "ReplayRng exhausted")]
    fn replay_rng_panics_past_the_end() {
        let mut rng = ReplayRng::from_hex("01");
        let _ = rng.next_u64();
        let _ = rng.next_u64();
    }

    #[test]
    fn hex_bytes_keeps_leading_zeros() {
        assert_eq!(hex_bytes("00ff10"), vec![0x00, 0xff, 0x10]);
    }
}
