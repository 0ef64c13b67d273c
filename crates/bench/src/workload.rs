//! Deterministic workload generation shared by the harness experiments
//! and the perf gates: moduli, operands, exponents and cached RSA keys.

use crate::measure::{modeled, Modeled};
use phi_bigint::BigUint;
use phi_rsa::key::RsaPrivateKey;
use phiopenssl::{BatchCrtEngine, GenMontCtx, KernelParams, PhiConfig, ResolvedBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The modulus sizes the paper sweeps.
pub const SIZES: [u32; 4] = [512, 1024, 2048, 4096];

/// The RSA key sizes of the private-key experiments.
pub const RSA_SIZES: [u32; 3] = [1024, 2048, 4096];

/// A deterministic odd modulus with exactly `bits` bits.
pub fn modulus(bits: u32) -> BigUint {
    let mut rng = StdRng::seed_from_u64(0x0D0D_0000 + bits as u64);
    let mut n = BigUint::random_bits(&mut rng, bits);
    n.set_bit(0, true);
    n
}

/// A deterministic operand `< 2^bits` (top bit set), varied by `which`.
pub fn operand(bits: u32, which: u64) -> BigUint {
    let mut rng = StdRng::seed_from_u64(0x0A0A_0000 + bits as u64 * 31 + which);
    BigUint::random_bits(&mut rng, bits)
}

/// A deterministic full-length exponent (`bits` bits, top bit set).
pub fn exponent(bits: u32) -> BigUint {
    let mut rng = StdRng::seed_from_u64(0x0E0E_0000 + bits as u64);
    BigUint::random_bits(&mut rng, bits)
}

/// The deterministic RSA key for a given modulus size (cached — 4096-bit
/// generation costs a few seconds once).
///
/// The key is a fixture, not work under test: it is generated
/// [`unmeasured`](phi_trace::unmeasured), so its prime search lands in
/// no experiment's modeled cycles or spans, whichever asks first.
pub fn rsa_key(bits: u32) -> RsaPrivateKey {
    static KEYS: OnceLock<Mutex<HashMap<u32, RsaPrivateKey>>> = OnceLock::new();
    let cache = KEYS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("key cache poisoned");
    guard
        .entry(bits)
        .or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(0x05E5_0000 + bits as u64);
            phi_trace::unmeasured(|| RsaPrivateKey::generate(&mut rng, bits))
                .expect("key generation")
        })
        .clone()
}

/// The batch CRT engine for `key` under `config`, built from the key's
/// parts (no `CrtKey`, so only the engine's own contexts are built).
pub fn batch_engine(key: &RsaPrivateKey, config: &PhiConfig) -> BatchCrtEngine {
    BatchCrtEngine::from_parts(
        key.public().n().clone(),
        key.dp().clone(),
        key.dq().clone(),
        key.qinv().clone(),
        key.p().clone(),
        key.q().clone(),
        config,
    )
    .expect("odd CRT halves")
}

/// Both CRT half ladders of one 16-lane pass over `cts` under `key`, run
/// by the generated kernel at `params` on `backend` and measured on the
/// modeled channel: the batch engine's ladders without its
/// recombination, at any point. Panics if `params` does not admit the
/// key's halves.
pub fn half_ladders(
    key: &RsaPrivateKey,
    cts: &[BigUint],
    params: KernelParams,
    backend: ResolvedBackend,
) -> ((Vec<BigUint>, Vec<BigUint>), Modeled) {
    let ctx = |half| GenMontCtx::new(half, params, backend).expect("point admits the halves");
    let (gp, gq) = (ctx(key.p()), ctx(key.q()));
    modeled(|| (gp.mod_exp_16(cts, key.dp()), gq.mod_exp_16(cts, key.dq())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_shape() {
        for bits in SIZES {
            let n = modulus(bits);
            assert_eq!(n.bit_length(), bits);
            assert!(n.is_odd());
        }
    }

    #[test]
    fn deterministic_workloads() {
        assert_eq!(modulus(512), modulus(512));
        assert_eq!(operand(512, 1), operand(512, 1));
        assert_ne!(operand(512, 1), operand(512, 2));
        assert_eq!(exponent(512).bit_length(), 512);
    }

    #[test]
    fn rsa_key_generation_records_nothing_into_the_callers_measurement() {
        use phi_simd::count;
        // 160 bits: a size no other test asks for, so this call generates.
        let ((key, setups), ops) = count::measure(|| count::measure_ctx_setups(|| rsa_key(160)));
        assert_eq!(key.public().bits(), 160);
        assert_eq!(ops, count::OpCounts::zero());
        assert_eq!(setups, 0);
    }

    #[test]
    fn rsa_key_cached_and_deterministic() {
        let a = rsa_key(128);
        let b = rsa_key(128);
        assert_eq!(a, b);
        assert_eq!(a.public().bits(), 128);
    }
}
