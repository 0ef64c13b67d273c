//! Montgomery context over 64-bit limbs (the MPSS libcrypto kernel shape).
//!
//! One reduction: interleaved CIOS, as OpenSSL's generic `bn_mul_mont`
//! runs it (the `mont-scalar` conformance family checks it against the
//! `mod_exp` oracle). The truncated-separated reduction lives only in the
//! vector library's generated batch kernel (`phiopenssl::genmont`). A
//! context needs only the one-word `n₀′`, so building one runs no
//! extended-Euclid inverse.

use crate::engine::MontEngine;
use phi_bigint::limb::mac;
use phi_bigint::{BigIntError, BigUint};
use phi_simd::count::{record, OpClass};

/// Compute the inverse of an odd `x` modulo 2^64 by Newton iteration.
///
/// For odd `x`, `x⁻¹ ≡ x (mod 8)`; each iteration doubles the number of
/// correct low bits, so five iterations reach 96 ≥ 64 bits.
pub fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1, "inverse requires an odd argument");
    let mut inv = x; // 3 correct bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Montgomery multiplication context with 64-bit limbs and CIOS reduction.
///
/// This is the kernel shape of OpenSSL's generic 64-bit `bn_mul_mont` — the
/// code path the MPSS (k1om) libcrypto build executes on the Phi's scalar
/// pipe. Each call records its scalar multiply/ALU/memory operations so the
/// harness can model KNC cycles.
#[derive(Debug, Clone)]
pub struct MontCtx64 {
    n: BigUint,
    n_limbs: Vec<u64>,
    k: usize,
    /// `-n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod n`, for entering the domain.
    rr: BigUint,
    r_bits: u32,
}

impl MontCtx64 {
    /// Build a context for the odd modulus `n`.
    pub fn new(n: &BigUint) -> Result<Self, BigIntError> {
        if n.is_zero() || n.is_even() {
            return Err(BigIntError::EvenModulus);
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let n_limbs = n.limbs().to_vec();
        let k = n_limbs.len();
        let r_bits = (k as u32) * 64;
        let n0_inv = inv_mod_2_64(n_limbs[0]).wrapping_neg();
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        Ok(MontCtx64 {
            n: n.clone(),
            n_limbs,
            k,
            n0_inv,
            rr,
            r_bits,
        })
    }

    /// Limb count of the modulus.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// `-n⁻¹ mod 2^64` (exposed for tests and the vectorized kernels).
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// Pad a reduced value to exactly `k` limbs.
    fn padded(&self, a: &BigUint) -> Vec<u64> {
        debug_assert!(a < &self.n, "operand not reduced");
        let mut v = a.limbs().to_vec();
        v.resize(self.k, 0);
        v
    }

    /// Record the deterministic operation footprint of one CIOS call.
    ///
    /// Per inner multiply-accumulate the modeled KNC scalar pipe executes
    /// one `mulq`, ~3 dependent ALU ops (add/adc/carry bookkeeping) and two
    /// memory ops (load operand limb, store accumulator limb); each of the
    /// `k` outer rows adds the `m = t₀·n₀'` multiply plus loop overhead.
    fn record_cios_ops(&self) {
        let k = self.k as u64;
        record(OpClass::SMul64, 2 * k * k + k);
        record(OpClass::SAlu, 6 * k * k + 8 * k);
        record(OpClass::SMem, 4 * k * k + 2 * k);
    }

    /// CIOS Montgomery product of two reduced, padded operands.
    fn cios(&self, a: &[u64], b: &[u64]) -> BigUint {
        let k = self.k;
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter().take(k) {
            // t += a_i * b
            let mut c = 0u64;
            for j in 0..k {
                let (lo, hi) = mac(t[j], ai, b[j], c);
                t[j] = lo;
                c = hi;
            }
            let (s, c2) = t[k].overflowing_add(c);
            t[k] = s;
            t[k + 1] += c2 as u64;

            // m = t0 * n0' mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut c) = mac(t[0], m, self.n_limbs[0], 0);
            for j in 1..k {
                let (lo, hi) = mac(t[j], m, self.n_limbs[j], c);
                t[j - 1] = lo;
                c = hi;
            }
            let (s, c2) = t[k].overflowing_add(c);
            t[k - 1] = s;
            t[k] = t[k + 1] + c2 as u64;
            t[k + 1] = 0;
        }
        self.record_cios_ops();

        let mut r = BigUint::from_limbs(t[..=k].to_vec());
        if r >= self.n {
            r -= &self.n;
        }
        r
    }
}

impl MontEngine for MontCtx64 {
    fn modulus(&self) -> &BigUint {
        &self.n
    }

    fn r_bits(&self) -> u32 {
        self.r_bits
    }

    fn to_mont(&self, a: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        let reduced = if a < &self.n { a.clone() } else { a % &self.n };
        self.cios(&self.padded(&reduced), &self.padded(&self.rr))
    }

    fn from_mont(&self, a: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        let one = {
            let mut v = vec![0u64; self.k];
            v[0] = 1;
            v
        };
        self.cios(&self.padded(a), &one)
    }

    fn one_mont(&self) -> BigUint {
        &BigUint::power_of_two(self.r_bits) % &self.n
    }

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        self.cios(&self.padded(a), &self.padded(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count;

    fn ctx(hex: &str) -> MontCtx64 {
        MontCtx64::new(&BigUint::from_hex(hex).unwrap()).unwrap()
    }

    #[test]
    fn inv_mod_2_64_identity() {
        for x in [1u64, 3, 5, 0xdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x = {x:#x}");
        }
    }

    #[test]
    fn rejects_even_or_zero_modulus() {
        assert!(MontCtx64::new(&BigUint::from(10u64)).is_err());
        assert!(MontCtx64::new(&BigUint::zero()).is_err());
    }

    #[test]
    fn roundtrip_small() {
        let c = ctx("61"); // 97
        for v in 0u64..97 {
            let a = BigUint::from(v);
            assert_eq!(c.from_mont(&c.to_mont(&a)), a, "v = {v}");
        }
    }

    #[test]
    fn mont_mul_matches_mod_mul() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // odd 128-bit
        let n = c.modulus().clone();
        let a = BigUint::from_hex("123456789abcdef00fedcba987654321").unwrap() % &n;
        let b = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap() % &n;
        let am = c.to_mont(&a);
        let bm = c.to_mont(&b);
        let prod = c.from_mont(&c.mont_mul(&am, &bm));
        assert_eq!(prod, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_mul_large_modulus() {
        // 512-bit odd modulus (deterministic).
        let mut limbs = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..8 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs.push(state);
        }
        limbs[0] |= 1;
        let n = BigUint::from_limbs(limbs);
        let c = MontCtx64::new(&n).unwrap();
        let a = BigUint::from_hex("1234567890abcdef").unwrap();
        let b = BigUint::from_hex("fedcba9876543210").unwrap();
        let prod = c.from_mont(&c.mont_mul(&c.to_mont(&a), &c.to_mont(&b)));
        assert_eq!(prod, a.mod_mul(&b, &n));
    }

    #[test]
    fn one_mont_is_identity() {
        let c = ctx("ffffffffffffffc5");
        let a = BigUint::from(123456789u64);
        let am = c.to_mont(&a);
        assert_eq!(c.mont_mul(&am, &c.one_mont()), am);
        // from_mont(one_mont) == 1
        assert!(c.from_mont(&c.one_mont()).is_one());
    }

    #[test]
    fn to_mont_reduces_unreduced_input() {
        let c = ctx("61"); // 97
        let big = BigUint::from(1000u64); // 1000 mod 97 = 30
        assert_eq!(c.from_mont(&c.to_mont(&big)).to_u64(), Some(30));
    }

    #[test]
    fn op_counts_are_deterministic_and_quadratic() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // k = 2
        let a = c.to_mont(&BigUint::from(3u64));
        let b = c.to_mont(&BigUint::from(5u64));
        count::reset();
        let (_, d1) = count::measure(|| c.mont_mul(&a, &b));
        let (_, d2) = count::measure(|| c.mont_mul(&a, &b));
        assert_eq!(d1, d2, "counts must be deterministic");
        let k = 2u64;
        assert_eq!(d1.get(OpClass::SMul64), 2 * k * k + k);
        assert_eq!(d1.get(OpClass::SMul32), 0);
    }

    #[test]
    fn cios_result_always_reduced() {
        // Stress with operands near n-1 where the conditional subtract fires.
        let c = ctx("ffffffffffffffc5");
        let n = c.modulus().clone();
        let max = &n - &BigUint::one();
        let mm = c.mont_mul(&max, &max);
        assert!(mm < n);
        // (n-1)^2 mod n == 1, checked through the domain.
        let am = c.to_mont(&max);
        let sq = c.from_mont(&c.mont_mul(&am, &am));
        assert!(sq.is_one());
    }
}
