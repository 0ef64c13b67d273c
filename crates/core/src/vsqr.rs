//! Separated-operand-scanning (SOS) Montgomery squaring: square with the
//! half-product kernel, then reduce in a second vectorized pass.
//!
//! This is the "dedicated squaring" design alternative the CIOS kernel in
//! [`vmont`](crate::vmont) deliberately does *not* use. The half-product
//! trick saves ~half the squaring FMAs, but SOS needs a memory-resident
//! double-width accumulator: every touched chunk pays an explicit load and
//! store where the CIOS kernel keeps its accumulator in registers and
//! folds operand loads into the FMAs. Under the KNC cost model the ablation
//! (experiment E10) shows the memory traffic eats the saved multiplies —
//! which is the quantitative reason PhiOpenSSL-style kernels square with
//! the multiplication path.

#![allow(clippy::needless_range_loop)] // explicit lane/column indices read as kernel semantics

use crate::radix::{VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use crate::vmont::{VMontCtx, ROW_GLUE_SALU};
use crate::vmul::vec_sqr_generic;
use phi_backend::{with_backend, VectorBackend, V64};
use phi_simd::count::OpClass;

/// Montgomery squaring via half-product squaring + SOS reduction.
///
/// Produces exactly the same value as `ctx.mont_sqr_vec(a)`, on the
/// context's backend.
pub fn mont_sqr_sos(ctx: &VMontCtx, a: &VecNum) -> VecNum {
    with_backend!(ctx.backend(), B => mont_sqr_sos_generic::<B>(ctx, a))
}

pub(crate) fn mont_sqr_sos_generic<B: VectorBackend>(ctx: &VMontCtx, a: &VecNum) -> VecNum {
    let _span = phi_trace::span(phi_trace::Scope::VSqr);
    let k = ctx.digits();
    let kk = ctx.padded_digits();
    debug_assert_eq!(a.len(), kk);

    // t = a², proper 27-bit digits, 2·kk wide.
    let t = vec_sqr_generic::<B>(a);
    let mut acc: Vec<u64> = t.digits().to_vec();
    acc.resize(2 * kk + LANES, 0); // slack for the offset vector rows

    let n0_inv = ctx.n0_inv();
    let n_digits = ctx.n_digits();
    let chunks = kk / LANES;

    // SOS reduction: clear one low digit per row, scanning upward.
    let mut carry = 0u64;
    for i in 0..k {
        // Fold the carry of the previously cleared digit in first: column
        // i is only correct modulo 2^27 once its lower neighbour settled.
        acc[i] += carry;
        let m = ((acc[i] & DIGIT_MASK).wrapping_mul(n0_inv)) & DIGIT_MASK;
        B::record(OpClass::SMul32, 1);

        // acc[i..] += m * N — vectorized row at digit offset i, through
        // the memory accumulator (load + FMA + store per chunk).
        let mv = V64::<B>::splat(m);
        for c in 0..chunks {
            let off = i + c * LANES;
            let cur = V64::<B>::load(&acc[off..off + LANES]);
            let n_chunk = V64::<B>::from_slice_folded(&n_digits[c * LANES..]);
            let sum = cur.fma32(mv, n_chunk);
            sum.store(&mut acc[off..off + LANES]);
        }
        debug_assert_eq!(acc[i] & DIGIT_MASK, 0, "row {i} not cleared");
        carry = acc[i] >> DIGIT_BITS;
        B::record(OpClass::SAlu, ROW_GLUE_SALU);
    }

    // Result = acc[k..] (division by R = dropping k digits), normalized.
    let mut out = VecNum::zero(kk);
    let mut c = carry;
    for j in 0..kk {
        let v = acc[k + j] + c;
        out.digits_mut()[j] = v & DIGIT_MASK;
        c = v >> DIGIT_BITS;
    }
    debug_assert_eq!(c, 0, "result exceeded padded width");
    B::record(OpClass::SAlu, 3 * kk as u64);
    B::record(OpClass::SMem, kk as u64);

    let n_vec = VecNum::from_digits_unchecked(n_digits.to_vec());
    if out.cmp_digits(&n_vec) != std::cmp::Ordering::Less {
        out.sub_assign_digits(&n_vec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_bigint::BigUint;
    use phi_simd::count;

    fn ctx(bits: u32) -> VMontCtx {
        let mut rng_state = 0x5A5A_5A5Au64 + bits as u64;
        let mut limbs = Vec::new();
        for _ in 0..bits.div_ceil(64) {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs.push(rng_state);
        }
        limbs[0] |= 1;
        let last = limbs.last_mut().unwrap();
        *last |= 1 << 63;
        VMontCtx::new(&BigUint::from_limbs(limbs)).unwrap()
    }

    #[test]
    fn sos_squaring_matches_cios_kernel() {
        for bits in [128u32, 512, 1024, 2048] {
            let c = ctx(bits);
            for seed in [3u64, 12345, 0xdeadbeef] {
                let a = c.to_mont_vec(&BigUint::from(seed));
                assert_eq!(
                    mont_sqr_sos(&c, &a),
                    c.mont_sqr_vec(&a),
                    "bits {bits} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn sos_squaring_near_modulus() {
        let c = ctx(512);
        let n = {
            use phi_mont::MontEngine;
            c.modulus().clone()
        };
        let max = &n - &BigUint::one();
        let am = c.to_mont_vec(&max);
        assert_eq!(mont_sqr_sos(&c, &am), c.mont_sqr_vec(&am));
    }

    #[test]
    fn sos_native_backend_matches_modeled() {
        use phi_backend::ResolvedBackend;
        use phi_mont::MontEngine;
        let c = ctx(512);
        let cn = VMontCtx::with_backend(c.modulus(), ResolvedBackend::NativeX86).unwrap();
        for seed in [3u64, 0xdeadbeef] {
            let a = c.to_mont_vec(&BigUint::from(seed));
            assert_eq!(mont_sqr_sos(&c, &a), mont_sqr_sos(&cn, &a), "seed {seed}");
        }
    }

    #[test]
    fn sos_issues_fewer_multiplies_but_more_memory_ops() {
        let c = ctx(2048);
        let a = c.to_mont_vec(&BigUint::from(7u64));
        count::reset();
        let (_, sos) = count::measure(|| mont_sqr_sos(&c, &a));
        let (_, cios) = count::measure(|| c.mont_sqr_vec(&a));
        assert!(
            sos.get(OpClass::VMul) < cios.get(OpClass::VMul),
            "SOS should save multiplies: {} !< {}",
            sos.get(OpClass::VMul),
            cios.get(OpClass::VMul)
        );
        assert!(
            sos.get(OpClass::VMem) > cios.get(OpClass::VMem),
            "SOS pays memory traffic: {} !> {}",
            sos.get(OpClass::VMem),
            cios.get(OpClass::VMem)
        );
    }
}
