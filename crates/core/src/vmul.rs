//! Vectorized big-integer multiplication (and squaring) in reduced radix.
//!
//! The paper "vectorizes all big integer multiplications" — this module is
//! that kernel outside the Montgomery loop: plain products used by CRT
//! recombination, blinding-factor updates, and the E1 benchmark.
//!
//! Row-by-column schoolbook: for each digit `aᵢ` (scalar row walk), one
//! broadcast plus a strip of vector FMAs accumulates `aᵢ·B` into a
//! memory-resident column accumulator at offset `i`. Because the digits
//! carry only 27 bits, a column can absorb one full row sweep per lane
//! without carrying; a final scalar pass normalizes.
//!
//! The kernels are generic over [`VectorBackend`]; the public entry
//! points run on the modeled-KNC backend, and their `_backend` forms on
//! an explicit [`ResolvedBackend`].

#![allow(clippy::needless_range_loop)] // explicit lane/column indices read as kernel semantics

use crate::radix::{pad_to_lanes, VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use phi_backend::{with_backend, ResolvedBackend, VectorBackend, V64};
use phi_bigint::BigUint;
use phi_simd::count::OpClass;

/// Vectorized product of two digit-form numbers. The result has
/// `a.len() + b.len()` digit slots.
///
/// Unlike the Montgomery kernel (whose accumulator fits in registers), the
/// product accumulator lives in memory: each row chunk costs an explicit
/// load and store around the FMA (the `B` operand still folds into the
/// FMA).
pub fn vec_mul(a: &VecNum, b: &VecNum) -> VecNum {
    vec_mul_backend(a, b, ResolvedBackend::ModeledKnc)
}

/// [`vec_mul`] on an explicitly chosen backend.
pub fn vec_mul_backend(a: &VecNum, b: &VecNum, backend: ResolvedBackend) -> VecNum {
    with_backend!(backend, B => vec_mul_generic::<B>(a, b))
}

pub(crate) fn vec_mul_generic<B: VectorBackend>(a: &VecNum, b: &VecNum) -> VecNum {
    let _span = phi_trace::span(phi_trace::Scope::VMul);
    let out_len = pad_to_lanes(a.len() + b.len());
    let mut acc = vec![0u64; out_len + LANES]; // slack so offset chunks never clip
    let b_chunks = b.len() / LANES;

    for i in 0..a.len() {
        let ai = a.digit(i);
        if ai == 0 {
            // The hardware still walks the row; charge the row overhead only.
            B::record(OpClass::SAlu, 2);
            continue;
        }
        let av = V64::<B>::splat(ai);
        for c in 0..b_chunks {
            let off = i + c * LANES;
            let cur = V64::<B>::load(&acc[off..off + LANES]);
            let b_chunk = V64::<B>::from_slice_folded(&b.digits()[c * LANES..]);
            let sum = cur.fma32(av, b_chunk);
            sum.store(&mut acc[off..off + LANES]);
        }
        B::record(OpClass::SAlu, 2);
    }

    // Normalize columns (each < a.len()·2^54 + carries < 2^63) into digits.
    let mut out = VecNum::zero(out_len);
    let mut carry = 0u64;
    for j in 0..out_len {
        let v = acc[j] + carry;
        out.digits_mut()[j] = v & DIGIT_MASK;
        carry = v >> DIGIT_BITS;
    }
    debug_assert_eq!(carry, 0);
    B::record(OpClass::SAlu, 3 * out_len as u64);
    B::record(OpClass::SMem, out_len as u64);
    out
}

/// Vectorized squaring. Computes the off-diagonal strip once and doubles it
/// (the classic half-product trick), then adds the diagonal terms.
pub fn vec_sqr(a: &VecNum) -> VecNum {
    vec_sqr_backend(a, ResolvedBackend::ModeledKnc)
}

/// [`vec_sqr`] on an explicitly chosen backend.
pub fn vec_sqr_backend(a: &VecNum, backend: ResolvedBackend) -> VecNum {
    with_backend!(backend, B => vec_sqr_generic::<B>(a))
}

pub(crate) fn vec_sqr_generic<B: VectorBackend>(a: &VecNum) -> VecNum {
    let _span = phi_trace::span(phi_trace::Scope::VSqr);
    let out_len = pad_to_lanes(2 * a.len());
    let mut acc = vec![0u64; out_len + LANES];
    let chunks = a.len() / LANES;

    // Off-diagonal: for each row i accumulate a_i * a[i+1..].
    for i in 0..a.len() {
        let ai = a.digit(i);
        if ai == 0 {
            B::record(OpClass::SAlu, 2);
            continue;
        }
        let av = V64::<B>::splat(ai);
        // Start at the chunk containing digit i+1; lanes below are masked
        // out by zeroing (modeled as part of the same FMA via write-mask).
        let start_chunk = (i + 1) / LANES;
        for c in start_chunk..chunks {
            let lo = c * LANES;
            let mut lanes = [0u64; 8];
            for l in 0..LANES {
                let j = lo + l;
                if j > i && j < a.len() {
                    lanes[l] = a.digit(j);
                }
            }
            let off = i + lo;
            let cur = V64::<B>::load(&acc[off..off + LANES]);
            let sum = cur.fma32(av, V64::<B>::from_lanes(lanes));
            sum.store(&mut acc[off..off + LANES]);
        }
        B::record(OpClass::SAlu, 2);
    }

    // Double the cross products: a vector shift-left-by-one over the
    // accumulator strip.
    let mut c = 0usize;
    while c * LANES < out_len {
        let off = c * LANES;
        let v = V64::<B>::load(&acc[off..off + LANES]);
        v.shl(1).store(&mut acc[off..off + LANES]);
        c += 1;
    }

    // Diagonal terms a_i² at column 2i (scalar adds; one per digit).
    for i in 0..a.len() {
        let ai = a.digit(i);
        acc[2 * i] += ai * ai;
    }
    B::record(OpClass::SMul32, a.len() as u64);
    B::record(OpClass::SAlu, 2 * a.len() as u64);

    let mut out = VecNum::zero(out_len);
    let mut carry = 0u64;
    for j in 0..out_len {
        let v = acc[j] + carry;
        out.digits_mut()[j] = v & DIGIT_MASK;
        carry = v >> DIGIT_BITS;
    }
    debug_assert_eq!(carry, 0);
    B::record(OpClass::SAlu, 3 * out_len as u64);
    B::record(OpClass::SMem, out_len as u64);
    out
}

/// Convenience: vectorized product of two big integers.
pub fn big_mul_vectorized(a: &BigUint, b: &BigUint) -> BigUint {
    big_mul_with_backend(a, b, ResolvedBackend::ModeledKnc)
}

/// [`big_mul_vectorized`] on an explicitly chosen backend.
pub fn big_mul_with_backend(a: &BigUint, b: &BigUint, backend: ResolvedBackend) -> BigUint {
    let _span = phi_trace::span(phi_trace::Scope::BigMul);
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let ka = a.bit_length().div_ceil(DIGIT_BITS) as usize;
    let kb = b.bit_length().div_ceil(DIGIT_BITS) as usize;
    let av = VecNum::from_biguint(a, ka);
    let bv = VecNum::from_biguint(b, kb);
    with_backend!(backend, B => vec_mul_generic::<B>(&av, &bv)).to_biguint()
}

impl VecNum {
    /// Mutable digit access for kernel-internal normalization passes.
    pub(crate) fn digits_mut(&mut self) -> &mut [u64] {
        &mut self.digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_backend::NativeX86;
    use phi_simd::count;

    fn vn(hex: &str) -> VecNum {
        let b = BigUint::from_hex(hex).unwrap();
        let k = b.bit_length().max(1).div_ceil(DIGIT_BITS) as usize;
        VecNum::from_biguint(&b, k)
    }

    #[test]
    fn small_products() {
        let a = vn("6");
        let b = vn("7");
        assert_eq!(vec_mul(&a, &b).to_biguint().to_u64(), Some(42));
    }

    #[test]
    fn zero_operand() {
        let z = VecNum::zero(8);
        let a = vn("deadbeef");
        assert!(vec_mul(&a, &z).to_biguint().is_zero());
        assert!(big_mul_vectorized(&BigUint::zero(), &BigUint::from(7u64)).is_zero());
    }

    #[test]
    fn matches_bigint_mul_various_sizes() {
        let cases = [
            ("deadbeef", "cafebabe"),
            (
                "123456789abcdef0123456789abcdef0123456789abcdef",
                "fedcba9876543210",
            ),
            (
                "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
                "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            ),
        ];
        for (x, y) in cases {
            let a = BigUint::from_hex(x).unwrap();
            let b = BigUint::from_hex(y).unwrap();
            assert_eq!(big_mul_vectorized(&a, &b), &a * &b, "{x} * {y}");
        }
    }

    #[test]
    fn cross_digit_boundary_product() {
        // (2^27 - 1)^2 exercises the carry normalization.
        let a = BigUint::from(DIGIT_MASK);
        assert_eq!(big_mul_vectorized(&a, &a), &a * &a);
    }

    #[test]
    fn square_matches_mul() {
        for hex in [
            "3",
            "fffffff",
            "123456789abcdef0123456789abcdef",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        ] {
            let a = vn(hex);
            assert_eq!(
                vec_sqr(&a).to_biguint(),
                vec_mul(&a, &a).to_biguint(),
                "square of {hex}"
            );
        }
    }

    #[test]
    fn square_of_zero_and_one() {
        assert!(vec_sqr(&VecNum::zero(8)).to_biguint().is_zero());
        let one = VecNum::from_biguint(&BigUint::one(), 8);
        assert!(vec_sqr(&one).to_biguint().is_one());
    }

    #[test]
    fn vector_mul_issues_fmas_with_memory_accumulator() {
        let a = vn("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let b = a.clone();
        count::reset();
        let (_, d) = count::measure(|| vec_mul(&a, &b));
        // Every FMA is bracketed by an accumulator load and store.
        assert_eq!(d.get(OpClass::VMem), 2 * d.get(OpClass::VMul));
        assert!(d.get(OpClass::VMul) > 0);
    }

    #[test]
    fn squaring_issues_fewer_multiplies_than_mul() {
        let a = vn("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        count::reset();
        let (_, dm) = count::measure(|| vec_mul(&a, &a));
        let (_, ds) = count::measure(|| vec_sqr(&a));
        assert!(
            ds.get(OpClass::VMul) < dm.get(OpClass::VMul),
            "sqr {} !< mul {}",
            ds.get(OpClass::VMul),
            dm.get(OpClass::VMul)
        );
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        for (x, y) in [
            ("deadbeef", "cafebabe"),
            (
                "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
                "123456789abcdef0123456789abcdef0fedcba9876543210",
            ),
        ] {
            let a = vn(x);
            let b = vn(y);
            let modeled = vec_mul(&a, &b);
            let native = vec_mul_backend(&a, &b, ResolvedBackend::NativeX86);
            assert_eq!(modeled.to_biguint(), native.to_biguint(), "{x} * {y}");
            let sq_m = vec_sqr(&a);
            let sq_n = vec_sqr_backend(&a, ResolvedBackend::NativeX86);
            assert_eq!(sq_m.to_biguint(), sq_n.to_biguint(), "{x}^2");
        }
    }

    #[test]
    fn native_backend_records_no_vector_ops() {
        let a = vn("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        count::reset();
        let (_, d) = count::measure(|| vec_mul_generic::<NativeX86>(&a, &a));
        assert_eq!(d.get(OpClass::VMul), 0);
        assert_eq!(d.get(OpClass::VMem), 0);
        assert_eq!(d.get(OpClass::SAlu), 0);
    }
}
