//! Property tests: both scalar Montgomery kernels against the
//! division-based oracle, across random moduli, operands and exponents.

use phi_bigint::BigUint;
use phi_mont::exp::mont_exp;
use phi_mont::{ExpStrategy, MontCtx32, MontCtx64, MontEngine};
use proptest::prelude::*;

/// Random odd modulus of 1–6 limbs (64–384 bits), > 1.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..6).prop_map(|mut v| {
        v[0] |= 1;
        if let Some(last) = v.last_mut() {
            if *last == 0 {
                *last = 1;
            }
        }
        let n = BigUint::from_limbs(v);
        if n.is_one() {
            BigUint::from(3u64)
        } else {
            n
        }
    })
}

fn residue(n: &BigUint, seed: &BigUint) -> BigUint {
    seed % n
}

/// Odd moduli with every high limb saturated: `2^(64·limbs) − delta`
/// (delta odd). The dense-top shape drives the CIOS carries and the
/// final conditional subtraction harder than uniform limbs do.
fn dense_high_modulus() -> impl Strategy<Value = BigUint> {
    (2usize..9, 0u64..(1 << 20)).prop_map(|(limbs, delta)| {
        &(&BigUint::one() << (64 * limbs as u32)) - &BigUint::from(2 * delta + 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ctx64_roundtrip(n in odd_modulus(), a in proptest::collection::vec(any::<u64>(), 0..6)) {
        let ctx = MontCtx64::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a);
    }

    #[test]
    fn ctx32_roundtrip(n in odd_modulus(), a in proptest::collection::vec(any::<u64>(), 0..6)) {
        let ctx = MontCtx32::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a);
    }

    #[test]
    fn ctx64_mul_matches_oracle(
        n in odd_modulus(),
        a in proptest::collection::vec(any::<u64>(), 0..6),
        b in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let ctx = MontCtx64::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        let b = residue(&n, &BigUint::from_limbs(b));
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn ctx32_mul_matches_oracle(
        n in odd_modulus(),
        a in proptest::collection::vec(any::<u64>(), 0..6),
        b in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let ctx = MontCtx32::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        let b = residue(&n, &BigUint::from_limbs(b));
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn kernels_agree_with_each_other(
        n in odd_modulus(),
        a in proptest::collection::vec(any::<u64>(), 0..6),
        b in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let c64 = MontCtx64::new(&n).unwrap();
        let c32 = MontCtx32::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        let b = residue(&n, &BigUint::from_limbs(b));
        let p64 = c64.from_mont(&c64.mont_mul(&c64.to_mont(&a), &c64.to_mont(&b)));
        let p32 = c32.from_mont(&c32.mont_mul(&c32.to_mont(&a), &c32.to_mont(&b)));
        prop_assert_eq!(p64, p32);
    }

    #[test]
    fn exp_strategies_agree(
        n in odd_modulus(),
        base in proptest::collection::vec(any::<u64>(), 0..4),
        exp in proptest::collection::vec(any::<u64>(), 0..3),
        w in 1u32..=7,
    ) {
        let ctx = MontCtx64::new(&n).unwrap();
        let base = BigUint::from_limbs(base);
        let exp = BigUint::from_limbs(exp);
        let want = base.mod_exp(&exp, &n);
        prop_assert_eq!(mont_exp(&ctx, &base, &exp, ExpStrategy::SquareMultiply), want.clone());
        prop_assert_eq!(mont_exp(&ctx, &base, &exp, ExpStrategy::SlidingWindow(w)), want.clone());
        prop_assert_eq!(mont_exp(&ctx, &base, &exp, ExpStrategy::FixedWindow(w)), want);
    }

    #[test]
    fn cios_handles_dense_high_limbs(
        n in dense_high_modulus(),
        a in proptest::collection::vec(any::<u64>(), 0..9),
        b in proptest::collection::vec(any::<u64>(), 0..9),
    ) {
        let ctx = MontCtx64::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        let b = residue(&n, &BigUint::from_limbs(b));
        let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
        prop_assert_eq!(ctx.from_mont(&ctx.mont_mul(&am, &bm)), a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_domain_addition_homomorphism(
        n in odd_modulus(),
        a in proptest::collection::vec(any::<u64>(), 0..4),
        b in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        // to_mont(a) + to_mont(b) ≡ to_mont(a+b) (mod n): the Montgomery
        // map is additive.
        let ctx = MontCtx64::new(&n).unwrap();
        let a = residue(&n, &BigUint::from_limbs(a));
        let b = residue(&n, &BigUint::from_limbs(b));
        let lhs = ctx.to_mont(&a).mod_add(&ctx.to_mont(&b), &n);
        let rhs = ctx.to_mont(&a.mod_add(&b, &n));
        prop_assert_eq!(lhs, rhs);
    }
}
