//! Property tests: the vectorized kernels against the scalar kernels and
//! the division-based oracle, over random moduli, operands, exponents,
//! window widths and both table-lookup policies.

use phi_bigint::BigUint;
use phi_mont::{MontCtx64, MontEngine};
use phiopenssl::batch::{Batch16, BatchMont, BATCH_WIDTH};
use phiopenssl::vexp::{mod_exp_vec, TableLookup};
use phiopenssl::vmul::{big_mul_vectorized, vec_mul, vec_sqr};
use phiopenssl::{VMontCtx, VecNum, DIGIT_BITS};
use proptest::prelude::*;

fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..7).prop_map(|mut v| {
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

fn value() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..7).prop_map(BigUint::from_limbs)
}

/// Odd moduli with every high limb saturated: `2^(64·limbs) − delta`
/// (delta odd) — the dense-top shape that maxes out the boundary columns
/// `s_{k-2}`, `s_{k-1}` of the truncated reduction's correction step.
fn dense_high_modulus() -> impl Strategy<Value = BigUint> {
    (1usize..9, 0u64..(1 << 20)).prop_map(|(limbs, delta)| {
        &(&BigUint::one() << (64 * limbs as u32)) - &BigUint::from(2 * delta + 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vec_mul_matches_bigint(a in value(), b in value()) {
        prop_assert_eq!(big_mul_vectorized(&a, &b), &a * &b);
    }

    #[test]
    fn vec_mul_commutative(a in value(), b in value()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let ka = a.bit_length().div_ceil(DIGIT_BITS) as usize;
        let kb = b.bit_length().div_ceil(DIGIT_BITS) as usize;
        let av = VecNum::from_biguint(&a, ka);
        let bv = VecNum::from_biguint(&b, kb);
        prop_assert_eq!(vec_mul(&av, &bv).to_biguint(), vec_mul(&bv, &av).to_biguint());
    }

    #[test]
    fn vec_sqr_matches_mul(a in value()) {
        prop_assume!(!a.is_zero());
        let k = a.bit_length().div_ceil(DIGIT_BITS) as usize;
        let av = VecNum::from_biguint(&a, k);
        prop_assert_eq!(vec_sqr(&av).to_biguint(), &a * &a);
    }

    #[test]
    fn vecnum_roundtrip(a in value()) {
        let k = (a.bit_length().max(1)).div_ceil(DIGIT_BITS) as usize;
        prop_assert_eq!(VecNum::from_biguint(&a, k).to_biguint(), a);
    }

    #[test]
    fn vmont_roundtrip(n in odd_modulus(), a in value()) {
        let ctx = VMontCtx::new(&n).unwrap();
        let a = &a % &n;
        let m = ctx.to_mont_vec(&a);
        prop_assert_eq!(ctx.from_mont_vec(&m), a);
    }

    #[test]
    fn vmont_mul_matches_oracle(n in odd_modulus(), a in value(), b in value()) {
        let ctx = VMontCtx::new(&n).unwrap();
        let a = &a % &n;
        let b = &b % &n;
        let got = ctx.from_mont_vec(&ctx.mont_mul_vec(&ctx.to_mont_vec(&a), &ctx.to_mont_vec(&b)));
        prop_assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn vmont_agrees_with_scalar_kernel(n in odd_modulus(), a in value(), b in value()) {
        let vctx = VMontCtx::new(&n).unwrap();
        let sctx = MontCtx64::new(&n).unwrap();
        let a = &a % &n;
        let b = &b % &n;
        let pv = vctx.from_mont_vec(&vctx.mont_mul_vec(&vctx.to_mont_vec(&a), &vctx.to_mont_vec(&b)));
        let ps = sctx.from_mont(&sctx.mont_mul(&sctx.to_mont(&a), &sctx.to_mont(&b)));
        prop_assert_eq!(pv, ps);
    }

    #[test]
    fn vexp_matches_oracle(
        n in odd_modulus(),
        base in value(),
        exp in proptest::collection::vec(any::<u64>(), 0..3),
        w in 1u32..=7,
        ct in any::<bool>(),
    ) {
        let ctx = VMontCtx::new(&n).unwrap();
        let exp = BigUint::from_limbs(exp);
        let lookup = if ct { TableLookup::ConstantTime } else { TableLookup::Direct };
        let got = mod_exp_vec(&ctx, &base, &exp, w, lookup);
        prop_assert_eq!(got, base.mod_exp(&exp, &n));
    }

    #[test]
    fn batch_matches_singles(
        n in odd_modulus(),
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
    ) {
        let ctx = VMontCtx::new(&n).unwrap();
        let bm = BatchMont::new(&ctx);
        let vals: Vec<VecNum> = seeds
            .iter()
            .map(|&s| ctx.to_vec_form(&(&BigUint::from(s) % &n)))
            .collect();
        let batch = Batch16::transpose_from(&vals);
        let got = bm.mont_mul_16(&batch, &batch).transpose_out();
        for j in 0..BATCH_WIDTH {
            prop_assert_eq!(&got[j], &ctx.mont_mul_vec(&vals[j], &vals[j]), "lane {}", j);
        }
    }

    #[test]
    fn batch_exp_matches_oracle(
        n in odd_modulus(),
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
        exp in any::<u64>(),
    ) {
        let ctx = VMontCtx::new(&n).unwrap();
        let bm = BatchMont::new(&ctx);
        let bases: Vec<BigUint> = seeds.iter().map(|&s| &BigUint::from(s) % &n).collect();
        let exp = BigUint::from(exp);
        let got = bm.mod_exp_16(&bases, &exp, 4);
        for j in 0..BATCH_WIDTH {
            prop_assert_eq!(&got[j], &bases[j].mod_exp(&exp, &n), "lane {}", j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The truncated-reduction sweep: classic vs truncated must stay
    // bit-identical over every limb count the strategies reach (k from 1,
    // where truncated falls back to classic, up through 19 digits) and
    // over dense-high-limb moduli, the correction step's worst case.

    #[test]
    fn truncated_batch_matches_classic_across_limb_counts(
        n in odd_modulus(),
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
        exp in any::<u64>(),
        w in 1u32..=6,
    ) {
        use phiopenssl::MontVariant;
        let ctx = VMontCtx::new(&n).unwrap();
        let bases: Vec<BigUint> = seeds.iter().map(|&s| &BigUint::from(s) % &n).collect();
        let exp = BigUint::from(exp);
        let classic =
            BatchMont::with_variant(&ctx, MontVariant::Classic).mod_exp_16(&bases, &exp, w);
        let truncated =
            BatchMont::with_variant(&ctx, MontVariant::Auto).mod_exp_16(&bases, &exp, w);
        prop_assert_eq!(&classic, &truncated);
        for j in 0..BATCH_WIDTH {
            prop_assert_eq!(&truncated[j], &bases[j].mod_exp(&exp, &n), "lane {}", j);
        }
    }

    #[test]
    fn truncated_handles_dense_high_limb_moduli(
        n in dense_high_modulus(),
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
    ) {
        use phiopenssl::{GenMontCtx, KernelParams, ResolvedBackend};
        let ctx = VMontCtx::new(&n).unwrap();
        // Correction-boundary lanes first (0, 1, n-1), then random residues.
        let mut vals: Vec<BigUint> =
            vec![BigUint::zero(), BigUint::one(), &n - &BigUint::one()];
        vals.extend(seeds[3..].iter().map(|&s| &BigUint::from(s) % &n));
        let vecs: Vec<VecNum> = vals.iter().map(|v| ctx.to_vec_form(v)).collect();
        let batch = Batch16::transpose_from(&vecs);
        let got_c: Vec<BigUint> = BatchMont::new(&ctx)
            .mont_mul_16(&batch, &batch)
            .transpose_out()
            .iter()
            .map(VecNum::to_biguint)
            .collect();
        // The generated kernel at the static point shares the classic
        // kernel's radix 2^27 and so its R: one product, bit for bit.
        let gen = GenMontCtx::new(&n, KernelParams::static_defaults(), ResolvedBackend::ModeledKnc)
            .unwrap();
        let raw = gen.to_batch(&vals);
        prop_assert_eq!(&gen.from_batch(&gen.mont_mul_16(&raw, &raw)), &got_c);
        // The dedicated squaring path answers the same question.
        prop_assert_eq!(&gen.from_batch(&gen.mont_sqr_16(&raw)), &got_c);
    }

    #[test]
    fn masked_engine_matches_sequential_crt(
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
        live in 1usize..=15,
    ) {
        use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig};
        let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // 2^64-59
        let q = BigUint::from_hex("7fffffffffffffe7").unwrap(); // 2^63-25
        let e = BigUint::from(65537u64);
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        let d = e.mod_inverse(&phi).unwrap();
        let key = CrtKey::new(&p, &q, &d).unwrap();
        let engine = BatchCrtEngine::with_config(&key, &PhiConfig::default()).unwrap();
        let n = engine.modulus().clone();
        let cts: Vec<BigUint> = seeds[..live].iter().map(|&s| &BigUint::from(s) % &n).collect();
        let got = engine.private_op_masked(&cts);
        prop_assert_eq!(got.len(), live);
        for (j, c) in cts.iter().enumerate() {
            prop_assert_eq!(
                &got[j],
                &key.private_op(c, 5, TableLookup::Direct),
                "lane {} of {}", j, live
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn multi_batch_matches_per_lane_oracles(
        seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
        a_seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
        b_seeds in proptest::collection::vec(any::<u64>(), BATCH_WIDTH),
    ) {
        use phiopenssl::MultiBatchMont;
        // Sixteen distinct random odd moduli (>= 2 limbs so they are > 1).
        let moduli: Vec<BigUint> = seeds
            .iter()
            .map(|&s| {
                let mut n = BigUint::from_limbs(vec![s | 1, s.rotate_left(17) | 1]);
                if n.is_one() { n = BigUint::from(3u64); }
                n
            })
            .collect();
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let a: Vec<BigUint> = a_seeds.iter().zip(&moduli).map(|(&s, n)| &BigUint::from(s) % n).collect();
        let b: Vec<BigUint> = b_seeds.iter().zip(&moduli).map(|(&s, n)| &BigUint::from(s) % n).collect();
        let am = mb.to_mont_lanes(&a);
        let bm = mb.to_mont_lanes(&b);
        let got = mb.from_mont_lanes(&mb.mont_mul_16(&am, &bm));
        for j in 0..BATCH_WIDTH {
            prop_assert_eq!(&got[j], &a[j].mod_mul(&b[j], &moduli[j]), "lane {}", j);
        }
    }
}
