//! Property tests: every lane operation against a straightforward scalar
//! reference, on both backends (one lane implementation, charged two
//! ways).

// Lane index i must pair the vector's .lane(i) with the scalar array's
// [i]; an iterator would hide that correspondence.
#![allow(clippy::needless_range_loop)]

use phi_backend::{Mask8, ModeledKnc, NativeX86, VectorBackend, V32, V64};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

type Outcome = Result<(), TestCaseError>;

fn lanes8() -> impl Strategy<Value = [u64; 8]> {
    proptest::array::uniform8(any::<u64>())
}

fn lanes16() -> impl Strategy<Value = [u32; 16]> {
    proptest::array::uniform16(any::<u32>())
}

fn arith<B: VectorBackend>(a: [u64; 8], b: [u64; 8]) -> Outcome {
    let (va, vb) = (V64::<B>::from_lanes(a), V64::<B>::from_lanes(b));
    for i in 0..8 {
        prop_assert_eq!(va.add(vb).lane(i), a[i].wrapping_add(b[i]));
        prop_assert_eq!(va.sub(vb).lane(i), a[i].wrapping_sub(b[i]));
        prop_assert_eq!(va.and(vb).lane(i), a[i] & b[i]);
    }
    Ok(())
}

fn shifts<B: VectorBackend>(a: [u64; 8], s: u32) -> Outcome {
    let va = V64::<B>::from_lanes(a);
    for i in 0..8 {
        prop_assert_eq!(va.shr(s).lane(i), a[i] >> s);
        prop_assert_eq!(va.shl(s).lane(i), a[i] << s);
    }
    Ok(())
}

fn fma32<B: VectorBackend>(acc: [u64; 8], a: [u64; 8], b: [u64; 8]) -> Outcome {
    // 27-bit low halves like the kernels' digits, under arbitrary high
    // halves the product must ignore, into an accumulator that cannot
    // wrap.
    let acc = acc.map(|v| v >> 8);
    let (a, b) = (a.map(|v| v & !0xF800_0000), b.map(|v| v & !0xF800_0000));
    let r = V64::<B>::from_lanes(acc).fma32(V64::from_lanes(a), V64::from_lanes(b));
    for i in 0..8 {
        prop_assert_eq!(
            r.lane(i),
            acc[i] + (a[i] & 0xFFFF_FFFF) * (b[i] & 0xFFFF_FFFF)
        );
    }
    Ok(())
}

fn blend<B: VectorBackend>(a: [u64; 8], b: [u64; 8], bits: u8) -> Outcome {
    let m = Mask8::<B>::from_bits(bits);
    let r = V64::<B>::from_lanes(a).blend(m, V64::from_lanes(b));
    for i in 0..8 {
        let set = (bits >> i) & 1 == 1;
        prop_assert_eq!(m.lane(i), set);
        prop_assert_eq!(r.lane(i), if set { b[i] } else { a[i] });
    }
    Ok(())
}

fn widen<B: VectorBackend>(a: [u32; 16]) -> Outcome {
    let v = V32::<B>::from_lanes(a);
    let (lo, hi) = (v.widen_lo(), v.widen_hi());
    for i in 0..8 {
        prop_assert_eq!(lo.lane(i), a[i] as u64);
        prop_assert_eq!(hi.lane(i), a[i + 8] as u64);
    }
    Ok(())
}

fn shift_down<B: VectorBackend>(a: [u64; 8], fill: u64) -> Outcome {
    let r = V64::<B>::from_lanes(a).shift_lanes_down(fill);
    for i in 0..7 {
        prop_assert_eq!(r.lane(i), a[i + 1]);
    }
    prop_assert_eq!(r.lane(7), fill);
    Ok(())
}

fn plumbing<B: VectorBackend>(a: [u64; 8], x: u64, i: usize) -> Outcome {
    let v = V64::<B>::load(&a);
    let mut out = [0u64; 8];
    v.store(&mut out);
    prop_assert_eq!(out, a);
    prop_assert_eq!(v.to_lanes(), a);
    prop_assert_eq!(V64::<B>::from_slice_folded(&a), v);
    prop_assert_eq!(V64::<B>::splat(x).to_lanes(), [x; 8]);
    let mut want = a;
    want[i] = x;
    prop_assert_eq!(v.with_lane(i, x).to_lanes(), want);
    prop_assert_eq!(V64::<B>::zero().to_lanes(), [0; 8]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn v64_arith_lanewise(a in lanes8(), b in lanes8()) {
        arith::<ModeledKnc>(a, b)?;
        arith::<NativeX86>(a, b)?;
    }

    #[test]
    fn v64_shifts(a in lanes8(), s in 0u32..64) {
        shifts::<ModeledKnc>(a, s)?;
        shifts::<NativeX86>(a, s)?;
    }

    #[test]
    fn fma32_uses_low_halves(acc in lanes8(), a in lanes8(), b in lanes8()) {
        fma32::<ModeledKnc>(acc, a, b)?;
        fma32::<NativeX86>(acc, a, b)?;
    }

    #[test]
    fn blend_respects_mask(a in lanes8(), b in lanes8(), bits in any::<u8>()) {
        blend::<ModeledKnc>(a, b, bits)?;
        blend::<NativeX86>(a, b, bits)?;
    }

    #[test]
    fn widen_zero_extends_each_half(a in lanes16()) {
        widen::<ModeledKnc>(a)?;
        widen::<NativeX86>(a)?;
    }

    #[test]
    fn shift_lanes_down_drops_lane0(a in lanes8(), fill in any::<u64>()) {
        shift_down::<ModeledKnc>(a, fill)?;
        shift_down::<NativeX86>(a, fill)?;
    }

    #[test]
    fn lane_plumbing_round_trips(a in lanes8(), x in any::<u64>(), i in 0usize..8) {
        plumbing::<ModeledKnc>(a, x, i)?;
        plumbing::<NativeX86>(a, x, i)?;
    }
}
