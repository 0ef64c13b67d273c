//! Truncated-multiplication Montgomery reduction over the 16-lane SoA
//! layout (Didier et al., arXiv 2410.18129).
//!
//! The classic batched kernel ([`crate::BatchMont::mont_mul_16`]) interleaves
//! reduction with the product CIOS-style: every row touches every column
//! of `m·n`, including the low columns whose digits are discarded by the
//! division by `R`. The *separated, truncated* form here computes instead:
//!
//! 1. the raw double-width product `T = a·b` by comba column scanning
//!    (one register-resident accumulator pair per output column — two
//!    stores per column instead of two per column per row),
//! 2. `m = (T mod R)·N' mod R` with only the low `k(k+1)/2` product
//!    triangle (`N' = -n⁻¹ mod R` is precomputed full-width),
//! 3. only the **high** anti-triangle of `m·n` (`k(k-1)/2` products) plus
//!    the two boundary columns `s_{k-2}, s_{k-1}` — the low columns
//!    `s_0..s_{k-3}` are never formed,
//! 4. a correction recovering the elided low part exactly: with
//!    `D̂ = T_lo + s_{k-2}β^{k-2} + s_{k-1}β^{k-1}`, the elided remainder
//!    `E = Σ_{c≤k-3} s_c β^c` satisfies `E < (k-1)β^{k-1} < R` (for
//!    `k-1 < β = 2^27`), and the exact low half `D = D̂ + E` is divisible
//!    by `R`, so `D/R = floor(D̂/R) + [D̂ mod R ≠ 0]`.
//!
//! The result `U = T_hi + S_hi + D/R = (T + m·n)/R < 2n`; one lane-wise
//! conditional subtraction makes it **bit-identical** to the classic CIOS
//! answer. Squaring additionally halves the product triangle using the
//! `2·aᵢ·aⱼ` symmetry. Dedicated squaring plus the register-resident comba
//! accumulators and the fully vectorized (lane-parallel) normalization /
//! correction / conditional-subtract epilogue are where the modeled-cycle
//! win over the classic batch kernel comes from; Experiment E18 quantifies
//! it per key size.
//!
//! The kernel is reached only through [`BatchMont`](crate::BatchMont)
//! under `MontVariant::{Truncated, Auto}`, i.e. on the batch ladders and
//! the batched release check. Scalar-shaped single operations run the
//! intra-operand [`vmont`](crate::vmont) kernel instead.
//!
//! Everything here is generic over [`VectorBackend`], so the modeled-KNC
//! and native-x86 backends run the same source.

#![allow(clippy::needless_range_loop)] // explicit column indices read as kernel semantics

use crate::batch::{Batch16, BATCH_WIDTH};
use crate::radix::{DIGIT_BITS, DIGIT_MASK};
use crate::vmont::VMontCtx;
use phi_backend::{Vector32, Vector64, VectorBackend};
use phi_simd::count::OpClass;
use phi_simd::U32x16;

/// A 16-lane column as two 8-lane u64 halves (lanes 0..8 and 8..16).
type Pair<B> = (<B as VectorBackend>::V64, <B as VectorBackend>::V64);

/// Widen the first `count` columns of a batch into u64 half-pairs.
fn widen_cols<B: VectorBackend>(b: &Batch16, count: usize) -> Vec<Pair<B>> {
    b.cols()[..count]
        .iter()
        .map(|c| {
            let col = B::V32::from_lanes(c.to_lanes());
            (col.widen_lo(), col.widen_hi())
        })
        .collect()
}

/// Comba column scan of the raw product `T = a·b`: `2k-1` raw columns,
/// each accumulated in registers and stored once. Column sums stay below
/// `k·2^54 < 2^62` for every paper key size (`k ≤ 152`).
fn raw_product<B: VectorBackend>(aw: &[Pair<B>], bw: &[Pair<B>], k: usize) -> Vec<Pair<B>> {
    let mut cols = Vec::with_capacity(2 * k - 1);
    for c in 0..(2 * k - 1) {
        let mut lo = B::V64::zero();
        let mut hi = B::V64::zero();
        for i in (c + 1).saturating_sub(k)..=c.min(k - 1) {
            let j = c - i;
            lo = lo.fma32(aw[i].0, bw[j].0);
            hi = hi.fma32(aw[i].1, bw[j].1);
        }
        B::record(OpClass::VMem, 2);
        cols.push((lo, hi));
    }
    cols
}

/// Comba column scan of the raw square `T = a²`, using the `2·aᵢ·aⱼ`
/// symmetry: `k(k+1)/2` products instead of `k²`. The doubled digits stay
/// below `2^28` (well inside `fma32`'s 32-bit operand domain) and column
/// sums below `(k+1)·2^54 < 2^62`.
fn raw_square<B: VectorBackend>(aw: &[Pair<B>], k: usize) -> Vec<Pair<B>> {
    let a2: Vec<Pair<B>> = aw.iter().map(|p| (p.0.add(p.0), p.1.add(p.1))).collect();
    let mut cols = Vec::with_capacity(2 * k - 1);
    for c in 0..(2 * k - 1) {
        let mut lo = B::V64::zero();
        let mut hi = B::V64::zero();
        // Off-diagonal pairs i < j, counted once with the doubled operand.
        for i in (c + 1).saturating_sub(k)..c.div_ceil(2) {
            let j = c - i;
            lo = lo.fma32(a2[i].0, aw[j].0);
            hi = hi.fma32(a2[i].1, aw[j].1);
        }
        if c % 2 == 0 {
            let i = c / 2;
            lo = lo.fma32(aw[i].0, aw[i].0);
            hi = hi.fma32(aw[i].1, aw[i].1);
        }
        B::record(OpClass::VMem, 2);
        cols.push((lo, hi));
    }
    cols
}

/// Carry-normalize raw column sums into `out_len` 27-bit digit pairs.
/// Returns the digits and the final carry pair (zero unless the value
/// genuinely overflows `out_len` digits — the `m mod R` caller drops it,
/// every other caller asserts it away).
fn normalize<B: VectorBackend>(
    cols: &[Pair<B>],
    out_len: usize,
    maskv: B::V64,
) -> (Vec<Pair<B>>, Pair<B>) {
    let mut out = Vec::with_capacity(out_len);
    let mut carry = (B::V64::zero(), B::V64::zero());
    for idx in 0..out_len {
        let (rlo, rhi) = if idx < cols.len() {
            cols[idx]
        } else {
            (B::V64::zero(), B::V64::zero())
        };
        let vlo = rlo.add(carry.0);
        let vhi = rhi.add(carry.1);
        out.push((vlo.and(maskv), vhi.and(maskv)));
        carry = (vlo.shr(DIGIT_BITS), vhi.shr(DIGIT_BITS));
        B::record(OpClass::VMem, 2);
    }
    (out, carry)
}

#[cfg(debug_assertions)]
fn assert_zero_pair<B: VectorBackend>(p: &Pair<B>, what: &str) {
    debug_assert!(
        p.0.to_lanes().iter().all(|&x| x == 0) && p.1.to_lanes().iter().all(|&x| x == 0),
        "{what} must be zero"
    );
}

#[cfg(not(debug_assertions))]
fn assert_zero_pair<B: VectorBackend>(_p: &Pair<B>, _what: &str) {}

/// Exact raw column sum `s_c` of `m·n` for one boundary column `c < k`.
fn boundary_column<B: VectorBackend>(m: &[Pair<B>], ns: &[B::V64], c: usize) -> Pair<B> {
    let mut lo = B::V64::zero();
    let mut hi = B::V64::zero();
    for i in 0..=c {
        lo = lo.fma32(m[i].0, ns[c - i]);
        hi = hi.fma32(m[i].1, ns[c - i]);
    }
    (lo, hi)
}

/// Truncated separated reduction of raw product columns `traw` (the
/// `2k-1` comba columns of `T`), yielding `T·R⁻¹ mod n` bit-identical to
/// the classic kernel. Shared by the multiply and square entry points.
fn reduce_truncated<B: VectorBackend>(ctx: &VMontCtx, traw: &[Pair<B>]) -> Batch16 {
    let k = ctx.digits();
    let kk = ctx.padded_digits();
    debug_assert!(k >= 2, "caller must fall back to classic for k < 2");
    let maskv = B::V64::splat(DIGIT_MASK);

    // Normalize T into 2k proper digits (t_0..t_{2k-1}); T < n² < β^{2k}.
    let (t, t_carry) = normalize::<B>(traw, 2 * k, maskv);
    assert_zero_pair::<B>(&t_carry, "carry out of T normalization");

    // m = (T_lo · N') mod R: low product triangle only, then one carry
    // pass whose final carry is discarded (mod R).
    let np: Vec<B::V64> = ctx.nprime_digits()[..k]
        .iter()
        .map(|&d| B::V64::splat(d))
        .collect();
    let mut mraw = Vec::with_capacity(k);
    for c in 0..k {
        let mut lo = B::V64::zero();
        let mut hi = B::V64::zero();
        for i in 0..=c {
            lo = lo.fma32(t[i].0, np[c - i]);
            hi = hi.fma32(t[i].1, np[c - i]);
        }
        B::record(OpClass::VMem, 2);
        mraw.push((lo, hi));
    }
    let (m, _dropped) = normalize::<B>(&mraw, k, maskv);

    // Boundary columns s_{k-2}, s_{k-1} of m·n and the correction term
    // C = floor(D̂/R) + [D̂ mod R ≠ 0], fully lane-parallel. With
    // x = t_{k-2} + s_{k-2} and z = (t_{k-1} + s_{k-1}) + (x >> 27),
    // floor(D̂/R) = z >> 27 exactly (the remaining low part of D̂ is
    // strictly below R), and D̂ mod R ≠ 0 iff
    // (x mod 2^27) + (z mod 2^27) + Σ t_0..t_{k-3} ≠ 0 — a bounded sum
    // (< 2^36) standing in for the OR the lane ISA doesn't have, tested
    // via the carry-out of adding 2^63 - 1.
    let ns: Vec<B::V64> = ctx.n_digits()[..k]
        .iter()
        .map(|&d| B::V64::splat(d))
        .collect();
    let s_km2 = boundary_column::<B>(&m, &ns, k - 2);
    let s_km1 = boundary_column::<B>(&m, &ns, k - 1);
    let biasv = B::V64::splat((1u64 << 63) - 1);
    let corr = {
        let mut halves = [B::V64::zero(); 2];
        let x = [t[k - 2].0.add(s_km2.0), t[k - 2].1.add(s_km2.1)];
        let y = [t[k - 1].0.add(s_km1.0), t[k - 1].1.add(s_km1.1)];
        for h in 0..2 {
            let x0 = x[h].and(maskv);
            let z = y[h].add(x[h].shr(DIGIT_BITS));
            let mut w = x0.add(z.and(maskv));
            for c in 0..k.saturating_sub(2) {
                w = w.add(if h == 0 { t[c].0 } else { t[c].1 });
            }
            let flag = w.add(biasv).shr(63);
            halves[h] = z.shr(DIGIT_BITS).add(flag);
        }
        (halves[0], halves[1])
    };

    // U = T_hi + S_hi + C: seed with the high digits of T and the
    // correction, then add the anti-triangle rows of m·n (i + j ≥ k).
    let mut ucols: Vec<Pair<B>> = (0..kk)
        .map(|c| {
            if c < k {
                t[k + c]
            } else {
                (B::V64::zero(), B::V64::zero())
            }
        })
        .collect();
    ucols[0] = (ucols[0].0.add(corr.0), ucols[0].1.add(corr.1));
    for c in k..(2 * k - 1) {
        let (mut lo, mut hi) = ucols[c - k];
        for i in (c + 1 - k)..k {
            let j = c - i;
            lo = lo.fma32(m[i].0, ns[j]);
            hi = hi.fma32(m[i].1, ns[j]);
        }
        B::record(OpClass::VMem, 2);
        ucols[c - k] = (lo, hi);
    }

    // Normalize U (< 2n < β^{k+1} ≤ β^kk) into proper digits.
    let (ud, u_carry) = normalize::<B>(&ucols, kk, maskv);
    assert_zero_pair::<B>(&u_carry, "carry out of U normalization");

    // Lane-parallel conditional subtraction: compute U - n with a vector
    // borrow chain, then select per lane without compares or masks the
    // ISA lacks — `keep = 0 - borrow` is all-ones exactly where U < n,
    // and `digit = diff + ((u - diff) & keep)` picks U there.
    let nall: Vec<B::V64> = ctx.n_digits().iter().map(|&d| B::V64::splat(d)).collect();
    let mut diff = Vec::with_capacity(kk);
    let mut borrow = (B::V64::zero(), B::V64::zero());
    for c in 0..kk {
        let vlo = ud[c].0.sub(nall[c]).sub(borrow.0);
        let vhi = ud[c].1.sub(nall[c]).sub(borrow.1);
        borrow = (vlo.shr(63), vhi.shr(63));
        diff.push((vlo.and(maskv), vhi.and(maskv)));
        B::record(OpClass::VMem, 2);
    }
    let keep = (B::V64::zero().sub(borrow.0), B::V64::zero().sub(borrow.1));

    // Select and pack back into the 16-lane u32 batch layout (two u64
    // halves compress into one u32x16 per column).
    let mut cols = Vec::with_capacity(kk);
    for c in 0..kk {
        let lo = diff[c].0.add(ud[c].0.sub(diff[c].0).and(keep.0));
        let hi = diff[c].1.add(ud[c].1.sub(diff[c].1).and(keep.1));
        let llo = lo.to_lanes();
        let lhi = hi.to_lanes();
        let mut lanes = [0u32; BATCH_WIDTH];
        for j in 0..8 {
            debug_assert!(llo[j] <= DIGIT_MASK && lhi[j] <= DIGIT_MASK);
            lanes[j] = llo[j] as u32;
            lanes[8 + j] = lhi[j] as u32;
        }
        B::record(OpClass::VPerm, 2);
        cols.push(U32x16::from_lanes(lanes));
    }
    Batch16::from_cols(cols)
}

/// Sixteen truncated Montgomery products: `out[j] = a[j]·b[j]·R⁻¹ mod n`,
/// bit-identical to the classic [`BatchMont::mont_mul_16`] path.
pub(crate) fn mont_mul_16_truncated<B: VectorBackend>(
    ctx: &VMontCtx,
    a: &Batch16,
    b: &Batch16,
) -> Batch16 {
    let _span = phi_trace::span(phi_trace::Scope::MontReduce);
    let k = ctx.digits();
    debug_assert_eq!(a.len(), ctx.padded_digits());
    debug_assert_eq!(b.len(), ctx.padded_digits());
    let aw = widen_cols::<B>(a, k);
    let bw = widen_cols::<B>(b, k);
    let traw = raw_product::<B>(&aw, &bw, k);
    reduce_truncated::<B>(ctx, &traw)
}

/// Sixteen truncated Montgomery squarings, halving the product triangle.
pub(crate) fn mont_sqr_16_truncated<B: VectorBackend>(ctx: &VMontCtx, a: &Batch16) -> Batch16 {
    let _span = phi_trace::span(phi_trace::Scope::MontReduce);
    let k = ctx.digits();
    debug_assert_eq!(a.len(), ctx.padded_digits());
    let aw = widen_cols::<B>(a, k);
    let traw = raw_square::<B>(&aw, k);
    reduce_truncated::<B>(ctx, &traw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMont, MontVariant};
    use crate::radix::VecNum;
    use phi_bigint::BigUint;
    use phi_mont::MontEngine;
    use phi_simd::count;

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    fn sixteen(ctx: &VMontCtx, seed: u64) -> Vec<VecNum> {
        let n = ctx.modulus();
        let mut state = seed;
        (0..BATCH_WIDTH)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ctx.to_vec_form(&(&BigUint::from(state) * &BigUint::from(state ^ 0xF00D) % n))
            })
            .collect()
    }

    #[test]
    fn truncated_mul_matches_classic_batch() {
        for n in [
            n256(),
            &BigUint::power_of_two(1024) - &BigUint::from(0x11Du64),
            // top-limb-dense modulus: every high digit saturated
            &BigUint::power_of_two(512) - &BigUint::from(237u64),
        ] {
            let ctx = VMontCtx::new(&n).unwrap();
            let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
            let truncated = BatchMont::with_variant(&ctx, MontVariant::Truncated);
            let a = Batch16::transpose_from(&sixteen(&ctx, 1));
            let b = Batch16::transpose_from(&sixteen(&ctx, 2));
            assert_eq!(
                truncated.mont_mul_16(&a, &b),
                classic.mont_mul_16(&a, &b),
                "bits = {}",
                n.bit_length()
            );
        }
    }

    #[test]
    fn truncated_square_matches_classic() {
        let ctx = VMontCtx::new(&n256()).unwrap();
        let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
        let truncated = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let a = Batch16::transpose_from(&sixteen(&ctx, 3));
        assert_eq!(
            truncated.mont_sqr_16(&a),
            classic.mont_mul_16(&a, &a),
            "squaring must stay bit-identical"
        );
    }

    #[test]
    fn extreme_lanes_hit_the_correction_boundary() {
        // 0, 1, n-1 and one_mont lanes: zero lanes exercise the
        // round_up = 0 branch, n-1 lanes the conditional subtract.
        let n = &BigUint::power_of_two(256) - &BigUint::from(189u64);
        let ctx = VMontCtx::new(&n).unwrap();
        let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
        let truncated = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let vals: Vec<VecNum> = (0..BATCH_WIDTH)
            .map(|j| {
                ctx.to_vec_form(&match j % 4 {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    2 => &n - &BigUint::one(),
                    _ => ctx.one_mont(),
                })
            })
            .collect();
        let b = Batch16::transpose_from(&vals);
        assert_eq!(truncated.mont_mul_16(&b, &b), classic.mont_mul_16(&b, &b));
        assert_eq!(truncated.mont_sqr_16(&b), classic.mont_mul_16(&b, &b));
    }

    #[test]
    fn small_modulus_falls_back_to_classic() {
        // k = 1: the boundary column s_{k-2} does not exist; the variant
        // dispatcher must route to the classic kernel.
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        assert!(ctx.digits() < 2);
        let truncated = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
        let vals: Vec<VecNum> = (0..BATCH_WIDTH)
            .map(|j| ctx.to_vec_form(&BigUint::from(j as u64 * 7 + 1)))
            .collect();
        let b = Batch16::transpose_from(&vals);
        assert_eq!(truncated.mont_mul_16(&b, &b), classic.mont_mul_16(&b, &b));
    }

    #[test]
    fn truncated_exp_matches_oracle() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let bases: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| &BigUint::from(j as u64 * 0x1234_5678 + 3) % &n)
            .collect();
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        let got = bm.mod_exp_16(&bases, &exp, 5);
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], bases[j].mod_exp(&exp, &n), "lane {j}");
        }
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        let n = n256();
        let m_ctx = VMontCtx::new(&n).unwrap();
        let n_ctx = VMontCtx::with_backend(&n, phi_backend::ResolvedBackend::NativeX86).unwrap();
        let bm = BatchMont::with_variant(&m_ctx, MontVariant::Truncated);
        let bn = BatchMont::with_variant(&n_ctx, MontVariant::Truncated);
        let bases: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| &BigUint::from(j as u64 + 12345) % &n)
            .collect();
        let exp = BigUint::from_hex("0123456789abcdef").unwrap();
        assert_eq!(
            bm.mod_exp_16(&bases, &exp, 5),
            bn.mod_exp_16(&bases, &exp, 5)
        );
    }

    #[test]
    fn truncated_beats_classic_in_weighted_vector_ops() {
        // The acceptance bar at kernel granularity: the truncated
        // exponentiation ladder (squarings dominate) must record fewer
        // modeled cycles than the classic one.
        let n = &BigUint::power_of_two(1024) - &BigUint::from(0x11Du64);
        let ctx = VMontCtx::new(&n).unwrap();
        let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
        let truncated = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let bases: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| &BigUint::from(j as u64 * 999 + 7) % &n)
            .collect();
        let exp = BigUint::from_hex("ffffffffffffffff").unwrap();
        count::reset();
        let (rc, dc) = count::measure(|| classic.mod_exp_16(&bases, &exp, 5));
        let (rt, dt) = count::measure(|| truncated.mod_exp_16(&bases, &exp, 5));
        assert_eq!(rc, rt, "results must stay bit-identical");
        let model = phi_simd::CostModel::knc();
        let (cc, ct) = (model.issue_cycles(&dc), model.issue_cycles(&dt));
        assert!(
            ct < cc,
            "truncated must win: classic {cc} cycles, truncated {ct} cycles"
        );
    }

    #[test]
    fn counts_are_deterministic() {
        let ctx = VMontCtx::new(&n256()).unwrap();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Truncated);
        let a = Batch16::transpose_from(&sixteen(&ctx, 5));
        count::reset();
        let (_, d1) = count::measure(|| bm.mont_mul_16(&a, &a));
        let (_, d2) = count::measure(|| bm.mont_mul_16(&a, &a));
        assert_eq!(d1, d2);
    }
}
