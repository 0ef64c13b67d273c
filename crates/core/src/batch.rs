//! Sixteen-way batched Montgomery multiplication — the second
//! vectorization axis.
//!
//! Instead of spreading one multiplication's columns across lanes
//! (the [`vmont`](crate::vmont) kernel), this kernel runs **sixteen
//! independent multiplications**, one per 32-bit lane, against a shared
//! modulus (the natural shape of a busy RSA server: many handshakes, one
//! private key). Digit `d` of operation `j` lives in lane `j` of the
//! digit-`d` vector (a transposed, digit-major layout).
//!
//! The payoff over the intra-operand kernel is that the per-row scalar
//! glue — quotient computation, carry handling — also vectorizes: there is
//! no broadcast and no scalar multiply on the critical path. The cost is a
//! transpose at the batch boundary and a memory-resident accumulator.
//! Experiment E8 quantifies the trade.
//!
//! This module's own kernel is the classic interleaved CIOS one, the
//! E8/E18 reference; [`MultiBatchMont`](crate::batch_multi::MultiBatchMont)
//! runs the same body with a modulus per lane. Under `MontVariant::Auto` a [`BatchMont`] runs its
//! ladders and release checks through the generated truncated kernel
//! ([`GenMontCtx`] at [`KernelParams::static_defaults`]) instead.

#![allow(clippy::needless_range_loop)] // explicit lane/column indices read as kernel semantics

use crate::engine::SINGLE_OP_MAX_LIVE;
use crate::genmont::GenMontCtx;
use crate::params::KernelParams;
use crate::radix::{VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use crate::vmont::VMontCtx;
use phi_backend::{with_backend, ModeledKnc, VectorBackend, V32, V64};
use phi_bigint::BigUint;
use phi_mont::MontEngine;
use phi_simd::count::OpClass;

/// Operations per batch (one per 32-bit lane of a 512-bit register).
pub const BATCH_WIDTH: usize = 16;

/// Which Montgomery reduction kernel a [`BatchMont`] runs.
///
/// Both produce **bit-identical** results (the phi-conformance
/// `batch-kernel` family proves it continuously); the choice is purely
/// a cost trade documented in DESIGN.md §3.12 and measured by E8/E18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MontVariant {
    /// The interleaved-CIOS kernel: the E8/E18 reference and the
    /// fallback for single-digit moduli.
    Classic,
    /// The engines' choice: the generated truncated-separated kernel
    /// ([`GenMontCtx`] at [`KernelParams::static_defaults`]) wherever
    /// the modulus has at least two digits, else the classic kernel.
    #[default]
    Auto,
}

/// Sixteen same-shaped values in transposed (digit-major) layout:
/// `cols[d]` holds digit `d` of every operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch16 {
    cols: Vec<[u32; 16]>,
}

impl Batch16 {
    /// Transpose sixteen context-shaped values into batch layout.
    ///
    /// Charged as the in-register 16×16 transpose networks the real kernel
    /// runs at batch boundaries (~4 swizzles per produced vector).
    pub fn transpose_from(values: &[VecNum]) -> Self {
        Self::transpose_from_impl::<ModeledKnc>(values)
    }

    pub(crate) fn transpose_from_impl<B: VectorBackend>(values: &[VecNum]) -> Self {
        assert_eq!(values.len(), BATCH_WIDTH, "need exactly 16 values");
        let len = values[0].len();
        assert!(
            values.iter().all(|v| v.len() == len),
            "batch values must share one shape"
        );
        let mut cols = Vec::with_capacity(len);
        for d in 0..len {
            let mut lanes = [0u32; 16];
            for (j, v) in values.iter().enumerate() {
                debug_assert!(v.digit(d) <= DIGIT_MASK);
                lanes[j] = v.digit(d) as u32;
            }
            cols.push(lanes);
            B::record(OpClass::VPerm, 4);
        }
        Batch16 { cols }
    }

    /// Transpose back to sixteen individual values.
    pub fn transpose_out(&self) -> Vec<VecNum> {
        self.transpose_out_impl::<ModeledKnc>()
    }

    pub(crate) fn transpose_out_impl<B: VectorBackend>(&self) -> Vec<VecNum> {
        let len = self.cols.len();
        let mut out = vec![VecNum::zero(len); BATCH_WIDTH];
        for (d, col) in self.cols.iter().enumerate() {
            B::record(OpClass::VPerm, 4);
            for (j, v) in out.iter_mut().enumerate() {
                v.digits_mut()[d] = col[j] as u64;
            }
        }
        out
    }

    /// Digit slots per operation.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True if the batch has no digit slots.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// The batched Montgomery engine for one shared modulus.
#[derive(Debug, Clone)]
pub struct BatchMont {
    ctx: VMontCtx,
    /// Modulus digits, broadcast per column (shared by all lanes).
    n_cols: Vec<u64>,
    /// The generated truncated kernel at the static point, which the
    /// ladders and the 16-lane check run when present: under `Auto` for
    /// moduli of at least two digits.
    generated: Option<GenMontCtx>,
}

impl BatchMont {
    /// Wrap a vector context for batched use with the classic interleaved
    /// CIOS kernel (E8 and the conformance `batch-kernel` family measure
    /// this path explicitly).
    pub fn new(ctx: &VMontCtx) -> Self {
        Self::with_variant(ctx, MontVariant::Classic)
    }

    /// Wrap a vector context with an explicit reduction variant.
    /// `Auto` builds the generated kernel at
    /// [`KernelParams::static_defaults`] on the context's backend (one
    /// more Montgomery context) and run [`mod_exp_16`](Self::mod_exp_16)
    /// and [`pow_eq_16`](Self::pow_eq_16) through it, bit-identical to
    /// the classic kernel; moduli of a single digit stay classic. Build
    /// one per modulus and reuse it, as the verified service does.
    pub fn with_variant(ctx: &VMontCtx, variant: MontVariant) -> Self {
        let generated = match variant {
            MontVariant::Classic => None,
            MontVariant::Auto => GenMontCtx::new(
                ctx.modulus(),
                KernelParams::static_defaults(),
                ctx.backend(),
            )
            .ok(),
        };
        BatchMont {
            ctx: ctx.clone(),
            n_cols: ctx.n_digits().to_vec(),
            generated,
        }
    }

    /// The underlying context.
    pub fn ctx(&self) -> &VMontCtx {
        &self.ctx
    }

    /// Sixteen Montgomery products at once through the classic kernel:
    /// `out[j] = a[j]·b[j]·R⁻¹ mod n`.
    ///
    /// All operands must be context-shaped and `< n`.
    pub fn mont_mul_16(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        with_backend!(self.ctx.backend(), B => self.mont_mul_16_generic::<B>(a, b))
    }

    fn mont_mul_16_generic<B: VectorBackend>(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        let _span = phi_trace::span(phi_trace::Scope::BatchMont);
        // The shared modulus and n0', broadcast to every lane on each call.
        let n_cols: Vec<(V64<B>, V64<B>)> = self
            .n_cols
            .iter()
            .map(|&d| {
                let col = V64::<B>::splat(d);
                (col, col)
            })
            .collect();
        let n0 = V64::<B>::splat(self.ctx.n0_inv());
        let n = [self.n_vecnum()];
        cios_mont_mul_16::<B>(a, b, self.ctx.digits(), &n_cols, (n0, n0), &n)
    }

    /// Sixteen exponentiations `base[j]^exp mod n` with one shared exponent
    /// (the RSA-server shape: one private key, many ciphertexts), using the
    /// fixed-window ladder.
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint, window: u32) -> Vec<BigUint> {
        match &self.generated {
            Some(g) => g.mod_exp_16_window(bases, exp, window),
            None => with_backend!(self.ctx.backend(), B => {
                self.mod_exp_16_generic::<B>(bases, exp, window)
            }),
        }
    }

    fn mod_exp_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        let _span = phi_trace::span(phi_trace::Scope::BatchExp);
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert!((1..=7).contains(&window));
        if self.ctx.modulus().is_one() {
            return vec![BigUint::zero(); BATCH_WIDTH];
        }
        if exp.is_zero() {
            return vec![BigUint::one(); BATCH_WIDTH];
        }

        let base_m: Vec<VecNum> = bases.iter().map(|b| self.ctx.to_mont_vec(b)).collect();
        let base_b = Batch16::transpose_from_impl::<B>(&base_m);

        // table[v] = batch of base^v.
        let one_b = Batch16::transpose_from_impl::<B>(&vec![self.ctx.one_mont_vec(); BATCH_WIDTH]);
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(one_b);
        for v in 1..table_len {
            let prev: &Batch16 = &table[v - 1];
            table.push(self.mont_mul_16_generic::<B>(prev, &base_b));
        }

        let bits = exp.bit_length();
        let windows = bits.div_ceil(window);
        let mut acc = table[0].clone();
        for win in (0..windows).rev() {
            for _ in 0..window {
                acc = self.mont_mul_16_generic::<B>(&acc, &acc);
            }
            let lo = win * window;
            let width = window.min(bits - lo);
            let val = exp.extract_bits(lo, width) as usize;
            B::record(OpClass::SAlu, 4);
            B::record(OpClass::VMem, 2 * (self.ctx.padded_digits() / LANES) as u64);
            acc = self.mont_mul_16_generic::<B>(&acc, &table[val]);
        }

        acc.transpose_out_impl::<B>()
            .iter()
            .map(|v| {
                let one = {
                    let mut o = self.ctx.zero_vec();
                    o.digits_mut()[0] = 1;
                    o
                };
                self.ctx.mont_mul_generic::<B>(v, &one).to_biguint()
            })
            .collect()
    }

    /// Sixteen power-equality checks at once: `out[j] = (base[j]^exp ≡
    /// expected[j] (mod n))`, with one shared exponent — the release
    /// check of the verified offload path, checked the way
    /// [`GenMontCtx::pow_eq_16`] documents (which runs it under `Auto`).
    /// Lanes padded with `base = expected = 0` compare equal; no span is
    /// opened here.
    pub fn pow_eq_16(&self, bases: &[BigUint], exp: &BigUint, expected: &[BigUint]) -> Vec<bool> {
        match &self.generated {
            Some(g) => g.pow_eq_16(bases, exp, expected),
            None => with_backend!(self.ctx.backend(), B => {
                self.pow_eq_16_generic::<B>(bases, exp, expected)
            }),
        }
    }

    fn pow_eq_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        expected: &[BigUint],
    ) -> Vec<bool> {
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert_eq!(expected.len(), BATCH_WIDTH);
        assert!(!exp.is_zero(), "a power check needs a nonzero exponent");
        let rr = vec![self.ctx.rr_vec().clone(); BATCH_WIDTH];
        let rr_b = Batch16::transpose_from_impl::<B>(&rr);
        let raw: Vec<VecNum> = bases.iter().map(|b| self.ctx.to_vec_form(b)).collect();
        let base_m = self.mont_mul_16_generic::<B>(&Batch16::transpose_from_impl::<B>(&raw), &rr_b);
        let mut acc = base_m.clone();
        let bits = exp.bit_length();
        for i in (0..bits - 1).rev() {
            acc = self.mont_mul_16_generic::<B>(&acc, &acc);
            if exp.extract_bits(i, 1) == 1 {
                acc = self.mont_mul_16_generic::<B>(&acc, &base_m);
            }
        }
        let want: Vec<VecNum> = expected.iter().map(|c| self.ctx.to_vec_form(c)).collect();
        let want_m =
            self.mont_mul_16_generic::<B>(&Batch16::transpose_from_impl::<B>(&want), &rr_b);
        let got = acc.transpose_out_impl::<B>();
        want_m
            .transpose_out_impl::<B>()
            .iter()
            .zip(&got)
            .map(|(w, g)| w.cmp_digits(g) == std::cmp::Ordering::Equal)
            .collect()
    }

    /// Power-equality checks for 1..=[`BATCH_WIDTH`] pairs, each verdict
    /// in input order: the release check sized to a flush's live lanes,
    /// as [`BatchCrtEngine::private_op_masked`] sizes the private op.
    ///
    /// Up to [`SINGLE_OP_MAX_LIVE`] pairs run one by one through
    /// [`VMontCtx::pow_eq`]; more run as one [`Self::pow_eq_16`] whose
    /// dead lanes are padded with `base = expected = 0` and discarded.
    ///
    /// [`BatchCrtEngine::private_op_masked`]: crate::BatchCrtEngine::private_op_masked
    pub fn pow_eq_masked(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        expected: &[BigUint],
    ) -> Vec<bool> {
        assert!(
            !bases.is_empty() && bases.len() <= BATCH_WIDTH,
            "need 1..={BATCH_WIDTH} pairs, got {}",
            bases.len()
        );
        assert_eq!(bases.len(), expected.len(), "one expected value per base");
        if bases.len() <= SINGLE_OP_MAX_LIVE {
            return bases
                .iter()
                .zip(expected)
                .map(|(b, c)| self.ctx.pow_eq(b, exp, c))
                .collect();
        }
        let pad = |xs: &[BigUint]| {
            let mut v = xs.to_vec();
            v.resize(BATCH_WIDTH, BigUint::zero());
            v
        };
        let mut verdicts = self.pow_eq_16(&pad(bases), exp, &pad(expected));
        verdicts.truncate(bases.len());
        verdicts
    }

    fn n_vecnum(&self) -> VecNum {
        let mut v = VecNum::zero(self.ctx.padded_digits());
        v.digits_mut().copy_from_slice(&self.n_cols);
        v
    }
}

/// The classic interleaved-CIOS kernel body of both batch engines
/// ([`BatchMont`] and [`MultiBatchMont`](crate::batch_multi::MultiBatchMont)):
/// sixteen Montgomery products `a[j]·b[j]·R⁻¹`, reduced in `rows` rows
/// against the prepared modulus columns — `n_cols[d]` holds digit `d` of
/// each lane's modulus and `n0` each lane's `−n⁻¹ mod 2^27`, as two
/// eight-lane halves — then conditionally subtracted per lane by
/// `moduli[j % moduli.len()]` (one shared modulus, or one per lane).
/// Callers build the columns and open the
/// [`Scope::BatchMont`](phi_trace::Scope::BatchMont) span around both.
pub(crate) fn cios_mont_mul_16<B: VectorBackend>(
    a: &Batch16,
    b: &Batch16,
    rows: usize,
    n_cols: &[(V64<B>, V64<B>)],
    n0: (V64<B>, V64<B>),
    moduli: &[VecNum],
) -> Batch16 {
    let kk = n_cols.len();
    debug_assert_eq!(a.len(), kk);
    debug_assert_eq!(b.len(), kk);

    // Memory-resident accumulator: per column, two u64x8 halves.
    let mut acc: Vec<(V64<B>, V64<B>)> = vec![(V64::<B>::zero(), V64::<B>::zero()); kk];
    let b_halves: Vec<(V64<B>, V64<B>)> = b
        .cols
        .iter()
        .map(|c| {
            let col = V32::<B>::from_lanes(*c);
            (col.widen_lo(), col.widen_hi())
        })
        .collect();
    let maskv = V64::<B>::splat(DIGIT_MASK);

    for i in 0..rows {
        // Per-lane digit i of a (two widened halves; loads folded).
        let a_col = V32::<B>::from_lanes(a.cols[i]);
        let av0 = a_col.widen_lo();
        let av1 = a_col.widen_hi();

        // Phase 1 on column 0 only, so q can be computed before
        // streaming the rest of the row.
        let (c00, c01) = acc[0];
        let t00 = c00.fma32(av0, b_halves[0].0);
        let t01 = c01.fma32(av1, b_halves[0].1);

        // q = (t0 mod 2^27)·n0' mod 2^27, lane-wise and fully vectorized
        // (no scalar glue — the batched kernel's advantage).
        let q0 = V64::<B>::zero().fma32(t00.and(maskv), n0.0).and(maskv);
        let q1 = V64::<B>::zero().fma32(t01.and(maskv), n0.1).and(maskv);

        // Column 0 phase 2.
        let t00 = t00.fma32(q0, n_cols[0].0);
        let t01 = t01.fma32(q1, n_cols[0].1);
        debug_assert!(t00.to_lanes().iter().all(|&l| l & DIGIT_MASK == 0));
        debug_assert!(t01.to_lanes().iter().all(|&l| l & DIGIT_MASK == 0));
        let carry0 = t00.shr(DIGIT_BITS);
        let carry1 = t01.shr(DIGIT_BITS);

        // Stream remaining columns: one store per column; loads fold.
        for d in 1..kk {
            let (cd0, cd1) = acc[d];
            let mut nd0 = cd0.fma32(av0, b_halves[d].0).fma32(q0, n_cols[d].0);
            let mut nd1 = cd1.fma32(av1, b_halves[d].1).fma32(q1, n_cols[d].1);
            if d == 1 {
                nd0 = nd0.add(carry0);
                nd1 = nd1.add(carry1);
            }
            // Shift integrated into the store address: column d lands
            // in accumulator slot d-1.
            acc[d - 1] = (nd0, nd1);
            B::record(OpClass::VMem, 2);
        }
        acc[kk - 1] = (V64::<B>::zero(), V64::<B>::zero());
    }

    // Normalize and conditionally subtract per lane (scalar epilogue,
    // one pass per operation — same footprint as 16 single epilogues).
    let mut outs = Vec::with_capacity(BATCH_WIDTH);
    for lane in 0..BATCH_WIDTH {
        let (half, idx) = (lane / 8, lane % 8);
        let mut v = VecNum::zero(kk);
        let mut carry = 0u64;
        for d in 0..kk {
            let cell = if half == 0 {
                acc[d].0.lane(idx)
            } else {
                acc[d].1.lane(idx)
            };
            let s = cell + carry;
            v.digits_mut()[d] = s & DIGIT_MASK;
            carry = s >> DIGIT_BITS;
        }
        debug_assert_eq!(carry, 0);
        B::record(OpClass::SAlu, 3 * kk as u64);
        B::record(OpClass::SMem, kk as u64);
        let n = &moduli[lane % moduli.len()];
        if v.cmp_digits(n) != std::cmp::Ordering::Less {
            v.sub_assign_digits(n);
        }
        outs.push(v);
    }
    Batch16::transpose_from_impl::<B>(&outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count;

    fn ctx256() -> VMontCtx {
        VMontCtx::new(
            &BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
                .unwrap(),
        )
        .unwrap()
    }

    fn sixteen_values(ctx: &VMontCtx, seed: u64) -> (Vec<BigUint>, Vec<VecNum>) {
        let n = ctx.modulus().clone();
        let mut plain = Vec::new();
        let mut vecs = Vec::new();
        let mut state = seed;
        for _ in 0..BATCH_WIDTH {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = &BigUint::from(state) * &BigUint::from(state ^ 0xABCD) % &n;
            vecs.push(ctx.to_vec_form(&v));
            plain.push(v);
        }
        (plain, vecs)
    }

    #[test]
    fn transpose_roundtrip() {
        let ctx = ctx256();
        let (_, vecs) = sixteen_values(&ctx, 42);
        let b = Batch16::transpose_from(&vecs);
        assert_eq!(b.transpose_out(), vecs);
    }

    #[test]
    #[should_panic(expected = "exactly 16")]
    fn transpose_requires_sixteen() {
        let ctx = ctx256();
        let v = vec![ctx.zero_vec(); 3];
        Batch16::transpose_from(&v);
    }

    #[test]
    fn batched_mul_matches_single_kernel() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let (_, av) = sixteen_values(&ctx, 1);
        let (_, bv) = sixteen_values(&ctx, 2);
        let got = bm
            .mont_mul_16(&Batch16::transpose_from(&av), &Batch16::transpose_from(&bv))
            .transpose_out();
        for j in 0..BATCH_WIDTH {
            let want = ctx.mont_mul_vec(&av[j], &bv[j]);
            assert_eq!(got[j], want, "lane {j}");
        }
    }

    #[test]
    fn pow_eq_16_accepts_true_powers_and_rejects_flips() {
        let (bases, _) = sixteen_values(&ctx256(), 7);
        for backend in [
            phi_backend::ResolvedBackend::ModeledKnc,
            phi_backend::ResolvedBackend::NativeX86,
        ] {
            let ctx = VMontCtx::with_backend(ctx256().modulus(), backend).unwrap();
            let bm = BatchMont::with_variant(&ctx, MontVariant::Auto);
            let n = ctx.modulus().clone();
            let e = BigUint::from(65537u64);
            let mut expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
            assert_eq!(
                bm.pow_eq_16(&bases, &e, &expected),
                vec![true; BATCH_WIDTH],
                "{backend:?}: honest powers accepted"
            );
            // Flip three lanes; only those verdicts flip with them.
            for lane in [0usize, 7, 15] {
                expected[lane] = &(&expected[lane] + &BigUint::one()) % &n;
            }
            let verdicts = bm.pow_eq_16(&bases, &e, &expected);
            for (lane, ok) in verdicts.iter().enumerate() {
                assert_eq!(*ok, ![0, 7, 15].contains(&lane), "{backend:?} lane {lane}");
            }
        }
    }

    /// A single-digit modulus has no truncation boundary columns: `Auto`
    /// keeps the classic kernel, op for op.
    #[test]
    fn single_digit_moduli_stay_classic() {
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        let bases: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| BigUint::from(j * 7 % 97))
            .collect();
        let exp = BigUint::from(0xBEEFu64);
        let (want, classic) = count::measure(|| BatchMont::new(&ctx).mod_exp_16(&bases, &exp, 3));
        let auto = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let (got, counts) = count::measure(|| auto.mod_exp_16(&bases, &exp, 3));
        assert_eq!(got, want);
        assert_eq!(counts, classic);
        for (b, g) in bases.iter().zip(&got) {
            assert_eq!(*g, b.mod_exp(&exp, &n));
        }
    }

    #[test]
    fn pow_eq_16_padding_lanes_compare_equal() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        // A partially occupied flush: three live lanes, thirteen padded
        // with base = expected = 0 (the verified-release shape).
        let mut bases = vec![BigUint::zero(); BATCH_WIDTH];
        let mut expected = vec![BigUint::zero(); BATCH_WIDTH];
        for (lane, seed) in [(0usize, 3u64), (1, 99), (2, 1234)] {
            bases[lane] = &BigUint::from(seed) % &n;
            expected[lane] = bases[lane].mod_exp(&e, &n);
        }
        for variant in [MontVariant::Classic, MontVariant::Auto] {
            let bm = BatchMont::with_variant(&ctx, variant);
            assert_eq!(
                bm.pow_eq_16(&bases, &e, &expected),
                vec![true; BATCH_WIDTH],
                "{variant:?}"
            );
        }
    }

    #[test]
    fn pow_eq_masked_agrees_with_pow_eq_16_lane_for_lane() {
        let ctx = ctx256();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        let (bases, _) = sixteen_values(&ctx, 13);
        let mut expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
        // Every third lane carries a wrong result.
        for lane in (0..BATCH_WIDTH).step_by(3) {
            expected[lane] = &(&expected[lane] + &BigUint::one()) % &n;
        }
        let full = bm.pow_eq_16(&bases, &e, &expected);
        for live in [1usize, 2, 3, 16] {
            assert_eq!(
                bm.pow_eq_masked(&bases[..live], &e, &expected[..live]),
                full[..live],
                "occupancy {live}"
            );
        }
        // A flipped result is rejected at the single-lane occupancies too.
        for live in [1usize, 2] {
            let honest: Vec<BigUint> = bases[..live].iter().map(|b| b.mod_exp(&e, &n)).collect();
            assert_eq!(
                bm.pow_eq_masked(&bases[..live], &e, &honest),
                vec![true; live]
            );
            let mut flipped = honest.clone();
            flipped[live - 1] = &(&flipped[live - 1] + &BigUint::one()) % &n;
            let verdicts = bm.pow_eq_masked(&bases[..live], &e, &flipped);
            assert!(!verdicts[live - 1], "occupancy {live}: flip released");
            assert!(
                verdicts[..live - 1].iter().all(|&ok| ok),
                "occupancy {live}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need 1..=16")]
    fn pow_eq_masked_rejects_an_empty_check() {
        let ctx = ctx256();
        BatchMont::new(&ctx).pow_eq_masked(&[], &BigUint::from(3u64), &[]);
    }

    #[test]
    fn pow_eq_16_is_cheaper_than_the_window_ladder() {
        // The point of the specialized check: at a sparse public
        // exponent it must cost well under the generic fixed-window
        // exponentiation that the batch passes it guards are made of.
        let ctx = ctx256();
        let bm = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let n = ctx.modulus().clone();
        let e = BigUint::from(65537u64);
        let (bases, _) = sixteen_values(&ctx, 11);
        let expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
        let (_, check) = count::measure(|| bm.pow_eq_16(&bases, &e, &expected));
        let (_, ladder) = count::measure(|| bm.mod_exp_16(&bases, &e, 1));
        assert!(
            check.total_vector_ops() < ladder.total_vector_ops(),
            "specialized check {} vector ops vs window ladder {}",
            check.total_vector_ops(),
            ladder.total_vector_ops()
        );
    }

    #[test]
    fn batched_mul_with_extreme_lanes() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let bm = BatchMont::new(&ctx);
        // Mix zeros, ones and n-1 across lanes.
        let mut vals = Vec::new();
        for j in 0..BATCH_WIDTH {
            let v = match j % 4 {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => &n - &BigUint::one(),
                _ => BigUint::from(j as u64 * 12345),
            };
            vals.push(ctx.to_vec_form(&v));
        }
        let b = Batch16::transpose_from(&vals);
        let got = bm.mont_mul_16(&b, &b).transpose_out();
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], ctx.mont_mul_vec(&vals[j], &vals[j]), "lane {j}");
        }
    }

    #[test]
    fn batched_exp_matches_oracle() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let bm = BatchMont::new(&ctx);
        let (plain, _) = sixteen_values(&ctx, 7);
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        let got = bm.mod_exp_16(&plain, &exp, 5);
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], plain[j].mod_exp(&exp, &n), "lane {j}");
        }
    }

    #[test]
    fn batched_exp_edge_exponents() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let (plain, _) = sixteen_values(&ctx, 9);
        let zeros = bm.mod_exp_16(&plain, &BigUint::zero(), 5);
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = bm.mod_exp_16(&plain, &BigUint::one(), 5);
        assert_eq!(ones, plain);
    }

    #[test]
    fn batched_exp_native_matches_modeled() {
        let ctx = ctx256();
        let nctx =
            VMontCtx::with_backend(ctx.modulus(), phi_backend::ResolvedBackend::NativeX86).unwrap();
        let bm = BatchMont::new(&ctx);
        let bn = BatchMont::new(&nctx);
        let (plain, _) = sixteen_values(&ctx, 21);
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        assert_eq!(
            bm.mod_exp_16(&plain, &exp, 5),
            bn.mod_exp_16(&plain, &exp, 5)
        );
    }

    #[test]
    fn batch_beats_sixteen_singles_in_vector_ops() {
        let ctx = ctx256();
        let bm = BatchMont::new(&ctx);
        let (_, av) = sixteen_values(&ctx, 11);
        let (_, bv) = sixteen_values(&ctx, 12);
        let ab = Batch16::transpose_from(&av);
        let bb = Batch16::transpose_from(&bv);
        count::reset();
        let (_, d_batch) = count::measure(|| bm.mont_mul_16(&ab, &bb));
        let (_, d_single) = count::measure(|| {
            for j in 0..BATCH_WIDTH {
                let _ = ctx.mont_mul_vec(&av[j], &bv[j]);
            }
        });
        // No scalar multiplies on the batched critical path…
        assert_eq!(d_batch.get(OpClass::SMul32), 0);
        assert!(d_single.get(OpClass::SMul32) > 0);
        // …and fewer broadcast/permute slots.
        assert!(d_batch.get(OpClass::VPerm) < d_single.get(OpClass::VPerm));
    }
}
