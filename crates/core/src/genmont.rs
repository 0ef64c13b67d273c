//! Generated Montgomery kernels: the executable form of a
//! [`KernelParams`] point, and the one 16-lane shared-modulus kernel
//! family.
//!
//! Given a [`KernelParams`], [`GenMontCtx`] builds a Montgomery context in
//! radix `2^r` and runs the 16-lane batched fixed-window ladder with the
//! truncated-separated reduction (Didier et al., arXiv 2410.18129), which
//! lives only here. Every shared-modulus batch ladder and release check
//! runs here: [`BatchCrtEngine`](crate::BatchCrtEngine) runs the committed
//! table point for its key size (or [`KernelParams::static_defaults`]
//! where no row admits its halves), and [`GenMontCtx::pow_eq_16`] at the
//! static point is the verified service's check, which
//! [`BatchMont`](crate::BatchMont) reaches under `MontVariant::Auto`. Only
//! `BatchMont`'s classic CIOS kernel (the E8/E18 reference and the
//! fallback for single-digit moduli) and the per-lane-modulus
//! `MultiBatchMont` stay outside.
//!
//! Two modeling conventions:
//!
//! * **Loop control is charged.** Generated code is emitted as loops
//!   unrolled by 8, not straight-line code; every column loop charges
//!   one scalar op per unrolled block (`ceil(iters/8)`
//!   [`OpClass::SAlu`]). The unroll is capped at 8 by register budget,
//!   so even the static point pays it: a wider radix must *earn* its win
//!   over that overhead, which is exactly the trade `phi-tune` searches.
//! * **Batched domain entry/exit.** The ladder enters the Montgomery
//!   domain through one 16-lane multiplication by a broadcast R² instead
//!   of sixteen single-lane conversions, and exits the same way.
//!
//! Every admissible parameter point is **bit-identical** to the classic
//! batch kernel and the scalar oracle; the `batch-kernel` conformance
//! family and the tests below prove it across adversarial moduli, and the
//! column-sum bound justifying each radix is enforced by
//! [`KernelParams::validate`] before a kernel ever runs. The context's
//! full-width `N′` is lifted from a one-word inverse (Newton–Hensel), so
//! building one costs no extended-Euclid inverse.

#![allow(clippy::needless_range_loop)] // explicit column indices read as kernel semantics

use crate::params::{KernelParams, ParamError};
use phi_backend::{with_backend, ResolvedBackend, VectorBackend, V64};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::ctx64::inv_mod_2_64;
use phi_simd::count::{record, OpClass};
use std::fmt;

/// Operations per batch (one per 32-bit lane of a 512-bit register).
use crate::batch::BATCH_WIDTH;

/// Column-loop unroll factor. The cap is register budget: one unrolled
/// block keeps the two u64x8 column accumulators plus one operand
/// register per unrolled iteration live, and 8 is the largest power of
/// two that fits the 32-register file alongside the modulus splats.
const UNROLL: u64 = 8;

/// A 16-lane column as two 8-lane u64 halves (lanes 0..8 and 8..16).
type Pair<B> = (V64<B>, V64<B>);

/// Why a generated context could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenMontError {
    /// The modulus was rejected (even or zero).
    Modulus(BigIntError),
    /// The parameter point was rejected for this modulus size.
    Params(ParamError),
}

impl fmt::Display for GenMontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenMontError::Modulus(e) => write!(f, "generated kernel modulus rejected: {e:?}"),
            GenMontError::Params(e) => write!(f, "generated kernel parameters rejected: {e}"),
        }
    }
}

impl std::error::Error for GenMontError {}

impl From<ParamError> for GenMontError {
    fn from(e: ParamError) -> Self {
        GenMontError::Params(e)
    }
}

/// Sixteen same-shaped values in radix-`2^r` digit-major layout:
/// `cols[d][j]` holds digit `d` of lane `j`. The generated-kernel
/// counterpart of [`crate::batch::Batch16`], carried as `u64` columns because
/// digits of up to 29 bits no longer fit the packed u32 lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenBatch {
    cols: Vec<[u64; BATCH_WIDTH]>,
}

impl GenBatch {
    /// Digit slots per lane.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True if the batch has no digit slots.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// A generated Montgomery context: one odd modulus, one
/// [`KernelParams`] point, one backend.
#[derive(Debug, Clone)]
pub struct GenMontCtx {
    n: BigUint,
    params: KernelParams,
    /// Significant digit count at this radix.
    k: usize,
    /// Bits per digit (cached copy of `params.radix_bits`).
    r: u32,
    /// Mask of one digit.
    mask: u64,
    n_digits: Vec<u64>,
    /// `N' = -n⁻¹ mod R`, full width.
    nprime_digits: Vec<u64>,
    /// `R² mod n` — the batched domain-entry multiplier.
    rr_digits: Vec<u64>,
    /// `R mod n` — the Montgomery representation of 1.
    one_mont_digits: Vec<u64>,
    backend: ResolvedBackend,
}

impl GenMontCtx {
    /// Build a context for the odd modulus `n` at the given parameter
    /// point. Rejects parameters the modulus size cannot run (the
    /// column-sum admissibility bound) before any kernel executes.
    pub fn new(
        n: &BigUint,
        params: KernelParams,
        backend: ResolvedBackend,
    ) -> Result<Self, GenMontError> {
        params.validate(n.bit_length())?;
        if n.is_zero() || n.is_even() {
            return Err(GenMontError::Modulus(BigIntError::EvenModulus));
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let r = params.radix_bits;
        let k = n.bit_length().div_ceil(r) as usize;
        let r_bits = k as u32 * r;
        let nprime = neg_inv_mod_pow2(n, r_bits);
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        let one_mont = &BigUint::power_of_two(r_bits) % n;
        let mask = (1u64 << r) - 1;
        Ok(GenMontCtx {
            n_digits: decompose(n, r, k),
            nprime_digits: decompose(&nprime, r, k),
            rr_digits: decompose(&rr, r, k),
            one_mont_digits: decompose(&one_mont, r, k),
            n: n.clone(),
            params,
            k,
            r,
            mask,
            backend,
        })
    }

    /// The parameter point this context executes.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Significant digits of the modulus at this radix.
    pub fn digits(&self) -> usize {
        self.k
    }

    /// The backend this context's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Loop-control charge for one generated loop of `iters` iterations:
    /// one scalar test-and-branch per [`UNROLL`]-sized block.
    fn ctl<B: VectorBackend>(&self, iters: usize) {
        B::record(OpClass::SAlu, (iters as u64).div_ceil(UNROLL));
    }

    /// Transpose sixteen residues (reduced mod `n` if needed) into the
    /// digit-major batch layout. Charged like [`crate::batch::Batch16`]'s
    /// boundary transpose (~4 swizzles per produced column) plus the
    /// host-side digit slicing.
    pub fn to_batch(&self, values: &[BigUint]) -> GenBatch {
        assert_eq!(values.len(), BATCH_WIDTH, "need exactly 16 values");
        with_backend!(self.backend, B => self.to_batch_impl::<B>(values))
    }

    fn to_batch_impl<B: VectorBackend>(&self, values: &[BigUint]) -> GenBatch {
        let digit_vecs: Vec<Vec<u64>> = values
            .iter()
            .map(|v| {
                let reduced = if v < &self.n { v.clone() } else { v % &self.n };
                decompose(&reduced, self.r, self.k)
            })
            .collect();
        let mut cols = Vec::with_capacity(self.k);
        for d in 0..self.k {
            let mut lanes = [0u64; BATCH_WIDTH];
            for (j, dv) in digit_vecs.iter().enumerate() {
                lanes[j] = dv[d];
            }
            B::record(OpClass::VPerm, 4);
            cols.push(lanes);
        }
        GenBatch { cols }
    }

    /// Transpose a batch back to sixteen big integers.
    pub fn from_batch(&self, b: &GenBatch) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.unbatch_impl::<B>(b))
    }

    fn unbatch_impl<B: VectorBackend>(&self, b: &GenBatch) -> Vec<BigUint> {
        self.lane_digits::<B>(b)
            .iter()
            .map(|dv| recompose(dv, self.r))
            .collect()
    }

    /// Transpose a batch back to sixteen digit vectors, charged like
    /// [`crate::batch::Batch16`]'s boundary transpose.
    fn lane_digits<B: VectorBackend>(&self, b: &GenBatch) -> Vec<Vec<u64>> {
        debug_assert_eq!(b.len(), self.k);
        let mut lanes_digits = vec![vec![0u64; self.k]; BATCH_WIDTH];
        for (d, col) in b.cols.iter().enumerate() {
            B::record(OpClass::VPerm, 4);
            for j in 0..BATCH_WIDTH {
                lanes_digits[j][d] = col[j];
            }
        }
        lanes_digits
    }

    /// Broadcast one digit vector to all sixteen lanes (one `vpbroadcast`
    /// per column — the generated ladder's R²/one-batch constructor).
    fn splat_batch<B: VectorBackend>(&self, digits: &[u64]) -> GenBatch {
        debug_assert_eq!(digits.len(), self.k);
        let cols = digits
            .iter()
            .map(|&d| {
                B::record(OpClass::VPerm, 1);
                [d; BATCH_WIDTH]
            })
            .collect();
        GenBatch { cols }
    }

    /// Enter the Montgomery domain batched: one 16-lane multiplication of
    /// the raw residues by the broadcast R².
    pub fn enter_mont_16(&self, values: &[BigUint]) -> GenBatch {
        with_backend!(self.backend, B => {
            let raw = self.to_batch_impl::<B>(values);
            let rr_b = self.splat_batch::<B>(&self.rr_digits);
            self.mont_mul_16_generic::<B>(&raw, &rr_b)
        })
    }

    /// Sixteen Montgomery products at once (operands in batch layout,
    /// values `< n`).
    pub fn mont_mul_16(&self, a: &GenBatch, b: &GenBatch) -> GenBatch {
        with_backend!(self.backend, B => self.mont_mul_16_generic::<B>(a, b))
    }

    /// Sixteen Montgomery squarings, halving the product triangle.
    pub fn mont_sqr_16(&self, a: &GenBatch) -> GenBatch {
        with_backend!(self.backend, B => self.mont_sqr_16_generic::<B>(a))
    }

    fn mont_mul_16_generic<B: VectorBackend>(&self, a: &GenBatch, b: &GenBatch) -> GenBatch {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert_eq!(a.len(), self.k);
        debug_assert_eq!(b.len(), self.k);
        let aw = widen::<B>(a);
        let bw = widen::<B>(b);
        let traw = self.raw_product::<B>(&aw, &bw);
        self.reduce::<B>(&traw)
    }

    fn mont_sqr_16_generic<B: VectorBackend>(&self, a: &GenBatch) -> GenBatch {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert_eq!(a.len(), self.k);
        let aw = widen::<B>(a);
        let traw = self.raw_square::<B>(&aw);
        self.reduce::<B>(&traw)
    }

    /// Comba column scan of the raw product `T = a·b`: `2k-1` raw
    /// columns, each accumulated in registers and stored once. The
    /// admissibility bound keeps every column sum below `2^63`.
    fn raw_product<B: VectorBackend>(&self, aw: &[Pair<B>], bw: &[Pair<B>]) -> Vec<Pair<B>> {
        let k = self.k;
        let mut cols = vec![(V64::<B>::zero(), V64::<B>::zero()); 2 * k - 1];
        self.ctl::<B>(2 * k - 1);
        for c in 0..(2 * k - 1) {
            let mut lo = V64::<B>::zero();
            let mut hi = V64::<B>::zero();
            let first = (c + 1).saturating_sub(k);
            let last = c.min(k - 1);
            self.ctl::<B>(last + 1 - first);
            for i in first..=last {
                let j = c - i;
                lo = lo.fma32(aw[i].0, bw[j].0);
                hi = hi.fma32(aw[i].1, bw[j].1);
            }
            B::record(OpClass::VMem, 2);
            cols[c] = (lo, hi);
        }
        cols
    }

    /// Comba column scan of the raw square `T = a²` using the `2·aᵢ·aⱼ`
    /// symmetry. The doubled digits need `r + 1 ≤ 32` bits, guaranteed by
    /// the radix range cap.
    fn raw_square<B: VectorBackend>(&self, aw: &[Pair<B>]) -> Vec<Pair<B>> {
        let k = self.k;
        let a2: Vec<Pair<B>> = aw.iter().map(|p| (p.0.add(p.0), p.1.add(p.1))).collect();
        let mut cols = vec![(V64::<B>::zero(), V64::<B>::zero()); 2 * k - 1];
        self.ctl::<B>(k); // doubling pass
        self.ctl::<B>(2 * k - 1);
        for c in 0..(2 * k - 1) {
            let mut lo = V64::<B>::zero();
            let mut hi = V64::<B>::zero();
            let first = (c + 1).saturating_sub(k);
            let last = c.div_ceil(2);
            self.ctl::<B>(last - first);
            for i in first..last {
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
            cols[c] = (lo, hi);
        }
        cols
    }

    /// Carry-normalize raw column sums into `out_len` `r`-bit digit
    /// pairs, returning the digits and the final carry pair.
    fn normalize<B: VectorBackend>(
        &self,
        cols: &[Pair<B>],
        out_len: usize,
        maskv: V64<B>,
    ) -> (Vec<Pair<B>>, Pair<B>) {
        let mut out = vec![(V64::<B>::zero(), V64::<B>::zero()); out_len];
        let mut carry = (V64::<B>::zero(), V64::<B>::zero());
        self.ctl::<B>(out_len);
        for idx in 0..out_len {
            let (rlo, rhi) = if idx < cols.len() {
                cols[idx]
            } else {
                (V64::<B>::zero(), V64::<B>::zero())
            };
            let vlo = rlo.add(carry.0);
            let vhi = rhi.add(carry.1);
            out[idx] = (vlo.and(maskv), vhi.and(maskv));
            carry = (vlo.shr(self.r), vhi.shr(self.r));
            B::record(OpClass::VMem, 2);
        }
        (out, carry)
    }

    /// `m = (T_lo · N') mod R`: the low product triangle of the
    /// normalized digits of `T` against the full-width `N'`.
    fn m_digits<B: VectorBackend>(&self, t: &[Pair<B>], maskv: V64<B>) -> Vec<Pair<B>> {
        let k = self.k;
        let np: Vec<V64<B>> = self
            .nprime_digits
            .iter()
            .map(|&d| V64::<B>::splat(d))
            .collect();
        let mut mraw = vec![(V64::<B>::zero(), V64::<B>::zero()); k];
        self.ctl::<B>(k);
        for c in 0..k {
            let mut lo = V64::<B>::zero();
            let mut hi = V64::<B>::zero();
            self.ctl::<B>(c + 1);
            for i in 0..=c {
                lo = lo.fma32(t[i].0, np[c - i]);
                hi = hi.fma32(t[i].1, np[c - i]);
            }
            B::record(OpClass::VMem, 2);
            mraw[c] = (lo, hi);
        }
        let (m, _dropped) = self.normalize::<B>(&mraw, k, maskv);
        m
    }

    /// Truncated separated reduction of the raw product columns. Where
    /// a full separated reduction adds every column of `m·n`, including
    /// the low ones the division by `R` discards, this one computes
    ///
    /// 1. `m = (T mod R)·N' mod R` from the low `k(k+1)/2` product
    ///    triangle,
    /// 2. only the **high** anti-triangle of `m·n` (`k(k-1)/2` products)
    ///    plus the two boundary columns `s_{k-2}, s_{k-1}` — the low
    ///    columns `s_0..s_{k-3}` are never formed,
    /// 3. a correction recovering the elided low part exactly: with
    ///    `D̂ = T_lo + s_{k-2}β^{k-2} + s_{k-1}β^{k-1}`, the elided
    ///    remainder `E = Σ_{c≤k-3} s_c β^c` satisfies `E < (k-1)β^{k-1}
    ///    < R` (for `k-1 < β = 2^r`, true at every admissible point), and
    ///    the exact low half `D = D̂ + E` is divisible by `R`, so
    ///    `D/R = floor(D̂/R) + [D̂ mod R ≠ 0]`.
    ///
    /// `U = T_hi + S_hi + D/R = (T + m·n)/R < 2n`, and the conditional
    /// subtraction makes it bit-identical to the classic answer.
    fn reduce<B: VectorBackend>(&self, traw: &[Pair<B>]) -> GenBatch {
        let k = self.k;
        let kk = k + 1;
        let r = self.r;
        let maskv = V64::<B>::splat(self.mask);

        let (t, t_carry) = self.normalize::<B>(traw, 2 * k, maskv);
        assert_zero_pair::<B>(&t_carry, "carry out of T normalization");

        let m = self.m_digits::<B>(&t, maskv);

        // Boundary columns s_{k-2}, s_{k-1} of m·n and the correction
        // C = floor(D̂/R) + [D̂ mod R ≠ 0], fully lane-parallel. With
        // x = t_{k-2} + s_{k-2} and z = (t_{k-1} + s_{k-1}) + (x >> r),
        // floor(D̂/R) = z >> r exactly (the rest of D̂ is strictly below
        // R), and D̂ mod R ≠ 0 iff (x mod 2^r) + (z mod 2^r) +
        // Σ t_0..t_{k-3} ≠ 0 — a bounded sum standing in for the OR the
        // lane ISA doesn't have, tested via the carry-out of adding
        // 2^63 - 1.
        let ns: Vec<V64<B>> = self.n_digits.iter().map(|&d| V64::<B>::splat(d)).collect();
        let s_km2 = self.boundary_column::<B>(&m, &ns, k - 2);
        let s_km1 = self.boundary_column::<B>(&m, &ns, k - 1);
        let biasv = V64::<B>::splat((1u64 << 63) - 1);
        let corr = {
            let mut halves = [V64::<B>::zero(); 2];
            let x = [t[k - 2].0.add(s_km2.0), t[k - 2].1.add(s_km2.1)];
            let y = [t[k - 1].0.add(s_km1.0), t[k - 1].1.add(s_km1.1)];
            for h in 0..2 {
                let x0 = x[h].and(maskv);
                let z = y[h].add(x[h].shr(r));
                let mut w = x0.add(z.and(maskv));
                self.ctl::<B>(k.saturating_sub(2));
                for c in 0..k.saturating_sub(2) {
                    w = w.add(if h == 0 { t[c].0 } else { t[c].1 });
                }
                let flag = w.add(biasv).shr(63);
                halves[h] = z.shr(r).add(flag);
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
                    (V64::<B>::zero(), V64::<B>::zero())
                }
            })
            .collect();
        ucols[0] = (ucols[0].0.add(corr.0), ucols[0].1.add(corr.1));
        self.ctl::<B>(k.saturating_sub(1));
        for c in k..(2 * k - 1) {
            let (mut lo, mut hi) = ucols[c - k];
            self.ctl::<B>(k - (c + 1 - k));
            for i in (c + 1 - k)..k {
                let j = c - i;
                lo = lo.fma32(m[i].0, ns[j]);
                hi = hi.fma32(m[i].1, ns[j]);
            }
            B::record(OpClass::VMem, 2);
            ucols[c - k] = (lo, hi);
        }

        let (ud, u_carry) = self.normalize::<B>(&ucols, kk, maskv);
        assert_zero_pair::<B>(&u_carry, "carry out of U normalization");
        self.cond_sub_pack::<B>(&ud)
    }

    /// Exact raw column sum `s_c` of `m·n` for one boundary column.
    fn boundary_column<B: VectorBackend>(&self, m: &[Pair<B>], ns: &[V64<B>], c: usize) -> Pair<B> {
        let mut lo = V64::<B>::zero();
        let mut hi = V64::<B>::zero();
        self.ctl::<B>(c + 1);
        for i in 0..=c {
            lo = lo.fma32(m[i].0, ns[c - i]);
            hi = hi.fma32(m[i].1, ns[c - i]);
        }
        (lo, hi)
    }

    /// Lane-parallel conditional subtraction of `n` from the `k+1`
    /// normalized digits `ud` (value `< 2n`), packed back into the
    /// `k`-column batch layout.
    fn cond_sub_pack<B: VectorBackend>(&self, ud: &[Pair<B>]) -> GenBatch {
        let k = self.k;
        let kk = k + 1;
        debug_assert_eq!(ud.len(), kk);
        let maskv = V64::<B>::splat(self.mask);
        let nall: Vec<V64<B>> = self
            .n_digits
            .iter()
            .map(|&d| V64::<B>::splat(d))
            .chain(std::iter::once(V64::<B>::zero()))
            .collect();
        let mut diff = vec![(V64::<B>::zero(), V64::<B>::zero()); kk];
        let mut borrow = (V64::<B>::zero(), V64::<B>::zero());
        self.ctl::<B>(kk);
        for c in 0..kk {
            let vlo = ud[c].0.sub(nall[c]).sub(borrow.0);
            let vhi = ud[c].1.sub(nall[c]).sub(borrow.1);
            borrow = (vlo.shr(63), vhi.shr(63));
            diff[c] = (vlo.and(maskv), vhi.and(maskv));
            B::record(OpClass::VMem, 2);
        }
        let keep = (
            V64::<B>::zero().sub(borrow.0),
            V64::<B>::zero().sub(borrow.1),
        );

        let mut cols = vec![[0u64; BATCH_WIDTH]; k];
        self.ctl::<B>(kk);
        for c in 0..kk {
            let lo = diff[c].0.add(ud[c].0.sub(diff[c].0).and(keep.0));
            let hi = diff[c].1.add(ud[c].1.sub(diff[c].1).and(keep.1));
            if c == k {
                // The result is < n < β^k: the top digit must be zero.
                assert_zero_pair::<B>(&(lo, hi), "top digit of the reduced result");
                continue;
            }
            let llo = lo.to_lanes();
            let lhi = hi.to_lanes();
            let lanes = &mut cols[c];
            for j in 0..8 {
                debug_assert!(llo[j] <= self.mask && lhi[j] <= self.mask);
                lanes[j] = llo[j];
                lanes[8 + j] = lhi[j];
            }
            B::record(OpClass::VPerm, 2);
        }
        GenBatch { cols }
    }

    /// Sixteen exponentiations `base[j]^exp mod n` with one shared
    /// exponent through the generated fixed-window ladder, at this
    /// context's window width. Bit-identical to the classic
    /// [`crate::BatchMont::mod_exp_16`] and the scalar oracle.
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        self.mod_exp_16_window(bases, exp, self.params.window)
    }

    /// [`mod_exp_16`](Self::mod_exp_16) at an explicit window width (the
    /// window builds no state, so one context serves every width).
    pub(crate) fn mod_exp_16_window(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.mod_exp_16_generic::<B>(bases, exp, window))
    }

    fn mod_exp_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        let _span = phi_trace::span(phi_trace::Scope::BatchExp);
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert!((1..=7).contains(&window), "window {window} outside 1..=7");
        if self.n.is_one() {
            return vec![BigUint::zero(); BATCH_WIDTH];
        }
        if exp.is_zero() {
            return vec![BigUint::one(); BATCH_WIDTH];
        }

        // Batched domain entry: one 16-lane multiply by the broadcast R².
        let rr_b = self.splat_batch::<B>(&self.rr_digits);
        let base_m = self.mont_mul_16_generic::<B>(&self.to_batch_impl::<B>(bases), &rr_b);

        // table[v] = batch of base^v in the Montgomery domain.
        let one_b = self.splat_batch::<B>(&self.one_mont_digits);
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(one_b);
        for v in 1..table_len {
            let prev: &GenBatch = &table[v - 1];
            table.push(self.mont_mul_16_generic::<B>(prev, &base_m));
        }

        let bits = exp.bit_length();
        let windows = bits.div_ceil(window);
        let mut acc = table[0].clone();
        for win in (0..windows).rev() {
            for _ in 0..window {
                acc = self.mont_sqr_16_generic::<B>(&acc);
            }
            let lo = win * window;
            let width = window.min(bits - lo);
            let val = exp.extract_bits(lo, width) as usize;
            B::record(OpClass::SAlu, 4);
            B::record(OpClass::VMem, 2 * ((self.k + 1) as u64).div_ceil(8));
            acc = self.mont_mul_16_generic::<B>(&acc, &table[val]);
        }

        // Batched domain exit: one 16-lane multiply by the broadcast 1.
        let mut one_digits = vec![0u64; self.k];
        one_digits[0] = 1;
        let one_raw = self.splat_batch::<B>(&one_digits);
        let out = self.mont_mul_16_generic::<B>(&acc, &one_raw);
        self.unbatch_impl::<B>(&out)
    }

    /// Sixteen power-equality checks at once: `out[j] = (base[j]^exp ≡
    /// expected[j] (mod n))`, with one shared exponent.
    ///
    /// This is the release check of the verified offload path (DESIGN.md
    /// §3.14): `m^e ≡ c (mod n)` over a whole flush in one batched
    /// ladder. Three things keep it cheap where
    /// [`mod_exp_16`](Self::mod_exp_16) would not be:
    ///
    /// * plain square-and-multiply over the exponent's actual bits — for
    ///   a sparse public exponent like 65537 that is 16 squarings plus
    ///   one multiplication, where a fixed-window ladder would multiply
    ///   on every window;
    /// * batched domain entry: both `base` and `expected` enter the
    ///   Montgomery domain via one 16-lane multiplication by R² each;
    /// * the comparison happens *in* the Montgomery domain (x ↦ x·R is
    ///   injective mod n), so there is no domain exit at all.
    ///
    /// Lanes padded with `base = expected = 0` compare equal. The caller
    /// wraps the call in whatever trace scope fits (the resilient
    /// runtime uses `Scope::Verify`); no span is opened here.
    pub fn pow_eq_16(&self, bases: &[BigUint], exp: &BigUint, expected: &[BigUint]) -> Vec<bool> {
        with_backend!(self.backend, B => self.pow_eq_16_generic::<B>(bases, exp, expected))
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
        let rr_b = self.splat_batch::<B>(&self.rr_digits);
        let base_m = self.mont_mul_16_generic::<B>(&self.to_batch_impl::<B>(bases), &rr_b);
        let mut acc = base_m.clone();
        for i in (0..exp.bit_length() - 1).rev() {
            acc = self.mont_sqr_16_generic::<B>(&acc);
            if exp.extract_bits(i, 1) == 1 {
                acc = self.mont_mul_16_generic::<B>(&acc, &base_m);
            }
        }
        let want = self.mont_mul_16_generic::<B>(&self.to_batch_impl::<B>(expected), &rr_b);
        let (want, got) = (self.lane_digits::<B>(&want), self.lane_digits::<B>(&acc));
        want.iter().zip(&got).map(|(w, g)| w == g).collect()
    }
}

/// Widen a batch's columns into u64 half-pairs (free register plumbing;
/// the kernels charge their own stores).
fn widen<B: VectorBackend>(b: &GenBatch) -> Vec<Pair<B>> {
    b.cols
        .iter()
        .map(|c| {
            let (lo, hi) = c.split_at(8);
            (
                V64::<B>::from_slice_folded(lo),
                V64::<B>::from_slice_folded(hi),
            )
        })
        .collect()
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

/// `N' = −n⁻¹ mod 2^bits` for odd `n`, by Newton–Hensel lifting: the
/// 64-bit inverse [`inv_mod_2_64`] lifted with `y ← y·(2 + n·y) mod 2^b`,
/// which doubles the correct low bits each step (`n·y ≡ −1 + e·2^b`
/// gives `n·y·(2 + n·y) ≡ −1 mod 2^2b`). Truncation is masking, not
/// division, and `BigUint` arithmetic records no modeled ops.
fn neg_inv_mod_pow2(n: &BigUint, bits: u32) -> BigUint {
    let mut y = BigUint::from(inv_mod_2_64(n.limbs()[0]).wrapping_neg());
    let mut b = 64;
    while b < bits {
        b = (2 * b).min(bits);
        let mut ny = n * &y;
        ny.mask_low_bits(b);
        y = &y * &(&ny + 2u64);
        y.mask_low_bits(b);
    }
    y.mask_low_bits(bits);
    y
}

/// Slice a value into `len` radix-`2^r` digits (host-side entry pass,
/// charged like [`crate::radix::VecNum::from_biguint`]).
fn decompose(a: &BigUint, r: u32, len: usize) -> Vec<u64> {
    debug_assert!(
        a.bit_length() as usize <= len * r as usize,
        "value of {} bits does not fit in {len} radix-2^{r} digits",
        a.bit_length()
    );
    let out: Vec<u64> = (0..len).map(|i| a.extract_bits(i as u32 * r, r)).collect();
    record(OpClass::SAlu, 3 * len as u64);
    record(OpClass::SMem, len as u64);
    out
}

/// Pack radix-`2^r` digits back into a big integer (the symmetric exit
/// pass, generalizing [`crate::radix::VecNum::to_biguint`] over `r`).
fn recompose(digits: &[u64], r: u32) -> BigUint {
    let total_bits = digits.len() * r as usize;
    let limbs = total_bits.div_ceil(64) + 1;
    let mut out = vec![0u64; limbs];
    for (i, &d) in digits.iter().enumerate() {
        debug_assert!(d < (1u64 << r), "digit {i} out of range");
        let bit = i * r as usize;
        let limb = bit / 64;
        let off = (bit % 64) as u32;
        out[limb] |= d << off;
        if off > 64 - r {
            out[limb + 1] |= d >> (64 - off);
        }
    }
    record(OpClass::SAlu, 3 * digits.len() as u64);
    record(OpClass::SMem, digits.len() as u64);
    BigUint::from_limbs(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchMont, MontVariant};
    use crate::vmont::VMontCtx;
    use phi_simd::count;
    use proptest::prelude::*;

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    fn params(radix_bits: u32, window: u32) -> KernelParams {
        KernelParams { radix_bits, window }
    }

    fn sixteen(n: &BigUint, seed: u64) -> Vec<BigUint> {
        let mut state = seed;
        (0..BATCH_WIDTH)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                &(&BigUint::from(state) * &BigUint::from(state ^ 0xF00D)) % n
            })
            .collect()
    }

    /// An odd modulus of about `bits` bits in one of four shapes:
    /// dense-top `2^bits − d`, sparse `2^(bits−1) + s`, `2^bits − s` for
    /// tiny `s` (`2^bits − 1` included), and random with the top bit set.
    fn shaped_modulus(bits: u32, shape: u8, seed: u64) -> BigUint {
        let pow = BigUint::power_of_two;
        match shape {
            0 => &pow(bits) - &BigUint::from(2 * (seed % (1 << 19)) + 1),
            1 => &pow(bits - 1) + &BigUint::from(2 * (seed % 128) + 1),
            2 => &pow(bits) - &BigUint::from(2 * (seed % 8) + 1),
            _ => {
                let mut state = seed;
                let limbs = (0..bits.div_ceil(64))
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state ^ (state >> 29)
                    })
                    .collect();
                let mut n = BigUint::from_limbs(limbs);
                n.mask_low_bits(bits);
                n.set_bit(bits - 1, true);
                n.set_bit(0, true);
                n
            }
        }
    }

    /// The lifted `N'` a context holds, against the extended-Euclid
    /// `R − n⁻¹ mod R` it replaces.
    fn assert_lifted_nprime(n: &BigUint) {
        for radix in KernelParams::admissible_radices(n.bit_length()) {
            let ctx = GenMontCtx::new(n, params(radix, 5), ResolvedBackend::ModeledKnc).unwrap();
            let big_r = BigUint::power_of_two(ctx.digits() as u32 * radix);
            let want = &big_r - &n.mod_inverse(&big_r).unwrap();
            assert_eq!(
                ctx.nprime_digits,
                decompose(&want, radix, ctx.digits()),
                "{}-bit n = {n:?}, radix {radix}",
                n.bit_length()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lifted_nprime_matches_mod_inverse(
            bits in 256u32..=4096,
            shape in 0u8..4,
            seed in any::<u64>(),
        ) {
            assert_lifted_nprime(&shaped_modulus(bits, shape, seed));
        }
    }

    /// The lift at each paper half size and below one 64-bit word (two
    /// radix-2^26 digits, where only the final mask runs).
    #[test]
    fn lifted_nprime_at_fixed_sizes_and_below_one_word() {
        for bits in [256u32, 512, 1024, 2048, 4096] {
            for shape in 0..4 {
                assert_lifted_nprime(&shaped_modulus(bits, shape, u64::from(bits)));
            }
        }
        for bits in [28u32, 40, 52] {
            for shape in 0..4 {
                assert_lifted_nprime(&shaped_modulus(bits, shape, 7));
            }
        }
    }

    #[test]
    fn digit_roundtrip_across_radices() {
        let v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef0fedcba987654321").unwrap();
        for r in [26u32, 27, 28, 29, 31] {
            let k = v.bit_length().div_ceil(r) as usize;
            let d = decompose(&v, r, k);
            assert!(d.iter().all(|&x| x < (1u64 << r)), "r = {r}");
            assert_eq!(recompose(&d, r), v, "r = {r}");
        }
    }

    #[test]
    fn generated_exp_matches_oracle_across_the_space() {
        let n = n256();
        let exp = BigUint::from_hex("deadbeefcafebabe").unwrap();
        let bases = sixteen(&n, 7);
        let want: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&exp, &n)).collect();
        for radix in KernelParams::admissible_radices(n.bit_length()) {
            for window in [1u32, 5, 7] {
                let ctx = GenMontCtx::new(&n, params(radix, window), ResolvedBackend::ModeledKnc)
                    .unwrap();
                assert_eq!(
                    ctx.mod_exp_16(&bases, &exp),
                    want,
                    "radix {radix}, window {window}"
                );
            }
        }
    }

    #[test]
    fn generated_mul_and_sqr_match_the_classic_batch_kernel() {
        // Adversarial dense-top moduli: every high digit saturated.
        for n in [
            n256(),
            &BigUint::power_of_two(512) - &BigUint::from(237u64),
            &BigUint::power_of_two(300) - &BigUint::from(153u64),
        ] {
            let vctx = VMontCtx::new(&n).unwrap();
            let classic = BatchMont::new(&vctx);
            let a = sixteen(&n, 1);
            let b = sixteen(&n, 2);
            let exp = BigUint::from_hex("f00dface").unwrap();
            let want = classic.mod_exp_16(&a, &exp, 4);
            for radix in KernelParams::admissible_radices(n.bit_length()) {
                let ctx =
                    GenMontCtx::new(&n, params(radix, 4), ResolvedBackend::ModeledKnc).unwrap();
                assert_eq!(ctx.mod_exp_16(&a, &exp), want, "radix {radix}");
                // Kernel-level cross-check through the batched entry.
                let am = ctx.enter_mont_16(&a);
                let bm = ctx.enter_mont_16(&b);
                let prod = ctx.from_batch(&ctx.mont_mul_16(&am, &bm));
                let sq = ctx.from_batch(&ctx.mont_sqr_16(&am));
                for j in 0..BATCH_WIDTH {
                    // a·b·R (both entries carry one R) — compare against
                    // the oracle product carried into the domain.
                    let want_p = &(&a[j] * &b[j]) % &n;
                    let want_s = &(&a[j] * &a[j]) % &n;
                    let r_bits = ctx.digits() as u32 * radix;
                    let r_mod = &BigUint::power_of_two(r_bits) % &n;
                    assert_eq!(prod[j], &(&want_p * &r_mod) % &n, "mul lane {j}");
                    assert_eq!(sq[j], &(&want_s * &r_mod) % &n, "sqr lane {j}");
                }
            }
        }
    }

    #[test]
    fn extreme_lanes_hit_the_correction_boundary() {
        let n = &BigUint::power_of_two(256) - &BigUint::from(189u64);
        let exp = BigUint::from_hex("deadbeef").unwrap();
        let vals: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| match j % 4 {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => &n - &BigUint::one(),
                _ => BigUint::from(j as u64 * 0x1234_5678 + 3),
            })
            .collect();
        let want: Vec<BigUint> = vals.iter().map(|b| b.mod_exp(&exp, &n)).collect();
        for radix in [27, 29] {
            let ctx = GenMontCtx::new(&n, params(radix, 3), ResolvedBackend::ModeledKnc).unwrap();
            assert_eq!(ctx.mod_exp_16(&vals, &exp), want, "radix {radix}");
        }
    }

    #[test]
    fn edge_exponents_and_modulus_one() {
        let n = n256();
        let ctx = GenMontCtx::new(&n, params(28, 5), ResolvedBackend::ModeledKnc).unwrap();
        let bases = sixteen(&n, 9);
        let zeros = ctx.mod_exp_16(&bases, &BigUint::zero());
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = ctx.mod_exp_16(&bases, &BigUint::one());
        assert_eq!(ones, bases);
    }

    #[test]
    fn rejects_inadmissible_points_and_bad_moduli() {
        let n = n256();
        let modeled = ResolvedBackend::ModeledKnc;
        assert!(matches!(
            GenMontCtx::new(&n, params(30, 5), modeled),
            Err(GenMontError::Params(ParamError::RadixInadmissible { .. }))
        ));
        assert!(matches!(
            GenMontCtx::new(&BigUint::power_of_two(256), params(27, 5), modeled),
            Err(GenMontError::Modulus(BigIntError::EvenModulus))
        ));
        assert!(matches!(
            GenMontCtx::new(&BigUint::from(101u64), params(27, 5), modeled),
            Err(GenMontError::Params(ParamError::ModulusTooSmall(7)))
        ));
        assert!(GenMontError::Params(ParamError::Window(9))
            .to_string()
            .contains("window"));
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        let n = n256();
        let exp = BigUint::from_hex("0123456789abcdef").unwrap();
        let bases = sixteen(&n, 21);
        for p in [KernelParams::static_defaults(), params(29, 5)] {
            let m = GenMontCtx::new(&n, p, ResolvedBackend::ModeledKnc).unwrap();
            let nat = GenMontCtx::new(&n, p, ResolvedBackend::NativeX86).unwrap();
            assert_eq!(m.mod_exp_16(&bases, &exp), nat.mod_exp_16(&bases, &exp));
        }
    }

    /// Sixteen residues spanning the modulus's full width, with the
    /// extreme lanes 0 and `n - 1`.
    fn sixteen_full_width(n: &BigUint, seed: u64) -> Vec<BigUint> {
        let bits = n.bit_length();
        let mut vals: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &shaped_modulus(bits, 3, seed + j) % n)
            .collect();
        vals[0] = BigUint::zero();
        vals[1] = n - &BigUint::one();
        vals
    }

    #[test]
    fn native_matches_modeled_at_every_tuning_row_and_the_static_point() {
        // Each committed row's point at its CRT-half size, and the static
        // point there: the two backends must agree bit for bit on every
        // kernel entry, a short-exponent ladder, and the power check on
        // honest and flipped lanes.
        let exp = BigUint::from(0xb5u64);
        let e = BigUint::from(65537u64);
        for row in &crate::tuning::TuningTable::committed().entries {
            let bits = row.key_bits / 2;
            let n = shaped_modulus(bits, 3, u64::from(bits));
            let (a, b) = (sixteen_full_width(&n, 40), sixteen_full_width(&n, 80));
            let powers: Vec<BigUint> = a.iter().map(|x| x.mod_exp(&e, &n)).collect();
            let mut claimed = powers.clone();
            claimed[5] = &(&claimed[5] + &BigUint::one()) % &n;
            let honest = vec![true; BATCH_WIDTH];
            let flipped: Vec<bool> = (0..BATCH_WIDTH).map(|j| j != 5).collect();
            for p in [row.params, KernelParams::static_defaults()] {
                let what = format!("{bits}-bit modulus at {p:?}");
                let m = GenMontCtx::new(&n, p, ResolvedBackend::ModeledKnc).unwrap();
                let nat = GenMontCtx::new(&n, p, ResolvedBackend::NativeX86).unwrap();
                let (am, bm) = (m.enter_mont_16(&a), m.enter_mont_16(&b));
                assert_eq!(nat.enter_mont_16(&a), am, "{what}: entry");
                let prod = m.mont_mul_16(&am, &bm);
                assert_eq!(nat.mont_mul_16(&am, &bm), prod, "{what}: mul");
                assert_eq!(nat.mont_sqr_16(&am), m.mont_sqr_16(&am), "{what}: sqr");
                let want: Vec<BigUint> = a.iter().map(|x| x.mod_exp(&exp, &n)).collect();
                assert_eq!(m.mod_exp_16(&a, &exp), want, "{what}: modeled exp");
                assert_eq!(nat.mod_exp_16(&a, &exp), want, "{what}: native exp");
                for ctx in [&m, &nat] {
                    assert_eq!(ctx.pow_eq_16(&a, &e, &powers), honest, "{what}: honest");
                    assert_eq!(ctx.pow_eq_16(&a, &e, &claimed), flipped, "{what}: flip");
                }
            }
        }
    }

    #[test]
    fn wider_radix_beats_the_static_defaults_at_256_bits() {
        // The headline claim the tuner banks on: at a 256-bit modulus
        // (the 512-bit key's CRT half), radix 2^29 needs 9 digits where
        // 2^27 needs 10, so the radix-29 ladder beats the static point
        // (which `BatchMont` runs under `Auto`).
        let n = n256();
        let exp = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let bases = sixteen(&n, 13);
        let vctx = VMontCtx::new(&n).unwrap();
        let static_ladder = BatchMont::with_variant(&vctx, MontVariant::Auto);
        let gctx = GenMontCtx::new(&n, params(29, 5), ResolvedBackend::ModeledKnc).unwrap();
        count::reset();
        let (ws, ds) = count::measure(|| static_ladder.mod_exp_16(&bases, &exp, 5));
        let (wg, dg) = count::measure(|| gctx.mod_exp_16(&bases, &exp));
        assert_eq!(ws, wg, "results must stay bit-identical");
        let model = phi_simd::CostModel::knc();
        let (cs, cg) = (model.issue_cycles(&ds), model.issue_cycles(&dg));
        assert!(
            cg < cs,
            "generated radix-29 must win: static {cs} cycles, generated {cg} cycles"
        );
    }

    #[test]
    fn counts_are_deterministic() {
        let n = n256();
        let ctx = GenMontCtx::new(&n, params(28, 4), ResolvedBackend::ModeledKnc).unwrap();
        let bases = sixteen(&n, 5);
        let exp = BigUint::from_hex("abcdef").unwrap();
        count::reset();
        let (_, d1) = count::measure(|| ctx.mod_exp_16(&bases, &exp));
        let (_, d2) = count::measure(|| ctx.mod_exp_16(&bases, &exp));
        assert_eq!(d1, d2);
    }
}
