//! Vectorized Montgomery multiplication — the heart of PhiOpenSSL.
//!
//! The kernel is CIOS with the reduction interleaved per row: rows walk the
//! digits of `a` in scalar code while each row's two multiply-accumulate
//! passes (`+ aᵢ·B` and `+ q·N`) run across all columns in 512-bit vector
//! FMAs, sixteen digit-products per issued instruction (two 8-lane
//! [`fma32`](phi_backend::V64::fma32) halves per 16-digit chunk pair —
//! here one [`V64`] covers 8 pre-widened digits, so a `⌈K/8⌉`-chunk loop
//! covers the row).
//!
//! Where the scalar baselines issue `2k` dependent 64×64 multiplies per
//! row, this kernel issues `2·⌈K/8⌉` vector FMAs plus two broadcasts — the
//! structural advantage the paper's speedups come from.

use crate::radix::{pad_to_lanes, VecNum, DIGIT_BITS, DIGIT_MASK, LANES, MAX_MONT_BITS};
use phi_backend::{with_backend, ResolvedBackend, VectorBackend, V64};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::MontEngine;
use phi_simd::count::OpClass;
use std::ops::{Index, IndexMut};

/// Scalar glue charged per CIOS row: extracting the low accumulator lane,
/// forming `q`, the carry shift and carry add, and loop bookkeeping. These
/// are dependent scalar ops on KNC's in-order pipe and are the main
/// non-vector cost of the kernel (a calibration constant, see
/// EXPERIMENTS.md §Calibration).
pub const ROW_GLUE_SALU: u64 = 13;

/// Inverse of odd `x` modulo 2^27 (Newton; 3 → 6 → 12 → 24 → 48 bits).
pub(crate) fn inv_mod_digit(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x;
    for _ in 0..4 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv))) & DIGIT_MASK;
    }
    debug_assert_eq!(x.wrapping_mul(inv) & DIGIT_MASK, 1);
    inv
}

/// Storage for one row's vector chunks: `[V; C]` or `Vec<V>`.
trait Chunks<V>: Index<usize, Output = V> + IndexMut<usize> {
    /// `len` chunks, chunk `c` holding `f(c)`.
    fn from_fn(len: usize, f: impl FnMut(usize) -> V) -> Self;
    /// The chunk count: the constant `C` for an array.
    fn len(&self) -> usize;
}

impl<V, const C: usize> Chunks<V> for [V; C] {
    #[inline(always)]
    fn from_fn(len: usize, f: impl FnMut(usize) -> V) -> Self {
        debug_assert_eq!(len, C);
        std::array::from_fn(f)
    }
    #[inline(always)]
    fn len(&self) -> usize {
        C
    }
}

impl<V> Chunks<V> for Vec<V> {
    fn from_fn(len: usize, f: impl FnMut(usize) -> V) -> Self {
        (0..len).map(f).collect()
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// Where a row reads its `B` and `N` chunks: a `[V; C]` array loaded
/// once per call, or the digits themselves.
trait Operand<'a, V> {
    /// The operand whose digits are `digits`, `chunks` chunks long.
    fn load(digits: &'a [u64], chunks: usize) -> Self;
    /// Chunk `c`.
    fn chunk(&self, c: usize) -> V;
}

impl<B: VectorBackend, const C: usize> Operand<'_, V64<B>> for [V64<B>; C] {
    #[inline(always)]
    fn load(digits: &[u64], chunks: usize) -> Self {
        debug_assert_eq!(chunks, C);
        std::array::from_fn(|c| V64::from_slice_folded(&digits[c * LANES..]))
    }
    #[inline(always)]
    fn chunk(&self, c: usize) -> V64<B> {
        self[c]
    }
}

/// The digits themselves, each chunk folded from them when a row reads
/// it, so that a row over a `Vec` allocates only its accumulator.
struct Folded<'a>(&'a [u64]);

impl<'a, B: VectorBackend> Operand<'a, V64<B>> for Folded<'a> {
    fn load(digits: &'a [u64], _chunks: usize) -> Self {
        Folded(digits)
    }
    #[inline(always)]
    fn chunk(&self, c: usize) -> V64<B> {
        V64::from_slice_folded(&self.0[c * LANES..])
    }
}

/// A vectorized Montgomery context for one odd modulus.
///
/// The Montgomery radix is `R = 2^(27·k)` where `k` is the digit count of
/// the modulus — one reduction row per digit, exactly like word-level CIOS
/// but with 27-bit rows.
#[derive(Debug, Clone)]
pub struct VMontCtx {
    n: BigUint,
    /// Significant digit count (rows per multiplication).
    k: usize,
    /// Padded digit count (columns; multiple of 8, ≥ k+1).
    kk: usize,
    /// `kk / 8` — vector chunks per column pass.
    chunks: usize,
    n_vec: VecNum,
    /// `-n⁻¹ mod 2^27`.
    n0_inv: u64,
    /// `R² mod n` in vector form, for entering the domain.
    rr_vec: VecNum,
    r_bits: u32,
    /// Which vector backend the kernels run on.
    backend: ResolvedBackend,
}

impl VMontCtx {
    /// Build a context for the odd modulus `n` on the modeled-KNC
    /// backend.
    pub fn new(n: &BigUint) -> Result<Self, BigIntError> {
        Self::with_backend(n, ResolvedBackend::ModeledKnc)
    }

    /// Build a context for the odd modulus `n` on an explicit backend.
    ///
    /// Fails on an even modulus, and on one of more than
    /// [`MAX_MONT_BITS`] bits, where the kernel's 64-bit column lanes
    /// could overflow.
    pub fn with_backend(n: &BigUint, backend: ResolvedBackend) -> Result<Self, BigIntError> {
        if n.is_zero() || n.is_even() {
            return Err(BigIntError::EvenModulus);
        }
        if n.bit_length() > MAX_MONT_BITS {
            return Err(BigIntError::BitLengthTooLarge {
                bits: n.bit_length(),
                max: MAX_MONT_BITS,
            });
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let k = n.bit_length().div_ceil(DIGIT_BITS) as usize;
        // One extra digit so the pre-subtraction value (< 2n) always fits.
        let kk = pad_to_lanes(k + 1);
        let r_bits = k as u32 * DIGIT_BITS;
        let n_vec = VecNum::from_biguint(n, kk);
        let n0_inv = (1u64 << DIGIT_BITS) - inv_mod_digit(n.limbs()[0] & DIGIT_MASK);
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        let rr_vec = VecNum::from_biguint(&rr, kk);
        Ok(VMontCtx {
            n: n.clone(),
            k,
            kk,
            chunks: kk / LANES,
            n_vec,
            n0_inv,
            rr_vec,
            r_bits,
            backend,
        })
    }

    /// The backend this context's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Significant digits of the modulus (reduction rows per multiply).
    pub fn digits(&self) -> usize {
        self.k
    }

    /// Padded digit slots (columns).
    pub fn padded_digits(&self) -> usize {
        self.kk
    }

    /// `-n⁻¹ mod 2^27`.
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// The modulus in padded digit form (shared with the batched kernel).
    pub fn n_digits(&self) -> &[u64] {
        self.n_vec.digits()
    }

    /// `R² mod n` in vector form (shared with the batch domain entry).
    pub(crate) fn rr_vec(&self) -> &VecNum {
        &self.rr_vec
    }

    /// The zero value shaped for this context.
    pub fn zero_vec(&self) -> VecNum {
        VecNum::zero(self.kk)
    }

    /// Convert a residue into this context's digit form (no domain change).
    pub fn to_vec_form(&self, a: &BigUint) -> VecNum {
        let reduced = if a < &self.n { a.clone() } else { a % &self.n };
        VecNum::from_biguint(&reduced, self.kk)
    }

    /// Enter the Montgomery domain: `a·R mod n` in vector form.
    pub fn to_mont_vec(&self, a: &BigUint) -> VecNum {
        let av = self.to_vec_form(a);
        self.mont_mul_vec(&av, &self.rr_vec)
    }

    /// Leave the Montgomery domain and digit form.
    pub fn from_mont_vec(&self, a: &VecNum) -> BigUint {
        let mut one = self.zero_vec();
        one.digits[0] = 1;
        self.mont_mul_vec(a, &one).to_biguint()
    }

    /// The Montgomery representation of 1.
    pub fn one_mont_vec(&self) -> VecNum {
        let r = &BigUint::power_of_two(self.r_bits) % &self.n;
        VecNum::from_biguint(&r, self.kk)
    }

    /// Vectorized Montgomery product `a·b·R⁻¹ mod n`.
    ///
    /// Inputs must be context-shaped and numerically `< n`; the output is
    /// reduced to `[0, n)`.
    pub fn mont_mul_vec(&self, a: &VecNum, b: &VecNum) -> VecNum {
        with_backend!(self.backend, B => self.mont_mul_generic::<B>(a, b))
    }

    /// Backend-generic body of [`mont_mul_vec`](Self::mont_mul_vec) —
    /// generic callers (exponentiation, batching) use this directly so a
    /// single dispatch covers a whole exponentiation.
    ///
    /// The chunk count picks the row storage. The 512- and 1024-bit
    /// moduli (3 and 5 chunks: the CRT halves of RSA-1024 and RSA-2048,
    /// and the single-lane checks of RSA-1024) keep the accumulators in
    /// an array and load the `B` and `N` chunks into arrays once per
    /// call. Every other size keeps its accumulators in one `Vec` and
    /// folds `B` and `N` from their digits on each row. Both run the
    /// same rows.
    pub(crate) fn mont_mul_generic<B: VectorBackend>(&self, a: &VecNum, b: &VecNum) -> VecNum {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert_eq!(a.len(), self.kk);
        debug_assert_eq!(b.len(), self.kk);
        match self.chunks {
            3 => self.mont_mul_rows::<B, [V64<B>; 3], [V64<B>; 3]>(a, b),
            5 => self.mont_mul_rows::<B, [V64<B>; 5], [V64<B>; 5]>(a, b),
            _ => self.mont_mul_rows::<B, Vec<V64<B>>, Folded>(a, b),
        }
    }

    /// The CIOS rows over accumulator storage `S`, reading `B` and `N`
    /// through `O`. For an array, `S::len` is a compile-time constant,
    /// so the loops below have fixed bounds, and no row reloads a vector
    /// it stored in pieces (DESIGN.md §3.11).
    fn mont_mul_rows<'a, B: VectorBackend, S: Chunks<V64<B>>, O: Operand<'a, V64<B>>>(
        &'a self,
        a: &VecNum,
        b: &'a VecNum,
    ) -> VecNum {
        // The B and N operands fold into the FMAs as memory sources,
        // KNC-style: free on the modeled channel.
        let bv = O::load(&b.digits, self.chunks);
        let nv = O::load(self.n_vec.digits(), self.chunks);
        let mut acc = S::from_fn(self.chunks, |_| V64::<B>::zero());
        let chunks = acc.len();

        for i in 0..self.k {
            // acc += a_i * B : one broadcast + `chunks` FMAs.
            let av = V64::<B>::splat(a.digit(i));
            for c in 0..chunks {
                acc[c] = acc[c].fma32(av, bv.chunk(c));
            }

            // q = (t₀ · n₀') mod 2^27 — scalar, on the critical path.
            let t0 = acc[0].lane(0);
            let q = ((t0 & DIGIT_MASK).wrapping_mul(self.n0_inv)) & DIGIT_MASK;
            B::record(OpClass::SMul32, 1);

            // acc += q * N : clears the low digit.
            let qv = V64::<B>::splat(q);
            for c in 0..chunks {
                acc[c] = acc[c].fma32(qv, nv.chunk(c));
            }
            debug_assert_eq!(acc[0].lane(0) & DIGIT_MASK, 0, "row {i} not reduced");

            // Divide by the radix: shift columns down one digit, feeding the
            // cleared digit's carry into the new column 0.
            let carry = acc[0].lane(0) >> DIGIT_BITS;
            for c in 0..chunks {
                let fill = if c + 1 < chunks {
                    acc[c + 1].lane(0)
                } else {
                    0
                };
                acc[c] = acc[c].shift_lanes_down(fill);
            }
            let l0 = acc[0].lane(0);
            acc[0] = acc[0].with_lane(0, l0 + carry);

            B::record(OpClass::SAlu, ROW_GLUE_SALU);
        }

        // Normalize the redundant columns into proper 27-bit digits.
        let mut out = VecNum::zero(self.kk);
        let mut carry = 0u64;
        for j in 0..chunks * LANES {
            let v = acc[j / LANES].lane(j % LANES) + carry;
            out.digits[j] = v & DIGIT_MASK;
            carry = v >> DIGIT_BITS;
        }
        debug_assert_eq!(carry, 0, "result exceeded the padded width");
        B::record(OpClass::SAlu, 3 * self.kk as u64);
        B::record(OpClass::SMem, self.kk as u64);

        // t < 2n: one conditional subtraction reaches [0, n).
        if out.cmp_digits(&self.n_vec) != std::cmp::Ordering::Less {
            out.sub_assign_digits(&self.n_vec);
        }
        out
    }

    /// Montgomery squaring (same kernel; a dedicated half-product squaring
    /// is listed as future work in DESIGN.md).
    pub fn mont_sqr_vec(&self, a: &VecNum) -> VecNum {
        self.mont_mul_vec(a, a)
    }

    /// One power-equality check: `base^exp ≡ expected (mod n)`.
    ///
    /// The single-lane form of
    /// [`BatchMont::pow_eq_16`](crate::BatchMont::pow_eq_16), checking
    /// the same way: square-and-multiply over the exponent's actual bits
    /// (16 squarings and one multiplication at e = 65537), and the
    /// comparison in the Montgomery domain (x ↦ x·R is injective mod n),
    /// so there is no domain exit. The release check of a sparse flush
    /// runs one per live lane. No span is opened here.
    pub fn pow_eq(&self, base: &BigUint, exp: &BigUint, expected: &BigUint) -> bool {
        with_backend!(self.backend, B => self.pow_eq_generic::<B>(base, exp, expected))
    }

    fn pow_eq_generic<B: VectorBackend>(
        &self,
        base: &BigUint,
        exp: &BigUint,
        expected: &BigUint,
    ) -> bool {
        assert!(!exp.is_zero(), "a power check needs a nonzero exponent");
        let base_m = self.mont_mul_generic::<B>(&self.to_vec_form(base), &self.rr_vec);
        let mut acc = base_m.clone();
        for i in (0..exp.bit_length() - 1).rev() {
            acc = self.mont_mul_generic::<B>(&acc, &acc);
            if exp.extract_bits(i, 1) == 1 {
                acc = self.mont_mul_generic::<B>(&acc, &base_m);
            }
        }
        let want = self.mont_mul_generic::<B>(&self.to_vec_form(expected), &self.rr_vec);
        want.cmp_digits(&acc) == std::cmp::Ordering::Equal
    }
}

impl MontEngine for VMontCtx {
    fn modulus(&self) -> &BigUint {
        &self.n
    }

    fn r_bits(&self) -> u32 {
        self.r_bits
    }

    fn to_mont(&self, a: &BigUint) -> BigUint {
        self.to_mont_vec(a).to_biguint()
    }

    fn from_mont(&self, a: &BigUint) -> BigUint {
        let av = VecNum::from_biguint(a, self.kk);
        self.from_mont_vec(&av)
    }

    fn one_mont(&self) -> BigUint {
        &BigUint::power_of_two(self.r_bits) % &self.n
    }

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let av = VecNum::from_biguint(a, self.kk);
        let bv = VecNum::from_biguint(b, self.kk);
        self.mont_mul_vec(&av, &bv).to_biguint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::MAX_MONT_DIGITS;
    use phi_simd::count;

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    #[test]
    fn inv_mod_digit_identity() {
        for x in [1u64, 3, 0x7ffffff, 0x1234567 | 1] {
            assert_eq!(x.wrapping_mul(inv_mod_digit(x)) & DIGIT_MASK, 1);
        }
    }

    #[test]
    fn rejects_even_modulus() {
        assert!(VMontCtx::new(&BigUint::from(8u64)).is_err());
        assert!(VMontCtx::new(&BigUint::zero()).is_err());
    }

    #[test]
    fn takes_moduli_up_to_the_lane_bound_and_rejects_one_digit_more() {
        let top = BigUint::power_of_two(MAX_MONT_BITS);
        let n = &top - &BigUint::from(0x11Du64);
        // n − 1 and n − 2: every digit but the lowest is all ones, the
        // worst case for the column lanes.
        let a = &n - &BigUint::one();
        let b = &n - &BigUint::from(2u64);
        let r = BigUint::power_of_two(DIGIT_BITS * MAX_MONT_DIGITS);
        let want = a.mod_mul(&b, &n);
        for backend in [ResolvedBackend::ModeledKnc, ResolvedBackend::NativeX86] {
            let ctx = VMontCtx::with_backend(&n, backend).unwrap();
            assert_eq!(ctx.digits(), MAX_MONT_DIGITS as usize);
            let out = ctx.mont_mul_vec(&ctx.to_vec_form(&a), &ctx.to_vec_form(&b));
            // out = a·b·R⁻¹ mod n, checked as out·R ≡ a·b (mod n).
            assert_eq!(out.to_biguint().mod_mul(&r, &n), want, "{backend:?}");

            let over = &(&top + &top) - &BigUint::from(0x11Du64);
            assert_eq!(
                VMontCtx::with_backend(&over, backend).unwrap_err(),
                BigIntError::BitLengthTooLarge {
                    bits: MAX_MONT_BITS + 1,
                    max: MAX_MONT_BITS
                }
            );
        }
    }

    #[test]
    fn shape_for_common_sizes() {
        for (bits, hexdigits) in [(512u32, 128usize), (1024, 256), (2048, 512), (4096, 1024)] {
            let n = &BigUint::power_of_two(bits) - &BigUint::from(0x61u64);
            assert_eq!(n.to_hex().len(), hexdigits);
            let ctx = VMontCtx::new(&n).unwrap();
            assert_eq!(ctx.digits(), bits.div_ceil(DIGIT_BITS) as usize);
            assert!(ctx.padded_digits() > ctx.digits());
            assert_eq!(ctx.padded_digits() % LANES, 0);
        }
    }

    #[test]
    fn roundtrip_small_modulus() {
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        for v in 0u64..97 {
            let a = BigUint::from(v);
            let m = ctx.to_mont_vec(&a);
            assert_eq!(ctx.from_mont_vec(&m).to_u64(), Some(v), "v = {v}");
        }
    }

    #[test]
    fn mont_mul_matches_oracle_256() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let b = BigUint::from_hex("fedcba9876543210fedcba9876543210fedcba98").unwrap();
        let got = ctx.from_mont_vec(&ctx.mont_mul_vec(&ctx.to_mont_vec(&a), &ctx.to_mont_vec(&b)));
        assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_mul_matches_scalar_kernels() {
        let n = n256();
        let vctx = VMontCtx::new(&n).unwrap();
        let sctx = phi_mont::MontCtx64::new(&n).unwrap();
        let a = BigUint::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa").unwrap();
        let b = BigUint::from_hex("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb").unwrap();
        // Different Montgomery radices — compare plain-domain results.
        let pv =
            vctx.from_mont_vec(&vctx.mont_mul_vec(&vctx.to_mont_vec(&a), &vctx.to_mont_vec(&b)));
        let ps = sctx.from_mont(&sctx.mont_mul(&sctx.to_mont(&a), &sctx.to_mont(&b)));
        assert_eq!(pv, ps);
    }

    #[test]
    fn near_modulus_operands_trigger_subtraction() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let max = &n - &BigUint::one();
        let mm = ctx.to_mont_vec(&max);
        let sq = ctx.from_mont_vec(&ctx.mont_mul_vec(&mm, &mm));
        assert!(sq.is_one(), "(n-1)^2 ≡ 1 (mod n)");
    }

    #[test]
    fn large_4096_bit_modulus_no_overflow() {
        // The digit-width analysis in `radix` must hold at the largest
        // paper size; debug assertions in fma32 catch any overflow.
        let n = &BigUint::power_of_two(4096) - &BigUint::from(0x11Du64); // odd
        assert!(n.is_odd());
        let ctx = VMontCtx::new(&n).unwrap();
        let a = &BigUint::power_of_two(4095) - &BigUint::from(12345u64);
        let b = &BigUint::power_of_two(4095) - &BigUint::from(67890u64);
        let got = ctx.from_mont_vec(&ctx.mont_mul_vec(&ctx.to_mont_vec(&a), &ctx.to_mont_vec(&b)));
        assert_eq!(got, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_engine_impl_roundtrips() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = BigUint::from(123456789u64);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a);
        let one = ctx.one_mont();
        let am = ctx.to_mont(&a);
        assert_eq!(ctx.mont_mul(&am, &one), am);
    }

    #[test]
    fn vector_ops_dominate_the_count() {
        // Every chunk storage the kernel picks: arrays at 512 and 1024
        // bits, a `Vec` at 256, 2048 and 4096.
        for (bits, want_chunks) in [(256u32, 2u64), (512, 3), (1024, 5), (2048, 10), (4096, 20)] {
            let n = if bits == 256 {
                n256()
            } else {
                let mut n = full_width(bits, u64::from(bits));
                n.set_bit(0, true);
                n
            };
            let ctx = VMontCtx::new(&n).unwrap();
            let a = ctx.to_mont_vec(&full_width(bits - 1, 3));
            let b = ctx.to_mont_vec(&full_width(bits - 1, 5));
            count::reset();
            let (_, d) = count::measure(|| ctx.mont_mul_vec(&a, &b));
            // k rows × 2·chunks FMAs.
            let k = ctx.digits() as u64;
            let chunks = (ctx.padded_digits() / LANES) as u64;
            assert_eq!(chunks, want_chunks, "{bits} bits");
            assert_eq!(d.get(OpClass::VMul), 2 * k * chunks, "{bits} bits");
            // Broadcasts (2/row) + column shifts (chunks/row).
            assert_eq!(d.get(OpClass::VPerm), k * (2 + chunks), "{bits} bits");
            assert_eq!(d.get(OpClass::SMul64), 0, "{bits} bits");
            assert_eq!(d.get(OpClass::SMul32), k, "{bits} bits");
        }
    }

    #[test]
    fn native_backend_matches_modeled_bit_for_bit() {
        let n = n256();
        let modeled = VMontCtx::new(&n).unwrap();
        let native = VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).unwrap();
        assert_eq!(native.backend(), ResolvedBackend::NativeX86);
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let b = &n - &BigUint::one();
        let rm = modeled.from_mont_vec(
            &modeled.mont_mul_vec(&modeled.to_mont_vec(&a), &modeled.to_mont_vec(&b)),
        );
        let rn = native
            .from_mont_vec(&native.mont_mul_vec(&native.to_mont_vec(&a), &native.to_mont_vec(&b)));
        assert_eq!(rm, rn);

        // The native kernel records nothing into the modeled counters.
        count::reset();
        let am = native.to_mont_vec(&a);
        let (_, d) = count::measure(|| native.mont_mul_vec(&am, &am));
        assert_eq!(d.get(OpClass::VMul), 0);
        assert_eq!(d.get(OpClass::SMul32), 0);
    }

    /// A pseudo-random `bits`-bit value with the top bit set.
    fn full_width(bits: u32, seed: u64) -> BigUint {
        let mut state = seed;
        let limbs = (0..bits.div_ceil(64))
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state ^ (state >> 29)
            })
            .collect();
        let mut v = BigUint::from_limbs(limbs);
        v.mask_low_bits(bits);
        v.set_bit(bits - 1, true);
        v
    }

    #[test]
    fn native_matches_modeled_at_production_sizes() {
        // The array storages (512 and 1024 bits) and the `Vec` one on
        // each side of them: one chunk (64 bits), 2, 10 and 20 chunks.
        let e = BigUint::from(65537u64);
        for (bits, chunks) in [
            (64u32, 1usize),
            (256, 2),
            (512, 3),
            (1024, 5),
            (2048, 10),
            (4096, 20),
        ] {
            let mut n = full_width(bits, u64::from(bits));
            n.set_bit(0, true);
            let modeled = VMontCtx::new(&n).unwrap();
            let native = VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).unwrap();
            assert_eq!(modeled.padded_digits() / LANES, chunks, "{bits} bits");
            for seed in [1u64, 2, 3] {
                let x = &full_width(bits, seed) % &n;
                let y = &full_width(bits, seed + 100) % &n;
                let (xm, ym) = (modeled.to_mont_vec(&x), modeled.to_mont_vec(&y));
                assert_eq!(native.to_mont_vec(&x), xm, "{bits} bits: entry");
                assert_eq!(
                    native.mont_mul_vec(&xm, &ym),
                    modeled.mont_mul_vec(&xm, &ym),
                    "{bits} bits: product"
                );
                let power = x.mod_exp(&e, &n);
                let flipped = &(&power + &BigUint::one()) % &n;
                for ctx in [&modeled, &native] {
                    assert!(ctx.pow_eq(&x, &e, &power), "{bits} bits: honest");
                    assert!(!ctx.pow_eq(&x, &e, &flipped), "{bits} bits: flip");
                }
            }
        }
    }

    #[test]
    fn pow_eq_accepts_true_powers_and_rejects_anything_else() {
        let n = n256();
        let e = BigUint::from(65537u64);
        for backend in [ResolvedBackend::ModeledKnc, ResolvedBackend::NativeX86] {
            if backend == ResolvedBackend::NativeX86 && !phi_backend::CpuFeatures::detect().avx2 {
                continue;
            }
            let ctx = VMontCtx::with_backend(&n, backend).unwrap();
            for base in [
                BigUint::zero(),
                BigUint::one(),
                &n - &BigUint::one(),
                BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap(),
            ] {
                let want = base.mod_exp(&e, &n);
                assert!(ctx.pow_eq(&base, &e, &want), "{backend:?}: honest power");
                let flipped = &(&want + &BigUint::one()) % &n;
                assert!(!ctx.pow_eq(&base, &e, &flipped), "{backend:?}: flip");
                // Any exponent, not only 65537.
                assert!(ctx.pow_eq(
                    &base,
                    &BigUint::from(3u64),
                    &base.mod_exp(&BigUint::from(3u64), &n)
                ));
                assert!(ctx.pow_eq(&base, &BigUint::one(), &base));
            }
        }
    }

    #[test]
    fn counts_are_deterministic() {
        let n = n256();
        let ctx = VMontCtx::new(&n).unwrap();
        let a = ctx.to_mont_vec(&BigUint::from(7u64));
        count::reset();
        let (_, d1) = count::measure(|| ctx.mont_mul_vec(&a, &a));
        let (_, d2) = count::measure(|| ctx.mont_mul_vec(&a, &a));
        assert_eq!(d1, d2);
    }
}
