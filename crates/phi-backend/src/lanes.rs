//! The lane types every kernel computes with: [`V64`] (eight 64-bit
//! lanes of a 512-bit register), [`V32`] (sixteen 32-bit lanes) and
//! [`Mask8`] (an eight-lane write mask).
//!
//! There is one implementation for both backends. Each type carries its
//! backend `B` as a zero-sized marker, and every method that models one
//! issued IMCI instruction first calls [`VectorBackend::record`] with
//! that instruction's class:
//!
//! | charge | methods |
//! |---|---|
//! | 1 `VMul` | [`V64::fma32`] |
//! | 1 `VAlu` | [`V64::add`], [`V64::sub`], [`V64::and`], [`V64::shr`], [`V64::shl`], [`V64::blend`] |
//! | 1 `VPerm` | [`V64::splat`], [`V64::shift_lanes_down`], [`V32::widen_lo`], [`V32::widen_hi`] |
//! | 1 `VMem` | [`V64::load`], [`V64::store`] |
//! | 1 `VMask` | [`Mask8::from_bits`] |
//! | free | [`V64::zero`], `from_lanes`, [`V64::from_slice_folded`], [`V64::to_lanes`], [`V64::lane`], [`V64::with_lane`], [`Mask8::lane`] |
//!
//! On [`ModeledKnc`](crate::ModeledKnc) a charge increments the
//! thread-local KNC op counters; on [`NativeX86`](crate::NativeX86) it is
//! an inlined no-op, so the native channel runs exactly the lane loops
//! the modeled channel counts.
//!
//! Every operation, the widening 32×32→64 multiply-accumulate
//! [`fma32`](V64::fma32) included, is a plain lane loop. LLVM lowers
//! those loops to the best SIMD the build targets: `vpmuludq`/`vpaddq`
//! on ymm in the default x86-64 build (`x86-64-v3`, set in the
//! repository's `.cargo/config.toml`), on zmm under
//! `RUSTFLAGS="-C target-cpu=native"` on an AVX-512 host. Hand-written
//! `core::arch` lowerings measured 0.4–0.9× of this loop end to end (a
//! `#[target_feature]` function cannot inline into callers built without
//! that feature, and inlined intrinsics fence the lanes through memory at
//! each op boundary), so there are none and the crate forbids `unsafe`.
//!
//! The lanes stay in registers across a kernel's loop only when these
//! things hold, and the objdump of the release build is the check:
//!
//! * **Fixed-width lane copies.** [`load`](V64::load),
//!   [`from_slice_folded`](V64::from_slice_folded) and
//!   [`store`](V64::store) copy one `[u64; 8]` chunk whenever the slice
//!   holds one (`first_chunk`), so LLVM sees a fixed 64-byte move it
//!   folds into the arithmetic. Only a slice shorter than 8 lanes takes
//!   the zero-padded lane-by-lane path. A `min(len, 8)`-lane
//!   `copy_from_slice` from an open-ended slice compiles to a libc
//!   `memcpy` call per chunk instead.
//! * **Accumulators that never escape the loop.** A kernel writes each
//!   finished accumulator into a preallocated slot (`cols[c] = (lo,
//!   hi)`), not through `Vec::push`, whose growth path is a call that
//!   keeps the accumulators in stack slots, reloaded and re-stored on
//!   every multiply-accumulate.
//! * **Loop bounds the compiler knows, operands held as values.** The
//!   single-op kernel (`VMontCtx`) keeps each row's accumulators, and
//!   the `B` and `N` chunks it loads once per call, in `[V; C]` arrays
//!   at the chunk counts of 512- and 1024-bit moduli, so the
//!   monomorphized row loop has constant bounds. At 1024 bits the three
//!   arrays are the planes of one 64-byte-aligned `[[V; 5]; 3]` value
//!   built inside the row function. And
//!   [`shift_lanes_down`](V64::shift_lanes_down) builds its result as
//!   one eight-lane array: a `copy_from_slice` of lanes 1–7 compiled to
//!   a memory-to-memory copy whose 32-byte load spans the two stores the
//!   row had just made, which the CPU cannot forward. Over a heap `Vec`
//!   re-sliced per chunk, LLVM also narrowed each folded operand load to
//!   half width. Either change alone gained a few percent at most;
//!   together they keep the array rows' lanes in registers or in stack
//!   slots of their own.
//!
//! In the default build, the generated kernel's column loops then hold
//! their four ymm accumulators in registers, and no kernel loop calls
//! `memcpy`. The single-op kernel's 5-chunk row holds its accumulators
//! in ymm registers and reads `B` and `N` as `vpmuludq` memory operands
//! from the planes value: 18 ymm `vpmuludq` and 8 scalar `imul` lane
//! products. Its 3-chunk row makes no call and reads back no vector
//! stored in pieces, but LLVM splits half of its accumulators into
//! scalar lanes (6 ymm `vpmuludq`, 24 scalar `imul` lane products); in
//! planes that row compiled to scalar lanes only. Its rows at every
//! other chunk count keep their accumulators in a heap `Vec`, and those
//! still stall: each row's `q·N` pass reads lanes 1–4 of a chunk across
//! the two 32-byte stores its `a·B` pass has just made.

#![allow(clippy::needless_range_loop)] // explicit lane indices read as lane semantics
#![allow(clippy::should_implement_trait)] // methods mirror IMCI mnemonics (add/sub/shl/shr)

use crate::VectorBackend;
use phi_simd::count::OpClass;
use std::marker::PhantomData;

/// Eight 64-bit lanes of a 512-bit register, the accumulator shape of
/// every kernel. Lane arithmetic wraps, like the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V64<B>([u64; 8], PhantomData<B>);

/// Sixteen 32-bit lanes of a 512-bit register, the transposed layout of
/// the 16-way batched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V32<B>([u32; 16], PhantomData<B>);

/// An eight-lane write mask (one bit per 64-bit lane), as the
/// constant-time table gather blends under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask8<B>(u8, PhantomData<B>);

impl<B: VectorBackend> Mask8<B> {
    /// The mask whose lane `i` is set where bit `i` of `bits` is
    /// (`kmov`).
    #[inline(always)]
    pub fn from_bits(bits: u8) -> Self {
        B::record(OpClass::VMask, 1);
        Mask8(bits, PhantomData)
    }

    /// Lane `i` enabled? (free)
    #[inline(always)]
    pub fn lane(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }
}

impl<B: VectorBackend> V64<B> {
    /// All lanes zero (free).
    #[inline(always)]
    pub fn zero() -> Self {
        Self::from_lanes([0; 8])
    }

    /// Broadcast one value to all lanes (`vpbroadcastq`).
    #[inline(always)]
    pub fn splat(v: u64) -> Self {
        B::record(OpClass::VPerm, 1);
        Self::from_lanes([v; 8])
    }

    /// Load 8 lanes from a slice prefix, zero-padding a slice shorter
    /// than 8 (a masked load).
    #[inline(always)]
    pub fn load(src: &[u64]) -> Self {
        B::record(OpClass::VMem, 1);
        Self::from_slice_folded(src)
    }

    /// Store the lanes to a slice prefix: all 8, or as many as a shorter
    /// slice holds.
    #[inline(always)]
    pub fn store(self, dst: &mut [u64]) {
        B::record(OpClass::VMem, 1);
        match dst.first_chunk_mut::<8>() {
            Some(chunk) => *chunk = self.0,
            None => dst.iter_mut().zip(self.0).for_each(|(d, s)| *d = s),
        }
    }

    /// Construct from a lane array (free register plumbing).
    ///
    /// KNC folds one memory source operand into an arithmetic
    /// instruction, so an operand consumed by [`fma32`](Self::fma32)
    /// costs no separate load. Use [`load`](Self::load) where the kernel
    /// issues an explicit load (table gathers, memory accumulators).
    #[inline(always)]
    pub fn from_lanes(lanes: [u64; 8]) -> Self {
        V64(lanes, PhantomData)
    }

    /// Construct from a slice prefix, as [`load`](Self::load) does, but
    /// without charging a load: for operands that fold into the
    /// arithmetic (see [`from_lanes`](Self::from_lanes)).
    #[inline(always)]
    pub fn from_slice_folded(src: &[u64]) -> Self {
        match src.first_chunk::<8>() {
            Some(chunk) => Self::from_lanes(*chunk),
            None => Self::from_lanes(std::array::from_fn(|i| src.get(i).copied().unwrap_or(0))),
        }
    }

    /// The lane array (free).
    #[inline(always)]
    pub fn to_lanes(self) -> [u64; 8] {
        self.0
    }

    /// Read one lane (free).
    #[inline(always)]
    pub fn lane(self, i: usize) -> u64 {
        self.0[i]
    }

    /// Replace one lane (free register plumbing, used at loop edges).
    #[inline(always)]
    pub fn with_lane(mut self, i: usize, v: u64) -> Self {
        self.0[i] = v;
        self
    }

    /// Lane-wise wrapping addition (`vpaddq`).
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        Self::from_lanes(out)
    }

    /// Lane-wise wrapping subtraction (`vpsubq`).
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_sub(rhs.0[i]);
        }
        Self::from_lanes(out)
    }

    /// Lane-wise AND (`vpandq`).
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] & rhs.0[i];
        }
        Self::from_lanes(out)
    }

    /// Lane-wise logical right shift by an immediate (`vpsrlq`).
    #[inline(always)]
    pub fn shr(self, n: u32) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] >> n;
        }
        Self::from_lanes(out)
    }

    /// Lane-wise left shift by an immediate (`vpsllq`).
    #[inline(always)]
    pub fn shl(self, n: u32) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] << n;
        }
        Self::from_lanes(out)
    }

    /// Widening multiply-accumulate: `self + a·b` lane-wise over the
    /// **low 32 bits** of each lane of `a` and `b` (`vpmuludq`/`vpmadd`
    /// shaped), the workhorse of the reduced-radix kernels.
    ///
    /// The kernels guarantee the accumulation cannot wrap; a debug
    /// assertion checks that contract.
    //
    // `#[inline]`, where every other method is `#[inline(always)]`: with
    // its charge forced inline as well, LLVM kept the 3-chunk single-op
    // row in scalar lanes (283 against 207 ns per 512-bit product, no
    // ymm `vpmuludq`). As a plain inline it compiles to the rows of the
    // backend-specific copy it replaces.
    #[inline]
    pub fn fma32(self, a: Self, b: Self) -> Self {
        B::record(OpClass::VMul, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            let p = (a.0[i] & 0xFFFF_FFFF).wrapping_mul(b.0[i] & 0xFFFF_FFFF);
            debug_assert!(
                self.0[i].checked_add(p).is_some(),
                "fma32 accumulator overflow in lane {i}"
            );
            out[i] = self.0[i].wrapping_add(p);
        }
        Self::from_lanes(out)
    }

    /// Masked blend: the lane from `other` where the mask is set, else
    /// from `self` (a masked `vmovdqa64`).
    #[inline(always)]
    pub fn blend(self, mask: Mask8<B>, other: Self) -> Self {
        B::record(OpClass::VAlu, 1);
        let mut out = self.0;
        for i in 0..8 {
            if mask.lane(i) {
                out[i] = other.0[i];
            }
        }
        Self::from_lanes(out)
    }

    /// Shift all lanes one position toward lane 0, inserting `fill` in
    /// the top lane (`valignq`-shaped): the Montgomery digit shift.
    #[inline(always)]
    pub fn shift_lanes_down(self, fill: u64) -> Self {
        B::record(OpClass::VPerm, 1);
        let a = self.0;
        Self::from_lanes([a[1], a[2], a[3], a[4], a[5], a[6], a[7], fill])
    }
}

impl<B: VectorBackend> V32<B> {
    /// Construct from a lane array (free register plumbing).
    #[inline(always)]
    pub fn from_lanes(lanes: [u32; 16]) -> Self {
        V32(lanes, PhantomData)
    }

    /// Zero-extend the low eight lanes to 64 bits (`vpmovzxdq`-shaped
    /// swizzle).
    #[inline(always)]
    pub fn widen_lo(self) -> V64<B> {
        B::record(OpClass::VPerm, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] as u64;
        }
        V64::from_lanes(out)
    }

    /// Zero-extend the high eight lanes to 64 bits.
    #[inline(always)]
    pub fn widen_hi(self) -> V64<B> {
        B::record(OpClass::VPerm, 1);
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i + 8] as u64;
        }
        V64::from_lanes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModeledKnc, NativeX86};
    use phi_simd::count::{self, OpCounts};
    use std::hint::black_box;

    type Op = Box<dyn Fn()>;

    /// A boxed closure that evaluates one lane method.
    macro_rules! op {
        ($e:expr) => {
            Box::new(move || {
                black_box($e);
            }) as Op
        };
    }

    /// Every lane method, run once, with the one class it charges (or
    /// `None` for free register plumbing): the accounting contract.
    fn charges<B: VectorBackend>() -> Vec<(&'static str, Option<OpClass>, Op)> {
        let v = V64::<B>::from_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        let w = V32::<B>::from_lanes([7; 16]);
        let m = Mask8::<B>(0b1010_0101, PhantomData);
        let src = [9u64; 8];
        vec![
            ("fma32", Some(OpClass::VMul), op!(v.fma32(v, v))),
            ("add", Some(OpClass::VAlu), op!(v.add(v))),
            ("sub", Some(OpClass::VAlu), op!(v.sub(v))),
            ("and", Some(OpClass::VAlu), op!(v.and(v))),
            ("shr", Some(OpClass::VAlu), op!(v.shr(3))),
            ("shl", Some(OpClass::VAlu), op!(v.shl(3))),
            ("blend", Some(OpClass::VAlu), op!(v.blend(m, v))),
            ("splat", Some(OpClass::VPerm), op!(V64::<B>::splat(5))),
            (
                "shift_lanes_down",
                Some(OpClass::VPerm),
                op!(v.shift_lanes_down(0)),
            ),
            ("widen_lo", Some(OpClass::VPerm), op!(w.widen_lo())),
            ("widen_hi", Some(OpClass::VPerm), op!(w.widen_hi())),
            ("load", Some(OpClass::VMem), op!(V64::<B>::load(&src))),
            ("store", Some(OpClass::VMem), op!(v.store(&mut [0; 8]))),
            (
                "Mask8::from_bits",
                Some(OpClass::VMask),
                op!(Mask8::<B>::from_bits(3)),
            ),
            ("zero", None, op!(V64::<B>::zero())),
            ("V64::from_lanes", None, op!(V64::<B>::from_lanes([4; 8]))),
            ("V32::from_lanes", None, op!(V32::<B>::from_lanes([4; 16]))),
            (
                "from_slice_folded",
                None,
                op!(V64::<B>::from_slice_folded(&src)),
            ),
            ("to_lanes", None, op!(v.to_lanes())),
            ("lane", None, op!(v.lane(2))),
            ("with_lane", None, op!(v.with_lane(2, 0))),
            ("Mask8::lane", None, op!(m.lane(2))),
        ]
    }

    #[test]
    fn each_method_charges_its_class_on_the_modeled_backend_and_nothing_on_native() {
        for (name, class, op) in charges::<ModeledKnc>() {
            let ((), got) = count::measure(op);
            let mut want = OpCounts::zero();
            if let Some(class) = class {
                want.set(class, 1);
            }
            assert_eq!(got, want, "{name} on {}", ModeledKnc::NAME);
        }
        for (name, _, op) in charges::<NativeX86>() {
            let ((), got) = count::measure(op);
            assert_eq!(got, OpCounts::zero(), "{name} on {}", NativeX86::NAME);
        }
    }

    #[test]
    fn lane_copies_take_a_zero_padded_prefix() {
        // Short slices, exactly one chunk, and longer slices: loads take
        // a zero-padded prefix of at most 8 lanes, and a store writes
        // only the prefix it covers.
        let src: Vec<u64> = (1..=16).collect();
        let v = V64::<NativeX86>::from_lanes(std::array::from_fn(|i| 100 + i as u64));
        for len in 0..=16 {
            let s = &src[..len];
            let n = len.min(8);
            let mut want = [0u64; 8];
            want[..n].copy_from_slice(&s[..n]);
            assert_eq!(
                V64::<NativeX86>::load(s).to_lanes(),
                want,
                "load, {len} lanes"
            );
            assert_eq!(
                V64::<ModeledKnc>::from_slice_folded(s).to_lanes(),
                want,
                "folded, {len} lanes"
            );

            let mut dst = vec![7u64; len];
            v.store(&mut dst);
            assert_eq!(dst[..n], v.to_lanes()[..n], "store writes the prefix");
            assert!(dst[n..].iter().all(|&x| x == 7), "store leaves the rest");
        }
    }

    #[test]
    fn fma32_takes_the_largest_kernel_products_without_wrapping() {
        // 28-bit digits, and an accumulator that ends exactly at 2^64 − 1.
        let d = (1u64 << 28) - 1;
        let acc = V64::<ModeledKnc>::splat(u64::MAX - d * d);
        let r = acc.fma32(V64::splat(d), V64::splat(d));
        assert_eq!(r.to_lanes(), [u64::MAX; 8]);
    }

    /// One lane product past the top of the accumulator.
    fn wrap_the_accumulator<B: VectorBackend>() -> V64<B> {
        V64::<B>::splat(u64::MAX).fma32(V64::splat(1), V64::splat(1))
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fma32 accumulator overflow in lane 0")]
    fn fma32_wrap_panics_in_debug_builds_on_the_modeled_backend() {
        wrap_the_accumulator::<ModeledKnc>();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fma32 accumulator overflow in lane 0")]
    fn fma32_wrap_panics_in_debug_builds_on_the_native_backend() {
        wrap_the_accumulator::<NativeX86>();
    }
}
