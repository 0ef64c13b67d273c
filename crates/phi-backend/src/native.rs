//! [`NativeX86`]: the real-hardware backend.
//!
//! Lane types are plain arrays and every lane operation, the widening
//! 32×32→64 multiply-accumulate [`fma32`](crate::Vector64::fma32)
//! included, is a plain lane loop. LLVM lowers those loops to the best
//! SIMD the build targets: `vpmuludq`/`vpaddq` on ymm in the default
//! x86-64 build (`x86-64-v3`, set in the repository's
//! `.cargo/config.toml`), on zmm under `RUSTFLAGS="-C target-cpu=native"`
//! on an AVX-512 host. Hand-written `core::arch` lowerings measured
//! 0.4–0.9× of this loop end to end (a `#[target_feature]` function
//! cannot inline into callers built without that feature, and inlined
//! intrinsics fence the lanes through memory at each op boundary), so
//! the backend has none and the crate forbids `unsafe`.
//!
//! The lanes stay in registers across a kernel's loop only when two
//! things hold, and the objdump of the release build is the check:
//!
//! * **Fixed-width lane copies.** [`load`](crate::Vector64::load),
//!   [`from_slice_folded`](crate::Vector64::from_slice_folded) and
//!   [`store`](crate::Vector64::store) copy one `[u64; 8]` chunk
//!   whenever the slice holds one (`first_chunk`), so LLVM sees a
//!   fixed 64-byte move it folds into the arithmetic. Only a slice
//!   shorter than 8 lanes takes the zero-padded lane-by-lane path. A
//!   `min(len, 8)`-lane `copy_from_slice` from an open-ended slice
//!   compiles to a libc `memcpy` call per chunk instead.
//! * **Accumulators that never escape the loop.** A kernel writes each
//!   finished accumulator into a preallocated slot (`cols[c] = (lo,
//!   hi)`), not through `Vec::push`, whose growth path is a call that
//!   keeps the accumulators in stack slots, reloaded and re-stored on
//!   every multiply-accumulate.
//!
//! In the default build, the generated kernel's column loops then hold
//! their four ymm accumulators in registers, and neither kernel's
//! loops call `memcpy`.
//!
//! [`native_tier`] names the SIMD level the lane loops actually run at:
//! the lesser of what the build compiled them for
//! ([`NativeTier::compiled`]) and what the host offers
//! ([`NativeTier::detected`]). It is a label for logs and reports; it
//! selects nothing.

#![allow(clippy::needless_range_loop)] // explicit lane indices read as lane semantics

use crate::traits::{LaneMask8, Vector32, Vector64, VectorBackend};
use phi_simd::count::OpClass;

/// The native execution backend: host SIMD, no instruction accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeX86;

/// Eight 64-bit lanes as a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NV64(pub [u64; 8]);

/// Sixteen 32-bit lanes as a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NV32(pub [u32; 16]);

/// An 8-lane bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NMask8(pub u8);

/// A SIMD level, best last: a label for logs and reports (see
/// [`native_tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NativeTier {
    /// No AVX2 (or not x86-64).
    Scalar = 0,
    /// AVX2.
    Avx2 = 1,
    /// AVX-512 Foundation.
    Avx512 = 2,
    /// AVX-512 IFMA.
    Avx512Ifma = 3,
}

impl NativeTier {
    /// Short stable name (logged by the bench harness and CI).
    pub fn name(self) -> &'static str {
        match self {
            NativeTier::Scalar => "scalar",
            NativeTier::Avx2 => "avx2",
            NativeTier::Avx512 => "avx512",
            NativeTier::Avx512Ifma => "avx512-ifma",
        }
    }

    /// The best tier a feature set reaches.
    fn of(features: &crate::CpuFeatures) -> NativeTier {
        if features.avx512ifma {
            NativeTier::Avx512Ifma
        } else if features.avx512f {
            NativeTier::Avx512
        } else if features.avx2 {
            NativeTier::Avx2
        } else {
            NativeTier::Scalar
        }
    }

    /// The tier this build compiles the lane loops for: the
    /// `target_feature`s its flags enable, not the host's.
    pub fn compiled() -> NativeTier {
        NativeTier::of(&crate::CpuFeatures {
            x86_64: cfg!(target_arch = "x86_64"),
            avx2: cfg!(target_feature = "avx2"),
            avx512f: cfg!(target_feature = "avx512f"),
            avx512ifma: cfg!(target_feature = "avx512ifma"),
        })
    }

    /// The host's tier, from [`CpuFeatures::detect`](crate::CpuFeatures::detect).
    pub fn detected() -> NativeTier {
        NativeTier::of(&crate::CpuFeatures::detect())
    }
}

/// The tier the native lane loops run at: the lesser of the build's
/// ([`NativeTier::compiled`]) and the host's ([`NativeTier::detected`]).
pub fn native_tier() -> NativeTier {
    NativeTier::compiled().min(NativeTier::detected())
}

#[inline]
fn fma32_scalar(acc: [u64; 8], a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..8 {
        let p = (a[i] & 0xFFFF_FFFF).wrapping_mul(b[i] & 0xFFFF_FFFF);
        out[i] = acc[i].wrapping_add(p);
    }
    out
}

impl LaneMask8 for NMask8 {
    #[inline(always)]
    fn all() -> Self {
        NMask8(u8::MAX)
    }
    #[inline(always)]
    fn none() -> Self {
        NMask8(0)
    }
    #[inline(always)]
    fn lane(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }
}

impl Vector64 for NV64 {
    type Mask = NMask8;

    #[inline(always)]
    fn zero() -> Self {
        NV64([0; 8])
    }
    #[inline(always)]
    fn splat(v: u64) -> Self {
        NV64([v; 8])
    }
    #[inline(always)]
    fn load(src: &[u64]) -> Self {
        Self::from_slice_folded(src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [u64]) {
        match dst.first_chunk_mut::<8>() {
            Some(chunk) => *chunk = self.0,
            None => dst.iter_mut().zip(self.0).for_each(|(d, s)| *d = s),
        }
    }
    #[inline(always)]
    fn from_lanes(lanes: [u64; 8]) -> Self {
        NV64(lanes)
    }
    #[inline(always)]
    fn from_slice_folded(src: &[u64]) -> Self {
        match src.first_chunk::<8>() {
            Some(chunk) => NV64(*chunk),
            None => NV64(std::array::from_fn(|i| src.get(i).copied().unwrap_or(0))),
        }
    }
    #[inline(always)]
    fn to_lanes(self) -> [u64; 8] {
        self.0
    }
    #[inline(always)]
    fn lane(self, i: usize) -> u64 {
        self.0[i]
    }
    #[inline(always)]
    fn with_lane(mut self, i: usize, v: u64) -> Self {
        self.0[i] = v;
        self
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        NV64(out)
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i].wrapping_sub(rhs.0[i]);
        }
        NV64(out)
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] & rhs.0[i];
        }
        NV64(out)
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] >> n;
        }
        NV64(out)
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] << n;
        }
        NV64(out)
    }
    #[inline(always)]
    fn fma32(self, a: Self, b: Self) -> Self {
        NV64(fma32_scalar(self.0, a.0, b.0))
    }
    #[inline(always)]
    fn blend(self, mask: NMask8, other: Self) -> Self {
        let mut out = self.0;
        for i in 0..8 {
            if mask.lane(i) {
                out[i] = other.0[i];
            }
        }
        NV64(out)
    }
    #[inline(always)]
    fn shift_lanes_down(self, fill: u64) -> Self {
        let mut out = [0u64; 8];
        out[..7].copy_from_slice(&self.0[1..]);
        out[7] = fill;
        NV64(out)
    }
}

impl Vector32 for NV32 {
    type Wide = NV64;

    #[inline(always)]
    fn from_lanes(lanes: [u32; 16]) -> Self {
        NV32(lanes)
    }
    #[inline(always)]
    fn to_lanes(self) -> [u32; 16] {
        self.0
    }
    #[inline(always)]
    fn lane(self, i: usize) -> u32 {
        self.0[i]
    }
    #[inline(always)]
    fn widen_lo(self) -> NV64 {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i] as u64;
        }
        NV64(out)
    }
    #[inline(always)]
    fn widen_hi(self) -> NV64 {
        let mut out = [0u64; 8];
        for i in 0..8 {
            out[i] = self.0[i + 8] as u64;
        }
        NV64(out)
    }
}

impl VectorBackend for NativeX86 {
    const NAME: &'static str = "native-x86";
    type V64 = NV64;
    type V32 = NV32;
    type M8 = NMask8;

    #[inline(always)]
    fn record(_class: OpClass, _n: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::U64x8;

    #[test]
    fn fma32_matches_contract() {
        let acc = [10u64; 8];
        let a = [(1u64 << 35) | 3; 8]; // low 32 bits = 3
        let b = [4u64; 8];
        assert_eq!(NV64(acc).fma32(NV64(a), NV64(b)).0, [22u64; 8]);
    }

    #[test]
    fn native_vector_ops_match_lane_semantics() {
        let a = NV64([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.shift_lanes_down(99).0, [2, 3, 4, 5, 6, 7, 8, 99]);
        assert_eq!(a.with_lane(0, 42).lane(0), 42);
        assert_eq!(NV64::splat(u64::MAX).add(NV64::splat(1)), NV64::zero());
        assert_eq!(a.shl(1).shr(1), a);
        let m = NMask8(0b0000_1111);
        let blended = NV64::splat(1).blend(m, NV64::splat(2));
        assert_eq!(blended.0, [2, 2, 2, 2, 1, 1, 1, 1]);
        let v32 = NV32::from_lanes(std::array::from_fn(|i| i as u32));
        assert_eq!(v32.widen_lo().0, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(v32.widen_hi().0, [8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn lane_copies_match_the_modeled_register() {
        // Short slices, exactly one chunk, and longer slices: loads take
        // a zero-padded prefix of at most 8 lanes, and a store writes
        // only the prefix it covers, exactly as the modeled register does.
        let src: Vec<u64> = (1..=16).collect();
        let v = NV64(std::array::from_fn(|i| 100 + i as u64));
        for len in 0..=16 {
            let s = &src[..len];
            let n = len.min(8);
            let mut want = [0u64; 8];
            want[..n].copy_from_slice(&s[..n]);
            assert_eq!(NV64::load(s).0, want, "load, {len} lanes");
            assert_eq!(NV64::from_slice_folded(s).0, want, "folded, {len} lanes");
            assert_eq!(U64x8::load(s).0, want, "modeled load, {len} lanes");
            assert_eq!(
                U64x8::from_slice_folded(s).0,
                want,
                "modeled folded, {len} lanes"
            );

            let mut native = vec![7u64; len];
            let mut modeled = native.clone();
            v.store(&mut native);
            U64x8(v.0).store(&mut modeled);
            assert_eq!(native, modeled, "store, {len} lanes");
            assert_eq!(native[..n], v.0[..n], "store writes the prefix");
            assert!(native[n..].iter().all(|&x| x == 7), "store leaves the rest");
        }
    }

    #[test]
    fn tier_is_the_lesser_of_build_and_host() {
        let t = native_tier();
        let (built, host) = (NativeTier::compiled(), NativeTier::detected());
        assert!(t <= built && t <= host);
        assert_eq!(t, built.min(host));
        assert_eq!(built >= NativeTier::Avx2, cfg!(target_feature = "avx2"));
        let features = crate::CpuFeatures::detect();
        assert_eq!(host >= NativeTier::Avx2, features.avx2 || features.avx512f);
        assert_eq!(host == NativeTier::Avx512Ifma, features.avx512ifma);
    }
}
