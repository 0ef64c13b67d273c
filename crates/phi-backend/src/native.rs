//! [`NativeX86`]: the real-hardware backend, and the SIMD level its
//! lane loops run at.
//!
//! The lane types ([`V64`](crate::V64), [`V32`](crate::V32),
//! [`Mask8`](crate::Mask8)) are shared with the modeled backend; on this
//! one their charges are inlined no-ops, so a kernel compiles to its
//! lane loops alone. The `lanes` module documents what keeps those loops
//! in registers.
//!
//! [`native_tier`] names the SIMD level the lane loops actually run at:
//! the lesser of what the build compiled them for
//! ([`NativeTier::compiled`]) and what the host offers
//! ([`NativeTier::detected`]). It is a label for logs and reports; it
//! selects nothing.

use crate::VectorBackend;
use phi_simd::count::OpClass;

/// The native execution backend: host SIMD, no instruction accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeX86;

impl VectorBackend for NativeX86 {
    const NAME: &'static str = "native-x86";

    #[inline(always)]
    fn record(_class: OpClass, _n: u64) {}
}

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

#[cfg(test)]
mod tests {
    use super::*;

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
