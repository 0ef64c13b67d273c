//! Vector-backend abstraction for the PhiOpenSSL kernels.
//!
//! The kernels in `phiopenssl` (core) are written once, over the lane
//! types [`V64`], [`V32`] and [`Mask8`], generically over a
//! [`VectorBackend`] that says how an issued instruction is accounted:
//!
//! * [`ModeledKnc`] — every lane method that models one IMCI instruction
//!   charges it to the thread-local KNC op counters of `phi-simd`, for
//!   deterministic per-instruction accounting. This is the repository's
//!   default mode.
//! * [`NativeX86`] — real host SIMD: the same lane loops, which the
//!   compiler auto-vectorizes to whatever the build targets, with no
//!   accounting. [`native_tier`] labels the SIMD level those loops run
//!   at (the lesser of the build's and the host's) for logs.
//!
//! There is one lane implementation, so the modeled count describes
//! exactly the code the native channel executes.
//!
//! Callers pick a backend with [`Backend`], through
//! `PhiConfig::builder().backend(...)` in the core crate (the default is
//! [`Backend::ModeledKnc`]), and kernels dispatch through the
//! [`with_backend!`] macro, which monomorphizes the generic body per
//! backend.

#![forbid(unsafe_code)]

mod lanes;
mod native;
mod traits;

pub use lanes::{Mask8, V32, V64};
pub use native::{native_tier, NativeTier, NativeX86};
pub use traits::{ModeledKnc, VectorBackend};

use std::fmt;

/// SIMD capabilities of the host, as probed at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// Compiled for (and running on) x86-64 at all.
    pub x86_64: bool,
    /// AVX2 available — the minimum for [`Backend::NativeX86`].
    pub avx2: bool,
    /// AVX-512 Foundation available.
    pub avx512f: bool,
    /// AVX-512 IFMA (52-bit integer FMA) available.
    pub avx512ifma: bool,
}

impl CpuFeatures {
    /// No capabilities at all (a non-x86 host, or for tests).
    pub const NONE: CpuFeatures = CpuFeatures {
        x86_64: false,
        avx2: false,
        avx512f: false,
        avx512ifma: false,
    };

    /// Probe the running host.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                x86_64: true,
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx512ifma: std::arch::is_x86_feature_detected!("avx512ifma"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures::NONE
        }
    }
}

impl fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.x86_64 {
            return write!(f, "non-x86_64");
        }
        write!(f, "x86_64")?;
        for (on, name) in [
            (self.avx2, "avx2"),
            (self.avx512f, "avx512f"),
            (self.avx512ifma, "avx512ifma"),
        ] {
            if on {
                write!(f, "+{name}")?;
            }
        }
        Ok(())
    }
}

/// A backend *request* — what the caller asks for in `PhiConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Prefer native SIMD when the host supports it (x86-64 with AVX2),
    /// otherwise fall back to the modeled backend.
    Auto,
    /// The modeled-KNC backend: deterministic instruction accounting,
    /// the repo default.
    #[default]
    ModeledKnc,
    /// The native x86 backend. Requires x86-64 with at least AVX2;
    /// request it through `PhiConfig::builder().backend(..)` to get a
    /// typed error instead of a panic when the host can't run it.
    NativeX86,
}

/// A backend request *after* `Auto` resolution — what engines store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolvedBackend {
    /// The modeled-KNC backend.
    #[default]
    ModeledKnc,
    /// The native x86 backend.
    NativeX86,
}

impl ResolvedBackend {
    /// Short stable name, matching [`VectorBackend::NAME`].
    pub fn name(self) -> &'static str {
        match self {
            ResolvedBackend::ModeledKnc => ModeledKnc::NAME,
            ResolvedBackend::NativeX86 => NativeX86::NAME,
        }
    }
}

impl fmt::Display for ResolvedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The requested backend cannot run on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendUnavailable {
    /// What was asked for.
    pub requested: Backend,
    /// What the host actually offers.
    pub detected: CpuFeatures,
}

impl fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend {:?} unavailable on this host (detected: {}); \
             use Backend::Auto or Backend::ModeledKnc",
            self.requested, self.detected
        )
    }
}

impl std::error::Error for BackendUnavailable {}

impl Backend {
    /// Short stable name of the request.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::ModeledKnc => ModeledKnc::NAME,
            Backend::NativeX86 => NativeX86::NAME,
        }
    }

    /// Check that this request can run given `detected` host features.
    ///
    /// `Auto` and `ModeledKnc` always succeed (the model runs anywhere);
    /// `NativeX86` needs x86-64 with at least AVX2.
    pub fn ensure_available(self, detected: &CpuFeatures) -> Result<(), BackendUnavailable> {
        match self {
            Backend::Auto | Backend::ModeledKnc => Ok(()),
            Backend::NativeX86 => {
                if detected.x86_64 && detected.avx2 {
                    Ok(())
                } else {
                    Err(BackendUnavailable {
                        requested: self,
                        detected: *detected,
                    })
                }
            }
        }
    }

    /// Resolve `Auto` against the running host. Infallible: an explicit
    /// `NativeX86` request resolves to `NativeX86` even on a host where
    /// [`ensure_available`](Backend::ensure_available) would refuse it —
    /// validation is the config layer's job; an unvalidated native
    /// backend still runs correctly, its lane loops need no AVX2.
    pub fn resolve(self) -> ResolvedBackend {
        match self {
            Backend::ModeledKnc => ResolvedBackend::ModeledKnc,
            Backend::NativeX86 => ResolvedBackend::NativeX86,
            Backend::Auto => {
                let features = CpuFeatures::detect();
                if features.x86_64 && features.avx2 {
                    ResolvedBackend::NativeX86
                } else {
                    ResolvedBackend::ModeledKnc
                }
            }
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Monomorphize a generic kernel body over a [`ResolvedBackend`] value.
///
/// ```
/// use phi_backend::{with_backend, ResolvedBackend, VectorBackend};
///
/// fn backend_name(rb: ResolvedBackend) -> &'static str {
///     with_backend!(rb, B => B::NAME)
/// }
/// assert_eq!(backend_name(ResolvedBackend::ModeledKnc), "modeled-knc");
/// assert_eq!(backend_name(ResolvedBackend::NativeX86), "native-x86");
/// ```
#[macro_export]
macro_rules! with_backend {
    ($backend:expr, $B:ident => $body:expr) => {
        match $backend {
            $crate::ResolvedBackend::ModeledKnc => {
                type $B = $crate::ModeledKnc;
                $body
            }
            $crate::ResolvedBackend::NativeX86 => {
                type $B = $crate::NativeX86;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_requests_resolve_to_themselves() {
        assert_eq!(Backend::ModeledKnc.resolve(), ResolvedBackend::ModeledKnc);
        assert_eq!(Backend::NativeX86.resolve(), ResolvedBackend::NativeX86);
    }

    #[test]
    fn auto_resolves_by_host_capability() {
        let features = CpuFeatures::detect();
        let resolved = Backend::Auto.resolve();
        if features.x86_64 && features.avx2 {
            assert_eq!(resolved, ResolvedBackend::NativeX86);
        } else {
            assert_eq!(resolved, ResolvedBackend::ModeledKnc);
        }
    }

    #[test]
    fn native_unavailable_without_avx2_is_a_typed_error() {
        let err = Backend::NativeX86.ensure_available(&CpuFeatures::NONE);
        let err = err.expect_err("no-feature host must refuse native");
        assert_eq!(err.requested, Backend::NativeX86);
        let msg = err.to_string();
        assert!(msg.contains("unavailable"), "got: {msg}");
        assert!(msg.contains("non-x86_64"), "got: {msg}");

        let sse_only = CpuFeatures {
            x86_64: true,
            ..CpuFeatures::NONE
        };
        assert!(Backend::NativeX86.ensure_available(&sse_only).is_err());
    }

    #[test]
    fn modeled_and_auto_are_always_available() {
        for b in [Backend::Auto, Backend::ModeledKnc] {
            assert!(b.ensure_available(&CpuFeatures::NONE).is_ok());
            assert!(b.ensure_available(&CpuFeatures::detect()).is_ok());
        }
    }

    #[test]
    fn names_round_trip_through_display() {
        for b in [Backend::Auto, Backend::ModeledKnc, Backend::NativeX86] {
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(ResolvedBackend::ModeledKnc.name(), ModeledKnc::NAME);
        assert_eq!(ResolvedBackend::NativeX86.name(), NativeX86::NAME);
    }

    #[test]
    fn with_backend_macro_monomorphizes_both_arms() {
        fn name(rb: ResolvedBackend) -> &'static str {
            with_backend!(rb, B => B::NAME)
        }
        assert_eq!(name(ResolvedBackend::ModeledKnc), "modeled-knc");
        assert_eq!(name(ResolvedBackend::NativeX86), "native-x86");
    }

    #[test]
    fn cpu_features_display_is_loggable() {
        let all = CpuFeatures {
            x86_64: true,
            avx2: true,
            avx512f: true,
            avx512ifma: true,
        };
        assert_eq!(all.to_string(), "x86_64+avx2+avx512f+avx512ifma");
        assert_eq!(CpuFeatures::NONE.to_string(), "non-x86_64");
    }
}
