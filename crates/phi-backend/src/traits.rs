//! [`VectorBackend`]: what distinguishes the two backends, which is only
//! how an issued instruction is accounted. The lane types in `lanes`
//! are one implementation, parameterized by the backend.

use phi_simd::count::OpClass;
use std::fmt::Debug;

/// One vector execution backend: its name and its instruction-accounting
/// hook.
///
/// Every lane method that models an issued IMCI instruction, and every
/// scalar-glue or memory-traffic charge a kernel makes outside the lane
/// methods, calls [`record`](VectorBackend::record). On
/// [`ModeledKnc`] that increments the thread-local KNC op counters; on
/// [`NativeX86`](crate::NativeX86) it is an inlined no-op, so kernels
/// pay nothing for accounting at native speed.
///
/// The bounds let the lane types, which carry the backend as a
/// zero-sized marker, derive their `Copy`, `Eq` and `Debug`.
pub trait VectorBackend: Copy + Debug + Eq + 'static {
    /// Short stable name, e.g. `"modeled-knc"`.
    const NAME: &'static str;

    /// Record `n` operations of `class`.
    fn record(class: OpClass, n: u64);
}

/// The software-modeled KNC (IMCI) backend: the repository's default
/// execution mode, with deterministic per-op instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeledKnc;

impl VectorBackend for ModeledKnc {
    const NAME: &'static str = "modeled-knc";

    #[inline]
    fn record(class: OpClass, n: u64) {
        phi_simd::count::record(class, n);
    }
}
