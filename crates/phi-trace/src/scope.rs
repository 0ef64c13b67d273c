//! The closed set of named scopes spans can charge work to.
//!
//! A closed enum (rather than free-form strings) keeps the span fast
//! path allocation-free: each scope indexes a fixed row of atomics in
//! [`mod@crate::span`]'s global table.

/// Number of scopes in [`Scope::ALL`].
pub const NUM_SCOPES: usize = 17;

/// A named accounting scope for modeled-cycle and wall-time spans.
///
/// The set mirrors the hot paths of the KNC model: the vector multiply
/// and square kernels, Montgomery reduction and exponentiation (scalar
/// and vectorized), the 16-lane batch engine, CRT recombination, RSA
/// private ops, the batch service flush loop, pool tasks, handshakes,
/// and per-modulus context setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// 512-bit vectorized big-number multiply (`vec_mul`).
    VMul,
    /// Vectorized squaring (`vec_sqr`, SOS squaring).
    VSqr,
    /// Library-level big-number multiply (vector or scalar baseline).
    BigMul,
    /// Montgomery (or Barrett) modular reduction / multiply kernels.
    MontReduce,
    /// Scalar-engine modular exponentiation ladders (`mont_exp`).
    MontExp,
    /// Vectorized fixed-window exponentiation.
    VExpWindow,
    /// 16-lane batched Montgomery multiply.
    BatchMont,
    /// 16-lane batched exponentiation.
    BatchExp,
    /// CRT recombination (Garner) after the two half-size ladders.
    CrtRecombine,
    /// Per-modulus context setup (n', R² precomputation).
    CtxSetup,
    /// RSA private-key operation, end to end.
    RsaPrivate,
    /// One batch-service flush (executing a collected batch).
    ServiceFlush,
    /// One task executed on the modeled core pool.
    PoolTask,
    /// One full TLS handshake drive.
    Handshake,
    /// A retried card attempt after an injected fault (resilient path).
    FlushRetry,
    /// A request degraded to the host-scalar fallback path.
    HostFallback,
    /// Host-side verification of a card result before release (the
    /// cheap public-exponent check of the verified-offload layer).
    Verify,
}

impl Scope {
    /// Every scope, in table order.
    pub const ALL: [Scope; NUM_SCOPES] = [
        Scope::VMul,
        Scope::VSqr,
        Scope::BigMul,
        Scope::MontReduce,
        Scope::MontExp,
        Scope::VExpWindow,
        Scope::BatchMont,
        Scope::BatchExp,
        Scope::CrtRecombine,
        Scope::CtxSetup,
        Scope::RsaPrivate,
        Scope::ServiceFlush,
        Scope::PoolTask,
        Scope::Handshake,
        Scope::FlushRetry,
        Scope::HostFallback,
        Scope::Verify,
    ];

    /// Dense index of this scope into per-scope tables.
    pub const fn index(self) -> usize {
        match self {
            Scope::VMul => 0,
            Scope::VSqr => 1,
            Scope::BigMul => 2,
            Scope::MontReduce => 3,
            Scope::MontExp => 4,
            Scope::VExpWindow => 5,
            Scope::BatchMont => 6,
            Scope::BatchExp => 7,
            Scope::CrtRecombine => 8,
            Scope::CtxSetup => 9,
            Scope::RsaPrivate => 10,
            Scope::ServiceFlush => 11,
            Scope::PoolTask => 12,
            Scope::Handshake => 13,
            Scope::FlushRetry => 14,
            Scope::HostFallback => 15,
            Scope::Verify => 16,
        }
    }

    /// Stable snake-case name used in reports and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Scope::VMul => "vmul",
            Scope::VSqr => "vsqr",
            Scope::BigMul => "big_mul",
            Scope::MontReduce => "mont_reduce",
            Scope::MontExp => "mont_exp",
            Scope::VExpWindow => "vexp_window",
            Scope::BatchMont => "batch_mont",
            Scope::BatchExp => "batch_exp",
            Scope::CrtRecombine => "crt_recombine",
            Scope::CtxSetup => "ctx_setup",
            Scope::RsaPrivate => "rsa_private",
            Scope::ServiceFlush => "service_flush",
            Scope::PoolTask => "pool_task",
            Scope::Handshake => "handshake",
            Scope::FlushRetry => "flush_retry",
            Scope::HostFallback => "host_fallback",
            Scope::Verify => "verify",
        }
    }

    /// Inverse of [`Scope::name`].
    pub fn from_name(name: &str) -> Option<Scope> {
        Scope::ALL.into_iter().find(|s| s.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, s) in Scope::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i, "{}", s.name());
        }
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for s in Scope::ALL {
            assert_eq!(Scope::from_name(s.name()), Some(s));
        }
        let mut names: Vec<_> = Scope::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SCOPES);
        assert_eq!(Scope::from_name("nope"), None);
    }
}
