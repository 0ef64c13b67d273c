//! # phi-faults
//!
//! The KNC card fault model for the PhiOpenSSL reproduction: a closed
//! taxonomy of coprocessor failure modes ([`FaultKind`]), deterministic
//! seedable fault schedules ([`FaultInjector`], [`FaultScript`]), a
//! card-health circuit breaker ([`CircuitBreaker`]), and capped
//! exponential retry backoff ([`BackoffPolicy`]).
//!
//! A real Xeon Phi deployment serving handshake traffic has to survive
//! more than a benchmark does: PCIe DMA transfers time out or deliver
//! corrupted payloads, the in-order cores occasionally hang a hardware
//! context, ECC scrubbing takes a lane out for a beat, and — rarest and
//! worst — the whole card resets and comes back cold. This crate models
//! those events *deterministically*: every fault a test or experiment
//! sees is a pure function of a seed and the draw sequence, so a failing
//! chaos run is reproducible from its printed seed.
//!
//! Nothing here is wired into a hot path by itself. The execution layer
//! (`phi_rt`'s card workers) accepts an
//! `Option<Arc<dyn FaultSource>>`; `None` (the default everywhere) costs
//! a single pointer check per flush, and the modeled operation counts
//! are untouched either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod fault;
pub mod injector;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use fault::FaultKind;
pub use injector::{correlated_reset_scripts, FaultInjector, FaultRates, FaultScript, FaultSource};
