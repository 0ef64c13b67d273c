//! # phi-rt
//!
//! The execution model of the Xeon Phi card for the PhiOpenSSL
//! reproduction: a thread pool that sums each worker's modeled op counts
//! ([`pool`]) and one offload service path — the work-conserving batch
//! collector ([`service`]), the fault-tolerant flush ladder every flush
//! runs through ([`resilient`]), its verify-on-release hooks ([`verify`]),
//! and the card workers that own both ([`fleet`], one card or many) —
//! plus the per-flush records and per-card reports they fill ([`stats`]).
//!
//! Real KNC cards expose 240 hardware threads over 60 in-order cores and
//! are fed over PCIe. This crate runs the work for real on host threads
//! (so results are correct and wall-clock is measurable) while tracking the
//! instruction counts that the KNC cost model turns into *modeled* card
//! time. Thread placement (compact or scatter over the 60 cores) is priced
//! by `phi_simd::KncMachine::throughput`, which the thread-scaling
//! experiment E5 calls directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod pool;
pub mod resilient;
pub mod service;
pub mod stats;
pub mod verify;

pub use fleet::{
    key_fingerprint, CardSetup, FleetConfig, FleetReport, FleetRouter, FleetScheduler,
    RoutingPolicy,
};
pub use pool::{BatchReport, PhiPool};
pub use resilient::{OffloadError, ResilienceConfig, ResilientHandle};
pub use service::{Batch, Collector, FlushReason, ServiceConfig, SubmitError, BATCH_WIDTH};
pub use stats::{FlushRecord, ResilienceReport, ServiceReport};
pub use verify::{IntegrityHooks, LaneQuarantine, QuarantineConfig};
