//! # phi-rt
//!
//! The execution model of the Xeon Phi card for the PhiOpenSSL
//! reproduction: a thread pool with *simulated* core/SMT placement
//! ([`pool`]), the host↔device offload cost model ([`offload`]), and
//! one offload service path — the deadline-driven batch collector
//! ([`service`]), the fault-tolerant flush ladder every flush runs
//! through ([`resilient`]), its verify-on-release hooks ([`verify`]),
//! and the card workers that own both ([`fleet`], one card or many) —
//! plus latency/throughput aggregation ([`stats`]).
//!
//! Real KNC cards expose 240 hardware threads over 60 in-order cores and
//! are fed over PCIe. This crate runs the work for real on host threads
//! (so results are correct and wall-clock is measurable) while tracking the
//! per-thread instruction counts that the KNC cost model turns into
//! *modeled* card throughput under a chosen affinity
//! ([`AffinityPolicy::Compact`] / [`AffinityPolicy::Scatter`]) — the thread
//! scaling experiment E5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod offload;
pub mod pool;
pub mod resilient;
pub mod service;
pub mod stats;
pub mod verify;

pub use fleet::{
    key_fingerprint, CardSetup, FleetConfig, FleetReport, FleetRouter, FleetScheduler,
    RoutingPolicy,
};
pub use offload::{OffloadBatcher, OffloadModel};
pub use pool::{AffinityPolicy, BatchReport, PhiPool};
pub use resilient::{OffloadError, ResilienceConfig, ResilientHandle};
pub use service::{Batch, Collector, FlushReason, ServiceConfig, SubmitError, Ticket, BATCH_WIDTH};
pub use stats::{FlushRecord, ResilienceReport, ServiceReport, Summary};
pub use verify::{IntegrityHooks, LaneQuarantine, QuarantineConfig};
