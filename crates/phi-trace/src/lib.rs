//! Workspace-wide observability: cycle-accounted spans and the
//! machine-readable bench report format.
//!
//! The crate has two layers, bottom to top:
//!
//! * [`span()`] — a lightweight scoped-timer API. A [`SpanGuard`] charges
//!   the modeled KNC issue cycles (from [`phi_simd::count`]) and host
//!   wall time that elapse between its creation and drop to a named
//!   [`Scope`]. Attribution is *exclusive*: cycles spent inside a nested
//!   span are charged to the inner scope only, so the per-scope exclusive
//!   totals of any trace sum to the cycles of its outermost spans.
//!   Tracing is off by default and gated behind one relaxed atomic load,
//!   and spans never call [`phi_simd::count::record`], so modeled numbers
//!   are bit-identical with tracing on or off.
//! * [`report`] — the `phi-bench-report/v2` schema: per-experiment
//!   modeled cycles, modeled throughput, wall time and span breakdown,
//!   serialized through the dependency-free [`json`] module.
//!
//! The offload service's own telemetry is not here: each card worker
//! keeps a typed `phi_rt::ResilienceReport`, and a fleet hands them back
//! per card in its `FleetReport`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;
pub mod scope;
pub mod span;

pub use report::{ExperimentReport, Report, SpanReport, SCHEMA, SCHEMA_V1};
pub use scope::Scope;
pub use span::{
    disable, enable, is_enabled, reset, snapshot, span, unmeasured, SpanGuard, SpanStats,
    TraceSnapshot,
};
