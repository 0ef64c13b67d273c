//! # phi-simd
//!
//! Instruction counting and the KNC cycle-cost model for the Intel Xeon
//! Phi *Knights Corner* (KNC) reproduction of PhiOpenSSL.
//!
//! KNC hardware is discontinued and its IMCI ISA was never merged into
//! mainline compilers, so the reproduction measures the card by counting
//! instructions:
//!
//! 1. **Counting**: the kernels' lane types (`V64`, `V32`, `Mask8` in
//!    `phi-backend`) charge each modeled IMCI instruction to a
//!    thread-local counter for its operation class (see [`count`]), and
//!    the scalar baselines charge their scalar operations the same way.
//! 2. **Costing**: the [`cost`] module converts those deterministic
//!    counts into **modeled KNC cycles** using published KNC
//!    micro-architecture parameters (in-order core, one 512-bit vector op
//!    per cycle, a single thread can issue a vector op only every other
//!    cycle, 1.053 GHz), and [`knc`] models the card's cores. The
//!    benchmark harness reports modeled cycles, and the paper's speedup
//!    *ratios* are expected to reproduce in that channel; host wall clock
//!    is the repository benchmark's (`perfbench/`).
//!
//! The scalar operation classes ([`count::OpClass::SMul64`] etc.) are used
//! by the scalar baseline libraries in `phi-mont` so that all three
//! libraries are measured through one counting infrastructure.
//!
//! ## Example
//!
//! ```
//! use phi_simd::{count, CostModel, OpClass};
//!
//! count::reset();
//! // Two broadcasts (VPerm) and one lane-wise add (VAlu), as a kernel's
//! // lane methods would charge them.
//! count::record(OpClass::VPerm, 2);
//! count::record(OpClass::VAlu, 1);
//! let snap = count::snapshot();
//! assert_eq!(snap.get(OpClass::VAlu), 1);
//! assert_eq!(snap.total_vector_ops(), 3);
//! assert!(CostModel::knc().issue_cycles(&snap) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod count;
pub mod knc;

pub use cost::{CostModel, CycleReport};
pub use count::{measure, OpClass, OpCounts};
pub use knc::KncMachine;
