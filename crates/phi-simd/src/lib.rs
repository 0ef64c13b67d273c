//! # phi-simd
//!
//! A software model of the Intel Xeon Phi *Knights Corner* (KNC) 512-bit
//! IMCI vector instruction set, built for the PhiOpenSSL reproduction.
//!
//! KNC hardware is discontinued and its IMCI ISA was never merged into
//! mainline compilers, so this crate substitutes for it in two ways:
//!
//! 1. **Functional**: [`U32x16`] and [`U64x8`] execute IMCI-shaped lane
//!    operations (broadcast, lane-wise arithmetic, widening multiplies,
//!    write-masked blends, permutes) in portable Rust, so the vectorized
//!    PhiOpenSSL kernels run — and can be tested bit-exactly — on any host.
//! 2. **Performance**: every vector operation increments a thread-local
//!    counter for its operation class (see [`count`]). The [`cost`] module
//!    converts those deterministic counts into **modeled KNC cycles** using
//!    published KNC micro-architecture parameters (in-order core, one
//!    512-bit vector op per cycle, a single thread can issue a vector op
//!    only every other cycle, 1.053 GHz). The benchmark harness reports
//!    modeled cycles, and the paper's speedup *ratios* are expected to
//!    reproduce in that channel; host wall clock is the repository
//!    benchmark's (`perfbench/`).
//!
//! The scalar operation classes ([`count::OpClass::SMul64`] etc.) are used
//! by the scalar baseline libraries in `phi-mont` so that all three
//! libraries are measured through one counting infrastructure.
//!
//! ## Example
//!
//! ```
//! use phi_simd::{U32x16, count};
//!
//! count::reset();
//! let a = U32x16::splat(3);
//! let b = U32x16::splat(4);
//! let c = a.add(b);
//! assert_eq!(c.lane(0), 7);
//! let snap = count::snapshot();
//! // Two broadcasts (VPerm) plus one lane-wise add (VAlu) were issued.
//! assert_eq!(snap.get(count::OpClass::VAlu), 1);
//! assert_eq!(snap.total_vector_ops(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod count;
pub mod knc;
pub mod mask;
pub mod vector;

pub use cost::{CostModel, CycleReport};
pub use count::{measure, OpClass, OpCounts};
pub use knc::KncMachine;
pub use mask::{Mask16, Mask8};
pub use vector::{U32x16, U64x8};
