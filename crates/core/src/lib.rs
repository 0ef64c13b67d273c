//! # phiopenssl
//!
//! The paper's contribution: SIMD-vectorized big-integer and Montgomery
//! arithmetic for RSA, targeting the (modeled) Xeon Phi KNC 512-bit vector
//! unit, with Chinese-Remainder-Theorem private-key operations and
//! fixed-window exponentiation.
//!
//! ## Architecture
//!
//! * [`radix`] — the reduced-radix representation: integers as radix-2^27
//!   digits so that lane products accumulate in 64-bit lanes without the
//!   carry chains SIMD cannot express (KNC's IMCI has no vector
//!   add-with-carry).
//! * [`vmul`] — vectorized schoolbook multiplication: each row broadcasts
//!   one digit of `a` and retires sixteen digit-products of `b` per
//!   512-bit multiply-accumulate.
//! * [`vmont`] — [`VMontCtx`]: vectorized Montgomery multiplication (CIOS
//!   with per-row reduction; rows scalar, columns vectorized).
//! * [`vexp`] — fixed-window Montgomery exponentiation over the vector
//!   kernel, with an optional constant-time table gather.
//! * [`batch`] — the second vectorization axis: sixteen *independent*
//!   Montgomery multiplications, one per 32-bit lane (for batch-shaped
//!   server loads). Its classic CIOS kernel is the E8/E18 reference;
//!   [`MontVariant`] routes its ladders and checks to the generated
//!   truncated kernel instead.
//! * [`crt`] — CRT decomposition/recombination for private-key operations.
//! * [`params`] — [`KernelParams`]: the kernel design space (radix and
//!   window) with overflow-derived admissibility rules.
//! * [`genmont`] — [`GenMontCtx`]: generated batch Montgomery kernels
//!   executing any admissible parameter point, bit-identical to the
//!   classic kernel across the whole space; the truncated-separated
//!   reduction (elided low partial products plus an exact correction)
//!   lives only here, and every shared-modulus batch ladder and release
//!   check runs it.
//! * [`tuning`] — [`TuningTable`]: the committed autotuner result
//!   (`bench/tuning.json`, searched by the `phi-tune` crate on the
//!   deterministic modeled channel), the point each batch engine runs.
//! * [`engine`] — [`BatchCrtEngine`]: sixteen CRT private operations per
//!   pass, built from a [`PhiConfig`] (with or without a [`CrtKey`]).
//! * [`library`] — [`PhiLibrary`], packaging everything behind the same
//!   [`Libcrypto`](phi_mont::Libcrypto) facade as the two baselines.
//!
//! Every kernel is generic over a [`VectorBackend`] (from `phi-backend`):
//! [`ModeledKnc`] replays the paper's KNC cost model with exact operation
//! counting, while [`NativeX86`] executes the same lane semantics as
//! plain lane loops the compiler auto-vectorizes. Select one via
//! `PhiConfig::builder().backend(Backend::Auto)`.
//!
//! ## Example
//!
//! ```
//! use phi_bigint::BigUint;
//! use phiopenssl::{PhiLibrary, VMontCtx};
//! use phi_mont::Libcrypto;
//!
//! // A 256-bit odd modulus.
//! let n = BigUint::from_hex(
//!     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61",
//! ).unwrap();
//! let lib = PhiLibrary::default();
//! let r = lib.mod_exp(&BigUint::from(2u64), &BigUint::from(100u64), &n).unwrap();
//! assert_eq!(r, BigUint::from(2u64).mod_exp(&BigUint::from(100u64), &n));
//!
//! // Or drive the vector context directly.
//! let ctx = VMontCtx::new(&n).unwrap();
//! let am = ctx.to_mont_vec(&BigUint::from(7u64));
//! let sq = ctx.from_mont_vec(&ctx.mont_mul_vec(&am, &am));
//! assert_eq!(sq.to_u64(), Some(49));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod batch_multi;
pub mod crt;
pub mod engine;
pub mod genmont;
pub mod library;
pub mod params;
pub mod radix;
pub mod tuning;
pub mod vexp;
pub mod vmont;
pub mod vmul;
pub mod vsqr;

pub use batch::{BatchMont, MontVariant};
pub use batch_multi::MultiBatchMont;
pub use crt::CrtKey;
pub use engine::BatchCrtEngine;
pub use genmont::{GenMontCtx, GenMontError};
pub use library::{ConfigError, PhiConfig, PhiConfigBuilder, PhiLibrary};
pub use params::{KernelParams, ParamError};
pub use phi_backend::{
    Backend, BackendUnavailable, CpuFeatures, ModeledKnc, NativeX86, ResolvedBackend, VectorBackend,
};
pub use phi_rt::{FleetConfig, RoutingPolicy};
pub use radix::{VecNum, DIGIT_BITS, DIGIT_MASK};
pub use tuning::{TunedEntry, TuningTable};
pub use vexp::TableLookup;
pub use vmont::VMontCtx;
