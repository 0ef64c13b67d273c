//! # phi-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! PhiOpenSSL evaluation (experiment index in `DESIGN.md §4`).
//!
//! Every table comes from the **modeled KNC channel**: deterministic
//! instruction counts through `phi-simd`'s counters, weighted by the
//! frozen KNC cost model. This is the channel expected to reproduce the
//! paper's *ratios* (the hardware is gone; see DESIGN.md §1). Host wall
//! clock has its own home, the repository benchmark under `perfbench/`
//! (`python3 perfbench/run.py`), which pins its runs to one CPU and
//! scales them by a reference kernel.
//!
//! Run `cargo run --release -p phi-bench --bin harness -- all` to print
//! every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod measure;
pub mod registry;
pub mod table;
pub mod workload;

pub use measure::{modeled, Modeled};
pub use table::Table;
