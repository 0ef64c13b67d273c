//! Differential conformance and deterministic fuzzing for the
//! PhiOpenSSL reproduction.
//!
//! The paper's correctness claim is strict: the vectorized library must
//! produce *bit-identical* answers to OpenSSL's scalar path — the 2^27
//! radix, the redundant-carry representation, and the batch transposes
//! are all invisible in the output. This crate turns that claim into a
//! harness with two halves:
//!
//! * **Differential fuzzing** ([`diff`]): every vector kernel — the
//!   multiplication/squaring kernels, the Montgomery contexts, the
//!   fixed-window ladders, the CRT engine, the 16-lane batchers,
//!   the RSA operation layer and the fault-resilient service — is
//!   cross-checked against the word-level [`phi_bigint`] oracle on
//!   structured adversarial inputs (all-ones limbs, carry-chain
//!   maximizers, moduli a hair under `2^k`, masked partial batches,
//!   every window width). Case streams are seed-replayable: the seed is
//!   printed on every run and `conformance --replay <seed>` reproduces a
//!   failure exactly (same discipline as `tests/chaos.rs`, env
//!   `CONF_SEED`).
//! * **Known-answer tests** ([`corpus`]): an embedded corpus of SHA-1,
//!   MGF1, PKCS#1 v1.5 and OAEP vectors plus frozen RSA
//!   sign/verify/encrypt/decrypt answers at 1024/2048/4096 bits, checked
//!   against every library profile. Encrypt-direction randomness (the
//!   OAEP seed, the v1.5 padding string) is embedded in the corpus and
//!   replayed byte-for-byte, so even randomized paddings have exact
//!   expected ciphertexts.
//!
//! The `conformance` binary drives both: `--smoke` for CI,
//! `--full` for the nightly schedule, `--replay <seed>` to reproduce,
//! and `--inject <family>` to corrupt one seed-chosen case — the
//! harness's own meta-test that a reported seed really replays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod report;

pub use diff::{run_all, DiffConfig, DiffOutcome, FAMILIES};
pub use gen::{conf_seed, CaseGen};
pub use report::Divergence;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI budget: small case counts, operands to 512 bits, RSA KATs to
    /// 2048 bits. A release-mode run finishes in well under a minute.
    Smoke,
    /// Nightly budget: 4× the cases, operands to 1024 bits, RSA KATs to
    /// 4096 bits.
    Full,
}

impl Profile {
    /// The differential configuration this profile runs.
    pub fn diff_config(self, seed: u64, inject: Option<String>) -> DiffConfig {
        match self {
            Profile::Smoke => DiffConfig {
                seed,
                cases: 8,
                max_bits: 512,
                inject,
            },
            Profile::Full => DiffConfig {
                seed,
                cases: 32,
                max_bits: 1024,
                inject,
            },
        }
    }

    /// The largest RSA KAT key size this profile verifies.
    pub fn kat_max_bits(self) -> u32 {
        match self {
            Profile::Smoke => 2048,
            Profile::Full => 4096,
        }
    }
}

/// What one harness run did and found.
#[derive(Debug)]
pub struct RunReport {
    /// The replay seed the differential families ran under.
    pub seed: u64,
    /// Outcome of the differential families.
    pub diff: DiffOutcome,
    /// Divergences from the known-answer corpus (empty on a clean run).
    pub kat_divergences: Vec<Divergence>,
    /// Number of embedded known-answer vectors checked.
    pub kat_vectors: usize,
}

impl RunReport {
    /// Whether every check agreed.
    pub fn is_clean(&self) -> bool {
        self.diff.divergences.is_empty() && self.kat_divergences.is_empty()
    }

    /// All divergences, differential first.
    pub fn divergences(&self) -> impl Iterator<Item = &Divergence> {
        self.diff.divergences.iter().chain(&self.kat_divergences)
    }
}

/// Run the full harness — KAT corpus, then every differential family —
/// under `profile` with the given replay seed.
pub fn run(profile: Profile, seed: u64, inject: Option<String>) -> RunReport {
    let mut kat_divergences = corpus::verify_hashes_and_padding();
    kat_divergences.extend(corpus::verify_rsa(profile.kat_max_bits()));
    let diff = run_all(&profile.diff_config(seed, inject));
    RunReport {
        seed,
        diff,
        kat_divergences,
        kat_vectors: corpus::corpus_len(),
    }
}
