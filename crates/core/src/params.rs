//! Kernel parameterization: the two tunable axes of the generated
//! Montgomery kernel (`phi-tune` searches this space, [`crate::genmont`]
//! executes a point of it).
//!
//! The paper hard-codes radix 2^27 and window 5. [`KernelParams`] lifts
//! both into data so the autotuner can sweep them per key size on the
//! deterministic modeled channel. Every admissible point is
//! **bit-identical** to the classic kernel (the `batch-kernel`
//! conformance family proves it continuously); the parameters only move
//! modeled cycles.

use std::fmt;

/// Radix widths the generator considers (bits per reduced-radix digit).
/// Below 26 the digit count only grows; above 30 no key size admits the
/// column-sum bound (see [`KernelParams::radix_admissible`]).
pub const RADIX_CANDIDATES: [u32; 5] = [26, 27, 28, 29, 30];

/// An invalid [`KernelParams`] point, rejected before any kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// Window width outside the supported `1..=7` range.
    Window(u32),
    /// The radix violates the no-overflow column-sum bound for this
    /// modulus size (or is outside the generator's `2..=31` range).
    RadixInadmissible {
        /// The rejected digit width.
        radix_bits: u32,
        /// The modulus size the point was validated against.
        mod_bits: u32,
    },
    /// Generated kernels need at least two digits (the truncation
    /// boundary column `s_{k-2}` must exist).
    ModulusTooSmall(u32),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Window(w) => write!(f, "window {w} outside supported range 1..=7"),
            ParamError::RadixInadmissible {
                radix_bits,
                mod_bits,
            } => write!(
                f,
                "radix 2^{radix_bits} inadmissible for a {mod_bits}-bit modulus: \
                 column sums would overflow the 64-bit lane accumulator"
            ),
            ParamError::ModulusTooSmall(bits) => write!(
                f,
                "modulus of {bits} bits too small for a generated kernel (needs k >= 2 digits)"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// One point of the kernel parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// Bits per reduced-radix digit (the paper's, and the other
    /// kernels', is 27).
    pub radix_bits: u32,
    /// Fixed-window width for the exponentiation ladder.
    pub window: u32,
}

impl KernelParams {
    /// The static point, the paper's choices: radix 2^27, window 5. The
    /// batch engines fall back to it where no tuning-table row admits
    /// their CRT halves (keys over 4096 bits), the verified service's
    /// release check runs it, and `phi-tune` prices every row against it.
    pub fn static_defaults() -> Self {
        KernelParams {
            radix_bits: crate::radix::DIGIT_BITS,
            window: crate::vexp::DEFAULT_WINDOW,
        }
    }

    /// Whether a radix of `radix_bits` can run a `mod_bits`-bit modulus
    /// without overflowing the 64-bit lane accumulators.
    ///
    /// The bound is the one a full separated reduction would need, whose
    /// raw `T + m·n` columns sum at most `2k` products of `(2^r - 1)^2`
    /// plus a normalization carry: admissible iff `(k + 2) · 2^(2r) <
    /// 2^63` with `k = ceil(mod_bits / r)`. (The truncated reduction's
    /// columns are strictly smaller; the squaring's doubled digits
    /// additionally need `r + 1 <= 32` for the 32-bit FMA operand domain,
    /// satisfied by the `r <= 31` range cap.)
    pub fn radix_admissible(radix_bits: u32, mod_bits: u32) -> bool {
        if !(2..=31).contains(&radix_bits) {
            return false;
        }
        let k = mod_bits.div_ceil(radix_bits) as u128;
        (k + 2) << (2 * radix_bits) < 1u128 << 63
    }

    /// Validate this point against a concrete modulus size. Generated
    /// kernels reject what they cannot run rather than overflowing later.
    pub fn validate(&self, mod_bits: u32) -> Result<(), ParamError> {
        if self.window == 0 || self.window > 7 {
            return Err(ParamError::Window(self.window));
        }
        if !Self::radix_admissible(self.radix_bits, mod_bits) {
            return Err(ParamError::RadixInadmissible {
                radix_bits: self.radix_bits,
                mod_bits,
            });
        }
        if mod_bits.div_ceil(self.radix_bits) < 2 {
            return Err(ParamError::ModulusTooSmall(mod_bits));
        }
        Ok(())
    }

    /// The admissible radices for a `mod_bits`-bit modulus, in search
    /// order (what `phi-tune` sweeps).
    pub fn admissible_radices(mod_bits: u32) -> Vec<u32> {
        RADIX_CANDIDATES
            .iter()
            .copied()
            .filter(|&r| Self::radix_admissible(r, mod_bits) && mod_bits.div_ceil(r) >= 2)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_defaults_validate_for_every_paper_half_size() {
        for half in [256u32, 512, 1024, 2048] {
            KernelParams::static_defaults().validate(half).unwrap();
        }
    }

    #[test]
    fn radix_admissibility_matches_the_exact_bound() {
        // r = 29 admits k <= 29: 256-bit (k=9) and 512-bit (k=18) halves
        // pass, a 1024-bit half (k=36) overflows.
        assert!(KernelParams::radix_admissible(29, 256));
        assert!(KernelParams::radix_admissible(29, 512));
        assert!(!KernelParams::radix_admissible(29, 1024));
        // r = 28 admits k <= 125: every paper half size up to 2048 bits.
        for half in [256u32, 512, 1024, 2048] {
            assert!(KernelParams::radix_admissible(28, half));
        }
        // r = 30 admits only k <= 5 — inadmissible for every paper size.
        assert!(!KernelParams::radix_admissible(30, 256));
        // Range caps.
        assert!(!KernelParams::radix_admissible(1, 64));
        assert!(!KernelParams::radix_admissible(32, 64));
    }

    #[test]
    fn admissible_radices_shrink_with_size() {
        assert_eq!(KernelParams::admissible_radices(256), vec![26, 27, 28, 29]);
        assert_eq!(KernelParams::admissible_radices(1024), vec![26, 27, 28]);
        assert_eq!(KernelParams::admissible_radices(2048), vec![26, 27, 28]);
    }

    #[test]
    fn validate_rejects_each_bad_axis() {
        let ok = KernelParams::static_defaults();
        assert_eq!(
            KernelParams { window: 0, ..ok }.validate(256),
            Err(ParamError::Window(0))
        );
        assert_eq!(
            KernelParams { window: 8, ..ok }.validate(256),
            Err(ParamError::Window(8))
        );
        assert_eq!(
            KernelParams {
                radix_bits: 30,
                ..ok
            }
            .validate(256),
            Err(ParamError::RadixInadmissible {
                radix_bits: 30,
                mod_bits: 256
            })
        );
        assert_eq!(
            ok.validate(27),
            Err(ParamError::ModulusTooSmall(27)),
            "single-digit moduli have no boundary column"
        );
        // Error messages carry the rejected value.
        assert!(ParamError::Window(9).to_string().contains('9'));
    }
}
