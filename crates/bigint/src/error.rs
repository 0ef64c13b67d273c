//! Error type shared by fallible big-integer operations.

use std::fmt;

/// Errors returned by fallible `phi-bigint` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BigIntError {
    /// Division or modular reduction by zero.
    DivisionByZero,
    /// A modular inverse was requested for operands that are not coprime.
    NotInvertible,
    /// A string could not be parsed as a number in the requested base.
    ParseError {
        /// The base the string was parsed in (16 or 10).
        base: u32,
        /// Byte offset of the first offending character.
        position: usize,
    },
    /// An operation needed an odd modulus but received an even one.
    EvenModulus,
    /// Prime generation failed to find a prime within the attempt budget.
    PrimeGenerationFailed {
        /// Requested bit length.
        bits: u32,
    },
    /// The requested bit length is too small for the operation.
    BitLengthTooSmall {
        /// Requested bit length.
        bits: u32,
        /// Minimum accepted bit length.
        min: u32,
    },
    /// The requested bit length is too large for the operation.
    BitLengthTooLarge {
        /// Requested bit length.
        bits: u32,
        /// Maximum accepted bit length.
        max: u32,
    },
}

impl fmt::Display for BigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BigIntError::DivisionByZero => write!(f, "division by zero"),
            BigIntError::NotInvertible => write!(f, "element is not invertible modulo the modulus"),
            BigIntError::ParseError { base, position } => {
                write!(f, "invalid digit for base {base} at byte offset {position}")
            }
            BigIntError::EvenModulus => write!(f, "operation requires an odd modulus"),
            BigIntError::PrimeGenerationFailed { bits } => {
                write!(
                    f,
                    "failed to generate a {bits}-bit prime within the attempt budget"
                )
            }
            BigIntError::BitLengthTooSmall { bits, min } => {
                write!(f, "bit length {bits} is below the minimum of {min}")
            }
            BigIntError::BitLengthTooLarge { bits, max } => {
                write!(f, "bit length {bits} is above the maximum of {max}")
            }
        }
    }
}

impl std::error::Error for BigIntError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(BigIntError::DivisionByZero.to_string().contains("zero"));
        assert!(BigIntError::NotInvertible
            .to_string()
            .contains("invertible"));
        let e = BigIntError::ParseError {
            base: 16,
            position: 3,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains('3'));
        assert!(BigIntError::EvenModulus.to_string().contains("odd"));
        let e = BigIntError::PrimeGenerationFailed { bits: 512 };
        assert!(e.to_string().contains("512"));
        let e = BigIntError::BitLengthTooSmall { bits: 2, min: 16 };
        assert!(e.to_string().contains('2'));
        let e = BigIntError::BitLengthTooLarge {
            bits: 13825,
            max: 13824,
        };
        assert!(e.to_string().contains("13825") && e.to_string().contains("13824"));
    }
}
