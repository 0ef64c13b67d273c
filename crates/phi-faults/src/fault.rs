//! The closed taxonomy of modeled KNC failure modes.

use std::fmt;

/// One modeled card fault, observed at a batch-flush boundary.
///
/// The taxonomy follows the failure surface of a PCIe coprocessor:
/// transfer-level faults (corruption, timeout), compute-level faults
/// (a hung in-order core, a transient ECC event on one SIMD lane), and
/// the card-level catastrophe (full reset). Batch-wide faults fail every
/// lane of the flush they hit; lane-granular faults poison only the
/// affected lanes, so their batch-mates' results survive the attempt.
///
/// # Classification table
///
/// How the resilience layer treats each kind, at a glance:
///
/// | Kind | Scope | Detected? | Hard? | Runtime reaction |
/// |------|-------|-----------|-------|------------------|
/// | [`PcieCorruption`] | batch-wide | yes | no | retry whole flush (backoff ladder) |
/// | [`PcieTimeout`] | batch-wide | yes | no | retry whole flush (backoff ladder) |
/// | [`CoreHang`] | 4-lane group | yes | no | survivors complete; poisoned group retries |
/// | [`CardReset`] | batch-wide | yes | **yes** | breaker trips immediately; flush retries or degrades |
/// | [`EccLaneFault`] | one lane | yes | no | survivors complete; poisoned lane retries |
/// | [`SilentLaneFlip`] | one lane | **no** | no | nothing — unless verification is on (then: re-run → quarantine → escalate) |
/// | [`SilentBatchCorruption`] | batch-wide | **no** | no | nothing — unless verification is on |
///
/// *Detected* faults surface as an error at the flush boundary, so the
/// retry/breaker machinery reacts on its own. *Silent* faults
/// ([`FaultKind::is_silent`]) corrupt result limbs while the attempt
/// reports success — the Bellcore fault-attack scenario. Only the
/// verified-offload layer (`phi_rt`'s verify-on-release hook) can catch
/// them; without it the corrupted result is released to the caller.
///
/// [`PcieCorruption`]: FaultKind::PcieCorruption
/// [`PcieTimeout`]: FaultKind::PcieTimeout
/// [`CoreHang`]: FaultKind::CoreHang
/// [`CardReset`]: FaultKind::CardReset
/// [`EccLaneFault`]: FaultKind::EccLaneFault
/// [`SilentLaneFlip`]: FaultKind::SilentLaneFlip
/// [`SilentBatchCorruption`]: FaultKind::SilentBatchCorruption
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The DMA completed but the payload failed its integrity check.
    /// Batch-wide: the whole transfer is untrustworthy.
    PcieCorruption,
    /// The DMA never completed inside the transfer window. Batch-wide.
    PcieTimeout,
    /// One in-order core hung mid-batch, taking its four hardware
    /// contexts (one group of four adjacent lanes) with it.
    /// Lane-granular: other cores' lanes complete.
    CoreHang {
        /// Which group of four adjacent lanes the hung core carried.
        group: usize,
    },
    /// The whole card reset; every in-flight lane is lost and the card
    /// needs re-initialization. Batch-wide and *hard*: a single reset
    /// trips the circuit breaker regardless of its consecutive-fault
    /// count.
    CardReset,
    /// A transient ECC event invalidated one lane's result.
    /// Lane-granular: the other fifteen lanes are fine.
    EccLaneFault {
        /// The poisoned lane index within the flush.
        lane: usize,
    },
    /// An undetected arithmetic fault flipped limbs in one lane's result:
    /// the attempt reports success and returns a *wrong* value. The
    /// dangerous kind — an unverified CRT signature computed over a
    /// silently-faulted half-exponentiation leaks the private key via
    /// `gcd(s − ŝ, n)` (Bellcore / Boneh–DeMillo–Lipton). Lane-granular
    /// and silent: nothing in the detected-fault machinery reacts.
    SilentLaneFlip {
        /// The corrupted lane index within the flush.
        lane: usize,
    },
    /// An undetected corruption of the whole result transfer: every
    /// lane's payload is wrong but the DMA integrity check passed (e.g. a
    /// fault in the staging buffer after the checksum). Batch-wide and
    /// silent.
    SilentBatchCorruption,
}

impl FaultKind {
    /// Whether this fault fails every lane of the flush it hits (as
    /// opposed to a recoverable subset).
    pub fn is_batch_wide(self) -> bool {
        matches!(
            self,
            FaultKind::PcieCorruption
                | FaultKind::PcieTimeout
                | FaultKind::CardReset
                | FaultKind::SilentBatchCorruption
        )
    }

    /// Whether this fault corrupts results *without* raising any
    /// detectable error: the card attempt reports success and hands back
    /// wrong limbs. Silent faults never touch the retry/breaker
    /// machinery on their own — only result verification can catch them.
    pub fn is_silent(self) -> bool {
        matches!(
            self,
            FaultKind::SilentLaneFlip { .. } | FaultKind::SilentBatchCorruption
        )
    }

    /// Whether a single occurrence trips the circuit breaker outright
    /// (card reset), as opposed to counting toward the consecutive-fault
    /// threshold.
    pub fn is_hard(self) -> bool {
        matches!(self, FaultKind::CardReset)
    }

    /// The lanes of an `n`-lane flush this fault poisons, as indices
    /// into the flush. Batch-wide faults poison everything; a core hang
    /// poisons one group of four adjacent lanes; an ECC event poisons a
    /// single lane.
    pub fn affected_lanes(self, n: usize) -> Vec<usize> {
        match self {
            FaultKind::PcieCorruption
            | FaultKind::PcieTimeout
            | FaultKind::CardReset
            | FaultKind::SilentBatchCorruption => (0..n).collect(),
            FaultKind::CoreHang { group } => {
                let groups = n.div_ceil(4).max(1);
                let g = group % groups;
                (g * 4..((g + 1) * 4).min(n)).collect()
            }
            FaultKind::EccLaneFault { lane } | FaultKind::SilentLaneFlip { lane } => {
                if n == 0 {
                    Vec::new()
                } else {
                    vec![lane % n]
                }
            }
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PcieCorruption => write!(f, "PCIe transfer corruption"),
            FaultKind::PcieTimeout => write!(f, "PCIe transfer timeout"),
            FaultKind::CoreHang { group } => write!(f, "core hang (lane group {group})"),
            FaultKind::CardReset => write!(f, "card reset"),
            FaultKind::EccLaneFault { lane } => write!(f, "transient ECC fault on lane {lane}"),
            FaultKind::SilentLaneFlip { lane } => {
                write!(f, "silent limb flip in lane {lane}'s result")
            }
            FaultKind::SilentBatchCorruption => write!(f, "silent batch-wide result corruption"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_wide_classification() {
        assert!(FaultKind::PcieCorruption.is_batch_wide());
        assert!(FaultKind::PcieTimeout.is_batch_wide());
        assert!(FaultKind::CardReset.is_batch_wide());
        assert!(FaultKind::SilentBatchCorruption.is_batch_wide());
        assert!(!FaultKind::CoreHang { group: 0 }.is_batch_wide());
        assert!(!FaultKind::EccLaneFault { lane: 3 }.is_batch_wide());
        assert!(!FaultKind::SilentLaneFlip { lane: 3 }.is_batch_wide());
    }

    #[test]
    fn silent_classification() {
        assert!(FaultKind::SilentLaneFlip { lane: 0 }.is_silent());
        assert!(FaultKind::SilentBatchCorruption.is_silent());
        for detected in [
            FaultKind::PcieCorruption,
            FaultKind::PcieTimeout,
            FaultKind::CoreHang { group: 0 },
            FaultKind::CardReset,
            FaultKind::EccLaneFault { lane: 0 },
        ] {
            assert!(!detected.is_silent(), "{detected} must be detected");
        }
        // Silent faults are never hard: nothing observable happened, so
        // they cannot trip the breaker by themselves.
        assert!(!FaultKind::SilentLaneFlip { lane: 0 }.is_hard());
        assert!(!FaultKind::SilentBatchCorruption.is_hard());
    }

    #[test]
    fn only_reset_is_hard() {
        assert!(FaultKind::CardReset.is_hard());
        assert!(!FaultKind::PcieTimeout.is_hard());
        assert!(!FaultKind::EccLaneFault { lane: 0 }.is_hard());
    }

    #[test]
    fn batch_wide_faults_poison_every_lane() {
        for k in [FaultKind::PcieCorruption, FaultKind::CardReset] {
            assert_eq!(k.affected_lanes(16), (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn core_hang_poisons_one_group_of_four() {
        let lanes = FaultKind::CoreHang { group: 1 }.affected_lanes(16);
        assert_eq!(lanes, vec![4, 5, 6, 7]);
        // Group index wraps to the groups the flush actually has.
        let wrapped = FaultKind::CoreHang { group: 4 }.affected_lanes(16);
        assert_eq!(wrapped, vec![0, 1, 2, 3]);
        // A narrow flush truncates the group at the flush width.
        let narrow = FaultKind::CoreHang { group: 0 }.affected_lanes(3);
        assert_eq!(narrow, vec![0, 1, 2]);
    }

    #[test]
    fn ecc_fault_poisons_one_lane_and_wraps() {
        assert_eq!(FaultKind::EccLaneFault { lane: 5 }.affected_lanes(16), [5]);
        assert_eq!(FaultKind::EccLaneFault { lane: 17 }.affected_lanes(16), [1]);
        assert!(FaultKind::EccLaneFault { lane: 0 }
            .affected_lanes(0)
            .is_empty());
    }

    #[test]
    fn silent_faults_target_like_their_detected_twins() {
        assert_eq!(
            FaultKind::SilentLaneFlip { lane: 5 }.affected_lanes(16),
            [5]
        );
        assert_eq!(
            FaultKind::SilentLaneFlip { lane: 17 }.affected_lanes(16),
            [1]
        );
        assert_eq!(
            FaultKind::SilentBatchCorruption.affected_lanes(4),
            (0..4).collect::<Vec<_>>()
        );
    }

    #[test]
    fn display_is_informative() {
        assert!(FaultKind::CoreHang { group: 2 }.to_string().contains('2'));
        assert!(FaultKind::EccLaneFault { lane: 7 }
            .to_string()
            .contains('7'));
        assert!(FaultKind::SilentLaneFlip { lane: 9 }
            .to_string()
            .contains('9'));
    }
}
