//! Verified offload: result-integrity hooks and per-card lane
//! quarantine for the silent-fault threat model.
//!
//! Every fault the resilient layer handled before this module is
//! *detected* — the card attempt errors and the retry/breaker machinery
//! reacts. A **silent** fault ([`phi_faults::FaultKind::is_silent`])
//! corrupts result limbs while the attempt reports success; for RSA-CRT
//! that is not a correctness bug but a key-extraction vector (one
//! faulted half-exponentiation leaks the private key via
//! `gcd(s − ŝ, n)`, the Bellcore attack). The countermeasure is
//! host-side result verification before release:
//!
//! * [`IntegrityHooks`] — how silent corruption manifests for a payload
//!   type (`corrupt`) and how the host checks a result before releasing
//!   it (`verify`, the cheap public-exponent test for RSA). The
//!   `corrupt` hook exists even in unverified mode so the leak scenario
//!   is modelable; the `verify` hook is what closes it.
//! * [`LaneQuarantine`] — the per-card lane health ledger behind the
//!   graded degradation ladder. A lane whose results keep failing
//!   verification accumulates strikes, is quarantined (masked out of
//!   future batches) once it crosses
//!   [`QuarantineConfig::strike_threshold`], sits out
//!   [`QuarantineConfig::cooldown_flushes`] flushes, then re-enters on
//!   probation: one verified pass readmits it, another failure
//!   re-quarantines it. When
//!   [`QuarantineConfig::escalate_threshold`] lanes are quarantined at
//!   once, the card itself is suspect and the event escalates to the
//!   circuit breaker as a hard fault.
//!
//! The full ladder, walked by every card attempt of the flush ladder in
//! [`crate::resilient`]: verification failure → re-run the lane once
//! on-card (with the attempt's fault-poisoned lanes, in lane order) →
//! quarantine the lane → escalate repeated quarantines to the breaker →
//! host-scalar fallback. Host results sit inside the trust boundary and are not
//! re-verified. A service without a `verify` hook pays nothing: no
//! measured verification pass, no quarantine bookkeeping, bit- and
//! cycle-identical to the pre-verification stack.

/// The host-side integrity hooks of a verified offload service.
///
/// `T` is the request payload, `R` the card result (for RSA: ciphertext
/// and plaintext/signature as big integers).
pub struct IntegrityHooks<T, R> {
    /// How a silent fault mutates one lane's result: given the payload
    /// and the correct result, produce the corrupted value the card
    /// would have returned. Deterministic, so seeded chaos runs replay.
    pub corrupt: CorruptFn<T, R>,
    /// The release check, batch-shaped: given every (payload, result)
    /// pair one flush is about to release, return one verdict per pair
    /// (`true` = consistent, safe to release). The batch shape is what
    /// keeps verification cheap — for RSA the whole flush is checked in
    /// masked 16-lane vector passes (`m^e ≡ c (mod n)`, ~17 vector
    /// multiplications at e = 65537, amortized over every lane), instead
    /// of one scalar exponentiation per result. `None` releases results
    /// unchecked — the unverified baseline where silent corruption leaks
    /// to callers.
    pub verify: Option<BatchVerifyFn<T, R>>,
}

/// The silent-corruption model: payload and correct result in, the
/// corrupted value the card would have returned out.
pub type CorruptFn<T, R> = Box<dyn Fn(&T, &R) -> R + Send>;

/// The batch release check: pairs in, one verdict per pair out.
pub type BatchVerifyFn<T, R> = Box<dyn Fn(&[(&T, &R)]) -> Vec<bool> + Send>;

impl<T, R> IntegrityHooks<T, R> {
    /// Hooks that model silent corruption but never check results — the
    /// unverified baseline of the E20 leak sweep.
    pub fn corrupt_only(corrupt: impl Fn(&T, &R) -> R + Send + 'static) -> Self {
        IntegrityHooks {
            corrupt: Box::new(corrupt),
            verify: None,
        }
    }

    /// Fully verified hooks from a per-result release check (wrapped
    /// into the batch shape). For payloads with a real batched checker —
    /// RSA's vectorized public-exponent pass — use
    /// [`Self::verified_batch`] instead.
    pub fn verified(
        corrupt: impl Fn(&T, &R) -> R + Send + 'static,
        verify: impl Fn(&T, &R) -> bool + Send + 'static,
    ) -> Self {
        Self::verified_batch(corrupt, move |pairs: &[(&T, &R)]| {
            pairs.iter().map(|(t, r)| verify(t, r)).collect()
        })
    }

    /// Fully verified hooks: corruption model plus a batch release
    /// check that judges a whole flush at once.
    pub fn verified_batch(
        corrupt: impl Fn(&T, &R) -> R + Send + 'static,
        verify: impl Fn(&[(&T, &R)]) -> Vec<bool> + Send + 'static,
    ) -> Self {
        IntegrityHooks {
            corrupt: Box::new(corrupt),
            verify: Some(Box::new(verify)),
        }
    }

    /// Whether results are checked before release.
    pub fn is_verified(&self) -> bool {
        self.verify.is_some()
    }
}

/// Tunables of the lane-quarantine ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Verification failures (strikes) that quarantine a lane. Strikes
    /// reset on a verified pass, so only *repeat* offenders trip.
    pub strike_threshold: u32,
    /// Flushes a quarantined lane sits out before probation.
    pub cooldown_flushes: u32,
    /// Simultaneously quarantined lanes at which the card itself is
    /// suspect: the event escalates to the circuit breaker as a hard
    /// fault. `0` disables escalation.
    pub escalate_threshold: usize,
    /// On-card re-runs a lane's request gets after a verification
    /// failure before it is resolved off-card (the first rung of the
    /// degradation ladder).
    pub max_reruns: u32,
}

impl Default for QuarantineConfig {
    /// Two strikes to quarantine, four flushes of cooldown, escalate at
    /// four quarantined lanes, one on-card re-run.
    fn default() -> Self {
        QuarantineConfig {
            strike_threshold: 2,
            cooldown_flushes: 4,
            escalate_threshold: 4,
            max_reruns: 1,
        }
    }
}

impl QuarantineConfig {
    pub(crate) fn validate(&self) {
        assert!(self.strike_threshold >= 1, "strike threshold must be >= 1");
    }
}

/// One lane's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// In service; `strikes` verification failures since the last pass.
    Healthy { strikes: u32 },
    /// Masked out of batches for `cooldown` more flushes.
    Quarantined { cooldown: u32 },
    /// Back in service on probation: the next verified pass readmits,
    /// the next failure re-quarantines.
    Probation,
}

/// What [`LaneQuarantine::record_failure`] did with the strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// The lane was newly quarantined by this failure.
    pub quarantined: bool,
    /// This quarantine pushed the simultaneous count across the
    /// escalation threshold — the caller should record a hard fault on
    /// the card's breaker.
    pub escalate: bool,
}

/// The per-card lane health ledger: which physical lanes may carry
/// batch work, and the strike/quarantine/probation bookkeeping behind
/// the graded degradation ladder. Owned by one card worker (like its
/// breaker and virtual clock); no internal locking.
#[derive(Debug)]
pub struct LaneQuarantine {
    config: QuarantineConfig,
    lanes: Vec<LaneState>,
    quarantines: u64,
    readmissions: u64,
    escalations: u64,
}

impl LaneQuarantine {
    /// A fully healthy `width`-lane card.
    pub fn new(width: usize, config: QuarantineConfig) -> Self {
        config.validate();
        LaneQuarantine {
            config,
            lanes: vec![LaneState::Healthy { strikes: 0 }; width.max(1)],
            quarantines: 0,
            readmissions: 0,
            escalations: 0,
        }
    }

    /// The tunables this ledger runs under.
    pub fn config(&self) -> &QuarantineConfig {
        &self.config
    }

    /// Physical lanes currently allowed to carry batch work (healthy or
    /// on probation), in ascending order. Never empty: the last usable
    /// lane cannot be quarantined.
    pub fn usable_lanes(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, LaneState::Quarantined { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Lanes currently masked out.
    pub fn quarantined(&self) -> usize {
        self.lanes
            .iter()
            .filter(|s| matches!(s, LaneState::Quarantined { .. }))
            .count()
    }

    /// Times any lane was quarantined.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Times a probation lane was readmitted by a verified pass.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// Times the simultaneous-quarantine count crossed the escalation
    /// threshold.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Advance one flush: quarantined lanes tick their cooldown down
    /// and re-enter on probation when it expires.
    pub fn begin_flush(&mut self) {
        for lane in &mut self.lanes {
            if let LaneState::Quarantined { cooldown } = lane {
                if *cooldown == 0 {
                    *lane = LaneState::Probation;
                } else {
                    *cooldown -= 1;
                }
            }
        }
    }

    /// A lane's result passed verification: probation lanes are
    /// readmitted, healthy lanes forget their strikes.
    pub fn record_pass(&mut self, lane: usize) {
        match &mut self.lanes[lane] {
            LaneState::Probation => {
                self.lanes[lane] = LaneState::Healthy { strikes: 0 };
                self.readmissions += 1;
            }
            LaneState::Healthy { strikes } => *strikes = 0,
            LaneState::Quarantined { .. } => unreachable!("quarantined lane carried work"),
        }
    }

    /// A lane's result failed verification: one strike. Crossing the
    /// strike threshold (or failing on probation) quarantines the lane —
    /// unless it is the last usable one, in which case the card-level
    /// ladder (breaker, host fallback) is the only recourse.
    pub fn record_failure(&mut self, lane: usize) -> FailureOutcome {
        let trip = match &mut self.lanes[lane] {
            LaneState::Healthy { strikes } => {
                *strikes += 1;
                *strikes >= self.config.strike_threshold
            }
            LaneState::Probation => true,
            LaneState::Quarantined { .. } => unreachable!("quarantined lane carried work"),
        };
        if !trip || self.usable_lanes().len() <= 1 {
            return FailureOutcome {
                quarantined: false,
                escalate: false,
            };
        }
        self.lanes[lane] = LaneState::Quarantined {
            cooldown: self.config.cooldown_flushes,
        };
        self.quarantines += 1;
        let escalate = self.config.escalate_threshold > 0
            && self.quarantined() == self.config.escalate_threshold;
        if escalate {
            self.escalations += 1;
        }
        FailureOutcome {
            quarantined: true,
            escalate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> QuarantineConfig {
        QuarantineConfig::default()
    }

    #[test]
    fn fresh_card_has_every_lane_usable() {
        let q = LaneQuarantine::new(16, config());
        assert_eq!(q.usable_lanes(), (0..16).collect::<Vec<_>>());
        assert_eq!(q.quarantined(), 0);
    }

    #[test]
    fn one_strike_is_forgiven_by_a_pass() {
        let mut q = LaneQuarantine::new(4, config());
        assert_eq!(
            q.record_failure(2),
            FailureOutcome {
                quarantined: false,
                escalate: false
            }
        );
        q.record_pass(2);
        // Strikes reset: another single failure still does not quarantine.
        assert!(!q.record_failure(2).quarantined);
        assert_eq!(q.quarantined(), 0);
    }

    #[test]
    fn repeat_failures_quarantine_the_lane() {
        let mut q = LaneQuarantine::new(4, config());
        assert!(!q.record_failure(1).quarantined);
        assert!(q.record_failure(1).quarantined);
        assert_eq!(q.quarantined(), 1);
        assert_eq!(q.usable_lanes(), vec![0, 2, 3]);
        assert_eq!(q.quarantines(), 1);
    }

    #[test]
    fn cooldown_leads_to_probation_and_readmission() {
        let cfg = QuarantineConfig {
            cooldown_flushes: 2,
            ..config()
        };
        let mut q = LaneQuarantine::new(4, cfg);
        q.record_failure(0);
        q.record_failure(0);
        assert_eq!(q.quarantined(), 1);
        // Two flushes of cooldown, then probation (usable again).
        q.begin_flush();
        assert_eq!(q.quarantined(), 1);
        q.begin_flush();
        assert_eq!(q.quarantined(), 1);
        q.begin_flush();
        assert_eq!(q.quarantined(), 0, "cooldown expired: probation");
        assert_eq!(q.usable_lanes(), vec![0, 1, 2, 3]);
        // A verified pass on probation readmits.
        q.record_pass(0);
        assert_eq!(q.readmissions(), 1);
        assert!(!q.record_failure(0).quarantined, "strikes start fresh");
    }

    #[test]
    fn probation_failure_requarantines_immediately() {
        let cfg = QuarantineConfig {
            cooldown_flushes: 0,
            ..config()
        };
        let mut q = LaneQuarantine::new(4, cfg);
        q.record_failure(3);
        q.record_failure(3);
        q.begin_flush();
        assert_eq!(q.quarantined(), 0, "zero cooldown: straight to probation");
        assert!(q.record_failure(3).quarantined, "one probation failure");
        assert_eq!(q.quarantines(), 2);
    }

    #[test]
    fn escalation_fires_once_at_the_threshold() {
        let cfg = QuarantineConfig {
            escalate_threshold: 2,
            ..config()
        };
        let mut q = LaneQuarantine::new(8, cfg);
        q.record_failure(0);
        assert!(!q.record_failure(0).escalate, "first quarantine: below");
        q.record_failure(1);
        let out = q.record_failure(1);
        assert!(out.quarantined && out.escalate, "second crosses threshold");
        q.record_failure(2);
        assert!(
            !q.record_failure(2).escalate,
            "third is above, not crossing"
        );
        assert_eq!(q.escalations(), 1);
    }

    #[test]
    fn last_usable_lane_is_never_quarantined() {
        let mut q = LaneQuarantine::new(2, config());
        q.record_failure(0);
        q.record_failure(0);
        assert_eq!(q.usable_lanes(), vec![1]);
        q.record_failure(1);
        let out = q.record_failure(1);
        assert!(!out.quarantined, "lane 1 is the card's last usable lane");
        assert_eq!(q.usable_lanes(), vec![1]);
    }

    #[test]
    fn hooks_report_their_mode() {
        let unverified: IntegrityHooks<u64, u64> = IntegrityHooks::corrupt_only(|_, r| r ^ 1);
        assert!(!unverified.is_verified());
        let verified: IntegrityHooks<u64, u64> =
            IntegrityHooks::verified(|_, r| r ^ 1, |t, r| *r == t * 2);
        assert!(verified.is_verified());
        assert_eq!((verified.corrupt)(&3, &6), 7);
        let check = verified.verify.as_ref().unwrap();
        assert_eq!(check(&[(&3, &6), (&3, &7)]), vec![true, false]);
    }

    #[test]
    fn batch_hooks_judge_a_whole_flush_at_once() {
        // A genuinely batch-shaped checker (one call per flush) sees
        // every pair together — the RSA layer uses this to verify a
        // flush in masked 16-lane vector passes.
        let hooks: IntegrityHooks<u64, u64> = IntegrityHooks::verified_batch(
            |_, r| r ^ 1,
            |pairs| pairs.iter().map(|(t, r)| **r == **t * 2).collect(),
        );
        assert!(hooks.is_verified());
        let check = hooks.verify.as_ref().unwrap();
        assert_eq!(
            check(&[(&1, &2), (&2, &5), (&3, &6)]),
            vec![true, false, true]
        );
    }
}
