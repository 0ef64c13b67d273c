//! The card-health circuit breaker: consecutive faults trip it open,
//! degraded traffic flows to the host, and half-open probes let a
//! recovered card earn its traffic back.
//!
//! The breaker runs on a caller-supplied monotone clock (`f64` seconds),
//! like the `phi_rt` collector, so every transition is deterministic and
//! testable on virtual time.

use std::fmt;

/// Breaker tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive soft card faults that trip the breaker open. A hard
    /// fault (card reset) trips it immediately regardless.
    pub trip_threshold: u32,
    /// Seconds the breaker stays open before allowing a half-open probe.
    pub cooldown_s: f64,
    /// Consecutive successful probes required to close from half-open.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    /// Trip after 3 consecutive faults, cool down 100 ms, close after 2
    /// good probes.
    fn default() -> Self {
        BreakerConfig {
            trip_threshold: 3,
            cooldown_s: 100e-3,
            probe_successes: 2,
        }
    }
}

impl BreakerConfig {
    fn validate(&self) {
        assert!(self.trip_threshold >= 1, "trip threshold must be positive");
        assert!(self.cooldown_s >= 0.0, "cooldown must be non-negative");
        assert!(self.probe_successes >= 1, "need at least one probe");
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Card healthy: all batches go to the card.
    Closed,
    /// Card distrusted: all batches go to the host fallback.
    Open,
    /// Cooldown elapsed: the next batch probes the card.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Inner {
    Closed { consecutive_faults: u32 },
    Open { until: f64 },
    HalfOpen { successes: u32 },
}

/// The card-health state machine.
///
/// Callers ask [`CircuitBreaker::allow`] before each batch, then report
/// the outcome with [`CircuitBreaker::record_success`],
/// [`CircuitBreaker::record_fault`] or
/// [`CircuitBreaker::record_hard_fault`].
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Inner,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            inner: Inner::Closed {
                consecutive_faults: 0,
            },
            trips: 0,
            recoveries: 0,
        }
    }

    /// The configuration this breaker runs under.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Observable state at clock reading `now` (an elapsed cooldown
    /// shows as [`BreakerState::HalfOpen`]).
    pub fn state(&self, now: f64) -> BreakerState {
        match self.inner {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { until } if now < until => BreakerState::Open,
            Inner::Open { .. } | Inner::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether the next batch may try the card. Open → `false` (host
    /// fallback); closed or half-open (probe) → `true`. Transitions
    /// open → half-open when the cooldown has elapsed.
    pub fn allow(&mut self, now: f64) -> bool {
        match self.inner {
            Inner::Closed { .. } => true,
            Inner::Open { until } => {
                if now < until {
                    false
                } else {
                    self.inner = Inner::HalfOpen { successes: 0 };
                    true
                }
            }
            Inner::HalfOpen { .. } => true,
        }
    }

    /// Report a card batch that completed cleanly.
    pub fn record_success(&mut self, _now: f64) {
        match self.inner {
            Inner::Closed { .. } => {
                self.inner = Inner::Closed {
                    consecutive_faults: 0,
                };
            }
            Inner::HalfOpen { successes } => {
                let successes = successes + 1;
                if successes >= self.config.probe_successes {
                    self.inner = Inner::Closed {
                        consecutive_faults: 0,
                    };
                    self.recoveries += 1;
                } else {
                    self.inner = Inner::HalfOpen { successes };
                }
            }
            // A success while open is a stale report; ignore it.
            Inner::Open { .. } => {}
        }
    }

    /// Report a soft card-level fault (PCIe corruption/timeout).
    pub fn record_fault(&mut self, now: f64) {
        match self.inner {
            Inner::Closed { consecutive_faults } => {
                let consecutive_faults = consecutive_faults + 1;
                if consecutive_faults >= self.config.trip_threshold {
                    self.trip(now);
                } else {
                    self.inner = Inner::Closed { consecutive_faults };
                }
            }
            // A faulted probe re-opens for a fresh cooldown.
            Inner::HalfOpen { .. } => self.trip(now),
            Inner::Open { .. } => {}
        }
    }

    /// Report a hard fault (card reset): trips immediately from closed
    /// or half-open, regardless of the consecutive-fault count.
    pub fn record_hard_fault(&mut self, now: f64) {
        match self.inner {
            Inner::Closed { .. } | Inner::HalfOpen { .. } => self.trip(now),
            Inner::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: f64) {
        self.inner = Inner::Open {
            until: now + self.config.cooldown_s,
        };
        self.trips += 1;
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times the breaker has closed again from half-open.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: f64, probes: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            trip_threshold: threshold,
            cooldown_s: cooldown,
            probe_successes: probes,
        })
    }

    #[test]
    fn stays_closed_under_isolated_faults() {
        let mut b = breaker(3, 1.0, 1);
        for t in 0..10 {
            let now = t as f64;
            assert!(b.allow(now));
            b.record_fault(now);
            b.record_success(now); // success resets the consecutive count
        }
        assert_eq!(b.state(100.0), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn consecutive_faults_trip_it() {
        let mut b = breaker(3, 1.0, 1);
        b.record_fault(0.0);
        b.record_fault(0.1);
        assert_eq!(b.state(0.2), BreakerState::Closed);
        b.record_fault(0.2);
        assert_eq!(b.state(0.3), BreakerState::Open);
        assert!(!b.allow(0.3));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn hard_fault_trips_immediately() {
        let mut b = breaker(5, 1.0, 1);
        b.record_hard_fault(0.0);
        assert_eq!(b.state(0.5), BreakerState::Open);
        assert!(!b.allow(0.5));
    }

    #[test]
    fn cooldown_opens_a_probe_window() {
        let mut b = breaker(1, 1.0, 1);
        b.record_fault(0.0);
        assert!(!b.allow(0.5));
        assert_eq!(b.state(1.0), BreakerState::HalfOpen);
        assert!(b.allow(1.0), "cooldown elapsed: probe allowed");
        // A good probe closes it (probe_successes = 1).
        b.record_success(1.0);
        assert_eq!(b.state(1.0), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
    }

    #[test]
    fn multi_probe_recovery() {
        let mut b = breaker(1, 1.0, 2);
        b.record_fault(0.0);
        assert!(b.allow(1.0));
        b.record_success(1.0);
        assert_eq!(
            b.state(1.0),
            BreakerState::HalfOpen,
            "one probe is not enough"
        );
        b.record_success(1.1);
        assert_eq!(b.state(1.1), BreakerState::Closed);
    }

    #[test]
    fn faulted_probe_reopens_with_fresh_cooldown() {
        let mut b = breaker(1, 1.0, 1);
        b.record_fault(0.0);
        assert!(b.allow(1.0)); // half-open
        b.record_fault(1.0); // probe failed
        assert_eq!(b.state(1.5), BreakerState::Open);
        assert!(!b.allow(1.9));
        assert!(b.allow(2.0), "new cooldown counted from the failed probe");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn closed_after_recovery_needs_full_threshold_again() {
        let mut b = breaker(2, 1.0, 1);
        b.record_fault(0.0);
        b.record_fault(0.1); // trip
        assert!(b.allow(1.1)); // probe
        b.record_success(1.1); // recover
        b.record_fault(2.0);
        assert_eq!(
            b.state(2.0),
            BreakerState::Closed,
            "one fault after recovery must not re-trip a threshold-2 breaker"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }

    #[test]
    #[should_panic(expected = "trip threshold")]
    fn zero_threshold_rejected() {
        breaker(0, 1.0, 1);
    }
}
