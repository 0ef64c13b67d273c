//! Deterministic fault schedules: seedable random injection and exact
//! scripted sequences behind one [`FaultSource`] trait.

use crate::fault::FaultKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Something the execution layers can ask "does this flush attempt
/// fault, and how?". Implementations must be deterministic given their
/// construction (seed or script): the resilience layers consult the
/// source exactly once per card attempt, so the draw sequence — and
/// therefore the whole chaos run — replays from the seed.
pub trait FaultSource: Send + Sync {
    /// The fault hitting the next `lanes`-lane card attempt, if any.
    fn next_fault(&self, lanes: usize) -> Option<FaultKind>;

    /// Total faults this source has injected so far.
    fn injected(&self) -> u64;
}

/// Per-attempt probabilities of each fault class. Rates are independent
/// per draw; the first class that fires (in taxonomy order) wins, which
/// keeps a single uniform draw per attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of a PCIe payload corruption per attempt.
    pub pcie_corruption: f64,
    /// Probability of a PCIe transfer timeout per attempt.
    pub pcie_timeout: f64,
    /// Probability of an in-order core hanging per attempt.
    pub core_hang: f64,
    /// Probability of a whole-card reset per attempt.
    pub card_reset: f64,
    /// Probability of a transient single-lane ECC fault per attempt.
    pub ecc_lane: f64,
    /// Probability of an undetected single-lane result flip per attempt
    /// ([`FaultKind::SilentLaneFlip`]).
    pub silent_lane: f64,
    /// Probability of an undetected batch-wide result corruption per
    /// attempt ([`FaultKind::SilentBatchCorruption`]).
    pub silent_batch: f64,
}

impl FaultRates {
    /// No faults ever (the clean card).
    pub fn none() -> Self {
        FaultRates {
            pcie_corruption: 0.0,
            pcie_timeout: 0.0,
            core_hang: 0.0,
            card_reset: 0.0,
            ecc_lane: 0.0,
            silent_lane: 0.0,
            silent_batch: 0.0,
        }
    }

    /// A total fault probability `p` split across the *detected* taxonomy
    /// in rough field proportions: transfer faults dominate, lane faults
    /// are common, resets are rare. Silent rates stay zero — the split is
    /// pinned so every seeded schedule built from it replays across
    /// releases; use [`FaultRates::silent`] for the undetected classes.
    pub fn uniform(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault probability out of range");
        FaultRates {
            pcie_corruption: p * 0.25,
            pcie_timeout: p * 0.25,
            core_hang: p * 0.15,
            card_reset: p * 0.05,
            ecc_lane: p * 0.30,
            ..FaultRates::none()
        }
    }

    /// A total *silent*-fault probability `p`, split heavily toward the
    /// single-lane flip (the classic one-faulty-multiplier scenario) with
    /// a small batch-wide share. All detected rates stay zero, so the
    /// resulting schedule corrupts results without ever raising an error.
    pub fn silent(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault probability out of range");
        FaultRates {
            silent_lane: p * 0.90,
            silent_batch: p * 0.10,
            ..FaultRates::none()
        }
    }

    /// Total per-attempt fault probability.
    pub fn total(&self) -> f64 {
        self.pcie_corruption
            + self.pcie_timeout
            + self.core_hang
            + self.card_reset
            + self.ecc_lane
            + self.silent_lane
            + self.silent_batch
    }

    /// True when no class can ever fire.
    pub fn is_zero(&self) -> bool {
        self.total() == 0.0
    }
}

/// A seedable random fault schedule: each card attempt draws once from a
/// deterministic generator and maps the draw to the rate table. Two
/// injectors with the same seed and rates produce the same fault
/// sequence for the same attempt sequence.
pub struct FaultInjector {
    rates: FaultRates,
    rng: Mutex<StdRng>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// A deterministic injector over the given rates.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        assert!(
            rates.total() <= 1.0,
            "fault rates sum to more than a probability"
        );
        FaultInjector {
            rates,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            injected: AtomicU64::new(0),
        }
    }

    fn draw_unit(rng: &mut StdRng) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl FaultSource for FaultInjector {
    fn next_fault(&self, lanes: usize) -> Option<FaultKind> {
        if self.rates.is_zero() || lanes == 0 {
            return None;
        }
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        let u = Self::draw_unit(&mut rng);
        let r = &self.rates;
        // One uniform draw walks the cumulative rate table in taxonomy
        // order; the class whose band contains the draw fires. The silent
        // bands sit *after* the detected ones so that any schedule with
        // silent rates at zero reproduces the pre-silent draw sequence
        // bit-for-bit from the same seed.
        let bands = [
            r.pcie_corruption,
            r.pcie_timeout,
            r.core_hang,
            r.card_reset,
            r.ecc_lane,
            r.silent_lane,
            r.silent_batch,
        ];
        let mut edge = 0.0;
        let mut hit = None;
        for (i, band) in bands.into_iter().enumerate() {
            edge += band;
            if u < edge {
                hit = Some(i);
                break;
            }
        }
        let kind = match hit {
            Some(0) => FaultKind::PcieCorruption,
            Some(1) => FaultKind::PcieTimeout,
            Some(2) => FaultKind::CoreHang {
                group: rng.gen_range(0..lanes.div_ceil(4).max(1)),
            },
            Some(3) => FaultKind::CardReset,
            Some(4) => FaultKind::EccLaneFault {
                lane: rng.gen_range(0..lanes),
            },
            Some(5) => FaultKind::SilentLaneFlip {
                lane: rng.gen_range(0..lanes),
            },
            Some(6) => FaultKind::SilentBatchCorruption,
            _ => return None,
        };
        drop(rng);
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// An exact scripted fault sequence: attempt `i` gets the `i`-th entry,
/// and attempts beyond the script run clean. The precision tool for
/// tests ("card reset on the second flush, then a healthy card").
pub struct FaultScript {
    steps: Mutex<VecDeque<Option<FaultKind>>>,
    injected: AtomicU64,
}

impl FaultScript {
    /// A script whose entries are consumed one per card attempt.
    pub fn new(steps: Vec<Option<FaultKind>>) -> Self {
        FaultScript {
            steps: Mutex::new(steps.into()),
            injected: AtomicU64::new(0),
        }
    }

    /// A script injecting the same fault for the first `n` attempts.
    pub fn repeat(kind: FaultKind, n: usize) -> Self {
        Self::new(vec![Some(kind); n])
    }

    /// Scripted steps not yet consumed.
    pub fn remaining(&self) -> usize {
        self.steps.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Per-card fault scripts for a *correlated* whole-card failure drill:
/// a seed-chosen subset of `affected` cards all fire a burst of `burst`
/// [`FaultKind::CardReset`]s after `delay` clean card attempts — the
/// rack-power-dip scenario where several coprocessors reset together
/// under load. The remaining cards stay healthy (empty scripts).
///
/// Deterministic: the same `(seed, cards, affected, delay, burst)`
/// produces the same affected subset and the same schedules, so fleet
/// chaos drills replay exactly like every other seeded schedule here.
/// Returns one script per card, indexed by card.
pub fn correlated_reset_scripts(
    seed: u64,
    cards: usize,
    affected: usize,
    delay: usize,
    burst: usize,
) -> Vec<FaultScript> {
    assert!(cards >= 1, "a fleet needs at least one card");
    assert!(
        affected <= cards,
        "cannot affect more cards than the fleet has"
    );
    // Seeded Fisher–Yates over the card indices; the first `affected`
    // entries of the shuffle are the correlated-failure set.
    let mut order: Vec<usize> = (0..cards).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..cards).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let hit: Vec<usize> = order.into_iter().take(affected).collect();
    (0..cards)
        .map(|card| {
            if hit.contains(&card) {
                let mut steps = vec![None; delay];
                steps.extend(std::iter::repeat_n(Some(FaultKind::CardReset), burst));
                FaultScript::new(steps)
            } else {
                FaultScript::new(Vec::new())
            }
        })
        .collect()
}

impl FaultSource for FaultScript {
    fn next_fault(&self, _lanes: usize) -> Option<FaultKind> {
        let step = self
            .steps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
            .flatten();
        if step.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        step
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fault() {
        let inj = FaultInjector::new(1, FaultRates::none());
        for _ in 0..1000 {
            assert_eq!(inj.next_fault(16), None);
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(42, FaultRates::uniform(0.5));
        let b = FaultInjector::new(42, FaultRates::uniform(0.5));
        let sa: Vec<_> = (0..200).map(|_| a.next_fault(16)).collect();
        let sb: Vec<_> = (0..200).map(|_| b.next_fault(16)).collect();
        assert_eq!(sa, sb);
        assert!(a.injected() > 0, "a 50% schedule must fault sometimes");
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultInjector::new(1, FaultRates::uniform(0.5));
        let b = FaultInjector::new(2, FaultRates::uniform(0.5));
        let sa: Vec<_> = (0..64).map(|_| a.next_fault(16)).collect();
        let sb: Vec<_> = (0..64).map(|_| b.next_fault(16)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let inj = FaultInjector::new(7, FaultRates::uniform(0.2));
        let n = 5000;
        let faults = (0..n).filter(|_| inj.next_fault(16).is_some()).count();
        let rate = faults as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn lane_faults_index_inside_the_flush() {
        let inj = FaultInjector::new(
            3,
            FaultRates {
                ecc_lane: 1.0,
                ..FaultRates::none()
            },
        );
        for _ in 0..200 {
            match inj.next_fault(5) {
                Some(FaultKind::EccLaneFault { lane }) => assert!(lane < 5),
                other => panic!("expected an ECC fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn silent_rates_draw_only_silent_kinds() {
        let inj = FaultInjector::new(11, FaultRates::silent(1.0));
        let mut lane_flips = 0;
        let mut batch = 0;
        for _ in 0..500 {
            match inj.next_fault(16) {
                Some(FaultKind::SilentLaneFlip { lane }) => {
                    assert!(lane < 16);
                    lane_flips += 1;
                }
                Some(FaultKind::SilentBatchCorruption) => batch += 1,
                other => panic!("expected a silent fault, got {other:?}"),
            }
        }
        assert!(lane_flips > batch, "lane flips dominate the silent split");
        assert!(batch > 0, "the batch-wide share fires at p = 1");
        assert_eq!(inj.injected(), 500);
    }

    /// Appending the silent bands after the detected ones preserves every
    /// pre-silent seeded schedule: an all-detected rate table consumes
    /// the rng identically whether or not the silent classes exist.
    #[test]
    fn detected_only_schedules_are_unchanged_by_silent_bands() {
        let legacy = FaultInjector::new(42, FaultRates::uniform(0.5));
        let explicit = FaultInjector::new(
            42,
            FaultRates {
                silent_lane: 0.0,
                silent_batch: 0.0,
                ..FaultRates::uniform(0.5)
            },
        );
        let a: Vec<_> = (0..300).map(|_| legacy.next_fault(16)).collect();
        let b: Vec<_> = (0..300).map(|_| explicit.next_fault(16)).collect();
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|k| !k.is_silent()));
    }

    #[test]
    fn mixed_detected_and_silent_rates_fire_both() {
        let inj = FaultInjector::new(
            13,
            FaultRates {
                silent_lane: 0.2,
                ..FaultRates::uniform(0.3)
            },
        );
        let kinds: Vec<_> = (0..2000).filter_map(|_| inj.next_fault(16)).collect();
        assert!(kinds.iter().any(|k| k.is_silent()));
        assert!(kinds.iter().any(|k| !k.is_silent()));
    }

    #[test]
    fn script_plays_back_exactly() {
        let script = FaultScript::new(vec![
            Some(FaultKind::CardReset),
            None,
            Some(FaultKind::EccLaneFault { lane: 2 }),
        ]);
        assert_eq!(script.next_fault(16), Some(FaultKind::CardReset));
        assert_eq!(script.next_fault(16), None);
        assert_eq!(
            script.next_fault(16),
            Some(FaultKind::EccLaneFault { lane: 2 })
        );
        // Beyond the script: a healthy card forever.
        assert_eq!(script.next_fault(16), None);
        assert_eq!(script.injected(), 2);
        assert_eq!(script.remaining(), 0);
    }

    #[test]
    fn repeat_builds_a_burst() {
        let script = FaultScript::repeat(FaultKind::PcieTimeout, 3);
        for _ in 0..3 {
            assert_eq!(script.next_fault(8), Some(FaultKind::PcieTimeout));
        }
        assert_eq!(script.next_fault(8), None);
    }

    #[test]
    fn correlated_resets_are_deterministic_and_sized() {
        let a = correlated_reset_scripts(9, 4, 2, 3, 5);
        let b = correlated_reset_scripts(9, 4, 2, 3, 5);
        assert_eq!(a.len(), 4);
        let shape = |scripts: &[FaultScript]| -> Vec<usize> {
            scripts.iter().map(FaultScript::remaining).collect()
        };
        assert_eq!(shape(&a), shape(&b), "same seed, same affected subset");
        // Exactly two cards carry the 3-clean + 5-reset schedule.
        let loaded = a.iter().filter(|s| s.remaining() == 8).count();
        let clean = a.iter().filter(|s| s.remaining() == 0).count();
        assert_eq!((loaded, clean), (2, 2));
        // An affected card plays delay clean attempts, then the burst.
        let affected = a.iter().find(|s| s.remaining() > 0).unwrap();
        for _ in 0..3 {
            assert_eq!(affected.next_fault(16), None);
        }
        assert_eq!(affected.next_fault(16), Some(FaultKind::CardReset));
        // Different seeds may pick different subsets (probe a few).
        let subset = |seed| {
            correlated_reset_scripts(seed, 8, 2, 0, 1)
                .iter()
                .map(|s| s.remaining())
                .collect::<Vec<_>>()
        };
        assert!((0..16).any(|s| subset(s) != subset(0)));
    }

    #[test]
    #[should_panic(expected = "more than a probability")]
    fn overfull_rates_rejected() {
        let mut r = FaultRates::uniform(1.0);
        r.ecc_lane += 0.5;
        FaultInjector::new(0, r);
    }
}
